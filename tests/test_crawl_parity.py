"""Crawl-plane parity: Ray frontier vs sequential oracle.

North-rule gates: crawl ordering (the fetch log) and the final URL-seen
set must be byte-identical under the same seed list + politeness budget;
checkpoint/resume must reproduce the uninterrupted run exactly.
"""

import pytest

from webarchive_discovery_ray.config import CrawlConfig, SyntheticConfig
from webarchive_discovery_ray.oracle.crawl_oracle import oracle_crawl
from webarchive_discovery_ray.pipelines.crawl import run_crawl
from webarchive_discovery_ray.sources.synthetic import seed_urls

SYN = SyntheticConfig(n_hosts=10, pages_per_host=60, max_fanout=6)
CRAWL = CrawlConfig(politeness_budget=3, max_waves=4, seen_shards=4)


@pytest.fixture(scope="module")
def seeds():
    return seed_urls(SYN, n_seeds=6)


@pytest.fixture(scope="module")
def oracle_result(seeds):
    return oracle_crawl(seeds, CRAWL, SYN)


def _log_key(entry):
    return (entry["order"], entry["wave"], entry["host"], entry["slot"], entry["url"], entry["surt"], entry["status"])


def test_oracle_sanity(oracle_result):
    r = oracle_result
    assert len(r.fetch_log) > 20
    assert len(r.seen_sorted) > len(r.fetch_log)  # discovered more than fetched
    assert r.wave_stats[0]["fetched"] > 0
    # politeness: no host exceeds budget within a wave
    per = {}
    for e in r.fetch_log:
        per[(e["wave"], e["host"])] = per.get((e["wave"], e["host"]), 0) + 1
    assert max(per.values()) <= CRAWL.politeness_budget
    # robots fetched for hosts that appear
    assert any(e["url"].endswith("/robots.txt") for e in r.fetch_log)
    # fetch order pinned: sorted by (wave, host, slot)
    keys = [(e["wave"], e["host"], e["slot"]) for e in r.fetch_log]
    assert keys == sorted(keys)


def test_ray_crawl_matches_oracle(ray_session, seeds, oracle_result):
    got = run_crawl(seeds, CRAWL, SYN, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    exp = oracle_result
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted  # byte-identical seen set
    keys = ("wave", "frontier", "fetched", "carryover", "new_urls")
    assert [{k: s[k] for k in keys} for s in got.wave_stats] == [
        {k: s[k] for k in keys} for s in exp.wave_stats
    ]
    # per-partition lineage sums to the wave totals
    for s in got.wave_stats:
        assert sum(p["fetched"] for p in s["partitions"].values()) == s["fetched"]


def test_robots_disallow_takes_effect(seeds):
    """With robots on, disallowed sections are dropped in later waves."""
    r_on = oracle_crawl(seeds, CRAWL, SYN)
    r_off = oracle_crawl(
        seeds,
        CrawlConfig(
            politeness_budget=CRAWL.politeness_budget,
            max_waves=CRAWL.max_waves,
            seen_shards=CRAWL.seen_shards,
            respect_robots=False,
        ),
        SYN,
    )
    assert not any(e["url"].endswith("/robots.txt") for e in r_off.fetch_log)
    assert any(s.get("dropped_robots", 0) > 0 for s in r_on.wave_stats), (
        "fixture must exercise the robots drop path"
    )


def test_checkpoint_resume_identical(ray_session, seeds, oracle_result, tmp_path_factory):
    """Kill-and-resume: run 2 waves with checkpoints, then resume to 4;
    result must equal the uninterrupted 4-wave run (and the oracle)."""
    ckpt = str(tmp_path_factory.mktemp("crawl_ckpt"))
    partial_cfg = CrawlConfig(
        politeness_budget=CRAWL.politeness_budget, max_waves=2, seen_shards=CRAWL.seen_shards
    )
    run_crawl(seeds, partial_cfg, SYN, checkpoint_dir=ckpt, fetch_concurrency=2)
    resumed = run_crawl(
        seeds, CRAWL, SYN, checkpoint_dir=ckpt, resume=True, fetch_concurrency=2,
        collect_log=True, collect_seen=True,
    )
    exp = oracle_result
    assert [_log_key(e) for e in resumed.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert resumed.seen_sorted == exp.seen_sorted


def test_docs_sink_fragments(ray_session, seeds, tmp_path_factory):
    """Document sink: per-(wave, partition) parquet fragments, one doc per
    fetch, span schema intact (resumable output layout)."""
    import glob

    import pyarrow.parquet as pq

    docs_dir = str(tmp_path_factory.mktemp("crawl_docs"))
    r = run_crawl(seeds, CRAWL, SYN, docs_dir=docs_dir, fetch_concurrency=2,
                  collect_log=True)
    frags = sorted(glob.glob(f"{docs_dir}/wave_*/part_*.parquet"))
    assert frags
    total = 0
    for f in frags:
        t = pq.read_table(f)
        total += t.num_rows
        assert {"doc_id", "spans", "wave", "slot", "fetch_host"} <= set(t.schema.names)
    assert total == len(r.fetch_log)


def test_hot_host_budget_bound(ray_session):
    """Hot-host skew: the budget bounds any host's per-wave fetches, and the
    hot host accumulates carryover instead of starving other hosts."""
    syn = SyntheticConfig(n_hosts=6, pages_per_host=80, max_fanout=8, hot_host_share=0.6)
    seeds = seed_urls(syn, n_seeds=4)
    ccfg = CrawlConfig(politeness_budget=2, max_waves=3, seen_shards=2)
    exp = oracle_crawl(seeds, ccfg, syn)
    got = run_crawl(seeds, ccfg, syn, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted
    per = {}
    for e in got.fetch_log:
        per.setdefault((e["wave"], e["host"]), 0)
        per[(e["wave"], e["host"])] += 1
    assert max(per.values()) <= 2
    assert any(s["carryover"] > 0 for s in got.wave_stats)


def test_hot_host_carry_parity_and_resume(ray_session, tmp_path_factory):
    """Hot-host skew (SURVEY §7.1-7): one host owns 60% of the link
    targets, so its block carries most of its queue from wave to wave
    through the fetch task's Arrow carry. Fetch log, seen set and wave
    stats stay byte-identical to the sequential oracle, uninterrupted
    and killed after wave 1 then resumed from the checkpointed frontier;
    the budget still bounds every host's per-wave fetches."""
    syn = SyntheticConfig(n_hosts=8, pages_per_host=80, max_fanout=8, hot_host_share=0.6)
    seeds = seed_urls(syn, n_seeds=8)

    def cfg(**kw):
        return CrawlConfig(politeness_budget=2, seen_shards=2, **kw)

    exp = oracle_crawl(seeds, cfg(max_waves=4), syn)
    keys = ("wave", "frontier", "fetched", "carryover", "new_urls")

    def stats(waves):
        return [{k: s[k] for k in keys} for s in waves]

    got = run_crawl(seeds, cfg(max_waves=4), syn, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted
    assert stats(got.wave_stats) == stats(exp.wave_stats)
    # the hot host's queue outgrows its budget: most rows carry
    assert max(s["carryover"] for s in got.wave_stats) > max(
        s["fetched"] for s in got.wave_stats
    )
    per = {}
    for e in got.fetch_log:
        per[(e["wave"], e["host"])] = per.get((e["wave"], e["host"]), 0) + 1
    assert max(per.values()) <= 2
    # killed after wave 1, resumed: the carry comes back from the
    # checkpointed frontier as wave 2's carry
    ckpt = str(tmp_path_factory.mktemp("hot_host_ckpt"))
    first = run_crawl(seeds, cfg(max_waves=2), syn, checkpoint_dir=ckpt,
                      fetch_concurrency=2)
    resumed = run_crawl(seeds, cfg(max_waves=4), syn, checkpoint_dir=ckpt,
                        resume=True, fetch_concurrency=2, collect_log=True,
                        collect_seen=True)
    assert [_log_key(e) for e in resumed.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert resumed.seen_sorted == exp.seen_sorted
    assert stats(first.wave_stats + resumed.wave_stats) == stats(exp.wave_stats)


def test_drain_fetch_returns_arrow_carry(ray_session):
    """One block of one host: the fetch task numbers its span of the
    winner table from ``seq_base`` in the pinned order, fetches the
    host's top-``budget`` rows by (priority, seq, surt) and returns every
    other row as the carry — PART_SCHEMA exactly, no pandas metadata, in
    drain order — with its row count in the same task's meta."""
    import pyarrow as pa
    import ray

    from webarchive_discovery_ray.pipelines.crawl import PART_SCHEMA, _drain_fetch

    syn = SyntheticConfig(n_hosts=4, pages_per_host=40)
    n = 12
    block = pa.table(
        {
            "url": [f"http://hot.example.com/p{i}" for i in range(n)],
            "surt": [f"com,example,hot)/p{i}" for i in range(n)],
            "host": ["hot.example.com"] * n,
            "priority": pa.array([0] * n, pa.int32()),
            "hop": pa.array([1] * n, pa.int32()),
            "seq": pa.array(list(range(n, 0, -1)), pa.int64()),  # reversed
            "part": pa.array([3] * n, pa.int32()),
        },
        schema=PART_SCHEMA,
    )
    # a shard's winner table: its first row belongs to another block, the
    # span's two rows come in reverse pinned order (link rank 1, then 0)
    winners = pa.table(
        {
            "url": [f"http://hot.example.com/w{i}" for i in range(3)],
            "surt": [f"com,example,hot)/w{i}" for i in range(3)],
            "host": ["hot.example.com"] * 3,
            "priority": pa.array([0] * 3, pa.int32()),
            "hop": pa.array([2] * 3, pa.int32()),
            "order_host": ["a.example.com"] * 3,
            "order_slot": pa.array([0] * 3, pa.int32()),
            "order_rank": pa.array([9, 1, 0], pa.int32()),
            "part": pa.array([2, 3, 3], pa.int32()),
        }
    )
    meta, fetched, _, gate, carry = ray.get(
        _drain_fetch.remote(
            None, syn, None, 0, CrawlConfig(politeness_budget=3), None,
            n + 1, [(1, 3)], block.slice(0, 5), block.slice(5), winners,
        )
    )
    assert gate is None
    # the rows of seq 1, 2, 3 (row i has seq n - i)
    assert fetched["url"].to_pylist() == [
        f"http://hot.example.com/p{i}" for i in (n - 1, n - 2, n - 3)
    ]
    assert fetched["slot"].to_pylist() == [0, 1, 2]
    assert carry.schema.equals(PART_SCHEMA, check_metadata=True)
    assert carry.schema.metadata is None
    assert meta["carry_rows"] == carry.num_rows == n - 1
    assert carry["seq"].to_pylist() == list(range(4, n + 3))
    assert carry["url"].to_pylist()[-2:] == [
        "http://hot.example.com/w2", "http://hot.example.com/w1"
    ]
    assert carry["part"].to_pylist() == [3] * (n - 1)


def test_resume_with_different_n_parts_leaves_no_stale_fragments(
    ray_session, seeds, tmp_path_factory
):
    """A crashed attempt's docs fragments must not survive a re-run with a
    different partition count (fragment files are keyed by part number;
    the wave dir is cleared before each wave's fetch)."""
    import glob

    import pyarrow.parquet as pq

    docs_dir = str(tmp_path_factory.mktemp("stale_docs"))
    # attempt 1: wide partitioning (fetch_concurrency 8 -> 32 parts)
    r1 = run_crawl(seeds, CRAWL, SYN, docs_dir=docs_dir, fetch_concurrency=8)
    n1 = sum(
        pq.read_metadata(f).num_rows
        for f in glob.glob(f"{docs_dir}/wave_*/part_*.parquet")
    )
    assert n1 == r1.total_fetched
    # attempt 2 (simulates a retry after a crash): narrower partitioning
    # renumbers parts — stale part_*.parquet from attempt 1 must be gone
    r2 = run_crawl(seeds, CRAWL, SYN, docs_dir=docs_dir, fetch_concurrency=2)
    n2 = sum(
        pq.read_metadata(f).num_rows
        for f in glob.glob(f"{docs_dir}/wave_*/part_*.parquet")
    )
    assert n2 == r2.total_fetched == r1.total_fetched


def test_max_urls_stop_condition(ray_session, seeds):
    """ccfg.max_urls bounds the total fetches: the crawl stops after the
    first wave that crosses the budget (matching the oracle's rule)."""
    ccfg = CrawlConfig(politeness_budget=3, max_waves=4, seen_shards=2, max_urls=20)
    exp = oracle_crawl(seeds, ccfg, SYN)
    got = run_crawl(seeds, ccfg, SYN, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted
    assert got.total_fetched >= 20  # crossed within the stopping wave
    full = run_crawl(seeds, CRAWL, SYN, fetch_concurrency=2, collect_log=True)
    assert got.total_fetched < full.total_fetched  # it actually stopped early


def test_finalize_wave_split_matches_single_finalize(ray_session):
    """The (winners, small) split finalize must agree with the plain
    finalize on counts/hosts, and its block ``bounds`` must slice the
    winners by the frontier block of their host, including the
    empty-shard case."""
    import pyarrow as pa
    import ray

    from webarchive_discovery_ray.state.seen import SeenSet, block_of_hosts

    ss = SeenSet()
    t = pa.table(
        {
            "url": [f"http://h{i % 3}.com/p{i}" for i in range(30)],
            "surt": [f"com,h{i % 3})/p{i}" for i in range(30)],
            "host": [f"h{i % 3}.com" for i in range(30)],
            "priority": pa.array([0] * 30, pa.int32()),
            "hop": pa.array([1] * 30, pa.int32()),
            "order_host": [f"h{i % 3}.com" for i in range(30)],
            "order_slot": pa.array([i // 3 for i in range(30)], pa.int32()),
            "order_rank": pa.array([i % 3 for i in range(30)], pa.int32()),
        }
    )
    ref = ray.put(t)
    w, small = ss.finalize_wave_split(7, [ref], [(0, 30)], [], True, 5)
    assert small["n"] == w.num_rows == 30
    assert set(small["hosts"]) == {"h0.com", "h1.com", "h2.com"}
    assert set(small["surts"]) == set(t["surt"].to_pylist())
    bounds = small["bounds"]
    assert len(bounds) == 6 and bounds[0] == 0 and bounds[-1] == 30
    blocks = block_of_hosts(w["host"], 5).tolist()
    assert w["part"].to_pylist() == blocks == sorted(blocks)
    for p in range(5):
        assert set(blocks[bounds[p]:bounds[p + 1]]) <= {p}
    # empty shard: no candidate rows for this shard in this wave
    w2, small2 = ss.finalize_wave_split(8, [ref], [(0, 0)], [], True, 5)
    assert w2 is None and small2["n"] == 0 and small2["bounds"] == [0] * 6
    # re-finalizing wave 7 returns nothing new (all SURTs now seen)
    w3, small3 = ss.finalize_wave_split(9, [ref], [(0, 30)], [], False, 5)
    assert w3 is None and small3["n"] == 0


def test_block_numbering_matches_global_sort(ray_session):
    """Each block numbers its own discovery winners: merged across the
    shards' winner tables, every host's rows come out in the order of one
    global sort by (parent host, parent slot, link rank), and a block's
    numbers are unique and lie in ``[seq_base, seq_base + n)``."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from webarchive_discovery_ray.pipelines.crawl import _numbered
    from webarchive_discovery_ray.state.seen import PINNED_ORDER, SeenSet

    rng = np.random.default_rng(11)
    n, seq_base = 600, 1000
    hosts = [f"host{h:03d}.com" for h in rng.integers(0, 40, n)]
    parents = [f"p{h:02d}.com" for h in rng.integers(0, 12, n)]
    cands = pa.table(
        {
            "url": [f"http://{h}/{i}" for i, h in enumerate(hosts)],
            "surt": [f"{h})/{i}" for i, h in enumerate(hosts)],
            "host": hosts,
            "priority": pa.array([0] * n, pa.int32()),
            "hop": pa.array([1] * n, pa.int32()),
            "order_host": parents,
            "order_slot": pa.array(rng.integers(0, 50, n).astype("int32")),
            "order_rank": pa.array(np.arange(n, dtype="int32")),
        }
    )
    glob = cands.take(pc.sort_indices(cands, sort_keys=PINNED_ORDER))
    want: dict[str, list[str]] = {}
    for h, surt in zip(glob["host"].to_pylist(), glob["surt"].to_pylist()):
        want.setdefault(h, []).append(surt)
    # S shards, each holding a random share of the candidates
    n_shards = 4
    shard = rng.integers(0, n_shards, n)
    refs = [ray.put(cands.filter(pa.array(shard == s))) for s in range(n_shards)]
    for wave, n_parts in enumerate((1, 2, 5, 8)):
        outs = [
            SeenSet().finalize_wave_split(wave, [r], [(0, ray.get(r).num_rows)],
                                          [], False, n_parts)
            for r in refs
        ]
        tables = [w for w, _ in outs]
        got: dict[str, list[tuple[int, str]]] = {}
        block_of: dict[str, int] = {}
        for p in range(n_parts):
            spans = [(s["bounds"][p], s["bounds"][p + 1]) for _, s in outs]
            block = _numbered(tables, spans, seq_base)
            seqs = block["seq"].to_pylist()
            assert sorted(seqs) == list(range(seq_base, seq_base + len(seqs)))
            assert all(seq_base <= q < seq_base + n for q in seqs)
            assert set(block["part"].to_pylist()) <= {p}
            for h, surt, q in zip(block["host"].to_pylist(),
                                  block["surt"].to_pylist(), seqs):
                assert block_of.setdefault(h, p) == p  # a host in one block
                got.setdefault(h, []).append((q, surt))
        assert {h: [s for _, s in sorted(v)] for h, v in got.items()} == want


def test_add_if_new_hashed_matches_plain_routing(ray_session):
    """Precomputed-hash routing == the plain per-key path, duplicates and
    cross-shard distribution included."""
    from webarchive_discovery_ray.functions.hashing import stable_hash64
    from webarchive_discovery_ray.state.seen import _SHARD_SEED, SeenShardPool

    keys = [f"com,site{i % 37})/p/{i % 61}" for i in range(500)]
    a = SeenShardPool(4)
    b = SeenShardPool(4)
    got_a = a.add_if_new(keys)
    hashes = [stable_hash64(k, _SHARD_SEED) for k in keys]
    got_b = b.add_if_new_hashed(keys, hashes)
    assert got_a == got_b
    # second pass: everything already seen
    assert not any(b.add_if_new_hashed(keys, hashes))


# --- closed crawl loop: round-2 signals drive the follow-up crawl -----------

def _loop_captures_and_ranks():
    """Hand-authored capture history + host ranks over the synthetic
    universe: a fast-changing URL (due now), a static multi-capture URL
    (long interval), single-capture URLs (30-day default), and two hosts
    differing only by PageRank (the tie-break)."""
    caps = [
        # fast-changing: 3 captures, 3 versions over 2 days -> due soon
        dict(surt_key="com,example,site0)/hot.html", url="http://site0.example.com/hot.html",
             timestamp14="20240101000000", digest="d1"),
        dict(surt_key="com,example,site0)/hot.html", url="http://site0.example.com/hot.html",
             timestamp14="20240102000000", digest="d2"),
        dict(surt_key="com,example,site0)/hot.html", url="http://site0.example.com/hot.html",
             timestamp14="20240103000000", digest="d3"),
        # static: 3 captures, 1 version over 100 days -> 1.5x mean interval
        dict(surt_key="com,example,site1)/static.html", url="http://site1.example.com/static.html",
             timestamp14="20240101000000", digest="s"),
        dict(surt_key="com,example,site1)/static.html", url="http://site1.example.com/static.html",
             timestamp14="20240220000000", digest="s"),
        dict(surt_key="com,example,site1)/static.html", url="http://site1.example.com/static.html",
             timestamp14="20240410000000", digest="s"),
        # single captures on rank-differing hosts (same 30-day priority)
        dict(surt_key="com,example,site2)/a.html", url="http://site2.example.com/a.html",
             timestamp14="20240105000000", digest="x1"),
        dict(surt_key="com,example,site3)/b.html", url="http://site3.example.com/b.html",
             timestamp14="20240105000000", digest="x2"),
        # latest-URL arg-max: same SURT captured under two url spellings
        dict(surt_key="com,example,site4)/c", url="http://site4.example.com/c?v=old",
             timestamp14="20240101000000", digest="y1"),
        dict(surt_key="com,example,site4)/c", url="http://site4.example.com/c?v=new",
             timestamp14="20240106000000", digest="y2"),
    ]
    ranks = [
        dict(host="site0.example.com", rank_r=0.05),
        dict(host="site1.example.com", rank_r=0.10),
        dict(host="site2.example.com", rank_r=0.02),
        dict(host="site3.example.com", rank_r=0.30),  # outranks site2
        # site4 missing -> boost 0
    ]
    return caps, ranks


def test_recrawl_seed_list_matches_sequential_rule(ray_session):
    import ray.data as rd

    from webarchive_discovery_ray.oracle.crawl_oracle import oracle_recrawl_seeds
    from webarchive_discovery_ray.pipelines.cdx import recrawl_seed_list

    caps, ranks = _loop_captures_and_ranks()
    got = sorted(
        recrawl_seed_list(rd.from_items(caps), rd.from_items(ranks)).take_all(),
        key=lambda r: r["seed_rank"],
    )
    exp = oracle_recrawl_seeds(caps, ranks)
    assert [
        {k: r[k] for k in ("surt_key", "url", "host", "next_fetch_s",
                           "priority", "boost", "seed_rank")}
        for r in got
    ] == exp
    by_surt = {r["surt_key"]: r for r in exp}
    # fast-changing first (due now), static long-interval last
    assert exp[0]["surt_key"] == "com,example,site0)/hot.html"
    assert exp[-1]["surt_key"] == "com,example,site1)/static.html"
    # same priority class: higher-PageRank host wins the tie-break
    s2, s3 = by_surt["com,example,site2)/a.html"], by_surt["com,example,site3)/b.html"]
    assert s2["priority"] == s3["priority"] and s3["seed_rank"] < s2["seed_rank"]
    # arg-max picked the LATEST capture's URL spelling
    assert by_surt["com,example,site4)/c"]["url"].endswith("v=new")


def test_closed_loop_crawl_byte_parity(ray_session):
    """The follow-up crawl seeded by the round-2 signals reproduces the
    sequential oracle byte-for-byte: fetch-log order and seen set."""
    from webarchive_discovery_ray.oracle.crawl_oracle import (
        oracle_crawl,
        oracle_recrawl_seeds,
    )

    caps, ranks = _loop_captures_and_ranks()
    seed_rows = oracle_recrawl_seeds(caps, ranks)
    seeds = [(r["url"], int(r["priority"])) for r in seed_rows]
    got = run_crawl(seeds, CRAWL, SYN, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    exp = oracle_crawl(seeds, CRAWL, SYN)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted


# ---------------------------------------------------------------------------
# round-4: seen-set spill/probe tier + shard-side checkpoint resume
# ---------------------------------------------------------------------------


def test_seen_spill_probe_semantics(tmp_path):
    """SeenSet with a tiny spill threshold must behave byte-identically to
    plain-set semantics across many spills: add_if_new masks, contains,
    snapshot, len — while actually holding only the hot tier in RAM."""
    import hashlib

    from webarchive_discovery_ray.state.seen import SeenSet

    ss = SeenSet(spill_dir=str(tmp_path / "spill"), spill_threshold=40)
    ref: set[str] = set()
    # 12 chunks of 60 keys with heavy cross-chunk duplication -> keys that
    # were spilled several chunks ago get re-offered and must be rejected
    for c in range(12):
        keys = [
            "com,host)/p%d" % (int(hashlib.sha1(f"{c}:{i}".encode()).hexdigest(), 16) % 250)
            for i in range(60)
        ]
        got = ss.add_if_new(keys)
        want = []
        batch_seen: set[str] = set()
        for k in keys:
            is_new = k not in ref and k not in batch_seen
            want.append(is_new)
            batch_seen.add(k)
        ref.update(batch_seen)
        assert got == want, f"chunk {c} mask mismatch"
    st = ss.spill_stats()
    assert st["spilled"] > 0, "fixture must actually force spills"
    assert st["hot"] < len(ref), "hot tier must not hold the full set"
    assert st["hot"] + st["spilled"] == len(ref)
    assert len(ss) == len(ref)
    assert ss.snapshot() == sorted(ref)  # byte-identical representation
    probe = list(ref)[:50] + ["com,host)/definitely-not-seen-%d" % i for i in range(20)]
    assert ss.contains(probe) == [k in ref for k in probe]


def test_seen_spill_compaction_folds_runs(tmp_path):
    """Exceeding max_runs triggers tiered compaction; membership and the
    sorted snapshot survive the fold."""
    from webarchive_discovery_ray.state.seen import SeenSet

    ss = SeenSet(spill_dir=str(tmp_path / "spill"), spill_threshold=10)
    ref = []
    for c in range(20):  # 20 spills > max_runs=8 -> at least one compaction
        keys = [f"com,h{c:02d})/p{i}" for i in range(10)]
        ss.add_if_new(keys)
        ref.extend(keys)
    st = ss.spill_stats()
    assert st["runs"] <= 8
    assert st["spilled"] == len(ref)
    assert ss.snapshot() == sorted(ref)
    assert ss.contains(ref[:30]) == [True] * 30
    assert ss.contains(["com,h99)/nope"]) == [False]


def test_seen_snapshot_merges_spilled_and_hot_keys(tmp_path):
    """With keys both spilled and hot, the snapshot is the one sorted
    list of both (code-point order, non-ASCII keys included), each key
    once, also after re-adding spilled and hot keys."""
    from webarchive_discovery_ray.state.seen import KeySpace

    ks = KeySpace(spill_dir=str(tmp_path / "spill"), spill_threshold=50)
    keys = [f"com,h{i % 13})/p{i}" + ("\u00e9" if i % 7 == 0 else "") for i in range(237)]
    ks.first_new(keys[::-1])
    ks.first_new(keys[:40] + ["org,late)/"])
    st = ks.spill_stats()
    assert st["spilled"] and st["hot"], st
    assert ks.snapshot() == sorted(set(keys) | {"org,late)/"})


def test_seen_spill_filter_negatives_read_no_row_group(tmp_path, monkeypatch):
    """Each spill run's filter gates its parquet IO: probing keys that no
    run's filter admits reads no row group, through ``contains`` and
    through ``add_if_new``."""
    import numpy as np
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.state.seen import SeenSet, _key_hashes

    ss = SeenSet(spill_dir=str(tmp_path / "spill"), spill_threshold=100)
    added = [f"com,h{i % 7})/p{i}" for i in range(500)]
    for i in range(0, 500, 100):
        ss.add_if_new(added[i : i + 100])
    runs = ss._url._runs._runs
    assert ss.spill_stats() == {"hot": 0, "spilled": 500, "runs": len(runs)} and len(runs) == 5
    probe = np.asarray([f"com,never)/x{i}" for i in range(400)], dtype=object)
    fp, h = _key_hashes(probe)
    admitted = np.zeros(len(probe), dtype=bool)
    for run in runs:
        admitted |= run["filter"].might_contain_many(fp, h)
    negatives = probe[~admitted].tolist()
    assert len(negatives) >= 390  # 16-bit fingerprints: ~0.06% per key here

    reads = []
    read_row_group = pq.ParquetFile.read_row_group

    def counting(self, *args, **kwargs):
        reads.append(args[0])
        return read_row_group(self, *args, **kwargs)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", counting)
    assert ss.contains(negatives) == [False] * len(negatives)
    assert ss.add_if_new(negatives) == [True] * len(negatives)
    assert reads == []
    assert ss.contains(added[:1]) == [True] and len(reads) == 1  # the spy counts


def test_seen_spaces_are_plain_sets_until_they_spill(tmp_path):
    """A resident shard allocates no filter: building and resetting one
    stays under 1 MiB of Python heap. With a spill threshold, a key
    space makes its spill directory only with its first key, so a crawl
    that never adds a content key leaves no content spill directory."""
    import os
    import tracemalloc

    from webarchive_discovery_ray.state.seen import SeenSet

    tracemalloc.start()
    try:
        SeenSet().reset()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

    url_dir, content_dir = str(tmp_path / "url"), str(tmp_path / "content")
    ss = SeenSet(spill_dir=url_dir, spill_threshold=4, content_spill_dir=content_dir)
    assert not os.path.exists(url_dir) and not os.path.exists(content_dir)
    ss.add_if_new([f"com,h)/p{i}" for i in range(10)])
    assert os.listdir(url_dir) and not os.path.exists(content_dir)
    assert ss.snapshot("content") == []


def test_forced_spill_crawl_byte_parity(ray_session, seeds, oracle_result, tmp_path_factory):
    """The VERDICT-r3 done-gate: the crawl byte-parity suite with the
    spill tier FORCED (tiny per-shard memory cap) — fetch log and final
    seen set must still match the sequential oracle exactly."""
    spill_dir = str(tmp_path_factory.mktemp("seen_spill"))
    cfg = CrawlConfig(
        politeness_budget=CRAWL.politeness_budget,
        max_waves=CRAWL.max_waves,
        seen_shards=CRAWL.seen_shards,
        seen_spill_threshold=16,
        seen_spill_dir=spill_dir,
    )
    got = run_crawl(seeds, cfg, SYN, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    exp = oracle_result
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted


def test_checkpoint_resume_shard_side_no_driver_keys(
    ray_session, seeds, oracle_result, tmp_path_factory
):
    """Resume ships seen-delta PATHS to the shards (never a key list
    through the driver) and still reproduces the uninterrupted run —
    including with the spill tier forced on the resumed pool."""
    from webarchive_discovery_ray.state.checkpoint import (
        latest_complete_wave,
        load_wave_checkpoint,
    )

    ckpt = str(tmp_path_factory.mktemp("crawl_ckpt_shard"))
    partial_cfg = CrawlConfig(
        politeness_budget=CRAWL.politeness_budget, max_waves=2,
        seen_shards=CRAWL.seen_shards,
    )
    run_crawl(seeds, partial_cfg, SYN, checkpoint_dir=ckpt, fetch_concurrency=2)
    # the checkpoint loader exposes paths, not materialized keys or
    # fetch-log rows
    ck = load_wave_checkpoint(ckpt, latest_complete_wave(ckpt))
    assert "seen_keys" not in ck and "fetch_log" not in ck
    assert ck["seen_delta_paths"] and all(
        p.endswith("seen_delta.parquet") for p in ck["seen_delta_paths"]
    )
    assert len(ck["fetch_log_paths"]) == 2 and all(
        p.endswith("fetchlog.parquet") for p in ck["fetch_log_paths"]
    )
    assert ck["fetch_log_rows"] == sum(
        e["wave"] < 2 for e in oracle_result.fetch_log
    )
    spill_dir = str(tmp_path_factory.mktemp("seen_spill_resume"))
    cfg = CrawlConfig(
        politeness_budget=CRAWL.politeness_budget, max_waves=CRAWL.max_waves,
        seen_shards=CRAWL.seen_shards,
        seen_spill_threshold=16, seen_spill_dir=spill_dir,
    )
    resumed = run_crawl(
        seeds, cfg, SYN, checkpoint_dir=ckpt, resume=True, fetch_concurrency=2,
        collect_log=True, collect_seen=True,
    )
    exp = oracle_result
    assert [_log_key(e) for e in resumed.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert resumed.seen_sorted == exp.seen_sorted


def test_crawl_end_fragment_compaction_converges(ray_session, seeds, tmp_path_factory):
    """VERDICT-r3 #8 done-gate: a multi-resume crawl with the automatic
    compaction policy converges to a bounded fragment count, with every
    document row surviving (content equality vs an uncompacted run)."""
    import glob
    import os

    import pandas as pd
    import pyarrow.parquet as pq

    def _read_all(d):
        frames = []
        for p in sorted(glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True)):
            rel = os.path.relpath(p, d).split(os.sep)
            if rel[0] == "_compact" and not os.path.exists(
                os.path.join(d, "_compact", rel[1], "_DONE")
            ):
                continue
            frames.append(pq.read_table(p).to_pandas())
        return (
            pd.concat(frames, ignore_index=True)
            .sort_values(["doc_id"], ignore_index=True)
            if frames
            else pd.DataFrame()
        )

    # uncompacted baseline: staged checkpointed run (2 waves, then 4)
    base_docs = str(tmp_path_factory.mktemp("docs_plain"))
    base_ckpt = str(tmp_path_factory.mktemp("ckpt_plain"))
    cfg2 = CrawlConfig(politeness_budget=3, max_waves=2, seen_shards=4)
    cfg4 = CrawlConfig(politeness_budget=3, max_waves=4, seen_shards=4)
    run_crawl(seeds, cfg2, SYN, docs_dir=base_docs, checkpoint_dir=base_ckpt,
              fetch_concurrency=2)
    run_crawl(seeds, cfg4, SYN, docs_dir=base_docs, checkpoint_dir=base_ckpt,
              resume=True, fetch_concurrency=2)
    want = _read_all(base_docs)
    assert len(want) > 0

    # compacted run: same staging, tiny threshold so the policy fires
    docs = str(tmp_path_factory.mktemp("docs_compact"))
    ckpt = str(tmp_path_factory.mktemp("ckpt_compact"))
    ccfg2 = CrawlConfig(politeness_budget=3, max_waves=2, seen_shards=4,
                        compact_fragments_threshold=2)
    ccfg4 = CrawlConfig(politeness_budget=3, max_waves=4, seen_shards=4,
                        compact_fragments_threshold=2)
    r1 = run_crawl(seeds, ccfg2, SYN, docs_dir=docs, checkpoint_dir=ckpt,
                   fetch_concurrency=2)
    assert r1.compaction is not None and r1.compaction["written"] > 0
    r2 = run_crawl(seeds, ccfg4, SYN, docs_dir=docs, checkpoint_dir=ckpt,
                   resume=True, fetch_concurrency=2)
    assert r2.compaction is not None
    got = _read_all(docs)
    # convergence: bounded file count, manifests intact, rows identical
    live = [
        p for p in glob.glob(os.path.join(docs, "**", "*.parquet"), recursive=True)
        if "_compact" not in p
        or os.path.exists(
            os.path.join(docs, "_compact",
                         os.path.relpath(p, os.path.join(docs, "_compact")).split(os.sep)[0],
                         "_DONE")
        )
    ]
    assert r2.compaction["fragments_after"] <= max(
        2, r2.compaction["groups"]
    ) or len(live) <= 1 + r2.compaction["groups"]
    rounds = sorted(glob.glob(os.path.join(docs, "_compact", "round_*")))
    assert rounds
    for rdir in rounds:
        if os.path.exists(os.path.join(rdir, "_DONE")):
            assert os.path.exists(os.path.join(rdir, "_PLAN.json"))
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(
        got.astype(str), want.astype(str)
    )


def test_crawl_delay_budget_byte_parity(ray_session):
    """Crawl-delay politeness (round 4): hosts serving ``Crawl-delay: d``
    get effective per-wave budget max(1, budget // d) from the wave after
    their robots fetch — Ray frontier == sequential oracle byte-for-byte,
    and the rule demonstrably bites (some host fetches fewer URLs than
    the base budget in some wave)."""
    from webarchive_discovery_ray.sources.synthetic import robots_crawl_delay
    from webarchive_discovery_ray.state.robots import parse_robots

    syn = SyntheticConfig(
        n_hosts=10, pages_per_host=60, max_fanout=6,
        robots_crawl_delay_ratio=0.5,
    )
    # fixture sensitivity: at ratio 0.5 some crawled host must carry a delay
    assert any(
        robots_crawl_delay(f"site{i}.example.com", syn) for i in range(10)
    ) or any(
        robots_crawl_delay(f"site{i}.example.co.uk", syn) for i in range(10)
    )
    sds = seed_urls(syn, n_seeds=6)
    cfg = CrawlConfig(politeness_budget=3, max_waves=4, seen_shards=4)
    exp = oracle_crawl(sds, cfg, syn)
    got = run_crawl(sds, cfg, syn, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted
    # the delay rule must actually reduce some host's wave take: compare
    # to the same crawl with delays stripped from the generator
    syn_off = SyntheticConfig(
        n_hosts=10, pages_per_host=60, max_fanout=6,
        robots_crawl_delay_ratio=0.0,
    )
    base = oracle_crawl(seed_urls(syn_off, n_seeds=6), cfg, syn_off)
    assert [_log_key(e) for e in got.fetch_log] != [_log_key(e) for e in base.fetch_log], (
        "fixture must exercise the Crawl-delay budget reduction"
    )
    # sentinel parses and never collides with a path prefix
    rules = parse_robots("User-agent: *\nDisallow: /x/\nCrawl-delay: 3\n")
    assert "crawl-delay:3" in rules and "/x/" in rules


def test_sitemap_discovery_byte_parity(ray_session):
    """Sitemap discovery (round 4): robots ``Sitemap:`` URLs inject as
    priority -1 fetches from the wave after the robots fetch; a 200
    sitemap's <loc> URLs join its candidate set at default priority —
    Ray frontier == sequential oracle byte-for-byte, and the rule
    demonstrably bites (sitemap fetches appear in the log and
    sitemap-only pages get crawled)."""
    from webarchive_discovery_ray.sources.synthetic import (
        host_sitemaps,
        hosts,
        sitemap_locs,
    )

    syn = SyntheticConfig(
        n_hosts=10, pages_per_host=60, max_fanout=6,
        robots_sitemap_ratio=0.6,
    )
    advertised = {
        u for h in hosts(syn) for u in host_sitemaps(h, syn)
    }
    assert advertised, "fixture must advertise sitemaps"
    sds = seed_urls(syn, n_seeds=6)
    cfg = CrawlConfig(politeness_budget=3, max_waves=5, seen_shards=4)
    exp = oracle_crawl(sds, cfg, syn)
    got = run_crawl(sds, cfg, syn, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted
    # sensitivity: sitemap fetches happened...
    sm_fetches = [e for e in got.fetch_log if e["url"] in advertised]
    assert sm_fetches, "no advertised sitemap was fetched"
    # ...their discoveries got crawled (URLs only reachable via <loc>)
    fetched_urls = {e["url"] for e in got.fetch_log}
    sm_only = {
        loc
        for sm in sm_fetches
        for loc in sitemap_locs(sm["url"], syn)
        if "/articles/sm" in loc
    }
    assert sm_only & fetched_urls, "no sitemap-discovered page was crawled"
    # a host advertising TWO sitemaps exercises the same-wave injected
    # tie-break (drain order (priority, seq, surt))
    two = [h for h in hosts(syn) if len(host_sitemaps(h, syn)) == 2]
    crawled_hosts = {e["host"] for e in got.fetch_log}
    assert any(h in crawled_hosts for h in two), (
        "fixture must crawl a two-sitemap host to exercise the tie-break"
    )


def test_backoff_503_byte_parity_and_sensitivity(ray_session):
    """5xx backoff (round 4): a host serving any status>=500 response in
    wave W drains at max(1, budget//2) in wave W+1 only. Ray ==
    sequential oracle byte-for-byte; the rule demonstrably bites (some
    host's fetch count drops the wave after its 503); and the rule is a
    REAL behaviour change (backoff on != backoff off)."""
    syn = SyntheticConfig(n_hosts=10, pages_per_host=120, max_fanout=8)
    sds = seed_urls(syn, n_seeds=6)
    cfg = CrawlConfig(politeness_budget=4, max_waves=6, seen_shards=4,
                      backoff_503=True)
    exp = oracle_crawl(sds, cfg, syn)
    got = run_crawl(sds, cfg, syn, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted
    # sensitivity: find a (host, wave) with a 5xx and a full-budget drain
    # whose next wave drained at most half the budget
    from collections import defaultdict

    per = defaultdict(int)
    bad = set()
    for e in got.fetch_log:
        per[(e["host"], e["wave"])] += 1
        if e["status"] >= 500:
            bad.add((e["host"], e["wave"]))
    bitten = [
        (h, w)
        for (h, w) in bad
        if per[(h, w)] == cfg.politeness_budget
        and 0 < per.get((h, w + 1), 0) <= cfg.politeness_budget // 2
    ]
    assert bitten, "no host demonstrably halved after a 5xx wave"
    off = run_crawl(
        sds, CrawlConfig(politeness_budget=4, max_waves=6, seen_shards=4),
        syn, fetch_concurrency=2, collect_log=True,
    )
    assert [_log_key(e) for e in off.fetch_log] != [
        _log_key(e) for e in got.fetch_log
    ], "backoff_503 must change the schedule on a 5xx-bearing fixture"


def test_backoff_503_checkpoint_resume_identical(ray_session, tmp_path_factory):
    """Kill-and-resume across a backoff boundary: the one-wave offender
    set is checkpointed, so the resumed crawl equals the uninterrupted
    one byte-for-byte."""
    syn = SyntheticConfig(n_hosts=10, pages_per_host=120, max_fanout=8)
    sds = seed_urls(syn, n_seeds=6)
    cfg = CrawlConfig(politeness_budget=4, max_waves=6, seen_shards=4,
                      backoff_503=True)
    full = run_crawl(sds, cfg, syn, fetch_concurrency=2,
                     collect_log=True, collect_seen=True)
    ckdir = str(tmp_path_factory.mktemp("backoff_ck"))
    cfg1 = CrawlConfig(politeness_budget=4, max_waves=3, seen_shards=4,
                       backoff_503=True)
    run_crawl(sds, cfg1, syn, fetch_concurrency=2,
              checkpoint_dir=ckdir)
    got = run_crawl(sds, cfg, syn, fetch_concurrency=2,
                    checkpoint_dir=ckdir, resume=True,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in full.fetch_log]
    assert got.seen_sorted == full.seen_sorted


def test_robots_allow_longest_match_byte_parity(ray_session):
    """RFC 9309 Allow carve-outs (round 4): among matching Allow/Disallow
    prefixes the longest wins (tie -> Allow). Ray frontier == sequential
    oracle byte-for-byte, and the rule demonstrably bites (a page under a
    Disallowed prefix re-admitted by a longer Allow gets fetched while a
    sibling stays blocked)."""
    from webarchive_discovery_ray.functions.urls import url_path
    from webarchive_discovery_ray.sources.synthetic import (
        hosts,
        robots_allows,
        robots_disallows,
    )
    from webarchive_discovery_ray.state.robots import is_disallowed, parse_robots

    syn = SyntheticConfig(
        n_hosts=14, pages_per_host=80, max_fanout=7,
        robots_disallow_ratio=0.8, robots_allow_ratio=0.8,
    )
    allowed_hosts = [h for h in hosts(syn) if robots_allows(h, syn)]
    assert allowed_hosts, "fixture must serve Allow lines"
    sds = seed_urls(syn, n_seeds=8)
    cfg = CrawlConfig(politeness_budget=4, max_waves=5, seen_shards=4)
    exp = oracle_crawl(sds, cfg, syn)
    got = run_crawl(sds, cfg, syn, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted
    # sensitivity: some fetched URL sits under a Disallow prefix but is
    # re-admitted by its host's longer Allow prefix
    carved = 0
    for e in got.fetch_log:
        h = e["host"]
        dis, alw = robots_disallows(h, syn), robots_allows(h, syn)
        if not alw:
            continue
        p = url_path(e["url"])
        if any(p.startswith(d) for d in dis) and any(
            p.startswith(a) for a in alw
        ):
            carved += 1
    assert carved, "no Allow-carved URL was actually fetched"
    # kernel pins: longest-match + tie->Allow + sentinel immunity
    rules = parse_robots(
        "User-agent: *\nDisallow: /a/\nAllow: /a/b\nCrawl-delay: 2\n"
        "Sitemap: http://x/s.xml\n"
    )
    assert is_disallowed("/a/x", rules)
    assert not is_disallowed("/a/b", rules)  # tie in spirit: allow wins
    assert not is_disallowed("/a/bc", rules)  # longer allow match
    assert not is_disallowed("/ok", rules)
    assert is_disallowed("/a/", rules) and not is_disallowed("/", rules)


def test_sitemap_index_recursion_byte_parity(ray_session):
    """<sitemapindex> recursion (round 4): a fetched priority -1 sitemap
    whose body is an index emits its child <loc> sitemaps as candidates
    that KEEP priority -1 (fetched + parsed as sitemaps in turn, riding
    the normal checkpointed frontier); a <urlset>'s locs stay at default
    priority. Ray == sequential oracle byte-for-byte, and the recursion
    demonstrably bites."""
    from webarchive_discovery_ray.sources.synthetic import (
        host_sitemaps,
        hosts,
        sitemap_children,
        sitemap_is_index,
        sitemap_locs,
    )

    syn = SyntheticConfig(
        n_hosts=12, pages_per_host=60, max_fanout=6,
        robots_sitemap_ratio=0.7, sitemap_index_ratio=0.6,
    )
    indexes = {
        sm for h in hosts(syn) for sm in host_sitemaps(h, syn)
        if sitemap_is_index(sm, syn)
    }
    assert indexes, "fixture must advertise at least one index sitemap"
    children = {c for sm in indexes for c in sitemap_children(sm, syn)}
    sds = seed_urls(syn, n_seeds=8)
    cfg = CrawlConfig(politeness_budget=3, max_waves=6, seen_shards=4)
    exp = oracle_crawl(sds, cfg, syn)
    got = run_crawl(sds, cfg, syn, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted
    fetched_urls = {e["url"] for e in got.fetch_log}
    # sensitivity ladder: an index was fetched -> a child was fetched ->
    # a child-discovered page (only reachable via the child's <loc>) was
    # fetched
    hit_idx = indexes & fetched_urls
    assert hit_idx, "no advertised index sitemap was fetched"
    hit_kids = children & fetched_urls
    assert hit_kids, "no index child sitemap was fetched"
    kid_locs = {
        loc for c in hit_kids for loc in sitemap_locs(c, syn)
        if "/articles/sm" in loc
    }
    assert kid_locs & fetched_urls, "no child-discovered page was crawled"


def test_sitemap_checkpoint_resume_identical(ray_session, tmp_path_factory):
    """Kill-and-resume across the sitemap-pending boundary: pending
    sitemap URLs are NOT checkpointed — resume recomputes them from the
    checkpointed rules and the seen-set probe keeps re-offers idempotent.
    The resumed crawl must equal the uninterrupted one byte-for-byte."""
    syn = SyntheticConfig(
        n_hosts=10, pages_per_host=60, max_fanout=6,
        robots_sitemap_ratio=0.6,
    )
    sds = seed_urls(syn, n_seeds=6)
    cfg = CrawlConfig(politeness_budget=3, max_waves=5, seen_shards=4)
    full = run_crawl(sds, cfg, syn, fetch_concurrency=2,
                     collect_log=True, collect_seen=True)
    ckdir = str(tmp_path_factory.mktemp("sitemap_ck"))
    # phase 1: stop after wave 1 (robots of wave 0 known, sitemaps pending)
    cfg1 = CrawlConfig(politeness_budget=3, max_waves=2, seen_shards=4)
    run_crawl(sds, cfg1, syn, fetch_concurrency=2,
              checkpoint_dir=ckdir)
    # phase 2: resume to completion
    got = run_crawl(sds, cfg, syn, fetch_concurrency=2,
                    checkpoint_dir=ckdir, resume=True,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in full.fetch_log]
    assert got.seen_sorted == full.seen_sorted


def _warc_records(warc_dir: str) -> list[tuple]:
    """Every record of a crawl's WARC fragments, parsed back by the
    independent oracle reader, sorted: (url, type, status, payload)."""
    import glob
    import os

    from webarchive_discovery_ray.oracle.warc_oracle import oracle_parse_archive

    rows = []
    for f in glob.glob(os.path.join(warc_dir, "wave_*", "part_*.warc.gz")):
        with open(f, "rb") as fh:
            rows += oracle_parse_archive(fh.read(), f)
    return sorted((r["url"], r["record_type"], r["status"], r["payload"]) for r in rows)


def _oracle_warc_records(exp, ccfg: CrawlConfig, syn: SyntheticConfig) -> list[tuple]:
    """The WARC records an oracle crawl implies, sorted like
    ``_warc_records``: one per logged fetch, and under ``dedup_content``
    a payload-less revisit for each 200 whose payload hash an earlier
    fetch in log order already had (the oracle's own gate rule)."""
    from webarchive_discovery_ray.oracle.crawl_oracle import crawl_index_config
    from webarchive_discovery_ray.oracle.extract_oracle import oracle_extract_record
    from webarchive_discovery_ray.sources.synthetic import page_for_url

    icfg = crawl_index_config(None)
    hashes: set[str] = set()
    out = []
    for e in exp.fetch_log:
        rec = page_for_url(e["url"], syn)
        rtype, payload = "response", rec["payload"] or b""
        doc = oracle_extract_record(rec, icfg) if ccfg.dedup_content else None
        if doc is not None and rec["status"] == 200:
            if doc["hash"] in hashes:
                rtype, payload = "revisit", b""
            hashes.add(doc["hash"])
        out.append((e["url"], rtype, rec["status"], payload))
    return sorted(out)


@pytest.mark.parametrize(
    "fc_full, fc_resume",
    [pytest.param(1, 1, id="fc1"), pytest.param(8, 8, id="fc8"),
     pytest.param(8, 1, id="fc8-resume-fc1")],
)
def test_all_politeness_features_combined_resume(
    ray_session, tmp_path_factory, fc_full, fc_resume
):
    """Everything at once: forced seen-set spill + Crawl-delay + Allow
    carve-outs + sitemap-index recursion + 5xx backoff + rel/meta
    nofollow + the duplicate-content gate + SURT scope + per-host total
    quota + the WARC sink, byte-parity vs the oracle AND kill-and-resume
    identical across the combined state (spill runs, pending sitemaps,
    backoff set, quota counters, rules with all three sentinel kinds).
    Runs at 4 and 32 host blocks per wave (``fetch_concurrency`` 1 and 8)
    and across a resume that changes 32 blocks to 4: the fetch log, the
    seen set and the parsed WARC records equal the oracle's whatever the
    block count, and at one block count the resumed run's WARC fragments
    are byte-identical to the uninterrupted run's."""
    import glob
    import os

    from webarchive_discovery_ray.oracle.crawl_oracle import scope_from_seeds

    syn = SyntheticConfig(
        n_hosts=12, pages_per_host=100, max_fanout=7,
        robots_disallow_ratio=0.6, robots_allow_ratio=0.6,
        robots_crawl_delay_ratio=0.3, robots_sitemap_ratio=0.5,
        sitemap_index_ratio=0.5, link_nofollow_ratio=0.2,
        meta_nofollow_ratio=0.1, duplicate_content_ratio=0.2,
    )
    sds = seed_urls(syn, n_seeds=8)
    scope = scope_from_seeds(sds[:7])  # bites: one seed host out of scope
    spill = str(tmp_path_factory.mktemp("combined_spill"))
    warc_full = str(tmp_path_factory.mktemp("combined_warc_full"))

    def mk(waves, spill_dir, warc_dir):
        return CrawlConfig(politeness_budget=4, max_waves=waves,
                           seen_shards=4, backoff_503=True,
                           dedup_content=True, seen_spill_threshold=16,
                           seen_spill_dir=spill_dir,
                           scope_surt_prefixes=scope,
                           max_pages_per_host=12, warc_dir=warc_dir)

    cfg = mk(6, spill, warc_full)
    exp = oracle_crawl(sds, cfg, syn)
    full = run_crawl(sds, cfg, syn, fetch_concurrency=fc_full,
                     collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in full.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert full.seen_sorted == exp.seen_sorted
    exp_warc = _oracle_warc_records(exp, cfg, syn)
    assert any(r[1] == "revisit" for r in exp_warc), "fixture must mint revisits"
    assert _warc_records(warc_full) == exp_warc
    # quota + scope bite under the combination
    per: dict[str, int] = {}
    for e in exp.fetch_log:
        per[e["host"]] = per.get(e["host"], 0) + 1
    assert per and max(per.values()) <= 12
    # kill after wave 2, resume to completion (at fc_resume) — the same
    # fetch log, seen set and WARC records as the uninterrupted run
    ckdir = str(tmp_path_factory.mktemp("combined_ck"))
    spill2 = str(tmp_path_factory.mktemp("combined_spill2"))
    warc_res = str(tmp_path_factory.mktemp("combined_warc_res"))
    run_crawl(sds, mk(3, spill2, warc_res), syn, fetch_concurrency=fc_full,
              checkpoint_dir=ckdir)
    got = run_crawl(sds, mk(6, spill2, warc_res), syn, fetch_concurrency=fc_resume,
                    checkpoint_dir=ckdir, resume=True,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in full.fetch_log]
    assert got.seen_sorted == full.seen_sorted
    assert _warc_records(warc_res) == exp_warc

    def frags(d):
        return {
            os.path.relpath(f, d): open(f, "rb").read()
            for f in sorted(glob.glob(os.path.join(d, "wave_*", "part_*.warc.gz")))
        }

    # fragment files are grouped by block, so bytes compare only at one
    # block count; across a block-count change the records compare above
    if fc_resume == fc_full:
        assert frags(warc_full) == frags(warc_res)


def test_nofollow_byte_parity(ray_session):
    """rel=nofollow / meta-robots-nofollow gating (round 4): anchors
    carrying a rel nofollow token don't enqueue their target; a page with
    <meta name="robots" content="... nofollow ..."> contributes no
    extraction links at all — Ray frontier == sequential oracle
    byte-for-byte, and both rules demonstrably bite."""
    from webarchive_discovery_ray.sources.synthetic import page_for_url
    from webarchive_discovery_ray.state.robots import nofollow_scan

    syn = SyntheticConfig(
        n_hosts=10, pages_per_host=60, max_fanout=6,
        link_nofollow_ratio=0.3, meta_nofollow_ratio=0.15,
    )
    cfg = CrawlConfig(politeness_budget=3, max_waves=4, seen_shards=4)
    sds = seed_urls(syn, n_seeds=6)
    exp = oracle_crawl(sds, cfg, syn)
    got = run_crawl(sds, cfg, syn, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted
    # fixture sensitivity: both directive kinds appear among fetched pages
    metas, rels = 0, 0
    for e in exp.fetch_log:
        rec = page_for_url(e["url"], syn)
        if b"nofollow" not in rec["payload"]:
            continue
        meta_nf, drop = nofollow_scan(
            rec["payload"].decode("utf-8", "replace"), e["url"]
        )
        metas += meta_nf
        rels += bool(drop)
    assert metas > 0, "fixture must exercise meta robots nofollow"
    assert rels > 0, "fixture must exercise rel=nofollow anchors"
    # the gate must actually shrink discovery vs the same crawl with the
    # directives ignored
    off = oracle_crawl(
        sds,
        CrawlConfig(politeness_budget=3, max_waves=4, seen_shards=4,
                    respect_nofollow=False),
        syn,
    )
    assert len(exp.seen_sorted) < len(off.seen_sorted), (
        "nofollow gating must reduce the discovered URL set"
    )
    # knob-off generator output unchanged: default fixtures byte-identical
    syn_off = SyntheticConfig(n_hosts=10, pages_per_host=60, max_fanout=6)
    base_on_gate = oracle_crawl(seed_urls(syn_off, n_seeds=6), cfg, syn_off)
    base_no_gate = oracle_crawl(
        seed_urls(syn_off, n_seeds=6),
        CrawlConfig(politeness_budget=3, max_waves=4, seen_shards=4,
                    respect_nofollow=False),
        syn_off,
    )
    assert [_log_key(e) for e in base_on_gate.fetch_log] == [
        _log_key(e) for e in base_no_gate.fetch_log
    ]
    assert base_on_gate.seen_sorted == base_no_gate.seen_sorted


def test_dedup_content_byte_parity(ray_session):
    """Duplicate-content gate (round 4): a status-200 fetch whose payload
    hash was already fetched (global (wave, host, slot) order) contributes
    NO candidates — Ray frontier (sharded content pool + wave-barrier
    first-wins gate) == sequential oracle byte-for-byte, and the rule
    demonstrably bites."""
    from webarchive_discovery_ray.sources.synthetic import page_for_url

    syn = SyntheticConfig(
        n_hosts=10, pages_per_host=60, max_fanout=6,
        duplicate_content_ratio=0.35,
    )
    cfg = CrawlConfig(politeness_budget=3, max_waves=4, seen_shards=4,
                      dedup_content=True)
    sds = seed_urls(syn, n_seeds=6)
    exp = oracle_crawl(sds, cfg, syn)
    got = run_crawl(sds, cfg, syn, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted
    # fixture sensitivity: some fetched 200 pages shared payload bytes
    hashes: dict[str, int] = {}
    for e in exp.fetch_log:
        rec = page_for_url(e["url"], syn)
        if rec["status"] == 200:
            hashes[rec["payload_sha1"]] = hashes.get(rec["payload_sha1"], 0) + 1
    assert any(v > 1 for v in hashes.values()), (
        "fixture must contain duplicate-content fetches"
    )
    # the gate must actually shrink discovery vs the same crawl without it
    off = oracle_crawl(
        sds,
        CrawlConfig(politeness_budget=3, max_waves=4, seen_shards=4,
                    dedup_content=False),
        syn,
    )
    assert len(exp.seen_sorted) < len(off.seen_sorted), (
        "content gate must reduce the discovered URL set"
    )
    # knob-off: gate enabled over the default generator changes nothing
    # (all payloads distinct except protocol-level error/redirect bodies,
    # which never participate — only status 200 registers)
    syn_off = SyntheticConfig(n_hosts=10, pages_per_host=60, max_fanout=6)
    base = oracle_crawl(seed_urls(syn_off, n_seeds=6),
                        CrawlConfig(politeness_budget=3, max_waves=4,
                                    seen_shards=4), syn_off)
    gate = oracle_crawl(seed_urls(syn_off, n_seeds=6),
                        CrawlConfig(politeness_budget=3, max_waves=4,
                                    seen_shards=4, dedup_content=True),
                        syn_off)
    # identical UNLESS the default corpus happens to serve duplicate 200
    # bodies; assert equality only when it provably has none
    h2: dict[str, int] = {}
    for e in base.fetch_log:
        rec = page_for_url(e["url"], syn_off)
        if rec["status"] == 200:
            h2[rec["payload_sha1"]] = h2.get(rec["payload_sha1"], 0) + 1
    if not any(v > 1 for v in h2.values()):
        assert [_log_key(e) for e in gate.fetch_log] == [
            _log_key(e) for e in base.fetch_log
        ]
        assert gate.seen_sorted == base.seen_sorted


def test_dedup_content_checkpoint_resume_identical(ray_session, tmp_path_factory):
    """Kill-and-resume with the content gate on: the content-seen pool
    checkpoints as per-wave deltas (content_delta.parquet) and restores
    shard-side — the resumed crawl equals the uninterrupted one
    byte-for-byte (a lost content set would re-admit duplicate pages'
    candidates and diverge)."""
    syn = SyntheticConfig(
        n_hosts=10, pages_per_host=60, max_fanout=6,
        duplicate_content_ratio=0.35,
    )
    sds = seed_urls(syn, n_seeds=6)
    cfg = CrawlConfig(politeness_budget=3, max_waves=5, seen_shards=4,
                      dedup_content=True)
    full = run_crawl(sds, cfg, syn, fetch_concurrency=2,
                     collect_log=True, collect_seen=True)
    ckdir = str(tmp_path_factory.mktemp("dedup_ck"))
    cfg1 = CrawlConfig(politeness_budget=3, max_waves=2, seen_shards=4,
                       dedup_content=True)
    run_crawl(sds, cfg1, syn, fetch_concurrency=2,
              checkpoint_dir=ckdir)
    got = run_crawl(sds, cfg, syn, fetch_concurrency=2,
                    checkpoint_dir=ckdir, resume=True,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in full.fetch_log]
    assert got.seen_sorted == full.seen_sorted


def test_dedup_content_crawl_runs_one_shard_pool(
    ray_session, tmp_path_factory, monkeypatch
):
    """A dedup_content crawl keeps URL keys and content hashes in ONE
    SeenShardPool (seen_shards actors, not twice that): spy on the pool's
    constructor through a kill-and-resume run with the spill tier forced.
    Content keys spill under <seen_spill_dir>/content/shard_XXX, the
    resumed result is byte-identical to the oracle, and each run parks
    its shard actors empty when it returns: the resumed run reuses the
    first run's actors instead of starting new ones."""
    import os

    pools = _spy_pools(monkeypatch)
    syn = SyntheticConfig(
        n_hosts=10, pages_per_host=60, max_fanout=6,
        duplicate_content_ratio=0.35,
    )
    sds = seed_urls(syn, n_seeds=6)
    spill = str(tmp_path_factory.mktemp("one_pool_spill"))
    ckdir = str(tmp_path_factory.mktemp("one_pool_ck"))

    def cfg(waves):
        return CrawlConfig(politeness_budget=3, max_waves=waves, seen_shards=4,
                           dedup_content=True, seen_spill_threshold=8,
                           seen_spill_dir=spill)

    run_crawl(sds, cfg(2), syn, fetch_concurrency=2, checkpoint_dir=ckdir)
    assert len(pools) == 1 and len(pools[0].shards) == 4
    _assert_parked_empty(pools[0].shards)
    assert sorted(os.listdir(os.path.join(spill, "content"))) == [
        f"shard_{i:03d}" for i in range(4)
    ]
    assert any(
        f.endswith(".parquet")
        for i in range(4)
        for f in os.listdir(os.path.join(spill, "content", f"shard_{i:03d}"))
    ), "fixture must spill content keys"
    got = run_crawl(sds, cfg(4), syn, fetch_concurrency=2,
                    checkpoint_dir=ckdir, resume=True,
                    collect_log=True, collect_seen=True)
    assert len(pools) == 2 and pools[1].shards == pools[0].shards
    _assert_parked_empty(pools[1].shards)
    exp = oracle_crawl(sds, cfg(4), syn)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted


def _spy_pools(monkeypatch) -> list:
    """Record every SeenShardPool constructed while the test runs."""
    from webarchive_discovery_ray.state.seen import SeenShardPool

    pools = []
    init = SeenShardPool.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        pools.append(self)

    monkeypatch.setattr(SeenShardPool, "__init__", spy)
    return pools


def _assert_parked_empty(handles) -> None:
    """Every shard is alive and holds no key of either key space."""
    import ray

    for h in handles:
        assert ray.get(h.__len__.remote(), timeout=60) == 0
        assert ray.get(h.spill_stats.remote(), timeout=60) == {
            "hot": 0, "spilled": 0, "runs": 0
        }
        assert ray.get(h.snapshot.remote("content"), timeout=60) == []


def test_reused_shard_actors_leak_no_state(
    ray_session, tmp_path_factory, monkeypatch
):
    """Shard actors parked by one crawl and reset by the next carry no
    state across crawls. Back-to-back crawls of the same seeds in one
    session each equal the oracle (fetch log, seen set, parsed WARC
    records): shard count 4 -> 2 -> 4, the content gate off then on, the
    spill tier forced on one run, and a kill-and-resume on reused
    actors. After ``ray.shutdown()`` + ``ray.init()`` the next crawl
    starts fresh actors and never calls a handle of the ended session."""
    import os

    import ray

    from webarchive_discovery_ray.state import seen

    pools = _spy_pools(monkeypatch)
    awaited = []
    reset_ok = seen._reset_ok

    def spy_reset_ok(handle, ref):
        awaited.append(handle)
        return reset_ok(handle, ref)

    monkeypatch.setattr(seen, "_reset_ok", spy_reset_ok)
    syn = SyntheticConfig(
        n_hosts=10, pages_per_host=60, max_fanout=6,
        duplicate_content_ratio=0.35,
    )
    sds = seed_urls(syn, n_seeds=6)

    def cfg(shards, dedup, waves=4, spill=None, warc=None):
        return CrawlConfig(
            politeness_budget=3, max_waves=waves, seen_shards=shards,
            dedup_content=dedup, seen_spill_threshold=8 if spill else None,
            seen_spill_dir=spill,
            warc_dir=warc or str(tmp_path_factory.mktemp("reuse_warc")),
        )

    def crawl(ccfg, **kw):
        """Crawl, check against the oracle, check the parked shards."""
        got = run_crawl(sds, ccfg, syn, fetch_concurrency=1,
                        collect_log=True, collect_seen=True, **kw)
        exp = oracle_crawl(sds, ccfg, syn)
        assert [_log_key(e) for e in got.fetch_log] == [
            _log_key(e) for e in exp.fetch_log
        ]
        assert got.seen_sorted == exp.seen_sorted
        assert _warc_records(ccfg.warc_dir) == _oracle_warc_records(exp, ccfg, syn)
        _assert_parked_empty(pools[-1].shards)

    crawl(cfg(4, dedup=False))
    first = set(pools[0].shards)
    crawl(cfg(2, dedup=True))
    assert set(pools[1].shards) < first
    spill = str(tmp_path_factory.mktemp("reuse_spill"))
    crawl(cfg(4, dedup=True, spill=spill))
    assert set(pools[2].shards) == first
    assert any(
        f.endswith(".parquet") for _, _, files in os.walk(spill) for f in files
    ), "fixture must spill"
    # killed after wave 2, resumed to wave 4: both runs on reused actors
    ckdir = str(tmp_path_factory.mktemp("reuse_ck"))
    spill = str(tmp_path_factory.mktemp("reuse_spill_ck"))
    warc = str(tmp_path_factory.mktemp("reuse_warc_ck"))
    run_crawl(sds, cfg(4, True, waves=2, spill=spill, warc=warc), syn,
              fetch_concurrency=1, checkpoint_dir=ckdir)
    crawl(cfg(4, True, spill=spill, warc=warc), checkpoint_dir=ckdir, resume=True)
    assert len(pools) == 5 and all(set(p.shards) == first for p in pools[3:])
    assert set(awaited) == first
    # a new session: nothing parked by the old one is taken or called
    ray.shutdown()
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    awaited.clear()
    crawl(cfg(4, dedup=True))
    assert not set(pools[-1].shards) & first
    assert awaited and not set(awaited) & first


def _assert_actors_dead(handles) -> None:
    import ray

    for h in handles:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(h.spill_stats.remote(), timeout=60)


def test_failed_crawl_kills_seen_shard_actors(
    ray_session, tmp_path_factory, monkeypatch
):
    """A crawl that raises (its WARC directory cannot be created) still
    kills its seen-set shard actors: the traceback holds the pool, but
    every call on a shard handle afterwards raises RayActorError."""
    import ray

    pools = _spy_pools(monkeypatch)
    base = tmp_path_factory.mktemp("pool_fail")
    blocker = base / "blocker"
    blocker.write_text("not a directory")
    with pytest.raises((OSError, ray.exceptions.RayTaskError)):
        run_crawl(
            seed_urls(SYN, n_seeds=4),
            CrawlConfig(politeness_budget=3, max_waves=2, seen_shards=2,
                        warc_dir=str(blocker / "warc")),
            SYN, checkpoint_dir=str(base / "ck"), fetch_concurrency=1,
        )
    assert len(pools) == 1 and len(pools[0].shards) == 2
    _assert_actors_dead(pools[0].shards)


def test_close_kills_warm_shard_actors_before_later_calls(ray_session):
    """``ray.kill`` is asynchronous, and a warm (reused) shard actor can
    still answer a call made right after it. ``close()`` must leave no
    such window: every call after it raises RayActorError."""
    from webarchive_discovery_ray.state.seen import SeenShardPool

    SeenShardPool(2).park()
    for _ in range(10):
        pool = SeenShardPool(2)  # takes the two parked, warm actors
        assert pool.add_if_new(["com,example)/"]) == [True]
        pool.close()
        _assert_actors_dead(pool.shards)
        SeenShardPool(2).park()


@pytest.mark.parametrize("fc", [0, -1])
def test_fetch_concurrency_below_one_rejected(ray_session, monkeypatch, fc):
    """fetch_concurrency sizes the wave at 4 blocks per slot, so fewer
    than one slot is an error, raised before any shard actor starts;
    the CLI's --fetch-concurrency gives the same error."""
    from webarchive_discovery_ray.cli import main

    pools = _spy_pools(monkeypatch)
    with pytest.raises(ValueError, match="fetch_concurrency must be >= 1"):
        run_crawl(seed_urls(SYN, n_seeds=2), CRAWL, SYN, fetch_concurrency=fc)
    with pytest.raises(ValueError, match="fetch_concurrency must be >= 1"):
        main(["crawl", "--hosts", "4", "--pages-per-host", "10",
              "--n-seeds", "2", "--waves", "1", "--fetch-concurrency", str(fc)])
    assert pools == []


def test_max_pages_per_host_quota(ray_session, seeds, oracle_result, tmp_path_factory):
    """Heritrix queue-total-budget rule: per-host total fetch quota,
    retired hosts drop their queues. Byte-parity vs the sequential
    oracle, the cap provably bites, knob-off is byte-identical, and
    kill-resume restores the quota counters."""
    quota_cfg = CrawlConfig(politeness_budget=3, max_waves=4, seen_shards=4,
                            max_pages_per_host=5)
    exp = oracle_crawl(seeds, quota_cfg, SYN)
    got = run_crawl(seeds, quota_cfg, SYN, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted
    # sensitivity: every host stops at the quota, and the unquota'd crawl
    # provably fetched more from at least one host
    per: dict[str, int] = {}
    for e in exp.fetch_log:
        per[e["host"]] = per.get(e["host"], 0) + 1
    assert per and max(per.values()) <= 5
    base_per: dict[str, int] = {}
    for e in oracle_result.fetch_log:
        base_per[e["host"]] = base_per.get(e["host"], 0) + 1
    assert max(base_per.values()) > 5, "fixture must exceed the quota"
    assert len(exp.fetch_log) < len(oracle_result.fetch_log)
    # knob-off: None leaves the default crawl byte-identical
    off = run_crawl(seeds, CRAWL, SYN, fetch_concurrency=2, collect_log=True,
                    collect_seen=True)
    assert [_log_key(e) for e in off.fetch_log] == [
        _log_key(e) for e in oracle_result.fetch_log
    ]
    # kill-and-resume: counters checkpoint and restore
    ckpt = str(tmp_path_factory.mktemp("quota_ckpt"))
    partial = CrawlConfig(politeness_budget=3, max_waves=2, seen_shards=4,
                          max_pages_per_host=5)
    run_crawl(seeds, partial, SYN, checkpoint_dir=ckpt, fetch_concurrency=2)
    resumed = run_crawl(seeds, quota_cfg, SYN, checkpoint_dir=ckpt,
                        resume=True, fetch_concurrency=2, collect_log=True,
                        collect_seen=True)
    assert [_log_key(e) for e in resumed.fetch_log] == [
        _log_key(e) for e in exp.fetch_log
    ]
    assert resumed.seen_sorted == exp.seen_sorted


def test_scope_surt_prefixes(ray_session, seeds, oracle_result):
    """Heritrix SurtPrefixedDecideRule: candidates outside the SURT scope
    never enqueue. Byte-parity vs the oracle through the shared
    candidate_ok gate, the scope provably bites, seeds/robots stay in
    scope by construction, and knob-off is byte-identical."""
    from webarchive_discovery_ray.oracle.crawl_oracle import scope_from_seeds
    from webarchive_discovery_ray.functions.surt import surt_key

    scope = scope_from_seeds(seeds[:2])  # stay on the first two seed hosts
    cfg = CrawlConfig(politeness_budget=3, max_waves=4, seen_shards=4,
                      scope_surt_prefixes=scope)
    exp = oracle_crawl(seeds, cfg, SYN)
    got = run_crawl(seeds, cfg, SYN, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted
    # sensitivity: discovery shrank vs the unscoped crawl, and every
    # DISCOVERED (non-seed, non-robots) fetch is inside the scope
    assert len(exp.seen_sorted) < len(oracle_result.seen_sorted)
    seed_surts = {surt_key(u) for u, _ in seeds}
    for e in exp.fetch_log:
        if e["surt"] in seed_surts or e["url"].endswith("/robots.txt"):
            continue
        assert any(e["surt"].startswith(p) for p in scope), e["url"]
    # the scope kept hosts beyond the first two OUT (seeds themselves and
    # their robots are the only out-of-scope fetches)
    in_scope_hosts = {e["host"] for e in exp.fetch_log
                      if any(surt_key("http://" + e["host"] + "/").startswith(p)
                             for p in scope)}
    all_hosts = {e["host"] for e in exp.fetch_log}
    assert in_scope_hosts < all_hosts  # some seed hosts are out of scope
    base_hosts = {e["host"] for e in oracle_result.fetch_log}
    assert all_hosts < base_hosts  # scope pruned discovered hosts
    # knob-off: None reproduces the base crawl byte-for-byte
    off = run_crawl(seeds, CRAWL, SYN, fetch_concurrency=2,
                    collect_log=True)
    assert [_log_key(e) for e in off.fetch_log] == [
        _log_key(e) for e in oracle_result.fetch_log
    ]


def _adaptive_cfg(**kw):
    base = dict(
        politeness_budget=3, max_waves=4, seen_shards=4,
        adaptive_politeness=True,
        # factor 5.0, floor 3s, window 7s: every host's earned delay is
        # >= 3000 ms, so the wave cap is <= 7000 // 3000 = 2 < budget —
        # the knob provably bites from wave 1 on
        adaptive_delay_factor_permil=5000,
        adaptive_min_delay_ms=3000,
        adaptive_max_delay_ms=30000,
        adaptive_wave_window_ms=7000,
    )
    base.update(kw)
    return CrawlConfig(**base)


def test_adaptive_politeness_parity(ray_session, seeds):
    """Adaptive politeness (Heritrix delayFactor/minDelayMs/maxDelayMs on
    the wave window): Ray crawl must match the sequential oracle
    byte-identically with the knob biting."""
    ccfg = _adaptive_cfg()
    exp = oracle_crawl(seeds, ccfg, SYN)
    got = run_crawl(seeds, ccfg, SYN, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted


def test_adaptive_politeness_sensitivity(seeds, oracle_result):
    """The knob BITES: with the cap at 2 (< budget 3) no host exceeds 2
    fetches in any wave after its first fetch, and the crawl differs
    from the knob-off run; knob-off stays byte-identical to the
    pre-adaptive fixture (default-off safety)."""
    on = oracle_crawl(seeds, _adaptive_cfg(), SYN)
    off = oracle_result  # CRAWL: same shape, knob off
    assert [_log_key(e) for e in on.fetch_log] != [_log_key(e) for e in off.fetch_log]
    first_wave = {}
    per = {}
    for e in on.fetch_log:
        h = e["host"]
        first_wave.setdefault(h, e["wave"])
        per[(e["wave"], h)] = per.get((e["wave"], h), 0) + 1
    for (w, h), n in per.items():
        if w > first_wave[h]:
            assert n <= 2, (w, h, n)
    # knob-off run has at least one host at full budget in a later wave
    per_off = {}
    fw_off = {}
    for e in off.fetch_log:
        fw_off.setdefault(e["host"], e["wave"])
        per_off[(e["wave"], e["host"])] = per_off.get((e["wave"], e["host"]), 0) + 1
    assert any(
        n == 3 for (w, h), n in per_off.items() if w > fw_off[h]
    ), "fixture never reaches full budget; sensitivity test is vacuous"


def test_adaptive_politeness_resume(ray_session, seeds, tmp_path_factory):
    """The per-host last-duration dict is checkpointed: kill-and-resume
    with the knob biting equals the uninterrupted run and the oracle."""
    ccfg = _adaptive_cfg()
    ckpt = str(tmp_path_factory.mktemp("adaptive_ckpt"))
    run_crawl(seeds, _adaptive_cfg(max_waves=2), SYN,
              checkpoint_dir=ckpt, fetch_concurrency=2)
    resumed = run_crawl(seeds, ccfg, SYN, checkpoint_dir=ckpt, resume=True,
                        fetch_concurrency=2, collect_log=True, collect_seen=True)
    exp = oracle_crawl(seeds, ccfg, SYN)
    assert [_log_key(e) for e in resumed.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert resumed.seen_sorted == exp.seen_sorted


def test_adaptive_composes_with_quota_backoff(ray_session):
    """Feature composition: adaptive politeness + per-host quota + 5xx
    backoff active at once on a hot-host web must stay byte-identical to
    the sequential oracle (the adaptive cap sits inside the pinned
    shrink chain that every block's one drain applies)."""
    syn = SyntheticConfig(n_hosts=8, pages_per_host=80, max_fanout=8,
                          hot_host_share=0.5)
    sds = seed_urls(syn, n_seeds=5)
    ccfg = _adaptive_cfg(max_pages_per_host=9, backoff_503=True)
    exp = oracle_crawl(sds, ccfg, syn)
    got = run_crawl(sds, ccfg, syn, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted
    # the adaptive cap actually bit in this configuration
    first_wave, per = {}, {}
    for e in exp.fetch_log:
        first_wave.setdefault(e["host"], e["wave"])
        per[(e["wave"], e["host"])] = per.get((e["wave"], e["host"]), 0) + 1
    capped = [n for (w, h), n in per.items() if w > first_wave[h]]
    assert capped and max(capped) <= 2


def test_retry_5xx_byte_parity_and_sensitivity(ray_session):
    """5xx fetch retries (round 5, the Heritrix fetch-retry schedule):
    a failed SELECTED fetch re-enters the next wave with its original
    (priority, hop, seq), up to retry_5xx additional attempts per surt.
    Ray == sequential oracle byte-for-byte; the synthetic world is
    deterministic so every retry fails again — the fetch log must carry
    exactly 1 + retry_5xx attempts for early-failing URLs."""
    from collections import Counter

    syn = SyntheticConfig(n_hosts=10, pages_per_host=120, max_fanout=8)
    sds = seed_urls(syn, n_seeds=6)
    cfg = CrawlConfig(politeness_budget=4, max_waves=6, seen_shards=4,
                      retry_5xx=2)
    exp = oracle_crawl(sds, cfg, syn)
    got = run_crawl(sds, cfg, syn, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted
    by_url = Counter(e["url"] for e in got.fetch_log)
    first_wave = {}
    statuses = {}
    for e in got.fetch_log:
        first_wave.setdefault(e["url"], e["wave"])
        statuses[e["url"]] = e["status"]
    # retries preserve the row's ORIGINAL priority, so a retry can be
    # legitimately starved by newer higher-priority discoveries (the
    # Heritrix same-precedence re-enqueue); the schedule bounds are:
    # at least one failure runs the FULL schedule, none exceeds it,
    # and successes fetch exactly once
    fails = [u for u, st in statuses.items() if st >= 500]
    assert fails, "fixture must contain 5xx URLs"
    assert any(by_url[u] == 1 + cfg.retry_5xx for u in fails)
    assert all(by_url[u] <= 1 + cfg.retry_5xx for u in fails)
    assert any(by_url[u] > 1 for u in fails)  # the knob demonstrably bites
    for u, st in statuses.items():
        if st < 500:
            assert by_url[u] == 1, (u, by_url[u])
    # knob-off: unchanged behaviour (single attempt per URL)
    off = oracle_crawl(sds, CrawlConfig(politeness_budget=4, max_waves=6,
                                        seen_shards=4), syn)
    assert max(Counter(e["url"] for e in off.fetch_log).values()) == 1


def test_retry_5xx_checkpoint_resume_identical(ray_session, tmp_path_factory):
    """Retry state (pending rows + attempt counts) is checkpointed:
    kill-and-resume mid-schedule equals the uninterrupted run."""
    syn = SyntheticConfig(n_hosts=10, pages_per_host=120, max_fanout=8)
    sds = seed_urls(syn, n_seeds=6)
    cfg = CrawlConfig(politeness_budget=4, max_waves=6, seen_shards=4,
                      retry_5xx=2)
    ckpt = str(tmp_path_factory.mktemp("retry_ckpt"))
    run_crawl(sds, CrawlConfig(politeness_budget=4, max_waves=3, seen_shards=4,
                               retry_5xx=2), syn,
              checkpoint_dir=ckpt, fetch_concurrency=2)
    resumed = run_crawl(sds, cfg, syn, checkpoint_dir=ckpt, resume=True,
                        fetch_concurrency=2, collect_log=True,
                        collect_seen=True)
    exp = oracle_crawl(sds, cfg, syn)
    assert [_log_key(e) for e in resumed.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert resumed.seen_sorted == exp.seen_sorted


def test_retry_composes_with_adaptive_and_backoff(ray_session):
    """Round-5 scheduler features compose: 5xx retries under adaptive
    politeness + 5xx backoff stay byte-identical to the oracle (retries
    drain beneath the full shrink chain and re-fail deterministically)."""
    from collections import Counter

    syn = SyntheticConfig(n_hosts=10, pages_per_host=120, max_fanout=8)
    sds = seed_urls(syn, n_seeds=6)
    ccfg = _adaptive_cfg(max_waves=6, retry_5xx=2, backoff_503=True)
    exp = oracle_crawl(sds, ccfg, syn)
    got = run_crawl(sds, ccfg, syn, fetch_concurrency=2,
                    collect_log=True, collect_seen=True)
    assert [_log_key(e) for e in got.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert got.seen_sorted == exp.seen_sorted
    assert max(Counter(e["url"] for e in got.fetch_log).values()) <= 3


def test_policy_state_checkpoint_roundtrip():
    """PolicyState <-> robots.json body is lossless with all five
    policies populated, also through the on-disk JSON encoding."""
    import json

    from webarchive_discovery_ray.pipelines.crawl import PolicyState

    s = PolicyState(
        scheduled={"a.example", "b.example"},
        rules={"a.example": ["/private/", "crawl-delay:2"], "b.example": []},
        backoff={"b.example"},
        host_fetched={"a.example": 3, "b.example": 1},
        last_dur={"a.example": 120, "b.example": 95},
        retry_attempts={"example,a)/x": 1},
        retry_pending=[("http://a.example/x", "example,a)/x", "a.example", 0, 1, 7)],
    )
    body = s.to_checkpoint()
    assert list(body) == [
        "scheduled", "rules", "backoff", "host_fetched",
        "adaptive_last_dur", "retry_attempts", "retry_pending",
    ]
    assert PolicyState.from_checkpoint(body) == s
    assert PolicyState.from_checkpoint(json.loads(json.dumps(body))) == s


def test_pre_backoff_checkpoint_resumes_with_empty_policy_state(
    ray_session, seeds, oracle_result, tmp_path_factory
):
    """A wave whose robots.json holds only ``scheduled`` and ``rules``
    (the layout before the backoff/quota/adaptive/retry keys) loads as
    empty policy state and resumes to the uninterrupted result."""
    import json
    import os

    from webarchive_discovery_ray.pipelines.crawl import PolicyState
    from webarchive_discovery_ray.state.checkpoint import (
        latest_complete_wave,
        load_wave_checkpoint,
    )

    ckpt = str(tmp_path_factory.mktemp("crawl_ckpt_pre_backoff"))
    partial_cfg = CrawlConfig(
        politeness_budget=CRAWL.politeness_budget, max_waves=2,
        seen_shards=CRAWL.seen_shards,
    )
    run_crawl(seeds, partial_cfg, SYN, checkpoint_dir=ckpt, fetch_concurrency=2)
    last = latest_complete_wave(ckpt)
    path = os.path.join(ckpt, f"wave_{last:04d}", "robots.json")
    with open(path) as f:
        body = json.load(f)
    with open(path, "w") as f:
        json.dump({"scheduled": body["scheduled"], "rules": body["rules"]}, f)
    policy = PolicyState.from_checkpoint(load_wave_checkpoint(ckpt, last)["policy"])
    assert policy == PolicyState(
        scheduled=set(body["scheduled"]), rules=body["rules"]
    )
    all_on = CrawlConfig(
        backoff_503=True, max_pages_per_host=10, adaptive_politeness=True,
        retry_5xx=1,
    )
    on = policy.configured(all_on)
    assert (on.backoff, on.host_fetched, on.last_dur, on.retry_attempts,
            on.retry_pending) == (set(), {}, {}, {}, [])
    resumed = run_crawl(
        seeds, CRAWL, SYN, checkpoint_dir=ckpt, resume=True, fetch_concurrency=2,
        collect_log=True, collect_seen=True,
    )
    exp = oracle_result
    assert [_log_key(e) for e in resumed.fetch_log] == [_log_key(e) for e in exp.fetch_log]
    assert resumed.seen_sorted == exp.seen_sorted


def _differential_case():
    """One draw of the randomized crawl differential: a small synthetic
    web, a crawl policy over the existing knobs, a block count, and an
    optional kill wave."""
    from hypothesis import strategies as st

    ratio = st.sampled_from([0.0, 0.3, 0.6])
    web = st.builds(
        SyntheticConfig,
        seed=st.integers(0, 1000),
        n_hosts=st.integers(2, 8),
        pages_per_host=st.integers(10, 60),
        max_fanout=st.integers(3, 7),
        hot_host_share=st.sampled_from([0.0, 0.3, 0.8]),
        duplicate_content_ratio=ratio,
        robots_disallow_ratio=ratio,
        robots_crawl_delay_ratio=ratio,
        robots_sitemap_ratio=ratio,
    )
    policy = st.fixed_dictionaries(
        {
            "politeness_budget": st.integers(1, 5),
            "max_waves": st.integers(2, 5),
            "dedup_content": st.booleans(),
            "seen_shards": st.integers(1, 3),
            "backoff_503": st.booleans(),
            "retry_5xx": st.sampled_from([None, 1, 2]),
            "max_pages_per_host": st.sampled_from([None, 3, 8]),
            "adaptive_politeness": st.booleans(),
            # a short wave window makes the adaptive cap bite at these
            # budgets
            "adaptive_wave_window_ms": st.sampled_from([240_000, 12_000]),
            "seen_spill_threshold": st.sampled_from([None, 4, 16]),
        }
    )
    return st.tuples(
        web, policy, st.integers(1, 3), st.integers(1, 6),
        st.one_of(st.none(), st.integers(1, 4)),
    )


def test_randomized_crawl_differential_with_kill(ray_session):
    """Crawl differential over the policy cross-product: for each drawn
    web, policy, block count and optional kill wave (a checkpointed run
    stopped after that wave, then resumed to the end), the fetch log,
    the seen set and the WARC records read back by the oracle reader
    equal ``oracle_crawl``'s (a kill wave at or past the last wave runs
    the crawl uninterrupted). The examples run back to back on one Ray
    session, so parked shard actors are reused across shard counts,
    gates and spill settings."""
    import shutil
    import tempfile

    from hypothesis import example, given, settings

    # the frontier empties after wave 0 while the robots.txt fetched in
    # it advertises sitemaps: the crawl stops there, as the oracle does
    sitemap_only = (
        SyntheticConfig(
            seed=3, n_hosts=2, pages_per_host=8, max_fanout=2,
            hot_host_share=0.0, robots_disallow_ratio=0.0,
            robots_sitemap_ratio=0.3,
        ),
        {"politeness_budget": 2, "max_waves": 2, "seen_shards": 1},
        1, 1, None,
    )

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(_differential_case())
    @example(sitemap_only)
    def check(case):
        syn, knobs, fc, n_seeds, kill = case
        tmp = tempfile.mkdtemp(prefix="crawl_diff_")
        try:
            def mk(waves):
                return CrawlConfig(
                    **{**knobs, "max_waves": waves},
                    seen_spill_dir=f"{tmp}/spill", warc_dir=f"{tmp}/warc",
                )

            cfg = mk(knobs["max_waves"])
            sds = seed_urls(syn, n_seeds=n_seeds)
            exp = oracle_crawl(sds, cfg, syn)
            kw = dict(fetch_concurrency=fc, collect_log=True, collect_seen=True)
            if kill is not None and kill < cfg.max_waves:
                ck = f"{tmp}/ck"
                run_crawl(sds, mk(kill), syn, fetch_concurrency=fc, checkpoint_dir=ck)
                got = run_crawl(sds, cfg, syn, checkpoint_dir=ck, resume=True, **kw)
            else:
                got = run_crawl(sds, cfg, syn, **kw)
            assert [_log_key(e) for e in got.fetch_log] == [
                _log_key(e) for e in exp.fetch_log
            ]
            assert got.seen_sorted == exp.seen_sorted
            assert _warc_records(f"{tmp}/warc") == _oracle_warc_records(exp, cfg, syn)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    check()


def test_crawl_modules_import_without_pandas():
    """A fresh crawl worker imports the crawl plane and the seen set
    without pandas (importing it costs every new worker 0.2-0.3 s)."""
    import os
    import subprocess
    import sys

    code = (
        "import webarchive_discovery_ray.pipelines.crawl, "
        "webarchive_discovery_ray.state.seen, sys; "
        "assert 'pandas' not in sys.modules"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True, timeout=120)
