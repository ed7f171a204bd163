"""Sketch-accelerated operators: Bloom semi join, exact heavy hitters,
content-defined chunking, BM25 — each against a sequential in-process
reference (the DuckDB mirrors live in __ray_entry__.oracle_sql and are
exercised by the driver gate)."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def test_bloom_never_false_negative():
    from webarchive_discovery_ray.functions.hashing import bloom_add, bloom_contains
    from webarchive_discovery_ray.pipelines.sketches import _BLOOM_BITS

    rng = np.random.default_rng(7)
    keys = rng.integers(0, 2**62, size=5000)
    bits = np.zeros(_BLOOM_BITS >> 3, dtype=np.uint8)
    bloom_add(bits, keys)
    assert bloom_contains(bits, keys).all()
    # false-positive rate stays sane at this load factor
    probe = rng.integers(2**62, 2**63, size=5000)
    fresh = probe[~np.isin(probe, keys)]
    fp = bloom_contains(bits, fresh).mean()
    assert fp < 0.05, f"bloom fp rate {fp:.3f}"


def test_bloom_semi_join_matches_pandas_reference(ray_session):
    from webarchive_discovery_ray.pipelines.sketches import (
        BLOOM_PRICE_THR,
        bloom_semi_join,
    )

    orders = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    line = pq.read_table(
        f"{SF}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    ).to_pandas()
    hot = set(orders.loc[orders["o_totalprice"] > BLOOM_PRICE_THR, "o_orderkey"])
    sub = line[line["l_orderkey"].isin(hot)]
    want = (
        sub.groupby("l_orderkey")
        .agg(n_items=("l_orderkey", "size"), sum_qty=("l_quantity", "sum"))
        .reset_index()
        .sort_values("l_orderkey", ignore_index=True)
    )
    got = (
        bloom_semi_join(SF)
        .to_pandas()
        .sort_values("l_orderkey", ignore_index=True)
    )
    pd.testing.assert_frame_equal(
        got.astype({"n_items": "int64"}), want.astype({"n_items": "int64"})
    )
    assert hot, "fixture must have qualifying orders"


def test_heavy_hitters_exact_and_fallback(ray_session):
    from webarchive_discovery_ray.pipelines.sketches import heavy_hitters

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["text"]).to_pandas()
    counts = docs["text"].str.split().explode().dropna().value_counts()
    want = sorted(
        counts.items(), key=lambda t: (-t[1], t[0])
    )[:20]

    got = heavy_hitters(SF)
    got_pairs = list(zip(got["token"], got["n"]))
    assert got_pairs == [(t, int(n)) for t, n in want]

    # m=2 makes the completeness bound unprovable -> exact fallback path
    got_fb = heavy_hitters(SF, m=2)
    assert list(zip(got_fb["token"], got_fb["n"])) == [
        (t, int(n)) for t, n in want
    ]


def test_heavy_hitters_fallback_driver_rows_bounded(ray_session, tmp_path, monkeypatch):
    """Adversarial flat distribution (every token equally rare): the exact
    fallback must stay exact while at most k x n_buckets rows reach the
    driver — never the whole vocabulary."""
    import ray.data as rd

    from webarchive_discovery_ray.functions.bucketing import default_buckets
    from webarchive_discovery_ray.pipelines.sketches import heavy_hitters

    vocab = [f"tok{i:05d}" for i in range(3000)]
    texts = [" ".join(vocab[i : i + 30]) for i in range(0, len(vocab), 30)]
    texts += [" ".join(vocab[i : i + 30]) for i in range(0, 600, 30)]  # a few 2s
    (tmp_path / "sf").mkdir()
    pq.write_table(pa.table({"text": texts}), str(tmp_path / "sf" / "documents.parquet"))
    counts = pd.Series(" ".join(texts).split()).value_counts()
    want = sorted(counts.items(), key=lambda t: (-t[1], t[0]))[:20]

    pulled: list[int] = []
    take_all = rd.Dataset.take_all

    def counting_take_all(self, *a, **kw):
        rows = take_all(self, *a, **kw)
        pulled.append(len(rows))
        return rows

    monkeypatch.setattr(rd.Dataset, "take_all", counting_take_all)
    got = heavy_hitters(str(tmp_path / "sf"), k=20, m=2)
    assert list(zip(got["token"], got["n"])) == [(t, int(n)) for t, n in want]
    # candidates pass, candidate recount, then the fallback (bounded)
    assert len(pulled) == 3
    assert pulled[-1] <= 20 * default_buckets() < len(counts)


def _cdc_reference(doc_id: int, text: str, mod: int = 16):
    toks = text.split()
    rows, start, cidx = [], 0, 0
    for i, t in enumerate(toks):
        h = int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "big")
        if h % mod == 0:
            rows.append(
                (
                    doc_id,
                    cidx,
                    i + 1 - start,
                    hashlib.md5(" ".join(toks[start : i + 1]).encode()).hexdigest(),
                )
            )
            start, cidx = i + 1, cidx + 1
    if start < len(toks):
        rows.append(
            (
                doc_id,
                cidx,
                len(toks) - start,
                hashlib.md5(" ".join(toks[start:]).encode()).hexdigest(),
            )
        )
    return rows


def test_cdc_chunks_matches_sequential_reference(ray_session):
    from webarchive_discovery_ray.pipelines.textops import cdc_chunks

    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    want = []
    for did, text in zip(docs["doc_id"], docs["text"]):
        want.extend(_cdc_reference(int(did), text))
    want_df = pd.DataFrame(
        want, columns=["doc_id", "chunk_idx", "n_tokens", "chunk_hash"]
    ).sort_values(["doc_id", "chunk_idx"], ignore_index=True)
    got = (
        cdc_chunks(SF)
        .to_pandas()
        .sort_values(["doc_id", "chunk_idx"], ignore_index=True)
    )
    pd.testing.assert_frame_equal(got, want_df)
    # chunks partition each doc's tokens
    lens = got.groupby("doc_id")["n_tokens"].sum()
    toks = docs.set_index("doc_id")["text"].str.split().str.len()
    assert (lens == toks[toks > 0].astype("int64")).all()


def test_cdc_chunks_realign_after_prefix_insertion(ray_session, tmp_path):
    """The CDC property fixed-size chunking lacks: inserting a prefix
    only changes chunks up to the first boundary — everything after
    realigns to identical chunk hashes."""
    from webarchive_discovery_ray.pipelines.textops import cdc_chunks

    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    # the longest fixture doc gives several chunks; pad with itself so
    # there are interior boundaries even if mod-16 tokens are sparse
    base = " ".join([docs.loc[docs["text"].str.len().idxmax(), "text"]] * 4)
    edited = "INSERTED tokens at the front " + base
    tbl = pa.table({"doc_id": [1, 2], "text": [base, edited]})
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    got = cdc_chunks(str(tmp_path)).to_pandas()
    h1 = list(got.loc[got["doc_id"] == 1, "chunk_hash"])
    h2 = set(got.loc[got["doc_id"] == 2, "chunk_hash"])
    # all original chunks except (at most) the first survive the edit
    assert all(h in h2 for h in h1[1:])
    assert len(h1) > 2, "fixture doc must produce several chunks"


def test_bm25_matches_sequential_reference(ray_session):
    from webarchive_discovery_ray.pipelines.textops import (
        BM25_TERMS,
        bm25_topk,
    )

    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    toks = docs["text"].str.split()
    dl = toks.str.len().to_numpy().astype(float)
    n_docs = len(docs)
    avgdl = dl.sum() / n_docs
    score = np.zeros(n_docs)
    for t in BM25_TERMS:
        tf = np.array([lst.count(t) for lst in toks], dtype=float)
        df = float((tf > 0).sum())
        idf = np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
        score += idf * tf * 2.2 / (tf + 1.2 * (0.25 + 0.75 * dl / avgdl))
    score_r = np.round(score, 6)
    order = sorted(
        [(s, int(d)) for s, d in zip(score_r, docs["doc_id"]) if s > 0],
        key=lambda p: (-p[0], p[1]),
    )[:10]
    got = bm25_topk(SF).to_pandas().sort_values("rank", ignore_index=True)
    assert list(got["doc_id"]) == [d for _, d in order]
    assert list(got["score_r"]) == pytest.approx([s for s, _ in order], abs=0)
    assert list(got["rank"]) == list(range(1, len(order) + 1))


def test_host_pagerank_matches_power_iteration(ray_session):
    """Distributed 2-shuffle-per-iteration PageRank == sequential numpy
    power iteration on the same edge list (round 8)."""
    from collections import defaultdict

    from webarchive_discovery_ray.pipelines.stats import (
        _docs_ds,
        host_link_graph,
        host_pagerank,
    )

    base = _docs_ds(120).materialize()
    edges = host_link_graph(docs=base).to_pandas()
    deg = edges.groupby("src_host")["n_links"].sum().to_dict()
    nodes = sorted(set(edges["src_host"]) | set(edges["dst_host"]))
    idx = {h: i for i, h in enumerate(nodes)}
    n = len(nodes)
    rank = np.full(n, 1.0 / n)
    ins = defaultdict(list)
    for s, d, w in zip(edges["src_host"], edges["dst_host"], edges["n_links"]):
        ins[idx[d]].append((idx[s], w / deg[s]))
    for _ in range(5):
        new = np.full(n, 0.15 / n)
        for d_i, srcs in ins.items():
            new[d_i] += sum(0.85 * rank[s_i] * f for s_i, f in srcs)
        rank = new
    want = {h: round(float(rank[idx[h]]), 8) for h in nodes}
    got = host_pagerank(docs=base).to_pandas()
    got_map = dict(zip(got["host"], got["rank_r"]))
    assert set(got_map) == set(want)
    for h in nodes:
        assert abs(got_map[h] - want[h]) < 2e-8, (h, got_map[h], want[h])
    # ranks are a (sub-stochastic) distribution: positive, sum <= 1
    assert all(v > 0 for v in got_map.values())
    assert sum(got_map.values()) <= 1.0 + 1e-9


def test_hll_distinct_within_error_and_deterministic(ray_session):
    from webarchive_discovery_ray.pipelines.sketches import hll_distinct_tokens

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["text"]).to_pandas()
    exact = docs["text"].str.split().explode().dropna().nunique()
    a = hll_distinct_tokens(SF)
    b = hll_distinct_tokens(SF)
    est = int(a["n_distinct_est"].iloc[0])
    assert est == int(b["n_distinct_est"].iloc[0]), "must be deterministic"
    assert abs(est - exact) / exact < 0.05, (est, exact)


def test_hll_register_merge_equals_single_pass():
    """Elementwise max of per-part registers == registers of the union
    (the mergeability the distributed fold relies on)."""
    from webarchive_discovery_ray.pipelines.sketches import hll_registers

    rng = np.random.default_rng(3)
    a = rng.integers(0, 2**63, size=4000).astype(np.uint64)
    b = rng.integers(0, 2**63, size=4000).astype(np.uint64)
    merged = np.maximum(hll_registers(a), hll_registers(b))
    assert (merged == hll_registers(np.concatenate([a, b]))).all()


def test_global_shuffle_deterministic_permutation(ray_session):
    from webarchive_discovery_ray.pipelines.sessions import global_shuffle

    a = global_shuffle(SF).to_pandas().sort_values("doc_id", ignore_index=True)
    b = global_shuffle(SF).to_pandas().sort_values("doc_id", ignore_index=True)
    assert a.equals(b), "same salt must be bit-stable"
    n = len(a)
    assert sorted(a["shuffle_rank"]) == list(range(n)), "exact permutation"
    # sequential md5-rank reference
    order = sorted(
        a["doc_id"], key=lambda d: (hashlib.md5(f"epoch0:{d}".encode()).hexdigest(), d)
    )
    want = {d: i for i, d in enumerate(order)}
    assert all(want[d] == r for d, r in zip(a["doc_id"], a["shuffle_rank"]))
    # a different salt is a different permutation
    c = global_shuffle(SF, salt="epoch1").to_pandas()
    assert set(c["shuffle_rank"]) == set(range(n))
    cm = dict(zip(c["doc_id"], c["shuffle_rank"]))
    assert any(cm[d] != want[d] for d in a["doc_id"])


def test_recrawl_schedule_exact_and_monotone(ray_session):
    """Exact-integer scheduling math vs a sequential reference, plus the
    semantics: more content change => shorter revisit interval."""
    import calendar
    import time as _time

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.cdx import recrawl_schedule

    rows = []
    # u-static: 5 captures, 1 version; u-hot: 5 captures, 5 versions
    for name, versions in (("com,static)/", 1), ("com,hot)/", 5)):
        for i in range(5):
            rows.append(
                {
                    "surt_key": name,
                    "timestamp14": f"2020010{i+1}000000",
                    "digest": f"d{i % versions}",
                }
            )
    rows.append({"surt_key": "com,once)/", "timestamp14": "20200101000000", "digest": "x"})
    caps = rd.from_items(rows)
    got = recrawl_schedule(caps).to_pandas().set_index("surt_key")

    def epoch(ts):
        return calendar.timegm(_time.strptime(ts, "%Y%m%d%H%M%S"))

    span = epoch("20200105000000") - epoch("20200101000000")
    # static: cr_m=0 -> 1.5x mean interval
    assert got.loc["com,static)/", "mean_interval_s"] == span // 4
    assert got.loc["com,static)/", "next_fetch_s"] == span * 1500 // 4000
    assert got.loc["com,static)/", "change_rate"] == 0.0
    # hot: cr_m=1000 -> 0.5x mean interval
    assert got.loc["com,hot)/", "change_rate"] == 1.0
    assert got.loc["com,hot)/", "next_fetch_s"] == span * 500 // 4000
    assert (
        got.loc["com,hot)/", "next_fetch_s"]
        < got.loc["com,static)/", "next_fetch_s"]
    )
    # single capture: 30-day default
    assert got.loc["com,once)/", "next_fetch_s"] == 2_592_000
    assert got.loc["com,once)/", "mean_interval_s"] == 0


def test_simhash_neardup_pairs_pigeonhole_complete(ray_session):
    """Banding must find EVERY pair within Hamming 3 (pigeonhole over
    4x16-bit bands) — verified against the brute-force all-pairs set."""
    import itertools

    from webarchive_discovery_ray.pipelines.dedup import (
        simhash_batch,
        simhash_neardup_pairs,
        _popcount64,
    )

    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    sigs = {
        int(d): int(h, 16)
        for d, h in zip(docs["doc_id"], simhash_batch(list(docs["text"])))
    }
    want = {}
    for a, b in itertools.combinations(sorted(sigs), 2):
        ham = int(
            _popcount64(np.array([sigs[a] ^ sigs[b]], dtype=np.uint64))[0]
        )
        if ham <= 3:
            want[(a, b)] = ham
    got_df = simhash_neardup_pairs(SF).to_pandas()
    got = {
        (int(r.doc_a), int(r.doc_b)): int(r.hamming)
        for r in got_df.itertuples()
    }
    assert got == want
    assert want, "fixture must contain Hamming-close pairs"


def test_span_stats_counts_match_nested_rows(ray_session):
    """Span stats from the vectorized pyarrow pass == a per-row Python
    reference over the same nested docs."""
    import ray.data as rd

    from webarchive_discovery_ray.config import IndexConfig, SyntheticConfig
    from webarchive_discovery_ray.pipelines.stats import span_stats
    from webarchive_discovery_ray.sources.synthetic import fixture_pages_ds
    from webarchive_discovery_ray.stages.extract import extract_batch

    docs = fixture_pages_ds(150, SyntheticConfig(), 8).map_batches(
        lambda b: extract_batch(b, IndexConfig()), batch_format="pyarrow"
    ).materialize()
    got = span_stats(docs).to_pandas()
    rows = docs.select_columns(["doc_id", "spans"]).take_all()
    assert len(rows) == len(got)
    # doc_ids can repeat (revisits) — compare row MULTISETS
    want = []
    saw_media = False
    for r in rows:
        spans = r["spans"] or []
        n_text = sum(1 for s in spans if s["kind"] == "text")
        n_media = sum(1 for s in spans if s["kind"] == "media")
        want.append(
            (
                r["doc_id"],
                len(spans),
                n_text,
                n_media,
                sum(1 for s in spans if (s["media_ref"] or "") != ""),
                sum(len(s["text"] or "") for s in spans if s["kind"] == "text"),
                n_media / len(spans) if spans else 0.0,
            )
        )
        saw_media = saw_media or n_media > 0
    got_rows = [
        (
            r.doc_id,
            int(r.n_spans),
            int(r.n_text),
            int(r.n_media),
            int(r.n_media_refs),
            int(r.text_chars),
            float(r.media_fraction),
        )
        for r in got.itertuples()
    ]
    assert sorted(got_rows) == sorted(want)
    assert saw_media, "fixture must contain interleaved media spans"


def test_media_context_nearest_text_rule(ray_session):
    """media_context == the per-row sequential nearest-text rule over
    both a hand-authored edge-case table (media-first, media-last,
    consecutive media, media-only doc, no-media doc, cross-doc
    isolation) and the extraction-chain fixture."""
    import pyarrow as pa
    import ray.data as rd

    from webarchive_discovery_ray.config import IndexConfig, SyntheticConfig
    from webarchive_discovery_ray.pipelines.stats import media_context
    from webarchive_discovery_ray.sources.synthetic import fixture_pages_ds
    from webarchive_discovery_ray.stages.extract import extract_batch

    def mk(kind, text=None, ref="", off=0):
        return {"kind": kind, "text": text, "media_ref": ref, "offset": off}

    hand = [
        ("d0", [mk("media", ref="m0"), mk("text", "a"), mk("media", ref="m1"),
                mk("media", ref="m2"), mk("text", "b"), mk("media", ref="m3")]),
        ("d1", [mk("media", ref="only")]),
        ("d2", [mk("text", "t1"), mk("text", "t2")]),
        ("d3", [mk("text", "zz"), mk("media", ref="m4")]),
    ]
    span_t = pa.struct(
        [("kind", pa.string()), ("text", pa.string()),
         ("media_ref", pa.string()), ("offset", pa.int32())]
    )
    tbl = pa.table(
        {
            "doc_id": pa.array([d for d, _ in hand]),
            "spans": pa.array([s for _, s in hand], pa.list_(span_t)),
        }
    )

    def reference(rows):
        out = []
        for r in rows:
            spans = r["spans"] or []
            for i, s in enumerate(spans):
                if s["kind"] != "media":
                    continue
                prev = next(
                    (spans[j]["text"] or "" for j in range(i - 1, -1, -1)
                     if spans[j]["kind"] == "text"), "")
                nxt = next(
                    (spans[j]["text"] or "" for j in range(i + 1, len(spans))
                     if spans[j]["kind"] == "text"), "")
                out.append((r["doc_id"], i + 1, s["media_ref"] or "",
                            int(s["offset"]), prev, nxt))
        return sorted(out)

    got = media_context(rd.from_arrow(tbl)).to_pandas()
    got_rows = sorted(
        (r.doc_id, int(r.span_idx), r.media_ref, int(r.offset),
         r.prev_text, r.next_text)
        for r in got.itertuples()
    )
    assert got_rows == reference([{"doc_id": d, "spans": s} for d, s in hand])
    # d0: first media has no prev; last media has no next; the two
    # consecutive media spans share identical contexts
    by_ref = {r[2]: r for r in got_rows}
    assert by_ref["m0"][4] == "" and by_ref["m0"][5] == "a"
    assert by_ref["m1"][4] == by_ref["m2"][4] == "a"
    assert by_ref["m1"][5] == by_ref["m2"][5] == "b"
    assert by_ref["m3"][4] == "b" and by_ref["m3"][5] == ""
    assert by_ref["only"][4] == "" and by_ref["only"][5] == ""
    assert by_ref["m4"][4] == "zz" and by_ref["m4"][5] == ""

    # extraction-chain fixture (multi-block): same sequential rule
    docs = fixture_pages_ds(120, SyntheticConfig(), 8).map_batches(
        lambda b: extract_batch(b, IndexConfig()), batch_format="pyarrow"
    ).materialize()
    got2 = media_context(docs).to_pandas()
    rows = docs.select_columns(["doc_id", "spans"]).take_all()
    want2 = reference(rows)
    got2_rows = sorted(
        (r.doc_id, int(r.span_idx), r.media_ref, int(r.offset),
         r.prev_text, r.next_text)
        for r in got2.itertuples()
    )
    assert got2_rows == want2
    assert want2, "fixture must contain media spans"


def test_span_dedup_first_occurrence_rule(ray_session):
    """span_dedup keeps exactly the first (doc_id, span_idx) occurrence
    of each distinct text-span text; media spans never appear."""
    import hashlib

    import pyarrow as pa
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import span_dedup

    def mk(kind, text=None, ref=""):
        return {"kind": kind, "text": text, "media_ref": ref, "offset": 0}

    hand = [
        ("a", [mk("text", "dup"), mk("media", ref="m"), mk("text", "dup"),
               mk("text", "uniq1")]),
        ("b", [mk("text", "dup"), mk("text", "uniq2")]),
    ]
    span_t = pa.struct(
        [("kind", pa.string()), ("text", pa.string()),
         ("media_ref", pa.string()), ("offset", pa.int32())]
    )
    tbl = pa.table(
        {
            "doc_id": pa.array([d for d, _ in hand]),
            "spans": pa.array([s for _, s in hand], pa.list_(span_t)),
        }
    )
    got = span_dedup(rd.from_arrow(tbl)).to_pandas()
    key = {(r.doc_id, int(r.span_idx)): bool(r.keep) for r in got.itertuples()}
    # text spans only: ("a",2) is media and absent
    assert ("a", 2) not in key
    assert key == {
        ("a", 1): True,   # first "dup"
        ("a", 3): False,  # same-doc repeat
        ("a", 4): True,   # uniq1
        ("b", 1): False,  # cross-doc repeat
        ("b", 2): True,   # uniq2
    }
    h = hashlib.md5(b"dup").hexdigest()
    assert set(got.loc[got["h"] == h, "keep"]) == {True, False}


# --- KLL quantile sketch ------------------------------------------------------

def test_kll_rank_error_bound_and_determinism(ray_session):
    """Every pipeline estimate sits within 1.5% RANK error of the exact
    distribution, and repeated runs are byte-identical (deterministic
    compaction coins)."""
    import numpy as np
    import pandas as pd

    from webarchive_discovery_ray.pipelines.sketches import kll_quantiles
    from webarchive_discovery_ray.sources.io import read_table

    sf = "/root/testdata/sf0.001"
    got = kll_quantiles(sf)
    vals = np.sort(read_table(sf, "events").to_pandas()["value"].to_numpy())
    for q, est in zip(got["q"], got["value"]):
        rank = np.searchsorted(vals, est, side="right") / len(vals)
        assert abs(rank - q / 100.0) <= 0.015, (q, est, rank)
    pd.testing.assert_frame_equal(got, kll_quantiles(sf))


def test_kll_total_weight_exact_and_mergeable():
    """Total weight is exactly n at all times (the odd-item rule), and a
    levelwise merge of two half-stream sketches keeps the rank bound."""
    import numpy as np

    from webarchive_discovery_ray.pipelines.sketches import KLLSketch

    rng = np.random.RandomState(42)
    data = rng.standard_exponential(30000) * 100
    a, b = KLLSketch(256), KLLSketch(256)
    for i in range(0, 15000, 500):
        a.add_many(data[i : i + 500])
    for i in range(15000, 30000, 500):
        b.add_many(data[i : i + 500])
    assert a.total_weight() == 15000 and b.total_weight() == 15000
    merged = a.merge(b)
    assert merged.n == 30000 and merged.total_weight() == 30000
    srt = np.sort(data)
    for q, est in zip((1, 25, 50, 75, 99), merged.quantiles((1, 25, 50, 75, 99))):
        rank = np.searchsorted(srt, est, side="right") / len(srt)
        assert abs(rank - q / 100.0) <= 0.02, (q, rank)
    # fixed-size invariant: stored items stay O(k), far below n
    assert sum(len(buf) for buf in merged.levels) < 4 * 256


def test_hll_users_per_event_type_error_and_determinism(ray_session):
    """Each per-group estimate lands within 5% of the exact distinct
    count, groups are complete, and runs are identical."""
    import pandas as pd

    from webarchive_discovery_ray.pipelines.sketches import (
        hll_users_per_event_type,
    )
    from webarchive_discovery_ray.sources.io import read_table

    sf = "/root/testdata/sf0.01"
    got = hll_users_per_event_type(sf)
    ev = read_table(sf, "events").to_pandas()
    exact = ev.groupby("event_type")["user_id"].nunique()
    assert set(got["event_type"]) == set(exact.index)
    for etype, est in zip(got["event_type"], got["n_users_est"]):
        true = exact[etype]
        assert abs(est - true) / true <= 0.05, (etype, est, true)
    pd.testing.assert_frame_equal(got, hll_users_per_event_type(sf))


def test_kll_empty_sketch_returns_nan():
    import math

    from webarchive_discovery_ray.pipelines.sketches import KLLSketch

    sk = KLLSketch(64)
    assert sk.n == 0 and sk.total_weight() == 0
    assert all(math.isnan(v) for v in sk.quantiles((1, 50, 99)))


def test_media_dedup_first_occurrence_rule(ray_session):
    """media_dedup keeps the first (doc_id, span_idx) occurrence of each
    media_ref among image/media spans; link and text spans never appear."""
    import pyarrow as pa
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import media_dedup

    def mk(kind, text=None, ref=""):
        return {"kind": kind, "text": text, "media_ref": ref, "offset": 0}

    hand = [
        ("a", [mk("image", ref="logo"), mk("link", ref="logo"),
               mk("media", ref="clip"), mk("image", ref="logo")]),
        ("b", [mk("text", "t"), mk("image", ref="logo"), mk("media", ref="")]),
    ]
    span_t = pa.struct(
        [("kind", pa.string()), ("text", pa.string()),
         ("media_ref", pa.string()), ("offset", pa.int32())]
    )
    tbl = pa.table(
        {
            "doc_id": pa.array([d for d, _ in hand]),
            "spans": pa.array([s for _, s in hand], pa.list_(span_t)),
        }
    )
    got = media_dedup(rd.from_arrow(tbl)).to_pandas()
    key = {(r.doc_id, int(r.span_idx)): bool(r.keep) for r in got.itertuples()}
    # link span ("a",2), text span ("b",1) and empty-ref ("b",3) excluded
    assert key == {
        ("a", 1): True,   # first "logo"
        ("a", 3): True,   # "clip"
        ("a", 4): False,  # same-doc repeat of "logo"
        ("b", 2): False,  # cross-doc repeat of "logo"
    }


def test_countmin_guarantees_and_merge(ray_session):
    """CM guarantees: est >= exact always; est <= exact + (e/w)*N (the
    Cormode-Muthukrishnan bound holds per-row, so the min over d rows
    satisfies it deterministically for the pinned hash rows); and the
    distributed fold equals a single sequential pass."""
    import numpy as np
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.sketches import (
        _CM_D,
        _CM_W,
        cm_positions,
        countmin_event_counts,
    )

    SF = "/root/testdata/sf0.001"
    got = countmin_event_counts(SF)
    assert (got["cm_est"] >= got["exact_n"]).all()
    ids = (
        pq.read_table(f"{SF}/events.parquet", columns=["user_id"])["user_id"]
        .to_numpy()
        .astype(np.int64)
    )
    n_stream = len(ids)
    # overestimate bound: for any single row, est_row - exact <= sum of
    # colliding keys <= N; the standard w-column bound
    assert (
        got["cm_est"] - got["exact_n"] <= np.ceil(np.e / _CM_W * n_stream)
    ).all()
    # sequential single-pass recompute == distributed fold
    cm = np.zeros((_CM_D, _CM_W), dtype=np.int64)
    pos = cm_positions(ids.astype(np.uint64))
    for d in range(_CM_D):
        np.add.at(cm[d], pos[d], 1)
    probe = got["user_id"].to_numpy().astype(np.uint64)
    ppos = cm_positions(probe)
    est = cm[np.arange(_CM_D)[:, None], ppos].min(axis=0)
    assert (got["cm_est"].to_numpy() == est).all()
    # exact_n really is exact
    exact = (ids[None, :] == got["user_id"].to_numpy()[:, None]).sum(axis=1)
    assert (got["exact_n"].to_numpy() == exact).all()


def test_kmv_source_similarity_exact_when_k_covers_union(ray_session, tmp_path):
    """With k >= |union| the KMV estimate IS the exact Jaccard: identical
    sources -> 1_000_000 ppm, disjoint -> 0, half-overlap -> exact ratio."""
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.sketches import kmv_source_similarity

    docs = pa.table(
        {
            "doc_id": pa.array(range(4), pa.int64()),
            "text": pa.array(
                [
                    "a b c d",      # s0
                    "a b c d",      # s1 identical to s0
                    "x y z w",      # s2 disjoint from s0/s1
                    "a b x y",      # s3: J(s3,s0)=2/6, J(s3,s2)=2/6
                ]
            ),
            "source": pa.array(["s0", "s1", "s2", "s3"]),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = kmv_source_similarity(str(tmp_path), k=64)
    got = got.set_index(["source_a", "source_b"])
    assert got.loc[("s0", "s1"), "kmv_jaccard_ppm"] == 1_000_000
    assert got.loc[("s0", "s2"), "kmv_jaccard_ppm"] == 0
    assert got.loc[("s0", "s3"), "kmv_jaccard_ppm"] == (2 * 1_000_000) // 6
    assert got.loc[("s2", "s3"), "kmv_jaccard_ppm"] == (2 * 1_000_000) // 6
    assert (got["n_union"] > 0).all()
    # sketch bound respected even at tiny k: n_common <= n_union <= k
    small = kmv_source_similarity(str(tmp_path), k=3)
    assert (small["n_union"] <= 3).all()
    assert (small["n_common"] <= small["n_union"]).all()
