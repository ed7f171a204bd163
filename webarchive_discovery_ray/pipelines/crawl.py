"""Ray-Data-native crawl frontier + fetch scheduler (the north-rule core).

Iterative wave loop (SURVEY.md §7.0 crawl plane). The frontier lives in
the OBJECT STORE between waves as host-hash-partitioned Arrow blocks; the
driver handles only refs, counts and robots bookkeeping — no candidate
URL ever crosses the driver unless it wins discovery.

Per wave:

1. **assemble** — per partition, the block's fetch task concatenates
   its pieces itself: the previous wave's carry (still in the object
   store; the seed or resume frontier is wave 0's carry), the freshly
   injected robots, sitemap and retry rows (host-hash-routed by the
   driver) and the previous wave's discovery winners of the block's
   hosts, which the task numbers itself (step 5);
2. **politeness drain** — vectorized per-block drain (blocks are complete
   host groups by construction): order (host, priority, seq, surt),
   robots-Disallow drop, then each row's rank in its host's queue (its
   slot) against the per-host budget, all on the block's Arrow columns;
   the drained block is split in Arrow into the rows fetched
   this wave and the block's carry, which goes back to the object store
   as its own table;
3. **fetch + extract + routing** — ONE plain Ray task per block fuses
   assembly, the drain, deterministic page generation (stands in for
   HTTP fetch) and the full extraction chain; candidate outlinks are
   filtered + SURT-keyed, flattened to one row per (parent fetch, link),
   and sorted by seen shard, and so are the block's duplicate-content
   gate rows; the task returns a small meta (row counts, per-shard slice
   offsets, the block's policy observations), the fetched rows, the
   candidate and gate tables and the carry; when a document sink is
   attached, docs are written straight to per-(wave, partition) parquet
   fragments (atomic publish, resumable layout);
4. **content gate** (``dedup_content`` only) — the driver waits for the
   metas only, then makes ONE call per seen shard with every block's
   gate table BY REFERENCE; each shard takes its zero-copy slice,
   resolves first-wins in the pinned (host, slot) order and returns its
   losers. Tasks never call actors (a task-side RPC couples fetch slots
   to actor channel health and one delayed message stalls the wave), and
   candidate bytes never touch the driver;
5. **discovery barrier** — ONE call per seen shard with every block's
   candidate table by reference and the gate's loser tables: the shard
   takes its slice, drops the candidates of loser parents, sorts the rest
   by the pinned order key (parent host, parent slot, link rank) and
   keeps first-unseen SURTs (one batch of set probes and adds; past the
   spill threshold, filter-gated probes of the shard's parquet runs),
   then stably groups its winners by the frontier block of their host.
   The driver blocks only on per-shard smalls (counts, hosts, block
   offsets). The winner tables stay in the object store: the next
   wave's fetch task for block ``p`` takes block ``p``'s slice of each
   shard's table, merges them in the pinned order and numbers them from
   the crawl's running count (``seq``). ``seq`` only orders rows of one
   host (the drain sorts by host first), and a host's rows all sit in
   one block, so this block-local count orders every host's queue as a
   count over the whole wave would. The per-wave fetch-log
   concat/sort/build and the WARC writers run fully OFF the critical
   path (wave counts and policy observations come from the fetch metas;
   one durability barrier at crawl end joins the streamed log writes).

So a content-gated wave makes two actor calls per shard, and a wave
without the gate one.

The cross-wave per-host policy state (robots, 5xx backoff, quota,
adaptive delay, 5xx retries) is one :class:`PolicyState`: one broadcast
per wave, one fold on the driver, one ``robots.json`` in the checkpoint.

Crawl ordering and the final seen set are byte-identical to
``oracle/crawl_oracle.py`` under the same seed list + politeness budget
(pinned rules documented there). Checkpoint/resume at wave granularity
with per-wave lineage + metrics (``state/checkpoint.py``).

Scale notes: hot-host skew is bounded by the politeness budget itself (a
host fetches at most K URLs per wave no matter how many are queued, and
only those K rows enter the per-row fetch loop) and carryover stays in
the object store; a hot host's block is never split (BASELINE.md has the
measurement behind that). The driver's per-wave work is O(winners +
fetched), independent of frontier size.
"""

from __future__ import annotations

import os
import shutil
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import CrawlConfig, IndexConfig, SyntheticConfig
from ..functions.hashing import stable_hash64
from ..functions.normalisation import canonicalise_url
from ..functions.suffix import MALFORMED_HOST, extract_host
from ..functions.surt import surt_key
from ..functions.urls import url_path
from ..oracle.crawl_oracle import candidate_ok, crawl_index_config
from ..schema import DOCUMENTS_SCHEMA
from ..state.checkpoint import (
    FETCHLOG_SCHEMA,
    FRONTIER_SCHEMA,
    latest_complete_wave,
    load_wave_checkpoint,
    write_wave_checkpoint,
)
from ..state.robots import (
    adaptive_budget_cap,
    effective_budget,
    fetch_duration_ms,
    is_disallowed,
    nofollow_scan,
    parse_robots,
    is_sitemap_index,
    parse_sitemap_locs,
    robots_url_for_host,
    sitemap_urls_of,
)
from ..state.seen import (
    _SHARD_SEED,
    PINNED_ORDER,
    SeenShardPool,
    block_of_hosts,
    routed,
)
from ..stages.extract import BatchMemo, extract_record

__all__ = ["FetchExtractStage", "run_crawl", "CrawlResult", "DOCS_OUT_SCHEMA"]

# frontier blocks carry a stable partition id so carryover can be routed
# back to its host partition without inspecting rows
PART_SCHEMA = pa.schema(list(FRONTIER_SCHEMA) + [pa.field("part", pa.int32())])

# scheduler-facing output of the fetch stage, one row per fetch;
# candidate outlinks ride as list columns until the fetch task flattens +
# shard-routes them
OUT_SCHEMA = pa.schema(
    list(PART_SCHEMA)
    + [
        pa.field("slot", pa.int32()),
        pa.field("fetch_host", pa.string()),
        pa.field("fetch_status", pa.int32()),
        pa.field("is_robots", pa.bool_()),
        pa.field("robots_rules", pa.list_(pa.string())),
        pa.field("cand_urls", pa.list_(pa.string())),
        pa.field("cand_surts", pa.list_(pa.string())),
        pa.field("cand_hosts", pa.list_(pa.string())),
        # enqueue priority for THIS row's candidates: -1 when the row is
        # a fetched <sitemapindex> (children are sitemaps and recurse),
        # else max(parent priority, 0) — the pinned discovery rule
        pa.field("cand_pri", pa.int32()),
        # extraction payload hash of status-200 responses ("" otherwise):
        # the duplicate-content gate key (ccfg.dedup_content)
        pa.field("content_hash", pa.string()),
        # modeled fetch duration (state/robots.fetch_duration_ms): the
        # adaptive-politeness input, folded per host in the fetch meta
        pa.field("fetch_ms", pa.int32()),
        # WARC-sink carriers (populated only when ccfg.warc_dir is set —
        # empty strings / b"" otherwise, so the schema stays stable and
        # non-WARC crawls ship four constant columns): the raw capture
        # fields the per-block writer task serialises into response /
        # revisit members. Payload bytes move fetcher -> writer through
        # the object store exactly once (zero-copy Arrow binary).
        pa.field("w_ts14", pa.string()),
        pa.field("w_mime", pa.string()),
        pa.field("w_loc", pa.string()),
        pa.field("w_payload", pa.binary()),
    ]
)

# flattened candidate rows (built by the fetch task, sorted by seen shard
# and routed by ref to the shards)
CAND_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("surt", pa.string()),
        ("host", pa.string()),
        ("priority", pa.int32()),
        ("hop", pa.int32()),
        ("order_host", pa.string()),
        ("order_slot", pa.int32()),
        ("order_rank", pa.int32()),
    ]
)

# document-sink rows (per-wave, per-partition parquet fragments)
DOCS_OUT_SCHEMA = pa.schema(
    list(DOCUMENTS_SCHEMA)
    + [
        pa.field("wave", pa.int32()),
        pa.field("fetch_host", pa.string()),
        pa.field("slot", pa.int32()),
        pa.field("hop", pa.int32()),
        pa.field("priority", pa.int32()),
        # the fetched row's frontier seq: orders rows of one host only
        # (state/checkpoint.FRONTIER_SCHEMA)
        pa.field("seq", pa.int64()),
        pa.field("fetch_status", pa.int32()),
        pa.field("is_robots", pa.bool_()),
    ]
)


class FetchExtractStage:
    """Fetch + extract, one task per frontier block, over the block's
    drained rows that fetch this wave (the frontier columns + ``slot``).

    The page generator stands in for the HTTP fetch (FIXTURES.md §2); the
    extraction chain is the real one (``stages/extract.py``). Candidate
    outlinks are filtered + SURT/host-keyed here and emitted as LIST
    columns on the fetched rows — routing to the seen shards happens via
    driver-submitted by-reference actor calls (tasks never call actors:
    a task-side RPC couples every fetch slot to actor-channel health,
    and one delayed message stalls the wave on Ray's 30s seq_no timeout).
    Docs (when a sink is attached) are written as one parquet fragment
    per (wave, partition) — the resumable layout."""

    def __init__(
        self,
        scfg: SyntheticConfig,
        icfg: IndexConfig | None,
        wave: int,
        ccfg: CrawlConfig,
        docs_dir: str | None = None,
    ):
        self.scfg = scfg
        self.icfg = crawl_index_config(icfg)
        self.wave = wave
        self.ccfg = ccfg
        self.docs_dir = docs_dir
        self.warc = ccfg.warc_dir is not None

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: list[dict] = []
        docs: list[dict] | None = [] if self.docs_dir is not None else None
        part = int(batch["part"][0].as_py()) if batch.num_rows else -1
        # one memo per call: the page's link hosts are already in it
        # when its candidates are keyed below
        memo = BatchMemo()
        for r in batch.to_pylist():
            rec = page_for_url_cached(r["url"], self.scfg)
            doc = extract_record(rec, self.icfg, memo)
            assert doc is not None, f"crawl extraction must not filter {r['url']}"
            is_robots = r["url"].endswith("/robots.txt")
            cset = set(doc["links"])
            if (
                self.ccfg.respect_nofollow
                and cset
                and b"nofollow" in rec["payload"]
            ):
                # rel=nofollow / meta-robots gate (state/robots.
                # nofollow_scan); substring pre-gate keeps the extra
                # token scan off every default page
                meta_nf, nf_drop = nofollow_scan(
                    rec["payload"].decode("utf-8", "replace"),
                    r["url"],
                    self.icfg.normalise_links,
                )
                cset = set() if meta_nf else cset - nf_drop
            if doc["redirect_to_norm"]:
                cset.add(doc["redirect_to_norm"])
            cand_pri = max(r["priority"], 0)
            if r["priority"] == -1 and not is_robots and rec["status"] == 200:
                # injected sitemap fetch (the only non-robots -1 rows):
                # <loc> URLs join the candidates, canonicalised like links
                text = rec["payload"].decode("utf-8", "replace")
                cset.update(
                    canonicalise_url(x) for x in parse_sitemap_locs(text)
                )
                if is_sitemap_index(text):
                    # index file: its locs are CHILD SITEMAPS — they keep
                    # priority -1 (fetched + parsed as sitemaps in turn),
                    # riding the normal checkpointed frontier
                    cand_pri = -1
            cand_urls = [
                u
                for u in sorted(cset)
                if candidate_ok(u, r["hop"], self.ccfg, self.icfg.max_url_length)
            ]
            crawl_cols = {
                "url": doc["url"],
                "surt": doc["surt"],
                "host": r["host"],
                "priority": r["priority"],
                "hop": r["hop"],
                "seq": r["seq"],
                "part": r["part"],
                "slot": r["slot"],
                "fetch_host": r["host"],
                "fetch_status": rec["status"],
                "is_robots": is_robots,
                "robots_rules": (
                    parse_robots(rec["payload"].decode("utf-8", "replace"))
                    if is_robots and rec["status"] == 200
                    else []
                ),
                "cand_urls": cand_urls,
                "cand_surts": [surt_key(u) for u in cand_urls],
                "cand_hosts": [memo.host_of(u) for u in cand_urls],
                "cand_pri": cand_pri,
                "content_hash": doc["hash"] if rec["status"] == 200 else "",
                "fetch_ms": fetch_duration_ms(
                    rec["status"], len(rec["payload"] or b"")
                ),
                "w_ts14": rec["timestamp14"] if self.warc else "",
                "w_mime": (rec["mime_served"] or "") if self.warc else "",
                "w_loc": (rec["location"] or "") if self.warc else "",
                "w_payload": rec["payload"] if self.warc else b"",
            }
            out.append(crawl_cols)
            if docs is not None:
                doc.update(
                    wave=self.wave,
                    fetch_host=r["host"],
                    slot=r["slot"],
                    hop=r["hop"],
                    priority=r["priority"],
                    seq=r["seq"],
                    fetch_status=rec["status"],
                    is_robots=is_robots,
                )
                docs.append(doc)
        # --- document sink: one fragment per (wave, partition) ----------
        if docs:
            import uuid

            import pyarrow.parquet as pq

            d = os.path.join(self.docs_dir, f"wave_{self.wave:04d}")
            os.makedirs(d, exist_ok=True)
            # atomic publish: a retried/reconstructed task may write the
            # same fragment concurrently — tmp + os.replace guarantees the
            # final file is one writer's COMPLETE (deterministic) output,
            # never a torn interleaving
            final = os.path.join(d, f"part_{part:05d}.parquet")
            tmp = f"{final}.tmp-{uuid.uuid4().hex}"
            pq.write_table(pa.Table.from_pylist(docs, schema=DOCS_OUT_SCHEMA), tmp)
            os.replace(tmp, final)
        if not out:
            return OUT_SCHEMA.empty_table()
        return pa.Table.from_pylist(out, schema=OUT_SCHEMA)


def page_for_url_cached(url: str, scfg: SyntheticConfig) -> dict:
    """Synthetic fetch (module-level indirection keeps the stage picklable
    while letting tests monkeypatch the fetch)."""
    from ..sources.synthetic import page_for_url

    return page_for_url(url, scfg)


@dataclass
class PolicyState:
    """The crawl's cross-wave per-host policy state, in one object.

    Fields: robots (``scheduled`` hosts whose robots.txt was injected,
    parsed ``rules`` per host); the 5xx-``backoff`` hosts of the last
    wave; per-host ``host_fetched`` counts (max_pages_per_host quota);
    adaptive ``last_dur`` (each host's last fetch duration, ms); 5xx
    ``retry_attempts`` per surt and the ``retry_pending`` frontier rows
    re-injected next wave. An optional policy's dict is None while its
    knob is off (robots.json stores ``null``; see :meth:`configured`).

    Each wave the driver ``ray.put``s ONE :meth:`drain_view`, every
    drain asks it for :meth:`budgets`, every fetch task reports its
    block's :meth:`observe` in its meta, the driver applies
    :meth:`fold` to the wave's observations, and the checkpoint stores
    :meth:`to_checkpoint` as ``robots.json``. A new policy touches four
    places here — a field, ``observe``, ``fold`` and ``budgets`` (plus
    its key in ``to_checkpoint``/``from_checkpoint``) — then its knob in
    ``CrawlConfig`` and its rule in ``oracle/crawl_oracle.py``; the wave
    loop, the drain tasks and the checkpoint module stay as they are."""

    scheduled: set[str] = field(default_factory=set)
    rules: dict[str, list[str]] = field(default_factory=dict)
    backoff: set[str] = field(default_factory=set)
    host_fetched: dict[str, int] | None = None
    last_dur: dict[str, int] | None = None
    retry_attempts: dict[str, int] | None = None
    retry_pending: list[tuple] = field(default_factory=list)

    def configured(self, ccfg: CrawlConfig) -> "PolicyState":
        """This state with each optional policy's dict present exactly
        when ``ccfg`` turns the policy on."""

        def on(flag, d):
            return (d if d is not None else {}) if flag else None

        return replace(
            self,
            host_fetched=on(ccfg.max_pages_per_host is not None, self.host_fetched),
            last_dur=on(ccfg.adaptive_politeness, self.last_dur),
            retry_attempts=on(bool(ccfg.retry_5xx), self.retry_attempts),
        )

    def drain_view(self) -> "PolicyState":
        """The part the drains read — the wave's one policy broadcast."""
        return PolicyState(
            rules=self.rules, backoff=self.backoff,
            host_fetched=self.host_fetched, last_dur=self.last_dur,
        )

    def budgets(self, hosts: list[str], ccfg: CrawlConfig) -> np.ndarray:
        """The effective politeness budget of each of the distinct
        ``hosts``, in order. Pinned chain (mirrored in the oracle): the Crawl-delay rule
        (state/robots.effective_budget), the one-wave 5xx backoff halving
        ``max(1, eff // 2)``, the adaptive cap, then the
        max_pages_per_host quota — a value <= 0 marks the host RETIRED."""
        budget, quota = ccfg.politeness_budget, ccfg.max_pages_per_host
        backoff = self.backoff if ccfg.backoff_503 else ()
        last_dur = self.last_dur if ccfg.adaptive_politeness else None
        if not (self.rules or backoff or last_dur) and quota is None:
            return np.full(len(hosts), budget, dtype=np.int64)
        out = []
        for h in hosts:
            eff = effective_budget(budget, self.rules.get(h)) if self.rules else budget
            if h in backoff:
                eff = max(1, eff // 2)
            if last_dur and h in last_dur:
                eff = min(eff, adaptive_budget_cap(
                    last_dur[h], ccfg.adaptive_delay_factor_permil,
                    ccfg.adaptive_min_delay_ms, ccfg.adaptive_max_delay_ms,
                    ccfg.adaptive_wave_window_ms,
                ))
            if quota is not None:
                eff = min(eff, quota - (self.host_fetched or {}).get(h, 0))
            out.append(eff)
        return np.array(out, dtype=np.int64)

    @staticmethod
    def observe(fetched: pa.Table) -> dict:
        """One fetch block's policy observations, carried back in its
        fetch meta. Tiny: bounded by the block's hosts and 5xx rows.
        ``fetched`` is in drain order (host, slot), so a host's rows are
        one run and its last row is its highest slot."""
        hits = fetched.filter(
            pc.and_(fetched["is_robots"], pc.equal(fetched["fetch_status"], 200))
        )
        errs = fetched.filter(pc.greater_equal(fetched["fetch_status"], 500))
        hosts = fetched["fetch_host"].to_pylist()
        return {
            "robots": list(
                zip(hits["fetch_host"].to_pylist(), hits["robots_rules"].to_pylist())
            ),
            "backoff": sorted(set(errs["fetch_host"].to_pylist())),
            "host_counts": list(Counter(hosts).items()),
            "last_dur": list(dict(zip(hosts, fetched["fetch_ms"].to_pylist())).items()),
            # the failed rows' frontier identity, for retry_5xx
            "retry": list(zip(*(errs[c].to_pylist() for c in FRONTIER_SCHEMA.names))),
        }

    def fold(self, observations: list, ccfg: CrawlConfig) -> dict[str, list[str]]:
        """Fold one wave's block observations (in block order) into the
        state; effective from the next wave's drain. Returns the robots
        rules that arrived this wave."""
        obs = [o for o in observations if o is not None]
        new_rules = {h: list(r) for o in obs for h, r in o["robots"]}
        self.rules.update(new_rules)
        if ccfg.backoff_503:
            # one-wave state: REPLACED each wave (a clean wave recovers)
            self.backoff = {h for o in obs for h in o["backoff"]}
        for o in obs:
            if ccfg.max_pages_per_host is not None:
                # quota counters: cumulative (the oracle's post-drain
                # increment timing)
                for h, n in o["host_counts"]:
                    self.host_fetched[h] = self.host_fetched.get(h, 0) + int(n)
            if ccfg.retry_5xx:
                # re-inject next wave, up to retry_5xx extra attempts per
                # surt (order irrelevant: the drain re-sorts per host)
                for row in o["retry"]:
                    a = self.retry_attempts.get(row[1], 0)
                    if a < ccfg.retry_5xx:
                        self.retry_attempts[row[1]] = a + 1
                        self.retry_pending.append(tuple(row))
            if ccfg.adaptive_politeness:
                # this wave's value REPLACES the host's entry; hosts that
                # did not fetch keep theirs (a host lives in one block)
                for h, d in o["last_dur"]:
                    self.last_dur[h] = int(d)
        return new_rules

    def to_checkpoint(self) -> dict:
        """The ``robots.json`` body (key order and encoding pinned)."""
        return {
            "scheduled": sorted(self.scheduled),
            "rules": self.rules,
            "backoff": sorted(self.backoff),
            "host_fetched": self.host_fetched,
            "adaptive_last_dur": self.last_dur,
            "retry_attempts": self.retry_attempts,
            "retry_pending": (
                None if self.retry_attempts is None
                else [list(r) for r in self.retry_pending]
            ),
        }

    @classmethod
    def from_checkpoint(cls, body: dict) -> "PolicyState":
        """Inverse of :meth:`to_checkpoint`; keys a pre-backoff
        ``robots.json`` lacks come back empty."""
        return cls(
            scheduled=set(body["scheduled"]),
            rules={h: list(r) for h, r in body["rules"].items()},
            backoff=set(body.get("backoff", ())),
            host_fetched=body.get("host_fetched"),
            last_dur=body.get("adaptive_last_dur"),
            retry_attempts=body.get("retry_attempts"),
            retry_pending=[tuple(r) for r in body.get("retry_pending") or ()],
        )


def _policy_of(boxed) -> PolicyState:
    """Resolve the wave's boxed policy ref (``[ref]``: boxed so it
    deserializes once per worker via the broadcast cache, not per task)."""
    from ..functions.broadcast import get_broadcast

    return get_broadcast(boxed[0]) if boxed else PolicyState()


def _drain_order(tbl: pa.Table, ccfg: CrawlConfig, policy: PolicyState):
    """The politeness drain over complete host groups, on the block's
    Arrow columns: order each host's queue by (priority, seq, surt), drop
    robots-Disallowed rows (injected robots fetches at priority -1 are
    exempt; only rows of hosts WITH rules pay the per-row Python check)
    and, under a quota, every row of a retired host, then rank each row
    in its host's queue from the start of the host's run. Returns
    ``(rows, rank, selected)``: each drained row's position in ``tbl``,
    in drain order; its rank; and whether it is within its host's budget
    (fetched this wave) or carries over."""
    rows = pc.sort_indices(
        tbl, sort_keys=[(k, "ascending") for k in ("host", "priority", "seq", "surt")]
    ).to_numpy()
    enc = pc.dictionary_encode(tbl["host"].take(rows)).combine_chunks()
    hosts, codes = enc.dictionary.to_pylist(), enc.indices.to_numpy()
    budgets = policy.budgets(hosts, ccfg)
    keep = np.ones(len(rows), dtype=bool)
    ruled = [c for c, h in enumerate(hosts) if h in policy.rules]
    if ruled:
        at = np.flatnonzero(np.isin(codes, ruled))
        urls = tbl["url"].take(rows[at]).to_pylist()
        pris = tbl["priority"].take(rows[at]).to_numpy()
        keep[at] = [
            p == -1 or not is_disallowed(url_path(u), policy.rules[hosts[c]])
            for u, p, c in zip(urls, pris, codes[at])
        ]
    if ccfg.max_pages_per_host is not None:
        # retired hosts (no quota left) leave the frontier entirely
        keep &= budgets[codes] > 0
    if not keep.all():
        rows, codes = rows[keep], codes[keep]
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    rank = np.arange(len(rows)) - np.repeat(starts, np.diff(starts, append=len(rows)))
    return rows, rank, rank < budgets[codes]


def _partition_by_host(tbl: pa.Table, n_parts: int) -> list[pa.Table]:
    """Hash-partition rows by host into EXACTLY ``n_parts`` tables (all
    rows of a host land in one part, :func:`block_of_hosts` — the block
    the seen shards group a wave's winners by). The ``part`` column is
    (re)attached."""
    base = tbl.drop_columns(["part"]) if "part" in tbl.column_names else tbl
    base, bounds = routed(base, block_of_hosts(base["host"], n_parts), n_parts)
    return [
        base.slice(a, b - a).append_column(
            "part", pa.array(np.full(b - a, p, dtype=np.int32))
        )
        for p, (a, b) in enumerate(zip(bounds, bounds[1:]))
    ]


@dataclass
class CrawlResult:
    fetch_log: list[dict] = field(default_factory=list)
    seen_sorted: list[str] = field(default_factory=list)
    wave_stats: list[dict] = field(default_factory=list)
    docs_dir: str | None = None
    total_fetched: int = 0
    compaction: dict | None = None  # crawl-end fragment-compaction report


def _frontier_table(
    urls: list[str], surts: list[str], hosts: list[str],
    pris: list[int], hops: list[int], seqs: list[int],
) -> pa.Table:
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "surt": pa.array(surts, pa.string()),
            "host": pa.array(hosts, pa.string()),
            "priority": pa.array(pris, pa.int32()),
            "hop": pa.array(hops, pa.int32()),
            "seq": pa.array(seqs, pa.int64()),
        },
        schema=FRONTIER_SCHEMA,
    )


def _canon_chunk(pairs: list) -> tuple[list, list, list, list, list]:
    """(canonical URL, SURT key, host, priority, shard hash64) per
    ``(url, priority)`` pair of a seed or sitemap chunk, malformed hosts
    dropped (regex-heavy: runs as a remote task per chunk so a wide seed
    list doesn't serialize on the driver; robots URLs are constructed
    canonical and skip this)."""
    urls, keys, hosts, pris, hashes = [], [], [], [], []
    for url, pri in pairs:
        u = canonicalise_url(url)
        host = extract_host(u)
        if host == MALFORMED_HOST:
            continue
        k = surt_key(u)
        urls.append(u)
        keys.append(k)
        hosts.append(host)
        pris.append(pri)
        hashes.append(stable_hash64(k, _SHARD_SEED))
    return urls, keys, hosts, pris, hashes


def _robots_chunk(hosts: list) -> tuple[list, list, list, list]:
    """(robots URL, SURT key, host, shard hash64) per host chunk — the
    sha1 shard hashing rides in the chunked remote tasks so the driver's
    only per-host work is a vectorized modulo."""
    urls = [robots_url_for_host(h) for h in hosts]
    keys = [surt_key(u) for u in urls]
    return urls, keys, list(hosts), [stable_hash64(k, _SHARD_SEED) for k in keys]


_PAR_CHUNK = 4096  # below this, remote dispatch costs more than it saves


_REMOTE_FN_CACHE: dict = {}


def _chunked_remote(fn, items: list) -> tuple[list, ...]:
    """Run ``fn`` over chunks of ``items`` as Ray tasks; concatenate the
    per-chunk output lists in order (inline below the dispatch threshold).
    The remote wrapper is cached per function — ray.remote(fn) on every
    call would re-register/export the function each wave."""
    if len(items) <= _PAR_CHUNK:
        return fn(items)
    import ray

    rfn = _REMOTE_FN_CACHE.get(fn)
    if rfn is None:
        rfn = _REMOTE_FN_CACHE[fn] = ray.remote(fn)
    chunks = [items[i : i + _PAR_CHUNK] for i in range(0, len(items), _PAR_CHUNK)]
    outs = ray.get([rfn.remote(c) for c in chunks])
    return tuple([x for o in outs for x in col] for col in zip(*outs))


def _offer_new(pool: SeenShardPool, chunk_fn, items: list) -> list[list]:
    """Injection rows: ``chunk_fn`` (:func:`_canon_chunk` or
    :func:`_robots_chunk`) over ``items`` in chunked tasks, offered to the
    seen set by their shard hash (the chunk's last column); returns the
    other columns of the first-seen rows, in order."""
    *cols, hashes = _chunked_remote(chunk_fn, items)
    new = np.flatnonzero(np.asarray(pool.add_if_new_hashed(cols[1], hashes), dtype=bool))
    return [[col[i] for i in new] for col in cols]


def _seed_frontier(seeds, pool: SeenShardPool) -> tuple[pa.Table, int]:
    """Seeds in list order; first occurrence of a SURT wins (at a 10^10
    design point the seed list is itself a Dataset read — the dedupe is
    the same shard probe). Canonicalisation fans out as chunked tasks."""
    urls, keys, hosts, pris = _offer_new(pool, _canon_chunk, list(seeds))
    n = len(urls)
    return _frontier_table(urls, keys, hosts, pris, [0] * n, list(range(n))), n


# --- module-level remote tasks (registered/exported ONCE per Ray session;
# per-wave closures would re-pickle and re-export them every wave) --------
import ray as _ray

# the fetched rows' columns that the fetch-log build and the WARC writer
# read (the WARC carriers are constant when no warc_dir is set)
_PULL_COLS = [
    "url", "surt", "part", "slot", "fetch_host", "fetch_status",
    "w_ts14", "w_mime", "w_loc", "w_payload",
]


def _assemble(*pieces: pa.Table) -> pa.Table:
    """One partition's wave-input block, built inside the task that
    consumes it: the concatenation of its pieces (the driver's small
    injection rows for this part, the previous wave's numbered winners
    and its carry)."""
    tbls = [t for t in pieces if t.num_rows]
    if not tbls:
        return PART_SCHEMA.empty_table()
    return tbls[0] if len(tbls) == 1 else pa.concat_tables(tbls)


def _numbered(tables: list, spans: list, seq_base: int) -> pa.Table:
    """One frontier block's discovery winners as frontier rows: rows
    ``start:stop`` of each shard's winner table (``spans``, one per
    table), merged in the pinned order (parent host, parent slot, link
    rank — unique per candidate) and numbered ``seq_base, seq_base + 1,
    ...``. A host's rows all sit in one block, so within a host this is
    the order a count over the whole wave would give, and ``seq_base``
    (the crawl's running count) puts them after every earlier row."""
    slices = [t.slice(a, b - a) for t, (a, b) in zip(tables, spans) if b > a]
    if not slices:
        return PART_SCHEMA.empty_table()
    won = pa.concat_tables(slices)
    won = won.take(pc.sort_indices(won, sort_keys=PINNED_ORDER))
    seq = pa.array(np.arange(seq_base, seq_base + won.num_rows), pa.int64())
    return won.append_column("seq", seq).select(PART_SCHEMA.names).cast(PART_SCHEMA)


@_ray.remote(num_returns=5)
def _drain_fetch(
    policy_boxed,
    scfg: SyntheticConfig,
    icfg,
    wave: int,
    ccfg: CrawlConfig,
    docs_dir: str | None,
    seq_base: int,
    spans: list,
    injected: pa.Table,
    carry: pa.Table,
    *winners: pa.Table,
):
    """Assembly + politeness drain + fetch/extract + routing for ONE
    frontier block (the block holds complete host groups, so the drain's
    per-host queues are whole). The block is the driver's ``injected``
    rows (robots, sitemap and retry fetches), the previous wave's
    discovery winners — this block's ``spans`` of the shards' ``winners``
    tables, numbered from ``seq_base`` (:func:`_numbered`) — and the
    block's ``carry``. The drained block splits in Arrow: its selected
    rows (with their ``slot``) go to the fetch stage, the rest are the
    block's carry, in drain order.

    Returns ``(meta, fetched, cand, gate, carry)``: ``fetched`` is the
    fetched rows' ``_PULL_COLS``; ``cand`` the block's candidate rows and
    ``gate`` (``ccfg.dedup_content``, else None) its duplicate-content
    gate rows, each sorted by seen shard with the slice offsets in the
    meta (``shard_bounds``, ``gate_bounds``); ``carry`` has exactly
    PART_SCHEMA. The small ``meta`` also carries ``fetched_rows``,
    ``cand_rows``, ``carry_rows`` and the block's
    :meth:`PolicyState.observe` (None for an empty block)."""
    n_shards = ccfg.seen_shards
    tbl = _assemble(injected, _numbered(winners, spans, seq_base), carry)
    rows, ranks, sel = _drain_order(tbl, ccfg, _policy_of(policy_boxed))
    carry = tbl.take(rows[~sel]).cast(PART_SCHEMA)
    fetch = tbl.take(rows[sel]).append_column("slot", pa.array(ranks[sel], pa.int32()))
    block = FetchExtractStage(scfg, icfg, wave, ccfg, docs_dir=docs_dir)(fetch)
    cand, shard_bounds = _candidates(block, n_shards)
    gate, gate_bounds = (
        _gate_rows(block, n_shards) if ccfg.dedup_content else (None, None)
    )
    meta = {
        "fetched_rows": block.num_rows,
        "cand_rows": cand.num_rows,
        "shard_bounds": shard_bounds,
        "gate_bounds": gate_bounds,
        "carry_rows": carry.num_rows,
        # the driver folds these for the NEXT wave's drain
        "policy": PolicyState.observe(block) if block.num_rows else None,
    }
    return meta, block.select(_PULL_COLS), cand, gate, carry


def _routed(tbl: pa.Table, keys: str, n_shards: int) -> tuple[pa.Table, list[int]]:
    """``tbl`` routed (:func:`routed`) by the seen shard of its ``keys``
    column (:func:`shard_of`): shard ``s`` takes rows
    ``bounds[s]:bounds[s + 1]`` of the shared block, so routing is one
    partition done by the producer, not a scan of every block by every
    shard."""
    h = np.fromiter(
        (stable_hash64(k, _SHARD_SEED) for k in tbl[keys].to_pylist()),
        dtype=np.uint64, count=tbl.num_rows,
    )
    return routed(tbl, (h % np.uint64(n_shards)).astype(np.int64), n_shards)


def _candidates(block: pa.Table, n_shards: int) -> tuple[pa.Table, list[int]]:
    """The block's candidate rows, one per (fetched row, outlink),
    flattened from the fetch stage's list columns and routed by SURT.
    Each inherits its parent's ``(fetch_host, slot)`` as its
    ``(order_host, order_slot)``; ``order_rank`` is the link's index in
    the parent's sorted candidate list; ``hop`` is the parent's plus one."""
    cand_col = block["cand_urls"].combine_chunks()
    lengths = pc.list_value_length(cand_col).to_numpy().astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        return CAND_SCHEMA.empty_table(), [0] * (n_shards + 1)
    parents = pc.list_parent_indices(cand_col)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    cand = pa.table(
        {
            "url": pc.list_flatten(cand_col),
            "surt": pc.list_flatten(block["cand_surts"].combine_chunks()),
            "host": pc.list_flatten(block["cand_hosts"].combine_chunks()),
            # per-row enqueue priority from the fetch stage: -1 for
            # <sitemapindex> children (recurse as sitemaps), else
            # max(parent priority, 0) (pinned rule, mirrored in the oracle)
            "priority": pc.take(block["cand_pri"], parents),
            "hop": pc.add(pc.take(block["hop"], parents), 1),
            "order_host": pc.take(block["fetch_host"], parents),
            "order_slot": pc.take(block["slot"], parents),
            "order_rank": pa.array((np.arange(total) - starts).astype(np.int32)),
        }
    ).cast(CAND_SCHEMA)
    return _routed(cand, "surt", n_shards)


def _gate_rows(block: pa.Table, n_shards: int) -> tuple[pa.Table, list[int]]:
    """The block's duplicate-content gate rows: (key, host, slot) of every
    status-200 fetch, ``key`` its content hash, routed by that key."""
    f = block.filter(pc.equal(block["fetch_status"], 200))
    gate = pa.table(
        {"key": f["content_hash"], "host": f["fetch_host"], "slot": f["slot"]}
    )
    return _routed(gate, "key", n_shards)


@_ray.remote
def _write_warc_block(
    warc_dir: str, wave: int, tbl: pa.Table, *loser_tbls: pa.Table
) -> int:
    """Serialise ONE fetch block as ONE ``wave_{W}/part_{P}.warc.gz``
    fragment (multi-member gzip, one ISO-28500 record per fetch in the
    block's pinned drain order). Content-gate losers — (host,
    slot) pairs in ``loser_tbls``, status-200 by construction — become
    ``revisit`` members (identical-payload-digest, payload dropped);
    everything else a ``response`` member. Deterministic bytes (pinned
    order, urn:sha1 ids, gzip mtime=0) + tmp/os.replace publish: a
    retried or re-run task rewrites the identical file. Returns the
    member count; runs fully off the wave critical path (joined at the
    checkpoint barrier / crawl end)."""
    import uuid

    from ..functions.hashing import sha1_b32
    from ..sources.warc import build_response_member, build_revisit_member

    if tbl.num_rows == 0:
        return 0
    part = int(tbl["part"][0].as_py())
    losers: set[tuple[str, int]] = set()
    for lt in loser_tbls:
        if lt.num_rows:
            losers.update(zip(lt["host"].to_pylist(), lt["slot"].to_pylist()))
    members = []
    cols = ["url", "fetch_host", "slot", "fetch_status",
            "w_ts14", "w_mime", "w_loc", "w_payload"]
    for r in tbl.select(cols).to_pylist():
        payload = r["w_payload"] or b""
        if (r["fetch_host"], r["slot"]) in losers and r["fetch_status"] == 200:
            members.append(
                build_revisit_member(
                    r["url"], r["w_ts14"], r["fetch_status"], r["w_mime"],
                    sha1_b32(payload), len(payload), r["w_loc"] or None,
                )
            )
        else:
            members.append(
                build_response_member(
                    r["url"], r["w_ts14"], r["fetch_status"], r["w_mime"],
                    payload, r["w_loc"] or None,
                )
            )
    d = os.path.join(warc_dir, f"wave_{wave:04d}")
    os.makedirs(d, exist_ok=True)
    final = os.path.join(d, f"part_{part:05d}.warc.gz")
    tmp = f"{final}.tmp-{uuid.uuid4().hex}"
    with open(tmp, "wb") as fh:
        fh.write(b"".join(members))
    os.replace(tmp, final)
    return len(members)


@_ray.remote(num_returns=2)
def _finalize_fetch(wave: int, order_base: int, log_path: str | None, *parts):
    """Remote end-of-wave fetch finalization: concat the per-part fetched
    tables, apply the pinned rule-4 order (host, slot), build the wave's
    fetch-log table, optionally stream it to parquet (atomic publish).
    Returns ``(wave_log, n_rows)``. OFF the wave critical path: the
    driver gets the wave's count and policy observations from the fetch
    metas and pulls the table only under collect_log / checkpointing;
    the crawl-end durability barrier joins the tiny ``n_rows`` sentinel
    (a failed writer raises there, and no table travels)."""
    cols = ["fetch_host", "slot", "url", "surt", "fetch_status"]
    tbl = pa.concat_tables([t.select(cols) for t in parts]).combine_chunks()
    tbl = tbl.take(
        pc.sort_indices(
            tbl, sort_keys=[("fetch_host", "ascending"), ("slot", "ascending")]
        )
    )
    n = tbl.num_rows
    wave_log = pa.table(
        {
            "order": pa.array(np.arange(order_base, order_base + n), pa.int64()),
            "wave": pa.array(np.full(n, wave, dtype=np.int32)),
            "host": tbl["fetch_host"],
            "slot": tbl["slot"],
            "url": tbl["url"],
            "surt": tbl["surt"],
            "status": tbl["fetch_status"],
        },
        schema=FETCHLOG_SCHEMA,
    )
    if log_path is not None:
        import uuid

        import pyarrow.parquet as _pq

        os.makedirs(os.path.dirname(log_path), exist_ok=True)
        tmp = f"{log_path}.tmp-{uuid.uuid4().hex}"
        _pq.write_table(wave_log, tmp)
        os.replace(tmp, log_path)
    return wave_log, n


# run_crawl's per-wave phases, in order (stats keys phase_{name}_s)
_PHASES = ("robots", "assemble", "exec", "split", "log", "discovery")


def _sitemaps_of(rules: dict[str, list[str]]) -> list[str]:
    return sorted({u for r in rules.values() for u in sitemap_urls_of(r)})


def run_crawl(
    seeds: list[tuple[str, int]],
    ccfg: CrawlConfig,
    scfg: SyntheticConfig,
    icfg: IndexConfig | None = None,
    checkpoint_dir: str | None = None,
    docs_dir: str | None = None,
    resume: bool = False,
    fetch_concurrency: int = 4,
    collect_log: bool = False,
    collect_seen: bool = False,
) -> CrawlResult:
    """Run the crawl (optionally resuming from the last complete wave).

    ``fetch_concurrency`` (≥ 1, else ``ValueError``) is the number of fetch
    slots a wave is sized for: each wave splits its frontier into exactly
    ``4 * fetch_concurrency`` host blocks, and each block costs one fetch
    task (which also routes the block's candidates and gate rows to the
    seen shards) and, with ``warc_dir``, one WARC-writer task. Four blocks
    per slot keep a skewed host from holding back a whole wave. The fetch
    tasks are a plain task pool, not an actor pool, and they use every
    free CPU (tasks never call actors; the driver hands their outputs to
    the shards by reference). Per wave, each seen shard gets one
    discovery call (``SeenSet.finalize_wave_split``) and, under
    ``dedup_content``, one content-gate call before it. The fetch log,
    the seen set and the WARC records do not depend on the block count;
    the grouping of WARC and docs fragment files and the per-partition
    lineage in ``stats`` do.

    Every block takes the same path whatever its size: one drain, then
    the rows it fetches go through the fetch loop and the rest of the
    block goes back to the object store as its Arrow carry. A hot host
    is never split; the budget bounds what it fetches per wave.

    ``collect_log`` / ``collect_seen`` are TEST/ANALYSIS hooks: they pull
    the full fetch log (as Python dicts) / the sorted global seen set onto
    the driver — O(total fetched) / O(total seen) driver memory, never the
    default. Production runs stream the per-wave fetch log to parquet via
    ``checkpoint_dir`` (and, when only ``docs_dir`` is given, alongside
    the per-wave docs fragments).

    Each wave's ``stats`` carry the driver's wall seconds per phase
    (``phase_{robots,assemble,exec,split,log,discovery}_s``).

    The seen-set shard actors are taken from the ones an earlier call
    of this Ray session parked, and started only for the shards still
    missing. When the call returns, they are emptied and parked for the
    next call; when it raises, they are killed, so no key space outlives
    a failed crawl behind its traceback."""
    if fetch_concurrency < 1:
        raise ValueError(f"fetch_concurrency must be >= 1, got {fetch_concurrency}")
    # ONE actor per shard: the URL-seen set, plus (dedup_content) the
    # duplicate-content gate's key space of content hashes — same
    # shards, same spill tier and checkpoint machinery, separate keys
    # (content spills under <seen_spill_dir>/content)
    pool = SeenShardPool(
        ccfg.seen_shards,
        spill_dir=ccfg.seen_spill_dir,
        spill_threshold=ccfg.seen_spill_threshold,
    )
    try:
        result = _crawl_waves(
            pool, 4 * fetch_concurrency, seeds, ccfg, scfg, icfg,
            checkpoint_dir, docs_dir, resume, collect_log, collect_seen,
        )
    except BaseException:
        pool.close()
        raise
    pool.park()
    return result


def _crawl_waves(
    pool: SeenShardPool,
    n_parts: int,
    seeds: list[tuple[str, int]],
    ccfg: CrawlConfig,
    scfg: SyntheticConfig,
    icfg: IndexConfig | None,
    checkpoint_dir: str | None,
    docs_dir: str | None,
    resume: bool,
    collect_log: bool,
    collect_seen: bool,
) -> CrawlResult:
    """``run_crawl``'s wave loop over ``n_parts`` host blocks per wave."""
    import time

    import pyarrow.parquet as pq
    import ray

    res = CrawlResult(docs_dir=docs_dir)
    pending_content_delta: list[str] = []
    # Sitemap URLs advertised by rules not yet offered to the seen set.
    # Not checkpointed: resume recomputes from the (checkpointed) rules —
    # the seen-set probe makes re-offering idempotent.
    sitemap_pending: list[str] = []
    log_tables: list[pa.Table] = []  # retained ONLY under collect_log
    log_flush_refs: list = []  # streamed-log chains joined at crawl end
    warc_flush_refs: list = []  # WARC fragment writers, same join points
    # SURTs first seen since the last checkpoint; tracked ONLY when
    # checkpointing (building the per-wave Python string list costs
    # O(new URLs) driver time every wave otherwise)
    track_delta = checkpoint_dir is not None
    pending_delta: list[str] = []
    start_wave = 0
    order_base = 0

    if resume and checkpoint_dir is not None and (last := latest_complete_wave(checkpoint_dir)) is not None:
        ck = load_wave_checkpoint(checkpoint_dir, last)
        extras = ck["frontier"]  # carry + winners of the checkpointed wave
        # shard-side absorb: driver ships delta PATHS, each shard reads
        # its own slice (no driver-side key materialization)
        pool.restore_from_parquet(ck["seen_delta_paths"])
        if ccfg.dedup_content:
            pool.restore_from_parquet(ck["content_delta_paths"], "content")
        policy = PolicyState.from_checkpoint(ck["policy"])
        if ccfg.follow_sitemaps:
            sitemap_pending = _sitemaps_of(policy.rules)
        order_base = ck["fetch_log_rows"]
        if collect_log:
            log_tables += [pq.read_table(p) for p in ck["fetch_log_paths"]]
        seq = ck["seq"]
        start_wave = last + 1
        robots_check_hosts = set(pc.unique(extras["host"]).to_pylist())
    else:
        extras, seq = _seed_frontier(seeds, pool)
        policy = PolicyState()
        robots_check_hosts = set(pc.unique(extras["host"]).to_pylist())
        if track_delta:
            pending_delta.extend(extras["surt"].to_pylist())
    policy = policy.configured(ccfg)
    # the frontier lives in the object store between waves as one carry
    # table per host partition (the seed or resume frontier is wave 0's
    # carry); the driver holds only the refs + per-part row counts
    seed_parts = _partition_by_host(extras, n_parts)
    carry_refs = [ray.put(t) for t in seed_parts]
    carry_counts = [t.num_rows for t in seed_parts]
    del extras, seed_parts
    # the previous wave's discovery winners: (winner table ref, block
    # bounds) per shard with winners, numbered from seq_base by the
    # fetch task of each block; empty before the first wave
    winners: list[tuple] = []
    seq_base = seq
    pending_winner_rows = 0
    for wave in range(start_wave, ccfg.max_waves):
        # the crawl ends at the first wave whose frontier (carry, winners
        # and 5xx retries) is empty, before any robots or sitemap
        # injection: pending Sitemap URLs alone start no wave (rule 7)
        if pending_winner_rows + len(policy.retry_pending) + sum(carry_counts) == 0:
            break
        marks = [time.monotonic()]  # phase boundaries -> stats phase_*_s
        # --- robots injection (new hosts only: a host already in the
        # frontier was scheduled at its first appearance), then sitemap
        # injection (rule 2b): advertised Sitemap URLs enter as priority
        # -1 fetches the first time their SURT is unseen -----------------
        ru, rk, rh = [], [], []
        if ccfg.respect_robots:
            new_hosts = sorted(robots_check_hosts - policy.scheduled)
            policy.scheduled.update(new_hosts)
            ru, rk, rh = _offer_new(pool, _robots_chunk, new_hosts)
            if ccfg.follow_sitemaps and sitemap_pending:
                su, sk, sh, _ = _offer_new(
                    pool, _canon_chunk, [(u, -1) for u in sitemap_pending]
                )
                ru, rk, rh, sitemap_pending = ru + su, rk + sk, rh + sh, []
            if track_delta:
                pending_delta.extend(rk)
        n_inj = len(ru)
        robots_tbl = _frontier_table(ru, rk, rh, [-1] * n_inj, [0] * n_inj, [-1] * n_inj)
        if policy.retry_pending:
            # rule 6b (retry_5xx): failed fetches re-enter with their
            # ORIGINAL (priority, hop, seq) — already-seen rows riding
            # the injection path (the only path that re-fetches a URL)
            rt = _frontier_table(*map(list, zip(*policy.retry_pending)))
            robots_tbl = pa.concat_tables([robots_tbl, rt]) if robots_tbl.num_rows else rt
            policy.retry_pending = []
        frontier_rows = pending_winner_rows + robots_tbl.num_rows + sum(carry_counts)
        marks.append(time.monotonic())
        # --- assemble wave input blocks (object-store resident): each
        # block's pieces go straight to its fetch task ------------------
        robots_parts = _partition_by_host(robots_tbl, n_parts)
        # the policy state enters the cluster ONCE per wave (object
        # store), not once per task closure; BOXED so tasks resolve it
        # through the per-worker broadcast cache
        policy_boxed = [ray.put(policy.drain_view())]
        marks.append(time.monotonic())
        # resumable docs and WARC layouts: clear this wave's fragment dirs
        # first so a crashed prior attempt (possibly with a different
        # n_parts) can't leave stale part_* fragments beside the new ones
        for out_dir in (docs_dir, ccfg.warc_dir):
            if out_dir is not None:
                wdir = os.path.join(out_dir, f"wave_{wave:04d}")
                if os.path.isdir(wdir):
                    shutil.rmtree(wdir)
        # --- ONE task per block: fused drain -> fetch/extract -> routing.
        # Assembly, the politeness drain, the fetch/extract chain and the
        # shard routing of the block's candidate and gate rows run in the
        # same plain Ray task (whole block = complete host groups): no
        # per-wave streaming-executor startup, and task outputs are
        # stable (no eager block GC, so no lineage reconstruction can
        # re-run a fetch). Tasks never call actors: a task-side RPC would
        # couple every fetch slot to actor-channel health.
        fetches = []
        for p in range(n_parts):
            # only the shards with winners in this block
            mine = [(ref, (b[p], b[p + 1])) for ref, b in winners if b[p + 1] > b[p]]
            fetches.append(_drain_fetch.remote(
                policy_boxed, scfg, icfg, wave, ccfg, docs_dir, seq_base,
                [span for _, span in mine], robots_parts[p], carry_refs[p],
                *[ref for ref, _ in mine],
            ))
        marks.append(time.monotonic())
        metas = ray.get([f[0] for f in fetches])
        fetched_refs = [f[1] for f in fetches]
        carry_refs = [f[4] for f in fetches]
        carry_counts = [m["carry_rows"] for m in metas]
        # --- duplicate-content gate (dedup_content only): the blocks'
        # (hash, host, slot) rows go BY REFERENCE to the shards, one call
        # per shard; each resolves first-wins in the pinned (host, slot)
        # order against its content key space and returns its loser
        # table. The discovery call below drops the losers' candidates
        # and the WARC writers turn the losers into revisit records.
        loser_refs: list = []
        gate_small_refs: list = []
        if ccfg.dedup_content:
            loser_refs, gate_small_refs = pool.gate_first_seen(
                [f[3] for f in fetches], [m["gate_bounds"] for m in metas],
                track_delta,
            )
        # WARC sink: one writer task per block, fed the fetched rows and
        # the loser refs; off the critical path, joined at the checkpoint
        # barrier below (so a checkpointed wave's fragments exist before
        # the wave is marked complete) or at the crawl-end durability
        # barrier
        if ccfg.warc_dir is not None:
            warc_flush_refs.extend(
                _write_warc_block.remote(ccfg.warc_dir, wave, ref, *loser_refs)
                for ref in fetched_refs
            )
        # fetch-log finalization runs REMOTE (concat + rule-4 sort + log
        # build of ~budget×hosts rows); the log table itself is pulled
        # only under collect_log / checkpointing
        log_path = (
            os.path.join(docs_dir, f"wave_{wave:04d}", "fetch_log.parquet")
            if docs_dir is not None and checkpoint_dir is None
            else None
        )
        # only submit when some consumer exists (log streaming, collect_log
        # or checkpointing) — otherwise the concat + rule-4 sort + log
        # build would run as pure wasted cluster work competing with the
        # next wave's fetch tasks
        wave_log_ref = None
        if log_path is not None or collect_log or checkpoint_dir is not None:
            wave_log_ref, log_done = _finalize_fetch.remote(
                wave, order_base, log_path, *fetched_refs
            )
            if log_path is not None:
                log_flush_refs.append(log_done)
        # --- discovery: ONE call per shard takes the shard's slice of
        # every candidate block BY REFERENCE (zero-copy: each block is
        # sorted by shard), drops the gate losers' candidates, keeps the
        # first unseen SURTs in the pinned order and groups them by the
        # frontier block of their host. The driver blocks ONLY on the
        # shards' small dicts (counts, hosts, block bounds, optional SURT
        # delta); the winner tables stay in the object store until the
        # next wave's fetch tasks number their block's rows
        with_cands = [i for i, m in enumerate(metas) if m["cand_rows"]]
        winner_refs, small_refs = pool.finalize_wave_split(
            wave, [fetches[i][2] for i in with_cands],
            [metas[i]["shard_bounds"] for i in with_cands], loser_refs,
            track_delta, n_parts,
        )
        del fetches, fetched_refs  # wave's intermediates can be GC'd
        marks.append(time.monotonic())
        # wave count + policy observations come straight from the fetch
        # metas — the fetch-log build/sort/write chain runs fully off the
        # wave critical path (joined only under collect_log /
        # checkpointing, plus one durability barrier at crawl end)
        fetched_per_part = [m["fetched_rows"] for m in metas]
        n_fetched = sum(fetched_per_part)
        wave_log = None  # pulled lazily (collect_log / checkpoint only)
        if collect_log:
            wave_log = ray.get(wave_log_ref)
            log_tables.append(wave_log)
        order_base += n_fetched
        marks.append(time.monotonic())
        smalls = ray.get(small_refs)
        n_new = sum(s["n"] for s in smalls)
        robots_check_hosts = set()
        for s in smalls:
            robots_check_hosts.update(s["hosts"])
            if track_delta:
                pending_delta.extend(s["surts"])
        winners = [
            (ref, s["bounds"]) for ref, s in zip(winner_refs, smalls) if s["n"]
        ]
        seq_base, seq = seq, seq + n_new
        pending_winner_rows = n_new
        new_rules = policy.fold([m["policy"] for m in metas], ccfg)
        if ccfg.follow_sitemaps and new_rules:
            sitemap_pending = _sitemaps_of(new_rules)
        stats = {
            "wave": wave,
            "frontier": frontier_rows,
            "fetched": n_fetched,
            "carryover": sum(carry_counts),
            "new_urls": n_new,
            # per-partition lineage (north_rule): what each host partition
            # contributed this wave — replays/audits read this per (wave,
            # partition) alongside the docs fragment of the same name
            "partitions": {
                str(p): {"fetched": f, "carryover": c}
                for p, (f, c) in enumerate(zip(fetched_per_part, carry_counts))
                if f or c
            },
        }
        marks.append(time.monotonic())
        stats.update(
            (f"phase_{name}_s", round(b - a, 4))
            for name, a, b in zip(_PHASES, marks, marks[1:])
        )
        res.wave_stats.append(stats)
        res.total_fetched += n_fetched
        # --- checkpoint (sync point: frontier pulled once to persist) ---
        if track_delta and gate_small_refs:
            for sm in ray.get(gate_small_refs):
                pending_content_delta.extend(sm["keys"])
        if checkpoint_dir is not None:
            if warc_flush_refs:
                # fragment-durability barrier: a checkpoint marks this
                # wave complete, so its WARC fragments must exist first
                # (a resumed run never re-enters a completed wave).
                # ray.get, not ray.wait(fetch_local=False): the barrier
                # must PROPAGATE a writer failure (ENOSPC, permissions)
                # and fail the wave before the checkpoint is written —
                # wait() would mark a wave complete over missing
                # fragments. Results are tiny ints, so get() is cheap.
                ray.get(warc_flush_refs)
                warc_flush_refs = []
            if wave_log is None:
                wave_log = ray.get(wave_log_ref)
            # carries in part order, then winners in part order, numbered
            # as the next wave's fetch tasks will number them
            won = ray.get([ref for ref, _ in winners])
            frontier_tbls = [
                t.select(FRONTIER_SCHEMA.names)
                for t in ray.get(carry_refs) + [
                    _numbered(won, [(b[p], b[p + 1]) for _, b in winners], seq_base)
                    for p in range(n_parts)
                ]
                if t.num_rows
            ]
            next_frontier = (
                pa.concat_tables(frontier_tbls)
                if frontier_tbls
                else FRONTIER_SCHEMA.empty_table()
            )
            write_wave_checkpoint(
                checkpoint_dir, wave, next_frontier, wave_log, pending_delta,
                seq, stats, policy.to_checkpoint(),
                content_delta=(
                    pending_content_delta if ccfg.dedup_content else None
                ),
            )
            pending_delta = []
            pending_content_delta = []
        if ccfg.max_urls is not None and order_base >= ccfg.max_urls:
            break

    # durability barrier: streamed per-wave fetch-log and WARC writes
    # happen in remote tasks off the wave critical path — join them once
    # here so the files exist when run_crawl returns. ray.get on the
    # writers' tiny int sentinels, not ray.wait(fetch_local=False): a
    # failed writer must raise here, not leave files silently missing
    # behind a successful-looking return.
    ray.get(log_flush_refs + warc_flush_refs)
    # driver-side materializations are OPT-IN (test/analysis hooks): the
    # production outputs are the streamed per-wave parquet artifacts
    if collect_log:
        res.fetch_log = (
            pa.concat_tables(log_tables).to_pylist() if log_tables else []
        )
    if collect_seen:
        res.seen_sorted = pool.all_keys_sorted()
    # crawl-end fragment compaction (automatic scheduling policy,
    # VERDICT r3 #8): bounded file count across resumed runs
    if docs_dir is not None and ccfg.compact_fragments_threshold is not None:
        from ..sources.sinks import maybe_compact_fragments

        res.compaction = maybe_compact_fragments(
            docs_dir,
            max_fragments=ccfg.compact_fragments_threshold,
            target_bytes=ccfg.compact_target_bytes,
        )
    return res
