"""Wave-level checkpoint/resume with per-partition lineage + metrics.

North-rule requirement: the frontier and seen-set state are resumable; a
wave's checkpoint is complete only when its ``manifest.json`` exists (the
directory is written to a temp path and atomically renamed), so replays
skip completed waves and an interrupted run resumes exactly where the last
complete wave ended — the resumed run's fetch log and seen set must be
byte-identical to an uninterrupted run (tested in test_crawl_parity.py).

The seen set is checkpointed as PER-WAVE DELTAS (the SURT keys first seen
in that wave: seeds, injected robots URLs, discovery winners) — the
driver already holds exactly these, so a checkpoint costs O(wave growth),
not O(total seen): at the 10^10-URL design point a full-set snapshot per
wave would rewrite the entire corpus-scale set every wave. Restore =
union of deltas for waves 0..last.

Layout (one directory per wave)::

    {dir}/wave_0003/
        manifest.json          # wave, running seq count, row counts, lineage
        frontier_next.parquet  # frontier entering wave 4
        fetchlog.parquet       # fetches performed in wave 3
        seen_delta.parquet     # SURT keys first seen during wave 3
        content_delta.parquet  # content hashes first seen (dedup_content)
        robots.json            # crawl policy state: robots scheduled hosts +
                               # rules, 5xx backoff, quota, adaptive, retry
                               # (pipelines/crawl.PolicyState.to_checkpoint)
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

__all__ = ["write_wave_checkpoint", "latest_complete_wave", "load_wave_checkpoint"]

# ``seq`` is a row's enqueue order within its host: seeds take 0, 1, ...
# in list order; injected robots and sitemap rows take -1; each wave's
# discovery winners are numbered from the crawl's running count (the
# manifest's ``seq``) by the fetch task of their host's block, in the
# pinned discovery order; 5xx retries keep their seq. It is unique and
# increasing within a host, not across hosts (two blocks number from
# the same base), and only the drain's per-host order reads it.
FRONTIER_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("surt", pa.string()),
        ("host", pa.string()),
        ("priority", pa.int32()),
        ("hop", pa.int32()),
        ("seq", pa.int64()),
    ]
)

FETCHLOG_SCHEMA = pa.schema(
    [
        ("order", pa.int64()),
        ("wave", pa.int32()),
        ("host", pa.string()),
        ("slot", pa.int32()),
        ("url", pa.string()),
        ("surt", pa.string()),
        ("status", pa.int32()),
    ]
)


def _wave_dir(base: str, wave: int) -> str:
    return os.path.join(base, f"wave_{wave:04d}")


def write_wave_checkpoint(
    base: str,
    wave: int,
    next_frontier: pa.Table,
    wave_fetch_log: pa.Table,
    seen_delta: list[str],
    seq: int,
    stats: dict,
    policy: dict,
    content_delta: list[str] | None = None,
) -> None:
    """Write wave ``wave``'s checkpoint; ``policy`` is the JSON body of
    ``robots.json`` (``PolicyState.to_checkpoint()``), stored verbatim."""
    os.makedirs(base, exist_ok=True)
    final = _wave_dir(base, wave)
    tmp = final + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    pq.write_table(
        next_frontier.cast(FRONTIER_SCHEMA),
        os.path.join(tmp, "frontier_next.parquet"),
    )
    pq.write_table(
        wave_fetch_log.cast(FETCHLOG_SCHEMA),
        os.path.join(tmp, "fetchlog.parquet"),
    )
    # store the 64-bit shard-routing hash beside each key: resume-time
    # shard filtering becomes one vectorized modulo instead of a per-key
    # sha1 in every shard actor (n_shards x the hashing otherwise)
    from ..functions.hashing import stable_hash64
    from .seen import _SHARD_SEED

    delta_sorted = sorted(seen_delta)
    pq.write_table(
        pa.table(
            {
                "surt": pa.array(delta_sorted, type=pa.string()),
                "h64": pa.array(
                    [stable_hash64(k, _SHARD_SEED) for k in delta_sorted],
                    type=pa.uint64(),
                ),
            }
        ),
        os.path.join(tmp, "seen_delta.parquet"),
    )
    if content_delta is not None:
        # content-seen deltas (dedup_content crawls): same layout as the
        # SURT deltas — the key column is NAMED "surt" so the shard-side
        # restore_from_parquet path (vectorized h64 routing) is reused
        # verbatim for both pools
        cd_sorted = sorted(content_delta)
        pq.write_table(
            pa.table(
                {
                    "surt": pa.array(cd_sorted, type=pa.string()),
                    "h64": pa.array(
                        [stable_hash64(k, _SHARD_SEED) for k in cd_sorted],
                        type=pa.uint64(),
                    ),
                }
            ),
            os.path.join(tmp, "content_delta.parquet"),
        )
    with open(os.path.join(tmp, "robots.json"), "w") as f:
        json.dump(policy, f)
    # manifest LAST: its presence marks the wave complete
    manifest = {
        "wave": wave,
        "seq": seq,
        "n_seen_delta": len(seen_delta),
        "n_frontier_next": next_frontier.num_rows,
        "n_fetched": wave_fetch_log.num_rows,
        "stats": stats,
    }
    with open(os.path.join(tmp, "manifest.json"), "w") as f:
        json.dump(manifest, f)
    if os.path.exists(final):
        shutil.rmtree(final)
    os.rename(tmp, final)


def latest_complete_wave(base: str) -> int | None:
    if not os.path.isdir(base):
        return None
    waves = []
    for name in os.listdir(base):
        if name.startswith("wave_") and not name.endswith(".tmp"):
            if os.path.exists(os.path.join(base, name, "manifest.json")):
                waves.append(int(name.split("_")[1]))
    return max(waves) if waves else None


def load_wave_checkpoint(base: str, wave: int) -> dict:
    """Wave ``wave``'s checkpoint; ``policy`` is the ``robots.json`` body
    as written (``PolicyState.from_checkpoint`` decodes it)."""
    d = _wave_dir(base, wave)
    with open(os.path.join(d, "manifest.json")) as f:
        manifest = json.load(f)
    with open(os.path.join(d, "robots.json")) as f:
        policy = json.load(f)
    frontier = pq.read_table(os.path.join(d, "frontier_next.parquet"))
    # neither the seen set nor the fetch history is materialized here:
    # the driver hands the per-wave delta paths to the shard actors, each
    # of which reads and absorbs only its own slice, and reads the
    # fetch-log files only when asked to collect the log — resume cost
    # on the driver is O(#waves) paths, independent of crawl history size
    paths: dict[str, list[str]] = {
        "fetchlog": [], "seen_delta": [], "content_delta": []
    }
    for w in range(wave + 1):
        for name, found in paths.items():
            p = os.path.join(_wave_dir(base, w), f"{name}.parquet")
            if os.path.exists(p):
                found.append(p)
    return {
        "manifest": manifest,
        "frontier": frontier,
        "seen_delta_paths": paths["seen_delta"],  # per-wave delta files
        "content_delta_paths": paths["content_delta"],  # dedup_content crawls
        "policy": policy,
        "fetch_log_paths": paths["fetchlog"],  # per-wave fetch logs
        # from the parquet footers: no log row is read
        "fetch_log_rows": sum(
            pq.read_metadata(p).num_rows for p in paths["fetchlog"]
        ),
        "seq": manifest["seq"],
    }


def crawl_lineage(base: str):
    """Per-wave lineage + metrics table from a checkpointed crawl run —
    the north rule's "per-partition lineage + metrics" surfaced as a
    queryable table: one row per COMPLETE wave (manifest present), with
    the manifest's row counts, the running seq count (seeds plus every
    wave's discovery winners so far), and the wave's
    recorded stats. Driver-side file scan of #waves manifests (bounded:
    one small JSON per wave). Columns: wave, seq, n_fetched,
    n_frontier_next, n_seen_delta, plus flattened integer stats."""
    import pandas as pd

    rows = []
    if os.path.isdir(base):
        for name in sorted(os.listdir(base)):
            mpath = os.path.join(base, name, "manifest.json")
            if not name.startswith("wave_") or not os.path.exists(mpath):
                continue
            with open(mpath) as f:
                m = json.load(f)
            row = {
                "wave": int(m["wave"]),
                "seq": int(m["seq"]),
                "n_fetched": int(m["n_fetched"]),
                "n_frontier_next": int(m["n_frontier_next"]),
                "n_seen_delta": int(m["n_seen_delta"]),
            }
            for k, v in sorted((m.get("stats") or {}).items()):
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    row[f"stat_{k}"] = v
            rows.append(row)
    if rows:
        # no columns= pin: take the key UNION so a stat that first
        # appears after wave 0 still gets its column
        return pd.DataFrame(rows)
    return pd.DataFrame(
        columns=["wave", "seq", "n_fetched", "n_frontier_next", "n_seen_delta"]
    )
