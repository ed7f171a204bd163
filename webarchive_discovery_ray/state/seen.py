"""Sharded URL-seen set: exact membership actors with a filter-gated spill tier.

New construction per BASELINE.json north_rule (the reference leaves URL
dedup to post-hoc MDX hash grouping and notes the non-scalable Solr
dup-check at ``WARCIndexer.java:184-187``). Design per SURVEY.md §2.7/§7.4
and the north star's sharded cuckoo-filter seen set with Bloom fallback
for spill partitions:

* keys are SURT URL keys, routed to ``hash(surt) % n_shards`` actor shards;
  the same actor holds a second, separate key space for the
  duplicate-content gate (payload hashes, same routing), so a crawl runs
  one actor per shard whichever gates are on;
* each key space is an exact Python set (the HOT set): the authoritative
  membership store, probed in O(batch), because the north rule demands
  byte-identical final seen sets vs the oracle. A resident space (no
  spill threshold, the default) is nothing else;
* snapshots serialise the sorted key list (the byte-comparable
  representation) for checkpoint/resume;
* SPILL TIER (round-4): past a configurable hot-set size each shard
  persists its exact keys to sorted parquet runs on local disk and keeps
  only the hot (not-yet-spilled) set in RAM. Each run is one parquet
  file, its row-group fences and its FILTER: a CUCKOO filter (2-choice
  bucketed 16-bit fingerprints, xor-partial-key relocation — supports
  delete, unlike Bloom) sized to the run's key count and built once when
  the run is written, with a Bloom filter for the keys a saturated
  cuckoo could not place (the north star's bloom-fallback-for-spill-
  partitions rule). Membership is an LSM-style probe: hot-set hit ->
  seen; otherwise, per run, filter-negative -> not in that run (no IO);
  filter-positive -> binary-search the run's row-group fence index held
  in RAM (1/row_group_size of the keys) and read exactly the needed row
  groups. The filters are accelerators only: a false positive costs a
  row-group read, never a wrong answer. Runs are disjoint by
  construction (a key enters the hot set only when globally unseen), and
  tiered compaction folds runs together (with a fresh filter) when their
  count crosses a bound, so a probe touches O(log) runs. This is what
  lets a shard hold its slice of a 10^10-URL seen set with bounded RAM
  while the byte-identical-seen-set rule still holds (``snapshot``
  streams the runs back).
"""

from __future__ import annotations

import gc
import hashlib
import os
import tempfile
import threading
from array import array

import numpy as np

from ..functions.hashing import bloom_add, bloom_contains, stable_hash64

__all__ = [
    "CuckooFilter",
    "KeySpace",
    "SeenSet",
    "SpilledRuns",
    "block_of_hosts",
    "routed",
    "shard_of",
    "SeenShardPool",
]

_SHARD_SEED = 7
_BLOCK_SEED = 11

# the pinned discovery order of a wave's candidates: parent host, parent
# fetch slot, link rank in the parent's sorted candidate list (unique per
# candidate)
PINNED_ORDER = [
    ("order_host", "ascending"),
    ("order_slot", "ascending"),
    ("order_rank", "ascending"),
]


def shard_of(key: str, n_shards: int) -> int:
    return stable_hash64(key, _SHARD_SEED) % n_shards


def block_of_hosts(hosts, n_parts: int) -> np.ndarray:
    """The frontier block of each row of the Arrow string column
    ``hosts``: ``stable_hash64(host, 11) % n_parts``, hashed once per
    distinct host. All rows of a host share a block (the politeness
    co-location invariant)."""
    import pyarrow.compute as pc

    codes = pc.dictionary_encode(hosts.combine_chunks())
    uniq = codes.dictionary.to_pylist()
    block_of_uniq = np.fromiter(
        (stable_hash64(h, _BLOCK_SEED) % n_parts for h in uniq),
        dtype=np.int64, count=len(uniq),
    )
    return block_of_uniq[codes.indices.to_numpy()]


def routed(tbl, dest: np.ndarray, n: int):
    """``tbl`` stably sorted by ``dest`` (one destination in ``[0, n)``
    per row), and the ``n + 1`` offsets of each destination's slice: the
    producer partitions its rows once, and each consumer takes rows
    ``bounds[d]:bounds[d + 1]``, a zero-copy slice."""
    import pyarrow as pa

    order = np.argsort(dest, kind="stable")
    bounds = np.searchsorted(dest[order], np.arange(n + 1)).tolist()
    return tbl.take(pa.array(order, pa.int64())), bounds


def _key_hashes(keys) -> tuple[np.ndarray, np.ndarray]:
    """(16-bit fingerprint, 64-bit bucket hash) per key, from one sha1 of
    each key: its bytes 0-2 (0 maps to 1, since 0 marks an empty slot) and
    2-10, big-endian."""
    raw = np.frombuffer(
        b"".join(hashlib.sha1(k.encode("utf-8")).digest()[:10] for k in keys),
        dtype=[("fp", ">u2"), ("h", ">u8")],
    )
    fp = raw["fp"].astype(np.uint16)
    fp[fp == 0] = 1
    return fp, raw["h"].astype(np.uint64)


# odd 64-bit multiplier (2^64 / golden ratio) hashing a fingerprint to
# its alternate-bucket offset: bits 32 and up of fp * _FP_MIX
_FP_MIX = 0x9E3779B97F4A7C15
# keys hashed at once by CuckooFilter.add_many
_HASH_BATCH = 1 << 12


class CuckooFilter:
    """Deterministic cuckoo filter (Fan et al., CoNEXT'14 construction):
    ``n_buckets`` (power of two, at most 2^32) buckets of ``bucket_size``
    16-bit fingerprints, stored flat in one ``array('H')`` (2 bytes a
    slot); candidate buckets ``i1 = H(key)`` and ``i2 = i1 ^ H(fp)`` (xor
    partial-key — an involution, so either bucket recovers the other from
    the stored fingerprint alone), with bounded relocation on insert.
    Supports delete, which Bloom cannot; ~95% load factor at bucket_size 4.
    Batch probes (:meth:`might_contain_many`) are numpy over a view of
    the same table.

    ``add`` returns False when the relocation walk fails (filter full) —
    the caller is expected to fall back (a spill run's filter adds the
    key to its Bloom overflow)."""

    MAX_KICKS = 500

    def __init__(self, n_buckets: int = 1 << 16, bucket_size: int = 4):
        assert n_buckets & (n_buckets - 1) == 0, "n_buckets must be a power of two"
        self.n_buckets = n_buckets
        self.bucket_size = bucket_size
        self.table = array("H", bytes(2 * n_buckets * bucket_size))
        # victim stash: a failed relocation walk must NOT drop the evicted
        # fingerprint (that would be a false negative for an EARLIER key);
        # the homeless (bucket, fp) pair parks here
        self.stash: set[tuple[int, int]] = set()
        # set on the first failed walk: callers should stop inserting here
        # (lookups stay valid) — without this every post-saturation add
        # would pay the full MAX_KICKS walk and grow the stash unboundedly
        self.saturated = False

    def _fp_and_index(self, key: str) -> tuple[int, int]:
        fp, h = _key_hashes([key])
        return int(fp[0]), int(h[0]) & (self.n_buckets - 1)

    def _alt_index(self, i: int, fp: int) -> int:
        # xor with a hash of the fingerprint (mod 2^k keeps the involution)
        return (i ^ (fp * _FP_MIX >> 32)) & (self.n_buckets - 1)

    def _slots(self, i: int) -> range:
        return range(i * self.bucket_size, (i + 1) * self.bucket_size)

    def _bucket_insert(self, i: int, fp: int) -> bool:
        table = self.table
        for s in self._slots(i):
            if table[s] == 0:
                table[s] = fp
                return True
        return False

    def _insert(self, fp: int, i1: int) -> bool:
        i2 = self._alt_index(i1, fp)
        if self._bucket_insert(i1, fp) or self._bucket_insert(i2, fp):
            return True
        # relocation walk (deterministic slot choice keeps runs replayable)
        table = self.table
        i = i1 if (fp & 1) else i2
        for kick in range(self.MAX_KICKS):
            s = self._slots(i)[(fp + kick) % self.bucket_size]
            fp, table[s] = table[s], fp
            i = self._alt_index(i, fp)
            if self._bucket_insert(i, fp):
                return True
        # walk failed: park the homeless victim in the stash (it belongs
        # to an EARLIER key — dropping it would create a false negative)
        # and signal saturation so the caller engages its fallback for
        # THIS key and every later one
        self.stash.add((i, fp))
        self.saturated = True
        return False

    def add(self, key: str) -> bool:
        return self._insert(*self._fp_and_index(key))

    def add_many(self, keys) -> list[bool]:
        """:meth:`add` per key, hashed ``_HASH_BATCH`` keys at a time (so a
        large run's build holds small transient lists); once the filter is
        saturated, every later key reports False without a walk."""
        placed: list[bool] = []
        for lo in range(0, len(keys), _HASH_BATCH):
            fps, hs = _key_hashes(keys[lo : lo + _HASH_BATCH])
            i1s = (hs & np.uint64(self.n_buckets - 1)).tolist()
            placed += [
                not self.saturated and self._insert(fp, i1)
                for fp, i1 in zip(fps.tolist(), i1s)
            ]
        return placed

    def might_contain(self, key: str) -> bool:
        return bool(self.might_contain_many(*_key_hashes([key]))[0])

    def might_contain_many(self, fp: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Bool mask: :meth:`might_contain` for the keys whose
        :func:`_key_hashes` are ``fp`` and ``h``."""
        mask = np.uint64(self.n_buckets - 1)
        i1 = h & mask
        i2 = (i1 ^ (fp.astype(np.uint64) * np.uint64(_FP_MIX) >> np.uint64(32))) & mask
        table = np.frombuffer(self.table, dtype=np.uint16).reshape(
            self.n_buckets, self.bucket_size
        )
        col = fp[:, None]
        hit = (table[i1] == col).any(axis=1) | (table[i2] == col).any(axis=1)
        if self.stash:
            hit |= np.fromiter(
                (
                    (a, f) in self.stash or (b, f) in self.stash
                    for a, b, f in zip(i1.tolist(), i2.tolist(), fp.tolist())
                ),
                dtype=bool, count=len(fp),
            )
        return hit

    def delete(self, key: str) -> bool:
        fp, i1 = self._fp_and_index(key)
        for i in (i1, self._alt_index(i1, fp)):
            for s in self._slots(i):
                if self.table[s] == fp:
                    self.table[s] = 0
                    return True
            if (i, fp) in self.stash:
                self.stash.discard((i, fp))
                return True
        return False


def _cuckoo_buckets(n_keys: int) -> int:
    """Buckets for a filter of ``n_keys``: the smallest power of two that
    keeps the load at or under 3/4 (4 slots a bucket), well below the
    ~95% where relocation walks start to fail."""
    return 1 << (-(-n_keys // 3) - 1).bit_length()


class _RunFilter:
    """The probe gate of one spill run of ``n_keys`` keys, filled once
    with them (in slices, in key order): a cuckoo filter sized to them,
    plus a Bloom bit array of 16 bits per run key over the 64-bit
    :func:`_key_hashes` of the keys the cuckoo could not place (None
    while it placed them all)."""

    def __init__(self, n_keys: int):
        self.cuckoo = CuckooFilter(n_buckets=_cuckoo_buckets(n_keys))
        self.bloom = None
        self._bloom_bytes = 2 * max(1, n_keys)

    def add_many(self, keys: list[str]) -> None:
        overflow = [k for k, ok in zip(keys, self.cuckoo.add_many(keys)) if not ok]
        if overflow:
            if self.bloom is None:
                self.bloom = np.zeros(self._bloom_bytes, dtype=np.uint8)
            bloom_add(self.bloom, _key_hashes(overflow)[1])

    def might_contain_many(self, fp: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Bool mask over keys, given their :func:`_key_hashes`."""
        hit = self.cuckoo.might_contain_many(fp, h)
        if self.bloom is not None:
            hit |= bloom_contains(self.bloom, h)
        return hit


def _sorted(parts: list):
    """The Arrow string arrays ``parts`` as one sorted array: byte order
    of UTF-8, which is the code-point order of Python's ``str`` sort."""
    import pyarrow as pa
    import pyarrow.compute as pc

    keys = pa.concat_arrays(parts)
    return keys.take(pc.sort_indices(keys))


class SpilledRuns:
    """Per-shard on-disk tier of the exact seen set: sorted, mutually
    disjoint parquet runs, each with an in-RAM row-group fence index and
    filter.

    Each run is ONE parquet file holding a single sorted ``surt`` string
    column written with ``row_group_size = fence_every``; the fences (the
    first key of every row group) and the run's :class:`_RunFilter` stay in
    RAM, so a membership probe drops the filter's negatives, then does
    ``searchsorted`` over the fences and reads exactly the row groups that
    could contain the remaining keys. RAM cost per run is
    ~len(run)/fence_every keys plus 3-6 bytes a key of filter; probe
    IO is one row group per hit range.

    Tiered compaction: when the run count exceeds ``max_runs``, all runs
    merge into one (Arrow concatenate + ``sort_indices`` of disjoint
    sorted runs) — classic LSM amortisation, O(n log n) total write
    volume over a shard's lifetime. Runs are read, merged and sorted as
    Arrow string arrays and written one row group at a time, so at most
    one row group of a run's keys is ever a list of Python strings."""

    def __init__(self, spill_dir: str, fence_every: int = 4096, max_runs: int = 8):
        self.spill_dir = spill_dir
        self.fence_every = fence_every
        self.max_runs = max_runs
        self._runs: list[dict] = []  # {path, fences(np object), filter, n}
        self._next_id = 0
        os.makedirs(spill_dir, exist_ok=True)

    @property
    def n_keys(self) -> int:
        return sum(r["n"] for r in self._runs)

    @property
    def n_runs(self) -> int:
        return len(self._runs)

    def _write_run(self, keys) -> dict:
        """A new run of the Arrow string array ``keys``, sorted: one row
        group of ``fence_every`` keys at a time, each row group's first
        key its fence and its keys added to the run's filter."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        path = os.path.join(self.spill_dir, f"run_{self._next_id:06d}.parquet")
        self._next_id += 1
        table = pa.table({"surt": keys})
        run_filter = _RunFilter(len(keys))
        fences = []
        with pq.ParquetWriter(path, table.schema) as writer:
            for lo in range(0, len(keys), self.fence_every):
                group = table.slice(lo, self.fence_every)
                writer.write_table(group, row_group_size=self.fence_every)
                group_keys = group["surt"].to_pylist()
                fences.append(group_keys[0])
                run_filter.add_many(group_keys)
        return {
            "path": path,
            "fences": np.asarray(fences, dtype=object),
            "filter": run_filter,
            "n": len(keys),
        }

    def spill(self, keys: set[str]) -> None:
        """Persist ``keys`` (disjoint from every existing run by the
        caller's invariant) as a new run; compact when over ``max_runs``
        (the merged run gets a fresh filter; the old ones go with their
        files)."""
        import pyarrow as pa

        if not keys:
            return
        parts = [pa.array(list(keys), pa.string())]
        if len(self._runs) + 1 > self.max_runs:
            parts = [self._read_run(r) for r in self._runs] + parts
            for r in self._runs:
                os.unlink(r["path"])
            self._runs = []
        self._runs.append(self._write_run(_sorted(parts)))

    def _read_run(self, run: dict):
        import pyarrow.parquet as pq

        return pq.read_table(run["path"], columns=["surt"])["surt"].combine_chunks()

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership over all runs: per run, only the keys its
        filter admits go on; each is routed to its row group via the fence
        index, only the row groups that received keys are read, and an
        Arrow ``is_in`` against the row group's column decides (its keys
        never become Python strings). Returns a bool mask aligned with
        ``keys``."""
        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        found = np.zeros(len(keys), dtype=bool)
        fp, h = _key_hashes(keys)
        for run in self._runs:
            todo = np.flatnonzero(~found)
            if not len(todo):
                break
            gated = todo[
                run["filter"].might_contain_many(fp[todo], h[todo])
            ]
            # row group of each gated key: rightmost fence <= key
            rg = np.searchsorted(run["fences"], keys[gated], side="right") - 1
            groups = np.unique(rg[rg >= 0])
            if not len(groups):
                continue
            pf = pq.ParquetFile(run["path"])
            for g in groups:
                sel = gated[rg == g]
                block = pf.read_row_group(int(g), columns=["surt"])["surt"]
                found[sel] = pc.is_in(
                    pa.array(keys[sel], pa.string()), value_set=block.combine_chunks()
                ).to_numpy(zero_copy_only=False)
        return found

    def all_keys(self, hot=()) -> list[str]:
        """Every spilled key and the keys ``hot``, which holds none of
        them, as one sorted list merged in Arrow — the snapshot /
        byte-parity read-back path."""
        import pyarrow as pa

        runs = [self._read_run(r) for r in self._runs]
        return _sorted(runs + [pa.array(list(hot), pa.string())]).to_pylist()

    def clear(self) -> None:
        for r in self._runs:
            if os.path.exists(r["path"]):
                os.unlink(r["path"])
        self._runs = []


class KeySpace:
    """One key space of a shard: the exact HOT set plus, under a spill
    threshold, the spill tier (:class:`SpilledRuns`, with one filter per
    run). The tier and its directory are made with the space's first key,
    so a space that never receives one leaves nothing on disk.

    The authoritative membership is hot ∪ spilled runs (disjoint: a key
    enters the hot set only when the full probe said unseen, and
    spilling moves the whole hot set). Probes are plain ``set`` lookups,
    O(batch) whatever the set's size; only when the spill tier holds
    keys do the hot-set misses go on to the runs, where each run's
    filter keeps the keys it never held off parquet."""

    def __init__(
        self,
        spill_dir: str | None = None,
        spill_threshold: int | None = None,
    ):
        self._exact: set[str] = set()
        # None threshold = resident-only, the small-crawl mode
        self._spill_dir = spill_dir
        self._spill_threshold = spill_threshold
        self._runs: SpilledRuns | None = None

    def _reset(self) -> None:
        if self._runs is not None:
            self._runs.clear()
        self._exact = set()

    def _spilling(self) -> bool:
        return self._runs is not None and self._runs.n_keys > 0

    def _spilled(self, keys: list[str], idx: list[int]) -> list[int]:
        """The positions in ``idx`` whose key is in the spill tier."""
        hit = self._runs.contains_many(
            np.asarray([keys[i] for i in idx], dtype=object)
        )
        return [i for i, h in zip(idx, hit) if h]

    def _absorb(self, keys: list[str]) -> None:
        self._exact.update(keys)
        if self._spill_threshold is None or not keys:
            return
        if self._runs is None:
            self._runs = SpilledRuns(
                self._spill_dir or tempfile.mkdtemp(prefix="seen_spill_")
            )
        if len(self._exact) >= self._spill_threshold:
            self._runs.spill(self._exact)
            self._exact = set()

    def first_new(self, keys: list[str]) -> list[bool]:
        """For each key: True at its first occurrence in ``keys`` when it
        was not seen before. Those keys are added (hot set, spill as
        configured)."""
        exact = self._exact
        batch: set[str] = set()
        mask = []
        for k in keys:
            new = k not in exact and k not in batch
            if new:
                batch.add(k)
            mask.append(new)
        if batch and self._spilling():
            for i in self._spilled(keys, [i for i, m in enumerate(mask) if m]):
                mask[i] = False
        self._absorb([k for k, m in zip(keys, mask) if m])
        return mask

    def contains(self, keys: list[str]) -> list[bool]:
        exact = self._exact
        mask = [k in exact for k in keys]
        if self._spilling():
            for i in self._spilled(keys, [i for i, m in enumerate(mask) if not m]):
                mask[i] = True
        return mask

    def snapshot(self) -> list[str]:
        """Sorted authoritative key list (hot ∪ spilled) — the
        byte-comparable representation; streams spilled runs back."""
        if not self._spilling():
            return sorted(self._exact)
        # a key is hot or spilled, never both: no set of every key
        return self._runs.all_keys(self._exact)

    def restore_from_parquet(
        self, paths: list[str], shard_id: int, n_shards: int
    ) -> int:
        """Replace this space with the keys of checkpoint delta files
        (column ``surt``, routing hash ``h64``) that shard ``shard_id``
        owns — the same ``shard_of`` routing as live adds. Returns the
        number of keys absorbed."""
        import pyarrow.parquet as pq

        self._reset()
        total = 0
        for p in paths:
            t = pq.read_table(p)
            keys = t["surt"].to_pylist()
            if "h64" in t.schema.names:
                # vectorized routing off the stored hash (no per-key sha1)
                h = t["h64"].to_numpy(zero_copy_only=False).astype(np.uint64)
                mask = (h % np.uint64(n_shards)).astype(np.int64) == shard_id
                mine = [k for k, m in zip(keys, mask) if m]
            else:  # legacy checkpoints without the hash column
                mine = [k for k in keys if shard_of(k, n_shards) == shard_id]
            self._absorb(mine)
            total += len(mine)
        return total

    def spill_stats(self) -> dict:
        """Test/observability hook: hot-set size + spill-tier layout."""
        return {
            "hot": len(self._exact),
            "spilled": 0 if self._runs is None else self._runs.n_keys,
            "runs": 0 if self._runs is None else self._runs.n_runs,
        }

    def __len__(self) -> int:
        n = len(self._exact)
        if self._runs is not None:
            n += self._runs.n_keys
        return n


def _slices(refs: list, bounds: list) -> list:
    """One shard's rows of blocks that their producer sorted by shard:
    rows ``start:stop`` (this shard's ``bounds`` entry) of each table
    behind ``refs``, as zero-copy slices; empty slices are skipped. A
    list argument is not auto-dereferenced by Ray, so the plasma reads
    happen here."""
    import ray

    return [
        t.slice(a, b - a) for t, (a, b) in zip(ray.get(list(refs)), bounds) if b > a
    ]


class SeenSet:
    """One shard's seen state for both key spaces of a crawl, so one
    actor per shard serves both: the URL space (SURT keys — ``add_if_new``,
    ``contains`` and the wave candidates' ``finalize_wave_split``) and the
    content space (payload hashes — the duplicate-content
    ``gate_first_seen``). Each space is its own :class:`KeySpace` (exact
    set, plus a spill tier under its own directory when a threshold is
    set). Both are built here; an empty resident space is an empty set,
    and a spill tier makes its directory only with the space's first
    key, so a crawl without the content gate leaves no content spill
    directory.

    Besides point membership, a shard resolves WAVE CANDIDATES in one
    call per wave, ``finalize_wave_split``: the driver hands it every
    candidate block of the wave by reference (each block sorted by
    ``shard_of`` in its fetch task, so the shard takes a zero-copy
    slice), plus the content gate's loser tables; the shard drops the
    losers' candidates, sorts the rest by the pinned order key (parent
    host, parent slot, link rank), takes the first occurrence of each
    unseen SURT, and returns the winner rows grouped by the frontier
    block of their host. A content-gated wave makes one
    ``gate_first_seen`` call per shard before it. The winner table stays
    in the object store: each of the next wave's fetch tasks takes its
    block's slice of every shard's table and numbers the rows itself —
    candidate URL strings reach the driver only as winners, and only
    when a checkpoint is written."""

    def __init__(
        self,
        spill_dir: str | None = None,
        spill_threshold: int | None = None,
        content_spill_dir: str | None = None,
    ):
        self._url = KeySpace(spill_dir, spill_threshold)
        self._content = KeySpace(content_spill_dir, spill_threshold)
        self._pending: dict[int, list] = {}

    def reset(self, *args, **kwargs) -> None:
        """Empty this shard and rebuild it with the next crawl's settings
        (the constructor's arguments). The old key spaces and pending
        candidates are dropped and collected BEFORE the new ones are
        built, so the process never holds both. Spill runs already on
        disk are left where they are, as a killed shard leaves them."""
        self._url = self._content = None
        self._pending = {}
        gc.collect()
        self.__init__(*args, **kwargs)

    def _space(self, space: str) -> KeySpace:
        if space == "url":
            return self._url
        if space == "content":
            return self._content
        raise ValueError(f"unknown key space {space!r}")

    def add_if_new(self, keys: list[str]) -> list[bool]:
        """For each URL key: True when newly added (first occurrence in
        the batch, not seen before)."""
        return self._url.first_new(keys)

    def contains(self, keys: list[str]) -> list[bool]:
        return self._url.contains(keys)

    def accept_routed_many(self, wave: int, refs: list, bounds: list) -> int:
        """Buffer this shard's candidates of ``wave``: its slice of each
        shared candidate block in ``refs`` (:func:`_slices`). Columns:
        url, surt, host, priority, hop, order_host, order_slot,
        order_rank. Returns the number of rows taken."""
        mine = _slices(refs, bounds)
        self._pending.setdefault(wave, []).extend(mine)
        return sum(t.num_rows for t in mine)

    def finalize_wave_split(
        self, wave: int, refs: list, bounds: list, loser_refs: list,
        want_surts: bool, n_parts: int,
    ):
        """The wave's one discovery call on this shard: take this shard's
        candidates (:meth:`accept_routed_many` of ``refs``/``bounds``),
        drop those whose parent fetch ``(order_host, order_slot)`` is a
        duplicate-content loser in any of ``loser_refs`` (every shard's
        :meth:`gate_first_seen` losers: a duplicate page discovers
        nothing), sort by the pinned order key (parent host, parent
        slot, link rank), and keep the first occurrence of each unseen
        SURT, adding it to the URL space.

        Returns ``(winners, small)``. ``winners`` (None when empty) is
        the winner table, stably sorted by the frontier block of its
        host (:func:`block_of_hosts` over ``n_parts`` blocks, written to
        a ``part`` column), so each block's rows stay in the pinned order
        and keep their order columns for the block's merge across
        shards. ``small`` is what the driver blocks on: the count ``n``,
        the unique ``hosts``, the SURT delta when ``want_surts``, and the
        ``n_parts + 1`` ``bounds`` of each block's slice."""
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray

        self.accept_routed_many(wave, refs, bounds)
        chunks = self._pending.pop(wave, [])
        losers = [t for t in ray.get(list(loser_refs)) if t.num_rows]
        w = None
        if chunks:
            t = pa.concat_tables(chunks)
            if losers:
                parents = pa.concat_tables(losers).rename_columns(
                    ["order_host", "order_slot"]
                )
                t = t.join(
                    parents, keys=["order_host", "order_slot"], join_type="left anti"
                )
            t = t.take(pc.sort_indices(t, sort_keys=PINNED_ORDER))
            # the table is sorted by the pinned order key (unique per
            # candidate), so a SURT's first occurrence is the correct one
            mask = self._url.first_new(t["surt"].to_pylist())
            w = t.filter(pa.array(mask, pa.bool_()))
        if w is None or w.num_rows == 0:
            return None, {
                "n": 0, "hosts": [], "surts": [], "bounds": [0] * (n_parts + 1)
            }
        blocks = block_of_hosts(w["host"], n_parts)
        w, block_bounds = routed(
            w.append_column("part", pa.array(blocks, pa.int32())), blocks, n_parts
        )
        return w, {
            "n": w.num_rows,
            "hosts": pc.unique(w["host"]).to_pylist(),
            "surts": w["surt"].to_pylist() if want_surts else [],
            "bounds": block_bounds,
        }

    def gate_first_seen(self, refs: list, bounds: list, want_keys: bool = False):
        """Content-seen gate (wave barrier of the duplicate-content
        rule): ``refs`` are the wave's per-block gate tables — columns
        ``key`` (content hash), ``host``, ``slot`` — each sorted by shard
        and shared by reference with every shard; ``bounds`` are this
        shard's slices (:func:`_slices`, the candidates' delivery shape).
        The shard sorts its rows by the pinned global fetch order (host,
        slot), keeps the FIRST occurrence of each key not already in the
        content space (adding it — hot set, spill as configured), and
        returns ``(losers, small)``: ``losers`` is the (host, slot) table
        of suppressed rows (duplicate content ⇒ the row contributes no
        candidates), ``small`` carries the newly seen keys when
        ``want_keys`` (checkpoint delta) plus the add count. Correctness
        needs only per-shard order: all occurrences of one key share its
        shard, and first-wins is per-key."""
        import pyarrow as pa
        import pyarrow.compute as pc

        mine = _slices(refs, bounds)
        if not mine:
            empty = pa.table(
                {"host": pa.array([], pa.string()), "slot": pa.array([], pa.int32())}
            )
            return empty, {"n_new": 0, "keys": []}
        t = pa.concat_tables(mine)
        t = t.take(
            pc.sort_indices(
                t, sort_keys=[("host", "ascending"), ("slot", "ascending")]
            )
        )
        keys = t["key"].to_pylist()
        first_new = self._content.first_new(keys)
        new = [k for k, m in zip(keys, first_new) if m]
        # a row loses when its key was seen before it in the pinned
        # order: everything except the first-new rows of unseen keys
        losers = t.filter(pa.array([not m for m in first_new], pa.bool_()))
        return losers.select(["host", "slot"]), {
            "n_new": len(new), "keys": new if want_keys else []
        }

    def snapshot(self, space: str = "url") -> list[str]:
        """Sorted authoritative key list of one space."""
        return self._space(space).snapshot()

    def restore_from_parquet(
        self, paths: list[str], shard_id: int, n_shards: int, space: str = "url"
    ) -> int:
        """Shard-side checkpoint resume (round-4, VERDICT r3 #2): read
        the checkpoint's delta parquet files HERE (``seen_delta`` for the
        URL space, ``content_delta`` for the content space), keep only
        the keys this shard owns, absorb them into the hot set, spill as
        configured. The driver passes paths, never key lists.
        Returns the number of keys absorbed."""
        return self._space(space).restore_from_parquet(paths, shard_id, n_shards)

    def spill_stats(self) -> dict:
        return self._url.spill_stats()

    def __len__(self) -> int:
        return len(self._url)


# SeenSet actors parked by SeenShardPool.park() for the next pool of the
# same Ray session, under its (node id, job id): a handle never crosses
# ray.shutdown()/ray.init(), where a new session may reuse the job id but
# not the node id.
_IDLE_LOCK = threading.Lock()
_IDLE: dict[tuple[str, str], list] = {}


def _ray_session() -> tuple[str, str]:
    import ray

    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id()


def _take_idle(n: int) -> list:
    """Up to ``n`` parked handles of the current session; handles parked
    by an ended session are dropped, never called."""
    import ray

    if not ray.is_initialized():
        return []
    session = _ray_session()
    with _IDLE_LOCK:
        idle = _IDLE.pop(session, [])
        _IDLE.clear()
        _IDLE[session] = idle[n:]
    return idle[:n]


class SeenShardPool:
    """Driver-side facade over ``n_shards`` SeenSet actors: ONE actor per
    shard holds both key spaces, so a content-gated crawl runs
    ``n_shards`` actors, not twice that. With a ``spill_dir``, shard
    ``i`` spills its URL keys under ``<spill_dir>/shard_i`` and its
    content keys under ``<spill_dir>/content/shard_i``.

    The actors outlive the pool: ``park()`` empties them and hands them
    to the next pool of the same Ray session, which resets them to its
    own settings instead of starting new processes (a new actor spends
    most of a CPU second starting up). ``close()`` kills them instead.
    Parked actors are empty and die with the session. Their number needs
    no cap: it is bounded by the largest number of shards in use at once
    in the session.

    Batch calls are partitioned by shard and issued concurrently; results
    are re-assembled in input order. Construction is lazy so the module
    imports without Ray initialised (driver contract)."""

    def __init__(
        self,
        n_shards: int,
        spill_dir: str | None = None,
        spill_threshold: int | None = None,
    ):
        import ray

        def under(*parts):
            return None if spill_dir is None else os.path.join(spill_dir, *parts)

        def settings(i):
            return dict(
                spill_dir=under(f"shard_{i:03d}"),
                spill_threshold=spill_threshold,
                content_spill_dir=under("content", f"shard_{i:03d}"),
            )

        self.n_shards = n_shards
        idle = _take_idle(n_shards)
        resets = [h.reset.remote(**settings(i)) for i, h in enumerate(idle)]
        shard_cls = ray.remote(num_cpus=0)(SeenSet)
        self._shards = [
            idle[i] if i < len(idle) and _reset_ok(idle[i], resets[i])
            else shard_cls.remote(**settings(i))
            for i in range(n_shards)
        ]

    @property
    def shards(self):
        """Actor handles (picklable) — the driver routes candidate and
        gate blocks to them by reference."""
        return self._shards

    def gate_first_seen(
        self, refs: list, bounds: list, want_keys: bool
    ) -> tuple[list, list]:
        """(loser_table_refs, small_dict_refs): one ``gate_first_seen``
        call per shard over the wave's gate blocks ``refs``, whose
        per-block ``bounds`` (``n_shards + 1`` offsets each) give every
        shard its slice."""
        pairs = [
            s.gate_first_seen.options(num_returns=2).remote(
                refs, [(b[i], b[i + 1]) for b in bounds], want_keys
            )
            for i, s in enumerate(self._shards)
        ]
        return [p[0] for p in pairs], [p[1] for p in pairs]

    def finalize_wave_split(
        self, wave: int, refs: list, bounds: list, loser_refs: list,
        want_surts: bool, n_parts: int,
    ) -> tuple[list, list]:
        """(winner_table_refs, small_dict_refs): one ``finalize_wave_split``
        call per shard over the wave's candidate blocks ``refs`` (sliced
        by their per-block ``bounds``, as in :meth:`gate_first_seen`) and
        the gate's ``loser_refs``, the winners grouped into ``n_parts``
        frontier blocks. The tables stay remote for the next wave's fetch
        tasks; the smalls are what the driver blocks on (counts, hosts,
        block bounds, optional SURT delta)."""
        pairs = [
            s.finalize_wave_split.options(num_returns=2).remote(
                wave, refs, [(b[i], b[i + 1]) for b in bounds], loser_refs,
                want_surts, n_parts,
            )
            for i, s in enumerate(self._shards)
        ]
        return [p[0] for p in pairs], [p[1] for p in pairs]

    def add_if_new(self, keys: list[str]) -> list[bool]:
        hashes = [stable_hash64(k, _SHARD_SEED) for k in keys]
        return self.add_if_new_hashed(keys, hashes)

    def add_if_new_hashed(self, keys: list[str], hash64s) -> list[bool]:
        """add_if_new with the shard hashes precomputed (e.g. by the
        chunked remote canonicalization tasks) — driver routing is one
        numpy modulo + argsort instead of a per-key Python loop."""
        import ray

        if not keys:
            return []
        shards = (
            np.asarray(hash64s, dtype=np.uint64) % np.uint64(self.n_shards)
        ).astype(np.int64)
        order = np.argsort(shards, kind="stable")
        sorted_shards = shards[order]
        bounds = np.searchsorted(sorted_shards, np.arange(self.n_shards + 1))
        refs = []
        for s in range(self.n_shards):
            a, b = int(bounds[s]), int(bounds[s + 1])
            if b > a:
                refs.append(
                    (a, b, self._shards[s].add_if_new.remote(
                        [keys[i] for i in order[a:b]]
                    ))
                )
        out = np.zeros(len(keys), dtype=bool)
        for a, b, ref in refs:
            out[order[a:b]] = ray.get(ref)
        return out.tolist()

    def snapshot(self) -> list[list[str]]:
        import ray

        return ray.get([s.snapshot.remote() for s in self._shards])

    def restore_from_parquet(self, paths: list[str], space: str = "url") -> list[int]:
        """Shard-side checkpoint resume of one key space: each shard
        actor reads the delta parquet files itself and keeps only its
        slice — the driver holds PATHS, never keys, so resume cost on the
        driver is O(#waves), not O(total seen). Returns per-shard
        absorbed counts."""
        import ray

        return ray.get(
            [
                s.restore_from_parquet.remote(paths, i, self.n_shards, space)
                for i, s in enumerate(self._shards)
            ]
        )

    def all_keys_sorted(self) -> list[str]:
        """The byte-comparable global representation: sorted union."""
        out: list[str] = []
        for snap in self.snapshot():
            out.extend(snap)
        return sorted(out)

    def park(self) -> None:
        """Reset every shard to empty and park it for the next pool of this
        Ray session (a shard whose reset fails is killed instead). The
        pool must not be used afterwards: its actors belong to the next
        pool that takes them."""
        resets = [s.reset.remote() for s in self._shards]
        parked = [s for s, ref in zip(self._shards, resets) if _reset_ok(s, ref)]
        session = _ray_session()
        with _IDLE_LOCK:
            _IDLE.setdefault(session, []).extend(parked)

    def close(self) -> None:
        """Kill every shard actor now, instead of when the last handle
        is dropped (a traceback that holds the pool would keep the shard
        processes and their key spaces alive). Any later call on a
        handle raises ``RayActorError``."""
        import ray

        for s in self._shards:
            # ray.kill is asynchronous: a warm actor can still run a call
            # made right after it. The exit task is queued ahead of any
            # later call from this process, so that call fails either way.
            s.__ray_terminate__.remote()
            ray.kill(s, no_restart=True)


def _reset_ok(handle, ref) -> bool:
    """Wait for a ``SeenSet.reset``; a shard that died or failed its reset
    is killed and reported unusable."""
    import ray

    try:
        ray.get(ref)
    except ray.exceptions.RayError:
        ray.kill(handle, no_restart=True)
        return False
    return True
