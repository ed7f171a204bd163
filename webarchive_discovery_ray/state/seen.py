"""Sharded URL-seen set: cuckoo-filter-accelerated exact membership actors.

New construction per BASELINE.json north_rule (the reference leaves URL
dedup to post-hoc MDX hash grouping and notes the non-scalable Solr
dup-check at ``WARCIndexer.java:184-187``). Design per SURVEY.md §2.7/§7.4
and the north star's sharded cuckoo-filter seen set with Bloom fallback:

* keys are SURT URL keys, routed to ``hash(surt) % n_shards`` actor shards;
  the same actor holds a second, separate key space for the
  duplicate-content gate (payload hashes, same routing), so a crawl runs
  one actor per shard whichever gates are on;
* each shard holds a CUCKOO filter (2-choice bucketed 16-bit fingerprints,
  xor-partial-key relocation — supports delete, unlike Bloom) as the fast
  *definitely-new* path, plus the exact Python set as the authoritative
  membership store — probabilistic structures are accelerators only,
  because the north rule demands byte-identical final seen sets vs the
  oracle. When a cuckoo insert fails (filter saturated), the shard falls
  back to a Bloom filter for the overflow — the north star's
  bloom-fallback-for-spill-partitions rule;
* snapshots serialise the sorted key list (the byte-comparable
  representation) for checkpoint/resume;
* SPILL TIER (round-4): past a configurable hot-set size each shard
  persists its exact keys to sorted parquet runs on local disk and keeps
  only the filters + the hot (not-yet-spilled) set in RAM. Membership is
  an LSM-style probe: filter-negative -> definitely new (no IO);
  filter-positive and not in the hot set -> binary-search the per-run
  row-group fence index held in RAM (1/row_group_size of the keys) and
  read exactly the needed row groups. Runs are disjoint by construction
  (a key enters the hot set only when globally unseen), and tiered
  compaction folds runs together when their count crosses a bound, so a
  probe touches O(log) runs. This is what lets a shard hold its slice of
  a 10^10-URL seen set with bounded RAM while the byte-identical-seen-set
  rule still holds (``snapshot`` streams the runs back).
"""

from __future__ import annotations

import gc
import hashlib
import os
import threading

import numpy as np

from ..functions.hashing import stable_hash64

__all__ = [
    "BloomFilter",
    "CuckooFilter",
    "KeySpace",
    "SeenSet",
    "SpilledRuns",
    "shard_of",
    "SeenShardPool",
]

_SHARD_SEED = 7


def shard_of(key: str, n_shards: int) -> int:
    return stable_hash64(key, _SHARD_SEED) % n_shards


class BloomFilter:
    """Minimal deterministic Bloom filter over strings."""

    def __init__(self, n_bits: int = 1 << 20, k: int = 4):
        self.n_bits = n_bits
        self.k = k
        self.bits = np.zeros(n_bits // 8 + 1, dtype=np.uint8)

    def _positions(self, key: str) -> list[int]:
        d = hashlib.sha1(key.encode("utf-8")).digest()
        h1 = int.from_bytes(d[:8], "big")
        h2 = int.from_bytes(d[8:16], "big") | 1
        return [((h1 + i * h2) % self.n_bits) for i in range(self.k)]

    def add(self, key: str) -> None:
        for p in self._positions(key):
            self.bits[p >> 3] |= 1 << (p & 7)

    def add_many(self, keys: list[str]) -> None:
        """Batched add: one vectorized scatter instead of per-key numpy
        ops (the wave-barrier path — shards absorb whole winner lists)."""
        if not keys:
            return
        n_bits, k = self.n_bits, self.k
        pos = np.empty(len(keys) * k, dtype=np.int64)
        j = 0
        for key in keys:
            d = hashlib.sha1(key.encode("utf-8")).digest()
            h1 = int.from_bytes(d[:8], "big")
            h2 = int.from_bytes(d[8:16], "big") | 1
            for i in range(k):
                pos[j] = (h1 + i * h2) % n_bits
                j += 1
        np.bitwise_or.at(
            self.bits, pos >> 3, (1 << (pos & 7)).astype(np.uint8)
        )

    def might_contain(self, key: str) -> bool:
        return all(self.bits[p >> 3] & (1 << (p & 7)) for p in self._positions(key))


class CuckooFilter:
    """Deterministic cuckoo filter (Fan et al., CoNEXT'14 construction):
    ``n_buckets`` (power of two) buckets of ``bucket_size`` 16-bit
    fingerprints; candidate buckets ``i1 = H(key)`` and
    ``i2 = i1 ^ H(fp)`` (xor partial-key — an involution, so either
    bucket recovers the other from the stored fingerprint alone), with
    bounded random-walk relocation on insert. Supports delete, which
    Bloom cannot; ~95% load factor at bucket_size 4.

    ``add`` returns False when the relocation walk fails (filter full) —
    the caller is expected to fall back (SeenSet uses a Bloom overflow)."""

    MAX_KICKS = 500

    def __init__(self, n_buckets: int = 1 << 16, bucket_size: int = 4):
        assert n_buckets & (n_buckets - 1) == 0, "n_buckets must be a power of two"
        self.n_buckets = n_buckets
        self.bucket_size = bucket_size
        # buckets as plain Python lists: scalar membership (`fp in row`)
        # and slot writes are ~10x cheaper than per-key numpy ops on
        # 4-element rows — this class sits on the wave-barrier hot path
        self.table: list[list[int]] = [
            [0] * bucket_size for _ in range(n_buckets)
        ]
        self.count = 0
        # memoized H(fp) for the alt-index involution (fp space is 16-bit;
        # walks and probes revisit the same fingerprints constantly)
        self._alt_cache: dict[int, int] = {}
        # victim stash: a failed relocation walk must NOT drop the evicted
        # fingerprint (that would be a false negative for an EARLIER key);
        # the homeless (bucket, fp) pair parks here
        self.stash: set[tuple[int, int]] = set()
        # set on the first failed walk: callers should stop inserting here
        # (lookups stay valid) — without this every post-saturation add
        # would pay the full MAX_KICKS walk and grow the stash unboundedly
        self.saturated = False

    def _fp_and_index(self, key: str) -> tuple[int, int]:
        d = hashlib.sha1(key.encode("utf-8")).digest()
        fp = int.from_bytes(d[:2], "big") or 1  # 0 marks an empty slot
        i1 = int.from_bytes(d[2:10], "big") & (self.n_buckets - 1)
        return fp, i1

    def _alt_index(self, i: int, fp: int) -> int:
        # xor with a hash of the fingerprint (mod 2^k keeps the involution)
        h = self._alt_cache.get(fp)
        if h is None:
            h = self._alt_cache[fp] = int.from_bytes(
                hashlib.sha1(fp.to_bytes(2, "big")).digest()[:8], "big"
            )
        return (i ^ h) & (self.n_buckets - 1)

    def _bucket_insert(self, i: int, fp: int) -> bool:
        row = self.table[i]
        for s in range(self.bucket_size):
            if row[s] == 0:
                row[s] = fp
                return True
        return False

    def add(self, key: str) -> bool:
        fp, i1 = self._fp_and_index(key)
        i2 = self._alt_index(i1, fp)
        if self._bucket_insert(i1, fp) or self._bucket_insert(i2, fp):
            self.count += 1
            return True
        # relocation walk (deterministic slot choice keeps runs replayable)
        i = i1 if (fp & 1) else i2
        for kick in range(self.MAX_KICKS):
            slot = (fp + kick) % self.bucket_size
            row = self.table[i]
            fp, row[slot] = row[slot], fp
            i = self._alt_index(i, fp)
            if self._bucket_insert(i, fp):
                self.count += 1
                return True
        # walk failed: park the homeless victim in the stash (it belongs
        # to an EARLIER key — dropping it would create a false negative;
        # the walk's swaps keep the table's population constant, so the
        # net effect of this add is +1 stored fingerprint: the new key's)
        # and signal saturation so the caller engages its fallback for
        # THIS key and every later one
        self.stash.add((i, fp))
        self.count += 1
        self.saturated = True
        return False

    def add_many(self, keys: list[str]) -> list[bool]:
        """Batched add with the same per-key semantics as :meth:`add`
        (including walks/stash/saturation) but one tight loop — the
        fast common case (an empty slot in bucket 1 or 2) costs a digest
        plus a few list ops."""
        out = []
        table = self.table
        rng = range(self.bucket_size)
        for key in keys:
            if self.saturated:
                out.append(False)
                continue
            d = hashlib.sha1(key.encode("utf-8")).digest()
            fp = int.from_bytes(d[:2], "big") or 1
            i1 = int.from_bytes(d[2:10], "big") & (self.n_buckets - 1)
            placed = False
            row = table[i1]
            for s in rng:
                if row[s] == 0:
                    row[s] = fp
                    placed = True
                    break
            if not placed:
                row = table[self._alt_index(i1, fp)]
                for s in rng:
                    if row[s] == 0:
                        row[s] = fp
                        placed = True
                        break
            if placed:
                self.count += 1
                out.append(True)
            else:
                # rare: both buckets full — take the full relocation-walk
                # path (which does its own counting/stash/saturation)
                out.append(self.add(key))
        return out

    def might_contain(self, key: str) -> bool:
        fp, i1 = self._fp_and_index(key)
        if fp in self.table[i1]:
            return True
        i2 = self._alt_index(i1, fp)
        if fp in self.table[i2]:
            return True
        return bool(self.stash) and (
            (i1, fp) in self.stash or (i2, fp) in self.stash
        )

    def delete(self, key: str) -> bool:
        fp, i1 = self._fp_and_index(key)
        for i in (i1, self._alt_index(i1, fp)):
            row = self.table[i]
            for s in range(self.bucket_size):
                if row[s] == fp:
                    row[s] = 0
                    self.count -= 1
                    return True
            if (i, fp) in self.stash:
                self.stash.discard((i, fp))
                self.count -= 1
                return True
        return False


class SpilledRuns:
    """Per-shard on-disk tier of the exact seen set: sorted, mutually
    disjoint parquet runs with an in-RAM row-group fence index.

    Each run is ONE parquet file holding a single sorted ``surt`` string
    column written with ``row_group_size = fence_every``; the fences (the
    first key of every row group) stay in RAM, so a membership probe is
    ``searchsorted`` over the fences followed by reading exactly the row
    groups that could contain the queried keys. RAM cost per run is
    ~len(run)/fence_every keys; probe IO is one row group per hit range.

    Tiered compaction: when the run count exceeds ``max_runs``, all runs
    merge into one (numpy sorted merge of disjoint sorted arrays =
    concatenate + sort) — classic LSM amortisation, O(n log n) total
    write volume over a shard's lifetime."""

    def __init__(self, spill_dir: str, fence_every: int = 4096, max_runs: int = 8):
        self.spill_dir = spill_dir
        self.fence_every = fence_every
        self.max_runs = max_runs
        self._runs: list[dict] = []  # {path, fences(np object), n}
        self._next_id = 0
        os.makedirs(spill_dir, exist_ok=True)

    @property
    def n_keys(self) -> int:
        return sum(r["n"] for r in self._runs)

    @property
    def n_runs(self) -> int:
        return len(self._runs)

    def _write_run(self, sorted_keys: np.ndarray) -> dict:
        import pyarrow as pa
        import pyarrow.parquet as pq

        path = os.path.join(self.spill_dir, f"run_{self._next_id:06d}.parquet")
        self._next_id += 1
        pq.write_table(
            pa.table({"surt": pa.array(sorted_keys, type=pa.string())}),
            path,
            row_group_size=self.fence_every,
        )
        fences = sorted_keys[:: self.fence_every].copy()
        return {"path": path, "fences": fences, "n": len(sorted_keys)}

    def spill(self, keys: set[str]) -> None:
        """Persist ``keys`` (disjoint from every existing run by the
        caller's invariant) as a new run; compact when over ``max_runs``."""
        if not keys:
            return
        arr = np.sort(np.asarray(list(keys), dtype=object))
        if len(self._runs) + 1 > self.max_runs:
            merged = np.sort(
                np.concatenate([self._read_run(r) for r in self._runs] + [arr])
            )
            for r in self._runs:
                os.unlink(r["path"])
            self._runs = [self._write_run(merged)]
        else:
            self._runs.append(self._write_run(arr))

    def _read_run(self, run: dict) -> np.ndarray:
        import pyarrow.parquet as pq

        return np.asarray(
            pq.read_table(run["path"], columns=["surt"])["surt"].to_pylist(),
            dtype=object,
        )

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership over all runs: per run, route each query
        key to its row group via the fence index, read only the row groups
        that received queries, binary-search inside. Returns a bool mask
        aligned with ``keys``."""
        import pyarrow.parquet as pq

        found = np.zeros(len(keys), dtype=bool)
        if not len(keys):
            return found
        for run in self._runs:
            todo = ~found
            if not todo.any():
                break
            q = keys[todo]
            # row group of each query: rightmost fence <= key
            rg = np.searchsorted(run["fences"], q, side="right") - 1
            valid = rg >= 0
            if not valid.any():
                continue
            pf = pq.ParquetFile(run["path"])
            hit = np.zeros(len(q), dtype=bool)
            for g in np.unique(rg[valid]):
                sel = valid & (rg == g)
                block = np.asarray(
                    pf.read_row_group(int(g), columns=["surt"])["surt"].to_pylist(),
                    dtype=object,
                )
                pos = np.searchsorted(block, q[sel])
                pos_ok = pos < len(block)
                eq = np.zeros(sel.sum(), dtype=bool)
                if pos_ok.any():
                    eq[pos_ok] = block[pos[pos_ok]] == q[sel][pos_ok]
                hit[sel] = eq
            idx = np.flatnonzero(todo)
            found[idx[hit]] = True
        return found

    def all_keys(self) -> list[str]:
        """Every spilled key (sorted merge across runs) — the snapshot /
        byte-parity read-back path."""
        if not self._runs:
            return []
        return np.sort(
            np.concatenate([self._read_run(r) for r in self._runs])
        ).tolist()

    def clear(self) -> None:
        for r in self._runs:
            if os.path.exists(r["path"]):
                os.unlink(r["path"])
        self._runs = []


class KeySpace:
    """One key space of a shard: the exact HOT set, the cuckoo
    accelerator (+ Bloom overflow) and the optional spill tier.

    The authoritative membership is hot ∪ spilled runs (disjoint: a key
    enters the hot set only when the full probe said unseen, and
    spilling moves the whole hot set). Probes are plain ``set`` lookups,
    O(batch) whatever the set's size; only when the spill tier holds
    keys do the hot-set misses take the filter-gated probe of the runs
    (filter negative = definitely never added, no IO)."""

    def __init__(
        self,
        n_bits: int = 1 << 20,
        spill_dir: str | None = None,
        spill_threshold: int | None = None,
    ):
        self._n_bits = n_bits
        # cuckoo slots sized n_bits/4 (4 slots/bucket = n_bits/16 buckets,
        # ~0.5 MB at the 1M-bit default); Bloom engages only as the
        # overflow fallback once the cuckoo walk first fails
        self._cuckoo = CuckooFilter(n_buckets=max(1 << 10, n_bits >> 4))
        self._bloom: BloomFilter | None = None
        self._exact: set[str] = set()
        # SPILL tier (None threshold = resident-only, the small-crawl mode)
        self._spill_threshold = spill_threshold
        self._runs: SpilledRuns | None = None
        if spill_threshold is not None:
            if spill_dir is None:
                import tempfile

                spill_dir = tempfile.mkdtemp(prefix="seen_spill_")
            self._runs = SpilledRuns(spill_dir)

    def _reset(self) -> None:
        if self._runs is not None:
            self._runs.clear()
        self._exact = set()
        self._cuckoo = CuckooFilter(n_buckets=max(1 << 10, self._n_bits >> 4))
        self._bloom = None

    def _maybe_spill(self) -> None:
        if (
            self._spill_threshold is not None
            and len(self._exact) >= self._spill_threshold
        ):
            self._runs.spill(self._exact)
            self._exact = set()

    def _spilling(self) -> bool:
        return self._runs is not None and self._runs.n_keys > 0

    def _spilled(self, keys: list[str], idx: list[int]) -> list[int]:
        """The positions in ``idx`` whose key is in the spill tier; only
        the accelerator's positives touch parquet."""
        gated = [i for i in idx if self._acc_might_contain(keys[i])]
        if not gated:
            return []
        hit = self._runs.contains_many(
            np.asarray([keys[i] for i in gated], dtype=object)
        )
        return [i for i, h in zip(gated, hit) if h]

    def _acc_add_many(self, keys: list[str]) -> None:
        """Batched accelerator add: cuckoo add_many, overflow failures go
        to the Bloom in ONE vectorized scatter."""
        if not keys:
            return
        ok = self._cuckoo.add_many(keys)
        spill = [k for k, o in zip(keys, ok) if not o]
        if spill:
            if self._bloom is None:  # overflow fallback (north-star rule)
                self._bloom = BloomFilter(self._n_bits)
            self._bloom.add_many(spill)

    def _acc_might_contain(self, key: str) -> bool:
        return self._cuckoo.might_contain(key) or (
            self._bloom is not None and self._bloom.might_contain(key)
        )

    def _absorb(self, keys: list[str]) -> None:
        self._exact.update(keys)
        self._acc_add_many(keys)
        self._maybe_spill()

    def first_new(self, keys: list[str]) -> list[bool]:
        """For each key: True at its first occurrence in ``keys`` when it
        was not seen before. Those keys are added (hot set, one batched
        accelerator add, spill as configured)."""
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
        return sorted(set(self._runs.all_keys()) | self._exact)

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


class SeenSet:
    """One shard's seen state for both key spaces of a crawl, so one
    actor per shard serves both: the URL space (SURT keys — ``add_if_new``,
    ``contains`` and the wave candidates' ``finalize_wave``) and the
    content space (payload hashes — the duplicate-content
    ``gate_first_seen``). Each space is its own :class:`KeySpace` (exact
    set, cuckoo filter with Bloom fallback, spill tier under its own
    directory); the content space is built on first use, so a crawl
    without the content gate never allocates it.

    Besides point membership, a shard resolves WAVE CANDIDATES: the
    driver routes candidate blocks to it by reference
    (``accept_routed_many``; keys pre-routed by ``shard_of``), and at the
    wave barrier ``finalize_wave`` sorts the shard's candidates by the
    pinned global order key (parent host, parent slot, link rank), takes
    the first occurrence of each unseen SURT, and returns the winner
    rows. The driver then only merges per-shard winner order keys to
    assign global ``seq`` numbers — candidate URL strings never cross
    the driver except as winners."""

    def __init__(
        self,
        n_bits: int = 1 << 20,
        spill_dir: str | None = None,
        spill_threshold: int | None = None,
        content_spill_dir: str | None = None,
    ):
        self._url = KeySpace(n_bits, spill_dir, spill_threshold)
        self._content: KeySpace | None = None
        self._content_args = (n_bits, content_spill_dir, spill_threshold)
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
        if space != "content":
            raise ValueError(f"unknown key space {space!r}")
        if self._content is None:
            self._content = KeySpace(*self._content_args)
        return self._content

    def add_if_new(self, keys: list[str]) -> list[bool]:
        """For each URL key: True when newly added (first occurrence in
        the batch, not seen before)."""
        return self._url.first_new(keys)

    def contains(self, keys: list[str]) -> list[bool]:
        return self._url.contains(keys)

    def accept(self, wave: int, tbl) -> int:
        """Buffer a candidate table chunk for ``wave``. Columns: url,
        surt, host, priority, hop, order_host, order_slot, order_rank."""
        self._pending.setdefault(wave, []).append(tbl)
        return tbl.num_rows

    def accept_routed_many(self, wave: int, refs: list, bounds: list) -> int:
        """Batched delivery: ONE actor call per shard per wave. ``refs``
        is the wave's full list of shared candidate-block ObjectRefs (a
        list argument is not auto-dereferenced by Ray, so the plasma reads
        happen here — still zero-copy). ``bounds`` carries this shard's
        (start, stop) slice per block (the split task sorts each block by
        shard), so taking our rows is a zero-copy SLICE."""
        import ray

        total = 0
        for tbl, (start, stop) in zip(ray.get(list(refs)), bounds):
            if stop > start:
                self.accept(wave, tbl.slice(start, stop - start))
                total += stop - start
        return total

    def finalize_wave(self, wave: int):
        """Wave barrier: sort this shard's candidates by the global order
        key, keep the first occurrence of each unseen SURT (adding it to
        the seen set), and return the winner table (order columns kept so
        the driver can merge shards for seq assignment)."""
        import pyarrow as pa
        import pyarrow.compute as pc

        chunks = self._pending.pop(wave, [])
        if not chunks:
            return None
        t = pa.concat_tables(chunks)
        t = t.take(
            pc.sort_indices(
                t,
                sort_keys=[
                    ("order_host", "ascending"),
                    ("order_slot", "ascending"),
                    ("order_rank", "ascending"),
                ],
            )
        )
        # the table is sorted by the pinned order key, so a SURT's first
        # occurrence is the correct one
        mask = self._url.first_new(t["surt"].to_pylist())
        w = t.filter(pa.array(mask, pa.bool_()))
        return w if w.num_rows else None

    def finalize_wave_split(self, wave: int, want_surts: bool, n_samples: int):
        """Two-object finalize for the parallel winners merge: (winners
        table, small dict). The small dict carries everything the DRIVER
        needs (count, unique hosts, optional SURT delta, and evenly-spaced
        ``order_host`` samples for range-boundary selection) so the heavy
        merge/sort/partition can run in range-parallel tasks off the
        driver's critical path."""
        w = self.finalize_wave(wave)
        if w is None:
            return None, {"n": 0, "hosts": [], "surts": [], "samples": []}
        import pyarrow as pa
        import pyarrow.compute as pc

        oh = w["order_host"]
        idx = np.linspace(0, w.num_rows - 1, num=min(n_samples, w.num_rows))
        samples = oh.take(pa.array(idx.astype(np.int64))).to_pylist()
        return w, {
            "n": w.num_rows,
            "hosts": pc.unique(w["host"]).to_pylist(),
            "surts": w["surt"].to_pylist() if want_surts else [],
            "samples": samples,
        }

    def gate_first_seen(
        self, refs: list, shard_id: int, want_keys: bool = False
    ):
        """Content-seen gate (wave barrier of the duplicate-content
        rule): ``refs`` are the wave's per-block gate tables — columns
        ``key`` (content hash), ``host``, ``slot``, ``shard`` — shared
        by reference with every shard (same delivery shape as
        ``accept_routed_many``). This shard takes its ``shard`` rows,
        sorts them by the pinned global fetch order (host, slot), keeps
        the FIRST occurrence of each key not already in the content
        space (adding it — exact set + accelerator + spill tier), and
        returns ``(losers, small)``: ``losers`` is the (host, slot) table
        of suppressed rows (duplicate content ⇒ the row contributes no
        candidates), ``small`` carries the newly seen keys when
        ``want_keys`` (checkpoint delta) plus the add count. Correctness
        needs only per-shard order: all occurrences of one key share its
        shard, and first-wins is per-key."""
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray

        mine = []
        for tbl in ray.get(list(refs)):
            if tbl.num_rows:
                part = tbl.filter(pc.equal(tbl["shard"], shard_id))
                if part.num_rows:
                    mine.append(part)
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
        first_new = self._space("content").first_new(keys)
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
        the keys this shard owns, absorb them into filters + hot set,
        spill as configured. The driver passes paths, never key lists.
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
        n_bits: int = 1 << 20,
        spill_dir: str | None = None,
        spill_threshold: int | None = None,
    ):
        import ray

        def under(*parts):
            return None if spill_dir is None else os.path.join(spill_dir, *parts)

        def settings(i):
            return dict(
                n_bits=n_bits,
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

    def finalize_wave_split(
        self, wave: int, want_surts: bool, n_samples: int = 33
    ) -> tuple[list, list]:
        """(winner_table_refs, small_dict_refs) per shard: the tables stay
        remote for the range-parallel merge; the smalls are what the
        driver blocks on (counts, hosts, samples, optional SURT delta)."""
        pairs = [
            s.finalize_wave_split.options(num_returns=2).remote(
                wave, want_surts, n_samples
            )
            for s in self._shards
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
