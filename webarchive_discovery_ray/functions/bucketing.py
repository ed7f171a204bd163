"""Bucketed grouped passes — the repo's scale-safe alternative to raw-key
``groupby`` — and the size rule that picks how each one runs.

Measured on this Ray version (see BASELINE.md "grouped-pass discipline"):
``Dataset.groupby(key).aggregate(...)`` over raw rows costs ~1.3 ms/row of
Python-side accumulate (a 235k-row Count took 33-37 s at 32 CPUs under both
sort- and hash-shuffle strategies), and ``groupby(key).map_groups(fn)``
pays one Python ``fn`` call per DISTINCT key. Both are fine when the input
is pre-aggregated/small; both are pathological over per-token / per-URL /
per-user row streams.

The bucketed pass keeps the SAME co-location guarantee with bounded group
count: attach ``bucket = stable_hash(key) % n_buckets`` (vectorized), hand
each bucket to the pipeline's fold, and do the real per-key grouping
INSIDE the fold with vectorized pandas kernels. All rows of a key land in
one bucket, so any per-key computation stays exact; skew is bounded by the
hash (salt the key first if one key dominates a bucket).

The size rule. ``keyed_fold`` materializes its tagged input (the exchange
barriers it anyway) and reads its size:

- below ``TARGET_BLOCK_BYTES`` (16 MiB) the whole input goes to ONE
  remote task as one pandas frame, which folds every bucket in ascending
  bucket order into one block. A sort exchange over a few kilobytes is all
  fixed cost (task scheduling per block, per partition, per reducer; cf.
  Hyper Dimension Shuffle, VLDB'19), and on the benchmark's corpus
  passes it dominated the fold itself;
- at or above it, ``groupby("bucket").map_groups(fold)`` runs over the
  input re-pinned to ``ceil(size / TARGET_BLOCK_BYTES)`` blocks
  (:func:`coalesce_blocks`), so the exchange is data-sized.

Both paths hand the fold the same frames (one bucket, fresh index) and
yield the same rows in the same bucket order, and the one-task path holds
at most ``TARGET_BLOCK_BYTES`` of input. A loop whose whole state is one
small table can apply the same rule one level up with
:func:`in_one_task`: below the constant every round runs inside one
task. Only BPE training does (its merge rounds are the curate
benchmark's largest pass); the other small-state loops (unigram EM,
PageRank, label propagation) run their distributed rounds, each pass of
which is one task anyway.

``keyed_fold`` (with its tagging half ``bucketed``) is the only way
pipelines build a bucketed pass: a pipeline supplies its per-batch
partial, its key and its in-bucket fold, and only this module knows the
bucket count, the ``bucket`` column, the empty-upstream rule and the two
execution paths. It is also the one place to re-test Ray's hash shuffle
(keyed ``repartition``) on a later Ray: on this build it measured ~11x
slower than the bucketed pass, and raises under the default sort shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

__all__ = [
    "TARGET_BLOCK_BYTES",
    "bucket_of",
    "default_buckets",
    "coalesce_blocks",
    "bucketed",
    "keyed_fold",
    "in_one_task",
    "sum_in_bucket",
    "typed_empty",
]

_KNUTH = np.uint64(2654435761)

# the one size constant: exchange block size, and the input size below
# which a grouped pass or a small-state loop runs in one task
TARGET_BLOCK_BYTES = 16 << 20


def bucket_of(values: pd.Series, n_buckets: int) -> pd.Series:
    """Stable int32 bucket id per value (int or string keys; vectorized).

    Only co-location matters — the hash need not match any other engine's.
    Ints use a Knuth multiplicative mix (consecutive ids would otherwise
    stripe buckets); strings use ``pd.util.hash_array`` (deterministic,
    fixed hash key)."""
    arr = values.to_numpy()
    if arr.dtype.kind in "iu":
        h = (arr.astype(np.uint64) * _KNUTH) >> np.uint64(16)
    else:
        h = pd.util.hash_array(arr.astype(object), categorize=False)
    return pd.Series((h % np.uint64(n_buckets)).astype(np.int32), index=values.index)


def coalesce_blocks(ds):
    """Materialize a Dataset and re-pin its block count to its SIZE:
    ``ceil(size_bytes / TARGET_BLOCK_BYTES)`` blocks, never more than it
    has.

    A narrow stream produced by per-block map tasks inherits the corpus
    read's parallelism (e.g. 64 near-empty blocks for a few-MB candidate
    list), and every downstream all-to-all (groupby / sort) or per-block
    map then pays scheduling per block. ``keyed_fold`` applies this to
    every exchange it runs, so call it only for a Dataset that feeds
    something else (a sort, a map reused in a loop). At real scale it is
    a no-op: when upstream blocks already hold ≥ ``TARGET_BLOCK_BYTES``
    no extra exchange is added."""
    m = ds.materialize()
    nb = m.num_blocks()
    target = max(1, min(nb, -(-m.size_bytes() // max(1, TARGET_BLOCK_BYTES))))
    if target < nb:
        m = m.repartition(target).materialize()
    return m


def typed_empty(**cols: str) -> pd.DataFrame:
    """Empty frame with declared dtypes (a fold's or partial's schema)."""
    return pd.DataFrame({k: pd.Series([], dtype=v) for k, v in cols.items()})


def default_buckets(min_b: int = 16, per_cpu: int = 2, cap: int = 128) -> int:
    """Bucket count sized to the cluster: enough groups to spread over
    every CPU (×``per_cpu`` for stragglers), capped so tiny clusters do
    not shuffle hundreds of near-empty buckets."""
    n_cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return int(min(cap, max(min_b, n_cpus * per_cpu)))


def _key_series(df: pd.DataFrame, key) -> pd.Series:
    if callable(key):
        return key(df)
    if isinstance(key, str):
        return df[key]
    cols = [df[c] if df[c].dtype == object else df[c].astype(str) for c in key]
    out = cols[0]
    for col in cols[1:]:
        out = out + "\x00" + col
    return out


def _key_name(key) -> str:
    if callable(key):
        return key.__name__
    return key if isinstance(key, str) else "_".join(key)


def _tag(part, key, n_b: int):
    """``part`` (pandas frame or Arrow table) plus its ``bucket`` column."""
    if isinstance(part, pa.Table):
        if isinstance(key, str):
            keys = pd.Series(part.column(key).to_numpy(zero_copy_only=False))
        else:
            keys = _key_series(part.select(list(key)).to_pandas(), key)
        b = bucket_of(keys, n_b).to_numpy()
        return part.append_column("bucket", pa.array(b, pa.int32()))
    return part.assign(bucket=bucket_of(_key_series(part, key), n_b))


def bucketed(ds, key, *, rows=None, batch_format="pandas"):
    """The tagging half of a bucketed pass: run the per-batch ``rows``
    partial (in ``batch_format``; it may return a pandas frame or an
    Arrow table, None keeps the rows as they come) and add the
    ``bucket`` column of ``key`` — a column, a tuple of columns (joined
    with NUL) or a callable frame -> Series over the partial's output
    (column keys only when the partial returns an Arrow table).

    Call it directly when tagged rows are co-grouped with rows tagged
    elsewhere, then hand the result to ``keyed_fold(..., key=None)``."""
    n_b = default_buckets()

    def tag(batch):
        return _tag(rows(batch) if rows is not None else batch, key, n_b)

    # Ray names the operator after the UDF, and Dataset.stats() merges
    # same-named operators: keep the pipeline's own function names
    tag.__name__ = rows.__name__ if rows is not None else f"bucket_by_{_key_name(key)}"
    return ds.map_batches(tag, batch_format=batch_format)


@ray.remote
def _on_frame(fn, args, *blocks):
    """``fn(frame, *args)`` in a worker, over one pandas frame of
    ``blocks`` (pandas or Arrow) in order."""
    from ray.data.block import BlockAccessor

    parts = [BlockAccessor.for_block(b).to_pandas() for b in blocks]
    # empty blocks only pass their columns on when nothing else does
    rows = [f for f in parts if len(f)] or parts[:1] or [pd.DataFrame()]
    return fn(pd.concat(rows, ignore_index=True), *args)


def _one_task(fn, m, *args):
    """Submit ``fn(frame, *args)`` as ONE remote task over the blocks of
    the materialized Dataset ``m``; return its object ref."""
    refs = [r for bundle in m.iter_internal_ref_bundles() for r, _ in bundle.blocks]
    return _on_frame.options(name=fn.__name__).remote(fn, args, *refs)


def _fold_in_order(df: pd.DataFrame, fold) -> pd.DataFrame:
    """The one-task path of :func:`keyed_fold`: fold each bucket in
    ascending bucket order, as ``map_groups`` would."""
    outs = [fold(g.reset_index(drop=True)) for _, g in df.groupby("bucket", sort=True)]
    # as in _on_frame: an empty output (often object-typed) must not
    # widen the dtypes of the others
    return pd.concat([o for o in outs if len(o)] or outs[:1], ignore_index=True)


def keyed_fold(ds, fold, key, *, rows=None, batch_format="pandas", empty=None):
    """One bucketed grouped pass: :func:`bucketed` by ``key`` (with the
    optional per-batch ``rows`` partial), then ``fold`` every bucket —
    all rows of a key arrive in one ``fold`` call, as a pandas frame.

    ``ds`` may be a tuple of datasets co-grouped by the same key (a keyed
    join), with ``rows`` a matching tuple; each tagged input is
    materialized on its own, then they are unioned. Pass co-grouped
    inputs this way rather than as one ``a.union(b)``: on a single CPU a
    union whose live branch holds the CPU can starve the sampling tasks
    of a sort inside another branch. ``key=None`` takes input already
    tagged by :func:`bucketed`. The size rule of the module docstring
    then picks the path: below ``TARGET_BLOCK_BYTES`` one remote task
    over the whole input (a one-block MaterializedDataset), else the
    ``groupby("bucket").map_groups`` exchange (a lazy Dataset).
    ``empty`` is the fold's output schema ``{column: dtype}``: the fold
    never sees an empty bucket, and a completely empty upstream yields
    ``empty``'s schema when it is given, else the exchange's own
    zero-column block."""
    inputs = tuple(ds) if isinstance(ds, (tuple, list)) else (ds,)
    if key is not None:
        partials = rows if isinstance(rows, (tuple, list)) else (rows,) * len(inputs)
        inputs = [
            bucketed(d, key, rows=p, batch_format=batch_format)
            for d, p in zip(inputs, partials)
        ]

    inputs = [d.materialize() for d in inputs]
    union = inputs[0]
    for more in inputs[1:]:  # pairwise, as a.union(b).union(c) plans it
        union = union.union(more)
    tagged = union.materialize()
    n_rows = tagged.count()
    import ray.data as rd  # lazily, as in the pipelines: workers import this module

    if n_rows and tagged.size_bytes() < TARGET_BLOCK_BYTES:
        return rd.from_pandas_refs(_one_task(_fold_in_order, tagged, fold))
    if not n_rows and empty is not None:
        return rd.from_pandas(typed_empty(**empty))
    return coalesce_blocks(tagged).groupby("bucket").map_groups(fold, batch_format="pandas")


def in_one_task(fn, ds, *args):
    """The size rule for a loop over its own small state: when ``ds``
    holds less than ``TARGET_BLOCK_BYTES``, return ``fn(frame, *args)``
    computed in ONE remote task over ``ds`` as one pandas frame;
    otherwise return None and leave the distributed loop to the caller.
    ``fn`` must compute what the loop's rounds compute, on a whole
    frame."""
    m = ds.materialize()
    if m.size_bytes() >= TARGET_BLOCK_BYTES:
        return None
    return ray.get(_one_task(fn, m, *args))


def sum_in_bucket(key, *vals: str):
    """The count-then-sum fold: sum ``vals`` per ``key`` (a column or a
    list of columns) inside one bucket."""
    keys = [key] if isinstance(key, str) else list(key)

    def sum_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(keys, sort=False)[list(vals)].sum().reset_index()

    return sum_in_bucket
