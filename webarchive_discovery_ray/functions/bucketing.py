"""Bucketed grouped passes — the repo's scale-safe alternative to raw-key
``groupby``.

Measured on this Ray version (see BASELINE.md "grouped-pass discipline"):
``Dataset.groupby(key).aggregate(...)`` over raw rows costs ~1.3 ms/row of
Python-side accumulate (a 235k-row Count took 33-37 s at 32 CPUs under both
sort- and hash-shuffle strategies), and ``groupby(key).map_groups(fn)``
pays one Python ``fn`` call per DISTINCT key. Both are fine when the input
is pre-aggregated/small; both are pathological over per-token / per-URL /
per-user row streams.

The bucketed pass keeps the SAME co-location guarantee with bounded group
count: attach ``bucket = stable_hash(key) % n_buckets`` (vectorized),
``groupby("bucket").map_groups(fn)`` so the shuffle machinery handles only
``n_buckets`` groups, and do the real per-key grouping INSIDE ``fn`` with
vectorized pandas kernels. All rows of a key land in one bucket, so any
per-key computation stays exact; skew is bounded by the hash (salt the key
first if one key dominates a bucket).

``keyed_fold`` (with its tagging half ``bucketed``) is the only way
pipelines build a bucketed pass: a pipeline supplies its per-batch
partial, its key and its in-bucket fold, and only this module knows the bucket count, the ``bucket`` column, the empty-
upstream quirk and the ``map_batches -> groupby -> map_groups`` chain. It
is also the one place to re-test Ray's hash shuffle (keyed
``repartition``) on a later Ray: on this build it measured ~11x slower
than the bucketed pass, and raises under the default sort shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = [
    "bucket_of",
    "default_buckets",
    "coalesce_blocks",
    "bucketed",
    "keyed_fold",
    "sum_in_bucket",
    "typed_empty",
]

_KNUTH = np.uint64(2654435761)


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


def coalesce_blocks(ds, target_block_bytes: int = 16 << 20):
    """Materialize a Dataset and re-pin its block count to its SIZE.

    A narrow stream produced by per-block map tasks inherits the corpus
    read's parallelism (e.g. 64 near-empty blocks for a few-MB candidate
    list), and every downstream all-to-all (groupby / sort) then pays
    scheduling per block — measured here: a 3-sort chain over 64–192 tiny
    blocks costs seconds of pure orchestration for milliseconds of
    compute. Re-pinning to ``ceil(size_bytes / target_block_bytes)``
    blocks makes the exchange data-sized. At real scale this is a no-op:
    when upstream blocks already hold ≥ ``target_block_bytes`` the
    condition never triggers and no extra exchange is added (the
    materialize is free — every all-to-all barriers its input anyway)."""
    m = ds.materialize()
    nb = m.num_blocks()
    target = max(1, min(nb, -(-m.size_bytes() // target_block_bytes)))
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
    import ray

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

    Call it directly only when something must sit between the tag and
    the exchange (``coalesce_blocks``, a union with an already-tagged
    input), then hand the result to ``keyed_fold(..., key=None)``."""
    n_b = default_buckets()

    def tag(batch):
        return _tag(rows(batch) if rows is not None else batch, key, n_b)

    # Ray names the operator after the UDF, and Dataset.stats() merges
    # same-named operators: keep the pipeline's own function names
    tag.__name__ = rows.__name__ if rows is not None else f"bucket_by_{_key_name(key)}"
    return ds.map_batches(tag, batch_format=batch_format)


def keyed_fold(ds, fold, key, *, rows=None, batch_format="pandas", empty=None):
    """One bucketed grouped pass: :func:`bucketed` by ``key`` (with the
    optional per-batch ``rows`` partial), then ``fold`` every bucket —
    all rows of a key arrive in one ``fold`` call, as a pandas frame.

    ``ds`` may be a tuple of datasets co-grouped by the same key (a keyed
    join), with ``rows`` a matching tuple; the tagged inputs are unioned
    before the exchange. ``key=None`` takes input already tagged by
    :func:`bucketed`. ``empty`` is the fold's output schema
    ``{column: dtype}``: when the upstream is completely empty Ray hands
    the fold a ZERO-COLUMN block, and the pass returns that schema
    instead of calling ``fold``. Chained passes nest calls: the next
    pass's tag fuses into this pass's ``map_groups`` stage."""
    inputs = tuple(ds) if isinstance(ds, (tuple, list)) else (ds,)
    if key is not None:
        partials = rows if isinstance(rows, (tuple, list)) else (rows,) * len(inputs)
        inputs = [
            bucketed(d, key, rows=p, batch_format=batch_format)
            for d, p in zip(inputs, partials)
        ]

    def fold_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if empty is not None and not len(df):
            return typed_empty(**empty)
        return fold(df)

    fold_bucket.__name__ = fold.__name__

    union = inputs[0]
    for more in inputs[1:]:  # pairwise, as a.union(b).union(c) plans it
        union = union.union(more)
    return union.groupby("bucket").map_groups(fold_bucket, batch_format="pandas")


def sum_in_bucket(key, *vals: str):
    """The count-then-sum fold: sum ``vals`` per ``key`` (a column or a
    list of columns) inside one bucket."""
    keys = [key] if isinstance(key, str) else list(key)

    def sum_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(keys, sort=False)[list(vals)].sum().reset_index()

    return sum_in_bucket
