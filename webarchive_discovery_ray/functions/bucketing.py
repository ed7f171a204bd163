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

The size rule. ``keyed_fold`` measures its TAGGED input — the rows its
per-batch partial returns, with their ``bucket`` column — as the sum of
the tagged blocks' ``BlockAccessor.size_bytes``:

- below ``TARGET_BLOCK_BYTES`` (16 MiB) the whole input goes to ONE
  remote task as one pandas frame, which folds every bucket in ascending
  bucket order into one block. A sort exchange over a few kilobytes is all
  fixed cost (task scheduling per block, per partition, per reducer; cf.
  Hyper Dimension Shuffle, VLDB'19), and on the benchmark's corpus
  passes it dominated the fold itself;
- at or above it, ``groupby("bucket").map_groups(fold)`` runs over the
  input re-pinned to ``ceil(size / TARGET_BLOCK_BYTES)`` blocks
  (:func:`coalesce_blocks`), so the exchange is data-sized.

Where it is measured depends on the input, never the figure. Materialized
inputs (a pass's ``read_table(...).materialize()``, an earlier fold's
result) that hold less than the constant untagged are partialled, tagged
and measured inside the fold task itself, which then folds them or, when
the tagged rows reach the constant, hands them back tagged for the
exchange; a pass of small folds is thus one read execution, its fold
tasks and its write, with no Ray Data execution in between. Any other
input is tagged by one ``map_batches`` execution fused with its upstream,
and its metadata gives its bytes. Both count what
``map_batches(...).materialize().size_bytes()`` reports for the same
tagged blocks (pandas blocks with text columns estimate theirs from a
sample of rows, in either place).

Both paths hand the fold the same frames (one bucket, fresh index) and
yield the same rows in the same bucket order, and the one-task path holds
at most ``TARGET_BLOCK_BYTES`` of tagged rows. A loop whose whole state is
one small table can apply the same rule one level up with
:func:`in_one_task`: below the constant every round runs inside one
task. Only BPE training does (its merge rounds are the curate
benchmark's largest pass); the other small-state loops (unigram EM,
PageRank, label propagation) run their distributed rounds, each pass of
which is one task anyway.

``keyed_fold`` is the only way pipelines build a bucketed pass: a
pipeline supplies its per-batch partial, its key and its in-bucket fold
(a tuple of inputs, each with its own partial, for a keyed co-group), and
only this module knows the bucket count, the ``bucket`` column, the
empty-upstream rule and the two execution paths. It is also the one place
to re-test Ray's hash shuffle (keyed ``repartition``) on a later Ray: on
this build it measured ~11x slower than the bucketed pass, and raises
under the default sort shuffle.
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


@ray.remote
def _on_frame(fn, args, *blocks):
    """``fn(frame, *args)`` in a worker, over one pandas frame of
    ``blocks`` (pandas or Arrow) in order."""
    from ray.data.block import BlockAccessor

    parts = [BlockAccessor.for_block(b).to_pandas() for b in blocks]
    # empty blocks only pass their columns on when nothing else does
    rows = [f for f in parts if len(f)] or parts[:1] or [pd.DataFrame()]
    return fn(pd.concat(rows, ignore_index=True), *args)


def _bucketed(ds, key, n_b: int, *, rows=None, batch_format="pandas"):
    """The tagging half of a bucketed pass as one ``map_batches`` over
    ``ds``: the ``rows`` partial (None keeps the rows as they come), then
    the ``bucket`` column of ``key``, as :func:`keyed_fold` defines
    them."""

    def tag(batch):
        return _tag(rows(batch) if rows is not None else batch, key, n_b)

    # Ray names the operator after the UDF, and Dataset.stats() merges
    # same-named operators: keep the pipeline's own function names
    tag.__name__ = rows.__name__ if rows is not None else f"bucket_by_{_key_name(key)}"
    return ds.map_batches(tag, batch_format=batch_format)


def _block_refs(m) -> list:
    """The block refs of the MaterializedDataset ``m``, without an
    execution: ``iter_internal_ref_bundles`` on a source such as a
    ``from_pandas_refs`` result would start an Input-only one, so the
    source is materialized in place first."""
    return [r for bundle in m.materialize().iter_internal_ref_bundles() for r, _ in bundle.blocks]


def _fold_in_order(df: pd.DataFrame, fold) -> pd.DataFrame:
    """The one-task path of :func:`keyed_fold`: fold each bucket in
    ascending bucket order, as ``map_groups`` would."""
    outs = [fold(g.reset_index(drop=True)) for _, g in df.groupby("bucket", sort=True)]
    # an empty output (often object-typed) must not widen the dtypes of
    # the others
    return pd.concat([o for o in outs if len(o)] or outs[:1], ignore_index=True)


@ray.remote
def _fold_task(fold, limit: int, inputs):
    """ONE task for a small bucketed pass. ``inputs`` are ``(block refs,
    tag)`` pairs in input order: ``tag`` is None for blocks tagged
    already, else ``(rows, key, n_buckets, batch_format)``, run here on
    each non-empty block as ``map_batches`` runs it (which never calls a
    partial on an empty block). The blocks tagged here count their
    ``BlockAccessor.size_bytes`` — the figure ``map_batches`` records for
    them — against ``limit``.

    Yields ``(path, bytes)`` first. Below ``limit`` the path is
    "one_task" and the folded frame follows, or "empty" with nothing
    when no input has a row. At ``limit`` it is "exchange", and every
    block tagged here follows as an Arrow table, streamed out so this
    task holds no more than ``limit`` and one block of them."""
    from ray.data.block import BlockAccessor

    held, n_bytes, over = [], 0, False
    for i, (refs, tag) in enumerate(inputs):
        if tag is None:
            continue
        rows, key, n_b, batch_format = tag
        for ref in refs:
            acc = BlockAccessor.for_block(ray.get(ref))
            if not acc.num_rows():
                continue
            batch = acc.to_batch_format(batch_format)
            block = BlockAccessor.batch_to_block(
                _tag(rows(batch) if rows is not None else batch, key, n_b)
            )
            if over:
                yield BlockAccessor.for_block(block).to_arrow()
                continue
            n_bytes += BlockAccessor.for_block(block).size_bytes()
            held.append((i, block))
            if n_bytes >= limit:
                over = True
                yield "exchange", n_bytes
                for _, b in held:
                    yield BlockAccessor.for_block(b).to_arrow()
                held = []
    if over:
        return
    frames = []
    for i, (refs, tag) in enumerate(inputs):
        blocks = [ray.get(r) for r in refs] if tag is None else [b for j, b in held if j == i]
        frames += [BlockAccessor.for_block(b).to_pandas() for b in blocks]
    del held  # the frames hold these rows now
    frames = [f for f in frames if len(f)]
    if not frames:
        yield "empty", n_bytes
        return
    yield "one_task", n_bytes
    yield _fold_in_order(pd.concat(frames, ignore_index=True), fold)


def _exchange(tagged, fold, empty):
    """The exchange path over the materialized tagged inputs: unioned
    (pairwise, as ``a.union(b).union(c)`` plans it), then
    ``groupby("bucket").map_groups(fold)`` over the union re-pinned to
    its size (a lazy Dataset), or ``empty``'s schema for a union with no
    row when ``empty`` is given."""
    import ray.data as rd  # lazily, as in the pipelines: workers import this module

    union = tagged[0]
    for more in tagged[1:]:
        union = union.union(more)
    union = union.materialize()
    if not union.count() and empty is not None:
        return rd.from_pandas(typed_empty(**empty))
    return coalesce_blocks(union).groupby("bucket").map_groups(fold, batch_format="pandas")


def keyed_fold(ds, fold, key, *, rows=None, batch_format="pandas", empty=None):
    """One bucketed grouped pass: run the optional per-batch ``rows``
    partial (in ``batch_format``; it may return a pandas frame or an
    Arrow table), tag each row with the bucket of ``key`` — a column, a
    tuple of columns (joined with NUL) or a callable frame -> Series over
    the partial's output (column keys only when the partial returns an
    Arrow table) — and ``fold`` every bucket: all rows of a key arrive
    in one ``fold`` call, as a pandas frame.

    ``ds`` may be a tuple of datasets co-grouped by the same key (a keyed
    join), with ``rows`` a matching tuple. Pass co-grouped inputs this
    way rather than as one ``a.union(b)``: on a single CPU a union whose
    live branch holds the CPU can starve the sampling tasks of a sort
    inside another branch.

    Materialized inputs that hold less than ``TARGET_BLOCK_BYTES``
    together are partialled and tagged inside the fold task; any other
    input is tagged by one ``map_batches`` execution first (fused with
    its upstream) and reaches the same task tagged. The size rule of the
    module docstring then picks the path: below ``TARGET_BLOCK_BYTES``
    of tagged rows the task folds them (a one-block MaterializedDataset),
    else the ``groupby("bucket").map_groups`` exchange runs (a lazy
    Dataset). ``empty`` is the fold's output schema ``{column: dtype}``:
    the fold never sees an empty bucket, and a completely empty upstream
    yields ``empty``'s schema when it is given, else the exchange's own
    zero-column block."""
    import ray.data as rd
    from ray.data.dataset import MaterializedDataset

    inputs = tuple(ds) if isinstance(ds, (tuple, list)) else (ds,)
    partials = rows if isinstance(rows, (tuple, list)) else (rows,) * len(inputs)
    n_b = default_buckets()

    def tagged(d, p):
        return _bucketed(d, key, n_b, rows=p, batch_format=batch_format).materialize()

    in_task = [isinstance(d, MaterializedDataset) for d in inputs]
    if sum(d.size_bytes() for d, t in zip(inputs, in_task) if t) >= TARGET_BLOCK_BYTES:
        in_task = [False] * len(inputs)
    pre = [None if t else tagged(d, p) for d, p, t in zip(inputs, partials, in_task)]
    limit = TARGET_BLOCK_BYTES - sum(t.size_bytes() for t in pre if t is not None)

    def all_tagged():
        return [tagged(d, p) if t is None else t for d, p, t in zip(inputs, partials, pre)]

    if limit <= 0:
        return _exchange(all_tagged(), fold, empty)
    gen = _fold_task.options(name=fold.__name__).remote(
        fold,
        limit,
        [
            (_block_refs(d), (p, key, n_b, batch_format)) if t is None else (_block_refs(t), None)
            for d, p, t in zip(inputs, partials, pre)
        ],
    )
    path, _ = ray.get(next(gen))
    if path == "one_task":
        return rd.from_pandas_refs(next(gen))
    if path == "exchange":  # the task measured them: no second size check
        fresh = rd.from_arrow_refs(list(gen))
        return _exchange([t for t in pre if t is not None] + [fresh], fold, empty)
    if empty is not None:
        return rd.from_pandas(typed_empty(**empty))
    return _exchange(all_tagged(), fold, None)


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
    return ray.get(_on_frame.options(name=fn.__name__).remote(fn, args, *_block_refs(m)))


def sum_in_bucket(key, *vals: str):
    """The count-then-sum fold: sum ``vals`` per ``key`` (a column or a
    list of columns) inside one bucket."""
    keys = [key] if isinstance(key, str) else list(key)

    def sum_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(keys, sort=False)[list(vals)].sum().reset_index()

    return sum_in_bucket
