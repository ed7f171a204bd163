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

The fold contract. ``keyed_fold`` calls the fold once per bucket that
holds a row, in ascending bucket order on the one-task path. A single
input gives ``fold(frame)``; a tuple of co-grouped inputs (a keyed join,
the reducer-side grouping of ``MDXReduplicatingReducer.java:72-153``)
gives ``fold(*frames)``, one pandas frame per input in input order. Each
frame holds that input's rows of the bucket with a fresh index, and that
input's own tagged columns and dtypes (the ``bucket`` column included):
an int column stays int, whatever the other inputs carry. An input with
no row in the bucket arrives as a zero-row frame of its columns. An
input with no rows at all arrives as the zero-row frame its partial
makes of a zero-row batch of the input; when Ray Data has dropped that
input's columns (it does for empty blocks through ``map_batches`` or
``repartition``), only its ``bucket`` column is known, so a fold that
may meet such an input reads its columns with a default. How the inputs
travel together is this module's business: as in Hyper Dimension
Shuffle (VLDB'19), they share one repartition without sharing a row
layout (:func:`_packed`).

The size rule. ``keyed_fold`` measures its TAGGED input — the rows its
per-batch partial returns, with their ``bucket`` column — as the sum of
the tagged Arrow tables' ``nbytes``. Tagged rows are always Arrow tables,
so the figure is exact and the same rows always measure the same:

- below ``TARGET_BLOCK_BYTES`` (16 MiB) the whole input goes to ONE
  remote task, which folds every bucket in ascending bucket order into
  one block. A sort exchange over a few kilobytes is all fixed cost
  (task scheduling per block, per partition, per reducer), and on the
  benchmark's corpus passes it dominated the fold itself;
- at or above it, ``groupby("bucket").map_groups`` runs over the input
  re-pinned to ``ceil(size / TARGET_BLOCK_BYTES)`` blocks
  (:func:`coalesce_blocks`), so the exchange is data-sized.

Where it is measured depends on the input, never the figure. Materialized
inputs (a pass's ``read_table(...).materialize()``, an earlier fold's
result) that hold less than the constant untagged are partialled, tagged
and measured inside the fold task itself, which then folds them or, when
the tagged rows reach the constant, hands them back tagged for the
exchange; a pass of small folds is thus one read execution, its fold
tasks and its write, with no Ray Data execution in between. Any other
input is tagged by one ``map_batches`` execution fused with its upstream,
and its block metadata gives its bytes.

Both paths hand the fold the same frames and yield the same rows, and
the one-task path holds at most ``TARGET_BLOCK_BYTES`` of tagged rows. A
loop whose whole state is one small table can apply the same rule one
level up with :func:`in_one_task`: below the constant every round runs
inside one task. Only BPE training does (its merge rounds are the curate
benchmark's largest pass); the other small-state loops (unigram EM,
PageRank, label propagation) run their distributed rounds, each pass of
which is one task anyway.

``keyed_fold`` is the only way pipelines build a bucketed pass: a
pipeline supplies its per-batch partial, its key and its in-bucket fold
(a tuple of inputs, each with its own partial, for a keyed co-group), and
only this module knows the bucket count, the ``bucket`` column, the
co-group's row format, the empty-upstream rule and the two execution
paths. It is also the one place to re-test Ray's hash shuffle (keyed
``repartition``) on a later Ray: on this build it measured ~11x slower
than the bucketed pass, and raises under the default sort shuffle.
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


def _empty_result(**cols: str):
    """A fold's zero-row result of ``typed_empty``'s schema, as one Arrow
    block whose columns convert back to ``typed_empty``'s dtypes (an
    ``object`` column is Arrow ``string``). Ray sizes a pandas block's
    object columns from a sample of their rows, which fails on zero
    rows."""
    import ray.data as rd

    frame = typed_empty(**cols)
    return rd.from_arrow(
        pa.table(
            {
                k: pa.array([], pa.string() if col.dtype == object else pa.from_numpy_dtype(col.dtype))
                for k, col in frame.items()
            }
        )
    )


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


def _tag(part, key, n_b: int) -> pa.Table:
    """``part`` (pandas frame or Arrow table) plus its ``bucket`` column,
    as an Arrow table."""
    if isinstance(part, pa.Table):
        if isinstance(key, str):
            keys = pd.Series(part.column(key).to_numpy(zero_copy_only=False))
        else:
            keys = _key_series(part.select(list(key)).to_pandas(), key)
        b = bucket_of(keys, n_b).to_numpy()
        return part.append_column("bucket", pa.array(b, pa.int32()))
    part = part.assign(bucket=bucket_of(_key_series(part, key), n_b))
    return pa.Table.from_pandas(part, preserve_index=False)


def _tag_batch(batch, spec) -> pa.Table:
    """One batch's tagged rows: ``spec`` is ``(rows, key, n_buckets,
    batch_format)``, and a ``rows`` of None keeps the rows as they
    come."""
    rows, key, n_b, _ = spec
    return _tag(rows(batch) if rows is not None else batch, key, n_b)


def _tag_block(block, spec) -> pa.Table:
    """One block's tagged rows, as ``map_batches`` makes them."""
    from ray.data.block import BlockAccessor

    return _tag_batch(BlockAccessor.for_block(block).to_batch_format(spec[3]), spec)


def _zero_schema(ds, spec) -> pa.Schema:
    """The tagged schema of an input with no rows: what its ``rows``
    partial makes of a zero-row batch of ``ds``'s schema. When ``ds``
    carries no columns (Ray Data drops them from empty blocks through
    ``map_batches`` or ``repartition``), only the ``bucket`` column."""
    s = ds.schema()
    base = None if s is None else s.base_schema
    if isinstance(base, pa.Schema):
        block = base.empty_table()
    elif base is not None and list(base.names):
        block = pd.DataFrame({n: pd.Series([], dtype=t) for n, t in zip(base.names, base.types)})
    else:
        return pa.schema([("bucket", pa.int32())])
    return _tag_block(block, spec).schema


def _tagged_schema(tagged) -> pa.Schema | None:
    """The schema of a materialized tagged input's rows (its blocks'
    schemas unified as ``concat_tables`` unifies them), or None when it
    holds no row."""
    found = [b.schema for b in tagged.iter_internal_ref_bundles() if b.num_rows() and b.schema]
    return pa.unify_schemas(found, promote_options="permissive") if found else None


def _bucketed(ds, spec):
    """The tagging half of a bucketed pass as one ``map_batches`` over
    ``ds`` (see :func:`_tag_batch`)."""
    rows, key = spec[:2]

    def tag(batch):
        return _tag_batch(batch, spec)

    # Ray names the operator after the UDF, and Dataset.stats() merges
    # same-named operators: keep the pipeline's own function names
    tag.__name__ = rows.__name__ if rows is not None else f"bucket_by_{_key_name(key)}"
    return ds.map_batches(tag, batch_format=spec[3])


def _block_refs(m) -> list:
    """The block refs of the MaterializedDataset ``m``, without an
    execution: ``iter_internal_ref_bundles`` on a source such as a
    ``from_pandas_refs`` result would start an Input-only one, so the
    source is materialized in place first."""
    return [r for bundle in m.materialize().iter_internal_ref_bundles() for r, _ in bundle.blocks]


def _frame(tables: list, schema: pa.Schema | None) -> pd.DataFrame:
    """One input's tagged tables as one pandas frame; ``schema`` gives
    the columns of an input with no table."""
    frames = [t.to_pandas() for t in tables if t.num_rows]
    if not frames:  # zero-row tables only pass their columns on
        return (tables[0].schema if tables else schema).empty_table().to_pandas()
    return pd.concat(frames, ignore_index=True) if len(frames) > 1 else frames[0]


def _fold_buckets(fold, frames: list) -> pd.DataFrame:
    """The one-task path of :func:`keyed_fold`: ``fold(*frames)`` for
    each bucket that holds a row of any input, in ascending bucket
    order, as ``map_groups`` would; each input's rows of the bucket
    arrive with a fresh index, a zero-row slice where it has none."""
    groups = [dict(iter(f.groupby("bucket", sort=True))) for f in frames]
    outs = [
        fold(*[g[b].reset_index(drop=True) if b in g else f.iloc[:0] for f, g in zip(frames, groups)])
        for b in sorted(set().union(*groups))
    ]
    # an empty output (often object-typed) must not widen the dtypes of
    # the others
    return pd.concat([o for o in outs if len(o)] or outs[:1], ignore_index=True)


@ray.remote
def _fold_task(fold, limit: int, inputs):
    """ONE task for a small bucketed pass. ``inputs`` are ``(block refs,
    spec, zero)`` triples in input order: ``spec`` is None for blocks
    tagged already, else the :func:`_tag_block` spec, run here on each
    non-empty block as ``map_batches`` runs it (which never calls a
    partial on an empty block); ``zero`` is the tagged schema of an
    input with no rows, else None. The Arrow bytes of the tables tagged
    here count against ``limit``.

    Yields ``(path, bytes)`` first. Below ``limit`` the path is
    "one_task" and the folded frame follows, or "empty" with nothing
    when no input has a row. At ``limit`` it is "exchange": every table
    tagged here follows, streamed out so this task holds no more than
    ``limit`` and one block of them, and then the list of their input
    indices."""
    from ray.data.block import BlockAccessor

    tables = [[] for _ in inputs]
    n_bytes, over, where = 0, False, []
    for i, (refs, spec, _) in enumerate(inputs):
        if spec is None:
            continue
        for ref in refs:
            block = ray.get(ref)
            if not BlockAccessor.for_block(block).num_rows():
                continue
            tables[i].append(_tag_block(block, spec))
            n_bytes += tables[i][-1].nbytes
            if not over and n_bytes >= limit:
                over = True
                yield "exchange", n_bytes
            if over:
                for j, held in enumerate(tables):
                    yield from held
                    where += [j] * len(held)
                    held.clear()
    if over:
        yield where
        return
    for i, (refs, spec, _) in enumerate(inputs):
        if spec is None:
            accs = [BlockAccessor.for_block(b) for b in ray.get(refs)]
            tables[i] = [a.to_arrow() for a in accs if a.num_rows()]
    if not any(t.num_rows for held in tables for t in held):
        yield "empty", n_bytes
        return
    yield "one_task", n_bytes
    frames = [_frame(held, zero) for held, (_, _, zero) in zip(tables, inputs)]
    del tables  # the frames hold these rows now
    yield _fold_buckets(fold, frames)


def _packed(i: int):
    """The co-group's exchange row format for input ``i``: one row per
    bucket of a tagged block, holding the bucket, ``i`` and the bucket's
    rows as one Arrow IPC stream, so inputs of different schemas share
    one union schema and each keeps its own columns and types."""

    def pack(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.take(pc.sort_indices(t["bucket"]))  # stable: rows keep their order
        b = t["bucket"].to_numpy()
        starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
        cells = []
        for s, e in zip(starts, np.r_[starts[1:], len(b)]):
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(sink, t.schema) as w:
                w.write_table(t.slice(s, e - s))
            cells.append(sink.getvalue().to_pybytes())
        return pa.table(
            {
                "bucket": pa.array(b[starts], pa.int32()),
                "input": pa.array(np.full(len(starts), i, np.int32)),
                "rows": pa.array(cells, pa.large_binary()),
            }
        )

    return pack


def _unpacked(fold, schemas: list):
    """``fold`` over one bucket of packed rows (:func:`_packed`): each
    input's rows in one frame of its own ``schemas`` entry."""

    def fold_inputs(group: pa.Table) -> pd.DataFrame:
        which = group["input"].to_numpy()
        cells = group["rows"]
        frames = []
        for i, schema in enumerate(schemas):
            parts = [
                pa.ipc.open_stream(cells[int(j)].as_buffer()).read_all()
                for j in np.flatnonzero(which == i)
            ]
            t = pa.concat_tables(parts, promote_options="permissive") if parts else schema.empty_table()
            frames.append((t if t.schema.equals(schema) else t.cast(schema)).to_pandas())
        return fold(*frames)

    fold_inputs.__name__ = fold.__name__
    return fold_inputs


def _exchange(tagged, schemas, fold, empty):
    """The exchange path over the materialized tagged inputs (None for
    an input with no rows): unioned (pairwise, as ``a.union(b).union(c)``
    plans it), then ``groupby("bucket").map_groups`` over the union
    re-pinned to its size (a lazy Dataset), or ``empty``'s schema for a
    union with no row when ``empty`` is given. Co-grouped inputs travel
    packed and reach ``fold`` one frame per input of its ``schemas``
    entry; a single input's tagged rows travel as they are."""
    if len(tagged) > 1:
        tagged = [
            t.map_batches(_packed(i), batch_format="pyarrow", batch_size=None)
            for i, t in enumerate(tagged)
            if t is not None
        ]
        fn, batch_format = _unpacked(fold, schemas), "pyarrow"
    else:
        fn, batch_format = fold, "pandas"
    if not tagged:
        return _empty_result(**(empty or {}))
    union = tagged[0]
    for more in tagged[1:]:
        union = union.union(more)
    union = union.materialize()
    if not union.count() and empty is not None:
        return _empty_result(**empty)
    return coalesce_blocks(union).groupby("bucket").map_groups(fn, batch_format=batch_format)


def keyed_fold(ds, fold, key, *, rows=None, batch_format="pandas", empty=None):
    """One bucketed grouped pass: run the optional per-batch ``rows``
    partial (in ``batch_format``; it may return a pandas frame or an
    Arrow table), tag each row with the bucket of ``key`` — a column, a
    tuple of columns (joined with NUL) or a callable frame -> Series over
    the partial's output (column keys only when the partial returns an
    Arrow table) — and ``fold`` every bucket that holds a row: all rows
    of a key arrive in one ``fold`` call, as pandas frames that carry
    the ``bucket`` column too.

    ``ds`` may be a tuple of datasets co-grouped by the same key (a keyed
    join), with ``rows`` a matching tuple (None entries keep an input's
    rows as they are). Then ``fold(*frames)`` gets one frame per input,
    in input order, each with that input's own tagged columns and
    dtypes, also when it holds no row of the bucket (a zero-row frame).
    An input with no rows at all arrives as its partial's output for a
    zero-row batch of the input, tagged; only its ``bucket`` column
    when Ray Data has lost the input's columns (module docstring). A
    single input keeps
    ``fold(frame)``. Pass co-grouped inputs this way rather than as one
    ``a.union(b)``: on a single CPU a union whose live branch holds the
    CPU can starve the sampling tasks of a sort inside another branch.

    Materialized inputs that hold less than ``TARGET_BLOCK_BYTES``
    together are partialled and tagged inside the fold task; any other
    input is tagged by one ``map_batches`` execution first (fused with
    its upstream) and reaches the same task tagged. Tagged rows are
    Arrow tables, so both places measure their exact Arrow bytes. The
    size rule of the module docstring then picks the path: below
    ``TARGET_BLOCK_BYTES`` of tagged rows the task folds them (a
    one-block MaterializedDataset), else the ``groupby("bucket")
    .map_groups`` exchange runs (a lazy Dataset). ``empty`` is the
    fold's output schema ``{column: dtype}``: a completely empty
    upstream yields ``empty``'s schema when it is given, else the
    exchange's own zero-column block."""
    import ray.data as rd
    from ray.data.dataset import MaterializedDataset

    inputs = tuple(ds) if isinstance(ds, (tuple, list)) else (ds,)
    partials = rows if isinstance(rows, (tuple, list)) else (rows,) * len(inputs)
    n_b = default_buckets()
    specs = [(p, key, n_b, batch_format) for p in partials]

    in_task = [isinstance(d, MaterializedDataset) for d in inputs]
    if sum(d.size_bytes() for d, t in zip(inputs, in_task) if t) >= TARGET_BLOCK_BYTES:
        in_task = [False] * len(inputs)
    pre = [None if t else _bucketed(d, s).materialize() for d, s, t in zip(inputs, specs, in_task)]
    limit = TARGET_BLOCK_BYTES - sum(t.size_bytes() for t in pre if t is not None)

    def exchange(tagged):
        if len(inputs) == 1:
            return _exchange(tagged, None, fold, empty)
        found = [None if t is None else _tagged_schema(t) for t in tagged]
        return _exchange(
            [t if f is not None else None for t, f in zip(tagged, found)],
            [f or _zero_schema(d, s) for f, d, s in zip(found, inputs, specs)],
            fold,
            empty,
        )

    def all_tagged():
        return [_bucketed(d, s).materialize() if t is None else t for d, s, t in zip(inputs, specs, pre)]

    if limit <= 0:
        return exchange(all_tagged())
    gen = _fold_task.options(name=fold.__name__).remote(
        fold,
        limit,
        [
            (_block_refs(d), s, None if d.count() else _zero_schema(d, s))
            if t is None
            else (_block_refs(t), None, None if t.count() else _zero_schema(d, s))
            for d, s, t in zip(inputs, specs, pre)
        ],
    )
    path, _ = ray.get(next(gen))
    if path == "one_task":
        return rd.from_pandas_refs(next(gen))
    if path == "exchange":  # the task measured them: no second size check
        refs = list(gen)
        where = ray.get(refs.pop())
        fresh = [[r for r, j in zip(refs, where) if j == i] for i in range(len(inputs))]
        return exchange(
            [t if t is not None else rd.from_arrow_refs(f) if f else None for t, f in zip(pre, fresh)]
        )
    if empty is not None:
        return _empty_result(**empty)
    return exchange(all_tagged())


@ray.remote
def _on_frame(fn, args, *blocks):
    """``fn(frame, *args)`` in a worker, over one pandas frame of
    ``blocks`` (pandas or Arrow) in order."""
    from ray.data.block import BlockAccessor

    parts = [BlockAccessor.for_block(b).to_pandas() for b in blocks]
    # empty blocks only pass their columns on when nothing else does
    rows = [f for f in parts if len(f)] or parts[:1] or [pd.DataFrame()]
    return fn(pd.concat(rows, ignore_index=True), *args)


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
