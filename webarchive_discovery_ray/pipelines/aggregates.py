"""Aggregation / join / sort / sampling operators over the TPC-H-ish tables.

These realise the reference's wide-operation inventory on generic tables:
frequency counting (A1, ``FrequencyCountingReducer.java:71-110``), dataset
summaries (A2), deterministic reservoir sampling (O2,
``ReservoirSamplingReducer.java:67-112`` — the fixed-seed reservoir is
replaced by a deterministic bottom-k-by-md5 sampler, which is order-free
and mergeable, per SURVEY.md §4.2's determinism rule), global sort + top-k
(O1/O4), broadcast joins (J1/J2) and semi-joins (J5 precedent).

Float determinism: money/value sums are computed as integer "cents"
(``floor(x * scale + 0.5)`` per item, summed exactly, divided back once) in
BOTH the Ray pipeline and the SQL oracle — identical IEEE operations, so
the results are bit-exact regardless of partial-sum ordering. Plain
``round(sum(...))`` is NOT safe: a sum landing near a rounding boundary
flips between engines (observed on sf0.001).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.bucketing import keyed_fold, sum_in_bucket, typed_empty
from ..sources.io import read_table

__all__ = [
    "order_priority_census",
    "forecast_revenue",
    "lineitem_agg",
    "promo_revenue",
    "revenue_by_nation",
    "rollup_revenue",
    "events_hourly",
    "freq_count_docs",
    "topk_orders",
    "distinct_event_types",
    "reservoir_sample_events",
    "semi_join_lineitem",
    "anti_join_orders",
    "grouped_quantiles",
    "winsorize_events",
    "custdist",
    "important_parts",
]

_Q1_CUTOFF = "1998-09-02"


def cents(x: np.ndarray, scale: float = 100.0) -> np.ndarray:
    """``floor(x*scale + 0.5)`` as int64 — the bit-exact half-away-from-zero
    cent quantisation mirrored by the SQL oracles (positive values)."""
    return np.floor(np.asarray(x, dtype=np.float64) * scale + 0.5).astype(np.int64)


def lineitem_agg(sf_dir: str):
    """TPC-H Q1-flavoured pricing summary.

    Columns: l_returnflag, l_linestatus, sum_qty, sum_base_price,
    sum_disc_price, avg_qty, count_order (sums rounded to 2, avg to 6)."""
    from ray.data.aggregate import Count, Sum

    ds = read_table(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    )

    def prep(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.less_equal(batch["l_shipdate"], pa.scalar(np.datetime64(_Q1_CUTOFF, "us")))
        )
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False)
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        # in-batch combiner: the grouped aggregate downstream walks rows
        # in Python on this Ray version (BASELINE.md grouped-pass
        # discipline) — ship it 6 partial rows per block, not 600k
        df = pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"].to_pandas(),
                "l_linestatus": batch["l_linestatus"].to_pandas(),
                "qty_cents": cents(qty),
                "base_cents": cents(price),
                "disc_cents": cents(price * (1.0 - disc)),
            }
        )
        g = (
            df.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .agg(
                qty_cents=("qty_cents", "sum"),
                base_cents=("base_cents", "sum"),
                disc_cents=("disc_cents", "sum"),
                n=("qty_cents", "size"),
            )
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_cents", alias_name="qty_c"),
            Sum("base_cents", alias_name="base_c"),
            Sum("disc_cents", alias_name="disc_c"),
            Sum("n", alias_name="count_order"),
        )
    )

    def finalise(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "sum_qty": df["qty_c"] / 100.0,
                "sum_base_price": df["base_c"] / 100.0,
                "sum_disc_price": df["disc_c"] / 100.0,
                "avg_qty": (df["qty_c"] / 100.0) / df["count_order"],
                "count_order": df["count_order"],
            }
        )

    return agg.map_batches(finalise, batch_format="pandas")


def revenue_by_nation(sf_dir: str):
    """orders ⨝ customer hash-shuffle join -> nation broadcast -> revenue
    per nation.

    customer is FACT-sized (1.5M rows/SF) so orders⋈customer is a proper
    hash-partitioned ``Dataset.join`` — both sides route by custkey, no
    driver materialization. Only the 25-row nation table broadcasts
    (``ray.put`` + per-worker cache). Columns: n_name, revenue (round 2),
    n_orders."""
    import ray
    from ray.data.aggregate import Count, Sum

    from ..functions.broadcast import get_broadcast

    nation = read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"]).to_pandas()
    nation_ref = ray.put(dict(zip(nation["n_nationkey"], nation["n_name"])))

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    n_parts = int(min(64, max(4, ray.cluster_resources().get("CPU", 8))))
    joined = orders.join(
        cust,
        "inner",
        num_partitions=n_parts,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )

    def attach_nation(df: pd.DataFrame) -> pd.DataFrame:
        # in-batch combiner (BASELINE.md grouped-pass discipline): 25
        # nation partials per block, not raw joined orders
        lookup = get_broadcast(nation_ref)
        g = (
            pd.DataFrame(
                {
                    "n_name": df["c_nationkey"].map(lookup),
                    "price_cents": cents(df["o_totalprice"].to_numpy()),
                }
            )
            .groupby("n_name", sort=False)
            .agg(revenue_c=("price_cents", "sum"), n=("price_cents", "size"))
            .reset_index()
        )
        return g

    agg = (
        joined.map_batches(attach_nation, batch_format="pandas")
        .groupby("n_name")
        .aggregate(
            Sum("revenue_c", alias_name="revenue_c"),
            Sum("n", alias_name="n_orders"),
        )
    )

    def finalise(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_name": df["n_name"],
                "revenue": df["revenue_c"] / 100.0,
                "n_orders": df["n_orders"],
            }
        )

    return agg.map_batches(finalise, batch_format="pandas")


def rollup_revenue(sf_dir: str):
    """Hierarchical ROLLUP aggregate — revenue at three levels at once:
    (region, nation), (region, ALL) and (ALL, ALL) — the OLAP
    subtotal/grand-total shape (``GROUP BY ROLLUP``) re-expressed for a
    streaming engine: ONE exchange computes the FINEST level (per-batch
    (region, nation) integer-cent combiner partials → one grouped sum);
    every coarser level is then derived from the ≤ |nation| finest rows
    on the driver — rolling up EXACT int64 cents is associative, so the
    subtotals are bit-identical to SQL's direct per-level scans (the
    reason a double-sum rollup would NOT be safe). Rolled positions
    carry the ``'ALL'`` sentinel (the synthetic names never collide).

    Columns: r_name, n_name, revenue (cents/100), n_orders.
    SQL-oracle-checked (``GROUP BY ROLLUP`` + coalesce mirror)."""
    import ray
    from ray.data.aggregate import Sum

    from ..functions.broadcast import get_broadcast

    nation = read_table(
        sf_dir, "nation", columns=["n_nationkey", "n_name", "n_regionkey"]
    ).to_pandas()
    region = read_table(
        sf_dir, "region", columns=["r_regionkey", "r_name"]
    ).to_pandas()
    n2r = dict(zip(region["r_regionkey"], region["r_name"]))
    lookup_ref = ray.put(
        {
            int(k): (rn, n2r[rk])
            for k, rn, rk in zip(
                nation["n_nationkey"], nation["n_name"], nation["n_regionkey"]
            )
        }
    )

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    n_parts = int(min(64, max(4, ray.cluster_resources().get("CPU", 8))))
    joined = orders.join(
        cust,
        "inner",
        num_partitions=n_parts,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )

    def attach_names(df: pd.DataFrame) -> pd.DataFrame:
        # in-batch combiner: ≤ |nation| partials per block
        lookup = get_broadcast(lookup_ref)
        pairs = df["c_nationkey"].map(lookup)
        g = (
            pd.DataFrame(
                {
                    "n_name": pairs.str[0],
                    "r_name": pairs.str[1],
                    "c": cents(df["o_totalprice"].to_numpy()),
                }
            )
            .groupby(["r_name", "n_name"], sort=False)
            .agg(revenue_c=("c", "sum"), n=("c", "size"))
            .reset_index()
        )
        return g

    finest = (
        joined.map_batches(attach_names, batch_format="pandas")
        .groupby(["r_name", "n_name"])
        .aggregate(
            Sum("revenue_c", alias_name="revenue_c"),
            Sum("n", alias_name="n_orders"),
        )
        .to_pandas()  # bounded: ≤ |nation| rows
    )
    levels = [finest]
    by_region = (
        finest.groupby("r_name", sort=False)[["revenue_c", "n_orders"]]
        .sum()
        .reset_index()
        .assign(n_name="ALL")
    )
    levels.append(by_region)
    levels.append(
        pd.DataFrame(
            {
                "r_name": ["ALL"],
                "n_name": ["ALL"],
                "revenue_c": [int(finest["revenue_c"].sum())],
                "n_orders": [int(finest["n_orders"].sum())],
            }
        )
    )
    out = pd.concat(levels, ignore_index=True)
    return pd.DataFrame(
        {
            "r_name": out["r_name"],
            "n_name": out["n_name"],
            "revenue": out["revenue_c"].astype("int64") / 100.0,
            "n_orders": out["n_orders"].astype("int64"),
        }
    )


def events_hourly(sf_dir: str):
    """Tumbling-window aggregate: per (event_type, hour) sum+count.

    The window is computed batch-local (timestamp floor), then one grouped
    aggregation — the streaming-shaped workload pattern from the Ray guide.
    Columns: event_type, hour, total_value (round 4), n_events."""
    from ray.data.aggregate import Count, Sum

    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        # in-batch combiner (BASELINE.md grouped-pass discipline): ship
        # (type, hour) partials per block, not raw events
        g = (
            pd.DataFrame(
                {
                    "event_type": df["event_type"],
                    "hour": df["ts"].dt.floor("h"),
                    "value_q": cents(df["value"].to_numpy(), scale=10000.0),
                }
            )
            .groupby(["event_type", "hour"], sort=False)
            .agg(total_q=("value_q", "sum"), n=("value_q", "size"))
            .reset_index()
        )
        return g

    agg = (
        ds.map_batches(bucket, batch_format="pandas")
        .groupby(["event_type", "hour"])
        .aggregate(Sum("total_q", alias_name="total_q"), Sum("n", alias_name="n_events"))
    )

    def finalise(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": df["event_type"],
                # us resolution: bit-identical dtype to DuckDB's TIMESTAMP
                "hour": df["hour"].astype("datetime64[us]"),
                "total_value": df["total_q"] / 10000.0,
                "n_events": df["n_events"],
            }
        )

    return agg.map_batches(finalise, batch_format="pandas")


def freq_count_docs(sf_dir: str):
    """A1 frequency counting: distinct (lang, source) value counts —
    per-batch partial counts (combiner), one tiny grouped Sum.

    Columns: lang, source, n."""
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lang", "source"], sort=False).size().reset_index(name="n")
        g["n"] = g["n"].astype("int64")
        return g

    return (
        read_table(sf_dir, "documents", columns=["lang", "source"])
        .map_batches(partial, batch_format="pandas")
        .groupby(["lang", "source"])
        .aggregate(Sum("n", alias_name="n"))
    )


def topk_orders(sf_dir: str, k: int = 10):
    """O4 top-k: k most expensive orders, (price desc, orderkey asc) pinned.

    Columns: o_orderkey, o_totalprice."""
    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(k)


def distinct_event_types(sf_dir: str):
    """Set op: distinct event_type values — per-batch dedupe (combiner),
    one tiny grouped pass. Columns: event_type."""
    ds = read_table(sf_dir, "events", columns=["event_type"])
    return (
        ds.map_batches(
            lambda df: df.drop_duplicates(["event_type"]), batch_format="pandas"
        )
        .groupby("event_type")
        .count()
        .select_columns(["event_type"])
    )


def reservoir_sample_events(sf_dir: str, k: int = 5):
    """O2 deterministic reservoir: per event_type, the k events with the
    smallest md5(event_type:event_id) — a bottom-k sketch, reproducible and
    mergeable where the reference used a fixed-seed RNG reservoir.

    Columns: event_type, event_id."""
    ds = read_table(sf_dir, "events", columns=["event_type", "event_id"])

    def add_key(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["mk"] = [
            hashlib.md5(f"{t}:{i}".encode()).hexdigest()
            for t, i in zip(df["event_type"], df["event_id"])
        ]
        # batch-local partial bottom-k (combiner): only k rows per group leave
        return (
            df.sort_values("mk", kind="mergesort").groupby("event_type").head(k)
        )

    def bottom_k(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("mk", kind="mergesort").head(k)
        return df[["event_type", "event_id"]]

    return (
        ds.map_batches(add_key, batch_format="pandas")
        .groupby("event_type")
        .map_groups(bottom_k, batch_format="pandas")
    )


def semi_join_lineitem(sf_dir: str, top_n: int = 100):
    """Semi-join via broadcast key set: lineitems of the top-N orders by
    totalprice, aggregated per returnflag (J5 pattern: broadcast the key
    set, filter inside map_batches — no shuffle join).

    Columns: l_returnflag, n_items, sum_qty (round 2)."""
    import ray
    from ray.data.aggregate import Count, Sum

    from ..functions.broadcast import get_broadcast

    top = topk_orders(sf_dir, top_n).take_all()
    keys_ref = ray.put(frozenset(r["o_orderkey"] for r in top))

    def filter_keys(df: pd.DataFrame) -> pd.DataFrame:
        # task-pool stage (no pinned actor count): the key set broadcasts
        # once per worker via the get_broadcast cache; in-batch combiner
        # (BASELINE.md grouped-pass discipline) ships 3 partials per block
        sel = df[df["l_orderkey"].isin(get_broadcast(keys_ref))]
        g = (
            pd.DataFrame(
                {
                    "l_returnflag": sel["l_returnflag"],
                    "qty_cents": cents(sel["l_quantity"].to_numpy()),
                }
            )
            .groupby("l_returnflag", sort=False)
            .agg(n_items=("qty_cents", "size"), qty_c=("qty_cents", "sum"))
            .reset_index()
        )
        return g

    agg = (
        read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag", "l_quantity"])
        .map_batches(filter_keys, batch_format="pandas")
        .groupby("l_returnflag")
        .aggregate(Sum("n_items", alias_name="n_items"), Sum("qty_c", alias_name="qty_c"))
    )

    def finalise(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "n_items": df["n_items"],
                "sum_qty": df["qty_c"] / 100.0,
            }
        )

    return agg.map_batches(finalise, batch_format="pandas")


def union_orders_split(sf_dir: str, split: float = 150000.0):
    """§2.7 union: two disjoint filtered reads of orders re-unioned
    (``ds.union``), aggregated by status — Hadoop multi-input-path union
    (``WARCIndexerRunner.java:137-140``) in Dataset form. Columns:
    o_orderstatus, n, sum_price (integer-cents quantised)."""
    import numpy as np
    import pandas as pd

    from ray.data.aggregate import Sum

    cols = ["o_orderkey", "o_orderstatus", "o_totalprice"]
    lo = read_table(sf_dir, "orders", columns=cols).filter(
        expr=f"o_totalprice < {split}"
    )
    hi = read_table(sf_dir, "orders", columns=cols).filter(
        expr=f"o_totalprice >= {split}"
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["cents"] = np.floor(df["o_totalprice"].to_numpy() * 100 + 0.5).astype("int64")
        g = (
            df.groupby("o_orderstatus", sort=False)
            .agg(n=("o_orderkey", "size"), cents=("cents", "sum"))
            .reset_index()
        )
        return g

    def finalise(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["sum_price"] = df.pop("cents") / 100.0
        return df

    return (
        lo.union(hi)
        .map_batches(partial, batch_format="pandas")
        .groupby("o_orderstatus")
        .aggregate(Sum("n", alias_name="n"), Sum("cents", alias_name="cents"))
        .map_batches(finalise, batch_format="pandas")
    )


def anti_join_orders(sf_dir: str, qty_threshold: float = 45.0):
    """Anti join (§2.7 set-op family): orders with NO lineitem above the
    quantity threshold — ``Dataset.join(..., "left_anti")``, the
    hash-shuffle anti-join (both sides partition by the key; no key set
    ever materializes on the driver, unlike the broadcast semi-join).
    Columns: o_orderkey, o_totalprice."""
    import ray

    n_parts = int(min(32, max(4, ray.cluster_resources().get("CPU", 8) // 2)))
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    hot = (
        read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])
        .filter(expr=f"l_quantity > {qty_threshold}")
        .map_batches(
            lambda df: df[["l_orderkey"]].drop_duplicates(), batch_format="pandas"
        )
    )
    return orders.join(
        hot,
        "left_anti",
        num_partitions=n_parts,
        on=("o_orderkey",),
        right_on=("l_orderkey",),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    )


GROUPED_QUANTILES = (0.25, 0.5, 0.75, 0.9)


def grouped_quantiles(sf_dir: str, qs=GROUPED_QUANTILES):
    """Exact per-group quantiles of ``events.value`` per event_type
    (lower-value semantics: value at index ``floor(q * (n_g - 1))`` of the
    group's sorted values). Same two-phase scan as
    :func:`global_quantiles`, generalized to groups: ONE range-partitioned
    ``ds.sort((event_type, value))``, per-block per-group counts via tiny
    remote tasks, driver maps each (group, q) to a (block, local offset)
    and fetches single values. Scale-safe for LOW-cardinality group keys
    (driver holds blocks × groups ints) — a ``groupby(event_type)`` would
    put one whole type in one task instead. Columns: event_type, q,
    value. SQL-oracle-checked."""
    import math

    import ray

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])
    sorted_ds = ds.sort(["event_type", "value"]).materialize()
    refs = sorted_ds.to_arrow_refs()

    @ray.remote
    def type_counts(tbl: pa.Table) -> dict:
        df = tbl.to_pandas()
        return {k: int(v) for k, v in df.groupby("event_type", sort=False).size().items()}

    counts = ray.get([type_counts.remote(r) for r in refs])
    # per-type total + per-block starting offset of each type's run
    totals: dict[str, int] = {}
    block_start: list[dict] = []
    for c in counts:
        block_start.append({k: totals.get(k, 0) for k in c})
        for k, v in c.items():
            totals[k] = totals.get(k, 0) + v

    # (type, q) -> (block, local offset within block's rows of that type)
    want: dict[int, list[tuple[int, str, float, int]]] = {}
    out_rows: list[tuple[str, float]] = []
    for t in sorted(totals):
        for q in qs:
            gidx = int(math.floor(q * (totals[t] - 1)))
            for b, (c, starts) in enumerate(zip(counts, block_start)):
                if t in c and starts[t] <= gidx < starts[t] + c[t]:
                    local_of_type = gidx - starts[t]
                    want.setdefault(b, []).append((len(out_rows), t, q, local_of_type))
                    break
            out_rows.append((t, q))

    @ray.remote
    def fetch(tbl: pa.Table, items: list) -> list[float]:
        df = tbl.to_pandas()
        out = []
        for _, t, _, off in items:
            vals = df.loc[df["event_type"] == t, "value"].to_numpy()
            out.append(float(vals[off]))
        return out

    got = {b: fetch.remote(refs[b], items) for b, items in want.items()}
    vals = [0.0] * len(out_rows)
    for b, items in want.items():
        for (ri, _, _, _), v in zip(items, ray.get(got[b])):
            vals[ri] = v
    return pd.DataFrame(
        {
            "event_type": [t for t, _ in out_rows],
            "q": np.asarray([q for _, q in out_rows], dtype=np.float64),
            "value": vals,
        }
    )


GLOBAL_QUANTILES = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


def global_quantiles(sf_dir: str, qs=GLOBAL_QUANTILES):
    """Exact global quantiles of ``lineitem.l_extendedprice`` (lower-value
    semantics: value at index ``floor(q * (n-1))`` of the sorted column).

    Distributed: ONE range-partitioned ``ds.sort`` (the only shuffle),
    per-block row counts via tiny remote tasks, then the driver maps each
    quantile index to a (block, local offset) and fetches single values —
    the driver handles #blocks integers + len(qs) floats, never rows.
    Columns: q, value. SQL-oracle-checked."""
    import math

    import ray

    ds = read_table(sf_dir, "lineitem", columns=["l_extendedprice"])
    sorted_ds = ds.sort("l_extendedprice").materialize()
    refs = sorted_ds.to_arrow_refs()

    @ray.remote
    def nrows(tbl: pa.Table) -> int:
        return tbl.num_rows

    counts = ray.get([nrows.remote(r) for r in refs])
    n = int(sum(counts))
    bounds = np.cumsum([0] + counts)

    # quantile index -> (block, local offset); fetch each block once
    want: dict[int, list[tuple[int, int]]] = {}
    for qi, q in enumerate(qs):
        gidx = int(math.floor(q * (n - 1)))
        b = int(np.searchsorted(bounds, gidx, side="right") - 1)
        want.setdefault(b, []).append((qi, gidx - int(bounds[b])))

    @ray.remote
    def fetch(tbl: pa.Table, offs: list[int]) -> list[float]:
        col = tbl["l_extendedprice"]
        return [float(col[o].as_py()) for o in offs]

    got = {
        b: fetch.remote(refs[b], [o for _, o in pairs]) for b, pairs in want.items()
    }
    vals = [0.0] * len(qs)
    for b, pairs in want.items():
        for (qi, _), v in zip(pairs, ray.get(got[b])):
            vals[qi] = v
    return pd.DataFrame({"q": np.asarray(qs, dtype=np.float64), "value": vals})


_WINSOR_QS = (0.01, 0.99)  # pinned clamp quantiles


def winsorize_events(sf_dir: str, qs: tuple = _WINSOR_QS):
    """Winsorized robust aggregate of ``events.value`` — the standard
    outlier-resistant statistic (clamp at exact P01/P99, then sum): the
    pre-processing step behind robust reward/metric aggregation.

    Thresholds are EXACT lower-value order statistics at index
    ``floor(q*(n-1))`` of the sorted column (one range-partitioned
    ``ds.sort``, driver fetches 2 scalars via (block, offset) — the
    global_quantiles/ccnet_buckets machinery); the clamped sum then
    folds as exact integer cents in one streaming pass (order-free), so
    the result is bit-identical to the SQL mirror's. Clip counts use
    strict inequalities. Columns: n, t_lo, t_hi, sum_winsorized,
    n_clipped_low, n_clipped_high. SQL-oracle-checked (row_number
    order-statistic mirror)."""
    import math

    import ray

    ds = read_table(sf_dir, "events", columns=["event_id", "value"])
    sorted_ds = ds.sort("value").materialize()
    refs = sorted_ds.to_arrow_refs()

    @ray.remote
    def nrows(tbl: pa.Table) -> int:
        return tbl.num_rows

    counts = ray.get([nrows.remote(r) for r in refs])
    n = int(sum(counts))
    bounds = np.cumsum([0] + counts)

    @ray.remote
    def value_at(tbl: pa.Table, off: int) -> float:
        return float(tbl["value"][off].as_py())

    def fetch(gidx: int) -> float:
        b = int(np.searchsorted(bounds, gidx, side="right") - 1)
        return ray.get(value_at.remote(refs[b], gidx - int(bounds[b])))

    t_lo = fetch(math.floor(qs[0] * (n - 1))) if n else 0.0
    t_hi = fetch(math.floor(qs[1] * (n - 1))) if n else 0.0

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(dtype=np.float64)
        clamped = np.minimum(np.maximum(v, t_lo), t_hi)
        return pd.DataFrame(
            {
                "sum_c": np.array([cents(clamped).sum()], dtype="int64"),
                "n_lo": np.array([(v < t_lo).sum()], dtype="int64"),
                "n_hi": np.array([(v > t_hi).sum()], dtype="int64"),
            }
        )

    parts = sorted_ds.map_batches(partial, batch_format="pandas").to_pandas()
    return pd.DataFrame(
        {
            "n": pd.Series([n], dtype="int64"),
            "t_lo": pd.Series([t_lo], dtype="float64"),
            "t_hi": pd.Series([t_hi], dtype="float64"),
            "sum_winsorized": pd.Series(
                [int(parts["sum_c"].sum()) / 100.0 if len(parts) else 0.0]
            ),
            "n_clipped_low": pd.Series(
                [int(parts["n_lo"].sum()) if len(parts) else 0], dtype="int64"
            ),
            "n_clipped_high": pd.Series(
                [int(parts["n_hi"].sum()) if len(parts) else 0], dtype="int64"
            ),
        }
    )


def custdist(sf_dir: str):
    """Customer order-count distribution (the TPC-H Q13 shape): how many
    customers placed exactly k orders, zero-order customers included —
    the classic outer-join + two-level aggregation the reference's
    frequency counting family (A1, ``FrequencyCountingReducer.java``)
    lacks only because its inputs are single-table.

    Shape: per-batch partial order counts by custkey + customer keys →
    ONE bucketed co-group on bucket(custkey) resolves exact
    per-customer counts (zeros from the customer side) AND collapses to
    per-bucket (n_orders → n_customers) spectrum partials in the same
    group fn (the token_spectrum discipline — the exchange after the
    fold carries ≤ buckets × distinct-count rows, never per-customer
    rows); bounded driver fold. Columns: n_orders, n_customers.
    SQL-oracle-checked (LEFT JOIN + GROUP BY mirror)."""

    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    orders = read_table(sf_dir, "orders", columns=["o_custkey"])

    def order_partials(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby("o_custkey", sort=False)
            .size()
            .reset_index(name="n")
            .rename(columns={"o_custkey": "key"})
        )
        g["n"] = g["n"].astype("int64")
        return g[["key", "n"]]

    def customer_keys(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"key": df["c_custkey"].astype("int64")})

    def spectrum_in_bucket(parts: pd.DataFrame, cust: pd.DataFrame) -> pd.DataFrame:
        agg = parts.groupby("key", sort=False)["n"].sum()
        per_cust = cust["key"].map(agg).fillna(0).astype("int64")
        spec = per_cust.value_counts().reset_index()
        spec.columns = ["n_orders", "n_customers"]
        return spec.astype({"n_orders": "int64", "n_customers": "int64"})

    parts = keyed_fold(
        (orders, cust), spectrum_in_bucket, "key", rows=(order_partials, customer_keys),
        empty=dict(n_orders="int64", n_customers="int64"),
    ).to_pandas()
    if not len(parts):
        return typed_empty(n_orders="int64", n_customers="int64")
    out = (
        parts.groupby("n_orders", sort=False)["n_customers"]
        .sum()
        .reset_index()
        .astype({"n_orders": "int64", "n_customers": "int64"})
    )
    return out


def important_parts(sf_dir: str, frac_denom: int = 2000):
    """Important-part identification (the TPC-H Q11 shape): parts whose
    lineitem revenue exceeds ``1/frac_denom`` of the corpus-wide total —
    a per-group aggregate gated by a GLOBAL scalar, the pattern where a
    naive engine re-scans the corpus for the total.

    Shape: ONE exchange builds exact per-part int64-cent revenue
    (per-batch combiner partials → bucketed fold), materialized once
    (≤ |part| rows, corpus-text-size independent); the grand total is a
    Sum aggregate over THAT table (never a second corpus scan) and the
    threshold comparison is exact integer arithmetic
    (``val*D > total ⟺ val > total // D`` for positive ints — no float
    threshold, no overflow). Columns: p_partkey, value, n_items.
    SQL-oracle-checked (HAVING vs HUGEINT-total mirror)."""

    li = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.assign(c=cents(df["l_extendedprice"].to_numpy()))
            .groupby("l_partkey", sort=False)
            .agg(c=("c", "sum"), n=("c", "size"))
            .reset_index()
        )
        g["c"] = g["c"].astype("int64")
        g["n"] = g["n"].astype("int64")
        return g

    per_part = keyed_fold(
        li, sum_in_bucket("l_partkey", "c", "n"), "l_partkey", rows=partials,
        empty=dict(l_partkey="int64", c="int64", n="int64"),
    ).materialize()
    total = per_part.sum("c", ignore_nulls=True) or 0
    thr = int(total) // int(frac_denom)  # val*D > total ⟺ val > total//D

    def keep(batch: pa.Table) -> pa.Table:
        mask = pc.greater(batch["c"], pa.scalar(thr, pa.int64()))
        kept = batch.filter(mask)
        return pa.table(
            {
                "p_partkey": kept["l_partkey"],
                "value": pc.divide(
                    pc.cast(kept["c"], pa.float64()), pa.scalar(100.0)
                ),
                "n_items": kept["n"],
            }
        )

    return per_part.map_batches(keep, batch_format="pyarrow")


def promo_revenue(sf_dir: str):
    """Promo-revenue share per ship-month (the TPC-H Q14 shape): the
    CASE-conditional aggregate RATIO — what fraction of each month's
    revenue came from promo parts. The missing relational shape next to
    Q1 (lineitem_agg), Q2 (min_cost_supplier), Q11 (important_parts),
    Q13 (custdist).

    Shape: lineitem pass → exact int64-cent partials per (l_partkey,
    ship_month) combined in-batch; part pass tags (p_partkey,
    is_promo); ONE bucketed co-group by bucket(partkey) attaches the
    flag (the min_cost_supplier attach — part is corpus-scaled at the
    design point, so no broadcast) and collapses to per-(bucket, month)
    promo/total sums in-group; the driver folds ≤ months × buckets tiny
    rows. Money discipline: ``cents(price · (1 − discount))`` exact
    int64 everywhere; the share ships as exact integer
    ``promo_ppm = promo_cents · 10⁶ // total_cents`` — no float folds.
    Columns: ship_month, promo_cents, total_cents, promo_ppm.
    SQL-oracle-checked (CASE-sum mirror)."""

    li = read_table(
        sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"]
    )
    parts = read_table(sf_dir, "part", columns=["p_partkey", "p_type"])

    def li_partials(df: pd.DataFrame) -> pd.DataFrame:
        rev = df["l_extendedprice"].to_numpy() * (1.0 - df["l_discount"].to_numpy())
        month = (
            df["l_shipdate"].dt.year.to_numpy() * 100 + df["l_shipdate"].dt.month.to_numpy()
        ).astype("int64")
        g = (
            pd.DataFrame({"key": df["l_partkey"].to_numpy(), "month": month, "c": cents(rev)})
            .groupby(["key", "month"], sort=False)["c"]
            .sum()
            .reset_index()
        )
        return g.astype({"key": "int64", "month": "int64", "c": "int64"})

    def part_tags(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"key": df["p_partkey"].astype("int64"), "promo": (df["p_type"] == "PROMO").to_numpy()}
        )

    def attach_fold(li_rows: pd.DataFrame, tags: pd.DataFrame) -> pd.DataFrame:
        m = li_rows[["key", "month", "c"]].merge(tags[["key", "promo"]], on="key", how="inner")
        if not len(m):
            return typed_empty(month="int64", promo_c="int64", total_c="int64")
        m["promo_c"] = np.where(m["promo"].to_numpy(), m["c"].to_numpy(), 0)
        g = (
            m.groupby("month", sort=False)
            .agg(promo_c=("promo_c", "sum"), total_c=("c", "sum"))
            .reset_index()
        )
        return g.astype({"month": "int64", "promo_c": "int64", "total_c": "int64"})

    folded = keyed_fold(
        (li, parts), attach_fold, "key", rows=(li_partials, part_tags),
        empty=dict(month="int64", promo_c="int64", total_c="int64"),
    ).to_pandas()  # bounded: <= buckets x months tiny rows
    if not len(folded):
        return pd.DataFrame(
            {
                "ship_month": pd.Series([], dtype="int64"),
                "promo_cents": pd.Series([], dtype="int64"),
                "total_cents": pd.Series([], dtype="int64"),
                "promo_ppm": pd.Series([], dtype="int64"),
            }
        )
    out = (
        folded.groupby("month", sort=False)[["promo_c", "total_c"]].sum().reset_index()
    )
    return pd.DataFrame(
        {
            "ship_month": out["month"].astype("int64"),
            "promo_cents": out["promo_c"].astype("int64"),
            "total_cents": out["total_c"].astype("int64"),
            "promo_ppm": (
                out["promo_c"].to_numpy() * 1_000_000 // out["total_c"].to_numpy()
            ).astype("int64"),
        }
    )


def forecast_revenue(
    sf_dir: str,
    lo: str = "1997-01-01",
    hi: str = "1998-01-01",
    disc_lo: int = 5,
    disc_hi: int = 7,
    qty_lt: float = 24.0,
):
    """Revenue-change forecast (the TPC-H Q6 shape): the corpus-wide
    ``sum(extendedprice * discount)`` over a ship-year band of discounts
    and small quantities — the pure filter+aggregate member of the
    relational family (A1's single-table aggregation with a predicate
    stack, ``FrequencyCountingReducer.java`` lineage).

    Exactness: the discount band compares ROUNDED integer percent
    (``floor(d*100+0.5) BETWEEN lo AND hi``) on BOTH engines — a raw
    float BETWEEN is engine-consistent only by accident at band edges;
    the revenue folds as exact int64 cents of ``price * discount`` per
    line. One streaming pass, per-batch scalar partials, no exchange.
    Columns: revenue_cents, n_lines (one row). SQL-oracle-checked."""
    lo_ts, hi_ts = pd.Timestamp(lo), pd.Timestamp(hi)
    li = read_table(
        sf_dir, "lineitem",
        columns=["l_extendedprice", "l_discount", "l_quantity", "l_shipdate"],
    )

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        disc_pct = np.floor(df["l_discount"].to_numpy() * 100 + 0.5).astype("int64")
        keep = (
            (df["l_shipdate"] >= lo_ts).to_numpy()
            & (df["l_shipdate"] < hi_ts).to_numpy()
            & (disc_pct >= disc_lo)
            & (disc_pct <= disc_hi)
            & (df["l_quantity"].to_numpy() < qty_lt)
        )
        sub = df[keep]
        rev = sub["l_extendedprice"].to_numpy() * sub["l_discount"].to_numpy()
        return pd.DataFrame(
            {
                "c": pd.Series([int(cents(rev).sum())], dtype="int64"),
                "n": pd.Series([len(sub)], dtype="int64"),
            }
        )

    parts = li.map_batches(partials, batch_format="pandas").to_pandas()
    return pd.DataFrame(
        {
            "revenue_cents": pd.Series([int(parts["c"].sum())], dtype="int64"),
            "n_lines": pd.Series([int(parts["n"].sum())], dtype="int64"),
        }
    )


def order_priority_census(
    sf_dir: str,
    lo: str = "1997-01-01",
    hi: str = "1997-04-01",
    late_days: int = 60,
):
    """Order-priority checking (the TPC-H Q4 shape): orders placed in
    the window that had at least one LATE lineitem (shipped more than
    ``late_days`` after the order date), counted per priority — the
    EXISTS-semi-join + census composite.

    Shape: ONE bucket(orderkey) co-group joins window-filtered orders
    against per-order MAX-shipdate partials (max is the combiner — a
    batch ships one row per orderkey) and resolves EXISTS as an exact
    integer day comparison (both columns are midnight timestamps;
    ``day(max_ship) > day(order) + late_days``), collapsing to
    per-priority counts IN-GROUP; the driver folds ≤ buckets × 5 rows.
    Columns: o_orderpriority, n_orders. SQL-oracle-checked."""
    lo_ts, hi_ts = pd.Timestamp(lo), pd.Timestamp(hi)
    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_orderdate", "o_orderpriority"]
    )
    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])

    def day_i64(v: np.ndarray) -> np.ndarray:
        return v.astype("datetime64[D]").astype("int64")

    def li_partials(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            pd.DataFrame(
                {
                    "key": df["l_orderkey"].to_numpy(),
                    "d": day_i64(df["l_shipdate"].to_numpy()),
                }
            )
            .groupby("key", sort=False)["d"]
            .max()
            .reset_index()
        )
        return g.astype({"key": "int64", "d": "int64"})

    def window_orders(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[(df["o_orderdate"] >= lo_ts) & (df["o_orderdate"] < hi_ts)]
        key = keep["o_orderkey"].astype("int64")
        return pd.DataFrame(
            {
                "key": key.to_numpy(),
                "d": day_i64(keep["o_orderdate"].to_numpy()),
                "pri": keep["o_orderpriority"].to_numpy(dtype=object),
            }
        )

    def census_in_bucket(parts: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        mx = parts.groupby("key", sort=False)["d"].max()
        late = o["key"].map(mx).to_numpy() > o["d"].to_numpy() + late_days
        o = o[np.nan_to_num(late, nan=False).astype(bool)]
        if not len(o):
            return typed_empty(o_orderpriority=str, n_orders="int64")
        g = (
            o.groupby("pri", sort=False)
            .size()
            .reset_index(name="n_orders")
            .rename(columns={"pri": "o_orderpriority"})
        )
        return g.astype({"n_orders": "int64"})

    folded = keyed_fold(
        (li, orders), census_in_bucket, "key", rows=(li_partials, window_orders),
        empty=dict(o_orderpriority=str, n_orders="int64"),
    ).to_pandas()  # bounded: <= buckets x priorities tiny rows
    if not len(folded):
        return typed_empty(o_orderpriority=str, n_orders="int64")
    return (
        folded.groupby("o_orderpriority", sort=False)["n_orders"]
        .sum()
        .reset_index()
        .astype({"n_orders": "int64"})
    )


def open_orders_by_month(
    sf_dir: str, grid_lo: str = "1995-01-01", grid_hi: str = "2002-01-01"
):
    """Order-backlog census (temporal stabbing query): how many orders
    were OPEN — placed but not yet fully shipped — at the first day of
    each month. The interval-overlap count a naive engine computes with
    an inequality join of every order against every month; here each
    order touches the fixed month grid exactly twice.

    Shape: ONE bucket(orderkey) co-group builds each order's
    (order_day, last_ship_day) span from per-order MAX-shipdate combiner
    partials; the span batch collapses to a DIFFERENCE ARRAY over the
    broadcast month grid (two ``searchsorted`` per batch — +1 at the
    first month ≥ order date, −1 at the first month ≥ last ship), and
    the driver folds the tiny per-batch vectors with one cumulative sum.
    Orders with no lineitems have no span (inner semantics, matching the
    JOIN mirror). Columns: month (yyyymm), n_open. SQL-oracle-checked
    (generate_series inequality-join mirror)."""
    months = pd.date_range(grid_lo, grid_hi, freq="MS")
    grid_days = months.to_numpy().astype("datetime64[D]").astype("int64")
    month_keys = (months.year * 100 + months.month).to_numpy().astype("int64")
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])
    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])

    def day_i64(v: np.ndarray) -> np.ndarray:
        return v.astype("datetime64[D]").astype("int64")

    def li_partials(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            pd.DataFrame(
                {
                    "key": df["l_orderkey"].to_numpy(),
                    "d": day_i64(df["l_shipdate"].to_numpy()),
                }
            )
            .groupby("key", sort=False)["d"]
            .max()
            .reset_index()
        )
        return g.astype({"key": "int64", "d": "int64"})

    def order_days(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": df["o_orderkey"].astype("int64").to_numpy(),
                "d": day_i64(df["o_orderdate"].to_numpy()),
            }
        )

    def diff_in_bucket(parts: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        ms = parts.groupby("key", sort=False)["d"].max()
        end = o["key"].map(ms)
        o = o.assign(end=end).dropna(subset=["end"])
        if not len(o):
            return typed_empty(idx="int64", delta="int64")
        # open at month start m ⟺ order_day <= m < last_ship_day
        lo = np.searchsorted(grid_days, o["d"].to_numpy(), side="left")
        hi = np.searchsorted(grid_days, o["end"].to_numpy().astype("int64"),
                             side="left")
        # inverted spans (last ship BEFORE the order date — the synthetic
        # generator allows them) must contribute NOTHING: an unclamped
        # -1 at hi < lo drives the difference array negative over
        # [hi, lo) and corrupts every month in between
        hi = np.maximum(hi, lo)
        n = len(grid_days)
        diff = np.zeros(n + 1, dtype="int64")
        np.add.at(diff, np.clip(lo, 0, n), 1)
        np.add.at(diff, np.clip(hi, 0, n), -1)
        nz = np.nonzero(diff[:n])[0]
        return pd.DataFrame(
            {"idx": nz.astype("int64"), "delta": diff[nz].astype("int64")}
        )

    parts = keyed_fold(
        (li, orders), diff_in_bucket, "key", rows=(li_partials, order_days),
        empty=dict(idx="int64", delta="int64"),
    ).to_pandas()  # bounded: <= buckets x months tiny rows
    total = np.zeros(len(grid_days), dtype="int64")
    if len(parts):
        np.add.at(total, parts["idx"].to_numpy(), parts["delta"].to_numpy())
    n_open = np.cumsum(total)
    return pd.DataFrame(
        {"month": month_keys, "n_open": n_open.astype("int64")}
    )
