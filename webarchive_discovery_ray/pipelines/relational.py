"""Relational operators Ray Data lacks natively: as-of join, range join,
windowed running aggregate.

The reference's closest precedent is the ordered response<->metadata pairing
(``warc-hadoop-crawler-utils/.../recrawl/PersistLogMapper.java:86-97``, an
as-of-style merge within a WARC file) and the digest self-join
(``MDXReduplicatingReducer.java:72-153``). These generalise that machinery
for training-data pipelines, each expressed per SURVEY.md §2 guidance as a
composition of map_batches + groupby().map_groups + sort:

* **as-of join** — hash-partition both sides by bucket(equality key)
  (one bucketed grouped pass, ``functions/bucketing.py``), vectorized
  in-bucket backward merge for every key at once
  (``pandas.merge_asof(by=key)``). Partitioning assumption: the equality
  key co-locates both sides; no global sort needed.
* **range join** — the bucket side is small: broadcast it and bin the big
  side vectorised inside ``map_batches`` (``numpy.searchsorted``), then a
  partial-aggregate + small groupby. No shuffle of the big side.
* **windowed running aggregate** — hash-partition by the PARTITION BY key,
  per-group sort + cumulative sum. Money stays integer cents for bit-exact
  cross-engine equality.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.bucketing import keyed_fold, typed_empty
from ..sources.io import read_table

__all__ = [
    "asof_join_events",
    "shipping_priority",
    "returned_items",
    "top_supplier",
    "large_orders",
    "global_balance_filter",
    "nation_trade_volume",
    "parts_supplier_census",
    "market_share",
    "small_quantity_revenue",
    "partsupp_synth",
    "shipmode_priority_census",
    "bracketed_revenue",
    "product_type_profit",
    "promo_part_suppliers",
    "waiting_supplier_census",
    "range_join_events",
    "window_running_sum",
    "sliding_window_events",
    "outer_join_customer_orders",
    "min_cost_supplier",
]


def _keyed(key_col: str, **cols: str):
    """Partial keying a table by ``key_col`` for a co-group: an int64
    ``key`` column plus ``cols`` (new name = source column), all rows."""

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"key": df[key_col].to_numpy().astype("int64")})
        for new, col in cols.items():
            out[new] = df[col].to_numpy()
        return out

    keyed.__name__ = f"key_by_{key_col}"
    return keyed


def sliding_window_events(sf_dir: str, window_s: int = 3600, slide_s: int = 900):
    """Sliding-window aggregate: per (event_type, window) sum+count where
    windows are ``window_s`` long and slide by ``slide_s`` (each event
    lands in ``window_s // slide_s`` windows). Expressed as a vectorized
    per-batch fan-out (numpy repeat/tile — no per-row loop, no windowed
    state) + in-batch partial aggregation + ONE small groupby: the
    streaming-window operator as a Dataset composition. Columns:
    event_type, window_start, n_events, sum_value (integer-cents
    quantised, bit-exact vs the SQL oracle)."""
    from ray.data.aggregate import Sum

    assert window_s % slide_s == 0
    k = window_s // slide_s
    slide_ms = slide_s * 1000
    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        # unit-safe epoch ms (the ts column arrives as datetime64[us] from
        # parquet; a raw int64 view would be unit-dependent)
        ms = df["ts"].to_numpy().astype("datetime64[ms]").astype("int64")
        base = (ms // slide_ms) * slide_ms
        cents = np.floor(df["value"].to_numpy() * 100 + 0.5).astype(np.int64)
        starts = np.repeat(base, k) - np.tile(np.arange(k) * slide_ms, n)
        out = pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].to_numpy(), k),
                "window_start_ms": starts,
                "cents": np.repeat(cents, k),
            }
        )
        return (
            out.groupby(["event_type", "window_start_ms"], sort=False)
            .agg(n_events=("cents", "size"), cents=("cents", "sum"))
            .reset_index()
        )

    agg = (
        ds.map_batches(expand, batch_format="pandas")
        .groupby(["event_type", "window_start_ms"])
        .aggregate(Sum("n_events", alias_name="n_events"), Sum("cents", alias_name="cents"))
    )

    def finalise(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": df["event_type"],
                # us resolution: bit-identical dtype to DuckDB's TIMESTAMP
                "window_start": pd.to_datetime(df["window_start_ms"], unit="ms").astype(
                    "datetime64[us]"
                ),
                "n_events": df["n_events"],
                "sum_value": df["cents"] / 100.0,
            }
        )

    return agg.map_batches(finalise, batch_format="pandas")


def asof_join_events(sf_dir: str):
    """For each ``purchase`` event: the user's most recent ``signup`` at or
    before it (backward as-of). Columns: event_id, user_id, ts,
    signup_event_id (-1 when none), signup_ts (epoch when none — matching
    the oracle's COALESCE for a null-free comparison surface).

    Oracle: DuckDB ``ASOF LEFT JOIN`` (on user_id, ts >= signup ts).

    ONE bucketed grouped pass keyed by ``bucket(user_id)``
    (``functions/bucketing.py`` — a per-user map_groups pays one Python
    call per user): inside a bucket, ``pd.merge_asof(..., by="user_id")``
    performs the per-user backward merge for EVERY user in one vectorized
    call (both sides time-sorted; the equality key co-locates by
    construction)."""

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    epoch = pd.Timestamp("1970-01-01")

    def asof_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["event_id", "user_id", "ts", "signup_event_id", "signup_ts"]
        left = (
            df[df["event_type"] == "purchase"][["event_id", "user_id", "ts"]]
            .sort_values(["ts", "event_id"], kind="mergesort")
            .reset_index(drop=True)
        )
        right = (
            df[df["event_type"] == "signup"][["event_id", "user_id", "ts"]]
            .rename(columns={"event_id": "signup_event_id", "ts": "signup_ts"})
            .sort_values(["signup_ts", "signup_event_id"], kind="mergesort")
            .reset_index(drop=True)
        )
        if left.empty:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "user_id": pd.Series([], dtype="int64"),
                    "ts": pd.Series([], dtype="datetime64[us]"),
                    "signup_event_id": pd.Series([], dtype="int64"),
                    "signup_ts": pd.Series([], dtype="datetime64[us]"),
                }
            )
        if right.empty:
            out = left.copy()
            out["signup_event_id"] = np.int64(-1)
            out["signup_ts"] = epoch
            return out[cols]
        merged = pd.merge_asof(
            left,
            right,
            left_on="ts",
            right_on="signup_ts",
            by="user_id",
            direction="backward",
        )
        merged["signup_event_id"] = merged["signup_event_id"].fillna(-1).astype("int64")
        merged["signup_ts"] = merged["signup_ts"].fillna(epoch)
        return merged[cols]

    return keyed_fold(ds, asof_in_bucket, "user_id")


# static bucket table (the small side of the range join)
RANGE_BUCKETS = [(0.0, 50.0), (50.0, 100.0), (100.0, 150.0), (150.0, 1e9)]


def range_join_events(sf_dir: str):
    """Range join events.value into static buckets, then count + sum per
    (event_type, bucket). The bucket side broadcasts; binning is a
    vectorised searchsorted inside map_batches; the groupby touches only
    pre-aggregated partials. Columns: event_type, bucket_lo, n_events,
    sum_value (integer-cents quantised)."""
    import pyarrow.compute as pc  # noqa: F401  (vectorised kernels in prep)

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])
    lows = np.array([b[0] for b in RANGE_BUCKETS])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        idx = np.searchsorted(lows, df["value"].to_numpy(), side="right") - 1
        idx = np.clip(idx, 0, len(lows) - 1)
        df["bucket_lo"] = lows[idx]
        df["cents"] = np.floor(df["value"].to_numpy() * 100 + 0.5).astype(np.int64)
        g = (
            df.groupby(["event_type", "bucket_lo"], sort=False)
            .agg(n_events=("value", "size"), cents=("cents", "sum"))
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    def finalise(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["sum_value"] = df.pop("cents") / 100.0
        return df

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "bucket_lo"])
        .aggregate(Sum("n_events", alias_name="n_events"), Sum("cents", alias_name="cents"))
        .map_batches(finalise, batch_format="pandas")
    )


def window_running_sum(sf_dir: str):
    """Running (cumulative) sum of value per event_type ordered by
    (ts, event_id) — the windowed-aggregate operator, as a TWO-PHASE
    prefix sum. Columns: event_id, event_type, running_value.

    A ``groupby(event_type)`` would collapse the whole table into as many
    pandas groups as there are event types (~5) — one group per task, the
    table's full size in one worker's memory. Instead: range-partition by
    (event_type, ts, event_id) with ``ds.sort`` (blocks stay bounded no
    matter how few distinct types exist), compute per-block cumsums and
    per-block per-type totals, then a TINY driver pass turns the block
    totals into per-(block, type) offsets (classic scan prefix-sum). The
    driver handles only #blocks × #types integers, never rows."""
    import ray
    import ray.data as rd

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "event_type", "value"])

    def to_cents(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": df["event_id"],
                "ts": df["ts"],
                "event_type": df["event_type"],
                "cents": np.floor(df["value"].to_numpy() * 100 + 0.5).astype(np.int64),
            }
        )

    sorted_ds = (
        ds.map_batches(to_cents, batch_format="pandas")
        .sort(["event_type", "ts", "event_id"])
        .materialize()
    )
    refs = sorted_ds.to_arrow_refs()  # blocks in global sort order

    @ray.remote
    def block_totals(tbl: pa.Table) -> dict:
        df = tbl.to_pandas()
        return {
            k: int(v)
            for k, v in df.groupby("event_type", sort=False)["cents"].sum().items()
        }

    totals = ray.get([block_totals.remote(r) for r in refs])
    offsets: list[dict] = []
    running: dict[str, int] = {}
    for t in totals:
        offsets.append({k: running.get(k, 0) for k in t})
        for k, v in t.items():
            running[k] = running.get(k, 0) + v

    @ray.remote
    def apply_offsets(tbl: pa.Table, off: dict) -> pa.Table:
        df = tbl.to_pandas()
        csum = df.groupby("event_type", sort=False)["cents"].cumsum()
        base = df["event_type"].map(off).fillna(0).astype("int64")
        return pa.Table.from_pandas(
            pd.DataFrame(
                {
                    "event_id": df["event_id"],
                    "event_type": df["event_type"],
                    "running_value": (csum + base) / 100.0,
                }
            ),
            preserve_index=False,
        )

    out_refs = [apply_offsets.remote(r, o) for r, o in zip(refs, offsets)]
    # pin the sorted blocks until every offset task has produced its output
    # (task outputs are driver-owned and survive the sorted set's release)
    ray.wait(out_refs, num_returns=len(out_refs), fetch_local=False)
    del sorted_ds, refs
    return rd.from_arrow_refs(out_refs)


def outer_join_customer_orders(sf_dir: str):
    """Left-outer aggregate join customer ⟕ orders — the join flavor the
    relational family was missing (semi/anti/inner-hash/as-of/range exist):
    every customer appears, zero-order customers included.

    Shape: per-batch partial (custkey, n, cents) combiners on the orders
    side, customer keys, ONE bucketed co-grouped pass on
    bucket(custkey) — the outer side never ships order rows, only
    pre-aggregated partials. Money in exact integer cents
    (``aggregates.cents``) so the double division at the end is
    bit-identical to the SQL oracle's. Columns: c_custkey, n_orders,
    total_spent. SQL-oracle-checked."""
    from .aggregates import cents

    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def order_partials(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.assign(c=cents(df["o_totalprice"].to_numpy()))
            .groupby("o_custkey", sort=False)
            .agg(n=("o_custkey", "size"), c=("c", "sum"))
            .reset_index()
            .rename(columns={"o_custkey": "key"})
        )
        return g[["key", "n", "c"]]

    def join_in_bucket(parts: pd.DataFrame, cust: pd.DataFrame) -> pd.DataFrame:
        cust_keys = cust["key"]
        agg = parts.groupby("key", sort=False)[["n", "c"]].sum()
        n = cust_keys.map(agg["n"]).fillna(0).astype("int64")
        c = cust_keys.map(agg["c"]).fillna(0).astype("int64")
        return pd.DataFrame(
            {
                "c_custkey": cust_keys.to_numpy(),
                "n_orders": n.to_numpy(),
                "total_spent": c.to_numpy() / 100.0,
            }
        )

    return keyed_fold(
        (orders, cust), join_in_bucket, "key", rows=(order_partials, _keyed("c_custkey"))
    )


def min_cost_supplier(sf_dir: str):
    """Cheapest supplier per part (the TPC-H Q2 correlated-subquery
    shape): for every part appearing in lineitem, the supplier offering
    the minimum extended price, ties broken to the smallest suppkey —
    the distributed groupwise-argmin + enrichment-join pattern.

    Shape: per-batch partial argmin per partkey (lexicographic
    (price_cents, suppkey) — a sort + drop_duplicates, no Python loop)
    → bucketed fold on bucket(partkey) resolves the exact global winner
    per part; a SECOND co-group on bucket(suppkey) attaches the
    supplier name without broadcasting the supplier table (supplier
    count scales with the corpus, so a ray.put lookup would not hold at
    10^10-URL scale — the winners ship their suppkey instead). Columns:
    p_partkey, s_suppkey, s_name, min_price. Inner-join semantics on
    the name attach (mirrored by the SQL oracle's JOIN).
    SQL-oracle-checked."""
    from .aggregates import cents

    li = read_table(
        sf_dir, "lineitem", columns=["l_partkey", "l_suppkey", "l_extendedprice"]
    )
    sup = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"])

    def argmin_partials(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "l_partkey": df["l_partkey"].astype("int64"),
                "c": cents(df["l_extendedprice"].to_numpy()),
                "sk": df["l_suppkey"].astype("int64"),
            }
        )
        w = d.sort_values(["l_partkey", "c", "sk"], kind="mergesort").drop_duplicates(
            "l_partkey"
        )
        return w

    def fold_winner(df: pd.DataFrame) -> pd.DataFrame:
        w = df.sort_values(
            ["l_partkey", "c", "sk"], kind="mergesort"
        ).drop_duplicates("l_partkey")
        return w[["l_partkey", "c", "sk"]].reset_index(drop=True)

    winners = keyed_fold(
        li, fold_winner, "l_partkey", rows=argmin_partials,
        empty=dict(l_partkey="int64", c="int64", sk="int64"),
    )

    def attach_name(w: pd.DataFrame, sup: pd.DataFrame) -> pd.DataFrame:
        names = sup.drop_duplicates("key").set_index("key")["s_name"]
        nm = w["key"].map(names)
        ok = nm.notna()
        return pd.DataFrame(
            {
                "p_partkey": w.loc[ok, "l_partkey"].to_numpy(),
                "s_suppkey": w.loc[ok, "key"].to_numpy(),
                "s_name": nm[ok].to_numpy(),
                "min_price": w.loc[ok, "c"].to_numpy() / 100.0,
            }
        )

    return keyed_fold(
        (winners, sup), attach_name, "key",
        rows=(_keyed("sk", l_partkey="l_partkey", c="c"), _keyed("s_suppkey", s_name="s_name")),
        empty=dict(p_partkey="int64", s_suppkey="int64", s_name=str, min_price="float64"),
    )


def _date_i64(s: pd.Series) -> np.ndarray:
    """Timestamp column -> exact int64 yyyymmdd (engine-neutral date key)."""
    return (
        s.dt.year.to_numpy() * 10_000
        + s.dt.month.to_numpy() * 100
        + s.dt.day.to_numpy()
    ).astype("int64")


def shipping_priority(
    sf_dir: str,
    segment: str = "BUILDING",
    cut: str = "1998-06-01",
    k: int = 10,
):
    """Unshipped-order revenue ranking (the TPC-H Q3 shape): the top-k
    revenue of orders from one market segment placed before ``cut`` with
    lineitems still shipping after it — the canonical 3-table join +
    group + top-k the reference's single-table aggregation family (A1)
    never needs but any analytics user of this engine will write.

    Shape: two bucketed co-groups, both sides pre-filtered at the read:
    (1) bucket(custkey) gates the date-filtered orders by the segment's
    customers (no customer broadcast — corpus-scaled at the design
    point); (2) bucket(orderkey) joins per-order revenue partials
    (``cents(price·(1−discount))`` combined in-batch) against the gated
    orders and truncates to the bucket's top-k under the FINAL total
    order (revenue desc, o_date asc, o_orderkey asc — a global top-k row
    is necessarily in its bucket's top-k), so the driver folds ≤ buckets
    × k rows. Columns: o_orderkey, revenue_cents, o_date.
    SQL-oracle-checked."""
    from .aggregates import cents

    cut_ts = pd.Timestamp(cut)
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
    li = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def seg_customers(df: pd.DataFrame) -> pd.DataFrame:
        return _keyed("c_custkey")(df[df["c_mktsegment"] == segment])

    def early_orders(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[df["o_orderdate"] < cut_ts]
        return pd.DataFrame(
            {
                "key": keep["o_custkey"].astype("int64").to_numpy(),
                "okey": keep["o_orderkey"].to_numpy().astype("int64"),
                "o_date": _date_i64(keep["o_orderdate"]),
            }
        )

    def gate_in_bucket(o: pd.DataFrame, seg: pd.DataFrame) -> pd.DataFrame:
        o = o[o["key"].isin(set(seg["key"].to_numpy()))]
        return pd.DataFrame(
            {
                "key": o["okey"].astype("int64").to_numpy(),
                "o_date": o["o_date"].to_numpy().astype("int64"),
            }
        )

    def li_partials(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[df["l_shipdate"] > cut_ts]
        rev = keep["l_extendedprice"].to_numpy() * (1.0 - keep["l_discount"].to_numpy())
        g = (
            pd.DataFrame({"key": keep["l_orderkey"].to_numpy(), "c": cents(rev)})
            .groupby("key", sort=False)["c"]
            .sum()
            .reset_index()
        )
        return g.astype({"key": "int64", "c": "int64"})

    result = dict(o_orderkey="int64", revenue_cents="int64", o_date="int64")

    def topk_in_bucket(parts: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        o = o[["key", "o_date"]]
        rev = parts.groupby("key", sort=False)["c"].sum()
        m = o.assign(revenue_cents=o["key"].map(rev))
        m = m.dropna(subset=["revenue_cents"])
        m = m.sort_values(
            ["revenue_cents", "o_date", "key"], ascending=[False, True, True]
        ).head(k)
        return pd.DataFrame(
            {
                "o_orderkey": m["key"].to_numpy().astype("int64"),
                "revenue_cents": m["revenue_cents"].to_numpy().astype("int64"),
                "o_date": m["o_date"].to_numpy().astype("int64"),
            }
        )

    gated = keyed_fold(
        (orders, cust), gate_in_bucket, "key", rows=(early_orders, seg_customers),
        empty=dict(key="int64", o_date="int64"),
    )
    folded = keyed_fold(
        (li, gated), topk_in_bucket, "key", rows=(li_partials, None), empty=result
    ).to_pandas()  # bounded: <= buckets x k rows
    if not len(folded):
        return typed_empty(**result)
    return (
        folded.sort_values(
            ["revenue_cents", "o_date", "o_orderkey"], ascending=[False, True, True]
        )
        .head(k)
        .reset_index(drop=True)
    )


def returned_items(
    sf_dir: str,
    lo: str = "1997-01-01",
    hi: str = "1997-07-01",
    k: int = 20,
):
    """Returned-item revenue ranking (the TPC-H Q10 shape): the top-k
    customers by revenue lost to returned lineitems (``l_returnflag =
    'R'``) on orders placed in the window — 4-table join with a
    fixed-size dimension attach.

    Shape: bucket(orderkey) co-group joins in-batch-combined R-revenue
    partials to window-filtered orders and collapses to per-custkey
    partials IN-GROUP (the exchange after it carries customers, not
    lineitems); bucket(custkey) co-group folds them and attaches c_name
    / c_nationkey, truncating to the bucket top-k under the final order
    (revenue desc, custkey asc). The 25-row nation dimension attaches
    driver-side (a fixed-size dimension is the one join input that is
    NOT corpus-scaled). Columns: c_custkey, c_name, n_name,
    revenue_cents. SQL-oracle-checked."""
    import os

    import pyarrow.parquet as pq

    from .aggregates import cents

    lo_ts, hi_ts = pd.Timestamp(lo), pd.Timestamp(hi)
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
    li = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
    )
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_name", "c_nationkey"])

    def li_partials(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[df["l_returnflag"] == "R"]
        rev = keep["l_extendedprice"].to_numpy() * (1.0 - keep["l_discount"].to_numpy())
        g = (
            pd.DataFrame({"key": keep["l_orderkey"].to_numpy(), "c": cents(rev)})
            .groupby("key", sort=False)["c"]
            .sum()
            .reset_index()
        )
        return g.astype({"key": "int64", "c": "int64"})

    def window_orders(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[(df["o_orderdate"] >= lo_ts) & (df["o_orderdate"] < hi_ts)]
        return _keyed("o_orderkey", cust="o_custkey")(keep)

    def cust_partials_in_bucket(parts: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        o = o[["key", "cust"]]
        rev = parts.groupby("key", sort=False)["c"].sum()
        m = o.assign(c=o["key"].map(rev)).dropna(subset=["c"])
        g = m.groupby("cust", sort=False)["c"].sum().reset_index()
        return pd.DataFrame(
            {
                "key": g["cust"].astype("int64").to_numpy(),
                "c": g["c"].to_numpy().astype("int64"),
            }
        )

    def topk_in_bucket(parts: pd.DataFrame, cust: pd.DataFrame) -> pd.DataFrame:
        names = cust.set_index("key")[["name", "nat"]]
        rev = parts.groupby("key", sort=False)["c"].sum().reset_index()
        if not len(rev):
            return typed_empty(c_custkey="int64", name=str, nat="int64",
                               revenue_cents="int64")
        rev = rev.sort_values(["c", "key"], ascending=[False, True]).head(k)
        return pd.DataFrame(
            {
                "c_custkey": rev["key"].to_numpy().astype("int64"),
                "name": rev["key"].map(names["name"]).to_numpy(dtype=object),
                "nat": rev["key"].map(names["nat"]).to_numpy().astype("int64"),
                "revenue_cents": rev["c"].to_numpy().astype("int64"),
            }
        )

    per_cust = keyed_fold(
        (li, orders), cust_partials_in_bucket, "key", rows=(li_partials, window_orders),
        empty=dict(key="int64", c="int64"),
    )
    folded = keyed_fold(
        (per_cust, cust), topk_in_bucket, "key",
        rows=(None, _keyed("c_custkey", name="c_name", nat="c_nationkey")),
        empty=dict(c_custkey="int64", name=str, nat="int64", revenue_cents="int64"),
    ).to_pandas()  # bounded: <= buckets x k rows
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nmap = dict(zip(nat["n_nationkey"].astype("int64"), nat["n_name"]))
    if not len(folded):
        return typed_empty(c_custkey="int64", c_name=str, n_name=str,
                           revenue_cents="int64")
    out = folded.sort_values(
        ["revenue_cents", "c_custkey"], ascending=[False, True]
    ).head(k)
    return pd.DataFrame(
        {
            "c_custkey": out["c_custkey"].to_numpy(),
            "c_name": out["name"].to_numpy(dtype=object),
            "n_name": out["nat"].map(nmap).to_numpy(dtype=object),
            "revenue_cents": out["revenue_cents"].to_numpy(),
        }
    )


def top_supplier(sf_dir: str, lo: str = "1997-01-01", hi: str = "1997-04-01"):
    """Top supplier(s) by window revenue (the TPC-H Q15 shape, famous
    for its float-equality trap: winners are suppliers whose revenue
    EQUALS the global max). Exact int64 cents make the equality
    well-defined across engines — the float version is
    engine-dependent; this one is bit-stable.

    Shape: ONE bucket(suppkey) co-group folds in-batch-combined revenue
    partials and attaches s_name, keeping only rows TIED AT THE BUCKET
    MAX (a global winner is necessarily a bucket winner); the driver
    folds ≤ a few rows per bucket and applies the global max. Columns:
    s_suppkey, s_name, total_revenue_cents. SQL-oracle-checked."""
    from .aggregates import cents

    lo_ts, hi_ts = pd.Timestamp(lo), pd.Timestamp(hi)
    li = read_table(
        sf_dir, "lineitem",
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    sup = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"])

    def li_partials(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[(df["l_shipdate"] >= lo_ts) & (df["l_shipdate"] < hi_ts)]
        rev = keep["l_extendedprice"].to_numpy() * (1.0 - keep["l_discount"].to_numpy())
        g = (
            pd.DataFrame({"key": keep["l_suppkey"].to_numpy(), "c": cents(rev)})
            .groupby("key", sort=False)["c"]
            .sum()
            .reset_index()
        )
        return g.astype({"key": "int64", "c": "int64"})

    def bucket_winners(parts: pd.DataFrame, sup: pd.DataFrame) -> pd.DataFrame:
        names = sup.set_index("key")["name"]
        rev = parts.groupby("key", sort=False)["c"].sum()
        if not len(rev):
            return typed_empty(s_suppkey="int64", s_name=str,
                               total_revenue_cents="int64")
        mx = rev.max()
        w = rev[rev == mx].reset_index()
        return pd.DataFrame(
            {
                "s_suppkey": w["key"].to_numpy().astype("int64"),
                "s_name": w["key"].map(names).to_numpy(dtype=object),
                "total_revenue_cents": w["c"].to_numpy().astype("int64"),
            }
        )

    folded = keyed_fold(
        (li, sup), bucket_winners, "key",
        rows=(li_partials, _keyed("s_suppkey", name="s_name")),
        empty=dict(s_suppkey="int64", s_name=str, total_revenue_cents="int64"),
    ).to_pandas()  # bounded: <= ties-at-max per bucket
    if not len(folded):
        return typed_empty(s_suppkey="int64", s_name=str,
                           total_revenue_cents="int64")
    mx = folded["total_revenue_cents"].max()
    out = folded[folded["total_revenue_cents"] == mx]
    return out.sort_values("s_suppkey").reset_index(drop=True)


def large_orders(sf_dir: str, qty_threshold: int = 300, k: int = 100):
    """Large-volume orders (the TPC-H Q18 shape): the top-k orders whose
    total lineitem quantity exceeds the threshold, with the buyer
    attached — the HAVING-over-join + ranked-report composite.

    Shape: bucket(orderkey) co-group folds in-batch-combined quantity
    partials (quantities are integral; summed as exact int64), applies
    the HAVING gate IN-GROUP, and joins order fields — the second
    exchange ships only gate survivors; bucket(custkey) co-group
    attaches c_name and truncates to the bucket top-k under the final
    order (total_price_cents desc, o_date asc, o_orderkey asc).
    Columns: c_name, c_custkey, o_orderkey, o_date, total_price_cents,
    sum_qty. SQL-oracle-checked."""
    from .aggregates import cents

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])
    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"]
    )
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_name"])

    def qty_partials(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            pd.DataFrame(
                {
                    "key": df["l_orderkey"].to_numpy(),
                    "q": np.floor(df["l_quantity"].to_numpy() + 0.5).astype("int64"),
                }
            )
            .groupby("key", sort=False)["q"]
            .sum()
            .reset_index()
        )
        return g.astype({"key": "int64", "q": "int64"})

    def order_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": df["o_orderkey"].astype("int64").to_numpy(),
                "cust": df["o_custkey"].to_numpy().astype("int64"),
                "pc": cents(df["o_totalprice"].to_numpy()),
                "o_date": _date_i64(df["o_orderdate"]),
            }
        )

    def gate_in_bucket(parts: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        qty = parts.groupby("key", sort=False)["q"].sum()
        qty = qty[qty > qty_threshold]
        o = o[o["key"].isin(qty.index)]
        return pd.DataFrame(
            {
                "key": o["cust"].astype("int64").to_numpy(),
                "okey": o["key"].to_numpy().astype("int64"),
                "pc": o["pc"].to_numpy().astype("int64"),
                "o_date": o["o_date"].to_numpy().astype("int64"),
                "q": o["key"].map(qty).to_numpy().astype("int64"),
            }
        )

    def topk_in_bucket(o: pd.DataFrame, cust: pd.DataFrame) -> pd.DataFrame:
        names = cust.set_index("key")["name"]
        if not len(o):
            return typed_empty(c_name=str, c_custkey="int64",
                               o_orderkey="int64", o_date="int64",
                               total_price_cents="int64", sum_qty="int64")
        o = o.sort_values(
            ["pc", "o_date", "okey"], ascending=[False, True, True]
        ).head(k)
        return pd.DataFrame(
            {
                "c_name": o["key"].map(names).to_numpy(dtype=object),
                "c_custkey": o["key"].to_numpy().astype("int64"),
                "o_orderkey": o["okey"].to_numpy().astype("int64"),
                "o_date": o["o_date"].to_numpy().astype("int64"),
                "total_price_cents": o["pc"].to_numpy().astype("int64"),
                "sum_qty": o["q"].to_numpy().astype("int64"),
            }
        )

    gated = keyed_fold(
        (li, orders), gate_in_bucket, "key", rows=(qty_partials, order_rows),
        empty=dict(key="int64", okey="int64", pc="int64", o_date="int64", q="int64"),
    )
    folded = keyed_fold(
        (gated, cust), topk_in_bucket, "key", rows=(None, _keyed("c_custkey", name="c_name")),
        empty=dict(c_name=str, c_custkey="int64", o_orderkey="int64", o_date="int64", total_price_cents="int64", sum_qty="int64"),
    ).to_pandas()  # bounded: <= buckets x k rows
    if not len(folded):
        return typed_empty(c_name=str, c_custkey="int64", o_orderkey="int64",
                           o_date="int64", total_price_cents="int64",
                           sum_qty="int64")
    return (
        folded.sort_values(
            ["total_price_cents", "o_date", "o_orderkey"],
            ascending=[False, True, True],
        )
        .head(k)
        .reset_index(drop=True)
    )


def global_balance_filter(sf_dir: str, cut: str = "2000-01-01"):
    """Dormant high-balance customers per nation (the TPC-H Q22 shape,
    phone-prefix country code adapted to the nationkey this corpus
    carries): positive-balance customers ABOVE the global positive-
    balance average with NO orders since ``cut``, counted per nation.
    The global-scalar gate is exact integer cross-multiplication
    (``bal_cents · n > total_cents ⟺ bal > avg``) — no float threshold.

    Shape: pass 1 streams (count, sum) partials of positive balances
    (tiny driver fold); pass 2 is ONE bucket(custkey) co-group — gated
    customers vs DISTINCT recent-order custkeys (combined in-batch) —
    applying the NOT-EXISTS anti-join and collapsing to per-nation
    (n_cust, total_bal_cents) partials in-group; the driver folds ≤
    buckets × nations tiny rows. Columns: cntrycode, n_cust,
    total_bal_cents. SQL-oracle-checked."""
    from .aggregates import cents

    cut_ts = pd.Timestamp(cut)
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey", "c_acctbal"])
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])

    def bal_partials(df: pd.DataFrame) -> pd.DataFrame:
        pos = cents(df["c_acctbal"].to_numpy())
        pos = pos[pos > 0]
        return pd.DataFrame(
            {
                "n": pd.Series([len(pos)], dtype="int64"),
                "tot": pd.Series([int(pos.sum())], dtype="int64"),
            }
        )

    parts = cust.map_batches(bal_partials, batch_format="pandas").to_pandas()
    n_pos = int(parts["n"].sum())
    tot_pos = int(parts["tot"].sum())

    def rich_customers(df: pd.DataFrame) -> pd.DataFrame:
        bal = cents(df["c_acctbal"].to_numpy())
        keep = (bal > 0) & (bal * n_pos > tot_pos)
        sub = df[keep]
        return pd.DataFrame(
            {
                "key": sub["c_custkey"].astype("int64").to_numpy(),
                "nat": sub["c_nationkey"].to_numpy().astype("int64"),
                "bal": bal[keep],
            }
        )

    def active_keys(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[df["o_orderdate"] >= cut_ts]
        return pd.DataFrame({"key": pd.Series(keep["o_custkey"].unique()).astype("int64")})

    def anti_fold(c: pd.DataFrame, active: pd.DataFrame) -> pd.DataFrame:
        c = c[~c["key"].isin(set(active["key"].to_numpy()))]
        if not len(c):
            return typed_empty(cntrycode="int64", n_cust="int64",
                               total_bal_cents="int64")
        g = (
            c.groupby("nat", sort=False)
            .agg(n_cust=("key", "size"), total_bal_cents=("bal", "sum"))
            .reset_index()
            .rename(columns={"nat": "cntrycode"})
        )
        return g.astype({"cntrycode": "int64", "n_cust": "int64",
                         "total_bal_cents": "int64"})

    folded = keyed_fold(
        (cust, orders), anti_fold, "key", rows=(rich_customers, active_keys),
        empty=dict(cntrycode="int64", n_cust="int64", total_bal_cents="int64"),
    ).to_pandas()  # bounded: <= buckets x nations tiny rows
    if not len(folded):
        return typed_empty(cntrycode="int64", n_cust="int64",
                           total_bal_cents="int64")
    return (
        folded.groupby("cntrycode", sort=False)[["n_cust", "total_bal_cents"]]
        .sum()
        .reset_index()
        .astype({"cntrycode": "int64", "n_cust": "int64",
                 "total_bal_cents": "int64"})
    )


def nation_trade_volume(sf_dir: str, lo: str = "1997-01-01", hi: str = "1999-01-01"):
    """Bi-nation trade volume (the TPC-H Q7 shape): shipped revenue
    between every (supplier nation, customer nation) pair per ship year
    — the multi-hop join chain (lineitem → supplier → nation, lineitem
    → orders → customer → nation) that exercises chained re-keyed
    co-groups, the composition a single-exchange engine can't express.

    Shape: THREE bucketed co-groups, each collapsing before re-keying —
    (1) bucket(suppkey) attaches s_nationkey to per-(suppkey, orderkey,
    year) int64-cent partials (combined in-batch; lineitems never ship
    individually); (2) bucket(orderkey) swaps orderkey → custkey against
    order tags, collapsing per (custkey, year, s_nat); (3)
    bucket(custkey) attaches c_nationkey and collapses to (s_nat, c_nat,
    year) partials — the driver folds ≤ nations² × years tiny rows and
    maps the 25-row nation dimension to names driver-side. Columns:
    supp_nation, cust_nation, l_year, revenue_cents.
    SQL-oracle-checked."""
    import os

    import pyarrow.parquet as pq

    from .aggregates import cents

    lo_ts, hi_ts = pd.Timestamp(lo), pd.Timestamp(hi)
    li = read_table(
        sf_dir, "lineitem",
        columns=["l_suppkey", "l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    sup = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def li_partials(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[(df["l_shipdate"] >= lo_ts) & (df["l_shipdate"] < hi_ts)]
        rev = keep["l_extendedprice"].to_numpy() * (1.0 - keep["l_discount"].to_numpy())
        g = (
            pd.DataFrame(
                {
                    "key": keep["l_suppkey"].to_numpy(),
                    "okey": keep["l_orderkey"].to_numpy(),
                    "yr": keep["l_shipdate"].dt.year.to_numpy().astype("int64"),
                    "c": cents(rev),
                }
            )
            .groupby(["key", "okey", "yr"], sort=False)["c"]
            .sum()
            .reset_index()
        )
        return g.astype({"key": "int64", "okey": "int64", "yr": "int64", "c": "int64"})

    def attach_supp_nation(rows: pd.DataFrame, tags: pd.DataFrame) -> pd.DataFrame:
        # exchange 1 in-bucket: attach s_nationkey, re-key by orderkey,
        # collapse per (orderkey, year, s_nat) before the next exchange
        tags = tags.set_index("key")["nat"]
        nat = rows["key"].map(tags)
        rows = rows.assign(nat=nat).dropna(subset=["nat"])
        out = (
            rows.groupby(["okey", "yr", "nat"], sort=False)["c"]
            .sum()
            .reset_index()
            .rename(columns={"okey": "key"})
        )
        return out.astype({"key": "int64", "yr": "int64", "c": "int64", "nat": "int64"})

    def swap_order_to_cust(rows: pd.DataFrame, tags: pd.DataFrame) -> pd.DataFrame:
        # exchange 2 in-bucket: rows keyed by orderkey (carrying s_nat in
        # "nat"), order tags map orderkey -> custkey; re-key by custkey
        tags = tags.set_index("key")["nat"]  # orderkey -> custkey
        ck = rows["key"].map(tags)
        rows = rows.assign(ck=ck).dropna(subset=["ck"])
        out = (
            rows.groupby(["ck", "yr", "nat"], sort=False)["c"]
            .sum()
            .reset_index()
            .rename(columns={"ck": "key"})
        )
        return out.astype({"key": "int64", "yr": "int64", "c": "int64", "nat": "int64"})

    def final_fold(rows: pd.DataFrame, tags: pd.DataFrame) -> pd.DataFrame:
        tags = tags.set_index("key")["nat"]  # custkey -> c_nat
        cn = rows["key"].map(tags)
        rows = rows.assign(c_nat=cn).dropna(subset=["c_nat"])
        g = (
            rows.groupby(["nat", "c_nat", "yr"], sort=False)["c"]
            .sum()
            .reset_index()
            .rename(columns={"nat": "s_nat"})
        )
        return g.astype({"s_nat": "int64", "c_nat": "int64", "yr": "int64",
                         "c": "int64"})

    step1 = keyed_fold(
        (li, sup), attach_supp_nation, "key", rows=(li_partials, _keyed("s_suppkey", nat="s_nationkey")),
        empty=dict(key="int64", yr="int64", nat="int64", c="int64"),
    )
    step2 = keyed_fold(
        (step1, orders), swap_order_to_cust, "key", rows=(None, _keyed("o_orderkey", nat="o_custkey")),
        empty=dict(key="int64", yr="int64", nat="int64", c="int64"),
    )
    folded = keyed_fold(
        (step2, cust), final_fold, "key", rows=(None, _keyed("c_custkey", nat="c_nationkey")),
        empty=dict(s_nat="int64", c_nat="int64", yr="int64", c="int64"),
    ).to_pandas()  # bounded: <= nations^2 x years tiny rows
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nmap = dict(zip(nat["n_nationkey"].astype("int64"), nat["n_name"]))
    if not len(folded):
        return typed_empty(supp_nation=str, cust_nation=str, l_year="int64",
                           revenue_cents="int64")
    g = (
        folded.groupby(["s_nat", "c_nat", "yr"], sort=False)["c"]
        .sum()
        .reset_index()
    )
    return pd.DataFrame(
        {
            "supp_nation": g["s_nat"].map(nmap).to_numpy(dtype=object),
            "cust_nation": g["c_nat"].map(nmap).to_numpy(dtype=object),
            "l_year": g["yr"].astype("int64").to_numpy(),
            "revenue_cents": g["c"].astype("int64").to_numpy(),
        }
    )


def parts_supplier_census(sf_dir: str):
    """Parts/supplier relationship census (the TPC-H Q16 shape): for
    every (brand, type, size) part family, the EXACT number of distinct
    suppliers that shipped it — the exact count-distinct-over-a-join
    shape (the sketch family's HLL/KMV are its approximate siblings;
    this is the exact path).

    Shape: per-batch combiner reduces lineitem to distinct (partkey,
    suppkey) pairs; bucket(partkey) co-group attaches (brand, type,
    size) from part tags and collapses to DISTINCT (family, suppkey)
    carrier rows in-group (carriers are bounded by distinct
    part-supplier pairs, never lineitems); one bucket(family) exchange
    counts distinct suppliers exactly. Columns: p_brand, p_type,
    p_size, supplier_cnt. SQL-oracle-checked."""

    li = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_brand", "p_type", "p_size"])

    def li_pairs(df: pd.DataFrame) -> pd.DataFrame:
        g = df.drop_duplicates(["l_partkey", "l_suppkey"])
        return _keyed("l_partkey", supp="l_suppkey")(g)

    part_tags = _keyed("p_partkey", brand="p_brand", ptype="p_type", psize="p_size")

    def carriers_in_bucket(rows: pd.DataFrame, tags: pd.DataFrame) -> pd.DataFrame:
        tags = tags.set_index("key")[["brand", "ptype", "psize"]]
        rows = rows[["key", "supp"]].drop_duplicates()
        m = rows.merge(tags, left_on="key", right_index=True, how="inner")
        out = m[["brand", "ptype", "psize", "supp"]].drop_duplicates()
        return pd.DataFrame(
            {
                "brand": out["brand"].to_numpy(dtype=object),
                "ptype": out["ptype"].to_numpy(dtype=object),
                "psize": out["psize"].to_numpy().astype("int64"),
                "supp": out["supp"].to_numpy().astype("int64"),
            }
        )

    def count_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.drop_duplicates(["brand", "ptype", "psize", "supp"])
            .groupby(["brand", "ptype", "psize"], sort=False)
            .size()
            .reset_index(name="supplier_cnt")
            .rename(columns={"brand": "p_brand", "ptype": "p_type",
                             "psize": "p_size"})
        )
        return g.astype({"p_size": "int64", "supplier_cnt": "int64"})

    carriers = keyed_fold(
        (li, part), carriers_in_bucket, "key", rows=(li_pairs, part_tags),
        empty=dict(brand=str, ptype=str, psize="int64", supp="int64"),
    )
    return keyed_fold(
        carriers, count_in_bucket, ("brand", "ptype", "psize"),
        empty=dict(p_brand=str, p_type=str, p_size="int64", supplier_cnt="int64"),
    )


def market_share(
    sf_dir: str, supp_nation: str = "NATION_3", region: str = "EUROPE"
):
    """National market share (the TPC-H Q8 shape): the fraction of a
    customer region's shipped revenue supplied by one target nation,
    per SHIP year (inherited from nation_trade_volume's l_shipdate
    grouping; TPC-H Q8 proper keys on order year, which the composed
    base does not carry) — composed ON TOP of :func:`nation_trade_volume`
    (whose output is bounded at nations² × years rows, so the
    composition is driver-side arithmetic over a tiny verified table,
    not a fourth exchange). The 25-row nation → 5-row region dimension
    resolves driver-side. Share ships as exact integer ppm of exact
    int64 cents. Columns: l_year, target_cents, total_cents, share_ppm.
    SQL-oracle-checked (composes the nation_trade_volume mirror)."""
    import os

    import pyarrow.parquet as pq

    base = nation_trade_volume(sf_dir)
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_name", "n_regionkey"],
    ).to_pandas()
    reg = pq.read_table(
        os.path.join(sf_dir, "region.parquet"),
        columns=["r_regionkey", "r_name"],
    ).to_pandas()
    rkey = set(reg.loc[reg["r_name"] == region, "r_regionkey"].astype(int))
    region_nations = set(nat.loc[nat["n_regionkey"].isin(rkey), "n_name"])
    df = base[base["cust_nation"].isin(region_nations)]
    if not len(df):
        return pd.DataFrame(
            {
                "l_year": pd.Series([], dtype="int64"),
                "target_cents": pd.Series([], dtype="int64"),
                "total_cents": pd.Series([], dtype="int64"),
                "share_ppm": pd.Series([], dtype="int64"),
            }
        )
    tgt = np.where(
        df["supp_nation"].to_numpy() == supp_nation,
        df["revenue_cents"].to_numpy(),
        0,
    )
    g = (
        df.assign(target=tgt)
        .groupby("l_year", sort=False)[["target", "revenue_cents"]]
        .sum()
        .reset_index()
    )
    # share_ppm in PYTHON ints over the tiny (years-bounded) table:
    # target*1_000_000 in int64 numpy would silently wrap above ~9.2e12
    # cents of yearly regional revenue (the design-point scale) while
    # the DuckDB mirror widens to HUGEINT — arbitrary-precision Python
    # ints keep both engines exact at any scale
    share_ppm = [
        int(t) * 1_000_000 // int(r)
        for t, r in zip(g["target"].to_numpy(), g["revenue_cents"].to_numpy())
    ]
    return pd.DataFrame(
        {
            "l_year": g["l_year"].astype("int64").to_numpy(),
            "target_cents": g["target"].astype("int64").to_numpy(),
            "total_cents": g["revenue_cents"].astype("int64").to_numpy(),
            "share_ppm": pd.Series(share_ppm, dtype="int64").to_numpy(),
        }
    )


def small_quantity_revenue(sf_dir: str):
    """Small-quantity-order revenue (the TPC-H Q17 shape): revenue from
    lineitems whose quantity is below 20% of their part's average
    quantity — the correlated-aggregate gate, per brand. The gate is
    EXACT integer cross-multiplication (``5·qty·cnt < sum_qty`` ⟺
    ``qty < 0.2·avg``) — no float threshold.

    Shape: pass 1 folds per-part (sum_qty, cnt, brand) via combiner
    partials + ONE bucket(partkey) co-group with part tags (bounded at
    |part| rows); pass 2 re-reads lineitem and co-groups lines against
    that stats table on bucket(partkey) — lines shuffle once (the Q14
    attach cost class), the gate and the per-brand collapse run
    in-group. Columns: p_brand, n_lines, revenue_cents.
    SQL-oracle-checked."""
    from .aggregates import cents

    li_cols = ["l_partkey", "l_quantity", "l_extendedprice"]
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_brand"])

    def qty_partials(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            pd.DataFrame(
                {
                    "key": df["l_partkey"].to_numpy(),
                    "q": np.floor(df["l_quantity"].to_numpy() + 0.5).astype("int64"),
                }
            )
            .groupby("key", sort=False)["q"]
            .agg(["sum", "size"])
            .reset_index()
            .rename(columns={"sum": "sq", "size": "cnt"})
        )
        return g.astype({"key": "int64", "sq": "int64", "cnt": "int64"})

    def stats_in_bucket(parts: pd.DataFrame, tags: pd.DataFrame) -> pd.DataFrame:
        tags = tags.set_index("key")["brand"]
        st = parts.groupby("key", sort=False)[["sq", "cnt"]].sum().reset_index()
        st["brand"] = st["key"].map(tags).fillna("").astype(object)
        return st.astype({"key": "int64", "sq": "int64", "cnt": "int64"})

    def line_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": df["l_partkey"].astype("int64").to_numpy(),
                "q": np.floor(df["l_quantity"].to_numpy() + 0.5).astype("int64"),
                "pc": cents(df["l_extendedprice"].to_numpy()),
            }
        )

    result = dict(p_brand=str, n_lines="int64", revenue_cents="int64")

    def gate_in_bucket(lines: pd.DataFrame, st: pd.DataFrame) -> pd.DataFrame:
        # per-part stats: sq = sum_qty, cnt = count
        st = st.set_index("key")[["sq", "cnt", "brand"]]
        if not len(lines) or not len(st):
            return typed_empty(**result)
        sq = lines["key"].map(st["sq"])
        cnt = lines["key"].map(st["cnt"])
        brand = lines["key"].map(st["brand"])
        ok = (
            sq.notna().to_numpy()
            & (5 * lines["q"].to_numpy() * cnt.fillna(0).to_numpy()
               < sq.fillna(0).to_numpy())
        )
        kept = lines[ok].assign(brand=brand[ok])
        if not len(kept):
            return typed_empty(**result)
        g = (
            kept.groupby("brand", sort=False)
            .agg(n_lines=("pc", "size"), revenue_cents=("pc", "sum"))
            .reset_index()
            .rename(columns={"brand": "p_brand"})
        )
        return g.astype({"n_lines": "int64", "revenue_cents": "int64"})

    li1 = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_quantity"])
    stats = keyed_fold(
        (li1, part), stats_in_bucket, "key",
        rows=(qty_partials, _keyed("p_partkey", brand="p_brand")),
        empty=dict(key="int64", sq="int64", cnt="int64", brand=str),
    )
    li2 = read_table(sf_dir, "lineitem", columns=li_cols)
    folded = keyed_fold(
        (li2, stats), gate_in_bucket, "key", rows=(line_rows, None), empty=result
    ).to_pandas()  # bounded: <= buckets x brands tiny rows
    if not len(folded):
        return typed_empty(**result)
    return (
        folded.groupby("p_brand", sort=False)[["n_lines", "revenue_cents"]]
        .sum()
        .reset_index()
        .astype({"n_lines": "int64", "revenue_cents": "int64"})
    )


# ----------------------------------------------------------------------
# Round-5 synthesized-column family: the five TPC-H shapes the driver
# fixture's schema blocked (Q9/Q12/Q19/Q20/Q21 — VERDICT r4 item 2).
# The missing columns are deterministic hash-derived INPUT DATA shared
# with the oracles (functions/tpch_synth.py); the pipelines below are
# the verified surface.
# ----------------------------------------------------------------------


def partsupp_synth(sf_dir: str):
    """The synthesized ``partsupp`` table itself, as a verified query:
    DISTINCT lineitem (partkey, suppkey) pairs (TPC-H's referential
    rule) with hash-derived ps_availqty / ps_supplycost_cents
    (functions/tpch_synth.py — the ONE shared rule Q9/Q20 build on, so
    its derivation is independently oracle-checked exactly once).

    Shape: per-batch distinct pairs (combiner), ONE bucket(pair) grouped
    distinct, values attached vectorized in-group. Columns: ps_partkey,
    ps_suppkey, ps_availqty, ps_supplycost_cents. SQL-oracle-checked."""
    from ..functions.tpch_synth import (
        availqty_of,
        pair_key,
        supplycost_cents_of,
    )

    li = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def batch_pairs(df: pd.DataFrame) -> pd.DataFrame:
        g = df.drop_duplicates().rename(
            columns={"l_partkey": "pk", "l_suppkey": "sk"}
        )
        return g.astype({"pk": "int64", "sk": "int64"})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        u = df[["pk", "sk"]].drop_duplicates()
        pk, sk = u["pk"].to_numpy(), u["sk"].to_numpy()
        return pd.DataFrame(
            {
                "ps_partkey": pk,
                "ps_suppkey": sk,
                "ps_availqty": availqty_of(pk, sk),
                "ps_supplycost_cents": supplycost_cents_of(pk, sk),
            }
        )

    return keyed_fold(
        li, fold, lambda g: pd.Series(pair_key(g["pk"], g["sk"]), index=g.index),
        rows=batch_pairs,
        empty=dict(ps_partkey="int64", ps_suppkey="int64",
                   ps_availqty="int64", ps_supplycost_cents="int64"),
    )


def shipmode_priority_census(
    sf_dir: str, lo: str = "1997-01-01", hi: str = "1998-01-01"
):
    """Shipmode priority census (the TPC-H Q12 shape): for the MAIL and
    SHIP modes, count lines received in the window that were committed
    after shipping yet received after committing (the late-commit gate
    ``l_ship < l_commit < l_receipt``), split by order priority
    (1-URGENT / 2-HIGH vs the rest). Dates compare in the exact
    integer-days domain (epoch days + synthesized offsets).

    Shape: per-batch synth + gate + partial count keyed by orderkey,
    ONE bucket(orderkey) co-group with order priority tags, in-group
    collapse to the 2-row output. Columns: l_shipmode, high_line_count,
    low_line_count. SQL-oracle-checked."""
    from ..functions.tpch_synth import (
        commit_off_days,
        epoch_days,
        receipt_off_days,
        ship_mode,
    )

    lo_d = int(np.datetime64(lo, "D").astype("int64"))
    hi_d = int(np.datetime64(hi, "D").astype("int64"))
    li = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_linenumber", "l_shipdate"],
    )
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])

    def li_partials(df: pd.DataFrame) -> pd.DataFrame:
        ok = df["l_orderkey"].to_numpy().astype("int64")
        ln = df["l_linenumber"].to_numpy().astype("int64")
        ship = epoch_days(df["l_shipdate"])
        commit = ship + commit_off_days(ok, ln)
        receipt = ship + receipt_off_days(ok, ln)
        mode = ship_mode(ok, ln)
        keep = (
            ((mode == "MAIL") | (mode == "SHIP"))
            & (commit < receipt)
            & (ship < commit)
            & (receipt >= lo_d)
            & (receipt < hi_d)
        )
        g = (
            pd.DataFrame({"key": ok[keep], "mode": mode[keep]})
            .groupby(["key", "mode"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return g.astype({"key": "int64", "n": "int64"})

    def census_in_bucket(rows: pd.DataFrame, tags: pd.DataFrame) -> pd.DataFrame:
        pri = rows["key"].map(tags.set_index("key")["pri"])
        rows = rows.assign(pri=pri).dropna(subset=["pri"])
        hi_mask = rows["pri"].isin(("1-URGENT", "2-HIGH")).to_numpy()
        n = rows["n"].to_numpy()
        g = (
            pd.DataFrame(
                {
                    "mode": rows["mode"].to_numpy(dtype=object),
                    "high": np.where(hi_mask, n, 0),
                    "low": np.where(hi_mask, 0, n),
                }
            )
            .groupby("mode", sort=False)[["high", "low"]]
            .sum()
            .reset_index()
        )
        return g.astype({"high": "int64", "low": "int64"})

    folded = keyed_fold(
        (li, orders), census_in_bucket, "key",
        rows=(li_partials, _keyed("o_orderkey", pri="o_orderpriority")),
        empty=dict(mode=str, high="int64", low="int64"),
    ).to_pandas()  # bounded: <= 2 rows per bucket

    if not len(folded):
        return typed_empty(
            l_shipmode=str, high_line_count="int64", low_line_count="int64"
        )
    g = folded.groupby("mode", sort=False)[["high", "low"]].sum().reset_index()
    return pd.DataFrame(
        {
            "l_shipmode": g["mode"].to_numpy(dtype=object),
            "high_line_count": g["high"].astype("int64").to_numpy(),
            "low_line_count": g["low"].astype("int64").to_numpy(),
        }
    )


# Q19 brackets: (container prefix, qty lo, qty hi, size hi) — each also
# requires l_shipmode in (AIR, REG AIR) and l_shipinstruct = 'DELIVER IN
# PERSON' (the TPC-H OR-of-ANDs gate, widened to the fixture's scale)
_Q19_BRACKETS = (
    ("SM", 1, 20, 25),
    ("MED", 10, 30, 30),
    ("LG", 20, 40, 35),
)


def bracketed_revenue(sf_dir: str):
    """Bracketed brand/quantity revenue (the TPC-H Q19 shape): revenue
    from lines matching ANY of three (container-class, quantity-range,
    size-range) brackets, gated on air shipment and in-person delivery —
    the OR-of-ANDs predicate pushed into ONE part attach. Quantities
    quantize by the house floor(q+0.5) rule; revenue is exact int64
    cents.

    Shape: per-batch synth + line-side gate (mode/instruct/qty) keyed by
    partkey, ONE bucket(partkey) co-group with part (container, size)
    tags, the bracket OR evaluated in-group; per-bracket collapse.
    Columns: bracket, n_lines, revenue_cents. SQL-oracle-checked."""
    from ..functions.tpch_synth import container_of, ship_instruct, ship_mode
    from .aggregates import cents

    li = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_linenumber", "l_partkey", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_size"])

    def li_partials(df: pd.DataFrame) -> pd.DataFrame:
        ok = df["l_orderkey"].to_numpy().astype("int64")
        ln = df["l_linenumber"].to_numpy().astype("int64")
        mode = ship_mode(ok, ln)
        instr = ship_instruct(ok, ln)
        keep = ((mode == "AIR") | (mode == "REG AIR")) & (
            instr == "DELIVER IN PERSON"
        )
        sub = df[keep]
        qty = np.floor(sub["l_quantity"].to_numpy() + 0.5).astype("int64")
        rev = cents(
            sub["l_extendedprice"].to_numpy() * (1.0 - sub["l_discount"].to_numpy())
        )
        return pd.DataFrame(
            {
                "key": sub["l_partkey"].to_numpy().astype("int64"),
                "qty": qty,
                "c": rev,
            }
        )

    def brackets_in_bucket(rows: pd.DataFrame, tags: pd.DataFrame) -> pd.DataFrame:
        size = rows["key"].map(tags.set_index("key")["size"])
        rows = rows.assign(psize=size).dropna(subset=["psize"])
        if not len(rows):
            return typed_empty(bracket="int64", n_lines="int64", c="int64")
        cont = container_of(rows["key"].to_numpy())
        cls = np.array([c.split(" ", 1)[0] for c in cont], dtype=object)
        qty = rows["qty"].to_numpy()
        psize = rows["psize"].to_numpy().astype("int64")
        out = []
        for b, (pref, qlo, qhi, smax) in enumerate(_Q19_BRACKETS, 1):
            m = (cls == pref) & (qty >= qlo) & (qty <= qhi) & (psize >= 1) & (psize <= smax)
            if m.any():
                out.append(
                    {
                        "bracket": b,
                        "n_lines": int(m.sum()),
                        "c": int(rows["c"].to_numpy()[m].sum()),
                    }
                )
        if not out:
            return typed_empty(bracket="int64", n_lines="int64", c="int64")
        return pd.DataFrame(out).astype(
            {"bracket": "int64", "n_lines": "int64", "c": "int64"}
        )

    folded = keyed_fold(
        (li, part), brackets_in_bucket, "key",
        rows=(li_partials, _keyed("p_partkey", size="p_size")),
        empty=dict(bracket="int64", n_lines="int64", c="int64"),
    ).to_pandas()  # bounded: <= 3 rows per bucket

    if not len(folded):
        return typed_empty(bracket="int64", n_lines="int64", revenue_cents="int64")
    g = folded.groupby("bracket", sort=False)[["n_lines", "c"]].sum().reset_index()
    return pd.DataFrame(
        {
            "bracket": g["bracket"].astype("int64").to_numpy(),
            "n_lines": g["n_lines"].astype("int64").to_numpy(),
            "revenue_cents": g["c"].astype("int64").to_numpy(),
        }
    )


def product_type_profit(sf_dir: str, name_token: str = "widget"):
    """Product-type profit (the TPC-H Q9 shape): per (supplier nation,
    order year) profit over parts whose name carries a token — profit =
    revenue cents minus supply cost (``ps_supplycost_cents × qty``,
    supply cost from the partsupp_synth rule, which q:partsupp_synth
    verifies independently). All arithmetic exact int64 cents; qty by
    the house floor(q+0.5) rule.

    Shape: the Q7 chain re-keyed — (1) bucket(partkey) gate against
    name-token part tags, profit computed in-group (cost hashes straight
    from the (partkey, suppkey) pair — partsupp never ships), collapse
    per (orderkey, suppkey); (2) bucket(orderkey) attach order year;
    (3) bucket(suppkey) attach s_nationkey, collapse to (nat, year)
    partials; driver folds <= nations × years rows and maps names.
    Columns: nation, o_year, profit_cents. SQL-oracle-checked."""
    import os

    import pyarrow.parquet as pq

    from ..functions.tpch_synth import supplycost_cents_of
    from .aggregates import cents

    li = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_name"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])
    sup = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])

    def li_partials(df: pd.DataFrame) -> pd.DataFrame:
        qty = np.floor(df["l_quantity"].to_numpy() + 0.5).astype("int64")
        pk = df["l_partkey"].to_numpy().astype("int64")
        sk = df["l_suppkey"].to_numpy().astype("int64")
        rev = cents(
            df["l_extendedprice"].to_numpy() * (1.0 - df["l_discount"].to_numpy())
        )
        profit = rev - supplycost_cents_of(pk, sk) * qty
        g = (
            pd.DataFrame(
                {
                    "key": pk,
                    "okey": df["l_orderkey"].to_numpy().astype("int64"),
                    "sk": sk,
                    "c": profit,
                }
            )
            .groupby(["key", "okey", "sk"], sort=False)["c"]
            .sum()
            .reset_index()
        )
        return g.astype({"key": "int64", "okey": "int64", "sk": "int64", "c": "int64"})

    def part_tags(df: pd.DataFrame) -> pd.DataFrame:
        return _keyed("p_partkey")(df[df["p_name"].str.contains(name_token, regex=False)])

    def gate_parts(rows: pd.DataFrame, parts: pd.DataFrame) -> pd.DataFrame:
        # exchange 1: keep only token-named parts, re-key by orderkey,
        # collapse per (orderkey, suppkey)
        rows = rows[rows["key"].isin(set(parts["key"].tolist()))]
        out = (
            rows.groupby(["okey", "sk"], sort=False)["c"]
            .sum()
            .reset_index()
            .rename(columns={"okey": "key"})
        )
        return out.astype({"key": "int64", "sk": "int64", "c": "int64"})

    def order_years(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": df["o_orderkey"].astype("int64").to_numpy(),
                "yr": df["o_orderdate"].dt.year.to_numpy().astype("int64"),
            }
        )

    def attach_year(rows: pd.DataFrame, tags: pd.DataFrame) -> pd.DataFrame:
        # exchange 2: orderkey -> order year; re-key by suppkey,
        # collapse per (suppkey, year)
        yr = rows["key"].map(tags.set_index("key")["yr"])
        rows = rows.assign(yr=yr).dropna(subset=["yr"])
        out = (
            rows.groupby(["sk", "yr"], sort=False)["c"]
            .sum()
            .reset_index()
            .rename(columns={"sk": "key"})
        )
        return out.astype({"key": "int64", "c": "int64", "yr": "int64"})

    def final_fold(rows: pd.DataFrame, tags: pd.DataFrame) -> pd.DataFrame:
        # exchange 3: suppkey -> nation; collapse to (nation, year)
        nat = rows["key"].map(tags.set_index("key")["nat"])
        rows = rows.assign(nat=nat).dropna(subset=["nat"])
        g = rows.groupby(["nat", "yr"], sort=False)["c"].sum().reset_index()
        return g.astype({"nat": "int64", "yr": "int64", "c": "int64"})

    step1 = keyed_fold(
        (li, part), gate_parts, "key", rows=(li_partials, part_tags),
        empty=dict(key="int64", sk="int64", c="int64"),
    )
    step2 = keyed_fold(
        (step1, orders), attach_year, "key", rows=(None, order_years),
        empty=dict(key="int64", yr="int64", c="int64"),
    )
    folded = keyed_fold(
        (step2, sup), final_fold, "key", rows=(None, _keyed("s_suppkey", nat="s_nationkey")),
        empty=dict(nat="int64", yr="int64", c="int64"),
    ).to_pandas()  # bounded: <= nations x years rows

    if not len(folded):
        return typed_empty(nation=str, o_year="int64", profit_cents="int64")
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nmap = dict(zip(nat["n_nationkey"].astype("int64"), nat["n_name"]))
    g = folded.groupby(["nat", "yr"], sort=False)["c"].sum().reset_index()
    return pd.DataFrame(
        {
            "nation": g["nat"].map(nmap).to_numpy(dtype=object),
            "o_year": g["yr"].astype("int64").to_numpy(),
            "profit_cents": g["c"].astype("int64").to_numpy(),
        }
    )


def promo_part_suppliers(
    sf_dir: str,
    name_prefix: str = "small",
    lo: str = "1997-01-01",
    hi: str = "1998-01-01",
):
    """Promotion-candidate suppliers (the TPC-H Q20 shape): suppliers
    holding excess stock of promoted parts — pairs whose synthesized
    ``ps_availqty`` exceeds half the quantity they shipped of that part
    in the window (exact integer cross-multiply ``2·availqty >
    sum_qty``; TPC-H's NULL-on-empty subquery semantics mean pairs with
    NO window shipments never qualify). Part promotion = name prefix.

    Shape: window lines collapse per (partkey, suppkey) in-batch, ONE
    bucket(partkey) co-group with prefix-part tags applies the gate
    in-group (availqty hashes from the pair — partsupp never ships);
    qualifying suppkeys are a bounded set folded driver-side against the
    dimension-class supplier table. Columns: s_suppkey, s_name.
    SQL-oracle-checked."""
    import os

    import pyarrow.parquet as pq

    from ..functions.tpch_synth import availqty_of

    lo_ts, hi_ts = pd.Timestamp(lo), pd.Timestamp(hi)
    li = read_table(
        sf_dir, "lineitem",
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
    )
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_name"])

    def li_partials(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[(df["l_shipdate"] >= lo_ts) & (df["l_shipdate"] < hi_ts)]
        qty = np.floor(keep["l_quantity"].to_numpy() + 0.5).astype("int64")
        g = (
            pd.DataFrame(
                {
                    "key": keep["l_partkey"].to_numpy().astype("int64"),
                    "sk": keep["l_suppkey"].to_numpy().astype("int64"),
                    "q": qty,
                }
            )
            .groupby(["key", "sk"], sort=False)["q"]
            .sum()
            .reset_index()
        )
        return g.astype({"key": "int64", "sk": "int64", "q": "int64"})

    def part_tags(df: pd.DataFrame) -> pd.DataFrame:
        return _keyed("p_partkey")(df[df["p_name"].str.startswith(name_prefix)])

    def gate_in_bucket(rows: pd.DataFrame, parts: pd.DataFrame) -> pd.DataFrame:
        rows = rows[rows["key"].isin(set(parts["key"].tolist()))]
        if not len(rows):
            return typed_empty(sk="int64")
        # per-batch partials for the same pair re-fold before the gate
        pairs = rows.groupby(["key", "sk"], sort=False)["q"].sum().reset_index()
        pk = pairs["key"].to_numpy()
        sk = pairs["sk"].to_numpy()
        q = pairs["q"].to_numpy()
        ok = 2 * availqty_of(pk, sk) > q
        return pd.DataFrame({"sk": np.unique(sk[ok])}).astype({"sk": "int64"})

    folded = keyed_fold(
        (li, part), gate_in_bucket, "key", rows=(li_partials, part_tags),
        empty=dict(sk="int64"),
    ).to_pandas()  # bounded: <= |suppliers| rows
    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_name"]
    ).to_pandas()

    if not len(folded):
        return typed_empty(s_suppkey="int64", s_name=str)
    qual = np.unique(folded["sk"].to_numpy())
    out = sup[sup["s_suppkey"].astype("int64").isin(qual)].sort_values("s_name")
    return pd.DataFrame(
        {
            "s_suppkey": out["s_suppkey"].astype("int64").to_numpy(),
            "s_name": out["s_name"].to_numpy(dtype=object),
        }
    )


def waiting_supplier_census(sf_dir: str):
    """Waiting-supplier census (the TPC-H Q21 shape): for finalized
    orders (status F) with at least two distinct suppliers, count per
    supplier the orders where THEY alone were late (their receipt after
    their commit, every other supplier on time) — the
    EXISTS/NOT-EXISTS pair resolved in-group. Lateness compares the
    synthesized integer-day dates.

    Shape: per-batch partials per (orderkey, suppkey): any-late flag
    (max-fold); ONE bucket(orderkey) co-group with status-F order tags
    resolves the per-order supplier census in-group and emits (suppkey,
    1) partial counts; the bounded (<= |suppliers|) result folds
    driver-side against the dimension-class supplier table. Columns:
    s_name, numwait. SQL-oracle-checked."""
    import os

    import pyarrow.parquet as pq

    from ..functions.tpch_synth import (
        commit_off_days,
        receipt_off_days,
    )

    li = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_linenumber", "l_suppkey"],
    )
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderstatus"])

    def li_partials(df: pd.DataFrame) -> pd.DataFrame:
        ok = df["l_orderkey"].to_numpy().astype("int64")
        ln = df["l_linenumber"].to_numpy().astype("int64")
        # late iff receipt > commit: ship + (1 + h%30) > ship + (h'%61-30)
        late = receipt_off_days(ok, ln) > commit_off_days(ok, ln)
        g = (
            pd.DataFrame(
                {
                    "key": ok,
                    "sk": df["l_suppkey"].to_numpy().astype("int64"),
                    "late": late.astype("int64"),
                }
            )
            .groupby(["key", "sk"], sort=False)["late"]
            .max()
            .reset_index()
        )
        return g.astype({"key": "int64", "sk": "int64", "late": "int64"})

    def order_tags(df: pd.DataFrame) -> pd.DataFrame:
        return _keyed("o_orderkey")(df[df["o_orderstatus"] == "F"])

    def census_in_bucket(rows: pd.DataFrame, f_orders: pd.DataFrame) -> pd.DataFrame:
        rows = rows[rows["key"].isin(set(f_orders["key"].tolist()))]
        if not len(rows):
            return typed_empty(sk="int64", n="int64")
        # per-(order, supplier) rows were max-folded per batch but may
        # arrive from several batches: re-fold, then per-order census
        pairs = (
            rows.groupby(["key", "sk"], sort=False)["late"]
            .max()
            .reset_index()
        )
        per = pairs.groupby("key", sort=False)["late"]
        n_supp = per.size()
        n_late = per.sum()
        # qualifying orders: >= 2 suppliers, EXACTLY one late supplier
        ok_orders = n_supp[(n_supp >= 2) & (n_late == 1)].index
        qual = pairs[pairs["key"].isin(ok_orders) & (pairs["late"] == 1)]
        g = qual.groupby("sk", sort=False).size().reset_index(name="n")
        return g.astype({"sk": "int64", "n": "int64"})

    folded = keyed_fold(
        (li, orders), census_in_bucket, "key", rows=(li_partials, order_tags),
        empty=dict(sk="int64", n="int64"),
    ).to_pandas()  # bounded: <= |suppliers| rows per bucket
    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_name"]
    ).to_pandas()

    if not len(folded):
        return typed_empty(s_name=str, numwait="int64")
    g = folded.groupby("sk", sort=False)["n"].sum().reset_index()
    smap = dict(zip(sup["s_suppkey"].astype("int64"), sup["s_name"]))
    g = g.sort_values("sk")
    return pd.DataFrame(
        {
            "s_name": g["sk"].map(smap).to_numpy(dtype=object),
            "numwait": g["n"].astype("int64").to_numpy(),
        }
    )
