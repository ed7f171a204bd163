"""Session / sampling / grouped-ranking operators over the ``events`` and
``documents`` tables.

Training-data-pipeline operators beyond the reference's own set. The
reference precedent for ordered per-key stateful passes is the within-file
response<->metadata pairing (``warc-hadoop-crawler-utils/src/main/java/uk/
bl/wa/hadoop/recrawl/PersistLogMapper.java:86-97`` — a sort-by-key then
sequential merge inside one reducer group); these generalise that shape:

* **sessionization** — hash-partition by bucket(user_id) (one bucketed
  grouped pass, ``functions/bucketing.py``), in-bucket time-sort +
  vectorised gap detection across every user at once (diff/cumsum — no
  per-row or per-user Python). Partitioning assumption: one user's
  events co-locate; bucketing bounds the group count.
* **stratified sampling** — deterministic k-per-stratum by md5 rank; the
  per-batch partial top-k bounds every block's contribution to
  ``k × strata`` rows before the small grouped finalise (combiner
  pattern — the shuffle moves at most k × strata × blocks rows).
* **grouped top-k** — same partial/finalise shape over (lang, source).

All three are SQL-oracle-checked (md5 ranks and integer-cents sums are
bit-identical across engines).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.bucketing import keyed_fold, sum_in_bucket, typed_empty
from ..sources.io import read_table

__all__ = [
    "props_json_stats",
    "weekday_profile",
    "event_rate_limit",
    "sessionize_events",
    "user_lifetime",
    "funnel_counts",
    "retention_cohorts",
    "event_transitions",
    "pivot_user_event_values",
    "rate_anomalies",
    "stratified_sample_events",
    "grouped_topk_docs",
    "source_mix",
    "global_shuffle",
    "mixture_weights",
    "weighted_sample",
]

SESSION_GAP_S = 1800  # classic 30-minute inactivity timeout


def sessionize_events(sf_dir: str, gap_s: int = SESSION_GAP_S):
    """Gap-timeout sessionization: per user, events ordered by
    (ts, event_id) start a new session when the gap since the previous
    event EXCEEDS ``gap_s`` (equality keeps the session). One output row
    per session. Columns: user_id, session_num (1-based per user),
    n_events, start_ts, end_ts, sum_value (integer-cents quantised,
    bit-exact vs the SQL window oracle)."""

    gap_us = gap_s * 1_000_000
    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])

    def sessions_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # one vectorized pass over EVERY user in the bucket (a per-user
        # map_groups would pay one Python call per user — see
        # functions/bucketing.py): sort by (user, ts, event_id), flag
        # session starts at user boundaries or gaps > gap_us, running
        # session ids via cumsum, then one grouped aggregate
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts = df["ts"].to_numpy().astype("datetime64[us]")
        us = ts.astype("int64")
        uid = df["user_id"].to_numpy()
        new = np.ones(len(df), dtype=bool)
        same_user = uid[1:] == uid[:-1]
        new[1:] = ~same_user | ((us[1:] - us[:-1]) > gap_us)
        gnum = np.cumsum(new)  # globally increasing session ids
        # per-user session_num = gnum - gnum[first row of user] + 1
        base = np.maximum.accumulate(np.where(new & np.r_[True, ~same_user], gnum, 0))
        snum = gnum - base + 1
        cents = np.floor(df["value"].to_numpy() * 100 + 0.5).astype(np.int64)
        g = (
            pd.DataFrame(
                {
                    "user_id": uid,
                    "session_num": snum,
                    "ts": ts,
                    "cents": cents,
                    "g": gnum,
                }
            )
            .groupby("g", sort=True)
            .agg(
                user_id=("user_id", "first"),
                session_num=("session_num", "first"),
                n_events=("ts", "size"),
                start_ts=("ts", "min"),
                end_ts=("ts", "max"),
                cents=("cents", "sum"),
            )
        )
        return pd.DataFrame(
            {
                "user_id": g["user_id"].astype("int64"),
                "session_num": g["session_num"].astype("int64"),
                "n_events": g["n_events"].astype("int64"),
                "start_ts": g["start_ts"].astype("datetime64[us]"),
                "end_ts": g["end_ts"].astype("datetime64[us]"),
                "sum_value": g["cents"].to_numpy() / 100.0,
            }
        )

    return keyed_fold(ds, sessions_in_bucket, "user_id")


def _md5_rank(ids: pd.Series) -> pd.Series:
    # md5 itself is oracle-pinned; batch the loop (vectorized str encode,
    # one tight pass, no Series.map per-row lambda dispatch)
    md5 = hashlib.md5
    vals = ids.astype(str).to_numpy()
    return pd.Series(
        [md5(v.encode()).hexdigest() for v in vals], index=ids.index
    )


STRATA_K = 20


FUNNEL_STEPS = ("view", "click", "purchase")  # the classic 3-step funnel


def funnel_counts(sf_dir: str, steps: tuple = FUNNEL_STEPS):
    """Ordered conversion funnel over the events stream: a user reaches
    step k+1 when an event of that type occurs STRICTLY AFTER the
    user's earliest qualifying step-k instant (t1 = min ts of step 1;
    t_{k+1} = min ts of step k+1 with ts > t_k). One bucketed grouped
    pass: users co-locate by hash bucket, each bucket computes its
    users' step instants with vectorized filtered groupby-mins (never a
    per-user Python loop) and emits per-step partial counts; the driver
    folds <= buckets x steps rows. Columns: step_idx, step, n_users.
    SQL-oracle-checked (chained conditional-min joins)."""

    ds = read_table(sf_dir, "events", columns=["ts", "user_id", "event_type"])

    def funnel_events(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["event_type"].isin(steps)]

    def steps_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        prev: pd.Series | None = None
        out_rows = []
        for k, step in enumerate(steps):
            ev = df[df["event_type"] == step]
            if prev is None:
                cur = ev.groupby("user_id")["ts"].min()
            else:
                ev = ev.merge(
                    prev.rename("t_prev"), left_on="user_id", right_index=True
                )
                ev = ev[ev["ts"] > ev["t_prev"]]
                cur = ev.groupby("user_id")["ts"].min()
            # always emit every step (0 after the funnel dries) so the
            # global fold's row set matches the SQL mirror's
            out_rows.append((k + 1, step, len(cur)))
            prev = cur
        out = pd.DataFrame(out_rows, columns=["step_idx", "step", "n_users"])
        out["step_idx"] = out["step_idx"].astype("int32")
        out["n_users"] = out["n_users"].astype("int64")
        return out

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return typed_empty(step_idx="int32", step=str, n_users="int64")
        g = (
            df.groupby(["step_idx", "step"], sort=False)["n_users"]
            .sum()
            .reset_index()
        )
        g["n_users"] = g["n_users"].astype("int64")
        return g

    # two-level fold: per-bucket partials already collapse to <= len(steps)
    # rows each, so the final fold groups a tiny frame on the driver side
    parts = keyed_fold(
        ds, steps_in_bucket, "user_id", rows=funnel_events,
        empty=dict(step_idx="int32", step=str, n_users="int64"),
    ).to_pandas()
    return fold(parts)


def retention_cohorts(sf_dir: str):
    """Weekly retention cohorts: cohort = the epoch-week of a user's
    FIRST event (any type); a (cohort, offset) cell counts the cohort's
    users active in cohort+offset. Weeks are exact integer arithmetic
    (``epoch_seconds // 86400 // 7``) so the SQL mirror cannot drift.
    Shape: per-batch (user, week) dedup partials -> ONE bucketed grouped
    pass by user (per-user min week + distinct weeks, vectorized) ->
    per-bucket (cohort, offset) partial counts -> tiny driver fold.
    Columns: cohort_week, week_offset, n_users. SQL-oracle-checked."""

    ds = read_table(sf_dir, "events", columns=["ts", "user_id"])

    def week_partials(df: pd.DataFrame) -> pd.DataFrame:
        secs = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        secs //= 1_000_000
        wk = (secs // 86400) // 7
        out = pd.DataFrame({"user_id": df["user_id"], "wk": wk})
        return out.drop_duplicates()

    def cohorts_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["user_id", "wk"])
        cohort = d.groupby("user_id")["wk"].transform("min")
        g = (
            pd.DataFrame(
                {"cohort_week": cohort, "week_offset": d["wk"] - cohort}
            )
            .groupby(["cohort_week", "week_offset"], sort=False)
            .size()
            .reset_index(name="n_users")
        )
        g["n_users"] = g["n_users"].astype("int64")
        return g

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return typed_empty(
                cohort_week="int64", week_offset="int64", n_users="int64"
            )
        g = (
            df.groupby(["cohort_week", "week_offset"], sort=False)["n_users"]
            .sum()
            .reset_index()
        )
        g["n_users"] = g["n_users"].astype("int64")
        return g

    parts = keyed_fold(
        ds, cohorts_in_bucket, "user_id", rows=week_partials,
        empty=dict(cohort_week="int64", week_offset="int64", n_users="int64"),
    ).to_pandas()
    return fold(parts)


def event_transitions(sf_dir: str):
    """Per-user event-type Markov transition counts: for each user's
    (ts, event_id)-ordered stream, count every adjacent ``prev -> next``
    event-type pair globally — the behavioural-sequence census behind
    next-event models and anomaly baselines (complements
    :func:`~..pipelines.stats.span_transitions`, which is the SAME
    statistic over a document's intra-record span sequence).

    ONE user-bucketed grouped pass: users co-locate by hash bucket; the
    bucket sorts (user, ts, event_id) once, a vectorized shift compare
    masks user boundaries, and the pair counts collapse to per-bucket
    partials INSIDE the same group fn (≤ n_types² rows per bucket ride
    the driver fold — the token_spectrum discipline, so the exchange
    never carries per-event rows twice). Columns: prev_type, next_type,
    n. SQL-oracle-checked (lag() window mirror)."""

    ds = read_table(
        sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"]
    )

    def pairs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = df["user_id"].to_numpy()
        et = df["event_type"].to_numpy()
        same = uid[1:] == uid[:-1]
        g = (
            pd.DataFrame(
                {"prev_type": et[:-1][same], "next_type": et[1:][same]}
            )
            .groupby(["prev_type", "next_type"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype("int64")
        return g

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return typed_empty(prev_type=str, next_type=str, n="int64")
        g = (
            df.groupby(["prev_type", "next_type"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        g["n"] = g["n"].astype("int64")
        return g

    parts = keyed_fold(
        ds, pairs_in_bucket, "user_id",
        empty=dict(prev_type=str, next_type=str, n="int64"),
    ).to_pandas()
    return fold(parts)


def stratified_sample_events(sf_dir: str, k: int = STRATA_K):
    """Deterministic stratified sample: k events per event_type, ranked by
    (md5(event_id), event_id). Per-batch partial top-k per stratum (each
    block contributes ≤ k × strata rows to the shuffle), grouped finalise
    assigns 1-based ranks. Columns: event_type, event_id, rank."""
    ds = read_table(sf_dir, "events", columns=["event_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(rk=_md5_rank(df["event_id"]))
        df = df.sort_values(["event_type", "rk", "event_id"], kind="mergesort")
        return df.groupby("event_type", sort=False).head(k)

    def finalise(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["rk", "event_id"], kind="mergesort").head(k)
        return pd.DataFrame(
            {
                "event_type": df["event_type"].to_numpy(),
                "event_id": df["event_id"].to_numpy(),
                "rank": np.arange(1, len(df) + 1, dtype=np.int64),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("event_type")
        .map_groups(finalise, batch_format="pandas")
    )


GROUP_TOPK = 3


def grouped_topk_docs(sf_dir: str, k: int = GROUP_TOPK):
    """Grouped top-k: the k largest documents by (n_chars desc, doc_id asc)
    within each (lang, source) group — the per-host-top-pages shape. Same
    partial/finalise combiner as the stratified sample. Columns: lang,
    source, doc_id, n_chars, rank."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang", "source", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["lang", "source", "n_chars", "doc_id"],
            ascending=[True, True, False, True],
            kind="mergesort",
        )
        return df.groupby(["lang", "source"], sort=False).head(k)

    def finalise(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["n_chars", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(k)
        return pd.DataFrame(
            {
                "lang": df["lang"].to_numpy(),
                "source": df["source"].to_numpy(),
                "doc_id": df["doc_id"].to_numpy(),
                "n_chars": df["n_chars"].to_numpy(),
                "rank": np.arange(1, len(df) + 1, dtype=np.int64),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(["lang", "source"])
        .map_groups(finalise, batch_format="pandas")
    )


def source_mix(sf_dir: str, per_unit: int = 2):
    """Training-data source mixing: a deterministic weighted interleave of
    the corpus's sources — source ``src{i}`` contributes up to
    ``per_unit * (i + 1)`` documents (the mixture ratio ladder), selected
    by (md5(doc_id), doc_id) rank within the source. The sampling-ratio
    analogue of data-mixture curation (e.g. upweighting curated sources);
    per-batch partial top-k per source bounds every block's contribution
    before the small grouped finalise. Columns: source, doc_id, rank."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])

    def k_of(source: pd.Series) -> pd.Series:
        idx = source.str.extract(r"(\d+)$", expand=False).fillna("0").astype(int)
        return (per_unit * (idx + 1)).astype("int64")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(rk=_md5_rank(df["doc_id"]), k=k_of(df["source"]))
        df = df.sort_values(["source", "rk", "doc_id"], kind="mergesort")
        df = df.assign(rn=df.groupby("source", sort=False).cumcount() + 1)
        return df[df["rn"] <= df["k"]].drop(columns=["rn"])

    def finalise(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["rk", "doc_id"], kind="mergesort")
        df = df.assign(rank=np.arange(1, len(df) + 1, dtype=np.int64))
        df = df[df["rank"] <= df["k"]]
        return pd.DataFrame(
            {
                "source": df["source"].to_numpy(),
                "doc_id": df["doc_id"].to_numpy(),
                "rank": df["rank"].to_numpy(),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("source")
        .map_groups(finalise, batch_format="pandas")
    )


def global_shuffle(sf_dir: str, salt: str = "epoch0"):
    """Deterministic global training-order shuffle: rank = position in
    md5(salt:doc_id) order — the seeded-shuffle export primitive (same
    hash-rank device as :func:`stratified_sample_events` /
    :func:`source_mix`, applied corpus-wide). Reproducible across runs
    and cluster sizes, re-shuffled per epoch by changing ``salt``.

    Shape: the hash attaches per batch (vectorized md5 via hashlib over
    the batch's ids only), the rank is ONE range-partitioned sort +
    per-block offsets — the same two-phase scan as pack_sequences; no
    driver materialization. Columns: doc_id, shuffle_rank.
    SQL-oracle-checked (row_number over the same md5 order)."""
    import hashlib

    import ray
    import ray.data as rd

    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def add_key(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "k": [
                    hashlib.md5(f"{salt}:{d}".encode()).hexdigest()
                    for d in df["doc_id"]
                ],
            }
        )

    sorted_ds = ds.map_batches(add_key, batch_format="pandas").sort("k").materialize()
    refs = sorted_ds.to_arrow_refs()

    @ray.remote
    def block_rows(tbl: pa.Table) -> int:
        return tbl.num_rows

    counts = ray.get([block_rows.remote(r) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)

    @ray.remote
    def rank_block(tbl: pa.Table, base: int) -> pa.Table:
        n = tbl.num_rows
        return pa.table(
            {
                "doc_id": tbl["doc_id"],
                "shuffle_rank": pa.array(
                    np.arange(base, base + n, dtype=np.int64)
                ),
            }
        )

    out = [rank_block.remote(r, int(o)) for r, o in zip(refs, offsets)]
    ray.wait(out, num_returns=len(out), fetch_local=False)
    return rd.from_arrow_refs(out)


MIX_TAU = 0.7  # the multilingual-LM sampling temperature (alpha sampling)


def mixture_weights(sf_dir: str, tau: float = MIX_TAU):
    """Temperature-scaled data-mixture weights per source (the alpha
    sampling of multilingual/multi-source LM training: upweight small
    sources by flattening the token distribution with ``p^tau``).

    Per-batch partial (source, n_docs, n_tokens) counts — a combiner, so
    the grouped pass ships at most ``sources × blocks`` rows — then one
    tiny grouped sum. The driver holds one row per SOURCE (bounded by
    construction, like the other small-partial sites) to read the max
    token count; weights are relative to the largest source
    (``(n_tokens / max_tokens) ** tau``) so the only float ops are one
    exact-int division and one ``pow`` — no cross-row float summation
    whose ordering could diverge between engines.

    Columns: source, n_docs, n_tokens, weight (round 6).
    """
    ds = read_table(sf_dir, "documents", columns=["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        n_tok = df["text"].str.split().str.len().astype("int64")
        return (
            pd.DataFrame({"source": df["source"], "n_tokens": n_tok})
            .groupby("source", as_index=False)
            .agg(n_docs=("n_tokens", "size"), n_tokens=("n_tokens", "sum"))
            .astype({"n_docs": "int64", "n_tokens": "int64"})
        )

    def finalise(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "source": [df["source"].iloc[0]],
                "n_docs": [np.int64(df["n_docs"].sum())],
                "n_tokens": [np.int64(df["n_tokens"].sum())],
            }
        )

    totals = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("source")
        .map_groups(finalise, batch_format="pandas")
        .to_pandas()  # bounded: one row per source
    )
    mx = np.float64(int(totals["n_tokens"].max()))
    w = (totals["n_tokens"].to_numpy(np.float64) / mx) ** np.float64(tau)
    return pd.DataFrame(
        {
            "source": totals["source"].to_numpy(),
            "n_docs": totals["n_docs"].to_numpy(np.int64),
            "n_tokens": totals["n_tokens"].to_numpy(np.int64),
            "weight": np.round(w, 6),
        }
    )


WSAMPLE_K = 50


def weighted_sample(sf_dir: str, k: int = WSAMPLE_K):
    """Efraimidis–Spiraki weighted sampling without replacement (A-ES,
    "Weighted random sampling with a reservoir", IPL 2006): deterministic
    uniform ``u = (md5_64(doc_id) + 1) / 2^64`` in (0,1], sort key
    ``ln(u) / w`` with weight ``w = n_tokens`` — the monotone-log form of
    ``u^(1/w)``, so the k largest keys ARE the length-weighted sample
    (the token-budget sampler: inclusion odds scale with token count).

    Per-batch partial top-k bounds every block's shuffle contribution to
    k rows; a Ray-native range sort + ``limit(k)`` finishes; ranks are
    assigned over the k-row result. Output is INTEGER-only
    (doc_id, n_tokens, rank) — the float key orders but never leaves the
    pipeline, so cross-engine equality is exact (both engines compute the
    identical IEEE double chain: uint64→double, +1, /2^64, ln, /w).

    Columns: doc_id, n_tokens, rank.
    """
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        n_tok = df["text"].str.split().str.len().astype("int64")
        hexes = _md5_rank(df["doc_id"])
        u = (
            np.array([int(h[:16], 16) for h in hexes], dtype=np.uint64).astype(
                np.float64
            )
            + 1.0
        ) / np.float64(2.0**64)
        with np.errstate(divide="ignore"):
            key = np.log(u) / n_tok.to_numpy(np.float64)
        out = pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64").to_numpy(),
                "n_tokens": n_tok.to_numpy(),
                "key": key,
            }
        )
        out = out[out["n_tokens"] > 0]
        return out.sort_values(
            ["key", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(k)

    def add_rank(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["key", "doc_id"], ascending=[False, True], ignore_index=True
        )
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(),
                "n_tokens": df["n_tokens"].to_numpy(),
                "rank": np.arange(1, len(df) + 1, dtype=np.int64),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pandas")
        .sort(["key", "doc_id"], descending=[True, False])
        .limit(k)
        .repartition(1)
        .map_batches(add_rank, batch_format="pandas")
    )


ANOMALY_Z = 2.0  # |z| >= 2 flags an hour


def rate_anomalies(sf_dir: str):
    """Hourly error-rate spike detection over the events stream — the
    operational-monitoring aggregate (which hours' error counts sit >= 2
    population standard deviations from the corpus mean).

    Exact cross-engine rule: hour = ``epoch_seconds // 3600`` (integer);
    per-hour counts are integers; ``mean = S1/H``,
    ``var = S2/H - mean*mean`` (population), ``z = (err - mean)/sqrt(var)``
    — every float is the same expression over integer sums on both
    engines (IEEE sqrt is correctly rounded, so the doubles match
    bit-for-bit), rounded to 6 dp. Shape: per-batch partial hour counts
    -> ONE bucketed grouped fold -> the driver folds #hours rows (a
    month is ~720) and computes 3 scalars. Columns: hour, n_err,
    n_total, z_r, is_anomaly."""

    ds = read_table(sf_dir, "events", columns=["ts", "event_type"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        secs = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        secs //= 1_000_000
        hour = secs // 3600
        err = (df["event_type"].to_numpy() == "error").astype("int64")
        g = (
            pd.DataFrame({"hour": hour, "n_err": err})
            .groupby("hour", sort=False)
            .agg(n_err=("n_err", "sum"), n_total=("n_err", "size"))
            .reset_index()
        )
        g["n_err"] = g["n_err"].astype("int64")
        g["n_total"] = g["n_total"].astype("int64")
        return g

    hours = keyed_fold(
        ds, sum_in_bucket("hour", "n_err", "n_total"), "hour", rows=partials,
        empty=dict(hour="int64", n_err="int64", n_total="int64"),
    ).to_pandas()
    H = float(len(hours))
    s1 = float(hours["n_err"].sum())
    # EXACT integer sum of squares -> one double conversion (numpy's
    # pairwise float summation would drift vs SQL's sequential sum)
    s2 = float((hours["n_err"].astype("int64") ** 2).sum())
    mean = s1 / H
    var = s2 / H - mean * mean
    err = hours["n_err"].to_numpy().astype("float64")
    z = np.zeros(len(hours)) if var <= 0 else (err - mean) / np.sqrt(var)
    out = hours.assign(
        z_r=np.round(z, 6), is_anomaly=np.abs(z) >= ANOMALY_Z
    ).sort_values("hour", ignore_index=True)
    return out[["hour", "n_err", "n_total", "z_r", "is_anomaly"]]


def pivot_user_event_values(sf_dir: str):
    """Long→wide pivot — per user, one column per event type holding the
    exact integer-cent sum of that type's values (the reshape step
    feature stores / user-feature pipelines run before model training).

    Column set discovery is itself distributed (per-batch distinct-type
    partials, driver folds a type-count-bounded list, columns ordered
    type asc — pinned); the pivot is then ONE user-bucketed grouped pass
    whose in-group unstack is vectorized (users × types integer frame,
    absent cells 0). Column names are ``v_<type>``. Columns: user_id,
    v_<type>... SQL-oracle-checked (CASE-sum mirror over the same
    discovered type set)."""

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type", "value"])

    def type_partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": df["event_type"].unique()})

    types = sorted(
        ds.map_batches(type_partial, batch_format="pandas")
        .to_pandas()["event_type"]
        .unique()
    )

    def user_type_cents(df: pd.DataFrame) -> pd.DataFrame:
        # in-batch combiner: (user, type) partial cent sums per block
        return (
            pd.DataFrame(
                {
                    "user_id": df["user_id"].astype("int64"),
                    "event_type": df["event_type"],
                    "c": np.floor(
                        df["value"].to_numpy(dtype=np.float64) * 100 + 0.5
                    ).astype(np.int64),
                }
            )
            .groupby(["user_id", "event_type"], sort=False)["c"]
            .sum()
            .reset_index()
        )

    def unstack(df: pd.DataFrame, _types=tuple(types)) -> pd.DataFrame:
        g = (
            df.groupby(["user_id", "event_type"], sort=False)["c"]
            .sum()
            .unstack(fill_value=0)
        )
        out = {"user_id": g.index.to_numpy(dtype="int64")}
        for t in _types:
            col = (
                g[t].to_numpy(dtype="int64")
                if t in g.columns
                else np.zeros(len(g), dtype="int64")
            )
            out[f"v_{t}"] = col / 100.0
        return pd.DataFrame(out)

    return keyed_fold(
        ds, unstack, "user_id", rows=user_type_cents,
        empty={"user_id": "int64", **{f"v_{t}": "float64" for t in types}},
    )


def user_lifetime(sf_dir: str):
    """Per-user lifetime profile over the event stream — the audience /
    retention base table (first & last activity, volume, breadth, spend):
    the per-entity rollup every activity pipeline materializes before
    cohorting (``retention_cohorts``) or anomaly work.

    One exchange: per-batch combiner partials collapse each user's rows
    to (min ts, max ts, count, cents sum) plus the per-(user, type) and
    per-(user, day) DISTINCT carriers (bounded: types and days are
    small), then a bucketed user fold resolves exact distinct counts
    in-group. Money is integer cents (the ``cents`` rule); lifespan is
    exact integer seconds. Columns: user_id, first_ts, last_ts,
    n_events, n_types, active_days, total_cents, lifespan_s.
    SQL-oracle-checked."""

    ds = read_table(
        sf_dir, "events", columns=["user_id", "ts", "event_type", "value"]
    )

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(df["value"].to_numpy() * 100 + 0.5).astype("int64")
        d = df.assign(c=cents, day=df["ts"].dt.normalize())
        g = (
            d.groupby(["user_id", "event_type", "day"], sort=False)
            .agg(
                first_ts=("ts", "min"),
                last_ts=("ts", "max"),
                n=("c", "size"),
                c=("c", "sum"),
            )
            .reset_index()
        )
        return g.astype({"n": "int64", "c": "int64"})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby("user_id", sort=False)
            .agg(
                first_ts=("first_ts", "min"),
                last_ts=("last_ts", "max"),
                n_events=("n", "sum"),
                n_types=("event_type", "nunique"),
                active_days=("day", "nunique"),
                total_cents=("c", "sum"),
            )
            .reset_index()
        )
        # second-BOUNDARY difference (DuckDB date_diff('second') counts
        # boundary crossings, not elapsed time): truncate each endpoint
        # to whole seconds first, then subtract
        g["lifespan_s"] = (
            g["last_ts"].to_numpy().astype("datetime64[s]").astype("int64")
            - g["first_ts"].to_numpy().astype("datetime64[s]").astype("int64")
        )
        return g.astype(
            {"user_id": "int64", "n_events": "int64", "n_types": "int64",
             "active_days": "int64", "total_cents": "int64"}
        )

    return keyed_fold(
        ds, fold, "user_id", rows=partials,
        empty=dict(user_id="int64", first_ts="datetime64[us]", last_ts="datetime64[us]",
                   n_events="int64", n_types="int64", active_days="int64",
                   total_cents="int64", lifespan_s="int64"),
    )


def event_rate_limit(sf_dir: str, per_day: int = 2):
    """Deterministic event throttling: keep the first ``per_day`` events
    of each (user, calendar-day) by (ts, event_id) order — the
    rate-limiter / anti-spam gate of an event-ingest pipeline (the
    time-windowed sibling of curation.source_quota_sample; the crawl
    plane's politeness budget is the fetch-time analogue).

    Shape: one pass projects (event_id, user_id, day, ts) — props never
    ship; ONE bucket(user_id) exchange sorts each user's events and
    cumcounts within (user, day) (all rows of a user co-locate, so the
    per-window rank is exact). Columns: event_id, user_id, day, rk
    (1-based). SQL-oracle-checked (row_number QUALIFY mirror)."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        day = (
            df["ts"].dt.year.to_numpy() * 10_000
            + df["ts"].dt.month.to_numpy() * 100
            + df["ts"].dt.day.to_numpy()
        ).astype("int64")
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64").to_numpy(),
                "user_id": df["user_id"].astype("int64").to_numpy(),
                "day": day,
                "ts": df["ts"].to_numpy(),
            }
        )

    def limit_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "day", "ts", "event_id"],
                            kind="mergesort")
        rk = df.groupby(["user_id", "day"], sort=False).cumcount().to_numpy() + 1
        keep = rk <= per_day
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy()[keep],
                "user_id": df["user_id"].to_numpy()[keep],
                "day": df["day"].to_numpy()[keep],
                "rk": rk[keep].astype("int64"),
            }
        )

    return keyed_fold(
        ds, limit_in_bucket, "user_id", rows=keyed,
        empty=dict(event_id="int64", user_id="int64", day="int64", rk="int64"),
    )


def props_json_stats(sf_dir: str):
    """Semi-structured column processing: parse the ``props`` JSON blob
    and census its ``k`` field per event type — the schema-on-read step
    every event pipeline needs before a typed column exists (DuckDB
    mirrors it with json_extract; the Ray side parses real JSON, not a
    regex). Exact integers throughout.

    Shape: per-batch combiner collapses to (event_type, k, n) partial
    counts — the exchange carries at most types × distinct-k rows, never
    events; ONE bucket(event_type) fold computes n, sum_k (as Σ k·n),
    min/max and the exact distinct-k count per type. Columns:
    event_type, n, sum_k, min_k, max_k, n_distinct_k.
    SQL-oracle-checked."""
    import json

    ds = read_table(sf_dir, "events", columns=["event_type", "props"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        k = df["props"].map(lambda s: int(json.loads(s)["k"])).astype("int64")
        g = (
            pd.DataFrame({"event_type": df["event_type"].to_numpy(dtype=object), "k": k})
            .groupby(["event_type", "k"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype("int64")
        return g

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        per_k = (
            df.groupby(["event_type", "k"], sort=False)["n"].sum().reset_index()
        )
        per_k["kn"] = per_k["k"].to_numpy() * per_k["n"].to_numpy()
        g = per_k.groupby("event_type", sort=False).agg(
            n=("n", "sum"),
            sum_k=("kn", "sum"),
            min_k=("k", "min"),
            max_k=("k", "max"),
            n_distinct_k=("k", "size"),
        ).reset_index()
        return g.astype({"n": "int64", "sum_k": "int64", "min_k": "int64",
                         "max_k": "int64", "n_distinct_k": "int64"})

    return keyed_fold(
        ds, fold, "event_type", rows=partials,
        empty=dict(event_type=str, n="int64", sum_k="int64", min_k="int64",
                   max_k="int64", n_distinct_k="int64"),
    )


def weekday_profile(sf_dir: str):
    """Calendar-profile census: events per (ISO weekday, event type) with
    exact integer-cent spend — the seasonality/staffing profile every
    event pipeline reports. Weekday is ISO (Mon=1..Sun=7) on BOTH
    engines (pandas ``dayofweek+1`` vs DuckDB ``isodow`` — the default
    ``dayofweek`` conventions differ between engines and would
    hash-mismatch). One combiner pass (≤ 7 × types rows per batch), one
    bucketed fold. Columns: iso_dow, event_type, n, spend_cents.
    SQL-oracle-checked."""
    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        dow = (df["ts"].dt.dayofweek.to_numpy() + 1).astype("int64")
        cents = np.floor(df["value"].to_numpy() * 100 + 0.5).astype("int64")
        g = (
            pd.DataFrame(
                {
                    "iso_dow": dow,
                    "event_type": df["event_type"].to_numpy(dtype=object),
                    "c": cents,
                }
            )
            .groupby(["iso_dow", "event_type"], sort=False)
            .agg(n=("c", "size"), spend_cents=("c", "sum"))
            .reset_index()
        )
        return g.astype({"iso_dow": "int64", "n": "int64", "spend_cents": "int64"})

    return keyed_fold(
        ds, sum_in_bucket(["iso_dow", "event_type"], "n", "spend_cents"), "event_type",
        rows=partials,
        empty=dict(iso_dow="int64", event_type=str, n="int64", spend_cents="int64"),
    )
