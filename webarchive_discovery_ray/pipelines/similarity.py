"""Similarity search over the embedding column.

Brute-force cosine top-k (baseline: numpy matmul per batch against a
broadcast query matrix, per-batch partial top-k, tiny global reduce) and
an IVF-bucketed approximate variant (the scale path: probe only the
closest coarse buckets).

Determinism: similarities are computed in float64 and rounded to 6 decimals
before ranking with a vec_id tie-break, so ranks match the DuckDB oracle's
``round(list_cosine_similarity(...), 6)`` ordering bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.bucketing import keyed_fold, typed_empty
from ..sources.io import read_table

__all__ = ["ann_cosine_topk", "ann_range_search", "mmr_select", "contrastive_triplets",
    "ann_hard_negatives", "ivf_cosine_topk", "lsh_cosine_topk",
    "sq8_quantize", "sq8_cosine_topk", "pq_cosine_topk",
    "ivfpq_cosine_topk", "knn_graph", "label_propagation"]


def _query_matrix(sf_dir: str, n_queries: int) -> tuple[np.ndarray, np.ndarray]:
    # filter pushed into the read: only the query vectors leave storage
    rows = (
        read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        .filter(expr=f"vec_id < {n_queries}")
        .take_all()
    )
    rows.sort(key=lambda r: r["vec_id"])
    ids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    mat = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in rows])
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    return ids, mat / norms[:, None]


def ann_cosine_topk(sf_dir: str, k: int = 5, n_queries: int = 8):
    """Exact brute-force cosine top-k for the first ``n_queries`` vectors.

    Columns: query_vec_id, vec_id, rank (1-based). Each batch emits only its
    local top-k per query (n_queries x k rows), so the global reduce is tiny
    regardless of table size."""
    import ray

    from ..functions.broadcast import get_broadcast

    qids, qmat = _query_matrix(sf_dir, n_queries)
    q_ref = ray.put((qids, qmat))

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        # task-pool stage (fully elastic, no pinned actor count): the query
        # matrix broadcasts once per worker via the get_broadcast cache
        bqids, bqmat = get_broadcast(q_ref)
        ids = df["vec_id"].to_numpy()
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        sims = np.round((mat / norms[:, None]) @ bqmat.T, 6)  # (n, q)
        out = []
        for qi, qid in enumerate(bqids):
            col = sims[:, qi]
            take = min(len(ids), k)
            # partial top-k with (-cos, vec_id) order
            order = np.lexsort((ids, -col))[:take]
            for i in order:
                out.append(
                    {"query_vec_id": int(qid), "vec_id": int(ids[i]), "cos_r": float(col[i])}
                )
        return pd.DataFrame(out, columns=["query_vec_id", "vec_id", "cos_r"])

    partials = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"]).map_batches(
        partial_topk, batch_format="pandas"
    )

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["cos_r", "vec_id"], ascending=[False, True], kind="mergesort")
        df = df.head(k).reset_index(drop=True)
        return pd.DataFrame(
            {
                "query_vec_id": df["query_vec_id"],
                "vec_id": df["vec_id"],
                "rank": np.arange(1, len(df) + 1, dtype=np.int64),
            }
        )

    return partials.groupby("query_vec_id").map_groups(final_topk, batch_format="pandas")


def ann_hard_negatives(sf_dir: str, k: int = 5, n_queries: int = 8):
    """Hard-negative mining for contrastive training: for each query
    vector, the top-``k`` most-similar vectors whose ``label`` DIFFERS
    from the query's — the highest-similarity wrong-class candidates a
    contrastive or retrieval trainer pairs against each anchor.

    Same scale shape as :func:`ann_cosine_topk` (broadcast query matrix,
    per-batch partial top-k, tiny grouped reduce), with the label
    inequality applied as a vectorized mask inside the batch pass.
    Columns: query_vec_id, vec_id, cos_r (rounded 6), rank."""
    import ray

    from ..functions.broadcast import get_broadcast

    qrows = (
        read_table(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])
        .filter(expr=f"vec_id < {n_queries}")
        .take_all()
    )
    qrows.sort(key=lambda r: r["vec_id"])
    qids = np.array([r["vec_id"] for r in qrows], dtype=np.int64)
    qlabels = np.array([r["label"] for r in qrows])
    qmat = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in qrows])
    qnorms = np.linalg.norm(qmat, axis=1)
    qnorms[qnorms == 0] = 1.0
    q_ref = ray.put((qids, qlabels, qmat / qnorms[:, None]))

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        bqids, bqlabels, bqmat = get_broadcast(q_ref)
        ids = df["vec_id"].to_numpy()
        labels = df["label"].to_numpy()
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        sims = np.round((mat / norms[:, None]) @ bqmat.T, 6)  # (n, q)
        out = []
        for qi, qid in enumerate(bqids):
            neg = labels != bqlabels[qi]  # hard-negative gate
            if not neg.any():
                continue
            col = sims[neg, qi]
            cand = ids[neg]
            take = min(len(cand), k)
            order = np.lexsort((cand, -col))[:take]
            for i in order:
                out.append(
                    {
                        "query_vec_id": int(qid),
                        "vec_id": int(cand[i]),
                        "cos_r": float(col[i]),
                    }
                )
        return pd.DataFrame(out, columns=["query_vec_id", "vec_id", "cos_r"])

    partials = read_table(
        sf_dir, "embeddings", columns=["vec_id", "embedding", "label"]
    ).map_batches(partial_topk, batch_format="pandas")

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["cos_r", "vec_id"], ascending=[False, True], kind="mergesort"
        )
        df = df.head(k).reset_index(drop=True)
        return pd.DataFrame(
            {
                "query_vec_id": df["query_vec_id"],
                "vec_id": df["vec_id"],
                "cos_r": df["cos_r"],
                "rank": np.arange(1, len(df) + 1, dtype=np.int64),
            }
        )

    return partials.groupby("query_vec_id").map_groups(
        final_topk, batch_format="pandas"
    )


def ivf_cosine_topk(sf_dir: str, k: int = 5, n_queries: int = 8, n_probe: int = 3):
    """IVF-style approximate top-k: coarse buckets = the ``label`` column
    (stand-in for k-means cells); each query probes only its ``n_probe``
    nearest bucket centroids. Columns: query_vec_id, vec_id, rank.
    Approximate by construction -> rows-only check."""
    import ray

    from ray.data.aggregate import Count

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])
    # centroids: tiny grouped mean, computed driver-side from per-batch sums
    def partial_sums(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for label, grp in df.groupby("label"):
            mat = np.stack(grp["embedding"].to_numpy()).astype(np.float64)
            rows.append(
                {
                    "label": int(label),
                    "vec_sum": mat.sum(axis=0).tolist(),
                    "n": len(grp),
                }
            )
        return pd.DataFrame(rows, columns=["label", "vec_sum", "n"])

    sums: dict[int, tuple[np.ndarray, int]] = {}
    for r in ds.map_batches(partial_sums, batch_format="pandas").take_all():
        v = np.asarray(r["vec_sum"])
        if r["label"] in sums:
            pv, pn = sums[r["label"]]
            sums[r["label"]] = (pv + v, pn + r["n"])
        else:
            sums[r["label"]] = (v, r["n"])
    labels = sorted(sums)
    centroids = np.stack([sums[l][0] / sums[l][1] for l in labels])
    cnorm = np.linalg.norm(centroids, axis=1)
    cnorm[cnorm == 0] = 1.0
    centroids = centroids / cnorm[:, None]

    qids, qmat = _query_matrix(sf_dir, n_queries)
    probe = {}
    for qi, qid in enumerate(qids):
        sims = centroids @ qmat[qi]
        order = np.lexsort((np.array(labels), -np.round(sims, 6)))[:n_probe]
        probe[int(qid)] = {labels[i] for i in order}
    probe_ref = ray.put((qids, qmat, probe))

    from ..functions.broadcast import get_broadcast

    def bucket_topk(df: pd.DataFrame) -> pd.DataFrame:
        # task-pool stage: probe table broadcasts once per worker
        bqids, bqmat, bprobe = get_broadcast(probe_ref)
        out = []
        ids = df["vec_id"].to_numpy()
        lab = df["label"].to_numpy()
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        mat = mat / norms[:, None]
        for qi, qid in enumerate(bqids):
            mask = np.isin(lab, list(bprobe[int(qid)]))
            if not mask.any():
                continue
            col = np.round(mat[mask] @ bqmat[qi], 6)
            sel_ids = ids[mask]
            order = np.lexsort((sel_ids, -col))[: min(k, len(sel_ids))]
            for i in order:
                out.append(
                    {
                        "query_vec_id": int(qid),
                        "vec_id": int(sel_ids[i]),
                        "cos_r": float(col[i]),
                    }
                )
        return pd.DataFrame(out, columns=["query_vec_id", "vec_id", "cos_r"])

    partials = ds.map_batches(bucket_topk, batch_format="pandas")

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["cos_r", "vec_id"], ascending=[False, True], kind="mergesort")
        df = df.head(k).reset_index(drop=True)
        return pd.DataFrame(
            {
                "query_vec_id": df["query_vec_id"],
                "vec_id": df["vec_id"],
                "rank": np.arange(1, len(df) + 1, dtype=np.int64),
            }
        )

    return partials.groupby("query_vec_id").map_groups(final_topk, batch_format="pandas")


def sq8_quantize(sf_dir: str):
    """SQ8 scalar quantization of the embedding column — the memory-scale
    path for similarity search (int8 codes are 4x smaller than float32 and
    16x smaller than the float64 math): per-dimension [min, max] from a
    distributed partial reduce (each block contributes one 2 x d vector;
    the driver folds #blocks of them), then a broadcast affine encode per
    batch. Deterministic; verified against a sequential numpy reference in
    pytest AND a DuckDB SQL mirror (per-dim min/max + banker's-rounding
    affine code). Columns: vec_id, codes (hex string of the d uint8 codes
    — the engine-internal form is the raw bytes; hex is the stable query
    surface), max_abs_err (double, reconstruction error of the row)."""
    import ray

    from ..functions.broadcast import get_broadcast

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def partial_minmax(df: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        return pd.DataFrame(
            {
                "lo": [mat.min(axis=0).tobytes()],
                "hi": [mat.max(axis=0).tobytes()],
            }
        )

    parts = ds.map_batches(partial_minmax, batch_format="pandas").take_all()
    los = np.stack([np.frombuffer(p["lo"], dtype=np.float64) for p in parts])
    his = np.stack([np.frombuffer(p["hi"], dtype=np.float64) for p in parts])
    lo, hi = los.min(axis=0), his.max(axis=0)
    scale = np.where(hi > lo, (hi - lo) / 255.0, 1.0)
    params_ref = ray.put((lo, scale))

    def encode(df: pd.DataFrame) -> pd.DataFrame:
        blo, bscale = get_broadcast(params_ref)
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        codes = np.clip(np.round((mat - blo) / bscale), 0, 255).astype(np.uint8)
        recon = blo + codes.astype(np.float64) * bscale
        err = np.abs(recon - mat).max(axis=1)
        return pd.DataFrame(
            {
                "vec_id": df["vec_id"].astype("int64"),
                "codes": [c.tobytes().hex() for c in codes],
                "max_abs_err": err,
            }
        )

    return ds.map_batches(encode, batch_format="pandas")


def sq8_cosine_topk(sf_dir: str, k: int = 5, n_queries: int = 8):
    """Brute-force cosine top-k over SQ8-DEQUANTIZED vectors — the
    quantized variant of :func:`ann_cosine_topk` (same partial-top-k /
    tiny-reduce shape; queries stay full-precision, candidates are
    reconstructed from int8 codes). Rows-only; pytest checks top-k recall
    against the exact search. Columns: query_vec_id, vec_id, rank."""
    import ray

    from ..functions.broadcast import get_broadcast

    qids, qmat = _query_matrix(sf_dir, n_queries)
    # quantization parameters from the same distributed reduce
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def partial_minmax(df: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        return pd.DataFrame(
            {"lo": [mat.min(axis=0).tobytes()], "hi": [mat.max(axis=0).tobytes()]}
        )

    parts = ds.map_batches(partial_minmax, batch_format="pandas").take_all()
    los = np.stack([np.frombuffer(p["lo"], dtype=np.float64) for p in parts])
    his = np.stack([np.frombuffer(p["hi"], dtype=np.float64) for p in parts])
    lo, hi = los.min(axis=0), his.max(axis=0)
    scale = np.where(hi > lo, (hi - lo) / 255.0, 1.0)
    q_ref = ray.put((qids, qmat, lo, scale))

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        bqids, bqmat, blo, bscale = get_broadcast(q_ref)
        ids = df["vec_id"].to_numpy()
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        codes = np.clip(np.round((mat - blo) / bscale), 0, 255).astype(np.uint8)
        recon = blo + codes.astype(np.float64) * bscale  # the search index
        norms = np.linalg.norm(recon, axis=1)
        norms[norms == 0] = 1.0
        sims = np.round((recon / norms[:, None]) @ bqmat.T, 6)
        out = []
        for qi, qid in enumerate(bqids):
            col = sims[:, qi]
            order = np.lexsort((ids, -col))[: min(len(ids), k)]
            for i in order:
                out.append(
                    {"query_vec_id": int(qid), "vec_id": int(ids[i]), "cos_r": float(col[i])}
                )
        return pd.DataFrame(out, columns=["query_vec_id", "vec_id", "cos_r"])

    partials = ds.map_batches(partial_topk, batch_format="pandas")

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["cos_r", "vec_id"], ascending=[False, True], kind="mergesort")
        df = df.head(k).reset_index(drop=True)
        return pd.DataFrame(
            {
                "query_vec_id": df["query_vec_id"],
                "vec_id": df["vec_id"],
                "rank": np.arange(1, len(df) + 1, dtype=np.int64),
            }
        )

    return partials.groupby("query_vec_id").map_groups(final_topk, batch_format="pandas")


_LSH_BITS = 10        # bits per table (bucket granularity)
_LSH_TABLES = 8       # OR-amplification: tables unioned
_LSH_MAX_HAMMING = 1  # multiprobe radius within each table


def _lsh_planes(dim: int, n_bits: int = _LSH_BITS, n_tables: int = _LSH_TABLES) -> np.ndarray:
    """Deterministic random-hyperplane bank (Charikar, STOC'02 sign LSH):
    one Gaussian matrix of n_tables x n_bits rows — no global RNG state
    touched."""
    rng = np.random.RandomState(0x5175)
    return rng.standard_normal((n_tables * n_bits, dim))


def _lsh_codes(mat: np.ndarray, planes: np.ndarray, n_bits: int) -> np.ndarray:
    """(n, n_tables) per-table sign-bit codes."""
    bits = (mat @ planes.T) > 0  # (n, n_tables*n_bits)
    n_tables = planes.shape[0] // n_bits
    codes = np.zeros((mat.shape[0], n_tables), dtype=np.uint32)
    w = (np.uint32(1) << np.arange(n_bits, dtype=np.uint32))
    for t in range(n_tables):
        codes[:, t] = (bits[:, t * n_bits : (t + 1) * n_bits].astype(np.uint32) * w).sum(axis=1)
    return codes


def lsh_cosine_topk(
    sf_dir: str,
    k: int = 5,
    n_queries: int = 8,
    n_bits: int = _LSH_BITS,
    n_tables: int = _LSH_TABLES,
    max_hamming: int = _LSH_MAX_HAMMING,
):
    """LSH-bucketed approximate cosine top-k — the hash-bucket scale path
    beside ``ivf_cosine_topk``'s centroid-probe one: ``n_tables``
    independent sign-random-projection tables of ``n_bits`` each
    (OR-amplification), each query multiprobing codes within Hamming
    ``max_hamming`` per table; only rows colliding in >= 1 table get
    exact dot products.

    Scale shape: the plane bank + per-(query, table) probe-code sets
    broadcast once (``ray.put``); each batch computes codes with ONE
    small matmul and prunes before the expensive similarity; per-batch
    partial top-k bounds the shuffle to queries x k rows per block. At
    corpus scale table-0 codes become the hash-partition key so a
    bucket's rows co-locate.

    Honesty note (measured, see the pytest pin): this synthetic corpus
    is near-worst-case for angle LSH — true top-k neighbours sit at
    cosine ~0.3 against a ~0 median, where the per-bit collision
    probability is only ~0.6 — so the default bank reaches ~0.4-0.6
    recall while scanning ~10% of the corpus. ``ivf_cosine_topk``
    is the better scale path on such weakly-clustered embeddings; LSH
    wins when neighbours are tight (cos >= 0.7). Columns: query_vec_id,
    vec_id, rank. Approximate by construction -> rows-only check."""
    import itertools

    import ray

    from ..functions.broadcast import get_broadcast

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qids, qmat = _query_matrix(sf_dir, n_queries)
    planes = _lsh_planes(qmat.shape[1], n_bits, n_tables)
    qcodes = _lsh_codes(qmat, planes, n_bits)  # (n_queries, n_tables)
    flips = [np.uint32(0)]
    for r in range(1, max_hamming + 1):
        for combo in itertools.combinations(range(n_bits), r):
            m = np.uint32(0)
            for b in combo:
                m |= np.uint32(1) << np.uint32(b)
            flips.append(m)
    probe = {
        int(qid): [
            {int(qcodes[qi, t] ^ f) for f in flips} for t in range(n_tables)
        ]
        for qi, qid in enumerate(qids)
    }
    probe_ref = ray.put((qids, qmat, planes, n_bits, probe))

    def bucket_topk(df: pd.DataFrame) -> pd.DataFrame:
        bqids, bqmat, bplanes, bbits, bprobe = get_broadcast(probe_ref)
        ids = df["vec_id"].to_numpy()
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        mat = mat / norms[:, None]
        codes = _lsh_codes(mat, bplanes, bbits)
        out = []
        for qi, qid in enumerate(bqids):
            tables = bprobe[int(qid)]
            mask = np.zeros(len(ids), dtype=bool)
            for t, pset in enumerate(tables):
                mask |= np.isin(codes[:, t], list(pset))
            if not mask.any():
                continue
            col = np.round(mat[mask] @ bqmat[qi], 6)
            sel_ids = ids[mask]
            order = np.lexsort((sel_ids, -col))[: min(k, len(sel_ids))]
            for i in order:
                out.append(
                    {
                        "query_vec_id": int(qid),
                        "vec_id": int(sel_ids[i]),
                        "cos_r": float(col[i]),
                    }
                )
        return pd.DataFrame(out, columns=["query_vec_id", "vec_id", "cos_r"])

    partials = ds.map_batches(bucket_topk, batch_format="pandas")

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["cos_r", "vec_id"], ascending=[False, True], kind="mergesort"
        )
        df = df.head(k).reset_index(drop=True)
        return pd.DataFrame(
            {
                "query_vec_id": df["query_vec_id"],
                "vec_id": df["vec_id"],
                "rank": np.arange(1, len(df) + 1, dtype=np.int64),
            }
        )

    return partials.groupby("query_vec_id").map_groups(
        final_topk, batch_format="pandas"
    )


def _pq_train_codebooks(
    train: np.ndarray, m: int, ks: int, n_iter: int
) -> np.ndarray:
    """Per-subspace Lloyd's k-means with deterministic init (first ``ks``
    training subvectors) — (m, ks, d/m) codebooks. The training slice is
    bounded, so this runs driver-side in milliseconds; at corpus scale
    the train sample stays a fixed-size slice exactly like SQ8's
    parameter reduce."""
    d = train.shape[1]
    sub = d // m
    books = np.empty((m, ks, sub), dtype=np.float64)
    for s in range(m):
        x = train[:, s * sub : (s + 1) * sub]
        c = x[:ks].copy()
        for _ in range(n_iter):
            d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            a = d2.argmin(axis=1)
            for j in range(ks):
                pts = x[a == j]
                if len(pts):
                    c[j] = pts.mean(axis=0)
        books[s] = c
    return books


def pq_cosine_topk(
    sf_dir: str,
    k: int = 5,
    n_queries: int = 8,
    m: int = 4,
    ks: int = 16,
    train_max_id: int = 256,
    n_iter: int = 5,
):
    """Product-quantized approximate cosine top-k (Jégou et al., TPAMI'11)
    — the third quantized scale path beside SQ8 (scalar) and IVF
    (coarse-bucketed): vectors are L2-normalized, each of ``m`` subspaces
    encodes to one of ``ks`` codebook centroids (here 4x16 = one byte of
    code per 16 floats), and query scoring is ADC — per query, one
    (m, ks) lookup table of subspace dot products; a candidate's score is
    m table lookups + a sum, never a full-dimension dot product.

    Scale shape: codebooks train on the bounded ``vec_id < train_max_id``
    slice (filter pushed into the read, driver-side Lloyd's on the tiny
    sample); (codebooks, queries) broadcast once; per-batch encode +
    LUT-score + partial top-k keeps the exchange at queries x k rows per
    block. Deterministic (fixed init, 6-dp rounding, (score desc, vec_id
    asc) order) -> the exact output is VALUES-oracled via a sequential
    recompute. Columns: query_vec_id, vec_id, rank."""
    import ray

    from ..functions.broadcast import get_broadcast

    qids, qmat = _query_matrix(sf_dir, n_queries)
    train_rows = (
        read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        .filter(expr=f"vec_id < {train_max_id}")
        .take_all()
    )
    train_rows.sort(key=lambda r: r["vec_id"])
    train = np.stack(
        [np.asarray(r["embedding"], dtype=np.float64) for r in train_rows]
    )
    norms = np.linalg.norm(train, axis=1)
    norms[norms == 0] = 1.0
    train = train / norms[:, None]
    books = _pq_train_codebooks(train, m, ks, n_iter)
    ref = ray.put((qids, qmat, books))

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        bqids, bqmat, bbooks = get_broadcast(ref)
        mm, kks, sub = bbooks.shape
        ids = df["vec_id"].to_numpy()
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        nn = np.linalg.norm(mat, axis=1)
        nn[nn == 0] = 1.0
        mat = mat / nn[:, None]
        # encode: per subspace argmin ||x_s - c||^2
        codes = np.empty((len(ids), mm), dtype=np.int64)
        for s in range(mm):
            x = mat[:, s * sub : (s + 1) * sub]
            d2 = (
                (x * x).sum(axis=1, keepdims=True)
                - 2.0 * x @ bbooks[s].T
                + (bbooks[s] * bbooks[s]).sum(axis=1)
            )
            codes[:, s] = d2.argmin(axis=1)
        out = []
        for qi, qid in enumerate(bqids):
            # ADC lookup tables: (m, ks) of q_s . c
            lut = np.einsum("mkd,md->mk", bbooks, bqmat[qi].reshape(mm, sub))
            score = np.round(lut[np.arange(mm)[None, :], codes].sum(axis=1), 6)
            order = np.lexsort((ids, -score))[: min(k, len(ids))]
            for i in order:
                out.append(
                    {
                        "query_vec_id": int(qid),
                        "vec_id": int(ids[i]),
                        "score": float(score[i]),
                    }
                )
        return pd.DataFrame(out, columns=["query_vec_id", "vec_id", "score"])

    partials = ds.map_batches(partial_topk, batch_format="pandas")

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["score", "vec_id"], ascending=[False, True], kind="mergesort"
        ).head(k)
        return pd.DataFrame(
            {
                "query_vec_id": df["query_vec_id"].astype("int64"),
                "vec_id": df["vec_id"].astype("int64"),
                "rank": np.arange(1, len(df) + 1, dtype=np.int64),
            }
        )

    return partials.groupby("query_vec_id").map_groups(
        final_topk, batch_format="pandas"
    )


def _ivfpq_train(
    train: np.ndarray, n_cells: int, m: int, ks: int, n_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """Train the two-level IVFADC index on the bounded slice: coarse
    Lloyd's k-means (deterministic init = first ``n_cells`` training
    vectors) → assign → PQ codebooks on the RESIDUALS (x − c_cell) via
    the shared per-subspace trainer. Driver-side on the fixed-size
    sample — the standard Jégou-et-al recipe (train on a sample, encode
    the full corpus streaming)."""
    cells = train[:n_cells].copy()
    for _ in range(n_iter):
        d2 = (
            (train * train).sum(axis=1, keepdims=True)
            - 2.0 * train @ cells.T
            + (cells * cells).sum(axis=1)
        )
        a = d2.argmin(axis=1)
        for j in range(n_cells):
            pts = train[a == j]
            if len(pts):
                cells[j] = pts.mean(axis=0)
    d2 = (
        (train * train).sum(axis=1, keepdims=True)
        - 2.0 * train @ cells.T
        + (cells * cells).sum(axis=1)
    )
    assign = d2.argmin(axis=1)
    residuals = train - cells[assign]
    books = _pq_train_codebooks(residuals, m, ks, n_iter)
    return cells, books


def _ivfpq_encode_score(
    mat: np.ndarray,
    ids: np.ndarray,
    cells: np.ndarray,
    books: np.ndarray,
    qids: np.ndarray,
    qmat: np.ndarray,
    probe: dict,
    k: int,
) -> list[dict]:
    """Shared encode+ADC-score kernel (Ray batch fn AND the sequential
    oracle run exactly this code on their slices, so parity is
    structural): assign → residual-encode → per-query probe mask →
    score = q·c_cell + Σ_s LUT[s, code_s], 6-dp rounded, (score desc,
    vec_id asc) top-k."""
    mm, kks, sub = books.shape
    d2 = (
        (mat * mat).sum(axis=1, keepdims=True)
        - 2.0 * mat @ cells.T
        + (cells * cells).sum(axis=1)
    )
    assign = d2.argmin(axis=1)
    res = mat - cells[assign]
    codes = np.empty((len(ids), mm), dtype=np.int64)
    for s in range(mm):
        x = res[:, s * sub : (s + 1) * sub]
        dd = (
            (x * x).sum(axis=1, keepdims=True)
            - 2.0 * x @ books[s].T
            + (books[s] * books[s]).sum(axis=1)
        )
        codes[:, s] = dd.argmin(axis=1)
    out = []
    for qi, qid in enumerate(qids):
        mask = np.isin(assign, list(probe[int(qid)]))
        if not mask.any():
            continue
        q = qmat[qi]
        lut = np.einsum("mkd,md->mk", books, q.reshape(mm, sub))
        adc = lut[np.arange(mm)[None, :], codes[mask]].sum(axis=1)
        coarse = cells[assign[mask]] @ q
        score = np.round(coarse + adc, 6)
        sel_ids = ids[mask]
        order = np.lexsort((sel_ids, -score))[: min(k, len(sel_ids))]
        for i in order:
            out.append(
                {
                    "query_vec_id": int(qid),
                    "vec_id": int(sel_ids[i]),
                    "score": float(score[i]),
                }
            )
    return out


def ivfpq_cosine_topk(
    sf_dir: str,
    k: int = 5,
    n_queries: int = 8,
    n_probe: int = 3,
    m: int = 4,
    ks: int = 16,
    n_cells: int = 8,
    train_max_id: int = 256,
    n_iter: int = 5,
):
    """IVFADC approximate cosine top-k (Jégou et al., TPAMI'11 §III) —
    the COMPOSED scale path: IVF coarse cells prune the scan to
    ``n_probe`` of ``n_cells`` partitions AND product quantization
    compresses what remains to ``m`` bytes/vector, scored by asymmetric
    distance (one (m, ks) lookup table per query). This is the shape a
    10^9-vector corpus actually ships: the inverted lists bound IO, the
    codes bound memory, and neither the centroids nor the codebooks grow
    with the corpus.

    Scale shape: all training on the bounded ``vec_id < train_max_id``
    slice driver-side (fixed-size sample — no distributed float-sum
    ordering in the model, so the output is bit-deterministic);
    (cells, books, queries, probe lists) broadcast once via ``ray.put``;
    one streaming pass assigns/encodes/scores each batch and ships
    queries × k rows per block; final per-query top-k is a tiny grouped
    fold. Deterministic (fixed inits, 6-dp rounding, (score desc, vec_id
    asc)) → sequential-recompute VALUES oracle.
    Columns: query_vec_id, vec_id, rank."""
    import ray

    from ..functions.broadcast import get_broadcast

    qids, qmat = _query_matrix(sf_dir, n_queries)
    train_rows = (
        read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        .filter(expr=f"vec_id < {train_max_id}")
        .take_all()
    )
    train_rows.sort(key=lambda r: r["vec_id"])
    train = np.stack(
        [np.asarray(r["embedding"], dtype=np.float64) for r in train_rows]
    )
    norms = np.linalg.norm(train, axis=1)
    norms[norms == 0] = 1.0
    train = train / norms[:, None]
    cells, books = _ivfpq_train(train, n_cells, m, ks, n_iter)
    probe: dict[int, set] = {}
    for qi, qid in enumerate(qids):
        sims = np.round(cells @ qmat[qi], 6)
        order = np.lexsort((np.arange(len(cells)), -sims))[:n_probe]
        probe[int(qid)] = set(int(c) for c in order)
    ref = ray.put((qids, qmat, cells, books, probe))

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        bqids, bqmat, bcells, bbooks, bprobe = get_broadcast(ref)
        ids = df["vec_id"].to_numpy()
        if not len(ids):
            return typed_empty(
                query_vec_id="int64", vec_id="int64", score="float64"
            )
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        nn = np.linalg.norm(mat, axis=1)
        nn[nn == 0] = 1.0
        mat = mat / nn[:, None]
        out = _ivfpq_encode_score(
            mat, ids, bcells, bbooks, bqids, bqmat, bprobe, k
        )
        if not out:
            return typed_empty(
                query_vec_id="int64", vec_id="int64", score="float64"
            )
        return pd.DataFrame(out, columns=["query_vec_id", "vec_id", "score"])

    partials = ds.map_batches(partial_topk, batch_format="pandas")

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["score", "vec_id"], ascending=[False, True], kind="mergesort"
        ).head(k)
        return pd.DataFrame(
            {
                "query_vec_id": df["query_vec_id"].astype("int64"),
                "vec_id": df["vec_id"].astype("int64"),
                "rank": np.arange(1, len(df) + 1, dtype=np.int64),
            }
        )

    return partials.groupby("query_vec_id").map_groups(
        final_topk, batch_format="pandas"
    )


MMR_LAMBDA = 0.5  # relevance-vs-diversity trade-off
MMR_K = 10


def mmr_select(sf_dir: str, k: int = MMR_K, lam: float = MMR_LAMBDA):
    """Maximal-Marginal-Relevance diverse top-k (Carbonell & Goldstein
    '98 — the standard diversity-aware selection for RAG contexts and
    curated eval sets): greedily pick the vector maximising
    ``lam * cos(q, x) - (1 - lam) * max_{s in S} cos(x, s)`` against the
    already-selected set S. Query = the corpus's vec_id 0 (normalised).

    Shape: k rounds, each ONE streaming scan emitting a per-batch
    partial argmax (score, vec_id, embedding) under a broadcast
    (query, selected-matrix) pair — the driver folds #blocks rows per
    round and never holds the corpus. Exact-by-construction (cosines
    rounded to 6 dp before the MMR combination, ties -> smallest
    vec_id), so the oracle is a sequential numpy recompute rendered as
    VALUES. Columns: rank, vec_id, score_r.

    Scale note: exact MMR is O(k) scans by definition; at corpus scale
    the same loop runs over an IVF-pruned candidate pool (the
    ivf_cosine_topk machinery) — the selection rule is unchanged."""
    import ray

    from ..functions.broadcast import get_broadcast

    _, qmat = _query_matrix(sf_dir, 1)
    q = qmat[0]

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    selected_ids: list[int] = []
    sel_mat = np.zeros((0, q.shape[0]), dtype=np.float64)
    out_rows = []
    for rank in range(1, k + 1):
        state_ref = ray.put((q, np.array(selected_ids, dtype=np.int64), sel_mat))

        def partial_best(df: pd.DataFrame, _ref=state_ref) -> pd.DataFrame:
            bq, bsel_ids, bsel = get_broadcast(_ref)
            ids = df["vec_id"].to_numpy()
            keep = ~np.isin(ids, bsel_ids)
            if not keep.any():
                return pd.DataFrame(
                    {"score": pd.Series([], dtype="float64"),
                     "vec_id": pd.Series([], dtype="int64"),
                     "embedding": pd.Series([], dtype=object)}
                )
            ids = ids[keep]
            mat = np.stack(df["embedding"].to_numpy()[keep]).astype(np.float64)
            norms = np.linalg.norm(mat, axis=1)
            norms[norms == 0] = 1.0
            nm = mat / norms[:, None]
            rel = np.round(nm @ bq, 6)
            if len(bsel):
                ms = np.round((nm @ bsel.T).max(axis=1), 6)
            else:
                ms = np.zeros(len(ids))
            score = lam * rel - (1.0 - lam) * ms
            order = np.lexsort((ids, -score))[0]
            return pd.DataFrame(
                {
                    "score": [float(score[order])],
                    "vec_id": [int(ids[order])],
                    "embedding": [nm[order].tolist()],
                }
            )

        parts = ds.map_batches(partial_best, batch_format="pandas").to_pandas()
        if not len(parts):
            break
        parts = parts.sort_values(
            ["score", "vec_id"], ascending=[False, True], kind="mergesort"
        )
        win = parts.iloc[0]
        selected_ids.append(int(win["vec_id"]))
        sel_mat = np.vstack([sel_mat, np.asarray(win["embedding"])])
        out_rows.append(
            {
                "rank": rank,
                "vec_id": int(win["vec_id"]),
                "score_r": round(float(win["score"]), 6),
            }
        )
    out = pd.DataFrame(out_rows, columns=["rank", "vec_id", "score_r"])
    out["rank"] = out["rank"].astype("int32")
    out["vec_id"] = out["vec_id"].astype("int64")
    return out


def contrastive_triplets(sf_dir: str):
    """(anchor, positive, negative) triplet mining for contrastive
    embedding training: positives are the near-duplicate pairs
    (:func:`dedup.embedding_neardup_pairs` — same label bucket,
    cos >= 0.25, anchor < positive); the negative for each pair is the
    DETERMINISTIC md5-rank pick among vectors of a DIFFERENT label
    (``min by (md5(anchor:cand), cand)`` — a seeded cross-cluster draw
    the SQL mirror reproduces with a window over the same hash).

    Shape: the pair list is the dedup output (duplication-proportional,
    driver-bounded at audit scale; at corpus scale the same broadcast +
    partial-argmin works over a hash-bucket-sampled candidate pool);
    anchors' labels come from ONE filtered read; the negative pick is a
    streaming partial argmin per pair under the broadcast pair list,
    folded on the driver (#pairs x #blocks rows). Columns: anchor,
    positive, negative. SQL-oracle-checked."""
    import hashlib

    import ray

    from ..functions.broadcast import get_broadcast
    from .dedup import embedding_neardup_pairs

    pairs = embedding_neardup_pairs(sf_dir).to_pandas()
    if not len(pairs):
        return pd.DataFrame(
            {"anchor": pd.Series([], dtype="int64"),
             "positive": pd.Series([], dtype="int64"),
             "negative": pd.Series([], dtype="int64")}
        )
    anchors = set(pairs["vec_a"].astype(int))
    lbl_rows = (
        read_table(sf_dir, "embeddings", columns=["vec_id", "label"])
        .filter(lambda r: r["vec_id"] in anchors)
        .take_all()
    )
    albl = {int(r["vec_id"]): int(r["label"]) for r in lbl_rows}
    plist = [
        (int(a), int(b), albl[int(a)])
        for a, b in zip(pairs["vec_a"], pairs["vec_b"])
    ]
    ref = ray.put(tuple(plist))

    def partial_neg(df: pd.DataFrame) -> pd.DataFrame:
        pl = get_broadcast(ref)
        ids = df["vec_id"].to_numpy().astype("int64")
        lbl = df["label"].to_numpy().astype("int64")
        out = {"anchor": [], "positive": [], "h": [], "negative": []}
        md5 = hashlib.md5
        for a, b, al in pl:
            mask = lbl != al
            if not mask.any():
                continue
            cand = ids[mask]
            hs = [md5(f"{a}:{c}".encode()).hexdigest() for c in cand]
            i = min(range(len(cand)), key=lambda j: (hs[j], cand[j]))
            out["anchor"].append(a)
            out["positive"].append(b)
            out["h"].append(hs[i])
            out["negative"].append(int(cand[i]))
        r = pd.DataFrame(out)
        for c in ("anchor", "positive", "negative"):
            r[c] = r[c].astype("int64")
        return r

    parts = (
        read_table(sf_dir, "embeddings", columns=["vec_id", "label"])
        .map_batches(partial_neg, batch_format="pandas")
        .to_pandas()
    )
    parts = parts.sort_values(
        ["anchor", "positive", "h", "negative"], kind="mergesort"
    )
    win = parts.groupby(["anchor", "positive"], sort=True).head(1)
    return win[["anchor", "positive", "negative"]].reset_index(drop=True)


def knn_graph(sf_dir: str, k: int = 3, n_probe: int = 2):
    """Approximate k-nearest-neighbour GRAPH over the embedding column —
    every vector gets its top-k cosine neighbours, not just a fixed
    query set: the ANN *self-join* that feeds graph-based curation
    (SemDeDup-style cluster surgery, diversity sampling, label
    propagation). The all-pairs exact version is O(N^2) at 100 TB; this
    is the IVF-bucketed scale path.

    Determinism design: IVF cells are the ``label`` column, and each
    cell is represented by its MEDOID-stand-in — the cell's min-vec_id
    member — instead of a float mean (mean centroids fold partial sums
    whose addition order varies with batching; the medoid rule is
    order-free, so the probe choice and hence the whole output is
    bit-stable across any block layout). Every vector probes its
    ``n_probe`` nearest cells under the total order
    (-cos rounded 6dp, label asc); a vector searches its own cell only
    if that cell wins a probe slot (standard IVF semantics).

    Shape: one tiny min-fold + one bounded rep fetch (broadcast via
    ``ray.put``); ONE routing exchange ships each vector 1 + n_probe
    times (member copy to its home cell, query copies to probed
    cells); per-cell Q x M matmul emits per-(query, cell) partial
    top-k; one bucketed fold merges partials per query under
    (-cos6, dst_vec_id). Self-pairs excluded. Every stage is
    cell-tile-bounded — the corpus never broadcasts, no N^2 exchange.

    Columns: src_vec_id, dst_vec_id, rank (1-based), cos_sim (rounded
    6). Approximate-by-construction but deterministic — VALUES-oracled
    via a sequential recompute (the lsh_cosine_topk mechanism)."""
    import ray

    from ..functions.broadcast import get_broadcast

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])

    # -- cell representatives: min vec_id per label (exact integer fold) --
    def min_partials(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("label", sort=False)["vec_id"].min()
        return pd.DataFrame(
            {
                "label": g.index.to_numpy().astype("int64"),
                "m": g.to_numpy().astype("int64"),
            }
        )

    mins: dict[int, int] = {}
    for r in ds.map_batches(min_partials, batch_format="pandas").take_all():
        lab = int(r["label"])
        mins[lab] = min(mins.get(lab, 1 << 62), int(r["m"]))
    rep_ids = sorted(mins.values())
    rep_rows = ds.filter(
        expr=" or ".join(f"vec_id == {i}" for i in rep_ids)
    ).take_all()
    rep_rows.sort(key=lambda r: int(r["label"]))
    rep_labels = np.array([int(r["label"]) for r in rep_rows], dtype=np.int64)
    rep_mat = np.stack(
        [np.asarray(r["embedding"], dtype=np.float64) for r in rep_rows]
    )
    nrm = np.linalg.norm(rep_mat, axis=1)
    nrm[nrm == 0] = 1.0
    rep_mat = rep_mat / nrm[:, None]
    reps_ref = ray.put((rep_labels, rep_mat))
    n_cells = len(rep_labels)
    probe_n = min(n_probe, n_cells)

    def route(df: pd.DataFrame) -> pd.DataFrame:
        labels, reps = get_broadcast(reps_ref)
        ids = df["vec_id"].to_numpy(dtype="int64")
        home = df["label"].to_numpy(dtype="int64")
        mat = np.stack(
            [np.asarray(v, dtype=np.float64) for v in df["embedding"]]
        )
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        mat = mat / norms[:, None]
        sims = np.round(mat @ reps.T, 6)  # (n, C)
        # total order (-cos6, label-rank): composite int64 key, argsort
        key = np.rint(-sims * 1_000_000).astype(np.int64) * n_cells + np.arange(
            n_cells, dtype=np.int64
        )
        probed = np.argsort(key, axis=1, kind="stable")[:, :probe_n]  # (n, p)
        emb_list = list(mat)  # normalized rows, shipped once per copy
        member = pd.DataFrame(
            {
                "vec_id": ids,
                "cell": home,
                "role": np.zeros(len(df), dtype="int64"),
                "emb": emb_list,
            }
        )
        q_ids = np.repeat(ids, probe_n)
        q_cells = labels[probed.ravel()]
        query = pd.DataFrame(
            {
                "vec_id": q_ids,
                "cell": q_cells,
                "role": np.ones(len(q_ids), dtype="int64"),
                "emb": [emb_list[i] for i in np.repeat(np.arange(len(df)), probe_n)],
            }
        )
        return pd.concat([member, query], ignore_index=True)

    candidates = dict(src="int64", dst="int64", cos6="float64")

    def cell_topk(df: pd.DataFrame) -> pd.DataFrame:
        out_parts = []
        for _, cell_df in df.groupby("cell", sort=False):
            mem = cell_df[cell_df["role"] == 0]
            qry = cell_df[cell_df["role"] == 1]
            if not len(mem) or not len(qry):
                continue
            m_ids = mem["vec_id"].to_numpy(dtype="int64")
            q_ids = qry["vec_id"].to_numpy(dtype="int64")
            m_mat = np.stack(mem["emb"].to_numpy())
            q_mat = np.stack(qry["emb"].to_numpy())
            sims = np.round(q_mat @ m_mat.T, 6)  # (Q, M)
            src = np.repeat(q_ids, len(m_ids))
            dst = np.tile(m_ids, len(q_ids))
            keep = src != dst
            part = pd.DataFrame(
                {"src": src[keep], "dst": dst[keep], "cos6": sims.ravel()[keep]}
            )
            part = part.sort_values(
                ["src", "cos6", "dst"],
                ascending=[True, False, True],
                kind="mergesort",
            )
            out_parts.append(part.groupby("src", sort=False).head(k))
        if not out_parts:
            return typed_empty(**candidates)
        return pd.concat(out_parts, ignore_index=True)

    def fold_topk(df: pd.DataFrame) -> pd.DataFrame:
        # a (src, dst) pair can arrive from several probed cells with the
        # SAME cos6 (the pair's cosine doesn't depend on the cell) — dedup
        d = df.drop_duplicates(["src", "dst"]).sort_values(
            ["src", "cos6", "dst"], ascending=[True, False, True], kind="mergesort"
        )
        top = d.groupby("src", sort=False).head(k)
        rank = top.groupby("src", sort=False).cumcount() + 1
        return pd.DataFrame(
            {
                "src_vec_id": top["src"].to_numpy(dtype="int64"),
                "dst_vec_id": top["dst"].to_numpy(dtype="int64"),
                "rank": rank.to_numpy().astype("int64"),
                "cos_sim": top["cos6"].to_numpy(dtype="float64"),
            }
        )

    partials = keyed_fold(ds, cell_topk, "cell", rows=route, empty=candidates)
    return keyed_fold(
        partials, fold_topk, "src",
        empty=dict(src_vec_id="int64", dst_vec_id="int64", rank="int64", cos_sim="float64"),
    )


def label_propagation(edges_ds, labels_ds):
    """One majority-vote label-propagation round over a kNN graph — the
    semi-supervised labeling step a curation pipeline runs to extend a
    small set of trusted labels (quality/domain/topic) across the
    corpus: every UNLABELED vector (odd vec_id — the same split
    convention as incremental_dedup/cross_minhash_dedup) takes the
    majority label of its LABELED (even vec_id) graph neighbours, ties
    to the smallest label.

    ``edges_ds``: (src_vec_id, dst_vec_id, ...) from :func:`knn_graph`;
    ``labels_ds``: (vec_id, label). TWO bucketed co-groups: edges key by
    dst to attach the neighbour's label (the label table streams that
    one exchange; unlabeled dsts drop there), votes key by src for the
    exact per-label count + argmax fold. No broadcast — at 100 TB the
    label table is corpus-sized. Columns: vec_id, pred_label, n_votes
    (vectors with no labeled neighbour emit nothing).
    SQL-oracle-checked over the materialized edge set."""

    def edges_by_dst(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["src_vec_id"].to_numpy(dtype="int64") % 2 == 1]  # unlabeled side only
        return pd.DataFrame(
            {"key": d["dst_vec_id"].astype("int64"), "src": d["src_vec_id"].astype("int64")}
        )

    def labels_by_id(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["vec_id"].to_numpy(dtype="int64") % 2 == 0]  # trusted/labeled side only
        return pd.DataFrame({"key": d["vec_id"].astype("int64"), "label": d["label"].astype("int64")})

    votes_rows = dict(src="int64", label="int64", n="int64")

    def attach_votes(e: pd.DataFrame, l: pd.DataFrame) -> pd.DataFrame:
        m = e[["key", "src"]].merge(l[["key", "label"]], on="key", how="inner")
        if not len(m):
            return typed_empty(**votes_rows)
        g = (
            m.groupby(["src", "label"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype("int64")
        return g

    def majority_fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["src", "label"], sort=False)["n"].sum().reset_index()
        g = g.sort_values(
            ["src", "n", "label"], ascending=[True, False, True], kind="mergesort"
        )
        win = g[~g["src"].duplicated()]
        return pd.DataFrame(
            {
                "vec_id": win["src"].to_numpy(dtype="int64"),
                "pred_label": win["label"].to_numpy(dtype="int64"),
                "n_votes": win["n"].to_numpy(dtype="int64"),
            }
        )

    votes = keyed_fold(
        (edges_ds, labels_ds), attach_votes, "key", rows=(edges_by_dst, labels_by_id),
        empty=votes_rows,
    )
    return keyed_fold(
        votes, majority_fold, "src",
        empty=dict(vec_id="int64", pred_label="int64", n_votes="int64"),
    )


def ann_range_search(sf_dir: str, tau: float = 0.3, n_queries: int = 8):
    """Exact cosine RANGE search — every corpus vector with similarity
    ``>= tau`` to any of the first ``n_queries`` query vectors (the
    radius companion of :func:`ann_cosine_topk`: retrieval-augmented
    filtering wants "everything this close", not a fixed k).

    Fully streaming, zero shuffle: the normalized query matrix
    broadcasts once (``ray.put`` + per-worker cache), each batch does
    one tiled matmul and emits ONLY its matches — output is
    match-bounded, compute is O(N·Q), nothing reduces globally. The
    match-or-not verdict compares the 6-dp ROUNDED cosine in both
    engines (the sq8/ann family's proven float discipline). Columns:
    query_vec_id, vec_id, cos_r. SQL-oracle-checked via
    ``list_cosine_similarity``."""
    import ray

    from ..functions.broadcast import get_broadcast

    qids, qmat = _query_matrix(sf_dir, n_queries)
    q_ref = ray.put((qids, qmat))

    def matches(df: pd.DataFrame) -> pd.DataFrame:
        bqids, bqmat = get_broadcast(q_ref)
        ids = df["vec_id"].to_numpy()
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        sims = np.round((mat / norms[:, None]) @ bqmat.T, 6)  # (n, q)
        vi, qi = np.nonzero(sims >= tau)
        return pd.DataFrame(
            {
                "query_vec_id": bqids[qi].astype("int64"),
                "vec_id": ids[vi].astype("int64"),
                "cos_r": sims[vi, qi],
            }
        )

    return read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"]).map_batches(
        matches, batch_format="pandas"
    )
