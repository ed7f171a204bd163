"""Deduplication operators: exact, MinHash+LSH, SimHash, embedding near-dup,
and the reference's hash-group reduplication (J3).

Reference precedent: exact content-hash dedup is the MDX reduplication
machinery (``warc-hadoop-recordreaders/.../mdx/MDXReduplicatingReducer.java:72-153``,
group by digest, exemplar merge); ssdeep fields (FuzzyHashAnalyser) are
emitted for near-dup *search* but the clustering operators here are new
construction for training-data pipelines.

Shuffle strategy: one hash-partitioned exchange per operator, expressed
as BUCKETED grouped passes (``functions/bucketing.py`` — raw-key
``groupby`` walks rows/groups in Python on this Ray version); MinHash
shingles/signatures are computed batch-local (combiner style) so only
(band, band_hash, doc_id) triples shuffle, not documents.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.bucketing import coalesce_blocks, keyed_fold, typed_empty
from ..functions.hashing import splitmix64
from ..sources.io import read_table

__all__ = [
    "exact_dedup",
    "minhash_lsh_pairs",
    "ngram_jaccard_pairs",
    "containment_pairs",
    "simhash_signatures",
    "embedding_neardup_pairs",
    "semdedup_keep",
    "cluster_representatives",
    "neardup_dedup_apply",
    "cross_minhash_dedup",
    "reduplicate",
    "dup_span_fraction",
    "paragraph_dedup",
    "incremental_dedup",
    "gram_novelty",
    "simhash_neardup_pairs",
    "exact_substring_spans",
    "exact_substring_dedup_apply",
]


def _md5_hex(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def exact_dedup(sf_dir: str):
    """Exact dedup by content hash: one exemplar (min doc_id) per text.

    One bucketed grouped pass (``functions/bucketing.py`` — a raw-key
    ``groupby(h).aggregate(Min)`` walks every distinct hash in Python):
    per-batch partial min per hash (combiner), then a vectorized grouped
    min inside each hash bucket. Columns: h (md5 hex), doc_id. SQL
    oracle: ``SELECT md5(text) h, min(doc_id) doc_id FROM documents
    GROUP BY 1``."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def min_by_h(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("h", sort=False)["doc_id"].min().reset_index()

    def partial_min(df: pd.DataFrame) -> pd.DataFrame:
        return min_by_h(pd.DataFrame(
            {"h": [_md5_hex(t) for t in df["text"]], "doc_id": df["doc_id"]}
        ))

    return keyed_fold(ds, min_by_h, "h", rows=partial_min)


def _window_hashes(df: pd.DataFrame, w: int) -> pd.DataFrame:
    """(md5(window), doc_id, pos) rows of every overlapping w-token window.

    Batch-vectorized (same shape as minhash to_bands): flatten all
    windows, md5 ONCE per unique window text, map back via the inverse
    index — duplicate windows within a batch (common in templated
    corpora) hash once."""
    md5 = hashlib.md5
    grams: list[str] = []
    ids: list[np.ndarray] = []
    poss: list[np.ndarray] = []
    for did, text in zip(df["doc_id"], df["text"]):
        toks = text.split()
        n = len(toks) - w + 1
        if n <= 0:
            continue
        grams.extend(" ".join(toks[i : i + w]) for i in range(n))
        ids.append(np.full(n, did, dtype=np.int64))
        poss.append(np.arange(n, dtype=np.int64))
    if not grams:
        return typed_empty(sh=str, doc_id="int64", pos="int64")
    uniq, inv = np.unique(np.asarray(grams, dtype=object), return_inverse=True)
    uniq_h = np.asarray(
        [md5(g.encode("utf-8")).hexdigest() for g in uniq], dtype=object
    )
    return pd.DataFrame(
        {
            "sh": pd.Series(uniq_h[inv], dtype=str),
            "doc_id": np.concatenate(ids),
            "pos": np.concatenate(poss),
        }
    )


_SPAN_W = 8  # duplicated-window width in whitespace tokens


def dup_span_fraction(sf_dir: str, w: int = _SPAN_W):
    """Exact duplicated-substring coverage per document, at token
    granularity (the "Deduplicating Training Data Makes Language Models
    Better" metric, token-window form): a w-token window is *duplicated*
    when its text occurs ≥2 times anywhere in the corpus (any doc, any
    position, including within one doc); each document reports the
    fraction of its tokens covered by the union of its duplicated windows.

    Shape — TWO bucketed grouped passes (``functions/bucketing.py``; no
    joins, no raw-key aggregates, no driver materialization):
    (1) per-batch shingle emission, (md5(window), doc_id, pos) rows keyed
    by ``bucket(sh)`` — one vectorized pass per bucket finds the window
    hashes occurring ≥2 times (all occurrences of a hash co-locate) and
    emits only their (doc_id, pos) rows;
    (2) those rows are co-grouped with the per-doc token counts by
    ``bucket(doc_id)``, and each bucket computes its docs' interval
    union with a vectorized grouped diff/clip — every document appears
    (zero coverage included). Columns: doc_id, n_tokens, n_dup_tokens,
    dup_fraction (one double division of two exact ints — bit-identical
    to the SQL oracle's)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def dup_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["sh"].value_counts()
        dup = set(vc.index[vc.to_numpy() >= 2])
        return df.loc[df["sh"].isin(dup), ["doc_id", "pos"]]

    dup_pos = keyed_fold(ds, dup_in_bucket, "sh", rows=lambda df: _window_hashes(df, w))

    def count_tokens(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_tok": df["text"].str.split().str.len().astype("int64"),
            }
        )

    toks = read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        count_tokens, batch_format="pandas"
    )

    def coverage_bucket(d: pd.DataFrame, t: pd.DataFrame) -> pd.DataFrame:
        d = (
            d.drop_duplicates(["doc_id", "pos"])
            .sort_values(["doc_id", "pos"], kind="mergesort")
        )
        if len(d):
            # grouped interval union: within a doc each position covers
            # [pos, pos+w); the union adds min(gap, w) per sorted step and
            # w for the doc's first position (diff is NaN there)
            diffs = d.groupby("doc_id")["pos"].diff()
            contrib = np.minimum(diffs.fillna(w).to_numpy(), w)
            cov = pd.Series(contrib).groupby(d["doc_id"].to_numpy()).sum()
        else:
            cov = pd.Series(dtype="float64")
        n_dup = t["doc_id"].map(cov).fillna(0).astype("int64").to_numpy()
        n_tok = t["n_tok"].to_numpy()
        return pd.DataFrame(
            {
                "doc_id": t["doc_id"].to_numpy(),
                "n_tokens": n_tok,
                "n_dup_tokens": n_dup,
                "dup_fraction": np.where(
                    n_tok > 0, n_dup / np.where(n_tok > 0, n_tok, 1).astype("float64"), 0.0
                ),
            }
        )

    return keyed_fold((dup_pos, toks), coverage_bucket, "doc_id")


_PARA_W = 16  # paragraph width in whitespace tokens


def paragraph_dedup(sf_dir: str, w: int = _PARA_W):
    """Corpus-wide exact paragraph dedup with document reassembly — the
    RefinedWeb / CCNet "exact line dedup" shape over fixed token windows
    (the synthetic corpus has no newlines, so a paragraph is a
    NON-overlapping w-token window of the whitespace token stream,
    trailing partial window included). An occurrence survives iff it is
    the first occurrence of its text corpus-wide (lexicographic min
    (doc_id, para_idx) per md5); each document is re-assembled from its
    surviving paragraphs in order; documents that lose every paragraph
    drop from the output.

    Shape — two bucketed exchanges, text shuffles once:
    (1) winners pass keyed by ``bucket(h)``: per-batch paragraph hashing
        (md5 once per unique paragraph per batch), only
        (h, doc_id, para_idx) triples move; each bucket emits the LOSER
        occurrences only (duplicated hashes minus their argmin), so the
        reassembly side-table is proportional to duplication, not corpus
        size;
    (2) reassembly pass keyed by ``bucket(doc_id)``: documents
        co-grouped with the loser markers; one vectorized in-bucket
        anti-join (merge indicator) + ordered join rebuilds the text.

    Columns: doc_id, n_paras, n_kept, text."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"]).materialize()

    def para_rows(df: pd.DataFrame) -> list[np.ndarray | list]:
        """Shared explode: per-doc non-overlapping windows → flat
        (ptext, doc_id, para_idx) arrays."""
        texts: list[str] = []
        ids: list[np.ndarray] = []
        idxs: list[np.ndarray] = []
        for did, text in zip(df["doc_id"], df["text"]):
            toks = text.split()
            if not toks:
                continue
            n_p = (len(toks) + w - 1) // w
            texts.extend(" ".join(toks[p * w : (p + 1) * w]) for p in range(n_p))
            ids.append(np.full(n_p, did, dtype=np.int64))
            idxs.append(np.arange(n_p, dtype=np.int64))
        if not texts:
            return [[], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)]
        return [texts, np.concatenate(ids), np.concatenate(idxs)]

    def para_hashes(df: pd.DataFrame) -> pd.DataFrame:
        md5 = hashlib.md5
        texts, ids, idxs = para_rows(df)
        if len(texts):
            # md5 once per unique paragraph per batch (templated corpora
            # repeat paragraphs within a batch)
            uniq, inv = np.unique(np.asarray(texts, dtype=object), return_inverse=True)
            uniq_h = np.asarray(
                [md5(t.encode("utf-8")).hexdigest() for t in uniq], dtype=object
            )
            hs = pd.Series(uniq_h[inv], dtype=str)
        else:
            hs = pd.Series([], dtype=str)
        return pd.DataFrame({"h": hs, "doc_id": ids, "para_idx": idxs})

    def losers_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["h", "doc_id", "para_idx"], kind="mergesort")
        return d.loc[d["h"].duplicated(), ["doc_id", "para_idx"]]

    losers = keyed_fold(
        ds, losers_in_bucket, "h", rows=para_hashes,
        empty=dict(doc_id="int64", para_idx="int64"),
    )

    result = dict(doc_id="int64", n_paras="int64", n_kept="int64", text=str)

    def reassemble(docs: pd.DataFrame, lost: pd.DataFrame) -> pd.DataFrame:
        lost = lost[["doc_id", "para_idx"]]
        texts, ids, idxs = para_rows(docs)
        paras = pd.DataFrame(
            {"doc_id": ids, "para_idx": idxs, "ptext": pd.Series(texts, dtype=str)}
        )
        if len(lost):
            m = paras.merge(lost, on=["doc_id", "para_idx"], how="left", indicator=True)
            kept = m[m["_merge"] == "left_only"]
        else:
            kept = paras
        if not len(kept):
            return typed_empty(**result)
        tot = paras.groupby("doc_id", sort=False).size()
        kept = kept.sort_values(["doc_id", "para_idx"], kind="mergesort")
        agg = kept.groupby("doc_id", sort=False)["ptext"].agg(" ".join)
        n_kept = kept.groupby("doc_id", sort=False).size()
        return pd.DataFrame(
            {
                "doc_id": agg.index.to_numpy(),
                "n_paras": tot.reindex(agg.index).to_numpy(),
                "n_kept": n_kept.to_numpy(),
                "text": agg.to_numpy(),
            }
        )

    return keyed_fold((ds, losers), reassemble, "doc_id", empty=result)


def incremental_dedup(sf_dir: str, bloom_bits: int | None = None):
    """Dedup a crawl INCREMENT against an existing snapshot — the
    recurring-crawl shape (the reference dedups revisits against the
    prior index via digest lookups, MDXReduplicatingReducer.java:72-153;
    here the whole increment is deduped against the whole snapshot).
    Base = even doc_ids (the already-indexed snapshot), delta = odd
    doc_ids (the new increment). The content key is a FINGERPRINT —
    md5 of the first 16 whitespace tokens (the reference keys revisit
    dedup on a payload digest; the synthetic corpus has unique full
    texts but templated openings, so the prefix window is the digest
    analogue that actually collides). Empty docs are skipped. A delta
    doc survives iff its fingerprint appears nowhere in the snapshot
    AND it is the first occurrence (min doc_id) within the increment.

    Scale asymmetry this encodes: snapshot >> increment at 100 TB, so
    the 16 KiB Bloom is built over the DELTA hashes and broadcast; the
    snapshot stream ships ONLY hashes that hit the increment's Bloom
    (false positives ship harmlessly and die in the exact verify — they
    can never drop a surviving doc). One bucketed exchange keyed by
    bucket(h) resolves base-markers and within-delta min together.

    Columns: doc_id, h."""
    import ray

    from ..functions.broadcast import get_broadcast
    from ..functions.hashing import bloom_add, bloom_contains
    from .sketches import _BLOOM_BITS

    # bloom_bits is a TEST KNOB: a tiny filter forces heavy false
    # positives, pinning that FPs only ship extra snapshot hashes and can
    # never change the exact anti-join answer
    nbits = bloom_bits if bloom_bits is not None else _BLOOM_BITS
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def _hash_side(df: pd.DataFrame, parity: int) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy()
        nonempty = np.asarray([t.strip() != "" for t in df["text"]], dtype=bool)
        sub = df[(ids % 2 == parity) & nonempty]
        if len(sub):
            fps = np.asarray(
                [" ".join(t.split()[:16]) for t in sub["text"]], dtype=object
            )
            uniq, inv = np.unique(fps, return_inverse=True)
            uniq_h = np.asarray(
                [_md5_hex(t) for t in uniq], dtype=object
            )
            hs = pd.Series(uniq_h[inv], dtype=str, index=sub.index)
        else:
            hs = pd.Series([], dtype=str)
        return pd.DataFrame(
            {"h": hs.to_numpy(), "doc_id": sub["doc_id"].to_numpy()}
        )

    def _key64(hs: pd.Series) -> np.ndarray:
        return np.array([int(h[:16], 16) for h in hs], dtype=np.uint64)

    def delta_bloom(df: pd.DataFrame) -> pd.DataFrame:
        d = _hash_side(df, 1)
        bits = np.zeros(nbits >> 3, dtype=np.uint8)
        if len(d):
            bloom_add(bits, _key64(d["h"]))
        return pd.DataFrame({"bits": [bits.tobytes()]})

    parts = ds.map_batches(delta_bloom, batch_format="pandas").take_all()
    bits = np.zeros(nbits >> 3, dtype=np.uint8)
    for p in parts:
        bits |= np.frombuffer(p["bits"], dtype=np.uint8)
    bloom_ref = ray.put(bits)

    def base_hits(df: pd.DataFrame) -> pd.DataFrame:
        b = _hash_side(df, 0)
        return b[bloom_contains(get_broadcast(bloom_ref), _key64(b["h"]))] if len(b) else b

    def keep_in_bucket(base: pd.DataFrame, delta: pd.DataFrame) -> pd.DataFrame:
        d = delta[~delta["h"].isin(set(base["h"]))]
        g = d.groupby("h", sort=False)["doc_id"].min().reset_index()
        return g[["doc_id", "h"]]

    return keyed_fold(
        (ds, ds), keep_in_bucket, "h", rows=(base_hits, lambda df: _hash_side(df, 1)),
        empty=dict(doc_id="int64", h=str),
    )


_NOVELTY_W = 8  # novelty window width in whitespace tokens


def gram_novelty(sf_dir: str, w: int = _NOVELTY_W):
    """Per-document n-gram NOVELTY — the marginal-data-value signal used
    to order/curate pretraining corpora: the fraction of a document's
    overlapping w-token windows whose FIRST corpus-wide occurrence
    (lexicographic min (doc_id, pos)) lies in this document. A fully
    templated doc scores ~0, a fully original doc scores 1. Docs with
    fewer than w tokens have no windows and drop from the output.

    Shape — the dup_span_fraction exchange plan reused with per-doc
    partial counters instead of positions: (md5, doc_id, pos) triples
    bucket by gram hash (all occurrences of a gram co-locate, so the
    in-bucket sort + ``duplicated()`` scan finds the exact global first
    occurrence); each bucket emits one (n_windows, n_novel) partial per
    doc, and a second exchange keyed by bucket(doc_id) folds the
    partials. Window text never shuffles — only hashes and counters.

    Columns: doc_id, n_windows, n_novel, novelty (one double division
    of two exact ints — bit-identical to the SQL oracle's)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def novel_partials(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["sh", "doc_id", "pos"], kind="mergesort")
        novel = (~d["sh"].duplicated()).to_numpy().astype("int64")
        g = pd.DataFrame({"doc_id": d["doc_id"].to_numpy(), "novel": novel})
        return (
            g.groupby("doc_id", sort=False)["novel"]
            .agg(n_windows="size", n_novel="sum")
            .reset_index()
        )

    def fold_doc(df: pd.DataFrame) -> pd.DataFrame:
        agg = (
            df.groupby("doc_id", sort=False)[["n_windows", "n_novel"]]
            .sum()
            .reset_index()
        )
        agg["novelty"] = agg["n_novel"].to_numpy() / agg["n_windows"].to_numpy().astype(
            "float64"
        )
        return agg[["doc_id", "n_windows", "n_novel", "novelty"]]

    partials = keyed_fold(
        ds, novel_partials, "sh", rows=lambda df: _window_hashes(df, w),
        empty=dict(doc_id="int64", n_windows="int64", n_novel="int64"),
    )
    return keyed_fold(
        partials, fold_doc, "doc_id",
        empty=dict(doc_id="int64", n_windows="int64", n_novel="int64", novelty="float64"),
    )


_N_PERM = 32
_BANDS = 8  # 8 bands x 4 rows
_ROWS_PER_BAND = _N_PERM // _BANDS


def _perm_seeds(n_perm: int = _N_PERM) -> np.ndarray:
    """Deterministic per-permutation xor seeds (sha-derived, no RNG)."""
    return np.array(
        [
            int.from_bytes(hashlib.sha1(f"minhash-perm-{i}".encode()).digest()[:8], "big")
            for i in range(n_perm)
        ],
        dtype=np.uint64,
    )


def _gram_list(text: str, k: int = 3) -> list[str]:
    """The ONE word-k-gram rule every Jaccard-family op shares (incl. the
    ``or [text]`` short-doc fallback) — the prefix-filter proof, the
    MinHash banding, and both DuckDB oracles all assume byte-identical
    gram lists, so keep this the single definition."""
    toks = text.split()
    return [" ".join(toks[i : i + k]) for i in range(max(0, len(toks) - k + 1))] or [
        text
    ]


def _shingles(text: str, k: int = 3) -> set[int]:
    return {
        int.from_bytes(hashlib.md5(g.encode()).digest()[:8], "big")
        for g in _gram_list(text, k)
    }


def _minhash_signature(shingle_hashes: Iterable[int], seeds: np.ndarray) -> np.ndarray:
    """min over shingles of splitmix64(x ^ seed_i), vectorised uint64 —
    one independent uniform hash per permutation, no modular bigints."""
    h = np.fromiter(shingle_hashes, dtype=np.uint64)
    return splitmix64(h[None, :] ^ seeds[:, None]).min(axis=1)


def _band_key(chunk: np.ndarray) -> str:
    """LSH band bucket key: md5 of the band's minhash values joined as
    decimal strings (truncated to 16 hex chars). The join format is
    arbitrary — two docs share a bucket iff the 4 values are equal —
    and this form is directly expressible in the DuckDB oracle
    (``md5(string_agg(v::VARCHAR, '-' ORDER BY perm))``)."""
    return hashlib.md5(
        "-".join(str(int(v)) for v in chunk).encode()
    ).hexdigest()[:16]


def minhash_lsh_pairs(sf_dir: str, threshold: float = 0.3):
    """MinHash+LSH near-duplicate pairs with exact-Jaccard verification.

    shingle -> 32-perm minhash -> 8x4 band buckets -> bucketed co-grouped
    self-merge (pairs emitted only when an LSH bucket holds ≥2 docs —
    singleton pruning is inherent to the merge) -> distinct pairs ->
    tag-join verify. Columns: doc_a, doc_b, jaccard (rounded 6).
    Deterministic; the full chain (md5 shingles -> splitmix64 minhash ->
    decimal-join band keys -> exact hashed-shingle Jaccard) is mirrored
    by a DuckDB SQL oracle in ``__ray_entry__.oracle_sql()``.

    100-TB shuffle discipline (cf. the reference's reducer-side grouping,
    ``MDXReduplicatingReducer.java:72-153``): the corpus text is never
    materialized on the driver, and every exchange is a bucketed grouped
    pass (``functions/bucketing.py`` — no join-aggregator actor pools):

    1. pass A keys corpus texts by bucket(doc_id) and each pair SIDE by
       bucket(its doc) — the in-bucket merge attaches the text to every
       side referencing a co-located doc (the corpus streams through this
       ONE shuffle; unreferenced texts drop there);
    2. pass B keys both halves by bucket(pair) and computes the exact
       3-gram Jaccard — candidate-bounded data only.

    The corpus is read once and materialized: both the candidate stage
    and pass A take it."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"]).materialize()
    distinct_pairs = _lsh_candidate_pairs(ds)
    return _attach_verify_jaccard(ds, distinct_pairs, threshold)


def _lsh_candidate_pairs(ds, cross_parity: bool = False):
    """Shingle → minhash → LSH band buckets → in-bucket candidate pairs
    (the shared candidate stage of :func:`minhash_lsh_pairs` and
    :func:`cross_minhash_dedup`). With ``cross_parity`` the in-bucket
    self-merge keeps only pairs whose doc ids differ in parity — the
    snapshot(even)/delta(odd) split rule of :func:`incremental_dedup` —
    so a snapshot never pairs with itself (cross-corpus dedup never
    drops a delta doc for matching another delta doc)."""
    seeds = _perm_seeds()

    def to_bands(batch: pa.Table) -> pa.Table:
        """Batch-vectorized shingle -> minhash -> band keys.

        One flattened pass per batch: every doc's k-grams land in one
        array, md5 runs ONCE per unique gram (duplicate grams — within or
        across docs — are hashed once), and the 32 per-permutation mins
        for ALL docs come from a single ``np.minimum.reduceat`` over the
        doc-segmented hash array (min over duplicates equals min over the
        shingle SET, so the per-doc dedup of ``_shingles`` is not needed
        here). Oracle semantics (md5 grams, splitmix64 perms, decimal-join
        band keys) are unchanged."""
        texts = batch["text"].to_pylist()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        grams: list[str] = []
        starts = np.empty(len(texts), dtype=np.int64)
        for j, text in enumerate(texts):
            starts[j] = len(grams)
            grams.extend(_gram_list(text))
        uniq, inv = np.unique(np.asarray(grams, dtype=object), return_inverse=True)
        uniq_h = np.fromiter(
            (
                int.from_bytes(hashlib.md5(g.encode()).digest()[:8], "big")
                for g in uniq
            ),
            dtype=np.uint64,
            count=len(uniq),
        )
        h = uniq_h[inv]  # doc-segment-ordered gram hashes
        v = splitmix64(h[None, :] ^ seeds[:, None])  # (32, total_grams)
        sig = np.minimum.reduceat(v, starts, axis=1)  # (32, n_docs)
        doc_ids = np.repeat(ids, _BANDS)
        bands = [
            f"{band}:{_band_key(sig[band * _ROWS_PER_BAND : (band + 1) * _ROWS_PER_BAND, d])}"
            for d in range(len(texts))
            for band in range(_BANDS)
        ]
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "band": pa.array(bands, pa.string()),
            }
        )

    # ---- candidate pairs: bucketed co-grouped self-merge ----------------
    # bands rows keyed by bucket(lsh key) co-locate every doc sharing an
    # LSH band bucket; a vectorized in-bucket pandas self-merge with
    # doc_a < doc_b gives exactly the within-bucket pairs (singleton
    # buckets vanish -- their only "pair" is the self-pair the < filter
    # drops). No per-group Python calls, no join-aggregator actor pools
    # (functions/bucketing.py -- every exchange below is the same bucketed
    # grouped pass).
    def pairs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        m = df[["band", "doc_id"]].merge(df[["band", "doc_id"]], on="band")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        if cross_parity:
            m = m[(m["doc_id_x"] % 2) != (m["doc_id_y"] % 2)]
        return pd.DataFrame(
            {"doc_a": m["doc_id_x"].to_numpy(), "doc_b": m["doc_id_y"].to_numpy()}
        )

    raw_pairs = keyed_fold(ds, pairs_in_bucket, "band", rows=to_bands, batch_format="pyarrow")

    # No standalone distinct pass: a pair rediscovered in k band buckets
    # emits k copies, but every copy of (pair, side) lands in the SAME
    # doc-bucket of the attach pass below (the bucket is a function of
    # the side's doc), so an in-bucket drop_duplicates there is exact —
    # one fewer all-to-all, and the duplicate factor is bounded by the
    # band count (8). Materialized (size-pinned) because both
    # pair inputs of the attach pass read it.
    return coalesce_blocks(raw_pairs)


def cross_minhash_dedup(sf_dir: str, threshold: float = 0.3):
    """Fuzzy cross-corpus dedup — drop crawl-increment documents that
    NEAR-duplicate anything already in the snapshot (the MinHash
    analogue of :func:`incremental_dedup`'s exact-fingerprint rule;
    reference precedent for deduping an increment against the prior
    index: ``MDXReduplicatingReducer.java:72-153``). Snapshot = even
    doc_ids, delta = odd (the same split rule as incremental_dedup, so
    side is a pure function of doc_id and never needs carrying through
    an exchange).

    Chain: the shared candidate stage (:func:`_lsh_candidate_pairs`
    with ``cross_parity``, so only snapshot×delta pairs survive the
    in-bucket merge — within-side duplicates are a different op's job)
    → the shared exact-Jaccard tag-join verify → one per-batch partial
    + one bucketed fold collapsing verified matches per delta doc.
    Every exchange is candidate-bounded; the corpus text streams
    through the verify's pass A once.

    Columns: delta_id (the increment doc to drop), n_matches (verified
    snapshot near-dups), best_match (min matching snapshot doc_id).
    SQL-oracle-checked (the full splitmix64/UHUGEINT minhash mirror
    with the parity join filter)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"]).materialize()
    pairs = _lsh_candidate_pairs(ds, cross_parity=True)
    verified = _attach_verify_jaccard(ds, pairs, threshold)

    def match_partials(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return typed_empty(delta_id="int64", n="int64", snap_min="int64")
        a = df["doc_a"].to_numpy(dtype="int64")
        b = df["doc_b"].to_numpy(dtype="int64")
        a_odd = (a % 2) == 1
        delta = np.where(a_odd, a, b)
        snap = np.where(a_odd, b, a)
        part = (
            pd.DataFrame({"delta_id": delta, "snap": snap})
            .groupby("delta_id", sort=False)["snap"]
            .agg(["count", "min"])
            .reset_index()
        )
        return pd.DataFrame(
            {
                "delta_id": part["delta_id"].astype("int64"),
                "n": part["count"].astype("int64"),
                "snap_min": part["min"].astype("int64"),
            }
        )

    def fold_matches(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("delta_id", sort=False).agg(
            n_matches=("n", "sum"), best_match=("snap_min", "min")
        )
        return pd.DataFrame(
            {
                "delta_id": g.index.to_numpy().astype("int64"),
                "n_matches": g["n_matches"].to_numpy().astype("int64"),
                "best_match": g["best_match"].to_numpy().astype("int64"),
            }
        )

    return keyed_fold(
        verified, fold_matches, "delta_id", rows=match_partials,
        empty=dict(delta_id="int64", n_matches="int64", best_match="int64"),
    )


def _pair_key(df: pd.DataFrame) -> pd.Series:
    """Bucket key of a candidate pair: both sides of (doc_a, doc_b) meet."""
    return df["doc_a"] * 1_000_003 + df["doc_b"]


def _pair_by(col: str):
    """Partial keying a candidate pair by one of its docs: (key, doc_a,
    doc_b) with ``key`` = ``col``."""

    def pair_by_doc(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[["doc_a", "doc_b"]].astype("int64")
        return ids.assign(key=ids[col])[["key", "doc_a", "doc_b"]]

    return pair_by_doc


def _attach_sides(col: str):
    """Attach fold of (values, pairs by doc_a, pairs by doc_b): each
    distinct (pair, side) row gets the ``col`` value of its doc, with
    side 1 for doc_a's and side 2 for doc_b's."""

    def attach_in_bucket(values, by_a, by_b: pd.DataFrame) -> pd.DataFrame:
        # exact pair dedup lives here: all copies of a (pair, side) row
        # share this bucket (a function of the side's doc)
        sides = pd.concat([by_a.assign(side=1), by_b.assign(side=2)], ignore_index=True)
        sides = sides[["key", "doc_a", "doc_b", "side"]].drop_duplicates()
        m = sides.merge(values[["key", col]], on="key", how="inner")
        return m[["doc_a", "doc_b", "side", col]].copy()

    return attach_in_bucket


def _both_sides(df: pd.DataFrame, col: str) -> pd.DataFrame:
    """Each pair of an attach fold's output (:func:`_attach_sides`) once,
    with both docs' ``col`` values: ``col``_a (side 1), ``col``_b (side 2)."""
    a, b = (
        df[df["side"] == side][["doc_a", "doc_b", col]].rename(columns={col: f"{col}_{end}"})
        for side, end in ((1, "a"), (2, "b"))
    )
    return a.merge(b, on=["doc_a", "doc_b"])


def _attach_pair_texts(ds, distinct_pairs):
    """Shared tag-join text-attach stage (no driver/corpus
    materialization) — the first half of every candidate-pair verify
    (:func:`_attach_verify_jaccard`'s Jaccard,
    :func:`edit_distance_pairs`' Levenshtein).

    Two bucketed co-group passes replace three hash joins with the SAME
    shuffle discipline: pass A keys corpus texts by bucket(doc_id) and
    each pair SIDE by bucket(its doc) -- the in-bucket merge attaches
    the text to every side referencing a co-located doc (texts of
    unreferenced docs drop there, the semi-join's effect); the verify
    fold that follows keys the result by :func:`_pair_key`, which
    co-locates a pair's two sides (side==1 carries doc_a's text, side==2
    doc_b's). The corpus text streams through pass A once; the output
    ships only candidate-bounded data. Exact (pair, side) dedup happens
    inside the attach bucket — all copies of a rediscovered pair land
    there, so ``distinct_pairs`` may carry duplicates.
    """

    def texts_by_doc(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"key": df["doc_id"].astype("int64"), "text": df["text"]})

    return keyed_fold(
        (ds, distinct_pairs, distinct_pairs), _attach_sides("text"), "key",
        rows=(texts_by_doc, _pair_by("doc_a"), _pair_by("doc_b")),
    )


def _attach_verify_jaccard(ds, distinct_pairs, threshold: float):
    """Tag-join exact-Jaccard verify over :func:`_attach_pair_texts` —
    consumed by ``minhash_lsh_pairs``; ``ngram_jaccard_pairs`` uses the
    same two-pass tag-join SHAPE but attaches precomputed gram-hash
    signatures instead of text (its candidate count makes per-pair
    re-shingling the hot loop)."""

    def verify_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        m = _both_sides(df, "text")
        out = []
        for da, db, ta, tb in zip(m["doc_a"], m["doc_b"], m["text_a"], m["text_b"]):
            sa = _shingles(ta)
            sb = _shingles(tb)
            j = len(sa & sb) / len(sa | sb) if sa | sb else 0.0
            if j >= threshold:
                out.append({"doc_a": int(da), "doc_b": int(db), "jaccard": round(j, 6)})
        return pd.DataFrame(out, columns=["doc_a", "doc_b", "jaccard"])

    return keyed_fold(_attach_pair_texts(ds, distinct_pairs), verify_in_bucket, _pair_key)


def edit_distance_pairs(sf_dir: str):
    """Exact edit-distance verification of LSH candidate pairs — the
    Levenshtein analogue of :func:`minhash_lsh_pairs`' Jaccard verify
    (the fuzzy-match census a dedup triage runs when token-set overlap
    is too coarse: near-identical boilerplate with small in-place edits
    scores high here even when reordering kills Jaccard).

    Candidates come from the SAME shared MinHash+LSH stage
    (:func:`_lsh_candidate_pairs`); texts attach through the shared
    two-pass tag-join (:func:`_attach_pair_texts` — the corpus shuffles
    once, pair data is candidate-bounded); the per-pair kernel is the
    byte-level Levenshtein DP (``functions.fuzzy.levenshtein_bytes``,
    vectorized one DP row at a time over uint8 arrays — UTF-8 BYTE
    edits, matching DuckDB's byte-based ``levenshtein``). Per-pair cost
    is O(|a|·|b|/w) vector ops on candidate-bounded pairs only — the
    corpus itself is never pairwise-compared.

    Columns: doc_a, doc_b, dist (int64 byte edits), sim_ppm (exact
    integer parts-per-million similarity ``(denom − dist)·10⁶ //
    denom`` with ``denom = max(octet_len_a, octet_len_b)``; the
    both-empty pair pins to 1_000_000). A float ``1 − dist/denom``
    would hit REAL decimal ties (denom a power of two ⇒ exact
    ...5×10⁻⁷ values) where numpy banker's and DuckDB half-away-from-
    zero rounding disagree — the integer floor division is engine-exact
    by construction. SQL-oracle-checked: the DuckDB mirror replays the
    full candidate chain and verifies with its native ``levenshtein``."""
    from ..functions.fuzzy import levenshtein_bytes

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"]).materialize()
    pairs = _lsh_candidate_pairs(ds)

    def verify_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        m = _both_sides(df, "text")
        out = []
        for da, db, ta, tb in zip(m["doc_a"], m["doc_b"], m["text_a"], m["text_b"]):
            ba, bb = ta.encode("utf-8"), tb.encode("utf-8")
            dist = levenshtein_bytes(ba, bb)
            denom = max(len(ba), len(bb))
            sim_ppm = (
                1_000_000 if denom == 0 else ((denom - dist) * 1_000_000) // denom
            )
            out.append(
                {
                    "doc_a": int(da),
                    "doc_b": int(db),
                    "dist": dist,
                    "sim_ppm": sim_ppm,
                }
            )
        res = pd.DataFrame(out, columns=["doc_a", "doc_b", "dist", "sim_ppm"])
        return res.astype(
            {"doc_a": "int64", "doc_b": "int64", "dist": "int64", "sim_ppm": "int64"}
        )

    return keyed_fold(_attach_pair_texts(ds, pairs), verify_in_bucket, _pair_key)


def ngram_jaccard_pairs(sf_dir: str, threshold: float = 0.3):
    """Exact n-gram Jaccard near-duplicate pairs via df-ordered prefix
    filtering — EVERY pair with 3-gram Jaccard >= threshold, no LSH
    false negatives; the exact counterpart of ``minhash_lsh_pairs``
    (Bayardo, Ma & Srikant, "Scaling Up All Pairs Similarity Search",
    WWW'07 prefix-filter lemma).

    Chain (each exchange a bucketed grouped pass, cf. module docstring):

    1. distinct md5-hex16 3-gram shingles per doc — zero-shuffle, one
       flattened ``np.unique`` pass per batch, md5 once per unique gram;
    2. global document frequency per gram — ONE pass keyed by
       bucket(gram): the bucket holds every row of a gram, so the
       in-bucket ``transform('size')`` IS the global df;
    3. per-doc prefix selection keyed by bucket(doc): under the total
       order (df asc, gram asc), keep each doc's first
       ``|A| - ceil(t|A|) + 1`` grams. Lemma: for any pair with
       J >= t, the SMALLEST shared gram has rank <= |A| - |A∩B| + 1
       <= |A| - ceil(t|A|) + 1 in both docs, so it lies in both
       prefixes — a self-join on prefix grams is complete;
    4. in-bucket self-merge on prefix grams -> candidate pairs (the
       attach pass dedups rediscovered pairs in-bucket);
    5. signature-based exact-Jaccard verify: per-doc sorted-unique
       uint64 signatures derived from the SAME gram table (no second
       tokenize/md5 pass), attached through the minhash-style tag-join
       shape, one ``np.intersect1d`` per candidate pair.

    100-TB skew note: this never self-joins on hot grams — a stop-gram
    (high df) sorts to the END of every doc's order and falls out of the
    prefix index, so candidate fan-out is governed by the rare-gram df
    distribution, not the stopword one. Threshold arithmetic is exact
    (``Fraction``), so prefix lengths never suffer float-ceil edges.
    Mirrored by a DuckDB oracle that generates candidates from ANY
    shared gram — the lemma guarantees identical qualifying output.
    """
    from fractions import Fraction

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    tf = Fraction(str(threshold))
    num, den = tf.numerator, tf.denominator

    def to_grams(batch: pa.Table) -> pa.Table:
        """(doc_id, gram-hex16) rows, distinct within doc — vectorized:
        one flattened gram list, md5 once per batch-unique gram, per-doc
        dedup via a single np.unique over (doc_index, gram_index) keys."""
        texts = batch["text"].to_pylist()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        grams: list[str] = []
        counts = np.empty(len(texts), dtype=np.int64)
        for j, text in enumerate(texts):
            gl = _gram_list(text)
            grams.extend(gl)
            counts[j] = len(gl)
        uniq, inv = np.unique(np.asarray(grams, dtype=object), return_inverse=True)
        hexes = np.asarray(
            [hashlib.md5(g.encode()).hexdigest()[:16] for g in uniq], dtype=object
        )
        doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
        key = np.unique(doc_idx * np.int64(len(uniq)) + inv)
        return pa.table(
            {
                "doc_id": pa.array(ids[key // len(uniq)], pa.int64()),
                "g": pa.array(hexes[key % len(uniq)], pa.string()),
            }
        )

    def df_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(),
                "g": df["g"].to_numpy(),
                "df": df.groupby("g")["g"].transform("size").to_numpy(),
            }
        )

    def prefix_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["doc_id", "df", "g"], ignore_index=True)
        sz = df.groupby("doc_id")["g"].transform("size").to_numpy()
        rank = df.groupby("doc_id").cumcount().to_numpy()
        # sz - ceil(t*sz) + 1, with ceil(a/b) = -((-a)//b) in exact ints
        keep_len = sz - (-(((-num) * sz) // den)) + 1
        keep = rank < keep_len
        # rank + sz ride along for the PPJoin length/positional filters
        out = df.loc[keep, ["doc_id", "g"]].copy()
        out["pos"] = rank[keep]
        out["sz"] = sz[keep]
        return out

    def pairs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        """Self-merge on prefix grams + the two PPJoin candidate filters
        (Xiao et al., "Efficient Similarity Joins for Near Duplicate
        Detection", WWW'08) — both provably output-preserving:

        * length filter: J >= t needs min(|A|,|B|) >= t*max(|A|,|B|)
          (exact ints: min*den >= max*num);
        * positional filter: every shared gram of a qualifying pair sits
          at rank >= the match's rank in BOTH df-orders, so the overlap
          I <= min(|A|-pa, |B|-pb); J >= t needs
          I >= alpha = ceil(t/(1+t)*(|A|+|B|)). For the pair's SMALLEST
          shared gram (which the prefix lemma puts in both prefixes) the
          bound is tight-enough by construction, so at least one bucket
          keeps every qualifying pair while non-qualifying matches drop
          at generation time instead of riding two more exchanges."""
        m = df.merge(df, on="g")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        sx = m["sz_x"].to_numpy()
        sy = m["sz_y"].to_numpy()
        lo = np.minimum(sx, sy)
        hi = np.maximum(sx, sy)
        alpha = -((-(num * (sx + sy))) // (num + den))
        ub = np.minimum(sx - m["pos_x"].to_numpy(), sy - m["pos_y"].to_numpy())
        m = m[(lo * den >= hi * num) & (ub >= alpha)]
        return pd.DataFrame(
            {"doc_a": m["doc_id_x"].to_numpy(), "doc_b": m["doc_id_y"].to_numpy()}
        ).drop_duplicates(ignore_index=True)

    grams = ds.map_batches(to_grams, batch_format="pyarrow")
    with_df = keyed_fold(grams, df_in_bucket, "g")
    prefixes = keyed_fold(with_df, prefix_in_bucket, "doc_id")
    raw_pairs = keyed_fold(prefixes, pairs_in_bucket, "g")
    distinct_pairs = coalesce_blocks(raw_pairs)

    # ---- signature attach + vectorized verify ---------------------------
    # Unlike the LSH chain (few hundred candidates -> text attach +
    # per-pair re-shingling is fine), the exact chain at a low threshold
    # can carry 10^5-10^6 candidates, so the verify must not re-tokenize
    # or re-hash per PAIR — or at all: each doc's sorted-unique uint64
    # gram-hash SIGNATURE is derived from the gram table the chain has
    # ALREADY built (hex16 == the first 8 md5 bytes, so int(hex, 16)
    # reproduces `_shingles`'s values without a second md5 pass over the
    # corpus), shipped as one binary value through the same two bucketed
    # attach/verify passes, and each pair costs one np.intersect1d over
    # two sorted arrays. np.unique (not just sort) because uniqueness
    # must hold POST-hash — a 64-bit gram collision inside a doc would
    # otherwise violate intersect1d's assume_unique and diverge from the
    # oracle's DISTINCT-on-hash semantics.

    def sigs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id", kind="mergesort", ignore_index=True)
        ids = df["doc_id"].to_numpy()
        h = np.fromiter(
            (int(x, 16) for x in df["g"].to_numpy()),
            dtype=np.uint64,
            count=len(df),
        )
        first = np.flatnonzero(np.diff(ids, prepend=ids[0] - 1))
        bounds = np.append(first, len(ids))
        out_ids = ids[first].astype(np.int64)
        sigs = [
            np.unique(h[s:e2]).tobytes()
            for s, e2 in zip(bounds[:-1], bounds[1:])
        ]
        return pd.DataFrame({"key": out_ids, "sig": pd.Series(sigs, dtype=object)})

    sig_rows = keyed_fold(grams, sigs_in_bucket, "doc_id")

    def verify_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        m = _both_sides(df, "sig")
        out = []
        for da, db, sa, sb in zip(m["doc_a"], m["doc_b"], m["sig_a"], m["sig_b"]):
            xa = np.frombuffer(sa, dtype=np.uint64)
            xb = np.frombuffer(sb, dtype=np.uint64)
            i = np.intersect1d(xa, xb, assume_unique=True).size
            u = xa.size + xb.size - i
            j = i / u if u else 0.0
            if j >= threshold:
                out.append({"doc_a": int(da), "doc_b": int(db), "jaccard": round(j, 6)})
        return pd.DataFrame(out, columns=["doc_a", "doc_b", "jaccard"])

    attached = keyed_fold(
        (sig_rows, distinct_pairs, distinct_pairs), _attach_sides("sig"), "key",
        rows=(None, _pair_by("doc_a"), _pair_by("doc_b")),
    )
    return keyed_fold(attached, verify_in_bucket, _pair_key)


def simhash_batch(texts) -> list[str]:
    """Vectorised 64-bit token-weighted SimHash for a sequence of texts.

    One md5 per UNIQUE token in the batch (tokens repeat heavily across a
    corpus batch), then a single ±1 bit-matrix gather-sum per document —
    no per-token × per-bit Python loop. Bit semantics identical to the
    scalar definition: bit b of the signature is 1 iff
    sum over tokens of (±1 where token-hash bit b) > 0."""
    # batch vocabulary
    tok_lists = [t.split() for t in texts]
    vocab: dict[str, int] = {}
    for toks in tok_lists:
        for t in toks:
            if t not in vocab:
                vocab[t] = len(vocab)
    if vocab:
        h = np.fromiter(
            (
                int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "big")
                for t in vocab
            ),
            dtype=np.uint64,
            count=len(vocab),
        )
        # (n_vocab, 64) ±1 matrix: column b = bit b of the token hash
        bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(
            np.int64
        )
        pm = 2 * bits - 1
    weights = (np.uint64(1) << np.arange(64, dtype=np.uint64))
    out = []
    for toks in tok_lists:
        if not toks:
            out.append(f"{0:016x}")
            continue
        idx = np.fromiter((vocab[t] for t in toks), dtype=np.int64, count=len(toks))
        acc = pm[idx].sum(axis=0)
        sig = int((weights * (acc > 0).astype(np.uint64)).sum(dtype=np.uint64))
        out.append(f"{sig:016x}")
    return out


def simhash_signatures(sf_dir: str):
    """64-bit SimHash per document (token-weighted). Columns: doc_id,
    simhash (16-char hex). Deterministic; SQL-oracle-checked."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def simhash(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": df["doc_id"], "simhash": simhash_batch(df["text"])}
        )

    return ds.map_batches(simhash, batch_format="pandas")


def embedding_neardup_pairs(sf_dir: str, threshold: float = 0.25):
    """Embedding-cosine near-dup pairs, label-bucketed (IVF-style).

    ``groupby(label)`` co-locates each coarse bucket; within-bucket pairwise
    cosine runs as one numpy matmul per group. Cross-bucket near-dups are
    missed by construction (documented approximation — the exact variant is
    an all-pairs O(n^2) shuffle). Columns: vec_a, vec_b, cos (rounded 6)."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        # tiled upper-triangle matmul: peak memory is one B×B tile, not
        # the full n×n similarity matrix — a hot label stays one task
        # (the group must co-locate) but its memory is bounded
        B = 2048
        ids = df["vec_id"].to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        mat = np.stack(df["embedding"].to_numpy()[order]).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        mat = mat / norms[:, None]
        n = len(ids)
        out_a, out_b, out_c = [], [], []
        for i0 in range(0, n, B):
            ai = mat[i0 : i0 + B]
            for j0 in range(i0, n, B):
                sims = ai @ mat[j0 : j0 + B].T
                ia, ib = np.nonzero(sims >= threshold)
                gi, gj = ia + i0, ib + j0
                keep = gi < gj  # upper triangle across tiles
                out_a.append(ids[gi[keep]])
                out_b.append(ids[gj[keep]])
                out_c.append(np.round(sims[ia[keep], ib[keep]], 6))
        return pd.DataFrame(
            {
                "vec_a": np.concatenate(out_a) if out_a else np.array([], np.int64),
                "vec_b": np.concatenate(out_b) if out_b else np.array([], np.int64),
                "cos": np.concatenate(out_c) if out_c else np.array([], np.float64),
            }
        )

    return ds.groupby("label").map_groups(pairs, batch_format="pandas")


def cluster_representatives(clusters_ds, quality_ds):
    """Quality-argmax representative selection per near-dup cluster —
    the fuzzy-dedup keep rule a curation pipeline actually wants (keep
    the BEST document of each duplicate group, not the arbitrary
    min-id): within every cluster from :func:`neardup_clusters`, the
    representative is the doc with the highest ``distinct_ratio``
    (doc_id ascending on ties).

    ``clusters_ds``: (doc_id, cluster_id); ``quality_ds``: (doc_id,
    distinct_ratio). Shape: TWO bucketed grouped passes — attach the
    quality score where doc_id co-locates, then the per-cluster argmax
    where cluster_id co-locates; no broadcast (the cluster set is
    corpus-sized). Columns: doc_id, cluster_id, distinct_ratio, is_rep."""

    def attach(c: pd.DataFrame, q: pd.DataFrame) -> pd.DataFrame:
        c = c[["doc_id", "cluster_id"]].astype("int64")
        q = q[["doc_id", "distinct_ratio"]].astype({"doc_id": "int64", "distinct_ratio": "float64"})
        return c.merge(q, on="doc_id", how="inner")

    def argmax_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(
            ["cluster_id", "distinct_ratio", "doc_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        first = ~d["cluster_id"].duplicated()
        return pd.DataFrame(
            {
                "doc_id": d["doc_id"].to_numpy(),
                "cluster_id": d["cluster_id"].to_numpy(),
                "distinct_ratio": d["distinct_ratio"].to_numpy(),
                "is_rep": first.to_numpy(),
            }
        )

    joined = keyed_fold((clusters_ds, quality_ds), attach, "doc_id")
    return keyed_fold(joined, argmax_in_bucket, "cluster_id")


def neardup_dedup_apply(clusters_ds, docs_ds):
    """APPLY step of MinHash fuzzy dedup — produce the deduplicated
    corpus, not just labels: for every connected component from
    :func:`neardup_clusters`, keep the min-id representative (the
    component's ``cluster_id`` by construction) and emit it with the
    component size and the kept document's content hash, proving the
    corpus surgery end to end (the analogue of
    :func:`exact_substring_dedup_apply` for the fuzzy chain; exact
    dedup's keep rule precedent:
    ``MDXReduplicatingReducer.java:72-153`` exemplar-per-digest).

    ``clusters_ds``: (doc_id, cluster_id); ``docs_ds``: (doc_id, text).
    Shape: one per-batch partial count (cluster sizes combine inside
    ``map_batches``, so the fold exchange carries one row per distinct
    (batch, cluster) not per doc) + one bucketed fold, then one bucketed
    co-group attaching the kept doc's text hash where doc_id co-locates
    — no broadcast (the keep-list is corpus-sized at 100 TB), documents
    shuffle only their md5, never their text. Columns: doc_id,
    n_merged, text_md5. SQL-oracle-checked (recursive-CTE reachability
    over the same materialized pair set + DuckDB ``md5``)."""

    def size_partials(df: pd.DataFrame) -> pd.DataFrame:
        cid = df["cluster_id"].astype("int64")
        g = cid.value_counts().sort_index()
        return pd.DataFrame(
            {"cluster_id": g.index.to_numpy(), "n": g.to_numpy().astype("int64")}
        )

    def fold_sizes(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cluster_id", sort=False)["n"].sum()
        return pd.DataFrame(
            {
                "doc_id": g.index.to_numpy().astype("int64"),
                "n_merged": g.to_numpy().astype("int64"),
            }
        )

    def docs_md5(df: pd.DataFrame) -> pd.DataFrame:
        md5s = [
            hashlib.md5(t.encode("utf-8")).hexdigest() for t in df["text"].tolist()
        ]
        return pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64").to_numpy(), "text_md5": md5s}
        )

    def join_kept(kept: pd.DataFrame, docs: pd.DataFrame) -> pd.DataFrame:
        return kept[["doc_id", "n_merged"]].merge(docs[["doc_id", "text_md5"]], on="doc_id")

    # fold buckets by cluster_id; its output re-buckets by the kept doc_id
    # (== cluster_id, same hash — the exchange key is reused)
    folded = keyed_fold(
        clusters_ds, fold_sizes, "cluster_id", rows=size_partials,
        empty=dict(doc_id="int64", n_merged="int64"),
    )
    return keyed_fold(
        (folded, docs_ds), join_kept, "doc_id", rows=(None, docs_md5),
        empty=dict(doc_id="int64", n_merged="int64", text_md5=str),
    )


def semdedup_keep(sf_dir: str, threshold: float = 0.35):
    """SemDeDup-style embedding dedup keep-list (Abbas et al. 2023,
    reduced to the deterministic min-id rule): within each coarse
    cluster (the ``label`` IVF bucket, as :func:`embedding_neardup_pairs`),
    a vector is DROPPED when any lower-id vector in the same cluster has
    cosine similarity >= ``threshold`` — keeping exactly one canonical
    representative per greedy similarity chain. The published variant
    picks the representative by distance-to-centroid; the min-id rule is
    the deterministic equivalent used here so the kept set is
    reproducible and SQL-mirrorable.

    Scale shape: ``groupby(label)`` co-locates each coarse bucket (ONE
    exchange); within-bucket comparison is the same tiled upper-triangle
    matmul as the pair op — peak memory one B x B tile. Cross-cluster
    near-dups are missed by construction (documented IVF approximation).
    Columns: vec_id, label, n_prior_dups, keep."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])

    def keep_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        B = 2048
        ids = df["vec_id"].to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        label = df["label"].to_numpy()[order]
        mat = np.stack(df["embedding"].to_numpy()[order]).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        mat = mat / norms[:, None]
        n = len(ids)
        n_prior = np.zeros(n, dtype=np.int64)
        for i0 in range(0, n, B):
            ai = mat[i0 : i0 + B]
            for j0 in range(i0, n, B):
                sims = ai @ mat[j0 : j0 + B].T
                ia, ib = np.nonzero(sims >= threshold)
                gi, gj = ia + i0, ib + j0
                hit = gi < gj  # strict upper triangle: prior = lower id
                np.add.at(n_prior, gj[hit], 1)
        return pd.DataFrame(
            {
                "vec_id": ids,
                "label": label,
                "n_prior_dups": n_prior,
                "keep": n_prior == 0,
            }
        )

    return ds.groupby("label").map_groups(keep_in_bucket, batch_format="pandas")


def reduplicate(ds, batch_format: str = "pyarrow"):
    """J3: hash-keyed reduplication — group records by payload digest; the
    first ``response`` (lowest timestamp14, then url — iteration order is
    pinned, where the reference relies on Hadoop value order) is the
    exemplar; each ``revisit`` merges the exemplar's fields under its own
    (its keys win) and becomes record_type=``reduplicated``; unresolved
    revisits pass through. Non-revisit records pass through unchanged.

    Reference: ``MDXReduplicatingReducer.java:72-153``."""

    def fix_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized across EVERY digest in the bucket (per-digest
        # map_groups pays one Python call per distinct content hash —
        # functions/bucketing.py): exemplar = first response per digest by
        # (timestamp14, url); revisit fields keep their own values unless
        # null, where the exemplar's fill in via a digest-keyed map
        df = df.drop(columns=["bucket"]).sort_values(
            ["digest", "timestamp14", "url"], kind="mergesort"
        )
        exemplars = df[df["record_type"] == "response"].drop_duplicates(
            "digest", keep="first"
        ).set_index("digest", drop=False)
        rev = df["record_type"] == "revisit"
        fixable = rev & df["digest"].isin(exemplars.index)
        if not fixable.any():
            return df
        out = df.copy()
        dig = out.loc[fixable, "digest"]
        for col in df.columns:
            vals = out.loc[fixable, col]
            out.loc[fixable, col] = vals.where(vals.notna(), dig.map(exemplars[col]))
        out.loc[fixable, "record_type"] = "reduplicated"
        return out

    return keyed_fold(ds, fix_bucket, "digest")


def neardup_clusters(pairs_ds, nodes_ds, *, max_iters: int = 64, stats: dict | None = None):
    """Connected components over a near-dup pair list: every document gets
    the MINIMUM doc_id reachable through the pair graph (hash-min label
    propagation WITH pointer-doubling shortcutting — the BSP
    connected-components algorithm bounded at O(log n) rounds instead of
    O(component diameter); cf. Kiveris et al., "Connected Components in
    MapReduce and Beyond", SoCC'14, whose star operations this
    shortcut+min round is equivalent to on a parent-pointer forest).

    ``pairs_ds``: Dataset with (doc_a, doc_b); ``nodes_ds``: Dataset with
    (doc_id) covering every node (unpaired docs become singleton
    clusters). The ITERATION touches only edge ENDPOINTS — labels are
    initialised from the distinct sources of the (bidirected) edge list,
    so per-round data is bounded by the LSH-verified pair set, not the
    corpus; nodes in no pair never enter the loop and are attached as
    singleton clusters by ONE final bucketed anti-join pass. Each
    iteration is THREE bucketed grouped passes — (1) pointer doubling:
    label[u] <- label[label[u]] via a co-group of (label[u] -> u)
    requests with (doc_id -> label) rows
    (label values are always doc_ids of the same component, so the lookup
    always resolves); (2) a co-grouped edge⨝label merge (edges keyed by
    bucket(src), labels by bucket(doc_id): same hash, so a vectorized
    in-bucket pandas merge routes the labels); (3) a bucketed grouped min.
    Labels are monotone nonincreasing and always
    ids within the component, so at the ``changed == 0`` fixpoint every
    edge is label-uniform and each component carries its min doc_id.
    A path graph of n nodes converges in O(log n) rounds (each round at
    least doubles the hop radius a label has travelled) — see the
    chain-graph pin in tests/test_operators.py. Columns: doc_id, cluster_id.
    ``stats``, when given, records {"iterations": n} for tests/audits."""
    # every per-iteration exchange is a BUCKETED grouped pass
    # (functions/bucketing.py): Dataset.join spins an aggregator actor
    # pool per call, and a raw-key groupby walks every node in Python —
    # at a few-second iteration cadence both dominate the loop. Instead
    # the edge⨝label routing itself runs as a co-group: edges keyed by
    # bucket(src) and labels by bucket(doc_id) share the hash, so a
    # vectorized in-bucket merge emits the propagated labels.

    def both_dirs(batch: pa.Table) -> pd.DataFrame:
        a = batch["doc_a"].cast(pa.int64())
        b = batch["doc_b"].cast(pa.int64())
        src = pa.concat_arrays([a.combine_chunks(), b.combine_chunks()])
        dst = pa.concat_arrays([b.combine_chunks(), a.combine_chunks()])
        return pd.DataFrame({"key": src.to_numpy(), "dst": dst.to_numpy()})

    # edge rows: (key=src, dst), bucketed by src in each round
    edges = pairs_ds.map_batches(both_dirs, batch_format="pyarrow").materialize()
    # row-aware block pinning: upstream bucketed passes leave the (tiny,
    # candidate-bounded) pair table scattered over dozens of near-empty
    # blocks, and every per-iteration sort would schedule over all of
    # them — size block count to the data (~256k int64 rows per block),
    # never above what the upstream produced
    n_edge_blocks = max(1, min(edges.num_blocks(), -(-edges.count() // 262_144)))
    if n_edge_blocks < edges.num_blocks():
        edges = edges.repartition(n_edge_blocks).materialize()

    def init_labels(df: pd.DataFrame) -> pd.DataFrame:
        # candidate-bounded: only edge endpoints iterate. Local (per-block)
        # distinct is enough — cross-block duplicate (u, u) rows collapse
        # in the first round's grouped min without changing any label.
        u = df["key"].drop_duplicates().to_numpy()
        return pd.DataFrame({"doc_id": u, "label": u})

    labels = edges.map_batches(init_labels, batch_format="pandas").materialize()
    # stable per-iteration block count: unions and bucketed sorts multiply
    # block counts (~2x per round), which compounds across iterations into
    # quadratic sort scheduling — re-pin the label table to the input's
    # block count after every round
    n_label_blocks = max(1, labels.num_blocks())

    def label_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"key": df["doc_id"].astype("int64"), "label": df["label"].astype("int64")}
        )

    def propagate_in_bucket(edg: pd.DataFrame, lab: pd.DataFrame) -> pd.DataFrame:
        msgs = edg[["key", "dst"]].merge(lab[["key", "label"]], on="key", how="inner")
        selfs = pd.DataFrame(
            {"doc_id": lab["key"].to_numpy(), "label": lab["label"].astype("int64").to_numpy(),
             "own": lab["label"].astype("int64").to_numpy()}
        )
        out_msgs = pd.DataFrame(
            {"doc_id": msgs["dst"].to_numpy(), "label": msgs["label"].to_numpy(),
             "own": np.full(len(msgs), -1, dtype="int64")}
        )
        return pd.concat([selfs, out_msgs], ignore_index=True)

    def minmax_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby("doc_id", sort=False)
            .agg(label=("label", "min"), own=("own", "max"))
            .reset_index()
        )
        g["label"] = g["label"].astype("int64")
        g["own"] = g["own"].astype("int64")
        # per-node changed marker: summed (one tiny execution over the
        # already-materialized output) instead of a separate filter+count
        g["chg"] = (g["label"] < g["own"]).astype("int64")
        return g

    # ---- pointer doubling (label[u] <- label[label[u]]) ------------------
    # requests keyed by bucket(label[u]) meet label rows keyed by
    # bucket(doc_id) — same hash — so the in-bucket merge resolves the
    # double hop; label values are always component-member doc_ids, so
    # every request finds its row.

    def requests(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"key": df["label"].astype("int64"), "u": df["doc_id"].astype("int64")}
        )

    def shortcut_in_bucket(req: pd.DataFrame, lab: pd.DataFrame) -> pd.DataFrame:
        lab = lab[["key", "label"]].rename(columns={"label": "lab"})
        m = req[["key", "u"]].merge(lab, on="key", how="left")
        return pd.DataFrame(
            {
                "doc_id": m["u"].to_numpy(),
                # belt-and-braces: a missing row (cannot happen — label
                # values are doc_ids) keeps the single-hop label
                "label": m["lab"].fillna(m["key"]).astype("int64").to_numpy(),
            }
        )

    n_iters = 0
    for it in range(max_iters):
        n_iters = it + 1
        if it == 0:
            doubled = labels  # labels are identity — the shortcut is a no-op
        else:
            doubled = keyed_fold(
                (labels, labels), shortcut_in_bucket, "key", rows=(requests, label_rows)
            )
        routed = keyed_fold(
            (edges, doubled), propagate_in_bucket, "key", rows=(None, label_rows),
        )
        agg = (
            keyed_fold(routed, minmax_in_bucket, "doc_id")
            .repartition(n_label_blocks)
            .materialize()
        )
        changed = agg.sum("chg")
        labels = agg  # tag_* readers use doc_id/label only; no re-materialize
        if not changed:
            break
    if stats is not None:
        stats["iterations"] = n_iters

    # singleton attach: ONE bucketed anti-join of the corpus node list
    # against the (candidate-bounded) edge-endpoint set — unpaired nodes
    # become their own cluster without ever having entered the loop
    def singles_in_bucket(nodes: pd.DataFrame, paired: pd.DataFrame) -> pd.DataFrame:
        ids = nodes["doc_id"].astype("int64")
        # an empty label table may have lost its columns upstream
        ids = ids[~ids.isin(paired.get("doc_id", []))].drop_duplicates().to_numpy()
        return pd.DataFrame({"doc_id": ids, "cluster_id": ids})

    singles = keyed_fold((nodes_ds, labels), singles_in_bucket, "doc_id")
    clusters = labels.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["doc_id"].combine_chunks().cast(pa.int64()),
                "cluster_id": b["label"].combine_chunks().cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    return clusters.union(singles)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit population count (SWAR; numpy<2 lacks
    bitwise_count)."""
    x = x.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    with np.errstate(over="ignore"):
        return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(
            np.int64
        )


_SIMHASH_BANDS = 4  # 4 x 16-bit bands: hamming <= 3 => >= 1 exact band


def simhash_neardup_pairs(sf_dir: str, max_hamming: int = 3):
    """SimHash near-duplicate pairs — the production web-scale near-dup
    path (Charikar/Manku-style: 64-bit signatures, Hamming radius 3): by
    pigeonhole, two signatures within Hamming ``max_hamming`` (< 4) agree
    exactly on at least one of 4 16-bit bands, so banding finds every
    such pair. Columns: doc_a, doc_b, hamming.

    Shape: signatures per batch (the vectorized :func:`simhash_batch`
    kernel), 4 (band-key, doc_id, sig) rows per doc; ONE bucketed
    grouped self-merge verifies Hamming IN-BAND (signatures ride along —
    no text join-back at all); a second bucketed pass dedupes pairs that
    matched in several bands. SQL-oracle-checked (bit_count(xor) mirror
    over the simhash CTE)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def to_bands(df: pd.DataFrame) -> pd.DataFrame:
        sigs = np.array(
            [int(h, 16) for h in simhash_batch(list(df["text"]))],
            dtype=np.uint64,
        )
        ids = df["doc_id"].to_numpy().astype(np.int64)
        keys, out_ids, out_sigs = [], [], []
        for band in range(_SIMHASH_BANDS):
            chunk = (sigs >> np.uint64(16 * band)) & np.uint64(0xFFFF)
            keys.append((np.int64(band) << np.int64(16)) | chunk.astype(np.int64))
            out_ids.append(ids)
            out_sigs.append(sigs)
        return pd.DataFrame(
            {
                "key": np.concatenate(keys),
                "doc_id": np.concatenate(out_ids),
                "sig": np.concatenate(out_sigs),
            }
        )

    def pairs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="key")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        if not len(m):
            return pd.DataFrame(
                {
                    "doc_a": pd.Series([], dtype="int64"),
                    "doc_b": pd.Series([], dtype="int64"),
                    "hamming": pd.Series([], dtype="int64"),
                }
            )
        ham = _popcount64(
            m["sig_x"].to_numpy().astype(np.uint64)
            ^ m["sig_y"].to_numpy().astype(np.uint64)
        )
        keep = ham <= max_hamming
        return pd.DataFrame(
            {
                "doc_a": m["doc_id_x"].to_numpy()[keep],
                "doc_b": m["doc_id_y"].to_numpy()[keep],
                "hamming": ham[keep],
            }
        )

    def distinct_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return df[["doc_a", "doc_b", "hamming"]].drop_duplicates(
            ["doc_a", "doc_b"]
        )

    pairs = keyed_fold(ds, pairs_in_bucket, "key", rows=to_bands)
    return keyed_fold(pairs, distinct_in_bucket, _pair_key)


# ---------------------------------------------------------------------------
# Lee-et-al EXACT substring duplication (character-level, suffix-array
# semantics via the duplicated-L-window lemma)

_ESD_L = 40  # minimum duplicated substring length, in characters


def _window_fingerprints(texts: list[str], L: int):
    """Every ``L``-code-point window of ``texts`` that lies inside one
    text, fingerprinted in bulk: ``(h, h1, row, pos)`` with ``row`` the
    text's index in ``texts`` and ``pos`` the window's code-point offset
    in it.

    The texts are concatenated as UTF-32 code points ``c``; each of the
    four lanes is the multilinear hash ``(k0 + sum k_i * c_i) mod 2**64
    >> 32`` of Lemire & Kaser ("Strongly universal string hashing is
    fast", 2014), strongly universal over equal-length strings, taken
    for every offset of the concatenation at once by ``np.correlate``
    in wrapping ``uint64``. ``h`` packs lanes 0-1, ``h1`` lanes 2-3. The
    windows that span two texts are indexed out."""
    lens = np.fromiter(map(len, texts), np.int64, len(texts))
    n = np.maximum(lens - L + 1, 0)
    row = np.repeat(np.arange(len(texts), dtype=np.int64), n)
    pos = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(np.cumsum(n) - n, n)
    if not len(pos):
        return np.empty(0, np.uint64), np.empty(0, np.uint64), row, pos
    # one key row [k0, k1 .. kL] per lane, sha-derived like _perm_seeds
    keys = np.array(
        [int.from_bytes(hashlib.sha1(f"esd-window-{j}".encode()).digest()[:8], "big") for j in range(4 * (L + 1))],
        dtype=np.uint64,
    ).reshape(4, L + 1)
    cps = np.frombuffer("".join(texts).encode("utf-32-le"), "<u4").astype(np.uint64)
    at = (np.cumsum(lens) - lens)[row] + pos
    shift = np.uint64(32)
    lanes = [(np.correlate(cps, k[1:], "valid")[at] + k[0]) >> shift for k in keys]
    return (lanes[0] << shift) | lanes[1], (lanes[2] << shift) | lanes[3], row, pos


def exact_substring_spans(sf_dir: str, min_len: int = _ESD_L):
    """Character-level EXACT duplicate-substring spans — the suffix-array
    variant of Lee et al., "Deduplicating Training Data Makes Language
    Models Better" (ACL'22): mark every maximal corpus region that is part
    of some substring of length ≥ ``min_len`` occurring at least twice
    anywhere in the corpus (including within the same document). The
    reference implementation builds one corpus-wide suffix array; this
    pipeline computes the IDENTICAL output through the duplicated-window
    lemma: a substring S (|S| ≥ L) is duplicated iff every one of its
    L-char windows is duplicated, so

        union of duplicated substrings of length ≥ L
          == union of duplicated L-char windows,

    and the windows are a plain bucketed exchange — no global index:

    1. map: per batch emit (h, h1, doc_id, pos) for every L-code-point
       window (:func:`_window_fingerprints`: four 32-bit multilinear
       lanes over the batch's code points, computed in numpy for all
       windows at once). Two distinct windows collide with probability
       2^-128 (per pair, for text chosen independently of the fixed
       keys), so equal fingerprints stand for equal windows; the
       exchange ships 16-byte digests, never the L-char text;
    2. bucketed group by ``h``: windows whose (h, h1) occurs ≥ 2 times
       anywhere are duplicated (positions re-keyed by bucket(doc_id));
    3. bucketed per-doc island merge: overlapping/adjacent windows
       (gap ≤ L) fold into maximal spans — numpy gaps-and-islands.

    Positions count code points, as DuckDB's ``substr`` does; the DuckDB
    oracle keeps md5 of each window's text as its key.
    ``dup_span_fraction`` is the token-window approximation of this op;
    this one is exact at character granularity. Columns: doc_id,
    span_start (0-based inclusive), span_end (exclusive)."""
    return _substring_spans(read_table(sf_dir, "documents", columns=["doc_id", "text"]).materialize(), min_len)


def _substring_spans(ds, L: int):
    """:func:`exact_substring_spans` over the materialized corpus ``ds``
    (doc_id, text), which the caller may fold again."""

    def windows(batch: pa.Table) -> pa.Table:
        h, h1, row, pos = _window_fingerprints(batch["text"].to_pylist(), L)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"h": h, "h1": h1, "doc_id": doc_ids[row], "pos": pos})

    def dup_positions(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[df.duplicated(["h", "h1"], keep=False), ["doc_id", "pos"]].copy()

    def merge_islands(df: pd.DataFrame) -> pd.DataFrame:
        doc, pos = df["doc_id"].to_numpy(np.int64), df["pos"].to_numpy(np.int64)
        order = np.lexsort((pos, doc))
        doc, pos = doc[order], pos[order]
        brk = np.ones(len(pos), bool)
        brk[1:] = (doc[1:] != doc[:-1]) | (pos[1:] - pos[:-1] > L)
        first = np.flatnonzero(brk)
        last = np.r_[first[1:], len(pos)] - 1
        return pd.DataFrame({"doc_id": doc[first], "span_start": pos[first], "span_end": pos[last] + L})

    positions = keyed_fold(
        ds, dup_positions, "h", rows=windows, batch_format="pyarrow",
        empty=dict(doc_id="int64", pos="int64"),
    )
    return keyed_fold(
        positions, merge_islands, "doc_id",
        empty=dict(doc_id="int64", span_start="int64", span_end="int64"),
    )


def exact_substring_dedup_apply(sf_dir: str, min_len: int = _ESD_L):
    """APPLY Lee-et-al exact-substring dedup: cut every duplicated span
    (:func:`exact_substring_spans`) out of its document and emit the
    cleaned result — the step the ACL'22 recipe actually trains on
    (the spans job is the analysis half).

    Shape: ONE bucketed co-group of document texts with span rows by
    doc_id (the spans stream is duplication-proportional, so the
    exchange is small on real corpora); inside a
    bucket the cuts are per-doc string surgery over the sorted disjoint
    spans (inherently per-row, bounded by the bucket). Columns: doc_id,
    n_removed, removed_chars, cleaned_len, cleaned_md5 (md5 of the
    concatenated kept segments — the full cleaned text verifiable
    without shipping it). VALUES-oracled vs an independent sequential
    recompute of the whole lemma + surgery."""
    import hashlib as _hl

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"]).materialize()
    spans = _substring_spans(docs, min_len)

    def apply_in_bucket(d: pd.DataFrame, s: pd.DataFrame) -> pd.DataFrame:
        s = s.sort_values(["doc_id", "span_start"], kind="mergesort")
        cuts = {k: list(zip(g["span_start"], g["span_end"]))
                for k, g in s.groupby("doc_id", sort=False)}
        out = {"doc_id": [], "n_removed": [], "removed_chars": [],
               "cleaned_len": [], "cleaned_md5": []}
        for did, text in zip(d["doc_id"], d["text"]):
            sp = cuts.get(did, [])
            kept, pos, removed = [], 0, 0
            for a, b in sp:
                kept.append(text[pos:a])
                removed += b - a
                pos = b
            kept.append(text[pos:])
            cleaned = "".join(kept)
            out["doc_id"].append(did)
            out["n_removed"].append(len(sp))
            out["removed_chars"].append(removed)
            out["cleaned_len"].append(len(cleaned))
            out["cleaned_md5"].append(
                _hl.md5(cleaned.encode("utf-8")).hexdigest()
            )
        r = pd.DataFrame(out)
        r["doc_id"] = r["doc_id"].astype("int64")
        for c in ("n_removed", "removed_chars", "cleaned_len"):
            r[c] = r[c].astype("int64")
        return r

    return keyed_fold(
        (docs, spans), apply_in_bucket, "doc_id",
        empty=dict(doc_id="int64", n_removed="int64", removed_chars="int64",
                   cleaned_len="int64", cleaned_md5=str),
    )


_CONTAIN_MAX_DF = 50  # stop-band: grams held by more docs ship no pairs
_CONTAIN_PPM = 500_000  # containment threshold (of the smaller set)


def containment_pairs(
    sf_dir: str,
    threshold_ppm: int = _CONTAIN_PPM,
    max_df: int = _CONTAIN_MAX_DF,
):
    """Asymmetric containment pairs — quote / excerpt / subset detection
    (Broder's containment, the statistic Jaccard misses when a small doc
    is wholly quoted inside a big one): every doc pair whose shared
    3-gram shingles cover >= threshold of the SMALLER doc's shingle set.

    Pinned universe rule (the winnowing-family stop-band, mirrored by
    the SQL oracle): grams with global document frequency > ``max_df``
    are excluded from the universe entirely — from intersections AND
    from each doc's set size — which bounds per-gram pair fan-out at
    C(max_df, 2) and keeps the statistic exact *within the declared
    universe*. containment_ppm = 10⁶·|A∩B| // min(|A|,|B|), exact ints.

    FOUR bucketed exchanges, each gram/pair-bounded: (1) distinct
    shingles keyed by gram — the bucket holds every row of a gram, so
    the in-bucket size IS the global df (the ngram_jaccard df pass) and
    over-df grams drop here; (2) keyed by doc — per-doc capped set size
    attaches to every row; (3) keyed by gram again — per-gram self-merge
    emits pair partials carrying both sizes; (4) pair fold + the
    containment arithmetic + threshold. Columns: doc_a, doc_b, n_shared,
    containment_ppm. SQL-oracle-checked (df-capped self-join mirror)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def to_grams(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        grams: list[str] = []
        counts = np.empty(len(texts), dtype=np.int64)
        for j, text in enumerate(texts):
            gl = _gram_list(text)
            grams.extend(gl)
            counts[j] = len(gl)
        uniq, inv = np.unique(np.asarray(grams, dtype=object), return_inverse=True)
        hexes = np.asarray(
            [hashlib.md5(g.encode()).hexdigest()[:16] for g in uniq], dtype=object
        )
        doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
        key = np.unique(doc_idx * np.int64(len(uniq)) + inv)
        out = pd.DataFrame(
            {
                "doc_id": ids[key // len(uniq)],
                "g": hexes[key % len(uniq)],
            }
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    def df_cap(df: pd.DataFrame) -> pd.DataFrame:
        keep = df.groupby("g", sort=False)["g"].transform("size") <= max_df
        return df.loc[keep, ["doc_id", "g"]].copy()

    def attach_size(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["doc_id", "g"]].copy()
        out["sz"] = (
            df.groupby("doc_id", sort=False)["g"].transform("size").astype("int64")
        )
        return out

    partial_rows = dict(a="int64", b="int64", sa="int64", sb="int64", n="int64")

    def pair_partials(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="g")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        if not len(m):
            return typed_empty(**partial_rows)
        g = (
            m.groupby(["doc_id_x", "doc_id_y", "sz_x", "sz_y"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pd.DataFrame(
            {
                "a": g["doc_id_x"].astype("int64"),
                "b": g["doc_id_y"].astype("int64"),
                "sa": g["sz_x"].astype("int64"),
                "sb": g["sz_y"].astype("int64"),
                "n": g["n"].astype("int64"),
            }
        )

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(["a", "b", "sa", "sb"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        n = g["n"].to_numpy(dtype="int64")
        mn = np.minimum(
            g["sa"].to_numpy(dtype="int64"), g["sb"].to_numpy(dtype="int64")
        )
        ppm = (1_000_000 * n) // mn
        keep = ppm >= threshold_ppm
        return pd.DataFrame(
            {
                "doc_a": g["a"].to_numpy(dtype="int64")[keep],
                "doc_b": g["b"].to_numpy(dtype="int64")[keep],
                "n_shared": n[keep],
                "containment_ppm": ppm[keep],
            }
        )

    def pair_key(df: pd.DataFrame) -> pd.Series:
        return df["a"] * np.int64(2654435761) + df["b"]

    chain = keyed_fold(
        ds, df_cap, "g", rows=to_grams, batch_format="pyarrow",
        empty=dict(doc_id="int64", g=str),
    )
    sized = keyed_fold(
        chain, attach_size, "doc_id", empty=dict(doc_id="int64", g=str, sz="int64"),
    )
    pairs = keyed_fold(sized, pair_partials, "g", empty=partial_rows)
    return keyed_fold(
        pairs, fold, pair_key,
        empty=dict(doc_a="int64", doc_b="int64", n_shared="int64", containment_ppm="int64"),
    )


def lsh_recall_audit(sf_dir: str, threshold: float = 0.3):
    """Sketch-quality audit: MinHash-LSH's recall/precision against the
    EXACT n-gram Jaccard ground truth on the same corpus — the
    measurement a dedup pipeline owner runs before trusting the LSH
    path at scale (the banding theory predicts recall; this measures
    it). Composes the two existing verified chains:
    :func:`minhash_lsh_pairs` (candidates → exact verify, so its output
    is TRUE POSITIVES of the candidate stage) and
    :func:`ngram_jaccard_pairs` (ALL true pairs).

    Because both chains verify with the same exact hashed-shingle
    Jaccard at the same threshold, LSH pairs ⊆ exact pairs and the
    audit reduces to exact integer counts: ``n_exact``, ``n_lsh``
    (= n_both), and ``recall_ppm = n_lsh·10⁶ // n_exact`` (1_000_000 on
    an empty ground truth — vacuous recall). Everything downstream of
    the two chains is two tiny count folds; no new exchange touches
    corpus text. Columns: n_exact, n_lsh, recall_ppm (one row).
    SQL-oracle-checked by composing both chains' mirrors."""
    lsh_n = minhash_lsh_pairs(sf_dir, threshold).count()
    exact_n = ngram_jaccard_pairs(sf_dir, threshold).count()
    recall = 1_000_000 if exact_n == 0 else (lsh_n * 1_000_000) // exact_n
    return pd.DataFrame(
        {
            "n_exact": pd.Series([exact_n], dtype="int64"),
            "n_lsh": pd.Series([lsh_n], dtype="int64"),
            "recall_ppm": pd.Series([recall], dtype="int64"),
        }
    )
