"""Stats / dataset-generation operators: MDX projection, persist-log
pairing, multi-facet dataset summaries, whole-file digests.

Reference parity targets:

* M39 MDX stats projection — ``warc-hadoop-recordreaders/.../warcstats/
  WARCRawStatsMapper.java:62-198`` (per record -> compact JSON keyed
  ``record_type:hash`` with headers, host, year)
* M40/J4 persist-log build — ``warc-hadoop-crawler-utils/.../recrawl/
  PersistLogMapper.java:65-151`` (response->metadata ordered pairing within
  a WARC file -> SURT-keyed fetch history)
* A2 dataset summaries — ``warc-hadoop-indexer/.../datasets/
  WARCDatasetMapper.java:183-225`` (hosts-per-year, format-per-year facets
  through FrequencyCountingReducer)
* A3 whole-file digest — ``warc-hadoop-recordreaders/.../hash/
  MessageDigestMapper.java:40-135`` (streaming digest per file)
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import IndexConfig, SyntheticConfig
from ..functions.bucketing import (
    coalesce_blocks,
    keyed_fold,
    sum_in_bucket,
    typed_empty,
)
from ..sources.synthetic import fixture_pages_ds
from ..stages.extract import extract_batch

__all__ = [
    "mdx_stats",
    "persist_log",
    "persist_log_docs",
    "dataset_summaries",
    "file_digest",
    "warc_file_hash",
    "host_link_graph",
    "host_pagerank",
    "host_hits",
    "degree_distribution",
    "host_distances",
    "host_reciprocity",
    "host_triangles",
    "cocitation_hosts",
    "kcore_hosts",
    "host_assortativity",
    "anchor_pairs_ds",
    "anchor_text_index",
    "span_stats",
    "media_context",
    "span_dedup",
    "media_dedup",
    "year_host_outlinks",
    "year_suffix_links",
    "heritrix_log_lines",
    "hosts_report",
    "interleaved_pack",
    "span_quality_filter",
    "span_transitions",
    "span_coalesce",
    "media_burst_lengths",
    "media_captions",
    "host_components",
]


def _docs_ds(n_pages: int, scfg: SyntheticConfig | None = None, num_blocks: int = 32):
    scfg = scfg or SyntheticConfig()
    icfg = IndexConfig(response_include=())  # stats keep all statuses
    return fixture_pages_ds(n_pages, scfg, num_blocks).map_batches(
        lambda b: extract_batch(b, icfg), batch_format="pyarrow", batch_size=None
    )


def host_link_graph(n_pages: int = 600, scfg: SyntheticConfig | None = None, docs=None):
    """Host->host link graph: aggregate the extraction chain's per-page
    outlink hosts (M22's ``links_hosts`` field, the Solr ``links_hosts``
    facet the reference feeds from ``HTMLAnalyser.java:180-220``) into
    weighted edges. Per-batch explode + partial count (combiner), ONE
    bucketed grouped sum over (src_host, dst_host)
    (``functions/bucketing.py`` — edge cardinality is host², so a raw-key
    groupby aggregate walks it in Python) — the shuffle moves
    pre-aggregated edge rows, never pages. Columns: src_host, dst_host,
    n_links. SQL-oracle-checked over the materialized docs base."""

    def partial_edges(batch: pa.Table) -> pa.Table:
        df = batch.select(["host", "links_hosts"]).to_pandas()
        ex = (
            df.rename(columns={"host": "src_host"})
            .assign(dst_host=df["links_hosts"])
            .drop(columns=["links_hosts"])
            .explode("dst_host")
            .dropna(subset=["dst_host"])
        )
        g = (
            ex.groupby(["src_host", "dst_host"], sort=False)
            .size()
            .reset_index(name="n_links")
        )
        g["n_links"] = g["n_links"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    base = docs if docs is not None else _docs_ds(n_pages, scfg)
    return keyed_fold(
        base, sum_in_bucket(["src_host", "dst_host"], "n_links"),
        ("src_host", "dst_host"), rows=partial_edges, batch_format="pyarrow",
    )


def anchor_pairs_ds(
    n_pages: int = 600,
    scfg: SyntheticConfig | None = None,
    num_blocks: int = 32,
):
    """(target, text) anchor rows over the synthetic pages base: every
    ``<a href>`` of every 200 text/html page, href resolved against the
    page URL + canonicalised (the extraction chain's link rule, M23-24),
    text whitespace-collapsed (functions/htmlscan.anchor_texts pinned
    assembly). Per-record HTML scan — the honest cost of parsing, same
    shape as the extract chain."""
    from ..functions.htmlscan import anchor_texts
    from ..functions.normalisation import resolve_relative
    from ..sources.synthetic import fixture_pages_ds

    scfg = scfg or SyntheticConfig()

    def pairs(batch: pa.Table) -> pa.Table:
        targets: list[str] = []
        texts: list[str] = []
        for r in batch.select(["url", "status", "mime_served", "payload"]).to_pylist():
            if r["status"] != 200 or not (r["mime_served"] or "").startswith(
                "text/html"
            ):
                continue
            html = r["payload"].decode("utf-8", "replace")
            for href, text in anchor_texts(html):
                try:
                    target = resolve_relative(r["url"], href, normalise=True)
                except Exception:
                    continue
                if not target:
                    continue
                targets.append(target)
                texts.append(text)
        return pa.table(
            {
                "target": pa.array(targets, pa.string()),
                "text": pa.array(texts, pa.string()),
            }
        )

    return fixture_pages_ds(n_pages, scfg, num_blocks).map_batches(
        pairs, batch_format="pyarrow"
    )


def anchor_text_index(
    n_pages: int = 600, scfg: SyntheticConfig | None = None, pairs=None
):
    """Anchor-text aggregation per target URL — the classic web-corpus
    signal (what other pages CALL a page; feeds retrieval corpora and
    title enrichment). Per batch the (target, text) pairs pre-count into
    partials (combiner), then ONE bucketed grouped fold by target
    computes: n_anchors (all references), n_texts (distinct strings),
    top_text/top_n (most frequent string; ties break lexicographically —
    the SQL mirror's row_number() ORDER BY n DESC, text). The shuffle
    moves pre-aggregated (target, text, n) rows, never pages. Columns:
    target, n_anchors, n_texts, top_text, top_n. SQL-oracle-checked over
    the materialized pairs base."""

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            df.groupby(["target", "text"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        c = (
            df.groupby(["target", "text"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        agg = c.groupby("target", sort=False).agg(
            n_anchors=("n", "sum"), n_texts=("text", "size")
        )
        top = (
            c.sort_values(["n", "text"], ascending=[False, True],
                          kind="mergesort")
            .groupby("target", sort=False)
            .head(1)
            .set_index("target")
        )
        out = agg.join(top.rename(columns={"text": "top_text", "n": "top_n"}))
        out = out.reset_index()
        out["n_anchors"] = out["n_anchors"].astype("int64")
        out["n_texts"] = out["n_texts"].astype("int64")
        out["top_n"] = out["top_n"].astype("int64")
        return out[["target", "n_anchors", "n_texts", "top_text", "top_n"]]

    base = pairs if pairs is not None else anchor_pairs_ds(n_pages, scfg)
    return keyed_fold(
        base, fold, "target", rows=partial, batch_format="pyarrow",
        empty=dict(target=str, n_anchors="int64", n_texts="int64",
                   top_text=str, top_n="int64"),
    )


def mdx_stats(n_pages: int = 600, scfg: SyntheticConfig | None = None, docs=None):
    """M39: per-record MDX-style stats projection. Columns: mdx_key
    (record_type:hash), surt, timestamp14, host, crawl_year, content_type,
    status, length, source_file, offset. ``docs`` overrides the fixture
    input (the oracle contract materializes the shared base to parquet)."""

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "mdx_key": pa.array(
                    [
                        f"{rt}:{h or '-'}"
                        for rt, h in zip(
                            batch["record_type"].to_pylist(), batch["hash"].to_pylist()
                        )
                    ],
                    pa.string(),
                ),
                "surt": batch["surt"],
                "timestamp14": batch["wayback_date"],
                "host": batch["host"],
                "crawl_year": batch["crawl_year"],
                "content_type": batch["content_type"],
                "status": batch["status"],
                "length": batch["content_length"],
                "source_file": batch["source_file"],
                "offset": batch["source_offset"],
            }
        )

    base = docs if docs is not None else _docs_ds(n_pages, scfg)
    return base.map_batches(project, batch_format="pyarrow")


def persist_log_docs(n_pages: int = 600, scfg: SyntheticConfig | None = None):
    """The persist-log fixture input: extracted docs (response/revisit/
    metadata kept) where every 5th response is followed by a metadata
    record in the same file at offset+1 (the Heritrix WARC convention,
    PersistLogMapper.java:86-97)."""
    import ray.data as rd

    from ..functions.hashing import stable_hash64
    from ..schema import PAGES_SCHEMA
    from ..sources.synthetic import fixture_pages_for_ids

    scfg = scfg or SyntheticConfig()
    icfg = IndexConfig(
        response_include=(), record_type_include=("response", "revisit", "metadata")
    )

    def gen(batch: pa.Table) -> pa.Table:
        rows = []
        for r in fixture_pages_for_ids(batch["id"].to_pylist(), scfg):
            if r["record_type"] == "metadata":
                continue  # standalone metadata never occurs in a WARC
            rows.append(r)
            if (
                r["record_type"] == "response"
                and stable_hash64(r["url"], 5) % 5 == 0
            ):
                meta = dict(r)
                meta["record_type"] = "metadata"
                meta["source_offset"] = r["source_offset"] + 1
                meta["payload"] = b"outlinks: ..."
                rows.append(meta)
        return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)

    return (
        rd.range(n_pages, override_num_blocks=16)
        .map_batches(gen, batch_format="pyarrow", batch_size=None)
        .map_batches(
            lambda b: extract_batch(b, icfg), batch_format="pyarrow", batch_size=None
        )
    )


def persist_log(n_pages: int = 600, scfg: SyntheticConfig | None = None, docs=None):
    """M40/J4: SURT-keyed fetch history — within each source file, records
    sorted by offset; each ``metadata`` record merges onto the immediately
    preceding ``response`` record for the same URL (Heritrix sequence
    convention). Columns: surt, status, digest, timestamp14, length,
    source_file, has_metadata. ``docs`` overrides the fixture input."""
    import numpy as np

    def pair(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized pairing: each metadata offset attaches to the latest
        # preceding response/revisit offset (searchsorted, no row loop).
        # Records sharing an offset (a revisit and its response) order by
        # (wayback_date, record_type), the oracle's tie-break — block
        # order after the shuffle is arbitrary
        df = df.sort_values(
            ["source_offset", "wayback_date", "record_type"], kind="mergesort"
        )
        resp = df[df["record_type"].isin(("response", "revisit"))]
        meta_off = df.loc[
            df["record_type"] == "metadata", "source_offset"
        ].to_numpy()
        r_off = resp["source_offset"].to_numpy()
        has = np.zeros(len(resp), dtype=bool)
        if len(meta_off) and len(r_off):
            idx = np.searchsorted(r_off, meta_off, side="right") - 1
            has[idx[idx >= 0]] = True
        return pd.DataFrame(
            {
                "surt": resp["surt"].to_numpy(),
                "status": resp["status"].to_numpy(),
                "digest": resp["hash"].to_numpy(),
                "timestamp14": resp["wayback_date"].to_numpy(),
                "length": resp["content_length"].to_numpy(),
                "source_file": resp["source_file"].to_numpy(),
                "has_metadata": has,
            }
        )

    # pairing is ordered WITHIN a source file: group by file (J4's
    # within-partition ordered merge)
    if docs is None:
        docs = persist_log_docs(n_pages, scfg)
    return docs.groupby("source_file").map_groups(pair, batch_format="pandas")


def dataset_summaries(n_pages: int = 600, scfg: SyntheticConfig | None = None, docs=None):
    """A2: multi-facet frequency counts in one pass — (facet, year, value,
    count) rows for facets host / content_type_norm. Partial-aggregated
    inside map_batches (combiner), then ONE bucketed grouped sum
    (``functions/bucketing.py`` — the host facet's value column has
    host-cardinality, so a raw-key groupby aggregate walks it in
    Python)."""

    def partials(batch: pa.Table) -> pa.Table:
        df = batch.select(["host", "crawl_year", "content_type_norm"]).to_pandas()
        frames = []
        for facet, col in (("host", "host"), ("format", "content_type_norm")):
            g = (
                df.groupby(["crawl_year", col], sort=False, dropna=False)
                .size()
                .reset_index(name="count")
            )
            g.columns = ["year", "value", "count"]
            g.insert(0, "facet", facet)
            frames.append(g)
        out = pd.concat(frames, ignore_index=True)
        out["value"] = out["value"].fillna("")
        return pa.Table.from_pandas(out, preserve_index=False)

    key = ["facet", "year", "value"]
    base = docs if docs is not None else _docs_ds(n_pages, scfg)
    return keyed_fold(
        base, sum_in_bucket(key, "count"), tuple(key),
        rows=partials, batch_format="pyarrow",
    )


def file_digest(paths: list[str]):
    """A3: whole-file SHA-1 + byte count per input file (streaming read;
    one task per file). Columns: path, sha1, bytes."""
    import ray.data as rd

    ds = rd.read_binary_files(paths, include_paths=True)

    def digest(batch: pa.Table) -> pa.Table:
        paths_, shas, sizes = [], [], []
        for p, b in zip(batch["path"].to_pylist(), batch["bytes"].to_pylist()):
            paths_.append(p.rsplit("/", 1)[-1])
            shas.append(hashlib.sha1(b).hexdigest())
            sizes.append(len(b))
        return pa.table(
            {
                "path": pa.array(paths_, pa.string()),
                "sha1": pa.array(shas, pa.string()),
                "bytes": pa.array(sizes, pa.int64()),
            }
        )

    return ds.map_batches(digest, batch_format="pyarrow")


def warc_file_hash(paths: list[str], algorithm: str = "sha512", chunk: int = 8 << 20):
    """HdfsFileHasher: whole-file message digest per archive file
    (MessageDigestMapper.java:103-128 — SHA-512 default, MD5 via flag;
    output line ``<hex> <bytes> <path>`` keyed by path). One file per
    task; the digest is fed in bounded ``chunk``-byte reads so a
    100 GB archive never materializes in worker memory (the reference
    streams per-HDFS-block for the same reason).

    Columns: path, hex, bytes, line."""
    import ray

    items = [
        {"path": os.path.abspath(p) if "://" not in p else p} for p in paths
    ]
    ds = ray.data.from_items(items, override_num_blocks=len(items))

    def digest(batch: pa.Table) -> pa.Table:
        from pyarrow import fs as pafs

        names, hexes, sizes, lines = [], [], [], []
        for path in batch["path"].to_pylist():
            filesystem, fs_path = pafs.FileSystem.from_uri(path)
            md = hashlib.new(algorithm)
            n = 0
            with filesystem.open_input_stream(fs_path, compression=None) as fh:
                while True:
                    buf = fh.read(chunk)
                    if not buf:
                        break
                    md.update(buf)
                    n += len(buf)
            hx = md.hexdigest()
            names.append(fs_path)
            hexes.append(hx)
            sizes.append(n)
            lines.append(f"{hx} {n} {fs_path}")
        return pa.table(
            {
                "path": pa.array(names, pa.string()),
                "hex": pa.array(hexes, pa.string()),
                "bytes": pa.array(sizes, pa.int64()),
                "line": pa.array(lines, pa.string()),
            }
        )

    return ds.map_batches(digest, batch_format="pyarrow")


_PR_D = 0.85
_PR_ITERS = 5


def host_pagerank(
    n_pages: int = 600,
    scfg: SyntheticConfig | None = None,
    docs=None,
    n_iters: int = _PR_ITERS,
):
    """PageRank over the host→host link graph — the crawl-priority signal
    a frontier scheduler ranks hosts by (the reference exposes the raw
    ``links_hosts`` facet and leaves ranking to Solr; this makes the
    iterative computation a first-class distributed op).

    Variant: rank = (1-d)/N + d·Σ_in rank(src)·w/outdeg(src), fixed
    ``n_iters`` iterations, no dangling-mass redistribution (leaked mass
    is a defined property of this variant, mirrored exactly by the
    recursive-CTE oracle).

    Scale shape: ranks and edges BOTH stay distributed datasets; each
    iteration is two bucketed grouped passes (ranks⋈edges by src →
    contributions; contributions ∪ node keep-alives by dst → new ranks)
    and a materialize so lineage doesn't recompute the whole history.
    The driver holds two scalars (N, iteration counter), never a rank
    vector. Columns: host, rank_r (round 8). SQL-oracle-checked via a
    DuckDB recursive CTE over the same materialized link base."""
    edges_raw = host_link_graph(n_pages, scfg, docs=docs)

    # one-time prep: attach outdeg share to every edge (bucketed by src)
    def frac_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        deg = df.groupby("src_host", sort=False)["n_links"].transform("sum")
        return pd.DataFrame(
            {
                "host": df["src_host"],
                "dst": df["dst_host"],
                "frac": df["n_links"].astype("float64") / deg.astype("float64"),
            }
        )

    # edges keyed by source host; size-pinned: the host-level edge list is ~corpus-independent narrow
    # data scattered over the upstream pass's block count — every
    # per-iteration sort would pay scheduling per near-empty block
    edges = coalesce_blocks(keyed_fold(edges_raw, frac_in_bucket, "src_host"))

    def to_nodes(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.unique(pd.concat([df["host"], df["dst"]], ignore_index=True))
        return pd.DataFrame({"host": pd.Series(h, dtype=str)})

    def dedup_nodes(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates("host")

    nodes = coalesce_blocks(keyed_fold(edges, dedup_nodes, "host", rows=to_nodes))
    n_nodes = nodes.count()
    base_rank = (1.0 - _PR_D) / n_nodes

    def init_ranks(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "host": df["host"],
                "rank": np.full(len(df), 1.0 / n_nodes, dtype="float64"),
            }
        )

    ranks = nodes.map_batches(init_ranks, batch_format="pandas").materialize()
    n_rank_blocks = max(1, ranks.num_blocks())

    def contrib_in_bucket(r: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
        m = e[["host", "dst", "frac"]].merge(r[["host", "rank"]], on="host", how="inner")
        return pd.DataFrame(
            {
                "host": m["dst"],
                "c": _PR_D * m["rank"].to_numpy() * m["frac"].to_numpy(),
            }
        )

    def fold_in_bucket(contrib: pd.DataFrame, nodes: pd.DataFrame) -> pd.DataFrame:
        # every node gets a rank: nodes add a zero contribution each
        zeros = nodes[["host"]].assign(c=0.0)
        df = pd.concat([contrib[["host", "c"]], zeros], ignore_index=True)
        g = df.groupby("host", sort=False)["c"].sum().reset_index()
        return pd.DataFrame(
            {"host": g["host"], "rank": base_rank + g["c"].to_numpy()}
        )

    for _ in range(n_iters):
        contrib = keyed_fold((ranks, edges), contrib_in_bucket, "host")
        ranks = (
            keyed_fold((contrib, nodes), fold_in_bucket, "host")
            # re-pin the rank table's block count every round: the
            # bucketed pass would otherwise multiply blocks per iteration
            # (quadratic sort scheduling by round 4-5)
            .repartition(n_rank_blocks)
            .materialize()
        )

    def round_out(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"host": df["host"], "rank_r": np.round(df["rank"].to_numpy(), 8)}
        )

    return ranks.map_batches(round_out, batch_format="pandas")


def span_stats(docs):
    """Per-document interleaved-span statistics over the nested
    ``spans: list<struct<kind, text, media_ref, offset>>`` column (the
    BASELINE input_hint shape): span counts by kind, total text payload,
    media-reference count, and the media fraction — the shape-audit a
    multimodal training pipeline runs before deciding batch sizes.

    Fully batch-local (zero shuffle): one vectorized pyarrow pass per
    batch — list_flatten + list_parent_indices, no per-row Python.
    Columns: doc_id, n_spans, n_text, n_media, text_chars,
    media_fraction (exact double division). SQL-oracle-checked over the
    materialized spans base."""
    import pyarrow.compute as pc

    def stats(batch: pa.Table) -> pa.Table:
        spans = batch["spans"].combine_chunks()
        n = batch.num_rows
        lengths = pc.list_value_length(spans).fill_null(0).to_numpy().astype("int64")
        flat = pc.list_flatten(spans)
        parents = pc.list_parent_indices(spans).to_numpy().astype("int64")
        kinds = flat.field("kind").to_numpy(zero_copy_only=False)
        texts = pc.coalesce(flat.field("text"), pa.scalar("")).to_numpy(
            zero_copy_only=False
        )
        media = pc.coalesce(flat.field("media_ref"), pa.scalar("")).to_numpy(
            zero_copy_only=False
        )
        is_text = kinds == "text"
        is_media = kinds == "media"
        has_ref = media != ""
        n_text = np.zeros(n, dtype="int64")
        n_media = np.zeros(n, dtype="int64")
        n_refs = np.zeros(n, dtype="int64")
        chars = np.zeros(n, dtype="int64")
        np.add.at(n_text, parents[is_text], 1)
        np.add.at(n_media, parents[is_media], 1)
        np.add.at(n_refs, parents[has_ref], 1)
        tlen = np.fromiter((len(t) for t in texts), dtype="int64", count=len(texts))
        np.add.at(chars, parents, tlen * is_text)
        safe = np.where(lengths > 0, lengths, 1)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_spans": pa.array(lengths),
                "n_text": pa.array(n_text),
                "n_media": pa.array(n_media),
                "n_media_refs": pa.array(n_refs),
                "text_chars": pa.array(chars),
                "media_fraction": pa.array(
                    np.where(lengths > 0, n_media / safe, 0.0)
                ),
            }
        )

    return docs.map_batches(stats, batch_format="pyarrow")


def media_context(docs):
    """Nearest-text context per MEDIA span over the interleaved
    ``spans: list<struct<kind, text, media_ref, offset>>`` column — the
    image–text pairing step an interleaved multimodal corpus runs to
    derive (media, caption-candidate) training pairs (the MMC4/OBELICS
    context-window shape, reduced to the deterministic nearest-span
    rule).

    Per media span: ``prev_text`` = text of the nearest PRECEDING text
    span in the same document ('' if none), ``next_text`` = nearest
    FOLLOWING. Fully batch-local (zero shuffle): one ``list_flatten``
    pass, then two segmented forward/backward fills done with
    ``np.maximum.accumulate`` over flat span positions — no per-span
    Python. Columns: doc_id, span_idx (1-based within doc), media_ref,
    offset, prev_text, next_text. SQL-oracle-checked via DuckDB
    IGNORE-NULLS window functions over the same spans base."""
    import pyarrow.compute as pc

    def contexts(batch: pa.Table) -> pa.Table:
        spans = batch["spans"].combine_chunks()
        lengths = pc.list_value_length(spans).fill_null(0).to_numpy().astype("int64")
        n_flat = int(lengths.sum())
        empty = pa.table(
            {
                "doc_id": pa.array([], batch.schema.field("doc_id").type),
                "span_idx": pa.array([], pa.int64()),
                "media_ref": pa.array([], pa.string()),
                "offset": pa.array([], pa.int64()),
                "prev_text": pa.array([], pa.string()),
                "next_text": pa.array([], pa.string()),
            }
        )
        if n_flat == 0:
            return empty
        flat = pc.list_flatten(spans)
        parents = pc.list_parent_indices(spans).to_numpy().astype("int64")
        kinds = flat.field("kind").to_numpy(zero_copy_only=False)
        texts = pc.coalesce(flat.field("text"), pa.scalar("")).to_numpy(
            zero_copy_only=False
        )
        is_text = kinds == "text"
        is_media = kinds == "media"
        if not is_media.any():
            return empty
        pos = np.arange(n_flat, dtype="int64")
        # segmented forward fill: last text position at-or-before i; a
        # cross-document carry is rejected by the parent check (span
        # positions are contiguous per doc in flattened order)
        last_txt = np.maximum.accumulate(np.where(is_text, pos, -1))
        prev_ok = (last_txt >= 0) & (
            parents[np.maximum(last_txt, 0)] == parents
        )
        # segmented backward fill: nearest text position after i is the
        # MINIMUM text position in the suffix (reversed min-accumulate)
        rev = np.minimum.accumulate(
            np.where(is_text[::-1], pos[::-1], n_flat)
        )[::-1]
        next_ok = (rev < n_flat) & (
            parents[np.minimum(rev, n_flat - 1)] == parents
        )
        # doc-local 1-based span index
        starts = np.zeros(n_flat, dtype="int64")
        doc_first = np.flatnonzero(np.diff(parents, prepend=parents[0] - 1))
        starts[doc_first] = pos[doc_first]
        starts = np.maximum.accumulate(starts)
        span_idx = pos - starts + 1

        m = is_media
        prev_texts = np.where(prev_ok, texts[np.maximum(last_txt, 0)], "")
        next_texts = np.where(next_ok, texts[np.minimum(rev, n_flat - 1)], "")
        doc_ids = batch["doc_id"].combine_chunks().take(
            pa.array(parents[m])
        )
        media = pc.coalesce(flat.field("media_ref"), pa.scalar(""))
        offs = flat.field("offset").cast(pa.int64())
        sel = pa.array(np.flatnonzero(m))
        return pa.table(
            {
                "doc_id": doc_ids,
                "span_idx": pa.array(span_idx[m]),
                "media_ref": media.take(sel),
                "offset": offs.take(sel),
                "prev_text": pa.array(prev_texts[m], pa.string()),
                "next_text": pa.array(next_texts[m], pa.string()),
            }
        )

    return docs.map_batches(contexts, batch_format="pyarrow")


def span_dedup(docs):
    """C4-style exact dedup at TEXT-SPAN granularity over interleaved
    documents (Raffel et al. dedupe repeated three-sentence spans; the
    deduplication unit here is the text span of the interleaved
    ``spans`` column): every occurrence of an identical span text keeps
    only its FIRST appearance in (doc_id, span_idx) order — the repeated
    boilerplate paragraphs of a templated crawl drop everywhere else.

    Shape: one vectorized flatten pass emits (md5(text), doc_id,
    span_idx) rows — md5 computed once per UNIQUE span text per batch —
    then ONE bucketed grouped pass where all occurrences of a hash
    co-locate and the (doc_id, span_idx) min marks the keeper. Only
    span-identity rows ride the exchange, never the span text. Columns:
    doc_id, span_idx (1-based), h, keep. SQL-oracle-checked."""
    import pyarrow.compute as pc

    def span_hashes(batch: pa.Table) -> pd.DataFrame:
        spans = batch["spans"].combine_chunks()
        lengths = pc.list_value_length(spans).fill_null(0).to_numpy().astype("int64")
        empty = pd.DataFrame(
            {
                "h": pd.Series([], dtype=str),
                "doc_id": pd.Series([], dtype=str),
                "span_idx": pd.Series([], dtype="int64"),
            }
        )
        if not lengths.sum():
            return empty
        flat = pc.list_flatten(spans)
        parents = pc.list_parent_indices(spans).to_numpy().astype("int64")
        kinds = flat.field("kind").to_numpy(zero_copy_only=False)
        texts = pc.coalesce(flat.field("text"), pa.scalar("")).to_numpy(
            zero_copy_only=False
        )
        pos = np.arange(len(parents), dtype="int64")
        starts = np.zeros(len(parents), dtype="int64")
        doc_first = np.flatnonzero(np.diff(parents, prepend=parents[0] - 1))
        starts[doc_first] = pos[doc_first]
        starts = np.maximum.accumulate(starts)
        span_idx = pos - starts + 1
        m = kinds == "text"
        if not m.any():
            return empty
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)[parents[m]]
        t = texts[m]
        uniq, inv = np.unique(t, return_inverse=True)
        md5 = hashlib.md5
        uniq_h = np.asarray(
            [md5(x.encode("utf-8")).hexdigest() for x in uniq], dtype=object
        )
        h = pd.Series(uniq_h[inv], dtype=str)
        return pd.DataFrame(
            {
                "h": h,
                "doc_id": pd.Series(doc_ids, dtype=str),
                "span_idx": span_idx[m],
            }
        )

    def first_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["h", "doc_id", "span_idx"], kind="mergesort")
        keep = ~d["h"].duplicated()
        return pd.DataFrame(
            {
                "doc_id": d["doc_id"].to_numpy(),
                "span_idx": d["span_idx"].to_numpy(),
                "h": d["h"].to_numpy(),
                "keep": keep.to_numpy(),
            }
        )

    return keyed_fold(
        docs, first_in_bucket, "h", rows=span_hashes, batch_format="pyarrow"
    )


def media_dedup(docs):
    """Exact MEDIA dedup over interleaved documents — the media-side
    twin of :func:`span_dedup`: a crawl's images are dominated by
    repeated assets (logos, icons, tracking pixels), so every media span
    (kind ``image`` / ``media``) keeps only the FIRST occurrence of its
    ``media_ref`` content handle in (doc_id, span_idx) order (at real
    scale the handle is the payload digest — the synthetic corpus keys
    media by ref; ``link`` spans also carry refs but are link targets,
    not content, and are excluded).

    Shape: same vectorized flatten + ONE bucketed grouped pass as
    span_dedup, keyed on the ref itself (already a compact handle — no
    hashing pass needed). Only (ref, doc_id, span_idx) rows ride the
    exchange. Columns: doc_id, span_idx (1-based), media_ref, keep.
    SQL-oracle-checked."""
    import pyarrow.compute as pc

    def media_rows(batch: pa.Table) -> pd.DataFrame:
        spans = batch["spans"].combine_chunks()
        lengths = pc.list_value_length(spans).fill_null(0).to_numpy().astype("int64")
        empty = pd.DataFrame(
            {
                "media_ref": pd.Series([], dtype=str),
                "doc_id": pd.Series([], dtype=str),
                "span_idx": pd.Series([], dtype="int64"),
            }
        )
        if not lengths.sum():
            return empty
        flat = pc.list_flatten(spans)
        parents = pc.list_parent_indices(spans).to_numpy().astype("int64")
        kinds = flat.field("kind").to_numpy(zero_copy_only=False)
        refs = pc.coalesce(flat.field("media_ref"), pa.scalar("")).to_numpy(
            zero_copy_only=False
        )
        pos = np.arange(len(parents), dtype="int64")
        starts = np.zeros(len(parents), dtype="int64")
        doc_first = np.flatnonzero(np.diff(parents, prepend=parents[0] - 1))
        starts[doc_first] = pos[doc_first]
        starts = np.maximum.accumulate(starts)
        span_idx = pos - starts + 1
        m = ((kinds == "image") | (kinds == "media")) & (refs != "")
        if not m.any():
            return empty
        r = pd.Series(refs[m], dtype=str)
        return pd.DataFrame(
            {
                "media_ref": r,
                "doc_id": pd.Series(
                    batch["doc_id"].to_numpy(zero_copy_only=False)[parents[m]],
                    dtype=str,
                ),
                "span_idx": span_idx[m],
            }
        )

    def first_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["media_ref", "doc_id", "span_idx"], kind="mergesort")
        keep = ~d["media_ref"].duplicated()
        return pd.DataFrame(
            {
                "doc_id": d["doc_id"].to_numpy(),
                "span_idx": d["span_idx"].to_numpy(),
                "media_ref": d["media_ref"].to_numpy(),
                "keep": keep.to_numpy(),
            }
        )

    return keyed_fold(
        docs, first_in_bucket, "media_ref", rows=media_rows, batch_format="pyarrow",
        empty=dict(doc_id=str, span_idx="int64", media_ref=str, keep="bool"),
    )


def year_host_outlinks(
    n_pages: int = 600, scfg: SyntheticConfig | None = None, docs=None
):
    """Year-keyed host->host outlink frequencies.

    Reference: ``warc-hadoop-indexer/.../outlinks/OutlinkExtractorMapper
    .java:58-85`` — response records with an http(s) URL only, keyed by
    ``(crawl_year, resource_host)``, one value per extracted link host —
    reduced by ``FrequencyCountingReducer.java:44-68`` (count per DISTINCT
    link value under each key). Same combiner discipline as
    :func:`host_link_graph` with the year folded into the key: per-batch
    explode + partial count, ONE bucketed grouped sum. Columns:
    crawl_year, src_host, dst_host, n_links."""

    def partial_edges(batch: pa.Table) -> pa.Table:
        df = batch.select(
            ["record_type", "url", "crawl_year", "host", "links_hosts"]
        ).to_pandas()
        # OutlinkExtractorMapper.java:61-69: responses with http(s) URLs
        df = df[
            (df["record_type"] == "response")
            & df["url"].astype(str).str.startswith("http")
        ]
        ex = (
            df.rename(columns={"host": "src_host"})
            .assign(dst_host=df["links_hosts"])
            [["crawl_year", "src_host", "dst_host"]]
            .explode("dst_host")
            .dropna(subset=["dst_host"])
        )
        g = (
            ex.groupby(["crawl_year", "src_host", "dst_host"], sort=False)
            .size()
            .reset_index(name="n_links")
        )
        g["n_links"] = g["n_links"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    key = ["crawl_year", "src_host", "dst_host"]
    base = docs if docs is not None else _docs_ds(n_pages, scfg)
    return keyed_fold(
        base, sum_in_bucket(key, "n_links"), tuple(key),
        rows=partial_edges, batch_format="pyarrow",
    )


def year_suffix_links(
    n_pages: int = 600, scfg: SyntheticConfig | None = None, docs=None
):
    """Year-keyed public-suffix link pairing — the EntityExtractor job.

    Reference: ``warc-hadoop-indexer/.../entities/EntityMapper.java:60-118``
    — EVERY record (the Tika HTML-type gate is commented out in the
    reference, and unlike OutlinkExtractorMapper there is no
    response/http(s) filter), keyed by crawl year (``WARCIndexer
    .extractYear``; "0000" when the header is empty — never hit here
    because the extraction chain always stamps ``crawl_year``). The
    source value is ``LinkExtractor.extractPublicSuffix(base_url)`` with
    null → ``"null"`` (EntityMapper.java:98-99); the emitted keys are the
    DISTINCT public suffixes of the record's extracted links (a Java
    ``Set`` — EntityMapper.java:100-103 — so a record contributes at most
    ONE pair per dest suffix), nulls skipped (LinkExtractor.java:95-98).
    Charset/parse failures drop the whole record (EntityMapper.java:
    104-113) — upstream here: a page the extraction chain cannot parse
    yields no link hosts, hence no output, the same observable.
    ``FrequencyCountingReducer.java:46-68`` then counts per distinct
    value under each (year, dest) key.

    Shape: per-batch suffix-mapping + per-record dedup + partial count
    (combiner), ONE bucketed grouped sum — link-suffix cardinality is
    years × suffixes², tiny, so only pre-aggregated rows shuffle.
    Columns: crawl_year, dst_suffix, src_suffix, n. SQL-oracle-checked
    (the oracle re-derives the suffix rule in SQL from the same embedded
    PSL subset over the materialized docs base)."""
    from ..functions.suffix import extract_public_suffix_from_host

    def partial_pairs(batch: pa.Table) -> pa.Table:
        df = batch.select(
            ["crawl_year", "host", "links_hosts"]
        ).to_pandas()
        src = df["host"].map(
            lambda h: extract_public_suffix_from_host(h) or "null"
        )
        # record identity = the batch row (each map() call in the
        # reference is one record — byte-identical records each emit
        # their own pairs, and a (source_file, source_offset) key would
        # merge them: revisit+response pairs and duplicate media records
        # share offsets in the docs base)
        ex = pd.DataFrame(
            {
                "rid": np.arange(len(df), dtype=np.int64),
                "crawl_year": df["crawl_year"].to_numpy(),
                "src_suffix": src.to_numpy(),
                "dst_host": df["links_hosts"].to_numpy(),
            }
        ).explode("dst_host")
        ex = ex.dropna(subset=["dst_host"])
        ex["dst_suffix"] = ex["dst_host"].map(extract_public_suffix_from_host)
        ex = ex.dropna(subset=["dst_suffix"])
        # the Java Set: one pair per record per DISTINCT dest suffix
        ex = ex.drop_duplicates(subset=["rid", "dst_suffix"])
        g = (
            ex.groupby(["crawl_year", "dst_suffix", "src_suffix"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    key = ["crawl_year", "dst_suffix", "src_suffix"]
    base = docs if docs is not None else _docs_ds(n_pages, scfg)
    return keyed_fold(
        base, sum_in_bucket(key, "n"), tuple(key),
        rows=partial_pairs, batch_format="pyarrow",
    )


def heritrix_log_lines(
    n_pages: int = 600, scfg: SyntheticConfig | None = None, docs=None
):
    """Deterministic Heritrix-style ``crawl.log`` TEXT fixture derived
    from the extraction docs base — the input shape ``HostsReport``
    consumes (LogTimestamp StatusCode Size URI DiscoveryPath Referrer
    MIME ThreadID RequestTimestamp+Duration Digest - Annotations). The
    doc_id drives deterministic variation covering every mapper branch:
    robots fetches (-9998), skipped failure codes, "-" sizes, ``dns:``
    URIs, revisit annotations and malformed (≠12-field) lines (the
    variation key is the integer ``source_offset``). Column:
    line (string)."""

    def to_lines(batch: pa.Table) -> pa.Table:
        df = batch.select(
            [
                "source_offset", "url", "host", "wayback_date", "status",
                "content_length", "content_type_norm", "hash",
            ]
        ).to_pandas()
        d = df["source_offset"].astype("int64")
        status = df["status"].fillna(200).astype(int).astype(str)
        status = status.mask(d % 23 == 0, "-9998").mask(d % 23 == 1, "-5")
        size = df["content_length"].fillna(0).astype(int).astype(str)
        size = size.mask(d % 17 == 3, "-")
        uri = df["url"].astype(str).mask(d % 13 == 4, "dns:" + df["host"].astype(str))
        mime = df["content_type_norm"].fillna("html").astype(str)
        digest = df["hash"].fillna("-").replace("", "-").astype(str)  # already sha1:-prefixed
        notes = pd.Series(np.where(d % 7 == 5, "warcRevists:digest,unwritten", "-"),
                          index=df.index)
        parts = [
            df["wayback_date"].astype(str), status, size, uri,
            pd.Series("LLE", index=df.index), pd.Series("-", index=df.index),
            mime, pd.Series("42", index=df.index),
            pd.Series("20140101000000+123", index=df.index), digest,
            pd.Series("-", index=df.index), notes,
        ]
        line = parts[0].str.cat(parts[1:], sep=" ")
        # malformed lines (11 fields): the mapper must skip them
        short = parts[0].str.cat(parts[1:-1], sep=" ")
        line = line.mask(d % 29 == 6, short)
        return pa.table({"line": pa.array(line.to_numpy(), pa.string())})

    base = docs if docs is not None else _docs_ds(n_pages, scfg)
    return base.map_batches(to_lines, batch_format="pyarrow")


_HOSTS_URI_RE = r"^https?://([^/]+)/.*$"


def hosts_report(lines):
    """Per-host crawl-log rollup over Heritrix ``crawl.log`` text lines.

    Reference: ``warc-hadoop-recordreaders/.../hosts/HostsReportMapper
    .java:41-91`` (12-field whitespace split; drop failure codes except
    -9998; "-" size -> 0; robots = -9998 fetches; dup-by-hash =
    ``warcRevists:digest`` annotations; host from ``dns:`` prefix or the
    ``^https?://([^/]+)/.*$`` URI regex, non-matches dropped) +
    ``HostsReportReducer.java:38-55`` (per-host sums; also the job's
    combiner — mirrored here as per-batch partial sums into ONE bucketed
    grouped sum). Columns: host, n_urls, n_bytes, n_robots, n_dup_urls,
    n_dup_bytes."""

    def partial(batch: pa.Table) -> pa.Table:
        lines_s = batch["line"].to_pandas().astype(str)
        p = lines_s.str.split()
        ok = p.str.len() == 12
        p = p[ok]
        f = pd.DataFrame(
            {
                "status": p.str[1],
                "size": p.str[2],
                "uri": p.str[3],
                "notes": p.str[11],
            }
        )
        f = f[~(f["status"].str.startswith("-") & (f["status"] != "-9998"))]
        host = f["uri"].str.extract(_HOSTS_URI_RE, expand=False)
        host = host.mask(f["uri"].str.startswith("dns:"),
                         f["uri"].str.replace("dns:", "", regex=False))
        f = f.assign(host=host).dropna(subset=["host"])
        nbytes = pd.to_numeric(f["size"].mask(f["size"] == "-", "0")).astype("int64")
        robots = (f["status"] == "-9998").astype("int64")
        dup = f["notes"].str.contains("warcRevists:digest", regex=False).astype("int64")
        g = (
            pd.DataFrame(
                {
                    "host": f["host"],
                    "n_urls": np.ones(len(f), dtype="int64"),
                    "n_bytes": nbytes,
                    "n_robots": robots,
                    "n_dup_urls": dup,
                    "n_dup_bytes": nbytes * dup,
                }
            )
            .groupby("host", sort=False)
            .sum()
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    fold = sum_in_bucket(
        "host", "n_urls", "n_bytes", "n_robots", "n_dup_urls", "n_dup_bytes"
    )
    return keyed_fold(lines, fold, "host", rows=partial, batch_format="pyarrow")


_IPACK_CONTEXT = 512
_IPACK_MEDIA_TOKENS = 64  # fixed vision-token cost per media span


def interleaved_pack(
    docs, context: int = _IPACK_CONTEXT, media_tokens: int = _IPACK_MEDIA_TOKENS
):
    """Token-budget sequence packing over INTERLEAVED text+media span
    documents — the training-data layout step for multimodal corpora
    (the ``spans`` column is this repo's north-rule payload:
    ``list<struct<kind, text, media_ref, offset>>``).

    Per-doc cost = whitespace tokens over its TEXT spans plus a fixed
    ``media_tokens`` charge per media span (the usual constant-budget
    vision-token model). Documents are laid end-to-end in doc_id order
    and sliced into ``context``-token windows — the same GPT-style
    concat-and-chunk layout (and the same TWO-PHASE prefix sum) as
    ``textops.pack_sequences``: range-partition via ``ds.sort``,
    per-block totals -> tiny driver offset merge -> per-block cumsum.
    The driver holds #blocks integers. Span cost extraction is one
    zero-copy ``list_flatten`` + ``np.add.at`` scatter per batch — no
    per-span Python loop beyond tokenising unique text. Columns: doc_id,
    n_text_tokens, n_media_spans, n_tokens, tok_offset, bin_start,
    bin_end. SQL-oracle-checked via DuckDB list lambdas."""
    import pyarrow.compute as pc
    import ray

    def costs(batch: pa.Table) -> pa.Table:
        spans = batch["spans"]
        lengths = pc.list_value_length(spans)
        lengths = pc.fill_null(lengths, 0).to_numpy(zero_copy_only=False)
        n_rows = batch.num_rows
        text_tokens = np.zeros(n_rows, dtype=np.int64)
        n_media = np.zeros(n_rows, dtype=np.int64)
        if lengths.sum():
            flat = pc.list_flatten(spans).combine_chunks()
            kinds = np.asarray(flat.field("kind").to_pylist(), dtype=object)
            texts = flat.field("text").to_pylist()
            parents = np.repeat(np.arange(n_rows), lengths)
            is_text = kinds == "text"
            is_media = kinds == "media"
            tok = np.fromiter(
                (len(t.split()) if t else 0 for t in texts),
                dtype=np.int64,
                count=len(texts),
            )
            np.add.at(text_tokens, parents[is_text], tok[is_text])
            np.add.at(n_media, parents[is_media], 1)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_text_tokens": pa.array(text_tokens),
                "n_media_spans": pa.array(n_media),
                "n_tokens": pa.array(text_tokens + media_tokens * n_media),
            }
        )

    sorted_ds = docs.map_batches(costs, batch_format="pyarrow").sort("doc_id").materialize()
    refs = sorted_ds.to_arrow_refs()

    block_total = ray.remote(
        lambda tbl: int(tbl["n_tokens"].to_pandas().sum()) if tbl.num_rows else 0
    )
    totals = ray.get([block_total.remote(r) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(totals)[:-1]]).astype(np.int64)

    _EMPTY_PACK = pa.table(
        {
            "doc_id": pa.array([], pa.string()),
            "n_text_tokens": pa.array([], pa.int64()),
            "n_media_spans": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "tok_offset": pa.array([], pa.int64()),
            "bin_start": pa.array([], pa.int64()),
            "bin_end": pa.array([], pa.int64()),
        }
    )

    def _pack_block(tbl: pa.Table, base: int) -> pa.Table:
        if tbl.num_rows == 0:  # sort can emit schema-less empty blocks
            return _EMPTY_PACK
        df = tbl.to_pandas()
        n = df["n_tokens"].to_numpy()
        off = base + np.concatenate([[0], np.cumsum(n)[:-1]]).astype(np.int64)
        end = np.where(n > 0, (off + n - 1) // context, off // context)
        return pa.Table.from_pandas(
            pd.DataFrame(
                {
                    "doc_id": df["doc_id"],
                    "n_text_tokens": df["n_text_tokens"].astype("int64"),
                    "n_media_spans": df["n_media_spans"].astype("int64"),
                    "n_tokens": n.astype("int64"),
                    "tok_offset": off,
                    "bin_start": (off // context).astype("int64"),
                    "bin_end": end.astype("int64"),
                }
            ),
            preserve_index=False,
        )

    pack_block = ray.remote(_pack_block)
    out_refs = [pack_block.remote(r, int(o)) for r, o in zip(refs, offsets)]
    import ray.data as rd

    if not out_refs:
        return rd.from_arrow(_EMPTY_PACK)
    return rd.from_arrow_refs(out_refs)


_SQF_MIN_TOKENS = 3


def span_quality_filter(
    docs,
    min_tokens: int = _SQF_MIN_TOKENS,
    media_tokens: int = _IPACK_MEDIA_TOKENS,
):
    """Span-level quality gating with re-indexing over INTERLEAVED
    text+media documents: drop text spans shorter than ``min_tokens``
    whitespace tokens (the stub/fragment filter — boilerplate crumbs,
    alt-text shards), keep every media span, and recompute each
    surviving span's position — ``new_idx`` (0-based among keepers,
    per doc) and ``new_offset`` (exclusive running token cost under the
    same text-tokens + fixed ``media_tokens``-per-media model as
    ``interleaved_pack``) — so the output is directly packable.

    Zero-shuffle: a document's spans are one nested value, so the whole
    op is a single vectorized flatten pass per batch (list_flatten +
    per-doc segmented cumsums via np — no per-span Python). Flat output
    (one row per KEPT span) keeps the oracle hash exact: doc_id,
    span_idx (1-based original), kind, n_tok, new_idx, new_offset.
    SQL-oracle-checked via DuckDB window functions over the same
    materialized spans base."""
    import pyarrow.compute as pc

    def gate(batch: pa.Table) -> pd.DataFrame:
        cols = [
            "doc_id",
            "span_idx",
            "kind",
            "n_tok",
            "new_idx",
            "new_offset",
        ]
        empty = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype=str),
                "span_idx": pd.Series([], dtype="int64"),
                "kind": pd.Series([], dtype=str),
                "n_tok": pd.Series([], dtype="int64"),
                "new_idx": pd.Series([], dtype="int64"),
                "new_offset": pd.Series([], dtype="int64"),
            }
        )[cols]
        spans = batch["spans"].combine_chunks()
        lengths = pc.list_value_length(spans).fill_null(0).to_numpy().astype("int64")
        if not lengths.sum():
            return empty
        flat = pc.list_flatten(spans)
        parents = pc.list_parent_indices(spans).to_numpy().astype("int64")
        kinds = flat.field("kind").to_numpy(zero_copy_only=False)
        texts = pc.coalesce(flat.field("text"), pa.scalar("")).to_numpy(
            zero_copy_only=False
        )
        pos = np.arange(len(parents), dtype="int64")
        starts = np.zeros(len(parents), dtype="int64")
        doc_first = np.flatnonzero(np.diff(parents, prepend=parents[0] - 1))
        starts[doc_first] = pos[doc_first]
        starts = np.maximum.accumulate(starts)
        span_idx = pos - starts + 1  # 1-based original position
        is_media = kinds == "media"
        # token cost: unique-text tokenisation (dup spans split once)
        uniq, inv = np.unique(texts, return_inverse=True)
        uniq_tok = np.asarray([len(t.split()) for t in uniq], dtype="int64")
        cost = np.where(is_media, np.int64(media_tokens), uniq_tok[inv])
        keep = is_media | (cost >= min_tokens)
        if not keep.any():
            return empty
        kp = parents[keep]
        kcost = cost[keep]
        kpos = np.arange(keep.sum(), dtype="int64")
        kstarts = np.zeros(len(kp), dtype="int64")
        kfirst = np.flatnonzero(np.diff(kp, prepend=kp[0] - 1))
        kstarts[kfirst] = kpos[kfirst]
        kstarts = np.maximum.accumulate(kstarts)
        new_idx = kpos - kstarts
        excl = np.cumsum(kcost) - kcost  # exclusive global prefix
        base = np.zeros(len(kp), dtype="int64")
        base[kfirst] = excl[kfirst]
        base = np.maximum.accumulate(base)
        new_offset = excl - base
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)[kp]
        return pd.DataFrame(
            {
                "doc_id": pd.Series(doc_ids, dtype=str),
                "span_idx": span_idx[keep],
                "kind": pd.Series(kinds[keep], dtype=str),
                "n_tok": kcost,
                "new_idx": new_idx,
                "new_offset": new_offset,
            }
        )[cols]

    return docs.map_batches(gate, batch_format="pyarrow")


def _host_id(hosts: pd.Series) -> np.ndarray:
    """60-bit md5 host ids — int64-safe and SQL-mirrorable as
    ``('0x' || substr(md5(host), 1, 15))::UBIGINT``."""
    md5 = hashlib.md5
    return np.fromiter(
        (int(md5(h.encode()).hexdigest()[:15], 16) for h in hosts.to_numpy()),
        dtype=np.int64,
        count=len(hosts),
    )


def host_components(docs):
    """Connected components of the host->host link graph — the domain-
    cluster signal (site families, mirror groups) crawl scoping reads off
    the link structure. REUSES the pointer-doubling O(log n) CC machinery
    (``dedup.neardup_clusters``) unchanged: hosts map to 60-bit md5 ids,
    the distinct (src, dst) link pairs become the edge list, and one
    final bucketed co-group maps component labels back to host names.
    Columns: host, component_id (the component's minimum hashed id —
    deterministic and SQL-mirrorable). SQL-oracle-checked via the same
    recursive-CTE reachability mirror as ``neardup_clusters``."""
    from .dedup import neardup_clusters  # type: ignore[attr-defined]

    def page_edges(batch: pa.Table) -> pd.DataFrame:
        df = batch.select(["host", "links_hosts"]).to_pandas()
        ex = (
            df.rename(columns={"host": "src"})
            .assign(dst=df["links_hosts"])
            .drop(columns=["links_hosts"])
            .explode("dst")
            .dropna(subset=["dst"])
        )
        a = _host_id(ex["src"])
        b = _host_id(ex["dst"])
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        out = pd.DataFrame({"doc_a": lo, "doc_b": hi})
        return out[out["doc_a"] != out["doc_b"]].drop_duplicates()

    def page_nodes(batch: pa.Table) -> pd.DataFrame:
        df = batch.select(["host", "links_hosts"]).to_pandas()
        hosts = pd.concat(
            [df["host"], df["links_hosts"].explode().dropna()],
            ignore_index=True,
        ).drop_duplicates()
        return pd.DataFrame({"host": hosts.to_numpy()})

    edges = docs.map_batches(page_edges, batch_format="pyarrow")
    host_rows = docs.map_batches(page_nodes, batch_format="pyarrow")

    def dedup_hosts(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["host"]].drop_duplicates()
        return out.assign(doc_id=_host_id(out["host"]))

    # distinct hosts + their ids: one bucketed pass (all copies of a host
    # share its bucket)
    mapping = coalesce_blocks(keyed_fold(host_rows, dedup_hosts, "host"))

    clusters = neardup_clusters(
        edges, mapping.map_batches(lambda df: df[["doc_id"]], batch_format="pandas")
    )

    # label -> host-name attach: co-group on bucket(id)
    def attach(c: pd.DataFrame, h: pd.DataFrame) -> pd.DataFrame:
        c = c[["doc_id", "cluster_id"]].astype("int64")
        m = h[["doc_id", "host"]].astype({"doc_id": "int64"}).merge(c, on="doc_id", how="inner")
        return pd.DataFrame({"host": m["host"], "component_id": m["cluster_id"]})

    return keyed_fold((clusters, mapping), attach, "doc_id")


def span_coalesce(docs):
    """Normalise fragmented interleaving: merge every run of ADJACENT
    text spans into one span (extraction and packing pipelines emit
    text split around markup; training consumers want maximal text
    bridges), media spans pass through one-to-one — the span-sequence
    rewrite a multimodal curation pipeline runs before packing.

    Fully batch-local (zero shuffle) and vectorized: one boundary mask
    over the flat span arrays (new doc | non-text | after-non-text),
    run text rebuilt zero-copy via ListArray offsets + binary_join —
    no per-row Python. Columns: doc_id, span_idx (new 0-based index),
    kind, text (run concatenation for text, '' for media), media_ref
    ('' for text), n_merged, text_chars. SQL-oracle-checked over the
    materialized spans base (islands via lag()/sum() windows)."""
    import pyarrow.compute as pc

    def coalesce(batch: pa.Table) -> pa.Table:
        spans = batch["spans"].combine_chunks()
        flat = pc.list_flatten(spans)
        parents = pc.list_parent_indices(spans).to_numpy().astype("int64")
        m = len(parents)
        if m == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.string()),
                    "span_idx": pa.array([], pa.int32()),
                    "kind": pa.array([], pa.string()),
                    "text": pa.array([], pa.string()),
                    "media_ref": pa.array([], pa.string()),
                    "n_merged": pa.array([], pa.int64()),
                    "text_chars": pa.array([], pa.int64()),
                }
            )
        kinds = flat.field("kind").to_numpy(zero_copy_only=False)
        texts = pc.coalesce(flat.field("text"), pa.scalar("")).to_numpy(
            zero_copy_only=False
        )
        media = pc.coalesce(flat.field("media_ref"), pa.scalar("")).to_numpy(
            zero_copy_only=False
        )
        is_text = kinds == "text"
        boundary = np.ones(m, dtype=bool)
        boundary[1:] = (
            (parents[1:] != parents[:-1]) | ~is_text[1:] | ~is_text[:-1]
        )
        run_start = np.flatnonzero(boundary)
        n_runs = len(run_start)
        run_doc = parents[run_start]
        run_len = np.diff(np.append(run_start, m)).astype("int64")
        # runs partition the flat array contiguously from 0..m, so the
        # list offsets are exactly the cumulative run lengths
        tl = pa.ListArray.from_arrays(
            pa.array(
                np.concatenate(([0], np.cumsum(run_len))).astype("int32"),
                pa.int32(),
            ),
            pa.array(texts),
        )
        run_text = pc.binary_join(tl, "").to_numpy(zero_copy_only=False)
        run_kind = kinds[run_start]
        run_media = media[run_start]
        text_out = np.where(run_kind == "text", run_text, "")
        media_out = np.where(run_kind == "text", "", run_media)
        doc_change = np.ones(n_runs, dtype=bool)
        doc_change[1:] = run_doc[1:] != run_doc[:-1]
        seg_start = np.flatnonzero(doc_change)
        seg_len = np.diff(np.append(seg_start, n_runs))
        span_idx = (np.arange(n_runs) - np.repeat(seg_start, seg_len)).astype(
            "int32"
        )
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)[run_doc]
        text_chars = (
            pc.utf8_length(pa.array(text_out, pa.string()))
            .to_numpy(zero_copy_only=False)
            .astype("int64")
        )
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.string()),
                "span_idx": pa.array(span_idx),
                "kind": pa.array(run_kind, pa.string()),
                "text": pa.array(text_out, pa.string()),
                "media_ref": pa.array(media_out, pa.string()),
                "n_merged": pa.array(run_len),
                "text_chars": pa.array(text_chars),
            }
        )

    return docs.map_batches(coalesce, batch_format="pyarrow")


def span_transitions(docs):
    """Corpus-level Markov audit of the interleaving structure: counts of
    adjacent ``kind -> kind`` transitions inside each document's span
    sequence (text->media, media->text, text->text, ...) — the statistic
    a multimodal curriculum/packing policy is tuned against (how bursty
    are media runs? how long are text bridges?).

    Vectorized and batch-local until one tiny exchange: per batch,
    ``list_flatten`` + ``list_parent_indices`` give the flat kind array;
    transitions are the positions where the parent index does not change
    (pure numpy mask — no per-row Python); per-batch partial counts fold
    through ONE bucketed grouped sum over at most |kinds|^2 distinct
    keys. Columns: from_kind, to_kind, n. SQL-oracle-checked over the
    materialized spans base (lead() window per physical row)."""
    import pyarrow.compute as pc

    schema = dict(from_kind=str, to_kind=str, n="int64")

    def partials(batch: pa.Table) -> pd.DataFrame:
        spans = batch["spans"].combine_chunks()
        flat = pc.list_flatten(spans)
        parents = pc.list_parent_indices(spans).to_numpy().astype("int64")
        kinds = flat.field("kind").to_numpy(zero_copy_only=False)
        if len(kinds) < 2:
            return typed_empty(**schema)
        same = parents[:-1] == parents[1:]
        if not same.any():
            return typed_empty(**schema)
        pairs = pd.DataFrame(
            {"from_kind": kinds[:-1][same], "to_kind": kinds[1:][same]}
        )
        vc = pairs.value_counts(["from_kind", "to_kind"]).reset_index(name="n")
        vc["n"] = vc["n"].astype("int64")
        return vc

    return keyed_fold(
        docs, sum_in_bucket(["from_kind", "to_kind"], "n"), ("from_kind", "to_kind"),
        rows=partials, batch_format="pyarrow", empty=schema,
    )


def media_burst_lengths(docs):
    """Distribution of consecutive-media run lengths across the corpus —
    the burstiness statistic that sizes an interleaved pipeline's media
    decode batches (a corpus of isolated images packs differently from
    one with 10-image galleries). A run is a maximal stretch of adjacent
    non-text spans within one document.

    Vectorized gaps-and-islands: flat kinds + parent indices; run breaks
    where the parent or the is-media flag changes; one bincount over the
    media runs' lengths per batch; ONE bucketed grouped sum over at most
    max_run_len keys. Columns: run_len, n. SQL-oracle-checked
    (row_number-difference islands over the spans base)."""
    import pyarrow.compute as pc

    schema = dict(run_len="int64", n="int64")

    def partials(batch: pa.Table) -> pd.DataFrame:
        spans = batch["spans"].combine_chunks()
        flat = pc.list_flatten(spans)
        parents = pc.list_parent_indices(spans).to_numpy().astype("int64")
        kinds = flat.field("kind").to_numpy(zero_copy_only=False)
        if not len(kinds):
            return typed_empty(**schema)
        is_m = kinds != "text"
        breaks = np.ones(len(kinds), dtype=bool)
        breaks[1:] = (parents[1:] != parents[:-1]) | (is_m[1:] != is_m[:-1])
        run_id = np.cumsum(breaks) - 1
        run_lens = np.bincount(run_id)
        run_is_media = is_m[breaks]
        media_lens = run_lens[run_is_media]
        if not len(media_lens):
            return typed_empty(**schema)
        vals, counts = np.unique(media_lens, return_counts=True)
        return pd.DataFrame(
            {"run_len": vals.astype("int64"), "n": counts.astype("int64")}
        )

    return keyed_fold(
        docs, sum_in_bucket("run_len", "n"), ("run_len",),
        rows=partials, batch_format="pyarrow", empty=schema,
    )


_HITS_ITERS = 3  # fixed; integer vectors stay exact (no normalisation)


def host_hits(
    n_pages: int = 600,
    scfg: SyntheticConfig | None = None,
    docs=None,
    n_iters: int = _HITS_ITERS,
):
    """HITS hubs/authorities over the host->host link graph — the
    companion ranking to :func:`host_pagerank` (Kleinberg '99).

    Pinned INTEGER variant: h0 = 1 for every node; each iteration runs
    a_k(dst) = SUM_in w * h_{k-1}(src) then h_k(src) = SUM_out w * a_k(dst)
    with NO normalisation — after the fixed 3 iterations every score is
    an exact int64, so the distributed result is bit-identical to the
    unrolled SQL mirror under any summation order (the float-drift
    hazard a normalised HITS would carry is designed out).

    Scale shape: like host_pagerank — vectors and edges both stay
    distributed; each half-step is a bucketed co-group
    (vector ⋈ edges on the join side, grouped sum on the output side)
    plus a materialize; the driver holds only the iteration counter.
    Columns: host, hub3, auth3 (both int64, 0 for un-linked sides).
    SQL-oracle-checked over the same materialized link base."""
    import ray.data as rd

    edges_raw = host_link_graph(n_pages, scfg, docs=docs)

    def edge_cast(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": df["src_host"],
                "dst": df["dst_host"],
                "w": df["n_links"].astype("int64"),
            }
        )

    edges = coalesce_blocks(edges_raw.map_batches(edge_cast, batch_format="pandas"))

    def to_nodes(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.unique(pd.concat([df["src"], df["dst"]], ignore_index=True))
        return pd.DataFrame({"host": pd.Series(h, dtype=str)})

    def dedup_nodes(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates("host")

    nodes = coalesce_blocks(keyed_fold(edges, dedup_nodes, "host", rows=to_nodes))

    def init_vec(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"host": df["host"], "v": np.ones(len(df), dtype="int64")}
        )

    def halfstep(vec, join_col: str, out_col: str):
        """out(out_col) = SUM over edges of w * vec(join_col) — one
        bucketed co-group + one bucketed grouped sum."""

        def edges_by_host(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"host": df[join_col], "out": df[out_col], "w": df["w"]})

        def contrib(r: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
            m = e[["host", "out", "w"]].merge(r[["host", "v"]], on="host", how="inner")
            return pd.DataFrame(
                {
                    "host": m["out"],
                    "c": (m["w"].to_numpy() * m["v"].to_numpy()).astype("int64"),
                }
            )

        def fold(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby("host", sort=False)["c"].sum().reset_index()
            return pd.DataFrame(
                {"host": g["host"], "v": g["c"].astype("int64")}
            )

        joined = keyed_fold((vec, edges), contrib, "host", rows=(None, edges_by_host))
        return coalesce_blocks(keyed_fold(joined, fold, "host"))

    h = nodes.map_batches(init_vec, batch_format="pandas").materialize()
    a = None
    for _ in range(n_iters):
        a = halfstep(h, "src", "dst")   # authorities from hubs
        h = halfstep(a, "dst", "src")   # hubs from authorities

    # final projection: every node, 0 where a side never received mass
    def project(nodes, hv, av: pd.DataFrame) -> pd.DataFrame:
        hosts = nodes[["host"]].drop_duplicates()
        hv, av = hv[["host", "v"]], av[["host", "v"]]
        out = hosts.merge(
            hv.rename(columns={"v": "hub3"}), on="host", how="left"
        ).merge(av.rename(columns={"v": "auth3"}), on="host", how="left")
        out["hub3"] = out["hub3"].fillna(0).astype("int64")
        out["auth3"] = out["auth3"].fillna(0).astype("int64")
        return out

    return keyed_fold(
        (nodes, h, a), project, "host",
        empty=dict(host=str, hub3="int64", auth3="int64"),
    )


def degree_distribution(
    n_pages: int = 600, scfg: SyntheticConfig | None = None, docs=None
):
    """In/out degree histogram of the host link graph — the first
    structural audit a crawl-frontier tuner reads (how heavy is the tail
    the politeness budget must absorb). Degrees count DISTINCT
    neighbours (the graph rows are already distinct (src,dst) pairs).

    Two tiny bucketed folds over the edge list: per-host degree counts,
    then the (direction, degree) histogram — the exchange never exceeds
    the host count. Columns: direction ('in'/'out'), degree, n_hosts.
    SQL-oracle-checked over the materialized link base."""
    edges = host_link_graph(n_pages, scfg, docs=docs)

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.concat(
            [
                pd.DataFrame(
                    {"direction": "out", "host": df["src_host"]}
                ),
                pd.DataFrame({"direction": "in", "host": df["dst_host"]}),
            ],
            ignore_index=True,
        )
        g = (
            out.groupby(["direction", "host"], sort=False)
            .size()
            .reset_index(name="deg")
        )
        g["deg"] = g["deg"].astype("int64")
        return g

    def hist_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().rename(columns={"deg": "degree"})
        g = (
            df.groupby(["direction", "degree"], sort=False)
            .size()
            .reset_index(name="n_hosts")
        )
        g["n_hosts"] = g["n_hosts"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    hist_key = ["direction", "degree"]
    degrees = keyed_fold(
        edges, sum_in_bucket(["direction", "host"], "deg"), ("direction", "host"),
        rows=tag, empty=dict(direction=str, host=str, deg="int64"),
    )
    return keyed_fold(
        degrees, sum_in_bucket(hist_key, "n_hosts"), tuple(hist_key),
        rows=hist_partial, batch_format="pyarrow",
        empty=dict(direction=str, degree="int64", n_hosts="int64"),
    )


_BFS_MAX_D = 4
_BFS_SEEDS = 2  # lexicographically-first hosts


def host_distances(
    n_pages: int = 600,
    scfg: SyntheticConfig | None = None,
    docs=None,
    max_d: int = _BFS_MAX_D,
):
    """BFS hop distances over the host link graph from a pinned seed set
    (the ``_BFS_SEEDS`` lexicographically-first hosts) — the reachability
    audit a seed-list designer runs (how much of the web is within k
    hops of the seeds). Distances are exact integers.

    Scale shape: distances and edges both stay distributed; each of the
    ``max_d`` rounds expands ONLY the last frontier through one
    bucketed co-group (frontier ⋈ edges by src) and merges
    into the known set with a grouped min — the driver holds the round
    counter. Columns: host, dist (0..max_d; unreached hosts omitted).
    SQL-oracle-checked (recursive CTE with a path-length bound)."""
    edges_raw = host_link_graph(n_pages, scfg, docs=docs)

    def edge_cast(df: pd.DataFrame) -> pd.DataFrame:
        # keyed by source host
        return pd.DataFrame({"host": df["src_host"], "dst": df["dst_host"]})

    edges = coalesce_blocks(edges_raw.map_batches(edge_cast, batch_format="pandas"))

    # seed selection: global min-k by host string — per-block partial
    # top-k, driver folds #blocks × k rows
    def partial_min(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.unique(pd.concat([df["host"], df["dst"]], ignore_index=True))
        s = pd.Series(h, dtype=str).sort_values(kind="mergesort").head(_BFS_SEEDS)
        return pd.DataFrame({"host": s})

    cand = edges.map_batches(partial_min, batch_format="pandas").to_pandas()
    seeds = sorted(cand["host"].unique())[:_BFS_SEEDS]

    import ray.data as rd

    dist = rd.from_pandas(
        pd.DataFrame({"host": seeds, "dist": np.zeros(len(seeds), dtype="int64")})
    ).materialize()
    frontier = dist

    for level in range(1, max_d + 1):
        def expand(f: pd.DataFrame, e: pd.DataFrame, _lv=level) -> pd.DataFrame:
            m = e[["host", "dst"]].merge(f[["host"]], on="host", how="inner")
            out = m["dst"].drop_duplicates()
            return pd.DataFrame(
                {"host": out.to_numpy(), "dist": np.full(len(out), _lv, dtype="int64")}
            )

        cands = keyed_fold((frontier, edges), expand, "host")

        # merge: known dist ∪ candidates, grouped min by host; the NEW
        # frontier = hosts whose min dist equals this level
        def merge_min(known: pd.DataFrame, new: pd.DataFrame) -> pd.DataFrame:
            df = pd.concat([known[["host", "dist"]], new[["host", "dist"]]], ignore_index=True)
            g = df.groupby("host", sort=False)["dist"].min().reset_index()
            g["dist"] = g["dist"].astype("int64")
            return g

        dist = coalesce_blocks(
            keyed_fold((dist, cands), merge_min, "host", empty=dict(host=str, dist="int64"))
        )

        def this_level(df: pd.DataFrame, _lv=level) -> pd.DataFrame:
            return df[df["dist"] == _lv][["host", "dist"]]

        frontier = dist.map_batches(this_level, batch_format="pandas").materialize()
        if frontier.count() == 0:
            break

    return dist


# the unordered-pair joiner: \x1f, NOT \x00 — pandas Series `+` goes
# through numpy fixed-width unicode, which STRIPS embedded NULs, so a
# NUL-joined key degrades to plain concatenation and distinct pairs like
# (ab,c)/(a,bc) collide; a pair key is both grouped on and split back
_PAIR_SEP = "\x1f"


def _adjacency(edges):
    """The undirected simple graph of a host link graph: one ``(node,
    nbr, deg)`` row per direction of every distinct non-self-loop host
    pair, ``deg`` being the node's distinct-neighbour degree. ONE
    node-keyed fold: a node's whole neighbourhood co-locates, so
    reciprocal and repeated links dedup there and the group size IS the
    degree. Lazy on the exchange path, so a caller that reads it more
    than once coalesces it."""

    def both_dirs(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["src_host"] != df["dst_host"]]
        return pd.DataFrame(
            {
                "node": pd.concat([d["src_host"], d["dst_host"]], ignore_index=True),
                "nbr": pd.concat([d["dst_host"], d["src_host"]], ignore_index=True),
            }
        )

    def dedup_degree(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["node", "nbr"])[["node", "nbr"]]
        return d.assign(deg=d.groupby("node", sort=False)["nbr"].transform("size").astype("int64"))

    return keyed_fold(
        edges, dedup_degree, "node", rows=both_dirs, empty=dict(node=str, nbr=str, deg="int64")
    )


def _halves(df: pd.DataFrame) -> pd.DataFrame:
    """Adjacency rows as edge halves: ``pair`` is the unordered pair key
    ``min + _PAIR_SEP + max``, ``end`` 0 for the row of the lower node,
    ``d`` that node's degree. Keyed by ``pair``, an edge's two rows meet
    and carry both end degrees."""
    lo = df["node"] < df["nbr"]
    a = df["node"].where(lo, df["nbr"])
    b = df["nbr"].where(lo, df["node"])
    return pd.DataFrame(
        {"pair": a + _PAIR_SEP + b, "end": (~lo).astype("int64"), "d": df["deg"].astype("int64")}
    )


def host_reciprocity(
    n_pages: int = 600, scfg: SyntheticConfig | None = None, docs=None
):
    """Edge reciprocity of the host link graph (how often does B link
    back to A — the classic directed-web-graph statistic): distinct
    directed edges, the subset with a reverse edge, and the exact ppm
    ratio. Self-loops are excluded from both counts (pinned rule).

    ONE bucketed co-group: every edge keys by its UNORDERED pair
    ``min + _PAIR_SEP + max``, so both directions co-locate and
    reciprocity is a per-group size test; the driver folds per-bucket
    integer partials. Columns: n_edges, n_reciprocal, reciprocity_ppm
    (all exact integers). SQL-oracle-checked."""
    edges = host_link_graph(n_pages, scfg, docs=docs)

    def key_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["src_host"] != df["dst_host"]]
        lo = d[["src_host", "dst_host"]].min(axis=1)
        hi = d[["src_host", "dst_host"]].max(axis=1)
        fwd = (d["src_host"] == lo).astype("int64")
        out = pd.DataFrame(
            {
                "pair": lo + _PAIR_SEP + hi,
                "n_fwd": fwd,
                "n_rev": 1 - fwd,
            }
        )
        g = out.groupby("pair", sort=False).sum().reset_index()
        for c in ("n_fwd", "n_rev"):
            g[c] = g[c].astype("int64")
        return g

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("pair", sort=False)[["n_fwd", "n_rev"]].sum()
        has_f = (g["n_fwd"] > 0).to_numpy()
        has_r = (g["n_rev"] > 0).to_numpy()
        n_edges = int(g["n_fwd"].clip(upper=1).sum() + g["n_rev"].clip(upper=1).sum())
        n_rec = int((has_f & has_r).sum()) * 2
        return pd.DataFrame(
            {
                "n_edges": pd.Series([n_edges], dtype="int64"),
                "n_reciprocal": pd.Series([n_rec], dtype="int64"),
            }
        )

    parts = keyed_fold(
        edges, fold, "pair", rows=key_pairs,
        empty=dict(n_edges="int64", n_reciprocal="int64"),
    ).to_pandas()
    n_edges = int(parts["n_edges"].sum()) if len(parts) else 0
    n_rec = int(parts["n_reciprocal"].sum()) if len(parts) else 0
    ppm = (1_000_000 * n_rec) // n_edges if n_edges else 0
    return pd.DataFrame(
        {
            "n_edges": pd.Series([n_edges], dtype="int64"),
            "n_reciprocal": pd.Series([n_rec], dtype="int64"),
            "reciprocity_ppm": pd.Series([ppm], dtype="int64"),
        }
    )


def host_triangles(
    n_pages: int = 600, scfg: SyntheticConfig | None = None, docs=None
):
    """Exact triangle count + global clustering coefficient of the host
    link graph — the canonical distributed-graph kernel the family still
    lacked. Undirected simple graph: distinct unordered host pairs from
    the directed link base, self-loops excluded.

    Algorithm: the degree-ordered node-iterator (Suri & Vassilvitskii's
    MapReduce scheme — orient every edge from its lower (degree, name)
    endpoint to the higher, so each node's OUT-neighbourhood is
    O(sqrt(m))-bounded and every triangle is generated exactly once, by
    its minimum node). Four bucketed exchanges, each edge/wedge-bounded:
    the adjacency (node-keyed dedup + degree, :func:`_adjacency`),
    orient (pair-keyed: an edge's two halves carry both end degrees),
    wedge generation (src-keyed self-merge), wedge∩edge closure test
    (key-keyed co-group of wedges with the adjacency rows ``node <
    nbr``). No all-pairs step anywhere; the wedge stream — the only
    superlinear term — is exactly the oriented wedge set, the
    algorithm's proven-minimal exchange.

    Columns (single row, all exact integers): n_edges, n_wedges
    (sum over nodes of C(deg,2)), n_triangles, clustering_ppm
    (1e6 * 3*triangles // wedges). SQL-oracle-checked (3-way self-join
    over the same materialized link base)."""
    # read 3x: orient, edge keys, edge and wedge counts
    adj = coalesce_blocks(_adjacency(host_link_graph(n_pages, scfg, docs=docs)))

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        da = df[df["end"] == 0][["pair", "d"]].rename(columns={"d": "da"})
        db = df[df["end"] == 1][["pair", "d"]].rename(columns={"d": "db"})
        m = da.merge(db, on="pair")
        if not len(m):
            return typed_empty(src=str, dst=str)
        ab = m["pair"].str.split(_PAIR_SEP, n=1, expand=True)
        a = ab[0].to_numpy(dtype=object)
        b = ab[1].to_numpy(dtype=object)
        # (degree, name) total order; a < b always, so ties keep a first
        a_first = (m["da"] <= m["db"]).to_numpy()
        return pd.DataFrame(
            {"src": np.where(a_first, a, b), "dst": np.where(a_first, b, a)}
        )

    def wedge_gen(df: pd.DataFrame) -> pd.DataFrame:
        g = df[["src", "dst"]]
        m = g.merge(g, on="src")
        m = m[m["dst_x"] < m["dst_y"]]
        return pd.DataFrame({"key": m["dst_x"] + _PAIR_SEP + m["dst_y"]})

    def edge_keys(df: pd.DataFrame) -> pa.Table:
        d = df[df["node"] < df["nbr"]]
        # typed: a block can hold no such row, and an empty object column
        # would tag as Arrow null
        return pa.table({"key": pa.array(d["node"] + _PAIR_SEP + d["nbr"], pa.string())})

    def count_tri(wedges: pd.DataFrame, edges: pd.DataFrame) -> pd.DataFrame:
        # a wedge whose open end is an edge closes a triangle
        n = int(wedges["key"].isin(set(edges["key"])).sum())
        return pd.DataFrame({"n_triangles": pd.Series([n], dtype="int64")})

    oriented = keyed_fold(adj, orient, "pair", rows=_halves, empty=dict(src=str, dst=str))
    wedges = keyed_fold(oriented, wedge_gen, "src", empty=dict(key=str))
    tri_parts = keyed_fold(
        (wedges, adj), count_tri, "key", rows=(None, edge_keys),
        empty=dict(n_triangles="int64"),
    ).to_pandas()
    n_triangles = int(tri_parts["n_triangles"].sum()) if len(tri_parts) else 0

    # an edge is two adjacency rows, and a node's deg rows each add
    # deg - 1 to 2·C(deg, 2)
    n_rows = adj.count()
    n_edges = n_rows // 2
    n_wedges = (int(adj.sum("deg") or 0) - n_rows) // 2
    ppm = (1_000_000 * 3 * n_triangles) // n_wedges if n_wedges else 0
    return pd.DataFrame(
        {
            "n_edges": pd.Series([n_edges], dtype="int64"),
            "n_wedges": pd.Series([n_wedges], dtype="int64"),
            "n_triangles": pd.Series([n_triangles], dtype="int64"),
            "clustering_ppm": pd.Series([ppm], dtype="int64"),
        }
    )


_COCITE_CAP = 64  # out-degree stop-band: srcs above it generate no pairs
_COCITE_MIN = 2  # support threshold: pairs co-cited once don't ship


def cocitation_hosts(
    n_pages: int = 600,
    scfg: SyntheticConfig | None = None,
    docs=None,
    cap: int = _COCITE_CAP,
    min_co: int = _COCITE_MIN,
):
    """Co-citation host similarity — pairs of hosts frequently linked
    FROM the same source host, with the exact Jaccard of their (capped)
    in-neighbour sets: the classic "related sites" / link-spam-family
    signal (Small 1973; the host-level analogue of the reference's
    links_hosts facet co-occurrence).

    Pinned rules: self-loops excluded; srcs with out-degree > ``cap``
    generate NO pairs and do not count toward in-degrees (the stop-band
    that bounds pair growth at cap²·srcs — the co-citation analogue of
    LSH stop-bands; mirrored by the SQL oracle); pairs below ``min_co``
    co-citations drop; jaccard_ppm = 10⁶·n_co // (ind_a + ind_b − n_co)
    over capped-edge in-degrees (exact integers).

    FOUR bucketed exchanges over one row kind ``(a, b, n)``, ``a ≤ b``,
    each edge/pair-bounded: (1) edges co-locate by src (host_link_graph
    rows are globally distinct, so a src's whole out-neighbourhood sits
    in one group — degree cap and the pair self-merge are group-local);
    the self-merge keeps ``dst_x ≤ dst_y``, so the diagonal row ``(a,
    a)`` counts a's capped in-degree, the diagonal of the co-citation
    matrix; (2) fold by ``(a, b)`` and cut ``n < min_co`` on every row
    (safe for the diagonal: ind(a) ≥ n_co(a, b), so a kept pair keeps
    both of its diagonals); (3) attach ind_a keyed by ``a``; (4) attach
    ind_b keyed by ``b`` + the jaccard arithmetic; the diagonal rows
    carry the in-degrees and ship no output. No broadcast — the per-host
    in-degree table is corpus-sized at 100 TB. Columns: dst_a, dst_b,
    n_co, jaccard_ppm. SQL-oracle-checked over the materialized link
    base."""
    edges = host_link_graph(n_pages, scfg, docs=docs)
    pair_rows = dict(a=str, b=str, n="int64")

    def src_dst(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["src_host"] != df["dst_host"]]
        return pd.DataFrame({"src": d["src_host"], "dst": d["dst_host"]})

    def cocite(df: pd.DataFrame) -> pd.DataFrame:
        sizes = df.groupby("src", sort=False)["dst"].transform("size")
        d = df[sizes <= cap]
        m = d.merge(d, on="src")
        m = m[m["dst_x"] <= m["dst_y"]]
        p = m.groupby(["dst_x", "dst_y"], sort=False).size().reset_index(name="n")
        return pd.DataFrame({"a": p["dst_x"], "b": p["dst_y"], "n": p["n"].astype("int64")})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["a", "b"], sort=False)["n"].sum().reset_index()
        return g[g["n"] >= min_co].astype({"n": "int64"})

    def attach_a(df: pd.DataFrame) -> pd.DataFrame:
        ind = df[df["a"] == df["b"]].set_index("a")["n"]
        return df[["a", "b", "n"]].assign(ind_a=df["a"].map(ind).astype("int64"))

    result = dict(dst_a=str, dst_b=str, n_co="int64", jaccard_ppm="int64")

    def attach_b(df: pd.DataFrame) -> pd.DataFrame:
        ind = df[df["a"] == df["b"]].set_index("b")["n"]
        m = df[df["a"] != df["b"]]
        if not len(m):
            return typed_empty(**result)
        n_co = m["n"].to_numpy(dtype="int64")
        union = (
            m["ind_a"].to_numpy(dtype="int64")
            + m["b"].map(ind).to_numpy(dtype="int64")
            - n_co
        )
        return pd.DataFrame(
            {
                "dst_a": m["a"],
                "dst_b": m["b"],
                "n_co": n_co,
                "jaccard_ppm": (1_000_000 * n_co) // union,
            }
        )

    pairs = keyed_fold(edges, cocite, "src", rows=src_dst, empty=pair_rows)
    folded = keyed_fold(pairs, fold, ("a", "b"), empty=pair_rows)
    with_a = keyed_fold(folded, attach_a, "a", empty=dict(pair_rows, ind_a="int64"))
    return keyed_fold(with_a, attach_b, "b", empty=result)


def kcore_hosts(
    n_pages: int = 600,
    scfg: SyntheticConfig | None = None,
    docs=None,
    max_rounds: int = 64,
):
    """Exact k-core decomposition (coreness of every host) of the
    undirected simple host graph — the standard graph-curation density
    measure (which hosts sit in tightly-linked cores vs the periphery).

    Algorithm: the distributed H-operator fixpoint (Montresor, De
    Pellegrini & Miorandi 2011; Lü et al. 2016): every node's estimate
    starts at its distinct-neighbour degree and each round becomes
    ``min(own, H-index of neighbour estimates)`` — estimates decrease
    monotonically and the fixpoint IS the core number, so the result is
    exact, not approximate. All integers ⇒ bit-stable under any
    batching/summation order.

    Scale shape: adjacency and estimates both stay distributed. The
    adjacency is :func:`_adjacency`; one node-keyed fold takes each
    node's degree from it as the first estimate. Each round is TWO
    bucketed co-groups (attach est by neighbour key, fold by node with
    the vectorized sorted-rank H-index ``max_i min(v_i, i)``), with
    per-round block re-pinning; the driver holds only the round counter
    and a changed-row count (one bounded ``sum``). Pinned graph:
    distinct unordered host pairs from the directed link base,
    self-loops excluded; isolated hosts are absent. Columns: host, core.
    VALUES-oracle-checked vs sequential Matula–Beck peeling."""
    import ray.data as rd

    adj = coalesce_blocks(_adjacency(host_link_graph(n_pages, scfg, docs=docs)))

    def first_estimate(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates("node")[["node", "deg"]].rename(columns={"deg": "est"})

    est = coalesce_blocks(
        keyed_fold(adj, first_estimate, "node", empty=dict(node=str, est="int64"))
    )
    if not est.count():
        # an edgeless graph: Ray Data's maps drop the columns of empty
        # blocks, so the result's schema is stated here
        return rd.from_arrow(pa.table({"host": pa.array([], pa.string()), "core": pa.array([], pa.int64())}))

    for _ in range(max_rounds):
        def est_by_node(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"nbr": df["node"], "est": df["est"].astype("int64")})

        def attach(a: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
            # keyed by neighbour: its estimate attaches there
            m = a[["nbr", "node"]].merge(e[["nbr", "est"]], on="nbr", how="inner")
            nbr_rows = pd.DataFrame(
                {
                    "node": m["node"],
                    "v": m["est"].astype("int64"),
                    "own": np.full(len(m), -1, dtype="int64"),
                }
            )
            # the node's own estimate rides the same exchange (own >= 0)
            own_rows = pd.DataFrame(
                {
                    "node": e["nbr"],
                    "v": np.zeros(len(e), dtype="int64"),
                    "own": e["est"].astype("int64"),
                }
            )
            return pd.concat([nbr_rows, own_rows], ignore_index=True)

        def h_fold(df: pd.DataFrame) -> pd.DataFrame:
            own = (
                df[df["own"] >= 0]
                .groupby("node", sort=False)["own"]
                .max()
            )
            nb = df[df["own"] < 0].sort_values(
                ["node", "v"], ascending=[True, False], kind="mergesort"
            )
            rank = nb.groupby("node", sort=False).cumcount().to_numpy() + 1
            cap = np.minimum(nb["v"].to_numpy(dtype="int64"), rank)
            h = (
                pd.DataFrame({"node": nb["node"], "h": cap})
                .groupby("node", sort=False)["h"]
                .max()
            )
            new = pd.concat([own.rename("own"), h.rename("h")], axis=1)
            new["h"] = new["h"].fillna(0).astype("int64")
            est_new = np.minimum(
                new["own"].to_numpy(dtype="int64"),
                new["h"].to_numpy(dtype="int64"),
            )
            return pd.DataFrame(
                {
                    "node": new.index,
                    "est": est_new,
                    "chg": (est_new != new["own"].to_numpy()).astype("int64"),
                }
            )

        attached = keyed_fold(
            (adj, est), attach, "nbr", rows=(None, est_by_node),
            empty=dict(node=str, v="int64", own="int64"),
        )
        nxt = coalesce_blocks(keyed_fold(
            attached, h_fold, "node", empty=dict(node=str, est="int64", chg="int64")
        ))
        changed = nxt.sum("chg") or 0
        est = nxt.drop_columns(["chg"]).materialize()
        if changed == 0:
            break

    def finalise(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"host": df["node"], "core": df["est"].astype("int64")}
        )

    return est.map_batches(finalise, batch_format="pandas")


def media_captions(docs):
    """Caption-candidate pairing over the interleaved spans base — for
    every media span, the adjacent text span most likely to caption it
    (the alt-text/figure-caption heuristic a multimodal training
    pipeline runs before building image-text pairs): the text span
    immediately AFTER the media wins (captions follow figures); if the
    next span is not text, the text span immediately BEFORE is the
    fallback; otherwise the media ships uncaptioned. Adjacency only,
    media kinds are ``media`` and ``image``, caption donors are ``text``
    spans only (not title/link) — pinned rules, mirrored by the SQL
    lead/lag oracle.

    Fully batch-local (zero shuffle): one vectorized pyarrow pass —
    list_flatten + parent indices, shifted-array adjacency masks, no
    per-row Python. Columns: doc_id, media_idx (0-based among the doc's
    media spans, span order), media_ref, caption, caption_src
    (after|before|none), caption_chars. SQL-oracle-checked over the
    materialized spans base."""
    import pyarrow.compute as pc

    def pair(batch: pa.Table) -> pa.Table:
        spans = batch["spans"].combine_chunks()
        flat = pc.list_flatten(spans)
        parents = pc.list_parent_indices(spans).to_numpy().astype("int64")
        doc_ids = batch["doc_id"].combine_chunks()  # type pass-through
        kinds = flat.field("kind").to_numpy(zero_copy_only=False)
        texts = pc.coalesce(flat.field("text"), pa.scalar("")).to_numpy(
            zero_copy_only=False
        )
        media = pc.coalesce(flat.field("media_ref"), pa.scalar("")).to_numpy(
            zero_copy_only=False
        )
        m = len(kinds)
        if m == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], doc_ids.type),
                    "media_idx": pa.array([], pa.int64()),
                    "media_ref": pa.array([], pa.string()),
                    "caption": pa.array([], pa.string()),
                    "caption_src": pa.array([], pa.string()),
                    "caption_chars": pa.array([], pa.int64()),
                }
            )
        is_media = (kinds == "media") | (kinds == "image")
        is_text = kinds == "text"
        nxt_ok = np.zeros(m, dtype=bool)
        nxt_ok[:-1] = (parents[1:] == parents[:-1]) & is_text[1:]
        prv_ok = np.zeros(m, dtype=bool)
        prv_ok[1:] = (parents[:-1] == parents[1:]) & is_text[:-1]
        cap = np.full(m, "", dtype=object)
        src = np.full(m, "none", dtype=object)
        take_next = is_media & nxt_ok
        idx = np.nonzero(take_next)[0]
        cap[idx] = texts[idx + 1]
        src[idx] = "after"
        take_prev = is_media & ~nxt_ok & prv_ok
        idx = np.nonzero(take_prev)[0]
        cap[idx] = texts[idx - 1]
        src[idx] = "before"
        sel = is_media
        # 0-based media ordinal within each doc (span order)
        ord_all = np.cumsum(is_media) - 1
        first_of_parent = np.zeros(m, dtype="int64")
        # index of first flat row per parent: positions where parent changes
        change = np.ones(m, dtype=bool)
        change[1:] = parents[1:] != parents[:-1]
        # media count before each parent's first row
        media_before = np.concatenate([[0], np.cumsum(is_media)[:-1]])
        base = np.where(change, media_before, 0)
        base = np.maximum.accumulate(base)
        media_idx = (np.cumsum(is_media) - 1) - base
        caps = cap[sel]
        return pa.table(
            {
                "doc_id": pc.take(doc_ids, pa.array(parents[sel], pa.int64())),
                "media_idx": pa.array(media_idx[sel], pa.int64()),
                "media_ref": pa.array(media[sel], pa.string()),
                "caption": pa.array(caps, pa.string()),
                "caption_src": pa.array(src[sel], pa.string()),
                "caption_chars": pa.array(
                    np.asarray([len(c) for c in caps], dtype="int64"), pa.int64()
                ),
            }
        )

    return docs.map_batches(pair, batch_format="pyarrow")


def host_assortativity(
    n_pages: int = 600, scfg: SyntheticConfig | None = None, docs=None
):
    """Degree assortativity (Newman 2002) of the undirected simple host
    graph — do well-linked hosts link to other well-linked hosts (the
    web is famously DISassortative): the Pearson correlation of
    (deg(u), deg(v)) over edge endpoints, each undirected edge counted
    in both orientations (so the two marginals coincide and
    r = (M·Σxy − Σx·Σy) / (M·Σx² − Σx²-of-sums)).

    All sums are EXACT int64 (per-bucket integer partials, driver folds
    #buckets rows; safe while deg²·2m < 2^63 — beyond that switch the
    fold to Python ints); the final r is ONE double expression computed
    from the same integers in both engines (the rate_anomalies
    IEEE-identical-expression rule). Graph rules pinned as in
    kcore/triangles: distinct unordered pairs, self-loops excluded.

    TWO bucketed passes after the edge pass: the adjacency
    (:func:`_adjacency`, node-keyed dedup + degree), then one pair-keyed
    fold of its edge halves (:func:`_halves`): per bucket m = rows,
    sx = Σd, sx2 = Σd² and sxy = 2·Σ over pairs of the product of the
    pair's two end degrees. Columns: m_samples, sum_x, sum_xy, sum_x2,
    assortativity_r (round 6). SQL-oracle-checked."""

    def moment_partials(df: pd.DataFrame) -> pd.DataFrame:
        d = df["d"].to_numpy(dtype="int64")
        sxy = 2 * int(df.groupby("pair", sort=False)["d"].prod().sum())
        return pd.DataFrame(
            {"m": [len(d)], "sx": [int(d.sum())], "sxy": [sxy], "sx2": [int((d * d).sum())]},
            dtype="int64",
        )

    parts = keyed_fold(
        _adjacency(host_link_graph(n_pages, scfg, docs=docs)), moment_partials, "pair",
        rows=_halves, empty=dict(m="int64", sx="int64", sxy="int64", sx2="int64"),
    ).to_pandas()
    m = int(parts["m"].sum()) if len(parts) else 0
    sx = int(parts["sx"].sum()) if len(parts) else 0
    sxy = int(parts["sxy"].sum()) if len(parts) else 0
    sx2 = int(parts["sx2"].sum()) if len(parts) else 0
    denom = m * sx2 - sx * sx
    # float() each exact integer FIRST (the SQL mirror casts each side
    # to DOUBLE before dividing — keep the IEEE ops identical)
    r = round(float(m * sxy - sx * sx) / float(denom), 6) if denom else 0.0
    return pd.DataFrame(
        {
            "m_samples": pd.Series([m], dtype="int64"),
            "sum_x": pd.Series([sx], dtype="int64"),
            "sum_xy": pd.Series([sxy], dtype="int64"),
            "sum_x2": pd.Series([sx2], dtype="int64"),
            "assortativity_r": pd.Series([r], dtype="float64"),
        }
    )


def media_position_profile(docs):
    """Media-placement profile over the interleaved spans base — where
    in a document the media lands (lead image vs inline figure vs
    trailing gallery): for every media span, its position DECILE within
    the doc's span sequence (``(10·idx0) // n_spans``, exact integers),
    counted per (kind, decile). The layout census a multimodal-mix
    designer reads next to ``span_stats`` / ``media_burst_lengths``.

    Fully batch-local (zero shuffle): one vectorized pyarrow pass
    (list offsets → per-span parent + within-doc position, integer
    decile, in-batch combiner); the driver folds ≤ kinds × 10 rows per
    block. Media kinds are ``media`` and ``image`` (the media_captions
    gate). Columns: kind, decile, n_spans. SQL-oracle-checked over the
    materialized spans base."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        spans = batch["spans"].combine_chunks()
        flat = pc.list_flatten(spans)
        if len(flat) == 0:
            return pa.table(
                {
                    "kind": pa.array([], pa.string()),
                    "decile": pa.array([], pa.int64()),
                    "n_spans": pa.array([], pa.int64()),
                }
            )
        parents = pc.list_parent_indices(spans).to_numpy().astype("int64")
        lengths = pc.list_value_length(spans).to_numpy(zero_copy_only=False)
        lengths = np.asarray(lengths, dtype="int64")
        starts = np.zeros(len(lengths) + 1, dtype="int64")
        np.cumsum(lengths, out=starts[1:])
        pos = np.arange(len(parents), dtype="int64") - starts[parents]
        n = lengths[parents]
        kinds = flat.field("kind").to_numpy(zero_copy_only=False)
        is_media = (kinds == "media") | (kinds == "image")
        dec = (10 * pos[is_media]) // n[is_media]
        km = kinds[is_media]
        g = (
            pd.DataFrame({"kind": km, "decile": dec})
            .groupby(["kind", "decile"], sort=False)
            .size()
            .reset_index(name="n_spans")
        )
        return pa.Table.from_pandas(
            g.astype({"decile": "int64", "n_spans": "int64"}),
            preserve_index=False,
        )

    parts = docs.map_batches(partial, batch_format="pyarrow").to_pandas()
    if not len(parts):
        return pd.DataFrame(
            {
                "kind": pd.Series([], dtype=str),
                "decile": pd.Series([], dtype="int64"),
                "n_spans": pd.Series([], dtype="int64"),
            }
        )
    return (
        parts.groupby(["kind", "decile"], sort=False)["n_spans"]
        .sum()
        .reset_index()
        .astype({"decile": "int64", "n_spans": "int64"})
    )


def span_windows(docs, w: int = 2):
    """Grounding-context census around each media span of the
    interleaved spans base: how much TEXT sits within the ``w`` spans on
    either side (the signal a multimodal-pairing stage reads before
    pairing images with context — ``media_captions`` is the adjacency-1
    special case; this measures the whole local window).

    Pinned rule (w=2): for a media span (kinds ``media``/``image``) at
    span position i, ``n_text_before`` counts kind=='text' among
    positions i-1, i-2 (same doc), ``n_text_after`` among i+1, i+2, and
    ``window_chars`` sums those text spans' character lengths (exact
    integers — ``utf8_length`` here, ``len()`` in the mirror).

    Fully batch-local (zero shuffle): one vectorized pyarrow/numpy pass
    — list offsets → parent indices, four shifted same-parent masks, one
    scatter per shift; output rows = media spans only. Columns: doc_id,
    media_idx, n_text_before, n_text_after, window_chars.
    SQL-oracle-checked (lag/lead window mirror over the same
    materialized base)."""
    import pyarrow.compute as pc

    assert w == 2, "pinned window (the SQL mirror unrolls w=2)"

    def per_batch(batch: pa.Table) -> pa.Table:
        spans = batch["spans"].combine_chunks()
        flat = pc.list_flatten(spans)
        doc_ids = batch["doc_id"].combine_chunks()
        empty = pa.table(
            {
                "doc_id": pa.array([], doc_ids.type),
                "media_idx": pa.array([], pa.int64()),
                "n_text_before": pa.array([], pa.int64()),
                "n_text_after": pa.array([], pa.int64()),
                "window_chars": pa.array([], pa.int64()),
            }
        )
        m = len(flat)
        if m == 0:
            return empty
        parents = pc.list_parent_indices(spans).to_numpy().astype("int64")
        kinds = flat.field("kind").to_numpy(zero_copy_only=False)
        lens = pc.utf8_length(
            pc.coalesce(flat.field("text"), pa.scalar(""))
        ).to_numpy(zero_copy_only=False).astype("int64")
        is_media = (kinds == "media") | (kinds == "image")
        is_text = kinds == "text"
        n_before = np.zeros(m, dtype="int64")
        n_after = np.zeros(m, dtype="int64")
        chars = np.zeros(m, dtype="int64")
        for k in (1, 2):
            bmask = np.zeros(m, dtype=bool)
            bmask[k:] = (parents[k:] == parents[:-k]) & is_text[:-k]
            n_before += bmask
            chars[k:] += np.where(bmask[k:], lens[:-k], 0)
            amask = np.zeros(m, dtype=bool)
            amask[:-k] = (parents[:-k] == parents[k:]) & is_text[k:]
            n_after += amask
            chars[:-k] += np.where(amask[:-k], lens[k:], 0)
        if not is_media.any():
            return empty
        # 0-based media ordinal within each doc (the media_captions rule)
        change = np.ones(m, dtype=bool)
        change[1:] = parents[1:] != parents[:-1]
        media_before = np.concatenate([[0], np.cumsum(is_media)[:-1]])
        base = np.maximum.accumulate(np.where(change, media_before, 0))
        media_idx = (np.cumsum(is_media) - 1) - base
        sel = is_media
        return pa.table(
            {
                "doc_id": pc.take(doc_ids, pa.array(parents[sel], pa.int64())),
                "media_idx": pa.array(media_idx[sel], pa.int64()),
                "n_text_before": pa.array(n_before[sel], pa.int64()),
                "n_text_after": pa.array(n_after[sel], pa.int64()),
                "window_chars": pa.array(chars[sel], pa.int64()),
            }
        )

    return docs.map_batches(per_batch, batch_format="pyarrow")
