"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at sf=0.01
and compares it against the matching ``oracle_sql()[name]`` via DuckDB.

Ray is initialised by the driver BEFORE this module is imported: nothing
here (nor in the library) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import pyarrow as pa

_SF0001 = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline on sf0.001: documents table -> deterministic HTML
    pages -> full extraction chain -> interleaved span documents
    (BASELINE.json input_hint shape: doc_id + spans list<struct>)."""
    from webarchive_discovery_ray.config import IndexConfig
    from webarchive_discovery_ray.sources.io import read_table
    from webarchive_discovery_ray.sources.synthetic import pages_from_documents
    from webarchive_discovery_ray.stages.extract import ExtractStage

    ds = read_table(_SF0001, "documents")
    pages = ds.map_batches(pages_from_documents, batch_format="pyarrow")
    return pages.map_batches(
        ExtractStage(IndexConfig()), batch_format="pyarrow", batch_size=128
    )


def _crawl_lineage(sf_dir: str):
    """Per-wave lineage/metrics of a checkpointed crawl run (north rule:
    "resumable from checkpoint with per-partition lineage + metrics").
    Non-SQL (the crawl is stateful); checkpoint/resume semantics are
    pinned by the pytest checkpoint suite."""
    import tempfile

    from webarchive_discovery_ray.config import CrawlConfig, SyntheticConfig
    from webarchive_discovery_ray.pipelines.crawl import run_crawl
    from webarchive_discovery_ray.sources.synthetic import seed_urls
    from webarchive_discovery_ray.state.checkpoint import crawl_lineage

    syn = SyntheticConfig(n_hosts=12, pages_per_host=80)
    with tempfile.TemporaryDirectory() as ckpt:
        run_crawl(
            seed_urls(syn, 8),
            CrawlConfig(politeness_budget=4, max_waves=3),
            syn,
            fetch_concurrency=2,
            checkpoint_dir=ckpt,
        )
        return crawl_lineage(ckpt)


def _crawl_frontier(sf_dir: str):
    """Crawl-plane drain over the synthetic pseudo-web (non-SQL; the
    sequential oracle in oracle/crawl_oracle.py is its conformance check,
    exercised under pytest)."""
    from webarchive_discovery_ray.config import CrawlConfig, SyntheticConfig
    from webarchive_discovery_ray.pipelines.crawl import run_crawl
    from webarchive_discovery_ray.sources.synthetic import seed_urls

    syn = SyntheticConfig(n_hosts=12, pages_per_host=80)
    res = run_crawl(
        seed_urls(syn, 8),
        CrawlConfig(politeness_budget=4, max_waves=3),
        syn,
        fetch_concurrency=2,
        collect_log=True,
    )
    return pa.Table.from_pylist(res.fetch_log)


def _crawl_warc_census(sf_dir: str):
    """The full storage loop behind the driver gate: a dedup_content
    crawl WRITES byte-deterministic WARC fragments (response members +
    identical-payload-digest revisit members for content-gate losers),
    the repo's own binary reader parses them back, and the census counts
    per (wave, record_type) plus the digest-resolution tally. The VALUES
    oracle recomputes the same census from the SEQUENTIAL crawl oracle +
    the first-wins hash rule — fully independent of the Ray plane.
    Columns: wave, record_type, n, n_resolved."""
    import glob
    import os

    from webarchive_discovery_ray.config import CrawlConfig, SyntheticConfig
    from webarchive_discovery_ray.pipelines.crawl import run_crawl
    from webarchive_discovery_ray.sources.synthetic import seed_urls
    from webarchive_discovery_ray.sources.warc import parse_archive_bytes

    syn = SyntheticConfig(n_hosts=10, pages_per_host=60, max_fanout=6,
                          duplicate_content_ratio=0.35)
    wdir = f"{_ORACLE_MAT}/crawl_warc_census"
    run_crawl(
        seed_urls(syn, 6),
        CrawlConfig(politeness_budget=3, max_waves=3, seen_shards=4,
                    dedup_content=True, warc_dir=wdir),
        syn,
        fetch_concurrency=2,
    )
    rows = []
    for f in sorted(glob.glob(os.path.join(wdir, "wave_*", "part_*.warc.gz"))):
        wave = int(os.path.basename(os.path.dirname(f)).split("_")[1])
        with open(f, "rb") as fh:
            for r in parse_archive_bytes(fh.read(), os.path.relpath(f, wdir)):
                rows.append((wave, r["record_type"], r["payload_sha1"]))
    import pandas as pd

    df = pd.DataFrame(rows, columns=["wave", "record_type", "digest"])
    resp = set(df.loc[df["record_type"] == "response", "digest"])
    df["resolved"] = (df["record_type"] == "revisit") & df["digest"].isin(resp)
    g = (
        df.groupby(["wave", "record_type"], sort=False)
        .agg(n=("digest", "size"), n_resolved=("resolved", "sum"))
        .reset_index()
    )
    return g.astype({"wave": "int64", "n": "int64", "n_resolved": "int64"})


def _crawl_warc_census_oracle_values_sql() -> str:
    """Independent sequential mirror: oracle_crawl's pinned fetch log +
    the first-wins extraction-hash rule decide which fetch is a revisit;
    every revisit resolves by construction (its digest was stored by the
    winner). Rendered as VALUES."""
    from webarchive_discovery_ray.config import CrawlConfig, SyntheticConfig
    from webarchive_discovery_ray.oracle.crawl_oracle import (
        crawl_index_config,
        oracle_crawl,
    )
    from webarchive_discovery_ray.oracle.extract_oracle import (
        oracle_extract_record,
    )
    from webarchive_discovery_ray.sources.synthetic import page_for_url, seed_urls

    syn = SyntheticConfig(n_hosts=10, pages_per_host=60, max_fanout=6,
                          duplicate_content_ratio=0.35)
    ccfg = CrawlConfig(politeness_budget=3, max_waves=3, seen_shards=4,
                       dedup_content=True)
    exp = oracle_crawl(seed_urls(syn, 6), ccfg, syn)
    icfg = crawl_index_config(None)
    seen_hashes: set[str] = set()
    counts: dict[tuple[int, str], list[int]] = {}
    for e in exp.fetch_log:
        rec = page_for_url(e["url"], syn)
        rtype = "response"
        resolved = 0
        if rec["status"] == 200:
            h = oracle_extract_record(rec, icfg)["hash"]
            if h in seen_hashes:
                rtype, resolved = "revisit", 1
            else:
                seen_hashes.add(h)
        c = counts.setdefault((e["wave"], rtype), [0, 0])
        c[0] += 1
        c[1] += resolved
    rows = [
        f"({w}::BIGINT, '{t}', {n}::BIGINT, {r}::BIGINT)"
        for (w, t), (n, r) in sorted(counts.items())
    ]
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(wave, record_type, n, n_resolved)"
    )


def _recrawl_crawl(sf_dir: str):
    """Closed crawl loop END-TO-END: the follow-up crawl's FETCH LOG,
    seeded by the round-2 signals (recrawl intervals x host PageRank via
    pipelines/cdx.recrawl_seed_list). Non-SQL (the crawl is stateful);
    byte-parity vs the sequential oracle is pinned in
    tests/test_crawl_parity.py::test_closed_loop_crawl_byte_parity."""
    import ray.data as rd

    from webarchive_discovery_ray.config import CrawlConfig, SyntheticConfig
    from webarchive_discovery_ray.pipelines.cdx import recrawl_seed_list
    from webarchive_discovery_ray.pipelines.crawl import run_crawl
    from webarchive_discovery_ray.pipelines.stats import host_pagerank

    import os

    if not os.path.isdir(f"{_ORACLE_MAT}/captures"):
        _cdx(sf_dir)
    _host_link_graph_base()
    ranks = host_pagerank(docs=rd.read_parquet(f"{_ORACLE_MAT}/link_base"))
    seed_rows = sorted(
        recrawl_seed_list(
            rd.read_parquet(f"{_ORACLE_MAT}/captures"), ranks
        ).take_all(),
        key=lambda r: r["seed_rank"],
    )[:24]  # bounded follow-up (the seed list itself is the oracled op)
    syn = SyntheticConfig()
    res = run_crawl(
        [(r["url"], int(r["priority"])) for r in seed_rows],
        CrawlConfig(politeness_budget=4, max_waves=2),
        syn,
        fetch_concurrency=2,
        collect_log=True,
    )
    return pa.Table.from_pylist(res.fetch_log)


def _extract_documents(sf_dir: str):
    """Extraction-plane conformance surface: synthetic fixture -> flat
    per-document summary (nested spans verified separately in pytest)."""
    import ray.data as rd

    from webarchive_discovery_ray.config import IndexConfig, SyntheticConfig
    from webarchive_discovery_ray.schema import PAGES_SCHEMA
    from webarchive_discovery_ray.sources.synthetic import fixture_pages
    from webarchive_discovery_ray.stages.extract import ExtractStage

    rows = fixture_pages(600, SyntheticConfig())
    ds = rd.from_arrow(pa.Table.from_pylist(rows, schema=PAGES_SCHEMA))
    docs = ds.map_batches(ExtractStage(IndexConfig()), batch_format="pyarrow", batch_size=128)

    def flatten(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "url": batch["url"],
                "url_norm": batch["url_norm"],
                "surt": batch["surt"],
                "host": batch["host"],
                "domain": batch["domain"],
                "content_type": batch["content_type"],
                "content_type_norm": batch["content_type_norm"],
                "status": batch["status"],
                "n_spans": pc.list_value_length(batch["spans"]),
                "n_links": pc.list_value_length(batch["links"]),
                "content_text_length": batch["content_text_length"],
                "hash": batch["hash"],
            }
        )

    return docs.map_batches(flatten, batch_format="pyarrow")


def _cdx(sf_dir: str):
    """M38/O1: captures materialized pre-sort so the DuckDB oracle verifies
    the projection content; the global sort order itself is pinned by
    pytest (hash compare is order-insensitive)."""
    import shutil

    import ray.data as rd

    from webarchive_discovery_ray.config import IndexConfig, SyntheticConfig
    from webarchive_discovery_ray.pipelines.cdx import captures_from_pages_batch
    from webarchive_discovery_ray.sources.synthetic import fixture_pages_ds

    out = f"{_ORACLE_MAT}/captures"
    shutil.rmtree(out, ignore_errors=True)
    icfg = IndexConfig(response_include=())
    fixture_pages_ds(500, SyntheticConfig(), 32).map_batches(
        lambda b: captures_from_pages_batch(b, icfg),
        batch_format="pyarrow",
        batch_size=None,
    ).write_parquet(out)
    return rd.read_parquet(out).sort(["surt_key", "timestamp14"])


def _reduplicate(sf_dir: str):
    """J3 over the SAME materialized captures table the cdx oracle reads,
    so the DuckDB oracle can replay the exemplar-merge in SQL."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.dedup import reduplicate

    if not os.path.isdir(f"{_ORACLE_MAT}/captures"):
        _cdx(sf_dir)

    def restore_int(batch: pa.Table) -> pa.Table:
        # the pandas group-merge promotes nullable int columns to float;
        # every null is filled by the exemplar merge in this fixture, so
        # cast back for a dtype-exact comparison with the SQL oracle
        for c in ("length",):
            i = batch.schema.get_field_index(c)
            batch = batch.set_column(i, c, batch[c].cast(pa.int64()))
        return batch

    return reduplicate(rd.read_parquet(f"{_ORACLE_MAT}/captures")).map_batches(
        restore_int, batch_format="pyarrow"
    )


def _span_stats(sf_dir: str):
    """Interleaved-span statistics over a materialized nested spans base
    (doc_id + spans list<struct> — the input_hint shape, written once so
    the DuckDB mirror reads the same rows)."""
    import os
    import shutil

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import _docs_ds, span_stats

    out = f"{_ORACLE_MAT}/spans_base"
    if not os.path.isdir(out):
        tmp = f"{out}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        _docs_ds(500).map_batches(
            lambda b: b.select(["doc_id", "spans"]), batch_format="pyarrow"
        ).write_parquet(tmp)
        os.replace(tmp, out)
    return span_stats(rd.read_parquet(out))


def _media_captions(sf_dir: str):
    """Adjacent-text caption pairing over the SAME materialized
    interleaved spans base."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import media_captions

    if not os.path.isdir(f"{_ORACLE_MAT}/spans_base"):
        _span_stats(sf_dir)
    return media_captions(rd.read_parquet(f"{_ORACLE_MAT}/spans_base"))


def _span_windows(sf_dir: str):
    """Grounding-context window census over the SAME materialized
    interleaved spans base."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import span_windows

    if not os.path.isdir(f"{_ORACLE_MAT}/spans_base"):
        _span_stats(sf_dir)
    return span_windows(rd.read_parquet(f"{_ORACLE_MAT}/spans_base"))


def _media_position_profile(sf_dir: str):
    """Media-placement decile census over the SAME materialized
    interleaved spans base."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import media_position_profile

    if not os.path.isdir(f"{_ORACLE_MAT}/spans_base"):
        _span_stats(sf_dir)
    return media_position_profile(rd.read_parquet(f"{_ORACLE_MAT}/spans_base"))


def _interleaved_pack(sf_dir: str):
    """Token-budget packing over the SAME materialized interleaved spans
    base (text tokens + fixed vision-token cost per media span)."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import interleaved_pack

    if not os.path.isdir(f"{_ORACLE_MAT}/spans_base"):
        _span_stats(sf_dir)
    return interleaved_pack(rd.read_parquet(f"{_ORACLE_MAT}/spans_base"))


def _span_dedup(sf_dir: str):
    """C4-style text-span exact dedup over the SAME materialized
    interleaved spans base."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import span_dedup

    if not os.path.isdir(f"{_ORACLE_MAT}/spans_base"):
        _span_stats(sf_dir)
    return span_dedup(rd.read_parquet(f"{_ORACLE_MAT}/spans_base"))


def _media_dedup(sf_dir: str):
    """Media-span exact dedup over the SAME materialized spans base."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import media_dedup

    if not os.path.isdir(f"{_ORACLE_MAT}/spans_base"):
        _span_stats(sf_dir)
    return media_dedup(rd.read_parquet(f"{_ORACLE_MAT}/spans_base"))


def _media_burst_lengths(sf_dir: str):
    """Consecutive-media run-length distribution over the SAME
    materialized interleaved spans base."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import media_burst_lengths

    if not os.path.isdir(f"{_ORACLE_MAT}/spans_base"):
        _span_stats(sf_dir)
    return media_burst_lengths(rd.read_parquet(f"{_ORACLE_MAT}/spans_base"))


def _span_transitions(sf_dir: str):
    """Corpus-level kind->kind transition counts over the SAME
    materialized interleaved spans base."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import span_transitions

    if not os.path.isdir(f"{_ORACLE_MAT}/spans_base"):
        _span_stats(sf_dir)
    return span_transitions(rd.read_parquet(f"{_ORACLE_MAT}/spans_base"))


def _span_coalesce(sf_dir: str):
    """Adjacent-text-span merge over the SAME materialized interleaved
    spans base."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import span_coalesce

    if not os.path.isdir(f"{_ORACLE_MAT}/spans_base"):
        _span_stats(sf_dir)
    return span_coalesce(rd.read_parquet(f"{_ORACLE_MAT}/spans_base"))


def _span_quality_filter(sf_dir: str):
    """Span-level quality gate + re-indexing over the SAME materialized
    interleaved spans base."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import span_quality_filter

    if not os.path.isdir(f"{_ORACLE_MAT}/spans_base"):
        _span_stats(sf_dir)
    return span_quality_filter(rd.read_parquet(f"{_ORACLE_MAT}/spans_base"))


def _media_context(sf_dir: str):
    """Nearest-text context per media span over the SAME materialized
    interleaved spans base (the MMC4-style image-text pairing step)."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import media_context

    if not os.path.isdir(f"{_ORACLE_MAT}/spans_base"):
        _span_stats(sf_dir)
    return media_context(rd.read_parquet(f"{_ORACLE_MAT}/spans_base"))


_WARC_FIXTURE_DIR = "/root/reference/warc-indexer/src/test/resources"
_WARC_FIXTURES = (
    "IAH-urls-wget.warc.gz",
    "IAH-20080430204825-00000-blackbook-truncated.warc",
    "IAH-20080430204825-00000-blackbook-truncated.warc.gz",
    "IAH-20080430204825-00000-blackbook-truncated.arc",
    "IAH-20080430204825-00000-blackbook-truncated.arc.gz",
    "gov.uk-revisit-warcs/BL-20140325121225068-00000-32090~opera~8443.warc.gz",
    "gov.uk-revisit-warcs/BL-20140325122341434-00000-32090~opera~8443.warc.gz",
    "ip-host-testcase.warc.gz",
    "truncated_datetime.warc",
    "compression/transfer_compression_none.warc",
    "compression/transfer_compression_none.warc.gz",
    "compression/transfer_compression_gzip.warc",
    "compression/transfer_compression_gzip.warc.gz",
    "compression/transfer_compression_brotli.warc",
    "compression/transfer_compression_brotli.warc.gz",
    # rich HTML+media crawl — WARCIndexerEmbeddedSolrTest.java:178-199 pins
    # 39 surviving docs / 21 image-typed docs on this fixture
    "wikipedia-mona-lisa/flashfrozen-jwat-recompressed.warc.gz",
)


def _materialize_bytes(name: str, data: bytes) -> str:
    """Write ``data`` once as ``{_ORACLE_MAT}/{sha1 prefix}/{name}``: the
    cache is keyed on the bytes, so a changed fixture recipe never reads
    a stale file (and the basename — the ``source_file`` column — stays
    ``name``)."""
    import hashlib
    import os

    d = f"{_ORACLE_MAT}/{hashlib.sha1(data).hexdigest()[:16]}"
    out = f"{d}/{name}"
    if not os.path.exists(out):
        os.makedirs(d, exist_ok=True)
        tmp = out + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, out)
    return out


def _tiny_png(width: int, height: int) -> bytes:
    """A valid, deterministic RGB PNG of the given size (all black)."""
    import struct
    import zlib

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data)) + tag + data
            + struct.pack(">I", zlib.crc32(tag + data))
        )

    rows = b"".join(b"\x00" + b"\x00" * 3 * width for _ in range(height))
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0))
        + chunk(b"IDAT", zlib.compress(rows, 9))
        + chunk(b"IEND", b"")
    )


def _synthetic_warc_bytes() -> bytes:
    """The synthetic fallback WARC.gz: ``build_synthetic_warc_gz`` plus
    one capture for each record-level query family it has nothing for —
    an image (warc_media), a robots.txt (warc_robots), two responses
    sharing a payload (warc_digest_dups) and a page with an absolute
    link (warc_regex)."""
    from webarchive_discovery_ray.oracle.warc_oracle import build_synthetic_warc_gz
    from webarchive_discovery_ray.sources.warc import build_response_member

    mirrored = b"<html><body><p>Mirrored notice.</p></body></html>"
    return build_synthetic_warc_gz() + b"".join(
        build_response_member(url, ts, 200, mime, payload)
        for url, ts, mime, payload in (
            ("http://site1.example.org/img/logo.png", "20160102030406",
             "image/png", _tiny_png(3, 2)),
            ("http://site1.example.org/robots.txt", "20160102030407",
             "text/plain",
             b"User-agent: *\nDisallow: /private/\nAllow: /private/open\n"
             b"Crawl-delay: 2\nSitemap: http://site1.example.org/sitemap.xml\n"),
            ("http://site2.example.org/notice", "20160102030408",
             "text/html", mirrored),
            ("http://site3.example.org/notice", "20160102030409",
             "text/html", mirrored),
            ("http://site4.example.org/links", "20160102030410", "text/html",
             b'<html><body><a href="http://elsewhere.example.net/landing">'
             b"away</a></body></html>"),
        )
    )


def _warc_input_paths() -> list[str]:
    """Reference fixture (W)ARCs when the read-only reference tree is
    present; otherwise a deterministic synthetic WARC.gz (same bytes feed
    the Ray query and the SQL oracle, so the gate stays meaningful)."""
    import os

    paths = [os.path.join(_WARC_FIXTURE_DIR, n) for n in _WARC_FIXTURES]
    paths = [p for p in paths if os.path.exists(p)]
    if paths:
        return paths
    return [_materialize_bytes("synthetic.warc.gz", _synthetic_warc_bytes())]


def _warc_extract(sf_dir: str):
    """Real WARC/ARC binary input path (S1/S2): from-scratch reader
    (sources/warc.py, one file per task) -> full extraction chain ->
    flat per-survivor projection. The SQL oracle is generated by the
    INDEPENDENT sequential parser + extraction oracle
    (oracle/warc_oracle.py + oracle/extract_oracle.py) rendered as a
    VALUES table — DuckDB cannot read WARC, so the independent
    implementation is transcribed into SQL at call time."""
    import pyarrow.compute as pc

    from webarchive_discovery_ray.config import IndexConfig
    from webarchive_discovery_ray.sources.warc import read_archive_pages
    from webarchive_discovery_ray.stages.extract import ExtractStage

    docs = read_archive_pages(_warc_input_paths()).map_batches(
        ExtractStage(IndexConfig()), batch_format="pyarrow", batch_size=64
    )

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "source_file": b["source_file"],
                "source_offset": pc.cast(b["source_offset"], pa.int64()),
                "doc_id": b["doc_id"],
                "url": b["url"],
                "record_type": b["record_type"],
                "status": pc.cast(b["status"], pa.int32()),
                "content_type": pc.fill_null(b["content_type"], ""),
                "hash": pc.fill_null(b["hash"], ""),
                "title": pc.fill_null(b["title"], ""),
            }
        )

    return docs.map_batches(project, batch_format="pyarrow")


def _warc_oracle_values_sql() -> str:
    """Sequential-oracle WARC extraction rendered as a DuckDB VALUES
    table (the independent conformance path for warc_extract)."""
    import os

    from webarchive_discovery_ray.config import IndexConfig
    from webarchive_discovery_ray.oracle.extract_oracle import (
        oracle_extract_record,
    )
    from webarchive_discovery_ray.oracle.warc_oracle import oracle_parse_archive

    def lit(v: object) -> str:
        return "'" + str(v).replace("'", "''") + "'"

    cfg = IndexConfig()
    rows: list[str] = []
    for path in _warc_input_paths():
        with open(path, "rb") as fh:
            data = fh.read()
        for rec in oracle_parse_archive(data, os.path.basename(path)):
            doc = oracle_extract_record(rec, cfg)
            if doc is None:
                continue
            rows.append(
                "({}, {}::BIGINT, {}, {}, {}, {}::INTEGER, {}, {}, {})".format(
                    lit(doc["source_file"]),
                    doc["source_offset"],
                    lit(doc["doc_id"]),
                    lit(doc["url"]),
                    lit(doc["record_type"]),
                    doc["status"],
                    lit(doc["content_type"] or ""),
                    lit(doc["hash"] or ""),
                    lit(doc["title"] or ""),
                )
            )
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(source_file, source_offset, doc_id, url, record_type,"
        + " status, content_type, hash, title)"
    )


def _warc_wet(sf_dir: str):
    """WET-style conversion-record table over the real fixture (W)ARCs
    (Common-Crawl *.warc.wet companion job on the binary input path)."""
    from webarchive_discovery_ray.pipelines.cdx import warc_wet

    return warc_wet(_warc_input_paths())


def _warc_wet_oracle_values_sql() -> str:
    """Sequential-oracle WET recompute: the INDEPENDENT parser +
    extraction oracle yields each surviving doc's text; rows with
    non-empty text render as VALUES(source_file, source_offset, url,
    ts14, text_length, text_sha1)."""
    import os

    from webarchive_discovery_ray.config import IndexConfig
    from webarchive_discovery_ray.functions.hashing import sha1_b32
    from webarchive_discovery_ray.oracle.extract_oracle import (
        oracle_extract_record,
    )
    from webarchive_discovery_ray.oracle.warc_oracle import oracle_parse_archive

    def lit(v: object) -> str:
        return "'" + str(v).replace("'", "''") + "'"

    cfg = IndexConfig()
    rows: list[str] = []
    for path in _warc_input_paths():
        with open(path, "rb") as fh:
            data = fh.read()
        for rec in oracle_parse_archive(data, os.path.basename(path)):
            doc = oracle_extract_record(rec, cfg)
            if doc is None or not doc.get("content"):
                continue
            text = doc["content"]
            rows.append(
                "({}, {}::BIGINT, {}, {}, {}::BIGINT, {})".format(
                    lit(doc["source_file"]),
                    doc["source_offset"],
                    lit(doc["url"]),
                    lit(doc["wayback_date"] or ""),
                    len(text),
                    lit(sha1_b32(text.encode("utf-8"))),
                )
            )
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(source_file, source_offset, url, ts14, text_length,"
        + " text_sha1)"
    )


def _uni_oracle_segment(word: str, lp: dict, max_len: int) -> list:
    """The sequential oracle's own Viterbi DP (same pinned spec as
    pipelines/textops.viterbi_segment, independent code)."""
    n = len(word)
    best = [0.0] + [float("-inf")] * n
    back = [0] * (n + 1)
    for i in range(1, n + 1):
        for j in range(max(0, i - max_len), i):
            p = lp.get(word[j:i])
            if p is None or best[j] == float("-inf"):
                continue
            s = best[j] + p
            if s > best[i]:
                best[i], back[i] = s, j
    out = []
    i = n
    while i > 0:
        out.append(word[back[i]:i])
        i = back[i]
    out.reverse()
    return out


def _unigram_oracle_model() -> tuple[dict, dict]:
    """INDEPENDENT sequential recompute of unigram_train's pinned
    Viterbi-EM spec (own Counter word table, own substring seeding, own
    DP — no code shared with pipelines/textops beyond the constants):
    every count is an integer and every float is a log of integers, so
    the two implementations agree bit-for-bit. Returns (final counts,
    final log-probs)."""
    import math
    from collections import Counter

    import pyarrow.parquet as _pq

    from webarchive_discovery_ray.pipelines.textops import (
        UNI_EM_ITERS,
        UNI_MAX_PIECE,
        UNI_SEED_MULTI,
        UNI_VOCAB_MULTI,
    )

    texts = _pq.read_table(
        f"{_oracle_sf_dir()}/documents.parquet", columns=["text"]
    )["text"].to_pylist()
    words: Counter = Counter()
    for t in texts:
        words.update(t.split())
    # seed scores
    seed: Counter = Counter()
    for w, n in words.items():
        L = len(w)
        for a in range(L):
            for b in range(a + 1, min(a + UNI_MAX_PIECE, L) + 1):
                seed[w[a:b]] += n
    singles = {s: c for s, c in seed.items() if len(s) == 1}
    multi = sorted(
        ((s, c) for s, c in seed.items() if len(s) > 1),
        key=lambda kv: (-kv[1], kv[0]),
    )[:UNI_SEED_MULTI]
    counts = dict(singles)
    counts.update(dict(multi))

    def logp_of(cnt: dict) -> dict:
        total = sum(cnt.values())
        denom = math.log(total + len(cnt))
        return {s: math.log(c + 1) - denom for s, c in cnt.items()}

    for _ in range(UNI_EM_ITERS):
        lp = logp_of(counts)
        used: Counter = Counter()
        for w, n in words.items():
            for piece in _uni_oracle_segment(w, lp, UNI_MAX_PIECE):
                used[piece] += n
        counts = {s: used.get(s, 0) for s in counts}

    chars = {s: c for s, c in counts.items() if len(s) == 1}
    keep_multi = sorted(
        ((s, c) for s, c in counts.items() if len(s) > 1),
        key=lambda kv: (-kv[1], kv[0]),
    )[:UNI_VOCAB_MULTI]
    fin = dict(chars)
    fin.update(dict(keep_multi))
    return fin, logp_of(fin)


def _unigram_train_oracle_values_sql() -> str:
    fin, lp = _unigram_oracle_model()

    def lit(v: str) -> str:
        return "'" + v.replace("'", "''") + "'"

    rows = [
        "({}, {}::BIGINT, {!r}::DOUBLE, {})".format(
            lit(s), c, round(lp[s], 6), "TRUE" if len(s) == 1 else "FALSE"
        )
        for s, c in sorted(fin.items())
    ]
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(piece, n, logp_r, is_char)"
    )


def _unigram_encode_oracle_values_sql() -> str:
    """Sequential unigram-encode recompute: the oracle model's ROUNDED
    log-probs segment every document word (the same pin theRay encoder
    uses), rendered as VALUES(doc_id, n_words, n_pieces, pieces_md5)."""
    import hashlib

    import pyarrow.parquet as _pq

    from webarchive_discovery_ray.pipelines.textops import UNI_MAX_PIECE

    fin, lp = _unigram_oracle_model()
    lp_r = {s: round(v, 6) for s, v in lp.items()}
    tbl = _pq.read_table(
        f"{_oracle_sf_dir()}/documents.parquet", columns=["doc_id", "text"]
    )
    memo: dict = {}
    rows = []
    for did, text in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()):
        ws = text.split()
        pieces: list[str] = []
        for w in ws:
            seg = memo.get(w)
            if seg is None:
                seg = memo[w] = _uni_oracle_segment(w, lp_r, UNI_MAX_PIECE)
            pieces.extend(seg)
        digest = hashlib.md5("\x1f".join(pieces).encode("utf-8")).hexdigest()
        rows.append(
            "({}::BIGINT, {}::BIGINT, {}::BIGINT, '{}')".format(
                int(did), len(ws), len(pieces), digest
            )
        )
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(doc_id, n_words, n_pieces, pieces_md5)"
    )


def _esd_apply_oracle_values_sql() -> str:
    """INDEPENDENT sequential recompute of the exact-substring dedup
    APPLY: full code-point windows -> duplicated digests -> islands
    (break when pos gap > L, span = [min, max+L)) -> per-doc surgery, in
    plain Python dicts."""
    import hashlib
    from collections import Counter

    import pyarrow.parquet as _pq

    from webarchive_discovery_ray.pipelines.dedup import _ESD_L

    L = _ESD_L
    tbl = _pq.read_table(
        f"{_oracle_sf_dir()}/documents.parquet", columns=["doc_id", "text"]
    )
    docs = list(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))
    cnt: Counter = Counter()
    keys: dict = {}
    for did, t in docs:
        ks = [
            hashlib.md5(t[i : i + L].encode("utf-8")).hexdigest()
            for i in range(max(0, len(t) - L + 1))
        ]
        keys[did] = ks
        cnt.update(ks)
    rows = []
    for did, t in docs:
        dup = [i for i, k in enumerate(keys[did]) if cnt[k] >= 2]
        spans = []
        for i in dup:
            if spans and i - spans[-1][1] <= L:
                spans[-1][1] = i
            else:
                spans.append([i, i])
        cuts = [(a, b + L) for a, b in spans]
        kept, pos, removed = [], 0, 0
        for a, b in cuts:
            kept.append(t[pos:a])
            removed += b - a
            pos = b
        kept.append(t[pos:])
        cleaned = "".join(kept)
        rows.append(
            "({}::BIGINT, {}::BIGINT, {}::BIGINT, {}::BIGINT, '{}')".format(
                int(did), len(cuts), removed, len(cleaned),
                hashlib.md5(cleaned.encode("utf-8")).hexdigest(),
            )
        )
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(doc_id, n_removed, removed_chars, cleaned_len,"
        + " cleaned_md5)"
    )


def _mmr_select_oracle_values_sql() -> str:
    """Sequential numpy recompute of the pinned greedy MMR rule (same
    rounding + tie-break; independent loop)."""
    import numpy as _np
    import pyarrow.parquet as _pq

    from webarchive_discovery_ray.pipelines.similarity import MMR_K, MMR_LAMBDA

    tbl = _pq.read_table(
        f"{_oracle_sf_dir()}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids = _np.asarray(tbl["vec_id"].to_pylist(), dtype=_np.int64)
    mat = _np.stack(
        [_np.asarray(e, dtype=_np.float64) for e in tbl["embedding"].to_pylist()]
    )
    norms = _np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    nm = mat / norms[:, None]
    q = nm[ids.tolist().index(0)]
    rel = _np.round(nm @ q, 6)
    chosen: list[int] = []
    rows = []
    for rank in range(1, MMR_K + 1):
        if chosen:
            ms = _np.round((nm @ nm[chosen].T).max(axis=1), 6)
        else:
            ms = _np.zeros(len(ids))
        score = MMR_LAMBDA * rel - (1.0 - MMR_LAMBDA) * ms
        mask = _np.isin(_np.arange(len(ids)), chosen)
        score = _np.where(mask, -_np.inf, score)
        order = _np.lexsort((ids, -score))[0]
        chosen.append(int(order))
        rows.append(
            "({}::INTEGER, {}::BIGINT, {!r}::DOUBLE)".format(
                rank, int(ids[order]), round(float(score[order]), 6)
            )
        )
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(rank, vec_id, score_r)"
    )


def _gopher_repetition_oracle_sql() -> str:
    """Generated mirror of curation.gopher_repetition: per-n CTEs share
    the one split word list; verdicts are the same integer
    cross-multiplications."""
    from webarchive_discovery_ray.pipelines.curation import (
        GOPHER_DUP_LINE_CHAR_PCT,
        GOPHER_DUP_LINE_PCT,
        GOPHER_DUP_NS,
        GOPHER_DUP_PCT,
        GOPHER_TOP_NS,
        GOPHER_TOP_PCT,
    )

    ctes = [
        """base AS (
            SELECT doc_id, text, string_split(text, ' ') AS w,
                   string_split(text, chr(10)) AS lines,
                   len(text)::BIGINT AS len_text
            FROM documents
        )"""
    ]
    joins, cols, rules = [], [], []
    for n in GOPHER_TOP_NS + GOPHER_DUP_NS:
        top = n in GOPHER_TOP_NS
        agg = (
            "MAX(cnt * glen)"
            if top
            else "SUM(CASE WHEN cnt >= 2 THEN cnt * glen END)"
        )
        ctes.append(
            f"""g{n} AS (
              SELECT doc_id,
                     array_to_string(
                         w[CAST(i AS BIGINT):CAST(i + {n - 1} AS BIGINT)],
                         ' ') AS g
              FROM base, UNNEST(range(1, len(w) - {n - 2})) AS t(i)
              WHERE len(w) >= {n}
            ),
            c{n} AS (
              SELECT doc_id, count(*)::BIGINT AS cnt, len(g)::BIGINT AS glen
              FROM g{n} GROUP BY doc_id, g
            ),
            a{n} AS (
              SELECT doc_id, {agg} AS v FROM c{n} GROUP BY doc_id
            )"""
        )
        joins.append(f"LEFT JOIN a{n} ON base.doc_id = a{n}.doc_id")
        name = f"top{n}_chars" if top else f"dup{n}_chars"
        cols.append(f"COALESCE(a{n}.v, 0)::BIGINT AS {name}")
        pct = GOPHER_TOP_PCT[n] if top else GOPHER_DUP_PCT[n]
        rname = f"rule_top{n}" if top else f"rule_dup{n}"
        rules.append(
            f"(100 * COALESCE(a{n}.v, 0) <= {pct} * len_text) AS {rname}"
        )
    ctes.append(
        """lc AS (
          SELECT doc_id, l, count(*)::BIGINT AS cnt, len(l)::BIGINT AS llen
          FROM (SELECT doc_id, UNNEST(lines) AS l FROM base)
          GROUP BY doc_id, l
        ),
        lstat AS (
          SELECT doc_id,
                 SUM(cnt)::BIGINT AS n_lines,
                 SUM(cnt * llen)::BIGINT AS line_chars,
                 COALESCE(SUM(CASE WHEN cnt >= 2 THEN cnt END), 0)::BIGINT
                     AS dup_lines,
                 COALESCE(SUM(CASE WHEN cnt >= 2 THEN cnt * llen END), 0)
                     ::BIGINT AS dup_line_chars
          FROM lc GROUP BY doc_id
        )"""
    )
    joins.append("LEFT JOIN lstat ON base.doc_id = lstat.doc_id")
    keep_terms = [r.rsplit(" AS ", 1)[0] for r in rules] + [
        f"(100 * lstat.dup_lines <= {GOPHER_DUP_LINE_PCT} * lstat.n_lines)",
        f"(100 * lstat.dup_line_chars <= {GOPHER_DUP_LINE_CHAR_PCT}"
        " * lstat.line_chars)",
    ]
    return f"""
        WITH {", ".join(ctes)}
        SELECT base.doc_id, len_text,
               {", ".join(cols)},
               lstat.n_lines, lstat.line_chars,
               lstat.dup_lines, lstat.dup_line_chars,
               {", ".join(rules)},
               (100 * lstat.dup_lines <= {GOPHER_DUP_LINE_PCT}
                * lstat.n_lines) AS rule_dup_lines,
               (100 * lstat.dup_line_chars <= {GOPHER_DUP_LINE_CHAR_PCT}
                * lstat.line_chars) AS rule_dup_line_chars,
               ({" AND ".join(keep_terms)}) AS keep
        FROM base {" ".join(joins)}
    """


def _warc_wat(sf_dir: str):
    """WAT-style metadata-envelope table over the real fixture (W)ARCs
    (Common-Crawl *.warc.wat companion job on the binary input path)."""
    from webarchive_discovery_ray.pipelines.cdx import warc_wat

    return warc_wat(_warc_input_paths())


def _warc_wat_oracle_values_sql() -> str:
    """Sequential-oracle WAT recompute: the INDEPENDENT parser +
    extraction oracle yields each surviving doc's header/link metadata;
    every survivor renders as VALUES(source_file, source_offset, url,
    ts14, record_type, status, mime, content_type_norm, title, n_links,
    links_sha1, wat_json). Only the envelope *formatter* (wat_envelope)
    is shared — the values feeding it come from the independent path."""
    import os

    from webarchive_discovery_ray.config import IndexConfig
    from webarchive_discovery_ray.functions.hashing import sha1_b32
    from webarchive_discovery_ray.oracle.extract_oracle import (
        oracle_extract_record,
    )
    from webarchive_discovery_ray.oracle.warc_oracle import oracle_parse_archive
    from webarchive_discovery_ray.pipelines.cdx import wat_envelope

    def lit(v: object) -> str:
        return "'" + str(v).replace("'", "''") + "'"

    cfg = IndexConfig()
    rows: list[str] = []
    for path in _warc_input_paths():
        with open(path, "rb") as fh:
            data = fh.read()
        for rec in oracle_parse_archive(data, os.path.basename(path)):
            doc = oracle_extract_record(rec, cfg)
            if doc is None:
                continue
            url = doc["url"]
            ts14 = doc["wayback_date"] or ""
            rt = doc["record_type"] or ""
            status = int(doc["status"] or 0)
            mime = doc["content_type_served"] or ""
            ctn = doc["content_type_norm"] or ""
            title = doc["title"] or ""
            links = doc["links"] or []
            rows.append(
                "({}, {}::BIGINT, {}, {}, {}, {}::INTEGER, {}, {}, {},"
                " {}::BIGINT, {}, {})".format(
                    lit(doc["source_file"]),
                    doc["source_offset"],
                    lit(url),
                    lit(ts14),
                    lit(rt),
                    status,
                    lit(mime),
                    lit(ctn),
                    lit(title),
                    len(links),
                    lit(sha1_b32("\n".join(links).encode("utf-8"))),
                    lit(
                        wat_envelope(
                            url, ts14, rt, status, mime, title, len(links)
                        )
                    ),
                )
            )
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(source_file, source_offset, url, ts14, record_type,"
        + " status, mime, content_type_norm, title, n_links, links_sha1,"
        + " wat_json)"
    )


def _warc_anchor(sf_dir: str):
    """Flat anchor-text rows over the real fixture (W)ARCs (binary
    input path)."""
    from webarchive_discovery_ray.pipelines.cdx import warc_anchor

    return warc_anchor(_warc_input_paths())


def _warc_anchor_oracle_values_sql() -> str:
    """Sequential-oracle anchor recompute: the INDEPENDENT parser walks
    every record; 200 text/html payloads go through the same pinned
    anchor_texts kernel + resolve rule (kernel shared like the WAT
    formatter — the record set, payloads and URL base come from the
    independent path)."""
    import os

    from webarchive_discovery_ray.functions.htmlscan import anchor_texts
    from webarchive_discovery_ray.functions.normalisation import (
        resolve_relative,
    )
    from webarchive_discovery_ray.oracle.warc_oracle import oracle_parse_archive

    def lit(v: object) -> str:
        return "'" + str(v).replace("'", "''") + "'"

    rows: list[str] = []
    for path in _warc_input_paths():
        with open(path, "rb") as fh:
            data = fh.read()
        for rec in oracle_parse_archive(data, os.path.basename(path)):
            if rec["status"] != 200 or not (
                rec["mime_served"] or ""
            ).startswith("text/html"):
                continue
            html = rec["payload"].decode("utf-8", "replace")
            for href, text in anchor_texts(html):
                try:
                    target = resolve_relative(rec["url"], href, normalise=True)
                except Exception:
                    continue
                if not target:
                    continue
                rows.append(
                    "({}, {}::BIGINT, {}, {}, {})".format(
                        lit(rec["source_file"]),
                        rec["source_offset"],
                        lit(rec["url"]),
                        lit(target),
                        lit(text),
                    )
                )
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(source_file, source_offset, url, target, text)"
    )


def _warc_host_graph(sf_dir: str):
    """Host->host link graph over the real fixture (W)ARCs: binary read
    -> extraction chain -> the SAME bucketed edge aggregation the
    synthetic-base host_link_graph runs (stats.host_link_graph with a
    real-archive docs Dataset)."""
    from webarchive_discovery_ray.config import IndexConfig
    from webarchive_discovery_ray.pipelines.stats import host_link_graph
    from webarchive_discovery_ray.sources.warc import read_archive_pages
    from webarchive_discovery_ray.stages.extract import ExtractStage

    docs = read_archive_pages(_warc_input_paths()).map_batches(
        ExtractStage(IndexConfig()), batch_format="pyarrow", batch_size=64
    )
    return host_link_graph(docs=docs)


def _warc_host_graph_oracle_values_sql() -> str:
    """Sequential recompute: the INDEPENDENT parser + extraction oracle
    yields each survivor's links_hosts; edges aggregate in plain Python
    and render as VALUES(src_host, dst_host, n_links)."""
    import os
    from collections import Counter

    from webarchive_discovery_ray.config import IndexConfig
    from webarchive_discovery_ray.oracle.extract_oracle import (
        oracle_extract_record,
    )
    from webarchive_discovery_ray.oracle.warc_oracle import oracle_parse_archive

    cfg = IndexConfig()
    edges: Counter = Counter()
    for path in _warc_input_paths():
        with open(path, "rb") as fh:
            data = fh.read()
        for rec in oracle_parse_archive(data, os.path.basename(path)):
            doc = oracle_extract_record(rec, cfg)
            if doc is None:
                continue
            src = doc.get("host") or ""
            for dst in doc.get("links_hosts") or []:
                edges[(src, dst)] += 1

    def lit(v: str) -> str:
        return "'" + v.replace("'", "''") + "'"

    rows = [
        "({}, {}, {}::BIGINT)".format(lit(s), lit(d), n)
        for (s, d), n in sorted(edges.items())
    ]
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(src_host, dst_host, n_links)"
    )


def _warc_media(sf_dir: str):
    """Image-capture sidecar over the real fixture (W)ARCs."""
    from webarchive_discovery_ray.pipelines.cdx import warc_media

    return warc_media(_warc_input_paths())


def _warc_media_oracle_values_sql() -> str:
    """Sequential recompute: the INDEPENDENT parser yields the raw
    records; the same pinned mime gate + header-dimension kernel run on
    its payloads (kernels shared, record set independent)."""
    import os

    from webarchive_discovery_ray.functions.hashing import sha1_b32
    from webarchive_discovery_ray.functions.imagemeta import image_dimensions
    from webarchive_discovery_ray.functions.mime import detect_mime
    from webarchive_discovery_ray.oracle.warc_oracle import oracle_parse_archive

    def lit(v: str) -> str:
        return "'" + v.replace("'", "''") + "'"

    rows = []
    for path in _warc_input_paths():
        with open(path, "rb") as fh:
            data = fh.read()
        for rec in oracle_parse_archive(data, os.path.basename(path)):
            payload = rec["payload"] or b""
            served = rec["mime_served"] or ""
            mime = served if served.startswith("image/") else (
                detect_mime(payload, rec["url"]) or ""
            )
            if not mime.startswith("image/") or rec["status"] != 200:
                continue
            dims = image_dimensions(payload)
            w, h = dims if dims else (-1, -1)
            rows.append(
                "({}, {}::BIGINT, {}, {}, {}, {}::BIGINT, {}::BIGINT,"
                " {}::BIGINT, {})".format(
                    lit(rec["source_file"]),
                    rec["source_offset"],
                    lit(rec["url"]),
                    lit(rec["timestamp14"] or ""),
                    lit(mime),
                    len(payload),
                    int(w),
                    int(h),
                    lit(sha1_b32(payload)),
                )
            )
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(source_file, source_offset, url, ts14, mime, n_bytes,"
        + " width, height, payload_sha1)"
    )


def _warc_robots(sf_dir: str):
    """robots.txt rule census over the real fixture (W)ARCs."""
    from webarchive_discovery_ray.pipelines.cdx import warc_robots

    return warc_robots(_warc_input_paths())


def _warc_robots_oracle_values_sql() -> str:
    """Sequential recompute: the INDEPENDENT parser yields the records;
    the same pinned RFC 9309 rule engine parses its payloads."""
    import hashlib
    import os

    from webarchive_discovery_ray.oracle.warc_oracle import oracle_parse_archive
    from webarchive_discovery_ray.state.robots import (
        ALLOW_PREFIX,
        SITEMAP_PREFIX,
        crawl_delay_of,
        parse_robots,
    )

    def lit(v: str) -> str:
        return "'" + v.replace("'", "''") + "'"

    rows = []
    for path in _warc_input_paths():
        with open(path, "rb") as fh:
            data = fh.read()
        for rec in oracle_parse_archive(data, os.path.basename(path)):
            u = rec["url"] or ""
            path_part = u.split("://", 1)[-1].partition("/")[2]
            if path_part != "robots.txt" or rec["status"] != 200:
                continue
            rules = parse_robots(
                (rec["payload"] or b"").decode("utf-8", "replace")
            )
            cd = crawl_delay_of(rules)
            rows.append(
                "({}, {}::BIGINT, {}, {}, {}::BIGINT, {}::BIGINT,"
                " {}::BIGINT, {}::BIGINT, '{}')".format(
                    lit(rec["source_file"]),
                    rec["source_offset"],
                    lit(u),
                    lit(rec["timestamp14"] or ""),
                    sum(1 for x in rules if x.startswith("/")),
                    sum(1 for x in rules if x.startswith(ALLOW_PREFIX)),
                    -1 if cd is None else int(cd),
                    sum(1 for x in rules if x.startswith(SITEMAP_PREFIX)),
                    hashlib.md5("\x1f".join(rules).encode("utf-8")).hexdigest(),
                )
            )
    if not rows:
        return (
            "SELECT * FROM (VALUES ('', 0::BIGINT, '', '', 0::BIGINT,"
            " 0::BIGINT, 0::BIGINT, 0::BIGINT, '')) AS t(source_file,"
            " source_offset, url, ts14, n_disallow, n_allow, crawl_delay,"
            " n_sitemaps, rules_md5) WHERE 1 = 0"
        )
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(source_file, source_offset, url, ts14, n_disallow,"
        + " n_allow, crawl_delay, n_sitemaps, rules_md5)"
    )


def _warc_file_hash(sf_dir: str):
    """HdfsFileHasher over the real fixture (W)ARCs (chunked SHA-512)."""
    from webarchive_discovery_ray.pipelines.stats import warc_file_hash

    return warc_file_hash(_warc_input_paths())


def _warc_cdx(sf_dir: str):
    """Globally sorted CDX generation over the real fixture (W)ARCs
    (ArchiveCDXGenerator end to end on the binary input path)."""
    from webarchive_discovery_ray.pipelines.cdx import warc_cdx

    return warc_cdx(_warc_input_paths())


def _warc_cdxj(sf_dir: str):
    """Globally sorted CDXJ lines (OutbackCDX/pywb JSON-block format)
    over the real fixture (W)ARCs."""
    from webarchive_discovery_ray.pipelines.cdx import warc_cdxj

    return warc_cdxj(_warc_input_paths())


def _warc_cdxj_oracle_values_sql() -> str:
    """Sequential-oracle captures rendered as CDXJ VALUES (independent
    parse/extract chain; same pinned pywb key order + '-' placeholders
    as pipelines/cdx.warc_cdxj)."""
    import json
    import os

    from webarchive_discovery_ray.config import IndexConfig
    from webarchive_discovery_ray.oracle.extract_oracle import (
        oracle_extract_record,
    )
    from webarchive_discovery_ray.oracle.warc_oracle import oracle_parse_archive

    def lit(v: object) -> str:
        return "'" + str(v).replace("'", "''") + "'"

    cfg = IndexConfig(response_include=())
    rows: list[str] = []
    for path in _warc_input_paths():
        with open(path, "rb") as fh:
            data = fh.read()
        for rec in oracle_parse_archive(data, os.path.basename(path)):
            doc = oracle_extract_record(rec, cfg)
            if doc is None:
                continue
            line = json.dumps(
                {
                    "url": doc["url"],
                    "mime": doc["content_type"] or "-",
                    "status": "-" if doc["status"] is None else str(doc["status"]),
                    "digest": doc["hash"] or "-",
                    "length": (
                        "-" if doc["content_length"] is None
                        else str(doc["content_length"])
                    ),
                    "offset": str(doc["source_offset"]),
                    "filename": doc["source_file"],
                },
                separators=(", ", ": "),
            )
            rows.append(
                "({}, {}, {})".format(
                    lit(doc["surt"]), lit(doc["wayback_date"] or ""), lit(line)
                )
            )
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(surt_key, timestamp14, cdxj)"
    )


def _warc_stats(sf_dir: str):
    """WARCStatsTool raw-record census over the real fixture (W)ARCs."""
    from webarchive_discovery_ray.pipelines.cdx import warc_stats

    return warc_stats(_warc_input_paths())


def _warc_corpus(sf_dir: str):
    """Real (W)ARCs -> interleaved docs -> packed training sequences."""
    from webarchive_discovery_ray.pipelines.cdx import warc_corpus

    return warc_corpus(_warc_input_paths())


def _oracle_sf_dir() -> str:
    """Scale for driver-side VALUES oracles: the driver's correctness run
    is sf0.01; the in-repo contract test overrides via WDR_ORACLE_SF_DIR
    to compare both sides at its own (smaller) scale."""
    import os

    return os.environ.get("WDR_ORACLE_SF_DIR", "/root/testdata/sf0.01")


def _bpe_merges_sequential(
    sf_dir: str, n_merges: int = 8
) -> list[tuple[int, str, str, int]]:
    """Sequential BPE merge-training recompute (plain Counter over the
    whole corpus — no word-table compression, no distributed exchanges).
    Independent of the Ray path's shape; shares only the spec: merge the
    most frequent adjacent symbol pair, ties to the lexicographically
    smallest (left, right), apply left-to-right non-overlapping."""
    from collections import Counter

    import pyarrow.parquet as pq

    texts = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )["text"].to_pylist()
    word_n: Counter = Counter()
    for t in texts:
        word_n.update(t.split())
    words = {tuple(w) + ("</w>",): n for w, n in word_n.items()}
    out: list[tuple[int, str, str, int]] = []
    for step in range(1, n_merges + 1):
        pairs: Counter = Counter()
        for sym, n in words.items():
            for a, b in zip(sym, sym[1:]):
                pairs[(a, b)] += n
        if not pairs:
            break
        (left, right), n = min(
            pairs.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1])
        )
        out.append((step, left, right, n))
        new_words: dict = {}
        for sym, wn in words.items():
            res = []
            i = 0
            while i < len(sym):
                if i + 1 < len(sym) and sym[i] == left and sym[i + 1] == right:
                    res.append(left + right)
                    i += 2
                else:
                    res.append(sym[i])
                    i += 1
            key = tuple(res)
            new_words[key] = new_words.get(key, 0) + wn
        words = new_words
    return out


def _bpe_oracle_values_sql(sf_dir: str | None = None) -> str:
    """Sequential BPE training rendered as VALUES(step, left, right, n)."""
    sf_dir = sf_dir or _oracle_sf_dir()
    _q = lambda v: "'" + str(v).replace("'", "''") + "'"
    rows = [
        f"({step}::BIGINT, {_q(left)}, {_q(right)}, {n}::BIGINT)"
        for step, left, right, n in _bpe_merges_sequential(sf_dir)
    ]
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ') AS t(step, "left", "right", n)'
    )


def _bpe_encode_oracle_values_sql(sf_dir: str | None = None) -> str:
    """Sequential recompute of bpe_encode's deterministic output: train
    merges sequentially, tokenize every doc word-by-word with the same
    in-order non-overlapping merge application, render VALUES(doc_id,
    n_tokens, n_merged)."""
    import pyarrow.parquet as pq

    sf_dir = sf_dir or _oracle_sf_dir()
    merges = [
        (l, r) for _, l, r, _ in _bpe_merges_sequential(sf_dir)
    ]
    tbl = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    memo: dict = {}

    def enc(word: str) -> tuple[int, int]:
        st = memo.get(word)
        if st is None:
            parts = list(word) + ["</w>"]
            for left, right in merges:
                res, i = [], 0
                while i < len(parts):
                    if (
                        i + 1 < len(parts)
                        and parts[i] == left
                        and parts[i + 1] == right
                    ):
                        res.append(left + right)
                        i += 2
                    else:
                        res.append(parts[i])
                        i += 1
                parts = res
            st = (
                len(parts),
                sum(1 for p in parts if len(p) > 1 and p != "</w>"),
            )
            memo[word] = st
        return st

    rows = []
    for doc_id, text in zip(
        tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()
    ):
        nt = nm = 0
        for w in text.split():
            a, b = enc(w)
            nt += a
            nm += b
        rows.append(f"({int(doc_id)}::BIGINT, {nt}::BIGINT, {nm}::BIGINT)")
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(doc_id, n_tokens, n_merged)"
    )


def _tokenizer_efficiency_oracle_values_sql(sf_dir: str | None = None) -> str:
    """Sequential recompute of tokenizer_efficiency: same sequential
    merges + word encode as the bpe_encode oracle, aggregated per
    source, rendered as VALUES(source, n_bytes, n_tokens,
    bytes_per_token_r)."""
    import numpy as np
    import pyarrow.parquet as pq

    sf_dir = sf_dir or _oracle_sf_dir()
    merges = [(l, r) for _, l, r, _ in _bpe_merges_sequential(sf_dir)]
    tbl = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )
    memo: dict = {}

    def enc_len(word: str) -> int:
        st = memo.get(word)
        if st is None:
            parts = list(word) + ["</w>"]
            for left, right in merges:
                res, i = [], 0
                while i < len(parts):
                    if (
                        i + 1 < len(parts)
                        and parts[i] == left
                        and parts[i + 1] == right
                    ):
                        res.append(left + right)
                        i += 2
                    else:
                        res.append(parts[i])
                        i += 1
                parts = res
            st = len(parts)
            memo[word] = st
        return st

    agg: dict[str, list[int]] = {}
    for src, text in zip(tbl["source"].to_pylist(), tbl["text"].to_pylist()):
        a = agg.setdefault(src, [0, 0])
        a[0] += len(text.encode("utf-8"))
        a[1] += sum(enc_len(w) for w in text.split())
    rows = []
    for src in sorted(agg):
        nb, nt = agg[src]
        r = round(float(np.float64(nb) / np.float64(max(nt, 1))), 6) if nt > 0 else 0.0
        rows.append(
            "('" + src.replace("'", "''") + f"', {nb}::BIGINT, {nt}::BIGINT, "
            f"{r!r}::DOUBLE)"
        )
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(source, n_bytes, n_tokens, bytes_per_token_r)"
    )


def _pq_cosine_oracle_values_sql(sf_dir: str | None = None) -> str:
    """Sequential recompute of pq_cosine_topk's deterministic output
    (same codebook-training rule on the bounded slice, whole-corpus
    encode + ADC scoring in one numpy pass) as VALUES(query_vec_id,
    vec_id, rank)."""
    import numpy as np
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.similarity import (
        _pq_train_codebooks,
        _query_matrix,
    )

    sf_dir = sf_dir or _oracle_sf_dir()
    k, n_queries, m, ks, train_max_id, n_iter = 5, 8, 4, 16, 256, 5
    tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids = np.asarray(tbl["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.stack(
        [np.asarray(v, dtype=np.float64) for v in tbl["embedding"].to_pylist()]
    )
    nn = np.linalg.norm(mat, axis=1)
    nn[nn == 0] = 1.0
    mat = mat / nn[:, None]
    order0 = np.argsort(ids, kind="stable")
    train = mat[order0][ids[order0] < train_max_id]
    books = _pq_train_codebooks(train, m, ks, n_iter)
    qids, qmat = _query_matrix(sf_dir, n_queries)
    sub = mat.shape[1] // m
    codes = np.empty((len(ids), m), dtype=np.int64)
    for s in range(m):
        x = mat[:, s * sub : (s + 1) * sub]
        d2 = (
            (x * x).sum(axis=1, keepdims=True)
            - 2.0 * x @ books[s].T
            + (books[s] * books[s]).sum(axis=1)
        )
        codes[:, s] = d2.argmin(axis=1)
    rows = []
    for qi, qid in enumerate(qids):
        lut = np.einsum("mkd,md->mk", books, qmat[qi].reshape(m, sub))
        score = np.round(lut[np.arange(m)[None, :], codes].sum(axis=1), 6)
        order = np.lexsort((ids, -score))[: min(k, len(ids))]
        for rank, i in enumerate(order, 1):
            rows.append(f"({int(qid)}, {int(ids[i])}, {rank}::BIGINT)")
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(query_vec_id, vec_id, rank)"
    )


def _ivfpq_cosine_oracle_values_sql(sf_dir: str | None = None) -> str:
    """Sequential recompute of ivfpq_cosine_topk's deterministic output:
    same bounded-slice two-level training (coarse Lloyd's + residual PQ),
    then ONE whole-corpus assign/encode/ADC-score pass (vs the Ray path's
    per-batch partial top-k + grouped fold — the partial top-k provably
    contains the global top-k under the (score desc, vec_id asc) total
    order). Rendered as VALUES(query_vec_id, vec_id, rank)."""
    import numpy as np
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.similarity import (
        _ivfpq_encode_score,
        _ivfpq_train,
        _query_matrix,
    )

    sf_dir = sf_dir or _oracle_sf_dir()
    k, n_queries, n_probe = 5, 8, 3
    m, ks, n_cells, train_max_id, n_iter = 4, 16, 8, 256, 5
    tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids = np.asarray(tbl["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.stack(
        [np.asarray(v, dtype=np.float64) for v in tbl["embedding"].to_pylist()]
    )
    nn = np.linalg.norm(mat, axis=1)
    nn[nn == 0] = 1.0
    mat = mat / nn[:, None]
    order0 = np.argsort(ids, kind="stable")
    train = mat[order0][ids[order0] < train_max_id]
    cells, books = _ivfpq_train(train, n_cells, m, ks, n_iter)
    qids, qmat = _query_matrix(sf_dir, n_queries)
    probe: dict[int, set] = {}
    for qi, qid in enumerate(qids):
        sims = np.round(cells @ qmat[qi], 6)
        order = np.lexsort((np.arange(len(cells)), -sims))[:n_probe]
        probe[int(qid)] = set(int(c) for c in order)
    scored = _ivfpq_encode_score(mat, ids, cells, books, qids, qmat, probe, k)
    rows = []
    rank_by_q: dict[int, int] = {}
    for r in scored:  # already (score desc, vec_id asc) within each query
        q = r["query_vec_id"]
        rank_by_q[q] = rank_by_q.get(q, 0) + 1
        rows.append(f"({q}, {r['vec_id']}, {rank_by_q[q]}::BIGINT)")
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(query_vec_id, vec_id, rank)"
    )


def _knn_graph_oracle_values_sql(sf_dir: str | None = None) -> str:
    """Sequential recompute of knn_graph's deterministic output
    (pipelines/similarity.knn_graph): medoid reps = min-vec_id member
    per label cell; per-vector probe of the n_probe nearest cells under
    (-cos6, label asc); exact rounded cosines over probed-cell members
    excluding self; top-k under (-cos6, dst id). Rendered as
    VALUES(src_vec_id, dst_vec_id, rank, cos_sim)."""
    import numpy as np
    import pyarrow.parquet as pq

    k, n_probe = 3, 2
    sf_dir = sf_dir or _oracle_sf_dir()
    tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )
    ids = np.asarray(tbl["vec_id"].to_pylist(), dtype=np.int64)
    labels = np.asarray(tbl["label"].to_pylist(), dtype=np.int64)
    mat = np.stack(
        [np.asarray(v, dtype=np.float64) for v in tbl["embedding"].to_pylist()]
    )
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    mat = mat / norms[:, None]
    cells = np.unique(labels)
    rep_idx = np.array(
        [int(np.flatnonzero(labels == c)[np.argmin(ids[labels == c])]) for c in cells]
    )
    rep_mat = mat[rep_idx]
    n_cells = len(cells)
    probe_n = min(n_probe, n_cells)
    sims_rep = np.round(mat @ rep_mat.T, 6)
    key = np.rint(-sims_rep * 1_000_000).astype(np.int64) * n_cells + np.arange(
        n_cells, dtype=np.int64
    )
    probed = np.argsort(key, axis=1, kind="stable")[:, :probe_n]
    rows = []
    for i in range(len(ids)):
        cand = np.zeros(len(ids), dtype=bool)
        for p in probed[i]:
            cand |= labels == cells[p]
        cand[i] = False
        cand &= ids != ids[i]
        cidx = np.flatnonzero(cand)
        if not len(cidx):
            continue
        cos6 = np.round(mat[cidx] @ mat[i], 6)
        order = np.lexsort((ids[cidx], -cos6))[:k]
        for rank, j in enumerate(order, 1):
            rows.append(
                f"({ids[i]}, {ids[cidx[j]]}, {rank}::BIGINT, "
                f"{cos6[j]:.6f}::DOUBLE)"
            )
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(src_vec_id, dst_vec_id, rank, cos_sim)"
    )


def _lsh_cosine_oracle_values_sql(sf_dir: str | None = None) -> str:
    """Sequential recompute of lsh_cosine_topk's deterministic output at
    the driver's correctness scale, rendered as VALUES(query_vec_id,
    vec_id, rank). Global single-pass version of the same algorithm: one
    code matrix over the whole corpus, per-query multiprobe mask, exact
    cosines on survivors, (cos desc, vec_id asc) top-k."""
    import itertools

    import numpy as np
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.similarity import (
        _LSH_BITS,
        _LSH_MAX_HAMMING,
        _LSH_TABLES,
        _lsh_codes,
        _lsh_planes,
        _query_matrix,
    )

    sf_dir = sf_dir or _oracle_sf_dir()
    k, n_queries = 5, 8
    tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids = np.asarray(tbl["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.stack(
        [np.asarray(v, dtype=np.float64) for v in tbl["embedding"].to_pylist()]
    )
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    mat = mat / norms[:, None]
    qids, qmat = _query_matrix(sf_dir, n_queries)
    planes = _lsh_planes(qmat.shape[1], _LSH_BITS, _LSH_TABLES)
    qcodes = _lsh_codes(qmat, planes, _LSH_BITS)
    codes = _lsh_codes(mat, planes, _LSH_BITS)
    flips = [np.uint32(0)]
    for r in range(1, _LSH_MAX_HAMMING + 1):
        for combo in itertools.combinations(range(_LSH_BITS), r):
            m = np.uint32(0)
            for b in combo:
                m |= np.uint32(1) << np.uint32(b)
            flips.append(m)
    rows = []
    for qi, qid in enumerate(qids):
        mask = np.zeros(len(ids), dtype=bool)
        for t in range(_LSH_TABLES):
            pset = [int(qcodes[qi, t] ^ f) for f in flips]
            mask |= np.isin(codes[:, t], pset)
        if not mask.any():
            continue
        col = np.round(mat[mask] @ qmat[qi], 6)
        sel_ids = ids[mask]
        order = np.lexsort((sel_ids, -col))[: min(k, len(sel_ids))]
        for rank, i in enumerate(order, 1):
            rows.append(f"({int(qid)}, {int(sel_ids[i])}, {rank}::BIGINT)")
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(query_vec_id, vec_id, rank)"
    )


def _file_digest_oracle_values_sql(sf_dir: str | None = None) -> str:
    """Whole-file digests recomputed directly with hashlib (one-shot,
    driver-side) as VALUES — verifies the distributed per-file read path
    end to end. sf0.01 is the driver's correctness scale (same assumption
    as _ensure_oracle_materializations)."""
    import hashlib
    import os

    sf_dir = sf_dir or _oracle_sf_dir()
    rows = []
    for f in sorted(os.listdir(sf_dir)):
        if not f.endswith(".parquet"):
            continue
        data = open(os.path.join(sf_dir, f), "rb").read()
        rows.append(
            f"('{f}', '{hashlib.sha1(data).hexdigest()}', {len(data)}::BIGINT)"
        )
    return (
        "SELECT * FROM (VALUES " + ", ".join(rows) + ") AS t(path, sha1, bytes)"
    )


def _warc_file_hash_oracle_values_sql() -> str:
    """HdfsFileHasher lines recomputed one-shot with hashlib as VALUES —
    verifies the chunked streaming digest + line format."""
    import hashlib

    rows = []
    for p in _warc_input_paths():
        data = open(p, "rb").read()
        hx = hashlib.sha512(data).hexdigest()
        line = f"{hx} {len(data)} {p}"
        rows.append(
            f"('{p}', '{hx}', {len(data)}::BIGINT, '{line}')"
        )
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ') AS t(path, hex, bytes, "line")'
    )


def _warc_corpus_oracle_values_sql() -> str:
    """Per-doc span costs from the INDEPENDENT parse+extract oracle as
    VALUES; the concat-and-chunk packing (doc_id-ordered prefix sum +
    context binning) is recomputed by SQL window functions."""
    import os

    from webarchive_discovery_ray.config import IndexConfig
    from webarchive_discovery_ray.oracle.extract_oracle import (
        oracle_extract_record,
    )
    from webarchive_discovery_ray.oracle.warc_oracle import oracle_parse_archive

    def lit(v: str) -> str:
        return "'" + v.replace("'", "''") + "'"

    cfg = IndexConfig()
    rows: list[str] = []
    for path in _warc_input_paths():
        with open(path, "rb") as fh:
            data = fh.read()
        for rec in oracle_parse_archive(data, os.path.basename(path)):
            doc = oracle_extract_record(rec, cfg)
            if doc is None:
                continue
            text_tok = sum(
                len(s["text"].split()) if s["text"] else 0
                for s in doc["spans"]
                if s["kind"] == "text"
            )
            n_media = sum(1 for s in doc["spans"] if s["kind"] == "media")
            key = (
                f"{doc['doc_id']}@{doc['source_file']}:{doc['source_offset']}"
            )
            rows.append(f"({lit(key)}, {text_tok}::BIGINT, {n_media}::BIGINT)")
    return (
        "WITH base AS (SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(doc_id, n_text_tokens, n_media_spans)),"
        + """
        w AS (
            SELECT doc_id, n_text_tokens, n_media_spans,
                   n_text_tokens + 64 * n_media_spans AS n_tokens
            FROM base
        ),
        o AS (
            SELECT *, CAST(COALESCE(sum(n_tokens) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                   ), 0) AS BIGINT) AS tok_offset
            FROM w
        )
        SELECT doc_id, n_text_tokens, n_media_spans, n_tokens, tok_offset,
               tok_offset // 512 AS bin_start,
               CASE WHEN n_tokens > 0
                    THEN (tok_offset + n_tokens - 1) // 512
                    ELSE tok_offset // 512 END AS bin_end
        FROM o
        """
    )


def _warc_regex(sf_dir: str):
    """WARCRegexIndexer URL-pattern grep over the real fixtures."""
    from webarchive_discovery_ray.pipelines.cdx import warc_regex

    return warc_regex(_warc_input_paths())


def _warc_regex_oracle_values_sql() -> str:
    """Sequential-oracle regex emissions as VALUES; SELECT DISTINCT plays
    the WARCRegexReducer's set semantics."""
    import os
    import re as _re

    from webarchive_discovery_ray.oracle.warc_oracle import oracle_parse_archive
    from webarchive_discovery_ray.pipelines.cdx import WARC_REGEX_PATTERN

    def lit(v: str) -> str:
        return "'" + v.replace("'", "''") + "'"

    rx = _re.compile(WARC_REGEX_PATTERN)
    rows: list[str] = []
    for path in _warc_input_paths():
        with open(path, "rb") as fh:
            data = fh.read()
        for rec in oracle_parse_archive(data, os.path.basename(path)):
            key = rec["timestamp14"] + "/" + (
                rec["url"] if rec["url"] is not None else "null"
            )
            text = bytes(rec["payload"])[: 1 << 20].decode("utf-8", errors="replace")
            for m in set(rx.findall(text)):
                # same unicode_escape emission contract as the Ray op
                rows.append(
                    f"({lit(key)}, {lit(m.encode('unicode_escape').decode('ascii'))})"
                )
    return (
        'SELECT DISTINCT "key", "match" FROM (VALUES '
        + ", ".join(rows)
        + ') AS t("key", "match")'
    )


def _warc_datasets(sf_dir: str):
    """WARCDatasetGenerator multi-facet datasets over the real fixtures."""
    from webarchive_discovery_ray.pipelines.cdx import warc_datasets

    return warc_datasets(_warc_input_paths())


def _warc_datasets_oracle_values_sql() -> str:
    """Sequential-oracle facet emissions as VALUES; GROUP BY plays the
    FrequencyCountingReducer."""
    import os

    from webarchive_discovery_ray.config import IndexConfig
    from webarchive_discovery_ray.oracle.extract_oracle import (
        oracle_extract_record,
    )
    from webarchive_discovery_ray.oracle.warc_oracle import oracle_parse_archive

    def lit(v: str) -> str:
        return "'" + v.replace("'", "''") + "'"

    cfg = IndexConfig()
    rows: list[str] = []

    def emit(dataset: str, item: str) -> None:
        rows.append(f"({lit(dataset)}, {lit(item)})")

    for path in _warc_input_paths():
        with open(path, "rb") as fh:
            data = fh.read()
        for rec in oracle_parse_archive(data, os.path.basename(path)):
            doc = oracle_extract_record(rec, cfg)
            if doc is None:
                continue
            year = (doc["wayback_date"] or "")[:4]
            emit(f"hosts__{year}", doc["host"] or "")
            emit(
                f"formats__{year}",
                "\t".join(
                    (doc["content_type_served"] or "",
                     doc["content_type_tika"] or "",
                     doc["content_type"] or "")
                ),
            )
            for dst in doc["links_hosts"] or []:
                emit(f"host_links__{year}", (doc["host"] or "") + "\t" + dst)
    return (
        "SELECT dataset, item, count(*) AS n FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(dataset, item) GROUP BY 1, 2"
    )


def _warc_cdx_oracle_values_sql() -> str:
    """Sequential-oracle captures rendered as a VALUES table (same
    independent parse/extract chain as warc_extract, projected onto the
    CDX capture columns with the all-statuses CDX config)."""
    import os

    from webarchive_discovery_ray.config import IndexConfig
    from webarchive_discovery_ray.oracle.extract_oracle import (
        oracle_extract_record,
    )
    from webarchive_discovery_ray.oracle.warc_oracle import oracle_parse_archive

    def lit(v: object) -> str:
        return "'" + str(v).replace("'", "''") + "'"

    cfg = IndexConfig(response_include=())
    rows: list[str] = []
    for path in _warc_input_paths():
        with open(path, "rb") as fh:
            data = fh.read()
        for rec in oracle_parse_archive(data, os.path.basename(path)):
            doc = oracle_extract_record(rec, cfg)
            if doc is None:
                continue
            rows.append(
                "({}, {}, {}, {}, {}::INTEGER, {}, {}::BIGINT, {}::BIGINT, {}, {})".format(
                    lit(doc["surt"]),
                    lit(doc["wayback_date"] or ""),
                    lit(doc["url"]),
                    lit(doc["content_type"] or "-"),
                    "NULL" if doc["status"] is None else doc["status"],
                    lit(doc["hash"] or "-"),
                    "NULL" if doc["content_length"] is None else doc["content_length"],
                    doc["source_offset"],
                    lit(doc["source_file"]),
                    lit(doc["record_type"]),
                )
            )
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ') AS t(surt_key, timestamp14, url, mime, status, digest,'
        + ' "length", "offset", filename, record_type)'
    )


def _warc_dedup_paths() -> list[str]:
    """Input fixture for the offline dedup pass: the shared (W)ARC
    fixture plus three appended deterministic captures, two sharing a
    payload — a collection with REAL duplicates regardless of which
    fixture (reference or synthetic) is present."""
    from webarchive_discovery_ray.oracle.warc_oracle import build_synthetic_warc_gz
    from webarchive_discovery_ray.sources.warc import build_response_member

    # synthetic base only: the reference fixture set mixes gzip and
    # plain ARC files, which cannot concatenate into one member
    # stream — and the dedup input must be ONE deterministic file
    extra = (
        build_response_member("http://dup.example/a", "20200101000000",
                              200, "text/html", b"<html>same body</html>")
        + build_response_member("http://dup.example/b", "20200102000000",
                                200, "text/html", b"<html>same body</html>")
        + build_response_member("http://uniq.example/c", "20200103000000",
                                200, "text/html", b"<html>other</html>")
    )
    return [_materialize_bytes("dedup_input.warc.gz", build_synthetic_warc_gz() + extra)]


def _warc_dedup_census(sf_dir: str):
    """Offline storage dedup END-TO-END (pipelines/cdx.warc_deduplicate):
    run the revisit-minting rewrite over the duplicate-bearing fixture,
    parse the OUTPUT back with the repo's own reader, and report the
    per-record-type census + how many revisits resolve by digest join
    against the stored responses."""
    import os
    import shutil

    import pandas as pd

    from webarchive_discovery_ray.functions.hashing import sha1_b32
    from webarchive_discovery_ray.pipelines.cdx import warc_deduplicate
    from webarchive_discovery_ray.sources.warc import parse_archive_bytes

    out_dir = f"{_ORACLE_MAT}/dedup_output"
    shutil.rmtree(out_dir, ignore_errors=True)
    written = warc_deduplicate(_warc_dedup_paths(), out_dir)
    rows = []
    for p in written:
        with open(p, "rb") as fh:
            rows.extend(parse_archive_bytes(fh.read(), os.path.basename(p)))
    stored = {
        sha1_b32(r["payload"] or b"").split(":", 1)[-1]
        for r in rows
        if r["record_type"] == "response" and r["status"] == 200
    }
    counts: dict[str, list[int]] = {}
    for r in rows:
        c = counts.setdefault(r["record_type"], [0, 0])
        c[0] += 1
        if r["record_type"] == "revisit" and r["payload_sha1"] in stored:
            c[1] += 1
    return pd.DataFrame(
        {
            "record_type": sorted(counts),
            "n": pd.Series([counts[k][0] for k in sorted(counts)], dtype="int64"),
            "n_resolved": pd.Series(
                [counts[k][1] for k in sorted(counts)], dtype="int64"
            ),
        }
    )


def _warc_dedup_census_oracle_values_sql() -> str:
    """Independent sequential mirror: oracle parser over the SAME input
    bytes + the pinned first-wins rule decide the expected output
    stream; the census renders as VALUES."""
    import os

    from webarchive_discovery_ray.functions.hashing import sha1_b32
    from webarchive_discovery_ray.oracle.warc_oracle import oracle_parse_archive

    recs = []
    for p in _warc_dedup_paths():
        with open(p, "rb") as fh:
            recs.extend(oracle_parse_archive(fh.read(), os.path.basename(p)))
    recs.sort(key=lambda r: (r["source_file"], r["source_offset"]))
    seen: set[str] = set()
    counts: dict[str, list[int]] = {}
    stored: set[str] = set()
    out_stream = []
    for r in recs:
        if not r["url"] or r["status"] is None:
            continue  # aux streams dropped by the rewrite
        if r["record_type"] == "revisit":
            out_stream.append(("revisit", r["payload_sha1"]))
            continue
        h = sha1_b32(r["payload"] or b"").split(":", 1)[-1]
        if r["record_type"] == "response" and r["status"] == 200:
            if h in seen:
                out_stream.append(("revisit", h))
                continue
            seen.add(h)
            stored.add(h)
        # non-http(s) captures re-serialise as `resource` records —
        # mirror the writer's record-type rule
        rt = "response" if r["url"].startswith("http") else "resource"
        out_stream.append((rt, None))
    for rt, h in out_stream:
        c = counts.setdefault(rt, [0, 0])
        c[0] += 1
        if rt == "revisit" and h in stored:
            c[1] += 1
    rows = [
        f"('{k}', {counts[k][0]}::BIGINT, {counts[k][1]}::BIGINT)"
        for k in sorted(counts)
    ]
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(record_type, n, n_resolved)"
    )


def _warc_digest_dups(sf_dir: str):
    """Duplicate-content census over the real fixture (W)ARCs."""
    from webarchive_discovery_ray.pipelines.cdx import warc_digest_dups

    return warc_digest_dups(_warc_input_paths())


def _warc_digest_dups_oracle_values_sql() -> str:
    """Independent sequential parser+extractor (hash, url) emissions as
    VALUES; SQL plays the grouped fold (HAVING count(*) > 1)."""
    import os

    from webarchive_discovery_ray.config import IndexConfig
    from webarchive_discovery_ray.oracle.extract_oracle import (
        oracle_extract_record,
    )
    from webarchive_discovery_ray.oracle.warc_oracle import oracle_parse_archive

    def lit(v: object) -> str:
        return "'" + str(v).replace("'", "''") + "'"

    cfg = IndexConfig()
    rows: list[str] = []
    for path in _warc_input_paths():
        with open(path, "rb") as fh:
            data = fh.read()
        for rec in oracle_parse_archive(data, os.path.basename(path)):
            doc = oracle_extract_record(rec, cfg)
            if doc is None or not doc["hash"]:
                continue
            rows.append(f"({lit(doc['hash'])}, {lit(doc['url'])})")
    return (
        "SELECT hash, count(*)::BIGINT AS n,"
        " count(DISTINCT url)::BIGINT AS n_urls, min(url) AS first_url"
        " FROM (VALUES " + ", ".join(rows) + ") AS t(hash, url)"
        " GROUP BY hash HAVING count(*) > 1"
    )


def _warc_stats_oracle_values_sql() -> str:
    """Sequential-oracle WARCStatsMapper emissions as VALUES; the SQL
    GROUP BY plays the FrequencyCountingReducer."""
    import os

    from webarchive_discovery_ray.oracle.warc_oracle import oracle_stats_items

    def lit(v: str) -> str:
        return "'" + v.replace("'", "''") + "'"

    rows: list[str] = []
    for path in _warc_input_paths():
        with open(path, "rb") as fh:
            data = fh.read()
        for cat, item in oracle_stats_items(data, os.path.basename(path)):
            rows.append(f"({lit(cat)}, {lit(item)})")
    return (
        "SELECT category, item, count(*) AS n FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(category, item) GROUP BY 1, 2"
    )


def _recrawl_schedule(sf_dir: str):
    """Per-SURT recrawl schedule over the same materialized captures."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.cdx import recrawl_schedule

    if not os.path.isdir(f"{_ORACLE_MAT}/captures"):
        _cdx(sf_dir)
    return recrawl_schedule(rd.read_parquet(f"{_ORACLE_MAT}/captures"))


def _recrawl_seed_list(sf_dir: str):
    """Closed crawl loop: the NEXT crawl's prioritized seed list from the
    LAST crawl's capture history (recrawl intervals) + host PageRank."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.cdx import recrawl_seed_list
    from webarchive_discovery_ray.pipelines.stats import host_pagerank

    if not os.path.isdir(f"{_ORACLE_MAT}/captures"):
        _cdx(sf_dir)
    _host_link_graph_base()
    ranks = host_pagerank(docs=rd.read_parquet(f"{_ORACLE_MAT}/link_base"))
    return recrawl_seed_list(rd.read_parquet(f"{_ORACLE_MAT}/captures"), ranks)


def _url_templates(sf_dir: str):
    """Top-k URL path templates over the SAME materialized captures
    table the cdx oracle reads."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.cdx import url_templates

    if not os.path.isdir(f"{_ORACLE_MAT}/captures"):
        _cdx(sf_dir)
    return url_templates(rd.read_parquet(f"{_ORACLE_MAT}/captures"))


def _capture_intervals(sf_dir: str):
    """Per-SURT capture-history stats over the SAME materialized captures
    table the cdx oracle reads."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.cdx import capture_intervals

    if not os.path.isdir(f"{_ORACLE_MAT}/captures"):
        _cdx(sf_dir)
    return capture_intervals(rd.read_parquet(f"{_ORACLE_MAT}/captures"))


def _cdx_collapse(sf_dir: str):
    """pywb/OutbackCDX collapse=digest over the SAME materialized
    captures table the cdx oracle reads."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.cdx import cdx_collapse

    if not os.path.isdir(f"{_ORACLE_MAT}/captures"):
        _cdx(sf_dir)
    return cdx_collapse(rd.read_parquet(f"{_ORACLE_MAT}/captures"))


def _capture_diff(sf_dir: str):
    """Consecutive-capture change detection over the SAME materialized
    captures table the cdx oracle reads."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.cdx import capture_diff

    if not os.path.isdir(f"{_ORACLE_MAT}/captures"):
        _cdx(sf_dir)
    return capture_diff(rd.read_parquet(f"{_ORACLE_MAT}/captures"))


def _neardup_clusters(sf_dir: str):
    """Connected components over the MinHash-LSH pair graph. The verified
    pair list materializes to parquet so the DuckDB oracle can recompute
    reachability with a recursive CTE over the SAME edge set."""
    import shutil

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.dedup import (
        minhash_lsh_pairs,
        neardup_clusters,
    )
    from webarchive_discovery_ray.sources.io import read_table

    out = f"{_ORACLE_MAT}/neardup_pairs"
    shutil.rmtree(out, ignore_errors=True)
    minhash_lsh_pairs(sf_dir).map_batches(
        lambda b: b.select(["doc_a", "doc_b"]), batch_format="pyarrow"
    ).write_parquet(out)
    import glob
    import os

    if not glob.glob(f"{out}/*.parquet"):  # empty pair set still needs a file
        import pyarrow.parquet as pq

        os.makedirs(out, exist_ok=True)
        empty = pa.table(
            {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())}
        )
        pq.write_table(empty, f"{out}/empty.parquet")
    nodes = read_table(sf_dir, "documents", columns=["doc_id"])
    return neardup_clusters(rd.read_parquet(out), nodes)


def _neardup_dedup_apply(sf_dir: str):
    """Fuzzy-dedup APPLY: min-id representative per MinHash component,
    with component size and the kept doc's md5 — uses the SAME
    materialized pair set as neardup_clusters so the DuckDB oracle can
    replay reachability and the content hash."""
    from webarchive_discovery_ray.pipelines.dedup import neardup_dedup_apply
    from webarchive_discovery_ray.sources.io import read_table

    clusters = _neardup_clusters(sf_dir)
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return neardup_dedup_apply(clusters, docs)


def _label_propagation(sf_dir: str):
    """kNN majority-vote label transfer: the knn_graph edge set
    materializes to parquet so the DuckDB oracle can replay the vote
    over the SAME edges (the neardup_pairs mechanism)."""
    import glob
    import os
    import shutil

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.similarity import (
        knn_graph,
        label_propagation,
    )
    from webarchive_discovery_ray.sources.io import read_table

    out = f"{_ORACLE_MAT}/knn_edges"
    shutil.rmtree(out, ignore_errors=True)
    knn_graph(sf_dir).map_batches(
        lambda b: b.select(["src_vec_id", "dst_vec_id"]), batch_format="pyarrow"
    ).write_parquet(out)
    if not glob.glob(f"{out}/*.parquet"):
        import pyarrow.parquet as pq

        os.makedirs(out, exist_ok=True)
        empty = pa.table(
            {
                "src_vec_id": pa.array([], pa.int64()),
                "dst_vec_id": pa.array([], pa.int64()),
            }
        )
        pq.write_table(empty, f"{out}/empty.parquet")
    labels = read_table(sf_dir, "embeddings", columns=["vec_id", "label"])
    return label_propagation(rd.read_parquet(out), labels)


def _cluster_representatives(sf_dir: str):
    """Quality-argmax representative per near-dup cluster: composes the
    SAME materialized pair set as neardup_clusters with the
    quality_score distinct ratio, so the DuckDB oracle replays both."""
    from webarchive_discovery_ray.pipelines.dedup import cluster_representatives
    from webarchive_discovery_ray.pipelines.textops import quality_score

    clusters = _neardup_clusters(sf_dir)
    quality = quality_score(sf_dir)
    return cluster_representatives(clusters, quality)


def _media_features(sf_dir: str):
    import ray.data as rd

    from webarchive_discovery_ray.config import SyntheticConfig
    from webarchive_discovery_ray.schema import PAGES_SCHEMA
    from webarchive_discovery_ray.sources.synthetic import fixture_pages
    from webarchive_discovery_ray.stages.multimodal import MediaFeatureStage

    rows = [
        r
        for r in fixture_pages(600, SyntheticConfig())
        if r["mime_served"].split("/")[0] in ("image", "audio", "video")
        or r["mime_served"] == "application/pdf"
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows, schema=PAGES_SCHEMA))
    return ds.map_batches(
        MediaFeatureStage, batch_format="pyarrow", batch_size=64, concurrency=2
    )


def _pdf_preflight(sf_dir: str):
    """M26: structural PDF/A preflight over the fixture's PDF payloads."""
    import ray.data as rd

    from webarchive_discovery_ray.config import SyntheticConfig
    from webarchive_discovery_ray.schema import PAGES_SCHEMA
    from webarchive_discovery_ray.sources.synthetic import fixture_pages
    from webarchive_discovery_ray.stages.multimodal import PdfPreflightStage

    rows = [
        r
        for r in fixture_pages(600, SyntheticConfig())
        if r["mime_served"] == "application/pdf"
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows, schema=PAGES_SCHEMA))
    return ds.map_batches(
        PdfPreflightStage, batch_format="pyarrow", batch_size=64, concurrency=2
    )


def _annotation_rules() -> dict:
    """The J1 rule set used by BOTH the Ray query and the SQL oracle
    (literals derived deterministically from the synthetic host list)."""
    from webarchive_discovery_ray.config import SyntheticConfig
    from webarchive_discovery_ray.sources.synthetic import hosts

    hs = hosts(SyntheticConfig())
    return {
        "resource": {},
        "root": {f"http://{hs[0]}/": [("collection-zero", "19900101000000", "20991231235959")]},
        "subdomains": {hs[1]: [("collection-one", "19900101000000", "20991231235959")]},
        # 4th scope: regex over the record's source file (Annotator.java:186-204)
        # — matches the shard-5 synthetic WARCs so the scope has real hits
        "source_file_matches": {r"^synth-00005-": [("first-warc", "19900101000000", "20991231235959")]},
        # OA prefixes use the URL-key SURT form shared with the docs'
        # `surt` column ("tld,dom,host)/path" — no leading paren)
        "open_access_surts": [f"{','.join(reversed(hs[2].split('.')))})"],
    }


def _annotations(sf_dir: str):
    """J1: broadcast annotations join over extracted fixture docs (base
    materialized so the DuckDB oracle applies the same rules in SQL;
    ``collections`` flattens to a csv string for a stable comparison
    surface — the underlying annotate_batch emits the real list column)."""
    import shutil

    import ray.data as rd

    from webarchive_discovery_ray.config import IndexConfig, SyntheticConfig
    from webarchive_discovery_ray.pipelines.enrich import annotate_batch
    from webarchive_discovery_ray.sources.synthetic import fixture_pages_ds

    anns = _annotation_rules()
    out = f"{_ORACLE_MAT}/ann_base"
    shutil.rmtree(out, ignore_errors=True)
    icfg = IndexConfig(response_include=())
    cols = ["doc_id", "url_norm", "host", "surt", "wayback_date", "source_file"]
    fixture_pages_ds(500, SyntheticConfig(), 8).map_batches(
        lambda b: extract_batch_sel(b, icfg, cols), batch_format="pyarrow", batch_size=None
    ).write_parquet(out)

    def flatten(batch: pa.Table) -> pa.Table:
        ann = annotate_batch(batch, anns)
        csv = pa.array(
            [",".join(c) for c in ann["collections"].to_pylist()], pa.string()
        )
        return pa.table(
            {
                "doc_id": ann["doc_id"],
                "url_norm": ann["url_norm"],
                "collections": csv,
                "access_terms": ann["access_terms"],
            }
        )

    return rd.read_parquet(out).map_batches(
        flatten, batch_format="pyarrow", batch_size=None
    )


def extract_batch_sel(batch: pa.Table, icfg, cols: list[str]) -> pa.Table:
    from webarchive_discovery_ray.stages.extract import extract_batch

    return extract_batch(batch, icfg).select(cols)


def _ark_lookup(sf_dir: str):
    """J2: filename -> ARK broadcast join over the captures table. The ARK
    register covers the first 64 distinct filenames (sorted) — the rest
    pass through, exercising BOTH branches of the reference semantics."""
    from webarchive_discovery_ray.pipelines.enrich import ark_lookup_batch

    caps = _cdx(sf_dir)  # also materializes the captures for the oracle
    files = sorted(caps.unique("filename"))
    ark_map = {f: f"ark:/81055/{i:08d}" for i, f in enumerate(files[:64])}
    return caps.map_batches(
        lambda b: ark_lookup_batch(b, ark_map), batch_format="pyarrow", batch_size=None
    ).select_columns(["surt_key", "filename", "ark"])


def _arcname(sf_dir: str):
    """M30: ARC-name regex rules over fixture pages (base materialized so
    the DuckDB oracle evaluates the same first-match-wins rules in SQL)."""
    import shutil

    import ray.data as rd

    from webarchive_discovery_ray.config import SyntheticConfig
    from webarchive_discovery_ray.pipelines.enrich import arcname_fields_batch
    from webarchive_discovery_ray.schema import PAGES_SCHEMA
    from webarchive_discovery_ray.sources.synthetic import fixture_pages

    rows = fixture_pages(400, SyntheticConfig())
    out = f"{_ORACLE_MAT}/arcname_base"
    shutil.rmtree(out, ignore_errors=True)
    ds = rd.from_arrow(pa.Table.from_pylist(rows, schema=PAGES_SCHEMA))
    ds.map_batches(
        lambda b: b.select(["url", "source_file"]), batch_format="pyarrow"
    ).write_parquet(out)
    return (
        rd.read_parquet(out)
        .map_batches(arcname_fields_batch, batch_format="pyarrow", batch_size=None)
        .select_columns(["url", "source_file", "arc_job", "arc_harvest", "arc_institution"])
    )


def _postcodes(sf_dir: str):
    """M33: UK postcode extract + geo over a corpus with injected postcodes."""
    from webarchive_discovery_ray.pipelines.enrich import POSTCODE_GEO, postcode_extract
    from webarchive_discovery_ray.sources.io import read_table

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    districts = sorted(POSTCODE_GEO)

    def inject(batch: pa.Table) -> pa.Table:
        # deterministically inject a postcode into every 3rd document
        texts = []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            if d % 3 == 0:
                texts.append(f"{t} {districts[d % len(districts)]} 1AA")
            else:
                texts.append(t)
        return pa.table({"doc_id": batch["doc_id"], "text": pa.array(texts)})

    return postcode_extract(ds.map_batches(inject, batch_format="pyarrow")).drop_columns(
        ["text"]
    )


def _file_digest(sf_dir: str):
    """A3: whole-file SHA-1 over the sf parquet files."""
    import os

    from webarchive_discovery_ray.pipelines.stats import file_digest

    paths = sorted(
        os.path.join(sf_dir, f) for f in os.listdir(sf_dir) if f.endswith(".parquet")
    )
    return file_digest(paths)


# fixture-derived queries materialize their (deterministic, pytest-oracled)
# extraction base to parquet so the DuckDB oracle can verify the
# projection / aggregation plumbing over the SAME input table
_ORACLE_MAT = "/tmp/wdr_oracle_mat"
_MAT_COLS = [
    "record_type", "hash", "surt", "wayback_date", "host", "crawl_year",
    "content_type", "content_type_norm", "status", "content_length",
    "source_file", "source_offset", "url", "links_hosts",
]


def _materialized_docs_base(n_pages: int = 500):
    import shutil

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import _docs_ds

    out = f"{_ORACLE_MAT}/docs_base"
    shutil.rmtree(out, ignore_errors=True)
    _docs_ds(n_pages).map_batches(
        lambda b: b.select(_MAT_COLS), batch_format="pyarrow"
    ).write_parquet(out)
    return rd.read_parquet(out)


def _mdx_stats(sf_dir: str):
    from webarchive_discovery_ray.pipelines.stats import mdx_stats

    return mdx_stats(docs=_materialized_docs_base(500))


def _year_host_outlinks(sf_dir: str):
    """Year-keyed outlink frequencies (OutlinkExtractorMapper.java:73-82 +
    FrequencyCountingReducer.java:44-68) over the materialized docs base."""
    from webarchive_discovery_ray.pipelines.stats import year_host_outlinks

    return year_host_outlinks(docs=_materialized_docs_base(500))


def _year_suffix_links(sf_dir: str):
    """Year-keyed public-suffix link pairing (EntityMapper.java:60-118 +
    FrequencyCountingReducer.java:46-68) over the materialized docs base —
    the suffix-level sibling of year_host_outlinks."""
    from webarchive_discovery_ray.pipelines.stats import year_suffix_links

    return year_suffix_links(docs=_materialized_docs_base(500))


def _url_quality_filter(sf_dir: str):
    """RefinedWeb-style URL filtering (blocklist / length / digit /
    param gates, first-match reason) over the materialized docs base."""
    from webarchive_discovery_ray.pipelines.curation import url_quality_filter

    return url_quality_filter(_materialized_docs_base(500))


def _hosts_report(sf_dir: str):
    """Per-host crawl-log rollup (HostsReportMapper/Reducer) over a
    deterministic Heritrix-style crawl.log text fixture; the lines
    materialize to parquet so the DuckDB oracle parses the SAME text."""
    import os
    import shutil

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import (
        heritrix_log_lines,
        hosts_report,
    )

    out = f"{_ORACLE_MAT}/crawl_log_base"
    shutil.rmtree(out, ignore_errors=True)
    heritrix_log_lines(docs=_materialized_docs_base(500)).write_parquet(out)
    return hosts_report(rd.read_parquet(out))


def _persist_log(sf_dir: str):
    import shutil

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import persist_log, persist_log_docs

    out = f"{_ORACLE_MAT}/plog_base"
    shutil.rmtree(out, ignore_errors=True)
    cols = [
        "record_type", "surt", "status", "hash", "wayback_date",
        "content_length", "source_file", "source_offset",
    ]
    persist_log_docs(500).map_batches(
        lambda b: b.select(cols), batch_format="pyarrow"
    ).write_parquet(out)
    return persist_log(docs=rd.read_parquet(out))


def _dataset_summaries(sf_dir: str):
    from webarchive_discovery_ray.pipelines.stats import dataset_summaries

    return dataset_summaries(docs=_materialized_docs_base(500))


def _host_pagerank(sf_dir: str):
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import host_pagerank

    _host_link_graph_base()
    return host_pagerank(docs=rd.read_parquet(f"{_ORACLE_MAT}/link_base"))


def _host_link_graph_base() -> None:
    """Materialize the shared link base if absent (idempotent)."""
    import os

    if not os.path.isdir(f"{_ORACLE_MAT}/link_base"):
        _host_link_graph("")


def _host_link_graph(sf_dir: str):
    import shutil

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import _docs_ds, host_link_graph

    out = f"{_ORACLE_MAT}/link_base"
    shutil.rmtree(out, ignore_errors=True)
    _docs_ds(500).map_batches(
        lambda b: b.select(["host", "links_hosts"]), batch_format="pyarrow"
    ).write_parquet(out)
    return host_link_graph(docs=rd.read_parquet(out))


def _anchor_text_index(sf_dir: str):
    """Anchor-text aggregation per target URL over a materialized
    (target, text) pairs base (the per-page HTML scan runs once; the SQL
    oracle aggregates the identical base)."""
    import shutil

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import (
        anchor_pairs_ds,
        anchor_text_index,
    )

    out = f"{_ORACLE_MAT}/anchor_base"
    shutil.rmtree(out, ignore_errors=True)
    anchor_pairs_ds(500).write_parquet(out)
    return anchor_text_index(pairs=rd.read_parquet(out))


def _host_hits(sf_dir: str):
    """Integer HITS hubs/authorities over the SAME materialized link
    base the graph/pagerank oracles read."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import host_hits

    _host_link_graph_base()
    return host_hits(docs=rd.read_parquet(f"{_ORACLE_MAT}/link_base"))


def _degree_distribution(sf_dir: str):
    """In/out degree histogram over the SAME materialized link base."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import degree_distribution

    _host_link_graph_base()
    return degree_distribution(docs=rd.read_parquet(f"{_ORACLE_MAT}/link_base"))


def _host_distances(sf_dir: str):
    """BFS hop distances over the SAME materialized link base."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import host_distances

    _host_link_graph_base()
    return host_distances(docs=rd.read_parquet(f"{_ORACLE_MAT}/link_base"))


def _host_triangles(sf_dir: str):
    """Triangle census over the SAME materialized link base the other
    graph oracles replay."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import host_triangles

    _host_link_graph_base()
    return host_triangles(docs=rd.read_parquet(f"{_ORACLE_MAT}/link_base"))


def _host_reciprocity(sf_dir: str):
    """Edge reciprocity over the SAME materialized link base."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import host_reciprocity

    _host_link_graph_base()
    return host_reciprocity(docs=rd.read_parquet(f"{_ORACLE_MAT}/link_base"))


def _cdx_merge(sf_dir: str):
    """Merge-of-sorted-runs over two disjoint pre-sorted halves of the
    synthetic captures base (functions/merging.merge_sorted_runs — each
    row moves ONCE to its output range task; no sort shuffle). The SQL
    oracle unions the same two materialized runs; sortedness itself is
    pinned by the pytest (the driver compare is order-insensitive)."""
    import os

    import ray.data as rd

    from webarchive_discovery_ray.config import IndexConfig, SyntheticConfig
    from webarchive_discovery_ray.functions.merging import merge_sorted_runs
    from webarchive_discovery_ray.pipelines.cdx import (
        captures_from_pages_batch,
    )
    from webarchive_discovery_ray.sources.synthetic import fixture_pages_ds

    base = f"{_ORACLE_MAT}/cdx_runs"
    if not (os.path.isdir(f"{base}/0") and os.path.isdir(f"{base}/1")):
        icfg = IndexConfig(response_include=())
        caps = fixture_pages_ds(400, SyntheticConfig(), 16).map_batches(
            lambda b: captures_from_pages_batch(b, icfg),
            batch_format="pyarrow",
            batch_size=None,
        )
        import pyarrow.compute as pc

        for half in (0, 1):
            tmp = f"{base}/{half}.tmp"
            import shutil

            shutil.rmtree(tmp, ignore_errors=True)
            caps.map_batches(
                lambda b, _h=half: b.filter(
                    pc.equal(
                        pc.bit_wise_and(
                            pc.utf8_length(b["surt_key"]), pa.scalar(1)
                        ),
                        pa.scalar(_h),
                    )
                ),
                batch_format="pyarrow",
            ).sort(["surt_key", "timestamp14"]).write_parquet(tmp)
            os.replace(tmp, f"{base}/{half}")
    runs = [rd.read_parquet(f"{base}/{h}").materialize() for h in (0, 1)]
    return merge_sorted_runs(runs, ["surt_key", "timestamp14"])


def _host_assortativity(sf_dir: str):
    """Degree assortativity over the SAME materialized link base."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import host_assortativity

    _host_link_graph_base()
    return host_assortativity(docs=rd.read_parquet(f"{_ORACLE_MAT}/link_base"))


def _cocitation_hosts(sf_dir: str):
    """Co-citation pair similarity over the SAME materialized link
    base (capped, min-support-thresholded; see stats.cocitation_hosts)."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import cocitation_hosts

    _host_link_graph_base()
    return cocitation_hosts(docs=rd.read_parquet(f"{_ORACLE_MAT}/link_base"))


def _kcore_hosts(sf_dir: str):
    """k-core decomposition over the SAME materialized link base."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import kcore_hosts

    _host_link_graph_base()
    return kcore_hosts(docs=rd.read_parquet(f"{_ORACLE_MAT}/link_base"))


def _countmin_oracle_values_sql(sf_dir: str | None = None) -> str:
    """Sequential Count-Min recompute (identical hash rows, one pass
    over the parquet) rendered as VALUES — the estimates are a
    deterministic function of the data, same mechanism as fuzzy_hashes."""
    import numpy as np
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.sketches import (
        _CM_D,
        _CM_PROBES,
        _CM_W,
        cm_positions,
    )

    sf_dir = sf_dir or _oracle_sf_dir()
    ids = (
        pq.read_table(f"{sf_dir}/events.parquet", columns=["user_id"])["user_id"]
        .to_numpy()
        .astype(np.int64)
    )
    cm = np.zeros((_CM_D, _CM_W), dtype=np.int64)
    pos = cm_positions(ids.astype(np.uint64))
    for d in range(_CM_D):
        np.add.at(cm[d], pos[d], 1)
    probe = np.asarray(_CM_PROBES, dtype=np.int64)
    ppos = cm_positions(probe.astype(np.uint64))
    est = cm[np.arange(_CM_D)[:, None], ppos].min(axis=0)
    exact = (ids[None, :] == probe[:, None]).sum(axis=1)
    rows = [
        f"({int(u)}, {int(e)}::BIGINT, {int(x)}::BIGINT)"
        for u, e, x in zip(probe, est, exact)
    ]
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(user_id, cm_est, exact_n)"
    )


def _pivot_oracle_sql(sf_dir: str | None = None) -> str:
    """CASE-sum mirror of pivot_user_event_values with the column set
    discovered from the SAME data (scale-aware via WDR_ORACLE_SF_DIR,
    like the VALUES oracles) — the pivot's pinned column rule is
    type-asc over the distinct types present."""
    import duckdb

    sf_dir = sf_dir or _oracle_sf_dir()
    types = sorted(
        r[0]
        for r in duckdb.sql(
            f"SELECT DISTINCT event_type FROM '{sf_dir}/events.parquet'"
        ).fetchall()
    )
    cols = ",\n                   ".join(
        "sum(CASE WHEN event_type = '{t}' THEN "
        "CAST(floor(value * 100 + 0.5) AS BIGINT) ELSE 0 END) / 100.0 "
        'AS "v_{t}"'.format(t=t.replace("'", "''"))
        for t in types
    )
    return f"""
        SELECT user_id, {cols}
        FROM events GROUP BY user_id
    """


def _kcore_oracle_values_sql(sf_dir: str | None = None) -> str:
    """Sequential Matula–Beck peeling over the materialized link base,
    rendered as VALUES(host, core) — the exact core numbers the
    distributed H-operator fixpoint must converge to (same graph rules:
    distinct undirected pairs, self-loops excluded, isolated hosts
    absent)."""
    import duckdb

    _host_link_graph_base()
    und = duckdb.sql(
        f"""
        SELECT DISTINCT least(host, l.dst) AS a, greatest(host, l.dst) AS b
        FROM read_parquet('{_ORACLE_MAT}/link_base/*.parquet'),
             unnest(links_hosts) AS l(dst)
        WHERE host <> l.dst
        """
    ).fetchall()
    adj: dict[str, set[str]] = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    deg = {n: len(s) for n, s in adj.items()}
    alive = set(adj)
    core: dict[str, int] = {}
    k = 0
    while alive:
        v = min(alive, key=lambda n: (deg[n], n))
        k = max(k, deg[v])
        core[v] = k
        for u in adj[v]:
            if u in alive:
                deg[u] -= 1
        alive.remove(v)
    rows = [
        "('" + h.replace("'", "''") + f"', {c}::BIGINT)"
        for h, c in sorted(core.items())
    ]
    return (
        "SELECT * FROM (VALUES " + ", ".join(rows) + ") AS t(host, core)"
    )


def _host_components(sf_dir: str):
    """Connected components of the host link graph over the SAME
    materialized link base the graph/pagerank oracles read."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import host_components

    _host_link_graph_base()
    return host_components(rd.read_parquet(f"{_ORACLE_MAT}/link_base"))


def queries() -> dict[str, Callable[[str], Any]]:
    from webarchive_discovery_ray.pipelines.aggregates import (
        distinct_event_types,
        events_hourly,
        freq_count_docs,
        lineitem_agg,
        reservoir_sample_events,
        revenue_by_nation,
        rollup_revenue,
        semi_join_lineitem,
        topk_orders,
        union_orders_split,
    )
    from webarchive_discovery_ray.pipelines.dedup import (
        dup_span_fraction,
        paragraph_dedup,
        incremental_dedup,
        gram_novelty,
        exact_substring_spans,
        exact_substring_dedup_apply,
        containment_pairs,
        embedding_neardup_pairs,
        semdedup_keep,
        exact_dedup,
        cross_minhash_dedup,
        lsh_recall_audit,
        edit_distance_pairs,
        minhash_lsh_pairs,
        ngram_jaccard_pairs,
        simhash_neardup_pairs,
        simhash_signatures,
    )
    from webarchive_discovery_ray.pipelines.sessions import (
        global_shuffle,
        grouped_topk_docs,
        mixture_weights,
        sessionize_events,
        event_rate_limit,
        props_json_stats,
        weekday_profile,
        user_lifetime,
        funnel_counts,
        retention_cohorts,
        event_transitions,
        pivot_user_event_values,
        rate_anomalies,
        source_mix,
        stratified_sample_events,
        weighted_sample,
    )
    from webarchive_discovery_ray.pipelines.aggregates import (
        anti_join_orders,
        custdist,
        forecast_revenue,
        open_orders_by_month,
        order_priority_census,
        grouped_quantiles,
        important_parts,
        promo_revenue,
        winsorize_events,
    )
    from webarchive_discovery_ray.pipelines.similarity import (
        ann_cosine_topk,
        ann_hard_negatives,
        ann_range_search,
        ivf_cosine_topk,
        knn_graph,
        lsh_cosine_topk,
        mmr_select,
        contrastive_triplets,
        pq_cosine_topk,
        ivfpq_cosine_topk,
        sq8_cosine_topk,
        sq8_quantize,
    )
    from webarchive_discovery_ray.pipelines.enrich import (
        fuzzy_hashes,
        regex_scan,
        sentiment_score,
    )
    from webarchive_discovery_ray.pipelines.relational import (
        min_cost_supplier,
        outer_join_customer_orders,
        shipping_priority,
        returned_items,
        top_supplier,
        large_orders,
        global_balance_filter,
        nation_trade_volume,
        parts_supplier_census,
        market_share,
        small_quantity_revenue,
        partsupp_synth,
        shipmode_priority_census,
        bracketed_revenue,
        product_type_profit,
        promo_part_suppliers,
        waiting_supplier_census,
        asof_join_events,
        range_join_events,
        sliding_window_events,
        window_running_sum,
    )
    from webarchive_discovery_ray.pipelines.aggregates import global_quantiles
    from webarchive_discovery_ray.pipelines.textops import (
        language_confusion,
        bm25_topk,
        cdc_chunks,
        doc_fingerprint,
        doc_length_histogram,
        inverted_index,
        language_id,
        ngram_topk,
        pmi_collocations,
        rank_blend,
        token_spectrum,
        entropy_by_source,
        vocab_coverage,
        winnow_positions,
        winnow_neardup_pairs,
        pack_sequences,
        bucket_batches,
        quality_score,
        tfidf_top_terms,
        token_stats,
        readability_scores,
        source_quality_report,
        bpe_train,
        unigram_train,
        unigram_encode,
        bpe_encode,
        tokenizer_efficiency,
        word_embeddings,
    )
    from webarchive_discovery_ray.pipelines.sketches import (
        bloom_semi_join,
        heavy_hitters,
        countmin_event_counts,
        kmv_source_similarity,
        hll_distinct_tokens,
        hll_users_per_event_type,
        kll_quantiles,
    )
    from webarchive_discovery_ray.pipelines.curation import (
        source_quota_sample,
        blocklist_filter,
        compression_ratio,
        dataset_split,
        softdedup_weights,
        source_overlap,
        pca_embeddings,
        c4_filters,
        curation_pipeline,
        decontaminate,
        dsir_weights,
        gopher_repetition,
        gopher_rules,
        kmeans_embeddings,
        quality_classifier,
        unigram_logloss,
        bigram_logloss,
        ccnet_buckets,
        pii_scrub,
        quality_filter,
        repetition_score,
    )

    return {
        # --- SQL-oracle-checked -----------------------------------------
        "lineitem_agg": lineitem_agg,
        "revenue_by_nation": revenue_by_nation,
        "rollup_revenue": rollup_revenue,
        "events_hourly": events_hourly,
        "freq_count_docs": freq_count_docs,
        "topk_orders": topk_orders,
        "distinct_event_types": distinct_event_types,
        "reservoir_sample_events": reservoir_sample_events,
        "semi_join_lineitem": semi_join_lineitem,
        "union_orders_split": union_orders_split,
        "exact_dedup": exact_dedup,
        "token_stats": token_stats,
        "readability_scores": readability_scores,
        "source_quality_report": source_quality_report,
        "quality_score": quality_score,
        "ann_cosine_topk": ann_cosine_topk,
        "ann_hard_negatives": ann_hard_negatives,
        "ann_range_search": ann_range_search,
        "asof_join_events": asof_join_events,
        "range_join_events": range_join_events,
        "window_running_sum": window_running_sum,
        "outer_join_customer_orders": outer_join_customer_orders,
        "shipping_priority": shipping_priority,
        "returned_items": returned_items,
        "top_supplier": top_supplier,
        "large_orders": large_orders,
        "global_balance_filter": global_balance_filter,
        "nation_trade_volume": nation_trade_volume,
        "parts_supplier_census": parts_supplier_census,
        "market_share": market_share,
        "small_quantity_revenue": small_quantity_revenue,
        "partsupp_synth": partsupp_synth,
        "shipmode_priority_census": shipmode_priority_census,
        "bracketed_revenue": bracketed_revenue,
        "product_type_profit": product_type_profit,
        "promo_part_suppliers": promo_part_suppliers,
        "waiting_supplier_census": waiting_supplier_census,
        "open_orders_by_month": open_orders_by_month,
        "min_cost_supplier": min_cost_supplier,
        "custdist": custdist,
        "important_parts": important_parts,
        "promo_revenue": promo_revenue,
        "sliding_window_events": sliding_window_events,
        "regex_scan": regex_scan,
        "sentiment_score": sentiment_score,
        "decontaminate": decontaminate,
        "repetition_score": repetition_score,
        "gopher_rules": gopher_rules,
        "gopher_repetition": gopher_repetition,
        "c4_filters": c4_filters,
        "blocklist_filter": blocklist_filter,
        "dsir_weights": dsir_weights,
        "pii_scrub": pii_scrub,
        "global_quantiles": global_quantiles,
        "ngram_topk": ngram_topk,
        "pmi_collocations": pmi_collocations,
        "token_spectrum": token_spectrum,
        "entropy_by_source": entropy_by_source,
        "rank_blend": rank_blend,
        "vocab_coverage": vocab_coverage,
        "winnow_positions": winnow_positions,
        "winnow_neardup_pairs": winnow_neardup_pairs,
        "inverted_index": inverted_index,
        "pack_sequences": pack_sequences,
        "bucket_batches": bucket_batches,
        "neardup_clusters": _neardup_clusters,
        "cluster_representatives": _cluster_representatives,
        "neardup_dedup_apply": _neardup_dedup_apply,
        "ivf_cosine_topk": ivf_cosine_topk,
        "lsh_cosine_topk": lsh_cosine_topk,
        "knn_graph": knn_graph,
        "label_propagation": _label_propagation,
        "language_id": language_id,
        "language_confusion": language_confusion,
        "sessionize_events": sessionize_events,
        "user_lifetime": user_lifetime,
        "funnel_counts": funnel_counts,
        "retention_cohorts": retention_cohorts,
        "event_transitions": event_transitions,
        "pivot_user_event_values": pivot_user_event_values,
        "winsorize_events": winsorize_events,
        "rate_anomalies": rate_anomalies,
        "stratified_sample_events": stratified_sample_events,
        "grouped_topk_docs": grouped_topk_docs,
        "dup_span_fraction": dup_span_fraction,
        "paragraph_dedup": paragraph_dedup,
        "incremental_dedup": incremental_dedup,
        "gram_novelty": gram_novelty,
        "softdedup_weights": softdedup_weights,
        "source_overlap": source_overlap,
        "dataset_split": dataset_split,
        "bpe_train": bpe_train,
        "unigram_train": unigram_train,
        "unigram_encode": unigram_encode,
        "bpe_encode": bpe_encode,
        "tokenizer_efficiency": tokenizer_efficiency,
        "word_embeddings": word_embeddings,
        "span_transitions": _span_transitions,
        "span_coalesce": _span_coalesce,
        "media_burst_lengths": _media_burst_lengths,
        "media_captions": _media_captions,
        "media_position_profile": _media_position_profile,
        "span_windows": _span_windows,
        "pq_cosine_topk": pq_cosine_topk,
        "mmr_select": mmr_select,
        "contrastive_triplets": contrastive_triplets,
        "ivfpq_cosine_topk": ivfpq_cosine_topk,
        "exact_substring_spans": exact_substring_spans,
        "exact_substring_dedup_apply": exact_substring_dedup_apply,
        "host_link_graph": _host_link_graph,
        "anchor_text_index": _anchor_text_index,
        "host_components": _host_components,
        "host_pagerank": _host_pagerank,
        "host_hits": _host_hits,
        "degree_distribution": _degree_distribution,
        "host_distances": _host_distances,
        "host_reciprocity": _host_reciprocity,
        "host_triangles": _host_triangles,
        "cocitation_hosts": _cocitation_hosts,
        "kcore_hosts": _kcore_hosts,
        "host_assortativity": _host_assortativity,
        "tfidf_top_terms": tfidf_top_terms,
        "capture_intervals": _capture_intervals,
        "cdx_collapse": _cdx_collapse,
        "url_templates": _url_templates,
        "capture_diff": _capture_diff,
        "recrawl_schedule": _recrawl_schedule,
        "recrawl_seed_list": _recrawl_seed_list,
        "span_stats": _span_stats,
        "interleaved_pack": _interleaved_pack,
        "media_context": _media_context,
        "span_dedup": _span_dedup,
        "media_dedup": _media_dedup,
        "span_quality_filter": _span_quality_filter,
        "anti_join_orders": anti_join_orders,
        "forecast_revenue": forecast_revenue,
        "order_priority_census": order_priority_census,
        "event_rate_limit": event_rate_limit,
        "props_json_stats": props_json_stats,
        "weekday_profile": weekday_profile,
        "source_quota_sample": source_quota_sample,
        "grouped_quantiles": grouped_quantiles,
        "source_mix": source_mix,
        "mixture_weights": mixture_weights,
        "weighted_sample": weighted_sample,
        "global_shuffle": global_shuffle,
        "quality_filter": quality_filter,
        "unigram_logloss": unigram_logloss,
        "bigram_logloss": bigram_logloss,
        "ccnet_buckets": ccnet_buckets,
        "curation_pipeline": curation_pipeline,
        "bloom_semi_join": bloom_semi_join,
        "heavy_hitters": heavy_hitters,
        "countmin_event_counts": countmin_event_counts,
        "kmv_source_similarity": kmv_source_similarity,
        "cdc_chunks": cdc_chunks,
        "bm25_topk": bm25_topk,
        "doc_length_histogram": doc_length_histogram,
        "minhash_lsh_pairs": minhash_lsh_pairs,
        "lsh_recall_audit": lsh_recall_audit,
        "edit_distance_pairs": edit_distance_pairs,
        "cross_minhash_dedup": cross_minhash_dedup,
        "ngram_jaccard_pairs": ngram_jaccard_pairs,
        "containment_pairs": containment_pairs,
        "simhash_signatures": simhash_signatures,
        "simhash_neardup_pairs": simhash_neardup_pairs,
        "embedding_neardup_pairs": embedding_neardup_pairs,
        "semdedup_keep": semdedup_keep,
        "doc_fingerprint": doc_fingerprint,
        "sq8_embeddings": sq8_quantize,
        "sq8_cosine_topk": sq8_cosine_topk,
        "warc_extract": _warc_extract,
        "warc_cdx": _warc_cdx,
        "warc_cdxj": _warc_cdxj,
        "crawl_warc_census": _crawl_warc_census,
        "warc_stats": _warc_stats,
        "warc_digest_dups": _warc_digest_dups,
        "warc_dedup_census": _warc_dedup_census,
        "warc_file_hash": _warc_file_hash,
        "warc_datasets": _warc_datasets,
        "warc_regex": _warc_regex,
        "warc_wet": _warc_wet,
        "warc_wat": _warc_wat,
        "warc_anchor": _warc_anchor,
        "warc_host_graph": _warc_host_graph,
        "warc_media": _warc_media,
        "warc_robots": _warc_robots,
        "warc_corpus": _warc_corpus,
        # --- rows-only (non-SQL-expressible; pytest oracles cover them) --
        "hll_distinct_tokens": hll_distinct_tokens,
        "hll_users_per_event_type": hll_users_per_event_type,
        "compression_ratio": compression_ratio,
        "crawl_lineage": _crawl_lineage,
        "kll_quantiles": kll_quantiles,
        "fuzzy_hashes": fuzzy_hashes,
        "postcode_geo": _postcodes,
        "annotations": _annotations,
        "ark_lookup": _ark_lookup,
        "arcname_fields": _arcname,
        "mdx_stats": _mdx_stats,
        "year_host_outlinks": _year_host_outlinks,
        "year_suffix_links": _year_suffix_links,
        "url_quality_filter": _url_quality_filter,
        "hosts_report": _hosts_report,
        "persist_log": _persist_log,
        "dataset_summaries": _dataset_summaries,
        "file_digest": _file_digest,
        "crawl_frontier": _crawl_frontier,
        "recrawl_crawl": _recrawl_crawl,
        "extract_documents": _extract_documents,
        "cdx_sorted": _cdx,
        "cdx_merge": _cdx_merge,
        "reduplicate_revisits": _reduplicate,
        "media_features": _media_features,
        "pdf_preflight": _pdf_preflight,
        "kmeans_embeddings": kmeans_embeddings,
        "pca_embeddings": pca_embeddings,
        "quality_classifier": quality_classifier,
    }


def _ensure_oracle_materializations() -> None:
    """The fixture-derived oracles read parquet the matching queries()
    entries materialize. If the driver evaluates the SQL before running
    those queries, create the (deterministic) files here. Only possible
    when a Ray session exists — at plain import time (e.g. pytest
    collection) this is a no-op and the queries themselves materialize."""
    import os

    try:
        import ray

        if not ray.is_initialized():
            return
    except Exception:  # pragma: no cover
        return
    if not os.path.isdir(f"{_ORACLE_MAT}/docs_base"):
        _materialized_docs_base(500)
    if not os.path.isdir(f"{_ORACLE_MAT}/captures"):
        _cdx("")
    if not os.path.isdir(f"{_ORACLE_MAT}/plog_base"):
        _persist_log("")
    if not os.path.isdir(f"{_ORACLE_MAT}/arcname_base"):
        _arcname("")
    if not os.path.isdir(f"{_ORACLE_MAT}/ann_base"):
        _annotations("")
    if not os.path.isdir(f"{_ORACLE_MAT}/link_base"):
        _host_link_graph("")
    if not os.path.isdir(f"{_ORACLE_MAT}/spans_base"):
        _span_stats("")
    if not os.path.isdir(f"{_ORACLE_MAT}/crawl_log_base"):
        _hosts_report("")
    if not os.path.isdir(f"{_ORACLE_MAT}/neardup_pairs"):
        # the pair graph depends on the corpus: default to the driver's
        # correctness scale; the query itself re-materializes at its own sf
        _neardup_clusters("/root/testdata/sf0.01")
    if not os.path.isdir(f"{_ORACLE_MAT}/knn_edges"):
        _label_propagation("/root/testdata/sf0.01")


def _url_quality_oracle_sql(source: str) -> str:
    """DuckDB mirror of ``url_quality_filter`` over the parquet ``source``
    (a path or glob with a ``url`` column)."""
    return f"""
            WITH u AS (
              SELECT DISTINCT url,
                     CASE WHEN strpos(url, '?') = 0 THEN ''
                          ELSE substr(url, strpos(url, '?') + 1)
                     END AS q
              FROM read_parquet('{source}')
            ),
            v AS (
              SELECT url, length(url) AS L,
                     length(regexp_replace(url, '[^0-9]', '', 'g')) AS D,
                     CASE WHEN q = '' THEN 0
                          ELSE length(q) - length(replace(q, '&', '')) + 1
                     END AS np
              FROM u
            ),
            r AS (
              SELECT url,
                     CASE WHEN lower(url) LIKE '%media%' THEN 'blocklist'
                          WHEN L > 256 THEN 'too_long'
                          WHEN 100 * D > 14 * L THEN 'digit_heavy'
                          WHEN np >= 2 THEN 'param_heavy'
                          ELSE 'ok' END AS reason
              FROM v
            )
            SELECT url, (reason = 'ok') AS keep, reason FROM r
    """


def oracle_sql() -> dict[str, str]:
    from webarchive_discovery_ray.functions.suffix import _SUFFIXES

    # PSL-subset DATA shared with the Ray-side kernel (the suffix RULE is
    # re-derived independently in SQL below)
    _psl_values = ", ".join(f"('{s}')" for s in sorted(_SUFFIXES))
    ws = r"\s+"
    tokens = f"regexp_split_to_array(trim(text), '{ws}')"
    winnow_core = f"""
            WITH t AS (
                SELECT doc_id, {tokens} AS wr,
                       CASE WHEN trim(text) = '' THEN 0
                            ELSE len({tokens}) END AS n_tokens
                FROM documents
            ),
            g AS (
                SELECT doc_id, CAST(p AS BIGINT) AS pos,
                       ('0x' || substr(md5(array_to_string(
                           wr[CAST(p + 1 AS BIGINT):CAST(p + 3 AS BIGINT)],
                           ' ')), 1, 16))::UBIGINT AS h
                FROM t, unnest(range(0, n_tokens - 3 + 1)) AS r(p)
                WHERE n_tokens - 3 + 1 >= 4
            ),
            m AS (
                SELECT doc_id, pos AS wend,
                       min(h) OVER (PARTITION BY doc_id ORDER BY pos
                                    ROWS BETWEEN 3 PRECEDING
                                    AND CURRENT ROW) AS mn
                FROM g
            ),
            sel AS (
                SELECT f.doc_id, max(g2.pos) AS pos
                FROM (SELECT * FROM m WHERE wend >= 3) f
                JOIN g g2 ON g2.doc_id = f.doc_id
                         AND g2.pos BETWEEN f.wend - 3 AND f.wend
                         AND g2.h = f.mn
                GROUP BY f.doc_id, f.wend
            )
            SELECT DISTINCT s.doc_id, s.pos, g3.h
            FROM sel s JOIN g g3
              ON g3.doc_id = s.doc_id AND g3.pos = s.pos
        """

    _ensure_oracle_materializations()

    # MinHash permutation seeds shared with pipelines/dedup (deterministic,
    # sha-derived) inlined as UBIGINT literals for the SQL mirror
    from webarchive_discovery_ray.pipelines.dedup import _perm_seeds

    mh_seeds = ", ".join(
        f"({i}, {int(s)}::UBIGINT)" for i, s in enumerate(_perm_seeds())
    )
    u64_mod = "18446744073709551616::UHUGEINT"

    # shared MinHash+LSH candidate-chain mirror (md5 3-gram shingles ->
    # splitmix64(x ^ seed) minhash -> per-band decimal-join md5 bucket
    # keys -> distinct within-bucket pairs); consumed by
    # edit_distance_pairs (minhash_lsh_pairs / cross_minhash_dedup
    # predate it and inline the same chain)
    lsh_cand = f"""
            WITH seeds(perm, seed) AS (VALUES {{mh_seeds}}),
            tk AS (
              SELECT doc_id, text, {{tokens}} AS t FROM documents
            ),
            gr AS (
              SELECT doc_id,
                CASE WHEN len(t) >= 3
                  THEN list_transform(generate_series(1, len(t) - 2),
                                      i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])
                  ELSE [text] END AS gs
              FROM tk
            ),
            sh AS (
              SELECT DISTINCT doc_id, ('0x' || substr(md5(g), 1, 16))::UBIGINT AS x
              FROM gr, unnest(gs) AS u(g)
            ),
            z0 AS (SELECT doc_id, perm, xor(x, seed) AS z FROM sh CROSS JOIN seeds),
            z1 AS (SELECT doc_id, perm,
              ((xor(z, z >> 30)::UHUGEINT * 13787848793156543929::UHUGEINT)
               % {{u64_mod}})::UBIGINT AS z FROM z0),
            z2 AS (SELECT doc_id, perm,
              ((xor(z, z >> 27)::UHUGEINT * 10723151780598845931::UHUGEINT)
               % {{u64_mod}})::UBIGINT AS z FROM z1),
            mh AS (SELECT doc_id, perm, min(xor(z, z >> 31)) AS v
                   FROM z2 GROUP BY 1, 2),
            bk AS (SELECT doc_id, perm // 4 AS band,
                     substr(md5(string_agg(v::VARCHAR, '-' ORDER BY perm)), 1, 16) AS bh
                   FROM mh GROUP BY doc_id, perm // 4),
            cand AS (SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
                     FROM bk a JOIN bk b
                       ON a.band = b.band AND a.bh = b.bh AND a.doc_id < b.doc_id)
    """.format(mh_seeds=mh_seeds, tokens=tokens, u64_mod=u64_mod)

    from webarchive_discovery_ray.pipelines.curation import (
        BLOCKLIST_HARD as _BL_HARD,
        BLOCKLIST_PCT as _BL_PCT,
        BLOCKLIST_SOFT as _BL_SOFT,
    )

    bl_soft = ", ".join(f"'{t}'" for t in _BL_SOFT)
    bl_hard = ", ".join(f"'{t}'" for t in _BL_HARD)

    from webarchive_discovery_ray.pipelines.sketches import BLOOM_PRICE_THR as _BLOOM_THR
    from webarchive_discovery_ray.pipelines.textops import BM25_TERMS

    _BM25_VALS = ", ".join(f"('{t}')" for t in BM25_TERMS)

    # numpy round() is banker's (half-to-even); DuckDB round() is
    # half-away-from-zero — emulate half-to-even on the quotient q >= 0
    sq8_round = (
        "(CAST(floor(q + 0.5) AS BIGINT) - CASE WHEN q - floor(q) = 0.5 "
        "AND CAST(floor(q) AS BIGINT) % 2 = 0 THEN 1 ELSE 0 END)"
    )
    # shared SQ8 prologue: per-dimension [min,max] over the corpus, affine
    # scale, and the banker's-rounded uint8 code per (vec, dim) — mirrors
    # pipelines/similarity.sq8_quantize's distributed partial reduce
    sq8_prologue = f"""
            WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
                       FROM embeddings),
            dims AS (
              SELECT u0.dim, min(u.val) AS lo, max(u.val) AS hi
              FROM e, unnest(generate_series(1, len(v))) AS u0(dim),
                   LATERAL (SELECT v[u0.dim] AS val) u
              GROUP BY u0.dim
            ),
            params AS (
              SELECT dim, lo,
                     CASE WHEN hi > lo THEN (hi - lo) / 255.0 ELSE 1.0 END AS scale
              FROM dims
            ),
            coded AS (
              SELECT vec_id, dim, val, lo, scale,
                     GREATEST(0, LEAST(255, {sq8_round})) AS code
              FROM (SELECT e.vec_id, p.dim, e.v[p.dim] AS val, p.lo, p.scale,
                           (e.v[p.dim] - p.lo) / p.scale AS q
                    FROM e CROSS JOIN params p)
            )"""

    # J1 rule literals shared with the Ray query (deterministic host list)
    ann = _annotation_rules()
    ann_root = next(iter(ann["root"]))
    ann_sub = next(iter(ann["subdomains"]))
    ann_sfm = next(iter(ann["source_file_matches"]))
    ann_oa = ann["open_access_surts"][0]
    ann_gate = "wayback_date BETWEEN '19900101000000' AND '20991231235959'"

    # J3 exemplar-merge columns (captures schema minus the group key and
    # record_type, which get dedicated CASEs)
    redup_cols = [
        "surt_key", "timestamp14", "url", "mime", "status",
        "length", "offset", "filename",
    ]
    redup_ex = ",\n                   ".join(
        f'first_value("{c}") OVER win AS "ex_{c}"' for c in redup_cols
    )
    redup_merge = ",\n                   ".join(
        f"CASE WHEN record_type = 'revisit' AND has_resp"
        f' THEN COALESCE("{c}", "ex_{c}") ELSE "{c}" END AS "{c}"'
        for c in redup_cols
    )

    out = {
        # money/value sums use the same floor(x*scale + 0.5) integer-cents
        # quantisation as the Ray pipelines -> bit-exact across engines
        "lineitem_agg": """
            SELECT l_returnflag, l_linestatus,
                   sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)) / 100.0 AS sum_qty,
                   sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) / 100.0 AS sum_base_price,
                   sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) / 100.0 AS sum_disc_price,
                   (sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)) / 100.0) / count(*) AS avg_qty,
                   count(*) AS count_order
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
            GROUP BY l_returnflag, l_linestatus
        """,
        "revenue_by_nation": """
            SELECT n.n_name AS n_name,
                   sum(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT)) / 100.0 AS revenue,
                   count(*) AS n_orders
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name
        """,
        # three-level ROLLUP subtotals derived from exact int64 cents
        # (pipelines/aggregates.rollup_revenue): rolled positions carry
        # the 'ALL' sentinel on both sides
        "rollup_revenue": """
            SELECT coalesce(r.r_name, 'ALL') AS r_name,
                   coalesce(n.n_name, 'ALL') AS n_name,
                   sum(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT)) / 100.0 AS revenue,
                   count(*) AS n_orders
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            GROUP BY ROLLUP(r.r_name, n.n_name)
        """,
        "events_hourly": """
            SELECT event_type, date_trunc('hour', ts) AS hour,
                   sum(CAST(floor(value * 10000 + 0.5) AS BIGINT)) / 10000.0 AS total_value,
                   count(*) AS n_events
            FROM events GROUP BY 1, 2
        """,
        "freq_count_docs": """
            SELECT lang, source, count(*) AS n FROM documents GROUP BY 1, 2
        """,
        "topk_orders": """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
        """,
        "distinct_event_types": """
            SELECT DISTINCT event_type FROM events
        """,
        "reservoir_sample_events": """
            SELECT event_type, event_id FROM (
                SELECT event_type, event_id,
                       row_number() OVER (
                           PARTITION BY event_type
                           ORDER BY md5(event_type || ':' || CAST(event_id AS VARCHAR))
                       ) AS rn
                FROM events
            ) WHERE rn <= 5
        """,
        "semi_join_lineitem": """
            WITH top_orders AS (
                SELECT o_orderkey FROM orders
                ORDER BY o_totalprice DESC, o_orderkey LIMIT 100
            )
            SELECT l_returnflag, count(*) AS n_items,
                   sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)) / 100.0 AS sum_qty
            FROM lineitem
            WHERE l_orderkey IN (SELECT o_orderkey FROM top_orders)
            GROUP BY l_returnflag
        """,
        "union_orders_split": """
            SELECT o_orderstatus, count(*) AS n,
                   sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) / 100.0 AS sum_price
            FROM (
                SELECT * FROM orders WHERE o_totalprice < 150000.0
                UNION ALL
                SELECT * FROM orders WHERE o_totalprice >= 150000.0
            ) GROUP BY 1
        """,
        "exact_dedup": """
            SELECT md5(text) AS h, min(doc_id) AS doc_id
            FROM documents GROUP BY md5(text)
        """,
        # fixed-bin token-length histogram with stable zero bins
        # (pipelines/textops.doc_length_histogram)
        "doc_length_histogram": f"""
            WITH n AS (
              SELECT CASE WHEN trim(text) = '' THEN 0
                          ELSE len({tokens}) END AS n_tok
              FROM documents
            ),
            bins(bin_ix, lo, hi) AS (VALUES
              (0, 0, 16), (1, 16, 32), (2, 32, 64), (3, 64, 128),
              (4, 128, 256), (5, 256, 512), (6, 512, -1)),
            c AS (
              SELECT CASE WHEN n_tok < 16 THEN 0 WHEN n_tok < 32 THEN 1
                          WHEN n_tok < 64 THEN 2 WHEN n_tok < 128 THEN 3
                          WHEN n_tok < 256 THEN 4 WHEN n_tok < 512 THEN 5
                          ELSE 6 END AS bin_ix
              FROM n
            )
            SELECT b.bin_ix::BIGINT AS bin_ix, b.lo::BIGINT AS lo,
                   b.hi::BIGINT AS hi,
                   COALESCE(cnt.n, 0)::BIGINT AS n_docs
            FROM bins b LEFT JOIN
                 (SELECT bin_ix, count(*) AS n FROM c GROUP BY 1) cnt
                 USING (bin_ix)
        """,
        "token_stats": f"""
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len({tokens}) END AS n_tokens,
                   len(regexp_extract_all(text,
                       ' ?[A-Za-z]+| ?[0-9]+| ?[^\t\n\f\r A-Za-z0-9]+'))
                       AS n_tokens_bpe,
                   length(text) AS doc_len
            FROM documents
        """,
        "quality_score": f"""
            SELECT doc_id,
                   length(text) AS doc_len,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len({tokens}) END AS n_tokens,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len(list_distinct({tokens})) END AS n_distinct,
                   CASE WHEN trim(text) = '' THEN 0.0
                        ELSE len(list_distinct({tokens})) * 1.0 / len({tokens})
                        END AS distinct_ratio,
                   CASE WHEN length(text) = 0 THEN 0.0
                        ELSE len(regexp_extract_all(text, '[^\t\n\f\r A-Za-z0-9]')) * 1.0
                             / length(text) END AS punct_ratio,
                   CASE WHEN trim(text) = '' THEN 0.0
                        ELSE len(list_filter({tokens},
                                 w -> w IN ('a','the','of','and','to','in','is','it')))
                             * 1.0 / len({tokens}) END AS stopword_ratio
            FROM documents
        """,
        "asof_join_events": """
            SELECT p.event_id, p.user_id, p.ts,
                   coalesce(s.event_id, -1) AS signup_event_id,
                   coalesce(s.ts, TIMESTAMP '1970-01-01 00:00:00') AS signup_ts
            FROM (SELECT event_id, user_id, ts FROM events
                  WHERE event_type = 'purchase') p
            ASOF LEFT JOIN (SELECT event_id, user_id, ts FROM events
                            WHERE event_type = 'signup') s
              ON p.user_id = s.user_id AND p.ts >= s.ts
        """,
        "range_join_events": """
            WITH buckets(lo, hi) AS (
                VALUES (0.0, 50.0), (50.0, 100.0), (100.0, 150.0), (150.0, 1e9)
            )
            SELECT e.event_type, b.lo AS bucket_lo, count(*) AS n_events,
                   sum(CAST(floor(e.value * 100 + 0.5) AS BIGINT)) / 100.0 AS sum_value
            FROM events e JOIN buckets b ON e.value >= b.lo AND e.value < b.hi
            GROUP BY 1, 2
        """,
        "sliding_window_events": """
            SELECT event_type,
                   make_timestamp(((epoch_ms(ts) // 900000) * 900000
                                   - k.k * 900000) * 1000) AS window_start,
                   count(*) AS n_events,
                   sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) / 100.0 AS sum_value
            FROM events, (SELECT unnest(range(4)) AS k) k
            GROUP BY 1, 2
        """,
        "window_running_sum": """
            SELECT event_id, event_type,
                   sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                       OVER (PARTITION BY event_type ORDER BY ts, event_id)
                       / 100.0 AS running_value
            FROM events
        """,
        "regex_scan": """
            SELECT doc_id,
                   len(regexp_extract_all(text, '(merge|join|sort)')) AS n_hits,
                   regexp_extract(text, '(merge|join|sort)') AS first_hit
            FROM documents
        """,
        "sentiment_score": r"""
            SELECT doc_id, score,
                   CASE WHEN score < -1 THEN 'negative'
                        WHEN score > 1 THEN 'positive'
                        ELSE 'neutral' END AS sentiment
            FROM (
                SELECT doc_id,
                       CAST(CASE WHEN trim(substr(text, 1, 10000)) = '' THEN 0
                            ELSE list_sum(list_transform(
                                regexp_split_to_array(trim(substr(text, 1, 10000)), '\s+'),
                                w -> CASE w WHEN 'fast' THEN 2 WHEN 'small' THEN 1
                                            WHEN 'big' THEN 1 WHEN 'slow' THEN -2
                                            WHEN 'error' THEN -3 WHEN 'dup' THEN -1
                                            ELSE 0 END)) END AS BIGINT) AS score
                FROM documents
            )
        """,
        "ann_cosine_topk": """
            SELECT qid AS query_vec_id, vec_id, rank FROM (
                SELECT q.qid, e.vec_id,
                       row_number() OVER (
                           PARTITION BY q.qid
                           ORDER BY round(list_cosine_similarity(
                               CAST(q.qe AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])
                           ), 6) DESC, e.vec_id
                       ) AS rank
                FROM (SELECT vec_id AS qid, embedding AS qe
                      FROM embeddings WHERE vec_id < 8) q
                CROSS JOIN embeddings e
            ) WHERE rank <= 5
        """,
        # hard-negative mining: top-k most-similar vectors with a
        # DIFFERENT label per query (pipelines/similarity.ann_hard_negatives)
        "ann_hard_negatives": """
            SELECT qid AS query_vec_id, vec_id, cos_r, rank FROM (
                SELECT q.qid, e.vec_id,
                       round(list_cosine_similarity(
                           CAST(q.qe AS DOUBLE[]),
                           CAST(e.embedding AS DOUBLE[])), 6) AS cos_r,
                       row_number() OVER (
                           PARTITION BY q.qid
                           ORDER BY round(list_cosine_similarity(
                               CAST(q.qe AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])
                           ), 6) DESC, e.vec_id
                       ) AS rank
                FROM (SELECT vec_id AS qid, embedding AS qe, label AS ql
                      FROM embeddings WHERE vec_id < 8) q
                JOIN embeddings e ON e.label <> q.ql
            ) WHERE rank <= 5
        """,
        # 64-bit token SimHash: ('0x'||substr(md5(t),1,16))::UBIGINT equals
        # int.from_bytes(md5(t)[:8], 'big'); the bit/accumulate/select
        # pipeline mirrors pipelines/dedup.simhash_batch exactly
        "simhash_signatures": r"""
            WITH toks AS (
                SELECT doc_id, t.tok
                FROM documents,
                     unnest(regexp_split_to_array(trim(text), '\s+')) AS t(tok)
                WHERE t.tok <> ''
            ),
            th AS (
                SELECT doc_id, ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS h
                FROM toks
            ),
            bits AS (
                SELECT doc_id, b.bit,
                       SUM(CASE WHEN (h >> b.bit) & 1 = 1 THEN 1 ELSE -1 END) AS acc
                FROM th, (SELECT unnest(range(64)) AS bit) b
                GROUP BY doc_id, b.bit
            ),
            sigs AS (
                SELECT doc_id,
                       CAST(SUM(CASE WHEN acc > 0 THEN (1::UBIGINT << bit)
                                     ELSE 0::UBIGINT END) AS UBIGINT) AS sig
                FROM bits GROUP BY doc_id
            )
            SELECT d.doc_id,
                   lpad(lower(to_hex(COALESCE(s.sig, 0))), 16, '0') AS simhash
            FROM documents d LEFT JOIN sigs s USING (doc_id)
        """,
        # unigram-LM per-doc log-loss, top-128 vocabulary + add-one OOV
        # smoothing (pipelines/curation.unigram_logloss)
        "unigram_logloss": f"""
            WITH toks AS (
              SELECT doc_id, tok FROM documents,
                   unnest({tokens}) AS t(tok)
              WHERE tok <> ''
            ),
            cnt AS (SELECT tok, count(*)::BIGINT AS n FROM toks GROUP BY 1),
            vocab AS (SELECT tok, n FROM cnt ORDER BY n DESC, tok ASC LIMIT 128),
            tot AS (SELECT (SELECT count(*) FROM toks)::DOUBLE AS N,
                           (SELECT count(*) FROM vocab)::DOUBLE AS V),
            scored AS (
              SELECT t.doc_id,
                     avg(-ln((COALESCE(v.n, 0) + 1) / (s.N + s.V + 1))) AS ll
              FROM toks t LEFT JOIN vocab v USING (tok) CROSS JOIN tot s
              GROUP BY t.doc_id
            )
            SELECT d.doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len({tokens}) END::BIGINT AS n_tokens,
                   round(COALESCE(s.ll, 0.0), 6) AS logloss_r
            FROM documents d LEFT JOIN scored s USING (doc_id)
        """,
        # bigram stupid-backoff log-loss: position mirror via
        # generate_series; top-V vocab + top-B bigram table with the
        # identical (count desc, key asc) tie-breaks
        # (pipelines/curation.bigram_logloss)
        "bigram_logloss": f"""
            WITH tk AS (
              SELECT doc_id, text,
                     list_filter({tokens}, w -> w <> '') AS t
              FROM documents
            ),
            pos AS (
              SELECT tk.doc_id, g.i, tk.t[g.i] AS cur,
                     CASE WHEN g.i = 1 THEN '' ELSE tk.t[g.i - 1] END AS prev
              FROM tk, unnest(generate_series(1, len(tk.t))) AS g(i)
            ),
            cnt AS (SELECT cur AS tok, count(*)::BIGINT AS n
                    FROM pos GROUP BY 1),
            vocab AS (SELECT tok, n FROM cnt
                      ORDER BY n DESC, tok ASC LIMIT 128),
            tot AS (SELECT (SELECT count(*) FROM pos)::DOUBLE AS N,
                           (SELECT count(*) FROM vocab)::DOUBLE AS V),
            big AS (
              SELECT p.prev, p.cur, count(*)::BIGINT AS n2
              FROM pos p JOIN vocab va ON va.tok = p.prev
              WHERE p.i > 1
              GROUP BY 1, 2
              ORDER BY n2 DESC, p.prev ASC, p.cur ASC LIMIT 1024
            ),
            scored AS (
              SELECT p.doc_id,
                     avg(CASE
                       WHEN p.i = 1 THEN
                         -ln((COALESCE(vc.n, 0) + 1) / (s.N + s.V + 1))
                       WHEN b.n2 IS NOT NULL THEN
                         -ln(b.n2::DOUBLE / vp.n::DOUBLE)
                       ELSE
                         -(ln(0.4)
                           + ln((COALESCE(vc.n, 0) + 1) / (s.N + s.V + 1)))
                     END) AS ll
              FROM pos p
              LEFT JOIN vocab vc ON vc.tok = p.cur
              LEFT JOIN big b ON b.prev = p.prev AND b.cur = p.cur
              LEFT JOIN vocab vp ON vp.tok = p.prev
              CROSS JOIN tot s
              GROUP BY p.doc_id
            )
            SELECT d.doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len(list_filter({tokens}, w -> w <> ''))
                   END::BIGINT AS n_tokens,
                   round(COALESCE(s.ll, 0.0), 6) AS logloss_r
            FROM documents d LEFT JOIN scored s USING (doc_id)
        """,
        # per-source quality report: exact integer sums -> one rounded
        # double division each (pipelines/textops.source_quality_report)
        "source_quality_report": f"""
            WITH base AS (
              SELECT source, text,
                     list_filter({tokens}, w -> w <> '') AS w
              FROM documents
            ),
            per AS (
              SELECT source,
                     len(w)::BIGINT AS n_tok,
                     len(text)::BIGINT AS n_chr,
                     (CASE WHEN len(w) > 0
                           THEN (1000000 * len(list_distinct(w))) // len(w)
                           ELSE 0 END)::BIGINT AS ratio_ppm
              FROM base
            )
            SELECT source,
                   count(*)::BIGINT AS n_docs,
                   SUM(n_tok)::BIGINT AS n_tokens,
                   SUM(n_chr)::BIGINT AS n_chars,
                   round(SUM(n_tok)::DOUBLE / count(*), 6) AS mean_tokens_r,
                   round(SUM(ratio_ppm)::DOUBLE / count(*) / 1000000.0, 6)
                       AS mean_distinct_ratio_r
            FROM per GROUP BY 1
        """,
        # Flesch reading-ease: integer counts + one exact double formula
        # (pipelines/textops.readability_scores)
        "readability_scores": f"""
            WITH base AS (
              SELECT doc_id, text,
                     list_filter({tokens}, w -> w <> '') AS w
              FROM documents
            ),
            stat AS (
              SELECT doc_id,
                     len(w)::BIGINT AS n_words,
                     greatest(1, len(regexp_extract_all(text, '[.!?]+')))
                         ::BIGINT AS n_sentences,
                     CAST(COALESCE(list_sum(list_transform(w,
                         x -> greatest(1, len(regexp_extract_all(x,
                                  '[aeiouyAEIOUY]+'))))), 0) AS BIGINT)
                         AS n_syllables
              FROM base
            )
            SELECT doc_id, n_words, n_sentences, n_syllables,
                   round(206.835
                         - 1.015 * (n_words / n_sentences)
                         - 84.6 * (n_syllables / greatest(1, n_words)),
                         6) AS flesch_r
            FROM stat
        """,
        # CCNet perplexity terciles over the unigram_logloss scores:
        # exact lower-value order statistics at floor(q*(n-1)), ties fall
        # to the cleaner bucket (pipelines/curation.ccnet_buckets)
        "ccnet_buckets": f"""
            WITH toks AS (
              SELECT doc_id, tok FROM documents,
                   unnest({tokens}) AS t(tok)
              WHERE tok <> ''
            ),
            cnt AS (SELECT tok, count(*)::BIGINT AS n FROM toks GROUP BY 1),
            vocab AS (SELECT tok, n FROM cnt ORDER BY n DESC, tok ASC LIMIT 128),
            tot AS (SELECT (SELECT count(*) FROM toks)::DOUBLE AS N,
                           (SELECT count(*) FROM vocab)::DOUBLE AS V),
            scored AS (
              SELECT t.doc_id,
                     avg(-ln((COALESCE(v.n, 0) + 1) / (s.N + s.V + 1))) AS ll
              FROM toks t LEFT JOIN vocab v USING (tok) CROSS JOIN tot s
              GROUP BY t.doc_id
            ),
            base AS (
              SELECT d.doc_id,
                     CASE WHEN trim(text) = '' THEN 0
                          ELSE len({tokens}) END::BIGINT AS n_tokens,
                     round(COALESCE(s.ll, 0.0), 6) AS logloss_r
              FROM documents d LEFT JOIN scored s USING (doc_id)
            ),
            ord AS (
              SELECT logloss_r,
                     row_number() OVER (ORDER BY logloss_r) - 1 AS rk
              FROM base
            ),
            nn AS (SELECT count(*)::BIGINT AS n FROM base),
            thr AS (
              SELECT
                (SELECT logloss_r FROM ord, nn WHERE rk = (n - 1) // 3)
                    AS t1,
                (SELECT logloss_r FROM ord, nn WHERE rk = (2 * (n - 1)) // 3)
                    AS t2
            )
            SELECT b.doc_id, b.n_tokens, b.logloss_r,
                   CASE WHEN b.logloss_r <= thr.t1 THEN 'head'
                        WHEN b.logloss_r <= thr.t2 THEN 'middle'
                        ELSE 'tail' END AS bucket
            FROM base b CROSS JOIN thr
        """,
        # Bloom semi join: the sketch is a prefilter only, so the oracle is
        # the plain semi join (pipelines/sketches.bloom_semi_join)
        "bloom_semi_join": f"""
            SELECT l_orderkey, count(*)::BIGINT AS n_items,
                   sum(l_quantity) AS sum_qty
            FROM lineitem
            WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                                 WHERE o_totalprice > {_BLOOM_THR!r})
            GROUP BY 1
        """,
        # KMV k-minimum-values source-pair Jaccard sketch
        # (pipelines/sketches.kmv_source_similarity): k=64 smallest
        # distinct md5[:8] token hashes per source, U = k smallest of the
        # pair union, estimate = |U ∩ A ∩ B| / |U| as exact integer ppm
        "kmv_source_similarity": f"""
            WITH tok AS (
                SELECT source, unnest({tokens}) AS tok
                FROM documents WHERE trim(text) <> ''
            ),
            h AS (
                SELECT DISTINCT source,
                       ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS x
                FROM tok
            ),
            sk AS (
                SELECT source, x FROM (
                    SELECT source, x,
                           row_number() OVER (PARTITION BY source ORDER BY x) AS r
                    FROM h
                ) WHERE r <= 64
            ),
            srcs AS (SELECT DISTINCT source FROM sk),
            prs AS (
                SELECT a.source AS sa, b.source AS sb
                FROM srcs a JOIN srcs b ON a.source < b.source
            ),
            uni AS (
                SELECT DISTINCT p.sa, p.sb, s.x
                FROM prs p JOIN sk s ON s.source = p.sa OR s.source = p.sb
            ),
            topu AS (
                SELECT sa, sb, x FROM (
                    SELECT sa, sb, x,
                           row_number() OVER (PARTITION BY sa, sb ORDER BY x) AS r
                    FROM uni
                ) WHERE r <= 64
            ),
            nu AS (SELECT sa, sb, count(*)::BIGINT AS n_union
                   FROM topu GROUP BY 1, 2),
            nc AS (
                SELECT t.sa, t.sb, count(*)::BIGINT AS n_common
                FROM topu t
                JOIN sk s1 ON s1.source = t.sa AND s1.x = t.x
                JOIN sk s2 ON s2.source = t.sb AND s2.x = t.x
                GROUP BY 1, 2
            )
            SELECT nu.sa AS source_a, nu.sb AS source_b, nu.n_union,
                   coalesce(nc.n_common, 0)::BIGINT AS n_common,
                   (coalesce(nc.n_common, 0) * 1000000) // nu.n_union
                       AS kmv_jaccard_ppm
            FROM nu LEFT JOIN nc ON nc.sa = nu.sa AND nc.sb = nu.sb
        """,
        # two-pass Misra-Gries heavy hitters are EXACT, so the oracle is
        # the plain top-k count (pipelines/sketches.heavy_hitters)
        "heavy_hitters": f"""
            SELECT tok AS token, count(*)::BIGINT AS n
            FROM documents, unnest({tokens}) AS t(tok)
            WHERE tok <> ''
            GROUP BY 1 ORDER BY n DESC, token ASC LIMIT 20
        """,
        # token-level content-defined chunking: boundary after any token
        # whose md5-uint64 ≡ 0 (mod 16); chunk index = boundaries strictly
        # before the token (pipelines/textops.cdc_chunks)
        "cdc_chunks": f"""
            WITH tk AS (SELECT doc_id, {tokens} AS t FROM documents),
            pos AS (SELECT doc_id, u.i AS pos, t[u.i] AS tok
                    FROM tk, unnest(generate_series(1, len(t))) AS u(i)
                    WHERE t[u.i] <> ''),
            fl AS (SELECT doc_id, pos, tok,
                     CASE WHEN ('0x' || substr(md5(tok),1,16))::UBIGINT % 16 = 0
                          THEN 1 ELSE 0 END AS b
                   FROM pos),
            ch AS (SELECT doc_id, pos, tok,
                     COALESCE(SUM(b) OVER (PARTITION BY doc_id ORDER BY pos
                              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                              0) AS cidx
                   FROM fl)
            SELECT doc_id, CAST(cidx AS BIGINT) AS chunk_idx,
                   count(*)::BIGINT AS n_tokens,
                   md5(string_agg(tok, ' ' ORDER BY pos)) AS chunk_hash
            FROM ch GROUP BY doc_id, cidx
        """,
        # BM25 (k1=1.2, b=0.75, +1 idf form) for the fixed query terms
        # (pipelines/textops.bm25_topk)
        "bm25_topk": f"""
            WITH tk AS (SELECT doc_id, {tokens} AS t FROM documents),
            dl AS (SELECT doc_id,
                          CASE WHEN t = [''] THEN 0 ELSE len(t) END AS dl
                   FROM tk),
            stats AS (SELECT count(*)::DOUBLE AS n,
                             (sum(dl)::DOUBLE / count(*)) AS avgdl FROM dl),
            q(term) AS (VALUES {_BM25_VALS}),
            tf AS (SELECT doc_id, tok AS term, count(*)::DOUBLE AS tf
                   FROM tk, unnest(t) AS u(tok)
                   WHERE tok IN (SELECT term FROM q) GROUP BY 1, 2),
            df AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df
                   FROM tf GROUP BY 1),
            scored AS (
              SELECT tf.doc_id,
                     sum( ln((s.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * (1.2 + 1.0)
                          / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * d.dl / s.avgdl))
                     ) AS score
              FROM tf JOIN df USING (term) JOIN dl d ON d.doc_id = tf.doc_id
              CROSS JOIN stats s
              GROUP BY tf.doc_id
            )
            SELECT doc_id, score_r,
                   row_number() OVER (ORDER BY score_r DESC, doc_id) AS rank
            FROM (SELECT doc_id, round(score, 6) AS score_r FROM scored
                  WHERE round(score, 6) > 0)
            QUALIFY rank <= 10
        """,
        # SQ8 scalar quantization mirror (pipelines/similarity.sq8_quantize)
        "sq8_embeddings": sq8_prologue
        + """
            SELECT vec_id,
                   string_agg(lpad(lower(to_hex(code)), 2, '0'),
                              '' ORDER BY dim) AS codes,
                   max(abs(lo + code * scale - val)) AS max_abs_err
            FROM coded GROUP BY vec_id
        """,
        # quantized brute-force cosine top-k: reconstruct each vector from
        # its SQ8 codes, rank by cosine vs the full-precision queries
        # (pipelines/similarity.sq8_cosine_topk)
        "sq8_cosine_topk": sq8_prologue
        + """
            , recon AS (
              SELECT vec_id, list(lo + code * scale ORDER BY dim) AS rv
              FROM coded GROUP BY vec_id
            ),
            q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qv
                  FROM embeddings WHERE vec_id < 8)
            SELECT qid AS query_vec_id, vec_id, rank FROM (
              SELECT q.qid, r.vec_id,
                     row_number() OVER (PARTITION BY q.qid
                         ORDER BY round(list_cosine_similarity(q.qv, r.rv), 6)
                                  DESC, r.vec_id) AS rank
              FROM q CROSS JOIN recon r
            ) WHERE rank <= 5
        """,
        # exact cosine range search (pipelines/similarity.ann_range_search):
        # 6-dp rounded cosine >= 0.3 vs the first-8 query matrix
        "ann_range_search": """
            WITH q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qv
                       FROM embeddings WHERE vec_id < 8),
            v AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS rv
                  FROM embeddings)
            SELECT q.qid AS query_vec_id, v.vec_id,
                   round(list_cosine_similarity(q.qv, v.rv), 6) AS cos_r
            FROM q CROSS JOIN v
            WHERE round(list_cosine_similarity(q.qv, v.rv), 6) >= 0.3
        """,
        # full MinHash+LSH chain mirror (pipelines/dedup.minhash_lsh_pairs):
        # md5 3-gram shingles -> splitmix64(x ^ seed) per permutation (the
        # two odd multipliers with uint64 wraparound via UHUGEINT mod 2^64)
        # -> per-band decimal-join md5 bucket keys -> within-bucket pairs
        # -> exact hashed-shingle Jaccard >= 0.3
        "minhash_lsh_pairs": f"""
            WITH seeds(perm, seed) AS (VALUES {mh_seeds}),
            tk AS (
              SELECT doc_id, text, {tokens} AS t FROM documents
            ),
            gr AS (
              SELECT doc_id,
                CASE WHEN len(t) >= 3
                  THEN list_transform(generate_series(1, len(t) - 2),
                                      i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])
                  ELSE [text] END AS gs
              FROM tk
            ),
            sh AS (
              SELECT DISTINCT doc_id, ('0x' || substr(md5(g), 1, 16))::UBIGINT AS x
              FROM gr, unnest(gs) AS u(g)
            ),
            z0 AS (SELECT doc_id, perm, xor(x, seed) AS z FROM sh CROSS JOIN seeds),
            z1 AS (SELECT doc_id, perm,
              ((xor(z, z >> 30)::UHUGEINT * 13787848793156543929::UHUGEINT)
               % {u64_mod})::UBIGINT AS z FROM z0),
            z2 AS (SELECT doc_id, perm,
              ((xor(z, z >> 27)::UHUGEINT * 10723151780598845931::UHUGEINT)
               % {u64_mod})::UBIGINT AS z FROM z1),
            mh AS (SELECT doc_id, perm, min(xor(z, z >> 31)) AS v
                   FROM z2 GROUP BY 1, 2),
            bk AS (SELECT doc_id, perm // 4 AS band,
                     substr(md5(string_agg(v::VARCHAR, '-' ORDER BY perm)), 1, 16) AS bh
                   FROM mh GROUP BY doc_id, perm // 4),
            cand AS (SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
                     FROM bk a JOIN bk b
                       ON a.band = b.band AND a.bh = b.bh AND a.doc_id < b.doc_id),
            cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY 1),
            inter AS (SELECT c.doc_a, c.doc_b, count(*) AS i
                      FROM cand c
                      JOIN sh sa ON sa.doc_id = c.doc_a
                      JOIN sh sb ON sb.doc_id = c.doc_b AND sb.x = sa.x
                      GROUP BY 1, 2),
            jac AS (SELECT i.doc_a, i.doc_b, i.i::DOUBLE / (na.n + nb.n - i.i) AS j
                    FROM inter i
                    JOIN cnt na ON na.doc_id = i.doc_a
                    JOIN cnt nb ON nb.doc_id = i.doc_b)
            SELECT doc_a, doc_b, round(j, 6) AS jaccard FROM jac WHERE j >= 0.3
        """,
        # Levenshtein verify over the SAME LSH candidate chain
        # (pipelines/dedup.edit_distance_pairs): byte-based levenshtein
        # (DuckDB native), exact integer ppm similarity — no float rounds
        "edit_distance_pairs": lsh_cand
        + """
            SELECT c.doc_a, c.doc_b,
                   levenshtein(ta.text, tb.text)::BIGINT AS dist,
                   CASE WHEN greatest(strlen(ta.text), strlen(tb.text)) = 0
                        THEN 1000000::BIGINT
                        ELSE ((greatest(strlen(ta.text), strlen(tb.text))
                               - levenshtein(ta.text, tb.text)) * 1000000)
                             // greatest(strlen(ta.text), strlen(tb.text))
                   END AS sim_ppm
            FROM cand c
            JOIN documents ta ON ta.doc_id = c.doc_a
            JOIN documents tb ON tb.doc_id = c.doc_b
        """,
        # cross-corpus fuzzy dedup (pipelines/dedup.cross_minhash_dedup):
        # the SAME minhash chain, candidate join restricted to
        # snapshot(even)×delta(odd) pairs, verified matches collapsed
        # per delta doc (count + min matching snapshot id)
        "cross_minhash_dedup": f"""
            WITH seeds(perm, seed) AS (VALUES {mh_seeds}),
            tk AS (
              SELECT doc_id, text, {tokens} AS t FROM documents
            ),
            gr AS (
              SELECT doc_id,
                CASE WHEN len(t) >= 3
                  THEN list_transform(generate_series(1, len(t) - 2),
                                      i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])
                  ELSE [text] END AS gs
              FROM tk
            ),
            sh AS (
              SELECT DISTINCT doc_id, ('0x' || substr(md5(g), 1, 16))::UBIGINT AS x
              FROM gr, unnest(gs) AS u(g)
            ),
            z0 AS (SELECT doc_id, perm, xor(x, seed) AS z FROM sh CROSS JOIN seeds),
            z1 AS (SELECT doc_id, perm,
              ((xor(z, z >> 30)::UHUGEINT * 13787848793156543929::UHUGEINT)
               % {u64_mod})::UBIGINT AS z FROM z0),
            z2 AS (SELECT doc_id, perm,
              ((xor(z, z >> 27)::UHUGEINT * 10723151780598845931::UHUGEINT)
               % {u64_mod})::UBIGINT AS z FROM z1),
            mh AS (SELECT doc_id, perm, min(xor(z, z >> 31)) AS v
                   FROM z2 GROUP BY 1, 2),
            bk AS (SELECT doc_id, perm // 4 AS band,
                     substr(md5(string_agg(v::VARCHAR, '-' ORDER BY perm)), 1, 16) AS bh
                   FROM mh GROUP BY doc_id, perm // 4),
            cand AS (SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
                     FROM bk a JOIN bk b
                       ON a.band = b.band AND a.bh = b.bh AND a.doc_id < b.doc_id
                          AND (a.doc_id % 2) <> (b.doc_id % 2)),
            cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY 1),
            inter AS (SELECT c.doc_a, c.doc_b, count(*) AS i
                      FROM cand c
                      JOIN sh sa ON sa.doc_id = c.doc_a
                      JOIN sh sb ON sb.doc_id = c.doc_b AND sb.x = sa.x
                      GROUP BY 1, 2),
            jac AS (SELECT i.doc_a, i.doc_b, i.i::DOUBLE / (na.n + nb.n - i.i) AS j
                    FROM inter i
                    JOIN cnt na ON na.doc_id = i.doc_a
                    JOIN cnt nb ON nb.doc_id = i.doc_b),
            v AS (SELECT doc_a, doc_b FROM jac WHERE j >= 0.3)
            SELECT CASE WHEN doc_a % 2 = 1 THEN doc_a ELSE doc_b END AS delta_id,
                   count(*) AS n_matches,
                   min(CASE WHEN doc_a % 2 = 1 THEN doc_b ELSE doc_a END)
                       AS best_match
            FROM v
            GROUP BY 1
        """,
        # exact n-gram Jaccard pairs (pipelines/dedup.ngram_jaccard_pairs):
        # distinct md5-hex16 3-gram shingles -> candidates from ANY shared
        # gram (the Ray side prunes candidates with the Bayardo prefix-
        # filter lemma, which is lossless for J >= t, so outputs coincide)
        # -> exact |A∩B| / |A∪B| >= 0.3
        "ngram_jaccard_pairs": f"""
            WITH tk AS (
              SELECT doc_id, text, {tokens} AS t FROM documents
            ),
            gr AS (
              SELECT doc_id,
                CASE WHEN len(t) >= 3
                  THEN list_transform(generate_series(1, len(t) - 2),
                                      i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])
                  ELSE [text] END AS gs
              FROM tk
            ),
            sh AS (
              SELECT DISTINCT doc_id, substr(md5(g), 1, 16) AS g
              FROM gr, unnest(gs) AS u(g)
            ),
            cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY 1),
            inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                             count(*) AS i
                      FROM sh a JOIN sh b
                        ON b.g = a.g AND a.doc_id < b.doc_id
                      GROUP BY 1, 2),
            jac AS (SELECT i.doc_a, i.doc_b,
                           i.i::DOUBLE / (na.n + nb.n - i.i) AS j
                    FROM inter i
                    JOIN cnt na ON na.doc_id = i.doc_a
                    JOIN cnt nb ON nb.doc_id = i.doc_b)
            SELECT doc_a, doc_b, round(j, 6) AS jaccard FROM jac WHERE j >= 0.3
        """,
        # asymmetric containment pairs over the df-capped shingle
        # universe (max_df 50, threshold 0.5 of the smaller set;
        # pipelines/dedup.containment_pairs)
        "containment_pairs": f"""
            WITH tk AS (
              SELECT doc_id, text, {tokens} AS t FROM documents
            ),
            gr AS (
              SELECT doc_id,
                CASE WHEN len(t) >= 3
                  THEN list_transform(generate_series(1, len(t) - 2),
                                      i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])
                  ELSE [text] END AS gs
              FROM tk
            ),
            sh AS (
              SELECT DISTINCT doc_id, substr(md5(g), 1, 16) AS g
              FROM gr, unnest(gs) AS u(g)
            ),
            dfreq AS (SELECT g, count(*) AS c FROM sh GROUP BY 1),
            shc AS (SELECT s.doc_id, s.g FROM sh s JOIN dfreq USING (g)
                    WHERE c <= 50),
            cnt AS (SELECT doc_id, count(*)::BIGINT AS n FROM shc GROUP BY 1),
            inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                             count(*)::BIGINT AS i
                      FROM shc a JOIN shc b
                        ON b.g = a.g AND a.doc_id < b.doc_id
                      GROUP BY 1, 2)
            SELECT i.doc_a, i.doc_b, i.i AS n_shared,
                   ((1000000 * i.i) // least(na.n, nb.n))::BIGINT
                       AS containment_ppm
            FROM inter i
            JOIN cnt na ON na.doc_id = i.doc_a
            JOIN cnt nb ON nb.doc_id = i.doc_b
            WHERE (1000000 * i.i) // least(na.n, nb.n) >= 500000
        """,
        # SimHash Hamming-radius-3 near-dup pairs: 4x16-bit band join over
        # the simhash CTE, bit_count(xor) verify
        # (pipelines/dedup.simhash_neardup_pairs)
        "simhash_neardup_pairs": f"""
            WITH toks AS (
                SELECT doc_id, t.tok
                FROM documents, unnest({tokens}) AS t(tok)
                WHERE t.tok <> ''
            ),
            th AS (SELECT doc_id,
                          ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS h
                   FROM toks),
            bits AS (
                SELECT doc_id, b.bit,
                       SUM(CASE WHEN (h >> b.bit) & 1 = 1 THEN 1 ELSE -1 END) AS acc
                FROM th, (SELECT unnest(range(64)) AS bit) b
                GROUP BY doc_id, b.bit
            ),
            sigs AS (
                SELECT doc_id, CAST(SUM(CASE WHEN acc > 0 THEN (1::UBIGINT << bit)
                                             ELSE 0::UBIGINT END) AS UBIGINT) AS sig
                FROM bits GROUP BY doc_id
            ),
            fs AS (SELECT d.doc_id, COALESCE(s.sig, 0::UBIGINT) AS sig
                   FROM documents d LEFT JOIN sigs s USING (doc_id)),
            bands AS (SELECT doc_id, sig, b.band,
                             ((sig >> (16 * b.band)) & 65535::UBIGINT) AS chunk
                      FROM fs, (SELECT unnest(range(4)) AS band) b),
            cand AS (SELECT DISTINCT a.doc_id AS doc_a, b2.doc_id AS doc_b,
                            a.sig AS sa, b2.sig AS sb
                     FROM bands a JOIN bands b2
                       ON a.band = b2.band AND a.chunk = b2.chunk
                      AND a.doc_id < b2.doc_id)
            SELECT doc_a, doc_b, bit_count(xor(sa, sb))::BIGINT AS hamming
            FROM cand WHERE bit_count(xor(sa, sb)) <= 3
        """,
        # winnowing fingerprint: 3-token shingles -> md5-derived uint64 ->
        # per-4-window minimum -> md5 of the sorted distinct selection
        # (mirrors pipelines/textops.doc_fingerprint)
        "doc_fingerprint": r"""
            WITH base AS (
                SELECT doc_id, text,
                       regexp_split_to_array(trim(text), '\s+') AS toks
                FROM documents
            ),
            sh AS (
                SELECT doc_id,
                       CASE WHEN len(toks) < 3 OR toks = ['']
                            THEN [text]
                            ELSE list_transform(range(1, len(toks) - 1),
                                 i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])
                       END AS shingles
                FROM base
            ),
            h AS (
                SELECT doc_id, i AS idx,
                       ('0x' || substr(md5(shingles[i]), 1, 16))::UBIGINT AS hv,
                       len(shingles) AS n
                FROM sh, unnest(range(1, len(shingles) + 1)) AS r(i)
            ),
            wins AS (
                SELECT doc_id, idx, n,
                       min(hv) OVER (PARTITION BY doc_id ORDER BY idx
                                     ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS wmin
                FROM h
            ),
            sel AS (
                SELECT doc_id, wmin FROM wins
                WHERE idx <= CASE WHEN n <= 4 THEN 1 ELSE n - 3 END
            )
            SELECT doc_id,
                   md5(array_to_string(list_sort(list_distinct(list(wmin))), ','))
                       AS fingerprint
            FROM sel GROUP BY doc_id
        """,
        # deterministic injection (every 3rd doc gets district[doc_id % 5]
        # + ' 1AA' appended) mirrored from the query's inject stage; the
        # synthetic corpus is lowercase so only injected postcodes match
        "postcode_geo": """
            WITH geo(district, lat, lon) AS (VALUES
                ('EC1A', 51.5204, -0.0979), ('EH1', 55.9505, -3.1875),
                ('LS1', 53.7965, -1.5478), ('M1', 53.4794, -2.2453),
                ('SW1A', 51.501, -0.1416)),
            inj AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 3 = 0 THEN
                            ['EC1A','EH1','LS1','M1','SW1A'][(doc_id % 5) + 1]
                       END AS district
                FROM documents
            )
            SELECT i.doc_id,
                   CASE WHEN i.district IS NULL THEN NULL
                        ELSE i.district || ' 1AA' END AS postcode,
                   i.district AS postcode_district, g.lat, g.lon
            FROM inj i LEFT JOIN geo g ON i.district = g.district
        """,
        # fixture-derived: the query materializes its pytest-oracled
        # extraction base to parquet first; the SQL verifies the
        # projection over that same table
        "mdx_stats": f"""
            SELECT record_type || ':' ||
                       CASE WHEN hash IS NULL OR hash = '' THEN '-' ELSE hash END
                       AS mdx_key,
                   surt, wayback_date AS timestamp14, host, crawl_year,
                   content_type, status, content_length AS length,
                   source_file, source_offset AS "offset"
            FROM read_parquet('{_ORACLE_MAT}/docs_base/*.parquet')
        """,
        "dataset_summaries": f"""
            WITH base AS (
                SELECT * FROM read_parquet('{_ORACLE_MAT}/docs_base/*.parquet')
            )
            SELECT 'host' AS facet, crawl_year AS year,
                   COALESCE(host, '') AS value, count(*) AS count
            FROM base GROUP BY 2, 3
            UNION ALL
            SELECT 'format', crawl_year, COALESCE(content_type_norm, ''), count(*)
            FROM base GROUP BY 2, 3
        """,
        # IVF-style within-label pairwise cosine (the approximation is the
        # label bucketing, shared by both sides; float64 cosine + round(6)
        # verified bit-equal numpy vs DuckDB)
        "embedding_neardup_pairs": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   round(list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(b.embedding AS DOUBLE[])), 6) AS cos
            FROM embeddings a
            JOIN embeddings b ON a.label = b.label AND a.vec_id < b.vec_id
            WHERE list_cosine_similarity(
                CAST(a.embedding AS DOUBLE[]),
                CAST(b.embedding AS DOUBLE[])) >= 0.25
        """,
        # contrastive triplets: near-dup positives + md5-rank cross-label
        # negatives (pipelines/similarity.contrastive_triplets)
        "contrastive_triplets": """
            WITH p AS (
              SELECT a.vec_id AS anchor, b.vec_id AS positive,
                     a.label AS albl
              FROM embeddings a
              JOIN embeddings b ON a.label = b.label AND a.vec_id < b.vec_id
              WHERE list_cosine_similarity(
                  CAST(a.embedding AS DOUBLE[]),
                  CAST(b.embedding AS DOUBLE[])) >= 0.25
            ),
            cand AS (
              SELECT p.anchor, p.positive, v.vec_id AS negative,
                     md5(CAST(p.anchor AS VARCHAR) || ':'
                         || CAST(v.vec_id AS VARCHAR)) AS h
              FROM p JOIN embeddings v ON v.label <> p.albl
            ),
            r AS (
              SELECT *, row_number() OVER (
                  PARTITION BY anchor, positive ORDER BY h, negative
              ) AS rn
              FROM cand
            )
            SELECT anchor, positive, negative FROM r WHERE rn = 1
        """,
        # SemDeDup keep-list (min-id rule within the label bucket):
        # mirrors pipelines/dedup.semdedup_keep at threshold 0.35
        "semdedup_keep": """
            WITH prior AS (
                SELECT b.vec_id, count(*) AS n
                FROM embeddings a
                JOIN embeddings b
                  ON a.label = b.label AND a.vec_id < b.vec_id
                WHERE list_cosine_similarity(
                    CAST(a.embedding AS DOUBLE[]),
                    CAST(b.embedding AS DOUBLE[])) >= 0.35
                GROUP BY b.vec_id
            )
            SELECT e.vec_id, e.label,
                   CAST(COALESCE(p.n, 0) AS BIGINT) AS n_prior_dups,
                   COALESCE(p.n, 0) = 0 AS keep
            FROM embeddings e LEFT JOIN prior p USING (vec_id)
        """,
        # merge-of-sorted-runs content mirror: the union of the two
        # materialized runs (sortedness is pytest-pinned; the driver
        # compare is order-insensitive by design)
        "cdx_merge": f"""
            SELECT * FROM read_parquet('{_ORACLE_MAT}/cdx_runs/0/*.parquet')
            UNION ALL
            SELECT * FROM read_parquet('{_ORACLE_MAT}/cdx_runs/1/*.parquet')
        """,
        "cdx_sorted": f"""
            SELECT * FROM read_parquet('{_ORACLE_MAT}/captures/*.parquet')
        """,
        # M30 first-match-wins ARC-name rules (ARCNameAnalyser.java:123-127)
        "arcname_fields": f"""
            SELECT url, source_file,
                   CASE WHEN regexp_matches(source_file, '^([a-z]+)-([0-9]+)-')
                        THEN regexp_extract(source_file, '^([a-z]+)-([0-9]+)-', 1)
                        WHEN regexp_matches(source_file, '^crawl') THEN 'crawl'
                   END AS arc_job,
                   CASE WHEN regexp_matches(source_file, '^([a-z]+)-([0-9]+)-')
                        THEN regexp_extract(source_file, '^([a-z]+)-([0-9]+)-', 2)
                   END AS arc_harvest,
                   CASE WHEN regexp_matches(source_file, '^([a-z]+)-([0-9]+)-')
                        THEN 'synthetic'
                        WHEN regexp_matches(source_file, '^crawl') THEN 'fallback'
                   END AS arc_institution
            FROM read_parquet('{_ORACLE_MAT}/arcname_base/*.parquet')
        """,
        # J2: ARK register = the first 64 distinct filenames (sorted)
        "ark_lookup": f"""
            WITH caps AS (
                SELECT * FROM read_parquet('{_ORACLE_MAT}/captures/*.parquet')
            ),
            f AS (
                SELECT filename,
                       row_number() OVER (ORDER BY filename) - 1 AS rn
                FROM (SELECT DISTINCT filename FROM caps)
            ),
            m AS (
                SELECT filename, printf('ark:/81055/%08d', rn) AS ark
                FROM f WHERE rn < 64
            )
            SELECT c.surt_key, c.filename, COALESCE(m.ark, c.filename) AS ark
            FROM caps c LEFT JOIN m USING (filename)
        """,
        # ordered response<->metadata pairing: a metadata record attaches
        # to the latest preceding response/revisit offset within its file
        "persist_log": f"""
            WITH rows AS (
                SELECT * FROM read_parquet('{_ORACLE_MAT}/plog_base/*.parquet')
            ),
            rr AS (
                SELECT surt, status, hash AS digest,
                       wayback_date AS timestamp14,
                       content_length AS length, source_file, source_offset,
                       lead(source_offset, 1, 9223372036854775807) OVER (
                           PARTITION BY source_file
                           ORDER BY source_offset, wayback_date, record_type
                       ) AS next_off
                FROM rows WHERE record_type IN ('response', 'revisit')
            )
            SELECT surt, status, digest, timestamp14, length, source_file,
                   EXISTS (
                       SELECT 1 FROM rows m
                       WHERE m.record_type = 'metadata'
                         AND m.source_file = rr.source_file
                         AND m.source_offset > rr.source_offset
                         AND m.source_offset < rr.next_off
                   ) AS has_metadata
            FROM rr
        """,
        # benchmark decontamination: distinct shared 8-gram shingles
        # between each corpus doc and the doc_id<10 "benchmark" slice
        "decontaminate": """
            WITH toks AS (
                SELECT doc_id, string_split(text, ' ') AS w FROM documents
            ),
            grams AS (
                SELECT doc_id,
                       array_to_string(
                           w[CAST(i AS BIGINT):CAST(i + 7 AS BIGINT)], ' '
                       ) AS g
                FROM toks, UNNEST(range(1, len(w) - 6)) AS t(i)
                WHERE len(w) >= 8
            ),
            bench AS (SELECT DISTINCT g FROM grams WHERE doc_id < 10),
            hits AS (
                SELECT dg.doc_id, count(*) AS n_matches
                FROM (
                    SELECT DISTINCT doc_id, g FROM grams WHERE doc_id >= 10
                ) dg
                JOIN bench USING (g) GROUP BY dg.doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(h.n_matches, 0) AS BIGINT) AS n_matches,
                   COALESCE(h.n_matches, 0) > 0 AS contaminated
            FROM documents d LEFT JOIN hits h USING (doc_id)
            WHERE d.doc_id >= 10
        """,
        # DSIR importance weights (Xie et al. 2023): hashed unigram+bigram
        # buckets (md5 -> uint64 mod 64), add-one smoothed target/raw
        # log-ratio — mirrors pipelines/curation.dsir_weights
        "dsir_weights": f"""
            WITH toks AS (
              SELECT doc_id, lang, list_filter({tokens}, w -> w <> '') AS w
              FROM documents
            ),
            grams AS (
              SELECT doc_id, lang, w[i] AS g
              FROM toks, unnest(generate_series(1, len(w))) AS u(i)
              UNION ALL
              SELECT doc_id, lang, w[i] || ' ' || w[i + 1] AS g
              FROM toks, unnest(generate_series(1, len(w) - 1)) AS u(i)
            ),
            b AS (
              SELECT doc_id, lang,
                     CAST(('0x' || substr(md5(g), 1, 16))::UBIGINT % 64
                          AS BIGINT) AS bucket
              FROM grams
            ),
            cnt AS (
              SELECT bucket, count(*)::BIGINT AS n_raw,
                     (count(*) FILTER (WHERE lang = 'en'))::BIGINT AS n_t
              FROM b GROUP BY bucket
            ),
            tot AS (
              SELECT sum(n_raw)::BIGINT AS nr, sum(n_t)::BIGINT AS nt FROM cnt
            ),
            ratio AS (
              SELECT bucket,
                     ln((n_t + 1) / (nt + 64.0))
                     - ln((n_raw + 1) / (nr + 64.0)) AS r
              FROM cnt CROSS JOIN tot
            ),
            doc_b AS (
              SELECT doc_id, bucket, count(*)::BIGINT AS c
              FROM b GROUP BY 1, 2
            ),
            scored AS (
              SELECT doc_id, sum(c)::BIGINT AS n_grams, sum(c * ratio.r) AS lw
              FROM doc_b JOIN ratio USING (bucket) GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(s.n_grams, 0) AS BIGINT) AS n_grams,
                   round(COALESCE(s.lw, 0.0), 6) AS logweight
            FROM documents d LEFT JOIN scored s USING (doc_id)
        """,
        # UT1-style blocklist stage: soft/hard lists + integer-exact ratio
        # verdict mirror pipelines/curation.blocklist_filter (constants
        # rendered from the same module so the two can't drift)
        "blocklist_filter": f"""
            WITH toks AS (
              SELECT doc_id, string_split(text, ' ') AS w FROM documents
            ),
            stat AS (
              SELECT doc_id,
                     len(w)::BIGINT AS n_tokens,
                     len(list_filter(w, x -> list_contains([{bl_soft}], x)))
                         ::BIGINT AS n_bad,
                     len(list_filter(w, x -> list_contains([{bl_hard}], x)))
                         > 0 AS hard_hit
              FROM toks
            )
            SELECT doc_id, n_tokens, n_bad,
                   CAST(n_bad AS DOUBLE) / n_tokens AS bad_ratio,
                   hard_hit,
                   (hard_hit OR 100 * n_bad >= {int(_BL_PCT)} * n_tokens)
                       AS blocked
            FROM stat
        """,
        # Gopher quality rules (Rae et al. 2021 A1.1): exact-integer
        # cross-multiplied verdicts mirror pipelines/curation.gopher_rules
        "gopher_rules": f"""
            WITH base AS (
              SELECT doc_id,
                     text,
                     list_filter({tokens}, w -> w <> '') AS w,
                     string_split(text, chr(10)) AS lines
              FROM documents
            ),
            stat AS (
              SELECT doc_id,
                     len(w)::BIGINT AS n_words,
                     CAST(COALESCE(list_sum(list_transform(w, x -> len(x))), 0)
                          AS BIGINT) AS word_chars,
                     len(list_filter(w, x -> regexp_matches(x, '[A-Za-z]')))
                         ::BIGINT AS n_alpha_words,
                     (CASE WHEN list_contains(w, 'the') THEN 1 ELSE 0 END
                      + CASE WHEN list_contains(w, 'be') THEN 1 ELSE 0 END
                      + CASE WHEN list_contains(w, 'to') THEN 1 ELSE 0 END
                      + CASE WHEN list_contains(w, 'of') THEN 1 ELSE 0 END
                      + CASE WHEN list_contains(w, 'and') THEN 1 ELSE 0 END
                      + CASE WHEN list_contains(w, 'that') THEN 1 ELSE 0 END
                      + CASE WHEN list_contains(w, 'have') THEN 1 ELSE 0 END
                      + CASE WHEN list_contains(w, 'with') THEN 1 ELSE 0 END
                     )::BIGINT AS n_stop_distinct,
                     ((len(text) - len(replace(text, '#', '')))
                      + (len(text) - len(replace(text, '...', ''))) // 3
                      + (len(text) - len(replace(text, '…', '')))
                     )::BIGINT AS n_symbols,
                     len(lines)::BIGINT AS n_lines,
                     len(list_filter(lines, l -> starts_with(l, '•')
                                             OR starts_with(l, '- ')))
                         ::BIGINT AS n_bullet_lines,
                     len(list_filter(lines, l -> ends_with(l, '...')
                                             OR ends_with(l, '…')))
                         ::BIGINT AS n_ellipsis_lines
              FROM base
            )
            SELECT doc_id, n_words, word_chars, n_alpha_words,
                   n_stop_distinct, n_symbols, n_lines, n_bullet_lines,
                   n_ellipsis_lines,
                   (n_words >= 50 AND n_words <= 100000) AS rule_word_count,
                   (n_words > 0 AND 3 * n_words <= word_chars
                    AND word_chars <= 10 * n_words) AS rule_mean_word_len,
                   (n_words > 0 AND 10 * n_symbols <= n_words)
                       AS rule_symbol_ratio,
                   (10 * n_bullet_lines <= 9 * n_lines) AS rule_bullet_lines,
                   (10 * n_ellipsis_lines <= 3 * n_lines)
                       AS rule_ellipsis_lines,
                   (n_words > 0 AND 5 * n_alpha_words >= 4 * n_words)
                       AS rule_alpha_words,
                   (n_stop_distinct >= 2) AS rule_stop_words,
                   ((n_words >= 50 AND n_words <= 100000)
                    AND (n_words > 0 AND 3 * n_words <= word_chars
                         AND word_chars <= 10 * n_words)
                    AND (n_words > 0 AND 10 * n_symbols <= n_words)
                    AND (10 * n_bullet_lines <= 9 * n_lines)
                    AND (10 * n_ellipsis_lines <= 3 * n_lines)
                    AND (n_words > 0 AND 5 * n_alpha_words >= 4 * n_words)
                    AND (n_stop_distinct >= 2)) AS keep
            FROM stat
        """,
        # C4 line-level cleaning (Raffel et al. 2020 §2.2): per-line
        # verdicts then page verdicts, mirroring curation.c4_filters
        # exactly (trim charset = space/tab/CR; words = non-empty
        # single-space tokens; chr(123) = '{')
        "c4_filters": """
            WITH base AS (
              SELECT doc_id,
                     text,
                     list_transform(
                         string_split(text, chr(10)),
                         l -> trim(l, ' ' || chr(9) || chr(13))
                     ) AS tl
              FROM documents
            ),
            lined AS (
              SELECT doc_id,
                     text,
                     len(tl)::BIGINT AS n_lines,
                     list_filter(
                         tl,
                         t -> (ends_with(t, '.') OR ends_with(t, '!')
                               OR ends_with(t, '?') OR ends_with(t, '"'))
                              AND len(list_filter(string_split(t, ' '),
                                                  x -> x <> '')) >= 3
                              AND NOT contains(lower(t), 'javascript')
                     ) AS kept
              FROM base
            ),
            stat AS (
              SELECT doc_id,
                     n_lines,
                     len(kept)::BIGINT AS n_kept,
                     CAST(COALESCE(list_sum(list_transform(kept, x -> len(x))),
                                   0) AS BIGINT) AS kept_chars,
                     contains(lower(text), 'lorem ipsum') AS has_lorem,
                     contains(text, chr(123)) AS has_brace,
                     COALESCE(array_to_string(kept, chr(10)), '')
                         AS kept_text
              FROM lined
            )
            SELECT doc_id, n_lines, n_kept, kept_chars, has_lorem, has_brace,
                   (n_kept >= 3 AND NOT has_lorem AND NOT has_brace) AS keep,
                   kept_text
            FROM stat
        """,
        # Gopher-style repetition signals: duplicate word / 2-gram fracs
        "repetition_score": """
            WITH toks AS (
                SELECT doc_id, string_split(text, ' ') AS w FROM documents
            ),
            words AS (SELECT doc_id, UNNEST(w) AS tok FROM toks),
            wstat AS (
                SELECT doc_id, count(*) AS n_words,
                       count(DISTINCT tok) AS n_uniq
                FROM words GROUP BY doc_id
            ),
            g2 AS (
                SELECT doc_id,
                       array_to_string(
                           w[CAST(i AS BIGINT):CAST(i + 1 AS BIGINT)], ' '
                       ) AS g
                FROM toks, UNNEST(range(1, len(w))) AS t(i)
                WHERE len(w) >= 2
            ),
            gstat AS (
                SELECT doc_id, count(*) AS n_g, count(DISTINCT g) AS u_g
                FROM g2 GROUP BY doc_id
            )
            SELECT w.doc_id,
                   1.0 - CAST(w.n_uniq AS DOUBLE) / w.n_words
                       AS dup_word_frac,
                   1.0 - CAST(COALESCE(g.u_g, 0) AS DOUBLE)
                       / COALESCE(g.n_g, 1) AS dup_2gram_frac
            FROM wstat w LEFT JOIN gstat g USING (doc_id)
        """,
        # integer-dot-product language ID: top-40 token profiles per lang,
        # score = sum(doc token count x profile count) — exact arithmetic,
        # ties -> lexicographically smallest lang, zero overlap -> min lang
        "language_id": rf"""
            WITH toks AS (
                SELECT doc_id, lang, t.tok
                FROM documents, unnest({tokens}) AS t(tok)
                WHERE t.tok <> ''
            ),
            counts AS (SELECT lang, tok, count(*) AS n FROM toks GROUP BY 1, 2),
            prof AS (
                SELECT lang, tok, n FROM (
                    SELECT *, row_number() OVER (
                        PARTITION BY lang ORDER BY n DESC, tok) AS rn
                    FROM counts
                ) WHERE rn <= 40
            ),
            dt AS (SELECT doc_id, tok, count(*) AS c FROM toks GROUP BY 1, 2),
            scores AS (
                SELECT dt.doc_id, p.lang, sum(dt.c * p.n) AS s
                FROM dt JOIN prof p ON dt.tok = p.tok GROUP BY 1, 2
            ),
            best AS (
                SELECT doc_id, lang AS lang_pred FROM (
                    SELECT *, row_number() OVER (
                        PARTITION BY doc_id ORDER BY s DESC, lang) AS rn
                    FROM scores
                ) WHERE rn = 1
            )
            SELECT d.doc_id, d.lang,
                   COALESCE(b.lang_pred, (SELECT min(lang) FROM documents))
                       AS lang_pred
            FROM documents d LEFT JOIN best b USING (doc_id)
        """,
        # IVF probe: per-label centroids (per-dimension avg), 3 nearest
        # centroids per query by round-6 cosine (label tie-break), exact
        # round-6 cosine rank within the probed buckets — mirrors
        # pipelines/similarity.ivf_cosine_topk
        "ivf_cosine_topk": """
            WITH e AS (
                SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb, label
                FROM embeddings
            ),
            dims AS (
                SELECT label, generate_subscripts(emb, 1) AS idx,
                       unnest(emb) AS val
                FROM e
            ),
            cent AS (
                SELECT label, list(v ORDER BY idx) AS c FROM (
                    SELECT label, idx, avg(val) AS v FROM dims GROUP BY 1, 2
                ) GROUP BY label
            ),
            q AS (SELECT vec_id AS qid, emb AS qe FROM e WHERE vec_id < 8),
            probe AS (
                SELECT qid, label FROM (
                    SELECT q.qid, cent.label,
                           row_number() OVER (
                               PARTITION BY q.qid
                               ORDER BY round(list_cosine_similarity(cent.c, q.qe), 6)
                                   DESC, cent.label
                           ) AS rn
                    FROM q, cent
                ) WHERE rn <= 3
            )
            SELECT qid AS query_vec_id, vec_id, rank FROM (
                SELECT q.qid, e.vec_id,
                       row_number() OVER (
                           PARTITION BY q.qid
                           ORDER BY round(list_cosine_similarity(e.emb, q.qe), 6)
                               DESC, e.vec_id
                       ) AS rank
                FROM q JOIN probe p ON p.qid = q.qid
                       JOIN e ON e.label = p.label
            ) WHERE rank <= 5
        """,
        # J1 annotations: the same four-scope rule set as the Ray query
        # (resource scope empty in this fixture), date-gated, over the
        # materialized extraction base
        "annotations": rf"""
            SELECT doc_id, url_norm,
                   COALESCE(array_to_string(list_sort(list_filter(
                       [CASE WHEN starts_with(url_norm, '{ann_root}')
                                  AND {ann_gate} THEN 'collection-zero' END,
                        CASE WHEN (host = '{ann_sub}'
                                   OR ends_with(host, '.{ann_sub}'))
                                  AND {ann_gate} THEN 'collection-one' END,
                        CASE WHEN regexp_matches(source_file, '{ann_sfm}')
                                  AND {ann_gate} THEN 'first-warc' END],
                       x -> x IS NOT NULL)), ','), '') AS collections,
                   CASE WHEN starts_with(surt, '{ann_oa}') THEN 'OA'
                        ELSE 'RRO' END AS access_terms
            FROM read_parquet('{_ORACLE_MAT}/ann_base/*.parquet')
        """,
        # J3 reduplication: per-digest exemplar = first response by
        # (timestamp14, url); revisits take their own non-null fields,
        # exemplar fills the nulls; record_type -> 'reduplicated'
        "reduplicate_revisits": f"""
            WITH rows AS (
                SELECT * FROM read_parquet('{_ORACLE_MAT}/captures/*.parquet')
            ),
            w AS (
                SELECT *,
                   bool_or(record_type = 'response') OVER
                       (PARTITION BY digest) AS has_resp,
                   {redup_ex}
                FROM rows
                WINDOW win AS (
                    PARTITION BY digest
                    ORDER BY (record_type <> 'response'), timestamp14, url
                    ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING
                )
            )
            SELECT {redup_merge},
                   digest,
                   CASE WHEN record_type = 'revisit' AND has_resp
                        THEN 'reduplicated' ELSE record_type END AS record_type
            FROM w
        """,
        # connected components over the materialized LSH pair graph:
        # cluster_id = min doc_id reachable (recursive transitive closure)
        "neardup_clusters": f"""
            WITH RECURSIVE edges AS (
                SELECT doc_a AS src, doc_b AS dst
                FROM read_parquet('{_ORACLE_MAT}/neardup_pairs/*.parquet')
                UNION ALL
                SELECT doc_b, doc_a
                FROM read_parquet('{_ORACLE_MAT}/neardup_pairs/*.parquet')
            ),
            reach(a, b) AS (
                SELECT doc_id, doc_id FROM documents
                UNION
                SELECT r.a, e.dst FROM reach r JOIN edges e ON r.b = e.src
            )
            SELECT a AS doc_id, min(b) AS cluster_id FROM reach GROUP BY a
        """,
        # fuzzy-dedup APPLY: keep the min-id representative of every
        # component, with component size and the kept doc's content md5
        "neardup_dedup_apply": f"""
            WITH RECURSIVE edges AS (
                SELECT doc_a AS src, doc_b AS dst
                FROM read_parquet('{_ORACLE_MAT}/neardup_pairs/*.parquet')
                UNION ALL
                SELECT doc_b, doc_a
                FROM read_parquet('{_ORACLE_MAT}/neardup_pairs/*.parquet')
            ),
            reach(a, b) AS (
                SELECT doc_id, doc_id FROM documents
                UNION
                SELECT r.a, e.dst FROM reach r JOIN edges e ON r.b = e.src
            ),
            clusters AS (
                SELECT a AS doc_id, min(b) AS cluster_id FROM reach GROUP BY a
            ),
            sizes AS (
                SELECT cluster_id, count(*) AS n_merged
                FROM clusters GROUP BY cluster_id
            )
            SELECT s.cluster_id AS doc_id, s.n_merged, md5(d.text) AS text_md5
            FROM sizes s JOIN documents d ON d.doc_id = s.cluster_id
        """,
        # kNN majority-vote label transfer over the materialized knn_graph
        # edge set (pipelines/similarity.label_propagation): odd vec_ids
        # vote from even-labelled neighbours, tie -> smallest label
        "label_propagation": f"""
            WITH e AS (
              SELECT src_vec_id AS s, dst_vec_id AS d
              FROM read_parquet('{_ORACLE_MAT}/knn_edges/*.parquet')
              WHERE src_vec_id % 2 = 1
            ),
            v AS (
              SELECT e.s, emb.label
              FROM e JOIN embeddings emb
                ON emb.vec_id = e.d AND emb.vec_id % 2 = 0
            ),
            c AS (SELECT s, label, count(*)::BIGINT AS n
                  FROM v GROUP BY s, label)
            SELECT s AS vec_id, label::BIGINT AS pred_label, n AS n_votes
            FROM (
              SELECT s, label, n,
                     row_number() OVER (
                         PARTITION BY s ORDER BY n DESC, label) AS rn
              FROM c
            ) WHERE rn = 1
        """,
        # quality-argmax representative per near-dup cluster: composes the
        # neardup_clusters reachability with the quality_score ratio
        "cluster_representatives": f"""
            WITH RECURSIVE edges AS (
                SELECT doc_a AS src, doc_b AS dst
                FROM read_parquet('{_ORACLE_MAT}/neardup_pairs/*.parquet')
                UNION ALL
                SELECT doc_b, doc_a
                FROM read_parquet('{_ORACLE_MAT}/neardup_pairs/*.parquet')
            ),
            reach(a, b) AS (
                SELECT doc_id, doc_id FROM documents
                UNION
                SELECT r.a, e.dst FROM reach r JOIN edges e ON r.b = e.src
            ),
            clusters AS (
                SELECT a AS doc_id, min(b) AS cluster_id FROM reach GROUP BY a
            ),
            q AS (
                SELECT doc_id,
                       CASE WHEN trim(text) = '' THEN 0.0
                            ELSE len(list_distinct({tokens})) * 1.0
                                 / len({tokens}) END AS distinct_ratio
                FROM documents
            )
            SELECT c.doc_id, c.cluster_id, q.distinct_ratio,
                   row_number() OVER (
                       PARTITION BY c.cluster_id
                       ORDER BY q.distinct_ratio DESC, c.doc_id ASC
                   ) = 1 AS is_rep
            FROM clusters c JOIN q USING (doc_id)
        """,
        # exact lower-value quantiles: value at index floor(q*(n-1))
        "global_quantiles": """
            WITH s AS (
                SELECT l_extendedprice AS v,
                       row_number() OVER (ORDER BY l_extendedprice) - 1 AS rn
                FROM lineitem
            ),
            n AS (SELECT count(*) AS c FROM lineitem),
            qs(q) AS (VALUES (0.01), (0.10), (0.25), (0.50), (0.75), (0.90), (0.99))
            SELECT qs.q AS q, s.v AS value
            FROM qs, n, s
            WHERE s.rn = CAST(floor(qs.q * (n.c - 1)) AS BIGINT)
        """,
        # corpus top-50 2-grams, ties broken by gram asc
        # rank-normalized two-signal quality ensemble (pipelines/textops.
        # rank_blend): row_number windows over the SAME oracle-proven
        # distinct_ratio / flesch_r doubles, blend = rank sum, re-ranked
        "rank_blend": rf"""
            WITH q AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN 0.0
                          ELSE len(list_distinct({tokens})) * 1.0
                               / len({tokens}) END AS dr
              FROM documents
            ),
            base AS (
              SELECT doc_id,
                     list_filter({tokens}, w -> w <> '') AS w, text
              FROM documents
            ),
            stat AS (
              SELECT doc_id,
                     len(w)::BIGINT AS n_words,
                     greatest(1, len(regexp_extract_all(text, '[.!?]+')))
                         ::BIGINT AS n_sentences,
                     CAST(COALESCE(list_sum(list_transform(w,
                         x -> greatest(1, len(regexp_extract_all(x,
                                  '[aeiouyAEIOUY]+'))))), 0) AS BIGINT)
                         AS n_syllables
              FROM base
            ),
            f AS (
              SELECT doc_id,
                     round(206.835
                           - 1.015 * (n_words / n_sentences)
                           - 84.6 * (n_syllables / greatest(1, n_words)),
                           6) AS flesch_r
              FROM stat
            ),
            r1 AS (SELECT doc_id,
                          row_number() OVER (ORDER BY dr DESC, doc_id)
                              ::BIGINT AS r_quality
                   FROM q),
            r2 AS (SELECT doc_id,
                          row_number() OVER (ORDER BY flesch_r DESC, doc_id)
                              ::BIGINT AS r_read
                   FROM f),
            b AS (SELECT r1.doc_id, r_quality, r_read,
                         r_quality + r_read AS blend
                  FROM r1 JOIN r2 USING (doc_id))
            SELECT doc_id, r_quality, r_read,
                   row_number() OVER (ORDER BY blend, doc_id)::BIGINT
                       AS blend_rank
            FROM b
        """,
        # Zipf frequency-of-frequencies census (pipelines/textops.
        # token_spectrum): token -> exact corpus frequency -> per-
        # frequency distinct-token counts
        # per-source token entropy: per-token micro-nat quantisation
        # (identical IEEE term both engines) -> exact integer sums ->
        # one double expression (pipelines/textops.entropy_by_source)
        "entropy_by_source": f"""
            WITH toks AS (
              SELECT source, t.tok
              FROM documents, unnest({tokens}) AS t(tok)
              WHERE t.tok <> ''
            ),
            cnt AS (SELECT source, tok, count(*)::BIGINT AS c
                    FROM toks GROUP BY 1, 2),
            terms AS (SELECT source, c,
                             CAST(floor(c::DOUBLE * ln(c::DOUBLE) * 1000000
                                        + 0.5) AS BIGINT) AS q
                      FROM cnt),
            agg AS (SELECT source, sum(c)::BIGINT AS n_tokens,
                           count(*)::BIGINT AS n_distinct,
                           sum(q)::BIGINT AS q
                    FROM terms GROUP BY 1)
            SELECT source, n_tokens, n_distinct,
                   round(ln(n_tokens::DOUBLE)
                         - (q::DOUBLE / 1000000.0) / n_tokens::DOUBLE, 6)
                       AS entropy_r
            FROM agg
        """,
        "token_spectrum": rf"""
            WITH tk AS (
                SELECT unnest({tokens}) AS tok
                FROM documents WHERE trim(text) <> ''
            ),
            cnt AS (
                SELECT tok, count(*)::BIGINT AS f
                FROM tk WHERE tok <> '' GROUP BY tok
            )
            SELECT f AS freq, count(*)::BIGINT AS n_tokens
            FROM cnt GROUP BY f
        """,
        "ngram_topk": rf"""
            WITH toks AS (
                SELECT {tokens} AS w FROM documents WHERE trim(text) <> ''
            ),
            g AS (
                SELECT w[CAST(i AS BIGINT)] || ' ' || w[CAST(i + 1 AS BIGINT)] AS gram
                FROM toks, unnest(range(1, len(w))) AS t(i)
                WHERE len(w) >= 2
            )
            SELECT gram, count(*) AS n FROM g
            GROUP BY gram ORDER BY n DESC, gram LIMIT 50
        """,
        # top-k PMI collocations (textops.pmi_collocations): exact int64
        # counts everywhere, ONE order-pinned double expression per bigram
        # (ln c12 + 2 ln N - ln B - ln c1 - ln c2, left-associative in
        # both engines), support filter c12 >= 5 AFTER B is summed
        "pmi_collocations": rf"""
            WITH tk AS (
                SELECT {tokens} AS w FROM documents WHERE trim(text) <> ''
            ),
            uni AS (
                SELECT u.tok, count(*)::BIGINT AS c
                FROM (SELECT unnest({tokens}) AS tok
                      FROM documents WHERE trim(text) <> '') u
                GROUP BY 1
            ),
            tot AS (SELECT sum(c)::BIGINT AS n FROM uni),
            big AS (
                SELECT w[CAST(i AS BIGINT)] AS w1,
                       w[CAST(i + 1 AS BIGINT)] AS w2,
                       count(*)::BIGINT AS c12
                FROM tk, unnest(range(1, len(w))) AS t(i)
                WHERE len(w) >= 2
                GROUP BY 1, 2
            ),
            btot AS (SELECT sum(c12)::BIGINT AS b FROM big),
            f AS (SELECT * FROM big WHERE c12 >= 5),
            j AS (
                SELECT f.w1, f.w2, f.c12, u1.c AS c1, u2.c AS c2
                FROM f JOIN uni u1 ON u1.tok = f.w1
                       JOIN uni u2 ON u2.tok = f.w2
            )
            SELECT w1 || ' ' || w2 AS gram, c12, c1, c2,
                   round(ln(c12::DOUBLE) + 2 * ln(n::DOUBLE) - ln(b::DOUBLE)
                         - ln(c1::DOUBLE) - ln(c2::DOUBLE), 6) AS pmi_r
            FROM j, tot, btot
            ORDER BY pmi_r DESC, gram LIMIT 50
        """,
        # inverted index: token -> (df, total_tf, first-8 posting doc_ids)
        "inverted_index": rf"""
            WITH toks AS (
                SELECT doc_id, t.tok
                FROM documents, unnest({tokens}) AS t(tok)
                WHERE t.tok <> ''
            ),
            tf AS (SELECT tok, doc_id, count(*) AS c FROM toks GROUP BY 1, 2)
            SELECT tok AS token,
                   count(*) AS df,
                   CAST(sum(c) AS BIGINT) AS total_tf,
                   array_to_string(
                       list_slice(list(doc_id ORDER BY doc_id), 1, 8), ','
                   ) AS postings
            FROM tf GROUP BY tok
        """,
        # concat-and-chunk sequence packing over doc_id order (512-token
        # context windows; empty docs collapse to bin_start)
        "pack_sequences": rf"""
            WITH t AS (
                SELECT doc_id,
                       CASE WHEN trim(text) = '' THEN 0
                            ELSE len({tokens}) END AS n
                FROM documents
            ),
            c AS (
                SELECT doc_id, n,
                       CAST(COALESCE(sum(n) OVER (
                           ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                       ), 0) AS BIGINT) AS off
                FROM t
            )
            SELECT doc_id, CAST(n AS BIGINT) AS n_tokens, off AS tok_offset,
                   off // 512 AS bin_start,
                   CASE WHEN n = 0 THEN off // 512
                        ELSE (off + n - 1) // 512 END AS bin_end
            FROM c
        """,
        # length-bucketed batch assignment (pipelines/textops.bucket_batches):
        # power-of-2 token-length buckets, batches of 32 docs in doc_id order
        "bucket_batches": rf"""
            WITH t AS (
                SELECT doc_id,
                       CASE WHEN trim(text) = '' THEN 0
                            ELSE len({tokens}) END::BIGINT AS n_tokens
                FROM documents
            ),
            b AS (
                SELECT doc_id, n_tokens,
                       CASE WHEN n_tokens <= 0 THEN 0
                            ELSE CAST(floor(log2(n_tokens)) AS BIGINT)
                       END AS len_bucket
                FROM t
            ),
            r AS (
                SELECT *, row_number() OVER (
                           PARTITION BY len_bucket ORDER BY doc_id
                       ) - 1 AS rk
                FROM b
            )
            SELECT doc_id, n_tokens, len_bucket,
                   rk // 32 AS batch_idx, rk % 32 AS pos_in_batch
            FROM r
        """,
        # digit-run masking + salted-md5 pseudonym; [0-9]+ is byte-wise
        # identical between Python re and DuckDB's RE2
        "pii_scrub": """
            SELECT event_id,
                   regexp_replace(props, '[0-9]+', '<NUM>', 'g')
                       AS props_redacted,
                   CAST(len(regexp_extract_all(props, '[0-9]+')) AS BIGINT)
                       AS n_redactions,
                   md5('pii-salt:' || CAST(user_id AS VARCHAR))
                       AS user_pseudonym
            FROM events
        """,
        # 30-minute-gap sessionization (gap strictly > 1800 s starts a new
        # session; ties ordered by (ts, event_id) in both engines)
        # hourly error-rate z-scores: exact integer sums -> one double
        # expression per engine (pipelines/sessions.rate_anomalies)
        "rate_anomalies": """
            WITH h AS (
              SELECT (CAST(floor(epoch(ts)) AS BIGINT) // 3600) AS hour,
                     SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END)
                         ::BIGINT AS n_err,
                     count(*)::BIGINT AS n_total
              FROM events GROUP BY 1
            ),
            st AS (
              SELECT count(*)::DOUBLE AS H,
                     SUM(n_err)::DOUBLE AS s1,
                     SUM(n_err * n_err)::DOUBLE AS s2
              FROM h
            )
            SELECT hour, n_err, n_total,
                   CASE WHEN (s2 / H - (s1 / H) * (s1 / H)) <= 0 THEN 0.0
                        ELSE round((n_err - s1 / H)
                                   / sqrt(s2 / H - (s1 / H) * (s1 / H)), 6)
                   END AS z_r,
                   CASE WHEN (s2 / H - (s1 / H) * (s1 / H)) <= 0 THEN FALSE
                        ELSE abs((n_err - s1 / H)
                                 / sqrt(s2 / H - (s1 / H) * (s1 / H))) >= 2.0
                   END AS is_anomaly
            FROM h CROSS JOIN st
        """,
        # ordered 3-step conversion funnel: chained conditional-min joins
        # (pipelines/sessions.funnel_counts)
        "funnel_counts": """
            WITH v AS (
              SELECT user_id, min(ts) AS t FROM events
              WHERE event_type = 'view' GROUP BY 1
            ),
            c AS (
              SELECT e.user_id, min(e.ts) AS t
              FROM events e JOIN v ON e.user_id = v.user_id AND e.ts > v.t
              WHERE e.event_type = 'click' GROUP BY 1
            ),
            p AS (
              SELECT e.user_id, min(e.ts) AS t
              FROM events e JOIN c ON e.user_id = c.user_id AND e.ts > c.t
              WHERE e.event_type = 'purchase' GROUP BY 1
            )
            SELECT 1::INTEGER AS step_idx, 'view' AS step,
                   (SELECT count(*) FROM v)::BIGINT AS n_users
            UNION ALL
            SELECT 2::INTEGER, 'click', (SELECT count(*) FROM c)::BIGINT
            UNION ALL
            SELECT 3::INTEGER, 'purchase', (SELECT count(*) FROM p)::BIGINT
        """,
        # winsorized robust aggregate: exact order-statistic clamps at
        # floor(q*(n-1)) + integer-cent clamped sum
        # (pipelines/aggregates.winsorize_events)
        "winsorize_events": """
            WITH r AS (
              SELECT value,
                     row_number() OVER (ORDER BY value) - 1 AS rk,
                     count(*) OVER () AS n
              FROM events
            ),
            t AS (
              SELECT
                max(CASE WHEN rk = CAST(floor(0.01 * (n - 1)) AS BIGINT)
                         THEN value END) AS t_lo,
                max(CASE WHEN rk = CAST(floor(0.99 * (n - 1)) AS BIGINT)
                         THEN value END) AS t_hi
              FROM r
            )
            SELECT count(*)::BIGINT AS n, t.t_lo, t.t_hi,
                   sum(CAST(floor(least(greatest(e.value, t.t_lo), t.t_hi)
                                  * 100 + 0.5) AS BIGINT)) / 100.0
                       AS sum_winsorized,
                   sum(CASE WHEN e.value < t.t_lo THEN 1 ELSE 0 END)::BIGINT
                       AS n_clipped_low,
                   sum(CASE WHEN e.value > t.t_hi THEN 1 ELSE 0 END)::BIGINT
                       AS n_clipped_high
            FROM events e, t
            GROUP BY t.t_lo, t.t_hi
        """,
        # per-user event-type Markov transition counts: lag() window
        # mirror of the bucketed shift-compare pass
        # (pipelines/sessions.event_transitions)
        "event_transitions": """
            WITH o AS (
              SELECT user_id, event_type,
                     lag(event_type) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                     ) AS prev_type
              FROM events
            )
            SELECT prev_type, event_type AS next_type,
                   count(*)::BIGINT AS n
            FROM o WHERE prev_type IS NOT NULL
            GROUP BY 1, 2
        """,
        # weekly retention cohorts: integer epoch-week arithmetic
        # (pipelines/sessions.retention_cohorts)
        "retention_cohorts": """
            WITH w AS (
              SELECT DISTINCT user_id,
                     (CAST(floor(epoch(ts)) AS BIGINT) // 86400) // 7 AS wk
              FROM events
            ),
            c AS (SELECT user_id, min(wk) AS cohort FROM w GROUP BY 1)
            SELECT c.cohort AS cohort_week,
                   (w.wk - c.cohort)::BIGINT AS week_offset,
                   count(*)::BIGINT AS n_users
            FROM w JOIN c ON w.user_id = c.user_id
            GROUP BY 1, 2
        """,
        # per-user lifetime profile (pipelines/sessions.user_lifetime):
        # exact distinct counts, integer cents, integer-second lifespan
        "user_lifetime": """
            SELECT user_id,
                   min(ts) AS first_ts, max(ts) AS last_ts,
                   count(*)::BIGINT AS n_events,
                   count(DISTINCT event_type)::BIGINT AS n_types,
                   count(DISTINCT CAST(ts AS DATE))::BIGINT AS active_days,
                   sum(CAST(floor(value * 100 + 0.5) AS BIGINT))::BIGINT
                       AS total_cents,
                   date_diff('second', min(ts), max(ts))::BIGINT AS lifespan_s
            FROM events GROUP BY 1
        """,
        "sessionize_events": """
            WITH o AS (
                SELECT user_id, event_id, ts, value,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR ts - lag(ts) OVER w > INTERVAL 1800 SECOND
                            THEN 1 ELSE 0 END AS is_new
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ),
            s AS (
                SELECT user_id, ts, value,
                       CAST(SUM(is_new) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
                       ) AS BIGINT) AS session_num
                FROM o
            )
            SELECT user_id, session_num,
                   count(*) AS n_events,
                   min(ts) AS start_ts, max(ts) AS end_ts,
                   CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) / 100.0 AS sum_value
            FROM s GROUP BY user_id, session_num
        """,
        # deterministic 20-per-stratum sample by md5(event_id) rank
        "stratified_sample_events": """
            SELECT event_type, event_id, rank FROM (
                SELECT event_type, event_id,
                       row_number() OVER (
                           PARTITION BY event_type
                           ORDER BY md5(CAST(event_id AS VARCHAR)), event_id
                       ) AS rank
                FROM events
            ) WHERE rank <= 20
        """,
        # top-3 docs by (n_chars desc, doc_id) per (lang, source)
        "grouped_topk_docs": """
            SELECT lang, source, doc_id, n_chars, rank FROM (
                SELECT lang, source, doc_id, n_chars,
                       row_number() OVER (
                           PARTITION BY lang, source
                           ORDER BY n_chars DESC, doc_id
                       ) AS rank
                FROM documents
            ) WHERE rank <= 3
        """,
        # Lee-et-al EXACT character-level duplicate-substring spans:
        # duplicated 40-char md5 windows, per-doc gaps-and-islands merge
        # (1-based SQL positions -> the 0-based span convention)
        "exact_substring_spans": """
            WITH pos AS (
              SELECT doc_id, text,
                     unnest(generate_series(1, greatest(len(text) - 39, 0)))
                       AS pos
              FROM documents
            ),
            w AS (SELECT doc_id, pos, md5(substr(text, pos, 40)) AS h
                  FROM pos),
            dup AS (SELECT h FROM w GROUP BY h HAVING count(*) >= 2),
            m AS (SELECT doc_id, pos FROM w
                  WHERE h IN (SELECT h FROM dup)),
            lagged AS (
              SELECT doc_id, pos,
                     lag(pos) OVER (PARTITION BY doc_id ORDER BY pos) AS prev
              FROM m
            ),
            isl AS (
              SELECT doc_id, pos,
                     sum(CASE WHEN prev IS NULL OR pos - prev > 40
                              THEN 1 ELSE 0 END)
                       OVER (PARTITION BY doc_id ORDER BY pos) AS island
              FROM lagged
            )
            SELECT doc_id,
                   (min(pos) - 1)::BIGINT AS span_start,
                   (max(pos) - 1 + 40)::BIGINT AS span_end
            FROM isl GROUP BY doc_id, island
        """,
        # duplicated 8-token-window coverage per document (token indices
        # are 1-based here, 0-based in the Ray op — coverage counts agree)
        "dup_span_fraction": f"""
            WITH t AS (
                SELECT doc_id, {tokens} AS w,
                       CASE WHEN trim(text) = '' THEN 0
                            ELSE len({tokens}) END AS n_tokens
                FROM documents
            ),
            pos AS (
                SELECT doc_id, i,
                       md5(array_to_string(
                           w[CAST(i AS BIGINT):CAST(i + 7 AS BIGINT)], ' '
                       )) AS sh
                FROM t, unnest(range(1, n_tokens - 6)) AS r(i)
            ),
            dups AS (SELECT sh FROM pos GROUP BY sh HAVING count(*) >= 2),
            cov AS (
                SELECT DISTINCT p.doc_id, j
                FROM pos p JOIN dups USING (sh),
                     unnest(range(p.i, p.i + 8)) AS c(j)
            ),
            nd AS (
                SELECT doc_id, CAST(count(*) AS BIGINT) AS n_dup
                FROM cov GROUP BY doc_id
            )
            SELECT t.doc_id, t.n_tokens,
                   COALESCE(nd.n_dup, 0) AS n_dup_tokens,
                   CASE WHEN t.n_tokens > 0
                        THEN COALESCE(nd.n_dup, 0)
                             / CAST(t.n_tokens AS DOUBLE)
                        ELSE 0.0 END AS dup_fraction
            FROM t LEFT JOIN nd USING (doc_id)
        """,
        # RefinedWeb/CCNet exact paragraph dedup with reassembly: paragraph
        # = non-overlapping 16-token window, keep first occurrence
        # corpus-wide by (doc_id, para_idx), docs rebuilt from survivors
        "paragraph_dedup": f"""
            WITH t AS (
                SELECT doc_id, {tokens} AS wr,
                       CASE WHEN trim(text) = '' THEN 0
                            ELSE len({tokens}) END AS n_tokens
                FROM documents
            ),
            paras AS (
                SELECT doc_id, CAST(p AS BIGINT) AS para_idx,
                       array_to_string(
                           wr[CAST(p * 16 + 1 AS BIGINT):CAST(p * 16 + 16 AS BIGINT)],
                           ' '
                       ) AS ptext
                FROM t, unnest(range(0, (n_tokens + 15) // 16)) AS r(p)
                WHERE n_tokens > 0
            ),
            ranked AS (
                SELECT doc_id, para_idx, ptext,
                       row_number() OVER (PARTITION BY md5(ptext)
                                          ORDER BY doc_id, para_idx) AS rk
                FROM paras
            ),
            tot AS (SELECT doc_id, count(*) AS n_paras FROM paras GROUP BY 1),
            agg AS (
                SELECT doc_id, count(*) AS n_kept,
                       string_agg(ptext, ' ' ORDER BY para_idx) AS text
                FROM ranked WHERE rk = 1 GROUP BY doc_id
            )
            SELECT a.doc_id, t.n_paras, a.n_kept, a.text
            FROM agg a JOIN tot t USING (doc_id)
        """,
        # increment-vs-snapshot dedup: odd doc_ids are the new crawl,
        # even doc_ids the indexed snapshot; content key = md5 of the
        # first-16-token fingerprint; keep first-in-increment docs whose
        # fingerprint is absent from the snapshot (the Bloom prefilter
        # in the Ray op must not change the exact anti-join answer)
        "incremental_dedup": f"""
            WITH f AS (
                SELECT doc_id,
                       md5(array_to_string(({tokens})[1:16], ' ')) AS h
                FROM documents WHERE trim(text) <> ''
            ),
            d AS (SELECT doc_id, h FROM f WHERE doc_id % 2 = 1),
            b AS (SELECT DISTINCT h FROM f WHERE doc_id % 2 = 0)
            SELECT min(d.doc_id) AS doc_id, d.h
            FROM d LEFT JOIN b USING (h)
            WHERE b.h IS NULL
            GROUP BY d.h
        """,
        # robust winnowing (rightmost min per 4-window of 3-shingle
        # hashes): distinct selected (pos, hash) fingerprints per doc;
        # the window min comes from a frame over ALL shingles, full
        # windows only; the rightmost carrier is recovered by a ranged
        # self-join on the window min
        "winnow_positions": winnow_core,
        # MOSS match step: pairs sharing >= 2 distinct fingerprints,
        # fingerprints held by > 50 docs dropped first (stop-band cap)
        "winnow_neardup_pairs": f"""
            WITH wp AS ({winnow_core}),
            d AS (SELECT DISTINCT doc_id, h FROM wp),
            freq AS (SELECT h, count(*) AS c FROM d GROUP BY 1),
            p AS (
                SELECT x.doc_id AS a, y.doc_id AS b
                FROM d x JOIN d y ON x.h = y.h AND x.doc_id < y.doc_id
                JOIN freq f ON f.h = x.h
                WHERE f.c <= 50
            )
            SELECT a, b, count(*) AS n_shared
            FROM p GROUP BY 1, 2 HAVING count(*) >= 2
        """,
        # cross-source distinct-paragraph overlap matrix (s1 < s2)
        "source_overlap": f"""
            WITH t AS (
                SELECT source, {tokens} AS wr,
                       CASE WHEN trim(text) = '' THEN 0
                            ELSE len({tokens}) END AS n_tokens
                FROM documents
            ),
            paras AS (
                SELECT DISTINCT source,
                       array_to_string(
                           wr[CAST(p * 16 + 1 AS BIGINT):CAST(p * 16 + 16 AS BIGINT)],
                           ' '
                       ) AS ptext
                FROM t, unnest(range(0, (n_tokens + 15) // 16)) AS r(p)
                WHERE n_tokens > 0
            )
            SELECT a.source AS s1, b.source AS s2, count(*) AS n_shared
            FROM paras a JOIN paras b
              ON a.ptext = b.ptext AND a.source < b.source
            GROUP BY 1, 2
        """,
        # deterministic hash train/val/test split: md5(doc_id ":split")
        # first-8-bytes % 1000, <100 test, <200 val, else train — the
        # same integer rule as pipelines/curation.dataset_split
        "dataset_split": """
            SELECT doc_id,
                   CAST(('0x' || substr(md5(doc_id::VARCHAR || ':split'),
                                        1, 16))::UBIGINT % 1000 AS BIGINT)
                       AS bucket,
                   CASE
                       WHEN ('0x' || substr(md5(doc_id::VARCHAR || ':split'),
                                            1, 16))::UBIGINT % 1000 < 100
                           THEN 'test'
                       WHEN ('0x' || substr(md5(doc_id::VARCHAR || ':split'),
                                            1, 16))::UBIGINT % 1000 < 200
                           THEN 'val'
                       ELSE 'train'
                   END AS split
            FROM documents
        """,
        # corpus-level kind->kind transition counts inside each physical
        # row's span sequence (lead() window per (filename, row) — the
        # spans base carries duplicate doc_ids)
        "span_transitions": f"""
            WITH b AS (
                SELECT filename AS f, file_row_number AS r, spans
                FROM read_parquet('{_ORACLE_MAT}/spans_base/*.parquet',
                                  file_row_number=true, filename=true)
            ),
            s AS (
                SELECT f, r, i, spans[i].kind AS kind
                FROM b, unnest(generate_series(1, len(spans))) AS u(i)
            ),
            t AS (
                SELECT kind AS from_kind,
                       lead(kind) OVER (PARTITION BY f, r ORDER BY i)
                           AS to_kind
                FROM s
            )
            SELECT from_kind, to_kind, count(*)::BIGINT AS n
            FROM t WHERE to_kind IS NOT NULL
            GROUP BY 1, 2
        """,
        # adjacent-text-span merge: lag()/sum() islands per PHYSICAL row
        # (doc_id can repeat across captures; the Ray side is per-row,
        # and the driver's sorted multiset compare makes the two equal)
        "span_coalesce": f"""
            WITH b AS (
                SELECT filename AS f, file_row_number AS r, doc_id, spans
                FROM read_parquet('{_ORACLE_MAT}/spans_base/*.parquet',
                                  file_row_number=true, filename=true)
            ),
            s AS (
                SELECT f, r, doc_id, i,
                       spans[i].kind AS kind,
                       COALESCE(spans[i].text, '') AS text,
                       COALESCE(spans[i].media_ref, '') AS media_ref
                FROM b, unnest(generate_series(1, len(spans))) AS u(i)
            ),
            g AS (
                SELECT *,
                       CASE WHEN kind = 'text'
                                 AND lag(kind) OVER (PARTITION BY f, r
                                                     ORDER BY i) = 'text'
                            THEN 0 ELSE 1 END AS brk
                FROM s
            ),
            runs AS (
                SELECT *,
                       SUM(brk) OVER (PARTITION BY f, r ORDER BY i) - 1
                           AS run
                FROM g
            )
            SELECT any_value(doc_id) AS doc_id,
                   run::INTEGER AS span_idx,
                   arg_min(kind, i) AS kind,
                   CASE WHEN arg_min(kind, i) = 'text'
                        THEN string_agg(text, '' ORDER BY i) ELSE '' END
                       AS text,
                   CASE WHEN arg_min(kind, i) = 'text'
                        THEN '' ELSE arg_min(media_ref, i) END AS media_ref,
                   count(*)::BIGINT AS n_merged,
                   len(CASE WHEN arg_min(kind, i) = 'text'
                            THEN string_agg(text, '' ORDER BY i)
                            ELSE '' END)::BIGINT AS text_chars
            FROM runs GROUP BY f, r, run
        """,
        # consecutive-media run lengths: row_number-difference islands
        # per physical row over the spans base
        # adjacent-text caption pairing: after-wins-else-before lead/lag
        # mirror of the shifted-array pass (stats.media_captions)
        "media_captions": f"""
            WITH b AS (
                SELECT filename AS f, file_row_number AS r, doc_id, spans
                FROM read_parquet('{_ORACLE_MAT}/spans_base/*.parquet',
                                  file_row_number=true, filename=true)
            ),
            s AS (
                SELECT f, r, doc_id, i,
                       spans[i].kind AS kind,
                       COALESCE(spans[i].text, '') AS text,
                       COALESCE(spans[i].media_ref, '') AS media_ref
                FROM b, unnest(generate_series(1, len(spans))) AS u(i)
            ),
            w AS (
                SELECT *,
                       lead(kind) OVER win AS nk,
                       lead(text) OVER win AS nt,
                       lag(kind) OVER win AS pk,
                       lag(text) OVER win AS pt
                FROM s WINDOW win AS (PARTITION BY f, r ORDER BY i)
            ),
            sel AS (
                SELECT doc_id,
                       (row_number() OVER (PARTITION BY f, r ORDER BY i)
                        - 1)::BIGINT AS media_idx,
                       media_ref,
                       CASE WHEN nk = 'text' THEN nt
                            WHEN pk = 'text' THEN pt
                            ELSE '' END AS caption,
                       CASE WHEN nk = 'text' THEN 'after'
                            WHEN pk = 'text' THEN 'before'
                            ELSE 'none' END AS caption_src
                FROM w WHERE kind IN ('media', 'image')
            )
            SELECT doc_id, media_idx, media_ref, caption, caption_src,
                   len(caption)::BIGINT AS caption_chars
            FROM sel
        """,
        # grounding-context window census (stats.span_windows, w=2):
        # per media span, text spans within +-2 positions and their
        # exact character mass; media_idx = per-doc media ordinal
        "span_windows": f"""
            WITH b AS (
                SELECT filename AS f, file_row_number AS r, doc_id, spans
                FROM read_parquet('{_ORACLE_MAT}/spans_base/*.parquet',
                                  file_row_number=true, filename=true)
            ),
            s AS (
                SELECT f, r, doc_id, i, spans[i].kind AS kind,
                       coalesce(spans[i].text, '') AS text
                FROM b, unnest(generate_series(1, len(spans))) AS u(i)
            ),
            w AS (
                SELECT f, r, doc_id, i, kind,
                       coalesce(lag(kind, 1) OVER win = 'text', false) AS b1,
                       coalesce(lag(kind, 2) OVER win = 'text', false) AS b2,
                       coalesce(lead(kind, 1) OVER win = 'text', false) AS a1,
                       coalesce(lead(kind, 2) OVER win = 'text', false) AS a2,
                       CASE WHEN lag(kind, 1) OVER win = 'text'
                            THEN len(lag(text, 1) OVER win) ELSE 0 END
                       + CASE WHEN lag(kind, 2) OVER win = 'text'
                              THEN len(lag(text, 2) OVER win) ELSE 0 END
                       + CASE WHEN lead(kind, 1) OVER win = 'text'
                              THEN len(lead(text, 1) OVER win) ELSE 0 END
                       + CASE WHEN lead(kind, 2) OVER win = 'text'
                              THEN len(lead(text, 2) OVER win) ELSE 0 END
                           AS wchars
                FROM s WINDOW win AS (PARTITION BY f, r ORDER BY i)
            ),
            med AS (SELECT * FROM w WHERE kind IN ('media', 'image'))
            SELECT doc_id,
                   (row_number() OVER (PARTITION BY f, r ORDER BY i) - 1)::BIGINT
                       AS media_idx,
                   (b1::INT + b2::INT)::BIGINT AS n_text_before,
                   (a1::INT + a2::INT)::BIGINT AS n_text_after,
                   wchars::BIGINT AS window_chars
            FROM med
        """,
        # media-placement decile census (stats.media_position_profile):
        # exact integer decile (10*idx0) // n_spans, media kinds only
        "media_position_profile": f"""
            WITH b AS (
                SELECT spans
                FROM read_parquet('{_ORACLE_MAT}/spans_base/*.parquet')
            ),
            s AS (
                SELECT spans[i].kind AS kind, i, len(spans) AS n
                FROM b, unnest(generate_series(1, len(spans))) AS u(i)
            )
            SELECT kind, ((10 * (i - 1)) // n)::BIGINT AS decile,
                   count(*)::BIGINT AS n_spans
            FROM s WHERE kind IN ('media', 'image')
            GROUP BY 1, 2
        """,
        "media_burst_lengths": f"""
            WITH b AS (
                SELECT filename AS f, file_row_number AS r, spans
                FROM read_parquet('{_ORACLE_MAT}/spans_base/*.parquet',
                                  file_row_number=true, filename=true)
            ),
            s AS (
                SELECT f, r, i, (spans[i].kind <> 'text') AS is_m
                FROM b, unnest(generate_series(1, len(spans))) AS u(i)
            ),
            g AS (
                SELECT f, r, i, is_m,
                       row_number() OVER (PARTITION BY f, r ORDER BY i)
                       - row_number() OVER (PARTITION BY f, r, is_m
                                            ORDER BY i) AS grp
                FROM s
            ),
            runs AS (
                SELECT count(*)::BIGINT AS run_len
                FROM g WHERE is_m GROUP BY f, r, grp
            )
            SELECT run_len, count(*)::BIGINT AS n FROM runs GROUP BY 1
        """,
        # top-k vocabulary by corpus token count with exact running
        # coverage of total token mass (ties break token asc)
        "vocab_coverage": f"""
            WITH tok AS (
                SELECT unnest({tokens}) AS token
                FROM documents WHERE trim(text) <> ''
            ),
            c AS (SELECT token, count(*) AS n FROM tok GROUP BY 1),
            tot AS (SELECT CAST(sum(n) AS BIGINT) AS t FROM c),
            r AS (
                SELECT token, n,
                       row_number() OVER (ORDER BY n DESC, token) AS rank,
                       CAST(sum(n) OVER (ORDER BY n DESC, token
                            ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_n
                FROM c
            )
            SELECT token, n, CAST(rank AS BIGINT) AS rank, cum_n,
                   CAST(cum_n AS DOUBLE) / (SELECT t FROM tot) AS coverage
            FROM r WHERE rank <= 100
        """,
        # per-doc n-gram novelty: fraction of a doc's overlapping
        # 8-token windows whose first corpus occurrence (min doc_id,pos)
        # is in this doc; docs with <8 tokens drop
        "gram_novelty": f"""
            WITH t AS (
                SELECT doc_id, {tokens} AS wr,
                       CASE WHEN trim(text) = '' THEN 0
                            ELSE len({tokens}) END AS n_tokens
                FROM documents
            ),
            g AS (
                SELECT doc_id, CAST(p AS BIGINT) AS pos,
                       array_to_string(
                           wr[CAST(p + 1 AS BIGINT):CAST(p + 8 AS BIGINT)], ' '
                       ) AS gram
                FROM t, unnest(range(0, n_tokens - 8 + 1)) AS r(p)
                WHERE n_tokens >= 8
            ),
            rk AS (
                SELECT doc_id,
                       row_number() OVER (PARTITION BY gram
                                          ORDER BY doc_id, pos) AS rn
                FROM g
            )
            SELECT doc_id, count(*) AS n_windows,
                   count(*) FILTER (WHERE rn = 1) AS n_novel,
                   CAST(count(*) FILTER (WHERE rn = 1) AS DOUBLE) / count(*)
                       AS novelty
            FROM rk GROUP BY doc_id
        """,
        # soft dedup: weight = n_paras / sum(corpus frequency of each
        # paragraph), paragraphs = non-overlapping 16-token windows
        "softdedup_weights": f"""
            WITH t AS (
                SELECT doc_id, {tokens} AS wr,
                       CASE WHEN trim(text) = '' THEN 0
                            ELSE len({tokens}) END AS n_tokens
                FROM documents
            ),
            paras AS (
                SELECT doc_id,
                       array_to_string(
                           wr[CAST(p * 16 + 1 AS BIGINT):CAST(p * 16 + 16 AS BIGINT)],
                           ' '
                       ) AS ptext
                FROM t, unnest(range(0, (n_tokens + 15) // 16)) AS r(p)
                WHERE n_tokens > 0
            ),
            c AS (SELECT ptext, count(*) AS cnt FROM paras GROUP BY 1)
            SELECT doc_id, count(*) AS n_paras,
                   CAST(sum(cnt) AS BIGINT) AS c_sum,
                   CAST(count(*) AS DOUBLE) / CAST(sum(cnt) AS BIGINT)
                       AS weight
            FROM paras JOIN c USING (ptext)
            GROUP BY doc_id
        """,
        # year-keyed outlink frequencies: response records with http(s)
        # URLs, per (year, src_host) distinct link-host counts
        # (OutlinkExtractorMapper + FrequencyCountingReducer)
        "year_host_outlinks": f"""
            SELECT crawl_year, host AS src_host, l.dst AS dst_host,
                   count(*) AS n_links
            FROM read_parquet('{_ORACLE_MAT}/docs_base/*.parquet'),
                 unnest(links_hosts) AS l(dst)
            WHERE record_type = 'response' AND url LIKE 'http%'
            GROUP BY 1, 2, 3
        """,
        # year-keyed public-suffix link pairing (EntityMapper.java:60-118
        # + FrequencyCountingReducer.java:46-68): EVERY record (no
        # response/http gate in EntityMapper), source suffix with
        # null -> 'null', DISTINCT dest suffixes per record (Java Set),
        # null dest suffixes skipped. The public-suffix rule
        # (LinkExtractor.java:110-142 semantics: Guava validity, longest
        # PSL suffix incl. private entries, hard .uk 2-level override on
        # the ORIGINAL-case host) is re-derived here in SQL from the same
        # embedded PSL subset (functions/suffix.py shares only the DATA).
        # The ASCII label regex is exact on this domain: link hosts pass
        # through extract_host's ASCII-only _HOST_PATTERN upstream.
        "year_suffix_links": f"""
            WITH sfx(s) AS (VALUES {_psl_values}),
            recs AS (
              -- rid: per-RECORD identity (each mapper call is one
              -- record; (source_file, source_offset) is NOT unique --
              -- revisit+response pairs and byte-identical duplicates
              -- share offsets). Only uniqueness matters, not order.
              SELECT row_number() OVER () AS rid, crawl_year, host,
                     links_hosts
              FROM read_parquet('{_ORACLE_MAT}/docs_base/*.parquet')
            ),
            hosts AS (
              SELECT DISTINCT h FROM (
                SELECT host AS h FROM recs
                UNION ALL
                SELECT unnest(links_hosts) FROM recs
              ) WHERE h IS NOT NULL
            ),
            parts AS (
              SELECT h, string_split(rtrim(lower(h), '.'), '.') AS p
              FROM hosts
            ),
            valid AS (
              SELECT h, p,
                (length(rtrim(lower(h), '.')) <= 253
                 AND length(rtrim(lower(h), '.')) > 0
                 AND len(list_filter(p, x -> x = '' OR length(x) > 63
                     OR NOT regexp_matches(x,
                        '^[A-Za-z0-9_]([A-Za-z0-9_-]{{0,61}}[A-Za-z0-9_])?$')
                     )) = 0
                 AND NOT regexp_matches(p[-1], '^[0-9]+$')) AS ok
              FROM parts
            ),
            best AS (
              SELECT v.h, min(r.i) AS besti
              FROM valid v, unnest(range(1, len(v.p) + 1)) AS r(i)
              WHERE v.ok
                AND array_to_string(v.p[r.i:], '.') IN (SELECT s FROM sfx)
              GROUP BY v.h
            ),
            sfx_of AS (
              SELECT v.h,
                CASE WHEN NOT v.ok THEN NULL
                     WHEN v.h LIKE '%.uk' THEN
                       CASE WHEN len(v.p) >= 2
                            THEN array_to_string(v.p[-2:], '.') END
                     WHEN b.besti IS NOT NULL
                       THEN array_to_string(v.p[b.besti:], '.')
                END AS suffix
              FROM valid v LEFT JOIN best b ON b.h = v.h
            ),
            src AS (
              SELECT r.rid, r.crawl_year,
                     COALESCE(s.suffix, 'null') AS src_suffix
              FROM recs r LEFT JOIN sfx_of s ON s.h = r.host
            ),
            dst AS (
              SELECT DISTINCT r.rid, s2.suffix AS dst_suffix
              FROM recs r, unnest(r.links_hosts) AS l(dh)
              JOIN sfx_of s2 ON s2.h = l.dh
              WHERE s2.suffix IS NOT NULL
            )
            SELECT r.crawl_year, d.dst_suffix, r.src_suffix,
                   count(*)::BIGINT AS n
            FROM src r
            JOIN dst d USING (rid)
            GROUP BY 1, 2, 3
        """,
        # RefinedWeb-style URL filtering over the docs base (pinned
        # first-match rule order: blocklist -> too_long -> digit_heavy ->
        # param_heavy -> ok; digit gate as integer cross-multiply). The
        # query is everything after the FIRST '?' (RFC 3986: later '?'
        # are query characters), so params count over that whole tail
        "url_quality_filter": _url_quality_oracle_sql(
            f"{_ORACLE_MAT}/docs_base/*.parquet"
        ),
        # per-host crawl-log rollup over the SAME Heritrix-style text
        # lines the Ray op parses (HostsReportMapper.java:41-91 field
        # semantics, HostsReportReducer.java:38-55 sums)
        "hosts_report": f"""
            WITH f AS (
              SELECT string_split_regex(trim(line), '{ws}') AS p
              FROM read_parquet('{_ORACLE_MAT}/crawl_log_base/*.parquet')
            ),
            ok AS (
              SELECT p FROM f
              WHERE len(p) = 12
                AND NOT (p[2] LIKE '-%' AND p[2] <> '-9998')
            ),
            e AS (
              SELECT CASE WHEN p[4] LIKE 'dns:%'
                          THEN replace(p[4], 'dns:', '')
                          ELSE regexp_extract(p[4], '^https?://([^/]+)/.*$', 1)
                     END AS host,
                     CASE WHEN p[3] = '-' THEN 0
                          ELSE CAST(p[3] AS BIGINT) END AS nbytes,
                     CASE WHEN p[2] = '-9998' THEN 1 ELSE 0 END AS robots,
                     CASE WHEN p[12] LIKE '%warcRevists:digest%'
                          THEN 1 ELSE 0 END AS dup
              FROM ok
            )
            SELECT host,
                   count(*)::BIGINT AS n_urls,
                   sum(nbytes)::BIGINT AS n_bytes,
                   sum(robots)::BIGINT AS n_robots,
                   sum(dup)::BIGINT AS n_dup_urls,
                   sum(nbytes * dup)::BIGINT AS n_dup_bytes
            FROM e
            WHERE host <> ''
            GROUP BY host
        """,
        # anchor-text aggregation per target URL over the materialized
        # (target, text) pairs base (stats.anchor_text_index)
        "anchor_text_index": f"""
            WITH c AS (
              SELECT target, text, count(*)::BIGINT AS n
              FROM read_parquet('{_ORACLE_MAT}/anchor_base/*.parquet')
              GROUP BY target, text
            ),
            agg AS (
              SELECT target, SUM(n)::BIGINT AS n_anchors,
                     count(*)::BIGINT AS n_texts
              FROM c GROUP BY target
            ),
            top AS (
              SELECT target, text AS top_text, n AS top_n,
                     row_number() OVER (
                         PARTITION BY target ORDER BY n DESC, text
                     ) AS rn
              FROM c
            )
            SELECT agg.target, n_anchors, n_texts, top_text, top_n
            FROM agg JOIN top ON agg.target = top.target
            WHERE rn = 1
        """,
        # host->host weighted link-graph edges over the materialized
        # extraction base (M22 links_hosts)
        "host_link_graph": f"""
            SELECT host AS src_host, l.dst AS dst_host,
                   count(*) AS n_links
            FROM read_parquet('{_ORACLE_MAT}/link_base/*.parquet'),
                 unnest(links_hosts) AS l(dst)
            GROUP BY 1, 2
        """,
        # connected components of the host link graph: the same
        # recursive-CTE reachability mirror as neardup_clusters over
        # 60-bit md5 host ids (pipelines/stats.host_components)
        "host_components": f"""
            WITH RECURSIVE base AS (
                SELECT DISTINCT host AS src_host, l.dst AS dst_host
                FROM read_parquet('{_ORACLE_MAT}/link_base/*.parquet'),
                     unnest(links_hosts) AS l(dst)
            ),
            hosts AS (
                SELECT DISTINCT h AS host FROM (
                    SELECT host AS h
                    FROM read_parquet('{_ORACLE_MAT}/link_base/*.parquet')
                    UNION SELECT dst_host FROM base
                )
            ),
            ids AS (
                SELECT host,
                       CAST(('0x' || substr(md5(host), 1, 15))::UBIGINT
                            AS BIGINT) AS hid
                FROM hosts
            ),
            edges AS (
                SELECT a.hid AS src, b2.hid AS dst
                FROM base JOIN ids a ON a.host = base.src_host
                          JOIN ids b2 ON b2.host = base.dst_host
                WHERE a.hid <> b2.hid
                UNION
                SELECT b2.hid, a.hid
                FROM base JOIN ids a ON a.host = base.src_host
                          JOIN ids b2 ON b2.host = base.dst_host
                WHERE a.hid <> b2.hid
            ),
            reach(a, b) AS (
                SELECT hid, hid FROM ids
                UNION
                SELECT r.a, e.dst FROM reach r JOIN edges e ON r.b = e.src
            )
            SELECT i.host, min(r.b) AS component_id
            FROM reach r JOIN ids i ON i.hid = r.a
            GROUP BY 1
        """,
        # PageRank over the host link graph, 5 fixed iterations, no
        # dangling redistribution (pipelines/stats.host_pagerank); the
        # zero-weight self-loops keep every node alive in the recursive
        # term (the CTE may reference r only once)
        # in/out degree histogram of the host graph (distinct-neighbour
        # degrees; pipelines/stats.degree_distribution)
        "degree_distribution": f"""
            WITH e AS (
              SELECT DISTINCT host AS src, l.dst AS dst
              FROM read_parquet('{_ORACLE_MAT}/link_base/*.parquet'),
                   unnest(links_hosts) AS l(dst)
            ),
            outd AS (SELECT src AS host, count(*)::BIGINT AS deg
                     FROM e GROUP BY 1),
            ind AS (SELECT dst AS host, count(*)::BIGINT AS deg
                    FROM e GROUP BY 1)
            SELECT 'out' AS direction, deg AS degree,
                   count(*)::BIGINT AS n_hosts
            FROM outd GROUP BY 2
            UNION ALL
            SELECT 'in', deg, count(*)::BIGINT FROM ind GROUP BY 2
        """,
        # directed-edge reciprocity (self-loops excluded; the self-join
        # counts each reciprocated edge from both sides, matching the
        # pipeline's x2; stats.host_reciprocity)
        "host_reciprocity": f"""
            WITH e AS (
              SELECT DISTINCT host AS src, l.dst AS dst
              FROM read_parquet('{_ORACLE_MAT}/link_base/*.parquet'),
                   unnest(links_hosts) AS l(dst)
              WHERE host <> l.dst
            ),
            rec AS (SELECT count(*)::BIGINT AS n_rec
                    FROM e a JOIN e b ON a.src = b.dst AND a.dst = b.src),
            tot AS (SELECT count(*)::BIGINT AS n_edges FROM e)
            SELECT n_edges,
                   n_rec AS n_reciprocal,
                   (CASE WHEN n_edges > 0
                         THEN (1000000 * n_rec) // n_edges
                         ELSE 0 END)::BIGINT AS reciprocity_ppm
            FROM tot, rec
        """,
        # degree assortativity: exact integer moment sums over both
        # edge orientations, one IEEE-identical double expression
        # (stats.host_assortativity)
        "host_assortativity": f"""
            WITH e0 AS (
              SELECT DISTINCT host AS src, l.dst AS dst
              FROM read_parquet('{_ORACLE_MAT}/link_base/*.parquet'),
                   unnest(links_hosts) AS l(dst)
              WHERE host <> l.dst
            ),
            und AS (SELECT DISTINCT least(src, dst) AS a,
                                    greatest(src, dst) AS b FROM e0),
            bi AS (SELECT a AS u, b AS v FROM und
                   UNION ALL SELECT b, a FROM und),
            deg AS (SELECT u AS n, count(*)::BIGINT AS d FROM bi GROUP BY 1),
            j AS (SELECT da.d AS x, db.d AS y
                  FROM bi JOIN deg da ON da.n = bi.u
                  JOIN deg db ON db.n = bi.v),
            s AS (SELECT count(*)::BIGINT AS m, sum(x)::BIGINT AS sx,
                         sum(x * y)::BIGINT AS sxy,
                         sum(x * x)::BIGINT AS sx2 FROM j)
            SELECT m AS m_samples, sx AS sum_x, sxy AS sum_xy,
                   sx2 AS sum_x2,
                   CASE WHEN m * sx2 - sx * sx <> 0
                        THEN round((m * sxy - sx * sx)::DOUBLE
                                   / (m * sx2 - sx * sx)::DOUBLE, 6)
                        ELSE 0.0 END AS assortativity_r
            FROM s
        """,
        # co-citation pairs + in-neighbour Jaccard over capped edges
        # (out-degree cap 64, min support 2; stats.cocitation_hosts)
        "cocitation_hosts": f"""
            WITH e AS (
              SELECT DISTINCT host AS src, l.dst AS dst
              FROM read_parquet('{_ORACLE_MAT}/link_base/*.parquet'),
                   unnest(links_hosts) AS l(dst)
              WHERE host <> l.dst
            ),
            deg AS (SELECT src, count(*)::BIGINT AS c FROM e GROUP BY 1),
            ek AS (SELECT e.src, e.dst FROM e JOIN deg USING (src)
                   WHERE deg.c <= 64),
            pairs AS (
              SELECT a.dst AS dst_a, b.dst AS dst_b,
                     count(*)::BIGINT AS n_co
              FROM ek a JOIN ek b ON a.src = b.src AND a.dst < b.dst
              GROUP BY 1, 2
              HAVING count(*) >= 2
            ),
            ind AS (SELECT dst, count(*)::BIGINT AS ind FROM ek GROUP BY 1)
            SELECT p.dst_a, p.dst_b, p.n_co,
                   ((1000000 * p.n_co)
                    // (ia.ind + ib.ind - p.n_co))::BIGINT AS jaccard_ppm
            FROM pairs p
            JOIN ind ia ON ia.dst = p.dst_a
            JOIN ind ib ON ib.dst = p.dst_b
        """,
        # exact triangle census of the undirected simple host graph
        # (3-way ordered self-join; stats.host_triangles)
        "host_triangles": f"""
            WITH e0 AS (
              SELECT DISTINCT host AS src, l.dst AS dst
              FROM read_parquet('{_ORACLE_MAT}/link_base/*.parquet'),
                   unnest(links_hosts) AS l(dst)
              WHERE host <> l.dst
            ),
            und AS (SELECT DISTINCT least(src, dst) AS a,
                                    greatest(src, dst) AS b FROM e0),
            deg AS (SELECT n, count(*)::BIGINT AS d
                    FROM (SELECT a AS n FROM und
                          UNION ALL SELECT b AS n FROM und)
                    GROUP BY n),
            tri AS (SELECT count(*)::BIGINT AS n_tri
                    FROM und e1
                    JOIN und e2 ON e2.a = e1.a AND e2.b > e1.b
                    JOIN und e3 ON e3.a = e1.b AND e3.b = e2.b),
            agg AS (SELECT count(*)::BIGINT AS n_edges FROM und),
            wdg AS (SELECT coalesce(sum(d * (d - 1) // 2), 0)::BIGINT
                        AS n_wedges FROM deg)
            SELECT n_edges, n_wedges, n_tri AS n_triangles,
                   (CASE WHEN n_wedges > 0
                         THEN (1000000 * 3 * n_tri) // n_wedges
                         ELSE 0 END)::BIGINT AS clustering_ppm
            FROM agg, wdg, tri
        """,
        # BFS hop distances from the 2 lexicographically-first hosts
        # (path-length-bounded recursive CTE; stats.host_distances)
        "host_distances": f"""
            WITH RECURSIVE e AS (
              SELECT DISTINCT host AS src, l.dst AS dst
              FROM read_parquet('{_ORACLE_MAT}/link_base/*.parquet'),
                   unnest(links_hosts) AS l(dst)
            ),
            nodes AS (SELECT DISTINCT h AS host FROM (
                SELECT src AS h FROM e UNION ALL SELECT dst FROM e)),
            seeds AS (SELECT host FROM nodes ORDER BY host LIMIT 2),
            r(host, d) AS (
              SELECT host, 0 FROM seeds
              UNION ALL
              SELECT e.dst, r.d + 1
              FROM r JOIN e ON e.src = r.host
              WHERE r.d < 4
            )
            SELECT host, min(d)::BIGINT AS dist FROM r GROUP BY 1
        """,
        # integer HITS (3 unrolled iterations, no normalisation — exact
        # int64 on both engines; pipelines/stats.host_hits)
        "host_hits": f"""
            WITH base AS (SELECT host AS src, l.dst AS dst,
                                 count(*)::BIGINT AS w
                          FROM read_parquet('{_ORACLE_MAT}/link_base/*.parquet'),
                               unnest(links_hosts) AS l(dst)
                          GROUP BY 1, 2),
            nodes AS (SELECT DISTINCT h AS host FROM (
                SELECT src AS h FROM base UNION ALL SELECT dst FROM base)),
            a1 AS (SELECT dst AS host, SUM(w)::BIGINT AS v
                   FROM base GROUP BY 1),
            h1 AS (SELECT src AS host,
                          SUM(w * COALESCE(a1.v, 0))::BIGINT AS v
                   FROM base LEFT JOIN a1 ON base.dst = a1.host GROUP BY 1),
            a2 AS (SELECT dst AS host,
                          SUM(w * COALESCE(h1.v, 0))::BIGINT AS v
                   FROM base LEFT JOIN h1 ON base.src = h1.host GROUP BY 1),
            h2 AS (SELECT src AS host,
                          SUM(w * COALESCE(a2.v, 0))::BIGINT AS v
                   FROM base LEFT JOIN a2 ON base.dst = a2.host GROUP BY 1),
            a3 AS (SELECT dst AS host,
                          SUM(w * COALESCE(h2.v, 0))::BIGINT AS v
                   FROM base LEFT JOIN h2 ON base.src = h2.host GROUP BY 1),
            h3 AS (SELECT src AS host,
                          SUM(w * COALESCE(a3.v, 0))::BIGINT AS v
                   FROM base LEFT JOIN a3 ON base.dst = a3.host GROUP BY 1)
            SELECT n.host,
                   COALESCE(h3.v, 0)::BIGINT AS hub3,
                   COALESCE(a3.v, 0)::BIGINT AS auth3
            FROM nodes n
            LEFT JOIN h3 ON n.host = h3.host
            LEFT JOIN a3 ON n.host = a3.host
        """,
        "host_pagerank": f"""
            WITH RECURSIVE
            base AS (SELECT host AS src_host, l.dst AS dst_host,
                            count(*)::DOUBLE AS w
                     FROM read_parquet('{_ORACLE_MAT}/link_base/*.parquet'),
                          unnest(links_hosts) AS l(dst)
                     GROUP BY 1, 2),
            outdeg AS (SELECT src_host, sum(w) AS deg FROM base GROUP BY 1),
            nodes AS (SELECT DISTINCT h FROM (SELECT src_host AS h FROM base
                                              UNION ALL SELECT dst_host FROM base)),
            nn AS (SELECT count(*)::DOUBLE AS n FROM nodes),
            edges AS (
              SELECT b.src_host AS src, b.dst_host AS dst, b.w / o.deg AS frac
              FROM base b JOIN outdeg o USING (src_host)
              UNION ALL
              SELECT h, h, 0.0 FROM nodes
            ),
            r(it, host, rank) AS (
              SELECT 0, h, 1.0 / (SELECT n FROM nn) FROM nodes
              UNION ALL
              SELECT it + 1, e.dst,
                     (SELECT 0.15 / n FROM nn) + sum(0.85 * r.rank * e.frac)
              FROM r JOIN edges e ON e.src = r.host
              WHERE it < 5
              GROUP BY it + 1, e.dst
            )
            SELECT host, round(rank, 8) AS rank_r FROM r WHERE it = 5
        """,
        # per-doc top-5 rarity-weighted terms (score = tf/df, exact
        # rational — ln-damped idf is not bit-stable across engines)
        "tfidf_top_terms": f"""
            WITH toks AS (
                SELECT doc_id, t.tok
                FROM documents, unnest({tokens}) AS t(tok)
                WHERE t.tok <> ''
            ),
            tf AS (SELECT doc_id, tok, count(*) AS tf FROM toks GROUP BY 1, 2),
            dfreq AS (SELECT tok, count(*) AS df FROM tf GROUP BY tok),
            scored AS (
                SELECT tf.doc_id, tf.tok AS token,
                       CAST(tf.tf AS BIGINT) AS tf,
                       CAST(dfreq.df AS BIGINT) AS df,
                       CAST(tf.tf AS DOUBLE) / dfreq.df AS score
                FROM tf JOIN dfreq USING (tok)
            )
            SELECT doc_id, token, tf, df, score, rank FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY doc_id ORDER BY score DESC, token
                ) AS rank FROM scored
            ) WHERE rank <= 5
        """,
        # per-SURT capture-history stats (revisit-scheduling signal)
        # top-k URL path templates (digit runs -> N, query dropped) over
        # the materialized captures base (pipelines/cdx.url_templates)
        "url_templates": f"""
            WITH t AS (
              SELECT regexp_extract(url, '^[a-z0-9+.-]+://([^/?#]+)', 1)
                         AS host,
                     regexp_replace(
                         coalesce(
                             nullif(regexp_extract(
                                 url,
                                 '^[a-z0-9+.-]+://[^/?#]+(/[^?#]*)', 1), ''),
                             '/'),
                         '[0-9]+', 'N', 'g') AS template
              FROM read_parquet('{_ORACLE_MAT}/captures/*.parquet')
            )
            SELECT host, template, count(*)::BIGINT AS n
            FROM t WHERE host <> ''
            GROUP BY host, template
            ORDER BY n DESC, host, template
            LIMIT 50
        """,
        "capture_intervals": f"""
            SELECT surt_key, count(*) AS n_captures,
                   min(timestamp14) AS first_ts14,
                   max(timestamp14) AS last_ts14,
                   CAST(count(DISTINCT digest) AS BIGINT) AS n_versions
            FROM read_parquet('{_ORACLE_MAT}/captures/*.parquet')
            GROUP BY surt_key
        """,
        # pywb/OutbackCDX collapse=digest: first capture of every
        # identical-digest run per SURT (pipelines/cdx.cdx_collapse)
        "cdx_collapse": f"""
            WITH o AS (
                SELECT surt_key, timestamp14, digest,
                       lag(digest) OVER (
                           PARTITION BY surt_key
                           ORDER BY timestamp14, digest
                       ) AS prev
                FROM read_parquet('{_ORACLE_MAT}/captures/*.parquet')
            )
            SELECT surt_key, timestamp14, digest
            FROM o WHERE prev IS NULL OR digest <> prev
        """,
        # consecutive-capture change detection per SURT
        # (pipelines/cdx.capture_diff — lag() window mirror)
        "capture_diff": f"""
            WITH o AS (
                SELECT surt_key, timestamp14, digest,
                       lag(digest) OVER (
                           PARTITION BY surt_key
                           ORDER BY timestamp14, digest
                       ) AS prev
                FROM read_parquet('{_ORACLE_MAT}/captures/*.parquet')
            )
            SELECT surt_key, count(*)::BIGINT AS n_captures,
                   sum(CASE WHEN prev IS NOT NULL AND digest <> prev
                            THEN 1 ELSE 0 END)::BIGINT AS n_changes,
                   sum(CASE WHEN prev IS NOT NULL AND digest = prev
                            THEN 1 ELSE 0 END)::BIGINT AS n_unchanged,
                   COALESCE(max(CASE WHEN prev IS NOT NULL
                                      AND digest <> prev
                                     THEN timestamp14 END), '')
                       AS last_change_ts14
            FROM o GROUP BY surt_key
        """,
        # token-budget packing over the interleaved spans column: text
        # tokens + 64 vision tokens per media span, GPT-style
        # concat-and-chunk in doc_id order
        "interleaved_pack": f"""
            WITH t AS (
                SELECT doc_id,
                       CAST(COALESCE(list_sum(list_transform(
                           list_filter(spans, s -> s.kind = 'text'),
                           s -> CASE WHEN trim(COALESCE(s.text, '')) = ''
                                     THEN 0
                                     ELSE len(regexp_split_to_array(
                                            trim(s.text), '{ws}'))
                                END)), 0) AS BIGINT) AS n_text_tokens,
                       len(list_filter(spans, s -> s.kind = 'media'))::BIGINT
                           AS n_media_spans
                FROM read_parquet('{_ORACLE_MAT}/spans_base/*.parquet')
            ),
            c AS (
                SELECT doc_id, n_text_tokens, n_media_spans,
                       n_text_tokens + 64 * n_media_spans AS n_tokens,
                       CAST(COALESCE(sum(n_text_tokens + 64 * n_media_spans)
                           OVER (ORDER BY doc_id
                                 ROWS BETWEEN UNBOUNDED PRECEDING
                                          AND 1 PRECEDING), 0) AS BIGINT)
                           AS tok_offset
                FROM t
            )
            SELECT doc_id, n_text_tokens, n_media_spans,
                   CAST(n_tokens AS BIGINT) AS n_tokens, tok_offset,
                   tok_offset // 512 AS bin_start,
                   CASE WHEN n_tokens = 0 THEN tok_offset // 512
                        ELSE (tok_offset + n_tokens - 1) // 512
                   END AS bin_end
            FROM c
        """,
        # C4-style text-span exact dedup over the nested spans base
        # (pipelines/stats.span_dedup — first (doc_id, span_idx) keeps)
        "span_dedup": f"""
            WITH s AS (
                SELECT doc_id, i,
                       spans[i].kind AS kind,
                       md5(COALESCE(spans[i].text, '')) AS h
                FROM read_parquet('{_ORACLE_MAT}/spans_base/*.parquet'),
                     unnest(generate_series(1, len(spans))) AS u(i)
            )
            SELECT doc_id, CAST(i AS BIGINT) AS span_idx, h,
                   row_number() OVER (
                       PARTITION BY h ORDER BY doc_id, i
                   ) = 1 AS keep
            FROM s WHERE kind = 'text'
        """,
        # media twin of span_dedup: first occurrence per media_ref over
        # the image/media spans of the interleaved base
        "media_dedup": f"""
            WITH s AS (
                SELECT doc_id, i,
                       spans[i].kind AS kind,
                       COALESCE(spans[i].media_ref, '') AS media_ref
                FROM read_parquet('{_ORACLE_MAT}/spans_base/*.parquet'),
                     unnest(generate_series(1, len(spans))) AS u(i)
            )
            SELECT doc_id, CAST(i AS BIGINT) AS span_idx, media_ref,
                   row_number() OVER (
                       PARTITION BY media_ref ORDER BY doc_id, i
                   ) = 1 AS keep
            FROM s
            WHERE kind IN ('image', 'media') AND media_ref <> ''
        """,
        # span-level quality gate + re-index over the nested spans base
        # (pipelines/stats.span_quality_filter — keep media spans and
        # text spans >= 3 tokens; new_idx/new_offset recomputed under the
        # interleaved_pack cost model: text tokens + 64 per media span)
        "span_quality_filter": f"""
            WITH b AS (
                SELECT filename AS f, file_row_number AS r, doc_id, spans
                FROM read_parquet('{_ORACLE_MAT}/spans_base/*.parquet',
                                  file_row_number=true, filename=true)
            ),
            s AS (
                -- partition by PHYSICAL row (f, r), not doc_id: the base
                -- carries duplicate doc_ids (revisits) and the Ray side
                -- re-indexes each input row independently
                SELECT f, r, doc_id, i,
                       spans[i].kind AS kind,
                       COALESCE(spans[i].text, '') AS text
                FROM b, unnest(generate_series(1, len(spans))) AS u(i)
            ),
            c AS (
                SELECT f, r, doc_id, i, kind,
                       CASE WHEN kind = 'media' THEN 64
                            WHEN trim(text) = '' THEN 0
                            ELSE len(regexp_split_to_array(trim(text),
                                                           '\\s+')) END
                           AS n_tok
                FROM s
            ),
            k AS (SELECT * FROM c WHERE kind = 'media' OR n_tok >= 3)
            SELECT doc_id, CAST(i AS BIGINT) AS span_idx, kind,
                   n_tok::BIGINT AS n_tok,
                   (row_number() OVER (PARTITION BY f, r ORDER BY i)
                    - 1)::BIGINT AS new_idx,
                   COALESCE(sum(n_tok) OVER (
                       PARTITION BY f, r ORDER BY i
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                   ), 0)::BIGINT AS new_offset
            FROM k
        """,
        # nearest-text context per media span over the nested spans base
        # (pipelines/stats.media_context — the MMC4-style pairing step)
        "media_context": f"""
            WITH s AS (
                SELECT doc_id, i,
                       spans[i].kind AS kind,
                       spans[i].text AS text,
                       spans[i].media_ref AS media_ref,
                       spans[i]."offset" AS off
                FROM read_parquet('{_ORACLE_MAT}/spans_base/*.parquet'),
                     unnest(generate_series(1, len(spans))) AS u(i)
            ),
            w AS (
                SELECT doc_id, i, kind, media_ref, off,
                       last_value(CASE WHEN kind = 'text' THEN text END
                                  IGNORE NULLS)
                           OVER (PARTITION BY doc_id ORDER BY i
                                 ROWS BETWEEN UNBOUNDED PRECEDING
                                          AND 1 PRECEDING) AS prev_text,
                       first_value(CASE WHEN kind = 'text' THEN text END
                                   IGNORE NULLS)
                           OVER (PARTITION BY doc_id ORDER BY i
                                 ROWS BETWEEN 1 FOLLOWING
                                          AND UNBOUNDED FOLLOWING) AS next_text
                FROM s
            )
            SELECT doc_id, CAST(i AS BIGINT) AS span_idx,
                   COALESCE(media_ref, '') AS media_ref,
                   CAST(off AS BIGINT) AS "offset",
                   COALESCE(prev_text, '') AS prev_text,
                   COALESCE(next_text, '') AS next_text
            FROM w WHERE kind = 'media'
        """,
        # interleaved-span stats over the nested spans base
        # (pipelines/stats.span_stats)
        "span_stats": f"""
            SELECT doc_id,
                   len(spans)::BIGINT AS n_spans,
                   len(list_filter(spans, s -> s.kind = 'text'))::BIGINT AS n_text,
                   len(list_filter(spans, s -> s.kind = 'media'))::BIGINT AS n_media,
                   len(list_filter(spans,
                       s -> COALESCE(s.media_ref, '') <> ''))::BIGINT AS n_media_refs,
                   COALESCE(list_sum(list_transform(
                       list_filter(spans, s -> s.kind = 'text'),
                       s -> strlen(COALESCE(s.text, '')))), 0)::BIGINT AS text_chars,
                   CASE WHEN len(spans) > 0
                        THEN len(list_filter(spans, s -> s.kind = 'media'))
                             / CAST(len(spans) AS DOUBLE)
                        ELSE 0.0 END AS media_fraction
            FROM read_parquet('{_ORACLE_MAT}/spans_base/*.parquet')
        """,
        # per-SURT recrawl schedule in exact integer arithmetic
        # (pipelines/cdx.recrawl_schedule)
        "recrawl_schedule": f"""
            WITH g AS (
                SELECT surt_key,
                       count(*)::BIGINT AS n_captures,
                       CAST(count(DISTINCT digest) AS BIGINT) AS n_versions,
                       (epoch(strptime(max(timestamp14), '%Y%m%d%H%M%S'))
                        - epoch(strptime(min(timestamp14), '%Y%m%d%H%M%S')))::BIGINT
                           AS span_s
                FROM read_parquet('{_ORACLE_MAT}/captures/*.parquet')
                GROUP BY surt_key
            )
            SELECT surt_key, n_captures, n_versions,
                   CASE WHEN n_captures > 1
                        THEN (1000 * (n_versions - 1) // (n_captures - 1)) / 1000.0
                        ELSE 0.0 END AS change_rate,
                   CASE WHEN n_captures > 1
                        THEN span_s // (n_captures - 1) ELSE 0 END AS mean_interval_s,
                   CASE WHEN n_captures > 1
                        THEN span_s * (1500 - (1000 * (n_versions - 1) // (n_captures - 1)))
                             // ((n_captures - 1) * 1000)
                        ELSE 2592000 END AS next_fetch_s
            FROM g
        """,
        # Q13-shape customer order-count distribution (aggregates.custdist):
        # outer join resolved in one bucketed co-group, spectrum collapsed
        # in-group (token_spectrum discipline)
        "custdist": """
            WITH co AS (
                SELECT c.c_custkey, count(o.o_custkey)::BIGINT AS n_orders
                FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey
                GROUP BY 1
            )
            SELECT n_orders, count(*)::BIGINT AS n_customers
            FROM co GROUP BY n_orders
        """,
        # Q11-shape global-threshold filter (aggregates.important_parts):
        # exact int64-cent per-part revenue vs HUGEINT grand-total // D
        # (val*D > total ⟺ val > total // D for positive ints)
        # promo-revenue share per ship-month (pipelines/aggregates.
        # promo_revenue, the Q14 CASE-sum-ratio shape): exact int64 cents
        # of price*(1-discount), share as exact integer ppm
        "promo_revenue": """
            WITH j AS (
                SELECT year(l_shipdate) * 100 + month(l_shipdate) AS ship_month,
                       CAST(floor(l_extendedprice * (1 - l_discount) * 100
                                  + 0.5) AS BIGINT) AS c,
                       (p_type = 'PROMO') AS promo
                FROM lineitem JOIN part ON p_partkey = l_partkey
            )
            SELECT ship_month::BIGINT AS ship_month,
                   sum(CASE WHEN promo THEN c ELSE 0 END)::BIGINT AS promo_cents,
                   sum(c)::BIGINT AS total_cents,
                   ((sum(CASE WHEN promo THEN c ELSE 0 END) * 1000000)
                       // sum(c))::BIGINT AS promo_ppm
            FROM j GROUP BY 1
        """,
        "important_parts": """
            WITH v AS (
                SELECT l_partkey,
                       sum(CAST(floor(l_extendedprice * 100 + 0.5)
                                AS BIGINT))::BIGINT AS c,
                       count(*)::BIGINT AS n
                FROM lineitem GROUP BY 1
            ),
            t AS (SELECT sum(c)::HUGEINT AS tot FROM v)
            SELECT l_partkey AS p_partkey, c / 100.0 AS value, n AS n_items
            FROM v, t WHERE c::HUGEINT > tot // 2000
        """,
        # Q2-shape groupwise argmin + name attach (relational.
        # min_cost_supplier): min (price_cents, suppkey) lexicographic
        "min_cost_supplier": """
            WITH c AS (
                SELECT l_partkey, l_suppkey,
                       CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                           AS pc
                FROM lineitem
            ),
            m AS (SELECT l_partkey, min(pc) AS mc FROM c GROUP BY 1),
            w AS (
                SELECT c.l_partkey, m.mc, min(c.l_suppkey) AS sk
                FROM c JOIN m
                  ON c.l_partkey = m.l_partkey AND c.pc = m.mc
                GROUP BY 1, 2
            )
            SELECT w.l_partkey AS p_partkey, w.sk AS s_suppkey,
                   s.s_name AS s_name, w.mc / 100.0 AS min_price
            FROM w JOIN supplier s ON s.s_suppkey = w.sk
        """,
        # anti join: orders with no lineitem above the quantity threshold
        "anti_join_orders": """
            SELECT o_orderkey, o_totalprice FROM orders
            WHERE o_orderkey NOT IN (
                SELECT l_orderkey FROM lineitem WHERE l_quantity > 45.0
            )
        """,
        # exact per-type quantiles, lower-value semantics
        "grouped_quantiles": """
            WITH s AS (
                SELECT event_type, value,
                       row_number() OVER (
                           PARTITION BY event_type ORDER BY value
                       ) - 1 AS rn
                FROM events
            ),
            n AS (SELECT event_type, count(*) AS c FROM events GROUP BY 1),
            qs(q) AS (VALUES (0.25), (0.5), (0.75), (0.9))
            SELECT s.event_type, qs.q AS q, s.value AS value
            FROM qs, n, s
            WHERE s.event_type = n.event_type
              AND s.rn = CAST(floor(qs.q * (n.c - 1)) AS BIGINT)
        """,
        # corpus-relative quality filter: keep docs with distinct-token
        # ratio >= the corpus's exact P25 of that ratio
        "quality_filter": f"""
            WITH r AS (
                SELECT doc_id,
                       CASE WHEN trim(text) = '' THEN 0.0
                            ELSE len(list_distinct({tokens})) * 1.0
                                 / len({tokens}) END AS distinct_ratio
                FROM documents
            ),
            s AS (
                SELECT distinct_ratio,
                       row_number() OVER (ORDER BY distinct_ratio) - 1 AS rn
                FROM r
            ),
            n AS (SELECT count(*) AS c FROM r),
            thr AS (
                SELECT s.distinct_ratio AS t FROM s, n
                WHERE s.rn = CAST(floor(0.25 * (n.c - 1)) AS BIGINT)
            )
            SELECT r.doc_id, r.distinct_ratio
            FROM r, thr WHERE r.distinct_ratio >= thr.t
        """,
        # deterministic weighted source interleave: src{i} contributes up
        # to 2*(i+1) docs by md5 rank
        "source_mix": r"""
            SELECT source, doc_id, rank FROM (
                SELECT source, doc_id,
                       row_number() OVER (
                           PARTITION BY source
                           ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
                       ) AS rank
                FROM documents
            ) WHERE rank <= 2 * (CAST(regexp_extract(source, '(\d+)$', 1) AS INT) + 1)
        """,
        # temperature-scaled source mixture weights, relative to the
        # largest source so the only float ops are one exact-int division
        # and one pow (pipelines/sessions.mixture_weights)
        "mixture_weights": f"""
            WITH s AS (
              SELECT source, count(*)::BIGINT AS n_docs,
                     sum(CASE WHEN trim(text) = '' THEN 0
                              ELSE len({tokens}) END)::BIGINT AS n_tokens
              FROM documents GROUP BY 1
            )
            SELECT source, n_docs, n_tokens,
                   round(pow(n_tokens * 1.0 / (SELECT max(n_tokens) FROM s),
                             0.7), 6) AS weight
            FROM s
        """,
        # Efraimidis–Spiraki A-ES length-weighted sample: key = ln(u)/w,
        # u = (md5_64(doc_id)+1)/2^64; integer-only output, the float key
        # orders but never leaves (pipelines/sessions.weighted_sample)
        "weighted_sample": f"""
            WITH d AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN 0
                          ELSE len({tokens}) END AS n_tokens,
                     ('0x' || substr(md5(doc_id::VARCHAR), 1, 16))::UBIGINT
                         AS h
              FROM documents
            ),
            keyed AS (
              SELECT doc_id, n_tokens::BIGINT AS n_tokens,
                     ln((h::DOUBLE + 1.0) / 18446744073709551616.0)
                         / n_tokens AS key
              FROM d WHERE n_tokens > 0
            )
            SELECT doc_id, n_tokens, rank FROM (
              SELECT doc_id, n_tokens,
                     row_number() OVER (ORDER BY key DESC, doc_id)::BIGINT
                         AS rank
              FROM keyed
            ) WHERE rank <= 50
        """,
    }
    # deterministic seeded shuffle rank (pipelines/sessions.global_shuffle)
    out["global_shuffle"] = """
        SELECT doc_id,
               row_number() OVER (
                   ORDER BY md5('epoch0:' || CAST(doc_id AS VARCHAR)), doc_id
               ) - 1 AS shuffle_rank
        FROM documents
    """
    # left-outer aggregate join in exact integer cents
    # (pipelines/relational.outer_join_customer_orders)
    out["outer_join_customer_orders"] = """
        SELECT c.c_custkey,
               count(o.o_orderkey)::BIGINT AS n_orders,
               COALESCE(sum(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT)),
                        0) / 100.0 AS total_spent
        FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
        GROUP BY c.c_custkey
    """
    # the composed curation funnel: quality-kept training docs (doc_id >=
    # 10) minus near-dup doc_b exemplars minus contaminated docs — each
    # component is its own oracle above; subquery-WITH keeps them verbatim
    out["curation_pipeline"] = f"""
        SELECT q.doc_id, q.distinct_ratio
        FROM ({out['quality_filter']}) q
        WHERE q.doc_id >= 10
          AND q.doc_id NOT IN (SELECT doc_b FROM ({out['minhash_lsh_pairs']}))
          AND q.doc_id NOT IN (SELECT doc_id FROM ({out['decontaminate']})
                               WHERE contaminated)
    """
    # real WARC/ARC binary fixtures: the independent sequential parser +
    # extraction oracle, rendered as a VALUES table (DuckDB cannot read
    # WARC, so the independent implementation IS the SQL)
    # Q6-shape filter+aggregate forecast (aggregates.forecast_revenue):
    # discount band on ROUNDED integer percent, exact int64 cents
    out["forecast_revenue"] = """
        SELECT sum(CAST(floor(l_extendedprice * l_discount * 100 + 0.5)
                        AS BIGINT))::BIGINT AS revenue_cents,
               count(*)::BIGINT AS n_lines
        FROM lineitem
        WHERE l_shipdate >= DATE '1997-01-01'
          AND l_shipdate < DATE '1998-01-01'
          AND CAST(floor(l_discount * 100 + 0.5) AS BIGINT) BETWEEN 5 AND 7
          AND l_quantity < 24
    """
    # per-source quota cap by deterministic md5 rank
    # (curation.source_quota_sample)
    out["source_quota_sample"] = """
        SELECT doc_id, source,
               row_number() OVER (
                   PARTITION BY source
                   ORDER BY md5('quota:' || CAST(doc_id AS VARCHAR)), doc_id
               )::BIGINT AS rk
        FROM documents
        QUALIFY rk <= 10
    """
    # calendar-profile census (sessions.weekday_profile): ISO weekday on
    # both engines (pandas dayofweek+1 == DuckDB isodow)
    out["weekday_profile"] = """
        SELECT isodow(ts)::BIGINT AS iso_dow, event_type,
               count(*)::BIGINT AS n,
               sum(CAST(floor(value * 100 + 0.5) AS BIGINT))::BIGINT
                   AS spend_cents
        FROM events GROUP BY 1, 2
    """
    # semi-structured JSON column census (sessions.props_json_stats)
    out["props_json_stats"] = """
        WITH j AS (
          SELECT event_type,
                 CAST(json_extract(props, '$.k') AS BIGINT) AS k
          FROM events
        )
        SELECT event_type, count(*)::BIGINT AS n, sum(k)::BIGINT AS sum_k,
               min(k)::BIGINT AS min_k, max(k)::BIGINT AS max_k,
               count(DISTINCT k)::BIGINT AS n_distinct_k
        FROM j GROUP BY 1
    """
    # Q16-shape exact distinct-supplier census (relational.parts_supplier_census)
    out["parts_supplier_census"] = """
        SELECT p_brand, p_type, p_size::BIGINT AS p_size,
               count(DISTINCT l_suppkey)::BIGINT AS supplier_cnt
        FROM lineitem JOIN part ON p_partkey = l_partkey
        GROUP BY 1, 2, 3
    """
    # Q7-shape bi-nation trade volume (relational.nation_trade_volume)
    out["nation_trade_volume"] = """
        WITH j AS (
          SELECT s.s_nationkey AS s_nat, c.c_nationkey AS c_nat,
                 year(l_shipdate) AS yr,
                 CAST(floor(l_extendedprice * (1 - l_discount) * 100
                            + 0.5) AS BIGINT) AS cts
          FROM lineitem l
          JOIN supplier s ON s_suppkey = l_suppkey
          JOIN orders o ON o_orderkey = l_orderkey
          JOIN customer c ON c_custkey = o_custkey
          WHERE l_shipdate >= DATE '1997-01-01'
            AND l_shipdate < DATE '1999-01-01'
        )
        SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
               yr::BIGINT AS l_year, sum(cts)::BIGINT AS revenue_cents
        FROM j
        JOIN nation sn ON sn.n_nationkey = s_nat
        JOIN nation cn ON cn.n_nationkey = c_nat
        GROUP BY 1, 2, 3
    """
    # order-backlog stabbing census (aggregates.open_orders_by_month)
    out["open_orders_by_month"] = """
        WITH b AS (
          SELECT o_orderkey, min(o_orderdate) AS od, max(l_shipdate) AS ms
          FROM orders JOIN lineitem ON l_orderkey = o_orderkey
          GROUP BY 1
        ),
        m AS (SELECT unnest(generate_series(TIMESTAMP '1995-01-01',
                                            TIMESTAMP '2002-01-01',
                                            INTERVAL 1 MONTH)) AS g)
        SELECT (year(g) * 100 + month(g))::BIGINT AS month,
               (SELECT count(*) FROM b WHERE od <= g AND ms > g)::BIGINT
                   AS n_open
        FROM m
    """
    # Q4-shape EXISTS census (aggregates.order_priority_census)
    out["order_priority_census"] = """
        SELECT o_orderpriority, count(*)::BIGINT AS n_orders
        FROM orders o
        WHERE o_orderdate >= DATE '1997-01-01'
          AND o_orderdate < DATE '1997-04-01'
          AND EXISTS (SELECT 1 FROM lineitem l
                      WHERE l.l_orderkey = o.o_orderkey
                        AND l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY)
        GROUP BY 1
    """
    # per-(user, day) event throttle (sessions.event_rate_limit)
    out["event_rate_limit"] = """
        SELECT event_id, user_id,
               (year(ts) * 10000 + month(ts) * 100 + day(ts))::BIGINT AS day,
               row_number() OVER (
                   PARTITION BY user_id, date_trunc('day', ts)
                   ORDER BY ts, event_id
               )::BIGINT AS rk
        FROM events
        QUALIFY rk <= 2
    """
    # Q3-shape unshipped-order revenue top-k (relational.shipping_priority)
    out["shipping_priority"] = """
        WITH r AS (
          SELECT l_orderkey AS o_orderkey,
                 sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                                + 0.5) AS BIGINT))::BIGINT AS revenue_cents
          FROM lineitem
          JOIN orders ON o_orderkey = l_orderkey
          JOIN customer ON c_custkey = o_custkey
          WHERE c_mktsegment = 'BUILDING'
            AND o_orderdate < DATE '1998-06-01'
            AND l_shipdate > DATE '1998-06-01'
          GROUP BY 1
        )
        SELECT r.o_orderkey, r.revenue_cents,
               (year(o_orderdate) * 10000 + month(o_orderdate) * 100
                + day(o_orderdate))::BIGINT AS o_date
        FROM r JOIN orders USING (o_orderkey)
        ORDER BY revenue_cents DESC, o_date ASC, o_orderkey ASC
        LIMIT 10
    """
    # Q10-shape returned-item revenue ranking (relational.returned_items)
    out["returned_items"] = """
        WITH r AS (
          SELECT o_custkey,
                 sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                                + 0.5) AS BIGINT))::BIGINT AS revenue_cents
          FROM lineitem JOIN orders ON o_orderkey = l_orderkey
          WHERE l_returnflag = 'R'
            AND o_orderdate >= DATE '1997-01-01'
            AND o_orderdate < DATE '1997-07-01'
          GROUP BY 1
        )
        SELECT c_custkey, c_name, n_name, revenue_cents
        FROM r
        JOIN customer ON c_custkey = o_custkey
        JOIN nation ON n_nationkey = c_nationkey
        ORDER BY revenue_cents DESC, c_custkey ASC
        LIMIT 20
    """
    # Q15-shape top supplier by window revenue, exact-integer max equality
    out["top_supplier"] = """
        WITH r AS (
          SELECT l_suppkey AS s_suppkey,
                 sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                                + 0.5) AS BIGINT))::BIGINT
                     AS total_revenue_cents
          FROM lineitem
          WHERE l_shipdate >= DATE '1997-01-01'
            AND l_shipdate < DATE '1997-04-01'
          GROUP BY 1
        )
        SELECT s_suppkey, s_name, total_revenue_cents
        FROM r JOIN supplier USING (s_suppkey)
        WHERE total_revenue_cents = (SELECT max(total_revenue_cents) FROM r)
        ORDER BY s_suppkey
    """
    # Q18-shape large-volume orders (relational.large_orders)
    out["large_orders"] = """
        WITH q AS (
          SELECT l_orderkey,
                 sum(CAST(floor(l_quantity + 0.5) AS BIGINT))::BIGINT AS sum_qty
          FROM lineitem GROUP BY 1
          HAVING sum(CAST(floor(l_quantity + 0.5) AS BIGINT)) > 300
        )
        SELECT c_name, c_custkey, o_orderkey,
               (year(o_orderdate) * 10000 + month(o_orderdate) * 100
                + day(o_orderdate))::BIGINT AS o_date,
               CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                   AS total_price_cents,
               sum_qty
        FROM q
        JOIN orders ON o_orderkey = l_orderkey
        JOIN customer ON c_custkey = o_custkey
        ORDER BY total_price_cents DESC, o_date ASC, o_orderkey ASC
        LIMIT 100
    """
    # Q22-shape dormant high-balance customers per nation
    # (relational.global_balance_filter): exact integer cross-multiply
    out["global_balance_filter"] = """
        WITH c AS (
          SELECT c_custkey, c_nationkey,
                 CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS bal
          FROM customer
        ),
        t AS (SELECT count(*) AS n, sum(bal)::BIGINT AS tot
              FROM c WHERE bal > 0)
        SELECT c_nationkey::BIGINT AS cntrycode,
               count(*)::BIGINT AS n_cust,
               sum(bal)::BIGINT AS total_bal_cents
        FROM c, t
        WHERE bal > 0 AND bal * n > tot
          AND c_custkey NOT IN (SELECT o_custkey FROM orders
                                WHERE o_orderdate >= DATE '2000-01-01')
        GROUP BY 1
    """
    # classifier confusion matrix (textops.language_confusion):
    # composes the language_id mirror verbatim
    out["language_confusion"] = f"""
        SELECT lang, lang_pred, count(*)::BIGINT AS n
        FROM ({out['language_id']})
        GROUP BY 1, 2
    """
    # Q17-shape correlated-average gate (relational.small_quantity_revenue)
    out["small_quantity_revenue"] = """
        WITH st AS (
          SELECT l_partkey,
                 sum(CAST(floor(l_quantity + 0.5) AS BIGINT))::BIGINT AS sq,
                 count(*)::BIGINT AS cnt
          FROM lineitem GROUP BY 1
        )
        SELECT p_brand, count(*)::BIGINT AS n_lines,
               sum(CAST(floor(l_extendedprice * 100 + 0.5)
                        AS BIGINT))::BIGINT AS revenue_cents
        FROM lineitem l
        JOIN st ON st.l_partkey = l.l_partkey
        JOIN part ON p_partkey = l.l_partkey
        WHERE 5 * CAST(floor(l_quantity + 0.5) AS BIGINT) * cnt < sq
        GROUP BY 1
    """
    # ------------------------------------------------------------------
    # Round-5 synthesized-column family (Q9/Q12/Q19/Q20/Q21): the
    # fixture-blocked shapes, unlocked by the deterministic hash rule in
    # functions/tpch_synth.py. The CTE bodies below are RENDERED by that
    # module so both engines share the synthesized INPUT DATA by
    # construction while all joins / gates / aggregations stay
    # independently verified. partsupp_synth verifies the derivation
    # rule itself, once.
    from webarchive_discovery_ray.functions.tpch_synth import (
        sql_lineitem_synth,
        sql_part_synth,
        sql_partsupp_synth,
    )

    _l_synth = sql_lineitem_synth()
    _ps_synth = sql_partsupp_synth()
    _p_synth = sql_part_synth()
    out["partsupp_synth"] = f"""
        SELECT ps_partkey, ps_suppkey, ps_availqty, ps_supplycost_cents
        FROM ({_ps_synth})
    """
    # Q12: shipmode priority census over the late-commit gate
    out["shipmode_priority_census"] = f"""
        WITH l AS ({_l_synth})
        SELECT l_shipmode,
               sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                        THEN 1 ELSE 0 END)::BIGINT AS high_line_count,
               sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                        THEN 0 ELSE 1 END)::BIGINT AS low_line_count
        FROM l JOIN orders ON o_orderkey = l_orderkey
        WHERE l_shipmode IN ('MAIL', 'SHIP')
          AND l_commit_days < l_receipt_days
          AND l_ship_days < l_commit_days
          AND l_receipt_days >= datediff('day', DATE '1970-01-01',
                                         DATE '1997-01-01')
          AND l_receipt_days <  datediff('day', DATE '1970-01-01',
                                         DATE '1998-01-01')
        GROUP BY 1
    """
    # Q19: OR-of-ANDs brackets (mutually exclusive by container class)
    out["bracketed_revenue"] = f"""
        WITH l AS ({_l_synth}), p AS ({_p_synth}),
        b(bracket, pref, qlo, qhi, smax) AS (VALUES
            (1, 'SM', 1, 20, 25), (2, 'MED', 10, 30, 30),
            (3, 'LG', 20, 40, 35))
        SELECT b.bracket::BIGINT AS bracket, count(*)::BIGINT AS n_lines,
               sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                              + 0.5) AS BIGINT))::BIGINT AS revenue_cents
        FROM l JOIN p ON p_partkey = l_partkey
        JOIN b ON split_part(p_container, ' ', 1) = b.pref
              AND CAST(floor(l_quantity + 0.5) AS BIGINT)
                  BETWEEN b.qlo AND b.qhi
              AND p_size BETWEEN 1 AND b.smax
        WHERE l_shipmode IN ('AIR', 'REG AIR')
          AND l_shipinstruct = 'DELIVER IN PERSON'
        GROUP BY 1
    """
    # Q9: product-type profit (nation x order year, exact int64 cents)
    out["product_type_profit"] = f"""
        WITH l AS ({_l_synth}), ps AS ({_ps_synth})
        SELECT n_name AS nation, year(o_orderdate)::BIGINT AS o_year,
               sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                              + 0.5) AS BIGINT)
                   - ps_supplycost_cents
                     * CAST(floor(l_quantity + 0.5) AS BIGINT)
               )::BIGINT AS profit_cents
        FROM l
        JOIN part ON p_partkey = l_partkey
        JOIN ps ON ps_partkey = l_partkey AND ps_suppkey = l_suppkey
        JOIN supplier ON s_suppkey = l_suppkey
        JOIN nation ON n_nationkey = s_nationkey
        JOIN orders ON o_orderkey = l_orderkey
        WHERE p_name LIKE '%widget%'
        GROUP BY 1, 2
    """
    # Q20: excess-stock suppliers of promoted parts (NULL-on-empty
    # subquery semantics = inner join on window shipments)
    out["promo_part_suppliers"] = f"""
        WITH w AS (
          SELECT l_partkey, l_suppkey,
                 sum(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS sq
          FROM lineitem
          WHERE l_shipdate >= DATE '1997-01-01'
            AND l_shipdate < DATE '1998-01-01'
          GROUP BY 1, 2
        ), ps AS ({_ps_synth})
        SELECT DISTINCT s_suppkey::BIGINT AS s_suppkey, s_name
        FROM w
        JOIN part ON p_partkey = l_partkey
        JOIN ps ON ps_partkey = l_partkey AND ps_suppkey = l_suppkey
        JOIN supplier ON s_suppkey = l_suppkey
        WHERE p_name LIKE 'small%' AND 2 * ps_availqty > sq
    """
    # Q21: lone-late-supplier census over finalized multi-supplier orders
    out["waiting_supplier_census"] = f"""
        WITH l AS ({_l_synth}),
        pairs AS (
          SELECT l_orderkey, l_suppkey,
                 max(CASE WHEN l_receipt_days > l_commit_days
                          THEN 1 ELSE 0 END) AS late
          FROM l JOIN orders ON o_orderkey = l_orderkey
          WHERE o_orderstatus = 'F'
          GROUP BY 1, 2
        ),
        census AS (
          SELECT l_orderkey, count(*) AS n_supp, sum(late) AS n_late
          FROM pairs GROUP BY 1
        )
        SELECT s_name, count(*)::BIGINT AS numwait
        FROM pairs p JOIN census c USING (l_orderkey)
        JOIN supplier ON s_suppkey = p.l_suppkey
        WHERE p.late = 1 AND c.n_supp >= 2 AND c.n_late = 1
        GROUP BY 1
    """
    # Q8-shape national market share (relational.market_share):
    # composes the nation_trade_volume mirror verbatim
    out["market_share"] = f"""
        WITH v AS ({out['nation_trade_volume']}),
        eu AS (SELECT n_name FROM nation
               JOIN region ON r_regionkey = n_regionkey
               WHERE r_name = 'EUROPE')
        SELECT l_year,
               sum(CASE WHEN supp_nation = 'NATION_3'
                        THEN revenue_cents ELSE 0 END)::BIGINT
                   AS target_cents,
               sum(revenue_cents)::BIGINT AS total_cents,
               ((sum(CASE WHEN supp_nation = 'NATION_3'
                         THEN revenue_cents ELSE 0 END) * 1000000)
                   // sum(revenue_cents))::BIGINT AS share_ppm
        FROM v JOIN eu ON eu.n_name = v.cust_nation
        GROUP BY 1
    """
    # sketch-quality audit (pipelines/dedup.lsh_recall_audit): both
    # chains' mirrors composed verbatim; recall as exact integer ppm
    # (LSH-verified pairs are a subset of the exact ground truth because
    # both verify with the same hashed-shingle Jaccard at the same tau)
    out["lsh_recall_audit"] = f"""
        WITH e AS (SELECT count(*) AS n FROM ({out['ngram_jaccard_pairs']})),
             l AS (SELECT count(*) AS n FROM ({out['minhash_lsh_pairs']}))
        SELECT e.n::BIGINT AS n_exact, l.n::BIGINT AS n_lsh,
               CASE WHEN e.n = 0 THEN 1000000::BIGINT
                    ELSE (l.n * 1000000) // e.n END AS recall_ppm
        FROM e, l
    """
    out["warc_extract"] = _warc_oracle_values_sql()
    out["warc_cdx"] = _warc_cdx_oracle_values_sql()
    out["warc_cdxj"] = _warc_cdxj_oracle_values_sql()
    out["crawl_warc_census"] = _crawl_warc_census_oracle_values_sql()
    out["warc_stats"] = _warc_stats_oracle_values_sql()
    out["warc_digest_dups"] = _warc_digest_dups_oracle_values_sql()
    out["warc_dedup_census"] = _warc_dedup_census_oracle_values_sql()
    out["warc_datasets"] = _warc_datasets_oracle_values_sql()
    out["warc_regex"] = _warc_regex_oracle_values_sql()
    out["warc_wet"] = _warc_wet_oracle_values_sql()
    out["warc_wat"] = _warc_wat_oracle_values_sql()
    out["warc_anchor"] = _warc_anchor_oracle_values_sql()
    out["warc_host_graph"] = _warc_host_graph_oracle_values_sql()
    out["warc_media"] = _warc_media_oracle_values_sql()
    out["warc_robots"] = _warc_robots_oracle_values_sql()
    out["gopher_repetition"] = _gopher_repetition_oracle_sql()
    out["unigram_train"] = _unigram_train_oracle_values_sql()
    out["unigram_encode"] = _unigram_encode_oracle_values_sql()
    out["mmr_select"] = _mmr_select_oracle_values_sql()
    out["exact_substring_dedup_apply"] = _esd_apply_oracle_values_sql()
    out["warc_corpus"] = _warc_corpus_oracle_values_sql()
    out["file_digest"] = _file_digest_oracle_values_sql()
    out["warc_file_hash"] = _warc_file_hash_oracle_values_sql()

    # spamsum recomputed one-shot on the driver as VALUES — verifies the
    # distributed map plumbing (blocksize selection + both digests) at
    # the driver's correctness scale
    from webarchive_discovery_ray.functions.fuzzy import spamsum as _spamsum

    import pyarrow.parquet as _pq2

    _fz_docs = _pq2.read_table(
        f"{_oracle_sf_dir()}/documents.parquet", columns=["doc_id", "text"]
    )
    _fz_rows = []
    for _did, _t in zip(_fz_docs["doc_id"].to_pylist(), _fz_docs["text"].to_pylist()):
        _bs, _h1, _h2 = _spamsum(_t)
        _q = lambda v: "'" + str(v).replace("'", "''") + "'"
        _fz_rows.append(f"({_did}, {_bs}::BIGINT, {_q(_h1)}, {_q(_h2)})")
    out["fuzzy_hashes"] = (
        "SELECT * FROM (VALUES "
        + ", ".join(_fz_rows)
        + ") AS t(doc_id, blocksize, ssdeep_bs, ssdeep_bs2)"
    )

    # lsh_cosine_topk is approximate-by-construction but DETERMINISTIC
    # (fixed-seed plane bank, 6-dp rounded cosines, total-order tie-break
    # (cos desc, vec_id asc) — per-batch partial top-k provably contains
    # the global top-k under that order), so the exact expected output is
    # recomputed here by a one-shot sequential pass and rendered as
    # VALUES — the oracle verifies the distributed bucketing/multiprobe/
    # partial-top-k plumbing end to end (same mechanism as fuzzy_hashes).
    out["lsh_cosine_topk"] = _lsh_cosine_oracle_values_sql()

    # knn_graph is approximate (IVF probes) but deterministic by design
    # (medoid reps — no float mean folds; 6-dp rounded cosines with
    # (cos desc, id asc) total order), so its exact output is recomputed
    # sequentially and rendered as VALUES
    out["knn_graph"] = _knn_graph_oracle_values_sql()

    # kcore_hosts' H-operator fixpoint is exact (integer estimates,
    # monotone convergence to coreness), so sequential Matula–Beck
    # peeling over the same materialized link base renders the expected
    # (host, core) set as VALUES
    out["kcore_hosts"] = _kcore_oracle_values_sql()

    # pivot column set is data-discovered (type asc), so the CASE-sum
    # mirror is generated against the same scale's distinct types
    out["pivot_user_event_values"] = _pivot_oracle_sql()

    # count-min estimates are a deterministic function of the data
    out["countmin_event_counts"] = _countmin_oracle_values_sql()

    # bpe_train is deterministic (exact integer counts + lexicographic
    # tie-break); the sequential whole-corpus Counter recompute renders
    # the expected 8 merge rules as VALUES
    out["bpe_train"] = _bpe_oracle_values_sql()

    # bpe_encode composes the same deterministic merges with in-order
    # word tokenization -> sequential per-doc recompute as VALUES
    out["bpe_encode"] = _bpe_encode_oracle_values_sql()
    out["tokenizer_efficiency"] = _tokenizer_efficiency_oracle_values_sql()

    # pq_cosine_topk: deterministic (fixed codebook init, 6-dp rounding,
    # total-order tie-break) -> sequential ADC recompute as VALUES
    out["pq_cosine_topk"] = _pq_cosine_oracle_values_sql()

    # ivfpq_cosine_topk: deterministic (bounded-slice two-level training,
    # 6-dp rounding, total-order tie-break) -> sequential recompute VALUES
    out["ivfpq_cosine_topk"] = _ivfpq_cosine_oracle_values_sql()

    # zlib byte counts come from a one-shot driver-side zlib pass rendered
    # as VALUES; n_raw, the ratio division and the integer keep band are
    # recomputed by SQL over the documents view
    import zlib as _zlib

    from webarchive_discovery_ray.pipelines.curation import (
        COMPRESS_HI as _C_HI,
        COMPRESS_LO as _C_LO,
    )

    _doc_rows = []
    import pyarrow.parquet as _pq

    _docs = _pq.read_table(
        f"{_oracle_sf_dir()}/documents.parquet", columns=["doc_id", "text"]
    )
    for _did, _t in zip(_docs["doc_id"].to_pylist(), _docs["text"].to_pylist()):
        _doc_rows.append(
            f"({_did}, {len(_zlib.compress(_t.encode('utf-8'), 6))}::BIGINT)"
        )
    out["compression_ratio"] = f"""
        WITH z AS (SELECT * FROM (VALUES {", ".join(_doc_rows)})
                   AS t(doc_id, n_compressed)),
        r AS (
            SELECT d.doc_id,
                   CAST(octet_length(encode(d.text)) AS BIGINT) AS n_raw,
                   z.n_compressed
            FROM documents d JOIN z USING (doc_id)
        )
        SELECT doc_id, n_raw, n_compressed,
               CASE WHEN n_raw > 0
                    THEN CAST(n_compressed AS DOUBLE) / n_raw
                    ELSE 0.0 END AS ratio,
               (n_raw > 0 AND 100 * n_compressed >= {_C_LO} * n_raw
                          AND 100 * n_compressed <= {_C_HI} * n_raw) AS keep
        FROM r
    """
    # closed crawl loop: recrawl intervals (sched) x host PageRank (ranks)
    # -> the follow-up crawl's seed list; composes the two already-oracled
    # CTEs, the latest-capture URL arg-max and the integer priority rule
    out["recrawl_seed_list"] = f"""
        WITH sched AS ({out["recrawl_schedule"]}),
        ranks AS ({out["host_pagerank"]}),
        latest AS (
          SELECT surt_key, url FROM (
            SELECT surt_key, url,
                   row_number() OVER (
                     PARTITION BY surt_key
                     ORDER BY timestamp14 DESC, url DESC
                   ) AS rn
            FROM read_parquet('{_ORACLE_MAT}/captures/*.parquet')
          ) WHERE rn = 1
        ),
        base AS (
          SELECT s.surt_key, l.url,
                 array_to_string(
                   list_reverse(
                     string_split(split_part(s.surt_key, ')', 1), ',')
                   ), '.'
                 ) AS host,
                 s.next_fetch_s
          FROM sched s JOIN latest l USING (surt_key)
        ),
        j AS (
          SELECT b.surt_key, b.url, b.host, b.next_fetch_s,
                 CAST(b.next_fetch_s // 86400 AS INTEGER) AS priority,
                 CAST(floor(COALESCE(r.rank_r, 0.0) * 1e8) AS BIGINT)
                   AS boost
          FROM base b LEFT JOIN ranks r ON r.host = b.host
        )
        SELECT *,
               row_number() OVER (ORDER BY priority, boost DESC, surt_key)
                 AS seed_rank
        FROM j
    """
    return _pin_oracle_int_columns(out)


# Dtype pin for the oracle surface (round-5 fix, VERDICT r4 item 1):
# DuckDB types bare VALUES integer literals as INTEGER (int32) and widens
# sum(BIGINT) to HUGEINT (which pandas materialises as float64). Either
# way the driver's value-hash sees a different dtype than the repo's
# int64 output even when the values are exactly equal. Every integer
# column the oracles emit is pinned to BIGINT here with a mechanical
# `SELECT * REPLACE (col::BIGINT AS col)` wrapper so no VALUES builder
# can regress the dtype contract. tests/test_driver_contract.py enforces
# numeric-KIND agreement, which keeps this map honest.
_ORACLE_BIGINT_PIN: dict[str, tuple[str, ...]] = {
    "cdx_merge": ("status",),
    "cdx_sorted": ("status",),
    "countmin_event_counts": ("user_id",),
    "funnel_counts": ("step_idx",),
    "fuzzy_hashes": ("doc_id",),
    "ivfpq_cosine_topk": ("query_vec_id", "vec_id"),
    "knn_graph": ("src_vec_id", "dst_vec_id"),
    "lsh_cosine_topk": ("query_vec_id", "vec_id"),
    "mdx_stats": ("status",),
    "mmr_select": ("rank",),
    "persist_log": ("status",),
    "pq_cosine_topk": ("query_vec_id", "vec_id"),
    "recrawl_seed_list": ("priority",),
    "reduplicate_revisits": ("status",),
    "semdedup_keep": ("label",),
    "span_coalesce": ("span_idx",),
    "warc_cdx": ("status",),
    "warc_extract": ("status",),
    "warc_wat": ("status",),
}


def _pin_oracle_int_columns(out: dict[str, str]) -> dict[str, str]:
    for name, cols in _ORACLE_BIGINT_PIN.items():
        if name not in out:
            continue
        repl = ", ".join(f'"{c}"::BIGINT AS "{c}"' for c in cols)
        out[name] = f"SELECT * REPLACE ({repl}) FROM ({out[name]})"
    return out
