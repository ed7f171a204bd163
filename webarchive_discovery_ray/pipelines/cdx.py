"""CDX captures: per-record capture lines + global SURT-ordered sort.

Reference: CDX line generation
(``warc-hadoop-recordreaders/.../lib/DereferencingArchiveToCDXRecordReader.java:155-240``
— key = canonicalised URL key, value = the capture fields) and the
globally-sorted CDX job (``ArchiveCDXGenerator.java:185-243``, TotalOrder
partitioner + sampler). Ray Data's ``sort`` does its own range sampling, so
the explicit split file disappears (SURVEY.md O1).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import IndexConfig, SyntheticConfig
from ..functions.bucketing import coalesce_blocks, keyed_fold, sum_in_bucket, typed_empty
from ..schema import CAPTURES_SCHEMA
from ..stages.extract import extract_batch

__all__ = [
    "warc_cdxj",
    "captures_from_pages_batch",
    "cdx_sorted",
    "warc_cdx",
    "warc_stats",
    "warc_datasets",
    "warc_regex",
    "warc_corpus",
    "warc_wet",
    "warc_wat",
    "wat_envelope",
    "warc_anchor",
    "warc_media",
    "warc_robots",
    "warc_digest_dups",
    "warc_deduplicate",
    "capture_intervals",
    "url_templates",
    "capture_diff",
    "cdx_collapse",
    "recrawl_schedule",
    "recrawl_seed_list",
]


def captures_from_pages_batch(batch: pa.Table, cfg: IndexConfig) -> pa.Table:
    """pages batch -> captures batch (M38): one CDX-style row per record
    surviving the extraction filters. Pure columnar projection (fill_null
    for the reference's '-' placeholders) — no row iteration."""
    import pyarrow.compute as pc

    docs = extract_batch(batch, cfg)
    if docs.num_rows == 0:
        return CAPTURES_SCHEMA.empty_table()
    return pa.table(
        {
            "surt_key": docs["surt"],
            "timestamp14": pc.fill_null(docs["wayback_date"], ""),
            "url": docs["url"],
            "mime": pc.fill_null(docs["content_type"], "-"),
            "status": docs["status"],
            "digest": pc.fill_null(docs["hash"], "-"),
            "length": docs["content_length"],
            "offset": docs["source_offset"],
            "filename": docs["source_file"],
            "record_type": docs["record_type"],
        }
    ).cast(CAPTURES_SCHEMA)


def cdx_sorted(
    n_pages: int = 400,
    scfg: SyntheticConfig | None = None,
    icfg: IndexConfig | None = None,
    num_blocks: int = 32,
):
    """Globally (surt_key, timestamp14)-sorted captures over the synthetic
    fixture — the CDX generation pipeline end to end (generation, capture
    projection and the range-partitioned sort all distributed)."""
    from ..sources.synthetic import fixture_pages_ds

    scfg = scfg or SyntheticConfig()
    icfg = icfg or IndexConfig(response_include=())  # CDX keeps all statuses
    return (
        fixture_pages_ds(n_pages, scfg, num_blocks)
        .map_batches(
            lambda b: captures_from_pages_batch(b, icfg),
            batch_format="pyarrow",
            batch_size=None,
        )
        .sort(["surt_key", "timestamp14"])
    )


def warc_cdx(paths: list[str], icfg: IndexConfig | None = None):
    """Globally sorted CDX over REAL (W)ARC files — ArchiveCDXGenerator
    end to end (ArchiveCDXGenerator.java:185-243): one file per task
    (the gzip member stream is the split unit), capture projection per
    batch, Ray's range-sampled sort in place of the TotalOrderPartitioner
    + InputSampler. Columns: CAPTURES_SCHEMA, (surt_key, timestamp14)
    order."""
    from ..sources.warc import read_archive_pages

    icfg = icfg or IndexConfig(response_include=())  # CDX keeps all statuses
    return (
        read_archive_pages(paths)
        .map_batches(
            lambda b: captures_from_pages_batch(b, icfg),
            batch_format="pyarrow",
            batch_size=None,
        )
        .sort(["surt_key", "timestamp14"])
    )


def warc_cdxj(paths: list[str], icfg: IndexConfig | None = None):
    """Globally sorted CDXJ over REAL (W)ARC files — the OutbackCDX /
    pywb line format the reference's TinyCDXSender posts into
    (``TinyCDXSender.java:71-135`` ships CDX-11; OutbackCDX's native
    store is CDXJ): ``<surt> <ts14> {json}`` with the pinned pywb key
    order (url, mime, status, digest, length, offset, filename; numbers
    as strings per the format). Same distributed shape as
    :func:`warc_cdx` — one file per task, capture projection, one
    range-sampled sort. Columns: surt_key, timestamp14, cdxj."""
    import json

    from ..sources.warc import read_archive_pages

    icfg = icfg or IndexConfig(response_include=())  # CDX keeps all statuses

    def to_lines(batch: pa.Table) -> pa.Table:
        caps = captures_from_pages_batch(batch, icfg)
        if caps.num_rows == 0:
            return pa.table(
                {
                    "surt_key": pa.array([], pa.string()),
                    "timestamp14": pa.array([], pa.string()),
                    "cdxj": pa.array([], pa.string()),
                }
            )
        lines = [
            json.dumps(
                {
                    "url": r["url"],
                    "mime": r["mime"],
                    # CDX '-' placeholder for absent numerics (warcinfo /
                    # metadata records under the all-statuses CDX config)
                    "status": "-" if r["status"] is None else str(r["status"]),
                    "digest": r["digest"],
                    "length": "-" if r["length"] is None else str(r["length"]),
                    "offset": str(r["offset"]),
                    "filename": r["filename"],
                },
                separators=(", ", ": "),
            )
            for r in caps.to_pylist()
        ]
        return pa.table(
            {
                "surt_key": caps["surt_key"],
                "timestamp14": caps["timestamp14"],
                "cdxj": pa.array(lines, pa.string()),
            }
        )

    return (
        read_archive_pages(paths)
        .map_batches(to_lines, batch_format="pyarrow", batch_size=None)
        .sort(["surt_key", "timestamp14"])
    )


def warc_stats(paths: list[str]):
    """WARCStatsTool raw-record census over REAL (W)ARC files
    (WARCStatsTool.java:87-95 → WARCStatsMapper.java:57-104 →
    FrequencyCountingReducer): header-level parse only (payloads are
    never touched), one file per task, per-file partial counts
    (combiner), ONE bucketed grouped sum. Columns: category, item, n."""
    import os
    from collections import Counter

    import ray

    from ..sources.warc import open_archive, parse_archive_stats

    items = [
        {"path": os.path.abspath(p) if "://" not in p else p} for p in paths
    ]
    ds = ray.data.from_items(items, override_num_blocks=len(items))
    counts = dict(category=str, item=str, n="int64")

    def partial_counts(batch: pa.Table) -> pd.DataFrame:
        census: Counter = Counter()
        for path in batch["path"].to_pylist():
            with open_archive(path) as fh:
                census.update(parse_archive_stats(fh, path.rsplit("/", 1)[-1]))
        if not census:
            return typed_empty(**counts)
        return pd.DataFrame(
            [(c, i, n) for (c, i), n in census.items()],
            columns=["category", "item", "n"],
        ).astype({"n": "int64"})

    key = ("category", "item")
    return keyed_fold(
        ds, sum_in_bucket(key, "n"), key, rows=partial_counts,
        batch_format="pyarrow", empty=counts,
    )


WARC_REGEX_PATTERN = r"https?://[^\s\"'<>]+"


def warc_regex(paths: list[str], pattern: str = WARC_REGEX_PATTERN):
    """WARCRegexIndexer grep over REAL (W)ARC files
    (WARCRegexMapper.java:60-92 → WARCRegexReducer distinct-set reduce):
    key = ``digits(record date) + "/" + url`` (a missing URL Java-concats
    as ``"null"``), value = every ``pattern`` match over the first 1 MB
    of the record payload decoded UTF-8-with-replacement; the reduce
    keeps the DISTINCT matches per key. Matches are emitted
    ``unicode_escape``-encoded: binary payloads (JPEG EXIF) yield
    matches with embedded NULs/control bytes, which the reference's
    TextOutputFormat lines cannot represent either, and which pandas'
    C-string string hashing handles nondeterministically downstream.
    Distinctness is preserved (the escape is injective). Per-batch
    distinct (combiner), ONE bucketed exchange keyed by bucket(key).
    Columns: key, match."""
    import re as _re

    from ..sources.warc import read_archive_pages

    rx = _re.compile(pattern)
    pages = read_archive_pages(paths)

    def scan(batch: pa.Table) -> pd.DataFrame:
        df = batch.select(["timestamp14", "url", "payload"]).to_pandas()
        # dedup with a python set, NOT pandas drop_duplicates: binary
        # payloads yield matches with embedded NULs, and pandas'
        # multi-column dedup hashes strings with C-string semantics
        # (``"x\0"`` == ``"x\0\0"``), silently merging distinct matches
        pairs: set[tuple[str, str]] = set()
        for ts, url, payload in zip(df["timestamp14"], df["url"], df["payload"]):
            key = ts + "/" + (url if url is not None else "null")
            text = bytes(payload)[: 1 << 20].decode("utf-8", errors="replace")
            for m in rx.findall(text):
                pairs.add((key, m.encode("unicode_escape").decode("ascii")))
        return key_matches(pairs)

    def key_matches(pairs) -> pd.DataFrame:
        ordered = sorted(pairs)
        return pd.DataFrame(
            {
                "key": pd.Series([p[0] for p in ordered], dtype=str),
                "match": pd.Series([p[1] for p in ordered], dtype=str),
            }
        )

    def distinct_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return key_matches(set(zip(df["key"], df["match"])))

    return keyed_fold(
        pages, distinct_in_bucket, "key", rows=scan, batch_format="pyarrow",
        empty=dict(key=str, match=str),
    )


def warc_datasets(paths: list[str], icfg: IndexConfig | None = None):
    """WARCDatasetGenerator multi-facet datasets over REAL (W)ARC files
    (WARCDatasetMapper.java:182-222 → FrequencyCountingReducer): per
    surviving extracted record, facet rows keyed ``{facet}__{year}``:

    * ``hosts__Y`` → the record's host;
    * ``formats__Y`` → ``served \\t tika \\t detected`` (SolrRecord
      .getFormatResults — the table-driven detected type plays DROID's
      third slot here, M17/M29 sharing one signature table);
    * ``host_links__Y`` → one ``src \\t dst`` row per distinct outlink
      host (SolrRecord.getHostLinks).

    Faces (``faces__Y``, OpenIMAJ) are descoped with the library. Full
    extraction per file task, per-batch partial counts, ONE bucketed
    grouped sum. Columns: dataset, item, n."""
    from ..sources.warc import read_archive_pages
    from ..stages.extract import ExtractStage

    icfg = icfg or IndexConfig()
    docs = read_archive_pages(paths).map_batches(
        ExtractStage(icfg), batch_format="pyarrow", batch_size=64
    )

    def facet_counts(batch: pa.Table) -> pd.DataFrame:
        df = batch.select(
            [
                "wayback_date",
                "host",
                "content_type_served",
                "content_type_tika",
                "content_type",
                "links_hosts",
            ]
        ).to_pandas()
        year = df["wayback_date"].fillna("").str[:4]
        pairs: list[tuple[str, str]] = []
        pairs.extend(zip("hosts__" + year, df["host"].fillna("")))
        fmt = (
            df["content_type_served"].fillna("")
            + "\t"
            + df["content_type_tika"].fillna("")
            + "\t"
            + df["content_type"].fillna("")
        )
        pairs.extend(zip("formats__" + year, fmt))
        link_rows = pd.DataFrame(
            {"key": "host_links__" + year, "src": df["host"].fillna(""), "dst": df["links_hosts"]}
        ).explode("dst")
        link_rows = link_rows[link_rows["dst"].notna()]
        pairs.extend(
            zip(link_rows["key"], link_rows["src"] + "\t" + link_rows["dst"])
        )
        out = pd.DataFrame(pairs, columns=["dataset", "item"])
        vc = out.value_counts(["dataset", "item"]).reset_index(name="n")
        vc["n"] = vc["n"].astype("int64")
        return vc

    key = ("dataset", "item")
    return keyed_fold(
        docs, sum_in_bucket(key, "n"), key, rows=facet_counts, batch_format="pyarrow",
        empty=dict(dataset=str, item=str, n="int64"),
    )


def warc_wet(paths: list[str], icfg: IndexConfig | None = None):
    """WET-style text-conversion table over REAL (W)ARC files — the
    Common-Crawl ``*.warc.wet`` companion job (ISO-28500 §6.8
    'conversion' records: the re-extracted plain text of each capture).
    The reference ships the same information through the indexer's
    ``content`` field (``TikaPayloadAnalyser.java:239-519`` text +
    ``WARCIndexer.java:471-490`` store/index split); this job emits it
    as a standalone dataset the way a crawl pipeline feeding an LLM
    corpus actually consumes it.

    Shape: binary archive read (one file per task) → extraction chain →
    vectorized non-empty-text filter → flat projection. No shuffle.
    Columns: source_file, source_offset, url, ts14, text_length,
    text_sha1 (``sha1:<base32>`` over the UTF-8 text — the digest the
    conversion record's WARC-Block-Digest carries). Pair with
    :func:`webarchive_discovery_ray.sources.warc.write_wet` to serialise
    the actual ``.wet.gz`` members."""
    import pyarrow.compute as pc

    from ..functions.hashing import sha1_b32
    from ..sources.warc import read_archive_pages
    from ..stages.extract import ExtractStage

    icfg = icfg or IndexConfig()
    docs = read_archive_pages(paths).map_batches(
        ExtractStage(icfg), batch_format="pyarrow", batch_size=64
    )

    def project(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(b["content"]),
            pc.greater(pc.utf8_length(pc.fill_null(b["content"], "")), 0),
        )
        b = b.filter(keep)
        digests = pa.array(
            [sha1_b32(t.encode("utf-8")) for t in b["content"].to_pylist()],
            pa.string(),
        )
        return pa.table(
            {
                "source_file": b["source_file"],
                "source_offset": pc.cast(b["source_offset"], pa.int64()),
                "url": b["url"],
                "ts14": b["wayback_date"],
                # length of the text actually exported (post-field-policy
                # — content_text_length keeps the reference's PRE-policy
                # Tika length, which is a different quantity)
                "text_length": pc.cast(
                    pc.utf8_length(b["content"]), pa.int64()
                ),
                "text_sha1": digests,
            }
        )

    return docs.map_batches(project, batch_format="pyarrow")


def wat_envelope(
    url: str,
    ts14: str,
    record_type: str,
    status: int,
    mime: str,
    title: str,
    n_links: int,
) -> str:
    """Canonical WAT metadata envelope (one JSON object per record,
    Common-Crawl ``*.warc.wat`` shape, simplified to the fields this
    engine extracts). Rendering is a pure formatting rule — sorted keys,
    no whitespace — so the Ray pipeline and the sequential VALUES oracle
    cannot diverge on serialisation; the *values* still come from the two
    independent extraction paths."""
    import json

    return json.dumps(
        {
            "Envelope": {
                "WARC-Header-Metadata": {
                    "WARC-Target-URI": url,
                    "WARC-Date": ts14,
                    "WARC-Type": record_type,
                },
                "Payload-Metadata": {
                    "HTTP-Response-Metadata": {
                        "Response-Message-Status": int(status),
                        "Headers-Content-Type": mime,
                    },
                    "HTML-Metadata": {
                        "Head-Title": title,
                        "Links-Count": int(n_links),
                    },
                },
            }
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def warc_wat(paths: list[str], icfg: IndexConfig | None = None):
    """WAT-style metadata table over REAL (W)ARC files — the
    Common-Crawl ``*.warc.wat`` companion job to :func:`warc_wet`
    (per-record JSON metadata envelopes: WARC header fields + HTTP
    response metadata + HTML head/link metadata). The reference ships
    this information through the indexer's header/link Solr fields
    (``WARCIndexer.java:316-470`` header projection,
    ``HtmlFeatureParser.java`` links/title) and the MDX stats projection
    (``MDX.java``); this job emits it as the standalone derived dataset
    a link-graph or head-metadata consumer actually reads.

    Shape: binary archive read (one file per task) → extraction chain →
    flat per-survivor projection + canonical JSON envelope. No shuffle.
    Columns: source_file, source_offset, url, ts14, record_type, status,
    mime (served, '' when absent), content_type_norm, title ('' when
    absent), n_links, links_sha1 (``sha1:<base32>`` over the
    newline-joined link list — the link set verifiable without a nested
    column), wat_json (the envelope)."""
    import pyarrow.compute as pc

    from ..functions.hashing import sha1_b32
    from ..sources.warc import read_archive_pages
    from ..stages.extract import ExtractStage

    icfg = icfg or IndexConfig()
    docs = read_archive_pages(paths).map_batches(
        ExtractStage(icfg), batch_format="pyarrow", batch_size=64
    )

    def project(b: pa.Table) -> pa.Table:
        # '' (never null) for every optional string — the same rule the
        # sequential VALUES oracle applies, so the hash gate is exact
        urls = b["url"].to_pylist()
        ts = [x or "" for x in b["wayback_date"].to_pylist()]
        rt = [x or "" for x in b["record_type"].to_pylist()]
        st = [int(x or 0) for x in b["status"].to_pylist()]
        mime = [m or "" for m in b["content_type_served"].to_pylist()]
        ctn = [x or "" for x in b["content_type_norm"].to_pylist()]
        titles = [t or "" for t in b["title"].to_pylist()]
        links = b["links"].to_pylist()
        n_links = [len(l or []) for l in links]
        links_sha1 = [
            sha1_b32("\n".join(l or []).encode("utf-8")) for l in links
        ]
        wat = [
            wat_envelope(urls[i], ts[i], rt[i], st[i], mime[i],
                         titles[i], n_links[i])
            for i in range(len(urls))
        ]
        return pa.table(
            {
                "source_file": b["source_file"],
                "source_offset": pc.cast(b["source_offset"], pa.int64()),
                "url": b["url"],
                "ts14": pa.array(ts, pa.string()),
                "record_type": pa.array(rt, pa.string()),
                "status": pa.array(st, pa.int32()),
                "mime": pa.array(mime, pa.string()),
                "content_type_norm": pa.array(ctn, pa.string()),
                "title": pa.array(titles, pa.string()),
                "n_links": pa.array(n_links, pa.int64()),
                "links_sha1": pa.array(links_sha1, pa.string()),
                "wat_json": pa.array(wat, pa.string()),
            }
        )

    return docs.map_batches(project, batch_format="pyarrow")


def warc_anchor(paths: list[str], icfg: IndexConfig | None = None):
    """Flat (source, page, target, anchor-text) rows over REAL (W)ARC
    files — the raw signal :func:`stats.anchor_text_index` aggregates,
    here on the binary input path (the reference emits the link itself
    via ``HtmlFeatureParser.java:154-250``; the enclosed text is this
    engine's addition). Per 200 text/html record: pinned
    ``functions/htmlscan.anchor_texts`` assembly, href resolved against
    the record URL + canonicalised (M23-24 link rule). No shuffle.
    Columns: source_file, source_offset, url, target, text."""
    from ..functions.htmlscan import anchor_texts
    from ..functions.normalisation import resolve_relative
    from ..sources.warc import read_archive_pages

    def pairs(b: pa.Table) -> pa.Table:
        sf: list[str] = []
        so: list[int] = []
        us: list[str] = []
        ts: list[str] = []
        xs: list[str] = []
        cols = ["url", "status", "mime_served", "payload",
                "source_file", "source_offset"]
        for r in b.select(cols).to_pylist():
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
                sf.append(r["source_file"])
                so.append(int(r["source_offset"]))
                us.append(r["url"])
                ts.append(target)
                xs.append(text)
        return pa.table(
            {
                "source_file": pa.array(sf, pa.string()),
                "source_offset": pa.array(so, pa.int64()),
                "url": pa.array(us, pa.string()),
                "target": pa.array(ts, pa.string()),
                "text": pa.array(xs, pa.string()),
            }
        )

    return read_archive_pages(paths).map_batches(pairs, batch_format="pyarrow")


def warc_media(paths: list[str]):
    """Media sidecar over REAL (W)ARC files — one row per image capture
    (served or sniffed image/*), with header-only parsed dimensions
    (``functions/imagemeta`` — the reference runs ImageIO readers,
    ``ImageAnalyser.java``): the table a multimodal corpus builder joins
    against the interleaved spans' media_refs. No shuffle; binary read
    (one file per task) → vectorized mime gate → per-record header
    parse. Columns: source_file, source_offset, url, ts14, mime,
    n_bytes, width, height (-1 when the header doesn't parse),
    payload_sha1."""
    from ..functions.hashing import sha1_b32
    from ..functions.imagemeta import image_dimensions
    from ..functions.mime import detect_mime
    from ..sources.warc import read_archive_pages

    def media(b: pa.Table) -> pa.Table:
        cols = ["url", "status", "mime_served", "payload",
                "source_file", "source_offset", "timestamp14"]
        out = {k: [] for k in ("source_file", "source_offset", "url",
                               "ts14", "mime", "n_bytes", "width",
                               "height", "payload_sha1")}
        for r in b.select(cols).to_pylist():
            payload = r["payload"] or b""
            served = r["mime_served"] or ""
            mime = served if served.startswith("image/") else (
                detect_mime(payload, r["url"]) or ""
            )
            if not mime.startswith("image/") or r["status"] != 200:
                continue
            dims = image_dimensions(payload)
            w, h = dims if dims else (-1, -1)
            out["source_file"].append(r["source_file"])
            out["source_offset"].append(int(r["source_offset"]))
            out["url"].append(r["url"])
            out["ts14"].append(r["timestamp14"] or "")
            out["mime"].append(mime)
            out["n_bytes"].append(len(payload))
            out["width"].append(int(w))
            out["height"].append(int(h))
            out["payload_sha1"].append(sha1_b32(payload))
        return pa.table(
            {
                "source_file": pa.array(out["source_file"], pa.string()),
                "source_offset": pa.array(out["source_offset"], pa.int64()),
                "url": pa.array(out["url"], pa.string()),
                "ts14": pa.array(out["ts14"], pa.string()),
                "mime": pa.array(out["mime"], pa.string()),
                "n_bytes": pa.array(out["n_bytes"], pa.int64()),
                "width": pa.array(out["width"], pa.int64()),
                "height": pa.array(out["height"], pa.int64()),
                "payload_sha1": pa.array(out["payload_sha1"], pa.string()),
            }
        )

    return read_archive_pages(paths).map_batches(media, batch_format="pyarrow")


def warc_robots(paths: list[str]):
    """robots.txt captures over REAL (W)ARC files, parsed through the
    crawl plane's RFC 9309 rule engine (``state/robots.parse_robots`` —
    the same sentinel encoding the frontier's politeness drain consumes):
    one row per 200 robots.txt capture with its rule census. No shuffle.
    Columns: source_file, source_offset, url, ts14, n_disallow, n_allow,
    crawl_delay (-1 when absent), n_sitemaps, rules_md5 (md5 over the
    0x1F-joined rules list — the full parse verifiable without a nested
    column)."""
    import hashlib

    from ..state.robots import (
        ALLOW_PREFIX,
        SITEMAP_PREFIX,
        crawl_delay_of,
        parse_robots,
    )
    from ..sources.warc import read_archive_pages

    def robots(b: pa.Table) -> pa.Table:
        cols = ["url", "status", "payload", "source_file", "source_offset",
                "timestamp14"]
        out = {k: [] for k in ("source_file", "source_offset", "url", "ts14",
                               "n_disallow", "n_allow", "crawl_delay",
                               "n_sitemaps", "rules_md5")}
        for r in b.select(cols).to_pylist():
            u = r["url"] or ""
            path = u.split("://", 1)[-1].partition("/")[2]
            if path != "robots.txt" or r["status"] != 200:
                continue
            rules = parse_robots(
                (r["payload"] or b"").decode("utf-8", "replace")
            )
            out["source_file"].append(r["source_file"])
            out["source_offset"].append(int(r["source_offset"]))
            out["url"].append(u)
            out["ts14"].append(r["timestamp14"] or "")
            out["n_disallow"].append(
                sum(1 for x in rules if x.startswith("/"))
            )
            out["n_allow"].append(
                sum(1 for x in rules if x.startswith(ALLOW_PREFIX))
            )
            cd = crawl_delay_of(rules)
            out["crawl_delay"].append(-1 if cd is None else int(cd))
            out["n_sitemaps"].append(
                sum(1 for x in rules if x.startswith(SITEMAP_PREFIX))
            )
            out["rules_md5"].append(
                hashlib.md5("\x1f".join(rules).encode("utf-8")).hexdigest()
            )
        return pa.table(
            {
                "source_file": pa.array(out["source_file"], pa.string()),
                "source_offset": pa.array(out["source_offset"], pa.int64()),
                "url": pa.array(out["url"], pa.string()),
                "ts14": pa.array(out["ts14"], pa.string()),
                "n_disallow": pa.array(out["n_disallow"], pa.int64()),
                "n_allow": pa.array(out["n_allow"], pa.int64()),
                "crawl_delay": pa.array(out["crawl_delay"], pa.int64()),
                "n_sitemaps": pa.array(out["n_sitemaps"], pa.int64()),
                "rules_md5": pa.array(out["rules_md5"], pa.string()),
            }
        )

    return read_archive_pages(paths).map_batches(robots, batch_format="pyarrow")


def warc_corpus(
    paths: list[str],
    context: int = 512,
    media_tokens: int = 64,
    icfg: IndexConfig | None = None,
):
    """The north-star composition end to end over REAL (W)ARC files:
    binary archive read (one file per task) → zero-copy Arrow extraction
    → interleaved text+media span documents → GPT-style concat-and-chunk
    token-budget packing (``stats.interleaved_pack``: text tokens + a
    fixed vision-token charge per media span, two-phase prefix sum).
    The output maps every document onto its training-sequence bins.

    Packing needs a TOTAL order, but the reference's id rule
    (wayback + md5(url)) collides across captures of the same URL at the
    same second and across .warc/.arc copies of one crawl — so the pack
    key is ``doc_id@source_file:offset`` (unique per record by
    construction; lexicographic order stays doc_id-major).

    Columns: doc_id, n_text_tokens, n_media_spans, n_tokens, tok_offset,
    bin_start, bin_end."""
    from ..sources.warc import read_archive_pages
    from ..stages.extract import ExtractStage
    from .stats import interleaved_pack

    icfg = icfg or IndexConfig()

    def pack_key(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        key = pc.binary_join_element_wise(
            batch["doc_id"],
            batch["source_file"],
            pc.cast(pc.cast(batch["source_offset"], pa.int64()), pa.string()),
            "\x00",
        )
        # "@"/":" separators read better but NUL cannot occur in any part
        key = pc.replace_substring(key, "\x00", "@", max_replacements=1)
        key = pc.replace_substring(key, "\x00", ":", max_replacements=1)
        return pa.table({"doc_id": key, "spans": batch["spans"]})

    docs = (
        read_archive_pages(paths)
        .map_batches(ExtractStage(icfg), batch_format="pyarrow", batch_size=64)
        .map_batches(pack_key, batch_format="pyarrow")
    )
    return interleaved_pack(docs, context=context, media_tokens=media_tokens)


def capture_intervals(captures):
    """Per-URL capture history stats — the crawl-scheduling signal behind
    OutbackCDX's revisit decisions (``warc-hadoop-crawler-utils/.../recrawl``
    reads the same per-SURT fetch history): captures per surt_key, first /
    last capture timestamp, and the number of distinct content versions
    (digest changes). ONE hash-partitioned groupby on the capture key;
    timestamp14 strings order lexicographically so min/max are exact.
    Columns: surt_key, n_captures, first_ts14, last_ts14, n_versions."""
    import pandas as pd

    def stats_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized over every SURT in the bucket (per-key map_groups
        # would pay one Python call per URL — functions/bucketing.py)
        g = df.groupby("surt_key", sort=False).agg(
            n_captures=("timestamp14", "size"),
            first_ts14=("timestamp14", "min"),
            last_ts14=("timestamp14", "max"),
            n_versions=("digest", "nunique"),
        )
        g = g.reset_index()
        g["n_captures"] = g["n_captures"].astype("int64")
        g["n_versions"] = g["n_versions"].astype("int64")
        return g

    return keyed_fold(
        captures.select_columns(["surt_key", "timestamp14", "digest"]),
        stats_in_bucket, "surt_key",
    )


def url_templates(captures, k: int = 50):
    """Top-k URL path TEMPLATES per crawl — the frontier-analytics pass a
    crawl operator runs to spot crawler traps, pagination families and
    parameter explosions before they eat the politeness budget (the CDX
    query-side equivalent of the reference's per-host URL reports):
    host = the authority of the capture URL, template = its path with
    every digit run collapsed to ``N`` and the query/fragment dropped,
    counted over all captures.

    Same exchange shape as ``ngram_topk``: per-batch vectorized
    regex + partial counts (combiner), ONE bucketed grouped sum fused
    with per-bucket top-k truncation (all rows of a (host, template)
    co-locate, so in-bucket sums are exact and a global-top-k row is in
    its bucket's top-k), then a bounded global sort+limit. Columns:
    host, template, n; order (n desc, host asc, template asc).
    SQL-oracle-checked over the materialized captures base."""
    import pandas as pd

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        urls = df["url"].astype(str)
        host = urls.str.extract(r"^[a-z0-9+.-]+://([^/?#]+)", expand=False)
        path = urls.str.extract(r"^[a-z0-9+.-]+://[^/?#]+(/[^?#]*)", expand=False)
        ok = host.notna()
        host = host[ok]
        path = path[ok].fillna("/")
        template = path.str.replace(r"[0-9]+", "N", regex=True)
        g = (
            pd.DataFrame({"host": host, "template": template})
            .groupby(["host", "template"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype("int64")
        return g

    def sum_topk_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(["host", "template"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        g["n"] = g["n"].astype("int64")
        return g.sort_values(
            ["n", "host", "template"],
            ascending=[False, True, True],
            kind="mergesort",
        ).head(k)

    return (
        keyed_fold(
            captures.select_columns(["url"]), sum_topk_in_bucket, ("host", "template"),
            rows=partial_counts, empty=dict(host=str, template=str, n="int64"),
        )
        .sort(["n", "host", "template"], descending=[True, False, False])
        .limit(k)
    )


_RECRAWL_DEFAULT_S = 2_592_000  # 30 days for single-capture URLs


def recrawl_schedule(captures):
    """Per-SURT recrawl schedule from the capture history — the decision
    OutbackCDX-backed crawlers make per URL (``warc-hadoop-crawler-utils``
    recrawl utilities read the same per-SURT history): URLs whose content
    changes often get short revisit intervals, static ones get long ones.

    All scheduling math is EXACT INTEGER arithmetic so the distributed
    result is bit-identical to the SQL mirror: change-rate in millis
    ``cr_m = 1000*(n_versions-1) // (n_captures-1)``, revisit interval
    ``next_fetch_s = span_s*(1500 - cr_m) // ((n_captures-1)*1000)``
    (1.5x the mean observed interval for static URLs scaling down to 0.5x
    for always-changing ones); single-capture URLs get the 30-day
    default. ONE bucketed grouped pass, same shape as
    :func:`capture_intervals`. Columns: surt_key, n_captures, n_versions,
    change_rate (exact double cr_m/1000), mean_interval_s, next_fetch_s.
    SQL-oracle-checked."""
    import pandas as pd

    def schedule_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        epoch = (
            pd.to_datetime(df["timestamp14"], format="%Y%m%d%H%M%S")
            .astype("int64")
            // 1_000_000_000
        )
        d = df.assign(epoch=epoch)
        g = d.groupby("surt_key", sort=False).agg(
            n_captures=("epoch", "size"),
            first_e=("epoch", "min"),
            last_e=("epoch", "max"),
            n_versions=("digest", "nunique"),
        )
        n = g["n_captures"].astype("int64")
        v = g["n_versions"].astype("int64")
        span = (g["last_e"] - g["first_e"]).astype("int64")
        multi = n > 1
        denom = (n - 1).where(multi, 1)
        cr_m = (1000 * (v - 1) // denom).where(multi, 0).astype("int64")
        mean_iv = (span // denom).where(multi, 0).astype("int64")
        nxt = (span * (1500 - cr_m) // (denom * 1000)).where(
            multi, _RECRAWL_DEFAULT_S
        ).astype("int64")
        return pd.DataFrame(
            {
                "surt_key": g.index.to_numpy(),
                "n_captures": n.to_numpy(),
                "n_versions": v.to_numpy(),
                "change_rate": (cr_m / 1000.0).to_numpy(),
                "mean_interval_s": mean_iv.to_numpy(),
                "next_fetch_s": nxt.to_numpy(),
            }
        )

    return keyed_fold(
        captures.select_columns(["surt_key", "timestamp14", "digest"]),
        schedule_in_bucket, "surt_key",
    )


def _surt_to_host(surt: pd.Series) -> pd.Series:
    """``com,example,site10)/path`` -> ``site10.example.com`` (pure string
    rule mirrored verbatim by the SQL oracle — no URL parser on either
    side, so the two engines cannot diverge on odd URLs)."""
    rev = surt.str.partition(")")[0].str.split(",")
    return rev.map(lambda parts: ".".join(reversed(parts)))


def recrawl_seed_list(captures, ranks):
    """Close the crawl loop: turn the LAST crawl's signals into the NEXT
    crawl's prioritized seed list.

    The reference's recrawl machinery replays per-SURT fetch history into
    Heritrix scheduling state (``warc-hadoop-crawler-utils/.../recrawl/
    PersistLogMapper.java:117-142`` — A_FETCH_HISTORY drives the recrawl
    decision); here the two round-trip signals are first-class datasets:

    * ``captures`` — the capture history; :func:`recrawl_schedule` turns
      it into an exact-integer revisit interval per SURT;
    * ``ranks`` — :func:`~..pipelines.stats.host_pagerank` output
      (host, rank_r), the host-importance signal.

    Deterministic seed rule (every step integer/bit-exact and mirrored by
    the DuckDB oracle): each SURT takes the URL of its LATEST capture
    (max (timestamp14, url)); ``priority = next_fetch_s // 86400`` (days
    until the revisit is due — sooner-due URLs outrank later ones);
    within a priority class hosts with higher PageRank come first via
    ``boost = floor(rank_r * 1e8)`` (rank_r is round(·, 8) and
    hash-verified identical across engines, so the floor is too; unknown
    hosts boost 0); ``seed_rank`` = 1-based position under
    (priority asc, boost desc, surt_key asc). Feeding the list (ordered
    by seed_rank) into :func:`~..pipelines.crawl.run_crawl` reproduces
    the sequential oracle's follow-up crawl byte-for-byte
    (tests/test_crawl_parity.py). Columns: surt_key, url, host,
    next_fetch_s, priority, boost, seed_rank."""
    # latest-capture URL per SURT (bucketed arg-max, same exchange as the
    # schedule pass)
    def latest_url_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(
            ["surt_key", "timestamp14", "url"], kind="mergesort"
        ).drop_duplicates("surt_key", keep="last")
        return d[["surt_key", "url"]]

    latest = keyed_fold(
        captures.select_columns(["surt_key", "timestamp14", "url"]),
        latest_url_in_bucket, "surt_key",
    )
    sched = recrawl_schedule(captures)

    # schedule ⋈ latest-url by surt (same bucket hash), then host-keyed
    # co-group with the rank table — two exchanges, both candidate-sized
    def join_in_bucket(s: pd.DataFrame, u: pd.DataFrame) -> pd.DataFrame:
        s = s[["surt_key", "next_fetch_s"]].astype({"next_fetch_s": "int64"})
        m = s.merge(u[["surt_key", "url"]], on="surt_key", how="inner")
        m["host"] = _surt_to_host(m["surt_key"])
        return m

    seeds = keyed_fold((sched, latest), join_in_bucket, "surt_key")

    def rank_join_in_bucket(s: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        r = r[["host", "rank_r"]].astype({"rank_r": "float64"})
        m = s[["surt_key", "url", "host", "next_fetch_s"]].merge(r, on="host", how="left")
        rank = m["rank_r"].fillna(0.0).to_numpy()
        return pd.DataFrame(
            {
                "surt_key": m["surt_key"],
                "url": m["url"],
                "host": m["host"],
                "next_fetch_s": m["next_fetch_s"].astype("int64"),
                "priority": (m["next_fetch_s"] // 86400).astype("int32"),
                "boost": np.floor(rank * 1e8).astype("int64"),
            }
        )

    joined = coalesce_blocks(keyed_fold((seeds, ranks), rank_join_in_bucket, "host"))

    # global seed order: a range sort over candidate-bounded rows (the
    # seed list is one row per distinct SURT), then exact 1-based ranks
    # from per-block row counts — the classic two-phase distributed rank:
    # the driver sees only per-block INTS, blocks stay in the object
    # store and get their rank column appended by remote tasks
    import ray
    import ray.data as rd

    ordered = joined.sort(
        ["priority", "boost", "surt_key"], descending=[False, True, False]
    ).materialize()
    blocks = ordered.to_arrow_refs()
    count_rows = ray.remote(lambda t: t.num_rows)
    sizes = ray.get([count_rows.remote(b) for b in blocks]) if blocks else []
    offsets = (
        np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype("int64")
        if sizes
        else np.array([], "int64")
    )

    def _append_rank(t: pa.Table, off: int) -> pa.Table:
        return t.append_column(
            "seed_rank",
            pa.array(np.arange(off + 1, off + 1 + t.num_rows), pa.int64()),
        )

    append_rank = ray.remote(_append_rank)
    ranked = [
        append_rank.remote(b, int(o)) for b, o in zip(blocks, offsets)
    ]
    if not ranked:
        return rd.from_arrow(
            pa.table(
                {
                    "surt_key": pa.array([], pa.string()),
                    "url": pa.array([], pa.string()),
                    "host": pa.array([], pa.string()),
                    "next_fetch_s": pa.array([], pa.int64()),
                    "priority": pa.array([], pa.int32()),
                    "boost": pa.array([], pa.int64()),
                    "seed_rank": pa.array([], pa.int64()),
                }
            )
        )
    return rd.from_arrow_refs(ranked)


def capture_diff(captures):
    """Consecutive-capture change detection per SURT — the year-over-year
    "did this page change" signal web-archive QA reads off the CDX
    timeline (the reference surfaces the same comparison through CDX
    digest columns; ``recrawl_schedule`` consumes its rate form): order
    each SURT's captures by (timestamp14, digest) and compare every
    capture's digest to its predecessor.

    ONE bucketed grouped pass (``functions/bucketing.py``), fully
    vectorized in-bucket: a single sort + shifted equality over EVERY
    SURT at once (no per-URL Python). Columns: surt_key, n_captures,
    n_changes, n_unchanged, last_change_ts14 ('' when the content never
    changed — timestamp14 strings order lexicographically so the masked
    max is exact). SQL-oracle-checked via a lag() window mirror."""
    import pandas as pd

    def diff_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["surt_key", "timestamp14", "digest"], kind="mergesort", ignore_index=True
        )
        surt = df["surt_key"].to_numpy()
        dig = df["digest"].to_numpy()
        ts = df["timestamp14"].to_numpy()
        has_prev = np.zeros(len(df), dtype=bool)
        same_dig = np.zeros(len(df), dtype=bool)
        if len(df) > 1:
            has_prev[1:] = surt[1:] == surt[:-1]
            same_dig[1:] = dig[1:] == dig[:-1]
        changed = has_prev & ~same_dig
        unchanged = has_prev & same_dig
        g = (
            pd.DataFrame(
                {
                    "surt_key": surt,
                    "changed": changed.astype("int64"),
                    "unchanged": unchanged.astype("int64"),
                    "change_ts": np.where(changed, ts, ""),
                }
            )
            .groupby("surt_key", sort=False)
            .agg(
                n_captures=("changed", "size"),
                n_changes=("changed", "sum"),
                n_unchanged=("unchanged", "sum"),
                last_change_ts14=("change_ts", "max"),
            )
            .reset_index()
        )
        g["n_captures"] = g["n_captures"].astype("int64")
        return g

    return keyed_fold(
        captures.select_columns(["surt_key", "timestamp14", "digest"]),
        diff_in_bucket, "surt_key",
    )


def warc_digest_dups(paths: list[str]):
    """Duplicate-content census over REAL (W)ARC files: group the
    extraction chain's payload digests (M16 sha1-base32, the hash rule
    of ``WARCIndexer.java``'s digest field) and keep digests served by
    MORE THAN ONE kept record — the batch analogue of the crawl plane's
    live ``dedup_content`` gate and the analysis a storage-dedup /
    revisit-mint pass (J3, ``MDXReduplicatingReducer.java:72-153``) runs
    over an existing collection.

    Shape: binary reader (one file per task) → full extraction chain →
    per-batch (hash, url) combiner partials (in-batch counts + distinct
    urls + min url) → ONE bucketed fold by hash. Columns: hash, n,
    n_urls, first_url — exact integers, lexicographic-min
    representative. SQL-oracle-checked via the INDEPENDENT sequential
    parser+extractor rendered as a VALUES table."""
    from ..config import IndexConfig
    from ..sources.warc import read_archive_pages
    from ..stages.extract import ExtractStage

    docs = read_archive_pages(paths).map_batches(
        ExtractStage(IndexConfig()), batch_format="pyarrow", batch_size=64
    )

    def partials(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "hash": batch["hash"].to_pandas(),
                "url": batch["url"].to_pandas(),
            }
        )
        df = df[df["hash"].astype(bool)]
        if not len(df):
            return typed_empty(hash=str, n="int64", urls=object)
        g = (
            df.groupby("hash", sort=False)
            .agg(n=("url", "size"), urls=("url", lambda u: sorted(set(u))))
            .reset_index()
        )
        # carriers for the exact distinct fold: ship the per-batch
        # distinct URL SETS (bounded by the cluster's url variety)
        return pd.DataFrame(
            {
                "hash": g["hash"],
                "n": g["n"].astype("int64"),
                "urls": g["urls"],
            }
        )

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for h, grp in df.groupby("hash", sort=False):
            n = int(grp["n"].sum())
            if n <= 1:
                continue
            urls = sorted(set().union(*grp["urls"]))
            rows.append(
                {"hash": h, "n": n, "n_urls": len(urls), "first_url": urls[0]}
            )
        out = pd.DataFrame(rows, columns=["hash", "n", "n_urls", "first_url"])
        return out.astype({"n": "int64", "n_urls": "int64"})

    return keyed_fold(
        docs, fold, "hash", rows=partials, batch_format="pyarrow",
        empty=dict(hash=str, n="int64", n_urls="int64", first_url=str),
    )


def cdx_collapse(captures):
    """Digest-collapse of the capture timeline — pywb / OutbackCDX's
    ``collapse=digest`` playback option: within each SURT's
    (timestamp14, digest)-ordered history, keep only the FIRST capture
    of every run of identical digests (an unchanged page re-crawled N
    times stores one index row; any content change starts a new run,
    including a revert to an earlier digest). The storage-side sibling
    of :func:`capture_diff` — that op counts the changes, this one
    emits the surviving rows.

    ONE bucketed grouped pass, vectorized in-bucket (sort + shifted
    equality over every SURT at once, no per-URL Python). Columns:
    surt_key, timestamp14, digest. SQL-oracle-checked via a lag()
    window mirror."""
    import pandas as pd

    def collapse_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["surt_key", "timestamp14", "digest"], kind="mergesort",
            ignore_index=True,
        )
        surt = df["surt_key"].to_numpy()
        dig = df["digest"].to_numpy()
        keep = np.ones(len(df), dtype=bool)
        if len(df) > 1:
            keep[1:] = (surt[1:] != surt[:-1]) | (dig[1:] != dig[:-1])
        out = df.loc[keep, ["surt_key", "timestamp14", "digest"]]
        return out.reset_index(drop=True)

    return keyed_fold(
        captures.select_columns(["surt_key", "timestamp14", "digest"]),
        collapse_in_bucket, "surt_key",
    )


def warc_deduplicate(paths: list[str], out_dir: str) -> list[str]:
    """Offline storage-deduplication pass over a (W)ARC collection — the
    batch sibling of the crawl plane's live ``dedup_content`` gate and
    the write side of the reference's reduplication plane (J3,
    ``MDXReduplicatingReducer.java:72-153``): re-serialise every record,
    replacing each DUPLICATE status-200 response (same payload sha1 as
    an earlier record in the pinned global (source_file, source_offset)
    order) with an ISO-28500 identical-payload-digest ``revisit`` record
    that resolves to the winner by digest join. Output:
    ``out_dir/<input-basename>`` deterministic multi-member gzip, one
    file per input (resumable layout; byte-identical on re-run —
    tmp + os.replace publish).

    Shape: phase 1 ships only (file, offset, digest) meta rows (never
    payloads) through ONE bucket(digest) grouped min-fold that emits the
    LOSER rows; phase 2 folds those by bucket(file), together with one
    row per input file (so files without losers are rewritten too), into
    one (file, loser offsets) row per file, and rewrites each file in its
    own task (one block per file) from its own loser offsets, streaming
    the file record by record — payload bytes never leave the task that
    owns the file. The driver receives one (file, member
    count) row per input file; neither the loser list nor the winner
    map is ever materialised on it."""
    import os

    import ray as _ray

    from ..functions.hashing import sha1_b32
    from ..sources.warc import read_archive_pages

    base_of = {os.path.basename(p): p for p in paths}
    if len(base_of) != len(paths):
        raise ValueError("input basenames must be unique (resumable layout)")

    def meta_rows(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "file": batch["source_file"].to_pandas(),
                "offset": batch["source_offset"].to_pandas(),
                "rt": batch["record_type"].to_pandas(),
                "status": batch["status"].to_pandas(),
                "url": batch["url"].to_pandas(),
            }
        )
        # the hash rule is the extraction chain's M16 (sha1-base32 of the
        # raw payload) — computed here without shipping the payload on
        digest = [
            sha1_b32(v.as_py() or b"") for v in batch["payload"]
        ]
        df["digest"] = digest
        # URL-less records never reach the rewrite (it drops them), so
        # they must not win a digest either
        has_url = df["url"].fillna("").astype(bool)
        df = df[(df["rt"] == "response") & (df["status"] == 200) & has_url]
        return df[["file", "offset", "digest"]].copy()

    def losers_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["digest", "file", "offset"], kind="mergesort")
        first = ~df["digest"].duplicated(keep="first")
        out = df.loc[~first, ["file", "offset"]]
        return out.astype({"offset": "int64"}).reset_index(drop=True)

    def offsets_in_bucket(losers: pd.DataFrame, files: pd.DataFrame) -> pd.DataFrame:
        offs = {base: o.to_numpy() for base, o in losers.groupby("file")["offset"]}
        none = np.empty(0, dtype="int64")
        return pd.DataFrame(
            [(base, offs.get(base, none)) for base in sorted(set(files["file"]))],
            columns=["file", "offsets"],
        )

    def rewrite_files(df: pd.DataFrame) -> pd.DataFrame:
        counts = [
            (base, _rewrite_archive(base_of[base], out_dir, frozenset(offs.tolist())))
            for base, offs in zip(df["file"], df["offsets"])
        ]
        return pd.DataFrame(counts, columns=["file", "n"]).astype({"n": "int64"})

    losers = keyed_fold(
        read_archive_pages(paths), losers_in_bucket, "digest", rows=meta_rows,
        batch_format="pyarrow", empty=dict(file=str, offset="int64"),
    )
    every_file = _ray.data.from_items(
        [{"file": base} for base in sorted(base_of)]
    )
    per_file = keyed_fold((losers, every_file), offsets_in_bucket, "file")
    # one block, hence one rewrite task, per file: the per-file table is
    # tiny, the rewrites are not
    counts = per_file.repartition(max(1, len(base_of))).map_batches(
        rewrite_files, batch_size=None, batch_format="pandas"
    ).take_all()  # one row per input file
    if sorted(r["file"] for r in counts) != sorted(base_of):
        raise RuntimeError("warc_deduplicate: not every input file was rewritten")
    return [_dedup_out_path(out_dir, base) for base in sorted(base_of)]


def _dedup_out_path(out_dir: str, base: str) -> str:
    import os

    return os.path.join(out_dir, base if base.endswith(".gz") else base + ".gz")


def _rewrite_archive(path: str, out_dir: str, loser_offsets: frozenset) -> int:
    """``warc_deduplicate``'s per-file rewrite: stream ``path`` record by
    record into ``out_dir``, minting a revisit for every record at one of
    ``loser_offsets``; returns the member count written."""
    import os
    import uuid

    from ..functions.hashing import sha1_b32
    from ..sources.warc import (
        build_response_member,
        build_revisit_member,
        iter_archive_rows,
        open_archive,
    )

    os.makedirs(out_dir, exist_ok=True)
    out_path = _dedup_out_path(out_dir, os.path.basename(path))
    tmp = f"{out_path}.tmp-{uuid.uuid4().hex}"
    n = 0
    with open_archive(os.path.abspath(path)) as src, open(tmp, "wb") as out:
        for rec in iter_archive_rows(src, os.path.basename(path)):
            if not rec["url"] or rec["status"] is None:
                # auxiliary streams (warcinfo, request, metadata) carry
                # per-file/per-capture context the rewritten CAPTURE
                # stream does not inherit — dropped, like every
                # capture-stream transform in the reference's
                # reduplication plane
                continue
            payload = rec["payload"] or b""
            if rec["record_type"] == "revisit":
                # already-deduplicated input capture: pass through with
                # its carried digest
                member = build_revisit_member(
                    rec["url"], rec["timestamp14"], rec["status"],
                    rec["mime_served"] or None,
                    rec["payload_sha1"] or sha1_b32(payload),
                    len(payload), rec["location"] or None,
                )
            elif rec["source_offset"] in loser_offsets:
                member = build_revisit_member(
                    rec["url"], rec["timestamp14"], rec["status"],
                    rec["mime_served"] or None, sha1_b32(payload),
                    len(payload), rec["location"] or None,
                )
            else:
                member = build_response_member(
                    rec["url"], rec["timestamp14"], rec["status"],
                    rec["mime_served"] or None, payload,
                    rec["location"] or None,
                )
            out.write(member)
            n += 1
    os.replace(tmp, out_path)
    return n
