"""Real WARC/ARC binary reading (S1/S2) — parser parity, the reference's
WARCIndexerTest filter-survivor ladder, and the Ray read path.

Reference pins reproduced here:

* ``WARCIndexerTest.java:114-219`` — over ``IAH-urls-wget.warc.gz`` (36
  records) the null-count (non-surviving records) ladder as config
  filters vary: 29 default / 34 https-only / 30 robots.txt-excluded /
  20 empty response_include / 29 response_include=[2] / 20 [2,3] /
  32 with the SURT exclusion file (``exclusion_test.txt`` =
  ``http://www.archive.org/images``).
* ``WARCIndexerCommand.java:211-236`` — skip one bad record, abandon the
  file after two consecutive failures.
* ``ArchiveFileRecordReader.java:140-160`` — one file per task, records
  iterated in file order.
"""

import glob
import gzip
import os

import pyarrow as pa
import pytest

from webarchive_discovery_ray.config import IndexConfig
from webarchive_discovery_ray.functions.surt import surt_key
from webarchive_discovery_ray.oracle.warc_oracle import (
    build_synthetic_warc_gz,
    oracle_parse_archive,
)
from webarchive_discovery_ray.schema import PAGES_SCHEMA
from webarchive_discovery_ray.sources.warc import (
    parse_archive_bytes,
    read_archive_pages,
    split_gzip_members,
)
from webarchive_discovery_ray.stages.extract import ExtractStage

FIXTURE_DIR = "/root/reference/warc-indexer/src/test/resources"
IAH_WGET = os.path.join(FIXTURE_DIR, "IAH-urls-wget.warc.gz")

FIXTURES = [
    "IAH-urls-wget.warc.gz",
    "IAH-20080430204825-00000-blackbook-truncated.warc",
    "IAH-20080430204825-00000-blackbook-truncated.warc.gz",
    "IAH-20080430204825-00000-blackbook-truncated.arc",
    "IAH-20080430204825-00000-blackbook-truncated.arc.gz",
    "gov.uk-revisit-warcs/BL-20140325121225068-00000-32090~opera~8443.warc.gz",
    "gov.uk-revisit-warcs/BL-20140325122341434-00000-32090~opera~8443.warc.gz",
    "ip-host-testcase.warc.gz",
    "truncated_datetime.warc",
]

needs_fixtures = pytest.mark.skipif(
    not os.path.exists(IAH_WGET), reason="reference fixture tree absent"
)


def _read(name: str) -> bytes:
    with open(os.path.join(FIXTURE_DIR, name), "rb") as fh:
        return fh.read()


# --------------------------------------------------------------------------
# parser <-> independent sequential oracle parity
# --------------------------------------------------------------------------


@needs_fixtures
@pytest.mark.parametrize("name", FIXTURES)
def test_parser_matches_independent_oracle(name):
    data = _read(name)
    base = os.path.basename(name)
    assert parse_archive_bytes(data, base) == oracle_parse_archive(data, base)


def test_parser_matches_oracle_on_synthetic():
    data = build_synthetic_warc_gz(n_pages=9, seed=7)
    rows = parse_archive_bytes(data, "syn.warc.gz")
    assert rows == oracle_parse_archive(data, "syn.warc.gz")
    types = [r["record_type"] for r in rows]
    assert types.count("response") == 10  # 9 pages + the 301
    assert types.count("revisit") == 1 and types.count("warcinfo") == 1


@needs_fixtures
def test_gzip_and_plain_parse_identically_except_offsets():
    """The same WARC parsed plain vs gzip yields identical rows apart from
    source_offset (plain byte offsets vs compressed member offsets)."""
    plain = parse_archive_bytes(
        _read("IAH-20080430204825-00000-blackbook-truncated.warc"), "f.warc"
    )
    gz = parse_archive_bytes(
        _read("IAH-20080430204825-00000-blackbook-truncated.warc.gz"), "f.warc.gz"
    )
    assert len(plain) == len(gz) == 23
    strip = lambda r: {k: v for k, v in r.items() if k not in ("source_offset", "source_file")}
    assert [strip(r) for r in plain] == [strip(r) for r in gz]
    assert [r["source_offset"] for r in gz] == sorted(r["source_offset"] for r in gz)


@needs_fixtures
def test_gzip_member_offsets_address_real_members():
    """Each yielded compressed offset must point at a gzip magic — the CDX
    offset contract (record addressable by (file, offset))."""
    data = _read("IAH-urls-wget.warc.gz")
    offsets = [off for off, _ in split_gzip_members(data)]
    assert offsets[0] == 0 and len(offsets) == 36
    for off in offsets:
        assert data[off : off + 2] == b"\x1f\x8b"


@needs_fixtures
def test_arc_and_warc_same_crawl_same_urls():
    """The truncated blackbook crawl exists as both .arc and .warc; the
    response records cover the same URL set."""
    arc = parse_archive_bytes(
        _read("IAH-20080430204825-00000-blackbook-truncated.arc"), "f.arc"
    )
    warc = parse_archive_bytes(
        _read("IAH-20080430204825-00000-blackbook-truncated.warc"), "f.warc"
    )
    arc_urls = {r["url"] for r in arc if not r["url"].startswith("filedesc")}
    warc_urls = {r["url"] for r in warc if r["record_type"] == "response"}
    assert arc_urls == warc_urls


# --------------------------------------------------------------------------
# WARCIndexerTest.java:114-219 survivor-count ladder
# --------------------------------------------------------------------------


def _null_count(tbl: pa.Table, cfg: IndexConfig) -> int:
    return tbl.num_rows - ExtractStage(cfg)(tbl).num_rows


@needs_fixtures
def test_warcindexer_filter_ladder():
    rows = parse_archive_bytes(_read("IAH-urls-wget.warc.gz"), "IAH-urls-wget.warc.gz")
    tbl = pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)
    assert tbl.num_rows == 36
    # testProtocolFilters: [http, https] -> 29, [https] -> 34
    assert _null_count(tbl, IndexConfig()) == 29
    assert _null_count(tbl, IndexConfig(protocol_include=("https",))) == 34
    # testUrlFilters: [] -> 29, [robots.txt] -> 30
    assert _null_count(tbl, IndexConfig(url_exclude=())) == 29
    assert _null_count(tbl, IndexConfig(url_exclude=("robots.txt",))) == 30
    # testResponseCodeFilters: [] -> 20, [2] -> 29, [2,3] -> 20
    assert _null_count(tbl, IndexConfig(response_include=())) == 20
    assert _null_count(tbl, IndexConfig(response_include=("2",))) == 29
    assert _null_count(tbl, IndexConfig(response_include=("2", "3"))) == 20
    # testExclusionFilter: exclusion_test.txt = http://www.archive.org/images -> 32
    excl = surt_key("http://www.archive.org/images")
    assert _null_count(tbl, IndexConfig(surt_exclusions=(excl,))) == 32


@needs_fixtures
def test_warcindexer_ip_host_survivors():
    """WARCIndexerTest.testIPHost: over ip-host-testcase.warc.gz with
    response_include=[2,4], 6 records are read and exactly 1 survives
    extraction (5 null)."""
    rows = parse_archive_bytes(
        _read("ip-host-testcase.warc.gz"), "ip-host-testcase.warc.gz"
    )
    assert len(rows) == 6
    tbl = pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)
    assert _null_count(tbl, IndexConfig(response_include=("2", "4"))) == 5


@needs_fixtures
def test_warcindexer_truncated_datetime():
    """WARCIndexerTest.testTruncatedTime: the record whose id carries the
    12-digit (seconds-truncated) wayback prefix
    201908150102/+BV/tmv/tASHANg2c3/2MA== must yield crawl_date digits
    identical to its (zero-padded 14-digit) wayback_date."""
    import re

    rows = parse_archive_bytes(
        _read("truncated_datetime.warc"), "truncated_datetime.warc"
    )
    tbl = pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)
    docs = ExtractStage(IndexConfig())(tbl).to_pylist()
    rec_id = "201908150102/+BV/tmv/tASHANg2c3/2MA=="
    match = [d for d in docs if d["doc_id"] == rec_id]
    assert match, f"record {rec_id} not extracted"
    d = match[0]
    assert re.sub(r"[^0-9]", "", d["crawl_date"]) == d["wayback_date"]


# --------------------------------------------------------------------------
# 2-consecutive-failure skip rule (WARCIndexerCommand.java:211-236)
# --------------------------------------------------------------------------


def _gz_member(raw: bytes) -> bytes:
    return gzip.compress(raw, mtime=0)


def _good_record(i: int) -> bytes:
    body = f"HTTP/1.1 200 OK\r\n\r\npage {i}".encode()
    return (
        b"WARC/1.0\r\nWARC-Type: response\r\n"
        + f"WARC-Target-URI: http://ex.org/{i}\r\n".encode()
        + b"WARC-Date: 2016-01-01T00:00:00Z\r\n"
        + b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
        + body + b"\r\n\r\n"
    )


def test_single_bad_record_is_skipped():
    data = b"".join(
        [
            _gz_member(_good_record(0)),
            _gz_member(b"GARBAGE NOT A WARC RECORD\r\n\r\n"),
            _gz_member(_good_record(1)),
            _gz_member(_good_record(2)),
        ]
    )
    rows = parse_archive_bytes(data, "skip.warc.gz")
    assert [r["url"] for r in rows] == [f"http://ex.org/{i}" for i in range(3)]


def test_two_consecutive_failures_abandon_file():
    data = b"".join(
        [
            _gz_member(_good_record(0)),
            _gz_member(b"GARBAGE ONE\r\n\r\n"),
            _gz_member(b"GARBAGE TWO\r\n\r\n"),
            _gz_member(_good_record(1)),
        ]
    )
    rows = parse_archive_bytes(data, "abandon.warc.gz")
    assert [r["url"] for r in rows] == ["http://ex.org/0"]


def test_truncated_final_record_does_not_lose_earlier_rows():
    raw = _good_record(0) + _good_record(1)
    truncated = raw[:-20]  # cut into record 1's declared block
    rows = parse_archive_bytes(truncated, "trunc.warc")
    assert [r["url"] for r in rows] == ["http://ex.org/0"]


# --------------------------------------------------------------------------
# Ray read path: read_archive_pages == sequential parse, file order kept
# --------------------------------------------------------------------------


@needs_fixtures
def test_read_archive_pages_matches_sequential(ray_session, tmp_path):
    paths = [
        os.path.join(FIXTURE_DIR, "IAH-urls-wget.warc.gz"),
        os.path.join(FIXTURE_DIR, "IAH-20080430204825-00000-blackbook-truncated.arc.gz"),
    ]
    ds = read_archive_pages(paths)
    got = sorted(
        ds.select_columns(["url", "timestamp14", "record_type", "status",
                           "source_file", "source_offset"]).take_all(),
        key=lambda r: (r["source_file"], r["source_offset"]),
    )
    want = []
    for p in paths:
        with open(p, "rb") as fh:
            want.extend(parse_archive_bytes(fh.read(), os.path.basename(p)))
    want = sorted(
        (
            {k: r[k] for k in ("url", "timestamp14", "record_type", "status",
                               "source_file", "source_offset")}
            for r in want
        ),
        key=lambda r: (r["source_file"], r["source_offset"]),
    )
    assert got == want


def test_read_archive_pages_synthetic_end_to_end(ray_session, tmp_path):
    """Reader -> full extraction chain over a synthetic multi-member
    WARC.gz; survivors are exactly the 200-status responses."""
    p = str(tmp_path / "syn.warc.gz")
    with open(p, "wb") as fh:
        fh.write(build_synthetic_warc_gz(n_pages=6, seed=3))
    docs = read_archive_pages([p]).map_batches(
        ExtractStage(IndexConfig()), batch_format="pyarrow", batch_size=None
    )
    out = docs.select_columns(["url", "record_type", "status", "title"]).take_all()
    resp = [r for r in out if r["record_type"] == "response"]
    assert len(resp) == 6  # the 301 is dropped by response_include=("2",)
    assert sorted(r["title"] for r in resp) == [f"Page {i}" for i in range(6)]
    # revisit rides through (M13 short-circuit keeps revisits as rows)
    assert any(r["record_type"] == "revisit" for r in out) or len(out) == 6


def test_mona_lisa_embedded_solr_parity(ray_session):
    """WARCIndexerEmbeddedSolrTest.java:178-199 analogue over the real
    wikipedia-mona-lisa fixture: 39 surviving docs, the content_type:
    image* query returns 21, and source_file / source_file_path carry
    the fixture name — the index-and-query-back round trip expressed as
    Dataset filters instead of a Solr server."""
    import os

    import pyarrow.compute as pc

    W = (
        "/root/reference/warc-indexer/src/test/resources/"
        "wikipedia-mona-lisa/flashfrozen-jwat-recompressed.warc.gz"
    )
    if not os.path.exists(W):
        import pytest

        pytest.skip("reference fixture tree not present")
    docs = read_archive_pages([W]).map_batches(
        ExtractStage(IndexConfig()), batch_format="pyarrow", batch_size=64
    ).materialize()
    assert docs.count() == 39  # assertEquals(39L, docs.size())
    images = docs.map_batches(
        lambda b: b.filter(pc.starts_with(b["content_type"], "image")),
        batch_format="pyarrow",
    ).materialize()
    assert images.count() == 21  # content_type:image* -> 21 found
    row = images.take(1)[0]
    # SOURCE_FILE assertion (the schema carries the basename + offset;
    # the reference additionally emits the absolute path)
    assert row["source_file"] == "flashfrozen-jwat-recompressed.warc.gz"
    assert row["source_offset"] >= 0
    # term-query round trip over extracted text content
    hits = docs.map_batches(
        lambda b: b.filter(
            pc.match_substring(pc.coalesce(b["content"], pa.scalar("")), "Mona")
        ),
        batch_format="pyarrow",
    ).count()
    assert hits > 0


# --------------------------------------------------------------------------
# WARCStatsTool census + ArchiveCDXGenerator over the real fixtures
# --------------------------------------------------------------------------


@needs_fixtures
def test_warc_stats_matches_mapper_semantics(ray_session):
    """Distributed warc_stats == the independent sequential mapper
    emission counts; plus absolute pins on IAH-urls-wget.warc.gz."""
    from collections import Counter

    from webarchive_discovery_ray.oracle.warc_oracle import oracle_stats_items
    from webarchive_discovery_ray.pipelines.cdx import warc_stats

    paths = [os.path.join(FIXTURE_DIR, n) for n in FIXTURES]
    want: Counter = Counter()
    for p in paths:
        with open(p, "rb") as fh:
            want.update(oracle_stats_items(fh.read(), os.path.basename(p)))
    got = warc_stats(paths).to_pandas()
    assert {(r.category, r.item): r.n for r in got.itertuples()} == dict(want)
    # absolute pins for the wget fixture alone (36 records, all WARC)
    solo = warc_stats([IAH_WGET]).to_pandas()
    m = {(r.category, r.item): r.n for r in solo.itertuples()}
    assert m[("record-total", "RECORD-TOTAL")] == 36
    assert m[("record-type", "RECORD-TYPE-WARC")] == 36
    assert m[("content-types", "YEAR\t2013")] == 36


@needs_fixtures
def test_warc_cdx_sorted_matches_sequential(ray_session):
    """warc_cdx over the real fixtures == sequential parse -> capture
    projection -> python sort; global (surt_key, timestamp14) order."""
    from webarchive_discovery_ray.pipelines.cdx import (
        captures_from_pages_batch,
        warc_cdx,
    )

    paths = [os.path.join(FIXTURE_DIR, n) for n in FIXTURES]
    cfg = IndexConfig(response_include=())
    want_rows = []
    for p in paths:
        rows = parse_archive_bytes(_read(os.path.relpath(p, FIXTURE_DIR)), os.path.basename(p))
        tbl = pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)
        want_rows.extend(captures_from_pages_batch(tbl, cfg).to_pylist())
    want_keys = sorted((r["surt_key"], r["timestamp14"]) for r in want_rows)
    got = warc_cdx(paths).to_pandas()
    assert len(got) == len(want_rows)
    got_keys = list(zip(got["surt_key"], got["timestamp14"]))
    assert got_keys == want_keys


@needs_fixtures
def test_warc_file_hash_matches_hashlib(ray_session):
    """Chunked streaming SHA-512 == one-shot hashlib over the whole file;
    line format '<hex> <bytes> <path>' (MessageDigestMapper.java:123-128)."""
    import hashlib

    from webarchive_discovery_ray.pipelines.stats import warc_file_hash

    paths = [IAH_WGET, os.path.join(FIXTURE_DIR, "truncated_datetime.warc")]
    # tiny chunk size forces the multi-chunk path
    got = warc_file_hash(paths, chunk=4096).to_pandas().set_index("path")
    assert len(got) == 2
    for p in paths:
        data = open(p, "rb").read()
        row = got.loc[os.path.abspath(p)]
        assert row["hex"] == hashlib.sha512(data).hexdigest()
        assert row["bytes"] == len(data)
        assert row["line"] == f"{row['hex']} {len(data)} {os.path.abspath(p)}"
    md5 = warc_file_hash([IAH_WGET], algorithm="md5").to_pandas()
    assert md5["hex"][0] == hashlib.md5(open(IAH_WGET, "rb").read()).hexdigest()


@needs_fixtures
def test_warc_datasets_facets(ray_session):
    """Multi-facet dataset counts over the wget fixture: hosts facet mass
    equals the survivor count, every host_links item is 'src\\tdst', and
    the formats facet is the three-slot tab string."""
    from webarchive_discovery_ray.pipelines.cdx import warc_datasets

    got = warc_datasets([IAH_WGET]).to_pandas()
    facets = got["dataset"].str.rsplit("__", n=1).str[0]
    years = set(got["dataset"].str.rsplit("__", n=1).str[1])
    assert years == {"2013"}
    # 7 survivors with the default config (36 records - 29 nulls,
    # the filter-ladder pin)
    assert got.loc[facets == "hosts", "n"].sum() == 7
    assert got.loc[facets == "formats", "n"].sum() == 7
    fmt_items = got.loc[facets == "formats", "item"]
    assert (fmt_items.str.count("\t") == 2).all()
    hl = got.loc[facets == "host_links", "item"]
    assert len(hl) > 0 and (hl.str.count("\t") == 1).all()


@needs_fixtures
def test_warc_regex_distinct_matches(ray_session):
    """warc_regex == sequential findall + per-(key,match) distinct; EXIF
    matches differing only in trailing NULs must stay distinct (pandas
    C-string-hash dedup regression)."""
    import re

    from webarchive_discovery_ray.pipelines.cdx import WARC_REGEX_PATTERN, warc_regex

    path = os.path.join(
        FIXTURE_DIR, "wikipedia-mona-lisa/flashfrozen-jwat-recompressed.warc.gz"
    )
    rx = re.compile(WARC_REGEX_PATTERN)
    want: set[tuple[str, str]] = set()
    for r in parse_archive_bytes(open(path, "rb").read(), os.path.basename(path)):
        key = r["timestamp14"] + "/" + (r["url"] if r["url"] is not None else "null")
        text = bytes(r["payload"])[: 1 << 20].decode("utf-8", errors="replace")
        for m in rx.findall(text):
            want.add((key, m.encode("unicode_escape").decode("ascii")))
    got = warc_regex([path]).to_pandas()
    assert set(zip(got["key"], got["match"])) == want
    assert len(got) == len(want)
    # the JPEG EXIF blocks carry the same URL with different NUL tails —
    # both must survive as distinct (escaped) matches
    iec = got.loc[got["match"].str.startswith("http://www.iec.ch"), "match"]
    assert len(set(iec.map(len))) >= 2
    assert iec.str.contains("\\x00", regex=False).any()


@needs_fixtures
def test_warc_corpus_packing_matches_sequential(ray_session):
    """warc_corpus == the sequential composition: independent parse ->
    independent extract -> cost model -> concat-and-chunk in doc_id
    order. Every bin offset and boundary must match exactly."""
    from webarchive_discovery_ray.oracle.extract_oracle import oracle_extract_record
    from webarchive_discovery_ray.pipelines.cdx import warc_corpus

    context, media_tokens = 64, 16
    paths = [IAH_WGET, os.path.join(FIXTURE_DIR, "truncated_datetime.warc")]
    docs = []
    cfg = IndexConfig()
    for p in paths:
        for rec in oracle_parse_archive(open(p, "rb").read(), os.path.basename(p)):
            doc = oracle_extract_record(rec, cfg)
            if doc is not None:
                docs.append(doc)
    for d in docs:
        d["pack_key"] = f"{d['doc_id']}@{d['source_file']}:{d['source_offset']}"
    ids = [d["pack_key"] for d in docs]
    assert len(ids) == len(set(ids))
    docs.sort(key=lambda d: d["pack_key"])
    want = {}
    off = 0
    n_media_total = 0
    for d in docs:
        text_tok = sum(
            len(s["text"].split()) if s["text"] else 0
            for s in d["spans"] if s["kind"] == "text"
        )
        n_media = sum(1 for s in d["spans"] if s["kind"] == "media")
        n_media_total += n_media
        n = text_tok + media_tokens * n_media
        end = (off + n - 1) // context if n > 0 else off // context
        want[d["pack_key"]] = (text_tok, n_media, n, off, off // context, end)
        off += n
    got = warc_corpus(paths, context=context, media_tokens=media_tokens).to_pandas()
    assert len(got) == len(want)
    for r in got.itertuples():
        assert want[r.doc_id] == (
            r.n_text_tokens, r.n_media_spans, r.n_tokens,
            r.tok_offset, r.bin_start, r.bin_end,
        )
    assert off > context, "fixture corpus spans multiple bins"


def test_warc_stats_empty_archive_drives_typed_empty_guard(ray_session, tmp_path):
    """An archive file yielding zero records sends a zero-column block
    into the grouped fold; the typed_empty guard (imported per ADVICE
    r3) must return a schema-stable empty frame, not die with NameError."""
    from webarchive_discovery_ray.pipelines.cdx import warc_stats

    p = tmp_path / "empty.warc"
    p.write_bytes(b"")
    got = warc_stats([str(p)]).to_pandas()
    assert len(got) == 0
    # zero-column on a fully-empty dataset is a Ray Data artifact; the
    # contract is "guard fires, no NameError/KeyError, zero rows"
    assert set(got.columns) in (set(), {"category", "item", "n"})


def test_warc_wet_and_write_wet_roundtrip(ray_session, tmp_path):
    """WET job + sink: the conversion table matches a sequential
    extraction recompute, and write_wet's .wet.gz bytes parse back
    through OUR OWN reader (split_gzip_members + iter_warc_records) with
    matching URIs, dates, digests and text."""
    import hashlib

    from webarchive_discovery_ray.functions.hashing import sha1_b32
    from webarchive_discovery_ray.oracle.extract_oracle import (
        oracle_extract_record,
    )
    from webarchive_discovery_ray.pipelines.cdx import warc_wet
    from webarchive_discovery_ray.sources.warc import (
        _ts14_to_iso,
        iter_warc_records,
        read_archive_pages,
        write_wet,
    )
    from webarchive_discovery_ray.stages.extract import ExtractStage

    if os.path.exists(IAH_WGET):
        paths = [IAH_WGET]
        with open(IAH_WGET, "rb") as fh:
            data = fh.read()
        name = os.path.basename(IAH_WGET)
    else:
        data = build_synthetic_warc_gz()
        p = tmp_path / "synthetic.warc.gz"
        p.write_bytes(data)
        paths, name = [str(p)], "synthetic.warc.gz"

    cfg = IndexConfig()
    want = {}
    for rec in oracle_parse_archive(data, name):
        doc = oracle_extract_record(rec, cfg)
        if doc is None or not doc.get("content"):
            continue
        want[(doc["source_file"], doc["source_offset"])] = (
            doc["url"],
            doc["wayback_date"] or "",
            len(doc["content"]),
            sha1_b32(doc["content"].encode("utf-8")),
            doc["content"],
        )
    assert want, "fixture must yield text-bearing docs"

    got = warc_wet(paths).to_pandas()
    assert len(got) == len(want)
    for r in got.itertuples():
        w = want[(r.source_file, r.source_offset)]
        assert (r.url, r.ts14, r.text_length, r.text_sha1) == w[:4]

    # sink roundtrip through our own parser
    docs = read_archive_pages(paths).map_batches(
        ExtractStage(cfg), batch_format="pyarrow", batch_size=64
    )
    out_dir = str(tmp_path / "wet")
    n = write_wet(docs, out_dir)
    assert n == len(want)
    seen = {}
    for f in sorted(glob.glob(os.path.join(out_dir, "*.warc.wet.gz"))):
        with open(f, "rb") as fh:
            blob = fh.read()
        for _off, member in split_gzip_members(blob):
            for _ro, headers, block in iter_warc_records(member):
                assert headers["warc-type"] == "conversion"
                assert headers["content-type"] == "text/plain"
                text = block.decode("utf-8")
                assert headers["warc-block-digest"] == sha1_b32(block)
                assert int(headers["content-length"]) == len(block)
                seen[
                    (headers["warc-target-uri"], headers["warc-date"])
                ] = text
    assert len(seen) == len(
        {(u, _ts14_to_iso(t)) for u, t, *_ in want.values()}
    )
    for url, ts14, _n, _d, text in want.values():
        assert seen[(url, _ts14_to_iso(ts14))] == text


def test_write_warc_roundtrip_through_own_reader(ray_session, tmp_path):
    """write_warc response members parse back through OUR OWN reader
    (split_gzip_members + iter_warc_records) with matching URL, date,
    status, mime, location and byte-identical payloads — the crawl
    plane can WRITE the archives the index plane reads."""
    import ray.data as rd

    from webarchive_discovery_ray.config import SyntheticConfig
    from webarchive_discovery_ray.schema import PAGES_SCHEMA
    from webarchive_discovery_ray.sources.synthetic import fixture_pages
    from webarchive_discovery_ray.sources.warc import (
        read_archive_pages,
        write_warc,
    )

    rows = fixture_pages(120, SyntheticConfig())
    tbl = pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)
    ds = rd.from_arrow(tbl)
    out = str(tmp_path / "warcs")
    n = write_warc(ds, out)
    assert n == len(rows)
    import glob

    paths = sorted(glob.glob(f"{out}/part-*.warc.gz"))
    assert paths, "sink must write at least one .warc.gz"
    back = read_archive_pages(paths).to_pandas()
    assert len(back) == len(rows)
    def exp_row(w):
        # partial/overlong fixture instants normalise to exactly 14 on
        # write; shorter/non-digit values fall back to the epoch
        ts = w["timestamp14"]
        exp_ts = (
            ts[:14].ljust(14, "0")
            if ts and len(ts) >= 8 and ts.isdigit()
            else "19700101000000"
        )
        if w["url"].startswith("http"):
            return (
                w["url"], exp_ts, "response", int(w["status"]),
                w["mime_served"] or "", w["location"] or "",
                bytes(w["payload"]),
            )
        # non-http captures serialise as resource records — the indexer
        # rule the reader mirrors never parses their status; the reader
        # ALSO sanitises angle-bracketed target URIs, and a resource
        # whose sanitised URI is http gets the synthetic 200
        u = w["url"]
        if u.startswith("<") and u.endswith(">"):
            u = u[1:-1]
        return (
            u, exp_ts, "resource", 200 if u.startswith("http") else None,
            w["mime_served"] or "application/octet-stream", "",
            bytes(w["payload"]),
        )

    import math

    got_rows = sorted(
        (
            r.url, r.timestamp14, r.record_type,
            None if r.status is None or (
                isinstance(r.status, float) and math.isnan(r.status)
            ) else int(r.status),
            r.mime_served or "", r.location or "", bytes(r.payload),
        )
        for r in back.itertuples()
    )
    exp_rows = sorted(exp_row(w) for w in rows)
    assert got_rows == exp_rows
    # determinism: a second write produces the identical file set
    out2 = str(tmp_path / "warcs2")
    write_warc(rd.from_arrow(tbl), out2)
    a = {os.path.basename(p) for p in paths}
    b = {os.path.basename(p) for p in glob.glob(f"{out2}/part-*.warc.gz")}
    # names are content hashes; equal content => equal names (block
    # boundaries may differ across runs, so compare the UNION of bytes)
    cat = lambda d: b"".join(
        open(p, "rb").read() for p in sorted(glob.glob(f"{d}/part-*.warc.gz"))
    )
    if a == b:
        assert cat(out) == cat(out2)



def test_warc_deduplicate_urlless_response_never_wins(ray_session, tmp_path):
    """A URL-less response is dropped by the rewrite, so it must not win
    its digest either: the later capture with the same payload stays a
    response and is not minted as a revisit of a record that is gone."""
    import gzip

    from webarchive_discovery_ray.pipelines.cdx import warc_deduplicate
    from webarchive_discovery_ray.sources.warc import (
        build_response_member,
        parse_archive_bytes,
    )

    body = b"<html>shared body</html>"
    raw = gzip.decompress(
        build_response_member("http://gone.example/", "20200101000000", 200,
                              "text/html", body)
    )
    head, sep, block = raw.partition(b"\r\n\r\n")
    head = b"\r\n".join(
        h for h in head.split(b"\r\n") if not h.startswith(b"WARC-Target-URI")
    )
    urlless = gzip.compress(head + sep + block, mtime=0)
    later = build_response_member("http://later.example/x", "20200102000000",
                                  200, "text/html", body)
    src = tmp_path / "in" / "urlless.warc.gz"
    src.parent.mkdir()
    src.write_bytes(urlless + later)
    first = parse_archive_bytes(src.read_bytes(), "urlless.warc.gz")[0]
    assert first["url"] is None and first["record_type"] == "response"

    (out,) = warc_deduplicate([str(src)], str(tmp_path / "out"))
    rows = parse_archive_bytes(open(out, "rb").read(), "out.warc.gz")
    assert [(r["url"], r["record_type"]) for r in rows] == [
        ("http://later.example/x", "response")
    ]
    assert bytes(rows[0]["payload"]) == body

def test_warc_deduplicate_roundtrip(ray_session, tmp_path):
    """Offline storage dedup (warc_deduplicate): duplicate status-200
    responses become identical-payload-digest revisits that resolve by
    digest join against the pinned first-wins winner; output is
    byte-deterministic and our own reader round-trips it."""
    import hashlib

    from webarchive_discovery_ray.functions.hashing import sha1_b32
    from webarchive_discovery_ray.oracle.warc_oracle import (
        build_synthetic_warc_gz,
        oracle_parse_archive,
    )
    from webarchive_discovery_ray.pipelines.cdx import warc_deduplicate
    from webarchive_discovery_ray.sources.warc import parse_archive_bytes

    from webarchive_discovery_ray.sources.warc import build_response_member

    src = tmp_path / "in" / "synthetic.warc.gz"
    src.parent.mkdir()
    # base fixture + three appended captures: two share a payload (the
    # dup pair), one unique — a collection with real duplicates
    extra = (
        build_response_member("http://dup.example/a", "20200101000000",
                              200, "text/html", b"<html>same body</html>")
        + build_response_member("http://dup.example/b", "20200102000000",
                                200, "text/html", b"<html>same body</html>")
        + build_response_member("http://uniq.example/c", "20200103000000",
                                200, "text/html", b"<html>other</html>")
    )
    src.write_bytes(build_synthetic_warc_gz() + extra)

    # independent sequential expectation: first-wins by (file, offset)
    recs = oracle_parse_archive(src.read_bytes(), "synthetic.warc.gz")
    seen, exp_loser_urls = set(), []
    for r in sorted(recs, key=lambda r: r["source_offset"]):
        if r["record_type"] == "response" and r["status"] == 200:
            h = sha1_b32(r["payload"] or b"")
            if h in seen:
                exp_loser_urls.append(r["url"])
            else:
                seen.add(h)
    exp_losers = len(exp_loser_urls)
    assert exp_losers > 0, "fixture must contain duplicate payloads"

    out1, out2 = str(tmp_path / "out1"), str(tmp_path / "out2")
    (p1,) = warc_deduplicate([str(src)], out1)
    (p2,) = warc_deduplicate([str(src)], out2)
    b1 = open(p1, "rb").read()
    assert b1 == open(p2, "rb").read()  # byte-deterministic

    rows = parse_archive_bytes(b1, "dedup.warc.gz")
    # every CAPTURE record re-serialised (warcinfo/request aux dropped)
    assert len(rows) == sum(
        1 for r in recs if r["url"] and r["status"] is not None
    )
    revisits = [r for r in rows if r["record_type"] == "revisit"]
    responses = [r for r in rows if r["record_type"] == "response"]
    # minted revisits (the dup losers) + the fixture's pre-existing
    # revisit captures, which pass through with their carried digest
    n_input_revisits = sum(1 for r in recs if r["record_type"] == "revisit")
    assert len(revisits) == exp_losers + n_input_revisits
    # every revisit resolves to EXACTLY ONE stored response by digest
    by_digest = {}
    for r in responses:
        if r["status"] == 200:
            # reader-normalised digest (the parser strips the sha1: prefix)
            k = sha1_b32(r["payload"] or b"").split(":", 1)[-1]
            by_digest.setdefault(k, []).append(r)
    minted = [r for r in revisits if r["url"] in set(exp_loser_urls)]
    assert len(minted) == exp_losers
    for rv in minted:
        # every MINTED revisit resolves to EXACTLY ONE stored response
        # (the fixture's pre-existing revisit carries a placeholder
        # digest by design and passes through unresolved)
        assert rv["payload_sha1"] in by_digest
        assert len(by_digest[rv["payload_sha1"]]) == 1
        assert not rv["payload"]  # payload dropped, headers retained


def test_warc_deduplicate_rewrites_each_file_in_its_own_task(ray_session, tmp_path, monkeypatch):
    """The loser table is tiny but the rewrites are not: the rewrite of
    every input file is its own task (one block per file), whichever
    path the grouped passes before it take."""
    import re

    import ray

    from webarchive_discovery_ray.pipelines.cdx import warc_deduplicate
    from webarchive_discovery_ray.sources.warc import build_response_member

    paths = []
    for f in range(3):
        path = tmp_path / f"part-{f}.warc.gz"
        path.write_bytes(b"".join(
            build_response_member(
                f"http://f{f}.example/{i}", f"2020010{f + 1}00000{i}", 200,
                "text/html", f"<p>{i % 2}</p>".encode(),
            )
            for i in range(4)
        ))
        paths.append(str(path))
    stats = []
    orig = ray.data.Dataset.take_all

    def spy(self, *a, **k):
        out = orig(self, *a, **k)
        stats.append(self.stats())
        return out

    monkeypatch.setattr(ray.data.Dataset, "take_all", spy)
    warc_deduplicate(paths, str(tmp_path / "out"))
    monkeypatch.undo()
    found = re.search(r"MapBatches\(rewrite_files\)\S*: (\d+) tasks executed", "\n".join(stats))
    assert found and int(found.group(1)) == len(paths), stats


def test_warc_deduplicate_driver_holds_only_per_file_counts(
    ray_session, tmp_path, monkeypatch
):
    """Many losers spread over several files (cross-file duplicates, and
    one file with none): the loser offsets stay in the per-file rewrite
    fold, so no more rows than input files reach the driver through
    ``Dataset.to_pandas`` / ``take_all``; the rewrite still mints exactly
    the first-wins losers, in every file."""
    import ray

    from webarchive_discovery_ray.pipelines.cdx import warc_deduplicate
    from webarchive_discovery_ray.sources.warc import build_response_member

    src = tmp_path / "in"
    src.mkdir()
    paths, order = [], []
    for f in range(3):
        members = []
        for i in range(12):
            url = f"http://f{f}.example/{i}"
            body = f"<html>shared {i % 4}</html>".encode()
            members.append(build_response_member(
                url, f"2020010{f + 1}0000{i:02d}", 200, "text/html", body
            ))
            order.append((url, body))
        path = src / f"part-{f}.warc.gz"
        path.write_bytes(b"".join(members))
        paths.append(str(path))
    solo = src / "solo.warc.gz"
    solo.write_bytes(build_response_member(
        "http://solo.example/", "20200109000000", 200, "text/html", b"<p>unique</p>"
    ))
    paths.append(str(solo))
    seen, exp_losers = set(), set()
    for url, body in order:  # the pinned (file, offset) order
        if body in seen:
            exp_losers.add(url)
        seen.add(body)

    driver_rows = []
    for name in ("to_pandas", "take_all"):
        orig = getattr(ray.data.Dataset, name)

        def spy(self, *a, _orig=orig, **k):
            out = _orig(self, *a, **k)
            driver_rows.append(len(out))
            return out

        monkeypatch.setattr(ray.data.Dataset, name, spy)
    outs = warc_deduplicate(paths, str(tmp_path / "out"))
    monkeypatch.undo()

    assert sum(driver_rows) <= len(paths), driver_rows
    minted = set()
    for out in outs:
        for r in parse_archive_bytes(open(out, "rb").read(), os.path.basename(out)):
            if r["record_type"] == "revisit":
                minted.add(r["url"])
    assert len(exp_losers) == 32 and minted == exp_losers
