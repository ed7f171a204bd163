"""Per-row parity: the Ray extraction pipeline vs the sequential oracle.

This is the BASELINE.json correctness gate: span-sequence equality
(kind, text, media_ref, order) per row, plus full-field equality, over the
deterministic synthetic fixture corpus — including the filter conformance
behaviour modelled on ``WARCIndexerTest.java:114-219``.
"""

import os

import pyarrow as pa
import pytest

from webarchive_discovery_ray.config import IndexConfig, SyntheticConfig
from webarchive_discovery_ray.oracle.extract_oracle import oracle_extract_all
from webarchive_discovery_ray.schema import DOCUMENTS_SCHEMA, PAGES_SCHEMA
from webarchive_discovery_ray.sources.synthetic import fixture_pages
from webarchive_discovery_ray.stages.extract import ExtractStage, extract_batch

N_FIXTURE = 400
SYN = SyntheticConfig()


@pytest.fixture(scope="module")
def pages_rows():
    return fixture_pages(N_FIXTURE, SYN)


@pytest.fixture(scope="module")
def pages_table(pages_rows):
    return pa.Table.from_pylist(pages_rows, schema=PAGES_SCHEMA)


def _key(doc):
    return (doc["doc_id"], doc["url"])


def _spans_of(doc):
    return [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in doc["spans"]]


def test_local_batch_matches_oracle(pages_rows, pages_table):
    """extract_batch (no Ray) must equal the oracle row-for-row (the fixture
    may contain duplicate captures, so compare as sorted sequences)."""
    cfg = IndexConfig()
    expected = sorted(oracle_extract_all(pages_rows, cfg), key=_key)
    got = sorted(extract_batch(pages_table, cfg).to_pylist(), key=_key)
    assert len(got) == len(expected)
    for doc, exp in zip(got, expected):
        assert _spans_of(doc) == _spans_of(exp), f"span mismatch for {doc['url']}"
        for field in DOCUMENTS_SCHEMA.names:
            assert doc[field] == exp[field], f"{field} mismatch for {doc['url']}"


def test_ray_pipeline_matches_oracle(ray_session, pages_rows, pages_table):
    """Full Ray Data pipeline (small batches, parallel tasks) vs oracle."""
    import ray.data as rd

    cfg = IndexConfig()
    expected = sorted(oracle_extract_all(pages_rows, cfg), key=_key)
    ds = rd.from_arrow(pages_table).map_batches(
        ExtractStage(cfg), batch_format="pyarrow", batch_size=32
    )
    got = sorted(ds.take_all(), key=_key)
    assert len(got) == len(expected)
    for doc, exp in zip(got, expected):
        assert _spans_of(doc) == _spans_of(exp), f"span mismatch for {doc['url']}"
        assert doc["links"] == exp["links"]
        assert doc["content"] == exp["content"]
        assert doc["content_type"] == exp["content_type"]
        assert doc["hash"] == exp["hash"]


def _surviving(pages_rows, **overrides):
    cfg = IndexConfig(**overrides)
    return len(oracle_extract_all(pages_rows, cfg))


def test_filter_conformance(pages_rows, pages_table):
    """Filter toggles change surviving-row counts consistently in both
    implementations (mirror of WARCIndexerTest filter-count tests)."""
    base = IndexConfig()
    variants = [
        base,
        IndexConfig(protocol_include=("https",)),  # drops all http
        IndexConfig(url_exclude=("robots\\.txt",)),
        IndexConfig(response_include=()),  # allow every status
        IndexConfig(response_include=("2", "3")),
        IndexConfig(record_type_include=("response",)),  # drop revisits
        IndexConfig(surt_exclusions=("com,example,hot)/",)),  # SURT prefix (M5)
    ]
    counts = []
    for cfg in variants:
        oracle_n = len(oracle_extract_all(pages_rows, cfg))
        stage_n = extract_batch(pages_table, cfg).num_rows
        assert oracle_n == stage_n, f"filter divergence for {cfg}"
        counts.append(oracle_n)
    # sanity: the variants do change the outcome in the expected direction
    assert counts[1] < counts[0]  # https-only drops rows
    assert counts[2] <= counts[0]
    assert counts[3] >= counts[0]  # allowing all statuses adds rows
    assert counts[5] <= counts[0]
    assert counts[6] < counts[0]  # hot host excluded


def test_revisit_short_circuit(pages_rows):
    cfg = IndexConfig()
    docs = oracle_extract_all(pages_rows, cfg)
    revisits = [d for d in docs if d["record_type"] == "revisit"]
    assert revisits, "fixture must contain revisit records"
    for d in revisits:
        assert d["spans"] == []
        assert d["content_length"] is None
        assert d["hash"] is not None  # digest carried from header
        assert d["content_type"] == (d["content_type_served"] or "").split(";")[0] or d["content_type"] is None


def test_span_schema_roundtrip(pages_table):
    """spans survive Arrow list<struct> round-trip unchanged (zero-copy path)."""
    cfg = IndexConfig()
    t = extract_batch(pages_table, cfg)
    assert t.schema.field("spans").type == DOCUMENTS_SCHEMA.field("spans").type
    back = pa.Table.from_pylist(t.to_pylist(), schema=DOCUMENTS_SCHEMA)
    assert back["spans"].to_pylist() == t["spans"].to_pylist()


def test_fixture_exercises_edge_paths(pages_rows):
    """The synthetic corpus really contains the edge cases FIXTURES.md lists."""
    types = {r["record_type"] for r in pages_rows}
    assert {"response", "revisit", "request", "metadata"} <= types
    assert any(r["url"].startswith("<") for r in pages_rows)
    assert any(len(r["url"]) > 2000 for r in pages_rows)
    assert any(r["url"].startswith("ftp://") for r in pages_rows)
    assert any(len(r["timestamp14"]) in (12, 16, 17) for r in pages_rows)
    cfg = IndexConfig()
    docs = oracle_extract_all(pages_rows, cfg)
    assert any(d["hash_mismatch"] for d in docs)
    assert any(d["spans"] and d["spans"][0]["kind"] == "media" for d in docs)
    assert any(d["content_type_norm"] == "html" and d["links"] for d in docs)


def test_revisit_path_applies_field_policy(pages_rows):
    """Regression: the revisit short-circuit must run the same field
    policy as the oracle's ``_finish`` — hostile served types (trailing
    space, embedded newline) and control-char / over-long URLs must
    come out identical on both sides (M13 × SolrRecord.java:135-188)."""
    from webarchive_discovery_ray.oracle.extract_oracle import (
        oracle_extract_record,
    )
    from webarchive_discovery_ray.stages.extract import extract_record

    base = next(r for r in pages_rows if r["record_type"] == "revisit")
    cfg = IndexConfig()
    hostile = [
        {"mime_served": "text/html ; charset=utf-8"},
        {"mime_served": "text/html;\ncharset=x"},
        {"url": base["url"] + "\x07ctl"},
        {"url": base["url"] + "x" * 3000},
    ]
    for mut in hostile:
        rec = dict(base, **mut)
        got = extract_record(rec, cfg)
        exp = oracle_extract_record(rec, cfg)
        assert got == exp, f"revisit parity broke for {mut.keys()}"


def _memo_page(i, url, payload=b"", **kw):
    row = {
        "url": url, "timestamp14": "20200101000000", "record_type": "response",
        "status": 200, "mime_served": "text/html", "location": "",
        "content_encoding": "", "transfer_encoding": "", "payload": payload,
        "payload_sha1": "", "source_file": "memo.warc.gz", "source_offset": i,
    }
    row.update(kw)
    return row


def test_batch_memo_matches_oracle_on_shared_values():
    """One batch whose records share hosts, links and served types: the
    stage's per-batch memo must give the oracle's row for every record,
    including a malformed record host (still SURTed), a malformed link
    host (skipped), an empty payload beside a non-empty one of the same
    served type, a revisit, and both ``normalise_links`` settings, run
    back to back."""
    from webarchive_discovery_ray.functions.mime import reconcile_content_type
    from webarchive_discovery_ray.functions.suffix import MALFORMED_HOST
    from webarchive_discovery_ray.oracle.extract_oracle import oracle_extract_record
    from webarchive_discovery_ray.stages.extract import BatchMemo

    page = (
        b'<title>t</title><p>x</p><a href="/b">b</a><a href="http://WWW.example.com/b/">b</a>'
        b'<a href="http://bad_host/x">bad</a><a href="https://news.other.co.uk/p?q=1">o</a>'
        b'<img src="/i.png"><img srcset="/i.png 1x, http://www.example.com/j.png 2x">'
    )
    rows = [
        _memo_page(0, "http://www.example.com/a", page),
        _memo_page(1, "http://example.com/b", page + b'<a href="../a">a</a>', location="../c"),
        _memo_page(2, "http://bad_host/page", b'<a href="/x">x</a><a href="http://example.com/b">b</a>'),
        _memo_page(3, "http://example.com/empty"),
        _memo_page(4, "http://example.com/c", b"<p>c</p>"),
        _memo_page(5, "http://www.example.com/a", record_type="revisit", payload_sha1="sha1:ABC"),
        _memo_page(6, "https://news.other.co.uk/p?q=1", b"plain", mime_served="text/plain"),
        _memo_page(7, "http://example.com/d", b"", mime_served="text/plain"),
    ]
    table = pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)
    for cfg in (IndexConfig(normalise_links=False), IndexConfig()):
        got = extract_batch(table, cfg).to_pylist()
        exp = [d for d in (oracle_extract_record(r, cfg) for r in rows) if d is not None]
        assert got == pa.Table.from_pylist(exp, schema=DOCUMENTS_SCHEMA).to_pylist()
        by_offset = {d["source_offset"]: d for d in got}
        assert by_offset[2]["host"] == MALFORMED_HOST and by_offset[2]["host_surt"]
        assert "http://bad_host/x" in by_offset[0]["links"]
        assert MALFORMED_HOST not in by_offset[0]["links_hosts"]
        assert by_offset[3]["content_type"] == "application/x-empty"
        assert by_offset[4]["content_type"] == "text/html"
        assert by_offset[5]["record_type"] == "revisit"
        assert ("http://www.example.com/b" in by_offset[0]["links"]) != cfg.normalise_links
    # the sniffer already names every empty payload application/x-empty,
    # so only a direct call reaches the memo with one type for both
    memo = BatchMemo()
    for length in (5, 0, 7):
        assert memo.content_type("text/html", "text/html", length) == reconcile_content_type(
            "text/html", served="text/html", warc_mimetype="text/html", content_length=length
        )


# --- HTMLAnalyserTest.java link-extraction pins (real reference fixtures) ----

def _extract_fixture_html(name: str, cfg=None, url="http://example.org/"):
    import pyarrow as pa

    from webarchive_discovery_ray.config import IndexConfig
    from webarchive_discovery_ray.schema import PAGES_SCHEMA
    from webarchive_discovery_ray.stages.extract import extract_batch

    path = f"/root/reference/warc-indexer/src/test/resources/{name}"
    with open(path, "rb") as fh:
        html = fh.read()
    row = {
        "url": url, "timestamp14": "20200101000000", "record_type": "response",
        "status": 200, "mime_served": "text/html", "location": "",
        "content_encoding": "", "transfer_encoding": "", "payload": html,
        "payload_sha1": "", "source_file": "t.warc.gz", "source_offset": 0,
    }
    tbl = pa.Table.from_pylist([row], schema=PAGES_SCHEMA)
    return extract_batch(tbl, cfg or IndexConfig()).to_pylist()[0]


needs_links_fixture = pytest.mark.skipif(
    not os.path.exists(
        "/root/reference/warc-indexer/src/test/resources/links_extract.html"
    ),
    reason="reference fixture tree absent",
)


@needs_links_fixture
def test_htmlanalyser_links_extraction_pins():
    """HTMLAnalyserTest.java:57-91 over links_extract.html: 6 links (raw
    resolved, www preserved — DEFAULT_LINKS_NORMALISE=false), 1 canonical
    host, domain/suffix, the two SURT levels, and 12 image links
    (src + srcset + HTML4 body background)."""
    from webarchive_discovery_ray.config import IndexConfig

    o = _extract_fixture_html(
        "links_extract.html", IndexConfig(normalise_links=False)
    )
    assert len(o["links"]) == 6
    assert "http://www.example.org/sub1.html" in o["links"]
    assert o["links_hosts"] == ["example.org"]
    assert o["links_domains"] == ["example.org"]
    assert o["links_public_suffixes"] == ["org"]
    assert o["links_hosts_surts"] == ["(org,", "(org,example,"]
    assert len(o["links_images"]) == 12


@needs_links_fixture
def test_htmlanalyser_illegal_host_pins():
    """HTMLAnalyserTest.java:94-127 over links_extract_illegals.html:
    malformed hosts (non-ASCII, '&'-polluted) are skipped ENTIRELY from
    links_hosts/links_domains (LinkExtractor HOST_PATTERN + the Apache-URI
    non-ASCII mangling the reference documents)."""
    from webarchive_discovery_ray.config import IndexConfig

    o = _extract_fixture_html(
        "links_extract_illegals.html", IndexConfig(normalise_links=False)
    )
    assert len(o["links"]) == 6
    assert o["links_hosts"] == ["example.org", "valid.example.com"]
    assert o["links_domains"] == ["example.com", "example.org"]


@needs_links_fixture
def test_links_canonicalised_mode_collapses_www():
    """With normalise_links=True (this repo's default) the www variant
    collapses into the canonical URL — 5 distinct links."""
    o = _extract_fixture_html("links_extract.html")
    assert len(o["links"]) == 5
    assert all("www." not in u for u in o["links"])
