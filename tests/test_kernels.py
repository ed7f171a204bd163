"""Golden tests for suffix/surt/timestamps/urls/text/hashing/mime kernels.

Value tables ported from the reference unit tests:
``LinkExtractorTest.java``, ``WARCIndexerTest.java:67-105``,
``WARCPayloadAnalysersTest.java:45-58``.
"""

import pytest

from webarchive_discovery_ray.functions.hashing import (
    md5_b64,
    record_id,
    sha1_b32,
    stable_hash64,
)
from webarchive_discovery_ray.functions.mime import (
    detect_mime,
    normalise_content_type,
    reconcile_content_type,
)
from webarchive_discovery_ray.functions.suffix import (
    MALFORMED_HOST,
    all_levels,
    extract_host,
    extract_private_suffix_from_host,
    extract_public_suffix_from_host,
)
from webarchive_discovery_ray.functions.surt import host_to_surt, surt_key
from webarchive_discovery_ray.functions.text import (
    dms_to_decimal,
    fuzzy_canonicalise,
    space_trim,
    token_count,
)
from webarchive_discovery_ray.functions.timestamps import (
    extract_year,
    parse_crawl_date,
)
from webarchive_discovery_ray.functions.urls import (
    parse_extension,
    parse_resource_name,
    url_path,
    url_type,
)

# --- suffix (LinkExtractorTest.java) ---------------------------------------

PRIVATE_SUFFIX = [
    ("news.bbc.co.uk", "bbc.co.uk"),
    ("bbc.co.uk", "bbc.co.uk"),
    ("place.nhs.uk", "place.nhs.uk"),
    ("nhs.uk", "nhs.uk"),
    ("parliament.uk", "parliament.uk"),
    ("fourth.whatever.example.com", "example.com"),
    ("fourth.whatever.googleapis.com", "whatever.googleapis.com"),
    ("fourth.whatever.cloudfront.net", "whatever.cloudfront.net"),
    ("fourth.whatever.blogspot.dk", "whatever.blogspot.dk"),
]


@pytest.mark.parametrize("host,expected", PRIVATE_SUFFIX)
def test_extract_private_suffix(host, expected):
    assert extract_private_suffix_from_host(host) == expected


PUBLIC_SUFFIX = [
    ("news.bbc.co.uk", "co.uk"),
    ("www.google.com", "com"),
    ("www.google.co.uk", "co.uk"),
    ("www.nationalarchives.gov.uk", "gov.uk"),
    ("www.bl.uk", "bl.uk"),  # .uk override: always 2 levels
]


@pytest.mark.parametrize("host,expected", PUBLIC_SUFFIX)
def test_extract_public_suffix(host, expected):
    assert extract_public_suffix_from_host(host) == expected


EXTRACT_HOST = [
    ("http://foo.example.com/", "foo.example.com"),
    ("http://87.com/", "87.com"),
    ("http://a.com/", "a.com"),
    ("http://b-a", "b-a"),
    ("http://-a", MALFORMED_HOST),
    ("http://" + "a" * 64 + ".com", MALFORMED_HOST),  # 64-char label
    ("http://foo.example.com&foo=bar", MALFORMED_HOST),
]


@pytest.mark.parametrize("url,expected", EXTRACT_HOST)
def test_extract_host(url, expected):
    assert extract_host(url) == expected


def test_all_levels():
    assert all_levels("news.bbc.co.uk") == ["uk", "co.uk", "bbc.co.uk", "news.bbc.co.uk"]
    assert all_levels("example.com") == ["com", "example.com"]
    assert all_levels("192.168.0.1") == []  # IP hosts yield no levels
    assert all_levels(None) == []


# --- surt -------------------------------------------------------------------


def test_host_to_surt():
    assert host_to_surt("bbc.co.uk") == "(uk,co,bbc,"
    assert host_to_surt("example.com") == "(com,example,"
    assert host_to_surt("192.168.0.1") == "(192.168.0.1)"


def test_surt_key():
    assert surt_key("https://www.BBC.co.uk/News/") == "uk,co,bbc)/news"
    assert surt_key("http://example.com") == "com,example)/"
    # canonicalisation folds https/www/trailing-slash variants to one key
    assert surt_key("http://example.com/a") == surt_key("https://www.example.com/a/")


# --- timestamps (WARCIndexerTest.java:67-83) --------------------------------


def test_parse_crawl_date():
    assert parse_crawl_date("200009200005") == "2000-09-20T00:05:00Z"
    assert parse_crawl_date("20000920000545") == "2000-09-20T00:05:45Z"
    assert parse_crawl_date("2000092000054543") == "2000-09-20T00:05:45Z"
    assert parse_crawl_date("20000920000545439") == "2000-09-20T00:05:45Z"
    assert parse_crawl_date("bogus") is None


def test_extract_year():
    assert extract_year("2000092000054543") == "2000"
    assert extract_year("0000") == "unknown"
    assert extract_year("20") == "unknown"


# --- urls (WARCIndexerTest.java:100-105) ------------------------------------


def test_parse_extension():
    assert parse_extension("http://host/image.png") == "png"
    assert parse_extension("http://host/this/that/image.parseExtension.png") == "png"
    assert parse_extension("noext") is None
    assert parse_extension(None) is None


def test_parse_resource_name():
    assert parse_resource_name("http://host/a/b.html?q=1") == "b.html"
    assert parse_resource_name("http://host/a/b.html&x=1") == "b.html"
    assert parse_resource_name("no-slash") is None


def test_url_type():
    assert url_type(url_path("http://example.com/")) == "slashpage"
    assert url_type(url_path("http://example.com")) == "slashpage"
    assert url_type(url_path("http://example.com/index.html")) == "slashpage"
    assert url_type(url_path("http://example.com/robots.txt")) == "robots.txt"
    assert url_type(url_path("http://example.com/page.html")) == "normal"


# --- text -------------------------------------------------------------------


def test_space_trim():
    assert space_trim("  hello   world  ") == "hello world"
    assert space_trim("a \n b") == "a\nb"  # newline wins over space in a run
    assert space_trim("\t\n  x") == "x"
    assert space_trim("") == ""


def test_fuzzy_canonicalise():
    assert fuzzy_canonicalise("  Foo\n\tBAR  baz ") == "foo bar baz"


def test_token_count():
    assert token_count("a b  c") == 3
    assert token_count("   ") == 0
    assert token_count("") == 0


def test_dms_to_decimal():
    assert dms_to_decimal('55° 37\' 38.61"') == pytest.approx(55.62739166666667)
    assert dms_to_decimal('-55° 37\' 38,61"') == pytest.approx(-55.62739166666667)


# --- hashing ----------------------------------------------------------------


def test_record_id():
    # base64(md5("http://example.com/")) — standard padded base64
    rid = record_id("20000920000545", "http://example.com/")
    assert rid.startswith("20000920000545/")
    assert rid.split("/", 1)[1] == md5_b64("http://example.com/")
    assert md5_b64("http://example.com/").endswith("==") or len(md5_b64("x")) == 24


def test_sha1_b32_matches_normalisation_golden():
    # same digest bytes as the NormalisationTest base16->base32 golden
    import hashlib

    payload = b"anything"
    b32 = sha1_b32(payload)
    assert b32.startswith("sha1:") and len(b32) == 37


def test_stable_hash_deterministic():
    assert stable_hash64("x") == stable_hash64("x")
    assert stable_hash64("x", seed=1) != stable_hash64("x", seed=2)


# --- mime -------------------------------------------------------------------


def test_detect_mime():
    assert detect_mime(b"\x89PNG\r\n\x1a\nrest") == "image/png"
    assert detect_mime(b"%PDF-1.4") == "application/pdf"
    assert detect_mime(b"<!DOCTYPE html><html>") == "text/html"
    assert detect_mime(b"plain words here", "f.txt") == "text/plain"
    assert detect_mime(b"plain words here", "f.css") == "text/css"
    assert detect_mime(b"") == "application/x-empty"
    assert detect_mime(bytes(range(256))) == "application/octet-stream"


def test_reconcile_octet_stream_falls_back_to_served():
    # WARCPayloadAnalysersTest.java:45-58
    r = reconcile_content_type(
        "application/octet-stream", served="image/png; charset=x", content_length=100
    )
    assert r.content_type_full == "image/png; charset=x"
    assert r.content_type == "image/png"
    assert r.content_type_norm == "image"
    assert r.solr_type == "Image"


def test_reconcile_empty_payload():
    r = reconcile_content_type("text/html", content_length=0, revisit=False)
    assert r.content_type == "application/x-empty"
    r2 = reconcile_content_type("text/html", content_length=0, revisit=True)
    assert r2.content_type == "text/html"


def test_reconcile_strip_text():
    assert reconcile_content_type("text/css", content_length=10).strip_text
    assert not reconcile_content_type("text/html", content_length=10).strip_text


NORM_TYPES = [
    ("image/png", "image", "Image"),
    ("audio/mpeg", "audio", "Audio"),
    ("video/mp4", "video", "Video"),
    ("application/mp4", "video", "Video"),
    ("text/html; charset=utf-8", "html", "Web Page"),
    ("application/xhtml+xml", "html", "Web Page"),
    ("application/pdf", "pdf", "Document"),
    ("application/msword", "word", "Document"),
    ("application/vnd.ms-excel", "excel", "Data"),
    ("application/vnd.ms-powerpoint", "powerpoint", "Presentation"),
    ("text/plain", "text", "Document"),
    ("application/zip", "other", "Other"),
]


@pytest.mark.parametrize("ct,norm,solr", NORM_TYPES)
def test_normalise_content_type(ct, norm, solr):
    assert normalise_content_type(ct) == (norm, solr)


# --- field-adjustment policy (SolrRecord.addField pipeline) ------------------


class TestFieldPolicy:
    """Goldens ported from SolrRecordFactoryTest.java + the FieldAdjuster
    pipeline spec (SolrRecordFactory.java:185-259)."""

    def test_url_max_length(self):
        from webarchive_discovery_ray.functions.fieldpolicy import DEFAULT_POLICY

        # short URL unchanged (SolrRecordFactoryTest: "short")
        assert DEFAULT_POLICY.adjust("url", "short") == "short"
        # huge URL trimmed to the configured 2000 (reference.conf)
        fake = "short" + "O" * 2500
        assert len(DEFAULT_POLICY.adjust("url", fake)) == 2000

    def test_whitespace_collapse(self):
        from webarchive_discovery_ray.functions.fieldpolicy import DEFAULT_POLICY

        assert (
            DEFAULT_POLICY.adjust("content", " leading   middle   and   trailing spaces  ")
            == "leading middle and trailing spaces"
        )

    def test_url_norm_srcset_rewrite(self):
        from webarchive_discovery_ray.functions.fieldpolicy import DEFAULT_POLICY

        base = "http://example.com/foo.png"
        assert DEFAULT_POLICY.adjust("url_norm", base) == base
        assert DEFAULT_POLICY.adjust("url_norm", base + "%201080w") == base
        # rewrite only applies to url_norm, not url
        assert DEFAULT_POLICY.adjust("url", base + "%201080w") == base + "%201080w"

    def test_control_chars_and_utf8(self):
        from webarchive_discovery_ray.functions.fieldpolicy import DEFAULT_POLICY

        assert DEFAULT_POLICY.adjust("title", "a\x00b\x1fc\x7fd") == "abcd"
        # unpaired surrogate -> replaced, not crashed
        assert DEFAULT_POLICY.adjust("title", "ok\ud800end") == "ok?end"

    def test_empty_drops_field(self):
        from webarchive_discovery_ray.functions.fieldpolicy import DEFAULT_POLICY

        assert DEFAULT_POLICY.adjust("title", "   ") is None
        assert DEFAULT_POLICY.adjust("title", None) is None
        assert DEFAULT_POLICY.adjust("title", "\x01\x02") is None

    def test_max_values_and_zero_rules(self):
        from webarchive_discovery_ray.functions.fieldpolicy import (
            FieldPolicy,
            FieldRule,
        )

        pol = FieldPolicy(fields={
            "tags": FieldRule(max_values=2),
            "off": FieldRule(max_values=0),
            "len0": FieldRule(max_length=0),
        })
        # first k kept, duplicates rejected when capped
        assert pol.adjust_many("tags", ["a", "b", "a", "c"]) == ["a", "b"]
        assert pol.adjust_many("tags", ["x", "x", "y"]) == ["x", "y"]
        # unlimited fields keep duplicates (isAllowedtoAdd only checks capped)
        assert pol.adjust_many("links", ["u", "u"]) == ["u", "u"]
        assert pol.adjust("off", "anything") is None
        assert pol.adjust("len0", "anything") is None

    def test_pipeline_order_maxlength_after_collapse(self):
        from webarchive_discovery_ray.functions.fieldpolicy import (
            FieldPolicy,
            FieldRule,
        )

        pol = FieldPolicy(fields={"f": FieldRule(max_length=5)})
        # collapse first ("a b c d"), then truncate -> "a b c"[:5]
        assert pol.adjust("f", "a   b   c   d") == "a b c"

    def test_extraction_applies_policy(self):
        from webarchive_discovery_ray.config import IndexConfig, SyntheticConfig
        from webarchive_discovery_ray.functions.hashing import sha1_b32
        from webarchive_discovery_ray.oracle.extract_oracle import oracle_extract_record
        from webarchive_discovery_ray.sources.synthetic import fixture_pages
        from webarchive_discovery_ray.stages.extract import extract_record

        base = next(
            r
            for r in fixture_pages(200, SyntheticConfig())
            if r["record_type"] == "response" and r["status"] == 200
        )
        payload = (
            b"<html><head><title>Sp\x01aced    title \x02here</title></head>"
            b"<body><p>text</p></body></html>"
        )
        rec = dict(base, payload=payload, payload_sha1=sha1_b32(payload),
                   mime_served="text/html", transfer_encoding="", content_encoding="")
        d1 = extract_record(rec, IndexConfig())
        d2 = oracle_extract_record(rec, IndexConfig())
        assert d1["title"] == d2["title"] == "Spaced title here"
        off = IndexConfig(apply_field_policy=False)
        d3 = extract_record(rec, off)
        assert d3["title"] == "Sp\x01aced title \x02here"

    def test_derived_fields_policy_identity(self):
        """The skip set is sound: applying the policy to every
        DERIVED_IDENTITY_FIELDS value across the fixture corpus is the
        identity (so skipping them changes nothing)."""
        from webarchive_discovery_ray.config import IndexConfig, SyntheticConfig
        from webarchive_discovery_ray.functions.fieldpolicy import (
            DEFAULT_POLICY,
            DERIVED_IDENTITY_FIELDS,
        )
        from webarchive_discovery_ray.sources.synthetic import fixture_pages
        from webarchive_discovery_ray.stages.extract import extract_record

        cfg = IndexConfig(response_include=())
        checked = 0
        for r in fixture_pages(400, SyntheticConfig()):
            d = extract_record(r, cfg)
            if d is None:
                continue
            for k in DERIVED_IDENTITY_FIELDS:
                v = d.get(k)
                # contract of the skip path: '' -> None, all else identity
                if isinstance(v, str):
                    assert DEFAULT_POLICY.adjust(k, v) == (v or None), (k, v)
                    checked += 1
                elif isinstance(v, list):
                    assert DEFAULT_POLICY.adjust_many(k, v) == v, (k, v)
                    checked += 1
        assert checked > 1000


def test_bucket_of_colocates_and_spreads():
    import numpy as np
    import pandas as pd

    from webarchive_discovery_ray.functions.bucketing import bucket_of

    # determinism + co-location: same key -> same bucket, across calls
    s = pd.Series(["a", "b", "a", "c"] * 10)
    b1, b2 = bucket_of(s, 16), bucket_of(s, 16)
    assert b1.tolist() == b2.tolist()
    assert len(set(b1[s == "a"])) == 1
    # int keys: consecutive ids don't stripe into one bucket
    ids = pd.Series(np.arange(10_000, dtype=np.int64))
    bi = bucket_of(ids, 32)
    counts = bi.value_counts()
    assert len(counts) == 32
    assert counts.max() < 3 * counts.min()  # roughly uniform
    # string keys spread too
    ss = pd.Series([f"host{i}.example" for i in range(10_000)])
    bs = bucket_of(ss, 32)
    assert bs.value_counts().max() < 3 * bs.value_counts().min()
    assert bs.dtype == np.int32 and bi.dtype == np.int32



def test_keyed_fold_matches_pandas_groupby(ray_session):
    """keyed_fold co-locates every key: on random keys its in-bucket sum
    equals one global pandas groupby, for a tuple key on pandas partials,
    a column key on Arrow partials, and a two-input keyed join."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray
    import ray.data as rd

    from webarchive_discovery_ray.functions import bucketing
    from webarchive_discovery_ray.functions.bucketing import keyed_fold, sum_in_bucket

    rng = np.random.default_rng(7)
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 300, 4000),
            "s": rng.choice(list("abcdef"), 4000),
            "v": rng.integers(0, 100, 4000),
        }
    )
    ds = rd.from_pandas(df).repartition(6)

    def norm(frame, keys):
        return frame.sort_values(keys, ignore_index=True)[sorted(frame.columns)]

    want = df.groupby(["k", "s"])["v"].sum().reset_index()
    got = keyed_fold(ds, sum_in_bucket(["k", "s"], "v"), ("k", "s")).to_pandas()
    pd.testing.assert_frame_equal(norm(got, ["k", "s"]), norm(want, ["k", "s"]))

    def arrow_partial(batch: pa.Table) -> pa.Table:
        g = batch.to_pandas().groupby("s", sort=False)["v"].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    want_s = df.groupby("s")["v"].sum().reset_index()
    got_s = keyed_fold(
        ds, sum_in_bucket("s", "v"), "s", rows=arrow_partial, batch_format="pyarrow"
    ).to_pandas()
    pd.testing.assert_frame_equal(norm(got_s, ["s"]), norm(want_s, ["s"]))

    # a materialized input is partialled and tagged inside the fold task,
    # which counts the same bytes as the map_batches it replaces
    m = ds.materialize()
    got_m = keyed_fold(
        m, sum_in_bucket("s", "v"), "s", rows=arrow_partial, batch_format="pyarrow"
    ).to_pandas()
    pd.testing.assert_frame_equal(norm(got_m, ["s"]), norm(want_s, ["s"]))
    tag = (arrow_partial, "s", bucketing.default_buckets(), "pyarrow")
    want_bytes = bucketing._bucketed(m, tag).materialize().size_bytes()
    gen = bucketing._fold_task.remote(
        sum_in_bucket("s", "v"), want_bytes + 1, [(bucketing._block_refs(m), tag, None)]
    )
    assert ray.get(next(gen)) == ("one_task", want_bytes)

    # keyed join: each k's label meets all of its rows in one fold call,
    # one frame per input with that input's own columns
    labels = pd.DataFrame({"k": np.arange(300), "label": np.arange(300) % 7})

    def join(rows: pd.DataFrame, lab: pd.DataFrame) -> pd.DataFrame:
        assert "label" not in rows and "v" not in lab
        rows = rows[["k", "v"]]
        return rows.merge(lab[["k", "label"]], on="k").groupby("label")["v"].sum().reset_index()

    joined = keyed_fold(
        (ds, rd.from_pandas(labels)), join, "k", rows=(lambda f: f[["k", "v"]], None),
    ).to_pandas()
    got_j = joined.groupby("label")["v"].sum().sort_index()
    want_j = df.merge(labels, on="k").groupby("label")["v"].sum().sort_index()
    assert got_j.tolist() == want_j.tolist()


def test_keyed_fold_size_rule_repeats(ray_session):
    """The size rule measures the same tagged rows to the same byte every
    time, in the fold task and through map_batches: tagged rows are
    Arrow tables, whose bytes are exact. (A pandas block with a text
    column sizes itself from a random sample of 200 rows, so the same
    rows measured differently from run to run.)"""
    import numpy as np
    import pandas as pd
    import ray
    import ray.data as rd

    from webarchive_discovery_ray.functions import bucketing

    rng = np.random.default_rng(11)
    texts = ["x" * int(n) for n in rng.integers(1, 2000, 1500)]
    m = rd.from_pandas(pd.DataFrame({"k": np.arange(1500), "t": texts})).materialize()
    spec = (lambda f: f.copy(), "k", bucketing.default_buckets(), "pandas")

    def in_task() -> int:
        gen = bucketing._fold_task.remote(len, 1 << 40, [(bucketing._block_refs(m), spec, None)])
        return ray.get(next(gen))[1]

    lazy = [bucketing._bucketed(m, spec).materialize().size_bytes() for _ in range(3)]
    task = [in_task() for _ in range(3)]
    assert len(set(lazy)) == 1 and len(set(task)) == 1, (lazy, task)
    assert sum(map(len, texts)) < task[0] < sum(map(len, texts)) + 1500 * 24


def test_keyed_fold_empty_upstream_returns_declared_schema(ray_session):
    """An empty upstream hands the fold a ZERO-COLUMN block; keyed_fold
    answers with the declared schema instead of calling the fold (which
    would raise KeyError on the missing key column)."""
    import pandas as pd
    import ray.data as rd

    from webarchive_discovery_ray.functions.bucketing import keyed_fold, sum_in_bucket

    empty = rd.from_pandas(pd.DataFrame({"k": [1, 2], "v": [3, 4]})).filter(
        expr="k > 10"
    )
    schema = {"k": "int64", "v": "int64"}

    def partial(frame: pd.DataFrame) -> pd.DataFrame:
        return frame[["k", "v"]]  # KeyError on a zero-column block

    # lazy, materialized (tagged in the fold task) and a zero-row source
    for ds in (empty, empty.materialize(), rd.from_pandas(pd.DataFrame())):
        out = keyed_fold(ds, sum_in_bucket("k", "v"), "k", rows=partial, empty=schema)
        out = out.to_pandas()
        assert len(out) == 0
        if len(out.columns):  # a fully-empty result may surface with no blocks
            assert {c: str(t) for c, t in out.dtypes.items()} == schema
    # empty blocks among full ones: the partial never sees them
    mixed = rd.from_pandas(
        [pd.DataFrame(), pd.DataFrame({"k": [1, 1, 2], "v": [3, 4, 5]}), pd.DataFrame()]
    )
    out = keyed_fold(mixed, sum_in_bucket("k", "v"), "k", rows=partial, empty=schema)
    assert sorted(zip(*out.to_pandas()[["k", "v"]].to_numpy().T)) == [(1, 7), (2, 5)]

# --- HTML tokenizer (functions/htmlscan.tokenize_html) ------------------------


@pytest.mark.parametrize(
    "html, tokens",
    [
        ("", []),
        ("text only", [("text", "", {}, "text only", 0)]),
        # '<' not followed by a letter or '/'+letter is text, merged with
        # the text around it
        ("I <3 you", [("text", "", {}, "I <3 you", 0)]),
        ("a < b and x<y", [("text", "", {}, "a < b and x<y", 0)]),
        ("end <", [("text", "", {}, "end <", 0)]),
        ("</ div>", [("text", "", {}, "</ div>", 0)]),
        (
            "a < b<p>c",
            [("text", "", {}, "a < b", 0), ("start", "p", {}, "", 5), ("text", "", {}, "c", 8)],
        ),
        (
            "<p>x</p>",
            [("start", "p", {}, "", 0), ("text", "", {}, "x", 3), ("end", "p", {}, "", 4)],
        ),
        # comments and doctypes are skipped; an unterminated comment skips
        # only its '<!--', an unterminated '<!' only its two characters
        ("a<!-- c -->b", [("text", "", {}, "a", 0), ("text", "", {}, "b", 11)]),
        ("a<!-- <p> -->", [("text", "", {}, "a", 0)]),
        ("a<!-- open", [("text", "", {}, "a", 0), ("text", "", {}, " open", 5)]),
        ("<!DOCTYPE html><html>", [("start", "html", {}, "", 15)]),
        ("a<!x>b", [("text", "", {}, "a", 0), ("text", "", {}, "b", 5)]),
        ("a<!x", [("text", "", {}, "a", 0), ("text", "", {}, "x", 3)]),
        # script/style content is raw text up to the close tag (any case,
        # whitespace before '>'), and never becomes tokens
        (
            "<script>if (a<b) x='</p>';</script>t",
            [("start", "script", {}, "", 0), ("end", "script", {}, "", 26), ("text", "", {}, "t", 35)],
        ),
        (
            "<SCRIPT type=x>a</Script >b",
            [
                ("start", "script", {"type": "x"}, "", 0),
                ("end", "script", {}, "", 16),
                ("text", "", {}, "b", 26),
            ],
        ),
        (
            "<style>p{}</style>z",
            [("start", "style", {}, "", 0), ("end", "style", {}, "", 10), ("text", "", {}, "z", 18)],
        ),
        # a self-closing script has no raw text; an unterminated one
        # swallows the rest of the document
        (
            '<script src="x.js"/>after',
            [("start", "script", {"src": "x.js"}, "", 0), ("text", "", {}, "after", 20)],
        ),
        ("t<script>never closed <p>", [("text", "", {}, "t", 0), ("start", "script", {}, "", 1)]),
        # attribute names lowercase, first occurrence wins; values double-
        # or single-quoted or bare; a name without a value maps to ''
        (
            "<a href=\"one\" HREF=two rel='lic' bare>x</a>",
            [
                ("start", "a", {"href": "one", "rel": "lic", "bare": ""}, "", 0),
                ("text", "", {}, "x", 38),
                ("end", "a", {}, "", 39),
            ],
        ),
        (
            '<IMG Src=a.png alt = "q > r" data-x>',
            [("start", "img", {"src": "a.png", "alt": "q > r", "data-x": ""}, "", 0)],
        ),
        ("<p class=>", [("start", "p", {"class": ""}, "", 0)]),
        ("<br/>", [("start", "br", {}, "", 0)]),
        (
            "<b>1</B>\n<i>2",
            [
                ("start", "b", {}, "", 0),
                ("text", "", {}, "1", 3),
                ("end", "b", {}, "", 4),
                ("text", "", {}, "\n", 8),
                ("start", "i", {}, "", 9),
                ("text", "", {}, "2", 12),
            ],
        ),
    ],
)
def test_tokenize_html_pinned_rules(html, tokens):
    from webarchive_discovery_ray.functions.htmlscan import tokenize_html

    assert [tuple(t) for t in tokenize_html(html)] == tokens


# --- anchor-text assembly (functions/htmlscan.anchor_texts) -------------------


def test_anchor_texts_pinned_rules():
    from webarchive_discovery_ray.functions.htmlscan import anchor_texts

    # whitespace collapse + strip; markup inside contributes its text
    assert anchor_texts('<a href="/x">hi \t\n there</a>') == [("/x", "hi there")]
    assert anchor_texts('<a href="/y">b<b>old</b>!</a>') == [("/y", "bold!")]
    # empty href -> no anchor; empty text -> ''
    assert anchor_texts('<a href=>skip</a><a href="/e"></a>') == [("/e", "")]
    # a new start-a closes the open anchor (no nesting)
    assert anchor_texts('<a href="/1">one<a href="/2">two</a>') == [
        ("/1", "one"),
        ("/2", "two"),
    ]
    # unclosed at document end emits
    assert anchor_texts('<a href="/t">tail text') == [("/t", "tail text")]
    # script/comment content never leaks into anchor text
    assert anchor_texts(
        '<a href="/s">a<script>var x = "</a>";</script>b</a>'
    ) == [("/s", "ab")]
    assert anchor_texts("no anchors here") == []


def test_anchor_pairs_consistent_with_extraction_links(ray_session):
    """Every resolved anchor target of a 200 html page appears in the
    extraction chain's links for that page (anchors are a subset of the
    link rule: same resolve + canonicalise)."""
    from webarchive_discovery_ray.config import IndexConfig, SyntheticConfig
    from webarchive_discovery_ray.oracle.extract_oracle import (
        oracle_extract_record,
    )
    from webarchive_discovery_ray.pipelines.stats import anchor_pairs_ds
    from webarchive_discovery_ray.sources.synthetic import fixture_pages

    scfg = SyntheticConfig()
    pages = {
        r["url"]: r for r in fixture_pages(200, scfg)
    }
    got = anchor_pairs_ds(200, scfg).to_pandas()
    assert len(got), "pairs base must be non-empty"
    icfg = IndexConfig(response_include=())
    links_by_url: dict[str, set] = {}
    for u, rec in pages.items():
        doc = oracle_extract_record(rec, icfg)
        if doc:
            links_by_url[u] = set(doc["links"])
    all_links = set().union(*links_by_url.values())
    hits = got["target"].isin(all_links)
    # every anchor target the link rule also keeps is in some page's links
    assert hits.mean() > 0.9, f"only {hits.mean():.0%} targets in links"


def test_levenshtein_bytes_exact():
    """Byte-level Levenshtein kernel vs a brute-force DP reference and
    DuckDB's native (byte-based) levenshtein, including the multi-byte
    UTF-8 case and the power-of-two-denominator ppm tie class that
    motivated integer sim_ppm over a rounded float."""
    import random

    import duckdb

    from webarchive_discovery_ray.functions.fuzzy import levenshtein_bytes

    def ref(a: bytes, b: bytes) -> int:
        dp = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            ndp = [i] + [0] * len(b)
            for j, cb in enumerate(b, 1):
                ndp[j] = min(dp[j] + 1, ndp[j - 1] + 1, dp[j - 1] + (ca != cb))
            dp = ndp
        return dp[len(b)]

    rng = random.Random(7)
    for _ in range(200):
        a = bytes(rng.choices(b"abcde\xc3\xa9 ", k=rng.randrange(0, 24)))
        b = bytes(rng.choices(b"abcde\xc3\xa9 ", k=rng.randrange(0, 24)))
        assert levenshtein_bytes(a, b) == ref(a, b), (a, b)
    assert levenshtein_bytes(b"", b"") == 0
    assert levenshtein_bytes(b"", b"abc") == 3
    # DuckDB parity: byte (not codepoint) edits — 2-byte é counts twice
    con = duckdb.connect()
    assert con.sql("select levenshtein('héllo','hallo')").fetchone()[0] == 2
    assert levenshtein_bytes("héllo".encode(), b"hallo") == 2
    # ppm tie class: denom=128, dist=1 -> 1 - 1/128 = 0.9921875 (exact
    # ...5 at 7 dp; numpy banker's and DuckDB half-away would disagree)
    denom, dist = 128, 1
    ppm = ((denom - dist) * 1_000_000) // denom
    assert ppm == 992187  # floor, engine-exact in both


def test_nofollow_scan_rules():
    """Token rules of the nofollow scanner: rel is a whitespace token
    list (case-insensitive), meta robots content is a comma token list,
    relative hrefs resolve with the extraction chain's resolve rule."""
    from webarchive_discovery_ray.state.robots import nofollow_scan

    html = (
        '<html><head><meta name="keywords" content="nofollowish"></head><body>'
        '<a href="http://a.com/keep">k</a>'
        '<a rel="nofollow" href="http://a.com/drop1">d</a>'
        '<a rel="ugc NOFOLLOW sponsored" href="/drop2">d</a>'
        '<a rel="nofollowme" href="http://a.com/keep2">not a token</a>'
        '<a rel="nofollow">no href</a>'
        "</body></html>"
    )
    meta, drop = nofollow_scan(html, "http://base.com/dir/page")
    assert meta is False
    assert drop == {"http://a.com/drop1", "http://base.com/drop2"}
    meta2, _ = nofollow_scan(
        '<meta name="ROBOTS" content="noindex , NoFollow">', "http://b.com/"
    )
    assert meta2 is True
    # content token must be exact after comma-split+strip
    meta3, _ = nofollow_scan(
        '<meta name="robots" content="nofollowish">', "http://b.com/"
    )
    assert meta3 is False
    # name must be robots
    meta4, _ = nofollow_scan(
        '<meta name="googlebot" content="nofollow">', "http://b.com/"
    )
    assert meta4 is False


def test_tpch_synth_numpy_sql_bit_parity():
    """The round-5 synthesized-column rule (functions/tpch_synth.py) must
    be BIT-IDENTICAL between its numpy kernels and its SQL rendering on
    the real fixture — the foundation the Q9/Q12/Q19/Q20/Q21 oracles
    stand on (numpy: uint64 product mod 2^64 then mod 2^32; DuckDB:
    exact HUGEINT product mod 2^32 — equal because 2^32 | 2^64)."""
    import duckdb

    from webarchive_discovery_ray.functions import tpch_synth as T

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.sql(f"CREATE VIEW lineitem AS SELECT * FROM read_parquet('{sf}/lineitem.parquet')")
    con.sql(f"CREATE VIEW part AS SELECT * FROM read_parquet('{sf}/part.parquet')")
    df = con.sql(
        f"SELECT l_orderkey, l_linenumber, l_shipmode, l_shipinstruct,"
        f" l_ship_days, l_commit_days, l_receipt_days"
        f" FROM ({T.sql_lineitem_synth()})"
    ).df()
    ok, ln = df["l_orderkey"].to_numpy(), df["l_linenumber"].to_numpy()
    assert (T.ship_mode(ok, ln) == df["l_shipmode"].to_numpy()).all()
    assert (T.ship_instruct(ok, ln) == df["l_shipinstruct"].to_numpy()).all()
    ship = df["l_ship_days"].to_numpy()
    assert (ship + T.commit_off_days(ok, ln) == df["l_commit_days"].to_numpy()).all()
    assert (ship + T.receipt_off_days(ok, ln) == df["l_receipt_days"].to_numpy()).all()
    ps = con.sql(f"SELECT * FROM ({T.sql_partsupp_synth()})").df()
    pk, sk = ps["ps_partkey"].to_numpy(), ps["ps_suppkey"].to_numpy()
    assert (T.availqty_of(pk, sk) == ps["ps_availqty"].to_numpy()).all()
    assert (
        T.supplycost_cents_of(pk, sk) == ps["ps_supplycost_cents"].to_numpy()
    ).all()
    pt = con.sql(f"SELECT p_partkey, p_container FROM ({T.sql_part_synth()})").df()
    assert (T.container_of(pt["p_partkey"].to_numpy()) == pt["p_container"].to_numpy()).all()
    # domain sanity: every synthesized value set is exercised
    assert set(df["l_shipmode"]) == set(T.SHIP_MODES)
    assert set(df["l_shipinstruct"]) == set(T.SHIP_INSTRUCTS)


def test_keyed_fold_small_input_runs_in_one_worker_task(ray_session):
    """Below TARGET_BLOCK_BYTES the whole pass is one remote task: every
    bucket is folded in the same worker process (never the driver), in
    ascending bucket order, into a one-block materialized result."""
    import os

    import pandas as pd
    import ray.data as rd

    from webarchive_discovery_ray.functions.bucketing import in_one_task, keyed_fold

    def where(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"bucket": df["bucket"].iloc[:1], "pid": [os.getpid()]})

    ds = rd.from_pandas(pd.DataFrame({"k": range(200)})).repartition(4)
    out = keyed_fold(ds, where, "k")
    assert isinstance(out, rd.dataset.MaterializedDataset) and out.num_blocks() == 1
    got = out.to_pandas()
    assert len(got) > 1 and got["pid"].nunique() == 1
    assert os.getpid() not in set(got["pid"])
    assert got["bucket"].is_monotonic_increasing

    def pid_of(frame: pd.DataFrame, extra: int) -> tuple:
        return os.getpid(), len(frame) + extra

    pid, n = in_one_task(pid_of, ds, 1)
    assert pid != os.getpid() and n == 201


def test_keyed_fold_at_the_size_constant_takes_the_exchange(ray_session, monkeypatch):
    """Tagged rows at or above TARGET_BLOCK_BYTES run the groupby/map_groups
    exchange (a lazy Dataset), and a small-state loop is left to its
    distributed rounds. The rule reads the TAGGED rows: a materialized
    input below the constant whose partial grows past it (tagged in the
    fold task) takes the exchange too, with the one-task path's rows."""
    import pandas as pd
    import ray.data as rd

    from webarchive_discovery_ray.functions import bucketing

    ds = rd.from_pandas(pd.DataFrame({"k": range(200), "v": 1}))
    n_b = bucketing.default_buckets()
    fold = bucketing.sum_in_bucket("k", "v")

    def doubled(frame: pd.DataFrame) -> pd.DataFrame:
        return pd.concat([frame, frame], ignore_index=True)

    for rows, want in ((None, [1] * 200), (doubled, [2] * 200)):
        for source in (ds, ds.repartition(3)):  # tagged in the task / by map_batches
            size = bucketing._bucketed(source, (rows, "k", n_b, "pandas")).materialize().size_bytes()
            assert ds.size_bytes() < size
            monkeypatch.setattr(bucketing, "TARGET_BLOCK_BYTES", size)
            out = bucketing.keyed_fold(source, fold, "k", rows=rows)
            assert not isinstance(out, rd.dataset.MaterializedDataset)
            got = out.to_pandas().sort_values("k")
            assert got["k"].tolist() == list(range(200)) and got["v"].tolist() == want
            tagged = bucketing._bucketed(source, (rows, "k", n_b, "pandas"))
            assert bucketing.in_one_task(len, tagged) is None
            monkeypatch.setattr(bucketing, "TARGET_BLOCK_BYTES", size + 1)
            out = bucketing.keyed_fold(source, fold, "k", rows=rows)
            assert isinstance(out, rd.dataset.MaterializedDataset) and out.num_blocks() == 1
            assert out.to_pandas().sort_values("k")["v"].tolist() == want
