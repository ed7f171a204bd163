"""Property-based invariants (hypothesis) for the scalar kernels and the
crawl-plane primitives — complements the golden tables with generated
inputs (SURVEY §5: the reference pins behaviour with example tables; the
from-scratch kernels also hold structural invariants worth fuzzing)."""

import string

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

# --- URL canonicalisation ----------------------------------------------------

from webarchive_discovery_ray.functions.normalisation import canonicalise_url
from webarchive_discovery_ray.functions.surt import surt_key

_url_path = st.text(
    alphabet=string.ascii_letters + string.digits + "/._-%?&=+~",
    max_size=40,
)
_host = st.from_regex(r"[a-z][a-z0-9-]{0,10}(\.[a-z][a-z0-9]{1,6}){1,3}", fullmatch=True)
_urls = st.builds(lambda h, p: f"http://{h}/{p}", _host, _url_path)


@settings(max_examples=200, deadline=None)
@given(_urls)
def test_canonicalise_converges_within_two(url):
    # The REFERENCE is not strictly idempotent: canon.canonicalize
    # lowercases BEFORE escapeUTF8(createUnambiguous) unescapes ASCII
    # escapes (Normalisation.java:137-160), so e.g. '%41' decodes to an
    # uppercase 'A' that only the NEXT pass lowercases. Byte-exact parity
    # means we inherit that; the invariant that does hold is convergence
    # after one extra pass.
    twice = canonicalise_url(canonicalise_url(url))
    assert canonicalise_url(twice) == twice


def test_canonicalise_ascii_escape_matches_reference_order():
    # pinned example of the non-idempotence inherited from the reference:
    # pass 1 lowercases then unescapes %41 -> 'A'; pass 2 lowercases it
    assert canonicalise_url("http://a.example.com/%41") == "http://a.example.com/A"
    assert canonicalise_url("http://a.example.com/A") == "http://a.example.com/a"


@settings(max_examples=200, deadline=None)
@given(_urls)
def test_surt_key_shape(url):
    # URL-key SURT form (functions/surt.py docstring): reversed host,
    # ")/" separator, NO leading paren (that's the host_to_surt form)
    k = surt_key(canonicalise_url(url))
    assert ")/" in k and not k.startswith("(")
    assert surt_key(k) != ""  # total function, never raises


# --- payload decode ----------------------------------------------------------

from webarchive_discovery_ray.functions.payload import (
    chunk_encode,
    maybe_dechunk,
    maybe_decompress,
)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=4096), st.integers(min_value=1, max_value=700))
def test_dechunk_roundtrips_any_payload(data, chunk_size):
    enc = chunk_encode(data, chunk_size)
    assert maybe_dechunk(enc, "chunked") == (data, True)
    # without the chunked hint the framing is never touched
    assert maybe_dechunk(enc, None) == (enc, False)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=4096))
def test_gzip_roundtrips_any_payload(data):
    import gzip

    gz = gzip.compress(data, mtime=0)
    assert maybe_decompress(gz, "gzip") == (data, "gzip")
    assert maybe_decompress(gz, None) == (data, "gzip")  # sniffed
    assert maybe_decompress(gz, "") == (gz, "")  # explicit empty hint wins


@settings(max_examples=60, deadline=None)
@given(st.lists(st.binary(max_size=512), min_size=1, max_size=4))
def test_gzip_multi_member_and_bomb_cap(parts):
    import gzip

    # concatenated members decode to concatenated output (gzip.decompress
    # semantics), and the in-decode cap turns an over-limit stream into a
    # verbatim passthrough instead of an allocation
    gz = b"".join(gzip.compress(p, mtime=0) for p in parts)
    want = b"".join(parts)
    assert maybe_decompress(gz, "gzip") == (want, "gzip")
    assert maybe_decompress(gz, None) == (want, "gzip")
    if want:
        capped = maybe_decompress(gz, "gzip", max_output=len(want) - 1)
        assert capped == (gz, "")


def test_decompression_bomb_passthrough():
    """A 1000000:1 gzip bomb and an over-cap brotli stream both pass
    through unchanged under the cap, with bounded memory DURING decode."""
    import gzip

    bomb = gzip.compress(b"\x00" * (4 << 20), mtime=0)  # ~4 KiB compressed
    out, enc = maybe_decompress(bomb, "gzip", max_output=1 << 20)
    assert (out, enc) == (bomb, "")
    out, enc = maybe_decompress(bomb, None, max_output=1 << 20)
    assert (out, enc) == (bomb, "")
    # brotli: an UNCOMPRESSED-metablock stream over the cap hits the
    # decoder's own max_output gate and passes through
    from tests.test_brotli import BitWriter, _header16

    body = b"x" * 64
    # MNIBBLES=4 -> w(0,2); MLEN-1 in 16 bits; ISUNCOMPRESSED=1
    bw = _header16(BitWriter())
    bw.w(0, 1).w(0, 2).w(len(body) - 1, 16).w(1, 1).align().raw(body)
    bw.w(1, 1).w(1, 1)  # ISLAST + ISLASTEMPTY
    data = bw.bytes()
    full, enc = maybe_decompress(data, "br")
    assert (full, enc) == (body, "br")
    capped, enc = maybe_decompress(data, "br", max_output=32)
    assert (capped, enc) == (data, "")


# --- field policy ------------------------------------------------------------

from webarchive_discovery_ray.functions.fieldpolicy import DEFAULT_POLICY


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_policy_output_clean_and_idempotent(value):
    out = DEFAULT_POLICY.adjust("title", value)
    if out is None:
        return
    assert out != ""
    assert not any(0 <= ord(c) <= 0x1F or ord(c) == 0x7F for c in out)
    assert "  " not in out and out == out.strip()
    out.encode("utf-8")  # must be valid UTF-8
    # default rule (no rewrites) is idempotent
    assert DEFAULT_POLICY.adjust("title", out) == out


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet=string.ascii_letters + " /%.", max_size=120))
def test_policy_url_truncation(suffix):
    value = "http://h.example/" + "Q" * 2300 + suffix
    out = DEFAULT_POLICY.adjust("url", value)
    assert out is not None and len(out) <= 2000


# --- SimHash -----------------------------------------------------------------

from webarchive_discovery_ray.pipelines.dedup import simhash_batch


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]), max_size=30))
def test_simhash_order_independent(tokens):
    import random

    text = " ".join(tokens)
    shuffled = tokens[:]
    random.Random(3).shuffle(shuffled)
    assert simhash_batch([text]) == simhash_batch([" ".join(shuffled)])


# --- crawl-plane primitives --------------------------------------------------

from webarchive_discovery_ray.config import CrawlConfig
from webarchive_discovery_ray.pipelines.crawl import (
    PolicyState,
    _drain_order,
    _partition_by_host,
)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.sampled_from(["a.com", "b.net", "c.org", "d.io"]), min_size=1, max_size=60),
    st.integers(min_value=2, max_value=8),
)
def test_partition_by_host_complete_and_colocated(hosts, n_parts):
    tbl = pa.table(
        {
            "url": [f"http://{h}/{i}" for i, h in enumerate(hosts)],
            "surt": [f"({h})/{i}" for i, h in enumerate(hosts)],
            "host": hosts,
            "priority": pa.array([0] * len(hosts), pa.int32()),
            "hop": pa.array([0] * len(hosts), pa.int32()),
            "seq": pa.array(list(range(len(hosts))), pa.int64()),
        }
    )
    parts = _partition_by_host(tbl, n_parts)
    assert len(parts) == n_parts
    assert sum(p.num_rows for p in parts) == tbl.num_rows  # complete
    host_part = {}
    for i, p in enumerate(parts):
        for h in set(p["host"].to_pylist()):
            assert host_part.setdefault(h, i) == i  # co-located


def _frontier_block(hosts, pris, seqs, surts, paths):
    """A frontier block (FRONTIER_SCHEMA) from per-row columns; ``paths``
    are URL paths on each row's host."""
    from webarchive_discovery_ray.state.checkpoint import FRONTIER_SCHEMA

    return pa.table(
        {
            "url": [f"http://{h}{p}" for h, p in zip(hosts, paths)],
            "surt": surts,
            "host": hosts,
            "priority": pris,
            "hop": [0] * len(hosts),
            "seq": seqs,
        },
        schema=FRONTIER_SCHEMA,
    )


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a.com", "b.net", "c.org"]),
            st.integers(min_value=-1, max_value=3),
        ),
        min_size=1,
        max_size=40,
    ),
    st.integers(min_value=1, max_value=5),
)
def test_drain_budget_and_order(rows, budget):
    hosts = [h for h, _ in rows]
    n = len(rows)
    tbl = _frontier_block(
        hosts,
        [p for _, p in rows],
        list(range(n)),
        # real frontier rows always carry a surt (the drain's final
        # tie-break, only reachable for same-wave injected rows)
        [f"{h})/{i}" for i, h in enumerate(hosts)],
        [f"/{i}" for i in range(n)],
    )
    idx, rank, selected = _drain_order(
        tbl, CrawlConfig(politeness_budget=budget), PolicyState()
    )
    # no robots rules, no quota: nothing drops, and every drained row is
    # a position in the input (the Arrow split's take indices)
    assert sorted(idx.tolist()) == list(range(n))
    for host in set(hosts):
        mine = [(i, r, sel) for i, r, sel in zip(idx, rank, selected, strict=True) if hosts[i] == host]
        # the host's queue in (priority, seq) order, ranked 0, 1, ...;
        # its first ``budget`` rows are selected
        assert [i for i, _, _ in mine] == sorted(
            (i for i in range(n) if hosts[i] == host), key=lambda i: (rows[i][1], i)
        )
        assert [r for _, r, _ in mine] == list(range(len(mine)))
        assert [bool(sel) for _, _, sel in mine] == [j < budget for j in range(len(mine))]


_DRAIN_HOSTS = ["a.com", "b.net", "c.org", "bücher.de"]
_DRAIN_RULES = ["/private/", "allow:/private/ok/", "crawl-delay:2", "crawl-delay:3"]


@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(_DRAIN_HOSTS),
            st.integers(min_value=-1, max_value=3),  # priority
            st.integers(min_value=0, max_value=3),  # seq (tied)
            st.integers(min_value=0, max_value=2),  # surt (tied)
            st.sampled_from(["/", "/private/a", "/private/ok/b", "/pub/c"]),
            st.sampled_from([80, 400, 2500]),  # fetch_ms, if fetched
        ),
        max_size=40,
    ),
    budget=st.integers(min_value=1, max_value=6),
    rules=st.dictionaries(
        st.sampled_from(_DRAIN_HOSTS), st.lists(st.sampled_from(_DRAIN_RULES), max_size=3)
    ),
    backoff=st.sets(st.sampled_from(_DRAIN_HOSTS)),
    last_dur=st.none()
    | st.dictionaries(st.sampled_from(_DRAIN_HOSTS), st.sampled_from([20, 300, 1500, 9000])),
    quota=st.none() | st.integers(min_value=1, max_value=5),
    host_fetched=st.dictionaries(st.sampled_from(_DRAIN_HOSTS), st.integers(0, 5)),
    n_chunks=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_drain_matches_host_queue_model(
    rows, budget, rules, backoff, last_dur, quota, host_fetched, n_chunks
):
    """``_drain_order`` against a plain-Python model of each host's
    queue under robots rules, 5xx backoff, the adaptive cap and a quota;
    then ``PolicyState.observe`` on the drained block's fetched rows
    against a dict reference."""
    from webarchive_discovery_ray.state.robots import (
        adaptive_budget_cap,
        effective_budget,
        is_disallowed,
    )

    ccfg = CrawlConfig(
        politeness_budget=budget,
        max_pages_per_host=quota,
        backoff_503=True,
        adaptive_politeness=last_dur is not None,
    )
    policy = PolicyState(
        rules=rules,
        backoff=backoff,
        host_fetched=host_fetched if quota is not None else None,
        last_dur=last_dur,
    )
    hosts = [r[0] for r in rows]
    tbl = _frontier_block(
        hosts,
        [r[1] for r in rows],
        [r[2] for r in rows],
        [f"({r[0]})/{r[3]}" for r in rows],
        [r[4] for r in rows],
    )
    # the assembled block arrives in pieces
    cut = [len(rows) * j // n_chunks for j in range(n_chunks + 1)]
    tbl = pa.concat_tables([tbl.slice(a, b - a) for a, b in zip(cut, cut[1:])])

    def model_budget(h):
        eff = effective_budget(budget, rules.get(h))
        if h in backoff:
            eff = max(1, eff // 2)
        if last_dur and h in last_dur:
            eff = min(eff, adaptive_budget_cap(
                last_dur[h], ccfg.adaptive_delay_factor_permil,
                ccfg.adaptive_min_delay_ms, ccfg.adaptive_max_delay_ms,
                ccfg.adaptive_wave_window_ms,
            ))
        if quota is not None:
            eff = min(eff, quota - host_fetched.get(h, 0))
        return eff

    want = []
    # Python sorts str by code point, the same order as UTF-8 bytes;
    # the input position breaks full ties (a stable sort)
    order = sorted(range(len(rows)), key=lambda i: (*rows[i][:3], f"({rows[i][0]})/{rows[i][3]}", i))
    for host in sorted(set(hosts)):
        eff = model_budget(host)
        if quota is not None and eff <= 0:
            continue  # retired: every row leaves the frontier
        queue = [
            i for i in order
            if hosts[i] == host
            and (rows[i][1] == -1 or not is_disallowed(rows[i][4], rules.get(host, [])))
        ]
        want += [(i, k, k < eff) for k, i in enumerate(queue)]

    idx, rank, selected = _drain_order(tbl, ccfg, policy)
    got = [(int(i), int(k), bool(s)) for i, k, s in zip(idx, rank, selected, strict=True)]
    assert got == want

    # the fetched rows in drain order (host, slot), as the fetch stage
    # returns them
    fetched = [(hosts[i], k, rows[i][5]) for i, k, s in want if s]
    block = pa.table(
        {
            **{c: tbl[c].take(pa.array([i for i, _, s in want if s], pa.int64()))
               for c in tbl.column_names},
            "fetch_host": pa.array([h for h, _, _ in fetched], pa.string()),
            "slot": pa.array([k for _, k, _ in fetched], pa.int32()),
            "fetch_ms": pa.array([d for _, _, d in fetched], pa.int32()),
            "fetch_status": pa.array([200] * len(fetched), pa.int32()),
            "is_robots": pa.array([False] * len(fetched), pa.bool_()),
            "robots_rules": pa.array([[]] * len(fetched), pa.list_(pa.string())),
        }
    )
    counts, top = {}, {}
    for h, k, d in fetched:
        counts[h] = counts.get(h, 0) + 1
        top[h] = max(top.get(h, (-1, 0)), (k, d))  # (highest slot, its fetch_ms)
    obs = PolicyState.observe(block)
    assert dict(obs["host_counts"]) == counts
    assert dict(obs["last_dur"]) == {h: d for h, (_, d) in top.items()}
    assert obs["backoff"] == [] and obs["retry"] == [] and obs["robots"] == []


# --- differential fuzz: stage vs oracle extraction ---------------------------

_html_bits = st.lists(
    st.sampled_from(
        [
            "<html>", "</html>", "<head>", "</head>", "<body>", "</body>",
            "<title>", "</title>", "<p>", "</p>", "<a href='/x'>", "<a href=>",
            "</a>", "<img src='/i.png'>", "<img srcset='/a.png 1x, /b.png 2x'>",
            "<picture>", "<source srcset='/s.png'>", "</picture>",
            "<script>var a = '</p>';</script>", "</script>",
            "<link rel=license href='http://l/'>", "<td background='/bg.gif'>",
            "text word  spaced", "&amp; entity", "<!-- comment -->",
            "<meta name=originalpublicationdate content='2020-05-01'>",
            "\x00", "\udcff", "<", ">", "='", "<p", "attr=\"",
        ]
    ),
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(_html_bits)
def test_extraction_parity_on_fuzzed_html(bits):
    """The distributed stage and the independently-written sequential
    oracle must produce identical span sequences (the BASELINE input_hint
    invariant) on arbitrary—including hostile—HTML."""
    from webarchive_discovery_ray.config import IndexConfig, SyntheticConfig
    from webarchive_discovery_ray.functions.hashing import sha1_b32
    from webarchive_discovery_ray.oracle.extract_oracle import oracle_extract_record
    from webarchive_discovery_ray.sources.synthetic import fixture_pages
    from webarchive_discovery_ray.stages.extract import extract_record

    base = next(
        r
        for r in fixture_pages(50, SyntheticConfig())
        if r["record_type"] == "response" and r["status"] == 200
    )
    payload = "".join(bits).encode("utf-8", "surrogatepass")
    rec = dict(
        base,
        payload=payload,
        payload_sha1=sha1_b32(payload),
        mime_served="text/html; charset=utf-8",
        transfer_encoding="",
        content_encoding="",
    )
    cfg = IndexConfig()
    d1 = extract_record(rec, cfg)
    d2 = oracle_extract_record(rec, cfg)
    assert (d1 is None) == (d2 is None)
    if d1 is None:
        return
    assert d1["spans"] == d2["spans"]
    assert d1["links"] == d2["links"]
    assert d1["title"] == d2["title"]
    assert d1["hash"] == d2["hash"]
    assert d1["content"] == d2["content"]


def test_title_offset_anchors_at_first_opening_tag():
    # fuzz-found: a nested <title> inside an open title must not re-anchor
    # the span offset (stage now matches the oracle's first-tag anchor)
    from webarchive_discovery_ray.config import IndexConfig
    from webarchive_discovery_ray.stages.extract import parse_html_features

    f = parse_html_features("<title><title>x</title>", "http://e.com/", IndexConfig())
    assert f.title == (0, "x")


# --- KLL sketch invariants ----------------------------------------------------

@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
             min_size=1, max_size=3000),
    st.integers(min_value=1, max_value=7),
)
@settings(max_examples=50, deadline=None)
def test_kll_weight_exact_and_rank_bounded(values, n_chunks):
    """Total weight equals n for ANY add order/chunking, and every
    quantile estimate is a value from the stream with bounded rank error."""
    import numpy as np

    from webarchive_discovery_ray.pipelines.sketches import KLLSketch

    sk = KLLSketch(64)
    arr = np.asarray(values, dtype=np.float64)
    for chunk in np.array_split(arr, n_chunks):
        if len(chunk):
            sk.add_many(chunk)
    assert sk.n == len(arr)
    assert sk.total_weight() == len(arr)
    srt = np.sort(arr)
    for q, est in zip((25, 50, 75), sk.quantiles((25, 50, 75))):
        assert est in set(arr.tolist())  # estimates are stream values
        lo = np.searchsorted(srt, est, side="left") / len(srt)
        hi = np.searchsorted(srt, est, side="right") / len(srt)
        # rank interval of the estimate must be within eps of the target
        # (k=64 -> generous empirical eps; the sf-scale test pins 1.5%)
        eps = 0.12
        assert lo - eps <= q / 100.0 <= hi + eps


# --- Bayardo prefix-filter lemma (ngram_jaccard_pairs candidate rule) ---------

@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=30),
        min_size=2,
        max_size=12,
    ),
    st.sampled_from([(3, 10), (1, 2), (7, 10), (9, 10)]),
)
@settings(max_examples=200, deadline=None)
def test_prefix_filter_candidates_complete(doc_items, tfrac):
    """For every pair with Jaccard >= t, BOTH docs index a shared gram in
    their df-ordered prefix of length sz - ceil(t*sz) + 1 — the exact-int
    ceil used by ngram_jaccard_pairs (sz - (-(((-num) * sz) // den)) + 1)."""
    import itertools
    from collections import Counter

    num, den = tfrac
    t = num / den
    sets = [frozenset(items) for items in doc_items]
    df = Counter()
    for s_ in sets:
        df.update(s_)
    prefixes = []
    for s_ in sets:
        sz = len(s_)
        keep_len = sz - (-(((-num) * sz) // den)) + 1
        order = sorted(s_, key=lambda g: (df[g], g))
        prefixes.append(frozenset(order[: max(keep_len, 0)]))
    for (i, a), (j, b) in itertools.combinations(enumerate(sets), 2):
        inter = len(a & b)
        union = len(a | b)
        if union and inter / union >= t:
            shared_pref = prefixes[i] & prefixes[j] & a & b
            assert shared_pref, (
                f"qualifying pair ({i},{j}) shares no prefix gram: "
                f"J={inter}/{union}, prefixes {prefixes[i]} {prefixes[j]}"
            )


# --- capture_diff vs brute-force pandas reference ------------------------------

@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),    # surt index
            st.integers(min_value=0, max_value=30),   # ts offset
            st.integers(min_value=0, max_value=3),    # digest index
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=30, deadline=None)
def test_capture_diff_matches_bruteforce(ray_session, caps):
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.cdx import capture_diff

    rows = [
        {
            "surt_key": f"com,s{s})/",
            "timestamp14": f"2020010100{t:04d}",
            "digest": f"d{d}",
        }
        for s, t, d in caps
    ]
    got = {
        r["surt_key"]: (
            r["n_captures"], r["n_changes"], r["n_unchanged"], r["last_change_ts14"]
        )
        for r in capture_diff(rd.from_items(rows)).take_all()
    }
    # brute force
    from collections import defaultdict

    by_surt = defaultdict(list)
    for r in rows:
        by_surt[r["surt_key"]].append((r["timestamp14"], r["digest"]))
    expected = {}
    for surt, lst in by_surt.items():
        lst.sort()
        ch = un = 0
        last = ""
        for (pt, pd_), (t, d) in zip(lst, lst[1:]):
            if d != pd_:
                ch += 1
                last = t
            else:
                un += 1
        expected[surt] = (len(lst), ch, un, last)
    assert got == expected


# --- span_quality_filter vs sequential reference --------------------------------

@given(
    st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(["text", "media"]),
                st.integers(min_value=0, max_value=6),  # token count for text
            ),
            max_size=8,
        ),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=30, deadline=None)
def test_span_quality_filter_matches_bruteforce(ray_session, docs):
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import span_quality_filter

    rows = []
    for di, spans in enumerate(docs):
        rows.append(
            {
                "doc_id": f"doc{di}",
                "spans": [
                    {
                        "kind": k,
                        "text": " ".join(["w"] * n) if k == "text" else "",
                        "media_ref": f"m{j}" if k == "media" else "",
                        "offset": 0,
                    }
                    for j, (k, n) in enumerate(spans)
                ],
            }
        )
    got = sorted(
        (r["doc_id"], r["span_idx"], r["kind"], r["n_tok"], r["new_idx"], r["new_offset"])
        for r in span_quality_filter(rd.from_items(rows)).take_all()
    )
    expected = []
    for di, spans in enumerate(docs):
        new_idx = 0
        off = 0
        for j, (k, n) in enumerate(spans):
            cost = 64 if k == "media" else n
            keep = k == "media" or cost >= 3
            if keep:
                expected.append((f"doc{di}", j + 1, k, cost, new_idx, off))
                new_idx += 1
                off += cost
    assert got == sorted(expected)


# --- WARC parser fuzzing -------------------------------------------------------

from webarchive_discovery_ray.oracle.warc_oracle import (
    build_synthetic_warc_gz,
    oracle_parse_archive,
)
from webarchive_discovery_ray.schema import PAGES_SCHEMA
from webarchive_discovery_ray.sources.warc import parse_archive_bytes

_rec_payloads = st.binary(max_size=200) | st.sampled_from(
    [
        # adversarial blocks: header-lookalikes, bare CR/LF runs, an HTTP
        # head with no body, a block containing a fake record boundary
        b"WARC/1.0\r\nWARC-Type: response\r\n\r\n",
        b"\r\n\r\n\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n",
        b"x" * 10 + b"\r\n\r\nWARC/1.0\r\n",
        b"HTTP/1.1 301 Moved\r\nLocation: http://a/\r\n\r\n<html>",
    ]
)
_rec_types = st.sampled_from(["response", "request", "revisit", "resource", "metadata"])
_rec_urls = st.builds(lambda h, p: f"http://{h}/{p}", _host, _url_path)


def _build_warc(records: list[tuple[str, str, bytes]], gz: bool) -> bytes:
    """Well-formed WARC from (type, url, block) triples — format knowledge
    only (ISO 28500): exact Content-Length, CRLF discipline, one gzip
    member per record when gz."""
    import gzip as _gz

    out = []
    for rtype, url, block in records:
        head = [b"WARC/1.0", b"WARC-Type: " + rtype.encode()]
        if url:
            head.append(b"WARC-Target-URI: " + url.encode())
        head.append(b"WARC-Date: 2016-01-02T03:04:05Z")
        head.append(b"Content-Length: " + str(len(block)).encode())
        raw = b"\r\n".join(head) + b"\r\n\r\n" + block + b"\r\n\r\n"
        out.append(_gz.compress(raw, mtime=0) if gz else raw)
    return b"".join(out)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_rec_types, _rec_urls, _rec_payloads), min_size=1, max_size=6),
    st.booleans(),
)
def test_warc_parser_differential_on_generated_records(recs, gz):
    """Generated well-formed archives: the production parser and the
    independent sequential oracle must agree row-for-row, and rows must
    fit PAGES_SCHEMA (the Ray read path's contract)."""
    data = _build_warc(list(recs), gz)
    got = parse_archive_bytes(data, "fuzz.warc" + (".gz" if gz else ""))
    want = oracle_parse_archive(data, "fuzz.warc" + (".gz" if gz else ""))
    assert got == want
    # every row materialises under the schema the read path promises
    pa.Table.from_pylist(got, schema=PAGES_SCHEMA)


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=400))
def test_warc_parser_never_raises_on_garbage(blob):
    rows = parse_archive_bytes(blob, "garbage.warc")
    assert isinstance(rows, list)
    pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_warc_parser_never_raises_on_mutations(data):
    """Byte flips and truncations of a valid multi-member WARC.gz must
    never raise, and must never fabricate rows beyond the valid parse's
    record count + 1 (a corrupted tail can at most garble one record)."""
    base = build_synthetic_warc_gz(n_pages=4, seed=7)
    n_valid = len(parse_archive_bytes(base, "m.warc.gz"))
    cut = data.draw(st.integers(min_value=0, max_value=len(base)))
    blob = bytearray(base[:cut] or b"\x00")
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        i = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        blob[i] = data.draw(st.integers(min_value=0, max_value=255))
    rows = parse_archive_bytes(bytes(blob), "m.warc.gz")
    assert isinstance(rows, list) and len(rows) <= n_valid + 1
    pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)


# --- ARC parser fuzzing --------------------------------------------------------

_arc_mimes = st.sampled_from(["text/html", "image/png", "text/plain", "no-type"])
_arc_bodies = st.binary(max_size=150) | st.sampled_from(
    [
        # adversarial: ARC-header lookalike inside a body, bare newlines,
        # a body whose first line parses as "url ip date mime len"
        b"http://x.org/ 1.2.3.4 20080430204825 text/html 5\nhello",
        b"\n\n\n",
        b"filedesc://fake 0.0.0.0 20080430204825 text/plain 0\n",
    ]
)


def _build_arc(records: list[tuple[str, str, bytes]]) -> bytes:
    """Well-formed ARC v1 from (url, mime, body) triples — format
    knowledge only (the published ARC spec): version record first, then
    'url ip date mime length\\n' + body per record."""
    head_body = b"1 0 fuzz\nURL IP-address Archive-date Content-type Archive-length"
    out = [
        b"filedesc://fuzz.arc 0.0.0.0 20080430204825 text/plain "
        + str(len(head_body)).encode()
        + b"\n"
        + head_body
        + b"\n"
    ]
    for url, mime, body in records:
        out.append(
            f"{url} 1.2.3.4 20080430204825 {mime} {len(body)}\n".encode()
            + body
            + b"\n"
        )
    return b"".join(out)


@given(
    recs=st.lists(
        st.tuples(_rec_urls, _arc_mimes, _arc_bodies), min_size=1, max_size=6
    ),
    gz=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_arc_parser_differential_on_generated_records(recs, gz):
    """Generated well-formed ARC (plain / gzip): parser == independent
    oracle, response rows for every record, URLs in file order."""
    import gzip as _gz

    # ARC header lines are space-delimited: keep URLs space-free
    recs = [(u.replace(" ", "%20"), m, b) for u, m, b in recs]
    data = _build_arc(recs)
    if gz:
        data = _gz.compress(data, mtime=0)
    rows = parse_archive_bytes(data, "f.arc")
    assert rows == oracle_parse_archive(data, "f.arc")
    urls = [r["url"] for r in rows]
    assert urls[0].startswith("filedesc://")
    assert urls[1:] == [u for u, _, _ in recs]
    pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)  # schema-stable


@given(data=st.binary(max_size=400))
@settings(max_examples=80, deadline=None)
def test_arc_parser_never_raises_on_garbage(data):
    """Arbitrary bytes prefixed with the ARC magic must never raise."""
    blob = b"filedesc://g.arc 0.0.0.0 20080430204825 text/plain 0\n" + data
    rows = parse_archive_bytes(blob, "g.arc")
    assert isinstance(rows, list)


@given(
    flips=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10_000), st.integers(0, 255)),
        max_size=4,
    ),
    cut=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_arc_parser_never_raises_on_mutations(flips, cut):
    """Byte flips / truncations of a valid ARC: no raise, bounded rows."""
    base = bytearray(
        _build_arc([(f"http://h{i}.org/p", "text/html", b"x" * i) for i in range(6)])
    )
    for pos, val in flips:
        base[pos % len(base)] = val
    blob = bytes(base)[: max(1, cut % (len(base) + 1))]
    rows = parse_archive_bytes(blob, "m.arc")
    assert isinstance(rows, list) and len(rows) <= 7


# --- paragraph_dedup reassembly invariants --------------------------------------

_para_tokens = st.lists(
    st.sampled_from(["alpha", "beta", "gamma", "delta"]), min_size=0, max_size=40
)


@given(docs=st.lists(_para_tokens, min_size=1, max_size=8), w=st.sampled_from([2, 4]))
@settings(max_examples=25, deadline=None)
def test_paragraph_dedup_matches_bruteforce(ray_session, docs, w):
    """Distributed paragraph dedup + reassembly == first-occurrence scan
    over generated corpora, including all-dup docs that drop entirely and
    whitespace-only docs."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import tempfile, os

    from webarchive_discovery_ray.pipelines.dedup import paragraph_dedup

    texts = [" ".join(toks) for toks in docs]
    d = tempfile.mkdtemp()
    pq.write_table(
        pa.table({"doc_id": list(range(len(texts))), "text": texts}),
        os.path.join(d, "documents.parquet"),
    )
    seen: set[str] = set()
    want = {}
    for did, toks in enumerate(docs):
        if not toks:
            continue
        paras = [
            " ".join(toks[p * w : (p + 1) * w])
            for p in range((len(toks) + w - 1) // w)
        ]
        kept = [p for p in paras if p not in seen and not seen.add(p)]
        if kept:
            want[did] = (len(paras), len(kept), " ".join(kept))
    got = paragraph_dedup(d, w=w).to_pandas()
    assert len(got) == len(want)
    if not want:
        return
    got = got.set_index("doc_id")
    for did, (n_paras, n_kept, text) in want.items():
        assert got.loc[did, "n_paras"] == n_paras
        assert got.loc[did, "n_kept"] == n_kept
        assert got.loc[did, "text"] == text


@given(docs=st.lists(_para_tokens, min_size=1, max_size=8), w=st.sampled_from([2, 4]))
@settings(max_examples=20, deadline=None)
def test_gram_novelty_matches_bruteforce(ray_session, docs, w):
    """Distributed novelty == first-occurrence scan over generated
    corpora (all-dup docs, sub-window docs, empty corpora)."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.dedup import gram_novelty

    texts = [" ".join(toks) for toks in docs]
    d = tempfile.mkdtemp()
    pq.write_table(
        pa.table({"doc_id": list(range(len(texts))), "text": texts}),
        os.path.join(d, "documents.parquet"),
    )
    seen: set[str] = set()
    want = {}
    for did, toks in enumerate(docs):
        n = len(toks) - w + 1
        if n <= 0:
            continue
        novel = 0
        for i in range(n):
            g = " ".join(toks[i : i + w])
            if g not in seen:
                seen.add(g)
                novel += 1
        want[did] = (n, novel)
    got = gram_novelty(d, w=w).to_pandas()
    assert len(got) == len(want)
    for r in got.itertuples():
        n, novel = want[r.doc_id]
        assert (r.n_windows, r.n_novel, r.novelty) == (n, novel, novel / n)


@given(docs=st.lists(_para_tokens, min_size=1, max_size=8), w=st.sampled_from([2, 4]))
@settings(max_examples=20, deadline=None)
def test_softdedup_weights_matches_bruteforce(ray_session, docs, w):
    """Distributed soft-dedup weights == corpus paragraph-frequency
    counting over generated corpora."""
    import os
    import tempfile
    from collections import Counter

    import pyarrow as pa
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.curation import softdedup_weights

    texts = [" ".join(toks) for toks in docs]
    d = tempfile.mkdtemp()
    pq.write_table(
        pa.table({"doc_id": list(range(len(texts))), "text": texts}),
        os.path.join(d, "documents.parquet"),
    )
    per_doc = {}
    freq: Counter = Counter()
    for did, toks in enumerate(docs):
        if not toks:
            continue
        paras = [
            " ".join(toks[p * w : (p + 1) * w])
            for p in range((len(toks) + w - 1) // w)
        ]
        per_doc[did] = paras
        freq.update(paras)
    got = softdedup_weights(d, w=w).to_pandas()
    assert len(got) == len(per_doc)
    for r in got.itertuples():
        paras = per_doc[r.doc_id]
        c_sum = sum(freq[p] for p in paras)
        assert (r.n_paras, r.c_sum, r.weight) == (len(paras), c_sum, len(paras) / c_sum)


@given(
    docs=st.lists(_para_tokens, min_size=1, max_size=8),
    k=st.sampled_from([1, 3, 100]),
)
@settings(max_examples=20, deadline=None)
def test_vocab_coverage_matches_bruteforce(ray_session, docs, k):
    """Distributed vocab build == Counter ordering (count desc, token
    asc) incl. ties at the k-th slot; exact integer running mass."""
    import os
    import tempfile
    from collections import Counter

    import pyarrow as pa
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.textops import vocab_coverage

    texts = [" ".join(toks) for toks in docs]
    d = tempfile.mkdtemp()
    pq.write_table(
        pa.table({"doc_id": list(range(len(texts))), "text": texts}),
        os.path.join(d, "documents.parquet"),
    )
    c: Counter = Counter()
    for toks in docs:
        c.update(toks)
    total = sum(c.values())
    want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    got = vocab_coverage(d, k=k)
    assert len(got) == len(want)
    cum = 0
    for row, (tok, n) in zip(got.itertuples(), want):
        cum += n
        assert (row.token, row.n, row.cum_n) == (tok, n, cum)
        assert row.coverage == cum / total


@given(
    srcs=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), _para_tokens),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=20, deadline=None)
def test_source_overlap_matches_bruteforce(ray_session, srcs):
    """Distributed source-overlap matrix == per-pair distinct-paragraph
    set intersections over generated multi-source corpora."""
    import os
    import tempfile
    from itertools import combinations

    import pyarrow as pa
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.curation import source_overlap

    w = 2
    d = tempfile.mkdtemp()
    pq.write_table(
        pa.table(
            {
                "doc_id": list(range(len(srcs))),
                "source": [s for s, _ in srcs],
                "text": [" ".join(t) for _, t in srcs],
            }
        ),
        os.path.join(d, "documents.parquet"),
    )
    per_src: dict[str, set] = {}
    for s, toks in srcs:
        if not toks:
            continue
        paras = {
            " ".join(toks[p * w : (p + 1) * w])
            for p in range((len(toks) + w - 1) // w)
        }
        per_src.setdefault(s, set()).update(paras)
    want = {
        (s1, s2): len(per_src[s1] & per_src[s2])
        for s1, s2 in combinations(sorted(per_src), 2)
        if per_src[s1] & per_src[s2]
    }
    got = source_overlap(d, w=w).to_pandas()
    assert {(r.s1, r.s2): r.n_shared for r in got.itertuples()} == want


def test_bpe_train_matches_sequential_and_tiebreak(ray_session, tmp_path):
    """Distributed BPE (word-table compression + bucketed pair folds) ==
    plain sequential BPE, including the (max n, lexicographically
    smallest pair) tie rule and left-to-right non-overlapping merges."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from collections import Counter

    from webarchive_discovery_ray.pipelines.textops import bpe_train

    # crafted corpus with a pair-count TIE at step 1: "ab" and "ba"
    # both occur 4 times inside abab x2; tie must pick ('a','b')
    texts = ["abab abab", "cd cd", "abc"]
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))

    def seq_bpe(texts, n_merges):
        wc = Counter()
        for t in texts:
            wc.update(t.split())
        words = {tuple(w) + ("</w>",): n for w, n in wc.items()}
        out = []
        for step in range(1, n_merges + 1):
            pairs = Counter()
            for sym, n in words.items():
                for a, b in zip(sym, sym[1:]):
                    pairs[(a, b)] += n
            if not pairs:
                break
            (l, r), n = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
            out.append((step, l, r, n))
            nw = {}
            for sym, wn in words.items():
                res, i = [], 0
                while i < len(sym):
                    if i + 1 < len(sym) and sym[i] == l and sym[i + 1] == r:
                        res.append(l + r)
                        i += 2
                    else:
                        res.append(sym[i])
                        i += 1
                nw[tuple(res)] = nw.get(tuple(res), 0) + wn
            words = nw
        return out

    want = seq_bpe(texts, 5)
    got = (
        bpe_train(str(tmp_path), n_merges=5)
        .to_pandas()
        .sort_values("step", ignore_index=True)
    )
    assert [
        (int(r.step), r.left, r.right, int(r.n)) for r in got.itertuples()
    ] == want
    assert (want[0][1], want[0][2]) == ("a", "b"), "fixture must exercise the tie"


def test_bpe_encode_matches_sequential_tokenizer(ray_session, tmp_path):
    """bpe_encode (distributed train → broadcast merges → streaming
    word-table encode) == a plain sequential tokenizer applying the same
    merges in training order, per doc."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from collections import Counter

    from webarchive_discovery_ray.pipelines.textops import (
        _bpe_encode_word,
        bpe_encode,
    )

    texts = ["abab abab cd", "cd cd abc", "abc x yz yz", ""]
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))

    # sequential trainer (same as the bpe_train test's reference)
    wc = Counter()
    for t in texts:
        wc.update(t.split())
    words = {tuple(w) + ("</w>",): n for w, n in wc.items()}
    merges = []
    for _ in range(5):
        pairs = Counter()
        for sym, n in words.items():
            for a, b in zip(sym, sym[1:]):
                pairs[(a, b)] += n
        if not pairs:
            break
        (l, r), _n = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append((l, r))
        nw = {}
        for sym, wn in words.items():
            res, i = [], 0
            while i < len(sym):
                if i + 1 < len(sym) and sym[i] == l and sym[i + 1] == r:
                    res.append(l + r)
                    i += 2
                else:
                    res.append(sym[i])
                    i += 1
            nw[tuple(res)] = nw.get(tuple(res), 0) + wn
        words = nw

    want = {}
    for doc_id, t in enumerate(texts):
        nt = nm = 0
        for w in t.split():
            parts = _bpe_encode_word(w, merges)
            nt += len(parts)
            nm += sum(1 for p in parts if len(p) > 1 and p != "</w>")
        want[doc_id] = (nt, nm)
    # sanity: the fixture must actually exercise merged tokens
    assert any(nm > 0 for _, nm in want.values())

    got = bpe_encode(str(tmp_path), n_merges=5).to_pandas()
    assert {
        int(r.doc_id): (int(r.n_tokens), int(r.n_merged))
        for r in got.itertuples()
    } == want
    # the empty doc must still be emitted with zero counts
    assert want[3] == (0, 0)


def test_word_embeddings_matches_sequential_ppmi_svd(ray_session):
    """Distributed co-occurrence + driver PPMI/SVD == a fully sequential
    numpy reference with the same vocabulary/tie/sign rules."""
    from collections import Counter

    import numpy as np
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.textops import word_embeddings

    sf = "/root/testdata/sf0.001"
    vocab_k, window, dim = 32, 2, 6
    texts = pq.read_table(f"{sf}/documents.parquet", columns=["text"])[
        "text"
    ].to_pylist()
    cnt = Counter()
    for t in texts:
        cnt.update(t.split())
    terms = [
        t for t, _ in sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:vocab_k]
    ]
    vid = {t: i for i, t in enumerate(terms)}
    V = len(terms)
    C = np.zeros((V, V))
    for t in texts:
        ids = [vid.get(w, -1) for w in t.split()]
        for i, a in enumerate(ids):
            if a < 0:
                continue
            for off in range(1, window + 1):
                if i + off < len(ids) and ids[i + off] >= 0:
                    C[a, ids[i + off]] += 1
                    C[ids[i + off], a] += 1
    total = C.sum()
    row = C.sum(axis=1, keepdims=True)
    col = C.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log((C * total) / (row @ col))
    ppmi = np.where(np.isfinite(pmi) & (pmi > 0), pmi, 0.0)
    u, s, _ = np.linalg.svd(ppmi, full_matrices=False)
    want = u[:, :dim] * np.sqrt(s[:dim])
    for j in range(want.shape[1]):
        if want[np.argmax(np.abs(want[:, j])), j] < 0:
            want[:, j] = -want[:, j]

    got = (
        word_embeddings(sf, vocab_k=vocab_k, window=window, dim=dim)
        .to_pandas()
        .set_index("term")
        .loc[terms]
    )
    gm = got[[f"e{j}" for j in range(dim)]].to_numpy()
    np.testing.assert_allclose(gm, want, atol=1e-7)
    # embeddings are non-degenerate: co-occurring terms correlate
    norms = np.linalg.norm(gm, axis=1)
    assert (norms > 0).sum() > V // 2


def test_pq_cosine_topk_recall_vs_exact(ray_session):
    """PQ-ADC approximate top-k: deterministic across runs, self-hit at
    rank 1 for in-corpus queries, and recall@5 vs the exact search well
    above chance."""
    from webarchive_discovery_ray.pipelines.similarity import (
        ann_cosine_topk,
        pq_cosine_topk,
    )

    sf = "/root/testdata/sf0.001"
    got = pq_cosine_topk(sf).to_pandas()
    again = pq_cosine_topk(sf).to_pandas()
    key = ["query_vec_id", "rank"]
    assert got.sort_values(key, ignore_index=True).equals(
        again.sort_values(key, ignore_index=True)
    )
    exact = ann_cosine_topk(sf).to_pandas()
    # self-hit: every query's rank-1 is itself (query vectors are corpus
    # rows; PQ reconstruction keeps the self-similarity dominant)
    r1 = got[got["rank"] == 1]
    assert (r1["query_vec_id"].to_numpy() == r1["vec_id"].to_numpy()).all()
    def recall_of(df):
        hits = 0
        for q in exact["query_vec_id"].unique():
            e = set(exact.loc[exact["query_vec_id"] == q, "vec_id"])
            p = set(df.loc[df["query_vec_id"] == q, "vec_id"])
            hits += len(e & p)
        return hits / len(exact)

    # measured 0.35 at m=4 on this corpus — the synthetic embeddings are
    # near-worst-case for quantized search (true neighbours at cos ~0.3
    # against a ~0 median; same honesty note as lsh_cosine_topk). Chance
    # level is 5/500 = 0.01; the floor pins "far above chance".
    r4 = recall_of(got)
    assert r4 >= 0.2, f"recall@5 {r4:.2f} vs exact"
    # more code budget must help: m=8 (twice the bytes) beats m=4
    got8 = pq_cosine_topk(sf, m=8).to_pandas()
    r8 = recall_of(got8)
    assert r8 > r4, f"recall m=8 {r8:.2f} <= m=4 {r4:.2f}"


def test_ivfpq_cosine_topk_composition_and_recall(ray_session):
    """IVFADC (coarse probe × residual PQ): deterministic across runs,
    and the residual encoding must beat plain PQ at equal code budget
    (that's the entire point of encoding x − c_cell instead of x) OR at
    minimum stay above the same far-above-chance floor; with all cells
    probed the coarse stage becomes a no-op and recall must be >= the
    probed variant's (pruning can only lose candidates)."""
    from webarchive_discovery_ray.pipelines.similarity import (
        ann_cosine_topk,
        ivfpq_cosine_topk,
    )

    sf = "/root/testdata/sf0.001"
    got = ivfpq_cosine_topk(sf).to_pandas()
    again = ivfpq_cosine_topk(sf).to_pandas()
    key = ["query_vec_id", "rank"]
    assert got.sort_values(key, ignore_index=True).equals(
        again.sort_values(key, ignore_index=True)
    )
    exact = ann_cosine_topk(sf).to_pandas()

    def recall_of(df):
        hits = 0
        for q in exact["query_vec_id"].unique():
            e = set(exact.loc[exact["query_vec_id"] == q, "vec_id"])
            p = set(df.loc[df["query_vec_id"] == q, "vec_id"])
            hits += len(e & p)
        return hits / len(exact)

    r_probed = recall_of(got)
    assert r_probed >= 0.2, f"recall@5 {r_probed:.2f} vs exact"
    # probe=all cells: coarse pruning off, scan everything through ADC
    got_all = ivfpq_cosine_topk(sf, n_probe=8).to_pandas()
    r_all = recall_of(got_all)
    assert r_all >= r_probed, f"full probe {r_all:.2f} < probed {r_probed:.2f}"


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(
            st.integers(min_value=0, max_value=120), min_size=0, max_size=25
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=4, max_value=20),
)
def test_seen_spill_fuzz_matches_model_set(batches, threshold):
    """Property: a SeenSet with ANY spill threshold behaves exactly like
    a plain Python set under arbitrary add_if_new/contains sequences —
    masks, membership, snapshot, and len all agree."""
    import tempfile

    from webarchive_discovery_ray.state.seen import SeenSet

    ss = SeenSet(spill_dir=tempfile.mkdtemp(), spill_threshold=threshold)
    model: set[str] = set()
    for chunk in batches:
        keys = [f"com,h{i % 7})/p{i}" for i in chunk]
        got = ss.add_if_new(keys)
        want = []
        batch_new: set[str] = set()
        for k in keys:
            new = k not in model and k not in batch_new
            want.append(new)
            batch_new.add(k)
        model |= batch_new
        assert got == want
        probe = keys + [f"com,never)/x{i}" for i in range(3)]
        assert ss.contains(probe) == [k in model for k in probe]
    assert len(ss) == len(model)
    assert ss.snapshot() == sorted(model)


def _cand_table(rows):
    """Wave candidate rows (order_host, order_slot, order_rank, surt)."""
    return pa.table(
        {
            "url": pa.array([f"http://{s}" for *_, s in rows], pa.string()),
            "surt": pa.array([s for *_, s in rows], pa.string()),
            "host": pa.array([h for h, *_ in rows], pa.string()),
            "priority": pa.array([0] * len(rows), pa.int32()),
            "hop": pa.array([0] * len(rows), pa.int32()),
            "order_host": pa.array([h for h, *_ in rows], pa.string()),
            "order_slot": pa.array([sl for _, sl, _, _ in rows], pa.int32()),
            "order_rank": pa.array([r for _, _, r, _ in rows], pa.int32()),
        }
    )


def _gate_table(rows):
    """Content-gate rows (host, slot, key)."""
    return pa.table(
        {
            "key": pa.array([k for *_, k in rows], pa.string()),
            "host": pa.array([h for h, *_ in rows], pa.string()),
            "slot": pa.array([sl for _, sl, _ in rows], pa.int32()),
        }
    )


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(
                st.tuples(
                    st.integers(0, 3), st.integers(0, 5),
                    st.integers(0, 3), st.integers(0, 40),
                ),
                max_size=30,
            ),
            st.lists(
                st.tuples(
                    st.integers(0, 3), st.integers(0, 8),
                    st.integers(0, 1), st.integers(0, 40),
                ),
                max_size=20,
            ),
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)), max_size=6),
        ),
        min_size=1,
        max_size=5,
    ),
    st.one_of(st.none(), st.integers(min_value=2, max_value=12)),
    st.integers(min_value=1, max_value=5),
)
def test_seen_wave_barriers_match_model_sets(ray_session, waves, threshold, n_parts):
    """Property: ``finalize_wave_split`` winners and ``gate_first_seen``
    losers equal a plain-Python model over arbitrary waves, with and
    without spilling. Each wave's discovery call also gets loser
    (host, slot) pairs, whose candidates the model drops, and takes only
    its slice of each candidate block; its winners come grouped by the
    frontier block of their host (``n_parts`` blocks), in the pinned
    order within each block. Both barriers draw keys from the SAME
    strings, so the model also pins that the URL and content key spaces
    stay separate."""
    import tempfile

    import ray

    from webarchive_discovery_ray.functions.hashing import stable_hash64
    from webarchive_discovery_ray.state.seen import SeenSet

    ss = SeenSet(
        spill_dir=tempfile.mkdtemp(), spill_threshold=threshold,
        content_spill_dir=tempfile.mkdtemp(),
    )
    url_model: set[str] = set()
    content_model: set[str] = set()
    for wave, (cands, gates, lost) in enumerate(waves):
        # order keys are unique per candidate, (host, slot) per fetch
        cands = list({(f"h{h}", sl, r): k for h, sl, r, k in cands}.items())
        rows = [(*o, f"k{k}") for o, k in cands]
        lost = sorted({(f"h{h}", sl) for h, sl in lost})
        half = len(rows) // 2
        # each block leads with another shard's row, outside this
        # shard's slice
        foreign = ("h9", 0, 0, "kforeign")
        blocks = [_cand_table([foreign] + c) for c in (rows[:half], rows[half:])]
        loser_tbls = [
            pa.table({"host": [h for h, _ in part], "slot": pa.array(
                [sl for _, sl in part], pa.int32())})
            for part in (lost[::2], lost[1::2])
        ]
        won = []
        for h, sl, r, key in sorted(rows):
            if (h, sl) not in lost and key not in url_model:
                url_model.add(key)
                won.append((h, sl, r, key))
        # the candidate's host is its parent's here: block of order_host
        want = sorted(won, key=lambda row: stable_hash64(row[0], 11) % n_parts)
        w, small = ss.finalize_wave_split(
            wave, [ray.put(b) for b in blocks],
            [(1, b.num_rows) for b in blocks],
            [ray.put(t) for t in loser_tbls], True, n_parts,
        )
        got = [] if w is None else list(zip(
            w["order_host"].to_pylist(), w["order_slot"].to_pylist(),
            w["order_rank"].to_pylist(), w["surt"].to_pylist(),
        ))
        assert got == want
        assert small["n"] == len(want) and small["surts"] == [k for *_, k in want]
        blocks_want = [stable_hash64(h, 11) % n_parts for h, *_ in want]
        assert small["bounds"] == [
            sum(b < p for b in blocks_want) for p in range(n_parts + 1)
        ]
        if w is not None:
            assert w["part"].to_pylist() == blocks_want
        gates = list({(f"h{h}", sl): (sh, k) for h, sl, sh, k in gates}.items())
        grows = sorted(
            ((h, sl, sh, f"k{k}") for (h, sl), (sh, k) in gates),
            key=lambda g: g[2],
        )
        losers_want, new_want = [], []
        for h, sl, sh, key in sorted(grows):
            if sh != 0:
                continue  # another shard's row
            if key in content_model:
                losers_want.append((h, sl))
            else:
                content_model.add(key)
                new_want.append(key)
        # the block is sorted by shard: shard 0's slice is its first rows
        n0 = sum(sh == 0 for _, _, sh, _ in grows)
        losers, small = ss.gate_first_seen(
            [ray.put(_gate_table([(h, sl, k) for h, sl, _, k in grows]))],
            [(0, n0)], want_keys=True,
        )
        got_losers = list(zip(losers["host"].to_pylist(), losers["slot"].to_pylist()))
        assert got_losers == losers_want
        assert small == {"n_new": len(new_want), "keys": new_want}
        probe = [f"k{i}" for i in range(42)]
        assert ss.contains(probe) == [k in url_model for k in probe]
    assert ss.snapshot() == sorted(url_model)
    assert ss.snapshot("content") == sorted(content_model)


class _IterCountingSet(set):
    """A set that counts how often it is iterated."""

    def __iter__(self):
        self.iters = getattr(self, "iters", 0) + 1
        return super().__iter__()


def test_seen_probes_never_iterate_the_hot_set(ray_session):
    """Every probe is O(batch): ``add_if_new``, ``contains``,
    ``finalize_wave_split`` and ``gate_first_seen`` look keys up in the
    hot set and never turn the whole set into an array (which costs
    O(|seen|) per call)."""
    import ray

    from webarchive_discovery_ray.state.seen import SeenSet

    ss = SeenSet()
    keys = [f"com,h{i % 5})/p{i}" for i in range(200)]
    assert ss.add_if_new(keys[:100]) == [True] * 100
    ss.gate_first_seen([ray.put(_gate_table([("h0", 0, k) for k in keys[:1]]))], [(0, 1)])
    spaces = (ss._url, ss._space("content"))
    for space in spaces:
        space._exact = _IterCountingSet(space._exact)
    assert ss.add_if_new(keys) == [False] * 100 + [True] * 100
    assert ss.contains(keys + ["com,never)/"]) == [True] * 200 + [False]
    blocks = [
        _cand_table([("h1", i, 0, k) for i, k in enumerate(keys[::2])]),
        _cand_table([("h2", 0, 0, "com,fresh)/")]),
    ]
    w, _ = ss.finalize_wave_split(
        1, [ray.put(b) for b in blocks], [(0, b.num_rows) for b in blocks], [],
        False, 5,
    )
    assert w["surt"].to_pylist() == ["com,fresh)/"]
    losers, small = ss.gate_first_seen(
        [ray.put(_gate_table([("h0", i, k) for i, k in enumerate(keys[:3])]))],
        [(0, 3)],
    )
    assert losers["slot"].to_pylist() == [0] and small["n_new"] == 2
    assert [getattr(space._exact, "iters", 0) for space in spaces] == [0, 0]


def test_viterbi_segment_matches_bruteforce():
    """Pinned DP vs exhaustive enumeration (incl. the longest-piece
    tie-break) on every word over a tiny vocab."""
    import itertools
    import math

    from webarchive_discovery_ray.pipelines.textops import viterbi_segment

    logp = {
        "a": math.log(0.3), "b": math.log(0.2), "c": math.log(0.1),
        "ab": math.log(0.25), "bc": math.log(0.05), "abc": math.log(0.1),
    }

    def brute(word):
        best_score, best_seg = float("-inf"), None
        n = len(word)
        for cuts in itertools.product([0, 1], repeat=n - 1):
            pieces, start = [], 0
            for i, c in enumerate(cuts, 1):
                if c:
                    pieces.append(word[start:i])
                    start = i
            pieces.append(word[start:])
            if any(p not in logp for p in pieces):
                continue
            s = sum(logp[p] for p in pieces)
            # tie-break: prefer the segmentation the DP keeps — fewer
            # pieces first is implied by strictly-greater + longest-first
            if s > best_score + 1e-12:
                best_score, best_seg = s, pieces
        return best_seg

    for L in range(1, 6):
        for word in map("".join, itertools.product("abc", repeat=L)):
            got = viterbi_segment(word, logp)
            exp = brute(word)
            if exp is None:
                continue
            assert abs(
                sum(logp[p] for p in got) - sum(logp[p] for p in exp)
            ) < 1e-9, (word, got, exp)


def test_unigram_train_learns_frequent_words(ray_session, tmp_path):
    """A corpus dominated by two words must surface them as whole
    pieces with the highest multi-char counts."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.textops import unigram_train

    docs = ["hello world " * 20, "hello there " * 10, "world peace " * 5]
    t = pa.table({"doc_id": [f"d{i}" for i in range(3)], "text": docs})
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    out = unigram_train(str(d))
    multi = out[~out["is_char"]].sort_values("n", ascending=False)
    top = set(multi.head(3)["piece"])
    assert "hello" in top and "world" in top, top
    # every single char of the corpus is in the vocab
    chars = set("".join("".join(docs).split()))
    assert chars <= set(out.loc[out["is_char"], "piece"])
    # counts conserve: total piece count == total segmented word tokens'
    # piece count, all integers
    assert (out["n"] >= 0).all() and out["n"].dtype == "int64"


# --- exact_substring window fingerprints -------------------------------------

_fp_texts = st.lists(
    st.text(alphabet="ab\u00e9\u0301\U0001F600", max_size=60), min_size=1, max_size=8
)


@given(texts=_fp_texts, L=st.sampled_from([1, 3, 40]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_window_fingerprints_equal_iff_windows_equal(texts, L, data):
    """Two L-code-point windows get the same (h, h1) exactly when their
    strings are equal, and each window gets the same fingerprint however
    the texts are split into batches."""
    from webarchive_discovery_ray.pipelines.dedup import _window_fingerprints

    cuts = sorted(data.draw(st.lists(st.integers(0, len(texts)), max_size=3)))
    bounds = [0, *cuts, len(texts)]
    fp: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b in zip(bounds, bounds[1:]):
        h, h1, row, pos = _window_fingerprints(texts[a:b], L)
        fp.update(((a + int(r), int(p)), (int(x), int(y))) for x, y, r, p in zip(h, h1, row, pos))
    assert sorted(fp) == [(r, p) for r, t in enumerate(texts) for p in range(len(t) - L + 1)]
    h, h1, row, pos = _window_fingerprints(texts, L)
    assert fp == {(int(r), int(p)): (int(x), int(y)) for x, y, r, p in zip(h, h1, row, pos)}
    windows = {texts[r][p : p + L] for r, p in fp}
    assert len(set(fp.values())) == len(windows)
    assert len({(texts[r][p : p + L], v) for (r, p), v in fp.items()}) == len(windows)


# --- keyed_fold: one-task path == exchange path --------------------------------


@given(
    keys=st.lists(st.integers(0, 60), max_size=80),
    one_key=st.booleans(),
    top1=st.booleans(),
    n_blocks=st.integers(1, 4),
    materialized=st.booleans(),
    other=st.sampled_from([None, "rows", "empty"]),
    other_keys=st.lists(st.integers(0, 60), min_size=1, max_size=40),
)
@settings(max_examples=16, deadline=None)
def test_keyed_fold_paths_agree(
    ray_session, keys, one_key, top1, n_blocks, materialized, other, other_keys
):
    """The one-task fold and the groupby/map_groups exchange yield the
    same rows (as a sorted multiset) on random keys, on a single bucket
    (every row one key), on empty input, and for a per-bucket top-1
    fold, whose result depends on the bucket boundaries; on a lazy input
    (tagged by map_batches) and a materialized one (tagged in the fold
    task). With ``other``, a second input of another schema (a string
    column, no ``v``) is co-grouped, with rows or with none at all: the
    fold gets one frame per input, each with its own columns and int
    dtypes, on both paths."""
    import ray.data as rd

    from webarchive_discovery_ray.functions import bucketing

    if one_key:
        keys = [7] * len(keys)
    df = pd.DataFrame(
        {"k": np.array(keys, dtype="int64"), "v": np.arange(len(keys), dtype="int64") % 5}
    )
    ds = rd.from_pandas(df)
    if len(df):
        ds = ds.repartition(n_blocks)
    if materialized:
        ds = ds.materialize()
    side = pd.DataFrame(
        {"k": np.array(other_keys, dtype="int64"), "w": [f"w{x}" for x in other_keys]}
    )
    if other == "empty":
        side = side.iloc[:0]

    def top1_fold(frame: pd.DataFrame) -> pd.DataFrame:
        g = frame.groupby("k", sort=False)["v"].sum().reset_index()
        return g.sort_values(["v", "k"], ascending=[False, True], kind="mergesort").head(1)

    def cogroup_fold(frame: pd.DataFrame, words: pd.DataFrame) -> pd.DataFrame:
        assert "w" not in frame and "v" not in words
        assert frame["k"].dtype == "int64" and frame["v"].dtype == "int64"
        if len(words):
            assert words["k"].dtype == "int64" and words["w"].dtype == object
        n = words.get("k", pd.Series([], dtype="int64")).value_counts()
        g = frame.groupby("k", sort=False)["v"].sum()
        ks = sorted(set(g.index) | set(n.index))
        return pd.DataFrame(
            {"k": ks, "v": [int(g.get(k, 0)) * 100 + int(n.get(k, 0)) for k in ks]},
            dtype="int64",
        )

    if other:
        fold, inputs = cogroup_fold, (ds, rd.from_pandas(side))
    else:
        fold, inputs = (top1_fold if top1 else bucketing.sum_in_bucket("k", "v")), ds
    empty = dict(k="int64", v="int64")

    def rows():
        out = bucketing.keyed_fold(inputs, fold, "k", empty=empty).to_pandas()
        return sorted(zip(out["k"], out["v"])) if len(out) else []

    one_task = rows()
    saved = bucketing.TARGET_BLOCK_BYTES
    bucketing.TARGET_BLOCK_BYTES = 0
    try:
        exchange = rows()
    finally:
        bucketing.TARGET_BLOCK_BYTES = saved
    assert one_task == exchange
    if other:
        want = df.groupby("k")["v"].sum().mul(100).add(side["k"].value_counts(), fill_value=0)
        assert one_task == sorted((int(k), int(v)) for k, v in want.items())
    elif not top1:
        want = df.groupby("k")["v"].sum()
        assert one_task == sorted(want.items())


# --- host-graph queries vs networkx and a dict reference ----------------------

_GRAPH_HOSTS = [f"h{i}.ex" for i in range(6)]


@given(
    docs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),  # src host
            st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
        ),
        min_size=1,
        max_size=10,
    ),
    cap=st.integers(min_value=1, max_value=6),
    min_co=st.integers(min_value=1, max_value=3),
)
@example(docs=[(0, [2, 3, 0]), (1, [2, 3, 3]), (4, [2, 3, 1]), (2, [3]), (3, [2])], cap=3, min_co=2)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
def test_host_graph_queries_match_references(ray_session, docs, cap, min_co):
    """Directed link sets with self-loops, reciprocal and repeated links
    (a src may appear in several docs): triangles, k-core and the
    assortativity moments of the undirected simple graph against
    networkx, co-citation pairs against a dict reference."""
    from collections import Counter, defaultdict
    from itertools import combinations

    import networkx as nx
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import (
        cocitation_hosts,
        host_assortativity,
        host_triangles,
        kcore_hosts,
    )

    h = _GRAPH_HOSTS
    rows = [{"host": h[s], "links_hosts": [h[d] for d in ds]} for s, ds in docs]
    edges = {(h[s], h[d]) for s, ds in docs for d in ds if s != d}
    g = nx.Graph(edges)

    tri = host_triangles(docs=rd.from_items(rows)).to_dict("records")[0]
    deg = dict(g.degree)
    assert (tri["n_edges"], tri["n_wedges"], tri["n_triangles"]) == (
        g.number_of_edges(),
        sum(d * (d - 1) // 2 for d in deg.values()),
        sum(nx.triangles(g).values()) // 3,
    )

    core = kcore_hosts(docs=rd.from_items(rows)).take_all()
    assert {r["host"]: r["core"] for r in core} == nx.core_number(g)

    ends = [(deg[u], deg[v]) for u, v in g.edges] + [(deg[v], deg[u]) for u, v in g.edges]
    rec = host_assortativity(docs=rd.from_items(rows)).to_dict("records")[0]
    assert (rec["m_samples"], rec["sum_x"], rec["sum_xy"], rec["sum_x2"]) == (
        len(ends),
        sum(x for x, _ in ends),
        sum(x * y for x, y in ends),
        sum(x * x for x, _ in ends),
    )

    out = Counter(s for s, _ in edges)
    cited = defaultdict(list)
    for s, d in edges:
        if out[s] <= cap:
            cited[s].append(d)
    ind = Counter(d for ds in cited.values() for d in ds)
    co = Counter(p for ds in cited.values() for p in combinations(sorted(ds), 2))
    want = {
        (a, b): (n, 1_000_000 * n // (ind[a] + ind[b] - n))
        for (a, b), n in co.items()
        if n >= min_co
    }
    got = cocitation_hosts(docs=rd.from_items(rows), cap=cap, min_co=min_co).take_all()
    assert {(r["dst_a"], r["dst_b"]): (r["n_co"], r["jaccard_ppm"]) for r in got} == want
