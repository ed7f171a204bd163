"""Unit oracles for the operator long tail: fuzzy hash, persist-log
pairing, annotations, ARK/ARC-name lookups, file digest, relational ops."""

import hashlib

import pandas as pd
import pyarrow as pa
import pytest

from webarchive_discovery_ray.functions.fuzzy import canonical_text, fuzzy_fields, spamsum


# --- fuzzy hash (M32) --------------------------------------------------------

def test_canonical_text_matches_reference_rule():
    # FuzzyHashAnalyser.java:64-67 — whitespace collapse + lowercase
    assert canonical_text("  Hello\t\nWORLD  x ") == "hello world x"


def test_spamsum_deterministic_and_shaped():
    text = "the quick brown fox jumps over the lazy dog " * 40
    bs, s1, s2 = spamsum(text)
    assert (bs, s1, s2) == spamsum(text)  # deterministic
    assert bs >= 3 and bs % 3 == 0  # blocksize ladder 3*2^k
    assert 0 < len(s1) <= 64
    assert 0 < len(s2) <= 32
    f = fuzzy_fields(text)
    assert set(f) == {f"ssdeep_hash_bs_{bs}", f"ssdeep_hash_bs_{bs*2}"}


def test_spamsum_similar_texts_share_pieces():
    a = "word%d " * 200 % tuple(range(200))
    b = a.replace("word100", "word999")  # single-token edit
    _, s1a, _ = spamsum(a)
    _, s1b, _ = spamsum(b)
    # context-triggered pieces: a local edit preserves most pieces (ssdeep
    # compares signatures by edit similarity, not position)
    import difflib

    assert difflib.SequenceMatcher(None, s1a, s1b).ratio() > 0.5
    # while an unrelated text shares almost nothing
    _, s1c, _ = spamsum("completely different content " * 80)
    assert difflib.SequenceMatcher(None, s1a, s1c).ratio() < 0.4


def test_spamsum_empty():
    bs, s1, s2 = spamsum("")
    assert bs == 3 and s1 == "" and s2 == ""


# --- persist-log pairing (M40/J4) -------------------------------------------

def test_persist_log_pairing(ray_session):
    from webarchive_discovery_ray.pipelines.stats import persist_log

    rows = persist_log(400).take_all()
    assert rows
    # every row is a response/revisit; metadata got folded in, not emitted
    assert all(r["surt"] for r in rows)
    assert any(r["has_metadata"] for r in rows)


# --- annotations (J1) --------------------------------------------------------

def test_annotate_batch_scopes_and_date_gate():
    from webarchive_discovery_ray.pipelines.enrich import annotate_batch

    batch = pa.table(
        {
            "url_norm": ["http://a.example.com/x", "http://sub.b.example.com/y",
                         "http://c.example.com/z"],
            "host": ["a.example.com", "sub.b.example.com", "c.example.com"],
            "surt": ["com,example,a)/x", "com,example,b,sub)/y", "com,example,c)/z"],
            "wayback_date": ["20200101000000", "20200101000000", "19800101000000"],
        }
    )
    batch = batch.append_column(
        "source_file",
        pa.array(["crawl-2020-a.warc.gz", "other.warc.gz", "crawl-2020-b.warc.gz"]),
    )
    anns = {
        "resource": {"http://a.example.com/x": [("exact", "20190101000000", "20210101000000")]},
        "root": {"http://a.example.com/": [("rooted", "20190101000000", "20210101000000")]},
        "subdomains": {"b.example.com": [("sub", "20190101000000", "20210101000000")],
                       "c.example.com": [("gated", "20190101000000", "20210101000000")]},
        # 4th scope (Annotator.java:186-204): regex over source_file
        "source_file_matches": {r"crawl-2020-": [("batch2020", "20190101000000", "20210101000000")]},
        "open_access_surts": ["com,example,a)"],
    }
    out = annotate_batch(batch, anns).to_pylist()
    assert out[0]["collections"] == ["batch2020", "exact", "rooted"]
    assert out[0]["access_terms"] == "OA"
    assert out[1]["collections"] == ["sub"]  # host-suffix scope; regex misses
    assert out[1]["access_terms"] == "RRO"
    # date gate rejects the 1980 capture for BOTH the subdomain and the
    # matching source-file rule
    assert out[2]["collections"] == []


# --- ARK + ARC-name ----------------------------------------------------------

def test_ark_lookup_passthrough():
    from webarchive_discovery_ray.pipelines.enrich import ark_lookup_batch

    batch = pa.table({"filename": ["f1.warc.gz", "unknown.warc.gz"]})
    out = ark_lookup_batch(batch, {"f1.warc.gz": "ark:/1/2"}).to_pylist()
    assert out[0]["ark"] == "ark:/1/2"
    assert out[1]["ark"] == "unknown.warc.gz"  # reference passes through


def test_arcname_first_match_wins():
    from webarchive_discovery_ray.pipelines.enrich import arcname_fields_batch

    batch = pa.table({"source_file": ["job-0042-x.warc.gz", "crawlfile.warc.gz", "zzz"]})
    out = arcname_fields_batch(batch).to_pylist()
    assert out[0]["arc_job"] == "job" and out[0]["arc_harvest"] == "0042"
    assert out[1]["arc_job"] == "crawl" and out[1]["arc_institution"] == "fallback"
    assert out[2]["arc_job"] is None


# --- file digest (A3) --------------------------------------------------------

def test_file_digest_matches_hashlib(ray_session, tmp_path):
    from webarchive_discovery_ray.pipelines.stats import file_digest

    p = tmp_path / "blob.bin"
    data = b"\x00\x01payload" * 1000
    p.write_bytes(data)
    rows = file_digest([str(p)]).take_all()
    assert rows[0]["sha1"] == hashlib.sha1(data).hexdigest()
    assert rows[0]["bytes"] == len(data)


# --- relational ops vs pandas oracles ---------------------------------------

def test_window_running_sum_matches_pandas(ray_session):
    from webarchive_discovery_ray.pipelines.relational import window_running_sum
    from webarchive_discovery_ray.sources.io import read_table

    sf = "/root/testdata/sf0.001"
    got = (
        window_running_sum(sf)
        .to_pandas()
        .sort_values(["event_id"])
        .reset_index(drop=True)
    )
    ev = read_table(sf, "events").to_pandas()
    import numpy as np

    ev["cents"] = np.floor(ev["value"] * 100 + 0.5).astype("int64")
    ev = ev.sort_values(["ts", "event_id"], kind="mergesort")
    ev["running_value"] = ev.groupby("event_type")["cents"].cumsum() / 100.0
    exp = ev[["event_id", "event_type", "running_value"]].sort_values(
        ["event_id"]
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_range_join_buckets_cover_all_events(ray_session):
    from webarchive_discovery_ray.pipelines.relational import range_join_events
    from webarchive_discovery_ray.sources.io import read_table

    sf = "/root/testdata/sf0.001"
    got = range_join_events(sf).to_pandas()
    total = read_table(sf, "events").count()
    assert got["n_events"].sum() == total


def test_dataset_summaries_counts(ray_session):
    from webarchive_discovery_ray.pipelines.stats import dataset_summaries

    df = dataset_summaries(300).to_pandas()
    assert set(df["facet"]) == {"host", "format"}
    # both facets count the same underlying records
    host_n = df[df["facet"] == "host"]["count"].sum()
    fmt_n = df[df["facet"] == "format"]["count"].sum()
    assert host_n == fmt_n > 0


# --- M25 through both extraction paths --------------------------------------

def test_xml_root_ns_extraction_parity():
    from webarchive_discovery_ray.config import IndexConfig, SyntheticConfig
    from webarchive_discovery_ray.functions.hashing import sha1_b32
    from webarchive_discovery_ray.oracle.extract_oracle import oracle_extract_record
    from webarchive_discovery_ray.sources.synthetic import fixture_pages
    from webarchive_discovery_ray.stages.extract import extract_record

    base = dict(
        fixture_pages(1, SyntheticConfig())[0],
        record_type="response",
        status=200,
        url="http://x.example.com/feed.xml",
        payload=b'<?xml version="1.0"?><rss xmlns="http://purl.org/rss/1.0/"><channel/></rss>',
        mime_served="application/xml",
    )
    base["payload_sha1"] = sha1_b32(base["payload"])
    d1 = extract_record(base, IndexConfig())
    d2 = oracle_extract_record(base, IndexConfig())
    assert d1["xml_root_ns"] == d2["xml_root_ns"] == "http://purl.org/rss/1.0/#rss"
    # non-XML content leaves the field null
    base2 = dict(
        base,
        url="http://x.example.com/a.html",
        mime_served="text/html",
        payload=b"<html><body><p>hi</p></body></html>",
    )
    base2["payload_sha1"] = sha1_b32(base2["payload"])
    assert extract_record(base2, IndexConfig())["xml_root_ns"] is None


# --- M14/M15 payload decode --------------------------------------------------

def test_dechunk_roundtrip_and_heuristics():
    from webarchive_discovery_ray.functions.payload import chunk_encode, maybe_dechunk

    data = b"<html><body>" + b"x" * 2000 + b"</body></html>"
    enc = chunk_encode(data, 256)
    dec, was = maybe_dechunk(enc)
    assert was and dec == data
    # lenient bare-LF chunk terminators
    lf = enc.replace(b"\r\n", b"\n")
    dec2, was2 = maybe_dechunk(lf)
    assert was2 and dec2 == data
    # non-chunked content passes through untouched
    assert maybe_dechunk(data) == (data, False)
    # truncated framing -> original bytes
    assert maybe_dechunk(enc[:-10] + b"zz") in ((enc[:-10] + b"zz", False),)


def test_dechunk_hint_gates_probe():
    """Transfer-Encoding hint gates the framing probe (InputStreamUtils
    .java:243-259): only 'chunked' (case-insensitive) probes; a payload
    that merely LOOKS chunked ('0\\r\\n', 'abc\\n...') must pass through
    untouched when the header is absent or different."""
    from webarchive_discovery_ray.functions.payload import chunk_encode, maybe_dechunk

    data = b"payload body " * 50
    enc = chunk_encode(data, 128)
    assert maybe_dechunk(enc, "chunked") == (data, True)
    assert maybe_dechunk(enc, "Chunked") == (data, True)
    # hinted not-chunked / absent header: no probe even on chunk-like heads
    looks_chunked = b"0\r\nrest of a text file"
    for payload in (enc, looks_chunked, b"abc\nnot really chunked"):
        assert maybe_dechunk(payload, "") == (payload, False)
        assert maybe_dechunk(payload, None) == (payload, False)
        assert maybe_dechunk(payload, "identity") == (payload, False)


def test_decompress_gzip_and_passthrough():
    import gzip

    from webarchive_discovery_ray.functions.payload import maybe_decompress

    raw = b"<html><p>content</p></html>"
    gz = gzip.compress(raw, mtime=0)
    # hint precedence mirrors InputStreamUtils.maybeDecompress (:399-447):
    # absent header (None) auto-sniffs the gzip magic; an explicit empty
    # hint passes through untouched even when the magic matches
    assert maybe_decompress(gz, None) == (raw, "gzip")  # magic sniffed
    assert maybe_decompress(gz, "") == (gz, "")  # explicit '' wins
    assert maybe_decompress(gz, "gzip") == (raw, "gzip")
    assert maybe_decompress(gz, "identity") == (gz, "")  # unknown hint
    assert maybe_decompress(raw, None) == (raw, "")
    assert maybe_decompress(b"\x1f\x8bcorrupt", None) == (b"\x1f\x8bcorrupt", "")


def test_chunked_and_gzip_extraction_parity():
    """Chunked/gzipped fixture rows: digest validation passes and spans
    match the oracle (M14/M15 end-to-end through both paths)."""
    from webarchive_discovery_ray.config import IndexConfig, SyntheticConfig
    from webarchive_discovery_ray.oracle.extract_oracle import oracle_extract_record
    from webarchive_discovery_ray.sources.synthetic import fixture_pages
    from webarchive_discovery_ray.stages.extract import extract_record

    rows = fixture_pages(600, SyntheticConfig())
    chunked = [r for r in rows if r["transfer_encoding"] == "chunked"]
    gzipped = [r for r in rows if r["content_encoding"] == "gzip"]
    assert chunked and gzipped  # fixture exercises both
    cfg = IndexConfig(response_include=())
    for r in chunked + gzipped:
        d1 = extract_record(r, cfg)
        d2 = oracle_extract_record(r, cfg)
        assert (d1 is None) == (d2 is None)
        if d1 is None:
            continue
        assert not d1["hash_mismatch"], r["url"]  # digest stage correct
        assert d1["spans"] == d2["spans"]
        assert d1["hash"] == d2["hash"]


# --- M35 store/index split ---------------------------------------------------

def test_store_content_split():
    from webarchive_discovery_ray.config import IndexConfig, SyntheticConfig
    from webarchive_discovery_ray.oracle.extract_oracle import oracle_extract_record
    from webarchive_discovery_ray.sources.synthetic import fixture_pages
    from webarchive_discovery_ray.stages.extract import extract_record

    rows = [
        r
        for r in fixture_pages(200, SyntheticConfig())
        if r["record_type"] == "response" and r["status"] == 200
    ]
    cfg = IndexConfig(store_content=False)
    hit = False
    for r in rows:
        d = extract_record(r, cfg)
        o = oracle_extract_record(r, cfg)
        if d is None:
            continue
        assert d["content"] is None and o["content"] is None
        if d["content_text_length"]:
            hit = True  # length retained even though text is unstored
    assert hit


def test_minhash_lsh_pairs_matches_sequential_reference(ray_session):
    """The distributed MinHash+LSH pipeline (hash-partitioned verify, no
    driver corpus broadcast) must produce exactly the pair set of a
    sequential in-process reference using the same banding + Jaccard."""
    import collections

    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.dedup import (
        _BANDS,
        _ROWS_PER_BAND,
        _band_key,
        _minhash_signature,
        _perm_seeds,
        _shingles,
        minhash_lsh_pairs,
    )

    sf_dir = "/root/testdata/sf0.001"
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    seeds = _perm_seeds()
    import hashlib

    buckets = collections.defaultdict(list)
    texts = {}
    for doc_id, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        texts[doc_id] = text
        sig = _minhash_signature(_shingles(text), seeds)
        for band in range(_BANDS):
            chunk = sig[band * _ROWS_PER_BAND : (band + 1) * _ROWS_PER_BAND]
            buckets[f"{band}:{_band_key(chunk)}"].append(doc_id)
    expected = {}
    for ids in buckets.values():
        ids = sorted(set(ids))
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                expected[(ids[i], ids[j])] = None
    kept = {}
    for a, b in expected:
        sa, sb = _shingles(texts[a]), _shingles(texts[b])
        jac = len(sa & sb) / len(sa | sb) if sa | sb else 0.0
        if jac >= 0.3:
            kept[(a, b)] = round(jac, 6)

    got_df = minhash_lsh_pairs(sf_dir).to_pandas()
    got = {
        (int(r.doc_a), int(r.doc_b)): round(float(r.jaccard), 6)
        for r in got_df.itertuples()
    }
    assert got == kept
    assert kept, "fixture must actually contain near-duplicates"


def test_simhash_batch_matches_scalar_definition():
    """Vectorised SimHash must equal the scalar per-token-per-bit
    definition bit for bit."""
    import hashlib

    import numpy as np

    from webarchive_discovery_ray.pipelines.dedup import simhash_batch

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the the the repeated token weight test",
        "",
        "single",
        "completely different content here with many words " * 5,
    ]

    def scalar(text):
        acc = np.zeros(64, dtype=np.int64)
        for tok in text.split():
            h = int.from_bytes(hashlib.md5(tok.encode()).digest()[:8], "big")
            for bit in range(64):
                acc[bit] += 1 if (h >> bit) & 1 else -1
        sig = 0
        for bit in range(64):
            if acc[bit] > 0:
                sig |= 1 << bit
        return f"{sig:016x}"

    assert simhash_batch(texts) == [scalar(t) for t in texts]


def test_cuckoo_filter_membership_delete_and_overflow(monkeypatch, tmp_path):
    """Cuckoo filter: no false negatives, low false-positive rate, delete
    works (Bloom can't), involution i2 = i1 ^ H(fp) holds, and a saturated
    filter reports insert failure so a spill run can engage its Bloom
    overflow."""
    from webarchive_discovery_ray.state import seen
    from webarchive_discovery_ray.state.seen import CuckooFilter, SeenSet

    cf = CuckooFilter(n_buckets=1 << 10, bucket_size=4)  # 4096 slots
    keys = [f"uk,co,site{i})/page/{i}" for i in range(3000)]
    assert all(cf.add(k) for k in keys)  # ~73% load fits without failure
    assert all(cf.might_contain(k) for k in keys)  # NO false negatives
    fp = sum(cf.might_contain(f"absent{i}") for i in range(3000))
    assert fp < 60  # 16-bit fingerprints: ~2% worst-case here
    # involution: alternate of the alternate is the original bucket
    f, i1 = cf._fp_and_index(keys[0])
    i2 = cf._alt_index(i1, f)
    assert cf._alt_index(i2, f) == i1
    # delete removes exactly one copy
    assert cf.delete(keys[0]) and not cf.delete("never-added")
    # saturate a tiny filter -> add() reports failure instead of looping
    tiny = CuckooFilter(n_buckets=2, bucket_size=2)
    results = [tiny.add(f"k{i}") for i in range(16)]
    assert not all(results)

    # a spill run whose cuckoo filter overflows falls back to Bloom and
    # membership stays exact
    monkeypatch.setattr(seen, "_cuckoo_buckets", lambda n_keys: 2)
    ss = SeenSet(spill_dir=str(tmp_path), spill_threshold=64)
    keys = [f"key{i}" for i in range(64)]
    assert ss.add_if_new(keys) == [True] * 64
    (run,) = ss._url._runs._runs
    assert run["filter"].cuckoo.saturated and run["filter"].bloom is not None
    assert ss.add_if_new(["key0", "key63", "fresh"]) == [False, False, True]
    assert ss.contains(keys + ["never-added"]) == [True] * 64 + [False]


def test_cuckoo_batch_probe_matches_scalar_buckets():
    """The numpy batch probe (uint64 arithmetic, which wraps) answers
    exactly what a scalar look into the key's two buckets and the stash
    answers (Python ints, which do not), on a filter with relocations
    and on a saturated one with a stash, for 2^1..2^20 buckets."""
    from webarchive_discovery_ray.state.seen import CuckooFilter, _key_hashes

    def scalar(cf, key):
        fp, i1 = cf._fp_and_index(key)
        i2 = cf._alt_index(i1, fp)
        b = cf.bucket_size
        return any(
            fp in cf.table[i * b : (i + 1) * b] or (i, fp) in cf.stash
            for i in (i1, i2)
        )

    stashed = []
    for n_buckets, n_keys in ((2, 40), (1 << 8, 900), (1 << 20, 3000)):
        cf = CuckooFilter(n_buckets=n_buckets)
        cf.add_many([f"k{i}" for i in range(n_keys)])
        stashed.append(bool(cf.stash))
        probe = [f"k{i}" for i in range(0, 2 * n_keys, 3)]
        got = cf.might_contain_many(*_key_hashes(probe)).tolist()
        assert got == [scalar(cf, k) for k in probe]
        assert got == [cf.might_contain(k) for k in probe]
    assert stashed[0] and not stashed[-1]


def test_language_id_deterministic_across_runs(ray_session):
    """Corpus-trained language ID must be bit-stable run to run (pinned
    tie-breaks; distributed top-k truncation must not depend on block
    arrival order)."""
    from webarchive_discovery_ray.pipelines.textops import language_id

    sf = "/root/testdata/sf0.001"
    a = language_id(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = language_id(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert set(a.columns) == {"doc_id", "lang", "lang_pred"}


# --- round-2 operators: clustering, quantiles, n-grams, packing --------------

def test_neardup_clusters_label_propagation(ray_session):
    """Chain + clique + singletons: every node must get the min doc_id
    reachable through the pair graph."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.dedup import neardup_clusters

    # components: {1,2,3,4} (chain), {10,11,12} (triangle), {20} and {21}
    pairs = rd.from_items(
        [
            {"doc_a": 1, "doc_b": 2},
            {"doc_a": 2, "doc_b": 3},
            {"doc_a": 3, "doc_b": 4},
            {"doc_a": 10, "doc_b": 11},
            {"doc_a": 11, "doc_b": 12},
            {"doc_a": 10, "doc_b": 12},
        ]
    )
    nodes = rd.from_items([{"doc_id": i} for i in [1, 2, 3, 4, 10, 11, 12, 20, 21]])
    got = {
        r["doc_id"]: r["cluster_id"]
        for r in neardup_clusters(pairs, nodes).take_all()
    }
    assert got == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10, 12: 10, 20: 20, 21: 21}


def test_neardup_clusters_chain_converges_logarithmically(ray_session):
    """Pointer doubling bounds a 1000-node path graph at O(log n) rounds
    (plain hash-min would need ~999): every node must still resolve to
    the chain minimum."""
    import math

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.dedup import neardup_clusters

    n = 1000
    pairs = rd.from_items(
        [{"doc_a": i, "doc_b": i + 1} for i in range(n - 1)], override_num_blocks=8
    )
    nodes = rd.from_items([{"doc_id": i} for i in range(n)], override_num_blocks=8)
    stats = {}
    got = {
        r["doc_id"]: r["cluster_id"]
        for r in neardup_clusters(pairs, nodes, stats=stats).take_all()
    }
    assert got == {i: 0 for i in range(n)}
    # hop radius at least doubles per round; generous 3x slack on 2*log2(n)
    assert stats["iterations"] <= 3 * int(math.log2(n)) + 4, stats


def test_global_quantiles_matches_numpy(ray_session):
    import numpy as np
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.aggregates import global_quantiles

    sf = "/root/testdata/sf0.001"
    vals = np.sort(pq.read_table(f"{sf}/lineitem.parquet", columns=["l_extendedprice"])[
        "l_extendedprice"
    ].to_numpy())
    df = global_quantiles(sf).sort_values("q").reset_index(drop=True)
    for q, v in zip(df["q"], df["value"]):
        assert v == vals[int(np.floor(q * (len(vals) - 1)))]


def test_pack_sequences_layout_invariants(ray_session):
    """Offsets are the exclusive prefix sum of token counts in doc_id
    order; bins cover the concatenated stream without gaps."""
    from webarchive_discovery_ray.pipelines.textops import pack_sequences

    df = (
        pack_sequences("/root/testdata/sf0.001", context=128)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    off = 0
    for _, r in df.iterrows():
        assert r["tok_offset"] == off
        assert r["bin_start"] == off // 128
        end = (off + r["n_tokens"] - 1) // 128 if r["n_tokens"] else off // 128
        assert r["bin_end"] == end
        off += r["n_tokens"]


def test_ngram_topk_matches_pandas(ray_session):
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.textops import ngram_topk

    sf = "/root/testdata/sf0.001"
    texts = pq.read_table(f"{sf}/documents.parquet", columns=["text"])["text"].to_pylist()
    from collections import Counter

    c = Counter()
    for t in texts:
        toks = t.split()
        c.update(" ".join(toks[i : i + 2]) for i in range(len(toks) - 1))
    want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
    got = ngram_topk(sf).to_pandas()
    got = list(zip(got["gram"], got["n"]))
    assert sorted(got, key=lambda kv: (-kv[1], kv[0])) == want


def test_inverted_index_postings(ray_session):
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.textops import inverted_index

    sf = "/root/testdata/sf0.001"
    tbl = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    posting: dict[str, dict[int, int]] = {}
    for d, t in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()):
        for tok in t.split():
            posting.setdefault(tok, {}).setdefault(d, 0)
            posting[tok][d] += 1
    df = inverted_index(sf).to_pandas()
    assert len(df) == len(posting)
    by_tok = df.set_index("token")
    for tok in list(posting)[:40]:
        row = by_tok.loc[tok]
        ids = sorted(posting[tok])
        assert row["df"] == len(ids)
        assert row["total_tf"] == sum(posting[tok].values())
        assert row["postings"] == ",".join(str(i) for i in ids[:8])


# --- sessionization / sampling / grouped ranking ----------------------------

def test_sessionize_events_invariants(ray_session):
    """Per-user sessions partition the user's events; boundaries are gaps
    strictly over the timeout; within-session consecutive gaps are <= it."""
    import numpy as np
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.sessions import sessionize_events

    sf = "/root/testdata/sf0.001"
    ev = pq.read_table(f"{sf}/events.parquet", columns=["user_id", "ts"]).to_pandas()
    df = sessionize_events(sf, gap_s=1800).to_pandas()
    # every event accounted for exactly once
    assert df.groupby("user_id")["n_events"].sum().sort_index().equals(
        ev.groupby("user_id").size().sort_index().astype("int64")
    )
    for uid, g in df.groupby("user_id"):
        g = g.sort_values("session_num").reset_index(drop=True)
        assert list(g["session_num"]) == list(range(1, len(g) + 1))
        assert (g["end_ts"] >= g["start_ts"]).all()
        # sessions are time-ordered and separated by > 1800 s
        gaps = (
            g["start_ts"].iloc[1:].to_numpy().astype("datetime64[us]").astype("int64")
            - g["end_ts"].iloc[:-1].to_numpy().astype("datetime64[us]").astype("int64")
        )
        assert (gaps > 1800 * 1_000_000).all()


def test_event_transitions_crafted(ray_session, tmp_path):
    """Pins the transition rules: per-user (ts, event_id) order, ties on
    ts broken by event_id, no pairs across user boundaries, single-event
    users contribute nothing."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.sessions import event_transitions

    ev = pd.DataFrame(
        {
            "event_id": [1, 2, 3, 4, 5, 6, 7],
            "ts": pd.to_datetime(
                [
                    "2024-01-01 00:00:00",  # u1: a
                    "2024-01-01 00:01:00",  # u1: b
                    "2024-01-01 00:01:00",  # u1: c (ts tie with id 2 -> after b)
                    "2024-01-01 00:00:00",  # u2: b
                    "2024-01-01 00:02:00",  # u2: a
                    "2024-01-01 00:03:00",  # u2: a
                    "2024-01-01 00:00:00",  # u3: singleton
                ]
            ),
            "user_id": [1, 1, 1, 2, 2, 2, 3],
            "event_type": ["a", "b", "c", "b", "a", "a", "z"],
        }
    )
    pq.write_table(pa.Table.from_pandas(ev, preserve_index=False),
                   tmp_path / "events.parquet")
    got = event_transitions(str(tmp_path))
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    got = got.sort_values(["prev_type", "next_type"]).reset_index(drop=True)
    exp = pd.DataFrame(
        {
            "prev_type": ["a", "a", "b", "b"],
            "next_type": ["a", "b", "a", "c"],
            "n": pd.Series([1, 1, 1, 1], dtype="int64"),
        }
    )
    assert got.equals(exp)


def test_rollup_revenue_levels_consistent(ray_session):
    """Subtotal invariants: region rows sum their nations, ALL/ALL sums
    the regions, and the finest level matches revenue_by_nation."""
    import pandas as pd

    from webarchive_discovery_ray.pipelines.aggregates import (
        revenue_by_nation,
        rollup_revenue,
    )

    sf = "/root/testdata/sf0.001"
    df = rollup_revenue(sf)
    df = df if isinstance(df, pd.DataFrame) else df.to_pandas()
    finest = df[(df["r_name"] != "ALL") & (df["n_name"] != "ALL")]
    regions = df[(df["r_name"] != "ALL") & (df["n_name"] == "ALL")]
    total = df[(df["r_name"] == "ALL") & (df["n_name"] == "ALL")]
    assert len(total) == 1
    assert total["n_orders"].iloc[0] == finest["n_orders"].sum()
    assert abs(total["revenue"].iloc[0] - finest["revenue"].sum()) < 1e-6
    by_r = finest.groupby("r_name")["n_orders"].sum()
    for _, row in regions.iterrows():
        assert row["n_orders"] == by_r[row["r_name"]]
    rbn = revenue_by_nation(sf).to_pandas().set_index("n_name")
    for _, row in finest.iterrows():
        assert row["n_orders"] == rbn.loc[row["n_name"], "n_orders"]
        assert row["revenue"] == rbn.loc[row["n_name"], "revenue"]


def test_stratified_sample_deterministic_and_bounded(ray_session):
    from webarchive_discovery_ray.pipelines.sessions import stratified_sample_events

    sf = "/root/testdata/sf0.001"
    a = stratified_sample_events(sf, k=7).to_pandas()
    b = stratified_sample_events(sf, k=7).to_pandas()
    key = ["event_type", "event_id", "rank"]
    assert a.sort_values(key).reset_index(drop=True).equals(
        b.sort_values(key).reset_index(drop=True)
    )
    per = a.groupby("event_type")
    assert (per.size() <= 7).all()
    for _, g in per:
        assert sorted(g["rank"]) == list(range(1, len(g) + 1))


def test_grouped_topk_docs_ranks(ray_session):
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.sessions import grouped_topk_docs

    sf = "/root/testdata/sf0.001"
    docs = pq.read_table(
        f"{sf}/documents.parquet", columns=["doc_id", "lang", "source", "n_chars"]
    ).to_pandas()
    got = grouped_topk_docs(sf, k=2).to_pandas()
    want = (
        docs.sort_values(
            ["n_chars", "doc_id"], ascending=[False, True], kind="mergesort"
        )
        .groupby(["lang", "source"], sort=False)
        .head(2)
    )
    assert len(got) == len(want)
    gset = set(map(tuple, got[["lang", "source", "doc_id"]].to_numpy()))
    wset = set(map(tuple, want[["lang", "source", "doc_id"]].to_numpy()))
    assert gset == wset
    for _, g in got.groupby(["lang", "source"]):
        g = g.sort_values("rank")
        assert list(g["rank"]) == list(range(1, len(g) + 1))
        assert (g["n_chars"].diff().dropna() <= 0).all()


def test_dup_span_fraction_matches_sequential_reference(ray_session):
    """Distributed duplicated-window coverage == a brute-force sequential
    pass over the corpus (window counts -> per-doc interval union)."""
    from collections import Counter

    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.dedup import dup_span_fraction

    sf = "/root/testdata/sf0.001"
    w = 8
    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    counts: Counter = Counter()
    toks_of = {}
    for did, t in zip(docs["doc_id"], docs["text"]):
        toks = t.split()
        toks_of[did] = toks
        counts.update(
            " ".join(toks[i : i + w]) for i in range(len(toks) - w + 1)
        )
    want = {}
    for did, toks in toks_of.items():
        covered = set()
        for i in range(len(toks) - w + 1):
            if counts[" ".join(toks[i : i + w])] >= 2:
                covered.update(range(i, i + w))
        want[did] = (len(toks), len(covered))
    df = dup_span_fraction(sf, w=w).to_pandas().set_index("doc_id")
    assert len(df) == len(docs)
    assert any(n_cov > 0 for _, n_cov in want.values()), "fixture has no dup spans"
    for did, (n_tok, n_cov) in want.items():
        assert df.loc[did, "n_tokens"] == n_tok
        assert df.loc[did, "n_dup_tokens"] == n_cov
        frac = n_cov / n_tok if n_tok else 0.0
        assert df.loc[did, "dup_fraction"] == frac


def test_paragraph_dedup_matches_sequential_reference(ray_session):
    """Distributed paragraph dedup + reassembly == a brute-force first-
    occurrence pass over the corpus in (doc_id, para_idx) order."""
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.dedup import paragraph_dedup

    sf = "/root/testdata/sf0.001"
    w = 16
    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    docs = docs.sort_values("doc_id", kind="mergesort")
    seen: set[str] = set()
    want: dict[int, tuple[int, int, str]] = {}
    n_dropped_paras = 0
    for did, t in zip(docs["doc_id"], docs["text"]):
        toks = t.split()
        if not toks:
            continue
        paras = [" ".join(toks[p * w : (p + 1) * w]) for p in range((len(toks) + w - 1) // w)]
        kept = []
        for p in paras:
            if p in seen:
                n_dropped_paras += 1
            else:
                seen.add(p)
                kept.append(p)
        if kept:
            want[did] = (len(paras), len(kept), " ".join(kept))
    assert n_dropped_paras > 0, "fixture has no duplicated paragraphs"
    got = paragraph_dedup(sf, w=w).to_pandas().set_index("doc_id")
    assert len(got) == len(want)
    for did, (n_paras, n_kept, text) in want.items():
        assert got.loc[did, "n_paras"] == n_paras
        assert got.loc[did, "n_kept"] == n_kept
        assert got.loc[did, "text"] == text


def test_incremental_dedup_matches_sequential_reference(ray_session):
    """Bloom-prefiltered increment-vs-snapshot dedup == brute force: keep
    the min-doc_id occurrence of each delta hash absent from the base."""
    import hashlib

    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.dedup import incremental_dedup

    sf = "/root/testdata/sf0.001"
    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    docs = docs[docs["text"].str.strip() != ""]
    h = docs["text"].map(
        lambda t: hashlib.md5(" ".join(t.split()[:16]).encode()).hexdigest()
    )
    base_h = set(h[docs["doc_id"] % 2 == 0])
    delta = (
        pd.DataFrame({"doc_id": docs["doc_id"], "h": h})[docs["doc_id"] % 2 == 1]
        .sort_values("doc_id", kind="mergesort")
    )
    want: dict[str, int] = {}
    n_base_hits = 0
    for did, hh in zip(delta["doc_id"], delta["h"]):
        if hh in base_h:
            n_base_hits += 1
        elif hh not in want:
            want[hh] = did
    assert n_base_hits > 0, "fixture increment never collides with snapshot"
    got = incremental_dedup(sf).to_pandas()
    assert len(got) == len(want)
    assert dict(zip(got["h"], got["doc_id"])) == want


def test_host_link_graph_totals(ray_session):
    """Edge weights sum to the total outlink-host mentions of the base."""
    from webarchive_discovery_ray.pipelines.stats import _docs_ds, host_link_graph

    base = _docs_ds(120).materialize()
    total = sum(
        len(r) for r in base.select_columns(["links_hosts"]).to_pandas()["links_hosts"]
    )
    g = host_link_graph(docs=base).to_pandas()
    assert g["n_links"].sum() == total
    assert (g["n_links"] >= 1).all()
    assert not g.duplicated(["src_host", "dst_host"]).any()


def test_tfidf_top_terms_reference(ray_session):
    """Distributed tf/df ranking == a sequential pandas reference."""
    from collections import Counter

    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.textops import tfidf_top_terms

    sf = "/root/testdata/sf0.001"
    tbl = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    dfreq: Counter = Counter()
    tfs = {}
    for d, t in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()):
        c = Counter(t.split())
        tfs[d] = c
        dfreq.update(c.keys())
    got = tfidf_top_terms(sf, k=3).to_pandas()
    for did, g in got.groupby("doc_id"):
        want = sorted(
            ((tf / dfreq[tok], tok, tf) for tok, tf in tfs[did].items()),
            key=lambda x: (-x[0], x[1]),
        )[:3]
        g = g.sort_values("rank")
        assert list(g["token"]) == [w[1] for w in want]
        assert list(g["tf"]) == [w[2] for w in want]
        assert list(g["df"]) == [dfreq[w[1]] for w in want]
        assert list(g["rank"]) == list(range(1, len(g) + 1))
    assert set(got["doc_id"]) == set(tfs) - {
        d for d, c in tfs.items() if not c
    }


def test_capture_intervals_stats(ray_session):
    """Grouped capture stats == pandas groupby over the same captures."""
    from webarchive_discovery_ray.pipelines.cdx import capture_intervals, cdx_sorted

    caps = cdx_sorted(150).materialize()
    ref = caps.to_pandas()
    got = capture_intervals(caps).to_pandas().set_index("surt_key")
    want = ref.groupby("surt_key").agg(
        n_captures=("timestamp14", "size"),
        first_ts14=("timestamp14", "min"),
        last_ts14=("timestamp14", "max"),
        n_versions=("digest", "nunique"),
    )
    assert len(got) == len(want)
    for k, row in want.iterrows():
        assert got.loc[k, "n_captures"] == row["n_captures"]
        assert got.loc[k, "first_ts14"] == row["first_ts14"]
        assert got.loc[k, "last_ts14"] == row["last_ts14"]
        assert got.loc[k, "n_versions"] == row["n_versions"]


def test_anti_join_orders_complement(ray_session):
    """Anti-join output is exactly orders minus the semi-join side."""
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.aggregates import anti_join_orders

    sf = "/root/testdata/sf0.001"
    orders = pq.read_table(f"{sf}/orders.parquet", columns=["o_orderkey"])
    li = pq.read_table(f"{sf}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]).to_pandas()
    hot = set(li.loc[li["l_quantity"] > 45.0, "l_orderkey"])
    want = set(orders["o_orderkey"].to_pylist()) - hot
    got = anti_join_orders(sf).to_pandas()
    assert set(got["o_orderkey"]) == want
    assert len(got) == len(want)


def test_grouped_quantiles_matches_numpy(ray_session):
    import numpy as np
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.aggregates import grouped_quantiles

    sf = "/root/testdata/sf0.001"
    ev = pq.read_table(f"{sf}/events.parquet", columns=["event_type", "value"]).to_pandas()
    got = grouped_quantiles(sf)
    for (t, q), sub in got.set_index(["event_type", "q"]).groupby(level=[0, 1]):
        vals = np.sort(ev.loc[ev["event_type"] == t, "value"].to_numpy())
        assert sub["value"].iloc[0] == vals[int(np.floor(q * (len(vals) - 1)))]


def test_source_mix_ratio_ladder(ray_session):
    from webarchive_discovery_ray.pipelines.sessions import source_mix

    sf = "/root/testdata/sf0.001"
    got = source_mix(sf, per_unit=2).to_pandas()
    per = got.groupby("source").size()
    for src, n in per.items():
        i = int(src.replace("src", ""))
        assert n <= 2 * (i + 1)
        assert sorted(got.loc[got["source"] == src, "rank"]) == list(range(1, n + 1))
    # determinism
    again = source_mix(sf, per_unit=2).to_pandas()
    key = ["source", "doc_id", "rank"]
    assert got.sort_values(key).reset_index(drop=True).equals(
        again.sort_values(key).reset_index(drop=True)
    )


def test_sq8_quantize_matches_numpy_reference(ray_session):
    import numpy as np
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.similarity import sq8_quantize

    sf = "/root/testdata/sf0.001"
    tbl = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
    mat = np.stack([np.asarray(e, dtype=np.float64) for e in tbl["embedding"].to_pylist()])
    lo, hi = mat.min(axis=0), mat.max(axis=0)
    scale = np.where(hi > lo, (hi - lo) / 255.0, 1.0)
    want = np.clip(np.round((mat - lo) / scale), 0, 255).astype(np.uint8)
    got = sq8_quantize(sf).to_pandas().set_index("vec_id")
    assert len(got) == len(mat)
    for vid, row in zip(tbl["vec_id"].to_pylist(), want):
        assert got.loc[vid, "codes"] == row.tobytes().hex()
    # reconstruction error bounded by half a quantization step per dim
    assert (got["max_abs_err"] <= scale.max() / 2 + 1e-12).all()


def test_sq8_topk_recall_vs_exact(ray_session):
    from webarchive_discovery_ray.pipelines.similarity import (
        ann_cosine_topk,
        sq8_cosine_topk,
    )

    sf = "/root/testdata/sf0.001"
    exact = ann_cosine_topk(sf).to_pandas()
    approx = sq8_cosine_topk(sf).to_pandas()
    assert len(approx) == len(exact)
    hits = 0
    for qid, g in exact.groupby("query_vec_id"):
        e = set(g["vec_id"])
        a = set(approx.loc[approx["query_vec_id"] == qid, "vec_id"])
        hits += len(e & a) / len(e)
    recall = hits / exact["query_vec_id"].nunique()
    assert recall >= 0.9, f"SQ8 top-k recall {recall:.2f} < 0.9"


def test_outer_join_customer_orders_includes_zero_order_customers(
    ray_session, tmp_path
):
    """Left-outer semantics: every customer appears — including an
    injected customer with NO orders (the fixture's referential
    integrity means every stock customer has some); totals match a
    pandas reference in exact cents."""
    import numpy as np
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.relational import (
        outer_join_customer_orders,
    )

    src = "/root/testdata/sf0.001"
    base_cust = pq.read_table(f"{src}/customer.parquet")
    extra = {name: [None] for name in base_cust.column_names}
    extra["c_custkey"] = [999_999]
    import pyarrow as pa_mod

    pq.write_table(
        pa_mod.concat_tables(
            [base_cust, pa_mod.Table.from_pydict(extra, schema=base_cust.schema)]
        ),
        str(tmp_path / "customer.parquet"),
    )
    import shutil

    shutil.copy(f"{src}/orders.parquet", str(tmp_path / "orders.parquet"))
    sf = str(tmp_path)
    cust = pq.read_table(f"{sf}/customer.parquet", columns=["c_custkey"]).to_pandas()
    orders = pq.read_table(
        f"{sf}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).to_pandas()
    orders["c"] = np.floor(orders["o_totalprice"].to_numpy() * 100 + 0.5).astype(
        "int64"
    )
    agg = orders.groupby("o_custkey").agg(n=("o_custkey", "size"), c=("c", "sum"))
    got = outer_join_customer_orders(sf).to_pandas().set_index("c_custkey")
    assert set(got.index) == set(cust["c_custkey"])
    for ck in cust["c_custkey"]:
        n = int(agg["n"].get(ck, 0))
        c = int(agg["c"].get(ck, 0))
        assert got.loc[ck, "n_orders"] == n
        assert got.loc[ck, "total_spent"] == c / 100.0
    assert (got["n_orders"] == 0).any(), "fixture must have orderless customers"


def test_hosts_report_mapper_semantics(ray_session):
    """Pin HostsReportMapper.java:41-91 field semantics over hand-written
    Heritrix crawl.log lines: 12-field gate, failure-code skip with the
    -9998 robots exception, '-' size, dns: hosts, URI-regex skip,
    warcRevists:digest dup accounting."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import hosts_report

    L = [
        # plain fetch, 100 bytes
        "20140101 200 100 http://a.example/x LLE - html 1 t+1 sha1:AA - -",
        # revisit (dup-by-hash), 50 bytes
        "20140101 200 50 http://a.example/y LLE - html 1 t+1 sha1:AA - warcRevists:digest,ok",
        # robots fetch: -9998 kept, counts as robots, '-' size -> 0 bytes
        "20140101 -9998 - http://a.example/robots.txt LLE - text 1 t+1 sha1:BB - -",
        # failure code: skipped entirely
        "20140101 -5 77 http://a.example/z LLE - html 1 t+1 sha1:CC - -",
        # dns: URI maps to bare host
        "20140101 200 10 dns:b.example LLE - text/dns 1 t+1 sha1:DD - -",
        # URI that fails the ^https?://host/.*$ regex: skipped
        "20140101 200 10 ftp://c.example/x LLE - bin 1 t+1 sha1:EE - -",
        # malformed (11 fields): skipped
        "20140101 200 10 http://a.example/w LLE - html 1 t+1 sha1:FF -",
    ]
    got = {
        r["host"]: r
        for r in hosts_report(rd.from_items([{"line": x} for x in L])).take_all()
    }
    assert set(got) == {"a.example", "b.example"}
    a = got["a.example"]
    assert (a["n_urls"], a["n_bytes"], a["n_robots"]) == (3, 150, 1)
    assert (a["n_dup_urls"], a["n_dup_bytes"]) == (1, 50)
    b = got["b.example"]
    assert (b["n_urls"], b["n_bytes"], b["n_robots"], b["n_dup_urls"]) == (1, 10, 0, 0)


def test_year_host_outlinks_filters_and_counts(ray_session):
    """OutlinkExtractorMapper: responses with http(s) URLs only; counts
    are per distinct (year, src, dst) triple."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import year_host_outlinks

    rows = [
        {"record_type": "response", "url": "http://s.example/1",
         "crawl_year": "2014", "host": "s.example",
         "links_hosts": ["t.example", "t.example", "u.example"]},
        {"record_type": "response", "url": "http://s.example/2",
         "crawl_year": "2014", "host": "s.example",
         "links_hosts": ["t.example"]},
        {"record_type": "response", "url": "http://s.example/3",
         "crawl_year": "2015", "host": "s.example",
         "links_hosts": ["t.example"]},
        # dropped: non-response, non-http
        {"record_type": "request", "url": "http://s.example/4",
         "crawl_year": "2014", "host": "s.example", "links_hosts": ["x.example"]},
        {"record_type": "response", "url": "ftp://s.example/5",
         "crawl_year": "2014", "host": "s.example", "links_hosts": ["x.example"]},
    ]
    got = {
        (r["crawl_year"], r["src_host"], r["dst_host"]): r["n_links"]
        for r in year_host_outlinks(docs=rd.from_items(rows)).take_all()
    }
    assert got == {
        ("2014", "s.example", "t.example"): 3,
        ("2014", "s.example", "u.example"): 1,
        ("2015", "s.example", "t.example"): 1,
    }


def _write_documents(path, docs, parts=1):
    """``docs`` (doc_id, text) as ``documents.parquet``: one file, or a
    directory of ``parts`` files (one input block each)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    table = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([t for _, t in docs], pa.string()),
        }
    )
    if parts == 1:
        pq.write_table(table, str(path / "documents.parquet"))
        return
    (path / "documents.parquet").mkdir()
    step = -(-len(docs) // parts)
    for i in range(parts):
        pq.write_table(table.slice(i * step, step), str(path / "documents.parquet" / f"part-{i}.parquet"))


def test_exact_substring_spans_lemma(ray_session, tmp_path):
    """Character-level exact-dup spans: a shared 60-char substring between
    two docs yields exactly the maximal covering span in both (the
    duplicated-L-window union == duplicated-substring union lemma), and a
    WITHIN-doc repeat also counts."""
    from webarchive_discovery_ray.pipelines.dedup import exact_substring_spans

    shared = "S" * 25 + "0123456789" * 2 + "E" * 15  # 60 chars
    assert len(shared) == 60
    rep = "R" * 45  # within-doc duplicate, 45 chars
    _write_documents(
        tmp_path,
        [
            (1, "a" * 10 + shared + "b" * 10),  # span [10, 70)
            (2, "c" * 5 + shared + "d" * 20),  # span [5, 65)
            (3, "x" * 7 + rep + "y" * 9 + rep),  # two spans
        ],
    )
    got = sorted(
        (r["doc_id"], r["span_start"], r["span_end"])
        for r in exact_substring_spans(str(tmp_path)).take_all()
    )
    # doc 3: rep occurs at 7 and 61; "R"*45 self-overlaps, and the runs of
    # repeated chars inside docs 1/2 ("S"*25 etc.) stay below the 40-char
    # floor so they alone can't create windows — but rep's 40-char windows
    # duplicate across its two occurrences giving both full spans
    assert (1, 10, 70) in got and (2, 5, 65) in got
    d3 = [g for g in got if g[0] == 3]
    assert (3, 7, 52) in d3 and (3, 61, 106) in d3


def test_exact_substring_spans_count_code_points(ray_session, tmp_path):
    """Span positions are code-point offsets, as DuckDB's ``substr``
    counts them in the oracle SQL: after five ASCII and ten 2-byte
    characters the shared 60-char string spans [15, 75), not [25, 75)
    as UTF-8 byte offsets would put it."""
    from webarchive_discovery_ray.pipelines.dedup import exact_substring_spans

    shared = "S" * 25 + "0123456789" * 2 + "E" * 15
    _write_documents(tmp_path, [(1, "x" * 5 + "é" * 10 + shared), (2, "c" * 5 + shared)])
    got = sorted(
        (r["doc_id"], r["span_start"], r["span_end"])
        for r in exact_substring_spans(str(tmp_path)).take_all()
    )
    assert got == [(1, 15, 75), (2, 5, 65)]


def test_exact_substring_spans_matches_counter_reference(ray_session, tmp_path):
    """A random corpus over non-ASCII, astral and combining code points,
    with planted shared and repeated slices, read as two blocks: the
    spans equal the benchmark's pure-Python ``Counter`` reference."""
    import random

    from perfbench import reference
    from webarchive_discovery_ray.pipelines.dedup import exact_substring_spans

    rng = random.Random(17)
    alphabet = ["a", "b", " ", "é", "ß", "\u0301", "\u4e2d", "\U0001F600", "\U00010348"]
    texts: list[str] = []
    for _ in range(16):
        parts = []
        while sum(map(len, parts)) < rng.randint(20, 160):
            pool = texts + parts
            if pool and rng.random() < 0.4:
                src = rng.choice(pool)
                a = rng.randrange(len(src))
                parts.append(src[a : a + rng.randint(30, 70)])
            else:
                parts.append("".join(rng.choices(alphabet, k=rng.randint(1, 30))))
        texts.append("".join(parts))
    docs = list(enumerate(texts))
    _write_documents(tmp_path, docs, parts=2)
    got = {
        (r["doc_id"], r["span_start"], r["span_end"])
        for r in exact_substring_spans(str(tmp_path)).take_all()
    }
    want = reference.exact_substring_spans(docs)
    assert len(want) >= 5
    assert got == want


def test_exact_substring_dedup_apply_without_duplicates(ray_session, tmp_path):
    """A corpus with no repeated 40-char window (two distinct 46-char
    docs and a short one) has no spans: every doc comes back whole."""
    import hashlib

    from webarchive_discovery_ray.pipelines.dedup import exact_substring_dedup_apply

    docs = [(1, "abcdefghij" * 4 + "klmnop"), (2, "0123456789" * 4 + "qrstuv"), (3, "short")]
    for name, corpus in (("distinct", docs), ("short", docs[2:])):
        (tmp_path / name).mkdir()
        _write_documents(tmp_path / name, corpus)
        got = {
            r["doc_id"]: r for r in exact_substring_dedup_apply(str(tmp_path / name)).take_all()
        }
        assert sorted(got) == [d for d, _ in corpus]
        for d, text in corpus:
            assert got[d]["n_removed"] == 0 and got[d]["removed_chars"] == 0
            assert got[d]["cleaned_len"] == len(text)
            assert got[d]["cleaned_md5"] == hashlib.md5(text.encode("utf-8")).hexdigest()


def test_curate_passes_run_two_executions_each(ray_session, tmp_path, monkeypatch):
    """Below the size rule a corpus pass is its read, its fold tasks and
    its write: minhash, paragraph dedup, exact substring (spans and
    apply) and BPE each start exactly two Ray Data executions,
    write_parquet included."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from webarchive_discovery_ray.pipelines.dedup import (
        exact_substring_dedup_apply,
        exact_substring_spans,
        minhash_lsh_pairs,
        paragraph_dedup,
    )
    from webarchive_discovery_ray.pipelines.textops import bpe_train

    calls = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    sf_dir = "/root/testdata/sf0.001"
    got = {}
    for fn in (
        minhash_lsh_pairs,
        paragraph_dedup,
        exact_substring_spans,
        exact_substring_dedup_apply,
        bpe_train,
    ):
        calls.clear()
        fn(sf_dir).write_parquet(str(tmp_path / fn.__name__))
        got[fn.__name__] = len(calls)
    assert got == dict.fromkeys(got, 2)


def test_interleaved_pack_token_budget(ray_session):
    """Packing over interleaved text+media spans: text spans count their
    whitespace tokens, each media span charges the fixed vision-token
    cost, offsets are a global prefix sum in doc_id order and bin ranges
    follow the concat-and-chunk rule."""
    import pyarrow as pa
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import interleaved_pack

    def span(kind, text="", ref=""):
        return {"kind": kind, "text": text, "media_ref": ref, "offset": 0}

    rows = [
        {"doc_id": "a", "spans": [span("text", "one two three"),
                                  span("media", ref="img:1"),
                                  span("text", "four five")]},
        {"doc_id": "b", "spans": [span("media", ref="img:2"),
                                  span("media", ref="img:3")]},
        {"doc_id": "c", "spans": [span("text", "   ")]},  # 0 tokens
    ]
    got = {
        r["doc_id"]: r
        for r in interleaved_pack(
            rd.from_items(rows), context=100, media_tokens=64
        ).take_all()
    }
    a, b, c = got["a"], got["b"], got["c"]
    assert (a["n_text_tokens"], a["n_media_spans"], a["n_tokens"]) == (5, 1, 69)
    assert (b["n_text_tokens"], b["n_media_spans"], b["n_tokens"]) == (0, 2, 128)
    assert (c["n_text_tokens"], c["n_tokens"]) == (0, 0)
    # doc_id order a < b < c: offsets 0, 69, 197
    assert (a["tok_offset"], b["tok_offset"], c["tok_offset"]) == (0, 69, 197)
    assert (a["bin_start"], a["bin_end"]) == (0, 0)
    assert (b["bin_start"], b["bin_end"]) == (0, 1)  # 69..196 spans bins 0-1
    assert (c["bin_start"], c["bin_end"]) == (1, 1)  # empty doc collapses


def test_ngram_jaccard_pairs_matches_bruteforce(ray_session):
    """The prefix-filtered exact-Jaccard pipeline must equal brute-force
    all-pairs Jaccard (pairs AND scores) — i.e. the Bayardo prefix-filter
    candidate pruning is lossless for J >= t."""
    import itertools

    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.dedup import (
        _shingles,
        ngram_jaccard_pairs,
    )

    sf_dir = "/root/testdata/sf0.001"
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    shingled = {
        d: _shingles(t)
        for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    }
    expected = {}
    for a, b in itertools.combinations(sorted(shingled), 2):
        sa, sb = shingled[a], shingled[b]
        jac = len(sa & sb) / len(sa | sb) if sa | sb else 0.0
        if jac >= 0.3:
            expected[(a, b)] = round(jac, 6)

    got_df = ngram_jaccard_pairs(sf_dir).to_pandas()
    got = {
        (int(r.doc_a), int(r.doc_b)): round(float(r.jaccard), 6)
        for r in got_df.itertuples()
    }
    assert got == expected
    assert expected  # non-vacuous on the synthetic table


def test_ngram_jaccard_pairs_threshold_boundary(ray_session, tmp_path):
    """Pairs exactly at the threshold are kept; just below are dropped —
    and a qualifying pair whose ONLY shared grams are the corpus's hottest
    (which fall out of every prefix only when unneeded) is still found."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.dedup import ngram_jaccard_pairs

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    rows = [
        # docs 1/2: J = 8/10 = 0.8 >= 0.3 -> kept
        {"doc_id": 1, "text": base},                      # 8 grams
        {"doc_id": 2, "text": base + " lambda mu"},       # 10 grams, 8 shared
        # doc 3: shares ONLY the hottest gram with 1/2 but is tiny, so the
        # pair qualifies: grams(3) = {alpha beta gamma}; J(1,3) = 1/8 < 0.3
        {"doc_id": 3, "text": "alpha beta gamma"},
        # docs 4/5: disjoint tiny pair exactly at J = 1/3 >= 0.3
        {"doc_id": 4, "text": "one two three four"},      # 2 grams
        {"doc_id": 5, "text": "one two three five"},      # 2 grams, 1 shared
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([r["doc_id"] for r in rows], pa.int64()),
                "text": pa.array([r["text"] for r in rows], pa.string()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = {
        (int(r.doc_a), int(r.doc_b)): round(float(r.jaccard), 6)
        for r in ngram_jaccard_pairs(str(tmp_path)).to_pandas().itertuples()
    }
    assert got == {(1, 2): 0.8, (4, 5): 0.333333}


def test_mixture_weights_matches_sequential(ray_session):
    """Temperature weights equal a sequential pandas reference; the
    largest source gets weight 1.0 and weights are monotone in tokens."""
    import pandas as pd

    from webarchive_discovery_ray.pipelines.sessions import mixture_weights

    sf_dir = "/root/testdata/sf0.001"
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "text"])
    ref = (
        docs.assign(n_tokens=docs["text"].str.split().str.len())
        .groupby("source", as_index=False)
        .agg(n_docs=("n_tokens", "size"), n_tokens=("n_tokens", "sum"))
    )
    mx = ref["n_tokens"].max()
    ref["weight"] = ((ref["n_tokens"] / float(mx)) ** 0.7).round(6)

    got = mixture_weights(sf_dir).sort_values("source", ignore_index=True)
    ref = ref.sort_values("source", ignore_index=True).astype(
        {"n_docs": "int64", "n_tokens": "int64"}
    )
    pd.testing.assert_frame_equal(got, ref[got.columns])
    assert got.loc[got["n_tokens"].idxmax(), "weight"] == 1.0
    # monotone: more tokens, >= weight
    s = got.sort_values("n_tokens")
    assert (s["weight"].diff().dropna() >= 0).all()


def test_weighted_sample_matches_sequential(ray_session):
    """The distributed A-ES sample equals the brute-force top-k over
    ln(u)/n_tokens, ranks 1..k, and repeated runs are identical."""
    import hashlib

    import numpy as np
    import pandas as pd

    from webarchive_discovery_ray.pipelines.sessions import weighted_sample

    sf_dir = "/root/testdata/sf0.001"
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    n_tok = docs["text"].str.split().str.len().to_numpy(np.float64)
    h = np.array(
        [
            int(hashlib.md5(str(d).encode()).hexdigest()[:16], 16)
            for d in docs["doc_id"]
        ],
        dtype=np.uint64,
    )
    u = (h.astype(np.float64) + 1.0) / np.float64(2.0**64)
    key = np.log(u) / n_tok
    ref = (
        pd.DataFrame(
            {
                "doc_id": docs["doc_id"].astype("int64"),
                "n_tokens": n_tok.astype(np.int64),
                "key": key,
            }
        )
        .query("n_tokens > 0")
        .sort_values(["key", "doc_id"], ascending=[False, True])
        .head(20)
        .reset_index(drop=True)
    )
    got = weighted_sample(sf_dir, k=20).to_pandas()
    assert list(got["rank"]) == list(range(1, 21))
    assert list(got["doc_id"]) == list(ref["doc_id"])
    assert list(got["n_tokens"]) == list(ref["n_tokens"])
    again = weighted_sample(sf_dir, k=20).to_pandas()
    pd.testing.assert_frame_equal(got, again)


def test_span_quality_filter_reindex(ray_session):
    """Short text spans drop, media spans always survive, and new_idx /
    new_offset re-pack under the interleaved_pack cost model (text tokens
    + 64 per media span). Row-identity semantics: duplicate doc_ids are
    re-indexed independently."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import span_quality_filter

    def span(kind, text="", ref=""):
        return {"kind": kind, "text": text, "media_ref": ref, "offset": 0}

    rows = [
        {"doc_id": "a", "spans": [span("text", "one two three four"),  # 4 tok
                                  span("text", "hi"),                   # drop
                                  span("media", ref="img:1"),
                                  span("text", "five six seven")]},     # 3 tok
        {"doc_id": "b", "spans": [span("text", "x"),                    # drop
                                  span("text", "  ")]},                 # drop
        {"doc_id": "c", "spans": []},
        # duplicate doc_id: must re-index per ROW, not merged
        {"doc_id": "a", "spans": [span("media", ref="img:2")]},
    ]
    got = span_quality_filter(rd.from_items(rows)).to_pandas()
    recs = sorted(
        got.itertuples(index=False),
        key=lambda r: (r.doc_id, r.span_idx, r.kind, r.new_idx),
    )
    flat = [
        (r.doc_id, r.span_idx, r.kind, r.n_tok, r.new_idx, r.new_offset)
        for r in recs
    ]
    assert flat == [
        ("a", 1, "media", 64, 0, 0),        # the duplicate-doc_id row
        ("a", 1, "text", 4, 0, 0),
        ("a", 3, "media", 64, 1, 4),
        ("a", 4, "text", 3, 2, 68),
    ]
    # docs b (all dropped) and c (empty) emit nothing
    assert set(got["doc_id"]) == {"a"}


def test_lsh_cosine_topk_recall_and_self_rank(ray_session):
    """Multi-table sign-LSH: deterministic, self-vector always rank 1
    (identical codes collide in every table), and mean recall vs the
    exact scan clears the measured floor for this corpus's hard regime
    (true neighbours at cosine ~0.3; see docstring honesty note)."""
    import pandas as pd

    from webarchive_discovery_ray.pipelines.similarity import (
        ann_cosine_topk,
        lsh_cosine_topk,
    )

    sf = "/root/testdata/sf0.001"
    exact = ann_cosine_topk(sf).to_pandas()
    got = lsh_cosine_topk(sf).to_pandas()
    rec = []
    for q in exact["query_vec_id"].unique():
        e = set(exact[exact.query_vec_id == q].vec_id)
        g = set(got[got.query_vec_id == q].vec_id)
        rec.append(len(e & g) / len(e))
        top1 = got[(got.query_vec_id == q) & (got["rank"] == 1)]["vec_id"]
        assert list(top1) == [q]  # the query vector itself
    assert sum(rec) / len(rec) >= 0.35
    pd.testing.assert_frame_equal(
        got.sort_values(["query_vec_id", "rank"], ignore_index=True),
        lsh_cosine_topk(sf)
        .to_pandas()
        .sort_values(["query_vec_id", "rank"], ignore_index=True),
    )


def test_capture_diff_change_detection(ray_session):
    """Consecutive-digest comparison per SURT: changes counted in
    (timestamp14, digest) order, last_change_ts14 is the newest changed
    capture, never-changed and single-capture SURTs report ''."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.cdx import capture_diff

    def cap(surt, ts, dig):
        return {"surt_key": surt, "timestamp14": ts, "digest": dig}

    rows = [
        # a: v1 -> v1 (unchanged) -> v2 (change) -> v2 -> v3 (change)
        cap("com,a)/", "20200101000000", "v1"),
        cap("com,a)/", "20200201000000", "v1"),
        cap("com,a)/", "20200301000000", "v2"),
        cap("com,a)/", "20200401000000", "v2"),
        cap("com,a)/", "20200501000000", "v3"),
        # b: static
        cap("com,b)/", "20200101000000", "s"),
        cap("com,b)/", "20210101000000", "s"),
        # c: single capture
        cap("com,c)/", "20200101000000", "x"),
    ]
    got = {
        r["surt_key"]: r
        for r in capture_diff(rd.from_items(rows)).take_all()
    }
    a, b, c = got["com,a)/"], got["com,b)/"], got["com,c)/"]
    assert (a["n_captures"], a["n_changes"], a["n_unchanged"]) == (5, 2, 2)
    assert a["last_change_ts14"] == "20200501000000"
    assert (b["n_captures"], b["n_changes"], b["n_unchanged"]) == (2, 0, 1)
    assert b["last_change_ts14"] == ""
    assert (c["n_captures"], c["n_changes"], c["n_unchanged"]) == (1, 0, 0)
    assert c["last_change_ts14"] == ""


def test_doc_length_histogram_bins(ray_session, tmp_path):
    """Boundary tokens land in the right-open bins, zero bins are
    emitted, and counts sum to the corpus size."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.textops import doc_length_histogram

    texts = [
        " ".join(["w"] * n)
        for n in (0, 1, 15, 16, 31, 32, 511, 512, 600)
    ]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(tmp_path / "documents.parquet"),
    )
    got = doc_length_histogram(str(tmp_path))
    assert list(got["bin_ix"]) == [0, 1, 2, 3, 4, 5, 6]
    assert list(got["lo"]) == [0, 16, 32, 64, 128, 256, 512]
    assert list(got["hi"]) == [16, 32, 64, 128, 256, 512, -1]
    # n: 0,1,15 -> bin0; 16,31 -> bin1; 32 -> bin2; zero bins 3-5; 511 -> bin5; 512,600 -> bin6
    assert list(got["n_docs"]) == [3, 2, 1, 0, 0, 1, 2]
    assert got["n_docs"].sum() == len(texts)


def test_host_components_crafted_graph(ray_session):
    """Two link chains and an isolated host resolve to three components,
    each labelled by its minimum hashed host id; direction is ignored."""
    import hashlib

    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import host_components

    rows = [
        # component 1: a -> b -> c (chain, directed edges only one way)
        {"host": "a.example", "links_hosts": ["b.example"]},
        {"host": "b.example", "links_hosts": ["c.example"]},
        # component 2: x <-> y (cycle) + self-loop noise
        {"host": "x.example", "links_hosts": ["y.example", "x.example"]},
        {"host": "y.example", "links_hosts": ["x.example"]},
        # isolated: never linked, links nowhere
        {"host": "lonely.example", "links_hosts": []},
    ]
    got = {
        r["host"]: r["component_id"]
        for r in host_components(rd.from_items(rows)).take_all()
    }

    def hid(h):
        return int(hashlib.md5(h.encode()).hexdigest()[:15], 16)

    c1 = min(hid(h) for h in ("a.example", "b.example", "c.example"))
    c2 = min(hid(h) for h in ("x.example", "y.example"))
    assert got == {
        "a.example": c1,
        "b.example": c1,
        "c.example": c1,
        "x.example": c2,
        "y.example": c2,
        "lonely.example": hid("lonely.example"),
    }


def test_crawl_lineage_table(ray_session, tmp_path):
    """The lineage table carries one row per complete wave with monotone
    seq watermarks, fetch counts matching the manifests, and the wave's
    phase timings."""
    import json
    import os

    from webarchive_discovery_ray.config import CrawlConfig, SyntheticConfig
    from webarchive_discovery_ray.pipelines.crawl import run_crawl
    from webarchive_discovery_ray.sources.synthetic import seed_urls
    from webarchive_discovery_ray.state.checkpoint import crawl_lineage

    syn = SyntheticConfig(n_hosts=8, pages_per_host=40)
    ckpt = str(tmp_path / "ckpt")
    run_crawl(
        seed_urls(syn, 6),
        CrawlConfig(politeness_budget=3, max_waves=3),
        syn,
        fetch_concurrency=2,
        checkpoint_dir=ckpt,
    )
    df = crawl_lineage(ckpt)
    waves = sorted(
        int(n.split("_")[1]) for n in os.listdir(ckpt) if n.startswith("wave_")
    )
    assert list(df["wave"]) == waves
    assert (df["seq"].diff().dropna() >= 0).all()  # monotone watermark
    for _, row in df.iterrows():
        # iterrows upcasts a row to float once float (phase) columns exist
        m = json.load(
            open(os.path.join(ckpt, f"wave_{int(row['wave']):04d}", "manifest.json"))
        )
        assert row["n_fetched"] == m["n_fetched"]
    assert df["n_fetched"].sum() > 0
    # per-wave driver phase seconds, always recorded
    for phase in ("robots", "assemble", "exec", "split", "log", "discovery"):
        col = f"stat_phase_{phase}_s"
        assert col in df.columns
        assert (df[col] >= 0).all()


def test_gram_novelty_matches_sequential_reference(ray_session):
    """Distributed novelty == a brute-force first-occurrence scan over
    overlapping 8-token windows in (doc_id, pos) order."""
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.dedup import gram_novelty

    sf = "/root/testdata/sf0.001"
    w = 8
    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    docs = docs.sort_values("doc_id", kind="mergesort")
    seen: set[str] = set()
    want: dict[int, tuple[int, int]] = {}
    for did, t in zip(docs["doc_id"], docs["text"]):
        toks = t.split()
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
    got = gram_novelty(sf, w=w).to_pandas().set_index("doc_id")
    assert len(got) == len(want)
    saw_nonnovel = False
    for did, (n, novel) in want.items():
        assert got.loc[did, "n_windows"] == n
        assert got.loc[did, "n_novel"] == novel
        assert got.loc[did, "novelty"] == novel / n
        saw_nonnovel = saw_nonnovel or novel < n
    assert saw_nonnovel, "fixture has no repeated windows"


def test_vocab_coverage_matches_sequential(ray_session):
    """Distributed vocab build == a Counter over all tokens: same order
    (count desc, token asc), exact integer running mass."""
    from collections import Counter

    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.textops import vocab_coverage

    sf = "/root/testdata/sf0.001"
    texts = pq.read_table(f"{sf}/documents.parquet", columns=["text"])["text"].to_pylist()
    c: Counter = Counter()
    for t in texts:
        c.update(t.split())
    total = sum(c.values())
    want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:100]
    got = vocab_coverage(sf, k=100)
    assert len(got) == len(want)
    cum = 0
    for row, (tok, n) in zip(got.itertuples(), want):
        cum += n
        assert row.token == tok
        assert row.n == n
        assert row.cum_n == cum
        assert row.coverage == cum / total
    assert got["coverage"].iloc[-1] == 1.0 or len(c) > 100


def test_incremental_dedup_bloom_fp_safe(ray_session):
    """A deliberately tiny (64-bit) Bloom forces heavy false positives;
    the exact anti-join answer must not change — FPs only ship extra
    snapshot hashes into the verify."""
    from webarchive_discovery_ray.pipelines.dedup import incremental_dedup

    sf = "/root/testdata/sf0.001"
    big = incremental_dedup(sf).to_pandas()
    tiny = incremental_dedup(sf, bloom_bits=64).to_pandas()
    assert dict(zip(tiny["h"], tiny["doc_id"])) == dict(zip(big["h"], big["doc_id"]))


def test_arcname_conf_rules_reference_vectors():
    """WARCPayloadAnalysersTest.java:49-128 — the production rule set:
    the sample job-rule vector and every Statsbiblioteket/KB vector must
    produce exactly the reference's field bags."""
    from webarchive_discovery_ray.pipelines.enrich import arcname_analyse

    # testSampleRule
    got = arcname_analyse("whatever/localrun-job87-20150219-133227.warc")
    assert got["harvest_job"] == "job87"
    assert got["harvest_year"] == "2015"

    # testSBRules: (expected field bag, input name)
    vectors = [
        ({"arc_orig": "sb", "arc_harvesttime": "2008-02-21T00:35:33.000Z",
          "arc_job": "25666", "arc_harvest": "33",
          "arc_name": "25666-33-20080221003533-00046-sb-prod-har-004.arc",
          "arc_full": "25666-33-20080221003533-00046-sb-prod-har-004.arc"},
         "25666-33-20080221003533-00046-sb-prod-har-004.arc"),
        ({"arc_orig": "sb", "arc_harvesttime": "2007-04-18T02:46:37.000Z",
          "arc_job": "15626", "arc_harvest": "38",
          "arc_name": "15626-38-20070418024637-00385-sb-prod-har-001.statsbiblioteket.dk.arc",
          "arc_full": "/netarkiv/0101/filedir/15626-38-20070418024637-00385-sb-prod-har-001.statsbiblioteket.dk.arc"},
         "/netarkiv/0101/filedir/15626-38-20070418024637-00385-sb-prod-har-001.statsbiblioteket.dk.arc"),
        ({"arc_orig": "kb", "arc_harvesttime": "2007-04-18T16:37:59.000Z",
          "arc_job": "15638", "arc_harvest": "38",
          "arc_name": "15638-38-20070418163759-00235-kb-prod-har-002.kb.dk.arc",
          "arc_full": "somepath/15638-38-20070418163759-00235-kb-prod-har-002.kb.dk.arc"},
         "somepath/15638-38-20070418163759-00235-kb-prod-har-002.kb.dk.arc"),
        ({"arc_orig": "kb", "arc_harvesttime": "2013-11-11T17:55:47.000Z",
          "arc_job": "193305", "arc_harvest": "197",
          "arc_name": "193305-197-20131111175547-00001-kb228081.kb.dk.warc",
          "arc_full": "193305-197-20131111175547-00001-kb228081.kb.dk.warc"},
         "193305-197-20131111175547-00001-kb228081.kb.dk.warc"),
        ({"arc_orig": "kb", "arc_harvesttime": "2012-10-18T21:02:45.000Z",
          "arc_job": "36861",
          "arc_name": "kb-pligtsystem-36861-20121018210245-00000.warc",
          "arc_full": "kb-pligtsystem-36861-20121018210245-00000.warc"},
         "kb-pligtsystem-36861-20121018210245-00000.warc"),
        ({"arc_orig": "metadata",
          "arc_name": "1298-metadata-2.arc",
          "arc_full": "anotherpath/1298-metadata-2.arc"},
         "anotherpath/1298-metadata-2.arc"),
        ({"arc_orig": "unknown",
          "arc_name": "ksjvksjfvsk",
          "arc_full": "ksjvksjfvsk"},
         "ksjvksjfvsk"),
        ({"arc_orig": "kb", "arc_harvesttime": "2017-06-22T19:31:08.196Z",
          "arc_job": "276809", "arc_harvest": "272",
          "arc_name": "276809-272-20170622193108196-00004-kb-prod-har-001.kb.dk.warc.gz",
          "arc_full": "/netarkiv/0116/filedir/276809-272-20170622193108196-00004-kb-prod-har-001.kb.dk.warc.gz"},
         "/netarkiv/0116/filedir/276809-272-20170622193108196-00004-kb-prod-har-001.kb.dk.warc.gz"),
    ]
    for expected, name in vectors:
        got = arcname_analyse(name)
        for field, value in expected.items():
            assert got.get(field) == value, (name, field, got.get(field))


def test_arcname_conf_fields_batch_schema(ray_session):
    """Batch wrapper: fixed nullable schema, per-file name cache."""
    import pyarrow as pa

    from webarchive_discovery_ray.pipelines.enrich import (
        ARCNAME_CONF_FIELDS,
        arcname_conf_fields_batch,
    )

    batch = pa.table(
        {
            "source_file": [
                "25666-33-20080221003533-00046-sb-prod-har-004.arc",
                "25666-33-20080221003533-00046-sb-prod-har-004.arc",
                "whatever/localrun-job87-20150219-133227.warc",
            ]
        }
    )
    out = arcname_conf_fields_batch(batch)
    for f in ARCNAME_CONF_FIELDS:
        assert f in out.column_names
    rows = out.to_pylist()
    assert rows[0]["arc_orig"] == rows[1]["arc_orig"] == "sb"
    assert rows[2]["harvest_job"] == "job87" and rows[2]["arc_orig"] is None


def test_winnow_positions_matches_sequential_and_guarantee(ray_session):
    """Distributed robust winnowing == brute-force rightmost-min scan;
    plus the scheme's guarantees: gaps between consecutive selections
    are <= w, and two docs sharing a >= w+k-1-token run share a
    fingerprint hash."""
    import hashlib

    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.textops import winnow_positions

    sf = "/root/testdata/sf0.001"
    k, w = 3, 4
    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    want: set[tuple[int, int, int]] = set()
    per_doc_pos: dict[int, list[int]] = {}
    for did, t in zip(docs["doc_id"], docs["text"]):
        toks = t.split()
        n = len(toks) - k + 1
        if n < w:
            continue
        hashes = [
            int.from_bytes(hashlib.md5(" ".join(toks[i : i + k]).encode()).digest()[:8], "big")
            for i in range(n)
        ]
        sel = set()
        for end in range(w - 1, n):
            window = hashes[end - w + 1 : end + 1]
            mn = min(window)
            # rightmost minimal position
            off = max(j for j in range(w) if window[j] == mn)
            sel.add(end - w + 1 + off)
        per_doc_pos[did] = sorted(sel)
        for p in sel:
            want.add((did, p, hashes[p]))
    got = winnow_positions(sf).to_pandas()
    assert {(r.doc_id, r.pos, int(r.h)) for r in got.itertuples()} == want
    # guarantee 1: selection density — consecutive selections <= w apart
    for did, ps in per_doc_pos.items():
        gaps = [b - a for a, b in zip(ps, ps[1:])]
        assert all(g <= w for g in gaps), did
    # guarantee 2: find two docs sharing a long token run; they must
    # share at least one fingerprint hash
    by_doc = got.groupby("doc_id")["h"].agg(set)
    texts = dict(zip(docs["doc_id"], docs["text"]))
    found = False
    for a in per_doc_pos:
        ta = texts[a].split()
        for b in per_doc_pos:
            if b <= a:
                continue
            tb = texts[b].split()
            run = " ".join(ta[: w + k - 1])
            if len(ta) >= w + k - 1 and run in " ".join(tb):
                assert by_doc[a] & by_doc[b], (a, b)
                found = True
                break
        if found:
            break


def test_winnow_neardup_pairs_matches_sequential(ray_session):
    """Distributed MOSS match step == brute force over the sequential
    winnowing index, incl. the document-frequency stop-band cap."""
    import hashlib
    from collections import Counter, defaultdict

    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.textops import winnow_neardup_pairs

    sf = "/root/testdata/sf0.001"
    k, w, min_shared, max_df = 3, 4, 2, 50
    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    holders: dict[int, set[int]] = defaultdict(set)
    for did, t in zip(docs["doc_id"], docs["text"]):
        toks = t.split()
        n = len(toks) - k + 1
        if n < w:
            continue
        hashes = [
            int.from_bytes(hashlib.md5(" ".join(toks[i : i + k]).encode()).digest()[:8], "big")
            for i in range(n)
        ]
        for end in range(w - 1, n):
            window = hashes[end - w + 1 : end + 1]
            mn = min(window)
            off = max(j for j in range(w) if window[j] == mn)
            holders[hashes[end - w + 1 + off]].add(did)
    pair_counts: Counter = Counter()
    saw_capped = False
    for h, ds_ in holders.items():
        if len(ds_) > max_df:
            saw_capped = True
            continue
        ds_sorted = sorted(ds_)
        for i, a in enumerate(ds_sorted):
            for b in ds_sorted[i + 1 :]:
                pair_counts[(a, b)] += 1
    want = {p: c for p, c in pair_counts.items() if c >= min_shared}
    got = winnow_neardup_pairs(sf).to_pandas()
    assert {(r.a, r.b): r.n_shared for r in got.itertuples()} == want
    assert want, "fixture has no winnow near-dup pairs"


def test_host_triangles_crafted_graph(ray_session):
    """K4 on {a,b,c,d} (4 triangles) + a pendant edge d->e (wedges but no
    new triangle) + self-loop and reverse-direction noise. n_edges counts
    the undirected simple graph; wedges = sum C(deg,2)."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import host_triangles

    rows = [
        {"host": "a.ex", "links_hosts": ["b.ex", "c.ex", "d.ex", "a.ex"]},
        {"host": "b.ex", "links_hosts": ["c.ex", "d.ex", "a.ex"]},  # b->a reverse dup
        {"host": "c.ex", "links_hosts": ["d.ex"]},
        {"host": "d.ex", "links_hosts": ["e.ex"]},
    ]
    got = host_triangles(docs=rd.from_items(rows))
    rec = got.to_dict("records")[0]
    # K4: 6 edges + pendant = 7; degrees a=3 b=3 c=3 d=4 e=1
    # wedges = 3+3+3+6+0 = 15; triangles = C(4,3) = 4
    assert rec == {
        "n_edges": 7,
        "n_wedges": 15,
        "n_triangles": 4,
        "clustering_ppm": (1_000_000 * 12) // 15,
    }


def test_media_captions_crafted(ray_session):
    """Pins the adjacency rules: after wins, before is the fallback, a
    media run's inner members fall back to the preceding text, solo
    media ships uncaptioned, per-doc 0-based media ordinals."""
    import pyarrow as pa
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import media_captions

    span_t = pa.struct(
        [
            ("kind", pa.string()),
            ("text", pa.string()),
            ("media_ref", pa.string()),
            ("offset", pa.int64()),
        ]
    )

    def sp(kind, text=None, ref=None):
        return {"kind": kind, "text": text, "media_ref": ref, "offset": 0}

    rows = [
        [sp("text", "intro"), sp("media", None, "img1"), sp("text", "cap1"),
         sp("image", None, "img2"), sp("media", None, "img3"), sp("text", "cap3")],
        [sp("media", None, "solo")],
        [sp("text", "t"), sp("image", None, "endimg")],
        [sp("title", "only")],
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "spans": pa.array(rows, pa.list_(span_t)),
        }
    )
    got = (
        media_captions(rd.from_arrow(tbl))
        .to_pandas()
        .sort_values(["doc_id", "media_idx"])
        .reset_index(drop=True)
    )
    want = [
        (1, 0, "img1", "cap1", "after"),
        (1, 1, "img2", "cap1", "before"),
        (1, 2, "img3", "cap3", "after"),
        (2, 0, "solo", "", "none"),
        (3, 0, "endimg", "t", "before"),
    ]
    assert [
        (r.doc_id, r.media_idx, r.media_ref, r.caption, r.caption_src)
        for r in got.itertuples()
    ] == want
    assert list(got["caption_chars"]) == [4, 4, 4, 0, 1]


def test_kcore_crafted_graph(ray_session):
    """K4 {a,b,c,d} (core 3) + pendant chain d-e-f (cores 1) + self-loop
    and reverse-direction noise; the H-operator fixpoint must equal the
    peeling core numbers."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import kcore_hosts

    rows = [
        {"host": "a.ex", "links_hosts": ["b.ex", "c.ex", "d.ex", "a.ex"]},
        {"host": "b.ex", "links_hosts": ["c.ex", "d.ex", "a.ex"]},
        {"host": "c.ex", "links_hosts": ["d.ex"]},
        {"host": "d.ex", "links_hosts": ["e.ex"]},
        {"host": "e.ex", "links_hosts": ["f.ex"]},
    ]
    got = kcore_hosts(docs=rd.from_items(rows)).to_pandas()
    want = {"a.ex": 3, "b.ex": 3, "c.ex": 3, "d.ex": 3, "e.ex": 1, "f.ex": 1}
    assert dict(zip(got["host"], got["core"])) == want


def test_kcore_edgeless_graph_keeps_its_columns(ray_session):
    """A graph with only a self-loop and a host without links has no
    edge: kcore_hosts returns no row, with its documented columns, as
    cocitation_hosts does on the same input."""
    import pyarrow as pa
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import cocitation_hosts, kcore_hosts

    rows = [{"host": "a.ex", "links_hosts": ["a.ex"]}, {"host": "b.ex", "links_hosts": []}]
    got = kcore_hosts(docs=rd.from_items(rows))
    assert got.count() == 0
    schema = got.schema()
    assert schema is not None
    assert list(schema.names) == ["host", "core"]
    assert list(schema.types) == [pa.string(), pa.int64()]
    assert cocitation_hosts(docs=rd.from_items(rows)).schema() is not None


def test_host_assortativity_star_is_minus_one(ray_session):
    """A star K1,3 is perfectly disassortative: r = -1 exactly (integer
    moments: m=6, sx=12, sxy=18, sx2=30). Self-loop + reverse noise."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import host_assortativity

    rows = [
        {"host": "c.ex", "links_hosts": ["l1.ex", "l2.ex", "l3.ex", "c.ex"]},
        {"host": "l1.ex", "links_hosts": ["c.ex"]},  # reverse dup
    ]
    rec = host_assortativity(docs=rd.from_items(rows)).to_dict("records")[0]
    assert rec == {
        "m_samples": 6,
        "sum_x": 12,
        "sum_xy": 18,
        "sum_x2": 30,
        "assortativity_r": -1.0,
    }


def test_cocitation_crafted_cap_and_support(ray_session):
    """Pins the stop-band + support rules: a src over the out-degree cap
    generates no pairs AND counts toward no in-degree; pairs below
    min_co drop; self-loops excluded; jaccard over capped in-degrees."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import cocitation_hosts

    rows = [
        {"host": "s1.ex", "links_hosts": ["x.ex", "y.ex", "s1.ex"]},
        {"host": "s2.ex", "links_hosts": ["x.ex", "y.ex"]},
        {"host": "s3.ex", "links_hosts": ["x.ex", "y.ex", "z.ex"]},  # deg 3 > cap
    ]
    got = cocitation_hosts(docs=rd.from_items(rows), cap=2, min_co=2).to_pandas()
    assert len(got) == 1
    r = got.iloc[0]
    assert (r["dst_a"], r["dst_b"], r["n_co"]) == ("x.ex", "y.ex", 2)
    # capped in-degrees: x=2, y=2; union = 2+2-2
    assert r["jaccard_ppm"] == (1_000_000 * 2) // 2


def test_unordered_pair_key_separator_no_collision(ray_session):
    """Regression: pandas Series `+` strips embedded NULs (numpy
    fixed-width unicode), so a \\x00-joined pair key degrades to plain
    concatenation and the distinct pairs (ab,c)/(a,bc) would collide into
    one reciprocity group. The \\x1f joiner keeps them distinct: two
    disjoint one-way edges => zero reciprocal."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import host_reciprocity

    rows = [
        {"host": "ab", "links_hosts": ["c"]},
        {"host": "bc", "links_hosts": ["a"]},  # unordered pair (a, bc)
    ]
    rec = host_reciprocity(docs=rd.from_items(rows)).to_dict("records")[0]
    assert rec == {"n_edges": 2, "n_reciprocal": 0, "reciprocity_ppm": 0}


def test_merge_sorted_runs_crafted(ray_session):
    """Three pre-sorted runs with interleaved + duplicate keys merge into
    one globally sorted dataset; ties order by (run index, row position)
    — the pinned rule; content is exactly the input multiset."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from webarchive_discovery_ray.functions.merging import merge_sorted_runs

    runs_rows = [
        [("a", "1", 0), ("c", "1", 1), ("c", "2", 2), ("z", "9", 3)],
        [("b", "5", 10), ("c", "1", 11), ("d", "0", 12)],
        [("a", "0", 20), ("c", "1", 21)],
    ]
    runs = [
        rd.from_pandas(
            pd.DataFrame(r, columns=["k1", "k2", "payload"])
        ).materialize()
        for r in runs_rows
    ]
    out = merge_sorted_runs(runs, ["k1", "k2"], num_output_blocks=2).to_pandas()
    keys = list(zip(out["k1"], out["k2"]))
    assert keys == sorted(keys)
    # tie rule: the three ("c","1") rows appear in run order 0, 1, 2
    ties = out[(out["k1"] == "c") & (out["k2"] == "1")]["payload"].tolist()
    assert ties == [1, 11, 21]
    # multiset equality
    assert sorted(out["payload"]) == sorted(
        p for r in runs_rows for (_, _, p) in r
    )


def test_merge_sorted_runs_matches_full_sort(ray_session):
    """Merging two sorted halves of the captures base equals the full
    range-partitioned sort, key-sequence-identical."""
    import ray.data as rd

    import __ray_entry__ as em

    merged = em.queries()["cdx_merge"]("/root/testdata/sf0.001").to_pandas()
    ck = (merged["surt_key"] + "\x1f" + merged["timestamp14"]).tolist()
    assert ck == sorted(ck)


def test_span_windows_crafted(ray_session):
    """Pins the +-2 window rules: two text spans on one side count 2
    (the sf fixture never produces n=2 — this covers the k=2 shift),
    character mass sums over qualifying text spans only, windows clip at
    doc boundaries, non-text non-media neighbours (title/link) count 0,
    per-doc 0-based media ordinals."""
    import pyarrow as pa
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import span_windows

    span_t = pa.struct(
        [
            ("kind", pa.string()),
            ("text", pa.string()),
            ("media_ref", pa.string()),
            ("offset", pa.int64()),
        ]
    )

    def sp(kind, text=None, ref=None):
        return {"kind": kind, "text": text, "media_ref": ref, "offset": 0}

    rows = [
        # doc 1: [text(3), text(5), media, text(2), text(7)] -> 2/2, 17
        [sp("text", "abc"), sp("text", "defgh"), sp("media", None, "m"),
         sp("text", "ij"), sp("text", "klmnopq")],
        # doc 2: media at start, [media, title, text(4)] -> title blocks
        # nothing (positions count, kinds filter): after = text at +2
        [sp("media", None, "m"), sp("title", "T"), sp("text", "wxyz")],
        # doc 3: solo media -> all zeros; boundary must not leak doc 2/4
        [sp("image", None, "solo")],
        # doc 4: [text(1), image, image] -> first image 1 before; second
        # image: before = text at -2 (1 char), media at -1 not text
        [sp("text", "x"), sp("image", None, "a"), sp("image", None, "b")],
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "spans": pa.array(rows, pa.list_(span_t)),
        }
    )
    got = (
        span_windows(rd.from_arrow(tbl))
        .to_pandas()
        .sort_values(["doc_id", "media_idx"])
        .reset_index(drop=True)
    )
    want = [
        (1, 0, 2, 2, 3 + 5 + 2 + 7),
        (2, 0, 0, 1, 4),
        (3, 0, 0, 0, 0),
        (4, 0, 1, 0, 1),
        (4, 1, 1, 0, 1),
    ]
    assert list(
        got[["doc_id", "media_idx", "n_text_before", "n_text_after",
             "window_chars"]].itertuples(index=False, name=None)
    ) == want


def test_year_suffix_links_entity_mapper_semantics(ray_session):
    """EntityMapper.java:60-118: EVERY record contributes (no
    response/http gate); source suffix null -> "null"; dest suffixes are
    a per-record DISTINCT set with nulls skipped; the .uk override
    yields 2-level suffixes; a parse-failed record (no extracted links)
    emits nothing — the charset-failure drop rule's observable."""
    import ray.data as rd

    from webarchive_discovery_ray.pipelines.stats import year_suffix_links

    rows = [
        # two links to the same suffix -> ONE pair (the Java Set)
        {"crawl_year": "2014", "host": "a.site.com",
         "links_hosts": ["x.other.com", "y.other.com", "b.news.co.uk"]},
        # .uk override: source suffix is co.uk, not uk
        {"crawl_year": "2014", "host": "b.news.co.uk",
         "links_hosts": ["a.site.com"]},
        # unrecognised source suffix -> "null" (EntityMapper.java:98-99)
        {"crawl_year": "2014", "host": "weird.internal",
         "links_hosts": ["a.site.com"]},
        # null DEST suffixes are skipped, record still contributes others
        {"crawl_year": "2015", "host": "a.site.com",
         "links_hosts": ["weird.internal", "b.news.co.uk"]},
        # parse failure upstream = no links -> dropped entirely
        {"crawl_year": "2015", "host": "a.site.com", "links_hosts": []},
        # non-response records contribute too (no gate in EntityMapper)
        {"crawl_year": "2015", "host": "a.site.com",
         "links_hosts": ["x.other.com"]},
    ]
    got = {
        (r["crawl_year"], r["dst_suffix"], r["src_suffix"]): r["n"]
        for r in year_suffix_links(docs=rd.from_items(rows)).take_all()
    }
    assert got == {
        ("2014", "com", "com"): 1,
        ("2014", "co.uk", "com"): 1,
        ("2014", "com", "co.uk"): 1,
        ("2014", "com", "null"): 1,
        ("2015", "co.uk", "com"): 1,
        ("2015", "com", "com"): 1,
    }
