"""Corpus-curation operators (pipelines/curation.py) vs independent
sequential references over the sf0.001 fixture tables."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _docs():
    return pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).to_pylist()


def test_decontaminate_matches_sequential_set_logic(ray_session):
    from webarchive_discovery_ray.pipelines.curation import (
        _doc_grams,
        decontaminate,
    )

    docs = _docs()
    bench = set()
    for r in docs:
        if r["doc_id"] < 10:
            bench |= _doc_grams(r["text"])
    assert bench, "benchmark slice produced no shingles"
    expect = {
        r["doc_id"]: len(_doc_grams(r["text"]) & bench)
        for r in docs
        if r["doc_id"] >= 10
    }

    got = decontaminate(SF).to_pandas().set_index("doc_id")
    assert got["n_matches"].to_dict() == expect
    assert (got["contaminated"] == (got["n_matches"] > 0)).all()


def test_repetition_score_matches_sequential(ray_session):
    from webarchive_discovery_ray.pipelines.curation import repetition_score

    got = repetition_score(SF).to_pandas().set_index("doc_id")
    for r in _docs():
        w = r["text"].split(" ")
        dup_w = 1.0 - len(set(w)) / len(w)
        pairs = list(zip(w, w[1:]))
        dup_g = 1.0 - len(set(pairs)) / len(pairs) if pairs else 0.0
        assert got.loc[r["doc_id"], "dup_word_frac"] == pytest.approx(dup_w)
        assert got.loc[r["doc_id"], "dup_2gram_frac"] == pytest.approx(dup_g)


def test_pii_scrub_redaction_and_pseudonym(ray_session):
    import re

    from webarchive_discovery_ray.pipelines.curation import pii_scrub

    events = pq.read_table(
        f"{SF}/events.parquet", columns=["event_id", "user_id", "props"]
    ).to_pylist()
    got = pii_scrub(SF).to_pandas().set_index("event_id")
    assert len(got) == len(events)
    for r in events[:50]:
        row = got.loc[r["event_id"]]
        assert row["props_redacted"] == re.sub(r"[0-9]+", "<NUM>", r["props"])
        assert row["n_redactions"] == len(re.findall(r"[0-9]+", r["props"]))
        assert (
            row["user_pseudonym"]
            == hashlib.md5(f"pii-salt:{r['user_id']}".encode()).hexdigest()
        )
    # no digits survive redaction anywhere
    assert not got["props_redacted"].str.contains(r"[0-9]").any()
    # pseudonyms are stable: same user -> same pseudonym
    df = pd.DataFrame(events).merge(
        got.reset_index()[["event_id", "user_pseudonym"]], on="event_id"
    )
    assert (df.groupby("user_id")["user_pseudonym"].nunique() == 1).all()


def test_kmeans_matches_sequential_reference(ray_session):
    from webarchive_discovery_ray.pipelines.curation import (
        kmeans_embeddings,
        kmeans_reference,
    )

    got = (
        kmeans_embeddings(SF, k=4, n_iter=3)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    exp = (
        kmeans_reference(SF, k=4, n_iter=3)
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    assert (got["vec_id"].to_numpy() == exp["vec_id"].to_numpy()).all()
    # identical semantics; partial-sum order can differ in float eps, so
    # allow disagreement only where a point is near-equidistant
    diff = got["cluster"].to_numpy() != exp["cluster"].to_numpy()
    assert diff.mean() < 0.01, f"{diff.sum()} assignments diverged"
    # clusters are non-trivial: more than one cluster used
    assert got["cluster"].nunique() > 1


def test_kmeans_empty_cluster_keeps_centroid(ray_session):
    """k larger than the natural cluster count must not NaN out."""
    from webarchive_discovery_ray.pipelines.curation import kmeans_embeddings

    got = kmeans_embeddings(SF, k=12, n_iter=2).to_pandas()
    assert got["cluster"].between(0, 11).all()
    assert len(got) == len(pq.read_table(f"{SF}/embeddings.parquet"))


def test_quality_filter_threshold_semantics(ray_session):
    """Kept set == docs with ratio >= the exact corpus P25 (numpy ref)."""
    import numpy as np
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.curation import quality_filter

    sf = "/root/testdata/sf0.001"
    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    toks = docs["text"].str.split()
    n = toks.str.len().to_numpy()
    d = toks.map(lambda t: len(set(t))).to_numpy()
    r = np.where(n > 0, d / np.where(n > 0, n, 1), 0.0)
    thr = np.sort(r)[int(np.floor(0.25 * (len(r) - 1)))]
    want = set(docs.loc[r >= thr, "doc_id"])
    got = quality_filter(sf).to_pandas()
    assert set(got["doc_id"]) == want
    assert (got["distinct_ratio"] >= thr).all()


def test_unigram_logloss_matches_sequential_reference(ray_session):
    """Distributed train+score == a sequential numpy unigram LM."""
    import numpy as np
    from collections import Counter

    from webarchive_discovery_ray.pipelines.curation import unigram_logloss

    sf = "/root/testdata/sf0.001"
    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    counts = Counter()
    total = 0
    for t in docs["text"]:
        w = t.split()
        counts.update(w)
        total += len(w)
    vocab = dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:128])
    denom = total + len(vocab) + 1
    logp = {t: np.log((n + 1) / denom) for t, n in vocab.items()}
    oov = np.log(1.0 / denom)
    got = unigram_logloss(sf).to_pandas().set_index("doc_id")
    for did, text in zip(docs["doc_id"], docs["text"]):
        w = text.split()
        want = -np.mean([logp.get(t, oov) for t in w]) if w else 0.0
        assert got.loc[did, "logloss_r"] == round(float(want), 6)
        assert got.loc[did, "n_tokens"] == len(w)
    # OOV-heavy text must score strictly worse than pure-vocab text
    assert oov < min(logp.values())


def test_curation_pipeline_composes_components(ray_session):
    """The funnel == set algebra over its three component pipelines."""
    from webarchive_discovery_ray.pipelines.curation import (
        curation_pipeline,
        decontaminate,
        quality_filter,
    )
    from webarchive_discovery_ray.pipelines.dedup import minhash_lsh_pairs

    sf = "/root/testdata/sf0.001"
    kept = quality_filter(sf).to_pandas()
    pairs = minhash_lsh_pairs(sf).to_pandas()
    flags = decontaminate(sf).to_pandas()
    want = set(kept.loc[kept["doc_id"] >= 10, "doc_id"])
    want -= set(pairs["doc_b"])
    want -= set(flags.loc[flags["contaminated"], "doc_id"])
    got = curation_pipeline(sf).to_pandas()
    assert set(got["doc_id"]) == want
    assert not got["doc_id"].duplicated().any()
    # ratios pass through from the quality stage untouched
    ref = kept.set_index("doc_id")["distinct_ratio"]
    assert all(got.set_index("doc_id")["distinct_ratio"] == ref[got["doc_id"]].values)
    assert len(want) > 0 and len(want) < len(kept)


def _gopher_reference(doc_id, text):
    """Sequential single-doc reference for the Gopher rule vector."""
    w = [t for t in text.strip().split() if t]
    n_words = len(w)
    chars = sum(len(t) for t in w)
    n_alpha = sum(1 for t in w if any(c.isascii() and c.isalpha() for c in t))
    stops = ("the", "be", "to", "of", "and", "that", "have", "with")
    n_stop = sum(1 for s in stops if s in w)
    n_sym = text.count("#") + text.count("...") + text.count("…")
    lines = text.split("\n")
    n_lines = len(lines)
    n_bullet = sum(1 for l in lines if l.startswith("•") or l.startswith("- "))
    n_ell = sum(1 for l in lines if l.endswith("...") or l.endswith("…"))
    r = {
        "doc_id": doc_id,
        "n_words": n_words,
        "word_chars": chars,
        "n_alpha_words": n_alpha,
        "n_stop_distinct": n_stop,
        "n_symbols": n_sym,
        "n_lines": n_lines,
        "n_bullet_lines": n_bullet,
        "n_ellipsis_lines": n_ell,
        "rule_word_count": 50 <= n_words <= 100000,
        "rule_mean_word_len": n_words > 0
        and 3 * n_words <= chars <= 10 * n_words,
        "rule_symbol_ratio": n_words > 0 and 10 * n_sym <= n_words,
        "rule_bullet_lines": 10 * n_bullet <= 9 * n_lines,
        "rule_ellipsis_lines": 10 * n_ell <= 3 * n_lines,
        "rule_alpha_words": n_words > 0 and 5 * n_alpha >= 4 * n_words,
        "rule_stop_words": n_stop >= 2,
    }
    r["keep"] = all(
        r[k]
        for k in r
        if k.startswith("rule_")
    )
    return r


def test_gopher_rules_edge_cases(ray_session, tmp_path):
    """Hand-authored docs hit every rule boundary; the distributed op
    must agree with the sequential reference bit-for-bit."""
    import pyarrow as pa

    from webarchive_discovery_ray.pipelines.curation import gopher_rules

    good = "the be of and " + " ".join(f"word{i} nice" for i in range(30))
    docs = [
        (0, good),                                    # passes everything
        (1, "the of short doc"),                      # word-count fail
        (2, "the of " + "a " * 80),                   # mean-word-len low fail
        (3, good + " ###### ## # ..."),               # symbol-ratio fail
        (4, "\n".join("- " + good for _ in range(10))),   # bullet fail
        (5, good + "\n" + good + "...\nmore..."),     # ellipsis-lines fail
        (6, "the of " + " ".join(str(i) for i in range(60))),  # alpha fail
        (7, good.replace("the ", "").replace("of ", "x ").replace(
            "be ", "y ").replace("and ", "z ")),      # stopword fail
        (8, ""),                                      # empty doc
        (9, "…" + good + "…"),                        # unicode ellipsis chars
    ]
    pa.parquet.write_table(
        pa.table(
            {
                "doc_id": pa.array([d for d, _ in docs], pa.int64()),
                "text": pa.array([t for _, t in docs], pa.string()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = (
        gopher_rules(str(tmp_path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = pd.DataFrame([_gopher_reference(d, t) for d, t in docs])
    for col in want.columns:
        assert list(got[col]) == list(want[col]), col
    # the fixture exercises each rule: every rule column has a False
    for col in [c for c in want.columns if c.startswith("rule_")]:
        assert (~want[col]).any(), f"{col} never fails in fixture"
    assert want["keep"][0] and not want["keep"][1:].any()


def test_gopher_rules_corpus_keep_fraction(ray_session):
    """Over the synthetic corpus the rules must be non-degenerate
    (some docs kept, some dropped) and internally consistent."""
    from webarchive_discovery_ray.pipelines.curation import gopher_rules

    got = gopher_rules(SF).to_pandas()
    rules = [c for c in got.columns if c.startswith("rule_")]
    assert (got["keep"] == got[rules].all(axis=1)).all()
    assert got["n_words"].ge(got["n_alpha_words"]).all()


def test_semdedup_keep_min_id_rule(ray_session):
    """semdedup_keep == the sequential greedy min-id rule per label."""
    import numpy as np
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.dedup import semdedup_keep

    tbl = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    want = {}
    for _, grp in tbl.groupby("label"):
        grp = grp.sort_values("vec_id")
        mat = np.stack(grp["embedding"].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        mat = mat / norms[:, None]
        ids = grp["vec_id"].to_numpy()
        sims = mat @ mat.T
        for j in range(len(ids)):
            n_prior = int(np.sum(sims[:j, j] >= 0.35))
            want[int(ids[j])] = n_prior
    got = semdedup_keep(SF).to_pandas().set_index("vec_id")
    assert got["n_prior_dups"].astype(int).to_dict() == want
    assert (got["keep"] == (got["n_prior_dups"] == 0)).all()
    # non-degenerate both ways at this threshold
    assert got["keep"].any() and (~got["keep"]).any()


def test_dsir_weights_matches_sequential_reference(ray_session):
    """dsir_weights == a sequential single-process reference (hashed
    unigram+bigram buckets, add-one smoothed target/raw log ratio), and
    the signal points toward the target slice."""
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.curation import (
        DSIR_BUCKETS,
        dsir_weights,
    )

    tbl = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text", "lang"]
    ).to_pandas()

    def buckets(text):
        toks = text.split()
        grams = toks + [f"{a} {b}" for a, b in zip(toks, toks[1:])]
        return [
            int(hashlib.md5(g.encode()).hexdigest()[:16], 16) % DSIR_BUCKETS
            for g in grams
        ]

    n_raw = np.zeros(DSIR_BUCKETS)
    n_tgt = np.zeros(DSIR_BUCKETS)
    for _, r in tbl.iterrows():
        for b in buckets(r["text"]):
            n_raw[b] += 1
            if r["lang"] == "en":
                n_tgt[b] += 1
    ratio = np.log((n_tgt + 1) / (n_tgt.sum() + DSIR_BUCKETS)) - np.log(
        (n_raw + 1) / (n_raw.sum() + DSIR_BUCKETS)
    )
    got = dsir_weights(SF).to_pandas().set_index("doc_id")
    for _, r in tbl.iterrows():
        bs = buckets(r["text"])
        want = round(float(sum(ratio[b] for b in bs)), 6)
        assert got.loc[r["doc_id"], "logweight"] == pytest.approx(want, abs=2e-6)
        assert got.loc[r["doc_id"], "n_grams"] == len(bs)
    # importance weights must rank the target slice above the rest on mean
    m = tbl.set_index("doc_id")["lang"] == "en"
    assert got.loc[m[m].index, "logweight"].mean() > got.loc[
        m[~m].index, "logweight"
    ].mean()


def test_cluster_representatives_quality_argmax(ray_session):
    """cluster_representatives picks the max-distinct-ratio doc (min
    doc_id on ties) of every near-dup cluster; singletons represent
    themselves; exactly one rep per cluster."""
    import __ray_entry__ as entrymod

    got = entrymod.queries()["cluster_representatives"](SF).to_pandas()
    assert len(got) == 500
    reps = got[got["is_rep"]]
    # exactly one rep per cluster
    assert reps["cluster_id"].is_unique
    assert set(reps["cluster_id"]) == set(got["cluster_id"])
    # the rep maximizes (ratio, -doc_id) within its cluster
    for cid, grp in got.groupby("cluster_id"):
        best = grp.sort_values(
            ["distinct_ratio", "doc_id"], ascending=[False, True]
        ).iloc[0]
        rep = grp[grp["is_rep"]].iloc[0]
        assert rep["doc_id"] == best["doc_id"], cid
    # fixture must contain at least one multi-doc cluster
    assert (got.groupby("cluster_id").size() > 1).any()


def test_ann_hard_negatives_label_gate(ray_session):
    """Hard negatives: top-k by cosine among DIFFERENT-label vectors
    only, matching a sequential numpy reference."""
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.similarity import (
        ann_hard_negatives,
    )

    tbl = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    mat = np.stack(tbl["embedding"].to_numpy()).astype(np.float64)
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    mat = mat / norms[:, None]
    ids = tbl["vec_id"].to_numpy()
    labels = tbl["label"].to_numpy()
    got = ann_hard_negatives(SF).to_pandas()
    qmask = ids < 8
    for qi in np.flatnonzero(qmask):
        neg = labels != labels[qi]
        sims = np.round(mat[neg] @ mat[qi], 6)
        cand = ids[neg]
        order = np.lexsort((cand, -sims))[:5]
        want = list(cand[order])
        sub = got[got["query_vec_id"] == ids[qi]].sort_values("rank")
        assert list(sub["vec_id"]) == want
        # label gate: no same-label vector (hence never the query itself)
        lab = dict(zip(ids, labels))
        assert all(lab[v] != labels[qi] for v in sub["vec_id"])


def test_bucket_batches_layout_invariants(ray_session):
    """bucket_batches: exact floor-log2 buckets; ranks within each
    bucket are dense, doc_id-ordered, and chunked into batches of 32."""
    from webarchive_discovery_ray.pipelines.textops import bucket_batches

    got = bucket_batches(SF).to_pandas()
    assert len(got) == 500
    for _, r in got.iterrows():
        n = int(r["n_tokens"])
        want = 0 if n <= 0 else n.bit_length() - 1
        assert int(r["len_bucket"]) == want
    for b, grp in got.groupby("len_bucket"):
        grp = grp.sort_values("doc_id").reset_index(drop=True)
        rk = grp["batch_idx"] * 32 + grp["pos_in_batch"]
        # dense 0..n-1 ranks in doc_id order within the bucket
        assert list(rk) == list(range(len(grp))), b
    assert got["len_bucket"].nunique() > 1  # non-degenerate bucketing


def test_blocklist_filter_boundary_verdicts(ray_session, tmp_path):
    """Hand-authored docs pin the exact-integer ratio threshold
    (100*n_bad >= pct*n_tokens), the hard-hit override, and the
    empty-text tokenization convention ('' -> one '' token)."""
    import pyarrow as pa

    from webarchive_discovery_ray.pipelines.curation import blocklist_filter

    docs = [
        (0, "big " + "x " * 8 + "y"),          # 1 bad / 10 toks == 10% -> blocked (tie)
        (1, "big " + "x " * 9 + "y"),          # 1 bad / 11 toks < 10%  -> kept
        (2, "clean text only here"),           # no hits -> kept
        (3, "spark"),                          # hard hit -> blocked regardless of ratio
        (4, "x " * 99 + "spark"),              # hard hit at 1% soft ratio -> blocked
        (5, ""),                               # '' -> one '' token, 0 bad -> kept
        (6, "big dup slow"),                   # 3/3 -> blocked
        (7, "bigger duplicate slowly"),        # substrings are NOT matches -> kept
    ]
    pa.parquet.write_table(
        pa.table(
            {
                "doc_id": pa.array([d for d, _ in docs], pa.int64()),
                "text": pa.array([t for _, t in docs], pa.string()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = (
        blocklist_filter(str(tmp_path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(got["blocked"]) == [True, False, False, True, True, False, True, False]
    assert list(got["hard_hit"]) == [False, False, False, True, True, False, False, False]
    assert list(got["n_tokens"]) == [10, 11, 4, 1, 100, 1, 3, 3]
    assert list(got["n_bad"]) == [1, 1, 0, 0, 0, 0, 3, 0]
    np.testing.assert_allclose(
        got["bad_ratio"], got["n_bad"] / got["n_tokens"], rtol=0, atol=0
    )


def test_blocklist_filter_corpus_nondegenerate(ray_session):
    """Over the synthetic corpus both verdicts occur and the ratio
    verdict is internally consistent with the counted columns."""
    from webarchive_discovery_ray.pipelines.curation import (
        BLOCKLIST_PCT,
        blocklist_filter,
    )

    got = blocklist_filter(SF).to_pandas()
    assert len(got) == 500
    assert got["blocked"].any() and (~got["blocked"]).any()
    want = got["hard_hit"] | (100 * got["n_bad"] >= BLOCKLIST_PCT * got["n_tokens"])
    assert (got["blocked"] == want).all()


def test_compression_ratio_matches_zlib(ray_session):
    """n_compressed must equal a direct zlib.compress(level=6) call per
    document, and the keep band must be the exact integer test."""
    import zlib

    from webarchive_discovery_ray.pipelines.curation import (
        COMPRESS_HI,
        COMPRESS_LO,
        compression_ratio,
    )

    got = (
        compression_ratio(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    docs = sorted(_docs(), key=lambda r: r["doc_id"])
    assert len(got) == len(docs)
    for row, doc in zip(got.itertuples(), docs):
        raw = doc["text"].encode("utf-8")
        assert row.n_raw == len(raw)
        assert row.n_compressed == len(zlib.compress(raw, 6))
        want_keep = (
            row.n_raw > 0
            and 100 * row.n_compressed >= COMPRESS_LO * row.n_raw
            and 100 * row.n_compressed <= COMPRESS_HI * row.n_raw
        )
        assert bool(row.keep) == want_keep
    assert got["keep"].any()


def test_softdedup_weights_matches_sequential(ray_session):
    """Distributed soft-dedup weights == a brute-force corpus frequency
    count over non-overlapping 16-token paragraphs."""
    from collections import Counter

    from webarchive_discovery_ray.pipelines.curation import softdedup_weights

    w = 16
    docs = sorted(_docs(), key=lambda r: r["doc_id"])
    per_doc: dict[int, list[str]] = {}
    freq: Counter = Counter()
    for r in docs:
        toks = r["text"].split()
        if not toks:
            continue
        paras = [
            " ".join(toks[p * w : (p + 1) * w])
            for p in range((len(toks) + w - 1) // w)
        ]
        per_doc[r["doc_id"]] = paras
        freq.update(paras)
    got = softdedup_weights(SF).to_pandas().set_index("doc_id")
    assert len(got) == len(per_doc)
    saw_downweight = False
    for did, paras in per_doc.items():
        c_sum = sum(freq[p] for p in paras)
        assert got.loc[did, "n_paras"] == len(paras)
        assert got.loc[did, "c_sum"] == c_sum
        assert got.loc[did, "weight"] == len(paras) / c_sum
        saw_downweight = saw_downweight or c_sum > len(paras)
    assert saw_downweight, "fixture has no duplicated paragraphs"


def test_bigram_logloss_matches_sequential(ray_session, tmp_path):
    """Crafted corpus driven through the distributed stupid-backoff
    scorer vs a plain-Python sequential recompute of the pinned rules
    (top-V vocab, top-B prev∈vocab bigrams, position-1 unigram,
    ln(0.4) backoff)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.curation import bigram_logloss

    texts = [
        "a b a b a b c",   # strong "a b" bigram
        "c c c a b",       # mixed
        "z q a",           # rare tokens -> OOV/backoff
        "",                # empty doc
    ]
    docs = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    pq.write_table(
        pa.Table.from_pandas(docs, preserve_index=False),
        tmp_path / "documents.parquet",
    )
    got = (
        bigram_logloss(str(tmp_path), vocab_size=3, n_bigrams=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    # sequential recompute of the pinned model
    from collections import Counter

    toks = [t.split() for t in texts]
    cnt = Counter(w for t in toks for w in t)
    vocab = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    c_uni = dict(vocab)
    n_total = sum(cnt.values())
    denom = n_total + len(vocab) + 1
    lp = lambda w: np.log((c_uni.get(w, -1) + 1) / denom) if w in c_uni else np.log(1 / denom)
    bc = Counter(
        (a, b) for t in toks for a, b in zip(t, t[1:]) if a in c_uni
    )
    big = dict(sorted(bc.items(), key=lambda kv: (-kv[1], kv[0]))[:2])
    exp = []
    for t in toks:
        if not t:
            exp.append(0.0)
            continue
        acc = -lp(t[0])
        for a, b in zip(t, t[1:]):
            if (a, b) in big:
                acc += -np.log(big[(a, b)] / c_uni[a])
            else:
                acc += -(np.log(0.4) + lp(b))
        exp.append(round(acc / len(t), 6))
    assert list(got["logloss_r"]) == exp
    assert list(got["n_tokens"]) == [len(t) for t in toks]


def test_quality_classifier_matches_numpy_and_learns(ray_session):
    """Distributed full-batch logistic regression == a sequential numpy
    recompute over the whole design matrix (same features, same step
    rule) up to float-fold tolerance; and the trained filter must beat
    the majority-class baseline on its training labels."""
    import numpy as np
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.curation import (
        _dsir_bucket_counts,
        DSIR_BUCKETS,
        quality_classifier,
    )

    SF = "/root/testdata/sf0.001"
    got = quality_classifier(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)

    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    counts, n_grams = _dsir_bucket_counts(docs["text"].to_numpy())
    toks = docs["text"].str.split()
    n_tok = toks.map(len).to_numpy(dtype=np.float64)
    n_dist = toks.map(lambda t: len(set(t))).to_numpy(dtype=np.float64)
    n_chars = docs["text"].str.len().to_numpy(dtype=np.float64)
    safe = np.maximum(n_tok, 1)
    Xr = np.hstack(
        [
            counts.astype(np.float64) / np.maximum(n_grams, 1)[:, None],
            np.log1p(n_tok)[:, None],
            (n_chars / safe)[:, None],
        ]
    )
    y = (n_dist / safe >= 0.5).astype(np.float64)
    mu = Xr.mean(axis=0)
    sd = Xr.std(axis=0)
    sd[sd == 0] = 1.0
    X = np.hstack([(Xr - mu) / sd, np.ones((len(y), 1))])
    w = np.zeros(X.shape[1])
    for _ in range(40):
        z = np.clip(X @ w, -30.0, 30.0)
        p = 1.0 / (1.0 + np.exp(-z))
        w = w - 2.0 * (X.T @ (p - y)) / len(y)
    p_ref = 1.0 / (1.0 + np.exp(-np.clip(X @ w, -30.0, 30.0)))

    assert list(got["doc_id"]) == list(docs["doc_id"])
    assert (got["label"].to_numpy() == y.astype("int64")).all()
    assert np.allclose(got["p"].to_numpy(), p_ref, atol=1e-5)
    # learning: beats the majority-class baseline on the training set
    acc = (got["pred"] == got["label"]).mean()
    baseline = max(y.mean(), 1 - y.mean())
    assert acc > baseline + 0.05, (acc, baseline)
    # determinism: a second run reproduces the rounded scores exactly
    again = quality_classifier(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert (again["p"].to_numpy() == got["p"].to_numpy()).all()


def test_pca_embeddings_matches_numpy_reference(ray_session):
    """Distributed moment-fold PCA == sequential numpy PCA with the same
    sign convention; projections orthogonal in expectation."""
    from webarchive_discovery_ray.pipelines.curation import pca_embeddings

    tbl = pq.read_table(
        f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).to_pandas()
    tbl = tbl.sort_values("vec_id").reset_index(drop=True)
    mat = np.stack(tbl["embedding"].to_numpy()).astype(np.float64)
    mean = mat.mean(axis=0)
    centred = mat - mean
    cov = centred.T @ centred / (len(mat) - 1)
    vals, vecs = np.linalg.eigh(cov)
    comps = vecs[:, ::-1][:, :2]
    for j in range(2):
        if comps[np.argmax(np.abs(comps[:, j])), j] < 0:
            comps[:, j] = -comps[:, j]
    want = centred @ comps

    got = pca_embeddings(SF).to_pandas().sort_values("vec_id").reset_index(drop=True)
    assert (got["vec_id"].to_numpy() == tbl["vec_id"].to_numpy()).all()
    np.testing.assert_allclose(got["pc1"].to_numpy(), want[:, 0], atol=1e-8)
    np.testing.assert_allclose(got["pc2"].to_numpy(), want[:, 1], atol=1e-8)
    # PCA contract: projected components are uncorrelated, pc1 carries
    # the larger variance
    g = np.stack([got["pc1"].to_numpy(), got["pc2"].to_numpy()])
    assert abs(np.corrcoef(g)[0, 1]) < 1e-6
    assert g[0].var() >= g[1].var()


def test_source_overlap_matches_sequential(ray_session):
    """Distributed cross-source overlap == brute-force distinct-paragraph
    set intersections per source pair."""
    from itertools import combinations

    from webarchive_discovery_ray.pipelines.curation import source_overlap

    w = 16
    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["source", "text"]
    ).to_pylist()
    per_src: dict[str, set[str]] = {}
    for r in docs:
        toks = r["text"].split()
        if not toks:
            continue
        paras = {
            " ".join(toks[p * w : (p + 1) * w])
            for p in range((len(toks) + w - 1) // w)
        }
        per_src.setdefault(r["source"], set()).update(paras)
    want = {}
    for s1, s2 in combinations(sorted(per_src), 2):
        n = len(per_src[s1] & per_src[s2])
        if n:
            want[(s1, s2)] = n
    assert want, "fixture has no cross-source duplicated paragraphs"
    got = source_overlap(SF).to_pandas()
    assert {(r.s1, r.s2): r.n_shared for r in got.itertuples()} == want


def _empty_sf(tmp_path):
    """A scale-factor dir with schema-correct but EMPTY documents and
    embeddings tables, for driving the zero-column empty-block guards."""
    import pyarrow as pa

    docs = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "text": pa.array([], pa.string()),
            "lang": pa.array([], pa.string()),
            "source": pa.array([], pa.string()),
            "n_chars": pa.array([], pa.int64()),
        }
    )
    emb = pa.table(
        {
            "vec_id": pa.array([], pa.int64()),
            "embedding": pa.array([], pa.list_(pa.float32())),
            "label": pa.array([], pa.int32()),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    pq.write_table(emb, str(tmp_path / "embeddings.parquet"))
    return str(tmp_path)


def test_source_overlap_empty_input(ray_session, tmp_path):
    """Empty documents table -> pair_partials receives a zero-column
    block; the typed_empty guard must return a schema-stable empty frame
    instead of raising KeyError."""
    from webarchive_discovery_ray.pipelines.curation import source_overlap

    got = source_overlap(_empty_sf(tmp_path)).to_pandas()
    assert len(got) == 0
    # a fully-empty dataset may surface with zero columns (no blocks
    # survive); the contract here is "no crash, no rows" — when blocks do
    # survive the guard keeps the schema stable
    assert set(got.columns) in (set(), {"s1", "s2", "n_shared", "bucket"}, {"s1", "s2", "n_shared"})


def test_pca_embeddings_empty_input(ray_session, tmp_path):
    """Empty embeddings table -> typed empty result, not IndexError."""
    from webarchive_discovery_ray.pipelines.curation import pca_embeddings

    got = pca_embeddings(_empty_sf(tmp_path)).to_pandas()
    assert len(got) == 0
    assert set(got.columns) in (set(), {"vec_id", "pc1", "pc2"})


def test_pca_embeddings_single_row(ray_session, tmp_path):
    """Single-row table: covariance undefined -> zero matrix, projection
    degenerates to zeros instead of dividing by zero."""
    import pyarrow as pa

    from webarchive_discovery_ray.pipelines.curation import pca_embeddings

    emb = pa.table(
        {
            "vec_id": pa.array([7], pa.int64()),
            "embedding": pa.array([[1.0, 2.0, 3.0, 4.0]], pa.list_(pa.float32())),
            "label": pa.array([0], pa.int32()),
        }
    )
    pq.write_table(emb, str(tmp_path / "embeddings.parquet"))
    got = pca_embeddings(str(tmp_path)).to_pandas()
    assert len(got) == 1
    assert got["vec_id"].iloc[0] == 7
    np.testing.assert_allclose(got[["pc1", "pc2"]].to_numpy(), 0.0)


def test_dataset_split_fractions_and_determinism(ray_session):
    """Hash split: deterministic, content-keyed, fractions near the
    configured 10/10/80 at corpus size."""
    from webarchive_discovery_ray.pipelines.curation import dataset_split

    a = dataset_split(SF).to_pandas().sort_values("doc_id", ignore_index=True)
    b = dataset_split(SF).to_pandas().sort_values("doc_id", ignore_index=True)
    assert a.equals(b)
    frac = a["split"].value_counts(normalize=True)
    assert 0.04 < frac.get("test", 0) < 0.18
    assert 0.04 < frac.get("val", 0) < 0.18
    assert frac.get("train", 0) > 0.6
    # rule is pure function of doc_id
    import hashlib

    r = a.iloc[0]
    b0 = int.from_bytes(
        hashlib.md5(f"{r.doc_id}:split".encode()).digest()[:8], "big"
    ) % 1000
    assert r.bucket == b0


# --- C4 line-level cleaning ---------------------------------------------------


def _c4_py(text: str):
    """Independent pure-Python recompute of the pinned C4 rules."""
    lines = text.split("\n")
    kept = []
    for raw in lines:
        t = raw.strip(" \t\r")
        words = [w for w in t.split(" ") if w]
        if (
            t[-1:] in (".", "!", "?", '"')
            and len(words) >= 3
            and "javascript" not in t.lower()
        ):
            kept.append(t)
    has_lorem = "lorem ipsum" in text.lower()
    has_brace = "{" in text
    return {
        "n_lines": len(lines),
        "n_kept": len(kept),
        "kept_chars": sum(len(t) for t in kept),
        "has_lorem": has_lorem,
        "has_brace": has_brace,
        "keep": len(kept) >= 3 and not has_lorem and not has_brace,
        "kept_text": "\n".join(kept),
    }


def test_c4_score_batch_every_rule_fires():
    """Crafted texts drive each C4 rule both ways; the Arrow kernel must
    equal an independent pure-Python recompute field by field."""
    import pyarrow as pa

    from webarchive_discovery_ray.pipelines.curation import c4_score_batch

    texts = [
        # clean keeper: 3 terminal >=3-word lines
        "One two three.\nFour five six!\nSeven eight nine?",
        # quote terminal + trimmed \t\r ends, extra spaces between words
        '\tHe said "stop now".\r\n  A  b  c.  \nx y z?\nnoise',
        # line rules: no terminal / <3 words / javascript
        "one two three\nab cd.\nenable javascript to view this page.\nOne two three.",
        # page rules: lorem ipsum, brace
        "Lorem Ipsum dolor sit amet.\nGood line here.\nAnother good one.",
        "var x = { a: 1 };\nGood line here one.\nGood line here two.\nGood line three.",
        # degenerate
        "",
        "word",
    ]
    tbl = pa.table({"doc_id": [f"d{i}" for i in range(len(texts))],
                    "text": texts})
    out = c4_score_batch(tbl).to_pylist()
    for row, text in zip(out, texts):
        exp = _c4_py(text)
        for k, v in exp.items():
            assert row[k] == v, (text, k, row[k], v)
    verdicts = {r["keep"] for r in out}
    assert verdicts == {True, False}
    assert any(r["has_lorem"] for r in out)
    assert any(r["has_brace"] for r in out)


def test_c4_over_real_warc_text_mixed_verdicts():
    """Real fixture-WARC extracted text (messy unicode, entities, CSS/JS
    blobs) through the kernel vs the independent recompute — field by
    field. (Extraction collapses whitespace, so real-WARC text is
    single-line and keep=False; mixed verdicts incl. keep=True are
    pinned by the crafted-text test above.)"""
    import os

    import pyarrow as pa

    from webarchive_discovery_ray.config import IndexConfig
    from webarchive_discovery_ray.oracle.extract_oracle import (
        oracle_extract_record,
    )
    from webarchive_discovery_ray.oracle.warc_oracle import oracle_parse_archive
    from webarchive_discovery_ray.pipelines.curation import c4_score_batch

    path = (
        "/root/reference/warc-indexer/src/test/resources/"
        "wikipedia-mona-lisa/flashfrozen-jwat-recompressed.warc.gz"
    )
    if not os.path.exists(path):
        import pytest

        pytest.skip("reference fixture WARC not present")
    cfg = IndexConfig()
    texts, ids = [], []
    with open(path, "rb") as fh:
        data = fh.read()
    for rec in oracle_parse_archive(data, os.path.basename(path)):
        doc = oracle_extract_record(rec, cfg)
        if doc and doc.get("content"):
            ids.append(f"{doc['source_file']}:{doc['source_offset']}")
            texts.append(doc["content"])
    assert texts
    out = c4_score_batch(
        pa.table({"doc_id": ids, "text": texts})
    ).to_pylist()
    for row, text in zip(out, texts):
        exp = _c4_py(text)
        for k, v in exp.items():
            assert row[k] == v, (row["doc_id"], k)


def test_gopher_repetition_crafted(ray_session, tmp_path):
    """Crafted corpus drives the repetition rules both ways; verdicts
    and counters match an independent Counter-based recompute."""
    from collections import Counter

    import pyarrow as pa
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.curation import (
        GOPHER_DUP_NS,
        GOPHER_TOP_NS,
        gopher_repetition,
    )

    texts = [
        "spam spam spam spam spam spam",          # top-2gram dominated
        " ".join(f"w{i}" for i in range(80)),     # clean (long, distinct)
        "x y z " * 10 + "tail",                   # dup 5..10-grams
        "dup line\ndup line\ndup line\nunique",   # duplicate lines
        "",                                        # degenerate
    ]
    t = pa.table({"doc_id": [f"d{i}" for i in range(len(texts))],
                  "text": texts})
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    out = {
        r["doc_id"]: r
        for r in gopher_repetition(str(d)).to_pandas().to_dict("records")
    }
    for i, text in enumerate(texts):
        w = text.split(" ")
        lines = text.split("\n")
        row = out[f"d{i}"]
        assert row["len_text"] == len(text)
        for n in GOPHER_TOP_NS + GOPHER_DUP_NS:
            grams = [
                " ".join(w[j : j + n]) for j in range(len(w) - n + 1)
            ] if len(w) >= n else []
            c = Counter(grams)
            if n in GOPHER_TOP_NS:
                exp = max((cnt * len(g) for g, cnt in c.items()), default=0)
                assert row[f"top{n}_chars"] == exp, (i, n)
            else:
                exp = sum(cnt * len(g) for g, cnt in c.items() if cnt >= 2)
                assert row[f"dup{n}_chars"] == exp, (i, n)
        lc = Counter(lines)
        assert row["n_lines"] == len(lines)
        assert row["dup_lines"] == sum(c for c in lc.values() if c >= 2)
        assert row["dup_line_chars"] == sum(
            c * len(l) for l, c in lc.items() if c >= 2
        )
    verdicts = {r["keep"] for r in out.values()}
    assert verdicts == {True, False}
    assert not out["d0"]["rule_top2"]
    assert out["d1"]["keep"]
    assert not out["d3"]["rule_dup_lines"]


def test_boilerplate_lines_crafted(ray_session, tmp_path):
    """Crafted corpus with a shared footer: the cross-doc repeated-line
    detector finds exactly the lines in >= min_docs distinct docs, with
    exact doc/occurrence counts. (The synthetic sf corpora are
    single-line unique texts, so this op is pinned here rather than by
    an always-empty driver oracle.)"""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from webarchive_discovery_ray.pipelines.curation import boilerplate_lines

    footer = "Copyright 2024 Example Corp."
    nav = "Home | About | Contact"
    texts = [
        f"unique body {i}\n{nav}\n{footer}\n{footer}" if i % 2 else
        f"unique body {i}\n{footer}"
        for i in range(6)
    ] + ["no shared lines here at all"]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    out = boilerplate_lines(str(d)).to_pandas().set_index("line")
    assert set(out.index) == {footer, nav}
    assert out.loc[footer, "n_docs"] == 6
    assert out.loc[footer, "n_occ"] == 3 * 2 + 3  # doubled in odd docs
    assert out.loc[nav, "n_docs"] == 3 and out.loc[nav, "n_occ"] == 3
    # threshold bites: min_docs above the max kills everything
    assert len(boilerplate_lines(str(d), min_docs=7).to_pandas()) == 0


def test_new_ops_empty_input(ray_session, tmp_path):
    """Round-4 continuation ops must survive a schema-correct empty
    corpus (zero-column empty-block guards): entropy_by_source,
    containment_pairs, quality_classifier, bigram_logloss."""
    import pandas as pd

    from webarchive_discovery_ray.pipelines.curation import (
        bigram_logloss,
        quality_classifier,
    )
    from webarchive_discovery_ray.pipelines.dedup import containment_pairs
    from webarchive_discovery_ray.pipelines.textops import entropy_by_source

    sf = _empty_sf(tmp_path)
    for fn in (entropy_by_source, containment_pairs, quality_classifier,
               bigram_logloss):
        got = fn(sf)
        got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
        assert len(got) == 0, fn.__name__


@pytest.mark.parametrize("one_task", [True, False], ids=["one_task", "exchange"])
def test_small_state_loops_on_degenerate_input(ray_session, tmp_path, monkeypatch, one_task):
    """Both paths (one task below TARGET_BLOCK_BYTES, the exchange and
    the per-round BPE loop above it) handle degenerate input alike: an
    empty corpus trains no BPE merge, merge rounds that run out of pairs
    stop early, and an empty pair list leaves every node its own
    cluster."""
    import pyarrow as pa
    import ray.data as rd

    from webarchive_discovery_ray.functions import bucketing
    from webarchive_discovery_ray.pipelines.dedup import neardup_clusters
    from webarchive_discovery_ray.pipelines.textops import bpe_train

    if not one_task:
        monkeypatch.setattr(bucketing, "TARGET_BLOCK_BYTES", 0)
    assert len(bpe_train(_empty_sf(tmp_path)).to_pandas()) == 0
    short = tmp_path / "short"
    short.mkdir()
    pq.write_table(
        pa.table({"doc_id": [0, 1], "text": ["ab ab", "a"]}), str(short / "documents.parquet")
    )
    got = bpe_train(str(short), n_merges=6).to_pandas().sort_values("step")
    assert list(zip(got["left"], got["right"], got["n"])) == [
        ("a", "b", 2), ("ab", "</w>", 2), ("a", "</w>", 1)
    ]
    no_pairs = rd.from_items([{"doc_a": 1, "doc_b": 2}]).filter(lambda r: False)
    nodes = rd.from_items([{"doc_id": i} for i in range(3)])
    got = neardup_clusters(no_pairs, nodes).to_pandas()
    assert sorted(zip(got["doc_id"], got["cluster_id"])) == [(0, 0), (1, 1), (2, 2)]


@pytest.mark.parametrize("one_task", [True, False], ids=["one_task", "exchange"])
def test_empty_results_are_typed_arrow_blocks(ray_session, tmp_path, monkeypatch, one_task):
    """A keyed fold with no row and a BPE run that trains no merge return
    Arrow blocks of the declared types. Ray sizes them without logging
    the "Error calculating size for column" warning that its pandas
    estimate logs for zero-row object columns."""
    import logging

    import pyarrow as pa
    import ray
    import ray.data as rd
    from ray.data.block import BlockAccessor

    from webarchive_discovery_ray.functions import bucketing
    from webarchive_discovery_ray.pipelines.textops import bpe_train

    if not one_task:
        monkeypatch.setattr(bucketing, "TARGET_BLOCK_BYTES", 0)
    no_rows = rd.from_pandas(pd.DataFrame({"k": ["a"], "v": [1]})).filter(expr="v > 1")
    results = [
        (
            bucketing.keyed_fold(
                no_rows, bucketing.sum_in_bucket("k", "v"), "k", empty={"k": str, "v": "int64"}
            ),
            pa.schema([("k", pa.string()), ("v", pa.int64())]),
        ),
        (
            bpe_train(_empty_sf(tmp_path)),
            pa.schema(
                [("step", pa.int64()), ("left", pa.string()), ("right", pa.string()), ("n", pa.int64())]
            ),
        ),
    ]
    logged: list[str] = []

    class Collect(logging.Handler):
        def emit(self, record):
            logged.append(record.getMessage())

    handler = Collect(logging.WARNING)
    log = logging.getLogger("ray.data._internal.pandas_block")
    log.addHandler(handler)
    try:
        for ds, schema in results:
            ds = ds.materialize()
            assert ds.count() == 0
            assert ds.schema().base_schema.remove_metadata() == schema
            for block in ray.get(bucketing._block_refs(ds)):
                BlockAccessor.for_block(block).size_bytes()
    finally:
        log.removeHandler(handler)
    assert not logged, logged


def test_url_quality_filter_params_after_first_question_mark(ray_session, tmp_path):
    """The query is everything after the FIRST '?': a second '?' is a
    query character, so ``?a=1?b=2&c=3`` carries two params. Pipeline
    and DuckDB oracle must agree on URLs with two '?'."""
    import duckdb
    import pyarrow as pa
    import ray.data as rd

    import __ray_entry__ as entrymod
    from webarchive_discovery_ray.pipelines.curation import url_quality_filter

    urls = [
        "http://ex.com/p?a=1?b=2&c=3",  # 2 params over the whole tail
        "http://ex.com/p?a=1?b=2",  # 1 param: the second '?' is data
        "http://ex.com/p?a?b?c&d",  # 2 params
        "http://ex.com/p??",  # non-empty query '?', 1 param
        "http://ex.com/p?",  # empty query
        "http://ex.com/plain",
    ]
    src = tmp_path / "urls.parquet"
    pq.write_table(pa.table({"url": urls}), str(src))
    got = url_quality_filter(rd.from_pandas(pd.DataFrame({"url": urls}))).to_pandas()
    exp = duckdb.sql(entrymod._url_quality_oracle_sql(str(src))).df()
    got = got.set_index("url").sort_index()
    exp = exp.set_index("url").sort_index()
    assert got["reason"].to_dict() == exp["reason"].to_dict()
    assert got["keep"].tolist() == exp["keep"].tolist()
    assert got.loc["http://ex.com/p?a=1?b=2&c=3", "reason"] == "param_heavy"
    assert got.loc["http://ex.com/p?a=1?b=2", "reason"] == "ok"
