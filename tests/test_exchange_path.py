"""The oracle tests of the bucketed corpus passes, rerun on the exchange
path. At their fixture sizes every ``keyed_fold`` and the BPE merge
rounds run in one task; the ``exchange_path`` fixture forces them
through ``groupby/map_groups`` and the per-round distributed loop
instead, so both paths stay oracled."""

import pytest

from tests import test_operators, test_properties, test_warc_reader

RERUNS = {
    "bpe_train": test_properties.test_bpe_train_matches_sequential_and_tiebreak,
    "paragraph_dedup": test_operators.test_paragraph_dedup_matches_sequential_reference,
    "minhash": test_operators.test_minhash_lsh_pairs_matches_sequential_reference,
    "exact_substring": test_operators.test_exact_substring_spans_lemma,
    "neardup_clusters": test_operators.test_neardup_clusters_label_propagation,
    "warc_deduplicate": test_warc_reader.test_warc_deduplicate_roundtrip,
    "warc_deduplicate_per_file": test_warc_reader.test_warc_deduplicate_driver_holds_only_per_file_counts,
}


@pytest.mark.parametrize("name", sorted(RERUNS))
def test_oracle_on_exchange_path(exchange_path, ray_session, tmp_path, name):
    import inspect

    test = RERUNS[name]
    # the rerun test gets its own MonkeyPatch: its undo() must not lift
    # the exchange_path patch
    with pytest.MonkeyPatch.context() as mp:
        given = {"ray_session": ray_session, "tmp_path": tmp_path, "monkeypatch": mp}
        test(**{p: given[p] for p in inspect.signature(test).parameters})
