"""The oracle tests of the bucketed corpus passes, rerun on the exchange
path. At their fixture sizes every ``keyed_fold`` and the BPE merge
rounds run in one task; the ``exchange_path`` fixture forces them
through ``groupby/map_groups`` and the per-round distributed loop
instead, so both paths stay oracled. The SQL-oracled co-group queries
rerun there too: their inputs have disjoint schemas, which travel the
exchange packed and reach the fold one frame per input."""

import pytest

from tests import test_driver_contract, test_operators, test_properties, test_warc_reader
from tests.test_driver_contract import con  # noqa: F401 (fixture)

RERUNS = {
    "bpe_train": test_properties.test_bpe_train_matches_sequential_and_tiebreak,
    "paragraph_dedup": test_operators.test_paragraph_dedup_matches_sequential_reference,
    "minhash": test_operators.test_minhash_lsh_pairs_matches_sequential_reference,
    "exact_substring": test_operators.test_exact_substring_spans_lemma,
    "exact_substring_code_points": test_operators.test_exact_substring_spans_count_code_points,
    "exact_substring_counter": test_operators.test_exact_substring_spans_matches_counter_reference,
    "exact_substring_apply_no_dups": test_operators.test_exact_substring_dedup_apply_without_duplicates,
    "host_triangles_crafted": test_operators.test_host_triangles_crafted_graph,
    "kcore_crafted": test_operators.test_kcore_crafted_graph,
    "kcore_edgeless": test_operators.test_kcore_edgeless_graph_keeps_its_columns,
    "host_assortativity_star": test_operators.test_host_assortativity_star_is_minus_one,
    "cocitation_crafted": test_operators.test_cocitation_crafted_cap_and_support,
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


# co-grouped keyed folds (two or three inputs of different schemas),
# and the host-graph queries built on one adjacency pass
COGROUPS = [
    "bloom_semi_join",
    "cocitation_hosts",
    "host_assortativity",
    "host_hits",
    "host_triangles",
    "incremental_dedup",
    "kcore_hosts",
    "min_cost_supplier",
    "outer_join_customer_orders",
    "parts_supplier_census",
]


@pytest.mark.parametrize("name", COGROUPS)
def test_cogroup_query_on_exchange_path(exchange_path, ray_session, con, name):  # noqa: F811
    dc = test_driver_contract
    got = dc._to_pandas(dc.QUERIES[name](dc.SF_DIR))
    dc._compare(got, con.sql(dc.ORACLE_SQL[name]).df(), name)
