import json

import pytest

from nkoszul import verify
from nkoszul.docio import dump_report


SMALL = {
    "dual_agreement": {"trials": 8},
    "functor_oracle": {"trials": 12},
    "torsion_classes": {"trials": 10},
    "torsion_transport": {"trials": 9},
    "contraction": {"trials": 4},
    "equivalence": {"trials": 3, "controls": 3},
    "even_presentation": {"trials": 8},
    "dual_equivalence": {"trials": 4, "duality_trials": 4},
    "koszulity": {"bound": 4},
    "dimensions": {},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_suite_passes_small_scale(name):
    rep = verify.run_suite(name, seed=0, **SMALL[name])
    assert rep["passed"], rep["failures"][:2]
    assert rep["suite"] == name
    assert rep["seed"] == 0


@pytest.mark.parametrize("bound", [4, 6])
def test_koszulity_negatives_are_resolved_one_step_short_of_bound(bound):
    """The negatives of the koszulity suite follow `bound`: resolved to
    bound - 1, their Ext table has `bound` entries, and the cubic survivor
    leaves the degree map at j = 3, so it is still rejected at bound 4."""
    rep = verify.run_suite("koszulity", seed=0, bound=bound)
    assert rep["passed"], rep["failures"][:2]
    negatives = [name for name, _ in verify.CASES["koszulity_negatives"]]
    assert negatives
    for name in negatives:
        table = rep["tables"][name]
        assert len(table["ext_dims"]) == bound
        assert table["is_n_koszul"] is False


def test_mutated_functor_suite_fails():
    rep = verify.run_suite("functor_oracle", trials=30, seed=0, mutate=True)
    assert not rep["passed"]
    assert rep["failures"][0]["trial"] < 30


def test_reports_are_byte_identical():
    a = verify.run_suite("dual_agreement", trials=6, seed=3)
    b = verify.run_suite("dual_agreement", trials=6, seed=3)
    assert dump_report(a) == dump_report(b)
    c = verify.run_suite("dual_agreement", trials=6, seed=4)
    assert dump_report(a) != dump_report(c)


def test_reports_are_json_serializable():
    rep = verify.run_suite("torsion_transport", trials=3, seed=1)
    parsed = json.loads(dump_report(rep))
    assert parsed["suite"] == "torsion_transport"
    assert set(parsed) == {"suite", "seed", "trials", "passed",
                           "failures", "counts", "tables"}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("nope")


@pytest.mark.parametrize("m", range(5))
def test_an_algebra_joins_the_suites_as_one_corpus_row_and_its_cases(
        monkeypatch, m):
    """kQ/J^5 on one loop, at each shift m in [0, 5): a row of the corpus
    and a case of each suite are all it takes, since a suite reads n and
    the draws from the entry."""
    q = verify._CORPUS["one_loop_n3"][0]
    monkeypatch.setitem(verify._CORPUS, "one_loop_n5",
                        (q, 5, 12, 26, verify._all_path_relations(q, 5)))
    monkeypatch.setattr(verify, "_CORPUS_CACHE", dict(verify._CORPUS_CACHE))
    for suite in ("torsion_transport", "equivalence"):
        monkeypatch.setitem(verify.CASES, suite, [("one_loop_n5", m)])
        rep = verify.run_suite(suite, trials=2, seed=0)
        assert rep["passed"], rep["failures"][:2]
    assert verify.corpus("one_loop_n5")["lam"].vanishing_degree() == 5
