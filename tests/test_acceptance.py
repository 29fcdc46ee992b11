"""End-to-end acceptance checks.

Each test exercises one headline behavior of the library at full scale,
with wall-clock budgets where speed is part of the contract.  The heavy
suite reports are computed once per session and shared.
"""
import contextlib
import io
import json
import os
import time

import pytest

from nkoszul import koszul as ko
from nkoszul import verify
from nkoszul.algebra import DegreeMap, build_dual, build_slices, yoneda_regrade
from nkoszul.cli import main
from nkoszul.docio import load_document
from nkoszul.quiver import enumerate_paths


def timed(fn, *a, **kw):
    t0 = time.monotonic()
    out = fn(*a, **kw)
    return out, time.monotonic() - t0


@pytest.fixture(scope="module")
def equivalence_report():
    return timed(verify.suite_equivalence, trials=15, seed=0, controls=5)


@pytest.fixture(scope="module")
def dual_equivalence_report():
    return verify.suite_dual_equivalence(trials=15, seed=0, duality_trials=20)


def test_01_dual_basis_agreement_20_presentations_under_10s():
    rep, dt = timed(verify.suite_dual_agreement, trials=24, seed=0)
    assert rep["passed"], rep["failures"][:2]
    assert rep["trials"] >= 20
    assert dt < 10.0


def test_02_functor_oracle_50_modules_both_classes_under_60s():
    rep, dt = timed(verify.suite_functor_oracle, trials=60, seed=0)
    assert rep["passed"], rep["failures"][:2]
    assert rep["counts"]["annihilating"] >= 10
    assert rep["counts"]["non_annihilating"] >= 10
    assert rep["counts"]["annihilating"] + rep["counts"]["non_annihilating"] >= 50
    assert dt < 60.0


def test_03_truncated_dual_dims_and_regraded_dims():
    for name in ("one_loop_n3", "two_loop_n3"):
        e = verify.corpus(name)
        dual, q, n = e["dual"], e["quiver"], e["n"]
        assert n == 3
        for k in range(9):
            assert dual.dim(k) == len(enumerate_paths(q, k))
        dmap = DegreeMap(0, n)
        assert [dmap.delta(j) for j in range(6)] == [0, 1, 3, 4, 6, 7]
        ealg = yoneda_regrade(e["ualg"])
        for j in range(6):
            assert ealg.dim(j) == dual.dim(dmap.delta(j))


def test_04_koszulity_and_ext_dims_under_60s():
    rep, dt = timed(verify.suite_koszulity, seed=0, bound=6)
    assert rep["passed"], rep["failures"][:2]
    for name in ("one_loop_n3", "two_loop_n3"):
        t = rep["tables"][name]
        assert t["ext_dims"] == t["dual_dims_at_delta"]
        assert len(t["ext_dims"]) == 7
    assert rep["tables"]["cubic_survivor"]["is_n_koszul"] is False
    assert dt < 60.0


def test_05_torsionfree_iff_no_torsion_50_modules_5_settings():
    rep = verify.suite_torsion_classes(trials=50, seed=0)
    assert rep["passed"], rep["failures"][:2]
    assert rep["trials"] >= 50
    assert rep["counts"]["torsionfree"] >= 1
    assert rep["counts"]["with_torsion"] >= 1
    assert len(verify.CASES["torsion_classes"]) == 5


def test_06_torsion_pair_transport_30_modules():
    rep = verify.suite_torsion_transport(trials=30, seed=0)
    assert rep["passed"], rep["failures"][:2]
    assert rep["trials"] >= 30
    assert rep["counts"]["torsion"] >= 1


def test_07_hom_dimension_equality_15_pairs_under_120s(equivalence_report):
    rep, dt = equivalence_report
    assert rep["passed"], rep["failures"][:2]
    assert len(rep["tables"]["hom_dims"]) >= 15
    for d_mod, d_cpx in rep["tables"]["hom_dims"]:
        assert d_mod == d_cpx
    assert dt < 120.0


def test_08_image_membership_round_trips_and_controls(equivalence_report):
    rep, _ = equivalence_report
    assert rep["passed"], rep["failures"][:2]
    assert rep["counts"]["controls_rejected"] >= 5


def test_09_duality_square_20_modules(dual_equivalence_report):
    rep = dual_equivalence_report
    assert rep["counts"]["duality_isos"] >= 20
    assert not any(f["kind"] == "duality-square-mismatch"
                   for f in rep["failures"])


def test_10_even_presentation_membership_with_odd_failures():
    rep = verify.suite_even_presentation(trials=13, seed=0)
    assert rep["passed"], rep["failures"][:2]
    assert rep["counts"]["even_members"] >= 10
    assert rep["counts"]["odd_rejections"] >= 3


def test_11_dual_side_equivalence_conditions_15_members(dual_equivalence_report):
    rep = dual_equivalence_report
    assert rep["passed"], rep["failures"][:2]
    assert rep["counts"]["lo_members"] >= 15


def test_12_mutation_detected_within_50_trials():
    rep = verify.suite_functor_oracle(trials=50, seed=0, mutate=True)
    assert not rep["passed"]
    assert min(f["trial"] for f in rep["failures"]) < 50


def test_13_polynomial_dual_to_degree_64_under_5s():
    """The dual of commutative_n2 is k[x, y]: d + 1 normal words in degree
    d, among 2**d paths.  The window [-64, 64] answers, and the dual has
    dimension d + 1 in every degree up to 64."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "inputs", "commutative_n2.json")
    t0 = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["dual", path, "--window", "-64", "64"])
    lam = build_slices(load_document(path)["presentation"], 64)
    dual = build_dual(lam, 64)
    dims = [dual.dim(d) for d in range(65)]
    dt = time.monotonic() - t0
    assert code == 0
    assert json.loads(out.getvalue())["dual_dims"] == list(range(1, 14))
    assert dims == [d + 1 for d in range(65)]
    assert dt < 5.0
