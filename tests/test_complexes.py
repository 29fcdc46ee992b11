import functools

import numpy as np
import pytest

from nkoszul import complexes as cx
from nkoszul import linalg
from nkoszul import grmod as gm
from nkoszul import verify
from nkoszul.complexes import ComplexError
from nkoszul.grmod import TorsionParams, free_module, graded_dual
from algebra_oracle import left_mult_matrix, reduce_path_element
import dense_oracle
from dense_oracle import dense_actions, dense_mats
from search_oracle import (commutes, is_iso, iso_complexes, iso_modules,
                           reference_hom_complexes)
from projective_oracle import check_Yo_conditions, projective_certificate
import projective_oracle

P = 101


def entry(name="two_loop_n3"):
    return verify.corpus(name)


def dual_test_module(e, hi=3):
    return free_module(e["dual"], [(0, 0)], hi)


def test_psi_is_n_complex_with_linear_components():
    e = entry()
    m = dual_test_module(e)
    c = cx.psi(m, e["lam"])
    assert cx.is_n_complex(c, e["n"])
    # projective generated in -k at position k: D(c) is certified
    assert cx.certify_linear(cx.dualize_complex(c)) is not None


def test_the_dual_of_psi_is_certified_over_a_fresh_opposite_algebra():
    """The opposite algebra that `dualize_complex` builds is lazy; the
    certificate's cofree models are built on its settled top, not on the
    degree it has reached."""
    from nkoszul.algebra import build_slices
    e = entry()
    lam = build_slices(e["lam"].pres, 12)
    c = cx.psi(dual_test_module(e), lam)
    assert cx.certify_linear(cx.dualize_complex(c)) is not None


def test_nu_is_n_complex_with_colinear_components():
    e = entry()
    m = dual_test_module(e)
    c = cx.nu(m, e["lam"])
    assert cx.is_n_complex(c, e["n"])
    assert cx.certify_linear(c) is not None


def test_nu_requires_finite_dimensional_base():
    e = entry("one_loop_n3")
    m = free_module(e["dual"], [(0, 0)], 4)
    with pytest.raises(ComplexError):
        cx.nu(m, e["dual"])
    # the windowed acknowledgment turns the error into a truncation
    c = cx.nu(m, e["dual"], allow_windowed=True)
    assert c.positions()


def test_functor_oracle_annihilating_vs_not():
    e = entry()
    m = dual_test_module(e)
    assert cx.annihilates_orthogonal(m, e["lam"]) in (True, False)
    ok_psi = cx.is_n_complex(cx.psi(m, e["lam"]), e["n"])
    ok_nu = cx.is_n_complex(cx.nu(m, e["lam"]), e["n"])
    assert ok_psi == ok_nu == cx.annihilates_orthogonal(m, e["lam"])


def test_torsion_transport_through_hom_functor():
    e = entry("two_vertex_n3")
    params = TorsionParams(e["n"], 1, 0)
    stalk = gm.GradedModule(e["dual"], {2: (0,)}, {})
    assert cx.in_T_star(cx.nu(stalk, e["lam"]), params)
    f = free_module(e["dual"], [(0, 0)], 7)
    c = cx.nu(f, e["lam"])
    assert gm.in_G(f, params)
    assert cx.in_G_star(c, params)


def test_zero_and_stalk_complexes():
    e = entry("one_loop_n3")
    z = cx.zero_complex(e["lam"], 3)
    assert z.is_zero()
    simple = gm.GradedModule(e["lam"], {0: (0,)}, {})
    st = cx.stalk_complex(simple, 0, 3)
    assert st.component(0).total_dim() == 1
    assert cx.is_n_complex(st, 3)


def test_contract_H_yields_2_complex_preserving_torsion_class():
    e = entry("two_vertex_n3")
    params = TorsionParams(e["n"], 1, 0)
    stalk = gm.GradedModule(e["dual"], {2: (0,)}, {})
    c = cx.nu(stalk, e["lam"])
    h = cx.contract_H(c, 0, e["n"])
    assert cx.is_n_complex(h, 2)
    assert cx.in_T_star(h, params)


def test_contract_G_yields_2_complex():
    e = entry()
    m = dual_test_module(e)
    c = cx.psi(m, e["lam"])
    g = cx.contract_G(c, 0, e["n"])
    assert cx.is_n_complex(g, 2)


def test_contract_zero_is_zero():
    e = entry("one_loop_n3")
    z = cx.contract_H(cx.zero_complex(e["lam"], 3), 0, 3)
    assert z.is_zero()


def test_equivalence_F_image_in_Y_and_round_trip():
    e = entry("two_vertex_n3")
    params = TorsionParams(e["n"], 1, 0)
    ualg = e["ualg"]
    x = gm.restrict_S(free_module(e["dual"], [(0, 0)], 7), ualg, params)
    assert gm.in_L(x, params)
    c = cx.equivalence_F(x, e["lam"], params)
    assert cx.is_n_complex(c, 2)
    verdict, witness = cx.in_Y(c, ualg, params)
    assert verdict
    assert stalk_check(witness, x, verify.sorting_witness(x)) is None


def test_F_of_a_657_dimensional_module_holds_under_4_mib():
    """Three copies of the free dual module over two_loop_n3 at p = 2,
    truncated at 7 and restricted to S: F of it stores every cofree action
    as a Sparse, and holds about 0.7 MiB once built.  With those actions
    stored dense it held 29 MiB."""
    import tracemalloc
    e = verify.corpus("two_loop_n3", 2)
    params = TorsionParams(e["n"], 1, 0)
    x = gm.restrict_S(free_module(e["dual"], [(0, 0)] * 3, 7), e["ualg"],
                      params)
    assert x.total_dim() == 657
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fx = cx.equivalence_F(x, e["lam"], params)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 4 * 2 ** 20
    assert cx.in_Y(fx, e["ualg"], params)[0]


def test_every_stored_matrix_of_a_morphism_is_sparse():
    """A morphism stores each matrix in one form, a `linalg.Sparse`: the
    differentials of F, nu and psi, the maps of a resolution, a basis of a
    Hom space, the witnesses and envelopes of a certificate, and the
    composites of each."""
    from nkoszul import koszul as ko
    e = entry("two_vertex_n3")
    lam, params = e["lam"], TorsionParams(e["n"], 1, 0)
    x = gm.restrict_S(free_module(e["dual"], [(0, 0)], 7), e["ualg"], params)
    m = dual_test_module(e)
    complexes = [cx.equivalence_F(x, lam, params), cx.nu(m, lam),
                 cx.psi(m, lam)]
    seg = ko.minimal_projective_resolution(ko.semisimple_module(lam), 4)
    cert = cx.certify_linear(complexes[1])
    kinds = {
        "differential": [f for c in complexes for f in c.diffs.values()],
        "resolution": seg.diffs,
        "hom_space": gm.hom_space(x, x),
        "certificate": [w[key] for w in cert.values()
                        for key in ("witness", "envelope")],
        "compose": [cx.composite_diff(c, k, 2) for c in complexes
                    for k in c.positions()]
        + [g.compose(f) for f, g in zip(seg.diffs, seg.diffs[1:])]}
    for kind, maps in kinds.items():
        mats = [mat for f in maps for mat in f.stored_mats().values()]
        assert mats, kind
        assert all(isinstance(mat, linalg.Sparse) for mat in mats), kind


def test_in_Y_rejects_negative_controls():
    e = entry("two_vertex_n3")
    params = TorsionParams(e["n"], 1, 0)
    ualg = e["ualg"]
    x = gm.restrict_S(free_module(e["dual"], [(0, 0)], 7), ualg, params)
    c = cx.equivalence_F(x, e["lam"], params)
    for bad in verify.negative_control_complexes(c, count=3):
        verdict, _ = cx.in_Y(bad, ualg, params)
        assert not verdict


def test_duality_square_commutes():
    e = entry()
    m = dual_test_module(e)
    lhs = cx.dualize_complex(cx.nu(m, e["lam"]))
    rhs = cx.psi(graded_dual(m), gm.opposite_algebra(e["lam"])[0])
    assert cx.chain_iso_failure(
        lhs, rhs, verify.pairing_witness(lhs, rhs, m, e["lam"])) is None


def test_dual_equivalence_satisfies_conditions():
    e = entry("two_vertex_n3")
    params = TorsionParams(e["n"], 1, 0)
    ualg = e["ualg"]
    x = gm.restrict_S(free_module(e["dual"], [(0, 0)], 7), ualg, params)
    dx = graded_dual(x)
    assert gm.in_Lo(dx, params)
    op_lam = gm.opposite_algebra(e["lam"])[0]
    c = cx.equivalence_F_dual(dx, op_lam, params)
    okc, why = check_Yo_conditions(c, params)
    assert okc, why
    assert cx.dual_image_failure(cx.dualize_complex(c), params) is None
    assert cx.in_Yo(c, dx.algebra, params)


def test_an_algebra_keeps_what_is_derived_from_it_in_its_memo_alone():
    """F, in_Y, in_Yo, the graded dual and a resolution leave each algebra
    they read, the opposites and E included, with the attributes of a
    freshly built one: what they derive from an algebra goes into its
    memo, not onto it."""
    from nkoszul import koszul as ko
    from nkoszul.algebra import PathAlgebra, USupportAlgebra, yoneda_regrade
    e = entry("two_vertex_n3")
    lam, dual, ualg = e["lam"], e["dual"], e["ualg"]
    params = TorsionParams(e["n"], 1, 0)
    x = gm.restrict_S(free_module(dual, [(0, 0)], 7), ualg, params)
    assert cx.in_Y(cx.equivalence_F(x, lam, params), ualg, params)[0]
    dx = graded_dual(x)
    op_lam = gm.opposite_algebra(lam)[0]
    assert cx.in_Yo(cx.equivalence_F_dual(dx, op_lam, params), dx.algebra,
                    params)
    ko.minimal_projective_resolution(ko.semisimple_module(lam), 3)
    algebras = [lam, dual, ualg, yoneda_regrade(ualg)]
    algebras += [gm.opposite_algebra(a)[0] for a in algebras]
    for a in algebras:
        fresh = (PathAlgebra(a.pres) if isinstance(a, PathAlgebra)
                 else USupportAlgebra(a.dual, a.n,
                                      None if a.u is a else a.u))
        assert sorted(vars(a)) == sorted(vars(fresh))


def dual_class_module(gen_degree: int):
    """D of the restriction to S of a free dual module over two_vertex_n3
    generated in gen_degree: in the dual distinguished class exactly when
    gen_degree is 0 mod n."""
    e = entry("two_vertex_n3")
    params = TorsionParams(e["n"], 1, 0)
    x = gm.restrict_S(free_module(e["dual"], [(0, gen_degree)], 7),
                      e["ualg"], params)
    dx = graded_dual(x)
    return dx, gm.opposite_algebra(e["lam"])[0], params


@pytest.mark.parametrize("gen_degree", [0, 1])
def test_equivalence_F_dual_builds_the_dual_and_decides_in_L_once(
        monkeypatch, gen_degree):
    dx, op_lam, params = dual_class_module(gen_degree)
    calls = {"in_L": 0, "D(mod)": 0}
    in_L, dual = gm.in_L, gm.graded_dual

    def count_in_L(*args):
        calls["in_L"] += 1
        return in_L(*args)

    def count_dual(mod, *args):
        calls["D(mod)"] += mod is dx
        return dual(mod, *args)
    monkeypatch.setattr(gm, "in_L", count_in_L)
    for module in (gm, cx):
        monkeypatch.setattr(module, "graded_dual", count_dual)
    if gen_degree == 0:
        cx.equivalence_F_dual(dx, op_lam, params)
    else:
        with pytest.raises(ComplexError,
                           match="not in the dual distinguished class"):
            cx.equivalence_F_dual(dx, op_lam, params)
    assert calls == {"in_L": 1, "D(mod)": 1}


def dense_Yo_escape(c):
    """The first odd position whose kernel leaves the radical of its
    component, or None: the check on dense matrices, each kernel a null
    space and each radical the span of the images of the actions."""
    for k in c.positions():
        if k % 2 == 0:
            continue
        comp, f = c.modules[k], c.diff(k)
        for d in comp.degrees():
            images = [comp.sparse_act(gi, d - g.degree).dense()
                      for gi, g in enumerate(comp.gens)]
            rad = linalg.Subspace.from_rows(
                comp.dim(d), np.concatenate(
                    [linalg.zeros(0, comp.dim(d))] + images), c.p)
            if not rad.contains(linalg.null_space(f.sparse_mat(d).dense().T,
                                                  c.p)):
                return k
    return None


def cut_complexes(g):
    """g with one odd differential d_k dropped, per odd k: the whole
    component at k is then its kernel."""
    odd = [k for k in g.diffs if k % 2]
    assert odd
    return {k: cx.ComplexOfGraded(
        g.algebra, 2, g.modules,
        {j: f for j, f in g.diffs.items() if j != k}) for k in odd}


def test_check_Yo_reports_a_kernel_escaping_the_radical():
    dx, op_lam, params = dual_class_module(0)
    g = cx.equivalence_F_dual(dx, op_lam, params)
    assert check_Yo_conditions(g, params) == (True, "")
    assert dense_Yo_escape(g) is None
    for k, cut in cut_complexes(g).items():
        want = dense_Yo_escape(cut)
        assert want == k
        assert check_Yo_conditions(cut, params) == (
            False, f"kernel at position {want} escapes the radical")


def dual_check_cases(monkeypatch):
    """(c, op_u, params) per in_Yo call on a projective-side complex c: the
    suite_dual_equivalence membership trials at seeds 0-2, and the cut
    complexes of the dual class module."""
    cases = []
    real = cx.in_Yo

    def recorded(*args):
        cases.append(args)
        return real(*args)
    with monkeypatch.context() as mp:
        mp.setattr(cx, "in_Yo", recorded)
        for seed in range(3):
            report = verify.suite_dual_equivalence(seed=seed,
                                                   duality_trials=1)
            assert report["passed"]
    assert len(cases) == 3 * 15
    dx, op_lam, params = dual_class_module(0)
    op_u = gm.opposite_algebra(entry("two_vertex_n3")["ualg"])[0]
    g = cx.equivalence_F_dual(dx, op_lam, params)
    return cases + [(cut, op_u, params) for cut in cut_complexes(g).values()]


def dual_check_disagreements(cases):
    """The cases where the projective oracle and the check read through
    the graded dual disagree: on the conditions, or on membership, which
    the oracle composes from its conditions and in_Y of the dual."""
    bad = []
    for i, (c, op_u, params) in enumerate(cases):
        ok, _ = check_Yo_conditions(c, params)
        d = cx.dualize_complex(c)
        if ok != (cx.dual_image_failure(d, params) is None):
            bad.append((i, "conditions"))
        want = ok and cx.in_Y(d, gm.opposite_algebra(op_u)[0], params)[0]
        if cx.in_Yo(c, op_u, params) != want:
            bad.append((i, "membership"))
    return bad


def test_the_dual_check_agrees_with_the_projective_oracle(monkeypatch):
    cases = dual_check_cases(monkeypatch)
    verdicts = [check_Yo_conditions(c, pr)[0] for c, _, pr in cases]
    assert True in verdicts and False in verdicts
    assert dual_check_disagreements(cases) == []
    # an oracle whose radical holds every kernel is caught
    monkeypatch.setattr(projective_oracle, "kernel_in_radical",
                        lambda rad, ker: True)
    assert dual_check_disagreements(cases)


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("gens", [[(0, 0)], [(0, 1)], [(0, 0), (0, 1)],
                                  [(0, 3)]])
def test_in_Yo_at_n_2_matches_the_projective_oracle(m, gens):
    """At n = 2, F_dual of the dual of a restricted free module builds,
    and in_Yo of it is the oracle's verdict: its conditions and in_Y of the
    graded dual."""
    e = entry("commutative_n2")
    params = TorsionParams(2, 1, m)
    x = gm.restrict_S(free_module(e["dual"], gens, 5), e["ualg"], params)
    dx = graded_dual(x)
    g = cx.equivalence_F_dual(dx, gm.opposite_algebra(e["lam"])[0], params)
    assert dual_check_disagreements([(g, dx.algebra, params)]) == []


def test_hom_complexes_contains_identity():
    e = entry("one_loop_n3")
    m = dual_test_module(e, hi=4)
    c = cx.nu(m, e["lam"])
    homs = cx.hom_complexes(c, c)
    assert homs
    assert cx.chain_iso_failure(c, c, verify.identity_witness(c, c)) is None


# The cases of the full-faithfulness check: at seed 0 every pair that
# `suite_equivalence` draws has Hom dimension 0, so these draw their own.
FAITHFUL_CASES = [("two_loop_n3", 0), ("one_loop_n3", 0), ("one_loop_n3", 1),
                  ("two_vertex_n3", 0), ("two_vertex_n3", 2),
                  ("two_vertex_n4", 1)]


@functools.cache
def distinguished_images(name, m):
    """Three random distinguished modules X at level m over a corpus
    algebra, drawn with default_rng(7), each with its complex F X."""
    e = entry(name)
    params = TorsionParams(e["n"], 1, m)
    rng = np.random.default_rng(7)
    xs = [verify.random_distinguished_module(rng, e, params)
          for _ in range(3)]
    return [(x, cx.equivalence_F(x, e["lam"], params)) for x in xs]


def assert_chain_map(c, c2, fam):
    """fam holds a module map c_k -> c2_k at every position, and they
    commute with the differentials."""
    positions = sorted(set(c.positions()) | set(c2.positions()))
    assert sorted(fam) == positions
    for k in positions:
        assert commutes(fam[k])
        if k + 1 in fam:
            lhs = c.diff(k).compose(fam[k + 1])
            rhs = fam[k].compose(c2.diff(k))
            for d in c.component(k).degrees():
                assert lhs.sparse_mat(d) == rhs.sparse_mat(d)


def test_F_is_full_and_faithful_on_pairs_with_nonzero_hom():
    """dim Hom(X, Y) = dim Hom(F X, F Y) on all nine ordered pairs of each
    case, some of them of dimension 2 or more, and every basis family is a
    chain map."""
    dims = []
    for name, m in FAITHFUL_CASES:
        images = distinguished_images(name, m)
        for x, fx in images:
            for y, fy in images:
                fams = cx.hom_complexes(fx, fy)
                assert len(fams) == len(gm.hom_space(x, y)), (name, m)
                for fam in fams:
                    assert_chain_map(fx, fy, fam)
                dims.append(len(fams))
    assert max(dims) >= 2


def stacked_span(c, c2, fams):
    """The span of the families' entries, stacked by position, degree and
    row-major entry; a position a family leaves out reads as zero."""
    p = c.p
    blocks = [(k, d, c.component(k).dim(d), c2.component(k).dim(d))
              for k in sorted(set(c.positions()) | set(c2.positions()))
              for d in sorted(set(c.component(k).degrees())
                              | set(c2.component(k).degrees()))]
    rows = [np.concatenate([fam[k].sparse_mat(d).dense().reshape(-1)
                            if k in fam
                            else np.zeros(r * s, dtype=np.int64)
                            for k, d, r, s in blocks]) for fam in fams]
    ambient = sum(r * s for _, _, r, s in blocks)
    return linalg.Subspace.from_rows(
        ambient, np.array(rows, dtype=np.int64).reshape(-1, ambient), p)


@pytest.mark.parametrize("name, m", FAITHFUL_CASES)
def test_hom_complexes_spans_what_the_replaced_construction_spans(name, m):
    images = distinguished_images(name, m)
    for _, fx in images:
        for _, fy in images:
            got, want = cx.hom_complexes(fx, fy), reference_hom_complexes(fx,
                                                                          fy)
            assert len(got) == len(want)
            assert stacked_span(fx, fy, got) == stacked_span(fx, fy, want)


def test_composite_diff_vanishes_at_n():
    e = entry()
    m = dual_test_module(e)
    c = cx.psi(m, e["lam"])
    ks = sorted(c.positions())
    for k in ks[:-e["n"]]:
        f = cx.composite_diff(c, k, e["n"])
        assert all(not mat.any() for mat in dense_mats(f).values())


def test_coregular_module_lives_and_dies_with_its_algebra():
    import gc
    import weakref
    from nkoszul.algebra import Presentation, build_slices
    from nkoszul.quiver import PathSpaceElement, Quiver, enumerate_paths

    q = Quiver.make(1, [("x", 0, 0)])
    rels = [PathSpaceElement(3, {pa: 1}) for pa in enumerate_paths(q, 3)]
    lam = build_slices(Presentation.make(q, 3, rels), 4)
    dlam = cx._coregular(lam)
    assert cx._coregular(lam) is dlam and dlam.algebra is lam
    # D(Lambda) is the cofree model on the vertices, from the same memo
    model = cx.cofree_module(lam, [0, 0])
    assert cx.cofree_module(lam, (0,)) is dlam
    assert cx.cofree_module(lam, (0, 0)) is model is not dlam
    refs = [weakref.ref(x) for x in (lam, dlam, model)]
    del lam, dlam, model
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_one_membership_check_builds_each_cofree_model_once(monkeypatch):
    import os
    from nkoszul.cli import main
    built = []
    build = cx._build_cofree

    def spy(lam, vlist):
        built.append(vlist)
        return build(lam, vlist)
    monkeypatch.setattr(cx, "_build_cofree", spy)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    doc = os.path.join(root, "inputs", "two_loop_n3.json")
    assert main(["check", doc, "--predicate", "in_Y", "--object", "F(X)"]) == 0
    assert len(built) == len(set(built)) == 4


# -- the replaced per-entry loops, kept as reference oracles -----------------
# Each builds a differential entry by entry through a dict of target pairs;
# the code under test builds the same matrices with cx._pair_map.


def pair_keys(pairs):
    """The rows of an (E, 2) pair index as tuples of Python ints."""
    return [tuple(row) for row in pairs.tolist()]


def reference_psi_mats(mod, lam, k, src, tgt):
    arrow_gens = {g.basis_index: gi for gi, g in enumerate(mod.gens)
                  if g.degree == 1}
    mats = {}
    for d in src.degrees():
        if tgt.dim(d) == 0:
            continue
        e1 = d + k
        pos2 = {tuple(row): c for c, row in enumerate(tgt.free_index[d])}
        m = np.zeros((src.dim(d), tgt.dim(d)), dtype=np.int64)
        for ai in range(lam.quiver.arrow_count):
            a_act = mod.sparse_act(arrow_gens[ai], k).dense()
            vec = np.zeros(lam.dim(1), dtype=np.int64)
            vec[ai] = 1
            lmul = left_mult_matrix(lam, 1, vec, e1)
            for r, (i, b) in enumerate(src.free_index[d]):
                for i2 in np.nonzero(a_act[i])[0]:
                    for b2 in np.nonzero(lmul[b])[0]:
                        key = (int(i2), int(b2))
                        if key in pos2:
                            cidx = pos2[key]
                            m[r, cidx] = (m[r, cidx]
                                          + a_act[i, i2] * lmul[b, b2]) % lam.p
        if m.any():
            mats[d] = m
    return mats


def reference_cofree_actions(lam, index):
    actions = {}
    for gi, g in enumerate(lam.generators()):
        vec = np.zeros(lam.dim(1), dtype=np.int64)
        vec[g.basis_index] = 1
        for e in index:
            e2 = e + 1
            if e2 not in index:
                continue
            lmul = left_mult_matrix(lam, 1, vec, -e2)
            pos2 = {key: c for c, key in enumerate(pair_keys(index[e2]))}
            m = np.zeros((len(index[e]), len(index[e2])), dtype=np.int64)
            for r, (b, x) in enumerate(pair_keys(index[e])):
                for a in np.nonzero(lmul[:, b])[0]:
                    key = (int(a), x)
                    if key in pos2:
                        m[r, pos2[key]] = lmul[a, b]
            if m.any():
                actions[(gi, e)] = m
    return actions


def reference_hom_mats(lam, s, bsrc, btgt, acts):
    """The nu step (also the even differential of F); acts[a] is the
    action paired with arrow a."""
    src, tgt = bsrc.shift(s), btgt.shift(s + 1)
    mats = {}
    for d in src.degrees():
        if tgt.dim(d) == 0:
            continue
        e1, e2 = d + s, d + s + 1
        pos2 = {key: c for c, key in enumerate(pair_keys(btgt.hom_index[e2]))}
        m = np.zeros((src.dim(d), tgt.dim(d)), dtype=np.int64)
        for ai, a_act in enumerate(a.dense() for a in acts):
            vec = np.zeros(lam.dim(1), dtype=np.int64)
            vec[ai] = 1
            rmul = lam.right_mult_matrix(-e2, 1, vec)
            for r, (b, x) in enumerate(pair_keys(bsrc.hom_index[e1])):
                for a in np.nonzero(rmul[:, b])[0]:
                    for x2 in np.nonzero(a_act[x])[0]:
                        key = (int(a), int(x2))
                        if key in pos2:
                            cidx = pos2[key]
                            m[r, cidx] = (m[r, cidx]
                                          + rmul[a, b] * a_act[x, x2]) % lam.p
        if m.any():
            mats[d] = m
    return mats


def reference_xi(mod, s):
    from nkoszul.quiver import Path, enumerate_paths, path_index
    ualg = mod.algebra
    dual, n, p = ualg.dual, ualg.n, mod.p
    q = dual.quiver.opposite()
    t1, pre, _ = cx._mu1_data(mod, s)
    n_gens = {g.basis_index: gi for gi, g in enumerate(mod.gens)
              if g.degree == n}
    idx_op = path_index(dual.quiver, n)
    out = []
    for pa in enumerate_paths(q, n - 1):
        mat = np.zeros((mod.dim(s + 1), mod.dim(s + n)), dtype=np.int64)
        for r, (i, ai) in enumerate(t1):
            if q.arrow_source(ai) != pa.target_in(q):
                continue
            v = np.zeros(len(idx_op), dtype=np.int64)
            v[idx_op[Path(q.arrow_target(ai),
                          (ai,) + tuple(reversed(pa.arrows)))]] = 1
            cls = dual.reduce_vector(v, n)
            act = np.zeros((mod.dim(s), mod.dim(s + n)), dtype=np.int64)
            for w in np.nonzero(cls)[0]:
                act = (act + int(cls[w])
                       * mod.sparse_act(n_gens[int(w)], s).dense()) % p
            for col in range(mod.dim(s + 1)):
                if pre[r, col]:
                    mat[col] = (mat[col] + int(pre[r, col]) * act[i]) % p
        out.append(mat)
    return out


def _path_elem(pa, degree):
    from nkoszul.quiver import PathSpaceElement
    return PathSpaceElement(degree, {pa: 1})


def reference_odd_mats(mod, lam, s, bsrc, btgt):
    from nkoszul.quiver import enumerate_paths
    n = mod.algebra.n
    xi = reference_xi(mod, s)
    paths = enumerate_paths(mod.algebra.dual.quiver.opposite(), n - 1)
    src, tgt = bsrc.shift(s + 1), btgt.shift(s + n)
    mats = {}
    for d in src.degrees():
        if tgt.dim(d) == 0:
            continue
        e1, e2 = d + s + 1, d + s + n
        pos2 = {key: c for c, key in enumerate(pair_keys(btgt.hom_index[e2]))}
        m = np.zeros((src.dim(d), tgt.dim(d)), dtype=np.int64)
        for pa, ximat in zip(paths, xi):
            cls = reduce_path_element(lam, _path_elem(pa, n - 1))
            rmul = lam.right_mult_matrix(-e2, n - 1, cls)
            for r, (b, x) in enumerate(pair_keys(bsrc.hom_index[e1])):
                for a in np.nonzero(rmul[:, b])[0]:
                    for x2 in np.nonzero(ximat[x])[0]:
                        key = (int(a), int(x2))
                        if key in pos2:
                            cidx = pos2[key]
                            m[r, cidx] = (m[r, cidx]
                                          + rmul[a, b] * ximat[x, x2]) % lam.p
        if m.any():
            mats[d] = m
    return mats


def reference_odd_system(c, models, prov, k, s):
    """The trial-module system: one module per unknown (a single entry of
    one degree-n action set to 1), each rerunning the odd differential to
    read off a column.  Returns the matrix, the right-hand side and the
    offset column of the all-zero action."""
    lam, ualg = c.algebra, prov.algebra
    p, n, dual = lam.p, ualg.n, ualg.dual
    n_gen_pos = {g.basis_index: gi for gi, g in enumerate(ualg.generators())
                 if g.degree == n}
    dim_s, dim_sn = prov.dim(s), len(models[k + 1][2])
    unknowns = dual.dim(n) * dim_s * dim_sn
    t = cx._transported_diff(c, k, models)
    degs = sorted(set(t.source.degrees()) | set(t.target.degrees()))

    def flatten(mats):
        return np.concatenate(
            [np.zeros(0, dtype=np.int64)]
            + [np.asarray(mats.get(d, np.zeros((t.source.dim(d),
                                                t.target.dim(d)),
                                               dtype=np.int64))).reshape(-1)
               for d in degs])

    def model_diff(actions):
        mod = gm.GradedModule(ualg, prov.verts, actions)
        return flatten(reference_odd_mats(mod, lam, s, models[k][0],
                                          models[k + 1][0]))

    off = model_diff(dense_actions(prov))
    cols = []
    for u in range(unknowns):
        w, rest = divmod(u, dim_s * dim_sn)
        i, r2 = divmod(rest, dim_sn)
        unit = np.zeros((dim_s, dim_sn), dtype=np.int64)
        unit[i, r2] = 1
        cols.append((model_diff({**dense_actions(prov), (n_gen_pos[w], s): unit})
                     - off) % p)
    a_mat = np.stack(cols, axis=1)
    rhs = (flatten({d: t.sparse_mat(d).dense() for d in degs}) - off) % p
    t1, mu1 = gm.multiplication_map(prov, s)
    kerz = linalg.null_space(mu1.dense().T, p)
    mu_un = dual.mult(1, n - 1)
    extra = []
    for z in kerz.basis.dense():
        for ui in range(dual.dim(n - 1)):
            coeff = {}
            for r in np.nonzero(z)[0]:
                i, ai = t1[int(r)]
                vec = mu_un[ai, ui]
                for w in np.nonzero(vec)[0]:
                    key = (int(w), int(i))
                    coeff[key] = (coeff.get(key, 0)
                                  + int(z[r]) * int(vec[w])) % p
            if not any(coeff.values()):
                continue
            for r2 in range(dim_sn):
                row = np.zeros(unknowns, dtype=np.int64)
                for (w, i), cv in coeff.items():
                    row[w * dim_s * dim_sn + i * dim_sn + r2] = cv
                extra.append(row)
    if extra:
        a_mat = np.concatenate([a_mat, np.stack(extra)])
        rhs = np.concatenate([rhs, np.zeros(len(extra), dtype=np.int64)])
    return a_mat, rhs, off


def reference_degree_one(c, models, dmap, ualg):
    """The degree-1 read-off from the single-step differentials."""
    one_gens = {g.basis_index: gi for gi, g in enumerate(ualg.generators())
                if g.degree == 1}
    q = ualg.dual.quiver.opposite()
    actions = {}
    for k in c.positions():
        s = dmap.delta(k)
        if k + 1 not in models or dmap.delta(k + 1) != s + 1:
            continue
        mat = cx._transported_diff(c, k, models).sparse_mat(-s - 1).dense()
        rows = models[k][0].hom_index.get(-1, [])
        cols = models[k + 1][0].hom_index.get(0, [])
        for ai in range(q.arrow_count):
            a = np.zeros((len(models[k][2]), len(models[k + 1][2])),
                         dtype=np.int64)
            for r, (b, x) in enumerate(rows):
                if b != ai:
                    continue
                for cidx, (vb, x2) in enumerate(cols):
                    if vb == q.arrow_source(ai):
                        a[x, x2] = mat[r, cidx]
            if a.any():
                actions[(one_gens[ai], s)] = a
    return actions


def loops_n2(p):
    """Two loops at one vertex with every path of length 2 a relation, over
    F_p: an algebra outside the corpus.  Its dual is relation-free."""
    from nkoszul.algebra import (Presentation, USupportAlgebra, build_dual,
                                 build_slices)
    from nkoszul.quiver import Quiver
    q = Quiver.make(1, [("x", 0, 0), ("y", 0, 0)])
    pres = Presentation.make(q, 2, verify._all_path_relations(q, 2), p=p)
    lam = build_slices(pres, 12)
    dual = build_dual(lam, 10)
    return {"n": 2, "lam": lam, "dual": dual,
            "ualg": USupportAlgebra(dual, 2)}


# the cases at small primes: two loops at one vertex, and two vertices with
# an arrow each way, with every path of length 3 a relation
SMALL_NAMES = {"loops": "two_loop_n3", "cycle": "two_vertex_n3"}
SMALL = [(kind, p) for p in (2, 3, 5) for kind in SMALL_NAMES]


def case_entry(key, p):
    if key == "loops_n2":
        return loops_n2(p)
    return verify.corpus(SMALL_NAMES.get(key, key), p)


def assert_same_mats(got: dict, want: dict, where: str):
    assert sorted(got) == sorted(want), where
    for d in want:
        assert np.array_equal(got[d], want[d]), f"{where}, degree {d}"


@pytest.mark.parametrize("key,p", [
    ("one_loop_n3", 101), ("two_loop_n3", 101), ("commutative_n2", 101),
    ("two_vertex_n3", 101), ("loops_n2", 3)] + SMALL)
def test_functors_match_the_replaced_loops(key, p):
    e = case_entry(key, p)
    lam, dual = e["lam"], e["dual"]
    rng = np.random.default_rng(7)
    for trial in range(3):
        mod = verify.random_quotient_module(rng, dual, 0, 4)
        c = cx.psi(mod, lam)
        for k in c.positions():
            if k + 1 in c.modules:
                assert_same_mats(
                    dense_mats(c.diff(k)),
                    reference_psi_mats(mod, lam, k, c.modules[k],
                                       c.modules[k + 1]),
                    f"psi, trial {trial}, position {k}")
        c = cx.nu(mod, lam)
        for j in mod.degrees():
            base = cx.cofree_module(lam, mod.verts_at(j))
            assert_same_mats(dense_actions(base),
                             reference_cofree_actions(lam, base.hom_index),
                             f"cofree, trial {trial}, degree {j}")
            if j + 1 in c.modules:
                acts = cx._arrow_acts(mod, j, range(lam.quiver.arrow_count))
                want = reference_hom_mats(
                    lam, j, base, cx.cofree_module(lam, mod.verts_at(j + 1)),
                    acts)
                assert_same_mats(dense_mats(c.diff(j)), want,
                                 f"nu, trial {trial}, position {j}")


@pytest.mark.parametrize("key,p", [
    ("one_loop_n3", 101), ("two_loop_n3", 101), ("two_vertex_n3", 101),
    ("loops_n2", 101), ("loops_n2", 3)] + SMALL)
def test_equivalence_and_extraction_match_the_replaced_loops(key, p):
    from nkoszul.algebra import DegreeMap
    e = case_entry(key, p)
    lam, ualg, n = e["lam"], e["ualg"], e["n"]
    params = TorsionParams(n, 1, 0)
    dmap = DegreeMap(0, n)
    rng = np.random.default_rng(11)
    systems = 0
    for trial in range(3):
        x = verify.random_distinguished_module(rng, e, params)
        c = cx.equivalence_F(x, lam, params)
        for k in c.positions():
            if k + 1 not in c.modules:
                continue
            s = dmap.delta(k)
            bsrc = cx.cofree_module(lam, x.verts_at(s))
            btgt = cx.cofree_module(lam, x.verts_at(dmap.delta(k + 1)))
            if n == 2 or k % 2 == 0:
                acts = cx._arrow_acts(x, s, range(lam.quiver.arrow_count))
                want = reference_hom_mats(lam, s, bsrc, btgt, acts)
            else:
                want = reference_odd_mats(x, lam, s - 1, bsrc, btgt)
            assert_same_mats(dense_mats(c.diff(k)), want,
                             f"F, trial {trial}, position {k}")
        # the degree-n system of extract_module, built directly and from
        # one trial module per unknown
        cert = cx._check_conditions_ab(c, params)
        if cert is None:
            # a standing gap, not a builder difference: for n = 2, in_L
            # accepts generators in odd degrees, whose images fail the odd
            # socle condition (a simple module in degree 1 already does)
            assert n == 2 and any(d % 2 for d in gm.top_dims(x))
            continue
        models = cx._models(c, cert)
        verts = {dmap.delta(k): tuple(models[k][2]) for k in c.positions()}
        actions = cx._degree_one_actions(c, models, dmap, ualg)
        assert_same_mats({key: a.dense() for key, a in actions.items()},
                         reference_degree_one(c, models, dmap, ualg),
                         f"degree-1 read-off, trial {trial}")
        prov = gm.GradedModule(ualg, verts, actions)
        for k in c.positions():
            s = dmap.delta(k) - 1
            if n == 2 or k % 2 == 0 or k + 1 not in models \
                    or not prov.dim(s) or not prov.dim(s + 1):
                continue
            a_mat, rhs = dense_oracle.odd_system(c, models, prov, k, s)
            ref_a, ref_rhs, off = reference_odd_system(c, models, prov, k, s)
            assert not off.any()  # linear in the action, no offset
            assert np.array_equal(a_mat, ref_a)
            assert np.array_equal(rhs, ref_rhs)
            systems += 1
        if n > 2:
            assert_degree_n_matches_the_references(
                c, models, prov, cx.extract_module(c, ualg, params), params)
        assert_round_trip(c, x, ualg, params)
    assert systems or n == 2


def assert_degree_n_matches_the_references(c, models, prov, got, params):
    """The degree-n actions of `got`, read off the odd differentials of c,
    are at each level s the solution of the system over every entry of the
    action at once (`dense_oracle.odd_system`), and at s + 1 the induction
    through mu_1 (`dense_oracle.induced_degree_n`) from that solution.
    `prov` holds the degree-1 actions alone, and c is in the image.
    Returns the number of levels compared."""
    from nkoszul.algebra import DegreeMap
    ualg, n = prov.algebra, params.n
    n_gens = gm.generators_of_degree(ualg, n)
    dmap = DegreeMap(params.m, n)
    levels = 0
    for k in c.positions():
        s = dmap.delta(k) - 1
        if k % 2 == 0 or k + 1 not in models \
                or not prov.dim(s) or not prov.dim(s + 1):
            continue
        want = linalg.solve(*dense_oracle.odd_system(c, models, prov, k, s),
                            c.p)
        assert want is not None
        assert np.array_equal(gm.stacked_action(got, s).dense().reshape(-1),
                              want)
        if got.dim(s + 1 + n):
            solved = want.reshape(len(n_gens), prov.dim(s), -1)
            level = gm.GradedModule(ualg, prov.verts, {
                **prov.stored_actions(),
                **{(n_gens[w], s): a for w, a in enumerate(solved)}})
            for w, a in enumerate(dense_oracle.induced_degree_n(level, s)):
                assert np.array_equal(
                    got.sparse_act(n_gens[w], s + 1).dense(), a)
        levels += 1
    return levels


def test_odd_solution_matches_the_whole_system_on_the_suite_trials(
        monkeypatch):
    """On every degree-n extraction that the seed-0 equivalence suites run
    on a complex in the image, the actions read off the odd differentials
    are the solution of the system over every entry of the action at once,
    and one degree above each level the induction through mu_1
    (`assert_degree_n_matches_the_references`)."""
    from nkoszul.algebra import DegreeMap
    real, runs = cx._degree_n_actions, []

    def recorded(c, models, ualg, params, actions, n_gens):
        dmap = DegreeMap(params.m, params.n)
        verts = {dmap.delta(k): models[k][2] for k in c.positions()}
        prov = gm.GradedModule(ualg, verts, actions)
        real(c, models, ualg, params, actions, n_gens)
        runs.append((c, models, ualg, params, prov,
                     gm.GradedModule(ualg, verts, actions)))
    monkeypatch.setattr(cx, "_degree_n_actions", recorded)
    for name in ("equivalence", "dual_equivalence"):
        assert verify.run_suite(name, seed=0)["passed"]
    monkeypatch.undo()
    levels = [assert_degree_n_matches_the_references(c, models, prov, got,
                                                     params)
              for c, models, ualg, params, prov, got in runs
              if cx.in_Y(c, ualg, params)[0]]
    assert sum(levels)


def python_pair_matrix(src_pairs, tgt_pairs, terms, p):
    return np.array([[sum(int(L[u, u2]) * int(R[v, v2]) for L, R in terms) % p
                      for u2, v2 in tgt_pairs] for u, v in src_pairs],
                    dtype=np.int64).reshape(len(src_pairs), len(tgt_pairs))


@pytest.mark.parametrize("p", [2, 3, 101, 3037000493, 4611686018427388039])
def test_pair_matrix_is_exact_at_every_accepted_modulus(p):
    """`cx._pair_map` against a loop on Python integers and the dense block
    it replaced (`dense_oracle.pair_matrix`), with each factor given as an
    array and as a Sparse."""
    rng = np.random.default_rng(p % 1000)
    src = [(u, v) for u in range(4) for v in range(3) if (u + v) % 3]
    tgt = [(u, v) for u in range(5) for v in range(6) if (u * v) % 4 != 1]
    for fill in ("random", "top"):
        terms = []
        for _ in range(3):
            shapes = ((4, 5), (3, 6))
            if fill == "random":
                terms.append(tuple(rng.integers(0, p, size=sh, dtype=np.int64)
                                   for sh in shapes))
            else:
                terms.append(tuple(np.full(sh, p - 1, dtype=np.int64)
                                   for sh in shapes))
        want = python_pair_matrix(src, tgt, terms, p)
        assert np.array_equal(dense_oracle.pair_matrix(src, tgt, terms, p),
                              want)
        sparse = linalg.Sparse.from_dense
        for form in ((0, 0), (1, 0), (0, 1), (1, 1)):
            mixed = [tuple(sparse(f, p) if s else f for f, s in zip(t, form))
                     for t in terms]
            got = cx._pair_map(np.array(src), np.array(tgt), mixed, p)
            assert got == sparse(want, p)
    assert cx._pair_map(np.zeros((0, 2), dtype=np.intp), np.array([(0, 0)]),
                        terms, p) == linalg.Sparse.zero(0, 1)


# -- membership by an exact round trip, against the search it replaced ------


def reference_in_Y(c, ualg, params, seed=0):
    """The membership test with a search: the conditions certified on their
    own and again inside the extraction, then a search for a chain
    isomorphism from c to F of the extracted module."""
    if c.is_zero():
        return True, gm.zero_module(ualg)
    if cx._check_conditions_ab(c, params) is None:
        return False, None
    try:
        x = cx.extract_module(c, ualg, params)
    except (ComplexError, gm.ModuleError):
        return False, None
    try:
        if not gm.in_L(x, params):
            return False, None
        c2 = cx.equivalence_F(x, c.algebra, params)
    except (ComplexError, gm.ModuleError):
        return False, None
    if not iso_complexes(c, c2, seed=seed):
        return False, None
    return True, x


def vertex_sorted(x):
    """x with the basis of each degree stably sorted by vertex."""
    perm = {d: np.argsort(x.verts_at(d), kind="stable") for d in x.degrees()}
    verts = {d: tuple(x.verts_at(d)[i] for i in perm[d]) for d in perm}
    actions = {(gi, d): m[np.ix_(perm[d], perm[d + x.gens[gi].degree])]
               for (gi, d), m in dense_actions(x).items()}
    return gm.GradedModule(x.algebra, verts, actions)


def assert_round_trip(c, x, ualg, params):
    """in_Y reads c = F(x) back as x itself, read in the top basis of each
    component, which sorts the basis of x by vertex."""
    verdict, wit = cx.in_Y(c, ualg, params)
    assert verdict
    assert verify.module_json(wit) == verify.module_json(vertex_sorted(x))


def assert_in_Y_matches_reference(c, ualg, params, seed=0):
    verdict, wit = cx.in_Y(c, ualg, params)
    ref_verdict, ref_wit = reference_in_Y(c, ualg, params, seed=seed)
    assert verdict == ref_verdict
    if wit is None or ref_wit is None:
        assert wit is ref_wit
    else:
        assert verify.module_json(wit) == verify.module_json(ref_wit)
    return verdict


@pytest.mark.parametrize("seed", range(7))
def test_in_Y_matches_the_search_it_replaced_on_the_suite_trials(
        monkeypatch, seed):
    # suite_equivalence: F(X) of the first draw of each trial, and the
    # negative controls built from the first image
    e = entry()
    params = TorsionParams(e["n"], 1, 0)
    rng = np.random.default_rng(seed)
    images = []
    for _ in range(15):
        x = verify.random_distinguished_module(rng, e, params)
        assert verify.random_distinguished_module(rng, e, params) is not None
        images.append(cx.equivalence_F(x, e["lam"], params))
        assert_round_trip(images[-1], x, e["ualg"], params)
    controls = verify.negative_control_complexes(images[0], 5)
    verdicts = [assert_in_Y_matches_reference(c, e["ualg"], params, seed)
                for c in images + controls]
    assert verdicts == [True] * 15 + [False] * 5
    # suite_dual_equivalence: whatever in_Yo hands to in_Y
    real, cases = cx.in_Y, []

    def record(c, ualg, params):
        cases.append((c, ualg, params))
        return real(c, ualg, params)
    monkeypatch.setattr(cx, "in_Y", record)
    assert verify.suite_dual_equivalence(seed=seed, duality_trials=0)["passed"]
    monkeypatch.undo()
    assert [assert_in_Y_matches_reference(*case, seed=seed)
            for case in cases] == [True] * 15


@pytest.mark.parametrize("key,p", [("commutative_n2", 101), ("loops_n2", 3)])
def test_in_Y_matches_the_search_it_replaced_at_n_2(key, p):
    e = case_entry(key, p)
    params = TorsionParams(2, 1, 0)
    rng = np.random.default_rng(5)
    verdicts = []
    for _ in range(4):
        x = verify.random_distinguished_module(rng, e, params)
        c = cx.equivalence_F(x, e["lam"], params)
        verdicts.append(assert_in_Y_matches_reference(c, e["ualg"], params))
        for bad in verify.negative_control_complexes(c, 2):
            assert not assert_in_Y_matches_reference(bad, e["ualg"], params)
    assert True in verdicts


def perturbed(c, k, d, p):
    """c with the first nonzero of its differential at k in degree d
    raised by 1 mod p."""
    f = c.diffs[k]
    entries = f.sparse_mat(d)
    mat = entries.dense()
    mat[entries.rows[0], entries.cols[0]] += 1
    return cx.ComplexOfGraded(c.algebra, c.period, c.modules, {
        **c.diffs, k: gm.GradedMorphism(f.source, f.target,
                                        {**f.stored_mats(), d: mat % p})})


@pytest.mark.parametrize("m", [0, 1])
def test_a_perturbed_odd_differential_is_read_or_refused_by_its_block(m):
    """cubic_survivor's base algebra has top 3 = n, so F's odd differential
    at level s has two degree blocks: base degree 1 - n of its source
    model (component degree -n - s), where the degree-n action is read,
    and base degree -n.  One entry perturbed in the read block is F of the
    module read back; perturbed in the other, the complex is in no image,
    and the round trip refuses it, as the search does."""
    from nkoszul.algebra import DegreeMap
    e = verify.corpus("cubic_survivor", 101)
    lam, ualg, n = e["lam"], e["ualg"], e["n"]
    params = TorsionParams(n, 1, m)
    dmap = DegreeMap(m, n)
    x = gm.restrict_S(free_module(e["dual"], [(0, m)], 7), ualg, params)
    c = cx.equivalence_F(x, lam, params)
    verdicts = {True: 0, False: 0}
    for k in c.diffs:
        if k % 2 == 0:
            continue
        s = dmap.delta(k) - 1
        assert sorted(c.diffs[k].stored_mats()) == [-n - s - 1, -n - s]
        for d in (-n - s, -n - s - 1):
            bad = perturbed(c, k, d, lam.p)
            verdict, wit = cx.in_Y(bad, ualg, params)
            assert verdict == (d == -n - s)
            assert verdict == assert_in_Y_matches_reference(bad, ualg,
                                                            params)
            if verdict:
                assert iso_complexes(bad, cx.equivalence_F(wit, lam, params))
            verdicts[verdict] += 1
    assert verdicts[True] == verdicts[False] > 1


@pytest.mark.parametrize("m", [0, 1])
def test_F_at_n_2_is_nu_over_the_dual_shifted(m):
    """At n = 2 every step of F is a Hom step, so F is the Hom functor nu
    over the dual with positions shifted by -m, as its own branch built it
    (`dense_oracle.F_at_n2`): on the simple modules in degrees 1 and 3 of
    the n = 2 disagreement, and on modules generated in even degrees (and
    one in an odd degree), whose odd positions have differentials."""
    e = entry("commutative_n2")
    params = TorsionParams(2, 1, m)
    dual, ualg = e["dual"], e["ualg"]
    mods = [gm.GradedModule(ualg, {d: [0]}, {}) for d in (1, 3)]
    mods += [gm.restrict_S(free_module(dual, gens, 5), ualg, params)
             for gens in ([(0, 0)], [(0, 2)], [(0, 0), (0, 2)], [(0, 1)])]
    diffs = 0
    for x in mods:
        got = cx.equivalence_F(x, e["lam"], params)
        want = dense_oracle.F_at_n2(x, e["lam"], m)
        assert verify.complex_json(got) == verify.complex_json(want)
        diffs += sum(k % 2 for k in got.diffs)
    assert diffs


def test_in_Y_certifies_once_and_searches_nothing(monkeypatch):
    e = entry("two_vertex_n3")
    params = TorsionParams(e["n"], 1, 0)
    x = gm.restrict_S(free_module(e["dual"], [(0, 0)], 7), e["ualg"], params)
    c = cx.equivalence_F(x, e["lam"], params)
    real, calls = cx.certify_linear, []

    def counted(c, **kw):
        calls.append(c)
        return real(c, **kw)

    def forbidden(*args, **kw):
        raise AssertionError("in_Y solved a Hom space or searched")
    monkeypatch.setattr(cx, "certify_linear", counted)
    monkeypatch.setattr(cx, "hom_complexes", forbidden)
    monkeypatch.setattr(cx, "hom_space", forbidden)
    monkeypatch.setattr(gm, "hom_space", forbidden)
    verdict, wit = cx.in_Y(c, e["ualg"], params)
    assert verdict and calls == [c]
    assert verify.module_json(wit) == verify.module_json(vertex_sorted(x))
    calls.clear()
    bads = verify.negative_control_complexes(c, 3)
    for bad in bads:
        assert cx.in_Y(bad, e["ualg"], params) == (False, None)
    assert calls == bads


def test_in_Y_rejects_a_round_trip_that_differs(monkeypatch):
    """F(x) with one differential doubled, or one component dropped, is no
    longer c: the exact comparison must see it."""
    e = entry("two_vertex_n3")
    params = TorsionParams(e["n"], 1, 0)
    x = gm.restrict_S(free_module(e["dual"], [(0, 0)], 7), e["ualg"], params)
    c = cx.equivalence_F(x, e["lam"], params)
    real = cx.equivalence_F
    k = min(c.diffs)

    def doubled(*args, **kw):
        fx = real(*args, **kw)
        f = fx.diffs[k]
        return cx.ComplexOfGraded(fx.algebra, 2, fx.modules, {
            **fx.diffs, k: gm.GradedMorphism(
                f.source, f.target, {d: 2 * m for d, m in dense_mats(f).items()})})

    def dropped(*args, **kw):
        fx = real(*args, **kw)
        return cx.ComplexOfGraded(
            fx.algebra, 2, {j: m for j, m in fx.modules.items() if j != k},
            {j: f for j, f in fx.diffs.items() if j not in (k - 1, k)})
    assert cx.in_Y(c, e["ualg"], params)[0]
    for fake in (doubled, dropped):
        monkeypatch.setattr(cx, "equivalence_F", fake)
        assert cx.in_Y(c, e["ualg"], params) == (False, None)


def reference_projective_witness(comp, want, seed=0):
    """The projective certificate by a search: an isomorphism onto the
    component from the free module on the generators of its top."""
    tops = gm.top_complements(comp)
    if set(tops) != {want}:
        return None
    gens = [(comp.verts_at(want)[i], want) for i in tops[want]]
    model = free_module(comp.algebra, gens, comp.support_top())
    return iso_modules(model, comp, seed=seed)


def test_projective_certificate_is_read_through_the_dual(monkeypatch):
    """A component is projective generated in degree e exactly when the
    search finds a free module onto it, when the cover map is an
    isomorphism (the oracle), and when the envelope-map certificate of its
    graded dual at -e exists, listing the same vertices."""
    from nkoszul.algebra import DegreeMap
    comps = []   # (component, degree it should be generated in)
    for name in ("one_loop_n3", "two_loop_n3", "two_vertex_n3"):
        e = entry(name)
        rng = np.random.default_rng(3)
        for _ in range(2):
            c = cx.psi(verify.random_quotient_module(rng, e["dual"], 0, 3),
                       e["lam"])
            comps += [(c.modules[k], -k) for k in c.positions()]
    e = entry("two_vertex_n3")
    params = TorsionParams(e["n"], 1, 0)
    x = gm.restrict_S(free_module(e["dual"], [(0, 0)], 7), e["ualg"], params)
    g = cx.equivalence_F_dual(graded_dual(x),
                              gm.opposite_algebra(e["lam"])[0], params)
    dmap = DegreeMap(0, e["n"])
    comps += [(g.modules[k], dmap.delta(-k)) for k in g.positions()]
    # not linear: generated in the wrong degree, in two degrees, or
    # generated in one degree but not free
    lam = entry()["lam"]
    f = free_module(lam, [(0, 0)], 3)
    quo, _ = gm.quotient_module(f, gm.submodule_closure(
        f, {1: gm._radical_rrefs(f)[1].basis.dense()[:1]}))
    negatives = [(f, 1), (free_module(lam, [(0, 0), (0, 1)], 3), 0),
                 (quo, 0)]
    expected = [True] * len(comps) + [False] * len(negatives)

    def forbidden(*args, **kw):
        raise AssertionError("the projective certificate solved a Hom space")
    got = []
    for comp, want in comps + negatives:
        ref = reference_projective_witness(comp, want)
        stalk = cx.stalk_complex(comp, 0, 2)
        assert (projective_certificate(stalk, lambda k: want) is None) == (
            ref is None)
        dual = cx.dualize_complex(stalk)
        with monkeypatch.context() as mp:
            mp.setattr(cx, "hom_space", forbidden)
            mp.setattr(gm, "hom_space", forbidden)
            cert = cx.certify_linear(dual, degree_of=lambda k: -want)
        assert (cert is None) == (ref is None)
        got.append(cert is not None)
        if cert is not None:
            wit = cert[0]["witness"]
            assert wit.target is dual.modules[0]
            assert is_iso(wit) and commutes(wit)
            assert cert[0]["mults"] == [(v, -d)
                                        for v, d in ref.source.free_gens]
    assert got == expected


def reference_injective_witness(comp, want, seed=0):
    """The almost injective certificate by a search: an isomorphism onto the
    component from the cofree module on the vertices of its socle, found in
    the Hom space."""
    socs = gm.socle_subspaces(comp)
    if set(socs) != {want}:
        return None
    vlist = [comp.verts_at(want)[int(np.nonzero(row)[0][0])]
             for row in socs[want].basis.dense()]
    model = cx.cofree_module(comp.algebra, vlist).shift(-want)
    iso = iso_modules(model, comp, seed=seed)
    if iso is None:
        return None
    return {"mults": [(v, want) for v in vlist], "witness": iso}


def injective_certificates(monkeypatch, comps):
    """Per (component, degree): whether the envelope-map certificate exists.
    It must exist exactly where the search finds one, be an isomorphism of
    modules onto the component and list the same vertices, and it must
    solve no Hom space."""
    def forbidden(*args, **kw):
        raise AssertionError("the injective certificate solved a Hom space")
    got = []
    for comp, want in comps:
        ref = reference_injective_witness(comp, want)
        with monkeypatch.context() as mp:
            mp.setattr(gm, "hom_space", forbidden)
            mp.setattr(cx, "hom_space", forbidden)
            cert = cx.certify_linear(cx.stalk_complex(comp, 0, 2),
                                     degree_of=lambda k: want)
        assert (cert is None) == (ref is None)
        got.append(cert is not None)
        if cert is not None:
            wit = cert[0]["witness"]
            assert wit.target is comp and is_iso(wit) and commutes(wit)
            assert cert[0]["mults"] == ref["mults"]
    return got


@pytest.mark.parametrize("key,p", [
    ("one_loop_n3", 101), ("two_loop_n3", 101), ("two_vertex_n3", 101),
    ("commutative_n2", 101)] + SMALL)
def test_injective_certificate_is_the_envelope_map(monkeypatch, key, p):
    from nkoszul.algebra import DegreeMap
    e = case_entry(key, p)
    lam, n = e["lam"], e["n"]
    params = TorsionParams(n, 1, 0)
    dmap = DegreeMap(0, n)
    rng = np.random.default_rng(13)
    comps = []   # (component, degree it should be cogenerated in)
    for _ in range(2):
        mod = verify.random_quotient_module(rng, e["dual"], 0, 3)
        c = cx.psi(mod, lam)
        comps += [(m, m.support_top()) for m in c.modules.values()]
        c = cx.nu(mod, lam)
        comps += [(c.modules[k], -k + shift) for k in c.positions()
                  for shift in (0, 1)]
        x = verify.random_distinguished_module(rng, e, params)
        c = cx.equivalence_F(x, lam, params)
        comps += [(c.modules[k], -dmap.delta(k)) for k in c.positions()]
    got = injective_certificates(monkeypatch, comps)
    assert any(got) and not all(got)


def test_injective_certificate_refuses_what_is_not_cofree(monkeypatch):
    """Over k[x]/x^3: a socle in two degrees with the dimensions of the
    cofree module, the cofree module at the wrong degree, and the cofree
    module one dimension short."""
    lam = entry("one_loop_n3")["lam"]
    gx = next(gi for gi, g in enumerate(lam.generators()) if g.degree == 1)
    cofree = cx.cofree_module(lam, [0])
    assert {d: cofree.dim(d) for d in cofree.degrees()} == {-2: 1, -1: 1,
                                                            0: 1}
    split = gm.GradedModule(lam, {-2: (0,), -1: (0,), 0: (0,)},
                            {(gx, -1): [[1]]})
    short = gm.GradedModule(lam, {-1: (0,), 0: (0,)}, {(gx, -1): [[1]]})
    comps = [(cofree, 0), (split, 0), (cofree, 1), (cofree, -1), (short, 0)]
    assert injective_certificates(monkeypatch, comps) == [True] + [False] * 4


def test_in_Y_reads_three_copies_back_over_F2(monkeypatch):
    """Three copies of the free dual module over two loops at p = 2: the
    search solved a Hom system of 46080 x 48384 entries here."""
    e = verify.corpus("two_loop_n3", 2)
    params = TorsionParams(3, 1, 0)
    x = gm.restrict_S(free_module(e["dual"], [(0, 0)] * 3, 4), e["ualg"],
                      params)
    c = cx.equivalence_F(x, e["lam"], params)

    def forbidden(*args, **kw):
        raise AssertionError("in_Y solved a Hom space")
    for mod, name in ((gm, "hom_space"), (cx, "hom_space")):
        monkeypatch.setattr(mod, name, forbidden)
    assert_round_trip(c, x, e["ualg"], params)


def truncated_free_F(t):
    """Three copies of the free dual module over two loops at n = 3 and
    p = 2, restricted to S and truncated at t; with F of it."""
    e = verify.corpus("two_loop_n3", 2)
    params = TorsionParams(3, 1, 0)
    x = gm.restrict_S(free_module(e["dual"], [(0, 0)] * 3, t), e["ualg"],
                      params)
    return e, params, cx.equivalence_F(x, e["lam"], params)


def test_in_Y_of_F_answers_past_truncation_5():
    """Truncated at 7, the degree-3 system over every entry of the action
    at once would need 36864 x 36864 entries (10.1 GiB); solved per vertex
    block it has at most 73728 entries, and in_Y answers."""
    e, params, c = truncated_free_F(7)
    assert cx.in_Y(c, e["ualg"], params)[0]


def test_membership_reads_the_stored_actions_under_a_small_cap(monkeypatch):
    """With F built and the dense cap at 1 MiB, in_Y of F and in_L of the
    module read back answer: the socles, the commutation checks and mu_1
    read the stored Sparse actions, where densifying them needs 9 MiB."""
    e, params, c = truncated_free_F(7)
    monkeypatch.setattr(linalg, "MAX_SLICE_BYTES", 1 << 20)
    ok, x = cx.in_Y(c, e["ualg"], params)
    assert ok and gm.in_L(x, params)


def test_extraction_solves_nothing_under_a_small_cap(monkeypatch):
    """With the slice cap at 64 KiB, in_Y of F answers: the degree-n action
    is read off the odd differential, where a solve against it needed a
    system of 73728 entries for one vertex block, above the cap.  The
    extraction builds no pair matrix and solves no system."""
    from nkoszul import algebra
    e, params, c = truncated_free_F(7)
    monkeypatch.setattr(algebra, "MAX_SLICE_BYTES", 1 << 16)
    ok, x = cx.in_Y(c, e["ualg"], params)
    assert ok

    def unreached(*args):
        raise AssertionError("the extraction built a system")
    for owner, name in [(cx, "_pair_map"), (cx, "mu1_preimage"),
                        (linalg, "solve_matrix")]:
        monkeypatch.setattr(owner, name, unreached)
    got = cx._extract(c, e["ualg"], params)[0]
    assert verify.module_json(got) == verify.module_json(x)


def test_repinned_in_Y_witness_is_isomorphic_to_the_searched_one(monkeypatch):
    """`check inputs/commutative_n2.json --predicate in_Y --object nu(M)` is
    the one pinned report whose witness the envelope map changed.  With the
    search put back, the CLI prints the old pinned report again, and its
    witness is isomorphic to the new one."""
    import contextlib
    import hashlib
    import io
    import json
    import os
    from nkoszul.cli import main
    from nkoszul.docio import parse_module
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.chdir(here)
    argv = ["check", "inputs/commutative_n2.json", "--predicate", "in_Y",
            "--object", "nu(M)"]

    def report():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        return out.getvalue()

    def searched(c, degree_of):
        certs = {k: reference_injective_witness(c.modules[k], degree_of(k))
                 for k in c.positions()}
        return None if None in certs.values() else certs
    new = report()
    monkeypatch.setattr(cx, "certify_linear", searched)
    old = report()
    assert hashlib.sha256(old.encode()).hexdigest() == (
        "5e9dbc5eb1176fe85d48156176dc15383671c1a1c29b7a9310572174fb84619f")
    assert hashlib.sha256(new.encode()).hexdigest() == (
        "a484fedd7c0f41ec9455156d8f845275ad331f912283addbf2ffafc5fb9d44b9")
    ualg = verify.corpus("commutative_n2")["ualg"]
    old_x, new_x = (parse_module(json.loads(r)["witness"], ualg, "witness")
                    for r in (old, new))
    assert verify.module_json(old_x) != verify.module_json(new_x)
    iso = iso_modules(old_x, new_x)
    assert iso is not None and is_iso(iso) and commutes(iso)


# -- known witnesses, checked rather than searched for -----------------------


def duality_square(e, rng):
    """D nu(M) and psi(DM) over the opposite algebra for a random M over
    the dual, with the natural pairing between them."""
    lam = e["lam"]
    mod = verify.random_representation(rng, e["dual"], range(0, 2 * e["n"] + 2),
                                       2)
    d_nu = cx.dualize_complex(cx.nu(mod, lam))
    dm = graded_dual(mod)
    c_psi = cx.psi(dm, gm.opposite_algebra(lam)[0])
    return d_nu, c_psi, verify.pairing_witness(d_nu, c_psi, mod, lam)


def round_trip(e, x, params):
    """in_Y's module w read back off F(x), F(w), F(x), the sorting witness
    w -> x and its image under F."""
    fx = cx.equivalence_F(x, e["lam"], params)
    ok, w = cx.in_Y(fx, e["ualg"], params)
    assert ok
    perm = verify.sorting_witness(x)
    fw = cx.equivalence_F(w, e["lam"], params)
    return w, fw, fx, perm, cx.equivalence_F_map(
        gm.GradedMorphism(w, x, perm), fw, fx, params)


def stalk_check(w, x, mats):
    return cx.chain_iso_failure(cx.stalk_complex(w, 0, 2),
                                cx.stalk_complex(x, 0, 2),
                                {0: gm.GradedMorphism(w, x, mats)})


@pytest.mark.parametrize("kind,p", SMALL)
def test_known_witnesses_pass_the_check_at_small_primes(kind, p):
    e = case_entry(kind, p)
    params = TorsionParams(e["n"], 1, 0)
    rng = np.random.default_rng(p)
    squares = 0
    for _ in range(3):
        d_nu, c_psi, fam = duality_square(e, rng)
        assert cx.chain_iso_failure(d_nu, c_psi, fam) is None
        squares += bool(fam)
        x = verify.random_distinguished_module(rng, e, params)
        w, fw, fx, perm, ffam = round_trip(e, x, params)
        assert stalk_check(w, x, perm) is None
        assert cx.chain_iso_failure(fw, fx, ffam) is None
    assert squares


@pytest.mark.parametrize("kind,p", SMALL)
def test_mutated_witnesses_are_reported_where_they_fail(kind, p):
    from nkoszul.algebra import DegreeMap
    e = case_entry(kind, p)
    params = TorsionParams(e["n"], 1, 0)
    rng = np.random.default_rng(p)
    for _ in range(10):
        d_nu, c_psi, fam = duality_square(e, rng)
        if c_psi.diffs:
            break
    assert c_psi.diffs
    # one block doubled: over F_2 it vanishes; otherwise the map stays
    # invertible but no longer commutes with the arrows into that degree
    k = min(fam)
    f = fam[k]
    mats = dense_mats(f)
    top = max(mats)
    assert top > min(mats)
    doubled = {**fam, k: gm.GradedMorphism(
        f.source, f.target, {**mats, top: 2 * mats[top]})}
    want = ("invertible", k, top) if p == 2 else ("module-map", k, top - 1)
    bad = cx.chain_iso_failure(d_nu, c_psi, doubled)
    assert (bad["condition"], bad["position"], bad["degree"]) == want
    # one differential doubled: the first square through it fails in the
    # lowest degree where that differential is nonzero
    j = min(c_psi.diffs)
    g = c_psi.diffs[j]
    twice = cx.ComplexOfGraded(c_psi.algebra, c_psi.period, c_psi.modules, {
        **c_psi.diffs,
        j: gm.GradedMorphism(g.source, g.target,
                             {d: 2 * m for d, m in dense_mats(g).items()})})
    bad = cx.chain_iso_failure(d_nu, twice, fam)
    low = min(d for d, m in dense_mats(g).items() if m.any())
    assert bad == {"condition": "differential", "position": j, "degree": low}
    # two rows of P swapped, in the lowest degree with two basis elements
    # at one vertex: still a permutation, no longer a module map, and F of
    # it no longer a chain map
    x = gm.restrict_S(free_module(e["dual"], [(0, 0)] * 2, 4), e["ualg"],
                      params)
    w, fw, fx, perm, _ = round_trip(e, x, params)
    s, r0, r1 = min((s, r0, r1) for s in perm
                    for r0 in range(w.dim(s)) for r1 in range(r0 + 1, w.dim(s))
                    if w.verts_at(s)[r0] == w.verts_at(s)[r1])
    swapped = {**perm, s: perm[s][[r1 if r == r0 else r0 if r == r1 else r
                                   for r in range(w.dim(s))]]}
    bad = stalk_check(w, x, swapped)
    assert bad["condition"] == "module-map" and bad["position"] == 0
    assert bad["degree"] in (s - 1, s)
    bad = cx.chain_iso_failure(
        fw, fx, cx.equivalence_F_map(gm.GradedMorphism(w, x, swapped), fw,
                                     fx, params))
    pos = DegreeMap(params.m, params.n).inverse(s)
    assert bad["condition"] == "differential"
    assert bad["position"] in (pos - 1, pos)
    assert bad["degree"] in fw.modules[bad["position"]].degrees()


def test_the_identity_passes_where_the_search_missed_over_F2():
    """Three copies of each simple module on an 8-vertex linear quiver over
    F_2: a random element of its endomorphisms is invertible with
    probability (168/512)^8, about 1e-4, so the search's 64 draws miss."""
    from nkoszul.algebra import Presentation, build_slices
    from nkoszul.quiver import Quiver
    q = Quiver.make(8, [(f"a{i}", i, i + 1) for i in range(7)])
    lam = build_slices(Presentation.make(q, 2, [], p=2), 3)
    m = gm.GradedModule(lam, {0: tuple(v for v in range(8) for _ in range(3))},
                        {})
    assert iso_modules(m, m) is None
    s = cx.stalk_complex(m, 0, 2)
    assert cx.chain_iso_failure(s, s, verify.identity_witness(s, s)) is None


def test_chain_iso_failure_names_missing_positions_and_maps():
    e = entry("one_loop_n3")
    c = cx.nu(dual_test_module(e, hi=4), e["lam"])
    k = max(c.positions())
    short = cx.ComplexOfGraded(
        c.algebra, c.period, {j: m for j, m in c.modules.items() if j != k},
        {j: f for j, f in c.diffs.items() if j + 1 != k})
    assert cx.chain_iso_failure(c, short, {}) == {
        "condition": "positions", "position": k,
        "degree": c.modules[k].degrees()[0]}
    fam = verify.identity_witness(c, c)
    del fam[k]
    assert cx.chain_iso_failure(c, c, fam) == {
        "condition": "invertible", "position": k,
        "degree": c.modules[k].degrees()[0]}
    # swapping the simple modules at the two vertices is invertible and
    # commutes with every arrow (all act by zero), but is no module map
    lam = entry("two_vertex_n3")["lam"]
    s = cx.stalk_complex(gm.GradedModule(lam, {0: (0, 1)}, {}), 0, 2)
    swap = gm.GradedMorphism(s.modules[0], s.modules[0],
                             {0: np.array([[0, 1], [1, 0]])})
    assert commutes(swap) and is_iso(swap)
    assert cx.chain_iso_failure(s, s, {0: swap}) == {
        "condition": "module-map", "position": 0, "degree": 0}


# -- labels and pair indices as read-only arrays -----------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_cofree_index_matches_the_pair_loop(p):
    """On every corpus algebra over F_p, the (E, 2) array index of
    the cofree basis lists the pairs of the double loop it replaced, in
    its order, for labels in any order, repeated, or none; and the model
    is memoized on the labels whatever sequence holds them."""
    rng = np.random.default_rng(p)
    for name in ("one_loop_n3", "two_loop_n3", "commutative_n2",
                 "two_vertex_n3", "two_vertex_n4"):
        lam = verify.corpus(name, p)["lam"]
        nv = lam.nvert
        vlists = [[], list(range(nv)), [nv - 1] * 3, list(range(nv))[::-1]]
        vlists += [rng.integers(0, nv, size=int(rng.integers(1, 8))).tolist()
                   for _ in range(4)]
        for vlist in vlists:
            got = cx.cofree_index(lam, np.array(vlist, dtype=np.intp))
            want = dense_oracle.cofree_index(lam, vlist)
            assert sorted(got) == sorted(want)
            for e, pairs in got.items():
                assert pairs.dtype == np.intp and not pairs.flags.writeable
                assert pair_keys(pairs) == want[e]
            model = cx.cofree_module(lam, np.array(vlist, dtype=np.intp))
            assert model is cx.cofree_module(lam, tuple(vlist))
            assert {e: pair_keys(a) for e, a in model.hom_index.items()} \
                == want



@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_one_word_chain_matches_the_dense_products(p):
    """On every corpus algebra over F_p, free modules over the dual, U and
    E, stored Sparse and stored dense, act by every basis element (the
    vertex idempotents of the two-vertex algebras included) as the dense
    letter products of the oracle do: on every row, as `_element_action`
    reads it, and on the rows of each vertex block, as the cover maps read
    it."""
    from nkoszul.algebra import yoneda_regrade
    checked = 0
    for name in ("one_loop_n3", "two_loop_n3", "commutative_n2",
                 "two_vertex_n3", "two_vertex_n4"):
        e = verify.corpus(name, p)
        dual, ualg, n = e["dual"], e["ualg"], e["n"]
        for alg, hi in ((dual, 2 * n), (ualg, 2 * n),
                        (yoneda_regrade(ualg), 4)):
            f = free_module(alg, [(v, 0) for v in range(alg.nvert)]
                            + [(0, 1)], hi)
            for mod in (f, gm.GradedModule(alg, f.verts, dense_actions(f))):
                top = mod.support_top()
                for d in mod.degrees():
                    blocks = [np.flatnonzero(mod.verts_at(d) == v)
                              for v in range(alg.nvert)]
                    for d_el in range(top - d + 1):
                        for b in range(alg.dim(d_el)):
                            want = dense_oracle.basis_element_action(
                                mod, d_el, b, d)
                            assert np.array_equal(
                                gm._rows_times_basis_element(
                                    mod, None, d_el, b, d, {}).dense(), want)
                            for rows in blocks:
                                got = gm._rows_times_basis_element(
                                    mod, rows, d_el, b, d, {})
                                assert np.array_equal(linalg.dense(got),
                                                      want[rows])
                            checked += 1
    assert checked > 1000

def label_test_modules():
    """Modules from every builder that makes labels, over two_vertex_n3,
    with the cofree models of F(x) and the extracted module of in_Y."""
    from nkoszul import docio
    e = entry("two_vertex_n3")
    params = TorsionParams(e["n"], 1, 0)
    f = free_module(e["dual"], [(0, 0), (1, 1)], 6)
    rad = {d: s for d, s in gm._radical_rrefs(f).items() if s.dim}
    x = gm.restrict_S(free_module(e["dual"], [(0, 0), (1, 0)], 7),
                      e["ualg"], params)
    c = cx.equivalence_F(x, e["lam"], params)
    ok, w = cx.in_Y(c, e["ualg"], params)
    assert ok
    quo = gm.quotient_module(f, rad)[0]
    mods = [f, f.shift(2), quo, gm.submodule_from_bases(f, rad)[0],
            graded_dual(f), x, w, gm.projective_cover(quo)[0],
            docio.parse_module(docio.module_json(x), e["ualg"], "x"),
            gm.GradedModule(e["lam"], {0: [1, 0, 1], 2: (0,)}, {})]
    mods += list(c.modules.values())
    mods += list(cx.psi(f, e["lam"]).modules.values())
    models = [cx.cofree_module(e["lam"], x.verts_at(s)) for s in x.degrees()]
    return mods + models, c, w


def test_labels_and_pair_indices_are_held_once_as_read_only_arrays():
    mods, _, _ = label_test_modules()
    free = [m for m in mods if "free_layout" in m.__dict__]
    cofree = [m for m in mods if "hom_index" in m.__dict__]
    assert free and cofree
    for mod in mods:
        assert mod.verts and mod.verts_at(10 ** 6).size == 0
        for d, vs in mod.verts.items():
            assert type(vs) is np.ndarray and vs.dtype == np.intp
            assert vs.ndim == 1 and vs.size and not vs.flags.writeable
            assert mod.verts_at(d) is vs  # on every call
        none = mod.verts_at(min(mod.degrees()) - 1)
        assert none.dtype == np.intp and not none.flags.writeable
        assert none is mod.verts_at(max(mod.degrees()) + 1)
    for mod in free:
        for d, rows in mod.free_index.items():
            assert rows.dtype == np.intp and rows.shape == (mod.dim(d), 2)
            assert not rows.flags.writeable
    for mod in cofree:
        for e, pairs in mod.hom_index.items():
            assert type(pairs) is np.ndarray and pairs.dtype == np.intp
            assert pairs.shape == (mod.dim(e), 2) and not pairs.flags.writeable
    f = mods[0]
    # a shift shares the arrays; the public constructor copies its input
    assert all(mods[1].verts[d - 2] is vs for d, vs in f.verts.items())
    mine = np.array([0, 1, 1], dtype=np.intp)
    mod = gm.GradedModule(f.algebra, {0: mine}, {})
    mine[0] = 1
    assert mine.flags.writeable and mod.verts_at(0).tolist() == [0, 1, 1]


def test_reports_read_labels_as_python_ints():
    """json.dumps, with no default, raises on a NumPy integer: the module
    reports, the generator lists of a resolution, the free generators and
    the certificates' top vertices hold Python ints only."""
    import json
    from nkoszul import docio
    from nkoszul import koszul as ko
    mods, c, w = label_test_modules()
    for mod in mods:
        text = json.dumps(docio.module_json(mod))
        assert json.loads(text)["verts"] == {
            str(d): vs.tolist() for d, vs in mod.verts.items()}
    json.dumps(docio.complex_json(c))
    seg = ko.minimal_projective_resolution(
        ko.semisimple_module(entry("two_vertex_n3")["lam"]), 4)
    assert json.loads(json.dumps(seg.gen_lists)) == [
        [list(g) for g in gens] for gens in seg.gen_lists]
    json.dumps([m.free_gens for m in mods if "free_gens" in m.__dict__])
    from nkoszul.algebra import DegreeMap
    dmap = DegreeMap(0, 3)
    cert = cx.certify_linear(c, degree_of=lambda k: -dmap.delta(k))
    assert cert and json.dumps({k: v["mults"] for k, v in cert.items()})


def test_chain_iso_failure_matches_the_dense_check(monkeypatch):
    """Every call of chain_iso_failure in the seed-0 equivalence,
    dual_equivalence and contraction suites, and in the tests of mutated
    witnesses, missing maps and F_2 identities, gives the failure, or
    None, that the check on dense copies of the maps gives."""
    real, seen = cx.chain_iso_failure, []

    def compared(c, c2, fam):
        got = real(c, c2, fam)
        assert got == dense_oracle.chain_iso_failure(c, c2, fam)
        seen.append(got)
        return got
    monkeypatch.setattr(cx, "chain_iso_failure", compared)
    for name in ("equivalence", "dual_equivalence", "contraction"):
        assert verify.run_suite(name, seed=0)["passed"]
    for kind, p in SMALL:
        test_mutated_witnesses_are_reported_where_they_fail(kind, p)
    test_chain_iso_failure_names_missing_positions_and_maps()
    test_the_identity_passes_where_the_search_missed_over_F2()
    assert None in seen
    assert {bad["condition"] for bad in seen if bad} == {
        "positions", "invertible", "module-map", "differential"}
