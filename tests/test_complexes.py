import numpy as np
import pytest

from nkoszul import complexes as cx
from nkoszul import grmod as gm
from nkoszul import verify
from nkoszul.complexes import ComplexError
from nkoszul.grmod import TorsionParams, free_module, graded_dual

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
    assert cx.certify_linear(c, "projective") is not None


def test_nu_is_n_complex_with_colinear_components():
    e = entry()
    m = dual_test_module(e)
    c = cx.nu(m, e["lam"])
    assert cx.is_n_complex(c, e["n"])
    assert cx.certify_linear(c, "injective") is not None


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
    assert verify.annihilates_orthogonal(m, e["lam"]) in (True, False)
    ok_psi = cx.is_n_complex(cx.psi(m, e["lam"]), e["n"])
    ok_nu = cx.is_n_complex(cx.nu(m, e["lam"]), e["n"])
    assert ok_psi == ok_nu == verify.annihilates_orthogonal(m, e["lam"])


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
    wit = gm.iso_modules(witness, x, seed=0)
    assert wit is not None


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
    assert cx.iso_complexes(lhs, rhs, seed=0)


def test_dual_equivalence_satisfies_conditions():
    e = entry("two_vertex_n3")
    params = TorsionParams(e["n"], 1, 0)
    ualg = e["ualg"]
    x = gm.restrict_S(free_module(e["dual"], [(0, 0)], 7), ualg, params)
    op_u = gm.opposite_algebra(ualg)
    dx = graded_dual(x, op_u)
    assert gm.in_Lo(dx, params)
    op_lam = gm.opposite_algebra(e["lam"])[0]
    c = cx.equivalence_F_dual(dx, op_lam, params)
    okc, why = cx.check_Yo_conditions(c, params)
    assert okc, why
    assert cx.in_Yo(c, op_u[0], params)


def test_hom_complexes_contains_identity():
    e = entry("one_loop_n3")
    m = dual_test_module(e, hi=4)
    c = cx.nu(m, e["lam"])
    homs = cx.hom_complexes(c, c)
    assert homs
    assert cx.iso_complexes(c, c, seed=0)


def test_composite_diff_vanishes_at_n():
    e = entry()
    m = dual_test_module(e)
    c = cx.psi(m, e["lam"])
    ks = sorted(c.positions())
    for k in ks[:-e["n"]]:
        f = cx.composite_diff(c, k, e["n"])
        assert all(not mat.any() for mat in f.mats.values())


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
    ref = weakref.ref(lam)
    del lam, dlam
    gc.collect()
    assert ref() is None
