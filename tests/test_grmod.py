import numpy as np
import pytest

from nkoszul import complexes as cx
from nkoszul import grmod as gm
from nkoszul import linalg
from nkoszul import verify
from nkoszul.grmod import (GradedModule, GradedMorphism, TorsionParams,
                           free_module, graded_dual, hom_space,
                           projective_cover, quotient_module,
                           submodule_closure, zero_module)
import dense_oracle
from dense_oracle import dense_actions, dense_mats, label_lists
from search_oracle import combine_mats, commutes, is_iso, iso_modules

P = 101


def entry(name="two_vertex_n3"):
    return verify.corpus(name)


def identity_iso_failure(a, b):
    """Why the identity matrices are not an isomorphism a -> b, or None."""
    sa, sb = cx.stalk_complex(a, 0, 2), cx.stalk_complex(b, 0, 2)
    return cx.chain_iso_failure(sa, sb, verify.identity_witness(sa, sb))


def test_free_module_dims_match_algebra():
    e = entry()
    lam = e["lam"]
    f = free_module(lam, [(0, 0)], 6)
    for d in range(4):
        assert f.dim(d) == sum(1 for (pa, v) in [(pa, pa.target_in(e["quiver"]))
                                                 for pa in lam.basis_paths(d)]
                               if pa.source == 0)
    assert f.is_valid()
    assert f.free_gens == [(0, 0)]


def regular_module(algebra, hi: int) -> GradedModule:
    """The algebra as a right module over itself, truncated above hi."""
    return free_module(algebra, [(v, 0) for v in range(algebra.nvert)], hi)


def generated_in_degrees(mod, degree_set) -> bool:
    """True iff the top of the module is supported inside the degree set,
    read off `top_dims`."""
    if not mod.is_valid():
        raise gm.ModuleError("module failed validation")
    return all(d in degree_set for d in gm.top_dims(mod))


def test_regular_module_is_valid_and_full():
    e = entry("one_loop_n3")
    lam = e["lam"]
    r = regular_module(lam, 6)
    assert [r.dim(d) for d in range(4)] == [1, 1, 1, 0]
    assert r.is_valid()


def test_shift_moves_grading():
    e = entry("one_loop_n3")
    f = free_module(e["lam"], [(0, 0)], 6)
    s = f.shift(2)
    assert s.dim(-2) == f.dim(0)
    assert s.dim(0) == f.dim(2)
    assert s.is_valid()


def test_validate_catches_bad_action():
    e = entry("two_vertex_n3")
    # generator "a" goes from vertex 0 to vertex 1; pointing it at a
    # degree-1 component sitting over vertex 0 breaks the block structure
    bad = GradedModule(e["lam"], {0: (0,), 1: (0,)},
                       {(0, 0): np.array([[1]], dtype=np.int64)})
    assert not bad.is_valid()
    assert bad.validate()


def test_validate_lists_block_breaks_row_by_row():
    e = entry("two_vertex_n3")
    # generator "a" goes from vertex 0 to vertex 1
    verts = {0: (0, 1, 0), 1: (1, 0, 1, 0)}
    act = np.arange(1, 13, dtype=np.int64).reshape(3, 4)
    mod = GradedModule(e["lam"], verts, {(0, 0): act})
    want = [f"generator a at degree 0: entry ({i},{j}) breaks the vertex "
            "block structure"
            for i in range(3) for j in range(4)
            if not (verts[0][i] == 0 and verts[1][j] == 1)]
    assert mod.validate() == want


@pytest.mark.parametrize("p", [101, 3037000493, 4611686018427388039])
def test_validate_is_exact_at_large_moduli(p):
    """k[x, y]/(xy - yx) acting on a diagonal rescaling of the free module:
    the relation's terms are products of entries near p."""
    from nkoszul.algebra import Presentation, build_slices
    from nkoszul.quiver import Path, PathSpaceElement, Quiver
    q = Quiver.make(1, [("x", 0, 0), ("y", 0, 0)])
    rel = PathSpaceElement(2, {Path(0, (0, 1)): 1, Path(0, (1, 0)): p - 1})
    lam = build_slices(Presentation.make(q, 2, [rel], p), 4)
    f = free_module(lam, [(0, 0)], 3)
    scale = {d: [p - 1 - 7 * i - d for i in range(f.dim(d))]
             for d in f.degrees()}

    def rescaled(bump=None):
        # the action conjugated by the diagonal basis change; `bump` scales
        # one entry by 2, which breaks the relation
        actions = {}
        for (gi, d), m in dense_actions(f).items():
            out = [[int(m[i, j]) * scale[d][i] * pow(scale[d + 1][j], -1, p)
                    % p for j in range(m.shape[1])] for i in range(m.shape[0])]
            if bump == (gi, d):
                i, j = map(int, np.argwhere(m)[0])
                out[i][j] = 2 * out[i][j] % p
            actions[(gi, d)] = np.array(out, dtype=np.int64)
        return GradedModule(lam, dict(f.verts), actions)
    assert max(int(m.max()) for m in dense_actions(rescaled()).values()) > p // 2
    assert rescaled().validate() == []
    assert rescaled(bump=(0, 0)).validate() == [
        "relation of degree 2 acts nontrivially from degree 0"]


def test_hom_space_endomorphisms_of_free():
    e = entry("one_loop_n3")
    f = free_module(e["lam"], [(0, 0)], 6)
    homs = hom_space(f, f)
    # graded endomorphisms of the rank-one free module over K[x]/(x^3),
    # truncated: one degree-zero map (the identity scale)
    assert len(homs) == 1
    assert commutes(homs[0])


def test_iso_modules_detects_isomorphism_and_refuses():
    e = entry("two_vertex_n3")
    f = free_module(e["lam"], [(0, 0)], 5)
    g = free_module(e["lam"], [(0, 0)], 5)
    wit = iso_modules(f, g, seed=1)
    assert wit is not None and is_iso(wit)
    h = free_module(e["lam"], [(1, 0)], 5)
    assert iso_modules(f, h, seed=1) is None


def test_socle_radical_top():
    e = entry("one_loop_n3")
    lam = e["lam"]
    f = free_module(lam, [(0, 0)], 6)
    soc = gm.socle_subspaces(f)
    assert sorted(soc) == [2]
    rad = gm._radical_rrefs(f)
    assert [d for d in sorted(rad) if rad[d].dim] == [1, 2]
    assert gm.top_dims(f) == {0: 1}


def test_generated_and_cogenerated():
    e = entry("one_loop_n3")
    f = free_module(e["lam"], [(0, 0)], 6)
    assert generated_in_degrees(f, {0})
    assert not generated_in_degrees(f, {1})
    assert gm.cogenerated_in_degrees(f, {2})
    assert not gm.cogenerated_in_degrees(f, {1})


def test_submodule_and_quotient_dims_add_up():
    e = entry("two_vertex_n3")
    lam = e["lam"]
    f = free_module(lam, [(0, 0)], 6)
    row = np.zeros(f.dim(1), dtype=np.int64)
    row[0] = 1
    spans = submodule_closure(f, {1: row.reshape(1, -1)})
    sub, _ = gm.submodule_from_bases(f, spans)
    quot, _ = quotient_module(f, spans)
    assert sub.is_valid() and quot.is_valid()
    for d in f.degrees():
        assert sub.dim(d) + quot.dim(d) == f.dim(d)


def test_quotient_projection_matches_the_loop_construction():
    e = entry("two_loop_n3")
    f = free_module(e["lam"], [(0, 0)], 6)
    spans = submodule_closure(f, {1: np.array([[3, 5]], dtype=np.int64)})
    _, proj = quotient_module(f, spans)
    checked = 0
    for d, s in spans.items():
        red = s.basis.dense()
        pivots = [int(np.nonzero(r)[0][0]) for r in red]
        keep = [i for i in range(f.dim(d)) if i not in pivots]
        if not keep:
            continue
        want = np.zeros((f.dim(d), len(keep)), dtype=np.int64)
        for c, i in enumerate(keep):
            want[i, c] = 1
        for r, row in zip(pivots, red):
            for c, i in enumerate(keep):
                want[r, c] = (want[r, c] - row[i]) % P
        assert np.array_equal(proj.sparse_mat(d).dense(), want)
        checked += 1
    assert checked


def test_projective_cover_of_simple():
    e = entry("two_vertex_n3")
    lam = e["lam"]
    simple = GradedModule(lam, {0: (0,)}, {})
    cover, f, gen_list = projective_cover(simple, 6)
    assert commutes(f)
    assert gen_list == [(0, 0)]
    assert gm.top_dims(cover) == {0: 1}
    assert cover.dim(0) == 1 and cover.verts_at(0).tolist() == [0]


def test_presented_in_degrees_free_module():
    e = entry("one_loop_n3")
    f = free_module(e["lam"], [(0, 0)], 6)
    assert gm.presented_in_degrees(f, {0, 3})


def test_opposite_algebra_memoized_involution():
    e = entry("two_vertex_n3")
    lam = e["lam"]
    op, _ = gm.opposite_algebra(lam)
    op2, _ = gm.opposite_algebra(op)
    assert op2 is lam


def test_graded_dual_dims_and_involution():
    e = entry("two_vertex_n3")
    lam = e["lam"]
    f = free_module(lam, [(0, 0)], 5)
    d = graded_dual(f)
    for deg in f.degrees():
        assert d.dim(-deg) == f.dim(deg)
    dd = graded_dual(d)
    assert identity_iso_failure(dd, f) is None


def test_torsion_submodule_of_free_dual_module_is_zero():
    e = entry("two_vertex_n3")
    dual = e["dual"]
    params = TorsionParams(3, 1, 0)
    f = free_module(dual, [(0, 0)], 7)
    assert gm.torsion_submodule(f, params) == {}
    assert gm.is_torsionfree(f, params)
    # truncating at a degree outside the support set leaves a torsion top
    g = free_module(dual, [(0, 0)], 8)
    tors = gm.torsion_submodule(g, params)
    assert list(tors) == [8]
    assert not gm.is_torsionfree(g, params)


def test_torsion_detects_off_support_part():
    e = entry("two_vertex_n3")
    dual = e["dual"]
    params = TorsionParams(3, 1, 0)
    # a stalk concentrated off the support degrees is pure torsion
    stalk = GradedModule(dual, {2: (0,)}, {})
    tors = gm.torsion_submodule(stalk, params)
    assert 2 in tors and tors[2].dim == 1
    assert not gm.is_torsionfree(stalk, params)


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_sparse_readers_match_the_dense_ones(p, monkeypatch):
    """On random quotient and representation modules over the corpus duals,
    the socles, the torsion submodule (each step of its fixpoint), the
    torsionfree verdict and mu_1 of the restriction to S read off the
    stored Sparse actions equal those of the dense readers they replaced
    (`dense_oracle`).  Some draws have torsion, some steps cut the
    subspace, and some draws are torsionfree and some not."""
    rng = np.random.default_rng(p)
    seen = dict.fromkeys(("torsion", "cut", "free", "not free", "mu1"), 0)
    restrict = gm._restrict_stable

    def both(mod, cur, d, sub):
        got = restrict(mod, cur, d, sub)
        assert got == dense_oracle.restrict_stable(mod, cur, d, sub)
        seen["cut"] += got.dim < sub.dim
        return got
    monkeypatch.setattr(gm, "_restrict_stable", both)
    for name in ("one_loop_n3", "two_loop_n3", "commutative_n2",
                 "two_vertex_n3", "two_vertex_n4"):
        e = verify.corpus(name, p)
        dual, n = e["dual"], e["n"]
        mods = [verify.random_quotient_module(rng, dual, 0, 2 * n + 1)
                for _ in range(3)]
        if name != "commutative_n2":  # its dual has relations
            mods += [verify.random_representation(
                rng, dual, range(2 * n + 2), 2) for _ in range(3)]
        for mod in mods:
            params = TorsionParams(n, 1, int(rng.integers(n)))
            assert gm.socle_subspaces(mod) == \
                dense_oracle.socle_subspaces(mod)
            free = gm.is_torsionfree(mod, params)
            assert free == dense_oracle.is_torsionfree(mod, params)
            seen["free" if free else "not free"] += 1
            seen["torsion"] += bool(gm.torsion_submodule(mod, params))
            x = gm.restrict_S(mod, e["ualg"], params)
            for s in x.degrees():
                pairs, mu = gm.multiplication_map(x, s)
                want_pairs, want_mu = dense_oracle.multiplication_map(x, s)
                assert pairs == want_pairs
                assert np.array_equal(mu.dense(), want_mu)
                seen["mu1"] += mu.any()
    assert all(seen.values()), seen


def test_restrict_S_of_free_dual_is_in_L():
    e = entry("two_vertex_n3")
    params = TorsionParams(3, 1, 0)
    f = free_module(e["dual"], [(0, 0)], 7)
    x = gm.restrict_S(f, e["ualg"], params)
    assert x.is_valid()
    assert gm.in_L(x, params)
    for d in x.degrees():
        assert params.in_s(d)


def test_in_G_for_free_dual_module():
    e = entry("two_vertex_n3")
    params = TorsionParams(3, 1, 0)
    f = free_module(e["dual"], [(0, 0)], 7)
    assert gm.in_G(f, params)


def test_regrade_round_trip():
    e = entry("one_loop_n3")
    params = TorsionParams(3, 1, 0)
    ualg = e["ualg"]
    f = free_module(e["dual"], [(0, 0)], 7)
    x = gm.restrict_S(f, ualg, params)
    ealg = verify_yoneda(e)
    y = gm.regrade(x, ealg)
    back = gm.regrade(y, ualg)
    assert identity_iso_failure(back, x) is None


def verify_yoneda(e):
    from nkoszul.algebra import yoneda_regrade
    return yoneda_regrade(e["ualg"])


def test_in_L_E_of_even_presented_module():
    e = entry("one_loop_n3")
    ealg = verify_yoneda(e)
    f = free_module(ealg, [(0, 0)], 3)
    assert gm.presented_in_degrees(f, set(range(0, 7, 2)))
    assert gm.in_L_E(f)


def test_in_L_E_rejects_odd_inner_kill():
    e = entry("one_loop_n3")
    ealg = verify_yoneda(e)
    f = free_module(ealg, [(0, 0)], 6)
    row = np.eye(1, f.dim(1), dtype=np.int64)
    spans = submodule_closure(f, {1: row})
    quot, _ = quotient_module(f, spans)
    assert not gm.in_L_E(quot)


def test_in_Lo_of_dualized_member():
    e = entry("two_vertex_n3")
    params = TorsionParams(3, 1, 0)
    f = free_module(e["dual"], [(0, 0)], 7)
    x = gm.restrict_S(f, e["ualg"], params)
    dx = graded_dual(x)
    assert gm.in_Lo(dx, params)


def degree_n_only_module(rng, ualg, params):
    """A module over ualg in degrees m and m + n on which only the degree-n
    generators act: it is generated in m + nZ, and it breaks the kernel
    condition wherever a degree-n generator acts."""
    m, n = params.m, params.n
    lo, hi = (rng.integers(0, ualg.nvert, int(rng.integers(1, 3)))
              for _ in range(2))
    actions = {}
    for gi, g in enumerate(ualg.generators()):
        if g.degree == n:
            mask = np.logical_and.outer(lo == g.source, hi == g.target)
            actions[(gi, m)] = rng.integers(0, ualg.p, mask.shape) * mask
    return GradedModule(ualg, {m: lo.tolist(), m + n: hi.tolist()}, actions)


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_in_Lo_through_the_dual_matches_the_comultiplication_square(p):
    """in_Lo, as in_L of D, against the hand-written square it replaced:
    duals of restricted representations, and duals of modules with only
    degree-n actions, which pass cogeneration and fail only the square."""
    from comultiplication_oracle import in_Lo as square_in_Lo
    rng = np.random.default_rng(p)
    verdicts = []
    square_only = 0
    for name in ("one_loop_n3", "two_loop_n3", "two_vertex_n3",
                 "two_vertex_n4"):
        e = verify.corpus(name, p)
        dual, ualg, n = e["dual"], e["ualg"], e["n"]
        for m in range(n):
            for r in (0, 1):
                params = TorsionParams(n, r, m)
                mods = [gm.restrict_S(verify.random_representation(
                            rng, dual, range(m, m + 2 * n + 2), 2, mindim=1),
                            ualg, params) for _ in range(3)]
                mods += [degree_n_only_module(rng, ualg, params)
                         for _ in range(3)]
                for x in mods:
                    assert x.is_valid()
                    dx = graded_dual(x)
                    got = gm.in_Lo(dx, params)
                    assert got == square_in_Lo(dx, params), (name, m, r)
                    verdicts.append(got)
                    cogenerated = all(
                        params.gen_degrees_contains(-d)
                        for d in gm.socle_subspaces(dx))
                    square_only += cogenerated and not got
    assert True in verdicts and False in verdicts
    assert square_only


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_in_L_as_one_product_matches_the_null_space_containment(p):
    """in_L, its kernel condition one product C @ A, against the test it
    replaced (products with dual_{n-1} inside the null space of mu_{s,n}):
    the suites' candidates (restricted random representations), restricted
    quotients of free dual modules, and modules with only degree-n actions,
    which are generated in m + nZ and fail only the kernel condition.  At
    each level mu_1 and its vertex-matched pairs are the loop's."""
    from l_condition_oracle import in_L as containment_in_L
    from l_condition_oracle import multiplication_map
    rng = np.random.default_rng(10 + p)
    verdicts = []
    kernel_only = 0
    for name in ("one_loop_n3", "two_loop_n3", "two_vertex_n3",
                 "two_vertex_n4"):
        e = verify.corpus(name, p)
        dual, ualg, n = e["dual"], e["ualg"], e["n"]
        for m in range(n):
            for r in (0, 1):
                params = TorsionParams(n, r, m)
                mods = [gm.restrict_S(verify.random_representation(
                            rng, dual, range(m, m + 2 * n + 2), 2, mindim=1),
                            ualg, params) for _ in range(3)]
                mods += [degree_n_only_module(rng, ualg, params)
                         for _ in range(2)]
                mods += [gm.restrict_S(verify.random_quotient_module(
                            rng, dual, m, m + 2 * n + 1), ualg, params)
                         for _ in range(2)]
                for x in mods:
                    for s in x.degrees():
                        pairs, mu = gm.multiplication_map(x, s)
                        want_pairs, want_mu = multiplication_map(x, s, 1)
                        assert pairs == want_pairs
                        assert np.array_equal(mu.dense(), want_mu)
                    got = gm.in_L(x, params)
                    assert got == containment_in_L(x, params), (name, m, r)
                    verdicts.append(got)
                    generated = all(params.gen_degrees_contains(d)
                                    for d in gm.top_dims(x))
                    kernel_only += generated and not got
    assert True in verdicts and False in verdicts
    assert kernel_only


def reference_hom_space(m, n):
    """The replaced construction: every matrix entry is an unknown, each
    vertex-mismatch entry pinned to zero by its own identity row, and the
    generator blocks concatenated."""
    p = m.p
    degs = sorted(set(m.degrees()) | set(n.degrees()))
    offs = {}
    total = 0
    for d in degs:
        offs[d] = total
        total += m.dim(d) * n.dim(d)
    if total == 0:
        return []
    eq_rows = []
    for d in degs:
        sv, tv = m.verts_at(d), n.verts_at(d)
        for i in range(m.dim(d)):
            for j in range(n.dim(d)):
                if sv[i] != tv[j]:
                    row = np.zeros(total, dtype=np.int64)
                    row[offs[d] + i * n.dim(d) + j] = 1
                    eq_rows.append(row)
    for gi, g in enumerate(m.gens):
        for d in degs:
            d2 = d + g.degree
            r1, c1, c2 = m.dim(d), n.dim(d), n.dim(d2)
            if r1 == 0 or c2 == 0:
                continue
            a, b = m.sparse_act(gi, d).dense(), n.sparse_act(gi, d).dense()
            block = np.zeros((r1 * c2, total), dtype=np.int64)
            if d2 in offs and a.size:
                block[:, offs[d2]: offs[d2] + a.shape[1] * c2] = \
                    np.kron(a, np.eye(c2, dtype=np.int64))
            if d in offs and b.size:
                block[:, offs[d]: offs[d] + r1 * c1] -= \
                    np.kron(np.eye(r1, dtype=np.int64), b.T)
            block %= p
            if block.any():
                eq_rows.append(block)
    if eq_rows:
        eq = np.concatenate([r.reshape(-1, total) for r in eq_rows])
        sol = linalg.null_space(eq, p)
    else:
        sol = linalg.Subspace.full(total, p)
    out = []
    for vec in sol.basis.dense():
        mats = {}
        for d in degs:
            r, c = m.dim(d), n.dim(d)
            if r and c:
                mats[d] = vec[offs[d]: offs[d] + r * c].reshape(r, c)
        out.append(GradedMorphism(m, n, mats))
    return out


@pytest.mark.parametrize("name, p", [
    pytest.param(name, P, id=name)
    for name in ("two_vertex_n3", "two_vertex_n4", "two_loop_n3")] + [
    (name, p) for name in ("one_loop_n3", "two_vertex_n3")
    for p in (2, 3, 101, 3037000493, 4611686018427388039)])
def test_hom_space_matches_the_identity_row_construction(name, p):
    """The sparse system against the dense one it replaced, at every
    accepted modulus: on int64 and on Python-integer elimination."""
    e = verify.corpus(name, p)
    rng = np.random.default_rng(3)
    mismatches = 0
    for alg in (e["lam"], e["dual"]):
        mods = [verify.random_quotient_module(rng, alg, 0, 4, max_gens=3)
                for _ in range(4)]
        for m in mods:
            for n in mods:
                got, want = hom_space(m, n), reference_hom_space(m, n)
                assert len(got) == len(want)
                for f, g in zip(got, want):
                    fm, gm_ = dense_mats(f), dense_mats(g)
                    assert sorted(fm) == sorted(gm_)
                    for d in gm_:
                        assert np.array_equal(fm[d], gm_[d])
                mismatches += sum(a != b for d in m.degrees()
                                  for a in m.verts_at(d)
                                  for b in n.verts_at(d))
    # the dropped unknowns were exercised, except over one vertex
    assert mismatches or e["quiver"].vertex_count == 1


def test_relations_are_checked_on_the_stored_sparse_actions(monkeypatch):
    """`validate` reads the relations off the Sparse word-chain products,
    with no dense copy of an action or of their stack: three copies of the
    free dual module over two_loop_n3 at p = 2, truncated at 7 and
    restricted to S, pass under a cap of 4 KiB on dense arrays.  Stacked
    dense, the check was refused over the real cap from truncation 12 on."""
    e = verify.corpus("two_loop_n3", 2)
    x = gm.restrict_S(free_module(e["dual"], [(0, 0)] * 3, 7), e["ualg"],
                      TorsionParams(3, 1, 0))
    assert x.total_dim() == 657
    monkeypatch.setattr(linalg, "MAX_SLICE_BYTES", 1 << 12)
    assert x.validate() == []


def test_hom_space_of_a_255_dimensional_free_module_stays_small(
        monkeypatch):
    """The endomorphisms of this free module, truncated at degree 7, have
    21,845 unknowns in 21,844 equations: as one dense int64 system,
    3.56 GiB.  Built sparse, the elimination compacts only what the
    one-nonzero equations leave, a 254 x 255 block, and that block is
    refused above the cap."""
    import tracemalloc
    f = free_module(verify.corpus("two_loop_n3")["dual"], [(0, 0)], 7)
    assert f.total_dim() == 255
    tracemalloc.start()
    try:
        homs = hom_space(f, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(homs) == 1
    assert peak < 64 * 2 ** 20
    monkeypatch.setattr(linalg, "MAX_SLICE_BYTES", 1 << 16)
    with pytest.raises(linalg.LinAlgError, match="over the .* cap"):
        hom_space(f, f)


def generated_in_degrees_by_closure(mod, degree_set) -> bool:
    """Close the chosen components under the action and compare dims."""
    spans = {d: np.eye(mod.dim(d), dtype=np.int64)
             for d in mod.degrees() if d in degree_set}
    closed = submodule_closure(mod, spans)
    return sum(s.dim for s in closed.values()) == mod.total_dim()


def test_generated_in_degrees_matches_the_closure_oracle():
    rng = np.random.default_rng(5)
    seen = set()
    for name in ("two_vertex_n3", "two_loop_n3"):
        alg = entry(name)["dual"]
        for _ in range(6):
            mod = verify.random_quotient_module(rng, alg, 0, 4, max_gens=3)
            for degree_set in ({0}, {0, 1}, {0, 2, 4}, set(range(5))):
                want = generated_in_degrees_by_closure(mod, degree_set)
                assert generated_in_degrees(mod, degree_set) == want
                seen.add(want)
    assert seen == {True, False}


def py_l_condition(ker, nx, t1, t_mul, p):
    """`gm.l_condition` as a loop on Python integers: row (v, b), column
    w * nx + i sums ker[v, r] * t_mul[j, b, w] over the pairs r = (i, j)."""
    nj, nb, nw = t_mul.shape
    rows = []
    for v in ker:
        for b in range(nb):
            out = [0] * (nw * nx)
            for r, (i, j) in enumerate(t1):
                for w in np.nonzero(t_mul[j, b])[0]:
                    at = int(w) * nx + i
                    out[at] = (out[at] + int(v[r]) * int(t_mul[j, b, w])) % p
            rows.append(out)
    return np.array(rows, dtype=np.int64).reshape(-1, nw * nx)


@pytest.mark.parametrize("p", [101, 3037000493, 4611686018427388039])
def test_in_L_products_are_exact_at_large_moduli(p):
    from nkoszul.algebra import (Presentation, USupportAlgebra, build_dual,
                                 build_slices)
    from nkoszul.quiver import Path, PathSpaceElement, Quiver
    q = Quiver.make(1, [("x", 0, 0), ("y", 0, 0)])
    c = p // 3 - 2  # far from 0 and 1
    rels = [PathSpaceElement(3, {Path(0, (0, 0, 1)): 1, Path(0, (0, 1, 0)): c,
                                 Path(0, (1, 0, 0)): p - c}),
            PathSpaceElement(3, {Path(0, (1, 1, 0)): 1,
                                 Path(0, (0, 1, 1)): c})]
    lam = build_slices(Presentation.make(q, 3, rels, p), 4)
    dual = build_dual(lam, 4)
    ualg = USupportAlgebra(dual, 3)
    t_mul = dense_oracle.mult_tensor(dual, 1, 2)
    assert t_mul.max() > p // 4
    # X_0 over one vertex of dimension 3; the pairs x_i (x) a_j, some left
    # out as vertex matching leaves them out
    nx = 3
    mod = GradedModule(ualg, {0: (0,) * nx}, {})
    t1 = [(i, j) for i in range(nx) for j in range(dual.dim(1))
          if (i + j) % 4]
    rng = np.random.default_rng(4)
    ker = linalg.Subspace.from_rows(
        len(t1), rng.integers(p - 1000, p, (4, len(t1))), p)
    assert ker.dim == 4 and ker.basis.vals.max() > p // 4
    got = gm.l_condition(mod, 0, t1, ker)
    assert got.shape == (ker.dim * dual.dim(2), dual.dim(3) * nx)
    assert np.array_equal(got.dense(), py_l_condition(ker.basis.dense(), nx,
                                                      t1, t_mul, p))
    # no pair of X_0 (x) A_1: no product, and no failure
    none = gm.l_condition(mod, 0, [], linalg.Subspace.zero(0, p))
    assert none.shape == (0, dual.dim(3) * nx)
    assert gm.in_L(GradedModule(ualg, {0: (0,)}, {}), TorsionParams(3, 1, 0))


@pytest.mark.parametrize("p", [2, 101, 3037000493, 4611686018427388039])
def test_combine_mats_is_exact_at_every_accepted_modulus(p):
    rng = np.random.default_rng(p % 1000)

    def mats(*degs):
        return {d: rng.integers(0, p, size=(3, d + 1), dtype=np.int64)
                for d in degs}
    mats_list = [mats(0, 2), mats(0), mats(0, 2),
                 {5: np.full((1, 3), p - 1, dtype=np.int64)}]
    zero_last = rng.integers(0, p, size=4, dtype=np.int64)
    zero_last[3] = 0
    # a degree is kept only when a term with a nonzero coefficient has it
    for coef, degs in ((zero_last, [0, 2]),
                       (np.full(4, p - 1, dtype=np.int64), [0, 2, 5])):
        got = combine_mats(coef, mats_list, p)
        assert sorted(got) == degs
        for d, m in got.items():
            want = [[sum(int(ci) * int(mm[d][r, c])
                         for ci, mm in zip(coef, mats_list) if d in mm) % p
                     for c in range(m.shape[1])] for r in range(m.shape[0])]
            assert m.dtype == np.int64 and m.tolist() == want
    assert combine_mats([0, 0], mats_list[:2], p) == {}


# -- syzygies and kernels against the solve and the stacked reduction ------


def loops_algebra(kind, p):
    """All length-3 paths killed, over two loops or a 2-cycle (the corpus
    two_loop_n3 and two_vertex_n3), or over a fork (a loop at each of two
    vertices and an arrow between them), at p."""
    from nkoszul.algebra import Presentation, build_slices
    from nkoszul.quiver import Quiver
    if kind != "fork":
        name = {"loops": "two_loop_n3", "cycle": "two_vertex_n3"}[kind]
        return verify.corpus(name, p)["lam"]
    q = Quiver.make(2, [("x", 0, 0), ("y", 0, 1), ("z", 1, 1)])
    return build_slices(
        Presentation.make(q, 3, verify._all_path_relations(q, 3), p=p), 12)


def reference_submodule_as_module(mod, spans):
    """The construction before the pivot gather: a solve per action."""
    bases, verts = {}, {}
    for d, s in spans.items():
        if not s.dim:
            continue
        vs = []
        for row in s.basis.dense():
            blocks = {mod.verts_at(d)[i] for i in np.nonzero(row)[0]}
            if len(blocks) != 1:
                raise gm.ModuleError("submodule basis row mixes vertex blocks")
            vs.append(blocks.pop())
        bases[d], verts[d] = s.basis.dense(), tuple(vs)
    actions = {}
    for d, b in bases.items():
        for gi, g in enumerate(mod.gens):
            if d + g.degree not in bases:
                continue
            img = linalg.mat_mul(b, mod.sparse_act(gi, d).dense(), mod.p)
            coords = dense_oracle.solve_matrix(bases[d + g.degree].T, img.T,
                                               mod.p)
            if coords is None:
                raise gm.ModuleError("family is not closed under the action")
            if coords.any():
                actions[(gi, d)] = coords.T % mod.p
    return verts, actions, bases


def reference_kernel(f):
    """The kernel before the ordered merge: the block kernels stacked and
    reduced once more."""
    m = f.source
    out = {}
    for d in m.degrees():
        rows = []
        sv = m.verts_at(d)
        for v in sorted(set(sv)):
            idx = [i for i, w in enumerate(sv) if w == v]
            for row in linalg.null_space(f.sparse_mat(d).dense()[idx, :].T,
                                         m.p).basis.dense():
                full = np.zeros(m.dim(d), dtype=np.int64)
                full[idx] = row
                rows.append(full)
        if rows:
            s = linalg.Subspace.from_rows(m.dim(d), np.stack(rows), m.p)
            if s.dim:
                out[d] = s
    return out


def resolution_maps(lam, length):
    """Every cover map and differential of the degree-0 resolution."""
    from nkoszul import koszul as ko
    seg = ko.minimal_projective_resolution(ko.semisimple_module(lam), length)
    covers = [projective_cover(pm)[1] for pm in seg.pmods]
    return seg.diffs + covers


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("kind", ["loops", "cycle"])
def test_morphism_kernel_matches_the_stacked_reduction(kind, p):
    checked = 0
    for f in resolution_maps(loops_algebra(kind, p), 4):
        got = gm.kernel_bases(f)
        want = reference_kernel(f)
        assert got == want
        checked += sum(s.dim for s in got.values())
    assert checked


def test_submodule_as_module_matches_the_solve():
    families = []
    for lam in (loops_algebra("loops", 101), loops_algebra("cycle", 2),
                entry("commutative_n2")["lam"]):
        for f in resolution_maps(lam, 3):
            ker = gm.kernel_bases(f)
            if ker:
                families.append((f.source, ker))
    rng = np.random.default_rng(0)
    f = free_module(entry("two_vertex_n3")["lam"], [(0, 0), (1, 0), (0, 1)], 6)
    for _ in range(5):
        rows = rng.integers(0, P, size=(2, f.dim(2)))
        rows[:, [v != 0 for v in f.verts_at(2)]] = 0  # one vertex block
        families.append((f, submodule_closure(f, {2: rows})))
    assert len(families) > 10
    for mod, ker in families:
        sub, incl = gm.submodule_from_bases(mod, ker)
        verts, actions, bases = reference_submodule_as_module(mod, ker)
        assert label_lists(sub.verts) == label_lists(verts)
        assert set(sub.stored_actions()) == set(actions)
        for key, m in actions.items():
            assert np.array_equal(sub.sparse_act(*key).dense(), m)
        assert set(incl.stored_mats()) == set(bases)
        for d, b in bases.items():
            assert np.array_equal(incl.sparse_mat(d).dense(), b)
        assert sub.is_valid() and commutes(incl)


def test_submodule_as_module_refuses_an_open_family():
    f = free_module(entry("two_loop_n3")["lam"], [(0, 0)], 6)
    x = linalg.Subspace.from_rows(f.dim(1), np.array([[1, 0]]), P)
    y = linalg.Subspace.from_rows(f.dim(2), np.eye(f.dim(2))[1:], P)
    # x * x = e_0 of degree 2 lies outside y, and outside a missing degree
    for spans in ({1: x, 2: y}, {1: x}):
        with pytest.raises(gm.ModuleError, match="not closed"):
            gm.submodule_from_bases(f, spans)
    with pytest.raises(gm.ModuleError, match="not closed"):
        reference_submodule_as_module(f, {1: x, 2: y})


def test_submodule_as_module_refuses_a_row_across_vertex_blocks():
    f = free_module(entry("two_vertex_n3")["lam"], [(0, 0), (1, 0)], 6)
    assert f.verts_at(0).tolist() == [0, 1]
    mixed = linalg.Subspace.from_rows(2, np.array([[1, 1]]), P)
    spans = submodule_closure(f, {0: mixed.basis})
    for build in (gm.submodule_from_bases, reference_submodule_as_module):
        with pytest.raises(gm.ModuleError, match="mixes vertex blocks"):
            build(f, spans)


# -- free modules and covers against the per-entry loops ---------------------


def reference_free_actions(algebra, mod):
    """The action matrices of a free module, one basis entry at a time."""
    gen_list, index = mod.free_gens, mod.free_index
    out = {}
    for gi, g in enumerate(algebra.generators()):
        for d, entries in index.items():
            if d + g.degree not in index:
                continue
            pos2 = {tuple(row): c
                    for c, row in enumerate(index[d + g.degree])}
            m = np.zeros((len(entries), len(pos2)), dtype=np.int64)
            for r, (gno, bi) in enumerate(entries):
                t = dense_oracle.mult_tensor(algebra, d - gen_list[gno][1],
                                             g.degree)
                if t.size == 0:
                    continue
                row = t[bi, g.basis_index]
                for b2 in np.nonzero(row)[0]:
                    if (gno, int(b2)) in pos2:
                        m[r, pos2[(gno, int(b2))]] = row[b2]
            if m.any():
                out[(gi, d)] = m % algebra.p
    return out


def reference_cover_mats(mod, pmod, gen_list):
    """The cover map, one row x * b per basis entry of the free module."""
    reps = {}
    for d, idxs in gm.top_complements(mod).items():
        for i in idxs:
            reps[len(reps)] = (d, i)
    out = {}
    for d, entries in pmod.free_index.items():
        m = np.zeros((len(entries), mod.dim(d)), dtype=np.int64)
        for r, (gno, bi) in enumerate(entries):
            gd, gidx = reps[gno]
            a = gm._rows_times_basis_element(mod, None, d - gd, bi, gd,
                                             {}).dense()
            if a.size:
                m[r] = a[gidx]
        out[d] = m
    return out


def reference_free_index(algebra, gen_list, hi):
    """The basis of a free module, one generator and one basis element at a
    time: per degree, the (generator, basis index) pairs and the vertex
    labels."""
    index, verts = {}, {}
    for d in range(min((e for _, e in gen_list), default=0), hi + 1):
        rows = [(g, b, tgt) for g, (v, e) in enumerate(gen_list) if d >= e
                for b, (src, tgt) in enumerate(algebra.basis_pairs(d - e))
                if src == v]
        if rows:
            index[d] = [(g, b) for g, b, _ in rows]
            verts[d] = tuple(t for _, _, t in rows)
    return index, verts


def assert_free_module_matches_the_entry_loop(algebra, gens, hi):
    f = free_module(algebra, gens, hi)
    index, verts = reference_free_index(algebra, gens, hi)
    assert f.free_gens == gens
    assert label_lists(f.verts) == label_lists(verts)
    assert all(vs.dtype == np.intp and not vs.flags.writeable
               for vs in f.verts.values())
    assert sorted(f.free_index) == sorted(index)
    for d, entries in f.free_index.items():
        assert entries.dtype == np.intp and entries.shape == (len(index[d]), 2)
        assert [tuple(row) for row in entries.tolist()] == index[d]
    want = reference_free_actions(algebra, f)
    assert set(f.stored_actions()) == set(want)
    for key, m in want.items():
        assert np.array_equal(f.sparse_act(*key).dense(), m)
    assert f.is_valid()


def test_free_module_matches_the_entry_loop():
    from nkoszul.algebra import yoneda_regrade
    e = entry("two_vertex_n3")
    cycle = loops_algebra("cycle", 2)
    cases = [(e["lam"], [(0, 0), (1, 0), (0, 2), (1, 1), (0, 0)], 6),
             (e["dual"], [(1, -1), (0, 0), (1, 0)], 5),
             (e["ualg"], [(0, 0), (1, 1)], 8),
             (yoneda_regrade(e["ualg"]), [(0, 0), (1, 1), (1, 1)], 5),
             (entry("two_loop_n3")["lam"], [(0, 1), (0, 0), (0, 1)], 5),
             (cycle, [(1, 0), (0, 3)], 6),
             (loops_algebra("fork", P), [(0, 0), (1, 1), (0, 1), (0, 0)], 5),
             # no generators; generators above the truncation
             (cycle, [], 4),
             (cycle, [(0, 0), (1, 6), (0, 2), (1, 9)], 4)]
    for algebra, gens, hi in cases:
        assert_free_module_matches_the_entry_loop(algebra, gens, hi)


def tower(name, p):
    """A corpus algebra over F_p, its dual, and the support-restricted
    dual."""
    e = verify.corpus(name, p)
    return e["lam"], e["dual"], e["ualg"]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_free_module_matches_the_entry_loop_at_small_primes(p):
    from nkoszul.algebra import yoneda_regrade
    lam, dual, ualg = tower("commutative_n2", p)
    cycle, cycle_dual, cycle_ualg = tower("two_vertex_n3", p)
    cases = [(lam, [(0, 0), (0, 2), (0, 1), (0, 0)], 4),
             (dual, [(0, -1), (0, 0), (0, 0)], 4),
             (ualg, [(0, 0), (0, 1)], 5),
             (yoneda_regrade(ualg), [(0, 0), (0, 1), (0, 0)], 4),
             (cycle, [(1, 0), (0, 3), (1, 0), (0, 1)], 6),
             (cycle_dual, [(0, 0), (1, 2), (1, -1)], 5),
             (cycle_ualg, [(1, 0), (0, 1), (1, 1)], 6),
             (loops_algebra("loops", p), [(0, 1), (0, 0), (0, 1)], 5),
             (loops_algebra("fork", p), [(1, 0), (0, 1), (0, 0), (0, 1)], 6),
             # no generators; generators above the truncation
             (lam, [], 3),
             (cycle, [(0, 0), (1, 6), (0, 2), (1, 9)], 4)]
    for algebra, gens, hi in cases:
        assert_free_module_matches_the_entry_loop(algebra, gens, hi)


def assert_cover_matches_the_entry_loop(mod, hi=None):
    pmod, phi, gen_list = projective_cover(mod, hi)
    assert all(type(x) is int for g in gen_list for x in g)
    want = reference_cover_mats(mod, pmod, gen_list)
    assert set(phi.stored_mats()) <= set(want)
    for d, m in want.items():
        assert np.array_equal(phi.sparse_mat(d).dense(), m)
    return phi


def test_projective_cover_matches_the_entry_loop():
    lam = entry("two_vertex_n3")["lam"]
    f = free_module(lam, [(0, 0), (1, 1)], 6)
    rng = np.random.default_rng(1)
    rows = rng.integers(0, P, size=(1, f.dim(2)))
    rows[:, [v != 1 for v in f.verts_at(2)]] = 0
    quot, _ = quotient_module(f, submodule_closure(f, {2: rows}))
    mods = [quot, f, gm.graded_dual(f)]
    seg_maps = resolution_maps(loops_algebra("loops", 3), 3)
    mods += [g.source for g in seg_maps]
    for mod in mods:
        assert commutes(assert_cover_matches_the_entry_loop(mod))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_projective_cover_matches_the_entry_loop_at_small_primes(p):
    lam, dual, _ = tower("commutative_n2", p)
    rng = np.random.default_rng(p)
    mods = []
    for algebra in (lam, dual):
        f = free_module(algebra, [(0, 0), (0, 1)], 3)
        rows = rng.integers(0, p, size=(2, f.dim(2)))
        quot, _ = quotient_module(f, submodule_closure(f, {2: rows}))
        mods += [quot, f, gm.graded_dual(f)]
    for kind in ("loops", "cycle", "fork"):
        mods += [g.source for g in resolution_maps(loops_algebra(kind, p), 3)]
    for mod in mods:
        assert commutes(assert_cover_matches_the_entry_loop(mod))
        # truncated at the lowest degree, below the other generators
        assert_cover_matches_the_entry_loop(mod, min(mod.degrees()))


# -- free modules against the builder before the block cache ----------------


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_free_module_equals_the_builder_before_the_block_cache(p):
    """Over the two-vertex towers at n = 3 and 4, k<x, y>/(xy - yx, xx, yy)
    and the fork at p, with generators of several (vertex, degree) classes
    in mixed order, none, and some above the truncation."""
    import free_module_oracle as old
    from nkoszul.algebra import yoneda_regrade
    cases = []
    for n in (3, 4):
        lam, dual, ualg = tower(f"two_vertex_n{n}", p)
        cases += [
            (lam, [(0, 0), (1, 0), (0, 2), (1, 1), (0, 0), (1, 1)], n + 2),
            (dual, [(1, -1), (0, 0), (1, 0), (0, 2), (1, -1)], n + 2),
            (ualg, [(0, 0), (1, 1), (0, n), (1, 0), (1, 1)], 2 * n + 1),
            (yoneda_regrade(ualg), [(0, 0), (1, 1), (1, 2), (0, 0)], 4),
            (lam, [(0, 0), (1, 5), (1, 1), (0, 9)], 4)]
    lam, dual, ualg = tower("commutative_n2", p)
    cases += [(lam, [(0, 1), (0, 0), (0, 1)], 4),
              (yoneda_regrade(ualg), [(0, 0), (0, 1), (0, 0)], 4),
              (loops_algebra("fork", p), [(1, 0), (0, 1), (0, 0), (0, 1)], 6),
              (dual, [], 3)]
    for algebra, gens, hi in cases:
        # the second call reads the blocks the first one cached
        for _ in range(2):
            f, want = free_module(algebra, gens, hi), old.free_module(
                algebra, gens, hi)
            assert f.free_gens == want.free_gens
            assert all(type(x) is int for g in f.free_gens for x in g)
            assert label_lists(f.verts) == label_lists(want.verts)
            for d in want.verts:
                got = f.verts_at(d)
                assert got.dtype == np.intp and not got.flags.writeable
            assert f.stored_actions() == want.stored_actions()
            assert sorted(f.free_index) == sorted(want.free_index)
            for d, entries in want.free_index.items():
                assert f.free_index[d].dtype == np.intp
                assert np.array_equal(f.free_index[d], entries)


# -- ownership: public constructors copy, builders adopt ---------------------


def test_public_constructors_do_not_alias_their_inputs():
    lam = entry("two_vertex_n3")["lam"]
    f = free_module(lam, [(0, 0), (1, 1)], 5)
    actions = {k: m.copy() for k, m in dense_actions(f).items()}
    mod = GradedModule(lam, f.verts, actions)
    mats = {d: np.eye(f.dim(d), dtype=np.int64) for d in f.degrees()}
    ident = GradedMorphism(mod, mod, mats)
    for m in list(actions.values()) + list(mats.values()):
        m += 1
    for key, m in dense_actions(f).items():
        assert np.array_equal(mod.sparse_act(*key).dense(), m)
    for d in f.degrees():
        assert np.array_equal(ident.sparse_mat(d).dense(), np.eye(f.dim(d)))
    assert mod.is_valid() and commutes(ident)
    # a read-only label array is copied too: its owner may make it writable
    labels = {d: np.array(v) for d, v in f.verts.items()}
    for v in labels.values():
        v.setflags(write=False)
    mod = GradedModule(lam, labels, dense_actions(f))
    assert mod.is_valid()
    for v in labels.values():
        v.setflags(write=True)
        v[...] = 1 - v
    assert all(np.array_equal(mod.verts_at(d), v)
               for d, v in f.verts.items())
    assert mod.validate() == [] and mod.is_valid()


def test_stored_arrays_are_read_only():
    """A module or a morphism never changes: each stores every matrix as a
    read-only Sparse, from the public constructors and from the builders
    alike, so no verdict or product a module keeps can go stale.
    `sparse_act` and `sparse_mat` hand out the stored Sparse itself, and
    its `.dense()` a new array, whose writes the module or the morphism
    never sees; so does an algebra element's action
    (`_rows_times_basis_element`).  The public constructors leave the
    caller's arrays writable."""
    lam = entry("two_loop_n3")["lam"]
    f = free_module(lam, [(0, 0)], 6)
    actions = dense_actions(f)
    mod = GradedModule(lam, f.verts, actions)
    mats = {d: np.eye(f.dim(d), dtype=np.int64) for d in f.degrees()}
    ident = GradedMorphism(mod, mod, mats)
    assert mod.is_valid()
    spans = submodule_closure(mod, {1: np.array([[3, 5]], dtype=np.int64)})
    quot, proj = quotient_module(mod, spans)
    stored = [(m.sparse_act, key, s) for m in (mod, quot)
              for key, s in m.stored_actions().items()]
    stored += [(g.sparse_mat, (d,), m) for g in (ident, proj)
               for d, m in g.stored_mats().items()]
    arrays = [a for *_, m in stored for a in (m.rows, m.cols, m.vals)]
    assert len(stored) > 5 and len(arrays) > 10
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
    for read, key, m in stored:
        assert isinstance(m, linalg.Sparse)
        out = read(*key).dense()
        assert not np.may_share_memory(out, m.vals)
        out[...] = 0
        assert read(*key) is m and read(*key).dense().any()
    for k in range(3):
        out = gm._rows_times_basis_element(mod, None, k, 0, 0, {}).dense()
        out[...] = 0
        assert gm._rows_times_basis_element(mod, None, k, 0, 0, {}).any()
    for m in list(actions.values()) + list(mats.values()):
        m[0, 0] = m[0, 0]
    assert mod.validate() == [] and quot.validate() == []
    assert commutes(ident) and commutes(proj)


@pytest.fixture
def stored(monkeypatch):
    """Every matrix a module or a morphism stores (`_kept`, which both
    classes, their constructors and their deferred builds store through),
    with the modulus of its owner, in the order they are stored."""
    seen = []
    kept = gm._BuiltOnRead._kept

    def spy(owner, mats):
        out = kept(owner, mats)
        seen.extend((owner.p, m) for m in out.values())
        return out
    monkeypatch.setattr(gm._BuiltOnRead, "_kept", spy)
    return seen


@pytest.mark.parametrize("p", [2, 3, 101])
def test_every_adopted_array_is_int64_reduced_and_unshared(stored, p):
    """Every matrix a module or a morphism stores is a Sparse, int64 and
    reduced mod p, and none shares memory with an array the caller handed
    in or with another stored matrix (a Sparse handed in is read-only, and
    is kept as it is)."""
    lam = loops_algebra("cycle", p)
    f = free_module(lam, [(0, 0), (1, 1)], 6)
    assert f.verts_at(1).tolist() == [1, 1]
    rows = np.array([[1, p - 1]])
    spans = submodule_closure(f, {1: rows})
    assert spans[1].dim == 1 and len(spans) > 1
    sub, incl = gm.submodule_from_bases(f, spans)
    quot, proj = quotient_module(f, spans)
    projective_cover(quot)
    _, phi, _ = projective_cover(f)
    inputs = [m.vals for g in (f, sub, quot)
              for m in g.stored_actions().values()]
    inputs += [m.vals for g in (incl, proj) for m in g.stored_mats().values()]
    before = len(stored)
    mats = np.eye(f.dim(2), dtype=np.int64) * (p + 1)
    GradedMorphism(f, f, {2: mats}).stored_mats()
    phi.compose(proj).stored_mats()
    incl.compose(proj).stored_mats()
    for g in resolution_maps(lam, 4):
        g.stored_mats()
    assert len(stored) > before > 0
    assert mats[0, 0] == p + 1  # the caller's array is left as it was
    assert len(stored) - before > 10
    for i, (q, m) in enumerate(stored):
        assert isinstance(m, linalg.Sparse)
        assert q == p and m.vals.dtype == np.int64
        assert m.vals.min(initial=0) >= 0 and m.vals.max(initial=0) < p
        for other in [rows] + (inputs + [mats] if i >= before else []):
            assert not np.may_share_memory(m.vals, other)
    for i, (_, m) in enumerate(stored):
        for _, other in stored[i + 1:]:
            assert not np.may_share_memory(m.vals, other.vals)


def test_stored_actions_carry_a_module_to_the_free_algebra():
    """The copy sites of the CLI's functor command and of verify's functor
    oracle: a module over the dual rebuilt over the free algebra from its
    stored actions (a quotient's, or a free module's).  The stored Sparse
    matrices are read-only and are kept, every action reads the same, and
    the orthogonal oracle answers alike on the copy and on one rebuilt
    from the densified actions."""
    e = entry("two_loop_n3")
    lam, dual = e["lam"], e["dual"]
    freeop = verify._free_op_algebra(lam.quiver, e["n"], 3 * e["n"] + 2)
    rng = np.random.default_rng(4)
    for mod in (verify.random_quotient_module(rng, dual, 0, 6),
                free_module(dual, [(0, 0), (0, 2)], 6)):
        stored = mod.stored_actions()
        assert stored
        copy = GradedModule(freeop, dict(mod.verts), stored)
        kept = copy.stored_actions()
        assert set(kept) == set(stored)
        for key, m in stored.items():
            assert isinstance(m, linalg.Sparse) and kept[key] is m
            assert np.array_equal(copy.sparse_act(*key).dense(),
                                  mod.sparse_act(*key).dense())
        dense_copy = GradedModule(freeop, dict(mod.verts), dense_actions(mod))
        assert dense_copy.stored_actions() == kept
        assert cx.annihilates_orthogonal(copy, lam) \
            == cx.annihilates_orthogonal(dense_copy, lam)


# -- module maps checked by one product per side and generator degree --------


@pytest.mark.parametrize("p", [2, 3, 101])
def test_noncommuting_degree_matches_the_per_generator_loop(p):
    """One product per side and generator degree finds the degree the loop
    of two products per generator finds: on module maps stored dense and
    Sparse (identities, projections, inclusions, resolution maps), and on
    each of them with one degree replaced by a random map that keeps the
    vertex blocks, over algebras whose generators have degree 1, and over
    U, where they have degrees 1 and n."""
    import dense_oracle
    rng = np.random.default_rng(p)
    lam, dual, ualg = tower("two_vertex_n3", p)
    x = gm.restrict_S(free_module(dual, [(0, 0), (1, 0)], 7), ualg,
                      TorsionParams(3, 1, 0))
    f = free_module(lam, [(0, 0), (1, 1)], 5)
    rad = {d: s for d, s in gm._radical_rrefs(f).items() if s.dim}
    maps = [gm.submodule_from_bases(f, rad)[1], quotient_module(f, rad)[1]]
    maps += resolution_maps(loops_algebra("fork", p), 3)
    for m in (x, f, graded_dual(f)):
        eye = {d: np.eye(m.dim(d), dtype=np.int64) for d in m.degrees()}
        maps += [GradedMorphism(m, m, eye), GradedMorphism(
            m, m, {d: linalg.Sparse.from_dense(a, p) for d, a in eye.items()})]
    found = set()
    for g in maps:
        assert g.noncommuting_degree() is None
        assert dense_oracle.noncommuting_degree(g) is None
        for d in g.source.degrees():
            vs, ws = g.source.verts_at(d), g.target.verts_at(d)
            r = rng.integers(0, p, size=(vs.size, ws.size)) * (
                vs[:, None] == ws)
            for mat in (r, linalg.Sparse.from_dense(r, p)):
                h = GradedMorphism(g.source, g.target,
                                   {**g.stored_mats(), d: mat})
                want = dense_oracle.noncommuting_degree(h)
                assert h.noncommuting_degree() == want
                found.add(want)
    assert None in found and len(found) > 3
