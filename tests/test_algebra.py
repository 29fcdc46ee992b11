import numpy as np
import pytest

from nkoszul import algebra as al
from nkoszul import grmod as gm
from nkoszul import linalg
from nkoszul.algebra import (DegreeMap, Presentation, USupportAlgebra,
                             build_dual, build_slices, compute_orthogonal,
                             compute_orthogonal_via_ordering, yoneda_regrade)
from nkoszul.quiver import (Path, PathSpaceElement, Quiver, enumerate_paths,
                            path_index)
from algebra_oracle import (ideal_subspace, left_mult_matrix, path_count,
                            reduce_path_element)
from dense_oracle import word_action

P = 101


def truncated_one_loop(n=3, top=12):
    q = Quiver.make(1, [("x", 0, 0)])
    rels = [PathSpaceElement(n, {pa: 1}) for pa in enumerate_paths(q, n)]
    return build_slices(Presentation.make(q, n, rels), top)


def truncated_two_loop(n=3, top=10):
    q = Quiver.make(1, [("x", 0, 0), ("y", 0, 0)])
    rels = [PathSpaceElement(n, {pa: 1}) for pa in enumerate_paths(q, n)]
    return build_slices(Presentation.make(q, n, rels), top)


def square_zero_commutative(top=8):
    q = Quiver.make(1, [("x", 0, 0), ("y", 0, 0)])
    rels = [PathSpaceElement(2, {Path(0, (0, 1)): 1, Path(0, (1, 0)): P - 1}),
            PathSpaceElement(2, {Path(0, (0, 0)): 1}),
            PathSpaceElement(2, {Path(0, (1, 1)): 1})]
    return build_slices(Presentation.make(q, 2, rels), top)


def test_one_loop_dimensions():
    lam = truncated_one_loop()
    assert [lam.dim(k) for k in range(5)] == [1, 1, 1, 0, 0]
    assert lam.is_finite_dimensional()
    assert lam.vanishing_degree() == 3


def test_two_loop_dimensions():
    lam = truncated_two_loop()
    assert [lam.dim(k) for k in range(5)] == [1, 2, 4, 0, 0]


def test_commutative_dimensions_and_reduction():
    lam = square_zero_commutative()
    assert [lam.dim(k) for k in range(4)] == [1, 2, 1, 0]
    q = lam.pres.quiver
    xy = PathSpaceElement(2, {Path(0, (0, 1)): 1})
    yx = PathSpaceElement(2, {Path(0, (1, 0)): 1})
    vx = reduce_path_element(lam, xy)
    vy = reduce_path_element(lam, yx)
    assert np.array_equal(vx, vy)
    assert vx.any()


def test_multiplication_associativity():
    lam = square_zero_commutative()
    m11 = lam.mult(1, 1)
    m12 = lam.mult(1, 2)
    m21 = lam.mult(2, 1)
    d1, d2, d3 = lam.dim(1), lam.dim(2), lam.dim(3)
    for a in range(d1):
        for b in range(d1):
            for c in range(d1):
                left = np.zeros(d3, dtype=np.int64)
                for k in range(d2):
                    left = (left + m11[a, b][k] * m21[k, c]) % P
                right = np.zeros(d3, dtype=np.int64)
                for k in range(d2):
                    right = (right + m11[b, c][k] * m12[a, k]) % P
                assert np.array_equal(left, right)


def test_orthogonal_rank_commutative():
    lam = square_zero_commutative()
    orth = compute_orthogonal(lam)
    assert orth.dim == 1


def test_dual_of_commutative_is_polynomial_ring():
    lam = square_zero_commutative()
    dual = build_dual(lam, 9)
    # the orthogonal of the square-zero commutative relations cuts out the
    # commutative polynomial ring on two variables
    assert [dual.dim(k) for k in range(10)] == [k + 1 for k in range(10)]


def test_dual_of_truncated_algebras_is_free():
    one = build_dual(truncated_one_loop(), 8)
    assert [one.dim(k) for k in range(9)] == [1] * 9
    two = build_dual(truncated_two_loop(), 8)
    assert [two.dim(k) for k in range(9)] == [2 ** k for k in range(9)]
    assert [two.dim(k) for k in range(9)] == [path_count(two, k)
                                             for k in range(9)]


def test_orthogonal_algorithms_agree_random():
    from nkoszul import verify
    rng = np.random.default_rng(11)
    for _ in range(12):
        pres = verify.random_presentation(rng)
        lam = build_slices(pres, 2 * pres.n)
        direct = compute_orthogonal(lam)
        data = compute_orthogonal_via_ordering(lam)
        assert direct == data.orthogonal


def test_degree_map_values():
    dm = DegreeMap(0, 3)
    assert [dm.delta(j) for j in range(6)] == [0, 1, 3, 4, 6, 7]
    assert dm.in_image(6) and not dm.in_image(2)
    assert dm.inverse(7) == 5
    dm4 = DegreeMap(0, 4)
    assert [dm4.delta(j) for j in range(6)] == [0, 1, 4, 5, 8, 9]


def test_usupport_dims_match_dual_at_delta():
    lam = truncated_two_loop(top=12)
    dual = build_dual(lam, 10)
    ualg = USupportAlgebra(dual, 3)
    dm = DegreeMap(0, 3)
    for j in range(6):
        d = dm.delta(j)
        assert ualg.dim(d) == dual.dim(d)
    assert ualg.dim(2) == 0 and ualg.dim(5) == 0


def test_usupport_words_and_relations_close():
    lam = truncated_one_loop()
    dual = build_dual(lam, 10)
    ualg = USupportAlgebra(dual, 3)
    for d in (0, 1, 3, 4, 6):
        words = ualg.element_words(d)
        assert len(words) >= ualg.dim(d)
    assert isinstance(ualg.relation_words(), list)


def test_yoneda_regrade_dims():
    lam = truncated_one_loop()
    ualg = USupportAlgebra(build_dual(lam, 26), 3)
    yon = yoneda_regrade(ualg)
    dm = DegreeMap(0, 3)
    for j in range(7):
        assert yon.dim(j) == ualg.dim(dm.delta(j))
    assert {g.degree for g in yon.generators()} <= {1, 2}


def test_generators_live_in_degree_one():
    lam = truncated_two_loop()
    gens = lam.generators()
    assert len(gens) == 2
    assert all(g.degree == 1 for g in gens)
    names = {g.name for g in gens}
    assert names == {"x", "y"}


def test_ideal_subspace_and_path_count():
    lam = truncated_two_loop()
    assert path_count(lam, 3) == 8
    assert ideal_subspace(lam, 3).dim == 8
    assert lam.dim(3) == 0


def test_presentation_opposite_round_trip():
    lam = square_zero_commutative()
    op = lam.pres.opposite()
    lam_op = build_slices(op, 4)
    assert [lam_op.dim(k) for k in range(4)] == [1, 2, 1, 0]


# -- normal form oracles ----------------------------------------------------
#
# The references below are the code NF_d replaced, run on Python integers so
# that they are exact at every modulus: the pivot/tail reduction by the RREF
# of I_d, the mult loop that reduces one one-hot vector per basis pair, and
# the ordering that runs one rank per path and one solve per s path.


def reference_reducer(alg, d):
    """v -> its class in A_d, reduced by the RREF of I_d."""
    red = alg.ideal_rref(d)
    piv = [int(np.flatnonzero(row)[0]) for row in red]
    nonpiv = sorted(set(range(red.shape[1])) - set(piv))
    tail = red[:, nonpiv].astype(object)

    def reduce(v):
        v = np.array([int(x) % alg.p for x in v], dtype=object)
        out = v[nonpiv].copy()
        if piv and nonpiv:
            out = (out - v[piv] @ tail) % alg.p
        return out.astype(np.int64)
    return reduce


def reference_reduce(alg, v, d):
    return reference_reducer(alg, d)(v)


def reference_mult(alg, d1, d2):
    q = alg.quiver
    t = np.zeros((alg.dim(d1), alg.dim(d2), alg.dim(d1 + d2)), dtype=np.int64)
    if t.size:
        pidx = path_index(q, d1 + d2)
        reduce = reference_reducer(alg, d1 + d2)
        for i, pa in enumerate(alg.basis_paths(d1)):
            for j, pb in enumerate(alg.basis_paths(d2)):
                if pa.target_in(q) != pb.source:
                    continue
                v = np.zeros(path_count(alg, d1 + d2), dtype=np.int64)
                v[pidx[pa.compose(pb, q)]] = 1
                t[i, j] = reduce(v)
    return t


def reference_ordering(alg):
    from nkoszul.quiver import opposite_path
    n, p, q = alg.pres.n, alg.p, alg.quiver
    paths = enumerate_paths(q, n)
    m = alg.dim(n)
    reduce = reference_reducer(alg, n)
    r_block, s_block, t_block, images = [], [], [], []
    basis_mat = linalg.zeros(0, m)
    for i in range(len(paths)):
        v = np.zeros(len(paths), dtype=np.int64)
        v[i] = 1
        img = reduce(v)
        images.append(img)
        if m == 0 or not img.any():
            t_block.append(i)
            continue
        cand = np.concatenate([basis_mat, img.reshape(1, -1)], axis=0)
        if linalg.rank(cand, p) > len(r_block):
            r_block.append(i)
            basis_mat = cand
        else:
            s_block.append(i)
    lam = linalg.zeros(len(r_block), len(s_block))
    for jj, j in enumerate(s_block):
        lam[:, jj] = linalg.solve(basis_mat.T, images[j], p)
    h_basis = []
    for ii, i in enumerate(r_block):
        coeffs = {opposite_path(paths[i], q): 1}
        for jj, j in enumerate(s_block):
            if lam[ii, jj]:
                coeffs[opposite_path(paths[j], q)] = int(lam[ii, jj])
        h_basis.append(PathSpaceElement(n, coeffs))
    rows = [h.vector(q.opposite(), p) for h in h_basis]
    orth = linalg.Subspace.from_rows(len(paths), rows, p)
    return al.DualData(r_block, s_block, t_block, lam, h_basis, orth)


def assert_normal_form_matches(alg, top):
    for d in range(top + 1):
        nf = alg.normal_form(d)
        assert nf.shape == (path_count(alg, d), alg.dim(d))
        rng = np.random.default_rng(d)
        reduce = reference_reducer(alg, d)
        for i, row in enumerate(nf):
            onehot = np.zeros(len(nf), dtype=np.int64)
            onehot[i] = 1
            assert np.array_equal(row, reduce(onehot))
        v = rng.integers(0, alg.p, len(nf))
        assert np.array_equal(alg.reduce_vector(v, d),
                              reduce(v))
    for d1 in range(top + 1):
        for d2 in range(top + 1 - d1):
            assert np.array_equal(alg.mult(d1, d2), reference_mult(alg, d1, d2))
    got, want = compute_orthogonal_via_ordering(alg), reference_ordering(alg)
    assert (got.r_block, got.s_block, got.t_block) == (
        want.r_block, want.s_block, want.t_block)
    assert got.lam.shape == want.lam.shape
    assert np.array_equal(got.lam, want.lam)
    assert [list(h.coeffs.items()) for h in got.h_basis] == [
        list(h.coeffs.items()) for h in want.h_basis]
    assert got.orthogonal == want.orthogonal


@pytest.mark.parametrize("name", ["one_loop_n3", "two_loop_n3",
                                  "commutative_n2", "two_vertex_n3",
                                  "two_vertex_n4"])
def test_normal_form_matches_the_reductions_it_replaced_on_the_corpus(name):
    from nkoszul import verify
    e = verify.corpus(name)
    # lam vanishes from degree n on; the duals of the truncated algebras
    # have no relations at all, and degree 1 never has one
    assert e["lam"].vanishing_degree() == e["n"] or name == "commutative_n2"
    assert_normal_form_matches(e["lam"], 6)
    assert_normal_form_matches(e["dual"], 6)


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_normal_form_matches_the_reductions_it_replaced_on_random_samples(p):
    from nkoszul import verify
    rng = np.random.default_rng(5)
    vanished = 0
    for _ in range(10):
        pres = verify.random_presentation(rng)
        pres = Presentation.make(pres.quiver, pres.n, pres.relations, p)
        lam = build_slices(pres, pres.n + 1)
        assert lam.p == p
        assert_normal_form_matches(lam, pres.n + 1)
        assert_normal_form_matches(build_dual(lam, pres.n + 1), pres.n + 1)
        vanished += lam.vanishing_degree() is not None
    assert vanished


@pytest.mark.parametrize("p", [2, 3, 5])
def test_normal_form_at_small_primes_past_the_vanishing_degree(p):
    q = Quiver.make(1, [("x", 0, 0), ("y", 0, 0)])
    rels = [PathSpaceElement(2, {Path(0, (0, 1)): 1, Path(0, (1, 0)): p - 1}),
            PathSpaceElement(2, {Path(0, (0, 0)): 1, Path(0, (1, 1)): 1}),
            PathSpaceElement(3, {Path(0, (0, 0, 0)): 1})]
    lam = build_slices(Presentation.make(q, 2, rels, p), 6)
    assert lam.vanishing_degree() is not None and lam.vanishing_degree() < 6
    assert_normal_form_matches(lam, 6)
    assert_normal_form_matches(build_dual(lam, 6), 6)


def big_coefficient_algebra(p):
    """The quantum plane xy = c yx with c = 2 - p // 3, far from 0 and 1."""
    q = Quiver.make(1, [("x", 0, 0), ("y", 0, 0)])
    rels = [PathSpaceElement(2, {Path(0, (0, 1)): 1,
                                 Path(0, (1, 0)): p // 3 - 2})]
    return build_slices(Presentation.make(q, 2, rels, p), 5)


def py_combination(p, coeffs, mats):
    """sum_k coeffs[k] * mats[k] mod p on Python integers."""
    out = 0
    for c, m in zip(coeffs, mats):
        out = out + int(c) * np.asarray(m).astype(object)
    return (np.asarray(out, dtype=object) % p).astype(np.int64)


@pytest.mark.parametrize("p", [101, 3037000493, 4611686018427388039])
def test_algebra_products_are_exact_at_large_moduli(p):
    from nkoszul.grmod import free_module
    lam = big_coefficient_algebra(p)
    assert [lam.dim(d) for d in range(5)] == [1, 2, 3, 4, 5]
    rng = np.random.default_rng(3)
    for d in range(1, 5):
        v = rng.integers(p - 1000, p, path_count(lam, d))
        assert np.array_equal(lam.reduce_vector(v, d),
                              reference_reduce(lam, v, d))
    for d1, d2 in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]:
        t = lam.mult(d1, d2)
        assert np.array_equal(t, reference_mult(lam, d1, d2))
        v1 = rng.integers(p - 1000, p, lam.dim(d1))
        v2 = rng.integers(p - 1000, p, lam.dim(d2))
        assert np.array_equal(left_mult_matrix(lam, d1, v1, d2),
                              py_combination(p, v1, t))
        assert np.array_equal(lam.right_mult_matrix(d1, d2, v2),
                              py_combination(p, v2, t.transpose(1, 0, 2)))
    mod = free_module(lam, [(0, 0)], 5)
    for d_el, d in [(1, 0), (2, 1), (3, 1)]:
        vec = rng.integers(p - 1000, p, lam.dim(d_el))
        mats = [gm._rows_times_basis_element(mod, None, d_el, b, d,
                                             {}).dense()
                for b in range(len(vec))]
        assert np.array_equal(gm._element_action(mod, d_el, vec, d).dense(),
                              py_combination(p, vec, mats))
    ualg = USupportAlgebra(build_dual(lam, 5), 2)
    umod = free_module(ualg, [(0, 0)], 5)
    for d_el in (2, 3, 4):
        for b, words in enumerate(ualg.element_words(d_el)):
            mats = [word_action(umod, w, 0) for w, _ in words]
            assert np.array_equal(gm._rows_times_basis_element(
                umod, None, d_el, b, 0, {}).dense(),
                                  py_combination(p, [c for _, c in words],
                                                 mats))


# -- the stacked slice build, as an oracle ----------------------------------
#
# The construction the cokernel build replaced: every arrow shift of I_{k-1},
# on either side, and the relations of degree k stacked into one matrix over
# the paths of degree k and row-reduced.  It materialises the whole ideal,
# so it only runs at small sizes.


def stacked_slices(pres, top):
    """(pivots, non-pivots, RREF of I_k) for k = 0..top."""
    q, p = pres.quiver, pres.p
    out, prev, prev_paths = [], linalg.zeros(0, 0), []
    for k in range(top + 1):
        paths = enumerate_paths(q, k)
        pidx = {pa: i for i, pa in enumerate(paths)}
        # an appended zero column: the source of columns a shift misses
        ext = np.concatenate([prev, linalg.zeros(len(prev), 1)], axis=1)
        blocks = []
        for a in range(q.arrow_count):
            for left in (True, False):
                src = np.full(len(paths), len(prev_paths), dtype=np.intp)
                for j, pa in enumerate(prev_paths):
                    if left and pa.source == q.arrow_target(a):
                        new = Path(q.arrow_source(a), (a,) + pa.arrows)
                    elif not left and pa.target_in(q) == q.arrow_source(a):
                        new = Path(pa.source, pa.arrows + (a,))
                    else:
                        continue
                    src[pidx[new]] = j
                blocks.append(ext[:, src])
        blocks += [r.vector(q, p).reshape(1, -1)
                   for r in pres.relations if r.degree == k]
        stacked = (np.concatenate(blocks) if blocks
                   else linalg.zeros(0, len(paths)))
        red, pivots, rank = linalg.rref(stacked, p)
        nonpiv = sorted(set(range(len(paths))) - set(pivots))
        out.append((pivots, nonpiv, red[:rank]))
        prev, prev_paths = red[:rank], paths
    return out


def assert_slices_match_stacked(alg, top):
    """The normal words, the class of every path (in path order and
    reversed) and the RREF of I_d agree with the stacked build."""
    alg.ensure_degree(top)
    q = alg.quiver
    for d, (pivots, nonpiv, red) in enumerate(stacked_slices(alg.pres, top)):
        pidx = path_index(q, d)
        assert [pidx[w] for w in alg.basis_paths(d)] == nonpiv
        assert alg.dim(d) == len(nonpiv)
        nf = linalg.zeros(red.shape[1], len(nonpiv))
        nf[nonpiv, np.arange(len(nonpiv))] = 1
        nf[pivots] = -red[:, nonpiv] % alg.p
        paths = enumerate_paths(q, d)
        assert np.array_equal(alg.normal_form(d), nf)
        assert np.array_equal(alg.path_classes(d, paths[::-1]), nf[::-1])
        assert np.array_equal(alg.ideal_rref(d), red)
        assert ideal_subspace(alg, d) == linalg.Subspace.from_rows(
            red.shape[1], red, alg.p)


CORPUS = ["one_loop_n3", "two_loop_n3", "commutative_n2", "two_vertex_n3",
          "two_vertex_n4"]


@pytest.mark.parametrize("name", CORPUS)
def test_slices_match_the_stacked_build_on_the_corpus(name):
    from nkoszul import verify
    e = verify.corpus(name)
    for alg in (e["lam"], e["dual"]):
        assert_slices_match_stacked(alg, 8)


INPUTS = ["commutative_n2.json", "one_loop_n3.json", "two_loop_n3.json"]


@pytest.mark.parametrize("source", CORPUS + INPUTS)
def test_word_tables_match_the_per_word_oracle(source):
    """U's and E's element and relation words, from the mult tensors and
    one solve per degree, equal the tables built word by word with one
    solve per basis element, on every corpus algebra and every input."""
    import os
    import algebra_oracle as oracle
    from nkoszul import verify
    from nkoszul.docio import load_document
    if source in CORPUS:
        ualg = verify.corpus(source)["ualg"]
    else:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        dom = load_document(os.path.join(root, "inputs", source))
        top = max(*map(abs, dom["window"]), dom["n"] + 1)
        lam = build_slices(dom["presentation"], top)
        ualg = USupportAlgebra(build_dual(lam, top), dom["n"])
    # U through dual degree 2n + 1, and E to its image: delta(5) = 2n + 1
    for alg, top in [(ualg, 2 * ualg.n + 2), (yoneda_regrade(ualg), 6)]:
        assert alg.relation_words() == oracle.relation_words(alg)
        for j in range(top):
            assert alg.element_words(j) == oracle.element_words(alg, j)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_slices_match_the_stacked_build_on_the_corpus_at_small_primes(p):
    """The corpus algebras, whose relations are written over Z, over F_p."""
    from nkoszul import verify
    for name in CORPUS:
        e = verify.corpus(name, p)
        for alg in (e["lam"], e["dual"]):
            assert alg.p == p
            assert_slices_match_stacked(alg, 8)


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_slices_match_the_stacked_build_on_random_samples(p):
    from nkoszul import verify
    rng = np.random.default_rng(17)
    for _ in range(12):
        pres = verify.random_presentation(rng)
        pres = Presentation.make(pres.quiver, pres.n, pres.relations, p)
        top = pres.n + (1 if pres.quiver.arrow_count > 2 else 3)
        lam = build_slices(pres, top)
        assert_slices_match_stacked(lam, top)
        assert_slices_match_stacked(build_dual(lam, top), top)


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_the_double_dual_has_the_slices_of_the_algebra(p):
    """The dual of the dual algebra is the algebra again: through degree
    t = n + 2 it has the same quiver, and in each degree the same
    dimension and the same normal form of every path."""
    from nkoszul import verify
    rng = np.random.default_rng(0)
    for _ in range(40):
        pres = verify.random_presentation(rng)
        pres = Presentation.make(pres.quiver, pres.n, pres.relations, p)
        t = pres.n + 2
        lam = build_slices(pres, t)
        back = build_dual(build_dual(lam, t), t)
        assert back.quiver == lam.quiver
        for k in range(t + 1):
            assert back.dim(k) == lam.dim(k)
            assert np.array_equal(back.normal_form(k), lam.normal_form(k))


@pytest.mark.parametrize("p", [2, 3, 101])
def test_slices_match_the_stacked_build_past_degree_n(p):
    """Relations of degree n, n + 1 and n + 2 over two vertices, the last
    one not parallel: the rows u.r come from every degree below d."""
    q = Quiver.make(2, [("x", 0, 0), ("y", 0, 1), ("z", 1, 0), ("w", 1, 1)])
    rels = [PathSpaceElement(2, {Path(0, (0, 1)): 1, Path(0, (1, 3)): 1}),
            PathSpaceElement(3, {Path(0, (0, 0, 0)): 1,
                                 Path(0, (1, 2, 0)): p - 1}),
            PathSpaceElement(4, {Path(1, (3, 3, 3, 3)): 1,
                                 Path(0, (0, 0, 1, 2)): 1})]
    dims = []
    for k in (1, 2, 3):
        lam = build_slices(Presentation.make(q, 2, rels[:k], p), 7)
        assert_slices_match_stacked(lam, 7)
        dims.append([lam.dim(d) for d in range(8)])
    # each relation cuts the slices from its own degree on
    assert dims[0][:3] == dims[1][:3] and dims[0][3] > dims[1][3]
    assert dims[1][:4] == dims[2][:4] and dims[1][4] > dims[2][4]


def test_slices_build_under_a_profiler():
    """The build keeps no array a profiler's reference could pin: it once
    shrank the ideal matrix in place, which raised under cProfile."""
    import cProfile
    from nkoszul import verify
    lam = verify.corpus("commutative_n2")["lam"]
    dual = cProfile.Profile().runcall(build_dual, lam, 10)
    assert [dual.dim(d) for d in range(11)] == list(range(1, 12))


def test_slices_refuse_an_oversized_tail_before_allocating_it():
    """The third draw at rng 5 (four loops, n = 2) has dim A_8 = 22288: its
    tail at degree 8 alone would be 43248 x 22288 entries, 7.18 GiB, and
    the tail at degree 7 is already over the cap."""
    import tracemalloc
    from nkoszul import verify
    rng = np.random.default_rng(5)
    for _ in range(3):
        pres = verify.random_presentation(rng)
    assert (pres.quiver.arrow_count, pres.n) == (4, 2)
    tracemalloc.start()
    try:
        with pytest.raises(al.AlgebraError, match="over the .* cap"):
            build_slices(pres, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < al.MAX_SLICE_BYTES


def test_a_relation_that_is_not_parallel_is_split_by_its_end_vertices():
    """x.y + w.w generates the ideal of x.y and w.w, not of the one sum."""
    q = Quiver.make(2, [("x", 0, 0), ("y", 0, 1), ("z", 1, 0), ("w", 1, 1)])
    xy, ww = Path(0, (0, 1)), Path(1, (3, 3))
    joined = Presentation.make(q, 2, [PathSpaceElement(2, {xy: 1, ww: 1})])
    apart = Presentation.make(q, 2, [PathSpaceElement(2, {xy: 1}),
                                     PathSpaceElement(2, {ww: 1})])
    assert ([r.coeffs for r in joined.relations]
            == [r.coeffs for r in apart.relations] == [{xy: 1}, {ww: 1}])
    for pres in (joined, apart):
        lam = build_slices(pres, 4)
        assert [lam.dim(d) for d in range(5)] == [2, 4, 6, 9, 13]
        assert_slices_match_stacked(lam, 4)


# -- one class for U and E against the two classes it replaced ---------------


FLAVOUR_CASES = ["one_loop_n3", "two_loop_n3", "commutative_n2",
                 "two_vertex_n3", "two_vertex_n4"] + [
    f"{kind}@{p}" for p in (2, 3, 5) for kind in ("loops", "cycle")]


def flavour_dual(case):
    """(dual, n) of a corpus algebra, named or written kind@p for two loops
    at a vertex or a two-vertex cycle, with all paths of length 3 as
    relations, over F_p."""
    from nkoszul import verify
    name, _, p = case.partition("@")
    name = {"loops": "two_loop_n3", "cycle": "two_vertex_n3"}.get(name, name)
    e = verify.corpus(name, int(p or P))
    return e["dual"], e["n"]


@pytest.mark.parametrize("case", FLAVOUR_CASES)
def test_one_support_class_reads_as_the_u_and_e_classes(case):
    from flavour_oracle import USupportAlgebra as OldU, YonedaAlgebra as OldE
    dual, n = flavour_dual(case)
    new_u = USupportAlgebra(dual, n)
    old_u = OldU(dual, n)
    # U to degree 2n + 1, and E to its image: delta(5) = 2n + 1
    for new, old, top in [(new_u, old_u, 2 * n + 2),
                          (yoneda_regrade(new_u), OldE(old_u), 6)]:
        assert new.generators() == old.generators()
        assert new.relation_words() == old.relation_words()
        for j in range(-2, top):
            assert new.dim(j) == old.dim(j)
            assert new.basis_pairs(j) == old.basis_pairs(j)
            if j >= 0:
                assert new.element_words(j) == old.element_words(j)
            for j2 in range(-1, top - max(j, 0)):
                t, t_old = new.mult(j, j2), old.mult(j, j2)
                assert t.shape == t_old.shape and np.array_equal(t, t_old)
