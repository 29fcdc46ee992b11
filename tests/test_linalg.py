import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from nkoszul import linalg
from nkoszul.linalg import Subspace

P = 101


def rand_matrix(rng, r, c):
    return rng.integers(0, P, size=(r, c)).astype(np.int64)


small_dims = st.integers(min_value=0, max_value=6)


@st.composite
def matrices(draw, max_dim=6):
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    data = draw(st.lists(st.integers(0, P - 1), min_size=r * c,
                         max_size=r * c))
    return np.array(data, dtype=np.int64).reshape(r, c)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_is_idempotent(m):
    r1, piv1, rk1 = linalg.rref(m, P)
    r2, piv2, rk2 = linalg.rref(r1, P)
    assert np.array_equal(r1, r2)
    assert piv1 == piv2 and rk1 == rk2


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    rk = linalg.rref(m, P)[2]
    ns = linalg.null_space(m, P)
    assert rk + ns.dim == m.shape[1]
    for v in ns.basis.dense():
        assert not ((m @ v) % P).any()


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_left_null_space_annihilates(m):
    ns = linalg.sparse_left_kernel(linalg.Sparse.from_dense(m, P), P)
    assert ns == linalg.null_space(m.T, P)
    assert ns.dim == m.shape[0] - linalg.rref(m, P)[2]
    for v in ns.basis.dense():
        assert not ((v @ m) % P).any()


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=5), st.integers(0, 10 ** 6))
def test_solve_consistent_system(m, seed):
    """The dense solve that the left inverse is checked against."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, P, size=m.shape[1])
    b = (m @ x) % P
    sol = dense_oracle.solve(m, b, P)
    assert sol is not None
    assert np.array_equal((m @ sol) % P, b)


def test_solve_inconsistent_system():
    a = np.array([[1, 0], [2, 0]], dtype=np.int64)
    b = np.array([1, 3], dtype=np.int64)
    assert dense_oracle.solve(a, b, P) is None


def test_solve_is_deterministic_free_vars_zero():
    # one equation, two unknowns: the canonical solution zeroes the free one
    a = np.array([[1, 1]], dtype=np.int64)
    b = np.array([5], dtype=np.int64)
    sol = dense_oracle.solve(a.T.T, b, P)
    assert sol is not None and sol[1] == 0 and sol[0] == 5


def left_inverse_of(m, p):
    """`linalg.left_inverse` of an array, checked to be a reduced Sparse
    with L @ m = I, densified; None when it is None."""
    got = linalg.left_inverse(linalg.Sparse.from_dense(m, p), p)
    if got is None:
        return None
    assert got.shape == m.shape[::-1]
    assert got == linalg.Sparse.from_entries(got.shape, got.rows, got.cols,
                                             got.vals, p)
    got = got.dense()
    assert np.array_equal(linalg.mat_mul(got, m, p), linalg.eye(m.shape[1]))
    return got


def assert_left_inverse_is_the_dense_solve(m, p):
    """The left inverse of m is the transposed solve of m^T X = I, both
    None when the columns of m are dependent.  Returns whether it is."""
    want = dense_oracle.solve_matrix(m.T, linalg.eye(m.shape[1]), p)
    got = left_inverse_of(m, p)
    if want is None:
        assert got is None
        return False
    assert np.array_equal(got, want.T)
    return True


def test_inverse_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rand_matrix(rng, 4, 4)
        if linalg.rref(m, P)[2] < 4:
            continue
        inv = left_inverse_of(m, P)
        assert np.array_equal(linalg.mat_mul(m, inv, P), linalg.eye(4))


def monomial_block(rng, n, p):
    """A random n x n permutation matrix scaled row by row, mod p."""
    m = np.zeros((n, n), dtype=np.int64)
    m[np.arange(n), rng.permutation(n)] = rng.integers(1, min(p, 2**62),
                                                       size=n)
    return m


@pytest.mark.parametrize("p", [2, 3, 101, 3037000493, 4611686018427388039])
def test_inverse_of_a_monomial_matrix_is_the_solved_one(monkeypatch, p):
    """A monomial matrix is inverted with no elimination; the inverse is
    the one the elimination gives, and a matrix one entry away from
    monomial, singular or not, still goes through the elimination."""
    rng = np.random.default_rng(p % 997)
    eliminated = []
    dense_inverse = linalg._dense_inverse
    monkeypatch.setattr(linalg, "_dense_inverse", lambda b, p: (
        eliminated.append(b.shape) or dense_inverse(b, p)))
    for n in (1, 2, 5, 9):
        m = monomial_block(rng, n, p)
        assert assert_left_inverse_is_the_dense_solve(m, p)
        assert not eliminated
        if n > 1:
            two = m.copy()
            two[0] = (m[0] + m[1]) % p  # two nonzeros in row 0: invertible
            assert assert_left_inverse_is_the_dense_solve(two, p)
            two[1] = 0  # a zero row: singular
            assert not assert_left_inverse_is_the_dense_solve(two, p)
            assert eliminated == [(n, n)] * 2
            eliminated.clear()
    assert left_inverse_of(np.zeros((0, 0), dtype=np.int64), p).shape == \
        (0, 0)


@pytest.mark.parametrize("p", [2, 3, 101, 3037000493, 4611686018427388039])
def test_left_inverse_is_the_transposed_dense_solve(p):
    """On tall, square and wide matrices, singular ones, ones with a zero
    column and ones with no column, with monomial pivot blocks and dense
    ones, the left inverse is the solve of m^T X = I, transposed."""
    rng = np.random.default_rng(p % 1009)
    top = min(p, 2**62)
    seen = set()
    for rows, cols in [(7, 3), (4, 4), (6, 6), (2, 5), (3, 0), (0, 0)]:
        for kind in ("dense", "sparse", "monomial"):
            for zero_column in (False, True):
                m = rng.integers(0, top, size=(rows, cols))
                if kind == "sparse":
                    m *= rng.random((rows, cols)) < 0.3
                if kind == "monomial":
                    block = monomial_block(rng, cols, p)
                    # the pivot block under a zero and a dependent row
                    m = block if rows == cols else np.concatenate([
                        np.zeros((1, cols), dtype=np.int64),
                        block[:1] * 2 % p, block, m])
                if zero_column and cols:
                    m[:, rng.integers(0, cols)] = 0
                shape = "tall" if len(m) > cols else \
                    "square" if len(m) == cols else "wide"
                seen.add((shape, cols > 0,
                          assert_left_inverse_is_the_dense_solve(m, p)))
    assert seen == {("tall", True, True), ("tall", True, False),
                    ("square", True, True), ("square", True, False),
                    ("wide", True, False), ("tall", False, True),
                    ("square", False, True)}


@pytest.mark.parametrize("p", [2, 3, 101])
def test_left_inverse_is_the_dense_solve_on_every_mu1_level(p):
    """mu_1 at every level of seeded distinguished modules over the corpus,
    and the word-class systems of every corpus algebra, in both gradings."""
    from nkoszul import grmod as gm, verify
    from nkoszul.algebra import yoneda_regrade
    levels = words = 0
    for name in ("one_loop_n3", "two_loop_n3", "commutative_n2",
                 "two_vertex_n3", "two_vertex_n4"):
        e = verify.corpus(name, p)
        params = gm.TorsionParams(e["n"], 1, 0)
        rng = np.random.default_rng(p)
        for _ in range(3):
            x = verify.random_distinguished_module(rng, e, params)
            for s in x.degrees():
                mu = gm.mu1(x, s)[1]
                levels += assert_left_inverse_is_the_dense_solve(mu.dense(),
                                                                 p)
        for alg in (e["ualg"], yoneda_regrade(e["ualg"])):
            n = alg.n
            for d in range(1, 2 * n + 2):
                k, rho = divmod(d, n)
                if rho < 2 and alg._dim(d):
                    cls = alg._word_classes([n] * k + [1] * rho).dense()
                    words += assert_left_inverse_is_the_dense_solve(cls, p)
    assert levels > 30 and words > 20


def test_a_dense_block_over_the_cap_is_refused_before_it_is_built(
        monkeypatch):
    """A block that is not monomial is eliminated beside an identity, whose
    size is checked first; a monomial one is read off its nonzeros at any
    cap."""
    import tracemalloc
    n = 64
    rng = np.random.default_rng(5)
    m = linalg.Sparse.from_dense(rng.integers(0, P, size=(n, n)), P)
    mono = linalg.Sparse.from_dense(monomial_block(rng, 4 * n, P), P)
    monkeypatch.setattr(linalg, "MAX_SLICE_BYTES", n * 2 * n * 8 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(linalg.LinAlgError, match=f"a dense {n}x{2 * n} "):
            linalg.left_inverse(m, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
    got = linalg.left_inverse(mono, P)
    assert linalg.sparse_mul(got, mono, P) == linalg.Sparse.identity(4 * n)


def test_mat_mul_matches_numpy_mod():
    rng = np.random.default_rng(0)
    a, b = rand_matrix(rng, 3, 5), rand_matrix(rng, 5, 2)
    assert np.array_equal(linalg.mat_mul(a, b, P), (a @ b) % P)


def exact_product(a, b, p):
    """a @ b mod p in Python integers, as the reference for mat_mul."""
    a, b = a.astype(object), b.astype(object)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=object)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            out[i, j] = sum(a[i, k] * b[k, j] for k in range(a.shape[1])) % p
    return out


# (p, dtype and chunk length the product runs in, inner dims to try).
# 94906249 is the largest prime with (p-1)**2 < 2**53, so its float64
# chunks have length 1; 94906297 is the next prime, the first on int64.
# 4611686018427388039 is past the int64 range and multiplies Python ints.
MAT_MUL_CASES = [
    (2, np.float64, 2 ** 53 - 2, (0, 1, 7)),
    (3, np.float64, (2 ** 53 - 3) // 4, (0, 1, 7)),
    (101, np.float64, (2 ** 53 - 101) // 100 ** 2, (0, 1, 7)),
    (94906249, np.float64, 1, (0, 1, 2, 7)),
    (94906297, np.int64, 1023, (0, 1, 1023, 1024, 2100)),
    (4611686018427388039, object, None, (0, 1, 7)),
]


@pytest.mark.parametrize("p, dtype, chunk, inners", MAT_MUL_CASES)
def test_mat_mul_is_exact_on_both_sides_of_the_float_bound(p, dtype, chunk,
                                                           inners):
    assert linalg._product_kernel(p) == (dtype, chunk)
    rng = np.random.default_rng(p % 1000)

    def draw(r, c):
        return rng.integers(0, p, size=(r, c), dtype=np.int64)

    for rows, inner, cols in [(0, 3, 2), (2, 3, 0)] + [(3, k, 2)
                                                       for k in inners]:
        # entries p-1 make every partial sum as large as it can be; random
        # entries have no common power of 2 that would hide rounding;
        # worst - p is input mat_mul must reduce first
        worst = np.full((rows, inner), p - 1, dtype=np.int64)
        right = np.full((inner, cols), p - 1, dtype=np.int64)
        for a, b in [(draw(rows, inner), draw(inner, cols)), (worst, right),
                     (worst - p, right)]:
            got = linalg.mat_mul(a, b, p)
            assert got.dtype == np.int64 and got.shape == (rows, cols)
            assert got.min(initial=0) >= 0 and got.max(initial=0) < p
            assert np.array_equal(got, exact_product(a % p, b, p))


# The row-gather path runs while p*(p-1) fits int64 (2, 3, 101 on float64
# BLAS otherwise, 3037000493 on int64); 4611686018427388039 multiplies
# Python integers and never gathers.
GATHER_PRIMES = [2, 3, 101, 3037000493, 4611686018427388039]


def small_product(a, b, p):
    """Whether mat_mul takes its one-int64-product shortcut."""
    return (linalg._product_kernel(p)[0] is not object
            and a.shape[0] * a.shape[1] * b.shape[1] <= linalg._SMALL_PRODUCT
            and a.shape[1] * (p - 1) ** 2 <= linalg._INT64_MAX)


@pytest.mark.parametrize("p", GATHER_PRIMES)
def test_row_gather_equals_the_dense_product(monkeypatch, p):
    taken = []
    gather = linalg._row_gather

    def spy(a, b, q):
        out = gather(a, b, q)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(linalg, "_row_gather", spy)
    # sparse_mul sorts and sums its products only for a left factor with
    # two nonzeros in a row; a monomial one is a row gather at every p
    sorted_sums = []
    from_entries = linalg.Sparse.from_entries
    monkeypatch.setattr(linalg.Sparse, "from_entries", staticmethod(
        lambda *args: sorted_sums.append(args) or from_entries(*args)))
    gathers = linalg._product_kernel(p)[0] is not object
    rng = np.random.default_rng(p % 997)

    def draw(r, c):
        return rng.integers(0, p, size=(r, c), dtype=np.int64)

    def monomial(r, c, values):
        """At most one nonzero per row; every third row is zero."""
        a = np.zeros((r, c), dtype=np.int64)
        if c:
            live = np.arange(r)[np.arange(r) % 3 != 0]
            a[live, rng.integers(0, c, size=live.size)] = values[live]
        return a

    # 70 x 9 times 9 x 8 is past the small-product shortcut
    rows, inner, cols = 70, 9, 8
    assert rows * inner * cols > linalg._SMALL_PRODUCT
    top = np.full(rows, p - 1, dtype=np.int64)
    mono = monomial(rows, inner, rng.integers(1, p, size=rows, dtype=np.int64))
    several = mono.copy()
    several[1] = draw(1, inner)[0]
    several[1, :2] = [1, p - 1]  # two nonzeros at least
    b = draw(inner, cols)
    cases = [  # (a, b, whether a is monomial)
        (np.zeros((0, 5), dtype=np.int64), draw(5, 4), True),
        (np.zeros((2, 0), dtype=np.int64), draw(0, 3), True),
        (monomial(3, 4, top), draw(4, 0), True),
        (np.zeros((rows, inner), dtype=np.int64), b, True),
        (monomial(rows, inner, top), b, True),
        (monomial(rows, inner, np.ones(rows, dtype=np.int64)), b, True),
        (mono, b, True),
        (mono - p, b + p, True),                # unreduced: -p..-1, p..2p-1
        (monomial(rows, inner, top) - p, b - p, True),  # -1, negative rows
        (several, b, False),
        (several - p, b - p, False),
    ]
    for a, rhs, is_monomial in cases:
        before = len(taken)
        got = linalg.mat_mul(a, rhs, p)
        assert got.dtype == np.int64
        assert got.shape == (a.shape[0], rhs.shape[1])
        assert np.array_equal(got, exact_product(a % p, rhs % p, p))
        if gathers and not small_product(a, rhs, p):
            assert taken[before:] == [is_monomial]
        else:
            assert len(taken) == before
        summed = len(sorted_sums)
        prod = linalg.sparse_mul(linalg.Sparse.from_dense(a, p),
                                 linalg.Sparse.from_dense(rhs, p), p)
        assert len(sorted_sums) == summed + (not is_monomial)
        assert np.array_equal(prod.dense(), got)
    # both outcomes were seen, or neither where the path never runs
    assert (any(taken) and not all(taken)) if gathers else not taken


@pytest.mark.parametrize("p", [2, 101, 94906249, 94906297, 3037000493])
def test_small_products_are_exact_up_to_their_bound(p):
    """The one-int64-product shortcut at its largest inner dimension, with
    every term (p-1)**2, and one past it on the chunked path."""
    k = min(linalg._INT64_MAX // (p - 1) ** 2, linalg._SMALL_PRODUCT)
    for inner in (k, k + 1):
        a = np.full((1, inner), p - 1, dtype=np.int64)
        b = np.full((inner, 1), p - 1, dtype=np.int64)
        assert small_product(a, b, p) == (inner == k)
        for x, y in [(a, b), (a - p, b + p)]:
            got = linalg.mat_mul(x, y, p)
            assert got.dtype == np.int64
            assert got.tolist() == [[inner * (p - 1) ** 2 % p]]


def test_mat_mul_and_as_matrix_never_return_their_operand():
    a = np.eye(3, dtype=np.int64)
    for got in (linalg.mat_mul(a, a, P), linalg.mat_mul(a * 0, a, P),
                linalg.as_matrix(a, P), linalg.reduced_copy(a, P)):
        assert not np.shares_memory(got, a)
        got[0, 0] = 7
    assert np.array_equal(a, np.eye(3, dtype=np.int64))
    assert np.array_equal(linalg.as_matrix([[-1, 102]], P), [[100, 1]])


def test_subspace_dimension_formula():
    rng = np.random.default_rng(7)
    for _ in range(25):
        u = Subspace.from_rows(6, rand_matrix(rng, 2, 6), P)
        w = Subspace.from_rows(6, rand_matrix(rng, 3, 6), P)
        assert u.sum(w).dim + u.intersect(w).dim == u.dim + w.dim


def test_subspace_canonical_equality():
    rows = np.array([[1, 2, 3], [0, 1, 1]], dtype=np.int64)
    scaled = (rows * 17) % P
    mixed = np.array([rows[0], (rows[0] + rows[1]) % P], dtype=np.int64)
    s1 = Subspace.from_rows(3, rows, P)
    assert s1 == Subspace.from_rows(3, scaled, P)
    assert s1 == Subspace.from_rows(3, mixed, P)
    assert s1 != Subspace.from_rows(3, rows[:1], P)


def test_subspace_containment():
    rows = np.array([[1, 0, 4], [0, 1, 2]], dtype=np.int64)
    s = Subspace.from_rows(3, rows, P)
    assert s.contains_vector((rows[0] * 9 + rows[1]) % P)
    assert not s.contains_vector(np.array([0, 0, 1], dtype=np.int64))
    assert Subspace.full(3, P).contains(s)
    assert s.contains(Subspace.zero(3, P))


@pytest.mark.parametrize("p", [2, 101])
def test_subspace_contains_matches_the_per_vector_oracle(p):
    """One reduction against the pivots answers as a solve per row does."""
    rng = np.random.default_rng(p)
    seen = set()
    for _ in range(200):
        n = int(rng.integers(0, 9))
        big = Subspace.from_rows(
            n, rng.integers(0, p, size=(int(rng.integers(0, n + 1)), n)), p)
        # a subspace of `big` half the time, a random one otherwise
        if big.dim and rng.integers(0, 2):
            rows = linalg.mat_mul(
                rng.integers(0, p, size=(int(rng.integers(1, 4)), big.dim)),
                big.basis.dense(), p)
        else:
            rows = rng.integers(0, p, size=(int(rng.integers(0, 4)), n))
        small = Subspace.from_rows(n, rows, p)
        want = all(dense_oracle.solve(big.basis.dense().T, row, p)
                   is not None for row in small.basis.dense())
        assert big.contains(small) == want
        seen.add(want)
    assert seen == {True, False}


# -- the panel elimination against the unblocked Gauss-Jordan it replaced --


def reference_rref(m, p):
    """The unblocked Gauss-Jordan rref that the panel elimination replaced:
    one pivot at a time, swapping each pivot row into place."""
    a = linalg.as_matrix(m, p)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        f = a[:, c].copy()
        f[r] = 0
        nzr = np.nonzero(f)[0]
        if nzr.size:
            a[nzr] = (a[nzr] - np.outer(f[nzr], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots, r


def reference_null_space(m, p):
    """Canonical null-space basis as the replaced null_space built it."""
    a = linalg.as_matrix(m, p)
    rows, cols = a.shape
    red, pivots, r = reference_rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = linalg.zeros(len(free), cols)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, c in enumerate(pivots):
            basis[k, c] = (-red[i, fc]) % p
    red, _, r = reference_rref(basis, p)
    return red[:r]


def python_rref(m, p):
    """Gauss-Jordan on Python integers: exact at every modulus."""
    a = [[int(x) % p for x in row] for row in np.asarray(m).tolist()]
    pivots = []
    for c in range(np.shape(m)[1]):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for j, row in enumerate(a):
            if j != r and row[c]:
                f = row[c]
                a[j] = [(x - f * y) % p for x, y in zip(row, a[r])]
        pivots.append(c)
    return a, pivots, len(pivots)


def draw_kernel_input(rng, p, rows, cols, kind):
    """A matrix for the elimination kernel.

    dense: uniform entries; sparse: at most 2 nonzeros per row; tall: a
    rank-deficient stack of sparse combinations of a few sparse rows."""
    if kind == "dense":
        return rng.integers(0, p, size=(rows, cols), dtype=np.int64)
    if kind == "sparse":
        m = np.zeros((rows, cols), dtype=np.int64)
        if cols:
            for i in range(rows):
                at = rng.integers(0, cols, size=2)
                m[i, at] = rng.integers(0, p, size=2)
        return m
    base = draw_kernel_input(rng, p, max(cols // 3, 1), cols, "sparse")
    coeffs = draw_kernel_input(rng, p, rows + cols, base.shape[0], "sparse")
    return (coeffs @ base) % p


@st.composite
def kernel_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5, 101]))
    kind = draw(st.sampled_from(["dense", "sparse", "tall"]))
    rows = draw(st.integers(0, 90))
    # 64 is the panel width: one panel, its edges, and several panels
    cols = draw(st.sampled_from([0, 1, 7, 63, 64, 65, 129, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return p, draw_kernel_input(rng, p, rows, cols, kind)


@settings(max_examples=80, deadline=None)
@given(kernel_inputs())
def test_rref_matches_the_unblocked_reference(case):
    p, m = case
    before = m.copy()
    red, pivots, rank = linalg.rref(m, p)
    assert np.array_equal(m, before)  # the input is left alone
    want, want_pivots, want_rank = reference_rref(m, p)
    assert red.dtype == np.int64 and red.shape == m.shape
    assert np.array_equal(red, want)
    assert pivots == want_pivots and rank == want_rank


@settings(max_examples=60, deadline=None)
@given(kernel_inputs())
def test_null_space_matches_the_reference(case):
    p, m = case
    ns = linalg.null_space(m, p)
    assert np.array_equal(ns.basis.dense(), reference_null_space(m, p))
    assert ns.ambient_dim == m.shape[1]


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_null_space_in_one_elimination_matches_the_two_elimination_oracle(
        p, monkeypatch):
    """The basis read off one elimination of the reversed columns is the
    RREF that a second elimination of the free-columns-as-identity basis
    gave, bit for bit, with its pivots; and `null_space` eliminates once."""
    calls = []
    rref = linalg._rref
    monkeypatch.setattr(linalg, "_rref",
                        lambda a, p: calls.append(a.shape) or rref(a, p))
    rng = np.random.default_rng(p)
    # empty, zero and full-rank (a zero null space) matrices, a wide one
    cases = [np.zeros(shape, dtype=np.int64)
             for shape in ((0, 0), (0, 5), (4, 0), (3, 6))]
    cases += [np.eye(6, dtype=np.int64), draw_kernel_input(rng, p, 5, 9,
                                                           "dense")]
    for _ in range(300):
        kind = ("dense", "sparse", "tall")[int(rng.integers(0, 3))]
        cases.append(draw_kernel_input(rng, p, int(rng.integers(0, 12)),
                                       int(rng.integers(0, 12)), kind))
    for m in cases:
        calls.clear()
        ns = linalg.null_space(m, p)
        assert len(calls) == 1
        want = dense_oracle.null_space(m, p)
        assert ns.basis.shape == want.shape
        assert np.array_equal(ns.basis.dense(), want)
        assert ns.pivots.tolist() == [int(np.flatnonzero(row)[0])
                                      for row in want]


@pytest.mark.parametrize("shape", [(0, 0), (0, 130), (5, 0), (1, 64),
                                   (200, 65), (130, 1)])
def test_rref_edge_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    for kind in ("dense", "sparse", "tall"):
        m = draw_kernel_input(rng, 5, *shape, kind)
        red, pivots, rank = linalg.rref(m, 5)
        want, want_pivots, want_rank = reference_rref(m, 5)
        assert red.shape == m.shape and np.array_equal(red, want)
        assert pivots == want_pivots and rank == want_rank


BIG_P = 4611686018427388039  # prime, and p*(p-1) is far past int64


def test_rref_is_exact_past_the_int64_bound():
    rng = np.random.default_rng(11)
    for rows, cols, kind in [(6, 9, "dense"), (40, 150, "sparse"),
                             (30, 70, "tall"), (90, 66, "dense")]:
        m = draw_kernel_input(rng, BIG_P, rows, cols, kind)
        red, pivots, rank = linalg.rref(m, BIG_P)
        want, want_pivots, want_rank = python_rref(m, BIG_P)
        assert red.dtype == np.int64
        assert red.tolist() == want
        assert pivots == want_pivots and rank == want_rank
        ns = linalg.null_space(m, BIG_P)
        assert ns.dim == cols - rank
        prod = m.astype(object) @ ns.basis.dense().astype(object).T
        assert not (prod % BIG_P).any()


def draw_sparse_input(rng, p, rows, cols, kind):
    """A matrix for the structured eliminations: the kernel inputs, plus
    monomial rows (at most one nonzero each, columns hit several times) and
    chains (rows e_i - e_{i+1} ending in one unit row, which the singleton
    passes settle one row at a time)."""
    m = np.zeros((rows, cols), dtype=np.int64)
    if kind == "monomial":
        if cols:
            for i in range(rows):
                if rng.random() < 0.8:
                    m[i, rng.integers(0, cols)] = rng.integers(1, p)
        return m
    if kind == "chain":
        for i in range(min(rows, cols)):
            m[i, i] = 1
            if i + 1 < min(rows, cols):
                m[i, i + 1] = p - 1
        return m
    return draw_kernel_input(rng, p, rows, cols, kind)


@st.composite
def sparse_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5, 101]))
    kind = draw(st.sampled_from(["dense", "sparse", "tall", "monomial",
                                 "chain"]))
    rows = draw(st.integers(0, 70))
    cols = draw(st.sampled_from([0, 1, 7, 63, 64, 65, 129]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return p, draw_sparse_input(rng, p, rows, cols, kind)


@settings(max_examples=80, deadline=None)
@given(sparse_inputs())
def test_sparse_rref_matches_rref(case):
    p, m = case
    got = linalg.sparse_rref(linalg.Sparse.from_dense(m, p), p)
    red, want_pivots, rank = linalg.rref(m, p)
    assert got.basis.shape == (rank, m.shape[1])
    assert np.array_equal(got.basis.dense(), red[:rank])
    assert got.pivots.tolist() == want_pivots


@settings(max_examples=80, deadline=None)
@given(sparse_inputs())
def test_sparse_left_kernel_matches_the_null_space(case):
    p, m = case
    ker = linalg.sparse_left_kernel(linalg.Sparse.from_dense(m, p), p)
    want = linalg.null_space(m.T, p)
    assert ker.basis.shape == want.basis.shape
    assert ker == want
    assert np.array_equal(ker.pivots, want.pivots)


@pytest.mark.parametrize("p", [2, 3, 101, BIG_P])
def test_sparse_products_and_sums_match_the_dense_ones(p):
    rng = np.random.default_rng(p % 1000)
    for kind_a, kind_b in [("monomial", "sparse"), ("sparse", "monomial"),
                           ("sparse", "dense"), ("dense", "sparse"),
                           ("monomial", "monomial")]:
        a = draw_sparse_input(rng, p, 40, 30, kind_a)
        b = draw_sparse_input(rng, p, 30, 50, kind_b)
        sa, sb = linalg.Sparse.from_dense(a, p), linalg.Sparse.from_dense(b, p)
        prod = linalg.sparse_mul(sa, sb, p)
        assert prod == linalg.Sparse.from_dense(linalg.mat_mul(a, b, p), p)
        comb = linalg.sparse_combine([3, p - 1], [sa, sa], p)
        want = (a.astype(object) * 2 % p).astype(np.int64)
        assert np.array_equal(comb.dense(), want)
        got = linalg.sparse_rref(sa, p)
        red, want_pivots, rank = linalg.rref(a, p)
        assert np.array_equal(got.basis.dense(), red[:rank])
        assert got.pivots.tolist() == want_pivots
        assert linalg.sparse_left_kernel(sa, p) == linalg.null_space(a.T, p)
    with pytest.raises(linalg.LinAlgError):
        linalg.sparse_mul(sa, sa, p)
    # an empty product of a factor too large to densify
    big = linalg.Sparse.from_entries((1 << 16, 1 << 16), [5], [7], [1], p)
    assert linalg.sparse_mul(big, linalg.Sparse.zero(1 << 16, 0), p) \
        == linalg.Sparse.zero(1 << 16, 0)


def test_sparse_entries_gathers_and_stacks():
    p = 7
    s = linalg.Sparse.from_entries((3, 4), [2, 0, 2, 0, 1], [1, 3, 1, 0, 2],
                                   [5, 1, 4, 7, 0], p)
    # (2, 1) sums 5 + 4 = 2 mod 7; 7 and 0 vanish
    assert np.array_equal(s.dense(), [[0, 0, 0, 1], [0, 0, 0, 0],
                                      [0, 2, 0, 0]])
    assert s.nnz == 2 and s.size == 12 and s.any()
    assert np.array_equal(s.take_rows([2, 2, 1, 0]).dense(),
                          s.dense()[[2, 2, 1, 0]])
    assert np.array_equal(s.take_cols([1, 3]).dense(), s.dense()[:, [1, 3]])
    both = linalg.Sparse.vstack([s, linalg.Sparse.zero(2, 4), s], 4)
    assert np.array_equal(both.dense(),
                          np.concatenate([s.dense(), np.zeros((2, 4)),
                                          s.dense()]))
    assert not s.vals.flags.writeable


@pytest.mark.parametrize("p", [2, 101])
def test_hstack_matches_the_dense_concatenation(p):
    """`Sparse.hstack` is the matrices side by side, in the canonical
    row-sorted form, with empty and zero-width parts among them."""
    rng = np.random.default_rng(p)
    for rows in (0, 1, 5):
        widths = [0, 3, 0, 1, 4, 2]
        dense = [rng.integers(0, p, (rows, w)) * (rng.random((rows, w)) < 0.4)
                 for w in widths]
        dense[3] = np.zeros((rows, 1), dtype=np.int64)  # a part with no entry
        parts = [linalg.Sparse.from_dense(a, p) for a in dense]
        want = linalg.Sparse.from_dense(np.concatenate(dense, axis=1), p)
        assert linalg.Sparse.hstack(parts, rows) == want
        assert linalg.Sparse.hstack(parts[1:2], rows) == parts[1]
        for none in ([], parts[:1], [parts[0], parts[2]]):
            assert linalg.Sparse.hstack(none, rows) == \
                linalg.Sparse.zero(rows, 0)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_reshape_matches_numpy(m):
    """`Sparse.reshape` reads the entries in row-major order as numpy's
    reshape of the dense matrix does, into every shape of the same size
    (zero-width ones among them), and refuses any other size."""
    sp = linalg.Sparse.from_dense(m, P)
    size = m.size
    shapes = ([(r, size // r) for r in range(1, size + 1) if size % r == 0]
              if size else [(0, 0), (0, 5), (4, 0), (1, 0), (0, 1)])
    for rows, cols in shapes:
        got = sp.reshape(rows, cols)
        assert got == linalg.Sparse.from_dense(m.reshape(rows, cols), P)
        assert got.shape == (rows, cols)
    with pytest.raises(linalg.LinAlgError, match="cannot reshape"):
        sp.reshape(size + 1, 1)


def test_densifying_an_over_cap_sparse_refuses_before_allocating():
    import tracemalloc
    n = 1 << 16  # 2**32 entries, 32 GiB dense
    at = np.arange(4, dtype=np.int64)
    big = linalg.Sparse((n, n), at, at, np.ones(4, dtype=np.int64))
    tracemalloc.start()
    try:
        with pytest.raises(linalg.LinAlgError, match="over the .* cap"):
            big.dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_slices_match_the_reference_construction():
    """The ideal slices of commutative_n2 and of its dual to degree 10 equal
    the ones the replaced per-path shift and unblocked rref built."""
    import os
    from nkoszul.algebra import build_dual, build_slices
    from nkoszul.docio import load_document
    from nkoszul.quiver import Path, enumerate_paths

    def reference_ideals(pres, top):
        q, p = pres.quiver, pres.p
        out, prev, prev_paths = [], None, []
        for k in range(top + 1):
            paths = enumerate_paths(q, k)
            pidx = {pa: i for i, pa in enumerate(paths)}
            blocks = []
            if prev is not None and prev.shape[0]:
                for a in range(q.arrow_count):
                    for left in (True, False):
                        out_ = linalg.zeros(prev.shape[0], len(paths))
                        for j, pa in enumerate(prev_paths):
                            if left and pa.source == q.arrow_target(a):
                                new = Path(q.arrow_source(a), (a,) + pa.arrows)
                            elif (not left
                                  and pa.target_in(q) == q.arrow_source(a)):
                                new = Path(pa.source, pa.arrows + (a,))
                            else:
                                continue
                            c = pidx[new]
                            out_[:, c] = (out_[:, c] + prev[:, j]) % p
                        blocks.append(out_)
            blocks += [r.vector(q, p).reshape(1, -1)
                       for r in pres.relations if r.degree == k]
            stacked = (np.concatenate(blocks) if blocks
                       else linalg.zeros(0, len(paths)))
            red, pivots, rank = reference_rref(stacked, p)
            out.append((red[:rank], pivots))
            prev, prev_paths = red[:rank], paths
        return out

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "inputs", "commutative_n2.json")
    lam = build_slices(load_document(path)["presentation"], 10)
    dual = build_dual(lam, 10)
    for alg in (lam, dual):
        top = min(10, alg.vanishing_degree() or 10)
        for k, (ideal, pivots) in enumerate(reference_ideals(alg.pres, top)):
            assert np.array_equal(alg.ideal_rref(k), ideal)
            assert [int(np.flatnonzero(row)[0])
                    for row in alg.ideal_rref(k)] == pivots
    assert dual.vanishing_degree() is None and dual.dim(10) == 11
