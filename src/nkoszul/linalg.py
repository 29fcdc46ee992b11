"""Exact linear algebra over a prime field F_p.

Everything downstream reduces to the handful of primitives in this module:
reduced row echelon form, null spaces, linear solves and canonical
subspaces.  A matrix is a numpy int64 array with entries in [0, p), or a
`Sparse` held by its nonzeros.  The reduction is Gauss-Jordan with
lowest-index pivoting, so the RREF is unique and serves as a canonical form.

A subspace has one form, :class:`Subspace`: its canonical basis, the rows of
its RREF stored as a `Sparse`, and the pivot columns that the elimination
found.  Each producer makes it from one elimination: `Subspace.from_rows`
and `sparse_rref` (row spaces), `null_space`, `left_null_space` and
`sparse_left_kernel` (kernels).  A row x lies in a subspace exactly when
x = x[pivots] @ basis, which is how `Subspace.contains` decides.  Dense
arrays are used only inside an elimination, and where a reader multiplies
a basis through `Sparse.dense`, which refuses before it allocates more
than MAX_SLICE_BYTES.

`rref` eliminates the columns in panels of 64, and it is the kernel of every
elimination.  While a panel is eliminated only the rows with a nonzero in it
change, and a row operation reaches right of the panel only at the nonzeros
of the pivot row, so the cost follows the nonzeros rather than rows x cols:
the hom systems built here have one or two nonzeros per row and stay that
sparse when reduced.
Its row operations x - f*y are exact in int64 while p*(p-1) <= 2**63 - 1
and run on Python integers above that.  Products (`mat_mul`) run as float64
BLAS products while p*(p-1) < 2**53, which keeps them exact, and fall back
to int64 and then Python integers above that.  While p*(p-1) <= 2**63 - 1
two shortcuts come first, both exact in int64: a product of at most
_SMALL_PRODUCT multiply-adds is one int64 product (numpy's per-call cost,
not arithmetic, rules there), and a left operand with at most one nonzero
per row makes the product a scaled row gather, each entry one product of
two residues.  Operands already in [0, p) are not reduced again.

A `Sparse` keeps row-sorted (row, column, value) int64 arrays, reduced mod
p, and a shape.  Over a monomial algebra the free-module actions, cover
maps and inclusions of a resolution have a handful of nonzeros per row, and
they are built, multiplied (`sparse_mul`, a row gather per nonzero of the
left factor) and reduced (`sparse_rref`, `sparse_left_kernel`) in this
form.  The sparse eliminations are structured (LaMacchia & Odlyzko, CRYPTO
'90): a row with one nonzero, or a column with one nonzero, settles a pivot
or a kernel coordinate at once, and only what is left is compacted to a
dense block for `rref`.
"""
from __future__ import annotations

import numpy as np


class LinAlgError(ValueError):
    pass


# The largest dense array a slice or a densified sparse matrix may take.
# Larger ones are refused before they are allocated.
MAX_SLICE_BYTES = 1 << 28


def as_matrix(m, p: int) -> np.ndarray:
    """An int64 matrix with entries in [0, p), never sharing memory with m."""
    a = reduced_copy(m, p)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise LinAlgError("expected a matrix")
    return a


def _reduced(a: np.ndarray, p: int) -> np.ndarray:
    """The int64 array a itself when its entries lie in [0, p), else a % p.

    One maximum decides (a negative entry is huge as uint64), and it costs
    less than `% p`.
    """
    if not a.size or a.view(np.uint64).max() < p:
        return a
    return a % p


def reduced_copy(m, p: int) -> np.ndarray:
    """An int64 copy of m with entries in [0, p)."""
    a = np.asarray(m, dtype=np.int64)
    r = _reduced(a, p)
    return r.copy() if r is a else r


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    """The identity, refused above the cap before it is allocated."""
    _check_dense(n, n)
    out = zeros(n, n)
    np.fill_diagonal(out, 1)
    return out


# Every integer of magnitude up to these is exact in the dtype.
_FLOAT64_EXACT = 2 ** 53 - 1
_INT64_MAX = int(np.iinfo(np.int64).max)

# Up to this many multiply-adds, a product costs numpy's per-call overhead,
# not arithmetic: it runs as one int64 product with no casts.
_SMALL_PRODUCT = 4096


def _product_kernel(p: int):
    """(dtype, chunk): the cheapest dtype in which mat_mul stays exact mod p.

    The product accumulates k inner terms at a time onto a sum already
    reduced below p, so a chunk of length k stays exact while
    (p-1) + k*(p-1)**2 is within the dtype's exact range.  The chunk is the
    longest such k; None means Python integers, which need no chunking.
    """
    q = (p - 1) ** 2
    for dtype, limit in ((np.float64, _FLOAT64_EXACT), (np.int64, _INT64_MAX)):
        chunk = (limit - (p - 1)) // q
        if chunk >= 1:
            return dtype, chunk
    return object, None


def mat_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p as a new int64 matrix with entries in [0, p).

    While p*(p-1) <= 2**63 - 1 two shortcuts come first:
    - a product of at most _SMALL_PRODUCT multiply-adds whose inner
      dimension k keeps k*(p-1)**2 within int64 is one int64 product of
      the reduced operands, exact by that bound;
    - when every row of a has at most one nonzero, the product is a
      scaled row gather,
      out[r] = a[r, c] * b[c] mod p, exact in int64 since
      (p-1)**2 < p*(p-1); the nonzeros of a alone choose this path.
    Otherwise the operands are multiplied in chunks of the inner
    dimension, reducing the sum mod p after each chunk (as in
    FFLAS-FFPACK), so every intermediate is an exact integer:
    - float64, a BLAS product, while p*(p-1) < 2**53 (primes up to
      94906249); a chunk has (2**53 - p) // (p-1)**2 terms, about 9e11 at
      p = 101 and 1 at p = 94906249;
    - int64 while p*(p-1) <= 2**63 - 1 (primes up to 3037000493);
    - Python integers above that.
    An operand is reduced mod p only when it has an entry outside [0, p).
    """
    dtype, chunk = _product_kernel(p)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    rows, inner = a.shape
    if inner != b.shape[0]:
        raise LinAlgError(f"mat_mul of shapes {a.shape} and {b.shape}")
    if dtype is not object and b.ndim == 2:
        if (rows * inner * b.shape[1] <= _SMALL_PRODUCT
                and inner * (p - 1) ** 2 <= _INT64_MAX):
            out = (a % p) @ (b % p)
            out %= p
            return out
        a = _reduced(a, p)
        out = _row_gather(a, b, p)
        if out is not None:
            return out
    # cast one operand at a time: at most one int64 temporary (`% p`) is
    # ever alive next to the cast copies
    a = _reduced(a, p).astype(dtype, copy=False)
    b = _reduced(b, p).astype(dtype, copy=False)
    chunk = chunk or max(inner, 1)
    out = a[:, :chunk] @ b[:chunk]
    out %= p
    for k in range(chunk, inner, chunk):
        out += a[:, k:k + chunk] @ b[k:k + chunk]
        out %= p
    return out.astype(np.int64, copy=False)


def _row_gather(a: np.ndarray, b: np.ndarray, p: int):
    """a @ b mod p for a reduced a with at most one nonzero per row, else
    None.  Needs p*(p-1) <= 2**63 - 1."""
    rows = a.shape[0]
    nz = a != 0  # a bool scan is several times faster than one on int64
    if np.count_nonzero(nz) > rows:
        return None
    # row-major: the nonzeros of one row are adjacent
    r, c = np.divmod(np.flatnonzero(nz), max(a.shape[1], 1))
    if r.size > 1 and not (r[1:] != r[:-1]).all():
        return None
    out = np.zeros((rows, b.shape[1]), dtype=np.int64)
    if r.size:
        g = _reduced(b[c], p)  # a gather is a new array, ours to scale
        v = a[r, c]
        if (v != 1).any():
            g *= v[:, None]
            g %= p
        out[r] = g
    return out


# Width of the column panels rref eliminates one at a time.
_PANEL = 64


def rref(m, p: int):
    """Reduced row echelon form.

    Returns (reduced, pivots, rank).  The RREF over a field is unique, which
    makes it usable as a canonical form.

    Panel-blocked, swap-free Gauss-Jordan whose cost follows the nonzeros.
    The columns are taken in panels of _PANEL.  Only the rows with a nonzero
    in a panel can change while it is eliminated, so their panel columns are
    gathered once into a small block and eliminated there; each row
    operation reaches right of the panel only at the nonzero columns of the
    pivot row.  Pivot rows are not swapped into place during elimination but
    are put in order at the end, in place.  Every value is x - f*y with
    residues x, f, y, exact in int64 while p*(p-1) <= 2**63 - 1 (the bound
    at which mat_mul leaves int64 too); above it the reduction runs on
    Python integers.
    """
    return _rref(as_matrix(m, p), p)  # a new array (`% p` copies)


def _rref(a: np.ndarray, p: int):
    """`rref` of a 2-D int64 array that the caller has just built and hands
    over: it is reduced mod p and eliminated in place, never copied first."""
    a = _reduced(a, p)
    if p * (p - 1) > _INT64_MAX:
        a = a.astype(object)
    rows, cols = a.shape
    pivots: list[int] = []
    order: list[int] = []  # the row of `a` holding each pivot
    held = np.zeros(rows, dtype=bool)  # rows of `a` holding a pivot
    for c0 in range(0, cols, _PANEL):
        nfree = rows - len(order)
        if not nfree:
            break
        c1 = c0 + _PANEL
        sel = a[:, c0:c1].any(axis=1).nonzero()[0]
        if not sel.size:
            continue
        # all rows meet the panel: eliminate in `a` itself, gather nothing
        blk = a[:, c0:c1] if sel.size == rows else a[sel, c0:c1]
        free = ~held[sel]
        start = len(order)
        for k in range(blk.shape[1]):
            col = blk[:, k]
            nz = col.nonzero()[0]
            if not nz.size:
                continue
            cand = nz[free[nz]]
            if not cand.size:
                continue
            i = cand[0]
            free[i] = False
            row = blk[i, k:]
            inv = pow(int(row[0]), -1, p)
            if inv != 1:
                row *= inv
                row %= p
            if nz.size > 1:
                others = nz[nz != i]
                f = col[others, None]
                blk[others, k:] = (blk[others, k:] - f * row) % p
            if c1 < cols:
                # the pivot row right of the panel, at its nonzeros only
                tail = a[sel[i], c1:]
                tail_nz = (tail != 0).nonzero()[0]  # faster than on int64
                if tail_nz.size:
                    vals = tail[tail_nz]
                    if inv != 1:
                        vals = vals * inv % p
                        tail[tail_nz] = vals
                    if nz.size > 1:
                        at = np.ix_(sel[others], tail_nz + c1)
                        a[at] = (a[at] - f * vals) % p
            pivots.append(c0 + k)
            order.append(int(sel[i]))
            nfree -= 1
            if not nfree:
                break
        if len(order) > start and sel.size < rows:
            a[sel, c0:c1] = blk
        if c1 < cols:
            held[order[start:]] = True
    # rows holding no pivot are zero by now
    _move_rows_to_front(a, order)
    return a.astype(np.int64, copy=False), pivots, len(order)


def _move_rows_to_front(a: np.ndarray, order: list) -> None:
    """Make row i of `a` the row that was at order[i], in place.

    The other rows go below in their old order.  The permutation is applied
    cycle by cycle, so each row is copied once and only one row is buffered.
    """
    if order == list(range(len(order))):
        return
    placed = np.zeros(a.shape[0], dtype=bool)
    placed[order] = True
    perm = order + (~placed).nonzero()[0].tolist()  # row i <- row perm[i]
    done = [False] * len(perm)
    for start, src in enumerate(perm):
        if done[start] or src == start:
            continue
        saved = a[start].copy()
        i = start
        while perm[i] != start:
            done[i] = True
            a[i] = a[perm[i]]
            i = perm[i]
        done[i] = True
        a[i] = saved


def rank(m, p: int) -> int:
    return rref(m, p)[2]


def solve(a, b, p: int):
    """Some x with a @ x = b (mod p), or None if inconsistent.

    Free variables are set to 0 under canonical pivoting, so the choice is
    deterministic.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    bv = np.asarray(b, dtype=np.int64).reshape(-1, 1)
    if bv.shape[0] != a.shape[0]:
        raise LinAlgError("incompatible shapes in solve")
    n = a.shape[1]
    red, pivots, r = _rref(np.concatenate([a, bv], axis=1), p)
    if r and pivots[-1] == n:
        return None
    x = np.zeros(n, dtype=np.int64)
    x[pivots] = red[:r, n]
    return x


def solve_matrix(a, b, p: int):
    """Some X with a @ X = b for matrix right-hand side, or None.  The
    system [a | b] is refused above the cap before it is built."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    b = np.atleast_2d(np.asarray(b, dtype=np.int64))
    n = a.shape[1]
    _check_dense(a.shape[0], n + b.shape[1])
    red, pivots, r = _rref(np.concatenate([a, b], axis=1), p)
    if r and pivots[-1] >= n:
        return None
    x = zeros(n, b.shape[1])
    x[pivots] = red[:r, n:]
    return x


def null_space(m, p: int) -> "Subspace":
    """{x : m @ x = 0} as a Subspace of F_p^cols."""
    return _null_space(as_matrix(m, p), p)


def _null_space(a: np.ndarray, p: int) -> "Subspace":
    """`null_space` of an int64 matrix handed over as to `_rref`, from one
    elimination of the columns in reverse order.  Its basis with the free
    columns as the identity, read with the columns back in order, is the
    RREF: a vector's first nonzero is the 1 at its free column, which no
    other vector touches, and its other entries are at pivots right of it.
    """
    cols = a.shape[1]
    red, pivots, r = _rref(a[:, ::-1], p)
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0][::-1]  # reversed, so ascending columns
    # row k: the 1 at free column k, then minus the pivot rows' entries in
    # that column, the last pivot row first, so again ascending columns
    rows = zeros(free.size, r + 1)
    rows[:, 0] = 1
    rows[:, 1:] = (-red[:r][::-1, free].T) % p
    k, j = rows.nonzero()  # row by row, the 1 first
    lead = j == 0
    at = np.empty(k.size, dtype=np.intp)
    at[lead] = cols - 1 - free
    at[~lead] = cols - 1 - np.asarray(pivots, dtype=np.intp)[r - j[~lead]]
    return Subspace(cols, p, Sparse((free.size, cols), k, at, rows[k, j]),
                    cols - 1 - free)


def left_null_space(m, p: int) -> "Subspace":
    """{x : x @ m = 0}, of row vectors, as a Subspace."""
    return null_space(as_matrix(m, p).T, p)


def _row_space(a: np.ndarray, p: int) -> "Subspace":
    """The row space of a 2-D int64 array handed over as to `_rref`."""
    red, pivots, r = _rref(a, p)
    return Subspace(a.shape[1], p, Sparse.from_dense(red[:r], p),
                    np.asarray(pivots, dtype=np.intp))


def inverse(m, p: int):
    """Inverse of a square matrix in either form, or None if singular.

    A monomial matrix, one nonzero in each row and in each column (a
    permutation matrix scaled row by row, as the envelope maps of cofree
    models are), is inverted from its nonzeros, as a Sparse: entry
    (r, c) = v becomes entry (c, r) = 1/v.  Any other is densified, under
    the cap, and eliminated."""
    a = m if isinstance(m, Sparse) else as_matrix(m, p)
    n = a.shape[0]
    if a.shape[1] != n:
        raise LinAlgError("inverse of non-square matrix")
    r, c = nonzero(a)
    if not (r.size == n and (np.bincount(r, minlength=n) == 1).all()
            and (np.bincount(c, minlength=n) == 1).all()):
        return solve_matrix(dense(a), eye(n), p)
    vals = a.vals if isinstance(a, Sparse) else a[r, c]
    at = np.empty_like(c)  # the nonzero in each column
    at[c] = np.arange(n)
    return Sparse(a.shape, np.arange(n), r[at], np.array(
        [pow(v, -1, p) for v in vals[at].tolist()], dtype=np.int64))


class Subspace:
    """A subspace of F_p^ambient_dim, held by its canonical basis: `basis`,
    the rows of its RREF as a `Sparse`, and `pivots`, the column of each
    row's leading 1, ascending, as an elimination found them.  A row x lies
    in the subspace exactly when x = x[pivots] @ basis.  Equal subspaces
    have equal bases."""

    __slots__ = ("ambient_dim", "p", "basis", "pivots")

    def __init__(self, ambient_dim: int, p: int, basis: "Sparse",
                 pivots: np.ndarray):
        self.ambient_dim, self.p = ambient_dim, p
        self.basis, self.pivots = basis, pivots

    @staticmethod
    def from_rows(ambient_dim: int, rows, p: int) -> "Subspace":
        """The span of rows, an array or a Sparse, of ambient_dim
        columns."""
        if isinstance(rows, Sparse):
            out = sparse_rref(rows, p)
        else:
            out = _row_space(as_matrix(rows, p) if np.size(rows)
                             else zeros(0, ambient_dim), p)
        if out.ambient_dim != ambient_dim:
            raise LinAlgError("ambient dimension mismatch")
        return out

    @staticmethod
    def zero(ambient_dim: int, p: int) -> "Subspace":
        return Subspace(ambient_dim, p, Sparse.zero(0, ambient_dim),
                        np.zeros(0, dtype=np.intp))

    @staticmethod
    def full(ambient_dim: int, p: int) -> "Subspace":
        return _units(np.arange(ambient_dim), ambient_dim, p)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def embed(self, at: np.ndarray, ambient_dim: int) -> "Subspace":
        """This subspace with its coordinate j put at coordinate at[j] of
        F_p^ambient_dim, for an increasing `at`."""
        b = self.basis
        return Subspace(ambient_dim, self.p, Sparse(
            (self.dim, ambient_dim), b.rows, at[b.cols], b.vals),
            at[self.pivots])

    def _check_ambient(self, other: "Subspace") -> None:
        if other.ambient_dim != self.ambient_dim:
            raise LinAlgError("ambient dimension mismatch")

    # No caller in src/; it stays because perfbench/spans.py wraps it.
    def contains_vector(self, v) -> bool:
        return self.contains(Subspace.from_rows(
            self.ambient_dim, np.reshape(v, (1, -1)), self.p))

    def contains(self, other: "Subspace") -> bool:
        """Whether other lies in this subspace: whether each row x of
        other's basis equals x[pivots] @ basis, one product for all."""
        self._check_ambient(other)
        return sparse_mul(other.basis.take_cols(self.pivots), self.basis,
                          self.p) == other.basis

    # No caller in src/; it stays because perfbench/spans.py wraps it.
    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return sparse_rref(Sparse.vstack([self.basis, other.basis],
                                         self.ambient_dim), self.p)

    # No caller in src/; it stays because perfbench/spans.py wraps it.
    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim, self.p)
        # x = u @ A = v @ B;  solve [A^T | -B^T] (u,v)^T = 0
        ker = _null_space(np.concatenate(
            [self.basis.dense().T, (-other.basis.dense().T) % self.p],
            axis=1), self.p)
        coef = ker.basis.take_cols(np.arange(self.dim))
        return sparse_rref(sparse_mul(coef, self.basis, self.p), self.p)

    def __eq__(self, other) -> bool:
        if type(other) is not Subspace:
            return NotImplemented
        return self.p == other.p and self.basis == other.basis


# -- sparse matrices ----------------------------------------------------------


def _check_dense(rows: int, cols: int) -> None:
    need = rows * cols * 8  # int64
    if need > MAX_SLICE_BYTES:
        raise LinAlgError(
            f"a dense {rows}x{cols} matrix needs {need / 2**30:.2f} GiB, "
            f"over the {MAX_SLICE_BYTES / 2**30:g} GiB cap")


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a * b mod p entrywise, for residues a and b."""
    if (p - 1) ** 2 <= _INT64_MAX:
        out = a * b
        out %= p
        return out
    return (a.astype(object) * b.astype(object) % p).astype(np.int64)


def _spans(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The positions start[i], ..., start[i] + count[i] - 1, for each i in
    turn."""
    total = int(count.sum())
    skip = start - (np.cumsum(count) - count)
    return np.repeat(skip, count) + np.arange(total)


class Sparse:
    """A matrix over F_p held by its nonzeros.

    `shape` is a tuple of two ints.  `rows`, `cols` and `vals` are int64
    arrays with one entry per nonzero, sorted by row and within a row by
    column, with no position twice and every value in [1, p).  The
    constructor takes arrays in that form as they are and makes them
    read-only, so a Sparse is shared and never copied.  Two Sparse matrices
    are equal when their shapes and entries are.
    """

    __slots__ = ("shape", "rows", "cols", "vals")

    def __init__(self, shape, rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray):
        rows.setflags(write=False)
        cols.setflags(write=False)
        vals.setflags(write=False)
        self.shape = shape
        self.rows, self.cols, self.vals = rows, cols, vals

    @staticmethod
    def zero(rows: int, cols: int) -> "Sparse":
        e = np.zeros(0, dtype=np.int64)
        return Sparse((rows, cols), e, e, e)

    @staticmethod
    def identity(n: int) -> "Sparse":
        d = np.arange(n, dtype=np.int64)
        return Sparse((n, n), d, d, np.ones(n, dtype=np.int64))

    @staticmethod
    def from_dense(a, p: int) -> "Sparse":
        a = _reduced(np.asarray(a, dtype=np.int64), p)
        if a.ndim != 2:
            raise LinAlgError("expected a matrix")
        r, c = np.nonzero(a)  # row by row
        return Sparse(a.shape, r, c, a[r, c])

    @staticmethod
    def from_entries(shape, rows, cols, vals, p: int) -> "Sparse":
        """The matrix with the given entries, in any order; the values at
        one position are summed mod p."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = _reduced(np.asarray(vals, dtype=np.int64), p)
        key = rows * max(shape[1], 1) + cols
        if key.size > 1 and not (key[1:] > key[:-1]).all():
            order = np.argsort(key, kind="stable")
            key, vals = key[order], vals[order]
            first = np.empty(key.size, dtype=bool)
            first[0] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
            if not first.all():
                starts = first.nonzero()[0]
                # each sum has fewer than key.size terms below p
                if key.size * (p - 1) <= _INT64_MAX:
                    vals = np.add.reduceat(vals, starts) % p
                else:
                    vals = (np.add.reduceat(vals.astype(object), starts)
                            % p).astype(np.int64)
                key = key[starts]
        nz = vals != 0
        if not nz.all():
            key, vals = key[nz], vals[nz]
        r, c = np.divmod(key, max(shape[1], 1))
        return Sparse(shape, r, c, vals)

    @staticmethod
    def vstack(parts, cols: int) -> "Sparse":
        """The matrices one below the other."""
        if len(parts) == 1:
            return parts[0]
        heights = [m.shape[0] for m in parts]
        offs = np.cumsum([0] + heights[:-1])
        rows = [m.rows + off for m, off in zip(parts, offs)]
        cat = (lambda xs: np.concatenate(xs) if xs
               else np.zeros(0, dtype=np.int64))
        return Sparse((sum(heights), cols), cat(rows),
                      cat([m.cols for m in parts]),
                      cat([m.vals for m in parts]))

    @staticmethod
    def hstack(parts, rows: int) -> "Sparse":
        """The matrices side by side: their transposes stacked, transposed
        (`transpose` sorts stably, so by column within a row)."""
        return Sparse.vstack([m.transpose() for m in parts], rows).transpose()

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def nnz(self) -> int:
        return self.vals.size

    def any(self) -> bool:
        return bool(self.vals.size)

    def dense(self) -> np.ndarray:
        """The matrix as a new int64 array; refused above the cap before
        anything is allocated."""
        _check_dense(*self.shape)
        out = zeros(*self.shape)
        out[self.rows, self.cols] = self.vals
        return out

    def reduced(self, p: int) -> "Sparse":
        if not self.vals.size or self.vals.max() < p:
            return self
        return Sparse.from_entries(self.shape, self.rows, self.cols,
                                   self.vals, p)

    def transpose(self) -> "Sparse":
        """The transpose: the entries sorted by column, stably, so by row
        within a column."""
        order = np.argsort(self.cols, kind="stable")
        return Sparse(self.shape[::-1], self.cols[order], self.rows[order],
                      self.vals[order])

    def row_starts(self) -> np.ndarray:
        """Row i holds the entries row_starts[i] up to row_starts[i + 1]."""
        out = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.rows, minlength=self.shape[0]),
                  out=out[1:])
        return out

    def take_rows(self, idx) -> "Sparse":
        """Rows idx, in that order, as a len(idx)-row matrix."""
        idx = np.asarray(idx, dtype=np.intp)
        ptr = self.row_starts()
        count = ptr[idx + 1] - ptr[idx]
        at = _spans(ptr[idx], count)
        return Sparse((idx.size, self.shape[1]),
                      np.repeat(np.arange(idx.size), count), self.cols[at],
                      self.vals[at])

    def take_cols(self, idx) -> "Sparse":
        """Columns idx, which must increase, as a len(idx)-column matrix."""
        idx = np.asarray(idx, dtype=np.intp)
        at = np.full(self.shape[1], -1, dtype=np.int64)
        at[idx] = np.arange(idx.size)
        new = at[self.cols]
        kept = new >= 0
        return Sparse((self.shape[0], idx.size), self.rows[kept], new[kept],
                      self.vals[kept])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Sparse) and self.shape == other.shape
                and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols)
                and np.array_equal(self.vals, other.vals))

    __hash__ = None


def nonzero(m):
    """(rows, cols) of the nonzeros of a matrix in either form, row by
    row."""
    return (m.rows, m.cols) if isinstance(m, Sparse) else np.nonzero(m)


def dense(m) -> np.ndarray:
    """A matrix in either form as an array: an array as it is, a Sparse
    densified under the cap."""
    return m.dense() if isinstance(m, Sparse) else m


def as_sparse(m, p: int) -> Sparse:
    """A matrix in either form as a Sparse."""
    return m if isinstance(m, Sparse) else Sparse.from_dense(m, p)


def sparse_mul(a, b, p: int) -> Sparse:
    """a @ b mod p as a Sparse, for factors in either form.

    Each nonzero a[r, k] meets the nonzeros of row k of b, and the products
    at one position are summed.  When every row of a has at most one
    nonzero (a cover map, an inclusion) the products are already in order,
    with no position twice.  As in `mat_mul`, a product of at most
    _SMALL_PRODUCT multiply-adds, of factors of at most as many entries, is
    one int64 product of the dense factors (numpy's per-call cost, not
    arithmetic, rules there; `_small_dense`), and two arrays are multiplied
    by `mat_mul`; only the product's nonzeros are kept.
    """
    if a.shape[1] != b.shape[0]:
        raise LinAlgError(f"mat_mul of shapes {a.shape} and {b.shape}")
    shape = (a.shape[0], b.shape[1])
    if (shape[0] * a.shape[1] * shape[1] <= _SMALL_PRODUCT
            and max(a.size, b.size) <= _SMALL_PRODUCT
            and a.shape[1] * (p - 1) ** 2 <= _INT64_MAX):
        out = _small_dense(a, p) @ _small_dense(b, p)
        out %= p
        r, c = np.nonzero(out)  # reduced already, row by row
        return Sparse(shape, r, c, out[r, c])
    if not (isinstance(a, Sparse) or isinstance(b, Sparse)):
        return Sparse.from_dense(mat_mul(a, b, p), p)
    a, b = as_sparse(a, p), as_sparse(b, p)
    ptr = b.row_starts()
    count = ptr[a.cols + 1] - ptr[a.cols]
    at = _spans(ptr[a.cols], count)
    rows = np.repeat(a.rows, count)
    vals = _mul_mod(np.repeat(a.vals, count), b.vals[at], p)
    if a.rows.size < 2 or (a.rows[1:] != a.rows[:-1]).all():
        nz = vals != 0  # only a composite modulus has zero divisors
        return Sparse(shape, rows[nz], b.cols[at][nz], vals[nz])
    return Sparse.from_entries(shape, rows, b.cols[at], vals, p)


def _small_dense(m, p: int) -> np.ndarray:
    """A factor of `sparse_mul`'s small-product path as a reduced int64
    array: a Sparse, whose values lie in [1, p) and which has at most
    _SMALL_PRODUCT entries, is scattered with no cap check."""
    if isinstance(m, Sparse):
        out = np.zeros(m.shape, dtype=np.int64)
        out[m.rows, m.cols] = m.vals
        return out
    return _reduced(np.asarray(m, dtype=np.int64), p)


def sparse_combine(coefs, mats, p: int) -> Sparse:
    """sum_k coefs[k] * mats[k] mod p, for matrices of one shape: one matrix
    with coefficient 1 is itself."""
    if len(mats) == 1 and int(coefs[0]) % p == 1:
        return mats[0]
    vals = [_mul_mod(m.vals, np.full(m.nnz, int(c) % p, dtype=np.int64), p)
            for c, m in zip(coefs, mats)]
    return Sparse.from_entries(mats[0].shape,
                               np.concatenate([m.rows for m in mats]),
                               np.concatenate([m.cols for m in mats]),
                               np.concatenate(vals), p)


def disjoint_sum(parts, ambient_dim: int, p: int) -> Subspace:
    """The sum of Subspaces whose bases share no column: their rows in the
    order of their pivots are the RREF, with no elimination."""
    parts = [s for s in parts if s.dim]
    if len(parts) < 2:
        return parts[0] if parts else Subspace.zero(ambient_dim, p)
    offs = np.cumsum([0] + [s.dim for s in parts[:-1]])
    rows = np.concatenate([s.basis.rows + off for s, off in zip(parts, offs)])
    pivots = np.concatenate([s.pivots for s in parts])
    by_pivot = np.argsort(pivots, kind="stable")
    rank = np.empty(pivots.size, dtype=np.intp)
    rank[by_pivot] = np.arange(pivots.size)
    rows = rank[rows]
    order = np.argsort(rows, kind="stable")  # a row stays sorted
    return Subspace(ambient_dim, p, Sparse(
        (pivots.size, ambient_dim), rows[order],
        np.concatenate([s.basis.cols for s in parts])[order],
        np.concatenate([s.basis.vals for s in parts])[order]),
        pivots[by_pivot])


def _units(cols: np.ndarray, ambient_dim: int, p: int) -> Subspace:
    """The span of the unit vectors of the increasing columns `cols`."""
    return Subspace(ambient_dim, p, Sparse(
        (cols.size, ambient_dim), np.arange(cols.size), cols,
        np.ones(cols.size, dtype=np.int64)), cols)


def _compact(rows, cs, vals, nrows: int, ncols: int, transpose: bool):
    """The block of the given entries on the rows and columns they touch,
    as a new dense array (transposed on request), with those rows and
    columns."""
    used_r = np.zeros(nrows, dtype=bool)
    used_r[rows] = True
    used_c = np.zeros(ncols, dtype=bool)
    used_c[cs] = True
    at_r = np.cumsum(used_r) - 1
    at_c = np.cumsum(used_c) - 1
    keep_r, keep_c = used_r.nonzero()[0], used_c.nonzero()[0]
    if transpose:
        _check_dense(keep_c.size, keep_r.size)
        block = zeros(keep_c.size, keep_r.size)
        block[at_c[cs], at_r[rows]] = vals
    else:
        _check_dense(keep_r.size, keep_c.size)
        block = zeros(keep_r.size, keep_c.size)
        block[at_r[rows], at_c[cs]] = vals
    return block, keep_r, keep_c


def sparse_rref(m: Sparse, p: int) -> Subspace:
    """The row space of m.

    A row with one nonzero puts the unit vector of its column in the space:
    that column is a pivot, its basis row is the unit vector, and it can be
    cleared from every other row.  This repeats while such rows turn up;
    the rest, compacted to the rows and columns it touches, goes to `rref`.
    """
    r, c, v = m.rows, m.cols, m.vals
    unit = np.zeros(m.shape[1], dtype=bool)
    while r.size:
        single = np.bincount(r, minlength=m.shape[0])[r] == 1
        if not single.any():
            break
        unit[c[single]] = True
        kept = ~unit[c]
        r, c, v = r[kept], c[kept], v[kept]
    units = _units(unit.nonzero()[0], m.shape[1], p)
    if not r.size:
        return units
    block, _, keep_c = _compact(r, c, v, m.shape[0], m.shape[1], False)
    rest = _row_space(block, p).embed(keep_c, m.shape[1])
    return disjoint_sum([units, rest], m.shape[1], p)


def sparse_left_kernel(m: Sparse, p: int) -> Subspace:
    """{x : x @ m = 0}, of row vectors.

    A zero row of m gives its unit vector.  A column with one nonzero
    forces x to vanish at that row, which then leaves the system; this
    repeats while such columns turn up.  The rest, compacted to the rows
    and columns it touches, goes to `null_space`.
    """
    nrows = m.shape[0]
    r, c, v = m.rows, m.cols, m.vals
    zero = np.ones(nrows, dtype=bool)
    zero[r] = False
    while r.size:
        single = np.bincount(c, minlength=m.shape[1])[c] == 1
        if not single.any():
            break
        forced = np.zeros(nrows, dtype=bool)
        forced[r[single]] = True
        kept = ~forced[r]
        r, c, v = r[kept], c[kept], v[kept]
    units = _units(zero.nonzero()[0], nrows, p)
    if not r.size:
        return units
    block, keep_r, _ = _compact(r, c, v, nrows, m.shape[1], True)
    return disjoint_sum([units, _null_space(block, p).embed(keep_r, nrows)],
                        nrows, p)
