"""Exact linear algebra over a prime field F_p.

Everything downstream reduces to the handful of primitives in this module:
reduced row echelon form, null spaces, linear solves and canonical subspace
arithmetic.  Matrices are numpy int64 arrays with entries in [0, p); the
reduction is Gauss-Jordan with lowest-index pivoting, so every derived basis
is deterministic and two equal subspaces have bit-identical bases.

`rref` eliminates the columns in panels of 64.  While a panel is eliminated
only the rows with a nonzero in it change, and a row operation reaches right
of the panel only at the nonzeros of the pivot row, so the cost follows the
nonzeros rather than rows x cols: the hom systems built here have one or
two nonzeros per row and stay that sparse when reduced.
Its row operations x - f*y are exact in int64 while p*(p-1) <= 2**63 - 1
and run on Python integers above that.  Products (`mat_mul`) run as float64
BLAS products while p*(p-1) < 2**53, which keeps them exact, and fall back
to int64 and then Python integers above that.  While p*(p-1) <= 2**63 - 1
two shortcuts come first, both exact in int64: a product of at most
_SMALL_PRODUCT multiply-adds is one int64 product (numpy's per-call cost,
not arithmetic, rules there), and a left operand with at most one nonzero
per row (a cover map, an inclusion) makes the product a scaled row gather,
each entry one product of two residues.  Operands already in [0, p) are
not reduced again.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class LinAlgError(ValueError):
    pass


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
    return np.eye(n, dtype=np.int64)


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
    - when every row of a has at most one nonzero (cover maps,
      inclusions), the product is a scaled row gather,
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
    a = as_matrix(m, p)  # a new array (`% p` copies), ours to modify
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
    # rref reduces the stack mod p in its own copy
    red, pivots, r = rref(np.concatenate([a, bv], axis=1), p)
    if r and pivots[-1] == n:
        return None
    x = np.zeros(n, dtype=np.int64)
    x[pivots] = red[:r, n]
    return x


def solve_matrix(a, b, p: int):
    """Some X with a @ X = b for matrix right-hand side, or None."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    b = np.atleast_2d(np.asarray(b, dtype=np.int64))
    n = a.shape[1]
    # rref reduces the stack mod p in its own copy
    red, pivots, r = rref(np.concatenate([a, b], axis=1), p)
    if r and pivots[-1] >= n:
        return None
    x = zeros(n, b.shape[1])
    x[pivots] = red[:r, n:]
    return x


def null_space(m, p: int) -> "Subspace":
    """Canonical basis of {x : m @ x = 0} as a Subspace of F_p^cols."""
    red, pivots, r = rref(m, p)
    cols = red.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    # free variable k set to 1, the pivot variables solved for
    basis = zeros(free.size, cols)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-red[:r, free].T) % p
    return Subspace.from_rows(cols, basis, p)


def left_null_space(m, p: int) -> "Subspace":
    """Canonical basis of {x : x @ m = 0} (row vectors)."""
    return null_space(as_matrix(m, p).T, p)


def inverse(m, p: int):
    """Inverse of a square matrix, or None if singular."""
    a = as_matrix(m, p)
    n = a.shape[0]
    if a.shape[1] != n:
        raise LinAlgError("inverse of non-square matrix")
    x = solve_matrix(a, eye(n), p)
    return x


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^ambient_dim in canonical RREF row form."""

    ambient_dim: int
    p: int
    basis: np.ndarray = field(compare=False)

    @staticmethod
    def from_rows(ambient_dim: int, rows, p: int) -> "Subspace":
        red, _, r = rref(rows if np.size(rows) else zeros(0, ambient_dim), p)
        if red.shape[1] != ambient_dim:
            raise LinAlgError("ambient dimension mismatch")
        return Subspace(ambient_dim, p, red[:r])

    @staticmethod
    def zero(ambient_dim: int, p: int) -> "Subspace":
        return Subspace(ambient_dim, p, zeros(0, ambient_dim))

    @staticmethod
    def full(ambient_dim: int, p: int) -> "Subspace":
        return Subspace(ambient_dim, p, eye(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def pivots(self) -> np.ndarray:
        """The leading column of each basis row."""
        if not self.basis.size:
            return np.zeros(self.dim, dtype=np.intp)
        return (self.basis != 0).argmax(axis=1)

    def contains_vector(self, v) -> bool:
        v = np.asarray(v, dtype=np.int64).reshape(-1) % self.p
        if v.shape[0] != self.ambient_dim:
            raise LinAlgError("ambient dimension mismatch")
        return solve(self.basis.T, v, self.p) is not None

    def contains(self, other: "Subspace") -> bool:
        """Whether every row of other's basis lies in this subspace.

        The basis is in RREF, so a row x lies in the span exactly when x
        equals x[pivots] @ basis: one product for all the rows at once.
        """
        if other.ambient_dim != self.ambient_dim:
            raise LinAlgError("ambient dimension mismatch")
        rows = other.basis % self.p
        return bool(np.array_equal(
            mat_mul(rows[:, self.pivots], self.basis, self.p), rows))

    def sum(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise LinAlgError("ambient dimension mismatch")
        stacked = np.concatenate([self.basis, other.basis], axis=0)
        return Subspace.from_rows(self.ambient_dim, stacked, self.p)

    def intersect(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise LinAlgError("ambient dimension mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim, self.p)
        # x = u @ A = v @ B;  solve [A^T | -B^T] (u,v)^T = 0
        stacked = np.concatenate([self.basis.T, (-other.basis.T) % self.p], axis=1)
        ker = null_space(stacked, self.p)
        rows = mat_mul(ker.basis[:, : self.dim], self.basis, self.p)
        return Subspace.from_rows(self.ambient_dim, rows, self.p)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.p == other.p
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.p, self.basis.tobytes()))
