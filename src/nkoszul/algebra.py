"""Graded components of path-algebra quotients and their n-homogeneous duals.

A :class:`PathAlgebra` holds, degree by degree, a canonical quotient basis of
the degree-k component A_k (the non-pivot paths of the RREF of the ideal
slice I_k) and the classes of the pivot paths in it, the tail.  The one map
from paths to classes is the normal form NF_k (``normal_form``): row i is
the class of path i, so NF_k is the identity at the non-pivot paths and the
tail at the pivot paths.  Degree k is built from degree k - 1 as a small
cokernel in A_{k-1} (x) V; neither I_k nor NF_k is stored as a matrix over
the paths.  Reduction, the multiplication tensors, the (r, s, t) ordering
of the orthogonal and every path class read downstream are rows of NF_k.  On
top sit the orthogonal of the degree-n relation space (computed two ways),
the dual algebra, the support-restricted algebra on U = nZ u (nZ+1), and
the regraded Yoneda-type algebra.

All algebra flavours expose the same duck-typed surface used by the module
layer: ``p``, ``nvert``, ``dim(d)``, ``basis_pairs(d)``, ``mult(d1, d2)``,
``generators()``, ``element_words(d)`` and ``relation_words()``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import MAX_SLICE_BYTES, Subspace, zeros
from .quiver import (
    Path,
    PathSpaceElement,
    Quiver,
    enumerate_paths,
    opposite_path,
    path_index,
)


class AlgebraError(ValueError):
    pass


MAX_PATHS_PER_DEGREE = 200_000
# MAX_SLICE_BYTES (from linalg) is the largest dense array a slice may
# allocate: a normal-form tail, an NF_d or a cokernel system.  Larger ones
# are refused before they are allocated.


def _check_size(rows: int, cols: int, what: str, d: int) -> None:
    need = rows * cols * np.dtype(np.int64).itemsize
    if need > MAX_SLICE_BYTES:
        raise AlgebraError(
            f"{what} at degree {d} needs at least {rows}x{cols} entries "
            f"({need / 2**30:.2f} GiB), over the "
            f"{MAX_SLICE_BYTES / 2**30:g} GiB cap")


def _slots(n: int, pivots, nonpivots) -> np.ndarray:
    """Per item: its basis position if it is a non-pivot, else ~(its tail
    row)."""
    slot = np.empty(n, dtype=np.intp)
    slot[nonpivots] = np.arange(len(nonpivots))
    slot[pivots] = ~np.arange(len(pivots))
    return slot


def _times_classes(coef, slot, tail, m: int, p: int) -> np.ndarray:
    """coef @ C mod p, where row k of C is the class of an item in a basis
    of size m: basis element slot[k] if slot[k] >= 0, else tail row
    ~slot[k].  Neither C nor its identity rows are built."""
    basic = slot >= 0
    out = zeros(coef.shape[0], m)
    out[:, slot[basic]] = coef[:, basic]
    if not basic.all():
        prod = linalg.mat_mul(coef[:, ~basic], tail[~slot[~basic]], p)
        out -= p - prod  # x + y mod p inside int64: x - (p - y) is in (-p, p)
        out %= p
    return out


@dataclass(frozen=True)
class Presentation:
    """A quiver with homogeneous relations of degree >= n over F_p."""

    quiver: Quiver
    n: int
    relations: tuple
    p: int = 101
    degree_cap: int | None = None

    @staticmethod
    def make(quiver, n, relations, p=101, degree_cap=None) -> "Presentation":
        """Check the degrees and store each relation r, reduced mod p, as its
        parts e_v r e_w: one per (source, target) of its paths, in the order
        they are first seen.  The ideal is unchanged, since r generates the
        same two-sided ideal as its parts, and every stored relation is
        parallel."""
        if n < 2:
            raise AlgebraError("homogeneity degree must be >= 2")
        rels = []
        for r in relations:
            if r.degree < n:
                raise AlgebraError(
                    f"relation of degree {r.degree} < n = {n}")
            parts: dict = {}
            for pa, c in r.reduced(p).coeffs.items():
                parts.setdefault((pa.source, pa.target_in(quiver)), {})[pa] = c
            rels += [PathSpaceElement(r.degree, part)
                     for part in parts.values()]
        return Presentation(quiver, n, tuple(rels), p, degree_cap)

    def opposite(self) -> "Presentation":
        q = self.quiver
        return Presentation(
            q.opposite(), self.n,
            tuple(r.opposite(q) for r in self.relations),
            self.p, self.degree_cap)


@dataclass(frozen=True)
class Generator:
    """A distinguished algebra basis element used for module actions."""

    degree: int       # grading degree in the owning algebra
    basis_index: int  # index into the basis of that degree component
    source: int
    target: int
    name: str


class PathAlgebra:
    """Graded slices of KQ/I within a growable degree window."""

    def __init__(self, pres: Presentation):
        self.pres = pres
        self.p = pres.p
        self.quiver = pres.quiver
        self.nvert = pres.quiver.vertex_count
        self._paths: list = []          # per degree: list of Path
        self._pidx: list = []           # per degree: Path -> column index
        self._pivots: list = []
        self._nonpivots: list = []
        self._tail: list = []           # per degree: NF_d[pivots], rank x dim
        self._vanished_from: int | None = None
        self._nf: dict = {}             # per degree: NF_d, built on first use
        self._mult_cache: dict = {}
        self._gens = None
        self._rels_by_degree: dict = {}
        for r in pres.relations:
            self._rels_by_degree.setdefault(r.degree, []).append(r)
        self.ensure_degree(1)

    # -- construction -------------------------------------------------------

    def _computed_to(self) -> int:
        return len(self._paths) - 1

    def ensure_degree(self, k: int) -> None:
        while self._computed_to() < k:
            self._extend_one()

    def _extend_one(self) -> None:
        k = self._computed_to() + 1
        if self._vanished_from is not None and k >= self._vanished_from:
            # quotient is generated in degree 1: once a slice dies the rest do
            self._paths.append([])
            self._pidx.append({})
            self._tail.append(zeros(0, 0))
            self._pivots.append([])
            self._nonpivots.append([])
            return
        paths = enumerate_paths(self.quiver, k)
        if len(paths) > MAX_PATHS_PER_DEGREE:
            raise AlgebraError(
                f"path explosion at degree {k}: {len(paths)} paths")
        if k <= 1:
            # every relation has degree >= 2, so I_0 = I_1 = 0
            pivots, nonpiv = [], list(range(len(paths)))
            tail = zeros(0, len(paths))
        else:
            pivots, nonpiv, tail = self._cokernel(k)
        self._paths.append(list(paths))
        self._pidx.append({q: i for i, q in enumerate(paths)})
        self._tail.append(tail)
        self._pivots.append(pivots)
        self._nonpivots.append(nonpiv)
        if len(nonpiv) == 0:
            self._vanished_from = k
        cap = self.pres.degree_cap
        if cap is not None and k > cap and len(nonpiv) > 0:
            raise AlgebraError(
                f"degree cap {cap} violated: component at degree {k} is nonzero")

    def _cokernel(self, d: int):
        """(pivots, non-pivots, tail) of degree d >= 2, built from degree d-1.

        I_d = I_{d-1} V + sum_j V^{d-j} R_j, so KQ_d / I_{d-1} V is
        A_{d-1} (x) V: its basis, the columns, are the paths b.a with a
        non-pivot prefix b, and a path P.a with a pivot prefix has the class
        tail_{d-1}[P] put under its last arrow a.  A_d is the cokernel of
        the rows u.r, r a relation of degree j and u a basis path of A_{d-j}
        (r itself when j = d); one rref of that small system picks the
        pivots among the columns.  Every relation is parallel (see
        `Presentation.make`), so the class of a pivot P holds only paths
        ending where P does, and each row of I_{d-1} V is led by a path P.a.
        Every P.a is a pivot: the paths of its class follow it in path
        order.  Paths of degree d are ordered by (prefix, last arrow), so
        the path w.a has index off[w] + arank[a].
        """
        q, p = self.quiver, self.p
        piv0 = np.asarray(self._pivots[d - 1], dtype=np.intp)
        np0 = np.asarray(self._nonpivots[d - 1], dtype=np.intp)
        tail0 = self._tail[d - 1]
        slot0 = _slots(len(self._paths[d - 1]), piv0, np0)
        src = np.array([q.arrow_source(a) for a in range(q.arrow_count)],
                       dtype=np.intp)
        outdeg = np.bincount(src, minlength=self.nvert)
        # the rank of each arrow among the arrows out of its source
        arank = np.array([np.count_nonzero(src[:a] == src[a])
                          for a in range(src.size)], dtype=np.intp)
        tgt = np.array([pa.target_in(q) for pa in self._paths[d - 1]],
                       dtype=np.intp)
        off = np.cumsum(outdeg[tgt]) - outdeg[tgt]
        # the columns: column col_off[j] + arank[a] is the path np0[j].a;
        # cols[a] holds the j whose path ends where a starts, and their
        # columns under a
        width = outdeg[tgt[np0]]
        col_off = np.cumsum(width) - width
        col_path = (np.repeat(off[np0] - col_off, width)
                    + np.arange(width.sum()))
        ncols = col_path.size
        cols = []
        for a in range(src.size):
            on = (tgt[np0] == src[a]).nonzero()[0]
            cols.append((on, col_off[on] + arank[a]))
        nrows, terms = self._relation_rows(d)
        # the pivots P.a with a pivot prefix P, arrow by arrow
        prefixes = [(tgt[piv0] == src[a]).nonzero()[0]
                    for a in range(src.size)]
        # the tail has a row per P.a and a column per column no row kills
        _check_size(sum(i.size for i in prefixes),
                    ncols - nrows, "normal-form tail", d)
        _check_size(nrows, ncols, "cokernel system", d)
        system = zeros(nrows, ncols)
        for a, cell in terms.items():
            (rows, pre), coef = zip(*cell), list(cell.values())
            # np.unique would import numpy.ma, 2 MB and 40 ms on first use
            pre_u = sorted(set(pre))
            at = np.searchsorted(pre_u, pre)
            pre = np.array(pre_u, dtype=np.intp)
            cmat = zeros(nrows, pre.size)
            cmat[rows, at] = coef
            on, at_cols = cols[a]
            system[:nrows, at_cols] = _times_classes(
                cmat, slot0[pre], tail0, np0.size, p)[:, on]
        red, pcols, rk = (linalg.rref(system, p) if system.size
                          else (system, [], 0))
        del system  # rref reduced a copy
        is_piv = np.zeros(ncols, dtype=bool)
        is_piv[pcols] = True
        npcols = (~is_piv).nonzero()[0]
        m = npcols.size
        slot = _slots(ncols, pcols, npcols)
        # the classes of the pivot columns: minus their rows of red
        col_tail = red[:rk, npcols]
        del red
        np.negative(col_tail, out=col_tail)
        col_tail %= p
        # the pivots: the paths P.a, then the pivot columns
        pivots = np.concatenate(
            [off[piv0[i]] + arank[a] for a, i in enumerate(prefixes)]
            + [col_path[pcols]])
        order = np.argsort(pivots, kind="stable")
        dest = np.empty_like(order)  # the tail row of each pivot
        dest[order] = np.arange(order.size)
        _check_size(pivots.size, m, "normal-form tail", d)
        tail = np.empty((pivots.size, m), dtype=np.int64)
        row = 0
        for (on, at_cols), i in zip(cols, prefixes):
            tail[dest[row:row + i.size]] = _times_classes(
                tail0[np.ix_(i, on)], slot[at_cols], col_tail, m, p)
            row += i.size
        tail[dest[row:]] = col_tail
        return (pivots[order].tolist(), col_path[npcols].tolist(), tail)

    def _relation_rows(self, d: int):
        """The rows u.r of degree d: r a relation of degree j <= d, u a basis
        path of A_{d-j} (r itself when j = d).  Returns their number and,
        per last arrow a, the map (row, prefix) -> coefficient of the paths
        prefix.a of the rows."""
        q, p, pidx = self.quiver, self.p, self._pidx[d - 1]
        terms: dict = {}
        nrows = 0
        for j, rels in sorted(self._rels_by_degree.items()):
            if j > d:
                break
            us = [None] if j == d else self.basis_paths(d - j)
            for r in rels:
                for u in us:
                    for w, c in r.coeffs.items():
                        if u is None:
                            pa = w
                        elif u.target_in(q) == w.source:
                            pa = Path(u.source, u.arrows + w.arrows)
                        else:
                            continue
                        key = (nrows, pidx[Path(pa.source, pa.arrows[:-1])])
                        cell = terms.setdefault(pa.arrows[-1], {})
                        cell[key] = (cell.get(key, 0) + c) % p
                    nrows += 1
        return nrows, terms

    # -- basic queries ------------------------------------------------------

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        if self._vanished_from is not None and d >= self._vanished_from:
            return 0
        self.ensure_degree(d)
        return len(self._nonpivots[d])

    def basis_paths(self, d: int):
        """Coset representatives: the non-pivot paths at degree d."""
        if self.dim(d) == 0:
            return []
        return [self._paths[d][i] for i in self._nonpivots[d]]

    def basis_pairs(self, d: int):
        q = self.quiver
        return [(pa.source, pa.target_in(q)) for pa in self.basis_paths(d)]

    def ideal_rref(self, d: int) -> np.ndarray:
        """The RREF of I_d over the paths of degree d, rebuilt from the
        tail: the identity at the pivots and minus the tail at the
        non-pivots (I_d = KQ_d once the quotient has vanished)."""
        npaths = self.path_count(d)
        if self._vanished_from is not None and d >= self._vanished_from:
            return linalg.eye(npaths)
        piv = self._pivots[d]
        _check_size(len(piv), npaths, "ideal matrix", d)
        red = zeros(len(piv), npaths)
        red[np.arange(len(piv)), piv] = 1
        red[:, self._nonpivots[d]] = -self._tail[d] % self.p
        return red

    def ideal_subspace(self, d: int) -> Subspace:
        return Subspace(self.path_count(d), self.p, self.ideal_rref(d))

    def path_count(self, d: int) -> int:
        self.ensure_degree(d)
        if self._vanished_from is not None and d >= self._vanished_from:
            return len(enumerate_paths(self.quiver, d))
        return len(self._paths[d])

    def is_finite_dimensional(self, probe: int | None = None) -> bool:
        """True if some computed slice vanishes (all higher then vanish)."""
        if self._vanished_from is not None:
            return True
        if probe is not None:
            self.ensure_degree(probe)
        return self._vanished_from is not None

    def vanishing_degree(self) -> int | None:
        return self._vanished_from

    # -- reduction and multiplication ---------------------------------------

    def normal_form(self, d: int) -> np.ndarray:
        """NF_d: row i is the class of path i of KQ_d in the basis of A_d.

        NF[nonpiv] = I and NF[piv] = tail, the only rows the slice build
        keeps.  Built from them on first use, for reduce_vector and the
        ordered orthogonal; path_classes gathers its rows without it."""
        nf = self._nf.get(d)
        if nf is None:
            npaths = self.path_count(d)
            nf = (self._classes(d, np.arange(npaths)) if self.dim(d)
                  else zeros(npaths, 0))
            self._nf[d] = nf
        return nf

    def _classes(self, d: int, idx) -> np.ndarray:
        """NF_d[idx], gathered from the tail without building NF_d."""
        slot = _slots(len(self._paths[d]), self._pivots[d],
                      self._nonpivots[d])[idx]
        _check_size(slot.size, self.dim(d), "normal form", d)
        out = zeros(slot.size, self.dim(d))
        basic = slot >= 0
        out[basic.nonzero()[0], slot[basic]] = 1
        out[~basic] = self._tail[d][~slot[~basic]]
        return out

    def path_classes(self, d: int, paths) -> np.ndarray:
        """The classes in A_d of the given paths of length d, one per row."""
        if self.dim(d) == 0:
            return zeros(len(paths), 0)
        pidx = self._pidx[d]
        return self._classes(d, np.array([pidx[pa] for pa in paths],
                                         dtype=np.intp))

    def reduce_vector(self, v: np.ndarray, d: int) -> np.ndarray:
        """KQ_d coordinates -> quotient coordinates in the canonical basis."""
        if self.dim(d) == 0:
            return np.zeros(0, dtype=np.int64)
        return linalg.mat_mul(np.reshape(v, (1, -1)), self.normal_form(d),
                              self.p)[0]

    def reduce_path_element(self, el: PathSpaceElement) -> np.ndarray:
        v = el.vector(self.quiver, self.p)
        return self.reduce_vector(v, el.degree)

    def mult(self, d1: int, d2: int) -> np.ndarray:
        """Tensor T with basis_i(d1) * basis_j(d2) = sum_k T[i,j,k] basis_k."""
        key = (d1, d2)
        if key in self._mult_cache:
            return self._mult_cache[key]
        m1, m2 = self.dim(d1), self.dim(d2)
        m3 = self.dim(d1 + d2)
        t = np.zeros((m1, m2, m3), dtype=np.int64)
        if m1 and m2 and m3:
            q = self.quiver
            pairs = [(i, j, pa.compose(pb, q))
                     for i, pa in enumerate(self.basis_paths(d1))
                     for j, pb in enumerate(self.basis_paths(d2))
                     if pa.target_in(q) == pb.source]
            if pairs:
                i, j, concat = zip(*pairs)
                t[i, j] = self.path_classes(d1 + d2, concat)
        self._mult_cache[key] = t
        return t

    def left_mult_matrix(self, d_el: int, vec: np.ndarray, d: int) -> np.ndarray:
        """Matrix of x -> el * x from A_d to A_{d_el + d} (rows = A_d basis)."""
        t = self.mult(d_el, d)
        k, m1, m2 = t.shape
        return linalg.mat_mul(np.reshape(vec, (1, k)), t.reshape(k, m1 * m2),
                              self.p).reshape(m1, m2)

    def right_mult_matrix(self, d: int, d_el: int, vec: np.ndarray) -> np.ndarray:
        """Matrix of x -> x * el from A_d to A_{d + d_el} (rows = A_d basis)."""
        t = self.mult(d, d_el)
        m1, k, m2 = t.shape
        return linalg.mat_mul(np.reshape(vec, (1, k)),
                              t.transpose(1, 0, 2).reshape(k, m1 * m2),
                              self.p).reshape(m1, m2)

    # -- generator / word interface -----------------------------------------

    def generators(self):
        """Degree-1 generators: the arrows (Lambda_1 = KQ_1 always), as a
        tuple built once."""
        if self._gens is None:
            q = self.quiver
            self._gens = tuple(
                Generator(1, i, q.arrow_source(i), q.arrow_target(i),
                          q.arrow_name(i)) for i in range(q.arrow_count))
        return self._gens

    def element_words(self, d: int):
        """Express each basis element of A_d as generator words."""
        if d < 1:
            raise AlgebraError("element_words needs degree >= 1")
        return [[(tuple(pa.arrows), 1)] for pa in self.basis_paths(d)]

    def relation_words(self):
        """Vanishing generator-word combinations implied by the relations."""
        out = []
        for r in self.pres.relations:
            words = [(tuple(pa.arrows), c % self.p) for pa, c in r.coeffs.items()]
            out.append((r.degree, words))
        # any arrow word representing an ideal element of higher slices is a
        # consequence of these via two-sided closure, so this list suffices
        return out


def build_slices(pres: Presentation, window_top: int) -> PathAlgebra:
    """Materialize the graded slices of KQ/I through the given degree."""
    if window_top < pres.n:
        raise AlgebraError("window must reach the homogeneity degree")
    alg = PathAlgebra(pres)
    alg.ensure_degree(window_top)
    return alg


# -- orthogonal of the degree-n relation slice ------------------------------


def opposite_permutation(q: Quiver, k: int) -> np.ndarray:
    """sigma with paths(Q, k)[i] ^o = paths(Q^op, k)[sigma[i]]."""
    qop = q.opposite()
    idx_op = path_index(qop, k)
    paths = enumerate_paths(q, k)
    return np.array([idx_op[opposite_path(pa, q)] for pa in paths],
                    dtype=np.int64)


def compute_orthogonal(alg: PathAlgebra) -> Subspace:
    """{u in KQ_n^op : <u, I_n> = 0} via the kernel of the pairing matrix."""
    pres = alg.pres
    n = pres.n
    q = pres.quiver
    alg.ensure_degree(n)
    ideal_rows = alg.ideal_rref(n)
    paths = enumerate_paths(q, n)
    npaths = len(paths)
    sigma = opposite_permutation(q, n)
    # KQ_0-valued pairing: one constraint row per (ideal basis vector, vertex)
    rows = []
    for v in ideal_rows:
        per_vertex: dict = {}
        for i in range(npaths):
            if v[i]:
                w = paths[i].target_in(q)
                per_vertex.setdefault(w, np.zeros(npaths, dtype=np.int64))
                per_vertex[w][sigma[i]] = v[i]
        rows.extend(per_vertex.values())
    if not rows:
        return Subspace.full(npaths, alg.p)
    mat = np.stack(rows, axis=0)
    return linalg.null_space(mat, alg.p)


@dataclass
class DualData:
    """The ordered-basis construction of the orthogonal.

    Q_n is split into blocks (r, s, t): paths whose classes form a basis of
    the degree-n slice of the quotient, the remaining paths outside the
    ideal, and the paths inside the ideal.  lambda_[i, j] solves
    p_{s_j} - sum_i lambda_[i, j] p_{r_i} in I_n, and
    h_i = p_{r_i}^o + sum_j lambda_[i, j] p_{s_j}^o.
    """

    r_block: list
    s_block: list
    t_block: list
    lam: np.ndarray
    h_basis: list            # PathSpaceElement over Q^op
    orthogonal: Subspace     # span{h_i} in KQ_n^op coordinates


def compute_orthogonal_via_ordering(alg: PathAlgebra) -> DualData:
    """The orthogonal basis from the explicit (r, s, t) path ordering.

    One RREF of NF_n^T: with lowest-index pivoting its pivot columns are the
    greedy basis of path classes in path order (the r block), and the column
    of an s path holds its coordinates lambda in the r classes."""
    pres = alg.pres
    n, p, q = pres.n, alg.p, pres.quiver
    paths = enumerate_paths(q, n)
    nf = alg.normal_form(n)
    reduced, r_block, r = linalg.rref(nf.T, p)
    live = nf.any(axis=1)  # the paths outside the ideal
    t_block = (~live).nonzero()[0].tolist()
    live[r_block] = False
    s_block = live.nonzero()[0].tolist()
    lam = reduced[:r, s_block]
    h_basis = [PathSpaceElement(n, {opposite_path(paths[j], q): int(c)
                                    for j, c in zip([i] + s_block, [1, *row])})
               for i, row in zip(r_block, lam)]
    orth = Subspace.from_rows(
        len(paths), [h.vector(q.opposite(), p) for h in h_basis], p)
    return DualData(r_block, s_block, t_block, lam, h_basis, orth)


def build_dual(alg: PathAlgebra, window_top: int) -> PathAlgebra:
    """Slices of the dual algebra KQ^op / <I_n-orthogonal>."""
    data = compute_orthogonal_via_ordering(alg)
    pres = alg.pres
    dual_pres = Presentation.make(
        pres.quiver.opposite(), pres.n, data.h_basis, pres.p)
    return build_slices(dual_pres, max(window_top, pres.n))


# -- support restriction and regrading --------------------------------------


def in_support_u(d: int, n: int) -> bool:
    return d % n in (0, 1)


class USupportAlgebra:
    """The dual algebra with components outside U = nZ u (nZ+1) killed.

    Products landing outside U are zero; the algebra is generated by the
    degree-0, degree-1 and degree-n components.
    """

    def __init__(self, dual: PathAlgebra, n: int):
        self.dual = dual
        self.n = n
        self.p = dual.p
        self.nvert = dual.nvert
        self.quiver = dual.quiver
        self._word_cache: dict = {}
        self._relation_cache = None
        self._gens = None

    def dim(self, d: int) -> int:
        if d < 0 or not in_support_u(d, self.n):
            return 0
        return self.dual.dim(d)

    def basis_pairs(self, d: int):
        if self.dim(d) == 0:
            return []
        return self.dual.basis_pairs(d)

    def basis_paths(self, d: int):
        if self.dim(d) == 0:
            return []
        return self.dual.basis_paths(d)

    def mult(self, d1: int, d2: int) -> np.ndarray:
        m1, m2, m3 = self.dim(d1), self.dim(d2), self.dim(d1 + d2)
        if not (in_support_u(d1, self.n) and in_support_u(d2, self.n)
                and in_support_u(d1 + d2, self.n)):
            return np.zeros((m1, m2, m3), dtype=np.int64)
        return self.dual.mult(d1, d2)

    def generators(self):
        """The dual's generators, then one per degree-n basis element; a
        tuple built once."""
        if self._gens is None:
            q = self.quiver
            paths = self.dual.basis_paths(self.n)
            self._gens = tuple(self.dual.generators()) + tuple(
                Generator(self.n, i, u, v, paths[i].name_in(q))
                for i, (u, v) in enumerate(self.dual.basis_pairs(self.n)))
        return self._gens

    def generator_vector(self, g: Generator) -> np.ndarray:
        v = np.zeros(self.dim(g.degree), dtype=np.int64)
        v[g.basis_index] = 1
        return v

    def _word_product(self, word) -> tuple[int, np.ndarray]:
        gens = self.generators()
        deg = 0
        vec = None
        for gi in word:
            g = gens[gi]
            if vec is None:
                deg, vec = g.degree, self.generator_vector(g)
            else:
                t = self.mult(deg, g.degree)[:, g.basis_index]
                vec = linalg.mat_mul(vec.reshape(1, -1), t, self.p)[0]
                deg += g.degree
        return deg, vec

    def element_words(self, d: int):
        """Express the basis of the degree-d component in generator words.

        Canonical shapes: degree kn uses k degree-n letters; degree kn+1
        appends one degree-1 letter.
        """
        if d in self._word_cache:
            return self._word_cache[d]
        if d < 1 or self.dim(d) == 0:
            out = [[] for _ in range(self.dim(d))]
            self._word_cache[d] = out
            return out
        gens = self.generators()
        one_idx = [i for i, g in enumerate(gens) if g.degree == 1]
        n_idx = [i for i, g in enumerate(gens) if g.degree == self.n]
        k, rho = divmod(d, self.n)
        if rho not in (0, 1):
            raise AlgebraError(f"degree {d} outside the support set")
        import itertools
        words = [w for w in itertools.product(n_idx, repeat=k)]
        if rho == 1:
            words = [w + (a,) for w in words for a in one_idx]
        if d == 1:
            words = [(a,) for a in one_idx]
        prods = []
        kept = []
        for w in words:
            _, vec = self._word_product(w)
            if vec is not None and vec.any():
                prods.append(vec)
                kept.append(w)
        if not prods:
            raise AlgebraError(f"degree {d} not spanned by generator words")
        pm = np.stack(prods, axis=0)  # |words| x dim
        out = []
        for i in range(self.dim(d)):
            e = np.zeros(self.dim(d), dtype=np.int64)
            e[i] = 1
            sol = linalg.solve(pm.T, e, self.p)
            if sol is None:
                raise AlgebraError(
                    f"basis element {i} at degree {d} not a word combination")
            out.append([(kept[j], int(sol[j])) for j in range(len(kept))
                        if sol[j]])
        self._word_cache[d] = out
        return out

    def relation_words(self):
        """Kernel of the word -> algebra map on short generator words.

        Words of length <= 2 grouped by total degree; every combination that
        vanishes in the algebra must annihilate any valid module.
        """
        if self._relation_cache is not None:
            return self._relation_cache
        gens = self.generators()
        by_degree: dict = {}
        for i, g in enumerate(gens):
            by_degree.setdefault(g.degree, []).append((i,))
        for i, g in enumerate(gens):
            for j, h in enumerate(gens):
                if g.target == h.source:
                    by_degree.setdefault(g.degree + h.degree, []).append((i, j))
        # also record length-2 words with mismatched endpoints: they vanish
        mismatched = [(g.degree + h.degree, (i, j))
                      for i, g in enumerate(gens)
                      for j, h in enumerate(gens) if g.target != h.source]
        out = []
        for deg, words in sorted(by_degree.items()):
            if deg == 1:
                continue
            vecs = []
            for w in words:
                _, v = self._word_product(w)
                if v is None or v.size == 0:
                    v = np.zeros(max(self.dim(deg), 1), dtype=np.int64)[: self.dim(deg)]
                vecs.append(v if v.size else np.zeros(self.dim(deg), dtype=np.int64))
            if self.dim(deg) == 0:
                for w in words:
                    out.append((deg, [(w, 1)]))
                continue
            mat = np.stack(vecs, axis=0)
            ker = linalg.left_null_space(mat, self.p)
            for row in ker.basis:
                rel = [(words[j], int(row[j])) for j in range(len(words))
                       if row[j]]
                if rel:
                    out.append((deg, rel))
        for deg, w in mismatched:
            out.append((deg, [(w, 1)]))
        self._relation_cache = out
        return out


@dataclass(frozen=True)
class DegreeMap:
    """The strictly increasing regrading with image S = m + U."""

    m: int
    n: int

    def delta(self, j: int) -> int:
        k, rho = divmod(j, 2)
        return self.m + k * self.n + rho

    def in_image(self, d: int) -> bool:
        return (d - self.m) % self.n in (0, 1)

    def inverse(self, d: int) -> int:
        if not self.in_image(d):
            raise AlgebraError(f"degree {d} not in the image of the regrading")
        k, rho = divmod(d - self.m, self.n)
        return 2 * k + rho


class YonedaAlgebra:
    """The support-restricted dual regraded by delta_0.

    Component j is the delta(j)-component of the support-restricted dual;
    generators sit in degrees 1 and 2.
    """

    def __init__(self, ualg: USupportAlgebra):
        self.ualg = ualg
        self.n = ualg.n
        self.p = ualg.p
        self.nvert = ualg.nvert
        self.quiver = ualg.quiver
        self.dmap = DegreeMap(0, ualg.n)
        self._gens = None

    def dim(self, j: int) -> int:
        if j < 0:
            return 0
        return self.ualg.dim(self.dmap.delta(j))

    def basis_pairs(self, j: int):
        if j < 0:
            return []
        return self.ualg.basis_pairs(self.dmap.delta(j))

    def mult(self, j1: int, j2: int) -> np.ndarray:
        # delta is additive exactly where the support-restricted product is
        # nonzero, so the regraded product is the restricted product
        d1, d2 = self.dmap.delta(j1), self.dmap.delta(j2)
        m3 = self.dim(j1 + j2)
        t = self.ualg.mult(d1, d2)
        if d1 + d2 != self.dmap.delta(j1 + j2):
            return np.zeros((self.dim(j1), self.dim(j2), m3), dtype=np.int64)
        return t

    def generators(self):
        """The support-restricted generators in degrees 1 and 2; a tuple
        built once."""
        if self._gens is None:
            self._gens = tuple(
                Generator(1 if g.degree == 1 else 2, g.basis_index, g.source,
                          g.target, g.name) for g in self.ualg.generators())
        return self._gens

    def element_words(self, j: int):
        return self.ualg.element_words(self.dmap.delta(j))

    def relation_words(self):
        out = []
        gens = self.ualg.generators()

        def e_degree(word):
            return sum(1 if gens[i].degree == 1 else 2 for i in word)

        for _, rel in self.ualg.relation_words():
            if rel:
                out.append((e_degree(rel[0][0]), rel))
        return out


def yoneda_regrade(ualg: USupportAlgebra) -> YonedaAlgebra:
    return YonedaAlgebra(ualg)
