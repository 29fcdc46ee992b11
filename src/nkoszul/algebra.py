"""Graded components of path-algebra quotients and their n-homogeneous duals.

A :class:`PathAlgebra` holds, degree by degree, the normal words of A_k (the
paths that are not pivots of the RREF of the ideal slice I_k, a canonical
quotient basis in path order) and the right action of each arrow
A_{k-1} -> A_k.  The prefix of a normal word is a normal word, so the words
of degree k are stored as (prefix, last arrow) pairs over those of degree
k - 1.  An action is stored by slots: the class of w.a, w a normal word of
degree k - 1 and a an arrow, is either a normal word of degree k or a row of
the degree's tail, the classes of the words w.a that are pivots.  Degree k
is built from degree k - 1 as a small cokernel in A_{k-1} (x) V whose
columns are the words w.a; no degree enumerates its paths to do so.  The
class of a path is its source vertex acted on by its arrows in turn
(``path_classes``).  The products of two degrees (``mult``) are one reduced
Sparse, a row per pair of basis elements: the rows of the composite actions
of the basis words.  Only degree n, where the orthogonal pairs with
all of KQ_n, enumerates paths: NF_n (``normal_form``, row i the class of
path i) and the RREF of I_n (``ideal_rref``).  On top sit the orthogonal of
the degree-n relation space (computed two ways), the dual algebra, and
one class for the dual restricted to U = nZ u (nZ+1), read either in the
dual's degrees (U) or regraded by delta_0 (E, the Yoneda-type algebra).

Each degree's state is refused before it is allocated when its words
spelled out as arrays of arrows (what ``basis_paths`` hands out), its action
slots and its tail together need more than MAX_SLICE_BYTES; so are the
dense arrays a slice builds on the way.

Both algebra flavours, :class:`PathAlgebra` and :class:`USupportAlgebra`,
derive from :class:`GradedAlgebra`, which holds what they share: ``p``,
``nvert``, ``quiver``, ``basis_pairs(d)`` read from ``basis_paths(d)``,
``generators()`` built once, and one memo, ``_memo(key, build)``.  Every
datum derived from an algebra is kept there, under a key whose first entry
names it: here the spelled-out basis words, the products and the rows of
them that multiply by one basis element on the right or the left
(``right_mult``, ``left_mult``), the generators, the ordered orthogonal,
the word and relation tables, E and the opposite (``opposite_algebra``,
each flavour building its own and the pair memoized both ways); in the
module layer the free-module blocks; among the complexes the cofree
models, keyed by the algebra's settled top, and the path classes of the
contraction maps.  The module layer and the complexes read ``dim(d)``,
``basis_pairs(d)``, ``generators()``, ``element_words(d)``,
``relation_words()`` and the products in their one Sparse form, as they
are: ``right_mult`` and ``left_mult`` for the free and cofree actions and
the differentials, ``mult(1, n - 1)`` for the kernel condition.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import MAX_SLICE_BYTES, Sparse, Subspace, zeros
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


# The slot of a word w.a whose arrow a does not start where w ends.
_NONE = np.iinfo(np.intp).min


def _check_size(entries: int, what: str, d: int) -> None:
    """Refuse `what` at degree d, of that many int64 entries, above
    MAX_SLICE_BYTES."""
    need = entries * np.dtype(np.int64).itemsize
    if need > MAX_SLICE_BYTES:
        raise AlgebraError(
            f"{what} at degree {d} needs {entries} entries "
            f"({need / 2**30:.2f} GiB), over the "
            f"{MAX_SLICE_BYTES / 2**30:g} GiB cap")


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

    @staticmethod
    def make(quiver, n, relations, p=101) -> "Presentation":
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
        return Presentation(quiver, n, tuple(rels), p)

    def opposite(self) -> "Presentation":
        q = self.quiver
        return Presentation(
            q.opposite(), self.n,
            tuple(r.opposite(q) for r in self.relations), self.p)


@dataclass(frozen=True)
class Generator:
    """A distinguished algebra basis element used for module actions."""

    degree: int       # grading degree in the owning algebra
    basis_index: int  # index into the basis of that degree component
    source: int
    target: int
    name: str


class GradedAlgebra:
    """The base of the algebra flavours: the field, the quiver, the basis
    pairs, the generators and one memo of what is derived from the
    algebra."""

    def __init__(self, quiver: Quiver, p: int):
        self.p = p
        self.quiver = quiver
        self.nvert = quiver.vertex_count
        self._memos: dict = {}

    def _memo(self, key: tuple, build):
        """build(), run once per key and kept on the algebra.  What is kept
        depends only on the algebra's slices, which never change once
        built, so a kept value never goes stale; callers only read it."""
        memos = self._memos
        if key not in memos:
            memos[key] = build()
        return memos[key]

    def basis_pairs(self, d: int):
        """(source, target) of each basis element of degree d."""
        q = self.quiver
        return [(pa.source, pa.target_in(q)) for pa in self.basis_paths(d)]

    def generators(self):
        """The generators of the module actions (`_generators`), as a
        tuple built once."""
        return self._memo(("generators",), self._generators)

    def right_mult(self, d: int, d_el: int, b: int) -> Sparse:
        """x -> x * basis_b(d_el) from degree d to d + d_el, one row per
        basis element of degree d: the rows (i, b) of `mult(d, d_el)`."""
        return self._memo(("right mult", d, d_el, b), lambda: self.mult(
            d, d_el).take_rows(np.arange(self.dim(d)) * self.dim(d_el) + b))

    def left_mult(self, d_el: int, b: int, d: int) -> Sparse:
        """x -> basis_b(d_el) * x from degree d to d_el + d, one row per
        basis element of degree d: the rows (b, j) of `mult(d_el, d)`."""
        return self._memo(("left mult", d_el, b, d), lambda: self.mult(
            d_el, d).take_rows(b * self.dim(d) + np.arange(self.dim(d))))


class PathAlgebra(GradedAlgebra):
    """Graded slices of KQ/I within a growable degree window."""

    def __init__(self, pres: Presentation):
        super().__init__(pres.quiver, pres.p)
        self.pres = pres
        q = pres.quiver
        self._src = np.array([q.arrow_source(a) for a in range(q.arrow_count)],
                             dtype=np.intp)
        self._tgt = np.array([q.arrow_target(a) for a in range(q.arrow_count)],
                             dtype=np.intp)
        # per degree d: the normal words, row i = (prefix, arrow) for the
        # word `prefix` of degree d - 1 followed by `arrow`; at degree 0 the
        # trivial paths, rows (vertex, -1)
        self._paths: list = [np.stack([np.arange(self.nvert, dtype=np.intp),
                                       np.full(self.nvert, -1, dtype=np.intp)],
                                      axis=1)]
        # per degree d >= 1: the slot of each word w.a, row w, column a
        self._slots: list = [None]
        self._tail: list = [None]       # per degree d >= 1: rank x dim A_d
        self._vanished_from: int | None = None
        self._rels_by_degree: dict = {}
        for r in pres.relations:
            if r.coeffs:
                self._rels_by_degree.setdefault(r.degree, []).append(
                    self._split_terms(r))
        self.ensure_degree(1)

    # -- construction -------------------------------------------------------

    def _computed_to(self) -> int:
        return len(self._paths) - 1

    def ensure_degree(self, k: int) -> None:
        while self._computed_to() < k:
            self._extend_one()

    def _extend_one(self) -> None:
        k = self._computed_to() + 1
        narrows = self._src.size
        if self._vanished_from is not None:
            # quotient is generated in degree 1: once a slice dies the rest do
            words = np.zeros((0, 2), dtype=np.intp)
            slots = np.full((0, narrows), _NONE, dtype=np.intp)
            tail = zeros(0, 0)
        elif k == 1:
            # every relation has degree >= 2, so A_1 has the arrows, in order
            words = np.stack([self._src, np.arange(narrows)], axis=1)
            slots = np.full((self.nvert, narrows), _NONE, dtype=np.intp)
            slots[self._src, np.arange(narrows)] = np.arange(narrows)
            tail = zeros(0, narrows)
        else:
            words, slots, tail = self._cokernel(k)
        self._paths.append(words)
        self._slots.append(slots)
        self._tail.append(tail)
        if self._vanished_from is None and not len(words):
            self._vanished_from = k

    def _split_terms(self, r: PathSpaceElement):
        """(source, prefixes, arrows, coef) of a relation whose paths all
        leave one vertex: its term w.a has the coefficient
        coef[arrows.index(a), prefixes.index(w)]."""
        prefixes: dict = {}
        arrows: dict = {}
        terms = [(prefixes.setdefault(pa.arrows[:-1], len(prefixes)),
                  arrows.setdefault(pa.arrows[-1], len(arrows)), c % self.p)
                 for pa, c in r.coeffs.items()]
        coef = zeros(len(arrows), len(prefixes))
        for i, a, c in terms:
            coef[a, i] = c
        return (next(iter(r.coeffs)).source,
                np.array(list(prefixes), dtype=np.intp).reshape(
                    len(prefixes), r.degree - 1),
                list(arrows), coef)

    def _cokernel(self, d: int):
        """(words, slots, tail) of degree d >= 2, built from degree d-1.

        I_d = I_{d-1} V + sum_j V^{d-j} R_j, so KQ_d / I_{d-1} V is
        A_{d-1} (x) V: its basis, the columns, are the words w.a with w a
        normal word of degree d-1, in path order.  A_d is the cokernel of
        the rows u.r, r a relation of degree j and u a normal word of degree
        d-j ending where r starts (a vertex when j = d); a term u.w.a of a
        row is the class of u.w in A_{d-1} under the arrow a.  One rref of
        that small system picks the pivots among the columns, and the other
        columns are the normal words of degree d.  A path P.a whose prefix
        P is not a normal word is a pivot too, since every path of the class
        of P follows P in path order, so no other path is a normal word.
        The slot of a column is its word's index if it is not a pivot, else
        ~(its row of the tail), the classes of the pivot columns.
        """
        p, narrows = self.p, self._src.size
        m0 = len(self._paths[d - 1])
        _check_size(m0 * narrows, "arrow action", d)
        # the columns: column c is the word pre[c].arr[c]
        pre, arr = (self._targets(d - 1)[:, None] == self._src).nonzero()
        ncols = pre.size
        slots = np.full((m0, narrows), _NONE, dtype=np.intp)
        slots[pre, arr] = np.arange(ncols)
        # the rows u.r, relation by relation (their order leaves the RREF as
        # it is)
        rels = [(j, rel, (self._targets(d - j) == rel[0]).nonzero()[0])
                for j, rs in self._rels_by_degree.items() if j <= d
                for rel in rs]
        nrows = sum(us.size for _, _, us in rels)
        _check_size(nrows * ncols, "cokernel system", d)
        system = zeros(nrows, ncols)
        row = 0
        for j, (_, prefixes, arrows, coef), us in rels:
            # the classes of the u.w, prefix by prefix, then their sums
            # under each last arrow
            cls = self._walk(d - j, np.tile(us, len(prefixes)),
                             np.repeat(prefixes, us.size, axis=0))
            sums = linalg.mat_mul(coef, cls.reshape(len(prefixes), -1), p)
            for a, block in zip(arrows, sums.reshape(len(arrows), us.size, m0)):
                on = (slots[:, a] != _NONE).nonzero()[0]
                system[row:row + us.size, slots[on, a]] = block[:, on]
            row += us.size
        red, pcols, rk = (linalg.rref(system, p) if system.size
                          else (system, [], 0))
        del system  # rref reduced a copy
        is_piv = np.zeros(ncols, dtype=bool)
        is_piv[pcols] = True
        npcols = (~is_piv).nonzero()[0]
        m = npcols.size
        _check_size(m * d + m0 * narrows + rk * m, "slice state", d)
        slot = np.empty(ncols, dtype=np.intp)
        slot[npcols] = np.arange(m)
        slot[pcols] = ~np.arange(rk)
        slots[pre, arr] = slot
        # the classes of the pivot columns: minus their rows of red
        tail = red[:rk, npcols]
        del red
        np.negative(tail, out=tail)
        tail %= p
        return np.stack([pre[npcols], arr[npcols]], axis=1), slots, tail

    def _walk(self, d: int, start, words: np.ndarray) -> np.ndarray:
        """The classes in A_{d+k} of the paths w_i.words[i], one per row,
        for w_i the normal word start[i] of degree d and words a (rows x k)
        array of arrows.  Each arrow is a slot lookup while the prefix is a
        normal word; a row whose prefix is a pivot goes on from its tail
        row by `_act`."""
        rows, k = words.shape
        m = len(self._paths[d + k])
        _check_size(rows * m, "path classes", d + k)
        out = zeros(rows, m)
        live = np.arange(rows)
        idx = np.asarray(start, dtype=np.intp)
        for t in range(k):
            e = d + t + 1
            s = self._slots[e][idx, words[live, t]]
            off = s < 0
            if off.any():
                r = live[off]
                out[r] = self._act(e, ~s[off], words[r, t + 1:])
                live, s = live[~off], s[~off]
            idx = s
        out[live, idx] = 1
        return out

    def _act(self, d: int, rows, words: np.ndarray) -> np.ndarray:
        """The tail rows `rows` of degree d times the arrows words[:, t] in
        turn, one class per row."""
        _check_size(len(rows) * len(self._paths[d]), "path classes", d)
        cls = self._tail[d][rows]
        for t in range(words.shape[1]):
            d += 1
            slots, m = self._slots[d], len(self._paths[d])
            _check_size(len(cls) * m, "path classes", d)
            new = zeros(len(cls), m)
            for a in sorted(set(words[:, t].tolist())):  # np.unique: numpy.ma
                sel = (words[:, t] == a).nonzero()[0]
                on = (slots[:, a] != _NONE).nonzero()[0]
                new[sel] = _times_classes(cls[np.ix_(sel, on)], slots[on, a],
                                          self._tail[d], m, self.p)
            cls = new
        return cls

    def _targets(self, d: int) -> np.ndarray:
        """The end vertex of each normal word of degree d."""
        return (self._tgt[self._paths[d][:, 1]] if d
                else self._paths[0][:, 0])

    def _spelled(self, d: int):
        """(sources, arrows): the normal words of degree d spelled out, a
        source vertex and a row of d arrows each."""
        idx = np.arange(len(self._paths[d]))
        arrows = np.empty((idx.size, d), dtype=np.intp)
        for e in range(d, 0, -1):
            idx, arrows[:, e - 1] = self._paths[e][idx].T
        return idx, arrows

    # -- basic queries ------------------------------------------------------

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        if self._vanished_from is not None and d >= self._vanished_from:
            return 0
        self.ensure_degree(d)
        return len(self._paths[d])

    def basis_paths(self, d: int):
        """Coset representatives: the normal words of degree d."""
        if self.dim(d) == 0:
            return []
        return list(self._memo(("basis", d), lambda: self._basis_words(d)))

    def _basis_words(self, d: int) -> list:
        src, arrows = self._spelled(d)
        return [Path(s, tuple(w)) for s, w in zip(src.tolist(),
                                                  arrows.tolist())]

    def ideal_rref(self, d: int) -> np.ndarray:
        """The RREF of I_d over the paths of degree d: the identity at the
        pivots, the paths that are not normal words, and minus their
        classes at the normal words (I_d = KQ_d once the quotient has
        vanished)."""
        paths = enumerate_paths(self.quiver, d)
        pidx = path_index(self.quiver, d)
        nonpiv = [pidx[w] for w in self.basis_paths(d)]
        is_piv = np.ones(len(paths), dtype=bool)
        is_piv[nonpiv] = False
        piv = is_piv.nonzero()[0]
        _check_size(piv.size * len(paths), "ideal matrix", d)
        red = zeros(piv.size, len(paths))
        red[np.arange(piv.size), piv] = 1
        red[:, nonpiv] = -self.path_classes(
            d, [paths[i] for i in piv]) % self.p
        return red

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
        """NF_d: row i is the class of path i of KQ_d in the basis of A_d."""
        return self.path_classes(d, enumerate_paths(self.quiver, d))

    def path_classes(self, d: int, paths) -> np.ndarray:
        """The classes in A_d of the given paths of length d, one per row:
        each path's source vertex times its arrows in turn."""
        if self.dim(d) == 0:
            return zeros(len(paths), 0)
        words = np.array([pa.arrows for pa in paths], dtype=np.intp)
        return self._walk(0, [pa.source for pa in paths],
                          words.reshape(len(paths), d))

    # No caller in src/; it stays because perfbench/spans.py wraps it.
    def reduce_vector(self, v: np.ndarray, d: int) -> np.ndarray:
        """KQ_d coordinates -> quotient coordinates in the canonical basis."""
        return linalg.mat_mul(np.reshape(v, (1, -1)), self.normal_form(d),
                              self.p)[0]

    def mult(self, d1: int, d2: int) -> Sparse:
        """The products of degrees d1 and d2, one row per pair: row
        i * dim(d2) + j is the class of basis_i(d1) * basis_j(d2), row i of
        the composite action of the word basis_j(d2) (`_walk`)."""
        return self._memo(("mult", d1, d2), lambda: self._products(d1, d2))

    def _products(self, d1: int, d2: int) -> Sparse:
        m1, m2, m = self.dim(d1), self.dim(d2), self.dim(d1 + d2)
        if not (m1 and m2 and m):
            return Sparse.zero(m1 * m2, m)
        src, words = self._spelled(d2)
        i, j = (self._targets(d1)[:, None] == src).nonzero()
        c = Sparse.from_dense(self._walk(d1, i, words[j]), self.p)
        return Sparse((m1 * m2, m), (i * m2 + j)[c.rows], c.cols, c.vals)

    # -- generator / word interface -----------------------------------------

    def _generators(self) -> tuple:
        """Degree-1 generators: the arrows (Lambda_1 = KQ_1 always)."""
        q = self.quiver
        return tuple(Generator(1, i, q.arrow_source(i), q.arrow_target(i),
                               q.arrow_name(i)) for i in range(q.arrow_count))

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

    def _opposite(self):
        """(KQ^op / I^op, the reversal maps from it, and back)."""
        op = PathAlgebra(self.pres.opposite())
        return op, _reversal_corr(op, self), _reversal_corr(self, op)


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
    of an s path holds its coordinates lambda in the r classes.  Computed
    once per algebra and kept in its memo: callers share it and do not
    change it."""
    return alg._memo(("dual data",), lambda: _ordered_orthogonal(alg))


def _ordered_orthogonal(alg: PathAlgebra) -> DualData:
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


def build_free_opposite(quiver: Quiver, n: int, top: int,
                        p: int) -> PathAlgebra:
    """Slices of the free path algebra KQ^op (no relations) over F_p through
    degree top: a representation of Q^op over it need not descend to the
    dual."""
    return build_slices(Presentation.make(quiver.opposite(), n, [], p), top)


# -- support restriction and regrading --------------------------------------


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


def _identity(d: int) -> int:
    return d


class USupportAlgebra(GradedAlgebra):
    """The dual algebra with components outside U = nZ u (nZ+1) killed, read
    in one of two gradings.

    Products landing outside U are zero; the algebra is generated by the
    degree-0, degree-1 and degree-n components of the dual.  Degree j of
    this algebra is degree ``dual_degree(j)`` of the dual, and
    ``own_degree`` is the inverse: the identity for U itself, and
    delta_0 = DegreeMap(0, n).delta for E, the Yoneda-type regrading that
    ``yoneda_regrade`` makes, whose generators sit in degrees 1 and 2.
    Everything is computed in the dual's grading and read through the map.
    ``u`` is the algebra in the U grading: itself, or the U that E was
    regraded from.
    """

    def __init__(self, dual: PathAlgebra, n: int, u=None):
        super().__init__(dual.quiver, dual.p)
        self.dual = dual
        self.n = n
        self._support = DegreeMap(0, n)
        if u is None:
            self.u = self
            self.dual_degree = self.own_degree = _identity
        else:
            self.u = u
            self.dual_degree = self._support.delta
            self.own_degree = self._support.inverse

    # -- in the dual's grading ----------------------------------------------

    def _dim(self, d: int) -> int:
        if d < 0 or not self._support.in_image(d):
            return 0
        return self.dual.dim(d)

    def _mult(self, d1: int, d2: int, d3: int) -> Sparse:
        """The product of dual degrees d1 and d2 into dual degree d3, as
        `mult`.  A regrading is additive exactly where the restricted
        product is nonzero, so the product is the restricted one or zero."""
        if d1 + d2 == d3 and all(map(self._support.in_image, (d1, d2, d3))):
            return self.dual.mult(d1, d2)
        return Sparse.zero(self._dim(d1) * self._dim(d2), self._dim(d3))

    def _word_classes(self, steps) -> Sparse:
        """The classes in the dual of all words whose letters have the dual
        degrees `steps` in turn, one row per word, in itertools.product
        order of the generators of each degree.  A first letter's class is
        its basis element, and each later letter takes one product with the
        products of its degree, one row per left factor (`Sparse.reshape`)."""
        cls = Sparse.identity(self._dim(steps[0]))
        deg = steps[0]
        for e in steps[1:]:
            m2, m3 = self._dim(e), self._dim(deg + e)
            t = self._mult(deg, e, deg + e).reshape(cls.shape[1], m2 * m3)
            cls = linalg.sparse_mul(cls, t, self.p).reshape(
                cls.shape[0] * m2, m3)
            deg += e
        return cls

    # -- in its own grading -------------------------------------------------

    def dim(self, j: int) -> int:
        return self._dim(self.dual_degree(j))

    def basis_paths(self, j: int):
        d = self.dual_degree(j)
        return self.dual.basis_paths(d) if self._dim(d) else []

    def mult(self, j1: int, j2: int) -> Sparse:
        return self._mult(self.dual_degree(j1), self.dual_degree(j2),
                          self.dual_degree(j1 + j2))

    def _generators(self) -> tuple:
        """The dual's generators, then one per degree-n basis element of the
        dual."""
        q = self.quiver
        paths = self.dual.basis_paths(self.n)
        deg = self.own_degree(self.n)
        return tuple(self.dual.generators()) + tuple(
            Generator(deg, i, u, v, paths[i].name_in(q))
            for i, (u, v) in enumerate(self.dual.basis_pairs(self.n)))

    def element_words(self, j: int):
        """Express the basis of the degree-j component in generator words.

        Canonical shapes: dual degree kn uses k degree-n letters; dual
        degree kn+1 appends one degree-1 letter.
        """
        d = self.dual_degree(j)
        return self._memo(("words", d), lambda: self._element_words(d))

    def _element_words(self, d: int) -> list:
        dim = self._dim(d)
        if d < 1 or dim == 0:
            return [[] for _ in range(dim)]
        narrows = len(self.dual.generators())
        k, rho = divmod(d, self.n)
        words = list(itertools.product(range(narrows, len(self.generators())),
                                       repeat=k))
        if rho == 1:
            words = [w + (a,) for w in words for a in range(narrows)]
        cls = self._word_classes([self.n] * k + [1] * rho)
        # row i: the coefficients of the words in basis element i
        left = linalg.left_inverse(cls, self.p)
        if left is None:
            raise AlgebraError(f"degree {d} not spanned by generator words")
        out = [[] for _ in range(dim)]
        for i, j, c in zip(left.rows.tolist(), left.cols.tolist(),
                           left.vals.tolist()):
            out[i].append((words[j], c))
        return out

    def relation_words(self):
        """Kernel of the word -> algebra map on short generator words.

        Words of length <= 2, grouped by their degree in the dual; every
        combination that vanishes in the algebra must annihilate any valid
        module.  Each relation is labelled with its degree in this
        algebra's grading.
        """
        return self._memo(("relations",), self._relation_words)

    def _relation_words(self) -> list:
        gens = self.generators()
        dual_deg = [self.dual_degree(g.degree) for g in gens]

        def label(word):
            return sum(gens[i].degree for i in word)

        by_degree: dict = {}
        for i, e in enumerate(dual_deg):
            by_degree.setdefault(e, []).append((i,))
        for i, g in enumerate(gens):
            for j, h in enumerate(gens):
                if g.target == h.source:
                    by_degree.setdefault(dual_deg[i] + dual_deg[j],
                                         []).append((i, j))
        # length-2 words with mismatched endpoints vanish
        mismatched = [(i, j) for i, g in enumerate(gens)
                      for j, h in enumerate(gens) if g.target != h.source]
        out = []
        for deg, words in sorted(by_degree.items()):
            if deg == 1:
                continue
            if self._dim(deg) == 0:
                out += [(label(w), [(w, 1)]) for w in words]
                continue
            # a letter's class is its row of the identity, a pair's its
            # row of the products of its letters' degrees: one gather each
            at: dict = {}  # letter degrees -> [(row, class row)]
            for r, w in enumerate(words):
                es = tuple(dual_deg[i] for i in w)
                b = gens[w[0]].basis_index
                if len(w) == 2:
                    b = b * self._dim(es[1]) + gens[w[1]].basis_index
                at.setdefault(es, []).append((r, b))
            parts = []
            for es, rb in at.items():
                rows, b = np.array(rb, dtype=np.int64).T
                got = (self._mult(*es, deg) if len(es) == 2 else
                       Sparse.identity(self._dim(deg))).take_rows(b)
                parts.append((rows[got.rows], got.cols, got.vals))
            mat = Sparse.from_entries((len(words), self._dim(deg)), *map(
                np.concatenate, zip(*parts)), self.p)
            for row in linalg.sparse_left_kernel(mat, self.p).basis.dense():
                rel = [(words[j], int(row[j])) for j in range(len(words))
                       if row[j]]
                out.append((label(rel[0][0]), rel))
        out += [(label(w), [(w, 1)]) for w in mismatched]
        return out

    def _opposite(self):
        """(the same flavour over the opposite dual, the reversal maps from
        it, and back), read through the dual degrees: U of the opposite
        dual, or E of the opposite of U."""
        op_dual, corr = opposite_algebra(self.dual)
        back = opposite_algebra(op_dual)[1]
        op = (USupportAlgebra(op_dual, self.n) if self.u is self
              else yoneda_regrade(opposite_algebra(self.u)[0]))
        to_dual = self.dual_degree
        return op, lambda j: corr(to_dual(j)), lambda j: back(to_dual(j))


def in_u_grading(alg) -> bool:
    """True for the support-restricted dual in its own grading, U."""
    return getattr(alg, "u", None) is alg


def yoneda_regrade(ualg: USupportAlgebra) -> USupportAlgebra:
    """E: the support-restricted dual ualg regraded by delta_0, built once
    per ualg."""
    return ualg._memo(("yoneda",),
                      lambda: USupportAlgebra(ualg.dual, ualg.n, ualg))


# -- the opposite algebra ----------------------------------------------------


def _reversal_corr(a_from, a_to):
    """Coordinate map of path reversal: degree-d coordinates of `a_from`
    to the coordinates of the reversed element in `a_to`."""

    def corr(d: int) -> np.ndarray:
        return a_to.path_classes(d, [opposite_path(pa, a_from.quiver)
                                     for pa in a_from.basis_paths(d)])

    return corr


def opposite_algebra(alg: GradedAlgebra):
    """The opposite algebra, paired with the reversal coordinate maps.

    Returns (op_alg, corr) where corr(d) is the matrix sending degree-d
    coordinates of the opposite algebra to the coordinates of the reversed
    element in the original algebra.  Each flavour builds its own opposite
    (`_opposite`); the pair is memoized both ways, so opposing twice gives
    back the original object.
    """
    def build():
        op, corr, back = alg._opposite()
        op._memo(("opposite",), lambda: (alg, back))
        return op, corr

    return alg._memo(("opposite",), build)
