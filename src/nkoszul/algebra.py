"""Graded components of path-algebra quotients and their n-homogeneous duals.

A :class:`PathAlgebra` holds, degree by degree, the ideal slice I_k inside
KQ_k and a canonical quotient basis of the degree-k component (the non-pivot
paths of the RREF of I_k).  The one map from paths to classes is the normal
form NF_k (``normal_form``): row i is the class of path i, so NF_k is the
identity at the non-pivot paths and minus the RREF's non-pivot columns at the
pivot paths.  Reduction, the multiplication tensors, the (r, s, t) ordering
of the orthogonal and every path class read downstream are rows of it.  On
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
from .linalg import Subspace, zeros
from .quiver import (
    PathSpaceElement,
    Quiver,
    enumerate_paths,
    opposite_path,
    path_index,
)


class AlgebraError(ValueError):
    pass


MAX_PATHS_PER_DEGREE = 200_000


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
        if n < 2:
            raise AlgebraError("homogeneity degree must be >= 2")
        rels = []
        for r in relations:
            if r.degree < n:
                raise AlgebraError(
                    f"relation of degree {r.degree} < n = {n}")
            rr = r.reduced(p)
            if rr.coeffs:
                rels.append(rr)
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
        self._ideal: list = []          # per degree: RREF rows over KQ_d coords
        self._pivots: list = []
        self._nonpivots: list = []
        self._vanished_from: int | None = None
        self._nf: dict = {}             # per degree: NF_d, built on first use
        self._mult_cache: dict = {}
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
        p = self.p
        if self._vanished_from is not None and k >= self._vanished_from:
            # quotient is generated in degree 1: once a slice dies the rest do
            self._paths.append([])
            self._pidx.append({})
            self._ideal.append(zeros(0, 0))
            self._pivots.append([])
            self._nonpivots.append([])
            return
        paths = enumerate_paths(self.quiver, k)
        if len(paths) > MAX_PATHS_PER_DEGREE:
            raise AlgebraError(
                f"path explosion at degree {k}: {len(paths)} paths")
        pidx = {q: i for i, q in enumerate(paths)}
        # I_k = KQ_1 I_{k-1} + I_{k-1} KQ_1 + span(relations of degree k)
        prev = self._ideal[k - 1] if k >= 1 else zeros(0, 0)
        shifts = [self._arrow_shift(k - 1, a, left, pidx)
                  for a in range(self.quiver.arrow_count)
                  for left in (True, False)] if prev.shape[0] else []
        rels = self._rels_by_degree.get(k, [])
        m = prev.shape[0]
        # every entry is written below: a shifted block or a relation row
        stacked = np.empty((len(shifts) * m + len(rels), len(paths)),
                           dtype=np.int64)
        if shifts:
            # an appended zero column: the source of columns a shift misses
            prev = np.concatenate([prev, zeros(m, 1)], axis=1)
        for b, src in enumerate(shifts):
            # mode="clip" (the indices are in range) lets take write
            # straight into the block instead of through a buffer
            np.take(prev, src, axis=1, out=stacked[b * m:(b + 1) * m],
                    mode="clip")
        for i, r in enumerate(rels):
            stacked[len(shifts) * m + i] = r.vector(self.quiver, p)
        red, pivots, rk = linalg.rref(stacked, p)
        if rk < len(red):
            # keep the rank rows only: shrinking red in place frees the rest
            # without the transient peak and the time of a copy
            red.resize((rk, len(paths)))
        self._paths.append(list(paths))
        self._pidx.append(pidx)
        self._ideal.append(red)
        self._pivots.append(pivots)
        is_free = np.ones(len(paths), dtype=bool)
        is_free[pivots] = False
        nonpiv = is_free.nonzero()[0].tolist()
        self._nonpivots.append(nonpiv)
        if len(nonpiv) == 0:
            self._vanished_from = k
        cap = self.pres.degree_cap
        if cap is not None and k > cap and len(nonpiv) > 0:
            raise AlgebraError(
                f"degree cap {cap} violated: component at degree {k} is nonzero")

    def _arrow_shift(self, k: int, a: int, left: bool, pidx: dict):
        """Column map of multiplying by arrow a on the given side, from
        degree k to degree k + 1.

        Entry i is the path at degree k whose product with a is path i, or
        the number of paths at degree k where there is none.  Prefixing or
        suffixing an arrow is injective on paths, so the ideal rows at degree
        k shift by one column gather through this map."""
        from .quiver import Path
        q = self.quiver
        src = np.full(len(pidx), len(self._paths[k]), dtype=np.intp)
        for j, pa in enumerate(self._paths[k]):
            if left:
                if pa.source != q.arrow_target(a):
                    continue
                new = Path(q.arrow_source(a), (a,) + pa.arrows)
            else:
                if pa.target_in(q) != q.arrow_source(a):
                    continue
                new = Path(pa.source, pa.arrows + (a,))
            src[pidx[new]] = j
        return src

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

    def ideal_subspace(self, d: int) -> Subspace:
        self.ensure_degree(d)
        if self._vanished_from is not None and d >= self._vanished_from:
            # I_d = KQ_d wholesale; materialize only if path list is small
            paths = enumerate_paths(self.quiver, d)
            return Subspace.full(len(paths), self.p)
        return Subspace.from_rows(
            len(self._paths[d]), self._ideal[d], self.p)

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

        NF[nonpiv] = I and NF[piv] = -red[:, nonpiv] mod p.  Built on first
        use: windows are often computed far past the degrees ever reduced."""
        nf = self._nf.get(d)
        if nf is None:
            m = self.dim(d)
            nf = zeros(self.path_count(d), m)
            if m:
                nonpiv = self._nonpivots[d]
                nf[nonpiv, np.arange(m)] = 1
                nf[self._pivots[d]] = -self._ideal[d][:, nonpiv] % self.p
            self._nf[d] = nf
        return nf

    def path_classes(self, d: int, paths) -> np.ndarray:
        """The classes in A_d of the given paths of length d, one per row."""
        if self.dim(d) == 0:
            return zeros(len(paths), 0)
        pidx = self._pidx[d]
        return self.normal_form(d)[[pidx[pa] for pa in paths]]

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
        """Degree-1 generators: the arrows (Lambda_1 = KQ_1 always)."""
        gens = []
        q = self.quiver
        for i in range(q.arrow_count):
            gens.append(Generator(1, i, q.arrow_source(i),
                                  q.arrow_target(i), q.arrow_name(i)))
        return gens

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
    ideal_rows = alg._ideal[n]
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
        gens = self.dual.generators()
        q = self.quiver
        for i, (u, v) in enumerate(self.dual.basis_pairs(self.n)):
            name = self.dual.basis_paths(self.n)[i].name_in(q)
            gens.append(Generator(self.n, i, u, v, name))
        return gens

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
        gens = []
        for g in self.ualg.generators():
            deg = 1 if g.degree == 1 else 2
            gens.append(Generator(deg, g.basis_index, g.source, g.target,
                                  g.name))
        return gens

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
