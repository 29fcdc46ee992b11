"""The two support-restricted flavours as separate classes, as they were
before one class read the support-restricted dual in both gradings: U, the
dual with components outside nZ u (nZ+1) killed, and E, U regraded by
delta_0.  Kept as oracles over the algebra surface the module layer reads:
generators, dims, basis pairs, element words, relation words and mult."""
import itertools

import numpy as np

from nkoszul import linalg
from nkoszul.algebra import AlgebraError, DegreeMap, Generator
from dense_oracle import mult_tensor, solve


def in_support_u(d: int, n: int) -> bool:
    return d % n in (0, 1)


class USupportAlgebra:
    """The dual algebra with components outside U = nZ u (nZ+1) killed.

    Products landing outside U are zero; the algebra is generated by the
    degree-0, degree-1 and degree-n components.
    """

    def __init__(self, dual, n: int):
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
        return mult_tensor(self.dual, d1, d2)

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
            sol = solve(pm.T, e, self.p)
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
            ker = linalg.null_space(mat.T, self.p)
            for row in ker.basis.dense():
                rel = [(words[j], int(row[j])) for j in range(len(words))
                       if row[j]]
                if rel:
                    out.append((deg, rel))
        for deg, w in mismatched:
            out.append((deg, [(w, 1)]))
        self._relation_cache = out
        return out



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
