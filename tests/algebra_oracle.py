"""PathAlgebra queries that only the tests ask, as oracles over its public
surface: the class of a path-space element, left multiplication by an
element and the ideal slice as a subspace.  Also the word tables of the
support-restricted dual (`USupportAlgebra.element_words` and
`relation_words`) as they were built before they came from products with
the mult tensors: one class per word, one product per letter, and one
solve per basis element."""
import itertools

import numpy as np

from nkoszul import linalg
from nkoszul.algebra import AlgebraError
from nkoszul.linalg import Sparse, Subspace, zeros


def reduce_path_element(alg, el) -> np.ndarray:
    """The class in A_d of an element of KQ_d."""
    return alg.reduce_vector(el.vector(alg.quiver, alg.p), el.degree)


def left_mult_matrix(alg, d_el: int, vec: np.ndarray, d: int) -> np.ndarray:
    """Matrix of x -> el * x from A_d to A_{d_el + d} (rows = A_d basis)."""
    t = alg.mult(d_el, d)
    k, m1, m2 = t.shape
    return linalg.mat_mul(np.reshape(vec, (1, k)), t.reshape(k, m1 * m2),
                          alg.p).reshape(m1, m2)


def ideal_subspace(alg, d: int) -> Subspace:
    """I_d in the coordinates of the paths of degree d, read off the
    stored RREF with no elimination."""
    red = alg.ideal_rref(d)
    return Subspace(alg.path_count(d), alg.p, Sparse.from_dense(red, alg.p),
                    np.array([np.flatnonzero(row)[0] for row in red],
                             dtype=np.intp))


def word_product(ualg, word) -> np.ndarray:
    """The class of a generator word in the dual, letter by letter."""
    gens = ualg.generators()
    g = gens[word[0]]
    deg = ualg.dual_degree(g.degree)
    vec = zeros(1, ualg._dim(deg))
    vec[0, g.basis_index] = 1
    for gi in word[1:]:
        g = gens[gi]
        e = ualg.dual_degree(g.degree)
        vec = linalg.mat_mul(
            vec, ualg._mult(deg, e, deg + e)[:, g.basis_index], ualg.p)
        deg += e
    return vec[0]


def element_words(ualg, j: int) -> list:
    """`ualg.element_words(j)`: each basis element solved for on its own."""
    d = ualg.dual_degree(j)
    dim = ualg._dim(d)
    if d < 1 or dim == 0:
        return [[] for _ in range(dim)]
    narrows = len(ualg.dual.generators())
    k, rho = divmod(d, ualg.n)
    words = list(itertools.product(range(narrows, len(ualg.generators())),
                                   repeat=k))
    if rho == 1:
        words = [w + (a,) for w in words for a in range(narrows)]
    prods, kept = [], []
    for w in words:
        vec = word_product(ualg, w)
        if vec.any():
            prods.append(vec)
            kept.append(w)
    if not prods:
        raise AlgebraError(f"degree {d} not spanned by generator words")
    pm = np.stack(prods, axis=0)  # |words| x dim
    out = []
    for i, e in enumerate(linalg.eye(dim)):
        sol = linalg.solve(pm.T, e, ualg.p)
        if sol is None:
            raise AlgebraError(
                f"basis element {i} at degree {d} not a word combination")
        out.append([(kept[j], int(sol[j])) for j in range(len(kept))
                    if sol[j]])
    return out


def relation_words(ualg) -> list:
    """`ualg.relation_words()`: the kernel of the classes of the words of
    length at most 2, degree by degree, one class per word."""
    gens = ualg.generators()
    dual_deg = [ualg.dual_degree(g.degree) for g in gens]

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
    mismatched = [(i, j) for i, g in enumerate(gens)
                  for j, h in enumerate(gens) if g.target != h.source]
    out = []
    for deg, words in sorted(by_degree.items()):
        if deg == 1:
            continue
        if ualg._dim(deg) == 0:
            out += [(label(w), [(w, 1)]) for w in words]
            continue
        mat = np.stack([word_product(ualg, w) for w in words], axis=0)
        for row in linalg.left_null_space(mat, ualg.p).basis.dense():
            rel = [(words[j], int(row[j])) for j in range(len(words))
                   if row[j]]
            out.append((label(rel[0][0]), rel))
    return out + [(label(w), [(w, 1)]) for w in mismatched]
