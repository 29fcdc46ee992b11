"""PathAlgebra queries that only the tests ask, as oracles over its public
surface: the class of a path-space element, left multiplication by an
element and the ideal slice as a subspace."""
import numpy as np

from nkoszul import linalg
from nkoszul.linalg import Subspace


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
    """I_d in the coordinates of the paths of degree d."""
    return Subspace(alg.path_count(d), alg.p, alg.ideal_rref(d))
