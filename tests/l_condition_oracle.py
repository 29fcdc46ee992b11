"""The kernel condition of `grmod.in_L` as it was written before it became
one product C @ A (`grmod.l_condition`, `grmod.stacked_action`): the
products of Ker(mu_{s,1}) with degree n-1 of the dual, taken in
X_s (x) dual_n, and tested for containment in the null space of mu_{s,n}.
Kept as the oracle that `grmod.in_L` is compared with."""
import numpy as np

from nkoszul import linalg
from nkoszul.grmod import (GradedModule, ModuleError, TorsionParams,
                           _require_u_grading, top_dims)
from nkoszul.linalg import Subspace, zeros


def multiplication_map(mod: GradedModule, s: int, k: int):
    """mu_{s,k}: X_s (x) dual_k -> X_{s+k}, x_i (x) y_j -> x_i y_j, for
    k = 1 or n: the vertex-matched pairs (i, j) and one row per pair."""
    vs = mod.verts_at(s)
    pairs = [(i, j) for i in range(len(vs))
             for j, (src, _) in enumerate(mod.algebra.dual.basis_pairs(k))
             if vs[i] == src]
    gens = {g.basis_index: gi for gi, g in enumerate(mod.gens)
            if g.degree == k}
    mu = zeros(len(pairs), mod.dim(s + k))
    for r, (i, j) in enumerate(pairs):
        a = mod.act(gens[j], s)
        if a.size:
            mu[r] = a[i]
    return pairs, mu


def times_right(vecs, nx: int, t1, tn, t_mul, p: int) -> np.ndarray:
    """The products v * y_b, one row per v in vecs and b, in X (x) A_{k+l}.

    v is over the pairs t1 of X (x) A_k, y_b runs over the basis of A_l, and
    t_mul = mult(k, l) gives (x_i (x) a_j) * y_b = x_i (x) sum_c
    t_mul[j, b, c] a_c; the rows are read at the pairs tn."""
    nv, (nj, nb, nc) = len(vecs), t_mul.shape
    coef = np.zeros((nv, nx, nj), dtype=np.int64)
    if t1:
        i, j = zip(*t1)
        coef[:, i, j] = vecs
    prod = linalg.mat_mul(coef.reshape(nv * nx, nj),
                          t_mul.reshape(nj, nb * nc), p)
    prod = prod.reshape(nv, nx, nb, nc)
    i, c = zip(*tn) if tn else ((), ())
    return prod[:, list(i), :, list(c)].transpose(1, 2, 0).reshape(
        nv * nb, len(tn))


def in_L(mod: GradedModule, params: TorsionParams) -> bool:
    """Generation in m + nZ plus Ker(mu_{s,1}) * dual_{n-1} inside
    Ker(mu_{s,n}) at every level s in m + nZ."""
    n = params.n
    _require_u_grading(mod, "in_L", n)
    if not mod.is_valid():
        raise ModuleError("module failed validation")
    for d in mod.degrees():
        if not params.in_s(d):
            raise ModuleError(f"support degree {d} outside S")
    if not all(params.gen_degrees_contains(d) for d in top_dims(mod)):
        return False
    if n == 2:
        return True
    dual, p = mod.algebra.dual, mod.p
    for s in mod.degrees():
        if (s - params.m) % n != 0:
            continue
        t1, mu1 = multiplication_map(mod, s, 1)
        if not t1:
            continue
        ker1 = linalg.null_space(mu1.T, p)
        if ker1.dim == 0:
            continue
        tn, mun = multiplication_map(mod, s, n)
        prod_rows = times_right(ker1.basis.dense(), mod.dim(s), t1, tn,
                                dual.mult(1, n - 1), p)
        if not prod_rows.any():
            continue
        prod = Subspace.from_rows(len(tn), prod_rows, p)
        if not linalg.null_space(mun.T, p).contains(prod):
            return False
    return True
