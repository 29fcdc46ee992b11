"""The dual-side membership test as it was written before `in_Lo` became
`in_L` of the graded dual: the comultiplication square of the distinguished
category, checked level by level with its own kernel condition.  Kept as the
oracle that `grmod.in_Lo` is compared with."""
import numpy as np

from nkoszul import linalg
from nkoszul.grmod import (GradedModule, ModuleError, TorsionParams,
                           _element_action, _require_u_grading,
                           socle_subspaces)
from nkoszul.linalg import zeros
from nkoszul.quiver import Path, enumerate_paths, opposite_path
from dense_oracle import solve_matrix


def comultiplication(mod: GradedModule, s: int, u: int) -> np.ndarray:
    """Delta_{s,u}: X_{-s-u} -> X_{-s} (x) KQ_u, x -> sum_p x pbar^o (x) p.

    Columns are indexed by vertex-matched pairs (basis of X_{-s}, path p of
    length u in the original quiver); also returns are plain matrices, the
    pair list is recomputable via tensor_with_paths.
    """
    ualg = mod.algebra
    if u == 0:
        return linalg.eye(mod.dim(-s))
    if u not in (1, ualg.n):
        raise ModuleError(f"comultiplication needs u in 0, 1, n; got {u}")
    pairs, plist = tensor_with_paths(mod, -s, u)
    out = zeros(mod.dim(-s - u), len(pairs))
    q = ualg.dual.quiver.opposite()
    classes = ualg.dual.path_classes(u, [opposite_path(pa, q) for pa in plist])
    for c, (i, pi) in enumerate(pairs):
        # X_{-s-u} -> X_{-s}
        a = _element_action(mod, u, classes[pi], -s - u).dense()
        if a.size:
            out[:, c] = (out[:, c] + a[:, i]) % mod.p
    return out


def tensor_with_paths(mod: GradedModule, d: int, u: int):
    """Vertex-matched basis (i, path index) of M_d (x) KQ_u over the
    original quiver; the element vertex must equal the path source."""
    dual = mod.algebra.dual
    q = dual.quiver.opposite()
    plist = enumerate_paths(q, u)
    vs = mod.verts_at(d)
    pairs = [(i, pi) for i in range(len(vs))
             for pi, pa in enumerate(plist) if vs[i] == pa.source]
    return pairs, plist


def in_Lo(mod: GradedModule, params: TorsionParams) -> bool:
    """The dual-side membership: cogeneration in -(S:U) plus solvability of
    the comultiplication square at every level."""
    n = params.n
    m = params.m
    _require_u_grading(mod, "in_Lo", n)
    if not mod.is_valid():
        raise ModuleError("module failed validation")
    for d in mod.degrees():
        if not params.in_s(-d):
            raise ModuleError(f"support degree {d} outside -S")
    if not all(params.gen_degrees_contains(-d)
               for d in socle_subspaces(mod)):
        return False
    if n == 2:
        return True
    p = mod.p
    q = mod.algebra.dual.quiver.opposite()
    levels = sorted({(-d - m) // n - 1 for d in mod.degrees()
                     if (-d - m) % n == 0})
    for k in levels:
        src_d = -(m + (k + 1) * n)
        if mod.dim(src_d) == 0:
            continue
        s = m + k * n
        # right-hand side: Delta_{s,n} then split each length-n path as
        # (first arrow, remaining length n-1 path)
        pairs_n, plist_n = tensor_with_paths(mod, -s, n)
        delta_n = comultiplication(mod, s, n)
        pairs_mid, plist_mid = tensor_with_paths(mod, -s - 1, n - 1)
        # target space: X_{-s} (x) KQ_1 (x) KQ_{n-1}, flattened as
        # (i, arrow, tail path) with endpoint matching
        tgt_index: dict = {}
        tgt_count = 0
        vs = mod.verts_at(-s)
        for i in range(len(vs)):
            for ai in range(q.arrow_count):
                if q.arrow_source(ai) != vs[i]:
                    continue
                for ti, tp in enumerate(plist_mid):
                    if tp.source == q.arrow_target(ai):
                        tgt_index[(i, ai, ti)] = tgt_count
                        tgt_count += 1
        rhs = zeros(mod.dim(src_d), tgt_count)
        for c, (i, pi) in enumerate(pairs_n):
            pa = plist_n[pi]
            ai = pa.arrows[0]
            tail = Path(q.arrow_target(ai), pa.arrows[1:])
            ti = plist_mid.index(tail)
            col = tgt_index[(i, ai, ti)]
            rhs[:, col] = (rhs[:, col] + delta_n[:, c]) % p
        # left edge: (Delta_{s,1} (x) 1) applied to X_{-s-1} (x) KQ_{n-1}
        delta_1 = comultiplication(mod, s, 1)
        pairs_1, plist_1 = tensor_with_paths(mod, -s, 1)
        lhs = zeros(len(pairs_mid), tgt_count)
        for r, (j, ti) in enumerate(pairs_mid):
            for c1, (i, pi1) in enumerate(pairs_1):
                coef = delta_1[j, c1] if delta_1.size else 0
                if not coef:
                    continue
                ai = plist_1[pi1].arrows[0]
                key = (i, ai, ti)
                if key in tgt_index:
                    col = tgt_index[key]
                    lhs[r, col] = (lhs[r, col] + coef) % p
        # solvability of F @ lhs = rhs row by row
        if solve_matrix(lhs.T, rhs.T, p) is None:
            return False
    return True
