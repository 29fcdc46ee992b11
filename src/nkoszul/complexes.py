"""Cochain n-complexes and 2-complexes of graded modules.

Holds the two functors from graded modules over the dual into complexes of
modules over the base algebra (tensor flavour, projective terms; Hom
flavour, almost injective terms), linearity certificates, the contraction
of n-complexes to 2-complexes, the explicit equivalence between the
distinguished module subcategory and the liftable 2-complexes (in both the
injective and the projective pictures), module extraction back out of a
2-complex, and Hom spaces of complexes.

Positions index cochain degree; each component is a GradedModule over the
base algebra and each differential a degree-0 morphism to the next
position.  Complexes built here have honestly finite components, so the
d^n = 0 and d^2 = 0 conditions are checked exactly.
"""
from __future__ import annotations

import numpy as np

from . import linalg
from .linalg import Subspace, zeros
from .algebra import DegreeMap
from .grmod import (
    GradedModule,
    GradedMorphism,
    ModuleError,
    free_module,
    graded_dual,
    hom_space,
    iso_modules,
    morphism_image,
    morphism_kernel,
    opposite_algebra,
    radical_subspaces,
    socle_subspaces,
    submodule_as_module,
    top_complements,
    zero_module,
)


class ComplexError(ValueError):
    pass


class ComplexOfGraded:
    """A finite window of graded modules with degree-0 differentials."""

    def __init__(self, algebra, period: int, modules: dict, diffs: dict):
        self.algebra = algebra
        self.p = algebra.p
        self.period = period
        self.modules = {k: m for k, m in modules.items() if not m.is_zero()}
        self.diffs = {}
        for k, f in diffs.items():
            if any(m.any() for m in f.mats.values()):
                self.diffs[k] = f

    def positions(self):
        return sorted(self.modules)

    def component(self, k: int) -> GradedModule:
        return self.modules.get(k) or zero_module(self.algebra)

    def diff(self, k: int) -> GradedMorphism:
        f = self.diffs.get(k)
        if f is not None:
            return f
        return GradedMorphism(self.component(k), self.component(k + 1), {})

    def is_zero(self) -> bool:
        return not self.modules

    def shift_positions(self, s: int) -> "ComplexOfGraded":
        return ComplexOfGraded(
            self.algebra, self.period,
            {k + s: m for k, m in self.modules.items()},
            {k + s: f for k, f in self.diffs.items()})

    def validate(self):
        issues = []
        for k, m in self.modules.items():
            bad = m.validate()
            if bad:
                issues.append(f"component {k}: {bad[0]}")
        for k in self.diffs:
            if not self.diff(k).commutes():
                issues.append(f"differential at {k} is not a graded morphism")
        return issues


def zero_complex(algebra, period: int) -> ComplexOfGraded:
    return ComplexOfGraded(algebra, period, {}, {})


def stalk_complex(mod: GradedModule, pos: int, period: int) -> ComplexOfGraded:
    return ComplexOfGraded(mod.algebra, period, {pos: mod}, {})


def composite_diff(c: ComplexOfGraded, k: int, count: int) -> GradedMorphism:
    """The composite of `count` consecutive differentials starting at k."""
    f = c.diff(k)
    for i in range(1, count):
        f = f.compose(c.diff(k + i))
    return f


def is_n_complex(c: ComplexOfGraded, n: int) -> bool:
    """Every n-fold composite of consecutive differentials vanishes."""
    for k in c.positions():
        f = composite_diff(c, k, n)
        if any(m.any() for m in f.mats.values()):
            return False
    return True


# -- the two functors --------------------------------------------------------


def _require_finite(lam, allow_windowed: bool = False):
    if not lam.is_finite_dimensional(probe=lam._computed_to()):
        if not lam.is_finite_dimensional(probe=4 * max(lam.pres.n, 2)):
            if not allow_windowed:
                raise ComplexError(
                    "base algebra is not finite dimensional within the "
                    "probed window; pass the windowed-dual acknowledgment")


def _lam_top(lam) -> int:
    v = lam.vanishing_degree()
    if v is not None:
        return v - 1
    return lam._computed_to()


def psi(mod: GradedModule, lam, allow_windowed: bool = False) -> ComplexOfGraded:
    """Tensor functor: position k holds M_k (x) Lambda shifted to start in
    degree -k, with d(x (x) 1) = sum over arrows of x a^o (x) abar."""
    if not mod.is_valid():
        raise ModuleError("module failed validation")
    _require_finite(lam, allow_windowed)
    top = _lam_top(lam)
    comps = {}
    for k in mod.degrees():
        gens = [(v, -k) for v in mod.verts_at(k)]
        comps[k] = free_module(lam, gens, -k + top)
    arrow_gens = {g.basis_index: gi for gi, g in enumerate(mod.gens)
                  if g.degree == 1}
    diffs = {}
    for k in mod.degrees():
        if (k + 1) not in comps:
            continue
        src, tgt = comps[k], comps[k + 1]
        mats = {}
        for d in src.degrees():
            if tgt.dim(d) == 0:
                continue
            e1, e2 = d + k, d + k + 1
            pos2 = {key: c for c, key in enumerate(tgt.free_index[d])}
            m = zeros(src.dim(d), tgt.dim(d))
            for ai in range(lam.quiver.arrow_count):
                a_act = mod.act(arrow_gens[ai], k)  # M_k -> M_{k+1}
                if not a_act.any():
                    continue
                vec = np.zeros(lam.dim(1), dtype=np.int64)
                vec[ai] = 1
                lmul = lam.left_mult_matrix(1, vec, e1)  # Lam_e1 -> Lam_e2
                for r, (i, b) in enumerate(src.free_index[d]):
                    for i2 in np.nonzero(a_act[i])[0]:
                        for b2 in np.nonzero(lmul[b])[0]:
                            key = (int(i2), int(b2))
                            if key in pos2:
                                cidx = pos2[key]
                                m[r, cidx] = (m[r, cidx]
                                              + a_act[i, i2] * lmul[b, b2]) % lam.p
            if m.any():
                mats[d] = m
        diffs[k] = GradedMorphism(src, tgt, mats)
    return ComplexOfGraded(lam, lam.pres.n, comps, diffs)


def cofree_module(lam, vlist) -> GradedModule:
    """Hom over the degree-0 part from Lambda into a vertex-labelled space.

    Degree e holds pairs (b, x) with b a basis element of Lambda_{-e} ending
    at the vertex of x; the pair sits at the starting vertex of b.  The
    action of an arrow precomposes with left multiplication.
    """
    top = _lam_top(lam)
    index = {}
    verts = {}
    for e in range(-top, 1):
        k = -e
        pairs = []
        vs = []
        for bi, (w, v) in enumerate(lam.basis_pairs(k)):
            for xi, xv in enumerate(vlist):
                if xv == v:
                    pairs.append((bi, xi))
                    vs.append(w)
        if pairs:
            index[e] = pairs
            verts[e] = tuple(vs)
    actions = {}
    for gi, g in enumerate(lam.generators()):
        ai = g.basis_index
        vec = np.zeros(lam.dim(1), dtype=np.int64)
        vec[ai] = 1
        for e in index:
            e2 = e + 1
            if e2 not in index:
                continue
            lmul = lam.left_mult_matrix(1, vec, -e2)  # Lam_{-e2} -> Lam_{-e}
            pos2 = {key: c for c, key in enumerate(index[e2])}
            m = zeros(len(index[e]), len(index[e2]))
            for r, (b, x) in enumerate(index[e]):
                for a in np.nonzero(lmul[:, b])[0]:
                    key = (int(a), x)
                    if key in pos2:
                        m[r, pos2[key]] = lmul[a, b]
            if m.any():
                actions[(gi, e)] = m
    out = GradedModule(lam, verts, actions)
    out.hom_index = index
    out.cofree_verts = tuple(vlist)
    return out


def nu(mod: GradedModule, lam, allow_windowed: bool = False,
       _twist=None) -> ComplexOfGraded:
    """Hom functor: position j holds Hom(Lambda, M_j) shifted by j, with
    (df)(a) = sum over arrows of f(a abar) acted by the opposite arrow.

    `_twist` is a test hook: an arrow index permutation that deliberately
    mismatches the two arrow occurrences in the differential.
    """
    if not mod.is_valid():
        raise ModuleError("module failed validation")
    _require_finite(lam, allow_windowed)
    arrow_gens = {g.basis_index: gi for gi, g in enumerate(mod.gens)
                  if g.degree == 1}
    comps = {}
    bases = {}
    for j in mod.degrees():
        base = cofree_module(lam, mod.verts_at(j))
        bases[j] = base
        comps[j] = base.shift(j)  # component degree d holds base at d + j
    diffs = {}
    nq = lam.quiver.arrow_count
    twist = list(_twist) if _twist is not None else list(range(nq))
    for j in mod.degrees():
        if (j + 1) not in comps:
            continue
        src, tgt = comps[j], comps[j + 1]
        bsrc, btgt = bases[j], bases[j + 1]
        mats = {}
        for d in src.degrees():
            if tgt.dim(d) == 0:
                continue
            e1, e2 = d + j, d + j + 1  # base degrees; -e holds Lam_{-e}
            k1, k2 = -e1, -e2
            pos2 = {key: c for c, key in enumerate(btgt.hom_index[e2])}
            m = zeros(src.dim(d), tgt.dim(d))
            for ai in range(nq):
                vec = np.zeros(lam.dim(1), dtype=np.int64)
                vec[ai] = 1
                rmul = lam.right_mult_matrix(k2, 1, vec)  # Lam_k2 -> Lam_k1
                a_act = mod.act(arrow_gens[twist[ai]], j)
                if not a_act.any() or not rmul.any():
                    continue
                for r, (b, x) in enumerate(bsrc.hom_index[e1]):
                    for a in np.nonzero(rmul[:, b])[0]:
                        for x2 in np.nonzero(a_act[x])[0]:
                            key = (int(a), int(x2))
                            if key in pos2:
                                cidx = pos2[key]
                                m[r, cidx] = (m[r, cidx]
                                              + rmul[a, b] * a_act[x, x2]) % lam.p
            if m.any():
                mats[d] = m
        diffs[j] = GradedMorphism(src, tgt, mats)
    return ComplexOfGraded(lam, lam.pres.n, comps, diffs)


# -- linearity certificates --------------------------------------------------


def certify_linear(c: ComplexOfGraded, flavor: str, degree_of=None,
                   seed: int = 0):
    """Certificates per position, or None if some component is not linear.

    Projective flavour: generated purely in the stated degree, witnessed by
    an isomorphism from a sum of shifted vertex projectives.  Almost
    injective flavour: cogenerated purely in the stated degree, witnessed
    from a sum of shifted co-projectives.
    """
    if degree_of is None:
        degree_of = lambda k: -k
    lam = c.algebra
    out = {}
    for k in c.positions():
        comp = c.modules[k]
        want = degree_of(k)
        if flavor == "projective":
            tops = top_complements(comp)
            if set(tops) != {want}:
                return None
            gens = [(comp.verts_at(want)[i], want) for i in tops[want]]
            model = free_module(lam, gens, comp.support_top())
            psi_iso = iso_modules(model, comp, seed=seed)
            if psi_iso is None:
                return None
            out[k] = {"mults": gens, "witness": psi_iso}
        elif flavor == "injective":
            socs = socle_subspaces(comp)
            if set(socs) != {want}:
                return None
            vlist = []
            for row in socs[want].basis:
                nz = np.nonzero(row)[0]
                vlist.append(comp.verts_at(want)[int(nz[0])])
            model = cofree_module(lam, vlist).shift(-want)
            psi_iso = iso_modules(model, comp, seed=seed)
            if psi_iso is None:
                return None
            out[k] = {"mults": [(v, want) for v in vlist], "witness": psi_iso}
        else:
            raise ComplexError(f"unknown flavour {flavor!r}")
    return out


# -- torsion-side predicates on complexes ------------------------------------


def in_T_star(c: ComplexOfGraded, params) -> bool:
    """All components at positions inside S vanish."""
    return all(not params.in_s(k) for k in c.positions())


def in_G_star(c: ComplexOfGraded, params) -> bool:
    """No copy of the co-projective stalk maps into a kernel at positions
    off S, and socles at positions not congruent to m are hit by the
    previous differential.  Trivially true when 2r = n = 2."""
    if 2 * params.r == params.n == 2:
        return True
    lam = c.algebra
    dlam = _coregular(lam)
    for j in c.positions():
        comp = c.modules[j]
        if not params.in_s(j):
            ker = morphism_kernel(c.diff(j))
            if ker:
                kmod, _ = submodule_as_module(comp, ker)
                if hom_space(dlam.shift(j), kmod):
                    return False
        if (j - params.m) % params.n != 0:
            socs = socle_subspaces(comp)
            img = morphism_image(c.diff(j - 1))
            for d, s in socs.items():
                tgt = img.get(d, Subspace.zero(comp.dim(d), comp.p))
                if not tgt.contains(s):
                    return False
    return True


def _coregular(lam) -> GradedModule:
    """D(Lambda) as a right module, cogenerated in degree 0.

    Cached on the algebra, so it lives and dies with it."""
    cached = getattr(lam, "_coregular_module", None)
    if cached is None:
        cached = cofree_module(lam, tuple(range(lam.nvert)))
        lam._coregular_module = cached
    return cached


# -- contractions ------------------------------------------------------------


def contract_H(c: ComplexOfGraded, m: int, n: int) -> ComplexOfGraded:
    """Keep positions in the image of the regrading; odd differentials are
    the (n-1)-fold composites between consecutive kept positions."""
    dmap = DegreeMap(m, n)
    if not c.positions():
        return zero_complex(c.algebra, 2)
    lo, hi = min(c.positions()), max(c.positions())
    comps = {}
    diffs = {}
    j_lo = (lo - m) // n - 1
    j_hi = (hi - m) // n + 1
    for j in range(j_lo, j_hi + 1):
        for par in (0, 1):
            pos = 2 * j + par
            src_pos = dmap.delta(pos)
            comp = c.component(src_pos)
            if not comp.is_zero():
                comps[pos] = comp
            if par == 0:
                diffs[pos] = c.diff(m + j * n)
            else:
                diffs[pos] = composite_diff(c, m + j * n + 1, n - 1)
    return ComplexOfGraded(c.algebra, 2, comps, diffs)


def contract_G(c: ComplexOfGraded, m: int, n: int) -> ComplexOfGraded:
    """Projective-side contraction: position 2j keeps -m + jn, position
    2j - 1 keeps -m + jn - 1; even differentials are (n-1)-fold composites."""
    if not c.positions():
        return zero_complex(c.algebra, 2)
    lo, hi = min(c.positions()), max(c.positions())
    comps = {}
    diffs = {}
    j_lo = (lo + m) // n - 1
    j_hi = (hi + m) // n + 1
    for j in range(j_lo, j_hi + 1):
        for par in (0, -1):
            pos = 2 * j + par
            src_pos = -m + j * n + par
            comp = c.component(src_pos)
            if not comp.is_zero():
                comps[pos] = comp
            if par == -1:
                diffs[pos] = c.diff(-m + j * n - 1)
            else:
                diffs[pos] = composite_diff(c, -m + j * n, n - 1)
    return ComplexOfGraded(c.algebra, 2, comps, diffs)


# -- the explicit equivalence (injective picture) ----------------------------


def _u_module_as_dual_module(mod: GradedModule) -> GradedModule:
    """Reinterpret a module over the support-restricted algebra as a module
    over the full dual (valid when n = 2, where the two coincide)."""
    ualg = mod.algebra
    dual = ualg.dual
    arrow_acts = {}
    for gi, g in enumerate(mod.gens):
        if g.degree == 1:
            for d in mod.degrees():
                a = mod.actions.get((gi, d))
                if a is not None:
                    arrow_acts[(g.basis_index, d)] = a
    return GradedModule(dual, dict(mod.verts), arrow_acts)


def _mu1_data(mod: GradedModule, s: int):
    """The multiplication X_s (x) dual_1 -> X_{s+1} and a canonical
    preimage matrix for its targets (None if not surjective)."""
    dual = mod.algebra.dual
    vs = mod.verts_at(s)
    pairs1 = dual.basis_pairs(1)
    t1 = [(i, j) for i in range(len(vs))
          for j, (src, tgt) in enumerate(pairs1) if vs[i] == src]
    one_gens = {g.basis_index: gi for gi, g in enumerate(mod.gens)
                if g.degree == 1}
    mu1 = zeros(len(t1), mod.dim(s + 1))
    for r, (i, j) in enumerate(t1):
        a = mod.act(one_gens[j], s)
        if a.size:
            mu1[r] = a[i]
    pre = linalg.solve_matrix(mu1.T, linalg.eye(mod.dim(s + 1)), mod.p)
    return t1, mu1, pre


def _xi_matrices(mod: GradedModule, s: int, check: bool = True):
    """Per path p of length n-1 in the base quiver: the matrix of
    y (x) p^o -> decomposition of y through level s, then the degree-n
    action of the class of (p alpha)^o.  Requires (and with `check`
    asserts) independence of the chosen decomposition."""
    from .quiver import Path, enumerate_paths, path_index
    ualg = mod.algebra
    dual = ualg.dual
    n = ualg.n
    p = mod.p
    q = dual.quiver.opposite()
    t1, mu1, pre = _mu1_data(mod, s)
    if pre is None:
        raise ComplexError(
            f"level {s}: the degree-1 multiplication is not surjective")
    n_gens = {g.basis_index: gi for gi, g in enumerate(mod.gens)
              if g.degree == n}
    idx_op = path_index(dual.quiver, n)
    nop = len(idx_op)
    out = {}
    ker = linalg.null_space(mu1.T, p) if check else None
    for pi, pa in enumerate(enumerate_paths(q, n - 1)):
        mat = zeros(mod.dim(s + 1), mod.dim(s + n))
        cls_cache = {}
        for r, (i, ai) in enumerate(t1):
            # (p alpha)^o = alpha^o p^o: valid only when t(p) = o(alpha)
            if q.arrow_source(ai) != pa.target_in(q):
                continue
            if ai not in cls_cache:
                v = np.zeros(nop, dtype=np.int64)
                rev = Path(q.arrow_target(ai),
                           (ai,) + tuple(reversed(pa.arrows)))
                v[idx_op[rev]] = 1
                cls = dual.reduce_vector(v, n)
                act = zeros(mod.dim(s), mod.dim(s + n))
                for w in np.nonzero(cls)[0]:
                    act = (act + int(cls[w])
                           * mod.act(n_gens[int(w)], s)) % p
                cls_cache[ai] = act
            act = cls_cache[ai]
            # pre[:, c] is the chosen preimage of the c-th target basis
            # element, with coordinates over the (element, arrow) pairs
            for col in range(mod.dim(s + 1)):
                coef = pre[r, col]
                if coef:
                    mat[col] = (mat[col] + int(coef) * act[i]) % p
        if check and ker is not None and ker.dim:
            # any mu1-kernel element must be annihilated by this xi branch
            for row in ker.basis:
                acc = np.zeros(mod.dim(s + n), dtype=np.int64)
                for r in np.nonzero(row)[0]:
                    i, ai = t1[int(r)]
                    if q.arrow_source(ai) != pa.target_in(q):
                        continue
                    if ai in cls_cache:
                        acc = (acc + int(row[r]) * cls_cache[ai][i]) % p
                    else:
                        v = np.zeros(nop, dtype=np.int64)
                        rev = Path(q.arrow_target(ai),
                                   (ai,) + tuple(reversed(pa.arrows)))
                        v[idx_op[rev]] = 1
                        cls = dual.reduce_vector(v, n)
                        act = zeros(mod.dim(s), mod.dim(s + n))
                        for w in np.nonzero(cls)[0]:
                            act = (act + int(cls[w])
                                   * mod.act(n_gens[int(w)], s)) % p
                        cls_cache[ai] = act
                        acc = (acc + int(row[r]) * act[i]) % p
                if acc.any():
                    raise ComplexError(
                        f"level {s}: contraction map depends on the chosen "
                        "decomposition (kernel condition fails)")
        out[pi] = mat
    return out


def equivalence_F(mod: GradedModule, lam, params,
                  allow_windowed: bool = False) -> ComplexOfGraded:
    """The explicit equivalence: a distinguished module over the support-
    restricted dual becomes a 2-complex of almost injective modules."""
    from .grmod import in_L
    from .quiver import enumerate_paths
    ualg = mod.algebra
    n = params.n
    m = params.m
    if not in_L(mod, params):
        raise ComplexError("module is not in the distinguished subcategory")
    _require_finite(lam, allow_windowed)
    if n == 2:
        c = nu(_u_module_as_dual_module(mod), lam,
               allow_windowed=allow_windowed)
        return ComplexOfGraded(
            lam, 2,
            {k - m: mm for k, mm in c.modules.items()},
            {k - m: f for k, f in c.diffs.items()})
    levels = sorted({(d - m) // n for d in mod.degrees()})
    comps = {}
    bases = {}
    for j in levels:
        for par in (0, 1):
            s = m + j * n + par
            if mod.dim(s) == 0:
                continue
            base = cofree_module(lam, mod.verts_at(s))
            pos = 2 * j + par
            bases[pos] = base
            comps[pos] = base.shift(s)
    diffs = {}
    one_gens = {g.basis_index: gi for gi, g in enumerate(mod.gens)
                if g.degree == 1}
    q = ualg.dual.quiver.opposite()
    for j in levels:
        s = m + j * n
        # even differential: same shape as the Hom-functor single step
        if 2 * j in comps and 2 * j + 1 in comps:
            src, tgt = comps[2 * j], comps[2 * j + 1]
            bsrc, btgt = bases[2 * j], bases[2 * j + 1]
            mats = {}
            for d in src.degrees():
                if tgt.dim(d) == 0:
                    continue
                e1, e2 = d + s, d + s + 1
                k2 = -e2
                pos2 = {key: c for c, key in enumerate(btgt.hom_index[e2])}
                mm = zeros(src.dim(d), tgt.dim(d))
                for ai in range(q.arrow_count):
                    vec = np.zeros(lam.dim(1), dtype=np.int64)
                    vec[ai] = 1
                    rmul = lam.right_mult_matrix(k2, 1, vec)
                    a_act = mod.act(one_gens[ai], s)
                    if not a_act.any() or not rmul.any():
                        continue
                    for r, (b, x) in enumerate(bsrc.hom_index[e1]):
                        for a in np.nonzero(rmul[:, b])[0]:
                            for x2 in np.nonzero(a_act[x])[0]:
                                key = (int(a), int(x2))
                                if key in pos2:
                                    cx = pos2[key]
                                    mm[r, cx] = (mm[r, cx]
                                                 + rmul[a, b] * a_act[x, x2]) % lam.p
                if mm.any():
                    mats[d] = mm
            diffs[2 * j] = GradedMorphism(src, tgt, mats)
        # odd differential: contract through xi
        if 2 * j + 1 in comps and 2 * j + 2 in comps:
            src, tgt = comps[2 * j + 1], comps[2 * j + 2]
            bsrc, btgt = bases[2 * j + 1], bases[2 * j + 2]
            xi = _xi_matrices(mod, s)
            paths = enumerate_paths(q, n - 1)
            mats = {}
            for d in src.degrees():
                if tgt.dim(d) == 0:
                    continue
                e1 = d + s + 1
                e2 = d + s + n
                k1, k2 = -e1, -e2
                pos2 = {key: c for c, key in enumerate(btgt.hom_index[e2])}
                mm = zeros(src.dim(d), tgt.dim(d))
                for pi, pa in enumerate(paths):
                    cls = lam.reduce_path_element(
                        _path_elem(pa, n - 1))
                    rmul = lam.right_mult_matrix(k2, n - 1, cls)
                    ximat = xi[pi]
                    if not rmul.any() or not ximat.any():
                        continue
                    for r, (b, x) in enumerate(bsrc.hom_index[e1]):
                        for a in np.nonzero(rmul[:, b])[0]:
                            for x2 in np.nonzero(ximat[x])[0]:
                                key = (int(a), int(x2))
                                if key in pos2:
                                    cx = pos2[key]
                                    mm[r, cx] = (mm[r, cx]
                                                 + rmul[a, b] * ximat[x, x2]) % lam.p
                if mm.any():
                    mats[d] = mm
            diffs[2 * j + 1] = GradedMorphism(src, tgt, mats)
    return ComplexOfGraded(lam, 2, comps, diffs)


def _path_elem(pa, degree):
    from .quiver import PathSpaceElement
    return PathSpaceElement(degree, {pa: 1})


# -- extraction (inverse direction) ------------------------------------------


def _check_conditions_ab(c: ComplexOfGraded, params, seed: int = 0):
    """Conditions of the essential-image description: components almost
    injective cogenerated at the regraded degrees, and odd socles inside
    the image of the previous differential.  Returns certificates."""
    dmap = DegreeMap(params.m, params.n)
    cert = certify_linear(c, "injective",
                          degree_of=lambda k: -dmap.delta(k), seed=seed)
    if cert is None:
        return None
    for k in c.positions():
        if k % 2 == 0:
            continue
        comp = c.modules[k]
        socs = socle_subspaces(comp)
        img = morphism_image(c.diff(k - 1))
        for d, s in socs.items():
            tgt = img.get(d, Subspace.zero(comp.dim(d), comp.p))
            if not tgt.contains(s):
                return None
    return cert


def extract_module(c: ComplexOfGraded, ualg, params,
                   seed: int = 0) -> GradedModule:
    """Recover the distinguished module from a 2-complex in the essential
    image: socles give the components, the even differentials give the
    degree-1 action, and the odd differentials determine the degree-n
    action by an exact linear solve."""
    from .quiver import enumerate_paths
    lam = c.algebra
    n = params.n
    m = params.m
    dmap = DegreeMap(m, n)
    if c.is_zero():
        return zero_module(ualg)
    cert = _check_conditions_ab(c, params, seed=seed)
    if cert is None:
        raise ComplexError("complex fails the essential-image conditions")
    if n == 2:
        return _extract_module_n2(c, ualg, params, cert)
    # transported differentials between the canonical models
    models = {}
    for k in c.positions():
        s = dmap.delta(k)
        vlist = [v for v, _ in cert[k]["mults"]]
        base = cofree_module(lam, vlist)
        models[k] = (base, base.shift(s), cert[k]["witness"], vlist)
    verts = {dmap.delta(k): tuple(models[k][3]) for k in c.positions()}
    actions: dict = {}
    one_gens = {g.basis_index: gi for gi, g in enumerate(ualg.generators())
                if g.degree == 1}
    q = ualg.dual.quiver.opposite()
    # degree-1 actions from the even differentials
    for k in c.positions():
        if k % 2 or (k + 1) not in models:
            continue
        s = dmap.delta(k)
        T = _transported_diff(c, k, models)
        mat = T.mat(-s - 1)
        bsrc = models[k][0]
        btgt = models[k + 1][0]
        rows = bsrc.hom_index[-1]     # pairs (arrow b, x)
        cols = btgt.hom_index[0]      # pairs (vertex idempotent, x2)
        for ai in range(q.arrow_count):
            a = zeros(len(models[k][3]), len(models[k + 1][3]))
            v_tgt = q.arrow_source(ai)  # vertex of x a^o in the base quiver
            for r, (b, x) in enumerate(rows):
                if b != ai:
                    continue
                for cx, (vb, x2) in enumerate(cols):
                    if vb == v_tgt:
                        a[x, x2] = mat[r, cx]
            if a.any():
                actions[(one_gens[ai], s)] = a
    # provisional module with the degree-1 structure only
    prov = GradedModule(ualg, verts, dict(actions))
    # degree-n actions from the odd differentials, by linear solve
    n_gen_pos = {g.basis_index: gi for gi, g in enumerate(ualg.generators())
                 if g.degree == n}
    dual = ualg.dual
    for k in c.positions():
        if k % 2 == 0 or (k + 1) not in models:
            continue
        j = (k - 1) // 2
        s = m + j * n
        dim_s = prov.dim(s)
        dim_s1 = prov.dim(s + 1)
        dim_sn = len(models[k + 1][3])
        if dim_s1 == 0 or dim_sn == 0:
            continue
        nd = dual.dim(n)
        unknowns = nd * dim_s * dim_sn
        if dim_s == 0 or unknowns == 0:
            continue
        T = _transported_diff(c, k, models)
        rows_sys = []
        rhs_sys = []
        basis_mats = []
        for u in range(unknowns):
            w, rest = divmod(u, dim_s * dim_sn)
            i, r2 = divmod(rest, dim_sn)
            trial = {(n_gen_pos[w], s): _unit_matrix(dim_s, dim_sn, i, r2)}
            basis_mats.append(trial)
        sys_cols = []
        obs = _flatten_morphism(T)
        for u in range(unknowns):
            trial_actions = dict(actions)
            for key, mmat in basis_mats[u].items():
                trial_actions[key] = mmat
            trial_mod = GradedModule(ualg, verts, trial_actions)
            Dm = _model_odd_diff(trial_mod, lam, s, models[k][0],
                                 models[k + 1][0], check=False)
            sys_cols.append(_flatten_mats(Dm, T))
        base_mod = GradedModule(ualg, verts, dict(actions))
        D0 = _model_odd_diff(base_mod, lam, s, models[k][0],
                             models[k + 1][0], check=False)
        off = _flatten_mats(D0, T)
        a_mat = np.stack([(col - off) % lam.p for col in sys_cols], axis=1) \
            if unknowns else zeros(len(obs), 0)
        rhs = (obs - off) % lam.p
        # the odd differential alone can underdetermine the action; the
        # membership condition ker(mu_1) * dual_{n-1} <= ker(mu_n) supplies
        # the missing linear equations
        t1, mu1, _ = _mu1_data(prov, s)
        if t1:
            kerz = linalg.null_space(mu1.T, lam.p)
            mu_un = dual.mult(1, n - 1)
            extra = []
            for z in kerz.basis:
                for ui in range(dual.dim(n - 1)):
                    coeff = {}
                    for r in np.nonzero(z)[0]:
                        i, ai = t1[int(r)]
                        vec = mu_un[ai, ui]
                        for w in np.nonzero(vec)[0]:
                            key = (int(w), int(i))
                            coeff[key] = (coeff.get(key, 0)
                                          + int(z[r]) * int(vec[w])) % lam.p
                    if not any(coeff.values()):
                        continue
                    for r2 in range(dim_sn):
                        row = np.zeros(unknowns, dtype=np.int64)
                        for (w, i), cv in coeff.items():
                            row[w * dim_s * dim_sn + i * dim_sn + r2] = cv
                        extra.append(row)
            if extra:
                a_mat = np.concatenate([a_mat, np.stack(extra, axis=0)],
                                       axis=0)
                rhs = np.concatenate(
                    [rhs, np.zeros(len(extra), dtype=np.int64)])
        sol = linalg.solve(a_mat, rhs, lam.p)
        if sol is None:
            raise ComplexError(
                f"no degree-{n} action matches the odd differential at "
                f"position {k}")
        for u in np.nonzero(sol)[0]:
            w, rest = divmod(int(u), dim_s * dim_sn)
            i, r2 = divmod(rest, dim_sn)
            key = (n_gen_pos[w], s)
            cur = actions.get(key, zeros(dim_s, dim_sn))
            cur = cur.copy()
            cur[i, r2] = (cur[i, r2] + int(sol[u])) % lam.p
            actions[key] = cur
    # the degree-n action one step above each level is forced by the
    # relations: for y = sum of x_a acted by arrows, y * w decomposes
    # through the degree-(n+1) component
    levels = sorted({m + ((dmap.delta(k) - m) // n) * n for k in c.positions()})
    for s in levels:
        cur_mod = GradedModule(ualg, verts, dict(actions))
        if cur_mod.dim(s + 1) == 0 or cur_mod.dim(s + 1 + n) == 0:
            continue
        t1, mu1, pre = _mu1_data(cur_mod, s)
        if pre is None:
            raise ComplexError(
                f"level {s}: the degree-1 multiplication is not surjective")
        ker = linalg.null_space(mu1.T, lam.p)
        for w in range(dual.dim(n)):
            amat = zeros(cur_mod.dim(s + 1), cur_mod.dim(s + 1 + n))
            acts = {}
            for _, ai in t1:
                if ai not in acts:
                    vec = ualg.mult(1, n)[ai, w]
                    acts[ai] = cur_mod.act_element(n + 1, vec, s)
            for r, (i, ai) in enumerate(t1):
                for cidx in range(cur_mod.dim(s + 1)):
                    if pre[r, cidx]:
                        amat[cidx] = (amat[cidx]
                                      + int(pre[r, cidx]) * acts[ai][i]) % lam.p
            for row in ker.basis:
                acc = np.zeros(cur_mod.dim(s + 1 + n), dtype=np.int64)
                for r in np.nonzero(row)[0]:
                    i, ai = t1[int(r)]
                    acc = (acc + int(row[r]) * acts[ai][i]) % lam.p
                if acc.any():
                    raise ComplexError(
                        f"level {s}: induced degree-{n} action is not "
                        "well defined")
            if amat.any():
                actions[(n_gen_pos[w], s + 1)] = amat
    out = GradedModule(ualg, verts, actions)
    bad = out.validate()
    if bad:
        raise ComplexError(f"extracted module fails validation: {bad[0]}")
    return out


def _unit_matrix(r, c, i, j):
    m = zeros(r, c)
    m[i, j] = 1
    return m


def _transported_diff(c: ComplexOfGraded, k: int, models) -> GradedMorphism:
    """The differential at k conjugated into the canonical model spaces."""
    w1 = models[k][2]
    w2 = models[k + 1][2]
    return w1.compose(c.diff(k)).compose(w2.inverse())


def _flatten_morphism(f: GradedMorphism) -> np.ndarray:
    parts = []
    for d in sorted(set(f.source.degrees()) | set(f.target.degrees())):
        parts.append(f.mat(d).reshape(-1))
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _flatten_mats(mats: dict, like: GradedMorphism) -> np.ndarray:
    parts = []
    for d in sorted(set(like.source.degrees()) | set(like.target.degrees())):
        m = mats.get(d)
        if m is None:
            m = zeros(like.source.dim(d), like.target.dim(d))
        parts.append(np.asarray(m).reshape(-1))
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _model_odd_diff(mod: GradedModule, lam, s: int, bsrc, btgt,
                    check: bool = True) -> dict:
    """The odd differential of the explicit equivalence at level s, between
    the given model spaces, as plain per-degree matrices."""
    from .quiver import enumerate_paths
    ualg = mod.algebra
    n = ualg.n
    q = ualg.dual.quiver.opposite()
    xi = _xi_matrices(mod, s, check=check)
    paths = enumerate_paths(q, n - 1)
    src = bsrc.shift(s + 1)
    tgt = btgt.shift(s + n)
    mats = {}
    for d in src.degrees():
        if tgt.dim(d) == 0:
            continue
        e1 = d + s + 1
        e2 = d + s + n
        k2 = -e2
        pos2 = {key: c for c, key in enumerate(btgt.hom_index[e2])}
        mm = zeros(src.dim(d), tgt.dim(d))
        for pi, pa in enumerate(paths):
            cls = lam.reduce_path_element(_path_elem(pa, n - 1))
            rmul = lam.right_mult_matrix(k2, n - 1, cls)
            ximat = xi[pi]
            if not rmul.any() or not ximat.any():
                continue
            for r, (b, x) in enumerate(bsrc.hom_index[e1]):
                for a in np.nonzero(rmul[:, b])[0]:
                    for x2 in np.nonzero(ximat[x])[0]:
                        key = (int(a), int(x2))
                        if key in pos2:
                            cx = pos2[key]
                            mm[r, cx] = (mm[r, cx]
                                         + rmul[a, b] * ximat[x, x2]) % lam.p
        if mm.any():
            mats[d] = mm
    return mats


def _extract_module_n2(c: ComplexOfGraded, ualg, params, cert) -> GradedModule:
    """n = 2 inverse: read both generator degrees from the transported
    single-step differentials."""
    lam = c.algebra
    m = params.m
    dmap = DegreeMap(m, 2)
    models = {}
    for k in c.positions():
        s = dmap.delta(k)
        vlist = [v for v, _ in cert[k]["mults"]]
        base = cofree_module(lam, vlist)
        models[k] = (base, base.shift(s), cert[k]["witness"], vlist)
    verts = {dmap.delta(k): tuple(models[k][3]) for k in c.positions()}
    actions: dict = {}
    one_gens = {g.basis_index: gi for gi, g in enumerate(ualg.generators())
                if g.degree == 1}
    q = ualg.dual.quiver.opposite()
    for k in c.positions():
        if (k + 1) not in models:
            continue
        s = dmap.delta(k)
        T = _transported_diff(c, k, models)
        mat = T.mat(-s - 1)
        rows = models[k][0].hom_index.get(-1, [])
        cols = models[k + 1][0].hom_index.get(0, [])
        for ai in range(q.arrow_count):
            a = zeros(len(models[k][3]), len(models[k + 1][3]))
            v_tgt = q.arrow_source(ai)
            for r, (b, x) in enumerate(rows):
                if b != ai:
                    continue
                for cx, (vb, x2) in enumerate(cols):
                    if vb == v_tgt:
                        a[x, x2] = mat[r, cx]
            if a.any():
                actions[(one_gens[ai], s)] = a
    # the degree-2 generator actions are the induced products
    n_gen_pos = {g.basis_index: gi for gi, g in enumerate(ualg.generators())
                 if g.degree == 2}
    prov = GradedModule(ualg.dual, verts,
                        {(gi_arrow_index(ualg, gi), d): mmat
                         for (gi, d), mmat in actions.items()})
    for d in verts:
        if d + 2 not in verts:
            continue
        for w, gi in n_gen_pos.items():
            vec = np.zeros(ualg.dual.dim(2), dtype=np.int64)
            vec[w] = 1
            a = prov.act_element(2, vec, d)
            if a.any():
                actions[(gi, d)] = a
    out = GradedModule(ualg, verts, actions)
    bad = out.validate()
    if bad:
        raise ComplexError(f"extracted module fails validation: {bad[0]}")
    return out


def gi_arrow_index(ualg, gi: int) -> int:
    """Map a degree-1 generator position of the support-restricted algebra
    to the corresponding generator position of the full dual."""
    g = ualg.generators()[gi]
    for gj, h in enumerate(ualg.dual.generators()):
        if h.degree == 1 and h.basis_index == g.basis_index:
            return gj
    raise ComplexError("no matching arrow generator")


def in_Y(c: ComplexOfGraded, ualg, params, seed: int = 0):
    """Essential-image membership: the direct conditions plus the
    round-trip through extraction.  Returns (verdict, witness module)."""
    from .grmod import in_L
    if c.is_zero():
        return True, zero_module(ualg)
    if _check_conditions_ab(c, params, seed=seed) is None:
        return False, None
    try:
        x = extract_module(c, ualg, params, seed=seed)
    except (ComplexError, ModuleError):
        return False, None
    try:
        if not in_L(x, params):
            return False, None
        c2 = equivalence_F(x, c.algebra, params)
    except (ComplexError, ModuleError):
        return False, None
    if not iso_complexes(c, c2, seed=seed):
        return False, None
    return True, x


# -- the projective picture via duality --------------------------------------


def dualize_complex(c: ComplexOfGraded, op_data=None) -> ComplexOfGraded:
    """Apply the graded duality componentwise; position j becomes -j and
    differentials are transposed."""
    if op_data is None:
        op_data = opposite_algebra(c.algebra)
    op_alg, _ = op_data
    duals = {k: graded_dual(m, op_data) for k, m in c.modules.items()}
    comps = {-k: m for k, m in duals.items()}
    diffs = {}
    for k, f in c.diffs.items():
        src = duals.get(k + 1)
        tgt = duals.get(k)
        if src is None or tgt is None:
            continue
        diffs[-k - 1] = GradedMorphism(
            src, tgt, {-d: mmat.T % c.p for d, mmat in f.mats.items()})
    return ComplexOfGraded(op_alg, c.period, comps, diffs)


def equivalence_F_dual(mod: GradedModule, lam, params,
                       seed: int = 0) -> ComplexOfGraded:
    """The projective-side equivalence: transport through the duality,
    apply the injective-side construction over the opposite algebra, and
    dualize the resulting complex back."""
    from .grmod import in_L, in_Lo
    ualg = mod.algebra
    if not in_Lo(mod, params):
        raise ComplexError("module is not in the dual distinguished class")
    op_u = opposite_algebra(ualg)
    xd = graded_dual(mod, op_u)
    if not in_L(xd, params):
        raise ComplexError("dual transport left the distinguished class")
    op_lam_data = opposite_algebra(lam)
    c_inj = equivalence_F(xd, op_lam_data[0], params)
    c_proj = dualize_complex(c_inj)
    # assert the output conditions of the projective picture
    ok, why = check_Yo_conditions(c_proj, params, seed=seed)
    if not ok:
        raise ComplexError(f"projective output conditions failed: {why}")
    return c_proj


def check_Yo_conditions(c: ComplexOfGraded, params, seed: int = 0):
    """Conditions of the projective essential image: components projective
    generated in the regraded degrees, and odd kernels inside the radical
    (first condition only when n = 2)."""
    dmap = DegreeMap(params.m, params.n)
    cert = certify_linear(c, "projective",
                          degree_of=lambda k: dmap.delta(-k), seed=seed)
    if cert is None:
        return False, "a component is not projective at the stated degree"
    if params.n == 2:
        return True, ""
    for k in c.positions():
        if k % 2 == 0:
            continue
        comp = c.modules[k]
        ker = morphism_kernel(c.diff(k))
        rad = radical_subspaces(comp)
        for d, s in ker.items():
            tgt = rad.get(d, Subspace.zero(comp.dim(d), comp.p))
            if not tgt.contains(s):
                return False, f"kernel at position {k} escapes the radical"
    return True, ""


def in_Yo(c: ComplexOfGraded, ualg, params, seed: int = 0) -> bool:
    """Projective essential-image membership via the duality transport."""
    if c.is_zero():
        return True
    ok, _ = check_Yo_conditions(c, params, seed=seed)
    if not ok:
        return False
    c_inj = dualize_complex(c)
    op_u = opposite_algebra(ualg)
    verdict, _ = in_Y(c_inj, op_u[0], params, seed=seed)
    return verdict


# -- Hom spaces of complexes -------------------------------------------------


def hom_complexes(c: ComplexOfGraded, c2: ComplexOfGraded):
    """Canonical basis of the chain maps c -> c2 (degree-0 everywhere)."""
    if c.period != c2.period:
        raise ComplexError("period mismatch")
    positions = sorted(set(c.positions()) | set(c2.positions()))
    bases = {}
    offs = {}
    total = 0
    for k in positions:
        b = hom_space(c.component(k), c2.component(k))
        if b:
            bases[k] = b
            offs[k] = total
            total += len(b)
    if total == 0:
        return []
    rows = []
    p = c.p
    for k in positions:
        src = c.component(k)
        tgt2 = c2.component(k + 1)
        shape_degs = sorted(set(src.degrees()) | set(tgt2.degrees()))
        n_entries = sum(src.dim(d) * tgt2.dim(d) for d in shape_degs)
        if n_entries == 0:
            continue
        block = np.zeros((n_entries, total), dtype=np.int64)
        nonzero = False
        if (k + 1) in bases:
            d1 = c.diff(k)
            for i, f in enumerate(bases[k + 1]):
                comp = d1.compose(f)
                vec = _stack_entries(comp, shape_degs, src, tgt2)
                if vec.any():
                    nonzero = True
                block[:, offs[k + 1] + i] = vec
        if k in bases:
            d2 = c2.diff(k)
            for i, f in enumerate(bases[k]):
                comp = f.compose(d2)
                vec = _stack_entries(comp, shape_degs, src, tgt2)
                if vec.any():
                    nonzero = True
                block[:, offs[k] + i] = (block[:, offs[k] + i] - vec) % p
        if nonzero:
            rows.append(block % p)
    if rows:
        sys_mat = np.concatenate(rows, axis=0)
        ker = linalg.null_space(sys_mat, p)
    else:
        ker = Subspace.full(total, p)
    out = []
    for coef in ker.basis:
        fam = {}
        for k, b in bases.items():
            mats: dict = {}
            for f, ci in zip(b, coef[offs[k]: offs[k] + len(b)]):
                if not ci:
                    continue
                for d, mmat in f.mats.items():
                    mats[d] = (mats.get(d, 0) + int(ci) * mmat) % p
            fam[k] = GradedMorphism(c.component(k), c2.component(k), mats)
        out.append(fam)
    return out


def _stack_entries(f: GradedMorphism, degs, src, tgt) -> np.ndarray:
    parts = []
    for d in degs:
        m = f.mat(d)
        if m.shape != (src.dim(d), tgt.dim(d)):
            m = zeros(src.dim(d), tgt.dim(d))
        parts.append(m.reshape(-1))
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def iso_complexes(c: ComplexOfGraded, c2: ComplexOfGraded,
                  seed: int = 0) -> bool:
    """Existence of an invertible chain map, decided exactly."""
    positions = sorted(set(c.positions()) | set(c2.positions()))
    for k in positions:
        a, b = c.component(k), c2.component(k)
        for d in set(a.degrees()) | set(b.degrees()):
            if a.dim(d) != b.dim(d):
                return False
            if sorted(a.verts_at(d)) != sorted(b.verts_at(d)):
                return False
    if c.is_zero():
        return True
    basis = hom_complexes(c, c2)
    if not basis:
        return False

    def invertible(fam) -> bool:
        for k in positions:
            f = fam.get(k)
            if f is None:
                if not c.component(k).is_zero():
                    return False
                continue
            if not f.is_iso():
                return False
        return True

    for fam in basis:
        if invertible(fam):
            return True
    rng = np.random.default_rng(seed)
    p = c.p
    for _ in range(64):
        coef = rng.integers(0, p, size=len(basis))
        fam = {}
        for k in positions:
            mats: dict = {}
            for bfam, ci in zip(basis, coef):
                f = bfam.get(k)
                if f is None or not ci:
                    continue
                for d, mmat in f.mats.items():
                    mats[d] = (mats.get(d, 0) + int(ci) * mmat) % p
            fam[k] = GradedMorphism(c.component(k), c2.component(k), mats)
        if invertible(fam):
            return True
    return False
