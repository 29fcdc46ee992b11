"""Cochain n-complexes and 2-complexes of graded modules.

Holds the two functors from graded modules over the dual into complexes of
modules over the base algebra (tensor flavour, projective terms; Hom
flavour, almost injective terms), linearity certificates, the contraction
of n-complexes to 2-complexes, the explicit equivalence between the
distinguished module subcategory and the liftable 2-complexes (in both the
injective and the projective pictures), module extraction back out of a
2-complex, Hom spaces of complexes, and the check that a given family of
maps is an isomorphism of complexes.  No isomorphism is searched for: the
callers know their witnesses.

Positions index cochain degree; each component is a GradedModule over the
base algebra and each differential a degree-0 morphism to the next
position.  Complexes built here have honestly finite components, so the
d^n = 0 and d^2 = 0 conditions are checked exactly.

Every differential between (co)free modules here (the functors psi and nu,
both differentials of the equivalence F, and the arrow actions of the
cofree modules) is built by one helper, `_pair_matrix`.  The bases of such
modules are indexed by pairs (u, v): an element of the base algebra and a
basis element of a module component.  A differential is a sum of terms
L (x) R, multiplication in the base algebra tensored with a module action,
pulled back through the pair indices.
"""
from __future__ import annotations

import numpy as np

from . import linalg
from .linalg import Subspace, zeros
from .algebra import DegreeMap, _check_size, in_u_grading
from .grmod import (
    GradedModule,
    GradedMorphism,
    ModuleError,
    _radical_rrefs,
    checked_dual,
    combine_mats,
    free_module,
    graded_dual,
    hom_space,
    kernel_bases,
    kernel_condition_holds,
    l_condition,
    morphism_image,
    mu1,
    mu1_kernel,
    mu1_preimage,
    opposite_algebra,
    projective_cover,
    socle_subspaces,
    stacked_action,
    submodule_from_bases,
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
            if any(m.any() for m in f.stored_mats().values()):
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
        if any(m.any() for m in f.stored_mats().values()):
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
    diffs = {}
    for k in mod.degrees():
        if (k + 1) not in comps:
            continue
        src, tgt = comps[k], comps[k + 1]
        acts = _arrow_acts(mod, k, range(lam.quiver.arrow_count))
        mats = {}
        for d, rows in src.free_index.items():
            cols = tgt.free_index.get(d)
            if cols is None:
                continue
            lmul = lam.mult(1, d + k)  # lmul[a]: Lam_{d+k} -> Lam_{d+k+1}
            m = _pair_matrix(rows, cols,
                             [(act, lmul[ai]) for ai, act in enumerate(acts)],
                             lam.p)
            if m.any():
                mats[d] = m
        diffs[k] = GradedMorphism(src, tgt, mats)
    return ComplexOfGraded(lam, lam.pres.n, comps, diffs)


def _pair_matrix(src_pairs, tgt_pairs, terms, p: int) -> np.ndarray:
    """The matrix of a map between spaces whose bases are indexed by pairs.

    Row r is the pair (u_r, v_r) and column c the pair (u'_c, v'_c); entry
    (r, c) is the sum over (L, R) in `terms` of L[u_r, u'_c] * R[v_r, v'_c]
    mod p, one gather of each factor per term.  The sum runs in int64 while
    p*(p-1) <= 2**63 - 1, the bound of `linalg.rref` and `linalg.mat_mul`,
    and on Python integers above it, so it is exact at every p < 2**63.
    """
    u, v = np.asarray(src_pairs, dtype=np.intp).reshape(-1, 2).T
    u2, v2 = np.asarray(tgt_pairs, dtype=np.intp).reshape(-1, 2).T
    dtype = np.int64 if p * (p - 1) <= linalg._INT64_MAX else object
    out = np.zeros((u.size, u2.size), dtype=dtype)
    for left, right in terms:
        out = (out + left[np.ix_(u, u2)].astype(dtype, copy=False)
               * right[np.ix_(v, v2)].astype(dtype, copy=False)) % p
    return out.astype(np.int64)


def _arrow_acts(mod: GradedModule, d: int, arrows) -> list:
    """The actions M_d -> M_{d+1} of the given arrows, in that order."""
    gen_of = {g.basis_index: gi for gi, g in enumerate(mod.gens)
              if g.degree == 1}
    return [mod.act(gen_of[ai], d) for ai in arrows]


def cofree_index(lam, vlist) -> dict:
    """The basis of `cofree_module(lam, vlist)`: per degree e, the pairs
    (b, x) with b a basis element of Lambda_{-e} ending at the vertex of x."""
    index = {}
    for e in range(-_lam_top(lam), 1):
        pairs = [(bi, xi) for bi, (_, v) in enumerate(lam.basis_pairs(-e))
                 for xi, xv in enumerate(vlist) if xv == v]
        if pairs:
            index[e] = pairs
    return index


def cofree_module(lam, vlist) -> GradedModule:
    """Hom over the degree-0 part from Lambda into a vertex-labelled space.

    Degree e holds pairs (b, x) with b a basis element of Lambda_{-e} ending
    at the vertex of x; the pair sits at the starting vertex of b.  The
    action of an arrow precomposes with left multiplication.

    Built once per (algebra, vertex tuple) and memoized on the algebra, so
    a model lives and dies with it; callers only read it.
    """
    models = getattr(lam, "_cofree_models", None)
    if models is None:
        models = lam._cofree_models = {}
    key = tuple(vlist)
    if key not in models:
        models[key] = _build_cofree(lam, key)
    return models[key]


def _build_cofree(lam, vlist) -> GradedModule:
    index = cofree_index(lam, vlist)
    verts = {}
    for e, pairs in index.items():
        starts = lam.basis_pairs(-e)
        verts[e] = tuple(starts[bi][0] for bi, _ in pairs)
    actions = {}
    ident = linalg.eye(len(vlist))
    for gi, g in enumerate(lam.generators()):
        for e, rows in index.items():
            cols = index.get(e + 1)
            if not cols:
                continue
            # arrow times Lam_{-e-1} -> Lam_{-e}, read backwards
            lmul = lam.mult(1, -e - 1)[g.basis_index]
            m = _pair_matrix(rows, cols, [(lmul.T, ident)], lam.p)
            if m.any():
                actions[(gi, e)] = m
    out = GradedModule._adopt(lam, verts, actions)
    out.hom_index = index
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
        mats = _hom_step(lam, _arrow_acts(mod, j, twist), j,
                         bases[j], bases[j + 1])
        diffs[j] = GradedMorphism._adopt(comps[j], comps[j + 1], mats)
    return ComplexOfGraded(lam, lam.pres.n, comps, diffs)


def _hom_step(lam, acts, s: int, bsrc, btgt) -> dict:
    """The single Hom-functor step from the cofree model bsrc placed at s to
    btgt placed at s + 1: (df)(a) = sum over arrows of f(a abar) acted on by
    the arrow's action in `acts`.  Per-degree matrices."""
    mats = {}
    for e1, rows in bsrc.hom_index.items():  # base degree e holds Lam_{-e}
        cols = btgt.hom_index.get(e1 + 1)
        if not cols:
            continue
        rmul = lam.mult(-e1 - 1, 1)  # rmul[:, a]: Lam_{-e1-1} -> Lam_{-e1}
        m = _pair_matrix(rows, cols,
                         [(rmul[:, ai].T, act) for ai, act in enumerate(acts)],
                         lam.p)
        if m.any():
            mats[e1 - s] = m
    return mats


# -- linearity certificates --------------------------------------------------


def certify_linear(c: ComplexOfGraded, flavor: str, degree_of=None):
    """Certificates per position, or None if some component is not linear.

    Each witness is an isomorphism from a model onto the component, read off
    one canonical map: no Hom space is solved.  Projective flavour:
    generated purely in the stated degree.  The cover map from the
    projective cover (truncated at the support top) is onto, so it is the
    witness exactly when the dimensions agree in every degree.  Almost
    injective flavour: cogenerated purely in the stated degree, where the
    component must end.  The envelope map into the cofree module on that
    degree is the identity there, so it is injective exactly when the socle
    lies there; its inverse is the witness when the dimensions agree, and
    the certificate keeps the envelope too (None in the projective
    flavour)."""
    if degree_of is None:
        degree_of = lambda k: -k
    out = {}
    for k in c.positions():
        comp = c.modules[k]
        want = degree_of(k)
        if flavor == "projective":
            model, witness, mults = projective_cover(comp)
            envelope = None
            if {d for _, d in mults} != {want}:
                return None
        elif flavor == "injective":
            if comp.support_top() != want:
                return None
            model, envelope, mults = _cofree_envelope(comp, want)
        else:
            raise ComplexError(f"unknown flavour {flavor!r}")
        if any(model.dim(d) != comp.dim(d)
               for d in set(model.degrees()) | set(comp.degrees())):
            return None
        if flavor == "injective":
            try:
                witness = envelope.inverse()
            except ModuleError:
                return None
        out[k] = {"mults": mults, "witness": witness, "envelope": envelope}
    return out


def _cofree_envelope(comp: GradedModule, want: int):
    """The cofree model I on the top of a component ending in degree
    `want`, the envelope map comp -> I, m -> (b -> the top part of m.b), and
    the top's (vertex, degree) pairs.  Entry (r, (b, x)) in degree d is
    coordinate x of comp_d[r] times the basis element b of Lam_{want-d}."""
    base = cofree_module(comp.algebra, comp.verts_at(want))
    model = base.shift(-want)
    mats = {}
    for e, pairs in base.hom_index.items():
        pairs = np.asarray(pairs, dtype=np.intp)
        acts = np.stack([comp.act_basis_element(-e, b, e + want)
                         for b in range(comp.algebra.dim(-e))])
        mats[e + want] = acts[pairs[:, 0], :, pairs[:, 1]].T
    mults = [(v, want) for v in comp.verts_at(want)]
    return model, GradedMorphism._adopt(comp, model, mats), mults


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
            ker = kernel_bases(c.diff(j))
            if ker:
                kmod, _ = submodule_from_bases(comp, ker)
                if hom_space(dlam.shift(j), kmod):
                    return False
        if (j - params.m) % params.n != 0 and not _socles_hit(c, j):
            return False
    return True


def _socles_hit(c: ComplexOfGraded, k: int) -> bool:
    """The socle of the component at k lies in the image of d_{k-1}."""
    comp = c.modules[k]
    img = morphism_image(c.diff(k - 1))
    for d, s in socle_subspaces(comp).items():
        tgt = img.get(d, Subspace.zero(comp.dim(d), comp.p))
        if not tgt.contains(s):
            return False
    return True


def _coregular(lam) -> GradedModule:
    """D(Lambda) as a right module, cogenerated in degree 0."""
    return cofree_module(lam, tuple(range(lam.nvert)))


# -- contractions ------------------------------------------------------------


def contract_H(c: ComplexOfGraded, m: int, n: int) -> ComplexOfGraded:
    """Keep positions in the image of the regrading; odd differentials are
    the (n-1)-fold composites between consecutive kept positions."""
    return _contract(c, n, DegreeMap(m, n).delta)


def contract_G(c: ComplexOfGraded, m: int, n: int) -> ComplexOfGraded:
    """Projective-side contraction: position 2j keeps -m + jn, position
    2j - 1 keeps -m + jn - 1; even differentials are (n-1)-fold composites."""
    delta = DegreeMap(m, n).delta
    return _contract(c, n, lambda pos: -delta(-pos))


def _contract(c: ComplexOfGraded, n: int, src_of) -> ComplexOfGraded:
    """Position j keeps the component of c at src_of(j), with the composite
    of the differentials of c from there up to src_of(j + 1), where
    src_of(j + 2) = src_of(j) + n."""
    if not c.positions():
        return zero_complex(c.algebra, 2)
    lo, hi = (2 * ((k - src_of(0)) // n)
              for k in (min(c.positions()), max(c.positions())))
    comps, diffs = {}, {}
    for pos in range(lo - 2, hi + 4):
        src = src_of(pos)
        comps[pos] = c.component(src)
        diffs[pos] = composite_diff(c, src, src_of(pos + 1) - src)
    return ComplexOfGraded(c.algebra, 2, comps, diffs)


# -- the explicit equivalence (injective picture) ----------------------------


def _u_module_as_dual_module(mod: GradedModule) -> GradedModule:
    """Reinterpret a module over the support-restricted algebra as a module
    over the full dual (valid when n = 2, where the two coincide).  The
    generators of U start with those of the dual, in order."""
    dual = mod.algebra.dual
    narrows = len(dual.generators())
    return GradedModule(dual, dict(mod.verts),
                        {(gi, d): a for (gi, d), a
                         in mod.stored_actions().items() if gi < narrows})


def _mu1_data(mod: GradedModule, s: int):
    """The multiplication mu_1: X_s (x) dual_1 -> X_{s+1}: the pairs of its
    domain, a canonical preimage matrix for its targets and a basis of its
    kernel, as the module keeps them (`grmod.mu1`).  Raises unless mu_1 is
    surjective."""
    pre = mu1_preimage(mod, s)
    if pre is None:
        raise ComplexError(
            f"level {s}: the degree-1 multiplication is not surjective")
    return mu1(mod, s)[0], pre, mu1_kernel(mod, s)


def _mu1_pullbacks(mod: GradedModule, s: int, t1, pre) -> list:
    """Per path p of length n-1 in the base quiver (`_path_classes`): the
    matrix P such that P @ A is the map X_{s+1} -> X_{s+n} that decomposes
    y through the degree-1 multiplication mu_1: X_s (x) dual_1 -> X_{s+1}
    by its canonical preimage pre, then acts by the class of (p alpha)^o.
    A is the stacked degree-n action at s (`grmod.stacked_action`).

    The family of p sends arrows a to vectors c_a over the degree-n basis;
    its matrix Z has a row per pair r = (i, a) of mu_1's domain t1, with
    c_a[w] in column w * dim X_s + i, so row r of Z @ A is x_i acted on by
    c_a; P = pre^T Z."""
    ds = mod.dim(s)
    out = []
    for fam in _path_classes(mod.algebra):
        z = zeros(len(t1), mod.algebra.dual.dim(mod.algebra.n) * ds)
        for r, (i, ai) in enumerate(t1):
            if ai in fam:
                z[r, i::ds] = fam[ai]
        out.append(linalg.mat_mul(pre.T, z, mod.p))
    return out


def _path_classes(ualg) -> list:
    """Per path p of length n-1 in the base quiver: the class in the dual
    of (p alpha)^o = alpha^o p^o for each arrow alpha with t(p) = o(alpha).
    Built once per algebra and kept on it, as `cofree_module` keeps its
    models; callers only read it."""
    cached = getattr(ualg, "_path_class_rows", None)
    if cached is None:
        cached = ualg._path_class_rows = _build_path_classes(ualg)
    return cached


def _build_path_classes(ualg) -> list:
    from .quiver import Path, enumerate_paths
    dual, n = ualg.dual, ualg.n
    q = dual.quiver.opposite()
    out = []
    for pa in enumerate_paths(q, n - 1):
        arrows = [ai for ai in range(q.arrow_count)
                  if q.arrow_source(ai) == pa.target_in(q)]
        out.append(dict(zip(arrows, dual.path_classes(n, [
            Path(q.arrow_target(ai), (ai,) + tuple(reversed(pa.arrows)))
            for ai in arrows]))))
    return out


def _xi_matrices(mod: GradedModule, s: int) -> list:
    """Per path p of length n-1 in the base quiver: the matrix of
    y (x) p^o -> decomposition of y through level s, then the degree-n
    action of the class of (p alpha)^o.  Raises unless the result does not
    depend on the chosen decomposition: the kernel condition
    (`grmod.l_condition`)."""
    t1, pre, _ = _mu1_data(mod, s)
    if not kernel_condition_holds(mod, s):
        raise ComplexError(
            f"level {s}: contraction map depends on the chosen "
            "decomposition (kernel condition fails)")
    acts = stacked_action(mod, s)
    return [linalg.mat_mul(pz, acts, mod.p)
            for pz in _mu1_pullbacks(mod, s, t1, pre)]


def equivalence_F(mod: GradedModule, lam, params,
                  allow_windowed: bool = False) -> ComplexOfGraded:
    """The explicit equivalence: a distinguished module over the support-
    restricted dual becomes a 2-complex of almost injective modules."""
    from .grmod import in_L
    _require_u_module(mod)
    if not in_L(mod, params):
        raise ComplexError("module is not in the distinguished subcategory")
    return _F_of_member(mod, lam, params, allow_windowed)


def _require_u_module(mod: GradedModule) -> None:
    if not in_u_grading(mod.algebra):
        raise ComplexError(
            "F needs a module over the support-restricted dual (tag 'u')")


def _F_of_member(mod: GradedModule, lam, params,
                 allow_windowed: bool) -> ComplexOfGraded:
    """`equivalence_F` of a module over U already known to be in L."""
    n = params.n
    m = params.m
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
    arrows = range(mod.algebra.quiver.arrow_count)
    for j in levels:
        s = m + j * n
        # even differential: the Hom-functor single step
        if 2 * j in comps and 2 * j + 1 in comps:
            mats = _hom_step(lam, _arrow_acts(mod, s, arrows), s,
                             bases[2 * j], bases[2 * j + 1])
            diffs[2 * j] = GradedMorphism._adopt(comps[2 * j],
                                                 comps[2 * j + 1], mats)
        # odd differential: contract through xi
        if 2 * j + 1 in comps and 2 * j + 2 in comps:
            mats = _model_odd_diff(mod, lam, s, bases[2 * j + 1],
                                   bases[2 * j + 2])
            diffs[2 * j + 1] = GradedMorphism._adopt(comps[2 * j + 1],
                                                     comps[2 * j + 2], mats)
    return ComplexOfGraded(lam, 2, comps, diffs)


def _model_odd_diff(mod: GradedModule, lam, s: int, bsrc, btgt) -> dict:
    """The odd differential of the explicit equivalence at level s, between
    the given model spaces, as plain per-degree matrices."""
    xi = _xi_matrices(mod, s)
    mats = {}
    for d, rows, cols, lefts in _odd_steps(lam, mod.algebra, s, bsrc, btgt):
        m = _pair_matrix(rows, cols, list(zip(lefts, xi)), lam.p)
        if m.any():
            mats[d] = m
    return mats


def _odd_steps(lam, ualg, s: int, bsrc, btgt):
    """Per degree d of the odd differential at level s between the cofree
    models: d, the row and column pairs, and per path p of length n-1 in
    the base quiver the transpose of right multiplication by p."""
    from .quiver import enumerate_paths
    n = ualg.n
    classes = lam.path_classes(
        n - 1, enumerate_paths(ualg.dual.quiver.opposite(), n - 1))
    for e1, rows in bsrc.hom_index.items():  # base degree e holds Lam_{-e}
        cols = btgt.hom_index.get(e1 + n - 1)
        if cols:
            yield e1 - s - 1, rows, cols, [
                lam.right_mult_matrix(-e1 - n + 1, n - 1, cls).T
                for cls in classes]


# -- extraction (inverse direction) ------------------------------------------


def _check_conditions_ab(c: ComplexOfGraded, params):
    """Conditions of the essential-image description: components almost
    injective cogenerated at the regraded degrees, and odd socles inside
    the image of the previous differential.  Returns certificates."""
    dmap = DegreeMap(params.m, params.n)
    cert = certify_linear(c, "injective",
                          degree_of=lambda k: -dmap.delta(k))
    if cert is None:
        return None
    for k in c.positions():
        if k % 2 == 1 and not _socles_hit(c, k):
            return None
    return cert


def extract_module(c: ComplexOfGraded, ualg, params) -> GradedModule:
    """Recover the distinguished module from a 2-complex in the essential
    image: the tops give the components, the even differentials give the
    degree-1 action, and the odd differentials determine the degree-n
    action by an exact linear solve."""
    return _extract(c, ualg, params)[0]


def _extract(c: ComplexOfGraded, ualg, params):
    """`extract_module`, and the models it read the module through
    (`_models`)."""
    n = params.n
    dmap = DegreeMap(params.m, n)
    cert = _check_conditions_ab(c, params)
    if cert is None:
        raise ComplexError("complex fails the essential-image conditions")
    models = _models(c, cert)
    verts = {dmap.delta(k): tuple(models[k][2]) for k in c.positions()}
    actions = _degree_one_actions(c, models, dmap, ualg)
    n_gens = {g.basis_index: gi for gi, g in enumerate(ualg.generators())
              if g.degree == n}
    if n == 2:
        # the degree-2 generator actions are the induced products
        prov = GradedModule(ualg.dual, verts, actions)
        for d in verts:
            if d + 2 not in verts:
                continue
            for w, gi in n_gens.items():
                a = prov.act_basis_element(2, w, d)
                if a.any():
                    actions[(gi, d)] = a
    else:
        _degree_n_actions(c, models, ualg, params, verts, actions, n_gens)
    out = GradedModule(ualg, verts, actions)
    bad = out.validate()
    if bad:
        raise ComplexError(f"extracted module fails validation: {bad[0]}")
    return out, models


def _models(c: ComplexOfGraded, cert) -> dict:
    """Per position of c: the canonical cofree model on the top vertices of
    its certificate, the witness from the model (shifted into place) onto
    the component, the top vertices, and the inverse of the witness, which
    is the envelope map the certificate kept (inverted here only for a
    certificate that kept none)."""
    models = {}
    for k in c.positions():
        vlist = [v for v, _ in cert[k]["mults"]]
        witness, back = cert[k]["witness"], cert[k].get("envelope")
        if back is None:
            back = witness.inverse()
        models[k] = (cofree_module(c.algebra, vlist), witness, vlist, back)
    return models


def _degree_one_actions(c: ComplexOfGraded, models, dmap, ualg) -> dict:
    """The degree-1 actions, read off the transported differentials at the
    positions whose successor sits one degree higher: the entry at
    (arrow b, x) -> (vertex of x b^o, x2) is the coefficient of x2 in x b^o.
    """
    one_gens = {g.basis_index: gi for gi, g in enumerate(ualg.generators())
                if g.degree == 1}
    q = ualg.dual.quiver.opposite()
    actions = {}
    for k in c.positions():
        s = dmap.delta(k)
        if (k + 1) not in models or dmap.delta(k + 1) != s + 1:
            continue
        mat = _transported_diff(c, k, models).mat(-s - 1)
        rows = np.asarray(models[k][0].hom_index.get(-1, []),
                          dtype=np.intp).reshape(-1, 2)   # (arrow b, x)
        cols = np.asarray(models[k + 1][0].hom_index[0],
                          dtype=np.intp).reshape(-1, 2)   # (vertex, x2)
        for ai in range(q.arrow_count):
            r, cx = rows[:, 0] == ai, cols[:, 0] == q.arrow_source(ai)
            a = zeros(len(models[k][2]), len(models[k + 1][2]))
            a[np.ix_(rows[r, 1], cols[cx, 1])] = mat[np.ix_(r, cx)]
            if a.any():
                actions[(one_gens[ai], s)] = a
    return actions


def _degree_n_actions(c: ComplexOfGraded, models, ualg, params, verts,
                      actions: dict, n_gens: dict) -> None:
    """Add the degree-n actions (n > 2) to `actions`: at each level s by an
    exact linear solve against the odd differential, and one degree above
    it as forced by the relations."""
    lam = c.algebra
    p = lam.p
    n, m = params.n, params.m
    dual = ualg.dual
    nd = dual.dim(n)
    prov = GradedModule(ualg, verts, dict(actions))
    for k in c.positions():
        if k % 2 == 0 or (k + 1) not in models:
            continue
        s = m + (k - 1) // 2 * n
        dim_s, dim_sn = prov.dim(s), len(models[k + 1][2])
        if prov.dim(s + 1) == 0 or nd * dim_s * dim_sn == 0:
            continue
        sol = _odd_solution(c, models, prov, k, s)
        if sol is None:
            raise ComplexError(
                f"no degree-{n} action matches the odd differential at "
                f"position {k}")
        for w, a in enumerate(sol.reshape(nd, dim_s, dim_sn)):
            if a.any():
                actions[(n_gens[w], s)] = a
    # the degree-n action one step above each level is forced by the
    # relations: for y = sum of x_a acted by arrows, y * w decomposes
    # through the degree-(n+1) component.  y reads the degree-n actions at
    # the levels, found above; mu_1 reads the degree-1 actions alone, so it
    # is prov's.
    dmap = DegreeMap(m, n)
    levels = sorted({m + ((dmap.delta(k) - m) // n) * n for k in c.positions()})
    cur_mod = GradedModule(ualg, verts, dict(actions))
    for s in levels:
        if cur_mod.dim(s + 1) == 0 or cur_mod.dim(s + 1 + n) == 0:
            continue
        t1, pre, ker = _mu1_data(prov, s)
        for w in range(nd):
            acts = {}
            for _, ai in t1:
                if ai not in acts:
                    vec = ualg.mult(1, n)[ai, w]
                    acts[ai] = cur_mod.act_element(n + 1, vec, s)
            # row r = (i, a) holds x_i a w; pre^T sends it through mu_1
            y = np.stack([acts[ai][i] for i, ai in t1])
            if linalg.sparse_mul(ker.basis, y, p).any():
                raise ComplexError(
                    f"level {s}: induced degree-{n} action is not "
                    "well defined")
            amat = linalg.mat_mul(pre.T, y, p)
            if amat.any():
                actions[(n_gens[w], s + 1)] = amat


def _odd_solution(c: ComplexOfGraded, models, prov: GradedModule, k: int,
                  s: int):
    """The stacked degree-n action A at level s (`grmod.stacked_action`)
    that the odd differential at position k asks for, or None if none does.

    Entry ((b, x), (a, x2)) of the differential in degree d is the sum over
    wi of S[(b, x), (a, wi)] * A[wi, x2] (see _mu1_pullbacks), and for all
    x2 at one vertex v the pairs (a, x2) run over the same a.  So the
    columns A_v of A at v solve [C; S_v] @ A_v = [0; T_v], one right-hand
    side per x2, where C @ A = 0 is the kernel condition
    (`grmod.l_condition`).  Free unknowns are 0, as in one solve over every
    entry of A, whose unknowns split into these blocks in the same order."""
    lam, ualg = c.algebra, prov.algebra
    p, dual = lam.p, ualg.dual
    nwi = dual.dim(ualg.n) * prov.dim(s)
    x2_vert = np.asarray(models[k + 1][2], dtype=np.intp)
    t1, pre, ker = _mu1_data(prov, s)
    coefs = _mu1_pullbacks(prov, s, t1, pre)
    t = _transported_diff(c, k, models)
    steps = [(d, rows, np.asarray(cols, dtype=np.intp), lefts, t.mat(d))
             for d, rows, cols, lefts in _odd_steps(
                 lam, ualg, s, models[k][0], models[k + 1][0])]
    cond = l_condition(prov, s, t1, ker)
    cond = cond[cond.any(axis=1)]
    out = zeros(nwi, x2_vert.size)
    for v in np.flatnonzero(np.bincount(x2_vert)).tolist():
        at = np.flatnonzero(x2_vert == v)
        lhs, rhs, size = [cond], [zeros(len(cond), at.size)], 0
        for d, rows, cols, lefts, mat in steps:
            # the pairs (a, x2) come a by a, and for one a by ascending x2
            grid = np.flatnonzero(x2_vert[cols[:, 1]] == v).reshape(-1,
                                                                    at.size)
            size += len(rows) * grid.shape[0] * (nwi + at.size)
            _check_size(size, "degree-n system", d)
            lhs.append(_pair_matrix(
                rows, [(a, wi) for a in cols[grid[:, 0], 0].tolist()
                       for wi in range(nwi)], list(zip(lefts, coefs)),
                p).reshape(-1, nwi))
            rhs.append(mat[:, grid].reshape(-1, at.size))
        sol = linalg.solve_matrix(np.concatenate(lhs), np.concatenate(rhs), p)
        if sol is None:
            return None
        out[:, at] = sol
    return out


def _transported_diff(c: ComplexOfGraded, k: int, models) -> GradedMorphism:
    """The differential at k conjugated into the canonical model spaces:
    the witness at k, then the differential, then the inverse of the
    witness at k + 1 (`_models`)."""
    return models[k][1].compose(c.diff(k)).compose(models[k + 1][3])


def in_Y(c: ComplexOfGraded, ualg, params):
    """Essential-image membership: c is in the image exactly when it is F
    applied to the module x read back off it.  Returns (verdict, witness
    module x).

    The conditions are certified once, inside the extraction, whose
    witnesses (inverse envelope maps) carry the cofree models F(x) is built
    on onto c.  So the round trip needs no search: c is in the image
    exactly when those witnesses form an isomorphism of complexes
    F(x) -> c.  x is read in the top bases, so F(x) gives back x, sorted by
    vertex."""
    if c.is_zero():
        return True, zero_module(ualg)
    try:
        x, models = _extract(c, ualg, params)
        fx = equivalence_F(x, c.algebra, params)
    except (ComplexError, ModuleError):
        return False, None
    if chain_iso_failure(fx, c, {k: w for k, (_, w, _, _) in models.items()}):
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
            src, tgt, {-d: f.mat(d).T % c.p for d in f.stored_mats()})
    return ComplexOfGraded(op_alg, c.period, comps, diffs)


def equivalence_F_dual(mod: GradedModule, lam, params) -> ComplexOfGraded:
    """The projective-side equivalence: transport through the duality,
    apply the injective-side construction over the opposite algebra, and
    dualize the resulting complex back.  D(mod) is built once, and in_L
    (which in_Lo decides on it) is decided once."""
    from .grmod import in_L
    xd = checked_dual(mod, params)
    if not in_L(xd, params):
        raise ComplexError("module is not in the dual distinguished class")
    _require_u_module(xd)
    c_inj = _F_of_member(xd, opposite_algebra(lam)[0], params, False)
    c_proj = dualize_complex(c_inj)
    # assert the output conditions of the projective picture
    ok, why = check_Yo_conditions(c_proj, params)
    if not ok:
        raise ComplexError(f"projective output conditions failed: {why}")
    return c_proj


def check_Yo_conditions(c: ComplexOfGraded, params):
    """Conditions of the projective essential image: components projective
    generated in the regraded degrees, and odd kernels inside the radical
    (first condition only when n = 2)."""
    dmap = DegreeMap(params.m, params.n)
    cert = certify_linear(c, "projective",
                          degree_of=lambda k: dmap.delta(-k))
    if cert is None:
        return False, "a component is not projective at the stated degree"
    if params.n == 2:
        return True, ""
    for k in c.positions():
        if k % 2 == 0:
            continue
        rad = _radical_rrefs(c.modules[k])
        for d, ker in kernel_bases(c.diff(k)).items():
            if not rad[d].contains(ker):
                return False, f"kernel at position {k} escapes the radical"
    return True, ""


def in_Yo(c: ComplexOfGraded, ualg, params) -> bool:
    """Projective essential-image membership via the duality transport."""
    if c.is_zero():
        return True
    ok, _ = check_Yo_conditions(c, params)
    if not ok:
        return False
    c_inj = dualize_complex(c)
    op_u = opposite_algebra(ualg)
    verdict, _ = in_Y(c_inj, op_u[0], params)
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
    p = c.p
    rows = [zeros(0, total)]
    for k in positions:
        src, tgt2 = c.component(k), c2.component(k + 1)
        degs = sorted(set(src.degrees()) | set(tgt2.degrees()))
        # column j: the chain condition d f_{k+1} - f_k d' of basis map j
        block = zeros(sum(src.dim(d) * tgt2.dim(d) for d in degs), total)
        for i, f in enumerate(bases.get(k + 1, ())):
            block[:, offs[k + 1] + i] = _stack_entries(c.diff(k).compose(f),
                                                       degs, src, tgt2)
        for i, f in enumerate(bases.get(k, ())):
            block[:, offs[k] + i] -= _stack_entries(f.compose(c2.diff(k)),
                                                    degs, src, tgt2)
        if block.any():
            rows.append(block % p)
    ker = linalg.null_space(np.concatenate(rows), p)
    return [{k: GradedMorphism(c.component(k), c2.component(k),
                               combine_mats(coef[offs[k]: offs[k] + len(b)],
                                            [f.stored_mats() for f in b], p))
             for k, b in bases.items()} for coef in ker.basis.dense()]


def _stack_entries(f: GradedMorphism, degs, src, tgt) -> np.ndarray:
    parts = []
    for d in degs:
        m = f.mat(d)
        if m.shape != (src.dim(d), tgt.dim(d)):
            m = zeros(src.dim(d), tgt.dim(d))
        parts.append(m.reshape(-1))
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


# -- isomorphisms of complexes, checked on a known witness -------------------


def chain_iso_failure(c: ComplexOfGraded, c2: ComplexOfGraded, fam: dict):
    """None when fam = {position k: map c_k -> c2_k} is an isomorphism of
    complexes c -> c2, else the first failure: its condition, position and
    degree.  Positions and degrees are scanned upwards, and the conditions
    are, in order: "positions" (c and c2 are nonzero at different positions;
    the degree is the lowest of the component without a partner),
    "invertible" (the map's matrix in that degree), "module-map" (the map
    mixes vertices in that degree, or does not commute with the action of a
    generator from it), and, once every map passed, "differential"
    (d f_{k+1} != f_k d' in that degree)."""
    def failure(condition, k, d):
        return {"condition": condition, "position": k, "degree": d}
    pos = c.positions()
    if pos != c2.positions():
        k = min(set(pos) ^ set(c2.positions()))
        return failure("positions", k, (c.modules.get(k) or c2.modules[k])
                       .degrees()[0])
    maps = {}
    for k in pos:
        a, b = c.modules[k], c2.modules[k]
        f = GradedMorphism(a, b, fam[k].stored_mats() if k in fam else {})
        for d in sorted(set(a.degrees()) | set(b.degrees())):
            m = f.mat(d)
            if a.dim(d) != b.dim(d) or m.shape != (a.dim(d), b.dim(d)) \
                    or linalg.inverse(m, c.p) is None:
                return failure("invertible", k, d)
            if m[np.not_equal.outer(a.verts_at(d), b.verts_at(d))].any():
                return failure("module-map", k, d)
        d = f.noncommuting_degree()
        if d is not None:
            return failure("module-map", k, d)
        maps[k] = f
    for k in pos:
        if k + 1 in maps:
            lhs = c.diff(k).compose(maps[k + 1])
            rhs = maps[k].compose(c2.diff(k))
            for d in c.modules[k].degrees():
                if not np.array_equal(lhs.mat(d), rhs.mat(d)):
                    return failure("differential", k, d)
    return None
