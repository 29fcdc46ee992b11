"""Cochain n-complexes and 2-complexes of graded modules.

Holds the two functors from graded modules over the dual into complexes of
modules over the base algebra (tensor flavour, projective terms; Hom
flavour, almost injective terms), the one (injective) linearity
certificate, the contraction of n-complexes to 2-complexes, the explicit
equivalence between the distinguished module subcategory and the liftable
2-complexes, module extraction back out of a 2-complex (the degree-1
action read off the even differentials, the degree-n action off the odd
ones, nothing solved), Hom spaces of complexes (solved as one sparse
system with the differentials as links, the builder of module Hom
spaces), and the check that a given family of maps is an isomorphism of
complexes.  No isomorphism is searched for: the callers know their
witnesses.

The projective picture is read through the graded duality D and nothing
is certified on its side: its equivalence is D of the injective one over
the opposite algebra, checked before the dualization, and its membership
is that of D(c) in the injective picture (`dual_image_failure`, `in_Yo`).

Positions index cochain degree; each component is a GradedModule over the
base algebra and each differential a degree-0 morphism to the next
position.  Complexes built here have honestly finite components, so the
d^n = 0 and d^2 = 0 conditions are checked exactly.

Every map between (co)free modules here (the functors psi and nu, both
differentials of the equivalence F and its maps of modules, the arrow
actions of the cofree modules) is built by one helper, `_pair_map`, as a
reduced Sparse.  The bases of such modules are indexed by pairs (u, v): an
element of the base algebra and a basis element of a module component.  A
differential is a sum of terms L (x) R, multiplication in the base algebra
tensored with a module action, and each nonzero of L meets each nonzero of
R on the pair indices: no block is sized by them.  The complexes of cofree
models, nu and F at every n, are laid out by one builder,
`_cofree_complex`: position k holds the cofree model on the module's
labels in degree s_k (k for nu, delta(k) for F), shifted to s_k, and the
differential to k + 1 is the Hom step when s_{k+1} = s_k + 1, else F's odd
differential through xi from level s_k - 1.  So at n = 2, where
delta(k) = m + k, every step of F is a Hom step.
"""
from __future__ import annotations

import numpy as np

from . import linalg
from .linalg import Sparse, Subspace
from .algebra import (DegreeMap, compute_orthogonal, in_u_grading,
                      opposite_algebra, opposite_permutation)
from .grmod import (
    GradedModule,
    GradedMorphism,
    ModuleError,
    _frozen,
    _groups,
    _hom_families,
    _rows_times_basis_element,
    checked_dual,
    free_module,
    generators_of_degree,
    graded_dual,
    hom_space,
    kernel_bases,
    kernel_condition_holds,
    morphism_image,
    mu1,
    mu1_kernel,
    mu1_preimage,
    socle_subspaces,
    stacked_action,
    submodule_from_bases,
    zero_module,
)


class ComplexError(ValueError):
    pass


class WindowError(ComplexError):
    """An algebra not finite within the probed window: never a verdict."""


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


def settled_top(lam, allow_windowed: bool = False) -> int:
    """The top degree of the base algebra, where the cofree terms end: the
    last nonzero slice, once the algebra is probed to degree 4 max(n, 2).
    An algebra whose slices do not vanish by then is refused with a
    ComplexError, unless `allow_windowed` acknowledges it; its top is then
    the degree built so far, and what is built on it is cut there."""
    if lam.is_finite_dimensional(probe=4 * max(lam.pres.n, 2)):
        return lam.vanishing_degree() - 1
    if not allow_windowed:
        raise WindowError(
            "base algebra is not finite dimensional within the "
            "probed window; pass the windowed-dual acknowledgment")
    return lam._computed_to()


def psi(mod: GradedModule, lam, allow_windowed: bool = False) -> ComplexOfGraded:
    """Tensor functor: position k holds M_k (x) Lambda shifted to start in
    degree -k, with d(x (x) 1) = sum over arrows of x a^o (x) abar."""
    if not mod.is_valid():
        raise ModuleError("module failed validation")
    top = settled_top(lam, allow_windowed)
    comps = {}
    for k in mod.degrees():
        vs = mod.verts_at(k)
        comps[k] = free_module(lam, np.stack((vs, np.full_like(vs, -k)), 1),
                               -k + top)
    diffs = {}
    for k in mod.degrees():
        if (k + 1) not in comps:
            continue
        acts = _arrow_acts(mod, k, range(lam.quiver.arrow_count))
        # left multiplication by arrow a: Lam_{d+k} -> Lam_{d+k+1}
        diffs[k] = GradedMorphism(comps[k], comps[k + 1], _pair_maps(
            comps[k].free_index, comps[k + 1].free_index, 0, 0,
            lambda d: [(act, lam.left_mult(1, a, d + k))
                       for a, act in enumerate(acts)], lam.p))
    return ComplexOfGraded(lam, lam.pres.n, comps, diffs)


def _pair_map(src_pairs, tgt_pairs, terms, p: int) -> Sparse:
    """The map between spaces whose bases are indexed by pairs, as a reduced
    Sparse.  The pairs are (E, 2) intp arrays (`free_index`, `hom_index`):
    row r is (u_r, v_r), column c is (u'_c, v'_c), and entry (r, c) is the
    sum over (L, R) in `terms`, factors in either form, of
    L[u_r, u'_c] * R[v_r, v'_c] mod p.  Each nonzero of L meets each one of
    R, the row and column of the meeting are read off a grid over the
    factors' indices, and the products that land on both are summed once
    (`Sparse.from_entries`), exactly at every p < 2**63."""
    shape = (len(src_pairs), len(tgt_pairs))
    if not terms:
        return Sparse.zero(*shape)
    (left, right), at = terms[0], []
    for k, pairs in enumerate((src_pairs, tgt_pairs)):
        at.append(np.full((left.shape[k], right.shape[k]), -1, dtype=np.intp))
        at[k][pairs[:, 0], pairs[:, 1]] = np.arange(len(pairs))
    parts = []
    for left, right in terms:
        lf, rt = linalg.as_sparse(left, p), linalg.as_sparse(right, p)
        r = at[0][lf.rows[:, None], rt.rows]
        c = at[1][lf.cols[:, None], rt.cols]
        i, j = np.nonzero((r >= 0) & (c >= 0))
        parts.append((r[i, j], c[i, j],
                      linalg._mul_mod(lf.vals[i], rt.vals[j], p)))
    return Sparse.from_entries(shape, *map(np.concatenate, zip(*parts)), p)


def _pair_maps(src: dict, tgt: dict, step: int, shift: int, terms_of,
               p: int) -> dict:
    """Per degree e of the pair index `src` with e + step in `tgt`: the map
    from src[e] to tgt[e + step] with the terms terms_of(e) (`_pair_map`),
    keyed by e + shift, when it is not zero."""
    mats = {}
    for e, rows in src.items():
        if e + step in tgt:
            m = _pair_map(rows, tgt[e + step], terms_of(e), p)
            if m.any():
                mats[e + shift] = m
    return mats


def _arrow_acts(mod: GradedModule, d: int, arrows) -> list:
    """The actions M_d -> M_{d+1} of the given arrows, in that order."""
    gen_of = generators_of_degree(mod.algebra, 1)
    return [mod.sparse_act(gen_of[ai], d) for ai in arrows]


def cofree_index(lam, vlist) -> dict:
    """The basis of `cofree_module(lam, vlist)`: per degree e, the pairs
    (b, x) with b a basis element of Lambda_{-e} ending at the vertex of x,
    b by b and for one b by ascending x, as a read-only (E, 2) intp array.
    e runs down to minus the settled top (`settled_top`), a windowed
    algebra's built top included."""
    labels = np.asarray(vlist, dtype=np.intp)
    index = {}
    for e in range(-settled_top(lam, True), 1):
        ends = np.array([v for _, v in lam.basis_pairs(-e)], dtype=np.intp)
        b, x = np.nonzero(ends[:, None] == labels)
        if b.size:
            index[e] = _frozen(np.stack((b, x), 1))
    return index


def cofree_module(lam, vlist) -> GradedModule:
    """Hom over the degree-0 part from Lambda into a vertex-labelled space.

    Degree e holds pairs (b, x) with b a basis element of Lambda_{-e} ending
    at the vertex of x; the pair sits at the starting vertex of b.  The
    action of an arrow precomposes with left multiplication.  `hom_index`
    holds the pairs (`cofree_index`), in the form of `free_index`.

    Built once per (settled top, vertex labels) and kept in the algebra's
    memo, keyed by the labels as Python ints, so a model lives and dies
    with its algebra; callers only read it.  The algebra is probed first
    (`settled_top`), so a lazily built one, such as the opposite algebra
    of `dualize_complex`, gets its whole model and not one cut at the
    degree built so far; a windowed algebra gets a new model once its
    window grows.
    """
    labels = tuple(np.asarray(vlist, dtype=np.intp).tolist())
    return lam._memo(("cofree", settled_top(lam, True), labels),
                     lambda: _build_cofree(lam, labels))


def _build_cofree(lam, vlist) -> GradedModule:
    index = cofree_index(lam, vlist)
    verts = {e: np.array([u for u, _ in lam.basis_pairs(-e)], dtype=np.intp)
             [pairs[:, 0]] for e, pairs in index.items()}
    actions = {}
    ident = Sparse.identity(len(vlist))
    for gi, g in enumerate(lam.generators()):
        # arrow times Lam_{-e-1} -> Lam_{-e}, read backwards
        maps = _pair_maps(index, index, 1, 0, lambda e: [
            (lam.left_mult(1, g.basis_index, -e - 1).transpose(), ident)],
            lam.p)
        actions.update(((gi, e), m) for e, m in maps.items())
    out = GradedModule(lam, verts, actions)
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
    settled_top(lam, allow_windowed)
    arrows = range(lam.quiver.arrow_count) if _twist is None else _twist
    return _cofree_complex(mod, lam, lam.pres.n,
                           {d: d for d in mod.degrees()}, arrows)


def annihilates_orthogonal(mod: GradedModule, lam) -> bool:
    """Whether every element of the degree-n relation orthogonal acts as
    zero on the representation (i.e. it descends to the dual algebra): the
    oracle for `psi` and `nu` giving n-complexes."""
    orth = compute_orthogonal(lam).basis.dense()
    n = lam.pres.n
    read = np.flatnonzero(orth.any(axis=0)).tolist()  # basis elements used
    for d in mod.degrees():
        if not read or not mod.dim(d + n):
            continue
        products: dict = {}  # word products from degree d alone
        acts = np.stack([_rows_times_basis_element(
            mod, None, n, b, d, products).dense().reshape(-1) for b in read])
        if linalg.mat_mul(orth[:, read], acts, mod.p).any():
            return False
    return True


def _cofree_complex(mod: GradedModule, lam, period: int, degree_at: dict,
                    arrows) -> ComplexOfGraded:
    """The complex of cofree models of `nu` and F, position k in degree
    degree_at[k] (see the module docstring); the Hom steps (`_hom_step`)
    act by `arrows` in that order, the others are `_model_odd_diff`."""
    bases = {k: cofree_module(lam, mod.verts_at(s))
             for k, s in degree_at.items() if mod.dim(s)}
    comps = {k: base.shift(degree_at[k]) for k, base in bases.items()}
    diffs = {}
    for k, s in degree_at.items():
        if k not in bases or k + 1 not in bases:
            continue
        if degree_at[k + 1] == s + 1:
            mats = _hom_step(lam, _arrow_acts(mod, s, arrows), s,
                             bases[k], bases[k + 1])
        else:
            mats = _model_odd_diff(mod, lam, s - 1, bases[k], bases[k + 1])
        diffs[k] = GradedMorphism(comps[k], comps[k + 1], mats)
    return ComplexOfGraded(lam, period, comps, diffs)


def _hom_step(lam, acts, s: int, bsrc, btgt) -> dict:
    """The single Hom-functor step from the cofree model bsrc placed at s to
    btgt placed at s + 1: (df)(a) = sum over arrows of f(a abar) acted on by
    the arrow's action in `acts`.  Per-degree matrices."""
    # base degree e holds Lam_{-e}; right_mult by arrow a maps into it
    return _pair_maps(bsrc.hom_index, btgt.hom_index, 1, -s, lambda e: [
        (lam.right_mult(-e - 1, 1, a).transpose(), act)
        for a, act in enumerate(acts)], lam.p)


# -- linearity certificates --------------------------------------------------


def certify_linear(c: ComplexOfGraded, degree_of=None):
    """Certificates per position, or None if some component is not almost
    injective cogenerated purely in the stated degree, where it must end.

    This is the one linearity certificate: the projective picture is read
    through the graded duality D, which turns a component projective
    generated in degree e into one almost injective cogenerated in -e
    (`in_Yo`, `dual_image_failure`).  Each witness is an isomorphism from a
    model onto the component, read off one canonical map: no Hom space is
    solved.  The envelope map into the cofree module on the stated degree is
    the identity there, so it is injective exactly when the socle lies
    there; its inverse is the witness when the dimensions agree, and the
    certificate keeps the envelope too."""
    if degree_of is None:
        degree_of = lambda k: -k
    out = {}
    for k in c.positions():
        comp = c.modules[k]
        want = degree_of(k)
        if comp.support_top() != want:
            return None
        model, envelope, mults = _cofree_envelope(comp, want)
        if any(model.dim(d) != comp.dim(d)
               for d in set(model.degrees()) | set(comp.degrees())):
            return None
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
    coordinate x of comp_d[r] times the basis element b of Lam_{want-d}:
    column x of b's action (`grmod._rows_times_basis_element`)."""
    base = cofree_module(comp.algebra, comp.verts_at(want))
    model = base.shift(-want)
    mats = {}
    for e, pairs in base.hom_index.items():
        d, products = e + want, {}  # word products from degree d alone
        # the pairs (b, x) run b by b, and for one b by ascending x
        cut = np.searchsorted(pairs[:, 0], np.arange(comp.algebra.dim(-e) + 1))
        parts = [(_rows_times_basis_element(comp, None, -e, b, d, products)
                  .take_cols(pairs[lo:hi, 1]), lo) for b, (lo, hi)
                 in enumerate(zip(cut.tolist(), cut[1:].tolist())) if hi > lo]
        mats[d] = Sparse.from_entries((comp.dim(d), len(pairs)), *(
            np.concatenate(x) for x in zip(*((m.rows, m.cols + lo, m.vals)
                                             for m, lo in parts))), comp.p)
    mults = [(v, want) for v in comp.verts_at(want).tolist()]
    return model, GradedMorphism(comp, model, mats), mults


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


def _mu1_data(mod: GradedModule, s: int):
    """The multiplication mu_1: X_s (x) dual_1 -> X_{s+1}: the pairs of its
    domain, its canonical left inverse L (row y the preimage of y over the
    pairs, `grmod.mu1_preimage`) and a basis of its kernel, as the module
    keeps them (`grmod.mu1`).  Raises unless mu_1 is surjective."""
    pre = mu1_preimage(mod, s)
    if pre is None:
        raise ComplexError(
            f"level {s}: the degree-1 multiplication is not surjective")
    return mu1(mod, s)[0], pre, mu1_kernel(mod, s)


def _mu1_pullbacks(mod: GradedModule, s: int, t1, pre: Sparse) -> list:
    """Per path p of length n-1 in the base quiver (`_path_classes`, kept in
    the algebra's memo): the matrix P such that P @ A is the map
    X_{s+1} -> X_{s+n} that decomposes y through the degree-1
    multiplication mu_1: X_s (x) dual_1 -> X_{s+1} by its canonical
    left inverse L = pre, then acts by the class of (p alpha)^o.
    A is the stacked degree-n action at s (`grmod.stacked_action`).

    The family of p sends arrows a to vectors c_a over the degree-n basis,
    the rows of C.  Z is the pair map C (x) I from the pairs r = (i, a) of
    mu_1's domain t1 to the pairs (w, i'), at w * dim X_s + i': row r of
    Z @ A is x_i acted on by c_a, and P = L Z."""
    ds, ualg = mod.dim(s), mod.algebra
    rows = np.asarray(t1, dtype=np.intp).reshape(-1, 2)[:, ::-1]  # (a, i)
    cols = np.stack(np.divmod(np.arange(ualg.dual.dim(ualg.n) * ds), ds), 1)
    ident = Sparse.identity(ds)
    out = []
    for coef in ualg._memo(("path classes",), lambda: _path_classes(ualg)):
        z = _pair_map(rows, cols, [(coef, ident)], mod.p)
        out.append(linalg.sparse_mul(pre, z, mod.p))
    return out


def _path_classes(ualg) -> list:
    """Per path p of length n-1 in the base quiver: the matrix C whose row
    alpha is the class in the dual of (p alpha)^o = alpha^o p^o, zero
    unless t(p) = o(alpha): right multiplication by p^o out of the dual's
    arrows.  The dual has no relations below degree n, so p^o is its basis
    element of degree n - 1 at the index `opposite_permutation` gives."""
    dual, n = ualg.dual, ualg.n
    sigma = opposite_permutation(dual.quiver.opposite(), n - 1)
    return [dual.right_mult(1, n - 1, b) for b in sigma.tolist()]


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
    return [linalg.sparse_mul(pz, acts, mod.p)
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
    """`equivalence_F` of a module over U already known to be in L: the
    cofree models at the positions of the regrading (`_cofree_complex`)."""
    settled_top(lam, allow_windowed)
    dmap = DegreeMap(params.m, params.n)
    return _cofree_complex(
        mod, lam, 2, {dmap.inverse(d): d for d in mod.degrees()
                      if dmap.in_image(d)},
        range(mod.algebra.quiver.arrow_count))


def equivalence_F_map(f: GradedMorphism, fw: ComplexOfGraded,
                      fx: ComplexOfGraded, params) -> dict:
    """F of the module map f: w -> x, on fw = F(w) -> fx = F(x): per
    position k, (b, i) -> sum_j P[i, j] (b, j) on the cofree component, P
    the matrix of f in degree s = delta(k), over the pairs of the cofree
    models the components are built on."""
    lam, dmap = fw.algebra, DegreeMap(params.m, params.n)
    fam = {}
    for k, comp in fw.modules.items():
        s = dmap.delta(k)
        fam[k] = GradedMorphism(comp, fx.component(k), _pair_maps(
            cofree_module(lam, f.source.verts_at(s)).hom_index,
            cofree_module(lam, f.target.verts_at(s)).hom_index, 0, -s,
            lambda e: [(Sparse.identity(lam.dim(-e)), f.sparse_mat(s))],
            lam.p))
    return fam


def _model_odd_diff(mod: GradedModule, lam, s: int, bsrc, btgt) -> dict:
    """The odd differential of the explicit equivalence at level s, between
    the given model spaces, as plain per-degree matrices: from base degree
    e, the sum over the paths p of length n-1 in the base quiver of the
    transpose of right multiplication by p out of Lam_{-e-n+1}, tensored
    with xi_p (`_xi_matrices`).  Lambda has no relations below degree n,
    so the b-th path in path order, as the xi_p come, is basis element b."""
    xi, n = _xi_matrices(mod, s), mod.algebra.n
    return _pair_maps(bsrc.hom_index, btgt.hom_index, n - 1, -s - 1,
                      lambda e: [(lam.right_mult(-e - n + 1, n - 1,
                                                 b).transpose(), x)
                                 for b, x in enumerate(xi)], lam.p)


# -- extraction (inverse direction) ------------------------------------------


def _check_conditions_ab(c: ComplexOfGraded, params):
    """Conditions of the essential-image description: components almost
    injective cogenerated at the regraded degrees, and odd socles inside
    the image of the previous differential.  Returns certificates."""
    dmap = DegreeMap(params.m, params.n)
    cert = certify_linear(c, degree_of=lambda k: -dmap.delta(k))
    if cert is None:
        return None
    for k in c.positions():
        if k % 2 == 1 and not _socles_hit(c, k):
            return None
    return cert


def extract_module(c: ComplexOfGraded, ualg, params) -> GradedModule:
    """Recover the distinguished module from a 2-complex in the essential
    image: the tops give the components, the even differentials give the
    degree-1 action, and the odd differentials give the degree-n action,
    read off one block of each (`_degree_n_actions`), not solved for.

    For c in the image, c = F(x) through the witnesses of its certificate,
    the module is x.  Outside the image it raises, or returns a module
    whose F is not c: `in_Y` decides membership by the round trip."""
    return _extract(c, ualg, params)[0]


def _extract(c: ComplexOfGraded, ualg, params):
    """`extract_module`, and the models it read the module through
    (`_models`).  Every action is a block of a transported differential,
    or a product of two such blocks: no system is solved."""
    n = params.n
    dmap = DegreeMap(params.m, n)
    cert = _check_conditions_ab(c, params)
    if cert is None:
        raise ComplexError("complex fails the essential-image conditions")
    models = _models(c, cert)
    verts = {dmap.delta(k): models[k][2] for k in c.positions()}
    actions = _degree_one_actions(c, models, dmap, ualg)
    _degree_n_actions(c, models, ualg, params, actions,
                      generators_of_degree(ualg, n))
    out = GradedModule(ualg, verts, actions)
    bad = out.validate()
    if bad:
        raise ComplexError(f"extracted module fails validation: {bad[0]}")
    return out, models


def _models(c: ComplexOfGraded, cert) -> dict:
    """Per position of c: the canonical cofree model on the top vertices of
    its certificate, the witness from the model (shifted into place) onto
    the component, the top vertices as an intp array, and the inverse of
    the witness, which is the envelope map the certificate kept (inverted
    here only for a certificate that kept none)."""
    models = {}
    for k in c.positions():
        vlist = np.array([v for v, _ in cert[k]["mults"]], dtype=np.intp)
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
    one_gens = generators_of_degree(ualg, 1)
    q = ualg.dual.quiver.opposite()
    sources = np.array([q.arrow_source(ai) for ai in range(q.arrow_count)],
                       dtype=np.intp)
    actions = {}
    for k in c.positions():
        s = dmap.delta(k)
        if (k + 1) not in models or dmap.delta(k + 1) != s + 1:
            continue
        rows = models[k][0].hom_index.get(-1)  # (arrow b, x)
        if rows is None:
            continue
        cols = models[k + 1][0].hom_index[0]   # (vertex, x2)
        mat = _transported_diff(c, k, models).sparse_mat(-s - 1)
        arrow = rows[mat.rows, 0]
        kept = cols[mat.cols, 0] == sources[arrow]
        shape = (len(models[k][2]), len(models[k + 1][2]))
        for ai in range(q.arrow_count):
            at = kept & (arrow == ai)
            if at.any():
                actions[(one_gens[ai], s)] = Sparse.from_entries(
                    shape, rows[mat.rows[at], 1], cols[mat.cols[at], 1],
                    mat.vals[at], c.p)
    return actions


def _degree_n_actions(c: ComplexOfGraded, models, ualg, params,
                      actions: dict, n_gens: dict) -> None:
    """Add the degree-n actions (any n >= 2) to `actions`, read off the odd
    differentials as the degree-1 actions are read off the even ones.

    Odd position k holds X_{s+1}, s = m + (k - 1)/2 n, and k + 1 holds
    X_{s+n}.  In base degree 1 - n of its source model the transported
    differential at k has the rows (p, y), p a path of length n - 1 in the
    base quiver (a basis element of Lambda_{n-1}, which has no relations)
    and y in X_{s+1}, and the columns (vertex, x2), x2 in X_{s+n}.  There
    the left factor of F's odd differential (`_model_odd_diff`) is right
    multiplication by p out of Lambda_0, so the rows of p are xi_p
    (`_xi_matrices`), its columns read by x2.  A basis element w of dual_n
    is a normal word a_1 ... a_n, its arrows numbered as in the base
    quiver; then x w = xi_p(x a_1) with p^o = a_2 ... a_n, and
    y w = xi_p'(y) a_n with p'^o = a_1 ... a_{n-1}: one product each of a
    degree-1 action, read already, and a block of xi.

    For c = F(x) through the witnesses of its certificate, x in L, xi_p(y)
    does not depend on how y decomposes through mu_1 (the kernel
    condition), so these products are the actions of x: the unique
    solution of the odd differential and the kernel condition at s, and
    at s + 1 the action sum_i pre x_i (a w) forced by the relations, which
    is (y p'^o) a_n.  For any other c the products are some module, or
    none that validates, and `in_Y` answers no all the same: F refuses a
    module outside L, and the round trip compares F of the module with c
    in every degree."""
    lam, p, n = c.algebra, c.p, params.n
    one_gens = generators_of_degree(ualg, 1)
    words = [pa.arrows for pa in ualg.dual.basis_paths(n)]
    path_at = {pa.arrows: b for b, pa in enumerate(lam.basis_paths(n - 1))}
    for k in c.positions():
        if k % 2 == 0 or (k + 1) not in models:
            continue
        s = params.m + (k - 1) // 2 * n
        xi = _xi_blocks(c, k, models, n, s)
        for w, word in enumerate(words):
            # x w = xi_p(x a_1) at s, y w = xi_p'(y) a_n at s + 1
            for d, left, right in (
                    (s, actions.get((one_gens[word[0]], s)),
                     xi.get(path_at[word[:0:-1]])),
                    (s + 1, xi.get(path_at[word[-2::-1]]),
                     actions.get((one_gens[word[-1]], s + n)))):
                if left is not None and right is not None:
                    a = linalg.sparse_mul(left, right, p)
                    if a.any():
                        actions[(n_gens[w], d)] = a


def _xi_blocks(c: ComplexOfGraded, k: int, models, n: int, s: int) -> dict:
    """{basis index of p in Lambda_{n-1}: xi_p}, each a Sparse
    X_{s+1} -> X_{s+n} read off the transported odd differential at k in
    base degree 1 - n of its source model (`_degree_n_actions`); a p with
    no nonzero is left out."""
    rows = models[k][0].hom_index.get(1 - n)  # (p, y)
    if rows is None:
        return {}
    cols = models[k + 1][0].hom_index[0]      # (vertex, x2)
    mat = _transported_diff(c, k, models).sparse_mat(-n - s)
    shape = (len(models[k][2]), len(models[k + 1][2]))
    paths, order, bounds = _groups(rows[mat.rows, 0])
    xi = {}
    for b, lo, hi in zip(paths.tolist(), bounds, bounds[1:]):
        at = order[lo:hi]
        xi[b] = Sparse.from_entries(shape, rows[mat.rows[at], 1],
                                    cols[mat.cols[at], 1], mat.vals[at], c.p)
    return xi


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
    on onto c.  x is read off the differentials, the degree-n action off
    the odd ones (`_degree_n_actions`), so it exists for some c outside
    the image too; the round trip needs no search all the same: c is in
    the image exactly when x is in L and those witnesses form an
    isomorphism of complexes F(x) -> c.  x is read in the top bases, so
    F(x) gives back x, sorted by vertex; it is built on c's window, and a
    `WindowError`, a refusal, propagates."""
    if c.is_zero():
        return True, zero_module(ualg)
    try:
        x, models = _extract(c, ualg, params)
        fx = equivalence_F(x, c.algebra, params, allow_windowed=True)
    except WindowError:
        raise
    except (ComplexError, ModuleError):
        return False, None
    if chain_iso_failure(fx, c, {k: w for k, (_, w, _, _) in models.items()}):
        return False, None
    return True, x


# -- the projective picture via duality --------------------------------------


def dualize_complex(c: ComplexOfGraded) -> ComplexOfGraded:
    """Apply the graded duality componentwise, over the opposite algebra;
    position j becomes -j and differentials are transposed."""
    duals = {k: graded_dual(m) for k, m in c.modules.items()}
    comps = {-k: m for k, m in duals.items()}
    diffs = {}
    for k, f in c.diffs.items():
        src = duals.get(k + 1)
        tgt = duals.get(k)
        if src is None or tgt is None:
            continue
        diffs[-k - 1] = GradedMorphism(
            src, tgt, {-d: m.transpose() for d, m in f.stored_mats().items()})
    return ComplexOfGraded(opposite_algebra(c.algebra)[0], c.period, comps,
                           diffs)


def equivalence_F_dual(mod: GradedModule, lam, params) -> ComplexOfGraded:
    """The projective-side equivalence: transport through the duality,
    apply the injective-side construction over the opposite algebra, and
    dualize the resulting complex back.  The output conditions are checked
    on the injective side, before the dualization (`dual_image_failure`)."""
    c_inj = _F_dual_injective(mod, lam, params)
    why = dual_image_failure(c_inj, params)
    if why:
        raise ComplexError(f"projective output conditions failed: {why}")
    return dualize_complex(c_inj)


def _F_dual_injective(mod: GradedModule, lam, params) -> ComplexOfGraded:
    """F of D(mod) over the opposite of lam: the complex whose graded dual
    is `equivalence_F_dual(mod, lam, params)`.  D(mod) is built once, and
    in_L (which in_Lo decides on it) is decided once."""
    from .grmod import in_L
    xd = checked_dual(mod, params)
    if not in_L(xd, params):
        raise ComplexError("module is not in the dual distinguished class")
    _require_u_module(xd)
    return _F_of_member(xd, opposite_algebra(lam)[0], params, False)


def dual_image_failure(c_inj: ComplexOfGraded, params) -> str | None:
    """Why the graded dual of the injective-side complex c_inj fails the
    conditions of the projective essential image, or None.

    D sends position k to -k, a component almost injective cogenerated in
    -delta(k) to one projective generated in delta(-k), and, at odd k, a
    socle inside the image of the incoming differential to a kernel of the
    transposed differential inside the radical: the annihilator of the socle
    is the radical, and that of an image the kernel of the transpose.  So
    the conditions are `_check_conditions_ab` of c_inj, and at n = 2 the
    certificate alone, as the projective picture asks no kernel condition
    there."""
    dmap = DegreeMap(params.m, params.n)
    cert = (certify_linear(c_inj, degree_of=lambda k: -dmap.delta(k))
            if params.n == 2 else _check_conditions_ab(c_inj, params))
    return None if cert is not None else (
        f"the injective side fails the image conditions at n = {params.n}")


def in_Yo(c: ComplexOfGraded, ualg, params) -> bool:
    """Projective essential-image membership: c is in it exactly when its
    graded dual, over the opposite algebra, is in the injective one
    (`in_Y`), whose conditions are the projective ones read through D
    (`dual_image_failure`)."""
    return in_Y(dualize_complex(c), opposite_algebra(ualg)[0], params)[0]


# -- Hom spaces of complexes -------------------------------------------------


def hom_complexes(c: ComplexOfGraded, c2: ComplexOfGraded):
    """Canonical basis of the chain maps c -> c2 (degree-0 everywhere), the
    RREF over their matrix entries, as families {position: map} with a map
    at every position of either complex: one `grmod._hom_families` system
    over the components at every position, the differentials its links."""
    if c.period != c2.period:
        raise ComplexError("period mismatch")
    positions = sorted(set(c.positions()) | set(c2.positions()))
    return _hom_families(
        {k: (c.component(k), c2.component(k)) for k in positions},
        [(k, c.diff(k), c2.diff(k)) for k in positions])


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
            m = f.sparse_mat(d)  # inverted from its nonzeros if monomial
            if a.dim(d) != b.dim(d) or m.shape != (a.dim(d), b.dim(d)) \
                    or linalg.left_inverse(m, c.p) is None:
                return failure("invertible", k, d)
            if (a.verts_at(d)[m.rows] != b.verts_at(d)[m.cols]).any():
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
                if lhs.sparse_mat(d) != rhs.sparse_mat(d):
                    return failure("differential", k, d)
    return None
