"""Seeded property suites shared by the command line and the test suite.

Every suite returns a JSON-ready report dict that is a pure function of
(seed, trials): generators draw from numpy's PCG64 stream and all dict
iteration is over sorted keys.  A failing trial ships the serialized
generating data so the failure can be replayed.
"""
from __future__ import annotations

import numpy as np

from . import complexes as cpx
from . import koszul as ko
from . import linalg
from .algebra import (DegreeMap, Presentation, USupportAlgebra, build_dual,
                      build_slices, compute_orthogonal,
                      compute_orthogonal_via_ordering, yoneda_regrade)
from .docio import complex_json, module_json, presentation_json
from .grmod import (GradedModule, GradedMorphism, TorsionParams, free_module,
                    graded_dual, hom_space, in_G, in_L, in_L_E, in_Lo,
                    is_torsionfree, opposite_algebra,
                    presented_in_degrees, quotient_module, restrict_S,
                    submodule_closure, torsion_submodule)
from .quiver import Path, PathSpaceElement, Quiver, enumerate_paths

P = 101


# ---------------------------------------------------------------------------
# fixed corpus algebras

_CORPUS_CACHE: dict = {}


def _all_path_relations(q: Quiver, n: int):
    return [PathSpaceElement(n, {pa: 1}) for pa in enumerate_paths(q, n)]


def corpus(name: str) -> dict:
    """A named algebra with its dual and support-restricted dual, cached."""
    if name in _CORPUS_CACHE:
        return _CORPUS_CACHE[name]
    if name == "one_loop_n3":
        q = Quiver.make(1, [("x", 0, 0)])
        n, lam_top, dual_top = 3, 12, 26
        rels = _all_path_relations(q, n)
    elif name == "two_loop_n3":
        q = Quiver.make(1, [("x", 0, 0), ("y", 0, 0)])
        n, lam_top, dual_top = 3, 12, 10
        rels = _all_path_relations(q, n)
    elif name == "commutative_n2":
        q = Quiver.make(1, [("x", 0, 0), ("y", 0, 0)])
        n, lam_top, dual_top = 2, 8, 9
        rels = [PathSpaceElement(2, {Path(0, (0, 1)): 1,
                                     Path(0, (1, 0)): P - 1}),
                PathSpaceElement(2, {Path(0, (0, 0)): 1}),
                PathSpaceElement(2, {Path(0, (1, 1)): 1})]
    elif name == "two_vertex_n3":
        q = Quiver.make(2, [("a", 0, 1), ("b", 1, 0)])
        n, lam_top, dual_top = 3, 12, 26
        rels = _all_path_relations(q, n)
    elif name == "two_vertex_n4":
        q = Quiver.make(2, [("a", 0, 1), ("b", 1, 0)])
        n, lam_top, dual_top = 4, 12, 21
        rels = _all_path_relations(q, n)
    else:
        raise ValueError(f"unknown corpus algebra {name!r}")
    pres = Presentation.make(q, n, rels)
    lam = build_slices(pres, lam_top)
    dual = build_dual(lam, dual_top)
    ualg = USupportAlgebra(dual, n)
    entry = {"name": name, "n": n, "quiver": q, "pres": pres,
             "lam": lam, "dual": dual, "ualg": ualg}
    _CORPUS_CACHE[name] = entry
    return entry


# ---------------------------------------------------------------------------
# random object generators

def random_presentation(rng) -> Presentation:
    """Small random presentation: <= 3 vertices, <= 4 arrows, n in {2,3,4},
    <= 3 homogeneous parallel relations."""
    nv = int(rng.integers(1, 4))
    na = int(rng.integers(1, 5))
    arrows = [(f"a{i}", int(rng.integers(0, nv)), int(rng.integers(0, nv)))
              for i in range(na)]
    q = Quiver.make(nv, arrows)
    n = int(rng.choice(np.array([2, 3, 4])))
    paths = enumerate_paths(q, n)
    groups: dict = {}
    for pa in paths:
        groups.setdefault((pa.source, pa.target_in(q)), []).append(pa)
    keys = sorted(groups)
    rels = []
    for _ in range(int(rng.integers(0, 4))):
        if not keys:
            break
        grp = groups[keys[int(rng.integers(0, len(keys)))]]
        coeffs = {pa: int(rng.integers(0, P)) for pa in grp}
        coeffs = {pa: cv for pa, cv in coeffs.items() if cv}
        if coeffs:
            rels.append(PathSpaceElement(n, coeffs))
    return Presentation.make(q, n, rels)


def chain_presentation(rng, full_rank_ok: bool = True):
    """A linear quiver 0 -> 1 -> ... -> n with one or two parallel arrows
    per step: finite dimensional for any relation choice, and the relation
    count controls whether the degree-n orthogonal vanishes."""
    n = int(rng.choice(np.array([2, 3, 4])))
    arrows = []
    pattern = [2] + [int(rng.integers(1, 3)) for _ in range(n - 1)]
    for step, cnt in enumerate(pattern):
        for j in range(cnt):
            arrows.append((f"a{step}_{j}", step, step + 1))
    q = Quiver.make(n + 1, arrows)
    paths = enumerate_paths(q, n)
    npaths = len(paths)
    hi = npaths + 1 if full_rank_ok else npaths
    nrel = int(rng.integers(0, min(4, hi)))
    rels = []
    for _ in range(nrel):
        coeffs = {pa: int(rng.integers(0, P)) for pa in paths}
        coeffs = {pa: cv for pa, cv in coeffs.items() if cv}
        if coeffs:
            rels.append(PathSpaceElement(n, coeffs))
    return Presentation.make(q, n, rels)


def random_representation(rng, alg, degrees, maxdim: int,
                          mindim: int = 0) -> GradedModule:
    """A random graded quiver representation over a path algebra with no
    relations (always a valid module there)."""
    q = alg.pres.quiver
    verts = {}
    for d in degrees:
        k = int(rng.integers(mindim, maxdim + 1))
        if k:
            verts[d] = tuple(int(rng.integers(0, q.vertex_count))
                             for _ in range(k))
    actions = {}
    for gi, g in enumerate(alg.generators()):
        src = q.arrow_source(g.basis_index)
        tgt = q.arrow_target(g.basis_index)
        for d in sorted(verts):
            if d + 1 not in verts:
                continue
            m = np.zeros((len(verts[d]), len(verts[d + 1])), dtype=np.int64)
            for i, vi in enumerate(verts[d]):
                for j, vj in enumerate(verts[d + 1]):
                    if vi == src and vj == tgt:
                        m[i, j] = int(rng.integers(0, P))
            if m.any():
                actions[(gi, d)] = m
    return GradedModule(alg, verts, actions)


def random_quotient_module(rng, alg, lo: int, hi: int,
                           max_gens: int = 2) -> GradedModule:
    """A random quotient of a sum of shifted vertex projectives: valid over
    any algebra, including ones with relations."""
    ngen = 1 + int(rng.integers(0, max_gens))
    gens = [(int(rng.integers(0, alg.nvert)), lo + int(rng.integers(0, 2)))
            for _ in range(ngen)]
    f = free_module(alg, gens, hi)
    spans = {}
    for d in sorted(f.degrees()):
        if f.dim(d) and rng.random() < 0.45:
            k = int(rng.integers(1, f.dim(d) + 1))
            rows = []
            vs = f.verts_at(d)
            for _ in range(k):
                # submodules are stable under the vertex idempotents, so
                # each generating row must live in a single vertex block
                v = vs[int(rng.integers(0, len(vs)))]
                row = np.zeros(f.dim(d), dtype=np.int64)
                for i, vi in enumerate(vs):
                    if vi == v:
                        row[i] = int(rng.integers(0, P))
                if row.any():
                    rows.append(row)
            if rows:
                spans[d] = np.stack(rows, axis=0)
    if not spans:
        return f
    closed = submodule_closure(f, {d: np.asarray(s, dtype=np.int64)
                                   for d, s in spans.items()})
    quo, _ = quotient_module(f, closed)
    return quo


def random_distinguished_module(rng, entry: dict, params: TorsionParams,
                                maxdim: int = 2, tries: int = 20):
    """A random member of the distinguished subcategory over a corpus
    algebra whose dual is relation-free: restrict a random representation
    of the opposite quiver and keep it when the membership test passes."""
    dual, ualg, n, m = entry["dual"], entry["ualg"], entry["n"], params.m
    degrees = [d for d in range(m, m + 2 * n + 2) if params.in_s(d)]
    for _ in range(tries):
        rep = random_representation(rng, dual, range(m, m + 2 * n + 2),
                                    maxdim, mindim=1)
        x = restrict_S(rep, ualg, params)
        if x.is_valid() and set(x.degrees()) == set(degrees) \
                and in_L(x, params):
            return x
    # deterministic fallback: the restriction of a free dual module is a
    # member whenever anything is
    fb = restrict_S(free_module(dual, [(0, m)], m + 2 * n + 1),
                    ualg, params)
    if fb.is_valid() and in_L(fb, params):
        return fb
    return None


def _is_torsion(mod: GradedModule, params: TorsionParams) -> bool:
    t = torsion_submodule(mod, params)
    return all(t.get(d, None) is not None and t[d].dim == mod.dim(d)
               for d in mod.degrees())


def _free_op_algebra(q: Quiver, n: int, top: int):
    key = (q, n, top)
    if key not in _CORPUS_CACHE:
        _CORPUS_CACHE[key] = build_slices(
            Presentation.make(q.opposite(), n, []), top)
    return _CORPUS_CACHE[key]


def annihilates_orthogonal(mod: GradedModule, lam) -> bool:
    """Whether every element of the degree-n relation orthogonal acts as
    zero on the representation (i.e. it descends to the dual algebra)."""
    orth = compute_orthogonal(lam).basis.dense()
    for d in sorted(mod.degrees()):
        for row in orth:
            a = mod.act_element(lam.pres.n, row, d)
            if a.any():
                return False
    return True


# ---------------------------------------------------------------------------
# report plumbing

def _report(suite: str, seed: int, trials, failures, counts=None,
            tables=None) -> dict:
    return {
        "suite": suite,
        "seed": int(seed),
        "trials": trials,
        "passed": not failures,
        "failures": failures,
        "counts": counts or {},
        "tables": tables or {},
    }


def _fail_entry(trial: int, kind: str, data=None) -> dict:
    out = {"trial": trial, "kind": kind}
    if data is not None:
        out["data"] = data
    return out


def _fail_iso(trial: int, kind: str, data: dict, c, c2, fam) -> list:
    """[] when the witness family is an isomorphism c -> c2, else one
    failure entry whose data adds the failed condition, position, degree."""
    bad = cpx.chain_iso_failure(c, c2, fam)
    return [] if bad is None else [_fail_entry(trial, kind, {**data, **bad})]


# ---------------------------------------------------------------------------
# known isomorphisms, checked instead of searched for


def identity_witness(c, c2) -> dict:
    """The identity family c -> c2, for complexes with the same components."""
    return {k: GradedMorphism(m, c2.component(k),
                              {d: linalg.eye(m.dim(d)) for d in m.degrees()})
            for k, m in c.modules.items()}


def sorting_witness(x) -> dict:
    """Per degree d, the matrix of x sorted by vertex -> x: basis element i
    goes to element order_d[i], order_d the stable argsort of the vertices
    of x_d (the basis `in_Y` reads x back in)."""
    return {d: linalg.eye(x.dim(d))[np.argsort(x.verts_at(d), kind="stable")]
            for d in x.degrees()}


def F_of_witness(fw, fx, w, x, mats: dict, params) -> dict:
    """F of the module map w -> x with per-degree matrices `mats`, on
    fw = F(w) -> fx = F(x): (b, i) -> sum_j P_s[i, j] (b, j) on the cofree
    component at position k, P_s the matrix in degree s = delta(k)."""
    lam, dmap = fw.algebra, DegreeMap(params.m, params.n)
    fam = {}
    for k, comp in fw.modules.items():
        s = dmap.delta(k)
        cols = cpx.cofree_index(lam, x.verts_at(s))
        fam[k] = GradedMorphism(comp, fx.component(k), {
            e - s: cpx._pair_matrix(rows, cols[e], [
                (linalg.eye(lam.dim(-e)), mats[s])], lam.p)
            for e, rows in cpx.cofree_index(lam, w.verts_at(s)).items()
            if e in cols})
    return fam


def pairing_witness(d_nu, c_psi, mod, lam) -> dict:
    """The natural pairing from D nu(M) to psi(DM) over the opposite of
    lam: at position k and degree D, the dual of the pair (b, x) goes to
    x (x) b^o, b a basis element of Lambda_{D+k} and x one of M_{-k}."""
    corr = opposite_algebra(opposite_algebra(lam)[0])[1]
    fam = {}
    for k in d_nu.modules.keys() & c_psi.modules.keys():
        rows = cpx.cofree_index(lam, mod.verts_at(-k))
        tgt = c_psi.modules[k]
        fam[k] = GradedMorphism(d_nu.modules[k], tgt, {
            dd: cpx._pair_matrix(rows[-dd - k], cols[:, ::-1], [
                (corr(dd + k), linalg.eye(mod.dim(-k)))], lam.p)
            for dd, cols in tgt.free_index.items() if -dd - k in rows})
    return fam


# ---------------------------------------------------------------------------
# the suites

def suite_dual_agreement(trials: int = 24, seed: int = 0) -> dict:
    """Both orthogonal-basis algorithms agree as canonical subspaces."""
    rng = np.random.default_rng(seed)
    failures = []
    dims = []
    for t in range(trials):
        pres = random_presentation(rng)
        lam = build_slices(pres, pres.n + 1)
        direct = compute_orthogonal(lam)
        data = compute_orthogonal_via_ordering(lam)
        dims.append(int(direct.dim))
        if direct != data.orthogonal:
            failures.append(_fail_entry(t, "orthogonal-mismatch",
                                        presentation_json(pres)))
    return _report("dual_agreement", seed, trials, failures,
                   counts={"orthogonal_dims": dims})


def suite_functor_oracle(trials: int = 60, seed: int = 0,
                         mutate: bool = False) -> dict:
    """is_n_complex of both functor images iff the orthogonal annihilates
    the representation.  `mutate` wires the deliberate arrow mismatch into
    the Hom-functor differential (the negative control)."""
    rng = np.random.default_rng(seed)
    failures = []
    n_ann = n_free = 0
    for t in range(trials):
        want_ann = (t % 2 == 0)
        pres = lam = None
        mod = None
        for _ in range(8):
            pres = chain_presentation(rng, full_rank_ok=want_ann)
            lam = build_slices(pres, pres.n + 2)
            n = pres.n
            if want_ann:
                dual = build_dual(lam, 3 * n + 2)
                dm = random_quotient_module(rng, dual, 0, 3 * n)
                freeop = _free_op_algebra(pres.quiver, n, 3 * n + 2)
                mod = GradedModule(freeop, dict(dm.verts),
                                   dm.stored_actions())
                break
            if compute_orthogonal(lam).dim == 0:
                continue
            freeop = _free_op_algebra(pres.quiver, n, 3 * n + 2)
            cand = random_representation(rng, freeop, range(0, 3 * n + 1), 3,
                                         mindim=1)
            if not annihilates_orthogonal(cand, lam):
                mod = cand
                break
        if mod is None:
            continue
        n = pres.n
        ann = annihilates_orthogonal(mod, lam)
        n_ann += ann
        n_free += not ann
        v_psi = cpx.is_n_complex(cpx.psi(mod, lam), n)
        twist = None
        if mutate and lam.pres.quiver.arrow_count >= 2:
            twist = list(range(lam.pres.quiver.arrow_count))
            twist[0], twist[1] = twist[1], twist[0]
        v_nu = cpx.is_n_complex(cpx.nu(mod, lam, _twist=twist), n)
        if v_psi != ann or v_nu != ann:
            failures.append(_fail_entry(
                t, "oracle-mismatch",
                {"presentation": presentation_json(pres),
                 "module": module_json(mod),
                 "annihilates": bool(ann),
                 "psi_n_complex": bool(v_psi),
                 "nu_n_complex": bool(v_nu)}))
    return _report("functor_oracle", seed, trials, failures,
                   counts={"annihilating": n_ann, "non_annihilating": n_free,
                           "mutated": bool(mutate)})


_TORSION_SETTINGS = [
    ("two_vertex_n3", 3, 1, 0),
    ("two_vertex_n3", 3, 1, 2),
    ("two_vertex_n4", 4, 1, 0),
    ("two_vertex_n4", 4, 1, 1),
    ("commutative_n2", 2, 1, 0),
]


def suite_torsion_classes(trials: int = 50, seed: int = 0) -> dict:
    """is_torsionfree agrees with vanishing of the torsion submodule."""
    rng = np.random.default_rng(seed)
    failures = []
    free_count = torsion_count = 0
    for t in range(trials):
        name, n, r, m = _TORSION_SETTINGS[t % len(_TORSION_SETTINGS)]
        entry = corpus(name)
        params = TorsionParams(n, r, m)
        if name == "commutative_n2":
            mod = random_quotient_module(rng, entry["dual"], 0, 2 * n + 2)
        else:
            mod = random_representation(rng, entry["dual"],
                                        range(0, 2 * n + 3), 3)
        tf = is_torsionfree(mod, params)
        tsub = torsion_submodule(mod, params)
        zero_torsion = not tsub
        free_count += zero_torsion
        torsion_count += not zero_torsion
        if tf != zero_torsion:
            failures.append(_fail_entry(
                t, "torsion-mismatch",
                {"algebra": name, "params": [n, r, m],
                 "module": module_json(mod),
                 "is_torsionfree": bool(tf),
                 "torsion_dims": {str(d): int(s.dim)
                                  for d, s in sorted(tsub.items())}}))
    return _report("torsion_classes", seed, trials, failures,
                   counts={"torsionfree": free_count,
                           "with_torsion": torsion_count})


def suite_torsion_transport(trials: int = 30, seed: int = 0) -> dict:
    """Transport of the torsion pair through the Hom functor."""
    rng = np.random.default_rng(seed)
    failures = []
    counts = {"in_G": 0, "torsion": 0, "neither": 0}
    names = ["one_loop_n3", "two_vertex_n3"]
    for t in range(trials):
        entry = corpus(names[t % len(names)])
        lam, n = entry["lam"], entry["n"]
        params = TorsionParams(n, 1, 0)
        if t % 3 == 2:
            # supported off S: a torsion instance by construction
            degrees = [d for d in range(0, 2 * n + 2)
                       if not params.in_s(d)]
        else:
            degrees = range(0, 2 * n + 2)
        mod = random_representation(rng, entry["dual"], degrees, 2)
        c = cpx.nu(mod, lam)
        g = in_G(mod, params)
        gs = cpx.in_G_star(c, params)
        tor = _is_torsion(mod, params)
        ts = cpx.in_T_star(c, params)
        counts["in_G"] += g
        counts["torsion"] += tor
        counts["neither"] += (not g) and (not tor)
        if g != gs or tor != ts:
            failures.append(_fail_entry(
                t, "transport-mismatch",
                {"algebra": entry["name"], "module": module_json(mod),
                 "in_G": bool(g), "in_G_star": bool(gs),
                 "torsion": bool(tor), "in_T_star": bool(ts)}))
    return _report("torsion_transport", seed, trials, failures, counts=counts)


def suite_contraction(trials: int = 16, seed: int = 0) -> dict:
    """Contractions of functor images are honest 2-complexes, and the n=2
    contraction changes nothing: the identity family is checked as an
    isomorphism onto the contracted complex."""
    rng = np.random.default_rng(seed)
    failures = []
    names = ["one_loop_n3", "two_vertex_n3", "commutative_n2"]
    for t in range(trials):
        entry = corpus(names[t % len(names)])
        lam, n = entry["lam"], entry["n"]
        if entry["name"] == "commutative_n2":
            mod = random_quotient_module(rng, entry["dual"], 0, 2 * n + 2)
        else:
            mod = random_representation(rng, entry["dual"],
                                        range(0, 2 * n + 2), 2)
        c = cpx.nu(mod, lam)
        cp = cpx.psi(mod, lam)
        for m in (0, 1):
            h = cpx.contract_H(c, m, n)
            g = cpx.contract_G(cp, m, n)
            if not cpx.is_n_complex(h, 2) or not cpx.is_n_complex(g, 2):
                failures.append(_fail_entry(
                    t, "contraction-not-2-complex",
                    {"algebra": entry["name"], "m": m,
                     "module": module_json(mod)}))
        if n == 2:
            h0 = cpx.contract_H(c, 0, 2)
            failures += _fail_iso(
                t, "n2-contraction-not-identity",
                {"algebra": entry["name"], "module": module_json(mod)},
                h0, c, identity_witness(h0, c))
    z = cpx.contract_H(cpx.zero_complex(corpus("one_loop_n3")["lam"], 3),
                       0, 3)
    if not z.is_zero():
        failures.append(_fail_entry(-1, "zero-not-preserved"))
    return _report("contraction", seed, trials, failures)


def negative_control_complexes(c, count: int = 5):
    """Perturbations of a 2-complex in the essential image that violate
    the cogeneration-shape condition or the socle-coverage condition."""
    out = []
    positions = sorted(c.positions())
    even = [k for k in positions if k % 2 == 0 and (k + 1) in positions]
    # socle coverage: drop the even differential feeding an odd position
    for k in even:
        diffs = dict(c.diffs)
        diffs[k] = GradedMorphism(c.component(k), c.component(k + 1), {})
        out.append(cpx.ComplexOfGraded(c.algebra, 2, dict(c.modules), diffs))
        if len(out) >= count:
            return out
    # cogeneration shape: shift one component's internal grading
    for k in positions:
        mods = dict(c.modules)
        mods[k] = c.component(k).shift(1)
        diffs = {}
        for j in sorted(c.diffs):
            if j == k or j + 1 == k:
                diffs[j] = GradedMorphism(
                    mods.get(j, c.component(j)),
                    mods.get(j + 1, c.component(j + 1)), {})
            else:
                diffs[j] = c.diffs[j]
        out.append(cpx.ComplexOfGraded(c.algebra, 2, mods, diffs))
        if len(out) >= count:
            return out
    return out


def suite_equivalence(trials: int = 15, seed: int = 0,
                controls: int = 5) -> dict:
    """Full faithfulness and essential image of the equivalence: Hom
    dimensions match, round trips are isomorphisms, and perturbed
    complexes are rejected.  The round trips are checked on their known
    witnesses: the module in_Y reads back is X sorted by vertex, and F of
    that sorting carries F of it onto F(X)."""
    rng = np.random.default_rng(seed)
    failures = []
    entry = corpus("two_loop_n3")
    lam, ualg, n = entry["lam"], entry["ualg"], entry["n"]
    params = TorsionParams(n, 1, 0)
    hom_dims = []
    first_image = None
    for t in range(trials):
        x = random_distinguished_module(rng, entry, params)
        x2 = random_distinguished_module(rng, entry, params)
        if x is None or x2 is None:
            failures.append(_fail_entry(t, "generator-exhausted"))
            continue
        fx = cpx.equivalence_F(x, lam, params)
        fx2 = cpx.equivalence_F(x2, lam, params)
        if first_image is None:
            first_image = fx
        d_mod = len(hom_space(x, x2))
        d_cpx = len(cpx.hom_complexes(fx, fx2))
        hom_dims.append([d_mod, d_cpx])
        if d_mod != d_cpx:
            failures.append(_fail_entry(
                t, "hom-dimension-mismatch",
                {"X": module_json(x), "X2": module_json(x2),
                 "dim_module_hom": d_mod, "dim_complex_hom": d_cpx}))
        ok, wit = cpx.in_Y(fx, ualg, params)
        if not ok:
            failures.append(_fail_entry(
                t, "round-trip-module", {"X": module_json(x)}))
            continue
        perm = sorting_witness(x)
        bad = _fail_iso(t, "round-trip-module", {"X": module_json(x)},
                        cpx.stalk_complex(wit, 0, 2),
                        cpx.stalk_complex(x, 0, 2),
                        {0: GradedMorphism(wit, x, perm)})
        if bad:
            failures += bad
            continue
        fw = cpx.equivalence_F(wit, lam, params)
        failures += _fail_iso(t, "round-trip-complex", {"X": module_json(x)},
                              fw, fx, F_of_witness(fw, fx, wit, x, perm,
                                                   params))
    rejected = 0
    if first_image is not None:
        for i, bad in enumerate(
                negative_control_complexes(first_image, controls)):
            ok, _ = cpx.in_Y(bad, ualg, params)
            if ok:
                failures.append(_fail_entry(
                    i, "negative-control-accepted",
                    {"complex": complex_json(bad)}))
            else:
                rejected += 1
    return _report("equivalence", seed, trials, failures,
                   counts={"controls_rejected": rejected},
                   tables={"hom_dims": hom_dims})


def suite_even_presentation(trials: int = 13, seed: int = 0) -> dict:
    """Truncated free modules over the regraded algebra: membership in the
    distinguished subcategory follows the presentation parity."""
    rng = np.random.default_rng(seed)
    failures = []
    n_even = n_odd_fail = 0
    names = ["one_loop_n3", "two_vertex_n3"]
    for t in range(trials):
        entry = corpus(names[t % len(names)])
        ealg = yoneda_regrade(entry["ualg"])
        odd_case = (t % 4 == 3)
        if odd_case:
            # kill an odd inner degree of a free module: the quotient is
            # presented with an odd-degree relation and must be rejected
            f = free_module(ealg, [(int(rng.integers(0, ealg.nvert)), 0)],
                            6)
            kill = 1 + 2 * int(rng.integers(0, 2))
            closed = submodule_closure(
                f, {kill: np.eye(f.dim(kill), dtype=np.int64)})
            mod, _ = quotient_module(f, closed)
            hi = 6
        else:
            gd = 2 * int(rng.integers(0, 2))
            hi = gd + 1 + 2 * int(rng.integers(0, 2))
            gens = [(int(rng.integers(0, ealg.nvert)), gd)]
            if rng.random() < 0.4:
                gens.append((int(rng.integers(0, ealg.nvert)), gd))
            mod = free_module(ealg, gens, hi)
        evens = set(range(0, hi + 4, 2))
        pres_even = presented_in_degrees(mod, evens)
        member = in_L_E(mod)
        if odd_case:
            if pres_even or member:
                failures.append(_fail_entry(
                    t, "odd-relation-accepted",
                    {"algebra": entry["name"],
                     "presented_even": bool(pres_even),
                     "in_L_E": bool(member)}))
            else:
                n_odd_fail += 1
        else:
            if not pres_even or not member:
                failures.append(_fail_entry(
                    t, "even-presentation-rejected",
                    {"algebra": entry["name"], "hi": hi,
                     "presented_even": bool(pres_even),
                     "in_L_E": bool(member)}))
            else:
                n_even += 1
    return _report("even_presentation", seed, trials, failures,
                   counts={"even_members": n_even,
                           "odd_rejections": n_odd_fail})


def suite_dual_equivalence(trials: int = 15, seed: int = 0, duality_trials: int = 20,
                ) -> dict:
    """The dual-side equivalence: outputs satisfy the dual image
    conditions, membership transports through vector-space duality, and
    the two functor images are dual to each other, by the natural pairing
    checked as an isomorphism of complexes."""
    rng = np.random.default_rng(seed)
    failures = []
    names = ["one_loop_n3", "two_vertex_n3"]
    lo_members = 0
    for t in range(trials):
        entry = corpus(names[t % len(names)])
        lam, ualg, n = entry["lam"], entry["ualg"], entry["n"]
        params = TorsionParams(n, 1, 0)
        x = random_distinguished_module(rng, entry, params)
        if x is None:
            failures.append(_fail_entry(t, "generator-exhausted"))
            continue
        op_u = opposite_algebra(ualg)
        dx = graded_dual(x, op_u)
        if not in_Lo(dx, params):
            failures.append(_fail_entry(
                t, "dual-not-member", {"X": module_json(x)}))
            continue
        lo_members += 1
        op_lam = opposite_algebra(lam)[0]
        g = cpx.equivalence_F_dual(dx, op_lam, params)
        okc, why = cpx.check_Yo_conditions(g, params)
        if not okc:
            failures.append(_fail_entry(
                t, "dual-image-conditions", {"X": module_json(x),
                                             "reason": str(why)}))
        elif not cpx.in_Yo(g, op_u[0], params):
            failures.append(_fail_entry(
                t, "dual-image-membership", {"X": module_json(x)}))
    # duality square: D(Hom functor) ~ tensor functor of the dual module
    iso_count = 0
    for t in range(duality_trials):
        entry = corpus(names[t % len(names)])
        lam, n = entry["lam"], entry["n"]
        mod = random_representation(rng, entry["dual"],
                                    range(0, 2 * n + 2), 2)
        d_nu = cpx.dualize_complex(cpx.nu(mod, lam))
        op_dual = opposite_algebra(entry["dual"])
        dm = graded_dual(mod, op_dual)
        op_lam = opposite_algebra(lam)[0]
        c_psi = cpx.psi(dm, op_lam)
        bad = _fail_iso(t, "duality-square-mismatch",
                        {"algebra": entry["name"], "module": module_json(mod)},
                        d_nu, c_psi, pairing_witness(d_nu, c_psi, mod, lam))
        iso_count += not bad
        failures += bad
    return _report("dual_equivalence", seed,
                   {"membership": trials, "duality": duality_trials},
                   failures,
                   counts={"lo_members": lo_members,
                           "duality_isos": iso_count})


def suite_koszulity(seed: int = 0, bound: int = 6) -> dict:
    """Yoneda dimensions of the truncated corpus algebras match the dual
    algebra dimensions along the alternating degree map; the cubic
    monomial algebra with a surviving degree-3 path is the negative."""
    failures = []
    tables = {}
    for name in ("one_loop_n3", "two_loop_n3"):
        entry = corpus(name)
        lam, dual, n = entry["lam"], entry["dual"], entry["n"]
        dmap = DegreeMap(0, n)
        seg = ko.minimal_projective_resolution(ko.semisimple_module(lam),
                                               bound)
        if not ko.follows_degree_map(seg, n):
            failures.append(_fail_entry(0, f"{name}-not-n-koszul"))
        ext = ko.segment_ext_dims(seg)
        want = [dual.dim(dmap.delta(j)) for j in range(bound + 1)]
        tables[name] = {"ext_dims": ext, "dual_dims_at_delta": want,
                        "bound": bound}
        if ext != want:
            failures.append(_fail_entry(
                0, f"{name}-ext-dimension-mismatch", tables[name]))
    q = Quiver.make(1, [("x", 0, 0), ("y", 0, 0)])
    keep = (0, 1, 0)
    rels = [PathSpaceElement(3, {pa: 1}) for pa in enumerate_paths(q, 3)
            if pa.arrows != keep]
    lam_bad = build_slices(Presentation.make(q, 3, rels), 12)
    seg_bad = ko.minimal_projective_resolution(ko.semisimple_module(lam_bad),
                                               5)
    if ko.follows_degree_map(seg_bad, lam_bad.pres.n):
        failures.append(_fail_entry(0, "monomial-negative-accepted"))
    tables["cubic_survivor"] = {"ext_dims": ko.segment_ext_dims(seg_bad),
                                "is_n_koszul": False}
    return _report("koszulity", seed, 3, failures, tables=tables)


def suite_dimensions(seed: int = 0) -> dict:
    """Dimension identities of the truncated examples plus recorded (not
    asserted) lifting baselines for minimal coresolutions."""
    failures = []
    tables = {}
    for name in ("one_loop_n3", "two_loop_n3"):
        entry = corpus(name)
        dual, q, n = entry["dual"], entry["quiver"], entry["n"]
        dual_dims = [dual.dim(k) for k in range(9)]
        path_counts = [len(enumerate_paths(q, k)) for k in range(9)]
        dmap = DegreeMap(0, n)
        ealg = yoneda_regrade(entry["ualg"])
        e_dims = [ealg.dim(j) for j in range(6)]
        want_e = [dual.dim(dmap.delta(j)) for j in range(6)]
        tables[name] = {"dual_dims": dual_dims,
                        "path_counts": path_counts,
                        "yoneda_dims": e_dims,
                        "dual_dims_at_delta": want_e}
        if dual_dims != path_counts:
            failures.append(_fail_entry(0, f"{name}-dual-dims", tables[name]))
        if e_dims != want_e:
            failures.append(_fail_entry(0, f"{name}-yoneda-dims",
                                        tables[name]))
    baselines = {}
    for name in ("one_loop_n3", "two_vertex_n3"):
        entry = corpus(name)
        sem = ko.semisimple_module(entry["lam"])
        cok = ko.is_n_cokoszul(sem, 5)
        ok, wit = ko.is_H0_liftable_resolution(sem, entry["ualg"], 5)
        baselines[name] = {
            "is_n_cokoszul": bool(cok),
            "lift_exists": bool(ok),
            "witness_total_dim": int(wit.total_dim()) if ok else None,
        }
    tables["lifting_baselines"] = baselines
    return _report("dimensions", seed, 2, failures, tables=tables)


SUITES = {
    "dual_agreement": suite_dual_agreement,
    "functor_oracle": suite_functor_oracle,
    "torsion_classes": suite_torsion_classes,
    "torsion_transport": suite_torsion_transport,
    "contraction": suite_contraction,
    "equivalence": suite_equivalence,
    "even_presentation": suite_even_presentation,
    "dual_equivalence": suite_dual_equivalence,
    "koszulity": suite_koszulity,
    "dimensions": suite_dimensions,
}


def run_suite(name: str, trials=None, seed: int = 0, **kw) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         + ", ".join(sorted(SUITES)))
    fn = SUITES[name]
    if trials is None or name in ("koszulity", "dimensions"):
        return fn(seed=seed, **kw)
    return fn(trials=trials, seed=seed, **kw)
