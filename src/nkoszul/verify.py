"""Seeded property suites shared by the command line and the test suite.

Every suite returns a JSON-ready report dict that is a pure function of
(seed, trials): generators draw from numpy's PCG64 stream and all dict
iteration is over sorted keys.  A failing trial ships the serialized
generating data so the failure can be replayed.  The named algebras are
the rows of `_CORPUS`, built over F_p once per (name, p) by `corpus`; the
(name, m) cases each suite's trials take in turn are its rows of `CASES`,
and a suite reads n and the rest from the entry, never from the name.
"""
from __future__ import annotations

import functools

import numpy as np

from . import SUITE_NAMES
from . import complexes as cpx
from . import koszul as ko
from . import linalg
from .algebra import (DegreeMap, Presentation, USupportAlgebra, build_dual,
                      build_free_opposite, build_slices, compute_orthogonal,
                      compute_orthogonal_via_ordering, opposite_algebra,
                      yoneda_regrade)
from .docio import complex_json, module_json, presentation_json
from .grmod import (GradedModule, GradedMorphism, TorsionParams, free_module,
                    graded_dual, hom_space, in_G, in_L, in_L_E, in_Lo,
                    is_torsionfree, presented_in_degrees, quotient_module,
                    restrict_S, submodule_closure, torsion_submodule)
from .quiver import Path, PathSpaceElement, Quiver, enumerate_paths

P = 101


# ---------------------------------------------------------------------------
# fixed corpus algebras and the cases the suites draw from them


def _all_path_relations(q: Quiver, n: int, keep=()):
    """Every path of degree n as a relation, but those whose arrows are in
    `keep`: with none kept, the truncated path algebra kQ/J^n."""
    return [PathSpaceElement(n, {pa: 1}) for pa in enumerate_paths(q, n)
            if pa.arrows not in keep]


_LOOP = Quiver.make(1, [("x", 0, 0)])
_LOOPS = Quiver.make(1, [("x", 0, 0), ("y", 0, 0)])
_TWO_VERTEX = Quiver.make(2, [("a", 0, 1), ("b", 1, 0)])

# name -> (quiver, n, lam_top, dual_top, relations); the coefficients are
# integers, reduced mod p when the algebra is built
_CORPUS = {
    "one_loop_n3": (_LOOP, 3, 12, 26, _all_path_relations(_LOOP, 3)),
    "two_loop_n3": (_LOOPS, 3, 12, 10, _all_path_relations(_LOOPS, 3)),
    "commutative_n2": (_LOOPS, 2, 8, 9, [
        PathSpaceElement(2, {Path(0, (0, 1)): 1, Path(0, (1, 0)): -1}),
        PathSpaceElement(2, {Path(0, (0, 0)): 1}),
        PathSpaceElement(2, {Path(0, (1, 1)): 1})]),
    "two_vertex_n3": (_TWO_VERTEX, 3, 12, 26,
                      _all_path_relations(_TWO_VERTEX, 3)),
    "two_vertex_n4": (_TWO_VERTEX, 4, 12, 21,
                      _all_path_relations(_TWO_VERTEX, 4)),
    # every cubic path killed but x.y.x: monomial, and not 3-Koszul
    "cubic_survivor": (_LOOPS, 3, 12, 10,
                       _all_path_relations(_LOOPS, 3, keep=((0, 1, 0),))),
}

# a suite (or a part of one) -> its (corpus algebra, m) cases, m the shift
# of the torsion pair (n, 1, m), 0 where the suite has none
CASES = {
    "torsion_classes": [("two_vertex_n3", 0), ("two_vertex_n3", 2),
                        ("two_vertex_n4", 0), ("two_vertex_n4", 1),
                        ("commutative_n2", 0)],
    "torsion_transport": [("one_loop_n3", 0), ("two_vertex_n3", 0)],
    "contraction": [("one_loop_n3", 0), ("two_vertex_n3", 0),
                    ("commutative_n2", 0)],
    "equivalence": [("two_loop_n3", 0)],
    "even_presentation": [("one_loop_n3", 0), ("two_vertex_n3", 0)],
    "dual_equivalence": [("one_loop_n3", 0), ("two_vertex_n3", 0)],
    "koszulity": [("one_loop_n3", 0), ("two_loop_n3", 0)],
    "koszulity_negatives": [("cubic_survivor", 0)],
    "dimensions": [("one_loop_n3", 0), ("two_loop_n3", 0)],
    "lifting_baselines": [("one_loop_n3", 0), ("two_vertex_n3", 0)],
}

_CORPUS_CACHE: dict = {}


def corpus(name: str, p: int = P) -> dict:
    """A named algebra over F_p with its dual and support-restricted dual,
    built once per (name, p)."""
    key = (name, p)
    if key not in _CORPUS_CACHE:
        if name not in _CORPUS:
            raise ValueError(f"unknown corpus algebra {name!r}")
        q, n, lam_top, dual_top, rels = _CORPUS[name]
        lam = build_slices(Presentation.make(q, n, rels, p), lam_top)
        dual = build_dual(lam, dual_top)
        _CORPUS_CACHE[key] = {"name": name, "n": n, "quiver": q,
                              "pres": lam.pres, "lam": lam, "dual": dual,
                              "ualg": USupportAlgebra(dual, n)}
    return _CORPUS_CACHE[key]


def _case(suite: str, t: int):
    """(corpus entry, m) of trial t of a suite: its cases in turn."""
    cases = CASES[suite]
    name, m = cases[t % len(cases)]
    return corpus(name), m


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
        rel = PathSpaceElement(n, {pa: int(rng.integers(0, P)) for pa in grp})
        if rel.coeffs:
            rels.append(rel)
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
        rel = PathSpaceElement(n, {w: int(rng.integers(0, P)) for w in paths})
        if rel.coeffs:
            rels.append(rel)
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
        for d in sorted(verts):
            if d + 1 not in verts:
                continue
            m = np.zeros((len(verts[d]), len(verts[d + 1])), dtype=np.int64)
            for i, vi in enumerate(verts[d]):
                for j, vj in enumerate(verts[d + 1]):
                    if vi == g.source and vj == g.target:
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
                for i in np.flatnonzero(vs == v).tolist():
                    row[i] = int(rng.integers(0, P))
                if row.any():
                    rows.append(row)
            if rows:
                spans[d] = np.stack(rows, axis=0)
    if not spans:
        return f
    quo, _ = quotient_module(f, submodule_closure(f, spans))
    return quo


def random_dual_module(rng, entry: dict, degrees: range, maxdim: int,
                       hi: int) -> GradedModule:
    """A random module over the dual of a corpus entry: a representation on
    `degrees` if the dual has no relations (a representation need not
    respect them), else a quotient of projectives from degrees.start to hi."""
    dual = entry["dual"]
    if dual.pres.relations:
        return random_quotient_module(rng, dual, degrees.start, hi)
    return random_representation(rng, dual, degrees, maxdim)


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


@functools.cache
def _free_op_algebra(q: Quiver, n: int, top: int):
    return build_free_opposite(q, n, top, P)


# ---------------------------------------------------------------------------
# report plumbing

def _report(suite: str, seed: int, trials, failures, counts=None,
            tables=None) -> dict:
    return {"suite": suite, "seed": int(seed), "trials": trials,
            "passed": not failures, "failures": failures,
            "counts": counts or {}, "tables": tables or {}}


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


def pairing_witness(d_nu, c_psi, mod, lam) -> dict:
    """The natural pairing from D nu(M) to psi(DM) over the opposite of
    lam: at position k and degree D, the dual of the pair (b, x) goes to
    x (x) b^o, b a basis element of Lambda_{D+k} and x one of M_{-k}."""
    corr = opposite_algebra(opposite_algebra(lam)[0])[1]
    fam = {}
    for k in d_nu.modules.keys() & c_psi.modules.keys():
        rows = cpx.cofree_module(lam, mod.verts_at(-k)).hom_index
        tgt = c_psi.modules[k]
        fam[k] = GradedMorphism(d_nu.modules[k], tgt, {
            dd: cpx._pair_map(rows[-dd - k], cols[:, ::-1], [
                (corr(dd + k), linalg.Sparse.identity(mod.dim(-k)))], lam.p)
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
        pres = lam = mod = None
        for _ in range(8):
            pres = chain_presentation(rng, full_rank_ok=want_ann)
            lam = build_slices(pres, pres.n + 2)
            n = pres.n
            freeop = _free_op_algebra(pres.quiver, n, 3 * n + 2)
            if want_ann:
                dual = build_dual(lam, 3 * n + 2)
                dm = random_quotient_module(rng, dual, 0, 3 * n)
                mod = GradedModule(freeop, dict(dm.verts),
                                   dm.stored_actions())
                ann = cpx.annihilates_orthogonal(mod, lam)
                break
            if compute_orthogonal(lam).dim == 0:
                continue
            cand = random_representation(rng, freeop, range(0, 3 * n + 1), 3,
                                         mindim=1)
            if not cpx.annihilates_orthogonal(cand, lam):
                mod, ann = cand, False
                break
        if mod is None:
            continue
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


def suite_torsion_classes(trials: int = 50, seed: int = 0) -> dict:
    """is_torsionfree agrees with vanishing of the torsion submodule."""
    rng = np.random.default_rng(seed)
    failures = []
    free_count = torsion_count = 0
    for t in range(trials):
        entry, m = _case("torsion_classes", t)
        n = entry["n"]
        params = TorsionParams(n, 1, m)
        mod = random_dual_module(rng, entry, range(0, 2 * n + 3), 3,
                                 2 * n + 2)
        tf = is_torsionfree(mod, params)
        tsub = torsion_submodule(mod, params)
        zero_torsion = not tsub
        free_count += zero_torsion
        torsion_count += not zero_torsion
        if tf != zero_torsion:
            failures.append(_fail_entry(
                t, "torsion-mismatch",
                {"algebra": entry["name"], "params": [n, 1, m],
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
    for t in range(trials):
        entry, m = _case("torsion_transport", t)
        lam, n = entry["lam"], entry["n"]
        params = TorsionParams(n, 1, m)
        degrees = range(m, m + 2 * n + 2)
        if t % 3 == 2:
            # supported off S: a torsion instance by construction
            degrees = [d for d in degrees if not params.in_s(d)]
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
    for t in range(trials):
        entry, _ = _case("contraction", t)
        lam, n = entry["lam"], entry["n"]
        mod = random_dual_module(rng, entry, range(0, 2 * n + 2), 2,
                                 2 * n + 2)
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
    first, _ = _case("contraction", 0)
    z = cpx.contract_H(cpx.zero_complex(first["lam"], first["n"]), 0,
                       first["n"])
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
        # the maps into and out of the shifted component become zero
        diffs = {j: GradedMorphism(mods.get(j, c.component(j)),
                                   mods.get(j + 1, c.component(j + 1)), {})
                 if k in (j, j + 1) else c.diffs[j] for j in sorted(c.diffs)}
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
    hom_dims = []
    first_image = None
    for t in range(trials):
        entry, m = _case("equivalence", t)
        lam, ualg = entry["lam"], entry["ualg"]
        params = TorsionParams(entry["n"], 1, m)
        x = random_distinguished_module(rng, entry, params)
        x2 = random_distinguished_module(rng, entry, params)
        if x is None or x2 is None:
            failures.append(_fail_entry(t, "generator-exhausted"))
            continue
        fx = cpx.equivalence_F(x, lam, params)
        fx2 = cpx.equivalence_F(x2, lam, params)
        if first_image is None:
            first_image = fx, ualg, params
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
        sort = GradedMorphism(wit, x, sorting_witness(x))
        bad = _fail_iso(t, "round-trip-module", {"X": module_json(x)},
                        cpx.stalk_complex(wit, 0, 2),
                        cpx.stalk_complex(x, 0, 2), {0: sort})
        if bad:
            failures += bad
            continue
        fw = cpx.equivalence_F(wit, lam, params)
        failures += _fail_iso(t, "round-trip-complex", {"X": module_json(x)},
                              fw, fx, cpx.equivalence_F_map(sort, fw, fx,
                                                            params))
    rejected = 0
    if first_image is not None:
        fx, ualg, params = first_image
        for i, bad in enumerate(negative_control_complexes(fx, controls)):
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
    for t in range(trials):
        entry, _ = _case("even_presentation", t)
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


def suite_dual_equivalence(trials: int = 15, seed: int = 0,
                           duality_trials: int = 20) -> dict:
    """The dual-side equivalence: outputs satisfy the dual image
    conditions (checked on the injective side, before the complex is
    dualized), membership transports through vector-space duality, and
    the two functor images are dual to each other, by the natural pairing
    checked as an isomorphism of complexes."""
    rng = np.random.default_rng(seed)
    failures = []
    lo_members = 0
    for t in range(trials):
        entry, m = _case("dual_equivalence", t)
        lam = entry["lam"]
        params = TorsionParams(entry["n"], 1, m)
        x = random_distinguished_module(rng, entry, params)
        if x is None:
            failures.append(_fail_entry(t, "generator-exhausted"))
            continue
        dx = graded_dual(x)
        if not in_Lo(dx, params):
            failures.append(_fail_entry(
                t, "dual-not-member", {"X": module_json(x)}))
            continue
        lo_members += 1
        op_lam = opposite_algebra(lam)[0]
        c_inj = cpx._F_dual_injective(dx, op_lam, params)
        why = cpx.dual_image_failure(c_inj, params)
        if why:
            failures.append(_fail_entry(
                t, "dual-image-conditions", {"X": module_json(x),
                                             "reason": why}))
        elif not cpx.in_Yo(cpx.dualize_complex(c_inj), dx.algebra, params):
            failures.append(_fail_entry(
                t, "dual-image-membership", {"X": module_json(x)}))
    # duality square: D(Hom functor) ~ tensor functor of the dual module
    iso_count = 0
    for t in range(duality_trials):
        entry, _ = _case("dual_equivalence", t)
        lam, n = entry["lam"], entry["n"]
        mod = random_representation(rng, entry["dual"],
                                    range(0, 2 * n + 2), 2)
        d_nu = cpx.dualize_complex(cpx.nu(mod, lam))
        dm = graded_dual(mod)
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
    monomial algebra with a surviving degree-3 path is the negative,
    resolved one step short of `bound`."""
    failures = []
    tables = {}
    for name, _ in CASES["koszulity"]:
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
    for name, _ in CASES["koszulity_negatives"]:
        entry = corpus(name)
        seg = ko.minimal_projective_resolution(
            ko.semisimple_module(entry["lam"]), bound - 1)
        if ko.follows_degree_map(seg, entry["n"]):
            failures.append(_fail_entry(0, "monomial-negative-accepted"))
        tables[name] = {"ext_dims": ko.segment_ext_dims(seg),
                        "is_n_koszul": False}
    return _report("koszulity", seed, len(tables), failures, tables=tables)


def suite_dimensions(seed: int = 0) -> dict:
    """Dimension identities of the truncated examples plus recorded (not
    asserted) lifting baselines for minimal coresolutions."""
    failures = []
    tables = {}
    for name, _ in CASES["dimensions"]:
        entry = corpus(name)
        dual, q, n = entry["dual"], entry["quiver"], entry["n"]
        dual_dims = [dual.dim(k) for k in range(9)]
        path_counts = [len(enumerate_paths(q, k)) for k in range(9)]
        dmap = DegreeMap(0, n)
        ealg = yoneda_regrade(entry["ualg"])
        e_dims = [ealg.dim(j) for j in range(6)]
        want_e = [dual.dim(dmap.delta(j)) for j in range(6)]
        tables[name] = {"dual_dims": dual_dims, "path_counts": path_counts,
                        "yoneda_dims": e_dims, "dual_dims_at_delta": want_e}
        if dual_dims != path_counts:
            failures.append(_fail_entry(0, f"{name}-dual-dims", tables[name]))
        if e_dims != want_e:
            failures.append(_fail_entry(0, f"{name}-yoneda-dims",
                                        tables[name]))
    baselines = {}
    for name, _ in CASES["lifting_baselines"]:
        entry = corpus(name)
        sem = ko.semisimple_module(entry["lam"])
        cok = ko.is_n_cokoszul(sem, 5)
        ok, wit = ko.is_H0_liftable_resolution(sem, entry["ualg"], 5)
        baselines[name] = {
            "is_n_cokoszul": bool(cok), "lift_exists": bool(ok),
            "witness_total_dim": int(wit.total_dim()) if ok else None}
    tables["lifting_baselines"] = baselines
    return _report("dimensions", seed, len(CASES["dimensions"]), failures,
                   tables=tables)


# suite_NAME for each NAME of SUITE_NAMES, in that order
SUITES = dict(zip(SUITE_NAMES, (
    suite_dual_agreement, suite_functor_oracle, suite_torsion_classes,
    suite_torsion_transport, suite_contraction, suite_equivalence,
    suite_even_presentation, suite_dual_equivalence, suite_koszulity,
    suite_dimensions)))


def run_suite(name: str, trials=None, seed: int = 0, **kw) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         + ", ".join(sorted(SUITES)))
    fn = SUITES[name]
    if trials is None or name in ("koszulity", "dimensions"):
        return fn(seed=seed, **kw)
    return fn(trials=trials, seed=seed, **kw)
