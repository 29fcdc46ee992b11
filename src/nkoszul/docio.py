"""JSON input documents and report serialization.

The input format is plain JSON.  Paths are written with arrow names joined
by dots ("x.y.x" is the path x then y then x), relations are objects
mapping path strings to integer coefficients, and module actions are keyed
"generator@degree".  See FORMAT.md at the repository root for the full
layout and worked examples.
"""
from __future__ import annotations

import json

import numpy as np

from .quiver import Path, PathSpaceElement, Quiver
from .algebra import Presentation
from .grmod import GradedModule, GradedMorphism


class DocumentError(ValueError):
    """Input document failed to parse; the message names the bad field."""


def _fail(where: str, msg: str):
    raise DocumentError(f"{where}: {msg}")


# The top-level keys of a document; any other is refused (FORMAT.md).
DOCUMENT_KEYS = ("modulus", "vertices", "arrows", "n", "relations", "window",
                 "m", "r", "modules")
# The kernels are exact for every prime modulus below this bound.
MODULUS_BOUND = 2 ** 63
# Miller-Rabin with these bases decides primality of every n below
# 318665857834031151167461, far past 2**64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.1e23."""
    if n < 2:
        return False
    for b in _WITNESSES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _WITNESSES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def parse_path(q: Quiver, text: str, where: str) -> Path:
    names = [t for t in text.split(".") if t]
    if not names:
        _fail(where, "empty path")
    try:
        idxs = [q.arrow_by_name(nm) for nm in names]
    except Exception:
        _fail(where, f"unknown arrow name in {text!r}")
    pa = Path(q.arrow_source(idxs[0]), tuple(idxs))
    if not pa.is_valid_in(q):
        _fail(where, f"arrows do not compose in {text!r}")
    return pa


def parse_relation(q: Quiver, obj, where: str, n: int) -> PathSpaceElement:
    if not isinstance(obj, dict) or not obj:
        _fail(where, "relation must be a non-empty object")
    coeffs = {}
    for text, cv in obj.items():
        pa = parse_path(q, text, f"{where}[{text!r}]")
        if pa.length() != n:
            _fail(where, f"path {text!r} has length {pa.length()}, "
                         f"relations must be homogeneous of degree {n}")
        if type(cv) is not int:  # JSON reads true and false as bool
            _fail(where, f"coefficient of {text!r} is not an integer")
        coeffs[pa] = cv
    return PathSpaceElement(n, coeffs)


def parse_document(doc: dict, default_modulus: int = 101) -> dict:
    """Validate a raw JSON document into domain objects.

    Returns a dict with keys modulus, quiver, n, relations, presentation,
    window, m, r, modules (raw specs).
    """
    if not isinstance(doc, dict):
        _fail("document", "top level must be an object")
    for key in doc:
        if key not in DOCUMENT_KEYS:
            _fail("document", f"unknown key {key!r}; the keys are "
                  + ", ".join(DOCUMENT_KEYS))
    p = doc.get("modulus", default_modulus)
    if not (type(p) is int and p >= 2):
        _fail("modulus", "must be an integer >= 2")
    if p >= MODULUS_BOUND:
        _fail("modulus", f"{p} is not below 2**63")
    if not is_prime(p):
        _fail("modulus", f"{p} is not a prime: F_p needs a prime modulus")
    nv = doc.get("vertices")
    if not (type(nv) is int and nv >= 1):
        _fail("vertices", "must be a positive integer")
    arrows = doc.get("arrows")
    if not isinstance(arrows, list):
        _fail("arrows", "must be a list of [name, source, target]")
    specs = []
    for i, a in enumerate(arrows):
        if (not isinstance(a, list) or len(a) != 3
                or not isinstance(a[0], str)):
            _fail(f"arrows[{i}]", "expected [name, source, target]")
        for v in a[1:]:
            if not (type(v) is int and 0 <= v < nv):
                _fail(f"arrows[{i}]", f"vertex {v!r} is not an integer in "
                      f"[0, {nv})")
        specs.append((a[0], a[1], a[2]))
    try:
        q = Quiver.make(nv, specs)
    except Exception as e:
        _fail("arrows", str(e))
    n = doc.get("n")
    if not (type(n) is int and n >= 2):
        _fail("n", "must be an integer >= 2")
    rels = doc.get("relations", [])
    if not isinstance(rels, list):
        _fail("relations", "must be a list of relation objects")
    rels = [parse_relation(q, r, f"relations[{i}]", n)
            for i, r in enumerate(rels)]
    window = doc.get("window", [-8 * n, 8 * n])
    if (not isinstance(window, list) or len(window) != 2
            or not all(type(v) is int for v in window)
            or window[0] > window[1]):
        _fail("window", "must be [lo, hi] with lo <= hi")
    m = doc.get("m", 0)
    r = doc.get("r", 1)
    if type(m) is not int:
        _fail("m", "must be an integer")
    if not (type(r) is int and r >= 1):
        _fail("r", "must be an integer >= 1")
    modules = doc.get("modules", {})
    if not isinstance(modules, dict):
        _fail("modules", "must be an object")
    pres = Presentation.make(q, n, rels, p)
    return {
        "modulus": p, "quiver": q, "n": n, "relations": rels,
        "presentation": pres, "window": tuple(window), "m": m, "r": r,
        "modules": modules,
    }


def _once_each(pairs: list) -> dict:
    """A JSON object from its members, refusing a key given twice, which
    json.load would read as its last value alone."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DocumentError(f"key {key!r} is given twice in one object")
        obj[key] = value
    return obj


def load_document(path: str, default_modulus: int = 101) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh, object_pairs_hook=_once_each)
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise DocumentError(f"{path}: invalid JSON at line {e.lineno}, "
                            f"column {e.colno}")
    return parse_document(raw, default_modulus)


def parse_module(spec, algebra, where: str) -> GradedModule:
    """A graded module from {"verts": {...}, "actions": {...}}.

    Action keys are "name@degree" with the generator names of the target
    algebra; matrices are row-indexed by the source degree basis.  The
    rules each entry must meet are stated in FORMAT.md.
    """
    if not isinstance(spec, dict):
        _fail(where, "module spec must be an object")
    verts, keys = {}, {}
    for dk, vs in _members(spec, "verts", where).items():
        try:
            d = int(dk)
        except ValueError:
            _fail(f"{where}.verts", f"bad degree key {dk!r}")
        if keys.setdefault(d, dk) != dk:
            _fail(f"{where}.verts", f"keys {keys[d]!r} and {dk!r} name one "
                                    "degree")
        if not isinstance(vs, list):
            _fail(f"{where}.verts[{dk}]", "expected a list of vertices")
        for i, v in enumerate(vs):
            if not (type(v) is int and 0 <= v < algebra.nvert):
                _fail(f"{where}.verts[{dk}][{i}]", f"vertex {v!r} is not "
                      f"an integer in [0, {algebra.nvert})")
        if vs:
            verts[d] = vs
    gens = {g.name: gi for gi, g in enumerate(algebra.generators())}
    actions, keys = {}, {}
    for key, mat in _members(spec, "actions", where).items():
        try:
            name, dk = key.rsplit("@", 1)
            d = int(dk)
        except ValueError:
            _fail(f"{where}.actions", f"bad action key {key!r}")
        if keys.setdefault((name, d), key) != key:
            _fail(f"{where}.actions", f"keys {keys[name, d]!r} and {key!r} "
                                      "name one action")
        at = f"{where}.actions[{key}]"
        if name not in gens:
            _fail(at, f"unknown generator {name!r}")
        a = _matrix(mat, algebra.p, at)
        if a.any():
            if d not in verts:
                _fail(at, f"nonzero action from degree {d}, which is "
                          "outside the support")
            actions[(gens[name], d)] = a
    mod = GradedModule(algebra, verts, actions)
    bad = mod.validate()
    if bad:
        _fail(where, f"module is not valid: {bad[0]}")
    return mod


def _members(spec: dict, key: str, where: str) -> dict:
    """The object spec[key], empty when absent."""
    obj = spec.get(key, {})
    if not isinstance(obj, dict):
        _fail(f"{where}.{key}", "must be an object")
    return obj


def _matrix(mat, p: int, where: str) -> np.ndarray:
    """An int64 matrix from a non-empty list of rows of one length, each
    entry an integer, reduced mod p on Python integers."""
    a = np.array(mat, dtype=object) if isinstance(mat, list) else None
    if a is None or a.ndim != 2:
        _fail(where, "matrix must be a non-empty list of rows of one length")
    for (i, j), v in np.ndenumerate(a):
        if type(v) is not int:  # JSON reads true and false as bool
            _fail(f"{where}[{i}][{j}]", f"entry {v!r} is not an integer")
    return (a % p).astype(np.int64)


def module_json(mod: GradedModule) -> dict:
    gens = mod.algebra.generators()
    return {
        "verts": {str(d): mod.verts_at(d).tolist()
                  for d in sorted(mod.degrees())},
        "actions": {f"{gens[gi].name}@{d}": m.dense().tolist()
                    for (gi, d), m in sorted(mod.stored_actions().items())},
    }


def morphism_json(f: GradedMorphism) -> dict:
    return {str(d): m.dense().tolist()
            for d, m in sorted(f.stored_mats().items())}


def complex_json(c) -> dict:
    return {
        "period": c.period,
        "components": {str(k): module_json(c.component(k))
                       for k in c.positions()},
        "diffs": {str(k): morphism_json(c.diff(k))
                  for k in sorted(c.diffs)},
    }


def presentation_json(pres: Presentation) -> dict:
    q = pres.quiver
    return {
        "modulus": pres.p,
        "vertices": q.vertex_count,
        "arrows": [[q.arrow_name(i), q.arrow_source(i), q.arrow_target(i)]
                   for i in range(q.arrow_count)],
        "n": pres.n,
        "relations": [
            {pa.name_in(q): int(cv) for pa, cv in rel.coeffs.items()}
            for rel in pres.relations
        ],
    }


def dump_report(report: dict, path=None) -> str:
    text = json.dumps(report, indent=2, sort_keys=True, default=_coerce)
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise DocumentError(f"cannot write {path}: {e}")
    return text


def _coerce(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")
