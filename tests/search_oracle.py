"""The randomized isomorphism searches, kept as test oracles.

The library checks the isomorphisms it expects on known witnesses
(`complexes.chain_iso_failure`); these searches stay only for tests that
compare the library against the searches it replaced.  Each tries the Hom
basis and then 64 random combinations of it.  A result of None or False
means "not found", not "not isomorphic": over a small field the search can
miss an isomorphism that exists.  `is_iso` and `commutes`, the checks of
a map that the searches and the tests read, are kept here too.
"""
import numpy as np

from nkoszul import linalg
from nkoszul.complexes import ComplexOfGraded, hom_complexes
from nkoszul.grmod import (GradedModule, GradedMorphism, ModuleError,
                           combine_mats, hom_space)


def is_iso(f: GradedMorphism) -> bool:
    """Whether the map f is invertible."""
    try:
        f.inverse()
    except (ModuleError, linalg.LinAlgError):
        return False
    return True


def commutes(f: GradedMorphism) -> bool:
    """Whether f commutes with every generator's action: a module map."""
    return f.noncommuting_degree() is None


def iso_modules(m: GradedModule, n: GradedModule, seed: int = 0):
    """An isomorphism m -> n, or None; deterministic given the seed."""
    for d in set(m.degrees()) | set(n.degrees()):
        if m.dim(d) != n.dim(d):
            return None
        if sorted(m.verts_at(d)) != sorted(n.verts_at(d)):
            return None
    if m.is_zero():
        return GradedMorphism(m, n, {})
    basis = hom_space(m, n)
    if not basis:
        return None
    for f in basis:
        if is_iso(f):
            return f
    rng = np.random.default_rng(seed)
    for _ in range(64):
        c = rng.integers(0, m.p, size=len(basis))
        f = GradedMorphism(m, n, combine_mats(c, [b.stored_mats() for b in basis], m.p))
        if is_iso(f):
            return f
    return None


def iso_complexes(c: ComplexOfGraded, c2: ComplexOfGraded,
                  seed: int = 0) -> bool:
    """Whether the search found an invertible chain map."""
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
            if not is_iso(f):
                return False
        return True

    for fam in basis:
        if invertible(fam):
            return True
    rng = np.random.default_rng(seed)
    p = c.p
    for _ in range(64):
        coef = rng.integers(0, p, size=len(basis))
        fam = {k: GradedMorphism(
            c.component(k), c2.component(k),
            combine_mats(coef, [bfam[k].stored_mats() if k in bfam else {}
                                for bfam in basis], p))
            for k in positions}
        if invertible(fam):
            return True
    return False
