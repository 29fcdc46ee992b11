"""The randomized isomorphism searches, kept as test oracles.

The library checks the isomorphisms it expects on known witnesses
(`complexes.chain_iso_failure`); these searches stay only for tests that
compare the library against the searches it replaced.  Each tries the Hom
basis and then 64 random combinations of it (`combine_mats`).  A result of
None or False means "not found", not "not isomorphic": over a small field
the search can miss an isomorphism that exists.  `is_iso` and `commutes`,
the checks of a map that the searches and the tests read, are kept here
too, and so is `reference_hom_complexes`, the Hom space of complexes built
from the Hom spaces of the components, which `complexes.hom_complexes`
replaced.
"""
import numpy as np

from nkoszul import linalg
from nkoszul.complexes import ComplexError, ComplexOfGraded, hom_complexes
from nkoszul.grmod import GradedModule, GradedMorphism, ModuleError, hom_space
from nkoszul.linalg import zeros


def _combine(coeffs, mats, shape, p: int):
    """sum_k coeffs[k] * mats[k] mod p, for matrices of one shape: an array
    by one product of the coefficient row with the stacked matrices when
    all are arrays, else a Sparse (`linalg.sparse_combine`)."""
    if all(isinstance(m, np.ndarray) for m in mats):
        stacked = np.reshape(mats, (len(mats), shape[0] * shape[1]))
        return linalg.mat_mul(np.reshape(coeffs, (1, len(mats))), stacked,
                              p).reshape(shape)
    return linalg.sparse_combine(coeffs, [linalg.as_sparse(m, p)
                                          for m in mats], p)


def combine_mats(coef, mats_list, p: int) -> dict:
    """Per degree, sum_i coef[i] * mats_list[i][d] mod p: the matrices of a
    linear combination of morphisms, each given by its per-degree matrices.

    One `_combine` per degree, so it is exact at every p < 2**63: an array
    when every term there is one, else a Sparse.  A degree is kept when a
    term with a nonzero coefficient has a matrix there.
    """
    terms = [(int(ci), mats) for ci, mats in zip(coef, mats_list) if ci]
    out = {}
    for d in sorted({d for _, mats in terms for d in mats}):
        have = [(ci, mats[d]) for ci, mats in terms if d in mats]
        out[d] = _combine([ci for ci, _ in have], [m for _, m in have],
                          have[0][1].shape, p)
    return out


def reference_hom_complexes(c: ComplexOfGraded, c2: ComplexOfGraded):
    """The replaced construction of the chain maps c -> c2: a `hom_space`
    basis per position, the chain condition of each basis map stacked as a
    dense column, and the kernel recombined by `combine_mats`.  Families
    hold the positions whose Hom space is nonzero."""
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
            block[:, offs[k + 1] + i] = stack_entries(c.diff(k).compose(f),
                                                      degs)
        for i, f in enumerate(bases.get(k, ())):
            block[:, offs[k] + i] -= stack_entries(f.compose(c2.diff(k)),
                                                   degs)
        if block.any():
            rows.append(block % p)
    ker = linalg.null_space(np.concatenate(rows), p)
    return [{k: GradedMorphism(c.component(k), c2.component(k),
                               combine_mats(coef[offs[k]: offs[k] + len(b)],
                                            [f.stored_mats() for f in b], p))
             for k, b in bases.items()} for coef in ker.basis.dense()]


def stack_entries(f: GradedMorphism, degs) -> np.ndarray:
    """The entries of f's matrices in the degrees degs, one after the
    other."""
    parts = [f.sparse_mat(d).dense().reshape(-1) for d in degs]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


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
