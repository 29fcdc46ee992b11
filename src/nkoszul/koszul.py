"""Koszulity-type checkers via minimal projective resolutions.

A graded algebra with relations concentrated in degree n is generalized
Koszul when the minimal resolution of its degree-0 part has the j-th term
generated purely in the alternating degree 0, 1, n, n+1, 2n, ...  The
checkers here build the resolution segment honestly (the base algebra must
be finite dimensional so free modules are complete), read off generator
degrees, and reuse the duality and 2-complex machinery for the co-Koszul
and liftability variants.  A segment of length L builds the covers P_0 ..
P_{L-1} with their cover maps and the L syzygies between them.  Of the last
term P_L it builds only what the generator degrees need: its generators and
vertex labels.  Every other part is built on its own first read, once: the
actions of a term, the cover map onto a syzygy (which its kernel reads,
but for P_L), and each differential, composed from its cover map and the
inclusion of the syzygy.  So a reader of generator lists, such as the
Koszulity and Ext checkers, builds no differential and nothing of P_L but
its generators.  The syzygy of P_L is never built, since nothing read off
the segment depends on it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import DegreeMap
from .complexes import ComplexOfGraded, dualize_complex, in_Y, settled_top
from .grmod import (
    GradedModule,
    GradedMorphism,
    TorsionParams,
    cogenerated_in_degrees,
    cover_on_top,
    graded_dual,
    kernel_bases,
    submodule_from_bases,
    top_complements,
    zero_module,
)


@dataclass
class ResolutionSegment:
    """A finite segment of a minimal projective resolution.

    ``pmods[j]`` covers the j-th syzygy; ``diffs[0]`` is the augmentation
    onto the resolved module and ``diffs[j]`` maps pmods[j] to pmods[j-1].
    ``gen_lists[j]`` holds the (vertex, degree) generators of pmods[j].
    The generators, vertex labels and dimensions of every term are built
    with the segment; the actions of each term and the matrices of each
    differential are built on their own first read, once, so a reader of
    generator lists builds no differential.
    """

    module: GradedModule
    pmods: list
    diffs: list
    gen_lists: list

    def length(self) -> int:
        return len(self.pmods) - 1


def semisimple_module(lam) -> GradedModule:
    """The degree-0 part of the algebra as a right module."""
    return GradedModule(lam, {0: tuple(range(lam.nvert))}, {})


def minimal_projective_resolution(mod: GradedModule,
                                  length: int) -> ResolutionSegment:
    """Iterated minimal covers; exact because free modules are complete.

    Takes `length` kernels: the cover of index `length` is the last term,
    and its syzygy is not built.  Each differential is the cover map then
    the inclusion of the syzygy, composed on first read.  Every term, cover
    map, kernel basis, syzygy and differential stays in the sparse form of
    `linalg.Sparse`.
    """
    lam = mod.algebra
    top = settled_top(lam)
    pmods = []
    diffs = []
    gen_lists = []
    current = mod
    incl = None
    for j in range(length + 1):
        if current.is_zero():
            z = zero_module(lam)
            pmods.append(z)
            prev = pmods[j - 1] if j else mod
            diffs.append(GradedMorphism(z, prev, {}))
            gen_lists.append([])
            current = z
            continue
        # one radical reduction per cover: it gives both the truncation
        # degree and the generators
        comp = top_complements(current)
        pmod, phi, gen_list = cover_on_top(current, comp, max(comp) + top)
        pmods.append(pmod)
        gen_lists.append(gen_list)
        diffs.append(phi if incl is None else phi.compose(incl))
        if j == length:
            break
        ker = kernel_bases(phi)
        if not ker:
            current = zero_module(lam)
            incl = None
            continue
        current, incl = submodule_from_bases(pmod, ker)
    return ResolutionSegment(mod, pmods, diffs, gen_lists)


def follows_degree_map(seg: ResolutionSegment, n: int) -> bool:
    """Whether the j-th term of the segment is generated in degree delta(j)
    of the alternating degree map 0, 1, n, n+1, 2n, ... for every j."""
    dmap = DegreeMap(0, n)
    return all(d == dmap.delta(j)
               for j, gens in enumerate(seg.gen_lists) for _, d in gens)


def segment_ext_dims(seg: ResolutionSegment) -> list:
    """dim Ext^j(M, Lambda_0) for j = 0..length: for a minimal resolution,
    the number of generators of the j-th term."""
    return [len(gens) for gens in seg.gen_lists]


def is_n_koszul(lam, bound: int) -> bool:
    """Generator degrees of the resolution of the degree-0 part follow the
    alternating degree map through the given homological bound."""
    seg = minimal_projective_resolution(semisimple_module(lam), bound)
    return follows_degree_map(seg, lam.pres.n)


def ext_dims(lam, bound: int) -> list:
    """dim Ext^j of the degree-0 part against itself, for j = 0..bound."""
    seg = minimal_projective_resolution(semisimple_module(lam), bound)
    return segment_ext_dims(seg)


def coresolution_complex(mod: GradedModule, bound: int) -> ComplexOfGraded:
    """Minimal almost-injective coresolution of the module, as the dual of
    a projective resolution of its graded dual over the opposite algebra."""
    dm = graded_dual(mod)
    seg = minimal_projective_resolution(dm, bound)
    comps = {-j: m for j, m in enumerate(seg.pmods)}
    diffs = {-j: f for j, f in enumerate(seg.diffs) if j >= 1}
    deleted = ComplexOfGraded(dm.algebra, 2, comps, diffs)
    return dualize_complex(deleted)


def is_n_cokoszul(mod: GradedModule, bound: int) -> bool:
    """Cogenerated in degree 0 with coresolution terms cogenerated in the
    alternating degrees, decided over the opposite algebra."""
    if mod.is_zero():
        return True
    if not cogenerated_in_degrees(mod, {0}):
        return False
    seg = minimal_projective_resolution(graded_dual(mod), bound)
    return follows_degree_map(seg, mod.algebra.pres.n)


def is_H0_liftable_resolution(mod: GradedModule, ualg, bound: int):
    """Whether the minimal coresolution of the module lifts to a module
    over the support-restricted dual.  Returns (verdict, witness module).

    This is a checker for an open structural question; verdicts are
    recorded, not asserted.
    """
    c = coresolution_complex(mod, bound)
    params = TorsionParams(mod.algebra.pres.n, 1, 0)
    return in_Y(c, ualg, params)
