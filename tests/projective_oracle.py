"""The projective picture of the essential image, checked on its own side.

`complexes` decides the projective picture only through the graded duality
D: `in_Yo(c)` is `in_Y` of D(c), and `equivalence_F_dual` checks its output
on the injective side before dualizing it (`dual_image_failure`).  These
are the direct checks it replaced, kept as test oracles: the projective
certificate (the cover map from the projective cover, an isomorphism
exactly when the dimensions agree) and `check_Yo_conditions` (components
projective generated in the regraded degrees, odd kernels inside the
radical, the second condition only when n > 2).  Tests compare them with
the dual checks.
"""
from nkoszul.algebra import DegreeMap
from nkoszul.grmod import _radical_rrefs, kernel_bases, projective_cover


def projective_certificate(c, degree_of):
    """Per position, the cover map onto the component with the generators
    of the projective cover, or None if some component is not projective
    generated purely in degree_of(position).  The cover map is onto, so it
    is an isomorphism exactly when the dimensions agree in every degree."""
    out = {}
    for k in c.positions():
        comp = c.modules[k]
        model, witness, mults = projective_cover(comp)
        if {d for _, d in mults} != {degree_of(k)}:
            return None
        if any(model.dim(d) != comp.dim(d)
               for d in set(model.degrees()) | set(comp.degrees())):
            return None
        out[k] = {"mults": mults, "witness": witness}
    return out


def kernel_in_radical(rad, ker) -> bool:
    return rad.contains(ker)


def check_Yo_conditions(c, params):
    """Conditions of the projective essential image, as (verdict, reason):
    components projective generated in the regraded degrees, and odd
    kernels inside the radical (first condition only when n = 2)."""
    dmap = DegreeMap(params.m, params.n)
    if projective_certificate(c, lambda k: dmap.delta(-k)) is None:
        return False, "a component is not projective at the stated degree"
    if params.n == 2:
        return True, ""
    for k in c.positions():
        if k % 2 == 0:
            continue
        rad = _radical_rrefs(c.modules[k])
        for d, ker in kernel_bases(c.diff(k)).items():
            if not kernel_in_radical(rad[d], ker):
                return False, f"kernel at position {k} escapes the radical"
    return True, ""
