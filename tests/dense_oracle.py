"""The dense builders of the resolution path, kept as test oracles.

The library builds free modules, cover maps, composites, kernels and
sub-modules in the sparse form of `linalg.Sparse`.  These are the dense
builders it replaced, one int64 array per action and per degree, with the
dense eliminations they used; `dense_resolution` chains them as
`koszul.minimal_projective_resolution` does.  Tests compare the library's
output, densified, with theirs array by array.  `null_space` is the null
space as it was built with two eliminations, before `linalg.null_space`
read the canonical basis off one, and `odd_system` the extraction's
degree-n system over every entry of the action at once, before
`complexes._odd_solution` solved it per vertex block.
"""
import numpy as np

from nkoszul import complexes as cx
from nkoszul import linalg
from nkoszul.algebra import _check_size
from nkoszul.complexes import _lam_top
from nkoszul.grmod import GradedModule, GradedMorphism, ModuleError
from nkoszul.linalg import Subspace, zeros


def null_space(m, p: int) -> np.ndarray:
    """The canonical basis of {x : m @ x = 0} as `linalg.null_space` built
    it with two eliminations: the basis with the free columns as the
    identity, then the RREF of that basis."""
    red, pivots, r = linalg.rref(m, p)
    cols = red.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    basis = zeros(free.size, cols)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-red[:r, free].T) % p
    red, _, r = linalg.rref(basis, p)
    return red[:r]


def free_module(algebra, gen_list, hi):
    """`grmod.free_module` with dense actions: each action one array."""
    index, verts, offsets = {}, {}, {}
    gv = np.array([v for v, _ in gen_list], dtype=np.intp)
    gd = np.array([d for _, d in gen_list], dtype=np.intp)
    classes = sorted(set(zip(gv.tolist(), gd.tolist())))
    members = [((gv == v) & (gd == e)).nonzero()[0] for v, e in classes]
    starts = {}

    def starting_at(k, v):
        if (k, v) not in starts:
            pairs = algebra.basis_pairs(k) if k >= 0 else []
            at = [(bi, tgt) for bi, (src, tgt) in enumerate(pairs) if src == v]
            starts[(k, v)] = (np.array([b for b, _ in at], dtype=np.intp),
                              [t for _, t in at])
        return starts[(k, v)]

    for d in range(min((e for _, e in gen_list), default=0), hi + 1):
        counts = np.zeros(len(gen_list), dtype=np.intp)
        for (v, e), gs in zip(classes, members):
            counts[gs] = starting_at(d - e, v)[0].size
        if not counts.any():
            continue
        entries, vs = [], []
        for gno, (v, e) in enumerate(gen_list):
            if counts[gno]:
                bis, tgts = starting_at(d - e, v)
                entries.extend(zip([gno] * bis.size, bis.tolist()))
                vs.extend(tgts)
        index[d] = entries
        verts[d] = tuple(vs)
        offsets[d] = np.cumsum(counts) - counts
    actions = {}
    for gi, g in enumerate(algebra.generators()):
        for d in index:
            d2 = d + g.degree
            if d2 not in index:
                continue
            m = zeros(len(index[d]), len(index[d2]))
            for (v, e), gs in zip(classes, members):
                rows, cols = starting_at(d - e, v)[0], starting_at(d2 - e, v)[0]
                if not (rows.size and cols.size):
                    continue
                t = algebra.mult(d - e, g.degree)
                if t.size == 0:
                    continue
                block = t[np.ix_(rows, [g.basis_index], cols)][:, 0, :]
                r = offsets[d][gs][:, None] + np.arange(rows.size)
                c = offsets[d2][gs][:, None] + np.arange(cols.size)
                m[r[:, :, None], c[:, None, :]] = block
            if m.any():
                actions[(gi, d)] = m
    mod = GradedModule(algebra, verts, actions)
    mod.free_index = index
    return mod


def top_complements(mod):
    """`grmod.top_complements` by one dense rref of the stacked actions."""
    out = {}
    for d in mod.degrees():
        rows = [mod.act(gi, d - g.degree) for gi, g in enumerate(mod.gens)
                if (gi, d - g.degree) in mod.stored_actions()]
        rows = [a for a in rows if a.any()]
        if not rows:
            pivots = []
        else:
            pivots = Subspace.from_rows(mod.dim(d), np.concatenate(rows),
                                        mod.p).pivots
        is_comp = np.ones(mod.dim(d), dtype=bool)
        is_comp[pivots] = False
        if is_comp.any():
            out[d] = is_comp.nonzero()[0].tolist()
    return out


def cover_on_top(mod, comp, hi):
    """`grmod.cover_on_top` with a dense cover map, gathered from the dense
    basis-element actions."""
    gen_list, reps = [], []
    for d in sorted(comp):
        for i in comp[d]:
            gen_list.append((mod.verts_at(d)[i], d))
            reps.append((d, i))
    pmod = free_module(mod.algebra, gen_list, hi)
    gen_deg = np.array([gd for gd, _ in reps], dtype=np.intp)
    gen_row = np.array([i for _, i in reps], dtype=np.intp)
    mats = {}
    for d, entries in pmod.free_index.items():
        m = zeros(len(entries), mod.dim(d))
        gnos, bis = np.array(entries, dtype=np.intp).T
        degs = gen_deg[gnos]
        for gd, bi in sorted(set(zip(degs.tolist(), bis.tolist()))):
            rows = ((degs == gd) & (bis == bi)).nonzero()[0]
            a = mod.act_basis_element(d - gd, bi, gd)
            if a.size:
                m[rows] = a[gen_row[gnos[rows]]]
        mats[d] = m
    return pmod, GradedMorphism(pmod, mod, mats), gen_list


def compose(f, g):
    """`GradedMorphism.compose` as one dense product per degree."""
    mats = {d: linalg.mat_mul(f.mat(d), g.mat(d), f.p)
            for d in set(f.stored_mats()) | set(g.stored_mats())}
    return GradedMorphism(f.source, g.target, mats)


def morphism_kernel(f):
    """`grmod.kernel_bases`, by one dense null space per vertex block, set
    side by side in a dense basis."""
    m = f.source
    out = {}
    for d in m.degrees():
        mat = f.mat(d)
        sv = np.asarray(m.verts_at(d))
        blocks = []
        for v in sorted(set(m.verts_at(d))):
            idx = (sv == v).nonzero()[0]
            kb = linalg.null_space(mat[idx].T, m.p)
            if kb.dim:
                blocks.append((idx, kb.basis.dense(), idx[kb.pivots]))
        if not blocks:
            continue
        lead = np.concatenate([ld for _, _, ld in blocks])
        row_of = np.empty(lead.size, dtype=np.intp)
        row_of[np.argsort(lead)] = np.arange(lead.size)
        basis = zeros(lead.size, m.dim(d))
        first = 0
        for idx, kb, _ in blocks:
            basis[np.ix_(row_of[first:first + len(kb)], idx)] = kb
            first += len(kb)
        out[d] = Subspace.from_rows(m.dim(d), basis, m.p)
    return out


def submodule_as_module(mod, spans):
    """`grmod.submodule_from_bases`, for a family of Subspaces, by dense
    products of the densified bases with the dense actions."""
    bases, verts, pivots, rests = {}, {}, {}, {}
    for d, s in spans.items():
        if not s.dim:
            continue
        vs = np.asarray(mod.verts_at(d))
        bases[d] = s.basis.dense()
        verts[d] = tuple(vs[s.pivots].tolist())
        pivots[d] = s.pivots
        is_rest = np.ones(s.ambient_dim, dtype=bool)
        is_rest[s.pivots] = False
        rests[d] = is_rest.nonzero()[0]
    actions = {}
    for d, b in bases.items():
        for gi, g in enumerate(mod.gens):
            d2 = d + g.degree
            if mod.dim(d2) == 0:
                continue
            img = linalg.mat_mul(b, mod.act(gi, d), mod.p)
            if d2 not in bases:
                if img.any():
                    raise ModuleError("family is not closed under the action")
                continue
            coords = img[:, pivots[d2]]
            if not np.array_equal(
                    linalg.mat_mul(coords, bases[d2][:, rests[d2]], mod.p),
                    img[:, rests[d2]]):
                raise ModuleError("family is not closed under the action")
            if coords.any():
                actions[(gi, d)] = coords
    sub = GradedModule(mod.algebra, verts, actions)
    return sub, GradedMorphism(sub, mod, bases)


def dense_resolution(mod, length):
    """(pmods, diffs, gen_lists) of `koszul.minimal_projective_resolution`,
    from the dense builders above."""
    lam = mod.algebra
    top = _lam_top(lam)
    pmods, diffs, gen_lists = [], [], []
    current, incl = mod, None
    for j in range(length + 1):
        if current.is_zero():
            z = GradedModule(lam, {}, {})
            pmods.append(z)
            diffs.append(GradedMorphism(z, pmods[j - 1] if j else mod, {}))
            gen_lists.append([])
            current = z
            continue
        comp = top_complements(current)
        pmod, phi, gen_list = cover_on_top(current, comp, max(comp) + top)
        pmods.append(pmod)
        gen_lists.append(gen_list)
        diffs.append(phi if incl is None else compose(phi, incl))
        if j == length:
            break
        ker = morphism_kernel(phi)
        if not ker:
            current, incl = GradedModule(lam, {}, {}), None
            continue
        current, incl = submodule_as_module(pmod, ker)
    return pmods, diffs, gen_lists


def dense_actions(mod):
    """The stored actions of a module, each densified."""
    return {key: mod.act(*key) for key in mod.stored_actions()}


def dense_mats(f):
    """The stored matrices of a morphism, each densified."""
    return {d: f.mat(d) for d in f.stored_mats()}


def odd_system(c, models, prov, k, s):
    """The linear system (matrix, right-hand side) for the degree-n action
    at level s, from the odd differential at position k, over every entry
    of the stacked degree-n action A at once.

    The unknowns are the entries of A in row-major order:
    u = (w * dim_s + i) * dim_sn + r2.
    Entry ((b, x), (a, x2)) of the differential is the sum over wi of
    S[(b, x), (a, wi)] * A[wi, x2]; its rows come per degree, row-major.
    The `hit` mask spreads S over the columns x2, and the kernel condition
    C @ A = 0 comes as kron(C, I)."""
    lam, ualg = c.algebra, prov.algebra
    p, n, dual = lam.p, ualg.n, ualg.dual
    dim_sn = len(models[k + 1][2])
    nwi = dual.dim(n) * prov.dim(s)
    t1, pre, ker = cx._mu1_data(prov, s)
    coefs = cx._mu1_pullbacks(prov, s, t1, pre)
    t = cx._transported_diff(c, k, models)
    blocks, rhs = [zeros(0, nwi * dim_sn)], [np.zeros(0, dtype=np.int64)]
    for d, rows, cols, lefts in cx._odd_steps(lam, ualg, s, models[k][0],
                                               models[k + 1][0]):
        _check_size(len(rows) * len(cols) * nwi * dim_sn, "degree-n system",
                    d)
        spread = cx._pair_matrix(
            rows, [(a, wi) for a, _ in cols for wi in range(nwi)],
            list(zip(lefts, coefs)), p)
        hit = np.asarray([x2 for _, x2 in cols])[:, None] == np.arange(dim_sn)
        blocks.append((spread.reshape(len(rows), len(cols), nwi, 1)
                       * hit[None, :, None, :]).reshape(-1, nwi * dim_sn))
        rhs.append(t.mat(d).reshape(-1))
    cond = cx.l_condition(prov, s, t1, ker)
    cond = cond[cond.any(axis=1)]
    blocks.append(np.kron(cond, linalg.eye(dim_sn)))
    rhs.append(np.zeros(len(cond) * dim_sn, dtype=np.int64))
    return np.concatenate(blocks), np.concatenate(rhs)
