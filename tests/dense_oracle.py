"""The dense builders of the resolution path, kept as test oracles.

The library builds free modules, cover maps, composites, kernels and
sub-modules in the sparse form of `linalg.Sparse`.  These are the dense
builders it replaced, one int64 array per action and per degree, with the
dense eliminations they used; `dense_resolution` chains them as
`koszul.minimal_projective_resolution` does.  Tests compare the library's
output, densified, with theirs array by array.  `null_space` is the null
space as it was built with two eliminations, before `linalg.null_space`
read the canonical basis off one.  `odd_system` is the extraction's
degree-n system over every entry of the action at once, and
`induced_degree_n` the induction through the canonical preimage of mu_1
that gave the action one degree above each level: the extraction once
solved the one and ran the other, and they are now the references that
the actions it reads off the odd differential are compared with.
`pair_matrix` is the dense block of a pair-indexed map (a differential of
psi, nu or F, a cofree action), built by gathers on the pair indices before
the Sparse builder joined the factors' nonzeros.  `solve` and
`solve_matrix` are the dense solves of [a | b] with the free variables at
0, before every solve became one canonical left inverse
(`linalg.left_inverse`); the inverses, the preimages of mu_1 and the word
coefficients are compared with theirs.
`cofree_index` is
the cofree basis as a list of (b, x) pairs from a double loop, before it
became an (E, 2) array, and `noncommuting_degree` and `chain_iso_failure`
are the checks of a module map and of a chain isomorphism on dense copies
of the maps, one product per generator and a dense vertex mask, before
they read the stored nonzeros.  `word_action` and `basis_element_action`
are the action of a generator word and of an algebra basis element as
products of the dense letter actions, with no memo, and the vertex
idempotent as a diagonal projection, before the module read them off one
word chain (`grmod._rows_times_basis_element`).  `F_at_n2` is F at n = 2
as it was built before `nu` and F came from one builder: the module copied
onto the dual, nu of the copy by nu's own loop, every position shifted by
-m.  `socle_subspaces`, `restrict_stable`, `is_torsionfree` and
`multiplication_map` are the readers of socles, torsion and mu_1 on the
densified actions, with the dense null spaces they used, before they read
the stored Sparse actions.  `mult_tensor` is an algebra's products as
the dense 3-tensor that `mult` handed out before it became one Sparse row
per pair of basis elements, the form the oracles read; `right_mult_matrix`
is right multiplication by an element as one product with that tensor,
and `path_classes` the classes of the contraction maps of F as they were
built from the classes of paths, before they were read off the dual's
products.
"""
import numpy as np

from nkoszul import complexes as cx
from nkoszul import linalg
from nkoszul.algebra import _check_size
from nkoszul.complexes import settled_top
from nkoszul.grmod import (GradedModule, GradedMorphism, ModuleError,
                           _element_action, _rows_times_basis_element,
                           l_condition)
from nkoszul.linalg import Subspace, zeros
from nkoszul.quiver import Path, enumerate_paths


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


def solve(a, b, p: int):
    """Some x with a @ x = b (mod p), or None if inconsistent: the free
    variables are 0, so the choice is canonical."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    bv = np.asarray(b, dtype=np.int64).reshape(-1, 1)
    n = a.shape[1]
    red, pivots, r = linalg.rref(np.concatenate([a, bv], axis=1), p)
    if r and pivots[-1] == n:
        return None
    x = np.zeros(n, dtype=np.int64)
    x[pivots] = red[:r, n]
    return x


def solve_matrix(a, b, p: int):
    """`solve` for a matrix right-hand side: some X with a @ X = b, or
    None."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    b = np.atleast_2d(np.asarray(b, dtype=np.int64))
    n = a.shape[1]
    red, pivots, r = linalg.rref(np.concatenate([a, b], axis=1), p)
    if r and pivots[-1] >= n:
        return None
    x = zeros(n, b.shape[1])
    x[pivots] = red[:r, n:]
    return x


def mult_tensor(alg, d1: int, d2: int) -> np.ndarray:
    """The products of degrees d1 and d2 as the dense 3-tensor T the
    algebra once handed out, basis_i(d1) * basis_j(d2) = sum_k T[i, j, k]
    basis_k: `alg.mult(d1, d2)`, one row per pair, densified."""
    return alg.mult(d1, d2).dense().reshape(alg.dim(d1), alg.dim(d2),
                                            alg.dim(d1 + d2))


def right_mult_matrix(alg, d: int, d_el: int, vec) -> np.ndarray:
    """Matrix of x -> x * el from A_d to A_{d + d_el} (rows = A_d basis),
    el the element of degree d_el with coordinates vec: one product with
    the tensor."""
    t = mult_tensor(alg, d, d_el)
    m1, k, m2 = t.shape
    return linalg.mat_mul(np.reshape(vec, (1, k)),
                          t.transpose(1, 0, 2).reshape(k, m1 * m2),
                          alg.p).reshape(m1, m2)


def path_classes(ualg) -> list:
    """`complexes._path_classes` as it was built before it read the
    dual's products: per path p of length n-1 in the base quiver, the
    dense matrix C whose row alpha is the class in the dual of the path
    alpha^o p^o of Q^op, for each arrow alpha with t(p) = o(alpha), and
    zero for every other arrow."""
    dual, n = ualg.dual, ualg.n
    q = dual.quiver.opposite()
    out = []
    for pa in enumerate_paths(q, n - 1):
        arrows = [ai for ai in range(q.arrow_count)
                  if q.arrow_source(ai) == pa.target_in(q)]
        coef = zeros(q.arrow_count, dual.dim(n))
        coef[arrows] = dual.path_classes(n, [
            Path(q.arrow_target(ai), (ai,) + tuple(reversed(pa.arrows)))
            for ai in arrows])
        out.append(coef)
    return out


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
                t = mult_tensor(algebra, d - e, g.degree)
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
        rows = [mod.sparse_act(gi, d - g.degree).dense()
                for gi, g in enumerate(mod.gens)
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
            a = _rows_times_basis_element(mod, None, d - gd, bi, gd,
                                          {}).dense()
            if a.size:
                m[rows] = a[gen_row[gnos[rows]]]
        mats[d] = m
    return pmod, GradedMorphism(pmod, mod, mats), gen_list


def compose(f, g):
    """`GradedMorphism.compose` as one dense product per degree."""
    mats = {d: linalg.mat_mul(f.sparse_mat(d).dense(),
                              g.sparse_mat(d).dense(), f.p)
            for d in set(f.stored_mats()) | set(g.stored_mats())}
    return GradedMorphism(f.source, g.target, mats)


def morphism_kernel(f):
    """`grmod.kernel_bases`, by one dense null space per vertex block, set
    side by side in a dense basis."""
    m = f.source
    out = {}
    for d in m.degrees():
        mat = f.sparse_mat(d).dense()
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
            img = linalg.mat_mul(b, mod.sparse_act(gi, d).dense(), mod.p)
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
    top = settled_top(lam)
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
    return {key: mod.sparse_act(*key).dense() for key in mod.stored_actions()}


def dense_mats(f):
    """The stored matrices of a morphism, each densified."""
    return {d: f.sparse_mat(d).dense() for d in f.stored_mats()}


def word_action(mod, word, d: int) -> np.ndarray:
    """The action of a generator word from degree d: the dense letter
    actions multiplied in order, the identity for the empty word."""
    out = linalg.eye(mod.dim(d))
    for gi in word:
        out = linalg.mat_mul(out, mod.sparse_act(gi, d).dense(), mod.p)
        d += mod.gens[gi].degree
    return out


def basis_element_action(mod, d_el: int, b_index: int, d: int) -> np.ndarray:
    """The action of the b-th algebra basis element of degree d_el from
    degree d: the diagonal projection onto the vertex block for a vertex
    idempotent, else its words' actions combined on Python integers."""
    if d_el == 0:
        v = mod.algebra.basis_pairs(0)[b_index][0]
        return np.diag((mod.verts_at(d) == v).astype(np.int64))
    out = np.zeros((mod.dim(d), mod.dim(d + d_el)), dtype=object)
    for w, c in mod.algebra.element_words(d_el)[b_index]:
        out = out + int(c) * word_action(mod, w, d).astype(object)
    return (out % mod.p).astype(np.int64)


def label_lists(verts: dict) -> dict:
    """Vertex labels per degree as lists of Python ints, from the label
    arrays of a module or from sequences."""
    return {d: np.asarray(v).tolist() for d, v in verts.items()}


def pair_matrix(src_pairs, tgt_pairs, terms, p: int) -> np.ndarray:
    """The map between spaces whose bases are indexed by pairs as one dense
    block, as `complexes` built it before its one Sparse builder
    (`complexes._pair_map`): entry (r, c) is the sum over (L, R) in `terms`
    of L[u_r, u'_c] * R[v_r, v'_c] mod p, one gather of each array factor
    per term, in int64 while p*(p-1) <= 2**63 - 1 and on Python integers
    above it."""
    u, v = np.asarray(src_pairs, dtype=np.intp).reshape(-1, 2).T
    u2, v2 = np.asarray(tgt_pairs, dtype=np.intp).reshape(-1, 2).T
    dtype = np.int64 if p * (p - 1) <= linalg._INT64_MAX else object
    out = np.zeros((u.size, u2.size), dtype=dtype)
    for left, right in terms:
        out = (out + left[np.ix_(u, u2)].astype(dtype, copy=False)
               * right[np.ix_(v, v2)].astype(dtype, copy=False)) % p
    return out.astype(np.int64)


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
    classes = lam.path_classes(
        n - 1, enumerate_paths(dual.quiver.opposite(), n - 1))
    for e1, rows in models[k][0].hom_index.items():
        cols = models[k + 1][0].hom_index.get(e1 + n - 1)
        if cols is None:
            continue
        d = e1 - s - 1
        lefts = [right_mult_matrix(lam, -e1 - n + 1, n - 1, cls).T
                 for cls in classes]
        _check_size(len(rows) * len(cols) * nwi * dim_sn, "degree-n system",
                    d)
        spread = pair_matrix(
            rows, np.array([(a, wi) for a, _ in cols.tolist()
                            for wi in range(nwi)]).reshape(-1, 2),
            [(left, coef.dense()) for left, coef in zip(lefts, coefs)], p)
        hit = np.asarray([x2 for _, x2 in cols])[:, None] == np.arange(dim_sn)
        blocks.append((spread.reshape(len(rows), len(cols), nwi, 1)
                       * hit[None, :, None, :]).reshape(-1, nwi * dim_sn))
        rhs.append(t.sparse_mat(d).dense().reshape(-1))
    cond = l_condition(prov, s, t1, ker).dense()
    cond = cond[cond.any(axis=1)]
    blocks.append(np.kron(cond, linalg.eye(dim_sn)))
    rhs.append(np.zeros(len(cond) * dim_sn, dtype=np.int64))
    return np.concatenate(blocks), np.concatenate(rhs)


def induced_degree_n(mod, s):
    """The degree-n actions at s + 1 forced by the relations, one dense
    matrix per degree-n basis element w: y = sum_i pre x_i a (pre the
    canonical preimage of mu_1 at s) acts by w as sum_i pre x_i (a w),
    x_i (a w) the degree-(n+1) action from s.  `mod` holds the degree-1
    actions and the degree-n action at s; the result is asserted well
    defined (the kernel of mu_1 sends it to 0)."""
    ualg, p = mod.algebra, mod.p
    n = ualg.n
    t1, pre, ker = cx._mu1_data(mod, s)
    t = mult_tensor(ualg, 1, n)
    out = []
    for w in range(ualg.dual.dim(n)):
        acts = {}
        for _, ai in t1:
            if ai not in acts:
                acts[ai] = _element_action(mod, n + 1, t[ai, w], s).dense()
        # row r = (i, a) holds x_i a w; the left inverse of mu_1 sends it
        # through mu_1
        y = np.stack([acts[ai][i] for i, ai in t1])
        assert not linalg.sparse_mul(ker.basis, y, p).any()
        out.append(linalg.mat_mul(pre.dense(), y, p))
    return out


def cofree_index(lam, vlist) -> dict:
    """Per degree e, the pairs (b, x) with b a basis element of
    Lambda_{-e} ending at the vertex of x, as a list of tuples."""
    index = {}
    for e in range(-settled_top(lam, True), 1):
        pairs = [(bi, xi) for bi, (_, v) in enumerate(lam.basis_pairs(-e))
                 for xi, xv in enumerate(vlist) if xv == v]
        if pairs:
            index[e] = pairs
    return index


def noncommuting_degree(f):
    """`GradedMorphism.noncommuting_degree` with two dense products per
    degree and generator."""
    ms, mt = f.source, f.target
    for d in sorted(set(ms.degrees()) | set(mt.degrees())):
        for gi, g in enumerate(ms.gens):
            lhs = linalg.mat_mul(ms.sparse_act(gi, d).dense(),
                                 f.sparse_mat(d + g.degree).dense(), f.p)
            rhs = linalg.mat_mul(f.sparse_mat(d).dense(),
                                 mt.sparse_act(gi, d).dense(), f.p)
            if not np.array_equal(lhs, rhs):
                return d
    return None


def chain_iso_failure(c, c2, fam: dict):
    """`complexes.chain_iso_failure` on dense copies of the maps: the
    inverse of each densified matrix, a dense mask of mismatched vertex
    labels, and `noncommuting_degree` above."""
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
            m = f.sparse_mat(d).dense()
            if a.dim(d) != b.dim(d) or m.shape != (a.dim(d), b.dim(d)) \
                    or solve_matrix(m, linalg.eye(len(m)), c.p) is None:
                return failure("invertible", k, d)
            if m[np.not_equal.outer(a.verts_at(d), b.verts_at(d))].any():
                return failure("module-map", k, d)
        d = noncommuting_degree(f)
        if d is not None:
            return failure("module-map", k, d)
        maps[k] = f
    for k in pos:
        if k + 1 in maps:
            lhs = c.diff(k).compose(maps[k + 1])
            rhs = maps[k].compose(c2.diff(k))
            for d in c.modules[k].degrees():
                if not np.array_equal(lhs.sparse_mat(d).dense(),
                                      rhs.sparse_mat(d).dense()):
                    return failure("differential", k, d)
    return None


def F_at_n2(mod, lam, m: int):
    """F of a module over U at n = 2 as its own branch built it: U is the
    whole dual there, and its generators start with the dual's, in order,
    so the module is copied onto the dual; then nu of the copy, by the
    loop nu ran then (one cofree model per degree j, the Hom step between
    adjacent degrees), with every position shifted by -m."""
    dual = mod.algebra.dual
    narrows = len(dual.generators())
    copy = GradedModule(dual, dict(mod.verts),
                        {(gi, d): a for (gi, d), a
                         in mod.stored_actions().items() if gi < narrows})
    bases = {j: cx.cofree_module(lam, copy.verts_at(j))
             for j in copy.degrees()}
    comps = {j - m: base.shift(j) for j, base in bases.items()}
    diffs = {}
    for j in copy.degrees():
        if j + 1 in bases:
            acts = cx._arrow_acts(copy, j, range(lam.quiver.arrow_count))
            diffs[j - m] = GradedMorphism(
                comps[j - m], comps[j + 1 - m],
                cx._hom_step(lam, acts, j, bases[j], bases[j + 1]))
    return cx.ComplexOfGraded(lam, 2, comps, diffs)


def socle_subspaces(mod) -> dict:
    """`grmod.socle_subspaces` as the dense left null space of the actions
    side by side."""
    out = {}
    for d in mod.degrees():
        acts = [mod.sparse_act(gi, d).dense() for gi in range(len(mod.gens))]
        acts = [a for a in acts if a.shape[1]]
        out[d] = (linalg.null_space(np.concatenate(acts, axis=1).T, mod.p)
                  if acts else Subspace.full(mod.dim(d), mod.p))
    return {d: s for d, s in out.items() if s.dim}


def restrict_stable(mod, cur, d, sub: Subspace) -> Subspace:
    """`grmod._restrict_stable` as one dense null space per generator: x =
    u @ keep stays iff x g = v @ tgt for some v, a null space over
    (u, v)."""
    keep = sub
    for gi, g in enumerate(mod.gens):
        d2 = d + g.degree
        if mod.dim(d2) == 0:
            continue
        tgt = cur.get(d2, Subspace.zero(mod.dim(d2), mod.p))
        img = linalg.mat_mul(keep.basis.dense(), mod.sparse_act(gi, d).dense(),
                             mod.p)
        ker = linalg.null_space(np.concatenate(
            [img.T, (-tgt.basis.dense().T) % mod.p], axis=1), mod.p)
        keep = linalg.sparse_rref(linalg.sparse_mul(
            ker.basis.take_cols(np.arange(keep.dim)), keep.basis, mod.p),
            mod.p)
        if keep.dim == 0:
            break
    return keep


def is_torsionfree(mod, params) -> bool:
    """`grmod.is_torsionfree` by a dense left null space of the degree-1
    actions side by side, per degree off S."""
    for d in mod.degrees():
        if params.in_s(d):
            continue
        deg1 = [mod.sparse_act(gi, d).dense() for gi, g in enumerate(mod.gens)
                if g.degree == 1 and mod.dim(d + 1)]
        if not deg1 or linalg.null_space(np.concatenate(deg1, axis=1).T,
                                         mod.p).dim:
            return False
    return True


def multiplication_map(mod, s: int):
    """`grmod.multiplication_map` with mu_1 a dense array, gathered from
    the densified degree-1 actions stacked."""
    srcs = np.array([src for src, _ in mod.algebra.dual.basis_pairs(1)],
                    dtype=np.intp)
    i, j = np.nonzero(mod.verts_at(s)[:, None] == srcs)
    gens = {g.basis_index: gi for gi, g in enumerate(mod.gens)
            if g.degree == 1}
    mu = zeros(i.size, mod.dim(s + 1))
    if mu.size:
        mu = np.stack([mod.sparse_act(gens[a], s).dense()
                       for a in range(srcs.size)])[j, i]
    return list(zip(i.tolist(), j.tolist())), mu
