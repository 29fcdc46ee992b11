"""Graded right modules over the algebra flavours, with finite support.

A :class:`GradedModule` stores, per degree, a vertex label for each basis
element and, per (generator, degree), an action matrix.  Modules here are
honestly finite: a truncation of a free module is the genuine quotient by
its tail submodule, so predicates quantified "for all degrees" are decided
exactly on the (finite) support.

Every action and every morphism matrix is stored in one form, a reduced
`linalg.Sparse` (row-sorted nonzeros): over a monomial algebra every map
of a minimal resolution is combinatorial (Green, Happel & Zacharia,
Illinois J. Math. 29, 1985), and so are the free and cofree actions and
the covers, inclusions, differentials and envelope maps built here.
`top_complements` and `kernel_bases` eliminate on that form.  Every
subspace of a degree (kernels, radicals, socles, images, torsion and
closures) is a `linalg.Subspace`, a canonical RREF basis stored Sparse.
`sparse_act()` and `sparse_mat()` read the stored matrix, the one read
form, which every reader here and F's differentials (`complexes._pair_map`)
take as it is, and so does `linalg.left_inverse`; a caller that needs an
array or a report calls its `.dense()`, under `linalg.MAX_SLICE_BYTES`.
`stored_actions()` and `stored_mats()` hand them all over.  A builder may
leave the actions or
matrices to be built on first read (`_BuiltOnRead`): `free_module`,
`cover_on_top` and `compose` do.  The blocks of the vertex projectives e_v A
that free modules are made of are kept in the algebra's memo
(`GradedAlgebra._memo`): per degree k the basis indices that start at each
vertex ("starting at"), and per (v, k, generator) that generator's action,
a block of `GradedAlgebra.right_mult` ("generator block").

Modules and morphisms never change once built, so a module can keep what
it derives from its actions (`GradedModule._memo`): its `validate()`
verdict ("issues"), and per level s the data of mu_1 ("mu1", "mu1
kernel", "mu1 preimage"), the stacked degree-n action ("stacked action")
and the verdict of the kernel condition ("kernel condition").  So `in_L`,
the contraction maps of F and the extraction of a module from a complex
share one build of each, and a second `validate()` of a module costs
nothing.

An algebra element acts along one word chain, `_rows_times_word`: rows
of M_d times a generator word, by `linalg.sparse_mul` from the first
letter's rows.  `_rows_times_basis_element` keeps the rows at a vertex
idempotent's vertex and combines any other element's words by
`linalg.sparse_combine`; `_element_action`, `_relation_issues`, the cover
maps and the envelope maps and action checks of `complexes` read it.

Row-vector convention throughout: an element x of M_d is a coordinate row
and x * g = x @ sparse_act(g, d).
"""
from __future__ import annotations

import numpy as np

from . import linalg
from .algebra import USupportAlgebra, in_u_grading, opposite_algebra
from .linalg import Sparse, Subspace, zeros


class ModuleError(ValueError):
    pass


def _frozen(m):
    """m, made read-only if it is an array (a Sparse is read-only
    already)."""
    if isinstance(m, np.ndarray):
        m.setflags(write=False)
    return m


_NO_LABELS = _frozen(np.zeros(0, dtype=np.intp))  # of an absent degree


def _labels(v) -> np.ndarray:
    """Vertex labels as a new read-only intp array, shared with no
    caller."""
    return _frozen(np.array(v, dtype=np.intp))


class _BuiltOnRead:
    """Attributes that a builder may defer, and the one stored form of the
    matrices of modules and morphisms.  `_defer(name, build)` has the
    attribute `name` built by `build(owner)` on its first read, once
    (`__getattr__` is reached only while the attribute is unset); the build
    is dropped before it runs.  A build takes the owner as its argument,
    so it need not hold the owner: a deferred attribute makes no reference
    cycle.  `_store` takes the stored matrices, named by `_STORE`, as a
    dict or as a callable that returns one from the owner, and `_kept`
    turns each into a reduced `linalg.Sparse`: an array is read into a new
    one (`linalg.Sparse.from_dense` shares no memory with its input), a
    Sparse is read-only and is kept."""

    _STORE = ""

    def _store(self, mats) -> None:
        if callable(mats):
            self._defer(self._STORE, lambda owner: owner._kept(mats(owner)))
        else:
            setattr(self, self._STORE, self._kept(mats))

    def _kept(self, mats: dict) -> dict:
        kept = {key: linalg.as_sparse(m, self.p).reduced(self.p)
                for key, m in mats.items()}
        return {key: m for key, m in kept.items() if m.size}

    def _defer(self, name: str, build) -> None:
        self.__dict__.setdefault("_builds", {})[name] = build

    def __getattr__(self, name):
        build = self.__dict__.get("_builds", {}).pop(name, None)
        if build is None:
            raise AttributeError(name)
        try:
            setattr(self, name, build(self))
        except BaseException:
            self._builds[name] = build
            raise
        return self.__dict__[name]


class GradedModule(_BuiltOnRead):
    """A finitely supported graded right module over a graded algebra.

    The one constructor takes the vertex labels and the action matrices,
    each an array or a `linalg.Sparse`, or a callable that builds them from
    the module on first read, and stores each action as a reduced Sparse
    (`_BuiltOnRead._kept`).  `sparse_act` reads an action in that one
    form; a caller that needs an array calls its `.dense()`.

    `verts[d]` holds the vertex labels of the basis of degree d, one
    read-only intp array per nonzero degree, copied from the caller's
    labels (`_labels`) and shared only by `shift`; `verts_at(d)` reads it,
    or an empty one.
    """

    _STORE = "_actions"

    def __init__(self, algebra, verts: dict, actions):
        self.algebra = algebra
        self.p = algebra.p
        self.verts = {d: _labels(v) for d, v in verts.items() if len(v)}
        self.gens = algebra.generators()
        self._store(actions)
        self._memos: dict = {}

    def _memo(self, key: tuple, build):
        """build(), run once per key and kept, made read-only if it is an
        array: the module never changes, so a kept value never goes
        stale."""
        memos = self._memos
        if key not in memos:
            memos[key] = _frozen(build())
        return memos[key]

    def stored_actions(self) -> dict:
        """A new dict of the stored actions, each a Sparse, for a caller
        that relabels or copies them."""
        return dict(self._actions)

    # -- structure ----------------------------------------------------------

    def degrees(self):
        return sorted(self.verts)

    def dim(self, d: int) -> int:
        return self.verts_at(d).size

    def verts_at(self, d: int) -> np.ndarray:
        return self.verts.get(d, _NO_LABELS)

    def total_dim(self) -> int:
        return sum(v.size for v in self.verts.values())

    def is_zero(self) -> bool:
        return not self.verts

    def support_top(self):
        return max(self.verts) if self.verts else None

    def sparse_act(self, gi: int, d: int) -> Sparse:
        """The stored action of generator gi from degree d, a zero Sparse
        when none is stored."""
        shape = (self.dim(d), self.dim(d + self.gens[gi].degree))
        m = self._actions.get((gi, d))
        if m is None:
            return Sparse.zero(*shape)
        if m.shape != shape:
            raise ModuleError(
                f"action matrix for generator {gi} at degree {d} has shape "
                f"{m.shape}, expected {shape}")
        return m

    # -- validation ---------------------------------------------------------

    def validate(self):
        """All structural violations, or an empty list for a valid module:
        found once per module, which never changes."""
        return list(self._memo(("issues",), self._issues))

    def _issues(self) -> list:
        issues = []
        for (gi, d), m in self._actions.items():
            g = self.gens[gi]
            if m.shape != (self.dim(d), self.dim(d + g.degree)):
                issues.append(
                    f"generator {g.name} at degree {d}: shape {m.shape}")
                continue
            # the nonzeros, row by row
            off = ((self.verts_at(d)[m.rows] != g.source)
                   | (self.verts_at(d + g.degree)[m.cols] != g.target))
            issues += [f"generator {g.name} at degree {d}: entry ({i},{j}) "
                       "breaks the vertex block structure"
                       for i, j in zip(m.rows[off], m.cols[off])]
        return issues or _relation_issues(self)

    def is_valid(self) -> bool:
        return not self.validate()

    # -- constructions ------------------------------------------------------

    def shift(self, s: int) -> "GradedModule":
        """M[s] with M[s]_d = M_{d+s}, sharing the label arrays and the
        stored matrices, which never change."""
        actions = {(gi, d - s): m for (gi, d), m in self._actions.items()}
        out = GradedModule(self.algebra, {}, actions)
        out.verts = {d - s: v for d, v in self.verts.items()}
        return out


def zero_module(algebra) -> GradedModule:
    return GradedModule(algebra, {}, {})


def generators_of_degree(algebra, e: int) -> dict:
    """{basis index: generator number} of the algebra's generators of
    degree e."""
    return {g.basis_index: gi for gi, g in enumerate(algebra.generators())
            if g.degree == e}


def _relation_issues(mod: GradedModule) -> list:
    """One issue per relation of the algebra and degree d of the module from
    which the relation acts nontrivially, in relation order.  The relations
    of one degree are checked together, by one sparse product of their
    coefficient rows with the stacked actions of their words, read from
    one word chain per degree d (`_rows_times_word`)."""
    rels = mod.algebra.relation_words()
    p = mod.p
    groups = []  # per relation degree: it, its relations, words, coefficients
    for rdeg in sorted({rdeg for rdeg, _ in rels}):
        which = [i for i, (e, _) in enumerate(rels) if e == rdeg]
        words = dict.fromkeys(w for i in which for w, _ in rels[i][1])
        col = {w: k for k, w in enumerate(words)}
        coef = zeros(len(which), len(words))
        for row, i in enumerate(which):
            for w, c in rels[i][1]:
                coef[row, col[w]] = (coef[row, col[w]] + c) % p
        if words:
            groups.append((rdeg, which, words, coef))
    failed = set()  # (relation number, degree)
    for d in mod.degrees():
        products: dict = {}  # word -> its action from degree d
        for rdeg, which, words, coef in groups:
            if mod.dim(d + rdeg) == 0:
                continue
            prods = [_rows_times_word(mod, None, w, d, products)
                     for w in words]
            # row k holds the product of word k, read row by row
            cols = mod.dim(d + rdeg)
            stacked = Sparse(
                (len(prods), mod.dim(d) * cols),
                np.repeat(np.arange(len(prods)), [m.nnz for m in prods]),
                np.concatenate([m.rows * cols + m.cols for m in prods]),
                np.concatenate([m.vals for m in prods]))
            bad = linalg.sparse_mul(coef, stacked, p).rows
            failed.update((which[k], d) for k in bad.tolist())
    return [f"relation of degree {rdeg} acts nontrivially from degree {d}"
            for i, (rdeg, _) in enumerate(rels) for d in mod.degrees()
            if (i, d) in failed]


def _rows_times_basis_element(mod: GradedModule, rows, d_el: int,
                              b_index: int, d: int, products: dict):
    """Rows `rows` of M_d (every row when None) times the b-th algebra
    basis element of degree d_el; `products` keeps the word prefixes."""
    if d_el == 0:  # the vertex idempotent keeps the rows at its vertex
        v = mod.algebra.basis_pairs(0)[b_index][0]
        at = np.arange(mod.dim(d)) if rows is None else rows
        keep = np.flatnonzero(mod.verts_at(d)[at] == v)
        return Sparse((at.size, mod.dim(d)), keep, at[keep],
                      np.ones(keep.size, dtype=np.int64))
    terms = mod.algebra.element_words(d_el)[b_index]
    return linalg.sparse_combine([c for _, c in terms], [
        _rows_times_word(mod, rows, tuple(w), d, products) for w, _ in terms],
                                 mod.p)


def _element_action(mod: GradedModule, d_el: int, vec, d: int) -> Sparse:
    """The action from degree d of the algebra element with coordinates vec
    in degree d_el: its basis elements' actions, from one word chain,
    combined."""
    vec = np.asarray(vec, dtype=np.int64) % mod.p
    nz = vec.nonzero()[0].tolist()
    if not nz:
        return Sparse.zero(mod.dim(d), mod.dim(d + d_el))
    products: dict = {}
    return linalg.sparse_combine(vec[nz], [_rows_times_basis_element(
        mod, None, d_el, b, d, products) for b in nz], mod.p)


def _rows_times_word(mod: GradedModule, rows, word: tuple, d: int,
                     products: dict) -> Sparse:
    """Rows `rows` of M_d (every row when None) times a generator word:
    the rows times the word without its last letter, memoized in
    `products` by word, times that letter's action."""
    if word not in products:
        if len(word) == 1:
            out = mod.sparse_act(word[0], d)
            if rows is not None:
                out = out.take_rows(rows)
        else:
            head = _rows_times_word(mod, rows, word[:-1], d, products)
            at = d + sum(mod.gens[gi].degree for gi in word[:-1])
            last = mod.sparse_act(word[-1], at)
            out = (linalg.sparse_mul(head, last, mod.p)
                   if head.any() and last.any()
                   else Sparse.zero(head.shape[0], last.shape[1]))
        products[word] = out
    return products[word]


def _groups(key: np.ndarray):
    """The distinct values of an integer array, ascending; the positions
    sorted by value, stably; and the bounds of each value's run among them:
    one stable sort (np.unique would import numpy.ma)."""
    order = np.argsort(key, kind="stable")
    sk = key[order]
    cut = np.flatnonzero(sk[1:] != sk[:-1]) + 1
    starts = np.concatenate(([0], cut)) if key.size else cut
    return sk[starts], order, np.append(starts, key.size).tolist()


def _starting_at(algebra, k: int, v: int):
    """The basis indices of A_k that start at vertex v, and their targets:
    read-only intp arrays, kept in the algebra's memo per degree k for
    every vertex at once."""
    return algebra._memo(("starting at", k),
                         lambda: _vertex_blocks(algebra, k))[v]


def _vertex_blocks(algebra, k: int) -> list:
    pairs = np.array(algebra.basis_pairs(k) if k >= 0 else [],
                     dtype=np.intp).reshape(-1, 2)
    out = []
    for w in range(algebra.nvert):
        at = (pairs[:, 0] == w).nonzero()[0]
        out.append((_frozen(at), _frozen(pairs[at, 1])))
    return out


def _generator_block(algebra, v: int, k: int, gi: int) -> Sparse:
    """Generator gi acting on e_v A from degree k, rows and cols counting
    the basis elements that start at v (`_starting_at`): the block of right
    multiplication by it, kept in the algebra's memo per (v, k, gi)."""
    def build():
        g = algebra.generators()[gi]
        return algebra.right_mult(k, g.degree, g.basis_index).take_rows(
            _starting_at(algebra, k, v)[0]).take_cols(
            _starting_at(algebra, k + g.degree, v)[0])
    return algebra._memo(("generator block", v, k, gi), build)


def free_module(algebra, gen_list, hi: int) -> GradedModule:
    """Direct sum of shifted vertex projectives e_v A, truncated above hi.

    gen_list: (vertex, degree) pairs, or an (N, 2) intp array of them;
    `free_gens` lists them as Python-int pairs, for reports, one tuple per
    class shared by its generators.  The truncation is the honest quotient
    by the tail submodule in degrees > hi.  Each degree lists, generator by
    generator, the basis elements of A that start at the generator's vertex,
    in read-only intp arrays: `verts[d]` holds their end vertices and
    `free_index[d]` their (generator, basis index) rows, an (E, 2) array.
    Generators with the same vertex and degree form a class and have equal
    blocks: `free_classes` lists the classes as (vertex, degree, generator
    numbers), and `free_layout[d]` lists (class number, first row of each
    of its generators' blocks, its basis indices) for each class present
    in degree d.  The labels and the layout are built here; the sparse
    actions, scattered from the blocks the algebra caches (`_starting_at`,
    `_generator_block`), and `free_index` are built on first read.
    """
    gv, gd = np.asarray(gen_list, dtype=np.intp).reshape(-1, 2).T
    ngen, nv = gv.size, algebra.nvert
    lo = int(gd.min()) if ngen else 0
    keys, order, bounds = _groups((gd - lo) * nv + gv)
    classes = [(k % nv, k // nv + lo, order[a:b])
               for k, a, b in zip(keys.tolist(), bounds, bounds[1:])]
    verts: dict = {}
    layout: dict = {}  # degree -> [(class, first rows, basis indices)]
    for d in range(lo, hi + 1):
        counts = np.zeros(ngen, dtype=np.intp)
        blocks = []
        for v, e, gs in classes:
            bis, tgts = _starting_at(algebra, d - e, v)
            counts[gs] = bis.size
            blocks.append((bis, tgts))
        if not counts.any():
            continue
        offs = np.cumsum(counts) - counts
        vs = np.empty(int(offs[-1] + counts[-1]), dtype=np.intp)
        layout[d] = []
        for c, ((_, _, gs), (bis, tgts)) in enumerate(zip(classes, blocks)):
            if bis.size:
                first = offs[gs]
                vs[first[:, None] + np.arange(bis.size)] = tgts
                layout[d].append((c, first, bis))
        verts[d] = _frozen(vs)  # read-only: the module keeps it uncopied
    mod = GradedModule(algebra, verts, _free_actions)
    mod._defer("free_index", _free_index)
    mod.free_classes = classes
    mod.free_layout = layout
    # one (vertex, degree) tuple per class, shared by its generators
    class_of = np.empty(ngen, dtype=np.intp)
    for c, (_, _, gs) in enumerate(classes):
        class_of[gs] = c
    pairs = [(v, e) for v, e, _ in classes]
    mod.free_gens = [pairs[c] for c in class_of.tolist()]
    return mod


def _free_index(mod: GradedModule) -> dict:
    """`free_index` of a free module, from its layout."""
    ngen = len(mod.free_gens)
    out = {}
    for d, present in mod.free_layout.items():
        counts = np.zeros(ngen, dtype=np.intp)
        entries = np.empty((mod.dim(d), 2), dtype=np.intp)
        for c, first, bis in present:
            counts[mod.free_classes[c][2]] = bis.size
            entries[first[:, None] + np.arange(bis.size), 1] = bis
        entries[:, 0] = np.repeat(np.arange(ngen), counts)
        out[d] = _frozen(entries)
    return out


def _free_actions(mod: GradedModule) -> dict:
    """The actions of a free module (`free_module`): per generator and
    degree, each class's block scattered to its generators' rows."""
    algebra, classes, layout = mod.algebra, mod.free_classes, mod.free_layout
    actions: dict = {}
    for gi, g in enumerate(algebra.generators()):
        for d, present in layout.items():
            d2 = d + g.degree
            if d2 not in layout:
                continue
            first2 = {c: first for c, first, _ in layout[d2]}
            parts = []
            for c, first, _ in present:
                if c not in first2:
                    continue
                v, e, gs = classes[c]
                block = _generator_block(algebra, v, d - e, gi)
                if block.any():
                    parts.append(((first[:, None] + block.rows).ravel(),
                                  (first2[c][:, None] + block.cols).ravel(),
                                  np.tile(block.vals, gs.size)))
            if parts:
                actions[(gi, d)] = Sparse.from_entries(
                    (mod.dim(d), mod.dim(d2)),
                    *(np.concatenate(x) for x in zip(*parts)), algebra.p)
    return actions


class GradedMorphism(_BuiltOnRead):
    """A degree-0 morphism of graded modules: one matrix per degree.

    Every matrix is stored in one form, a reduced `linalg.Sparse`: the maps
    built here (covers, inclusions, projections, differentials, envelope
    maps, chain maps) are monomial or close to it.  The one constructor
    takes a dict of arrays or Sparse matrices, or a callable that builds
    one from the morphism on first read, and stores each as a reduced Sparse
    (`_BuiltOnRead._kept`).  `sparse_mat` reads a matrix in that one form
    (a caller that needs an array calls its `.dense()`), and `compose`
    defers its product like every other build.
    """

    _STORE = "_mats"

    def __init__(self, source: GradedModule, target: GradedModule, mats):
        self.source = source
        self.target = target
        self.p = source.p
        self._store(mats)

    def stored_mats(self) -> dict:
        """A new dict of the stored matrices, each a Sparse."""
        return dict(self._mats)

    def sparse_mat(self, d: int) -> Sparse:
        """The matrix in degree d, a zero Sparse when none is stored."""
        m = self._mats.get(d)
        if m is None:
            return Sparse.zero(self.source.dim(d), self.target.dim(d))
        return m

    def noncommuting_degree(self):
        """The lowest degree from which the action of some generator does
        not commute with the map, or None when the map is a module map.
        The generators of one degree e are checked by one sparse product
        per side: their source actions stacked, times the map at d + e, and
        the map at d times their target actions side by side, regrouped."""
        ms, mt, p = self.source, self.target, self.p
        for d in sorted(set(ms.degrees()) | set(mt.degrees())):
            for e in sorted({g.degree for g in ms.gens}):
                gis = [gi for gi, g in enumerate(ms.gens) if g.degree == e]
                ds, dt = ms.dim(d), mt.dim(d + e)
                if not (ds and dt):
                    continue
                lhs = linalg.sparse_mul(Sparse.vstack(
                    [ms.sparse_act(gi, d) for gi in gis], ms.dim(d + e)),
                    self.sparse_mat(d + e), p)
                rhs = linalg.sparse_mul(self.sparse_mat(d), Sparse.hstack(
                    [mt.sparse_act(gi, d) for gi in gis], mt.dim(d)), p)
                block, col = np.divmod(rhs.cols, dt)
                if lhs != Sparse.from_entries(
                        lhs.shape, block * ds + rhs.rows, col, rhs.vals, p):
                    return d
        return None

    def compose(self, other: "GradedMorphism") -> "GradedMorphism":
        """self then other (source of other = target of self), built on
        first read (`_composed`)."""
        return GradedMorphism(self.source, other.target,
                              lambda f: self._composed(other))

    def _composed(self, other: "GradedMorphism") -> dict:
        """The matrices of `compose`."""
        return {d: linalg.sparse_mul(self.sparse_mat(d), other.sparse_mat(d),
                                     self.p)
                for d in set(self._mats) | set(other._mats)}

    def inverse(self) -> "GradedMorphism":
        """The inverse: in each degree the left inverse of a square matrix
        (`linalg.left_inverse`), read off the nonzeros of a monomial one, as
        of an envelope map.  A tall matrix's has the other shape."""
        mats = {}
        for d in set(self.source.degrees()) | set(self.target.degrees()):
            m = self.sparse_mat(d)
            inv = linalg.left_inverse(m, self.p)
            if inv is None or inv.shape != m.shape:
                raise ModuleError("morphism is not invertible")
            mats[d] = inv
        return GradedMorphism(self.target, self.source, mats)


def hom_space(m: GradedModule, n: GradedModule):
    """Canonical basis of the degree-0 graded morphisms m -> n: the
    one-pair call of `_hom_families`."""
    return [fam[0] for fam in _hom_families({0: (m, n)}, ())]


def _equations(a: Sparse, fa, fb, b: Sparse, top, p: int) -> list:
    """The entries (unknown, equation, value) of a fa - fb b = 0, for a and
    b of shapes r1 x r2 and c1 x c2; entry (i, j) is equation
    top + i * c2 + j.  The matrices fa (r2 x c2) and fb (r1 x c1) are given
    by the unknown at each entry, or -1 (None when they have no entries).
    A nonzero a[i, l] meets the unknowns in row l of fa, and a nonzero
    b[l, j] those in column l of fb."""
    c2, out = b.shape[1], []
    if fa is not None and a.nnz:
        at = fa[a.cols]
        t, j = np.nonzero(at >= 0)
        out.append((at[t, j], top + a.rows[t] * c2 + j, a.vals[t]))
    if fb is not None and b.nnz:
        at = fb[:, b.rows]
        i, t = np.nonzero(at >= 0)
        out.append((at[i, t], top + i * c2 + b.cols[t], p - b.vals[t]))
    return out


def _hom_families(pairs: dict, links) -> list:
    """Canonical basis of the families {k: f_k}, for pairs = {k: (M_k, N_k)},
    of degree-0 graded morphisms f_k: M_k -> N_k such that each link
    (k, a, b), with a: M_k -> M_{k+1} and b: N_k -> N_{k+1}, has
    a_d f_{k+1} = f_k b_d in every degree d.  It is the one system behind
    the Hom spaces of modules (`hom_space`) and of complexes
    (`complexes.hom_complexes`, the differentials as links).

    The unknowns are the matrix entries whose row and column sit at the
    same vertex (A_0-linearity forces the others to zero), by k, degree and
    row-major entry.  The equations, commutation with every generator's
    action and the links, are built from the stored nonzeros (`sparse_act`,
    `sparse_mat`, `_equations`) into one `linalg.Sparse`, transposed, and
    solved by `linalg.sparse_left_kernel`, whose basis is the canonical
    RREF over the unknowns: what the dense system gave, without it.  A
    family holds a matrix in every degree where both modules are nonzero.
    """
    if len({mod.p for pair in pairs.values() for mod in pair}) > 1:
        raise ModuleError("hom between modules over different fields")
    lay = {}  # (k, d) -> the unknown at each entry of f_k in degree d, or -1
    ends, total = [], 0
    for k, (m, n) in sorted(pairs.items()):
        for d in sorted(set(m.degrees()) & set(n.degrees())):
            match = np.equal.outer(m.verts_at(d), n.verts_at(d))
            lay[k, d] = np.full(match.shape, -1, dtype=np.int64)
            lay[k, d][match] = np.arange(total, total + match.sum())
            total += int(match.sum())
            ends.append(total)
    if total == 0:
        return []
    p = m.p
    blocks = [(m.sparse_act(gi, d), (k, d + g.degree), (k, d),
               n.sparse_act(gi, d)) for k, (m, n) in pairs.items()
              for gi, g in enumerate(m.gens) for d in m.degrees()
              if n.dim(d + g.degree)]
    blocks += [(a.sparse_mat(d), (k + 1, d), (k, d), b.sparse_mat(d))
               for k, a, b in links for d in a.source.degrees()
               if b.target.dim(d)]
    tops = np.cumsum([0] + [a.shape[0] * b.shape[1] for a, *_, b in blocks])
    parts = [(_NO_LABELS,) * 3]
    for (a, ka, kb, b), top in zip(blocks, tops):
        parts += _equations(a, lay.get(ka), lay.get(kb), b, top, p)
    ker = linalg.sparse_left_kernel(Sparse.from_entries(
        (total, int(tops[-1])), *(np.concatenate(x) for x in zip(*parts)),
        p), p).basis
    # the kernel's entries run by family, then by unknown, so by matrix
    keys = list(lay)
    ui, uj = (np.concatenate(x)[ker.cols] for x in zip(
        *(np.nonzero(lay[key] >= 0) for key in keys)))
    at = np.searchsorted(ends, ker.cols, side="right")
    cut = np.searchsorted(ker.rows * len(keys) + at,
                          np.arange(ker.shape[0] * len(keys) + 1))
    out = []
    for r in range(ker.shape[0]):
        mats = {k: {} for k in pairs}
        for i, (k, d) in enumerate(keys, r * len(keys)):
            s = slice(cut[i], cut[i + 1])
            mats[k][d] = Sparse(lay[k, d].shape, ui[s], uj[s], ker.vals[s])
        out.append({k: GradedMorphism(*pairs[k], mats[k]) for k in pairs})
    return out


# -- socle / top / generation ----------------------------------------------


def socle_subspaces(mod: GradedModule) -> dict:
    """Per degree: the joint kernel of all positive-degree generator
    actions, the left kernel of the actions side by side."""
    out = {d: linalg.sparse_left_kernel(Sparse.hstack(
        [mod.sparse_act(gi, d) for gi in range(len(mod.gens))], mod.dim(d)),
        mod.p) for d in mod.degrees()}
    return {d: s for d, s in out.items() if s.dim}


def _radical_rrefs(mod: GradedModule) -> dict:
    """Per degree: the sum of the images of all generator actions into it,
    reduced on the sparse rows of the stacked actions."""
    out = {}
    for d in mod.degrees():
        rows = [mod.sparse_act(gi, d - g.degree)
                for gi, g in enumerate(mod.gens)
                if (gi, d - g.degree) in mod._actions]
        out[d] = (linalg.sparse_rref(Sparse.vstack(rows, mod.dim(d)), mod.p)
                  if rows else Subspace.zero(mod.dim(d), mod.p))
    return out


def top_complements(mod: GradedModule) -> dict:
    """Per degree: basis indices spanning a canonical complement of MJ, an
    ascending intp array."""
    out = {}
    for d, rad in _radical_rrefs(mod).items():
        is_comp = np.ones(mod.dim(d), dtype=bool)
        is_comp[rad.pivots] = False
        comp = is_comp.nonzero()[0]
        if comp.size:
            out[d] = comp
    return out


def top_dims(mod: GradedModule) -> dict:
    return {d: len(c) for d, c in top_complements(mod).items()}


def cogenerated_in_degrees(mod: GradedModule, degree_set) -> bool:
    """True iff the graded socle is supported inside the degree set."""
    if not mod.is_valid():
        raise ModuleError("module failed validation")
    return all(d in degree_set for d in socle_subspaces(mod))


def submodule_closure(mod: GradedModule, spans: dict) -> dict:
    """Smallest action-closed family of subspaces containing the spans,
    given per degree by spanning rows (an array or a Sparse)."""
    cur = {d: Subspace.from_rows(mod.dim(d), s, mod.p)
           for d, s in spans.items()}
    changed = True
    while changed:
        changed = False
        for d in sorted(cur):
            sub = cur[d]
            if sub.dim == 0:
                continue
            for gi, g in enumerate(mod.gens):
                d2 = d + g.degree
                if mod.dim(d2) == 0:
                    continue
                img = linalg.sparse_mul(sub.basis, mod.sparse_act(gi, d),
                                        mod.p)
                tgt = cur.get(d2, Subspace.zero(mod.dim(d2), mod.p))
                new = linalg.sparse_rref(
                    Sparse.vstack([tgt.basis, img], mod.dim(d2)), mod.p)
                if new.dim != tgt.dim:
                    cur[d2] = new
                    changed = True
    return {d: s for d, s in cur.items() if s.dim}


# -- sub / quotient / kernel as modules -------------------------------------


def submodule_from_bases(mod: GradedModule, bases: dict):
    """Realize an action-closed family of subspaces as a module.

    `bases` maps degrees to Subspaces, with no zero one (as `kernel_bases`
    gives them).  Returns (sub_module, inclusion).  Each basis
    row must live in a single vertex block.  The coordinates of an image
    row are its entries at the pivot columns; the family is closed exactly
    when those coordinates give the row back.  Every product is sparse: a
    basis times an action gathers, per nonzero of the basis, a row of the
    action.  The sub-module's actions and the inclusion, whose matrices are
    the bases, are sparse."""
    verts, pivots, rests = {}, {}, {}
    for d, s in bases.items():
        vs, b, lead = mod.verts_at(d), s.basis, s.pivots
        if (vs[b.cols] != vs[lead][b.rows]).any():
            raise ModuleError("submodule basis row mixes vertex blocks")
        verts[d] = vs[lead]
        pivots[d] = lead
        is_rest = np.ones(b.shape[1], dtype=bool)
        is_rest[lead] = False
        rests[d] = is_rest.nonzero()[0]
    rest_of: dict = {}  # degree -> the basis at the non-pivot columns
    actions = {}
    for d, s in bases.items():
        for gi, g in enumerate(mod.gens):
            d2 = d + g.degree
            if mod.dim(d2) == 0:
                continue
            img = linalg.sparse_mul(s.basis, mod.sparse_act(gi, d), mod.p)
            if d2 not in bases:
                if img.any():
                    raise ModuleError("family is not closed under the action")
                continue
            # coords @ B equals img at the pivots, where B is the identity
            coords = img.take_cols(pivots[d2])
            if d2 not in rest_of:
                rest_of[d2] = bases[d2].basis.take_cols(rests[d2])
            if (linalg.sparse_mul(coords, rest_of[d2], mod.p)
                    != img.take_cols(rests[d2])):
                raise ModuleError("family is not closed under the action")
            if coords.any():
                actions[(gi, d)] = coords
    sub = GradedModule(mod.algebra, verts, actions)
    return sub, GradedMorphism(sub, mod,
                               {d: s.basis for d, s in bases.items()})


def quotient_module(mod: GradedModule, spans: dict):
    """Quotient by an action-closed subspace family.

    `spans` maps degrees to Subspaces.  Returns (quotient, projection); the
    quotient basis is the canonical complement (non-pivot standard vectors
    of the subspace RREF).
    """
    comp, proj, verts = {}, {}, {}
    for d in mod.degrees():
        sub = spans.get(d, Subspace.zero(mod.dim(d), mod.p))
        is_kept = np.ones(mod.dim(d), dtype=bool)
        is_kept[sub.pivots] = False
        keep = is_kept.nonzero()[0]
        if not keep.size:
            continue
        comp[d] = keep
        verts[d] = mod.verts_at(d)[keep]
        # projection: kill pivot coordinates via the RREF rows
        rest = sub.basis.take_cols(keep)
        proj[d] = Sparse.from_entries(
            (mod.dim(d), keep.size), np.append(keep, sub.pivots[rest.rows]),
            np.append(np.arange(keep.size), rest.cols),
            np.append(np.ones_like(keep), mod.p - rest.vals), mod.p)
    actions = {}
    for d, keep in comp.items():
        for gi, g in enumerate(mod.gens):
            d2 = d + g.degree
            if d2 not in comp:
                continue
            m = linalg.sparse_mul(mod.sparse_act(gi, d).take_rows(keep),
                                  proj[d2], mod.p)
            if m.any():
                actions[(gi, d)] = m
    quo = GradedModule(mod.algebra, verts, actions)
    return quo, GradedMorphism(mod, quo, proj)


def kernel_bases(f: GradedMorphism) -> dict:
    """Per degree with a nonzero kernel: the kernel, from one structured
    elimination (`linalg.sparse_left_kernel`) per vertex block of the
    sparse rows.

    The block kernels have disjoint supports, so their sum needs no
    further elimination (`linalg.disjoint_sum`).
    """
    m = f.source
    out = {}
    for d in m.degrees():
        mat = f.sparse_mat(d)
        sv = m.verts_at(d)
        parts = []
        # the vertices present, ascending (np.unique imports numpy.ma)
        for v in np.flatnonzero(np.bincount(sv)).tolist():
            idx = (sv == v).nonzero()[0]
            if idx.size == sv.size:
                parts.append(linalg.sparse_left_kernel(mat, m.p))
            else:
                parts.append(linalg.sparse_left_kernel(
                    mat.take_rows(idx), m.p).embed(idx, m.dim(d)))
        ker = linalg.disjoint_sum(parts, m.dim(d), m.p)
        if ker.dim:
            out[d] = ker
    return out


def morphism_image(f: GradedMorphism) -> dict:
    """Per degree with a nonzero image: the image."""
    return {d: Subspace.from_rows(f.target.dim(d), m, f.p)
            for d, m in f.stored_mats().items() if m.any()}


# -- projective covers and presentations ------------------------------------


def _max_gen_degree(algebra) -> int:
    return max((g.degree for g in algebra.generators()), default=1)


def projective_cover(mod: GradedModule, hi: int | None = None):
    """Minimal projective cover P -> M via top lifting.

    Returns (P, phi, gen_list); gen_list holds (vertex, degree) of the
    chosen generators.  P is truncated above hi (default: the support top
    of M, enough for surjectivity).
    """
    if mod.is_zero():
        z = zero_module(mod.algebra)
        return z, GradedMorphism(z, mod, {}), []
    if hi is None:
        hi = mod.support_top()
    return cover_on_top(mod, top_complements(mod), hi)


def cover_on_top(mod: GradedModule, comp: dict, hi: int):
    """`projective_cover` of a nonzero module whose `top_complements` the
    caller has already computed: the cover generators are those basis
    elements, in degree order.  The cover map is built on first read
    (`_cover_mats`)."""
    degs = sorted(comp)
    gen_row = np.concatenate([np.asarray(comp[d], dtype=np.intp)
                              for d in degs])
    gen_deg = np.repeat(np.array(degs, dtype=np.intp),
                        [len(comp[d]) for d in degs])
    gen_vert = np.concatenate([mod.verts_at(d)[comp[d]] for d in degs])
    pmod = free_module(mod.algebra, np.stack((gen_vert, gen_deg), axis=1),
                       hi)
    phi = GradedMorphism(pmod, mod, lambda f: _cover_mats(f, gen_row))
    return pmod, phi, list(pmod.free_gens)


def _cover_mats(phi: GradedMorphism, gen_row) -> dict:
    """The matrices of a cover map from a free module P onto M that sends
    the generators of P to the rows `gen_row` of M.  Class by class of P,
    the entries x * b of each basis element b are the class's generator
    rows of the action of b, built along b's words: one gather per word,
    from the word without its last letter, shared by the class."""
    pmod, mod = phi.source, phi.target
    products = [{} for _ in pmod.free_classes]  # per class: {word: rows}
    mats = {}
    for d, present in pmod.free_layout.items():
        parts = []
        for c, first, bis in present:
            _, e, gs = pmod.free_classes[c]
            rows = gen_row[gs]
            for t, bi in enumerate(bis.tolist()):
                g = _rows_times_basis_element(mod, rows, d - e, bi, e,
                                              products[c])
                parts.append((first[g.rows] + t, g.cols, g.vals))
        mats[d] = Sparse.from_entries(
            (pmod.dim(d), mod.dim(d)),
            *(np.concatenate(x) for x in zip(*parts)), mod.p)
    return mats


def presented_in_degrees(mod: GradedModule, degree_set) -> bool:
    """True iff a minimal projective presentation has all its generator
    degrees (of both terms) inside the degree set."""
    if not mod.is_valid():
        raise ModuleError("module failed validation")
    if mod.is_zero():
        return True
    hi_ext = mod.support_top() + _max_gen_degree(mod.algebra)
    pmod, phi, gen_list = projective_cover(mod, hi=hi_ext)
    if any(d not in degree_set for _, d in gen_list):
        return False
    ker = kernel_bases(phi)
    if not ker:
        return True
    kmod, _ = submodule_from_bases(pmod, ker)
    return all(d in degree_set for d in top_dims(kmod))


# -- duality -----------------------------------------------------------------


def graded_dual(mod: GradedModule) -> GradedModule:
    """D(M): degree d holds the dual space of M_{-d}, over the opposite
    algebra (`algebra.opposite_algebra`); generator actions are transposed
    through the reversal map."""
    op_alg, corr = opposite_algebra(mod.algebra)
    verts = {-d: v for d, v in mod.verts.items()}
    actions: dict = {}
    for gi, g in enumerate(op_alg.generators()):
        cm = corr(g.degree)
        vec = cm[g.basis_index] if cm.size else np.zeros(0, dtype=np.int64)
        for d in verts:
            e = -d - g.degree
            if mod.dim(e) == 0 or mod.dim(-d) == 0:
                continue
            a = _element_action(mod, g.degree, vec, e)  # M_e -> M_{-d}
            if a.any():
                actions[(gi, d)] = a.transpose()
    return GradedModule(op_alg, verts, actions)


# -- torsion theory ----------------------------------------------------------


class TorsionParams:
    """The modular pair data: U = union of [kn, kn+r], S = m + U."""

    def __init__(self, n: int, r: int = 1, m: int = 0):
        if not (0 <= 2 * r <= n) or (n > 2 and 2 * r == n):
            raise ModuleError("need 0 <= 2r <= n, strict when n > 2")
        self.n, self.r, self.m = n, r, m

    def in_u(self, d: int) -> bool:
        return d % self.n <= self.r

    def in_s(self, d: int) -> bool:
        return self.in_u(d - self.m)

    def gen_degrees_contains(self, d: int) -> bool:
        """(S : U) membership: m + nZ, or all of Z when 2r = n = 2."""
        if 2 * self.r == self.n == 2:
            return True
        return (d - self.m) % self.n == 0


def _refuse_e_grading(mod: GradedModule, pred: str) -> None:
    """The torsion predicates read degrees against S in the grading of U; a
    module over the dual or over U is read, one over E is refused."""
    alg = mod.algebra
    if isinstance(alg, USupportAlgebra) and not in_u_grading(alg):
        raise ModuleError(f"{pred} reads degrees against S in the grading "
                          "of U, not of E (\"over\": \"e\")")


def torsion_submodule(mod: GradedModule, params: TorsionParams) -> dict:
    """t(M): the largest submodule supported outside S (greatest fixpoint)."""
    _refuse_e_grading(mod, "torsion_submodule")
    if not mod.is_valid():
        raise ModuleError("module failed validation")
    cur = {d: Subspace.zero(mod.dim(d), mod.p) if params.in_s(d)
           else Subspace.full(mod.dim(d), mod.p) for d in mod.degrees()}
    changed = True
    while changed:
        changed = False
        for d in sorted(cur, reverse=True):
            sub = cur[d]
            if sub.dim == 0:
                continue
            new = _restrict_stable(mod, cur, d, sub)
            if new.dim != sub.dim:
                cur[d] = new
                changed = True
    return {d: s for d, s in cur.items() if s.dim}


def _restrict_stable(mod, cur, d, sub: Subspace) -> Subspace:
    """{x in sub : x g lies in cur[d + deg g] for every generator g}."""
    keep, p = sub, mod.p
    for gi, g in enumerate(mod.gens):
        d2 = d + g.degree
        if mod.dim(d2) == 0:
            continue
        tgt = cur.get(d2, Subspace.zero(mod.dim(d2), p))
        # x = u @ keep stays iff y = x g equals y[pivots] @ tgt, as in
        # `Subspace.contains`: a left kernel over u
        img = linalg.sparse_mul(keep.basis, mod.sparse_act(gi, d), p)
        off = linalg.sparse_combine([1, -1], [img, linalg.sparse_mul(
            img.take_cols(tgt.pivots), tgt.basis, p)], p)
        keep = linalg.sparse_rref(linalg.sparse_mul(
            linalg.sparse_left_kernel(off, p).basis, keep.basis, p), p)
        if keep.dim == 0:
            break
    return keep


def is_torsionfree(mod: GradedModule, params: TorsionParams) -> bool:
    """Annihilator criterion: no degree-1 annihilated element off S."""
    _refuse_e_grading(mod, "is_torsionfree")
    if not mod.is_valid():
        raise ModuleError("module failed validation")
    for d in mod.degrees():
        if params.in_s(d):
            continue
        deg1 = Sparse.hstack([mod.sparse_act(gi, d) for gi, g
                              in enumerate(mod.gens) if g.degree == 1],
                             mod.dim(d))
        if linalg.sparse_left_kernel(deg1, mod.p).dim:
            return False
    return True


def in_G(mod: GradedModule, params: TorsionParams) -> bool:
    """Torsionfree and generated in (S : U) degrees."""
    _refuse_e_grading(mod, "in_G")
    if not is_torsionfree(mod, params):
        return False
    return all(params.gen_degrees_contains(d) for d in top_dims(mod))


def restrict_S(mod: GradedModule, ualg, params: TorsionParams) -> GradedModule:
    """(-)_S: keep the S-degree components; module over the support-
    restricted algebra, with degree-1 and degree-n generator actions."""
    verts = {d: v for d, v in mod.verts.items() if params.in_s(d)}
    products = {d: {} for d in verts}  # per degree: {word: its action}
    actions: dict = {}
    for gi, g in enumerate(ualg.generators()):
        for d in verts:
            if d + g.degree not in verts:
                continue
            a = _rows_times_basis_element(mod, None, g.degree, g.basis_index,
                                          d, products[d])
            if a.any():
                actions[(gi, d)] = a
    return GradedModule(ualg, verts, actions)


# -- the L / L_E / L-dual membership tests -----------------------------------


def multiplication_map(mod: GradedModule, s: int):
    """mu_1: X_s (x) dual_1 -> X_{s+1}, x_i (x) y_j -> x_i y_j, for a module
    over the support-restricted dual.

    Returns (pairs, matrix).  The pairs (i, j), with the vertex of x_i equal
    to the source of y_j, are the vertex-matched basis of the tensor
    product; the matrix, a Sparse, has one row per pair, gathered from the
    degree-1 actions stacked.  `mu1` keeps them on the module."""
    srcs = np.array([src for src, _ in mod.algebra.dual.basis_pairs(1)],
                    dtype=np.intp)
    i, j = np.nonzero(mod.verts_at(s)[:, None] == srcs)
    gens = generators_of_degree(mod.algebra, 1)
    stack = Sparse.vstack([mod.sparse_act(gens[a], s)
                           for a in range(srcs.size)], mod.dim(s + 1))
    return (list(zip(i.tolist(), j.tolist())),
            stack.take_rows(j * mod.dim(s) + i))


def mu1(mod: GradedModule, s: int):
    """`multiplication_map(mod, s)`, built once per module and level."""
    return mod._memo(("mu1", s), lambda: multiplication_map(mod, s))


def mu1_kernel(mod: GradedModule, s: int) -> Subspace:
    """Ker(mu_1) at level s, over the pairs of `mu1`: built once per module
    and level."""
    return mod._memo(("mu1 kernel", s), lambda: linalg.sparse_left_kernel(
        mu1(mod, s)[1], mod.p))


def mu1_preimage(mod: GradedModule, s: int):
    """The canonical preimage of X_{s+1} under mu_1 at level s, the Sparse
    L = `linalg.left_inverse` of mu_1 with L mu_1 = I (row y of L over the
    pairs of `mu1`), or None when mu_1 is not onto: decided once per module
    and level."""
    return mod._memo(("mu1 preimage", s), lambda: linalg.left_inverse(
        mu1(mod, s)[1], mod.p))


def stacked_action(mod: GradedModule, s: int) -> Sparse:
    """The degree-n action at s as one Sparse A: row w * dim X_s + i is x_i
    acted on by the w-th degree-n generator.  Built once per module and
    level."""
    def build():
        n = mod.algebra.n
        gens = generators_of_degree(mod.algebra, n)
        return Sparse.vstack([mod.sparse_act(gens[w], s)
                              for w in range(mod.algebra.dual.dim(n))],
                             mod.dim(s + n))
    return mod._memo(("stacked action", s), build)


def l_condition(mod: GradedModule, s: int, t1, ker) -> Sparse:
    """The kernel condition of the distinguished subcategory at level s
    (each product of Ker(mu_1) with dual_{n-1}, in X_s (x) dual_n, goes to
    zero in X_{s+n}) as a matrix C over the stacked action A
    (`stacked_action`): it holds iff C @ A = 0.

    `ker` is Ker(mu_1), a Subspace over its pairs t1 (`multiplication_map`).
    Row v * dim dual_{n-1} + b of C is the v-th basis vector times y_b, the
    b-th basis element of dual_{n-1}: (x_i (x) y_j) y_b = x_i (x) sum_w
    t[j * dim dual_{n-1} + b, w] y_w, t = mult(1, n - 1) the products one
    row per pair, and x_i (x) y_w acts as row w * dim X_s + i of A.  One
    sparse product of the coefficients, row v * dim X_s + i and column j,
    with t read as one row per j (`Sparse.reshape`), its entries then
    moved from (v, i, b, w) to row (v, b) and column (w, i)."""
    alg, p = mod.algebra, mod.p
    dual, n = alg.dual, alg.n
    nv, nx, (nj, nb, nw) = ker.dim, mod.dim(s), map(dual.dim, (1, n - 1, n))
    i, j = np.asarray(t1, dtype=np.int64).reshape(-1, 2).T
    b = ker.basis
    coef = Sparse.from_entries((nv * nx, nj), b.rows * nx + i[b.cols],
                               j[b.cols], b.vals, p)
    prod = linalg.sparse_mul(coef, dual.mult(1, n - 1).reshape(nj, nb * nw),
                             p)
    v, x = np.divmod(prod.rows, nx)
    bb, w = np.divmod(prod.cols, nw)
    return Sparse.from_entries((nv * nb, nw * nx), v * nb + bb, w * nx + x,
                               prod.vals, p)


def _require_u_grading(mod: GradedModule, pred: str, n: int) -> None:
    """Past n = 2, in_L and in_Lo read a module over U in its own grading, and
    in_Lo hands in_L its graded dual, over the opposite U in its own
    grading; at n = 2, U is the whole dual and they read any module."""
    if n > 2 and not in_u_grading(mod.algebra):
        raise ModuleError(
            f"{pred} at n = {n} needs a module over the support-restricted "
            "dual in its own grading (\"over\": \"u\")")


def kernel_condition_holds(mod: GradedModule, s: int) -> bool:
    """Whether the kernel condition (`l_condition`) holds at level s:
    decided once per module and level."""
    def check():
        ker = mu1_kernel(mod, s)
        return not (ker.dim and linalg.sparse_mul(
            l_condition(mod, s, mu1(mod, s)[0], ker), stacked_action(mod, s),
            mod.p).any())
    return mod._memo(("kernel condition", s), check)


def in_L(mod: GradedModule, params: TorsionParams) -> bool:
    """Membership in the distinguished subcategory over the support-
    restricted dual: generation in m + nZ plus the kernel condition
    (`l_condition`) at each level s in m + nZ with X_{s+n} nonzero."""
    n = params.n
    _require_u_grading(mod, "in_L", n)
    if not mod.is_valid():
        raise ModuleError("module failed validation")
    for d in mod.degrees():
        if not params.in_s(d):
            raise ModuleError(f"support degree {d} outside S")
    if not all(params.gen_degrees_contains(d) for d in top_dims(mod)):
        return False
    if n == 2:
        return True
    return all(kernel_condition_holds(mod, s) for s in mod.degrees()
               if (s - params.m) % n == 0 and mod.dim(s + n))


def regrade(mod: GradedModule, alg) -> GradedModule:
    """The module `mod` over the support-restricted dual, read over `alg`,
    the same dual in another grading: each degree goes to the degree of alg
    at the same dual degree.  The generators of both are the same, in the
    same order."""
    src = mod.algebra
    degree = {d: alg.own_degree(src.dual_degree(d)) for d in mod.degrees()}
    return GradedModule(alg, {degree[d]: v for d, v in mod.verts.items()},
                        {(gi, degree[d]): m for (gi, d), m
                         in mod.stored_actions().items()})


def in_L_E(mod: GradedModule) -> bool:
    """The regraded criterion: automatic when n = 2; otherwise generation in
    even degrees plus the kernel condition through the regrading."""
    ealg = mod.algebra
    n = ealg.n
    if not mod.is_valid():
        raise ModuleError("module failed validation")
    if n == 2:
        return True
    if not all(d % 2 == 0 for d in top_dims(mod)):
        return False
    return in_L(regrade(mod, ealg.u), TorsionParams(n, 1, 0))


def checked_dual(mod: GradedModule, params: TorsionParams) -> GradedModule:
    """The graded dual D(mod) that in_Lo decides in_L on, once the module
    has passed in_Lo's own checks."""
    _require_u_grading(mod, "in_Lo", params.n)
    if not mod.is_valid():
        raise ModuleError("module failed validation")
    for d in mod.degrees():
        if not params.in_s(-d):
            raise ModuleError(f"support degree {d} outside -S")
    return graded_dual(mod)


def in_Lo(mod: GradedModule, params: TorsionParams) -> bool:
    """The dual-side membership, decided as in_L of the graded dual D(mod):
    the comultiplication square is the transpose of the multiplication
    square, and cogeneration in -(S:U) is generation of D(mod) in (S:U)."""
    return in_L(checked_dual(mod, params), params)
