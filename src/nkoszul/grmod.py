"""Graded right modules over the algebra flavours, with finite support.

A :class:`GradedModule` stores, per degree, a vertex label for each basis
element and, per (generator, degree), an action matrix.  Modules here are
honestly finite: a truncation of a free module is the genuine quotient by
its tail submodule, so predicates quantified "for all degrees" are decided
exactly on the (finite) support.

An action or a morphism matrix is stored in one of two forms: a dense int64
array, or a `linalg.Sparse` (row-sorted nonzeros).  Over a monomial algebra
every map of a minimal resolution is combinatorial (Green, Happel &
Zacharia, Illinois J. Math. 29, 1985), so the resolution path builds the
sparse form and reads it directly: `free_module`, `cover_on_top`,
`GradedMorphism.compose` and `submodule_from_bases` make it, and
`top_complements` and `kernel_bases` eliminate on it.  Every subspace of a
degree (kernels, radicals, socles, images, torsion and closures) is a
`linalg.Subspace`, a canonical RREF basis stored Sparse.  `act()` and
`mat()` are the dense accessors, densifying on demand under
`linalg.MAX_SLICE_BYTES`; `sparse_act()` and `sparse_mat()` are the sparse
ones; `stored_actions()` and `stored_mats()` hand over the stored forms, for
a caller that relabels or copies them.  A builder may leave the actions or
matrices to be built on first read (`_BuiltOnRead`): `free_module` and
`cover_on_top` do, and the blocks of the vertex projectives e_v A that free
modules are made of are cached on the algebra.

Modules and morphisms never change once built.  Every stored array is made
read-only (a Sparse is read-only already), so `act()`, `mat()` and
`stored_actions()` hand out the stored arrays themselves, and a module can
keep what it derives from them (`GradedModule._memo`): its `validate()`
verdict, the action of each algebra basis element, and per level s the
data of mu_1 (`mu1`, `mu1_kernel`, `mu1_preimage`), the stacked degree-n
action and the verdict of the kernel condition.  So `in_L`, the
contraction maps of F and the extraction of a module from a complex share
one build of each, and a second `validate()` of a module costs nothing.

Row-vector convention throughout: an element x of M_d is a coordinate row
and x * g = x @ act(g, d).
"""
from __future__ import annotations

import weakref

import numpy as np

from . import linalg
from .algebra import (PathAlgebra, USupportAlgebra, in_u_grading,
                      yoneda_regrade)
from .linalg import Sparse, Subspace, zeros


class ModuleError(ValueError):
    pass


def _owned(m, p: int):
    """A reduced matrix no caller shares: an array is copied; a Sparse is
    read-only, so it is kept."""
    if isinstance(m, Sparse):
        return m.reduced(p)
    return linalg.reduced_copy(m, p)


def _frozen(m):
    """m, made read-only if it is an array (a Sparse is read-only
    already)."""
    if isinstance(m, np.ndarray):
        m.setflags(write=False)
    return m


class _BuiltOnRead:
    """Attributes that a builder may defer.  `_defer(name, build)` has the
    attribute `name` built by `build(owner)` on its first read, once
    (`__getattr__` is reached only while the attribute is unset); the build
    is dropped before it runs.  A build takes the owner as its argument,
    so it need not hold the owner: a deferred attribute makes no reference
    cycle.  `_store` takes the stored matrices, named by `_STORE`, as a
    dict or as a callable that returns one from the owner."""

    _STORE = ""

    def _store(self, mats) -> None:
        if callable(mats):
            self._defer(self._STORE, lambda owner: owner._kept(mats(owner)))
        else:
            setattr(self, self._STORE, self._kept(mats))

    def _defer(self, name: str, build) -> None:
        self.__dict__.setdefault("_builds", {})[name] = build

    def _deferred(self, name: str) -> bool:
        return name in self.__dict__.get("_builds", ())

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

    A module owns its action matrices, each a dense array or a
    `linalg.Sparse`.  The public constructor copies each array (reduced mod
    p), so no caller ever shares an array with a module; a Sparse is
    read-only and is kept as it is.  The builders of this package
    (`free_module`, `quotient_module`, ...) hand over the matrices they have
    just built, int64, reduced and held by no one else, through `_adopt`,
    which takes them as they are, or a callable that builds them on first
    read.  `act` reads an action as an array, `sparse_act` as a Sparse,
    whichever form it is stored in.  A module never changes: every stored
    array is made read-only, so `act` hands out the stored array itself.

    `verts[d]` holds the vertex labels of degree d as a tuple of Python
    ints; `vert_array(d)` reads them as a read-only intp array, the one a
    builder passed (the public constructor copies it) or one made on first
    use.
    """

    _STORE = "_actions"

    def __init__(self, algebra, verts: dict, actions: dict):
        self._fill(algebra, {d: np.array(v, dtype=np.intp)
                             if isinstance(v, np.ndarray)
                             else v for d, v in verts.items()},
                   {k: _owned(m, algebra.p) for k, m in actions.items()})

    @classmethod
    def _adopt(cls, algebra, verts: dict, actions) -> "GradedModule":
        """A module that takes the action matrices themselves, or a
        callable that builds them on first read: only for matrices a
        builder has just made, int64, reduced and unshared, or for those
        another module stores, which are read-only (`shift`)."""
        mod = cls.__new__(cls)
        mod._fill(algebra, verts, actions)
        return mod

    def _fill(self, algebra, verts: dict, actions) -> None:
        self.algebra = algebra
        self.p = algebra.p
        self.verts = {d: tuple(v.tolist() if isinstance(v, np.ndarray) else v)
                      for d, v in verts.items() if len(v)}
        self._vert_arrays = {d: v for d, v in verts.items()
                             if isinstance(v, np.ndarray) and v.size}
        for v in self._vert_arrays.values():
            v.setflags(write=False)
        self.gens = algebra.generators()
        self._store(actions)
        self._memos: dict = {}

    def _kept(self, actions: dict) -> dict:
        return {(gi, d): _frozen(m) for (gi, d), m in actions.items()
                if d in self.verts and m.size}

    def _memo(self, key: tuple, build):
        """build(), run once per key and kept, made read-only if it is an
        array: the module never changes, so a kept value never goes
        stale."""
        memos = self._memos
        if key not in memos:
            memos[key] = _frozen(build())
        return memos[key]

    def stored_actions(self) -> dict:
        """A new dict of the stored actions, each in its stored form (an
        array or a Sparse), for a caller that relabels or copies them; the
        constructor takes either form."""
        return dict(self._actions)

    # -- structure ----------------------------------------------------------

    def degrees(self):
        return sorted(self.verts)

    def dim(self, d: int) -> int:
        return len(self.verts.get(d, ()))

    def verts_at(self, d: int):
        return self.verts.get(d, ())

    def vert_array(self, d: int) -> np.ndarray:
        out = self._vert_arrays.get(d)
        if out is None:
            out = np.array(self.verts_at(d), dtype=np.intp)
            out.setflags(write=False)
            if d in self.verts:
                self._vert_arrays[d] = out
        return out

    def total_dim(self) -> int:
        return sum(len(v) for v in self.verts.values())

    def is_zero(self) -> bool:
        return not self.verts

    def support_top(self):
        return max(self.verts) if self.verts else None

    def _action(self, gi: int, d: int):
        """(shape, the stored action of generator gi from degree d in its
        stored form or None)."""
        shape = (self.dim(d), self.dim(d + self.gens[gi].degree))
        m = self._actions.get((gi, d))
        if m is not None and m.shape != shape:
            raise ModuleError(
                f"action matrix for generator {gi} at degree {d} has shape "
                f"{m.shape}, expected {shape}")
        return shape, m

    def act(self, gi: int, d: int) -> np.ndarray:
        """The action as an array: the stored one, read-only, or a new one
        densified from the sparse form (not cached), refused above the size
        cap."""
        shape, m = self._action(gi, d)
        return linalg.dense(m) if m is not None else linalg.dense_zeros(*shape)

    def sparse_act(self, gi: int, d: int) -> Sparse:
        return linalg.as_sparse(self._stored_action(gi, d), self.p)

    def _stored_action(self, gi: int, d: int):
        """The action in its stored form, a zero Sparse when none is
        stored."""
        shape, m = self._action(gi, d)
        return m if m is not None else Sparse.zero(*shape)

    def act_word(self, word, d: int) -> np.ndarray:
        """Composite action matrix of a generator word starting at degree d."""
        out = None
        cur = d
        for gi in word:
            m = self.act(gi, cur)
            out = m if out is None else linalg.mat_mul(out, m, self.p)
            cur += self.gens[gi].degree
        if out is None:
            return linalg.eye(self.dim(d))
        return out

    def act_basis_element(self, d_el: int, b_index: int, d: int) -> np.ndarray:
        """Action matrix of the b-th algebra basis element of degree d_el,
        built once per module and kept read-only."""
        return self._memo(("element", d_el, b_index, d),
                          lambda: self._basis_element_action(d_el, b_index, d))

    def _basis_element_action(self, d_el: int, b_index: int,
                              d: int) -> np.ndarray:
        if d_el == 0:
            # vertex idempotent: projection onto the matching block
            v = self.algebra.basis_pairs(0)[b_index][0]
            out = zeros(self.dim(d), self.dim(d))
            at = (self.vert_array(d) == v).nonzero()[0]
            out[at, at] = 1
            return out
        words = self.algebra.element_words(d_el)[b_index]
        if len(words) == 1 and words[0][1] % self.p == 1:
            return self.act_word(words[0][0], d)  # a path: no combination
        return self._combine([c for _, c in words],
                             [self.act_word(w, d) for w, _ in words], d, d_el)

    def act_element(self, d_el: int, vec, d: int) -> np.ndarray:
        """Action matrix of a general homogeneous algebra element."""
        vec = np.asarray(vec, dtype=np.int64) % self.p
        nz = vec.nonzero()[0].tolist()
        return self._combine(vec[nz], [self.act_basis_element(d_el, b, d)
                                       for b in nz], d, d_el)

    def _combine(self, coeffs, mats, d: int, d_el: int) -> np.ndarray:
        """sum_k coeffs[k] * mats[k] mod p: one product of the coefficient
        row with the stacked matrices, each a map M_d -> M_{d + d_el}."""
        shape = (self.dim(d), self.dim(d + d_el))
        stacked = np.reshape(mats, (len(mats), shape[0] * shape[1]))
        return linalg.mat_mul(np.reshape(coeffs, (1, len(mats))), stacked,
                              self.p).reshape(shape)

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
            r, c = linalg.nonzero(m)
            off = ((self.vert_array(d)[r] != g.source)
                   | (self.vert_array(d + g.degree)[c] != g.target))
            issues += [f"generator {g.name} at degree {d}: entry ({i},{j}) "
                       "breaks the vertex block structure"
                       for i, j in zip(r[off], c[off])]
        return issues or _relation_issues(self)

    def is_valid(self) -> bool:
        return not self.validate()

    # -- constructions ------------------------------------------------------

    def shift(self, s: int) -> "GradedModule":
        """M[s] with M[s]_d = M_{d+s}, sharing the stored matrices, which
        never change."""
        verts = {d - s: v for d, v in self.verts.items()}
        actions = {(gi, d - s): m for (gi, d), m in self._actions.items()}
        return GradedModule._adopt(self.algebra, verts, actions)


def zero_module(algebra) -> GradedModule:
    return GradedModule(algebra, {}, {})


def _relation_issues(mod: GradedModule) -> list:
    """One issue per relation of the algebra and degree d of the module from
    which the relation acts nontrivially, in relation order.  The relations
    of one degree are checked together, by one product of their
    coefficient rows with the stacked actions of their words, and each
    (word, degree) action is built once, from the action of its prefix."""
    rels = mod.algebra.relation_words()
    p, gens = mod.p, mod.gens
    groups = []  # per relation degree: it, its relations, words, coefficients
    for rdeg in sorted({rdeg for rdeg, _ in rels}):
        which = [i for i, (e, _) in enumerate(rels) if e == rdeg]
        words: dict = {}  # word -> column
        for i in which:
            for w, _ in rels[i][1]:
                words.setdefault(w, len(words))
        coef = zeros(len(which), len(words))
        for row, i in enumerate(which):
            for w, c in rels[i][1]:
                coef[row, words[w]] = (coef[row, words[w]] + c) % p
        if words:
            groups.append((rdeg, which, words, coef))
    failed = set()  # (relation number, degree)
    for d in mod.degrees():
        acting: dict = {}  # word -> its action from degree d

        def action(word):
            if word not in acting:
                if len(word) == 1:
                    acting[word] = mod.act(word[0], d)
                else:
                    at = d + sum(gens[gi].degree for gi in word[:-1])
                    acting[word] = linalg.mat_mul(
                        action(word[:-1]), mod.act(word[-1], at), p)
            return acting[word]

        for rdeg, which, words, coef in groups:
            if mod.dim(d + rdeg) == 0:
                continue
            stacked = np.stack([action(w).reshape(-1) for w in words])
            acts = linalg.mat_mul(coef, stacked, p).any(axis=1)
            failed.update((i, d) for i, bad in zip(which, acts) if bad)
    return [f"relation of degree {rdeg} acts nontrivially from degree {d}"
            for i, (rdeg, _) in enumerate(rels) for d in mod.degrees()
            if (i, d) in failed]


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
    read-only intp arrays, cached on the algebra per (v, k) for every
    vertex at once."""
    blocks = algebra._free_blocks
    if (v, k) not in blocks:
        pairs = np.array(algebra.basis_pairs(k) if k >= 0 else [],
                         dtype=np.intp).reshape(-1, 2)
        for w in range(algebra.nvert):
            at = (pairs[:, 0] == w).nonzero()[0]
            tgts = pairs[at, 1]
            at.setflags(write=False)
            tgts.setflags(write=False)
            blocks[(w, k)] = (at, tgts)
    return blocks[(v, k)]


def _generator_block(algebra, v: int, k: int, gi: int):
    """The nonzeros (rows, cols, vals) of generator gi acting on e_v A from
    degree k, rows and cols counting the basis elements that start at v
    (`_starting_at`): cached on the algebra per (v, k, gi)."""
    blocks = algebra._free_blocks
    key = (v, k, gi)
    if key not in blocks:
        g = algebra.generators()[gi]
        bis = _starting_at(algebra, k, v)[0]
        bis2 = _starting_at(algebra, k + g.degree, v)[0]
        if bis.size and bis2.size:
            block = algebra.mult(k, g.degree)[bis, g.basis_index][:, bis2]
            br, bc = np.nonzero(block)
            blocks[key] = (br, bc, block[br, bc])
        else:
            e = np.zeros(0, dtype=np.intp)
            blocks[key] = (e, e, np.zeros(0, dtype=np.int64))
    return blocks[key]


def free_module(algebra, gen_list, hi: int) -> GradedModule:
    """Direct sum of shifted vertex projectives e_v A, truncated above hi.

    gen_list: (vertex, degree) pairs, or an (N, 2) intp array of them;
    `free_gens` lists them as Python-int pairs, one tuple per class shared
    by its generators.  The truncation is the honest quotient by the tail
    submodule in degrees > hi.  Each degree lists, generator by generator,
    the basis elements of A that start at the generator's vertex:
    `free_index[d]` is an (E, 2) array of (generator, basis index) rows.
    Generators with the same vertex and degree form a class and have equal
    blocks: `free_classes` lists the classes as (vertex, degree, generator
    numbers), and `free_layout[d]` lists (class number, first row of each
    of its generators' blocks, its basis indices) for each class present
    in degree d.  The vertex labels and the layout are built here; the
    sparse actions, scattered from the blocks the algebra caches
    (`_starting_at`, `_generator_block`), and `free_index` are built on
    first read.
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
        verts[d] = vs
    mod = GradedModule._adopt(algebra, verts, _free_actions)
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
        out[d] = entries
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
                br, bc, vals = _generator_block(algebra, v, d - e, gi)
                if br.size:
                    parts.append(((first[:, None] + br).ravel(),
                                  (first2[c][:, None] + bc).ravel(),
                                  np.tile(vals, gs.size)))
            if parts:
                actions[(gi, d)] = Sparse.from_entries(
                    (mod.dim(d), mod.dim(d2)),
                    *(np.concatenate(x) for x in zip(*parts)), algebra.p)
    return actions


class GradedMorphism(_BuiltOnRead):
    """A degree-0 morphism of graded modules: one matrix per degree.

    Owns its matrices as a module owns its actions, each a dense array or a
    `linalg.Sparse`: the public constructor copies the arrays, the builders
    of this package hand theirs over by `_adopt`, or a callable that builds
    them on first read.  `mat` reads a matrix as an array, `sparse_mat` as
    a Sparse.  `compose` builds the sparse form.
    """

    _STORE = "_mats"

    def __init__(self, source: GradedModule, target: GradedModule, mats: dict):
        self._fill(source, target, {d: _owned(m, source.p)
                                    for d, m in mats.items()})

    @classmethod
    def _adopt(cls, source: GradedModule, target: GradedModule,
               mats) -> "GradedMorphism":
        """A morphism that takes the matrices themselves, or a callable that
        builds them on first read: only for arrays a builder has just made,
        int64, reduced and unshared."""
        f = cls.__new__(cls)
        f._fill(source, target, mats)
        return f

    def _fill(self, source: GradedModule, target: GradedModule,
              mats) -> None:
        self.source = source
        self.target = target
        self.p = source.p
        self._store(mats)

    def _kept(self, mats: dict) -> dict:
        return {d: _frozen(m) for d, m in mats.items() if m.size}

    def stored_mats(self) -> dict:
        """A new dict of the stored matrices, each in its stored form."""
        return dict(self._mats)

    def mat(self, d: int) -> np.ndarray:
        """The matrix in degree d as an array: the stored one, or a new one
        densified from the sparse form (not cached), refused above the size
        cap."""
        m = self._mats.get(d)
        if m is None:
            return linalg.dense_zeros(self.source.dim(d), self.target.dim(d))
        return linalg.dense(m)

    def sparse_mat(self, d: int) -> Sparse:
        return linalg.as_sparse(self._stored(d), self.p)

    def _stored(self, d: int):
        """The matrix in degree d in its stored form, a zero Sparse when
        none is stored."""
        m = self._mats.get(d)
        if m is None:
            return Sparse.zero(self.source.dim(d), self.target.dim(d))
        return m

    def commutes(self) -> bool:
        return self.noncommuting_degree() is None

    def noncommuting_degree(self):
        """The lowest degree from which the action of some generator does
        not commute with the map, or None when the map is a module map."""
        ms, mt = self.source, self.target
        for d in sorted(set(ms.degrees()) | set(mt.degrees())):
            for gi, g in enumerate(ms.gens):
                lhs = linalg.mat_mul(ms.act(gi, d), self.mat(d + g.degree), self.p)
                rhs = linalg.mat_mul(self.mat(d), mt.act(gi, d), self.p)
                if not np.array_equal(lhs, rhs):
                    return d
        return None

    def compose(self, other: "GradedMorphism") -> "GradedMorphism":
        """self then other (source of other = target of self), sparse."""
        return GradedMorphism._adopt(self.source, other.target,
                                     self._composed(other))

    def _composed(self, other: "GradedMorphism") -> dict:
        """The matrices of `compose`."""
        return {d: linalg.sparse_mul(self._stored(d), other._stored(d), self.p)
                for d in set(self._mats) | set(other._mats)}

    def is_iso(self) -> bool:
        try:
            self.inverse()
        except (ModuleError, linalg.LinAlgError):
            return False
        return True

    def inverse(self) -> "GradedMorphism":
        mats = {}
        for d in set(self.source.degrees()) | set(self.target.degrees()):
            m = self.mat(d)
            inv = linalg.inverse(m, self.p)
            if inv is None:
                raise ModuleError("morphism is not invertible")
            mats[d] = inv
        return GradedMorphism._adopt(self.target, self.source, mats)


def hom_space(m: GradedModule, n: GradedModule):
    """Canonical basis of the degree-0 graded morphisms m -> n.

    Solved as one linear system, built in one preallocated matrix: the
    unknowns are the matrix entries per degree whose row and column sit at
    the same vertex (A_0-linearity forces the others to zero), the
    constraints are commutation with every generator.
    """
    if m.p != n.p:
        raise ModuleError("hom between modules over different fields")
    p = m.p
    degs = sorted(set(m.degrees()) | set(n.degrees()))
    # per degree: the unknown's column for each matrix entry, or -1
    cols = {}
    total = 0
    for d in degs:
        match = np.equal.outer(m.vert_array(d), n.vert_array(d))
        cols[d] = np.full(match.shape, -1, dtype=np.intp)
        cols[d][match] = np.arange(total, total + match.sum())
        total += int(match.sum())
    if total == 0:
        return []
    blocks = [(gi, d, d + g.degree) for gi, g in enumerate(m.gens)
              for d in degs if m.dim(d) and n.dim(d + g.degree)
              and (m.act(gi, d).any() or n.act(gi, d).any())]
    eq = np.zeros((sum(m.dim(d) * n.dim(d2) for _, d, d2 in blocks), total),
                  dtype=np.int64)
    top = 0
    for gi, d, d2 in blocks:
        a = m.act(gi, d)          # r1 x r2
        b = n.act(gi, d)          # c1 x c2
        r1, c2 = a.shape[0], b.shape[1]
        rows = eq[top: top + r1 * c2]
        top += r1 * c2
        # row i * c2 + j of a f_{d2} - f_d b: the unknown f_{d2}[k, j]
        # enters with a[i, k] and the unknown f_d[i, k] with -b[k, j]
        k, j = np.nonzero(cols[d2] >= 0)
        rows[np.arange(r1)[:, None] * c2 + j, cols[d2][k, j]] = a[:, k]
        i, k = np.nonzero(cols[d] >= 0)
        rows[i * c2 + np.arange(c2)[:, None], cols[d][i, k]] = -b[k].T % p
    out = []
    for vec in linalg.null_space(eq, p).basis.dense():
        mats = {}
        for d in degs:
            if cols[d].size:
                mat = zeros(*cols[d].shape)
                kept = cols[d] >= 0
                mat[kept] = vec[cols[d][kept]]
                mats[d] = mat
        out.append(GradedMorphism(m, n, mats))
    return out


def combine_mats(coef, mats_list, p: int) -> dict:
    """Per degree, sum_i coef[i] * mats_list[i][d] mod p: the matrices of a
    linear combination of morphisms, each given by its per-degree matrices.

    One `linalg.mat_mul` per degree, so it is exact at every p < 2**63.  A
    degree is kept when a term with a nonzero coefficient has a matrix there.
    """
    terms = [(int(ci), mats) for ci, mats in zip(coef, mats_list) if ci]
    out = {}
    for d in sorted({d for _, mats in terms for d in mats}):
        have = [(ci, linalg.dense(mats[d])) for ci, mats in terms if d in mats]
        stacked = np.stack([mm.reshape(-1) for _, mm in have])
        coefs = np.array([[ci for ci, _ in have]], dtype=np.int64)
        out[d] = linalg.mat_mul(coefs, stacked, p).reshape(have[0][1].shape)
    return out


# -- socle / top / generation ----------------------------------------------


def socle_subspaces(mod: GradedModule) -> dict:
    """Per degree: the joint kernel of all positive-degree generator actions."""
    out = {}
    for d in mod.degrees():
        acts = [mod.act(gi, d) for gi in range(len(mod.gens))]
        acts = [a for a in acts if a.shape[1]]
        out[d] = (linalg.left_null_space(np.concatenate(acts, axis=1), mod.p)
                  if acts else Subspace.full(mod.dim(d), mod.p))
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
                img = linalg.sparse_mul(sub.basis, mod._stored_action(gi, d),
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
        vs, b, lead = mod.vert_array(d), s.basis, s.pivots
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
    sub = GradedModule._adopt(mod.algebra, verts, actions)
    return sub, GradedMorphism._adopt(
        sub, mod, {d: s.basis for d, s in bases.items()})


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
        comp[d] = keep.tolist()
        verts[d] = tuple(mod.verts_at(d)[i] for i in comp[d])
        # projection: kill pivot coordinates via the RREF rows
        pr = zeros(mod.dim(d), keep.size)
        pr[keep, np.arange(keep.size)] = 1
        rest = sub.basis.take_cols(keep)
        pr[sub.pivots[rest.rows], rest.cols] = (-rest.vals) % mod.p
        proj[d] = pr
    actions = {}
    for d, keep in comp.items():
        for gi, g in enumerate(mod.gens):
            d2 = d + g.degree
            if d2 not in comp:
                continue
            a = mod.act(gi, d)[keep, :]
            m = linalg.mat_mul(a, proj[d2], mod.p)
            if m.any():
                actions[(gi, d)] = m
    quo = GradedModule._adopt(mod.algebra, verts, actions)
    return quo, GradedMorphism._adopt(mod, quo, proj)


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
        sv = m.vert_array(d)
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
    gen_vert = np.concatenate([mod.vert_array(d)[comp[d]] for d in degs])
    pmod = free_module(mod.algebra, np.stack((gen_vert, gen_deg), axis=1),
                       hi)
    phi = GradedMorphism._adopt(pmod, mod, lambda f: _cover_mats(f, gen_row))
    return pmod, phi, list(pmod.free_gens)


def deferred_differential(phi: GradedMorphism, incl) -> GradedMorphism:
    """phi then incl (phi itself when incl is None), for a cover map phi
    fresh from `cover_on_top`, with its matrices deferred together with the
    actions of the free module P = phi.source: the first read of either
    builds both, and the cover map, once.  P holds the differential only
    by a weak reference, so no reference cycle keeps an unread term
    alive."""
    pmod = phi.source
    diff = phi if incl is None else GradedMorphism._adopt(
        pmod, incl.target, lambda f: phi._composed(incl))
    link = weakref.ref(diff)
    build_actions = pmod._builds[pmod._STORE]
    build_mats = diff._builds[diff._STORE]

    def actions(mod):
        _complete(link())
        return build_actions(mod)

    def mats(f):
        _complete(pmod)
        return build_mats(f)

    pmod._defer(pmod._STORE, actions)
    diff._defer(diff._STORE, mats)
    return diff


def _complete(owner) -> None:
    """Build the stored matrices of a module or morphism, if deferred."""
    if owner is not None and owner._deferred(owner._STORE):
        getattr(owner, owner._STORE)


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


def _rows_times_basis_element(mod: GradedModule, rows, d_el: int,
                              b_index: int, d: int, products: dict) -> Sparse:
    """Rows `rows` of `GradedModule.act_basis_element(d_el, b_index, d)` as
    a Sparse, for `rows` basis elements of M_d at the element's starting
    vertex.  `products` holds the rows times the words met so far, by word,
    for these rows."""
    if d_el == 0:  # the vertex idempotent fixes each row
        return Sparse((rows.size, mod.dim(d)), np.arange(rows.size), rows,
                      np.ones(rows.size, dtype=np.int64))
    terms = mod.algebra.element_words(d_el)[b_index]
    mats = [_rows_times_word(mod, rows, tuple(w), d, products)
            for w, _ in terms]
    if len(mats) == 1 and terms[0][1] % mod.p == 1:
        return mats[0]  # a path: no combination
    return linalg.sparse_combine([c for _, c in terms], mats, mod.p)


def _rows_times_word(mod: GradedModule, rows, word: tuple, d: int,
                     products: dict) -> Sparse:
    """Rows `rows` of M_d times a generator word: the rows times the word
    without its last letter, times that letter's action, memoized in
    `products` by word."""
    if word not in products:
        if len(word) == 1:
            a = mod._stored_action(word[0], d)
            out = (a.take_rows(rows) if isinstance(a, Sparse)
                   else Sparse.from_dense(a[rows], mod.p))
        else:
            head = _rows_times_word(mod, rows, word[:-1], d, products)
            at = d + sum(mod.gens[gi].degree for gi in word[:-1])
            out = linalg.sparse_mul(head, mod._stored_action(word[-1], at),
                                    mod.p)
        products[word] = out
    return products[word]


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


def _reversal_corr(a_from, a_to):
    """Coordinate map of path reversal: degree-d coordinates of `a_from`
    to the coordinates of the reversed element in `a_to`."""
    from .quiver import opposite_path

    def corr(d: int) -> np.ndarray:
        return a_to.path_classes(d, [opposite_path(pa, a_from.quiver)
                                     for pa in a_from.basis_paths(d)])

    return corr


def opposite_algebra(algebra):
    """The opposite algebra, paired with the reversal coordinate maps.

    Returns (op_alg, corr) where corr(d) is the matrix sending degree-d
    coordinates of the opposite algebra to the coordinates of the reversed
    element in the original algebra.  Results are memoized both ways, so
    opposing twice gives back the original object.
    """
    cached = getattr(algebra, "_op_data", None)
    if cached is not None:
        return cached
    if isinstance(algebra, USupportAlgebra):
        op_dual, corr = opposite_algebra(algebra.dual)
        back = opposite_algebra(op_dual)[1]
        op = (USupportAlgebra(op_dual, algebra.n) if in_u_grading(algebra)
              else yoneda_regrade(opposite_algebra(algebra.u)[0]))
        to_dual = algebra.dual_degree
        algebra._op_data = (op, lambda j: corr(to_dual(j)))
        op._op_data = (algebra, lambda j: back(to_dual(j)))
        return algebra._op_data
    if not isinstance(algebra, PathAlgebra):
        raise ModuleError("unsupported algebra flavour for opposition")
    op = PathAlgebra(algebra.pres.opposite())
    algebra._op_data = (op, _reversal_corr(op, algebra))
    op._op_data = (algebra, _reversal_corr(algebra, op))
    return algebra._op_data


def graded_dual(mod: GradedModule, op_data=None) -> GradedModule:
    """D(M): degree d holds the dual space of M_{-d}, over the opposite
    algebra; generator actions are transposed through the reversal map."""
    if op_data is None:
        op_data = opposite_algebra(mod.algebra)
    op_alg, corr = op_data
    verts = {-d: v for d, v in mod.verts.items()}
    actions: dict = {}
    for gi, g in enumerate(op_alg.generators()):
        cm = corr(g.degree)
        vec = cm[g.basis_index] if cm.size else np.zeros(0, dtype=np.int64)
        for d in verts:
            e = -d - g.degree
            if mod.dim(e) == 0 or mod.dim(-d) == 0:
                continue
            a = mod.act_element(g.degree, vec, e)  # M_e -> M_{e+gdeg} = M_{-d}
            if a.any():
                actions[(gi, d)] = a.T % mod.p
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
    keep = sub
    for gi, g in enumerate(mod.gens):
        d2 = d + g.degree
        if mod.dim(d2) == 0:
            continue
        tgt = cur.get(d2, Subspace.zero(mod.dim(d2), mod.p))
        # x = u @ keep stays iff x g = v @ tgt for some v: a null space
        # over (u, v)
        img = linalg.mat_mul(keep.basis.dense(), mod.act(gi, d), mod.p)
        ker = linalg.null_space(np.concatenate(
            [img.T, (-tgt.basis.dense().T) % mod.p], axis=1), mod.p)
        keep = linalg.sparse_rref(linalg.sparse_mul(
            ker.basis.take_cols(np.arange(keep.dim)), keep.basis, mod.p),
            mod.p)
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
        deg1 = [mod.act(gi, d) for gi, g in enumerate(mod.gens)
                if g.degree == 1 and mod.dim(d + 1)]
        if not deg1 or linalg.left_null_space(np.concatenate(deg1, axis=1),
                                              mod.p).dim:
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
    actions: dict = {}
    for gi, g in enumerate(ualg.generators()):
        for d in verts:
            if d + g.degree not in verts:
                continue
            a = mod.act_basis_element(g.degree, g.basis_index, d)
            if a.any():
                actions[(gi, d)] = a
    return GradedModule(ualg, verts, actions)


# -- the L / L_E / L-dual membership tests -----------------------------------


def multiplication_map(mod: GradedModule, s: int):
    """mu_1: X_s (x) dual_1 -> X_{s+1}, x_i (x) y_j -> x_i y_j, for a module
    over the support-restricted dual.

    Returns (pairs, matrix).  The pairs (i, j), with the vertex of x_i equal
    to the source of y_j, are the vertex-matched basis of the tensor
    product; the matrix has one row per pair.  `mu1` keeps them on the
    module."""
    vs = mod.verts_at(s)
    pairs = [(i, j) for i in range(len(vs))
             for j, (src, _) in enumerate(mod.algebra.dual.basis_pairs(1))
             if vs[i] == src]
    gens = {g.basis_index: gi for gi, g in enumerate(mod.gens)
            if g.degree == 1}
    mu = zeros(len(pairs), mod.dim(s + 1))
    if mu.size:
        acts = {j: mod.act(gens[j], s) for j in {j for _, j in pairs}}
        for r, (i, j) in enumerate(pairs):
            mu[r] = acts[j][i]
    return pairs, mu


def mu1(mod: GradedModule, s: int):
    """`multiplication_map(mod, s)`, built once per module and level."""
    def build():
        pairs, mu = multiplication_map(mod, s)
        return pairs, _frozen(mu)
    return mod._memo(("mu1", s), build)


def mu1_kernel(mod: GradedModule, s: int) -> Subspace:
    """Ker(mu_1) at level s, over the pairs of `mu1`: built once per module
    and level."""
    return mod._memo(("mu1 kernel", s), lambda: linalg.left_null_space(
        mu1(mod, s)[1], mod.p))


def mu1_preimage(mod: GradedModule, s: int):
    """The canonical preimage of X_{s+1} under mu_1 at level s, a matrix P
    with P^T mu_1 = I (column y of P over the pairs of `mu1`), or None when
    mu_1 is not onto: decided once per module and level."""
    return mod._memo(("mu1 preimage", s), lambda: linalg.solve_matrix(
        mu1(mod, s)[1].T, linalg.eye(mod.dim(s + 1)), mod.p))


def stacked_action(mod: GradedModule, s: int) -> np.ndarray:
    """The degree-n action at s as one matrix A: row w * dim X_s + i is x_i
    acted on by the w-th degree-n generator.  Built once per module and
    level."""
    def build():
        n = mod.algebra.n
        gens = {g.basis_index: gi for gi, g in enumerate(mod.gens)
                if g.degree == n}
        return np.concatenate(
            [zeros(0, mod.dim(s + n))]
            + [mod.act(gens[w], s) for w in range(mod.algebra.dual.dim(n))])
    return mod._memo(("stacked action", s), build)


def l_condition(mod: GradedModule, s: int, t1, ker) -> np.ndarray:
    """The kernel condition of the distinguished subcategory at level s
    (each product of Ker(mu_1) with dual_{n-1}, in X_s (x) dual_n, goes to
    zero in X_{s+n}) as a matrix C over the stacked action A
    (`stacked_action`): it holds iff C @ A = 0.

    `ker` is Ker(mu_1), a Subspace over its pairs t1 (`multiplication_map`).
    Row v * dim dual_{n-1} + b of C is the v-th basis vector times y_b, the
    b-th basis element of dual_{n-1}: with t = mult(1, n - 1),
    (x_i (x) y_j) y_b = x_i (x) sum_w t[j, b, w] y_w, and x_i (x) y_w acts
    as row w * dim X_s + i of A.  One product of the coefficients, regrouped
    by x_i, with the tensor."""
    alg = mod.algebra
    t_mul = alg.dual.mult(1, alg.n - 1)
    nv, nx, (nj, nb, nw) = ker.dim, mod.dim(s), t_mul.shape
    coef = np.zeros((nv, nx, nj), dtype=np.int64)
    if t1:
        i, j = np.asarray(t1, dtype=np.intp).T
        b = ker.basis
        coef[b.rows, i[b.cols], j[b.cols]] = b.vals
    prod = linalg.mat_mul(coef.reshape(nv * nx, nj),
                          t_mul.reshape(nj, nb * nw), mod.p)
    return prod.reshape(nv, nx, nb, nw).transpose(0, 2, 3, 1).reshape(
        nv * nb, nw * nx)


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
        return not (ker.dim and linalg.mat_mul(
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
