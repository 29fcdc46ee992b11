"""`grmod.free_module` as it was before the blocks of e_v A came from a
cache on the algebra and the actions and `free_index` were built on first
read: every call rebuilt the basis pairs and each class's block, and built
the index and all the actions at once.  Kept as the oracle the library's
builder is compared with, Sparse by Sparse."""
import numpy as np

from nkoszul.grmod import GradedModule, _groups
from nkoszul.linalg import Sparse
from dense_oracle import mult_tensor


def free_module(algebra, gen_list, hi: int) -> GradedModule:
    """The free module on (vertex, degree) generators, truncated above hi,
    with `free_index` and `free_gens` as the library sets them."""
    gv, gd = np.asarray(gen_list, dtype=np.intp).reshape(-1, 2).T
    ngen, nv, p = gv.size, algebra.nvert, algebra.p
    lo = int(gd.min()) if ngen else 0
    keys, order, bounds = _groups((gd - lo) * nv + gv)
    classes = [(k % nv, k // nv + lo, order[a:b])
               for k, a, b in zip(keys.tolist(), bounds, bounds[1:])]
    pairs_of: dict = {}  # k -> (source, target) of each basis element of A_k

    def starting_at(k: int, v: int):
        if k not in pairs_of:
            pairs_of[k] = np.array(algebra.basis_pairs(k) if k >= 0 else [],
                                   dtype=np.intp).reshape(-1, 2)
        at = (pairs_of[k][:, 0] == v).nonzero()[0]
        return at, pairs_of[k][at, 1]

    index: dict = {}
    verts: dict = {}
    offsets: dict = {}
    class_bases: dict = {}
    for d in range(lo, hi + 1):
        counts = np.zeros(ngen, dtype=np.intp)
        layout = []
        for v, e, gs in classes:
            bis, tgts = starting_at(d - e, v)
            counts[gs] = bis.size
            layout.append((gs, bis, tgts))
        if not counts.any():
            continue
        offs = np.cumsum(counts) - counts
        entries = np.empty((int(offs[-1] + counts[-1]), 2), dtype=np.intp)
        entries[:, 0] = np.repeat(np.arange(ngen), counts)
        vs = np.empty(len(entries), dtype=np.intp)
        for gs, bis, tgts in layout:
            at = offs[gs][:, None] + np.arange(bis.size)
            entries[at, 1] = bis
            vs[at] = tgts
        index[d] = entries
        verts[d] = vs
        offsets[d] = offs
        class_bases[d] = [bis for _, bis, _ in layout]
    actions: dict = {}
    for gi, g in enumerate(algebra.generators()):
        for d in index:
            d2 = d + g.degree
            if d2 not in index:
                continue
            parts = []
            for (v, e, gs), bis, bis2 in zip(classes, class_bases[d],
                                             class_bases[d2]):
                if not (bis.size and bis2.size):
                    continue
                t = mult_tensor(algebra, d - e, g.degree)
                if t.size == 0:
                    continue
                block = t[bis, g.basis_index][:, bis2]
                br, bc = np.nonzero(block)
                if br.size:
                    parts.append(((offsets[d][gs][:, None] + br).ravel(),
                                  (offsets[d2][gs][:, None] + bc).ravel(),
                                  np.tile(block[br, bc], gs.size)))
            if parts:
                actions[(gi, d)] = Sparse.from_entries(
                    (len(index[d]), len(index[d2])),
                    *(np.concatenate(x) for x in zip(*parts)), p)
    mod = GradedModule(algebra, verts, actions)
    mod.free_index = index
    mod.free_gens = list(zip(gv.tolist(), gd.tolist()))
    return mod
