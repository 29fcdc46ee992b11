import numpy as np
import pytest
from algebra_oracle import simple_module
from dense_oracle import dense_mats, dense_resolution, label_lists
from search_oracle import commutes

from nkoszul import koszul as ko
from nkoszul import verify
from nkoszul.algebra import DegreeMap

P = 101


def test_semisimple_and_simple_modules():
    e = verify.corpus("two_vertex_n3")
    sem = ko.semisimple_module(e["lam"])
    assert sem.dim(0) == 2 and sem.total_dim() == 2
    s0 = simple_module(e["lam"], 0)
    assert s0.verts_at(0) == (0,) and s0.total_dim() == 1


def test_minimal_resolution_of_simple_one_loop():
    e = verify.corpus("one_loop_n3")
    sem = ko.semisimple_module(e["lam"])
    seg = ko.minimal_projective_resolution(sem, 4)
    assert len(seg.pmods) == 5
    dmap = DegreeMap(0, 3)
    for j, gens in enumerate(seg.gen_lists):
        assert all(d == dmap.delta(j) for (_, d) in gens)
    for f in seg.diffs[1:]:
        assert commutes(f)


def test_truncated_algebras_are_generalized_koszul():
    for name in ("one_loop_n3", "two_vertex_n3"):
        e = verify.corpus(name)
        assert ko.is_n_koszul(e["lam"], 5)


def test_ext_dims_frozen_values():
    one = verify.corpus("one_loop_n3")
    assert ko.ext_dims(one["lam"], 6) == [1] * 7
    twov = verify.corpus("two_vertex_n3")
    assert ko.ext_dims(twov["lam"], 6) == [2] * 7
    comm = verify.corpus("commutative_n2")
    assert ko.ext_dims(comm["lam"], 5) == [1, 2, 3, 4, 5, 6]


def test_ext_dims_match_dual_dims_along_degree_map():
    for name in ("one_loop_n3", "two_vertex_n3"):
        e = verify.corpus(name)
        dmap = DegreeMap(0, e["n"])
        ext = ko.ext_dims(e["lam"], 5)
        assert ext == [e["dual"].dim(dmap.delta(j)) for j in range(6)]


def ext_dims_table(lam, bound: int) -> list:
    """Per vertex pair: entry (v, w) of table j counts the generators at
    vertex w in the j-th resolution term of the simple at v.  An oracle of
    the resolution, from the simples one at a time."""
    out = [dict() for _ in range(bound + 1)]
    for v in range(lam.nvert):
        seg = ko.minimal_projective_resolution(simple_module(lam, v), bound)
        for j, gens in enumerate(seg.gen_lists):
            for w, _ in gens:
                out[j][(v, w)] = out[j].get((v, w), 0) + 1
    return out


def test_ext_dims_table_two_vertex():
    e = verify.corpus("two_vertex_n3")
    table = ext_dims_table(e["lam"], 4)
    assert table == [
        {(0, 0): 1, (1, 1): 1},
        {(0, 1): 1, (1, 0): 1},
        {(0, 1): 1, (1, 0): 1},
        {(0, 0): 1, (1, 1): 1},
        {(0, 0): 1, (1, 1): 1},
    ]


def test_cubic_survivor_is_not_generalized_koszul():
    lam = verify.corpus("cubic_survivor")["lam"]
    assert not ko.is_n_koszul(lam, 5)
    assert ko.ext_dims(lam, 5) == [1, 2, 7, 16, 53, 130]


def test_cokoszul_of_semisimple():
    for name in ("one_loop_n3", "two_vertex_n3"):
        e = verify.corpus(name)
        sem = ko.semisimple_module(e["lam"])
        assert ko.is_n_cokoszul(sem, 5) in (True, False)
        cores = ko.coresolution_complex(sem, 4)
        assert cores.positions()


def test_liftability_baseline_one_loop():
    e = verify.corpus("one_loop_n3")
    sem = ko.semisimple_module(e["lam"])
    ok, wit = ko.is_H0_liftable_resolution(sem, e["ualg"], 5)
    assert ok
    assert wit.total_dim() == 6


def test_liftability_baseline_two_vertex():
    e = verify.corpus("two_vertex_n3")
    sem = ko.semisimple_module(e["lam"])
    ok, wit = ko.is_H0_liftable_resolution(sem, e["ualg"], 5)
    assert ok
    assert wit.total_dim() == 12


# -- the segment against the loop that also built the top syzygy -----------


def resolution_with_top_syzygy(mod, length):
    """The loop before the top syzygy was dropped: it takes a kernel and
    realizes a syzygy after every cover, the last one included."""
    from nkoszul.complexes import settled_top
    from nkoszul.grmod import (GradedMorphism, kernel_bases,
                               projective_cover, submodule_from_bases,
                               top_complements, zero_module)
    lam = mod.algebra
    top = settled_top(lam)
    pmods, diffs, gen_lists = [], [], []
    current, incl = mod, None
    for j in range(length + 1):
        if current.is_zero():
            z = zero_module(lam)
            pmods.append(z)
            diffs.append(GradedMorphism(z, pmods[j - 1] if j else mod, {}))
            gen_lists.append([])
            current = z
            continue
        hi = max(top_complements(current)) + top
        pmod, phi, gen_list = projective_cover(current, hi=hi)
        pmods.append(pmod)
        gen_lists.append(gen_list)
        diffs.append(phi if incl is None else phi.compose(incl))
        ker = kernel_bases(phi)
        if not ker:
            current, incl = zero_module(lam), None
            continue
        current, incl = submodule_from_bases(pmod, ker)
    return ko.ResolutionSegment(mod, pmods, diffs, gen_lists)


@pytest.mark.parametrize("name,bound", [("two_loop_n3", 5),
                                        ("one_loop_n3", 6),
                                        ("cubic_survivor", 4)])
def test_segment_equals_the_loop_with_the_top_syzygy(name, bound):
    lam = verify.corpus(name)["lam"]
    sem = ko.semisimple_module(lam)
    seg = ko.minimal_projective_resolution(sem, bound)
    ref = resolution_with_top_syzygy(sem, bound)
    assert seg.gen_lists == ref.gen_lists
    assert [pm.total_dim() for pm in seg.pmods] == \
        [pm.total_dim() for pm in ref.pmods]
    assert len(seg.diffs) == len(ref.diffs) == bound + 1
    for f, g in zip(seg.diffs, ref.diffs):
        fm, gm = dense_mats(f), dense_mats(g)
        assert set(fm) == set(gm)
        for d in fm:
            assert np.array_equal(fm[d], gm[d])


@pytest.mark.parametrize("name,bound", [("one_loop_n3", 5),
                                        ("two_loop_n3", 4),
                                        ("two_vertex_n3", 3)])
def test_a_segment_of_length_L_takes_L_kernels(monkeypatch, name, bound):
    calls = []
    kernel = ko.kernel_bases

    def counted(f):
        calls.append(f)
        return kernel(f)

    monkeypatch.setattr(ko, "kernel_bases", counted)
    seg = ko.minimal_projective_resolution(
        ko.semisimple_module(verify.corpus(name)["lam"]), bound)
    assert seg.length() == bound
    assert len(calls) == bound


def test_koszulity_and_ext_dims_share_one_segment():
    """The suite's verdict and Ext dimensions, read off one segment, equal
    the public is_n_koszul and ext_dims."""
    for name in ("two_vertex_n3", "cubic_survivor"):
        lam = verify.corpus(name)["lam"]
        seg = ko.minimal_projective_resolution(ko.semisimple_module(lam), 5)
        assert ko.follows_degree_map(seg, lam.pres.n) == \
            ko.is_n_koszul(lam, 5)
        assert ko.segment_ext_dims(seg) == ko.ext_dims(lam, 5)


def test_resolution_reduces_each_radical_once(monkeypatch):
    from nkoszul import grmod
    calls = []
    top = grmod.top_complements

    def counted(mod):
        calls.append(mod)
        return top(mod)

    monkeypatch.setattr(ko, "top_complements", counted)
    monkeypatch.setattr(grmod, "top_complements", counted)
    seg = ko.minimal_projective_resolution(
        ko.semisimple_module(verify.corpus("two_loop_n3")["lam"]), 6)
    assert [len(g) for g in seg.gen_lists] == [1, 2, 8, 16, 64, 128, 512]
    assert len(calls) == 7


def imports_numpy_ma(code: str) -> bool:
    """Whether a fresh interpreter that runs `code` has numpy.ma loaded."""
    import os
    import subprocess
    import sys
    import nkoszul
    src = os.path.dirname(os.path.dirname(nkoszul.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\n"
         "print('numpy.ma' in sys.modules)\n"], env=env,
        capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1] == "True"


def test_resolution_does_not_import_numpy_ma():
    """np.unique imports numpy.ma (about 40 ms) on first use."""
    assert not imports_numpy_ma(
        "from nkoszul import koszul, verify\n"
        "lam = verify.corpus('two_loop_n3')['lam']\n"
        "koszul.minimal_projective_resolution("
        "koszul.semisimple_module(lam), 6)")


@pytest.mark.parametrize("argv", [
    ["check", "two_loop_n3.json", "--predicate", "in_Y", "--object", "F(X)"],
    ["dual", "commutative_n2.json", "--window", "-12", "12"]])
def test_the_timed_cli_commands_do_not_import_numpy_ma(argv):
    """The membership and slices benchmark commands time one run each, in
    which a first np.unique would import numpy.ma."""
    import os
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    argv = [argv[0], os.path.join(here, "inputs", argv[1])] + argv[2:]
    assert not imports_numpy_ma(
        "import contextlib, io\n"
        "from nkoszul.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0")


# -- the last term, built on first read ---------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """The free modules whose actions, and the morphisms whose cover maps,
    are built, and the sources of the composites taken, in call order."""
    from nkoszul import grmod
    seen = {"actions": [], "cover": [], "composite": []}
    free_actions, cover_mats = grmod._free_actions, grmod._cover_mats
    composed = grmod.GradedMorphism._composed

    def counted_actions(mod):
        seen["actions"].append(mod)
        return free_actions(mod)

    def counted_cover(phi, gen_row):
        seen["cover"].append(phi.source)
        return cover_mats(phi, gen_row)

    def counted_composite(f, g):
        seen["composite"].append(f.source)
        return composed(f, g)

    monkeypatch.setattr(grmod, "_free_actions", counted_actions)
    monkeypatch.setattr(grmod, "_cover_mats", counted_cover)
    monkeypatch.setattr(grmod.GradedMorphism, "_composed", counted_composite)
    return seen


def built_for(seen, mod) -> list:
    """How many times each kind of build ran for the module."""
    return [sum(m is mod for m in seen[k])
            for k in ("actions", "cover", "composite")]


@pytest.mark.parametrize("first", ["diffs", "actions"])
@pytest.mark.parametrize("name,bound", [("two_loop_n3", 5),
                                        ("one_loop_n3", 0),
                                        ("two_vertex_n4", 4),
                                        ("cubic_survivor", 4)])
def test_the_last_term_equals_the_eager_loop_whichever_is_read_first(
        builds, first, name, bound):
    lam = verify.corpus(name)["lam"]
    sem = ko.semisimple_module(lam)
    seg = ko.minimal_projective_resolution(sem, bound)
    top, last = seg.pmods[-1], seg.diffs[-1]
    assert built_for(builds, top) == [0, 0, 0]
    # each read builds only its own part, once: the term's actions, or the
    # cover map and the differential composed from it
    if first == "diffs":
        got_mats = last.stored_mats()
        assert built_for(builds, top) == [0, 1, int(bound > 0)]
        got_actions = top.stored_actions()
    else:
        got_actions = top.stored_actions()
        assert built_for(builds, top) == [1, 0, 0]
        got_mats = last.stored_mats()
    assert built_for(builds, top) == [1, 1, int(bound > 0)]
    assert top.stored_actions() == got_actions
    assert last.stored_mats() == got_mats
    assert built_for(builds, top) == [1, 1, int(bound > 0)]
    ref = resolution_with_top_syzygy(sem, bound)
    want_actions = ref.pmods[-1].stored_actions()
    assert set(got_actions) == set(want_actions)
    for key, m in want_actions.items():
        assert np.array_equal(top.sparse_act(*key).dense(),
                              ref.pmods[-1].sparse_act(*key).dense())
    want = dense_mats(ref.diffs[-1])
    assert set(dense_mats(last)) == set(want)
    for d, m in want.items():
        assert np.array_equal(last.sparse_mat(d).dense(), m)
    assert commutes(last)


@pytest.mark.parametrize("bound", [4, 7])
def test_koszulity_and_ext_dims_never_build_the_last_term(monkeypatch,
                                                          builds, bound):
    """They read generator lists only: no differential is composed, the
    last term's actions and cover map are never built, and every other
    cover map is built once, for its kernel."""
    segs = []
    resolve = ko.minimal_projective_resolution

    def kept(mod, length):
        segs.append(resolve(mod, length))
        return segs[-1]

    monkeypatch.setattr(ko, "minimal_projective_resolution", kept)
    lam = verify.corpus("two_loop_n3")["lam"]
    assert ko.is_n_koszul(lam, bound)
    assert ko.ext_dims(lam, bound) == [1, 2, 8, 16, 64, 128, 512,
                                       1024][:bound + 1]
    assert len(segs) == 2
    assert builds["composite"] == []
    for seg in segs:
        assert built_for(builds, seg.pmods[-1]) == [0, 0, 0]
        for pm in seg.pmods[:-1]:
            assert built_for(builds, pm)[1:] == [1, 0]
    assert len(builds["cover"]) == 2 * bound


def test_ext_dims_to_bound_10_stays_small():
    """ext_dims reads only generator lists.  The two_loop_n3 resolution to
    bound 10 with its last term's actions, cover map and differential
    built peaked at 26.6 MiB under tracemalloc; without them ext_dims
    peaks at about 13.7 MiB."""
    import tracemalloc
    lam = verify.corpus("two_loop_n3")["lam"]
    ko.minimal_projective_resolution(ko.semisimple_module(lam), 2)
    tracemalloc.start()
    try:
        dims = ko.ext_dims(lam, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dims == [1, 2, 8, 16, 64, 128, 512, 1024, 4096, 8192, 32768]
    assert peak < 18 * 2 ** 20


# -- the sparse resolution against the dense builders it replaced -------------


def assert_segment_equals_the_dense_one(seg, ref):
    pmods, diffs, gen_lists = ref
    assert seg.gen_lists == gen_lists
    assert len(seg.pmods) == len(pmods) and len(seg.diffs) == len(diffs)
    for got, want in zip(seg.pmods, pmods):
        assert label_lists(got.verts) == label_lists(want.verts)
        assert set(got.stored_actions()) == set(want.stored_actions())
        for key in want.stored_actions():
            assert np.array_equal(got.sparse_act(*key).dense(),
                                  want.sparse_act(*key).dense())
    for got, want in zip(seg.diffs, diffs):
        assert set(got.stored_mats()) == set(want.stored_mats())
        for d in want.stored_mats():
            assert np.array_equal(got.sparse_mat(d).dense(),
                                  want.sparse_mat(d).dense())


@pytest.mark.parametrize("name,bound", [
    ("one_loop_n3", 6), ("two_loop_n3", 6), ("two_loop_n3", 7),
    ("commutative_n2", 5), ("two_vertex_n3", 5), ("two_vertex_n4", 5),
    ("cubic_survivor", 5)])
def test_resolution_equals_the_dense_builders(name, bound):
    lam = verify.corpus(name)["lam"]
    sem = ko.semisimple_module(lam)
    assert_segment_equals_the_dense_one(
        ko.minimal_projective_resolution(sem, bound),
        dense_resolution(sem, bound))


def test_resolution_of_a_dense_module_equals_the_dense_builders():
    """A module handed in as dense arrays, here the graded dual of a
    truncated free module over commutative_n2 rebuilt from its densified
    actions, is resolved through the same builders."""
    from nkoszul.grmod import GradedModule, free_module, graded_dual
    lam = verify.corpus("commutative_n2")["lam"]
    d = graded_dual(free_module(lam, [(0, 0)], 2))
    dm = GradedModule(d.algebra, d.verts, {key: d.sparse_act(*key).dense()
                                           for key in d.stored_actions()})
    assert dm.stored_actions() == d.stored_actions()
    assert_segment_equals_the_dense_one(
        ko.minimal_projective_resolution(dm, 4), dense_resolution(dm, 4))


def test_bound_7_resolution_stays_small():
    """The dense terms and maps of the two_loop_n3 resolution to bound 7
    peaked at 443 MB under tracemalloc; their nonzeros take a few MB."""
    import tracemalloc
    lam = verify.corpus("two_loop_n3")["lam"]
    sem = ko.semisimple_module(lam)
    ko.minimal_projective_resolution(sem, 2)  # the slices it reads
    tracemalloc.start()
    try:
        seg = ko.minimal_projective_resolution(sem, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(g) for g in seg.gen_lists] == [1, 2, 8, 16, 64, 128, 512,
                                               1024]
    assert peak < 200 * 2 ** 20


def test_bound_10_resolution_stays_small():
    """With the basis of each term held as lists of (generator, basis
    index) tuples, the two_loop_n3 resolution to bound 10 peaked at 52 MiB
    under tracemalloc (and took 9.8 s there); as (E, 2) arrays it peaks at
    about 26 MiB."""
    import tracemalloc
    lam = verify.corpus("two_loop_n3")["lam"]
    sem = ko.semisimple_module(lam)
    ko.minimal_projective_resolution(sem, 2)  # the slices it reads
    tracemalloc.start()
    try:
        seg = ko.minimal_projective_resolution(sem, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(g) for g in seg.gen_lists] == [1, 2, 8, 16, 64, 128, 512,
                                               1024, 4096, 8192, 32768]
    assert peak < 40 * 2 ** 20


def test_act_refuses_an_over_cap_sparse_action_before_allocating():
    """P_9 of two_loop_n3 has dimension 16384 in degree 14 and 32768 in
    degree 15: a dense action there needs 4 GiB."""
    import tracemalloc
    from nkoszul import linalg
    lam = verify.corpus("two_loop_n3")["lam"]
    seg = ko.minimal_projective_resolution(ko.semisimple_module(lam), 9)
    top = seg.pmods[9]
    assert (top.dim(14), top.dim(15)) == (16384, 32768)
    assert top.sparse_act(0, 14).nnz == 16384
    seg.diffs[9].sparse_mat(14)  # the differential is composed on this read
    tracemalloc.start()
    try:
        with pytest.raises(linalg.LinAlgError, match="over the .* cap"):
            top.sparse_act(0, 14).dense()
        with pytest.raises(linalg.LinAlgError, match="over the .* cap"):
            seg.diffs[9].sparse_mat(14).dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
