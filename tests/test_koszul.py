import numpy as np
import pytest

from nkoszul import koszul as ko
from nkoszul import verify
from nkoszul.algebra import DegreeMap, Presentation, build_slices
from nkoszul.quiver import PathSpaceElement, Quiver, enumerate_paths

P = 101


def cubic_survivor(top=12):
    """Monomial quotient killing every cubic path except x.y.x."""
    q = Quiver.make(1, [("x", 0, 0), ("y", 0, 0)])
    rels = [PathSpaceElement(3, {pa: 1}) for pa in enumerate_paths(q, 3)
            if pa.arrows != (0, 1, 0)]
    return build_slices(Presentation.make(q, 3, rels), top)


def test_semisimple_and_simple_modules():
    e = verify.corpus("two_vertex_n3")
    sem = ko.semisimple_module(e["lam"])
    assert sem.dim(0) == 2 and sem.total_dim() == 2
    s0 = ko.simple_module(e["lam"], 0)
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
        assert f.commutes()


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


def test_ext_dims_table_two_vertex():
    e = verify.corpus("two_vertex_n3")
    table = ko.ext_dims_table(e["lam"], 4)
    assert table == [
        {(0, 0): 1, (1, 1): 1},
        {(0, 1): 1, (1, 0): 1},
        {(0, 1): 1, (1, 0): 1},
        {(0, 0): 1, (1, 1): 1},
        {(0, 0): 1, (1, 1): 1},
    ]


def test_cubic_survivor_is_not_generalized_koszul():
    lam = cubic_survivor()
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
