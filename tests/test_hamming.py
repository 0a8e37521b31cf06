"""Spaces, vertices, adjacency, cliques, hyperfaces."""

import itertools
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crcforge.hamming import Code, Space
from crcforge.parameters import multiplicity
from crcforge.structure import derivative_kinds

from helpers import (Clique, Hyperface, all_cliques, all_hyperfaces, clique_vertices,
                     code_of, code_vertices, hamming_distance, hyperface_vertices, index,
                     neighbors, vertices)

SMALL_SPACES = [Space(3, 2), Space(2, 3), Space(3, 3), Space(4, 2), Space(2, 5)]


def test_space_basics():
    sp = Space(3, 6)
    assert sp.size == 216
    assert sp.valency == 15
    assert Space(3, 45).size == 91125
    assert Space(1, 2).valency == 1


def test_space_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        Space(0, 5)
    with pytest.raises(ValueError):
        Space(2, 1)
    with pytest.raises(ValueError):
        Space(64, 64)  # beyond the vertex cap


def test_code_rejects_a_mask_of_the_wrong_shape():
    sp = Space(2, 3)
    with pytest.raises(ValueError, match=r"indicator shape \(8,\) does not match H\(2,3\)"):
        Code(sp, np.zeros(8, dtype=bool))
    with pytest.raises(ValueError, match=r"indicator shape \(3, 3, 1\)"):
        Code(sp, np.zeros((3, 3, 1), dtype=bool))


def test_huge_n_is_rejected_at_once():
    # decided without computing q^n, whose cost grows faster than n
    for n in (34, 10**9):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=rf"space too large: q\^n = 3\^{n} exceeds cap"):
            Space(n, 3)
        assert time.perf_counter() - t0 < 0.05
    assert Space(32, 2).size == 2**32  # the cap itself is admitted
    with pytest.raises(ValueError, match="space too large"):
        Space(33, 2)


def test_index_vertex_bijection_is_lexicographic():
    sp = Space(3, 4)
    seen = [sp.vertex(i) for i in range(sp.size)]
    assert seen == sorted(seen)  # index order == lex order
    assert seen == list(vertices(sp))
    for i, v in enumerate(seen):
        assert index(sp, v) == i == np.ravel_multi_index(v, sp.shape)


def test_index_rejects_foreign_vertices():
    sp = Space(2, 3)
    for v in ((0, 3), (0, 0, 0)):
        with pytest.raises(ValueError, match=rf"vertex {re.escape(str(v))} not in H\(2,3\)"):
            index(sp, v)
        with pytest.raises(ValueError):
            np.ravel_multi_index(v, sp.shape)


def test_out_of_range_arguments_raise_value_errors():
    sp = Space(3, 4)
    for i in (-1, sp.size):
        with pytest.raises(ValueError, match=rf"^vertex index {i} out of range for H\(3,4\)$"):
            sp.vertex(i)
    for i in (-1, 4):
        with pytest.raises(ValueError, match=rf"^eigenvalue index {i} out of 0\.\.3$"):
            multiplicity(3, 5, i)
    with pytest.raises(ValueError, match=r"^derivatives are defined for n=3, got n=2$"):
        derivative_kinds(Code(Space(2, 3), np.ones(9, dtype=bool)))


def test_neighbors_example_h23():
    # position-major, symbol-ascending
    sp = Space(2, 3)
    assert neighbors(sp, (1, 2)) == [(0, 2), (2, 2), (1, 0), (1, 1)]


def test_neighbors_are_exactly_distance_one():
    for sp in SMALL_SPACES:
        for v in vertices(sp):
            ns = neighbors(sp, v)
            assert len(ns) == sp.valency
            assert len(set(ns)) == len(ns)
            assert all(hamming_distance(v, u) == 1 for u in ns)


def test_adjacency_symmetric_exhaustive():
    for sp in SMALL_SPACES:
        adj = {v: set(neighbors(sp, v)) for v in vertices(sp)}
        for v in vertices(sp):
            for u in adj[v]:
                assert v in adj[u]


def test_clique_count_formula():
    for sp in SMALL_SPACES + [Space(3, 4)]:
        assert len(list(all_cliques(sp))) == sp.n * sp.q ** (sp.n - 1)


def test_cliques_match_brute_force_maximal_cliques():
    # independent oracle: maximal cliques of the explicit graph
    nx = pytest.importorskip("networkx")
    sp = Space(3, 4)
    g = nx.Graph()
    for v in vertices(sp):
        for u in neighbors(sp, v):
            g.add_edge(v, u)
    brute = {frozenset(c) for c in nx.find_cliques(g)}
    ours = {frozenset(clique_vertices(sp, c)) for c in all_cliques(sp)}
    assert brute == ours
    assert len(ours) == 48


def test_clique_vertices_structure():
    sp = Space(3, 5)
    c = Clique(2, (0, 1))
    vs = clique_vertices(sp, c)
    assert vs == [(0, s, 1) for s in range(5)]
    for u, v in itertools.combinations(vs, 2):
        assert hamming_distance(u, v) == 1
    with pytest.raises(ValueError):
        clique_vertices(sp, Clique(4, (0, 1)))
    with pytest.raises(ValueError):
        clique_vertices(sp, Clique(1, (0,)))


def test_hyperface_vertices():
    sp = Space(3, 2)
    h = Hyperface(3, 1)
    vs = hyperface_vertices(sp, h)
    assert vs == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    assert len(list(all_hyperfaces(sp))) == 6
    with pytest.raises(ValueError):
        hyperface_vertices(sp, Hyperface(1, 2))


def test_disjoint_cliques_meet_each_hyperface_once():
    # k pairwise-disjoint cliques of codirection i put exactly k vertices
    # into every hyperface of direction i
    sp = Space(3, 4)
    chosen = [Clique(2, (0, 1)), Clique(2, (1, 3)), Clique(2, (3, 0))]
    vsets = [set(clique_vertices(sp, c)) for c in chosen]
    for a, b in itertools.combinations(vsets, 2):
        assert not a & b
    for s in range(sp.q):
        face = set(hyperface_vertices(sp, Hyperface(2, s)))
        assert sum(len(face & vs) for vs in vsets) == len(chosen)
        for vs in vsets:
            assert len(face & vs) == 1


def test_code_storage_and_complement():
    sp = Space(3, 2)
    vs = [(0, 0, 0), (1, 1, 1)]
    m = np.zeros(sp.size, dtype=bool)
    m[np.ravel_multi_index(np.array(vs).T, sp.shape)] = True
    c = Code(sp, m)
    assert c == code_of(sp, vs)
    assert c.size == 2
    assert c.grid[0, 0, 0] and not c.grid[0, 1, 0]
    assert code_vertices(c) == vs
    assert [tuple(v) for v in np.argwhere(c.grid).tolist()] == vs
    comp = c.complement()
    assert comp.size == 6
    assert comp.complement() == c
    with pytest.raises(ValueError):
        c.mask[0] = True  # indicators are frozen


def test_code_from_indices_and_equality():
    sp = Space(2, 3)
    m = np.zeros(sp.size, dtype=bool)
    m[[0, 4, 8]] = True
    a = Code(sp, m)
    b = code_of(sp, [(0, 0), (1, 1), (2, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert np.flatnonzero(a.mask).tolist() == [0, 4, 8]
    m[8] = False
    assert a != Code(sp, m)


def test_code_copies_strided_and_broadcast_views():
    # a reversed slice and a broadcast row: each is copied, frozen, and cut
    # off from later writes to its source
    sp = Space(2, 4)
    flat = np.random.default_rng(3).random(32) < 0.5
    row = np.array([True, False, False, True])
    for src, view in ((flat, flat[::-2]), (row, np.broadcast_to(row, sp.shape))):
        materialized = Code(sp, view.copy())
        c = Code(sp, view)
        assert c == materialized
        with pytest.raises(ValueError):
            c.mask[0] = not c.mask[0]
        assert not c.grid.base.flags.writeable  # nor the array that the views share
        src[:] = ~src
        assert c == materialized


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(2, 5), st.data())
def test_index_roundtrip_random(n, q, data):
    sp = Space(n, q)
    i = data.draw(st.integers(0, sp.size - 1))
    assert index(sp, sp.vertex(i)) == i


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(2, 5), st.data())
def test_neighbor_symmetry_random(n, q, data):
    sp = Space(n, q)
    v = tuple(data.draw(st.integers(0, q - 1)) for _ in range(n))
    for u in neighbors(sp, v):
        assert v in neighbors(sp, u)
