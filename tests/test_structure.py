"""Derivative classification and clique decompositions."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crcforge import structure
from crcforge.constructions import (build_a, build_b, build_c, build_d, build_feasible,
                                    build_index1)
from crcforge.hamming import Code, Space
from crcforge.parameters import ConditionOneWitness, solve_condition1
from crcforge.structure import (KINDS, CliqueCoverFailure, CliqueDecomposition, classify,
                                classify_all, clique_cover, derivative_kinds,
                                extract_construction_d)
from crcforge.verifier import check_crc, clique_profile

from helpers import (Clique, all_cliques, brute_clique_partition, clique_vertices, code_of,
                     derivative, h3q_table_entries, reference_classify, reference_classify_all,
                     reference_decompose)


def test_derivative_matches_definition():
    sp = Space(3, 4)
    rng = np.random.default_rng(5)
    code = Code(sp, rng.random(sp.size) < 0.5)
    g = code.grid.astype(int)
    f = derivative(code, 2, 3, 1)
    for y1 in range(4):
        for y3 in range(4):
            assert f[y1, y3] == g[y1, 3, y3] - g[y1, 1, y3]
    f1 = derivative(code, 1, 0, 2)
    assert f1.dtype == np.int8 and not f1.flags.writeable
    assert np.array_equal(f1, g[0] - g[2])


def test_derivative_antisymmetry_and_same_symbol():
    sp = Space(3, 3)
    code = build_c(6, 5)
    f = derivative(code, 3, 0, 4)
    fr = derivative(code, 3, 4, 0)
    assert np.array_equal(f, -fr)
    assert not derivative(code, 1, 2, 2).any()
    with pytest.raises(ValueError):
        derivative(code, 4, 0, 1)
    with pytest.raises(ValueError):
        derivative(code, 1, 0, 6)
    with pytest.raises(ValueError):
        derivative(code_of(sp, [(0, 0, 0)]).complement().complement(), 0, 0, 1)


def test_classify_zero():
    assert classify(np.zeros((4, 4), dtype=np.int8)).kind == "zero"


def string_values(q, axis, xset, yset):
    line = np.zeros(q, dtype=np.int8)
    line[sorted(xset)] = 1
    line[sorted(yset)] = -1
    if axis == 1:
        return np.repeat(line[:, None], q, axis=1)
    return np.repeat(line[None, :], q, axis=0)


def cross_values(q, xset, yset):
    vals = np.zeros((q, q), dtype=np.int8)
    xi = sorted(xset)
    yi = sorted(yset)
    not_y = [j for j in range(q) if j not in yset]
    not_x = [i for i in range(q) if i not in xset]
    vals[np.ix_(xi, not_y)] = 1
    vals[np.ix_(not_x, yi)] = -1
    return vals


def test_classify_strings():
    for axis in (1, 2):
        res = classify(string_values(5, axis, {0, 3}, {1, 4}))
        assert res.kind == "string"
        assert res.axis == axis
        assert res.x == frozenset({0, 3})
        assert res.y == frozenset({1, 4})
    # unbalanced +1/-1 sets are not strings
    res = classify(string_values(5, 1, {0, 3}, {1}))
    assert res.kind == "unclassified"
    # all-positive constant rows are not strings either (no -1 set)
    res = classify(np.ones((4, 4), dtype=np.int8))
    assert res.kind == "unclassified"


def test_classify_cross():
    res = classify(cross_values(5, {0, 2}, {1, 3}))
    assert res.kind == "cross"
    assert res.x == frozenset({0, 2})
    assert res.y == frozenset({1, 3})
    # perturbing one cell destroys the shape
    vals = cross_values(5, {0, 2}, {1, 3}).copy()
    vals[0, 0] = 0
    assert classify(vals).kind == "unclassified"
    # overlapping x and y rows: a valid cross with x ∩ y nonempty
    assert classify(cross_values(4, {0, 1}, {1, 2})).kind == "cross"


# small tables, and tables on either side of q = 64
TABLE_QS = (2, 3, 5, 8, 63, 64, 65, 70)
TABLE_SHAPES = ("random", "string1", "string2", "cross", "plus", "minus")


def shaped_table(q, shape, seed, balanced=True, flip=False):
    """A {-1, 0, 1} table: uniformly random, a string along an axis, a cross
    (+1/-1 sets of equal size when balanced, else of different sizes where q
    allows), or a constant; with one cell changed to another value on flip."""
    rng = np.random.default_rng(seed)
    if shape == "random":
        vals = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(q, q),
                          p=rng.dirichlet([1, 1, 1]))
    elif shape in ("plus", "minus"):
        vals = np.full((q, q), 1 if shape == "plus" else -1, dtype=np.int8)
    elif shape == "cross":
        nx = int(rng.integers(1, q)) if q > 1 else 1
        ny = nx if balanced or q == 2 else int(rng.choice([k for k in range(1, q) if k != nx]))
        vals = cross_values(q, set(rng.permutation(q)[:nx].tolist()),
                            set(rng.permutation(q)[:ny].tolist()))
    else:
        nx = int(rng.integers(1, q // 2 + 1))
        ny = nx if balanced else int(rng.choice([k for k in range(0, q - nx + 1) if k != nx]))
        order = rng.permutation(q).tolist()
        vals = string_values(q, 1 if shape == "string1" else 2,
                             set(order[:nx]), set(order[nx:nx + ny]))
    if flip:
        r, c = rng.integers(0, q, size=2)
        vals[r, c] = (vals[r, c] + 1 + int(rng.integers(0, 2)) + 1) % 3 - 1
    return vals


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TABLE_QS), st.sampled_from(TABLE_SHAPES), st.integers(0, 2**32 - 1),
       st.booleans(), st.booleans())
def test_classify_matches_reference_on_tables(q, shape, seed, balanced, flip):
    f = shaped_table(q, shape, seed, balanced, flip)
    assert classify(f) == reference_classify(f)


@pytest.mark.parametrize("q", TABLE_QS)
def test_classify_shapes_at_one_and_two_words(q):
    seen = set()
    for shape in TABLE_SHAPES:
        for seed in range(4):
            for balanced in (True, False):
                for flip in (False, True):
                    f = shaped_table(q, shape, seed, balanced, flip)
                    got = classify(f)
                    assert got == reference_classify(f), (shape, seed, balanced, flip)
                    seen.add(got.kind)
                    if balanced and not flip and shape != "random":
                        want = {"cross": "cross", "plus": "unclassified",
                                "minus": "unclassified"}.get(shape, "string")
                        assert got.kind == want, (shape, seed)
    assert seen >= {"string", "cross", "unclassified"}


def test_derivative_function_rejects_values_outside_signs():
    with pytest.raises(ValueError, match=r"^derivative table values must lie in \{-1, 0, 1\}$"):
        classify(np.full((3, 3), 2, dtype=np.int8))
    for shape in ((2, 3), (3,), (3, 3, 3)):
        message = f"derivative table shape {shape} != (3,3)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            classify(np.zeros(shape, dtype=np.int8))


def assert_kinds_match_reference(code, want=None):
    """derivative_kinds against ``want``, the code's reference_classify_all
    (computed here when not given); returns the kinds seen."""
    q = code.space.q
    want = reference_classify_all(code) if want is None else want
    kinds = derivative_kinds(code)
    assert kinds.shape == (3, q, q) and kinds.dtype == np.int8
    assert not kinds[:, np.arange(q), np.arange(q)].any()   # u = v is the zero function
    got = {(i + 1, u, v): KINDS[k] for (i, u, v), k in np.ndenumerate(kinds) if u != v}
    assert got == {key: c.kind for key, c in want.items()}
    return set(got.values())


@pytest.fixture(scope="module")
def feasible_codes_and_flips():
    """Every build_feasible code of H(3,q<=8), and its one-vertex flips at 4
    evenly spread vertices, each with its reference_classify_all (computed
    once for the module)."""
    cases = []
    for q, gamma, index in h3q_table_entries(8):
        code = build_feasible(q, gamma, index)[0]
        flips = np.unique(np.linspace(0, code.space.size - 1, 4).astype(int))
        for mask in [code.mask] + [code.mask ^ (np.arange(code.space.size) == v) for v in flips]:
            c = Code(code.space, mask)
            cases.append((c, reference_classify_all(c)))
    return cases


def test_derivative_kinds_match_reference(feasible_codes_and_flips):
    kinds = set()
    for code, want in feasible_codes_and_flips:
        kinds |= assert_kinds_match_reference(code, want)
    assert kinds == set(KINDS)
    assert assert_kinds_match_reference(build_c(66, 34)) == {"zero", "string", "cross"}
    assert assert_kinds_match_reference(build_index1(66, 33)) == {"zero", "unclassified"}


def test_derivative_kinds_memory_is_bounded_in_slabs():
    code = build_c(128, 65)
    tracemalloc.start()
    try:
        kinds = derivative_kinds(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not (kinds == KINDS.index("unclassified")).any()
    assert peak < 8 * 2 ** 20


def planted_code(q, seed):
    """A code whose square at each symbol a of position 1 is R_a x A, R_a
    one of three random sets of one size, except at two symbols, whose squares
    are a cross pair +1 on X x (A-Y), -1 on (A-X) x Y with |X| = |Y| and the
    cells off both shared: zero, string, cross and unclassified derivatives."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, q))
    sets = [np.isin(np.arange(q), rng.permutation(q)[:k]) for _ in range(3)]
    grid = np.stack([np.broadcast_to(sets[j][:, None], (q, q)) for j in rng.integers(0, 3, q)])
    x, y = sets[0], np.isin(np.arange(q), rng.permutation(q)[:k])
    rest = (rng.random((q, q)) < 0.5) & (x[:, None] == y[None, :])
    u, v = rng.choice(q, 2, replace=False)
    grid[u] = (x[:, None] & ~y[None, :]) | rest
    grid[v] = (~x[:, None] & y[None, :]) | rest
    return Code(Space(3, q), grid.ravel())


@pytest.mark.parametrize("q", [67, 70])
def test_derivative_kinds_match_reference_across_a_ragged_last_slab(monkeypatch, q):
    rng = np.random.default_rng(q)
    codes = [planted_code(q, q), Code(Space(3, q), rng.random(q ** 3) < 0.1)]
    kinds = [derivative_kinds(code) for code in codes]
    # slabs of 3 lines, so that the last slab holds only q % 3 = 1 line
    monkeypatch.setattr(structure, "_SLAB_ENTRIES", 3 * 6 * q * q)
    assert assert_kinds_match_reference(codes[0]) == set(KINDS)
    assert assert_kinds_match_reference(codes[1]) == {"unclassified"}
    for code, want in zip(codes, kinds):
        assert np.array_equal(derivative_kinds(code), want)


def test_classify_agrees_with_derivative_kinds_on_every_derivative():
    for code in (planted_code(7, 1), build_c(6, 5), build_index1(5, 2)):
        q = code.space.q
        kinds = derivative_kinds(code)
        for i, u, v in np.ndindex(kinds.shape):
            assert classify(derivative(code, i + 1, u, v)).kind == KINDS[kinds[i, u, v]]


def test_classify_all_counts_and_flagship():
    code = build_c(6, 5)
    classes = classify_all(code)
    assert len(classes) == 3 * 6 * 5
    kinds = {k.kind for k in classes.values()}
    assert "unclassified" not in kinds


def test_index2_codes_classify_completely():
    cases = [build_a(4, 2), build_b(4, 1), build_b(6, 2), build_c(6, 5)]
    for q in (4, 6, 8):
        for w in solve_condition1(q):
            cases.append(build_d(q, w))
    for code in cases:
        tally = {"zero": 0, "string": 0, "cross": 0, "unclassified": 0}
        for res in classify_all(code).values():
            tally[res.kind] += 1
        assert tally["unclassified"] == 0, tally


def assert_classes_match_reference(code, want=None):
    got = classify_all(code)
    want = reference_classify_all(code) if want is None else want
    assert got == want
    assert list(got) == list(want)
    return got


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_classify_all_matches_reference_on_random_codes(q, seed, density):
    code = Code(Space(3, q), np.random.default_rng(seed).random(q ** 3) < density)
    assert_classes_match_reference(code)
    for i in (1, 2, 3):
        f = derivative(code, i, 0, q - 1)
        assert classify(f) == reference_classify(f)


def test_classify_all_matches_reference_on_feasible_codes_and_flips(feasible_codes_and_flips):
    kinds = set()
    for code, want in feasible_codes_and_flips:
        kinds |= {c.kind for c in assert_classes_match_reference(code, want).values()}
    assert kinds == {"zero", "string", "cross", "unclassified"}


def test_index1_derivatives_do_not_classify():
    # derivative along the deciding position of an interval cylinder is the
    # constant +1 table, which is none of the three lawful shapes
    code = build_index1(4, 2)
    res = classify(derivative(code, 1, 0, 2))
    assert res.kind == "unclassified"
    # along the free positions it vanishes
    assert classify(derivative(code, 2, 0, 3)).kind == "zero"


def test_full_cliques_listing():
    sp = Space(3, 2)
    code = code_of(sp, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)])
    prof = clique_profile(code)
    fcs = [cl for cl in all_cliques(sp) if prof[cl.codirection - 1][cl.fixed] == sp.q]
    assert fcs == [Clique(1, (0, 0)), Clique(2, (1, 0)), Clique(3, (1, 1))]
    for cl in fcs:
        assert all(code.grid[v] for v in clique_vertices(sp, cl))


def test_clique_cover_hexagon():
    # the complement of {000, 111} in H(3,2) is a six-cycle; its only clique
    # partitions are perfect matchings using all three codirections
    sp = Space(3, 2)
    code = code_of(sp, [(0, 0, 0), (1, 1, 1)]).complement()
    res = clique_cover(code)
    assert isinstance(res, CliqueDecomposition)
    assert res.strong
    assert res.lines.sum(axis=(1, 2)).tolist() == [1, 1, 1]
    assert res.witness == ConditionOneWitness(1, 1, 1, 1, 1, 1)
    # the recovered envelope sets need not be initial intervals: R = {1}
    assert np.flatnonzero(res.lines[1].any(axis=1)).tolist() == [1]
    q, w, _ = extract_construction_d(code)
    rebuilt = build_d(q, w)
    assert check_crc(rebuilt).gamma == check_crc(code).gamma


def test_clique_cover_round_trip_canonical():
    for q in range(2, 11):
        for w in solve_condition1(q):
            code = build_d(q, w)
            res = clique_cover(code)
            assert isinstance(res, CliqueDecomposition), (q, w.as_tuple())
            assert res.strong
            assert res.witness == w
            assert res.lines.shape == (3, q, q) and res.lines.dtype == bool
            # R, S, T are the row and column supports of the masks
            assert np.flatnonzero(res.lines[1].any(axis=1)).tolist() == list(range(w.r))
            assert np.flatnonzero(res.lines[0].any(axis=1)).tolist() == list(range(w.s))
            assert np.flatnonzero(res.lines[0].any(axis=0)).tolist() == list(range(w.t))
            assert res.lines.sum(axis=(1, 2)).tolist() == [d.sum() for d in
                                                           (res.d1, res.d2, res.d3)]
            assert sum(d.sum() for d in (res.d1, res.d2, res.d3)) * q == code.size
            assert build_d(q, res.witness) == code


def test_clique_cover_failure_no_cover():
    sp = Space(3, 2)
    res = clique_cover(code_of(sp, [(0, 0, 0), (1, 1, 1)]))
    assert isinstance(res, CliqueCoverFailure)
    assert res.kind == "not-clique-partition"
    assert res.cover_count == 0
    assert res.witness_vertex == (0, 0, 0)
    # parity-lifted codes have no full cliques at all
    res2 = clique_cover(build_b(4, 1))
    assert isinstance(res2, CliqueCoverFailure)
    assert res2.cover_count == 0


def test_clique_cover_non_strong():
    # an interval cylinder partitions into cliques of a single codirection
    code = build_index1(4, 2)
    res = clique_cover(code)
    assert isinstance(res, CliqueDecomposition)
    assert not res.strong
    assert res.witness is None
    assert not res.lines[0].any()
    assert res.lines.sum() * 4 == code.size


def test_clique_cover_deep_exact_cover():
    # every codeword lies in two full cliques, and the cover needs 1,152 of
    # them: deeper than Python's default recursion limit
    code = build_index1(48, 24)
    res = clique_cover(code)
    assert isinstance(res, CliqueDecomposition)
    assert res.lines.sum(axis=(1, 2)).tolist() == [0, 1152, 0]
    # the chosen lines hold every codeword exactly once and nothing else
    c1, c2, c3 = res.lines.astype(int)
    assert np.array_equal(c1[None, :, :] + c2[:, None, :] + c3[:, :, None], code.grid)


def test_clique_cover_backtracks():
    # 000 lies in two full cliques; the first tried, the codirection-2
    # clique {000, 010}, leaves 001 in no clique disjoint from the cover, so
    # the search must undo it and take {000, 001}
    sp = Space(3, 2)
    code = code_of(sp, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 0)])
    res = assert_cover_matches_reference(code)
    assert isinstance(res, CliqueDecomposition) and not res.strong
    assert np.argwhere(res.lines).tolist() == [[0, 1, 0], [2, 0, 0]]


@pytest.mark.parametrize("code, searched", [
    (build_d(8, ConditionOneWitness(2, 4, 6, 2, 3, 2)), False),
    (build_a(6, 6), False),
    (build_index1(8, 4), True),
    (code_of(Space(3, 2), [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 0)]), True),
])
def test_clique_cover_lines_are_read_only(monkeypatch, code, searched):
    # the forced cover is the full-line mask itself, the searched one a mask
    # of its own; both reject writes
    ran = []
    search = structure._exact_cover
    monkeypatch.setattr(structure, "_exact_cover", lambda *a: ran.append(1) or search(*a))
    res = clique_cover(code)
    assert bool(ran) == searched
    assert res.lines.shape == (3, code.space.q, code.space.q) and res.lines.dtype == bool
    assert not res.lines.flags.writeable
    with pytest.raises(ValueError):
        res.lines[0, 0, 0] = True


@pytest.mark.parametrize("code", [
    build_d(4, ConditionOneWitness(2, 2, 2, 1, 1, 1)),
    build_index1(4, 2),
    build_a(4, 2),
    code_of(Space(3, 2), [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 0)]),
    code_of(Space(3, 2), [(0, 0, 0), (1, 1, 1)]).complement(),
])
def test_clique_listing_from_lines_matches_the_oracle(code):
    # the listing that replaced ``CliqueDecomposition.cliques``: the cliques
    # of the brute-force partition, codirection-major then fixed-lex
    res = clique_cover(code)
    chosen = set(brute_clique_partition(code))
    want = [(c.codirection, c.fixed) for c in all_cliques(code.space) if c in chosen]
    assert [(j + 1, (a, b)) for j, a, b in np.argwhere(res.lines).tolist()] == want


@pytest.mark.parametrize("q", [16, 32])
def test_clique_cover_of_an_uncoverable_cylinder(monkeypatch, q):
    # the index-1 cylinder less one codeword: every codeword still lies in a
    # full clique, but no cover exists, since q does not divide |C|.  The
    # exact-cover search would backtrack through every partial cover (q = 16
    # takes it 0.03 s, q = 32 does not finish in 20 s), so at q = 32 it must
    # not run, and the failure is the one it returns at q = 16
    code = build_index1(q, q // 2)
    grid = code.grid.copy()
    grid[q // 2 - 1, q - 1, q - 1] = False
    if q == 32:
        monkeypatch.setattr(structure, "_exact_cover", lambda *a: pytest.fail("search ran"))
    assert clique_cover(Code(code.space, grid)) == CliqueCoverFailure(
        "not-clique-partition", (0, 0, 0), 2, "full cliques overlap and admit no exact cover")


def test_clique_cover_lemma_violations():
    # three disjoint cliques, one per codirection, with the wrong symbol sets:
    # codirection-2 x3-symbols fail to complement the codirection-1 x3-set
    sp = Space(3, 3)
    vs = (clique_vertices(sp, Clique(1, (0, 0)))
          + clique_vertices(sp, Clique(2, (1, 1)))
          + clique_vertices(sp, Clique(3, (2, 2))))
    res = clique_cover(code_of(sp, vs))
    assert isinstance(res, CliqueCoverFailure)
    assert res.kind == "lemma-violated"
    assert "complement" in res.detail

    # complement laws hold but one block is not doubly stochastic
    sp4 = Space(3, 4)
    cl = ([Clique(1, f) for f in ((0, 0), (1, 0), (1, 1))]
          + [Clique(2, f) for f in ((0, 2), (1, 3))]
          + [Clique(3, f) for f in ((2, 2), (3, 3))])
    vs4 = [v for c in cl for v in clique_vertices(sp4, c)]
    res4 = clique_cover(code_of(sp4, vs4))
    assert isinstance(res4, CliqueCoverFailure)
    assert res4.kind == "lemma-violated"
    assert "stochastic" in res4.detail


def test_clique_cover_validation():
    with pytest.raises(ValueError):
        clique_cover(Code(Space(3, 2), np.zeros(8, dtype=bool)))
    with pytest.raises(ValueError):
        clique_cover(Code(Space(2, 3), np.ones(9, dtype=bool)))


def test_extract_construction_d_errors():
    sp = Space(3, 2)
    with pytest.raises(ValueError):
        extract_construction_d(code_of(sp, [(0, 0, 0), (1, 1, 1)]))
    with pytest.raises(ValueError):
        extract_construction_d(build_index1(4, 2))
    q, w, blocks = extract_construction_d(build_d(8, ConditionOneWitness(2, 4, 6, 2, 3, 2)))
    assert q == 8
    assert w == ConditionOneWitness(2, 4, 6, 2, 3, 2)
    assert blocks[1].all()


def assert_cover_matches_reference(code: Code):
    """``clique_cover`` against the set-based decomposition of the partition
    found by brute force; returns the result."""
    res = clique_cover(code)
    cliques = brute_clique_partition(code)
    if cliques is None:
        assert isinstance(res, CliqueCoverFailure) and res.kind == "not-clique-partition"
    else:
        # field by field: array blocks have no value equality
        ref = reference_decompose(code, cliques)
        assert type(res) is type(ref)
        for f in dataclasses.fields(ref):
            got, want = getattr(res, f.name), getattr(ref, f.name)
            assert (np.array_equal(got, want) if isinstance(want, np.ndarray)
                    else got == want), f.name
    return res


def _outcome(res) -> str:
    """'strong', 'weak', 'not-clique-partition' or the first word of a
    lemma-violated detail."""
    if isinstance(res, CliqueDecomposition):
        return "strong" if res.strong else "weak"
    return res.kind if res.kind == "not-clique-partition" else res.detail.split(" ")[0]


def test_clique_cover_matches_reference_on_constructions_and_flips():
    # every build_d code for q <= 10, index-1, a and c codes, and their
    # one-vertex flips at 3 evenly spread vertices
    codes = [build_d(q, w) for q in range(2, 11) for w in solve_condition1(q)]
    codes += [build_index1(q, m) for q, m in ((2, 1), (4, 2), (5, 3), (6, 1))]
    codes += [build_a(q, gamma) for q, gamma in ((3, 2), (4, 2), (5, 4), (6, 6))]
    codes += [build_c(q, t) for q, t in ((4, 3), (6, 4), (6, 5), (8, 5))]
    seen = set()
    for code in codes:
        seen.add(_outcome(assert_cover_matches_reference(code)))
        for v in np.unique(np.linspace(0, code.space.size - 1, 3).astype(int)):
            mask = code.mask.copy()
            mask[v] = not mask[v]
            seen.add(_outcome(assert_cover_matches_reference(Code(code.space, mask))))
    assert {"strong", "weak", "not-clique-partition"} <= seen


def _random_lines(rng, q: int) -> np.ndarray:
    """Up to 3q - 1 random lines, each kept if it misses those kept before."""
    lines = np.zeros((3, q, q), dtype=bool)
    grid = np.zeros((q, q, q), dtype=bool)
    for _ in range(rng.integers(1, 3 * q)):
        j, fixed = int(rng.integers(3)), tuple(rng.integers(q, size=2).tolist())
        line = fixed[:j] + (slice(None),) + fixed[j:]
        if not grid[line].any():
            grid[line] = lines[j][fixed] = True
    return lines


def _random_blocks(rng, q: int) -> np.ndarray:
    """Lines over the blocks S x T, R x (A-T), (A-R) x (A-S) of random sets
    R, S, T, which miss each other, each block full or random with every row
    and column used: the complement laws hold, the block laws mostly not."""
    r, s, t = (rng.permutation(q) < rng.integers(1, q) for _ in range(3))
    lines = np.zeros((3, q, q), dtype=bool)
    for j, (rows, cols) in enumerate(((s, t), (r, ~t), (~r, ~s))):
        m, n = int(rows.sum()), int(cols.sum())
        block = np.ones((m, n), dtype=bool) if rng.integers(2) else rng.random((m, n)) < 0.3
        block[np.arange(m), rng.integers(n, size=m)] = True
        block[rng.integers(m, size=n), np.arange(n)] = True
        lines[j][np.ix_(rows, cols)] = block
    return lines


@pytest.mark.parametrize("q", [3, 4, 5, 6, 8])
def test_clique_cover_matches_reference_on_random_line_unions(q):
    # unions of disjoint full lines across codirections, and build_d codes
    # under random symbol permutations (R, S, T then need not be intervals)
    rng = np.random.default_rng(q)
    sp = Space(3, q)
    ws, seen = solve_condition1(q), set()
    for k in range(240):
        if k % 3 == 2 and ws:
            grid = build_d(q, ws[k % len(ws)]).grid[np.ix_(*(rng.permutation(q) for _ in range(3)))]
        else:
            lines = (_random_lines if k % 3 else _random_blocks)(rng, q)
            grid = lines[0][None, :, :] | lines[1][:, None, :] | lines[2][:, :, None]
        seen.add(_outcome(assert_cover_matches_reference(Code(sp, grid))))
    # the projected-witness check cannot fail once the block degrees agree
    assert seen == {"weak", "x3-symbols", "codirection-3", "block(s)", "block"} | (
        {"strong"} if ws else set())


def test_clique_cover_complement_failure_details():
    sp = Space(3, 3)
    # codirection 2 takes x3 = 1 where codirection 1 already has T = {0}, so
    # its x3-symbols {1} miss 2
    vs = (clique_vertices(sp, Clique(1, (0, 0)))
          + clique_vertices(sp, Clique(2, (1, 1)))
          + clique_vertices(sp, Clique(3, (2, 2))))
    assert clique_cover(code_of(sp, vs)) == CliqueCoverFailure(
        "lemma-violated",
        detail="x3-symbols of codirection-2 cliques are not the complement "
               "of the codirection-1 x3-symbols")
    # codirections 1 and 2 agree (T = {0}, x3-symbols {1, 2}), but the
    # codirection-3 x1-set {2} is not the complement of R = {1}
    vs = (clique_vertices(sp, Clique(1, (0, 0)))
          + clique_vertices(sp, Clique(2, (1, 1)))
          + clique_vertices(sp, Clique(2, (1, 2)))
          + clique_vertices(sp, Clique(3, (2, 2))))
    assert clique_cover(code_of(sp, vs)) == CliqueCoverFailure(
        "lemma-violated",
        detail="codirection-3 symbol sets are not the complements of the "
               "codirection-2 x1-set and codirection-1 x2-set")


def test_clique_cover_star_admits_no_exact_cover():
    # q divides |C| and every codeword lies in a full clique, 000 in three,
    # but each full clique holds 000: the exact-cover search fails
    sp = Space(3, 2)
    star = code_of(sp, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert clique_cover(star) == CliqueCoverFailure(
        "not-clique-partition", (0, 0, 0), 3, "full cliques overlap and admit no exact cover")


def test_clique_cover_projected_witness_failure(monkeypatch):
    # lawful blocks always satisfy the block system, so this last check only
    # fails when check_condition1 is made to reject the projected witness
    code = build_d(8, ConditionOneWitness(2, 4, 6, 2, 3, 2))
    assert isinstance(clique_cover(code), CliqueDecomposition)
    monkeypatch.setattr(structure, "check_condition1", lambda q, w: False)
    assert clique_cover(code) == CliqueCoverFailure(
        "lemma-violated", detail="projected witness (2, 4, 6, 2, 3, 2) fails the block system")
