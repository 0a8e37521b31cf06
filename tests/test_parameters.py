"""Spectra, the three-block integer system, and parameter feasibility."""

import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crcforge import parameters
from crcforge.parameters import (ConditionOneWitness, check_condition1,
                                 eigenvalue, feasible, feasible_h3q, feasible_hnq,
                                 feasible_table, multiplicity, solve_condition1)

from helpers import product_identity, reference_identity_triples


def test_eigenvalues():
    assert eigenvalue(3, 6, 0) == 15
    assert eigenvalue(3, 6, 1) == 9
    assert eigenvalue(3, 6, 2) == 3
    assert eigenvalue(3, 6, 3) == -3
    assert eigenvalue(3, 2, 2) == -1
    with pytest.raises(ValueError):
        eigenvalue(3, 6, 4)
    with pytest.raises(ValueError):
        eigenvalue(0, 6, 0)


def test_multiplicities_sum_to_space_size():
    for n, q in [(1, 2), (2, 3), (3, 4), (4, 3), (3, 6)]:
        assert sum(multiplicity(n, q, i) for i in range(n + 1)) == q ** n
    assert multiplicity(3, 6, 1) == 15
    assert multiplicity(3, 6, 2) == 75


def brute_solve(q, gamma=None):
    """Definition-level search over all (r,s,t,a,b,c)."""
    return [w for r, s, t in itertools.product(range(1, q), repeat=3)
            for w in brute_solve_rst(q, r, s, t) if gamma is None or w.gamma == gamma]


def brute_solve_rst(q, r, s, t):
    """Every (a, b, c) within the degree bounds that solves the system at (r, s, t)."""
    out = []
    for a in range(1, min(r, s) + 1):
        for b in range(1, min(t, q - r) + 1):
            for c in range(1, min(q - s, q - t) + 1):
                w = ConditionOneWitness(r, s, t, a, b, c)
                if check_condition1(q, w):
                    out.append(w)
    return out


def test_solver_matches_brute_force_small_q():
    for q in range(2, 13):
        assert solve_condition1(q) == brute_solve(q)


def identity_loop_solve(q):
    """Witnesses of the (r, s, t) that pass a plain product_identity loop."""
    out = []
    for r, s, t in itertools.product(range(1, q), repeat=3):
        if product_identity(q, r, s, t):
            out.extend(brute_solve_rst(q, r, s, t))
    return out


def test_solver_matches_product_identity_loop():
    for q in range(2, 25):
        assert solve_condition1(q) == identity_loop_solve(q)


def test_identity_triples_match_the_cubic_scan():
    for q in range(2, 131):
        assert parameters._identity_triples(q) == reference_identity_triples(q)


def test_gamma_index_matches_the_gamma_filter():
    for q in range(2, 65):
        full = solve_condition1(q)
        for gamma in range(1, 3 * q):
            assert solve_condition1(q, gamma) == [w for w in full if w.gamma == gamma]


def test_solver_returns_a_fresh_list():
    for gamma in (None, 7):
        ws = solve_condition1(8, gamma)
        expected = list(ws)
        ws.clear()
        ws.append(ConditionOneWitness(1, 1, 1, 1, 1, 1))
        assert solve_condition1(8, gamma) == expected


def test_solver_memory_is_bounded_in_slabs():
    for q in (256, 1024):
        parameters._witnesses.cache_clear()  # measure the build, not a cache hit
        tracemalloc.start()
        try:
            assert solve_condition1(q, 1) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parameters._witnesses.cache_info().misses == 1
        assert peak < 64 * 2 ** 20


def test_solver_gamma_filter_matches_brute_force():
    for q, gamma in [(8, 7), (12, 7), (10, 9), (6, 5), (9, 4)]:
        assert solve_condition1(q, gamma) == brute_solve(q, gamma)


def test_solver_frozen_q8():
    # the full witness list for q = 8, gamma = 7 (regression pin; the brute
    # force equality above is the oracle)
    got = [w.as_tuple() for w in solve_condition1(8, 7)]
    assert got == [
        (2, 4, 6, 2, 3, 2),
        (4, 2, 2, 2, 2, 3),
        (6, 6, 4, 3, 2, 2),
    ]
    for w in solve_condition1(8, 7):
        assert check_condition1(8, w)
        assert w.gamma == 7


def test_solver_output_is_lexicographic():
    for q in (8, 12, 16):
        tups = [w.as_tuple() for w in solve_condition1(q)]
        assert tups == sorted(tups)
        assert len(tups) == len(set(tups))


def test_product_identity_examples():
    assert product_identity(8, 2, 4, 6)  # 4*6*2 == 4*2*6
    assert not product_identity(8, 1, 4, 6)
    assert product_identity(6, 3, 3, 3)  # symmetric midpoint


def test_check_condition1_bounds():
    # equations hold but a bound fails
    w = ConditionOneWitness(2, 4, 6, 4, 6, 4)  # doubled degrees exceed bounds
    assert not check_condition1(8, w)
    assert not check_condition1(8, ConditionOneWitness(0, 4, 6, 2, 3, 2))
    assert not check_condition1(8, ConditionOneWitness(2, 4, 8, 2, 3, 2))
    assert not check_condition1(8, ConditionOneWitness(2, 4, 6, 2, 7, 2))  # b > min(t, q - r)
    assert check_condition1(8, ConditionOneWitness(2, 4, 6, 2, 3, 2))


def test_no_witnesses_for_tiny_or_small_gamma_regimes():
    assert solve_condition1(2) == [ConditionOneWitness(1, 1, 1, 1, 1, 1)]
    assert solve_condition1(3) == []
    # gamma = 1 is never realizable by the system: a,b,c >= 1 forces gamma >= 3
    for q in (4, 8, 12, 16):
        assert solve_condition1(q, 1) == []
    assert solve_condition1(4, 3) == [ConditionOneWitness(2, 2, 2, 1, 1, 1)]
    assert len(solve_condition1(12, 5)) == 3


@pytest.mark.parametrize("gamma", [0, -3])
def test_solve_condition1_rejects_nonpositive_gamma(gamma):
    with pytest.raises(ValueError, match=f"gamma={gamma} must be positive"):
        solve_condition1(4, gamma)


def test_feasible_h3q_index2_cases():
    assert feasible_h3q(8, 7, 2).feasible  # gamma >= q/2: alphabet split
    assert feasible_h3q(8, 7, 2).witness is None
    v = feasible_h3q(16, 7, 2)  # odd gamma < q/2: needs the three-block system
    assert v.feasible
    assert v.witness == ConditionOneWitness(4, 8, 12, 2, 3, 2)
    assert feasible_h3q(12, 5, 2).feasible
    assert not feasible_h3q(8, 1, 2).feasible  # gamma = 1 never solves the system
    assert not feasible_h3q(7, 3, 2).feasible  # odd q, odd gamma
    assert feasible_h3q(7, 2, 2).feasible  # even gamma always works
    assert feasible_h3q(2, 1, 2).feasible  # gamma = q/2 at q = 2
    assert feasible_h3q(6, 5, 2).feasible  # q/2 < gamma, alphabet split
    assert feasible_h3q(6, 6, 2).feasible


def test_feasible_h3q_index1_and_3():
    assert feasible_h3q(6, 3, 1).feasible
    assert feasible_h3q(6, 3, 3).feasible
    assert not feasible_h3q(6, 4, 3).feasible
    assert feasible_h3q(6, 9, 3).feasible  # up to 3q/2
    assert not feasible_h3q(5, 2, 3).feasible
    assert "3q/2" in feasible_h3q(6, 9, 3).rule


def test_feasible_h3q_validation():
    with pytest.raises(ValueError):
        feasible_h3q(6, 4, 1)  # gamma > q/2 must use the complement
    with pytest.raises(ValueError):
        feasible_h3q(6, 7, 2)
    with pytest.raises(ValueError):
        feasible_h3q(6, 10, 3)
    with pytest.raises(ValueError):
        feasible_h3q(6, 0, 2)
    with pytest.raises(ValueError):
        feasible_h3q(6, 2, 4)


def test_feasible_hnq():
    assert not feasible_hnq(2, 8, 7).feasible  # n = 2 forces even gamma
    assert feasible_hnq(2, 8, 6).feasible
    assert feasible_hnq(3, 8, 7).feasible
    assert feasible_hnq(5, 6, 4).feasible
    assert feasible_hnq(4, 8, 7).feasible  # same q = 8 system, more positions
    assert not feasible_hnq(4, 7, 3).feasible
    assert not feasible_hnq(4, 12, 1).feasible
    with pytest.raises(ValueError):
        feasible_hnq(1, 8, 3)
    with pytest.raises(ValueError):
        feasible_hnq(3, 8, 9)  # normalization


def test_feasible_table_lists_every_feasible_pair_in_order():
    for n, q in itertools.product((2, 3, 4, 5), range(2, 17)):
        table = feasible_table(n, q)
        assert tuple(table) == ((1, 2, 3) if n == 3 else (2,))
        expected = [(index, g, v) for index in table for g in range(1, q * index // 2 + 1)
                    if (v := feasible(n, q, g, index)).feasible]
        assert [(index, g, v) for index, row in table.items() for g, v in row] == expected


def test_feasible_table_builds_the_identity_triples_once_per_q():
    parameters._witnesses.cache_clear()
    for q in (30, 32):
        feasible_table(3, q)
        feasible_hnq(4, q, 1)
    info = parameters._witnesses.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


def test_h3q_brute_force_agreement_on_solver_regime():
    # for q even and odd gamma < q/2 the verdict must equal system solvability
    for q in (4, 6, 8, 10, 12):
        for gamma in range(1, q // 2, 2):
            verdict = feasible_h3q(q, gamma, 2)
            assert verdict.feasible == bool(brute_solve(q, gamma))
            if verdict.feasible:
                assert check_condition1(q, verdict.witness)
                assert verdict.witness.gamma == gamma


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.data())
def test_solver_witnesses_always_check(q, data):
    ws = solve_condition1(q)
    if not ws:
        return
    w = data.draw(st.sampled_from(ws))
    assert check_condition1(q, w)
    assert product_identity(q, w.r, w.s, w.t)
    # degree ratios pin the witness to its primitive triple
    assert w.c * w.r == w.a * (q - w.t)
    assert w.b * (q - w.s) == w.c * (q - w.r)
    assert w.a * w.t == w.b * w.s


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 30), st.integers(1, 45))
def test_feasibility_never_contradicts_solver(q, gamma):
    if 2 * gamma > 2 * q:
        return
    verdict = feasible_h3q(q, gamma, 2)
    if q % 2 == 0 and gamma % 2 == 1 and 2 * gamma < q:
        assert verdict.feasible == bool(solve_condition1(q, gamma))
