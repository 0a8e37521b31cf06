"""Exhaustive enumeration: brute-force equality, determinism, pruning."""

import functools
import hashlib
import math
import multiprocessing
import os

import numpy as np
import pytest

from crcforge import search
from crcforge.hamming import Space
from crcforge.search import (SearchConstraints, SearchSummary, enumerate_crcs,
                             resolve_workers)
from crcforge.verifier import CrcCertificate, check_crc

from helpers import (Hyperface, all_vertex_subsets, brute_crc1_params, code_vertices, collect,
                     count_latin_squares, count_line_regular_matrices, hyperface_vertices,
                     run_optimized, spectral_support, vertices)


def brute_census(sp):
    """(codes, parameter triples) of every rho=1 CRC, straight from the definition."""
    found = []
    params = set()
    for words in all_vertex_subsets(sp):
        res = brute_crc1_params(sp, words)
        if res is None:
            continue
        gamma, beta = res
        idx = (gamma + beta) // sp.q if (gamma + beta) % sp.q == 0 else None
        found.append(frozenset(words))
        params.add((gamma, beta, idx))
    return found, params


def test_search_equals_brute_force_h32():
    sp = Space(3, 2)
    brute_codes, brute_params = brute_census(sp)
    collected = []
    summary = enumerate_crcs(SearchConstraints(3, 2), sink=collect(collected), workers=1)
    assert summary.codes_found == len(brute_codes) == 22
    assert summary.parameter_sets == frozenset(brute_params)
    assert {frozenset(code_vertices(c)) for c in collected} == set(brute_codes)


def test_search_equals_brute_force_h23():
    sp = Space(2, 3)
    brute_codes, brute_params = brute_census(sp)
    summary = enumerate_crcs(SearchConstraints(2, 3), workers=1)
    assert summary.codes_found == len(brute_codes) == 24
    assert summary.parameter_sets == frozenset(brute_params)


def test_search_equals_brute_force_h22():
    sp = Space(2, 2)
    brute_codes, brute_params = brute_census(sp)
    summary = enumerate_crcs(SearchConstraints(2, 2), workers=1)
    assert summary.codes_found == len(brute_codes) == 6
    assert summary.parameter_sets == frozenset(brute_params) == frozenset(
        {(1, 1, 1), (2, 2, 2)})


def test_summary_independent_of_worker_count():
    base = None
    for w in (1, 2, 3, 4):
        s = enumerate_crcs(SearchConstraints(3, 2), workers=w)
        if base is None:
            base = s
        assert s == base
    assert base.nodes == 56  # node count is part of the deterministic contract


# (n, q, gamma, index, fix_first_codeword) -> (codes_found, nodes), one worker.
# The node counts pin the pruning itself: the faces path, the multiple-of-q
# path, the gamma-only path and the fixed-zero path.  H(3,4) and H(2,8) have
# 64 vertices, so their rows also use the top field of the search's packed
# counters.  The field width is set by the valency or the hyperface size,
# whichever is larger: 7 bits both at the valency 63 of H(1,64) and at the
# hyperface size 32 of H(6,2) with the index fixed at 2 or more.  A pinned
# search also needs k + |k - q*i| to fit: 20 widens H(2,8) at index 1 to 6
# bits, and 64 fills H(1,64)'s 7 bits at index 1 exactly.
PINNED_NODES = [
    ((2, 3, None, None, False), (24, 112)),
    ((2, 4, None, None, False), (166, 1080)),
    ((3, 3, None, None, False), (222, 2820)),
    ((4, 2, None, None, False), (86, 356)),
    ((5, 2, None, None, False), (382, 4064)),
    ((2, 4, 2, None, False), (36, 130)),
    ((2, 5, 3, None, False), (20, 734)),
    ((3, 3, 2, 2, False), (90, 280)),
    ((3, 4, 2, 2, False), (180, 1104)),
    ((3, 4, 1, 1, False), (12, 92)),
    ((6, 2, 1, 2, False), (80, 274)),
    ((3, 3, None, None, True), (111, 1410)),
    ((4, 2, None, 2, False), (68, 148)),
    ((3, 4, 3, 3, False), (576, 1590)),
    ((2, 5, None, None, False), (4380, 23308)),
    ((3, 4, 2, None, False), (198, 7036)),
    # gamma = beta: the fixed-gamma searches that are solved by mirroring
    ((2, 4, 2, 1, False), (12, 40)),
    ((4, 2, 2, 2, False), (36, 72)),
    ((6, 2, 2, 2, False), (390, 1628)),
    ((2, 6, 3, 1, False), (40, 276)),
    # field-width extremes
    ((1, 64, 1, 1, False), (64, 130)),
    ((1, 64, 2, 1, False), (2016, 4032)),
    ((1, 5, None, None, False), (30, 60)),
    ((2, 8, 2, 1, False), (56, 520)),
    ((3, 4, None, 1, False), (42, 516)),
    # index only, q*i - k above 1: the shift lifts gamma's lower end before
    # the first decision (H(4,2) at index 2 has q*i - k = 0, H(3,4) at 1 below)
    ((3, 3, None, 3, False), (24, 248)),
    ((2, 4, None, 2, False), (138, 612)),
    ((2, 5, None, 2, False), (4320, 17016)),
    # beta = q*i - gamma above the valency k = 6: rejected before any node
    ((3, 3, 1, 3, False), None),
    ((3, 3, 2, 3, False), None),
    # fix_first_codeword starts from a decided vertex 0
    ((3, 3, 2, 2, True), (30, 78)),
    ((3, 4, 3, 2, True), (2592, 8888)),
    # the face test: q^(i-1), 9 and 8, does not divide |C| = 12: no node
    ((3, 3, 4, 3, False), (0, 0)),
    ((5, 2, 3, 4, False), (0, 0)),
    # the pinned items of the search benchmark: hyperfaces at H(3,4), and
    # the gamma = beta form solved by mirroring
    ((3, 4, 3, 2, False), (6912, 25892)),
    ((3, 4, 4, 2, False), (12582, 53544)),
]


def _case_id(case):
    n, q, gamma, index, fix_zero = case
    return (f"H({n},{q})" + (f"-gamma{gamma}" if gamma else "")
            + (f"-index{index}" if index else "") + ("-fix" if fix_zero else ""))


@pytest.mark.parametrize("case,expected", PINNED_NODES,
                         ids=[_case_id(c) for c, _ in PINNED_NODES])
def test_pinned_codes_and_nodes(case, expected):
    n, q, gamma, index, fix_zero = case
    if expected is None:
        with pytest.raises(ValueError):
            SearchConstraints(n, q, gamma=gamma, eigenvalue_index=index,
                              fix_first_codeword=fix_zero)
        return
    s = enumerate_crcs(SearchConstraints(n, q, gamma=gamma, eigenvalue_index=index,
                                         fix_first_codeword=fix_zero), workers=1)
    assert (s.codes_found, s.nodes) == expected


BENCHMARK_ROWS = PINNED_NODES[-2:]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case,expected", BENCHMARK_ROWS,
                         ids=[_case_id(c) for c, _ in BENCHMARK_ROWS])
def test_benchmark_rows_independent_of_worker_count(case, expected, workers):
    # H(3,4) at (3, 2) has four tasks, so 3 workers deal them unevenly; at
    # (4, 2) the search is mirrored and has two
    n, q, gamma, index, _ = case
    s = enumerate_crcs(SearchConstraints(n, q, gamma=gamma, eigenvalue_index=index),
                       workers=workers, count_only=True)
    assert (s.codes_found, s.nodes) == expected
    assert s.parameter_sets == frozenset({(gamma, q * index - gamma, index)})


_SOLVE = search._solve_subtree


def _fail_at(prefix, args):
    """_solve_subtree, except that the task with this prefix raises."""
    if args[-1] == prefix:
        raise ValueError(f"task {prefix} failed")
    return _SOLVE(args)


def _exit_at_once(*args):
    """_solve_share, except that the worker dies before it claims a task."""
    os._exit(3)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("task", range(4))
def test_a_failing_task_raises_and_leaves_no_process(task, workers, monkeypatch):
    # H(3,3) at (2, 2) is not mirrored: the caller and the workers claim its
    # four tasks, so a task may fail in the caller or in a worker (forked
    # workers inherit the patch); either way the search raises
    c = SearchConstraints(3, 3, gamma=2, eigenvalue_index=2)
    prefix = search._tasks(c)[task]
    monkeypatch.setattr(search, "_solve_subtree", functools.partial(_fail_at, prefix))
    with pytest.raises(ValueError, match=r"^task .* failed$"):
        enumerate_crcs(c, workers=workers)
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_is_an_error(monkeypatch):
    # the worker exits without sending, whichever tasks the caller claims
    c = SearchConstraints(3, 3, gamma=2, eigenvalue_index=2)
    monkeypatch.setattr(search, "_solve_share", _exit_at_once)
    with pytest.raises(RuntimeError, match="^a search worker exited with code 3 "):
        enumerate_crcs(c, workers=2)
    assert multiprocessing.active_children() == []


def _count_solve(counter, args):
    """_solve_subtree, counting its calls in a counter the processes share."""
    with counter.get_lock():
        counter.value += 1
    return _SOLVE(args)


@pytest.mark.parametrize("c", [SearchConstraints(3, 3, gamma=2, eigenvalue_index=2),
                               SearchConstraints(3, 2)], ids=["3-3-gamma2-index2", "3-2"])
def test_claimed_outputs_come_back_in_task_order(c, monkeypatch):
    # H(3,3) at (2, 2) has four tasks and H(3,2) two mirrored ones: at 5
    # processes some worker claims nothing and must still be joined, and
    # every task is solved exactly once, whichever process claims it
    mirrored = search._complement_symmetric(c)
    tasks = search._tasks(c)[:2] if mirrored else search._tasks(c)
    args = [(c.n, c.q, c.gamma, c.eigenvalue_index, False, p) for p in tasks]
    solve = functools.partial(search._solve_task, mirrored)
    runs = {}
    for workers in (1, 2, 3, 5):
        calls = multiprocessing.Value("i", 0)
        monkeypatch.setattr(search, "_solve_subtree", functools.partial(_count_solve, calls))
        solved = search._solve_tasks(solve, args, workers)
        assert calls.value == len(args)
        assert multiprocessing.active_children() == []
        runs[workers] = [[(nodes, rows.tolist(), [a.tolist() for a in cert])
                          for nodes, rows, cert in outs] for outs in solved]
    assert runs[1] == runs[2] == runs[3] == runs[5]
    for a, outs in zip(args, solved):
        nodes, leaves = _SOLVE(a)
        assert len(outs) == (2 if mirrored else 1)
        w = search._field_width(c.space, search._bias(c.space, c.gamma, c.eigenvalue_index))
        own = search._unpack(c.space, leaves, w)
        # each mirror output has its own task's node count and the
        # complements of its leaves, in reverse order
        for (out_nodes, rows, cert), want in zip(outs, (own, ~own[::-1])):
            assert out_nodes == nodes
            unpacked = np.unpackbits(rows, axis=1, count=c.space.size).view(bool)
            assert np.array_equal(unpacked, want) and len(want) > 0
            assert [len(x) for x in cert] == [len(want)] * 3


@pytest.mark.parametrize("n,q,gamma,index", [(3, 6, 5, 3), (3, 9, 4, 3)])
def test_face_test_ends_index3_exclusions_at_the_root(n, q, gamma, index):
    # spaces past VERTEX_LIMIT, reached through the subtree solver: |C| =
    # q^3 * gamma / (3q) is 60 and 108, which q^2 = 36 and 81 do not divide
    assert search._solve_subtree((n, q, gamma, index, False, ())) == (0, [])


def sink_sha256(constraints, workers) -> str:
    """sha256 of the sink's stream: each code's mask bytes, then its
    certificate's (size, gamma, beta, index)."""
    h = hashlib.sha256()

    def sink(code, cert):
        h.update(code.mask.tobytes())
        h.update(repr((cert.size, cert.gamma, cert.beta, cert.eigenvalue_index)).encode())

    enumerate_crcs(constraints, sink=sink, workers=workers)
    return h.hexdigest()


@pytest.mark.parametrize("constraints, digest", [
    (SearchConstraints(2, 4), "5b2c7a6cdb3593356abc311347bb8ac4454cf24ec27a30b4eea9ab58af39982e"),
    (SearchConstraints(3, 3), "9bfad857a5d1a7c958656384a21739d3bbbd1f0b22c8a716c8e57ea9ad7535ae"),
    # gamma = beta: mirrored
    (SearchConstraints(4, 2, gamma=2, eigenvalue_index=2),
     "e4a30a7eaa74711a2c99fc2293cceeafb28f9624ba7dc5654e416cbcbf6f8143"),
    # not mirrored
    (SearchConstraints(3, 3, gamma=2, eigenvalue_index=2),
     "8ddc6654cc2e1d88e3e6a4391c43a2c6d2258afbf3d664bd9813ebddfbceb918"),
    (SearchConstraints(3, 2, fix_first_codeword=True),
     "b19d0f77c47f80ef6110ee2f8f0babb2787e246dfe692e49c07118277ecf353d"),
    # pinned with k - q*i = +1: the bias on non-codewords' cin
    (SearchConstraints(3, 4, gamma=3, eigenvalue_index=2),
     "e6e3db1fe5a5d65f4e74a26115658b224279239e743364e8ecb034ed7a361ea1"),
    # k - q*i = -3: the bias on codewords' cin
    (SearchConstraints(3, 3, gamma=3, eigenvalue_index=3),
     "6e18656b8d746d246a8a2007a50c925f21ea1347dafc90322ddf39dfe6973b0a"),
    # k + d = 20 widens the fields; k + d = 64 fills them exactly
    (SearchConstraints(2, 8, gamma=2, eigenvalue_index=1),
     "b9d15366823c821e356b7524af2ecd3d61c53d4c1fb1651a57f74e586e44e212"),
    (SearchConstraints(1, 64, gamma=2, eigenvalue_index=1),
     "e3da20cea7776ecfd973487f4685d944d01c5bc5371223b95e614dfca3a1af1c"),
], ids=["2-4", "3-3", "4-2-gamma2-index2", "3-3-gamma2-index2", "3-2-fix-zero",
        "3-4-gamma3-index2", "3-3-gamma3-index3", "2-8-gamma2-index1", "1-64-gamma2-index1"])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_sink_stream_is_pinned(constraints, digest, workers):
    # the codes and certificates the sink sees, in order, at any worker count
    assert sink_sha256(constraints, workers) == digest


def test_collected_codes_independent_of_worker_count():
    runs = []
    for w in (1, 2, 3, 4):
        collected = []
        enumerate_crcs(SearchConstraints(2, 3), sink=collect(collected), workers=w)
        runs.append([np.flatnonzero(c.mask).tolist() for c in collected])
    assert runs[0] == runs[1] == runs[2] == runs[3]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n,q,gamma,index,fix_zero", [
    (3, 3, None, None, False), (2, 4, None, None, False), (4, 2, None, None, False),
    (3, 3, None, None, True), (2, 4, 2, 1, False), (4, 2, 2, 2, False)],
    ids=["3-3-False", "2-4-False", "4-2-False", "3-3-True", "2-4-gamma2-index1",
         "4-2-gamma2-index2"])
def test_emission_is_lexicographic_on_indicator(n, q, gamma, index, fix_zero, workers):
    collected = []
    s = enumerate_crcs(SearchConstraints(n, q, gamma=gamma, eigenvalue_index=index,
                                         fix_first_codeword=fix_zero),
                       sink=collect(collected), workers=workers)
    keys = [tuple(c.mask.astype(int)) for c in collected]
    assert len(keys) == s.codes_found > 0
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("workers", [1, 2])
def test_widest_fields_against_pairs_of_k64(workers):
    # In H(1,64) = K_64 a non-codeword sees every codeword, so the proper
    # subsets with gamma = 2 are exactly the 2-subsets.  Valency 63 makes the
    # packed fields 7 bits wide, and vertex 63 sits in the top field.
    collected = []
    s = enumerate_crcs(SearchConstraints(1, 64, gamma=2), sink=collect(collected),
                       workers=workers)
    assert s.parameter_sets == frozenset({(2, 62, 1)})
    pairs = [(a, b) for a in range(64) for b in range(a + 1, 64)]
    assert s.codes_found == len(pairs) == 2016
    assert sorted(tuple(np.flatnonzero(c.mask).tolist()) for c in collected) == pairs


def test_mirrored_search_equals_brute_force_at_gamma_equal_beta():
    sp = Space(3, 2)
    brute_codes, _ = brute_census(sp)
    at_gamma = {c for c in brute_codes if brute_crc1_params(sp, c) == (1, 1)}
    collected = []
    s = enumerate_crcs(SearchConstraints(3, 2, gamma=1, eigenvalue_index=1),
                       sink=collect(collected), workers=1)
    assert s.parameter_sets == frozenset({(1, 1, 1)})
    assert len(collected) == s.codes_found == len(at_gamma) == 6
    assert {frozenset(code_vertices(c)) for c in collected} == at_gamma


def test_mirrored_leaves_are_reverified(monkeypatch):
    # every set holding vertex 0 lies below a decision putting vertex 0 in,
    # which the search leaves to mirroring: rejecting those rows must still
    # stop it
    certify = search.certify_rho1

    def reject_vertex_0(sp, masks):
        gamma, beta, ok = certify(sp, masks)
        return gamma, beta, ok & ~masks[:, 0]

    monkeypatch.setattr(search, "certify_rho1", reject_vertex_0)
    with pytest.raises(RuntimeError, match="^search emitted a non-CRC set: "):
        enumerate_crcs(SearchConstraints(2, 3), workers=1)


@pytest.mark.parametrize("constraints, shift, message", [
    # a pinned gamma: every leaf reports one more than the target
    (SearchConstraints(3, 2, gamma=1), (1, 0), "^search emitted gamma=2, target was 1$"),
    # a pinned index only: gamma + beta + 1 is odd, so no index at q = 2
    (SearchConstraints(3, 2, eigenvalue_index=2), (0, 1),
     "^search emitted eigenvalue index None, target was 2$"),
])
def test_leaves_off_target_raise(constraints, shift, message, monkeypatch):
    certify = search.certify_rho1

    def shifted(sp, masks):
        gamma, beta, ok = certify(sp, masks)
        return gamma + shift[0], beta + shift[1], ok

    monkeypatch.setattr(search, "certify_rho1", shifted)
    with pytest.raises(RuntimeError, match=message):
        enumerate_crcs(constraints, workers=1)


@pytest.mark.parametrize("workers", [1, 2])
def test_sink_sees_nothing_until_every_leaf_is_certified(workers, monkeypatch):
    # only the last code in emission order is rejected, after many batches
    # of 7 have passed: a search that emitted while still certifying would
    # have handed the earlier codes to the sink first
    collected = []
    enumerate_crcs(SearchConstraints(2, 4), sink=collect(collected), workers=1)
    last = collected[-1].mask
    certify = search.certify_rho1

    def reject_last(sp, masks):
        gamma, beta, ok = certify(sp, masks)
        return gamma, beta, ok & ~(masks == last).all(axis=1)

    monkeypatch.setattr(search, "certify_rho1", reject_last)
    monkeypatch.setattr(search, "LEAF_BATCH", 7)
    emitted = []
    with pytest.raises(RuntimeError, match="^search emitted a non-CRC set: "):
        enumerate_crcs(SearchConstraints(2, 4), sink=collect(emitted), workers=workers)
    assert emitted == []


@pytest.mark.parametrize("n,q", [(3, 3), (2, 4), (4, 2)])
def test_emissions_live_on_one_character_weight(n, q):
    # the spectral oracle agrees with the certified eigenvalue index of every
    # code the search reports
    collected = []
    s = enumerate_crcs(SearchConstraints(n, q), sink=collect(collected), workers=1)
    assert len(collected) == s.codes_found > 0
    for code in collected:
        assert spectral_support(code) == {check_crc(code).eigenvalue_index}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n,q", [(3, 3), (2, 4)])
def test_small_leaf_batches_change_nothing(n, q, workers, monkeypatch):
    # 7 leaves a batch puts chunk boundaries inside every task (forked workers
    # inherit the patched constant)
    def run():
        collected = []
        s = enumerate_crcs(SearchConstraints(n, q), sink=collect(collected), workers=workers)
        return s, [tuple(c.mask.astype(int)) for c in collected]

    default = run()
    monkeypatch.setattr(search, "LEAF_BATCH", 7)
    sizes = []  # rows per certifier call, seen only in this process
    certify = search.certify_rho1
    monkeypatch.setattr(search, "certify_rho1",
                        lambda sp, masks: sizes.append(len(masks)) or certify(sp, masks))
    summary, keys = run()
    assert (summary, keys) == default
    assert len(keys) == summary.codes_found > 7 * 4
    assert all(a < b for a, b in zip(keys, keys[1:]))
    if workers == 1:
        assert max(sizes) == 7 and sum(sizes) == summary.codes_found


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n,q,gamma,index", [
    (3, 3, None, None), (2, 4, None, None), (3, 3, 2, 2), (4, 2, 2, 2)])
def test_small_total_memo_changes_nothing(n, q, gamma, index, workers, monkeypatch):
    # an LRU cache of 3 spread sums evicts inside every task (forked workers
    # inherit the patched constant)
    def run():
        collected = []
        s = enumerate_crcs(SearchConstraints(n, q, gamma=gamma, eigenvalue_index=index),
                           sink=collect(collected), workers=workers)
        codes = [np.flatnonzero(c.mask).tolist() for c in collected]
        return (s.codes_found, s.nodes, s.parameter_sets), codes

    default = run()
    monkeypatch.setattr(search, "TOTAL_MEMO", 3)
    assert run() == default
    assert default[0][0] > 0


def test_repeat_runs_identical():
    a = enumerate_crcs(SearchConstraints(2, 3, gamma=2), workers=2)
    b = enumerate_crcs(SearchConstraints(2, 3, gamma=2), workers=2)
    assert a == b


def test_fix_first_codeword_halves_enumeration():
    full = enumerate_crcs(SearchConstraints(3, 2), workers=1)
    fixed = enumerate_crcs(SearchConstraints(3, 2, fix_first_codeword=True), workers=1)
    # complements pair up the codes; exactly one of each pair contains vertex 0
    assert fixed.codes_found * 2 == full.codes_found
    assert fixed.parameter_sets == full.parameter_sets
    assert fixed.nodes < full.nodes

    collected = []
    enumerate_crcs(SearchConstraints(3, 2, fix_first_codeword=True),
                   sink=collect(collected), workers=1)
    assert all(c.grid[0, 0, 0] for c in collected)


@pytest.mark.parametrize("workers", [1, 2])
def test_fix_first_codeword_drops_tasks_that_die_in_their_prefix(workers):
    # with vertex 0 fixed in C, deciding vertex 1 kills some tasks, whose
    # later prefix vertices are then skipped
    runs = {(1, 3, 1, None): (6, [[(0,)]], {(1, 2, 1)}),
            (2, 3, 2, 2): (8, [[(0, 0), (1, 2), (2, 1)], [(0, 0), (1, 1), (2, 2)]], {(2, 4, 2)})}
    for (n, q, gamma, index), (nodes, codes, params) in runs.items():
        collected = []
        s = enumerate_crcs(SearchConstraints(n, q, gamma, index, fix_first_codeword=True),
                           sink=collect(collected), workers=workers)
        assert (s.codes_found, s.nodes, s.parameter_sets) == (len(codes), nodes, params)
        assert [code_vertices(c) for c in collected] == codes


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n,q", [(2, 4), (3, 3), (4, 2), (2, 5)])
def test_targeted_searches_are_slices_of_the_open_search(n, q, workers):
    # a search with gamma and i fixed emits exactly the open search's codes
    # with that certificate, in the same order
    opened = []
    enumerate_crcs(SearchConstraints(n, q), sink=collect(opened), workers=workers)
    by_cert = {}
    for code in opened:
        cert = check_crc(code)
        key = (cert.gamma, cert.beta, cert.eigenvalue_index)
        by_cert.setdefault(key, []).append(code.mask.tobytes())
    sliced = 0
    for index in range(1, n + 1):
        for gamma in range(1, q * index // 2 + 1):
            if q * index - gamma > n * (q - 1):
                # beta above the valency: no such code, so no search
                with pytest.raises(ValueError):
                    SearchConstraints(n, q, gamma=gamma, eigenvalue_index=index)
                continue
            targeted = []
            enumerate_crcs(SearchConstraints(n, q, gamma=gamma, eigenvalue_index=index),
                           sink=collect(targeted), workers=workers)
            expected = by_cert.get((gamma, q * index - gamma, index), [])
            assert [c.mask.tobytes() for c in targeted] == expected, (gamma, index)
            sliced += len(targeted)
    assert sliced == sum(len(v) for (g, b, _), v in by_cert.items() if g <= b) > 0


def test_targeted_search_perfect_pairs():
    collected = []
    summary = enumerate_crcs(SearchConstraints(3, 2, gamma=1, eigenvalue_index=2),
                             sink=collect(collected), workers=1)
    assert summary.codes_found == 4
    assert summary.parameter_sets == frozenset({(1, 3, 2)})
    # the four antipodal pairs of the cube
    sp = Space(3, 2)
    pairs = {frozenset({v, tuple(1 - x for x in v)}) for v in vertices(sp)}
    assert {frozenset(code_vertices(c)) for c in collected} == pairs


def test_targeted_search_hyperfaces():
    collected = []
    summary = enumerate_crcs(SearchConstraints(3, 3, gamma=1, eigenvalue_index=1),
                             sink=collect(collected), workers=2)
    assert summary.codes_found == 9
    assert summary.parameter_sets == frozenset({(1, 2, 1)})
    sp = Space(3, 3)
    faces = {frozenset(hyperface_vertices(sp, Hyperface(j, s)))
             for j in (1, 2, 3) for s in range(3)}
    assert {frozenset(code_vertices(c)) for c in collected} == faces


# ---------------------------------------------- counts against independent oracles

def labelled_count(n, q, gamma, index):
    return enumerate_crcs(SearchConstraints(n, q, gamma=gamma, eigenvalue_index=index),
                          workers=1, count_only=True).codes_found


@pytest.mark.parametrize("n, q", [(1, 5), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 2),
                                  (5, 2), (6, 2)])
def test_index1_counts_are_cylinders(n, q):
    # an index-1 code is {x : x_j in S} for one position j and gamma = |S| symbols
    for gamma in range(1, q // 2 + 1):
        assert labelled_count(n, q, gamma, 1) == n * math.comb(q, gamma)


@pytest.mark.parametrize("q, r, published", [(4, 1, 24), (4, 2, 90), (5, 1, 120),
                                             (5, 2, 2040), (6, 1, 720)])
def test_h2q_index2_counts_are_line_regular_matrices(q, r, published):
    # an index-2 code of H(2,q) at gamma = 2r has r codewords on every line
    assert labelled_count(2, q, 2 * r, 2) == count_line_regular_matrices(q, r) == published


def test_line_regular_matrix_oracle_matches_published_values():
    # OEIS A001499 and A001501 at q = 6; the search takes seconds to count
    # H(2,6) at gamma 4 and 6, so only the oracle is pinned there
    assert [count_line_regular_matrices(6, r) for r in range(7)] == [
        1, 720, 67950, 297200, 67950, 720, 1]


@pytest.mark.parametrize("q, published", [(3, 12), (4, 576)])
def test_h3q_index3_gamma3_counts_are_latin_squares(q, published):
    # one codeword on every line of H(3,q): x_3 = L(x_1, x_2) for a Latin square L
    assert labelled_count(3, q, 3, 3) == count_latin_squares(q) == published


def test_search_verifies_every_emission(monkeypatch):
    # the sink's certificate is check_crc's, for every code.  Batches of 7
    # put certificates across batch boundaries, and the open searches
    # certify mirrored leaves (forked workers inherit the patched constant)
    monkeypatch.setattr(search, "LEAF_BATCH", 7)
    for n, q, gamma, index, found in [(2, 4, None, None, 166), (4, 2, None, None, 86),
                                      (3, 3, None, None, 222), (3, 3, 2, 2, 90)]:
        for workers in (1, 2):
            pairs = []
            s = enumerate_crcs(SearchConstraints(n, q, gamma=gamma, eigenvalue_index=index),
                               sink=lambda code, cert: pairs.append((code, cert)),
                               workers=workers)
            assert len(pairs) == s.codes_found == found
            for code, cert in pairs:
                assert isinstance(cert, CrcCertificate) and cert == check_crc(code)
                # Python ints, as json.dumps needs them
                assert {type(v) for v in (cert.size, *cert.betas, *cert.gammas)} == {int}


def test_count_only_skips_collection():
    calls = []
    summary = enumerate_crcs(SearchConstraints(3, 2), sink=collect(calls),
                             workers=1, count_only=True)
    assert summary.codes_found == 22
    assert calls == []


def test_infeasible_size_prunes_to_nothing():
    # |C| = q^n * gamma/(q*i) = 27/6 is not an integer: zero nodes explored
    s = enumerate_crcs(SearchConstraints(3, 3, gamma=1, eigenvalue_index=2), workers=1)
    assert s.codes_found == 0
    assert s.nodes == 0


def test_constraint_validation():
    with pytest.raises(ValueError):
        SearchConstraints(3, 5)  # 125 vertices exceed the enumeration limit
    with pytest.raises(ValueError):
        SearchConstraints(3, 2, gamma=0)
    with pytest.raises(ValueError):
        SearchConstraints(3, 2, gamma=4)  # valency is 3
    with pytest.raises(ValueError):
        SearchConstraints(3, 2, eigenvalue_index=4)
    with pytest.raises(ValueError):
        SearchConstraints(3, 2, gamma=3, eigenvalue_index=2)  # gamma > beta


def test_resolve_workers(monkeypatch, capsys):
    monkeypatch.delenv("CRC_FORGE_THREADS", raising=False)
    assert resolve_workers(3) == 3
    for bad in (0, -5):
        with pytest.raises(ValueError, match=f"workers={bad} is not a positive integer"):
            resolve_workers(bad)
    assert 1 <= resolve_workers(None) <= 4
    monkeypatch.setenv("CRC_FORGE_THREADS", "2")
    assert resolve_workers(None) == 2
    assert resolve_workers(5) == 5  # explicit argument wins
    assert capsys.readouterr().err == ""
    for junk in ("junk", "0", "-3", "1.5"):
        monkeypatch.setenv("CRC_FORGE_THREADS", junk)
        with pytest.raises(ValueError, match=f"CRC_FORGE_THREADS={junk!r}"):
            resolve_workers(None)
        assert resolve_workers(2) == 2  # an explicit argument never reads it
    assert capsys.readouterr().err == ""
    # the default counts the CPUs this process may run on, not the host's
    monkeypatch.delenv("CRC_FORGE_THREADS")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert resolve_workers() == 1


def test_resolve_workers_without_sched_getaffinity(monkeypatch):
    # off Linux the default falls back to os.cpu_count(), which may be None
    monkeypatch.delenv("CRC_FORGE_THREADS", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cpus, expected in ((8, 4), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert resolve_workers() == expected


def test_gamma_only_constraint():
    sp = Space(2, 3)
    brute = [ws for ws in all_vertex_subsets(sp)
             if (brute_crc1_params(sp, ws) or (None,))[0] == 2]
    summary = enumerate_crcs(SearchConstraints(2, 3, gamma=2), workers=1)
    assert summary.codes_found == len(brute)
    assert all(p[0] == 2 for p in summary.parameter_sets)


def test_leaf_reverification_survives_python_O():
    # a leaf that fails re-verification must still raise with asserts stripped
    proc = run_optimized("""
        import numpy as np
        from crcforge import search
        from crcforge.search import SearchConstraints, enumerate_crcs
        from crcforge.verifier import CrcFailure

        zeros = lambda masks: np.zeros(len(masks), dtype=int)
        search.certify_rho1 = lambda sp, masks: (zeros(masks), zeros(masks),
                                                 zeros(masks).astype(bool))
        search.check_crc = lambda code: CrcFailure((0, 0), 0, 1, 2, 1)
        try:
            enumerate_crcs(SearchConstraints(2, 2), workers=1)
        except RuntimeError as e:
            print(e)
        else:
            raise SystemExit("non-CRC leaf was accepted")
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("search emitted a non-CRC set: CrcFailure(")
