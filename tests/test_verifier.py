"""Distance partitions, regularity certificates, profiles, reduce/extend."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crcforge import verifier
from crcforge.constructions import build_c, build_feasible, build_index1
from crcforge.hamming import Code, Space
from crcforge.parameters import feasible_table
from crcforge.verifier import (CrcCertificate, CrcFailure, check_crc,
                               clique_profile, distance_partition, essential_positions,
                               extend_code, hyperface_profile, neighbor_counts,
                               reduce_code)

from helpers import (SMALL_SPACES, all_cliques, brute_count_in, brute_crc1_params,
                     brute_layer_sizes, code_of, code_vertices, h3q_table_entries,
                     reference_certify_rho1, reference_check_crc, reference_neighbor_counts,
                     reference_one_pass_check, spectral_support, vertices)


def test_neighbor_counts_matches_brute_force():
    sp = Space(3, 3)
    rng = np.random.default_rng(7)
    for _ in range(5):
        mask = rng.random(sp.size) < 0.4
        members = {sp.vertex(int(i)) for i in np.flatnonzero(mask)}
        counts = neighbor_counts(sp, mask)
        for i, v in enumerate(vertices(sp)):
            assert counts[i] == brute_count_in(sp, members, v)


def test_distance_partition_single_vertex():
    sp = Space(3, 3)
    layers = distance_partition(code_of(sp, [(0, 0, 0)]))
    sizes = [int(layer.sum()) for layer in layers]
    assert sizes == [1, 6, 12, 8]
    assert sizes == brute_layer_sizes(sp, [(0, 0, 0)])


def test_distance_partition_layers_match_brute_force():
    sp = Space(2, 4)
    words = [(0, 0), (1, 2), (3, 3)]
    layers = distance_partition(code_of(sp, words))
    sizes = [int(layer.sum()) for layer in layers]
    assert sizes == brute_layer_sizes(sp, words)
    assert sum(sizes) == sp.size


def test_distance_partition_rejects_empty():
    sp = Space(2, 2)
    with pytest.raises(ValueError):
        distance_partition(Code(sp, np.zeros(sp.size, dtype=bool)))


def test_check_crc_binary_repetition():
    sp = Space(3, 2)
    cert = check_crc(code_of(sp, [(0, 0, 0), (1, 1, 1)]))
    assert isinstance(cert, CrcCertificate)
    assert cert.rho == 1
    assert (cert.gamma, cert.beta) == (1, 3)
    assert cert.code_eigenvalues == (3, -1)
    assert cert.eigenvalue_index == 2
    assert cert.alpha0 == 0 and cert.alpha1 == 2
    assert cert.alphas == (0, 2)
    assert brute_crc1_params(sp, [(0, 0, 0), (1, 1, 1)]) == (1, 3)


def test_check_crc_parity_seed_even_weight():
    # all triples with x2 = x3 (mod 2): gamma = beta = 2 in H(3,2)
    sp = Space(3, 2)
    words = [v for v in vertices(sp) if v[1] % 2 == v[2] % 2]
    cert = check_crc(code_of(sp, words))
    assert isinstance(cert, CrcCertificate)
    assert (cert.gamma, cert.beta) == (2, 2)
    assert cert.eigenvalue_index == 2


def test_check_crc_failure_is_first_in_vertex_order():
    # frozen failure oracle: the even-weight code of H(3,3) is not a 1-CRC;
    # the first offending vertex is 002, short one neighbor toward the code
    sp = Space(3, 3)
    words = [(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 0, 1)]
    res = check_crc(code_of(sp, words))
    assert isinstance(res, CrcFailure)
    assert res.witness_vertex == (0, 0, 2)
    assert res.class_index == 1
    assert res.target_class == 0
    assert res.observed_count == 1
    assert res.expected_count == 3


def test_check_crc_rejects_trivial_codes():
    sp = Space(2, 2)
    with pytest.raises(ValueError):
        check_crc(Code(sp, np.zeros(sp.size, dtype=bool)))
    with pytest.raises(ValueError):
        check_crc(Code(sp, np.ones(sp.size, dtype=bool)))


def test_check_crc_agrees_with_definition_exhaustively():
    # every proper nonempty subset of H(2,2): certificate iff brute force says so
    from helpers import all_vertex_subsets

    sp = Space(2, 2)
    for words in all_vertex_subsets(sp):
        res = check_crc(code_of(sp, words))
        brute = brute_crc1_params(sp, words)
        if isinstance(res, CrcCertificate) and res.rho == 1:
            assert brute == (res.gamma, res.beta)
        else:
            assert brute is None


def test_certificate_size_identity():
    # |C| * (gamma + beta) == gamma * q^n for every rho=1 certificate
    sp = Space(3, 2)
    cert = check_crc(code_of(sp, [(0, 0, 0), (1, 1, 1)]))
    assert cert.size * (cert.gamma + cert.beta) == cert.gamma * sp.size


def test_complement_swaps_parameters():
    sp = Space(3, 2)
    c = code_of(sp, [(0, 0, 0), (1, 1, 1)])
    cert = check_crc(c)
    cocert = check_crc(c.complement())
    assert (cocert.gamma, cocert.beta) == (cert.beta, cert.gamma)
    assert cocert.eigenvalue_index == cert.eigenvalue_index


def test_hyperface_profile():
    sp = Space(3, 2)
    c = code_of(sp, [(0, 0, 0), (1, 1, 1)])
    prof = hyperface_profile(c)
    assert prof.shape == (3, 2) and prof.dtype == np.int64
    assert (prof == 1).all()
    skew = code_of(sp, [(0, 0, 0), (0, 1, 1)])
    sprof = hyperface_profile(skew)
    assert sprof.tolist() == [[2, 0], [1, 1], [1, 1]]


def test_hyperface_profile_matches_direct_count():
    sp = Space(3, 4)
    rng = np.random.default_rng(3)
    c = Code(sp, rng.random(sp.size) < 0.3)
    prof = hyperface_profile(c)
    members = set(code_vertices(c))
    for j in range(1, 4):
        for s in range(4):
            direct = sum(1 for v in members if v[j - 1] == s)
            assert prof[j - 1, s] == direct


def test_clique_profile_matches_direct_count():
    from helpers import clique_vertices

    sp = Space(3, 3)
    rng = np.random.default_rng(11)
    c = Code(sp, rng.random(sp.size) < 0.5)
    prof = clique_profile(c)
    assert prof.shape == (3, 3, 3) and prof.dtype == np.int64
    members = set(code_vertices(c))
    for cl in all_cliques(sp):
        direct = sum(1 for v in clique_vertices(sp, cl) if v in members)
        assert prof[cl.codirection - 1][cl.fixed] == direct


def test_clique_profile_constant_for_index1():
    # membership decided by one position: every clique meets C in the same count
    sp = Space(3, 4)
    words = [v for v in vertices(sp) if v[0] < 2]
    prof = clique_profile(code_of(sp, words))
    assert (prof[0] == 2).all()  # codirection 1 cliques hold 2, others 0 or 4
    assert sorted(np.unique(prof[1:]).tolist()) == [0, 4]

    words = [v for v in vertices(sp) if (v[0] + v[1] + v[2]) % 4 < 2]
    prof = clique_profile(code_of(sp, words))
    assert (prof == 2).all()
    # the one clique of H(1,q) is the whole space
    prof = clique_profile(code_of(Space(1, 6), [(0,), (1,)]))
    assert prof.shape == (1,) and prof.tolist() == [2]


def test_profiles_and_layers_are_read_only():
    code = code_of(Space(3, 3), [(0, 0, 0), (1, 2, 0)])
    for arr in (hyperface_profile(code), clique_profile(code), *distance_partition(code)):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1


def test_essential_positions_and_reduce():
    sp = Space(3, 2)
    # membership depends only on positions 2 and 3
    words = [v for v in vertices(sp) if v[1] == v[2]]
    c = code_of(sp, words)
    assert essential_positions(c) == (2, 3)
    red = reduce_code(c)
    assert red.space == Space(2, 2)
    assert code_vertices(red) == [(0, 0), (1, 1)]


def test_reduce_rejects_fully_degenerate():
    sp = Space(2, 3)
    c = code_of(sp, [(0, 0), (0, 1), (0, 2)])  # the hyperface x1 = 0
    assert essential_positions(c) == (1,)
    red = reduce_code(c)
    assert red.space == Space(1, 3)
    full = Code(Space(2, 2), np.ones(4, dtype=bool))
    with pytest.raises(ValueError):
        reduce_code(full)


def test_extend_then_reduce_roundtrip():
    sp = Space(2, 3)
    c = code_of(sp, [(0, 0), (1, 1), (2, 2)])
    for pos in (1, 2, 3):
        ext = extend_code(c, pos)
        assert ext.space == Space(3, 3)
        assert ext.size == c.size * 3
        assert essential_positions(ext) == tuple(
            j for j in range(1, 4) if j != pos
        )
        assert reduce_code(ext) == c
    with pytest.raises(ValueError):
        extend_code(c, 4)
    with pytest.raises(ValueError):
        extend_code(c, 0)


def test_extend_preserves_crc_parameters():
    sp = Space(3, 2)
    c = code_of(sp, [(0, 0, 0), (1, 1, 1)])
    cert = check_crc(c)
    ext_cert = check_crc(extend_code(c, 2))
    assert isinstance(ext_cert, CrcCertificate)
    assert (ext_cert.gamma, ext_cert.beta) == (cert.gamma, cert.beta)
    # the free position raises the valency but not gamma + beta
    assert ext_cert.eigenvalue_index == cert.eigenvalue_index


def test_eigenvalue_index_none_when_not_integral():
    cert = CrcCertificate(n=3, q=3, rho=1, size=9, betas=(4,), gammas=(1,))
    assert cert.eigenvalue_index is None
    with pytest.raises(ValueError):
        CrcCertificate(3, 3, 2, 9, (4, 1), (1, 4)).gamma
    # covering radius 2: no eigenvalue index, and no error
    rho2 = check_crc(code_of(Space(5, 2), [(0,) * 5, (1,) * 5]))
    assert (rho2.rho, rho2.eigenvalue_index) == (2, None)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(2, 3), st.integers(1, 10), st.data())
def test_neighbor_counts_random(n, q, nwords, data):
    sp = Space(n, q)
    idx = data.draw(st.sets(st.integers(0, sp.size - 1), min_size=1, max_size=nwords))
    mask = np.zeros(sp.size, dtype=bool)
    mask[list(idx)] = True
    members = {sp.vertex(i) for i in idx}
    counts = neighbor_counts(sp, mask)
    probe = data.draw(st.integers(0, sp.size - 1))
    assert counts[probe] == brute_count_in(sp, members, sp.vertex(probe))


@pytest.mark.parametrize("q", [65535, 65536])
def test_neighbor_counts_dtype_boundary(q):
    # H(1,q) is the complete graph K_q: a vertex sees every member but itself.
    # n*q = 65535 is the largest space counted in uint16; full and near-full
    # sets drive the line sums to their maximum q on either side of the switch.
    sp = Space(1, q)
    assert neighbor_counts(sp, np.zeros(q, dtype=bool)).dtype == (
        np.uint16 if q < 2**16 else np.int64)
    for missing in ((), (0,), (q - 1,)):
        mask = np.ones(q, dtype=bool)
        mask[list(missing)] = False
        members = int(mask.sum())
        counts = neighbor_counts(sp, mask)
        assert counts.shape == (q,)
        assert (counts[mask] == members - 1).all()
        assert (counts[~mask] == members).all()


def test_neighbor_counts_peaks_at_its_result():
    # the counts of a single vertex in H(3,128) take 4 MiB in uint16; one more
    # array of that size alive beside them brings the peak to 8 MiB
    sp = Space(3, 128)
    mask = np.zeros(sp.size, dtype=bool)
    mask[0] = True
    tracemalloc.start()
    try:
        counts = neighbor_counts(sp, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (counts.dtype, int(counts[0]), int(counts.sum())) == (np.uint16, 0, 3 * 127)
    assert peak < 6 << 20, peak


CERTIFY_SPACES = [(3, 4), (2, 3), (3, 2), (2, 5), (1, 4), (4, 3)]


def crc_pool(sp):
    """Rho = 1 codes of sp with their complements: unions of parallel
    hyperfaces and, in H(3,q), every feasible build."""
    coords = np.indices(sp.shape).reshape(sp.n, sp.size)
    pool = [coords[j] < m for j in range(sp.n) for m in range(1, sp.q)]
    if sp.n == 3:
        pool += [build_feasible(q, gamma, index)[0].mask
                 for q, gamma, index in h3q_table_entries(sp.q) if q == sp.q]
    return pool + [~m for m in pool]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CERTIFY_SPACES), st.data())
def test_certify_rho1_agrees_with_check_crc_row_by_row(nq, data):
    sp = Space(*nq)
    pool = crc_pool(sp)
    member = st.integers(0, len(pool) - 1).map(lambda i: pool[i])

    def flipped(args):
        i, v = args
        mask = pool[i].copy()
        mask[v] = ~mask[v]
        return mask

    row = st.one_of(
        member,
        st.tuples(st.integers(0, len(pool) - 1), st.integers(0, sp.size - 1)).map(flipped),
        st.tuples(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95)).map(
            lambda a: np.random.default_rng(a[0]).random(sp.size) < a[1]),
        st.sampled_from([np.zeros(sp.size, bool), np.ones(sp.size, bool)]))
    masks = np.array(data.draw(st.lists(row, min_size=1, max_size=12)))
    gamma, beta, ok = verifier.certify_rho1(sp, masks)
    assert gamma.shape == beta.shape == ok.shape == (len(masks),)
    for j, mask in enumerate(masks):
        if not mask.any() or mask.all():
            assert not ok[j]
            continue
        cert = check_crc(Code(sp, mask))
        if ok[j]:
            assert isinstance(cert, CrcCertificate) and cert.rho == 1
            g, b = int(gamma[j]), int(beta[j])
            assert (g, b, verifier.rho1_eigenvalue_index(sp.n, sp.q, g, b)) == (
                cert.gamma, cert.beta, cert.eigenvalue_index)
        else:
            assert isinstance(cert, CrcFailure) or cert.rho != 1
        # the spectral oracle: one character weight iff rho = 1 completely regular
        is_rho1 = isinstance(cert, CrcCertificate) and cert.rho == 1
        assert (len(spectral_support(Code(sp, mask))) == 1) == is_rho1


@pytest.mark.parametrize("nq", CERTIFY_SPACES)
def test_certify_rho1_certifies_every_pool_code(nq):
    # the pool the property test draws from is all rho = 1, stacked or one row at a time
    sp = Space(*nq)
    pool = np.array(crc_pool(sp))
    gamma, beta, ok = verifier.certify_rho1(sp, pool)
    assert ok.all()
    for j, mask in enumerate(pool):
        cert = check_crc(Code(sp, mask))
        assert (int(gamma[j]), int(beta[j])) == (cert.gamma, cert.beta)
        one = verifier.certify_rho1(sp, mask[None])
        assert [int(a[0]) for a in one] == [gamma[j], beta[j], 1]
    if sp.size == 64:
        assert pool[:, 63].any()  # the top bit of a 64-vertex search mask
    edge = np.array([np.zeros(sp.size, bool), np.ones(sp.size, bool), pool[0]])
    assert verifier.certify_rho1(sp, edge)[2].tolist() == [False, False, True]


@pytest.mark.parametrize("nq", CERTIFY_SPACES)
def test_certify_rho1_on_an_empty_stack(nq):
    sp = Space(*nq)
    assert [a.shape for a in verifier.certify_rho1(sp, np.zeros((0, sp.size), bool))] == [(0,)] * 3


def assert_same_check(code, reference=reference_check_crc):
    """check_crc equals a reference verifier, by default the three-pass one,
    field by field, types included."""
    got, want = check_crc(code), reference(code)
    assert type(got) is type(want), (got, want)
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a == b and type(a) is type(b), (f.name, got, want)
    return got


@settings(max_examples=300, deadline=None)
@given(SMALL_SPACES, st.integers(0, 2**32 - 1), st.floats(0.02, 0.98))
def test_check_crc_matches_reference_on_random_codes(nq, seed, density):
    sp = Space(*nq)
    mask = np.random.default_rng(seed).random(sp.size) < density
    mask[0], mask[-1] = True, False   # proper and nonempty
    assert_same_check(Code(sp, mask))


def test_check_crc_matches_reference_on_feasible_codes_and_flips():
    # every build_feasible code of H(3,q<=8), and its one-vertex flips at 16
    # evenly spread vertices (all of them for q <= 2)
    codes = [build_feasible(q, gamma, index)[0] for q, gamma, index in h3q_table_entries(8)]
    kinds = set()
    for code in codes:
        cert = assert_same_check(code)
        assert isinstance(cert, CrcCertificate) and cert.rho == 1
        size = code.space.size
        for v in np.unique(np.linspace(0, size - 1, 16).astype(int)):
            mask = code.mask.copy()
            mask[v] = not mask[v]
            if mask.any() and not mask.all():
                res = assert_same_check(Code(code.space, mask))
                kinds.add((type(res).__name__, getattr(res, "class_index", None)))
    # failures at codewords and at non-codewords, plus the H(3,2) singleton (rho 3)
    assert {("CrcFailure", 0), ("CrcFailure", 1), ("CrcCertificate", None)} <= kinds


def test_check_crc_reads_both_reference_vertices():
    # check_crc reads the totals of vertex 0 and of the first vertex of the
    # other side: here that vertex lies in the second slab (the complement of
    # an index-1 cylinder) or on a later line, in spaces of one and two
    # positions too, and vertex 0 is a codeword in some sets and not in others
    comp = build_index1(48, 30).complement()
    assert comp.mask.argmax() >= verifier.SLAB // 48**2 * 48**2
    codes = [comp, flipped(comp, 12345)]
    for n, q in [(1, 2), (1, 5), (1, 300), (2, 2), (2, 4), (2, 40)]:
        sp = Space(n, q)
        last = sp.size - 1
        for members in ([0], [last], [1, last], range(q), range(q, sp.size), range(0, sp.size, 3)):
            mask = np.zeros(sp.size, dtype=bool)
            mask[list(members)] = True
            if mask.any() and not mask.all():
                codes += [Code(sp, mask), Code(sp, ~mask)]
    assert {bool(c.mask[0]) for c in codes} == {False, True}
    for code in codes:
        assert_same_check(code)


def test_check_crc_wraps_uint16_totals():
    # In H(3,128) totals are uint16 (n*q = 384).  Vertex 0 is a codeword
    # with no neighbor in C, total 3, and the first non-codeword (0, 0, 1)
    # has 255; in the complement vertex 0 has 381 and the first codeword
    # 129.  Either way the first codeword's total is the smaller, and the
    # rule's step wraps
    sp = Space(3, 128)
    code = code_of(sp, [(0, 0, 0)] + [(a, 0, 1) for a in range(1, 128)]
                   + [(0, b, 1) for b in range(1, 128)])
    assert verifier._line_sums(sp, code.mask[None])[0].dtype == np.uint16
    for c, first_in, first_out in ((code, 0, 1), (code.complement(), 1, 0)):
        totals = reference_neighbor_counts(sp, c.mask) + sp.n * c.mask
        assert totals[first_in] < totals[first_out]
        assert_same_check(c)


def test_spectral_support_is_the_eigenvalue_index():
    # every build_feasible code of H(3,q<=12) lives on one character weight,
    # its eigenvalue index; a one-vertex flip that check_crc rejects does not
    rejected = 0
    for q, gamma, index in h3q_table_entries(12):
        code = build_feasible(q, gamma, index)[0]
        assert spectral_support(code) == {check_crc(code).eigenvalue_index} == {index}
        for v in np.unique(np.linspace(0, code.space.size - 1, 8).astype(int)):
            mask = code.mask.copy()
            mask[v] = not mask[v]
            if not mask.any() or mask.all():
                continue
            res = check_crc(Code(code.space, mask))
            if isinstance(res, CrcFailure) or res.rho != 1:
                rejected += 1
                assert len(spectral_support(Code(code.space, mask))) > 1
    assert rejected > 100


def test_check_crc_matches_reference_for_covering_radius_above_one(monkeypatch):
    # the layered path takes one neighbor_counts pass per layer C_1..C_rho;
    # C_0's counts are read off the line sums the rho = 1 step holds
    passes = []
    count = verifier.neighbor_counts
    monkeypatch.setattr(verifier, "neighbor_counts", lambda *a: passes.append(a) or count(*a))
    rep = code_of(Space(5, 2), [(0,) * 5, (1,) * 5])
    cert = assert_same_check(rep)
    assert (cert.rho, cert.betas, cert.gammas, len(passes)) == (2, (5, 4), (1, 2), 2)
    passes.clear()
    single = assert_same_check(code_of(Space(3, 3), [(0, 0, 0)]))
    assert (single.rho, single.betas, single.gammas, len(passes)) == (3, (6, 4, 2), (1, 2, 3), 3)
    passes.clear()
    # a set at covering radius 3 whose first failure points away from it, from layer 1
    res = assert_same_check(code_of(Space(3, 3), [(0, 0, 0), (1, 1, 1)]))
    assert (res.witness_vertex, res.class_index, res.target_class) == ((0, 0, 2), 1, 2)
    assert len(passes) == 3


def test_layered_check_keeps_one_count_array():
    # a single vertex in H(3,128) has rho = 3; over its 2^21 vertices a count
    # array takes 4 MiB in uint16 and a mask 2 MiB.  One count array with the
    # code, the seen set, three layer buffers and one scratch mask come to
    # about 16.4 MiB; one more whole-space mask would pass 18 MiB
    sp = Space(3, 128)
    tracemalloc.start()
    try:
        cert = check_crc(code_of(sp, [(0, 0, 0)]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cert.rho, cert.gammas) == (3, (1, 2, 3))
    assert peak < 18 << 20, peak


# One-vertex flips of build_feasible codes whose check takes the layered path:
# the five in perfbench's seed-0 sweep, whose pinned digest of flip results
# rests on them.  Each has a non-codeword with no neighbor in C, and fails
# with a witness in C_0 or C_1 after two neighbor_counts passes, over C_1
# and C_2.
LAYERED_FLIPS = [
    ((2, 1, 1), 2, CrcFailure((0, 0, 1), 0, 1, 1, 2)),
    ((2, 3, 3), 6, CrcFailure((0, 1, 0), 1, 0, 2, 3)),
    ((3, 1, 1), 7, CrcFailure((0, 0, 1), 0, 1, 3, 2)),
    ((5, 3, 3), 29, CrcFailure((0, 0, 4), 1, 0, 2, 3)),
    ((8, 3, 3), 386, CrcFailure((0, 0, 2), 1, 0, 2, 3)),
]


def test_layered_flips_of_feasible_codes_are_pinned(monkeypatch):
    passes = []
    count = verifier.neighbor_counts
    monkeypatch.setattr(verifier, "neighbor_counts", lambda *a: passes.append(a) or count(*a))
    for args, v, want in LAYERED_FLIPS:
        passes.clear()
        assert assert_same_check(flipped(build_feasible(*args)[0], v)) == want, args
        assert len(passes) == 2, args


# ------------------------------------------ line totals against whole count arrays

def assert_same_as_one_pass(code):
    """check_crc equals the whole-array one-pass oracle field by field, types
    included, and certify_rho1 of the code as a one-row stack agrees."""
    got = assert_same_check(code, reference_one_pass_check)
    assert_same_certify(code.space, code.mask[None])
    return got


def assert_same_certify(space, masks):
    """certify_rho1 equals the oracle on every row's ok, and on the gamma and
    beta of every proper row (they mean nothing on the empty and full set)."""
    gamma, beta, ok = verifier.certify_rho1(space, masks)
    want_gamma, want_beta, want_ok = reference_certify_rho1(space, masks)
    assert ok.tolist() == want_ok.tolist()
    proper = masks.any(axis=1) & ~masks.all(axis=1)
    assert gamma[proper].tolist() == want_gamma[proper].tolist()
    assert beta[proper].tolist() == want_beta[proper].tolist()


def flipped(code, *vertices):
    mask = code.mask.copy()
    mask[list(vertices)] ^= True
    return Code(code.space, mask)


def feasible_codes(q, count):
    """``count`` build_feasible codes of H(3,q), spread over its table."""
    entries = [(gamma, index) for index, row in feasible_table(3, q).items()
               for gamma, _ in row]
    picks = np.unique(np.linspace(0, len(entries) - 1, count).astype(int))
    return [build_feasible(q, *entries[i])[0] for i in picks]


@pytest.mark.parametrize("n, q, dtype", [(3, 85, np.uint8), (2, 128, np.uint16),
                                         (3, 86, np.uint16), (1, 65535, np.uint16),
                                         (1, 65536, np.int64)])
def test_line_sums_take_the_narrowest_width(n, q, dtype):
    # n*q = 255, 256, 258, 65535 and 65536: a vertex's line total is at most n*q
    sp = Space(n, q)
    sums = verifier._line_sums(sp, np.ones((1, sp.size), dtype=bool))
    assert [s.dtype for s in sums] == [dtype] * n
    total = sum(int(s.flat[0]) for s in sums)
    assert total == n * q


def test_check_crc_matches_one_pass_at_the_first_wide_total():
    # H(2,128): n*q = 256, one more than uint8 holds
    sp = Space(2, 128)
    holes = [Code(sp, np.arange(sp.size) != v) for v in (0, 5000)]
    for code in [Code(sp, m) for m in crc_pool(sp)[::16]] + holes:
        assert_same_as_one_pass(code)
        assert_same_as_one_pass(flipped(code, 777))


@pytest.mark.parametrize("q", [85, 86])
def test_check_crc_matches_one_pass_at_both_count_widths(q):
    # H(3,85) totals in uint8 up to exactly 255, H(3,86) in uint16; the
    # complement of a singleton drives codeword totals to n*q
    sp = Space(3, q)
    kinds = set()
    for code in feasible_codes(q, 4):
        for c in (code, code.complement(), flipped(code, 0), flipped(code, sp.size - 1)):
            res = assert_same_as_one_pass(c)
            kinds.add((type(res).__name__, getattr(res, "class_index", None)))
    hole = Code(sp, np.arange(sp.size) != 0)
    res = assert_same_as_one_pass(hole)
    assert isinstance(res, CrcFailure) and res.observed_count == 0   # a codeword of total n*q
    assert {("CrcCertificate", None), ("CrcFailure", 0), ("CrcFailure", 1)} <= kinds


@pytest.mark.parametrize("q", [65535, 65536])
def test_check_crc_matches_one_pass_on_complete_graphs(q):
    # H(1,q) is K_q: every proper subset is a rho = 1 code with gamma = |C|
    sp = Space(1, q)
    for members in ([0], [q - 1], range(q // 2), range(1, q), range(q - 1)):
        code = Code(sp, np.isin(np.arange(sp.size), members))
        cert = assert_same_as_one_pass(code)
        assert (cert.gamma, cert.beta) == (code.size, q - code.size)


def slab_edges(sp):
    """The first and last vertex of every slab, in the current SLAB."""
    per_row = sp.size // sp.q
    rows = max(1, verifier.SLAB // per_row)
    starts = range(0, sp.size, rows * per_row)
    return sorted({v for s in starts for v in (s, min(s + rows * per_row, sp.size) - 1)})


@pytest.mark.parametrize("slab", [None, "row", 1])
def test_check_crc_matches_one_pass_on_slab_edge_flips(monkeypatch, slab):
    # H(3,41) has 68,921 vertices: two slabs of the default size, 41 of one
    # row; a flip at either end of a slab, or of the space, changes the
    # totals on both sides of a slab border
    sp = Space(3, 41)
    if slab is not None:
        monkeypatch.setattr(verifier, "SLAB", sp.size // sp.q if slab == "row" else slab)
    edges = slab_edges(sp)
    assert len(edges) == (4 if slab is None else 2 * sp.q)
    kinds = set()
    for code in feasible_codes(41, 3):
        assert isinstance(assert_same_as_one_pass(code), CrcCertificate)
        for v in edges[::1 if slab is None else 9] + [sp.size - 1]:
            res = assert_same_as_one_pass(flipped(code, v))
            kinds.add((type(res).__name__, getattr(res, "class_index", None)))
        masks = np.array([code.mask] + [flipped(code, v).mask for v in edges[:6]])
        assert_same_certify(sp, masks)
    assert {("CrcFailure", 0), ("CrcFailure", 1)} <= kinds


@pytest.mark.parametrize("slab", [None, "row", 1])
@pytest.mark.parametrize("nq", [(1, 7), (2, 6), (4, 4), (5, 3), (7, 2)])
def test_check_crc_matches_one_pass_beyond_n3(monkeypatch, slab, nq):
    sp = Space(*nq)
    if slab is not None:
        monkeypatch.setattr(verifier, "SLAB", sp.size // sp.q if slab == "row" else slab)
    rng = np.random.default_rng(sp.n * 100 + sp.q)
    pool = crc_pool(sp)
    rows = pool + [np.logical_xor(m, np.arange(sp.size) == v)
                   for m in pool[:4] for v in (0, sp.size - 1, int(rng.integers(sp.size)))]
    rows += [rng.random(sp.size) < d for d in (0.1, 0.5, 0.9)]
    for mask in rows:
        if mask.any() and not mask.all():
            assert_same_as_one_pass(Code(sp, mask))
    assert_same_certify(sp, np.array(rows + [np.zeros(sp.size, bool), np.ones(sp.size, bool)]))


@pytest.mark.parametrize("slab", [None, "row", 1])
def test_check_crc_matches_one_pass_for_covering_radius_above_one(monkeypatch, slab):
    # sparse sets: a vertex with no neighbor in C may sit in the failing
    # vertex's own slab, before or after it, or in a later one
    if slab is not None:
        monkeypatch.setattr(verifier, "SLAB", 16 if slab == "row" else slab)  # one row of H(3,4)
    rng = np.random.default_rng(5)
    codes = [code_of(Space(3, 3), [(0, 0, 0)]), code_of(Space(5, 2), [(0,) * 5, (1,) * 5]),
             code_of(Space(3, 3), [(0, 0, 0), (1, 1, 1)])]
    codes += [Code(Space(3, 4), rng.random(64) < d) for d in (0.05, 0.1, 0.15) for _ in range(20)]
    codes += [Code(Space(4, 4), rng.random(256) < 0.03) for _ in range(6)]
    results = [assert_same_as_one_pass(c) for c in codes if c.size]
    assert {2, 3} <= {getattr(r, "rho", None) for r in results}
    assert any(isinstance(r, CrcFailure) for r in results)


@pytest.mark.parametrize("nq", [(2, 3), (3, 2), (2, 4)])
def test_certify_rho1_matches_one_pass_on_every_subset(nq):
    # every subset as one stack; in H(2,3) and H(2,4) four proper sets each
    # disagree with their sides' totals at their last vertex alone
    sp = Space(*nq)
    masks = (np.arange(2**sp.size)[:, None] >> np.arange(sp.size) & 1).astype(bool)
    assert_same_certify(sp, masks)


def test_spectral_support_at_both_count_widths():
    # one rho = 1 code each side of the uint8/uint16 switch: the Fourier oracle
    # agrees with the line-total certificate
    for q in (85, 86):
        for code in feasible_codes(q, 2):
            cert = check_crc(code)
            assert isinstance(cert, CrcCertificate) and cert.rho == 1
            assert spectral_support(code) == {cert.eigenvalue_index}


def test_check_crc_keeps_no_per_vertex_arrays():
    # the slabs bound the working set; count arrays over H(3,256) would take
    # 32 MiB in uint16, and argmax copies of the read-only mask 16 MiB each
    code = build_c(256, 129)
    for c in (code, flipped(code, 3 * 256 * 256 + 12345)):
        tracemalloc.start()
        try:
            res = check_crc(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, (res, peak)
    assert isinstance(res, CrcFailure)
