"""Builders: certificates, frozen examples, and block-count cross-checks."""

import numpy as np
import pytest

from crcforge.constructions import (build_a, build_b, build_c, build_d, build_feasible,
                                    build_from_spec, build_index1, build_index3,
                                    construction_d_blocks, spec_for)
from crcforge.hamming import Space
from crcforge.parameters import ConditionOneWitness, solve_condition1
from crcforge.stochastic import profile
from crcforge.verifier import (CrcCertificate, check_crc, essential_positions,
                               hyperface_profile, neighbor_counts, reduce_code)

from helpers import brute_crc1_params, code_vertices, h3q_table_entries, reference_build_b


def cert_of(code):
    cert = check_crc(code)
    assert isinstance(cert, CrcCertificate), f"not completely regular: {cert}"
    assert cert.rho == 1
    return cert


def test_build_index1():
    c = build_index1(5, 2)
    cert = cert_of(c)
    assert (cert.gamma, cert.beta) == (2, 3)
    assert cert.eigenvalue_index == 1
    assert c.size == 2 * 25
    assert c.grid[0, 4, 4] and not c.grid[2, 0, 0]
    assert brute_crc1_params(Space(3, 3), code_vertices(build_index1(3, 1))) == (1, 2)


def test_build_index3():
    c = build_index3(4, 1)
    cert = cert_of(c)
    assert (cert.gamma, cert.beta) == (3, 9)
    assert cert.eigenvalue_index == 3
    assert all(sum(v) % 4 == 0 for v in code_vertices(c))
    cert2 = cert_of(build_index3(5, 2))
    assert (cert2.gamma, cert2.beta) == (6, 9)
    assert cert2.eigenvalue_index == 3


def test_build_index3_is_the_union_of_diagonal_classes():
    for q in range(2, 42):
        i = np.arange(q)
        tot = (i[:, None, None] + i[None, :, None] + i) % q
        for m in range(1, q):
            assert np.array_equal(build_index3(q, m).grid, tot < m), (q, m)


def test_build_a():
    c = build_a(5, 4)
    cert = cert_of(c)
    assert (cert.gamma, cert.beta) == (4, 6)
    assert cert.eigenvalue_index == 2
    # position 1 is free; the essential part is the stochastic grid
    assert essential_positions(c) == (2, 3)
    red = reduce_code(c)
    assert red.space == Space(2, 5)
    assert profile(red.grid).gamma == 4


def test_build_b_seeds():
    # the two binary seeds are themselves certified codes in H(3,2)
    s1 = build_b(2, 1)
    assert code_vertices(s1) == [(0, 0, 0), (1, 1, 1)]
    cert1 = cert_of(s1)
    assert (cert1.gamma, cert1.beta) == (1, 3)
    s2 = build_b(2, 2)
    assert code_vertices(s2) == [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
    cert2 = cert_of(s2)
    assert (cert2.gamma, cert2.beta) == (2, 2)


def test_build_b_lifted():
    for q in (4, 6, 8):
        cert = cert_of(build_b(q, 1))
        assert cert.gamma == q // 2
        assert cert.beta == 2 * q - q // 2
        assert cert.eigenvalue_index == 2
        # the second seed lifts to gamma = q (its parity classes are coarser)
        cert2 = cert_of(build_b(q, 2))
        assert cert2.gamma == q
        assert cert2.beta == q
        assert cert2.eigenvalue_index == 2
        # both satisfy the size identity |C|(gamma+beta) = gamma q^3
        for ct, code in ((cert, build_b(q, 1)), (cert2, build_b(q, 2))):
            assert code.size * (ct.gamma + ct.beta) == ct.gamma * q ** 3


def test_build_b_matches_the_gathered_lift():
    for q in range(2, 49, 2):
        for variant in (1, 2):
            assert np.array_equal(build_b(q, variant).mask, reference_build_b(q, variant).mask)


def test_build_c_flagship():
    c = build_c(6, 5)
    assert c.size == 90
    cert = cert_of(c)
    assert (cert.gamma, cert.beta) == (5, 7)
    assert cert.code_eigenvalues == (15, 3)
    prof = hyperface_profile(c)
    assert (prof == 15).all()


def test_build_c_range():
    for q in (4, 6, 8, 10):
        for t in range(q // 2 + 1, q):
            cert = cert_of(build_c(q, t))
            assert (cert.gamma, cert.beta) == (t, 2 * q - t)
            assert cert.eigenvalue_index == 2


def test_build_d_all_witnesses_small_q():
    for q in range(2, 11):
        for w in solve_condition1(q):
            cert = cert_of(build_d(q, w))
            assert cert.gamma == w.gamma
            assert cert.beta == 2 * q - w.gamma
            assert cert.eigenvalue_index == 2


def test_construction_d_blocks_profiles():
    q = 8
    w = ConditionOneWitness(2, 4, 6, 2, 3, 2)
    d1, d2, d3 = construction_d_blocks(q, w)
    assert d1.shape == (w.s, w.t)
    assert d2.shape == (w.r, q - w.t)
    assert d3.shape == (q - w.r, q - w.s)
    p1, p2, p3 = profile(d1), profile(d2), profile(d3)
    assert (p1.a, p1.b) == (w.a, w.b)
    assert (p2.a, p2.b) == (w.a, w.c)
    assert (p3.a, p3.b) == (w.b, w.c)
    with pytest.raises(ValueError):
        construction_d_blocks(8, ConditionOneWitness(2, 4, 6, 2, 3, 3))


def test_block_saturation_examples():
    # q=8: the (2,4,6,2,3,2) witness forces its second block to fill its grid
    _, d2, _ = construction_d_blocks(8, ConditionOneWitness(2, 4, 6, 2, 3, 2))
    assert d2.all() and d2.shape == (2, 2)
    # q=32: the (28,28,16,7,4,4) witness fills the third block instead
    d1, d2, d3 = construction_d_blocks(32, ConditionOneWitness(28, 28, 16, 7, 4, 4))
    assert d3.all() and d3.shape == (4, 4)
    assert not d1.all() and not d2.all()


# Inter-block neighbor counts for construction D.  Blocks are keyed by
# (x1 < r, x2 < s, x3 < t).  ``expected_outward[U][V]`` is the number of
# non-codeword neighbors in block V of any codeword in block U;
# ``expected_inward[U][V]`` counts codeword neighbors of non-codewords.
T, F = True, False


def expected_outward(q, r, s, t, a, b, c):
    return {
        (T, T, T): {(T, T, T): (s - a) + (t - b), (T, F, T): q - s, (T, T, F): q - t - c},
        (F, T, T): {(F, T, T): (s - a) + (t - b), (F, F, T): q - s - c, (F, T, F): q - t},
        (T, T, F): {(T, T, F): (r - a) + (q - t - c), (F, T, F): q - r, (T, T, T): t - b},
        (T, F, F): {(T, F, F): (r - a) + (q - t - c), (F, F, F): q - r - b, (T, F, T): t},
        (F, F, T): {(F, F, T): (q - r - b) + (q - s - c), (T, F, T): r, (F, T, T): s - a},
        (F, F, F): {(F, F, F): (q - r - b) + (q - s - c), (T, F, F): r - a, (F, T, F): s},
    }


def expected_inward(q, r, s, t, a, b, c):
    return {
        (T, T, T): {(T, T, T): a + b, (T, T, F): c},
        (F, T, T): {(F, T, T): a + b, (F, F, T): c},
        (T, T, F): {(T, T, F): a + c, (T, T, T): b},
        (T, F, F): {(T, F, F): a + c, (F, F, F): b},
        (F, F, T): {(F, F, T): b + c, (F, T, T): a},
        (F, F, F): {(F, F, F): b + c, (T, F, F): a},
        (T, F, T): {(T, T, T): a, (F, F, T): b, (T, F, F): c},
        (F, T, F): {(F, T, T): b, (T, T, F): a, (F, F, F): c},
    }


def block_masks(q, r, s, t):
    x = np.arange(q)
    in_r = (x < r)[:, None, None]
    in_s = (x < s)[None, :, None]
    in_t = (x < t)[None, None, :]
    out = {}
    for kr in (T, F):
        for ks in (T, F):
            for kt in (T, F):
                m = (in_r == kr) & (in_s == ks) & (in_t == kt)
                out[(kr, ks, kt)] = np.broadcast_to(m, (q, q, q)).reshape(q ** 3)
    return out


def test_block_count_tables_measured():
    # every witness with q <= 8: measured per-block neighbor counts equal the
    # symbolic tables, constant over each block
    for q in range(2, 9):
        for w in solve_condition1(q):
            code = build_d(q, w)
            sp = code.space
            mask = code.mask
            blocks = block_masks(q, w.r, w.s, w.t)
            table_out = expected_outward(q, *w.as_tuple())
            table_in = expected_inward(q, *w.as_tuple())
            into_cbar = {u: neighbor_counts(sp, (~mask) & um) for u, um in blocks.items()}
            into_c = {u: neighbor_counts(sp, mask & um) for u, um in blocks.items()}
            for vkey, vmask in blocks.items():
                members_out = mask & vmask   # codewords in this block
                members_in = ~mask & vmask   # non-codewords in this block
                # codewords exist in exactly the six covered blocks
                assert members_out.any() == (vkey in table_out)
                for ukey in blocks:
                    if members_out.any():
                        vals = into_cbar[ukey][members_out]
                        want = table_out.get(vkey, {}).get(ukey, 0)
                        assert (vals == want).all(), (q, w.as_tuple(), vkey, ukey)
                    if members_in.any():
                        vals = into_c[ukey][members_in]
                        want = table_in.get(vkey, {}).get(ukey, 0)
                        assert (vals == want).all(), (q, w.as_tuple(), vkey, ukey)


def test_builder_validation():
    with pytest.raises(ValueError):
        build_index1(4, 0)
    with pytest.raises(ValueError):
        build_index1(4, 4)
    with pytest.raises(ValueError):
        build_index3(4, 4)
    with pytest.raises(ValueError):
        build_a(5, 3)  # odd gamma
    with pytest.raises(ValueError):
        build_a(5, 10)
    with pytest.raises(ValueError):
        build_b(5, 1)  # odd alphabet
    with pytest.raises(ValueError):
        build_b(4, 3)
    with pytest.raises(ValueError):
        build_c(5, 3)
    with pytest.raises(ValueError):
        build_c(6, 3)  # t must exceed q/2
    with pytest.raises(ValueError):
        build_c(6, 6)
    with pytest.raises(ValueError):
        build_d(8, ConditionOneWitness(1, 1, 1, 1, 1, 1))


def test_build_from_spec_round_trip():
    q = 8
    w = solve_condition1(q, 7)[0]
    spec = spec_for("d", q, w)
    assert spec == {"kind": "d", "q": 8, "r": 2, "s": 4, "t": 6, "a": 2, "b": 3, "c": 2}
    assert build_from_spec(spec) == build_d(q, w)
    pairs = [
        ({"kind": "index1", "q": 5, "m": 2}, build_index1(5, 2)),
        ({"kind": "index3", "q": 5, "m": 2}, build_index3(5, 2)),
        ({"kind": "a", "q": 6, "gamma": 4}, build_a(6, 4)),
        ({"kind": "b", "q": 6, "variant": 1}, build_b(6, 1)),
        ({"kind": "c", "q": 6, "t": 5}, build_c(6, 5)),
    ]
    for spec, code in pairs:
        assert build_from_spec(spec) == code
    with pytest.raises(ValueError, match="unknown construction kind 'e'"):
        build_from_spec({"kind": "e", "q": 4})


@pytest.mark.parametrize("spec, missing", [
    ({"kind": "a", "gamma": 4}, "q"),
    ({"kind": "c", "q": 6}, "t"),
    ({"kind": "index3"}, "q, m"),
    ({"kind": "d", "q": 8, "r": 2, "s": 4, "a": 2, "b": 3}, "t, c"),
], ids=["a", "c", "index3", "d"])
def test_build_from_spec_names_missing_keys(spec, missing):
    with pytest.raises(ValueError, match=f"^construction {spec['kind']} spec lacks {missing}$"):
        build_from_spec(spec)


def test_build_feasible_dispatch_kinds():
    assert build_feasible(6, 3, 1)[1]["kind"] == "index1"
    assert build_feasible(6, 6, 3)[1]["kind"] == "index3"
    assert build_feasible(6, 4, 2)[1]["kind"] == "a"
    assert build_feasible(6, 3, 2)[1]["kind"] == "b"
    assert build_feasible(6, 5, 2)[1]["kind"] == "c"
    assert build_feasible(12, 5, 2)[1]["kind"] == "d"
    with pytest.raises(ValueError):
        build_feasible(8, 1, 2)  # infeasible


def test_build_feasible_sweep_small_q():
    checked = 0
    for q, gamma, index in h3q_table_entries(10):
        code, spec = build_feasible(q, gamma, index)
        cert = cert_of(code)
        assert cert.gamma == gamma, (q, gamma, index, spec)
        assert cert.eigenvalue_index == index, (q, gamma, index, spec)
        assert build_from_spec(spec) == code
        checked += 1
    assert checked > 50
