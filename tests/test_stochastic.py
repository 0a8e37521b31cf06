"""Doubly-stochastic grid sets and their two-dimensional code view."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crcforge import stochastic
from crcforge.constructions import build_d, construction_d_blocks
from crcforge.parameters import ConditionOneWitness
from crcforge.stochastic import StochasticProfile, build, profile
from crcforge.structure import clique_cover
from crcforge.verifier import CrcCertificate, check_crc

from helpers import brute_crc1_params, code_vertices, grid_exists, run_optimized


def test_profile_detects_stochastic_sets():
    cells = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1]], dtype=bool)
    assert profile(cells) == StochasticProfile(2, 2)
    assert profile(cells).gamma == 4

    lopsided = np.array([[1, 1, 1], [0, 0, 0], [0, 0, 0]], dtype=bool)
    assert profile(lopsided) is None


def test_degrees_from_total():
    # a = q*gamma/(q+q')
    assert build(4, 4, 2).sum() == 4 * 1
    g = build(6, 4, 5)  # a = 3, b = 2
    assert profile(g) == StochasticProfile(3, 2)
    assert g.sum() == 6 * 2  # q*b == qp*a cells


def test_exists_cases():
    assert grid_exists(4, 4, 2)
    assert not grid_exists(4, 4, 3)  # 8 does not divide 12
    assert grid_exists(28, 16, 11)  # a = 7, b = 4
    assert not grid_exists(28, 16, 12)
    assert not grid_exists(5, 3, 9)  # b = 9 - 5*9//8 -> not integral
    assert not grid_exists(2, 2, 0)
    assert grid_exists(2, 2, 2)  # the full grid, a = b = 1


def test_build_error_messages():
    with pytest.raises(ValueError):
        build(4, 4, 3)
    with pytest.raises(ValueError):
        build(4, 4, 0)
    with pytest.raises(ValueError):
        build(3, 3, 7)  # a would exceed q
    # a side below 1 is rejected before the divisibility test divides by q + q'
    with pytest.raises(ValueError, match="must be positive"):
        build(0, 0, 1)
    with pytest.raises(ValueError, match="must be positive"):
        build(3, -3, 1)


def test_build_canonical_layout():
    # column i = rows [i*a, i*a+a) cyclically
    g = build(4, 4, 2)
    expected = np.zeros((4, 4), dtype=bool)
    for i in range(4):
        expected[i % 4, i] = True
    assert np.array_equal(g, expected)


def test_full_grid():
    g = build(3, 3, 6)  # a = b = 3: every cell
    assert g.all()
    assert g.sum() == 9


def test_square_grid_sets_are_two_dimensional_crcs():
    # definition-level check on the product-graph view
    for q, gamma in [(3, 2), (4, 2), (4, 4), (5, 2), (6, 4)]:
        g = build(q, q, gamma)
        code = stochastic.to_code(g)
        sp = code.space
        params = brute_crc1_params(sp, code_vertices(code))
        if g.all():
            assert params is None  # full set is not a proper code
            continue
        # codewords see (a-1)+(b-1) = gamma-2 codeword neighbors, so beta = 2q-gamma
        assert params == (gamma, 2 * q - gamma)
        cert = check_crc(code)
        assert isinstance(cert, CrcCertificate)
        assert (cert.gamma, cert.beta) == (gamma, 2 * q - gamma)
        assert cert.eigenvalue_index == 2


def test_to_code_round_trip():
    g = build(5, 5, 4)
    code = stochastic.to_code(g)
    assert np.array_equal(code.grid, g)
    with pytest.raises(ValueError):
        stochastic.to_code(build(6, 4, 5))


def assert_read_only_cells(cells: np.ndarray, shape: tuple[int, int]) -> None:
    assert isinstance(cells, np.ndarray) and cells.dtype == bool and cells.shape == shape
    with pytest.raises(ValueError):
        cells[0, 0] = not cells[0, 0]


def test_grid_sets_are_read_only_bool_arrays():
    assert_read_only_cells(build(6, 4, 5), (6, 4))
    q, w = 8, ConditionOneWitness(2, 4, 6, 2, 3, 2)
    shapes = ((w.s, w.t), (w.r, q - w.t), (q - w.r, q - w.s))
    for d, shape in zip(construction_d_blocks(q, w), shapes):
        assert_read_only_cells(d, shape)
    res = clique_cover(build_d(q, w))
    assert res.strong
    for d, shape in zip((res.d1, res.d2, res.d3), shapes):
        assert_read_only_cells(d, shape)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 24))
def test_build_always_stochastic_when_degrees_exist(q, qp, gamma):
    if not grid_exists(q, qp, gamma):
        with pytest.raises(ValueError):
            build(q, qp, gamma)
        return
    g = build(q, qp, gamma)
    prof = profile(g)
    assert prof is not None
    assert prof.gamma == gamma
    assert prof.a * qp == prof.b * q
    # column/row counts straight from the matrix
    assert (g.sum(axis=0) == prof.a).all()
    assert (g.sum(axis=1) == prof.b).all()


def test_build_self_check_survives_python_O():
    # a builder result with the wrong profile must still raise with asserts stripped
    proc = run_optimized("""
        from crcforge import stochastic
        from crcforge.stochastic import StochasticProfile

        stochastic.profile = lambda grid: StochasticProfile(0, 0)
        try:
            stochastic.build(4, 4, 4)
        except RuntimeError as e:
            print(e)
        else:
            raise SystemExit("non-stochastic build was accepted")
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("builder produced non-stochastic set: StochasticProfile(")
