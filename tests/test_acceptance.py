"""Acceptance gate: the nine headline guarantees, each with its stated
tolerance and time budget.  Every criterion prints one PASS/FAIL line
(visible under ``pytest -s`` or in captured output)."""

import itertools
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from crcforge.cli import run
from crcforge.codefile import read_code
from crcforge.constructions import (build_a, build_b, build_c, build_d,
                                    build_feasible)
from crcforge.hamming import Code, Space
from crcforge.parameters import (ConditionOneWitness, check_condition1,
                                 feasible_table, solve_condition1)
from crcforge.search import SearchConstraints, enumerate_crcs
from crcforge.stochastic import build as build_grid
from crcforge.stochastic import profile as grid_profile
from crcforge.structure import (CliqueDecomposition, classify_all, clique_cover,
                                extract_construction_d)
from crcforge.verifier import (CrcCertificate, CrcFailure, check_crc,
                               extend_code, hyperface_profile, reduce_code)

from helpers import (all_vertex_subsets, brute_crc1_params, grid_exists, h3q_table_entries,
                     hamming_distance, neighbors, normalized_params, product_identity)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description}")


def certified(code) -> CrcCertificate:
    cert = check_crc(code)
    assert isinstance(cert, CrcCertificate), f"expected a certificate, got {cert}"
    return cert


def test_criterion_1_flagship_code(tmp_path):
    with criterion(1, "q=6 split construction: |C|=90, (5,7), eigenvalue 3, faces 15"):
        t0 = time.monotonic()
        out = tmp_path / "c65.json"
        assert run(["construct", "c", "--q", "6", "--t", "5", "-o", str(out)]) == 0
        code, meta = read_code(str(out))
        assert code.size == 90
        cert = certified(code)
        assert cert.rho == 1
        assert (cert.gamma, cert.beta) == (5, 7)
        assert cert.code_eigenvalues[1] == 3  # = lambda_2(3,6)
        assert cert.eigenvalue_index == 2
        prof = hyperface_profile(code)
        assert prof.shape == (3, 6)
        assert (prof == 15).all()
        assert meta["certificate"]["gamma"] == 5
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_three_block_suite():
    with criterion(2, "three-block witnesses at q=8,8,32,45 give gamma 6,7,15,14"):
        cases = [
            (8, (4, 4, 4, 2, 2, 2), 6),
            (8, (2, 4, 6, 2, 3, 2), 7),
            (32, (28, 28, 16, 7, 4, 4), 15),
            (45, (9, 15, 30, 3, 6, 5), 14),
        ]
        for q, tup, gamma in cases:
            t0 = time.monotonic()
            w = ConditionOneWitness(*tup)
            cert = certified(build_d(q, w))
            assert cert.gamma == gamma, (q, tup)
            assert cert.beta == 2 * q - gamma
            assert cert.eigenvalue_index == 2
            if q == 45:
                assert time.monotonic() - t0 < 10.0


def test_criterion_3_parity_lifting():
    with criterion(3, "binary seeds (1,3)/(2,2); lifts keep the size identity"):
        t0 = time.monotonic()
        s1 = certified(build_b(2, 1))
        assert (s1.gamma, s1.beta) == (1, 3)
        s2 = certified(build_b(2, 2))
        assert (s2.gamma, s2.beta) == (2, 2)
        assert time.monotonic() - t0 < 1.0
        for q in (4, 6, 8):
            t0 = time.monotonic()
            c1 = certified(build_b(q, 1))
            assert c1.gamma == q // 2
            assert c1.gamma + c1.beta == 2 * q
            code2 = build_b(q, 2)
            c2 = certified(code2)
            # gamma of the second lift is measured, then pinned by the
            # size identity |C| = q^2 * gamma / 2
            assert c2.gamma + c2.beta == 2 * q
            assert 2 * code2.size == q * q * c2.gamma
            assert time.monotonic() - t0 < 1.0


def test_criterion_4_constructive_soundness_sweep():
    with criterion(4, "every feasible (gamma,index) with q<=12 builds and verifies"):
        built = 0
        for q, gamma, index in h3q_table_entries(12):
            code, spec = build_feasible(q, gamma, index)
            cert = certified(code)
            assert cert.gamma == gamma, (q, gamma, index, spec)
            assert cert.eigenvalue_index == index, (q, gamma, index, spec)
            built += 1
        assert built >= 100


def test_criterion_5_oracle_equivalence():
    with criterion(5, "exhaustive searches match the feasibility classification"):
        # H(3,2): definition-level sweep over all 254 proper nonempty subsets
        t0 = time.monotonic()
        sp = Space(3, 2)
        brute = set()
        count = 0
        for words in all_vertex_subsets(sp):
            res = brute_crc1_params(sp, words)
            if res is not None:
                count += 1
                g, b = res
                assert (g + b) % 2 == 0
                brute.add((min(g, b), (g + b) // 2))
        summary32 = enumerate_crcs(SearchConstraints(3, 2), workers=1)
        assert summary32.codes_found == count == 22
        assert normalized_params(summary32.parameter_sets) == brute
        predicted32 = predicted_normalized(2)
        assert brute == predicted32
        assert time.monotonic() - t0 < 1.0

        # H(3,3): pruned complete search over all 2^27 indicator functions
        t0 = time.monotonic()
        summary33 = enumerate_crcs(SearchConstraints(3, 3))
        norm33 = normalized_params(summary33.parameter_sets)
        assert norm33 == predicted_normalized(3)
        # at eigenvalue index 2 only gamma = 2 occurs
        assert {min(g, b) for g, b, i in summary33.parameter_sets if i == 2} == {2}
        assert time.monotonic() - t0 < 600.0


def predicted_normalized(q: int) -> set:
    return {(gamma, index) for index, row in feasible_table(3, q).items() for gamma, _ in row}


def test_criterion_6_condition1_solver():
    with criterion(6, "three-block solver: pinned witnesses, full q<=64 sweep"):
        t0 = time.monotonic()
        assert (2, 4, 6, 2, 3, 2) in [w.as_tuple() for w in solve_condition1(8, 7)]
        assert (9, 15, 30, 3, 6, 5) in [w.as_tuple() for w in solve_condition1(45, 14)]
        total = 0
        for q in range(2, 65):
            for w in solve_condition1(q):
                assert check_condition1(q, w), (q, w.as_tuple())
                assert product_identity(q, w.r, w.s, w.t)
                total += 1
        assert total > 1000
        assert time.monotonic() - t0 < 30.0


def test_criterion_7_derivative_classification():
    with criterion(7, "all derivatives of built index-2 codes classify lawfully"):
        for q in (4, 6, 8):
            codes = [build_b(q, 1), build_b(q, 2)]
            codes += [build_a(q, g) for g in range(2, 2 * q - 1, 2)]
            codes += [build_c(q, t) for t in range(q // 2 + 1, q)]
            codes += [build_d(q, w) for w in solve_condition1(q)]
            for code in codes:
                classes = classify_all(code)
                assert len(classes) == 3 * q * (q - 1)
                bad = [k for k, c in classes.items() if c.kind == "unclassified"]
                assert not bad, (q, code, bad[:3])


def test_criterion_8_strong_clique_round_trip():
    with criterion(8, "clique partitions of block codes recover their witnesses"):
        seen = 0
        for q in range(2, 13):
            for w in solve_condition1(q):
                if w.gamma % 2 == 0 or 2 * w.gamma >= q:
                    continue  # only the odd gamma < q/2 regime is designated
                code = build_d(q, w)
                res = clique_cover(code)
                assert isinstance(res, CliqueDecomposition), (q, w.as_tuple())
                assert res.strong
                assert check_condition1(q, res.witness)
                assert res.witness == w
                for d, (rows, cols, deg) in (
                        (res.d1, (w.s, w.t, w.a + w.b)),
                        (res.d2, (w.r, q - w.t, w.a + w.c)),
                        (res.d3, (q - w.r, q - w.s, w.b + w.c))):
                    assert d.shape == (rows, cols)
                    assert grid_profile(d).gamma == deg
                q2, w2, _ = extract_construction_d(code)
                rebuilt_cert = certified(build_d(q2, w2))
                cert = certified(code)
                assert (rebuilt_cert.gamma, rebuilt_cert.beta) == (cert.gamma, cert.beta)
                assert rebuilt_cert.eigenvalue_index == cert.eigenvalue_index
                seen += 1
        assert seen == 6  # the odd gamma < q/2 instances with q <= 12


def test_criterion_9_property_suites():
    with criterion(9, "randomized suites: duality, extend/reduce, adjacency, grids"):
        rng = np.random.default_rng(20240817)

        # complement duality: certificate status and parameters mirror exactly
        cases = 0
        spaces = [Space(2, 2), Space(3, 2), Space(2, 3), Space(2, 4), Space(3, 3)]
        while cases < 1000:
            sp = spaces[int(rng.integers(len(spaces)))]
            mask = rng.random(sp.size) < rng.uniform(0.2, 0.8)
            if not mask.any() or mask.all():
                continue
            code = Code(sp, mask)
            res = check_crc(code)
            cres = check_crc(code.complement())
            # covering-radius-1 regularity is an involution under complement
            if isinstance(res, CrcCertificate) and res.rho == 1:
                assert isinstance(cres, CrcCertificate) and cres.rho == 1
                assert (cres.gamma, cres.beta) == (res.beta, res.gamma)
                assert res.size + cres.size == sp.size
            else:
                assert not (isinstance(cres, CrcCertificate) and cres.rho == 1)
            cases += 1

        # extend/reduce round trip preserves (rho, gamma, beta, index)
        pool = [build_feasible(q, gamma, index)[0] for q, gamma, index in h3q_table_entries(7)]
        cases = 0
        while cases < 1000:
            code = pool[int(rng.integers(len(pool)))]
            cert = certified(code)
            pos = int(rng.integers(1, code.space.n + 2))
            ext = extend_code(code, pos)
            ecert = certified(ext)
            assert (ecert.rho, ecert.gamma, ecert.beta) == (1, cert.gamma, cert.beta)
            assert ecert.eigenvalue_index == cert.eigenvalue_index
            assert reduce_code(ext) == reduce_code(code)
            cases += 1

        # adjacency symmetry
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            q = int(rng.integers(2, 7))
            sp = Space(n, q)
            u = tuple(int(c) for c in rng.integers(0, q, size=n))
            ns = neighbors(sp, u)
            assert len(ns) == sp.valency
            v = ns[int(rng.integers(len(ns)))]
            assert hamming_distance(u, v) == 1
            assert u in neighbors(sp, v)

        # stochastic build/profile agreement for every admissible (q,q',gamma)
        admissible = 0
        for q, qp in itertools.product(range(1, 65), repeat=2):
            for gamma in range(1, q + qp + 1):
                if not grid_exists(q, qp, gamma):
                    continue
                g = build_grid(q, qp, gamma)
                prof = grid_profile(g)
                assert prof is not None and prof.gamma == gamma
                assert prof.a * qp == prof.b * q
                admissible += 1
        assert admissible >= 1000
