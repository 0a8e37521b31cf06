"""Spectra of H(n,q) and parameter feasibility for covering-radius-1 codes.

The eigenvalues of H(n,q) are lambda_i = n(q-1) - q*i for i = 0..n.  A
completely regular code with rho = 1 has second eigenvalue n(q-1) - (gamma +
beta), so gamma + beta = q*i for an integer eigenvalue index i.  Feasibility
of (gamma, i) in H(3,q) splits by i; the delicate case is i = 2 with odd
gamma < q/2, governed by an integer system for a three-block construction.
That system is solved once per q: the product identity on block sizes,
solved for r, yields every (r, s, t) in one pass over the (s, t) grid, and
the witnesses are cached per q with an index by gamma.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np


def eigenvalue(n: int, q: int, i: int) -> int:
    """lambda_i(n,q) = n(q-1) - q*i."""
    if n < 1 or q < 2:
        raise ValueError(f"invalid dimensions n={n}, q={q}")
    if not 0 <= i <= n:
        raise ValueError(f"eigenvalue index {i} out of 0..{n}")
    return n * (q - 1) - q * i


def multiplicity(n: int, q: int, i: int) -> int:
    """Multiplicity of lambda_i in H(n,q): C(n,i) * (q-1)^i."""
    if not 0 <= i <= n:
        raise ValueError(f"eigenvalue index {i} out of 0..{n}")
    return math.comb(n, i) * (q - 1) ** i


@dataclass(frozen=True)
class ConditionOneWitness:
    """Solution of the three-block integer system for H(3,q), odd gamma < q/2.

    r, s, t are block sizes (0 < r,s,t < q); a, b, c are per-clique cell
    degrees of the three stochastic blocks, bounded by 0 < a <= min(r,s),
    0 < b <= min(t,q-r), 0 < c <= min(q-s,q-t), and tied by c*r = a*(q-t),
    b*(q-s) = c*(q-r), a*t = b*s.  The realized code has gamma = a+b+c.
    """

    r: int
    s: int
    t: int
    a: int
    b: int
    c: int

    @property
    def gamma(self) -> int:
        return self.a + self.b + self.c

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.r, self.s, self.t, self.a, self.b, self.c)


def check_condition1(q: int, w: ConditionOneWitness) -> bool:
    """Verify every equation and bound of the three-block system."""
    r, s, t, a, b, c = w.as_tuple()
    if not (0 < r < q and 0 < s < q and 0 < t < q):
        return False
    if not (0 < a <= min(r, s)):
        return False
    if not (0 < b <= min(t, q - r)):
        return False
    if not (0 < c <= min(q - s, q - t)):
        return False
    return c * r == a * (q - t) and b * (q - s) == c * (q - r) and a * t == b * s


# Cells per slab of the (s, t) grid: q <= 1449 is one slab, and the slab's
# two int64 arrays take at most 32 MiB for any q.
_IDENTITY_SLAB_CELLS = 1 << 21


def _identity_triples(q: int) -> tuple[tuple[int, int, int], ...]:
    """(r, s, t) in 1..q-1, lexicographically, where the product identity
    r(q-s)t = s(q-t)(q-r) holds.  Solved for r, the identity reads
    r = q*s*(q-t) / ((q-s)*t + s*(q-t)), which lies strictly between 0 and q
    for every s, t in 1..q-1; so one pass over the (s, t) grid, a slab of s
    rows at a time, keeps the cells where that quotient is an integer."""
    rng = np.arange(1, q, dtype=np.int64)
    step = max(1, _IDENTITY_SLAB_CELLS // rng.size)
    found = []
    for s0 in range(0, rng.size, step):
        s = rng[s0:s0 + step]
        num = np.multiply.outer(s, q * (q - rng))   # q*s*(q-t)
        den = np.multiply.outer(s, q - 2 * rng)     # (q-s)*t + s*(q-t) = s*(q-2t) + q*t
        den += q * rng
        si, ti = np.nonzero(np.remainder(num, den, out=num) == 0)
        s_hit, t_hit = s[si], rng[ti]
        found.append((q * s_hit * (q - t_hit) // den[si, ti], s_hit, t_hit))
    r, s, t = (np.concatenate(col) for col in zip(*found))
    order = np.argsort(r, kind="stable")   # (s, t) already ascend within each r
    return tuple(zip(r[order].tolist(), s[order].tolist(), t[order].tolist()))


@functools.lru_cache(maxsize=128)
def _witnesses(q: int) -> tuple[tuple[ConditionOneWitness, ...],
                                dict[int, tuple[ConditionOneWitness, ...]]]:
    """Every witness for q in lexicographic order, and the same witnesses
    grouped by gamma (each group in that order).  Built once per q and
    cached, because ``feasible_table`` asks once per odd gamma, and the
    ``table`` command and the feasibility report walk a range of q."""
    ws: list[ConditionOneWitness] = []
    by_gamma: dict[int, list[ConditionOneWitness]] = {}
    for r, s, t in _identity_triples(q):
        a0, b0, c0 = r * s, r * t, s * (q - t)
        g = math.gcd(a0, math.gcd(b0, c0))
        a0, b0, c0 = a0 // g, b0 // g, c0 // g
        kmax = min(min(r, s) // a0, min(t, q - r) // b0, min(q - s, q - t) // c0)
        for k in range(1, kmax + 1):
            w = ConditionOneWitness(r, s, t, k * a0, k * b0, k * c0)
            ws.append(w)
            by_gamma.setdefault(w.gamma, []).append(w)
    return tuple(ws), {gamma: tuple(group) for gamma, group in by_gamma.items()}


def solve_condition1(q: int, gamma: Union[int, None] = None) -> list[ConditionOneWitness]:
    """All witnesses for alphabet size q, ordered lexicographically by
    (r,s,t,a,b,c); optionally restricted to a+b+c = gamma.

    For fixed (r,s,t) the equations have a solution iff the product identity
    holds, and then all solutions are the integer multiples of one primitive
    triple (r*s, r*t, s*(q-t))/gcd, capped by the degree bounds.  The
    witnesses of a q are built and indexed by gamma once, then cached; each
    call returns a fresh list.
    """
    if q < 2:
        raise ValueError(f"invalid alphabet size q={q}")
    if gamma is not None and gamma < 1:
        raise ValueError(f"gamma={gamma} must be positive")
    ws, by_gamma = _witnesses(q)
    return list(ws if gamma is None else by_gamma.get(gamma, ()))


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    rule: str
    witness: Union[ConditionOneWitness, None] = None


def _check_normalized(q: int, gamma: int, index: int) -> None:
    if q < 2:
        raise ValueError(f"invalid alphabet size q={q}")
    if gamma < 1:
        raise ValueError(f"gamma={gamma} must be positive")
    if 2 * gamma > q * index:
        raise ValueError(
            f"gamma={gamma} violates the normalization gamma <= beta "
            f"(needs 2*gamma <= q*index = {q * index}); analyze the complement instead")


def feasible_h3q(q: int, gamma: int, index: int) -> FeasibilityVerdict:
    """Existence of a completely regular code in H(3,q) with rho = 1, the given
    gamma, and second eigenvalue lambda_index, under the convention gamma <= beta.
    Index 2 follows the H(n,q) rules of feasible_hnq at n = 3."""
    if index not in (1, 2, 3):
        raise ValueError(f"eigenvalue index {index} out of range 1..3 for rho=1 codes in H(3,q)")
    _check_normalized(q, gamma, index)

    if index == 1:
        return FeasibilityVerdict(True, "index 1: every gamma with 2*gamma <= q is realizable")

    if index == 2:
        return feasible_hnq(3, q, gamma)
    if gamma % 3 == 0:
        return FeasibilityVerdict(
            True, "gamma divisible by 3: union of gamma/3 diagonal classes; "
                  "range 3 <= gamma <= 3q/2 because gamma + beta = 3q")
    return FeasibilityVerdict(False, "index 3 requires gamma divisible by 3")


def feasible_hnq(n: int, q: int, gamma: int) -> FeasibilityVerdict:
    """Existence at eigenvalue index 2 in H(n,q) for n >= 2 (gamma <= beta)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    _check_normalized(q, gamma, 2)
    if gamma % 2 == 0:
        return FeasibilityVerdict(True, "even gamma: stochastic grid set, extended to n positions")
    if n == 2:
        return FeasibilityVerdict(False, "n = 2 forces even gamma (per-column count is gamma/2)")
    if q % 2 == 1:
        return FeasibilityVerdict(False, "odd q admits only even gamma at eigenvalue index 2")
    if 2 * gamma >= q:
        return FeasibilityVerdict(True, "q even, gamma >= q/2: alphabet-split construction, extended")
    ws = solve_condition1(q, gamma)
    if ws:
        return FeasibilityVerdict(True, "q even, odd gamma < q/2: three-block system solvable", ws[0])
    return FeasibilityVerdict(False, "q even, odd gamma < q/2: three-block system has no solution")


def feasible(n: int, q: int, gamma: int, index: int) -> FeasibilityVerdict:
    """Existence of a rho = 1 code in H(n,q) with the given gamma <= beta and
    eigenvalue index: every index for n = 3, index 2 for the other n."""
    if n == 3:
        return feasible_h3q(q, gamma, index)
    if index != 2:
        raise ValueError(f"for n={n} only eigenvalue index 2 is classified")
    return feasible_hnq(n, q, gamma)


def feasible_table(n: int, q: int) -> dict[int, list[tuple[int, FeasibilityVerdict]]]:
    """Each classified index of H(n,q), in increasing order, mapped to the
    (gamma, verdict) pairs with 1 <= gamma <= q*index/2 and a feasible verdict,
    in increasing gamma ([] when there are none)."""
    return {index: [(gamma, v) for gamma in range(1, q * index // 2 + 1)
                    if (v := feasible(n, q, gamma, index)).feasible]
            for index in ((1, 2, 3) if n == 3 else (2,))}
