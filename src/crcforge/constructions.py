"""Builders for completely regular codes with covering radius 1 in H(3,q).

Six families, keyed by the second eigenvalue index i (gamma + beta = q*i):

- index1(q, m): initial-interval cylinder, i=1, gamma = m.
- a(q, gamma): even gamma, i=2; a stochastic grid set broadcast over a free position.
- b(q, variant): alphabet halving, i=2; lifts a two-symbol seed code to even q.
- c(q, t): i=2 with gamma = t odd in (q/2, q); splits symbols into low/high
  parts and glues three products along a stochastic set.
- d(q, witness): i=2 with odd gamma < q/2; three stochastic blocks whose sizes
  and degrees solve the witness equations.
- index3(q, m): union of m diagonal classes, i=3, gamma = 3m.

Grid sets are read-only bool arrays, broadcast or sliced into the code's
grid.  Every builder returns a plain Code; verification is a separate
concern.  Each builder constructs its Space(3, q) first, so that a q whose
cube exceeds the space cap is refused before any array is allocated.
"""

from __future__ import annotations

import numpy as np

from . import stochastic
from .hamming import Code, Space
from .parameters import ConditionOneWitness, check_condition1, feasible_h3q


def build_index1(q: int, m: int) -> Code:
    """C = {0..m-1} x A x A in H(3,q): gamma = m, beta = q - m."""
    sp = Space(3, q)
    if not 1 <= m <= q - 1:
        raise ValueError(f"interval size m={m} must be in 1..{q - 1}")
    g = np.zeros((q, q, q), dtype=bool)
    g[:m, :, :] = True
    return Code(sp, g)


def build_index3(q: int, m: int) -> Code:
    """Union of m diagonal classes {x : x1+x2+x3 = d mod q}: gamma = 3m."""
    sp = Space(3, q)
    if not 1 <= m <= q - 1:
        raise ValueError(f"class count m={m} must be in 1..{q - 1}")
    i = np.arange(q)
    row = (i[:, None] + i) % q < m   # row[d, x3] for d = (x1 + x2) % q
    return Code(sp, row[(i[:, None] + i) % q])


def build_a(q: int, gamma: int) -> Code:
    """Extend a stochastic grid set of total degree gamma (even) by a free
    first position: gamma stays, beta = 2q - gamma."""
    sp = Space(3, q)
    if gamma % 2 != 0:
        raise ValueError(f"gamma={gamma} must be even for the grid construction")
    if not 2 <= gamma <= 2 * q - 2:
        raise ValueError(f"gamma={gamma} out of range 2..{2 * q - 2}")
    return Code(sp, np.broadcast_to(stochastic.build(q, q, gamma), sp.shape))


_SEED1 = ((0, 0, 0), (1, 1, 1))
_SEED2 = ((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1))


def build_b(q: int, variant: int) -> Code:
    """Lift a binary seed through symbol parity: x is in C iff x mod 2
    (coordinatewise) lies in the seed.  Variant 1 seeds the repetition pair
    {000, 111}; variant 2 seeds the pairs with equal last two bits."""
    sp = Space(3, q)
    if q % 2 != 0:
        raise ValueError(f"alphabet size q={q} must be even")
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    seed = _SEED1 if variant == 1 else _SEED2
    lut = np.zeros((2, 2, 2), dtype=bool)
    for v in seed:
        lut[v] = True
    p = np.arange(q) % 2
    return Code(sp, lut.take(p, 0).take(p, 1).take(p, 2))


def build_c(q: int, t: int) -> Code:
    """Glue T x (A-T) x S, (A-T) x T x (A-S), and D x A along a stochastic set
    D in T x T of total degree 2t - q, where T = {0..t-1} and S = {0..q/2-1}.
    Gives gamma = t (odd allowed), beta = 2q - t."""
    sp = Space(3, q)
    if q % 2 != 0:
        raise ValueError(f"alphabet size q={q} must be even")
    if not q // 2 < t < q:
        raise ValueError(f"t={t} must satisfy q/2 < t < q (q={q})")
    in_t = np.arange(q) < t
    in_s = np.arange(q) < q // 2
    d = stochastic.build(t, t, 2 * t - q)
    dfull = np.zeros((q, q), dtype=bool)
    dfull[:t, :t] = d
    t1 = in_t[:, None, None]
    t2 = in_t[None, :, None]
    s3 = in_s[None, None, :]
    g = (t1 & ~t2 & s3) | (~t1 & t2 & ~s3) | dfull[:, :, None]
    return Code(sp, g)


def construction_d_blocks(q: int, w: ConditionOneWitness
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three stochastic blocks realizing a witness, as read-only bool
    arrays: D1 in S x T with degrees (a,b), D2 in R x (A-T) with (a,c), D3
    in (A-R) x (A-S) with (b,c)."""
    if not check_condition1(q, w):
        raise ValueError(f"witness {w.as_tuple()} violates the three-block system for q={q}")
    d1 = stochastic.build(w.s, w.t, w.a + w.b)
    d2 = stochastic.build(w.r, q - w.t, w.a + w.c)
    d3 = stochastic.build(q - w.r, q - w.s, w.b + w.c)
    return d1, d2, d3


def build_d(q: int, w: ConditionOneWitness) -> Code:
    """Three clique bundles over the blocks of construction_d_blocks:
    cliques free in position 1 over D1, in position 2 over D2, in position 3
    over D3.  Gives gamma = a + b + c, beta = 2q - gamma."""
    sp = Space(3, q)
    d1, d2, d3 = construction_d_blocks(q, w)
    g = np.zeros((q, q, q), dtype=bool)
    g[:, :w.s, :w.t] |= d1[None, :, :]
    g[:w.r, :, w.t:] |= d2[:, None, :]
    g[w.r:, w.s:, :] |= d3[:, :, None]
    return Code(sp, g)


# Each construction kind's parameter besides q, and its builder build_<kind>.
# A spec is the dict a code file records as meta.construction: kind, q and
# that parameter, or for kind d its witness spelled out as r, s, t, a, b, c.
PARAMETER = {"a": "gamma", "b": "variant", "c": "t", "d": "witness",
             "index1": "m", "index3": "m"}


def build_from_spec(spec: dict) -> Code:
    """Build the code a spec names; an unknown kind or a missing key is a
    ValueError.  Builders are looked up as module globals at call time, so a
    wrapper installed on this module sees every build."""
    kind = spec.get("kind")
    if kind not in PARAMETER:
        raise ValueError(f"unknown construction kind {kind!r}")
    keys = ["q", *("rstabc" if kind == "d" else [PARAMETER[kind]])]
    if missing := [k for k in keys if k not in spec]:
        raise ValueError(f"construction {kind} spec lacks {', '.join(missing)}")
    q, *values = (spec[k] for k in keys)
    if kind == "d":
        return build_d(q, ConditionOneWitness(*values))
    return globals()[f"build_{kind}"](q, *values)


def spec_for(kind: str, q: int, value) -> dict:
    """The spec of a kind over q whose parameter, ``PARAMETER[kind]``, is
    ``value``: a ConditionOneWitness for kind d, an int for the rest."""
    if kind == "d":
        return {"kind": "d", "q": q, **dict(zip("rstabc", value.as_tuple()))}
    return {"kind": kind, "q": q, PARAMETER[kind]: value}


def build_feasible(q: int, gamma: int, index: int) -> tuple[Code, dict]:
    """Dispatch to the builder designated for a feasible (gamma, index) in H(3,q)."""
    verdict = feasible_h3q(q, gamma, index)
    if not verdict.feasible:
        raise ValueError(f"no code with gamma={gamma}, index={index} in H(3,{q}): {verdict.rule}")
    if index in (1, 3):
        kind, value = f"index{index}", gamma // index
    elif gamma % 2 == 0:
        kind, value = "a", gamma
    elif 2 * gamma == q:
        kind, value = "b", 1
    elif 2 * gamma > q:
        kind, value = "c", gamma
    else:
        kind, value = "d", verdict.witness
    spec = spec_for(kind, q, value)
    return build_from_spec(spec), spec
