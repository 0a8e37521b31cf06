"""Exhaustive enumeration of covering-radius-1 completely regular codes.

The search assigns vertices in/out in lexicographic order, maintaining for
every vertex its decided-neighbor and in-neighbor counts.  In an equitable
partition {C, complement} every decided vertex ends with a fixed number of
neighbors in C: gamma for a non-codeword, k - beta for a codeword.  So the
search keeps one global interval per vertex state for that number, and
applies one rule to every decided vertex, whatever its state:

- its possible in-neighbor range [cmin, cmax] narrows the interval of its
  state; an empty interval kills the branch (with cmin == cmax this pins
  gamma or beta);
- when the narrowed interval's low end is cmax, all undecided neighbors are
  forced in; when its high end is cmin, they are forced out (unit
  propagation).

Global rules on the two intervals, reading beta as k minus the codeword count:

- gamma + beta must be a multiple of q (the second code eigenvalue
  n(q-1) - (gamma+beta) must lie in the spectrum of H(n,q)); with the
  eigenvalue index i fixed it is q*i, which ties the two intervals by a shift;
- with gamma and i both fixed, the code size q^n * gamma/(q*i) must be an
  integer (checked once, up front) and, for i >= 2, every hyperface must end
  up with exactly |C|/q codewords.

Every completed assignment is independently re-verified before being
reported.  Work splits across processes at the top two decision levels;
the summary (codes, parameter sets, node count) does not depend on the
worker count.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from itertools import product
from multiprocessing import Pool
from typing import Callable, Optional

import numpy as np

from .hamming import Code, Space
from .verifier import CrcCertificate, check_crc

# Search state is dense per vertex; beyond this the tree is hopeless anyway.
VERTEX_LIMIT = 64

WORKERS_ENV = "CRC_FORGE_THREADS"


@dataclass(frozen=True)
class SearchConstraints:
    n: int
    q: int
    gamma: Optional[int] = None
    eigenvalue_index: Optional[int] = None
    fix_first_codeword: bool = False  # anchor the all-zero word into C (symmetry halving)

    def __post_init__(self):
        sp = Space(self.n, self.q)
        if sp.size > VERTEX_LIMIT:
            raise ValueError(
                f"space too large to enumerate: {sp.size} vertices (limit {VERTEX_LIMIT})")
        if self.gamma is not None and not 1 <= self.gamma <= sp.valency:
            raise ValueError(f"target gamma={self.gamma} out of 1..{sp.valency}")
        if self.eigenvalue_index is not None and not 1 <= self.eigenvalue_index <= self.n:
            raise ValueError(
                f"target eigenvalue index {self.eigenvalue_index} out of 1..{self.n}")
        if self.gamma is not None and self.eigenvalue_index is not None:
            qi = self.q * self.eigenvalue_index
            if 2 * self.gamma > qi:
                raise ValueError(
                    f"targets violate gamma <= beta (gamma={self.gamma}, "
                    f"beta would be {qi - self.gamma}); search the complement parameters")

    @property
    def space(self) -> Space:
        return Space(self.n, self.q)


@dataclass(frozen=True)
class SearchSummary:
    n: int
    q: int
    codes_found: int
    parameter_sets: frozenset  # of (gamma, beta, eigenvalue_index)
    nodes: int


def _solve_subtree(args) -> tuple[int, list]:
    """Run the DFS below one prefix of forced assignments.

    Returns (nodes visited, results), each result being
    (gamma, beta, index, member-tuple-or-None).
    """
    n, q, gamma_t, index_t, fix_zero, prefix, collect = args
    sp = Space(n, q)
    V, k = sp.size, sp.valency

    nbrs: list[tuple[int, ...]] = []
    coords: list[tuple[int, ...]] = []
    for vi in range(V):
        v = sp.vertex(vi)
        coords.append(v)
        row = []
        for j in range(n):
            stride = q ** (n - 1 - j)
            base = vi - v[j] * stride
            row.extend(base + s * stride for s in range(q) if s != v[j])
        nbrs.append(tuple(row))

    use_faces = False
    if gamma_t is not None and index_t is not None:
        qi = q * index_t
        num = V * gamma_t
        if num % qi:
            return 0, []  # code size q^n*gamma/(q*i) not an integer
        size_t = num // qi
        if index_t >= 2:
            if size_t % q:
                return 0, []  # balanced hyperfaces impossible
            use_faces = True
            face_t = size_t // q

    state = [-1] * V  # -1 undecided, 0 out, 1 in
    cin = [0] * V     # decided in-neighbors
    cdec = [0] * V    # decided neighbors
    trail: list[int] = []
    face_in = [0] * (n * q)
    face_und = [q ** (n - 1)] * (n * q)

    # box[2s], box[2s+1]: the range the final in-code neighbor count of a
    # decided vertex in state s must land in -- gamma for s = 0, k - beta
    # for s = 1.
    box = [1, k, 0, k - 1] if gamma_t is None else [gamma_t, gamma_t, 0, k - 1]

    nodes = 0
    results: list = []

    def assign(v: int, val: int) -> bool:
        state[v] = val
        trail.append(v)
        if val:
            for u in nbrs[v]:
                cdec[u] += 1
                cin[u] += 1
        else:
            for u in nbrs[v]:
                cdec[u] += 1
        if use_faces:
            cv = coords[v]
            ok = True
            for j in range(n):
                f = j * q + cv[j]
                face_und[f] -= 1
                face_in[f] += val
                if face_in[f] > face_t or face_in[f] + face_und[f] < face_t:
                    ok = False
            return ok
        return True

    def unassign_to(mark: int) -> None:
        while len(trail) > mark:
            v = trail.pop()
            val = state[v]
            state[v] = -1
            if val:
                for u in nbrs[v]:
                    cdec[u] -= 1
                    cin[u] -= 1
            else:
                for u in nbrs[v]:
                    cdec[u] -= 1
            if use_faces:
                cv = coords[v]
                for j in range(n):
                    f = j * q + cv[j]
                    face_und[f] += 1
                    face_in[f] -= val

    def propagate() -> bool:
        while True:
            before = box[:], len(trail)
            if index_t is not None:
                # gamma + beta = q*i, i.e. k - beta = gamma + shift
                shift = k - q * index_t
                box[0] = max(box[0], box[2] - shift)
                box[1] = min(box[1], box[3] - shift)
                box[2], box[3] = box[0] + shift, box[1] + shift
                # an emptied box fails at the first vertex of the scan below
            else:
                g_lo, g_hi, a_lo, a_hi = box
                b_lo, b_hi = k - a_hi, k - a_lo
                if (g_lo + b_lo + q - 1) // q * q > g_hi + b_hi:
                    return False  # no multiple of q reachable for gamma+beta

            i = 0
            while i < len(trail):
                v = trail[i]
                i += 1
                at = 2 * state[v]  # v's interval in box
                cmin = cin[v]
                cmax = cmin + k - cdec[v]
                lo, hi = box[at], box[at + 1]
                if cmin > lo:
                    lo = box[at] = cmin
                if cmax < hi:
                    hi = box[at + 1] = cmax
                if lo > hi:
                    return False
                if cmin < cmax and (cmax == lo or cmin == hi):
                    val = int(cmax == lo)
                    for u in nbrs[v]:
                        if state[u] == -1 and not assign(u, val):
                            return False
            if (box, len(trail)) == before:
                return True

    def leaf() -> None:
        if 0 not in state or 1 not in state:
            return  # the whole space or the empty set
        code = Code(sp, np.array(state) == 1)
        cert = check_crc(code)
        if not isinstance(cert, CrcCertificate):
            raise RuntimeError(f"search emitted a non-CRC set: {cert}")
        gamma, beta = cert.gamma, cert.beta
        if gamma_t is not None and gamma != gamma_t:
            raise RuntimeError(f"search emitted gamma={gamma}, target was {gamma_t}")
        idx = cert.eigenvalue_index
        if index_t is not None and idx != index_t:
            raise RuntimeError(f"search emitted eigenvalue index {idx}, target was {index_t}")
        results.append((gamma, beta, idx, tuple(int(j) for j in code.indices()) if collect else None))

    def dfs(scan_from: int) -> None:
        nonlocal nodes
        v = -1
        for u in range(scan_from, V):
            if state[u] == -1:
                v = u
                break
        if v == -1:
            leaf()
            return
        for val in (0, 1):
            nodes += 1
            mark = len(trail)
            saved = box[:]
            if assign(v, val) and propagate():
                dfs(v + 1)
            unassign_to(mark)
            box[:] = saved

    ok = True
    if fix_zero:
        ok = assign(0, 1) and propagate()
    if ok:
        for v, val in prefix:
            nodes += 1
            if state[v] != -1:
                if state[v] != val:
                    ok = False
                    break
                continue
            if not (assign(v, val) and propagate()):
                ok = False
                break
    if ok:
        dfs(0)
    return nodes, results


def _tasks(constraints: SearchConstraints) -> list:
    """Prefixes over the first two free vertices, in a fixed order."""
    V = constraints.space.size
    first = 1 if constraints.fix_first_codeword else 0
    pv = [v for v in (first, first + 1) if v < V]
    return [tuple(zip(pv, vals)) for vals in product((0, 1), repeat=len(pv))]


def resolve_workers(workers: Optional[int] = None) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            print(f"warning: ignoring {WORKERS_ENV}={env!r}, not an integer", file=sys.stderr)
    return min(4, os.cpu_count() or 1)


def enumerate_crcs(constraints: SearchConstraints,
                   sink: Optional[Callable[[Code], None]] = None,
                   workers: Optional[int] = None,
                   count_only: bool = False) -> SearchSummary:
    """Enumerate every covering-radius-1 completely regular code matching the
    constraints.  Found codes go to ``sink`` (unless count_only); the returned
    summary is identical for any worker count."""
    c = constraints
    collect = sink is not None and not count_only
    prefixes = _tasks(c)
    args = [(c.n, c.q, c.gamma, c.eigenvalue_index, c.fix_first_codeword, p, collect)
            for p in prefixes]
    w = min(resolve_workers(workers), len(args))
    if w <= 1:
        outs = [_solve_subtree(a) for a in args]
    else:
        with Pool(w) as pool:
            outs = pool.map(_solve_subtree, args)

    nodes = 0
    found = 0
    params = set()
    sp = c.space
    for task_nodes, results in outs:
        nodes += task_nodes
        for gamma, beta, idx, members in results:
            found += 1
            params.add((gamma, beta, idx))
            if collect:
                sink(Code.from_indices(sp, members))
    return SearchSummary(c.n, c.q, found, frozenset(params), nodes)
