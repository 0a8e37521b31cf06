"""Exhaustive enumeration of covering-radius-1 completely regular codes.

The search assigns vertices in/out in lexicographic order, maintaining for
every vertex its decided-neighbor and in-neighbor counts, plus global
intervals for the pair (gamma, beta).  Sound pruning rules:

- a decided vertex whose possible in-neighbor range leaves the required
  interval kills the branch; at the boundary it forces all undecided
  neighbors (unit propagation);
- a fully decided vertex pins gamma or beta exactly; partially decided
  vertices narrow the global intervals;
- gamma + beta must be a multiple of q (the second code eigenvalue
  n(q-1) - (gamma+beta) must lie in the spectrum of H(n,q));
- the code size q^n * gamma/(gamma+beta) must be an achievable integer;
- with gamma and the eigenvalue index both fixed (index >= 2), every
  hyperface must end up with exactly |C|/q codewords.

Every completed assignment is independently re-verified before being
reported.  Work splits across processes at the top two decision levels;
the summary (codes, parameter sets, node count) does not depend on the
worker count.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
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
    in_cnt = 0
    face_in = [0] * (n * q)
    face_und = [q ** (n - 1)] * (n * q)

    g_lo, g_hi = (gamma_t, gamma_t) if gamma_t is not None else (1, k)
    b_lo, b_hi = 1, k
    box = [g_lo, g_hi, b_lo, b_hi]

    nodes = 0
    results: list = []

    def assign(v: int, val: int) -> bool:
        nonlocal in_cnt
        state[v] = val
        trail.append(v)
        in_cnt += val
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
        nonlocal in_cnt
        while len(trail) > mark:
            v = trail.pop()
            val = state[v]
            state[v] = -1
            in_cnt -= val
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
        g_lo, g_hi, b_lo, b_hi = box
        while True:
            changed = False
            if index_t is not None:
                qi = q * index_t
                ng_lo, ng_hi = max(g_lo, qi - b_hi), min(g_hi, qi - b_lo)
                nb_lo, nb_hi = max(b_lo, qi - g_hi), min(b_hi, qi - g_lo)
                if (ng_lo, ng_hi, nb_lo, nb_hi) != (g_lo, g_hi, b_lo, b_hi):
                    g_lo, g_hi, b_lo, b_hi = ng_lo, ng_hi, nb_lo, nb_hi
                    changed = True
            elif (g_lo + b_lo + q - 1) // q * q > g_hi + b_hi:
                return False  # no multiple of q reachable for gamma+beta
            if g_lo > g_hi or b_lo > b_hi:
                return False
            smin = -(-V * g_lo // (g_lo + b_hi))
            smax = V * g_hi // (g_hi + b_lo)
            if in_cnt > smax or in_cnt + (V - len(trail)) < smin:
                return False

            i = 0
            while i < len(trail):
                v = trail[i]
                i += 1
                cu = k - cdec[v]
                cmin = cin[v]
                cmax = cmin + cu
                if state[v] == 1:
                    lo_req, hi_req = k - b_hi, k - b_lo
                else:
                    lo_req, hi_req = g_lo, g_hi
                if cmax < lo_req or cmin > hi_req:
                    return False
                if cu == 0:
                    if state[v] == 1:
                        pin = k - cmin
                        if b_lo != pin or b_hi != pin:
                            b_lo = max(b_lo, pin)
                            b_hi = min(b_hi, pin)
                            if b_lo > b_hi:
                                return False
                            changed = True
                    else:
                        if g_lo != cmin or g_hi != cmin:
                            g_lo = max(g_lo, cmin)
                            g_hi = min(g_hi, cmin)
                            if g_lo > g_hi:
                                return False
                            changed = True
                else:
                    if state[v] == 1:
                        nlo, nhi = max(b_lo, k - cmax), min(b_hi, k - cmin)
                        if (nlo, nhi) != (b_lo, b_hi):
                            b_lo, b_hi = nlo, nhi
                            if b_lo > b_hi:
                                return False
                            changed = True
                        lo_req, hi_req = k - b_hi, k - b_lo
                    else:
                        nlo, nhi = max(g_lo, cmin), min(g_hi, cmax)
                        if (nlo, nhi) != (g_lo, g_hi):
                            g_lo, g_hi = nlo, nhi
                            if g_lo > g_hi:
                                return False
                            changed = True
                        lo_req, hi_req = g_lo, g_hi
                    if cmax == lo_req:
                        for u in nbrs[v]:
                            if state[u] == -1:
                                if not assign(u, 1):
                                    return False
                        changed = True
                    elif cmin == hi_req:
                        for u in nbrs[v]:
                            if state[u] == -1:
                                if not assign(u, 0):
                                    return False
                        changed = True
            if not changed:
                box[0], box[1], box[2], box[3] = g_lo, g_hi, b_lo, b_hi
                return True

    def leaf() -> None:
        if in_cnt == 0 or in_cnt == V:
            return
        mask = np.frombuffer(bytes(1 if s == 1 else 0 for s in state), dtype=np.uint8)
        code = Code(sp, mask.astype(bool))
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
            saved = tuple(box)
            if assign(v, val) and propagate():
                dfs(v + 1)
            unassign_to(mark)
            box[0], box[1], box[2], box[3] = saved

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
    if not pv:
        return [()]
    if len(pv) == 1:
        return [((pv[0], a),) for a in (0, 1)]
    return [((pv[0], a), (pv[1], b)) for a in (0, 1) for b in (0, 1)]


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
            if collect and sink is not None:
                sink(Code.from_indices(sp, members))
    return SearchSummary(c.n, c.q, found, frozenset(params), nodes)
