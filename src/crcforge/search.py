"""Exhaustive enumeration of covering-radius-1 completely regular codes.

The search decides vertices in/out in lexicographic order.  Its state is two
bitmasks, IN and OUT (the decided codewords and non-codewords), and the box
of intervals below; all three are passed down the recursion by value, so
backtracking undoes nothing.  A vertex's possible in-neighbor count is
[cmin, cmax] = [|N(v) & IN|, k - |N(v) & OUT|].  In an equitable partition
{C, complement} every decided vertex ends with a fixed number of neighbors in
C: gamma for a non-codeword, k - beta for a codeword.  So the search keeps one
global interval per vertex state for that number, and applies one rule to
every decided vertex, whatever its state:

- [cmin, cmax] narrows the interval of its state; an empty interval kills the
  branch (with cmin == cmax this pins gamma or beta);
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

Every rule only narrows, so the closed state of a branch and whether it dies
do not depend on the order of the checks.  Propagation therefore rechecks
only what a decision can have changed: the newly decided vertices, their
decided neighbors and the hyperfaces through them, and, once an interval
narrows, every decided vertex in its state (in both states when the index
shift ties the intervals).

Every completed assignment is independently re-verified, by line-sum
counting, before anything is reported.  Work splits across processes at the
top two decision levels, and the workers only search: each returns its node
count and the IN bitmasks of its leaves.  enumerate_crcs certifies every
leaf in emission order, LEAF_BATCH at a time (one stacked line-sum count per
batch), raises on the first bad one with check_crc's witness, and only then
hands codes to the sink.  The summary (codes, parameter sets, node count)
does not depend on the worker count.

Complementing a (gamma, beta, i) code gives a (beta, gamma, i) code, and
flipping every decision maps the search tree onto itself node for node
whenever the constraints admit both codes and vertex 0 is free: gamma open,
or gamma = beta fixed with the index, and no fix_first_codeword.  Such a
search solves only the two top-level tasks with vertex 0 out.  The tasks
with vertex 0 in are their mirrors: their leaves are the complements of the
solved leaves, in reverse order, since complementing reverses the
lexicographic order.  enumerate_crcs appends them after the solved leaves
and certifies them like any other leaf.  The node count still counts the
whole tree, mirrored half included.
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
from .verifier import certify_rho1, check_crc, rho1_eigenvalue_index

# The search state is one bit per vertex; beyond this the tree is hopeless anyway.
VERTEX_LIMIT = 64

# Leaves certified per certify_rho1 call: bounds the (batch, V) arrays at any census size.
LEAF_BATCH = 1024

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


def _unpack(sp: Space, masks: list[int]) -> np.ndarray:
    """The (len(masks), V) bool indicators of vertex bitmasks, bit v = vertex v."""
    nb = (sp.size + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(nb, "little") for m in masks), np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), nb), axis=1, bitorder="little")
    return bits[:, :sp.size].view(bool)


def _solve_subtree(args) -> tuple[int, list[int]]:
    """Run the DFS below one prefix of forced assignments.

    Returns (nodes visited, leaves): the IN bitmask of every completed
    assignment other than the empty set and the whole space, in emission
    order, not yet certified.
    """
    n, q, gamma_t, index_t, fix_zero, prefix = args
    sp = Space(n, q)
    V, k = sp.size, sp.valency
    full = (1 << V) - 1
    strides = [q ** (n - 1 - j) for j in range(n)]

    nbr: list[int] = []  # bit u of nbr[v] is set iff u is adjacent to v
    for vi in range(V):
        m = 0
        for x, stride in zip(sp.vertex(vi), strides):
            base = vi - x * stride
            for s in range(q):
                if s != x:
                    m |= 1 << (base + s * stride)
        nbr.append(m)

    faces: list[int] = []  # hyperface masks, filled only when they must balance
    if gamma_t is not None and index_t is not None:
        qi = q * index_t
        num = V * gamma_t
        if num % qi:
            return 0, []  # code size q^n*gamma/(q*i) not an integer
        size_t = num // qi
        if index_t >= 2:
            if size_t % q:
                return 0, []  # balanced hyperfaces impossible
            face_t = size_t // q
            faces = [sum(1 << vi for vi in range(V) if vi // stride % q == s)
                     for stride in strides for s in range(q)]
    shift = None if index_t is None else k - q * index_t

    nodes = 0
    leaves: list[int] = []

    def propagate(IN: int, OUT: int, box: list, new: int):
        """Close (IN, OUT, box) under every rule after the vertices in ``new``
        were decided, the state without them being closed already.  Returns
        the closed state, or None when the branch dies."""
        box = box[:]
        narrowed = 0  # bit 0 / bit 1: the non-codeword / codeword interval narrowed
        while True:
            not_out = ~OUT
            for f in faces:
                if f & new and ((IN & f).bit_count() > face_t
                                or (f & not_out).bit_count() < face_t):
                    return None
            if shift is not None:
                # gamma + beta = q*i, i.e. k - beta = gamma + shift
                g_lo = max(box[0], box[2] - shift)
                g_hi = min(box[1], box[3] - shift)
                if g_lo > g_hi:
                    return None
                # This moves the box only at the root, where every decided
                # vertex is new, or after a narrowing, which the shift makes
                # a recheck of both states.
                box = [g_lo, g_hi, g_lo + shift, g_hi + shift]
                if narrowed:
                    narrowed = 3
            else:
                g_lo, g_hi, a_lo, a_hi = box
                if (g_lo + k - a_hi + q - 1) // q * q > g_hi + k - a_lo:
                    return None  # no multiple of q reachable for gamma+beta

            # Only the new vertices and their decided neighbors saw their
            # counts move; a narrowed interval concerns every decided vertex
            # in its state.
            todo = dirty = new
            while dirty:
                low = dirty & -dirty
                dirty ^= low
                todo |= nbr[low.bit_length() - 1]
            todo &= IN | OUT
            if narrowed & 1:
                todo |= OUT
            if narrowed & 2:
                todo |= IN
            new = narrowed = 0
            while todo:
                low = todo & -todo
                todo ^= low
                m = nbr[low.bit_length() - 1]
                cmin = (m & IN).bit_count()
                cmax = k - (m & OUT).bit_count()
                at = 2 if IN & low else 0  # the vertex's interval in box
                lo, hi = box[at], box[at + 1]
                if cmin > lo:
                    lo = box[at] = cmin
                    narrowed |= 2 if at else 1
                if cmax < hi:
                    hi = box[at + 1] = cmax
                    narrowed |= 2 if at else 1
                if lo > hi:
                    return None
                if cmin < cmax and (cmax == lo or cmin == hi):
                    free = m & ~(IN | OUT)
                    if cmax == lo:
                        IN |= free
                    else:
                        OUT |= free
                    new |= free
            if not (new or narrowed):
                return IN, OUT, box

    def decide(IN: int, OUT: int, box: list, bit: int, val: int):
        return propagate(IN | bit, OUT, box, bit) if val else propagate(IN, OUT | bit, box, bit)

    def dfs(IN: int, OUT: int, box: list) -> None:
        nonlocal nodes
        free = full & ~(IN | OUT)
        if not free:
            if IN and IN != full:  # neither the empty set nor the whole space
                leaves.append(IN)
            return
        low = free & -free  # lowest undecided vertex, 0 first: lexicographic emission
        for val in (0, 1):
            nodes += 1
            state = decide(IN, OUT, box, low, val)
            if state:
                dfs(*state)

    # box[2s], box[2s+1]: the range the final in-code neighbor count of a
    # decided vertex in state s must land in -- gamma for s = 0, k - beta
    # for s = 1.
    box = [1, k, 0, k - 1] if gamma_t is None else [gamma_t, gamma_t, 0, k - 1]
    state = propagate(1, 0, box, 1) if fix_zero else (0, 0, box)
    for v, val in prefix:
        if state is None:
            break
        nodes += 1
        IN, OUT, box = state
        bit = 1 << v
        if (IN | OUT) & bit:
            if bool(IN & bit) != bool(val):
                state = None
            continue
        state = decide(IN, OUT, box, bit, val)
    if state:
        dfs(*state)
    return nodes, leaves


def _tasks(constraints: SearchConstraints) -> list:
    """Prefixes over the first two free vertices, in a fixed order."""
    V = constraints.space.size
    first = 1 if constraints.fix_first_codeword else 0
    pv = [v for v in (first, first + 1) if v < V]
    return [tuple(zip(pv, vals)) for vals in product((0, 1), repeat=len(pv))]


def _complement_symmetric(c: SearchConstraints) -> bool:
    """Whether complementing maps the search tree onto itself: the
    complement of a (gamma, beta, i) code is a (beta, gamma, i) code, so the
    constraints must admit both, and vertex 0 must be free."""
    if c.fix_first_codeword:
        return False
    if c.gamma is None:
        return True
    return c.eigenvalue_index is not None and 2 * c.gamma == c.q * c.eigenvalue_index


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
    sp = c.space
    tasks = _tasks(c)
    mirror = _complement_symmetric(c)
    if mirror:
        # Task t's mirror, tasks[-1 - t], is t with every decision flipped;
        # its leaves are the complements of t's, in reverse order.
        tasks = tasks[:len(tasks) // 2]
    args = [(c.n, c.q, c.gamma, c.eigenvalue_index, c.fix_first_codeword, p) for p in tasks]
    w = min(resolve_workers(workers), len(args))
    if w <= 1:
        outs = [_solve_subtree(a) for a in args]
    else:
        with Pool(w) as pool:
            outs = pool.map(_solve_subtree, args)

    nodes = sum(o[0] for o in outs)
    leaves = [m for o in outs for m in o[1]]
    if mirror:
        nodes *= 2
        full = (1 << sp.size) - 1
        leaves += [full ^ m for m in reversed(leaves)]

    # Certify every leaf, in emission order, before anything is emitted.
    params = set()
    for start in range(0, len(leaves), LEAF_BATCH):
        masks = _unpack(sp, leaves[start:start + LEAF_BATCH])
        gam, bet, ok = certify_rho1(sp, masks)
        for j, (gamma, beta, good) in enumerate(zip(gam.tolist(), bet.tolist(), ok.tolist())):
            if not good:
                raise RuntimeError(f"search emitted a non-CRC set: {check_crc(Code(sp, masks[j]))}")
            if c.gamma is not None and gamma != c.gamma:
                raise RuntimeError(f"search emitted gamma={gamma}, target was {c.gamma}")
            idx = rho1_eigenvalue_index(c.n, c.q, gamma, beta)
            if c.eigenvalue_index is not None and idx != c.eigenvalue_index:
                raise RuntimeError(
                    f"search emitted eigenvalue index {idx}, target was {c.eigenvalue_index}")
            params.add((gamma, beta, idx))
    if sink is not None and not count_only:
        for mask in _unpack(sp, leaves):
            sink(Code(sp, mask))
    return SearchSummary(c.n, c.q, len(leaves), frozenset(params), nodes)
