"""Exhaustive enumeration of covering-radius-1 completely regular codes.

The search decides vertices in/out in lexicographic order.  Its state lives
in Python ints: vertex v owns the w-bit field at bit w*v, with w wide enough
that every count fits below the field's top bit.  cin and cout hold each
vertex's number of decided neighbors in and out of the code, and IN and OUT,
the decided codewords and non-codewords, are sets of field top bits.  With
the box of intervals below, the state is passed down the recursion by value,
so backtracking undoes nothing.  A vertex's possible in-neighbor count is
[cmin, cmax] = [cin_v, k - cout_v].  In an equitable partition
{C, complement} every decided vertex ends with a fixed number of neighbors in
C: gamma for a non-codeword, k - beta for a codeword.  So the search keeps one
global interval per vertex state for that number, and applies one rule to
every decided vertex, whatever its state:

- [cmin, cmax] narrows the interval of its state; an empty interval kills the
  branch (with cmin == cmax this pins gamma or beta);
- when the narrowed interval's low end is cmax, all undecided neighbors are
  forced in; when its high end is cmin, they are forced out (unit
  propagation).  A vertex forced both ways kills the branch.

Global rules on the two intervals, reading beta as k minus the codeword count:

- gamma + beta must be a multiple of q (the second code eigenvalue
  n(q-1) - (gamma+beta) must lie in the spectrum of H(n,q)); with the
  eigenvalue index i fixed it is q*i, which ties the two intervals by a shift;
- with gamma and i both fixed, the code size q^n * gamma/(q*i) must be an
  integer (checked once, up front) and, for i >= 2, every hyperface must end
  up with exactly |C|/q codewords.  Index i means that the centred indicator
  lives on the characters of weight i alone, so every face of codimension
  j < i holds |C|/q^j codewords (Fon-Der-Flaass, Perfect 2-colorings of a
  hypercube, 2007): q^(i-1) must divide |C|, also checked up front.

Every rule only narrows, so the closed state of a branch and whether it dies
do not depend on the order of the checks.  Propagation therefore applies
each rule to all decided vertices at once.  Deciding u adds its spread, a 1
in each neighbor's field, to cin or cout.  Adding ge[t], 2^(w-1) - t in
every field, sets a field's top bit exactly when its count is at least t, so
one add and one mask with IN or OUT tests a threshold for every vertex of a
state: whether an interval end moves, or which vertices sit at an end and
force their free neighbors.  The forced vertices are added the same way,
when there are any, and the rules reapplied until nothing is forced.

With gamma and i both fixed, both intervals are closed from the root: gamma
for a non-codeword, a = k - beta = gamma + k - q*i for a codeword.  No
interval end can move, so the thresholds are computed once per subtree, and
each round is one death test per vertex state (a decided vertex whose cin or
cout is past its pinned count kills the branch) and then the four forcing
masks.  For i >= 2 the hyperfaces are n*q more fields of the same ints,
counting their decided codewords in cin and non-codewords in cout; their
limits, |C|/q and q^(n-1) - |C|/q, ride in the constants of the
non-codeword test, so the same adds check the balance.

Forcing adds the spread of each forced set, and a task meets the same few
sets many times over, so each task keeps its own memo of these sums: an LRU
cache of TOTAL_MEMO sums, which never outlives its task.

Every completed assignment is independently re-verified, by line-sum
counting, before anything is reported.  Work splits at the top two decision
levels into tasks for w searching processes: the caller and w - 1 worker
processes, started for the one search, each claim the next unsolved task
from a shared counter until none is left, so tasks of uneven cost balance
themselves.  The process that solves a task certifies its leaves,
LEAF_BATCH at a time (one stacked line-sum count per batch); a worker sends
back, over a pipe, each task's node count, packed IN sets and certifier
arrays.  enumerate_crcs puts them in task order, raises on the first bad
leaf in emission order with check_crc's witness, and only then hands each
code to the sink with its certificate, built from the leaf's own (gamma,
beta): no code is certified twice.  The summary (codes, parameter sets,
node count) does not depend on the worker count.

Complementing a (gamma, beta, i) code gives a (beta, gamma, i) code, and
flipping every decision maps the search tree onto itself node for node
whenever the constraints admit both codes and vertex 0 is free: gamma open,
or gamma = beta fixed with the index, and no fix_first_codeword.  Such a
search solves only the two top-level tasks with vertex 0 out.  The tasks
with vertex 0 in are their mirrors: their leaves are the complements of the
solved leaves, in reverse order, since complementing reverses the
lexicographic order.  The process that solves a task certifies its mirror's
leaves too, and enumerate_crcs emits them after the solved leaves.  The
node count still counts the whole tree, mirrored half included.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from itertools import product
from multiprocessing import Pipe, Process, Value
from typing import Callable, Optional

import numpy as np

from .hamming import Code, Space
from .verifier import CrcCertificate, certify_rho1, check_crc, rho1_eigenvalue_index

# Bounds emission (one code per leaf) and the width of the packed search
# state, not what can be searched: the cost follows the constraints, not the
# vertex count.
VERTEX_LIMIT = 64

# Leaves certified per certify_rho1 call, and unpacked per batch for the sink:
# bounds the (batch, V) arrays at any census size.
LEAF_BATCH = 1024

# Spread sums a task's LRU memo holds: forcing meets the same few sets again
# and again, and the cap bounds the memo at any census size (uncapped, it
# grew peak RSS by 13-15 MB on H(6,2) and H(3,4)).
TOTAL_MEMO = 4096

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
            if qi - self.gamma > sp.valency:
                raise ValueError(
                    f"targets give beta={qi - self.gamma} above the valency {sp.valency} "
                    f"(gamma={self.gamma}, index {self.eigenvalue_index}); no such code exists")

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


def _field_width(sp: Space) -> int:
    """Bits per packed counter field: any vertex's or hyperface's count fits
    below the field's top bit, so adding a threshold never carries."""
    return max(sp.valency, sp.q ** (sp.n - 1)).bit_length() + 1


def _ones(w: int, fields: int) -> int:
    """A 1 at the bottom of each of ``fields`` consecutive w-bit fields."""
    return ((1 << w * fields) - 1) // ((1 << w) - 1)


def _unpack(sp: Space, leaves: list[int]) -> np.ndarray:
    """The (len(leaves), V) bool indicators of packed vertex sets, in which
    vertex v is the top bit of field v."""
    w = _field_width(sp)
    nb = (sp.size * w + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(nb, "little") for m in leaves), np.uint8)
    bits = np.unpackbits(raw.reshape(len(leaves), nb), axis=1, bitorder="little")
    # contiguous rows: certify_rho1 runs faster on them than on a strided view
    return np.ascontiguousarray(bits[:, w - 1::w][:, :sp.size]).view(bool)


def _solve_subtree(args) -> tuple[int, list[int]]:
    """Run the DFS below one prefix of forced assignments.

    Returns (nodes visited, leaves): the packed IN set of every completed
    assignment other than the empty set and the whole space, in emission
    order, not yet certified.
    """
    n, q, gamma_t, index_t, fix_zero, prefix = args
    sp = Space(n, q)
    V, k = sp.size, sp.valency
    strides = [q ** (n - 1 - j) for j in range(n)]

    pinned = gamma_t is not None and index_t is not None
    face_t = None  # codewords per hyperface, when hyperfaces must balance
    if pinned:
        qi = q * index_t
        num = V * gamma_t
        if num % qi:
            return 0, []  # code size q^n*gamma/(q*i) not an integer
        size_t = num // qi
        if index_t >= 2:
            # Index i puts the centred indicator on the weight-i characters
            # alone, so every face of codimension j < i holds |C|/q^j codewords.
            if size_t % q ** (index_t - 1):
                return 0, []  # balanced faces impossible
            face_t = size_t // q
    shift = None if index_t is None else k - q * index_t

    # Field v < V counts vertex v's decided neighbors; while hyperfaces must
    # balance, field V + j*q + s counts the decided vertices with x_j = s.
    w = _field_width(sp)
    half = 1 << (w - 1)
    vert = _ones(w, V)
    ones = _ones(w, V + (n * q if face_t is not None else 0))
    full = vert << (w - 1)  # every vertex: the top bits of the vertex fields
    faces = ones * half ^ full
    ge = [ones * (half - t) for t in range(k + 2)]  # + ge[t]: top bit set iff count >= t

    # spread[b], for the vertex u whose top bit is bit b - 1 (b = w*u + w, its
    # bit_length): adding it counts u at each of its neighbors and hyperfaces.
    # top[b] is that top bit.
    spread = [0] * (w * V + 1)
    top = [0] * (w * V + 1)
    for u in range(V):
        m = 0
        for j, (x, stride) in enumerate(zip(sp.vertex(u), strides)):
            base = u - x * stride
            for s in range(q):
                if s != x:
                    m |= 1 << w * (base + s * stride)
            if face_t is not None:
                m |= 1 << w * (V + j * q + x)
        spread[w * u + w] = m
        top[w * u + w] = half << w * u

    @functools.lru_cache(maxsize=TOTAL_MEMO)  # one cache per task
    def total(mask: int) -> int:
        """The sum of spread over the vertices of a packed set, highest first."""
        t = 0
        while mask:
            b = mask.bit_length()
            mask ^= top[b]
            t += spread[b]
        return t

    if pinned:
        # Both counts are fixed from the root: gamma for a non-codeword and
        # a = k - beta = gamma + shift for a codeword.  Adding cin_over_g
        # sets a field's top bit where cin is past gamma, and so on; the
        # hyperface fields' limits ride in the non-codeword constants.
        a = gamma_t + shift
        face = ones - vert  # a 1 in each hyperface field
        f_in, f_out = (face_t, V // q - face_t) if face_t is not None else (0, 0)
        cin_over_g = vert * (half - 1 - gamma_t) + face * (half - 1 - f_in)
        cout_over_g = vert * (half - 1 - (k - gamma_t)) + face * (half - 1 - f_out)
        cin_over_a, cout_over_a = ge[a + 1], ge[k + 1 - a]
        forcing = ge[k - gamma_t], ge[k - a], ge[gamma_t], ge[a]  # in_g, in_a, out_g, out_a

    nodes = 0
    leaves: list[int] = []

    def propagate(IN: int, OUT: int, cin: int, cout: int, box):
        """Close a state under every rule; cin and cout count each vertex's
        neighbors in IN and in OUT.  Returns the closed state, or None when
        the branch dies."""
        if pinned:
            in_g, in_a, out_g, out_a = forcing
        else:
            g_lo, g_hi, a_lo, a_hi = box
        while True:
            if pinned:
                if (((cin + cin_over_g) | (cout + cout_over_g)) & (OUT | faces)
                        or ((cin + cin_over_a) | (cout + cout_over_a)) & IN):
                    return None  # a count past its target, or a hyperface past its balance
            else:
                # Narrow each interval to the in-code neighbor counts
                # [cin, k - cout] of the decided vertices in its state.
                while (cin + ge[g_lo + 1]) & OUT:
                    g_lo += 1
                while (cout + ge[k + 1 - g_hi]) & OUT:
                    g_hi -= 1
                while (cin + ge[a_lo + 1]) & IN:
                    a_lo += 1
                while (cout + ge[k + 1 - a_hi]) & IN:
                    a_hi -= 1
                if shift is not None:
                    # gamma + beta = q*i, i.e. k - beta = gamma + shift
                    g_lo = max(g_lo, a_lo - shift)
                    g_hi = min(g_hi, a_hi - shift)
                    if g_lo > g_hi:
                        return None
                    a_lo, a_hi = g_lo + shift, g_hi + shift
                elif g_lo > g_hi or a_lo > a_hi:
                    return None
                elif (g_lo + k - a_hi + q - 1) // q * q > g_hi + k - a_lo:
                    return None  # no multiple of q reachable for gamma+beta
                in_g, in_a, out_g, out_a = ge[k - g_lo], ge[k - a_lo], ge[g_hi], ge[a_hi]

            # Every decided vertex's counts now straddle its state's interval.
            # One with a free neighbor forces its free neighbors in when its
            # most possible in-code neighbors, k - cout, is the interval's low
            # end, and out when cin already is its high end.
            has_free = ~(cin + cout + ge[k])
            force_in = ((cout + in_g) & OUT | (cout + in_a) & IN) & has_free
            force_out = ((cin + out_g) & OUT | (cin + out_a) & IN) & has_free
            if not (force_in or force_out):
                return IN, OUT, cin, cout, box if pinned else (g_lo, g_hi, a_lo, a_hi)
            free = full & ~(IN | OUT)
            new_in = force_in and (total(force_in) + ge[1]) & free
            new_out = force_out and (total(force_out) + ge[1]) & free
            if new_in & new_out:
                return None  # a free vertex forced both ways
            if new_in:
                IN |= new_in
                cin += total(new_in)
            if new_out:
                OUT |= new_out
                cout += total(new_out)

    def decide(state: tuple, bit: int, val: int):
        """Put the vertex whose top bit is ``bit`` in (val 1) or out, and close."""
        IN, OUT, cin, cout, box = state
        s = spread[bit.bit_length()]
        if val:
            return propagate(IN | bit, OUT, cin + s, cout, box)
        return propagate(IN, OUT | bit, cin, cout + s, box)

    def dfs(state: tuple) -> None:
        nonlocal nodes
        IN, OUT = state[0], state[1]
        free = full & ~(IN | OUT)
        if not free:
            if IN and IN != full:  # neither the empty set nor the whole space
                leaves.append(IN)
            return
        # lowest undecided vertex, 0 first: lexicographic emission
        low = free & -free
        for val in (0, 1):
            nodes += 1
            child = decide(state, low, val)
            if child:
                dfs(child)

    # box: the ranges [g_lo, g_hi] and [a_lo, a_hi] that the final in-code
    # neighbor count of a decided vertex must land in -- gamma for a
    # non-codeword, k - beta for a codeword.  Pinned searches need none.
    box = None if pinned else (
        (1, k, 0, k - 1) if gamma_t is None else (gamma_t, gamma_t, 0, k - 1))
    state = decide((0, 0, 0, 0, box), half, 1) if fix_zero else (0, 0, 0, 0, box)
    for v, val in prefix:
        if state is None:
            break
        nodes += 1
        IN, OUT = state[0], state[1]
        bit = half << w * v
        if (IN | OUT) & bit:
            if bool(IN & bit) != bool(val):
                state = None
            continue
        state = decide(state, bit, val)
    if state:
        dfs(state)
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


def _solve_task(args, mirror: int) -> tuple:
    """_solve_subtree of one task, with its leaves certified: (nodes, leaves,
    (gamma, beta, ok)).  ``mirror`` is 0, or the whole space when the search
    is mirrored: then the arrays go on over the mirror task's leaves too."""
    nodes, leaves = _solve_subtree(args)
    sp = Space(args[0], args[1])
    rows = leaves + [mirror ^ m for m in reversed(leaves)] if mirror else leaves
    certs = [certify_rho1(sp, _unpack(sp, rows[start:start + LEAF_BATCH]))
             for start in range(0, len(rows), LEAF_BATCH) or (0,)]  # no leaves: one empty batch
    return nodes, leaves, tuple(np.concatenate(a) for a in zip(*certs))


def _claim(args: list, mirror: int, counter) -> list:
    """Solve the next unsolved task, by the shared counter, until none is
    left: [(task index, _solve_task output)] of the tasks this process took."""
    done = []
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(args):
            return done
        done.append((i, _solve_task(args[i], mirror)))


def _solve_share(args: list, mirror: int, counter, conn) -> None:
    """Worker process body: solve the tasks it claims and send their outputs,
    or the exception that stopped them, back to the caller."""
    try:
        out = _claim(args, mirror, counter)
    except Exception as e:  # re-raised by the caller
        out = e
    conn.send(out)


def _solve_tasks(args: list, w: int, mirror: int) -> list:
    """_solve_task of every task, in task order, by w searching processes:
    the caller and w - 1 workers claim tasks until none is left, and the
    workers send their outputs back over a pipe.  Every worker is joined
    before this returns or raises, so all their CPU time is reaped."""
    # Workers start by the platform's default method, as a Pool's did: on
    # Linux a fork, which costs a few ms where a spawn re-imports numpy.
    counter = Value("i", 0)
    procs = []
    try:
        for _ in range(1, w):
            recv, send = Pipe(duplex=False)
            proc = Process(target=_solve_share, args=(args, mirror, counter, send), daemon=True)
            proc.start()
            send.close()  # the worker holds the only write end: EOF if it dies
            procs.append((proc, recv))
        done = _claim(args, mirror, counter)
        for proc, recv in procs:
            try:
                out = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"a search worker exited with code {proc.exitcode} "
                                   f"before sending its leaves") from None
            if isinstance(out, Exception):
                raise out
            done += out
    except BaseException:
        for proc, _ in procs:
            proc.terminate()
        raise
    finally:
        for proc, recv in procs:
            proc.join()
            recv.close()
    return [out for _, out in sorted(done, key=lambda d: d[0])]


def _target_fault(c: SearchConstraints, gamma: int, idx: Optional[int]) -> Optional[str]:
    """Why a certified leaf with this gamma and eigenvalue index misses the
    targets, or None when it meets them."""
    if c.gamma is not None and gamma != c.gamma:
        return f"search emitted gamma={gamma}, target was {c.gamma}"
    if c.eigenvalue_index is not None and idx != c.eigenvalue_index:
        return f"search emitted eigenvalue index {idx}, target was {c.eigenvalue_index}"
    return None


def resolve_workers(workers: Optional[int] = None) -> int:
    """The worker count: ``workers`` if given, else a set CRC_FORGE_THREADS,
    else min(4, cpus).  A ``workers`` below 1, or a set variable that is not
    a positive integer, raises ValueError."""
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers={workers} is not a positive integer")
        return workers
    env = os.environ.get(WORKERS_ENV)
    if env:
        if not (env.strip().isdecimal() and int(env) > 0):
            raise ValueError(f"{WORKERS_ENV}={env!r} is not a positive integer")
        return int(env)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))  # the CPUs this process may run on
    else:
        cpus = os.cpu_count() or 1
    return min(4, cpus)


def enumerate_crcs(constraints: SearchConstraints,
                   sink: Optional[Callable[[Code, CrcCertificate], None]] = None,
                   workers: Optional[int] = None,
                   count_only: bool = False) -> SearchSummary:
    """Enumerate every covering-radius-1 completely regular code matching the
    constraints.  Unless count_only, ``sink(code, certificate)`` gets each
    found code with the CrcCertificate that check_crc(code) would return,
    taken from the search's own certification of the leaf.  The returned
    summary is identical for any worker count."""
    c = constraints
    sp = c.space
    tasks = _tasks(c)
    w = _field_width(sp)
    # Task t's mirror, tasks[-1 - t], is t with every decision flipped; its
    # leaves are t's xor the whole space, in reverse order.
    mirror = _ones(w, sp.size) << (w - 1) if _complement_symmetric(c) else 0
    if mirror:
        tasks = tasks[:len(tasks) // 2]
    args = [(c.n, c.q, c.gamma, c.eigenvalue_index, c.fix_first_codeword, p) for p in tasks]
    outs = _solve_tasks(args, min(resolve_workers(workers), len(args)), mirror)

    nodes = sum(o[0] for o in outs) * (2 if mirror else 1)
    leaves = [m for o in outs for m in o[1]]
    leaves += [mirror ^ m for m in reversed(leaves)] if mirror else []
    # Emission order: every task's own certifier rows, then the mirrors' in reverse.
    own = [[a[:len(o[1])] for a in o[2]] for o in outs]
    mirrored = [[a[len(o[1]):] for a in o[2]] for o in reversed(outs)]
    gam, bet, ok = (np.concatenate(a) for a in zip(*own, *mirrored))
    # The first bad leaf in emission order raises, with its checks in order:
    # certified, then its gamma, then its index.  |beta| < 2^31 on every
    # row, so the key is one-to-one on (gamma, beta).
    _, first, pair = np.unique((gam.astype(np.int64) << 32) + bet,
                               return_index=True, return_inverse=True)
    found = [(g, b, rho1_eigenvalue_index(c.n, c.q, g, b))
             for g, b in zip(gam[first].tolist(), bet[first].tolist())]
    faults = [_target_fault(c, g, i) for g, _, i in found]
    bad = ~ok | np.array([f is not None for f in faults], dtype=bool)[pair]
    if bad.any():
        j = int(bad.argmax())
        if not ok[j]:
            mask = _unpack(sp, [leaves[j]])[0]
            raise RuntimeError(f"search emitted a non-CRC set: {check_crc(Code(sp, mask))}")
        raise RuntimeError(faults[pair[j]])
    if sink is not None and not count_only:
        for start in range(0, len(leaves), LEAF_BATCH):
            batch = slice(start, start + LEAF_BATCH)
            for mask, g, b in zip(_unpack(sp, leaves[batch]), gam[batch].tolist(),
                                  bet[batch].tolist()):
                code = Code(sp, mask)
                sink(code, CrcCertificate(c.n, c.q, 1, code.size, (b,), (g,)))
    return SearchSummary(c.n, c.q, len(leaves), frozenset(found), nodes)
