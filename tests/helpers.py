"""Brute-force oracles shared by the test modules.

Everything here recomputes properties straight from definitions (explicit
loops over vertices and neighbor enumeration), independently of the
vectorized library code it is used to check.  The exceptions are the
three-pass reference verifier at the end, which the one-pass ``check_crc``
must reproduce exactly, and a runner for snippets under ``python -O``.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import textwrap

import numpy as np

from crcforge.hamming import Code, Space, hamming_distance, neighbors
from crcforge.verifier import CheckResult, CrcCertificate, CrcFailure, DistancePartition


def brute_distances(sp: Space, codewords) -> dict:
    """Vertex -> min Hamming distance to the codeword set, by definition."""
    cs = [tuple(c) for c in codewords]
    return {v: min(hamming_distance(v, c) for c in cs) for v in sp.vertices()}


def brute_layer_sizes(sp: Space, codewords) -> list[int]:
    dist = brute_distances(sp, codewords)
    rho = max(dist.values())
    return [sum(1 for d in dist.values() if d == i) for i in range(rho + 1)]


def brute_count_in(sp: Space, members: set, v) -> int:
    """Neighbors of v inside the given vertex set, by neighbor enumeration."""
    return sum(1 for u in neighbors(sp, v) if u in members)


def brute_crc1_params(sp: Space, codewords):
    """(gamma, beta) if the set is completely regular with covering radius 1,
    else None.  Straight from the definition."""
    members = set(tuple(c) for c in codewords)
    if not members or len(members) == sp.size:
        return None
    gammas = set()
    betas = set()
    for v in sp.vertices():
        cnt = brute_count_in(sp, members, v)
        if v in members:
            betas.add(sp.valency - cnt)
        else:
            if cnt == 0:
                return None  # covering radius exceeds 1
            gammas.add(cnt)
    if len(gammas) == 1 and len(betas) == 1:
        return (gammas.pop(), betas.pop())
    return None


def normalized_params(triples) -> set:
    """{(gamma, beta, index)} -> {(min(gamma,beta), index)}."""
    return {(min(g, b), i) for (g, b, i) in triples}


def code_of(sp: Space, codewords) -> Code:
    return Code.from_vertices(sp, codewords)


def all_vertex_subsets(sp: Space):
    """Every proper nonempty subset of a (tiny) space, as vertex tuples."""
    verts = list(sp.vertices())
    for bits in range(1, 2 ** sp.size - 1):
        yield [verts[i] for i in range(sp.size) if bits >> i & 1]


def run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run a Python snippet under ``python -O`` (asserts stripped) against ./src."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    prelude = "assert False, 'asserts are live'\n"   # stripped by -O, else fails loudly
    return subprocess.run([sys.executable, "-O", "-c", prelude + textwrap.dedent(script)],
                          env=env, capture_output=True, text=True, timeout=120)


# A three-pass verifier (int32 counts, the full distance partition, one count
# per layer): the reference that the one-pass ``check_crc`` must match field
# by field.

def reference_neighbor_counts(space: Space, indicator: np.ndarray) -> np.ndarray:
    g = np.asarray(indicator, dtype=np.int32).reshape(space.shape)
    tot = np.zeros(space.shape, dtype=np.int32)
    for ax in range(space.n):
        tot = tot + g.sum(axis=ax, keepdims=True)
    tot -= space.n * g
    return tot.reshape(space.size)


def reference_distance_partition(code: Code) -> DistancePartition:
    if code.size == 0:
        raise ValueError("empty code has no distance partition")
    sp = code.space
    layers = [code.mask.copy()]
    seen = code.mask.copy()
    while not seen.all():
        frontier = (reference_neighbor_counts(sp, layers[-1]) > 0) & ~seen
        layers.append(frontier)
        seen |= frontier
    for layer in layers:
        layer.setflags(write=False)
    return DistancePartition(sp, tuple(layers))


def reference_check_crc(code: Code) -> CheckResult:
    sp = code.space
    if code.size == 0 or code.size == sp.size:
        raise ValueError("code must be a proper nonempty vertex subset")
    dp = reference_distance_partition(code)
    counts = [reference_neighbor_counts(sp, layer) for layer in dp.classes]

    best = None  # (vertex index, direction priority, failure record)
    gammas: list[int] = []
    betas: list[int] = []
    for i, layer in enumerate(dp.classes):
        members = np.flatnonzero(layer)
        # direction 0 = toward the code, direction 1 = away from it
        for direction, target in ((0, i - 1), (1, i + 1)):
            if not 0 <= target <= dp.rho:
                continue
            vals = counts[target][members]
            expected = int(vals[0])
            if direction == 0:
                gammas.append(expected)
            else:
                betas.append(expected)
            bad = np.flatnonzero(vals != expected)
            if bad.size:
                v = int(members[bad[0]])
                key = (v, direction)
                if best is None or key < best[0]:
                    best = (key, CrcFailure(sp.vertex(v), i, target,
                                            int(vals[bad[0]]), expected))
    if best is not None:
        return best[1]
    return CrcCertificate(sp.n, sp.q, dp.rho, code.size, tuple(betas), tuple(gammas))
