"""Brute-force oracles shared by the test modules.

Everything here recomputes properties straight from definitions (explicit
loops over vertices and neighbor enumeration), independently of the
vectorized library code it is used to check.  That includes the vertex
enumeration and ranking of H(n,q), codes built from vertex tuples and listed
back as tuples, the explicit neighbor, clique and hyperface enumerators, the
block-size product identity, the degree rule for stochastic grid sets, and
counters of the line-regular 0/1 matrices and Latin squares that census
counts must equal.  The exceptions are the reference implementations at the
end, which the vectorized library code must reproduce exactly (the
three-pass verifier, the one-pass rho = 1 decision from whole count arrays,
the per-codeword code-file writer and reader, the derivative table and the
per-derivative classifier, the set-based clique decomposition, the cubic
scan for the block-size triples and the gathered parity lift), and a runner
for snippets under ``python -O``.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, TextIO, Union

import numpy as np
from hypothesis import strategies as st

from crcforge import stochastic
from crcforge.codefile import FORMAT, CodeFileError
from crcforge.hamming import Code, Space, Vertex
from crcforge.parameters import ConditionOneWitness, check_condition1, feasible_table
from crcforge.structure import (CliqueCoverFailure, CliqueDecomposition, CoverResult,
                                DerivativeClass)
from crcforge.verifier import CheckResult, CrcCertificate, CrcFailure


# ------------------------------------------------ vertices, cliques, hyperfaces

def vertices(space: Space) -> Iterator[Vertex]:
    """Every vertex in index order, which is lexicographic."""
    return itertools.product(range(space.q), repeat=space.n)


def check_vertex(space: Space, v: Sequence[int]) -> Vertex:
    if not (len(v) == space.n and all(0 <= c < space.q for c in v)):
        raise ValueError(f"vertex {tuple(v)} not in H({space.n},{space.q})")
    return tuple(v)


def index(space: Space, v: Sequence[int]) -> int:
    """Lexicographic rank of a vertex, position 1 most significant."""
    i = 0
    for c in check_vertex(space, v):
        i = i * space.q + c
    return i


def code_of(sp: Space, codewords) -> Code:
    """The code on the given vertex tuples."""
    mask = np.zeros(sp.size, dtype=bool)
    for v in codewords:
        mask[index(sp, v)] = True
    return Code(sp, mask)


def code_vertices(code: Code) -> list[Vertex]:
    """Member vertices in lexicographic order."""
    return [code.space.vertex(i) for i in np.flatnonzero(code.mask).tolist()]


def neighbors(space: Space, v: Sequence[int]) -> list[Vertex]:
    """All n(q-1) neighbors, position-major then symbol-ascending."""
    v = check_vertex(space, v)
    out = []
    for j in range(space.n):
        for s in range(space.q):
            if s != v[j]:
                out.append(v[:j] + (s,) + v[j + 1:])
    return out


def hamming_distance(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return sum(a != b for a, b in zip(u, v))


@dataclass(frozen=True)
class Clique:
    """A maximal clique of H(n,q): all vertices agreeing outside one position.

    ``codirection`` is the free position (1-based); ``fixed`` gives the n-1
    frozen symbols in position order.
    """

    codirection: int
    fixed: tuple[int, ...]


@dataclass(frozen=True)
class Hyperface:
    """All q^(n-1) vertices with a given symbol in a given position."""

    direction: int
    symbol: int


def check_clique(space: Space, c: Clique) -> None:
    if not 1 <= c.codirection <= space.n:
        raise ValueError(f"clique codirection {c.codirection} out of 1..{space.n}")
    if len(c.fixed) != space.n - 1 or not all(0 <= s < space.q for s in c.fixed):
        raise ValueError(f"clique fixed symbols {c.fixed} invalid for H({space.n},{space.q})")


def check_hyperface(space: Space, h: Hyperface) -> None:
    if not 1 <= h.direction <= space.n:
        raise ValueError(f"hyperface direction {h.direction} out of 1..{space.n}")
    if not 0 <= h.symbol < space.q:
        raise ValueError(f"hyperface symbol {h.symbol} out of 0..{space.q - 1}")


def clique_vertices(space: Space, c: Clique) -> list[Vertex]:
    """The q vertices of a maximal clique, symbol-ascending in the free position."""
    check_clique(space, c)
    j = c.codirection - 1
    return [c.fixed[:j] + (s,) + c.fixed[j:] for s in range(space.q)]


def hyperface_vertices(space: Space, h: Hyperface) -> list[Vertex]:
    """The q^(n-1) vertices of a hyperface, in lexicographic order."""
    check_hyperface(space, h)
    j = h.direction - 1
    out = []
    for rest in itertools.product(range(space.q), repeat=space.n - 1):
        out.append(rest[:j] + (h.symbol,) + rest[j:])
    return out


def all_cliques(space: Space) -> Iterator[Clique]:
    """All n * q^(n-1) maximal cliques, codirection-major then fixed-lex."""
    for j in range(1, space.n + 1):
        for fixed in itertools.product(range(space.q), repeat=space.n - 1):
            yield Clique(j, fixed)


def all_hyperfaces(space: Space) -> Iterator[Hyperface]:
    for j in range(1, space.n + 1):
        for s in range(space.q):
            yield Hyperface(j, s)


# every H(n,q) with q^n <= 256, drawn with n uniform
SMALL_SPACES = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from([q for q in range(2, 257) if q ** n <= 256])))


# ------------------------------------------------------------ brute force

def brute_distances(sp: Space, codewords) -> dict:
    """Vertex -> min Hamming distance to the codeword set, by definition."""
    cs = [tuple(c) for c in codewords]
    return {v: min(hamming_distance(v, c) for c in cs) for v in vertices(sp)}


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
    for v in vertices(sp):
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


def brute_clique_partition(code: Code) -> Optional[list[Clique]]:
    """The partition of a code into maximal cliques that ``clique_cover``
    chooses, or None if there is none: the first codeword (lexicographic) not
    yet covered goes to the first full clique through it, in codirection
    order, that misses the cliques chosen so far, backtracking on a dead end.
    Recursive, one level per clique, so for small codes only."""
    sp = code.space
    members = set(code_vertices(code))
    through: dict[Vertex, list[Clique]] = {v: [] for v in members}
    for cl in all_cliques(sp):
        vs = clique_vertices(sp, cl)
        if members.issuperset(vs):
            for v in vs:
                through[v].append(cl)
    order = sorted(members)

    def extend(covered: frozenset, chosen: list[Clique]) -> Optional[list[Clique]]:
        v = next((v for v in order if v not in covered), None)
        if v is None:
            return chosen
        for cl in through[v]:
            vs = clique_vertices(sp, cl)
            if covered.isdisjoint(vs):
                found = extend(covered.union(vs), chosen + [cl])
                if found is not None:
                    return found
        return None

    return extend(frozenset(), [])


def product_identity(q: int, r: int, s: int, t: int) -> bool:
    """(q-s)*t*r = s*(q-t)*(q-r), the solvability condition on block sizes."""
    return (q - s) * t * r == s * (q - t) * (q - r)


def grid_exists(q: int, qp: int, gamma: int) -> bool:
    """Whether an (a,b)-stochastic set with a+b = gamma exists in the q x q'
    grid: a = q*gamma/(q+q') and b = gamma - a must be whole, with
    1 <= a <= q and 1 <= b <= q'."""
    if gamma < 1 or (q * gamma) % (q + qp):
        return False
    a = q * gamma // (q + qp)
    return 0 < a <= q and 0 < gamma - a <= qp


def normalized_params(triples) -> set:
    """{(gamma, beta, index)} -> {(min(gamma,beta), index)}."""
    return {(min(g, b), i) for (g, b, i) in triples}


def h3q_table_entries(q_max: int) -> list[tuple[int, int, int]]:
    """(q, gamma, index) of every entry of feasible_table(3, q), 2 <= q <= q_max."""
    return [(q, gamma, index) for q in range(2, q_max + 1)
            for index, row in feasible_table(3, q).items() for gamma, _ in row]


def spectral_support(code: Code) -> set[int]:
    """The character weights on which the centred indicator of the code has
    energy above 1e-9.  The characters of Z_q^n are indexed by frequency
    vectors, and the weight of one is its number of nonzero coordinates; the
    energy of a weight is the summed |FFT|^2 / q^n over its frequencies.  A
    rho = 1 completely regular code lives on exactly one weight, its
    eigenvalue index: an oracle independent of line-sum counting."""
    sp = code.space
    f = code.grid.astype(float)
    f -= f.mean()
    energy = np.abs(np.fft.fftn(f)) ** 2 / sp.size
    nonzero = (np.arange(sp.q) != 0).astype(int)
    weight = sum(np.ix_(*[nonzero] * sp.n))
    per_weight = np.bincount(np.ravel(weight), weights=energy.ravel(), minlength=sp.n + 1)
    return {w for w, e in enumerate(per_weight.tolist()) if e > 1e-9}


def count_line_regular_matrices(q: int, r: int) -> int:
    """The q x q 0/1 matrices with every row and column sum r (OEIS A001499 at
    r = 2, A001501 at r = 3): a DP over column-sum vectors, adding one row of
    r ones at a time.  A vector is kept sorted, since the number of ways to
    complete a matrix does not depend on the order of its columns."""
    states = {(0,) * q: 1}
    for _ in range(q):
        nxt: dict[tuple[int, ...], int] = {}
        for sums, ways in states.items():
            for cols in itertools.combinations(range(q), r):
                new = list(sums)
                for c in cols:
                    new[c] += 1
                if max(new) <= r:
                    key = tuple(sorted(new))
                    nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return states.get((r,) * q, 0)


def count_latin_squares(q: int) -> int:
    """The Latin squares of order q (OEIS A002860), row by row: each row is a
    permutation of the symbols that repeats no symbol in a column above it.
    Exhaustive over the q! permutations of each row, so meant for q <= 4:
    q = 5 runs for tens of seconds."""
    perms = list(itertools.permutations(range(q)))

    def extend(rows: list[tuple[int, ...]]) -> int:
        if len(rows) == q:
            return 1
        return sum(extend(rows + [p]) for p in perms
                   if all(p[c] != row[c] for row in rows for c in range(q)))

    return extend([])


def collect(into: list):
    """A search sink that appends each found code to ``into`` and drops its
    certificate."""
    return lambda code, cert: into.append(code)


def all_vertex_subsets(sp: Space):
    """Every proper nonempty subset of a (tiny) space, as vertex tuples."""
    verts = list(vertices(sp))
    for bits in range(1, 2 ** sp.size - 1):
        yield [verts[i] for i in range(sp.size) if bits >> i & 1]


REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def src_env() -> dict:
    """The environment with ./src first on PYTHONPATH."""
    path = [os.path.join(REPO, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run the interpreter with the given arguments in the repository root, against ./src.
    Keyword arguments go to ``subprocess.run``."""
    return subprocess.run([sys.executable, *args], cwd=REPO, env=src_env(), capture_output=True,
                          text=True, timeout=120, **kwargs)


def run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run a Python snippet under ``python -O`` (asserts stripped) against ./src."""
    prelude = "assert False, 'asserts are live'\n"   # stripped by -O, else fails loudly
    return run_python("-O", "-c", prelude + textwrap.dedent(script))


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


def reference_distance_partition(code: Code) -> tuple[np.ndarray, ...]:
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
    return tuple(layers)


def reference_check_crc(code: Code) -> CheckResult:
    sp = code.space
    if code.size == 0 or code.size == sp.size:
        raise ValueError("code must be a proper nonempty vertex subset")
    layers = reference_distance_partition(code)
    rho = len(layers) - 1
    counts = [reference_neighbor_counts(sp, layer) for layer in layers]

    best = None  # (vertex index, direction priority, failure record)
    gammas: list[int] = []
    betas: list[int] = []
    for i, layer in enumerate(layers):
        members = np.flatnonzero(layer)
        # direction 0 = toward the code, direction 1 = away from it
        for direction, target in ((0, i - 1), (1, i + 1)):
            if not 0 <= target <= rho:
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
    return CrcCertificate(sp.n, sp.q, rho, code.size, tuple(betas), tuple(gammas))


# The one-pass rho = 1 decision from whole count arrays: every vertex's
# in-code neighbor count, the rule read off the counts with whole-space
# argmax and where, and the three-pass verifier above for codes it leaves
# undecided.  The reference that ``check_crc``'s slabs of line totals and
# ``certify_rho1``'s whole (L, V) totals must match field by field.

def reference_rho1_rule(space: Space, masks: np.ndarray):
    """(counts, inner, gamma, bad, proper) per row: each row's first codeword
    fixes ``inner``, its in-code neighbors, and its first non-codeword
    ``gamma``; ``bad`` marks every vertex whose count differs from its
    side's, and ``proper`` whether the row is a nonempty, non-full set."""
    c = np.array([reference_neighbor_counts(space, m) for m in masks]).reshape(masks.shape)
    rows = np.arange(len(masks))
    first_in, first_out = masks.argmax(axis=1), masks.argmin(axis=1)
    inner, gamma = c[rows, first_in], c[rows, first_out]
    bad = c != np.where(masks, inner[:, None], gamma[:, None])
    return c, inner, gamma, bad, masks[rows, first_in] & ~masks[rows, first_out]


def reference_certify_rho1(space: Space, masks: np.ndarray):
    """(gamma, beta, ok) per row, as ``certify_rho1`` defines them."""
    _, inner, gamma, bad, proper = reference_rho1_rule(space, masks)
    return gamma, space.valency - inner, ~bad.any(axis=1) & (gamma > 0) & proper


def reference_one_pass_check(code: Code) -> CheckResult:
    sp, mask = code.space, code.mask
    if code.size == 0 or code.size == sp.size:
        raise ValueError("code must be a proper nonempty vertex subset")
    c, inner, gamma, bad, _ = reference_rho1_rule(sp, mask[None])
    c, inner, gamma, bad = c[0], int(inner[0]), int(gamma[0]), bad[0]
    k = sp.valency
    if gamma > 0:
        v = int(np.argmax(bad))
        if not bad[v]:
            return CrcCertificate(sp.n, sp.q, 1, code.size, (k - inner,), (gamma,))
        if not ((c == 0) & ~mask).any():
            if mask[v]:
                return CrcFailure(sp.vertex(v), 0, 1, k - int(c[v]), k - inner)
            return CrcFailure(sp.vertex(v), 1, 0, int(c[v]), gamma)
    return reference_check_crc(code)


# The code-file writer and reader one codeword at a time: the reference that
# the whole-array ``dumps_code`` and ``read_code`` must match byte for byte
# and error message for error message.

def reference_rows(words) -> str:
    """The codeword lines of a code file, one json.dumps per word."""
    return ",\n".join("    " + json.dumps(list(w)) for w in words)


def reference_dumps_code(code: Code, meta: Optional[dict] = None) -> str:
    rows = reference_rows(code_vertices(code))
    meta_json = json.dumps(meta or {}, sort_keys=True, separators=(", ", ": "))
    return (
        "{\n"
        f'  "format": {json.dumps(FORMAT)},\n'
        f'  "n": {code.space.n},\n'
        f'  "q": {code.space.q},\n'
        f'  "codewords": [\n{rows}\n  ],\n'
        f'  "meta": {meta_json}\n'
        "}\n"
    )


def reference_read_code(source: Union[str, TextIO]) -> tuple[Code, dict]:
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fp:
                text = fp.read()
        except OSError as e:
            raise CodeFileError(f"cannot read {source}: {e}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise CodeFileError(f"not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise CodeFileError("top level must be a JSON object")
    if obj.get("format") != FORMAT:
        raise CodeFileError(f'missing or wrong "format" tag (expected {FORMAT!r})')
    n, q = obj.get("n"), obj.get("q")
    if not (type(n) is int and type(q) is int):
        raise CodeFileError('"n" and "q" must be integers')
    try:
        space = Space(n, q)
    except ValueError as e:
        raise CodeFileError(str(e)) from e
    words = obj.get("codewords")
    if not isinstance(words, list):
        raise CodeFileError('"codewords" must be a list')
    seen = set()
    for w in words:
        if not (isinstance(w, list) and len(w) == n
                and all(type(c) is int and 0 <= c < q for c in w)):
            raise CodeFileError(f"bad codeword {w!r} for H({n},{q})")
        tw = tuple(w)
        if tw in seen:
            raise CodeFileError(f"duplicate codeword {w!r}")
        seen.add(tw)
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise CodeFileError('"meta" must be an object')
    return code_of(space, seen), meta


# One derivative table at a time: the reference that the stacked
# ``classify`` / ``classify_all`` kernel must match class for class.

def derivative(code: Code, i: int, u: int, v: int) -> np.ndarray:
    """The read-only (q, q) int8 table of the derivative (i, u, v) of a code in
    H(3,q): C with position i fixed to u, less C with it fixed to v."""
    q = code.space.q
    if code.space.n != 3:
        raise ValueError(f"derivatives are defined for n=3, got n={code.space.n}")
    if not 1 <= i <= 3:
        raise ValueError(f"position {i} out of 1..3")
    if not (0 <= u < q and 0 <= v < q):
        raise ValueError(f"symbols u={u}, v={v} out of 0..{q - 1}")
    g = code.grid.view(np.int8)
    vals = np.take(g, u, axis=i - 1) - np.take(g, v, axis=i - 1)
    vals.setflags(write=False)
    return vals


def reference_classify(vals: np.ndarray) -> DerivativeClass:
    q = vals.shape[0]
    if not vals.any():
        return DerivativeClass("zero")

    for axis in (1, 2):
        constant = (vals == vals[:, :1]).all() if axis == 1 else (vals == vals[:1, :]).all()
        if constant:
            line = vals[:, 0] if axis == 1 else vals[0, :]
            x = frozenset(np.flatnonzero(line == 1).tolist())
            y = frozenset(np.flatnonzero(line == -1).tolist())
            if x and y and len(x) == len(y):
                return DerivativeClass("string", axis=axis, x=x, y=y)

    rows = (vals == 1).any(axis=1)
    cols = (vals == -1).any(axis=0)
    x = frozenset(np.flatnonzero(rows).tolist())
    y = frozenset(np.flatnonzero(cols).tolist())
    if x and y and len(x) < q and len(y) < q and len(x) == len(y):
        # +1 exactly on X x (A-Y), -1 exactly on (A-X) x Y
        if (np.array_equal(vals == 1, rows[:, None] & ~cols[None, :])
                and np.array_equal(vals == -1, ~rows[:, None] & cols[None, :])):
            return DerivativeClass("cross", x=x, y=y)
    return DerivativeClass("unclassified")


def reference_classify_all(code: Code) -> dict[tuple[int, int, int], DerivativeClass]:
    out = {}
    q = code.space.q
    for i in (1, 2, 3):
        for u in range(q):
            for v in range(q):
                if u != v:
                    out[(i, u, v)] = reference_classify(derivative(code, i, u, v))
    return out


# The clique decomposition from a list of cliques, with Python sets of fixed
# symbols, and the line mask and each grid block filled cell by cell: the
# reference that ``clique_cover`` must match field by field.

def _reference_grid_block(cells: set[tuple[int, int]], rows: list[int],
                          cols: list[int]) -> np.ndarray:
    rpos = {r: i for i, r in enumerate(rows)}
    cpos = {c: i for i, c in enumerate(cols)}
    m = np.zeros((len(rows), len(cols)), dtype=bool)
    for r, c in cells:
        m[rpos[r], cpos[c]] = True
    return m


def reference_decompose(code: Code, cliques: Sequence[Clique]) -> CoverResult:
    q = code.space.q
    syms = set(range(q))
    cells = {1: set(), 2: set(), 3: set()}
    lines = np.zeros((3, q, q), dtype=bool)
    for cl in cliques:
        cells[cl.codirection].add(cl.fixed)
        lines[(cl.codirection - 1, *cl.fixed)] = True
    strong = all(cells[j] for j in (1, 2, 3))
    if not strong:
        return CliqueDecomposition(lines, False)

    s_set = {x2 for x2, _ in cells[1]}
    t_set = {x3 for _, x3 in cells[1]}
    r_set = {x1 for x1, _ in cells[2]}
    t2_set = {x3 for _, x3 in cells[2]}
    r3_set = {x1 for x1, _ in cells[3]}
    s3_set = {x2 for _, x2 in cells[3]}

    if t2_set != syms - t_set:
        return CliqueCoverFailure(
            "lemma-violated",
            detail="x3-symbols of codirection-2 cliques are not the complement "
                   "of the codirection-1 x3-symbols")
    if r3_set != syms - r_set or s3_set != syms - s_set:
        return CliqueCoverFailure(
            "lemma-violated",
            detail="codirection-3 symbol sets are not the complements of the "
                   "codirection-2 x1-set and codirection-1 x2-set")

    d1 = _reference_grid_block(cells[1], sorted(s_set), sorted(t_set))
    d2 = _reference_grid_block(cells[2], sorted(r_set), sorted(syms - t_set))
    d3 = _reference_grid_block(cells[3], sorted(syms - r_set), sorted(syms - s_set))
    p1 = stochastic.profile(d1)
    p2 = stochastic.profile(d2)
    p3 = stochastic.profile(d3)
    if p1 is None or p2 is None or p3 is None:
        which = [n for n, p in zip(("d1", "d2", "d3"), (p1, p2, p3)) if p is None]
        return CliqueCoverFailure(
            "lemma-violated", detail=f"block(s) {', '.join(which)} not doubly stochastic")
    if p2.a != p1.a or p3.a != p1.b or p3.b != p2.b:
        return CliqueCoverFailure(
            "lemma-violated",
            detail=f"block degrees disagree: d1={p1}, d2={p2}, d3={p3}")

    w = ConditionOneWitness(len(r_set), len(s_set), len(t_set), p1.a, p1.b, p2.b)
    if not check_condition1(code.space.q, w):
        return CliqueCoverFailure(
            "lemma-violated", detail=f"projected witness {w.as_tuple()} fails the block system")
    return CliqueDecomposition(lines, True, d1, d2, d3, w)


# The block-size triples by a scan of the whole (r, s, t) cube, a slab of r
# values at a time: the reference that the one-pass ``_identity_triples``
# over the (s, t) grid must match triple for triple.

def reference_identity_triples(q: int) -> tuple[tuple[int, int, int], ...]:
    rng = np.arange(1, q, dtype=np.int64)
    s_ = rng[:, None]
    t_ = rng[None, :]
    lhs = (q - s_) * t_
    rhs = s_ * (q - t_)
    step = max(1, (1 << 21) // rng.size ** 2)
    out: list[tuple[int, int, int]] = []
    for r0 in range(0, rng.size, step):
        r_ = rng[r0:r0 + step, None, None]
        ri, si, ti = np.nonzero(lhs * r_ == rhs * (q - r_))
        out.extend(zip((ri + r0 + 1).tolist(), (si + 1).tolist(), (ti + 1).tolist()))
    return tuple(out)


# The parity lift of ``build_b`` by one gather with three broadcast index
# arrays: the reference that the axis-by-axis ``take`` must match.

def reference_build_b(q: int, variant: int) -> Code:
    seed = [(0, 0, 0), (1, 1, 1)] + ([(1, 0, 0), (0, 1, 1)] if variant == 2 else [])
    lut = np.zeros((2, 2, 2), dtype=bool)
    for v in seed:
        lut[v] = True
    p = np.arange(q) % 2
    return Code(Space(3, q), lut[p[:, None, None], p[None, :, None], p[None, None, :]])
