"""Structure analysis of three-dimensional codes.

Two views of a code C in H(3,q):

- Derivative functions: fixing position i to symbol u or v and subtracting the
  two restrictions gives a {-1,0,+1} function on the remaining q x q square.
  For well-behaved codes each derivative is zero, a "string" (depends on one
  coordinate, +1 on X, -1 on Y with |X| = |Y|), or a "cross" (+1 on
  X x (A-Y), -1 on (A-X) x Y).
- Clique decompositions: when C is a disjoint union of maximal cliques, the
  partition is recovered, and if cliques of all three codirections occur the
  three bundles are projected to stochastic grid blocks whose sizes and
  degrees form a three-block system witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import stochastic
from .hamming import Clique, Code
from .parameters import ConditionOneWitness, check_condition1


@dataclass(frozen=True)
class DerivativeFunction:
    """A {-1,0,+1}-valued function on the q x q square left after dropping
    position i; entry [y1, y2] is C(..u..) - C(..v..) at the point whose
    remaining coordinates are (y1, y2) in position order."""

    q: int
    values: np.ndarray  # (q, q) int8

    def __post_init__(self):
        if self.values.shape != (self.q, self.q):
            raise ValueError(f"derivative table shape {self.values.shape} != ({self.q},{self.q})")


def derivative(code: Code, i: int, u: int, v: int) -> DerivativeFunction:
    if code.space.n != 3:
        raise ValueError(f"derivatives are defined for n=3, got n={code.space.n}")
    q = code.space.q
    if not 1 <= i <= 3:
        raise ValueError(f"position {i} out of 1..3")
    if not (0 <= u < q and 0 <= v < q):
        raise ValueError(f"symbols u={u}, v={v} out of 0..{q - 1}")
    g = code.grid
    vals = np.take(g, u, axis=i - 1).astype(np.int8) - np.take(g, v, axis=i - 1).astype(np.int8)
    vals.setflags(write=False)
    return DerivativeFunction(q, vals)


@dataclass(frozen=True)
class DerivativeClass:
    """kind is 'zero', 'string', 'cross', or 'unclassified'.  Strings carry
    the axis (1 or 2) they depend on plus the +1 set x and -1 set y; crosses
    carry the +1 row set x and -1 column set y."""

    kind: str
    axis: Union[int, None] = None
    x: Union[frozenset, None] = None
    y: Union[frozenset, None] = None


def classify(f: DerivativeFunction) -> DerivativeClass:
    """Try zero, then strings along each axis, then cross, else unclassified."""
    return _classify_stack(f.values[None])[0]


def classify_all(code: Code) -> dict[tuple[int, int, int], DerivativeClass]:
    """Classification of every derivative (i, u, v) with u != v."""
    if code.space.n != 3:
        raise ValueError(f"derivatives are defined for n=3, got n={code.space.n}")
    out = {}
    q = code.space.q
    symbols = frozenset(range(q))
    for i in (1, 2, 3):
        # s[u] is the restriction to symbol u in position i, so s[u] - s[u+1:]
        # stacks the derivatives (i, u, v) for v > u; (i, v, u) is its negation
        s = np.ascontiguousarray(np.moveaxis(code.grid, i - 1, 0), dtype=np.int8)
        table = [[None] * q for _ in range(q)]
        for u in range(q - 1):
            for v, c in enumerate(_classify_stack(s[u] - s[u + 1:]), start=u + 1):
                table[u][v] = c
                table[v][u] = _negated(c, symbols)
        for u, row in enumerate(table):
            for v, c in enumerate(row):
                if v != u:
                    out[(i, u, v)] = c
    return out


def _negated(c: DerivativeClass, symbols: frozenset) -> DerivativeClass:
    """The class of -f given the class of f: the tests are symmetric under
    negation except that a string swaps its +1 and -1 sets and a cross on
    X x (A-Y), (A-X) x Y becomes the cross of A-X and A-Y."""
    if c.kind == "string":
        return DerivativeClass("string", axis=c.axis, x=c.y, y=c.x)
    if c.kind == "cross":
        return DerivativeClass("cross", x=symbols - c.x, y=symbols - c.y)
    return c


_ZERO = DerivativeClass("zero")
_UNCLASSIFIED = DerivativeClass("unclassified")


def _classify_stack(d: np.ndarray) -> list[DerivativeClass]:
    """``classify`` of each (q, q) table in a (k, q, q) int8 stack: the same
    tests in the same order, decided for the whole stack at once."""
    q = d.shape[1]
    nonzero = d.any(axis=(1, 2))
    # axis 1: every row constant, so the value is a function of the row
    # (first remaining coordinate) given by column 0; axis 2 likewise
    line1, line2 = d[:, :, 0], d[:, 0, :]
    string1 = (d == line1[:, :, None]).all(axis=(1, 2)) & _balanced(line1)
    string2 = ~string1 & (d == line2[:, None, :]).all(axis=(1, 2)) & _balanced(line2)
    # cross: +1 exactly on X x (A-Y) and -1 on (A-X) x Y, i.e. d[r, c] = X[r] - Y[c]
    # with X the rows holding a +1 and Y the columns holding a -1
    rows_x, cols_y = (d == 1).any(axis=2), (d == -1).any(axis=1)
    nx, ny = rows_x.sum(axis=1), cols_y.sum(axis=1)
    cross = ~string1 & ~string2 & (nx > 0) & (nx == ny) & (nx < q)
    if cross.any():
        expected = rows_x[:, :, None].view(np.int8) - cols_y[:, None, :].view(np.int8)
        cross &= (d == expected).all(axis=(1, 2))
    # the +1 and -1 sets of each string or cross, as index lists
    plus = np.where(string1[:, None], line1 == 1,
                    np.where(string2[:, None], line2 == 1, rows_x))
    minus = np.where(string1[:, None], line1 == -1,
                     np.where(string2[:, None], line2 == -1, cols_y))
    xs, ys = _index_lists(plus), _index_lists(minus)
    out = []
    for k, (nz, s1, s2, c) in enumerate(zip(nonzero.tolist(), string1.tolist(),
                                             string2.tolist(), cross.tolist())):
        if not nz:
            out.append(_ZERO)
        elif s1 or s2:
            out.append(DerivativeClass("string", axis=1 if s1 else 2,
                                       x=frozenset(xs[k]), y=frozenset(ys[k])))
        elif c:
            out.append(DerivativeClass("cross", x=frozenset(xs[k]), y=frozenset(ys[k])))
        else:
            out.append(_UNCLASSIFIED)
    return out


def _balanced(line: np.ndarray) -> np.ndarray:
    """Per row of a (k, q) stack: some +1, some -1, and as many of each."""
    plus, minus = (line == 1).sum(axis=1), (line == -1).sum(axis=1)
    return (plus > 0) & (plus == minus)


def _index_lists(sel: np.ndarray) -> list[list[int]]:
    """Row-wise ``flatnonzero`` of a (k, q) boolean array, from one pass."""
    rows, cols = np.nonzero(sel)
    cols = cols.tolist()
    ends = np.cumsum(np.bincount(rows, minlength=sel.shape[0])).tolist()
    return [cols[a:b] for a, b in zip([0] + ends[:-1], ends)]


def full_cliques(code: Code) -> list[Clique]:
    """Maximal cliques lying entirely inside the code, codirection-major then
    fixed-lex."""
    g = code.grid
    out = []
    for j in range(code.space.n):
        arr = g.all(axis=j)
        for idx in np.argwhere(arr):
            out.append(Clique(j + 1, tuple(int(c) for c in idx)))
    return out


@dataclass(frozen=True)
class CliqueDecomposition:
    """A partition of a code into maximal cliques.

    ``strong`` means all three codirections occur; then the three bundles
    project to grid blocks d1 (rows = x2-set S, cols = x3-set T of the
    codirection-1 cliques), d2 (rows = x1-set R, cols = complement of T), d3
    (rows/cols = complements of R and S), each doubly stochastic, and
    ``witness`` collects (|R|, |S|, |T|, a, b, c)."""

    cliques: tuple[Clique, ...]
    strong: bool
    r_set: Union[frozenset, None] = None
    s_set: Union[frozenset, None] = None
    t_set: Union[frozenset, None] = None
    d1: Union[stochastic.GridSet, None] = None
    d2: Union[stochastic.GridSet, None] = None
    d3: Union[stochastic.GridSet, None] = None
    witness: Union[ConditionOneWitness, None] = None

    def by_codirection(self, j: int) -> tuple[Clique, ...]:
        return tuple(c for c in self.cliques if c.codirection == j)


@dataclass(frozen=True)
class CliqueCoverFailure:
    """Why no clique partition (or no lawful block structure) exists.

    kind 'not-clique-partition': ``witness_vertex`` is the first codeword in
    exactly ``cover_count`` (0 or >= 2) full cliques obstructing a partition.
    kind 'lemma-violated': a partition exists but its bundles break the
    complement/stochasticity laws; ``detail`` says which."""

    kind: str
    witness_vertex: Union[tuple, None] = None
    cover_count: Union[int, None] = None
    detail: str = ""


CoverResult = Union[CliqueDecomposition, CliqueCoverFailure]


def _grid_block(cells: set[tuple[int, int]], rows: list[int], cols: list[int]) -> stochastic.GridSet:
    rpos = {r: i for i, r in enumerate(rows)}
    cpos = {c: i for i, c in enumerate(cols)}
    m = np.zeros((len(rows), len(cols)), dtype=bool)
    for r, c in cells:
        m[rpos[r], cpos[c]] = True
    return stochastic.GridSet(len(rows), len(cols), m)


def clique_cover(code: Code) -> CoverResult:
    """Partition a code in H(3,q) into maximal cliques if possible.

    Codewords covered by no full clique refute immediately.  If every
    codeword lies in exactly one full clique the partition is forced;
    otherwise an exact-cover backtracking over the full cliques decides.
    """
    sp = code.space
    if sp.n != 3:
        raise ValueError(f"clique decomposition is implemented for n=3, got n={sp.n}")
    if code.size == 0:
        raise ValueError("empty code has no clique decomposition")
    q = sp.q
    g = code.grid
    fc = [g.all(axis=j) for j in range(3)]
    cnt = (fc[0][None, :, :].astype(np.int16)
           + fc[1][:, None, :]
           + fc[2][:, :, None])

    uncoverable = g & (cnt == 0)
    if uncoverable.any():
        v = tuple(int(c) for c in np.argwhere(uncoverable)[0])
        return CliqueCoverFailure("not-clique-partition", v, 0,
                                  "codeword lies in no full clique")

    if (cnt[g] == 1).all():
        chosen = full_cliques(code)
    else:
        chosen = _exact_cover(code, fc)
        if chosen is None:
            over = g & (cnt >= 2)
            v = tuple(int(c) for c in np.argwhere(over)[0])
            return CliqueCoverFailure("not-clique-partition", v, int(cnt[v]),
                                      "full cliques overlap and admit no exact cover")

    return _decompose(code, chosen)


def _exact_cover(code: Code, fc: list[np.ndarray]) -> Union[list[Clique], None]:
    """Deterministic backtracking: cover the first uncovered codeword by the
    least clique (codirection order) disjoint from the cover so far.  The
    search keeps its own stack, since a cover can hold thousands of cliques.
    The cliques come back in the order chosen; ``_decompose`` sorts them."""
    q = code.space.q
    members = [tuple(x) for x in np.argwhere(code.grid).tolist()]
    covered = np.zeros((q, q, q), dtype=bool)
    chosen: list[tuple[int, tuple]] = []  # (codirection axis j, fixed)

    def line(j: int, fixed: tuple) -> tuple:
        return fixed[:j] + (slice(None),) + fixed[j:]

    # One frame per chosen clique: the cursor position of the codeword it
    # covers and the next candidate to try there on backtracking.
    stack: list[tuple[int, int]] = []
    pos, k = 0, 0
    while True:
        while pos < len(members) and covered[members[pos]]:
            pos += 1
        if pos == len(members):
            return [Clique(j + 1, fixed) for j, fixed in chosen]
        x = members[pos]
        cands = [(j, x[:j] + x[j + 1:]) for j in range(3) if fc[j][x[:j] + x[j + 1:]]]
        while k < len(cands) and covered[line(*cands[k])].any():
            k += 1
        if k < len(cands):
            covered[line(*cands[k])] = True
            chosen.append(cands[k])
            stack.append((pos, k + 1))
            k = 0
            continue
        if not stack:
            return None
        pos, k = stack.pop()
        covered[line(*chosen.pop())] = False


def _decompose(code: Code, chosen: list[Clique]) -> CoverResult:
    q = code.space.q
    syms = set(range(q))
    cells = {1: set(), 2: set(), 3: set()}
    for cl in chosen:
        cells[cl.codirection].add(cl.fixed)
    strong = all(cells[j] for j in (1, 2, 3))
    decomposition = CliqueDecomposition(tuple(sorted(
        chosen, key=lambda c: (c.codirection, c.fixed))), strong)
    if not strong:
        return decomposition

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

    d1 = _grid_block(cells[1], sorted(s_set), sorted(t_set))
    d2 = _grid_block(cells[2], sorted(r_set), sorted(syms - t_set))
    d3 = _grid_block(cells[3], sorted(syms - r_set), sorted(syms - s_set))
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
    return CliqueDecomposition(decomposition.cliques, True,
                               frozenset(r_set), frozenset(s_set), frozenset(t_set),
                               d1, d2, d3, w)


def extract_construction_d(code: Code) -> tuple[int, ConditionOneWitness,
                                                tuple[stochastic.GridSet, stochastic.GridSet,
                                                      stochastic.GridSet]]:
    """Recover (q, witness, blocks) from a code that is a disjoint union of
    cliques of all three codirections."""
    res = clique_cover(code)
    if isinstance(res, CliqueCoverFailure):
        raise ValueError(f"no clique partition: {res.kind} ({res.detail or res.witness_vertex})")
    if not res.strong:
        raise ValueError("clique partition lacks one of the three codirections")
    return code.space.q, res.witness, (res.d1, res.d2, res.d3)
