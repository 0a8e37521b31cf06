"""Structure analysis of three-dimensional codes.

Two views of a code C in H(3,q):

- Derivative functions: fixing position i to symbol u or v and subtracting the
  two restrictions gives a {-1,0,+1} function on the remaining q x q square,
  a (q, q) int8 table whose entry [y1, y2] is C(..u..) - C(..v..) at the
  point with remaining coordinates (y1, y2) in position order.
  For well-behaved codes each derivative is zero, a "string" (depends on one
  coordinate, +1 on X, -1 on Y with |X| = |Y|), or a "cross" (+1 on
  X x (A-Y), -1 on (A-X) x Y).  One rule decides the kind from line counts
  (``_kind``): ``classify`` counts one table, and ``derivative_kinds``
  counts every derivative at once from batched products over slabs of
  lines.  ``classify_all`` takes its kinds from ``derivative_kinds``; both
  read the +1 and -1 sets of a string or cross off the derivative's table.
- Clique decompositions: a partition of C into maximal cliques is one
  read-only (3, q, q) bool line mask, entry [j - 1, a, b] marking the
  codirection-j clique with fixed symbols (a, b).  A cover that is not
  forced is searched over one bytearray of the codewords not yet covered,
  scanned and sliced at C speed.  If all three codirections occur, the
  masks' row and column supports give the symbol sets R, S, T, and the
  masks sliced to their blocks give a three-block witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import stochastic
from .hamming import Code
from .parameters import ConditionOneWitness, check_condition1


@dataclass(frozen=True)
class DerivativeClass:
    """kind is 'zero', 'string', 'cross', or 'unclassified'.  Strings carry
    the axis (1 or 2) they depend on plus the +1 set x and -1 set y; crosses
    carry the +1 row set x and -1 column set y."""

    kind: str
    axis: Union[int, None] = None
    x: Union[frozenset, None] = None
    y: Union[frozenset, None] = None


# The codes of ``derivative_kinds`` index this tuple.
KINDS = ("zero", "string", "cross", "unclassified")
ZERO, STRING, CROSS, UNCLASSIFIED = range(len(KINDS))

# Entries of G in one slab of lines, so that memory stays bounded at any q.
_SLAB_ENTRIES = 1 << 16


def _kind(q: int, p, m, rows_p, rows_m, cols_p, cols_m, row_both, col_both) -> np.ndarray:
    """The KINDS codes of derivatives with p +1 and m -1 cells, rows_p rows
    and cols_p columns holding a +1 (rows_m, cols_m a -1), and row_both /
    col_both true where some row / column holds both; elementwise over any
    shape.  A string along rows has each row that holds a sign full of it,
    and as many +1 rows as -1 rows; along columns likewise.  A cross, +1 on
    X x (A-Y) and -1 on (A-X) x Y with X the +1 rows and Y the -1 columns,
    has no line holding both signs, so P and M lie within those products
    and their sizes decide."""
    zero = (p == 0) & (m == 0)
    string = (((p == q * rows_p) & (m == q * rows_m) & (rows_p == rows_m))
              | ((p == q * cols_p) & (m == q * cols_m) & (cols_p == cols_m)))
    cross = ((rows_p == cols_m) & (p == rows_p * (q - cols_m)) & (m == (q - rows_p) * cols_m)
             & ~row_both & ~col_both)
    return np.select([zero, string, cross], [ZERO, STRING, CROSS], UNCLASSIFIED).astype(np.int8)


def _class(table: Union[np.ndarray, None], kind: int) -> DerivativeClass:
    """The ``DerivativeClass`` of a (q, q) table of a known kind; zero and
    unclassified carry no sets and need no table.  A string's +1 and -1
    sets are read off one column if its rows are constant (axis 1), else off
    one row (axis 2): no string is constant along both axes.  A cross's are
    the rows holding a +1 and the columns holding a -1."""
    if kind == STRING:
        axis = 1 if (table == table[:, :1]).all() else 2
        line = table[:, 0] if axis == 1 else table[0]
        plus, minus = line == 1, line == -1
    elif kind == CROSS:
        axis, plus, minus = None, (table == 1).any(axis=1), (table == -1).any(axis=0)
    else:
        return DerivativeClass(KINDS[kind])
    x, y = (frozenset(np.flatnonzero(m).tolist()) for m in (plus, minus))
    return DerivativeClass(KINDS[kind], axis, x, y)


def classify(table: np.ndarray) -> DerivativeClass:
    """The class of one derivative's (q, q) table of -1, 0 and +1: zero, then
    strings along each axis, then cross, else unclassified."""
    q = table.shape[-1]
    if table.shape != (q, q):
        raise ValueError(f"derivative table shape {table.shape} != ({q},{q})")
    plus, minus = table == 1, table == -1
    if not (plus | minus | (table == 0)).all():
        raise ValueError("derivative table values must lie in {-1, 0, 1}")
    rows_p, rows_m, cols_p, cols_m = plus.any(1), minus.any(1), plus.any(0), minus.any(0)
    kind = _kind(q, plus.sum(), minus.sum(), rows_p.sum(), rows_m.sum(), cols_p.sum(),
                 cols_m.sum(), (rows_p & rows_m).any(), (cols_p & cols_m).any())
    return _class(table, int(kind))


def derivative_kinds(code: Code) -> np.ndarray:
    """The kind of every derivative, as a (3, q, q) int8 array: entry
    [i - 1, u, v] indexes KINDS for the derivative (i, u, v).  The diagonal
    u = v is the zero function.  Builds no per-derivative objects.

    A line of the square of position i is a (u, x) matrix over the symbol u
    in position i; G[line, u, v], its cells in both C_u and C_v, is one
    batched product per slab of lines.  P's cells on the line are
    d[line, u] - G and M's are d[line, v] - G, so one array serves (u, v)
    and (v, u)."""
    if code.space.n != 3:
        raise ValueError(f"derivatives are defined for n=3, got n={code.space.n}")
    q = code.space.q
    squares = [np.moveaxis(code.grid, i, 0) for i in range(3)]  # [u, row, column]
    size = np.zeros((3, q, q), dtype=np.float32)    # |P|
    held = np.zeros((3, 2, q, q), dtype=np.int32)   # rows, columns holding a +1
    both = np.zeros((3, 2, q, q), dtype=bool)       # some row, column holds +1 and -1
    step = max(1, _SLAB_ENTRIES // (6 * q * q))
    for k in (slice(a, a + step) for a in range(0, q, step)):
        # [i, rows or columns, line, u, x] for the lines k of each kind
        lines = np.array([(s[:, k].transpose(1, 0, 2), s[:, :, k].transpose(2, 0, 1))
                          for s in squares], dtype=np.float32)
        # exact in float32: q^3 <= 2^32 gives q <= 1625, so every sum is below 2^24.
        # A contiguous right operand keeps the product on BLAS.
        p = lines @ np.ascontiguousarray(lines.swapaxes(-1, -2))
        d = p.diagonal(axis1=-2, axis2=-1).copy()   # d[..., u] = G[..., u, u]
        np.subtract(d[..., None], p, out=p)
        size += p[:, 0].sum(axis=1)
        pos = p > 0
        held += pos.sum(axis=2, dtype=held.dtype)
        both |= (pos & pos.swapaxes(-1, -2)).any(axis=2)
    rows, cols = held[:, 0], held[:, 1]
    return _kind(q, size, size.swapaxes(-1, -2), rows, rows.swapaxes(-1, -2), cols,
                 cols.swapaxes(-1, -2), both[:, 0], both[:, 1])


def classify_all(code: Code) -> dict[tuple[int, int, int], DerivativeClass]:
    """Classification of every derivative (i, u, v) with u != v: the kinds
    of ``derivative_kinds``, with the sets of each string and cross read off
    its table."""
    kinds = derivative_kinds(code)
    g = code.grid.view(np.int8)
    out = {}
    for (i, u, v), kind in zip(np.ndindex(kinds.shape), kinds.ravel().tolist()):
        if u != v:
            table = np.take(g, u, i) - np.take(g, v, i) if kind in (STRING, CROSS) else None
            out[(i + 1, u, v)] = _class(table, kind)
    return out


@dataclass(frozen=True, eq=False)
class CliqueDecomposition:
    """A partition of a code into maximal cliques.

    ``lines`` is the read-only (3, q, q) bool mask of the cliques, entry
    [j - 1, a, b] marking the codirection-j clique whose fixed symbols are
    (a, b) in position order, as in ``verifier.clique_profile`` at n = 3.
    ``strong`` means all three codirections occur; then the three bundles
    project to grid blocks d1 (rows = x2-set S, cols = x3-set T of the
    codirection-1 cliques), d2 (rows = x1-set R, cols = complement of T), d3
    (rows/cols = complements of R and S), each a doubly stochastic read-only
    bool array, and ``witness`` collects (|R|, |S|, |T|, a, b, c).  Array
    fields make two decompositions equal only when they are one object."""

    lines: np.ndarray
    strong: bool
    d1: Union[np.ndarray, None] = None
    d2: Union[np.ndarray, None] = None
    d3: Union[np.ndarray, None] = None
    witness: Union[ConditionOneWitness, None] = None


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


def clique_cover(code: Code) -> CoverResult:
    """Partition a code in H(3,q) into maximal cliques if possible.

    Codewords covered by no full clique refute immediately.  If every
    codeword lies in exactly one full clique the partition is forced;
    otherwise, unless q does not divide the code's size, an exact-cover
    backtracking over the full cliques decides.
    """
    sp = code.space
    if sp.n != 3:
        raise ValueError(f"clique decomposition is implemented for n=3, got n={sp.n}")
    if code.size == 0:
        raise ValueError("empty code has no clique decomposition")
    g = code.grid
    fc = np.stack([g.all(axis=j) for j in range(3)])
    cnt = fc[0][None, :, :].astype(np.int16) + fc[1][:, None, :] + fc[2][:, :, None]

    uncoverable = g & (cnt == 0)
    if uncoverable.any():
        v = tuple(int(c) for c in np.argwhere(uncoverable)[0])
        return CliqueCoverFailure("not-clique-partition", v, 0,
                                  "codeword lies in no full clique")

    if (cnt[g] == 1).all():
        chosen = fc
    else:
        # every clique holds q codewords, so no cover exists unless q | |C|
        chosen = _exact_cover(code, fc) if code.size % sp.q == 0 else None
        if chosen is None:
            over = g & (cnt >= 2)
            v = tuple(int(c) for c in np.argwhere(over)[0])
            return CliqueCoverFailure("not-clique-partition", v, int(cnt[v]),
                                      "full cliques overlap and admit no exact cover")

    return _decompose(code, chosen)


def _exact_cover(code: Code, fc: np.ndarray) -> Union[np.ndarray, None]:
    """Deterministic backtracking: cover the first uncovered codeword by the
    least clique (codirection order) disjoint from the cover so far.  The
    state is one bytearray over the flat vertices, 1 on the codewords not yet
    covered: ``find`` gives the next one, a full line is disjoint from the
    cover when its strided slice holds no 0, and slice assignment covers it
    or, on backtracking, uncovers it.  The search keeps its own stack, since
    a cover can hold thousands of cliques.  The cover comes back as a line
    mask in the form of ``fc``."""
    q = code.space.q
    qq = q * q
    left = bytearray(code.mask.tobytes())
    full = fc.tobytes()  # j * q^2 + flat index into fc[j]
    zeros, ones = bytes(q), b"\x01" * q
    # One frame per chosen clique: the position of the codeword it covers,
    # the next candidate to try there on backtracking, its key into ``full``
    # and its line as a slice of the flat vertices.
    stack: list[tuple[int, int, int, slice]] = []
    pos, k = 0, 0
    while True:
        pos = left.find(1, pos)
        if pos < 0:
            lines = np.zeros((3, q, q), dtype=bool)
            lines.flat[[key for _, _, key, _ in stack]] = True
            return lines
        x1, rest = divmod(pos, qq)
        x2, x3 = divmod(rest, q)
        cands = [c for c in ((rest, slice(rest, None, qq)),
                             (qq + x1 * q + x3, slice(pos - x2 * q, pos - x2 * q + qq, q)),
                             (2 * qq + pos // q, slice(pos - x3, pos - x3 + q)))
                 if full[c[0]]]
        while k < len(cands) and 0 in left[cands[k][1]]:
            k += 1
        if k < len(cands):
            left[cands[k][1]] = zeros
            stack.append((pos, k + 1, *cands[k]))
            k = 0
            continue
        if not stack:
            return None
        pos, k, _, line = stack.pop()
        left[line] = ones


def _decompose(code: Code, lines: np.ndarray) -> CoverResult:
    """The decomposition into the cliques that the line mask ``lines`` marks,
    in the form of ``fc``: codirection-1 lines indexed by (x2, x3), 2 by
    (x1, x3) and 3 by (x1, x2).  Freezes ``lines``, which it keeps."""
    lines.setflags(write=False)
    c1, c2, c3 = lines
    if not (c1.any() and c2.any() and c3.any()):
        return CliqueDecomposition(lines, False)

    s, t, r = c1.any(axis=1), c1.any(axis=0), c2.any(axis=1)
    if not np.array_equal(c2.any(axis=0), ~t):
        return CliqueCoverFailure(
            "lemma-violated",
            detail="x3-symbols of codirection-2 cliques are not the complement "
                   "of the codirection-1 x3-symbols")
    if not (np.array_equal(c3.any(axis=1), ~r) and np.array_equal(c3.any(axis=0), ~s)):
        return CliqueCoverFailure(
            "lemma-violated",
            detail="codirection-3 symbol sets are not the complements of the "
                   "codirection-2 x1-set and codirection-1 x2-set")

    d1, d2, d3 = c1[np.ix_(s, t)], c2[np.ix_(r, ~t)], c3[np.ix_(~r, ~s)]
    for d in (d1, d2, d3):
        d.setflags(write=False)
    p1, p2, p3 = stochastic.profile(d1), stochastic.profile(d2), stochastic.profile(d3)
    if p1 is None or p2 is None or p3 is None:
        which = [n for n, p in zip(("d1", "d2", "d3"), (p1, p2, p3)) if p is None]
        return CliqueCoverFailure(
            "lemma-violated", detail=f"block(s) {', '.join(which)} not doubly stochastic")
    if p2.a != p1.a or p3.a != p1.b or p3.b != p2.b:
        return CliqueCoverFailure(
            "lemma-violated",
            detail=f"block degrees disagree: d1={p1}, d2={p2}, d3={p3}")

    w = ConditionOneWitness(int(r.sum()), int(s.sum()), int(t.sum()), p1.a, p1.b, p2.b)
    if not check_condition1(code.space.q, w):
        return CliqueCoverFailure(
            "lemma-violated", detail=f"projected witness {w.as_tuple()} fails the block system")
    return CliqueDecomposition(lines, True, d1, d2, d3, w)


def extract_construction_d(code: Code) -> tuple[int, ConditionOneWitness,
                                                tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Recover (q, witness, blocks) from a code that is a disjoint union of
    cliques of all three codirections."""
    res = clique_cover(code)
    if isinstance(res, CliqueCoverFailure):
        raise ValueError(f"no clique partition: {res.kind} ({res.detail or res.witness_vertex})")
    if not res.strong:
        raise ValueError("clique partition lacks one of the three codirections")
    return code.space.q, res.witness, (res.d1, res.d2, res.d3)
