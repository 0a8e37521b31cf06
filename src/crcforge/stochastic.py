"""Doubly-stochastic cell sets in a q x q' grid.

The grid is the vertex set of the clique product H(1,q) x H(1,q'); cells are
pairs (row, column).  A set is (a,b)-stochastic when every column (a size-q
clique) contains exactly a cells and every row (a size-q' clique) exactly b.
Counting both ways forces a*q' = b*q, so a is determined by the total degree
gamma = a + b via a = q*gamma/(q+q').
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .hamming import Code, Space


@dataclass(frozen=True)
class StochasticProfile:
    a: int  # per-column count
    b: int  # per-row count

    @property
    def gamma(self) -> int:
        return self.a + self.b


class GridSet:
    """A subset of the q x q' grid, stored as a boolean matrix (rows x columns)."""

    __slots__ = ("q", "qp", "_cells")

    def __init__(self, q: int, qp: int, cells: np.ndarray):
        if q < 1 or qp < 1:
            raise ValueError(f"invalid grid dimensions {q} x {qp}")
        cells = np.ascontiguousarray(cells, dtype=bool)
        if cells.shape != (q, qp):
            raise ValueError(f"cell matrix shape {cells.shape} does not match {q} x {qp}")
        cells = cells.copy()
        cells.setflags(write=False)
        self.q = q
        self.qp = qp
        self._cells = cells

    @property
    def cells(self) -> np.ndarray:
        return self._cells

    @property
    def size(self) -> int:
        return int(self._cells.sum())

    @property
    def is_full(self) -> bool:
        return bool(self._cells.all())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridSet):
            return NotImplemented
        return (self.q, self.qp) == (other.q, other.qp) and bool(
            np.array_equal(self._cells, other._cells))

    def __hash__(self) -> int:
        return hash((self.q, self.qp, self._cells.tobytes()))

    def __repr__(self) -> str:
        return f"GridSet({self.q}x{self.qp}, size={self.size})"

    def render(self) -> str:
        return "\n".join("".join("*" if c else "." for c in row) for row in self._cells)


def profile(grid: GridSet) -> Union[StochasticProfile, None]:
    """The (a,b) profile if column and row counts are each constant, else None."""
    col = grid.cells.sum(axis=0)
    row = grid.cells.sum(axis=1)
    if (col == col[0]).all() and (row == row[0]).all():
        return StochasticProfile(int(col[0]), int(row[0]))
    return None


def _degrees(q: int, qp: int, gamma: int) -> tuple[int, int]:
    if gamma < 1:
        raise ValueError(f"total degree gamma={gamma} must be positive")
    if (q * gamma) % (q + qp) != 0:
        raise ValueError(
            f"divisibility violated: (q+q') = {q + qp} must divide q*gamma = {q * gamma}")
    a = q * gamma // (q + qp)
    b = gamma - a
    if not (0 < a <= q and 0 < b <= qp):
        raise ValueError(f"degrees out of range: a={a} (1..{q}), b={b} (1..{qp})")
    return a, b


def exists(q: int, qp: int, gamma: int) -> bool:
    """Whether an (a,b)-stochastic set with a+b = gamma exists in the q x q' grid."""
    try:
        _degrees(q, qp, gamma)
    except ValueError:
        return False
    return True


def build(q: int, qp: int, gamma: int) -> GridSet:
    """A canonical (a,b)-stochastic set: column i holds the cyclically shifted
    interval [i*a, i*a + a) of rows.

    Every column trivially has a cells.  Row counts are constant because the
    interval covers each residue class mod gcd(a,q) equally often and the
    shifts step through classes uniformly (a*q' = b*q makes the totals work
    out to b per row).
    """
    a, b = _degrees(q, qp, gamma)
    rows = np.arange(q)[:, None]
    cols = np.arange(qp)[None, :]
    cells = (rows - a * cols) % q < a
    grid = GridSet(q, qp, cells)
    prof = profile(grid)
    if prof != StochasticProfile(a, b):
        raise RuntimeError(f"builder produced non-stochastic set: {prof}")
    return grid


def to_code(grid: GridSet) -> Code:
    """View a square grid set as a code in H(2,q): cell (x1,x2) -> vertex (x1,x2)."""
    if grid.q != grid.qp:
        raise ValueError(f"only square grids embed in H(2,q); got {grid.q} x {grid.qp}")
    return Code(Space(2, grid.q), grid.cells)
