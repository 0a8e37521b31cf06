"""Doubly-stochastic cell sets in a q x q' grid.

The grid is the vertex set of the clique product H(1,q) x H(1,q'); cells are
pairs (row, column).  A set is (a,b)-stochastic when every column (a size-q
clique) contains exactly a cells and every row (a size-q' clique) exactly b.
Counting both ways forces a*q' = b*q, so a is determined by the total degree
gamma = a + b via a = q*gamma/(q+q').

A cell set is held as a read-only (q, q') bool array, rows by columns.
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


def profile(cells: np.ndarray) -> Union[StochasticProfile, None]:
    """The (a,b) profile if column and row counts are each constant, else None."""
    col = cells.sum(axis=0)
    row = cells.sum(axis=1)
    if (col == col[0]).all() and (row == row[0]).all():
        return StochasticProfile(int(col[0]), int(row[0]))
    return None


def _degrees(q: int, qp: int, gamma: int) -> tuple[int, int]:
    if q < 1 or qp < 1:
        raise ValueError(f"grid sides q={q}, q'={qp} must be positive")
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


def build(q: int, qp: int, gamma: int) -> np.ndarray:
    """A canonical (a,b)-stochastic set, as a read-only (q, q') bool array:
    column i holds the cyclically shifted interval [i*a, i*a + a) of rows.

    Every column trivially has a cells.  Row counts are constant because the
    interval covers each residue class mod gcd(a,q) equally often and the
    shifts step through classes uniformly (a*q' = b*q makes the totals work
    out to b per row).
    """
    a, b = _degrees(q, qp, gamma)
    rows = np.arange(q)[:, None]
    cols = np.arange(qp)[None, :]
    cells = (rows - a * cols) % q < a
    cells.setflags(write=False)
    prof = profile(cells)
    if prof != StochasticProfile(a, b):
        raise RuntimeError(f"builder produced non-stochastic set: {prof}")
    return cells


def to_code(cells: np.ndarray) -> Code:
    """View a square cell set as a code in H(2,q): cell (x1,x2) -> vertex (x1,x2)."""
    q, qp = cells.shape
    if q != qp:
        raise ValueError(f"only square grids embed in H(2,q); got {q} x {qp}")
    return Code(Space(2, q), cells)
