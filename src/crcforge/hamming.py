"""Hamming graphs H(n,q) and vertex subsets (codes) stored as dense indicators.

Vertices are q-ary n-tuples; two vertices are adjacent iff they differ in
exactly one position.  Positions are 1-based in every public interface.
Vertex indices are lexicographic with position 1 most significant, so the
indicator array of a code reshapes to shape (q,)*n with axis j-1 = position j.
A code is built from its indicator alone: vertex tuples vs index it by
``np.ravel_multi_index(np.array(vs).T, space.shape)``, and ``Space.vertex``
maps an index back to its tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest vertex count a Space may have.  Dense per-code indicators make
# anything near this cap impractical anyway, but construction must not
# silently overflow below it.
SPACE_CAP = 2**32

Vertex = tuple[int, ...]


@dataclass(frozen=True)
class Space:
    """The Hamming graph H(n,q)."""

    n: int
    q: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.q < 2:
            raise ValueError(f"invalid dimensions: need n >= 1 and q >= 2, got n={self.n} q={self.q}")
        # q >= 2, so n beyond the cap's bit length is too large: decided
        # before the power, which a huge n would take long to compute
        if self.n > SPACE_CAP.bit_length() or self.q ** self.n > SPACE_CAP:
            raise ValueError(f"space too large: q^n = {self.q}^{self.n} exceeds cap {SPACE_CAP}")

    @property
    def size(self) -> int:
        return self.q ** self.n

    @property
    def valency(self) -> int:
        return self.n * (self.q - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.q,) * self.n

    def vertex(self, i: int) -> Vertex:
        if not 0 <= i < self.size:
            raise ValueError(f"vertex index {i} out of range for H({self.n},{self.q})")
        coords = []
        for _ in range(self.n):
            coords.append(i % self.q)
            i //= self.q
        return tuple(reversed(coords))


class Code:
    """A subset of the vertices of a Hamming space.

    Stored as a flat immutable boolean indicator over vertex indices.
    """

    __slots__ = ("space", "_mask")

    def __init__(self, space: Space, mask: np.ndarray):
        mask = np.array(mask, dtype=bool, order="C")  # later writes to the source never reach it
        mask.setflags(write=False)  # before the reshape, so that no view of it is writable
        if mask.shape == space.shape:
            mask = mask.reshape(space.size)
        if mask.shape != (space.size,):
            raise ValueError(f"indicator shape {mask.shape} does not match H({space.n},{space.q})")
        self.space = space
        self._mask = mask

    @property
    def mask(self) -> np.ndarray:
        return self._mask

    @property
    def grid(self) -> np.ndarray:
        """Indicator reshaped to (q,)*n; axis j-1 is position j."""
        return self._mask.reshape(self.space.shape)

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self._mask))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Code):
            return NotImplemented
        return self.space == other.space and bool(np.array_equal(self._mask, other._mask))

    def __hash__(self) -> int:
        return hash((self.space, self._mask.tobytes()))

    def __repr__(self) -> str:
        return f"Code(H({self.space.n},{self.space.q}), size={self.size})"

    def complement(self) -> "Code":
        return Code(self.space, ~self._mask)
