"""Distance partitions, complete-regularity certificates, and code profiles.

A code C is completely regular when every vertex at distance i from C has
constant numbers of neighbors at distances i-1 and i+1, depending only on i.
For covering radius rho = 1 the certificate carries the pair (gamma, beta):
every non-codeword has gamma neighbors in C, every codeword has beta
neighbors outside.  Counting is vectorized: the number of set members
adjacent to each vertex equals the sum of line sums through it minus n
times its own membership.

``check_crc`` counts in-code neighbors once.  When every non-codeword has
one, rho = 1 and that single pass decides everything: the first codeword
fixes beta, the first non-codeword fixes gamma, and the first vertex whose
count disagrees is the failure witness.  Only when some non-codeword has no
neighbor in C does the layered path run, which grows each distance layer from
the previous layer's count and so counts into every layer once.
``certify_rho1`` applies the same single-pass rule to a stack of sets at once
and answers only whether each one is a rho = 1 code, with its gamma and beta.
Both read the rule from one helper, ``_rho1_rule``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .hamming import Clique, Code, Space


def neighbor_counts(space: Space, indicator: np.ndarray) -> np.ndarray:
    """For every vertex, the number of its neighbors inside the indicated set.

    ``indicator`` is one set, flat or in grid shape, or a stack of sets along
    a leading axis.  Returns flat counts, shape (V,) or (L, V), of dtype
    uint16 when n*q < 2**16 (a vertex's n line sums then total at most n*q)
    and int64 otherwise.
    """
    g = np.asarray(indicator, dtype=bool)
    lead = () if g.shape in ((space.size,), space.shape) else g.shape[:1]
    g = g.reshape(lead + space.shape)
    dtype = np.uint16 if space.n * space.q < 2**16 else np.int64
    tot = np.zeros(g.shape, dtype=dtype)
    for ax in range(len(lead), g.ndim):
        tot += g.sum(axis=ax, keepdims=True, dtype=dtype)
    tot -= dtype(space.n) * g
    return tot.reshape(lead + (space.size,))


@dataclass(frozen=True)
class DistancePartition:
    """Layers C_0..C_rho of vertices by distance to a code (boolean indicators)."""

    space: Space
    classes: tuple[np.ndarray, ...]

    @property
    def rho(self) -> int:
        return len(self.classes) - 1

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(int(c.sum()) for c in self.classes)


def _grow_layers(code: Code, counts: list[np.ndarray]) -> list[np.ndarray]:
    """Layers C_0..C_rho by distance to the code, each the unseen part of the
    previous layer's neighborhood.  ``counts[i]`` is the neighbor count of
    C_i; the counts missing up to C_{rho-1} are taken once and appended."""
    layers, seen = [code.mask.copy()], code.mask.copy()
    while not seen.all():
        if len(counts) < len(layers):
            counts.append(neighbor_counts(code.space, layers[-1]))
        layers.append((counts[-1] > 0) & ~seen)
        seen |= layers[-1]
    return layers


def distance_partition(code: Code) -> DistancePartition:
    """Layers of vertices by distance to the code."""
    if code.size == 0:
        raise ValueError("empty code has no distance partition")
    layers = _grow_layers(code, [])
    for layer in layers:
        layer.setflags(write=False)
    return DistancePartition(code.space, tuple(layers))


@dataclass(frozen=True)
class CrcCertificate:
    """Witness that a code is completely regular.

    ``betas[i]`` counts neighbors one layer further out for a vertex in layer i
    (i = 0..rho-1); ``gammas[i-1]`` counts neighbors one layer closer for a
    vertex in layer i (i = 1..rho).  ``eigenvalue_index`` is the integer i
    solving n(q-1) - q*i = k - (gamma+beta) when rho = 1 and such an integer
    exists in 1..n, else None.
    """

    n: int
    q: int
    rho: int
    size: int
    betas: tuple[int, ...]
    gammas: tuple[int, ...]

    @property
    def valency(self) -> int:
        return self.n * (self.q - 1)

    @property
    def alphas(self) -> tuple[int, ...]:
        k = self.valency
        gam = (0,) + self.gammas
        bet = self.betas + (0,)
        return tuple(k - g - b for g, b in zip(gam, bet))

    # Covering-radius-1 accessors.

    def _require_rho1(self) -> None:
        if self.rho != 1:
            raise ValueError(f"accessor requires rho=1, certificate has rho={self.rho}")

    @property
    def gamma(self) -> int:
        self._require_rho1()
        return self.gammas[0]

    @property
    def beta(self) -> int:
        self._require_rho1()
        return self.betas[0]

    @property
    def alpha0(self) -> int:
        self._require_rho1()
        return self.valency - self.beta

    @property
    def alpha1(self) -> int:
        self._require_rho1()
        return self.valency - self.gamma

    @property
    def code_eigenvalues(self) -> tuple[int, int]:
        self._require_rho1()
        return (self.valency, self.valency - (self.gamma + self.beta))

    @property
    def eigenvalue_index(self) -> Union[int, None]:
        return rho1_eigenvalue_index(self.n, self.q, self.gamma, self.beta)


def rho1_eigenvalue_index(n: int, q: int, gamma: int, beta: int) -> Union[int, None]:
    """The integer i in 1..n with gamma + beta = q*i, or None."""
    s = gamma + beta
    if s % q == 0 and 1 <= s // q <= n:
        return s // q
    return None


@dataclass(frozen=True)
class CrcFailure:
    """First deviation from complete regularity, in vertex order.

    The vertex sits in layer ``class_index`` and has ``observed_count``
    neighbors in layer ``target_class``; the layer's first vertex has
    ``expected_count``.
    """

    witness_vertex: tuple[int, ...]
    class_index: int
    target_class: int
    observed_count: int
    expected_count: int


CheckResult = Union[CrcCertificate, CrcFailure]


def _rho1_rule(c: np.ndarray, masks: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rho = 1 rule on the rows of an (L, V) bool array, given their
    neighbor counts ``c``: each row's first codeword fixes ``inner``, its
    in-code neighbors, and its first non-codeword fixes ``gamma``.  Returns
    (inner, gamma, bad, proper): ``bad`` marks every vertex whose count differs
    from its side's, and ``proper`` whether the row is a nonempty, non-full set."""
    rows = np.arange(len(masks))
    first_in = masks.argmax(axis=1)
    first_out = masks.argmin(axis=1)
    inner = c[rows, first_in]
    gamma = c[rows, first_out]
    bad = c != np.where(masks, inner[:, None], gamma[:, None])
    return inner, gamma, bad, masks[rows, first_in] & ~masks[rows, first_out]


def certify_rho1(space: Space, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched rho = 1 certifier for the rows of an (L, V) bool array.

    Returns (gamma, beta, ok), one entry per row.  ``ok`` holds exactly when
    ``check_crc`` of the row would certify covering radius 1, and then gamma
    and beta are the certificate's; on other rows (including the empty and
    the full set) they mean nothing.  One stacked ``neighbor_counts`` pass.
    """
    inner, gamma, bad, proper = _rho1_rule(neighbor_counts(space, masks), masks)
    return gamma, space.valency - inner, ~bad.any(axis=1) & (gamma > 0) & proper


def check_crc(code: Code) -> CheckResult:
    """Decide complete regularity; return a certificate or the first failure."""
    sp = code.space
    size = code.size
    if size == 0 or size == sp.size:
        raise ValueError("code must be a proper nonempty vertex subset")
    mask = code.mask
    c = neighbor_counts(sp, mask)
    k = sp.valency
    inner, gamma, bad, _ = _rho1_rule(c[None], mask[None])
    inner, gamma, bad = int(inner[0]), int(gamma[0]), bad[0]
    if gamma > 0:
        v = int(np.argmax(bad))
        if not bad[v]:
            return CrcCertificate(sp.n, sp.q, 1, size, (k - inner,), (gamma,))
        # rho = 1 unless some non-codeword has no neighbor in C
        if not ((c == 0) & ~mask).any():
            if mask[v]:
                return CrcFailure(sp.vertex(v), 0, 1, k - int(c[v]), k - inner)
            return CrcFailure(sp.vertex(v), 1, 0, int(c[v]), gamma)

    # covering radius >= 2: check layer by layer, counting into each layer once
    counts = [c]
    layers = _grow_layers(code, counts)
    counts.append(neighbor_counts(sp, layers[-1]))
    rho = len(layers) - 1

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
    return CrcCertificate(sp.n, sp.q, rho, size, tuple(betas), tuple(gammas))


@dataclass(frozen=True)
class HyperfaceProfile:
    """Counts |{x in C : x_j = a}| indexed by (position j, symbol a)."""

    counts: np.ndarray  # shape (n, q)

    @property
    def is_balanced(self) -> bool:
        return bool((self.counts == self.counts.flat[0]).all())

    @property
    def common(self) -> Union[int, None]:
        return int(self.counts.flat[0]) if self.is_balanced else None

    def count(self, direction: int, symbol: int) -> int:
        return int(self.counts[direction - 1, symbol])


def hyperface_profile(code: Code) -> HyperfaceProfile:
    g = code.grid
    n = code.space.n
    rows = []
    for j in range(n):
        other = tuple(ax for ax in range(n) if ax != j)
        rows.append(g.sum(axis=other) if other else g.astype(np.int64))
    counts = np.stack(rows).astype(np.int64)
    counts.setflags(write=False)
    return HyperfaceProfile(counts)


@dataclass(frozen=True)
class CliqueProfile:
    """Codeword counts for every maximal clique, grouped by codirection."""

    per_codirection: tuple[np.ndarray, ...]  # entry j-1 has shape (q,)*(n-1)

    @property
    def is_constant(self) -> bool:
        first = int(self.per_codirection[0].flat[0])
        return all((arr == first).all() for arr in self.per_codirection)

    @property
    def common(self) -> Union[int, None]:
        if not self.is_constant:
            return None
        return int(self.per_codirection[0].flat[0])

    def count(self, clique: Clique) -> int:
        return int(self.per_codirection[clique.codirection - 1][clique.fixed])


def clique_profile(code: Code) -> CliqueProfile:
    g = code.grid
    arrs = []
    for j in range(code.space.n):
        arr = g.sum(axis=j).astype(np.int64)
        arr.setflags(write=False)
        arrs.append(arr)
    return CliqueProfile(tuple(arrs))


def essential_positions(code: Code) -> tuple[int, ...]:
    """Positions (1-based) on which membership actually depends.

    Position j is essential iff some line in direction j is neither fully
    inside nor fully outside the code.
    """
    g = code.grid
    q = code.space.q
    out = []
    for j in range(code.space.n):
        sums = g.sum(axis=j)
        if ((sums != 0) & (sums != q)).any():
            out.append(j + 1)
    return tuple(out)


def reduce_code(code: Code) -> Code:
    """Delete every non-essential position; the result lives in H(n',q)."""
    ess = essential_positions(code)
    if not ess:
        raise ValueError("code has no essential positions; nothing to reduce to")
    keep = set(j - 1 for j in ess)
    slicer = tuple(slice(None) if ax in keep else 0 for ax in range(code.space.n))
    return Code(Space(len(ess), code.space.q), code.grid[slicer])


def extend_code(code: Code, at_position: int) -> Code:
    """Insert a fresh non-essential position, giving a code in H(n+1,q)."""
    n = code.space.n
    if not 1 <= at_position <= n + 1:
        raise ValueError(f"insertion position {at_position} out of 1..{n + 1}")
    g = np.expand_dims(code.grid, axis=at_position - 1)
    g = np.broadcast_to(g, (code.space.q,) * (n + 1))
    return Code(Space(n + 1, code.space.q), g.copy())
