"""Distance partitions, complete-regularity certificates, and code profiles.

A code C is completely regular when every vertex at distance i from C has
constant numbers of neighbors at distances i-1 and i+1, depending only on i.
For covering radius rho = 1 the certificate carries the pair (gamma, beta):
every non-codeword has gamma neighbors in C, every codeword has beta
neighbors outside.  Every count is read from one kernel, ``_line_sums``: a
vertex's line total, the sum of the n line sums through it, is its number of
neighbors in C plus n if it is a codeword, and the clique profile and the
essential positions are read off the line sums themselves.

The profiles come back as read-only int64 arrays: ``hyperface_profile`` is
(n, q), row j-1 counting the codewords with each symbol at position j, and
``clique_profile`` is (n,) + (q,)*(n-1), row j-1 counting the codewords on
each codirection-j clique, indexed by its fixed symbols.
``distance_partition`` is the tuple of read-only bool layers C_0..C_rho.

``check_crc`` decides rho = 1 from line totals in slabs.  The n line-sum
arrays (q^(n-1) entries each, in the narrowest dtype that holds n*q) are
added up one slab of first-position rows at a time, ``SLAB`` vertices or
one row, in one plain loop over the slabs.  Each slab is compared with its
side's total, read at vertex 0 and at the first vertex of the other side by
n scalar reads each.  When gamma > 0 (the non-codewords' total) and no slab
disagrees, rho = 1 and the two totals are the certificate; else the first
vertex that disagrees is the failure, unless some non-codeword has no
neighbor in C (a total of 0), which the same loop looks for from that
vertex's slab on.  Only then, or when gamma = 0, does the layered path run.
It walks the layers t = 0..rho once, with one count array alive: step t
counts every vertex's neighbors in layer t, grows layer t+1 from them and
checks layers t+1 and t-1 toward t.  Layer 0's counts are read off the line
sums held, so a layered check takes rho ``neighbor_counts`` passes.

``certify_rho1`` holds the (L, V) totals of a stack of the search's leaves
(at most 64 vertices each) in one array, and answers only whether each row
is a rho = 1 code, with its gamma and beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .hamming import Code, Space


def neighbor_counts(space: Space, indicator: np.ndarray) -> np.ndarray:
    """For every vertex, the number of its neighbors inside the indicated set:
    its line total less n if it is a member.

    ``indicator`` is one set, flat or in grid shape.  Returns flat counts,
    shape (V,), in the narrowest dtype that holds n*q, the most a vertex's n
    line sums total.
    """
    g = np.asarray(indicator, dtype=bool).reshape((1,) + space.shape)
    return _counts_from_sums(space, _line_sums(space, g), g)


def _totals(space: Space, sums: list[np.ndarray]) -> np.ndarray:
    """The (L,) + grid-shape line totals of L sets from their line sums: each
    vertex's neighbors in its set, plus n if it is a member."""
    totals = np.zeros((len(sums[0]),) + space.shape, dtype=sums[0].dtype)
    for s in sums:
        totals += s
    return totals


def _counts_from_sums(space: Space, sums: list[np.ndarray], grid: np.ndarray) -> np.ndarray:
    """Flat neighbor counts of one set from its line sums and its bool grid:
    the line totals less n on the members."""
    counts = _totals(space, sums)
    np.subtract(counts, counts.dtype.type(space.n), out=counts, where=grid)
    return counts.reshape(space.size)


def distance_partition(code: Code) -> tuple[np.ndarray, ...]:
    """Layers C_0..C_rho of vertices by distance to the code: a tuple of
    read-only flat bool indicators, shape (V,) each, so rho is its length
    less 1."""
    if code.size == 0:
        raise ValueError("empty code has no distance partition")
    layers, seen = [code.mask.copy()], code.mask.copy()
    while not seen.all():
        layers.append((neighbor_counts(code.space, layers[-1]) > 0) & ~seen)
        seen |= layers[-1]
    for layer in layers:
        layer.setflags(write=False)
    return tuple(layers)


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
        if self.rho != 1:
            return None
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


# Vertices whose line totals check_crc holds at a time, in whole
# first-position rows (at least one), so that a slab stays in cache.
SLAB = 2**16


def _narrowest(bound: int) -> type:
    """The narrowest unsigned dtype that holds ``bound``, or int64."""
    return np.uint8 if bound < 2**8 else np.uint16 if bound < 2**16 else np.int64


def _line_sums(space: Space, masks: np.ndarray) -> list[np.ndarray]:
    """The n line-sum arrays of the rows of an (L, V) bool array: entry j sums
    each row's grid along position j+1, kept as an axis of length 1.  The
    dtype is the narrowest that holds n*q, the largest line total.

    Each sum is an einsum in the narrowest dtype that holds q, the largest
    line sum: that reduces the short inner axes several times faster than
    ``np.add.reduce``."""
    g = masks.reshape((len(masks),) + space.shape).view(np.uint8)
    axes = list(range(g.ndim))
    line, total = _narrowest(space.q), _narrowest(space.n * space.q)
    return [np.einsum(g, axes, axes[:ax] + axes[ax + 1:], dtype=line).astype(total, copy=False)
            .reshape(g.shape[:ax] + (1,) + g.shape[ax + 1:])
            for ax in axes[1:]]


def certify_rho1(space: Space, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched rho = 1 certifier for the rows of an (L, V) bool array.

    Returns (gamma, beta, ok), one entry per row.  ``ok`` holds exactly when
    ``check_crc`` of the row would certify covering radius 1, and then gamma
    and beta are the certificate's; on other rows (including the empty and
    the full set) they mean nothing.  One stacked line-sum pass, added up
    into one (L, V) totals array: the rows are search leaves, small sets.
    """
    totals = _totals(space, _line_sums(space, masks)).reshape(masks.shape)
    rows = np.arange(len(masks))
    first_in, first_out = masks.argmax(axis=1), masks.argmin(axis=1)
    inner_total, gamma = totals[rows, first_in], totals[rows, first_out]
    ok = masks[rows, first_in] & ~masks[rows, first_out] & (gamma > 0)
    step = (inner_total - gamma)[:, None]   # as in check_crc: a where over masks is slower
    ok &= (totals - masks.view(np.uint8) * step == gamma[:, None]).all(axis=1)
    return gamma, space.valency + space.n - inner_total.astype(np.int64), ok


def check_crc(code: Code) -> CheckResult:
    """Decide complete regularity; return a certificate or the first failure."""
    sp = code.space
    size = code.size
    if size == 0 or size == sp.size:
        raise ValueError("code must be a proper nonempty vertex subset")
    mask = code.mask
    k = sp.valency
    sums = _line_sums(sp, mask[None])
    # the reference totals, summed from the first of n scalar reads to keep
    # the dtype: vertex 0's and that of the other side's first vertex, on the
    # first line along the last position not wholly on vertex 0's side
    first = mask[0]
    line = int((sums[-1].reshape(-1) != (sp.q if first else 0)).argmax())
    other = line * sp.q + int((mask[line * sp.q:(line + 1) * sp.q] != first).argmax())
    x = np.unravel_index(other, sp.shape)
    refs = ([s.flat[0] for s in sums],
            [s[(0,) + x[:j] + (0,) + x[j + 1:]] for j, s in enumerate(sums)])
    inner_total, gamma_total = (sum(r[1:], r[0]) for r in (refs if first else refs[::-1]))
    inner, gamma = int(inner_total) - sp.n, int(gamma_total)
    # rho = 1 when gamma > 0 and every vertex has its side's total, that is
    # its total less (inner_total - gamma) times membership is gamma (unsigned
    # totals wrap alike; np.subtract wraps scalars without a warning).  Else
    # the first vertex v that disagrees fails, unless some non-codeword has a
    # total of 0, no neighbor in C: a direction whose every line meets C rules
    # that out, else v's slab and the later ones are scanned, since every
    # vertex before v has its side's positive total.
    step, member = np.subtract(inner_total, gamma_total), mask.view(np.uint8)
    per_row = sp.size // sp.q
    rows = max(1, SLAB // per_row)
    hit = zero = None
    for a in range(0, sp.q, rows) if gamma > 0 else ():
        *rest, tot = [sums[0]] + [s[:, a:a + rows] for s in sums[1:]]
        tot = sum(reversed(rest), tot).reshape(-1)   # last position first: no inner-axis broadcast
        if hit is None:
            bad = tot - member[a * per_row:(a + rows) * per_row] * step != gamma_total
            if not bad.any():
                continue
            i = int(bad.argmax())
            hit = a * per_row + i, int(tot[i % tot.size])   # tot is (1,) when n = 1
            if any(s.all() for s in sums):
                break
        if zero := (tot == 0).any():
            break
    if gamma > 0 and hit is None:
        return CrcCertificate(sp.n, sp.q, 1, size, (k - inner,), (gamma,))
    if hit is not None and not zero:
        v, total = hit
        if mask[v]:
            return CrcFailure(sp.vertex(v), 0, 1, k - (total - sp.n), k - inner)
        return CrcFailure(sp.vertex(v), 1, 0, total, gamma)

    # covering radius >= 2: step t counts every vertex's neighbors in layer
    # C_t, grows C_{t+1} from them and checks C_{t+1} toward C_t (its gamma)
    # and C_{t-1} away, toward C_t (its beta).  C_0's counts are read off the
    # line sums held; one count array is alive at a time.  Masks are written
    # in place: each new layer into the buffer of the layer two below it,
    # which is no longer needed (C_0 is the caller's), and every scratch mask
    # into ``bad``.
    counts = _counts_from_sums(sp, sums, code.grid)
    seen, prev, layer, t = mask.copy(), None, mask, 0
    grown, bad = np.empty_like(seen), np.empty_like(seen)
    best, betas, gammas = None, [], []  # best: ((vertex index, direction), failure)
    while True:
        np.greater(counts, 0, out=grown)
        grown &= np.invert(seen, out=bad)
        seen |= grown
        # direction 0 = toward the code, direction 1 = away from it
        for direction, i, side, out in ((0, t + 1, grown, gammas), (1, t - 1, prev, betas)):
            if side is None or not side.any():
                continue
            expected = counts[side.argmax()]
            out.append(int(expected))
            np.not_equal(counts, expected, out=bad)
            bad &= side
            if bad.any():
                v = int(bad.argmax())
                if best is None or (v, direction) < best[0]:
                    best = ((v, direction), CrcFailure(sp.vertex(v), i, t, int(counts[v]),
                                                       int(expected)))
        if not grown.any():
            break
        spare = prev if prev is not None and prev is not mask else np.empty_like(seen)
        prev, layer, grown, t, counts = layer, grown, spare, t + 1, None
        counts = neighbor_counts(sp, layer)
    if best is not None:
        return best[1]
    return CrcCertificate(sp.n, sp.q, t, size, tuple(betas), tuple(gammas))


def hyperface_profile(code: Code) -> np.ndarray:
    """Codeword counts |{x in C : x_j = a}| as a read-only (n, q) int64
    array: row j-1 is position j, as axis j-1 is in ``Code.grid``."""
    n = code.space.n
    counts = np.stack([code.grid.sum(axis=tuple(ax for ax in range(n) if ax != j),
                                     dtype=np.int64) for j in range(n)])
    counts.setflags(write=False)
    return counts


def clique_profile(code: Code) -> np.ndarray:
    """Codeword counts of every maximal clique as one read-only int64 array
    of shape (n,) + (q,)*(n-1): row j-1 holds the codirection-j cliques,
    indexed by their fixed symbols in position order."""
    shape = (code.space.q,) * (code.space.n - 1)
    sums = _line_sums(code.space, code.mask[None])
    counts = np.array([s.reshape(shape) for s in sums], dtype=np.int64)
    counts.setflags(write=False)
    return counts


def essential_positions(code: Code) -> tuple[int, ...]:
    """Positions (1-based) on which membership actually depends.

    Position j is essential iff some line in direction j is neither fully
    inside nor fully outside the code.
    """
    q = code.space.q
    return tuple(j for j, s in enumerate(_line_sums(code.space, code.mask[None]), 1)
                 if ((s != 0) & (s != q)).any())


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
    sp = Space(n + 1, code.space.q)
    return Code(sp, np.broadcast_to(np.expand_dims(code.grid, at_position - 1), sp.shape))
