"""Set partitions and the combinatorial machinery of the expansion:
block maxima / free indices, the momentum substitution map, block-position
indicators, moment weights, and the Poisson factorial-moment identity.
"""

import math
from dataclasses import dataclass
from itertools import product as iproduct
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, ConfigError
from .report import BoundReport

MAX_GROUND_SET = 12


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1..n} in canonical form.

    Blocks are sorted ascending internally and ordered by their minima; the
    canonical form is unique per partition.
    """

    n: int
    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0])) if blocks else ()
        object.__setattr__(self, "blocks", blocks)
        seen = [e for b in blocks for e in b]
        if sorted(seen) != list(range(1, self.n + 1)):
            raise ConfigError("blocks must partition {1..n}")

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)


def enumerate_partitions(n):
    """Yield every partition of {1..n} once, in restricted-growth-string
    lexicographic order (fixed forever for reproducible term ordering)."""
    if not 1 <= n <= MAX_GROUND_SET:
        raise BudgetError(f"partition enumeration supports 1 <= n <= {MAX_GROUND_SET}")
    g = [0] * n  # growth string; g[i] = block index of element i+1
    while True:
        nblocks = max(g) + 1
        blocks = [[] for _ in range(nblocks)]
        for i, b in enumerate(g):
            blocks[b].append(i + 1)
        yield SetPartition(n=n, blocks=tuple(tuple(b) for b in blocks))
        # next restricted growth string
        i = n - 1
        while i > 0:
            if g[i] <= max(g[:i]):
                g[i] += 1
                for j in range(i + 1, n):
                    g[j] = 0
                break
            i -= 1
        else:
            return


def bell_number(n) -> int:
    """Number of partitions of an n-element set (binomial recurrence)."""
    b = [1]  # B_0
    for _ in range(n):
        nxt = 0
        # B_{m+1} = sum_k C(m,k) B_k
        for k, bk in enumerate(b):
            nxt += math.comb(len(b) - 1, k) * bk
        b.append(nxt)
    return b[n]


@dataclass(frozen=True)
class PartitionMaps:
    """Block maxima J, their complement I (the free indices), and j -> block."""

    J: frozenset
    I: tuple
    block_of: dict


def partition_maps(A: SetPartition) -> PartitionMaps:
    J = frozenset(max(b) for b in A.blocks)
    I = tuple(j for j in range(1, A.n + 1) if j not in J)
    block_of = {j: b for b in A.blocks for j in b}
    return PartitionMaps(J=J, I=I, block_of=block_of)


def apply_MA(A: SetPartition, v):
    """Apply the momentum substitution map of the partition.

    Parameters
    ----------
    v : array_like, shape (|I_A|, d)
        One free vector per non-maximal index, ordered by increasing index.

    Returns
    -------
    ndarray, shape (n, d): entry j-1 is v_j for free j, and minus the sum of
    the other free vectors of its block for a block maximum.  Block sums and
    the total sum vanish exactly (same summands, same order, negated).
    """
    maps = partition_maps(A)
    v = np.atleast_2d(np.asarray(v))
    if v.shape[0] != len(maps.I):
        raise ConfigError(
            f"expected {len(maps.I)} free vectors for this partition, got {v.shape[0]}"
        )
    pos = {l: i for i, l in enumerate(maps.I)}
    out = np.zeros((A.n,) + v.shape[1:], dtype=v.dtype)
    for j in range(1, A.n + 1):
        if j in pos:
            out[j - 1] = v[pos[j]]
        else:
            others = [l for l in maps.block_of[j] if l != j]
            if others:
                out[j - 1] = -sum(v[pos[l]] for l in others)
    return out


def is_crossing(A: SetPartition) -> bool:
    """True when two blocks interleave: one has an element between two
    consecutive members of the other and one outside them."""
    block_of = {j: b for b in A.blocks for j in b}
    return any(block_of[j][0] < p or block_of[j][-1] > q
               for b in A.blocks for p, q in zip(b, b[1:])
               for j in range(p + 1, q))


def sigma(A: SetPartition, j, l) -> int:
    """Indicator that the block of l reaches past position j (max a(l) > j)."""
    maps = partition_maps(A)
    if not 1 <= l <= A.n:
        raise ConfigError("index l outside the ground set")
    return 1 if max(maps.block_of[l]) > j else 0


# ---------------------------------------------------------------------------
# weight distributions and moment weights


@dataclass(frozen=True)
class WeightDistribution:
    """Distribution of the i.i.d. coupling weights, known through its moments.

    Kinds: "rademacher" (±1 fair), "centered-uniform" (uniform on
    [-sqrt(3), sqrt(3)]; m_{2k} = 3^k/(2k+1)), and "explicit-moments"
    (moment list supplied; not sampleable).
    """

    kind: str
    moments: tuple = None

    def __post_init__(self):
        if self.kind not in ("rademacher", "centered-uniform", "explicit-moments"):
            raise ConfigError(f"unknown weight distribution {self.kind!r}")
        if self.kind == "explicit-moments":
            if not self.moments:
                raise ConfigError("explicit-moments distribution needs a moment list")
            object.__setattr__(self, "moments", tuple(float(m) for m in self.moments))

    def moment(self, k) -> float:
        """k-th moment m_k = E v^k."""
        if k < 0:
            raise ConfigError("moment order must be nonnegative")
        if k == 0:
            return 1.0
        if self.kind == "rademacher":
            return 1.0 if k % 2 == 0 else 0.0
        if self.kind == "centered-uniform":
            return 3.0 ** (k // 2) / (k + 1) if k % 2 == 0 else 0.0
        if k > len(self.moments):
            raise ConfigError(f"moment m_{k} not provided")
        return self.moments[k - 1]

    def sample(self, rng, size):
        if self.kind == "rademacher":
            return rng.integers(0, 2, size=size).astype(float) * 2.0 - 1.0
        if self.kind == "centered-uniform":
            return (rng.random(size) * 2.0 - 1.0) * math.sqrt(3.0)
        raise ConfigError("explicit-moments distributions cannot be sampled")


def moment_weight(A: SetPartition, dist: WeightDistribution) -> float:
    """Product over blocks of the |block|-th weight moment."""
    w = 1.0
    for b in A.blocks:
        w *= dist.moment(len(b))
        if w == 0.0:
            return 0.0
    return w


# ---------------------------------------------------------------------------
# the live-partition table


class LivePartition(NamedTuple):
    """A partition with nonzero moment weight; m = n - blocks is its number
    of free (non-maximal) indices, one free momentum sum each."""

    partition: SetPartition
    weight: float
    m: int
    blocks: int


def all_partitions(n):
    """Every partition of {1..n} in enumeration order; at n = 0 the empty
    partition."""
    if n == 0:
        return [SetPartition(n=0, blocks=())]
    return list(enumerate_partitions(n))


def live_partition(A: SetPartition, dist: WeightDistribution):
    """The table row of A, or None when its moment weight vanishes."""
    w = moment_weight(A, dist)
    k = len(A.blocks)
    return LivePartition(A, w, A.n - k, k) if w != 0.0 else None


def live_partitions(n, dist: WeightDistribution):
    """The partitions of {1..n} that contribute to an order-n sum, in
    enumeration order, with their moment weight, free-index count and block
    count; zero-weight partitions are dropped."""
    rows = (live_partition(A, dist) for A in all_partitions(n))
    return [row for row in rows if row is not None]


# ---------------------------------------------------------------------------
# label indicators and counting identities


def chi_tilde(A: SetPartition, labels) -> int:
    """1 iff the label tuple is constant within blocks and distinct across."""
    labels = tuple(labels)
    if len(labels) != A.n:
        raise ConfigError("label tuple length must equal the ground-set size")
    block_labels = []
    for b in A.blocks:
        vals = {labels[l - 1] for l in b}
        if len(vals) != 1:
            return 0
        block_labels.append(vals.pop())
    return 1 if len(set(block_labels)) == len(block_labels) else 0


def permutation_count_check(A: SetPartition, M) -> BoundReport:
    """Exact integer identity: sum over {1..M}^n of the block indicator equals
    the falling factorial M!/(M-|A|)! (zero when |A| > M)."""
    count = 0
    for labels in iproduct(range(1, M + 1), repeat=A.n):
        count += chi_tilde(A, labels)
    k = len(A.blocks)
    expected = 0 if k > M else math.perm(M, k)
    return BoundReport(
        name="permutation_count",
        lhs=float(count),
        rhs=float(expected),
        context={"blocks": A.blocks, "M": M, "count": count, "expected": expected,
                 "exact_equal": count == expected},
        notes="exact integer identity; lhs must equal rhs",
    )


def poisson_factorial_moment(mean, k, tail_tol=1e-12) -> float:
    """Truncated series for E[N(N-1)...(N-k+1)], N ~ Poisson(mean).

    Sums exp(-mean) * mean^n / (n-k)! from n = k upward until the remaining
    tail is below tail_tol; the identity value is mean^k.
    """
    if mean <= 0 or k < 1:
        raise ConfigError("need mean > 0 and k >= 1")
    term = math.exp(-mean) * mean**k  # n = k
    total = term
    n = k
    while True:
        n += 1
        term *= mean / (n - k)
        total += term
        # once past the mode the terms decay at least geometrically
        if n - k > mean and term * (n - k + 1) / (n - k + 1 - mean) < tail_tol:
            break
        if n > k + 10_000:
            break
    return total
