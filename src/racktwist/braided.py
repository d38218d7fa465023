"""Braided vector spaces from rack cocycles: the braiding and its braid-group images.

The braiding c(x (x) y) = q_{x,y} (x|>y) (x) x is a monomial operator: it
permutes basis vectors of X^(x)n and multiplies by unit scalars.  All braid
group images are therefore stored as (target permutation, exponent vector)
pairs.  The resource caps of a degree are checked here; the quantum
symmetrizer that they bound, which only proven ranks build, is assembled in
racktwist.exact.
"""

from __future__ import annotations

import math

import numpy as np

from .cocycle import RackCocycle
from .errors import DimensionCapError, RackAxiomError
from .rack import ReadOnly

DEFAULT_DIM_CAP = 200_000


class MonomialOperator:
    """An invertible monomial operator: basis v maps to zeta_order^expo[v] * basis target[v]; equal by action."""

    __slots__ = ("dim", "order", "target", "expo")

    def __init__(self, dim: int, order: int, target: np.ndarray, expo: np.ndarray):
        self.dim, self.order, self.target, self.expo = dim, order, target, expo

    @staticmethod
    def identity(dim: int, order: int) -> MonomialOperator:
        return MonomialOperator(
            dim, order, np.arange(dim, dtype=np.int64), np.zeros(dim, dtype=np.int64)
        )

    def compose(self, other: MonomialOperator) -> MonomialOperator:
        """self after other: (self o other).target[v] = self.target[other.target[v]]."""
        if self.dim != other.dim or self.order != other.order:
            raise ValueError("operator shape/order mismatch")
        return MonomialOperator(
            self.dim,
            self.order,
            self.target[other.target],
            (other.expo + self.expo[other.target]) % self.order,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialOperator)
            and self.dim == other.dim
            and self.order == other.order
            and np.array_equal(self.target, other.target)
            and np.array_equal(self.expo % self.order, other.expo % other.order)
        )


class BraidWord(ReadOnly):
    """A positive word in braid generators 1..n-1 on n strands."""

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: tuple[int, ...]):
        for i in letters:
            if not 1 <= i <= n - 1:
                raise ValueError(f"letter {i} out of range 1..{n - 1}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)


def strand_tables(q: RackCocycle, degree: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-letter (target, expo) arrays for the strand-local braiding at this degree."""
    k = q.rack.size
    op = np.array(q.rack.op, dtype=np.int64)
    ex = np.array(q.exp, dtype=np.int64)
    v = np.arange(k**degree, dtype=np.int64)
    tables = []
    for letter in range(1, degree):
        hi = k ** (degree - letter)      # place value of the left factor of the pair
        lo = hi // k
        x = (v // hi) % k
        y = (v // lo) % k
        target = v + (op[x, y] - x) * hi + (x - y) * lo
        tables.append((target, ex[x, y]))
    return tables


def rho(word: BraidWord, q: RackCocycle, degree: int, tables: list) -> MonomialOperator:
    """The braid representation image of a positive word on X^(x)degree.

    tables must be strand_tables(q, degree); a caller builds them once and
    shares them between its calls, and nothing keeps them alive after it.
    """
    if word.n != degree:
        raise ValueError(f"word is on {word.n} strands but degree is {degree}")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    dim = q.rack.size**degree
    if dim > DEFAULT_DIM_CAP:
        raise DimensionCapError(f"degree {degree} needs dimension {dim} > cap {DEFAULT_DIM_CAP}")
    out = MonomialOperator.identity(dim, q.order)
    for i in word.letters:
        tgt, ex = tables[i - 1]
        # right-compose with the generator: apply it first
        out = MonomialOperator(dim, q.order, out.target[tgt], (ex + out.expo[tgt]) % q.order)
    return out


def check_braid_equation(q: RackCocycle) -> bool:
    """Whether (c x id)(id x c)(c x id) = (id x c)(c x id)(id x c) on X^(x)3 (braid_equation_witness)."""
    return braid_equation_witness(q) is None


def braid_equation_witness(q: RackCocycle) -> list[int] | None:
    """The first basis triple x (x) y (x) z of X^(x)3 where the two sides of the braid equation differ, or None."""
    tables = strand_tables(q, 3)
    a = rho(BraidWord(3, (1,)), q, 3, tables)
    b = rho(BraidWord(3, (2,)), q, 3, tables)
    left, right = a.compose(b).compose(a), b.compose(a).compose(b)
    bad = np.flatnonzero((left.target != right.target) | ((left.expo - right.expo) % q.order != 0))
    if not bad.size:
        return None
    k, v = q.rack.size, int(bad[0])
    return [v // (k * k), v // k % k, v % k]


def _min_labels(label: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """The smallest element of each component of the graph joining i to label[i] and to maps[t, i] for every t.

    label must send every i to an element of its component no larger than
    i (the identity does).  Each round lets every label jump to its root,
    then hooks every root to the smallest root that an edge joins it to,
    until the two ends of every edge have one label.
    """
    while True:
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
        ends = label[maps]
        if (ends == label).all():
            return label
        low = np.minimum(ends, label)
        hooked = label.copy()
        np.minimum.at(hooked, ends, low)
        np.minimum.at(hooked, label, low.min(axis=0))
        label = hooked


def check_dimension(size: int, degree: int, dim_cap: int) -> None:
    """Raise DimensionCapError if degree `degree` over a rack of `size` elements exceeds dim_cap.

    It needs only the size, so a caller may check it before building the rack.
    """
    dim = size**degree
    if dim > dim_cap:
        raise DimensionCapError(f"degree {degree} needs dimension {dim} > cap {dim_cap}")


def check_degree(q: RackCocycle, degree: int, dim_cap: int) -> None:
    """Raise DimensionCapError unless `exact.symmetrizer` can build this degree.

    The dimension k^degree must be within dim_cap (check_dimension), an
    entry's row, column and exponent must fit in a 64-bit key, and an
    entry, a count of at most degree! lifts, must fit in int64.  Each bound
    grows with the degree, so a degree that passes vouches for every
    smaller one.
    """
    check_dimension(q.rack.size, degree, dim_cap)
    dim = q.rack.size**degree
    if 2 * (dim - 1).bit_length() + (q.order - 1).bit_length() > 63:
        raise DimensionCapError(f"degree {degree} needs dimension {dim}, too large for 64-bit entry keys")
    if math.factorial(degree) >= 2**63:
        raise DimensionCapError(f"degree {degree} has entries up to {degree}! >= 2^63, too large for int64")


def _inverse_letters(q: RackCocycle) -> tuple[np.ndarray, np.ndarray]:
    """Flat k x k tables of c^-1: step[z*k + a] = y with z |> y = a, and gain[z*k + a] = exp[z][y].

    c maps x (x) y to q(x, y) (x |> y) (x) x, so c^-1 maps a (x) z to
    z (x) y, undoing the scalar q(z, y).  It needs every row z |> - to be a
    bijection: RackAxiomError (a ValueError) names the first row that is
    not, as `rack --check` reports it.
    """
    k = q.rack.size
    op = np.array(q.rack.op, dtype=np.int64).reshape(k, k)
    bad = np.flatnonzero((np.sort(op, axis=1) != np.arange(k)).any(axis=1))
    if bad.size:
        raise RackAxiomError(
            f"non-bijective-row at ({bad[0]},): the braiding needs every row x |> - of the rack table to be a bijection"
        )
    step = np.empty((k, k), dtype=np.int64)
    step[np.arange(k)[:, None], op] = np.arange(k)
    return step.ravel(), np.array(q.exp, dtype=np.int64)[np.arange(k)[:, None], step].ravel()
