"""Braided vector spaces from rack cocycles and the quantum symmetrizer.

The braiding c(x (x) y) = q_{x,y} (x|>y) (x) x is a monomial operator: it
permutes basis vectors of X^(x)n and multiplies by unit scalars.  All braid
group images are therefore stored as (target permutation, exponent vector)
pairs, and the degree-n symmetrizer is assembled as an exact sparse matrix
with coefficients in Z[zeta_m], degree by degree from the factorisation
S_n = (S_{n-1} (x) id) . T_n, and held as one set of numpy coordinate arrays
whose entries carry their power of zeta, so storage grows with the entries
and not with m.  The braid-group orbits of the basis come with it: the
symmetrizer is block diagonal over them.  So do their classes under the
translations of X that commute with the braiding, which carry blocks onto
blocks of the same rank.  Both depend only on the braiding, so they are
found before assembly, and the caller may then ask for some rows only: row
v of S_d is row floor(v/k) of S_{d-1}, lifted and multiplied by T_d, so
those rows are built exactly from the rows of lower degrees that they
descend from, and no other row is.  Assembly builds no table over the
basis: each lifted column is sent through T_d letter by letter, on k x k
tables of the inverse braiding, so a degree pays for the entries of the
rows it builds.  Over the basis, each degree takes one map to find its
orbits, and frees it before the next degree.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

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


class CountMatrix(NamedTuple):
    """A symmetrizer in coordinate form: entry i is data[i] zeta^expo[i] at (row[i], col[i]).

    Sorted by (row, col, expo), with no two entries alike in all three, and
    every count positive.  Rows and columns are int32; exponents take the
    smallest unsigned dtype that holds order - 1; counts are int32 while
    degree! < 2^31, else int64.
    """

    row: np.ndarray
    col: np.ndarray
    expo: np.ndarray
    data: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.data.size)


class SymmetrizerMatrix(NamedTuple):
    """The symmetrizer in degree `degree`: sum over S_degree of braid lifts.

    Entries live in Z[zeta_order]; `entries` holds the positive integer
    count of contributions with scalar zeta^e at each (row, col, e) that
    has one.  `orbit[v]` is the smallest basis index in the braid-group
    orbit of v; every lift maps a basis vector into its orbit, so the
    matrix is block diagonal over the orbits.

    Let g_x send basis y to q(x, y) (x |> y).  When g_x (x) g_x commutes
    with the braiding c on X (x) X (see _commuting_translations; on a rack
    with a 2-cocycle that holds for every x, for -1 and chi alike),
    g_x^(x)degree commutes with every lift and with the symmetrizer, and
    it carries the block of an orbit onto the block of the image orbit
    with the same rank.  These x sort the orbits into classes;
    `orbit_class[i]` is the number of the smallest orbit in the class of
    orbit i, orbits numbered by their smallest member.  `hilbert.rank`
    ranks one block per class and weights it by the class size.
    `orbit_carry[i]` is a permutation of X whose letterwise action maps the
    head orbit of the class onto orbit i (see _orbit_classes); it carries
    rows, never entries, from the one to the other.

    `rows` lists the rows that were built, ascending; `entries` holds
    entries of those rows only (see `symmetrizer`).
    """

    dim: int
    order: int
    degree: int
    entries: CountMatrix
    orbit: np.ndarray
    orbit_class: np.ndarray
    orbit_carry: np.ndarray
    rows: np.ndarray

    @property
    def counts(self) -> tuple[CountMatrix]:
        """`entries` alone in a tuple; the benchmark tracer (perfbench/tracer.py) sums `nnz` over it."""
        return (self.entries,)


# Entries expanded at once when lifting to the next degree; bounds working memory.
_CHUNK_ENTRIES = 1 << 18


def _merge(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys with the summed weights of their occurrences."""
    order = np.argsort(keys)
    keys = keys[order]
    last = np.empty(keys.size, dtype=bool)
    last[-1:] = True
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    ends = np.flatnonzero(last)
    total = np.cumsum(weights[order], dtype=np.int64)[ends]
    total[1:] -= total[:-1].copy()
    return keys[ends], total


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


def _braid_orbits(q: RackCocycle, degree: int) -> np.ndarray:
    """orbit[v]: the smallest basis index in the braid-group orbit of v in X^(x)degree.

    c_1 ... c_{d-2} act on the first d - 1 factors only, so in X^(x)d their
    orbits are the orbits of degree d - 1, each with a fixed last letter;
    c_{d-1}, read off the last two letters, then joins them.  So each
    degree takes one map of its basis, and no table of it outlives it.
    """
    k = q.rack.size
    op = np.array(q.rack.op, dtype=np.int64).reshape(k, k)
    x, y = np.arange(k)[:, None], np.arange(k)
    # c_{d-1} moves x (x) y in the last two places to (x |> y) (x) x
    move = ((op - x) * k + x - y).ravel()
    orbit = np.arange(k ** min(degree, 1), dtype=np.int64)
    for d in range(2, degree + 1):
        orbit = _min_labels((orbit[:, None] * k + y).ravel(), (np.arange(k**d).reshape(-1, k * k) + move).reshape(1, -1))
    return orbit


def _commuting_translations(q: RackCocycle) -> list[np.ndarray]:
    """The rows phi = x |> - whose monomial lift g_x commutes with the braiding.

    g_x sends basis y to q(x, y) (x |> y).  It is invertible, as every row
    phi must be a permutation of X (_inverse_letters raises RackAxiomError
    otherwise), and g_x (x) g_x commutes with c on X (x) X when
    phi(y) |> phi(z) = phi(y |> z) and q(y, z) q(x, y |> z) = q(x, z)
    q(phi y, phi z) for all y, z.  The last identity is the cocycle
    condition at (x, y, z), so on a rack every x qualifies; each row is
    checked all the same, because file racks that fail the axioms reach
    `hilbert` too.  They do not depend on the degree, so a caller that
    builds several degrees finds them once (see `symmetrizer`).
    """
    _inverse_letters(q)
    k, m = q.rack.size, q.order
    op = np.array(q.rack.op, dtype=np.int64).reshape(k, k)
    ex = np.array(q.exp, dtype=np.int64).reshape(k, k)
    return [
        phi
        for phi, ex_x in zip(op, ex)
        if np.array_equal(op[phi[:, None], phi], phi[op])
        and not ((ex + ex_x[op] - ex_x - ex[phi[:, None], phi]) % m).any()
    ]


def _orbit_classes(orbit: np.ndarray, degree: int, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The class of every braid orbit under the translations phis (t, k), and its carry.

    Orbits are numbered by their smallest member; entry i of the class is
    the number of the smallest orbit (the head) in the class of orbit i.
    Row i of the carry is a permutation s of X whose letterwise action maps
    the head's orbit onto orbit i: the product of the translations along a
    breadth-first tree of the class, grown from its head, where an orbit
    first reached along several edges takes the one of the first
    translation.
    """
    k = phis.shape[1]
    reps = np.flatnonzero(orbit == np.arange(orbit.size))
    place = k ** np.arange(degree, dtype=np.int64)
    # maps[t, i]: the orbit that translation t sends orbit i to, read off its smallest member
    maps = np.searchsorted(reps, orbit[phis[:, reps[:, None] // place % k] @ place])
    orbit_class = _min_labels(np.arange(reps.size), maps)
    frontier = np.flatnonzero(orbit_class == np.arange(reps.size))
    carry = np.full((reps.size, k), -1, dtype=np.min_scalar_type(-k))
    carry[frontier] = np.arange(k)
    while frontier.size:
        child = maps[:, frontier]
        t, f = np.nonzero(carry[child, 0] < 0)
        # the edges in order of translation; the first edge to each child wins
        reached = child[t, f]
        by = np.argsort(reached, kind="stable")
        first = np.ones(by.size, dtype=bool)
        first[1:] = reached[by[1:]] != reached[by[:-1]]
        win = by[first]
        carry[reached[win]] = phis[t[win, None], carry[frontier[f[win]]]]
        frontier = reached[win]
    return orbit_class, carry


def check_dimension(size: int, degree: int, dim_cap: int) -> None:
    """Raise DimensionCapError if degree `degree` over a rack of `size` elements exceeds dim_cap.

    It needs only the size, so a caller may check it before building the rack.
    """
    dim = size**degree
    if dim > dim_cap:
        raise DimensionCapError(f"degree {degree} needs dimension {dim} > cap {dim_cap}")


def check_degree(q: RackCocycle, degree: int, dim_cap: int) -> None:
    """Raise DimensionCapError unless `symmetrizer` can build this degree.

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


def _sends(
    col: np.ndarray, lane: np.ndarray, expo: np.ndarray, d: int, k: int, inverse: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Columns and exponents of the lifted entries of step d after right multiplication by T_d.

    An entry zeta^expo at column C = col*k + lane moves under the prefix
    product P_j = c_{d-1} ... c_{d-j} to column v = P_j^-1(C) and gains the
    exponent of P_j at v.  c_i^-1 maps the letters a (x) z in places i and
    i + 1 to z (x) y with z |> y = a, so the last letter z = lane moves to
    place d - j and each letter a that it passes becomes y one place later,
    gaining exp[z][y] (_inverse_letters).  Returned: (len(C), d) arrays of
    v and of the exponent, not reduced mod the order, for j = 0..d-1.
    """
    step, gain = inverse
    sends = np.empty((col.size, d), dtype=np.int64)
    shifted = np.empty((col.size, d), dtype=np.int64)
    sends[:, 0], shifted[:, 0] = col * k + lane, expo
    row = lane * k
    head, low, place = col, 0, 1
    for j in range(1, d):
        head, letter = np.divmod(head, k)
        at = row + letter
        low = low + step[at] * place
        expo = expo + gain[at]
        place *= k
        sends[:, j] = (head * k + lane) * place + low
        shifted[:, j] = expo
    return sends, shifted


def symmetrizer(
    q: RackCocycle,
    degree: int,
    dim_cap: int = DEFAULT_DIM_CAP,
    rows: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    translations: list[np.ndarray] | None = None,
) -> SymmetrizerMatrix:
    """Sum the braid lifts of all degree! permutations into a sparse exact matrix.

    Every sigma in S_d factors uniquely as sigma' * s_{d-1} ... s_j with
    sigma' in S_{d-1}, 1 <= j <= d, and the lengths adding, so
    S_d = (S_{d-1} (x) id) . T_d with T_d = sum_j c_{d-1} ... c_j, a sum of
    d monomial operators.  The factor order matters: T_d built from
    c_j ... c_{d-1} sums lifts of words whose lengths do not add and gives
    wrong matrices (for -1 on x3, ranks 12, 29, 87 in degrees 3..5 instead
    of 3, 1, 0).

    Each step lifts the entries (r, c) of S_{d-1} to (rk + a, ck + a), sends
    every lifted column through the inverses of the d prefix products of T_d,
    letter by letter on k x k tables (_sends), and merges duplicate (row,
    column, exponent) entries, keyed in that order in the bit fields of one
    integer, a block of rows at a time.  No table over the basis is kept
    from one step to the next.  The rows of the rack table must be
    bijections (RackAxiomError, a ValueError, otherwise).

    The braid orbits (_braid_orbits) and their classes come first.  The
    classes are taken under `translations`, the list that
    _commuting_translations(q) returns; a caller that builds several
    degrees finds it once and passes it, and None finds it here.
    `rows(orbit, orbit_class)` then names the rows to build, ascending and
    distinct; None builds every row.  Row rk + a of S_d is row r of
    S_{d-1}, lifted to lane a and multiplied by T_d, so rows R of S_degree
    need rows floor(R / k^(degree-d)) of S_d and no other; the rows not
    built have no entries.
    """
    k = q.rack.size
    m = q.order
    if degree < 0:
        raise ValueError("degree must be >= 0")
    check_degree(q, degree, dim_cap)
    inverse = _inverse_letters(q)
    dim = k**degree
    orbit = _braid_orbits(q, degree)
    if translations is None:
        translations = _commuting_translations(q)
    phis = np.array(translations, dtype=np.int64).reshape(-1, k)
    orbit_class, orbit_carry = _orbit_classes(orbit, degree, phis)
    built = np.arange(dim, dtype=np.int64) if rows is None else np.asarray(rows(orbit, orbit_class), dtype=np.int64)
    if built.size and (built[0] < 0 or built[-1] >= dim or (built[1:] <= built[:-1]).any()):
        raise ValueError(f"rows to build must be ascending, distinct and in 0..{dim - 1}")

    # S_0 is the 1 x 1 identity, if any row is built
    expo_type, eb = np.min_scalar_type(m - 1), (m - 1).bit_length()
    start = np.zeros(min(built.size, 1), dtype=np.int32)
    ent = CountMatrix(start, start, start.astype(expo_type), np.ones_like(start))
    for d in range(1, degree + 1):
        n, prev = k**d, k ** (d - 1)
        cb = (n - 1).bit_length()
        # lanes[r, a]: whether row rk + a is one of the rows floor(R / k^(degree-d)) to build
        lanes = np.zeros(n, dtype=bool)
        lanes[built // k ** (degree - d)] = True
        lanes = lanes.reshape(prev, k)
        # previous rows in chunks of bounded expanded size
        per_row = np.bincount(ent.row, minlength=prev) * lanes.sum(axis=1)
        chunk = (np.cumsum(per_row) - per_row) * d // _CHUNK_ENTRIES
        bounds = np.concatenate(([0], np.flatnonzero(np.diff(chunk)) + 1, [prev]))
        ptr = np.searchsorted(ent.row, bounds).tolist()
        # room for all expanded entries; pages past the merged entries are never touched
        room = int(per_row.sum()) * d
        dtype = np.int32 if math.factorial(d) < 2**31 else np.int64
        out = CountMatrix(*(np.empty(room, t) for t in (np.int32, np.int32, expo_type, dtype)))
        used = 0
        for lo, hi in zip(ptr[:-1], ptr[1:]):
            at, lane = np.nonzero(lanes[ent.row[lo:hi]])
            at += lo
            row = ent.row[at].astype(np.int64) * k + lane
            col, expo = _sends(ent.col[at].astype(np.int64), lane, ent.expo[at].astype(np.int64), d, k, inverse)
            keys, w = _merge(((row[:, None] << cb | col) << eb | expo % m).ravel(), np.repeat(ent.data[at], d))
            fill = slice(used, used + keys.size)
            out.row[fill], out.col[fill] = keys >> (cb + eb), keys >> eb & ((1 << cb) - 1)
            out.expo[fill], out.data[fill] = keys & ((1 << eb) - 1), w
            used = fill.stop
        ent = CountMatrix(out.row[:used], out.col[:used], out.expo[:used], out.data[:used])
    return SymmetrizerMatrix(dim, m, degree, ent, orbit, orbit_class, orbit_carry, built)
