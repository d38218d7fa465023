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
descend from, and no other row is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Callable

import numpy as np

from .cocycle import RackCocycle
from .errors import DimensionCapError

DEFAULT_DIM_CAP = 200_000


@dataclass
class MonomialOperator:
    """An invertible monomial operator: basis v maps to zeta_order^expo[v] * basis target[v]."""

    dim: int
    order: int
    target: np.ndarray
    expo: np.ndarray

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


@dataclass(frozen=True)
class BraidWord:
    """A positive word in braid generators 1..n-1 on n strands."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self):
        for i in self.letters:
            if not 1 <= i <= self.n - 1:
                raise ValueError(f"letter {i} out of range 1..{self.n - 1}")


def _strand_tables(q: RackCocycle, degree: int) -> list[tuple[np.ndarray, np.ndarray]]:
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


def rho(word: BraidWord, q: RackCocycle, degree: int) -> MonomialOperator:
    """The braid representation image of a positive word on X^(x)degree."""
    if word.n != degree:
        raise ValueError(f"word is on {word.n} strands but degree is {degree}")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    dim = q.rack.size**degree
    if dim > DEFAULT_DIM_CAP:
        raise DimensionCapError(f"degree {degree} needs dimension {dim} > cap {DEFAULT_DIM_CAP}")
    tables = _strand_tables(q, degree)
    out = MonomialOperator.identity(dim, q.order)
    for i in word.letters:
        tgt, ex = tables[i - 1]
        # right-compose with the generator: apply it first
        out = MonomialOperator(dim, q.order, out.target[tgt], (ex + out.expo[tgt]) % q.order)
    return out


def check_braid_equation(q: RackCocycle) -> bool:
    """Verify (c x id)(id x c)(c x id) = (id x c)(c x id)(id x c) on X^(x)3."""
    a = rho(BraidWord(3, (1,)), q, 3)
    b = rho(BraidWord(3, (2,)), q, 3)
    return a.compose(b).compose(a) == b.compose(a).compose(b)


@dataclass
class CountMatrix:
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


@dataclass
class SymmetrizerMatrix:
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


def _min_labels(maps: list[np.ndarray], size: int) -> np.ndarray:
    """Smallest element in the orbit of each i under the maps, by min-label propagation with pointer jumping."""
    label = np.arange(size, dtype=np.int64)
    while True:
        new = label.copy()
        for tgt in maps:
            np.minimum(new, new[tgt], out=new)
            new[tgt] = np.minimum(new[tgt], new)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _commuting_translations(q: RackCocycle) -> list[np.ndarray]:
    """The rows phi = x |> - whose monomial lift g_x commutes with the braiding.

    g_x sends basis y to q(x, y) (x |> y).  It is invertible and g_x (x) g_x
    commutes with c on X (x) X when phi is a permutation of X with
    phi(y) |> phi(z) = phi(y |> z) and q(y, z) q(x, y |> z) = q(x, z)
    q(phi y, phi z) for all y, z.  The last identity is the cocycle
    condition at (x, y, z), so on a rack every x qualifies; each row is
    checked all the same, because file racks that fail the axioms reach
    `hilbert` too.
    """
    k, m = q.rack.size, q.order
    op = np.array(q.rack.op, dtype=np.int64).reshape(k, k)
    ex = np.array(q.exp, dtype=np.int64).reshape(k, k)
    return [
        phi
        for phi, ex_x in zip(op, ex)
        if (np.bincount(phi, minlength=k) == 1).all()
        and np.array_equal(op[phi[:, None], phi], phi[op])
        and not ((ex + ex_x[op] - ex_x - ex[phi[:, None], phi]) % m).any()
    ]


def _orbit_classes(q: RackCocycle, degree: int, orbit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The class of every braid orbit under the translations of _commuting_translations, and its carry.

    Orbits are numbered by their smallest member; entry i of the class is
    the number of the smallest orbit (the head) in the class of orbit i.
    Row i of the carry is a permutation s of X whose letterwise action maps
    the head's orbit onto orbit i: the product of the translations along a
    breadth-first tree of the class, grown from its head.
    """
    k = q.rack.size
    reps = np.flatnonzero(orbit == np.arange(orbit.size))
    phis = _commuting_translations(q)
    place = k ** np.arange(degree, dtype=np.int64)
    letters = reps[:, None] // place % k
    # maps[t][i]: the orbit that translation t sends orbit i to, read off its smallest member
    maps = [np.searchsorted(reps, orbit[phi[letters] @ place]) for phi in phis]
    orbit_class = _min_labels(maps, reps.size)
    frontier = np.flatnonzero(orbit_class == np.arange(reps.size))
    carry = np.full((reps.size, k), -1, dtype=np.min_scalar_type(-k))
    carry[frontier] = np.arange(k)
    while frontier.size:
        reached = [frontier[:0]]
        for phi, tgt in zip(phis, maps):
            # tgt permutes the orbits, so the children of one translation are distinct
            child = tgt[frontier]
            new = carry[child, 0] < 0
            carry[child[new]] = phi[carry[frontier[new]]]
            reached.append(child[new])
        frontier = np.concatenate(reached)
    return orbit_class, carry


def check_degree(q: RackCocycle, degree: int, dim_cap: int) -> None:
    """Raise DimensionCapError unless `symmetrizer` can build this degree.

    The dimension k^degree must be within dim_cap, an entry's row, column
    and exponent must fit in a 64-bit key, and an entry, a count of at
    most degree! lifts, must fit in int64.  Each bound grows with the
    degree, so a degree that passes vouches for every smaller one.
    """
    dim = q.rack.size**degree
    if dim > dim_cap:
        raise DimensionCapError(f"degree {degree} needs dimension {dim} > cap {dim_cap}")
    if 2 * (dim - 1).bit_length() + (q.order - 1).bit_length() > 63:
        raise DimensionCapError(f"degree {degree} needs dimension {dim}, too large for 64-bit entry keys")
    if math.factorial(degree) >= 2**63:
        raise DimensionCapError(f"degree {degree} has entries up to {degree}! >= 2^63, too large for int64")


def _level(q: RackCocycle, d: int) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
    """The strand tables of degree d >= 1 and the column tables of assembly step d.

    Right multiplication by the prefix product P_j = c_{d-1}...c_{d-j},
    which takes v to target_j[v] with exponent expo_j[v], moves an entry
    from column C to column v = target_j^-1[C] and adds expo_j[v] to its
    exponent; inv[C, j] holds that column and add[C, j] that exponent.
    """
    k, m = q.rack.size, q.order
    n = k**d
    tables = _strand_tables(q, d)
    v = np.arange(n, dtype=np.int64)
    target, expo = v, np.zeros(n, dtype=np.int64)
    inv = np.empty((n, d), dtype=np.int64)
    add = np.empty((n, d), dtype=np.int64)
    inv[:, 0], add[:, 0] = v, 0
    for j, (tgt, ex) in enumerate(reversed(tables), start=1):
        target, expo = target[tgt], (ex + expo[tgt]) % m
        inv[target, j] = v
        add[target, j] = expo
    return tables, inv, add


def symmetrizer(
    q: RackCocycle,
    degree: int,
    dim_cap: int = DEFAULT_DIM_CAP,
    rows: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    levels: dict | None = None,
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
    every lifted column through the inverses of the d prefix products of T_d
    and merges duplicate (row, column, exponent) entries, keyed in that
    order in the bit fields of one integer, a block of rows at a time.

    The braid orbits and their classes come first, from the strand tables
    alone.  `rows(orbit, orbit_class)` then names the rows to build, ascending
    and distinct; None builds every row.  Row rk + a of S_d is row r of
    S_{d-1}, lifted to lane a and multiplied by T_d, so rows R of S_degree
    need rows floor(R / k^(degree-d)) of S_d and no other; the rows not
    built have no entries.

    `levels` may be any dict shared by calls on the same q: each level's
    tables (_level) are then built once for all of them.
    """
    k = q.rack.size
    m = q.order
    if degree < 0:
        raise ValueError("degree must be >= 0")
    check_degree(q, degree, dim_cap)
    dim = k**degree
    levels = {} if levels is None else levels
    for d in range(1, degree + 1):
        if d not in levels:
            levels[d] = _level(q, d)
    orbit = _min_labels([tgt for tgt, _ in levels[degree][0]] if degree else [], dim)
    orbit_class, orbit_carry = _orbit_classes(q, degree, orbit)
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
        _, inv, add = levels[d]
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
            col = ent.col[at].astype(np.int64) * k + lane
            expo = (ent.expo[at].astype(np.int64)[:, None] + add[col]) % m
            keys, w = _merge(((row[:, None] << cb | inv[col]) << eb | expo).ravel(), np.repeat(ent.data[at], d))
            fill = slice(used, used + keys.size)
            out.row[fill], out.col[fill] = keys >> (cb + eb), keys >> eb & ((1 << cb) - 1)
            out.expo[fill], out.data[fill] = keys & ((1 << eb) - 1), w
            used = fill.stop
        ent = CountMatrix(out.row[:used], out.col[:used], out.expo[:used], out.data[:used])
    return SymmetrizerMatrix(dim, m, degree, ent, orbit, orbit_class, orbit_carry, built)


def export_symmetrizer(sym: SymmetrizerMatrix, path: str, rack_id: str = "", cocycle_id: str = "") -> None:
    """Coordinate-format text dump: JSON header line, then `row col coefficient` lines.

    For order <= 2 the coefficient is a plain integer; otherwise it is the
    coefficient vector in the power basis of zeta, semicolon-separated.
    Only a symmetrizer with every row built can be exported.
    """
    import json

    if sym.rows.size != sym.dim:
        raise ValueError(f"only {sym.rows.size} of the {sym.dim} rows were built")

    header = {"degree": sym.degree, "rack": rack_id, "cocycle": cocycle_id, "m": sym.order}
    ent = sym.entries
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        if sym.order <= 2:
            # zeta = -1: the integer matrix of the counts, signed by (-1)^expo
            keys, vals = _merge(
                ent.row.astype(np.int64) * sym.dim + ent.col,
                ent.data * (1 - 2 * ent.expo.astype(np.int64)),
            )
            for key, val in zip(keys.tolist(), vals.tolist()):
                if val:
                    fh.write(f"{key // sym.dim} {key % sym.dim} {val}\n")
        else:
            lines = zip(ent.row.tolist(), ent.col.tolist(), ent.expo.tolist(), ent.data.tolist())
            for (r, c), cell in groupby(lines, key=lambda line: line[:2]):
                # the entries of a cell, ascending in expo, with zeros written between them
                coeffs, at = [], 0
                for _, _, e, v in cell:
                    coeffs.append("0;" * (e - at) + str(v))
                    at = e + 1
                fh.write(f"{r} {c} {';'.join(coeffs)}{';0' * (sym.order - at)}\n")
