"""The proven k^d rank path: the quantum symmetrizer and its ranks over Q(zeta).

`ranks` yields the proven rank of every degree from a first one on, and
keeps the pivot rows of each degree to build the next.  Only
`hilbert.graded_dims` imports this module, inside the branches that prove a
degree: every degree of `--mode exact`, and the degrees from the first
disagreement of the Leibniz recursion's two primes on.  So no modular,
twist or selfcheck run compiles it.  Its one elimination modulo a prime is
the recursion's (nichols._rref), which every run that loads this module
has loaded.  The caps of a degree's k^d blocks (check_degree) are decided
here too, by `symmetrizer` before it builds a degree, and by graded_dims
for every degree of `--mode exact` at once.

The degree-d symmetrizer is assembled as an exact sparse matrix with
coefficients in Z[zeta_m], degree by degree from the factorisation
S_d = (S_{d-1} (x) id) . T_d, and held as one set of numpy coordinate arrays
whose entries carry their power of zeta, so storage grows with the entries
and not with m.  The braid-group orbits of the basis come with it: the
symmetrizer is block diagonal over them.  So do their classes under the
translations x |> - of X, which carry blocks onto blocks of the same rank.
Both depend only on the braiding, so they are found before assembly, and
the caller may then ask for some rows only: row v of S_d is row
floor(v/k) of S_{d-1}, lifted and multiplied by T_d, so those rows are
built exactly from the rows of lower degrees that they descend from, and
no other row is.  Assembly builds no table over the
basis: each lifted column is sent through T_d letter by letter, on k x k
tables of the inverse braiding (_inverse_letters), so a degree pays for
the entries of the rows it builds.  Over the basis, each degree takes one
map to find its orbits, and frees it before the next degree.

A proof ranks the degree-d symmetrizer over Q(zeta).  It is block diagonal
over the braid-group orbits of the basis, because every braid lift maps a
basis vector into its orbit; entries of Z[zeta] may cancel (in x3 with
const:3:1, degree 3, the block of each word xxx is 2 + 2 zeta + 2 zeta^2 = 0),
which only lowers the rank of their block.  A translation
g_x: y -> q(x, y) (x |> y) whose square g_x (x) g_x commutes with the
braiding on X (x) X commutes with the symmetrizer, so it carries each block
onto the block of the image orbit with the same rank; every x does, as q
is a 2-cocycle on a rack (self-distributivity and the cocycle condition at
(x, y, z), which `hilbert.graded_dims` checks).  Only the block of the
smallest orbit in each class (SymmetrizerMatrix.orbit_class) is ranked,
weighted by the class size, and only its rows are assembled.  Each ranked
block is cut from the integer entries and folded on its own into a small
integer array with one slice per power of zeta that occurs (for even m
zeta^(m/2) = -1 merges exponents in pairs; zero and repeated rows and
columns are dropped), so memory is bounded by the largest block and does
not grow with m.  Its rank is proven modulo descending primes q = 1 mod m
below 2^31 until their product exceeds a Hadamard bound on every minor one
order above the rank seen, raised to the power phi(m).

Row u*k + a of S_d is row u of S_(d-1), lifted to lane a and multiplied by
T_d, so the rows whose prefix u lies in a basis of the row space of
S_(d-1) span the row space of S_d.  `rank` returns such a basis: in each
ranked block, at the prime that attains the proven rank, the rows that are
independent of the rows before them (the pivot columns of the block's
transpose in reduced echelon form), so the basis does not depend on the
order of elimination.  They are carried to every orbit of the class (only
row indices move), and each degree is built only on the kept rows whose
prefix is one of them (x4 chi, degree 5: 70 rows of 7 776, against 1 216
kept rows).  The pivots are independent over Q(zeta_m), so the proof stays
unconditional; the first degree that `ranks` proves, with no pivots below
it, is built on every kept row.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .braided import DEFAULT_DIM_CAP
from .cocycle import RackCocycle
from .errors import DimensionCapError
from .hilbert import _PRIME_HIGH, _element_of_order, _is_prime_u32, _prime_divisors
from .nichols import _rref
from .rack import _first_occurrences, _layer_walk, _min_labels, _row_keys


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


class SymmetrizerMatrix(NamedTuple):
    """The symmetrizer in degree `degree`: sum over S_degree of braid lifts.

    Entries live in Z[zeta_order]; `entries` holds the positive integer
    count of contributions with scalar zeta^e at each (row, col, e) that
    has one.  `orbit[v]` is the smallest basis index in the braid-group
    orbit of v; every lift maps a basis vector into its orbit, so the
    matrix is block diagonal over the orbits.

    Let g_x send basis y to q(x, y) (x |> y).  On a rack with a 2-cocycle
    g_x (x) g_x commutes with the braiding c on X (x) X for every x, for -1
    and chi alike, so g_x^(x)degree commutes with every lift and with the
    symmetrizer, and it carries the block of an orbit onto the block of the
    image orbit with the same rank.  The x sort the orbits into classes;
    `orbit_class[i]` is the number of the smallest orbit in the class of
    orbit i, orbits numbered by their smallest member.  `rank` ranks
    one block per class and weights it by the class size.
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


class RankCertificate(NamedTuple):
    """The proven rank of a symmetrizer and a basis of its row space."""

    rank: int
    # rows of the symmetrizer that form a basis of its row space (see rank)
    pivots: np.ndarray


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


def _within(size: int, degree: int, bound: int) -> bool:
    """Whether size**degree <= bound, multiplied up to the bound and stopped there, so a huge degree costs nothing."""
    power = 1
    for _ in range(degree if size > 1 else min(degree, 1)):
        if power > bound:
            return False
        power *= size
    return power <= bound


def _dimension(size: int, degree: int) -> str:
    """size**degree written out if it fits in 64 bits, else as size^degree."""
    return str(size**degree) if degree * size.bit_length() <= 64 else f"{size}^{degree}"


def check_degree(q: RackCocycle, degree: int, dim_cap: int) -> None:
    """Raise DimensionCapError unless `symmetrizer` can build this degree.

    The dimension k^degree must be within dim_cap, an entry's row, column
    and exponent must fit in a 64-bit key, and an entry, a count of at most
    degree! lifts, must fit in int64.  Each bound grows with the degree, so
    a degree that passes vouches for every smaller one.  k^degree is
    multiplied up no further than just past each bound, and degree! is
    never built.
    """
    k = q.rack.size
    if not _within(k, degree, dim_cap):
        raise DimensionCapError(f"degree {degree} needs dimension {_dimension(k, degree)} > cap {dim_cap}")
    # a key holds 2 bits(k^degree - 1) + bits(order - 1) <= 63 bits, that is k^degree <= 2^width
    width = (63 - (q.order - 1).bit_length()) // 2
    if width < 0 or not _within(k, degree, 2**width):
        dim = _dimension(k, degree)
        raise DimensionCapError(f"degree {degree} needs dimension {dim}, too large for 64-bit entry keys")
    # 20! < 2^63 <= 21!
    if degree > 20:
        raise DimensionCapError(f"degree {degree} has entries up to {degree}! >= 2^63, too large for int64")


def _braid_orbits(q: RackCocycle, degree: int) -> np.ndarray:
    """orbit[v]: the smallest basis index in the braid-group orbit of v in X^(x)degree.

    c_1 ... c_{d-2} act on the first d - 1 factors only, so in X^(x)d their
    orbits are the orbits of degree d - 1, each with a fixed last letter;
    c_{d-1}, read off the last two letters, then joins them.  So each
    degree takes one map of its basis, and no table of it outlives it.
    """
    k, op = q.rack.size, q.rack.op
    x, y = np.arange(k)[:, None], np.arange(k)
    # c_{d-1} moves x (x) y in the last two places to (x |> y) (x) x
    move = ((op - x) * k + x - y).ravel()
    orbit = np.arange(k ** min(degree, 1), dtype=np.int64)
    for d in range(2, degree + 1):
        orbit = _min_labels((orbit[:, None] * k + y).ravel(), (np.arange(k**d).reshape(-1, k * k) + move).reshape(1, -1))
    return orbit


def _orbit_classes(orbit: np.ndarray, degree: int, op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The class of every braid orbit under the translations x |> -, the rows of op, and its carry.

    Orbits are numbered by their smallest member; entry i of the class is
    the number of the smallest orbit (the head) in the class of orbit i.
    Row i of the carry is a permutation s of X whose letterwise action maps
    the head's orbit onto orbit i: the product of the translations along a
    breadth-first tree of the class, grown from its head, where an orbit
    first reached along several edges takes the one of the first
    translation.
    """
    k = len(op)
    reps = np.flatnonzero(orbit == np.arange(orbit.size))
    place = k ** np.arange(degree, dtype=np.int64)
    # maps[t, i]: the orbit that translation t sends orbit i to, read off its smallest member
    maps = np.searchsorted(reps, orbit[op[:, reps[:, None] // place % k] @ place])
    orbit_class = _min_labels(np.arange(reps.size), maps)
    heads = np.flatnonzero(orbit_class == np.arange(reps.size))
    carry = np.full((reps.size, k), -1, dtype=np.min_scalar_type(-k))
    carry[heads] = np.arange(k)
    for child, parent, t in _layer_walk(maps, heads):
        carry[child] = op[t[:, None], carry[parent]]
    return orbit_class, carry


def _inverse_letters(q: RackCocycle) -> tuple[np.ndarray, np.ndarray]:
    """Flat k x k tables of c^-1: step[z*k + a] = y with z |> y = a, and gain[z*k + a] = exp[z][y].

    c maps x (x) y to q(x, y) (x |> y) (x) x, so c^-1 maps a (x) z to
    z (x) y, undoing the scalar q(z, y).  Every row z |> - must be a
    bijection (cocycle.check_rack_cocycle).
    """
    k = q.rack.size
    step = np.empty((k, k), dtype=np.int64)
    step[np.arange(k)[:, None], q.rack.op] = np.arange(k)
    return step.ravel(), q.exp[np.arange(k)[:, None], step].ravel()


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
    from one step to the next.  q must be a checked 2-cocycle on a rack
    (cocycle.check_rack_cocycle); `hilbert.graded_dims` checks it.

    The braid orbits (_braid_orbits) and their classes under the rows
    x |> - of the rack table come first.
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
    orbit_class, orbit_carry = _orbit_classes(orbit, degree, q.rack.op)
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


def _kept_rows(orbit: np.ndarray, orbit_class: np.ndarray, below: np.ndarray | None = None) -> np.ndarray:
    """The rows of the smallest braid orbit of every class, ascending: every row that rank reads.

    Given `below`, a mask over the rows of the degree below, only the rows
    whose prefix (the row without its last letter) it marks are kept.
    """
    heads = np.flatnonzero(orbit_class == np.arange(orbit_class.size))
    kept = np.zeros(orbit.size, dtype=bool)
    kept[np.flatnonzero(orbit == np.arange(orbit.size))[heads]] = True
    kept = kept[orbit]
    if below is not None:
        kept &= np.repeat(below, orbit.size // below.size)
    return np.flatnonzero(kept)


def _distinct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct slices a[i] of a nonempty integer array, in byte order, and where each one stands in a."""
    keys = _row_keys(a)
    order, first = _first_occurrences(keys)
    return keys[order[first]].view(a.dtype).reshape(-1, *a.shape[1:]), order[first]


def _fold(rows: np.ndarray, cols: np.ndarray, expo: np.ndarray, data: np.ndarray, shape: tuple[int, int], order: int):
    """Fold one block into a small integer array of its rank, one slice per power of zeta that occurs.

    Entry i is data[i] zeta^expo[i] at (rows[i], cols[i]) of a block of
    `shape` (rows, columns).  For even order zeta^(order/2) = -1 folds
    exponent e + order/2 into e.  Slice s of the folded array holds the
    coefficients of zeta^exps[s], for the distinct folded exponents exps,
    ascending; entries that meet in one (row, exponent, column) are summed
    (_merge), and zero sums dropped.  Zero rows and columns are dropped, then
    repeated rows, then repeated columns, on the block laid out densely in
    the smallest dtype that holds its largest |entry|: none of these changes
    the rank over Q(zeta) or modulo any prime, and merging equal columns
    makes no two rows equal.  Returned: the folded array, exps, and the row
    of the block that each folded row came from.
    """
    half = order // 2 if order % 2 == 0 else order
    value = data.astype(np.int64)
    np.negative(value, out=value, where=expo >= half)
    if half == 1:
        exps, slot = np.zeros(1, dtype=np.int64), 0
    else:
        folded = expo.astype(np.int64) % half
        exps = np.sort(folded)
        exps = exps[np.diff(exps, prepend=-1) != 0]
        slot = np.searchsorted(exps, folded)
    key, value = _merge((rows * exps.size + slot) * shape[1] + cols, value)
    nonzero = value != 0
    key, value = key[nonzero], value[nonzero]
    if not key.size:
        return np.zeros((0, 0, 0), dtype=np.int8), exps[:0], exps[:0]
    # laid out (row, exponent, column) on the nonzero rows and columns, so that each row is one contiguous slice
    row, col = np.divmod(key, shape[1])
    row, slot = np.divmod(row, exps.size)
    new_row = np.concatenate(([True], row[1:] != row[:-1]))
    kept_col = np.zeros(shape[1], dtype=bool)
    kept_col[col] = True
    col_at = np.cumsum(kept_col) - 1
    shape = (int(np.count_nonzero(new_row)), exps.size, int(col_at[-1]) + 1)
    block = np.zeros(math.prod(shape), dtype=np.min_scalar_type(-int(np.abs(value).max()) - 1))
    block[((np.cumsum(new_row) - 1) * exps.size + slot) * shape[2] + col_at[col]] = value
    block, origin = _distinct(block.reshape(shape))
    block, _ = _distinct(block.transpose(2, 1, 0))
    return block.transpose(1, 2, 0), exps, row[new_row][origin]


def _kept_blocks(sym: SymmetrizerMatrix, below: np.ndarray | None = None):
    """Yield (mult, block, exps, rows) for the smallest braid orbit of every class of orbits.

    The orbit's diagonal block stands for the mult orbits of its class, whose
    blocks have its rank (see SymmetrizerMatrix).  Each block, the entries of
    its built rows in all the columns of its orbit, is cut from `sym.entries`
    and folded (_fold) on its own, so working memory is bounded by the
    largest block; `rows` holds the row of `sym` that each folded row came
    from.  Only the rows of these orbits are read.  `sym` must have built all
    of them, or, given `below` (see _kept_rows), those whose prefix it marks.
    """
    ent = sym.entries
    members = _kept_rows(sym.orbit, sym.orbit_class)
    built = np.zeros(sym.dim, dtype=bool)
    built[sym.rows] = True
    if not built[members if below is None else _kept_rows(sym.orbit, sym.orbit_class, below)].all():
        raise ValueError("the symmetrizer lacks rows of the blocks that rank reads")
    members = members[np.argsort(sym.orbit[members], kind="stable")]
    mults = np.bincount(sym.orbit_class)
    # each head orbit's members are one run of members, its built rows one run of rows
    starts = np.flatnonzero(np.diff(sym.orbit[members], prepend=-1))
    sizes = np.diff(starts, append=members.size)
    at_col = np.empty(sym.dim, dtype=np.int64)
    at_col[members] = np.arange(members.size) - np.repeat(starts, sizes)
    rows = members[built[members]]
    row_ends = [0] + np.cumsum(built[members])[starts + sizes - 1].tolist()
    # the entries of built row i are ent[lo[i]:lo[i] + lens[i]], entry j of a run of rows is ent[j + shift[i]]
    lo = np.searchsorted(ent.row, rows.astype(ent.row.dtype))
    lens = np.searchsorted(ent.row, (rows + 1).astype(ent.row.dtype)) - lo
    ends = np.concatenate(([0], np.cumsum(lens)))
    shift = lo - ends[:-1]
    ends = ends.tolist()
    for mult, r0, r1, n_cols in zip(mults[mults > 0].tolist(), row_ends, row_ends[1:], sizes.tolist()):
        idx = np.repeat(shift[r0:r1], lens[r0:r1]) + np.arange(ends[r0], ends[r1])
        local = np.repeat(np.arange(r1 - r0), lens[r0:r1])
        shape = (r1 - r0, n_cols)
        block, exps, origin = _fold(local, at_col[ent.col[idx]], ent.expo[idx], ent.data[idx], shape, sym.order)
        yield mult, block, exps, rows[r0 + origin]


def _pivots_modp(block: np.ndarray, exps: np.ndarray, p: int, g: int) -> np.ndarray:
    """The pivot rows mod p, with zeta mapped to g, of a folded block with its exponents (_fold).

    The block is evaluated at g into one int64 array, slice by slice, laid
    out transposed: the pivot columns of its reduced echelon form (_rref)
    are the rows of the block that are independent of the rows before them.
    """
    a = np.zeros(block.shape[:0:-1], dtype=np.int64)
    for e, part in zip(exps.tolist(), block):
        a += part.T.astype(np.int64) % p * pow(g, e, p) % p
    a %= p
    return np.array(_rref(a[None], np.array([p], dtype=np.int64)), dtype=np.int64)


def _pivots_exact(block: np.ndarray, exps: np.ndarray, order: int) -> np.ndarray:
    """Rows of a folded block with its exponents (_fold) that form a basis of its row space over Q(zeta), zeta of exact order `order`.

    Each prime q = 1 mod order maps zeta to an element of order `order` in
    F_q, the residue map of a degree-1 prime above q, and every rank mod q is
    at most the rank over Q(zeta).  If the rank exceeded r, the largest rank
    mod q seen, some minor D of order r + 1 would be nonzero and lie in a
    prime above every q tried, so their product would divide the nonzero
    integer N(D), the product of sigma(D) over the phi(order) embeddings
    sigma.  By Hadamard's inequality |sigma(D)|^2 is at most the product of
    the r + 1 largest column weights nnz * B^2, where B bounds
    |sigma(entry)| over the column: the sum of |c_e| over the folded
    exponents, that is of |c_e - c_(e + order/2)| over e < order/2 for even
    order (zeta^(order/2) = -1), and of |c_e| for odd order.  Primes q are
    taken in descending order below 2^31 until their product squared exceeds
    that bound to the power phi(order), in integers, or until r is the
    smaller side of the block, which then has no minor of order r + 1.  The
    pivots of the first prime with rank r are independent mod a prime above
    it, hence over Q(zeta), and there are r of them.  DimensionCapError if
    the primes q = 1 mod order run out first.
    """
    # B per cell: the sum of |c_e| over the folded exponents
    bound = np.abs(block).sum(axis=0, dtype=np.int64)
    big = bound.max(axis=0, initial=0).tolist()
    nnz = np.count_nonzero(bound, axis=0).tolist()
    weights = sorted((n * b * b for n, b in zip(nnz, big)), reverse=True)
    side = min(bound.shape)
    phi = order
    for ell in _prime_divisors(order):
        phi -= phi // ell
    # q starts at the least number = 1 mod order from 2^31 up, and steps down by order
    best, product, q = np.zeros(0, dtype=np.int64), 1, _PRIME_HIGH + (1 - _PRIME_HIGH) % order
    # no minor is larger than the smaller side of the block
    while best.size < side and not _exceeds(product * product, math.prod(weights[: best.size + 1]), phi):
        q -= order
        while q > 1 and not _is_prime_u32(q):
            q -= order
        if q < 2:
            raise DimensionCapError(f"too few primes q = 1 mod {order} below 2^31 to prove a rank")
        pivots = _pivots_modp(block, exps, q, _element_of_order(q, order))
        if pivots.size > best.size:
            best = pivots
        product *= q
    return best


def _exceeds(a: int, w: int, phi: int) -> bool:
    """Whether a > w^phi, in integers; w^phi is not formed when its bit length alone settles it."""
    if w > 1 and (w.bit_length() - 1) * phi >= a.bit_length():
        return False
    return a > w**phi


def _kept_pivots(sym: SymmetrizerMatrix, below: np.ndarray | None = None) -> tuple[int, np.ndarray]:
    """The proven rank of the symmetrizer and a basis of the row space of its kept blocks (_pivots_exact).

    Each kept block is cut once (_kept_blocks, with `below`) and counts with
    its class size; the pivots are rows of `sym`, in the head orbits only.
    """
    total, pivots = 0, [np.zeros(0, dtype=np.int64)]
    for mult, block, exps, rows in _kept_blocks(sym, below):
        piv = _pivots_exact(block, exps, sym.order)
        total += mult * piv.size
        pivots.append(rows[piv])
    return total, np.concatenate(pivots)


def _carry(sym: SymmetrizerMatrix, pivots: np.ndarray) -> np.ndarray:
    """Carry the pivot rows of every head orbit to each orbit of its class, ascending.

    Orbit i receives the head's pivots mapped letterwise by
    sym.orbit_carry[i], a product of translations g_x that commute with the
    symmetrizer, so they are as independent as the head's and as many.
    Only row indices move.
    """
    k = sym.orbit_carry.shape[1]
    reps = np.flatnonzero(sym.orbit == np.arange(sym.dim))
    head = np.searchsorted(reps, sym.orbit[pivots])
    pivots = pivots[np.argsort(head, kind="stable")]
    per_head = np.bincount(head, minlength=reps.size)
    first = np.cumsum(per_head) - per_head
    # slot s of the result belongs to orbit[s] and takes the pivot of its head
    # at the same place as s among the slots of orbit[s]
    counts = per_head[sym.orbit_class]
    orbit = np.repeat(np.arange(reps.size), counts)
    slot = np.arange(orbit.size) - (np.cumsum(counts) - counts)[orbit]
    src = pivots[first[sym.orbit_class[orbit]] + slot]
    place = k ** np.arange(sym.degree, dtype=np.int64)
    return np.sort(sym.orbit_carry[orbit[:, None], src[:, None] // place % k] @ place)


def rank(sym: SymmetrizerMatrix, *, below: np.ndarray | None = None) -> RankCertificate:
    """The rank of a symmetrizer matrix over Q(zeta), proven.

    The matrix is block diagonal over the braid orbits of the basis (see
    SymmetrizerMatrix), so rank is summed block by block, one block per
    class of orbits weighted by the class size.  Every block's rank over
    Q(zeta) is proven from its ranks modulo enough primes q = 1 mod order
    (_pivots_exact), for every order and every block size; no random prime
    is drawn or reported.

    The certificate's pivots are a basis of the row space: the pivot rows
    of every head block, at the prime that attains the proven rank, carried
    to every orbit (_carry).  Given `below`, a mask of such a basis of the
    degree below, only the kept rows whose prefix it marks need to be
    built: row u*k + a is row u of the degree below, lifted to lane a and
    multiplied by T_d, so those rows span every kept row.
    """
    value, pivots = _kept_pivots(sym, below)
    return RankCertificate(value, _carry(sym, pivots))


def ranks(q: RackCocycle, first: int, max_degree: int, dim_cap: int):
    """Yield the proven rank of the symmetrizer in each degree first..max_degree.

    Degree `first` is built on every kept row (_kept_rows); each later
    degree only on the kept rows whose prefix is a pivot row of the degree
    below, which span them (see rank).
    """
    below = None
    for d in range(first, max_degree + 1):
        sym = symmetrizer(q, d, dim_cap=dim_cap, rows=partial(_kept_rows, below=below))
        cert = rank(sym, below=below)
        below = np.zeros(sym.dim, dtype=bool)
        below[cert.pivots] = True
        yield cert.rank
