"""Graded dimensions of Nichols algebras: reports, primes, and the proven ranks of the symmetrizer.

`graded_dims` reports degrees 0 and 1 by identity.  Modular mode draws one
pair of primes per run and takes every degree from 2 on from the Leibniz
recursion modulo both (nichols.LeibnizEngine), tagged CERTIFIED.  At the
first degree where the primes disagree, that degree and every later one
are proven here instead, the first tagged FALLBACK; exact mode proves every
degree here.

A proof ranks the degree-d symmetrizer over Q(zeta).  It is block diagonal
over the braid-group orbits of the basis, because every braid lift maps a
basis vector into its orbit; entries of Z[zeta] may cancel (in x3 with
const:3:1, degree 3, the block of each word xxx is 2 + 2 zeta + 2 zeta^2 = 0),
which only lowers the rank of their block.  A translation
g_x: y -> q(x, y) (x |> y) whose square g_x (x) g_x commutes with the
braiding on X (x) X commutes with the symmetrizer, so it carries each block
onto the block of the image orbit with the same rank; on a rack every
2-cocycle satisfies this (it is the cocycle condition).  Only the block of
the smallest orbit in each class (SymmetrizerMatrix.orbit_class) is ranked,
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
S_(d-1) span the row space of S_d.  `rank` returns such a basis: the rows
its elimination pivots on at the prime that attains the proven rank,
carried to every orbit of the class (only row indices move), and each
degree is built only on the kept rows whose prefix is one of them (x4 chi,
degree 5: 70 rows of 7 776, against 1 216 kept rows).  The pivots are
independent over Q(zeta_m), so the proof stays unconditional; the fallback
degree, with no proven pivots below it, is built on every kept row.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import NamedTuple

import numpy as np

from .braided import (
    DEFAULT_DIM_CAP,
    SymmetrizerMatrix,
    _commuting_translations,
    _inverse_letters,
    check_degree,
    symmetrizer,
)
from .cocycle import RackCocycle
from .errors import DimensionCapError
from .nichols import LeibnizEngine

_PRIME_LOW = 2**30
_PRIME_HIGH = 2**31
# the order from which _draw_prime scans its candidates instead of rejecting random draws
_SCAN_ORDER = 2**10
CERTIFIED = "modular-certified (Monte Carlo)"
FALLBACK = "exact (fallback after modular disagreement)"


def expand_closed_form(factors: list[tuple[int, int]], max_degree: int | None = None) -> list[int]:
    """Coefficients of prod (m)_t^mult, index = degree in t, where (m)_t = 1 + t + ... + t^(m-1).

    Given max_degree, only the coefficients of degrees 0..max_degree are
    expanded (fewer if the product has a lower degree).  Each factor is
    (1 - t^m)^mult (1 - t)^(-mult), whose coefficient of t^i is the sum over
    j with m*j <= i of (-1)^j C(mult, j) C(mult - 1 + i - m*j, i - m*j), so
    no factor is multiplied out term by term.
    """
    for m, mult in factors:
        if m < 1 or mult < 1:
            raise ValueError(f"closed-form factor {m}:{mult} needs M >= 1 and MULT >= 1")
    top = sum((m - 1) * mult for m, mult in factors)
    if max_degree is not None:
        top = min(top, max_degree)
    coeffs = [1] + [0] * top
    for m, mult in factors:
        factor = [
            sum((-1) ** j * math.comb(mult, j) * math.comb(mult - 1 + i - m * j, i - m * j) for j in range(i // m + 1))
            for i in range(top + 1)
        ]
        coeffs = [sum(coeffs[j] * factor[i - j] for j in range(i + 1)) for i in range(top + 1)]
    return coeffs


class RankCertificate(NamedTuple):
    """The computed rank together with how it was obtained."""

    rank: int
    method: str  # "exact"; graded_dims also reports CERTIFIED and FALLBACK
    primes: tuple[int, ...]
    dim: int
    n_components: int
    # rows of the symmetrizer that form a basis of its row space (see rank)
    pivots: np.ndarray | None = None


def _is_prime_u32(n: int) -> bool:
    """Deterministic Miller-Rabin; witnesses 2,3,5,7 decide all n < 3_215_031_751."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _candidates(m: int) -> tuple[int, int]:
    """The first number p = 1 mod m in [2^30, 2^31), and how many such p the range holds."""
    first = _PRIME_LOW + (1 - _PRIME_LOW) % m
    return first, max(0, (_PRIME_HIGH - 1 - first) // m + 1)


def _draw_prime(rng: random.Random, m: int, avoid: set[int]) -> int:
    """A random prime in [2^30, 2^31) with p = 1 mod m, not in `avoid`, reproducible via rng.

    Below order _SCAN_ORDER a random p is drawn until one is = 1 mod m,
    prime and not avoided, which takes about 21 m draws.  From that order
    on, the candidates p = 1 mod m are scanned cyclically from a random one,
    so the search ends: DimensionCapError if none is a prime outside `avoid`.
    """
    if m < _SCAN_ORDER:
        while True:
            p = rng.randrange(_PRIME_LOW, _PRIME_HIGH)
            if p in avoid or (p - 1) % m != 0:
                continue
            if _is_prime_u32(p):
                return p
    first, count = _candidates(m)
    start = rng.randrange(count) if count else 0
    for j in range(count):
        p = first + (start + j) % count * m
        if p not in avoid and _is_prime_u32(p):
            return p
    raise DimensionCapError(f"no prime p = 1 mod {m} in [2^30, 2^31) is left to draw")


def _prime_divisors(m: int) -> list[int]:
    """The distinct prime divisors of m, ascending, by trial division."""
    divisors, d = [], 2
    while d * d <= m:
        if m % d == 0:
            divisors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return divisors + [m] if m > 1 else divisors


def _element_of_order(p: int, m: int) -> int:
    """The smallest representative in F_p of an m-th root of unity of exact order m."""
    if m == 1:
        return 1
    prime_divisors = _prime_divisors(m)
    for a in range(2, p):
        h = pow(a, (p - 1) // m, p)
        if h == 1:
            continue
        if all(pow(h, m // ell, p) != 1 for ell in prime_divisors):
            return h
    raise AssertionError(f"no element of order {m} mod {p}")


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
    """The distinct slices a[i] of a nonempty integer array, in byte order, and where each one stands in a.

    Each slice is compared as one np.void of its bytes; np.unique would do
    the same but imports numpy.ma on its first call.
    """
    flat = np.ascontiguousarray(a).reshape(a.shape[0], -1)
    keys = flat.view(np.dtype((np.void, flat.strides[0]))).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first].view(a.dtype).reshape(-1, *a.shape[1:]), order[first]


def _fold(rows: np.ndarray, cols: np.ndarray, expo: np.ndarray, data: np.ndarray, shape: tuple[int, int], order: int):
    """Fold one block into a small integer array of its rank, one slice per power of zeta that occurs.

    Entry i is data[i] zeta^expo[i] at (rows[i], cols[i]) of a block of
    `shape` (rows, columns).  For even order zeta^(order/2) = -1 folds
    exponent e + order/2 into e.  Slice s of the folded array holds the
    coefficients of zeta^exps[s], for the distinct folded exponents exps,
    ascending; entries that meet in one (row, exponent, column) are summed
    after one sort of their keys, none if the keys come in order (from
    _kept_blocks at order 1 or 2).  Zero rows and columns are dropped, then
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
    key = (rows * exps.size + slot) * shape[1] + cols
    if (key[1:] < key[:-1]).any():
        by = np.argsort(key)
        key, value = key[by], value[by]
    # entries that meet in one (row, exponent, column) are summed, and zero sums dropped
    start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    if start.size < key.size:
        key, value = key[start], np.add.reduceat(value, start)
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


def _pivots_dense_modp(a: np.ndarray, p: int) -> np.ndarray:
    """In-place Gaussian elimination over F_p on an int64 matrix (entries in [0, p)).

    Returns the rows of `a` that it pivots on: they are independent mod p,
    and their number is the rank.
    """
    nrows, ncols = a.shape
    perm = np.arange(nrows)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
            perm[[r, piv]] = perm[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = a[r, c:] * inv % p
        below = np.flatnonzero(a[r + 1 :, c])
        if below.size:
            idx = r + 1 + below
            a[idx, c:] = (a[idx, c:] - np.outer(a[idx, c], a[r, c:])) % p
        r += 1
    return perm[:r]


def _pivots_modp(block: np.ndarray, exps: np.ndarray, p: int, g: int) -> np.ndarray:
    """The pivot rows mod p, with zeta mapped to g, of a folded block with its exponents (_fold).

    The block is evaluated at g into one int64 array the size of the folded
    block, slice by slice; a block that is zero mod p has no pivot, without
    elimination.
    """
    a = np.zeros(block.shape[1:], dtype=np.int64)
    for e, part in zip(exps.tolist(), block):
        a += part.astype(np.int64) % p * pow(g, e, p) % p
    a %= p
    return _pivots_dense_modp(a, p) if a.any() else np.zeros(0, dtype=np.int64)


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
    return RankCertificate(value, "exact", (), sym.dim, sym.orbit_class.size, _carry(sym, pivots))


class HilbertReport:
    """Per-degree ranks of the symmetrizer plus optional closed-form comparison, filled in by graded_dims."""

    def __init__(self, rack_id: str, cocycle_id: str, mode: str, seed: int):
        self.rack_id, self.cocycle_id, self.mode, self.seed = rack_id, cocycle_id, mode, seed
        self.degrees: list[int] = []
        self.ranks: list[int] = []
        self.methods: list[str] = []
        self.primes: list[list[int]] = []
        self.closed_form: list[tuple[int, int]] | None = None
        self.closed_form_verdicts: list[bool] | None = None

    def to_dict(self) -> dict:
        d = {
            "rack": self.rack_id,
            "cocycle": self.cocycle_id,
            "mode": self.mode,
            "seed": self.seed,
            "degrees": list(self.degrees),
            "ranks": list(self.ranks),
            "methods": list(self.methods),
            "primes": [list(ps) for ps in self.primes],
        }
        if self.closed_form is not None:
            d["closed_form"] = [list(f) for f in self.closed_form]
            d["closed_form_verdicts"] = list(self.closed_form_verdicts)
        return d


def graded_dims(
    q: RackCocycle,
    max_degree: int,
    *,
    mode: str = "modular",
    seed: int = 0,
    dim_cap: int = DEFAULT_DIM_CAP,
    rack_id: str = "",
    cocycle_id: str = "",
    closed_form: list[tuple[int, int]] | None = None,
) -> HilbertReport:
    """Dimensions of the Nichols algebra in degrees 0..max_degree.

    Degrees 0 and 1 are identity shortcuts (rank 1 and rank = rack size); no
    matrix is built for them.  Modular mode draws one pair of primes
    p = 1 mod order from random.Random(seed) and ranks every degree from 2 on
    by the Leibniz recursion modulo both (nichols.LeibnizEngine), which
    closes the group of translations first.  At the first degree where the
    primes disagree, that degree is proven on the symmetrizer, on every kept
    row, and tagged FALLBACK with the pair; every later degree is proven the
    same way and tagged exact.  Exact mode proves every degree so: it builds
    only the rows that `rank` reads, those of the smallest braid orbit of
    every class (_kept_rows) whose prefix is a pivot row of the degree below
    (see `rank`).  The resource caps of the symmetrizer are checked for
    max_degree before any degree is built; they grow with the degree, so
    that covers every degree.  So is the cocycle order, which must leave two
    candidates p = 1 mod order in [2^30, 2^31) for the primes.  A closed
    form is expanded through max_degree (and a bad factor rejected) before
    that too.  The translations that sort the orbits into classes do not
    depend on the degree, so they are found once, at the first proven degree
    (braided._commuting_translations); the rows of the rack table must be
    bijections, at every max_degree, or RackAxiomError is raised before any
    degree.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if mode not in ("exact", "modular"):
        raise ValueError(f"unknown mode {mode!r}")
    # coefficients past the closed form's degree are 0
    series = None if closed_form is None else expand_closed_form(closed_form, max_degree) + [0] * (max_degree + 1)
    if max_degree >= 2:
        check_degree(q, max_degree, dim_cap)
        if _candidates(q.order)[1] < 2:
            raise DimensionCapError(
                f"cocycle order {q.order} leaves fewer than two numbers p = 1 mod it in [2^30, 2^31)"
            )
    report = HilbertReport(rack_id=rack_id, cocycle_id=cocycle_id, mode=mode, seed=seed)
    k = q.rack.size
    # RackAxiomError unless every row x |> - is a bijection, at every max_degree
    _inverse_letters(q)
    # the translations that sort the orbits into classes, the same in every degree, found at the first proof
    translations = None
    modular = None
    if mode == "modular" and max_degree >= 2:
        rng = random.Random(seed)
        p1 = _draw_prime(rng, q.order, set())
        primes = (p1, _draw_prime(rng, q.order, {p1}))
        engine = LeibnizEngine(q, primes, tuple(_element_of_order(p, q.order) for p in primes), dim_cap)
        modular = engine.ranks(max_degree)
    # a mask of the pivot rows of the degree below, for the symmetrizer; None keeps every row
    below = None
    for d in range(max_degree + 1):
        value = None if modular is None or d == 0 else next(modular, None)
        if d < 2:
            rank_d, method, used = (1, k)[d], "exact", ()
        elif value is not None:
            rank_d, method, used = value, CERTIFIED, primes
        else:
            if translations is None:
                translations = _commuting_translations(q)
            sym = symmetrizer(q, d, dim_cap=dim_cap, rows=partial(_kept_rows, below=below), translations=translations)
            cert = rank(sym, below=below)
            rank_d, method, used = cert.rank, "exact", ()
            if modular is not None:
                # the first disagreement of the primes, proven on every kept row
                method, used, modular = FALLBACK, primes, None
            below = np.zeros(sym.dim, dtype=bool)
            below[cert.pivots] = True
        report.degrees.append(d)
        report.ranks.append(rank_d)
        report.methods.append(method)
        report.primes.append(list(used))
    if series is not None:
        report.closed_form = list(closed_form)
        report.closed_form_verdicts = [r == c for r, c in zip(report.ranks, series)]
    return report
