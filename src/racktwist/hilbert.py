"""Graded ranks of symmetrizer matrices and Hilbert-series bookkeeping.

The rank of the degree-n symmetrizer is the dimension of the degree-n
component of the graded algebra attached to a rack-cocycle pair.  The
symmetrizer is block diagonal over the braid-group orbits of the basis,
because every braid lift maps a basis vector into its orbit; rank is summed
block by block.  The split needs nothing more: entries of Z[zeta] may cancel
(in x3 with const:3:1, degree 3, the block of each word xxx is
2 + 2 zeta + 2 zeta^2 = 0), which only lowers the rank of their block.  A
translation g_x: y -> q(x, y) (x |> y) whose square g_x (x) g_x commutes
with the braiding c on X (x) X commutes with the symmetrizer in every
degree, so it carries each block onto the block of the image orbit without
changing its rank.  On a rack every 2-cocycle satisfies this (it
is the cocycle condition), for chi as for -1.  The orbits fall into classes
under these translations (SymmetrizerMatrix.orbit_class), and only the
block of the smallest orbit in a class is ranked, weighted by the class
size.  A block's rows hold all of its entries, so `graded_dims` assembles
only the rows of those orbits; the other rows are never read.  One pass
cuts the integer entries of every ranked block once and folds them into a
small integer array with one slice per power of zeta that occurs in the
block, so nothing grows with m (the cocycle order) itself: for even m
zeta^(m/2) = -1 merges the exponents in pairs, and zero and repeated rows
and columns are dropped, which changes no rank (x4 chi, degree 5: the
640-block of rank 7 keeps 42 rows).  Each prime of the pass evaluates that
array with zeta mapped to an element of order m.  One elimination kernel
serves both modes: exact mode ranks each block modulo descending primes q = 1 mod m
below 2^31 until their product exceeds a Hadamard bound on the folded
block, raised to the power phi(m), on every minor one order above the rank
seen, which proves the rank over Q(zeta_m) for every m.  Modular mode passes two independently
drawn primes and reports their agreement as a Monte Carlo certificate; a
disagreement falls back to the proven rank.

Row u*k + a of S_d is row u of S_(d-1), lifted to lane a and multiplied by
T_d, so the rows whose prefix u lies in a basis of the row space of
S_(d-1) span the row space of S_d.  `rank` returns such a basis: the rows
its elimination pivots on in each ranked block, carried to every orbit of
the class by the translation that maps the one onto the other (only row
indices move), and `graded_dims` builds each degree only on the kept rows
whose prefix is one of them (x4 chi, degree 5: 70 rows of 7 776, against
1 216 kept rows).  Exact mode takes its pivots from the prime that attains
the proven rank; they are independent mod a prime above it, hence over
Q(zeta_m), and rank-many, so exact mode stays an unconditional proof.
Modular mode takes them from its first prime, so a modular-certified
degree also rests on the certificates of the degrees below it; a
disagreement is proven again on every kept row of its degree.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .braided import DEFAULT_DIM_CAP, SymmetrizerMatrix, check_degree, symmetrizer
from .cocycle import RackCocycle
from .errors import DimensionCapError

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


@dataclass(frozen=True)
class RankCertificate:
    """The computed rank together with how it was obtained."""

    rank: int
    method: str  # "exact" | CERTIFIED | FALLBACK
    primes: tuple[int, ...]
    dim: int
    n_components: int
    # rows of the symmetrizer that form a basis of its row space (see rank)
    pivots: np.ndarray | None = field(default=None, compare=False, repr=False)


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


def _fold(
    cells: np.ndarray, expo: np.ndarray, data: np.ndarray, shape: tuple[int, int], order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold a block into a small integer array of its rank, one slice per power of zeta that occurs.

    The block's entries are data[i] zeta^expo[i] at row-major positions
    cells[i], no two alike in both cell and exponent (as in _kept_blocks).
    For even order, zeta^(order/2) = -1 folds exponent e + order/2 into e,
    so the folded exponents lie below order/2; for odd order they are kept
    as they are.  Slice s of the folded array holds the coefficients of
    zeta^exps[s], for the distinct folded exponents exps, ascending.  Zero
    rows and columns are dropped, then repeated rows, then repeated
    columns: none of these changes the rank over Q(zeta) or modulo any
    prime, and merging equal columns makes no two rows equal.  The block is
    folded densely in the smallest dtype that holds the sum, over the
    exponents, of their largest |data|, which bounds every folded entry.
    Returned: the folded array, exps, and the row of the block that each
    folded row came from.
    """
    half = order // 2 if order % 2 == 0 else order
    by = np.argsort(expo, kind="stable")
    ascending = expo[by]
    first = np.ones(expo.size, dtype=bool)
    first[1:] = ascending[1:] != ascending[:-1]
    total = int(np.maximum.reduceat(np.abs(data[by]), np.flatnonzero(first)).sum())
    folded = expo.astype(np.int64) % half
    exps = np.sort(folded[by][first])
    exps = exps[np.diff(exps, prepend=-1) > 0]
    block = np.zeros((exps.size, shape[0] * shape[1]), dtype=np.min_scalar_type(-total - 1))
    slot = np.searchsorted(exps, folded)
    low = expo < half
    block[slot[low], cells[low]] = data[low]
    block[slot[~low], cells[~low]] -= data[~low]
    block = block.reshape(exps.size, *shape)
    rows, cols = block.any(axis=(0, 2)), block.any(axis=(0, 1))
    if not rows.any():
        return np.zeros((0, 0, 0), dtype=block.dtype), exps[:0], exps[:0]
    # laid out (row, exponent, column), so that each row is one contiguous slice
    block, origin = _distinct(block[:, rows][:, :, cols].transpose(1, 0, 2))
    block, _ = _distinct(block.transpose(2, 1, 0))
    return block.transpose(1, 2, 0), exps, np.flatnonzero(rows)[origin]


def _kept_blocks(sym: SymmetrizerMatrix, below: np.ndarray | None = None):
    """Yield (mult, block, exps, rows) for the smallest braid orbit of every class of orbits.

    The orbit's diagonal block stands for the mult orbits of its class, whose
    blocks have its rank (see SymmetrizerMatrix).  The entries of its built
    rows and all its columns are cut from `sym.entries` once, with their
    cells in row-major order, and folded (_fold) into block and exps;
    `rows` holds the row of `sym` that each folded row came from.  Only the
    rows of these orbits are read.  `sym` must have built all of them, or,
    given `below` (see _kept_rows), those whose prefix it marks.
    """
    n = sym.dim
    ent = sym.entries
    members = _kept_rows(sym.orbit, sym.orbit_class)
    built = np.zeros(n, dtype=bool)
    built[sym.rows] = True
    needed = members if below is None else _kept_rows(sym.orbit, sym.orbit_class, below)
    if not built[needed].all():
        raise ValueError("the symmetrizer lacks rows of the blocks that rank reads")
    members = members[np.argsort(sym.orbit[members], kind="stable")]
    at_row, at_col = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    orbits = np.split(members, np.flatnonzero(np.diff(sym.orbit[members])) + 1)
    mults = np.bincount(sym.orbit_class)
    for mult, cols in zip(mults[mults > 0].tolist(), orbits):
        rows = cols[built[cols]]
        at_row[rows], at_col[cols] = np.arange(rows.size), np.arange(cols.size)
        # the entries of the built rows, row range by row range
        lo = np.searchsorted(ent.row, rows.astype(ent.row.dtype))
        lens = np.searchsorted(ent.row, (rows + 1).astype(ent.row.dtype)) - lo
        ends = np.cumsum(lens)
        idx = np.repeat(lo - ends + lens, lens)
        idx += np.arange(idx.size)
        cells = at_row[ent.row[idx]] * cols.size
        cells += at_col[ent.col[idx]]
        block, exps, origin = _fold(cells, ent.expo[idx], ent.data[idx].astype(np.int64), (rows.size, cols.size), sym.order)
        yield mult, block, exps, rows[origin]


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
    that bound to the power phi(order), in integers.  The pivots of the
    first prime with rank r are independent mod a prime above it, hence over
    Q(zeta), and there are r of them.  DimensionCapError if the primes
    q = 1 mod order run out first.
    """
    # B per cell: the sum of |c_e| over the folded exponents
    bound = np.abs(block).sum(axis=0, dtype=np.int64)
    big = bound.max(axis=0, initial=0).tolist()
    nnz = np.count_nonzero(bound, axis=0).tolist()
    # a trailing 0: no minor is larger than the block
    weights = sorted((n * b * b for n, b in zip(nnz, big)), reverse=True) + [0]
    phi = order
    for ell in _prime_divisors(order):
        phi -= phi // ell
    # q starts at the least number = 1 mod order from 2^31 up, and steps down by order
    best, product, q = np.zeros(0, dtype=np.int64), 1, _PRIME_HIGH + (1 - _PRIME_HIGH) % order
    while not _exceeds(product * product, math.prod(weights[: best.size + 1]), phi):
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


def _kept_pivots(sym: SymmetrizerMatrix, moduli: list[int | None], below: np.ndarray | None = None):
    """For every modulus, the rank of the symmetrizer and the pivot rows of its kept blocks.

    A prime p maps zeta to an element of order sym.order in F_p and takes
    the pivots of each block mod p; None takes a basis of each block's row
    space over Q(zeta) (_pivots_exact).  Each kept block is cut once
    (_kept_blocks, with `below`) and counts with its class size; the pivots
    are rows of `sym`, in the head orbits only.
    """
    roots = [None if p is None else _element_of_order(p, sym.order) for p in moduli]
    totals = [0] * len(moduli)
    pivots = [[np.zeros(0, dtype=np.int64)] for _ in moduli]
    for mult, block, exps, rows in _kept_blocks(sym, below):
        for i, (p, g) in enumerate(zip(moduli, roots)):
            piv = _pivots_exact(block, exps, sym.order) if p is None else _pivots_modp(block, exps, p, g)
            totals[i] += mult * piv.size
            pivots[i].append(rows[piv])
    return [(total, np.concatenate(piv)) for total, piv in zip(totals, pivots)]


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


def rank(
    sym: SymmetrizerMatrix, mode: str, *, rng: random.Random | None = None, below: np.ndarray | None = None
) -> RankCertificate:
    """Rank of a symmetrizer matrix over Q(zeta), proven (exact) or modular-certified.

    The matrix is block diagonal over the braid orbits of the basis (see
    SymmetrizerMatrix), so rank is summed block by block, one block per
    class of orbits weighted by the class size.  Exact mode proves every
    block's rank over Q(zeta) from its ranks modulo enough primes
    q = 1 mod order (_pivots_exact), for every order and every block size;
    it draws no random prime and reports none.  Modular mode draws two
    primes p = 1 mod order (from `rng`, by default random.Random(0)), ranks
    every folded block (_fold) modulo both in one pass over the blocks, and
    requires agreement.  A disagreement falls back to the proven rank of
    the same rows and reports the two primes.

    The certificate's pivots are a basis of the row space: the pivot rows
    of every head block, at the first prime in modular mode and at the
    prime that attains the proven rank otherwise, carried to every orbit
    (_carry).  Given `below`, a mask of such a basis of the degree below,
    only the kept rows whose prefix it marks need to be built: row u*k + a
    is row u of the degree below, lifted to lane a and multiplied by T_d,
    so those rows span every kept row.
    """
    n_blocks = sym.orbit_class.size
    if mode == "exact":
        ((value, pivots),) = _kept_pivots(sym, [None], below)
        return RankCertificate(value, "exact", (), sym.dim, n_blocks, _carry(sym, pivots))
    if mode != "modular":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        rng = random.Random(0)
    p1 = _draw_prime(rng, sym.order, set())
    p2 = _draw_prime(rng, sym.order, {p1})
    (r1, pivots), (r2, _) = _kept_pivots(sym, [p1, p2], below)
    if r1 == r2:
        return RankCertificate(r1, CERTIFIED, (p1, p2), sym.dim, n_blocks, _carry(sym, pivots))
    ((value, pivots),) = _kept_pivots(sym, [None], below)
    return RankCertificate(value, FALLBACK, (p1, p2), sym.dim, n_blocks, _carry(sym, pivots))


@dataclass
class HilbertReport:
    """Per-degree ranks of the symmetrizer plus optional closed-form comparison."""

    rack_id: str
    cocycle_id: str
    mode: str
    seed: int
    degrees: list[int] = field(default_factory=list)
    ranks: list[int] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    primes: list[list[int]] = field(default_factory=list)
    closed_form: list[tuple[int, int]] | None = None
    closed_form_verdicts: list[bool] | None = None

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
    on_matrix: Callable[[SymmetrizerMatrix], None] | None = None,
) -> HilbertReport:
    """Ranks of the symmetrizers in degrees 0..max_degree.

    Degrees 0 and 1 are identity shortcuts (rank 1 and rank = rack size); no
    matrix is built for them.  Each other degree builds only the rows that
    `rank` reads, those of the smallest braid orbit of every class
    (_kept_rows) whose prefix is a pivot row of the degree below (see
    `rank`), unless `on_matrix` is given: it receives every symmetrizer
    that is built, with all its rows.  A modular disagreement is proven
    again on every kept row of its degree, so that the fallback does not
    rest on Monte Carlo pivots below.  The resource caps are checked for
    max_degree before any degree is built; they grow with the degree, so
    that covers every degree.  So is the cocycle order, which must leave
    two candidates p = 1 mod order in [2^30, 2^31) for the primes.  A closed
    form is expanded through max_degree (and a bad factor rejected) before
    that too.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    # coefficients past the closed form's degree are 0
    series = None if closed_form is None else expand_closed_form(closed_form, max_degree) + [0] * (max_degree + 1)
    if max_degree >= 2:
        check_degree(q, max_degree, dim_cap)
        if _candidates(q.order)[1] < 2:
            raise DimensionCapError(
                f"cocycle order {q.order} leaves fewer than two numbers p = 1 mod it in [2^30, 2^31)"
            )
    rng = random.Random(seed)
    report = HilbertReport(rack_id=rack_id, cocycle_id=cocycle_id, mode=mode, seed=seed)
    k = q.rack.size
    # each level's assembly tables, built once for every degree
    levels = {}
    # a mask of the pivot rows of the degree below; None keeps every row
    below = None
    for d in range(max_degree + 1):
        if d == 0:
            cert = RankCertificate(1, "exact", (), 1, 0)
        elif d == 1:
            cert = RankCertificate(k, "exact", (), k, 0)
        elif on_matrix is not None:
            sym = symmetrizer(q, d, dim_cap=dim_cap, levels=levels)
            on_matrix(sym)
            cert = rank(sym, mode, rng=rng)
        else:
            sym = symmetrizer(q, d, dim_cap=dim_cap, rows=partial(_kept_rows, below=below), levels=levels)
            cert = rank(sym, mode, rng=rng, below=below)
            if cert.method == FALLBACK and below is not None:
                # these rows were chosen by Monte Carlo pivots below: prove the degree on every kept row
                sym = symmetrizer(q, d, dim_cap=dim_cap, rows=_kept_rows, levels=levels)
                cert = replace(rank(sym, "exact"), method=FALLBACK, primes=cert.primes)
            below = np.zeros(sym.dim, dtype=bool)
            below[cert.pivots] = True
        report.degrees.append(d)
        report.ranks.append(cert.rank)
        report.methods.append(cert.method)
        report.primes.append(list(cert.primes))
    if series is not None:
        report.closed_form = list(closed_form)
        report.closed_form_verdicts = [r == c for r, c in zip(report.ranks, series)]
    return report
