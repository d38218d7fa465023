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
small integer array: for even m (the cocycle order) zeta^(m/2) = -1 merges
the exponent classes in pairs, and zero and repeated rows and columns are
dropped, which changes no rank (x4 chi, degree 5: the 640-block of rank 7
keeps 42 rows).  Each prime of the pass evaluates that array with zeta
mapped to an element of order m.  One elimination kernel serves both
modes: exact mode ranks each block modulo descending primes q = 1 mod m
below 2^31 until their product exceeds a Hadamard bound on the folded
block, raised to the power phi(m), on every minor one order above the rank
seen, which proves the rank over Q(zeta_m) for every m.  Modular mode passes two independently
drawn primes and reports their agreement as a Monte Carlo certificate; a
disagreement falls back to the proven rank.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .braided import DEFAULT_DIM_CAP, SymmetrizerMatrix, check_degree, symmetrizer
from .cocycle import RackCocycle, TwistTable, check_twist_condition, twist

_PRIME_LOW = 2**30
_PRIME_HIGH = 2**31
CERTIFIED = "modular-certified (Monte Carlo)"


def expand_closed_form(factors: list[tuple[int, int]]) -> list[int]:
    """Coefficients of prod (m)_t^mult, index = degree in t, where (m)_t = 1 + t + ... + t^(m-1)."""
    coeffs = [1]
    for m, mult in factors:
        if m < 1 or mult < 1:
            raise ValueError(f"closed-form factor {m}:{mult} needs M >= 1 and MULT >= 1")
        for _ in range(mult):
            # times (m)_t: each coefficient becomes the sum of the m at or below its degree
            coeffs = [sum(coeffs[max(0, i - m + 1) : i + 1]) for i in range(len(coeffs) + m - 1)]
    return coeffs


@dataclass(frozen=True)
class RankCertificate:
    """The computed rank together with how it was obtained."""

    rank: int
    method: str  # "exact" | CERTIFIED | "exact (fallback after modular disagreement)"
    primes: tuple[int, ...]
    dim: int
    n_components: int


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


def _draw_prime(rng: random.Random, m: int, avoid: set[int]) -> int:
    """A random prime in [2^30, 2^31) with p = 1 mod m, reproducible via rng."""
    while True:
        p = rng.randrange(_PRIME_LOW, _PRIME_HIGH)
        if p in avoid or (p - 1) % m != 0:
            continue
        if _is_prime_u32(p):
            return p


def _element_of_order(p: int, m: int) -> int:
    """The smallest representative in F_p of an m-th root of unity of exact order m."""
    if m == 1:
        return 1
    prime_divisors = []
    rem, d = m, 2
    while d * d <= rem:
        if rem % d == 0:
            prime_divisors.append(d)
            while rem % d == 0:
                rem //= d
        d += 1
    if rem > 1:
        prime_divisors.append(rem)
    for a in range(2, p):
        h = pow(a, (p - 1) // m, p)
        if h == 1:
            continue
        if all(pow(h, m // ell, p) != 1 for ell in prime_divisors):
            return h
    raise AssertionError(f"no element of order {m} mod {p}")


def _kept_rows(orbit: np.ndarray, orbit_class: np.ndarray) -> np.ndarray:
    """The rows of the smallest braid orbit of every class, ascending: every row that rank reads."""
    heads = np.flatnonzero(orbit_class == np.arange(orbit_class.size))
    kept = np.zeros(orbit.size, dtype=bool)
    kept[np.flatnonzero(orbit == np.arange(orbit.size))[heads]] = True
    return np.flatnonzero(kept[orbit])


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct slices a[i] of a nonempty integer array, in byte order.

    Each slice is compared as one np.void of its bytes; np.unique would do
    the same but imports numpy.ma on its first call.
    """
    flat = np.ascontiguousarray(a).reshape(a.shape[0], -1)
    keys = np.sort(flat.view(np.dtype((np.void, flat.strides[0]))).ravel())
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first].view(a.dtype).reshape(-1, *a.shape[1:])


def _fold(parts: list, size: int, order: int) -> np.ndarray:
    """Fold the block given by parts (as in _kept_blocks) into a small integer array of its rank.

    Entry (e, i, j) is the coefficient of zeta^e in the block's entry (i, j).
    For even order, zeta^(order/2) = -1 folds class e + order/2 into class
    e, leaving order/2 classes; for odd order the order classes are kept as
    they are.  Zero rows and columns are dropped, then repeated rows, then
    repeated columns: none of these changes the rank over Q(zeta) or modulo
    any prime, and merging equal columns makes no two rows equal.  The
    block is folded densely in the smallest dtype that holds every entry.
    """
    half = order // 2 if order % 2 == 0 else order
    total = sum(int(np.abs(counts).max(initial=0)) for _, counts in parts)
    block = np.zeros((half, size * size), dtype=np.min_scalar_type(-total - 1))
    for e, (cells, counts) in enumerate(parts):
        if e < half:
            block[e, cells] = counts
        else:
            block[e - half, cells] -= counts
    block = block.reshape(half, size, size)
    rows, cols = block.any(axis=(0, 2)), block.any(axis=(0, 1))
    if not rows.any():
        return np.zeros((half, 0, 0), dtype=block.dtype)
    # laid out (row, class, column), so that each row is one contiguous slice
    block = block[:, rows][:, :, cols].transpose(1, 0, 2)
    block = _distinct(block).transpose(2, 1, 0)
    return _distinct(block).transpose(1, 2, 0)


def _kept_blocks(sym: SymmetrizerMatrix):
    """Yield (mult, block) for the smallest braid orbit of every class of orbits.

    The orbit's diagonal block stands for the mult orbits of its class, whose
    blocks have its rank (see SymmetrizerMatrix).  Its entries are cut from
    the counts once, as parts[e] = (cells, counts): the int64 entries of
    counts[e] in the size x size block, at row-major positions that are
    distinct within each e, and folded (_fold).  Only the rows of these
    orbits are read, so they are all that `sym` must have built.
    """
    n = sym.dim
    members = _kept_rows(sym.orbit, sym.orbit_class)
    built = np.zeros(n, dtype=bool)
    built[sym.rows] = True
    if not built[members].all():
        raise ValueError("the symmetrizer lacks rows of the blocks that rank reads")
    members = members[np.argsort(sym.orbit[members], kind="stable")]
    local = np.empty(n, dtype=np.int64)
    orbits = np.split(members, np.flatnonzero(np.diff(sym.orbit[members])) + 1)
    mults = np.bincount(sym.orbit_class)
    for mult, rows in zip(mults[mults > 0].tolist(), orbits):
        size = rows.size
        local[rows] = np.arange(size)
        parts = []
        for c in sym.counts:
            # the entries of the orbit's rows, row range by row range
            lo = np.searchsorted(c.row, rows.astype(c.row.dtype))
            lens = np.searchsorted(c.row, (rows + 1).astype(c.row.dtype)) - lo
            ends = np.cumsum(lens)
            idx = np.repeat(lo - ends + lens, lens)
            idx += np.arange(idx.size)
            cells = local[c.row[idx]] * size
            cells += local[c.col[idx]]
            parts.append((cells, c.data[idx].astype(np.int64)))
        yield mult, _fold(parts, size, sym.order)


def _rank_dense_modp(a: np.ndarray, p: int) -> int:
    """In-place Gaussian elimination over F_p on an int64 matrix (entries in [0, p))."""
    nrows, ncols = a.shape
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
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = a[r, c:] * inv % p
        below = np.flatnonzero(a[r + 1 :, c])
        if below.size:
            idx = r + 1 + below
            a[idx, c:] = (a[idx, c:] - np.outer(a[idx, c], a[r, c:])) % p
        r += 1
    return r


def _rank_modp(block: np.ndarray, p: int, g: int) -> int:
    """Rank mod p, with zeta mapped to g, of a folded block (_fold).

    The block is evaluated at g into one int64 array the size of the folded
    block; a block that is zero mod p has rank 0 without elimination.
    """
    a = np.zeros(block.shape[1:], dtype=np.int64)
    for e, part in enumerate(block):
        a += part.astype(np.int64) % p * pow(g, e, p) % p
    a %= p
    return _rank_dense_modp(a, p) if a.any() else 0


def _rank_exact(block: np.ndarray, order: int) -> int:
    """Rank over Q(zeta) of a folded block (_fold), zeta of exact order `order`.

    Each prime q = 1 mod order maps zeta to an element of order `order` in
    F_q, the residue map of a degree-1 prime above q, and every rank mod q is
    at most the rank over Q(zeta).  If the rank exceeded r, the largest rank
    mod q seen, some minor D of order r + 1 would be nonzero and lie in a
    prime above every q tried, so their product would divide the nonzero
    integer N(D), the product of sigma(D) over the phi(order) embeddings
    sigma.  By Hadamard's inequality |sigma(D)|^2 is at most the product of
    the r + 1 largest column weights nnz * B^2, where B bounds
    |sigma(entry)| over the column: the sum of |c_e| over the folded
    classes, that is of |c_e - c_(e + order/2)| over e < order/2 for even
    order (zeta^(order/2) = -1), and of |c_e| for odd order.  Primes q are
    taken in descending order below 2^31 until their product squared exceeds
    that bound to the power phi(order), in integers.
    """
    # B per cell: the sum of |c_e| over the folded classes
    bound = np.abs(block).sum(axis=0, dtype=np.int64)
    big = bound.max(axis=0, initial=0).tolist()
    nnz = np.count_nonzero(bound, axis=0).tolist()
    # a trailing 0: no minor is larger than the block
    weights = sorted((n * b * b for n, b in zip(nnz, big)), reverse=True) + [0]
    phi = sum(math.gcd(k, order) == 1 for k in range(order))
    # q starts at the least number = 1 mod order from 2^31 up, and steps down by order
    r, product, q = 0, 1, _PRIME_HIGH + (1 - _PRIME_HIGH) % order
    while product * product <= math.prod(weights[: r + 1]) ** phi:
        q -= order
        while not _is_prime_u32(q):
            q -= order
        r = max(r, _rank_modp(block, q, _element_of_order(q, order)))
        product *= q
    return r


def _ranks(sym: SymmetrizerMatrix, moduli: list[int | None]) -> list[int]:
    """The rank of the symmetrizer for every modulus, cutting each kept block once.

    A prime p maps zeta to an element of order sym.order in F_p and ranks
    each block mod p; None proves each block's rank over Q(zeta)
    (_rank_exact).  Each kept block counts with its class size.
    """
    roots = [None if p is None else _element_of_order(p, sym.order) for p in moduli]
    totals = [0] * len(moduli)
    for mult, block in _kept_blocks(sym):
        for i, (p, g) in enumerate(zip(moduli, roots)):
            if p is None:
                totals[i] += mult * _rank_exact(block, sym.order)
            else:
                totals[i] += mult * _rank_modp(block, p, g)
    return totals


def rank(sym: SymmetrizerMatrix, mode: str, *, rng: random.Random | None = None) -> RankCertificate:
    """Rank of a symmetrizer matrix over Q(zeta), proven (exact) or modular-certified.

    The matrix is block diagonal over the braid orbits of the basis (see
    SymmetrizerMatrix), so rank is summed block by block, one block per
    class of orbits weighted by the class size.  Exact mode proves every
    block's rank over Q(zeta) from its ranks modulo enough primes
    q = 1 mod order (_rank_exact), for every order and every block size; it
    draws no random prime and reports none.  Modular mode draws two primes
    p = 1 mod order (from `rng`, by default random.Random(0)), ranks every
    folded block (_fold) modulo both in one pass over the blocks, and
    requires agreement.  A disagreement falls back to the proven rank and
    reports the two primes.
    """
    n_blocks = sym.orbit_class.size
    if mode == "exact":
        (value,) = _ranks(sym, [None])
        return RankCertificate(value, "exact", (), sym.dim, n_blocks)
    if mode != "modular":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        rng = random.Random(0)
    p1 = _draw_prime(rng, sym.order, set())
    p2 = _draw_prime(rng, sym.order, {p1})
    r1, r2 = _ranks(sym, [p1, p2])
    if r1 == r2:
        return RankCertificate(r1, CERTIFIED, (p1, p2), sym.dim, n_blocks)
    (value,) = _ranks(sym, [None])
    return RankCertificate(value, "exact (fallback after modular disagreement)", (p1, p2), sym.dim, n_blocks)


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
    (_kept_rows), unless `on_matrix` is given: it receives every symmetrizer
    that is built, with all its rows.  The resource caps are checked for
    max_degree before any degree is built; they grow with the degree, so
    that covers every degree.  A closed form is expanded (and a bad factor
    rejected) before that too.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    # coefficients past the closed form's degree are 0
    series = None if closed_form is None else expand_closed_form(closed_form) + [0] * (max_degree + 1)
    if max_degree >= 2:
        check_degree(q, max_degree, dim_cap)
    rng = random.Random(seed)
    report = HilbertReport(rack_id=rack_id, cocycle_id=cocycle_id, mode=mode, seed=seed)
    k = q.rack.size
    for d in range(max_degree + 1):
        if d == 0:
            cert = RankCertificate(1, "exact", (), 1, 0)
        elif d == 1:
            cert = RankCertificate(k, "exact", (), k, 0)
        else:
            sym = symmetrizer(q, d, dim_cap=dim_cap, rows=None if on_matrix is not None else _kept_rows)
            if on_matrix is not None:
                on_matrix(sym)
            cert = rank(sym, mode, rng=rng)
        report.degrees.append(d)
        report.ranks.append(cert.rank)
        report.methods.append(cert.method)
        report.primes.append(list(cert.primes))
    if series is not None:
        report.closed_form = list(closed_form)
        report.closed_form_verdicts = [r == c for r, c in zip(report.ranks, series)]
    return report


@dataclass
class TwistSeriesComparison:
    """Degree-by-degree rank comparison between q and its twist q^phi."""

    base: HilbertReport
    twisted: HilbertReport
    equal_per_degree: list[bool]

    @property
    def all_equal(self) -> bool:
        return all(self.equal_per_degree)

    def to_dict(self) -> dict:
        return {
            "base": self.base.to_dict(),
            "twisted": self.twisted.to_dict(),
            "equal_per_degree": list(self.equal_per_degree),
            "all_equal": self.all_equal,
        }


def compare_twist_series(
    q: RackCocycle,
    phi: TwistTable,
    max_degree: int,
    *,
    mode: str = "modular",
    seed: int = 0,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> TwistSeriesComparison:
    """Ranks of q and twist(q, phi) degree by degree; phi must satisfy the twist condition."""
    cond = check_twist_condition(phi)
    if not cond.ok:
        raise ValueError(f"twist table fails the cocycle-preservation condition at {cond.witness}")
    twisted = twist(q, phi)
    base_report = graded_dims(q, max_degree, mode=mode, seed=seed, dim_cap=dim_cap, cocycle_id="base")
    twist_report = graded_dims(
        twisted, max_degree, mode=mode, seed=seed, dim_cap=dim_cap, cocycle_id="twisted"
    )
    equal = [a == b for a, b in zip(base_report.ranks, twist_report.ranks)]
    return TwistSeriesComparison(base_report, twist_report, equal)
