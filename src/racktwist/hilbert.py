"""Graded ranks of symmetrizer matrices and Hilbert-series bookkeeping.

The rank of the degree-n symmetrizer is the dimension of the degree-n
component of the graded algebra attached to a rack-cocycle pair.  The
symmetrizer is block diagonal over the braid-group orbits of the basis
(every braid lift maps a basis vector into its orbit, and all lift counts
are positive, so no entry cancels a block away); rank is summed block by
block.  A translation g_x: y -> q(x, y) (x |> y) whose square g_x (x) g_x
commutes with the braiding c on X (x) X commutes with the symmetrizer in
every degree, so it carries each block onto the block of the image orbit
without changing its rank.  On a rack every 2-cocycle satisfies this (it
is the cocycle condition), for chi as for -1.  The orbits fall into classes
under these translations (SymmetrizerMatrix.orbit_class), and only the
block of the smallest orbit in a class is ranked, weighted by the class
size.  Every ranked block is cut out as a dense matrix and eliminated by
one of two kernels: fraction-free integer elimination (exact mode, the
authority for blocks up to dimension EXACT_DIM_LIMIT), or Gaussian
elimination modulo two independently drawn random primes whose agreement
is reported as a Monte Carlo certificate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .braided import DEFAULT_DIM_CAP, CountMatrix, SymmetrizerMatrix, symmetrizer
from .cocycle import RackCocycle, TwistTable, check_twist_condition, twist
from .errors import DimensionCapError

EXACT_DIM_LIMIT = 4096
_PRIME_LOW = 2**30
_PRIME_HIGH = 2**31
CERTIFIED = "modular-certified (Monte Carlo)"
DISAGREED = "modular-best-effort (primes disagreed)"


@dataclass(frozen=True)
class IntPolynomial:
    """A polynomial with integer coefficients, index = degree in t."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        trimmed = list(self.coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(trimmed))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, d: int) -> int:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))


def t_integer(m: int) -> IntPolynomial:
    """The t-analogue of m: 1 + t + ... + t^(m-1)."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return IntPolynomial((1,) * m)


def expand_closed_form(factors: list[tuple[int, int]]) -> IntPolynomial:
    """Exact product of t-integers with multiplicities: prod (m)_t^mult."""
    out = IntPolynomial((1,))
    for m, mult in factors:
        base = t_integer(m)
        for _ in range(mult):
            out = out * base
    return out


@dataclass(frozen=True)
class RankCertificate:
    """The computed rank together with how it was obtained."""

    rank: int
    method: str  # "exact" | "modular-certified (Monte Carlo)" | fallback tags
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


# Matrix entries cut out of the symmetrizer at once; bounds the working memory.
_BATCH_ENTRIES = 1 << 18


@dataclass
class _OrbitBlocks:
    """One braid orbit of the basis per class of orbits, for cutting diagonal blocks.

    `members` lists the kept orbits in increasing order, orbits ordered by
    their smallest member, kept orbit i at starts[i]:starts[i+1] standing
    for mult[i] orbits whose blocks have its rank (see SymmetrizerMatrix);
    `local` is the position of a kept basis index inside its orbit,
    `size_of` the size of its orbit, and `first[e][r]` the offset of row r
    in `counts[e]`.  Consecutive orbits are cut out together, in batches of
    orbits that begin at `batches`.
    """

    counts: list[CountMatrix]
    members: np.ndarray
    starts: np.ndarray
    mult: np.ndarray
    local: np.ndarray
    size_of: np.ndarray
    first: list[np.ndarray]
    batches: np.ndarray

    @staticmethod
    def of(sym: SymmetrizerMatrix) -> _OrbitBlocks:
        n = sym.dim
        heads = sym.orbit_class == np.arange(sym.orbit_class.size)
        kept = np.zeros(n, dtype=bool)
        kept[np.flatnonzero(sym.orbit == np.arange(n))[heads]] = True
        members = np.flatnonzero(kept[sym.orbit])
        members = members[np.argsort(sym.orbit[members], kind="stable")]
        starts = np.flatnonzero(np.diff(sym.orbit[members], prepend=-1))
        sizes = np.diff(starts, append=members.size)
        local = np.empty(n, dtype=np.int64)
        local[members] = np.arange(members.size) - np.repeat(starts, sizes)
        size_of = np.empty(n, dtype=np.int64)
        size_of[members] = np.repeat(sizes, sizes)
        first = [np.searchsorted(c.row, np.arange(n + 1, dtype=c.row.dtype)) for c in sym.counts]
        per_row = sum(np.diff(f) for f in first)[members]
        batch = (np.cumsum(per_row) - per_row)[starts] // _BATCH_ENTRIES
        batches = np.flatnonzero(np.diff(batch, prepend=-1))
        return _OrbitBlocks(
            sym.counts,
            members,
            np.append(starts, members.size),
            np.bincount(sym.orbit_class, minlength=heads.size)[heads],
            local,
            size_of,
            first,
            np.append(batches, starts.size),
        )

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.starts)

    def cut(self, scalars: list[int], p: int | None):
        """Yield (multiplicity, dense block) for every kept block of sum_e scalars[e] * counts[e].

        Entries are reduced mod p when p is given.
        """
        for o0, o1 in zip(self.batches[:-1].tolist(), self.batches[1:].tolist()):
            rows = self.members[self.starts[o0] : self.starts[o1]]
            block_rows = self.starts[o0 : o1 + 1] - self.starts[o0]
            batch = []
            for c, first, scalar in zip(self.counts, self.first, scalars):
                # the entries of the batch's rows, row range by row range
                lens = first[rows + 1] - first[rows]
                ends = np.cumsum(lens)
                idx = np.repeat(first[rows] - ends + lens, lens)
                idx += np.arange(idx.size)
                row = c.row[idx]
                # row-major positions inside the block, distinct within a class
                cells = self.local[row] * self.size_of[row]
                del row
                cells += self.local[c.col[idx]]
                counts = c.data[idx].astype(np.int64)
                values = counts * scalar if p is None else counts % p * scalar % p
                batch.append((np.append(0, ends)[block_rows], cells, values))
            for b, (size, mult) in enumerate(zip(np.diff(block_rows).tolist(), self.mult[o0:o1].tolist())):
                a = np.zeros(size * size, dtype=np.int64)
                for lo, cells, values in batch:
                    c, v = cells[lo[b] : lo[b + 1]], values[lo[b] : lo[b + 1]]
                    a[c] = a[c] + v if p is None else (a[c] + v) % p
                yield mult, a.reshape(size, size)


def _rank_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free integer elimination (Bareiss); exact rank over the rationals."""
    m = len(rows)
    if m == 0:
        return 0
    n = len(rows[0])
    r = 0
    prev = 1
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        base = rows[r]
        for i in range(r + 1, m):
            ri = rows[i]
            f = ri[c]
            for j in range(c, n):
                ri[j] = (ri[j] * pv - f * base[j]) // prev
        prev = pv
        r += 1
    return r


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


def _modular_rank(sym: SymmetrizerMatrix, blocks: _OrbitBlocks, p: int) -> int:
    g = _element_of_order(p, sym.order)
    total = 0
    for mult, a in blocks.cut([pow(g, e, p) for e in range(sym.order)], p):
        if a.any():
            total += mult * _rank_dense_modp(a, p)
    return total


def _exact_rank(sym: SymmetrizerMatrix, blocks: _OrbitBlocks) -> int:
    """Bareiss on every block of the integer matrix counts[0] - counts[1] (zeta = -1)."""
    total = 0
    for mult, a in blocks.cut([1, -1][: sym.order], None):
        if a.any():
            total += mult * _rank_bareiss(a.tolist())
    return total


def rank(sym: SymmetrizerMatrix, mode: str, *, rng: random.Random | None = None) -> RankCertificate:
    """Rank of a symmetrizer matrix, exact or modular-certified.

    The matrix is block diagonal over the braid orbits of the basis (see
    SymmetrizerMatrix), so rank is summed block by block, one block per
    class of orbits weighted by the class size.  Exact mode runs
    fraction-free elimination on the integer matrix; the order must be <= 2
    and every block within EXACT_DIM_LIMIT.  Modular mode eliminates the
    ranked blocks densely modulo two independently drawn primes p = 1 mod order
    (from `rng`, by default random.Random(0)) and requires agreement; a
    disagreement draws a third prime and, when every block is within the
    exact limit, falls back to exact elimination.
    """
    blocks = _OrbitBlocks.of(sym)
    n_blocks = sym.orbit_class.size
    largest = int(blocks.sizes.max())
    if mode == "exact":
        if sym.order > 2:
            raise ValueError("exact mode requires order <= 2 (integer matrix)")
        if largest > EXACT_DIM_LIMIT:
            raise DimensionCapError(
                f"block of dimension {largest} too large for exact mode (limit {EXACT_DIM_LIMIT})"
            )
        return RankCertificate(_exact_rank(sym, blocks), "exact", (), sym.dim, n_blocks)
    if mode != "modular":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        rng = random.Random(0)
    drawn: set[int] = set()
    p1 = _draw_prime(rng, sym.order, drawn)
    drawn.add(p1)
    p2 = _draw_prime(rng, sym.order, drawn)
    drawn.add(p2)
    r1 = _modular_rank(sym, blocks, p1)
    r2 = _modular_rank(sym, blocks, p2)
    if r1 == r2:
        return RankCertificate(r1, CERTIFIED, (p1, p2), sym.dim, n_blocks)
    p3 = _draw_prime(rng, sym.order, drawn)
    r3 = _modular_rank(sym, blocks, p3)
    if sym.order <= 2 and largest <= EXACT_DIM_LIMIT:
        value = _exact_rank(sym, blocks)
        return RankCertificate(
            value, "exact (fallback after modular disagreement)", (p1, p2, p3), sym.dim, n_blocks
        )
    value = max(r1, r2, r3)
    return RankCertificate(value, DISAGREED, (p1, p2, p3), sym.dim, n_blocks)


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
    matrix is built for them.  `on_matrix` receives every symmetrizer that is
    built.  Resource errors carry the failing degree.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    rng = random.Random(seed)
    report = HilbertReport(rack_id=rack_id, cocycle_id=cocycle_id, mode=mode, seed=seed)
    k = q.rack.size
    for d in range(max_degree + 1):
        if d == 0:
            cert = RankCertificate(1, "exact", (), 1, 0)
        elif d == 1:
            cert = RankCertificate(k, "exact", (), k, 0)
        else:
            try:
                sym = symmetrizer(q, d, dim_cap=dim_cap)
                if on_matrix is not None:
                    on_matrix(sym)
                cert = rank(sym, mode, rng=rng)
            except DimensionCapError as exc:
                raise DimensionCapError(f"degree {d}: {exc}") from exc
        report.degrees.append(d)
        report.ranks.append(cert.rank)
        report.methods.append(cert.method)
        report.primes.append(list(cert.primes))
    if closed_form is not None:
        poly = expand_closed_form(closed_form)
        report.closed_form = list(closed_form)
        report.closed_form_verdicts = [
            report.ranks[i] == poly.coefficient(d) for i, d in enumerate(report.degrees)
        ]
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
