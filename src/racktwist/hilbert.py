"""Graded ranks of symmetrizer matrices and Hilbert-series bookkeeping.

The rank of the degree-n symmetrizer is the dimension of the degree-n
component of the graded algebra attached to a rack-cocycle pair.  Ranks are
computed either exactly (fraction-free integer elimination, the authority
below dimension 4096) or modulo two independently drawn random primes whose
agreement is reported as a Monte Carlo certificate.  Before elimination the
matrix is split into connected components of its support graph; rank is
additive across components and the blocks stay small for these matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .braided import DEFAULT_DIM_CAP, SymmetrizerMatrix, symmetrizer
from .cocycle import RackCocycle, TwistTable, check_twist_condition, twist
from .errors import DimensionCapError

EXACT_DIM_LIMIT = 4096
DENSE_COMPONENT_LIMIT = 4096
_PRIME_LOW = 2**30
_PRIME_HIGH = 2**31


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

    def value_at_one(self) -> int:
        return sum(self.coeffs)

    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))


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


def _support_components(support: sp.csr_matrix) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a square sparse pattern into connected components of its bipartite graph.

    Returns (row_indices, col_indices) per component that touches at least
    one nonzero; rank is additive across these blocks.
    """
    dim = support.shape[0]
    coo = support.tocoo()
    if coo.nnz == 0:
        return []
    ones = np.ones(coo.nnz, dtype=np.int8)
    bip = sp.coo_matrix((ones, (coo.row, coo.col + dim)), shape=(2 * dim, 2 * dim))
    n_comp, labels = connected_components(bip, directed=False)
    touched = np.unique(labels[coo.row])
    out = []
    row_labels = labels[:dim]
    col_labels = labels[dim:]
    for comp in touched:
        rows = np.flatnonzero(row_labels == comp)
        cols = np.flatnonzero(col_labels == comp)
        out.append((rows, cols))
    return out


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


def _rank_sparse_modp(mat: sp.csr_matrix, p: int) -> int:
    """Sparse elimination over F_p with Markowitz-style minimum-fill pivoting."""
    coo = mat.tocoo()
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for r, c, v in zip(coo.row, coo.col, coo.data):
        v = int(v) % p
        if v == 0:
            continue
        rows.setdefault(int(r), {})[int(c)] = v
        col_rows.setdefault(int(c), set()).add(int(r))
    rank = 0
    while rows:
        best = None
        for c in sorted(col_rows):
            holders = col_rows[c]
            if not holders:
                continue
            cc = len(holders)
            for r in sorted(holders):
                score = (len(rows[r]) - 1) * (cc - 1)
                if best is None or score < best[0]:
                    best = (score, r, c)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, pr, pc = best
        prow = rows.pop(pr)
        for c in prow:
            col_rows[c].discard(pr)
            if not col_rows[c]:
                del col_rows[c]
        inv = pow(prow[pc], -1, p)
        prow = {c: v * inv % p for c, v in prow.items()}
        targets = list(col_rows.get(pc, ()))
        for r in targets:
            row = rows[r]
            f = row.get(pc)
            if f is None:
                continue
            for c, v in prow.items():
                nv = (row.get(c, 0) - f * v) % p
                if nv:
                    if c not in row:
                        col_rows.setdefault(c, set()).add(r)
                    row[c] = nv
                else:
                    if c in row:
                        del row[c]
                        holders = col_rows.get(c)
                        if holders is not None:
                            holders.discard(r)
                            if not holders:
                                del col_rows[c]
            if not row:
                del rows[r]
        rank += 1
    return rank


def _modular_rank(sym: SymmetrizerMatrix, p: int, components, dense_limit: int) -> int:
    g = _element_of_order(p, sym.order)
    mat = sym.modular_csr(p, g)
    total = 0
    for rows, cols in components:
        sub = mat[rows][:, cols]
        if sub.nnz == 0:
            continue
        if max(sub.shape) <= dense_limit:
            total += _rank_dense_modp(sub.toarray().astype(np.int64) % p, p)
        else:
            total += _rank_sparse_modp(sub.tocsr(), p)
    return total


def _exact_rank(sym: SymmetrizerMatrix, components) -> int:
    mat = sym.to_integer_csr()
    total = 0
    for rows, cols in components:
        sub = mat[rows][:, cols]
        if sub.nnz == 0:
            continue
        dense = sub.toarray()
        total += _rank_bareiss([[int(v) for v in row] for row in dense])
    return total


def rank(
    sym: SymmetrizerMatrix,
    mode: str,
    *,
    seed: int = 0,
    rng: random.Random | None = None,
    dense_limit: int = DENSE_COMPONENT_LIMIT,
    exact_dim_limit: int = EXACT_DIM_LIMIT,
) -> RankCertificate:
    """Rank of a symmetrizer matrix, exact or modular-certified.

    Exact mode runs fraction-free elimination on the integer matrix (order
    must be <= 2 and the dimension within the exact limit).  Modular mode
    reduces modulo two independently drawn primes p = 1 mod order and
    requires agreement; a disagreement draws a third prime and, when the
    dimension permits, falls back to exact elimination.
    """
    components = _support_components(sym.support())
    if mode == "exact":
        if sym.order > 2:
            raise ValueError("exact mode requires order <= 2 (integer matrix)")
        if sym.dim > exact_dim_limit:
            raise DimensionCapError(
                f"dimension {sym.dim} too large for exact mode (limit {exact_dim_limit})"
            )
        value = _exact_rank(sym, components)
        return RankCertificate(value, "exact", (), sym.dim, len(components))
    if mode != "modular":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        rng = random.Random(seed)
    drawn: set[int] = set()
    p1 = _draw_prime(rng, sym.order, drawn)
    drawn.add(p1)
    p2 = _draw_prime(rng, sym.order, drawn)
    drawn.add(p2)
    r1 = _modular_rank(sym, p1, components, dense_limit)
    r2 = _modular_rank(sym, p2, components, dense_limit)
    if r1 == r2:
        return RankCertificate(
            r1, "modular-certified (Monte Carlo)", (p1, p2), sym.dim, len(components)
        )
    p3 = _draw_prime(rng, sym.order, drawn)
    r3 = _modular_rank(sym, p3, components, dense_limit)
    if sym.order <= 2 and sym.dim <= exact_dim_limit:
        value = _exact_rank(sym, components)
        return RankCertificate(
            value, "exact (fallback after modular disagreement)", (p1, p2, p3), sym.dim, len(components)
        )
    value = max(r1, r2, r3)
    return RankCertificate(
        value, "modular-best-effort (primes disagreed)", (p1, p2, p3), sym.dim, len(components)
    )


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
) -> HilbertReport:
    """Ranks of the symmetrizers in degrees 0..max_degree.

    Degrees 0 and 1 are identity shortcuts (rank 1 and rank = rack size); no
    matrix is built for them.  Resource errors carry the failing degree.
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
