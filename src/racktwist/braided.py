"""Braided vector spaces from rack cocycles and the quantum symmetrizer.

The braiding c(x (x) y) = q_{x,y} (x|>y) (x) x is a monomial operator: it
permutes basis vectors of X^(x)n and multiplies by unit scalars.  All braid
group images are therefore stored as (target permutation, exponent vector)
pairs, and the degree-n symmetrizer is assembled as an exact sparse matrix
with coefficients in Z[zeta_m], degree by degree from the factorisation
S_n = (S_{n-1} (x) id) . T_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

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

    def inverse(self) -> MonomialOperator:
        inv = np.empty(self.dim, dtype=np.int64)
        inv[self.target] = np.arange(self.dim, dtype=np.int64)
        return MonomialOperator(self.dim, self.order, inv, (-self.expo[inv]) % self.order)

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


def rho(word: BraidWord, q: RackCocycle, degree: int, dim_cap: int = DEFAULT_DIM_CAP) -> MonomialOperator:
    """The braid representation image of a positive word on X^(x)degree."""
    if word.n != degree:
        raise ValueError(f"word is on {word.n} strands but degree is {degree}")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    dim = q.rack.size**degree
    if dim > dim_cap:
        raise DimensionCapError(f"degree {degree} needs dimension {dim} > cap {dim_cap}")
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
class SymmetrizerMatrix:
    """The symmetrizer in degree `degree`: sum over S_degree of braid lifts.

    Entries live in Z[zeta_order]; `counts[e]` is the integer matrix counting
    contributions with scalar zeta^e.  For order <= 2 the matrix collapses to
    a plain integer matrix via zeta = -1.
    """

    dim: int
    order: int
    degree: int
    counts: list = field(default_factory=list)  # list of csr_matrix, length = order

    def support(self) -> sp.csr_matrix:
        """Pattern union over all exponent classes (entries may still cancel)."""
        acc = None
        for c in self.counts:
            pat = (c != 0).astype(np.int8)
            acc = pat if acc is None else acc + pat
        return acc.tocsr()

    def to_integer_csr(self) -> sp.csr_matrix:
        """Collapse to integers with zeta = -1; only valid for order <= 2."""
        if self.order > 2:
            raise ValueError("integer collapse only for order <= 2")
        mat = self.counts[0].copy()
        if self.order == 2:
            mat = mat - self.counts[1]
        mat.eliminate_zeros()
        return mat.tocsr()

    def modular_csr(self, p: int, zeta_rep: int) -> sp.csr_matrix:
        """Entries reduced mod p with zeta mapped to zeta_rep (an order-m element of F_p)."""
        acc = None
        scale = 1
        for e in range(self.order):
            term = self.counts[e] * scale
            acc = term if acc is None else acc + term
            scale = (scale * zeta_rep) % p
        acc = acc.tocsr()
        acc.data %= p
        acc.eliminate_zeros()
        return acc


def symmetrizer(q: RackCocycle, degree: int, dim_cap: int = DEFAULT_DIM_CAP) -> SymmetrizerMatrix:
    """Sum the braid lifts of all degree! permutations into a sparse exact matrix.

    Every sigma in S_d factors uniquely as sigma' * s_{d-1} ... s_j with
    sigma' in S_{d-1}, 1 <= j <= d, and the lengths adding, so
    S_d = (S_{d-1} (x) id) . T_d with T_d = sum_j c_{d-1} ... c_j, a sum of
    d monomial operators.  The factor order matters: T_d built from
    c_j ... c_{d-1} sums lifts of words whose lengths do not add and gives
    wrong matrices (for -1 on x3, ranks 12, 29, 87 in degrees 3..5 instead
    of 3, 1, 0).
    """
    k = q.rack.size
    m = q.order
    if degree < 0:
        raise ValueError("degree must be >= 0")
    dim = k**degree
    if dim > dim_cap:
        raise DimensionCapError(f"degree {degree} needs dimension {dim} > cap {dim_cap}")

    eye_k = sp.identity(k, dtype=np.int64, format="csr")
    counts = [sp.identity(1, dtype=np.int64, format="csr")]
    counts += [sp.csr_matrix((1, 1), dtype=np.int64) for _ in range(m - 1)]
    for d in range(1, degree + 1):
        n = k**d
        # the prefix products id, c_{d-1}, c_{d-1}c_{d-2}, ..., c_{d-1}...c_1
        target = np.arange(n, dtype=np.int64)
        expo = np.zeros(n, dtype=np.int64)
        rows, expos = [target], [expo]
        for tgt, ex in reversed(_strand_tables(q, d)):
            target, expo = target[tgt], (ex + expo[tgt]) % m
            rows.append(target)
            expos.append(expo)
        rows, expos = np.concatenate(rows), np.concatenate(expos)
        cols = np.tile(np.arange(n, dtype=np.int64), d)
        t_d = [
            sp.csr_matrix((np.ones(int(mask.sum()), dtype=np.int64), (rows[mask], cols[mask])), shape=(n, n))
            for mask in (expos == e for e in range(m))
        ]
        lifted = [sp.kron(c, eye_k, format="csr") for c in counts]
        counts = [sp.csr_matrix((n, n), dtype=np.int64) for _ in range(m)]
        for e1 in range(m):
            for e2 in range(m):
                if lifted[e1].nnz and t_d[e2].nnz:
                    e = (e1 + e2) % m
                    counts[e] = counts[e] + lifted[e1] @ t_d[e2]
    return SymmetrizerMatrix(dim=dim, order=m, degree=degree, counts=counts)


def export_symmetrizer(sym: SymmetrizerMatrix, path: str, rack_id: str = "", cocycle_id: str = "") -> None:
    """Coordinate-format text dump: JSON header line, then `row col coefficient` lines.

    For order <= 2 the coefficient is a plain integer; otherwise it is the
    coefficient vector in the power basis of zeta, semicolon-separated.
    """
    import json

    header = {"degree": sym.degree, "rack": rack_id, "cocycle": cocycle_id, "m": sym.order}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        if sym.order <= 2:
            mat = sym.to_integer_csr().tocoo()
            order = np.lexsort((mat.col, mat.row))
            for i in order:
                fh.write(f"{mat.row[i]} {mat.col[i]} {mat.data[i]}\n")
        else:
            dense = {}
            for e in range(sym.order):
                coo = sym.counts[e].tocoo()
                for r, c, v in zip(coo.row, coo.col, coo.data):
                    dense.setdefault((int(r), int(c)), [0] * sym.order)[e] = int(v)
            for (r, c) in sorted(dense):
                if any(dense[(r, c)]):
                    fh.write(f"{r} {c} {';'.join(str(v) for v in dense[(r, c)])}\n")
