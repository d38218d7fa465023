"""Independent oracles used to freeze expected values.

Everything here recomputes results from first principles, sharing only type
definitions with the package: dense rational elimination for ranks, a
walk over the rows in Python ints for the rows that raise the rank mod p
(first_independent_rows_modp), dense matrix products for braid lifts,
alternative reduced-word generators, plain triple loops for the cocycle
and twist conditions, a pair loop for the twist identity, and a Clifford
algebra over the field Q(sqrt(2)) with rational coefficients.  The lifts
of the cover live here as SpinElement, a Clifford element over a
permutation, with the generators generator_t; the presentation has
presentation_by_clifford, which multiplies every relation out, and
presentation_by_words, which decides each braid and far relation as a
word of integer vectors by pfaffian.word_bits, where the package reads
one Gram entry per relation.  The sign cocycle of the
section has two oracles that expand no Pfaffian: CliffordSection lifts
the section in the Clifford model, and twist_identity_by_reflections
checks the twist identity one bracket at a time, with no section at all.
The conjugation lemmas
have conjugation_lemmas_by_clifford, which expands every lift in the
Clifford model where the package reflects integer vectors, and
conjugation_lemmas_per_trial, which reflects them one word at a time where
the package decides a batch of words at once; both draw their words one
Python int at a time by lemma_draws, where the package unpacks bit blocks
with numpy.  The brackets
[i j] have bracket, which expands their defining Clifford recursion where
the package reflects integer vectors, and the exhaustive group-cocycle
check has group_cocycle_first_failure, a loop over triples.  The transposition rack, chi
and the twisted cocycle have loops over pairs and Permutation objects where
the package reads integer arrays.  The assembly's send data has
send_tables, which composes the package's strand tables over the whole
basis where the package walks the letters of each column on k x k tables,
and the carry of the orbit classes has orbit_classes_by_translation, which
grows the breadth-first tree one translation at a time.  The group of
translations that grades the Leibniz recursion has translation_group, a
queue of tuple pairs where the package sorts packed byte keys.  The one exception
is unpruned_graded_dims, which reruns the package's proven ranks on every
row of every degree.

The braid group images live here and not in the package: strand_tables
and rho give the images of a batch of positive words as (target, expo)
rows, check_braid_equation decides the braid equation on X^(x)3, and
verify_matsumoto puts two reduced words of each drawn permutation through
one rho call per degree, with matsumoto_per_sigma as its own oracle, one
call per word.  The package decides that the braiding is one by
cocycle.check_rack_cocycle, with which the braid equation computed here
must agree.  The braid images of single words are MonomialOperator
objects, and BraidWord checks a word's letters.  lex_reduced_word is the
lex-smallest reduced word of one Permutation in plain Python, where the
package reads a batch of them off their inversion codes.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from racktwist import exact, pfaffian, spincover
from racktwist.cocycle import GaugeFunction, RackCocycle, TwistTable, chi_cocycle, minus_one_cocycle
from racktwist.errors import SectionConsistencyError
from racktwist.rack import (
    FiniteRack,
    Permutation,
    ReadOnly,
    lex_reduced_words,
    rack_to_dict,
    transposition_pairs,
    transposition_rack,
)
from racktwist.spincover import CliffordElement, GroupCocycleBit


def rank_over_rationals(rows) -> int:
    """Dense Gaussian elimination with Fractions; unconditional exact rank."""
    mat = [[Fraction(v) for v in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][c]
        for i in range(rank + 1, nrows):
            f = mat[i][c] / pv
            if f:
                for j in range(c, ncols):
                    mat[i][j] -= f * mat[rank][j]
        rank += 1
        if rank == nrows:
            break
    return rank


def cyclotomic_polynomial(m: int) -> list[int]:
    """Phi_m, lowest coefficient first: x^m - 1 divided by Phi_d for every proper divisor d of m."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d:
            continue
        den = cyclotomic_polynomial(d)
        quotient = [0] * (len(num) - len(den) + 1)
        for i in reversed(range(len(quotient))):
            quotient[i] = num[i + len(den) - 1]  # den is monic
            for j, c in enumerate(den):
                num[i + j] -= quotient[i] * c
        assert not any(num)
        num = quotient
    return num


def rank_over_cyclotomic(sym) -> int:
    """Rank over Q(zeta_m), m = sym.order, of a SymmetrizerMatrix, by rational elimination."""
    return counts_rank_over_cyclotomic(dense_counts(sym), sym.order)


def counts_rank_over_cyclotomic(counts: np.ndarray, m: int) -> int:
    """Rank over Q(zeta_m) of the matrix sum_e counts[e] zeta^e, by rational elimination.

    Multiplication by zeta on Q(zeta) = Q[x]/Phi_m is the companion matrix C
    of Phi_m, so the entry sum_e c_e zeta^e becomes the phi(m) x phi(m) block
    sum_e c_e C^e.  Q[C] is a field isomorphic to Q(zeta), so the expanded
    rational matrix has phi(m) times the rank.
    """
    phi_m = cyclotomic_polynomial(m)
    k = len(phi_m) - 1
    companion = np.zeros((k, k), dtype=np.int64)
    companion[1:, :-1] = np.eye(k - 1, dtype=np.int64)  # x * x^i = x^(i+1)
    companion[:, -1] = [-c for c in phi_m[:-1]]  # x * x^(k-1) = x^k = -sum_i c_i x^i
    power = np.eye(k, dtype=np.int64)
    expanded = 0
    for block in counts:
        expanded = expanded + np.kron(block, power)
        power = power @ companion
    r = rank_over_rationals(expanded.tolist())
    assert r % k == 0
    return r // k


def distinct_nonzero_lines(counts: np.ndarray, m: int) -> tuple[int, int]:
    """How many distinct nonzero rows, and then distinct nonzero columns, sum_e counts[e] zeta^e has.

    An entry is compared by its coefficients of zeta^e, after zeta^(m/2) = -1
    for even m (so c_e and c_(e + m/2) cancel); for odd m the counts are
    compared as they are.  Columns are counted on the distinct rows.
    """
    if m % 2 == 0:
        counts = counts[: m // 2] - counts[m // 2 :]
    n = counts.shape[1]
    rows = {tuple(counts[:, i, :].ravel().tolist()) for i in range(n)}
    rows = [r for r in rows if any(r)]
    # row r holds counts[e, i, j] at e * n + j
    cols = {tuple(r[e * n + j] for r in rows for e in range(counts.shape[0])) for j in range(n)}
    return len(rows), len([c for c in cols if any(c)])


def coxeter_length(sigma: Permutation) -> int:
    """Coxeter length = number of inversions of the one-line notation."""
    img = sigma.image
    return sum(1 for a in range(sigma.n) for b in range(a + 1, sigma.n) if img[a] > img[b])


def inverse_gauge(gamma: GaugeFunction) -> GaugeFunction:
    """The gauge gamma^-1: every exponent negated."""
    return GaugeFunction(gamma.rack, gamma.order, tuple((-e) % gamma.order for e in gamma.g.tolist()))


def left_descents(sigma: Permutation) -> list[int]:
    """Generators i with length(s_i * sigma) < length(sigma): i + 1 stands before i in the one-line notation."""
    where = {v: pos for pos, v in enumerate(sigma.image)}
    return [i for i in range(1, sigma.n) if where[i + 1] < where[i]]


def largest_descent_word(sigma: Permutation) -> tuple[int, ...]:
    """A reduced word built by always taking the largest left descent."""
    word = []
    cur = sigma
    while True:
        ds = left_descents(cur)
        if not ds:
            break
        i = ds[-1]
        word.append(i)
        cur = Permutation.adjacent(cur.n, i) * cur
    return tuple(word)


def lex_reduced_word(sigma: Permutation) -> tuple[int, ...]:
    """The lexicographically smallest reduced word, read off the inversion code of the inverse.

    The formula of rack.lex_reduced_words, in plain Python for one
    permutation: c_v counts the smaller values that stand to the right of
    the value v.
    """
    img = sigma.image
    codes = [0] * sigma.n
    for pos, v in enumerate(img):
        codes[v - 1] = sum(1 for u in img[pos + 1:] if u < v)
    word: list[int] = []
    for j in range(1, sigma.n):
        word.extend(range(j, j - codes[j], -1))
    return tuple(word)


def lex_min_reduced_word(sigma: Permutation) -> tuple[int, ...]:
    """The smallest of all reduced words of sigma, in lexicographic order.

    Every reduced word of w starts with a left descent i (i + 1 stands before
    i in the one-line notation) and continues with a reduced word of s_i w,
    which swaps the values i and i + 1.  The minimum is taken over every
    left descent, not just the first, and memoised on the one-line notation.
    """
    return _lex_min_word(sigma.image)


@lru_cache(maxsize=None)
def _lex_min_word(image: tuple[int, ...]) -> tuple[int, ...]:
    where = {v: pos for pos, v in enumerate(image)}
    words = []
    for i in range(1, len(image)):
        if where[i + 1] < where[i]:
            swapped = tuple(i + 1 if v == i else i if v == i + 1 else v for v in image)
            words.append((i,) + _lex_min_word(swapped))
    return min(words, default=())


def rack_axioms_by_loops(r: FiniteRack) -> tuple[str, tuple[int, ...]] | None:
    """The first violation of the rack axioms as (kind, witness), or None, in plain loops.

    Rows first, then triples, both in lexicographic order: the first row
    x |> - that is not a bijection, then the first (x, y, z) with
    x |> (y |> z) != (x |> y) |> (x |> z).
    """
    k, op = r.size, r.op.tolist()
    for x in range(k):
        if set(op[x]) != set(range(k)):
            return "non-bijective-row", (x,)
    for x in range(k):
        for y in range(k):
            for z in range(k):
                if op[x][op[y][z]] != op[op[x][y]][op[x][z]]:
                    return "not-self-distributive", (x, y, z)
    return None


def is_indecomposable_by_union_find(r: FiniteRack) -> bool:
    """True iff the graph with edges {y, x |> y} over all x, y is connected, by union-find with path halving."""
    k, op = r.size, r.op.tolist()
    parent = list(range(k))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in range(k):
        for y in range(k):
            ra, rb = find(y), find(op[x][y])
            if ra != rb:
                parent[ra] = rb
    return len({find(a) for a in range(k)}) == 1


def small_racks(rng: random.Random) -> list[FiniteRack]:
    """Racks of sizes 1..8: trivial, affine x |> y = (1 - a) x + a y mod p, transposition, permutation and unions."""
    racks = [FiniteRack(tuple(tuple(range(k)) for _ in range(k))) for k in range(1, 9)]
    racks += [FiniteRack(tuple(tuple(((1 - a) * x + a * y) % p for y in range(p)) for x in range(p)))
              for p in (3, 5, 7) for a in range(2, p)]
    racks += [transposition_rack(3), transposition_rack(4)]
    for k in range(1, 9):
        s = list(range(k))
        rng.shuffle(s)
        racks.append(FiniteRack((tuple(s),) * k))  # x |> y = s(y)
    # x3 and a trivial rack side by side, each acting trivially on the other
    x3 = transposition_rack(3).op.tolist()
    racks.append(FiniteRack(tuple(tuple(x3[x][y] if x < 3 and y < 3 else y for y in range(5)) for x in range(5))))
    return racks


def planted_tables(seed: int) -> list[FiniteRack]:
    """Each small rack as it is, with two entries of a row swapped, with a repeated entry, and a random table."""
    rng = random.Random(seed)
    tables = []
    for r in small_racks(rng):
        k = r.size
        op = r.op.tolist()
        tables.append(r)
        x, a, b = rng.randrange(k), rng.randrange(k), rng.randrange(k)
        swapped = [list(row) for row in op]
        swapped[x][a], swapped[x][b] = swapped[x][b], swapped[x][a]
        tables.append(FiniteRack(tuple(map(tuple, swapped))))
        repeated = [list(row) for row in op]
        repeated[x][a] = repeated[x][b]
        tables.append(FiniteRack(tuple(map(tuple, repeated))))
        rows = [rng.sample(range(k), k) for _ in range(k)]
        tables.append(FiniteRack(tuple(map(tuple, rows))))
    return tables


def cocycle_first_failure(q: RackCocycle) -> tuple[int, int, int] | None:
    """The first triple (x, y, z), in lexicographic order, that breaks the rack 2-cocycle condition."""
    op, exp, m, k = q.rack.op.tolist(), q.exp.tolist(), q.order, q.rack.size
    for x in range(k):
        for y in range(k):
            for z in range(k):
                lhs = exp[x][op[y][z]] + exp[y][z]
                rhs = exp[op[x][y]][op[x][z]] + exp[x][z]
                if (lhs - rhs) % m != 0:
                    return (x, y, z)
    return None


def twist_condition_first_failure(phi: TwistTable) -> tuple[int, int, int] | None:
    """The first triple (x, y, z), in lexicographic order, that breaks the twist condition."""
    op, p, m, k = phi.rack.op.tolist(), phi.phi.tolist(), phi.order, phi.rack.size
    for x in range(k):
        for y in range(k):
            for z in range(k):
                yz = op[y][z]
                xyz = op[x][yz]
                lhs = p[x][z] + p[op[x][y]][op[x][z]] + p[xyz][x] + p[yz][y]
                rhs = p[y][z] + p[x][yz] + p[xyz][op[x][y]] + p[op[x][z]][x]
                if (lhs - rhs) % m != 0:
                    return (x, y, z)
    return None


def main_theorem_log(phi: TwistTable, chi: RackCocycle) -> list[dict]:
    """The twist identity checked pair by pair on the transposition rack, one log entry per pair.

    Elements are the transpositions (i, j), i < j, in lexicographic order,
    and sigma |> tau is conjugated from the pairs, not read off the rack.
    The pair (sigma, tau) is ok when (-1)^phi(sigma, tau) *
    (-1)^-phi(sigma |> tau, sigma) * chi(sigma, tau) = -1.  Entries come in
    row-major order over (sigma, tau).
    """
    n = math.isqrt(2 * chi.rack.size) + 1  # the rack has n(n - 1)/2 elements
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    index = {pair: a for a, pair in enumerate(pairs)}
    phi_bits, chi_bits = phi.phi.tolist(), chi.exp.tolist()
    log = []
    for a, (i, j) in enumerate(pairs):
        swap = {i: j, j: i}
        for b, tau in enumerate(pairs):
            conj = index[tuple(sorted(swap.get(c, c) for c in tau))]
            bits = [phi_bits[a][b], phi_bits[conj][a]]
            chi_bit = chi_bits[a][b]
            log.append(
                {
                    "sigma": str((i, j)),
                    "tau": str(tau),
                    "phi_bits": bits,
                    "chi_bit": chi_bit,
                    "ok": (bits[0] - bits[1] + chi_bit) % 2 == 1,
                }
            )
    return log


def flip_phi_bit(phi: TwistTable, a: int, b: int) -> TwistTable:
    """phi with the order-2 entry at (a, b) flipped."""
    rows = phi.phi.tolist()
    rows[a][b] ^= 1
    return TwistTable(rack=phi.rack, order=phi.order, phi=tuple(tuple(row) for row in rows))


def _dense_strand(q, degree: int, letter: int, value) -> np.ndarray:
    """Dense monomial matrix of the strand-local braiding, entry value(exponent)."""
    k, op, exp = q.rack.size, q.rack.op.tolist(), q.exp.tolist()
    dim = k**degree
    mat = np.zeros((dim, dim), dtype=np.int64)
    for v in range(dim):
        digits = []
        rem = v
        for _ in range(degree):
            digits.append(rem % k)
            rem //= k
        digits.reverse()
        x, y = digits[letter - 1], digits[letter]
        digits[letter - 1], digits[letter] = op[x][y], x
        w = 0
        for d in digits:
            w = w * k + d
        mat[w, v] = value(exp[x][y])
    return mat


def dense_strand_matrix(q, degree: int, letter: int) -> np.ndarray:
    """Dense signed permutation matrix of the strand-local braiding (order <= 2 only)."""
    assert q.order <= 2
    return _dense_strand(q, degree, letter, lambda e: (-1) ** e)


def _dense_lift_sum(gens: dict, degree: int, dim: int, p: int | None = None) -> np.ndarray:
    """Sum over S_degree of the products of gens along largest_descent_word, mod p if given."""
    import itertools

    total = np.zeros((dim, dim), dtype=np.int64)
    for img in itertools.permutations(range(1, degree + 1)):
        sigma = Permutation(tuple(img))
        lift = np.eye(dim, dtype=np.int64)
        for i in largest_descent_word(sigma):
            lift = lift @ gens[i]
            if p is not None:
                lift %= p
        total += lift
    return total if p is None else total % p


def brute_force_symmetrizer(q, degree: int) -> np.ndarray:
    """Dense symmetrizer: sum dense lift matrices over independently reduced words.

    Words come from largest_descent_word and every lift is a fresh chain of
    dense matrix products, so no prefix reuse or monomial bookkeeping from
    the package is involved.
    """
    gens = {i: dense_strand_matrix(q, degree, i) for i in range(1, degree)}
    return _dense_lift_sum(gens, degree, q.rack.size**degree)


def brute_force_symmetrizer_modp(q, degree: int, p: int, g: int) -> np.ndarray:
    """The dense symmetrizer of a cocycle of any order mod p, with zeta mapped to g.

    Built like brute_force_symmetrizer, with entries g^e mod p.  Requiring
    p < 2^28 and dim <= 81 keeps every int64 matrix product exact.
    """
    dim = q.rack.size**degree
    assert p < 2**28 and dim <= 81 and pow(g, q.order, p) == 1
    gens = {i: _dense_strand(q, degree, i, lambda e: pow(g, e, p)) for i in range(1, degree)}
    return _dense_lift_sum(gens, degree, dim, p)


def dense_counts(sym) -> np.ndarray:
    """Dense (order, dim, dim) count tensor of a SymmetrizerMatrix, from its coordinates."""
    out = np.zeros((sym.order, sym.dim, sym.dim), dtype=np.int64)
    c = sym.entries
    np.add.at(out, (c.expo, c.row, c.col), c.data)
    return out


def dense_integer_matrix(sym) -> np.ndarray:
    """The integer symmetrizer counts[0] - counts[1], i.e. zeta = -1 (order <= 2 only)."""
    assert sym.order <= 2
    counts = dense_counts(sym)
    return counts[0] - counts[1] if sym.order == 2 else counts[0]


def dense_modp_matrix(sym, p: int, g: int) -> np.ndarray:
    """The symmetrizer mod p with zeta mapped to g; needs p < 2^28 and small counts."""
    counts = dense_counts(sym)
    return sum(counts[e] * pow(g, e, p) for e in range(sym.order)) % p


class MonomialOperator:
    """An invertible monomial operator: basis v maps to zeta_order^expo[v] * basis target[v]; equal by action.

    One row of rho as an object that composes, where rho keeps a batch of
    (target, expo) rows.
    """

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
    """A positive word in braid generators 1..n-1 on n strands, its letters checked."""

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: tuple[int, ...]):
        for i in letters:
            if not 1 <= i <= n - 1:
                raise ValueError(f"letter {i} out of range 1..{n - 1}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)


def inverse_operator(op):
    """The inverse of a MonomialOperator: v -> target[v] with zeta^expo[v] undone."""
    inv = np.empty(op.dim, dtype=np.int64)
    inv[op.target] = np.arange(op.dim, dtype=np.int64)
    return MonomialOperator(op.dim, op.order, inv, (-op.expo[inv]) % op.order)


def strand_tables(q: RackCocycle, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(target, expo) arrays of shape (degree, k^degree): row i >= 1 is the strand-local braiding of letter i.

    Row 0 is the identity with zero exponents, so letter 0 pads a short word in rho.
    """
    k = q.rack.size
    op = np.array(q.rack.op, dtype=np.int64)
    ex = np.array(q.exp, dtype=np.int64)
    v = np.arange(k**degree, dtype=np.int64)
    hi = k ** np.arange(degree - 1, 0, -1, dtype=np.int64)[:, None]  # place value of letter i's left factor
    lo = hi // k
    x = (v // hi) % k
    y = (v // lo) % k
    return np.vstack([v, v + (op[x, y] - x) * hi + (x - y) * lo]), np.vstack([0 * v, ex[x, y]])


def rho(words, q: RackCocycle, degree: int, tables: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The braid images of positive words on X^(x)degree, as (target, expo) arrays of shape (m, k^degree).

    words is an (m, l) array of letters 1..degree-1, a shorter word padded
    with letter 0, the identity; rho(words[r]) maps basis v to
    zeta_order^expo[r, v] * basis target[r, v], 0 <= expo < order.  A single
    word is a one-row call.  Each letter column is one gather of every row
    through the flat strand_tables(q, degree), which a caller builds once
    per degree.
    """
    words = np.asarray(words, dtype=np.intp)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if words.size and not 0 <= words.min() <= words.max() < degree:
        raise ValueError(f"letters must lie in 1..{degree - 1}, with 0 as padding")
    dim = q.rack.size**degree
    steps, gains = (table.ravel() for table in tables)
    target = np.tile(np.arange(dim, dtype=np.int64), (len(words), 1))
    expo = np.zeros_like(target)
    # left-compose with the generators, from the last letter to the first: each is applied last
    for shift in words.T[::-1, :, None] * dim:
        at = target + shift
        target = steps.take(at)
        expo = (expo + gains.take(at)) % q.order
    return target, expo


def check_braid_equation(q: RackCocycle) -> bool:
    """Whether (c x id)(id x c)(c x id) = (id x c)(c x id)(id x c) on X^(x)3 (braid_equation_witness)."""
    return braid_equation_witness(q) is None


def braid_equation_witness(q: RackCocycle) -> list[int] | None:
    """The first basis triple x (x) y (x) z of X^(x)3 where the two sides of the braid equation differ, or None."""
    target, expo = rho([[1, 2, 1], [2, 1, 2]], q, 3, strand_tables(q, 3))
    bad = np.flatnonzero((target[0] != target[1]) | (expo[0] != expo[1]))
    if not bad.size:
        return None
    k, v = q.rack.size, int(bad[0])
    return [v // (k * k), v // k % k, v % k]


# verify_matsumoto's draws, and its largest degree (3^7 columns on x3)
_MATSUMOTO_DRAWS = 200
_MATSUMOTO_DEGREE_CAP = 7


def verify_matsumoto(n_max: int, seed: int) -> tuple[bool, dict | None]:
    """Whether two reduced words of each drawn sigma have one rho under -1 on x3, and the first failure in draw order.

    random.Random(seed) draws 200 permutations, a randint(2, min(n_max, 7))
    degree n and a shuffle of 1..n each.  Each distinct one is checked once,
    on its lex word and on the lex word of w0 sigma w0 with i read as n - i
    (conjugation by w0 maps s_i to s_{n-i}); a degree's words go through one
    rho call.  The witness is {"sigma": image, "words": [lex, other]}.
    """
    q = minus_one_cocycle(transposition_rack(3))
    rng = random.Random(seed)
    drawn = {}  # the distinct images, in draw order
    for _ in range(_MATSUMOTO_DRAWS):
        img = list(range(1, rng.randint(2, min(n_max, _MATSUMOTO_DEGREE_CAP)) + 1))
        rng.shuffle(img)
        drawn.setdefault(tuple(img))
    sigmas = list(drawn)
    failures = []
    for n in sorted({len(s) for s in sigmas}):
        at = [t for t, s in enumerate(sigmas) if len(s) == n]
        m = len(at)
        images = np.array([sigmas[t] for t in at])
        # rows m.. are w0 sigma w0; their lex words, letters read as n - i, are the second words
        letters, lengths = lex_reduced_words(np.concatenate([images, n + 1 - images[:, ::-1]]))
        cut = lengths[:m].sum()
        letters[cut:] = n - letters[cut:]
        words = np.zeros((2 * m, lengths.max()), dtype=np.intp)
        words[np.arange(words.shape[1]) < lengths[:, None]] = letters
        target, expo = rho(words, q, n, strand_tables(q, n))
        bad = (lengths[:m] != lengths[m:]) | (target[:m] != target[m:]).any(axis=1) | (expo[:m] != expo[m:]).any(axis=1)
        if bad.any():
            r = int(np.argmax(bad))
            failures.append((at[r], words[r, : lengths[r]].tolist(), words[m + r, : lengths[m + r]].tolist()))
    if not failures:
        return True, None
    t, lex, alt = min(failures)
    return False, {"sigma": list(sigmas[t]), "words": [lex, alt]}


def word_operator(letters, q, degree: int, tables=None):
    """rho of one word as a MonomialOperator: a one-row call, with degree's strand tables unless given."""
    tables = strand_tables(q, degree) if tables is None else tables
    target, expo = rho(np.array([letters], dtype=np.intp), q, degree, tables)
    return MonomialOperator(target.shape[1], q.order, target[0], expo[0])


def matsumoto_per_sigma(n_max: int, seed: int) -> tuple[bool, dict | None]:
    """verify_matsumoto one sigma at a time, with the same draws and -1 on x3.

    Each distinct sigma's lex word (lex_reduced_word) and the
    word i -> n - i of the lex word of w0 sigma w0 go through rho as two
    one-row calls, compared as operators; the first failure in draw order
    is the witness.
    """
    q = minus_one_cocycle(transposition_rack(3))
    rng = random.Random(seed)
    seen = set()  # the verdict per sigma is deterministic, so each is checked once
    tables = {}  # strand tables per degree, built once for every rho of that degree
    for _ in range(200):
        n = rng.randint(2, min(n_max, 7))
        img = list(range(1, n + 1))
        rng.shuffle(img)
        if tuple(img) in seen:
            continue
        seen.add(tuple(img))
        sigma = Permutation(tuple(img))
        lex = lex_reduced_word(sigma)
        w0 = Permutation(tuple(range(n, 0, -1)))
        alt = tuple(n - i for i in lex_reduced_word(w0 * sigma * w0))
        if n not in tables:
            tables[n] = strand_tables(q, n)
        if len(alt) != len(lex) or word_operator(lex, q, n, tables[n]) != word_operator(alt, q, n, tables[n]):
            return False, {"sigma": list(sigma.image), "words": [list(lex), list(alt)]}
    return True, None


def _components(dim: int, edges) -> list[tuple[int, ...]]:
    """Connected components of a graph on range(dim), by union-find."""
    parent = list(range(dim))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for v in range(dim):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(g) for g in groups.values())


def hurwitz_orbits(q, degree: int) -> list[tuple[int, ...]]:
    """Orbits of the braid group on X^degree, from the rule (x, y) -> (x |> y, x) on digit tuples."""
    k, op = q.rack.size, q.rack.op.tolist()
    edges = []
    for v in range(k**degree):
        digits = [v // k ** (degree - 1 - i) % k for i in range(degree)]
        for i in range(degree - 1):
            w = list(digits)
            w[i], w[i + 1] = op[digits[i]][digits[i + 1]], digits[i]
            edges.append((v, sum(d * k ** (degree - 1 - j) for j, d in enumerate(w))))
    return _components(k**degree, edges)


def commuting_translations(q) -> list[tuple[int, ...]]:
    """The rows phi = x |> - whose translation g_x commutes with the braiding, in order of x.

    g_x sends basis y to q(x, y) (x |> y); it is kept when it permutes X and
    c (g_x (x) g_x) = (g_x (x) g_x) c on every y (x) z, both sides compared as
    (basis pair, exponent).
    """
    k, m, op, ex = q.rack.size, q.order, q.rack.op.tolist(), q.exp.tolist()
    gens = []
    for x in range(k):
        phi = op[x]
        if sorted(phi) != list(range(k)):
            continue
        commutes = True
        for y in range(k):
            for z in range(k):
                before = ((op[phi[y]][phi[z]], phi[y]), (ex[x][y] + ex[x][z] + ex[phi[y]][phi[z]]) % m)
                a, b = op[y][z], y
                after = ((phi[a], phi[b]), (ex[y][z] + ex[x][a] + ex[x][b]) % m)
                commutes = commutes and before == after
        if commutes:
            gens.append(tuple(phi))
    return gens


def translation_classes(q, degree: int) -> list[int]:
    """Classes of braid orbits under the translations g_x that commute with the braiding (commuting_translations).

    Orbits are numbered as in hurwitz_orbits; entry i is the number of the
    smallest orbit that the kept translations connect to orbit i.
    """
    k = q.rack.size
    gens = commuting_translations(q)
    orbits = hurwitz_orbits(q, degree)
    where = {v: i for i, orbit in enumerate(orbits) for v in orbit}
    edges = []
    for i, orbit in enumerate(orbits):
        digits = [orbit[0] // k ** (degree - 1 - j) % k for j in range(degree)]
        for phi in gens:
            edges.append((i, where[sum(phi[d] * k ** (degree - 1 - j) for j, d in enumerate(digits))]))
    label = [0] * len(orbits)
    for comp in _components(len(orbits), edges):
        for i in comp:
            label[i] = comp[0]
    return label


def send_tables(q, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k^d, d) tables inv, add of assembly step d, over the whole basis.

    Right multiplication by the prefix product P_j = c_{d-1} ... c_{d-j},
    which takes v to target_j[v] with exponent expo_j[v] (composed from the
    rows of strand_tables), moves an entry from column C to column
    v = target_j^-1[C] and adds expo_j[v] to its exponent;
    inv[C, j] holds that column and add[C, j] that exponent, mod the order.
    """
    n, m = q.rack.size**d, q.order
    v = np.arange(n, dtype=np.int64)
    target, expo = v, np.zeros(n, dtype=np.int64)
    inv = np.full((n, d), -1, dtype=np.int64)
    add = np.full((n, d), -1, dtype=np.int64)
    inv[:, 0], add[:, 0] = v, 0
    targets, expos = strand_tables(q, d)
    for j, (tgt, ex) in enumerate(zip(targets[:0:-1], expos[:0:-1]), start=1):
        target, expo = target[tgt], (ex + expo[tgt]) % m
        inv[target, j] = v
        add[target, j] = expo
    return inv, add


def orbit_classes_by_translation(q, degree: int, orbit: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The class and carry of every braid orbit, one translation at a time.

    The translations are the rows x |> - that commuting_translations
    keeps, in order.  Classes are joined by union-find over the edges from
    each orbit to its image under each translation.  The carry tree grows
    from each head level by level; within a level the translations take
    their turns in order, and each gives the orbits that no earlier turn
    reached the product of its row and the carry of their parent.
    """
    k = q.rack.size
    reps = np.flatnonzero(orbit == np.arange(orbit.size)).tolist()
    number = {v: i for i, v in enumerate(reps)}
    phis = commuting_translations(q)

    def image(phi, i):
        word = [reps[i] // k**j % k for j in range(degree)]
        return number[int(orbit[sum(phi[a] * k**j for j, a in enumerate(word))])]

    maps = [[image(phi, i) for i in range(len(reps))] for phi in phis]
    label = [0] * len(reps)
    for comp in _components(len(reps), [(i, tgt[i]) for tgt in maps for i in range(len(reps))]):
        for i in comp:
            label[i] = comp[0]
    carry = np.full((len(reps), k), -1, dtype=np.int64)
    frontier = [i for i in range(len(reps)) if label[i] == i]
    carry[frontier] = np.arange(k)
    while frontier:
        reached = []
        for phi, tgt in zip(phis, maps):
            for parent in frontier:
                child = tgt[parent]
                if carry[child, 0] < 0:
                    carry[child] = [phi[s] for s in carry[parent]]
                    reached.append(child)
        frontier = reached
    return label, carry


def orbit_count_blocks(sym) -> list[np.ndarray]:
    """The (order, size, size) count tensor of the diagonal block of every braid orbit.

    Blocks are listed by smallest orbit member; each is filled from the
    coordinate entries whose row lies in the orbit, after checking that
    their columns do too.
    """
    blocks = []
    for o in np.flatnonzero(sym.orbit == np.arange(sym.dim)).tolist():
        members = np.flatnonzero(sym.orbit == o)
        block = np.zeros((sym.order, members.size, members.size), dtype=np.int64)
        c = sym.entries
        sel = sym.orbit[c.row] == o
        assert (sym.orbit[c.col[sel]] == o).all()
        rows, cols = np.searchsorted(members, c.row[sel]), np.searchsorted(members, c.col[sel])
        np.add.at(block, (c.expo[sel], rows, cols), c.data[sel].astype(np.int64))
        blocks.append(block)
    return blocks


def evaluate_modp(counts: np.ndarray, p: int, g: int) -> np.ndarray:
    """The matrix sum_e counts[e] zeta^e mod p with zeta mapped to g; needs counts * p < 2^63."""
    return sum(counts[e] * pow(g, e, p) % p for e in range(counts.shape[0])) % p


def first_independent_rows_modp(rows, p: int) -> list[int]:
    """The rows that raise the rank mod p, walked in order, in Python ints: each row independent of those before it.

    A row is reduced by the kept rows in the order they were kept, each
    scaled to a leading 1 and zero at the leading columns of the rows kept
    before it; a row that does not reduce to zero is kept.
    """
    basis, kept = [], []
    for i, row in enumerate(rows):
        v = [int(x) % p for x in row]
        for lead, b in basis:
            f = v[lead]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, b)]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is not None:
            inv = pow(v[lead], -1, p)
            basis.append((lead, [x * inv % p for x in v]))
            kept.append(i)
    return kept


def orbit_blocks_modp(sym, p: int, g: int) -> list[np.ndarray]:
    """The dense diagonal block of every braid orbit mod p with zeta mapped to g (orbit_count_blocks)."""
    return [evaluate_modp(block, p, g) for block in orbit_count_blocks(sym)]


def support_components(sym) -> list[tuple[int, ...]]:
    """Connected components of the support graph of a square SymmetrizerMatrix (rows = cols)."""
    edges = [(int(r), int(c)) for r, c in zip(sym.entries.row, sym.entries.col)]
    return _components(sym.dim, edges)


def unpruned_graded_dims(q: RackCocycle, max_degree: int) -> dict:
    """The exact-mode report dict of hilbert.graded_dims, with every row of every degree built and ranked.

    Unlike the other oracles this one runs the package's own assembly and
    rank, so that it checks one thing only: that building each degree on
    the kept rows whose prefix is a pivot row below changes no rank.  Every
    degree is proven on the full exact.symmetrizer(q, d), with no rows
    chosen from the degree below; seed 0 is echoed as graded_dims echoes
    its default.
    """
    degrees = list(range(max_degree + 1))
    return {
        "mode": "exact",
        "seed": 0,
        "degrees": degrees,
        "ranks": [exact.rank(exact.symmetrizer(q, d)).rank for d in degrees],
        "methods": ["exact"] * len(degrees),
        "primes": [[] for _ in degrees],
    }


def disagree_at(monkeypatch, degree: int) -> None:
    """Make the two primes of the Leibniz recursion disagree at `degree`: every Phi_r there is zero mod the first."""
    from racktwist import nichols

    real_degree, real_rref = nichols.LeibnizEngine._degree, nichols._rref

    def zeroed(a, p):
        a[0] = 0
        return real_rref(a, p)

    def forced(engine, d, *args):
        monkeypatch.setattr(nichols, "_rref", zeroed if d == degree else real_rref)
        return real_degree(engine, d, *args)

    monkeypatch.setattr(nichols.LeibnizEngine, "_degree", forced)


def translation_group(q: RackCocycle) -> dict:
    """The group Q of the translations A_x: y -> q(x, y) (x |> y) modulo scalars, closed in plain Python.

    An element is a pair of tuples (perm, vec), A(e_y) = zeta^vec[y] e_perm[y],
    with vec shifted so that vec[0] = 0; a dict keyed by the pair numbers
    the elements.  A queue from the identity numbers each h A_0, ..., h A_(k-1)
    when first met, h in turn.  Returned: the elements, right multiplication
    by A_x and by A_x^-1, the conjugacy classes of Q (each a sorted list),
    and compose(a, b) = A_a A_b and inverse(a) on raw pairs.
    """
    k, m, op, ex = q.rack.size, q.order, q.rack.op.tolist(), q.exp.tolist()

    def element(perm, vec):
        return tuple(perm), tuple((v - vec[0]) % m for v in vec)

    def compose(a, b):
        (pa, va), (pb, vb) = a, b
        return element([pa[pb[y]] for y in range(k)], [vb[y] + va[pb[y]] for y in range(k)])

    def inverse(a):
        perm, vec = a
        inv = sorted(range(k), key=perm.__getitem__)
        return element(inv, [-vec[inv[z]] for z in range(k)])

    gens = [element(op[x], ex[x]) for x in range(k)]
    elements = [(tuple(range(k)), (0,) * k)]
    number = {elements[0]: 0}
    at = 0
    while at < len(elements):
        for g in gens:
            h = compose(elements[at], g)
            if h not in number:
                number[h] = len(elements)
                elements.append(h)
        at += 1
    rmul = [[number[compose(h, g)] for g in gens] for h in elements]
    rinv = [[number[compose(h, inverse(g))] for g in gens] for h in elements]
    edges = [(i, number[compose(compose(g, h), inverse(g))]) for i, h in enumerate(elements) for g in gens]
    classes = [list(c) for c in _components(len(elements), edges)]
    return {"elements": elements, "rmul": rmul, "rinv": rinv, "classes": classes, "compose": compose,
            "inverse": inverse}


@dataclass(frozen=True)
class QuadScalar:
    """An element a + b*sqrt(2) of the real quadratic field Q(sqrt(2))."""

    a: Fraction
    b: Fraction

    @staticmethod
    def of(a, b=0) -> QuadScalar:
        return QuadScalar(Fraction(a), Fraction(b))

    def __add__(self, other: QuadScalar) -> QuadScalar:
        return QuadScalar(self.a + other.a, self.b + other.b)

    def __neg__(self) -> QuadScalar:
        return QuadScalar(-self.a, -self.b)

    def __mul__(self, other: QuadScalar) -> QuadScalar:
        return QuadScalar(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


INV_SQRT2 = QuadScalar.of(0, Fraction(1, 2))  # 1/sqrt(2) = (1/2)*sqrt(2)


def inv_sqrt2_power(k: int) -> QuadScalar:
    """(1/sqrt(2))^k as an element of Q(sqrt(2))."""
    if k % 2 == 0:
        return QuadScalar.of(Fraction(1, 2 ** (k // 2)))
    return QuadScalar.of(0, Fraction(1, 2 ** ((k + 1) // 2)))


def quad_element(terms: dict[int, int], k: int) -> dict[int, QuadScalar]:
    """The element 2^(-k/2) * sum c_S e_S as a mask -> Q(sqrt(2)) coefficient dict."""
    scale = inv_sqrt2_power(k)
    return {m: QuadScalar.of(c) * scale for m, c in terms.items() if c}


def _monomial_product(s: int, t: int) -> tuple[int, int]:
    """e_s e_t = sign * e_m: bubble-sort the concatenated generator word."""
    word = [i for i in range(s.bit_length()) if s >> i & 1]
    word += [i for i in range(t.bit_length()) if t >> i & 1]
    sign = 1
    for end in range(len(word) - 1, 0, -1):
        for j in range(end):
            if word[j] > word[j + 1]:
                word[j], word[j + 1] = word[j + 1], word[j]
                sign = -sign
    mask = 0
    for i in word:
        mask ^= 1 << i  # sorted, so a repeated e_i e_i = 1 cancels in place
    return sign, mask


def quad_clifford_product(
    u: dict[int, QuadScalar], v: dict[int, QuadScalar]
) -> dict[int, QuadScalar]:
    """Product in the Clifford algebra with e_i^2 = 1 and e_i e_j = -e_j e_i."""
    acc: dict[int, QuadScalar] = {}
    for s, cs in u.items():
        for t, ct in v.items():
            sign, m = _monomial_product(s, t)
            c = cs * ct
            acc[m] = acc.get(m, QuadScalar.of(0)) + (c if sign > 0 else -c)
    return {m: c for m, c in acc.items() if not c.is_zero()}


def quad_generator(i: int) -> dict[int, QuadScalar]:
    """The lifted Coxeter generator t_i = (e_i - e_{i+1})/sqrt(2)."""
    return {1 << (i - 1): INV_SQRT2, 1 << i: -INV_SQRT2}


def quad_reverse(u: dict[int, QuadScalar]) -> dict[int, QuadScalar]:
    """The reversal anti-automorphism: e_S -> (-1)^(|S|(|S|-1)/2) e_S."""
    out = {}
    for m, c in u.items():
        g = bin(m).count("1")
        out[m] = -c if g * (g - 1) // 2 % 2 else c
    return out


def is_group_like(s) -> bool:
    """A spin element is parity-homogeneous and its Clifford part times its reversal is 1."""
    u = quad_element(s.elem.terms, s.elem.k)
    if len({bin(m).count("1") % 2 for m in u}) != 1:
        return False
    return quad_clifford_product(u, quad_reverse(u)) == {0: QuadScalar.of(1)}


def signed_action_consistent(s) -> bool:
    """Conjugation by the Clifford part of a spin element sends each e_i to +/- e_{perm(i)}."""
    u = quad_element(s.elem.terms, s.elem.k)
    inv = quad_reverse(u)
    for i in range(1, s.elem.n + 1):
        image = quad_clifford_product(quad_clifford_product(u, {1 << (i - 1): QuadScalar.of(1)}), inv)
        target = 1 << (s.perm(i) - 1)
        if image not in ({target: QuadScalar.of(1)}, {target: QuadScalar.of(-1)}):
            return False
    return True


def transposition_pair(sigma: Permutation) -> tuple[int, int] | None:
    """The moved pair (i, j), i < j, if sigma is a transposition, else None."""
    moved = [i + 1 for i, v in enumerate(sigma.image) if v != i + 1]
    if len(moved) == 2 and sigma(moved[0]) == moved[1] and sigma(moved[1]) == moved[0]:
        return moved[0], moved[1]
    return None


@dataclass(frozen=True)
class SpinElement:
    """A group element of the cover: exact Clifford element plus its image permutation."""

    elem: CliffordElement
    perm: Permutation

    def __mul__(self, other: SpinElement) -> SpinElement:
        return SpinElement(self.elem * other.elem, self.perm * other.perm)

    def inverse(self) -> SpinElement:
        # products of unit vectors invert by reversal
        return SpinElement(self.elem.reverse(), self.perm.inverse())

    def conj(self, other: SpinElement) -> SpinElement:
        """self |> other = self * other * self^-1."""
        return self * other * self.inverse()

    def times_z(self) -> SpinElement:
        return SpinElement(-self.elem, self.perm)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpinElement)
            and self.elem == other.elem
            and self.perm.image == other.perm.image
        )

    def __hash__(self):
        return hash((self.elem, self.perm.image))

    @staticmethod
    def one(n: int) -> SpinElement:
        return SpinElement(CliffordElement.one(n), Permutation.identity(n))

    @staticmethod
    def z(n: int) -> SpinElement:
        """The central involution, realized as the scalar -1."""
        return SpinElement(CliffordElement.scalar(n, -1), Permutation.identity(n))


def generator_t(n: int, i: int) -> SpinElement:
    """The lifted Coxeter generator t_i = (e_i - e_{i+1})/sqrt(2) over s_i."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range 1..{n - 1}")
    elem = CliffordElement(n, {1 << (i - 1): 1, 1 << i: -1}, k=1)
    return SpinElement(elem, Permutation.adjacent(n, i))


def unnormalized_generator(n: int, i: int) -> SpinElement:
    """The corrupted generator e_i - e_{i+1} = sqrt(2) t_i, for which t_i^2 = 2."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range 1..{n - 1}")
    elem = CliffordElement(n, {1 << (i - 1): 1, 1 << i: -1})
    return SpinElement(elem, Permutation.adjacent(n, i))


def presentation_by_clifford(n: int, generators: list[SpinElement] | None = None) -> bool:
    """spincover.verify_presentation with every relation multiplied out in the Clifford model.

    generators are t_1 .. t_(n-1), generator_t by default.  Relations: t_i^2 = 1,
    (t_j t_{j+1})^3 = 1, (t_k t_l)^2 = z for k <= l-2, z^2 = 1, and z central.
    """
    one = SpinElement.one(n)
    z = SpinElement.z(n)
    ts = [generator_t(n, i) for i in range(1, n)] if generators is None else generators
    if (z * z) != one:
        return False
    for t in ts:
        if (z * t) != (t * z):
            return False
    for t in ts:
        if (t * t) != one:
            return False
    for j in range(n - 2):
        u = ts[j] * ts[j + 1]
        if (u * u * u) != one:
            return False
    for k in range(n - 1):
        for l in range(k + 2, n - 1):
            v = ts[k] * ts[l]
            if (v * v) != z:
                return False
    return True


def presentation_by_words(n: int, generators: np.ndarray) -> dict | None:
    """spincover.verify_presentation with the braid and far relations decided as words of generator vectors.

    The square relation is the Gram diagonal equal to 2, checked first, as
    pfaffian.word_bits bounds its Pfaffians for unit vectors only.  Then
    (t_j t_{j+1})^3 = 1 is the vector word (j, j+1)^3 with sign bit 0 and
    (t_k t_l)^2 = z the word (k, l)^2 with bit 1, all in one batch; the
    first word whose bit differs names the relation.
    """
    gram = generators @ generators.T
    bad = np.flatnonzero(np.diag(gram) != 2)
    if bad.size:
        return {"relation": "square", "letters": [int(bad[0]) + 1]}
    words = [("braid", [j, j + 1] * 3, 0) for j in range(n - 2)]
    words += [("far", [k, l] * 2, 1) for k in range(n - 1) for l in range(k + 2, n - 1)]
    if not words:
        return None
    values = np.array([v for _, word, _ in words for v in word], dtype=np.intp)
    lengths = np.array([len(word) for _, word, _ in words], dtype=np.intp)
    for (relation, word, want), got in zip(words, pfaffian.word_bits(gram, values, lengths)):
        if got != want:
            return {"relation": relation, "letters": [word[0] + 1, word[1] + 1]}
    return None


def cocycle_bit(gc: GroupCocycleBit, x: Permutation, y: Permutation) -> int:
    """The sign bit in s(x)s(y) = z^bit s(xy) of gc's section, one pair at a time."""
    return gc.sections.phi_bit(x, y)


_BRACKETS: dict[tuple[int, int, int], SpinElement] = {}


def bracket(n: int, i: int, j: int) -> SpinElement:
    """The distinguished lift [i j] of the transposition (i j), expanded in the Clifford model.

    [i, i+1] = t_i; for i+1 < j, [i j] = (t_i |> [i+1, j]) * z; and
    [j i] = [i j] * z for i < j.  Memoised on (n, i, j).  The generators
    and the recursion are looked up on this module at each use, so a test
    that patches either sees the fault propagate.
    """
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"bad bracket indices ({i}, {j}) for n={n}")
    key = (n, i, j)
    got = _BRACKETS.get(key)
    if got is None:
        if i > j:
            got = bracket(n, j, i).times_z()
        elif j == i + 1:
            got = generator_t(n, i)
        else:
            got = generator_t(n, i).conj(bracket(n, i + 1, j)).times_z()
        _BRACKETS[key] = got
    return got


def bracket_vectors(n: int) -> np.ndarray:
    """spincover._bracket_vectors(n) read off the Clifford brackets: [i j] = vectors[i, j]/sqrt(2)."""
    vectors = np.zeros((n + 1, n + 1, n), dtype=np.int64)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                vectors[i, j] = bracket_vector(n, i, j)
    return vectors


def use_clifford_brackets(monkeypatch) -> None:
    """Make the package read its bracket table off bracket, with a fresh memo, so a patched generator reaches it."""
    monkeypatch.setattr(sys.modules[__name__], "_BRACKETS", {})
    monkeypatch.setattr(spincover, "_bracket_vectors", bracket_vectors)


def scale_bracket(monkeypatch, i: int, j: int, factor: int) -> None:
    """Make [i j] (for every n) factor times itself, in bracket and in the package.

    The fault enters the Clifford recursion of bracket, so every bracket
    built from [i j] inherits it, and the package reads its bracket table
    off these brackets (use_clifford_brackets).
    """
    original = bracket

    def patched(n, a, b):
        got = original(n, a, b)
        if (a, b) != (i, j):
            return got
        return SpinElement(CliffordElement(n, {m: factor * c for m, c in got.elem.terms.items()}, got.elem.k), got.perm)

    use_clifford_brackets(monkeypatch)
    monkeypatch.setattr(sys.modules[__name__], "bracket", patched)


class CliffordSection:
    """The section s: S_n -> T_n of spincover.SectionCache, as Clifford elements.

    s(id) = 1, s((i j)) = [i j], and any other sigma is the product
    t_{w_1} ... t_{w_l} along its lex-reduced word, expanded in the Clifford
    model.  One stack holds the prefix lifts of the last word lifted; a new
    word keeps the prefix it shares with that word and multiplies only its
    remaining letters.  The lift of an m-cycle has 2^(m-1) terms, so this is
    exponential in n.  Brackets and generators are looked up on this module
    at each use, so a test can patch them.
    """

    def __init__(self, n: int):
        self.n = n
        self._memo: dict[tuple[int, ...], SpinElement] = {}
        self._gens = [generator_t(n, i).elem for i in range(1, n)]
        self._word: tuple[int, ...] = ()
        self._prefix = [CliffordElement.one(n)]  # _prefix[j] lifts _word[:j]

    def section(self, sigma: Permutation) -> SpinElement:
        cached = self._memo.get(sigma.image)
        if cached is None:
            pair = transposition_pair(sigma)
            if pair is not None:
                cached = bracket(self.n, *pair)
            else:
                cached = SpinElement(self._lift(lex_reduced_word(sigma)), sigma)
            self._memo[sigma.image] = cached
        return cached

    def _lift(self, word: tuple[int, ...]) -> CliffordElement:
        prefix, last = self._prefix, self._word
        shared = 0
        for a, b in zip(word, last):
            if a != b:
                break
            shared += 1
        del prefix[shared + 1:]
        for i in word[shared:]:
            prefix.append(prefix[-1] * self._gens[i - 1])
        self._word = word
        return prefix[-1]

    def phi_bit(self, x: Permutation, y: Permutation) -> int:
        """The sign bit in s(x)s(y) = z^bit s(xy); raises if neither sign matches."""
        prod = self.section(x).elem * self.section(y).elem
        target = self.section(x * y).elem
        if prod == target:
            return 0
        if prod == -target:
            return 1
        raise SectionConsistencyError(f"s(x)s(y) is not +/- s(xy) for x={x.image}, y={y.image}")


def clifford_twist_table(n: int) -> TwistTable:
    """The restriction of the section's cocycle to transposition pairs, pair by pair in the Clifford model."""
    section = CliffordSection(n)
    perms = [Permutation.transposition(n, i, j) for i, j in transposition_pairs(n)]
    phi = tuple(tuple(section.phi_bit(x, y) for y in perms) for x in perms)
    return TwistTable(rack=chi_cocycle(n).rack, order=2, phi=phi)


def bracket_vector(n: int, i: int, j: int) -> tuple[int, ...]:
    """sqrt(2) * [i j] as an integer vector, from bracket; ValueError if it is none."""
    elem = bracket(n, i, j).elem
    if elem.k != 1 or any(bin(m).count("1") != 1 for m in elem.terms):
        raise ValueError(f"[{i} {j}] is not an integer vector over sqrt(2)")
    return tuple(elem.terms.get(1 << v, 0) for v in range(n))


def group_cocycle_first_failure(images, bits) -> dict | None:
    """The first triple (x, y, z) in lexicographic order with bit(x,y) + bit(xy,z) != bit(x,yz) + bit(y,z) mod 2.

    One triple at a time, with products of Permutation objects; bits[a][b]
    is the bit of the a-th and b-th of the one-line images.  Returns the
    triple as one-line images {"x": ..., "y": ..., "z": ...}, or None.
    """
    perms = [Permutation(tuple(img)) for img in images]
    index = {p.image: a for a, p in enumerate(perms)}
    for x, px in enumerate(perms):
        for y, py in enumerate(perms):
            xy = index[(px * py).image]
            for z, pz in enumerate(perms):
                yz = index[(py * pz).image]
                if (bits[x][y] + bits[xy][z] - bits[x][yz] - bits[y][z]) % 2:
                    return {"x": list(px.image), "y": list(py.image), "z": list(pz.image)}
    return None


def twist_identity_by_reflections(n: int) -> tuple[int, int] | None:
    """The first pair (a, b) of transpositions that breaks the twist identity, or None.

    With [s(x)][s(y)] = z^phi(x, y) s(xy), the identity phi(sigma, tau) -
    phi(sigma |> tau, sigma) + chi(sigma, tau) = 1 says [sigma][tau][sigma]^-1
    = z^(1 - chi(sigma, tau)) [sigma |> tau] for every pair of transpositions.
    For unit vectors u = a/sqrt(2) and v = b/sqrt(2), u^-1 = u and
    u v u = 2<u, v> u - v, so sqrt(2) u v u^-1 = <a, b> a - b: each side is one
    integer vector, and no section is lifted.
    """
    chi = chi_cocycle(n)
    op, exp = chi.rack.op.tolist(), chi.exp.tolist()
    vectors = [bracket_vector(n, i, j) for i, j in transposition_pairs(n)]
    for a, u in enumerate(vectors):
        for b, v in enumerate(vectors):
            dot = sum(p * q for p, q in zip(u, v))
            sign = 1 if exp[a][b] else -1
            target = vectors[op[a][b]]
            if any(dot * p - q != sign * t for p, q, t in zip(u, v, target)):
                return a, b
    return None


# The package draws the random conjugation words in chunks of this many.
LEMMA_CHUNK = 1024


def uniform_fields(rng: random.Random, bound: int, count: int) -> list[int]:
    """count values uniform in 0..bound-1, one Python int at a time.

    The draw rule of the package: a block getrandbits(2 * need * w), with
    w = (bound - 1).bit_length() and need the values still missing, read as
    2 * need w-bit fields from the lowest bits up; fields below bound are
    kept, and the values past count are dropped.
    """
    width = (bound - 1).bit_length()
    out: list[int] = []
    while len(out) < count:
        fields = 2 * (count - len(out))
        bits = format(rng.getrandbits(width * fields), f"0{width * fields}b")[::-1]  # bits[t] is bit t
        values = (int(bits[width * t: width * (t + 1)][::-1] or "0", 2) for t in range(fields))
        out += [v for v in values if v < bound]
    return out[:count]


def lemma_draws(n: int, trials: int, seed: int, chunk: int = LEMMA_CHUNK):
    """The (word, i, j) of each random trial of the conjugation lemmas, in order.

    random.Random(seed) is read chunk by chunk: the chunk's lengths in
    0..20, then its letters in 1..n-1, word after word, then one index per
    word of the ordered pair, i = index // (n - 1) + 1 and j the
    (index % (n - 1) + 1)-th of 1..n other than i.
    """
    rng = random.Random(seed)
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        lengths = uniform_fields(rng, 21, size)
        letters = iter(uniform_fields(rng, n - 1, sum(lengths)))
        words = [[next(letters) + 1 for _ in range(l)] for l in lengths]
        for word, index in zip(words, uniform_fields(rng, n * (n - 1), size)):
            a, b = divmod(index, n - 1)
            yield word, a + 1, b + 1 + (b >= a)


def conjugation_lemmas_by_clifford(n: int, trials: int = 1000, seed: int = 0) -> dict | None:
    """spincover.verify_conjugation_lemmas with every lift expanded in the Clifford model.

    Exhaustively checks t_k [i j] t_k^-1 = [s_k(i) s_k(j)] z, then conjugates
    [i j] by the lifts of random generator words of length l <= 20 and checks
    the result is [w(i) w(j)] z^l, with the words of lemma_draws.  A
    lift of l letters has up to 2^(n-1) terms, so this is exponential in n.
    Returns the first failing word and pair, or None, as the package does.
    """
    brackets = {
        (a, b): bracket(n, a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b
    }
    ts = [generator_t(n, i) for i in range(1, n)]
    for k, sk in enumerate(ts, 1):
        swap = sk.perm
        for (a, b), br in brackets.items():
            if sk.conj(br) != brackets[(swap(a), swap(b))].times_z():
                return {"word": [k], "pair": [a, b]}
    for word, a, b in lemma_draws(n, trials, seed):
        lift = SpinElement.one(n)
        for i in word:
            lift = lift * ts[i - 1]
        expected = brackets[(lift.perm(a), lift.perm(b))]
        if len(word) % 2 == 1:
            expected = expected.times_z()
        if lift.conj(brackets[(a, b)]) != expected:
            return {"word": word, "pair": [a, b]}
    return None


def conjugation_lemmas_per_trial(
    n: int, trials: int = 1000, seed: int = 0, chunk: int = LEMMA_CHUNK
) -> dict | None:
    """spincover.verify_conjugation_lemmas one word at a time, on Python lists.

    The same integer reflections v -> <g, v> g - v of bracket_vector, applied
    letter by letter from the last to the first while the pair follows the
    swaps, with the words of lemma_draws(n, trials, seed, chunk).
    """
    vectors = {
        (a, b): bracket_vector(n, a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b
    }
    swaps = [Permutation.adjacent(n, k) for k in range(1, n)]

    def conj(k: int, v) -> list[int]:
        g = vectors[(k, k + 1)]
        dot = sum(p * q for p, q in zip(g, v))
        return [dot * p - q for p, q in zip(g, v)]

    for k, swap in enumerate(swaps, 1):
        for (a, b), v in vectors.items():
            if conj(k, v) != [-c for c in vectors[(swap(a), swap(b))]]:
                return {"word": [k], "pair": [a, b]}
    for word, a, b in lemma_draws(n, trials, seed, chunk):
        v, c, d = list(vectors[(a, b)]), a, b
        for k in reversed(word):
            v = conj(k, v)
            c, d = swaps[k - 1](c), swaps[k - 1](d)
        expected = list(vectors[(c, d)])
        if v != (expected if len(word) % 2 == 0 else [-e for e in expected]):
            return {"word": word, "pair": [a, b]}
    return None


def transposition_rack_by_permutations(n: int) -> FiniteRack:
    """x_n conjugated pair by pair through Permutation objects."""
    pairs = transposition_pairs(n)
    index = {p: i for i, p in enumerate(pairs)}
    op = []
    for x in (Permutation.transposition(n, i, j) for i, j in pairs):
        row = []
        for c, d in pairs:
            a, b = x(c), x(d)
            row.append(index[(a, b) if a < b else (b, a)])
        op.append(tuple(row))
    return FiniteRack(op=tuple(op), labels=tuple(f"({i} {j})" for i, j in pairs))


def chi_exponents_by_permutations(n: int) -> tuple[tuple[int, ...], ...]:
    """The exponent table of chi on x_n: 1 where sigma(i) > sigma(j) for tau = (i j), i < j."""
    pairs = transposition_pairs(n)
    perms = [Permutation.transposition(n, i, j) for i, j in pairs]
    return tuple(tuple(0 if sigma(i) < sigma(j) else 1 for i, j in pairs) for sigma in perms)


def twist_by_loop(q: RackCocycle, phi: TwistTable) -> tuple[tuple[int, ...], ...]:
    """The exponents phi[x][y] - phi[x|>y][x] + exp[x][y] (mod m) of the twisted cocycle, entry by entry."""
    op, p, exp, m, k = q.rack.op.tolist(), phi.phi.tolist(), q.exp.tolist(), q.order, q.rack.size
    return tuple(tuple((p[x][y] - p[op[x][y]][x] + exp[x][y]) % m for y in range(k)) for x in range(k))


def value_at_one(coeffs: list[int]) -> int:
    """A polynomial, given by its coefficients, evaluated at t = 1."""
    return sum(coeffs)


def is_palindromic(coeffs: list[int]) -> bool:
    """Whether a coefficient list reads the same in both directions."""
    return coeffs == coeffs[::-1]


def save_rack(r, path: str) -> None:
    """Write a rack as the JSON document that rack.load_rack reads."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rack_to_dict(r), fh, indent=2, sort_keys=True)
        fh.write("\n")


ORBIT_CAP = 10_000


class OrbitTooLargeError(Exception):
    """A conjugation orbit exceeded the size cap of conjugacy_class_rack."""


def conjugacy_class_rack(
    generators: list[Permutation], seed: Permutation, cap: int = ORBIT_CAP
) -> FiniteRack:
    """The rack on the conjugation orbit of ``seed`` under the group the generators generate.

    The operation is x |> y = x y x^-1.  Elements are ordered by one-line
    notation so the output is deterministic.
    """
    if any(g.n != seed.n for g in generators):
        raise ValueError("generator/seed size mismatch")
    orbit = {seed.image: seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = g * p * g.inverse()
                if q.image not in orbit:
                    if len(orbit) >= cap:
                        raise OrbitTooLargeError(f"orbit too large: exceeds cap {cap}")
                    orbit[q.image] = q
                    nxt.append(q)
        frontier = nxt
    elems = [orbit[key] for key in sorted(orbit)]
    index = {p.image: i for i, p in enumerate(elems)}
    op = tuple(
        tuple(index[(x * y * x.inverse()).image] for y in elems) for x in elems
    )
    return FiniteRack(op=op, labels=tuple(p.cycle_string() for p in elems))


def lift_to_order(q: RackCocycle, new_order: int) -> RackCocycle:
    """Rewrite q with values in the larger root-of-unity group of order new_order."""
    if new_order % q.order != 0:
        raise ValueError(f"{q.order} does not divide {new_order}")
    scale = new_order // q.order
    exp = tuple(tuple(e * scale for e in row) for row in q.exp.tolist())
    return RackCocycle(rack=q.rack, order=new_order, exp=exp)
