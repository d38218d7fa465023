"""Independent oracles used to freeze expected values.

Everything here recomputes results from first principles, sharing only type
definitions with the package: dense rational elimination for ranks, dense
matrix products for braid lifts, alternative reduced-word generators, plain
triple loops for the cocycle and twist conditions, and a Clifford algebra
over the field Q(sqrt(2)) with rational coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from racktwist.cocycle import GaugeFunction, RackCocycle, TwistTable
from racktwist.rack import FiniteRack, Permutation, rack_to_dict


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
    return GaugeFunction(gamma.rack, gamma.order, tuple((-e) % gamma.order for e in gamma.g))


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


def cocycle_first_failure(q: RackCocycle) -> tuple[int, int, int] | None:
    """The first triple (x, y, z), in lexicographic order, that breaks the rack 2-cocycle condition."""
    op, exp, m, k = q.rack.op, q.exp, q.order, q.rack.size
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
    op, p, m, k = phi.rack.op, phi.phi, phi.order, phi.rack.size
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


def _dense_strand(q, degree: int, letter: int, value) -> np.ndarray:
    """Dense monomial matrix of the strand-local braiding, entry value(exponent)."""
    k = q.rack.size
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
        digits[letter - 1], digits[letter] = q.rack.op[x][y], x
        w = 0
        for d in digits:
            w = w * k + d
        mat[w, v] = value(q.exp[x][y])
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


def inverse_operator(op):
    """The inverse of a MonomialOperator: v -> target[v] with zeta^expo[v] undone."""
    from racktwist.braided import MonomialOperator

    inv = np.empty(op.dim, dtype=np.int64)
    inv[op.target] = np.arange(op.dim, dtype=np.int64)
    return MonomialOperator(op.dim, op.order, inv, (-op.expo[inv]) % op.order)


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
    k = q.rack.size
    edges = []
    for v in range(k**degree):
        digits = [v // k ** (degree - 1 - i) % k for i in range(degree)]
        for i in range(degree - 1):
            w = list(digits)
            w[i], w[i + 1] = q.rack.op[digits[i]][digits[i + 1]], digits[i]
            edges.append((v, sum(d * k ** (degree - 1 - j) for j, d in enumerate(w))))
    return _components(k**degree, edges)


def translation_classes(q, degree: int) -> list[int]:
    """Classes of braid orbits under the translations g_x that commute with the braiding.

    g_x sends basis y to q(x, y) (x |> y); it is kept when it permutes X and
    c (g_x (x) g_x) = (g_x (x) g_x) c on every y (x) z, both sides compared as
    (basis pair, exponent).  Orbits are numbered as in hurwitz_orbits; entry
    i is the number of the smallest orbit that the kept translations
    connect to orbit i.
    """
    k, m, op, ex = q.rack.size, q.order, q.rack.op, q.exp
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
            gens.append(phi)
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


def orbit_blocks_modp(sym, p: int, g: int) -> list[np.ndarray]:
    """The dense diagonal block of every braid orbit mod p with zeta mapped to g (orbit_count_blocks)."""
    return [evaluate_modp(block, p, g) for block in orbit_count_blocks(sym)]


def support_components(sym) -> list[tuple[int, ...]]:
    """Connected components of the support graph of a square SymmetrizerMatrix (rows = cols)."""
    edges = [(int(r), int(c)) for r, c in zip(sym.entries.row, sym.entries.col)]
    return _components(sym.dim, edges)


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
    exp = tuple(tuple(e * scale for e in row) for row in q.exp)
    return RackCocycle(rack=q.rack, order=new_order, exp=exp)
