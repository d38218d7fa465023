"""Exact model of the double cover T_n of the symmetric group.

T_n is realized inside the Clifford algebra on generators e_1..e_n with
e_i^2 = 1 and e_i e_j = -e_j e_i.  The lifted Coxeter generators are
t_i = (e_i - e_{i+1})/sqrt(2), so every element built from them is an
integer combination of basis monomials times a power of 1/sqrt(2); an
element stores those integer coefficients and the one exponent.  The
central involution z is the scalar -1.  Group equality, products, and the
sign cocycle of a section are all decided by integer arithmetic, with no
floating point.  Section values are memoised by a SectionCache; the group
cocycle of phi_psi_table owns one and reads every sign bit from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cocycle import TwistTable, chi_cocycle, twist
from .errors import SectionConsistencyError
from .rack import Permutation, transposition_pairs, transposition_rack

# Coefficient masks carry one bit per generator; elements of the cover have
# at most 2^(n-1) terms, so n is capped to keep elements a few MB at most.
DEFAULT_N_CAP = 12
# Largest n for the exhaustive verify_group_cocycle.
GROUP_COCYCLE_N_CAP = 5


def _below_parity_mask(t: int, n: int) -> int:
    """Bit a is set iff the mask t has an odd number of generators below index a.

    Ordering e_s e_t takes one swap per pair (a in s, b in t) with a > b, so
    the sign of e_s e_t is the parity of popcount(s & _below_parity_mask(t, n)).
    """
    x = t << 1
    shift = 1
    while shift < n:
        x ^= x << shift
        shift <<= 1
    return x


class CliffordElement:
    """The element 2^(-k/2) * sum_S c_S e_S, S a subset mask of {1..n}.

    Basis monomials are products of generators in increasing index order;
    multiplication tracks the anticommutation sign and e_i^2 = 1.  The
    coefficients c_S are integers and zero coefficients are never stored.
    The form is canonical: while k >= 2 and every coefficient is even, the
    coefficients are halved and k drops by 2 (zero has k = 0).  Since
    sqrt(2) is irrational, two elements are equal exactly when their k and
    their coefficients agree.
    """

    __slots__ = ("n", "terms", "k")

    def __init__(self, n: int, terms: dict[int, int], k: int = 0):
        if k < 0:
            raise ValueError(f"exponent of 1/sqrt(2) must be >= 0, got {k}")
        terms = {m: c for m, c in terms.items() if c}
        if not terms:
            k = 0
        elif k >= 2:
            common = 0
            for c in terms.values():
                common |= c
            halvings = min((common & -common).bit_length() - 1, k >> 1)
            if halvings:
                terms = {m: c >> halvings for m, c in terms.items()}
                k -= 2 * halvings
        self.n = n
        self.terms = terms
        self.k = k

    @staticmethod
    def scalar(n: int, c: int) -> CliffordElement:
        return CliffordElement(n, {0: c})

    @staticmethod
    def one(n: int) -> CliffordElement:
        return CliffordElement.scalar(n, 1)

    def __neg__(self) -> CliffordElement:
        return CliffordElement(self.n, {m: -c for m, c in self.terms.items()}, self.k)

    def __mul__(self, other: CliffordElement) -> CliffordElement:
        self._check(other)
        acc: dict[int, int] = {}
        get = acc.get
        left = self.terms.items()
        # the right factor is usually the short one (a generator or a bracket)
        for t, ct in other.terms.items():
            below = _below_parity_mask(t, self.n)
            for s, cs in left:
                m = s ^ t
                if (s & below).bit_count() & 1:
                    acc[m] = get(m, 0) - cs * ct
                else:
                    acc[m] = get(m, 0) + cs * ct
        return CliffordElement(self.n, acc, self.k + other.k)

    def reverse(self) -> CliffordElement:
        """The anti-automorphism reversing products of generators."""
        out = {}
        for m, c in self.terms.items():
            g = m.bit_count()
            out[m] = -c if (g * (g - 1) // 2) & 1 else c
        return CliffordElement(self.n, out, self.k)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CliffordElement)
            and self.n == other.n
            and self.k == other.k
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.k, frozenset(self.terms.items())))

    def _check(self, other: CliffordElement) -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            mono = "".join(f"e{i + 1}" for i in range(self.n) if m >> i & 1) or "1"
            bits.append(f"{self.terms[m]}*{mono}")
        body = " + ".join(bits)
        return body if self.k == 0 else f"2^(-{self.k}/2)*({body})"


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


def _unnormalized_generator(n: int, i: int) -> SpinElement:
    """Deliberately corrupted generator (e_i - e_{i+1}); t_i^2 = 2 fails. Test hook."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range 1..{n - 1}")
    elem = CliffordElement(n, {1 << (i - 1): 1, 1 << i: -1})
    return SpinElement(elem, Permutation.adjacent(n, i))


def verify_presentation(n: int, generator=generator_t) -> bool:
    """Check every defining relation of the cover exactly in the Clifford model.

    Relations: t_i^2 = 1, (t_j t_{j+1})^3 = 1, (t_k t_l)^2 = z for k <= l-2,
    z^2 = 1, and z central.
    """
    if not 2 <= n <= DEFAULT_N_CAP:
        raise ValueError(f"n must be in 2..{DEFAULT_N_CAP}, got {n}")
    one = SpinElement.one(n)
    z = SpinElement.z(n)
    ts = [generator(n, i) for i in range(1, n)]
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


_BRACKETS: dict[tuple[int, int, int], SpinElement] = {}


def bracket(n: int, i: int, j: int) -> SpinElement:
    """The distinguished lift [i j] of the transposition (i j), memoised on (n, i, j).

    [i, i+1] = t_i; for i+1 < j, [i j] = (t_i |> [i+1, j]) * z; and
    [j i] = [i j] * z for i < j.
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


def verify_conjugation_lemmas(n: int, trials: int = 1000, seed: int = 0) -> bool:
    """Exhaustively check s_k |> [i j] = [s_k(i) s_k(j)] z, then random-word conjugation.

    The random part conjugates [i j] by lifts of arbitrary generator words of
    length l <= 20 (not necessarily reduced) and checks the result is
    [w(i) w(j)] z^l, with z^l depending only on the parity of l.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    brackets = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b:
                brackets[(a, b)] = bracket(n, a, b)
    ts = [generator_t(n, i) for i in range(1, n)]
    for sk in ts:
        swap = sk.perm
        for (a, b), br in brackets.items():
            expected = brackets[(swap(a), swap(b))].times_z()
            if sk.conj(br) != expected:
                return False
    rng = random.Random(seed)
    for _ in range(trials):
        l = rng.randint(0, 20)
        word = [rng.randint(1, n - 1) for _ in range(l)]
        lift = SpinElement.one(n)
        for i in word:
            lift = lift * ts[i - 1]
        a = rng.randint(1, n)
        b = rng.randint(1, n - 1)
        if b >= a:
            b += 1
        got = lift.conj(brackets[(a, b)])
        expected = brackets[(lift.perm(a), lift.perm(b))]
        if l % 2 == 1:
            expected = expected.times_z()
        if got != expected:
            return False
    return True


class SectionCache:
    """Deterministic section s: S_n -> T_n with s(id) = 1 and s((i j)) = [i j].

    Non-transpositions lift along their lexicographically smallest reduced
    word, so the section (and hence the sign cocycle it defines) is
    reproducible.  The lift is the left-to-right product t_{w_1} ... t_{w_l}
    of Clifford elements.  One stack holds the prefix lifts of the last word
    lifted; a new word keeps the prefix it shares with that word and
    multiplies only its remaining letters.  The stack is at most one word
    long, so memory stays flat however many sections are lifted.
    """

    def __init__(self, n: int):
        self.n = n
        self._memo: dict[tuple[int, ...], SpinElement] = {}
        self._gens = [generator_t(n, i).elem for i in range(1, n)]
        self._word: tuple[int, ...] = ()
        self._prefix = [CliffordElement.one(n)]  # _prefix[j] lifts _word[:j]

    def section(self, sigma: Permutation) -> SpinElement:
        if sigma.n != self.n:
            raise ValueError("size mismatch")
        cached = self._memo.get(sigma.image)
        if cached is not None:
            return cached
        pair = sigma.transposition_pair()
        if sigma.is_identity():
            s = SpinElement.one(self.n)
        elif pair is not None:
            s = bracket(self.n, pair[0], pair[1])
        else:
            s = SpinElement(self._lift(sigma.lex_reduced_word()), sigma)
        self._memo[sigma.image] = s
        return s

    def _lift(self, word: tuple[int, ...]) -> CliffordElement:
        """The product of the generators along word, reusing the stacked shared prefix."""
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
        raise SectionConsistencyError(
            f"s(x)s(y) is not +/- s(xy) for x={x.cycle_string()}, y={y.cycle_string()}"
        )


class GroupCocycleBit:
    """The Z/2-valued group 2-cocycle of the section, evaluated lazily."""

    def __init__(self, n: int):
        self.n = n
        self._cache = SectionCache(n)

    def bit(self, x: Permutation, y: Permutation) -> int:
        return self._cache.phi_bit(x, y)

    def twist_table(self) -> TwistTable:
        """The restriction to transposition pairs, as an order-2 twist table."""
        rack = transposition_rack(self.n)
        perms = [Permutation.transposition(self.n, i, j) for i, j in transposition_pairs(self.n)]
        phi_tab = tuple(
            tuple(self.bit(sx, sy) for sy in perms) for sx in perms
        )
        return TwistTable(rack=rack, order=2, phi=phi_tab)


def phi_psi_table(n: int) -> GroupCocycleBit:
    """The sign-valued group cocycle attached to the section, for S_n with n >= 3."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return GroupCocycleBit(n)


def verify_group_cocycle(gc: GroupCocycleBit) -> bool:
    """Exhaustive check of bit(x,y)+bit(xy,z) == bit(x,yz)+bit(y,z) mod 2 over S_n.

    Materializes the full n! x n! bit table, so n is capped (n! triples grow
    as (n!)^3; n = 5 means 1.728M triples).
    """
    import itertools

    import numpy as np

    if gc.n > GROUP_COCYCLE_N_CAP:
        raise ValueError(f"exhaustive group-cocycle check capped at n={GROUP_COCYCLE_N_CAP}")
    perms = [Permutation(img) for img in itertools.permutations(range(1, gc.n + 1))]
    index = {p.image: i for i, p in enumerate(perms)}
    size = len(perms)
    mult = np.empty((size, size), dtype=np.int32)
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            mult[a, b] = index[(pa * pb).image]
    bits = np.empty((size, size), dtype=np.int8)
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            bits[a, b] = gc.bit(pa, pb)
    x = np.arange(size)[:, None, None]
    y = np.arange(size)[None, :, None]
    z = np.arange(size)[None, None, :]
    xy = mult[x, y]
    yz = mult[y, z]
    lhs = bits[x, y] + bits[xy, z]
    rhs = bits[x, yz] + bits[y, z]
    return bool(np.all((lhs - rhs) % 2 == 0))


def verify_main_theorem(n: int, phi: TwistTable | None = None) -> tuple[bool, dict | None]:
    """Check the twist identity: chi twisted by phi is the constant cocycle -1.

    phi defaults to GroupCocycleBit(n).twist_table().  The twisted exponent
    phi(sigma, tau) - phi(sigma|>tau, sigma) + chi(sigma, tau) of every
    ordered pair of transpositions must be 1 mod 2 (cocycle.twist).  Returns
    the verdict and the first failing pair in row-major order, or None: its
    sigma, tau, the two phi bits, the chi bit and ok.  ValueError if phi is
    not an order-2 table on the transposition rack of S_n.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if phi is None:
        phi = GroupCocycleBit(n).twist_table()
    chi = chi_cocycle(n)
    twisted = twist(chi, phi).exp
    bad = next(((a, b) for a, row in enumerate(twisted) for b, e in enumerate(row) if e != 1), None)
    if bad is None:
        return True, None
    a, b = bad
    pairs = transposition_pairs(n)
    return False, {
        "sigma": str(pairs[a]),
        "tau": str(pairs[b]),
        "phi_bits": [phi.phi[a][b], phi.phi[chi.rack.op[a][b]][a]],
        "chi_bit": chi.exp[a][b],
        "ok": False,
    }
