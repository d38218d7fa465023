"""Exact model of the double cover T_n of the symmetric group, on integer vectors.

T_n is realized inside the Clifford algebra on generators e_1..e_n with
e_i^2 = 1 and e_i e_j = -e_j e_i.  The lifted Coxeter generators are
t_i = g_i/sqrt(2) with g_i = e_i - e_{i+1}, and the central involution z is
the scalar -1.  No check expands an element in Clifford monomials: every
lift used here is a product of unit vectors a/sqrt(2), a an integer vector
with |a|^2 = 2, and is decided by integer arithmetic, with no floating
point.  The presentation is one Gram entry of the generator vectors per
relation; see verify_presentation.
The conjugation lemmas expand no lift either: conjugating a bracket by t_k
is an integer reflection of its vector, applied to a whole batch of words
at once, and a failure comes back with its first word and pair; see
verify_conjugation_lemmas.  Neither check is exponential in n.

The sign cocycle of the section expands no Clifford product.  Brackets
[i j] are unit vectors a/sqrt(2), built for all pairs at once by integer
reflections (_bracket_vectors), and every section value s(x) is a product
of such vectors: [i j] for a transposition, else t_{w_1} ... t_{w_l} along
the lex-smallest reduced word, read off the inversion code by
rack.lex_reduced_words.  For a pair (x, y), s(x)s(y) = z^bit s(xy) says
that V = s(x) s(y) rev(s(xy)) = (-1)^bit, and racktwist.pfaffian decides
the sign of such products exactly, by integer Pfaffians modulo primes, a
whole batch in one sweep; a product that is neither +1 nor -1 raises
SectionConsistencyError.  The twist table takes one such Pfaffian per
product xy and a Pfaffian of four vectors per pair; see
GroupCocycleBit.twist_table.  Only section words go to racktwist.pfaffian:
no closed form decides them.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from . import pfaffian
from .cocycle import TwistTable, chi_cocycle, twist
from .errors import SectionConsistencyError
from .rack import (Permutation, _first_occurrences, _pair_index, _row_keys, lex_reduced_words,
                   transposition_images, transposition_pairs, transposition_rack)

# Largest n for every command on x_n but hilbert.  No check expands a
# Clifford product: the twist table's Pfaffians have at most 4n - 8 vectors,
# and rack and cocycle check their axioms on every triple of the n(n - 1)/2
# elements in numpy.  At n = 20, selfcheck runs in 5.2 s, cover and twist-verify
# in 1.7 s, and rack, cocycle and cohomology in 0.3 s (Xeon, 2 vCPU, Python 3.11, numpy 2.4).
N_CAP = 20
# Largest n for the exhaustive verify_group_cocycle.
GROUP_COCYCLE_N_CAP = 5


# No check here multiplies Clifford elements: these two serve the test oracles and the benchmark tracer.
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


def generator_vectors(n: int) -> np.ndarray:
    """The (n - 1, n) integer vectors g_i = e_i - e_{i+1} of t_i = g_i/sqrt(2): the rows [i, i+1] of _bracket_vectors(n)."""
    letters = np.arange(1, n)
    return _bracket_vectors(n)[letters, letters + 1]


def verify_presentation(n: int, generators: np.ndarray | None = None) -> dict | None:
    """The first relation of the cover that fails on integer generator vectors, or None.

    Relations: t_i^2 = 1, (t_j t_{j+1})^3 = 1, (t_k t_l)^2 = z for k <= l-2,
    z^2 = 1, and z central.  Here t_i = g_i/sqrt(2) with g_i row i - 1 of
    generators, generator_vectors(n) by default, and each relation is one
    entry of the Gram matrix <g_i, g_j>.  t_i^2 = <g_i, g_i>/2, so the first
    relation is the diagonal equal to 2; it is checked first, because the
    other two entries decide their relations for unit vectors only.  For
    unit vectors u, v with c = <u, v>, uv + vu = 2c gives
      (uv)^2 = 2c uv - 1  and  (uv)^3 = (4c^2 - 1) uv - 2c,
    and uv is a scalar only when u = +-v.  So (uv)^3 = 1 exactly when c is
    1 or -1/2 (Gram entry 2 or -1), and (uv)^2 = -1 = z exactly when c = 0.
    z is the scalar -1, so z^2 = 1 and z central hold by construction.  The
    witness names the relation ("square", "braid" or "far") and its
    generators t_i by i, in the order above, far pairs in lexicographic order.
    """
    if not 2 <= n <= N_CAP:
        raise ValueError(f"n must be in 2..{N_CAP}, got {n}")
    if generators is None:
        generators = generator_vectors(n)
    gram = generators @ generators.T
    bad = np.flatnonzero(np.diag(gram) != 2)
    if bad.size:
        return {"relation": "square", "letters": [int(bad[0]) + 1]}
    bad = np.flatnonzero(~np.isin(np.diag(gram, 1), (2, -1)))
    if bad.size:
        return {"relation": "braid", "letters": [int(bad[0]) + 1, int(bad[0]) + 2]}
    k, l = np.nonzero(np.triu(gram, 2))  # row-major, so in lexicographic order
    if k.size:
        return {"relation": "far", "letters": [int(k[0]) + 1, int(l[0]) + 1]}
    return None


def _bracket_vectors(n: int) -> np.ndarray:
    """vectors[i, j] = a with [i j] = a/sqrt(2), for every ordered pair; row 0 and the diagonal are zero.

    [i, i+1] = t_i = g_i/sqrt(2) with g_i = e_i - e_{i+1}; for i+1 < j,
    [i j] = (t_i |> [i+1, j]) z, which reflects a = a' - <g_i, a'> g_i with
    a' the vector of [i+1, j]; and [j i] = [i j] z = -[i j].  Row i takes
    one step, from i = n-2 down to 1.
    """
    vectors = np.zeros((n + 1, n + 1, n), dtype=np.int64)
    letters = np.arange(1, n)
    vectors[letters, letters + 1, letters - 1], vectors[letters, letters + 1, letters] = 1, -1
    for i in range(n - 2, 0, -1):
        g, above = vectors[i, i + 1], vectors[i + 1, i + 2:]
        vectors[i, i + 2:] = above - (above @ g)[:, None] * g
    return vectors - vectors.transpose(1, 0, 2)


def _unit_bracket_vectors(n: int) -> np.ndarray:
    """_bracket_vectors(n), or SectionConsistencyError naming the first ordered pair whose |a|^2 is not 2."""
    vectors = _bracket_vectors(n)
    norms = np.einsum("ijc,ijc->ij", vectors, vectors)[1:, 1:]
    bad = np.argwhere((norms != 2) & ~np.eye(n, dtype=bool))
    if bad.size:
        i, j = bad[0] + 1
        raise SectionConsistencyError(f"[{i} {j}] = {vectors[i, j].tolist()}/sqrt(2) is not a unit vector")
    return vectors


# Random conjugation words decided at once; bounds the (chunk, 20) letter
# array however many trials are asked for.
_LEMMA_CHUNK = 1024
_MAX_WORD_LENGTH = 20


def _uniform(getrandbits, bound: int, count: int) -> np.ndarray:
    """count values uniform in 0..bound-1: w-bit fields of getrandbits blocks, w = (bound - 1).bit_length(), with rejection.

    For the need values still missing a block holds 2 * need fields, read
    from the lowest bits up; fields below bound are kept, the rest and any
    values past count are dropped.
    """
    width = (bound - 1).bit_length()
    powers = 1 << np.arange(width, dtype=np.int64)
    out = np.empty(0, dtype=np.int64)
    while out.size < count:
        fields = 2 * (count - out.size)
        block = np.frombuffer(getrandbits(width * fields).to_bytes((width * fields + 7) // 8, "little"), dtype=np.uint8)
        values = np.unpackbits(block, bitorder="little")[: width * fields].reshape(fields, width) @ powers
        out = np.concatenate([out, values[values < bound]])
    return out[:count]


def _lemma_draws(getrandbits, n: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One chunk of random trials of verify_conjugation_lemmas: (words, lengths, i, j), words padded with 0."""
    lengths = _uniform(getrandbits, _MAX_WORD_LENGTH + 1, size)
    words = np.zeros((size, lengths.max()), dtype=np.intp)
    words[np.arange(words.shape[1]) < lengths[:, None]] = _uniform(getrandbits, n - 1, int(lengths.sum())) + 1
    a, b = np.divmod(_uniform(getrandbits, n * (n - 1), size), n - 1)
    return words, lengths, a + 1, b + 1 + (b >= a)


def verify_conjugation_lemmas(n: int, trials: int = 1000, seed: int = 0) -> dict | None:
    """Exhaustively check s_k |> [i j] = [s_k(i) s_k(j)] z, then random-word conjugation.

    The random part conjugates [i j] by lifts of arbitrary generator words of
    length l <= 20 (not necessarily reduced) and checks the result is
    [w(i) w(j)] z^l, with z^l depending only on the parity of l.  Returns
    the first failure, or None: its word (the letters k of t_k, [k] in the
    exhaustive part) and its ordered pair [i, j].

    No lift is expanded.  Every bracket is a unit vector v/sqrt(2), v read
    off _bracket_vectors, and t_k = [k, k+1] = g/sqrt(2).  For unit vectors
    sqrt(2) t_k (v/sqrt(2)) t_k^-1 = <g, v> g - v, so conjugating by
    t_{w_1} ... t_{w_l} is l such integer maps of v, from the last letter to
    the first, and the result must equal (-1)^l times the vector of
    [w(i) w(j)] exactly.  The exhaustive part is every letter against every
    pair, as words of one letter; the random words come in chunks of
    _LEMMA_CHUNK, each decided as one (chunk, n) array.  A chunk draws in
    bulk from the getrandbits of random.Random(seed), by _uniform
    (_lemma_draws): first the chunk's lengths in 0..20, then all its letters
    in 1..n-1, word after word, then one index per word in 0..n(n-1)-1 of
    its ordered pair (i, j), with i = index // (n-1) + 1 and j the
    (index % (n-1) + 1)-th point other than i.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    vectors = _unit_bracket_vectors(n)
    # letter 0 pads a short word: it conjugates by nothing and fixes every point
    letters = np.arange(1, n)
    gens = np.zeros((n, n), dtype=np.int64)
    gens[letters] = vectors[letters, letters + 1]
    swaps = np.tile(np.arange(n + 1), (n, 1))
    swaps[letters, letters], swaps[letters, letters + 1] = letters + 1, letters

    def first_failure(words: np.ndarray, lengths: np.ndarray, i: np.ndarray, j: np.ndarray) -> dict | None:
        v = vectors[i, j]
        a, b = i, j
        for letter in words.T[::-1]:
            g = gens[letter]
            dot = np.einsum("tc,tc->t", g, v)
            v = np.where((letter > 0)[:, None], dot[:, None] * g - v, v)
            a, b = swaps[letter, a], swaps[letter, b]
        want = vectors[a, b]
        want[lengths % 2 == 1] *= -1
        bad = np.flatnonzero(np.any(v != want, axis=1))
        if not bad.size:
            return None
        t = int(bad[0])
        return {"word": words[t, : lengths[t]].tolist(), "pair": [int(i[t]), int(j[t])]}

    i, j = np.nonzero(~np.eye(n, dtype=bool))  # every ordered pair, in lexicographic order
    i, j = np.tile(i + 1, n - 1), np.tile(j + 1, n - 1)
    witness = first_failure(np.repeat(letters, n * (n - 1))[:, None], np.ones(len(i), dtype=np.intp), i, j)
    getrandbits = random.Random(seed).getrandbits
    done = 0
    while witness is None and done < trials:
        size = min(_LEMMA_CHUNK, trials - done)
        done += size
        witness = first_failure(*_lemma_draws(getrandbits, n, size))
    return witness


class SectionCache:
    """Deterministic section s: S_n -> T_n with s(id) = 1 and s((i j)) = [i j].

    Every value of s is a product of brackets, which are unit vectors:
    `vectors[v]` is the integer vector a with [i j] = a/sqrt(2) for the v-th
    pair (i, j) of transposition_pairs(n), read off _bracket_vectors(n), and
    `gram` holds their inner products.  Non-transpositions lift along their
    lexicographically smallest reduced word as t_{w_1} ... t_{w_l}, with
    t_w = [w, w+1].  words() gives the vector words of many permutations at
    once; section(sigma) returns one such word, memoised.  No Clifford
    product is expanded.
    """

    def __init__(self, n: int):
        self.n = n
        pairs = transposition_pairs(n)
        self._adjacent = _pair_index(np.arange(n - 1), np.arange(1, n), n)
        self.vectors = _unit_bracket_vectors(n)[tuple(np.array(pairs).T)]
        self.gram = self.vectors @ self.vectors.T
        self._memo: dict[tuple[int, ...], tuple[int, ...]] = {}

    def words(self, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The vector words of s(sigma) for the one-line images (B, n), as a ragged array (values, lengths)."""
        n = self.n
        letters, lengths = lex_reduced_words(images)
        moved = images != np.arange(1, n + 1)
        swap = np.count_nonzero(moved, axis=1) == 2  # a transposition (i j) lifts to the bracket [i j]
        i = np.argmax(moved[swap], axis=1)
        j = n - 1 - np.argmax(moved[swap, ::-1], axis=1)
        lex = (self._adjacent[letters[np.repeat(~swap, lengths)] - 1], np.where(swap, 0, lengths))
        brackets = (_pair_index(i, j, n), swap.astype(np.intp))
        return pfaffian.ragged_concat([lex, brackets])

    def section(self, sigma: Permutation) -> tuple[int, ...]:
        """The vector word of s(sigma): s(sigma) is the product of the named unit vectors."""
        if sigma.n != self.n:
            raise ValueError("size mismatch")
        word = self._memo.get(sigma.image)
        if word is None:
            values, _ = self.words(np.array([sigma.image]))
            word = self._memo[sigma.image] = tuple(values.tolist())
        return word

    def phi_bit(self, x: Permutation, y: Permutation) -> int:
        """The sign bit in s(x)s(y) = z^bit s(xy); raises if neither sign matches.

        The bit is the sign of s(x) s(y) rev(s(xy)), a product of vectors.
        """
        bit = int(self.word_bits([self.section(x) + self.section(y) + self.section(x * y)[::-1]])[0])
        if bit < 0:
            raise _inconsistent(x, y)
        return bit

    def word_bits(self, words: list[tuple[int, ...]]) -> np.ndarray:
        """The sign bits of many vector words (0, 1, or -1 for neither), by pfaffian.word_bits."""
        values = np.fromiter(itertools.chain.from_iterable(words), dtype=np.intp)
        lengths = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
        return pfaffian.word_bits(self.gram, values, lengths)


def _inconsistent(x: Permutation, y: Permutation) -> SectionConsistencyError:
    return SectionConsistencyError(
        f"s(x)s(y) is not +/- s(xy) for x={x.cycle_string()}, y={y.cycle_string()}"
    )


class GroupCocycleBit:
    """The Z/2-valued group 2-cocycle of the section, evaluated lazily."""

    def __init__(self, n: int):
        self.n = n
        self.sections = SectionCache(n)

    def twist_table(self) -> TwistTable:
        """The restriction to transposition pairs, as an order-2 twist table.

        Pairs (x, y) are grouped by their product sigma.  The first pair
        (x0, y0) of each group in row-major order takes its bit from the word
        s(sigma) [y0] [x0], the reverse of [x0] [y0] rev(s(sigma)) and so of
        the same sign; SectionCache.words reads every s(sigma) off the
        inversion codes at once, and one pfaffian.word_bits sweep decides all
        those words.  Every other pair adds the sign of [x][y][y0][x0] =
        z^(bit + bit0), a Pfaffian of four vectors.
        """
        n, sections = self.n, self.sections
        pairs = transposition_pairs(n)
        k = len(pairs)
        images = np.zeros((k, n + 1), dtype=np.int8)  # column 0 pads, so a value is its own column
        images[:, 1:] = transposition_images(n) + 1
        # (x y)(m) = x(y(m)), for all k^2 pairs in row-major order
        products = images[np.arange(k)[:, None, None], images[None, :, 1:]].reshape(k * k, n)
        # equal products are adjacent in a stable order of their bytes, led by their first pair
        order, leads = _first_occurrences(_row_keys(products))
        group = np.empty(k * k, dtype=np.intp)
        group[order] = np.cumsum(leads) - 1
        first = order[leads]
        x0, y0 = np.divmod(first, k)
        ones = np.ones(len(first), dtype=np.intp)
        words = pfaffian.ragged_concat([sections.words(products[first]), (y0, ones), (x0, ones)])
        ref_bits = pfaffian.word_bits(sections.gram, *words)
        x0, y0, ref_bits = x0[group], y0[group], ref_bits[group]
        x, y = np.divmod(np.arange(k * k), k)
        gram = sections.gram
        pf = gram[x, y] * gram[y0, x0] - gram[x, y0] * gram[y, x0] + gram[x, x0] * gram[y, y0]
        bad = np.flatnonzero((np.abs(pf) != 4) | (ref_bits < 0))
        if bad.size:
            a, b = divmod(int(bad[0]), k)
            raise _inconsistent(Permutation.transposition(n, *pairs[a]), Permutation.transposition(n, *pairs[b]))
        return TwistTable(rack=transposition_rack(n), order=2, phi=(ref_bits ^ (pf == -4)).reshape(k, k))


def phi_psi_table(n: int) -> GroupCocycleBit:
    """The sign-valued group cocycle attached to the section, for S_n with n >= 3."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return GroupCocycleBit(n)


def _group_table(gc: GroupCocycleBit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S_n in lexicographic order (one-line images), its multiplication table and the full bit table.

    The words s(x) s(y) rev(s(xy)) of all n!^2 pairs are put together from
    the section words of S_n (SectionCache.words) and decided in one batch.
    """
    n, sections = gc.n, gc.sections
    images = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    size = len(images)
    # lexicographic order, so the base-(n+1) codes of the images ascend
    weights = (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    products = images[np.arange(size)[:, None, None], images[None, :, :] - 1]
    mult = np.searchsorted(images @ weights, products @ weights).astype(np.int32)
    values, lengths = sections.words(images)
    rows, cols = np.divmod(np.arange(size * size), size)
    backwards = (values[::-1], lengths[::-1])  # every word reversed, in reverse order
    bits = pfaffian.word_bits(sections.gram, *pfaffian.ragged_concat([
        pfaffian.ragged_take(values, lengths, rows),
        pfaffian.ragged_take(values, lengths, cols),
        pfaffian.ragged_take(*backwards, size - 1 - mult.ravel()),
    ])).reshape(size, size)
    bad = np.flatnonzero(bits < 0)
    if bad.size:
        a, b = divmod(int(bad[0]), size)
        raise _inconsistent(Permutation(tuple(images[a].tolist())), Permutation(tuple(images[b].tolist())))
    return images, mult, bits


def verify_group_cocycle(gc: GroupCocycleBit) -> dict | None:
    """Exhaustive check of bit(x,y)+bit(xy,z) == bit(x,yz)+bit(y,z) mod 2 over S_n.

    Returns the first failing triple in lexicographic order, or None, as
    the one-line images {"x": ..., "y": ..., "z": ...}.
    Materializes the full n! x n! bit table, so n is capped (n! triples grow
    as (n!)^3; n = 5 means 1.728M triples).
    """
    if gc.n > GROUP_COCYCLE_N_CAP:
        raise ValueError(f"exhaustive group-cocycle check capped at n={GROUP_COCYCLE_N_CAP}")
    images, mult, bits = _group_table(gc)
    size = len(images)
    x = np.arange(size)[:, None, None]
    y = np.arange(size)[None, :, None]
    z = np.arange(size)[None, None, :]
    bad = np.flatnonzero(bits[x, y] ^ bits[mult[x, y], z] ^ bits[x, mult[y, z]] ^ bits[y, z])
    if not bad.size:
        return None
    triple = np.unravel_index(bad[0], (size,) * 3)
    return {name: images[t].tolist() for name, t in zip("xyz", triple)}


def verify_main_theorem(n: int, phi: TwistTable | None = None) -> dict | None:
    """Check the twist identity: chi twisted by phi is the constant cocycle -1.

    phi defaults to GroupCocycleBit(n).twist_table().  The twisted exponent
    phi(sigma, tau) - phi(sigma|>tau, sigma) + chi(sigma, tau) of every
    ordered pair of transpositions must be 1 mod 2 (cocycle.twist).  Returns
    the first failing pair in row-major order, or None: its sigma, tau, the
    two phi bits, the chi bit and ok.  ValueError if phi is
    not an order-2 table on the transposition rack of S_n.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if phi is None:
        phi = GroupCocycleBit(n).twist_table()
    chi = chi_cocycle(n)
    bad = np.flatnonzero(twist(chi, phi).exp != 1)
    if not bad.size:
        return None
    a, b = divmod(int(bad[0]), chi.rack.size)
    pairs = transposition_pairs(n)
    return {
        "sigma": str(pairs[a]),
        "tau": str(pairs[b]),
        "phi_bits": [int(phi.phi[a, b]), int(phi.phi[chi.rack.op[a, b], a])],
        "chi_bit": int(chi.exp[a, b]),
        "ok": False,
    }
