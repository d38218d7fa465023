"""Signs of products of unit vectors, decided by integer Pfaffians modulo primes.

A word names integer vectors a_1 .. a_N with |a_i|^2 = 2 and stands for the
Clifford product V of the unit vectors a_i/sqrt(2), in that order.  By
Wick's theorem the scalar part of V is the Pfaffian of the skew matrix
(<a_i, a_j>/2)_{i<j}; with A = (<a_i, a_j>)_{i<j}, integral, Pf(A) =
2^(N/2) <V>_0.  Since V rev(V) = 1, the squares of the coefficients of V sum
to 1, so |Pf(A)| <= 2^(N/2), with equality exactly when V = +-1.  Pf(A) is
computed modulo fixed primes below 2^30 whose product exceeds 2^(N/2 + 1)
(one prime while N <= 56): if every residue is e * 2^(N/2) with the same
sign e, then V = e exactly.  Odd words are never +-1.

Words are ragged arrays (values, lengths): the words one after another, and
their lengths.  A batch of any lengths is sorted longest first and decided
by one shrinking Schur-complement sweep per chunk and prime; see word_bits.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionCapError

# The largest primes below 2^30, descending; a Pfaffian of N vectors is
# decided by the first few whose product exceeds 2^(N/2 + 1).
_PRIMES = (
    1073741789, 1073741783, 1073741741, 1073741723, 1073741719, 1073741717,
    1073741689, 1073741671, 1073741663, 1073741651, 1073741621, 1073741567,
)
# A sweep holds at most this many int64 entries: the words of a chunk, longest
# first, right-aligned in a (B, M, M) array with M the longest length.
_BATCH_ENTRIES = 1 << 15


def _primes_for(size: int) -> tuple[int, ...]:
    """The first _PRIMES whose product exceeds 2^(size/2 + 1)."""
    bound, product = 1 << (size // 2 + 1), 1
    for count, p in enumerate(_PRIMES, 1):
        product *= p
        if product > bound:
            return _PRIMES[:count]
    raise DimensionCapError(f"a Pfaffian of {size} vectors needs more than {len(_PRIMES)} primes")


def _pfaffian_signs_modp(a: np.ndarray, sizes: np.ndarray, p: int) -> np.ndarray:
    """The sign e with Pf = e * 2^(N/2) mod p, or 0 for neither, for a ragged batch of skew matrices.

    Member b of a (B, M, M) is its trailing block of side N = sizes[b]; the
    sizes are even and descending, M = sizes[0], and entries lie in (-p, p).
    Eliminating the leading pair (0, 1) of a block with the pivot b = a[0, 1]
    leaves the trailing block T = b * (Schur complement), with Pf(a) =
    b * Pf(T) / b^(N/2 - 1).  So Pf(a) = num / den with num the product of
    the pivots b_1..b_{N/2} and den the product of the running products
    b_1...b_j for j < N/2.  The sweep shrinks the trailing block of every
    member at once, and a member joins when the block side reaches its N, so
    the batch takes M/2 steps.  A zero pivot is first replaced by the first
    nonzero entry of row 0, swapping index 1 with its column, which negates
    the Pfaffian; a zero row makes Pf(a) = 0 mod p.  With p < 2^30 the three
    products of an update sum below 3p^2 < 2^62, so int64 stays exact, and
    each step reduces with np.fmod, which keeps entries in (-p, p).
    """
    batch, top = a.shape[0], a.shape[1]
    target = np.array([pow(2, half, p) for half in range(top // 2 + 1)], dtype=np.int64)[sizes // 2]
    prefix = np.ones(batch, dtype=np.int64)
    den = np.ones(batch, dtype=np.int64)
    negate = np.zeros(batch, dtype=bool)
    zero = np.zeros(batch, dtype=bool)
    for side in range(top, 0, -2):
        count = np.count_nonzero(sizes >= side)  # the members that have joined
        block = a[:count, top - side:, top - side:]
        need = np.flatnonzero(block[:, 0, 1] == 0)
        if need.size:
            col = np.argmax(block[need, 0] != 0, axis=1)  # 0 when row 0 is zero, as a[0, 0] = 0
            zero[need[col == 0]] = True
            swap, col = need[col > 1], col[col > 1]
            if swap.size:
                row = block[swap, 1]
                block[swap, 1] = block[swap, col]
                block[swap, col] = row
                row = block[swap, :, 1]
                block[swap, :, 1] = block[swap, :, col]
                block[swap, :, col] = row
                negate[swap] ^= True
        pivot = np.where(zero[:count], 1, block[:, 0, 1])
        outer = block[:, 1, 2:, None] * block[:, 0, None, 2:]
        block = block[:, 2:, 2:]  # the trailing block is updated in place
        block *= pivot[:, None, None]
        block += outer
        block -= outer.transpose(0, 2, 1)
        np.fmod(block, p, out=block)
        prefix[:count] = prefix[:count] * pivot % p
        if side > 2:
            den[:count] = den[:count] * prefix[:count] % p
    num = np.where(negate, p - prefix, prefix)
    sign = np.where(num == target * den % p, 1, 0)
    sign[num == (p - target) * den % p] = -1
    sign[zero] = 0
    return sign


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions starts[r], starts[r] + 1, ..., starts[r] + lengths[r] - 1 of every row r, in order."""
    return np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)


def ragged_take(values: np.ndarray, lengths: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the ragged array (values, lengths) named by rows."""
    starts = np.cumsum(lengths) - lengths
    return values[_spans(starts[rows], lengths[rows])], lengths[rows]


def ragged_concat(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Row by row concatenation of ragged arrays (values, lengths) with equally many rows."""
    lengths = sum(part_lengths for _, part_lengths in parts)
    out = np.empty(int(lengths.sum()), dtype=np.intp)
    offset = np.cumsum(lengths) - lengths
    for values, part_lengths in parts:
        out[_spans(offset, part_lengths)] = values
        offset = offset + part_lengths
    return out, lengths


def word_bits(gram: np.ndarray, values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The sign bits of the words (values, lengths): 0 for +1, 1 for -1, -1 for neither.

    A word names vectors by their index in gram, the matrix of their inner
    products.  The even words are sorted by length, longest first and stably,
    and cut into chunks of at most _BATCH_ENTRIES padded entries.  In a chunk
    each word is right-aligned in a row of width M, its longest length, with
    the padding naming the zero vector, so the skew matrix of a word is the
    trailing block of the chunk's (B, M, M) array.  Each prime is one sweep of
    _pfaffian_signs_modp; a prime after the first sweeps only the leading
    words whose length needs it.
    """
    bits = np.full(len(lengths), -1, dtype=np.int8)
    even = np.flatnonzero(lengths % 2 == 0)
    if not even.size:
        return bits
    order = even[np.argsort(-lengths[even], kind="stable")]
    sizes = lengths[order]
    starts = (np.cumsum(lengths) - lengths)[order]
    # the number of primes that decide each even length up to the longest
    needs = np.array([len(_primes_for(size)) for size in range(0, int(sizes[0]) + 1, 2)], dtype=np.intp)
    # tables[p][o, v, w] = (1 - o) <a_v, a_w> mod p, with the padding index k naming the zero vector
    k = len(gram)
    padded = np.zeros((k + 1, k + 1), dtype=np.int64)
    padded[:k, :k] = gram
    tables = {p: np.stack([padded % p, np.zeros_like(padded), -padded % p]) for p in _PRIMES[:needs[-1]]}
    lo = 0
    while lo < len(order):
        top = int(sizes[lo])
        hi = lo + max(1, _BATCH_ENTRIES // max(1, top * top))
        chunk = sizes[lo:hi]
        count = len(chunk)
        index = np.full(count * top, k, dtype=np.intp)
        index[_spans(np.arange(count) * top + top - chunk, chunk)] = values[_spans(starts[lo:hi], chunk)]
        index = index.reshape(count, top)
        orient = 1 + np.sign(np.arange(top)[:, None] - np.arange(top))  # 0 above the diagonal, 2 below
        need = needs[chunk // 2]
        sign = np.empty(count, dtype=np.int64)
        for used, p in enumerate(_PRIMES[:need[0]]):
            members = np.count_nonzero(need > used)
            rows = index[:members]
            skew = tables[p][orient, rows[:, :, None], rows[:, None, :]]  # <a_i, a_j> for i < j, skew, mod p
            got = _pfaffian_signs_modp(skew, chunk[:members], p)
            sign[:members] = got if used == 0 else np.where(got == sign[:members], got, 0)
        bits[order[lo:hi]] = np.where(sign == 1, 0, np.where(sign == -1, 1, -1))
        lo = hi
    return bits
