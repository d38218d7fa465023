"""Braided vector spaces from rack cocycles: the braiding and its braid-group images.

The braiding c(x (x) y) = q_{x,y} (x|>y) (x) x is a monomial operator: it
permutes basis vectors of X^(x)n and multiplies by unit scalars.  All braid
group images are therefore stored as (target permutation, exponent vector)
pairs, one row per word of a batch (rho).  The resource caps of a degree
are checked here; the quantum symmetrizer that they bound, which only
proven ranks build, is assembled in racktwist.exact.
"""

from __future__ import annotations

import random

import numpy as np

from .cocycle import RackCocycle, minus_one_cocycle
from .errors import DimensionCapError
from .rack import lex_reduced_words, transposition_rack

DEFAULT_DIM_CAP = 200_000


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
    if dim > DEFAULT_DIM_CAP:
        raise DimensionCapError(f"degree {degree} needs dimension {dim} > cap {DEFAULT_DIM_CAP}")
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


def _within(size: int, degree: int, bound: int) -> bool:
    """Whether size**degree <= bound, multiplied up to the bound and stopped there, so a huge degree costs nothing."""
    power = 1
    for _ in range(degree if size > 1 else min(degree, 1)):
        if power > bound:
            return False
        power *= size
    return power <= bound


def _dimension(size: int, degree: int) -> str:
    """size**degree written out if it fits in 64 bits, else as size^degree."""
    return str(size**degree) if degree * size.bit_length() <= 64 else f"{size}^{degree}"


def check_dimension(size: int, degree: int, dim_cap: int) -> None:
    """Raise DimensionCapError if degree `degree` over a rack of `size` elements exceeds dim_cap.

    It needs only the size, so a caller may check it before building the rack.
    """
    if not _within(size, degree, dim_cap):
        raise DimensionCapError(f"degree {degree} needs dimension {_dimension(size, degree)} > cap {dim_cap}")


def check_degree(q: RackCocycle, degree: int, dim_cap: int) -> None:
    """Raise DimensionCapError unless `exact.symmetrizer` can build this degree.

    The dimension k^degree must be within dim_cap (check_dimension), an
    entry's row, column and exponent must fit in a 64-bit key, and an
    entry, a count of at most degree! lifts, must fit in int64.  Each bound
    grows with the degree, so a degree that passes vouches for every
    smaller one.  k^degree is multiplied up no further than just past
    each bound, and degree! is never built.
    """
    check_dimension(q.rack.size, degree, dim_cap)
    # a key holds 2 bits(k^degree - 1) + bits(order - 1) <= 63 bits, that is k^degree <= 2^width
    width = (63 - (q.order - 1).bit_length()) // 2
    if width < 0 or not _within(q.rack.size, degree, 2**width):
        dim = _dimension(q.rack.size, degree)
        raise DimensionCapError(f"degree {degree} needs dimension {dim}, too large for 64-bit entry keys")
    # 20! < 2^63 <= 21!
    if degree > 20:
        raise DimensionCapError(f"degree {degree} has entries up to {degree}! >= 2^63, too large for int64")


def _inverse_letters(q: RackCocycle) -> tuple[np.ndarray, np.ndarray]:
    """Flat k x k tables of c^-1: step[z*k + a] = y with z |> y = a, and gain[z*k + a] = exp[z][y].

    c maps x (x) y to q(x, y) (x |> y) (x) x, so c^-1 maps a (x) z to
    z (x) y, undoing the scalar q(z, y).  Every row z |> - must be a
    bijection (cocycle.check_rack_cocycle).
    """
    k = q.rack.size
    op = np.array(q.rack.op, dtype=np.int64).reshape(k, k)
    step = np.empty((k, k), dtype=np.int64)
    step[np.arange(k)[:, None], op] = np.arange(k)
    return step.ravel(), np.array(q.exp, dtype=np.int64)[np.arange(k)[:, None], step].ravel()
