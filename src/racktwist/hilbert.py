"""Graded dimensions of Nichols algebras: primes, and the choice of rank path per degree.

`graded_dims` reports degrees 0 and 1 by identity.  Modular mode draws one
pair of primes per run and takes every degree from 2 on from the Leibniz
recursion modulo both (nichols.LeibnizEngine), tagged CERTIFIED.  At the
first degree where the primes disagree, that degree and every later one
are proven on the symmetrizer instead (exact.ranks), the first tagged
FALLBACK; exact mode proves every degree so.  racktwist.exact is imported
only when a degree is proven, and its caps apply only there.  The result
is a plain dict, to which the CLI adds the labels of the rack and the
cocycle.
"""

from __future__ import annotations

import math
import random
from itertools import zip_longest

from .braided import DEFAULT_DIM_CAP
from .cocycle import RackCocycle, check_rack_cocycle
from .errors import DimensionCapError, RackAxiomError
from .nichols import LeibnizEngine

_PRIME_LOW = 2**30
_PRIME_HIGH = 2**31
# the order from which _draw_prime scans its candidates instead of rejecting random draws
_SCAN_ORDER = 2**10
# the highest degree that a report lists, far above x5's top degree 40
MAX_DEGREE = 1000
CERTIFIED = "modular-certified (Monte Carlo)"
FALLBACK = "exact (fallback after modular disagreement)"


def expand_closed_form(factors: list[tuple[int, int]], max_degree: int | None = None) -> list[int]:
    """Coefficients of prod (m)_t^mult, index = degree in t, where (m)_t = 1 + t + ... + t^(m-1).

    Given max_degree, only the coefficients of degrees 0..max_degree are
    expanded (fewer if the product has a lower degree).  Each factor is
    (1 - t^m)^mult (1 - t)^(-mult), whose coefficient of t^i is the sum over
    j with m*j <= i of (-1)^j C(mult, j) C(mult - 1 + i - m*j, i - m*j), so
    no factor is multiplied out term by term.
    """
    for m, mult in factors:
        if m < 1 or mult < 1:
            raise ValueError(f"closed-form factor {m}:{mult} needs M >= 1 and MULT >= 1")
    top = sum((m - 1) * mult for m, mult in factors)
    if max_degree is not None:
        top = min(top, max_degree)
    coeffs = [1] + [0] * top
    for m, mult in factors:
        factor = [
            sum((-1) ** j * math.comb(mult, j) * math.comb(mult - 1 + i - m * j, i - m * j) for j in range(i // m + 1))
            for i in range(top + 1)
        ]
        coeffs = [sum(coeffs[j] * factor[i - j] for j in range(i + 1)) for i in range(top + 1)]
    return coeffs


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


def _candidates(m: int) -> tuple[int, int]:
    """The first number p = 1 mod m in [2^30, 2^31), and how many such p the range holds."""
    first = _PRIME_LOW + (1 - _PRIME_LOW) % m
    return first, max(0, (_PRIME_HIGH - 1 - first) // m + 1)


def _draw_prime(rng: random.Random, m: int, avoid: set[int]) -> int:
    """A random prime in [2^30, 2^31) with p = 1 mod m, not in `avoid`, reproducible via rng.

    Below order _SCAN_ORDER a random p is drawn until one is = 1 mod m,
    prime and not avoided, which takes about 21 m draws.  From that order
    on, the candidates p = 1 mod m are scanned cyclically from a random one,
    so the search ends: DimensionCapError if none is a prime outside `avoid`.
    """
    if m < _SCAN_ORDER:
        while True:
            p = rng.randrange(_PRIME_LOW, _PRIME_HIGH)
            if p in avoid or (p - 1) % m != 0:
                continue
            if _is_prime_u32(p):
                return p
    first, count = _candidates(m)
    start = rng.randrange(count) if count else 0
    for j in range(count):
        p = first + (start + j) % count * m
        if p not in avoid and _is_prime_u32(p):
            return p
    raise DimensionCapError(f"no prime p = 1 mod {m} in [2^30, 2^31) is left to draw")


def _prime_divisors(m: int) -> list[int]:
    """The distinct prime divisors of m, ascending, by trial division."""
    divisors, d = [], 2
    while d * d <= m:
        if m % d == 0:
            divisors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return divisors + [m] if m > 1 else divisors


def _element_of_order(p: int, m: int) -> int:
    """The smallest representative in F_p of an m-th root of unity of exact order m."""
    if m == 1:
        return 1
    prime_divisors = _prime_divisors(m)
    for a in range(2, p):
        h = pow(a, (p - 1) // m, p)
        if h == 1:
            continue
        if all(pow(h, m // ell, p) != 1 for ell in prime_divisors):
            return h
    raise AssertionError(f"no element of order {m} mod {p}")


def graded_dims(
    q: RackCocycle,
    max_degree: int,
    *,
    mode: str = "modular",
    seed: int = 0,
    dim_cap: int = DEFAULT_DIM_CAP,
    closed_form: list[tuple[int, int]] | None = None,
) -> dict:
    """Dimensions of the Nichols algebra in degrees 0..max_degree, as the report dict of `hilbert`.

    q must be a 2-cocycle on a rack, so that its braiding satisfies the
    braid equation.  That is checked first, in both modes, at every
    max_degree and before any resource cap (cocycle.check_rack_cocycle);
    RackAxiomError names the kind and witness that `rack --check` or
    `cocycle --check` reports.  Degrees 0 and 1 are identity shortcuts
    (rank 1 and rank = rack size); no matrix is built for them.  Modular
    mode draws one pair of primes p = 1 mod order from
    random.Random(seed) and ranks every degree from 2 on by the Leibniz
    recursion modulo both (nichols.LeibnizEngine), which closes the group
    of translations first.  At the first degree where the primes
    disagree, exact.ranks starts: that degree is proven on the
    symmetrizer and tagged FALLBACK with the pair, and every later degree
    is proven and tagged exact.  Exact mode starts exact.ranks at degree 2.

    Resource caps are decided before anything that they bound is built.
    Before any degree: max_degree <= MAX_DEGREE; in exact mode the caps of
    the symmetrizer for max_degree (exact.check_degree), which grow with
    the degree and so cover every degree; and the cocycle order, which
    must leave two candidates p = 1 mod order in [2^30, 2^31).  The engine
    decides its own caps on dim_cap (the group, then each degree's largest
    Phi_r), and a fallback degree the symmetrizer's, when it is built.  A
    closed form is expanded through max_degree (and a bad factor rejected)
    after the caps that come before any degree, so a huge max_degree never
    sizes its coefficients.

    Returned: mode, seed, and per degree its rank, method and primes; given
    a closed form, also its factors and whether each degree matches it.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if mode not in ("exact", "modular"):
        raise ValueError(f"unknown mode {mode!r}")
    violation = check_rack_cocycle(q)
    if violation is not None:
        braiding = "c(x (x) y) = q(x, y) (x |> y) (x) x"
        raise RackAxiomError(
            f"{violation['kind']} at {violation['witness']}: the braiding {braiding} needs a 2-cocycle on a rack"
        )
    if max_degree > MAX_DEGREE:
        raise DimensionCapError(f"degree {max_degree} is past degree {MAX_DEGREE}, the highest that a report lists")
    if max_degree >= 2:
        if mode == "exact":
            from .exact import check_degree

            check_degree(q, max_degree, dim_cap)
        if _candidates(q.order)[1] < 2:
            raise DimensionCapError(
                f"cocycle order {q.order} leaves fewer than two numbers p = 1 mod it in [2^30, 2^31)"
            )
    series = None if closed_form is None else expand_closed_form(closed_form, max_degree)
    report = {"mode": mode, "seed": seed, "degrees": [], "ranks": [], "methods": [], "primes": []}
    k = q.rack.size
    modular = proven = None
    if mode == "modular" and max_degree >= 2:
        rng = random.Random(seed)
        p1 = _draw_prime(rng, q.order, set())
        primes = (p1, _draw_prime(rng, q.order, {p1}))
        engine = LeibnizEngine(q, primes, tuple(_element_of_order(p, q.order) for p in primes), dim_cap)
        modular = engine.ranks(max_degree)
    for d in range(max_degree + 1):
        value = None if modular is None or d == 0 else next(modular)
        if d < 2:
            rank_d, method, used = (1, k)[d], "exact", ()
        elif value is not None:
            rank_d, method, used = value, CERTIFIED, primes
        else:
            method, used = "exact", ()
            if proven is None:
                # here only, so that a run that proves no degree never compiles the k^d path
                from .exact import ranks

                proven = ranks(q, d, max_degree, dim_cap)
                if modular is not None:
                    # the first disagreement of the primes, proven on every kept row
                    method, used, modular = FALLBACK, primes, None
            rank_d = next(proven)
        report["degrees"].append(d)
        report["ranks"].append(rank_d)
        report["methods"].append(method)
        report["primes"].append(list(used))
    if series is not None:
        report["closed_form"] = [list(f) for f in closed_form]
        # coefficients past the closed form's degree are 0
        report["closed_form_verdicts"] = [r == c for r, c in zip_longest(report["ranks"], series, fillvalue=0)]
    return report
