import math
import random
from functools import partial

import numpy as np
import pytest

from oracles import (
    counts_rank_over_cyclotomic,
    cyclotomic_polynomial,
    dense_integer_matrix,
    distinct_nonzero_lines,
    evaluate_modp,
    is_palindromic,
    orbit_blocks_modp,
    orbit_count_blocks,
    rank_over_cyclotomic,
    rank_over_rationals,
    translation_classes,
    value_at_one,
)
from racktwist import braided
from racktwist.braided import symmetrizer
from racktwist.cocycle import RackCocycle, check_twist_condition, chi_cocycle, constant_cocycle, minus_one_cocycle, twist
from racktwist import hilbert as hilbert_mod
from racktwist.errors import DimensionCapError
from racktwist.hilbert import (
    FALLBACK,
    _carry,
    _draw_prime,
    _element_of_order,
    _fold,
    _is_prime_u32,
    _kept_pivots,
    _kept_rows,
    _pivots_dense_modp,
    _pivots_exact,
    _pivots_modp,
    expand_closed_form,
    graded_dims,
    rank,
)
from racktwist.rack import FiniteRack, check_rack_axioms, transposition_rack
from racktwist.spincover import phi_psi_table

X3 = transposition_rack(3)
X4 = transposition_rack(4)
M1_X3 = minus_one_cocycle(X3)
M1_X4 = minus_one_cocycle(X4)


def square_block(mat):
    """An integer matrix, padded square with zeros, folded at order 1 (hilbert._fold)."""
    a = np.asarray(mat, dtype=np.int64)
    size = max(a.shape)
    flat = np.zeros((size, size), dtype=np.int64)
    flat[: a.shape[0], : a.shape[1]] = a
    flat = flat.ravel()
    cells = np.flatnonzero(flat)
    return _fold(cells, np.zeros_like(cells), flat[cells], (size, size), 1)[:2]


def dense_rank(a, p):
    """The rank mod p of an int64 matrix: the number of rows the elimination kernel pivots on."""
    return _pivots_dense_modp(a, p).size


def exact_rank(folded, order):
    """The proven rank of a folded block given as (block, exps), the first two results of hilbert._fold."""
    return _pivots_exact(*folded, order).size


def modp_rank(folded, p, g):
    return _pivots_modp(*folded, p, g).size


def shifted_kernel(real, prime, step):
    """The elimination kernel, with one pivot repeated (step 1) or dropped (step -1) mod `prime`.

    Rank, the number of pivots, moves by step on every matrix it eliminates
    mod `prime`; those are nonzero, so they have a pivot to drop.
    """

    def kernel(a, p):
        pivots = real(a, p)
        if p != prime:
            return pivots
        return np.append(pivots, pivots[0]) if step > 0 else pivots[:-1]

    return kernel


def planted_counts(rng, m, n):
    """A random (m, n, n) count tensor, n >= 6, with planted lines among the columns and rows 0..4.

    Line 0 is zero, line 1 repeats line 2, line 3 differs from line 2 in one
    entry, and for m > 1 line 4 cancels in Q(zeta_m): c_e = c_(e + m/2) for
    even m, and all classes equal for odd m (1 + zeta + ... = 0).  The one
    differing entry lies in a line from 5 on, which the other planting
    leaves alone; columns are planted first.
    """
    counts = rng.integers(0, 3, size=(m, n, n)) * (rng.random((m, n, n)) < 0.6)
    for axis in (2, 1):
        lines = np.moveaxis(counts, axis, 1)  # a view: writes land in counts
        lines[:, 0] = 0
        lines[:, 1] = lines[:, 2]
        lines[:, 3] = lines[:, 2]
        lines[0, 3, rng.integers(5, n)] += 1
        if m % 2 == 0:
            lines[m // 2 :, 4] = lines[: m // 2, 4]
        elif m > 1:
            lines[1:, 4] = lines[0, 4]
    return counts


def count_parts(counts, stride=1):
    """(cells, expo, data, shape) as in hilbert._kept_blocks for a dense (m, n, n) count tensor.

    Class e of the tensor stands for zeta^(e * stride), zeta of order m * stride,
    and exponents take the dtype that symmetrizer gives that order.
    """
    flat = counts.reshape(counts.shape[0], -1)
    expo, cells = np.nonzero(flat)
    expo_type = np.min_scalar_type(counts.shape[0] * stride - 1)
    return cells, (expo * stride).astype(expo_type), flat[expo, cells], counts.shape[1:]


class TestClosedForms:
    def test_t_integer(self):
        assert expand_closed_form([(4, 1)]) == [1, 1, 1, 1]
        assert expand_closed_form([(1, 1)]) == expand_closed_form([]) == [1]
        for factor in [(0, 1), (2, 0), (2, -1)]:
            with pytest.raises(ValueError):
                expand_closed_form([(3, 2), factor])

    def test_x4_series(self):
        coeffs = expand_closed_form([(2, 2), (3, 2), (4, 2)])
        assert value_at_one(coeffs) == 576
        assert coeffs[1:6] == [6, 19, 42, 71, 96]
        assert is_palindromic(coeffs)
        assert len(coeffs) == 13

    def test_x5_series(self):
        coeffs = expand_closed_form([(4, 4), (5, 2), (6, 4)])
        assert value_at_one(coeffs) == 8_294_400
        assert coeffs[1:5] == [10, 55, 220, 711]
        assert is_palindromic(coeffs)

    def test_ones(self):
        assert expand_closed_form([(1, 7)]) == [1]

    def test_expands_through_max_degree_only(self):
        full = expand_closed_form([(2, 2), (3, 2), (4, 2)])
        for top in (0, 3, 12, 20):
            assert expand_closed_form([(2, 2), (3, 2), (4, 2)], top) == full[: top + 1]
        # huge factors, of which only the first coefficients are read
        assert expand_closed_form([(2, 99_999_999)], 3) == [math.comb(99_999_999, i) for i in range(4)]
        assert expand_closed_form([(99_999_999, 1), (2, 1)], 2) == [1, 2, 2]
        with pytest.raises(ValueError):
            expand_closed_form([(2, 99_999_999), (0, 1)], 3)

    def test_truncated_matches_factor_by_factor_products(self):
        # against multiplying out every t-integer, one factor at a time
        rng = random.Random(12)
        for _ in range(30):
            factors = [(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
            coeffs = [1]
            for m, mult in factors:
                for _ in range(mult):
                    coeffs = np.convolve(coeffs, [1] * m).tolist()
            top = rng.randint(0, len(coeffs) + 2)
            assert expand_closed_form(factors, top) == coeffs[: top + 1]
            assert expand_closed_form(factors) == coeffs

    def test_graded_dims_reads_a_huge_closed_form(self):
        report = graded_dims(M1_X3, 3, mode="exact", closed_form=[(2, 99_999_999)])
        assert report.closed_form_verdicts == [True, False, False, False]
        report = graded_dims(M1_X3, 4, mode="exact", closed_form=[(2, 2), (3, 1), (1, 99_999_999)])
        assert report.closed_form_verdicts == [True] * 5

    def test_against_sympy_expansion(self):
        import sympy

        t = sympy.symbols("t")
        expr = (1 + t) ** 2 * (1 + t + t**2) ** 2 * (1 + t + t**2 + t**3) ** 2
        coeffs = sympy.Poly(expr.expand(), t).all_coeffs()[::-1]
        assert expand_closed_form([(2, 2), (3, 2), (4, 2)]) == [int(c) for c in coeffs]


class TestPrimeMachinery:
    def test_miller_rabin_against_sympy(self):
        import sympy

        rng = random.Random(1)
        for _ in range(200):
            n = rng.randrange(2, 2**31)
            assert _is_prime_u32(n) == sympy.isprime(n)

    def test_draw_prime_properties(self):
        import sympy

        rng = random.Random(2)
        for m in (1, 2, 3, 4, 6):
            seen = set()
            for _ in range(3):
                p = _draw_prime(rng, m, seen)
                seen.add(p)
                assert sympy.isprime(p)
                assert (p - 1) % m == 0
                assert 2**30 <= p < 2**31

    def test_draw_prime_scans_large_orders(self):
        import sympy

        m = 2**20 + 7
        p = _draw_prime(random.Random(3), m, set())
        assert p == _draw_prime(random.Random(3), m, set())
        q = _draw_prime(random.Random(3), m, {p})
        for prime in (p, q):
            assert sympy.isprime(prime) and (prime - 1) % m == 0 and 2**30 <= prime < 2**31
        assert p != q

    def test_draw_prime_ends_when_primes_run_out(self):
        # no number = 1 mod 3e9 lies in [2^30, 2^31); one prime = 1 mod 1.5e9 does
        with pytest.raises(DimensionCapError):
            _draw_prime(random.Random(0), 3_000_000_000, set())
        p = _draw_prime(random.Random(0), 1_500_000_000, set())
        assert p == 1_500_000_001 and _is_prime_u32(p)
        with pytest.raises(DimensionCapError):
            _draw_prime(random.Random(0), 1_500_000_000, {p})

    def test_exact_rank_ends_when_primes_run_out(self):
        # q = 1 mod order below 2^31: none for 3e9, only 1 500 000 001 for 1.5e9,
        # too few to rule out rank 2 by a bound raised to phi(1.5e9) = 4e8
        block = np.array([[[2, 2], [2, 2]]], dtype=np.int8)
        for order in (3_000_000_000, 1_500_000_000):
            with pytest.raises(DimensionCapError):
                _pivots_exact(block, np.zeros(1, dtype=np.int64), order)

    def test_order_checked_before_any_degree(self, monkeypatch):
        monkeypatch.setattr(hilbert_mod, "symmetrizer", lambda *args, **kwargs: pytest.fail("built a degree"))
        for order in (3_000_000_000, 1_500_000_000):
            for mode in ("modular", "exact"):
                with pytest.raises(DimensionCapError, match="order"):
                    graded_dims(constant_cocycle(X3, order, 1), 2, mode=mode)

    def test_element_of_order(self):
        rng = random.Random(3)
        for m in (2, 3, 4, 6, 8):
            p = _draw_prime(rng, m, set())
            g = _element_of_order(p, m)
            assert pow(g, m, p) == 1
            for d in range(1, m):
                if m % d == 0:
                    assert pow(g, d, p) != 1


class TestRankKernels:
    def test_exact_matches_rational_oracle(self):
        rng = random.Random(4)
        for _ in range(40):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            mat = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            expected = rank_over_rationals(mat)
            assert exact_rank(square_block(mat), 1) == expected

    def test_exact_rank_deficient(self):
        mat = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
        assert exact_rank(square_block(mat), 1) == 2

    def test_exact_rank_outlives_the_first_prime(self):
        # diag(1, 2^31 - 1) has rank 2, but rank 1 modulo the first prime tried
        a = np.diag([1, 2**31 - 1]).astype(np.int64)
        assert rank_over_rationals(a.tolist()) == 2
        assert dense_rank(a % (2**31 - 1), 2**31 - 1) == 1
        assert exact_rank(square_block(a), 1) == 2

    def test_exact_rank_keeps_the_largest_rank_seen(self):
        # the second prime tried, 2147483629, kills the middle row, and the
        # Hadamard bound is met right after it
        a = np.array([[1, 0, 2], [0, 2147483629, 0], [0, 0, 0]], dtype=np.int64)
        assert dense_rank(a % 2147483629, 2147483629) == 1
        assert exact_rank(square_block(a), 1) == 2

    def test_exact_bound_holds_at_a_dtype_edge(self, monkeypatch):
        # entries up to 128 = the largest count: the column bound must hold
        # 128 itself, not wrap in int8.  The first prime is forced one rank
        # lower; the honest bound (4 * 128^2)^4 > (2^31 - 1)^2 asks for more
        real = hilbert_mod._pivots_dense_modp
        monkeypatch.setattr(hilbert_mod, "_pivots_dense_modp", shifted_kernel(real, 2**31 - 1, -1))
        mat = np.ones((4, 4), dtype=np.int64) + 127 * np.eye(4, dtype=np.int64)
        assert exact_rank(square_block(mat), 1) == 4

    def test_exact_splits_signs_at_order_two(self):
        # the same integer block as counts of zeta^0 = 1 and of zeta^1 = -1
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 6)
            mat = np.array([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], dtype=np.int64)
            flat = mat.ravel()
            cells = np.flatnonzero(flat)
            expo = (flat[cells] < 0).astype(np.int64)
            assert exact_rank(_fold(cells, expo, np.abs(flat[cells]), (n, n), 2)[:2], 2) == rank_over_rationals(mat.tolist())

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 2**20])
    def test_fold_drops_only_zero_and_repeated_lines(self, order):
        # at order 2^20 the planted tensor has 8 classes, class e standing for
        # zeta^(e * 2^17), a primitive 8th root of unity; a rank over Q(zeta_8)
        # is the rank over Q(zeta_(2^20)), and mod p zeta^(2^17) maps to g^(2^17)
        classes = min(order, 8)
        stride = order // classes
        rng = np.random.default_rng(order)
        p = _draw_prime(random.Random(order), order, set())
        g = _element_of_order(p, order)
        for _ in range(10):
            counts = planted_counts(rng, classes, int(rng.integers(6, 9)))
            block, exps, origin = _fold(*count_parts(counts, stride), order)
            assert block.shape[1:] == distinct_nonzero_lines(counts, classes)
            # one source row per folded row, and never a zero one
            assert len(set(origin.tolist())) == origin.size == block.shape[1]
            assert counts[:, origin].any(axis=(0, 2)).all()
            assert exact_rank((block, exps), order) == counts_rank_over_cyclotomic(counts, classes)
            assert modp_rank((block, exps), p, g) == dense_rank(evaluate_modp(counts, p, pow(g, stride, p)), p)

    def test_dense_modp_matches_oracle(self):
        rng = random.Random(5)
        p = 2**31 - 1
        for _ in range(30):
            n = rng.randint(1, 8)
            mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            expected = rank_over_rationals(mat)
            arr = np.array(mat, dtype=np.int64) % p
            assert dense_rank(arr, p) == expected
        # sparse, mostly rank-deficient inputs
        rng = random.Random(6)
        p = 1_073_741_827  # prime just above 2^30
        for _ in range(25):
            n = rng.randint(2, 30)
            mat = [[0] * n for _ in range(n)]
            for _ in range(rng.randint(1, 3 * n)):
                mat[rng.randrange(n)][rng.randrange(n)] = rng.randint(-4, 4)
            expected = rank_over_rationals(mat)
            arr = np.array(mat, dtype=np.int64) % p
            assert dense_rank(arr, p) == expected


class TestRank:
    def test_degree_one_identity(self):
        cert = rank(symmetrizer(M1_X4, 1), "exact")
        assert cert.rank == 6
        assert cert.method == "exact"

    def test_q2_x4_rank19_with_oracle(self):
        sym = symmetrizer(M1_X4, 2)
        dense = dense_integer_matrix(sym)
        assert rank_over_rationals(dense.tolist()) == 19
        assert rank(sym, "exact").rank == 19
        assert rank(sym, "modular", rng=random.Random(0)).rank == 19

    def test_q2_x3_rank4_with_oracle(self):
        sym = symmetrizer(M1_X3, 2)
        dense = dense_integer_matrix(sym)
        assert rank_over_rationals(dense.tolist()) == 4
        assert rank(sym, "exact").rank == 4

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_exact_equals_modular_x3(self, degree):
        for q in (M1_X3, chi_cocycle(3)):
            sym = symmetrizer(q, degree)
            assert rank(sym, "exact").rank == rank(sym, "modular", rng=random.Random(degree)).rank

    @pytest.mark.parametrize("degree", [2, 3])
    def test_exact_equals_modular_x4(self, degree):
        for q in (M1_X4, chi_cocycle(4)):
            sym = symmetrizer(q, degree)
            assert rank(sym, "exact").rank == rank(sym, "modular", rng=random.Random(degree)).rank

    def test_exact_limit_applies_per_block(self):
        # exact mode ranks every block, with no limit on its size
        sym = symmetrizer(chi_cocycle(4), 3)  # dimension 216, largest orbit 16
        cert = rank(sym, "exact")
        assert (cert.rank, cert.method, cert.dim) == (42, "exact", 216)

    def test_order_three_disagreement_falls_back_to_exact(self, monkeypatch):
        # as below, at order 3: the fallback proves the rank over Q(zeta_3)
        sym = symmetrizer(constant_cocycle(X3, 3, 1), 3)
        p1 = _draw_prime(random.Random(0), 3, set())
        real = hilbert_mod._pivots_dense_modp
        monkeypatch.setattr(hilbert_mod, "_pivots_dense_modp", shifted_kernel(real, p1, 1))
        cert = rank(sym, "modular")
        assert cert.method == "exact (fallback after modular disagreement)"
        assert cert.rank == rank_over_cyclotomic(sym) == 21
        assert cert.primes[0] == p1 and len(set(cert.primes)) == len(cert.primes) == 2

    def test_disagreement_falls_back_to_exact(self, monkeypatch):
        # a first prime that raises every nonzero block's rank by one makes
        # the primes disagree; the proven rank is reported with both primes
        p1 = _draw_prime(random.Random(0), 2, set())
        real = hilbert_mod._pivots_dense_modp
        monkeypatch.setattr(hilbert_mod, "_pivots_dense_modp", shifted_kernel(real, p1, 1))
        cert = rank(symmetrizer(chi_cocycle(4), 3), "modular")
        assert cert.method == "exact (fallback after modular disagreement)"
        assert cert.rank == 42
        assert cert.primes[0] == p1 and len(set(cert.primes)) == len(cert.primes) == 2

    def test_agreeing_primes_cut_each_block_once(self, monkeypatch):
        passes = []
        real = hilbert_mod._kept_blocks

        def counting(sym, below=None):
            passes.append(0)
            for block in real(sym, below):
                passes[-1] += 1
                yield block

        monkeypatch.setattr(hilbert_mod, "_kept_blocks", counting)
        sym = symmetrizer(chi_cocycle(4), 4)
        cert = rank(sym, "modular")
        assert cert.method == hilbert_mod.CERTIFIED and len(cert.primes) == 2
        assert passes == [int((sym.orbit_class == np.arange(sym.orbit_class.size)).sum())]

    @pytest.mark.parametrize(
        "order, exponent, expected",
        [(3, 1, [9, 21]), (4, 1, [9, 27]), (4, 3, [9, 27]), (6, 1, [7, 15])],
    )
    def test_exact_matches_cyclotomic_oracle(self, order, exponent, expected):
        q = constant_cocycle(X3, order, exponent)
        for degree, value in zip((2, 3), expected):
            sym = symmetrizer(q, degree)
            assert rank_over_cyclotomic(sym) == value
            cert = rank(sym, "exact")
            assert (cert.rank, cert.method, cert.primes) == (value, "exact", ())
            assert rank(sym, "modular").rank == value

    def test_cyclotomic_oracle_polynomials(self):
        import sympy

        x = sympy.symbols("x")
        for m in range(1, 13):
            expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
            assert cyclotomic_polynomial(m) == [int(c) for c in expected]

    def test_exact_outlives_a_low_first_prime_at_order_three(self, monkeypatch):
        # the first prime tried, 2^31 - 1 = 1 mod 3, is forced to rank every
        # nonzero block one lower; no block of degree 4 meets the bound with
        # one prime, so the largest rank seen is still the rank
        first = 2**31 - 1
        tried = []
        low = shifted_kernel(hilbert_mod._pivots_dense_modp, first, -1)

        def recording(a, p):
            tried.append(p)
            return low(a, p)

        monkeypatch.setattr(hilbert_mod, "_pivots_dense_modp", recording)
        sym = symmetrizer(constant_cocycle(X3, 3, 1), 4)
        assert rank(sym, "exact").rank == 50
        assert tried[0] == first and all(p % 3 == 1 for p in tried)

    def test_exact_rank_outlives_a_bad_first_prime_at_order_three(self):
        # zeta - g lies in the prime above 2^31 - 1 where zeta -> g, so it has
        # rank 0 there; its norm g^2 + g + 1 is below (g + 1)^phi(3) but not
        # below the unsquared bound (g + 1)^2, so a second prime is needed
        first = 2**31 - 1
        g = _element_of_order(first, 3)
        assert (g * g + g + 1) % first == 0 and (g + 1) ** 2 < first**2
        parts = np.array([0, 0]), np.array([0, 1]), np.array([-g, 1]), (1, 1)
        assert modp_rank(_fold(*parts, 3)[:2], first, g) == 0
        assert exact_rank(_fold(*parts, 3)[:2], 3) == 1

    def test_modular_with_higher_order(self):
        # constant zeta_4 cocycle: modular rank must work with p = 1 mod 4
        sym = symmetrizer(constant_cocycle(X3, 4, 1), 2)
        cert = rank(sym, "modular", rng=random.Random(1))
        assert all(p % 4 == 1 for p in cert.primes)
        assert 0 < cert.rank <= 9

    def test_modular_certificate_contents(self):
        cert = rank(symmetrizer(M1_X4, 2), "modular", rng=random.Random(9))
        assert cert.method == "modular-certified (Monte Carlo)"
        assert len(cert.primes) == 2 and cert.primes[0] != cert.primes[1]
        assert cert.dim == 36

    def test_default_rng_draws_as_seed_zero(self):
        sym = symmetrizer(M1_X4, 2)
        assert rank(sym, "modular").primes == rank(sym, "modular", rng=random.Random(0)).primes

    @pytest.mark.parametrize("degree", [5, 6])
    def test_x3_minus_one_classes_cancel(self, degree):
        # both exponent classes are nonzero, but their sum mod p is the zero matrix
        sym = symmetrizer(M1_X3, degree)
        assert set(sym.entries.expo.tolist()) == {0, 1}
        assert rank(sym, "modular").rank == 0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            rank(symmetrizer(M1_X3, 2), "float")


CLASS_CASES = {
    "x3-m1": M1_X3,
    "x4-m1": M1_X4,
    "x5-m1": minus_one_cocycle(transposition_rack(5)),
    "x3-const31": constant_cocycle(X3, 3, 1),
    "x3-const43": constant_cocycle(X3, 4, 3),
    "x4-chi": chi_cocycle(4),
}


def _ranks_without_classes(monkeypatch, q, degrees, translations):
    """Modular ranks with the translation list of braided forced to `translations(q)`."""
    monkeypatch.setattr(braided, "_commuting_translations", translations)
    ranks = [rank(symmetrizer(q, d), "modular").rank for d in degrees]
    monkeypatch.undo()
    return ranks


class TestOrbitClasses:
    @pytest.mark.parametrize("name", sorted(CLASS_CASES))
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_classes_match_oracle(self, name, degree):
        q = CLASS_CASES[name]
        assert symmetrizer(q, degree).orbit_class.tolist() == translation_classes(q, degree)

    @pytest.mark.parametrize("name", sorted(CLASS_CASES))
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_blocks_in_a_class_share_their_rank(self, name, degree):
        q = CLASS_CASES[name]
        sym = symmetrizer(q, degree)
        p = _draw_prime(random.Random(degree), q.order, set())
        g = _element_of_order(p, q.order)
        ranks = np.array([dense_rank(b, p) for b in orbit_blocks_modp(sym, p, g)])
        cls = sym.orbit_class
        assert (ranks == ranks[cls]).all()
        heads = np.flatnonzero(cls == np.arange(cls.size))
        weighted = sum(int((cls == h).sum()) * int(ranks[h]) for h in heads)
        assert weighted == int(ranks.sum())
        assert hilbert_mod._kept_pivots(sym, [p])[0][0] == weighted

    @pytest.mark.parametrize("name", ["x3-m1", "x3-const31", "x3-const43", "x4-chi", "x5-m1"])
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_folded_blocks_match_the_oracle_blocks(self, name, degree):
        # each kept block, folded and compacted, against its count block in the full matrix
        q = CLASS_CASES[name]
        sym = symmetrizer(q, degree)
        heads = np.flatnonzero(sym.orbit_class == np.arange(sym.orbit_class.size))
        every = orbit_count_blocks(sym)
        counts = [every[h] for h in heads]
        pruned = symmetrizer(q, degree, rows=hilbert_mod._kept_rows)
        blocks = [(block, exps) for _, block, exps, _ in hilbert_mod._kept_blocks(pruned)]
        assert [b.shape[1:] for b, _ in blocks] == [distinct_nonzero_lines(c, q.order) for c in counts]
        rng = random.Random(degree)
        p1 = _draw_prime(rng, q.order, set())
        for p in (p1, _draw_prime(rng, q.order, {p1})):
            g = _element_of_order(p, q.order)
            expected = [dense_rank(evaluate_modp(c, p, g), p) for c in counts]
            assert [modp_rank(b, p, g) for b in blocks] == expected

    def test_x5_minus_one_degree_four_counts(self):
        sym = symmetrizer(CLASS_CASES["x5-m1"], 4)
        cls = sym.orbit_class
        assert cls.size == 214
        assert int((cls == np.arange(cls.size)).sum()) == 10
        mults = [mult for mult, _, _, _ in hilbert_mod._kept_blocks(sym)]
        assert (len(mults), sum(mults)) == (10, 214)
        assert rank(sym, "modular").n_components == 214

    def test_chi_classes_come_from_the_gauge(self):
        # no x |> - preserves chi on x4, but twisted by the scalars chi(x, -)
        # every translation commutes with c, so chi has the classes of -1
        chi = CLASS_CASES["x4-chi"]
        op, ex = chi.rack.op, chi.exp
        for x in range(6):
            phi = op[x]
            assert any(ex[phi[y]][phi[z]] != ex[y][z] for y in range(6) for z in range(6))
        assert len(braided._commuting_translations(chi)) == 6
        sym = symmetrizer(chi, 5)
        assert sym.orbit_class.size == 42
        assert int((sym.orbit_class == np.arange(42)).sum()) == 6
        assert np.array_equal(sym.orbit_class, symmetrizer(M1_X4, 5).orbit_class)

    def test_forced_translations_change_a_rank(self, monkeypatch):
        # one flipped entry makes chi fail the cocycle condition, and then no
        # translation commutes with c; forcing them all in changes the ranks
        exp = [list(row) for row in chi_cocycle(4).exp]
        exp[0][1] ^= 1
        q = RackCocycle(X4, 2, tuple(map(tuple, exp)))
        assert braided._commuting_translations(q) == []
        honest = [rank(symmetrizer(q, d), "modular").rank for d in (2, 3, 4)]
        assert honest == _ranks_without_classes(monkeypatch, q, (2, 3, 4), lambda q: [])
        forced = _ranks_without_classes(monkeypatch, q, (2, 3, 4), lambda q: list(np.array(q.rack.op)))
        assert forced != honest

    def test_table_failing_the_rack_axioms(self, monkeypatch):
        # rows are bijections, but only x = 0 acts by an automorphism
        r = FiniteRack(((0, 1, 2), (0, 2, 1), (1, 0, 2)))
        assert not check_rack_axioms(r).ok
        q = minus_one_cocycle(r)
        assert len(braided._commuting_translations(q)) == 1
        honest = [rank(symmetrizer(q, d), "modular").rank for d in (2, 3, 4)]
        assert honest == _ranks_without_classes(monkeypatch, q, (2, 3, 4), lambda q: [])
        forced = _ranks_without_classes(monkeypatch, q, (2, 3, 4), lambda q: list(np.array(q.rack.op)))
        assert forced != honest


def dense_counts_of_rows(sym, rows):
    """The dense (order, len(rows), dim) count tensor of some rows of a SymmetrizerMatrix."""
    counts = np.zeros((sym.order, rows.size, sym.dim), dtype=np.int64)
    c = sym.entries
    sel = np.isin(c.row, rows)
    np.add.at(counts, (c.expo[sel], np.searchsorted(rows, c.row[sel]), c.col[sel]), c.data[sel].astype(np.int64))
    return counts


def letterwise(s, v, k, degree):
    """The basis word v of X^degree with the permutation s applied to each letter."""
    return sum(int(s[v // k**j % k]) * k**j for j in range(degree))


def _mask(rows, size):
    mask = np.zeros(size, dtype=bool)
    mask[rows] = True
    return mask


class TestPivots:
    def test_kernel_pivots_are_independent_rows(self):
        # dense and sparse matrices with planted repeated and summed rows
        rng = random.Random(13)
        p = 2**31 - 1
        for _ in range(60):
            n, c = rng.randint(1, 9), rng.randint(1, 9)
            mat = [[rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(c)] for _ in range(n)]
            if n >= 3:
                mat[0] = list(mat[1])
                mat[2] = [a + b for a, b in zip(mat[1], mat[2])]
            pivots = _pivots_dense_modp(np.array(mat, dtype=np.int64) % p, p).tolist()
            assert len(set(pivots)) == len(pivots) == rank_over_rationals(mat)
            assert rank_over_rationals([mat[i] for i in pivots]) == len(pivots)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
    def test_block_pivots_are_a_basis(self, order, monkeypatch):
        # folded rows name their source rows; the pivots are rank-many independent
        # source rows, over Q(zeta) in exact mode and mod p at a drawn prime
        rng = np.random.default_rng(20 + order)
        p = _draw_prime(random.Random(order), order, set())
        g = _element_of_order(p, order)
        for _ in range(8):
            counts = planted_counts(rng, order, int(rng.integers(6, 9)))
            block, exps, origin = _fold(*count_parts(counts), order)
            r = counts_rank_over_cyclotomic(counts, order)
            rows = origin[_pivots_exact(block, exps, order)]
            assert rows.size == r == counts_rank_over_cyclotomic(counts[:, rows], order)
            rows = origin[_pivots_modp(block, exps, p, g)]
            assert rows.size == dense_rank(evaluate_modp(counts, p, g), p)
            assert dense_rank(evaluate_modp(counts[:, rows], p, g), p) == rows.size
        # the first prime tried is forced one rank low, on a block whose bound asks
        # for a second prime (as in test_exact_bound_holds_at_a_dtype_edge):
        # the pivots come from the prime that attains the rank
        monkeypatch.setattr(hilbert_mod, "_pivots_dense_modp", shifted_kernel(_pivots_dense_modp, 2**31 - 1, -1))
        counts = np.zeros((order, 5, 5), dtype=np.int64)
        counts[0, 1:, 1:] = np.ones((4, 4), dtype=np.int64) + 127 * np.eye(4, dtype=np.int64)
        block, exps, origin = _fold(*count_parts(counts), order)
        rows = origin[_pivots_exact(block, exps, order)]
        assert sorted(rows.tolist()) == [1, 2, 3, 4]

    @pytest.mark.parametrize("name", sorted(CLASS_CASES))
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_carry_gives_every_orbit_rank_many_pivots(self, name, degree):
        # every orbit holds exactly its rank in pivots, independent in its own block,
        # the image of its head's pivots under a rack automorphism that maps the orbits
        q = CLASS_CASES[name]
        sym = symmetrizer(q, degree)
        cert = rank(sym, "modular")
        p, k = cert.primes[0], q.rack.size
        blocks = orbit_blocks_modp(sym, p, _element_of_order(p, q.order))
        reps = np.flatnonzero(sym.orbit == np.arange(sym.dim))
        owner = np.searchsorted(reps, sym.orbit[cert.pivots])
        assert cert.pivots.size == cert.rank and (np.diff(cert.pivots) > 0).all()
        op = np.array(q.rack.op)
        for i, o in enumerate(reps.tolist()):
            members = np.flatnonzero(sym.orbit == o)
            mine = cert.pivots[owner == i]
            assert mine.size == dense_rank(blocks[i].copy(), p)
            assert dense_rank(blocks[i][np.searchsorted(members, mine)], p) == mine.size
            h = int(sym.orbit_class[i])
            s = sym.orbit_carry[i].astype(np.int64)
            assert sorted(s.tolist()) == list(range(k)) and (s[op] == op[s[:, None], s]).all()
            head_members = np.flatnonzero(sym.orbit == reps[h]).tolist()
            assert sorted(letterwise(s, v, k, degree) for v in head_members) == members.tolist()
            assert sorted(letterwise(s, v, k, degree) for v in cert.pivots[owner == h].tolist()) == mine.tolist()

    def test_rank_returns_a_basis_in_both_modes(self):
        for q, degree in ((chi_cocycle(4), 4), (constant_cocycle(X3, 3, 1), 4), (constant_cocycle(X3, 4, 3), 3)):
            sym = symmetrizer(q, degree)
            for mode in ("exact", "modular"):
                cert = rank(sym, mode)
                assert cert.pivots.size == cert.rank
                if degree <= 3:
                    assert counts_rank_over_cyclotomic(dense_counts_of_rows(sym, cert.pivots), q.order) == cert.rank

    @pytest.mark.parametrize("name", sorted(CLASS_CASES))
    def test_pruned_ranks_equal_kept_row_ranks(self, name):
        # degrees 2..5 within the cap: the kept rows whose prefix is a pivot row below
        # rank like all kept rows, at both drawn primes and proven, with pivots
        # carried from the first prime (modular) or from the proof (exact)
        q = CLASS_CASES[name]
        rng = random.Random(17)
        p1 = _draw_prime(rng, q.order, set())
        p2 = _draw_prime(rng, q.order, {p1})
        moduli = [p1, p2, None]
        degrees = [d for d in range(2, 6) if q.rack.size**d <= braided.DEFAULT_DIM_CAP]
        full = {d: [t for t, _ in _kept_pivots(symmetrizer(q, d, rows=_kept_rows), moduli)] for d in degrees}
        for source in (0, 2):
            below = None
            for d in degrees:
                pruned = symmetrizer(q, d, rows=partial(_kept_rows, below=below))
                assert np.array_equal(pruned.rows, _kept_rows(pruned.orbit, pruned.orbit_class, below))
                got = _kept_pivots(pruned, moduli, below)
                assert [t for t, _ in got] == full[d]
                below = _mask(_carry(pruned, got[source][1]), pruned.dim)
                assert below.sum() == full[d][source]


class TestGradedDims:
    def test_x3_minus_one_series(self):
        report = graded_dims(M1_X3, 4, mode="exact", rack_id="x3", cocycle_id="-1")
        assert report.ranks == [1, 3, 4, 3, 1]
        assert report.methods[0] == "exact"

    def test_x3_chi_matches(self):
        report = graded_dims(chi_cocycle(3), 4, mode="exact")
        assert report.ranks == [1, 3, 4, 3, 1]

    def test_x3_dense_rational_oracle_per_degree(self):
        for degree, expected in [(1, 3), (2, 4), (3, 3), (4, 1)]:
            dense = dense_integer_matrix(symmetrizer(M1_X3, degree))
            assert rank_over_rationals(dense.tolist()) == expected

    def test_degree_shortcuts(self):
        report = graded_dims(M1_X4, 1, mode="exact")
        assert report.ranks == [1, 6]
        assert report.primes == [[], []]

    def test_closed_form_verdicts(self):
        report = graded_dims(
            chi_cocycle(4), 3, mode="exact", closed_form=[(2, 2), (3, 2), (4, 2)]
        )
        assert report.closed_form_verdicts == [True, True, True, True]
        wrong = graded_dims(chi_cocycle(4), 2, mode="exact", closed_form=[(2, 1)])
        assert not all(wrong.closed_form_verdicts)

    def test_dim_cap_error_names_degree(self):
        with pytest.raises(DimensionCapError) as err:
            graded_dims(M1_X3, 5, mode="exact", dim_cap=100)
        assert "degree 5" in str(err.value)

    def test_cap_checked_before_any_degree(self, monkeypatch):
        built = []
        real = hilbert_mod.symmetrizer

        def counting(q, degree, *args, **kwargs):
            built.append(degree)
            return real(q, degree, *args, **kwargs)

        monkeypatch.setattr(hilbert_mod, "symmetrizer", counting)
        with pytest.raises(DimensionCapError) as err:
            graded_dims(chi_cocycle(4), 7)
        assert built == []
        assert str(err.value) == "degree 7 needs dimension 279936 > cap 200000"

    def test_builds_the_rows_rank_reads(self, monkeypatch):
        # without on_matrix only the kept rows whose prefix is a pivot row below are built; with it, every row
        built = []
        real = hilbert_mod.symmetrizer

        def recording(q, degree, *args, **kwargs):
            sym = real(q, degree, *args, **kwargs)
            built.append((degree, sym.rows.size, sym.dim))
            return sym

        monkeypatch.setattr(hilbert_mod, "symmetrizer", recording)
        q = CLASS_CASES["x5-m1"]
        pruned = graded_dims(q, 4, mode="exact")
        assert built == [(2, 6, 100), (3, 20, 1000), (4, 90, 10000)]
        built.clear()
        seen = []
        full = graded_dims(q, 4, mode="exact", on_matrix=seen.append)
        assert built == [(2, 100, 100), (3, 1000, 1000), (4, 10000, 10000)]
        assert [sym.rows.size for sym in seen] == [100, 1000, 10000]
        assert pruned.to_dict() == full.to_dict()

    def test_disagreement_is_proven_on_every_kept_row(self, monkeypatch):
        # degree 3's first prime is made to disagree: the degree is proven again on
        # all its kept rows, not on the rows that the Monte Carlo pivots of degree 2 chose
        rng = random.Random(0)
        first = _draw_prime(rng, 2, set())
        second = _draw_prime(rng, 2, {first})
        p1 = _draw_prime(rng, 2, set())
        assert p1 not in (first, second)
        monkeypatch.setattr(hilbert_mod, "_pivots_dense_modp", shifted_kernel(_pivots_dense_modp, p1, 1))
        built = []
        real = hilbert_mod.symmetrizer

        def recording(q, degree, *args, **kwargs):
            sym = real(q, degree, *args, **kwargs)
            built.append((degree, sym.rows.size, _kept_rows(sym.orbit, sym.orbit_class).size))
            return sym

        monkeypatch.setattr(hilbert_mod, "symmetrizer", recording)
        report = graded_dims(chi_cocycle(4), 4)
        assert report.ranks == [1, 6, 19, 42, 71]
        assert report.methods == ["exact", "exact", hilbert_mod.CERTIFIED, FALLBACK, hilbert_mod.CERTIFIED]
        assert report.primes[3][0] == p1
        assert [d for d, _, _ in built] == [2, 3, 3, 4]
        (_, pruned, kept), (_, rebuilt, kept_again) = built[1:3]
        assert pruned < kept == rebuilt == kept_again

    def test_rank_needs_the_kept_rows(self):
        sym = symmetrizer(M1_X4, 3, rows=lambda orbit, cls: np.arange(1, orbit.size))
        with pytest.raises(ValueError, match="lacks rows"):
            rank(sym, "modular")

    def test_lift_counts_fit_in_int64(self):
        # one element and the trivial cocycle: S_d = d! id, rank 1, until d! overflows int64
        q = constant_cocycle(transposition_rack(2), 1, 0)
        assert graded_dims(q, 20, mode="exact").ranks == [1] * 21
        with pytest.raises(DimensionCapError, match="int64"):
            graded_dims(q, 21, mode="exact")

    def test_deterministic_prime_stream(self):
        a = graded_dims(M1_X4, 3, mode="modular", seed=42)
        b = graded_dims(M1_X4, 3, mode="modular", seed=42)
        assert a.primes == b.primes
        assert a.ranks == b.ranks


class TestCompareTwistSeries:
    # a twist table that satisfies the twist condition, then the series of q and of twist(q, phi)
    def test_trivial_twist_equal(self):
        from racktwist.cocycle import TwistTable

        phi = TwistTable(X4, 2, ((0,) * 6,) * 6)
        assert check_twist_condition(phi).ok
        base = graded_dims(chi_cocycle(4), 3, mode="exact")
        twisted = graded_dims(twist(chi_cocycle(4), phi), 3, mode="exact")
        assert base.ranks == twisted.ranks == [1, 6, 19, 42]

    def test_spincover_twist_equal(self):
        phi = phi_psi_table(4).twist_table()
        assert check_twist_condition(phi).ok
        base = graded_dims(chi_cocycle(4), 3, mode="exact")
        twisted = graded_dims(twist(chi_cocycle(4), phi), 3, mode="exact")
        assert [a == b for a, b in zip(base.ranks, twisted.ranks)] == [True] * 4

    def test_invalid_twist_table_rejected(self):
        from racktwist.cocycle import TwistTable

        bad_rows = [[0] * 6 for _ in range(6)]
        bad_rows[0][1] = 1
        bad_rows[1][0] = 1
        bad_rows[0][2] = 1
        bad = TwistTable(X4, 2, tuple(tuple(r) for r in bad_rows))
        assert not check_twist_condition(bad).ok
