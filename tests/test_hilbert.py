import math
import random
import re
from functools import partial

import numpy as np
import pytest

from oracles import (
    counts_rank_over_cyclotomic,
    cocycle_first_failure,
    commuting_translations,
    cyclotomic_polynomial,
    dense_integer_matrix,
    disagree_at,
    distinct_nonzero_lines,
    evaluate_modp,
    first_independent_rows_modp,
    is_palindromic,
    orbit_classes_by_translation,
    orbit_blocks_modp,
    orbit_count_blocks,
    rank_over_cyclotomic,
    rank_over_rationals,
    translation_classes,
    unpruned_graded_dims,
    value_at_one,
)
from racktwist import braided, nichols
from racktwist import cocycle as cocycle_mod
from racktwist import exact as exact_mod
from racktwist import hilbert as hilbert_mod
from racktwist import rack as rack_mod
from racktwist.cocycle import (
    RackCocycle,
    check_twist_condition,
    chi_cocycle,
    constant_cocycle,
    minus_one_cocycle,
    twist,
)
from racktwist.errors import DimensionCapError, RackAxiomError
from racktwist.exact import (
    _carry,
    _fold,
    _kept_pivots,
    _kept_rows,
    _pivots_exact,
    _pivots_modp,
    rank,
    symmetrizer,
)
from racktwist.hilbert import (
    CERTIFIED,
    FALLBACK,
    MAX_DEGREE,
    _draw_prime,
    _element_of_order,
    _is_prime_u32,
    expand_closed_form,
    graded_dims,
)
from racktwist.rack import FiniteRack, check_rack_axioms, transposition_rack
from racktwist.spincover import phi_psi_table

X3 = transposition_rack(3)
X4 = transposition_rack(4)
M1_X3 = minus_one_cocycle(X3)
M1_X4 = minus_one_cocycle(X4)


def fold_one(cells, expo, data, shape, order):
    """exact._fold on a block whose entries stand at row-major cells: (block, exps, origin)."""
    rows, cols = np.divmod(cells, shape[1])
    return _fold(rows, cols, expo, data, shape, order)


FOLD_ORDERS = [1, 2, 3, 4, 6, 2**20]


def fold_setup(order):
    """(classes, stride, rng, p, g) for planted fold inputs of a cocycle order.

    At order 2^20 the planted tensor has 8 classes, class e standing for
    zeta^(e * 2^17), a primitive 8th root of unity; a rank over Q(zeta_8)
    is the rank over Q(zeta_(2^20)), and mod p zeta^(2^17) maps to g^(2^17).
    """
    classes = min(order, 8)
    p = _draw_prime(random.Random(order), order, set())
    return classes, order // classes, np.random.default_rng(order), p, _element_of_order(p, order)


def square_block(mat):
    """An integer matrix, padded square with zeros, folded at order 1 (fold_one)."""
    a = np.asarray(mat, dtype=np.int64)
    size = max(a.shape)
    flat = np.zeros((size, size), dtype=np.int64)
    flat[: a.shape[0], : a.shape[1]] = a
    flat = flat.ravel()
    cells = np.flatnonzero(flat)
    return fold_one(cells, np.zeros_like(cells), flat[cells], (size, size), 1)[:2]


def kernel_pivots(a, p):
    """The rows of an int64 matrix that the elimination kernel pivots on mod p: _pivots_modp on it as one slice."""
    return _pivots_modp(np.asarray(a, dtype=np.int64)[None], np.zeros(1, dtype=np.int64), p, 1)


def dense_rank(a, p):
    """The rank mod p of an int64 matrix: the number of rows the elimination kernel pivots on."""
    return kernel_pivots(a, p).size


def exact_rank(folded, order):
    """The proven rank of a folded block given as (block, exps), the first two results of fold_one."""
    return _pivots_exact(*folded, order).size


def modp_rank(folded, p, g):
    return _pivots_modp(*folded, p, g).size


def shifted_kernel(real, prime, step):
    """The elimination kernel, with one pivot repeated (step 1) or dropped (step -1) mod `prime`.

    Rank, the number of pivots, moves by step on every matrix it eliminates
    mod `prime`; those are nonzero, so they have a pivot to drop.
    """

    def kernel(block, exps, p, g):
        pivots = real(block, exps, p, g)
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
    """(cells, expo, data, shape) as in exact._kept_blocks for a dense (m, n, n) count tensor.

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
        assert report["closed_form_verdicts"] == [True, False, False, False]
        report = graded_dims(M1_X3, 4, mode="exact", closed_form=[(2, 2), (3, 1), (1, 99_999_999)])
        assert report["closed_form_verdicts"] == [True] * 5

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
        monkeypatch.setattr(exact_mod, "symmetrizer", lambda *args, **kwargs: pytest.fail("built a degree"))
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

    def test_exact_rank_stops_at_the_smaller_side(self, monkeypatch):
        # rank 2 on a 2 x 3 block and on its transpose: no minor of order 3
        # exists, so one prime proves it; the Hadamard bound raised to
        # phi(2^20) = 2^19 is never met by the primes = 1 mod 2^20 below 2^31
        calls = []
        real = exact_mod._pivots_modp
        monkeypatch.setattr(exact_mod, "_pivots_modp", lambda *args: calls.append(args) or real(*args))
        mat = np.array([[5, 7, 9], [1, 2, 3]], dtype=np.int8)
        for a in (mat, mat.T):
            calls.clear()
            assert _pivots_exact(a[None], np.zeros(1, dtype=np.int64), 2**20).size == 2
            assert len(calls) == 1

    def test_exact_bound_holds_at_a_dtype_edge(self, monkeypatch):
        # entries up to 128 = the largest count: the column bound must hold
        # 128 itself, not wrap in int8.  The first prime is forced one rank
        # lower; the honest bound (4 * 128^2)^4 > (2^31 - 1)^2 asks for more
        real = exact_mod._pivots_modp
        monkeypatch.setattr(exact_mod, "_pivots_modp", shifted_kernel(real, 2**31 - 1, -1))
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
            assert exact_rank(fold_one(cells, expo, np.abs(flat[cells]), (n, n), 2)[:2], 2) == rank_over_rationals(mat.tolist())

    @pytest.mark.parametrize("order", FOLD_ORDERS)
    def test_fold_drops_only_zero_and_repeated_lines(self, order):
        classes, stride, rng, p, g = fold_setup(order)
        for _ in range(10):
            counts = planted_counts(rng, classes, int(rng.integers(6, 9)))
            block, exps, origin = fold_one(*count_parts(counts, stride), order)
            assert block.shape[1:] == distinct_nonzero_lines(counts, classes)
            # one source row per folded row, and never a zero one
            assert len(set(origin.tolist())) == origin.size == block.shape[1]
            assert counts[:, origin].any(axis=(0, 2)).all()
            assert exact_rank((block, exps), order) == counts_rank_over_cyclotomic(counts, classes)
            assert modp_rank((block, exps), p, g) == dense_rank(evaluate_modp(counts, p, pow(g, stride, p)), p)

    @pytest.mark.parametrize("order", FOLD_ORDERS)
    def test_entries_in_any_order_fold_alike(self, order):
        # the entries shuffled, or in (cell, exponent) order as _kept_blocks cuts them
        classes, stride, rng, _, _ = fold_setup(order)
        for _ in range(10):
            cells, expo, data, shape = count_parts(planted_counts(rng, classes, int(rng.integers(6, 9))), stride)
            block, exps, origin = fold_one(cells, expo, data, shape, order)
            for by in (rng.permutation(cells.size), np.lexsort((expo, cells))):
                again = fold_one(cells[by], expo[by], data[by], shape, order)
                assert again[0].dtype == block.dtype
                for got, expected in zip(again, (block, exps, origin)):
                    assert got.shape == expected.shape and np.array_equal(got, expected)

    @pytest.mark.parametrize("order", FOLD_ORDERS)
    def test_empty_and_cancelling_blocks_fold_to_nothing(self, order):
        # a block with no entries, one with no rows, and blocks whose entries cancel: against
        # the same entries negated, and for even order against the same counts times
        # zeta^(order/2) = -1
        classes, stride, rng, p, g = fold_setup(order)
        counts = planted_counts(rng, classes, int(rng.integers(6, 9)))
        cells, expo, data, shape = count_parts(counts, stride)
        empty = np.zeros(0, dtype=np.int64)
        no_expo = empty.astype(expo.dtype)
        zero_blocks = [(empty, no_expo, empty, (4, 4)), (empty, no_expo, empty, (0, 5))]
        zero_blocks.append((np.tile(cells, 2), np.tile(expo, 2), np.concatenate((data, -data)), shape))
        if classes % 2 == 0:
            paired = np.concatenate((counts[: classes // 2], counts[: classes // 2]))
            zero_blocks.append(count_parts(paired, stride))
        for cells, expo, data, shape in zero_blocks:
            mix = rng.permutation(cells.size)
            block, exps, origin = fold_one(cells[mix], expo[mix], data[mix], shape, order)
            assert block.shape == (0, 0, 0) and exps.size == origin.size == 0
            assert exact_rank((block, exps), order) == modp_rank((block, exps), p, g) == 0

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
        sym = symmetrizer(M1_X4, 1)
        assert (rank(sym).rank, sym.dim) == (6, 6)

    def test_q2_x4_rank19_with_oracle(self):
        sym = symmetrizer(M1_X4, 2)
        dense = dense_integer_matrix(sym)
        assert rank_over_rationals(dense.tolist()) == 19
        assert rank(sym).rank == 19
        assert graded_dims(M1_X4, 2)["ranks"][2] == 19

    def test_q2_x3_rank4_with_oracle(self):
        sym = symmetrizer(M1_X3, 2)
        dense = dense_integer_matrix(sym)
        assert rank_over_rationals(dense.tolist()) == 4
        assert rank(sym).rank == 4

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_exact_equals_modular_x3(self, degree):
        # the proven rank of the symmetrizer against the Leibniz recursion modulo the pair of seed `degree`
        for q in (M1_X3, chi_cocycle(3)):
            assert rank(symmetrizer(q, degree)).rank == graded_dims(q, degree, seed=degree)["ranks"][degree]

    @pytest.mark.parametrize("degree", [2, 3])
    def test_exact_equals_modular_x4(self, degree):
        for q in (M1_X4, chi_cocycle(4)):
            assert rank(symmetrizer(q, degree)).rank == graded_dims(q, degree, seed=degree)["ranks"][degree]

    def test_exact_limit_applies_per_block(self):
        # exact mode ranks every block, with no limit on its size
        sym = symmetrizer(chi_cocycle(4), 3)  # dimension 216, largest orbit 16
        assert (rank(sym).rank, sym.dim) == (42, 216)

    def test_order_three_disagreement_falls_back_to_exact(self, monkeypatch):
        # as below, at order 3: the fallback proves the rank over Q(zeta_3)
        sym = symmetrizer(constant_cocycle(X3, 3, 1), 3)
        p1 = _draw_prime(random.Random(0), 3, set())
        disagree_at(monkeypatch, 3)
        report = graded_dims(constant_cocycle(X3, 3, 1), 3)
        assert report["methods"][3] == "exact (fallback after modular disagreement)"
        assert report["ranks"][3] == rank_over_cyclotomic(sym) == 21
        assert report["primes"][3][0] == p1 and len(set(report["primes"][3])) == len(report["primes"][3]) == 2

    def test_disagreement_falls_back_to_exact(self, monkeypatch):
        # a first prime at which every Phi_r of degree 3 vanishes makes the
        # primes disagree; the proven rank is reported with both primes
        p1 = _draw_prime(random.Random(0), 2, set())
        disagree_at(monkeypatch, 3)
        report = graded_dims(chi_cocycle(4), 3)
        assert report["methods"][3] == "exact (fallback after modular disagreement)"
        assert report["ranks"][3] == 42
        assert report["primes"][3][0] == p1 and len(set(report["primes"][3])) == len(report["primes"][3]) == 2

    def test_proof_cuts_each_block_once(self, monkeypatch):
        passes = []
        real = exact_mod._kept_blocks

        def counting(sym, below=None):
            passes.append(0)
            for block in real(sym, below):
                passes[-1] += 1
                yield block

        monkeypatch.setattr(exact_mod, "_kept_blocks", counting)
        sym = symmetrizer(chi_cocycle(4), 4)
        assert rank(sym).rank == 71
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
            assert rank(sym).rank == value
        assert graded_dims(q, 3)["ranks"][2:] == expected

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
        low = shifted_kernel(exact_mod._pivots_modp, first, -1)

        def recording(block, exps, p, g):
            tried.append(p)
            return low(block, exps, p, g)

        monkeypatch.setattr(exact_mod, "_pivots_modp", recording)
        sym = symmetrizer(constant_cocycle(X3, 3, 1), 4)
        assert rank(sym).rank == 50
        assert tried[0] == first and all(p % 3 == 1 for p in tried)

    def test_exact_rank_outlives_a_bad_first_prime_at_order_three(self):
        # zeta - g lies in the prime above 2^31 - 1 where zeta -> g, so it has
        # rank 0 there; its norm g^2 + g + 1 is below (g + 1)^phi(3) but not
        # below the unsquared bound (g + 1)^2, so a second prime is needed
        first = 2**31 - 1
        g = _element_of_order(first, 3)
        assert (g * g + g + 1) % first == 0 and (g + 1) ** 2 < first**2
        parts = np.array([0, 0]), np.array([0, 1]), np.array([-g, 1]), (1, 1)
        assert modp_rank(fold_one(*parts, 3)[:2], first, g) == 0
        assert exact_rank(fold_one(*parts, 3)[:2], 3) == 1

    def test_modular_with_higher_order(self):
        # constant zeta_4 cocycle: modular ranks must work with p = 1 mod 4
        report = graded_dims(constant_cocycle(X3, 4, 1), 2, seed=1)
        assert all(p % 4 == 1 for p in report["primes"][2])
        assert 0 < report["ranks"][2] <= 9

    def test_modular_certificate_contents(self):
        report = graded_dims(M1_X4, 2, seed=9)
        assert report["methods"][2] == "modular-certified (Monte Carlo)"
        assert len(report["primes"][2]) == 2 and report["primes"][2][0] != report["primes"][2][1]
        assert report["ranks"][2] == 19

    def test_default_seed_draws_as_seed_zero(self):
        # the pair is the first two draws of random.Random(seed), the second avoiding the first
        rng = random.Random(0)
        p1 = _draw_prime(rng, 2, set())
        pair = [p1, _draw_prime(rng, 2, {p1})]
        assert graded_dims(M1_X4, 3)["primes"] == [[], [], pair, pair] == graded_dims(M1_X4, 3, seed=0)["primes"]

    @pytest.mark.parametrize("degree", [5, 6])
    def test_x3_minus_one_classes_cancel(self, degree):
        # both exponent classes are nonzero, but their sum mod p is the zero matrix
        sym = symmetrizer(M1_X3, degree)
        assert set(sym.entries.expo.tolist()) == {0, 1}
        assert rank(sym).rank == 0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            graded_dims(M1_X3, 2, mode="float")


CLASS_CASES = {
    "x3-m1": M1_X3,
    "x4-m1": M1_X4,
    "x5-m1": minus_one_cocycle(transposition_rack(5)),
    "x3-const31": constant_cocycle(X3, 3, 1),
    "x3-const43": constant_cocycle(X3, 4, 3),
    "x4-chi": chi_cocycle(4),
}


def assert_refused(q, kind, witness):
    """graded_dims refuses q in both modes at degrees 0, 1, 2 and 4, naming the kind and witness."""
    for mode in ("exact", "modular"):
        for degree in (0, 1, 2, 4):
            with pytest.raises(RackAxiomError, match=f"^{kind} at {re.escape(str(witness))}: "):
                graded_dims(q, degree, mode=mode)


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
        assert exact_mod._kept_pivots(sym)[0] == weighted

    @pytest.mark.parametrize("name", ["x3-m1", "x3-const31", "x3-const43", "x4-chi", "x5-m1"])
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_folded_blocks_match_the_oracle_blocks(self, name, degree):
        # each kept block, folded and compacted, against its count block in the full matrix
        q = CLASS_CASES[name]
        sym = symmetrizer(q, degree)
        heads = np.flatnonzero(sym.orbit_class == np.arange(sym.orbit_class.size))
        every = orbit_count_blocks(sym)
        counts = [every[h] for h in heads]
        pruned = symmetrizer(q, degree, rows=exact_mod._kept_rows)
        blocks = [(block, exps) for _, block, exps, _ in exact_mod._kept_blocks(pruned)]
        assert [b.shape[1:] for b, _ in blocks] == [distinct_nonzero_lines(c, q.order) for c in counts]
        rng = random.Random(degree)
        p1 = _draw_prime(rng, q.order, set())
        for p in (p1, _draw_prime(rng, q.order, {p1})):
            g = _element_of_order(p, q.order)
            expected = [dense_rank(evaluate_modp(c, p, g), p) for c in counts]
            assert [modp_rank(b, p, g) for b in blocks] == expected

    @pytest.mark.parametrize("name", sorted(CLASS_CASES))
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_classes_and_carries_match_the_translation_loop(self, name, degree):
        q = CLASS_CASES[name]
        sym = symmetrizer(q, degree)
        label, carry = orbit_classes_by_translation(q, degree, sym.orbit)
        assert sym.orbit_class.tolist() == label
        assert np.array_equal(sym.orbit_carry, carry)
        # each carry maps the members of its head orbit onto the members of its orbit
        k = q.rack.size
        reps = np.flatnonzero(sym.orbit == np.arange(sym.dim))
        place = k ** np.arange(degree)
        for i, head in enumerate(sym.orbit_class.tolist()):
            members = np.flatnonzero(sym.orbit == reps[head])
            image = sym.orbit_carry[i][members[:, None] // place % k] @ place
            assert sorted(image.tolist()) == np.flatnonzero(sym.orbit == reps[i]).tolist()

    def test_graded_dims_scans_the_triples_once(self, monkeypatch):
        # self-distributivity and the cocycle condition are decided in one scan, in both modes
        calls = []
        real = rack_mod._first_failure

        def counting(op, masks):
            calls.append(len(masks))
            return real(op, masks)

        monkeypatch.setattr(rack_mod, "_first_failure", counting)
        for mode in ("exact", "modular"):
            assert graded_dims(chi_cocycle(4), 5, mode=mode)["ranks"] == [1, 6, 19, 42, 71, 96]
        assert calls == [2, 2]

    def test_x5_minus_one_degree_four_counts(self):
        sym = symmetrizer(CLASS_CASES["x5-m1"], 4)
        cls = sym.orbit_class
        assert cls.size == 214
        assert int((cls == np.arange(cls.size)).sum()) == 10
        mults = [mult for mult, _, _, _ in exact_mod._kept_blocks(sym)]
        assert (len(mults), sum(mults)) == (10, 214)
        # the blocks of the 214 orbits, ten of them ranked, give the coefficient of t^4 in the series
        assert rank(sym).rank == expand_closed_form([(4, 4), (5, 2), (6, 4)])[4]

    def test_chi_classes_come_from_the_gauge(self):
        # no x |> - preserves chi on x4, but twisted by the scalars chi(x, -)
        # every translation commutes with c, so chi has the classes of -1
        chi = CLASS_CASES["x4-chi"]
        op, ex = chi.rack.op, chi.exp
        for x in range(6):
            phi = op[x]
            assert any(ex[phi[y]][phi[z]] != ex[y][z] for y in range(6) for z in range(6))
        assert len(commuting_translations(chi)) == 6
        assert cocycle_mod.check_rack_cocycle(chi) is None
        sym = symmetrizer(chi, 5)
        assert sym.orbit_class.size == 42
        assert int((sym.orbit_class == np.arange(42)).sum()) == 6
        assert np.array_equal(sym.orbit_class, symmetrizer(M1_X4, 5).orbit_class)

    def test_non_cocycle_is_refused(self):
        # one flipped entry makes chi fail the cocycle condition, and then no translation
        # commutes with c, so the classes of the symmetrizer would not hold; graded_dims names
        # the triple that cocycle --check reports
        exp = [list(row) for row in chi_cocycle(4).exp]
        exp[0][1] ^= 1
        q = RackCocycle(X4, 2, tuple(map(tuple, exp)))
        assert commuting_translations(q) == []
        witness = cocycle_mod.check_rack_cocycle(q)["witness"]
        assert witness == cocycle_first_failure(q) == (0, 2, 1)
        assert_refused(q, "not-a-cocycle", witness)

    def test_table_failing_the_rack_axioms(self):
        # rows are bijections, but only x = 0 acts by an automorphism; graded_dims names the
        # triple that rack --check reports, before any cap
        r = FiniteRack(((0, 1, 2), (0, 2, 1), (1, 0, 2)))
        q = minus_one_cocycle(r)
        assert len(commuting_translations(q)) == 1
        assert check_rack_axioms(r) == {"kind": "not-self-distributive", "witness": (1, 1, 0)}
        assert_refused(q, "not-self-distributive", (1, 1, 0))
        with pytest.raises(RackAxiomError, match=r"^not-self-distributive at \(1, 1, 0\): "):
            graded_dims(q, 10**20, dim_cap=1)


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
            pivots = kernel_pivots(np.array(mat, dtype=np.int64) % p, p).tolist()
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
            block, exps, origin = fold_one(*count_parts(counts), order)
            r = counts_rank_over_cyclotomic(counts, order)
            rows = origin[_pivots_exact(block, exps, order)]
            assert rows.size == r == counts_rank_over_cyclotomic(counts[:, rows], order)
            rows = origin[_pivots_modp(block, exps, p, g)]
            assert rows.size == dense_rank(evaluate_modp(counts, p, g), p)
            assert dense_rank(evaluate_modp(counts[:, rows], p, g), p) == rows.size
        # the first prime tried is forced one rank low, on a block whose bound asks
        # for a second prime (as in test_exact_bound_holds_at_a_dtype_edge):
        # the pivots come from the prime that attains the rank
        monkeypatch.setattr(exact_mod, "_pivots_modp", shifted_kernel(_pivots_modp, 2**31 - 1, -1))
        counts = np.zeros((order, 5, 5), dtype=np.int64)
        counts[0, 1:, 1:] = np.ones((4, 4), dtype=np.int64) + 127 * np.eye(4, dtype=np.int64)
        block, exps, origin = fold_one(*count_parts(counts), order)
        rows = origin[_pivots_exact(block, exps, order)]
        assert sorted(rows.tolist()) == [1, 2, 3, 4]

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
    def test_block_pivots_are_the_first_independent_rows(self, order):
        # on folded blocks, planted and of low rank, the pivots mod p are exactly the rows
        # that raise the rank when the rows are walked in order, found in Python ints
        rng = np.random.default_rng(40 + order)
        p = _draw_prime(random.Random(order), order, set())
        g = _element_of_order(p, order)
        for trial in range(12):
            n = int(rng.integers(6, 9))
            if trial % 2:
                counts = planted_counts(rng, order, n)
            else:
                inner = int(rng.integers(1, n))
                counts = rng.integers(0, 3, (order, n, inner)) @ rng.integers(0, 3, (inner, n))
            block, exps, _ = fold_one(*count_parts(counts), order)
            powers = [pow(g, e, p) for e in exps.tolist()]
            rows = [[sum(c * z for c, z in zip(cell, powers)) for cell in zip(*row)] for row in zip(*block.tolist())]
            assert _pivots_modp(block, exps, p, g).tolist() == first_independent_rows_modp(rows, p)

    @pytest.mark.parametrize("name", sorted(CLASS_CASES))
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_carry_gives_every_orbit_rank_many_pivots(self, name, degree):
        # every orbit holds exactly its rank in pivots, independent in its own block,
        # the image of its head's pivots under a rack automorphism that maps the orbits
        q = CLASS_CASES[name]
        sym = symmetrizer(q, degree)
        cert = rank(sym)
        p, k = _draw_prime(random.Random(degree), q.order, set()), q.rack.size
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

    def test_rank_returns_a_basis(self):
        for q, degree in ((chi_cocycle(4), 4), (constant_cocycle(X3, 3, 1), 4), (constant_cocycle(X3, 4, 3), 3)):
            sym = symmetrizer(q, degree)
            cert = rank(sym)
            assert cert.pivots.size == cert.rank
            if degree <= 3:
                assert counts_rank_over_cyclotomic(dense_counts_of_rows(sym, cert.pivots), q.order) == cert.rank

    @pytest.mark.parametrize("name", sorted(CLASS_CASES))
    def test_pruned_ranks_equal_kept_row_ranks(self, name):
        # degrees 2..5 within the cap: the kept rows whose prefix is a pivot row below
        # have the proven rank of all kept rows, with pivots carried from the proof
        q = CLASS_CASES[name]
        degrees = [d for d in range(2, 6) if q.rack.size**d <= braided.DEFAULT_DIM_CAP]
        full = {d: _kept_pivots(symmetrizer(q, d, rows=_kept_rows))[0] for d in degrees}
        below = None
        for d in degrees:
            pruned = symmetrizer(q, d, rows=partial(_kept_rows, below=below))
            assert np.array_equal(pruned.rows, _kept_rows(pruned.orbit, pruned.orbit_class, below))
            total, pivots = _kept_pivots(pruned, below)
            assert total == full[d]
            below = _mask(_carry(pruned, pivots), pruned.dim)
            assert below.sum() == full[d]


    @pytest.mark.parametrize("name", ["x3-const31", "x4-chi"])
    @pytest.mark.parametrize("first", [2, 3])
    def test_ranks_yields_the_proven_rank_of_every_degree(self, name, first, monkeypatch):
        # from degree 2, and from 3 as after a disagreement: the first degree is built on
        # every kept row, each later one on fewer, and every rank is that of the full symmetrizer
        q = CLASS_CASES[name]
        expected = [rank(symmetrizer(q, d)).rank for d in range(first, 6)]
        built = []
        real = exact_mod.symmetrizer

        def recording(q, degree, *args, **kwargs):
            sym = real(q, degree, *args, **kwargs)
            built.append((sym.rows.size, _kept_rows(sym.orbit, sym.orbit_class).size))
            return sym

        monkeypatch.setattr(exact_mod, "symmetrizer", recording)
        assert list(exact_mod.ranks(q, first, 5, braided.DEFAULT_DIM_CAP)) == expected
        assert built[0][0] == built[0][1] and all(rows <= kept for rows, kept in built)
        assert len(built) == 6 - first


class TestGradedDims:
    def test_x3_minus_one_series(self):
        report = graded_dims(M1_X3, 4, mode="exact")
        assert report["ranks"] == [1, 3, 4, 3, 1]
        assert report["methods"][0] == "exact"

    def test_x3_chi_matches(self):
        report = graded_dims(chi_cocycle(3), 4, mode="exact")
        assert report["ranks"] == [1, 3, 4, 3, 1]

    def test_x3_dense_rational_oracle_per_degree(self):
        for degree, expected in [(1, 3), (2, 4), (3, 3), (4, 1)]:
            dense = dense_integer_matrix(symmetrizer(M1_X3, degree))
            assert rank_over_rationals(dense.tolist()) == expected

    def test_degree_shortcuts(self):
        report = graded_dims(M1_X4, 1, mode="exact")
        assert report["ranks"] == [1, 6]
        assert report["primes"] == [[], []]

    def test_closed_form_verdicts(self):
        report = graded_dims(
            chi_cocycle(4), 3, mode="exact", closed_form=[(2, 2), (3, 2), (4, 2)]
        )
        assert report["closed_form_verdicts"] == [True, True, True, True]
        wrong = graded_dims(chi_cocycle(4), 2, mode="exact", closed_form=[(2, 1)])
        assert not all(wrong["closed_form_verdicts"])

    def test_dim_cap_error_names_degree(self):
        with pytest.raises(DimensionCapError) as err:
            graded_dims(M1_X3, 5, mode="exact", dim_cap=100)
        assert "degree 5" in str(err.value)

    def test_cap_checked_before_any_degree(self, monkeypatch):
        # exact mode decides the symmetrizer's caps for max_degree before it builds any degree;
        # a modular run builds no symmetrizer, so the same degree is within its caps
        built = []
        real = exact_mod.symmetrizer

        def counting(q, degree, *args, **kwargs):
            built.append(degree)
            return real(q, degree, *args, **kwargs)

        monkeypatch.setattr(exact_mod, "symmetrizer", counting)
        with pytest.raises(DimensionCapError) as err:
            graded_dims(chi_cocycle(4), 7, mode="exact")
        assert built == []
        assert str(err.value) == "degree 7 needs dimension 279936 > cap 200000"
        assert graded_dims(chi_cocycle(4), 7)["ranks"] == [1, 6, 19, 42, 71, 96, 106, 96]
        assert built == []

    @pytest.mark.parametrize("cap, refused", [(58 * 58 - 1, True), (58 * 58, False)])
    def test_phi_past_the_cap_is_refused_before_it_is_built(self, monkeypatch, cap, refused):
        # x4 chi: the largest Phi_r has side 58, at degree 7; a cap one entry short refuses
        # degree 7 before any Phi_r of it is allocated, and the exact cap runs to degree 12
        built = []
        real = nichols.LeibnizEngine._phi

        def recording(engine, d, *args):
            built.append(d)
            return real(engine, d, *args)

        monkeypatch.setattr(nichols.LeibnizEngine, "_phi", recording)
        if refused:
            with pytest.raises(DimensionCapError) as err:
                graded_dims(chi_cocycle(4), 12, dim_cap=cap)
            assert str(err.value) == f"degree 7 needs a Phi_r of side 58, 3364 entries > cap {cap}"
            assert max(built) == 6
        else:
            assert graded_dims(chi_cocycle(4), 12, dim_cap=cap)["ranks"] == expand_closed_form([(2, 2), (3, 2), (4, 2)])
            assert max(built) == 12

    def test_fallback_past_the_symmetrizer_caps_names_its_degree(self, monkeypatch):
        # the primes disagree at degree 7, whose symmetrizer is past the cap: no rank is claimed for it
        disagree_at(monkeypatch, 7)
        with pytest.raises(DimensionCapError) as err:
            graded_dims(chi_cocycle(4), 8)
        assert str(err.value) == "degree 7 needs dimension 279936 > cap 200000"

    def test_huge_degree_refused_before_the_engine_and_the_closed_form(self, monkeypatch):
        one = minus_one_cocycle(FiniteRack(((0,),)))
        for mode in ("modular", "exact"):
            for max_degree in (MAX_DEGREE + 1, 10**20):
                with monkeypatch.context() as patch:
                    patch.setattr(hilbert_mod, "LeibnizEngine", lambda *args: pytest.fail("ran the engine"))
                    patch.setattr(hilbert_mod, "expand_closed_form", lambda *args: pytest.fail("expanded"))
                    with pytest.raises(DimensionCapError) as err:
                        graded_dims(one, max_degree, mode=mode, closed_form=[(2, 10**11)])
                message = f"degree {max_degree} is past degree {MAX_DEGREE}, the highest that a report lists"
                assert str(err.value) == message
        # the bound itself is listed: -1 on one element has ranks 1, 1, then 0
        assert graded_dims(one, MAX_DEGREE)["ranks"] == [1, 1] + [0] * (MAX_DEGREE - 1)

    def test_builds_the_rows_rank_reads(self, monkeypatch):
        # graded_dims builds only the kept rows whose prefix is a pivot row below;
        # the unpruned oracle builds every row, and both give the same report
        built = []
        real = exact_mod.symmetrizer

        def recording(q, degree, *args, **kwargs):
            sym = real(q, degree, *args, **kwargs)
            built.append((degree, sym.rows.size, sym.dim))
            return sym

        monkeypatch.setattr(exact_mod, "symmetrizer", recording)
        q = CLASS_CASES["x5-m1"]
        pruned = graded_dims(q, 4, mode="exact")
        assert built == [(2, 6, 100), (3, 20, 1000), (4, 90, 10000)]
        built.clear()
        full = unpruned_graded_dims(q, 4)
        assert built == [(0, 1, 1), (1, 10, 10), (2, 100, 100), (3, 1000, 1000), (4, 10000, 10000)]
        assert pruned == full

    @pytest.mark.parametrize("cocycle", [(4, 3), (3, 1)], ids=["const:4:3", "const:3:1"])
    def test_pruned_and_unpruned_reports_agree(self, cocycle):
        # at an even order (4, where zeta^2 = -1 folds exponents in pairs) and an odd one (3):
        # the proven reports agree whole, the modular ranks agree with them, and every
        # modular degree from 2 on is certified by the pair drawn from the seed
        q = constant_cocycle(X3, *cocycle)
        full = unpruned_graded_dims(q, 6)
        assert graded_dims(q, 6, mode="exact") == full
        modular = graded_dims(q, 6)
        assert modular["ranks"] == full["ranks"]
        assert modular["methods"] == ["exact"] * 2 + [CERTIFIED] * 5
        rng = random.Random(0)
        p1 = _draw_prime(rng, q.order, set())
        assert modular["primes"] == [[], []] + [[p1, _draw_prime(rng, q.order, {p1})]] * 5

    def test_disagreement_is_proven_on_every_kept_row(self, monkeypatch):
        # the primes are made to disagree at degree 3: the degree is proven on all its
        # kept rows, as no degree below has proven pivots, and degree 4 on the kept rows
        # whose prefix is one of those; both on the symmetrizer, and no other degree is
        rng = random.Random(0)
        p1 = _draw_prime(rng, 2, set())
        p2 = _draw_prime(rng, 2, {p1})
        disagree_at(monkeypatch, 3)
        built = []
        real = exact_mod.symmetrizer

        def recording(q, degree, *args, **kwargs):
            sym = real(q, degree, *args, **kwargs)
            built.append((degree, sym.rows.size, _kept_rows(sym.orbit, sym.orbit_class).size))
            return sym

        monkeypatch.setattr(exact_mod, "symmetrizer", recording)
        report = graded_dims(chi_cocycle(4), 4)
        assert report["ranks"] == [1, 6, 19, 42, 71]
        assert report["methods"] == ["exact", "exact", CERTIFIED, FALLBACK, "exact"]
        assert report["primes"] == [[], [], [p1, p2], [p1, p2], []]
        assert [d for d, _, _ in built] == [3, 4]
        (_, rows3, kept3), (_, rows4, kept4) = built
        assert rows3 == kept3 and rows4 < kept4

    def test_rank_needs_the_kept_rows(self):
        sym = symmetrizer(M1_X4, 3, rows=lambda orbit, cls: np.arange(1, orbit.size))
        with pytest.raises(ValueError, match="lacks rows"):
            rank(sym)

    def test_lift_counts_fit_in_int64(self):
        # one element and the trivial cocycle: S_d = d! id, rank 1, until d! overflows int64
        q = constant_cocycle(transposition_rack(2), 1, 0)
        assert graded_dims(q, 20, mode="exact")["ranks"] == [1] * 21
        with pytest.raises(DimensionCapError, match="int64"):
            graded_dims(q, 21, mode="exact")

    def test_deterministic_prime_stream(self):
        a = graded_dims(M1_X4, 3, mode="modular", seed=42)
        b = graded_dims(M1_X4, 3, mode="modular", seed=42)
        assert a["primes"] == b["primes"]
        assert a["ranks"] == b["ranks"]


class TestCompareTwistSeries:
    # a twist table that satisfies the twist condition, then the series of q and of twist(q, phi)
    def test_trivial_twist_equal(self):
        from racktwist.cocycle import TwistTable

        phi = TwistTable(X4, 2, ((0,) * 6,) * 6)
        assert check_twist_condition(phi) is None
        base = graded_dims(chi_cocycle(4), 3, mode="exact")
        twisted = graded_dims(twist(chi_cocycle(4), phi), 3, mode="exact")
        assert base["ranks"] == twisted["ranks"] == [1, 6, 19, 42]

    def test_spincover_twist_equal(self):
        phi = phi_psi_table(4).twist_table()
        assert check_twist_condition(phi) is None
        base = graded_dims(chi_cocycle(4), 3, mode="exact")
        twisted = graded_dims(twist(chi_cocycle(4), phi), 3, mode="exact")
        assert [a == b for a, b in zip(base["ranks"], twisted["ranks"])] == [True] * 4

    def test_invalid_twist_table_rejected(self):
        from racktwist.cocycle import TwistTable

        bad_rows = [[0] * 6 for _ in range(6)]
        bad_rows[0][1] = 1
        bad_rows[1][0] = 1
        bad_rows[0][2] = 1
        bad = TwistTable(X4, 2, tuple(tuple(r) for r in bad_rows))
        assert check_twist_condition(bad) is not None
