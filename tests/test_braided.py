import math
import random

import numpy as np
import pytest

from oracles import (
    brute_force_symmetrizer,
    brute_force_symmetrizer_modp,
    coxeter_length,
    dense_counts,
    dense_integer_matrix,
    dense_modp_matrix,
    dense_strand_matrix,
    hurwitz_orbits,
    inverse_operator,
    largest_descent_word,
    support_components,
)
from racktwist.braided import (
    BraidWord,
    MonomialOperator,
    check_braid_equation,
    export_symmetrizer,
    rho,
    symmetrizer,
)
from racktwist.cocycle import RackCocycle, chi_cocycle, constant_cocycle, minus_one_cocycle
from racktwist.errors import DimensionCapError
from racktwist.hilbert import _kept_rows
from racktwist.rack import FiniteRack, Permutation, transposition_pairs, transposition_rack

X3 = transposition_rack(3)
X4 = transposition_rack(4)
M1_X3 = minus_one_cocycle(X3)
CHI4 = chi_cocycle(4)
ROW_CASES = {
    "x3-m1": M1_X3,
    "x3-const31": constant_cocycle(X3, 3, 1),
    "x3-const43": constant_cocycle(X3, 4, 3),
    "x4-chi": CHI4,
    "x5-m1": minus_one_cocycle(transposition_rack(5)),
}


def braiding(q):
    """The degree-2 braiding c as the braid image of the single letter 1."""
    return rho(BraidWord(2, (1,)), q, 2)


def lift(sigma, q):
    """The positive lift of sigma along its lexicographically smallest reduced word."""
    return rho(BraidWord(sigma.n, sigma.lex_reduced_word()), q, sigma.n)


def random_rows(seed):
    """A `rows` argument for symmetrizer: a seeded random subset of the rows, of random density."""
    def pick(orbit, orbit_class):
        rng = np.random.default_rng(seed)
        return np.flatnonzero(rng.random(orbit.size) < rng.random())
    return pick


# row subsets to build: the rows rank reads and random ones
ROW_PICKERS = [_kept_rows, random_rows(1), random_rows(2)]


def assert_rows_match_oracle(q, degree, expected, dense):
    """Each row subset builds the oracle's rows `dense(sym)` on its rows and nothing on the others."""
    for pick in ROW_PICKERS:
        sym = symmetrizer(q, degree, rows=pick)
        got = dense(sym)
        assert (got[..., sym.rows, :] == expected[..., sym.rows, :]).all()
        assert not np.delete(got, sym.rows, axis=-2).any()


def random_operator(rng, dim, m):
    target = list(range(dim))
    rng.shuffle(target)
    return MonomialOperator(
        dim, m,
        np.array(target, dtype=np.int64),
        np.array([rng.randrange(m) for _ in range(dim)], dtype=np.int64),
    )


class TestMonomialOperator:
    def test_compose_matches_pointwise_law(self):
        rng = random.Random(0)
        for _ in range(20):
            dim, m = rng.randint(2, 10), rng.randint(1, 5)
            a, b = random_operator(rng, dim, m), random_operator(rng, dim, m)
            c = a.compose(b)
            for i in range(dim):
                assert c.target[i] == a.target[b.target[i]]
                assert c.expo[i] == (b.expo[i] + a.expo[b.target[i]]) % m

    def test_inverse(self):
        rng = random.Random(1)
        for _ in range(20):
            dim, m = rng.randint(2, 10), rng.randint(1, 5)
            a = random_operator(rng, dim, m)
            assert a.compose(inverse_operator(a)) == MonomialOperator.identity(dim, m)
            assert inverse_operator(a).compose(a) == MonomialOperator.identity(dim, m)


class TestBraiding:
    def test_trivial_rack_gives_flip(self):
        k = 3
        rack = FiniteRack(op=tuple(tuple(range(k)) for _ in range(k)))
        q = constant_cocycle(rack, 1, 0)
        c = braiding(q)
        for x in range(k):
            for y in range(k):
                assert c.target[x * k + y] == y * k + x
                assert c.expo[x * k + y] == 0

    def test_x3_sign_example(self):
        c = braiding(M1_X3)
        pairs = transposition_pairs(3)
        i12, i13, i23 = pairs.index((1, 2)), pairs.index((1, 3)), pairs.index((2, 3))
        src = i12 * 3 + i13
        assert c.target[src] == i23 * 3 + i12
        assert c.expo[src] == 1

    def test_always_invertible(self):
        for q in (M1_X3, CHI4, constant_cocycle(X3, 4, 3)):
            c = braiding(q)
            assert sorted(c.target.tolist()) == list(range(c.dim))


class TestRho:
    def test_empty_word_is_identity(self):
        op = rho(BraidWord(3, ()), M1_X3, 3)
        assert op == MonomialOperator.identity(27, 2)

    def test_braid_relation_adjacent(self):
        assert rho(BraidWord(3, (1, 2, 1)), M1_X3, 3) == rho(BraidWord(3, (2, 1, 2)), M1_X3, 3)
        assert rho(BraidWord(3, (1, 2, 1)), chi_cocycle(3), 3) == rho(
            BraidWord(3, (2, 1, 2)), chi_cocycle(3), 3
        )

    def test_braid_relation_distant(self):
        assert rho(BraidWord(4, (1, 3)), CHI4, 4) == rho(BraidWord(4, (3, 1)), CHI4, 4)

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            BraidWord(3, (3,))
        with pytest.raises(ValueError):
            rho(BraidWord(4, (1,)), M1_X3, 3)


class TestMatsumoto:
    def test_identity_empty(self):
        assert Permutation.identity(4).lex_reduced_word() == ()

    def test_13_in_s3(self):
        assert Permutation.transposition(3, 1, 3).lex_reduced_word() == (1, 2, 1)

    def test_multiplicative_when_lengths_add(self):
        rng = random.Random(2)
        for _ in range(25):
            n = rng.randint(3, 6)
            img = list(range(1, n + 1))
            rng.shuffle(img)
            sigma = Permutation(tuple(img))
            word = sigma.lex_reduced_word()
            cut = rng.randint(0, len(word))
            x = Permutation.identity(n)
            for i in word[:cut]:
                x = x * Permutation.adjacent(n, i)
            y = Permutation.identity(n)
            for i in word[cut:]:
                y = y * Permutation.adjacent(n, i)
            assert coxeter_length(x) + coxeter_length(y) == coxeter_length(sigma)
            q = minus_one_cocycle(transposition_rack(3))
            lhs = lift(sigma, q)
            rhs = lift(x, q).compose(lift(y, q))
            assert lhs == rhs

    def test_word_independence_alternative_words(self):
        rng = random.Random(3)
        q = minus_one_cocycle(X3)
        for _ in range(30):
            n = rng.randint(2, 6)
            img = list(range(1, n + 1))
            rng.shuffle(img)
            sigma = Permutation(tuple(img))
            lex = sigma.lex_reduced_word()
            alt = largest_descent_word(sigma)
            assert len(lex) == len(alt) == coxeter_length(sigma)
            assert rho(BraidWord(n, lex), q, n) == rho(BraidWord(n, alt), q, n)


class TestBraidEquation:
    def test_verified_cocycles_pass(self):
        for q in (M1_X3, CHI4, chi_cocycle(3), constant_cocycle(X4, 1, 0)):
            assert check_braid_equation(q)

    def test_trivial_rack_flip_passes(self):
        rack = FiniteRack(op=tuple(tuple(range(2)) for _ in range(2)))
        assert check_braid_equation(constant_cocycle(rack, 1, 0))

    def test_non_cocycle_breaks_equation(self):
        chi3 = chi_cocycle(3)
        found = False
        for a in range(3):
            for b in range(3):
                exp = [list(row) for row in chi3.exp]
                exp[a][b] ^= 1
                bad = RackCocycle(rack=X3, order=2, exp=tuple(tuple(r) for r in exp))
                from racktwist.cocycle import check_cocycle

                if not check_braid_equation(bad):
                    found = True
                    assert not check_cocycle(bad).ok
        assert found


class TestSymmetrizer:
    def test_degree_zero_and_one(self):
        s0 = symmetrizer(M1_X3, 0)
        assert s0.dim == 1
        assert dense_integer_matrix(s0).tolist() == [[1]]
        s1 = symmetrizer(M1_X3, 1)
        assert (dense_integer_matrix(s1) == np.eye(3, dtype=np.int64)).all()

    def test_degree_two_is_id_plus_c(self):
        s2 = symmetrizer(M1_X3, 2)
        expected = np.eye(9, dtype=np.int64) + dense_strand_matrix(M1_X3, 2, 1)
        assert (dense_integer_matrix(s2) == expected).all()

    @pytest.mark.parametrize("degree", [2, 3, 4])
    @pytest.mark.parametrize("name", ["minus_one", "chi"])
    def test_matches_brute_force_oracle(self, degree, name):
        q = M1_X3 if name == "minus_one" else chi_cocycle(3)
        got = dense_integer_matrix(symmetrizer(q, degree))
        expected = brute_force_symmetrizer(q, degree)
        assert (got == expected).all()
        assert_rows_match_oracle(q, degree, expected, dense_integer_matrix)

    def test_entries_bounded_by_factorial(self):
        for degree in (2, 3, 4):
            mat = dense_integer_matrix(symmetrizer(CHI4, degree))
            assert int(np.abs(mat).max()) <= math.factorial(degree)

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError) as err:
            symmetrizer(M1_X3, 4, dim_cap=80)
        assert "81" in str(err.value)
        with pytest.raises(DimensionCapError, match="64-bit"):
            symmetrizer(M1_X3, 20, dim_cap=10**12)

    def test_column_support_bounded(self):
        sym = symmetrizer(CHI4, 3)
        per_col = (dense_integer_matrix(sym) != 0).sum(axis=0)
        assert int(per_col.max()) <= math.factorial(3)

    def test_higher_order_counts(self):
        q = constant_cocycle(X3, 4, 1)
        sym = symmetrizer(q, 2)
        dense = dense_counts(sym)
        assert dense.shape == (4, 9, 9)
        # identity contributes exponent 0, the braiding contributes exponent 1
        assert (dense[0] == np.eye(9, dtype=np.int64)).all()
        assert dense[1].sum() == 9 and dense[2].sum() == 0 and dense[3].sum() == 0

    @pytest.mark.parametrize("degree", [2, 3, 4])
    @pytest.mark.parametrize("order, expo, g", [(3, 1, 81407934), (4, 3, 108493035)], ids=["m3", "m4"])
    def test_higher_order_matches_modular_oracle(self, degree, order, expo, g):
        p = 134217757  # prime, 1 mod 12; g has exact order `order` mod p
        assert pow(g, order, p) == 1 and all(pow(g, i, p) != 1 for i in range(1, order))
        q = constant_cocycle(X3, order, expo)
        got = dense_modp_matrix(symmetrizer(q, degree), p, g)
        expected = brute_force_symmetrizer_modp(q, degree, p, g)
        assert (got == expected).all()
        assert_rows_match_oracle(q, degree, expected, lambda sym: dense_modp_matrix(sym, p, g))

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("name", sorted(ROW_CASES))
    def test_row_subsets_match_full_rows(self, name, degree):
        q = ROW_CASES[name]
        full = symmetrizer(q, degree)
        assert np.array_equal(full.rows, np.arange(full.dim))
        for pick in ROW_PICKERS + [random_rows(3), random_rows(4), lambda orbit, cls: orbit[:0]]:
            sym = symmetrizer(q, degree, rows=pick)
            assert np.array_equal(sym.rows, pick(full.orbit, full.orbit_class))
            assert np.array_equal(sym.orbit, full.orbit)
            assert np.array_equal(sym.orbit_class, full.orbit_class)
            built = np.zeros(full.dim, dtype=bool)
            built[sym.rows] = True
            keep = built[full.entries.row]
            for field in ("row", "col", "expo", "data"):
                got, expected = getattr(sym.entries, field), getattr(full.entries, field)[keep]
                assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_entries_do_not_depend_on_a_large_order(self):
        # no lift of degree 4 is longer than 6 letters, so no exponent wraps at
        # either order
        small = symmetrizer(constant_cocycle(X3, 2**20, 1), 4).entries
        large = symmetrizer(constant_cocycle(X3, 2**40, 1), 4).entries
        assert int(large.expo.max()) == 6
        for field in ("row", "col", "expo", "data"):
            assert np.array_equal(getattr(small, field), getattr(large, field))
        # with zeta^-1 a lift of length L has exponent 2^40 - L, which the
        # exponents must hold
        inverse = symmetrizer(constant_cocycle(X3, 2**40, 2**40 - 1), 4).entries
        flipped = zip(inverse.row.tolist(), inverse.col.tolist(), inverse.expo.tolist(), inverse.data.tolist())
        assert {(r, c, -e % 2**40, v) for r, c, e, v in flipped} == set(
            zip(small.row.tolist(), small.col.tolist(), small.expo.tolist(), small.data.tolist())
        )

    @pytest.mark.parametrize("rows", [[3, 2], [1, 1], [-1], [81]], ids=["descending", "repeated", "negative", "past-dim"])
    def test_bad_row_sets(self, rows):
        with pytest.raises(ValueError, match="ascending, distinct"):
            symmetrizer(M1_X3, 4, rows=lambda orbit, cls: np.array(rows))


class TestBraidOrbits:
    @pytest.mark.parametrize("name, degree", [("x3", 2), ("x3", 4), ("x4", 3), ("x4", 4), ("trivial", 3)])
    def test_orbits_match_hurwitz_oracle(self, name, degree):
        q = {"x3": M1_X3, "x4": CHI4,
             "trivial": constant_cocycle(FiniteRack(op=((0, 1, 2),) * 3), 1, 0)}[name]
        orbit = symmetrizer(q, degree).orbit
        groups = {}
        for v, label in enumerate(orbit.tolist()):
            groups.setdefault(label, []).append(v)
        assert all(label == min(g) for label, g in groups.items())
        assert sorted(tuple(g) for g in groups.values()) == hurwitz_orbits(q, degree)

    @pytest.mark.parametrize("degree", [2, 3, 4])
    @pytest.mark.parametrize("q", [M1_X3, CHI4, constant_cocycle(X3, 3, 1)], ids=["m1x3", "chi4", "m3x3"])
    def test_support_components_are_the_orbits(self, q, degree):
        # positive counts cannot cancel, so the blocks are exactly the orbits
        assert support_components(symmetrizer(q, degree)) == hurwitz_orbits(q, degree)

    def test_degree_zero_and_one(self):
        assert symmetrizer(CHI4, 0).orbit.tolist() == [0]
        assert symmetrizer(CHI4, 1).orbit.tolist() == list(range(6))


class TestExport:
    def test_round_trippable_text(self, tmp_path):
        import json

        sym = symmetrizer(M1_X3, 2)
        path = tmp_path / "sym.txt"
        export_symmetrizer(sym, str(path), rack_id="x3", cocycle_id="-1")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"degree": 2, "rack": "x3", "cocycle": "-1", "m": 2}
        rebuilt = np.zeros((9, 9), dtype=np.int64)
        for line in lines[1:]:
            r, c, v = line.split()
            rebuilt[int(r), int(c)] = int(v)
        assert (rebuilt == dense_integer_matrix(sym)).all()

    def test_needs_every_row(self, tmp_path):
        sym = symmetrizer(M1_X3, 3, rows=_kept_rows)
        with pytest.raises(ValueError, match="rows were built"):
            export_symmetrizer(sym, str(tmp_path / "sym.txt"))
