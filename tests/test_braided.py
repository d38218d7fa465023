import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from oracles import (
    BraidWord,
    MonomialOperator,
    braid_equation_witness,
    brute_force_symmetrizer,
    brute_force_symmetrizer_modp,
    check_braid_equation,
    coxeter_length,
    dense_counts,
    dense_integer_matrix,
    dense_modp_matrix,
    dense_strand_matrix,
    hurwitz_orbits,
    send_tables,
    inverse_operator,
    largest_descent_word,
    lex_reduced_word,
    matsumoto_per_sigma,
    planted_tables,
    rho,
    strand_tables,
    support_components,
    verify_matsumoto,
    word_operator,
)
from racktwist import braided, exact
from racktwist.cocycle import (
    RackCocycle,
    check_rack_cocycle,
    chi_cocycle,
    constant_cocycle,
    minus_one_cocycle,
)
from racktwist.errors import DimensionCapError, RackAxiomError
from racktwist.exact import _kept_rows, symmetrizer
from racktwist.hilbert import graded_dims
from racktwist.rack import (
    FiniteRack,
    Permutation,
    check_rack_axioms,
    transposition_pairs,
    transposition_rack,
)

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


def image(word, q):
    """rho of a braid word on its own number of strands, as a one-row call."""
    return word_operator(word.letters, q, word.n)


def braiding(q):
    """The degree-2 braiding c as the braid image of the single letter 1."""
    return image(BraidWord(2, (1,)), q)


def lift(sigma, q):
    """The positive lift of sigma along its lexicographically smallest reduced word."""
    return image(BraidWord(sigma.n, lex_reduced_word(sigma)), q)


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
        op = image(BraidWord(3, ()), M1_X3)
        assert op == MonomialOperator.identity(27, 2)

    def test_braid_relation_adjacent(self):
        assert image(BraidWord(3, (1, 2, 1)), M1_X3) == image(BraidWord(3, (2, 1, 2)), M1_X3)
        assert image(BraidWord(3, (1, 2, 1)), chi_cocycle(3)) == image(
            BraidWord(3, (2, 1, 2)), chi_cocycle(3)
        )

    def test_braid_relation_distant(self):
        assert image(BraidWord(4, (1, 3)), CHI4) == image(BraidWord(4, (3, 1)), CHI4)

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            BraidWord(3, (3,))
        # a letter of 4 strands at degree 3, and a negative letter, in one row of a batch
        for bad in ([[1, 2], [3, 0]], [[-1]]):
            with pytest.raises(ValueError):
                rho(np.array(bad), M1_X3, 3, strand_tables(M1_X3, 3))

    @pytest.mark.parametrize("q, degree", [(M1_X3, 4), (CHI4, 3), (constant_cocycle(X3, 3, 1), 5)])
    def test_batch_rows_are_composed_letters(self, q, degree):
        # each row of a padded batch is the composite of its letters' one-letter operators
        rng = random.Random(degree)
        words = np.zeros((12, 9), dtype=np.intp)
        for row in words:
            length = rng.randint(0, 9)
            row[:length] = [rng.randint(1, degree - 1) for _ in range(length)]
        tables = strand_tables(q, degree)
        target, expo = rho(words, q, degree, tables)
        assert target.shape == expo.shape == (12, q.rack.size**degree)
        letters = [word_operator((i,), q, degree, tables) for i in range(1, degree)]
        for row, t, e in zip(words, target, expo):
            op = MonomialOperator.identity(t.size, q.order)
            for i in row[row > 0]:
                op = op.compose(letters[i - 1])
            assert op == MonomialOperator(t.size, q.order, t, e) and ((0 <= e) & (e < q.order)).all()

    @pytest.mark.parametrize("length", [1, 2, 3, 9])
    def test_large_order_exponents_stay_exact(self, length):
        # a constant cocycle adds e = m - 1 per letter; 3e would overflow int64 unless reduced per letter
        m = 2**62 - 1
        q = constant_cocycle(X3, m, m - 1)
        target, expo = rho(np.ones((2, length), dtype=np.intp), q, 2, strand_tables(q, 2))
        assert (expo == length * (m - 1) % m).all()
        small = constant_cocycle(X3, 2, 1)
        assert (target == rho(np.ones((2, length), dtype=np.intp), small, 2, strand_tables(small, 2))[0]).all()


class TestMatsumoto:
    def test_identity_empty(self):
        assert lex_reduced_word(Permutation.identity(4)) == ()

    def test_13_in_s3(self):
        assert lex_reduced_word(Permutation.transposition(3, 1, 3)) == (1, 2, 1)

    def test_multiplicative_when_lengths_add(self):
        rng = random.Random(2)
        for _ in range(25):
            n = rng.randint(3, 6)
            img = list(range(1, n + 1))
            rng.shuffle(img)
            sigma = Permutation(tuple(img))
            word = lex_reduced_word(sigma)
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
            lex = lex_reduced_word(sigma)
            alt = largest_descent_word(sigma)
            assert len(lex) == len(alt) == coxeter_length(sigma)
            assert image(BraidWord(n, lex), q) == image(BraidWord(n, alt), q)

    @pytest.mark.parametrize("n_max", range(2, 8))
    def test_batches_agree_with_the_per_sigma_oracle(self, n_max):
        for seed in range(5):
            assert verify_matsumoto(n_max, seed) == matsumoto_per_sigma(n_max, seed) == (True, None)

    @pytest.mark.parametrize("n_max", [4, 7])
    def test_planted_failures_give_the_oracles_witness(self, monkeypatch, n_max):
        # every word of 3 or more strands that starts with s_1 gains a scalar; the batch
        # reports the first failing sigma in draw order, across degrees, as the oracle does
        real = oracles.rho

        def broken(words, q, degree, tables):
            target, expo = real(words, q, degree, tables)
            if degree >= 3 and words.shape[1]:
                planted = words[:, 0] == 1
                expo[planted] = (expo[planted] + 1) % q.order
            return target, expo

        monkeypatch.setattr(oracles, "rho", broken)
        for seed in range(5):
            ok, witness = verify_matsumoto(n_max, seed)
            assert ok is False and len(witness["sigma"]) >= 3
            assert (ok, witness) == matsumoto_per_sigma(n_max, seed)


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
                if not check_braid_equation(bad):
                    found = True
                    assert check_rack_cocycle(bad)["kind"] == "not-a-cocycle"
        assert found


    @pytest.mark.parametrize("name", ["non-rack", "flipped-chi"])
    def test_witness_is_the_first_failing_triple(self, name):
        # the table of test_hilbert's non-rack case, and chi on x3 with one flipped exponent
        if name == "non-rack":
            q = minus_one_cocycle(FiniteRack(((0, 1, 2), (0, 2, 1), (1, 0, 2))))
        else:
            exp = [list(row) for row in chi_cocycle(3).exp]
            exp[0][1] ^= 1
            q = RackCocycle(rack=X3, order=2, exp=tuple(map(tuple, exp)))
        k = q.rack.size
        x = dense_strand_matrix(q, 3, 1)
        y = dense_strand_matrix(q, 3, 2)
        differs = (x @ y @ x != y @ x @ y).any(axis=0)
        first = int(np.flatnonzero(differs)[0])
        assert braid_equation_witness(q) == [first // (k * k), first // k % k, first % k]
        assert not check_braid_equation(q)
        assert braid_equation_witness(M1_X3) is None

    @pytest.mark.parametrize("seed", range(3))
    def test_holds_exactly_when_check_rack_cocycle_passes(self, seed):
        # the braid equation of rho against the one scan that hilbert runs, on the small racks with
        # planted faults, each with a constant cocycle, the same with one exponent moved, and a random
        # table; a non-bijective row is not compared, since the braid equation does not need bijective rows
        rng = random.Random(seed)
        kinds = set()
        for r in planted_tables(seed):
            violation = check_rack_axioms(r)
            if violation is not None and violation["kind"] == "non-bijective-row":
                continue
            k, m = r.size, rng.randint(2, 4)
            constant = [[rng.randrange(m)] * k for _ in range(k)]
            moved = [list(row) for row in constant]
            moved[rng.randrange(k)][rng.randrange(k)] += rng.randrange(1, m)
            random_table = [[rng.randrange(m) for _ in range(k)] for _ in range(k)]
            for exp in (constant, moved, random_table):
                q = RackCocycle(r, m, tuple(tuple(e % m for e in row) for row in exp))
                violation = check_rack_cocycle(q)
                assert check_braid_equation(q) == (violation is None)
                kinds.add(None if violation is None else violation["kind"])
        assert kinds == {None, "not-self-distributive", "not-a-cocycle"}


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

    @staticmethod
    def exact_power_verdict(size, degree, cap, order):
        """The caps of exact.check_degree decided on size**degree and degree! themselves."""
        dim = size**degree
        if dim > cap:
            return f"degree {degree} needs dimension {dim} > cap {cap}"
        if 2 * (dim - 1).bit_length() + (order - 1).bit_length() > 63:
            return f"degree {degree} needs dimension {dim}, too large for 64-bit entry keys"
        if math.factorial(degree) >= 2**63:
            return f"degree {degree} has entries up to {degree}! >= 2^63, too large for int64"
        return None

    @pytest.mark.parametrize("size", [1, 2, 3, 6, 10, 79800])
    def test_caps_agree_with_the_exact_powers(self, size):
        # check_degree never builds size**degree or degree! in full, yet decides as they do
        for degree in range(0, 30):
            for cap in (1, 80, 81, 200_000, 2**31, 2**62, 10**40):
                for order in (2, 3, 2**20, 2**31, 2**61, 2**62):
                    q = SimpleNamespace(rack=SimpleNamespace(size=size), order=order)
                    want = self.exact_power_verdict(size, degree, cap, order)
                    if want is not None and degree * size.bit_length() > 64:
                        want = want.replace(f" {size**degree}", f" {size}^{degree}")
                    try:
                        exact.check_degree(q, degree, cap)
                        got = None
                    except DimensionCapError as exc:
                        got = str(exc)
                    assert got == want, (size, degree, cap, order)

    @pytest.mark.parametrize("size, degree, message", [
        (6, 10**5, "degree 100000 needs dimension 6^100000 > cap 200000"),
        (6, 10**20, "degree 100000000000000000000 needs dimension 6^100000000000000000000 > cap 200000"),
        (1, 10**11, "degree 100000000000 has entries up to 100000000000! >= 2^63, too large for int64"),
    ])
    def test_huge_degree_is_decided_at_once(self, size, degree, message):
        q = SimpleNamespace(rack=SimpleNamespace(size=size), order=2)
        with pytest.raises(DimensionCapError) as exc:
            exact.check_degree(q, degree, braided.DEFAULT_DIM_CAP)
        assert str(exc.value) == message

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



# (cocycle, top degree): the send data is checked in degrees 1..top
SEND_CASES = {
    "x3-m1": (M1_X3, 4),
    "x3-const31": (constant_cocycle(X3, 3, 1), 4),
    "x4-chi": (CHI4, 5),
    "x5-m1": (minus_one_cocycle(transposition_rack(5)), 4),
    # rows are bijections, but the table fails self-distributivity
    "non-rack": (minus_one_cocycle(FiniteRack(((0, 1, 2), (0, 2, 1), (1, 0, 2)))), 4),
}


class TestSendData:
    @pytest.mark.parametrize("name", sorted(SEND_CASES))
    def test_sends_match_the_oracle_tables(self, name):
        # every column of every degree, each with an exponent of its own to carry
        q, top = SEND_CASES[name]
        k, m = q.rack.size, q.order
        inverse = exact._inverse_letters(q)
        for d in range(1, top + 1):
            inv, add = send_tables(q, d)
            columns = np.arange(k**d)
            base = columns * 7 % m
            sends, expo = exact._sends(columns // k, columns % k, base, d, k, inverse)
            assert np.array_equal(sends, inv)
            assert np.array_equal((expo - base[:, None]) % m, add)

    @pytest.mark.parametrize("degree", [0, 1, 2, 4])
    def test_non_bijective_row_is_refused(self, degree):
        # row 0 of this table takes 0 twice and misses 2; graded_dims names it as rack --check does,
        # in both modes, before it builds the inverse tables of the braiding
        r = FiniteRack(((0, 0, 1), (1, 1, 1), (2, 2, 2)))
        assert check_rack_axioms(r) == {"kind": "non-bijective-row", "witness": (0,)}
        for mode in ("exact", "modular"):
            with pytest.raises(ValueError, match=r"^non-bijective-row at \(0,\): ") as raised:
                graded_dims(minus_one_cocycle(r), degree, mode=mode)
            assert isinstance(raised.value, RackAxiomError)
