import collections
import itertools
import json
import random
import types
from fractions import Fraction

import numpy as np
import oracles
import pytest
from oracles import (
    CliffordSection,
    QuadScalar,
    SpinElement,
    bracket,
    bracket_vectors,
    clifford_twist_table,
    cocycle_bit,
    conjugation_lemmas_by_clifford,
    conjugation_lemmas_per_trial,
    flip_phi_bit,
    generator_t,
    group_cocycle_first_failure,
    is_group_like,
    lemma_draws,
    lex_min_reduced_word,
    lex_reduced_word,
    main_theorem_log,
    presentation_by_clifford,
    presentation_by_words,
    quad_clifford_product,
    quad_element,
    quad_generator,
    scale_bracket,
    signed_action_consistent,
    transposition_pair,
    twist_identity_by_reflections,
    unnormalized_generator,
    use_clifford_brackets,
)
from racktwist import cli, pfaffian, spincover
from racktwist.cocycle import check_twist_condition, chi_cocycle
from racktwist.errors import DimensionCapError, SectionConsistencyError
from racktwist.hilbert import _is_prime_u32
from racktwist.rack import Permutation, lex_reduced_words, transposition_pairs
from racktwist.spincover import (
    CliffordElement,
    GroupCocycleBit,
    SectionCache,
    generator_vectors,
    phi_psi_table,
    verify_conjugation_lemmas,
    verify_group_cocycle,
    verify_main_theorem,
    verify_presentation,
)


def conj_by_perm(sigma, t):
    """Conjugation of t by the lift of sigma's lex-reduced word."""
    lift = SpinElement.one(sigma.n)
    for i in lex_reduced_word(sigma):
        lift = lift * generator_t(sigma.n, i)
    return lift.conj(t)


def e(n, i):
    return CliffordElement(n, {1 << (i - 1): 1})


def scaled(elem, c):
    """elem times the integer c."""
    return CliffordElement(elem.n, {m: co * c for m, co in elem.terms.items()}, elem.k)


def sign(gc, x, y):
    """phi_psi(x, y) = (-1)^bit, the image under the sign character of <z>."""
    return -1 if cocycle_bit(gc, x, y) else 1


def spin_generator(row):
    """The SpinElement row/sqrt(2) of an integer row with two nonzero entries, over their transposition."""
    n = len(row)
    a, b = np.flatnonzero(row).tolist()
    return SpinElement(CliffordElement(n, {1 << a: int(row[a]), 1 << b: int(row[b])}, k=1),
                       Permutation.transposition(n, a + 1, b + 1))


def random_element(rng, n, nterms=4):
    terms = {rng.randrange(1 << n): rng.randint(-6, 6) for _ in range(nterms)}
    return CliffordElement(n, terms, k=rng.randint(0, 5))


def as_quad(elem):
    return quad_element(elem.terms, elem.k)


class TestQuadScalar:
    """The Q(sqrt(2)) field of the independent oracle model."""

    def test_product_formula(self):
        u = QuadScalar.of(Fraction(1, 2), 3)
        v = QuadScalar.of(2, Fraction(-1, 3))
        w = u * v
        assert w.a == Fraction(1, 2) * 2 + 2 * 3 * Fraction(-1, 3)
        assert w.b == Fraction(1, 2) * Fraction(-1, 3) + 3 * 2

    def test_sqrt2_squares_to_two(self):
        r2 = QuadScalar.of(0, 1)
        assert r2 * r2 == QuadScalar.of(2)


class TestCliffordArithmetic:
    def test_adjacent_product(self):
        n = 3
        assert (e(n, 1) * e(n, 2)) * (e(n, 2) * e(n, 3)) == e(n, 1) * e(n, 3)

    def test_anticommutation(self):
        n = 2
        assert e(n, 1) * e(n, 2) == -(e(n, 2) * e(n, 1))

    def test_generator_squares_to_one(self):
        n = 2
        assert e(n, 1) * e(n, 1) == CliffordElement.one(n)

    def test_associativity_random(self):
        rng = random.Random(0)
        for _ in range(25):
            n = rng.randint(2, 5)
            u, v, w = (random_element(rng, n) for _ in range(3))
            assert (u * v) * w == u * (v * w)

    def test_reverse_is_antihomomorphism(self):
        rng = random.Random(1)
        for _ in range(25):
            n = rng.randint(2, 5)
            u, v = random_element(rng, n), random_element(rng, n)
            assert (u * v).reverse() == v.reverse() * u.reverse()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            e(2, 1) * e(3, 1)


class TestCanonicalForm:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_generator_squares_to_one_with_k_zero(self, n):
        for i in range(1, n):
            t = generator_t(n, i).elem
            assert t.k == 1
            sq = t * t
            assert sq == CliffordElement.one(n)
            assert (sq.k, sq.terms) == (0, {0: 1})

    def test_z_squares_to_one(self):
        z = SpinElement.z(5)
        assert z.elem.terms == {0: -1}
        assert z * z == SpinElement.one(5)

    def test_equal_values_with_different_k(self):
        n = 3
        plain = CliffordElement(n, {1: 1, 2: -1})
        doubled = CliffordElement(n, {1: 2, 2: -2}, k=2)
        assert doubled == plain and hash(doubled) == hash(plain)
        assert (doubled.k, doubled.terms) == (0, {1: 1, 2: -1})
        # 4 * 2^(-5/2) = 1/sqrt(2), stored with k = 1
        assert CliffordElement(n, {1: 4, 2: -4}, k=5) == generator_t(n, 1).elem

    def test_halving_stops_at_k_below_two(self):
        # 2/sqrt(2) = sqrt(2) keeps its even coefficient, as k cannot go negative
        root2 = CliffordElement(2, {0: 2}, k=1)
        assert (root2.k, root2.terms) == (1, {0: 2})
        assert CliffordElement(2, {0: 4}, k=3) == root2
        assert root2 * root2 == CliffordElement.scalar(2, 2)

    def test_halving_stops_at_odd_coefficient(self):
        elem = CliffordElement(3, {1: 4, 4: 6}, k=6)
        assert (elem.k, elem.terms) == (4, {1: 2, 4: 3})

    def test_different_parity_of_k_never_equal(self):
        assert CliffordElement(2, {0: 1}, k=1) != CliffordElement.one(2)
        assert CliffordElement(2, {0: 2}, k=1) != CliffordElement.scalar(2, 1)

    def test_zero_has_k_zero(self):
        zero = CliffordElement(3, {1: 0, 2: 0}, k=5)
        assert (zero.k, zero.terms) == (0, {})
        assert zero == CliffordElement(3, {})
        assert scaled(generator_t(3, 1).elem, 0).k == 0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            CliffordElement(2, {0: 1}, k=-1)


class TestAgainstQuadOracle:
    """Compare the integer model with the independent Fraction model of Q(sqrt(2))."""

    def test_random_generator_words(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(2, 6)
            elem = CliffordElement.one(n)
            quad = {0: QuadScalar.of(1)}
            for _ in range(rng.randint(0, 12)):
                i = rng.randint(1, n - 1)
                elem = elem * generator_t(n, i).elem
                quad = quad_clifford_product(quad, quad_generator(i))
            assert as_quad(elem) == quad

    def test_random_integer_elements(self):
        rng = random.Random(9)
        for _ in range(100):
            n = rng.randint(1, 6)
            u = random_element(rng, n, nterms=rng.randint(0, 6))
            v = random_element(rng, n, nterms=rng.randint(0, 6))
            assert as_quad(u * v) == quad_clifford_product(as_quad(u), as_quad(v))

    def test_canonical_form_keeps_value(self):
        rng = random.Random(10)
        for _ in range(50):
            n = rng.randint(1, 6)
            terms = {rng.randrange(1 << n): 2 * rng.randint(-4, 4) for _ in range(3)}
            k = rng.randint(0, 6)
            assert as_quad(CliffordElement(n, terms, k)) == quad_element(terms, k)


class TestGenerators:
    def test_squares_to_one(self):
        for i in range(1, 4):
            t = generator_t(4, i)
            assert t * t == SpinElement.one(4)

    def test_far_commutators_give_z(self):
        t1, t3 = generator_t(4, 1), generator_t(4, 3)
        v = t1 * t3
        assert v * v == SpinElement.z(4)

    def test_braid_relation(self):
        t1, t2 = generator_t(4, 1), generator_t(4, 2)
        u = t1 * t2
        assert u * u * u == SpinElement.one(4)

    def test_index_range(self):
        with pytest.raises(ValueError):
            generator_t(4, 4)


class TestPresentation:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_holds(self, n):
        assert verify_presentation(n) is None

    def test_unnormalized_generator_fails(self):
        # sqrt(2) t_i has no integer vector; the package takes 2 t_i, as --inject-fault generator does
        assert not presentation_by_clifford(4, [unnormalized_generator(4, i) for i in range(1, 4)])
        assert verify_presentation(4, generators=2 * generator_vectors(4)) is not None

    def test_generator_vectors_are_the_clifford_generators(self):
        for n in range(2, 13):
            vectors = generator_vectors(n)
            assert vectors.shape == (n - 1, n)
            for i, g in enumerate(vectors.tolist(), 1):
                assert CliffordElement(n, {1 << m: c for m, c in enumerate(g)}, k=1) == generator_t(n, i).elem

    @staticmethod
    def mutations(n):
        """(name, integer generator vectors, Clifford generators) of the three faults that apply at n."""
        vectors = generator_vectors(n)
        ts = [generator_t(n, i) for i in range(1, n)]
        out = []
        for i in range(n - 1):
            doubled = vectors.copy()
            doubled[i] *= 2
            spin = list(ts)
            spin[i] = SpinElement(scaled(ts[i].elem, 2), ts[i].perm)
            out.append((f"doubled t_{i + 1}", doubled, spin))
            if n >= 3:
                negated = vectors.copy()
                negated[i] *= -1
                spin = list(ts)
                spin[i] = ts[i].times_z()
                out.append((f"negated t_{i + 1}", negated, spin))
            if n >= 4 and i < n - 2:
                swapped = vectors.copy()
                swapped[[i, i + 1]] = swapped[[i + 1, i]]
                spin = list(ts)
                spin[i], spin[i + 1] = spin[i + 1], spin[i]
                out.append((f"swapped t_{i + 1}, t_{i + 2}", swapped, spin))
        return out

    @pytest.mark.parametrize("n", range(2, 13))
    def test_integer_words_agree_with_the_clifford_oracle(self, n):
        assert verify_presentation(n) is None and presentation_by_clifford(n) is True
        mutations = self.mutations(n)
        assert len(mutations) == (n - 1) * (1 + (n >= 3)) + (n - 2) * (n >= 4)
        for name, vectors, spin in mutations:
            assert verify_presentation(n, generators=vectors) is not None and presentation_by_clifford(n, spin) is False, name

    def test_witness_names_the_first_failing_relation(self):
        vectors = generator_vectors(4)
        assert verify_presentation(4) is None
        assert verify_presentation(4, 2 * vectors) == {"relation": "square", "letters": [1]}
        # t_1 and t_2 orthogonal: (t_1 t_2)^3 = -t_1 t_2, the first braid word fails
        orthogonal = np.array([[1, -1, 0, 0], [0, 0, 1, -1], [0, 1, -1, 0]])
        assert verify_presentation(4, orthogonal) == {"relation": "braid", "letters": [1, 2]}
        # t_3 = t_1 keeps both braid words but (t_1 t_3)^2 = 1, not z
        repeated = vectors.copy()
        repeated[2] = vectors[0]
        assert verify_presentation(4, repeated) == {"relation": "far", "letters": [1, 3]}

    @staticmethod
    def random_generators(rng, n):
        """n - 1 integer rows +-e_a +-e_b (a != b) of length n.

        Half the sets are generator_vectors(n) under a signed permutation of
        the coordinates, which keeps every Gram entry, the others random rows,
        most of them drawn again until their Gram entry with the row before
        is 2 or -1, so that many sets reach the far relations; then two sets
        in three take one fault: a row doubled, set equal to another, negated,
        or two rows swapped.
        """
        if rng.random() < 0.5:
            vectors = generator_vectors(n)[:, rng.permutation(n)] * rng.choice([-1, 1], n)
        else:
            vectors = np.zeros((n - 1, n), dtype=np.int64)
            for i, row in enumerate(vectors):
                braided = i > 0 and rng.random() < 0.9
                while not row.any() or braided and vectors[i - 1] @ row not in (2, -1):
                    row[:] = 0
                    row[rng.choice(n, 2, replace=False)] = rng.choice([-1, 1], 2)
        i, j = rng.choice(n - 1, 2) if n > 2 else (0, 0)
        fault = rng.integers(6)
        if fault == 0:
            vectors[i] *= 2
        elif fault == 1:
            vectors[i] = vectors[j]
        elif fault == 2:
            vectors[i] *= -1
        elif fault == 3:
            vectors[[i, j]] = vectors[[j, i]]
        return vectors

    def test_gram_entries_agree_with_the_words_and_the_clifford_oracle(self):
        rng = np.random.default_rng(40)
        seen = collections.Counter()
        for _ in range(2000):
            n = int(rng.integers(2, 9))
            vectors = self.random_generators(rng, n)
            got = verify_presentation(n, vectors)
            assert got == presentation_by_words(n, vectors), vectors.tolist()
            assert (got is None) == presentation_by_clifford(n, [spin_generator(row) for row in vectors]), vectors.tolist()
            seen[None if got is None else got["relation"]] += 1
        # every outcome is drawn often enough to be exercised
        assert min(seen[outcome] for outcome in (None, "square", "braid", "far")) >= 100, seen

    def test_takes_no_pfaffian(self, monkeypatch):
        # every relation is one Gram entry, so nothing in racktwist.pfaffian runs
        for name, value in vars(pfaffian).items():
            if callable(value) and getattr(value, "__module__", None) == pfaffian.__name__:
                monkeypatch.setattr(pfaffian, name, lambda *args, name=name: pytest.fail(f"pfaffian.{name} called"))
        for n in range(2, spincover.N_CAP + 1):
            assert verify_presentation(n) is None
        self.test_witness_names_the_first_failing_relation()

    def test_equal_braid_pair_and_lexicographic_far_scan(self):
        # t_3 = t_4 keeps their braid relation (Gram entry 2, with -1 elsewhere); the far relations fail at
        # (1, 5), (2, 4) and (3, 5), and the lexicographic scan names (1, 5), which comes after (2, 4) by columns
        e = np.eye(6, dtype=np.int64)
        vectors = np.array([e[0] - e[1], e[1] - e[2], e[2] - e[3], e[2] - e[3], e[3] - e[0]])
        gram = vectors @ vectors.T
        assert np.diag(gram, 1).tolist() == [-1, -1, 2, -1]
        assert [(k + 1, l + 1) for k, l in zip(*np.nonzero(np.triu(gram, 2)))] == [(1, 5), (2, 4), (3, 5)]
        assert verify_presentation(6, vectors) == {"relation": "far", "letters": [1, 5]}
        assert presentation_by_words(6, vectors) == {"relation": "far", "letters": [1, 5]}
        assert presentation_by_clifford(6, [spin_generator(row) for row in vectors]) is False

    def test_n_out_of_range(self):
        with pytest.raises(ValueError):
            verify_presentation(1)
        with pytest.raises(ValueError):
            verify_presentation(spincover.N_CAP + 1)


class TestBracket:
    def test_adjacent_is_generator(self):
        assert bracket(4, 1, 2) == generator_t(4, 1)

    def test_reversed_pair_multiplies_z(self):
        assert bracket(4, 2, 1) == generator_t(4, 1).times_z()

    def test_one_step_expansion(self):
        t1, t2 = generator_t(4, 1), generator_t(4, 2)
        expected = (t1 * t2 * t1).times_z()
        got = bracket(4, 1, 3)
        assert got == expected
        assert got.perm.image == Permutation.transposition(4, 1, 3).image

    def test_brackets_are_scaled_vector_differences(self):
        # every [i j] with i<j works out to (e_i - e_j)/sqrt(2)
        n = 5
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                br = bracket(n, i, j)
                expected = CliffordElement(n, {1 << (i - 1): 1, 1 << (j - 1): -1}, k=1)
                assert br.elem == expected

    def test_group_invariants(self):
        for (i, j) in [(1, 2), (1, 4), (3, 1), (2, 4)]:
            br = bracket(4, i, j)
            assert is_group_like(br)
            assert signed_action_consistent(br)

    def test_rejects_equal_indices(self):
        with pytest.raises(ValueError):
            bracket(4, 2, 2)

    def test_memoised(self):
        assert bracket(6, 5, 2) is bracket(6, 5, 2)


class TestBracketVectors:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_equal_the_clifford_brackets(self, n):
        got = spincover._bracket_vectors(n)
        assert got.shape == (n + 1, n + 1, n)
        assert (got == bracket_vectors(n)).all()

    def test_unit_check_names_the_first_failing_pair(self, monkeypatch):
        # only [3 1] is doubled, so no bracket built from it inherits the fault
        original = spincover._bracket_vectors

        def doubled(n):
            vectors = original(n)
            vectors[3, 1] *= 2
            return vectors

        monkeypatch.setattr(spincover, "_bracket_vectors", doubled)
        message = r"^\[3 1\] = \[-2, 0, 2, 0\]/sqrt\(2\) is not a unit vector$"
        with pytest.raises(SectionConsistencyError, match=message):
            SectionCache(4)
        with pytest.raises(SectionConsistencyError, match=message):
            verify_conjugation_lemmas(4, trials=0)

    def test_no_check_multiplies_clifford_elements(self, monkeypatch):
        monkeypatch.setattr(CliffordElement, "__mul__", lambda *args: pytest.fail("Clifford product expanded"))
        assert cli.main(["twist-verify", "--n", "8"]) == 0
        assert verify_conjugation_lemmas(8, trials=50) is None
        assert cli.main(["selfcheck", "--n-max", "6", "--trials", "20"]) == 0
        assert cli.main(["cover", "--n", "12", "--trials", "20"]) == 0


class TestConjugation:
    def test_identity_fixes(self):
        br = bracket(4, 1, 3)
        assert conj_by_perm(Permutation.identity(4), br) == br

    def test_adjacent_conjugation_example(self):
        # s_1 |> [2 3] = [1 3] z
        got = conj_by_perm(Permutation.adjacent(4, 1), bracket(4, 2, 3))
        assert got == bracket(4, 1, 3).times_z()

    def test_spec_word_example(self):
        # s_2 |> [1 2] = [1 3] z
        got = generator_t(4, 2).conj(bracket(4, 1, 2))
        assert got == bracket(4, 1, 3).times_z()

    def test_square_word_restores(self):
        # conjugating by t_1 twice is conjugation by z^0 = identity
        t1 = generator_t(4, 1)
        br = bracket(4, 1, 3)
        assert t1.conj(t1.conj(br)) == br

    def test_lift_choice_is_irrelevant(self):
        rng = random.Random(2)
        for _ in range(10):
            n = 5
            img = list(range(1, n + 1))
            rng.shuffle(img)
            sigma = Permutation(tuple(img))
            target = bracket(n, 1, 4)
            lift = SpinElement.one(n)
            for i in lex_reduced_word(sigma):
                lift = lift * generator_t(n, i)
            assert lift.conj(target) == lift.times_z().conj(target)
            assert conj_by_perm(sigma, target) == lift.conj(target)

    @pytest.mark.parametrize("n", [4, 5])
    def test_lemmas(self, n):
        assert verify_conjugation_lemmas(n, trials=300, seed=7) is None

    @pytest.mark.parametrize("n", range(4, 8))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reflections_agree_with_clifford_lifts(self, n, seed):
        assert verify_conjugation_lemmas(n, trials=300, seed=seed) is None
        assert conjugation_lemmas_by_clifford(n, trials=300, seed=seed) is None

    @pytest.mark.parametrize("n", range(4, 13))
    def test_batches_agree_with_the_per_trial_oracle(self, n, monkeypatch):
        # every chunk's words, lengths and pairs, trial by trial, are the oracle's draws;
        # 1023, 1024, 1025 and 2049 trials sit on the edges of the chunks of 1024
        real, chunks = spincover._lemma_draws, []

        def recording(getrandbits, n, size):
            chunks.append(real(getrandbits, n, size))
            return chunks[-1]

        monkeypatch.setattr(spincover, "_lemma_draws", recording)
        assert spincover._LEMMA_CHUNK == oracles.LEMMA_CHUNK
        for seed in range(5):
            for trials in (0, 1, 1023, 1024, 1025, 2049):
                chunks.clear()
                assert verify_conjugation_lemmas(n, trials=trials, seed=seed) is None
                assert [len(c[0]) for c in chunks] == [min(1024, trials - s) for s in range(0, trials, 1024)]
                got = []
                for words, lengths, i, j in chunks:
                    assert ((0 <= lengths) & (lengths <= 20)).all() and words.shape[1] == lengths.max()
                    assert (words[np.arange(words.shape[1]) >= lengths[:, None]] == 0).all()
                    got += [(word[:l].tolist(), a, b) for word, l, a, b in zip(words, lengths, i.tolist(), j.tolist())]
                assert got == list(lemma_draws(n, trials, seed))
                assert all(1 <= k <= n - 1 for word, _, _ in got for k in word)
                assert all(1 <= a <= n and 1 <= b <= n and a != b for _, a, b in got)
            assert conjugation_lemmas_per_trial(n, trials=1025, seed=seed) is None

    def test_draws_as_the_oracle(self, monkeypatch):
        # every getrandbits of the package, in order, equals the oracle's; chunks of 7 cut the words
        draws = {}

        def recording(name):
            class Recorder(random.Random):
                def getrandbits(self, k):
                    got = super().getrandbits(k)
                    draws.setdefault(name, []).append((k, got))
                    return got

            return types.SimpleNamespace(Random=Recorder)

        monkeypatch.setattr(spincover, "_LEMMA_CHUNK", 7)
        monkeypatch.setattr(spincover, "random", recording("package"))
        monkeypatch.setattr(oracles, "random", recording("oracle"))
        assert verify_conjugation_lemmas(6, trials=30, seed=4) is None
        assert conjugation_lemmas_per_trial(6, trials=30, seed=4, chunk=7) is None
        # 5 chunks, each at least one block for its lengths, one for its letters and one for its pairs
        assert len(draws["package"]) >= 3 * 5 and draws["package"] == draws["oracle"]

    def test_uniform_keeps_the_fields_below_the_bound(self):
        # 4 values below 3 first take a block of 8 fields of 2 bits, read from the lowest bits up:
        # it keeps 0, 1, 2 and drops its five 3s; the next block, of 2 fields for the one value
        # missing, keeps 1 and 2, and the 2 past the count is dropped
        blocks = {16: 0b11_11_11_11_11_10_01_00, 4: 0b10_01}
        assert spincover._uniform(lambda k: blocks.pop(k), 3, 4).tolist() == [0, 1, 2, 1]
        assert not blocks
        for bound in (2, 3, 11, 21, 132):
            got = spincover._uniform(random.Random(bound).getrandbits, bound, 5000)
            assert got.tolist() == oracles.uniform_fields(random.Random(bound), bound, 5000)
            assert got.min() == 0 and got.max() == bound - 1

    @pytest.mark.parametrize("n", [4, 5, 9, 12])
    @pytest.mark.parametrize("pair", [(1, 3), (2, 1), (4, 3)])
    def test_negated_bracket_gives_the_oracles_witness(self, monkeypatch, n, pair):
        scale_bracket(monkeypatch, *pair, -1)
        for trials in (0, 1000):
            witness = verify_conjugation_lemmas(n, trials=trials, seed=1)
            assert witness is not None and len(witness["word"]) == 1
            assert witness == conjugation_lemmas_per_trial(n, trials=trials, seed=1)
        if n <= 5:
            assert witness == conjugation_lemmas_by_clifford(n, trials=0)

    def test_negated_bracket_fails_both_checks(self, monkeypatch):
        scale_bracket(monkeypatch, 1, 3, -1)
        # t_1 [1 3] t_1^-1 must be [2 3] z; the first letter and pair in order that reads [1 3]
        want = {"word": [1], "pair": [1, 3]}
        assert verify_conjugation_lemmas(5, trials=0) == want
        assert conjugation_lemmas_by_clifford(5, trials=0) == want

    @pytest.mark.parametrize("pair", [(1, 2), (1, 3), (4, 2)])
    @pytest.mark.parametrize("trials", [0, 200])
    def test_negated_bracket_vector_fails(self, monkeypatch, pair, trials):
        original = spincover._bracket_vectors

        def negated(n):
            vectors = original(n)
            vectors[pair] *= -1
            return vectors

        monkeypatch.setattr(spincover, "_bracket_vectors", negated)
        witness = verify_conjugation_lemmas(5, trials=trials, seed=3)
        assert witness is not None and len(witness["word"]) == 1 and len(witness["pair"]) == 2

    def test_lemmas_at_the_cap(self):
        assert verify_conjugation_lemmas(spincover.N_CAP, trials=1000) is None


class TestSpinElementInvariants:
    def test_projection_is_homomorphism(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 6)
            words = [[rng.randint(1, n - 1) for _ in range(rng.randint(0, 6))] for _ in range(2)]
            lifts = []
            for word in words:
                s = SpinElement.one(n)
                for i in word:
                    s = s * generator_t(n, i)
                lifts.append(s)
            prod = lifts[0] * lifts[1]
            assert prod.perm.image == (lifts[0].perm * lifts[1].perm).image

    def test_random_products_group_like(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(2, 6)
            s = SpinElement.one(n)
            for _ in range(rng.randint(0, 10)):
                s = s * generator_t(n, rng.randint(1, n - 1))
            assert is_group_like(s)
            assert signed_action_consistent(s)


def word_product(n, word):
    """The Clifford product of the unit vectors [i j] named by a vector word of SectionCache(n)."""
    pairs = transposition_pairs(n)
    elem = CliffordElement.one(n)
    for v in word:
        elem = elem * bracket(n, *pairs[v]).elem
    return elem


class TestSection:
    def test_identity(self):
        assert SectionCache(4).section(Permutation.identity(4)) == ()
        assert CliffordSection(4).section(Permutation.identity(4)) == SpinElement.one(4)

    def test_module_functions_share_one_cache(self):
        # one cache memoises each section; the group cocycle reads its bits from such a cache
        sigma = Permutation((2, 3, 1, 5, 4))
        cache = SectionCache(5)
        assert cache.section(sigma) is cache.section(Permutation(sigma.image))
        assert cocycle_bit(phi_psi_table(5), sigma, sigma) == SectionCache(5).phi_bit(sigma, sigma)

    def test_transposition_values(self):
        cache = SectionCache(4)
        assert cache.section(Permutation.transposition(4, 1, 2)) == (0,)
        assert cache.section(Permutation.transposition(4, 2, 4)) == (transposition_pairs(4).index((2, 4)),)
        assert CliffordSection(4).section(Permutation.transposition(4, 1, 2)) == generator_t(4, 1)
        s13 = CliffordSection(3).section(Permutation.transposition(3, 1, 3))
        t1, t2 = generator_t(3, 1), generator_t(3, 2)
        assert s13 == (t1 * t2 * t1).times_z()
        assert s13 == bracket(3, 1, 3)

    def test_projection_property(self):
        # the transpositions named by the vector word multiply to sigma
        rng = random.Random(5)
        cache = SectionCache(5)
        pairs = transposition_pairs(5)
        for _ in range(30):
            img = list(range(1, 6))
            rng.shuffle(img)
            sigma = Permutation(tuple(img))
            prod = Permutation.identity(5)
            for v in cache.section(sigma):
                prod = prod * Permutation.transposition(5, *pairs[v])
            assert prod.image == sigma.image

    @pytest.mark.parametrize("n", range(2, 13))
    def test_vectors_are_read_off_the_brackets(self, n):
        cache = SectionCache(n)
        for v, (i, j) in enumerate(transposition_pairs(n)):
            elem = CliffordElement(n, {1 << m: int(c) for m, c in enumerate(cache.vectors[v])}, k=1)
            assert elem == bracket(n, i, j).elem
        assert (cache.gram == cache.vectors @ cache.vectors.T).all()
        assert (np.diag(cache.gram) == 2).all()

    def test_words_multiply_to_the_clifford_section(self):
        oracle = CliffordSection(5)
        cache = SectionCache(5)
        for img in itertools.permutations(range(1, 6)):
            sigma = Permutation(img)
            assert word_product(5, cache.section(sigma)) == oracle.section(sigma).elem

    def test_words_of_the_transposition_products_at_n8(self):
        # the 323 products x * y: inversion-code words equal the lex minimum, and the section is
        # [i j] on a transposition and the brackets [w, w+1] of that word otherwise, as before
        ts = [Permutation.transposition(8, i, j) for i, j in transposition_pairs(8)]
        products = list({(x * y).image: x * y for x in ts for y in ts}.values())
        assert len(products) == 323
        images = np.array([p.image for p in products])
        letters, lengths = lex_reduced_words(images)
        index = {pair: v for v, pair in enumerate(transposition_pairs(8))}
        cache = SectionCache(8)
        values, counts = cache.words(images)
        rows = np.split(values, np.cumsum(counts)[:-1])
        for sigma, word, row in zip(products, np.split(letters, np.cumsum(lengths)[:-1]), rows):
            lex = lex_min_reduced_word(sigma)
            assert tuple(word.tolist()) == lex
            pair = transposition_pair(sigma)
            expected = (index[pair],) if pair else tuple(index[(w, w + 1)] for w in lex)
            assert cache.section(sigma) == tuple(row.tolist()) == expected

    def test_words_keep_the_single_bracket_of_a_transposition(self):
        # S_4 in one batch: transpositions lift to [i j], never to their longer lex word
        images = np.array(list(itertools.permutations(range(1, 5))))
        values, counts = SectionCache(4).words(images)
        pairs = transposition_pairs(4)
        for img, row in zip(map(tuple, images.tolist()), np.split(values, np.cumsum(counts)[:-1])):
            pair = transposition_pair(Permutation(img))
            if pair is not None:
                assert row.tolist() == [pairs.index(pair)]
            else:
                assert len(row) == len(lex_min_reduced_word(Permutation(img)))

    @staticmethod
    def naive_section(sigma):
        """s(sigma) rebuilt from scratch: [i j] on transpositions, else the product along the lex word."""
        pair = transposition_pair(sigma)
        if pair is not None:
            return bracket(sigma.n, *pair)
        lift = SpinElement.one(sigma.n)
        for i in lex_reduced_word(sigma):
            lift = lift * generator_t(sigma.n, i)
        return lift

    def test_prefix_stack_in_shuffled_order(self):
        # the oracle's prefix stack must never leak letters of an earlier word into a later one
        rng = random.Random(12)
        s5 = [Permutation(img) for img in itertools.permutations(range(1, 6))]
        ts = [Permutation.transposition(8, i, j) for i, j in transposition_pairs(8)]
        s8 = list({p.image: p for x in ts for y in ts for p in (x, y, x * y)}.values())
        assert len(s8) == 351
        for perms in (s5, s8):
            rng.shuffle(perms)
            section = CliffordSection(perms[0].n)
            for sigma in perms:
                assert section.section(sigma) == self.naive_section(sigma)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_conjugation_rule_exhaustive(self, n):
        # s(sigma) |> s(tau) = s(sigma |> tau) * z  when sigma(i) < sigma(j),
        # and without the z factor when sigma(i) > sigma(j)
        section = CliffordSection(n)
        for (a, b) in transposition_pairs(n):
            sigma = Permutation.transposition(n, a, b)
            s_sigma = section.section(sigma)
            for (i, j) in transposition_pairs(n):
                tau = Permutation.transposition(n, i, j)
                got = s_sigma.conj(section.section(tau))
                target = section.section(sigma * tau * sigma.inverse())
                if sigma(i) < sigma(j):
                    target = target.times_z()
                assert got == target


class TestPhi:
    def test_identity_row(self):
        n = 4
        ident = Permutation.identity(n)
        gc = phi_psi_table(n)
        rng = random.Random(6)
        for _ in range(10):
            img = list(range(1, n + 1))
            rng.shuffle(img)
            assert cocycle_bit(gc, ident, Permutation(tuple(img))) == 0

    def test_transposition_square(self):
        s12 = Permutation.transposition(4, 1, 2)
        assert cocycle_bit(phi_psi_table(4), s12, s12) == 0

    @pytest.mark.parametrize("n", range(3, 7))
    def test_transposition_squares_all(self, n):
        gc = phi_psi_table(n)
        for (i, j) in transposition_pairs(n):
            sigma = Permutation.transposition(n, i, j)
            assert sign(gc, sigma, sigma) == 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_group_cocycle_condition(self, n):
        assert verify_group_cocycle(phi_psi_table(n)) is None

    def test_corrupt_section_detected(self):
        cache = SectionCache(3)
        sigma, tau = Permutation.transposition(3, 1, 2), Permutation.transposition(3, 2, 3)
        # poison the memo: s((1 2)) = [2 3], so s(x)s(y) is neither +s(xy) nor -s(xy)
        cache._memo[sigma.image] = cache.section(tau)
        with pytest.raises(SectionConsistencyError):
            cache.phi_bit(sigma, tau)


    def test_corrupt_generator_detected(self, monkeypatch):
        # the section lifts along t_i = 2(e_i - e_{i+1})/sqrt(2), an integer vector that is no unit;
        # the first bracket read is [1 2] = t_1, and every other one is built from such generators
        def doubled(n, i):
            t = generator_t(n, i)
            return SpinElement(scaled(t.elem, 2), t.perm)

        monkeypatch.setattr(oracles, "generator_t", doubled)
        use_clifford_brackets(monkeypatch)
        x, y = Permutation.transposition(4, 1, 3), Permutation.transposition(4, 1, 2)
        with pytest.raises(SectionConsistencyError, match=r"^\[1 2\] = \[2, -2, 0, 0\]/sqrt\(2\) is not a unit vector$"):
            SectionCache(4).phi_bit(x, y)


class TestGroupCocycleWitness:
    @staticmethod
    def flip_group_bit(monkeypatch, a, b):
        """Flip the bit of the a-th and b-th permutations (lexicographic order) in _group_table."""
        original = spincover._group_table

        def flipped(gc):
            images, mult, bits = original(gc)
            bits[a, b] ^= 1
            return images, mult, bits

        monkeypatch.setattr(spincover, "_group_table", flipped)

    @pytest.mark.parametrize("n, a, b", [(3, 0, 0), (3, 2, 5), (4, 7, 3), (4, 23, 23), (4, 0, 11)])
    def test_first_failing_triple_is_the_oracles(self, monkeypatch, n, a, b):
        self.flip_group_bit(monkeypatch, a, b)
        images, _, bits = spincover._group_table(phi_psi_table(n))
        witness = group_cocycle_first_failure(images.tolist(), bits.tolist())
        assert witness is not None
        assert verify_group_cocycle(phi_psi_table(n)) == witness

    def test_selfcheck_entry_carries_the_witness(self, monkeypatch, tmp_path):
        self.flip_group_bit(monkeypatch, 1, 2)
        out = tmp_path / "sc.json"
        assert cli.main(["selfcheck", "--n-max", "4", "--trials", "5", "--out", str(out)]) == 2
        checks = json.loads(out.read_text())["checks"]
        for n in (3, 4):
            witness = verify_group_cocycle(phi_psi_table(n))
            assert witness is not None and set(witness) == {"x", "y", "z"}
            entry = next(c for c in checks if c["name"] == f"group cocycle exhaustive n={n}")
            assert entry == {"name": f"group cocycle exhaustive n={n}", "ok": False, "cocycle_witness": witness}
        assert all(set(c) == {"name", "ok"} for c in checks if c["ok"])


class TestMainTheorem:
    def test_n4_pairs(self):
        assert verify_main_theorem(4) is None
        log = main_theorem_log(phi_psi_table(4).twist_table(), chi_cocycle(4))
        assert len(log) == 36
        assert all(entry["ok"] for entry in log)
        first = log[0]
        assert first["sigma"] == "(1, 2)" and first["tau"] == "(1, 2)"
        assert first["phi_bits"] == [0, 0] and first["chi_bit"] == 1

    def test_section_lemma_pair_example(self):
        # sigma = (2 3), tau = (1 2): sigma(1) < sigma(2) so the z factor appears
        n = 4
        section = CliffordSection(n)
        sigma = Permutation.transposition(n, 2, 3)
        tau = Permutation.transposition(n, 1, 2)
        got = section.section(sigma).conj(section.section(tau))
        assert got == section.section(Permutation.transposition(n, 1, 3)).times_z()

    def test_restriction_satisfies_twist_condition(self):
        for n in (4, 5):
            table = phi_psi_table(n).twist_table()
            assert check_twist_condition(table) is None

    def test_needs_four(self):
        with pytest.raises(ValueError):
            verify_main_theorem(3)

    def test_reuses_given_cocycle_bits(self, monkeypatch):
        # passing the table gives the same result, and no phi bit is computed again
        table = phi_psi_table(5).twist_table()
        expected = verify_main_theorem(5)
        monkeypatch.setattr(SectionCache, "phi_bit", lambda *args: pytest.fail("phi bit recomputed"))
        assert verify_main_theorem(5, table) == expected is None

    def test_rejects_cocycle_of_other_n(self):
        with pytest.raises(ValueError, match="share rack and order"):
            verify_main_theorem(5, phi_psi_table(4).twist_table())

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_flipped_bit_gives_the_first_failing_pair(self, n):
        # a diagonal flip cancels (x |> x = x), every off-diagonal one breaks two pairs
        table, chi = phi_psi_table(n).twist_table(), chi_cocycle(n)
        k = len(table.phi)
        for a, b in itertools.permutations(range(k), 2):
            flipped = flip_phi_bit(table, a, b)
            failing = [entry for entry in main_theorem_log(flipped, chi) if not entry["ok"]]
            assert len(failing) == 2
            assert verify_main_theorem(n, flipped) == failing[0]
        for a in range(k):
            assert verify_main_theorem(n, flip_phi_bit(table, a, a)) is None


class TestPhiPsiScalars:
    def test_sign_character(self):
        gc = phi_psi_table(4)
        x = Permutation.transposition(4, 1, 3)
        y = Permutation.transposition(4, 1, 2)
        assert sign(gc, x, y) == (-1) ** cocycle_bit(gc, x, y)


class TestSelfcheckWitness:
    def test_failing_main_theorem_carries_its_first_pair(self, monkeypatch, tmp_path):
        scale_bracket(monkeypatch, 1, 3, -1)
        out = tmp_path / "sc.json"
        assert cli.main(["selfcheck", "--n-max", "5", "--trials", "20", "--out", str(out)]) == 2
        checks = json.loads(out.read_text())["checks"]
        for n in (4, 5):
            pair = verify_main_theorem(n)
            assert pair is not None
            entry = next(c for c in checks if c["name"] == f"main theorem n={n}")
            assert entry == {"name": f"main theorem n={n}", "ok": False, "first_failing_pair": pair}
        assert all(set(c) == {"name", "ok"} for c in checks if c["ok"])

    def test_failing_conjugation_lemmas_carry_their_witness(self, monkeypatch, tmp_path):
        scale_bracket(monkeypatch, 2, 4, -1)
        out = tmp_path / "sc.json"
        assert cli.main(["selfcheck", "--n-max", "5", "--trials", "20", "--seed", "2", "--out", str(out)]) == 2
        checks = json.loads(out.read_text())["checks"]
        for n in (4, 5):
            witness = verify_conjugation_lemmas(n, trials=20, seed=2)
            assert witness == {"word": [2], "pair": [2, 4]}
            entry = next(c for c in checks if c["name"] == f"conjugation lemmas n={n}")
            assert entry == {"name": f"conjugation lemmas n={n}", "ok": False, "lemma_witness": witness}

    def test_failing_cover_report_carries_the_lemma_witness(self, monkeypatch, tmp_path, capsys):
        scale_bracket(monkeypatch, 2, 4, -1)
        out = tmp_path / "cover.json"
        assert cli.main(["cover", "--n", "5", "--trials", "20", "--out", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["lemma_general_ok"] is False and report["ok"] is False
        assert report["lemma_witness"] == {"word": [2], "pair": [2, 4]}
        assert "first failing conjugation: word [2], pair [2, 4]" in capsys.readouterr().out

    def test_passing_report_has_twelve_plain_checks(self, tmp_path):
        out = tmp_path / "sc.json"
        assert cli.main(["selfcheck", "--n-max", "4", "--seed", "1", "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert len(checks) == 12
        assert all(c["ok"] is True and set(c) == {"name", "ok"} for c in checks)


class TestPfaffianSigns:
    """Phi bits as signs of integer Pfaffians, against the Clifford expansion."""

    def test_primes(self):
        primes = pfaffian._PRIMES
        assert list(primes) == sorted(set(primes), reverse=True)
        assert all(p < 2**30 and _is_prime_u32(p) for p in primes)
        # one prime decides N <= 56 vectors, two decide N <= 116
        assert len(pfaffian._primes_for(56)) == 1
        assert len(pfaffian._primes_for(58)) == 2
        assert len(pfaffian._primes_for(116)) == 2
        with pytest.raises(DimensionCapError):
            pfaffian._primes_for(60 * len(primes))

    @pytest.mark.parametrize("n, lengths", [(5, range(0, 13)), (6, (40, 54, 56, 70))])
    def test_random_words_match_clifford_products(self, n, lengths):
        # random vector words are rarely +-1; a word times its reverse is 1, and
        # [1 2][3 4][1 2][3 4] = -1 in between makes it -1; N >= 58 takes a second prime
        rng = random.Random(n)
        cache = SectionCache(n)
        pairs = transposition_pairs(n)
        a, c = pairs.index((1, 2)), pairs.index((3, 4))
        one = CliffordElement.one(n)
        words, expected = [], []
        for size in lengths:
            for trial in range(30):
                if trial % 3 == 0:
                    word = tuple(rng.randrange(len(pairs)) for _ in range(size))
                else:
                    half = tuple(rng.randrange(len(pairs)) for _ in range(size // 2))
                    word = half + (a, c, a, c) * (trial % 3 - 1) + half[::-1]
                words.append(word)
                prod = word_product(n, word)
                expected.append(0 if prod == one else 1 if prod == -one else -1)
        assert cache.word_bits(words).tolist() == expected
        assert set(expected) == {-1, 0, 1}

    def test_word_of_minus_one(self):
        # [1 2][2 3][1 2][2 3][1 2][2 3] = (t_1 t_2)^3 = 1, while [1 2][3 4][1 2][3 4] = z
        cache = SectionCache(4)
        idx = {pair: v for v, pair in enumerate(transposition_pairs(4))}
        a, b, c = idx[(1, 2)], idx[(2, 3)], idx[(3, 4)]
        assert cache.word_bits([(a, b) * 3, (a, c) * 2, (), (a, b, c)]).tolist() == [0, 1, 0, -1]

    @staticmethod
    def mixed_batch(n, lengths, seed):
        """Random vector words of the given lengths, half of them +-1 by construction, and their Clifford bits."""
        rng = random.Random(seed)
        pairs = transposition_pairs(n)
        a, c = pairs.index((1, 2)), pairs.index((3, 4))
        one = CliffordElement.one(n)
        words, expected = [], []
        for trial, size in enumerate(lengths):
            minus = trial % 4 == 2 and size >= 4  # [1 2][3 4][1 2][3 4] = -1 in the middle
            if trial % 2 or size % 2:
                word = tuple(rng.randrange(len(pairs)) for _ in range(size))
            else:
                half = tuple(rng.randrange(len(pairs)) for _ in range(size // 2 - 2 * minus))
                word = half + (a, c, a, c) * minus + half[::-1]
            words.append(word)
            prod = word_product(n, word)
            expected.append(0 if prod == one else 1 if prod == -one else -1)
        return words, expected

    def test_shuffled_batch_equals_sorted_batch(self):
        # the sweep sorts by length; the bits must not depend on the order they come in
        words, expected = self.mixed_batch(5, [size for size in range(0, 21) for _ in range(6)], seed=1)
        order = list(range(len(words)))
        random.Random(2).shuffle(order)
        cache = SectionCache(5)
        assert cache.word_bits(words).tolist() == expected
        assert cache.word_bits([words[i] for i in order]).tolist() == [expected[i] for i in order]
        assert set(expected) == {-1, 0, 1}

    @staticmethod
    def record_sweeps(monkeypatch, batch_entries):
        """Set _BATCH_ENTRIES and log (prime, lengths) of every sweep of the kernel."""
        sweeps = []
        original = pfaffian._pfaffian_signs_modp

        def spy(a, sizes, p):
            sweeps.append((p, sizes.tolist()))
            return original(a, sizes, p)

        monkeypatch.setattr(pfaffian, "_BATCH_ENTRIES", batch_entries)
        monkeypatch.setattr(pfaffian, "_pfaffian_signs_modp", spy)
        return sweeps

    def test_chunk_boundary_splits_a_size_class(self, monkeypatch):
        # a chunk of 700 entries holds 7 words of length 10 or 10 of length 8, so both classes are split
        words, expected = self.mixed_batch(5, [10] * 20 + [8] * 20 + [4] * 5, seed=3)
        sweeps = self.record_sweeps(monkeypatch, 700)
        assert SectionCache(5).word_bits(words).tolist() == expected
        p = pfaffian._PRIMES[0]
        chunks = [[10] * 7, [10] * 7, [10] * 6 + [8], [8] * 10, [8] * 9 + [4], [4] * 4]
        assert sweeps == [(p, chunk) for chunk in chunks]

    def test_one_batch_of_odd_empty_short_and_long_words(self, monkeypatch):
        # one chunk; N >= 58 takes a second prime, which sweeps only the long words at its head
        sizes = [0, 3, 6, 57, 58, 56, 2, 70, 0, 41, 60, 12, 64, 62, 7]
        words, expected = self.mixed_batch(6, sizes, seed=4)
        sweeps = self.record_sweeps(monkeypatch, 1 << 20)
        assert SectionCache(6).word_bits(words).tolist() == expected
        first, second = pfaffian._PRIMES[:2]
        assert sweeps == [(first, [70, 64, 62, 60, 58, 56, 12, 6, 2, 0, 0]), (second, [70, 64, 62, 60, 58])]
        assert [expected[i] for i in (0, 8, 1, 3, 9, 14)] == [0, 0, -1, -1, -1, -1]  # empty, odd
        assert {bit for bit, size in zip(expected, sizes) if 0 < size <= 56 and size % 2 == 0} == {-1, 0, 1}
        assert {bit for bit, size in zip(expected, sizes) if size >= 58} == {-1, 0, 1}

    def test_entries_shifted_by_p_decide_the_same_signs(self, monkeypatch):
        # the sweep reduces with np.fmod, so any representative in (-p, p) of an entry is read alike
        words, expected = self.mixed_batch(6, [size for size in range(0, 71, 2) for _ in range(4)], seed=5)
        sweeps = []
        original = pfaffian._pfaffian_signs_modp

        def spy(a, sizes, p):
            sweeps.append((a.copy(), sizes, p))
            return original(a, sizes, p)

        monkeypatch.setattr(pfaffian, "_pfaffian_signs_modp", spy)
        assert SectionCache(6).word_bits(words).tolist() == expected
        assert len(sweeps) >= 2 and any(p != sweeps[0][2] for _, _, p in sweeps)
        rng = np.random.default_rng(6)
        for a, sizes, p in sweeps:
            assert a.min() >= 0 and a.max() < p
            shifted = np.where(rng.random(a.shape) < 0.5, a - p * (a > 0), a)
            assert shifted.min() > -p and (shifted < 0).any()
            # the sweep works in place, so every call gets its own copy
            assert (original(shifted.copy(), sizes, p) == original(a.copy(), sizes, p)).all()
            assert (original(-shifted, sizes, p) == original(-a, sizes, p)).all()

    @pytest.mark.parametrize("n", range(4, 11))
    def test_twist_table_equals_the_clifford_lift(self, n):
        assert phi_psi_table(n).twist_table() == clifford_twist_table(n)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_group_cocycle_bits_equal_the_clifford_lift(self, n):
        images, mult, bits = spincover._group_table(phi_psi_table(n))
        perms = [Permutation(tuple(img)) for img in images.tolist()]
        oracle = CliffordSection(n)
        for a, x in enumerate(perms):
            for b, y in enumerate(perms):
                assert perms[mult[a, b]].image == (x * y).image
                assert bits[a, b] == oracle.phi_bit(x, y)

    @pytest.mark.parametrize("n", [4, 5, 6, 13, 16])
    def test_reflection_oracle_agrees_with_twist_verify(self, n):
        # no Clifford oracle reaches n = 13 and 16
        assert cli.main(["twist-verify", "--n", str(n)]) == 0
        assert twist_identity_by_reflections(n) is None

    def test_negated_bracket_fails_everywhere(self, monkeypatch):
        scale_bracket(monkeypatch, 1, 3, -1)
        assert oracles.bracket(5, 1, 3).elem == -bracket_vector_elem(5, 1, 3)
        assert spincover._bracket_vectors(5)[1, 3].tolist() == [-1, 0, 1, 0, 0]
        assert cli.main(["twist-verify", "--n", "5"]) == 2
        assert verify_main_theorem(5) is not None
        assert verify_main_theorem(5, clifford_twist_table(5)) is not None
        assert twist_identity_by_reflections(5) is not None

    def test_non_unit_bracket_raises(self, monkeypatch):
        # [1 4] is built from [2 4], so it is the first bracket read that is not a unit vector
        scale_bracket(monkeypatch, 2, 4, 2)
        with pytest.raises(SectionConsistencyError, match=r"\[1 4\].*not a unit vector"):
            phi_psi_table(5).twist_table()


def bracket_vector_elem(n, i, j):
    """(e_i - e_j)/sqrt(2), the closed form of [i j] for i < j."""
    return CliffordElement(n, {1 << (i - 1): 1, 1 << (j - 1): -1}, k=1)
