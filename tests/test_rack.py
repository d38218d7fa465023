import itertools
import json
import random

import numpy as np
import pytest

from oracles import (
    OrbitTooLargeError,
    conjugacy_class_rack,
    coxeter_length,
    is_indecomposable_by_union_find,
    lex_min_reduced_word,
    lex_reduced_word,
    planted_tables,
    rack_axioms_by_loops,
    save_rack,
    transposition_rack_by_permutations,
)
from racktwist.rack import (
    FiniteRack,
    Permutation,
    _pair_index,
    check_rack_axioms,
    is_indecomposable,
    lex_reduced_words,
    load_rack,
    rack_from_dict,
    rack_to_dict,
    transposition_pairs,
    transposition_rack,
)


def s_n_generators(n):
    return [Permutation.adjacent(n, i) for i in range(1, n)]


def trivial_rack(k):
    return FiniteRack(op=tuple(tuple(range(k)) for _ in range(k)))


class TestPermutation:
    def test_compose_and_inverse(self):
        p = Permutation((2, 3, 1))
        q = Permutation((1, 3, 2))
        assert (p * q).image == (2, 1, 3)
        assert p * p.inverse() == Permutation.identity(3)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_length_is_inversion_count(self):
        assert coxeter_length(Permutation((3, 2, 1))) == 3
        assert coxeter_length(Permutation.identity(5)) == 0
        p = Permutation((2, 4, 1, 3))
        img = p.image
        brute = sum(
            1 for a in range(4) for b in range(a + 1, 4) if img[a] > img[b]
        )
        assert coxeter_length(p) == brute == 3

    def test_lex_reduced_word_for_13(self):
        word = lex_reduced_word(Permutation.transposition(3, 1, 3))
        assert word == (1, 2, 1)

    def test_reduced_word_reconstructs(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(2, 7)
            img = list(range(1, n + 1))
            rng.shuffle(img)
            p = Permutation(tuple(img))
            word = lex_reduced_word(p)
            assert len(word) == coxeter_length(p)
            acc = Permutation.identity(n)
            for i in word:
                acc = acc * Permutation.adjacent(n, i)
            assert acc.image == p.image

    def test_lex_reduced_word_is_the_minimum_over_all_reduced_words(self):
        for img in itertools.permutations(range(1, 6)):
            p = Permutation(img)
            assert lex_reduced_word(p) == lex_min_reduced_word(p)
        rng = random.Random(11)
        for _ in range(200):
            img = list(range(1, 8))
            rng.shuffle(img)
            p = Permutation(tuple(img))
            assert lex_reduced_word(p) == lex_min_reduced_word(p)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_inversion_code_words_are_the_lex_minimum(self, n):
        # every permutation of S_n, in one batch and one at a time
        images = np.array(list(itertools.permutations(range(1, n + 1)))).reshape(-1, n)
        letters, lengths = lex_reduced_words(images)
        words = np.split(letters, np.cumsum(lengths)[:-1])
        assert len(words) == len(images)
        for img, word in zip(map(tuple, images.tolist()), words):
            expected = lex_min_reduced_word(Permutation(img))
            assert tuple(word.tolist()) == expected
            assert lex_reduced_word(Permutation(img)) == expected

    def test_cycle_string(self):
        assert Permutation.identity(3).cycle_string() == "id"
        assert Permutation.transposition(4, 2, 4).cycle_string() == "(2 4)"


class TestConjugacyClassRack:
    def test_s3_transpositions(self):
        r = conjugacy_class_rack(s_n_generators(3), Permutation.transposition(3, 1, 2))
        assert r.size == 3
        assert check_rack_axioms(r) is None

    def test_s3_conjugation_value(self):
        r = conjugacy_class_rack(s_n_generators(3), Permutation.transposition(3, 1, 2))
        idx = {lab: i for i, lab in enumerate(r.labels)}
        # (1 2) |> (1 3) = (1 2)(1 3)(1 2) = (2 3)
        assert r.op[idx["(1 2)"]][idx["(1 3)"]] == idx["(2 3)"]

    def test_s4_size(self):
        r = conjugacy_class_rack(s_n_generators(4), Permutation.transposition(4, 1, 2))
        assert r.size == 6

    def test_self_fixing_and_closure(self):
        r = conjugacy_class_rack(s_n_generators(4), Permutation.transposition(4, 1, 2))
        for x in range(r.size):
            assert r.op[x][x] == x
            for y in range(r.size):
                assert 0 <= r.op[x][y] < r.size

    def test_orbit_cap(self):
        with pytest.raises(OrbitTooLargeError):
            conjugacy_class_rack(
                s_n_generators(5), Permutation.transposition(5, 1, 2), cap=5
            )


class TestTranspositionRack:
    @pytest.mark.parametrize("n,size", [(2, 1), (3, 3), (4, 6), (5, 10)])
    def test_sizes(self, n, size):
        assert transposition_rack(n).size == size

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            transposition_rack(1)

    def test_built_once_per_n(self):
        # the twist table and chi share one frozen rack; a caller cannot change it
        from racktwist.cocycle import chi_cocycle
        from racktwist.spincover import phi_psi_table

        r = transposition_rack(6)
        assert transposition_rack(6) is r is chi_cocycle(6).rack is phi_psi_table(6).twist_table().rack
        with pytest.raises(ValueError, match="read-only"):
            r.op[0, 1] = 0
        assert r == transposition_rack_by_permutations(6)
        with pytest.raises(AttributeError):
            r.op = ()

    @pytest.mark.parametrize("n", range(2, 13))
    def test_equals_the_permutation_oracle(self, n):
        assert transposition_rack(n) == transposition_rack_by_permutations(n)

    def test_disjoint_transpositions_commute(self):
        r = transposition_rack(4)
        pairs = transposition_pairs(4)
        i12, i34 = pairs.index((1, 2)), pairs.index((3, 4))
        assert r.op[i12][i34] == i34

    def test_axioms(self):
        for n in (2, 3, 4, 5):
            assert check_rack_axioms(transposition_rack(n)) is None

    def test_labels_come_from_pairs(self):
        assert transposition_rack(4).labels == ("(1 2)", "(1 3)", "(1 4)", "(2 3)", "(2 4)", "(3 4)")

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_pair_index_is_the_place_in_transposition_pairs(self, n):
        i, j = np.array(transposition_pairs(n)).T - 1
        assert _pair_index(i, j, n).tolist() == list(range(n * (n - 1) // 2))
        assert [_pair_index(a - 1, b - 1, n) for a, b in transposition_pairs(n)] == list(range(n * (n - 1) // 2))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_conjugacy_class_construction(self, n):
        direct = transposition_rack(n)
        orbit = conjugacy_class_rack(s_n_generators(n), Permutation.transposition(n, 1, 2))
        relabel = [orbit.labels.index(lab) for lab in direct.labels]
        for x in range(direct.size):
            for y in range(direct.size):
                assert relabel[direct.op[x][y]] == orbit.op[relabel[x]][relabel[y]]


class TestAxiomChecker:
    def test_constructor_rejects_out_of_range_entries(self):
        for op in (((0, 1), (2, 0)), ((0, -1), (1, 0))):
            with pytest.raises(ValueError, match=r"entries must lie in 0\.\.1"):
                FiniteRack(op=op)

    def test_constant_row_reported(self):
        bad = FiniteRack(op=((0, 0, 0), (0, 1, 2), (0, 1, 2)))
        assert check_rack_axioms(bad) == {"kind": "non-bijective-row", "witness": (0,)}

    def test_latin_square_violating_distributivity(self):
        # rows are bijections but the table is not self-distributive
        bad = FiniteRack(op=((1, 2, 0), (0, 1, 2), (0, 1, 2)))
        violation = check_rack_axioms(bad)
        assert violation["kind"] == "not-self-distributive"
        # the violation must name the lexicographically first violating triple
        first = next(
            (x, y, z)
            for x in range(3)
            for y in range(3)
            for z in range(3)
            if bad.op[x][bad.op[y][z]] != bad.op[bad.op[x][y]][bad.op[x][z]]
        )
        assert violation["witness"] == first


class TestAgainstTheLoops:
    # the numpy checks against the plain loops, on small racks with planted faults

    @pytest.mark.parametrize("seed", range(5))
    def test_axioms_match_the_loops(self, seed):
        kinds = set()
        for r in planted_tables(seed):
            violation = check_rack_axioms(r)
            want = rack_axioms_by_loops(r)
            assert violation == (None if want is None else {"kind": want[0], "witness": want[1]})
            kinds.add(None if violation is None else violation["kind"])
        assert kinds == {None, "non-bijective-row", "not-self-distributive"}

    @pytest.mark.parametrize("seed", range(5))
    def test_indecomposable_matches_union_find(self, seed):
        verdicts = set()
        for r in planted_tables(seed):
            verdicts.add(is_indecomposable(r))
            assert is_indecomposable(r) == is_indecomposable_by_union_find(r)
        assert verdicts == {True, False}


class TestIndecomposability:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_transposition_racks_connected(self, n):
        assert is_indecomposable(transposition_rack(n))

    def test_trivial_rack_disconnected(self):
        assert not is_indecomposable(trivial_rack(2))

    def test_singleton(self):
        assert is_indecomposable(trivial_rack(1))

    def test_matches_networkx(self):
        import networkx as nx

        for r in (transposition_rack(4), trivial_rack(3)):
            g = nx.Graph()
            g.add_nodes_from(range(r.size))
            for x in range(r.size):
                for y in range(r.size):
                    g.add_edge(y, r.op[x][y])
            assert is_indecomposable(r) == nx.is_connected(g)


class TestRackJson:
    def test_round_trip(self, tmp_path):
        r = transposition_rack(4)
        path = tmp_path / "rack.json"
        save_rack(r, str(path))
        loaded = load_rack(str(path))
        assert np.array_equal(loaded.op, r.op)
        assert loaded.labels == r.labels
        raw = json.loads(path.read_text())
        assert set(raw) == {"size", "op", "labels"}
        assert raw["size"] == 6

    def test_size_mismatch_rejected(self):
        d = rack_to_dict(transposition_rack(3))
        d["size"] = 5
        with pytest.raises(ValueError):
            rack_from_dict(d)
