import itertools
import random

import numpy as np
import pytest

from oracles import (
    chi_exponents_by_permutations,
    cocycle_first_failure,
    conjugacy_class_rack,
    inverse_gauge,
    lift_to_order,
    planted_tables,
    rack_axioms_by_loops,
    twist_by_loop,
    twist_condition_first_failure,
)
from racktwist import rack as rack_mod
from racktwist.cocycle import (
    GaugeFunction,
    RackCocycle,
    TwistTable,
    _cocycle_condition,
    check_rack_cocycle,
    check_twist_condition,
    chi_cocycle,
    cocycle_from_dict,
    cocycle_to_dict,
    constant_cocycle,
    find_gauge,
    gauge_transform,
    minus_one_cocycle,
    twist,
)
from racktwist.errors import DimensionCapError, RackAxiomError
from racktwist.rack import FiniteRack, Permutation, check_rack_axioms, transposition_pairs, transposition_rack
from racktwist.spincover import phi_psi_table

X3 = transposition_rack(3)
X4 = transposition_rack(4)


def cocycle_witness(q):
    """The triple of the not-a-cocycle violation of check_rack_cocycle, or None when q is a 2-cocycle on a rack."""
    violation = check_rack_cocycle(q)
    if violation is None:
        return None
    assert violation["kind"] == "not-a-cocycle"
    return violation["witness"]


def pair_index(n, i, j):
    return transposition_pairs(n).index((i, j))


def random_cocycle_pool(rng, max_size=8):
    """Random conjugation racks of size <= max_size with gauge-twisted constant cocycles."""
    seeds = [
        (3, Permutation.transposition(3, 1, 2)),
        (3, Permutation((2, 3, 1))),
        (4, Permutation.transposition(4, 1, 2)),
        (4, Permutation((2, 1, 4, 3))),
        (4, Permutation((2, 3, 1, 4))),
        (4, Permutation((2, 3, 4, 1))),
    ]
    n, seed = seeds[rng.randrange(len(seeds))]
    gens = [Permutation.adjacent(n, i) for i in range(1, n)]
    rack = conjugacy_class_rack(gens, seed)
    m = rng.randint(1, 6)
    q = constant_cocycle(rack, m, rng.randrange(m))
    gamma = GaugeFunction(rack, m, tuple(rng.randrange(m) for _ in range(rack.size)))
    return gauge_transform(q, gamma)


class TestConstantCocycle:
    def test_minus_one_on_x4(self):
        q = constant_cocycle(X4, 2, 1)
        assert q.order == 2
        assert all(e == 1 for row in q.exp for e in row)
        assert cocycle_witness(q) is None
        assert np.array_equal(q.exp, minus_one_cocycle(X4).exp)

    def test_trivial_order_one(self):
        q = constant_cocycle(X3, 1, 0)
        assert cocycle_witness(q) is None

    def test_minus_one_on_x3(self):
        q = constant_cocycle(X3, 2, 1)
        assert cocycle_witness(q) is None

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            constant_cocycle(X3, 2, 2)


class TestChiCocycle:
    def test_value_on_repeated_transposition(self):
        q = chi_cocycle(3)
        a = pair_index(3, 1, 2)
        # sigma = (1 2), tau = (1 2): sigma(1)=2 > sigma(2)=1, so value -1
        assert q.exp[a][a] == 1

    def test_value_disjoint_action(self):
        q = chi_cocycle(3)
        s = pair_index(3, 2, 3)
        t = pair_index(3, 1, 2)
        # sigma = (2 3): sigma(1)=1 < sigma(2)=3, so value +1
        assert q.exp[s][t] == 0

    def test_value_overlapping(self):
        q = chi_cocycle(4)
        s = pair_index(4, 1, 2)
        t = pair_index(4, 1, 3)
        # sigma = (1 2): sigma(1)=2 < sigma(3)=3, so value +1
        assert q.exp[s][t] == 0

    def test_is_cocycle(self):
        for n in (3, 4, 5):
            assert cocycle_witness(chi_cocycle(n)) is None

    def test_needs_three(self):
        with pytest.raises(ValueError):
            chi_cocycle(2)


class TestCheckCocycle:
    def test_flipped_entry_detected_with_first_witness(self):
        q = chi_cocycle(4)
        exp = [list(row) for row in q.exp]
        exp[2][3] ^= 1
        bad = RackCocycle(rack=q.rack, order=2, exp=tuple(tuple(r) for r in exp))
        witness = cocycle_witness(bad)
        assert witness is not None
        op = bad.rack.op
        first = next(
            (x, y, z)
            for x in range(6)
            for y in range(6)
            for z in range(6)
            if (bad.exp[x][op[y][z]] + bad.exp[y][z]
                - bad.exp[op[x][y]][op[x][z]] - bad.exp[x][z]) % 2
        )
        assert witness == first

    def test_orders_up_to_two_to_the_62(self):
        # exponents near 2^62 sum past int64 only beyond that order
        m = 2**62
        q = constant_cocycle(transposition_rack(4), m, m - 1)
        assert cocycle_witness(q) is None
        exp = [list(row) for row in q.exp]
        exp[2][3] = m - 2
        bad = RackCocycle(rack=q.rack, order=m, exp=tuple(tuple(r) for r in exp))
        op = bad.rack.op
        first = next(
            (x, y, z)
            for x, y, z in itertools.product(range(6), repeat=3)
            if (bad.exp[x][op[y][z]] + bad.exp[y][z] - bad.exp[op[x][y]][op[x][z]] - bad.exp[x][z]) % m
        )
        assert cocycle_witness(bad) == first
        with pytest.raises(DimensionCapError, match="2\\^62"):
            cocycle_witness(constant_cocycle(transposition_rack(4), m + 1, 1))


def flipped_tables(table):
    """Every copy of an order-2 table with exactly one entry flipped."""
    k = len(table)
    for a, b in itertools.product(range(k), repeat=2):
        rows = [list(row) for row in table]
        rows[a][b] ^= 1
        yield tuple(tuple(row) for row in rows)


class TestChecksMatchTripleLoops:
    # the checks scan one (y, z) slab per x; the oracles are plain triple loops

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_cocycle_witness_on_flipped_chi(self, n):
        chi = chi_cocycle(n)
        assert cocycle_witness(chi) is None and cocycle_first_failure(chi) is None
        failures = 0
        for exp in flipped_tables(chi.exp):
            q = RackCocycle(rack=chi.rack, order=2, exp=exp)
            want = cocycle_first_failure(q)
            assert cocycle_witness(q) == want
            failures += want is not None
        assert failures > 0

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_twist_witness_on_flipped_twist_table(self, n):
        table = phi_psi_table(n).twist_table()
        assert check_twist_condition(table) is None and twist_condition_first_failure(table) is None
        failures = 0
        for phi in flipped_tables(table.phi):
            t = TwistTable(rack=table.rack, order=2, phi=phi)
            want = twist_condition_first_failure(t)
            assert check_twist_condition(t) == want
            failures += want is not None
        assert failures > 0

    def test_witness_at_higher_order(self):
        rng = random.Random(8)
        for _ in range(30):
            q = random_cocycle_pool(rng)
            k, m = q.rack.size, q.order
            exp = [list(row) for row in q.exp]
            exp[rng.randrange(k)][rng.randrange(k)] = rng.randrange(m)
            bad = RackCocycle(rack=q.rack, order=m, exp=tuple(tuple(row) for row in exp))
            assert cocycle_witness(bad) == cocycle_first_failure(bad)
            phi = TwistTable(q.rack, m, tuple(tuple(rng.randrange(m) for _ in range(k)) for _ in range(k)))
            assert check_twist_condition(phi) == twist_condition_first_failure(phi)


# Tables on {0, 1, 2} (not racks) whose only failing triple is the last one,
# (2, 2, 2): one for the cocycle condition and one for the twist condition,
# which check_twist_condition refuses, as the condition is defined on racks only.
LAST_TRIPLE_COCYCLE = (((0, 2, 0), (0, 2, 0), (0, 0, 1)), ((0, 0, 1), (0, 0, 1), (0, 1, 1)))
LAST_TRIPLE_TWIST = (((0, 2, 1), (2, 1, 0), (1, 1, 0)), ((0, 1, 0), (1, 0, 0), (0, 0, 0)))


def at_the_top(table, k, scale=1, shift=0, m=2):
    """(op, exp) on {0..k-1}: the 3 x 3 table on the last three elements, the trivial rack elsewhere.

    Exponents e become scale * e + shift (mod m), and shift fills the rest.
    Both conditions hold on every triple that the small table does not fail,
    and a constant shift cancels, so the first failure stays at
    (k-1, k-1, k-1).
    """
    op3, exp3 = table
    s = k - 3
    op = [list(range(k)) for _ in range(k)]
    exp = [[shift % m] * k for _ in range(k)]
    for a, b in itertools.product(range(3), repeat=2):
        op[s + a][s + b] = s + op3[a][b]
        exp[s + a][s + b] = (scale * exp3[a][b] + shift) % m
    return FiniteRack(op=tuple(map(tuple, op))), tuple(map(tuple, exp))


class TestChunkedTripleChecks:
    # at the default size k = 30 takes four chunks (9, 9, 9 and 3 x); at 1 entry every x
    # is a chunk of its own, and at 50 entries k = 5 takes chunks of two x

    @pytest.mark.parametrize("k", [3, 5, 30])
    @pytest.mark.parametrize("entries", [None, 1, 50])
    @pytest.mark.parametrize("m,scale,shift", [(2, 1, 0), (2**62, 2**61, 2**61 - 1), (2**62, 2**61, 2**62 - 3)])
    def test_failure_at_the_last_triple(self, monkeypatch, k, entries, m, scale, shift):
        if entries is not None:
            monkeypatch.setattr(rack_mod, "_TRIPLE_ENTRIES", entries)
        rack, exp = at_the_top(LAST_TRIPLE_COCYCLE, k, scale, shift, m)
        q = RackCocycle(rack, m, exp)
        # not a rack, so the cocycle mask that check_rack_cocycle runs is scanned on its own
        op = np.array(rack.op, dtype=np.intp)
        assert rack_mod._first_failure(op, [_cocycle_condition(q, op)]) == (0, (k - 1,) * 3)
        assert cocycle_first_failure(q) == (k - 1,) * 3
        rack, phi = at_the_top(LAST_TRIPLE_TWIST, k, scale, shift, m)
        t = TwistTable(rack, m, phi)
        assert twist_condition_first_failure(t) == (k - 1,) * 3
        with pytest.raises(RackAxiomError, match=f"^non-bijective-row at \\({k - 1},\\): the twist condition needs a rack$"):
            check_twist_condition(t)

    @pytest.mark.parametrize("n", [4, 5])
    def test_witness_in_later_chunks(self, monkeypatch, n):
        k = n * (n - 1) // 2
        monkeypatch.setattr(rack_mod, "_TRIPLE_ENTRIES", k * k)  # one x per chunk
        chi, table = chi_cocycle(n), phi_psi_table(n).twist_table()
        xs = set()
        for exp in flipped_tables(chi.exp):
            q = RackCocycle(rack=chi.rack, order=2, exp=exp)
            assert cocycle_witness(q) == cocycle_first_failure(q)
            xs.add(cocycle_witness(q)[0])
        for phi in flipped_tables(table.phi):
            t = TwistTable(rack=table.rack, order=2, phi=phi)
            triple = check_twist_condition(t)
            assert triple == twist_condition_first_failure(t)
            if triple is not None:
                xs.add(triple[0])
        assert max(xs) >= 1  # a witness outside the first chunk

    # On x3 at order 2^62 - 1, (0, 1, 0) holds although both sides of its twist residue
    # sum past 2^63 and differ by -m; the first failure is (0, 1, 2).  On x4 at order 4,
    # (0, 1, 2) holds with a residue of -12 = -3m; the first failure is (0, 1, 4).
    M = 2**62 - 1

    @pytest.mark.parametrize("n,m,phi,holds,sides,witness", [
        (3, M, ((M - 2, M - 2, M - 2), (M - 2, M - 4, M - 1), (1, M - 4, M - 2)),
         (0, 1, 0), (3 * M - 7, 4 * M - 7), (0, 1, 2)),
        (4, 4, ((2, 0, 0, 0, 3, 3), (0, 1, 3, 0, 2, 3), (1, 0, 1, 3, 3, 0),
                (0, 0, 0, 1, 0, 2), (3, 3, 0, 2, 0, 0), (0, 0, 2, 3, 2, 1)),
         (0, 1, 2), (0, 12), (0, 1, 4)),
    ], ids=["x3", "x4"])
    def test_twist_residues_at_the_extremes(self, n, m, phi, holds, sides, witness):
        t = TwistTable(transposition_rack(n), m, phi)
        op, (x, y, z) = t.rack.op, holds
        yz, xy, xz = op[y][z], op[x][y], op[x][z]
        xyz = op[x][yz]
        assert sides == (
            phi[x][z] + phi[xy][xz] + phi[xyz][x] + phi[yz][y],
            phi[y][z] + phi[x][yz] + phi[xyz][xy] + phi[xz][x],
        )
        assert twist_condition_first_failure(t) == witness
        assert check_twist_condition(t) == witness

    def test_orders_above_two_to_the_62_are_refused(self):
        # each record refuses the order before it reads its table, so no check, twist or gauge ever sees one
        m = 2**62 + 1
        for build, what in ((lambda: TwistTable(X4, m, ((0,) * 6,) * 6), "twist"),
                            (lambda: constant_cocycle(X4, m, 1), "cocycle"),
                            (lambda: RackCocycle(X4, m, ((2**63,) * 6,) * 6), "cocycle"),
                            (lambda: GaugeFunction(X4, m, (2**70,) * 6), "gauge")):
            with pytest.raises(DimensionCapError) as exc:
                build()
            assert str(exc.value) == f"{what} order {m} > 2^62 is too large for 64-bit exponent sums"

    @pytest.mark.parametrize("m", [2, 3, 64, 65, 2**15, 2**15 + 1, 2**31, 2**31 + 1, 2**62])
    def test_residues_at_the_dtype_bounds(self, m):
        # the cocycle residues are taken in the smallest signed dtype that holds 2m; exponents
        # 0, 1, m - 2 and m - 1 drive them to +-(2m - 2), next to the bound
        rng = random.Random(m)
        for _ in range(30):
            exp = tuple(tuple(rng.choice((0, 1, m - 2, m - 1)) % m for _ in range(6)) for _ in range(6))
            q = RackCocycle(X4, m, exp)
            want = cocycle_first_failure(q)
            assert check_rack_cocycle(q) == (None if want is None else {"kind": "not-a-cocycle", "witness": want})


class TestRackCocycle:
    # the rows, then self-distributivity, then the cocycle condition, in one scan of the triples

    @pytest.mark.parametrize("entries", [None, 1, 20])
    def test_matches_the_loops(self, monkeypatch, entries):
        # small racks with planted faults, each with a cocycle of order 3 and one flipped exponent
        if entries is not None:
            monkeypatch.setattr(rack_mod, "_TRIPLE_ENTRIES", entries)
        rng = random.Random(entries)
        kinds = set()
        for r in planted_tables(7):
            k = r.size
            exp = [[0] * k for _ in range(k)]
            exp[rng.randrange(k)][rng.randrange(k)] = rng.randrange(3)
            q = RackCocycle(r, 3, tuple(map(tuple, exp)))
            violation = check_rack_cocycle(q)
            want = rack_axioms_by_loops(r)
            if want is None and cocycle_first_failure(q) is not None:
                want = ("not-a-cocycle", cocycle_first_failure(q))
            assert violation == (None if want is None else {"kind": want[0], "witness": want[1]})
            kinds.add(None if violation is None else violation["kind"])
        assert kinds == {None, "non-bijective-row", "not-self-distributive", "not-a-cocycle"}

    def test_self_distributivity_outranks_an_earlier_cocycle_failure(self, monkeypatch):
        # x3 (elements 0..2) beside a trivial rack (3, 4), with 4 |> 3 and 4 |> 4 swapped: only
        # x = 4 breaks self-distributivity, while q fails the cocycle condition at a smaller x;
        # one x per chunk, so the rack failure comes chunks later
        monkeypatch.setattr(rack_mod, "_TRIPLE_ENTRIES", 1)
        x3 = transposition_rack(3).op
        op = [[x3[x][y] if x < 3 and y < 3 else y for y in range(5)] for x in range(5)]
        op[4][3], op[4][4] = 4, 3
        exp = [[0] * 5 for _ in range(5)]
        exp[0][1] = 1
        q = RackCocycle(FiniteRack(tuple(map(tuple, op))), 2, tuple(map(tuple, exp)))
        assert cocycle_first_failure(q)[0] < 4
        witness = rack_axioms_by_loops(q.rack)[1]
        assert witness[0] == 4
        assert check_rack_cocycle(q) == check_rack_axioms(q.rack)
        assert check_rack_cocycle(q) == {"kind": "not-self-distributive", "witness": witness}


class TestIntegerTables:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_chi_equals_the_permutation_oracle(self, n):
        chi = chi_cocycle(n)
        assert np.array_equal(chi.exp, chi_exponents_by_permutations(n))
        assert chi.rack is transposition_rack(n) and chi.order == 2

    def test_chi_built_once_per_n(self):
        chi = chi_cocycle(7)
        assert chi_cocycle(7) is chi
        with pytest.raises(ValueError, match="read-only"):
            chi.exp[0, 1] ^= 1
        assert np.array_equal(chi.exp, chi_exponents_by_permutations(7))

    def test_twist_equals_the_loop(self):
        rng = random.Random(9)
        for _ in range(40):
            q = random_cocycle_pool(rng)
            k, m = q.rack.size, q.order
            phi = TwistTable(q.rack, m, tuple(tuple(rng.randrange(m) for _ in range(k)) for _ in range(k)))
            assert np.array_equal(twist(q, phi).exp, twist_by_loop(q, phi))
        m = 2**62
        q = constant_cocycle(X4, m, m - 1)
        phi = TwistTable(X4, m, tuple(tuple(rng.choice((0, 1, m - 1)) for _ in range(6)) for _ in range(6)))
        assert np.array_equal(twist(q, phi).exp, twist_by_loop(q, phi))


class TestGauge:
    def test_identity_gauge_fixes(self):
        q = chi_cocycle(4)
        gamma = GaugeFunction(q.rack, 2, (0,) * 6)
        assert np.array_equal(gauge_transform(q, gamma).exp, q.exp)

    def test_gauge_then_inverse_restores(self):
        rng = random.Random(1)
        for _ in range(20):
            q = random_cocycle_pool(rng)
            gamma = GaugeFunction(
                q.rack, q.order, tuple(rng.randrange(q.order) for _ in range(q.rack.size))
            )
            assert np.array_equal(gauge_transform(gauge_transform(q, gamma), inverse_gauge(gamma)).exp, q.exp)

    def test_gauge_preserves_cocycle_truth(self):
        rng = random.Random(2)
        for _ in range(30):
            k, m = rng.randint(2, 5), rng.randint(1, 6)
            rack = transposition_rack(3) if k == 3 else transposition_rack(4)
            exp = tuple(
                tuple(rng.randrange(m) for _ in range(rack.size)) for _ in range(rack.size)
            )
            q = RackCocycle(rack=rack, order=m, exp=exp)
            gamma = GaugeFunction(rack, m, tuple(rng.randrange(m) for _ in range(rack.size)))
            assert (cocycle_witness(q) is None) == (cocycle_witness(gauge_transform(q, gamma)) is None)

    def test_mismatched_frames_rejected(self):
        q = chi_cocycle(3)
        gamma = GaugeFunction(X4, 2, (0,) * 6)
        with pytest.raises(ValueError):
            gauge_transform(q, gamma)


def exhaustive_gauge_search(q, q2):
    """All order^size gauge functions, tried one by one."""
    k = q.rack.size
    m = q.order
    total = m**k
    for code in range(total):
        g, rem = [], code
        for _ in range(k):
            g.append(rem % m)
            rem //= m
        cand = GaugeFunction(q.rack, m, tuple(g))
        if np.array_equal(gauge_transform(q, cand).exp, q2.exp):
            return cand
    return None


class TestFindGauge:
    def test_x3_minus_one_vs_chi(self):
        chi = chi_cocycle(3)
        m1 = minus_one_cocycle(X3)
        gamma = find_gauge(m1, chi)
        assert gamma is not None
        assert np.array_equal(gauge_transform(m1, gamma).exp, chi.exp)
        assert gamma.g[0] == 0

    def test_same_cocycle_zero_gauge(self):
        chi = chi_cocycle(4)
        gamma = find_gauge(chi, chi)
        assert gamma is not None
        assert all(e == 0 for e in gamma.g)

    def test_x4_verdict_matches_exhaustive_search(self):
        chi = chi_cocycle(4)
        m1 = minus_one_cocycle(X4)
        solver = find_gauge(m1, chi)
        brute = exhaustive_gauge_search(m1, chi)
        assert (solver is None) == (brute is None)

    def test_completeness_on_small_racks(self):
        # solver verdict must equal exhaustive enumeration over all gauges
        rng = random.Random(3)
        racks = [transposition_rack(3), transposition_rack(4)]
        for _ in range(15):
            rack = racks[rng.randrange(2)]
            m = rng.choice([2, 3, 4])
            if m**rack.size > 5000:
                m = 2
            q = constant_cocycle(rack, m, rng.randrange(m))
            gamma = GaugeFunction(rack, m, tuple(rng.randrange(m) for _ in range(rack.size)))
            q2 = gauge_transform(q, gamma)
            found = find_gauge(q, q2)
            assert found is not None
            assert np.array_equal(gauge_transform(q, found).exp, q2.exp)
            # and a deliberately unrelated target
            exp = tuple(
                tuple(rng.randrange(m) for _ in range(rack.size)) for _ in range(rack.size)
            )
            target = RackCocycle(rack=rack, order=m, exp=exp)
            assert (find_gauge(q, target) is None) == (
                exhaustive_gauge_search(q, target) is None
            )


class TestTwist:
    def test_zero_twist_is_identity(self):
        chi = chi_cocycle(4)
        phi = TwistTable(X4, 2, ((0,) * 6,) * 6)
        assert np.array_equal(twist(chi, phi).exp, chi.exp)

    def test_balanced_twist_cancels(self):
        # on the trivial rack x|>y = y the cancellation condition is symmetry
        k = 4
        rack = FiniteRack(op=tuple(tuple(range(k)) for _ in range(k)))
        rng = random.Random(5)
        phi_rows = [[0] * k for _ in range(k)]
        for a in range(k):
            for b in range(a, k):
                phi_rows[a][b] = phi_rows[b][a] = rng.randrange(4)
        phi = TwistTable(rack, 4, tuple(tuple(r) for r in phi_rows))
        q = constant_cocycle(rack, 4, 3)
        assert np.array_equal(twist(q, phi).exp, q.exp)

    def test_constant_twist_table_cancels(self):
        chi = chi_cocycle(4)
        phi = TwistTable(X4, 2, ((1,) * 6,) * 6)
        assert np.array_equal(twist(chi, phi).exp, chi.exp)

    def test_twist_condition_zero_table(self):
        phi = TwistTable(X4, 2, ((0,) * 6,) * 6)
        assert check_twist_condition(phi) is None

    def test_twist_condition_random_failure_has_witness(self):
        rng = random.Random(6)
        found_failure = False
        for _ in range(20):
            phi_rows = tuple(
                tuple(rng.randrange(2) for _ in range(6)) for _ in range(6)
            )
            phi = TwistTable(X4, 2, phi_rows)
            witness = check_twist_condition(phi)
            if witness is None:
                continue
            found_failure = True
            x, y, z = witness
            op = X4.op
            p = phi.phi
            yz = op[y][z]
            xyz = op[x][yz]
            lhs = p[x][z] + p[op[x][y]][op[x][z]] + p[xyz][x] + p[yz][y]
            rhs = p[y][z] + p[x][yz] + p[xyz][op[x][y]] + p[op[x][z]][x]
            assert (lhs - rhs) % 2 != 0
        assert found_failure

    def test_twist_condition_iff_twisted_is_cocycle(self):
        rng = random.Random(7)
        for _ in range(40):
            q = random_cocycle_pool(rng)
            rack, m = q.rack, q.order
            phi = TwistTable(
                rack, m,
                tuple(tuple(rng.randrange(m) for _ in range(rack.size)) for _ in range(rack.size)),
            )
            assert cocycle_witness(q) is None
            assert (check_twist_condition(phi) is None) == (cocycle_witness(twist(q, phi)) is None)


class TestLiftAndJson:
    def test_lift_doubles_exponents(self):
        q = chi_cocycle(3)
        lifted = lift_to_order(q, 4)
        assert lifted.order == 4
        assert all(
            lifted.exp[x][y] == 2 * q.exp[x][y] for x in range(3) for y in range(3)
        )
        assert cocycle_witness(lifted) is None

    def test_lift_requires_divisibility(self):
        with pytest.raises(ValueError):
            lift_to_order(chi_cocycle(3), 3)

    def test_round_trip(self):
        q = chi_cocycle(4)
        d = cocycle_to_dict(q)
        back = cocycle_from_dict(d)
        assert np.array_equal(back.exp, q.exp)
        assert back.order == q.order
        assert np.array_equal(back.rack.op, q.rack.op)

    def test_rack_by_path(self, tmp_path):
        import json

        from racktwist.rack import rack_to_dict

        q = chi_cocycle(3)
        rack_path = tmp_path / "rack.json"
        rack_path.write_text(json.dumps(rack_to_dict(q.rack)))
        d = cocycle_to_dict(q)
        d["rack"] = str(rack_path)
        back = cocycle_from_dict(d)
        assert np.array_equal(back.rack.op, q.rack.op)
        assert np.array_equal(back.exp, q.exp)
