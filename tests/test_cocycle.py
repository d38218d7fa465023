import itertools
import random

import pytest

from oracles import (
    cocycle_first_failure,
    conjugacy_class_rack,
    inverse_gauge,
    lift_to_order,
    twist_condition_first_failure,
)
from racktwist.cocycle import (
    GaugeFunction,
    RackCocycle,
    TwistTable,
    check_cocycle,
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
from racktwist.errors import DimensionCapError
from racktwist.rack import FiniteRack, Permutation, transposition_pairs, transposition_rack
from racktwist.spincover import phi_psi_table

X3 = transposition_rack(3)
X4 = transposition_rack(4)


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
        assert check_cocycle(q).ok
        assert q.exp == minus_one_cocycle(X4).exp

    def test_trivial_order_one(self):
        q = constant_cocycle(X3, 1, 0)
        assert check_cocycle(q).ok

    def test_minus_one_on_x3(self):
        q = constant_cocycle(X3, 2, 1)
        assert check_cocycle(q).ok

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
            assert check_cocycle(chi_cocycle(n)).ok

    def test_needs_three(self):
        with pytest.raises(ValueError):
            chi_cocycle(2)


class TestCheckCocycle:
    def test_flipped_entry_detected_with_first_witness(self):
        q = chi_cocycle(4)
        exp = [list(row) for row in q.exp]
        exp[2][3] ^= 1
        bad = RackCocycle(rack=q.rack, order=2, exp=tuple(tuple(r) for r in exp))
        report = check_cocycle(bad)
        assert not report.ok
        op = bad.rack.op
        first = next(
            (x, y, z)
            for x in range(6)
            for y in range(6)
            for z in range(6)
            if (bad.exp[x][op[y][z]] + bad.exp[y][z]
                - bad.exp[op[x][y]][op[x][z]] - bad.exp[x][z]) % 2
        )
        assert report.witness == first

    def test_orders_up_to_two_to_the_62(self):
        # exponents near 2^62 sum past int64 only beyond that order
        m = 2**62
        q = constant_cocycle(transposition_rack(4), m, m - 1)
        assert check_cocycle(q).ok
        exp = [list(row) for row in q.exp]
        exp[2][3] = m - 2
        bad = RackCocycle(rack=q.rack, order=m, exp=tuple(tuple(r) for r in exp))
        op = bad.rack.op
        first = next(
            (x, y, z)
            for x, y, z in itertools.product(range(6), repeat=3)
            if (bad.exp[x][op[y][z]] + bad.exp[y][z] - bad.exp[op[x][y]][op[x][z]] - bad.exp[x][z]) % m
        )
        assert check_cocycle(bad).witness == first
        with pytest.raises(DimensionCapError, match="2\\^62"):
            check_cocycle(constant_cocycle(transposition_rack(4), m + 1, 1))


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
        assert check_cocycle(chi).ok and cocycle_first_failure(chi) is None
        failures = 0
        for exp in flipped_tables(chi.exp):
            q = RackCocycle(rack=chi.rack, order=2, exp=exp)
            report, want = check_cocycle(q), cocycle_first_failure(q)
            assert report.ok == (want is None) and report.witness == want
            failures += want is not None
        assert failures > 0

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_twist_witness_on_flipped_twist_table(self, n):
        table = phi_psi_table(n).twist_table()
        assert check_twist_condition(table).ok and twist_condition_first_failure(table) is None
        failures = 0
        for phi in flipped_tables(table.phi):
            t = TwistTable(rack=table.rack, order=2, phi=phi)
            report, want = check_twist_condition(t), twist_condition_first_failure(t)
            assert report.ok == (want is None) and report.witness == want
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
            assert check_cocycle(bad).witness == cocycle_first_failure(bad)
            phi = TwistTable(q.rack, m, tuple(tuple(rng.randrange(m) for _ in range(k)) for _ in range(k)))
            assert check_twist_condition(phi).witness == twist_condition_first_failure(phi)


class TestGauge:
    def test_identity_gauge_fixes(self):
        q = chi_cocycle(4)
        gamma = GaugeFunction(q.rack, 2, (0,) * 6)
        assert gauge_transform(q, gamma).exp == q.exp

    def test_gauge_then_inverse_restores(self):
        rng = random.Random(1)
        for _ in range(20):
            q = random_cocycle_pool(rng)
            gamma = GaugeFunction(
                q.rack, q.order, tuple(rng.randrange(q.order) for _ in range(q.rack.size))
            )
            assert gauge_transform(gauge_transform(q, gamma), inverse_gauge(gamma)).exp == q.exp

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
            assert check_cocycle(q).ok == check_cocycle(gauge_transform(q, gamma)).ok

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
        if gauge_transform(q, cand).exp == q2.exp:
            return cand
    return None


class TestFindGauge:
    def test_x3_minus_one_vs_chi(self):
        chi = chi_cocycle(3)
        m1 = minus_one_cocycle(X3)
        gamma = find_gauge(m1, chi)
        assert gamma is not None
        assert gauge_transform(m1, gamma).exp == chi.exp
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
            assert gauge_transform(q, found).exp == q2.exp
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
        assert twist(chi, phi).exp == chi.exp

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
        assert twist(q, phi).exp == q.exp

    def test_constant_twist_table_cancels(self):
        chi = chi_cocycle(4)
        phi = TwistTable(X4, 2, ((1,) * 6,) * 6)
        assert twist(chi, phi).exp == chi.exp

    def test_twist_condition_zero_table(self):
        phi = TwistTable(X4, 2, ((0,) * 6,) * 6)
        assert check_twist_condition(phi).ok

    def test_twist_condition_random_failure_has_witness(self):
        rng = random.Random(6)
        found_failure = False
        for _ in range(20):
            phi_rows = tuple(
                tuple(rng.randrange(2) for _ in range(6)) for _ in range(6)
            )
            phi = TwistTable(X4, 2, phi_rows)
            report = check_twist_condition(phi)
            if report.ok:
                continue
            found_failure = True
            x, y, z = report.witness
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
            assert check_cocycle(q).ok
            assert check_twist_condition(phi).ok == check_cocycle(twist(q, phi)).ok


class TestLiftAndJson:
    def test_lift_doubles_exponents(self):
        q = chi_cocycle(3)
        lifted = lift_to_order(q, 4)
        assert lifted.order == 4
        assert all(
            lifted.exp[x][y] == 2 * q.exp[x][y] for x in range(3) for y in range(3)
        )
        assert check_cocycle(lifted).ok

    def test_lift_requires_divisibility(self):
        with pytest.raises(ValueError):
            lift_to_order(chi_cocycle(3), 3)

    def test_round_trip(self):
        q = chi_cocycle(4)
        d = cocycle_to_dict(q)
        back = cocycle_from_dict(d)
        assert back.exp == q.exp
        assert back.order == q.order
        assert back.rack.op == q.rack.op

    def test_rack_by_path(self, tmp_path):
        import json

        from racktwist.rack import rack_to_dict

        q = chi_cocycle(3)
        rack_path = tmp_path / "rack.json"
        rack_path.write_text(json.dumps(rack_to_dict(q.rack)))
        d = cocycle_to_dict(q)
        d["rack"] = str(rack_path)
        back = cocycle_from_dict(d)
        assert back.rack.op == q.rack.op
        assert back.exp == q.exp
