"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines
and timings.  Every expected value is either a frozen constant cross-checked
against an independent oracle in this file or a closed-form expansion.
"""

import json
import math
import random
import time

from oracles import (
    brute_force_symmetrizer,
    conjugacy_class_rack,
    dense_integer_matrix,
    largest_descent_word,
    value_at_one,
)
from racktwist.braided import BraidWord, check_braid_equation, rho, symmetrizer
from racktwist.cli import main as cli_main
from racktwist.cocycle import (
    GaugeFunction,
    check_cocycle,
    check_twist_condition,
    chi_cocycle,
    constant_cocycle,
    find_gauge,
    gauge_transform,
    minus_one_cocycle,
    twist,
)
from racktwist.hilbert import expand_closed_form, graded_dims
from racktwist.rack import Permutation, transposition_rack
from racktwist.spincover import (
    phi_psi_table,
    verify_conjugation_lemmas,
    verify_group_cocycle,
    verify_main_theorem,
    verify_presentation,
)

H4_COEFFS = [6, 19, 42, 71, 96]          # degrees 1..5 of (2)_t^2 (3)_t^2 (4)_t^2
H5_COEFFS = [10, 55, 220, 711]           # degrees 1..4 of (4)_t^4 (5)_t^2 (6)_t^4


def _verdict(num, desc, ok, elapsed=None):
    tag = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num:02d} {tag}{timing} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_presentation():
    t0 = time.perf_counter()
    ok = all(verify_presentation(n) for n in range(2, 10))
    elapsed = time.perf_counter() - t0
    _verdict(1, "double-cover presentation holds exactly for 2 <= n <= 9", ok and elapsed < 10, elapsed)


def test_criterion_02_main_theorem():
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 10):
        theorem_ok, log = verify_main_theorem(n)
        pairs = math.comb(n, 2) ** 2
        ok = ok and theorem_ok and len(log) == pairs
        restriction = phi_psi_table(n).twist_table()
        chi = chi_cocycle(n)
        ok = ok and twist(chi, restriction).exp == minus_one_cocycle(chi.rack).exp
    elapsed = time.perf_counter() - t0
    _verdict(2, "twist identity on all transposition pairs, n = 4..9", ok and elapsed < 60, elapsed)


def test_criterion_03_group_cocycle():
    t0 = time.perf_counter()
    ok = verify_group_cocycle(phi_psi_table(4)) and verify_group_cocycle(phi_psi_table(5))
    elapsed = time.perf_counter() - t0
    _verdict(3, "group 2-cocycle condition exhaustive on S4 and S5", ok and elapsed < 300, elapsed)


def test_criterion_04_conjugation_lemmas():
    t0 = time.perf_counter()
    ok = all(verify_conjugation_lemmas(n, trials=1000, seed=n) for n in range(4, 8))
    elapsed = time.perf_counter() - t0
    _verdict(4, "conjugation lemmas: exhaustive n <= 7 plus 1000 random words per n", ok, elapsed)


def test_criterion_05_hilbert_x4():
    t0 = time.perf_counter()
    ok = expand_closed_form([(2, 2), (3, 2), (4, 2)])[1:6] == H4_COEFFS
    for q in (minus_one_cocycle(transposition_rack(4)), chi_cocycle(4)):
        exact = graded_dims(q, 3, mode="exact")
        modular = graded_dims(q, 5, mode="modular", seed=41)
        ranks = exact.ranks[1:4] + modular.ranks[4:6]
        ok = ok and ranks == H4_COEFFS
        ok = ok and all(m == "exact" for m in exact.methods)
        ok = ok and all("modular-certified" in m for m in modular.methods[4:6])
    elapsed = time.perf_counter() - t0
    _verdict(5, "X4 graded dimensions 1..5 equal [6,19,42,71,96] for both cocycles", ok and elapsed < 600, elapsed)


def test_criterion_06_hilbert_x5():
    t0 = time.perf_counter()
    coeffs = expand_closed_form([(4, 4), (5, 2), (6, 4)])
    ok = coeffs[1:5] == H5_COEFFS
    ok = ok and value_at_one(coeffs) == 8_294_400
    for q in (minus_one_cocycle(transposition_rack(5)), chi_cocycle(5)):
        report = graded_dims(q, 4, mode="modular", seed=42)
        ok = ok and report.ranks[1:5] == H5_COEFFS
    elapsed = time.perf_counter() - t0
    _verdict(6, "X5 graded dimensions 1..4 equal [10,55,220,711] for both cocycles", ok and elapsed < 1800, elapsed)


def test_criterion_07_twist_invariance_of_series():
    t0 = time.perf_counter()
    ok = True
    for n, max_degree in ((4, 5), (5, 4)):
        restriction = phi_psi_table(n).twist_table()
        ok = ok and check_twist_condition(restriction).ok
        base = graded_dims(chi_cocycle(n), max_degree, mode="modular", seed=7)
        twisted = graded_dims(twist(chi_cocycle(n), restriction), max_degree, mode="modular", seed=7)
        ok = ok and base.ranks == twisted.ranks
    elapsed = time.perf_counter() - t0
    _verdict(7, "graded ranks of chi and its twist agree on X4 (deg<=5) and X5 (deg<=4)", ok, elapsed)


def test_criterion_08_x3_cohomology():
    chi = chi_cocycle(3)
    m1 = minus_one_cocycle(chi.rack)
    gamma = find_gauge(m1, chi)
    ok = gamma is not None and gauge_transform(m1, gamma).exp == chi.exp
    brute_found = False
    for code in range(2**3):
        g = tuple((code >> i) & 1 for i in range(3))
        if gauge_transform(m1, GaugeFunction(chi.rack, 2, g)).exp == chi.exp:
            brute_found = True
            break
    ok = ok and brute_found
    _verdict(8, "on X3 the constant -1 and chi are gauge-equivalent (solver + 2^3 search)", ok)


def test_criterion_09_property_suites():
    t0 = time.perf_counter()
    ok = True

    # braid equation for named cocycles and 100 random gauge-twisted constants
    for n in (3, 4, 5):
        chi = chi_cocycle(n)
        ok = ok and check_braid_equation(chi)
        ok = ok and check_braid_equation(minus_one_cocycle(chi.rack))
    rng = random.Random(99)
    seeds = [
        (3, Permutation.transposition(3, 1, 2)),
        (3, Permutation((2, 3, 1))),
        (4, Permutation.transposition(4, 1, 2)),
        (4, Permutation((2, 1, 4, 3))),
        (4, Permutation((2, 3, 1, 4))),
        (4, Permutation((2, 3, 4, 1))),
    ]
    for _ in range(100):
        n, seed = seeds[rng.randrange(len(seeds))]
        gens = [Permutation.adjacent(n, i) for i in range(1, n)]
        rack = conjugacy_class_rack(gens, seed)
        assert rack.size <= 8
        m = rng.randint(1, 6)
        q = constant_cocycle(rack, m, rng.randrange(m))
        gamma = GaugeFunction(rack, m, tuple(rng.randrange(m) for _ in range(rack.size)))
        q = gauge_transform(q, gamma)
        ok = ok and check_cocycle(q).ok and check_braid_equation(q)

    # both braid relations as operator identities
    for q in (chi_cocycle(4), minus_one_cocycle(transposition_rack(3))):
        ok = ok and rho(BraidWord(3, (1, 2, 1)), q, 3) == rho(BraidWord(3, (2, 1, 2)), q, 3)
        ok = ok and rho(BraidWord(4, (1, 3)), q, 4) == rho(BraidWord(4, (3, 1)), q, 4)

    # Matsumoto lift is word-independent at operator level
    base = minus_one_cocycle(transposition_rack(3))
    for _ in range(200):
        n = rng.randint(2, 7)
        img = list(range(1, n + 1))
        rng.shuffle(img)
        sigma = Permutation(tuple(img))
        lex, alt = sigma.lex_reduced_word(), largest_descent_word(sigma)
        ok = ok and rho(BraidWord(n, lex), base, n) == rho(BraidWord(n, alt), base, n)

    # symmetrizer equals the dense brute-force oracle
    for degree in (2, 3, 4):
        for q in (minus_one_cocycle(transposition_rack(3)), chi_cocycle(3)):
            got = dense_integer_matrix(symmetrizer(q, degree))
            ok = ok and (got == brute_force_symmetrizer(q, degree)).all()

    elapsed = time.perf_counter() - t0
    _verdict(9, "braid equation, braid relations, word independence, oracle match", ok, elapsed)


def test_criterion_10_determinism(tmp_path):
    def run_twice(args):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        return a.read_bytes() == b.read_bytes()

    ok = run_twice(["selfcheck", "--n-max", "4", "--trials", "100", "--seed", "3"])
    ok = ok and run_twice(
        ["hilbert", "--rack", "x4", "--cocycle", "chi", "--max-degree", "4",
         "--mode", "modular", "--seed", "123"]
    )
    for leftover in tmp_path.glob("*.json"):
        json.loads(leftover.read_text())  # reports must stay valid JSON
    _verdict(10, "selfcheck and hilbert reports are byte-identical across reruns", ok)
