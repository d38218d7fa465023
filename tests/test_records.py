"""The record types, and the oracles' braid records: constructor checks, equality and hashing by value, and read-only fields."""

import numpy as np
import pytest

from oracles import BraidWord, MonomialOperator
from racktwist.cocycle import GaugeFunction, RackCocycle, TwistTable
from racktwist.rack import FiniteRack, Permutation

TRIVIAL2 = FiniteRack(((0, 1), (0, 1)))

CONSTRUCTOR_CHECKS = {
    "permutation": (lambda: Permutation((1, 1, 3)), "not a permutation of 1..3: (1, 1, 3)"),
    "rack-square": (lambda: FiniteRack(((0, 1), (0,))), "operation table must be square"),
    "rack-entry-range": (lambda: FiniteRack(((0, 2), (0, 1))), "operation table entries must lie in 0..1"),
    "rack-labels-length": (lambda: FiniteRack(((0, 1), (0, 1)), ("a",)), "labels length must match rack size"),
    "cocycle-order": (lambda: RackCocycle(TRIVIAL2, 0, ((0, 0), (0, 0))), "order must be >= 1"),
    "cocycle-shape": (lambda: RackCocycle(TRIVIAL2, 2, ((0, 0),)), "exponent table shape must match rack size"),
    "cocycle-exponents": (lambda: RackCocycle(TRIVIAL2, 2, ((0, 2), (0, 0))), "exponents must be reduced to 0..order-1"),
    "gauge-length": (lambda: GaugeFunction(TRIVIAL2, 2, (0,)), "gauge length must match rack size"),
    "gauge-exponents": (lambda: GaugeFunction(TRIVIAL2, 2, (0, -1)), "exponents must be reduced to 0..order-1"),
    "twist-shape": (lambda: TwistTable(TRIVIAL2, 2, ((0, 0), (0,))), "phi table shape must match rack size"),
    "twist-exponents": (lambda: TwistTable(TRIVIAL2, 3, ((0, 3), (0, 0))), "exponents must be reduced to 0..order-1"),
    "braid-letter": (lambda: BraidWord(3, (1, 3)), "letter 3 out of range 1..2"),
}


@pytest.mark.parametrize("build, message", CONSTRUCTOR_CHECKS.values(), ids=CONSTRUCTOR_CHECKS)
def test_constructor_refuses_with_its_message(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


# Each pair is built twice from equal but distinct values; the third differs in one field.
EQUAL_BY_VALUE = {
    "permutation": (lambda: Permutation(tuple([2, 3, 1])), Permutation((3, 1, 2))),
    "rack": (lambda: FiniteRack(tuple(tuple([0, 1]) for _ in range(2)), ("a", "b")), FiniteRack(TRIVIAL2.op)),
    "twist-table": (lambda: TwistTable(FiniteRack(((0, 1), (0, 1))), 2, tuple(tuple([0, 1]) for _ in range(2))),
                    TwistTable(TRIVIAL2, 3, ((0, 1), (0, 1)))),
}


@pytest.mark.parametrize("build, other", EQUAL_BY_VALUE.values(), ids=EQUAL_BY_VALUE)
def test_equal_and_hashed_by_value(build, other):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a != other and not a == other


@pytest.mark.parametrize("build", [lambda t: FiniteRack(t, ("a", "b")), lambda t: TwistTable(TRIVIAL2, 2, t)],
                         ids=["rack", "twist-table"])
def test_tuples_and_arrays_build_one_record(build):
    # the record keeps its own read-only copy in one dtype, whatever the table came as
    table = ((0, 1), (0, 1))
    for array in (np.array(table), np.array(table, dtype=np.int8)):
        a, b = build(table), build(array)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        array[0, 0] = 1
        assert a == b and hash(a) == hash(b)


def test_monomial_operators_are_equal_by_action():
    # exponents are compared modulo the order; `!=` is the negation of `==`, as the per-sigma Matsumoto oracle uses it
    a = MonomialOperator(3, 4, np.array([1, 2, 0]), np.array([0, 1, 2]))
    b = MonomialOperator(3, 4, np.array([1, 2, 0]), np.array([4, 5, 2]))
    assert a == b and not a != b
    for c in (MonomialOperator(3, 4, np.array([2, 1, 0]), a.expo), MonomialOperator(3, 4, a.target, a.expo + 1),
              MonomialOperator(3, 2, a.target, a.expo)):
        assert a != c and not a == c


READ_ONLY = {
    "permutation": (lambda: Permutation((2, 1)), "image"),
    "rack": (lambda: FiniteRack(TRIVIAL2.op), "op"),
    "cocycle": (lambda: RackCocycle(TRIVIAL2, 2, ((0, 1), (1, 0))), "exp"),
    "gauge": (lambda: GaugeFunction(TRIVIAL2, 2, (0, 1)), "g"),
    "twist-table": (lambda: TwistTable(TRIVIAL2, 2, ((0, 1), (1, 0))), "phi"),
    "braid-word": (lambda: BraidWord(3, (1, 2)), "letters"),
}


@pytest.mark.parametrize("build, field", READ_ONLY.values(), ids=READ_ONLY)
def test_checked_records_are_read_only(build, field):
    # the memoised rack and chi are shared by every caller, and a write would also skip the checks
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, ())
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before
