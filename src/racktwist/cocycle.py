"""Rack 2-cocycles with root-of-unity values, gauge equivalence, and twisting.

Values are never stored as floating complex numbers: a cocycle of order m
keeps a table of exponents e with q_{x,y} = zeta_m^e, so every check is
exact arithmetic in Z/m.  Each record holds its table as a read-only int64
array, checked when the record is built, which refuses orders above 2^62
so that sums of two exponents stay within int64.  chi is read off the
one-line images of the transpositions (once per n), the twist takes all
entries at once, and the cocycle condition is a mask over chunks of x
(rack._first_failure), a (chunk, k, k) array of residues over the triples
(x, y, z), each brought into (-2m, 2m), so comparing its absolute value
with 0 and m decides it.  The twist condition is the cocycle condition of
the twist of the trivial cocycle, so it has no mask of its own.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DimensionCapError, RackAxiomError
from .rack import (
    FiniteRack,
    ReadOnly,
    _check_axioms,
    _frozen_table,
    _layer_walk,
    _min_labels,
    _self_distributivity,
    json_count,
    json_field,
    json_file,
    json_table,
    rack_from_dict,
    rack_to_dict,
    transposition_images,
    transposition_rack,
)


def _exponents(table, shape: tuple[int, ...], order: int, what: str, shape_error: str) -> np.ndarray:
    """table as read-only int64 exponents in 0..order-1 (rack._frozen_table), for an order of at most 2^62.

    A larger order is a DimensionCapError, raised before table is read:
    sums of two exponents could leave int64.
    """
    if order > 2**62:
        raise DimensionCapError(f"{what} order {order} > 2^62 is too large for 64-bit exponent sums")
    return _frozen_table(table, shape, order, np.int64, shape_error, "exponents must be reduced to 0..order-1")


class RackCocycle(ReadOnly):
    """Exponent table for q_{x,y} = zeta_order^exp[x, y] on a finite rack, read-only int64.

    It holds any 2-cochain with values in the order-th roots of unity: a
    cocycle q, a twist phi or its dphi.  It is not checked here:
    check_rack_cocycle decides the cocycle condition.
    """

    __slots__ = ("rack", "order", "exp")

    def __init__(self, rack: FiniteRack, order: int, exp):
        if order < 1:
            raise ValueError("order must be >= 1")
        exp = _exponents(exp, (rack.size,) * 2, order, "cocycle", "exponent table shape must match rack size")
        object.__setattr__(self, "rack", rack)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "exp", exp)

    def same_frame(self, rack: FiniteRack, order: int) -> bool:
        """Whether q has this order and lies on a rack with the operation table of rack (labels aside)."""
        return self.order == order and np.array_equal(self.rack.op, rack.op)


class GaugeFunction(ReadOnly):
    """gamma_x = zeta_order^g[x], one unit scalar per rack element, read-only int64."""

    __slots__ = ("rack", "order", "g")

    def __init__(self, rack: FiniteRack, order: int, g):
        g = _exponents(g, (rack.size,), order, "gauge", "gauge length must match rack size")
        object.__setattr__(self, "rack", rack)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "g", g)


def constant_cocycle(r: FiniteRack, m: int, e: int) -> RackCocycle:
    """The constant cocycle q_{x,y} = zeta_m^e; always satisfies the cocycle condition."""
    if m < 1 or not (0 <= e < m):
        raise ValueError(f"need m >= 1 and 0 <= e < m, got m={m}, e={e}")
    k = r.size
    row = (e,) * k
    return RackCocycle(rack=r, order=m, exp=(row,) * k)


def minus_one_cocycle(r: FiniteRack) -> RackCocycle:
    """The sign cocycle q_{x,y} = -1 for all x, y (order 2, exponent 1)."""
    return constant_cocycle(r, 2, 1)


_CHI_COCYCLES: dict[int, RackCocycle] = {}


def chi_cocycle(n: int) -> RackCocycle:
    """The comparison cocycle on the transposition rack of S_n, memoised on n.

    For sigma a transposition and tau = (i j) with i < j, the value is +1
    when sigma(i) < sigma(j) and -1 when sigma(i) > sigma(j).  The table is
    read off the one-line images of the transpositions once per n; it is
    frozen and its table read-only, so every caller may share it.  It is not
    checked here: every command that reads it checks it once, `cocycle`,
    `cohomology` and `hilbert` by check_rack_cocycle as any cocycle, and
    `twist-verify`, `cover` and `selfcheck` by the main
    theorem, chi^phi = -1, which no other table satisfies.
    """
    if n < 3:
        raise ValueError(f"chi cocycle needs n >= 3, got {n}")
    got = _CHI_COCYCLES.get(n)
    if got is None:
        images = transposition_images(n)
        i, j = np.triu_indices(n, 1)
        got = RackCocycle(rack=transposition_rack(n), order=2, exp=images[:, i] > images[:, j])
        _CHI_COCYCLES[n] = got
    return got


def _cocycle_condition(q: RackCocycle, op: np.ndarray):
    """The mask of rack._first_failure where exp[x][y|>z] + exp[y][z] != exp[x|>y][x|>z] + exp[x][z] (mod m).

    The residue is (exp[x][y|>z] - exp[x|>y][x|>z]) + (exp[y][z] - exp[x][z]),
    in (-2m, 2m), taken in the smallest signed dtype that holds 2m, which
    int64 does for every order that RackCocycle admits (m <= 2^62); it is a
    multiple of m exactly when its absolute value is 0 or m.
    """
    m = q.order
    exp = q.exp.astype(np.min_scalar_type(-2 * m))
    flat = exp.ravel()  # flat[a * k + b] = exp[a][b]

    def failing(xs, ox, at):
        ex = exp[xs]
        d = ex[:, op] - flat[at]
        d += exp - ex[:, None, :]
        np.abs(d, out=d)
        return (d != 0) & (d != m)

    return failing


def check_rack_cocycle(q: RackCocycle) -> dict | None:
    """The first violation of q being a 2-cocycle on a rack, or None.

    The braiding c(x (x) y) = q(x, y) (x |> y) (x) x satisfies the braid
    equation exactly when the rack table's rows are bijections, it is
    self-distributive and q satisfies the cocycle condition
    (Andruskiewitsch-Grana, "From racks to pointed Hopf algebras", 2003).
    The rows are checked first, then both conditions over one scan
    of the triples.  A violation is {"kind": ..., "witness": ...} as
    rack.check_rack_axioms gives it, else, under the kind "not-a-cocycle",
    the first (x, y, z) in lexicographic order where
    exp[x][y|>z] + exp[y][z] != exp[x|>y][x|>z] + exp[x][z] (mod m), for
    m <= 2^62.
    """
    op = q.rack.op
    conditions = [("not-self-distributive", _self_distributivity(op)), ("not-a-cocycle", _cocycle_condition(q, op))]
    return _check_axioms(op, conditions)


def gauge_transform(q: RackCocycle, gamma: GaugeFunction) -> RackCocycle:
    """Multiply q by the coboundary of gamma: exp'[x][y] = -g[x|>y] + exp[x][y] + g[y]."""
    if not q.same_frame(gamma.rack, gamma.order):
        raise ValueError("gauge and cocycle must share rack and order")
    g = gamma.g
    return RackCocycle(rack=q.rack, order=q.order, exp=(q.exp + g - g[q.rack.op]) % q.order)


def find_gauge(q: RackCocycle, q2: RackCocycle) -> GaugeFunction | None:
    """Solve g[y] - g[x|>y] == exp2[x][y] - exp[x][y] (mod m) for a gauge, or certify none.

    Every equation is a difference constraint between y and x |> y, so g is
    propagated from the smallest element of each component of the rack,
    set to 0, along the edges y -> x |> y, one breadth-first layer at a
    time (rack._layer_walk), and then all k^2 equations are verified at
    once.  This decides the system exactly, for composite m as well, and
    the gauge found is the only one with those roots at 0 (so g[0] = 0 on
    an indecomposable rack).  The rows of the rack must be bijections, so
    that the edges reach every element of a component.
    """
    if not q.same_frame(q2.rack, q2.order):
        raise ValueError("cocycles must share rack and order")
    m, k, op = q.order, q.rack.size, q.rack.op
    delta = (q2.exp - q.exp) % m
    g = np.zeros(k, dtype=np.int64)
    for child, parent, x in _layer_walk(op, np.flatnonzero(_min_labels(np.arange(k), op) == np.arange(k))):
        g[child] = (g[parent] - delta[x, parent]) % m
    if ((g - g[op] - delta) % m).any():
        return None
    return GaugeFunction(rack=q.rack, order=m, g=g)


def twist(q: RackCocycle, phi: RackCocycle) -> RackCocycle:
    """The twisted cocycle exp'[x][y] = phi[x][y] - phi[x|>y][x] + exp[x][y] (mod m)."""
    if not q.same_frame(phi.rack, phi.order):
        raise ValueError("twist table and cocycle must share rack and order")
    p = phi.exp
    exp = (p - p[q.rack.op, np.arange(q.rack.size)[:, None]] + q.exp) % q.order
    return RackCocycle(rack=q.rack, order=q.order, exp=exp)


def check_twist_condition(phi: RackCocycle) -> tuple[int, int, int] | None:
    """The first (x, y, z) in lexicographic order that fails the twist condition, or None.

    The condition makes q^phi = q + dphi a cocycle whenever q is one, with
    dphi[x][y] = phi[x][y] - phi[x|>y][x] the twist of the trivial cocycle;
    the cocycle condition is linear, so it says that dphi is a cocycle.  On
    a rack, self-distributivity makes the cocycle residue of dphi at
    (x, y, z) minus the twist residue, so the witness is the not-a-cocycle
    witness of check_rack_cocycle.  The condition is defined on racks only:
    any other table raises RackAxiomError with its kind and witness.
    """
    violation = check_rack_cocycle(twist(constant_cocycle(phi.rack, phi.order, 0), phi))
    if violation is None:
        return None
    if violation["kind"] != "not-a-cocycle":
        raise RackAxiomError(f"{violation['kind']} at {violation['witness']}: the twist condition needs a rack")
    return violation["witness"]


def cocycle_to_dict(q: RackCocycle, key: str = "exp") -> dict:
    """q's JSON object, its table under key: "exp" for a cocycle, "phi" for a twist."""
    return {"rack": rack_to_dict(q.rack), "order": q.order, key: q.exp.tolist()}


def cocycle_from_dict(d: dict, root: str = "") -> RackCocycle:
    """A cocycle from its JSON object; the rack is an object or a path to a rack file, relative to root."""
    rack_field = json_field(d, "rack", "cocycle")
    if isinstance(rack_field, str):
        rack_field = json_file(os.path.join(root, rack_field))
    rack = rack_from_dict(rack_field)
    order = json_count(d, "order", "cocycle")
    return RackCocycle(rack=rack, order=order, exp=json_table(d, "exp", "cocycle", rack.size, order))


def load_cocycle(path: str) -> RackCocycle:
    """A cocycle file; a rack path in it is read relative to the file's directory."""
    return cocycle_from_dict(json_file(path), os.path.dirname(path))
