"""Rack 2-cocycles with root-of-unity values, gauge equivalence, and twisting.

Values are never stored as floating complex numbers: a cocycle of order m
keeps a table of exponents e with q_{x,y} = zeta_m^e, so every check is
exact arithmetic in Z/m.  Tables are read off and checked as numpy arrays:
chi from the one-line images of the transpositions (once per n), the twist
all entries at once, and the cocycle condition as a mask over chunks of x
(rack._first_failure), a (chunk, k, k) array of residues over the triples
(x, y, z).  Every residue is brought into (-2m, 2m), so comparing its
absolute value with 0 and m decides it; orders up to 2^62 stay within
int64, and larger ones are refused.  The twist condition is the cocycle
condition of the twist of the trivial cocycle, so it has no mask of its own.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import DimensionCapError, RackAxiomError
from .rack import (
    FiniteRack,
    ReadOnly,
    _check_axioms,
    _layer_walk,
    _min_labels,
    _self_distributivity,
    json_count,
    json_field,
    json_table,
    rack_from_dict,
    rack_to_dict,
    transposition_images,
    transposition_rack,
)


class RackCocycle(ReadOnly):
    """Exponent table for q_{x,y} = zeta_order^exp[x][y] on a finite rack."""

    __slots__ = ("rack", "order", "exp")

    def __init__(self, rack: FiniteRack, order: int, exp: tuple[tuple[int, ...], ...]):
        k = rack.size
        if order < 1:
            raise ValueError("order must be >= 1")
        if len(exp) != k or any(len(row) != k for row in exp):
            raise ValueError("exponent table shape must match rack size")
        if any(not (0 <= e < order) for row in exp for e in row):
            raise ValueError("exponents must be reduced to 0..order-1")
        object.__setattr__(self, "rack", rack)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "exp", exp)

    def same_frame(self, other) -> bool:
        return self.order == other.order and self.rack.op == other.rack.op


class GaugeFunction(ReadOnly):
    """gamma_x = zeta_order^g[x], one unit scalar per rack element."""

    __slots__ = ("rack", "order", "g")

    def __init__(self, rack: FiniteRack, order: int, g: tuple[int, ...]):
        if len(g) != rack.size:
            raise ValueError("gauge length must match rack size")
        if any(not (0 <= e < order) for e in g):
            raise ValueError("exponents must be reduced to 0..order-1")
        object.__setattr__(self, "rack", rack)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "g", g)


class TwistTable(ReadOnly):
    """Exponent table of a candidate twisting function restricted to X x X; equal by rack, order and table."""

    __slots__ = ("rack", "order", "phi")

    def __init__(self, rack: FiniteRack, order: int, phi: tuple[tuple[int, ...], ...]):
        k = rack.size
        if len(phi) != k or any(len(row) != k for row in phi):
            raise ValueError("phi table shape must match rack size")
        if any(not (0 <= e < order) for row in phi for e in row):
            raise ValueError("exponents must be reduced to 0..order-1")
        object.__setattr__(self, "rack", rack)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "phi", phi)

    def __eq__(self, other) -> bool:
        return type(other) is TwistTable and (self.rack, self.order, self.phi) == (other.rack, other.order, other.phi)

    def __hash__(self) -> int:
        return hash((self.rack, self.order, self.phi))


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
    frozen and made of tuples, so every caller may share it.  It is not
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
        exp = (images[:, i] > images[:, j]).astype(np.int64)
        got = RackCocycle(rack=transposition_rack(n), order=2, exp=tuple(map(tuple, exp.tolist())))
        _CHI_COCYCLES[n] = got
    return got


def _int64_order(m: int, what: str) -> None:
    """DimensionCapError for orders above 2^62, where the int64 partial sums of the checks could overflow."""
    if m > 2**62:
        raise DimensionCapError(f"{what} order {m} > 2^62 is too large for 64-bit exponent sums")


def _cocycle_condition(q: RackCocycle, op: np.ndarray):
    """The mask of rack._first_failure where exp[x][y|>z] + exp[y][z] != exp[x|>y][x|>z] + exp[x][z] (mod m).

    The residue is (exp[x][y|>z] - exp[x|>y][x|>z]) + (exp[y][z] - exp[x][z]),
    in (-2m, 2m), taken in the smallest signed dtype that holds 2m, so m must
    be at most 2^62 (DimensionCapError); it is a multiple of m exactly when
    its absolute value is 0 or m.
    """
    m = q.order
    _int64_order(m, "cocycle")
    exp = np.array(q.exp, dtype=np.min_scalar_type(-2 * m))
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
    op = np.array(q.rack.op, dtype=np.intp)
    conditions = [("not-self-distributive", _self_distributivity(op)), ("not-a-cocycle", _cocycle_condition(q, op))]
    return _check_axioms(op, conditions)


def gauge_transform(q: RackCocycle, gamma: GaugeFunction) -> RackCocycle:
    """Multiply q by the coboundary of gamma: exp'[x][y] = -g[x|>y] + exp[x][y] + g[y], for m <= 2^62."""
    if q.order != gamma.order or q.rack.op != gamma.rack.op:
        raise ValueError("gauge and cocycle must share rack and order")
    m = q.order
    _int64_order(m, "gauge")
    g = np.array(gamma.g, dtype=np.int64)
    exp = (np.array(q.exp, dtype=np.int64) + g - g[np.array(q.rack.op, dtype=np.intp)]) % m
    return RackCocycle(rack=q.rack, order=m, exp=tuple(map(tuple, exp.tolist())))


def find_gauge(q: RackCocycle, q2: RackCocycle) -> GaugeFunction | None:
    """Solve g[y] - g[x|>y] == exp2[x][y] - exp[x][y] (mod m) for a gauge, or certify none; m <= 2^62.

    Every equation is a difference constraint between y and x |> y, so g is
    propagated from the smallest element of each component of the rack,
    set to 0, along the edges y -> x |> y, one breadth-first layer at a
    time (rack._layer_walk), and then all k^2 equations are verified at
    once.  This decides the system exactly, for composite m as well, and
    the gauge found is the only one with those roots at 0 (so g[0] = 0 on
    an indecomposable rack).  The rows of the rack must be bijections, so
    that the edges reach every element of a component.
    """
    if not q.same_frame(q2):
        raise ValueError("cocycles must share rack and order")
    m, k = q.order, q.rack.size
    _int64_order(m, "gauge")
    op = np.array(q.rack.op, dtype=np.intp)
    delta = (np.array(q2.exp, dtype=np.int64) - np.array(q.exp, dtype=np.int64)) % m
    g = np.zeros(k, dtype=np.int64)
    for child, parent, x in _layer_walk(op, np.flatnonzero(_min_labels(np.arange(k), op) == np.arange(k))):
        g[child] = (g[parent] - delta[x, parent]) % m
    if ((g - g[op] - delta) % m).any():
        return None
    return GaugeFunction(rack=q.rack, order=m, g=tuple(g.tolist()))


def twist(q: RackCocycle, phi: TwistTable) -> RackCocycle:
    """The twisted cocycle exp'[x][y] = phi[x][y] - phi[x|>y][x] + exp[x][y] (mod m), for m <= 2^62."""
    if q.order != phi.order or q.rack.op != phi.rack.op:
        raise ValueError("twist table and cocycle must share rack and order")
    m = q.order
    _int64_order(m, "twist")
    op = np.array(q.rack.op, dtype=np.intp)
    p = np.array(phi.phi, dtype=np.int64)
    exp = (p - p[op, np.arange(q.rack.size)[:, None]] + np.array(q.exp, dtype=np.int64)) % m
    return RackCocycle(rack=q.rack, order=m, exp=tuple(map(tuple, exp.tolist())))


def check_twist_condition(phi: TwistTable) -> tuple[int, int, int] | None:
    """The first (x, y, z) in lexicographic order that fails the twist condition, or None.

    The condition makes q^phi = q + dphi a cocycle whenever q is one, with
    dphi[x][y] = phi[x][y] - phi[x|>y][x] the twist of the trivial cocycle;
    the cocycle condition is linear, so it says that dphi is a cocycle.  On
    a rack, self-distributivity makes the cocycle residue of dphi at
    (x, y, z) minus the twist residue, so the witness is the not-a-cocycle
    witness of check_rack_cocycle.  The condition is defined on racks only:
    any other table raises RackAxiomError with its kind and witness.
    Orders above 2^62 are refused (DimensionCapError).
    """
    violation = check_rack_cocycle(twist(constant_cocycle(phi.rack, phi.order, 0), phi))
    if violation is None:
        return None
    if violation["kind"] != "not-a-cocycle":
        raise RackAxiomError(f"{violation['kind']} at {violation['witness']}: the twist condition needs a rack")
    return violation["witness"]


def cocycle_to_dict(q: RackCocycle) -> dict:
    return {"rack": rack_to_dict(q.rack), "order": q.order, "exp": [list(r) for r in q.exp]}


def cocycle_from_dict(d: dict, root: str = "") -> RackCocycle:
    """A cocycle from its JSON object; the rack is an object or a path to a rack file, relative to root."""
    rack_field = json_field(d, "rack", "cocycle")
    if isinstance(rack_field, str):
        with open(os.path.join(root, rack_field), encoding="utf-8") as fh:
            rack_field = json.load(fh)
    rack = rack_from_dict(rack_field)
    order = json_count(d, "order", "cocycle")
    return RackCocycle(rack=rack, order=order, exp=json_table(d, "exp", "cocycle", rack.size, order))


def load_cocycle(path: str) -> RackCocycle:
    """A cocycle file; a rack path in it is read relative to the file's directory."""
    with open(path, encoding="utf-8") as fh:
        return cocycle_from_dict(json.load(fh), os.path.dirname(path))


def twist_table_to_dict(t: TwistTable) -> dict:
    return {"rack": rack_to_dict(t.rack), "order": t.order, "phi": [list(r) for r in t.phi]}
