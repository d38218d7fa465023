"""Rack 2-cocycles with root-of-unity values, gauge equivalence, and twisting.

Values are never stored as floating complex numbers: a cocycle of order m
keeps a table of exponents e with q_{x,y} = zeta_m^e, so every check is
exact arithmetic in Z/m.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError
from .rack import (
    FiniteRack,
    Permutation,
    json_count,
    json_field,
    json_table,
    rack_from_dict,
    rack_to_dict,
    transposition_pairs,
    transposition_rack,
)


@dataclass(frozen=True)
class RackCocycle:
    """Exponent table for q_{x,y} = zeta_order^exp[x][y] on a finite rack."""

    rack: FiniteRack
    order: int
    exp: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = self.rack.size
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if len(self.exp) != k or any(len(row) != k for row in self.exp):
            raise ValueError("exponent table shape must match rack size")
        if any(not (0 <= e < self.order) for row in self.exp for e in row):
            raise ValueError("exponents must be reduced to 0..order-1")

    def same_frame(self, other) -> bool:
        return self.order == other.order and self.rack.op == other.rack.op


@dataclass(frozen=True)
class GaugeFunction:
    """gamma_x = zeta_order^g[x], one unit scalar per rack element."""

    rack: FiniteRack
    order: int
    g: tuple[int, ...]

    def __post_init__(self):
        if len(self.g) != self.rack.size:
            raise ValueError("gauge length must match rack size")
        if any(not (0 <= e < self.order) for e in self.g):
            raise ValueError("exponents must be reduced to 0..order-1")


@dataclass(frozen=True)
class TwistTable:
    """Exponent table of a candidate twisting function restricted to X x X."""

    rack: FiniteRack
    order: int
    phi: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = self.rack.size
        if len(self.phi) != k or any(len(row) != k for row in self.phi):
            raise ValueError("phi table shape must match rack size")
        if any(not (0 <= e < self.order) for row in self.phi for e in row):
            raise ValueError("exponents must be reduced to 0..order-1")


@dataclass(frozen=True)
class CocycleReport:
    """Outcome of a cocycle or twist-condition check with the first bad triple."""

    ok: bool
    witness: tuple[int, int, int] | None = None


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


def chi_cocycle(n: int) -> RackCocycle:
    """The comparison cocycle on the transposition rack of S_n.

    For sigma a transposition and tau = (i j) with i < j, the value is +1
    when sigma(i) < sigma(j) and -1 when sigma(i) > sigma(j).
    """
    if n < 3:
        raise ValueError(f"chi cocycle needs n >= 3, got {n}")
    r = transposition_rack(n)
    pairs = transposition_pairs(n)
    perms = [Permutation.transposition(n, i, j) for i, j in pairs]
    exp = []
    for sigma in perms:
        row = []
        for (i, j) in pairs:
            row.append(0 if sigma(i) < sigma(j) else 1)
        exp.append(tuple(row))
    q = RackCocycle(rack=r, order=2, exp=tuple(exp))
    report = check_cocycle(q)
    if not report.ok:
        raise AssertionError(f"chi table failed the cocycle condition at {report.witness}")
    return q


def _first_failure(k: int, slab) -> CocycleReport:
    """Scan x = 0..k-1; slab(x) is the k x k array of residues over (y, z), zero where the triple holds.

    The witness is the first failing (x, y, z) in lexicographic order.
    """
    for x in range(k):
        bad = slab(x)
        if bad.any():
            y, z = divmod(int(np.argmax(bad != 0)), k)
            return CocycleReport(False, (x, y, z))
    return CocycleReport(True)


def check_cocycle(q: RackCocycle) -> CocycleReport:
    """Check exp[x][y|>z] + exp[y][z] == exp[x|>y][x|>z] + exp[x][z] (mod m) for all triples.

    The sums are taken in int64, so m must be at most 2^62 (DimensionCapError).
    """
    m = q.order
    if m > 2**62:
        raise DimensionCapError(f"cocycle order {m} > 2^62 is too large for 64-bit exponent sums")
    op = np.array(q.rack.op, dtype=np.intp)
    exp = np.array(q.exp, dtype=np.int64)

    def slab(x):
        ox = op[x]
        lhs = exp[x][op] + exp
        rhs = exp[ox[:, None], ox[None, :]] + exp[x][None, :]
        return (lhs - rhs) % m

    return _first_failure(q.rack.size, slab)


def gauge_transform(q: RackCocycle, gamma: GaugeFunction) -> RackCocycle:
    """Multiply q by the coboundary of gamma: exp'[x][y] = -g[x|>y] + exp[x][y] + g[y]."""
    if q.order != gamma.order or q.rack.op != gamma.rack.op:
        raise ValueError("gauge and cocycle must share rack and order")
    op = q.rack.op
    m = q.order
    k = q.rack.size
    exp = tuple(
        tuple((q.exp[x][y] + gamma.g[y] - gamma.g[op[x][y]]) % m for y in range(k))
        for x in range(k)
    )
    return RackCocycle(rack=q.rack, order=m, exp=exp)


def find_gauge(q: RackCocycle, q2: RackCocycle) -> GaugeFunction | None:
    """Solve g[y] - g[x|>y] == exp2[x][y] - exp[x][y] (mod m) for a gauge, or certify none.

    Every equation is a difference constraint between two rack elements (or
    a direct consistency check when x |> y = y), so propagation along a
    spanning forest followed by full verification decides the system exactly,
    for composite m as well.  Roots are normalized to exponent 0, so on an
    indecomposable rack g[0] = 0.
    """
    if not q.same_frame(q2):
        raise ValueError("cocycles must share rack and order")
    op = q.rack.op
    m = q.order
    k = q.rack.size
    delta = [[(q2.exp[x][y] - q.exp[x][y]) % m for y in range(k)] for x in range(k)]

    # adjacency: edge y -> x|>y carries g[x|>y] = g[y] - delta[x][y]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for x in range(k):
        for y in range(k):
            u = op[x][y]
            if u == y:
                if delta[x][y] != 0:
                    return None
            else:
                adj[y].append((u, -delta[x][y]))
                adj[u].append((y, delta[x][y]))

    g = [None] * k
    for root in range(k):
        if g[root] is not None:
            continue
        g[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for (w, d) in adj[v]:
                if g[w] is None:
                    g[w] = (g[v] + d) % m
                    stack.append(w)

    for x in range(k):
        for y in range(k):
            if (g[y] - g[op[x][y]] - delta[x][y]) % m != 0:
                return None
    return GaugeFunction(rack=q.rack, order=m, g=tuple(g))


def twist(q: RackCocycle, phi: TwistTable) -> RackCocycle:
    """The twisted cocycle exp'[x][y] = phi[x][y] - phi[x|>y][x] + exp[x][y] (mod m)."""
    if q.order != phi.order or q.rack.op != phi.rack.op:
        raise ValueError("twist table and cocycle must share rack and order")
    op = q.rack.op
    m = q.order
    k = q.rack.size
    exp = tuple(
        tuple((phi.phi[x][y] - phi.phi[op[x][y]][x] + q.exp[x][y]) % m for y in range(k))
        for x in range(k)
    )
    return RackCocycle(rack=q.rack, order=m, exp=exp)


def check_twist_condition(phi: TwistTable) -> CocycleReport:
    """Check the condition making q^phi a cocycle whenever q is, over all triples."""
    op = np.array(phi.rack.op, dtype=np.intp)
    p = np.array(phi.phi, dtype=np.int64)
    m = phi.order
    y = np.arange(phi.rack.size)[:, None]

    def slab(x):
        # rows run over y and columns over z, so op itself is the table of y |> z
        xy = op[x][:, None]
        xz = op[x][None, :]
        xyz = op[x][op]
        lhs = p[x][None, :] + p[xy, xz] + p[xyz, x] + p[op, y]
        rhs = p + p[x][op] + p[xyz, xy] + p[xz, x]
        return (lhs - rhs) % m

    return _first_failure(phi.rack.size, slab)


def cocycle_to_dict(q: RackCocycle) -> dict:
    return {"rack": rack_to_dict(q.rack), "order": q.order, "exp": [list(r) for r in q.exp]}


def cocycle_from_dict(d: dict) -> RackCocycle:
    """A cocycle from its JSON object; the rack is an object or a path to a rack file."""
    rack_field = json_field(d, "rack", "cocycle")
    if isinstance(rack_field, str):
        with open(rack_field, encoding="utf-8") as fh:
            rack_field = json.load(fh)
    rack = rack_from_dict(rack_field)
    order = json_count(d, "order", "cocycle")
    return RackCocycle(rack=rack, order=order, exp=json_table(d, "exp", "cocycle", rack.size, order))


def load_cocycle(path: str) -> RackCocycle:
    with open(path, encoding="utf-8") as fh:
        return cocycle_from_dict(json.load(fh))


def twist_table_to_dict(t: TwistTable) -> dict:
    return {"rack": rack_to_dict(t.rack), "order": t.order, "phi": [list(r) for r in t.phi]}
