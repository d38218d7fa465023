"""The Leibniz recursion of racktwist.nichols: its ranks, its transport identities, and the runs it guards."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import first_independent_rows_modp, is_palindromic, translation_group, unpruned_graded_dims, value_at_one
from racktwist import nichols
from racktwist.cli import main
from racktwist.cocycle import chi_cocycle, constant_cocycle, minus_one_cocycle
from racktwist.hilbert import CERTIFIED, _draw_prime, _element_of_order, graded_dims
from racktwist.rack import FiniteRack, transposition_rack

X3, X4, X5 = (transposition_rack(n) for n in (3, 4, 5))


def affine_rack(p: int, a: int) -> FiniteRack:
    """Aff(p, a): x |> y = (1 - a) x + a y mod p."""
    return FiniteRack(tuple(tuple(((1 - a) * x + a * y) % p for y in range(p)) for x in range(p)))


def engine(q, seed=0, dim_cap=10**6):
    """The engine with the pair of primes that graded_dims draws from `seed`."""
    rng = random.Random(seed)
    p1 = _draw_prime(rng, q.order, set())
    primes = (p1, _draw_prime(rng, q.order, {p1}))
    return nichols.LeibnizEngine(q, primes, tuple(_element_of_order(p, q.order) for p in primes), dim_cap)


CASES = {
    "x3-m1": minus_one_cocycle(X3),
    "x3-const31": constant_cocycle(X3, 3, 1),
    "x3-const43": constant_cocycle(X3, 4, 3),
    "x3-const65": constant_cocycle(X3, 6, 5),
    "x4-chi": chi_cocycle(4),
    "x4-m1": minus_one_cocycle(X4),
    "x4-const31": constant_cocycle(X4, 3, 1),
    "x5-chi": chi_cocycle(5),
    "x5-m1": minus_one_cocycle(X5),
    "aff52-m1": minus_one_cocycle(affine_rack(5, 2)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_ranks_equal_the_proven_ranks(name):
    q = CASES[name]
    assert [1, *engine(q).ranks(4)] == unpruned_graded_dims(q, 4)["ranks"]


def test_x4_chi_full_series():
    # E_4 = (2)_t^2 (3)_t^2 (4)_t^2, past the 64-bit key cap of the symmetrizer
    got = [1, *engine(chi_cocycle(4)).ranks(12)]
    assert got == [1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1]
    assert value_at_one(got) == 576 and is_palindromic(got)


def test_degrees_past_the_first_zero_are_not_built(monkeypatch):
    # B is generated in degree 1; x4 chi ends in degree 12, so degree 13 is the last one the engine builds
    built, degree = [], nichols.LeibnizEngine._degree
    monkeypatch.setattr(nichols.LeibnizEngine, "_degree", lambda self, d, *rest: built.append(d) or degree(self, d, *rest))
    report = graded_dims(chi_cocycle(4), 20)
    assert built == list(range(1, 14))
    assert report["ranks"][12:] == [1] + [0] * 8
    # the degrees not built keep the tag and the primes of the degrees that were
    assert report["methods"][2:] == [CERTIFIED] * 19
    assert report["primes"][2:] == [report["primes"][2]] * 19 and len(report["primes"][2]) == 2


def test_x6_minus_one_to_degree_four():
    assert graded_dims(minus_one_cocycle(transposition_rack(6)), 4)["ranks"] == [1, 15, 125, 765, 3831]


def test_constant_cocycles_number_the_quotient_group():
    # constant scalars are factored out, so a constant cocycle of any order numbers the rack's image in Sym(X)
    assert engine(constant_cocycle(X3, 3, 1)).n == engine(constant_cocycle(X3, 2**20, 1)).n == 6
    assert engine(chi_cocycle(5)).n == engine(minus_one_cocycle(X5)).n == 120


@pytest.mark.parametrize("name", ["x3-const31", "x4-chi", "x5-m1", "aff52-m1"])
def test_group_equals_a_plain_closure(name):
    q = CASES[name]
    eng, want = engine(q), translation_group(q)
    elements, compose, inverse = want["elements"], want["compose"], want["inverse"]
    # the same elements in the same numbering, and the same products
    assert list(zip(map(tuple, eng.perm.tolist()), map(tuple, eng.vec.tolist()))) == elements
    assert eng.rmul.tolist() == want["rmul"] and eng.rinv.tolist() == want["rinv"]
    rep, size = [0] * len(elements), [0] * len(elements)
    for c in want["classes"]:
        size[c[0]] = len(c)
        for g in c:
            rep[g] = c[0]
    assert eng.rep.tolist() == rep and eng.class_size.tolist() == size
    assert eng.reps.tolist() == [c[0] for c in want["classes"]]
    # the transversal conjugates each representative onto its element
    for g in range(eng.n):
        t = (eng.tp[g].tolist(), eng.tv[g].tolist())
        assert compose(compose(t, elements[eng.rep[g]]), inverse(t)) == elements[g]


def test_index_refuses_an_element_outside_the_group():
    eng = engine(CASES["x4-chi"])
    assert [a.tolist() for a in eng.index((eng.perm[[5]], eng.vec[[5]] + 1))] == [[5], [1]]
    swap = np.arange(eng.k)
    swap[[0, 1]] = 1, 0
    # Q acts on the six transpositions of S_4 by conjugation, and only the identity fixes four of them
    with pytest.raises(ValueError, match="outside the group of translations"):
        eng.index((swap[None], np.zeros((1, eng.k), dtype=np.int64)))
    # each permutation of Q comes with one exponent vector: |Q| = 24 = |S_4|
    flipped = eng.vec[[5]].copy()
    flipped[0, 1] ^= 1
    with pytest.raises(ValueError, match="outside the group of translations"):
        eng.index((eng.perm[[5]], flipped))


def test_rref_takes_any_number_of_primes():
    # one prime, the same prime twice and three primes at once reduce alike, to the pivot columns
    # that raise the rank walked in order; a prime with no pivot where the others have one is None
    rng = np.random.default_rng(11)
    primes = np.array([2**31 - 1, 2147483629, 1_073_741_827], dtype=np.int64)
    p = int(primes[0])
    for _ in range(40):
        rows, cols, inner = (int(v) for v in rng.integers(1, 9, size=3))
        a = rng.integers(-3, 4, (rows, inner)) @ rng.integers(-3, 4, (inner, cols))
        one, two, three = a[None] % p, np.stack([a, a]) % p, a[None] % primes[:, None, None]
        pivots = nichols._rref(one, primes[:1])
        assert pivots == first_independent_rows_modp(a.T.tolist(), p)
        assert nichols._rref(two, primes[[0, 0]]) == pivots
        assert np.array_equal(two[0], one[0]) and np.array_equal(two[1], one[0])
        assert nichols._rref(three, primes) == pivots
        if pivots:
            assert nichols._rref(np.stack([a % p, np.zeros_like(a)]), primes[[0, 0]]) is None


# ---------------------------------------------------------------- transport identities


def levels(eng, max_degree):
    """The Level of every degree 0..max_degree - 1, as the engine leaves them when run to max_degree."""
    dims = np.zeros(eng.n, dtype=np.int64)
    dims[0] = 1
    out = [nichols.Level(dims)]
    for _ in eng.ranks(max_degree):
        out.append(eng.level)
    return out[:max_degree]


def block(pool, base, stride, rows, cols):
    """(2, rows, cols) object array of exact integers."""
    at = int(base) + np.arange(rows)[:, None] * int(stride) + np.arange(cols)
    return pool[:, at].astype(object)


def mul(a, b, p):
    return np.stack([(a[i] @ b[i]) % p[i] for i in (0, 1)])


def power(eng, e):
    """zeta^e at each prime, shaped to scale a (2, rows, cols) block."""
    return np.array([pow(int(g), int(e) % eng.m, int(p)) for g, p in zip(eng.roots, eng.p)], dtype=object)[:, None, None]


def m_matrix(eng, levs, j, r, raw):
    """M on degree j of a raw element of the centralizer of the representative r: M_c times zeta^(e j)."""
    c, e = eng.index((raw[0][None], raw[1][None]))
    if j == 0:
        return np.ones((2, 1, 1), dtype=object)
    return m_of(eng, levs[j], r, int(c[0]), int(e[0]), j)


def m_of(eng, lev, r, c, e, j):
    at = np.searchsorted(lev.mkeys, r * eng.n + c)
    n = int(lev.dims[r])
    return block(lev.mpool, lev.moff[at], n, n, n) * power(eng, e * j) % eng.p.astype(object)[:, None, None]


def compose(eng, a, b):
    return nichols._compose((a[0], a[1]), (b[0], b[1]), eng.m)


def inverse(eng, a):
    p, v = nichols._inverse((a[0][None], a[1][None]), eng.m)
    return p[0], v[0]


def transported(eng, levs, j, g, memo={}):
    """D_x and R_y of degree j at the degree g, by the transport formulas, from the representative's maps."""
    key = (id(eng), j, g)
    if key not in memo:
        memo[key] = _transported(eng, levs, j, g)
    return memo[key]


def _transported(eng, levs, j, g):
    lev, low = levs[j], levs[j - 1]
    r, n = int(eng.rep[g]), int(levs[j].dims[g])
    s = (eng.tp[g], eng.tv[g])
    P = eng.p.astype(object)[:, None, None]
    D, R = {}, {}
    if not n:
        return D, R
    for x in range(eng.k):
        gx = int(eng.rinv[g, x])
        nx = int(low.dims[gx])
        if not nx:
            continue
        xp = int(eng.tinv[g, x])
        a = int(eng.rinv[r, xp])
        r3 = int(eng.rep[a])
        # A_s carries degree a to degree gx: A_s A_T(a) = A_T(gx) A_c
        c = compose(eng, inverse(eng, (eng.tp[gx], eng.tv[gx])), compose(eng, s, (eng.tp[a], eng.tv[a])))
        dr = block(lev.dpool, lev.doff[r, xp], n, nx, n)
        D[x] = mul(m_matrix(eng, levs, j - 1, r3, c), dr, P) * power(eng, eng.tv[g, xp]) % P
        rr = block(lev.rpool, lev.roff[r, xp], lev.rstride[r], n, nx)
        c = compose(eng, inverse(eng, (eng.tp[a], eng.tv[a])), compose(eng, inverse(eng, s), (eng.tp[gx], eng.tv[gx])))
        R[x] = mul(rr, m_matrix(eng, levs, j - 1, r3, c), P) * power(eng, -eng.tv[g, xp]) % P
    return D, R


def leibniz_failures(eng, levs, top):
    """The blocks (j, g, x, y) where D_x R_y != delta_xy I + q(x, y) R_(x |> y) D_x, for degrees j = 2..top."""
    P = eng.p.astype(object)[:, None, None]
    bad = []
    for j in range(2, top + 1):
        for g in range(eng.n):
            if not (levs[j - 1].dims[eng.rinv[g]] > 0).any():
                continue
            D, R = transported(eng, levs, j, g)
            for x in range(eng.k):
                for y in range(eng.k):
                    gx, gy = int(eng.rinv[g, x]), int(eng.rinv[g, y])
                    nx, ny = int(levs[j - 1].dims[gx]), int(levs[j - 1].dims[gy])
                    if not nx or not ny:
                        continue
                    lhs = mul(D[x], R[y], P) if x in D else np.zeros((2, nx, ny), dtype=object)
                    rhs = np.zeros((2, nx, ny), dtype=object)
                    if x == y:
                        rhs += np.eye(nx, dtype=np.int64).astype(object)
                    _, rgx = transported(eng, levs, j - 1, gx)
                    dgy, _ = transported(eng, levs, j - 1, gy)
                    z = int(eng.op[x, y])
                    if z in rgx and x in dgy:
                        rhs += mul(rgx[z], dgy[x], P) * power(eng, eng.ex[x, y])
                    if not np.array_equal(lhs % P, rhs % P):
                        bad.append((j, g, x, y))
    return bad


def representation_failures(eng, levs, top):
    """The (j, r, c1, c2) where M_(c1 c2) != M_c1 M_c2 on degree j, for j = 1..top, r a representative."""
    P = eng.p.astype(object)[:, None, None]
    bad = []
    for j in range(1, top + 1):
        lev = levs[j]
        for r in eng.reps.tolist():
            if not lev.dims[r]:
                continue
            cent = eng.cent[r].tolist()
            mats = {c: m_of(eng, lev, r, c, 0, j) for c in cent}
            for c1 in cent:
                for c2 in cent:
                    prod = compose(eng, (eng.perm[c1], eng.vec[c1]), (eng.perm[c2], eng.vec[c2]))
                    c, e = eng.index((prod[0][None], prod[1][None]))
                    lhs = m_of(eng, lev, r, int(c[0]), int(e[0]), j)
                    if not np.array_equal(lhs, mul(mats[c1], mats[c2], P)):
                        bad.append((j, r, c1, c2))
    return bad


def test_leibniz_identity_on_every_transported_block():
    eng = engine(chi_cocycle(4))
    levs = levels(eng, 6)
    assert leibniz_failures(eng, levs, 5) == []


def test_m_is_a_representation_of_every_centralizer():
    eng = engine(chi_cocycle(4))
    levs = levels(eng, 6)
    assert representation_failures(eng, levs, 4) == []


def test_scaling_before_reducing_fails_both_checks(monkeypatch):
    # the overflow of a plain a @ b % p, scaled before it is reduced
    def unreduced(a, b, p, scale=None):
        return (a @ b if scale is None else scale * (a @ b)) % p

    monkeypatch.setattr(nichols, "_mul", unreduced)
    eng = engine(chi_cocycle(4))
    levs = levels(eng, 6)
    assert leibniz_failures(eng, levs, min(5, len(levs) - 1)) != []
    assert representation_failures(eng, levs, min(4, len(levs) - 1)) != []


# ---------------------------------------------------------------- runs it guards


def run_cli(argv, tmp_path):
    """A fresh interpreter running the CLI on this checkout, and the path of its --out report."""
    out = tmp_path / "h.json"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "racktwist", *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    return done, out


def test_group_beyond_the_cap_exits_3(tmp_path):
    done, out = run_cli(["hilbert", "--rack", "x8", "--cocycle=-1", "--max-degree", "2"], tmp_path)
    assert done.returncode == 3
    assert done.stderr == ("resource limit: the group of the 28 monomial translations has more than 7142 "
                           "elements, so its order x 28 exceeds the cap 200000\n")
    assert not out.exists()


def test_x7_degree_two_equals_exact(tmp_path):
    reports = {}
    for mode in ("modular", "exact"):
        out = tmp_path / f"{mode}.json"
        assert main(["hilbert", "--rack", "x7", "--cocycle=-1", "--max-degree", "2", "--mode", mode,
                     "--out", str(out)]) == 0
        reports[mode] = json.loads(out.read_text())["report"]
    assert reports["modular"]["ranks"] == reports["exact"]["ranks"]
    assert reports["modular"]["ranks"][:2] == [1, 21]


def test_table_failing_the_rack_axioms_exits_2(tmp_path, capsys):
    # rows are bijections, but the table is not self-distributive: both modes name the
    # violation that rack --check reports, on one line, and write no report
    rack_file = tmp_path / "rack.json"
    rack_file.write_text(json.dumps({"size": 3, "op": [[0, 1, 2], [0, 2, 1], [1, 0, 2]]}))
    assert main(["rack", "--check", str(rack_file)]) == 2
    violation = capsys.readouterr().out.split("violation: ")[1].strip()
    for mode in ("modular", "exact"):
        argv = ["hilbert", "--rack", str(rack_file), "--cocycle=-1", "--max-degree", "3", "--mode", mode]
        done, out = run_cli(argv, tmp_path)
        assert done.returncode == 2
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
        assert done.stderr.startswith(f"check failed: {violation}: ")
        assert not out.exists()
