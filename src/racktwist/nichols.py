"""Graded dimensions of a Nichols algebra modulo two primes, by the per-class Leibniz recursion.

The skew derivations satisfy d_x(w y) = delta_xy w + q(x, y) d_x(w) (x |> y),
and b in B^d is zero iff every d_x b is (Andruskiewitsch-Grana, "From racks
to pointed Hopf algebras", 2003).  With D_x = d_x: B^d -> B^(d-1) and R_y the
right product by y, B^d is the image of u (x) y -> (d_x(u y))_x, whose block
(x, y) is delta_xy I + q(x, y) R_(x |> y) D_x on B^(d-1): its rank is dim B^d.

Grading.  The translations A_x: y -> q(x, y) (x |> y) satisfy
A_x A_y = A_(x |> y) A_x exactly (self-distributivity and the cocycle
condition), so the degree A_x1...A_xd of a word grades B, d_x maps degree g
to g A_x^-1 and R_y maps g A_y^-1 to g.  Degrees lie in the group Q that the
A_x and the constant scalars generate, modulo those scalars: a permutation
of X with an exponent vector whose first entry is 0; a scalar zeta^e acts on
B^d as zeta^(e d).  Q has n! elements for chi and -1 on x_n.  Phi_g has
column blocks y over B^(d-1)_(g A_y^-1) and row blocks x over
B^(d-1)_(g A_x^-1); its pivot columns (y, j), the words u_j y, are a basis of
B^d_g, D_x is row block x of Phi_g at them, and R_y is column block y of its
reduced echelon form.

Transport.  A_s, with permutation s(y) and scalar gamma_s(y), maps B_g onto
B_(s g s^-1), with d_(s(x)) A_s = gamma_s(x) A_s d_x and
A_s(u y) = gamma_s(y) A_s(u) s(y).  So Phi is ranked at one representative r
per conjugacy class of Q and counts once per element of the class; B_g has
the basis A_T(g) (basis of B_r), for T(g) r T(g)^-1 = g.  On B^d_r, A_c for c
in the centralizer of r is the matrix M_c taking pivot column (y, j) to
gamma_c(y) R_(c(y)) M_(c_y) e_j, with c_y = T(r A_c(y)^-1)^-1 c T(r A_y^-1)
in degree d - 1.  Block (x, y) of Phi_r is then
q(x, y) gamma_s(x') / gamma_t(z') R^r2_z' M_c D^r1_x', where s = T(r A_y^-1),
t = T(r A_x^-1) have representatives r1, r2, x' = s^-1(x),
z' = t^-1(x |> y) and c = T(r2 A_z'^-1)^-1 t^-1 s T(r1 A_x'^-1).  Only
degrees d - 1 and d - 2 are kept, as int32 copies.

Certificate.  Arrays carry both primes p = 1 mod m on a leading axis, zeta
mapped to an element of order m.  Products split one factor into 16-bit
halves (p < 2^31) and are reduced before they are scaled.  Modulo p this is
the Nichols algebra over F_p, whose degree-d dimension is the rank mod p of
the symmetrizer S_d: at most its rank over Q(zeta), and equal to it for all
but finitely many p.  A Phi_r whose two primes differ in rank or in pivot
columns is a disagreement, and its degree gets no dimension here.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DimensionCapError
from .rack import _first_occurrences, _layer_walk, _min_labels, _row_keys


def _compose(a, b, m: int):
    """A_a A_b of raw elements (perm, exponents), A(e_y) = zeta^v[y] e_perm[y]; one element or one per row."""
    (pa, va), (pb, vb) = a, b
    if pa.ndim == 1:
        return pa[pb], (vb + va[pb]) % m
    at = (slice(None), pb) if pb.ndim == 1 else (np.arange(len(pb))[:, None], pb)
    return pa[at], (vb + va[at]) % m


def _inverse(a, m: int):
    perm, vec = a
    inv = np.argsort(perm, axis=1)
    return inv, -vec[np.arange(len(vec))[:, None], inv] % m


def _powers(roots: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(2, len(e)): roots^e mod p, by squaring."""
    out, base = np.ones((2, e.size), dtype=np.int64), roots[:, None]
    while e.any():
        out = np.where(e & 1, out * base % p[:, None], out)
        base, e = base * base % p[:, None], e >> 1
    return out


def _mul(a: np.ndarray, b: np.ndarray, p: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
    """(a @ b) * scale mod p, entries in [0, p), p < 2^31 shaped to broadcast.

    b is split into 16-bit halves, a @ (b >> 16) is reduced before it is
    scaled by 2^16, and no int64 sum leaves 2^63 for inner sizes below 2^16.
    """
    out = (a @ (b >> 16) % p * 65536 + a @ (b & 65535)) % p
    return out if scale is None else out * scale % p


def _gather(pool, base, stride, rmax, cmax, rows=None, cols=None) -> np.ndarray:
    """(2, B, rmax, cmax) int64: matrix i at pool[:, base[i] + a stride[i] + b].

    Rows from rows[i] on, or columns from cols[i] on, are zeroed when given;
    other padding holds pool entries, which a product never reads when its
    inner padding is zero on the other side.
    """
    i, j = np.arange(rmax)[:, None], np.arange(cmax)
    out = pool.take(base[:, None, None] + i * stride[:, None, None] + j, axis=1, mode="clip").astype(np.int64)
    if rows is not None:
        out *= i < rows[:, None, None]
    if cols is not None:
        out *= j < cols[:, None, None]
    return out


def _rref(a: np.ndarray, p: np.ndarray) -> list[int] | None:
    """Reduced row echelon form of a (primes, rows, cols) in place, one prime per slice; its pivot columns.

    At each prime the first row from row r on with a nonzero entry in
    column c trades places with row r and is scaled to a leading 1; every
    other row i becomes row i - a[i, c] row r from column c on (row r is
    zero left of c).  None if the primes differ in their pivot columns.
    """
    n_rows, n_cols = a.shape[1:]
    at, pc, primes = np.arange(len(p)), p[:, None, None], p.tolist()
    pivots, r, c = [], 0, 0
    while r < n_rows and c < n_cols:
        hit = a[:, r:, c] != 0
        if not hit.any():
            # the next column with a nonzero entry below row r, at any prime
            cols = (a[:, r:, c:] != 0).any(axis=(0, 1))
            j = int(cols.argmax())
            if not cols[j]:
                break
            c += j
            hit = a[:, r:, c] != 0
        first = hit.argmax(axis=1)
        if not hit[at, first].all():
            return None
        lead = r + first
        row = a[at, lead]
        a[at, lead] = a[:, r]
        inv = np.array([pow(v, -1, q) for v, q in zip(row[:, c].tolist(), primes)], dtype=np.int64)
        a[:, r] = row * inv[:, None] % pc[:, 0]
        col = a[:, :, c]
        hit = (col != 0).any(axis=0)
        hit[r] = False
        rows = np.flatnonzero(hit)
        if rows.size:
            a[:, rows, c:] = (a[:, rows, c:] - col[:, rows, None] * a[:, r, None, c:]) % pc
        pivots.append(c)
        r += 1
        c += 1
    return pivots


class Level:
    """The maps of degree j at the representatives r with dims[r] > 0, in int32 pools, primes on axis 0.

    dims[g] = dim B^j_g.  D^r_x (dim B^(j-1)_(r A_x^-1) x dims[r]) is at
    dpool[:, doff[r, x]], row stride dims[r]; R^r_y (dims[r] x
    dim B^(j-1)_(r A_y^-1)) at rpool[:, roff[r, y]], row stride rstride[r];
    M^r_c at mpool[:, moff[i]], row stride dims[r], for mkeys[i] = r |Q| + c
    ascending.  The maps are given by keyword, and are None where they are
    not built (see LeibnizEngine.ranks).
    """

    __slots__ = ("dims", "dpool", "doff", "rpool", "roff", "rstride", "mpool", "mkeys", "moff")

    def __init__(self, dims, *, dpool=None, doff=None, rpool=None, roff=None, rstride=None, mpool=None, mkeys=None,
                 moff=None):
        self.dims, self.dpool, self.doff, self.rpool, self.roff = dims, dpool, doff, rpool, roff
        self.rstride, self.mpool, self.mkeys, self.moff = rstride, mpool, mkeys, moff


class LeibnizEngine:
    """The group Q of a rack cocycle, closed at construction, and the recursion over it (`ranks`).

    q must be a checked 2-cocycle on a rack (cocycle.check_rack_cocycle),
    so that A_x A_y = A_(x |> y) A_x grades the recursion.  Each cap on
    dim_cap is decided before what it bounds is allocated: DimensionCapError
    names a group with |Q| |X| > dim_cap, and in `ranks` the first degree
    whose largest Phi_r has side^2 > dim_cap entries, with that side.
    """

    def __init__(self, q, primes: tuple[int, int], roots: tuple[int, int], dim_cap: int):
        self.k, self.m, self.op, self.ex = q.rack.size, q.order, q.rack.op, q.exp
        self.p, self.roots = np.array(primes, dtype=np.int64), np.array(roots, dtype=np.int64)
        self.dim_cap = dim_cap
        self._close()
        self._classes()
        self._pairs()
        self._carry: dict[int, np.ndarray] = {}

    def _close(self) -> None:
        """Number Q breadth first from the identity: rmul[h, x] = h A_x, rinv its inverse in h.

        Elements are looked up by their exact keys (_key); the new ones of a
        layer are numbered in the order of their first candidate.
        """
        k, m, op, ex = self.k, self.m, self.op, self.ex
        perm, vec = [np.arange(k)[None]], [np.zeros((1, k), dtype=np.int64)]
        keys = self._key(perm[0], vec[0])
        rmul, parent, letter = [], [np.zeros(1, dtype=np.int64)], [np.zeros(1, dtype=np.int64)]
        frontier, n, limit = (perm[0], vec[0]), 1, self.dim_cap // k
        while frontier[0].size:
            p = frontier[0][:, op].reshape(-1, k)
            v = (ex[None] + frontier[1][:, op]).reshape(-1, k)
            v = (v - v[:, :1]) % m
            cand = self._key(p, v)
            # each key's first occurrence: an element of Q, or the first candidate of a new one
            order, first = _first_occurrences(np.concatenate((keys, cand)))
            lead = np.empty_like(order)
            lead[order] = order[first][np.cumsum(first) - 1]
            new = np.flatnonzero(lead[n:] == np.arange(n, n + cand.size))
            if n + new.size > limit:
                raise DimensionCapError(
                    f"the group of the {k} monomial translations has more than {limit} elements, "
                    f"so its order x {k} exceeds the cap {self.dim_cap}"
                )
            number = np.arange(n + cand.size)
            number[n + new] = n + np.arange(new.size)
            index = number[lead[n:]]
            perm.append(p[new])
            vec.append(v[new])
            rmul.append(index.reshape(-1, k))
            parent.append(n - len(frontier[0]) + new // k)
            letter.append(new % k)
            frontier = (p[new], v[new])
            keys = np.concatenate((keys, cand[new]))
            n += new.size
        self.n, self.perm, self.vec = n, np.concatenate(perm), np.concatenate(vec)
        self._order = np.argsort(keys)
        self._sorted = keys[self._order]
        self.rmul = np.concatenate(rmul)
        self.rinv = np.empty_like(self.rmul)
        self.rinv[self.rmul, np.arange(k)] = np.arange(n)[:, None]
        # the breadth-first tree: parent and letter of each element, and where each layer starts
        self._tree = np.concatenate(parent), np.concatenate(letter), np.cumsum([len(u) for u in parent]).tolist()

    def _key(self, perm: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """The exact key of each element (perm, exponents): its entries in the smallest dtype that holds them."""
        return _row_keys(np.hstack((perm, vec)).astype(np.min_scalar_type(max(self.k, self.m) - 1)))

    def index(self, a) -> tuple[np.ndarray, np.ndarray]:
        """The element of Q of each raw element, and its constant scalar exponent; ValueError outside Q."""
        perm, vec = a
        e, vec = vec[:, 0] % self.m, (vec - vec[:, :1]) % self.m
        key = self._key(perm, vec)
        at = np.minimum(np.searchsorted(self._sorted, key), self.n - 1)
        if (self._sorted[at] != key).any():
            raise ValueError("an element outside the group of translations")
        return self._order[at], e

    def _t(self, g):
        return self.tp[g], self.tv[g]

    def _classes(self) -> None:
        """Conjugacy classes (rep), a transversal T (tp, tv) and the centralizer of every representative.

        Conjugation by A_x is read off the tree: A_x (h A_y) A_x^-1 = (A_x h A_x^-1) A_(x |> y).
        """
        k, m, n = self.k, self.m, self.n
        parent, letter, starts = self._tree
        act = np.zeros((n, k), dtype=np.int64)
        for lo, hi in zip(starts[:-1], starts[1:]):
            act[lo:hi] = self.rmul[act[parent[lo:hi]], self.op[:, letter[lo:hi]].T]
        act = act.T
        self.rep = _min_labels(np.arange(n), act)
        self.class_size = np.bincount(self.rep, minlength=n)
        tp, tv = np.tile(np.arange(k), (n, 1)), np.zeros((n, k), dtype=np.int64)
        self.reps = np.flatnonzero(self.rep == np.arange(n))
        for g, up, x in _layer_walk(act, self.reps):
            tp[g], tv[g] = _compose((self.op[x], self.ex[x]), (tp[up], tv[up]), m)
        self.tp, self.tv, self.tinv = tp, tv, np.argsort(tp, axis=1)
        self.cent = {}
        for r in self.reps.tolist():
            cp, cv = _compose((self.perm, self.vec), (self.perm[r], self.vec[r]), m)
            dp, dv = _compose((self.perm[r], self.vec[r]), (self.perm, self.vec), m)
            same = (cp == dp).all(axis=1) & ((cv - cv[:, :1] - dv + dv[:, :1]) % m == 0).all(axis=1)
            self.cent[r] = np.flatnonzero(same)

    def _pairs(self) -> None:
        """What block (x, y) of Phi_r takes from Q, for each representative r, flat over (x, y).

        Row self.row[r] of self.pair holds x, y, x', z', r1, r2, the degree
        a = r1 A_x'^-1 of D^r1_x', its representative r3, c and the scalar
        exponent of c; self.zpair holds q(x, y) gamma_s(x') / gamma_t(z').
        """
        k, m = self.k, self.m
        self.row = np.zeros(self.n, dtype=np.int64)
        self.row[self.reps] = np.arange(self.reps.size)
        r = np.repeat(self.reps, k * k)
        x, y = np.divmod(np.arange(r.size) % (k * k), k)
        hx, hy = self.rinv[r, x], self.rinv[r, y]
        xp, zp = self.tinv[hy, x], self.tinv[hx, self.op[x, y]]
        r1, r2 = self.rep[hy], self.rep[hx]
        a, b = self.rinv[r1, xp], self.rinv[r2, zp]
        s, t = self._t(hy), self._t(hx)
        c, e = self.index(_compose(_inverse(_compose(t, self._t(b), m), m), _compose(s, self._t(a), m), m))
        at = np.arange(r.size)
        fields = (x, y, xp, zp, r1, r2, a, self.rep[a], c, e)
        self.pair = np.stack(fields).reshape(len(fields), self.reps.size, k * k).transpose(1, 0, 2).copy()
        expo = (self.ex[x, y] - t[1][at, zp] + s[1][at, xp]) % m
        self.zpair = _powers(self.roots, expo, self.p).reshape(2, self.reps.size, k * k)

    def _carries(self, r: int) -> np.ndarray:
        """Rows y, c(y), r1, c_y, the scalar exponent of c_y and gamma_c(y), over c in C(r) and letters y; memoised."""
        got = self._carry.get(r)
        if got is None:
            m, k, cent = self.m, self.k, self.cent[r]
            c, y = np.repeat(cent, k), np.tile(np.arange(k), cent.size)
            z = self.perm[c, y]
            hy, hz = self.rinv[r, y], self.rinv[r, z]
            cy, e = self.index(_compose(_inverse(self._t(hz), m), _compose((self.perm[c], self.vec[c]), self._t(hy), m), m))
            got = self._carry[r] = np.stack((y, z, self.rep[hy], cy, e, self.vec[c, y]))
        return got

    def ranks(self, max_degree: int):
        """Yield dim B^d for d = 1..max_degree, or None at the first disagreement of the primes, and stop.

        After each yield `self.level` holds that degree's Level; its D and R
        are built while degree d + 1 needs them, its M while d + 2 does.  B
        is generated in degree 1, so after the first degree of dimension 0
        every later one is 0 too, and is yielded without being built.
        """
        n, cent = self.n, self.cent[0]
        dims = np.zeros(n, dtype=np.int64)
        dims[0] = 1
        mid = Level(dims, mpool=np.ones((2, cent.size), dtype=np.int32), mkeys=cent, moff=np.arange(cent.size))
        low = Level(np.zeros(n, dtype=np.int64))
        for d in range(1, max_degree + 1):
            level, total = self._degree(d, mid, low, d < max_degree, d + 2 <= max_degree)
            if level is None:
                yield None
                return
            self.level = level
            yield total
            if not total:
                yield from itertools.repeat(0, max_degree - d)
                return
            low, mid = mid, level

    def _degree(self, d: int, mid: Level, low: Level, maps: bool, with_m: bool):
        """Phi_r for every representative r that degree d - 1 reaches: the Level of degree d and dim B^d.

        The side of Phi_r sums the dimensions of degree d - 1 that its blocks
        read, so every side is known, and the largest checked against
        dim_cap, before any Phi_r is allocated.
        """
        k, n = self.k, self.n
        ranks = np.zeros(n, dtype=np.int64)
        doff, roff, rstride = np.zeros((n, k), dtype=np.int64), np.zeros((n, k), dtype=np.int64), np.zeros(n, np.int64)
        parts, mkeys, moff, used, total = ([], [], []), [], [], [0, 0, 0], 0
        heights = mid.dims[self.rinv[self.reps]]
        widest = int(heights.sum(axis=1).max())
        if widest * widest > self.dim_cap:
            raise DimensionCapError(
                f"degree {d} needs a Phi_r of side {widest}, {widest * widest} entries > cap {self.dim_cap}"
            )
        for r in self.reps[(heights > 0).any(axis=1)].tolist():
            nh = mid.dims[self.rinv[r]]
            off = np.cumsum(nh) - nh
            side = int(off[-1] + nh[-1])
            phi = self._phi(d, r, nh, off, side, mid, low)
            kept = phi.copy() if maps else None
            pivots = _rref(phi, self.p)
            if pivots is None:
                return None, None
            rank = ranks[r] = len(pivots)
            total += rank * int(self.class_size[r])
            if not maps or not rank:
                continue
            # D^r_x: row block x of Phi at the pivot columns; R^r_y: column block y of the echelon rows
            doff[r], roff[r], rstride[r] = used[0] + off * rank, used[1] + off, side
            parts[0].append(kept[:, :, pivots].reshape(2, -1))
            parts[1].append(phi[:, :rank].reshape(2, -1))
            used[0] += side * rank
            used[1] += side * rank
            if with_m:
                cent = self.cent[r]
                mkeys.append(r * n + cent)
                moff.append(used[2] + np.arange(cent.size) * rank * rank)
                parts[2].append(self._m(d, r, nh, off, np.array(pivots), phi[:, :rank], mid).reshape(2, -1))
                used[2] += cent.size * rank * rank
        if not maps:
            return Level(ranks[self.rep]), total
        pools = [np.concatenate([np.zeros((2, 0), np.int32)] + u, axis=1).astype(np.int32) for u in parts]
        ms = dict(mpool=pools[2], mkeys=np.concatenate([[]] + mkeys).astype(np.int64),
                  moff=np.concatenate([[]] + moff).astype(np.int64)) if with_m else {}
        return Level(ranks[self.rep], dpool=pools[0], doff=doff, rpool=pools[1], roff=roff, rstride=rstride, **ms), total

    def _m_at(self, level: Level, r, c):
        """Offsets of M^r_c in level.mpool."""
        return level.moff[np.searchsorted(level.mkeys, r * self.n + c)]

    def _phi(self, d, r, nh, off, side, mid: Level, low: Level) -> np.ndarray:
        """Phi_r of degree d, (2, side, side): I plus the blocks q(x, y) R_(x |> y) D_x."""
        m, p = self.m, self.p
        phi = np.zeros((2, side, side), dtype=np.int64)
        pr = self.pair[self.row[r]]
        live = np.flatnonzero((nh[pr[0]] > 0) & (nh[pr[1]] > 0) & (low.dims[pr[6]] > 0))
        if live.size:
            x, y, xp, zp, r1, r2, a, r3, c, e = pr[:, live]
            n1, n2, n3 = nh[y], nh[x], low.dims[a]
            n3max = int(n3.max())
            # R is zero past column n3 and D past row n3, so M is read on its n3 x n3 corner only
            rmat = _gather(mid.rpool, mid.roff[r2, zp], mid.rstride[r2], int(n2.max()), n3max, cols=n3)
            mmat = _gather(low.mpool, self._m_at(low, r3, c), n3, n3max, n3max)
            dmat = _gather(mid.dpool, mid.doff[r1, xp], n1, n3max, int(n1.max()), rows=n3)
            scale = self.zpair[:, self.row[r], live]
            if e.any():
                scale = scale * _powers(self.roots, e * (d - 2) % m, p) % p[:, None]
            pb = p[:, None, None, None]
            block = _mul(_mul(rmat, mmat, pb), dmat, pb, scale[:, :, None, None])
            i, j = np.arange(block.shape[2])[:, None], np.arange(block.shape[3])
            bi, ii, jj = np.nonzero((i < n2[:, None, None]) & (j < n1[:, None, None]))
            phi[:, off[x][bi] + ii, off[y][bi] + jj] = block[:, bi, ii, jj]
        diag = np.arange(side)
        phi[:, diag, diag] = (phi[:, diag, diag] + 1) % p[:, None]
        return phi

    def _m(self, d, r, nh, off, piv, ech, mid: Level) -> np.ndarray:
        """M^r_c on B^d_r for every c in the centralizer of r: (2, |C|, rank, rank)."""
        m, k, p = self.m, self.k, self.p
        rank, side, cent = piv.size, ech.shape[2], self.cent[r]
        # pivot column j of Phi lies in block py[j] at column lj[j] of it
        py = np.searchsorted(off, piv, side="right") - 1
        lj = piv - off[py]
        has = np.zeros(k, dtype=bool)
        has[py] = True
        cr = self._carries(r)
        sel = np.flatnonzero(has[cr[0]])
        y, z, r1, cy, e, expo = cr[:, sel]
        n1 = nh[y]
        n1max = int(n1.max())
        rmat = _gather(ech.reshape(2, -1), off[z], np.full(sel.size, side), rank, n1max, cols=n1)
        mmat = _gather(mid.mpool, self._m_at(mid, r1, cy), n1, n1max, n1max)
        scale = _powers(self.roots, (expo + e * (d - 1)) % m, p)[:, :, None, None]
        cols = _mul(rmat, mmat, p[:, None, None, None], scale)
        # the pairs run over c, then over the blocks with pivots; pivot j reads pair (c, py[j]) at column lj[j]
        used = np.flatnonzero(has)
        rows, js = np.repeat(np.arange(cent.size), rank), np.tile(np.arange(rank), cent.size)
        out = np.zeros((2, cent.size, rank, rank), dtype=np.int64)
        out[:, rows, :, js] = cols[:, rows * used.size + np.searchsorted(used, py)[js], :, lj[js]]
        return out
