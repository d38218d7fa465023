"""Finite racks as explicit operation tables.

A rack is a finite set {0..k-1} with a binary operation x |> y such that
every left translation y -> x |> y is a bijection and the operation is
self-distributive: x |> (y |> z) = (x |> y) |> (x |> z).  The racks built
here come from conjugation in symmetric groups; elements are dense integer
indices and any group-theoretic meaning lives in the labels.  Axioms over
the triples (x, y, z) are numpy masks run by one chunk scanner
(_first_failure), for racks here and for cocycles in racktwist.cocycle.
The graph and dedupe kernels that racktwist shares live here too: _min_labels,
_layer_walk, _row_keys and _first_occurrences.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np


class ReadOnly:
    """Refuses attribute writes, so that a record set in __init__ can be shared by every caller.

    A subclass lists its fields in __slots__ and sets them with object.__setattr__.
    Two records are equal, and hash alike, when they have one type and equal
    fields, an array field compared by its bytes.
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        values = (getattr(self, name) for name in type(self).__slots__)
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


class Permutation(ReadOnly):
    """A permutation of {1..n} in one-line notation: image[k] = value at position k+1."""

    __slots__ = ("image",)

    def __init__(self, image: tuple[int, ...]):
        n = len(image)
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {image}")
        object.__setattr__(self, "image", image)

    @property
    def n(self) -> int:
        return len(self.image)

    @staticmethod
    def identity(n: int) -> Permutation:
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, i: int, j: int) -> Permutation:
        if not (1 <= i <= n and 1 <= j <= n and i != j):
            raise ValueError(f"bad transposition ({i} {j}) in S_{n}")
        img = list(range(1, n + 1))
        img[i - 1], img[j - 1] = j, i
        return Permutation(tuple(img))

    @staticmethod
    def adjacent(n: int, i: int) -> Permutation:
        """The Coxeter generator swapping i and i+1."""
        return Permutation.transposition(n, i, i + 1)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        """Functional composition: (self*other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.image[v - 1] for v in other.image))

    def inverse(self) -> Permutation:
        return Permutation(tuple(sorted(range(1, self.n + 1), key=self)))  # positions in the order of their values

    def cycle_string(self) -> str:
        seen = [False] * self.n
        parts = []
        for start in range(1, self.n + 1):
            if seen[start - 1] or self(start) == start:
                continue
            cyc = [start]
            seen[start - 1] = True
            v = self(start)
            while v != start:
                cyc.append(v)
                seen[v - 1] = True
                v = self(v)
            parts.append("(" + " ".join(str(c) for c in cyc) + ")")
        return "".join(parts) if parts else "id"


def lex_reduced_words(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lexicographically smallest reduced words of the permutations with one-line images (B, n).

    For sigma let c_j = #{i < j : sigma^-1(i) > sigma^-1(j)}, the inversion code
    of sigma^-1 read by value.  The smallest word is the concatenation over
    j = 2..n of the runs (j-1, j-2, ..., j-c_j) (Bjorner-Brenti, Combinatorics
    of Coxeter Groups, 2005).  The codes are counted one column j at a time.
    Returns (letters, lengths): the words one after another, and their lengths.
    """
    batch, n = images.shape
    inv = np.empty((batch, n + 1), dtype=np.intp)
    inv[np.arange(batch)[:, None], images] = np.arange(n)  # inv[b, v] is the position of the value v
    inv = inv[:, 1:]
    codes = np.zeros((batch, n), dtype=np.intp)
    for j in range(1, n):
        codes[:, j] = np.count_nonzero(inv[:, :j] > inv[:, j, None], axis=1)
    runs = codes.ravel()
    # the run of column j (value j + 1) descends from j, so a letter is j minus its place in the run
    place = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)
    return np.repeat(np.tile(np.arange(n), batch), runs) - place, codes.sum(axis=1)


def _frozen_table(table, shape: tuple[int, ...], bound: int, dtype, shape_error: str, range_error: str) -> np.ndarray:
    """A read-only copy of table as dtype; ValueError(shape_error) unless it has shape (a ragged table has none),
    ValueError(range_error) unless every entry lies in 0..bound-1 (one past dtype does not)."""
    try:
        a = np.array(table, dtype=dtype)
    except (OverflowError, ValueError) as exc:
        raise ValueError(range_error if isinstance(exc, OverflowError) else shape_error) from None
    if a.shape != shape or ((a < 0) | (a >= bound)).any():
        raise ValueError(shape_error if a.shape != shape else range_error)
    a.setflags(write=False)
    return a


class FiniteRack(ReadOnly):
    """A rack on {0..k-1} given by its full operation table op[x, y] = x |> y, read-only intp."""

    __slots__ = ("op", "labels")

    def __init__(self, op, labels: tuple[str, ...] | None = None):
        k = len(op)
        op = _frozen_table(op, (k, k), k, np.intp, "operation table must be square",
                           f"operation table entries must lie in 0..{k - 1}")
        if labels is not None and len(labels) != k:
            raise ValueError("labels length must match rack size")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.op)


# Triples decided at once by _first_failure: a chunk of x takes at most this many
# (x, y, z) entries per array, and at least one x.
# 2^14 was no faster on twist-verify --n 8 and raised its peak RSS by 0.3 MB.
_TRIPLE_ENTRIES = 1 << 13


def _first_failure(op: np.ndarray, masks) -> tuple[int, tuple[int, int, int]] | None:
    """The first failing triple of the first mask that fails anywhere, as (mask number, (x, y, z)), or None.

    op is the k x k table of a rack, as intp.  Each mask(xs, ox, at) is the
    (len(xs), k, k) bool array over (x, y, z) of the triples that fail its
    condition, given ox = op[xs] and the flat place at = (x |> y) k + (x |> z)
    of (x |> y, x |> z) in a k x k table.  x runs over 0..k-1 once, in
    chunks; a mask is not run again once it or an earlier one has failed, so
    the witness of the earliest failing mask is the first failing (x, y, z)
    in lexicographic order.
    """
    k = len(op)
    step = max(1, _TRIPLE_ENTRIES // (k * k))
    failed, live = None, len(masks)
    for start in range(0, k, step):
        xs = np.arange(start, min(k, start + step))
        ox = op[xs]
        at = (ox * k)[:, :, None] + ox[:, None, :]
        for i, mask in enumerate(masks[:live]):
            bad = np.flatnonzero(mask(xs, ox, at))
            if bad.size:
                x, yz = divmod(int(bad[0]), k * k)
                failed, live = (i, (start + x, *divmod(yz, k))), i
                break
        if not live:
            break
    return failed


def _self_distributivity(op: np.ndarray):
    """The mask of _first_failure where x |> (y |> z) != (x |> y) |> (x |> z), on values in the smallest dtype."""
    small = op.astype(np.min_scalar_type(len(op) - 1))
    flat = small.ravel()
    return lambda xs, ox, at: small[xs][:, op] != flat[at]


def _check_axioms(op: np.ndarray, conditions) -> dict | None:
    """The first violation of bijective rows, then of each (kind, mask) of conditions, over one scan of the triples.

    None if every axiom holds, else {"kind": ..., "witness": ...}: the kind
    "non-bijective-row" with the first such row (x,), or the kind of the
    earliest condition that fails with its first failing (x, y, z)
    (_first_failure).
    """
    k = len(op)
    bad = np.flatnonzero((np.sort(op, axis=1) != np.arange(k)).any(axis=1))
    if bad.size:
        return {"kind": "non-bijective-row", "witness": (int(bad[0]),)}
    failed = _first_failure(op, [mask for _, mask in conditions])
    return None if failed is None else {"kind": conditions[failed[0]][0], "witness": failed[1]}


def check_rack_axioms(r: FiniteRack) -> dict | None:
    """The first violation of bijective left translations or of self-distributivity, or None (_check_axioms).

    Rows come first, then the triples, both in lexicographic order, so the
    reported witness is deterministic.
    """
    return _check_axioms(r.op, [("not-self-distributive", _self_distributivity(r.op))])


def _min_labels(label: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """The smallest element of each component of the graph joining i to label[i] and to maps[t, i] for every t.

    label must send every i to an element of its component no larger than
    i (the identity does).  Each round lets every label jump to its root,
    then hooks every root to the smallest root that an edge joins it to,
    until the two ends of every edge have one label.
    """
    while True:
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
        ends = label[maps]
        if (ends == label).all():
            return label
        low = np.minimum(ends, label)
        hooked = label.copy()
        np.minimum.at(hooked, ends, low)
        np.minimum.at(hooked, label, low.min(axis=0))
        label = hooked


def _row_keys(a: np.ndarray) -> np.ndarray:
    """One np.void per slice a[i], its bytes: two keys are equal exactly when their slices are.

    np.unique would compare the same keys but imports numpy.ma on its first call.
    """
    flat = np.ascontiguousarray(a).reshape(a.shape[0], int(np.prod(a.shape[1:])))
    return flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()


def _first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable sorting order of keys, and along it whether each key differs from the one before.

    keys[order[first]] are the distinct keys ascending, and order[first]
    the place of the first occurrence of each.
    """
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    return order, first


def _layer_walk(maps: np.ndarray, heads: np.ndarray):
    """Yield the breadth-first layers of the graph i -> maps[t, i] grown from heads: (children, parents, t).

    A layer holds the elements first reached from the layer before (the
    heads first), ascending.  An element reached along several edges takes
    the first in (t, parent) order, and maps[t[j], parents[j]] = children[j].
    """
    seen = np.zeros(maps.shape[1], dtype=bool)
    seen[heads] = True
    frontier = heads
    while frontier.size:
        child = maps[:, frontier]
        t, f = np.nonzero(~seen[child])
        order, first = _first_occurrences(child[t, f])
        t, f = t[order[first]], f[order[first]]
        frontier, parents = child[t, f], frontier[f]
        seen[frontier] = True
        yield frontier, parents, t


def is_indecomposable(r: FiniteRack) -> bool:
    """True iff the graph with edges {y, x |> y} over all x, y is connected."""
    return not _min_labels(np.arange(r.size), r.op).any()


def transposition_pairs(n: int) -> list[tuple[int, int]]:
    """All pairs (i, j), 1 <= i < j <= n, in lexicographic order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _pair_index(i, j, n: int):
    """The place of (i + 1, j + 1) in transposition_pairs(n), for 0 <= i < j < n; elementwise on arrays."""
    return i * n - i * (i + 1) // 2 + j - i - 1


_TRANSPOSITION_RACKS: dict[int, FiniteRack] = {}


def transposition_rack(n: int) -> FiniteRack:
    """The rack of transpositions of S_n under conjugation, size n(n-1)/2, memoised on n.

    x |> (c d) = (x(c) x(d)), its index read off the sorted pair of images.
    The rack is frozen and its table read-only, so every caller may share it.
    """
    if n < 2:
        raise ValueError(f"transposition rack needs n >= 2, got {n}")
    got = _TRANSPOSITION_RACKS.get(n)
    if got is None:
        images, (i, j) = transposition_images(n), np.triu_indices(n, 1)
        op = _pair_index(np.minimum(images[:, i], images[:, j]), np.maximum(images[:, i], images[:, j]), n)
        got = _TRANSPOSITION_RACKS[n] = FiniteRack(op, tuple(f"({a} {b})" for a, b in transposition_pairs(n)))
    return got


def transposition_images(n: int) -> np.ndarray:
    """The one-line images of the transpositions of S_n on 0..n-1, one row per pair of transposition_pairs(n)."""
    i, j = np.triu_indices(n, 1)
    images = np.tile(np.arange(n), (len(i), 1))
    rows = np.arange(len(i))
    images[rows, i], images[rows, j] = j, i
    return images


def rack_to_dict(r: FiniteRack) -> dict:
    d = {"size": r.size, "op": r.op.tolist()}
    if r.labels is not None:
        d["labels"] = list(r.labels)
    return d


def json_field(d, key: str, what: str):
    """d[key] from a decoded JSON object; ValueError with a one-line message otherwise."""
    if not isinstance(d, dict):
        raise ValueError(f"{what}: expected a JSON object, got {type(d).__name__}")
    if key not in d:
        raise ValueError(f"{what}: missing key {key!r}")
    return d[key]


def json_count(d, key: str, what: str) -> int:
    """A positive integer field of a decoded JSON object."""
    value = json_field(d, key, what)
    if type(value) is not int or value < 1:
        raise ValueError(f"{what}: {key} must be a positive integer, got {value!r:.40}")
    return value


def json_table(d, key: str, what: str, size: int, bound: int) -> np.ndarray | list[list[int]]:
    """A size x size table of integers in 0..bound-1 from a decoded JSON object, as an int64 array.

    The types and the range are checked over the whole table at once; the
    rows are walked only to name the first bad entry.  An entry past int64
    fits only a bound past 2^63, a cocycle order that the record refuses;
    such a table is returned as its list of rows.
    """
    rows = json_field(d, key, what)
    if not isinstance(rows, list) or len(rows) != size or any(
        not isinstance(row, list) or len(row) != size for row in rows
    ):
        raise ValueError(f"{what}: {key} must be a {size} x {size} table")
    table = None
    # type() is int for no bool, float or str entry
    if set(map(type, chain.from_iterable(rows))) == {int}:
        try:
            table = np.array(rows, dtype=np.int64)
        except OverflowError:
            pass
    if table is not None and not ((table < 0) | (table >= bound)).any():
        return table
    for x, row in enumerate(rows):
        for y, v in enumerate(row):
            if type(v) is not int or not 0 <= v < bound:
                raise ValueError(f"{what}: {key}[{x}][{y}] must be an integer in 0..{bound - 1}, got {v!r:.40}")
    return rows


def rack_from_dict(d: dict) -> FiniteRack:
    size = json_count(d, "size", "rack")
    op = json_table(d, "op", "rack", size, size)
    labels = d.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or len(labels) != size or not all(isinstance(s, str) for s in labels)
    ):
        raise ValueError(f"rack: labels must be a list of {size} strings")
    return FiniteRack(op=op, labels=None if labels is None else tuple(labels))


def json_file(path: str):
    """The decoded JSON of the file at path; ValueError naming path, with the decoder's reason, if it is not JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError
            raise ValueError(f"{path} is not JSON: {exc}") from None


def load_rack(path: str) -> FiniteRack:
    return rack_from_dict(json_file(path))
