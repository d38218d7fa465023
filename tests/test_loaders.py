"""Fuzz tests for the JSON loaders: malformed input is a ValueError (or an OSError for
a rack path that cannot be read), never a crash."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racktwist.cli import main
from racktwist.cocycle import chi_cocycle, cocycle_from_dict, cocycle_to_dict
from racktwist.rack import json_table, rack_from_dict, rack_to_dict, transposition_rack

KEYS = ["size", "op", "labels", "rack", "order", "exp", "phi", "x"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(-2, 9) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=6),
    max_leaves=40,
)


def _mutate(draw, doc, value):
    """Replace one node of a JSON document by value, or drop a key, choosing the place with draw."""
    if isinstance(doc, dict) and doc:
        key = draw(st.sampled_from(sorted(doc)))
        out = dict(doc)
        action = draw(st.sampled_from(["drop", "replace", "descend"]))
        if action == "drop":
            del out[key]
        else:
            out[key] = value if action == "replace" else _mutate(draw, out[key], value)
        return out
    if isinstance(doc, list) and doc:
        i = draw(st.integers(0, len(doc) - 1))
        out = list(doc)
        out[i] = value if draw(st.booleans()) else _mutate(draw, out[i], value)
        return out
    return value


def _mutated(data, doc):
    return _mutate(data.draw, doc, data.draw(st.integers(-3, 8) | json_values))


def _valid_or_value_error(loader, doc):
    try:
        loaded = loader(doc)
    except (ValueError, OSError) as exc:
        assert "\n" not in str(exc)
        return None
    return loaded


def _in_range(table, bound):
    return all(type(v) is int and 0 <= v < bound for row in table.tolist() for v in row)


def _first_bad_entry(rows, bound):
    """The first (x, y, v) of rows with v no int in 0..bound-1, entry by entry; None if there is none."""
    return next(((x, y, v) for x, row in enumerate(rows) for y, v in enumerate(row)
                 if type(v) is not int or not 0 <= v < bound), None)


table_entries = (st.integers(0, 3) | st.integers(-2, 6) | st.booleans() | st.floats(0, 3) | st.text(max_size=1)
                 | st.sampled_from([2**62, 2**63, 2**64, -2**63 - 1]))


@settings(max_examples=300)
@given(st.lists(st.lists(table_entries, min_size=3, max_size=3), min_size=3, max_size=3),
       st.sampled_from([4, 2**70]))
def test_json_table_agrees_with_the_entry_loop(rows, bound):
    # the whole-table check accepts what the loop over entries accepts, and a refusal names the loop's first bad entry
    bad = _first_bad_entry(rows, bound)
    if bad is None:
        assert np.asarray(json_table({"t": rows}, "t", "q", 3, bound), dtype=object).tolist() == rows
    else:
        x, y, v = bad
        with pytest.raises(ValueError) as exc:
            json_table({"t": rows}, "t", "q", 3, bound)
        assert str(exc.value) == f"q: t[{x}][{y}] must be an integer in 0..{bound - 1}, got {v!r:.40}"


class TestRackLoader:
    @settings(max_examples=150)
    @given(json_values)
    def test_arbitrary_json(self, doc):
        rack = _valid_or_value_error(rack_from_dict, doc)
        if rack is not None:
            assert _in_range(rack.op, rack.size)

    @settings(max_examples=150)
    @given(st.data())
    def test_mutated_rack(self, data):
        doc = _mutated(data, rack_to_dict(transposition_rack(3)))
        rack = _valid_or_value_error(rack_from_dict, doc)
        if rack is not None:
            assert rack.size >= 1 and _in_range(rack.op, rack.size)
            assert rack.labels is None or len(rack.labels) == rack.size


class TestCocycleLoader:
    @settings(max_examples=150)
    @given(json_values)
    def test_arbitrary_json(self, doc):
        q = _valid_or_value_error(cocycle_from_dict, doc)
        if q is not None:
            assert _in_range(q.exp, q.order) and _in_range(q.rack.op, q.rack.size)

    @settings(max_examples=150)
    @given(st.data())
    def test_mutated_cocycle(self, data):
        doc = _mutated(data, cocycle_to_dict(chi_cocycle(3)))
        q = _valid_or_value_error(cocycle_from_dict, doc)
        if q is not None:
            assert _in_range(q.exp, q.order) and _in_range(q.rack.op, q.rack.size)


class TestCliExitCodes:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rack_check_never_crashes(self, tmp_path_factory, data):
        doc = _mutated(data, rack_to_dict(transposition_rack(3)))
        path = tmp_path_factory.mktemp("rack") / "rack.json"
        path.write_text(json.dumps(doc))
        assert main(["rack", "--check", str(path)]) in (0, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cocycle_check_never_crashes(self, tmp_path_factory, data):
        doc = _mutated(data, cocycle_to_dict(chi_cocycle(3)))
        path = tmp_path_factory.mktemp("cocycle") / "cocycle.json"
        path.write_text(json.dumps(doc))
        assert main(["cocycle", "--check", str(path)]) in (0, 1, 2)

    def test_empty_object_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert main(["rack", "--check", str(path)]) == 1
        assert main(["cocycle", "--check", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: rack: missing key 'size'", "error: cocycle: missing key 'rack'"]

    def test_out_of_range_rack_table(self, tmp_path, capsys):
        path = tmp_path / "rack.json"
        path.write_text(json.dumps({"size": 2, "op": [[0, 2], [0, 1]]}))
        assert main(["hilbert", "--rack", str(path), "--cocycle=-1", "--max-degree", "2"]) == 1
        assert capsys.readouterr().err == "error: rack: op[0][1] must be an integer in 0..1, got 2\n"
