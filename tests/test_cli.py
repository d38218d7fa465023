import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import (
    cocycle_first_failure,
    disagree_at,
    flip_phi_bit,
    main_theorem_log,
    scale_bracket,
    twist_condition_first_failure,
)
from racktwist import hilbert as hilbert_mod
from racktwist import rack as rack_mod
from racktwist import cocycle as cocycle_mod
from racktwist import cli, spincover
from racktwist.cli import main
from racktwist.cocycle import GaugeFunction, RackCocycle, check_rack_cocycle, check_twist_condition, chi_cocycle
from racktwist.errors import SectionConsistencyError
from racktwist.spincover import N_CAP, GroupCocycleBit, verify_main_theorem


def run(argv):
    return main(argv)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def never_build_rack(monkeypatch):
    def never(n):
        raise AssertionError(f"x{n} was built")

    monkeypatch.setattr(rack_mod, "transposition_rack", never)


class TestRackCommand:
    def test_build_transposition_rack(self, tmp_path, capsys):
        out = tmp_path / "rack.json"
        assert run(["rack", "--n", "4", "--out", str(out)]) == 0
        report = read_json(str(out))
        assert report["rack"]["size"] == 6
        assert report["axioms_ok"] is True
        assert report["indecomposable"] is True
        assert "size 6" in capsys.readouterr().out

    def test_check_file(self, tmp_path):
        out = tmp_path / "rack.json"
        run(["rack", "--n", "3", "--out", str(out)])
        rack_file = tmp_path / "bare.json"
        rack_file.write_text(json.dumps(read_json(str(out))["rack"]))
        assert run(["rack", "--check", str(rack_file)]) == 0

    def test_check_bad_table(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"size": 2, "op": [[0, 0], [0, 1]]}))
        assert run(["rack", "--check", str(bad)]) == 2

    def test_usage_errors(self):
        assert run(["rack"]) == 1
        assert run(["rack", "--n", "1"]) == 1

    def test_large_n_is_a_resource_limit(self, tmp_path, capsys, monkeypatch):
        never_build_rack(monkeypatch)
        out = tmp_path / "rack.json"
        assert run(["rack", "--n", "400", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"resource limit: rack: need --n <= {N_CAP}, got 400\n"
        assert not out.exists()


class TestCocycleCommand:
    def test_build_chi(self, tmp_path):
        out = tmp_path / "chi.json"
        assert run(["cocycle", "--kind", "chi", "--n", "4", "--out", str(out)]) == 0
        report = read_json(str(out))
        assert report["cocycle_ok"] is True
        assert report["cocycle"]["order"] == 2

    def test_build_const(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["cocycle", "--kind", "const:4:3", "--n", "3", "--out", str(out)]) == 0
        assert read_json(str(out))["cocycle"]["order"] == 4

    def test_check_corrupt_cocycle(self, tmp_path):
        out = tmp_path / "chi.json"
        run(["cocycle", "--kind", "chi", "--n", "4", "--out", str(out)])
        payload = read_json(str(out))["cocycle"]
        payload["exp"][2][3] ^= 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        report = tmp_path / "report.json"
        assert run(["cocycle", "--check", str(bad), "--out", str(report)]) == 2
        witness = cocycle_first_failure(cocycle_mod.cocycle_from_dict(payload))
        assert read_json(str(report))["violation"] == {"kind": "not-a-cocycle", "witness": list(witness)}

    def test_check_refuses_a_table_that_is_not_a_rack(self, tmp_path, capsys):
        # the exponents are constant, so only the rack axioms fail: cocycle --check reports what
        # rack --check does, and hilbert refuses the same pair
        rack = {"size": 3, "op": [[1, 2, 0], [0, 1, 2], [0, 1, 2]]}
        (tmp_path / "rack.json").write_text(json.dumps(rack))
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"rack": rack, "order": 2, "exp": [[1, 1, 1]] * 3}))
        out = tmp_path / "r.json"
        assert run(["cocycle", "--check", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().out.endswith("condition FAILED\n  violation: not-self-distributive at (0, 0, 0)\n")
        report = read_json(str(out))
        assert report["violation"] == {"kind": "not-self-distributive", "witness": [0, 0, 0]}
        assert report["cocycle_ok"] is False and report["ok"] is False
        argv = ["hilbert", "--rack", str(tmp_path / "rack.json"), "--cocycle", str(path), "--max-degree", "3"]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("check failed: not-self-distributive at (0, 0, 0): ")

    def test_usage(self):
        assert run(["cocycle"]) == 1
        assert run(["cocycle", "--kind", "chi", "--n", "2"]) == 1
        assert run(["cocycle", "--kind", "nope", "--n", "4"]) == 1

    def test_n_below_two_and_chi_below_three(self, capsys):
        # --n has least 2 in cli.COMMANDS; chi's n >= 3 depends on --kind, so chi_cocycle refuses n = 2
        assert run(["cocycle", "--kind", "-1", "--n", "1"]) == 1
        assert capsys.readouterr() == ("", "error: cocycle: need --n >= 2, got 1\n")
        assert run(["cocycle", "--kind", "chi", "--n", "2"]) == 1
        assert capsys.readouterr() == ("", "error: chi cocycle needs n >= 3, got 2\n")

    @pytest.mark.parametrize("argv", [
        ["cocycle", "--n", "3", "--kind", "const:3:x"],
        ["cocycle", "--n", "3", "--kind", "const:3"],
        ["hilbert", "--rack", "x3", "--cocycle", "const:a:1", "--max-degree", "2"],
        ["hilbert", "--rack", "x3", "--cocycle", "const:3:1:0", "--max-degree", "2"],
    ])
    def test_const_form_needs_two_integers(self, argv, capsys):
        # the message names the flag and the form, not the int() that failed
        flag = "--kind" if argv[0] == "cocycle" else "--cocycle"
        kind = argv[argv.index(flag) + 1]
        assert run(argv) == 1
        want = f"error: {flag}: const form is const:M:E with integers M and E, got {kind!r}\n"
        assert capsys.readouterr().err == want

    def test_order_beyond_int64_sums(self, capsys):
        assert run(["cocycle", "--n", "4", "--kind", "const:3000000000:1"]) == 0
        capsys.readouterr()
        assert run(["cocycle", "--n", "4", "--kind", "const:99999999999999999999:1"]) == 3
        err = capsys.readouterr().err
        assert err == (
            "resource limit: cocycle order 99999999999999999999 > 2^62 is too large for 64-bit exponent sums\n"
        )

    @pytest.mark.parametrize("argv", [
        ["cocycle", "--n", "3", "--kind", "const:2:5"],
        ["cocycle", "--n", "3", "--kind", "const:2:-1"],
        ["cocycle", "--n", "3", "--kind", "const:0:0"],
        ["hilbert", "--rack", "x3", "--cocycle", "const:2:5", "--max-degree", "2"],
        ["hilbert", "--rack", "x3", "--cocycle", "const:2:-1", "--max-degree", "2"],
    ])
    def test_const_exponent_out_of_range_names_its_flag(self, argv, tmp_path, capsys):
        flag = "--kind" if argv[0] == "cocycle" else "--cocycle"
        m, e = argv[argv.index(flag) + 1].split(":")[1:]
        out = tmp_path / "report.json"
        assert run([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {flag}: need m >= 1 and 0 <= e < m, got m={m}, e={e}\n")
        assert not out.exists()

    def test_order_beyond_int64_in_a_file(self, tmp_path, capsys):
        # an exponent of 2^63 overflows int64, so the order is refused before the table is converted;
        # on --rack x4 the file's x3 disagrees too, and the order still comes first
        m = 2**70
        path = tmp_path / "huge.json"
        exp = [[0, 1, 2**63], [0, 0, 0], [m - 1] * 3]
        path.write_text(json.dumps({"rack": rack_mod.rack_to_dict(rack_mod.transposition_rack(3)), "order": m, "exp": exp}))
        hilbert = (["hilbert", "--rack", x, "--cocycle", str(path), "--mode", mode, "--max-degree", "3"]
                   for x in ("x3", "x4") for mode in ("exact", "modular"))
        for argv in (["cocycle", "--check", str(path)], *hilbert):
            out = tmp_path / "report.json"
            assert run([*argv, "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err == f"resource limit: cocycle order {m} > 2^62 is too large for 64-bit exponent sums\n"
            assert not out.exists()


    def test_large_n_is_a_resource_limit(self, tmp_path, capsys, monkeypatch):
        never_build_rack(monkeypatch)
        out = tmp_path / "c.json"
        for kind in ("-1", "chi"):
            assert run(["cocycle", f"--kind={kind}", "--n", "400", "--out", str(out)]) == 3
            assert capsys.readouterr().err == f"resource limit: cocycle: need --n <= {N_CAP}, got 400\n"
        assert not out.exists()


# every command that builds x_n, up to the value of its n
X_N_COMMANDS = [
    ["rack", "--n"],
    ["cocycle", "--kind", "chi", "--n"],
    ["cover", "--n"],
    ["twist-verify", "--n"],
    ["cohomology", "--n"],
    ["selfcheck", "--n-max"],
]


@pytest.mark.parametrize("argv", X_N_COMMANDS, ids=[argv[0] for argv in X_N_COMMANDS])
def test_n_past_the_cap_is_one_resource_limit(tmp_path, capsys, monkeypatch, argv):
    never_build_rack(monkeypatch)
    out = tmp_path / "r.json"
    assert run([*argv, str(N_CAP + 1), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"resource limit: {argv[0]}: need {argv[-1]} <= {N_CAP}, got {N_CAP + 1}\n"
    assert not out.exists()


# (command, flag, keywords) of every flag that COMMANDS gives a range
BOUNDED_FLAGS = [(name, flag, keywords) for name, _, _, flags in cli.COMMANDS for flag, keywords in flags
                 if "least" in keywords or "most" in keywords]


def in_range_argv(command):
    """argv of command that gives each required flag a value in its range: an int its least (or 0), any other 'x'."""
    argv = [command]
    for flag, keywords in next(entry[3] for entry in cli.COMMANDS if entry[0] == command):
        if keywords.get("required"):
            argv += [flag, str(keywords.get("least", 0)) if keywords.get("type") is int else "x"]
    return argv


def replace_handler(monkeypatch, command, handler):
    monkeypatch.setattr(cli, "COMMANDS", tuple(
        (name, handler if name == command else fn, text, flags) for name, fn, text, flags in cli.COMMANDS))


@pytest.mark.parametrize("command, flag, keywords", BOUNDED_FLAGS, ids=[f"{c} {f}" for c, f, _ in BOUNDED_FLAGS])
def test_every_bound_is_decided_before_the_handler(tmp_path, capsys, monkeypatch, command, flag, keywords):
    # one past least is a usage error and one past most a resource limit, each one stderr line and no report;
    # the bounds themselves are in range and reach the handler
    def never(args):
        raise AssertionError(f"{command} ran with {flag} out of range")

    out = tmp_path / "r.json"
    argv = [*in_range_argv(command), "--out", str(out)]
    replace_handler(monkeypatch, command, never)
    if "least" in keywords:
        least = keywords["least"]
        assert run([*argv, flag, str(least - 1)]) == 1
        assert capsys.readouterr() == ("", f"error: {command}: need {flag} >= {least}, got {least - 1}\n")
        assert not out.exists()
    if "most" in keywords:
        most = keywords["most"]
        assert run([*argv, flag, str(most + 1)]) == 3
        assert capsys.readouterr() == ("", f"resource limit: {command}: need {flag} <= {most}, got {most + 1}\n")
        assert not out.exists()
    seen = []
    replace_handler(monkeypatch, command, lambda args: seen.append(getattr(args, flag[2:].replace("-", "_"))) or 0)
    ends = [keywords[end] for end in ("least", "most") if end in keywords]
    for value in ends:
        assert run([*argv, flag, str(value)]) == 0
    assert seen == ends


@pytest.mark.parametrize("argv, message", [
    (["cover", "--n", "3", "--trials", "-1"], "error: cover: need --n >= 4, got 3"),
    (["cover", "--trials", "-1", "--n", "21"], "resource limit: cover: need --n <= 20, got 21"),
    (["hilbert", "--rack", "x3", "--cocycle=-1", "--dim-cap", "0", "--max-degree", "-1"],
     "error: hilbert: need --max-degree >= 0, got -1"),
    (["selfcheck", "--trials", "-1", "--n-max", "1"], "error: selfcheck: need --n-max >= 2, got 1"),
], ids=["cover-least", "cover-most", "hilbert", "selfcheck"])
def test_table_order_decides_between_two_range_errors(capsys, argv, message):
    # the flags are checked in the order COMMANDS lists them, not in the order argv gives them
    assert run(argv) == (3 if message.startswith("resource") else 1)
    assert capsys.readouterr().err == message + "\n"


def test_a_bound_holds_whenever_the_flag_is_given(tmp_path, capsys):
    # rack --check reads no --n, but a given --n is still checked
    path = tmp_path / "rack.json"
    assert run(["rack", "--n", "3", "--out", str(path)]) == 0
    path.write_text(json.dumps(read_json(str(path))["rack"]))
    capsys.readouterr()
    assert run(["rack", "--check", str(path), "--n", "1"]) == 1
    assert capsys.readouterr() == ("", "error: rack: need --n >= 2, got 1\n")


CHI_COMMANDS = [
    ["cocycle", "--kind", "chi", "--n", "4"],
    ["hilbert", "--rack", "x4", "--cocycle", "chi", "--max-degree", "3"],
    ["cohomology", "--n", "4"],
    ["twist-verify", "--n", "4"],
    ["cover", "--n", "4"],
    ["selfcheck", "--n-max", "4"],
]


@pytest.mark.parametrize("argv", CHI_COMMANDS, ids=[argv[0] for argv in CHI_COMMANDS])
def test_broken_chi_table_fails_every_command_that_reads_it(argv, monkeypatch, capsys):
    # one flipped entry of chi on x4 breaks the cocycle condition and the twist identity;
    # hilbert refuses it with one line naming the triple that cocycle --check reports
    chi = chi_cocycle(4)
    exp = [list(row) for row in chi.exp]
    exp[0][1] ^= 1
    broken = RackCocycle(chi.rack, 2, tuple(map(tuple, exp)))
    monkeypatch.setitem(cocycle_mod._CHI_COCYCLES, 4, broken)
    assert run(argv) == 2
    err = capsys.readouterr().err
    if argv[0] == "hilbert":
        witness = check_rack_cocycle(broken)["witness"]
        assert err.count("\n") == 1 and err.startswith(f"check failed: not-a-cocycle at {witness}: ")
    else:
        assert err == ""


COCYCLE_FILE_COMMANDS = {
    "cocycle": ["cocycle", "--check"],
    "hilbert": ["hilbert", "--rack", "x3", "--max-degree", "3", "--mode", "exact", "--cocycle"],
}


def write_cocycle_file(tmp_path, rack_ref):
    """sub/q.json holding -1 on x3, its rack inline, as a path relative to sub/ or as an absolute path."""
    sub = tmp_path / "sub"
    sub.mkdir()
    rack = rack_mod.rack_to_dict(rack_mod.transposition_rack(3))
    (sub / "rack3.json").write_text(json.dumps(rack))
    rack_field = {"inline": rack, "relative": "rack3.json", "absolute": str(sub / "rack3.json")}[rack_ref]
    (sub / "q.json").write_text(json.dumps({"rack": rack_field, "order": 2, "exp": [[1] * 3] * 3}))


@pytest.mark.parametrize("rack_ref", ["inline", "relative", "absolute"])
@pytest.mark.parametrize("command", COCYCLE_FILE_COMMANDS)
def test_cocycle_file_rack_path_is_relative_to_the_file(tmp_path, monkeypatch, capsys, command, rack_ref):
    # run from the parent directory: a relative rack path names sub/rack3.json, not ./rack3.json
    write_cocycle_file(tmp_path, rack_ref)
    monkeypatch.chdir(tmp_path)
    assert run(COCYCLE_FILE_COMMANDS[command] + [os.path.join("sub", "q.json")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", COCYCLE_FILE_COMMANDS)
def test_cocycle_file_with_a_missing_rack_file(tmp_path, monkeypatch, capsys, command):
    write_cocycle_file(tmp_path, "relative")
    (tmp_path / "sub" / "rack3.json").rename(tmp_path / "rack3.json")
    monkeypatch.chdir(tmp_path)
    assert run(COCYCLE_FILE_COMMANDS[command] + [os.path.join("sub", "q.json")]) == 1
    missing = os.path.join("sub", "rack3.json")
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {missing!r}\n"


NOT_JSON_COMMANDS = {
    "rack": ["rack", "--check"],
    "cocycle": ["cocycle", "--check"],
    "hilbert-rack": ["hilbert", "--cocycle=-1", "--max-degree", "2", "--rack"],
    "hilbert-cocycle": ["hilbert", "--rack", "x3", "--max-degree", "2", "--cocycle"],
}


@pytest.mark.parametrize("content, reason", [
    (b"", "Expecting value: line 1 column 1 (char 0)"),
    (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["empty", "not-utf8"])
@pytest.mark.parametrize("argv", NOT_JSON_COMMANDS.values(), ids=NOT_JSON_COMMANDS)
def test_a_file_that_is_not_json_is_named(tmp_path, capsys, argv, content, reason):
    # one line naming the file, with the decoder's reason, and no report
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    out = tmp_path / "report.json"
    assert run([*argv, str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {path} is not JSON: {reason}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", COCYCLE_FILE_COMMANDS)
def test_cocycle_file_whose_rack_file_is_not_json(tmp_path, capsys, command):
    write_cocycle_file(tmp_path, "relative")
    rack = tmp_path / "sub" / "rack3.json"
    rack.write_text("{")
    out = tmp_path / "report.json"
    assert run(COCYCLE_FILE_COMMANDS[command] + [str(tmp_path / "sub" / "q.json"), "--out", str(out)]) == 1
    reason = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    assert capsys.readouterr() == ("", f"error: {rack} is not JSON: {reason}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", CHI_COMMANDS[:3], ids=[argv[0] for argv in CHI_COMMANDS[:3]])
def test_chi_is_checked_once_per_command(argv, monkeypatch, capsys):
    # one scan of the triples (x, y, z) per command, which decides the rack axioms and the cocycle condition
    calls = []
    real = rack_mod._first_failure

    def counting(op, masks):
        calls.append(len(masks))
        return real(op, masks)

    monkeypatch.setattr(rack_mod, "_first_failure", counting)
    assert run(argv) == 0
    assert calls == [2]
    capsys.readouterr()


class TestCoverCommand:
    def test_n4_report(self, tmp_path):
        out = tmp_path / "cover.json"
        assert run(["cover", "--n", "4", "--trials", "50", "--out", str(out)]) == 0
        report = read_json(str(out))
        assert report["presentation_ok"] and report["lemma_general_ok"] and report["main_theorem_ok"]
        assert report["lemma_witness"] is None
        phi = report["phi_restriction"]
        assert phi["order"] == 2
        assert len(phi["phi"]) == 6

    def test_range(self):
        assert run(["cover", "--n", "3"]) == 1
        assert run(["cover", "--n", "21"]) == 3

    def test_negative_trials(self, tmp_path, capsys):
        out = tmp_path / "cover.json"
        assert run(["cover", "--n", "4", "--trials", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: cover: need --trials >= 0, got -1\n"
        assert not out.exists()
        assert run(["cover", "--n", "4", "--trials", "0"]) == 0

    def test_huge_trials_is_a_resource_limit_at_once(self, tmp_path):
        # refused before any word is drawn: the run exits 3 within seconds, with one line and no report
        out = tmp_path / "cover.json"
        args = ["cover", "--n", "4", "--trials", "99999999999999999999", "--out", str(out)]
        done = subprocess.run([sys.executable, "-m", "racktwist", *args], env=child_env(),
                              capture_output=True, text=True, timeout=20)
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr == f"resource limit: cover: need --trials <= {cli.TRIALS_CAP}, got 99999999999999999999\n"
        assert not out.exists()


class TestTwistVerifyCommand:
    def test_n4(self, tmp_path):
        out = tmp_path / "tw.json"
        assert run(["twist-verify", "--n", "4", "--out", str(out)]) == 0
        report = read_json(str(out))
        assert report["pairs_checked"] == 36
        assert report["twist_equals_minus_one"] is True
        assert report["first_failing_pair"] is None
        assert report["twist_condition_witness"] is None

    def test_n9_pair_count(self, tmp_path):
        out = tmp_path / "tw9.json"
        assert run(["twist-verify", "--n", "9", "--out", str(out)]) == 0
        assert read_json(str(out))["pairs_checked"] == 1296

    def test_n3_usage_error(self):
        assert run(["twist-verify", "--n", "3"]) == 1

    def test_n_cap(self, capsys):
        assert run(["twist-verify", "--n", "21"]) == 3
        assert capsys.readouterr().err == "resource limit: twist-verify: need --n <= 20, got 21\n"

    @pytest.mark.parametrize("command", ["twist-verify", "cover"])
    def test_non_unit_bracket_fails_in_one_line(self, tmp_path, capsys, monkeypatch, command):
        # [1 3] = (e_1 - e_3)/sqrt(2) doubled is no unit vector, so no phi bit is decided
        scale_bracket(monkeypatch, 1, 3, 2)
        out = tmp_path / "r.json"
        assert run([command, "--n", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "check failed: [1 3] = [2, 0, -2, 0, 0]/sqrt(2) is not a unit vector\n"
        assert not out.exists()

    def test_flipped_bit_fails_with_its_first_pair(self, tmp_path, capsys, monkeypatch):
        real = GroupCocycleBit.twist_table
        monkeypatch.setattr(GroupCocycleBit, "twist_table", lambda self: flip_phi_bit(real(self), 2, 7))
        out = tmp_path / "tw.json"
        assert run(["twist-verify", "--n", "5", "--out", str(out)]) == 2
        flipped = GroupCocycleBit(5).twist_table()
        first = next(e for e in main_theorem_log(flipped, chi_cocycle(5)) if not e["ok"])
        triple = twist_condition_first_failure(flipped)
        assert triple == (0, 2, 7)
        printed = capsys.readouterr().out
        assert f"  first failing triple: {triple}\n" in printed
        assert f"  first failing pair: {first['sigma']}, {first['tau']}\n" in printed
        report = read_json(str(out))
        assert report["twist_condition_ok"] is False
        assert report["twist_condition_witness"] == list(triple)
        assert report["main_theorem_ok"] is False
        assert report["twist_equals_minus_one"] is False
        assert report["first_failing_pair"] == first
        assert report["ok"] is False


class TestCohomologyCommand:
    def test_n3_gauge_exists(self, tmp_path):
        out = tmp_path / "coh3.json"
        assert run(["cohomology", "--n", "3", "--out", str(out)]) == 0
        report = read_json(str(out))
        assert report["gauge_found"] is True
        assert report["round_trip_ok"] is True
        assert report["exhaustive_search"] == {"performed": True, "found": True}

    def test_n4_verdict_recorded(self, tmp_path):
        out = tmp_path / "coh4.json"
        assert run(["cohomology", "--n", "4", "--out", str(out)]) == 0
        report = read_json(str(out))
        assert report["exhaustive_search"]["performed"] is True
        assert report["gauge_found"] == report["exhaustive_search"]["found"]

    def test_n2_usage_error(self):
        assert run(["cohomology", "--n", "2"]) == 1

    @pytest.mark.parametrize("n", [4, 6])
    def test_failed_round_trip_fails(self, tmp_path, capsys, monkeypatch, n):
        # a planted solver returns the zero gauge, which leaves -1 as it is, not chi; at n = 6 no
        # exhaustive search runs, so the failed round trip alone must fail the run
        def wrong_gauge(q, q2):
            return GaugeFunction(q.rack, q.order, (0,) * q.rack.size)

        monkeypatch.setattr(cocycle_mod, "find_gauge", wrong_gauge)
        out = tmp_path / "coh.json"
        assert run(["cohomology", "--n", str(n), "--out", str(out)]) == 2
        report = read_json(str(out))
        assert report["gauge_found"] is True and report["round_trip_ok"] is False and report["ok"] is False
        assert report["exhaustive_search"] == {"performed": n == 4, "found": False if n == 4 else None}
        assert "gauge-equivalent (round trip FAILED)" in capsys.readouterr().out


class TestHilbertCommand:
    def test_exact_with_closed_form(self, tmp_path):
        out = tmp_path / "h.json"
        code = run(
            [
                "hilbert", "--rack", "x4", "--cocycle", "chi", "--max-degree", "3",
                "--mode", "exact", "--closed-form", "2:2,3:2,4:2", "--out", str(out),
            ]
        )
        assert code == 0
        report = read_json(str(out))["report"]
        assert report["ranks"] == [1, 6, 19, 42]
        assert report["closed_form_verdicts"] == [True] * 4

    @pytest.mark.parametrize("mode", ["modular", "exact"])
    def test_report_keys_and_values(self, tmp_path, mode):
        # the report object whole: the labels of the rack and the cocycle, then what graded_dims returns;
        # closed_form and its verdicts only when a closed form is given (here in exact mode)
        out = tmp_path / "h.json"
        argv = ["hilbert", "--rack", "x3", "--cocycle", "-1", "--max-degree", "3", "--seed", "5", "--mode", mode]
        form = ["--closed-form", "2:2,3:1"] if mode == "exact" else []
        assert run([*argv, *form, "--out", str(out)]) == 0
        rng = random.Random(5)
        p1 = hilbert_mod._draw_prime(rng, 2, set())
        pair = [p1, hilbert_mod._draw_prime(rng, 2, {p1})]
        methods = ["exact"] * 4 if mode == "exact" else ["exact", "exact", hilbert_mod.CERTIFIED, hilbert_mod.CERTIFIED]
        expected = {
            "rack": "x3", "cocycle": "-1", "mode": mode, "seed": 5, "degrees": [0, 1, 2, 3], "ranks": [1, 3, 4, 3],
            "methods": methods, "primes": [[]] * 4 if mode == "exact" else [[], [], pair, pair],
        }
        if form:
            expected.update(closed_form=[[2, 2], [3, 1]], closed_form_verdicts=[True] * 4)
        assert read_json(str(out))["report"] == expected

    def test_closed_form_mismatch_fails(self, tmp_path):
        code = run(
            [
                "hilbert", "--rack", "x3", "--cocycle", "-1", "--max-degree", "2",
                "--mode", "exact", "--closed-form", "2:1",
            ]
        )
        assert code == 2

    def test_minus_one_spelling(self, tmp_path):
        assert run(["hilbert", "--rack", "x3", "--cocycle", "minus1", "--max-degree", "2", "--mode", "exact"]) == 0

    def test_exact_mode_eliminates_block_by_block(self, tmp_path):
        # dimension 10 000 in degree 4, but no orbit is larger than 125
        out = tmp_path / "h.json"
        code = run(["hilbert", "--rack", "x5", "--cocycle", "chi", "--max-degree", "4",
                    "--mode", "exact", "--out", str(out)])
        assert code == 0
        report = read_json(str(out))["report"]
        assert report["ranks"] == [1, 10, 55, 220, 711]
        assert report["methods"] == ["exact"] * 5

    def test_exact_mode_equals_modular_x4_minus_one(self, tmp_path):
        # one block per class of braid orbits in both modes, weighted by class size
        ranks = {}
        for mode in ("exact", "modular"):
            out = tmp_path / f"{mode}.json"
            code = run(["hilbert", "--rack", "x4", "--cocycle=-1", "--max-degree", "5",
                        "--mode", mode, "--out", str(out)])
            assert code == 0
            ranks[mode] = read_json(str(out))["report"]["ranks"]
        assert ranks["exact"] == ranks["modular"] == [1, 6, 19, 42, 71, 96]

    def test_x4_chi_full_series_at_the_default_caps(self, tmp_path):
        # the modular path keeps only the engine's caps: degree 7, past the symmetrizer's cap, and
        # x4's top degree 12 both run, and every rank equals (2)_t^2 (3)_t^2 (4)_t^2
        series = [1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1]
        for max_degree in (7, 12):
            out = tmp_path / f"h{max_degree}.json"
            argv = ["hilbert", "--rack", "x4", "--cocycle", "chi", "--max-degree", str(max_degree)]
            assert run([*argv, "--closed-form", "2:2,3:2,4:2", "--out", str(out)]) == 0
            report = read_json(str(out))["report"]
            assert report["ranks"] == series[: max_degree + 1]
            assert report["closed_form_verdicts"] == [True] * (max_degree + 1)
            assert report["methods"] == ["exact"] * 2 + [hilbert_mod.CERTIFIED] * (max_degree - 1)

    def test_fallback_past_the_symmetrizer_caps_exits_3(self, tmp_path, capsys, monkeypatch):
        # the primes disagree at degree 7, which the symmetrizer cannot build at the default cap:
        # the run names that degree, exits 3 and writes no report
        disagree_at(monkeypatch, 7)
        out = tmp_path / "h.json"
        assert run(["hilbert", "--rack", "x4", "--cocycle", "chi", "--max-degree", "12", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "resource limit: degree 7 needs dimension 279936 > cap 200000\n"
        assert not out.exists()

    def test_dim_cap_flag(self):
        code = run(
            ["hilbert", "--rack", "x4", "--cocycle", "-1", "--max-degree", "3",
             "--mode", "modular", "--dim-cap", "100"]
        )
        assert code == 3

    @pytest.mark.parametrize("argv, message", [
        # x5 -1: the largest Phi_r of degree 7 has side 829
        (["--rack", "x5", "--cocycle=-1", "--max-degree", "7"],
         "degree 7 needs a Phi_r of side 829, 687241 entries > cap 200000"),
        # S_66 = 66! id on the one-element rack, and 66! does not fit in int64
        (["--rack", "x2", "--cocycle", "const:1:0", "--max-degree", "66", "--mode", "exact"],
         "degree 66 has entries up to 66! >= 2^63, too large for int64"),
        (["--rack", "x3", "--cocycle", "const:99999999999999999999:1", "--max-degree", "2"],
         "cocycle order 99999999999999999999 > 2^62 is too large for 64-bit exponent sums"),
        # the k x k rack table is built before the axioms are checked, so the line names it at every degree
        (["--rack", "x40", "--cocycle=-1", "--max-degree", "0"],
         "the 780 x 780 rack table of x40 needs 608400 entries > cap 200000"),
        (["--rack", "x40", "--cocycle=-1", "--max-degree", "1"],
         "the 780 x 780 rack table of x40 needs 608400 entries > cap 200000"),
        (["--rack", "x40", "--cocycle=-1", "--max-degree", "2"],
         "the 780 x 780 rack table of x40 needs 608400 entries > cap 200000"),
    ], ids=["dim-cap", "int64", "order", "rack-table-0", "rack-table-1", "rack-degree-2"])
    def test_caps_fail_before_any_report(self, tmp_path, capsys, argv, message):
        out = tmp_path / "h.json"
        assert run(["hilbert", *argv, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"resource limit: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["exact", "modular"])
    def test_non_cocycle_file_is_refused_before_the_degree_cap(self, tmp_path, capsys, mode):
        # chi on x4 with exp[0][1] flipped; degree 10 needs dimension 6^10 > cap 200000, but the axioms come first
        chi = chi_cocycle(4)
        exp = [list(row) for row in chi.exp]
        exp[0][1] ^= 1
        path = tmp_path / "nonchi.json"
        path.write_text(json.dumps(cocycle_mod.cocycle_to_dict(RackCocycle(chi.rack, 2, tuple(map(tuple, exp))))))
        out = tmp_path / "h.json"
        argv = ["hilbert", "--rack", "x4", "--cocycle", str(path), "--mode", mode, "--max-degree", "10"]
        assert run([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("check failed: not-a-cocycle at (0, 2, 1): ")
        assert not out.exists()

    @pytest.mark.parametrize("rack, max_degree, closed_form", [
        ("x4", "100000", None),
        ("x4", "100000000000000000000", None),
        ("one", "100000000000", None),
        ("one", "100000000000", "2:100000000000"),
    ], ids=["x4-1e5", "x4-1e20", "one-element-1e11", "one-element-1e11-closed-form"])
    def test_huge_degree_is_a_resource_limit_at_once(self, tmp_path, rack, max_degree, closed_form):
        # the degree is bounded before the engine or the closed form runs: each run exits 3 within seconds in 1 GiB
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        if rack == "one":
            rack = tmp_path / "one.json"
            rack.write_text(json.dumps({"size": 1, "op": [[0]]}))
        out = tmp_path / "h.json"
        args = ["hilbert", "--rack", str(rack), "--cocycle=-1", "--max-degree", max_degree, "--out", str(out)]
        args += ["--closed-form", closed_form] if closed_form else []
        done = subprocess.run([sys.executable, "-m", "racktwist", *args], env=child_env(), preexec_fn=limit,
                              capture_output=True, text=True, timeout=20)
        assert done.returncode == 3
        line = f"degree {max_degree} is past degree {hilbert_mod.MAX_DEGREE}, the highest that a report lists"
        assert done.stderr == f"resource limit: {line}\n"
        assert not out.exists()

    def test_transposition_rack_capped_before_it_is_built(self, tmp_path, capsys, monkeypatch):
        # x400 has 79 800 elements; the size of its table follows from n alone
        def never(n):
            raise AssertionError(f"x{n} was built")

        monkeypatch.setattr(rack_mod, "transposition_rack", never)
        out = tmp_path / "h.json"
        assert run(["hilbert", "--rack", "x400", "--cocycle=-1", "--max-degree", "2", "--out", str(out)]) == 3
        table = "the 79800 x 79800 rack table of x400 needs 6368040000 entries"
        assert capsys.readouterr().err == f"resource limit: {table} > cap 200000\n"
        assert not out.exists()

    @pytest.mark.parametrize("max_degree", ["0", "1"])
    def test_rack_table_capped_at_every_degree(self, tmp_path, max_degree):
        # x1000 has 499 500 elements, so its k x k table alone needs GiBs; the run must stop
        # before building it, well inside a 1 GiB address space
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        out = tmp_path / "h.json"
        args = ["hilbert", "--rack", "x1000", "--cocycle=-1", "--max-degree", max_degree, "--out", str(out)]
        done = subprocess.run([sys.executable, "-m", "racktwist", *args], env=child_env(), preexec_fn=limit,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 3
        table = "the 499500 x 499500 rack table of x1000 needs 249500250000 entries"
        assert done.stderr == f"resource limit: {table} > cap 200000\n"
        assert "Traceback" not in done.stderr
        assert not out.exists()

    def test_rack_table_within_the_cap_at_degree_one(self, monkeypatch, capsys):
        # x40 has k^2 = 608 400 table entries: over the default cap, within a raised one
        argv = ["hilbert", "--rack", "x40", "--cocycle=-1", "--max-degree", "1"]
        real = rack_mod.transposition_rack
        never_build_rack(monkeypatch)
        assert run(argv) == 3
        table = "the 780 x 780 rack table of x40 needs 608400 entries"
        assert capsys.readouterr().err == f"resource limit: {table} > cap 200000\n"
        monkeypatch.setattr(rack_mod, "transposition_rack", real)
        assert run([*argv, "--dim-cap", "608400"]) == 0
        assert capsys.readouterr().out.startswith("hilbert x40 / -1 (mode modular): ranks [1, 780]")

    @pytest.mark.parametrize("max_degree", ["1", "4"])
    def test_non_bijective_rack_row_fails_the_check(self, tmp_path, capsys, max_degree):
        # the violation that rack --check reports for the same table, as one line with exit 2,
        # also where no degree is assembled
        rack_file = tmp_path / "rack.json"
        rack_file.write_text(json.dumps({"size": 3, "op": [[0, 0, 1], [1, 1, 1], [2, 2, 2]]}))
        out = tmp_path / "h.json"
        args = ["hilbert", "--rack", str(rack_file), "--cocycle=-1", "--max-degree", max_degree, "--out", str(out)]
        done = subprocess.run([sys.executable, "-m", "racktwist", *args], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.count("\n") == 1 and done.stderr.startswith("check failed: non-bijective-row at (0,): ")
        assert not out.exists()
        assert run(["rack", "--check", str(rack_file)]) == 2
        assert "violation: non-bijective-row at (0,)" in capsys.readouterr().out

    def test_cocycle_file_input(self, tmp_path):
        cpath = tmp_path / "chi.json"
        run(["cocycle", "--kind", "chi", "--n", "3", "--out", str(cpath)])
        cocycle_file = tmp_path / "bare.json"
        cocycle_file.write_text(json.dumps(read_json(str(cpath))["cocycle"]))
        out = tmp_path / "h.json"
        code = run(
            ["hilbert", "--rack", "x3", "--cocycle", str(cocycle_file), "--max-degree", "3",
             "--mode", "exact", "--out", str(out)]
        )
        assert code == 0
        assert read_json(str(out))["report"]["ranks"] == [1, 3, 4, 3]

    def test_disagreeing_primes_fail(self, tmp_path, monkeypatch):
        # the primes of the recursion are made to disagree at degree 2; the degree
        # falls back to the rank proven over Q(zeta_3), and the run exits 0
        p1 = hilbert_mod._draw_prime(random.Random(0), 3, set())
        disagree_at(monkeypatch, 2)
        out = tmp_path / "h.json"
        code = run(["hilbert", "--rack", "x3", "--cocycle", "const:3:1", "--max-degree", "2", "--out", str(out)])
        assert code == 0
        report = read_json(str(out))
        assert report["ok"] is True
        assert report["report"]["ranks"] == [1, 3, 9]
        assert report["report"]["methods"][2] == "exact (fallback after modular disagreement)"
        assert report["report"]["primes"][2][0] == p1 and len(set(report["report"]["primes"][2])) == 2

    @pytest.mark.parametrize("form", ["2:-1,3:0", "3:0", "0:1"])
    def test_closed_form_factor_below_one(self, tmp_path, capsys, form):
        out = tmp_path / "h.json"
        code = run(["hilbert", "--rack", "x3", "--cocycle", "-1", "--max-degree", "2",
                    "--closed-form", form, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "closed-form factor" in err
        assert not out.exists()

    def test_empty_closed_form_is_a_usage_error(self, tmp_path, capsys):
        # an empty --closed-form= names one empty factor, refused like any other bad factor
        out = tmp_path / "h.json"
        argv = ["hilbert", "--rack", "x3", "--cocycle", "-1", "--max-degree", "2", "--closed-form=", "--out", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr() == ("", "error: hilbert: bad closed-form factor '' (use M:MULT,...)\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--rack", "x3", "--cocycle", "const:99999999999999999999:1", "--max-degree", "-1"],
         "hilbert: need --max-degree >= 0, got -1"),
        (["--rack", "x3", "--cocycle", "const:99999999999999999999:1", "--max-degree", "2", "--closed-form", "2:x"],
         "hilbert: bad closed-form factor '2:x' (use M:MULT,...)"),
        (["--rack", "x3", "--cocycle", "const:99999999999999999999:1", "--max-degree", "2", "--closed-form", "0:1"],
         "closed-form factor 0:1 needs M >= 1 and MULT >= 1"),
        (["--rack", "x40", "--cocycle=-1", "--max-degree", "-1"], "hilbert: need --max-degree >= 0, got -1"),
    ], ids=["huge-order-negative-degree", "huge-order-bad-factor", "huge-order-factor-zero", "x40-negative-degree"])
    def test_usage_errors_come_before_resource_caps(self, tmp_path, capsys, argv, message):
        # an order past 2^62 and the x40 table are resource limits, but a bad flag is decided first
        out = tmp_path / "h.json"
        assert run(["hilbert", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unknown_rack_and_cocycle(self):
        assert run(["hilbert", "--rack", "y4", "--cocycle", "-1", "--max-degree", "2", "--mode", "exact"]) == 1
        assert run(["hilbert", "--rack", "x3", "--cocycle", "zeta", "--max-degree", "2", "--mode", "exact"]) == 1


class TestSelfcheckCommand:
    def test_passes(self, tmp_path):
        out = tmp_path / "sc.json"
        assert run(["selfcheck", "--n-max", "4", "--trials", "50", "--out", str(out)]) == 0
        report = read_json(str(out))
        assert report["ok"] is True
        names = [c["name"] for c in report["checks"]]
        assert "presentation n=4" in names
        assert "twist condition n=4" in names
        assert "rack cocycle -1 on x4" in names

    def test_fault_injection_fails(self, capsys):
        assert run(["selfcheck", "--n-max", "3", "--inject-fault", "generator"]) == 2
        assert "first failing check: presentation n=2" in capsys.readouterr().out

    def test_fault_injection_fails_every_presentation_up_to_the_cap(self, tmp_path):
        # doubled generator vectors break t_i^2 = 1 at every n; no other check reads them
        out = tmp_path / "sc.json"
        assert run(["selfcheck", "--n-max", str(N_CAP), "--trials", "0", "--inject-fault", "generator", "--out", str(out)]) == 2
        checks = read_json(str(out))["checks"]
        failed = [c["name"] for c in checks if not c["ok"]]
        assert failed == [f"presentation n={n}" for n in range(2, N_CAP + 1)]
        # each failing entry names its first failing relation, t_1^2 = 1; passing entries carry nothing more
        for c in checks:
            assert c == {"name": c["name"], "ok": False, "relation_witness": {"relation": "square", "letters": [1]}} \
                if not c["ok"] else set(c) == {"name", "ok"}

    def test_rack_cocycle_failure_carries_its_axiom_violation(self, tmp_path, monkeypatch):
        # chi on x3 with one flipped exponent is no 2-cocycle; the entry names the kind and the
        # first failing triple as rack --check and cocycle --check do
        real = cli.cocycle_mod.chi_cocycle

        def flipped(n):
            q = real(n)
            exp = [list(row) for row in q.exp]
            exp[0][1] ^= 1
            return RackCocycle(q.rack, 2, tuple(map(tuple, exp)))

        monkeypatch.setattr(cli.cocycle_mod, "chi_cocycle", flipped)
        out = tmp_path / "sc.json"
        assert run(["selfcheck", "--n-max", "3", "--trials", "0", "--out", str(out)]) == 2
        checks = read_json(str(out))["checks"]
        violation = check_rack_cocycle(flipped(3))
        assert violation["kind"] == "not-a-cocycle" and violation["witness"] is not None
        # the report holds the witness tuple as a JSON list
        violation = {**violation, "witness": list(violation["witness"])}
        entry = {"name": "rack cocycle chi on x3", "ok": False, "axiom_violation": violation}
        assert [c for c in checks if not c["ok"]] == [entry]

    def test_twist_condition_failure_carries_its_triple(self, tmp_path, monkeypatch):
        # one flipped bit of the twist table breaks the twist condition, and the main theorem with it;
        # the entry names the first failing triple as twist-verify does
        real = GroupCocycleBit.twist_table
        monkeypatch.setattr(GroupCocycleBit, "twist_table", lambda self: flip_phi_bit(real(self), 2, 3))
        out = tmp_path / "sc.json"
        assert run(["selfcheck", "--n-max", "4", "--trials", "0", "--out", str(out)]) == 2
        checks = read_json(str(out))["checks"]
        triple = check_twist_condition(GroupCocycleBit(4).twist_table())
        assert triple is not None
        entry = {"name": "twist condition n=4", "ok": False, "twist_condition_witness": list(triple)}
        assert [c for c in checks if not c["ok"]] == [
            {"name": "main theorem n=4", "ok": False, "first_failing_pair": verify_main_theorem(4)},
            entry,
        ]

    def test_crashed_check_fails_and_later_checks_still_run(self, tmp_path, monkeypatch, capsys):
        # a check that raises is a failed entry that carries the message, and the run goes on
        def crashed(gc):
            raise SectionConsistencyError(f"planted at n={gc.n}")

        monkeypatch.setattr(spincover, "verify_group_cocycle", crashed)
        out = tmp_path / "sc.json"
        assert run(["selfcheck", "--n-max", "4", "--trials", "0", "--out", str(out)]) == 2
        report = read_json(str(out))
        assert report["ok"] is False
        checks = report["checks"]
        assert [c for c in checks if not c["ok"]] == [
            {"name": f"group cocycle exhaustive n={n}", "ok": False, "error": f"planted at n={n}"} for n in (3, 4)
        ]
        names = [c["name"] for c in checks]
        later = names[names.index("group cocycle exhaustive n=4") + 1:]
        assert later == ["main theorem n=4", "twist condition n=4", "rack cocycle chi on x3", "rack cocycle -1 on x3",
                         "rack cocycle chi on x4", "rack cocycle -1 on x4"]
        assert "first failing check: group cocycle exhaustive n=3" in capsys.readouterr().out

    def test_names_at_n_max_4_are_the_benchmarks_twelve(self, tmp_path):
        # the benchmark's selfcheck-n4 workload counts these entries
        out = tmp_path / "sc.json"
        assert run(["selfcheck", "--n-max", "4", "--seed", "1", "--out", str(out)]) == 0
        assert [c["name"] for c in read_json(str(out))["checks"]] == [
            "presentation n=2", "presentation n=3", "presentation n=4",
            "conjugation lemmas n=4",
            "group cocycle exhaustive n=3", "group cocycle exhaustive n=4",
            "main theorem n=4", "twist condition n=4",
            "rack cocycle chi on x3", "rack cocycle -1 on x3", "rack cocycle chi on x4", "rack cocycle -1 on x4",
        ]

    def test_range(self):
        assert run(["selfcheck", "--n-max", "1"]) == 1

    def test_negative_trials(self, tmp_path, capsys):
        out = tmp_path / "sc.json"
        assert run(["selfcheck", "--n-max", "4", "--trials", "-5", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: selfcheck: need --trials >= 0, got -5\n"
        assert not out.exists()


class TestDeterminism:
    def test_selfcheck_reports_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["selfcheck", "--n-max", "3", "--trials", "20", "--seed", "5", "--out", str(a)])
        run(["selfcheck", "--n-max", "3", "--trials", "20", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_hilbert_reports_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["hilbert", "--rack", "x4", "--cocycle", "chi", "--max-degree", "3",
                "--mode", "modular", "--seed", "77"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


# every report echoes the same six keys in "config", null where its command has no such parameter
UNSET = dict.fromkeys(("n", "max_degree", "mode", "seed", "dim_cap"))
GOLDEN_CONFIGS = {
    "rack": (["rack", "--n", "3"], {"n": 3}),
    "cocycle": (["cocycle", "--kind", "chi", "--n", "3"], {"n": 3}),
    "cover": (["cover", "--n", "4", "--trials", "5", "--seed", "2"], {"n": 4, "seed": 2}),
    "twist-verify": (["twist-verify", "--n", "4"], {"n": 4}),
    "cohomology": (["cohomology", "--n", "3"], {"n": 3}),
    "hilbert": (["hilbert", "--rack", "x3", "--cocycle", "chi", "--max-degree", "2", "--mode", "exact", "--seed", "4"],
                {"max_degree": 2, "mode": "exact", "seed": 4, "dim_cap": 200_000}),
    "hilbert-dim-cap": (["hilbert", "--rack", "x3", "--cocycle", "-1", "--max-degree", "2", "--dim-cap", "500"],
                        {"max_degree": 2, "mode": "modular", "seed": 0, "dim_cap": 500}),
    "selfcheck": (["selfcheck", "--n-max", "3", "--trials", "5", "--seed", "6"], {"n": 3, "seed": 6}),
}


@pytest.mark.parametrize("argv, config", GOLDEN_CONFIGS.values(), ids=GOLDEN_CONFIGS)
def test_report_config_is_golden(tmp_path, argv, config):
    out = tmp_path / "r.json"
    assert run(argv + ["--out", str(out)]) == 0
    assert read_json(str(out))["config"] == {"subcommand": argv[0], **UNSET, **config}


class TestParser:
    def test_unknown_subcommand_is_usage_error(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert run(["cover"]) == 1

    # at least one argv per subcommand, with every option of it somewhere, and the namespace it parses to
    ARGVS = [
        (["rack", "--n", "4", "--out", "r.json"], {"n": 4, "check": None, "out": "r.json"}),
        (["rack", "--check", "rack.json"], {"n": None, "check": "rack.json", "out": None}),
        (["cocycle", "--kind", "chi", "--n", "4"], {"n": 4, "kind": "chi", "check": None, "out": None}),
        (["cocycle", "--check", "c.json", "--out", "o.json"], {"n": None, "kind": None, "check": "c.json", "out": "o.json"}),
        (["cover", "--n", "5"], {"n": 5, "trials": 1000, "seed": 0, "out": None}),
        (["cover", "--n", "5", "--trials", "3", "--seed", "2", "--out", "o.json"],
         {"n": 5, "trials": 3, "seed": 2, "out": "o.json"}),
        (["twist-verify", "--n", "8"], {"n": 8, "out": None}),
        (["twist-verify", "--n", "8", "--out", "o.json"], {"n": 8, "out": "o.json"}),
        (["cohomology", "--n", "4", "--out", "o.json"], {"n": 4, "out": "o.json"}),
        (["hilbert", "--rack", "x3", "--cocycle", "chi", "--max-degree", "2"],
         {"rack": "x3", "cocycle": "chi", "max_degree": 2, "mode": "modular", "seed": 0, "dim_cap": None,
          "closed_form": None, "out": None}),
        (["hilbert", "--rack", "x4", "--cocycle=-1", "--max-degree", "3", "--mode", "exact", "--seed", "4",
          "--dim-cap", "10", "--closed-form", "2:2", "--out", "o.json"],
         {"rack": "x4", "cocycle": "-1", "max_degree": 3, "mode": "exact", "seed": 4, "dim_cap": 10,
          "closed_form": "2:2", "out": "o.json"}),
        (["selfcheck"], {"n_max": 6, "trials": 200, "seed": 0, "inject_fault": None, "out": None}),
        (["selfcheck", "--n-max", "4", "--trials", "5", "--seed", "1", "--inject-fault", "generator", "--out", "o.json"],
         {"n_max": 4, "trials": 5, "seed": 1, "inject_fault": "generator", "out": "o.json"}),
    ]

    @pytest.mark.parametrize("argv, values", ARGVS, ids=[" ".join(argv) for argv, _ in ARGVS])
    def test_parses_every_flag(self, argv, values):
        got = cli.parse_args(argv)
        handler = cli.COMMANDS[[name for name, *_ in cli.COMMANDS].index(argv[0])][1]
        assert vars(got) == {"subcommand": argv[0], "fn": handler, **values}

    def test_defaults(self):
        parse = cli.parse_args
        assert vars(parse(["cover", "--n", "5"])) == {
            "subcommand": "cover", "n": 5, "trials": 1000, "seed": 0, "out": None, "fn": cli.cmd_cover}
        assert vars(parse(["selfcheck"])) == {
            "subcommand": "selfcheck", "n_max": 6, "trials": 200, "seed": 0, "inject_fault": None, "out": None,
            "fn": cli.cmd_selfcheck}
        assert vars(parse(["hilbert", "--rack", "x3", "--cocycle", "chi", "--max-degree", "2"])) == {
            "subcommand": "hilbert", "rack": "x3", "cocycle": "chi", "max_degree": 2, "mode": "modular", "seed": 0,
            "dim_cap": None, "closed_form": None, "out": None, "fn": cli.cmd_hilbert}

    HILBERT = ["hilbert", "--rack", "x3", "--cocycle", "chi", "--max-degree", "2"]

    @pytest.mark.parametrize("argv, attr, value", [
        # a flag takes the next entry or its inline value after '='
        (["twist-verify", "--n", "5"], "n", 5),
        (["twist-verify", "--n=5"], "n", 5),
        (["cover", "--n", "5", "--trials=7"], "trials", 7),
        (["hilbert", "--rack=x3", "--cocycle=chi", "--max-degree=2"], "max_degree", 2),
        # a negative number is a value, not a flag
        (["hilbert", "--rack", "x3", "--cocycle", "-1", "--max-degree", "2"], "cocycle", "-1"),
        (["selfcheck", "--seed", "-3"], "seed", -3),
        (["cover", "--n", "5", "--seed=-7"], "seed", -7),
        # the last of a repeated flag wins
        (["twist-verify", "--n", "4", "--n", "5"], "n", 5),
        (["twist-verify", "--n=4", "--n", "6"], "n", 6),
        ([*HILBERT, "--mode", "exact", "--mode", "modular"], "mode", "modular"),
        # a unique prefix of a long flag names it
        (["selfcheck", "--n-m", "3"], "n_max", 3),
        (["selfcheck", "--n", "4"], "n_max", 4),
        (["selfcheck", "--t", "5"], "trials", 5),
        ([*HILBERT, "--cl=2:2"], "closed_form", "2:2"),
        (["selfcheck", "--inj", "generator"], "inject_fault", "generator"),
        # int() reads the value
        (["twist-verify", "--n", "+8"], "n", 8),
        (["twist-verify", "--n", "08"], "n", 8),
        (["twist-verify", "--n", " 8 "], "n", 8),
        (["twist-verify", "--n", "8_0"], "n", 80),
        # '-' alone, and an unknown word with a space, are values
        (["twist-verify", "--n", "4", "--out", "-"], "out", "-"),
        (["rack", "--check", "-a b"], "check", "-a b"),
    ])
    def test_flag_spellings(self, argv, attr, value):
        assert getattr(cli.parse_args(argv), attr) == value

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"], ["-h", "rack"]])
    def test_top_level_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        out = capsys.readouterr()
        assert out.err == "" and out.out == cli.usage(full=True) + "\n"
        assert out.out.startswith("usage: racktwist [-h]\n")

    @pytest.mark.parametrize("argv", [
        ["twist-verify", "-h"], ["twist-verify", "--help"], ["twist-verify", "--n", "4", "--help"],
        ["twist-verify", "--h"], ["twist-verify", "--help", "--n", "x"], ["twist-verify", "--bogus", "-h"],
    ])
    def test_command_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == (
            "usage: racktwist twist-verify [-h] --n N [--out OUT]\n\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --n N\n"
            "  --out OUT   write the report JSON here\n"
        )

    def test_help_wraps_usage_and_flags(self, capsys):
        with pytest.raises(SystemExit):
            run(["hilbert", "--help"])
        assert capsys.readouterr().out == (
            "usage: racktwist hilbert [-h] --rack RACK --cocycle COCYCLE --max-degree\n"
            "                         MAX_DEGREE [--mode {exact,modular}] [--seed SEED]\n"
            "                         [--dim-cap DIM_CAP] [--closed-form CLOSED_FORM]\n"
            "                         [--out OUT]\n\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --rack RACK           xN or a rack JSON file\n"
            "  --cocycle COCYCLE     chi | -1 | minus1 | const:M:E | file\n"
            "  --max-degree MAX_DEGREE\n"
            "  --mode {exact,modular}\n"
            "  --seed SEED\n"
            "  --dim-cap DIM_CAP     bound on what a run builds (default 200000): the k x k\n"
            "                        table of xN; |Q| k and each Phi_r's side^2 modular;\n"
            "                        k^degree exact or at a fallback\n"
            "  --closed-form CLOSED_FORM\n"
            "                        compare ranks against prod (M)_t^MULT, as\n"
            "                        M:MULT,M:MULT,...\n"
            "  --out OUT             write the report JSON here\n"
        )

    def test_hidden_flag_is_accepted_but_not_listed(self, capsys):
        assert cli.parse_args(["selfcheck", "--inject-fault", "generator"]).inject_fault == "generator"
        with pytest.raises(SystemExit):
            run(["selfcheck", "--help"])
        printed = capsys.readouterr().out
        assert "--trials TRIALS" in printed and "inject" not in printed

    @pytest.mark.parametrize("argv, command, says", [
        ([], None, "the following arguments are required: subcommand"),
        (["frobnicate"], None, "argument subcommand: invalid choice: 'frobnicate' (choose from "
                               "'rack', 'cocycle', 'cover', 'twist-verify', 'cohomology', 'hilbert', 'selfcheck')"),
        (["twist-verify"], "twist-verify", "the following arguments are required: --n"),
        (["twist-verify", "--n", "5", "--bogus"], None, "unrecognized arguments: --bogus"),
        (["twist-verify", "--n", "x"], "twist-verify", "argument --n: invalid int value: 'x'"),
        (["twist-verify", "--n", "1e3"], "twist-verify", "argument --n: invalid int value: '1e3'"),
        (["twist-verify", "--n="], "twist-verify", "argument --n: invalid int value: ''"),
        ([*HILBERT, "--mode", "fast"], "hilbert",
         "argument --mode: invalid choice: 'fast' (choose from 'exact', 'modular')"),
        (["selfcheck", "--inject-fault", "x"], "selfcheck",
         "argument --inject-fault: invalid choice: 'x' (choose from 'generator')"),
        (["twist-verify", "--n"], "twist-verify", "argument --n: expected one argument"),
        (["twist-verify", "--n", "--out", "o"], "twist-verify", "argument --n: expected one argument"),
        (["twist-verify", "--n", "-x"], "twist-verify", "argument --n: expected one argument"),
        (["twist-verify", "--n", "--"], "twist-verify", "argument --n: expected one argument"),
        (["hilbert"], "hilbert", "the following arguments are required: --rack, --cocycle, --max-degree"),
        (["hilbert", "--cocycle", "-1"], "hilbert", "the following arguments are required: --rack, --max-degree"),
        (["twist-verify", "--n", "4", "extra"], None, "unrecognized arguments: extra"),
        (["twist-verify", "extra", "--n", "4", "--bogus=5", "-1"], None, "unrecognized arguments: extra --bogus=5 -1"),
        (["twist-verify", "--n", "4", "--", "x"], None, "unrecognized arguments: -- x"),
        (["twist-verify", "--", "--n", "4"], "twist-verify", "the following arguments are required: --n"),
        (["-x", "twist-verify", "--n", "4"], None, "unrecognized arguments: -x"),
        ([*HILBERT, "--c", "x"], "hilbert", "ambiguous option: --c could match --cocycle, --closed-form"),
        (["hilbert", "--m=2", "-h"], "hilbert", "ambiguous option: --m=2 could match --max-degree, --mode"),
        (["twist-verify", "--help=x"], "twist-verify", "argument -h/--help: ignored explicit argument 'x'"),
        (["-hx"], None, "argument -h/--help: ignored explicit argument 'x'"),
    ])
    def test_usage_errors_keep_their_wording(self, capsys, argv, command, says):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: racktwist")
        assert err == f"{cli.usage(command)}\nerror: {says}\n"

    def test_usage_lines(self):
        assert cli.usage() == (
            "usage: racktwist [-h]\n"
            "                 {rack,cocycle,cover,twist-verify,cohomology,hilbert,selfcheck}\n"
            "                 ..."
        )
        assert cli.usage("selfcheck") == (
            "usage: racktwist selfcheck [-h] [--n-max N_MAX] [--trials TRIALS]\n"
            "                           [--seed SEED] [--out OUT]"
        )
        assert cli.usage("rack") == "usage: racktwist rack [-h] [--n N] [--check FILE] [--out OUT]"

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        printed = capsys.readouterr().out
        assert len(cli.COMMANDS) == 7
        for name, _, help_text, _ in cli.COMMANDS:
            assert f"\n    {name}" in printed and help_text in printed


def child_env():
    """The environment of a fresh interpreter that imports racktwist from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_child(code):
    """Standard output of `python -c code` in a fresh interpreter (child_env)."""
    return subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
                          check=True).stdout


def test_cli_import_does_not_load_scipy():
    code = "import sys, racktwist.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    assert run_child(code).strip() == "[]"


def test_cli_import_does_not_load_dataclasses_or_copy():
    # @dataclass compiles its methods with exec at import, about 1 ms per class
    # on every CLI start, and dataclasses imports copy
    code = "import sys, racktwist.cli; print(sorted({'dataclasses', 'copy'} & set(sys.modules)))"
    assert run_child(code).strip() == "[]"


def test_hilbert_run_does_not_load_numpy_ma():
    # np.unique and its kin import numpy.ma on first use, which costs about
    # 16 ms of every cold CLI run
    code = ("import sys; from racktwist.cli import main; "
            "main(['hilbert', '--rack', 'x4', '--cocycle', 'chi', '--max-degree', '4']); "
            "print('numpy.ma' in sys.modules)")
    assert run_child(code).splitlines()[-1] == "False"


@pytest.mark.parametrize("argv", [["twist-verify", "--n", "8"], ["selfcheck", "--n-max", "4"]])
def test_spin_cover_runs_do_not_load_numpy_ma(argv):
    code = f"import sys; from racktwist.cli import main; main({argv!r}); print('numpy.ma' in sys.modules)"
    assert run_child(code).splitlines()[-1] == "False"


def test_cli_import_does_not_load_the_exact_path():
    # the k^d proven-rank path is compiled only by a run that proves a degree
    assert run_child("import sys, racktwist.cli; print('racktwist.exact' in sys.modules)").strip() == "False"


def test_a_run_does_not_load_argparse_gettext_or_locale(tmp_path):
    # the parser reads COMMANDS itself: argparse and gettext cost about 3.5 ms of every CLI start,
    # and gettext's first lookup imports locale, about 2 ms more
    out = tmp_path / "t.json"
    code = ("import sys; from racktwist import cli; "
            f"rc = cli.main(['twist-verify', '--n', '4', '--out', {str(out)!r}]); "
            "print(rc, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    assert run_child(code).splitlines()[-1] == "0 []"
    assert read_json(str(out))["ok"] is True


HILBERT_X4_D5 = ["hilbert", "--rack", "x4", "--cocycle", "chi", "--max-degree", "5"]


@pytest.mark.parametrize("argv, loaded", [
    (HILBERT_X4_D5, False),
    (["twist-verify", "--n", "4"], False),
    (["selfcheck", "--n-max", "3"], False),
    (HILBERT_X4_D5 + ["--mode", "exact"], True),
], ids=["hilbert-modular", "twist-verify", "selfcheck", "hilbert-exact"])
def test_only_proven_runs_load_the_exact_path(argv, loaded):
    code = f"import sys; from racktwist.cli import main; print(main({argv!r}), 'racktwist.exact' in sys.modules)"
    assert run_child(code).splitlines()[-1] == f"0 {loaded}"


def test_hilbert_memory_does_not_grow_with_the_order(tmp_path):
    # order 2^20 on x3: every structure grows with the entries, not with the
    # order, so the run fits a 1 GiB address space and a minute
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    out = tmp_path / "h.json"
    args = ["hilbert", "--rack", "x3", "--cocycle", "const:1048576:1", "--max-degree", "5", "--out", str(out)]
    done = subprocess.run([sys.executable, "-m", "racktwist", *args], env=child_env(), preexec_fn=limit,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert read_json(str(out))["report"]["ranks"][:4] == [1, 3, 9, 27]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [["--help"], ["selfcheck", "--n-max", "4"]], ids=["help", "selfcheck"])
def test_a_closed_stdout_exits_141_in_silence(args, unbuffered):
    # the read end of the child's stdout is closed before the child starts, so its first write to the pipe fails
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "racktwist", *args], env=env, stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, "")


def test_dump_matrices_is_a_usage_error(tmp_path):
    # the symmetrizer dump was removed: the flag is an unknown argument like any other
    dump = tmp_path / "mats"
    args = ["hilbert", "--rack", "x3", "--cocycle=-1", "--max-degree", "3", "--dump-matrices", str(dump)]
    done = subprocess.run([sys.executable, "-m", "racktwist", *args], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("usage: racktwist ")
    assert done.stderr.endswith(f"\nerror: unrecognized arguments: --dump-matrices {dump}\n")
    assert "Traceback" not in done.stderr
    assert not dump.exists()
