import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from racktwist import braided as braided_mod
from racktwist import hilbert as hilbert_mod
from racktwist.cli import main


def run(argv):
    return main(argv)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


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
        assert run(["cocycle", "--check", str(bad)]) == 2

    def test_usage(self):
        assert run(["cocycle"]) == 1
        assert run(["cocycle", "--kind", "chi", "--n", "2"]) == 1
        assert run(["cocycle", "--kind", "nope", "--n", "4"]) == 1

    def test_order_beyond_int64_sums(self, capsys):
        assert run(["cocycle", "--n", "4", "--kind", "const:3000000000:1"]) == 0
        capsys.readouterr()
        assert run(["cocycle", "--n", "4", "--kind", "const:99999999999999999999:1"]) == 3
        err = capsys.readouterr().err
        assert err == (
            "resource limit: cocycle order 99999999999999999999 > 2^62 is too large for 64-bit exponent sums\n"
        )


class TestCoverCommand:
    def test_n4_report(self, tmp_path):
        out = tmp_path / "cover.json"
        assert run(["cover", "--n", "4", "--trials", "50", "--out", str(out)]) == 0
        report = read_json(str(out))
        assert report["presentation_ok"] and report["lemma_general_ok"] and report["main_theorem_ok"]
        phi = report["phi_restriction"]
        assert phi["order"] == 2
        assert len(phi["phi"]) == 6

    def test_range(self):
        assert run(["cover", "--n", "3"]) == 1
        assert run(["cover", "--n", "13"]) == 1

    def test_negative_trials(self, tmp_path, capsys):
        out = tmp_path / "cover.json"
        assert run(["cover", "--n", "4", "--trials", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: cover: need --trials >= 0, got -1\n"
        assert not out.exists()
        assert run(["cover", "--n", "4", "--trials", "0"]) == 0


class TestTwistVerifyCommand:
    def test_n4(self, tmp_path):
        out = tmp_path / "tw.json"
        assert run(["twist-verify", "--n", "4", "--out", str(out)]) == 0
        report = read_json(str(out))
        assert report["pairs_checked"] == 36
        assert report["twist_equals_minus_one"] is True
        assert report["first_failing_pair"] is None

    def test_n9_pair_count(self, tmp_path):
        out = tmp_path / "tw9.json"
        assert run(["twist-verify", "--n", "9", "--out", str(out)]) == 0
        assert read_json(str(out))["pairs_checked"] == 1296

    def test_n3_usage_error(self):
        assert run(["twist-verify", "--n", "3"]) == 1


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

    def test_dim_cap_flag(self):
        code = run(
            ["hilbert", "--rack", "x4", "--cocycle", "-1", "--max-degree", "3",
             "--mode", "modular", "--dim-cap", "100"]
        )
        assert code == 3

    @pytest.mark.parametrize("argv, message", [
        (["--rack", "x4", "--cocycle", "chi", "--max-degree", "7"],
         "degree 7 needs dimension 279936 > cap 200000"),
        # S_66 = 66! id on the one-element rack, and 66! does not fit in int64
        (["--rack", "x2", "--cocycle", "const:1:0", "--max-degree", "66", "--mode", "exact"],
         "degree 66 has entries up to 66! >= 2^63, too large for int64"),
        (["--rack", "x3", "--cocycle", "const:99999999999999999999:1", "--max-degree", "2"],
         "cocycle order 99999999999999999999 > 2^62 is too large for 64-bit exponent sums"),
    ], ids=["dim-cap", "int64", "order"])
    def test_caps_fail_before_any_report(self, tmp_path, capsys, argv, message):
        out = tmp_path / "h.json"
        assert run(["hilbert", *argv, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"resource limit: {message}\n"
        assert not out.exists()

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

    def test_dump_matrices(self, tmp_path):
        dump = tmp_path / "mats"
        code = run(
            ["hilbert", "--rack", "x3", "--cocycle", "-1", "--max-degree", "3",
             "--mode", "exact", "--dump-matrices", str(dump)]
        )
        assert code == 0
        files = sorted(p.name for p in dump.iterdir())
        assert files == ["symmetrizer_deg2.txt", "symmetrizer_deg3.txt"]
        header = json.loads((dump / "symmetrizer_deg2.txt").read_text().splitlines()[0])
        assert header["degree"] == 2 and header["m"] == 2

    # sha256 of the dump files; the text format is an interface for other tools
    DUMP_DIGESTS = {
        ("const:4:3", "modular"): {
            "symmetrizer_deg2.txt": "8cd2da76d43d175a688c35b7385964e004cb355ac2382614bb6e83f42d3f04eb",
            "symmetrizer_deg3.txt": "880cd6d851aebc23b041b6965ae6a23291c595cc13b3245f79c869406a92ac91",
            "symmetrizer_deg4.txt": "9b59c578d3d8732310456ffc35365f68e8336ee291c4796d0daa5bec1a768985",
        },
        ("const:3:1", "modular"): {
            "symmetrizer_deg2.txt": "afc45f3df85dc211dbbfa9410211854531a8d82ed36025e967babf021aaabe5d",
            "symmetrizer_deg3.txt": "28edf1bb8ebd6aa13c558e81ca774f37db79c61d9f619c499fb693fe061918cf",
            "symmetrizer_deg4.txt": "aee8da97391a232e559853e969016b77d9e5a4bd22303860fae291eabb3f728c",
        },
        ("-1", "exact"): {
            "symmetrizer_deg2.txt": "bd5afa28d1e5f4e8ef7d3c1ff606c984c5dad25e6788c7d30d98ca8246796b5a",
            "symmetrizer_deg3.txt": "0f77bd1da22a6401734b67e4c0981d65b0078bed45e3949f9491357e6cc98640",
        },
    }

    @pytest.mark.parametrize("cocycle, mode", sorted(DUMP_DIGESTS))
    def test_dump_builds_each_degree_once(self, tmp_path, monkeypatch, cocycle, mode):
        built = []
        real = braided_mod.symmetrizer

        def counting(q, degree, *args, **kwargs):
            built.append(degree)
            return real(q, degree, *args, **kwargs)

        monkeypatch.setattr(braided_mod, "symmetrizer", counting)
        monkeypatch.setattr(hilbert_mod, "symmetrizer", counting)
        digests = self.DUMP_DIGESTS[(cocycle, mode)]
        dump = tmp_path / "mats"
        code = run(["hilbert", "--rack", "x3", f"--cocycle={cocycle}", "--max-degree", str(len(digests) + 1),
                    "--mode", mode, "--dump-matrices", str(dump)])
        assert code == 0
        assert built == list(range(2, len(digests) + 2))
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in dump.iterdir()} == digests

    def test_disagreeing_primes_fail(self, tmp_path, monkeypatch):
        # the first drawn prime is made to fail; the degree falls back to the
        # rank proven over Q(zeta_3), and the run exits 0
        p1 = hilbert_mod._draw_prime(random.Random(0), 3, set())
        real = hilbert_mod._pivots_dense_modp

        def kernel(a, p):
            # one pivot repeated mod p1: one rank too many in every block eliminated there
            pivots = real(a, p)
            return np.append(pivots, pivots[0]) if p == p1 else pivots

        monkeypatch.setattr(hilbert_mod, "_pivots_dense_modp", kernel)
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
        assert "matsumoto word-independence" in names

    def test_fault_injection_fails(self, capsys):
        assert run(["selfcheck", "--n-max", "3", "--inject-fault", "generator"]) == 2
        assert "first failing check: presentation n=2" in capsys.readouterr().out

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


class TestParser:
    def test_unknown_subcommand_is_usage_error(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert run(["cover"]) == 1


def run_child(code):
    """Standard output of `python -c code` in a fresh interpreter that imports racktwist from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_cli_import_does_not_load_scipy():
    code = "import sys, racktwist.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    assert run_child(code).strip() == "[]"


def test_hilbert_run_does_not_load_numpy_ma():
    # np.unique and its kin import numpy.ma on first use, which costs about
    # 16 ms of every cold CLI run
    code = ("import sys; from racktwist.cli import main; "
            "main(['hilbert', '--rack', 'x4', '--cocycle', 'chi', '--max-degree', '4']); "
            "print('numpy.ma' in sys.modules)")
    assert run_child(code).splitlines()[-1] == "False"


def test_hilbert_memory_does_not_grow_with_the_order(tmp_path):
    # order 2^20 on x3: every structure grows with the entries, not with the
    # order, so the run fits a 1 GiB address space and a minute
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "h.json"
    args = ["hilbert", "--rack", "x3", "--cocycle", "const:1048576:1", "--max-degree", "5", "--out", str(out)]
    done = subprocess.run([sys.executable, "-m", "racktwist", *args], env=env, preexec_fn=limit,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert read_json(str(out))["report"]["ranks"][:4] == [1, 3, 9, 27]
