"""racktwist benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--record FILE]

Each job is a fresh single-process CLI invocation, ``racktwist.cli.main(argv)``
in a child interpreter started from ``src/`` of this checkout, one at a time
(closed loop, one client) with BLAS/OpenMP threads pinned to 1.  Jobs repeat
until ``--seconds`` have passed, and every job's ``--out`` report is checked
against an independent reference.

With ``--trace 0`` the run reports the medians of the end-to-end metrics:
``wall_s`` (spawn to exit), ``setup_s`` (spawn to ``racktwist.cli``
imported), ``solve_s`` (time inside ``cli.main``) and ``peak_rss_mb``
(``ru_maxrss`` of the child).  The run stays on one vCPU and times the fixed
program ``reference.py`` before and after every job.  The three times are
reported at reference speed: scaled by ``REFERENCE_S`` over the mean of the
two reference times around the job, which cancels the drift of a shared
machine.  The raw medians are printed as well.

With ``--trace 1`` it alternates untraced and traced jobs and reports the
per-layer metrics of ``tracer.py``, plus ``trace.overhead_s``, the traced
minus the untraced median raw ``solve_s``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload both ways and prints one table; ``--record`` also
writes the environment and all metrics to a JSON file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.py"
WORK = HERE / f".work-{os.getpid()}"  # per process, so concurrent runs do not collide

sys.path.insert(0, str(HERE))
from tracer import COUNT_METRICS, layer_metrics  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
JOB_TIMEOUT_S = 150
# Nominal time of reference.py: times are reported as if every reference run
# had taken this long.  Changing it rescales every recorded result.
REFERENCE_S = 0.5
CERTIFIED = "modular-certified (Monte Carlo)"

# Metric names and units are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchmarkError(Exception):
    """The benchmark itself could not run (as opposed to a failed CLI run)."""


# ---------------------------------------------------------------- output checks


def t_product(factors: tuple[tuple[int, int], ...]) -> list[int]:
    """Coefficients of prod (m)_t^mult, where (m)_t = 1 + t + ... + t^(m-1)."""
    poly = [1]
    for m, mult in factors:
        for _ in range(mult):
            out = [0] * (len(poly) + m - 1)
            for i, c in enumerate(poly):
                for j in range(m):
                    out[i + j] += c
            poly = out
    return poly


# Hilbert series of the Fomin-Kirillov algebras E_4 and E_5, which equal the
# Nichols algebras over x4 and x5 for both cocycles (Milinski-Schneider 2000).
E4_SERIES = t_product(((2, 2), (3, 2), (4, 2)))
E5_SERIES = t_product(((4, 4), (5, 2), (6, 4)))


def _first_mismatch(report: dict, want: dict) -> str | None:
    for key, value in want.items():
        if report.get(key) != value:
            return f"{key} = {report.get(key)!r}, expected {value!r}"
    return None


def check_twist(n: int) -> Callable[[dict], str | None]:
    pairs = (n * (n - 1) // 2) ** 2

    def check(report: dict) -> str | None:
        return _first_mismatch(report, {
            "command": "twist-verify", "n": n, "pairs_checked": pairs,
            "twist_condition_ok": True, "main_theorem_ok": True,
            "twist_equals_minus_one": True, "first_failing_pair": None,
        })

    return check


def check_selfcheck(n_checks: int) -> Callable[[dict], str | None]:
    def check(report: dict) -> str | None:
        checks = report.get("checks", [])
        if len(checks) != n_checks:
            return f"{len(checks)} checks, expected {n_checks}"
        bad = [c.get("name") for c in checks if c.get("ok") is not True]
        return f"failed checks: {bad}" if bad else None

    return check


def check_hilbert(series: list[int], max_degree: int) -> Callable[[dict], str | None]:
    """Ranks equal the reference and every degree >= 2 is certified by two primes."""
    degrees = list(range(max_degree + 1))
    ranks = series[: max_degree + 1]

    def check(report: dict) -> str | None:
        got = report.get("report", {})
        bad = _first_mismatch(got, {"degrees": degrees, "ranks": ranks})
        if bad:
            return bad
        for d, method, primes in zip(degrees, got.get("methods", []), got.get("primes", [])):
            if method != ("exact" if d < 2 else CERTIFIED):
                return f"degree {d}: method {method!r}"
            if d >= 2 and (len(primes) != 2 or primes[0] == primes[1]):
                return f"degree {d}: primes {primes}, expected two distinct"
        return None

    return check


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    """CLI arguments (``{seed}`` is replaced by the seed) and the output check."""

    argv: tuple[str, ...]
    check: Callable[[dict], str | None]

    def args(self, seed: int) -> list[str]:
        return [a.replace("{seed}", str(seed)) for a in self.argv]


# Why each workload exists is recorded in BENCHMARK.json and perfbench/NOTES.md.
WORKLOADS = {
    "twist-n8": Workload(("twist-verify", "--n", "8"), check_twist(8)),
    "selfcheck-n4": Workload(("selfcheck", "--n-max", "4", "--seed", "{seed}"), check_selfcheck(12)),
    "hilbert-x4-d5": Workload(
        ("hilbert", "--rack", "x4", "--cocycle", "chi", "--max-degree", "5", "--seed", "{seed}"),
        check_hilbert(E4_SERIES, 5),
    ),
    "hilbert-x5-d4": Workload(
        ("hilbert", "--rack", "x5", "--cocycle=-1", "--max-degree", "4", "--seed", "{seed}"),
        check_hilbert(E5_SERIES, 4),
    ),
}


# ---------------------------------------------------------------- jobs


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


@dataclass
class Job:
    traced: bool
    wall_s: float
    setup_s: float
    solve_s: float
    peak_rss_mb: float
    failure: str | None
    layers: dict | None = None
    top_self: list | None = None  # the largest self times of a traced job
    reference_s: float = REFERENCE_S  # mean reference time around the job

    def at_reference_speed(self, seconds: float) -> float:
        return seconds * REFERENCE_S / self.reference_s


def _spawn(mode: str, argv: list[str]) -> tuple[dict, int, float, float, str]:
    """Run child.py once: its record (with ``maxrss_kib``), exit code, spawn and exit times, stderr.

    The record is empty when the child had to be killed.
    """
    record_path, stderr_path = WORK / "record.json", WORK / "stderr.txt"
    record_path.unlink(missing_ok=True)
    lock, state = threading.Lock(), {"done": False, "killed": False}
    with open(stderr_path, "wb") as err:
        spawn = _now()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(record_path), mode, *argv],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )

        def kill():
            with lock:
                if not state["done"]:
                    state["killed"] = True
                    proc.kill()

        timer = threading.Timer(JOB_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = _now()
        with lock:
            state["done"] = True
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = stderr_path.read_text(errors="replace").strip()
    if state["killed"]:
        return {}, proc.returncode, spawn, end, f"killed after {JOB_TIMEOUT_S} s"
    if not record_path.exists():
        raise BenchmarkError(f"child wrote no record (exit {proc.returncode}): {stderr[-500:]}")
    record = json.loads(record_path.read_text())
    record["maxrss_kib"] = usage.ru_maxrss
    return record, proc.returncode, spawn, end, stderr


def warm_up() -> dict:
    """One import-only child: compiles bytecode and reports library versions."""
    record, _, _, _, _ = _spawn("import", [])
    return record["versions"]


def run_job(workload: Workload, seed: int, traced: bool) -> Job:
    report_path = WORK / "report.json"
    report_path.unlink(missing_ok=True)
    argv = workload.args(seed) + ["--out", str(report_path)]
    record, code, spawn, end, stderr = _spawn("1" if traced else "0", argv)
    if not record:
        return Job(traced, end - spawn, 0.0, 0.0, 0.0, stderr)
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = None
    failure = None if report is None else (
        workload.check(report) or (None if report.get("ok") is True else "report ok is not true"))
    if record["rc"] != 0 or code != 0:
        failure = f"exit {record['rc']}: {record.get('error') or failure or stderr[-200:]}"
    elif report is None:
        failure = "no readable --out report"
    layers = top_self = None
    if traced:
        size = report_path.stat().st_size if report_path.exists() else 0
        layers = layer_metrics(record["trace"], size)
        top_self = sorted(record["trace"]["self_s"].items(), key=lambda kv: -kv[1])[:8]
    return Job(
        traced=traced,
        wall_s=end - spawn,
        setup_s=record["imported"] - spawn,
        solve_s=record["end"] - record["start"],
        peak_rss_mb=record["maxrss_kib"] / 1024,
        failure=failure,
        layers=layers,
        top_self=top_self,
    )


def reference_s() -> float:
    """Wall time of one run of the fixed reference program."""
    start = _now()
    try:
        subprocess.run([sys.executable, str(REFERENCE)], cwd=ROOT, env=child_env(),
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       check=True, timeout=JOB_TIMEOUT_S)
    except subprocess.SubprocessError as exc:
        raise BenchmarkError(f"reference program failed: {exc}") from exc
    return _now() - start


def run_jobs(workload: Workload, seed: int, seconds: float, traced: bool) -> list[Job]:
    """Closed loop on one vCPU: reference, job, reference, job, ..., reference.

    Jobs repeat until `seconds` pass, with a minimum job count.  Each job
    keeps the mean of the reference times just before and just after it.
    """
    modes = (False, True) if traced else (False,)
    min_rounds = 2 if traced else 3
    jobs: list[Job] = []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})  # children inherit it
    try:
        deadline = _now() + seconds
        before = reference_s()
        rounds = 0
        while rounds < min_rounds or _now() < deadline:
            for mode in modes:
                job = run_job(workload, seed, mode)
                after = reference_s()
                job.reference_s, before = (before + after) / 2, after
                jobs.append(job)
                status = "ok" if job.failure is None else f"FAILED ({job.failure})"
                print(f"  job {len(jobs)} {'traced' if mode else 'untraced'}: wall {job.wall_s:.3f} s,"
                      f" setup {job.setup_s:.3f} s, solve {job.solve_s:.3f} s,"
                      f" rss {job.peak_rss_mb:.1f} MB, reference {job.reference_s:.3f} s, {status}",
                      flush=True)
            rounds += 1
    finally:
        os.sched_setaffinity(0, cpus)
    return jobs


# ---------------------------------------------------------------- metrics


def end_to_end(jobs: list[Job], raw: bool = False) -> dict[str, float]:
    """Medians over the untraced jobs; times at reference speed unless `raw`."""
    plain = [j for j in jobs if not j.traced]

    def value(job: Job, name: str) -> float:
        v = getattr(job, name)
        return v if raw or END_TO_END_UNITS[name] != "s" else job.at_reference_speed(v)

    return {name: statistics.median(value(j, name) for j in plain) for name in END_TO_END_UNITS}


def per_layer(jobs: list[Job]) -> dict[str, float]:
    """Timings are medians over the traced jobs; counts come from the first one."""
    traced = [j.layers for j in jobs if j.traced and j.layers]
    if not traced:
        raise BenchmarkError("no traced job finished")
    first = traced[0]
    for other in traced[1:]:
        differing = [k for k in COUNT_METRICS if other[k] != first[k]]
        if differing:
            print(f"  warning: counts differ between traced jobs: {differing}")
    out = {key: value if key in COUNT_METRICS else statistics.median(t[key] for t in traced)
           for key, value in first.items()}
    out["trace.overhead_s"] = (statistics.median(j.solve_s for j in jobs if j.traced)
                               - statistics.median(j.solve_s for j in jobs if not j.traced))
    return out


# ---------------------------------------------------------------- environment


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "racktwist").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int, seconds: float, versions: dict) -> dict:
    env = child_env()
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "seed": seed,
        "seconds": seconds,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------- entry point


def measure(name: str, seed: int, seconds: float, traced: bool) -> tuple[list[Job], dict]:
    print(f"{name} seed {seed} {'traced' if traced else 'untraced'}: {' '.join(WORKLOADS[name].args(seed))}",
          flush=True)
    jobs = run_jobs(WORKLOADS[name], seed, seconds, traced)
    failed = sum(j.failure is not None for j in jobs)
    e2e, raw = end_to_end(jobs), end_to_end(jobs, raw=True)
    reference = statistics.median(j.reference_s for j in jobs)
    print(f"  {name}: " + ", ".join(f"{k} {v:.4f} {END_TO_END_UNITS[k]}" for k, v in e2e.items())
          + f", fail_ratio {failed / len(jobs):.3f} ({failed}/{len(jobs)})")
    print("  raw: " + ", ".join(f"{k} {v:.4f} {END_TO_END_UNITS[k]}" for k, v in raw.items())
          + f", reference {reference:.4f} s (nominal {REFERENCE_S} s)")
    metrics = e2e
    if traced:
        metrics = per_layer(jobs)
        print(f"  raw solve_s untraced {raw['solve_s']:.4f} s, traced"
              f" {raw['solve_s'] + metrics['trace.overhead_s']:.4f} s,"
              f" overhead {metrics['trace.overhead_s']:.4f} s")
        top = next(j.top_self for j in jobs if j.top_self)
        print("  top self time: " + ", ".join(f"{k} {v:.3f} s" for k, v in top))
    return jobs, metrics


def run_one(args) -> dict:
    jobs, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    failed = sum(j.failure is not None for j in jobs)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if set(metrics) != set(units):
        raise BenchmarkError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    return {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> None:
    results = {}
    for name in WORKLOADS:
        plain, e2e = measure(name, args.seed, args.seconds, False)
        traced, layers = measure(name, args.seed, args.seconds, True)
        jobs = plain + traced
        failed = sum(j.failure is not None for j in jobs)
        results[name] = {"argv": WORKLOADS[name].args(args.seed), "end_to_end": e2e,
                         "end_to_end_raw": end_to_end(plain, raw=True),
                         "reference_s": statistics.median(j.reference_s for j in plain),
                         "fail_ratio": failed / len(jobs), "attempted": len(jobs),
                         "failed": failed, "per_layer": layers}
    print(f"\n{'workload':<15} {'wall_s (s)':>11} {'setup_s (s)':>12} {'solve_s (s)':>12}"
          f" {'peak_rss_mb (MB)':>17} {'fail_ratio':>11} {'trace.overhead_s (s)':>21}")
    for name, r in results.items():
        e = r["end_to_end"]
        print(f"{name:<15} {e['wall_s']:>11.4f} {e['setup_s']:>12.4f} {e['solve_s']:>12.4f}"
              f" {e['peak_rss_mb']:>17.1f} {r['fail_ratio']:>11.3f}"
              f" {r['per_layer']['trace.overhead_s']:>21.4f}")
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"environment": args.environment, "workloads": results}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --workload all: write all results to this JSON file")
    args = parser.parse_args(argv)
    if not (SRC / "racktwist" / "cli.py").is_file():
        print(f"error: no racktwist sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        args.environment = environment(args.seed, args.seconds, warm_up())
        print("environment: " + json.dumps(args.environment, sort_keys=True), flush=True)
        if args.workload == "all":
            run_all(args)
        else:
            print(json.dumps(run_one(args)))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
