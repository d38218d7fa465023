"""Self-test of the benchmark: proves that failed runs are counted.

Usage: python3 perfbench/selftest.py

It checks the reference series against the published coefficients, then
runs three jobs through the same code path as the benchmark:

- the selfcheck workload with ``--inject-fault generator`` must fail;
- the hilbert-x4-d5 workload checked against a deliberately wrong reference
  (one rank off by one) must fail;
- the same workload against the true reference must pass.

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys

import run


def fail_ratio(jobs: list[run.Job]) -> float:
    return sum(j.failure is not None for j in jobs) / len(jobs)


def main() -> int:
    problems = []

    # Coefficients from Fomin-Kirillov 1999 and Milinski-Schneider 2000.
    if run.E4_SERIES[:7] != [1, 6, 19, 42, 71, 96, 106] or sum(run.E4_SERIES) != 576:
        problems.append(f"E4 reference series is wrong: {run.E4_SERIES}")
    if run.E5_SERIES[:6] != [1, 10, 55, 220, 711, 1960] or sum(run.E5_SERIES) != 8294400:
        problems.append(f"E5 reference series is wrong: {run.E5_SERIES[:6]}")

    selfcheck = run.WORKLOADS["selfcheck-n4"]
    faulty = run.Workload(selfcheck.argv + ("--inject-fault", "generator"), selfcheck.check)
    hilbert = run.WORKLOADS["hilbert-x4-d5"]
    wrong = list(run.E4_SERIES)
    wrong[5] += 1
    cases = [
        ("selfcheck with injected generator fault", faulty, 1.0),
        ("hilbert-x4-d5 against a wrong reference", run.Workload(hilbert.argv, run.check_hilbert(wrong, 5)), 1.0),
        ("hilbert-x4-d5 against the true reference", hilbert, 0.0),
    ]
    run.WORK.mkdir(exist_ok=True)
    try:
        for label, workload, expected in cases:
            jobs = [run.run_job(workload, seed=1, traced=False)]
            got = fail_ratio(jobs)
            verdict = "as expected" if got == expected else f"EXPECTED {expected}"
            print(f"{label}: fail_ratio {got} ({jobs[0].failure or 'ok'}) {verdict}")
            if got != expected:
                problems.append(label)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    for p in problems:
        print(f"selftest problem: {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
