"""One benchmark job: a fresh interpreter that runs ``racktwist.cli.main(argv)`` once.

Usage: ``python3 perfbench/child.py RECORD TRACE [ARGV...]``

RECORD is the JSON file the job writes its clock readings to; TRACE is ``1``
to run under the span tracer, ``0`` to run untraced, or ``import`` to stop
after the import (a warm-up that also reports library versions).  Clock
readings use CLOCK_MONOTONIC, which the parent process shares, so the parent
can subtract them from its spawn time.
"""

import json
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    record_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import racktwist.cli

    record = {"imported": _now()}
    if mode == "import":
        import numpy
        import scipy

        record["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    else:
        tracer = None
        if mode == "1":
            from tracer import Tracer

            tracer = Tracer()
            tracer.instrument()
        record["start"] = _now()
        try:
            record["rc"] = racktwist.cli.main(argv)
        except Exception as exc:  # a crash is a failed run, reported to the parent
            record["rc"] = None
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["end"] = _now()
        if tracer is not None:
            record["trace"] = tracer.summary()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0 if record.get("rc", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
