"""Outside-in span tracer for one racktwist CLI invocation.

The tracer changes nothing under ``src/``.  It replaces the public callables
of the ``rack``, ``cocycle``, ``spincover``, ``braided``, ``hilbert`` and
``cli`` modules with wrappers, at every name through which a caller resolves
them: a function imported with ``from .braided import symmetrizer`` is
wrapped both as ``racktwist.braided.symmetrizer`` and as
``racktwist.hilbert.symmetrizer``.  A few methods that carry the spin-cover
kernels are wrapped on their classes.

Each call records a span ``[name, start, end, parent, outermost, tag]`` in
memory.  Self time is a span's duration minus the durations of its child
spans; inclusive time counts only the outermost span of a name, so that
recursion (``bracket``) is not counted twice.  Probes attached to some
callables add exact work counts taken from the arguments and the result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict

LAYER_MODULES = ("rack", "cocycle", "spincover", "braided", "hilbert", "cli")

# cli is traced at its entry point only, so that cli.main's self time is the
# CLI's own work: argument parsing, glue and report writing.
ONLY = {"cli": ("main",)}

# Methods that hold the spin-cover work; module functions are found by scan.
# CliffordElement.__mul__ is the Clifford product (the module's clifford_mul
# is a thin alias of it and is not called on any workload path).
METHODS = {
    "spincover.clifford_mul": ("spincover", "CliffordElement", "__mul__"),
    "spincover.section": ("spincover", "SectionCache", "section"),
    "spincover.phi_bit": ("spincover", "SectionCache", "phi_bit"),
    "spincover.twist_table": ("spincover", "GroupCocycleBit", "twist_table"),
}

# Degrees whose symmetrizer and rank spans are reported one by one.
DEGREES = (2, 3, 4, 5)


def _probe_clifford_mul(tracer, span, args, result):
    a, b = args[0], args[1]
    tracer.counts["spincover.clifford_mul.term_pairs"] += len(a.terms) * len(b.terms)


def _probe_phi_bit(tracer, span, args, result):
    tracer.keys["spincover.phi_bit"].add((args[1].image, args[2].image))


def _probe_section(tracer, span, args, result):
    tracer.keys["spincover.section"].add(args[1].image)


def _probe_symmetrizer(tracer, span, args, result):
    span[5] = result.degree
    tracer.counts["braided.symmetrizer.nnz"] += sum(int(c.nnz) for c in result.counts)
    tracer.counts["braided.symmetrizer.lifts"] += math.factorial(result.degree) * result.dim


def _probe_rank(tracer, span, args, result):
    span[5] = args[0].degree
    tracer.counts["hilbert.rank.dim"] += result.dim
    tracer.counts["hilbert.rank.components"] += result.n_components
    tracer.counts["hilbert.rank.primes"] += len(result.primes)


PROBES = {
    "spincover.clifford_mul": _probe_clifford_mul,
    "spincover.phi_bit": _probe_phi_bit,
    "spincover.section": _probe_section,
    "braided.symmetrizer": _probe_symmetrizer,
    "hilbert.rank": _probe_rank,
}


class Tracer:
    """Records one span per call of every wrapped callable, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, depth[name] == 0, None]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[name] -= 1
                stack.pop()
            if probe is not None:
                probe(self, span, args, result)
            return result

        return traced

    def instrument(self) -> None:
        """Wrap every traced callable at each racktwist name bound to it."""
        modules = {m: importlib.import_module(f"racktwist.{m}") for m in LAYER_MODULES}
        wrapped = {}  # id(original) -> wrapper
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or attr not in ONLY.get(short, (attr,)):
                    continue
                wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        for name, (short, cls_name, meth) in METHODS.items():
            cls = getattr(modules[short], cls_name)
            setattr(cls, meth, self.wrap(name, vars(cls)[meth]))

    def summary(self) -> dict:
        """Per-name calls, self and inclusive seconds, per-degree seconds, counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        tagged: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, outermost, tag) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child[i]
            if outermost:
                incl_s[name] += dur
                if tag is not None:
                    tagged[f"{name}.deg{tag}"] += dur
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "incl_s": dict(incl_s),
            "tagged_s": dict(tagged),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.keys.items()},
        }


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, report_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced invocation, by benchmark name."""
    calls, self_s, incl = summary["calls"], summary["self_s"], summary["incl_s"]
    counts, distinct, tagged = summary["counts"], summary["distinct"], summary["tagged_s"]
    out: dict[str, float] = {
        "spincover.clifford_mul.calls": calls.get("spincover.clifford_mul", 0),
        "spincover.clifford_mul.term_pairs": counts.get("spincover.clifford_mul.term_pairs", 0),
        "spincover.clifford_mul.self_s": self_s.get("spincover.clifford_mul", 0.0),
    }
    for name in ("phi_bit", "section"):
        key = f"spincover.{name}"
        out[f"{key}.calls"] = calls.get(key, 0)
        out[f"{key}.self_s"] = self_s.get(key, 0.0)
        out[f"{key}.distinct_ratio"] = _ratio(distinct.get(key, 0), calls.get(key, 0))
    out["spincover.bracket.calls"] = calls.get("spincover.bracket", 0)
    out["spincover.bracket.self_s"] = self_s.get("spincover.bracket", 0.0)
    for name in ("verify_main_theorem", "verify_group_cocycle",
                 "verify_conjugation_lemmas", "verify_presentation"):
        out[f"spincover.{name}.s"] = incl.get(f"spincover.{name}", 0.0)
    out["braided.symmetrizer.s"] = incl.get("braided.symmetrizer", 0.0)
    out["braided.symmetrizer.nnz"] = counts.get("braided.symmetrizer.nnz", 0)
    out["braided.symmetrizer.lifts"] = counts.get("braided.symmetrizer.lifts", 0)
    out["braided.rho.calls"] = calls.get("braided.rho", 0)
    out["braided.rho.s"] = incl.get("braided.rho", 0.0)
    out["hilbert.rank.s"] = incl.get("hilbert.rank", 0.0)
    for name in ("dim", "components", "primes"):
        out[f"hilbert.rank.{name}"] = counts.get(f"hilbert.rank.{name}", 0)
    for layer in ("braided.symmetrizer", "hilbert.rank"):
        for d in DEGREES:
            out[f"{layer}.deg{d}.s"] = tagged.get(f"{layer}.deg{d}", 0.0)
    out["hilbert.graded_dims.s"] = incl.get("hilbert.graded_dims", 0.0)
    for name in ("chi_cocycle", "check_cocycle", "check_twist_condition", "twist"):
        out[f"cocycle.{name}.s"] = incl.get(f"cocycle.{name}", 0.0)
    out["rack.transposition_rack.s"] = incl.get("rack.transposition_rack", 0.0)
    out["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    out["cli.report_bytes"] = report_bytes
    return out


# Metrics that are exact counts: identical on every traced run of a seed.
COUNT_METRICS = (
    "spincover.clifford_mul.calls", "spincover.clifford_mul.term_pairs",
    "spincover.phi_bit.calls", "spincover.phi_bit.distinct_ratio",
    "spincover.section.calls", "spincover.section.distinct_ratio",
    "spincover.bracket.calls", "braided.symmetrizer.nnz", "braided.symmetrizer.lifts",
    "braided.rho.calls", "hilbert.rank.dim", "hilbert.rank.components",
    "hilbert.rank.primes", "cli.report_bytes",
)
