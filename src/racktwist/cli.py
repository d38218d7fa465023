"""Command-line entry point: reproducible verification pipelines with JSON reports.

Subcommands: rack | cocycle | cover | twist-verify | cohomology | hilbert |
selfcheck.  Human summaries go to stdout; the machine-readable JSON report is
written to --out.  Identical configurations (including --seed) produce
byte-identical reports.  Exit codes: 0 success, 1 usage error, 2 failed
mathematical check, 3 resource cap exceeded, 141 (128 + SIGPIPE) stdout
closed by its reader, with nothing printed.  Every integer flag has a
range, checked before the command runs: a value below it is a usage error,
one above it a resource cap.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from types import SimpleNamespace

import numpy as np

from . import braided, cocycle as cocycle_mod, hilbert as hilbert_mod, rack as rack_mod, spincover
from .errors import DimensionCapError, RackAxiomError, SectionConsistencyError

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_RESOURCE = 3
# what a shell reports for a writer killed by SIGPIPE, so a check piped into a reader that stops early never reads as 0
EXIT_PIPE = 128 + 13


class UsageError(Exception):
    pass


def _finish(args, ok: bool, fields: dict, **config) -> int:
    """Write the report of args' subcommand to args.out, if set, and return the exit code of ok.

    The report is fields inside the envelope of every command:
    schema_version, command, config and ok.  config echoes the validated
    run parameters n, max_degree, mode, seed and dim_cap, None where unset.
    The output path is deliberately not part of it: reports must be
    byte-identical across runs that differ only in where they are written.
    """
    command = args.subcommand
    config = {"subcommand": command, **dict.fromkeys(("n", "max_degree", "mode", "seed", "dim_cap")), **config}
    report = {"schema_version": SCHEMA_VERSION, "command": command, "config": config, **fields, "ok": ok}
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------- rack


def cmd_rack(args) -> int:
    if args.check is not None:
        r = rack_mod.load_rack(args.check)
        report_src = "file"
    else:
        if args.n is None:
            raise UsageError("rack: provide --n for a transposition rack or --check FILE")
        r = rack_mod.transposition_rack(args.n)
        report_src = f"x{args.n}"
    violation = rack_mod.check_rack_axioms(r)
    ok = violation is None
    indec = rack_mod.is_indecomposable(r) if ok else None
    code = _finish(args, ok, {
        "source": report_src,
        "rack": rack_mod.rack_to_dict(r),
        "axioms_ok": ok,
        "axiom_violation": violation,
        "indecomposable": indec,
    }, n=args.n)
    print(f"rack {report_src}: size {r.size}, axioms {'ok' if ok else 'FAILED'}"
          + (f", indecomposable {indec}" if indec is not None else ""))
    if not ok:
        print(f"  violation: {violation['kind']} at {violation['witness']}")
    return code


# ---------------------------------------------------------------- cocycle


def _builtin_cocycle(name: str, rack, n: int | None, flag: str):
    """The built-in cocycle `name` of the option `flag` on a rack, or None for any other name.

    Names: '-1'/'minus1', 'chi' (transposition rack x_n only) or 'const:M:E'.
    """
    if name in ("-1", "minus1"):
        return cocycle_mod.minus_one_cocycle(rack)
    if name == "chi":
        if n is None:
            raise UsageError("chi requires a transposition rack (--rack xN)")
        return cocycle_mod.chi_cocycle(n)
    if name.startswith("const:"):
        try:
            m, e = map(int, name.split(":")[1:])
        except ValueError:
            raise UsageError(f"{flag}: const form is const:M:E with integers M and E, got {name!r}")
        return cocycle_mod.constant_cocycle(rack, m, e)
    return None


def cmd_cocycle(args) -> int:
    if args.check is not None:
        q = cocycle_mod.load_cocycle(args.check)
        label = args.check
    else:
        if args.kind is None:
            raise UsageError("cocycle: provide --kind or --check FILE")
        if args.n is None:
            raise UsageError("cocycle: --n is required for built-in cocycles")
        q = _builtin_cocycle(args.kind, rack_mod.transposition_rack(args.n), args.n, "--kind")
        if q is None:
            raise UsageError(f"cocycle: unknown kind {args.kind!r}")
        if args.kind.startswith("const:"):
            label = f"const zeta_{q.order}^{q.exp[0, 0]} on x{args.n}"
        else:
            label = f"{'chi' if args.kind == 'chi' else '-1'} on x{args.n}"
    violation = cocycle_mod.check_rack_cocycle(q)
    ok = violation is None
    code = _finish(args, ok, {
        "cocycle": cocycle_mod.cocycle_to_dict(q),
        "label": label,
        "cocycle_ok": ok,
        "violation": violation,
    }, n=args.n)
    print(f"cocycle {label}: order {q.order}, condition {'ok' if ok else 'FAILED'}")
    if not ok:
        print(f"  violation: {violation['kind']} at {violation['witness']}")
    return code


# ---------------------------------------------------------------- cover


def cmd_cover(args) -> int:
    n = args.n
    presentation_ok = spincover.verify_presentation(n) is None
    lemma_witness = spincover.verify_conjugation_lemmas(n, trials=args.trials, seed=args.seed)
    lemma_ok = lemma_witness is None
    restriction = spincover.phi_psi_table(n).twist_table()
    main_ok = spincover.verify_main_theorem(n, restriction) is None
    code = _finish(args, presentation_ok and lemma_ok and main_ok, {
        "n": n,
        "presentation_ok": presentation_ok,
        "lemma_general_ok": lemma_ok,
        "lemma_witness": lemma_witness,
        "main_theorem_ok": main_ok,
        "phi_restriction": cocycle_mod.twist_table_to_dict(restriction),
    }, n=n, seed=args.seed)
    print(
        f"cover n={n}: presentation {'ok' if presentation_ok else 'FAILED'}, "
        f"conjugation lemmas {'ok' if lemma_ok else 'FAILED'}, "
        f"main theorem {'ok' if main_ok else 'FAILED'}"
    )
    if not lemma_ok:
        print(f"  first failing conjugation: word {lemma_witness['word']}, pair {lemma_witness['pair']}")
    return code


# ---------------------------------------------------------------- twist-verify


def cmd_verify_twist(args) -> int:
    n = args.n
    restriction = spincover.phi_psi_table(n).twist_table()
    triple = cocycle_mod.check_twist_condition(restriction)
    first_fail = spincover.verify_main_theorem(n, restriction)
    cond_ok, main_ok = triple is None, first_fail is None
    pairs = len(restriction.phi) ** 2
    code = _finish(args, cond_ok and main_ok, {
        "n": n,
        "pairs_checked": pairs,
        "twist_condition_ok": cond_ok,
        "twist_condition_witness": triple,
        "main_theorem_ok": main_ok,
        # the same verdict, kept because the report schema has this field and perfbench/run.py's
        # check_twist requires it, so dropping it is a change to the benchmark too
        "twist_equals_minus_one": main_ok,
        "first_failing_pair": first_fail,
    }, n=n)
    print(
        f"twist-verify n={n}: {pairs} pairs, twist condition "
        f"{'ok' if cond_ok else 'FAILED'}, identity {'ok' if main_ok else 'FAILED'}, "
        f"twisted cocycle constant -1: {main_ok}"
    )
    if triple is not None:
        print(f"  first failing triple: {triple}")
    if first_fail is not None:
        print(f"  first failing pair: {first_fail['sigma']}, {first_fail['tau']}")
    return code


# ---------------------------------------------------------------- cohomology


def cmd_cohomology(args) -> int:
    """Whether -1 and chi are gauge-equivalent on x_n; ok unless a certificate disagrees.

    ok is false when n = 3 and no gauge is found (-1 and chi are
    gauge-equivalent on x3), when a gauge found fails its round trip, or
    when the exhaustive search (2^k gauges, k = n(n - 1)/2, run for
    2^k <= 4096) disagrees with the solver.
    """
    n = args.n
    chi = cocycle_mod.chi_cocycle(n)
    violation = cocycle_mod.check_rack_cocycle(chi)
    if violation is not None:
        print(f"cohomology: chi is not a cocycle on a rack ({violation['kind']} at {violation['witness']})")
        return EXIT_CHECK_FAILED
    minus_one = cocycle_mod.minus_one_cocycle(chi.rack)
    gauge = cocycle_mod.find_gauge(minus_one, chi)
    round_trip = None
    if gauge is not None:
        round_trip = np.array_equal(cocycle_mod.gauge_transform(minus_one, gauge).exp, chi.exp)
    k = chi.rack.size
    exhaustive_found = None
    if 2**k <= 4096:
        exhaustive_found = False
        for bits in range(2**k):
            g = tuple((bits >> i) & 1 for i in range(k))
            cand = cocycle_mod.GaugeFunction(chi.rack, 2, g)
            if np.array_equal(cocycle_mod.gauge_transform(minus_one, cand).exp, chi.exp):
                exhaustive_found = True
                break
    verdict = "gauge-equivalent" if gauge is not None else "no gauge exists"
    ok = n != 3 or gauge is not None
    if round_trip is False:
        ok = False
        verdict += " (round trip FAILED)"
    if exhaustive_found is not None and (gauge is not None) != exhaustive_found:
        ok = False
        verdict += " (DISAGREES with exhaustive search)"
    code = _finish(args, ok, {
        "n": n,
        "gauge_found": gauge is not None,
        "gauge": gauge.g.tolist() if gauge is not None else None,
        "round_trip_ok": round_trip,
        "exhaustive_search": {
            "performed": exhaustive_found is not None,
            "found": exhaustive_found,
        },
    }, n=n)
    print(f"cohomology n={n}: constant -1 vs chi: {verdict}")
    return code


# ---------------------------------------------------------------- hilbert


def _parse_rack_arg(arg: str, dim_cap: int):
    if arg.startswith("x") and arg[1:].isdigit():
        n = int(arg[1:])
        if n < 2:
            raise UsageError(f"hilbert: need n >= 2 in rack argument, got {arg}")
        # x_n has k = n(n - 1)/2 elements; its k x k table is the one thing built before graded_dims
        k = n * (n - 1) // 2
        if k * k > dim_cap:
            raise DimensionCapError(f"the {k} x {k} rack table of {arg} needs {k * k} entries > cap {dim_cap}")
        return rack_mod.transposition_rack(n), n, arg
    if os.path.exists(arg):
        return rack_mod.load_rack(arg), None, arg
    raise UsageError(f"hilbert: rack {arg!r} is neither xN nor an existing file")


def _parse_cocycle_arg(arg: str, rack, n: int | None):
    q = _builtin_cocycle(arg, rack, n, "--cocycle")
    if q is not None:
        return q, "-1" if arg == "minus1" else arg
    if os.path.exists(arg):
        q = cocycle_mod.load_cocycle(arg)
        if not q.same_frame(rack, q.order):
            raise UsageError("hilbert: cocycle file rack disagrees with --rack")
        return q, arg
    raise UsageError(f"hilbert: cocycle {arg!r} is not recognized")


def _parse_closed_form(arg: str) -> list[tuple[int, int]]:
    factors = []
    for part in arg.split(","):
        m, _, mult = part.partition(":")
        try:
            factors.append((int(m), int(mult) if mult else 1))
        except ValueError:
            raise UsageError(f"hilbert: bad closed-form factor {part!r} (use M:MULT,...)")
    # a factor below 1 is refused here by expand_closed_form's check, which degree 0 costs nothing to reach
    hilbert_mod.expand_closed_form(factors, 0)
    return factors


def cmd_hilbert(args) -> int:
    cap = braided.DEFAULT_DIM_CAP if args.dim_cap is None else args.dim_cap
    # a bad closed form is a usage error: parsed before the rack and the cocycle, whose records may meet a cap
    closed_form = None if args.closed_form is None else _parse_closed_form(args.closed_form)
    rack, n, rack_id = _parse_rack_arg(args.rack, cap)
    q, cocycle_id = _parse_cocycle_arg(args.cocycle, rack, n)
    report = hilbert_mod.graded_dims(
        q,
        args.max_degree,
        mode=args.mode,
        seed=args.seed,
        dim_cap=cap,
        closed_form=closed_form,
    )
    verdicts = report.get("closed_form_verdicts")
    ok = verdicts is None or all(verdicts)
    code = _finish(args, ok, {"report": {"rack": rack_id, "cocycle": cocycle_id, **report}},
                   max_degree=args.max_degree, mode=args.mode, seed=args.seed, dim_cap=cap)
    print(f"hilbert {rack_id} / {cocycle_id} (mode {args.mode}): ranks {report['ranks']}")
    if verdicts is not None:
        print(f"  closed-form match per degree: {verdicts}")
    return code


# ---------------------------------------------------------------- selfcheck


def cmd_selfcheck(args) -> int:
    n_max = args.n_max
    doubled = args.inject_fault == "generator"  # every generator vector doubled, so t_i^2 = 4
    checks = []

    def run(name: str, fn, witness_key: str):
        """Record the check fn, which returns its first witness or None; a failing entry carries it under witness_key."""
        try:
            witness = fn()
        except Exception as exc:  # a crashed check is a failed check
            checks.append({"name": name, "ok": False, "error": str(exc)})
            return
        checks.append({"name": name, "ok": witness is None})
        if witness is not None:
            checks[-1][witness_key] = witness

    for n in range(2, n_max + 1):
        generators = 2 * spincover.generator_vectors(n) if doubled else None
        run(
            f"presentation n={n}",
            lambda n=n, g=generators: spincover.verify_presentation(n, generators=g),
            "relation_witness",
        )
    for n in range(4, min(n_max, 7) + 1):
        run(
            f"conjugation lemmas n={n}",
            lambda n=n: spincover.verify_conjugation_lemmas(n, trials=args.trials, seed=args.seed),
            "lemma_witness",
        )
    for n in range(3, min(n_max, spincover.GROUP_COCYCLE_N_CAP) + 1):
        run(
            f"group cocycle exhaustive n={n}",
            lambda n=n: spincover.verify_group_cocycle(spincover.phi_psi_table(n)),
            "cocycle_witness",
        )
    # the twist table of each n, built once for its two entries
    twist_table = functools.cache(lambda n: spincover.phi_psi_table(n).twist_table())
    for n in range(4, n_max + 1):
        run(f"main theorem n={n}", lambda n=n: spincover.verify_main_theorem(n, twist_table(n)), "first_failing_pair")
        run(
            f"twist condition n={n}",
            lambda n=n: cocycle_mod.check_twist_condition(twist_table(n)),
            "twist_condition_witness",
        )
    for n in range(3, min(n_max, 5) + 1):
        chi = cocycle_mod.chi_cocycle(n)
        for label, q in (("chi", chi), ("-1", cocycle_mod.minus_one_cocycle(chi.rack))):
            run(f"rack cocycle {label} on x{n}", lambda q=q: cocycle_mod.check_rack_cocycle(q), "axiom_violation")

    ok = all(c["ok"] for c in checks)
    code = _finish(args, ok, {"checks": checks}, n=n_max, seed=args.seed)
    for c in checks:
        print(f"  [{'ok' if c['ok'] else 'FAIL'}] {c['name']}")
    print(f"selfcheck n_max={n_max}: {'all passed' if ok else 'FAILED'}")
    if not ok:
        first = next(c for c in checks if not c["ok"])
        print(f"  first failing check: {first['name']}")
    return code


# ---------------------------------------------------------------- parser


_OUT = ("--out", dict(help="write the report JSON here"))
_SEED = ("--seed", dict(type=int, default=0))
# the n of x_n, on every command that builds x_n
_X_N = dict(type=int, most=spincover.N_CAP)
# the most random conjugation words per n: 10^7 take about 32 s at n = 20 (a 2-vCPU Xeon)
TRIALS_CAP = 10**7
# name, handler, help and flags of each subcommand, in the order --help lists them; a flag's keywords are
# its type (str if absent), default, choices, required, help, metavar, hidden (left out of usage and help),
# and the range of an int: main refuses a value given below least (exit 1) or above most (exit 3)
COMMANDS = (
    ("rack", cmd_rack, "build or validate a rack table", (
        ("--n", dict(_X_N, least=2, help="transposition rack of S_n")),
        ("--check", dict(metavar="FILE", help="validate a rack JSON file")),
        ("--out", dict(help="write the rack/report JSON here")),
    )),
    ("cocycle", cmd_cocycle, "build or validate a rack 2-cocycle", (
        ("--n", dict(_X_N, least=2, help="size parameter for built-in cocycles")),
        ("--kind", dict(help="chi | -1 | minus1 | const:M:E")),
        ("--check", dict(metavar="FILE", help="validate a cocycle JSON file")),
        _OUT,
    )),
    ("cover", cmd_cover, "verify the double-cover presentation and lemmas", (
        ("--n", dict(_X_N, required=True, least=4)),
        ("--trials", dict(type=int, default=1000, least=0, most=TRIALS_CAP, help="random conjugation words to test")),
        _SEED, _OUT,
    )),
    ("twist-verify", cmd_verify_twist, "verify the twist identity pair by pair", (
        ("--n", dict(_X_N, required=True, least=4)), _OUT,
    )),
    ("cohomology", cmd_cohomology, "decide gauge equivalence of -1 and chi", (
        ("--n", dict(_X_N, required=True, least=3)), _OUT,
    )),
    ("hilbert", cmd_hilbert, "graded ranks of the symmetrizer", (
        ("--rack", dict(required=True, help="xN or a rack JSON file")),
        ("--cocycle", dict(required=True, help="chi | -1 | minus1 | const:M:E | file")),
        ("--max-degree", dict(type=int, required=True, least=0)),
        ("--mode", dict(choices=("exact", "modular"), default="modular")),
        _SEED,
        ("--dim-cap", dict(type=int, least=1, help="bound on what a run builds (default 200000): the k x k table "
                           "of xN; |Q| k and each Phi_r's side^2 modular; k^degree exact or at a fallback")),
        ("--closed-form", dict(help="compare ranks against prod (M)_t^MULT, as M:MULT,M:MULT,...")),
        _OUT,
    )),
    ("selfcheck", cmd_selfcheck, "run the aggregated internal verification suite", (
        ("--n-max", dict(_X_N, default=6, least=2)),
        ("--trials", dict(type=int, default=200, least=0, most=TRIALS_CAP, help="random conjugation words per n")),
        _SEED,
        ("--inject-fault", dict(choices=("generator",), hidden=True)),
        _OUT,
    )),
)

# the flags of the top level, which every subcommand has too
_TOP = {"-h": {}, "--help": {}}
# usage and help lines end by column 78, two short of an 80-column terminal
_WIDTH = 78
# an entry that starts with '-' is still a value if it is a negative number
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")


def _fill(words, start: int, indent: int) -> str:
    """words in greedy lines that end by column _WIDTH, the first from column `start`, the others from `indent`."""
    lines, used = [[]], start - 1
    for word in words:
        if lines[-1] and used + 1 + len(word) > _WIDTH:
            lines.append([])
            used = indent - 1
        lines[-1].append(word)
        used += 1 + len(word)
    return ("\n" + " " * indent).join(" ".join(line) for line in lines)


def usage(command: str | None = None, full: bool = False) -> str:
    """The usage line of racktwist, or of its subcommand `command`; with full, the whole --help text.

    The usage wraps under the program name; the help lists each flag with
    its help text from one column, at most 24, after the module docstring
    at the top level.
    """
    prog, parts = "racktwist", ["[-h]"]
    options = [("  -h, --help", "show this help message and exit")]
    if command is None:
        names = "{" + ",".join(name for name, *_ in COMMANDS) + "}"
        parts += [names, "..."]
        paragraphs = [_fill(__doc__.split(), 0, 0)]
        groups = {"positional arguments:": [("  " + names, "")] + [("    " + name, text) for name, _, text, _ in COMMANDS]}
    else:
        prog += " " + command
        for flag, keywords in next(entry[3] for entry in COMMANDS if entry[0] == command):
            if keywords.get("hidden"):
                continue
            choices = keywords.get("choices")
            metavar = "{" + ",".join(choices) + "}" if choices else flag[2:].replace("-", "_").upper()
            part = f"{flag} {keywords.get('metavar', metavar)}"
            # a line may break between a required flag and its metavar, never inside brackets
            parts += part.split() if keywords.get("required") else [f"[{part}]"]
            options.append(("  " + part, keywords.get("help")))
        paragraphs, groups = [], {}
    groups["options:"] = options
    text = "usage: " + _fill([prog, *parts], len("usage: "), len(f"usage: {prog} "))
    if not full:
        return text
    at = min(max(len(head) for rows in groups.values() for head, _ in rows) + 2, 24)
    for title, rows in groups.items():
        lines = [title]
        for head, help_text in rows:
            if help_text:
                body = _fill(help_text.split(), at, at)
                head = head.ljust(at) + body if len(head) <= at - 2 else f"{head}\n{' ' * at}{body}"
            lines.append(head)
        paragraphs.append("\n".join(lines))
    return "\n\n".join([text, *paragraphs])


def _fail(command: str | None, message: str):
    """Print the usage line of `command` (None: of racktwist) to stderr and raise UsageError(message)."""
    print(usage(command), file=sys.stderr)
    raise UsageError(message)


def _read(arg: str, command: str | None, flags) -> tuple[str | None, str | None] | None:
    """What the argv entry `arg` is among `flags`: None for a value, else (flag, inline value or None).

    A value does not start with '-', or it is '-', a negative number or an
    unknown word with a space.  A flag is named whole, or by a unique prefix
    of a long flag, with an inline value after '='; -h also takes the rest
    of its entry ('-hx') as one.  An unknown flag reads as (None, None).
    """
    if arg[:1] != "-" or arg == "-":
        return None
    name, eq, inline = arg.partition("=")
    if name in flags:
        return name, inline if eq else None
    if arg[:2] == "--":
        hits = [flag for flag in flags if flag.startswith(name)]
        if len(hits) > 1:
            _fail(command, f"ambiguous option: {arg} could match {', '.join(hits)}")
        if hits:
            return hits[0], inline if eq else None
    elif arg[:2] == "-h":
        return "-h", arg[2:]
    if _NEGATIVE.match(arg) or " " in arg:
        return None
    return None, None


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The namespace that argv's handler reads: subcommand, fn (the handler) and one attribute per flag.

    Before the subcommand only -h/--help is a flag.  After it, a flag takes
    its inline value or the next entry, the last of a repeated flag wins,
    and '--' ends the flags.  -h/--help prints the help where it is read and
    raises SystemExit(0); any other mistake prints the usage line to stderr
    and raises UsageError, in the words of Python's standard option parser.
    """
    command, flags, given, extras = None, _TOP, {}, []
    end = argv.index("--") if "--" in argv else len(argv)
    at = 0
    while at < end:
        arg = argv[at]
        at += 1
        got = _read(arg, command, flags)
        if got is None and command is None:
            command = arg
            entry = next((entry for entry in COMMANDS if entry[0] == command), None)
            if entry is None:
                names = ", ".join(repr(name) for name, *_ in COMMANDS)
                _fail(None, f"argument subcommand: invalid choice: {command!r} (choose from {names})")
            flags = {**_TOP, **dict(entry[3])}
            continue
        if got is None or got[0] is None:
            extras.append(arg)
            continue
        flag, value = got
        if flag in _TOP:
            if value is not None:
                _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
            print(usage(command, full=True))
            raise SystemExit(0)
        if value is None:
            if at == end or _read(argv[at], command, flags) is not None:
                _fail(command, f"argument {flag}: expected one argument")
            value = argv[at]
            at += 1
        kind, choices = flags[flag].get("type", str), flags[flag].get("choices")
        try:
            given[flag] = kind(value)
        except ValueError:
            _fail(command, f"argument {flag}: invalid {kind.__name__} value: {value!r}")
        if choices is not None and given[flag] not in choices:
            listed = ", ".join(map(repr, choices))
            _fail(command, f"argument {flag}: invalid choice: {given[flag]!r} (choose from {listed})")
    if command is None:
        _fail(None, "the following arguments are required: subcommand")
    _, fn, _, arguments = entry
    missing = [flag for flag, keywords in arguments if keywords.get("required") and flag not in given]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    extras += argv[end:]
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    values = {flag[2:].replace("-", "_"): given.get(flag, keywords.get("default")) for flag, keywords in arguments}
    return SimpleNamespace(subcommand=command, fn=fn, **values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = parse_args(argv)
            # the range of each flag given, in table order; a flag without a bound is compared with itself
            for flag, keywords in next(entry[3] for entry in COMMANDS if entry[0] == args.subcommand):
                value = getattr(args, flag[2:].replace("-", "_"))
                if value is None:
                    continue
                if value < keywords.get("least", value):
                    raise UsageError(f"{args.subcommand}: need {flag} >= {keywords['least']}, got {value}")
                if value > keywords.get("most", value):
                    raise DimensionCapError(f"{args.subcommand}: need {flag} <= {keywords['most']}, got {value}")
            return args.fn(args)
        finally:
            # a closed stdout fails here if it did not fail in a print, also after --help's SystemExit
            sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; devnull takes what is left
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DimensionCapError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (SectionConsistencyError, RackAxiomError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
