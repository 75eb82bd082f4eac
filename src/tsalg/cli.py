"""Command-line front end.

Subcommands::

    tsalg sigma-demo            --n N [--all-perm-pairs]
    tsalg check                 --spec F (--eq TEXT | --quasi TEXT)
    tsalg verify-relativization --big F --sub F
    tsalg decompose             --n N --k K
    tsalg closure               --spec F
    tsalg ultraproduct          --spec F [--spec F ...] [--index I]

Common flags: --exhaustive | --random TRIALS, --seed S, --json
(closure takes no mode or seed flags; ultraproduct takes --seed only and
ignores it, since it decides every class and samples nothing).
Without --exhaustive or --random a check enumerates when its work fits
the budget and samples otherwise.  The environment variable TRA_BUDGET
overrides the default ceiling on exhaustive enumeration.

Exit codes: 0 when every checked assertion holds, 1 when a checked
property fails (the witness is printed), 2 on usage, parse, or input
errors, and when standard output closes before the report is written.

Algebra spec files (.alg) are key/value documents; '#' starts a comment::

    n = 2
    base = 2
    carrier = full            # or an explicit list: [[0,1], [1,0]]

Reports echo their inputs, mode, and seed; re-running a report's inputs
with its seed reproduces it bit for bit (wall time aside).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import re
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NoReturn

from .algebra import (
    Carrier,
    Elem,
    carrier_from_seqs,
    full_carrier,
    is_permutable,
    permutable_closure,
)
from .seqspace import Perm, Seq, fmt_seq
from .termlang import (
    DEFAULT_ASSIGNMENT_BUDGET,
    DEFAULT_SEED,
    Equation,
    Exhaustive,
    QuasiEquation,
    Random,
    Verdict,
    check_equation,
    check_quasi,
    equation_vars,
    fmt_count,
    parse_equation,
    parse_quasi,
    print_equation,
    print_quasi,
    quasi_vars,
    resolve_mode,
)
from .theorems import (
    backward_cycle,
    build_counterexample,
    decompose_small,
    forward_cycle,
    principal_ultraproduct,
    sigma_holds_small,
    verify_h_escape,
    verify_relativization,
)


_COMMENT = re.compile("#.*")
#: A key, '=' (empty when missing) and a word (empty at a line break, a
#: list when it starts with "["), each after blanks.
_ENTRY = re.compile(r"\s*(\w*)[ \t]*(=?)[ \t]*(\S*)")
_NAT = re.compile("[0-9]+")
#: A list of sequences of naturals, two deep, trailing commas allowed.
_SEQ_LIST = re.compile(r"\[\s*(?:\[\s*(?:[0-9]+\s*(?:,\s*|(?=\])))*\]\s*(?:,\s*|(?=\])))*\]")
_SEQ = re.compile(r"\[([^\]]*)\]")
_BRACKET = re.compile(r"[\[\]]")
#: A character that no list of naturals holds.
_STRAY = re.compile(r"[^\s\[\],0-9]")


class SpecFileError(ValueError):
    """An .alg document is malformed."""


@dataclass(frozen=True)
class AlgebraSpec:
    """Parsed .alg document: dimension, base size, and carrier selector."""

    n: int
    base: int
    carrier: str | tuple[Seq, ...]  # "full" or explicit member sequences

    def to_carrier(self) -> Carrier:
        if self.carrier == "full":
            return full_carrier(self.n, self.base)
        return carrier_from_seqs(self.n, self.base, self.carrier)


def parse_algebra_spec(text: str, source: str = "<spec>") -> AlgebraSpec:
    cleaned = _COMMENT.sub("", "\n".join(text.splitlines()))

    def fail(pos: int, message: str) -> NoReturn:
        line = cleaned.count("\n", 0, pos) + 1
        raise SpecFileError(f"{source}:{line}: {message}")

    fields: dict[str, object] = {}
    pos = 0
    while (m := _ENTRY.match(cleaned, pos)).start(1) < len(cleaned):
        key, word, pos = m[1], m[3], m.start(3)
        if not key:
            fail(m.start(1), f"expected a key, found {cleaned[m.start(1)]!r}")
        if key in fields:
            fail(m.start(1), f"duplicate key {key!r}")
        if not m[2]:
            fail(m.start(2), f"expected '=' after {key!r}")
        if not word:
            fail(pos, f"missing value for {key!r}")
        if word[0] != "[":
            try:
                fields[key] = int(word) if _NAT.fullmatch(word) else word
            except ValueError as exc:  # past int's digit limit
                fail(pos, f"bad value for {key!r}: {exc}")
            pos = m.end()
        elif seqs := _SEQ_LIST.match(cleaned, pos):
            try:
                fields[key] = tuple(tuple(map(int, _NAT.findall(seq)))
                                    for seq in _SEQ.findall(cleaned, pos + 1, seqs.end() - 1))
            except ValueError as exc:  # an entry past int's digit limit
                fail(pos, f"bad list for {key!r}: {exc}")
            pos = seqs.end()
        else:  # not a list of sequences: find its end, then what it holds
            depth = 0
            for bracket in _BRACKET.finditer(cleaned, pos):
                depth += 1 if bracket[0] == "[" else -1
                if not depth:
                    break
            else:
                fail(pos, f"unbalanced brackets in {key!r}")
            if stray := _STRAY.search(cleaned, pos, bracket.end()):
                fail(stray.start(), f"bad list for {key!r}: unexpected {stray[0]!r}")
            fields[key] = None  # refused below
            pos = bracket.end()

    for required in ("n", "base", "carrier"):
        if required not in fields:
            raise SpecFileError(f"{source}: missing key {required!r}")
    extra = set(fields) - {"n", "base", "carrier"}
    if extra:
        raise SpecFileError(f"{source}: unknown keys {sorted(extra)}")
    n, base, carrier = fields["n"], fields["base"], fields["carrier"]
    if not isinstance(n, int) or not isinstance(base, int):
        raise SpecFileError(f"{source}: 'n' and 'base' must be naturals")
    if carrier != "full" and not isinstance(carrier, tuple):
        raise SpecFileError(f"{source}: carrier must be 'full' or a list of sequences")
    return AlgebraSpec(n, base, carrier)


def load_algebra_spec(path: str) -> AlgebraSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file {path!r}: {exc}") from None
    return parse_algebra_spec(text, source=path)


# --- report plumbing ----------------------------------------------------


@dataclass
class RunReport:
    """Everything one invocation did: echoed inputs, verdict, counts.

    Fields may hold library objects (carriers, elements, report
    dataclasses); _encode turns them into JSON data.
    """

    command: str
    inputs: dict
    outcome: str
    passed: bool
    mode: str
    seed: int | None
    counts: dict
    witness: dict | None = None
    details: object = dataclasses.field(default_factory=dict)
    wall_time_s: float = 0.0

    def to_json(self) -> str:
        return _to_json(_encode(self, {}))

    def to_text(self) -> str:
        r = _encode(self, {})
        lines = [f"command: {self.command}"]
        for k, v in r["inputs"].items():
            lines.append(f"  {k}: {_fmt_value(v)}")
        lines.append(f"mode: {self.mode}" + (f"  seed: {self.seed}" if self.seed is not None else ""))
        for k, v in r["counts"].items():
            lines.append(f"  {k}: {v}")
        if r["details"]:
            lines.extend(_render(r["details"], 0))
        lines.append(f"outcome: {self.outcome}")
        if r["witness"]:
            for name, seqs in sorted(r["witness"].items()):
                lines.append(f"witness: {name} = {_fmt_seq_set(seqs)}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}  ({self.wall_time_s:.3f}s)")
        return "\n".join(lines)


def _encode(value: object, seen: dict) -> object:
    """JSON data for a report value: dataclasses give their fields (under
    the field's metadata "key" when set) then their public properties;
    carriers, elements, permutations and verdicts have fixed forms, and
    ints wider than 256 bits become fmt_count text (str() and json refuse
    integers past 4300 digits); plain values are checked first.  seen
    keeps each carrier met, by id, with its dict: a report may hold one twice."""
    if type(value) in (str, bool, float) or value is None:
        return value
    if isinstance(value, int):
        return value if value.bit_length() <= 256 else fmt_count(value)
    if isinstance(value, dict):
        return {str(k): _encode(v, seen) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v, seen) for v in value]
    if isinstance(value, Carrier):
        if id(value) not in seen:
            d: dict = {"n": value.n, "base": value.u, "size": value.size}
            if value.size <= 64:
                d["members"] = [list(s) for s in value.seqs]
            seen[id(value)] = value, d
        return seen[id(value)][1]
    if isinstance(value, Elem):
        return [list(s) for s in value.seqs()]
    if isinstance(value, Perm):
        return list(value.images)
    if isinstance(value, Verdict):  # its fields that are not None, in this order
        d = {"outcome": value.outcome, "assignments_tested": value.assignments_tested,
             "trials": value.trials, "seed": value.seed,
             "witness": value.witness and dict(sorted(value.witness.items()))}
        return {k: _encode(v, seen) for k, v in d.items() if v is not None}
    if dataclasses.is_dataclass(value):
        return {key: _encode(getattr(value, name), seen) for key, name in _report_fields(type(value))}
    return value


@functools.cache
def _report_fields(cls: type) -> tuple[tuple[str, str], ...]:
    """(key, attribute) pairs that _encode reports for a dataclass."""
    return tuple([(f.metadata.get("key", f.name), f.name) for f in dataclasses.fields(cls)]
                 + [(name, name) for name, attr in vars(cls).items()
                    if isinstance(attr, property) and not name.startswith("_")])


def _to_json(value: object, pad: str = "\n", seen: dict | None = None, kind: type | None = None) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it (its
    keys str, as _encode makes them) in one pass; pad is the line break and
    indent before value's closing bracket, seen the text of each dict
    written, by id and pad, and kind the type to write value as."""
    kind = kind or type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    if kind is float:  # json writes nan and ±inf as NaN and ±Infinity
        return float.__repr__(value).replace("nan", "NaN").replace("inf", "Infinity")
    if not value and kind in (list, tuple, dict):
        return "{}" if kind is dict else "[]"
    inner = pad + "  "
    seen = {} if seen is None else seen
    if kind is list or kind is tuple:
        if all(type(v) is int for v in value):  # members, witnesses, permutations
            return "[" + inner + ("," + inner).join(map(int.__repr__, value)) + pad + "]"
        return "[" + inner + ("," + inner).join([_to_json(v, inner, seen) for v in value]) + pad + "]"
    if kind is dict:
        if (id(value), pad) not in seen:
            seen[id(value), pad] = "{" + inner + ("," + inner).join(
                [encode_basestring_ascii(k) + ": " + _to_json(v, inner, seen)
                 for k, v in sorted(value.items())]) + pad + "}"
        return seen[id(value), pad]
    for base in (str, int, float, list, tuple, dict):  # a subclass goes as json sends it
        if isinstance(value, base):
            return _to_json(value, pad, seen, base)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _fmt_seq_set(seqs: list) -> str:
    return "{" + ", ".join(fmt_seq(tuple(s)) for s in seqs) + "}"


def _fmt_value(v: object) -> str:
    if isinstance(v, list) and v and isinstance(v[0], list) and all(isinstance(e, int) for e in v[0]):
        return _fmt_seq_set(v)
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_fmt_value(x)}" for k, x in v.items()) + "}"
    return str(v)


def _render(value: object, depth: int) -> list[str]:
    pad = "  " * depth
    out: list[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, dict):
                out.append(f"{pad}{k}:")
                out.extend(_render(v, depth + 1))
            elif isinstance(v, list) and v and isinstance(v[0], dict):
                out.append(f"{pad}{k}:")
                for i, item in enumerate(v):
                    out.append(f"{pad}  [{i}]")
                    out.extend(_render(item, depth + 2))
            else:
                out.append(f"{pad}{k}: {_fmt_value(v)}")
    else:
        out.append(f"{pad}{_fmt_value(value)}")
    return out


# --- argument handling ---------------------------------------------------


class UsageError(ValueError):
    pass


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on main's first call and kept: parsing
    leaves no state in it, and building it costs more than most runs."""
    parser = argparse.ArgumentParser(
        prog="tsalg",
        description="Workbench for transposition set algebras on finite sequence spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, modes: bool = True,
               seed: str | None = f"seed for sampled checks (default {DEFAULT_SEED})") -> None:
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=seed)
        if modes:
            grp = p.add_mutually_exclusive_group()
            grp.add_argument("--exhaustive", action="store_true",
                             help="force exhaustive enumeration (errors if over budget)")
            grp.add_argument("--random", type=int, metavar="TRIALS",
                             help="force sampled checking with this many trials")

    p = sub.add_parser("sigma-demo", help="reproduce the quasi-equation story at dimension N")
    p.add_argument("--n", type=int, required=True, help="dimension, between 2 and 6")
    p.add_argument("--all-perm-pairs", action="store_true",
                   help="check sigma for every permutation pair instead of the two n-cycles")
    common(p)

    p = sub.add_parser("check", help="check an equation or quasi-equation over an algebra")
    p.add_argument("--spec", required=True, help="path to an .alg file")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--eq", help="equation, e.g. 's[0,1] s[0,1] x = x'")
    grp.add_argument("--quasi", help="quasi-equation, e.g. 'x = 0 => s[0,1] x = 0'")
    common(p)

    p = sub.add_parser("verify-relativization",
                       help="check that intersecting with a permutable sub-carrier is a homomorphism")
    p.add_argument("--big", required=True, help=".alg file for the ambient algebra")
    p.add_argument("--sub", required=True, help=".alg file for the sub-carrier")
    common(p)

    p = sub.add_parser("decompose", help="decompose the full algebra over ^n k through its atoms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)

    p = sub.add_parser("closure", help="smallest permutable carrier containing the given one")
    p.add_argument("--spec", required=True, help="path to an .alg file")
    common(p, seed=None, modes=False)

    p = sub.add_parser("ultraproduct",
                       help="ultraproduct of full algebras by a principal ultrafilter")
    p.add_argument("--spec", action="append", required=True,
                   help="factor .alg file (repeat per factor)")
    p.add_argument("--index", type=int, default=0, help="principal index i0 (default 0)")
    common(p, seed="accepted and ignored: ultraproduct decides every class and samples nothing",
           modes=False)

    parser.commands = sub.choices
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """_build_parser().parse_args(argv), skipping the top-level parser
    when argv[0] names a subcommand."""
    parser = _build_parser()
    if not argv or argv[0] not in parser.commands:
        return parser.parse_args(argv)
    args, extra = parser.commands[argv[0]].parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def _echoable(what: str, value: int) -> int:
    """value, refused where a report could not echo it exactly: _encode
    writes ints wider than 256 bits as "at least 2^m"."""
    if value.bit_length() > 256:
        raise UsageError(f"{what} must be below 2^256 in absolute value, "
                         "since a report gives wider integers only as a power-of-two bound")
    return value


def _budget_from_env() -> int:
    raw = os.environ.get("TRA_BUDGET")
    if raw is None:
        return DEFAULT_ASSIGNMENT_BUDGET
    try:
        value = int(raw)
        if value <= 0:
            raise ValueError
    except ValueError:
        raise UsageError(f"TRA_BUDGET must be a positive integer, got {raw!r}") from None
    return _echoable("TRA_BUDGET", value)


def _mode_from_args(args: argparse.Namespace) -> Exhaustive | Random | None:
    if args.exhaustive:
        return Exhaustive()
    if args.random is not None:
        # 2^32 trials are more than a run could finish, and few enough that
        # trials times variables counts the draws in a C ssize_t
        if not 0 < args.random < 1 << 32:
            raise UsageError("--random takes a positive trial count, fewer than 2^32")
        return Random(args.random, args.seed)
    return None  # auto: resolve_mode picks with the run's budget


# --- subcommands ---------------------------------------------------------


def _cmd_sigma_demo(args: argparse.Namespace, budget: int) -> RunReport:
    n = args.n
    if not 2 <= n <= 6:
        raise UsageError(f"sigma-demo supports 2 <= n <= 6, got {n}")
    mode = _mode_from_args(args)
    counter = build_counterexample(n)
    escape = verify_h_escape(n, budget=budget, seed=args.seed) if n <= 4 else None
    pairs = "all" if args.all_perm_pairs else (forward_cycle(n), backward_cycle(n))
    small = sigma_holds_small(n, 2, pairs=pairs, mode=mode, budget=budget, seed=args.seed)
    passed = counter.passed and small.holds and small.agree and (escape is None or escape.passed)
    return RunReport(
        command="sigma-demo",
        inputs={"n": n, "all_perm_pairs": args.all_perm_pairs, "budget": budget},
        outcome="all assertions reproduced" if passed else "an assertion failed",
        passed=passed,
        mode=f"auto(budget={budget})" if mode is None else mode.label,
        seed=args.seed,
        counts={"counterexample_assignments": counter.verdict.assignments_tested,
                "sigma_small_assignments": small.assignments_tested},
        witness=counter.verdict.witness or None,
        details={
            "counterexample": counter,
            "sigma_small_base_2": small,
            "escape": escape or f"skipped (runs for n <= 4, n = {n})",
        },
    )


def _cmd_check(args: argparse.Namespace, budget: int) -> RunReport:
    spec = load_algebra_spec(args.spec)
    carrier = spec.to_carrier()
    if args.eq is not None:
        kind, text = "eq", args.eq
        formula: Equation | QuasiEquation = parse_equation(text)
        canonical, names, check = print_equation(formula), equation_vars(formula), check_equation
    else:
        kind, text = "quasi", args.quasi
        formula = parse_quasi(text)
        canonical, names, check = print_quasi(formula), quasi_vars(formula), check_quasi
    # resolved here, with the run's budget and seed, so the report names the mode
    mode = resolve_mode(1 << (carrier.size * len(names)), _mode_from_args(args),
                        budget, args.seed)
    verdict = check(carrier, formula, mode)
    return RunReport(
        command="check",
        inputs={"spec": spec, kind: text, "canonical": canonical, "budget": budget},
        outcome=verdict.outcome,
        passed=verdict.holds,
        mode=mode.label,
        seed=verdict.seed,
        counts={"assignments_tested": verdict.assignments_tested,
                "carrier_size": carrier.size},
        witness=verdict.witness or None,
    )


def _cmd_verify_relativization(args: argparse.Namespace, budget: int) -> RunReport:
    big = load_algebra_spec(args.big).to_carrier()
    sub = load_algebra_spec(args.sub).to_carrier()
    hom = verify_relativization(big, sub, mode=_mode_from_args(args), budget=budget,
                                seed=args.seed)
    return RunReport(
        command="verify-relativization",
        inputs={"big": big, "sub": sub, "budget": budget},
        outcome="homomorphism verified" if hom.passed else f"violation in {hom.violation['op']}",
        passed=hom.passed,
        mode=hom.mode,
        seed=hom.seed,
        counts={"elements_tested": hom.elements_tested, "pairs_tested": hom.pairs_tested},
        details=hom,
    )


def _cmd_decompose(args: argparse.Namespace, budget: int) -> RunReport:
    if args.n < 0 or args.k < 0:
        raise UsageError("--n and --k must be naturals")
    records, sep = decompose_small(args.n, args.k, mode=_mode_from_args(args),
                                   budget=budget, seed=args.seed)
    passed = all(r.image_nonzero for r in records) and sep.separated
    return RunReport(
        command="decompose",
        inputs={"n": args.n, "k": args.k, "budget": budget},
        outcome="atoms map faithfully and separate" if passed else "decomposition failed",
        passed=passed,
        mode=sep.mode,
        seed=sep.seed,
        counts={"atoms": len(records), "elements": sep.elements,
                "pairs_tested": sep.pairs_tested},
        details={"records": records, "separated": sep.separated,
                 "separation_failure": sep.failure},
    )


def _cmd_closure(args: argparse.Namespace, budget: int) -> RunReport:
    spec = load_algebra_spec(args.spec)
    carrier = spec.to_carrier()
    closed = permutable_closure(carrier)
    # re-check on a fresh carrier so the flag is computed, not assumed
    verified = is_permutable(Carrier(closed.n, closed.u, closed.members))
    return RunReport(
        command="closure",
        inputs={"spec": spec},
        outcome="closure computed",
        passed=verified,
        mode="exhaustive",
        seed=None,
        counts={"input_size": carrier.size, "closure_size": closed.size},
        details={"closure": closed, "permutable": verified},
    )


def _cmd_ultraproduct(args: argparse.Namespace, budget: int) -> RunReport:
    factors = [load_algebra_spec(path).to_carrier() for path in args.spec]
    result = principal_ultraproduct(factors, args.index)
    return RunReport(
        command="ultraproduct",
        inputs={"factors": factors, "index": args.index},
        outcome="ultraproduct collapses to the indexed factor" if result.passed
        else "ultraproduct check failed",
        passed=result.passed,
        mode=result.mode,
        seed=None,
        counts={"classes_tested": result.classes_tested},
        details=result,
    )


_HANDLERS = {
    "sigma-demo": _cmd_sigma_demo,
    "check": _cmd_check,
    "verify-relativization": _cmd_verify_relativization,
    "decompose": _cmd_decompose,
    "closure": _cmd_closure,
    "ultraproduct": _cmd_ultraproduct,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse already printed usage
        code = exc.code
        return code if isinstance(code, int) else 2
    started = time.perf_counter()
    try:
        budget = _budget_from_env()
        for flag in ("seed", "n", "k", "index"):
            _echoable(f"--{flag}", getattr(args, flag, 0))
        report = _HANDLERS[args.command](args, budget)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.wall_time_s = round(time.perf_counter() - started, 6)
    text = report.to_json() if args.json else report.to_text()
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the flush at exit
        # cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output closed before the report was written", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
