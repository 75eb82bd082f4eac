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
Each run builds one checking mode from its flags (_mode_from_args):
Exhaustive(budget) under --exhaustive, Random(TRIALS, S) under --random,
and otherwise Auto(budget, S), which enumerates when a check's work fits
the budget and samples 2000 trials from S when it does not.  The budget
is the environment variable TRA_BUDGET when set, else 2^20.  sigma-demo's
escape step runs in Auto(budget, S) whatever the flags.

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
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, NoReturn

from .algebra import (
    Carrier,
    Elem,
    _swap_closed,
    carrier_from_seqs,
    full_carrier,
    permutable_closure,
)
from .seqspace import Perm, Seq
from .termlang import (
    DEFAULT_ASSIGNMENT_BUDGET,
    DEFAULT_SEED,
    Auto,
    Exhaustive,
    Mode,
    QuasiEquation,
    Random,
    Verdict,
    check_quasi,
    fmt_count,
    parse_equation,
    parse_quasi,
    print_quasi,
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
#: A list of sequences of naturals, two deep, trailing commas allowed.
_SEQ_LIST = re.compile(r"\[\s*(?:\[\s*(?:[0-9]+\s*(?:,\s*|(?=\])))*\]\s*(?:,\s*|(?=\])))*\]")
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
                fields[key] = int(word) if word.isascii() and word.isdigit() else word
            except ValueError as exc:  # past int's digit limit
                fail(pos, f"bad value for {key!r}: {exc}")
            pos = m.end()
        elif seqs := _SEQ_LIST.match(cleaned, pos):
            rows = cleaned[pos + 1:seqs.end() - 1].replace(",", " ").replace("[", " ").split("]")
            try:
                fields[key] = tuple([tuple(map(int, row.split())) for row in rows[:-1]])
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
    """The .alg file at path, read as UTF-8; its lines may end in CRLF."""
    try:
        with open(path, "rb", buffering=0) as fh:
            text = (data := fh.read()).decode()
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:  # "x" for the bad byte: lines as the parser counts them
        line = len((data[:exc.start].decode() + "x").splitlines())
        raise SpecFileError(f"{path}:{line}: not UTF-8: byte {data[exc.start]:#04x} ({exc.reason})") from None
    return parse_algebra_spec(text, source=path)


# --- report plumbing ----------------------------------------------------


@dataclass
class RunReport:
    """Everything one invocation did: echoed inputs, verdict, counts, as
    library objects that both report forms read through _fields."""

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
        return _json(self, "\n", {})

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        lines += [f"  {k}: {_display(v)}" for k, v in _fields(self.inputs).items()]
        lines.append(f"mode: {self.mode}" + (f"  seed: {self.seed}" if self.seed is not None else ""))
        lines += [f"  {k}: {_repr(v, str)}" for k, v in _fields(self.counts).items()]
        if details := _fields(self.details):
            lines += _render(details, "")
        lines.append(f"outcome: {self.outcome}")
        if self.witness:  # each an element, its rows a set of sequences
            lines += [f"witness: {name} = {_fields(x).fill('{', ', ', '}', '(', ',', ')')}"
                      for name, x in sorted(_fields(self.witness).items())]
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}  ({self.wall_time_s:.3f}s)")
        return "\n".join(lines)


def _fields(value: object) -> object:
    """One level of a report value, the one description both report forms
    read: a dict of str keys, in report order, for a dict, a carrier (n,
    base, size and up to 64 members), a spec, a verdict (its fields not
    None) or a dataclass (its fields, under their metadata "key" when set,
    then public properties); an element's member rows, a permutation's
    images; an int of 2^256 or wider, but a base or entry, as fmt_count."""
    if isinstance(value, dict):
        return {str(k): v for k, v in value.items()}
    if isinstance(value, (list, tuple, str, float)) or value is None:
        return value
    if isinstance(value, int):
        return fmt_count(value) if value.bit_length() > 256 and type(value) is not _Digits else value
    if isinstance(value, Carrier):
        return {"n": value.n, "base": value.u if value.u.bit_length() <= 256 else _Digits(value.u),
                "size": value.size, **({"members": _Rows(value.seqs)} if value.size <= 64 else {})}
    if isinstance(value, Elem):
        return _Rows(value.seqs())
    if isinstance(value, Perm):
        return value.images
    if isinstance(value, AlgebraSpec):  # its base and entries replay in full digits
        return {"n": value.n, "base": _Digits(value.base),
                "carrier": value.carrier if isinstance(value.carrier, str) else _Rows(value.carrier)}
    if isinstance(value, Verdict):
        level = dict(outcome=value.outcome, assignments_tested=value.assignments_tested, trials=value.trials,
                     seed=value.seed, witness=value.witness and dict(sorted(value.witness.items())))
        return {k: v for k, v in level.items() if v is not None}
    if dataclasses.is_dataclass(value):
        return {key: getattr(value, name) for key, name in _report_fields(type(value))}
    return value


@functools.cache
def _report_fields(cls: type) -> tuple[tuple[str, str], ...]:
    """(key, attribute) pairs that _fields reports for a dataclass."""
    return tuple([(f.metadata.get("key", f.name), f.name) for f in dataclasses.fields(cls)]
                 + [(name, name) for name, attr in vars(cls).items()
                    if isinstance(attr, property) and not name.startswith("_")])


class _Digits(int):
    """An int that reports write in digits however wide."""


class _Rows(tuple):
    """A carrier's or an element's members: equally long sequences of plain ints."""

    def fill(self, open_: str, sep: str, close: str, row_open: str, row_sep: str, row_close: str) -> str:
        """The rows, sep between each two inside open_ and close, each through one % template."""
        row = row_open + row_sep.join(["%d"] * (len(self[0]) if self else 0)) + row_close
        return open_ + sep.join(map(row.__mod__, self)) + close


def _json(value: object, pad: str, carriers: dict) -> str:
    """value as json.dumps(..., indent=2, sort_keys=True) writes its levels, in one walk; pad
    is the line break and indent before its closing bracket, carriers holds each carrier's texts."""
    if isinstance(value, Carrier):  # kept alive in carriers, so its id is its own
        texts = carriers.setdefault(id(value), (value, {}))[1]
        return texts.get(pad) or texts.setdefault(pad, _json(_fields(value), pad, carriers))
    level, inner, deeper = _fields(value), pad + "  ", pad + "    "
    if isinstance(level, _Rows) and level and level[0]:  # rows of no ints go as empty lists
        return level.fill("[" + inner, "," + inner, pad + "]", "[" + deeper, "," + deeper, inner + "]")
    if not isinstance(level, (dict, list, tuple)) or not level:
        return json.dumps(level)  # a scalar, an empty dict or list, or refused
    keys, brackets = (sorted(level), "{}") if isinstance(level, dict) else (None, "[]")
    texts = [encode_basestring_ascii(v) if type(v) is str  # the common scalars inline
             else repr(v) if type(v) is int and v.bit_length() <= 256
             else ("true" if v else "false") if type(v) is bool
             else "null" if v is None
             else _json(v, inner, carriers) for v in (map(level.__getitem__, keys) if keys else level)]
    if keys:
        texts = map(str.__add__, [encode_basestring_ascii(k) + ": " for k in keys], texts)
    return brackets[0] + inner + ("," + inner).join(texts) + pad + brackets[1]


def _render(level: object, pad: str) -> list[str]:
    """The text report's lines for a level: one per key of a dict, with a
    dict or a list of dicts below it one level deeper, else one _display."""
    if not isinstance(level, dict):
        return [pad + _display(level)]
    out = []
    for k, v in level.items():
        sub = _fields(v)
        if isinstance(sub, dict):
            out += [f"{pad}{k}:", *_render(sub, pad + "  ")]
        elif isinstance(sub, (list, tuple)) and sub and isinstance(_fields(sub[0]), dict):
            out.append(f"{pad}{k}:")
            for i, item in enumerate(sub):
                out += [f"{pad}  [{i}]", *_render(_fields(item), pad + "    ")]
        else:
            out.append(f"{pad}{k}: {_display(sub) if isinstance(sub, (list, tuple)) else str(sub)}")
    return out


def _display(value: object) -> str:
    """value on a line of the text report: a dict as {key: value, ...}, a list
    whose first item is a sequence of ints as {(0,1), (1,0)}, else str()."""
    level = _fields(value)
    if isinstance(level, dict):
        return "{" + ", ".join([f"{k}: {_display(v)}" for k, v in level.items()]) + "}"
    if isinstance(level, _Rows) and level:
        return level.fill("{", ", ", "}", "(", ",", ")")
    if (isinstance(level, (list, tuple)) and level and isinstance(first := _fields(level[0]), (list, tuple))
            and all(isinstance(_fields(e), int) for e in first)):
        rows = [s.fill("(", ",", ")", "[", ", ", "]") if isinstance(s, _Rows)  # an element's rows, in digits
                else "(" + ",".join([_repr(e, str) for e in s]) + ")" for s in map(_fields, level)]
        return "{" + ", ".join(rows) + "}"
    return _repr(level, str) if isinstance(level, (list, tuple)) else str(level)


def _repr(value: object, show: Callable[[object], str] = repr) -> str:
    """show() of value's level, a dict or a list as repr() of its levels."""
    level = _fields(value)
    if isinstance(level, dict):
        return "{" + ", ".join([f"{k!r}: {_repr(v)}" for k, v in level.items()]) + "}"
    if isinstance(level, _Rows):
        return level.fill("[", ", ", "]", "[", ", ", "]")
    if isinstance(level, (list, tuple)):
        texts = [repr(v) if type(v) is int and v.bit_length() <= 256 else _repr(v) for v in level]
        return "[" + ", ".join(texts) + "]"
    return show(level)


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
                   help="check sigma for every permutation pair (n <= 5) instead of the two n-cycles")
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
    """value, refused where a report could not echo it exactly: reports
    write ints wider than 256 bits as "at least 2^m" (see _fields)."""
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


def _mode_from_args(args: argparse.Namespace, budget: int) -> Mode:
    """The run's one mode: its flags, with the run's budget and seed."""
    if args.exhaustive:
        return Exhaustive(budget)
    if args.random is not None:
        # 2^32 trials are more than a run could finish, and few enough that
        # trials times variables counts the draws in a C ssize_t
        if not 0 < args.random < 1 << 32:
            raise UsageError("--random takes a positive trial count, fewer than 2^32")
        return Random(args.random, args.seed)
    return Auto(budget, args.seed)


# --- subcommands ---------------------------------------------------------


def _cmd_sigma_demo(args: argparse.Namespace, budget: int) -> RunReport:
    n = args.n
    if not 2 <= n <= 6:
        raise UsageError(f"sigma-demo supports 2 <= n <= 6, got {n}")
    mode = _mode_from_args(args, budget)
    counter = build_counterexample(n)
    escape = verify_h_escape(n, Auto(budget, args.seed)) if n <= 4 else None
    pairs = "all" if args.all_perm_pairs else (forward_cycle(n), backward_cycle(n))
    small = sigma_holds_small(n, 2, pairs, mode)
    passed = counter.passed and small.holds and small.agree and (escape is None or escape.passed)
    return RunReport(
        command="sigma-demo",
        inputs={"n": n, "all_perm_pairs": args.all_perm_pairs, "budget": budget},
        outcome="all assertions reproduced" if passed else "an assertion failed",
        passed=passed,
        mode=mode.label,
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
    kind, text = ("eq", args.eq) if args.eq is not None else ("quasi", args.quasi)
    formula = QuasiEquation((), parse_equation(text)) if kind == "eq" else parse_quasi(text)
    verdict = check_quasi(carrier, formula, _mode_from_args(args, budget))
    return RunReport(
        command="check",
        inputs={"spec": spec, kind: text, "canonical": print_quasi(formula), "budget": budget},
        outcome=verdict.outcome,
        passed=verdict.holds,
        mode=verdict.mode,
        seed=verdict.seed,
        counts={"assignments_tested": verdict.assignments_tested,
                "carrier_size": carrier.size},
        witness=verdict.witness or None,
    )


def _cmd_verify_relativization(args: argparse.Namespace, budget: int) -> RunReport:
    big = load_algebra_spec(args.big).to_carrier()
    sub = load_algebra_spec(args.sub).to_carrier()
    hom = verify_relativization(big, sub, _mode_from_args(args, budget))
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
    records, sep = decompose_small(args.n, args.k, _mode_from_args(args, budget))
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
    # re-checked, not read from the flag that is_permutable caches
    verified = _swap_closed(closed)
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
