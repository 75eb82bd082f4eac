"""Command-line front end.

Subcommands::

    tsalg sigma-demo            --n N [--all-perm-pairs]
    tsalg check                 --spec F (--eq TEXT | --quasi TEXT)
    tsalg verify-relativization --big F --sub F
    tsalg decompose             --n N --k K
    tsalg closure               --spec F
    tsalg ultraproduct          --spec F [--spec F ...] [--index I]

Common flags: --exhaustive | --random TRIALS, --seed S, --json
(closure takes no mode or seed flags; ultraproduct takes --seed only).
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
import ast
import dataclasses
import functools
import json
import os
import sys
import time
from dataclasses import dataclass

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
    cleaned = "\n".join(line.split("#", 1)[0] for line in text.splitlines())

    def line_of(pos: int) -> int:
        return cleaned.count("\n", 0, pos) + 1

    fields: dict[str, object] = {}
    pos = 0
    size = len(cleaned)
    while True:
        while pos < size and cleaned[pos].isspace():
            pos += 1
        if pos >= size:
            break
        start = pos
        while pos < size and (cleaned[pos].isalnum() or cleaned[pos] == "_"):
            pos += 1
        key = cleaned[start:pos]
        if not key:
            raise SpecFileError(f"{source}:{line_of(pos)}: expected a key, found {cleaned[pos]!r}")
        if key in fields:
            raise SpecFileError(f"{source}:{line_of(start)}: duplicate key {key!r}")
        while pos < size and cleaned[pos] in " \t":
            pos += 1
        if pos >= size or cleaned[pos] != "=":
            raise SpecFileError(f"{source}:{line_of(pos)}: expected '=' after {key!r}")
        pos += 1
        while pos < size and cleaned[pos] in " \t":
            pos += 1
        if pos >= size or cleaned[pos] == "\n":
            raise SpecFileError(f"{source}:{line_of(pos)}: missing value for {key!r}")
        if cleaned[pos] == "[":
            depth = 0
            vstart = pos
            while pos < size:
                if cleaned[pos] == "[":
                    depth += 1
                elif cleaned[pos] == "]":
                    depth -= 1
                    if depth == 0:
                        pos += 1
                        break
                pos += 1
            if depth != 0:
                raise SpecFileError(f"{source}:{line_of(vstart)}: unbalanced brackets in {key!r}")
            try:
                value = ast.literal_eval(cleaned[vstart:pos])
            except (ValueError, SyntaxError) as exc:
                raise SpecFileError(f"{source}:{line_of(vstart)}: bad list for {key!r}: {exc}") from None
            fields[key] = value
        else:
            vstart = pos
            while pos < size and not cleaned[pos].isspace():
                pos += 1
            word = cleaned[vstart:pos]
            if word.isdigit():
                fields[key] = int(word)
            elif word:
                fields[key] = word
            else:
                raise SpecFileError(f"{source}:{line_of(vstart)}: missing value for {key!r}")

    for required in ("n", "base", "carrier"):
        if required not in fields:
            raise SpecFileError(f"{source}: missing key {required!r}")
    extra = set(fields) - {"n", "base", "carrier"}
    if extra:
        raise SpecFileError(f"{source}: unknown keys {sorted(extra)}")
    n = fields["n"]
    base = fields["base"]
    if not isinstance(n, int) or not isinstance(base, int):
        raise SpecFileError(f"{source}: 'n' and 'base' must be naturals")
    carrier = fields["carrier"]
    if carrier == "full":
        return AlgebraSpec(n, base, "full")
    if not isinstance(carrier, list) or not all(
        isinstance(row, list) and all(isinstance(e, int) for e in row) for row in carrier
    ):
        raise SpecFileError(f"{source}: carrier must be 'full' or a list of sequences")
    return AlgebraSpec(n, base, tuple(tuple(row) for row in carrier))


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
        return json.dumps(_encode(self), indent=2, sort_keys=True)

    def to_text(self) -> str:
        r = _encode(self)
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


def _encode(value: object) -> object:
    """JSON data for a report value: dataclasses give their fields (under
    the field's metadata "key" when set) then their public properties;
    carriers, elements, permutations and verdicts have fixed forms, and
    ints wider than 256 bits become fmt_count text (str() and json refuse
    integers past 4300 digits)."""
    if isinstance(value, Carrier):
        d: dict = {"n": value.n, "base": value.u, "size": value.size}
        if value.size <= 64:
            d["members"] = [list(s) for s in value.seqs]
        return d
    if isinstance(value, Elem):
        return [list(s) for s in value.seqs()]
    if isinstance(value, Perm):
        return list(value.images)
    if isinstance(value, Verdict):
        d = {"outcome": value.outcome, "assignments_tested": value.assignments_tested}
        if value.trials is not None:
            d["trials"] = value.trials
        if value.seed is not None:
            d["seed"] = value.seed
        if value.witness is not None:
            d["witness"] = _encode(dict(sorted(value.witness.items())))
        return d
    if dataclasses.is_dataclass(value):
        d = {f.metadata.get("key", f.name): _encode(getattr(value, f.name))
             for f in dataclasses.fields(value)}
        for name, attr in vars(type(value)).items():
            if isinstance(attr, property) and not name.startswith("_"):
                d[name] = _encode(getattr(value, name))
        return d
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, int) and value.bit_length() > 256:
        return fmt_count(value)
    return value


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

    def common(p: argparse.ArgumentParser, seed: bool = True, modes: bool = True) -> None:
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                           help=f"seed for sampled checks (default {DEFAULT_SEED})")
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
    common(p, seed=False, modes=False)

    p = sub.add_parser("ultraproduct",
                       help="ultraproduct of full algebras by a principal ultrafilter")
    p.add_argument("--spec", action="append", required=True,
                   help="factor .alg file (repeat per factor)")
    p.add_argument("--index", type=int, default=0, help="principal index i0 (default 0)")
    common(p, modes=False)

    return parser


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
        if args.random <= 0:
            raise UsageError("--random needs a positive trial count")
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
    result = principal_ultraproduct(factors, args.index, seed=args.seed)
    return RunReport(
        command="ultraproduct",
        inputs={"factors": factors, "index": args.index},
        outcome="ultraproduct collapses to the indexed factor" if result.passed
        else "ultraproduct check failed",
        passed=result.passed,
        mode=result.mode,
        seed=result.seed,
        counts={"classes_tested": result.classes_tested,
                "lift_pairs_tested": result.lift_pairs_tested},
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        code = exc.code
        return code if isinstance(code, int) else 2
    started = time.perf_counter()
    try:
        budget = _budget_from_env()
        _echoable("--seed", getattr(args, "seed", 0))
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
