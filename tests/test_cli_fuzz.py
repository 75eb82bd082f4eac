"""Fuzzing cli.main: any command line ends with exit 0, 1 or 2.

Inputs are random .alg documents (keys, values, brackets, comments),
term text, and int flags that reach past 2**64.  Carriers that get built
keep to 16 members or fewer and the trial counts stay small, so every run
ends quickly; sizes past the caps must be refused without being built.
The .alg parser is also tested on its own, against ast.literal_eval and
on deep and long lists; the term parser at and past its nesting and
height limits; and main's argument routing against argparse's.
"""

import ast
import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

import hypothesis
import hypothesis.strategies as strat
import pytest

from tsalg import cli
from tsalg.cli import main, parse_algebra_spec
from tsalg.termlang import (MAX_NESTING, TermSyntaxError, parse_equation, parse_term,
                            print_equation)

#: Ints past every cap and past 2**64, both signs.
HUGE = strat.sampled_from([1 << 32, 1 << 63, (1 << 64) + 1, 10**29, 1 << 300]).flatmap(
    lambda v: strat.sampled_from([v, -v]))

#: (n, base) pairs of at most 16 sequences.
SMALL_SPACES = [(0, 0), (0, 3), (1, 0), (1, 1), (1, 5), (1, 16), (2, 0), (2, 1), (2, 2), (2, 3),
                (2, 4), (3, 1), (3, 2), (4, 1), (4, 2)]


@strat.composite
def spaces(draw) -> tuple[int, int]:
    """(n, base): mostly of at most 16 sequences, at times huge in one."""
    pick = draw(strat.integers(0, 9))
    if pick == 8:
        return draw(HUGE.map(abs)), draw(strat.integers(0, 3))
    if pick == 9:
        return draw(strat.integers(0, 2)), draw(HUGE.map(abs))
    return draw(strat.sampled_from(SMALL_SPACES))


@strat.composite
def flag(draw, small: strat.SearchStrategy) -> str:
    """An int flag's text: mostly small, at times huge, not positive or
    not a number."""
    pick = draw(strat.integers(0, 19))
    if pick in (16, 17):
        return str(draw(HUGE))
    if pick == 18:
        return str(draw(strat.integers(-3, 0)))
    if pick == 19:
        return draw(strat.sampled_from(["", "x", "1.5", "0x10"]))
    return str(draw(small))


@strat.composite
def carrier_lists(draw, n: int) -> str:
    """A list value: mostly sequences of length n over small entries."""
    rows = draw(strat.lists(
        strat.lists(strat.integers(-1, 3), min_size=n, max_size=n) | strat.lists(strat.integers(0, 3)),
        max_size=6))
    text = "[" + ", ".join("[" + ",".join(map(str, row)) + "]" for row in rows) + "]"
    if draw(strat.booleans()):
        # break it: drop or repeat a bracket, or splice in a comment
        at = draw(strat.integers(0, len(text)))
        text = text[:at] + draw(strat.sampled_from(["", "[", "]", "# c\n", "\n", "x"])) + text[at:]
    return text


@strat.composite
def alg_texts(draw, space: tuple[int, int] | None = None) -> str:
    """An .alg document over space, (n, base), or a drawn one: the three
    keys with plausible values, shuffled, at times with comments, noise
    lines, a doubled or unknown key, or nothing but random text."""
    n, base = space or draw(spaces())
    carrier = draw(strat.one_of(strat.just("full"), strat.just("full"), carrier_lists(n if n < 8 else 2),
                                strat.text("full[]0123, ", max_size=24)))
    lines = [f"n = {n}", f"base = {base}", f"carrier = {carrier}"]
    if draw(strat.integers(0, 3)) == 0:
        lines += draw(strat.lists(strat.sampled_from(
            ["# comment", "", "n = 2", "extra = 1", "carrier =", "base = two", "= 3", "[", "]"]),
            min_size=1, max_size=2))
    lines = draw(strat.permutations(lines))
    if draw(strat.integers(0, 9)) == 0:
        lines = [draw(strat.text("nbasecrierfull =[]0123456789,#\n", max_size=60))]
    return "\n".join(line + draw(strat.sampled_from(["", "  # note", "\t"])) for line in lines)


@strat.composite
def terms(draw, n: int, depth: int = 3) -> str:
    """Term text over x, y, z for dimension n: substitutions mostly fit
    it, at times not (coordinates past n or 2**64, image lists too long)."""
    if depth == 0 or draw(strat.integers(0, 3)) == 0:
        return draw(strat.sampled_from(["x", "y", "z", "0", "1"]))
    kind = draw(strat.integers(0, 4))
    arg = draw(terms(n, depth - 1))
    fits = draw(strat.integers(0, 4)) > 0
    if kind == 0:
        return f"~{arg}"
    if kind == 1:
        coord = strat.integers(0, max(n - 1, 1)) if fits else strat.integers(0, 4) | HUGE.map(abs)
        i = draw(coord)
        return f"s[{i},{draw(coord.filter(lambda j: j != i))}] {arg}"
    if kind == 2:
        length = n if fits and 1 <= n <= 6 else draw(strat.integers(1, 4))
        return "s{" + ",".join(map(str, draw(strat.permutations(range(length))))) + "} " + arg
    op = "&" if kind == 3 else "|"
    return f"({arg} {op} {draw(terms(n, depth - 1))})"


@strat.composite
def formulas(draw, n: int) -> tuple[str, str]:
    """(--eq or --quasi, its text): at times cut short."""
    eq = f"{draw(terms(n))} = {draw(terms(n))}"
    if draw(strat.booleans()):
        return "--eq", eq if draw(strat.integers(0, 5)) else eq[: draw(strat.integers(0, len(eq)))]
    return "--quasi", f"{draw(terms(n))} = {draw(terms(n))} => {eq}"


def mode_flags(draw) -> list[str]:
    picked = draw(strat.sampled_from(["auto", "exhaustive", "random"]))
    out = {"auto": [], "exhaustive": ["--exhaustive"],
           "random": ["--random", draw(flag(strat.integers(1, 20)))]}[picked]
    if draw(strat.booleans()):
        out += ["--seed", draw(flag(strat.integers(0, 1 << 31)))]
    return out + draw(strat.sampled_from([[], ["--json"]]))


@strat.composite
def command_lines(draw) -> tuple[list[str], list[str]]:
    """(argv with @0, @1, ... for spec files, the .alg texts to write)."""
    command = draw(strat.sampled_from(
        ["check", "verify-relativization", "decompose", "closure", "ultraproduct", "sigma-demo"]))
    if command == "check":
        space = draw(spaces())
        which, text = draw(formulas(min(space[0], 8)))
        return ["check", "--spec", "@0", which, text, *mode_flags(draw)], [draw(alg_texts(space))]
    if command == "verify-relativization":
        space = draw(spaces())
        return ["verify-relativization", "--big", "@0", "--sub", "@1", *mode_flags(draw)], \
            [draw(alg_texts(space)), draw(alg_texts(space) | alg_texts())]
    if command == "decompose":
        n, k = draw(spaces())
        return ["decompose", "--n", draw(flag(strat.just(n))), "--k", draw(flag(strat.just(k))),
                *mode_flags(draw)], []
    if command == "closure":
        return ["closure", "--spec", "@0", *draw(strat.sampled_from([[], ["--json"]]))], \
            [draw(alg_texts())]
    if command == "ultraproduct":
        n = draw(spaces())[0]
        bases = strat.sampled_from([u for m, u in SMALL_SPACES if m == n] or [1])
        specs = draw(strat.lists(alg_texts((n, draw(bases))) | alg_texts(), min_size=1, max_size=3))
        argv = ["ultraproduct"]
        for i in range(len(specs)):
            argv += ["--spec", f"@{i}"]
        if draw(strat.booleans()):
            argv += ["--index", draw(flag(strat.integers(0, 3)))]
        if draw(strat.booleans()):
            argv += ["--seed", draw(flag(strat.integers(0, 1 << 31)))]
        return argv, specs
    return ["sigma-demo", "--n", draw(flag(strat.integers(2, 3))), *mode_flags(draw)], []


@hypothesis.settings(deadline=None, max_examples=300,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(command_lines())
@hypothesis.example((["check", "--spec", "@0", "--eq", "x = x", "--random", str(10**29)],
                     ["n = 2\nbase = 2\ncarrier = full\n"]))
@hypothesis.example((["closure", "--spec", "@0"], [f"n = {(1 << 64) + 1}\nbase = 1\ncarrier = full"]))
@hypothesis.example((["decompose", "--n", str((1 << 64) + 1), "--k", "1"], []))
def test_main_exits_0_1_or_2(case):
    argv, texts = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            path = Path(tmp) / f"{i}.alg"
            path.write_text(text)
            paths.append(str(path))
        argv = [paths[int(arg[1:])] if arg[:1] == "@" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert time.perf_counter() - started < 10, argv
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_all_perm_pairs_past_dimension_five_exits_two(flags):
    # 720**2 pairs at n = 6: a usage error with its cap, which the flag's
    # help line names
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sigma-demo", "--n", "6", "--all-perm-pairs", *flags])
    assert (code, out.getvalue(), err.getvalue()) == (2, "", "error: all-pairs mode is capped at dimension 5\n")
    with contextlib.redirect_stdout(out):
        assert main(["sigma-demo", "--help"]) == 0
    assert "every permutation pair (n <= 5)" in " ".join(out.getvalue().split())


# --- the .alg parser on its own ------------------------------------------------

#: What may stand between a list's tokens: blanks, line breaks, comments.
BLANKS = strat.text(" \t\n", max_size=3) | strat.sampled_from(["  # note\n", "\n# a line\n\t"])


@strat.composite
def seq_lists(draw) -> str:
    """A list of sequences of naturals as the README's grammar allows it:
    blanks and comments between any tokens, and at times a trailing comma."""

    def bracketed(items: list[str]) -> str:
        text = "".join(draw(BLANKS) + item + draw(BLANKS) + "," for item in items)
        if items and draw(strat.booleans()):
            text = text[:-1]
        return "[" + text + draw(BLANKS) + "]"

    rows = draw(strat.lists(strat.lists(strat.integers(0, 10**30), max_size=5), max_size=6))
    return bracketed([bracketed([str(e) for e in row]) for row in rows])


@hypothesis.settings(deadline=None, max_examples=500)
@hypothesis.given(seq_lists())
@hypothesis.example("[]")
@hypothesis.example("[[]]")
@hypothesis.example("[[0,],[1 ,2 ] ,]")
def test_spec_lists_read_as_literal_eval_reads_them(text):
    expected = tuple(tuple(row) for row in ast.literal_eval(text))
    assert parse_algebra_spec(f"n = 1\nbase = 1\ncarrier = {text}\n").carrier == expected


@pytest.mark.parametrize("body, message", [
    ("[" * 100_000 + "]" * 100_000, "carrier must be 'full' or a list of sequences"),
    ("[" * 100_000 + "]" * 99_999, ":3: unbalanced brackets in 'carrier'"),
], ids=["balanced", "unbalanced"])
def test_deep_nesting_exits_two_with_a_true_message(tmp_path, body, message):
    path = tmp_path / "deep.alg"
    path.write_text(f"n = 1\nbase = 1\ncarrier = {body}\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["closure", "--spec", str(path)]) == 2
    assert err.getvalue().startswith(f"error: {path}") and message in err.getvalue()


def test_long_list_parses_in_bounded_time():
    rows = [(r % 2, r // 2 % 2, r % 3) for r in range(200_000)]
    text = "n = 3\nbase = 3\ncarrier = [" + ",\n".join(str(list(row)) for row in rows) + "]\n"
    started = time.perf_counter()
    spec = parse_algebra_spec(text)
    assert time.perf_counter() - started < 3
    assert spec.carrier == tuple(rows)


# --- the term parser's nesting limit ----------------------------------------

#: name -> (the text that opens one nesting level, what closes it, and the
#: offset of the level's opener in that text)
OPENERS = {
    "paren": ("(", ")", 0),
    "not": ("~", "", 0),
    "swap": ("s[0,1] ", "", 0),
    "images": ("s{1,0} ", "", 0),
    "meet": ("x & (", ")", 4),
}


def _nested(name: str, depth: int) -> str:
    opener, closer, _ = OPENERS[name]
    return opener * depth + "x" + closer * depth


def _check(spec: str, eq: str, *flags: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", "--spec", spec, "--eq", eq, *flags])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("rhs, code", [("x", 0), ("~x", 1)], ids=["holds", "fails"])
@pytest.mark.parametrize("name", OPENERS)
def test_term_at_the_nesting_limit_checks_prints_and_round_trips(tmp_path, name, rhs, code):
    # every opener here keeps x's value or complements it an even number of
    # times, so "= x" holds and "= ~x" fails at the first assignment, whose
    # witness is re-checked by walking the whole tree
    spec = tmp_path / "full22.alg"
    spec.write_text("n = 2\nbase = 2\ncarrier = full\n")
    text = f"{_nested(name, MAX_NESTING)} = {rhs}"
    eq = parse_equation(text)
    assert parse_equation(print_equation(eq)) == eq
    got, out, err = _check(str(spec), text)
    assert (got, err) == (code, "")
    assert f"  canonical: {print_equation(eq)}" in out.splitlines()
    got, out, err = _check(str(spec), text, "--json")
    assert (got, err) == (code, "")
    assert parse_equation(json.loads(out)["inputs"]["canonical"]) == eq


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 100_000])
@pytest.mark.parametrize("name", OPENERS)
def test_term_past_the_nesting_limit_exits_two_at_its_opener(tmp_path, name, depth):
    spec = tmp_path / "full22.alg"
    spec.write_text("n = 2\nbase = 2\ncarrier = full\n")
    opener, _, at = OPENERS[name]
    offset = len(opener) * MAX_NESTING + at
    message = f"term nests deeper than {MAX_NESTING} levels (at offset {offset})"
    with pytest.raises(TermSyntaxError) as exc:
        parse_term(_nested(name, depth))
    assert str(exc.value) == message and exc.value.position == offset
    started = time.perf_counter()
    for flags in ([], ["--json"]):
        assert _check(str(spec), f"{_nested(name, depth)} = x", *flags) == (2, "", f"error: {message}\n")
    assert time.perf_counter() - started < 5


# --- long chains --------------------------------------------------------------

#: name -> a failing law whose lhs holds a chain of the given operand count
LONG = {
    "meet": lambda operands: " & ".join(["x"] * operands) + " = 0",
    "join": lambda operands: " | ".join(["x"] * operands) + " = 0",
    # the chain under MAX_NESTING - 1 complements, the most '~' a path may
    # hold besides the '('
    "not": lambda operands: "~" * (MAX_NESTING - 1) + "(" + " & ".join(["x"] * operands) + ") = 1",
}


@pytest.mark.parametrize("operands", [502, 30_000])
@pytest.mark.parametrize("name", LONG)
def test_long_chain_checks_and_prints(tmp_path, name, operands):
    # a chain is one node, so its length is not limited: 502 operands pass
    # the 500-operator height limit the parser once had, and at 30,000 the
    # compile walk, the witness re-check and the printer still run from main
    # under pytest
    spec = tmp_path / "full22.alg"
    spec.write_text("n = 2\nbase = 2\ncarrier = full\n")
    text = LONG[name](operands)
    eq = parse_equation(text)
    assert print_equation(parse_equation(print_equation(eq))) == print_equation(eq)
    for flags in ([], ["--json"]):
        got, out, err = _check(str(spec), text, *flags)
        assert (got, err) == (1, ""), err
    assert json.loads(out)["inputs"]["canonical"] == print_equation(eq)


# --- argument routing --------------------------------------------------------

COMMANDS = ["check", "closure", "decompose", "sigma-demo", "ultraproduct", "verify-relativization"]
ARGV_WORDS = strat.sampled_from(
    COMMANDS + ["nonsense", "--spec", "--eq", "--quasi", "--big", "--sub", "--n", "--k", "--index",
                "--seed", "--random", "--exhaustive", "--all-perm-pairs", "--json", "--bogus", "-x",
                "-h", "--help", "--", "2", "-1", "x = x", "", "a.alg", "--spec=a.alg", "--n=3"])


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(strat.lists(ARGV_WORDS, max_size=8)
                  | strat.tuples(strat.sampled_from(COMMANDS), strat.lists(ARGV_WORDS, max_size=8))
                  .map(lambda t: [t[0], *t[1]]))
@hypothesis.example([])
@hypothesis.example(["check", "--spec", "a.alg", "--eq", "x = x", "extra"])
@hypothesis.example(["decompose", "--n", "2", "--k", "2", "--", "--json"])
def test_main_routes_argv_as_the_top_level_parser_does(argv):
    def outcome(parse):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = parse(list(argv))
            except SystemExit as exc:
                result = exc.code
        return result, out.getvalue(), err.getvalue()

    assert outcome(cli._parse_args) == outcome(cli._build_parser().parse_args)
