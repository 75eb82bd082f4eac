import argparse
import dataclasses
import enum
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import hypothesis
import hypothesis.strategies as strat
import pytest

import oracles
from tsalg import cli
from tsalg.algebra import Carrier, Elem, carrier_from_seqs, elem_from_seqs, full_carrier
from tsalg.cli import AlgebraSpec, SpecFileError, main, parse_algebra_spec
from tsalg.seqspace import Perm
from tsalg.termlang import DEFAULT_SEED, Verdict, parse_equation, parse_quasi, equation_violated, quasi_violated

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def full22(tmp_path):
    p = tmp_path / "full22.alg"
    p.write_text("n = 2\nbase = 2\ncarrier = full\n")
    return str(p)


@pytest.fixture
def units3(tmp_path):
    p = tmp_path / "units3.alg"
    p.write_text("# three unit sequences\nn = 3\nbase = 2\ncarrier = [[0,0,1],[0,1,0],[1,0,0]]\n")
    return str(p)


@pytest.fixture
def full32(tmp_path):
    p = tmp_path / "full32.alg"
    p.write_text("n = 3\nbase = 2\ncarrier = full\n")
    return str(p)


# --- .alg parsing -----------------------------------------------------------


def test_parse_algebra_spec_full():
    spec = parse_algebra_spec("n = 2\nbase = 3\ncarrier = full\n")
    assert spec == AlgebraSpec(2, 3, "full")
    assert spec.to_carrier().size == 9


def test_parse_algebra_spec_explicit_and_comments():
    text = """
    # comment line
    n = 2          # trailing comment
    base = 2
    carrier = [[0, 1],
               [1, 0]]
    """
    spec = parse_algebra_spec(text)
    assert spec.carrier == ((0, 1), (1, 0))
    assert spec.to_carrier() == carrier_from_seqs(2, 2, [(0, 1), (1, 0)])
    # comments inside a list, blank lines and trailing commas
    text = "n = 2\nbase = 2\ncarrier = [  # swapped\n  [0, 1,],  # first\n\n\t[1,0],\n]  # end\n"
    assert parse_algebra_spec(text).carrier == ((0, 1), (1, 0))


def test_empty_list_is_the_empty_carrier(tmp_path, capsys):
    spec = parse_algebra_spec("n = 2\nbase = 2\ncarrier = []\n")
    assert spec == AlgebraSpec(2, 2, ())
    assert spec.to_carrier().size == 0
    path = tmp_path / "empty.alg"
    path.write_text("n = 2\nbase = 2\ncarrier = [ ]\n")
    assert main(["check", "--spec", str(path), "--eq", "x = x", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["counts"] == {"assignments_tested": 1, "carrier_size": 0}


@pytest.mark.parametrize(
    "text, message",
    [
        # scalars are ASCII naturals: neither a superscript nor another script's digit
        ("n = \u00b2\nbase = 2\ncarrier = full\n", "a.alg: 'n' and 'base' must be naturals"),
        ("n = 2\nbase = \u0663\ncarrier = full\n", "a.alg: 'n' and 'base' must be naturals"),
        # list entries are ASCII naturals too, not Python's other int literals
        ("n = 2\nbase = 2\ncarrier = [[True, 0], [0, 1]]\n", "a.alg:3: bad list for 'carrier': unexpected 'T'"),
        ("n = 2\nbase = 2\ncarrier = [[0x1, 0]]\n", "a.alg:3: bad list for 'carrier': unexpected 'x'"),
        ("n = 2\nbase = 2\ncarrier = [\n  [1_0]]\n", "a.alg:4: bad list for 'carrier': unexpected '_'"),
    ],
)
def test_spec_values_are_ascii_naturals(text, message):
    with pytest.raises(SpecFileError) as err:
        parse_algebra_spec(text, source="a.alg")
    assert str(err.value) == message


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() reads any length")
def test_naturals_past_the_digit_limit_name_file_and_line():
    digits = "1" + "0" * 5000
    for text, line in ((f"n = {digits}\nbase = 2\ncarrier = full\n", 1),
                       (f"n = 2\nbase = 2\ncarrier = [[0, 1],\n  [{digits}, 0]]\n", 3)):
        with pytest.raises(SpecFileError) as err:
            parse_algebra_spec(text, source="a.alg")
        assert str(err.value).startswith(f"a.alg:{line}: bad ")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("n = 2\nbase = 2\n", "missing key 'carrier'"),
        ("n = 2\nn = 3\nbase = 2\ncarrier = full\n", "duplicate key"),
        ("n = 2\nbase = 2\ncarrier = full\nextra = 1\n", "unknown keys"),
        ("n = 2\nbase = 2\ncarrier = [[0,1]\n", "unbalanced brackets"),
        ("n = two\nbase = 2\ncarrier = full\n", "must be naturals"),
        ("n = 2\nbase = 2\ncarrier = [[0,[1]]]\n", "list of sequences"),
        ("n 2\nbase = 2\ncarrier = full\n", "expected '='"),
        ("n =\nbase = 2\ncarrier = full\n", "missing value"),
    ],
)
def test_parse_algebra_spec_errors(text, fragment):
    with pytest.raises(SpecFileError) as err:
        parse_algebra_spec(text)
    assert fragment in str(err.value)


def test_spec_file_errors_report_the_source_name():
    with pytest.raises(SpecFileError) as err:
        parse_algebra_spec("n = 2\nbase = 2\n", source="algebra.alg")
    assert str(err.value).startswith("algebra.alg")


@pytest.mark.parametrize("data, line, byte, reason", [
    (b"n = 2\nbase = 2\ncarrier = full  # caf\xff\n", 3, "0xff", "invalid start byte"),
    (b"# \xc3\xa9t\xc3\xa9\r\n\r\nn = 2\r\nbase = 2\r\ncarrier = [[0,1]] # \xe2\x82", 5, "0xe2", "unexpected end of data"),
], ids=["byte-in-a-comment", "cut-short-after-crlf-lines"])
def test_spec_file_not_utf8_names_file_and_line(tmp_path, capsys, data, line, byte, reason):
    bad = tmp_path / "bad.alg"
    bad.write_bytes(data)
    assert main(["closure", "--spec", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}:{line}: not UTF-8: byte {byte} ({reason})\n"
    assert captured.out == ""


def test_crlf_spec_file_reads_as_its_lf_twin(tmp_path, capsys):
    def twins(name, text):
        lf, crlf = tmp_path / f"{name}-lf.alg", tmp_path / f"{name}-crlf.alg"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        return str(lf), str(crlf)

    lf, crlf = twins("units", "# the unit sequences\nn = 3\nbase = 2\n\ncarrier = [[0,0,1],  # first\n"
                              "  [0,1,0],\n  [1,0,0],\n]\n")
    assert cli.load_algebra_spec(crlf) == cli.load_algebra_spec(lf) == AlgebraSpec(3, 2, ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    for argv in (["closure", "--spec", "{}"], ["check", "--spec", "{}", "--eq", "s[0,1] x = x"]):
        reports = []
        for path in (lf, crlf):
            code = main([a.format(path) for a in argv] + ["--json"])
            reports.append((code, {k: v for k, v in json.loads(capsys.readouterr().out).items() if k != "wall_time_s"}))
        assert reports[0] == reports[1], argv
    # an error names the same line in both
    for text in ("n = 2\nbase = 2\n\ncarrier = [[0,1]\n", "n = 2\n# note\nbase = 2\nbase = 3\ncarrier = full\n"):
        messages = []
        for path in twins("bad", text):
            with pytest.raises(SpecFileError) as err:
                cli.load_algebra_spec(path)
            messages.append(str(err.value).removeprefix(path))
        assert messages[0] == messages[1] and messages[0].startswith(":4: "), messages


# --- exit codes ----------------------------------------------------------------


def test_check_pass_exit_zero(full22, capsys):
    assert main(["check", "--spec", full22, "--eq", "s[0,1] s[0,1] x = x"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "holds-exhaustive" in out


def test_check_fail_exit_one_and_witness(full22, capsys):
    assert main(["check", "--spec", full22, "--eq", "s[0,1] x = x"]) == 1
    out = capsys.readouterr().out
    assert "result: FAIL" in out
    assert "witness: x = {(0,1)}" in out


def test_usage_errors_exit_two(full22, units3, capsys):
    cases = [
        ["check", "--spec", full22],  # neither --eq nor --quasi
        ["check", "--spec", full22, "--eq", "x = x", "--quasi", "x = x => x = x"],
        ["check", "--spec", "/nonexistent.alg", "--eq", "x = x"],
        ["check", "--spec", full22, "--eq", "x = ("],
        ["check", "--spec", full22, "--eq", "x = x", "--workers", "0"],
        ["check", "--spec", full22, "--eq", "x = x", "--random", "-3"],
        ["sigma-demo", "--n", "7"],
        ["sigma-demo", "--n", "1"],
        ["verify-relativization", "--big", full22, "--sub", units3],  # space mismatch
        ["ultraproduct", "--spec", full22, "--index", "3"],
        ["ultraproduct", "--spec", full22, "--random", "5"],  # no mode flags here
        ["ultraproduct", "--spec", full22, "--exhaustive"],
        ["decompose", "--n", "-1", "--k", "0"],
        ["nonsense"],
        [],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        capsys.readouterr()  # drain
    # trial counts from 2^32 up are refused before any draw, naming the bound
    over = [
        ["check", "--spec", full22, "--eq", "x = x", "--random", "99999999999999999999999999999"],
        ["check", "--spec", full22, "--eq", "x = x", "--random", str(1 << 32)],
        ["verify-relativization", "--big", full22, "--sub", full22, "--random", "5000000000000000000"],
        ["decompose", "--n", "2", "--k", "2", "--random", "5000000000000000000"],
        ["sigma-demo", "--n", "2", "--random", str(1 << 64)],
    ]
    for argv in over:
        assert main(argv) == 2, argv
        assert "fewer than 2^32" in capsys.readouterr().err


def test_quasi_check_via_cli(full22, capsys):
    code = main(["check", "--spec", full22, "--quasi", "x = 0 => s[0,1] x = 0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "canonical: x = 0 => s[0,1] x = 0" in out


def test_empty_image_list_checks_only_at_dimension_zero(tmp_path, full22, capsys):
    # s{} names the permutation of dimension 0, as print_term writes it
    spec = tmp_path / "n0.alg"
    spec.write_text("n = 0\nbase = 2\ncarrier = full\n")
    assert main(["check", "--spec", str(spec), "--eq", "s{} x = x"]) == 0
    assert "outcome: holds-exhaustive" in capsys.readouterr().out
    assert main(["check", "--spec", full22, "--eq", "s{} x = x"]) == 2
    assert "image list of length 0 does not fit dimension 2" in capsys.readouterr().err


def test_non_permutable_carrier_is_an_input_error(tmp_path, full22, capsys):
    sub = tmp_path / "bad.alg"
    sub.write_text("n = 2\nbase = 2\ncarrier = [[0,1]]\n")
    assert main(["verify-relativization", "--big", full22, "--sub", str(sub)]) == 2
    err = capsys.readouterr().err
    assert "not permutable" in err


# --- subcommand behavior ----------------------------------------------------------


def test_sigma_demo_passes_for_small_n(capsys):
    assert main(["sigma-demo", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "witness: x = {(0,1)}" in out
    assert "result: PASS" in out


def test_sigma_demo_all_perm_pairs(capsys):
    assert main(["sigma-demo", "--n", "2", "--all-perm-pairs"]) == 0
    out = capsys.readouterr().out
    assert "all-pairs" in out


def test_verify_relativization_cli(full32, units3, capsys):
    assert main(["verify-relativization", "--big", full32, "--sub", units3]) == 0
    out = capsys.readouterr().out
    assert "homomorphism verified" in out


def test_decompose_cli(capsys):
    assert main(["decompose", "--n", "2", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "atoms: 9" in out
    assert "atoms map faithfully and separate" in out


def test_decompose_reports_counts_too_wide_for_str(capsys):
    # 2**16384 elements: str() and json refuse integers past 4300 digits
    assert main(["decompose", "--n", "14", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "  elements: at least 2^16384\n" in out and "result: PASS" in out
    assert main(["decompose", "--n", "14", "--k", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"] == {"atoms": 16384, "elements": "at least 2^16384",
                                "pairs_tested": 2000}
    assert report["passed"]


def test_decompose_over_the_atom_cap_exits_two_at_once(capsys):
    # 2**20 atoms fit the member cap but not the atom cap, which must be
    # checked before any per-atom carrier is built
    start = time.perf_counter()
    assert main(["decompose", "--n", "20", "--k", "2"]) == 2
    assert time.perf_counter() - start < 2
    assert "exceed the cap of 65536 atoms" in capsys.readouterr().err


def test_closure_cli(tmp_path, capsys):
    spec = tmp_path / "seed.alg"
    spec.write_text("n = 3\nbase = 3\ncarrier = [[0,1,2]]\n")
    assert main(["closure", "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "closure_size: 6" in out
    assert "permutable: True" in out


def test_closure_report_rechecks_the_closure(tmp_path, capsys, monkeypatch):
    # a closure that is not permutable yet carries the cached flag of one:
    # the report re-checks it rather than reading the flag
    spec = tmp_path / "seed.alg"
    spec.write_text("n = 3\nbase = 3\ncarrier = [[0,1,2]]\n")

    def unclosed(D):
        D._permutable = True
        return D

    monkeypatch.setattr(cli, "permutable_closure", unclosed)
    assert main(["closure", "--spec", str(spec), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False and report["details"]["permutable"] is False
    assert report["counts"] == {"closure_size": 1, "input_size": 1}


def test_ultraproduct_cli(full22, full32, capsys):
    assert main(["ultraproduct", "--spec", full22, "--spec", full22, "--index", "0"]) == 0
    out = capsys.readouterr().out
    assert "collapses to the indexed factor" in out
    # mismatched dimensions across factors is an input error
    assert main(["ultraproduct", "--spec", full22, "--spec", full32]) == 2


def test_ultraproduct_requires_full_carriers(units3, capsys):
    assert main(["ultraproduct", "--spec", units3]) == 2
    assert "full carriers" in capsys.readouterr().err


# --- one parser per process -------------------------------------------------------


def test_cached_parser_answers_each_call_as_a_fresh_one(full22, full32, capsys):
    calls = [
        ["ultraproduct", "--spec", full22, "--spec", full22, "--json"],
        ["ultraproduct", "--spec", full32, "--json"],
        ["check", "--spec", full22, "--eq", "s[0,1] s[0,1] x = x"],
        ["check", "--spec", full22, "--eq", "x = x", "--quasi", "x = x => x = x"],
        ["check", "--spec", full22, "--eq", "x = x", "--random", "3", "--seed", "9", "--json"],
        ["check", "--spec", full22, "--eq", "x = x", "--random", "3", "--json"],
        ["--help"],
        ["check", "--help"],
        ["nonsense"],
    ]

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        if out.startswith("{"):
            report = json.loads(out)
            report.pop("wall_time_s")
            out = report
        else:
            out = [ln for ln in out.splitlines() if not ln.startswith("result:")]
        return code, out, err

    cached = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert cached == fresh
    codes = [code for code, _, _ in cached]
    assert codes == [0, 0, 0, 2, 0, 0, 0, 0, 2]
    # the second ultraproduct reports its one factor only
    assert len(cached[1][1]["inputs"]["factors"]) == 1
    assert "not allowed with argument --eq" in cached[3][2]
    assert cached[4][1]["seed"] == 9 and cached[5][1]["seed"] == DEFAULT_SEED
    assert cached[6][1][0].startswith("usage: tsalg")


def test_parser_is_built_on_the_first_call_only(full22, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    seen = []
    for i in range(10):
        assert main(["check", "--spec", full22, "--eq", "x = x", "--seed", str(i)]) == 0
        seen.append(len(built))
    capsys.readouterr()
    # the top-level parser and its six subcommands, all in the first call
    assert seen == [7] * 10
    cli._build_parser.cache_clear()


@pytest.mark.parametrize("argv", [["decompose", "--n", "2", "--k", "2"],
                                  ["decompose", "--n", "10", "--k", "2", "--json"]])
def test_closed_stdout_exits_two_without_traceback(argv):
    # the pipe's read end is closed before the child writes, so every
    # write to its stdout fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "tsalg.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr == "error: standard output closed before the report was written\n"


@pytest.mark.parametrize("n,base,quasi,status,tested", [
    # s[0,1] pairs the members off; the least witness is x = {rank 16,
    # rank 32}, y = {rank 16}
    (6, 2, "s[0,1] x = x => s[0,1] (x & y) = x & y", 1, 2**96 + 2**80 + 2**16 + 1),
    # sigma with the 4-cycles: the constant sequences have no solution, so
    # the one-point step decides it
    (4, 3, "s{1,2,3,0} x | s{3,0,1,2} x = ~x => 0 = 1", 0, 2**81),
    # a set fixed by s[0,1] and s[1,2] is fixed by s[0,2]; each component,
    # an orbit of theirs, has a solution
    (4, 3, "x = s[0,1] x & s[1,2] x => x = s[0,2] x", 0, 2**81),
])
def test_wide_exhaustive_quasi_equations_end(tmp_path, n, base, quasi, status, tested):
    # 2^128 and 2^81 assignments, decided component by component but for
    # sigma
    spec = tmp_path / "full.alg"
    spec.write_text(f"n = {n}\nbase = {base}\ncarrier = full\n")
    done = subprocess.run([sys.executable, "-m", "tsalg.cli", "check", "--spec", str(spec), "--quasi", quasi,
                           "--exhaustive", "--json"], capture_output=True, text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": str(SRC), "TRA_BUDGET": str(1 << 255)})
    report = json.loads(done.stdout)
    assert (done.returncode, report["passed"], report["counts"]["assignments_tested"]) == (status, not status, tested)


# --- report plumbing ------------------------------------------------------------------


def test_json_reports_are_replayable(full22, capsys):
    argv = ["check", "--spec", full22, "--eq", "s[0,1] x = x", "--json"]
    assert main(argv) == 1
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 1
    second = json.loads(capsys.readouterr().out)
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second
    # and the witness re-validates through the library
    spec_carrier = AlgebraSpec(2, 2, "full").to_carrier()
    witness = {
        name: elem_from_seqs(spec_carrier, [tuple(s) for s in seqs])
        for name, seqs in first["witness"].items()
    }
    assert equation_violated(spec_carrier, parse_equation(first["inputs"]["eq"]), witness)


def test_json_random_mode_reports_seed(full22, capsys):
    argv = ["check", "--spec", full22, "--eq", "x = x", "--random", "10", "--seed", "5"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "random(10)" in out and "seed: 5" in out


class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 1 << 70
    WIDE = 1 << 300


class _Name(str):
    pass


@dataclasses.dataclass
class _Record:
    """A report dataclass: a field reported under another key, and properties."""

    seq: object = dataclasses.field(metadata={"key": "atom"})
    rest: object = None

    @property
    def kind(self):
        return type(self.seq).__name__

    @property
    def _hidden(self):  # not reported
        return 0


#: Characters json escapes, text past ASCII and lone surrogates among any others.
_json_text = strat.text(strat.one_of(
    strat.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600",
                        "\ud800", "\udfff"]),
    strat.characters(exclude_categories=()),
))
#: Ints on both sides of 2^256, where reports start writing "at least 2^m".
_ints = strat.one_of(
    strat.integers(), strat.integers(min_value=1 << 64), strat.integers(max_value=-(1 << 64)),
    strat.sampled_from([(1 << 256) - 1, 1 << 256, 1 - (1 << 256), -(1 << 256), 1 << 5000]),
)


@strat.composite
def _carriers(draw):
    """A carrier of any size up to 625 members, the empty one included,
    and now and then one whose base is wider than 2^256."""
    if draw(strat.integers(0, 9)) == 0:
        return Carrier(1, 1 << 300, [5, (1 << 300) - 1])
    n = draw(strat.integers(0, 4))
    u = draw(strat.integers(1, 5))
    bits = draw(strat.integers(0, (1 << u**n) - 1))
    return Carrier(n, u, [r for r in range(u**n) if bits >> r & 1])


@strat.composite
def _elems(draw):
    D = draw(_carriers())
    return Elem(D, draw(strat.integers(0, (1 << D.size) - 1)))


_perms = strat.integers(0, 5).flatmap(lambda n: strat.permutations(range(n))).map(lambda p: Perm(tuple(p)))


@strat.composite
def _verdicts(draw):
    witness = draw(strat.none() | strat.dictionaries(_json_text, _elems(), max_size=3))
    return Verdict(draw(strat.sampled_from(["holds-exhaustive", "holds-sampled", "fails"])), witness,
                   draw(strat.none() | strat.integers(1, 5000)), draw(strat.none() | _ints),
                   draw(_ints))


#: Rows of ints, as witnesses and violations hold them outside an element:
#: mostly w small ints each, and now and then one row wider, a bool or a
#: wide int.
_rows = strat.integers(0, 3).flatmap(lambda w: strat.lists(
    strat.lists(strat.integers(0, 9), min_size=w, max_size=w)
    | strat.lists(_ints | strat.booleans(), min_size=w, max_size=w + 1).map(tuple), max_size=5))

#: What a report holds: the JSON values, carriers (one of them met at
#: several places), elements, permutations, verdicts and dataclasses, nested.
_report_values = strat.recursive(
    strat.one_of(
        strat.none(), strat.booleans(), _ints, strat.floats(), strat.sampled_from([-0.0, 1e308]),
        _json_text, _json_text.map(_Name), strat.sampled_from(_Level), _rows,
        _carriers(), strat.shared(_carriers(), key="twice"), _elems(), _perms, _verdicts(),
    ),
    lambda children: strat.one_of(
        strat.lists(children, max_size=4), strat.lists(children, max_size=4).map(tuple),
        strat.dictionaries(strat.one_of(_json_text, _json_text.map(_Name), strat.integers(-2, 2)),
                           children, max_size=4),
        strat.builds(_Record, children, children),
    ),
    max_leaves=25,
)

_TWICE = carrier_from_seqs(2, 2, [(0, 1), (1, 0)])
_WIDE = Carrier(1, 2**300, [5, 2**300 - 1])


@hypothesis.settings(deadline=None, max_examples=500)
@hypothesis.given(_report_values)
@hypothesis.example([[0, 1], [], {}, [[]], {"b": [True, 1], "a": {"": None}}, (2, -3)])
@hypothesis.example([float("nan"), float("inf"), float("-inf"), -0.0, _Level.HIGH, _Name("\ud800")])
@hypothesis.example({"a": _TWICE, "b": [_TWICE, {"c": _TWICE}], "d": [[_TWICE]]})
@hypothesis.example([full_carrier(3, 4), Carrier(3, 5, range(65)), Carrier(0, 3, []), Carrier(0, 0, [0])])
@hypothesis.example([[1 << 256, 2], [3, 4], [(1 << 256) - 1, 5], [True, 0], [(), ()], [(7,), (8, 9)]])
def test_report_writer_matches_the_stdlib(value):
    assert cli._json(value, "\n", {}) == json.dumps(oracles.report_json(value), indent=2, sort_keys=True)


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(strat.dictionaries(_json_text, _report_values, max_size=3), _report_values,
                  strat.none() | strat.dictionaries(_json_text, _elems(), max_size=2))
@hypothesis.example({"spec": [[0, 1], [1 << 300]], "f": Perm((1, 0))}, {"x": [[0, 1], {"a": 1}, "bc"]}, None)
# an empty element first: the rows of the next, a coordinate past 2^256 among them, go in digits
@hypothesis.example({}, [Elem(_WIDE, 0), Elem(_WIDE, 2)], None)
def test_text_report_matches_the_reference(inputs, details, witness):
    report = cli.RunReport(command="c", inputs=inputs, outcome="o", passed=True, mode="m", seed=None,
                           counts={"k": 3, "wide": 1 << 300}, witness=witness, details=details)
    try:
        expected = oracles.report_text(report)
    except TypeError:  # a list of rows that holds an item with no entries
        with pytest.raises(TypeError):
            report.to_text()
    else:
        assert report.to_text() == expected


def test_report_writes_each_carrier_once_per_indent_and_in_full(monkeypatch):
    c = full_carrier(2, 2)
    twin = full_carrier(2, 2)  # equal to c, another object
    report = cli.RunReport(command="shared", inputs={"c": c, "nested": [c, {"deep": c}], "twin": twin},
                           outcome="o", passed=True, mode="m", seed=None, counts={},
                           details={"c": c, "twin": twin})
    described = []
    fields = cli._fields
    monkeypatch.setattr(cli, "_fields", lambda value: fields(described.append(value) or value))
    text = report.to_json()
    # c sits at three indents, under inputs and details at the same one
    assert [v is c for v in described].count(True) == 3
    assert [v is twin for v in described].count(True) == 1
    # json.dumps writes every occurrence of a carrier in full
    assert text == json.dumps(oracles.report_json(report), indent=2, sort_keys=True)
    assert json.loads(text)["details"]["twin"] == {
        "n": 2, "base": 2, "size": 4, "members": [[0, 0], [0, 1], [1, 0], [1, 1]]}


def test_report_writer_refuses_what_json_refuses():
    for value in ({1, 2}, [object()], {"a": frozenset()}):
        with pytest.raises(TypeError) as ours:
            cli._json(value, "\n", {})
        with pytest.raises(TypeError) as stdlib:
            json.dumps(value, indent=2, sort_keys=True)
        assert str(ours.value) == str(stdlib.value)
    # keys go through str(), as report_json's do, so no key is refused
    for value in ({(1,): 2}, {1: 2, "0": [1]}):
        assert cli._json(value, "\n", {}) == json.dumps({str(k): v for k, v in value.items()},
                                                         indent=2, sort_keys=True)


def test_random_seed_changes_nothing_when_exhaustive(full22, capsys):
    a = ["check", "--spec", full22, "--eq", "x = x", "--exhaustive", "--seed", "1"]
    b = ["check", "--spec", full22, "--eq", "x = x", "--exhaustive", "--seed", "2"]
    assert main(a) == 0
    out_a = capsys.readouterr().out
    assert main(b) == 0
    out_b = capsys.readouterr().out
    strip = lambda s: [ln for ln in s.splitlines() if not ln.startswith("result:")]
    assert strip(out_a) == strip(out_b)


def test_budget_env_is_honored(full22, capsys, monkeypatch):
    monkeypatch.setenv("TRA_BUDGET", "4")
    assert main(["check", "--spec", full22, "--eq", "x = x", "--exhaustive"]) == 2
    assert "budget is 4" in capsys.readouterr().err
    monkeypatch.setenv("TRA_BUDGET", "0")
    assert main(["check", "--spec", full22, "--eq", "x = x"]) == 2
    assert "positive integer" in capsys.readouterr().err


def test_seed_and_budget_too_wide_to_echo_exit_two(full22, capsys, monkeypatch):
    # a report writes ints past 256 bits as "at least 2^m", so such an
    # input could not be replayed from its report
    wide, edge = str(1 << 256), (1 << 256) - 1
    for argv in (["check", "--spec", full22, "--eq", "s[0,1] x = x", "--random", "10", "--json"],
                 ["sigma-demo", "--n", "2"], ["ultraproduct", "--spec", full22]):
        for seed in (wide, "-" + wide, str(1 << 300)):
            assert main(argv + ["--seed", seed]) == 2, (argv, seed)
            assert "--seed must be below 2^256" in capsys.readouterr().err
    # the widest accepted seed is echoed exactly
    assert main(["check", "--spec", full22, "--eq", "x = x", "--random", "3", "--seed", str(edge), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == edge
    monkeypatch.setenv("TRA_BUDGET", wide)
    assert main(["check", "--spec", full22, "--eq", "x = x"]) == 2
    assert "TRA_BUDGET must be below 2^256" in capsys.readouterr().err
    monkeypatch.setenv("TRA_BUDGET", str(edge))
    assert main(["check", "--spec", full22, "--eq", "x = x", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"]["budget"] == edge


def test_int_flags_too_wide_to_echo_exit_two(full22, capsys):
    # --n, --k and --index are echoed in the report's inputs too
    wide = str((1 << 300) + 5)
    for argv, flag in ((["decompose", "--n", "0", "--k", wide], "--k"),
                       (["decompose", "--n", wide, "--k", "1"], "--n"),
                       (["sigma-demo", "--n", "-" + wide], "--n"),
                       (["ultraproduct", "--spec", full22, "--index", wide], "--index")):
        assert main(argv + ["--json"]) == 2, argv
        captured = capsys.readouterr()
        assert f"{flag} must be below 2^256" in captured.err and captured.out == ""
    edge = (1 << 256) - 1
    assert main(["decompose", "--n", "0", "--k", str(edge), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"]["k"] == edge


def test_spec_echo_of_wide_values_replays(tmp_path, capsys):
    # a base and an entry past 2^256 are echoed in full digits, as the
    # closure that details reports writes them, so the echoed spec replays
    wide = 1 << 300
    path = tmp_path / "wide.alg"
    path.write_text(f"n = 1\nbase = {wide}\ncarrier = [[{wide - 1}], [5]]\n")
    assert main(["closure", "--spec", str(path)]) == 0
    text = capsys.readouterr().out
    assert f"  spec: {{n: 1, base: {wide}, carrier: {{({wide - 1}), (5)}}}}\n" in text
    assert "at least" not in text
    assert main(["closure", "--spec", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"]["spec"] == {"n": 1, "base": wide, "carrier": [[wide - 1], [5]]}
    assert report["details"]["closure"]["base"] == wide
    echo = tmp_path / "echo.alg"
    echo.write_text("n = {n}\nbase = {base}\ncarrier = {carrier}\n".format(**report["inputs"]["spec"]))
    assert main(["closure", "--spec", str(echo), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"] == report["inputs"]


def test_budget_and_seed_reach_every_auto_mode_verifier(full22, capsys, monkeypatch):
    # without --exhaustive or --random, each check runs in auto mode with
    # TRA_BUDGET as its budget and --seed as the seed it samples with
    def run(budget, argv):
        monkeypatch.setenv("TRA_BUDGET", str(budget))
        assert main(argv + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["inputs"]["budget"] == budget
        return report

    r = run(16, ["sigma-demo", "--n", "2", "--seed", "7"])
    assert r["mode"] == "auto(budget=16)" and r["seed"] == 7
    # the escape step: 16 * 17 / 2 pairs are over 16, 2^4 assignments are not
    hom, big = r["details"]["escape"]["hom"], r["details"]["escape"]["sigma_big"]
    assert (hom["mode"], hom["seed"], hom["pairs_tested"]) == ("random(2000)", 7, 2000)
    assert (big["brute_mode"], big["brute_seed"], big["assignments_tested"]) == ("exhaustive", None, 16)
    r = run(100, ["decompose", "--n", "2", "--k", "2", "--seed", "5"])
    assert (r["mode"], r["seed"], r["counts"]["pairs_tested"]) == ("random(2000)", 5, 1859)
    r = run(100, ["verify-relativization", "--big", full22, "--sub", full22, "--seed", "5"])
    assert (r["mode"], r["seed"]) == ("random(2000)", 5)
    assert (r["counts"]["elements_tested"], r["counts"]["pairs_tested"]) == (2000, 2000)
    r = run(15, ["check", "--spec", full22, "--eq", "x = x", "--seed", "3"])
    assert (r["mode"], r["seed"], r["outcome"]) == ("random(2000)", 3, "holds-sampled")
    r = run(16, ["check", "--spec", full22, "--eq", "x = x", "--seed", "3"])
    assert (r["mode"], r["seed"], r["outcome"]) == ("exhaustive", None, "holds-exhaustive")


def test_report_writer_keeps_the_text_of_carriers_only():
    # a decompose report holds one record per atom, none of them a
    # carrier: their text must not stay alive until the report is written
    args = cli._parse_args(["decompose", "--n", "10", "--k", "2"])
    report = cli._HANDLERS["decompose"](args, cli.DEFAULT_ASSIGNMENT_BUDGET)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        text = report.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * len(text), (peak, len(text))


def test_check_without_mode_flag_samples_over_budget(tmp_path, capsys):
    spec = tmp_path / "full42.alg"
    spec.write_text("n = 4\nbase = 2\ncarrier = full\n")
    argv = ["check", "--spec", str(spec), "--eq", "x & y = y & x", "--seed", "11", "--json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "random(2000)" and report["seed"] == 11
    assert report["outcome"] == "holds-sampled"
    assert report["counts"]["assignments_tested"] == 2000


def test_size_guards_do_not_build_the_size(tmp_path, capsys):
    huge = tmp_path / "huge.alg"
    huge.write_text("n = 3000000\nbase = 1000\ncarrier = full\n")
    started = time.perf_counter()
    assert main(["closure", "--spec", str(huge)]) == 2
    assert time.perf_counter() - started < 1.0
    assert "exceed the cap of 1048576 members" in capsys.readouterr().err
    # base 1 keeps one member at any dimension: the dimension has its own cap
    tall = tmp_path / "tall.alg"
    tall.write_text(f"n = {(1 << 64) + 1}\nbase = 1\ncarrier = full\n")
    started = time.perf_counter()
    assert main(["closure", "--spec", str(tall)]) == 2
    assert time.perf_counter() - started < 1.0
    assert "exceeds the cap of 64" in capsys.readouterr().err
    wide = tmp_path / "full142.alg"
    wide.write_text("n = 14\nbase = 2\ncarrier = full\n")
    assert main(["check", "--spec", str(wide), "--eq", "x = x", "--exhaustive"]) == 2
    assert "budget is 1048576" in capsys.readouterr().err


def test_closure_is_sized_before_it_is_built(tmp_path, capsys):
    # one seed with 20 distinct values: its orbit has 20! members, so the
    # closure is refused from its size; walking the orbit up to the member
    # cap first took 10 s and 323 MB
    seed = tmp_path / "seed20.alg"
    seed.write_text(f"n = 20\nbase = 20\ncarrier = [{list(range(20))}]\n")
    tracemalloc.start()
    try:
        assert main(["closure", "--spec", str(seed)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20, peak
    assert "closure exceeds cap of 1048576 members" in capsys.readouterr().err


def test_sigma_demo_json_replay(capsys):
    argv = ["sigma-demo", "--n", "3", "--json"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second
    # the reported counterexample witness falsifies sigma downstairs
    counter = first["details"]["counterexample"]
    G = carrier_from_seqs(3, 2, [tuple(s) for s in counter["carrier"]["members"]])
    f = Perm(tuple(counter["f"]))
    g = Perm(tuple(counter["g"]))
    witness = {
        name: elem_from_seqs(G, [tuple(s) for s in seqs])
        for name, seqs in counter["verdict"]["witness"].items()
    }
    from tsalg.termlang import sigma

    assert quasi_violated(G, sigma(3, f, g), witness)

