import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tsalg import cli
from tsalg.algebra import carrier_from_seqs, elem_from_seqs
from tsalg.cli import AlgebraSpec, SpecFileError, main, parse_algebra_spec
from tsalg.seqspace import Perm
from tsalg.termlang import DEFAULT_SEED, parse_equation, parse_quasi, equation_violated, quasi_violated

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


def test_quasi_check_via_cli(full22, capsys):
    code = main(["check", "--spec", full22, "--quasi", "x = 0 => s[0,1] x = 0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "canonical: x = 0 => s[0,1] x = 0" in out


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
    wide = tmp_path / "full142.alg"
    wide.write_text("n = 14\nbase = 2\ncarrier = full\n")
    assert main(["check", "--spec", str(wide), "--eq", "x = x", "--exhaustive"]) == 2
    assert "budget is 1048576" in capsys.readouterr().err


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

