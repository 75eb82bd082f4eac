"""Golden reports: every subcommand's --json and text output, byte for byte.

Each case runs ``tsalg`` in-process on the spec files below and compares
stdout with ``tests/golden/<name>.json`` and ``tests/golden/<name>.txt``.
Wall time is the only field that may differ between runs, so it is
normalised to zero on both sides before comparing.

The fixtures were captured from the implementation that preceded the
shared report encoder, with two edits: the retired ``inputs.workers``
echo was dropped, and in the text form each σ block's ``note:`` line sits
after the report's fields and before its ``agree``/``holds`` properties.
"""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from tsalg.cli import main

GOLDEN = Path(__file__).parent / "golden"

SPECS = {
    "full22": "n = 2\nbase = 2\ncarrier = full\n",
    "full23": "n = 2\nbase = 3\ncarrier = full\n",
    "full32": "n = 3\nbase = 2\ncarrier = full\n",
    "full33": "n = 3\nbase = 3\ncarrier = full\n",
    "full42": "n = 4\nbase = 2\ncarrier = full\n",
    "full43": "n = 4\nbase = 3\ncarrier = full\n",
    "units3": "n = 3\nbase = 2\ncarrier = [[0,0,1],[0,1,0],[1,0,0]]\n",
    "units33": "n = 3\nbase = 3\ncarrier = [[0,0,1],[0,1,0],[1,0,0]]\n",
    "seed333": "n = 3\nbase = 3\ncarrier = [[0,1,2]]\n",
    "seed55": "n = 5\nbase = 5\ncarrier = [[0,1,2,3,4]]\n",
}

SIGMA3 = "s{1,2,0} x | s{2,0,1} x = ~x => 0 = 1"

#: name -> argv; "{spec}" names a file from SPECS.
CASES = {
    "sigma-demo-2": ["sigma-demo", "--n", "2"],
    "sigma-demo-3": ["sigma-demo", "--n", "3"],
    "sigma-demo-5": ["sigma-demo", "--n", "5"],
    "sigma-demo-2-all": ["sigma-demo", "--n", "2", "--all-perm-pairs"],
    "sigma-demo-3-all": ["sigma-demo", "--n", "3", "--all-perm-pairs"],
    "sigma-demo-2-exhaustive": ["sigma-demo", "--n", "2", "--exhaustive"],
    "sigma-demo-5-exhaustive": ["sigma-demo", "--n", "5", "--exhaustive"],
    "sigma-demo-3-random": ["sigma-demo", "--n", "3", "--random", "50", "--seed", "7"],
    "check-eq-pass": ["check", "--spec", "{full22}", "--eq", "s[0,1] s[0,1] x = x"],
    "check-eq-fail": ["check", "--spec", "{full22}", "--eq", "s[0,1] x = x"],
    "check-eq-exhaustive": ["check", "--spec", "{full32}", "--eq", "x | ~x = 1", "--exhaustive"],
    "check-quasi-pass": ["check", "--spec", "{full22}", "--quasi", "x = 0 => s[0,1] x = 0"],
    "check-quasi-fail": ["check", "--spec", "{full22}", "--quasi", "s[0,1] x = x => x = 0"],
    "check-units-sigma-fails": ["check", "--spec", "{units3}", "--quasi", SIGMA3],
    "check-full-sigma-holds": ["check", "--spec", "{full32}", "--quasi", SIGMA3],
    "check-constant-fail": ["check", "--spec", "{full22}", "--eq", "0 = 1"],
    "check-random-pass": ["check", "--spec", "{full32}", "--eq", "x & y = y & x",
                          "--random", "100", "--seed", "5"],
    "check-random-fail": ["check", "--spec", "{full32}", "--eq", "s[0,1] x = x",
                          "--random", "100"],
    "relativization-auto": ["verify-relativization", "--big", "{full32}", "--sub", "{units3}"],
    "relativization-auto-sampled": ["verify-relativization", "--big", "{full33}",
                                    "--sub", "{units33}"],
    "relativization-exhaustive": ["verify-relativization", "--big", "{full32}",
                                  "--sub", "{units3}", "--exhaustive"],
    "relativization-random": ["verify-relativization", "--big", "{full32}", "--sub", "{units3}",
                              "--random", "30", "--seed", "3"],
    "decompose-2-2": ["decompose", "--n", "2", "--k", "2"],
    "decompose-2-3": ["decompose", "--n", "2", "--k", "3"],
    "decompose-2-4": ["decompose", "--n", "2", "--k", "4"],
    "decompose-2-0": ["decompose", "--n", "2", "--k", "0"],
    "decompose-2-11-random": ["decompose", "--n", "2", "--k", "11", "--random", "5"],
    "decompose-2-2-exhaustive": ["decompose", "--n", "2", "--k", "2", "--exhaustive"],
    "decompose-2-3-random": ["decompose", "--n", "2", "--k", "3", "--random", "40", "--seed", "9"],
    "closure-small": ["closure", "--spec", "{seed333}"],
    "closure-wide": ["closure", "--spec", "{seed55}"],
    "closure-full": ["closure", "--spec", "{full23}"],
    "ultraproduct-2": ["ultraproduct", "--spec", "{full22}", "--spec", "{full22}"],
    "ultraproduct-3": ["ultraproduct", "--spec", "{full22}", "--spec", "{full23}",
                       "--spec", "{full22}", "--index", "1", "--seed", "11"],
    # a 16-member target: all 2**16 classes are decided
    "ultraproduct-wide": ["ultraproduct", "--spec", "{full43}", "--spec", "{full42}",
                          "--index", "1", "--seed", "3"],
}

_WALL_JSON = re.compile(r'"wall_time_s": [-+0-9.eE]+')
_WALL_TEXT = re.compile(r"\(\d+\.\d{3}s\)$", re.M)


def normalise(out: str) -> str:
    out = _WALL_JSON.sub('"wall_time_s": 0.0', out)
    return _WALL_TEXT.sub("(0.000s)", out)


def run_case(argv: list[str], spec_dir: Path) -> tuple[int, str]:
    paths = {}
    for name, text in SPECS.items():
        path = spec_dir / f"{name}.alg"
        path.write_text(text)
        paths[name] = str(path)
    argv = [a.format(**paths) if a.startswith("{") else a for a in argv]
    buf = StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    argv = CASES[name]
    for suffix, extra in ((".json", ["--json"]), (".txt", [])):
        code, out = run_case(argv + extra, tmp_path)
        assert code in (0, 1), (name, code)
        expected = (GOLDEN / f"{name}{suffix}").read_text()
        assert f"exit: {code}\n" + normalise(out) == expected, name + suffix
