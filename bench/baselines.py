"""Re-take the single-run figures quoted in ROADMAP.md as measured baselines.

    python3 bench/baselines.py

Times five fixed calls into tsalg (imported from ``src/``), each REPEATS
times in this process, and prints the median and minimum of each. The figures
are recorded in ``bench/README.md``; this script is not part of the
benchmark's command.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tsalg  # noqa: E402
from tsalg import Exhaustive, Random  # noqa: E402

REPEATS = 3

F42, F32, F33 = tsalg.full_carrier(4, 2), tsalg.full_carrier(3, 2), tsalg.full_carrier(3, 3)

#: (ROADMAP figure in seconds, description, call)
CASES = [
    (0.91, "check_equation full (4,2), 1 variable, 65,536 assignments",
     lambda: tsalg.check_equation(F42, tsalg.parse_equation("s[0,1] s[0,1] x = x"), Exhaustive())),
    (1.48, "check_equation full (3,2), 2 variables, 65,536 assignments",
     lambda: tsalg.check_equation(F32, tsalg.parse_equation("s[0,1] (x & y) = s[0,1] x & s[0,1] y"),
                                  Exhaustive())),
    (2.17, "check_quasi sigma full (3,3), Random(100000)",
     lambda: tsalg.check_quasi(F33, tsalg.sigma(3, tsalg.forward_cycle(3), tsalg.backward_cycle(3)),
                               Random(100000))),
    (18.4, "sigma_holds_small(4, 2, 'all')", lambda: tsalg.sigma_holds_small(4, 2, "all")),
    (0.58, "verify_h_escape(4)", lambda: tsalg.verify_h_escape(4)),
]


def main() -> None:
    print(f"python {sys.version.split()[0]}, {REPEATS} repeats")
    for quoted, label, call in CASES:
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            call()
            times.append(perf_counter() - start)
        print(f"{label}: median {statistics.median(times):.3f} s, min {min(times):.3f} s"
              f"  (ROADMAP: {quoted} s)")


if __name__ == "__main__":
    main()
