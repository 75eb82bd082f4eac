"""The mutant gate: each mutant is one exact edit to a decider's source, and
the tests named with it must fail on the edited copy.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py --list     # each mutant's name and target

The gate copies src/ to a temporary directory.  There the named tests of
all the mutants first run once on the unedited copy, where they must pass,
so a mutant counts as killed only by its own edit.  Then, one mutant at a
time, it replaces the mutant's snippet (which must occur exactly once, so
a refactor that removes it fails here loudly, and the list is updated with
it), runs pytest on the mutant's tests against the copy under a timeout,
and restores the file: the tests must fail (pytest exit status 1) or time
out.  Exits 0 when every mutant is killed, else 1.  Standard library only;
pytest collects no file of this name.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # per pytest run

LEAF_TESTS = (
    "tests/test_check_columns.py::test_leaf_step_decides_only_identities_on_closed_carriers",
    "tests/test_check_columns.py::test_leaf_step_matches_the_pushed_down_reference",
    "tests/test_check_columns.py::test_leaf_identities_hold_and_keep_every_verdict",
)
COMPONENT_TESTS = (
    "tests/test_check_columns.py::test_sigma_on_unit_sequences_is_one_component",
    "tests/test_check_columns.py::test_a_component_without_solutions_decides_the_check",
    "tests/test_check_columns.py::test_the_least_violation_is_the_least_over_components",
)
DECIDER_TESTS = ("tests/test_check_columns.py::test_decider_matches_frozenset_enumeration",)
PATH_TESTS = (
    "tests/test_check_columns.py::test_decider_matches_frozenset_enumeration",
    "tests/test_check_columns.py::test_wide_exhaustive_equations_match_the_column_scan",
)
COMPILE_TESTS = (
    "tests/test_check_columns.py::test_compile_by_op_matches_term_keyed_reference",
    "tests/test_check_columns.py::test_program_gives_each_op_one_slot",
)
NUMBERING_TESTS = (
    "tests/test_check_columns.py::test_compile_numbers_the_variables_in_sorted_name_order",
    "tests/test_check_columns.py::test_decider_matches_frozenset_enumeration",
)
ONE_POINT_TESTS = (
    "tests/test_check_columns.py::test_one_point_step_matches_the_brute_oracle",
    "tests/test_check_columns.py::test_one_point_step_at_its_edges",
    "tests/test_check_columns.py::test_the_one_point_step_reads_no_member",
)
ROW_TESTS = ("tests/test_check_columns.py::test_sampled_checks_on_a_carrier_with_holes_at_every_chunk_height",)


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/
    snippet: str  # occurs exactly once in file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids under the repository root


MUTANTS = [
    # termlang._leaf_identity: the leaf law read off the ops, its shared
    # slot and its scan
    Mutant("leaf-composition-reversed", "tsalg/termlang.py",
           "tuple(map(under.__getitem__, op[2].images))",
           "tuple(map(op[2].images.__getitem__, under))", LEAF_TESTS),
    Mutant("leaf-closure-skipped", "tsalg/termlang.py",
           "if not D.full and any(None in D._gather_for(op[2])",
           "if False and any(None in D._gather_for(op[2])", LEAF_TESTS),
    Mutant("leaf-keyed-without-permutation", "tsalg/termlang.py",
           "names.setdefault((op[1], under), len(names))",
           "names.setdefault(op[1], len(names))", LEAF_TESTS),
    Mutant("leaf-memo-keyed-by-slot-alone", "tsalg/termlang.py",
           "key = (s, under)", "key = s", LEAF_TESTS),
    Mutant("leaf-shared-slot-read-on-a-hypothesis", "tsalg/termlang.py",
           "if law[0] == law[1]:", "if sides[0][0] == sides[0][1]:", LEAF_TESTS),
    Mutant("leaf-hypotheses-dropped", "tsalg/termlang.py",
           "least_violation(list(slots), 1, len(names), None, hypotheses, law,",
           "least_violation(list(slots), 1, len(names), None, [], law,", LEAF_TESTS),
    # termlang._one_point: the constant sought by lookup (|D| > u) or by
    # member test, n = 2 taken as n <= 1, and the hypotheses' agreement
    Mutant("one-point-lookup-finds-a-nonconstant", "tsalg/termlang.py",
           "c * unit in D.member_index", "c in D.member_index", ONE_POINT_TESTS),
    Mutant("one-point-test-finds-a-nonconstant", "tsalg/termlang.py",
           "r % unit == 0", "r % D.u == 0", ONE_POINT_TESTS),
    Mutant("one-point-every-member-constant-at-n-2", "tsalg/termlang.py",
           "if not D.full and D.n > 1:", "if not D.full and D.n > 2:", ONE_POINT_TESTS),
    Mutant("one-point-hypotheses-joined-by-or", "tsalg/termlang.py",
           "operator.and_, [~(vals[a][0]", "operator.or_, [~(vals[a][0]", ONE_POINT_TESTS),
    # termlang._compile: one slot per op, each spec resolved once, and
    # ("var", j) for the j-th name in sorted order
    Mutant("spec-perm-cached-without-its-spec", "tsalg/termlang.py",
           "f = perms.get(t.perm)", "f = perms.get(t.perm) or next(iter(perms.values()), None)", COMPILE_TESTS),
    Mutant("ops-never-shared", "tsalg/termlang.py",
           "return slots.setdefault(op, len(slots))",
           'return slots.setdefault(op if op[0] == "var" else (*op, len(slots)), len(slots))', COMPILE_TESTS),
    Mutant("vars-numbered-in-first-met-order", "tsalg/termlang.py",
           "index = {name: j for j, name in enumerate(names)}",
           'index = {op[1]: j for j, op in enumerate(op for op in slots if op[0] == "var")}', NUMBERING_TESTS),
    # termlang._run: the column scan binds each s_f to its own gather table
    Mutant("column-gather-through-first-table", "tsalg/termlang.py",
           "for src in gather(op[2])]", 'for src in gather(next(o for o in ops if o[0] == "subst")[2])]',
           DECIDER_TESTS),
    Mutant("column-gather-through-identity", "tsalg/termlang.py",
           "for src in gather(op[2])]", "for src in range(size)]", DECIDER_TESTS),
    # termlang.check_quasi's width test for the leaf step
    Mutant("always-wide", "tsalg/termlang.py",
           "wide = size * nvars > EXHAUSTIVE_CHUNK_BITS", "wide = True", PATH_TESTS),
    Mutant("wide-at-one-chunk", "tsalg/termlang.py",
           "wide = size * nvars > EXHAUSTIVE_CHUNK_BITS", "wide = size * nvars >= EXHAUSTIVE_CHUNK_BITS",
           PATH_TESTS),
    # termlang.least_violation: one chunk of columns or the targets, by
    # width, and the least index decoded into rows
    Mutant("targets-at-one-chunk", "tsalg/termlang.py",
           "if size * nvars <= chunk_bits:", "if size * nvars < chunk_bits:", PATH_TESTS),
    Mutant("always-targets", "tsalg/termlang.py",
           "if size * nvars <= chunk_bits:", "if False:", PATH_TESTS),
    Mutant("rows-decoded-in-reversed-order", "tsalg/termlang.py",
           "& ((1 << size) - 1) for j in range(nvars)]", "& ((1 << size) - 1) for j in reversed(range(nvars))]",
           NUMBERING_TESTS),
    # termlang._first_row_violation on packed rows: each s_f's tiled mask,
    # the per-row flag fold (the fold a step short, 4 * span; 2 * span <
    # stride gives the same flags), the live rows of a short last chunk, and
    # algebra.Carrier._tiled's height check
    Mutant("tiled-defined-dropped", "tsalg/termlang.py",
           "None if defined is None else D._tiled(defined, nbytes, height))", "None)", ROW_TESTS),
    Mutant("row-flags-fold-short", "tsalg/termlang.py",
           "while 2 * span <= stride:", "while 4 * span <= stride:",
           ("tests/test_check_columns.py::test_row_flags_see_every_bit_of_a_row",)),
    Mutant("tile-cache-ignores-height", "tsalg/algebra.py",
           "if held is None or held[0] != rows:", "if held is None:", ROW_TESTS),
    Mutant("short-chunk-rows-live", "tsalg/termlang.py",
           "if h < height:\n", "if False:\n", ROW_TESTS),
    # termlang.least_violation's targets, component by component
    Mutant("components-split-by-path-halving", "tsalg/termlang.py",
           "root[p] = root[root[p]]  # path halving\n            p = root[p]\n",
           "p = root[p] = root[root[p]]\n", COMPONENT_TESTS),
    Mutant("component-without-solution-skipped", "tsalg/termlang.py",
           "if solution is None:\n                return None\n",
           "if solution is None:\n                continue\n", COMPONENT_TESTS),
    Mutant("least-violation-by-max", "tsalg/termlang.py",
           "min(least, excess)", "max(least, excess)", COMPONENT_TESTS),
    # termlang.least_violation's truth tables, member by member
    Mutant("empty-gather-read-as-full", "tsalg/termlang.py",
           "v = 0 if src is None", "v = full if src is None", DECIDER_TESTS),
    Mutant("atoms-by-wrong-variable-weight", "tsalg/termlang.py",
           "atoms.append(size * (nvars - 1 - op[1]) + q)", "atoms.append(size * op[1] + q)", DECIDER_TESTS),
    # algebra.permutable_closure
    Mutant("closure-returns-its-input", "tsalg/algebra.py",
           "if is_permutable(D):", "if True:", ("tests/test_algebra.py::test_permutable_closure_frozen_example",)),
    # termlang._Parser
    Mutant("nesting-limit-off-by-one", "tsalg/termlang.py",
           "self.depth == MAX_NESTING", "self.depth > MAX_NESTING",
           ("tests/test_cli_fuzz.py::test_term_past_the_nesting_limit_exits_two_at_its_opener",)),
    Mutant("chain-splices-the-other-kind", "tsalg/termlang.py",
           "type(first) is node", "isinstance(first, (And, Or))",
           ("tests/test_termlang.py::test_parse_chain_is_one_node_as_left_association_gives",)),
    Mutant("nesting-level-never-closed", "tsalg/termlang.py",
           "        self.depth -= 1\n", "",
           ("tests/test_cli_fuzz.py::test_term_at_the_nesting_limit_checks_prints_and_round_trips",)),
    # each witness's element-wise re-check, through termlang._confirm
    Mutant("quasi-recheck-skipped", "tsalg/termlang.py",
           "_confirm(quasi_violated(D, qe, witness))", "_confirm(True)",
           ("tests/test_check_columns.py::test_witness_disagreement_raises",)),
    Mutant("relativization-recheck-skipped", "tsalg/theorems.py",
           "_confirm(not law(X))", "_confirm(True)",
           ("tests/test_theorems.py::test_relativization_witness_disagreement_raises",)),
    Mutant("atom-recheck-skipped", "tsalg/theorems.py",
           "_confirm(is_zero(relativize(Elem(A, 1 << p), gq)))", "_confirm(True)",
           ("tests/test_theorems.py::test_decompose_blinded_route_loses_its_atom",)),
    Mutant("separation-recheck-skipped", "tsalg/theorems.py",
           "_confirm(X != Y and all(relativize(X, gq) == relativize(Y, gq) for gq, *_ in routes.values()))",
           "_confirm(True)", ("tests/test_theorems.py::test_decompose_separation_disagreement_raises",)),
    Mutant("ultraproduct-recheck-skipped", "tsalg/theorems.py",
           "_confirm(_psi(lift, table, i0, target) != xc)", "_confirm(True)",
           ("tests/test_theorems.py::test_ultraproduct_witness_disagreement_raises",)),
]


def target(m: Mutant) -> str:
    """file:line of m's snippet; exits with status 1 unless it occurs exactly once."""
    text = (ROOT / "src" / m.file).read_text()
    count = text.count(m.snippet)
    if count != 1:
        raise SystemExit(f"mutant {m.name}: its snippet occurs {count} times in src/{m.file}, not once")
    line = text.count("\n", 0, text.index(m.snippet)) + 1
    return f"src/{m.file}:{line}"


def run_tests(src: Path, tests: tuple[str, ...], cwd: Path) -> int | None:
    """pytest's exit status on tests with src first on the path, or None on timeout."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *(str(ROOT / t) for t in tests)]
    try:
        return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print each mutant's name and target, and exit")
    args = parser.parse_args(argv)
    targets = [target(m) for m in MUTANTS]
    if args.list:
        for m, where in zip(MUTANTS, targets):
            print(f"{m.name}  {where}")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # the tests run from here, so their caches (.hypothesis) stay in it
        src = tmp / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        status = run_tests(src, tests, tmp)
        if status != 0:
            print(f"the mutants' tests do not pass on the unedited source (pytest status {status})")
            return 1
        survived = []
        for m, where in zip(MUTANTS, targets):
            path = src / m.file
            clean = path.read_text()
            path.write_text(clean.replace(m.snippet, m.replacement))
            status = run_tests(src, m.tests, tmp)
            path.write_text(clean)
            killed = status is None or status == 1
            print(f"{'killed' if killed else 'SURVIVED'}  {m.name}  {where}"
                  f"  ({'timeout' if status is None else f'pytest status {status}'})", flush=True)
            if not killed:
                survived.append(m.name)
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
