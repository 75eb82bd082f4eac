"""check_quasi's column evaluator against one-assignment-at-a-time
references: the package's own tree walk (quasi_violated) in canonical or
sampled order, and the frozenset oracle built on oracles.brute_subst.
The column check of principal ultraproducts against the elementwise
oracles.brute_principal_ultraproduct."""

import copy
import itertools
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import hypothesis
import hypothesis.strategies as strat
import pytest

from tsalg.algebra import Carrier, Elem, carrier_from_seqs, full_carrier
from tsalg.cli import main
from tsalg import termlang, theorems
from tsalg.seqspace import DimensionMismatch
from tsalg.termlang import (
    SAMPLE_CHUNK,
    SAMPLE_CHUNK_BITS,
    And,
    Equation,
    Exhaustive,
    Images,
    Not,
    One,
    Or,
    QuasiEquation,
    Random,
    Subst,
    Transposition,
    Var,
    Zero,
    check_equation,
    check_quasi,
    parse_equation,
    parse_quasi,
    quasi_vars,
    quasi_violated,
)

from oracles import brute_principal_ultraproduct, brute_subst, lex_sequences, swap_images

SRC = Path(__file__).resolve().parent.parent / "src"


# --- references -------------------------------------------------------------


def oracle_value(t, n, members, env):
    """Value of t as a frozenset of member tuples, from the definitions."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Zero):
        return frozenset()
    if isinstance(t, One):
        return frozenset(members)
    if isinstance(t, Not):
        return frozenset(members) - oracle_value(t.arg, n, members, env)
    if isinstance(t, And):
        return oracle_value(t.left, n, members, env) & oracle_value(t.right, n, members, env)
    if isinstance(t, Or):
        return oracle_value(t.left, n, members, env) | oracle_value(t.right, n, members, env)
    if isinstance(t.perm, Transposition):
        images = swap_images(n, t.perm.i, t.perm.j)
    else:
        images = t.perm.images
    return brute_subst(members, images, oracle_value(t.arg, n, members, env))


def oracle_violated(qe, n, members, env):
    def differs(eq):
        return oracle_value(eq.lhs, n, members, env) != oracle_value(eq.rhs, n, members, env)

    return not any(differs(h) for h in qe.hypotheses) and differs(qe.conclusion)


def tree_walk(D, qe, assignments, outcome):
    """(outcome, witness, assignments tested) of a one-at-a-time scan, with
    the oracle asked about every assignment on the way."""
    tested = 0
    for env in assignments:
        tested += 1
        violated = quasi_violated(D, qe, env)
        sets = {nm: frozenset(e.seqs()) for nm, e in env.items()}
        assert oracle_violated(qe, D.n, D.seqs, sets) == violated, env
        if violated:
            return "fails", env, tested
    return outcome, None, tested


def canonical(D, names):
    for combo in itertools.product(range(1 << D.size), repeat=len(names)):
        yield {nm: Elem(D, b) for nm, b in zip(names, combo)}


def row_wise(D, names, trials, seed):
    rng = random.Random(seed)
    for _ in range(trials):
        yield {nm: Elem(D, rng.getrandbits(D.size) if D.size else 0) for nm in names}


def same_verdict(verdict, expected):
    outcome, witness, tested = expected
    assert (verdict.outcome, verdict.witness, verdict.assignments_tested) == (outcome, witness, tested)


# --- random carriers and quasi-equations ------------------------------------


@strat.composite
def instances(draw):
    n = draw(strat.integers(2, 3))
    u = draw(strat.integers(1, 3))
    space = lex_sequences(n, u)
    picks = draw(strat.lists(strat.sampled_from(space), max_size=6, unique=True))
    D = carrier_from_seqs(n, u, picks)
    names = ["x", "y"][: draw(strat.integers(1, 2))]
    specs = strat.one_of(
        strat.tuples(strat.integers(0, n - 1), strat.integers(0, n - 1))
        .filter(lambda ij: ij[0] != ij[1])
        .map(lambda ij: Transposition(*ij)),
        strat.permutations(range(n)).map(lambda p: Images(tuple(p))),
    )
    leaves = strat.sampled_from([Zero(), One(), *map(Var, names)])

    def extend(children):
        return strat.one_of(
            strat.tuples(children, children).map(lambda p: And(*p)),
            strat.tuples(children, children).map(lambda p: Or(*p)),
            children.map(Not),
            strat.tuples(specs, children).map(lambda p: Subst(*p)),
        )

    terms = strat.recursive(leaves, extend, max_leaves=8)
    equations = strat.builds(Equation, terms, terms)
    hypotheses = draw(strat.lists(equations, max_size=2))
    return D, QuasiEquation(tuple(hypotheses), draw(equations))


@hypothesis.settings(deadline=None, max_examples=60)
@hypothesis.given(instances())
def test_exhaustive_matches_canonical_tree_walk(instance):
    D, qe = instance
    names = sorted(quasi_vars(qe))
    expected = tree_walk(D, qe, canonical(D, names), "holds-exhaustive")
    same_verdict(check_quasi(D, qe, Exhaustive()), expected)
    # chunks of 8 assignments: most instances span several
    with mock.patch.object(termlang, "EXHAUSTIVE_CHUNK_BITS", 3):
        same_verdict(check_quasi(D, qe, Exhaustive()), expected)


@hypothesis.settings(deadline=None, max_examples=60)
@hypothesis.given(instances(), strat.integers(1, 60), strat.integers(0, 1 << 31))
def test_sampled_matches_row_wise_tree_walk(instance, trials, seed):
    D, qe = instance
    names = sorted(quasi_vars(qe))
    expected = tree_walk(D, qe, row_wise(D, names, trials, seed), "holds-sampled")
    verdict = check_quasi(D, qe, Random(trials, seed))
    assert (verdict.trials, verdict.seed) == (trials, seed)
    same_verdict(verdict, expected)
    # packed rows of one byte (the carriers hold at most 6 members, their
    # Benes rows at most 8 bits), three to a chunk
    with mock.patch.object(termlang, "ROW_CHUNK_BITS", 24):
        same_verdict(check_quasi(D, qe, Random(trials, seed)), expected)


# --- chunk boundaries --------------------------------------------------------


def test_exhaustive_least_witness_past_the_first_chunk():
    D = full_carrier(3, 2)
    v = check_equation(D, parse_equation("x & y & z = 0"), Exhaustive(1 << 24))
    # x is the most significant name: no violation while x = 0, so the
    # least one is x = y = z = {(0,0,0)} at index 2**16 + 2**8 + 1
    assert v.outcome == "fails"
    assert {nm: e.bits for nm, e in v.witness.items()} == {"x": 1, "y": 1, "z": 1}
    assert v.assignments_tested == 65_793 + 1


def test_sampled_failure_first_hit_in_the_second_chunk():
    # violated only by x = 1, which a 12-member carrier draws once in 4096;
    # its rows are 16 bits wide, 2**10 to a chunk here
    D = carrier_from_seqs(2, 4, lex_sequences(2, 4)[:12])
    qe = parse_quasi("x = 1 => s[0,1] 0 = 1")
    chunk = 1 << 10

    def first_hit(seed):
        rng = random.Random(seed)
        return next(t for t in itertools.count(1) if rng.getrandbits(12) == 4095)

    seed = next(s for s in itertools.count() if first_hit(s) > chunk)
    trials = 3 * chunk
    expected = tree_walk(D, qe, row_wise(D, ["x"], trials, seed), "holds-sampled")
    assert expected[0] == "fails" and chunk < expected[2] <= trials
    with mock.patch.object(termlang, "ROW_CHUNK_BITS", 16 * chunk):
        same_verdict(check_quasi(D, qe, Random(trials, seed)), expected)


def test_sampled_first_violation_in_a_later_row_of_a_chunk():
    # rows where x & y != 0 break the conclusion x = 0 too, but not the
    # hypothesis; the first violation follows such rows in its chunk
    D = full_carrier(2, 2)
    qe = parse_quasi("x & y = 0 => x = 0")
    height = termlang.ROW_CHUNK_BITS // 8

    def shape(seed):
        rng = random.Random(seed)
        rows = [(rng.getrandbits(4), rng.getrandbits(4)) for _ in range(40)]
        first = next(t for t, (x, y) in enumerate(rows) if x and not x & y)
        return first, all(x & y for x, y in rows[:first])

    seed = next(s for s in itertools.count() if shape(s)[0] >= 3 and shape(s)[1])
    first = shape(seed)[0]
    assert first < height
    expected = tree_walk(D, qe, row_wise(D, ["x", "y"], 40, seed), "holds-sampled")
    assert expected[2] == first + 1
    same_verdict(check_quasi(D, qe, Random(40, seed)), expected)


@pytest.mark.parametrize("nbytes", [1, 2, 3, 5, 31, 92, 128])
def test_row_flags_see_every_bit_of_a_row(nbytes):
    # one differing bit anywhere in row r flags row r alone, also where the
    # stride is not a power of two (full (5,3) packs 243 members in 248 bits)
    stride, height = 8 * nbytes, 4
    for r in range(height):
        for p in range(stride):
            flags = termlang._row_flags([1 << (r * stride + p), 0], stride, height, 0, 1)
            assert flags & termlang._repeat_row(1, nbytes, height) == 1 << (r * stride), (r, p)


@pytest.mark.parametrize("text", ["s[0,1] (x & y) = s[0,1] x & s[0,1] y", "x & y = x",
                                  "x = y => s{2,0,1,3,4,5,6,7,8,9,10,11} x = s[0,2] s[1,2] y"])
def test_sampled_wide_carrier_one_trial_per_chunk(text):
    D = full_carrier(12, 2)
    assert D.size >= termlang.WIDE_ROW_BITS
    qe = parse_quasi(text) if "=>" in text else QuasiEquation((), parse_equation(text))
    names = sorted(quasi_vars(qe))
    expected = tree_walk(D, qe, row_wise(D, names, 12, 9), "holds-sampled")
    with mock.patch.object(termlang, "_run_rows", wraps=termlang._run_rows) as run:
        same_verdict(check_quasi(D, qe, Random(12, 9)), expected)
    assert run.call_count == expected[2]


def test_sampled_chunks_narrow_on_wide_carriers():
    size = SAMPLE_CHUNK_BITS // 100
    chunks = termlang._transposed(termlang._draws(size, 1, Random(1000, 1)), size, 1, 1000)
    assert [width for width, _ in chunks] == [100] * 10


@pytest.mark.parametrize("text", ["x & y = y & x", "x & y = x", "x = ~y => x | y = 0"])
def test_sampled_laws_without_subst_go_row_by_row(text):
    D = full_carrier(10, 2)
    qe = parse_quasi(text) if "=>" in text else QuasiEquation((), parse_equation(text))
    expected = tree_walk(D, qe, row_wise(D, ["x", "y"], 20, 3), "holds-sampled")
    with mock.patch.object(termlang, "_transposed", side_effect=AssertionError("columns built")):
        same_verdict(check_quasi(D, qe, Random(20, 3)), expected)


def test_exhaustive_checks_build_no_network():
    # columns gather; only sampled checks compile s_f as a network
    D = full_carrier(2, 2)
    with mock.patch.object(Carrier, "_network_for", side_effect=AssertionError("network built")):
        v = check_equation(D, parse_equation("s[0,1] (x & y) = s[0,1] x & s[0,1] y"), Exhaustive())
    assert v.outcome == "holds-exhaustive"


def test_sampled_holds_across_a_partial_last_chunk():
    D = full_carrier(2, 2)
    v = check_quasi(D, parse_quasi("x = y => s[0,1] x = s[0,1] y"), Random(SAMPLE_CHUNK + 7, 5))
    assert v.outcome == "holds-sampled" and v.assignments_tested == SAMPLE_CHUNK + 7


def test_witness_disagreement_raises(tmp_path, capsys):
    # the columns find s[0,1] x = x broken while the re-check says it holds
    D = full_carrier(2, 2)
    qe = QuasiEquation((), parse_equation("s[0,1] x = x"))
    spec = tmp_path / "full22.alg"
    spec.write_text("n = 2\nbase = 2\ncarrier = full\n")
    with mock.patch.object(termlang, "quasi_violated", return_value=False):
        # columns, packed rows, and one row per chunk
        for carrier, mode in ((D, Exhaustive()), (D, Random(50, 4)), (full_carrier(12, 2), Random(5, 4))):
            with pytest.raises(RuntimeError, match="disagree"):
                check_quasi(carrier, qe, mode)
        assert main(["check", "--spec", str(spec), "--eq", "s[0,1] x = x"]) == 2
    assert "disagree" in capsys.readouterr().err


# --- operator specs are resolved before enumeration ---------------------------

# the hypotheses contradict each other, so no assignment reaches the
# conclusion, whose operator does not fit dimension 2
UNREACHED = "x = 0, x = 1 => s[0,5] x = x"


def test_unfit_spec_in_unreached_conclusion_raises():
    D = full_carrier(2, 2)
    qe = parse_quasi(UNREACHED)
    assert not any(quasi_violated(D, qe, env) for env in canonical(D, ["x"]))
    for mode in (Exhaustive(), Random(10, 1)):
        with pytest.raises(DimensionMismatch):
            check_quasi(D, qe, mode)


def test_unfit_spec_in_unreached_conclusion_exits_two(tmp_path, capsys):
    spec = tmp_path / "full22.alg"
    spec.write_text("n = 2\nbase = 2\ncarrier = full\n")
    assert main(["check", "--spec", str(spec), "--quasi", UNREACHED]) == 2
    assert "does not fit dimension 2" in capsys.readouterr().err


# --- compiling: slots shared by op ------------------------------------------


def term_keyed_compile(qe, D, names, rows=False):
    """_compile as it was with slots keyed by the terms themselves."""
    program = termlang._Program()
    slots, compiled = {}, {}

    def emit(t):
        if t in slots:
            return slots[t]
        if isinstance(t, Var):
            op = ("var", names.index(t.name))
        elif isinstance(t, Zero):
            op = ("zero", D.size)
        elif isinstance(t, One):
            op = ("one", D.size)
        elif isinstance(t, Not):
            op = ("not", emit(t.arg))
        elif isinstance(t, And):
            op = ("and", emit(t.left), emit(t.right))
        elif isinstance(t, Or):
            op = ("or", emit(t.left), emit(t.right))
        else:
            if t.perm not in compiled:
                f = termlang.spec_perm(t.perm, D.n)
                compiled[t.perm] = D._network_for(f) if rows else D._gather_for(f)
            op = ("net" if rows else "gather", emit(t.arg), compiled[t.perm])
        slots[t] = program.emit(*op)
        return slots[t]

    equations = [(emit(eq.lhs), emit(eq.rhs)) for eq in (*qe.hypotheses, qe.conclusion)]
    return program, equations


@strat.composite
def shared_subterms(draw):
    """A carrier and a quasi-equation whose terms are built from a pool of
    earlier terms, so subterms repeat, as the same object or as an equal
    copy."""
    n = draw(strat.integers(2, 3))
    u = draw(strat.integers(1, 3))
    space = lex_sequences(n, u)
    D = carrier_from_seqs(n, u, draw(strat.lists(strat.sampled_from(space), max_size=6, unique=True)))
    specs = strat.one_of(
        strat.sampled_from([Transposition(i, j) for i in range(n) for j in range(n) if i != j]),
        strat.permutations(range(n)).map(lambda p: Images(tuple(p))),
    )
    pool = [Zero(), One(), Var("x"), Var("y")]
    for _ in range(draw(strat.integers(0, 12))):
        a, b = draw(strat.sampled_from(pool)), draw(strat.sampled_from(pool))
        kind = draw(strat.sampled_from(["and", "or", "not", "s"]))
        t = {"and": lambda: And(a, b), "or": lambda: Or(a, b), "not": lambda: Not(a),
             "s": lambda: Subst(draw(specs), a)}[kind]()
        pool.append(copy.deepcopy(t) if draw(strat.booleans()) else t)
    equations = strat.builds(Equation, strat.sampled_from(pool), strat.sampled_from(pool))
    return D, QuasiEquation(tuple(draw(strat.lists(equations, max_size=2))), draw(equations))


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(shared_subterms())
def test_compile_by_op_matches_term_keyed_reference(instance):
    D, qe = instance
    names = sorted(quasi_vars(qe))
    for rows in (False, True):
        assert termlang._compile(qe, D, names, rows) == term_keyed_compile(qe, D, names, rows)


# --- re-imports --------------------------------------------------------------


def test_reimports_release_earlier_modules():
    # runs in a child process: re-importing here would hand later tests
    # new classes
    script = f"""
import gc, importlib, sys
sys.path.insert(0, {str(SRC)!r})
for _ in range(50):
    for name in [m for m in sys.modules if m == "tsalg" or m.startswith("tsalg.")]:
        del sys.modules[name]
    importlib.import_module("tsalg")
gc.collect()
print(sum(1 for o in gc.get_objects() if isinstance(o, type) and o.__name__ == "Carrier"))
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    assert int(done.stdout) <= 2


# --- principal ultraproducts ------------------------------------------------


@strat.composite
def ultraproducts(draw):
    """Factor lists of one dimension (empty factors and dimension 0
    included), a principal index, a class-space limit (small ones sample
    the classes) and some misrouted entries of the principal factor's ψ
    table, which reach both phases of the check."""
    n = draw(strat.integers(0, 3))
    specs = draw(strat.lists(strat.tuples(strat.just(n), strat.integers(0, (3, 5, 3, 2)[n])),
                             min_size=1, max_size=3))
    i0 = draw(strat.integers(0, len(specs) - 1))
    target = lex_sequences(*specs[i0])
    misroute = {}
    if target:
        misroute = draw(strat.dictionaries(strat.sampled_from(target),
                                           strat.sampled_from(target + [None]), max_size=2))
    limit = draw(strat.sampled_from([1 << 12, 1, 2, 4]))
    return specs, i0, misroute, limit, draw(strat.integers(0, 1 << 31))


def _ultraproduct_by_columns(specs, i0, misroute, limit, seed):
    tables_for = theorems._psi_tables

    def misrouted(factors, i0):
        tables = tables_for(factors, i0)
        seqs = factors[i0].seqs
        for t, q in misroute.items():
            tables[i0][seqs.index(t)] = None if q is None else seqs.index(q)
        return tables

    with mock.patch.object(theorems, "_psi_tables", misrouted), \
            mock.patch.object(theorems, "_CLASS_EXHAUSTIVE_LIMIT", limit):
        return theorems.principal_ultraproduct([full_carrier(*s) for s in specs], i0, seed=seed)


@hypothesis.settings(deadline=None, max_examples=80)
@hypothesis.given(ultraproducts())
@hypothesis.example(([(2, 2)], 0, {}, 1 << 12, 3))  # a single factor
@hypothesis.example(([(2, 0), (2, 3)], 1, {}, 1 << 12, 4))  # an empty factor
@hypothesis.example(([(2, 0), (2, 3)], 0, {}, 1 << 12, 4))  # an empty target
@hypothesis.example(([(0, 2), (0, 0), (0, 3)], 2, {}, 1 << 12, 5))  # dimension 0
@hypothesis.example(([(2, 2), (2, 3)], 0, {(0, 1): (1, 0)}, 1 << 12, 6))  # class phase
@hypothesis.example(([(2, 2)], 0, {(0, 1): (0, 0)}, 1, 7))  # pair phase
# pair phase, past draws for other factors of 0, 1 and 9 members
@hypothesis.example(([(2, 1), (2, 2), (2, 0), (2, 3)], 1, {(0, 1): (0, 0)}, 1, 12))
def test_ultraproduct_matches_elementwise_reference(case):
    specs, i0, misroute, limit, seed = case
    r = _ultraproduct_by_columns(specs, i0, misroute, limit, seed)
    expected = brute_principal_ultraproduct(specs, i0, seed, misroute, class_limit=limit)
    assert {key: getattr(r, key) for key in expected} == expected
    assert r.passed == (expected["violation"] is None)


def test_ultraproduct_sampled_classes_match_elementwise_reference():
    # 14 target members: 2**14 classes, 4096 draws
    specs = [(1, 14), (1, 3), (1, 0)]
    r = _ultraproduct_by_columns(specs, 0, {}, 1 << 12, 8)
    assert r.passed and r.mode.startswith("classes=sampled(")
    expected = brute_principal_ultraproduct(specs, 0, 8)
    assert {key: getattr(r, key) for key in expected} == expected
