"""check_quasi's evaluator, by columns and by packed rows, against
one-assignment-at-a-time references: the package's own tree walk
(quasi_violated) in canonical or sampled order, and the frozenset oracle
built on oracles.brute_subst.  Checks decided member by member
(tsalg.pointwise) against oracles.brute_first_violation and the column
scan.  The relativization, separation and principal ultraproduct checks,
decided from their tables, against the elementwise oracles in
tests/oracles.py: exhaustive relativization against
oracles.brute_first_violation over every pair."""

import copy
import functools
import itertools
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import hypothesis
import hypothesis.strategies as strat
import pytest

from tsalg.algebra import (Carrier, Elem, carrier_from_seqs, full_carrier, permutable_closure,
                          permutable_subsets)
from tsalg.cli import main
from tsalg import pointwise, termlang, theorems
from tsalg.seqspace import DimensionMismatch, unit_seq
from tsalg.termlang import (
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

from oracles import (
    brute_first_violation,
    brute_permutable,
    brute_principal_ultraproduct,
    brute_relativization,
    brute_separation,
    brute_subst,
    lex_sequences,
    orbit,
    swap_images,
)

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
    sides = terms(n, ["x", "y"][: draw(strat.integers(1, 2))])
    equations = strat.builds(Equation, sides, sides)
    hypotheses = draw(strat.lists(equations, max_size=2))
    return D, QuasiEquation(tuple(hypotheses), draw(equations))


def terms(n, names):
    """Terms over names, 0 and 1, with s[i,j] and s{...} of dimension n."""
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

    return strat.recursive(leaves, extend, max_leaves=8)


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


# --- deciding member by member ----------------------------------------------


@strat.composite
def law_lists(draw):
    """A carrier (empty and non-permutable ones included), one to three
    variables, some perhaps unread, and one to three equations over them,
    with at most 9 bits per assignment."""
    n = draw(strat.integers(2, 3))
    u = draw(strat.integers(1, 3))
    names = ["x", "y", "z"][: draw(strat.integers(1, 3))]
    space = lex_sequences(n, u)
    picks = draw(strat.lists(strat.sampled_from(space), max_size=9 // len(names), unique=True))
    sides = terms(n, names)
    eqs = draw(strat.lists(strat.builds(Equation, sides, sides), min_size=1, max_size=3))
    return carrier_from_seqs(n, u, picks), names, eqs


def brute_laws(D, names, eqs):
    """brute_first_violation of eqs over D, by oracle_value."""
    def side(t):
        return lambda env: oracle_value(t, D.n, D.seqs, dict(zip(names, env)))

    return brute_first_violation(D.seqs, len(names), [(side(eq.lhs), side(eq.rhs)) for eq in eqs])


@hypothesis.settings(deadline=None, max_examples=120)
@hypothesis.given(law_lists())
@hypothesis.example((full_carrier(2, 2), ["x"], [parse_equation("s[0,1] x = x")]))
@hypothesis.example((carrier_from_seqs(2, 2, []), ["x", "y"], [parse_equation("0 = 1")]))
@hypothesis.example((carrier_from_seqs(2, 2, [(0, 1)]), ["x"], [parse_equation("x = x"), parse_equation("s[0,1] 1 = 1")]))
def test_decider_matches_frozenset_enumeration(case):
    # each equation's law alone, in one program holding them all
    D, names, eqs = case
    program, laws = termlang._compile(QuasiEquation(tuple(eqs[:-1]), eqs[-1]), D, names)
    for eq, law in zip(eqs, laws):
        def violates(rows, eq=eq):
            env = {nm: Elem(D, bits) for nm, bits in zip(names, rows)}
            return rows if termlang.equation_violated(D, eq, env) else None

        expected = brute_laws(D, names, [eq])
        assert pointwise.least_violation(program, law, 16) == (expected and expected[0])
        # the scan, with its witness, on truth tables of one entry per chunk
        with mock.patch.object(termlang, "EXHAUSTIVE_CHUNK_BITS", 0), \
                mock.patch.object(termlang, "least_violation", wraps=pointwise.least_violation) as decided:
            found = termlang._first_violation(program, [], law, Exhaustive(), violates)
        assert found == (expected and (expected[0], expected[2]))
        assert decided.called == (D.size > 0)
    # through check_equation, with truth tables in chunks of two entries
    eq = eqs[0]
    used = sorted(termlang.equation_vars(eq))
    expected = brute_laws(D, used, [eq])
    with mock.patch.object(termlang, "EXHAUSTIVE_CHUNK_BITS", 1), \
            mock.patch.object(termlang, "least_violation", wraps=pointwise.least_violation) as decided:
        v = check_equation(D, eq, Exhaustive())
    assert decided.called == (D.size * len(used) > 1)
    if expected is None:
        assert (v.outcome, v.witness, v.assignments_tested) == ("holds-exhaustive", None, 1 << D.size * len(used))
    else:
        index, _, rows = expected
        witness = {nm: Elem(D, bits) for nm, bits in zip(used, rows)}
        assert (v.outcome, v.witness, v.assignments_tested) == ("fails", witness, index + 1)


def relativization_laws(n, big, sub, misroute):
    """The laws of verify_relativization over x, y on big, in its order, as
    (violation record, (lhs, rhs)) for oracles.brute_first_violation: h x
    is the members g of sub whose read member, misroute.get(g, g), is in
    x.  Each map is cached per argument, so a sweep of every pair stays
    quick."""
    big, sub = frozenset(big), frozenset(sub)
    h = functools.cache(lambda x: frozenset(g for g in sub if misroute.get(g, g) in x))

    def of_x(side):
        side = functools.cache(side)
        return lambda env: side(env[0])

    laws = [({"op": "meet"}, (lambda env: h(env[0] & env[1]), lambda env: h(env[0]) & h(env[1]))),
            ({"op": "complement"}, (of_x(lambda x: h(big - x)), of_x(lambda x: sub - h(x))))]
    for i, j in itertools.combinations(range(n), 2):
        sw = swap_images(n, i, j)
        laws.append(({"op": "subst", "perm": list(sw)},
                     (of_x(lambda x, sw=sw: h(brute_subst(big, sw, x))),
                      of_x(lambda x, sw=sw: brute_subst(sub, sw, h(x))))))
    return laws


def misrouted_relativization(E, G, misroute, mode):
    """verify_relativization with G's member g reading misroute[g] of E
    instead of itself (None for nothing), let through whether or not G is
    permutable; relativize reads the same table."""
    table = G._gather_from(E)
    for g, src in misroute.items():
        table[G.seqs.index(g)] = None if src is None else E.seqs.index(src)
    with mock.patch.object(theorems, "is_permutable", return_value=True):
        return theorems.verify_relativization(E, G, mode)


def _expected_relativization(E, sub, misroute):
    """(mode, seed, elements_tested, pairs_tested, violation) of an
    exhaustive verify_relativization, from brute_first_violation over
    every (x, y) on E."""
    laws = relativization_laws(E.n, E.seqs, sub, misroute)
    found = brute_first_violation(E.seqs, 2, [pair for _, pair in laws])
    space = 1 << E.size
    if found is None:
        return "exhaustive", None, space, space * (space + 1) // 2, None
    index, k, (xb, yb) = found
    violation = dict(laws[k][0], x=[list(s) for s in Elem(E, xb).seqs()])
    if k == 0:
        violation["y"] = [list(s) for s in Elem(E, yb).seqs()]
    return "exhaustive", None, xb + 1, index + 1, violation


def test_exhaustive_relativization_matches_pairwise_enumeration():
    # every permutable G of ^2 3 holds, from G and the least member outside
    # it, or from G itself past 6 members (the enumeration takes 4 ** |E|
    # pairs); the non-permutable G, let through, break laws from their
    # permutable closure, and the misrouted tables from all of ^2 3
    rng = random.Random(11)
    space = lex_sequences(2, 3)
    subs = [list(G.seqs) for G in permutable_subsets(2, 3)]
    assert len(subs) == 64
    cases = [(sorted(sub + [q for q in space if q not in sub][:len(sub) <= 6]), sub, {}) for sub in subs]
    others = []
    while len(others) < 40 + 12:
        sub = sorted(rng.sample(space, rng.randint(1, 8)))
        if not brute_permutable(sub, 2):
            others.append(sub)
    cases += [(permutable_closure(carrier_from_seqs(2, 3, sub)).seqs, sub, {}) for sub in others[:40]]
    for sub in others[40:]:
        moved = rng.sample(sub, rng.randint(1, min(3, len(sub))))
        cases.append((space, sub, {g: rng.choice([None] + [q for q in space if q != g]) for g in moved}))
    cases.append((space, [(0, 0), (1, 1)], {(1, 1): (0, 1)}))  # s[0,1] breaks at x = {(0,1)}
    cases.append((space, [(0, 1), (1, 0)], {(0, 1): (1, 0)}))  # two entries read (1,0)
    failed = 0
    for big, sub, misroute in cases:
        E, G = carrier_from_seqs(2, 3, big), carrier_from_seqs(2, 3, sub)
        r = misrouted_relativization(E, G, misroute, Exhaustive())
        assert (r.mode, r.seed, r.elements_tested, r.pairs_tested, r.violation) == \
            _expected_relativization(E, sub, misroute), (big, sub, misroute)
        failed += not r.passed
    assert failed == len(cases) - len(subs)
    # sampled, with two entries reading one member of E, which no network
    # routes
    sub, misroute = [(0, 1), (1, 0)], {(0, 1): (1, 0)}
    for trials, seed in ((30, 3), (1, 0), (200, 7)):
        r = misrouted_relativization(full_carrier(2, 3), carrier_from_seqs(2, 3, sub), misroute,
                                     Random(trials, seed))
        violation, tested = brute_relativization(2, space, sub, trials, seed, misroute)
        assert (r.mode, r.seed, r.violation, r.elements_tested, r.pairs_tested) == \
            (f"random({trials})", seed, violation, tested, tested)


@pytest.mark.parametrize("n,u,count,text,outcome", [
    (2, 3, 9, "s[0,1] (x & y) = s[0,1] x & s[0,1] y", "holds-exhaustive"),
    (2, 3, 9, "s[0,1] x & y = x & s[0,1] y", "fails"),
    (3, 3, 17, "s[0,1] (x & ~x) = 0", "holds-exhaustive"),
    (3, 3, 17, "~s[0,2] x = s[0,2] ~x", "fails"),
    (3, 3, 20, "s[0,1] s[0,1] x = x", "fails"),
    (2, 4, 10, "x | y = y | x", "holds-exhaustive"),
])
def test_wide_exhaustive_equations_match_the_column_scan(n, u, count, text, outcome):
    # 17 to 20 bits per assignment; a hypothesis that always holds keeps
    # the column scan
    D = carrier_from_seqs(n, u, lex_sequences(n, u)[:count])
    eq = parse_equation(text)
    with mock.patch.object(termlang, "least_violation", wraps=pointwise.least_violation) as decided:
        v = check_equation(D, eq, Exhaustive())
    ref = check_quasi(D, QuasiEquation((Equation(Zero(), Zero()),), eq), Exhaustive())
    assert decided.called and v.outcome == outcome
    assert (v.outcome, v.witness, v.assignments_tested) == (ref.outcome, ref.witness, ref.assignments_tested)


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
    # rows of 1312 bits (1310 members, whole bytes), 99 to a chunk
    D = carrier_from_seqs(11, 2, lex_sequences(11, 2)[:termlang.ROW_CHUNK_BITS // 100])
    assert D.size < termlang.WIDE_ROW_BITS
    with mock.patch.object(termlang, "_run_rows", wraps=termlang._run_rows) as run:
        v = check_equation(D, parse_equation("x & y = y & x"), Random(1000, 1))
    assert v.outcome == "holds-sampled" and run.call_count == -(-1000 // 99)


@pytest.mark.parametrize("text", ["x & y = y & x", "x & y = x", "x = ~y => x | y = 0"])
def test_sampled_laws_without_subst_go_row_by_row(text):
    D = full_carrier(10, 2)
    qe = parse_quasi(text) if "=>" in text else QuasiEquation((), parse_equation(text))
    expected = tree_walk(D, qe, row_wise(D, ["x", "y"], 20, 3), "holds-sampled")
    with mock.patch.object(termlang, "_run", side_effect=AssertionError("columns built")):
        same_verdict(check_quasi(D, qe, Random(20, 3)), expected)


def test_exhaustive_checks_build_no_network():
    # columns gather; only sampled checks compile s_f as a network
    D = full_carrier(2, 2)
    with mock.patch.object(Carrier, "_network_for", side_effect=AssertionError("network built")):
        v = check_equation(D, parse_equation("s[0,1] (x & y) = s[0,1] x & s[0,1] y"), Exhaustive())
    assert v.outcome == "holds-exhaustive"


def test_sampled_holds_across_a_partial_last_chunk():
    # rows of one byte: a full chunk, then 7 rows
    D = full_carrier(2, 2)
    trials = termlang.ROW_CHUNK_BITS // 8 + 7
    v = check_quasi(D, parse_quasi("x = y => s[0,1] x = s[0,1] y"), Random(trials, 5))
    assert v.outcome == "holds-sampled" and v.assignments_tested == trials


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
    program = termlang._Program(D.size, len(names), rows)
    slots, compiled = {}, {}

    def emit(t):
        if t in slots:
            return slots[t]
        if isinstance(t, Var):
            op = ("var", names.index(t.name))
        elif isinstance(t, Zero):
            op = ("zero",)
        elif isinstance(t, One):
            op = ("one",)
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


def test_program_gives_each_op_one_slot():
    # s[0,1] and s{1,0} compile to one map, so both sides are one slot in
    # either layout; maps are keyed by the identity of their table
    D = full_carrier(2, 2)
    qe = QuasiEquation((), parse_equation("s[0,1] x & ~y = s{1,0} x & ~y"))
    for rows in (False, True):
        program, [(lhs, rhs)] = termlang._compile(qe, D, ["x", "y"], rows)
        assert lhs == rhs and len(program) == 5
    program = termlang._Program(4, 1, rows=False)
    x, table = program.emit("var", 0), [1, 0, 3, 2]
    assert program.emit("gather", x, table) == program.emit("gather", x, table) == 1
    assert program.emit("gather", x, list(table)) == 2 and program.emit("var", 0) == x


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


# --- sampled relativization and separation ------------------------------------


@strat.composite
def relativizations(draw):
    """A carrier E (a union of coordinate-swap orbits: permutable), a
    sub-carrier G of E, permutable (a union of E's orbits, empty and E
    itself included) or not (any subset), trials and a seed."""
    n, u = draw(strat.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]))
    orbits = sorted({orbit(q) for q in lex_sequences(n, u)}, key=min)
    big = draw(strat.lists(strat.sampled_from(orbits), min_size=1, unique=True))
    members = sorted(set().union(*big))
    if draw(strat.booleans()):
        sub = set().union(*draw(strat.lists(strat.sampled_from(big), unique=True)))
    else:
        sub = set(draw(strat.lists(strat.sampled_from(members), unique=True)))
    return n, u, members, sorted(sub), draw(strat.integers(1, 60)), draw(strat.integers(0, 1 << 31))


@hypothesis.settings(deadline=None, max_examples=80)
@hypothesis.given(relativizations())
@hypothesis.example((2, 3, lex_sequences(2, 3), [], 20, 1))  # an empty G
@hypothesis.example((2, 3, lex_sequences(2, 3), lex_sequences(2, 3), 20, 2))  # G = E
@hypothesis.example((2, 2, lex_sequences(2, 2), [(0, 0), (0, 1)], 20, 3))  # s[0,1] breaks
def test_sampled_relativization_matches_elementwise_reference(case):
    n, u, members, sub, trials, seed = case
    E, G = carrier_from_seqs(n, u, members), carrier_from_seqs(n, u, sub)
    violation, tested = brute_relativization(n, members, sub, trials, seed)
    # the laws can fail only off a permutable G, which verify_relativization
    # refuses up front: let it through, so the violation path runs too
    with mock.patch.object(theorems, "is_permutable", return_value=True):
        r = theorems.verify_relativization(E, G, mode=Random(trials, seed))
    assert (r.violation, r.elements_tested, r.pairs_tested) == (violation, tested, tested)
    assert (r.mode, r.seed) == (f"random({trials})", seed)


@strat.composite
def routed_relativizations(draw):
    """A carrier E (any subset of ^n u), a sub-carrier G of E, permutable
    (a union of the orbits lying in E) or not (any subset), and G's table
    into E: its own, or, when G is not E (relativize reads no table then),
    misrouted (any position of E, or None, per entry)."""
    n, u = draw(strat.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]))
    members = sorted(draw(strat.lists(strat.sampled_from(lex_sequences(n, u)), min_size=1, unique=True)))
    if draw(strat.booleans()):
        inside = sorted({orbit(q) for q in members if orbit(q) <= set(members)}, key=min)
        sub = set().union(*[o for o in inside if draw(strat.booleans())])
    else:
        sub = set(draw(strat.lists(strat.sampled_from(members), unique=True)))
    E, G = carrier_from_seqs(n, u, members), carrier_from_seqs(n, u, sorted(sub))
    table = G._gather_from(E)
    if G != E and draw(strat.booleans()):
        table = draw(strat.lists(strat.one_of(strat.none(), strat.integers(0, E.size - 1)),
                                 min_size=G.size, max_size=G.size))
    return E, G, table


@hypothesis.settings(deadline=None, max_examples=100)
@hypothesis.given(routed_relativizations())
@hypothesis.example((full_carrier(2, 2), carrier_from_seqs(2, 2, [(0, 0), (1, 1)]), [0, 1]))
@hypothesis.example((full_carrier(2, 3), carrier_from_seqs(2, 3, [(0, 1), (1, 0)]), [3, None]))
def test_relativization_reads_the_bigger_carriers_gathers_where_the_table_points(case):
    # the s_t law reads E's s_t at the positions table points at, and each
    # such read must agree with E's whole gather there
    E, G, table = case
    G._gather_from(E)[:] = table
    reads, swapped_at = [], theorems._swapped_at

    def spy(big, ranks, t):
        reads.append((t, swapped_at(big, ranks, t)))
        return reads[-1][1]

    with mock.patch.object(theorems, "_swapped_at", spy), \
            mock.patch.object(theorems, "is_permutable", return_value=True):
        theorems.verify_relativization(E, G, mode=Random(5, 1))
    assert len(reads) == E.n * (E.n - 1) // 2
    for t, lhs in reads:
        assert lhs == [None if src is None else E._gather_for(t)[src] for src in table], t


def test_relativization_compiles_no_gather_of_the_bigger_carrier():
    # from full (16,2) onto its units the laws read 16 entries of each of
    # E's 120 transposition gathers, never the 65,536 of a whole one
    cases = [(full_carrier(2, 3), G) for G in permutable_subsets(2, 3)]
    cases += [(full_carrier(n, 2), carrier_from_seqs(n, 2, [unit_seq(n, i) for i in range(n)]))
              for n in (3, 16)]
    for E, G in cases:
        assert theorems.verify_relativization(E, G).passed
        assert not [key for key in E._gathers if not isinstance(key, Carrier)], (E, G)


@strat.composite
def separations(draw):
    """A signature (n, k), members of ^n k to hide from the routes over
    fewer than k values, trials and a seed."""
    n, k = draw(strat.sampled_from([(1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2)]))
    hidden = draw(strat.lists(strat.sampled_from(lex_sequences(n, k)), max_size=3))
    return n, k, frozenset(hidden), draw(strat.integers(1, 80)), draw(strat.integers(0, 1 << 31))


@hypothesis.settings(deadline=None, max_examples=60)
@hypothesis.given(separations())
@hypothesis.example((1, 3, frozenset({(0,)}), 40, 4))  # unseparated
@hypothesis.example((1, 3, frozenset({(2,)}), 40, 4))  # unseparated past the first member
def test_sampled_separation_matches_elementwise_reference(case):
    # hidden members drop out of every route over fewer than k values, so
    # pairs that differ only there go unseparated; sampled, and exhaustive
    # on spaces of at most 8 members
    n, k, hidden, trials, seed = case
    gather_from = Carrier._gather_from

    def blinded(G, E):
        table = gather_from(G, E)
        return table if G is E else [None if E.seqs[p] in hidden else p for p in table]

    modes = [(Random(trials, seed), trials, f"random({trials})", seed)]
    if k**n <= 8:
        modes.append((Exhaustive(), None, "exhaustive", None))
    for mode, brute_trials, label, reported_seed in modes:
        failure, tested = brute_separation(n, k, brute_trials, seed, hidden)
        with mock.patch.object(Carrier, "_gather_from", blinded):
            _, sep = theorems.decompose_small(n, k, mode=mode)
        assert (sep.failure, sep.separated, sep.pairs_tested) == (failure, failure is None, tested)
        assert (sep.mode, sep.seed) == (label, reported_seed)


# --- principal ultraproducts ------------------------------------------------


@strat.composite
def ultraproducts(draw):
    """Factor lists of one dimension (empty factors and dimension 0
    included), a principal index and some misrouted entries of the
    principal factor's ψ table: up to two entries that read one another's
    positions, or nothing, so the table stays a partial injection."""
    n = draw(strat.integers(0, 3))
    specs = draw(strat.lists(strat.tuples(strat.just(n), strat.integers(0, (3, 5, 3, 2)[n])),
                             min_size=1, max_size=3))
    i0 = draw(strat.integers(0, len(specs) - 1))
    target = lex_sequences(*specs[i0])
    moved = draw(strat.lists(strat.sampled_from(target), max_size=2, unique=True)) if target else []
    images = draw(strat.permutations(moved))
    misroute = {t: draw(strat.sampled_from([q, None])) for t, q in zip(moved, images)}
    return specs, i0, misroute


def _misrouted_ultraproduct(specs, i0, misroute):
    table_for = theorems._psi_table

    def misrouted(target):
        table = table_for(target)
        seqs = target.seqs
        for t, q in misroute.items():
            table[seqs.index(t)] = None if q is None else seqs.index(q)
        return table

    with mock.patch.object(theorems, "_psi_table", misrouted):
        return theorems.principal_ultraproduct([full_carrier(*s) for s in specs], i0)


@hypothesis.settings(deadline=None, max_examples=80)
@hypothesis.given(ultraproducts())
@hypothesis.example(([(2, 2)], 0, {}))  # a single factor
@hypothesis.example(([(2, 0), (2, 3)], 1, {}))  # an empty factor
@hypothesis.example(([(2, 0), (2, 3)], 0, {}))  # an empty target
@hypothesis.example(([(0, 2), (0, 0), (0, 3)], 2, {}))  # dimension 0
@hypothesis.example(([(2, 2), (2, 3)], 0, {(0, 1): (1, 0), (1, 0): (0, 1)}))  # two entries swapped
@hypothesis.example(([(2, 2)], 0, {(1, 1): None}))  # an entry reading nothing
# three entries, the least of them reading nothing, at a principal index past 0
@hypothesis.example(([(2, 3), (2, 2)], 1, {(0, 0): None, (1, 0): (1, 1), (1, 1): (1, 0)}))
# a swap at the first position, beside other factors of 0, 1 and 9 members
@hypothesis.example(([(2, 1), (2, 2), (2, 0), (2, 3)], 1, {(0, 1): (0, 0), (0, 0): (0, 1)}))
def test_ultraproduct_matches_elementwise_reference(case):
    specs, i0, misroute = case
    r = _misrouted_ultraproduct(specs, i0, misroute)
    expected = brute_principal_ultraproduct(specs, i0, misroute)
    assert {key: getattr(r, key) for key in expected} == expected
    assert r.passed == (expected["violation"] is None)


def test_ultraproduct_wide_target_matches_elementwise_reference():
    # 14 target members: every one of the 2**14 classes is decided
    specs = [(1, 14), (1, 3), (1, 0)]
    r = _misrouted_ultraproduct(specs, 0, {})
    assert r.passed and r.mode == "exhaustive" and r.classes_tested == 1 << 14
    expected = brute_principal_ultraproduct(specs, 0)
    assert {key: getattr(r, key) for key in expected} == expected
