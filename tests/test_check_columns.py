"""check_quasi's evaluator, by columns and by packed rows, against
one-assignment-at-a-time references: the package's own tree walk
(quasi_violated) in canonical or sampled order, and the frozenset oracle
built on oracles.brute_subst.  Checks decided member by member
(termlang.least_violation) against oracles.brute_first_violation and the
column scan.  The relativization, separation and principal ultraproduct
checks, decided from their tables, against the elementwise oracles in
tests/oracles.py: exhaustive relativization against
oracles.brute_first_violation over every pair."""

import copy
import functools
import itertools
import operator
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import hypothesis
import hypothesis.strategies as strat
import pytest

from tsalg.algebra import (Carrier, Elem, carrier_from_seqs, full_carrier, permutable_closure,
                          permutable_subsets)
from tsalg.cli import main
from tsalg import algebra, termlang, theorems
from tsalg.seqspace import DimensionMismatch, Perm, transposition, unit_seq
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
    print_quasi,
    quasi_violated,
)

from oracles import (
    brute_first_violation,
    brute_permutable,
    brute_principal_ultraproduct,
    brute_relativization,
    brute_separation,
    brute_subst,
    chain,
    law_names,
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
    if isinstance(t, (And, Or)):
        values = [oracle_value(arg, n, members, env) for arg in t.args]
        return frozenset.intersection(*values) if isinstance(t, And) else frozenset.union(*values)
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


def by_leaves(D, qe):
    """Whether check_quasi's leaf step, where it runs, decides qe on D."""
    _, ops, equations, _ = termlang._compile(qe, D.n)
    return termlang._leaf_identity(D, ops, equations)


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


def perm_specs(n):
    """s[i,j] and s{...} of dimension n."""
    return strat.one_of(
        strat.tuples(strat.integers(0, n - 1), strat.integers(0, n - 1))
        .filter(lambda ij: ij[0] != ij[1])
        .map(lambda ij: Transposition(*ij)),
        strat.permutations(range(n)).map(lambda p: Images(tuple(p))),
    )


def terms(n, names):
    """Terms over names, 0 and 1, with s[i,j] and s{...} of dimension n."""
    specs = perm_specs(n)
    leaves = strat.sampled_from([Zero(), One(), *map(Var, names)])

    def extend(children):
        return strat.one_of(
            strat.lists(children, min_size=2, max_size=4).map(lambda p: chain(And, p)),
            strat.lists(children, min_size=2, max_size=4).map(lambda p: chain(Or, p)),
            children.map(Not),
            strat.tuples(specs, children).map(lambda p: Subst(*p)),
        )

    return strat.recursive(leaves, extend, max_leaves=8)


@hypothesis.settings(deadline=None, max_examples=60)
@hypothesis.given(instances())
def test_exhaustive_matches_canonical_tree_walk(instance):
    D, qe = instance
    names = law_names(qe)
    expected = tree_walk(D, qe, canonical(D, names), "holds-exhaustive")
    same_verdict(check_quasi(D, qe, Exhaustive()), expected)
    # chunks of 8 assignments: most instances span several
    with mock.patch.object(termlang, "EXHAUSTIVE_CHUNK_BITS", 3):
        same_verdict(check_quasi(D, qe, Exhaustive()), expected)


@hypothesis.settings(deadline=None, max_examples=60)
@hypothesis.given(instances(), strat.integers(1, 60), strat.integers(0, 1 << 31))
def test_sampled_matches_row_wise_tree_walk(instance, trials, seed):
    D, qe = instance
    names = law_names(qe)
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
@hypothesis.example((carrier_from_seqs(2, 2, [(0, 1)]), ["x"], [parse_equation("s[0,1] x = x")]))
@hypothesis.example((full_carrier(3, 2), ["x"], [parse_equation("s[0,1] x = s[1,2] x")]))
@hypothesis.example((full_carrier(2, 2), ["x", "y"], [parse_equation("y = s[0,1] x")]))
def test_decider_matches_frozenset_enumeration(case):
    # each equation's law alone, in one program holding them all, over
    # names, some perhaps unread
    D, names, eqs = case
    ops, laws = over_names(QuasiEquation(tuple(eqs[:-1]), eqs[-1]), D, names)
    scan = (ops, D.size, len(names), D._gather_for, [])
    for eq, law in zip(eqs, laws):
        expected = brute_laws(D, names, [eq])
        found = expected and (expected[0], expected[2])
        # in one chunk of columns (at most 9 bits here), and target by
        # target on truth tables of one and of two entries per chunk
        assert D.size * len(names) <= 16
        assert termlang.least_violation(*scan, law, 16) == found
        assert termlang.least_violation(*scan, law, 0) == found
        assert termlang.least_violation(*scan, law, 1) == found
    # through check_equation, with truth tables in chunks of two entries
    eq = eqs[0]
    used = law_names(QuasiEquation((), eq))
    expected = brute_laws(D, used, [eq])
    with mock.patch.object(termlang, "EXHAUSTIVE_CHUNK_BITS", 1):
        leafed = by_leaves(D, QuasiEquation((), eq))
        with mock.patch.object(termlang, "_leaf_identity", wraps=termlang._leaf_identity) as leaf, \
                mock.patch.object(termlang, "counters", wraps=termlang.counters) as targets:
            v = check_equation(D, eq, Exhaustive())
    # within one chunk of two assignments, a law goes by columns alone;
    # past it, the leaf step, here over at most one leaf instance, runs
    # first, and a law it does not decide goes member by member (the
    # targets' truth tables count through counters, the columns do not)
    wide = D.size * len(used) > 1
    assert (leaf.called, targets.called) == (wide, wide and not leafed)
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
    (3, 3, 9, "s[0,1] (x & y) = s[0,1] x & s[0,1] y", "holds-exhaustive"),
])
def test_wide_exhaustive_equations_match_the_column_scan(n, u, count, text, outcome):
    # 17 to 20 bits per assignment, decided from the leaf instances or
    # member by member; against the column scan in one chunk as wide as the
    # enumeration, and against brute_first_violation where the law fails (it
    # stops at the least witness, but would take seconds over every
    # assignment of a holding law)
    D = carrier_from_seqs(n, u, lex_sequences(n, u)[:count])
    eq = parse_equation(text)
    names = law_names(QuasiEquation((), eq))
    # (verdict, leaf step taken, targets counted) by default, and in one
    # chunk as wide as the enumeration
    paths = []
    for chunk_bits in (termlang.EXHAUSTIVE_CHUNK_BITS, D.size * len(names)):
        with mock.patch.object(termlang, "EXHAUSTIVE_CHUNK_BITS", chunk_bits), \
                mock.patch.object(termlang, "_leaf_identity", wraps=termlang._leaf_identity) as leaf, \
                mock.patch.object(termlang, "counters", wraps=termlang.counters) as targets:
            paths.append((check_equation(D, eq, Exhaustive()), leaf.called, targets.called))
    (v, *wide), (ref, *one_chunk) = paths
    # these holding laws are leaf identities on a full carrier or without s;
    # on the first 9 members of ^3 3, which s[0,1] leaves, no step decides
    leafed = outcome == "holds-exhaustive" and (D.full or "s" not in text)
    assert by_leaves(D, QuasiEquation((), eq)) == leafed
    assert wide == [True, not leafed] and one_chunk == [False, False] and v.outcome == outcome
    assert (v.outcome, v.witness, v.assignments_tested) == (ref.outcome, ref.witness, ref.assignments_tested)
    if outcome == "fails":
        index, _, rows = brute_laws(D, names, [eq])
        assert (v.witness, v.assignments_tested) == ({nm: Elem(D, b) for nm, b in zip(names, rows)}, index + 1)


# --- deciding from leaf instances --------------------------------------------


def pushed_down(t, n, reverse=False):
    """t with each s pushed down to its variables, from the definitions:
    s_f s_g x reads x at p . f . g, whose image list is f[g[i]] (g[f[i]]
    with reverse, a near miss), and s_f of 0, 1, '~', '&' or '|' is that
    node over s_f of its operands.  Equal to t on carriers closed under
    every s of t."""
    def push(t, images):
        if isinstance(t, Var):
            return t if images == tuple(range(n)) else Subst(Images(images), t)
        if isinstance(t, (Zero, One)):
            return t
        if isinstance(t, Not):
            return Not(push(t.arg, images))
        if isinstance(t, (And, Or)):
            return type(t)(tuple(push(arg, images) for arg in t.args))
        g = swap_images(n, t.perm.i, t.perm.j) if isinstance(t.perm, Transposition) else t.perm.images
        outer, inner = (g, images) if reverse else (images, g)
        return push(t.arg, tuple(outer[inner[i]] for i in range(n)))

    return push(t, tuple(range(n)))


@strat.composite
def leaf_laws(draw):
    """A full, unit, permutable or holed carrier, and a law over x (and y
    where |D| <= 5) with 0 or 1 hypotheses, each side a random term or the
    other's push-down, composed in the right or in the wrong order: many
    leaf identities, and many near misses."""
    n = draw(strat.integers(2, 3))
    u = draw(strat.integers(1, 3)) if n == 2 else 2
    kind = draw(strat.sampled_from(["full", "unit", "permutable", "holed"]))
    if kind == "holed":
        D = carrier_from_seqs(n, u, draw(strat.lists(strat.sampled_from(lex_sequences(n, u)), max_size=5,
                                                     unique=True)))
    else:
        D = draw(strat.sampled_from(permutable_subsets(n, u))) if kind == "permutable" else \
            full_carrier(n, u) if kind == "full" else theorems.unit_carrier(n)
    names = ["x", "y"][: 1 if D.size > 5 else draw(strat.integers(1, 2))]

    def side():  # under zero to three more s
        t = draw(terms(n, names))
        for _ in range(draw(strat.integers(0, 3))):
            t = Subst(draw(perm_specs(n)), t)
        return t

    def equation():
        t = side()
        how = draw(strat.sampled_from(["random", "pushed", "reversed"]))
        other = side() if how == "random" else pushed_down(t, n, how == "reversed")
        return Equation(t, other) if draw(strat.booleans()) else Equation(other, t)

    hypotheses = tuple(equation() for _ in range(draw(strat.integers(0, 1))))
    return D, QuasiEquation(hypotheses, equation())


def brute_quasi(D, qe):
    """brute_first_violation of qe over D: its conclusion, read as equal
    wherever a hypothesis breaks."""
    names = law_names(qe)

    def side(t):
        def value(env):
            env = dict(zip(names, env))
            if any(oracle_value(h.lhs, D.n, D.seqs, env) != oracle_value(h.rhs, D.n, D.seqs, env)
                   for h in qe.hypotheses):
                return None
            return oracle_value(t, D.n, D.seqs, env)
        return value

    return brute_first_violation(D.seqs, len(names), [(side(qe.conclusion.lhs), side(qe.conclusion.rhs))])


def law_of(text):
    return parse_quasi(text) if "=>" in text else QuasiEquation((), parse_equation(text))


def verdict_of(v):
    return v.outcome, v.witness, v.assignments_tested


# x fixed by s[0,1] and s[1,2] is fixed by the group they generate
SYMMETRIC_012 = "x = s[0,1] x & s[1,2] x => x = s[0,2] x"
SIGMA_F42 = print_quasi(termlang.sigma(4, theorems.forward_cycle(4), theorems.backward_cycle(4)))
HOLED = carrier_from_seqs(3, 2, [(0, 0, 1), (1, 1, 0), (0, 1, 1)])


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(leaf_laws(), strat.integers(1, 30), strat.integers(0, 1 << 31))
@hypothesis.example((full_carrier(3, 2), law_of("s[0,1] s[1,2] x = s{1,2,0} x")), 20, 1)
@hypothesis.example((full_carrier(3, 2), law_of("s[0,1] s[1,2] x = s{2,0,1} x")), 20, 1)
@hypothesis.example((HOLED, law_of("~s[0,1] x = s[0,1] ~x")), 20, 1)
@hypothesis.example((full_carrier(4, 2), law_of(SIGMA_F42)), 20, 1)
def test_leaf_identities_hold_and_keep_every_verdict(case, trials, seed):
    # a law the step decides breaks under no assignment, and check_quasi
    # gives with the step what it gives without it, sampled and past one
    # chunk (of 2**4 assignments here)
    D, qe = case
    if by_leaves(D, qe):
        assert brute_quasi(D, qe) is None
    with mock.patch.object(termlang, "EXHAUSTIVE_CHUNK_BITS", 4):
        with mock.patch.object(termlang, "_leaf_identity", return_value=False):
            expected = [verdict_of(check_quasi(D, qe, mode)) for mode in (Random(trials, seed), Exhaustive())]
        assert [verdict_of(check_quasi(D, qe, mode)) for mode in (Random(trials, seed), Exhaustive())] == expected


@pytest.mark.parametrize("D,text,leafed,outcome", [
    (full_carrier(3, 2), "s[0,1] s[1,2] x = s{1,2,0} x", True, "holds-sampled"),
    (full_carrier(3, 2), "s[0,1] s[1,2] x = s{2,0,1} x", False, "fails"),
    (HOLED, "~s[0,1] x = s[0,1] ~x", False, "fails"),
    (full_carrier(4, 2), SIGMA_F42, False, "holds-sampled"),
    (full_carrier(3, 2), "s[0,1] x = x => s[0,1] ~x = ~x", True, "holds-sampled"),
    (full_carrier(2, 2), "s[0,1] (x & y) = s[0,1] x & s[0,1] y => s[0,1] x = x", False, "fails"),
])
def test_leaf_step_decides_only_identities_on_closed_carriers(D, text, leafed, outcome):
    # s[0,1] s[1,2] is s{1,2,0}; ~s[0,1] x = s[0,1] ~x is a leaf identity
    # that fails where s[0,1] leaves the carrier; sigma holds on full (4,2)
    # though its leaves do not force it; s[0,1] ~x = ~x follows from its
    # hypothesis only, so the leaf scan must read the hypotheses; the last
    # law's hypothesis has one leaf slot on both sides, but its conclusion
    # fails, so only the conclusion's sides may decide
    qe = law_of(text)
    assert by_leaves(D, qe) == leafed
    assert check_quasi(D, qe, Random(200, 1)).outcome == outcome


def pushed_leaves(t):
    """The leaves of a pushed-down term: each x, or s_g x with g its images."""
    if isinstance(t, (Var, Subst)):
        yield t
    elif isinstance(t, Not):
        yield from pushed_leaves(t.arg)
    elif isinstance(t, (And, Or)):
        for arg in t.args:
            yield from pushed_leaves(arg)


def spec_images(t, n):
    """The image list of every s in t."""
    if isinstance(t, Subst):
        yield swap_images(n, t.perm.i, t.perm.j) if isinstance(t.perm, Transposition) else t.perm.images
    for arg in t.args if isinstance(t, (And, Or)) else (t.arg,) if isinstance(t, (Not, Subst)) else ():
        yield from spec_images(arg, n)


def leaf_reference(D, qe):
    """(whether the leaf step decides qe on D, whether its conclusion's
    pushed-down sides are one term), from the definitions: D is closed
    under every s of qe (brute_subst of D into D is D), and no valuation of
    the leaves of the pushed-down sides, each its own truth-table column,
    that meets the hypotheses breaks the conclusion; past 16 leaves only
    one term decides."""
    members = frozenset(D.seqs)
    sides = [(eq.lhs, eq.rhs) for eq in (*qe.hypotheses, qe.conclusion)]
    closed = all(brute_subst(members, images, members) == members
                 for side in sides for t in side for images in spec_images(t, D.n))
    pushed = [tuple(pushed_down(t, D.n) for t in side) for side in sides]
    shared = pushed[-1][0] == pushed[-1][1]
    leaves = sorted({leaf for side in pushed for t in side for leaf in pushed_leaves(t)}, key=repr)
    count = 1 << len(leaves)
    full = (1 << count) - 1
    # leaf k's column: bit a set where bit k of a is
    column = {leaf: (((1 << (1 << k)) - 1) << (1 << k)) * full // ((1 << (2 << k)) - 1)
              for k, leaf in enumerate(leaves)}

    def truth(t):
        if isinstance(t, (Var, Subst)):
            return column[t]
        if isinstance(t, (Zero, One)):
            return 0 if isinstance(t, Zero) else full
        if isinstance(t, Not):
            return truth(t.arg) ^ full
        values = [truth(arg) for arg in t.args]
        return functools.reduce(operator.and_ if isinstance(t, And) else operator.or_, values)

    agree = full
    for lhs, rhs in pushed[:-1]:
        agree &= ~(truth(lhs) ^ truth(rhs))
    lhs, rhs = pushed[-1]
    identity = shared or len(leaves) <= 16 and not agree & (truth(lhs) ^ truth(rhs))
    return closed and identity, shared


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(leaf_laws())
# s[0,1] (x & y) is read under (1,0) and (x & y) under (0,1): one op, two leaf slots
@hypothesis.example((full_carrier(2, 2), law_of("s[0,1] (x & y) | (x & y) = (x & y) | s[0,1] (y & x)")))
@hypothesis.example((full_carrier(3, 2), law_of("s{1,2,0} s{2,0,1} x = x")))
@hypothesis.example((full_carrier(3, 2), law_of("s[0,1] x = x => s[0,1] ~x = ~x")))
@hypothesis.example((full_carrier(2, 2), law_of("s[0,1] (x & y) = s[0,1] x & s[0,1] y => s[0,1] x = x")))
@hypothesis.example((full_carrier(0, 2), law_of("s{} (x & y) = s{} x & s{} y")))
@hypothesis.example((full_carrier(1, 3), law_of("s{0} ~x = ~s{0} x")))
def test_leaf_step_matches_the_pushed_down_reference(case):
    # the leaf law read off the compiled ops against each side pushed down
    # from the definitions; where the conclusion's pushed-down sides are one
    # term, on a closed carrier, no member is scanned
    D, qe = case
    expected, shared = leaf_reference(D, qe)
    with mock.patch.object(termlang, "least_violation", wraps=termlang.least_violation) as scan:
        assert by_leaves(D, qe) == expected
    if shared and expected:
        assert not scan.called


@pytest.mark.parametrize("text,scans", [("s[0,1] (x & y) = s[0,1] x & s[0,1] y", 0),
                                        ("s[0,1] (x | ~x) = 1", 1)])
def test_leaf_step_scans_one_member_only_where_the_leaf_sides_differ(text, scans):
    # on full (20,2): the first law's leaf sides are one slot, the second's
    # are (x,01) | ~(x,01) and 1, scanned on one member; either way the law
    # is walked once, by _compile
    with mock.patch.object(termlang, "least_violation", wraps=termlang.least_violation) as scan, \
            mock.patch.object(termlang, "_compile", wraps=termlang._compile) as walk:
        v = check_equation(full_carrier(20, 2), parse_equation(text), Random(100000, 1))
    assert (v.outcome, v.trials, v.seed, v.assignments_tested) == ("holds-sampled", 100000, 1, 100000)
    assert scan.call_count == scans and all(call.args[1] == 1 for call in scan.call_args_list)
    assert walk.call_count == 1


def test_a_leaf_identity_reads_no_member():
    # on full (20,2) and full (16,2): no gather, no network, no draw, the
    # verdict a holding law gets; one chunk of exhaustive columns takes no
    # leaf step
    eq = parse_equation("s[0,1] (x & y) = s[0,1] x & s[0,1] y")
    with mock.patch.object(Carrier, "_gather_for", side_effect=AssertionError("gather built")), \
            mock.patch.object(Carrier, "_network_for", side_effect=AssertionError("network built")), \
            mock.patch.object(termlang, "_draws", side_effect=AssertionError("trials drawn")):
        sampled = check_equation(full_carrier(20, 2), eq, Random(100000, 1))
        wide = check_equation(full_carrier(16, 2), eq, Exhaustive(1 << (1 << 17)))
    assert (sampled.outcome, sampled.trials, sampled.seed, sampled.assignments_tested) == \
        ("holds-sampled", 100000, 1, 100000)
    assert (wide.outcome, wide.assignments_tested) == ("holds-exhaustive", 1 << (1 << 17))
    with mock.patch.object(termlang, "_leaf_identity", side_effect=AssertionError("leaf step taken")):
        assert check_equation(full_carrier(2, 2), eq, Exhaustive()).outcome == "holds-exhaustive"


# --- deciding component by component ----------------------------------------


@pytest.mark.parametrize("n", range(2, 15))
def test_sigma_on_unit_sequences_is_one_component(n):
    # the two n-cycles link every unit sequence into one component, whose
    # truth table is read four entries to a chunk
    D = theorems.unit_carrier(n)
    qe = termlang.sigma(n, theorems.forward_cycle(n), theorems.backward_cycle(n))
    expected = tree_walk(D, qe, canonical(D, ["x"]), "holds-exhaustive")
    with mock.patch.object(termlang, "EXHAUSTIVE_CHUNK_BITS", 2):
        same_verdict(check_quasi(D, qe, Exhaustive()), expected)
    assert expected[0] == "fails"


@pytest.mark.parametrize("n", range(2, 15))
def test_a_component_without_solutions_decides_the_check(n):
    # s_f x = ~x alternates around the forward cycle, which no set does on
    # an odd one: on the unit sequences of odd n the hypothesis has no
    # solution, so every table entry is read.  (0,...,0), which every s_f
    # fixes, is a component of its own without one, whatever the rest:
    # check_quasi's one-point step settles that carrier first, so
    # least_violation is asked about it directly too
    qe = parse_quasi("s{%s} x = ~x => 0 = 1" % ",".join(map(str, theorems.forward_cycle(n).images)))
    units = theorems.unit_carrier(n)
    D = carrier_from_seqs(n, 2, [(0,) * n, *units.seqs])
    expected = tree_walk(units, qe, canonical(units, ["x"]), "holds-exhaustive")
    with mock.patch.object(termlang, "EXHAUSTIVE_CHUNK_BITS", 2):
        same_verdict(check_quasi(units, qe, Exhaustive()), expected)
        v = check_quasi(D, qe, Exhaustive())
    assert expected[0] == ("holds-exhaustive" if n % 2 else "fails")
    assert (v.outcome, v.assignments_tested) == ("holds-exhaustive", 1 << D.size)
    _, ops, (*hypotheses, law), _ = termlang._compile(qe, n)
    assert termlang.least_violation(ops, D.size, 1, D._gather_for, hypotheses, law, 2) is None


@pytest.mark.parametrize("n,u", [(3, 2), (2, 3)])
def test_the_least_violation_is_the_least_over_components(n, u):
    # s[0,1] pairs members off; each pair of distinct members breaks the
    # conclusion, joined with the others' least solutions, and the least of
    # these candidates is reported
    D = full_carrier(n, u)
    qe = parse_quasi("s[0,1] x = x => s[0,1] (x & y) = x & y")
    expected = tree_walk(D, qe, canonical(D, ["x", "y"]), "holds-exhaustive")
    with mock.patch.object(termlang, "EXHAUSTIVE_CHUNK_BITS", 2):
        same_verdict(check_quasi(D, qe, Exhaustive()), expected)


# --- the one-point step -------------------------------------------------------


@strat.composite
def one_point_laws(draw):
    """A full carrier, a carrier with holes that holds a constant sequence,
    or one that holds none, and a law over x (and y where |D| <= 4) with one
    or two hypotheses, each a random equation or a term under zero to two s
    set equal to the complement of that term under zero to two s: at a
    constant, which every s fixes, the latter has no solution."""
    n = draw(strat.integers(2, 3))
    u = draw(strat.integers(1, 3 if n == 2 else 2))
    space = lex_sequences(n, u)
    kind = draw(strat.sampled_from(["full", "constant", "none"]))
    if kind == "full":
        D = full_carrier(n, u)
    else:
        pool = [s for s in space if len(set(s)) > 1]
        picks = draw(strat.lists(strat.sampled_from(pool), max_size=5, unique=True)) if pool else []
        if kind == "constant":
            picks.append(draw(strat.sampled_from([s for s in space if len(set(s)) == 1])))
        D = carrier_from_seqs(n, u, sorted(picks))
    names = ["x", "y"][: 1 if D.size > 4 else draw(strat.integers(1, 2))]
    sides = terms(n, names)

    def under_s(t):
        for _ in range(draw(strat.integers(0, 2))):
            t = Subst(draw(perm_specs(n)), t)
        return t

    def hypothesis_():
        if draw(strat.booleans()):
            return draw(strat.builds(Equation, sides, sides))
        t = draw(sides)
        return Equation(under_s(t), Not(under_s(t)))

    hypotheses = tuple(hypothesis_() for _ in range(draw(strat.integers(1, 2))))
    return D, QuasiEquation(hypotheses, draw(strat.builds(Equation, sides, sides)))


def one_point_expected(D, qe):
    """Whether the one-point step should decide qe on D, from the
    definitions: D holds a constant p, and no assignment of subsets of {p}
    satisfies every hypothesis over the carrier {p}."""
    constants = [p for p in D.seqs if len(set(p)) <= 1][:1]
    names = law_names(qe)
    envs = (dict(zip(names, combo)) for combo in itertools.product([frozenset(), frozenset(constants)],
                                                                     repeat=len(names)))
    return bool(constants) and not any(
        all(oracle_value(h.lhs, D.n, constants, env) == oracle_value(h.rhs, D.n, constants, env)
            for h in qe.hypotheses) for env in envs)


def brute_verdict(D, qe):
    """(outcome, witness, assignments tested) of an exhaustive check, from brute_quasi."""
    names = law_names(qe)
    found = brute_quasi(D, qe)
    if found is None:
        return "holds-exhaustive", None, 1 << D.size * len(names)
    index, _, combo = found
    return "fails", {nm: Elem(D, b) for nm, b in zip(names, combo)}, index + 1


def one_point(D, qe):
    """termlang._one_point on qe's compiled hypotheses."""
    names, ops, (*hypotheses, _), _ = termlang._compile(qe, D.n)
    return termlang._one_point(D, ops, len(names), hypotheses)


SIGMA_U3 = print_quasi(termlang.sigma(3, theorems.forward_cycle(3), theorems.backward_cycle(3)))


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(one_point_laws(), strat.integers(1, 30), strat.integers(0, 1 << 31))
@hypothesis.example((theorems.unit_carrier(3), law_of(SIGMA_U3)), 20, 1)
@hypothesis.example((carrier_from_seqs(2, 3, [(0, 1), (1, 0)]), law_of("s[0,1] x = ~x => 0 = 1")), 20, 1)
@hypothesis.example((full_carrier(3, 2), law_of("s[0,1] x = 0, s[1,2] x = 1 => x = y")), 20, 1)
def test_one_point_step_matches_the_brute_oracle(case, trials, seed):
    # the step decides exactly where the definitions say it should; what it
    # decides breaks under no assignment; and check_quasi gives with the
    # step what it gives without it, exhaustive and sampled
    D, qe = case
    stepped = one_point(D, qe)
    assert stepped == one_point_expected(D, qe)
    expected = brute_verdict(D, qe)
    assert not stepped or expected[0] == "holds-exhaustive"
    same_verdict(check_quasi(D, qe, Exhaustive()), expected)
    modes = (Random(trials, seed), Exhaustive())
    with mock.patch.object(termlang, "_one_point", return_value=False):
        without = [verdict_of(check_quasi(D, qe, mode)) for mode in modes]
    assert [verdict_of(check_quasi(D, qe, mode)) for mode in modes] == without


BIG = 1 << 300


@pytest.mark.parametrize("D,text,stepped", [
    (full_carrier(0, 2), "s{} x = ~x => 0 = 1", True),  # () is constant
    (carrier_from_seqs(0, 2, []), "s{} x = ~x => 0 = 1", False),
    (carrier_from_seqs(1, 3, [(0,), (2,)]), "s{0} x = ~x => y = 0", True),  # every member is constant
    (carrier_from_seqs(1, 3, [(2,)]), "x = ~y => x = 0", False),  # solved at a constant, and fails
    (full_carrier(3, 1), "s[0,2] x = ~x => 0 = 1", True),  # u = 1
    (carrier_from_seqs(2, 2, []), "s[0,1] x = ~x => 0 = 1", False),
    # base 2^300, |D| <= u: members tested; (0,1) and (1,0) fail, (1,1) holds
    (Carrier(2, BIG, [1, BIG]), "s[0,1] x = ~x => 0 = 1", False),
    (Carrier(2, BIG, [1, BIG + 1]), "s[0,1] x = ~x => 0 = 1", True),
    # |D| > u: constants looked up; (2,1) pairs with (1,2), (2,2) is fixed
    (carrier_from_seqs(2, 3, [(0, 1), (1, 0), (1, 2), (2, 1)]), "s[0,1] x = ~x => 0 = 1", False),
    (carrier_from_seqs(2, 3, [(0, 1), (1, 0), (1, 2), (2, 2)]), "s[0,1] x = ~x => 0 = 1", True),
])
def test_one_point_step_at_its_edges(D, text, stepped):
    # n = 0, n = 1, u = 1, empty carriers, and a base whose range no
    # search may walk: each check answers well under a second
    qe = law_of(text)
    start = time.perf_counter()
    assert one_point(D, qe) == one_point_expected(D, qe) == stepped
    v = check_quasi(D, qe, Exhaustive())
    assert time.perf_counter() - start < 1
    same_verdict(v, brute_verdict(D, qe))


HOLES700 = carrier_from_seqs(10, 2, lex_sequences(10, 2)[:700])


@pytest.mark.parametrize("D", [full_carrier(20, 2), full_carrier(16, 2), HOLES700])
@pytest.mark.parametrize("text", ["s[0,9] x | s[1,2] x = ~x => 0 = 1", "s[0,9] x = 0, s[1,2] x = 1 => 0 = 1"])
def test_the_one_point_step_reads_no_member(D, text):
    # the first law is sigma-like, the second's hypotheses each have a
    # solution at a constant but not both: no gather, no network, no draw
    # and no leaf step, where the first 700 members of ^10 2 hold (0,...,0)
    # but are closed under no s they name; the verdict a holding law gets
    qe = parse_quasi(text)
    with mock.patch.object(Carrier, "_gather_for", side_effect=AssertionError("gather built")), \
            mock.patch.object(Carrier, "_network_for", side_effect=AssertionError("network built")), \
            mock.patch.object(termlang, "_draws", side_effect=AssertionError("trials drawn")), \
            mock.patch.object(termlang, "_leaf_identity", side_effect=AssertionError("leaf step taken")):
        sampled = check_quasi(D, qe, Random(100000, 1))
        exhaustive = check_quasi(D, qe, Exhaustive(1 << D.size))
    assert (sampled.outcome, sampled.trials, sampled.seed, sampled.assignments_tested) == \
        ("holds-sampled", 100000, 1, 100000)
    assert (exhaustive.outcome, exhaustive.assignments_tested) == ("holds-exhaustive", 1 << D.size)


def test_the_one_point_step_follows_the_mode_and_spec_checks():
    # over budget and an unfit spec are refused as before
    qe = parse_quasi("s[0,1] x = ~x => 0 = 1")
    with pytest.raises(termlang.BudgetExceeded):
        check_quasi(full_carrier(3, 2), qe, Exhaustive(255))
    with pytest.raises(DimensionMismatch):
        check_quasi(full_carrier(1, 2), qe, Exhaustive())


@pytest.mark.parametrize("n,u", [(2, 2), (2, 3), (3, 2)])
def test_sigma_for_every_pair_by_enumeration(n, u):
    # the one-point step reads the constants that sigma_holds_small's
    # certificate reads, so here the brute oracle, and least_violation with
    # the step patched out, enumerate every assignment of every pair
    D = full_carrier(n, u)
    for f, g in itertools.product(itertools.permutations(range(n)), repeat=2):
        qe = termlang.sigma(n, Perm(f), Perm(g))
        assert one_point(D, qe)
        with mock.patch.object(termlang, "_one_point", return_value=False):
            enumerated = verdict_of(check_quasi(D, qe, Exhaustive()))
        assert verdict_of(check_quasi(D, qe, Exhaustive())) == enumerated == brute_verdict(D, qe) == \
            ("holds-exhaustive", None, 1 << D.size)


# --- chunk boundaries --------------------------------------------------------


def test_one_chunk_columns_stay_those_of_a_fresh_counter():
    # full (2,2) with two variables takes 8 counter bits, one chunk, whose
    # columns are built once per (size, nvars) and read by every such check
    D = full_carrier(2, 2)
    termlang._one_chunk.cache_clear()
    assert check_equation(D, parse_equation("x & y = y & x")).outcome == "holds-exhaustive"
    assert check_equation(D, parse_equation("x & y = x")).outcome == "fails"
    assert termlang._one_chunk.cache_info()[:2] == (1, 1)  # one hit, one miss
    [(width, counter)] = termlang.counters(8, termlang.EXHAUSTIVE_CHUNK_BITS)
    assert termlang._one_chunk(4, 2) == (width, (tuple(counter[4:8]), tuple(counter[0:4])))


def test_counter_columns_match_their_definition():
    # bit a of column b is bit b of a, for every count a of a chunk
    for low in range(13):
        columns = termlang._periodic(low)
        assert columns == tuple(sum(1 << a for a in range(1 << low) if a >> b & 1) for b in range(low))


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
            assert flags & algebra._repeat_row(1, nbytes, height) == 1 << (r * stride), (r, p)


@pytest.mark.parametrize("text", ["s[0,1] (x & y) = s[0,1] x & s[0,1] y", "x & y = x",
                                  "x = y => s{2,0,1,3,4,5,6,7,8,9,10,11} x = s[0,2] s[1,2] y",
                                  print_quasi(termlang.sigma(12, theorems.forward_cycle(12),
                                                             theorems.backward_cycle(12))),
                                  SYMMETRIC_012])
def test_sampled_wide_carrier_one_trial_per_chunk(text):
    # a leaf identity (the first) draws no trial, nor does sigma, whose
    # hypothesis has no solution at a constant; the last law holds on full
    # carriers without being either, and runs every trial
    D = full_carrier(12, 2)
    assert D.size >= termlang.WIDE_ROW_BITS
    qe = parse_quasi(text) if "=>" in text else QuasiEquation((), parse_equation(text))
    names = law_names(qe)
    expected = tree_walk(D, qe, row_wise(D, names, 12, 9), "holds-sampled")
    with mock.patch.object(termlang, "_run_rows", wraps=termlang._run_rows) as run:
        same_verdict(check_quasi(D, qe, Random(12, 9)), expected)
    assert run.call_count == (0 if by_leaves(D, qe) or one_point(D, qe) else expected[2])
    assert by_leaves(D, qe) == (text == "s[0,1] (x & y) = s[0,1] x & s[0,1] y")


def test_sampled_chunks_narrow_on_wide_carriers():
    # rows of 2192 bits (2187 members, whole bytes), 59 to a chunk: the law
    # holds on full carriers, is no identity of its leaf instances, and its
    # hypothesis has a solution at a constant
    D = full_carrier(7, 3)
    assert D.size < termlang.WIDE_ROW_BITS
    qe = parse_quasi(SYMMETRIC_012)
    with mock.patch.object(termlang, "_run_rows", wraps=termlang._run_rows) as run:
        v = check_quasi(D, qe, Random(1000, 1))
    assert v.outcome == "holds-sampled" and run.call_count == -(-1000 // 59)


def test_tiles_are_kept_one_per_mask_and_row_width():
    # a law sampled on packed rows, at 400 trial counts on one full (6,2),
    # asks for tiles of 400 heights: each (mask, nbytes) keeps one tile,
    # rebuilt at another height, and each verdict is that of a carrier with
    # no tiles yet
    qe = parse_quasi(SYMMETRIC_012)
    D = full_carrier(6, 2)
    for t in range(1, 401):
        assert check_quasi(D, qe, Random(t, 1)) == check_quasi(full_carrier(6, 2), qe, Random(t, 1))
    assert len(D._tiles) == len({key[:2] for key in D._tiles}) <= 11
    assert D._tiles


@pytest.mark.parametrize("text", ["x & y = y & x", "x & y = x", "x = ~y => x | y = 0"])
def test_sampled_laws_without_subst_go_row_by_row(text):
    # no columns over the carrier: only the leaf step's one-member program
    # runs by columns, and a law that is no identity of its leaves goes on
    # by rows
    D = full_carrier(10, 2)
    qe = parse_quasi(text) if "=>" in text else QuasiEquation((), parse_equation(text))
    expected = tree_walk(D, qe, row_wise(D, ["x", "y"], 20, 3), "holds-sampled")
    run = termlang._run

    def on_one_member(ops, size, gather, inputs, full):
        assert size == 1, "columns built"
        return run(ops, size, gather, inputs, full)

    with mock.patch.object(termlang, "_run", on_one_member), \
            mock.patch.object(termlang, "_run_rows", wraps=termlang._run_rows) as rows:
        same_verdict(check_quasi(D, qe, Random(20, 3)), expected)
    assert rows.called == (text != "x & y = y & x")


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


@pytest.mark.parametrize("text", [
    "s[0,1] s[0,1] x | (x & ~s[0,1] 1) = x",
    "s[0,1] x & ~s[0,1] 1 = 0",
    "x & y & z = 0 => s[0,1] (x | y | z) & ~s[0,1] 1 = 0",
    "s[0,1] x & ~s[0,1] y & x & ~y & z = 0",
    "s[0,1] (x & y & z) & ~x & ~y = 0",  # first broken by trial 4 of 7, row 4 of 5
    "s[0,1] x = x",
    "x = 0 => 0 = 1",  # broken only where x is empty, as in rows past a short last chunk
])
def test_sampled_checks_on_a_carrier_with_holes_at_every_chunk_height(text):
    # 12 of the 16 members of ^2 4: s[0,1] leaves members empty, so it goes
    # through a Benes network of 16-bit rows and its mask, here 5 rows to a
    # chunk.  One carrier's checks, in increasing chunk height and the last
    # two with a short last chunk, against the row-wise tree walk and the
    # frozenset oracle: masks tiled for fewer rows, the mask dropped, or
    # the rows past a short last chunk read as live, break them
    D = carrier_from_seqs(2, 4, lex_sequences(2, 4)[:12])
    assert None in D._gather_for(transposition(2, 0, 1))
    qe = parse_quasi(text) if "=>" in text else QuasiEquation((), parse_equation(text))
    names = law_names(qe)
    with mock.patch.object(termlang, "ROW_CHUNK_BITS", 16 * 5):
        for trials in (2, 3, 7, 13):  # chunks of 2, 3, 5 + 2 and 5 + 5 + 3 rows
            expected = tree_walk(D, qe, row_wise(D, names, trials, trials), "holds-sampled")
            same_verdict(check_quasi(D, qe, Random(trials, trials)), expected)


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


def test_over_budget_exhaustive_check_exits_on_its_budget_before_an_unfit_spec(tmp_path, capsys,
                                                                              monkeypatch):
    # 2 ** 32 assignments on full (5,2) are over the default budget, which
    # is reported before s[0,9], which does not fit dimension 5
    monkeypatch.delenv("TRA_BUDGET", raising=False)
    spec = tmp_path / "full52.alg"
    spec.write_text("n = 5\nbase = 2\ncarrier = full\n")
    assert main(["check", "--spec", str(spec), "--eq", "s[0,9] x = x", "--exhaustive"]) == 2
    err = capsys.readouterr().err
    assert "exhaustive check needs 4294967296 evaluations" in err and "does not fit dimension" not in err
    with pytest.raises(termlang.BudgetExceeded):
        check_equation(full_carrier(5, 2), parse_equation("s[0,9] x = x"), Exhaustive())


# --- compiling: slots shared by op ------------------------------------------


def compiled(qe, D):
    """qe's ops on D and its (lhs, rhs) slots, as check_quasi compiles
    them: one walk, each spec resolved."""
    _, ops, equations, unfit = termlang._compile(qe, D.n)
    assert unfit is None
    return ops, equations


def over_names(qe, D, names):
    """compiled(qe, D) with variable j of its sorted names renumbered to
    its index in names, a superset of them."""
    used = law_names(qe)
    ops, equations = compiled(qe, D)
    return [("var", names.index(used[op[1]])) if op[0] == "var" else op for op in ops], equations


def chunk_program(qe, D):
    """The program the row sampler runs on each chunk of qe's trials on D,
    from _compile's ops as check_quasi passes them."""
    names, ops, equations, _ = termlang._compile(qe, D.n)
    *hypotheses, law = equations
    with mock.patch.object(termlang, "_run_rows", wraps=termlang._run_rows) as run:
        termlang._first_row_violation(D, ops, len(names), hypotheses, law, Random(3, 1))
    return run.call_args.args[0]


def op_shape(op):
    """An op's kind, s_f as "net" in either layout, and its operand slots."""
    kind = "net" if op[0] == "subst" else op[0]
    return (kind, *op[1:1 + {"var": 1, "not": 1, "net": 1, "and": 2, "or": 2}.get(kind, 0)])


def term_keyed_compile(qe, D, names):
    """The ops as they were compiled with slots keyed by the terms
    themselves: an op emitted again, s_f keyed by its permutation's
    images, kept the slot it held.  A chain is folded from the left: the
    op over the chain of its operands but the last, keyed as a term, and
    the last."""
    ops, by_op, slots = [], {}, {}

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
        elif isinstance(t, (And, Or)):
            *init, last = t.args
            op = ("and" if isinstance(t, And) else "or",
                  emit(type(t)(tuple(init)) if len(init) > 1 else init[0]), emit(last))
        else:
            op = ("subst", emit(t.arg), termlang.spec_perm(t.perm, D.n))
        key = (op[0], op[1], op[2].images) if op[0] == "subst" else op
        if key not in by_op:
            by_op[key] = len(ops)
            ops.append(op)
        slots[t] = by_op[key]
        return slots[t]

    equations = [(emit(eq.lhs), emit(eq.rhs)) for eq in (*qe.hypotheses, qe.conclusion)]
    return ops, equations


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
        t = {"and": lambda: chain(And, (a, b)), "or": lambda: chain(Or, (a, b)), "not": lambda: Not(a),
             "s": lambda: Subst(draw(specs), a)}[kind]()
        pool.append(copy.deepcopy(t) if draw(strat.booleans()) else t)
    equations = strat.builds(Equation, strat.sampled_from(pool), strat.sampled_from(pool))
    return D, QuasiEquation(tuple(draw(strat.lists(equations, max_size=2))), draw(equations))


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(shared_subterms())
def test_compile_by_op_matches_term_keyed_reference(instance):
    # _compile's ops against the reference; the row sampler's chunk program
    # has one op per slot of them
    D, qe = instance
    ops, equations = compiled(qe, D)
    assert (ops, equations) == term_keyed_compile(qe, D, law_names(qe))
    assert list(map(op_shape, chunk_program(qe, D))) == list(map(op_shape, ops))


def test_program_gives_each_op_one_slot():
    # s[0,1] and s{1,0} resolve to one Perm, so both sides are one slot in
    # either layout; different Perms keep different slots
    D = full_carrier(2, 2)
    qe = QuasiEquation((), parse_equation("s[0,1] x & ~y = s{1,0} x & ~y"))
    ops, [(lhs, rhs)] = compiled(qe, D)
    assert lhs == rhs and len(ops) == 5
    rows = chunk_program(qe, D)
    assert list(map(op_shape, rows)) == list(map(op_shape, ops))
    assert [op[0] for op in rows] == ["var", "net", "var", "not", "and"]
    _, ops, [(lhs, rhs)], _ = termlang._compile(QuasiEquation((), parse_equation("s[0,1] x = s[1,2] x")), 3)
    assert ops == [("var", 0), ("subst", 0, transposition(3, 0, 1)), ("subst", 0, transposition(3, 1, 2))]
    assert (lhs, rhs) == (1, 2)


def test_compile_names_the_variables_sorted():
    # each name once, in sorted order, from every side of every equation
    qe = parse_quasi("z = 0, y = y => s[0,1] (x & ~y) | z & x = x")
    assert termlang._compile(qe, 2)[0] == ["x", "y", "z"] == law_names(qe)
    assert termlang._compile(parse_quasi("0 = 1 => 1 = 0"), 2)[0] == []


def test_compile_numbers_the_variables_in_sorted_name_order():
    # met as z, x, y: ("var", j) is the variable names[j], whatever order
    # the walk meets them in, and the columns and rows read them so
    names, ops, [(lhs, rhs)], _ = termlang._compile(QuasiEquation((), parse_equation("z | s[0,1] x = y")), 2)
    assert names == ["x", "y", "z"]
    assert ops == [("var", 2), ("var", 0), ("subst", 1, transposition(2, 0, 1)), ("or", 0, 2), ("var", 1)]
    assert (lhs, rhs) == (3, 4)
    # z, last in sorted order, is least significant: the least witness
    # gives z the first member and x, y nothing
    v = check_equation(full_carrier(2, 2), parse_equation("z | s[0,1] x = y"), Exhaustive())
    assert v.outcome == "fails" and v.assignments_tested == 2
    assert {nm: e.bits for nm, e in v.witness.items()} == {"x": 0, "y": 0, "z": 1}


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
    # such read must agree with E's whole gather there; the swaps of G's
    # own members, for the law's other side, are not recorded
    E, G, table = case
    G._gather_from(E)[:] = table
    reads, swapped_at = [], theorems._swapped_at

    def spy(D, ranks, i, j):
        swapped = swapped_at(D, ranks, i, j)
        if D is E:
            reads.append((transposition(E.n, i, j), [E.member_index.get(r) for r in swapped]))
        return swapped

    with mock.patch.object(theorems, "_swapped_at", spy), \
            mock.patch.object(theorems, "is_permutable", return_value=True):
        theorems.verify_relativization(E, G, mode=Random(5, 1))
    assert len(reads) == E.n * (E.n - 1) // 2
    for t, lhs in reads:
        assert lhs == [None if src is None else E._gather_for(t)[src] for src in table], t


def test_relativization_compiles_no_gather_of_the_bigger_carrier():
    # from full (16,2) onto its units the laws read 16 entries of each of
    # E's 120 transposition gathers, never the 65,536 of a whole one, and
    # the swaps of G's own members compile no gather of G either
    cases = [(full_carrier(2, 3), G) for G in permutable_subsets(2, 3)]
    cases += [(full_carrier(n, 2), carrier_from_seqs(n, 2, [unit_seq(n, i) for i in range(n)]))
              for n in (3, 16)]
    for E, G in cases:
        assert theorems.verify_relativization(E, G).passed
        assert not [key for D in (E, G) for key in D._gathers if not isinstance(key, Carrier)], (E, G)


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
