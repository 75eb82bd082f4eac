"""Acceptance gate: eight criteria, each printing one PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
come; without -s pytest still fails loudly if any criterion fails.
Criteria 1-4 carry wall-time bounds (1 s, 10 s, 5 s, 5 s) that are
asserted, not just reported.
"""

import random
import time

import numpy as np

from tsalg.algebra import (
    Elem,
    atom,
    carrier_from_seqs,
    complement,
    full_carrier,
    join,
    permutable_closure,
    permutable_subsets,
    subst,
)
from tsalg.seqspace import Perm, all_perms, perm_compose, transposition, unit_seq
from tsalg.termlang import (
    And,
    Auto,
    Exhaustive,
    Images,
    Not,
    One,
    Or,
    Random,
    Subst,
    Transposition,
    Var,
    Zero,
    check_equation,
    check_quasi,
    equation_violated,
    parse_equation,
    parse_term,
    print_term,
    quasi_violated,
    sigma,
)
from tsalg.theorems import (
    backward_cycle,
    build_counterexample,
    decompose_small,
    forward_cycle,
    principal_ultraproduct,
    sigma_holds_small,
    verify_relativization,
)

from oracles import chain

SEED = 1729


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


# -- 1 -----------------------------------------------------------------------


def test_criterion_1_counterexample_reproduction():
    started = time.perf_counter()
    problems = []
    for n in (2, 3, 4, 5, 6):
        r = build_counterexample(n)
        if not (r.union_is_complement and r.complement_is_even_units):
            problems.append(f"n={n}: union/complement identity broken")
        if r.verdict.outcome != "fails":
            problems.append(f"n={n}: sigma did not fail on the units")
        if not r.named_witness_falsifies:
            problems.append(f"n={n}: named X is not a falsifier")
        if not r.passed:
            problems.append(f"n={n}: report not passed")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 1.0
    report(1, "counterexample-reproduction", ok,
           f"n=2..6, {elapsed:.3f}s < 1s" + ("; " + "; ".join(problems) if problems else ""))


# -- 2 -----------------------------------------------------------------------


def test_criterion_2_sigma_validity_small():
    started = time.perf_counter()
    problems = []
    for n, k in [(2, 0), (2, 1), (2, 2), (2, 3), (3, 2)]:
        r = sigma_holds_small(n, k, pairs="all", mode=Exhaustive())
        if not (r.holds and r.agree and r.brute_ran and r.brute_mode == "exhaustive"):
            problems.append(f"({n},{k}): holds={r.holds} agree={r.agree} mode={r.brute_mode}")
    r33 = sigma_holds_small(3, 3, pairs=(forward_cycle(3), backward_cycle(3)),
                            mode=Random(trials=100_000, seed=SEED))
    if not (r33.certificate_holds and r33.brute_holds and r33.agree
            and r33.assignments_tested == 100_000):
        problems.append(f"(3,3): certificate={r33.certificate_holds} brute={r33.brute_holds}")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 10.0
    report(2, "sigma-validity-small", ok,
           f"5 exhaustive signatures + (3,3) with 1e5 sampled X, {elapsed:.3f}s < 10s"
           + ("; " + "; ".join(problems) if problems else ""))


# -- 3 -----------------------------------------------------------------------


def test_criterion_3_relativization_all_permutable_subsets():
    started = time.perf_counter()
    E = full_carrier(2, 3)
    subsets = permutable_subsets(2, 3)
    problems = []
    if len(subsets) != 64:
        problems.append(f"expected 64 permutable subsets, found {len(subsets)}")
    for G in subsets:
        r = verify_relativization(E, G, mode=Exhaustive())
        if not r.passed:
            problems.append(f"violation for G={G!r}: {r.violation}")
            break
        if r.elements_tested != 512:
            problems.append(f"expected 512 elements for G={G!r}")
            break
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 5.0
    report(3, "relativization-homomorphism", ok,
           f"64 permutable G in ^2 3, 512 elements each, {elapsed:.3f}s < 5s"
           + ("; " + "; ".join(problems) if problems else ""))


# -- 4 -----------------------------------------------------------------------


def test_criterion_4_subdirect_decomposition():
    started = time.perf_counter()
    problems = []
    for n, k, elems in [(2, 2, 16), (2, 3, 512)]:
        records, sep = decompose_small(n, k, mode=Exhaustive())
        if not all(r.image_nonzero for r in records):
            problems.append(f"({n},{k}): some atom maps to zero")
        if not (sep.separated and sep.mode == "exhaustive" and sep.elements == elems):
            problems.append(f"({n},{k}): separation {sep.separated} over {sep.elements}")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 5.0
    report(4, "subdirect-decomposition", ok,
           f"(2,2) and (2,3), atom images nonzero, all pairs separated, {elapsed:.3f}s < 5s"
           + ("; " + "; ".join(problems) if problems else ""))


# -- 5 -----------------------------------------------------------------------


def _law_carriers():
    # permutable carriers with at most 12 members, mixed shapes
    orbit12 = permutable_closure(
        carrier_from_seqs(3, 3, [(0, 1, 2), (0, 0, 1), (0, 1, 1)])
    )
    assert orbit12.size == 12
    units3 = carrier_from_seqs(3, 2, [unit_seq(3, i) for i in range(3)])
    return [full_carrier(2, 2), full_carrier(2, 3), units3, orbit12]


def _tables(D, perms):
    space = 1 << D.size
    return {
        f.images: np.array([subst(D, f, Elem(D, b)).bits for b in range(space)],
                           dtype=np.uint16)
        for f in perms
    }


def _exhaustive_law_sweep(D):
    """All five operator laws over every element (and every pair where the
    law is binary) of the powerset algebra on D; returns problem strings."""
    problems = []
    perms = list(all_perms(D.n))
    tables = _tables(D, perms)
    space = 1 << D.size
    full = space - 1
    X = np.arange(space, dtype=np.uint16)
    pair_or = X[:, None] | X[None, :]
    for f in perms:
        T = tables[f.images]
        # additivity over all pairs: S_f(x | y) == S_f x | S_f y
        if not np.array_equal(T[pair_or], T[X][:, None] | T[X][None, :]):
            problems.append(f"additivity broken for f={f.fmt()} on {D!r}")
        # complement-preservation over all elements
        if not np.array_equal(T[full ^ X], full ^ T[X]):
            problems.append(f"complement broken for f={f.fmt()} on {D!r}")
        # composition law against every second permutation
        for g in perms:
            Tg = tables[g.images]
            Tfg = tables[perm_compose(f, g).images]
            if not np.array_equal(Tfg, T[Tg]):
                problems.append(f"composition broken for f={f.fmt()}, g={g.fmt()} on {D!r}")
    for i in range(D.n):
        for j in range(i + 1, D.n):
            T = tables[transposition(D.n, i, j).images]
            if not np.array_equal(T[T], X):
                problems.append(f"involution broken for [{i},{j}] on {D!r}")
    for s in D.seqs:
        if len(set(s)) == 1:
            a = atom(D, s)
            if any(subst(D, f, a) != a for f in perms):
                problems.append(f"constant {s} moved on {D!r}")
    return problems


def test_criterion_5_operator_law_suite():
    problems = []
    for D in _law_carriers():
        problems.extend(_exhaustive_law_sweep(D))
    exhaustive_note = "4 carriers |D|<=12 exhaustive"

    # sampled half: |D| = 2**10, ten thousand randomized law instances
    D = full_carrier(5, 4)
    rng = random.Random(SEED)
    cases = 0
    for _ in range(2000):
        x = Elem(D, rng.getrandbits(D.size))
        y = Elem(D, rng.getrandbits(D.size))
        fi = list(range(5))
        rng.shuffle(fi)
        gi = list(range(5))
        rng.shuffle(gi)
        f, g = Perm(tuple(fi)), Perm(tuple(gi))
        i, j = rng.sample(range(5), 2)
        t = transposition(5, i, j)
        c = rng.randrange(4)
        const = atom(D, (c,) * 5)

        if subst(D, f, join(x, y)) != join(subst(D, f, x), subst(D, f, y)):
            problems.append(f"sampled additivity broken for f={f.fmt()}")
        if subst(D, f, complement(x)) != complement(subst(D, f, x)):
            problems.append(f"sampled complement broken for f={f.fmt()}")
        if subst(D, f, subst(D, g, x)) != subst(D, perm_compose(f, g), x):
            problems.append(f"sampled composition broken for f={f.fmt()}, g={g.fmt()}")
        if subst(D, t, subst(D, t, x)) != x:
            problems.append(f"sampled involution broken for t={t.fmt()}")
        if subst(D, f, const) != const:
            problems.append(f"sampled constant {(c,) * 5} moved")
        cases += 5
        if problems:
            break
    ok = not problems
    report(5, "operator-law-suite", ok,
           f"{exhaustive_note} + {cases} sampled cases on |D|=1024"
           + ("; " + "; ".join(problems[:3]) if problems else ""))


# -- 6 -----------------------------------------------------------------------


def test_criterion_6_principal_ultraproducts():
    rng = random.Random(SEED)
    problems = []
    lists = 0
    checks = 0
    while lists < 3:
        n = rng.choice([1, 2, 3])
        max_u = {1: 8, 2: 2, 3: 2}[n]
        count = rng.randrange(2, 5)
        factors = [full_carrier(n, rng.randrange(0, max_u + 1)) for _ in range(count)]
        if all(c.size == 0 for c in factors):
            continue  # degenerate-only lists are legal but tell us nothing
        lists += 1
        for i0 in range(count):
            r = principal_ultraproduct(factors, i0)
            checks += 1
            if not r.passed:
                problems.append(
                    f"list {lists} index {i0}: {r.violation} "
                    f"(factors {[f'^{c.n} {c.u}' for c in factors]})"
                )
    ok = not problems
    report(6, "principal-ultraproduct", ok,
           f"3 seeded factor lists, every principal index, {checks} embeddings verified"
           + ("; " + "; ".join(problems) if problems else ""))


# -- 7 -----------------------------------------------------------------------


def _random_term(rng, depth):
    leaves = [Zero(), One(), Var("x"), Var("y"), Var("z"), Var("w")]
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(leaves)
    kind = rng.randrange(4)
    if kind == 0:
        return chain(And, (_random_term(rng, depth - 1), _random_term(rng, depth - 1)))
    if kind == 1:
        return chain(Or, (_random_term(rng, depth - 1), _random_term(rng, depth - 1)))
    if kind == 2:
        return Not(_random_term(rng, depth - 1))
    if rng.random() < 0.5:
        i, j = rng.sample(range(4), 2)
        spec = Transposition(i, j)
    else:
        images = list(range(rng.randrange(1, 5)))
        rng.shuffle(images)
        spec = Images(tuple(images))
    return Subst(spec, _random_term(rng, depth - 1))


def test_criterion_7_parser_round_trip():
    rng = random.Random(SEED)
    problems = []
    for i in range(500):
        t = _random_term(rng, 6)
        printed = print_term(t)
        back = parse_term(printed)
        if back != t:
            problems.append(f"term {i}: {printed!r} reparsed differently")
            break
    ok = not problems
    report(7, "parser-round-trip", ok,
           "500 seeded terms of depth <= 6 reparse to identical trees"
           + ("; " + "; ".join(problems) if problems else ""))


# -- 8 -----------------------------------------------------------------------


def test_criterion_8_determinism():
    problems = []

    # every fails verdict re-validates through the shared violation predicate
    D = full_carrier(2, 2)
    eq = parse_equation("s[0,1] x = x")
    v1 = check_equation(D, eq)
    if not (v1.outcome == "fails" and equation_violated(D, eq, v1.witness)):
        problems.append("exhaustive fails verdict does not re-validate")
    v2 = check_equation(D, eq, Random(trials=100, seed=SEED))
    if not (v2.outcome == "fails" and equation_violated(D, eq, v2.witness)):
        problems.append("sampled fails verdict does not re-validate")
    for n in (2, 3, 4, 5, 6):
        r = build_counterexample(n)
        if not quasi_violated(r.carrier, sigma(n, r.f, r.g), r.verdict.witness):
            problems.append(f"counterexample witness at n={n} does not re-validate")

    # identical inputs + seed reproduce reports bit for bit
    E = full_carrier(2, 5)
    G = permutable_closure(carrier_from_seqs(2, 5, [(0, 1)]))
    if verify_relativization(E, G, Auto(seed=SEED)) != verify_relativization(E, G, Auto(seed=SEED)):
        problems.append("relativization reports differ across runs")
    a = sigma_holds_small(3, 3, pairs=(forward_cycle(3), backward_cycle(3)),
                          mode=Random(trials=500, seed=SEED))
    b = sigma_holds_small(3, 3, pairs=(forward_cycle(3), backward_cycle(3)),
                          mode=Random(trials=500, seed=SEED))
    if a != b:
        problems.append("sigma reports differ across runs")
    if decompose_small(2, 4, Auto(seed=SEED)) != decompose_small(2, 4, Auto(seed=SEED)):
        problems.append("decomposition reports differ across runs")
    factors = [full_carrier(2, 2), full_carrier(2, 3)]
    if principal_ultraproduct(factors, 0) != principal_ultraproduct(factors, 0):
        problems.append("ultraproduct reports differ across runs")
    qe = sigma(3, forward_cycle(3), backward_cycle(3))
    units = carrier_from_seqs(3, 2, [unit_seq(3, i) for i in range(3)])
    if check_quasi(units, qe, Random(trials=50, seed=SEED)) != check_quasi(
        units, qe, Random(trials=50, seed=SEED)
    ):
        problems.append("check_quasi verdicts differ across runs")

    ok = not problems
    report(8, "determinism", ok,
           "fails verdicts re-validate; same inputs + seed reproduce every report"
           + ("; " + "; ".join(problems) if problems else ""))
