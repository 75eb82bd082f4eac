import json
import random

import pytest

import tsalg.theorems as theorems
from tsalg.algebra import (
    Carrier,
    Elem,
    ProductAlgebra,
    atom,
    carrier_from_seqs,
    complement,
    elem_from_seqs,
    full_carrier,
    generate_subalgebra,
    is_permutable,
    join,
    permutable_closure,
    relativize,
    subst,
)
from tsalg.cli import main
from tsalg.seqspace import Perm, all_seqs, perm_compose, perm_inverse, rank, unit_seq
from tsalg.termlang import BudgetExceeded, Exhaustive, Random, check_quasi, quasi_violated, sigma
from tsalg.theorems import (
    backward_cycle,
    build_counterexample,
    decompose_small,
    forward_cycle,
    principal_ultraproduct,
    sigma_holds_small,
    unit_carrier,
    verify_h_escape,
    verify_relativization,
)

from oracles import elem_set


def units(n, u=2):
    return carrier_from_seqs(n, u, [unit_seq(n, i) for i in range(n)])


# --- named ingredients ----------------------------------------------------


def test_cycles_are_mutually_inverse():
    for n in (2, 3, 4, 5):
        f, g = forward_cycle(n), backward_cycle(n)
        assert perm_compose(f, g).images == tuple(range(n))
        assert perm_inverse(f) == g
    assert forward_cycle(3).images == (1, 2, 0)
    assert backward_cycle(3).images == (2, 0, 1)


def test_unit_carrier():
    G = unit_carrier(3)
    assert G == units(3)
    assert is_permutable(G)
    G5 = unit_carrier(4, 5)
    assert G5.u == 5 and G5.size == 4
    with pytest.raises(ValueError):
        unit_carrier(3, 1)  # units need the value 1


# --- relativization -------------------------------------------------------


def test_relativization_homomorphism_exhaustive():
    E = full_carrier(3, 2)
    G = units(3)
    r = verify_relativization(E, G)
    assert r.passed and r.violation is None
    assert r.mode == "exhaustive"
    assert r.elements_tested == 256
    assert r.pairs_tested == 256 * 257 // 2
    assert set(r.ops_checked) == {"meet", "complement", "subst"}


def test_relativization_preconditions():
    E = full_carrier(2, 2)
    with pytest.raises(ValueError):
        verify_relativization(E, carrier_from_seqs(2, 3, [(0, 1), (1, 0)]))
    with pytest.raises(ValueError):
        verify_relativization(carrier_from_seqs(2, 2, [(0, 0)]), full_carrier(2, 2))
    with pytest.raises(ValueError):
        verify_relativization(E, carrier_from_seqs(2, 2, [(0, 1)]))  # not permutable


def test_relativization_every_permutable_subcarrier_of_2_2():
    E = full_carrier(2, 2)
    space = list(all_seqs(2, 2))
    for r in range(16):
        members = [s for k, s in enumerate(space) if r >> k & 1]
        G = carrier_from_seqs(2, 2, members)
        if not is_permutable(G):
            continue
        rep = verify_relativization(E, G)
        assert rep.passed, rep.violation


def test_relativization_sampled_mode():
    E = full_carrier(2, 5)  # 2**25 elements: over the default budget
    G = permutable_closure(carrier_from_seqs(2, 5, [(0, 1)]))
    r = verify_relativization(E, G, seed=99)
    assert r.passed
    assert r.mode == "random(2000)"
    assert r.seed == 99
    r2 = verify_relativization(E, G, mode=Random(trials=25, seed=5))
    assert r2.passed and r2.mode == "random(25)" and r2.elements_tested == 25


def test_relativization_explicit_exhaustive_respects_budget():
    E = full_carrier(2, 5)
    G = permutable_closure(carrier_from_seqs(2, 5, [(0, 1)]))
    with pytest.raises(BudgetExceeded):
        verify_relativization(E, G, mode=Exhaustive(), budget=1000)


def _swap_draws(seed, trials, size):
    """First trial of random.Random(seed), drawing x then y per trial, whose
    x holds exactly one of positions 1 and 2: (trial number, x bits)."""
    rng = random.Random(seed)
    for t in range(1, trials + 1):
        x, _ = rng.getrandbits(size), rng.getrandbits(size)
        if (x >> 1 ^ x >> 2) & 1:
            return t, x
    raise AssertionError("no such trial")


def _misrouted(E, G):
    # G's member (1,1) reads E's position 1, the member (0,1), instead of
    # its own: meet and complement survive any such selection, s[0,1]
    # does not, since it swaps (0,1) and (1,0) but fixes both members of G
    table = G._gather_from(E)
    table[1] = 1
    return table


def test_relativization_violation_reporting():
    # relativize is provably a homomorphism here, so break the one
    # projection table that the scan and relativize both read
    E = full_carrier(2, 2)
    G = carrier_from_seqs(2, 2, [(0, 0), (1, 1)])
    _misrouted(E, G)
    assert relativize(Elem(E, 0b0010), G).bits == 0b10
    r = verify_relativization(E, G, mode=Exhaustive())
    assert not r.passed
    # the least violating assignment is x = {(0,1)}, y = 0
    assert r.violation == {"op": "subst", "perm": [1, 0], "x": [[0, 1]]}
    assert (r.elements_tested, r.pairs_tested) == (3, 2 * 16 + 1)

    trial, x = _swap_draws(4, 50, E.size)
    r = verify_relativization(E, G, mode=Random(50, 4))
    assert not r.passed and r.seed == 4
    assert r.violation == {"op": "subst", "perm": [1, 0], "x": [list(s) for s in Elem(E, x).seqs()]}
    assert (r.elements_tested, r.pairs_tested) == (trial, trial)


def _independent_relativize(x, G):
    members = set(G.seqs)
    return elem_from_seqs(G, [s for s in x.seqs() if s in members])


def test_relativization_witness_disagreement_raises(monkeypatch, tmp_path, capsys):
    # the scan reads a broken table while the re-check relativizes
    # independently, so the re-check rejects the scan's witness
    gather_from = Carrier._gather_from

    def misrouted(G, E):
        table = list(gather_from(G, E))
        if G.size == 2:
            table[1] = 1
        return table

    monkeypatch.setattr(Carrier, "_gather_from", misrouted)
    monkeypatch.setattr(theorems, "relativize", _independent_relativize)
    E = full_carrier(2, 2)
    G = carrier_from_seqs(2, 2, [(0, 0), (1, 1)])
    for mode in (Exhaustive(), Random(50, 4)):
        with pytest.raises(RuntimeError, match="disagree"):
            verify_relativization(E, G, mode=mode)
    big, sub = tmp_path / "big.alg", tmp_path / "sub.alg"
    big.write_text("n = 2\nbase = 2\ncarrier = full\n")
    sub.write_text("n = 2\nbase = 2\ncarrier = [[0,0],[1,1]]\n")
    assert main(["verify-relativization", "--big", str(big), "--sub", str(sub)]) == 2
    assert "disagree" in capsys.readouterr().err


def test_relativization_surjectivity_oracle():
    # every element downstairs is hit: lift its member set into E
    E = full_carrier(3, 2)
    G = units(3)
    for bits in range(1 << G.size):
        y = Elem(G, bits)
        assert relativize(elem_from_seqs(E, y.seqs()), G) == y


# --- decomposition ----------------------------------------------------------


def test_decompose_2_2():
    records, sep = decompose_small(2, 2)
    assert len(records) == 4
    assert sep.separated and sep.failure is None
    assert sep.mode == "exhaustive" and sep.pairs_tested == 16 * 15 // 2
    by_atom = {r.atom_seq: r for r in records}
    assert by_atom[(0, 0)].k == 1 and by_atom[(0, 0)].base_used == (0,)
    assert by_atom[(0, 1)].k == 2 and by_atom[(0, 1)].renaming == {0: 0, 1: 1}
    assert by_atom[(1, 1)].k == 1 and by_atom[(1, 1)].renaming == {1: 0}
    assert all(r.image_nonzero for r in records)
    assert all(not r.degenerate for r in records)
    assert all(r.target == {"n": 2, "k": r.k} for r in records)


def test_decompose_2_3():
    # base strictly larger than needed by some atoms
    records, sep = decompose_small(2, 3)
    assert len(records) == 9
    assert sep.separated
    by_atom = {r.atom_seq: r for r in records}
    assert by_atom[(1, 2)].base_used == (1, 2)
    assert by_atom[(1, 2)].renaming == {1: 0, 2: 1}
    assert by_atom[(2, 2)].k == 1
    assert all(r.image_nonzero for r in records)


def test_decompose_images_are_relativizations():
    # spot-check the atom (0,1) of ^2 3: its sub-carrier keeps {0,1}-valued
    # sequences only, and the atom survives as {(0,1)} after relabeling
    A = full_carrier(2, 3)
    gq = carrier_from_seqs(2, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
    img = relativize(atom(A, (0, 1)), gq)
    assert elem_set(img) == {(0, 1)}


def test_decompose_degenerate_base_zero():
    records, sep = decompose_small(2, 0)
    assert len(records) == 1
    assert records[0].degenerate and records[0].atom_seq is None
    assert records[0].image_nonzero  # vacuously: nothing to lose
    assert sep.separated and sep.elements == 1


def test_decompose_sampled_mode():
    records, sep = decompose_small(2, 3, mode=Random(trials=200, seed=11))
    assert all(r.image_nonzero for r in records)
    assert sep.separated
    assert sep.mode == "random(200)" and sep.seed == 11


def test_decompose_big_base_lands_in_small_targets():
    # base 4 over dimension 2: every atom uses at most 2 values, so every
    # target is a genuinely small algebra even though the source is not
    records, sep = decompose_small(2, 4, mode=Random(trials=300, seed=3))
    assert len(records) == 16
    assert all(r.target == {"n": 2, "k": r.k} and r.k <= 2 for r in records)
    assert all(r.image_nonzero for r in records)
    assert sep.separated


def test_decompose_shares_one_route_per_base():
    records, sep = decompose_small(3, 3, mode=Random(trials=20, seed=1))
    first = {}
    for r in records:
        route = first.setdefault(r.base_used, r)
        assert r.target == route.target == {"n": 3, "k": r.k} and r.renaming is route.renaming
    assert len(first) == 2**3 - 1
    assert all(r.image_nonzero for r in records) and sep.separated


def test_decompose_walks_member_tuples_once_per_route(monkeypatch):
    # the route over all k values is the full carrier itself, so relativize
    # takes its identity shortcut for those atoms; only the per-route
    # target check compares two equal-length member tuples
    walks = []
    eq = Carrier.__eq__

    def counting(self, other):
        if self is not other and isinstance(other, Carrier) and self.size == other.size:
            walks.append(self.size)
        return eq(self, other)

    monkeypatch.setattr(Carrier, "__eq__", counting)
    records, sep = decompose_small(5, 2, mode=Random(trials=20, seed=1))
    assert len(records) == 32 and sep.separated
    assert len(walks) <= len({r.base_used for r in records}) == 3


def test_decompose_auto_mode_degrades_on_pairwise_work():
    # 2**16 elements means ~2e9 separation pairs: auto must go random
    _, sep = decompose_small(2, 4, seed=6)
    assert sep.mode == "random(2000)" and sep.seed == 6
    assert sep.separated


def _blind_route(monkeypatch):
    """Make the route of base (0, 1) over ^2 3 read nothing where it should
    read (0,1), so no route sees the member (0,1); relativize reads the
    same table."""
    gather_from = Carrier._gather_from

    def blind(G, E):
        table = gather_from(G, E)
        if G.members == (0, 1, 3, 4):  # (0,0), (0,1), (1,0), (1,1) in ^2 3
            table[1] = None
        return table

    monkeypatch.setattr(Carrier, "_gather_from", blind)


def _old_pairs_tested(space, x, y):
    """Pairs the x-major sweep over x < y visits up to and including (x, y)."""
    pairs = 0
    for a in range(space):
        for b in range(a + 1, space):
            pairs += 1
            if (a, b) == (x, y):
                return pairs
    raise AssertionError("not a pair")


def test_decompose_reports_least_unseparated_pair(monkeypatch):
    _blind_route(monkeypatch)
    records, sep = decompose_small(2, 3, mode=Exhaustive())
    assert [r.atom_seq for r in records if not r.image_nonzero] == [(0, 1)]
    assert not sep.separated and sep.mode == "exhaustive" and sep.seed is None
    # x and y differ only at (0,1), position 1 of ^2 3; the least such
    # pair of the x-major order is x = 0, y = {(0,1)}
    assert sep.failure == {"x": [], "y": [[0, 1]]}
    assert sep.pairs_tested == _old_pairs_tested(512, 0, 0b10)


def test_decompose_sampled_counts_trials_with_distinct_draws(monkeypatch):
    _blind_route(monkeypatch)
    trials, seed = 3000, 21
    rng = random.Random(seed)
    distinct = 0
    for _ in range(trials):
        x, y = rng.getrandbits(9), rng.getrandbits(9)
        distinct += x != y
        if x ^ y == 0b10:
            break
    else:
        raise AssertionError("the seed draws no unseparated pair")
    _, sep = decompose_small(2, 3, mode=Random(trials, seed))
    assert not sep.separated and sep.seed == seed
    assert sep.pairs_tested == distinct
    A = full_carrier(2, 3)
    assert sep.failure == {"x": [list(s) for s in Elem(A, x).seqs()],
                           "y": [list(s) for s in Elem(A, y).seqs()]}


def test_decompose_sampled_pass_counts_distinct_draws():
    rng = random.Random(5)
    draws = [(rng.getrandbits(4), rng.getrandbits(4)) for _ in range(300)]
    _, sep = decompose_small(2, 2, mode=Random(300, 5))
    assert sep.separated and sep.pairs_tested == sum(x != y for x, y in draws) < 300


def test_decompose_witness_disagreement_raises(monkeypatch):
    _blind_route(monkeypatch)
    monkeypatch.setattr(theorems, "relativize", _independent_relativize)
    with pytest.raises(RuntimeError, match="disagree"):
        decompose_small(2, 3, mode=Exhaustive())


# --- sigma in the small algebras ---------------------------------------------


def test_sigma_small_all_pairs_2_2():
    r = sigma_holds_small(2, 2)
    assert r.holds and r.agree
    assert r.pairs_mode == "all-pairs"
    assert r.pairs_checked == 4  # two perms of two coordinates, squared
    assert r.certificate_holds and r.brute_ran
    assert r.brute_mode == "exhaustive"
    assert r.constants_checked == 2
    assert r.counterexample is None


def test_sigma_small_all_pairs_3_2():
    r = sigma_holds_small(3, 2)
    assert r.holds and r.agree
    assert r.pairs_checked == 36
    assert r.assignments_tested == 36 * 256


def test_sigma_small_base_zero_and_one():
    r0 = sigma_holds_small(2, 0)
    assert r0.holds  # empty carrier: one-element algebra, 0 = 1 outright
    assert r0.constants_checked == 0
    r1 = sigma_holds_small(2, 1)
    assert r1.holds and r1.constants_checked == 1


def test_sigma_small_given_pair():
    f, g = forward_cycle(3), backward_cycle(3)
    r = sigma_holds_small(3, 2, pairs=(f, g))
    assert r.holds
    assert r.pairs_mode == "given {1,2,0} {2,0,1}"
    assert r.pairs_checked == 1
    assert r.perms_checked == 2


def test_sigma_small_base_may_exceed_dimension():
    # sigma can't see whether the base fits the dimension: constants exist
    # in ^2 3 just as well, so it holds there too
    r = sigma_holds_small(2, 3)
    assert r.holds and r.agree and r.brute_ran
    assert r.constants_checked == 3 and r.pairs_checked == 4


def test_sigma_small_rejects_bad_input():
    with pytest.raises(ValueError):
        sigma_holds_small(6, 2)  # all-pairs capped at dimension 5
    with pytest.raises(ValueError):
        sigma_holds_small(-1, 0)
    with pytest.raises(Exception):
        sigma_holds_small(3, 2, pairs=(forward_cycle(2), backward_cycle(2)))


def test_sigma_small_over_budget_falls_back_to_certificate():
    r = sigma_holds_small(3, 3, pairs=(forward_cycle(3), backward_cycle(3)),
                          mode=Exhaustive(), budget=1000)
    assert r.certificate_holds and not r.brute_ran
    assert r.holds  # certificate alone still vouches
    assert r.pairs_checked == 0 and r.brute_holds is None
    assert "over budget" in r.note


def test_sigma_small_random_brute():
    r = sigma_holds_small(3, 3, pairs=(forward_cycle(3), backward_cycle(3)),
                          mode=Random(trials=300, seed=42))
    assert r.holds and r.agree
    assert r.brute_mode == "random(300)" and r.brute_seed == 42
    assert r.assignments_tested == 300


def test_sigma_small_auto_degrades_to_random():
    # 2**27 assignments for the single pair: way past the default budget
    r = sigma_holds_small(3, 3, pairs=(forward_cycle(3), backward_cycle(3)), seed=7)
    assert r.brute_ran and r.brute_mode == "random(2000)"
    assert r.brute_seed == 7
    assert r.holds and r.agree


# --- the counterexample -------------------------------------------------------


def test_counterexample_n2():
    r = build_counterexample(2)
    assert r.passed
    assert r.f.images == (1, 0) and r.g.images == (1, 0)
    assert elem_set(r.x) == {(0, 1)}  # the unit at coordinate 1
    assert r.permutable and r.union_is_complement and r.complement_is_even_units
    assert r.verdict.outcome == "fails"
    # at n=2 the enumeration's least violator is the named witness itself
    assert r.witness_is_named
    assert elem_set(r.verdict.witness["x"]) == {(0, 1)}


def test_counterexample_n3():
    r = build_counterexample(3)
    assert r.passed
    assert elem_set(r.x) == {(0, 1, 0)}
    # least violator {(0,0,1)} comes before the named witness in bit order
    assert not r.witness_is_named
    assert elem_set(r.verdict.witness["x"]) == {(0, 0, 1)}
    assert quasi_violated(r.carrier, sigma(3, r.f, r.g), {"x": r.x})


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_counterexample_union_really_is_complement(n):
    r = build_counterexample(n)
    assert r.passed, (n, r)
    # independent recomputation of the union from the definition
    G, f, g = r.carrier, r.f, r.g
    x = elem_set(r.x)
    union = {q for q in G.seqs if tuple(q[v] for v in f.images) in x}
    union |= {q for q in G.seqs if tuple(q[v] for v in g.images) in x}
    assert union == set(G.seqs) - x


def test_counterexample_rejects_n1():
    with pytest.raises(ValueError):
        build_counterexample(1)


# --- the escape route -----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_h_escape(n):
    r = verify_h_escape(n)
    assert r.passed
    assert r.hom.passed
    assert r.surjective
    assert r.sigma_big.holds and r.sigma_big.agree
    assert r.sigma_sub.outcome == "fails"
    assert r.sub_nondegenerate


def test_h_escape_uses_the_same_cycle_pair_on_both_floors():
    r = verify_h_escape(2)
    assert r.sigma_big.pairs_mode == "given {1,0} {1,0}"
    assert r.sigma_sub.witness is not None


def test_h_escape_rejects_n1():
    with pytest.raises(ValueError):
        verify_h_escape(1)


# --- principal ultraproducts ------------------------------------------------------


def test_ultraproduct_collapses_to_projection():
    factors = [full_carrier(2, 2), full_carrier(2, 3), full_carrier(2, 2)]
    for i0 in range(3):
        r = principal_ultraproduct(factors, i0)
        assert r.passed and r.projection_agrees, (i0, r.violation)
        assert r.classes_tested == 1 << factors[i0].size
        assert (r.mode, r.violation) == ("exhaustive", None)


def test_ultraproduct_single_factor():
    r = principal_ultraproduct([full_carrier(2, 2)], 0)
    assert r.passed and r.factor_count == 1


def test_ultraproduct_with_degenerate_factor():
    # an empty factor (base 0) contributes a one-element algebra
    factors = [full_carrier(2, 0), full_carrier(2, 2)]
    r = principal_ultraproduct(factors, 1)
    assert r.passed
    r0 = principal_ultraproduct(factors, 0)
    assert r0.passed and r0.classes_tested == 1


def test_ultraproduct_dimension_zero_factors():
    factors = [full_carrier(0, 2), full_carrier(0, 3)]
    for i0 in range(2):
        assert principal_ultraproduct(factors, i0).passed


def test_ultraproduct_seed_determinism(tmp_path, capsys):
    # --seed is accepted but nothing is drawn: two seeds, one report
    spec = tmp_path / "full23.alg"
    spec.write_text("n = 2\nbase = 3\ncarrier = full\n")
    reports = []
    for seed in ("5", "6"):
        argv = ["ultraproduct", "--spec", str(spec), "--spec", str(spec), "--seed", seed, "--json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        report.pop("wall_time_s")
        reports.append(report)
    first, second = reports
    assert first == second
    assert (first["mode"], first["seed"], first["counts"]) == ("exhaustive", None, {"classes_tested": 512})


def test_ultraproduct_input_validation():
    with pytest.raises(ValueError):
        principal_ultraproduct([], 0)
    with pytest.raises(ValueError):
        principal_ultraproduct([full_carrier(2, 2)], 1)
    with pytest.raises(ValueError):
        principal_ultraproduct([carrier_from_seqs(2, 2, [(0, 0)])], 0)
    with pytest.raises(Exception):
        principal_ultraproduct([full_carrier(2, 2), full_carrier(3, 2)], 0)


def _misroute_psi(monkeypatch, routes):
    """Break ψ's compiled table for the principal factor: its target
    position pt reads position routes[pt] (None: no position), in the
    scan and in the element re-check alike."""
    table_for = theorems._psi_table

    def misrouted(target):
        table = table_for(target)
        for pt, src in routes.items():
            table[pt] = src
        return table

    monkeypatch.setattr(theorems, "_psi_table", misrouted)


def _psi_from_definition(a, table, i0, target):
    # ignores the compiled table: every factor's representative row is
    # ranked afresh
    bits = 0
    for pt, t in enumerate(target.seqs):
        agreeing = set()
        for i, x in enumerate(a.components):
            c = x.carrier
            if c.size:
                p = c.member_index.get(rank(t if i == i0 else tuple(e if e < c.u else 0 for e in t), c.u))
                if p is not None and x.bits >> p & 1:
                    agreeing.add(i)
        if i0 in agreeing:
            bits |= 1 << pt
    return Elem(target, bits)


def test_ultraproduct_psi_reads_the_principal_factor():
    # the element ψ over the compiled table against ranking every
    # factor's row afresh
    rng = random.Random(2)
    factors = (full_carrier(2, 3), full_carrier(2, 0), full_carrier(2, 2), full_carrier(2, 1))
    P = ProductAlgebra(factors)
    for i0 in (0, 2, 3):
        table = theorems._psi_table(factors[i0])
        assert table == list(range(factors[i0].size))
        for _ in range(20):
            a = P.element(Elem(c, rng.getrandbits(c.size) if c.size else 0) for c in factors)
            image = theorems._psi(a, table, i0, factors[i0])
            assert image == _psi_from_definition(a, table, i0, factors[i0]) == a.components[i0]


def test_ultraproduct_class_phase_violation(monkeypatch):
    # target positions 1, (0,1), and 2, (1,0), read each other: the least
    # class the map moves is the atom {(0,1)}, the class at index 2
    _misroute_psi(monkeypatch, {1: 2, 2: 1})
    r = principal_ultraproduct([full_carrier(2, 2), full_carrier(2, 3)], 0)
    assert not r.passed and not r.projection_agrees
    assert r.violation == {"check": "projection", "class": [[0, 1]]}
    assert (r.classes_tested, r.mode) == (3, "exhaustive")


def test_ultraproduct_bounds_violation(monkeypatch):
    # position 3 reads nothing, so ψ(1) != 1: the broken bound shows at
    # the least class moved, the atom {(1,1)} at index 8
    _misroute_psi(monkeypatch, {3: None})
    r = principal_ultraproduct([full_carrier(2, 2), full_carrier(2, 3)], 0)
    assert not r.passed
    assert r.violation == {"check": "projection", "class": [[1, 1]]}
    assert r.classes_tested == 9


def test_ultraproduct_witness_disagreement_raises(monkeypatch, tmp_path, capsys):
    # the decision reads a broken table while the re-check ranks afresh
    monkeypatch.setattr(theorems, "_psi", _psi_from_definition)
    _misroute_psi(monkeypatch, {1: 2, 2: 1})
    factors = [full_carrier(2, 2), full_carrier(2, 3)]
    with pytest.raises(RuntimeError, match="disagree"):
        principal_ultraproduct(factors, 0)
    spec22, spec23 = tmp_path / "a.alg", tmp_path / "b.alg"
    spec22.write_text("n = 2\nbase = 2\ncarrier = full\n")
    spec23.write_text("n = 2\nbase = 3\ncarrier = full\n")
    assert main(["ultraproduct", "--spec", str(spec22), "--spec", str(spec23)]) == 2
    assert "disagree" in capsys.readouterr().err


# --- cross-layer sanity -------------------------------------------------------------


def test_sigma_fails_downstairs_but_not_on_the_big_algebra():
    # the same quasi-equation text, two carriers, opposite verdicts
    n = 3
    f, g = forward_cycle(n), backward_cycle(n)
    qe = sigma(n, f, g)
    big = check_quasi(full_carrier(n, 2), qe, Exhaustive())
    small = check_quasi(units(n), qe, Exhaustive())
    assert big.outcome == "holds-exhaustive"
    assert small.outcome == "fails"


def test_counterexample_witness_revalidates_via_shared_predicate():
    for n in (2, 3, 4):
        r = build_counterexample(n)
        qe = sigma(n, r.f, r.g)
        assert quasi_violated(r.carrier, qe, r.verdict.witness)


def test_sigma_survives_products_and_subalgebras():
    # quasi-equations are preserved by direct products and subalgebras:
    # sigma's hypothesis stays unsatisfiable componentwise...
    f, g = forward_cycle(2), backward_cycle(2)
    P = ProductAlgebra([full_carrier(2, 2), full_carrier(2, 2)])
    for abits in range(16):
        for bbits in range(16):
            X = P.element([Elem(P.factors[0], abits), Elem(P.factors[1], bbits)])
            assert P.join(P.subst(f, X), P.subst(g, X)) != P.complement(X)
    # ...and inside any generated subalgebra of a full algebra
    D = full_carrier(2, 2)
    sub = generate_subalgebra(D, [elem_from_seqs(D, [(0, 0), (1, 1)])])
    for X in sub:
        assert join(subst(D, f, X), subst(D, g, X)) != complement(X)
