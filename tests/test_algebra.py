import random
import tracemalloc
from itertools import combinations, product

import hypothesis
import hypothesis.strategies as strat
import pytest

from tsalg.algebra import (
    Carrier,
    CarrierMismatch,
    Elem,
    ProductAlgebra,
    SizeCapExceeded,
    atom,
    canonicalize_base,
    carrier_from_seqs,
    complement,
    elem_from_seqs,
    full_carrier,
    generate_subalgebra,
    is_permutable,
    is_zero,
    join,
    leq,
    meet,
    one,
    permutable_closure,
    permutable_subsets,
    relativize,
    subst,
    zero,
    _apply_gather,
    _benes_network,
    _bit_positions,
)
from tsalg.seqspace import (
    DimensionMismatch,
    Perm,
    all_perms,
    all_seqs,
    compose_right,
    perm_compose,
    perm_inverse,
    rank,
    transposition,
    unit_seq,
    unrank,
)

from oracles import (
    brute_closure,
    brute_permutable,
    brute_relativize,
    brute_subst,
    elem_set,
    orbit,
    seq_compose,
)


def carriers_under_test():
    return [
        full_carrier(0, 3),
        full_carrier(1, 2),
        full_carrier(2, 2),
        full_carrier(2, 3),
        full_carrier(3, 2),
        carrier_from_seqs(3, 2, [(0, 0, 1), (0, 1, 0), (1, 0, 0)]),
        carrier_from_seqs(2, 3, [(0, 1), (1, 2)]),  # deliberately not permutable
        carrier_from_seqs(2, 2, []),
    ]


# --- carriers -------------------------------------------------------------


def test_carrier_orders_members_by_rank():
    D = carrier_from_seqs(2, 2, [(1, 0), (0, 1), (1, 0)])
    assert D.seqs == ((0, 1), (1, 0))
    assert D.size == 2
    assert D.member_index == {1: 0, 2: 1}


def test_full_carrier_seqs_are_its_unranked_members():
    for n in range(5):
        for u in range(4):
            D = full_carrier(n, u)
            assert D.seqs == tuple(unrank(r, n, u) for r in D.members), (n, u)


def test_carrier_rejects_bad_ranks():
    with pytest.raises(ValueError):
        Carrier(2, 2, [1, 1])
    with pytest.raises(ValueError):
        Carrier(2, 2, [2, 1])
    with pytest.raises(ValueError):
        Carrier(2, 2, [4])


def test_carrier_equality_is_structural():
    a = carrier_from_seqs(2, 2, [(0, 1)])
    b = Carrier(2, 2, [1])
    assert a == b and hash(a) == hash(b)
    assert a != Carrier(2, 3, [1])


def test_carrier_from_seqs_validates_entries():
    with pytest.raises(DimensionMismatch):
        carrier_from_seqs(2, 2, [(0, 1, 0)])
    with pytest.raises(ValueError):
        carrier_from_seqs(2, 2, [(0, 2)])


def test_size_caps():
    with pytest.raises(SizeCapExceeded):
        full_carrier(2, 4, max_members=15)
    with pytest.raises(SizeCapExceeded):
        carrier_from_seqs(2, 2, all_seqs(2, 2), max_members=3)
    with pytest.raises(SizeCapExceeded):
        permutable_closure(carrier_from_seqs(3, 3, [(0, 1, 2)]), max_members=5)


# --- permutability ---------------------------------------------------------


def test_is_permutable_matches_brute_force_over_all_subsets():
    # every one of the 16 subsets of ^2 2
    space = list(all_seqs(2, 2))
    for r in range(16):
        members = [s for k, s in enumerate(space) if r >> k & 1]
        D = carrier_from_seqs(2, 2, members)
        assert is_permutable(D) == brute_permutable(members, 2)


@hypothesis.given(strat.sets(strat.sampled_from(sorted(all_seqs(3, 3)))))
def test_is_permutable_matches_brute_force(members):
    D = carrier_from_seqs(3, 3, members)
    assert is_permutable(D) == brute_permutable(members, 3)


def test_permutable_closure_frozen_example():
    D = carrier_from_seqs(3, 3, [(0, 1, 2)])
    closed = permutable_closure(D)
    assert set(closed.seqs) == orbit((0, 1, 2))
    assert closed.size == 6


@hypothesis.given(strat.sets(strat.sampled_from(sorted(all_seqs(3, 3))), max_size=4))
def test_permutable_closure_is_the_union_of_orbits(members):
    closed = permutable_closure(carrier_from_seqs(3, 3, members))
    expected = set()
    for s in members:
        expected |= orbit(s)
    assert set(closed.seqs) == expected
    assert is_permutable(closed)


def test_permutable_subsets_of_2_3():
    subs = permutable_subsets(2, 3)
    assert len(subs) == 64  # six swap orbits in ^2 3
    assert len({c.members for c in subs}) == 64
    for c in subs:
        assert brute_permutable(c.seqs, 2)
    sizes = sorted(c.size for c in subs)
    assert sizes[0] == 0 and sizes[-1] == 9


def test_permutable_subsets_cap():
    with pytest.raises(SizeCapExceeded):
        permutable_subsets(2, 4, max_subsets=64)  # ten orbits -> 1024 unions


# --- elements and boolean structure ----------------------------------------


def test_elem_bits_must_fit():
    D = full_carrier(2, 2)
    with pytest.raises(ValueError):
        Elem(D, 1 << 4)
    with pytest.raises(ValueError):
        Elem(D, -1)


def test_atom_and_formatting():
    D = full_carrier(2, 2)
    a = atom(D, (0, 1))
    assert a.fmt() == "{(0,1)}"
    assert repr(a) == "Elem({(0,1)})"
    assert a.seqs() == [(0, 1)]
    with pytest.raises(DimensionMismatch):
        atom(D, (0, 1, 0))
    with pytest.raises(ValueError):
        atom(carrier_from_seqs(2, 2, [(0, 0)]), (0, 1))


@pytest.mark.parametrize("width", [0, 1, 2, 7, 8, 9, 64, 65, 1000, 4099])
def test_bit_positions_match_shift_and_mask(width):
    # 0, one bit, all bits and random bits against bits >> p & 1
    rng = random.Random(width)
    full = (1 << width) - 1
    cases = [0, full, rng.getrandbits(width)] + ([1 << rng.randrange(width)] if width else [])
    for bits in cases:
        assert list(_bit_positions(bits)) == [p for p in range(width) if bits >> p & 1]


def test_elem_from_seqs_collects_atoms():
    D = full_carrier(2, 2)
    x = elem_from_seqs(D, [(0, 1), (1, 0), (0, 1)])
    assert elem_set(x) == {(0, 1), (1, 0)}


def test_boolean_laws_exhaustive_small():
    D = full_carrier(2, 2)
    space = [Elem(D, b) for b in range(1 << D.size)]
    top, bot = one(D), zero(D)
    for x in space:
        assert meet(x, complement(x)) == bot
        assert join(x, complement(x)) == top
        assert complement(complement(x)) == x
        assert leq(bot, x) and leq(x, top)
        for y in space:
            assert elem_set(meet(x, y)) == elem_set(x) & elem_set(y)
            assert elem_set(join(x, y)) == elem_set(x) | elem_set(y)
            assert meet(x, y) == meet(y, x)
            assert leq(meet(x, y), x)


def test_ops_reject_foreign_elements():
    D, E = full_carrier(2, 2), full_carrier(2, 3)
    with pytest.raises(CarrierMismatch):
        meet(one(D), one(E))
    with pytest.raises(CarrierMismatch):
        subst(E, Perm((1, 0)), one(D))


def test_equal_carriers_interoperate():
    a = full_carrier(2, 2)
    b = Carrier(2, 2, range(4))
    assert meet(one(a), zero(b)) == zero(a)


def test_zero_sized_carrier_collapses():
    D = carrier_from_seqs(2, 2, [])
    assert one(D) == zero(D)
    assert is_zero(subst(D, Perm((1, 0)), one(D)))


# --- substitution -----------------------------------------------------------


def test_subst_frozen_example():
    D = full_carrier(2, 2)
    x = atom(D, (0, 1))
    assert elem_set(subst(D, Perm((1, 0)), x)) == {(1, 0)}


def test_subst_agrees_with_brute_force_everywhere():
    for D in carriers_under_test():
        members = D.seqs
        for f in all_perms(D.n):
            for bits in range(1 << D.size):
                x = Elem(D, bits)
                got = elem_set(subst(D, f, x))
                assert got == brute_subst(members, f.images, elem_set(x))


def test_compiled_subst_takes_one_entry_per_member():
    # s_f is compiled to one position (or None) per member; a bit mask per
    # member took about |D|**2 / 16 bytes, some 17 MB here
    D = full_carrier(14, 2)
    D.seqs  # built before the measured window
    t = transposition(14, 0, 1)
    tracemalloc.start()
    try:
        gather = D._gather_for(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(gather) == D.size and peak <= 1 << 20
    # (0,1,0,...,0) at position 2**12 composes into (1,0,0,...,0) at 2**13
    assert gather[1 << 12] == 1 << 13 and gather[0] == 0
    assert subst(D, t, Elem(D, 1 << (1 << 13))).seqs() == [(0, 1) + (0,) * 12]


@pytest.mark.parametrize("n,u", [(0, 0), (0, 1), (0, 3), (3, 0), (4, 1), (1, 4), (2, 3), (3, 3),
                                 (5, 2), (4, 4), (8, 4), (16, 2)])
def test_gather_on_full_carriers_matches_the_ranking_loop(n, u):
    # the closed form against ranking each member's composite, for the
    # identity, transpositions and random image lists
    rng = random.Random(n * 10 + u)
    D = full_carrier(n, u)
    swaps = [transposition(n, i, j) for i, j in combinations(range(n), 2)]
    perms = [Perm(tuple(range(n)))] + rng.sample(swaps, min(len(swaps), 3)) + _random_perms(n, rng, 2)
    for f in perms:
        gather = D._gather_for(f)
        assert gather == [D.member_index.get(rank(seq_compose(s, f.images), u)) for s in D.seqs], f
        # the entries are the positions' own int objects
        assert all(p is D.member_index[p] for p in gather)


def _through_network(net, bits):
    for d, mask in net.swaps:
        assert (mask << d) >> net.width == 0  # no swap leaves the row
        t = ((bits >> d) ^ bits) & mask
        bits ^= t ^ (t << d)
    return bits if net.defined is None else bits & net.defined


def _network_agrees_with_gather(D, perms, rng, samples=8):
    for f in perms:
        gather = D._gather_for(f)
        for bits in [0, (1 << D.size) - 1] + [rng.getrandbits(D.size) for _ in range(samples)]:
            assert _through_network(D._network_for(f), bits) == _apply_gather(gather, bits, D.size), (D, f, bits)


def _random_perms(n, rng, count):
    return [Perm(tuple(rng.sample(range(n), n))) for _ in range(count)]


@pytest.mark.parametrize("n,u", [(n, u) for n in range(6) for u in range(2, 5) if u**n <= 1024])
def test_network_matches_gather_on_full_carriers(n, u):
    # the closed form: u - 1 digit swaps per transposition, s{...} as the
    # transpositions sorting its image list
    rng = random.Random(n * 10 + u)
    D = full_carrier(n, u)
    swaps = [transposition(n, i, j) for i, j in combinations(range(n), 2)]
    _network_agrees_with_gather(D, [Perm(tuple(range(n)))] + swaps + _random_perms(n, rng, 6), rng)
    assert D._network_for(Perm(tuple(range(n)))).swaps == ()
    for t in swaps:
        assert len(D._network_for(t).swaps) == u - 1 and D._network_for(t).width == D.size


def test_network_matches_gather_on_other_carriers():
    # Benes networks over a power-of-two row, masked where the gather
    # leaves positions empty
    rng = random.Random(7)
    space = {(n, u): list(all_seqs(n, u)) for n in (2, 3, 4) for u in (2, 3, 4) if u**n <= 81}
    carriers = [Carrier(2, 2, []), Carrier(3, 3, []), full_carrier(2, 1),
                carrier_from_seqs(5, 2, [unit_seq(5, i) for i in range(5)])]
    for (n, u), seqs in space.items():
        for k in sorted({1, 2, 3, 5, 6, 7, 12, 17, len(seqs) - 1} & set(range(len(seqs)))):
            carriers.append(carrier_from_seqs(n, u, rng.sample(seqs, k)))
    for D in carriers:
        assert D.size != D.u**D.n or D.size <= 1
        _network_agrees_with_gather(D, list(all_perms(D.n))[:24], rng)
        width = D._network_for(Perm(tuple(range(D.n)))).width
        assert width >= D.size and width & (width - 1) == 0
    assert any(not is_permutable(D) and None in D._gather_for(transposition(D.n, 0, 1)) for D in carriers[4:])


@pytest.mark.parametrize("gather", [[1, 1], [0, 2], [0, None, 0], [None, 2, 3]])
def test_benes_network_routes_only_partial_injections(gather):
    # two entries reading one position, or a position outside the row, has
    # no network; routing it anyway would move bits by some other map
    with pytest.raises(ValueError, match="partial injection"):
        _benes_network(gather, {})


def test_subst_on_atoms_of_a_permutable_carrier_moves_the_point():
    # on a permutable carrier subst f {p} = {p o f^-1}
    D = permutable_closure(carrier_from_seqs(3, 3, [(0, 1, 2)]))
    for f in all_perms(3):
        for s in D.seqs:
            image = subst(D, f, atom(D, s))
            assert elem_set(image) == {compose_right(s, perm_inverse(f))}


def test_subst_functor_law_on_permutable_carriers():
    # S_f o S_g = S_{f o g} whenever the carrier is permutable
    for D in carriers_under_test():
        if not is_permutable(D):
            continue
        for f in all_perms(D.n):
            for g in all_perms(D.n):
                fg = perm_compose(f, g)
                for bits in range(1 << D.size):
                    x = Elem(D, bits)
                    assert subst(D, f, subst(D, g, x)) == subst(D, fg, x)


def test_subst_is_boolean_endomorphism_on_permutable_carriers():
    for D in carriers_under_test():
        if not is_permutable(D):
            continue
        for f in all_perms(D.n):
            assert subst(D, f, zero(D)) == zero(D)
            assert subst(D, f, one(D)) == one(D)
            for bits in range(1 << D.size):
                x = Elem(D, bits)
                assert subst(D, f, complement(x)) == complement(subst(D, f, x))


def test_subst_complement_can_fail_without_permutability():
    D = carrier_from_seqs(2, 3, [(0, 1), (1, 2)])
    assert not is_permutable(D)
    f = Perm((1, 0))
    # (0,1) o f = (1,0) which is outside D, so neither atom survives subst,
    # while complement exchanges the two atoms
    x = atom(D, (0, 1))
    assert is_zero(subst(D, f, x))
    assert subst(D, f, complement(x)) != complement(subst(D, f, x))


def test_subst_meet_join_preserved_on_any_carrier():
    for D in carriers_under_test():
        for f in all_perms(D.n):
            for xb in range(1 << D.size):
                for yb in range(xb, 1 << D.size):
                    x, y = Elem(D, xb), Elem(D, yb)
                    assert subst(D, f, meet(x, y)) == meet(subst(D, f, x), subst(D, f, y))
                    assert subst(D, f, join(x, y)) == join(subst(D, f, x), subst(D, f, y))


@hypothesis.given(
    strat.sets(strat.sampled_from(sorted(all_seqs(3, 2)))),
    strat.permutations(list(range(3))),
    strat.integers(min_value=0),
)
def test_subst_matches_brute_force_random(members, images, seedbits):
    D = carrier_from_seqs(3, 2, members)
    bits = seedbits % (1 << D.size) if D.size else 0
    f = Perm(tuple(images))
    got = elem_set(subst(D, f, Elem(D, bits)))
    assert got == brute_subst(D.seqs, f.images, elem_set(Elem(D, bits)))


# --- generated subalgebras --------------------------------------------------


def test_diagonal_generates_a_four_element_subalgebra():
    D = full_carrier(2, 2)
    diag = elem_from_seqs(D, [(0, 0), (1, 1)])
    got = generate_subalgebra(D, [diag])
    assert {elem_set(e) for e in got} == {
        frozenset(),
        frozenset({(0, 0), (1, 1)}),
        frozenset({(0, 1), (1, 0)}),
        frozenset(all_seqs(2, 2)),
    }


def test_generate_subalgebra_matches_brute_closure():
    cases = [
        (full_carrier(2, 2), [{(0, 1)}]),
        (full_carrier(2, 3), [{(0, 1), (1, 1)}]),
        (full_carrier(3, 2), [{(0, 0, 1)}, {(1, 1, 0), (0, 0, 0)}]),
        (carrier_from_seqs(2, 3, [(0, 1), (1, 2)]), [{(0, 1)}]),
    ]
    for D, gens in cases:
        got = generate_subalgebra(D, [elem_from_seqs(D, g) for g in gens])
        want = brute_closure(D.seqs, D.n, gens)
        assert {elem_set(e) for e in got} == want
        # increasing bit order and no duplicates
        assert [e.bits for e in got] == sorted({e.bits for e in got})


def test_generate_subalgebra_on_empty_carrier():
    D = carrier_from_seqs(2, 2, [])
    got = generate_subalgebra(D, [])
    assert len(got) == 1 and is_zero(got[0])


def test_generate_subalgebra_cap():
    D = full_carrier(2, 3)
    gens = [atom(D, s) for s in D.seqs]
    with pytest.raises(SizeCapExceeded):
        generate_subalgebra(D, gens, max_elems=10)


# --- relativization and base canonicalization --------------------------------


def test_relativize_is_intersection():
    E = full_carrier(3, 2)
    G = carrier_from_seqs(3, 2, [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    for bits in range(0, 1 << E.size, 7):  # a spread of elements
        x = Elem(E, bits)
        assert elem_set(relativize(x, G)) == brute_relativize(elem_set(x), G.seqs)


def test_relativize_requires_a_sub_carrier():
    E = full_carrier(2, 2)
    G = carrier_from_seqs(2, 3, [(0, 1)])
    with pytest.raises(ValueError):
        relativize(one(E), G)
    H = carrier_from_seqs(2, 2, [(0, 1)])
    assert relativize(one(E), H) == one(H)
    with pytest.raises(ValueError):
        relativize(one(H), E)  # E is bigger, not a sub-carrier of H


def test_canonicalize_base_squeezes_used_values():
    D = carrier_from_seqs(2, 5, [(0, 3), (3, 0), (3, 3)])
    out, renaming = canonicalize_base(D)
    assert renaming == {0: 0, 3: 1}
    assert out.u == 2
    assert out.seqs == ((0, 1), (1, 0), (1, 1))
    # positions carry over, so bit vectors mean the same members
    assert [out.seqs[p] for p in range(out.size)] == [
        tuple(renaming[e] for e in s) for s in D.seqs
    ]


def test_canonicalize_base_identity_when_dense():
    D = full_carrier(2, 2)
    out, renaming = canonicalize_base(D)
    assert out == D
    assert renaming == {0: 0, 1: 1}


# --- products ---------------------------------------------------------------


def test_product_operations_are_componentwise():
    P = ProductAlgebra([full_carrier(2, 2), full_carrier(2, 3)])
    a = P.element([atom(P.factors[0], (0, 1)), one(P.factors[1])])
    b = P.element([one(P.factors[0]), atom(P.factors[1], (1, 2))])
    m = P.meet(a, b)
    assert elem_set(m.components[0]) == {(0, 1)}
    assert elem_set(m.components[1]) == {(1, 2)}
    j = P.join(P.zero(), b)
    assert j.components[1] == b.components[1]
    c = P.complement(P.one())
    assert P.is_zero(c)
    f = Perm((1, 0))
    s = P.subst(f, a)
    assert elem_set(s.components[0]) == {(1, 0)}
    assert s.components[1] == one(P.factors[1])


def test_product_validates_components():
    P = ProductAlgebra([full_carrier(2, 2), full_carrier(2, 3)])
    with pytest.raises(ValueError):
        P.element([one(P.factors[0])])
    with pytest.raises(CarrierMismatch):
        P.element([one(P.factors[1]), one(P.factors[1])])
    with pytest.raises(DimensionMismatch):
        ProductAlgebra([full_carrier(2, 2), full_carrier(3, 2)])
    with pytest.raises(ValueError):
        ProductAlgebra([])


def test_product_boolean_laws_spot_checks():
    P = ProductAlgebra([full_carrier(2, 2), carrier_from_seqs(2, 2, [(0, 0), (1, 1)])])
    elems = [
        P.element([Elem(P.factors[0], a), Elem(P.factors[1], b)])
        for a, b in product(range(0, 16, 5), range(4))
    ]
    for x, y in combinations(elems, 2):
        assert P.meet(x, y) == P.meet(y, x)
        assert P.complement(P.complement(x)) == x
        assert P.join(x, P.complement(x)) == P.one()


# --- unit sequences oracle for later layers -----------------------------------


def test_unit_carrier_shape():
    units = carrier_from_seqs(3, 2, [unit_seq(3, i) for i in range(3)])
    assert is_permutable(units)
    assert units.seqs == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    # carrier position p holds the unit with its 1 at coordinate n-1-p
    t = transposition(3, 0, 1)
    moved = subst(units, t, atom(units, (0, 1, 0)))
    assert elem_set(moved) == {(1, 0, 0)}
