import hypothesis
import hypothesis.strategies as strat
import pytest

from tsalg.seqspace import (
    DimensionMismatch,
    NotAPermutation,
    Perm,
    all_perms,
    all_seqs,
    compose_right,
    fmt_seq,
    identity_perm,
    is_constant,
    perm_compose,
    perm_from_images,
    perm_inverse,
    rank,
    transposition,
    unit_seq,
    unrank,
)

from oracles import brute_rank, lex_sequences, seq_compose


# --- permutations --------------------------------------------------------


def test_perm_rejects_non_bijections():
    with pytest.raises(NotAPermutation):
        Perm((0, 0))
    with pytest.raises(NotAPermutation):
        Perm((0, 2))
    with pytest.raises(NotAPermutation):
        perm_from_images([1, 2, 3])


def test_perm_call_and_format():
    f = Perm((1, 2, 0))
    assert [f(i) for i in range(3)] == [1, 2, 0]
    assert f.fmt() == "{1,2,0}"
    assert f.n == 3


def test_identity_and_transposition():
    assert identity_perm(3).images == (0, 1, 2)
    assert transposition(3, 0, 2).images == (2, 1, 0)
    assert transposition(4, 2, 1).images == (0, 2, 1, 3)
    with pytest.raises(ValueError):
        transposition(3, 1, 1)
    with pytest.raises(ValueError):
        transposition(3, 0, 3)


def test_compose_is_left_after_right():
    f = Perm((1, 2, 0))
    g = Perm((0, 2, 1))
    fg = perm_compose(f, g)
    assert all(fg(i) == f(g(i)) for i in range(3))
    # frozen example: the 3-cycle squared
    assert perm_compose(f, f).images == (2, 0, 1)
    with pytest.raises(DimensionMismatch):
        perm_compose(f, Perm((1, 0)))


def test_inverse():
    f = Perm((1, 2, 0))
    assert perm_compose(f, perm_inverse(f)).images == (0, 1, 2)
    assert perm_compose(perm_inverse(f), f).images == (0, 1, 2)


def test_all_perms_counts_and_uniqueness():
    for n, count in [(0, 1), (1, 1), (2, 2), (3, 6), (4, 24)]:
        ps = list(all_perms(n))
        assert len(ps) == count
        assert len(set(ps)) == count


@hypothesis.given(strat.permutations(list(range(4))), strat.permutations(list(range(4))))
def test_compose_associates_with_inverse(a, b):
    f, g = Perm(tuple(a)), Perm(tuple(b))
    assert perm_inverse(perm_compose(f, g)) == perm_compose(perm_inverse(g), perm_inverse(f))


# --- ranking -------------------------------------------------------------


def test_rank_frozen_examples():
    assert rank((0, 1), 2) == 1
    assert rank((1, 0), 2) == 2
    assert rank((1, 1), 2) == 3
    assert unrank(3, 2, 3) == (1, 0)


def test_rank_is_lexicographic_position():
    for n in range(5):
        for u in range(5):
            space = lex_sequences(n, u)
            for idx, s in enumerate(space):
                assert rank(s, u) == idx == brute_rank(s, u)
                assert unrank(idx, n, u) == s


def test_all_seqs_matches_rank_order():
    for n in range(4):
        for u in range(4):
            seqs = list(all_seqs(n, u))
            assert seqs == lex_sequences(n, u)
            assert [rank(s, u) for s in seqs] == list(range(len(seqs)))


def test_rank_rejects_out_of_range_entries():
    with pytest.raises(ValueError):
        rank((0, 2), 2)
    with pytest.raises(ValueError):
        rank((-1, 0), 2)
    with pytest.raises(ValueError):
        unrank(4, 2, 2)


# --- the coordinate action -----------------------------------------------


def test_compose_right_examples():
    # s after f reads coordinates through f: (s o f)(i) = s(f(i))
    s = (5, 6, 7)
    f = Perm((1, 2, 0))
    assert compose_right(s, f) == (6, 7, 5)
    assert compose_right(s, f) == seq_compose(s, f.images)


def test_unit_seqs_cycle_under_the_n_cycles():
    # e_{i+1} composed with the forward cycle is e_i (indices mod n)
    for n in (2, 3, 4, 5):
        fwd = Perm(tuple((i + 1) % n for i in range(n)))
        back = perm_inverse(fwd)
        for i in range(n):
            assert compose_right(unit_seq(n, (i + 1) % n), fwd) == unit_seq(n, i)
            assert compose_right(unit_seq(n, i), back) == unit_seq(n, (i + 1) % n)


def test_action_respects_composition_exhaustively():
    # (s o f) o g == s o (f o g) over all of ^3 2 and all pairs
    for s in all_seqs(3, 2):
        for f in all_perms(3):
            for g in all_perms(3):
                assert compose_right(compose_right(s, f), g) == compose_right(s, perm_compose(f, g))


@hypothesis.given(
    strat.lists(strat.integers(min_value=0, max_value=9), min_size=4, max_size=4),
    strat.permutations(list(range(4))),
    strat.permutations(list(range(4))),
)
def test_action_respects_composition(entries, a, b):
    s = tuple(entries)
    f, g = Perm(tuple(a)), Perm(tuple(b))
    assert compose_right(compose_right(s, f), g) == compose_right(s, perm_compose(f, g))


@hypothesis.given(strat.lists(strat.integers(min_value=0, max_value=9), min_size=3, max_size=3))
def test_identity_acts_trivially(entries):
    s = tuple(entries)
    assert compose_right(s, identity_perm(3)) == s


def test_transposition_action_is_an_involution():
    t = transposition(3, 0, 2)
    for s in all_seqs(3, 3):
        assert compose_right(compose_right(s, t), t) == s


def test_constants_are_fixed_by_every_perm():
    for n in (1, 2, 3, 4):
        c = tuple([7] * n)
        assert is_constant(c)
        for f in all_perms(n):
            assert compose_right(c, f) == c
    assert not is_constant((0, 1))
    assert is_constant(())


def test_compose_right_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compose_right((0, 1), Perm((1, 2, 0)))


def test_fmt_seq():
    assert fmt_seq((1, 0, 2)) == "(1,0,2)"
    assert fmt_seq(()) == "()"


def test_unit_seq():
    assert unit_seq(3, 1) == (0, 1, 0)
    with pytest.raises(ValueError):
        unit_seq(3, 3)
