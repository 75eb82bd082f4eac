import sys
from unittest import mock

import hypothesis
import hypothesis.strategies as strat
import pytest

from tsalg.algebra import (CarrierMismatch, Elem, atom, carrier_from_seqs, complement, elem_from_seqs,
                          full_carrier, one, zero)
from tsalg.seqspace import DimensionMismatch, Perm
from tsalg import termlang
from tsalg.termlang import (
    DEFAULT_ASSIGNMENT_BUDGET,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    And,
    Auto,
    BudgetExceeded,
    Equation,
    EvalError,
    Exhaustive,
    Images,
    MAX_NESTING,
    Not,
    One,
    Or,
    QuasiEquation,
    Random,
    Subst,
    TermSyntaxError,
    Transposition,
    Var,
    Zero,
    check_equation,
    check_quasi,
    equation_violated,
    eval_term,
    parse_equation,
    parse_quasi,
    parse_term,
    print_equation,
    print_quasi,
    print_term,
    quasi_violated,
    resolve_mode,
    sigma,
    spec_perm,
)

from oracles import chain, elem_set


# --- parsing ---------------------------------------------------------------


def test_parse_precedence_and_associativity():
    assert parse_term("x | y & z") == Or((Var("x"), And((Var("y"), Var("z")))))
    assert parse_term("x & y | z") == Or((And((Var("x"), Var("y"))), Var("z")))
    assert parse_term("x & y & z") == And((Var("x"), Var("y"), Var("z")))
    assert parse_term("x | y | z") == Or((Var("x"), Var("y"), Var("z")))


def test_parse_chain_is_one_node_as_left_association_gives():
    # a parenthesized chain first in a chain of its own kind is spliced in;
    # anywhere else it stays a node of its own
    x, y, z = Var("x"), Var("y"), Var("z")
    assert parse_term("(x & y) & z") == parse_term("((x & y)) & z") == And((x, y, z))
    assert parse_term("(x | y) | z") == Or((x, y, z))
    assert parse_term("x & (y & z)") == And((x, And((y, z))))
    assert parse_term("(x | y) & z") == And((Or((x, y)), z))
    assert parse_term("(x & y) | z") == Or((And((x, y)), z))
    assert parse_term("~(x & y) & z") == And((Not(And((x, y))), z))


def test_parse_unary_binds_tightest():
    assert parse_term("~x & y") == And((Not(Var("x")), Var("y")))
    assert parse_term("s[0,1] x | y") == Or((Subst(Transposition(0, 1), Var("x")), Var("y")))
    assert parse_term("~s[0,1] ~x") == Not(Subst(Transposition(0, 1), Not(Var("x"))))
    assert parse_term("s{1,0} (x | y)") == Subst(Images((1, 0)), Or((Var("x"), Var("y"))))


def test_parse_constants_parens_idents():
    assert parse_term("0") == Zero()
    assert parse_term("1") == One()
    assert parse_term("(x)") == Var("x")
    assert parse_term("_a1") == Var("_a1")
    # 's' alone is an ordinary variable; only s[ / s{ start an operator
    assert parse_term("s") == Var("s")
    assert parse_term("s & x") == And((Var("s"), Var("x")))


def test_parse_whitespace_insensitive():
    a = parse_term(" s[ 0 , 1 ]   ( x &~ y ) ")
    b = parse_term("s[0,1](x&~y)")
    assert a == b


def test_parse_equation_and_quasi():
    eq = parse_equation("s[0,1] x = x & 1")
    assert eq == Equation(Subst(Transposition(0, 1), Var("x")), And((Var("x"), One())))
    qe = parse_quasi("x = 0, y = 1 => x & y = 0")
    assert qe.hypotheses == (
        Equation(Var("x"), Zero()),
        Equation(Var("y"), One()),
    )
    assert qe.conclusion == Equation(And((Var("x"), Var("y"))), Zero())


def test_parse_errors_carry_positions():
    with pytest.raises(TermSyntaxError) as err:
        parse_term("x & ")
    assert err.value.position == 4
    with pytest.raises(TermSyntaxError):
        parse_term("x y")  # trailing input
    with pytest.raises(TermSyntaxError):
        parse_equation("x = ")
    with pytest.raises(TermSyntaxError):
        parse_equation("x == y")
    with pytest.raises(TermSyntaxError):
        parse_quasi("x = y")  # no '=>'
    with pytest.raises(TermSyntaxError):
        parse_term("")
    # an equation's '=' is missing at the end, or '=>' stands in its place
    for text, at in (("x", 1), ("x => y", 2)):
        with pytest.raises(TermSyntaxError, match="expected '='") as err:
            parse_equation(text)
        assert err.value.position == at


def test_parse_rejects_bad_operator_specs():
    with pytest.raises(TermSyntaxError) as err:
        parse_term("s[1,1] x")
    assert err.value.position == 0
    with pytest.raises(TermSyntaxError):
        parse_term("s{0,0} x")
    with pytest.raises(TermSyntaxError):
        parse_term("s{0,2} x")
    with pytest.raises(TermSyntaxError):
        parse_term("s[0] x")
    # the empty image list is the permutation of dimension 0, as print_term writes it
    assert parse_term("s{} x") == Subst(Images(()), Var("x"))
    # a numeral is ASCII digits, as in .alg files: a digit that is not
    # decimal (superscript two) or of another script is refused at its
    # offset, as is one past Python's int digit limit
    for text, at in (("s[0,\u00b2] x", 4), ("s[0,\u0663] x", 4), ("s{\u0661,\u0660} x", 2)):
        with pytest.raises(TermSyntaxError, match="expected a natural number") as err:
            parse_term(text)
        assert err.value.position == at
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        digits = "9" * (limit + 1)
        for text, at in ((f"s[0,{digits}] x", 4), (f"s{{{digits}}} x", 2)):
            with pytest.raises(TermSyntaxError, match=rf"natural number too long \({limit + 1} digits\)") as err:
                parse_term(text)
            assert err.value.position == at


def test_equation_eq_not_confused_with_implication_arrow():
    # '=>' must not be eaten as '=' during equation parsing
    qe = parse_quasi("x = y => x = y")
    assert qe == QuasiEquation((Equation(Var("x"), Var("y")),), Equation(Var("x"), Var("y")))


def test_ast_validates_specs_directly():
    with pytest.raises(ValueError):
        Transposition(2, 2)
    with pytest.raises(ValueError):
        Transposition(-1, 0)
    with pytest.raises(Exception):
        Images((0, 0))


# --- printing ---------------------------------------------------------------


def test_print_frozen_examples():
    assert print_term(parse_term("x|y&~z")) == "x | y & ~z"
    assert print_term(parse_term("(x|y)&z")) == "(x | y) & z"
    assert print_term(parse_term("s[0,1](x|y)")) == "s[0,1] (x | y)"
    assert print_term(parse_term("~(x&y)")) == "~(x & y)"
    assert print_term(parse_term("x&(y&z)")) == "x & (y & z)"
    assert print_term(parse_term("(x&y)&z")) == "x & y & z"
    assert print_term(parse_term("x|(y|z)")) == "x | (y | z)"


def test_print_sigma():
    qe = sigma(3, Perm((1, 2, 0)), Perm((2, 0, 1)))
    assert print_quasi(qe) == "s{1,2,0} x | s{2,0,1} x = ~x => 0 = 1"
    # at dimension 0 the image lists are empty, and the text still reads back
    qe = sigma(0, Perm(()), Perm(()))
    assert print_quasi(qe) == "s{} x | s{} x = ~x => 0 = 1"
    assert parse_quasi(print_quasi(qe)) == qe


def test_print_equation_and_hypothesis_free_quasi():
    assert print_equation(parse_equation("x=~x")) == "x = ~x"
    assert print_quasi(QuasiEquation((), parse_equation("x=x"))) == "x = x"


def terms(max_depth=5):
    base = strat.one_of(
        strat.sampled_from([Zero(), One(), Var("x"), Var("y"), Var("z")]),
    )
    specs = strat.sampled_from(
        [Transposition(0, 1), Transposition(1, 2), Images((1, 0, 2)), Images((2, 0, 1))]
    )

    def extend(children):
        return strat.one_of(
            strat.lists(children, min_size=2, max_size=4).map(lambda p: chain(And, p)),
            strat.lists(children, min_size=2, max_size=4).map(lambda p: chain(Or, p)),
            children.map(Not),
            strat.tuples(specs, children).map(lambda p: Subst(*p)),
        )

    return strat.recursive(base, extend, max_leaves=2 ** max_depth)


@hypothesis.given(terms())
def test_print_parse_round_trip(t):
    assert parse_term(print_term(t)) == t


@hypothesis.given(terms(), terms())
def test_equation_round_trip(lhs, rhs):
    eq = Equation(lhs, rhs)
    assert parse_equation(print_equation(eq)) == eq


# --- long chains and deep nesting -------------------------------------------


def test_term_at_the_nesting_limit_parses_and_checks_in_400_frames():
    # parsing takes three frames per '(' level (unary, the '|' chain and the
    # '&' chain), so the caller keeps most of Python's default limit of 1000;
    # a sampled check takes the leaf step too, which reads the ops two
    # frames per level
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    text = "x | x & (" * MAX_NESTING + "x" + ")" * MAX_NESTING
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 400)
    try:
        eq = parse_equation(f"{text} = x")
        verdict = check_equation(full_carrier(2, 2), eq)
        with mock.patch.object(termlang, "_leaf_identity", wraps=termlang._leaf_identity) as leaf:
            sampled = check_equation(full_carrier(2, 2), eq, Random(10, 1))
    finally:
        sys.setrecursionlimit(old)
    assert (verdict.outcome, sampled.outcome, leaf.call_count) == ("holds-exhaustive", "holds-sampled", 1)


#: name -> (a term equal to x, in canonical form, and its compiled op count)
LONG_TERMS = {
    # 500 operands raised RecursionError on ==, repr and hash when a chain
    # was a left-deep tree of binary nodes
    "meet-500": (" & ".join(["x"] * 500), 500),
    "join-30000": (" | ".join(["x"] * 30_000), 30_000),
    # the tallest term MAX_NESTING levels allow: two chain nodes on each of
    # its MAX_NESTING + 1 levels
    "paren": ("x | x & (" * MAX_NESTING + "x | x & x" + ")" * MAX_NESTING, 3 + 2 * MAX_NESTING),
    # three operators per two levels, '~' and s[0,1] in turn
    "unary": ("".join("x | x & " + ("~(" if k % 2 else "s[0,1] (") for k in range(MAX_NESTING // 2))
              + "x | x & x" + ")" * (MAX_NESTING // 2), 3 + 3 * (MAX_NESTING // 2)),
}


@pytest.mark.parametrize("name", LONG_TERMS)
def test_long_and_deep_terms_are_walked(name):
    # every walk of a term under pytest's own frames: the dataclass ==, repr
    # and hash, the printer, the compile walk and eval_term; and the leaf
    # step's walk of the ops (a chain's left spine in a loop), which decides
    # the law, sampled and past one chunk (2**32 assignments)
    text, nops = LONG_TERMS[name]
    t, again = parse_term(text), parse_term(text)
    assert t == again and t is not again
    assert hash(t) == hash(again) and repr(t) == repr(again)
    assert print_term(t) == text and parse_term(print_term(t)) == t
    names, ops, equations, unfit = termlang._compile(QuasiEquation((), Equation(t, Var("x"))), 2)
    assert (names, len(ops), equations, unfit) == (["x"], nops, [(nops - 1, 0)], None)
    D = full_carrier(2, 2)
    x = elem_from_seqs(D, [(0, 1), (1, 1)])
    assert eval_term(t, D, {"x": x}) == x
    assert termlang._leaf_identity(D, ops, equations)
    assert check_equation(D, Equation(t, Var("x"))).outcome == "holds-exhaustive"
    with mock.patch.object(termlang, "_leaf_identity", wraps=termlang._leaf_identity) as leaf:
        assert check_equation(D, Equation(t, Var("x")), Random(10, 1)).outcome == "holds-sampled"
    assert leaf.call_count == 1
    assert check_equation(full_carrier(5, 2), Equation(t, Var("x")), Exhaustive(1 << 40)).outcome == \
        "holds-exhaustive"


# --- evaluation ---------------------------------------------------------------


def test_eval_examples():
    D = full_carrier(2, 2)
    x = atom(D, (0, 1))
    env = {"x": x}
    assert eval_term(parse_term("~x"), D, env) == complement(x)
    assert elem_set(eval_term(parse_term("s[0,1] x"), D, env)) == {(1, 0)}
    assert eval_term(parse_term("x & ~x"), D, env) == zero(D)
    assert eval_term(parse_term("x | ~x"), D, env) == one(D)
    assert eval_term(parse_term("0"), D, {}) == zero(D)
    assert eval_term(parse_term("s{1,0} x"), D, env) == eval_term(parse_term("s[0,1] x"), D, env)


def test_eval_error_cases():
    D = full_carrier(2, 2)
    with pytest.raises(EvalError):
        eval_term(parse_term("x"), D, {})
    with pytest.raises(DimensionMismatch):
        eval_term(parse_term("s[0,5] x"), D, {"x": one(D)})
    with pytest.raises(DimensionMismatch):
        eval_term(parse_term("s{0,2,1} x"), D, {"x": one(D)})
    with pytest.raises(CarrierMismatch):
        eval_term(parse_term("x"), D, {"x": one(full_carrier(2, 3))})
    # what is not a term is refused by the printer, the evaluator and the
    # compile walk
    for refuse in (print_term, lambda t: eval_term(t, D, {}),
                   lambda t: check_quasi(D, QuasiEquation((), Equation(t, Zero())))):
        with pytest.raises(TypeError, match="not a term node"):
            refuse("x")


def test_spec_perm():
    assert spec_perm(Transposition(0, 2), 3) == Perm((2, 1, 0))
    assert spec_perm(Images((1, 0)), 2) == Perm((1, 0))
    with pytest.raises(DimensionMismatch):
        spec_perm(Images((1, 0)), 3)


def test_violation_predicates():
    D = full_carrier(2, 2)
    eq = parse_equation("s[0,1] x = x")
    assert not equation_violated(D, eq, {"x": elem_from_seqs(D, [(0, 0), (1, 1)])})
    assert equation_violated(D, eq, {"x": atom(D, (0, 1))})
    qe = parse_quasi("x = 0 => 0 = 1")
    assert not quasi_violated(D, qe, {"x": one(D)})  # hypothesis unmet
    assert quasi_violated(D, qe, {"x": zero(D)})


# --- checking -------------------------------------------------------------------


def test_check_equation_holds_exhaustive():
    D = full_carrier(2, 2)
    v = check_equation(D, parse_equation("s[0,1] s[0,1] x = x"))
    assert v.outcome == "holds-exhaustive"
    assert v.holds
    assert v.assignments_tested == 16
    assert v.witness is None and v.trials is None and v.seed is None


def test_check_equation_fails_with_least_witness():
    D = full_carrier(2, 2)
    v = check_equation(D, parse_equation("s[0,1] x = x"))
    assert v.outcome == "fails" and not v.holds
    # assignments scan bit vectors upward; {(0,1)} (bit 1) is the least violator
    assert elem_set(v.witness["x"]) == {(0, 1)}
    assert v.assignments_tested == 3
    assert equation_violated(D, parse_equation("s[0,1] x = x"), v.witness)


def test_check_two_variable_order_is_sorted_names():
    D = carrier_from_seqs(2, 2, [(0, 1)])
    # least violator of x = y has x = {}, y = {(0,1)}: x cycles slowest
    v = check_equation(D, parse_equation("x = y"))
    assert v.outcome == "fails"
    assert v.witness["x"].bits == 0 and v.witness["y"].bits == 1
    assert v.assignments_tested == 2


def test_check_quasi_vacuous_and_failing():
    D = full_carrier(2, 2)
    ok = check_quasi(D, parse_quasi("x = ~x => 0 = 1"))
    assert ok.outcome == "holds-exhaustive"  # no set equals its complement
    bad = check_quasi(D, parse_quasi("x & y = y => x & y = x"))
    assert bad.outcome == "fails"
    assert quasi_violated(D, parse_quasi("x & y = y => x & y = x"), bad.witness)


def test_check_on_empty_carrier():
    D = carrier_from_seqs(2, 2, [])
    # one-element algebra: everything collapses, 0 = 1 holds
    v = check_equation(D, parse_equation("0 = 1"))
    assert v.outcome == "holds-exhaustive"
    assert v.assignments_tested == 1
    v2 = check_quasi(D, sigma(2, Perm((1, 0)), Perm((1, 0))))
    assert v2.holds


def test_exhaustive_budget_enforced():
    D = full_carrier(2, 2)
    with pytest.raises(BudgetExceeded):
        check_equation(D, parse_equation("x & y = y & z"), Exhaustive(budget=100))
    # budget measures assignments, not variables: 16 fits exactly
    v = check_equation(D, parse_equation("x = x"), Exhaustive(budget=16))
    assert v.assignments_tested == 16


def test_resolve_mode_contract():
    # Auto enumerates within its budget and otherwise samples with its seed
    assert resolve_mode(16, Auto(16, 5)) == Exhaustive(16)
    assert resolve_mode(17, Auto(16, 5)) == Random(DEFAULT_TRIALS, 5)
    assert resolve_mode(DEFAULT_ASSIGNMENT_BUDGET, Auto()) == Exhaustive()
    assert resolve_mode(DEFAULT_ASSIGNMENT_BUDGET + 1, Auto()) == Random(DEFAULT_TRIALS, DEFAULT_SEED)
    assert Auto(16).label == "auto(budget=16)"
    # Exhaustive keeps its own budget, DEFAULT_ASSIGNMENT_BUDGET unless given
    assert resolve_mode(16, Exhaustive(16)) == Exhaustive(16)
    with pytest.raises(BudgetExceeded) as over:
        resolve_mode(17, Exhaustive(16))
    assert (over.value.work, over.value.budget) == (17, 16)
    with pytest.raises(BudgetExceeded):
        resolve_mode(DEFAULT_ASSIGNMENT_BUDGET + 1, Exhaustive())
    # Random passes through at any work
    assert resolve_mode(1 << 1000, Random(3, 9)) == Random(3, 9)
    for bad in (None, "auto", 16, Exhaustive):
        with pytest.raises(TypeError):
            resolve_mode(1, bad)
    # a verdict names the mode that decided it
    D = full_carrier(2, 2)
    assert check_equation(D, parse_equation("x = x"), Auto(16)).mode == "exhaustive"
    v = check_equation(D, parse_equation("x = x"), Auto(15, 5))
    assert (v.mode, v.seed) == (f"random({DEFAULT_TRIALS})", 5)


def test_random_mode_is_deterministic_per_seed():
    D = full_carrier(3, 2)
    eq = parse_equation("s[0,1] x = x")
    a = check_equation(D, eq, Random(trials=50, seed=7))
    b = check_equation(D, eq, Random(trials=50, seed=7))
    assert a == b
    assert a.outcome == "fails"
    assert a.seed == 7 and a.trials == 50
    c = check_equation(D, eq, Random(trials=50, seed=8))
    assert c.outcome == "fails"  # may find a different witness, but some witness


def test_random_mode_reports_sampled_holds():
    D = full_carrier(2, 2)
    v = check_equation(D, parse_equation("x = x"), Random(trials=20, seed=3))
    assert v.outcome == "holds-sampled"
    assert v.trials == 20 and v.seed == 3 and v.assignments_tested == 20


def test_random_mode_on_empty_carrier():
    D = carrier_from_seqs(2, 2, [])
    v = check_equation(D, parse_equation("x = x"), Random(trials=5, seed=1))
    assert v.outcome == "holds-sampled"


# --- sigma ------------------------------------------------------------------


def test_sigma_shape_and_dimension_check():
    f = Perm((1, 2, 0))
    qe = sigma(3, f, f)
    assert len(qe.hypotheses) == 1
    assert qe.conclusion == Equation(Zero(), One())
    with pytest.raises(DimensionMismatch):
        sigma(2, f, f)


def test_sigma_witnessed_failure_on_units():
    units = carrier_from_seqs(3, 2, [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    f, g = Perm((1, 2, 0)), Perm((2, 0, 1))
    v = check_quasi(units, sigma(3, f, g), Exhaustive())
    assert v.outcome == "fails"
    # the named odd-units witness is also a violator, just not the least one
    named = elem_from_seqs(units, [(0, 1, 0)])
    assert quasi_violated(units, sigma(3, f, g), {"x": named})
    assert elem_set(v.witness["x"]) == {(0, 0, 1)}


@hypothesis.given(strat.integers(min_value=0, max_value=255))
def test_sigma_never_violated_on_a_full_carrier(bits):
    D = full_carrier(3, 2)
    f, g = Perm((1, 2, 0)), Perm((2, 0, 1))
    assert not quasi_violated(D, sigma(3, f, g), {"x": Elem(D, bits)})
