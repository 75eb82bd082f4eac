"""Term language over {0, 1, &, |, ~, s} with parser, printer, evaluator,
and equation / quasi-equation checkers.

Grammar (whitespace-insensitive)::

    term  := or ;  or := and ('|' and)* ;  and := unary ('&' unary)* ;
    unary := '~' unary
           | 's[' nat ',' nat ']' unary
           | 's{' nat (',' nat)* '}' unary
           | atom ;
    atom  := '0' | '1' | ident | '(' term ')' ;
    eq    := term '=' term ;
    quasi := eq (',' eq)* '=>' eq .

's[i,j]' applies the substitution operator of the transposition swapping
coordinates i and j; 's{a0,a1,...}' that of the permutation with the given
image list.  Precedence: '~' and 's' bind tightest, then '&', then '|';
'&' and '|' associate to the left.  print_term emits a canonical form that
parses back to a structurally identical tree.

Checkers enumerate assignments with variables in sorted name order, each
variable running through bit vectors in increasing numeric value, so the
first (least) violating assignment is deterministic.  Random mode draws
each variable's bit vector as independent fair coin bits from a seeded
generator, rng.getrandbits(|D|) per variable per trial in sorted name
order (_draws), and always reports the seed it used.

Every check evaluates a chunk of assignments at once rather than one at
a time, in one of two layouts, and the mode alone picks it.  Exhaustive
mode takes 2**16 assignments of the canonical order by columns: each
carrier position holds one int whose bit a says whether that position is
in the value under assignment a of the chunk, '~', '&' and '|' act on
whole columns, and s_f gathers columns through a table.  Random mode
goes by packed rows: each variable's bit vectors, one per trial, sit side
by side in one int at a fixed stride, so '~', '&' and '|' act on every
row of the chunk at once and s_f is a network of delta swaps with its
masks repeated once per row; a carrier of 4096 members or
more gives each row its own chunk.  Either way the assignments that meet
every hypothesis and break the conclusion form one set of flag bits; its
lowest is the least (or first sampled) violation, so verdicts, witnesses
and counts are those of the one-at-a-time scan.

An exhaustive check without hypotheses that needs more than one chunk is
decided member by member instead (pointwise.least_violation): an op's
value at a member reads its operands at one member, so a law's sides at
member p are Boolean functions of the few (variable, member) bits p
reaches, and their truth tables give the least violating assignment.
assignments_tested still counts the canonical order: all of it when the
check holds, the least witness's index + 1 when it fails.

A _Program is built once per check in its layout, with each s_f as a
gather table or an algebra.Network.  _first_violation is check_quasi's
scan of one conclusion under its hypotheses.  It re-checks each witness
through an element-wise test (_rechecked): eval_term and quasi_violated
walk the tree for a single assignment.  The verifiers in theorems share
that re-check and the sample stream (_draws), but decide their laws from
their tables and compile no program.
"""

from __future__ import annotations

import functools
import operator
import random as _random
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Callable, Iterator, Mapping

from .algebra import (
    Carrier,
    CarrierMismatch,
    Elem,
    _repeat_row,
    complement,
    join,
    meet,
    one,
    subst,
    zero,
)
from .pointwise import counters, least_violation
from .seqspace import DimensionMismatch, NotAPermutation, Perm, transposition

#: Documented default seed for every sampled check in the package.
DEFAULT_SEED = 1729

#: Default ceiling on (2 ** |D|) ** v, the number of assignments an
#: exhaustive check is allowed to enumerate.
DEFAULT_ASSIGNMENT_BUDGET = 1 << 20

#: Default sample size when a check degrades from exhaustive to random.
DEFAULT_TRIALS = 2000


def fmt_count(k: int) -> str:
    """k in decimal, or as a power-of-two lower bound when too wide to read
    (str() refuses integers past 4300 digits)."""
    return str(k) if k.bit_length() <= 256 else f"at least 2^{k.bit_length() - 1}"


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would overrun its configured budget."""

    def __init__(self, work: int, budget: int):
        super().__init__(f"exhaustive check needs {fmt_count(work)} evaluations, budget is {budget}")
        self.work = work
        self.budget = budget


class EvalError(ValueError):
    """A term cannot be evaluated under the given assignment."""


class TermSyntaxError(ValueError):
    """Input text is not a well-formed term, equation or quasi-equation."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# --- abstract syntax ---------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Not:
    arg: "Term"


@dataclass(frozen=True)
class And:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Or:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Transposition:
    """Operator spec: swap coordinates i and j."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i < 0 or self.j < 0:
            raise ValueError("transposition coordinates must be naturals")
        if self.i == self.j:
            raise ValueError(f"transposition needs two distinct coordinates, got {self.i} twice")


@dataclass(frozen=True)
class Images:
    """Operator spec: the permutation with this image list."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        Perm(self.images)  # validates bijection


PermSpec = Transposition | Images


@dataclass(frozen=True)
class Subst:
    perm: PermSpec
    arg: "Term"


Term = Var | Zero | One | Not | And | Or | Subst


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class QuasiEquation:
    hypotheses: tuple[Equation, ...]
    conclusion: Equation


def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, (Zero, One)):
        return set()
    if isinstance(t, (Not, Subst)):
        return term_vars(t.arg)
    if isinstance(t, (And, Or)):
        return term_vars(t.left) | term_vars(t.right)
    raise TypeError(f"not a term node: {t!r}")


def equation_vars(eq: Equation) -> set[str]:
    return term_vars(eq.lhs) | term_vars(eq.rhs)


def quasi_vars(qe: QuasiEquation) -> set[str]:
    out: set[str] = set()
    for h in qe.hypotheses:
        out |= equation_vars(h)
    return out | equation_vars(qe.conclusion)


# --- parser ------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> TermSyntaxError:
        return TermSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        t = self.text
        while self.pos < len(t) and t[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, lit: str) -> bool:
        self.skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect(self, lit: str) -> None:
        if not self.take(lit):
            raise self.error(f"expected {lit!r}")

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a natural number")
        return int(self.text[start : self.pos])

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        t = self.text
        if self.pos < len(t) and (t[self.pos].isalpha() or t[self.pos] == "_"):
            self.pos += 1
            while self.pos < len(t) and (t[self.pos].isalnum() or t[self.pos] == "_"):
                self.pos += 1
        if self.pos == start:
            raise self.error("expected an identifier")
        return t[start : self.pos]

    def nat_list(self, close: str) -> tuple[int, ...]:
        out = [self.nat()]
        while self.take(","):
            out.append(self.nat())
        self.expect(close)
        return tuple(out)

    # grammar rules

    def term(self) -> Term:
        return self.or_()

    def or_(self) -> Term:
        node = self.and_()
        while self.peek() == "|":
            self.expect("|")
            node = Or(node, self.and_())
        return node

    def and_(self) -> Term:
        node = self.unary()
        while self.peek() == "&":
            self.expect("&")
            node = And(node, self.unary())
        return node

    def unary(self) -> Term:
        if self.take("~"):
            return Not(self.unary())
        self.skip_ws()
        here = self.pos
        c = self.peek()
        if c.isalpha() or c == "_":
            name = self.ident()
            if name == "s" and self.peek() in ("[", "{"):
                if self.take("["):
                    i = self.nat()
                    self.expect(",")
                    j = self.nat()
                    self.expect("]")
                    if i == j:
                        self.pos = here
                        raise self.error(f"s[{i},{j}] does not name a transposition")
                    return Subst(Transposition(i, j), self.unary())
                self.expect("{")
                images = self.nat_list("}")
                try:
                    spec = Images(images)
                except NotAPermutation as exc:
                    self.pos = here
                    raise self.error(str(exc)) from None
                return Subst(spec, self.unary())
            return Var(name)
        return self.atom()

    def atom(self) -> Term:
        if self.take("0"):
            return Zero()
        if self.take("1"):
            return One()
        if self.take("("):
            node = self.term()
            self.expect(")")
            return node
        c = self.peek()
        if c.isalpha() or c == "_":
            return Var(self.ident())
        raise self.error("expected '0', '1', a variable, or '('")

    def equation(self) -> Equation:
        lhs = self.term()
        self.skip_ws()
        if not (self.text.startswith("=", self.pos) and not self.text.startswith("=>", self.pos)):
            raise self.error("expected '='")
        self.pos += 1
        return Equation(lhs, self.term())

    def quasi(self) -> QuasiEquation:
        eqs = [self.equation()]
        while self.take(","):
            eqs.append(self.equation())
        if not self.take("=>"):
            raise self.error("expected '=>'")
        return QuasiEquation(tuple(eqs), self.equation())

    def finish(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")


def parse_term(text: str) -> Term:
    p = _Parser(text)
    node = p.term()
    p.finish()
    return node


def parse_equation(text: str) -> Equation:
    p = _Parser(text)
    eq = p.equation()
    p.finish()
    return eq


def parse_quasi(text: str) -> QuasiEquation:
    p = _Parser(text)
    qe = p.quasi()
    p.finish()
    return qe


# --- printer -----------------------------------------------------------


def _spec_str(spec: PermSpec) -> str:
    if isinstance(spec, Transposition):
        return f"s[{spec.i},{spec.j}]"
    return "s{" + ",".join(map(str, spec.images)) + "}"


def _unary_operand(t: Term) -> str:
    # '~' and 's' bind tighter than '&' and '|'
    s = print_term(t)
    return f"({s})" if isinstance(t, (And, Or)) else s


def print_term(t: Term) -> str:
    """Canonical text form; parse_term(print_term(t)) == t."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, One):
        return "1"
    if isinstance(t, Not):
        return "~" + _unary_operand(t.arg)
    if isinstance(t, Subst):
        return _spec_str(t.perm) + " " + _unary_operand(t.arg)
    if isinstance(t, And):
        left = print_term(t.left)
        if isinstance(t.left, Or):
            left = f"({left})"
        right = print_term(t.right)
        if isinstance(t.right, (And, Or)):
            right = f"({right})"
        return f"{left} & {right}"
    if isinstance(t, Or):
        left = print_term(t.left)
        right = print_term(t.right)
        if isinstance(t.right, Or):
            right = f"({right})"
        return f"{left} | {right}"
    raise TypeError(f"not a term node: {t!r}")


def print_equation(eq: Equation) -> str:
    return f"{print_term(eq.lhs)} = {print_term(eq.rhs)}"


def print_quasi(qe: QuasiEquation) -> str:
    conclusion = print_equation(qe.conclusion)
    if not qe.hypotheses:
        return conclusion
    return ", ".join(print_equation(h) for h in qe.hypotheses) + " => " + conclusion


# --- evaluation --------------------------------------------------------


def spec_perm(spec: PermSpec, n: int) -> Perm:
    """Resolve an operator spec against a concrete dimension."""
    if isinstance(spec, Transposition):
        if spec.i >= n or spec.j >= n:
            raise DimensionMismatch(f"s[{spec.i},{spec.j}] does not fit dimension {n}")
        return transposition(n, spec.i, spec.j)
    if len(spec.images) != n:
        raise DimensionMismatch(
            f"image list of length {len(spec.images)} does not fit dimension {n}"
        )
    return Perm(spec.images)


def eval_term(t: Term, D: Carrier, assignment: Mapping[str, Elem]) -> Elem:
    if isinstance(t, Var):
        try:
            x = assignment[t.name]
        except KeyError:
            raise EvalError(f"unassigned variable {t.name!r}") from None
        if x.carrier is not D and x.carrier != D:
            raise CarrierMismatch(f"assignment for {t.name!r} lives on a different carrier")
        return x
    if isinstance(t, Zero):
        return zero(D)
    if isinstance(t, One):
        return one(D)
    if isinstance(t, Not):
        return complement(eval_term(t.arg, D, assignment))
    if isinstance(t, And):
        return meet(eval_term(t.left, D, assignment), eval_term(t.right, D, assignment))
    if isinstance(t, Or):
        return join(eval_term(t.left, D, assignment), eval_term(t.right, D, assignment))
    if isinstance(t, Subst):
        return subst(D, spec_perm(t.perm, D.n), eval_term(t.arg, D, assignment))
    raise TypeError(f"not a term node: {t!r}")


def equation_violated(D: Carrier, eq: Equation, assignment: Mapping[str, Elem]) -> bool:
    return eval_term(eq.lhs, D, assignment) != eval_term(eq.rhs, D, assignment)


def quasi_violated(D: Carrier, qe: QuasiEquation, assignment: Mapping[str, Elem]) -> bool:
    """True when the assignment satisfies every hypothesis but not the
    conclusion.  This is the single violation test all checkers (and any
    witness re-validation) share."""
    for h in qe.hypotheses:
        if equation_violated(D, h, assignment):
            return False
    return equation_violated(D, qe.conclusion, assignment)


# --- checking ----------------------------------------------------------


@dataclass(frozen=True)
class Exhaustive:
    """Enumerate every assignment; requires (2**|D|)**v within budget."""

    budget: int | None = None

    @property
    def label(self) -> str:
        return "exhaustive"


@dataclass(frozen=True)
class Random:
    """Sample assignments with a seeded generator."""

    trials: int
    seed: int = DEFAULT_SEED

    @property
    def label(self) -> str:
        return f"random({self.trials})"


Mode = Exhaustive | Random


def resolve_mode(work: int, mode: Mode | None, budget: int | None = None,
                 seed: int = DEFAULT_SEED) -> Mode:
    """The one mode policy shared by every checker and verifier.

    work is what an exhaustive run would enumerate.  Auto mode (None)
    enumerates when work fits the budget and otherwise samples
    DEFAULT_TRIALS with the given seed.  An explicit Exhaustive over its
    budget raises BudgetExceeded; its own budget, when set, wins over the
    budget argument, which defaults to DEFAULT_ASSIGNMENT_BUDGET.  Random
    passes through.  The result is always concrete.
    """
    if isinstance(mode, Random):
        return mode
    cap = DEFAULT_ASSIGNMENT_BUDGET if budget is None else budget
    if mode is None:
        return Exhaustive(cap) if work <= cap else Random(DEFAULT_TRIALS, seed)
    if not isinstance(mode, Exhaustive):
        raise TypeError(f"unknown checking mode: {mode!r}")
    if mode.budget is not None:
        cap = mode.budget
    if work > cap:
        raise BudgetExceeded(work, cap)
    return Exhaustive(cap)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check.

    outcome is one of 'holds-exhaustive', 'holds-sampled', 'fails'.  A
    fails outcome always carries a witness assignment that re-evaluates to
    a violation; sampled outcomes always carry trials and seed.
    """

    outcome: str
    witness: dict[str, Elem] | None = None
    trials: int | None = None
    seed: int | None = None
    assignments_tested: int = 0

    @property
    def holds(self) -> bool:
        return self.outcome != "fails"


# --- evaluation by columns and by packed rows (see the module docstring) ----

#: An exhaustive chunk holds 2 ** EXHAUSTIVE_CHUNK_BITS assignments.
EXHAUSTIVE_CHUNK_BITS = 16

#: A sampled chunk packs up to ROW_CHUNK_BITS bits of rows per variable,
#: but one trial alone on a carrier of WIDE_ROW_BITS members or more: timed
#: on full (8..16, 2), 2**16 to 2**18 bits did alike, and packing rows of
#: 2**12 bits or more was up to 2 times slower.
ROW_CHUNK_BITS = 1 << 17
WIDE_ROW_BITS = 1 << 12


class _Program(list):
    """A straight-line program over a chunk of assignments to nvars
    variables, each a bit vector over size members, laid out by packed
    rows (rows) or by columns.  Ops: ("var", j), ("zero",), ("one",),
    ("not", a), ("and", a, b), ("or", a, b); and s_f as subst emits it for
    the layout: on columns ("gather", a, table), whose column p is column
    table[p] of slot a, or 0 where table[p] is None; on rows ("net", a,
    network), an algebra.Network.  Each op has one slot: emitting an equal
    op again returns the slot it holds."""

    def __init__(self, size: int, nvars: int, rows: bool):
        self.size, self.nvars, self.rows = size, nvars, rows
        self.slots: dict[tuple, int] = {}

    def emit(self, *op) -> int:
        # a map is keyed by its gather table's identity, or its network's
        key = (op[0], op[1], id(op[2])) if op[0] == "gather" else op
        slot = self.slots.get(key)
        if slot is None:
            slot = self.slots[key] = len(self)
            self.append(op)
        return slot

    def subst(self, a: int, D: Carrier, f: Perm) -> int:
        """s_f of slot a, valued in D."""
        if self.rows:
            return self.emit("net", a, D._network_for(f))
        return self.emit("gather", a, D._gather_for(f))


def _compile(qe: QuasiEquation, D: Carrier, names: list[str],
             rows: bool = False) -> tuple[_Program, list[tuple[int, int]]]:
    """qe as a program in the given layout, plus the (lhs, rhs) slots of
    each hypothesis and then the conclusion.

    Each node is its op over its children's slots, and the program gives
    equal ops one slot, so equal subterms share it and no lookup hashes a
    whole subtree.  Every operator spec is resolved here, once, so a spec
    that does not fit D raises DimensionMismatch before any assignment is
    tried."""
    program = _Program(D.size, len(names), rows)
    perms: dict[PermSpec, Perm] = {}

    def emit(t: Term) -> int:
        if isinstance(t, Var):
            return program.emit("var", names.index(t.name))
        if isinstance(t, Zero):
            return program.emit("zero")
        if isinstance(t, One):
            return program.emit("one")
        if isinstance(t, Not):
            return program.emit("not", emit(t.arg))
        if isinstance(t, And):
            return program.emit("and", emit(t.left), emit(t.right))
        if isinstance(t, Or):
            return program.emit("or", emit(t.left), emit(t.right))
        if isinstance(t, Subst):
            f = perms.get(t.perm)
            if f is None:
                f = perms[t.perm] = spec_perm(t.perm, D.n)
            return program.subst(emit(t.arg), D, f)
        raise TypeError(f"not a term node: {t!r}")

    equations = [(emit(eq.lhs), emit(eq.rhs)) for eq in (*qe.hypotheses, qe.conclusion)]
    return program, equations


def _run(program: _Program, inputs: list[list[int]], full: int) -> list[list[int]]:
    """Every slot's columns for one chunk, from each variable's columns
    inputs; full has one bit per assignment."""
    vals: list[list[int]] = []
    for op in program:
        kind = op[0]
        if kind == "var":
            col = inputs[op[1]]
        elif kind == "zero":
            col = [0] * program.size
        elif kind == "one":
            col = [full] * program.size
        elif kind == "not":
            col = [c ^ full for c in vals[op[1]]]
        elif kind == "and":
            col = list(map(operator.and_, vals[op[1]], vals[op[2]]))
        elif kind == "or":
            col = list(map(operator.or_, vals[op[1]], vals[op[2]]))
        else:
            arg = vals[op[1]]
            col = [0 if src is None else arg[src] for src in op[2]]
        vals.append(col)
    return vals


def _differs(vals: list[list[int]], lhs: int, rhs: int) -> int:
    """Bit set of the chunk's assignments under which slots lhs and rhs differ."""
    return functools.reduce(operator.or_, map(operator.xor, vals[lhs], vals[rhs]), 0)


def _row(columns: list[int], a: int) -> int:
    """The bit vector that columns give assignment a of their chunk."""
    return sum((col >> a & 1) << p for p, col in enumerate(columns))


def _rechecked(violates: Callable[[list[int]], object], rows: list[int]) -> object:
    """violates(rows): the caller's element-by-element re-check of a
    violation the evaluator found, under the variables' bit vectors rows.
    It gives the witness in the caller's terms, or None where the law
    holds, which means the evaluator was wrong."""
    witness = violates(rows)
    if witness is None:
        raise RuntimeError("the chunked evaluation and the element-wise re-check disagree on a witness")
    return witness


def _first_violation(program: _Program, hypotheses: list[tuple[int, int]],
                     law: tuple[int, int], mode: Mode,
                     violates: Callable[[list[int]], object]) -> tuple[int, object] | None:
    """The violation scan of check_quasi, over mode's assignments to
    program's variables: Exhaustive by columns over the canonical
    enumeration, Random by packed rows over the sample stream (program's
    layout must be mode's).

    Returns the least (or first sampled) assignment under which every
    (lhs, rhs) pair of slots in hypotheses agrees and the pair law
    differs, as (its index, its witness), or None; the witness is
    _rechecked through violates."""
    if program.rows:
        return _first_row_violation(program, hypotheses, law, mode, violates)
    size, nvars = program.size, program.nvars
    if not hypotheses and size * nvars > EXHAUSTIVE_CHUNK_BITS:
        least = least_violation(program, law, EXHAUSTIVE_CHUNK_BITS)
        if least is None:
            return None
        rows = [least >> size * (nvars - 1 - j) & ((1 << size) - 1) for j in range(nvars)]
        return least, _rechecked(violates, rows)
    start = 0
    for width, columns in _exhaustive_chunks(size, nvars):
        live = (1 << width) - 1
        vals = _run(program, columns, live)
        for lhs, rhs in hypotheses:
            live &= ~_differs(vals, lhs, rhs)
        bad = live & _differs(vals, *law)
        if bad:
            a = (bad & -bad).bit_length() - 1
            return start + a, _rechecked(violates, [_row(cols, a) for cols in columns])
        start += width
    return None


def _exhaustive_chunks(size: int, nvars: int) -> Iterator[tuple[int, list[list[int]]]]:
    """(width, columns of each variable) for every chunk of the canonical
    enumeration, EXHAUSTIVE_CHUNK_BITS counter bits at a time
    (pointwise.counters).

    Assignment a gives variable j (in sorted name order) the bit vector
    (a >> size * (nvars - 1 - j)) mod 2 ** size, so the first name is most
    significant."""
    for width, counter in counters(size * nvars, EXHAUSTIVE_CHUNK_BITS):
        yield width, [counter[size * (nvars - 1 - j): size * (nvars - j)] for j in range(nvars)]


def _draws(size: int, nvars: int, mode: Random) -> Iterator[int]:
    """The sample stream: rng.getrandbits(size) per variable per trial, in
    sorted name order, from random.Random(mode.seed)."""
    return map(_random.Random(mode.seed).getrandbits, repeat(size, mode.trials * nvars))


def _tiled(program: _Program, nbytes: int, height: int) -> list[tuple]:
    """program's ops for chunks of height rows nbytes bytes apart: "one"
    and "not" with the rows of program.size ones, each network as its
    tiled swaps and mask (Network.tiled)."""
    if any(op[0] == "one" or op[0] == "not" for op in program):
        ones = _repeat_row((1 << program.size) - 1, nbytes, height)
    out = []
    for op in program:
        kind = op[0]
        if kind == "one" or kind == "not":
            op = (*op, ones)
        elif kind == "net":
            op = ("net", op[1], *op[2].tiled(nbytes, height))
        out.append(op)
    return out


def _run_rows(ops: list[tuple], values: list[int]) -> list[int]:
    """Every slot's rows for one chunk, from _tiled ops and each variable's rows."""
    vals: list[int] = []
    for op in ops:
        kind = op[0]
        if kind == "var":
            x = values[op[1]]
        elif kind == "zero":
            x = 0
        elif kind == "one":
            x = op[1]
        elif kind == "not":
            x = vals[op[1]] ^ op[2]
        elif kind == "and":
            x = vals[op[1]] & vals[op[2]]
        elif kind == "or":
            x = vals[op[1]] | vals[op[2]]
        else:
            x = vals[op[1]]
            for d, m in op[2]:
                t = ((x >> d) ^ x) & m
                x ^= t ^ (t << d)
            if op[3] is not None:
                x &= op[3]
        vals.append(x)
    return vals


def _row_flags(vals: list[int], stride: int, height: int, lhs: int, rhs: int) -> int:
    """Bit stride * r set where slots lhs and rhs differ on row r: each
    row's OR folded into its lowest bit (the live flags mask the rest)."""
    z = vals[lhs] ^ vals[rhs]
    if height == 1:
        return int(z != 0)
    span = 1
    while 2 * span <= stride:
        z |= z >> span
        span *= 2
    return z | z >> (stride - span)


def _first_row_violation(program: _Program, hypotheses: list[tuple[int, int]],
                         law: tuple[int, int], mode: Random,
                         violates: Callable[[list[int]], object]) -> tuple[int, object] | None:
    """_first_violation on packed rows, over mode's sample stream (_draws).

    A chunk packs each variable's rows into one int, whole bytes apart and
    no narrower than any network's row, so row r of the chunk has flag bit
    stride * r.  It holds ROW_CHUNK_BITS bits per variable, or one row on a
    carrier of WIDE_ROW_BITS members or more."""
    width = max([program.size] + [op[2].width for op in program if op[0] == "net"])
    nbytes = max(1, -(-width // 8))
    stride = 8 * nbytes
    trials, nvars = mode.trials, program.nvars
    height = max(1, min(trials, ROW_CHUNK_BITS // stride)) if width < WIDE_ROW_BITS else 1
    rows = _draws(program.size, nvars, mode)
    ops = _tiled(program, nbytes, height)
    every_row = _repeat_row(1, nbytes, height)

    def packed(chunk: list[int]) -> int:
        return int.from_bytes(b"".join([r.to_bytes(nbytes, "little") for r in chunk]), "little")

    for start in range(0, trials, height):
        h = min(height, trials - start)
        chunk = list(islice(rows, h * nvars))
        values = chunk if h == 1 else [packed(chunk[j::nvars]) for j in range(nvars)]
        # the ops act on height rows; in a shorter last chunk the flags of
        # the rows past h are not live
        vals = _run_rows(ops, values)
        live = every_row if h == height else _repeat_row(1, nbytes, h)
        for lhs, rhs in hypotheses:
            live &= ~_row_flags(vals, stride, height, lhs, rhs)
        bad = live & _row_flags(vals, stride, height, *law)
        if bad:
            r = ((bad & -bad).bit_length() - 1) // stride
            return start + r, _rechecked(violates, chunk[r * nvars:(r + 1) * nvars])
    return None


def check_quasi(D: Carrier, qe: QuasiEquation, mode: Mode = Exhaustive()) -> Verdict:
    """Check a quasi-equation over the algebra on D.

    Exhaustive mode scans assignments in canonical order (variables sorted
    by name, bit vectors increasing), so a fails verdict carries the least
    violating assignment; it evaluates by columns, or decides an equation
    wider than one chunk member by member.  Random mode reports
    the first violating trial; it evaluates packed rows.  Either way the
    witness is re-checked through quasi_violated.
    """
    names = sorted(quasi_vars(qe))
    work = 1 << (D.size * len(names))
    mode = resolve_mode(work, mode)
    sampled = {"trials": mode.trials, "seed": mode.seed} if isinstance(mode, Random) else {}
    program, equations = _compile(qe, D, names, rows=bool(sampled))

    def violates(rows: list[int]) -> dict[str, Elem] | None:
        witness = {nm: Elem(D, bits) for nm, bits in zip(names, rows)}
        return witness if quasi_violated(D, qe, witness) else None

    found = _first_violation(program, equations[:-1], equations[-1], mode, violates)
    if found:
        index, witness = found
        return Verdict("fails", witness=witness, assignments_tested=index + 1, **sampled)
    outcome = "holds-sampled" if sampled else "holds-exhaustive"
    return Verdict(outcome, assignments_tested=mode.trials if sampled else work, **sampled)


def check_equation(D: Carrier, eq: Equation, mode: Mode = Exhaustive()) -> Verdict:
    """Check an equation; identical to a hypothesis-free quasi-equation."""
    return check_quasi(D, QuasiEquation((), eq), mode)


def sigma(n: int, f: Perm, g: Perm) -> QuasiEquation:
    """The quasi-equation  s_f x | s_g x = ~x  =>  0 = 1  for a given pair
    of coordinate permutations of dimension n.

    It says the substitution pair (f, g) never maps any set onto the exact
    complement; on a one-element algebra it holds vacuously since 0 = 1.
    """
    if f.n != n or g.n != n:
        raise DimensionMismatch(f"permutation dimensions {f.n}, {g.n} do not match n={n}")
    x = Var("x")
    hypothesis = Equation(Or(Subst(Images(f.images), x), Subst(Images(g.images), x)), Not(x))
    return QuasiEquation((hypothesis,), Equation(Zero(), One()))
