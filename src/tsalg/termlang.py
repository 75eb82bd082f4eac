"""Term language over {0, 1, &, |, ~, s} with parser, printer, evaluator,
and equation / quasi-equation checkers.

Grammar (whitespace-insensitive)::

    term  := and ('|' and)* ;  and := unary ('&' unary)* ;
    unary := '0' | '1' | ident | '(' term ')' | '~' unary
           | 's[' nat ',' nat ']' unary
           | 's{' [nat (',' nat)*] '}' unary ;
    eq    := term '=' term ;
    quasi := eq (',' eq)* '=>' eq ;   nat := ASCII digits '0'..'9' .

A chain 'x & y & z' (or 'x | y | z') is one And (Or) node over all its
operands, and a parenthesized chain first in a chain of its kind gives its
operands in its place: '(x & y) & z' is 'x & y & z'.  Each '(', '~' and
's[..]'/'s{..}' opens one nesting level, and a term nesting deeper than
MAX_NESTING levels is refused at the opener that passes it; a path from a
term's root to a leaf holds at most two chains per level.

's[i,j]' applies the substitution operator of the transposition swapping
coordinates i and j; 's{a0,a1,...}' that of the permutation with the given
image list, 's{}' that of dimension 0.  Precedence: '~' and 's' bind
tightest, then '&', then '|'; a chain is folded from the left, as if '&'
and '|' associated to the left.  print_term emits a canonical form that
parses back to a structurally identical tree.

Checkers enumerate assignments with variables in sorted name order, each
variable running through bit vectors in increasing numeric value, so the
first (least) violating assignment is deterministic.  Random mode draws
each variable's bit vector as independent fair coin bits from a seeded
generator, rng.getrandbits(|D|) per variable per trial in sorted name
order (_draws), and always reports the seed it used.

Exhaustive mode (least_violation) evaluates by columns when the canonical
order fits one chunk of 2**16 assignments: each carrier position holds one
int whose bit a says whether that position is in the value under
assignment a, '~', '&' and '|' act on whole columns, and s_f gathers
columns through a table, column p from its operand's column table[p] (none
where that is None).  As s_f is the complete operator of q -> q . f, and
the complex algebra of a disjoint union of frames is the product of theirs
(Jónsson and Tarski, 1951; Goldblatt, "Varieties of complex algebras",
1989), P(D) splits into factors over the classes of members that the
gathers link: past one chunk, truth tables over the few (variable, member)
bits that a member's leaf paths reach decide a law member by member, or
component by component under hypotheses.  Random mode goes by packed rows:
each variable's bit vectors, one per trial, sit side by side in one int at
a fixed stride, so '~', '&' and '|' act on every row of the chunk at once
and s_f is a network of delta swaps with its masks repeated once per row;
a carrier of 4096 members or more gives each row its own chunk.  Either
way the verdict, the least (or first sampled) witness and the count are
those of the one-at-a-time scan: assignments_tested counts the canonical
order, all of it when the check holds, the least witness's index + 1 when
it fails.

A quasi-equation first tries one point (_one_point): at a constant
sequence p, p . f = p for every f, so a term's value at p reads the
variables' bits at p alone, each s_f the identity.  Where D holds such a p
and the hypotheses have no solution there, none has one on D, holes or
not, and the law holds.  Next a sampled check, or an exhaustive one past
one chunk, tries the law's leaves (_leaf_identity).  On a D closed under
each s_f it names, s_f is a Boolean automorphism: s_f s_g x = s_(f.g) x,
and s_f passes through '~', '&', '|', 0 and 1.  A law whose conclusion's
sides are one term of its leaves (each a variable under one composed
permutation) holds on D, as does one that no valuation of at most 16
leaves breaks.

check_quasi walks the law once (_compile) for its sorted variable names
and ops, names[j] read as ("var", j) and each spec resolved to a Perm, and
weighs the work (resolve_mode) before it reports a spec that does not fit
D; no decider walks it again, as the leaf step reads its leaf law off
the ops.  Every decider runs those ops and binds each s_f itself:
least_violation to D's gather table, _first_row_violation to a tiled
network on rows.  check_quasi alone picks the decider (the one-point or
leaf step, least_violation or _first_row_violation), and re-checks the
witness it finds element-wise: eval_term and quasi_violated walk the tree
for a single assignment, and _confirm refuses a witness the re-check does
not confirm.  The verifiers in theorems re-check their own witnesses
through _confirm and share the sample stream (_draws), but decide their
laws from their tables and compile no program.
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
    complement,
    join,
    meet,
    one,
    subst,
    zero,
)
from .seqspace import DimensionMismatch, NotAPermutation, Perm, transposition

#: Documented default seed for every sampled check in the package.
DEFAULT_SEED = 1729

#: Default ceiling on (2 ** |D|) ** v, the number of assignments an
#: exhaustive check is allowed to enumerate.
DEFAULT_ASSIGNMENT_BUDGET = 1 << 20

#: Default sample size when a check degrades from exhaustive to random.
DEFAULT_TRIALS = 2000

#: Most '(', '~' and 's[..]'/'s{..}' a term may nest, one inside the
#: other.  At the limit (measured by lowering sys.setrecursionlimit) the
#: parser takes about 305 frames, three per '(' level and one per '~' or
#: 's', and print or check about 205: of Python's default recursion limit
#: of 1000, that leaves a caller who parses and checks about 695.  A term's
#: == and repr take about 805, which leaves about 195, and hash about 405.
MAX_NESTING = 100


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
    args: tuple["Term", ...]  # two or more, folded from the left


@dataclass(frozen=True)
class Or:
    args: tuple["Term", ...]  # two or more, folded from the left


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
    """Operator spec: the permutation with this image list, validated and
    kept once (outside the fields, so ==, hash and repr read images alone)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_perm", Perm(self.images))  # validates bijection


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


# --- parser ------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str, at: int | None = None) -> TermSyntaxError:
        return TermSyntaxError(message, self.pos if at is None else at)

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
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a natural number")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past sys.get_int_max_str_digits()
            raise self.error(f"natural number too long ({self.pos - start} digits)", start) from None

    def ident(self) -> str:  # unary has checked the first character at pos: a letter or '_'
        start = self.pos
        t = self.text
        self.pos += 1
        while self.pos < len(t) and (t[self.pos].isalnum() or t[self.pos] == "_"):
            self.pos += 1
        return t[start : self.pos]

    def nat_list(self, close: str) -> tuple[int, ...]:
        out = [self.nat()]
        while self.take(","):
            out.append(self.nat())
        self.expect(close)
        return tuple(out)

    def chain(self, op: str = "|") -> Term:
        """A '|' chain of '&' chains (op "|"), or an '&' chain of unary
        terms (op "&"), as one node when op occurs.  A first operand of the
        node's kind can only be parenthesized; its operands are spliced in,
        which gives the tree of left association."""
        args = [self.chain("&") if op == "|" else self.unary()]
        while self.peek() == op:
            self.pos += 1
            args.append(self.chain("&") if op == "|" else self.unary())
        if len(args) == 1:
            return args[0]
        node = Or if op == "|" else And
        first = args[0]
        return node((*first.args, *args[1:]) if type(first) is node else tuple(args))

    def unary(self) -> Term:
        """'0', '1', a variable, or an opener ('(', '~', 's[..]'/'s{..}')
        and its operand one nesting level deeper."""
        c = self.peek()
        here = self.pos
        if c == "0" or c == "1":
            self.pos += 1
            return Zero() if c == "0" else One()
        if c == "~" or c == "(":
            self.pos += 1
        elif c.isalpha() or c == "_":
            name = self.ident()
            if name != "s" or self.peek() not in ("[", "{"):
                return Var(name)
            if self.take("["):
                i = self.nat()
                self.expect(",")
                j = self.nat()
                self.expect("]")
                if i == j:
                    raise self.error(f"s[{i},{j}] does not name a transposition", here)
                spec = Transposition(i, j)
            else:
                self.expect("{")
                images = () if self.take("}") else self.nat_list("}")
                try:
                    spec = Images(images)
                except NotAPermutation as exc:
                    raise self.error(str(exc), here) from None
        else:
            raise self.error("expected '0', '1', a variable, or '('")
        if self.depth == MAX_NESTING:
            raise self.error(f"term nests deeper than {MAX_NESTING} levels", here)
        self.depth += 1
        if c == "(":
            node = self.chain()
            self.expect(")")
        else:
            node = self.unary()
        self.depth -= 1
        return node if c == "(" else Not(node) if c == "~" else Subst(spec, node)

    def equation(self) -> Equation:
        lhs = self.chain()
        self.skip_ws()
        if not (self.text.startswith("=", self.pos) and not self.text.startswith("=>", self.pos)):
            raise self.error("expected '='")
        self.pos += 1
        return Equation(lhs, self.chain())

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
    node = p.chain()
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
    if isinstance(t, (And, Or)):
        # a join inside a meet takes parentheses, as does a chain of t's own
        # kind after the first operand
        text = []
        for k, arg in enumerate(t.args):
            s = print_term(arg)
            if isinstance(arg, Or) and isinstance(t, And) or k and type(arg) is type(t):
                s = f"({s})"
            text.append(s)
        return (" & " if isinstance(t, And) else " | ").join(text)
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
    return spec._perm


def eval_term(t: Term, D: Carrier, assignment: Mapping[str, Elem]) -> Elem:
    kind = type(t)
    if kind is Var:
        try:
            x = assignment[t.name]
        except KeyError:
            raise EvalError(f"unassigned variable {t.name!r}") from None
        if x.carrier is not D and x.carrier != D:
            raise CarrierMismatch(f"assignment for {t.name!r} lives on a different carrier")
        return x
    if kind is And or kind is Or:
        fold = meet if kind is And else join
        args = t.args
        value = fold(eval_term(args[0], D, assignment), eval_term(args[1], D, assignment))
        if len(args) > 2:  # a two-operand chain makes no slice
            for arg in args[2:]:
                value = fold(value, eval_term(arg, D, assignment))
        return value
    if kind is Zero:
        return zero(D)
    if kind is One:
        return one(D)
    if kind is Not:
        return complement(eval_term(t.arg, D, assignment))
    if kind is Subst:
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
    """Enumerate every assignment; the work must fit budget."""

    budget: int = DEFAULT_ASSIGNMENT_BUDGET
    label = "exhaustive"
    seed = None  # nothing is drawn


@dataclass(frozen=True)
class Random:
    """Sample assignments with a seeded generator."""

    trials: int
    seed: int = DEFAULT_SEED

    @property
    def label(self) -> str:
        return f"random({self.trials})"


@dataclass(frozen=True)
class Auto:
    """Enumerate when the work fits budget, else sample DEFAULT_TRIALS with seed."""

    budget: int = DEFAULT_ASSIGNMENT_BUDGET
    seed: int = DEFAULT_SEED

    @property
    def label(self) -> str:
        return f"auto(budget={self.budget})"


Mode = Exhaustive | Random | Auto


def resolve_mode(work: int, mode: Mode) -> Exhaustive | Random:
    """The one mode policy of every checker and verifier, and the only
    reader of a budget and of Auto's seed.  work is what an exhaustive run
    would enumerate.  Auto resolves by its budget; Exhaustive raises
    BudgetExceeded when work is over its budget; Random passes through;
    anything else, None included, raises TypeError."""
    if isinstance(mode, Auto):
        return Exhaustive(mode.budget) if work <= mode.budget else Random(DEFAULT_TRIALS, mode.seed)
    if isinstance(mode, Exhaustive):
        if work > mode.budget:
            raise BudgetExceeded(work, mode.budget)
        return mode
    if isinstance(mode, Random):
        return mode
    raise TypeError(f"unknown checking mode: {mode!r}")


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

    @property
    def mode(self) -> str:  # the label of the mode that decided it
        return "exhaustive" if self.trials is None else f"random({self.trials})"


# --- evaluation by columns and by packed rows (see the module docstring) ----

#: An exhaustive check of at most 2 ** EXHAUSTIVE_CHUNK_BITS assignments is one chunk of columns.
EXHAUSTIVE_CHUNK_BITS = 16

#: A sampled chunk packs up to ROW_CHUNK_BITS bits of rows per variable,
#: but one trial alone on a carrier of WIDE_ROW_BITS members or more: timed
#: on full (8..16, 2), 2**16 to 2**18 bits did alike, and packing rows of
#: 2**12 bits or more was up to 2 times slower.
ROW_CHUNK_BITS = 1 << 17
WIDE_ROW_BITS = 1 << 12


def _compile(qe: QuasiEquation, n: int) -> tuple[list, list[tuple], list[tuple[int, int]],
                                              DimensionMismatch | None]:
    """qe in one walk: its variables' names, sorted; its ops, each over its
    children's slots, ("var", j) for the variable names[j] and ("subst", a, f)
    for s_f, with f its spec resolved once against dimension n; the (lhs, rhs)
    slots of each equation, the conclusion last; and the DimensionMismatch
    of the first spec that does not fit n, or None.  Equal ops share one
    slot, as do s[0,1] and s{1,0}, and no lookup hashes a whole subtree.
    The leaf step reads its leaf law off these ops (_leaf_identity)."""
    slots: dict[tuple, int] = {}
    perms: dict[PermSpec, Perm | DimensionMismatch] = {}
    unfit: list[DimensionMismatch] = []  # in the order met

    def emit(t: Term) -> int:
        kind = type(t)
        if kind is Var:
            op = ("var", t.name)
        elif kind is And or kind is Or:
            # folded from the left: each partial chain takes a slot of its own
            name = "and" if kind is And else "or"
            args = t.args
            op = (name, emit(args[0]), emit(args[1]))
            if len(args) > 2:  # a two-operand chain makes no slice
                for arg in args[2:]:
                    op = (name, slots.setdefault(op, len(slots)), emit(arg))
        elif kind is Not:
            op = ("not", emit(t.arg))
        elif kind is Subst:
            f = perms.get(t.perm)
            if f is None:
                try:
                    f = spec_perm(t.perm, n)
                except DimensionMismatch as exc:
                    f = exc
                    unfit.append(exc)
                perms[t.perm] = f
            op = ("subst", emit(t.arg), f)
        elif kind is Zero or kind is One:
            op = ("zero",) if kind is Zero else ("one",)
        else:
            raise TypeError(f"not a term node: {t!r}")
        # a new op takes the next slot; the keys are the ops in slot order
        return slots.setdefault(op, len(slots))

    equations = [(emit(eq.lhs), emit(eq.rhs)) for eq in (*qe.hypotheses, qe.conclusion)]
    names = sorted([op[1] for op in slots if op[0] == "var"])
    index = {name: j for j, name in enumerate(names)}
    ops = [("var", index[op[1]]) if op[0] == "var" else op for op in slots]
    return names, ops, equations, unfit[0] if unfit else None


def _run(ops: list[tuple], size: int, gather: Callable[[Perm], list[int | None]] | None,
         inputs: list[list[int]], full: int) -> list[list[int]]:
    """Every slot's columns of _compile's ops over size members for one
    chunk, from each variable's columns inputs; full has one bit per
    assignment, and s_f's column p is column gather(f)[p] of its operand."""
    vals: list[list[int]] = []
    for op in ops:
        kind = op[0]
        if kind == "var":
            col = inputs[op[1]]
        elif kind == "zero":
            col = [0] * size
        elif kind == "one":
            col = [full] * size
        elif kind == "not":
            col = [c ^ full for c in vals[op[1]]]
        elif kind == "and":
            col = list(map(operator.and_, vals[op[1]], vals[op[2]]))
        elif kind == "or":
            col = list(map(operator.or_, vals[op[1]], vals[op[2]]))
        else:
            arg = vals[op[1]]
            col = [0 if src is None else arg[src] for src in gather(op[2])]
        vals.append(col)
    return vals


def _confirm(violated: bool) -> None:
    """Refuse a witness the evaluator found unless its element-by-element
    re-check, violated, confirms it: where the law holds, the evaluator
    was wrong."""
    if not violated:
        raise RuntimeError("the chunked evaluation and the element-wise re-check disagree on a witness")


@functools.cache
def _periodic(low: int) -> tuple[int, ...]:
    """The column of each counter bit b < low over 2 ** low counts: bit a
    set where bit b of a is.  Below the top bit's column, column b is column
    b + 1 xor itself shifted down 2 ** b bits, one shift and one xor each."""
    if not low:
        return ()
    half = 1 << (low - 1)
    periodic = [((1 << half) - 1) << half]
    while half > 1:
        half >>= 1
        periodic.append(periodic[-1] ^ periodic[-1] >> half)
    return tuple(reversed(periodic))


def counters(bits: int, chunk_bits: int) -> Iterator[tuple[int, list[int]]]:
    """(width, column of each bit) for every chunk of the count through
    2 ** bits, chunk_bits bits at a time.  Counter bits below the chunk
    width are periodic columns, built once per width; the ones above it are
    constant within a chunk."""
    low = min(bits, chunk_bits)
    width = 1 << low
    full = (1 << width) - 1
    periodic = list(_periodic(low))
    for chunk in range(1 << (bits - low)):
        yield width, periodic + [full if chunk >> b & 1 else 0 for b in range(bits - low)]


@functools.cache
def _one_chunk(size: int, nvars: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(width, columns of each variable) of the canonical enumeration in
    one chunk (_periodic), built once: assignment a gives variable j (in
    sorted name order) the bit vector (a >> size * (nvars - 1 - j)) mod
    2 ** size, so the first name is most significant."""
    counter = _periodic(size * nvars)
    return 1 << size * nvars, tuple(tuple(counter[size * (nvars - 1 - j): size * (nvars - j)])
                                    for j in range(nvars))


def _components(tables: list[list[int | None] | None], size: int) -> list[list[int]]:
    """The size members in the classes that the gather tables link, member
    q with table[q], each class increasing and the classes by least member.
    Each class is closed under every op whose table is among them."""
    root = list(range(size))

    def find(p: int) -> int:
        while root[p] != p:
            root[p] = root[root[p]]  # path halving
            p = root[p]
        return p

    for table in tables:
        if table is not None:
            for q, src in enumerate(table):
                if src is not None:
                    root[find(q)] = find(src)
    classes: dict[int, list[int]] = {}
    for p in range(size):
        classes.setdefault(find(p), []).append(p)
    return list(classes.values())


def least_violation(ops: list[tuple], size: int, nvars: int, gather: Callable[[Perm], list[int | None]] | None,
                    hypotheses: list[tuple[int, int]], law: tuple[int, int],
                    chunk_bits: int) -> tuple[int, list[int]] | None:
    """The least assignment to the nvars variables of ops, _compile's ops
    over size members, each s_f gathering through gather(f), under which
    every (lhs, rhs) pair of slots in hypotheses agrees and the pair law
    differs, in the canonical enumeration (variable j holds bits
    size * (nvars - 1 - j) + q for its members q): its index and each
    variable's rows, or None.

    An enumeration of at most chunk_bits bits is one chunk of columns
    (_one_chunk, _run).  Past that, the atoms the sides reach at a target,
    in increasing bit order, count through truth tables in the canonical
    order with every other bit clear, chunk_bits atoms at a time: the
    lowest entry where the hypotheses agree is its least solution, where
    the law differs too its least violation.  A target is one member
    without hypotheses (its least solution is 0, and clearing other bits
    keeps a violation), else one of _components, which hold disjoint bits:
    nothing violates once one has no solution, else the least violation is
    the least, over C*, of C*'s least violation joined with every other
    one's least solution."""
    if size * nvars <= chunk_bits:
        width, columns = _one_chunk(size, nvars)
        vals = _run(ops, size, gather, columns, (1 << width) - 1)
        # the assignments under which each equation's sides differ, the law's first
        differ = [functools.reduce(operator.or_, map(operator.xor, vals[a], vals[b]), 0)
                  for a, b in (law, *hypotheses)]
        bad = functools.reduce(lambda bad, d: bad & ~d, differ)
        least = (bad & -bad).bit_length() - 1 if bad else None
    else:
        lhs, rhs = law
        tables = [gather(op[2]) if op[0] == "subst" else None for op in ops]
        # node s * size + q stands for slot s at member q
        val = [0] * (len(ops) * size)
        base, least = 0, None  # the least solutions' join; a least violation's least excess over it
        roots = [s for eq in (*hypotheses, law) for s in eq]
        for members in _components(tables, size) if hypotheses else [[p] for p in range(size)]:
            # the nodes the equations' sides read at the target, and the atoms among them
            need, atoms = set(), []
            todo = [s * size + p for s in roots for p in members]
            while todo:
                node = todo.pop()
                if node not in need:
                    need.add(node)
                    s, q = divmod(node, size)
                    op = ops[s]
                    if op[0] == "var":
                        atoms.append(size * (nvars - 1 - op[1]) + q)
                    elif op[0] == "subst":
                        if tables[s][q] is not None:
                            todo.append(op[1] * size + tables[s][q])
                    elif op[0] == "not":
                        todo.append(op[1] * size + q)
                    elif op[0] != "zero" and op[0] != "one":  # and, or
                        todo += (op[1] * size + q, op[2] * size + q)
            atoms.sort()
            index = {b: i for i, b in enumerate(atoms)}
            # children hold lower slots than their parents
            order = sorted(need)
            start, solution, violation = 0, None, None
            for width, counter in counters(len(atoms), chunk_bits):
                full = (1 << width) - 1
                for node in order:
                    s, q = divmod(node, size)
                    op = ops[s]
                    kind = op[0]
                    if kind == "var":
                        v = counter[index[size * (nvars - 1 - op[1]) + q]]
                    elif kind == "zero" or kind == "one":
                        v = 0 if kind == "zero" else full
                    elif kind == "not":
                        v = val[op[1] * size + q] ^ full
                    elif kind == "and":
                        v = val[op[1] * size + q] & val[op[2] * size + q]
                    elif kind == "or":
                        v = val[op[1] * size + q] | val[op[2] * size + q]
                    else:
                        src = tables[s][q]
                        v = 0 if src is None else val[op[1] * size + src]
                    val[node] = v
                agree, diff = full, 0
                for p in members:
                    for a, b in hypotheses:
                        agree &= ~(val[a * size + p] ^ val[b * size + p])
                    diff |= val[lhs * size + p] ^ val[rhs * size + p]
                if solution is None and agree:
                    solution = start + (agree & -agree).bit_length() - 1
                bad = agree & diff
                if bad:
                    violation = start + (bad & -bad).bit_length() - 1
                    break
                start += width
            if solution is None:
                return None
            lifted = sum(1 << b for i, b in enumerate(atoms) if solution >> i & 1) if solution else 0
            base += lifted
            if violation is not None:
                excess = sum(1 << b for i, b in enumerate(atoms) if violation >> i & 1) - lifted
                least = excess if least is None else min(least, excess)
        if least is not None:
            least += base
    if least is None:
        return None
    return least, [least >> size * (nvars - 1 - j) & ((1 << size) - 1) for j in range(nvars)]


def _draws(size: int, nvars: int, mode: Random) -> Iterator[int]:
    """The sample stream: rng.getrandbits(size) per variable per trial, in
    sorted name order, from random.Random(mode.seed)."""
    return map(_random.Random(mode.seed).getrandbits, repeat(size, mode.trials * nvars))


def _run_rows(ops: list[tuple], values: list[int]) -> list[int]:
    """Every slot's rows for one chunk of _first_row_violation's program, from each variable's rows."""
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


def _first_row_violation(D: Carrier, ops: list[tuple], nvars: int, hypotheses: list[tuple[int, int]],
                         law: tuple[int, int], mode: Random) -> tuple[int, list[int]] | None:
    """The first trial of mode's sample stream (_draws), by packed rows, to
    violate law under hypotheses (slots of _compile's ops over nvars
    variables): its index and rows, or None.

    A chunk packs each variable's rows into one int, whole bytes apart and
    no narrower than any network's row, so row r of the chunk has flag bit
    stride * r.  It holds ROW_CHUNK_BITS bits per variable, or one row on a
    carrier of WIDE_ROW_BITS members or more.  Its program gives "one" and
    "not" rows of ones, and s_f its tiled network ("net", a, swaps, defined)."""
    width = max([D.size] + [D._network_for(op[2])[0] for op in ops if op[0] == "subst"])
    nbytes = max(1, -(-width // 8))
    stride = 8 * nbytes
    height = max(1, min(mode.trials, ROW_CHUNK_BITS // stride)) if width < WIDE_ROW_BITS else 1
    program = []
    for op in ops:
        if op[0] == "one" or op[0] == "not":
            op = (*op, D._tiled((1 << D.size) - 1, nbytes, height))
        elif op[0] == "subst":
            _, swaps, defined = D._network_for(op[2])
            op = ("net", op[1], [(d, D._tiled(m, nbytes, height)) for d, m in swaps],
                  None if defined is None else D._tiled(defined, nbytes, height))
        program.append(op)
    rows = _draws(D.size, nvars, mode)

    def packed(chunk: list[int]) -> int:
        return int.from_bytes(b"".join([r.to_bytes(nbytes, "little") for r in chunk]), "little")

    for start in range(0, mode.trials, height):
        h = min(height, mode.trials - start)
        chunk = list(islice(rows, h * nvars))
        values = chunk if h == 1 else [packed(chunk[j::nvars]) for j in range(nvars)]
        # the ops act on height rows; in a shorter last chunk the rows past
        # h are cut from the live flags, so a check tiles for one height
        vals = _run_rows(program, values)
        live = D._tiled(1, nbytes, height)
        if h < height:
            live &= (1 << stride * h) - 1
        for lhs, rhs in hypotheses:
            live &= ~_row_flags(vals, stride, height, lhs, rhs)
        bad = live & _row_flags(vals, stride, height, *law)
        if bad:
            r = ((bad & -bad).bit_length() - 1) // stride
            return start + r, chunk[r * nvars:(r + 1) * nvars]
    return None


def _one_point(D: Carrier, ops: list[tuple], nvars: int, hypotheses: list[tuple[int, int]]) -> bool:
    """Whether D holds a constant sequence (sought in min(u, |D|) member
    tests or lookups) at which the hypotheses, slots of _compile's ops over
    nvars variables, have no solution (see the module docstring)."""
    if not D.size or nvars > EXHAUSTIVE_CHUNK_BITS:
        return False
    if not D.full and D.n > 1:  # else 0...0 is in D, or every member is constant
        unit = (D.u ** D.n - 1) // (D.u - 1)  # the rank of 1...1; c...c has rank c * unit
        if not (any(r % unit == 0 for r in D.members) if D.size <= D.u
                else any(c * unit in D.member_index for c in range(D.u))):
            return False
    width, columns = _one_chunk(1, nvars)
    full = (1 << width) - 1
    vals = _run(ops, 1, lambda f: [0], columns, full)  # at p, each s_f reads p
    return not functools.reduce(operator.and_, [~(vals[a][0] ^ vals[b][0]) for a, b in hypotheses], full)


def _leaf_identity(D: Carrier, ops: list[tuple], equations: list[tuple[int, int]]) -> bool:
    """Whether the law with _compile's ops and equations holds on D as a
    Boolean identity of its leaf instances (see the module docstring).

    The leaf law is read off the ops: each slot under a pending image
    tuple, the identity at each equation side, takes one leaf slot.  s_f
    hands its operand under . f, a variable under g is the leaf (x, g), and
    '~', '&', '|', 0 and 1 keep their shape over their operands' leaf slots.
    Equal leaf ops share a slot, so the law holds where the conclusion's
    two sides are one slot; else one member is scanned, up to 16 leaves."""
    if not D.full and any(None in D._gather_for(op[2]) for op in ops if op[0] == "subst"):
        return False
    leaf: dict[tuple, int] = {}  # (slot, pending images) -> leaf slot
    slots: dict[tuple, int] = {}  # the leaf law's ops, in slot order
    names: dict[tuple, int] = {}  # (variable, pending images) -> leaf variable

    def push(s: int, under: tuple[int, ...]) -> int:
        key = (s, under)
        got = leaf.get(key)
        if got is not None:
            return got
        op = ops[s]
        kind = op[0]
        if kind == "subst":  # under . f
            got = push(op[1], tuple(map(under.__getitem__, op[2].images)))
        elif kind == "and" or kind == "or":
            # a chain's left spine in a loop, so a frame per nesting level
            spine = [s]
            s = op[1]
            while ops[s][0] == kind and (s, under) not in leaf:
                spine.append(s)
                s = ops[s][1]
            got = push(s, under)
            for s in reversed(spine):
                got = leaf[s, under] = slots.setdefault((kind, got, push(ops[s][2], under)), len(slots))
            return got
        elif kind == "not":
            got = slots.setdefault(("not", push(op[1], under)), len(slots))
        elif kind == "var":
            got = slots.setdefault(("var", names.setdefault((op[1], under), len(names))), len(slots))
        else:
            got = slots.setdefault(op, len(slots))
        leaf[key] = got
        return got

    top = tuple(range(D.n))
    sides = [(push(a, top), push(b, top)) for a, b in equations]
    *hypotheses, law = sides
    if law[0] == law[1]:
        return True
    if len(names) > EXHAUSTIVE_CHUNK_BITS:
        return False
    return least_violation(list(slots), 1, len(names), None, hypotheses, law, EXHAUSTIVE_CHUNK_BITS) is None


def check_quasi(D: Carrier, qe: QuasiEquation, mode: Mode = Exhaustive()) -> Verdict:
    """Check a quasi-equation over the algebra on D, in mode as
    resolve_mode resolves it for 2**(|D| * v) assignments to v variables.

    Exhaustive mode scans assignments in canonical order (variables sorted
    by name, bit vectors increasing), so a fails verdict carries the least
    violating assignment; it evaluates one chunk by columns, or decides a
    wider check from its leaves or target by target.  Random mode reports
    the first violating trial; it evaluates packed rows.  Either way the
    witness's rows are re-checked here, in one place, through
    quasi_violated (_confirm).
    """
    names, ops, equations, unfit = _compile(qe, D.n)
    size, nvars = D.size, len(names)
    work = 1 << (size * nvars)
    mode = resolve_mode(work, mode)
    if unfit is not None:
        raise unfit
    sampled = {"trials": mode.trials, "seed": mode.seed} if isinstance(mode, Random) else {}
    *hypotheses, law = equations
    wide = size * nvars > EXHAUSTIVE_CHUNK_BITS
    if (hypotheses and _one_point(D, ops, nvars, hypotheses)
            or (sampled or wide) and _leaf_identity(D, ops, equations)):
        found = None
    elif sampled:
        found = _first_row_violation(D, ops, nvars, hypotheses, law, mode)
    else:
        found = least_violation(ops, size, nvars, D._gather_for, hypotheses, law, EXHAUSTIVE_CHUNK_BITS)
    if found:
        index, rows = found
        witness = {nm: Elem(D, bits) for nm, bits in zip(names, rows)}
        _confirm(quasi_violated(D, qe, witness))
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
    hypothesis = Equation(Or((Subst(Images(f.images), x), Subst(Images(g.images), x))), Not(x))
    return QuasiEquation((hypothesis,), Equation(Zero(), One()))
