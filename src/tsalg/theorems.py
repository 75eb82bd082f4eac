"""Desk-scale verification of the structural facts this package is about.

Each function here re-checks one claim mechanically and returns a report
object rather than a bare boolean, so a caller (or the CLI) can show what
was enumerated, in which mode, and where the first violation sits:

* relativizing by a permutable sub-carrier is a homomorphism;
* a full algebra decomposes through its atoms into full algebras over
  restricted bases, and those atom maps jointly separate elements;
* the quasi-equation sigma (see termlang.sigma) holds in every full
  algebra over ^n k, whatever the base size — via a certificate (constant
  sequences are fixed points of every coordinate permutation) and, budget
  permitting, by brute enumeration;
* sigma fails in the algebra over the unit sequences, which is a
  homomorphic image of a full algebra — so closing the small algebras
  under products and subalgebras but not homomorphic images is essential;
* the ultraproduct by a principal ultrafilter collapses to a factor
  projection.

The relativization, separation and ultraproduct checks enumerate no
assignments (the sigma checks go through termlang.check_quasi): each
decides its laws from the compiled tables its maps read.  Relativizing
and every s_t are gathers, each s_t the complete operator of q -> q . t
(Jónsson and Tarski, "Boolean algebras with operators I", 1951), so
whether the relativization laws hold comes down to whether two
compositions of tables agree, and separation to whether the atom routes
read every member.  The ultraproduct map reads one table too, and
whether that table is the identity decides every class at once.  Sampled
modes walk the seeded sample stream (termlang._draws) only to report
what the sample covers.  Every violation is re-checked element by
element: through relativize, subst and complement, or through the
ultraproduct map applied to the class's lift.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .algebra import (
    MAX_SUBALGEBRA_ELEMS,
    Carrier,
    Elem,
    ProductAlgebra,
    ProductElem,
    SizeCapExceeded,
    _apply_gather,
    _capped_power,
    atom,
    carrier_from_seqs,
    complement,
    elem_from_seqs,
    full_carrier,
    is_permutable,
    is_zero,
    join,
    relativize,
    canonicalize_base,
    subst,
)
from .seqspace import (
    DimensionMismatch,
    Perm,
    Seq,
    all_perms,
    compose_right,
    is_constant,
    transposition,
    unit_seq,
)
from .termlang import (
    DEFAULT_SEED,
    BudgetExceeded,
    Exhaustive,
    Mode,
    Random,
    Verdict,
    _draws,
    _rechecked,
    check_quasi,
    fmt_count,
    quasi_violated,
    resolve_mode,
    sigma,
)


def forward_cycle(n: int) -> Perm:
    """The n-cycle sending coordinate i to i+1 (mod n)."""
    return Perm(tuple((i + 1) % n for i in range(n)))


def backward_cycle(n: int) -> Perm:
    """The n-cycle sending coordinate i to i-1 (mod n); inverse of forward_cycle."""
    return Perm(tuple((i - 1) % n for i in range(n)))


def unit_carrier(n: int, u: int = 2) -> Carrier:
    """The carrier of all unit sequences (1 at one coordinate, 0 elsewhere)."""
    if u < 2:
        raise ValueError("unit sequences need a base of at least 2")
    return carrier_from_seqs(n, u, (unit_seq(n, i) for i in range(n)))


def _transpositions(n: int) -> list[Perm]:
    return [transposition(n, i, j) for i in range(n) for j in range(i + 1, n)]


# --- relativization ----------------------------------------------------


@dataclass
class HomReport:
    """Outcome of checking that an intersection map is a homomorphism.

    On a pass the counts are 2**|E| elements and the budgeted pairs
    (exhaustive), or the trials (sampled).  On a fail they count the x
    values and the (x, y) assignments tried, up to and including the
    witness."""

    big: Carrier
    sub: Carrier
    ops_checked: tuple[str, ...]
    mode: str
    seed: int | None
    elements_tested: int
    pairs_tested: int
    violation: dict | None

    @property
    def passed(self) -> bool:
        return self.violation is None


def verify_relativization(E: Carrier, G: Carrier, mode: Mode | None = None,
                          budget: int | None = None, seed: int = DEFAULT_SEED) -> HomReport:
    """Check that h: x -> x ∩ G is a homomorphism from the algebra over E
    onto the algebra over G: over x, y in 2**E, the laws h(x & y) = h x &
    h y, h(~x) = ~h x and h(s_t x) = s_t h x for every transposition t.

    h is the gather table G._gather_from(E) and each s_t a gather too, so
    the tables decide every law over all pairs.  A gather commutes with
    meet; complement breaks at every x when table reads nothing somewhere;
    and the s_t law breaks at x just where x differs at the two positions
    of E that its sides read at some member of G.  The least violating pair
    is then x = 0, or the one-member x at the least such position, and
    y = 0.  Sampled mode (x, then y, per trial) walks the sample stream only
    when a law breaks, for its first violating trial: a sampled report
    gives what the sample covers.  The violation's first failing law is
    re-checked through relativize, subst and complement.

    G must be a permutable sub-carrier of E — a precondition, not a checked
    property, so a non-permutable G raises instead of failing.  Exhaustive
    when the pairs x <= y fit the budget, otherwise sampled.
    """
    table = G._gather_from(E)  # raises unless G is a sub-carrier of E
    if not is_permutable(G):
        raise ValueError("sub-carrier is not permutable; relativization needs permutability")

    space = 1 << E.size
    # the meet law is pairwise, so budget the dominant quadratic cost
    work = space * (space + 1) // 2
    mode = resolve_mode(work, mode, budget, seed)

    h = functools.partial(relativize, G=G)
    hole = None in table
    # each law but meet, which a gather keeps: its violation record, the
    # pairs of positions of E its sides read apart at a member of G (None:
    # nothing), and the law on elements
    laws = [({"op": "complement"}, set(), lambda X: h(complement(X)) == complement(h(X)))]
    ranks = [None if src is None else E.members[src] for src in table]
    for t in _transpositions(E.n):
        lhs = _swapped_at(E, ranks, t)
        rhs = [None if q is None else table[q] for q in G._gather_for(t)]
        apart = {(a, b) for a, b in zip(lhs, rhs) if a != b}
        laws.append(({"op": "subst", "perm": list(t.images)}, apart,
                     lambda X, t=t: h(subst(E, t, X)) == subst(G, t, h(X))))

    def broken(x: int) -> int | None:  # the first law x breaks
        if hole:
            return 0
        return next((k for k, (_, apart, _) in enumerate(laws)
                     if any(_bit(x, a) != _bit(x, b) for a, b in apart)), None)

    found = None
    if hole or any(apart for _, apart, _ in laws):
        if isinstance(mode, Random):
            draws = _draws(E.size, 2, mode)
            found = next(((i, x) for i, (x, _) in enumerate(zip(draws, draws))
                          if broken(x) is not None), None)
        else:
            x = 0 if hole else 1 << min(p for _, apart, _ in laws for pair in apart
                                        for p in pair if p is not None)
            found = x << E.size, x

    elements, pairs = (mode.trials,) * 2 if isinstance(mode, Random) else (space, work)
    violation: dict | None = None
    if found:
        index, x = found
        record, _, law = laws[broken(x)]

        def violates(rows: list[int]) -> Elem | None:
            X = Elem(E, rows[0])
            return None if law(X) else X

        violation = dict(record, x=_seq_lists(_rechecked(violates, [x])))
        pairs = index + 1
        elements = pairs if isinstance(mode, Random) else x + 1
    return HomReport(E, G, ("meet", "complement", "subst"), mode.label,
                     mode.seed if isinstance(mode, Random) else None, elements, pairs, violation)


def _swapped_at(E: Carrier, ranks: list[int | None], t: Perm) -> list[int | None]:
    """E._gather_for(t) for t = (i j) at the members of the given ranks (None
    gives None), compiling no other entry: swapping digits i and j of rank r
    adds (d_j - d_i)(w_i - w_j) to r, for digits d_k of weight u**(n-1-k)."""
    i, j = (v for v, w in enumerate(t.images) if v != w)
    u, wi, wj = E.u, E.u ** (E.n - 1 - i), E.u ** (E.n - 1 - j)
    return [None if r is None else E.member_index.get(r + (r // wj % u - r // wi % u) * (wi - wj))
            for r in ranks]


def _bit(x: int, p: int | None) -> int:
    """Bit p of x, or 0 where p is None."""
    return 0 if p is None else x >> p & 1


def _seq_lists(X: Elem) -> list[list[int]]:
    return [list(s) for s in X.seqs()]


# --- decomposition into small algebras ---------------------------------


@dataclass
class DecompositionRecord:
    """One atom's route into a small algebra: restrict to the sequences
    over the base values the atom actually uses, then relabel that base."""

    atom_seq: Seq | None = field(metadata={"key": "atom"})
    base_used: tuple[int, ...]
    k: int
    renaming: dict[int, int]
    target: dict[str, int]  # the small algebra's signature, {"n": n, "k": k}
    image_nonzero: bool
    degenerate: bool = False


@dataclass
class SeparationReport:
    elements: int
    pairs_tested: int
    mode: str
    seed: int | None
    separated: bool
    failure: dict | None


def decompose_small(n: int, k: int, mode: Mode | None = None, budget: int | None = None,
                    seed: int = DEFAULT_SEED) -> tuple[list[DecompositionRecord], SeparationReport]:
    """Build, per atom {q} of the full algebra over ^n k, the map
    'relativize to ^n range(q), then relabel the base'; check each atom
    survives its own map, and that the maps jointly separate elements.

    Separation fails iff the routes' tables leave some member unread; the
    least unseparated pair of the x-major order over x < y is then (0, {the
    least such member}).  Sampled mode walks the sample stream (x, then y,
    per trial) once, counting the trials that drew x != y up to the first
    unseparated one.  An unseparated pair is re-checked through relativize.
    """
    if _capped_power(k, n, MAX_SUBALGEBRA_ELEMS) > MAX_SUBALGEBRA_ELEMS:
        raise SizeCapExceeded(
            f"decomposition of ^{n} {k} would exceed the cap of {MAX_SUBALGEBRA_ELEMS} atoms"
        )
    A = full_carrier(n, k)
    if A.size == 0:
        # no atoms; the algebra is already the one-element small algebra
        rec = DecompositionRecord(None, (), 0, {}, {"n": n, "k": 0}, True, degenerate=True)
        return [rec], SeparationReport(1, 0, "exhaustive", None, True, None)

    # atoms over the same base values share their route: at most 2**k - 1
    routes: dict[tuple[int, ...], tuple[Carrier, Carrier, dict[int, int]]] = {}
    records: list[DecompositionRecord] = []
    for q in A.seqs:
        base_used = tuple(sorted(set(q)))
        if base_used not in routes:
            # the route over all k values is A itself: relativize then takes
            # its identity shortcut instead of comparing member tuples
            if len(base_used) == k:
                gq = A
            else:
                gq = carrier_from_seqs(n, k, itertools.product(base_used, repeat=n))
            canon, renaming = canonicalize_base(gq)
            # increasing relabel of a full sub-base space
            assert canon == full_carrier(n, len(base_used))
            routes[base_used] = (gq, canon, renaming)
        gq, canon, renaming = routes[base_used]
        image = Elem(canon, relativize(atom(A, q), gq).bits)
        records.append(
            DecompositionRecord(q, base_used, len(base_used), renaming,
                                {"n": n, "k": len(base_used)}, not is_zero(image))
        )

    space = 1 << A.size
    # separation is checked pairwise, so budget the quadratic cost
    mode = resolve_mode(space * (space - 1) // 2, mode, budget, seed)
    # separation: h_b x = h_b y for every route b  =>  x = y.  x and y agree
    # under every route just where they agree on the members some route
    # reads.  pairs_tested counts the pairs x < y of the x-major order, or
    # the trials that drew x != y, up to and including the witness
    read = set().union(*(gq._gather_from(A) for gq, *_ in routes.values()))
    unread = [p for p in range(A.size) if p not in read]
    found: tuple[int, int] | None = None
    if isinstance(mode, Random):
        seen = space - 1 - sum(1 << p for p in unread)
        pairs = 0
        draws = _draws(A.size, 2, mode)
        for xb, yb in zip(draws, draws):
            if xb != yb:
                pairs += 1
                if not (xb ^ yb) & seen:
                    found = xb, yb
                    break
    elif unread:
        # the least unseparated pair is x = 0 and y the least unread member,
        # after the pairs (0, y') for 0 < y' < y
        found = 0, 1 << unread[0]
        pairs = found[1]
    else:
        pairs = space * (space - 1) // 2

    violation: dict | None = None
    if found:
        def violates(rows: list[int]) -> tuple[Elem, Elem] | None:
            X, Y = (Elem(A, bits) for bits in rows)
            if X == Y or any(relativize(X, gq) != relativize(Y, gq) for gq, *_ in routes.values()):
                return None
            return X, Y

        X, Y = _rechecked(violates, list(found))
        violation = {"x": _seq_lists(X), "y": _seq_lists(Y)}
    sep = SeparationReport(space, pairs, mode.label, mode.seed if isinstance(mode, Random) else None,
                           violation is None, violation)
    return records, sep


# --- sigma in the small algebras ----------------------------------------


@dataclass
class SigmaSmallReport:
    """Certificate plus (budget permitting) brute enumeration, which must
    agree: sigma holds in every full algebra over ^n k."""

    n: int
    k: int
    pairs_mode: str
    pairs_checked: int
    certificate_holds: bool
    constants_checked: int
    perms_checked: int
    brute_ran: bool
    brute_mode: str | None
    brute_seed: int | None
    brute_holds: bool | None
    assignments_tested: int
    counterexample: dict | None
    note: str

    @property
    def agree(self) -> bool:
        return (not self.brute_ran) or self.certificate_holds == self.brute_holds

    @property
    def holds(self) -> bool:
        return self.certificate_holds and (not self.brute_ran or bool(self.brute_holds))


def sigma_holds_small(n: int, k: int, pairs: str | tuple[Perm, Perm] = "all",
                      mode: Mode | None = None, budget: int | None = None,
                      seed: int = DEFAULT_SEED) -> SigmaSmallReport:
    """Verify sigma over the full algebra on ^n k, either for all
    permutation pairs ('all', capped at n <= 5) or for one given pair.
    Any finite base works — the certificate needs no relation between k
    and n, which is exactly why sigma cannot tell the class generated by
    the small algebras apart from the full ones.

    Certificate route: every constant sequence is a fixed point of every
    coordinate permutation, so for constant q and any X we get
    q in s_f X | s_g X  iff  q in X — the hypothesis of sigma therefore
    has no solutions on a nonempty carrier, and on the empty carrier the
    conclusion 0 = 1 holds outright.  Brute route: check_quasi per pair.
    If the brute route exceeds its budget only the certificate runs and
    the report says so.
    """
    if n < 0 or k < 0:
        raise ValueError("dimension and base size must be naturals")
    D = full_carrier(n, k)

    if pairs == "all":
        if n > 5:
            raise ValueError("all-pairs mode is capped at dimension 5")
        pool = list(all_perms(n))
        pair_list = [(f, g) for f in pool for g in pool]
        scope = pool
        pairs_mode = "all-pairs"
    else:
        f, g = pairs
        if f.n != n or g.n != n:
            raise DimensionMismatch(f"permutation dimensions {f.n}, {g.n} do not match n={n}")
        pair_list = [(f, g)]
        scope = [f] if f == g else [f, g]
        pairs_mode = f"given {f.fmt()} {g.fmt()}"

    constants = [s for s in D.seqs if is_constant(s)]
    fixed = all(compose_right(q, p) == q for q in constants for p in scope)
    certificate = fixed and (D.size == 0 or bool(constants))

    note = ""
    try:
        brute: Mode | None = resolve_mode((1 << D.size) * len(pair_list), mode, budget, seed)
    except BudgetExceeded as over:
        brute = None
        note = (f"brute enumeration needs {fmt_count(over.work)} evaluations, over budget "
                f"{over.budget}; only the constant-fixpoint certificate ran")

    brute_holds: bool | None = None
    counterexample: dict | None = None
    tested = 0
    if brute is not None:
        brute_holds = True
        for f, g in pair_list:
            v = check_quasi(D, sigma(n, f, g), brute)
            tested += v.assignments_tested
            if not v.holds:
                brute_holds = False
                counterexample = {
                    "f": list(f.images),
                    "g": list(g.images),
                    "witness": {nm: [list(s) for s in e.seqs()] for nm, e in v.witness.items()},
                }
                break

    return SigmaSmallReport(
        n=n,
        k=k,
        pairs_mode=pairs_mode,
        pairs_checked=0 if brute is None else len(pair_list),
        certificate_holds=certificate,
        constants_checked=len(constants),
        perms_checked=len(scope),
        brute_ran=brute is not None,
        brute_mode=None if brute is None else brute.label,
        brute_seed=brute.seed if isinstance(brute, Random) else None,
        brute_holds=brute_holds,
        assignments_tested=tested,
        counterexample=counterexample,
        note=note,
    )


# --- the failing instance ----------------------------------------------


@dataclass
class CounterexampleReport:
    """sigma fails over the unit sequences: with f, g the two n-cycles and
    X the units at odd coordinates, s_f X | s_g X lands exactly on ~X."""

    n: int
    carrier: Carrier
    f: Perm
    g: Perm
    x: Elem
    permutable: bool
    union_is_complement: bool
    complement_is_even_units: bool
    carrier_nonempty: bool
    named_witness_falsifies: bool
    verdict: Verdict
    witness_is_named: bool

    @property
    def passed(self) -> bool:
        return (
            self.permutable
            and self.union_is_complement
            and self.complement_is_even_units
            and self.carrier_nonempty
            and self.named_witness_falsifies
            and self.verdict.outcome == "fails"
        )


def build_counterexample(n: int) -> CounterexampleReport:
    """Construct the failing instance of sigma over the algebra on the n
    unit sequences (base 2), with the forward and backward n-cycles."""
    if n < 2:
        raise ValueError("the construction needs at least two coordinates")
    G = unit_carrier(n)
    f = forward_cycle(n)
    g = backward_cycle(n)
    X = elem_from_seqs(G, (unit_seq(n, i) for i in range(1, n, 2)))
    evens = elem_from_seqs(G, (unit_seq(n, i) for i in range(0, n, 2)))

    union = join(subst(G, f, X), subst(G, g, X))
    comp = complement(X)
    qe = sigma(n, f, g)
    verdict = check_quasi(G, qe, Exhaustive())
    return CounterexampleReport(
        n=n,
        carrier=G,
        f=f,
        g=g,
        x=X,
        permutable=is_permutable(G),
        union_is_complement=union == comp,
        complement_is_even_units=comp == evens,
        carrier_nonempty=G.size > 0,
        named_witness_falsifies=quasi_violated(G, qe, {"x": X}),
        verdict=verdict,
        witness_is_named=verdict.witness == {"x": X},
    )


# --- escape from the variety --------------------------------------------


@dataclass
class EscapeReport:
    """sigma survives every full algebra over ^n n but dies in one of its
    homomorphic images, so no equational axiomatization can pin the class
    generated by the small algebras."""

    n: int
    hom: HomReport
    surjective: bool
    sigma_big: SigmaSmallReport
    sigma_sub: Verdict
    sub_nondegenerate: bool

    @property
    def passed(self) -> bool:
        return (
            self.hom.passed
            and self.surjective
            and self.sigma_big.holds
            and self.sigma_big.agree
            and self.sigma_sub.outcome == "fails"
            and self.sub_nondegenerate
        )


def verify_h_escape(n: int, budget: int | None = None, seed: int = DEFAULT_SEED) -> EscapeReport:
    """Check the whole escape route at dimension n: the unit-sequence
    carrier (re-based into ^n n) is permutable, relativization onto it is
    a surjective homomorphism, sigma holds upstairs, and fails downstairs.
    """
    if n < 2:
        raise ValueError("the escape needs at least two coordinates")
    E = full_carrier(n, n)
    G = unit_carrier(n, n)
    hom = verify_relativization(E, G, mode=None, budget=budget, seed=seed)

    surjective = True
    for yb in range(1 << G.size):
        y = Elem(G, yb)
        lift = elem_from_seqs(E, y.seqs())
        if relativize(lift, G) != y:
            surjective = False
            break

    f = forward_cycle(n)
    g = backward_cycle(n)
    sigma_big = sigma_holds_small(n, n, pairs=(f, g), mode=None, budget=budget, seed=seed)
    sigma_sub = check_quasi(G, sigma(n, f, g), Exhaustive())
    return EscapeReport(
        n=n,
        hom=hom,
        surjective=surjective,
        sigma_big=sigma_big,
        sigma_sub=sigma_sub,
        sub_nondegenerate=G.size > 0,
    )


# --- principal ultraproducts --------------------------------------------


@dataclass
class UltraproductReport:
    """The ultraproduct by the principal ultrafilter at i0, realized
    through its defining membership condition, coincides with projection
    to factor i0 on every class.  mode is always "exhaustive": the check
    is decided for every class, and classes_tested counts them all, or the
    least misprojected class's index + 1."""

    factor_count: int
    index: int
    classes_tested: int
    projection_agrees: bool
    mode: str
    violation: dict | None

    @property
    def passed(self) -> bool:
        return self.projection_agrees


def _psi_table(target: Carrier) -> list[int | None]:
    """ψ compiled: entry pt is the position, in the principal factor, of
    target sequence pt's representative row there, the sequence itself.
    The filter holds an agreeing set iff it contains i0, so no other
    factor's table matters."""
    idx = target.member_index
    return [idx.get(r) for r in target.members]


def _psi(a: ProductElem, table: list[int | None], i0: int, target: Carrier) -> Elem:
    """ψ element by element, for re-checks: target sequence pt is in the
    image iff the set of factors whose component holds pt's representative
    row belongs to the principal ultrafilter, i.e. iff component i0 holds
    row table[pt]."""
    x = a.components[i0]
    return Elem(target, _apply_gather(table, x.bits, x.carrier.size))


def principal_ultraproduct(factors: list[Carrier], i0: int) -> UltraproductReport:
    """Form the ultraproduct of full-carrier powerset algebras by the
    principal ultrafilter {J : i0 in J} and decide, for every class, that
    the defining membership condition reduces to projection onto factor
    i0.

    ψ gathers component i0 through its compiled table (_psi_table), so it
    is π_i0 on every class iff that table is the identity.  Then ψ is well
    defined on classes and injective, and, as ProductAlgebra's operations
    are componentwise, it preserves the bounds, meet, complement and every
    s_t.  Otherwise the least class ψ moves is the atom at the least
    position a misrouted entry reads or writes: every smaller class lies
    below that position, where each entry reads its own position and no
    misrouted entry reads at all.  That class is reported after a re-check
    through _psi on its lift.
    """
    factors = tuple(factors)
    if not factors:
        raise ValueError("need at least one factor")
    if not 0 <= i0 < len(factors):
        raise ValueError(f"index {i0} out of range for {len(factors)} factors")
    for c in factors:
        if c.size != c.u**c.n:
            raise ValueError("principal ultraproducts are built over full carriers")
    prod = ProductAlgebra(factors)  # validates shared dimension
    target = factors[i0]
    table = _psi_table(target)
    moved = [p for pt, src in enumerate(table) if src != pt for p in (pt, src) if p is not None]
    if not moved:
        return UltraproductReport(len(factors), i0, 1 << target.size, True, "exhaustive", None)

    def misprojected(rows: list[int]) -> dict | None:
        # on the lift with empty components outside i0; ψ reads only i0
        xc = Elem(target, rows[0])
        lift = prod.element(Elem(c, xc.bits if i == i0 else 0) for i, c in enumerate(factors))
        image = _psi(lift, table, i0, target)
        return None if image == xc else {"check": "projection", "class": _seq_lists(xc)}

    least = 1 << min(moved)
    return UltraproductReport(len(factors), i0, least + 1, False, "exhaustive",
                              _rechecked(misprojected, [least]))
