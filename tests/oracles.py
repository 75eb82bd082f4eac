"""Independent re-derivations used as oracles by the test modules.

Everything here works on plain tuples and frozensets of tuples, written
from the definitions rather than on top of the package, so agreement is
evidence and not circularity.
"""

import dataclasses
import functools
import random
from itertools import permutations, product


def lex_sequences(n, u):
    """All length-n sequences over range(u), lexicographically sorted,
    built by recursion rather than itertools or rank arithmetic."""
    if n == 0:
        return [()]
    shorter = lex_sequences(n - 1, u)
    return sorted(tuple(s) + (v,) for s in shorter for v in range(u))


def brute_rank(s, u):
    """Position of s in the sorted enumeration of its space."""
    return lex_sequences(len(s), u).index(tuple(s))


def seq_compose(s, images):
    """s after the coordinate map with the given images: i -> s[images[i]]."""
    return tuple(s[images[i]] for i in range(len(images)))


def brute_subst(members, images, xset):
    """{q in members : q composed with the map lands in xset}."""
    return frozenset(q for q in members if seq_compose(q, images) in xset)


def brute_relativize(xset, gmembers):
    return frozenset(xset) & frozenset(gmembers)


def brute_permutable(members, n):
    """Closed under every coordinate swap (hence under all permutations)."""
    mset = frozenset(members)
    for i in range(n):
        for j in range(i + 1, n):
            for q in mset:
                swapped = list(q)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                if tuple(swapped) not in mset:
                    return False
    return True


def orbit(seq):
    """All coordinate rearrangements of one sequence."""
    return frozenset(permutations(seq))


def swap_images(n, i, j):
    images = list(range(n))
    images[i], images[j] = images[j], images[i]
    return tuple(images)


def brute_closure(members, n, generators):
    """Subalgebra of the powerset of `members` generated by `generators`,
    as frozensets, closed under intersection, complement-in-members, and
    every swap's substitution."""
    universe = frozenset(members)
    swaps = [swap_images(n, i, j) for i in range(n) for j in range(i + 1, n)]
    found = {frozenset(), universe} | {frozenset(g) for g in generators}
    while True:
        fresh = set()
        for a in found:
            cand = universe - a
            if cand not in found:
                fresh.add(cand)
            for sw in swaps:
                cand = brute_subst(universe, sw, a)
                if cand not in found:
                    fresh.add(cand)
            for b in found:
                cand = a & b
                if cand not in found:
                    fresh.add(cand)
        if not fresh:
            return found
        found |= fresh


def elem_set(e):
    """Package element -> frozenset of member tuples (for comparisons)."""
    return frozenset(e.seqs())


def brute_principal_ultraproduct(specs, i0, misroute=None, pair_limit=4):
    """The principal ultraproduct check of theorems.principal_ultraproduct,
    one element at a time, on frozensets of tuples, over every class.

    specs lists each factor's (n, u); every factor is the full space.
    Elements of the product are tuples of frozensets, one per factor.  The
    image of a under psi holds the target sequence t iff the set of factors
    whose component contains t's representative row (t itself in factor
    i0, elsewhere t with every coordinate past that factor's base set to 0)
    belongs to the filter, i.e. contains i0.  misroute maps some target
    sequences to the sequence that factor i0 reads instead, or to None for
    none.

    Every class x, in increasing order of its bit vector, must map to
    itself from its lift with empty components outside i0 and from its
    lift with full ones there; the images are then distinct.  On targets
    of at most pair_limit members, the bounds, meet, complement and every
    s_t are checked too: the meet on every pair of classes, the first
    lifted with empty components outside i0 and the second with full
    ones, and the others on every class's first lift.  Returns the
    report's fields as a dict.
    """
    spaces = [lex_sequences(n, u) for n, u in specs]
    target = spaces[i0]
    misroute = misroute or {}

    def as_set(space, bits):
        return frozenset(q for p, q in enumerate(space) if bits >> p & 1)

    def rep(i, t):
        if i == i0:
            return misroute.get(t, t)
        return tuple(e if e < specs[i][1] else 0 for e in t) if spaces[i] else None

    def psi(a):
        return frozenset(t for t in target
                         if i0 in {i for i, x in enumerate(a) if rep(i, t) in x})

    def lift(xbits, rest):
        return tuple(as_set(target, xbits) if i == i0 else frozenset(space) if rest else frozenset()
                     for i, space in enumerate(spaces))

    size = len(target)
    out = {"classes_tested": 0, "projection_agrees": True, "mode": "exhaustive", "violation": None}

    def broken(check, xbits=None):
        out["projection_agrees"] = check != "projection"
        out["violation"] = {"check": check}
        if xbits is not None:
            out["violation"]["class"] = [list(q) for q in sorted(as_set(target, xbits))]
        return out

    images = set()
    for xb in range(1 << size):
        out["classes_tested"] += 1
        x = as_set(target, xb)
        via_empty, via_full = psi(lift(xb, False)), psi(lift(xb, True))
        if via_empty != x:
            return broken("projection", xb)
        if via_full != via_empty:
            return broken("well-defined", xb)
        images.add(via_empty)
    if len(images) != 1 << size:
        return broken("injective")
    if size > pair_limit:
        return out

    n = specs[0][0]
    swaps = [swap_images(n, i, j) for i in range(n) for j in range(i + 1, n)]
    if psi(lift(0, False)) != frozenset() or psi(tuple(map(frozenset, spaces))) != frozenset(target):
        return broken("bounds")
    for ab in range(1 << size):
        a = lift(ab, False)
        pa = psi(a)
        for bb in range(1 << size):
            b = lift(bb, True)
            if psi(tuple(x & y for x, y in zip(a, b))) != pa & psi(b):
                return broken("meet")
        if psi(tuple(frozenset(s) - x for s, x in zip(spaces, a))) != frozenset(target) - pa:
            return broken("complement")
        for sw in swaps:
            if psi(tuple(brute_subst(s, sw, x) for s, x in zip(spaces, a))) != brute_subst(target, sw, pa):
                return broken("subst")
    return out


def _as_set(space, bits):
    return frozenset(q for p, q in enumerate(space) if bits >> p & 1)


def _lists(xset):
    return [list(q) for q in sorted(xset)]


def brute_relativization(n, big, sub, trials, seed, misroute=None):
    """The sampled check of theorems.verify_relativization, one trial at a
    time on frozensets: per trial x, then y, drawn as getrandbits(|big|)
    over big's members in lex order; the laws h(x & y) = h x & h y,
    h(~x) = ~h x, then h(s_t x) = s_t h x per transposition t, for
    h x = x ∩ sub.  misroute maps some members of sub to the member of big
    that h reads for them instead, or to None for none.  Returns (the
    first violation record or None, the trials tested)."""
    rng = random.Random(seed)
    big, sub = sorted(big), frozenset(sub)
    swaps = [swap_images(n, i, j) for i in range(n) for j in range(i + 1, n)]
    misroute = misroute or {}

    def h(xset):
        return frozenset(g for g in sub if misroute.get(g, g) in xset)

    for trial in range(1, trials + 1):
        x, y = _as_set(big, rng.getrandbits(len(big))), _as_set(big, rng.getrandbits(len(big)))
        if h(x & y) != h(x) & h(y):
            return {"op": "meet", "x": _lists(x), "y": _lists(y)}, trial
        if h(frozenset(big) - x) != sub - h(x):
            return {"op": "complement", "x": _lists(x)}, trial
        for sw in swaps:
            if h(brute_subst(big, sw, x)) != brute_subst(sub, sw, h(x)):
                return {"op": "subst", "perm": list(sw), "x": _lists(x)}, trial
    return None, trials


def brute_separation(n, k, trials, seed, hidden=frozenset()):
    """The separation check of theorems.decompose_small on frozensets: the
    pair x, y of subsets of ^n k is unseparated when x != y and x ∩ G =
    y ∩ G for every route G, the sequences over the values of some atom,
    less the hidden ones on routes over fewer than k values.

    Sampled (trials an int): per trial x, then y, drawn as
    getrandbits(k**n) over ^n k in lex order; returns (the first
    unseparated pair as a failure record or None, the trials up to it
    that drew x != y).  Exhaustive (trials None): the pairs x < y of bit
    vectors in x-major order; returns (the least unseparated pair or None,
    the pairs up to it, or all of them)."""
    space = lex_sequences(n, k)
    routes = []
    for values in {frozenset(q) for q in space}:
        route = frozenset(s for s in space if set(s) <= values)
        routes.append(route if len(values) == k else route - hidden)

    def unseparated(x, y):
        return x != y and all(brute_relativize(x, g) == brute_relativize(y, g) for g in routes)

    tested = 0
    if trials is None:
        sets = [_as_set(space, bits) for bits in range(1 << len(space))]
        # each element's images under every route, so a pair compares two
        images = [tuple(brute_relativize(x, g) for g in routes) for x in sets]
        for xb, x in enumerate(sets):
            for yb in range(xb + 1, len(sets)):
                tested += 1
                if images[xb] == images[yb]:
                    return {"x": _lists(x), "y": _lists(sets[yb])}, tested
        return None, tested
    rng = random.Random(seed)
    for _ in range(trials):
        x, y = _as_set(space, rng.getrandbits(len(space))), _as_set(space, rng.getrandbits(len(space)))
        tested += x != y
        if unseparated(x, y):
            return {"x": _lists(x), "y": _lists(y)}, tested
    return None, tested


def brute_first_violation(members, nvars, laws):
    """The least assignment of nvars subsets of members, in the canonical
    order, under which some law's two sides differ, as (its index, the
    number of its first such law, each variable's bit vector), or None.

    The order counts through bit vectors over members in lex order, the
    first variable most significant; laws holds pairs of functions from
    the list of the variables' frozensets to a frozenset."""
    members = sorted(members)
    as_set = functools.cache(lambda bits: _as_set(members, bits))  # built as first reached
    for index, combo in enumerate(product(range(1 << len(members)), repeat=nvars)):
        env = list(map(as_set, combo))
        broken = [lhs(env) != rhs(env) for lhs, rhs in laws]
        if True in broken:
            return index, broken.index(True), list(combo)
    return None


def law_names(qe):
    """The sorted names of a quasi-equation's variables, by a plain walk of
    its terms' fields: a Var has a name, every other node its operands in
    args or arg."""
    def names(t):
        if hasattr(t, "name"):
            return {t.name}
        operands = t.args if hasattr(t, "args") else (t.arg,) if hasattr(t, "arg") else ()
        return set().union(*map(names, operands))

    return sorted(set().union(*(names(side) for eq in (*qe.hypotheses, qe.conclusion)
                                for side in (eq.lhs, eq.rhs))))


def chain(node, operands):
    """The node (And or Or) that the parser builds over operands: a first
    operand of node's own kind gives its operands in its place, as a
    parenthesized chain does."""
    first, *rest = operands
    return node((*first.args, *rest) if type(first) is node else (first, *rest))


# --- reports: package values, read through their public fields and ranks ---


def _digits(r, n, u):
    """The length-n sequence over range(u) of rank r, as a list."""
    out = []
    for _ in range(n):
        r, d = divmod(r, u)
        out.append(d)
    return out[::-1]


def report_json(value):
    """A report value as JSON data, by the rules the CLI's reports follow.
    Dicts get str keys, and lists, tuples, verdicts (their fields that are
    not None) and dataclasses (their fields, under the field's metadata
    "key" when set, then their public properties) hold JSON data in turn;
    ints of 2^256 or wider in absolute value become "at least 2^m" text.
    A carrier gives n, base, size and, up to 64 members, its members; an
    element its members; a permutation its images: these ints as they are.
    Any other value stays, for json to write or refuse."""
    from tsalg import Carrier, Elem, Perm, Verdict

    if type(value) in (str, bool, float) or value is None:
        return value
    if isinstance(value, int):
        return value if value.bit_length() <= 256 else f"at least 2^{value.bit_length() - 1}"
    if isinstance(value, dict):
        return {str(k): report_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [report_json(v) for v in value]
    if isinstance(value, Carrier):
        d = {"n": value.n, "base": value.u, "size": len(value.members)}
        if len(value.members) <= 64:
            d["members"] = [_digits(r, value.n, value.u) for r in value.members]
        return d
    if isinstance(value, Elem):
        D = value.carrier
        return [_digits(r, D.n, D.u) for p, r in enumerate(D.members) if value.bits >> p & 1]
    if isinstance(value, Perm):
        return list(value.images)
    if isinstance(value, Verdict):
        d = {"outcome": value.outcome, "assignments_tested": value.assignments_tested,
             "trials": value.trials, "seed": value.seed,
             "witness": value.witness and dict(sorted(value.witness.items()))}
        return {k: report_json(v) for k, v in d.items() if v is not None}
    if dataclasses.is_dataclass(value):
        keys = [(f.metadata.get("key", f.name), f.name) for f in dataclasses.fields(value)]
        keys += [(name, name) for name, attr in vars(type(value)).items()
                 if isinstance(attr, property) and not name.startswith("_")]
        return {key: report_json(getattr(value, name)) for key, name in keys}
    return value


def _seq_set(seqs):
    return "{" + ", ".join("(" + ",".join(map(str, tuple(s))) + ")" for s in seqs) + "}"


def _shown(v):
    """One line of a text report for JSON data v."""
    if isinstance(v, list) and v and isinstance(v[0], list) and all(isinstance(e, int) for e in v[0]):
        return _seq_set(v)
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_shown(x)}" for k, x in v.items()) + "}"
    return str(v)


def _set_out(v, depth):
    """The lines of a text report for JSON data v, depth levels in."""
    pad = "  " * depth
    if not isinstance(v, dict):
        return [pad + _shown(v)]
    out = []
    for k, x in v.items():
        if isinstance(x, dict):
            out += [f"{pad}{k}:", *_set_out(x, depth + 1)]
        elif isinstance(x, list) and x and isinstance(x[0], dict):
            out.append(f"{pad}{k}:")
            for i, item in enumerate(x):
                out += [f"{pad}  [{i}]", *_set_out(item, depth + 2)]
        else:
            out.append(f"{pad}{k}: {_shown(x)}")
    return out


def report_text(report):
    """The text form of a cli.RunReport, read from its report_json data."""
    r = report_json(report)
    lines = [f"command: {report.command}"]
    lines += [f"  {k}: {_shown(v)}" for k, v in r["inputs"].items()]
    lines.append(f"mode: {report.mode}" + (f"  seed: {report.seed}" if report.seed is not None else ""))
    lines += [f"  {k}: {v}" for k, v in r["counts"].items()]
    if r["details"]:
        lines += _set_out(r["details"], 0)
    lines.append(f"outcome: {report.outcome}")
    if r["witness"]:
        lines += [f"witness: {name} = {_seq_set(seqs)}" for name, seqs in sorted(r["witness"].items())]
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}  ({report.wall_time_s:.3f}s)")
    return "\n".join(lines)
