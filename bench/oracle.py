"""Independent reference answers for the benchmark's correctness gate.

Everything here works on plain tuples and frozensets of tuples and is
written from the definitions, not on top of tsalg, so agreement with the
program under test is evidence rather than circularity.

Terms are nested tuples::

    ("var", name) | ("0",) | ("1",) | ("~", t) | ("&", a, b) | ("|", a, b)
    | ("s", images, t)      substitution by the permutation with these images
    | ("swap", i, j, t)     substitution by the transposition of i and j

A law is ``(hypotheses, conclusion)`` where each equation is a pair of
terms; an equation is a law without hypotheses.
"""

from itertools import permutations, product


def full_members(n, u):
    """All length-n sequences over range(u), in lexicographic order."""
    return tuple(product(range(u), repeat=n))


def unit_members(n):
    """The 0/1 sequences with exactly one 1, in lexicographic order."""
    return tuple(sorted(tuple(1 if j == i else 0 for j in range(n)) for i in range(n)))


def orbit(seq):
    """Every rearrangement of the coordinates of one sequence."""
    return frozenset(permutations(seq))


def closure(seqs):
    """Smallest set containing seqs and closed under coordinate swaps."""
    out = set()
    for s in seqs:
        out |= orbit(tuple(s))
    return frozenset(out)


def permutable_subsets(n, u):
    """Every union of coordinate-swap orbits of the space ^n u."""
    orbits = sorted({orbit(s) for s in full_members(n, u)}, key=sorted)
    return [
        frozenset().union(*(o for k, o in enumerate(orbits) if pick >> k & 1))
        for pick in range(1 << len(orbits))
    ]


def swap_images(n, i, j):
    images = list(range(n))
    images[i], images[j] = j, i
    return tuple(images)


# --- term text ----------------------------------------------------------


def to_text(t):
    """Fully parenthesised text in the tsalg term grammar."""
    op = t[0]
    if op == "var":
        return t[1]
    if op in ("0", "1"):
        return op
    if op == "~":
        return "~" + to_text(t[1])
    if op in ("&", "|"):
        return f"({to_text(t[1])} {op} {to_text(t[2])})"
    if op == "s":
        return "s{" + ",".join(map(str, t[1])) + "} " + to_text(t[2])
    if op == "swap":
        return f"s[{t[1]},{t[2]}] " + to_text(t[3])
    raise ValueError(f"not a term: {t!r}")


def law_text(law):
    hyps, (lhs, rhs) = law
    concl = f"{to_text(lhs)} = {to_text(rhs)}"
    if not hyps:
        return concl
    return ", ".join(f"{to_text(a)} = {to_text(b)}" for a, b in hyps) + " => " + concl


def _children(t):
    op = t[0]
    if op in ("~", "&", "|"):
        return t[1:]
    if op == "s":
        return (t[2],)
    if op == "swap":
        return (t[3],)
    return ()


def term_vars(t):
    if t[0] == "var":
        return {t[1]}
    return set().union(*(term_vars(a) for a in _children(t)))


def law_vars(law):
    hyps, concl = law
    return set().union(*(term_vars(t) for eq in (*hyps, concl) for t in eq))


def law_perms(law, n):
    """Image lists of every substitution the law applies at dimension n."""
    out = set()

    def walk(t):
        if t[0] == "s":
            out.add(tuple(t[1]))
        elif t[0] == "swap":
            out.add(swap_images(n, t[1], t[2]))
        for a in _children(t):
            walk(a)

    hyps, concl = law
    for eq in (*hyps, concl):
        for t in eq:
            walk(t)
    return out


# --- evaluation ---------------------------------------------------------


def _subst(members, images, x):
    """{q in members : q composed with the map lands in x}."""
    return frozenset(q for q in members if tuple(q[v] for v in images) in x)


def evaluate(t, members, env):
    op = t[0]
    if op == "var":
        return env[t[1]]
    if op == "0":
        return frozenset()
    if op == "1":
        return frozenset(members)
    if op == "~":
        return frozenset(members) - evaluate(t[1], members, env)
    if op == "&":
        return evaluate(t[1], members, env) & evaluate(t[2], members, env)
    if op == "|":
        return evaluate(t[1], members, env) | evaluate(t[2], members, env)
    if op == "s":
        return _subst(members, t[1], evaluate(t[2], members, env))
    if op == "swap":
        n = len(members[0]) if members else 0
        return _subst(members, swap_images(n, t[1], t[2]), evaluate(t[3], members, env))
    raise ValueError(f"not a term: {t!r}")


def violates(law, members, env):
    """True when env satisfies every hypothesis but not the conclusion."""
    hyps, (lhs, rhs) = law
    for a, b in hyps:
        if evaluate(a, members, env) != evaluate(b, members, env):
            return False
    return evaluate(lhs, members, env) != evaluate(rhs, members, env)
