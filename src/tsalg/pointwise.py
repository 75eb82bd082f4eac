"""Deciding laws target by target, and the counter columns that this
decision shares with termlang's one-chunk enumeration.

termlang's compiled ops are pointwise on columns: '~', '&' and '|' at
member p read their operands at p, and s_f at table[p] of its gather
table, or is empty where that is None.  Each s_f is the complete operator
of the map q -> q . f, and the complex algebra of a disjoint union of
frames is the product of theirs (Jónsson and Tarski, "Boolean algebras
with operators I", 1951; Goldblatt, "Varieties of complex algebras",
1989).  So the members that the gathers link split P(D) into factors, a
law's sides at p are Boolean functions of the few bits of an assignment
that p's leaf paths reach, and truth tables over those bits decide a law,
hypotheses and all, without enumerating every assignment.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator

from .seqspace import Perm


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


def least_violation(ops: list[tuple], size: int, nvars: int, gather: Callable[[Perm], list[int | None]],
                    hypotheses: list[tuple[int, int]], law: tuple[int, int], chunk_bits: int) -> int | None:
    """The least assignment to the nvars variables of ops, termlang's
    compiled ops over size members, each s_f gathering through gather(f),
    under which every (lhs, rhs) pair of slots in hypotheses agrees and the
    pair law differs, in the canonical enumeration (variable j holds bits
    size * (nvars - 1 - j) + q for its members q), or None.

    The atoms the sides reach at a target, in increasing bit order, count
    through truth tables in the canonical order with every other bit
    clear, chunk_bits atoms at a time: the lowest entry where the
    hypotheses agree is its least solution, where the law differs too its
    least violation.  A target is one member without hypotheses (its least
    solution is 0, and clearing other bits keeps a violation), else one of
    _components, which hold disjoint bits: nothing violates once one has
    no solution, else the least violation is the least, over C*, of C*'s
    least violation joined with every other one's least solution."""
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
    return None if least is None else base + least
