"""Deciding laws member by member, and the counter columns that this
decision shares with termlang's exhaustive enumeration.

A termlang program on columns is pointwise after reindexing: '~', '&' and
'|' at member p read their operands at p, and the gather of s_f at
table[p], or is empty where that is None.  Each s_f is
the complete operator of the map q -> q . f (Jónsson and Tarski, "Boolean
algebras with operators I", 1951; Goldblatt, "Varieties of complex
algebras", 1989).  So a law's sides at p are Boolean functions of the few
bits of an assignment that p's leaf paths reach, and truth tables over
those bits decide the law without enumerating every assignment.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .termlang import _Program


@functools.cache
def _periodic(low: int) -> tuple[int, ...]:
    """The column of each counter bit b < low over 2 ** low counts: bit a
    set where bit b of a is."""
    width = 1 << low
    periodic = []
    for b in range(low):
        half = 1 << b
        col = ((1 << half) - 1) << half
        span = half << 1
        while span < width:
            col |= col << span
            span <<= 1
        periodic.append(col)
    return tuple(periodic)


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


def least_violation(program: _Program, law: tuple[int, int], chunk_bits: int) -> int | None:
    """The least assignment to the variables of program, a termlang
    _Program on columns, under which the slots of law, an (lhs, rhs) pair,
    differ, in the canonical enumeration (variable j holds bits size *
    (nvars - 1 - j) + q for its members q), or None.

    The atoms that the law's sides reach at member p, in increasing bit
    order, count through their truth tables in the canonical order, so the
    lowest differing entry is the least assignment breaking the law at p
    with every other bit clear.  Clearing those bits keeps any violation at
    p, so the least of these over all p is the least violating assignment.
    The tables are taken chunk_bits atoms at a time, so no int is wider
    than an enumeration's chunk."""
    size, nvars = program.size, program.nvars
    lhs, rhs = law
    # node s * size + q stands for slot s at member q
    val = [0] * (len(program) * size)
    least = None
    for p in range(size):
        # the nodes the law's sides read at p, and the atoms among them
        need, todo, atoms = set(), [lhs * size + p, rhs * size + p], []
        while todo:
            node = todo.pop()
            if node not in need:
                need.add(node)
                s, q = divmod(node, size)
                op = program[s]
                kind = op[0]
                if kind == "var":
                    atoms.append(size * (nvars - 1 - op[1]) + q)
                elif kind == "gather":
                    if op[2][q] is not None:
                        todo.append(op[1] * size + op[2][q])
                elif kind == "not":
                    todo.append(op[1] * size + q)
                elif kind == "and" or kind == "or":
                    todo += (op[1] * size + q, op[2] * size + q)
        atoms.sort()
        index = {b: i for i, b in enumerate(atoms)}
        # children hold lower slots than their parents
        order = sorted(need)
        start = 0
        for width, counter in counters(len(atoms), chunk_bits):
            full = (1 << width) - 1
            for node in order:
                s, q = divmod(node, size)
                op = program[s]
                kind = op[0]
                if kind == "var":
                    v = counter[index[size * (nvars - 1 - op[1]) + q]]
                elif kind == "zero":
                    v = 0
                elif kind == "one":
                    v = full
                elif kind == "not":
                    v = val[op[1] * size + q] ^ full
                elif kind == "and":
                    v = val[op[1] * size + q] & val[op[2] * size + q]
                elif kind == "or":
                    v = val[op[1] * size + q] | val[op[2] * size + q]
                else:
                    src = op[2][q]
                    v = 0 if src is None else val[op[1] * size + src]
                val[node] = v
            diff = val[lhs * size + p] ^ val[rhs * size + p]
            if diff:
                c = start + (diff & -diff).bit_length() - 1
                a = sum(1 << b for i, b in enumerate(atoms) if c >> i & 1)
                least = a if least is None else min(least, a)
                break
            start += width
    return least
