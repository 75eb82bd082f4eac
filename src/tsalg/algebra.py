"""Carriers, powerset elements as bit vectors, and substitution operators.

A carrier is a subset D of the sequence space ^n u.  The algebra lives on
the powerset of D: elements are subsets stored as bit vectors indexed by
*position in D* (not by rank in the ambient space), so relativized
carriers stay dense.  The substitution operator for a permutation f sends
X to {q in D : q . f in X}; per (carrier, permutation) this is compiled
once into a gather, one entry per member: the position of q . f, or None
when q . f is outside D.  Relativizing to a sub-carrier G is a gather as
well, G's member p reading position gather[p] of the super-carrier.  Both
subst and relativize apply the cached list, and so does termlang's
exhaustive evaluator, by columns; the verifiers in theorems decide their
laws from these tables alone.  termlang's packed rows, which sampled
checks use, apply s_f as a network of delta swaps (swap bit p with bit
p + d for every p in a mask; Knuth, TAOCP 4A, 7.1.3): on a full carrier
^n u, u - 1 swaps per transposition sorting f, one per difference of the
two digits it exchanges; on any other carrier its gather is extended to
a permutation and routed through a Benes network, then masked to its
defined positions.

A carrier is *permutable* when it is closed under swapping any two
coordinates of its members (hence under every coordinate permutation):
it is a union of orbits, an orbit being all rearrangements of one
sorted content.  The n - 1 neighbouring swaps generate every coordinate
permutation, so they alone decide it, and an orbit walk over them builds
a closure.  Each swap moves a member's rank by one formula (_swapped_at).
On permutable carriers the substitution operators are Boolean
endomorphisms and compose functorially; on arbitrary carriers only the
literal definition is promised.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .seqspace import (
    DimensionMismatch,
    Perm,
    Seq,
    SpaceRank,
    fmt_seq,
    rank,
    transposition,
    unrank,
)

#: Hard ceiling on carrier enumeration (members of D).
MAX_CARRIER_MEMBERS = 1 << 20

#: Hard ceiling on generated subalgebra size (elements of the closure).
MAX_SUBALGEBRA_ELEMS = 1 << 16

#: Hard ceiling on permutable_subsets' output (unions of orbits).
MAX_ORBIT_UNIONS = 1 << 16

#: Hard ceiling on a carrier's dimension (past 20 only bases 0 and 1 fit
#: MAX_CARRIER_MEMBERS; the verifiers check n(n-1)/2 transpositions).
MAX_DIMENSION = 64


class CarrierMismatch(ValueError):
    """An element is used with a carrier it does not belong to."""


class SizeCapExceeded(RuntimeError):
    """A construction would exceed its configured size cap."""


def _capped_power(u: int, n: int, cap: int) -> int:
    """u**n when it is at most cap, otherwise some value above cap.  The
    power is formed only when the lower bound 2**((bits(u) - 1) * n) does
    not pass cap, so it is never much wider than cap."""
    if u > 1 and (u.bit_length() - 1) * n > cap.bit_length():
        return cap + 1
    return u**n


def _rank_unchecked(s: Seq, u: int) -> SpaceRank:
    r = 0
    for e in s:
        r = r * u + e
    return r


class Carrier:
    """An ordered subset of ^n u with a membership index.

    members holds ranks in strictly increasing order, so position in the
    carrier is itself a canonical order.  Structurally equal carriers
    (same n, u, members) are interchangeable; the permutability flag and
    the compiled gathers are write-once caches.  full says whether the
    carrier is the whole space ^n u.
    """

    __slots__ = ("n", "u", "members", "member_index", "full", "_seqs", "_permutable", "_gathers",
                 "_networks", "_tiles", "_hash")

    def __init__(self, n: int, u: int, members: Iterable[SpaceRank]):
        if n < 0 or u < 0:
            raise ValueError("dimension and base size must be non-negative")
        if n > MAX_DIMENSION:
            raise SizeCapExceeded(f"dimension {n} exceeds the cap of {MAX_DIMENSION}")
        self.n = n
        self.u = u
        self.members: tuple[SpaceRank, ...] = tuple(members)
        total = _capped_power(u, n, max(self.members, default=0))
        prev = -1
        for r in self.members:
            if r <= prev:
                raise ValueError("carrier members must be strictly increasing ranks")
            if not 0 <= r < total:
                raise ValueError(f"rank {r} out of range for dimension {n} over base {u}")
            prev = r
        self.member_index: dict[SpaceRank, int] = {r: p for p, r in enumerate(self.members)}
        self.full = _capped_power(u, n, self.size) == self.size
        self._seqs: tuple[Seq, ...] | None = None
        self._permutable: bool | None = None
        # keyed by permutation images (see _gather_for) or by a super-carrier
        # (see _gather_from)
        self._gathers: dict[object, list] = {}
        # keyed by permutation images (see _network_for) or by
        # ("swap", i, j) (see _digit_swaps)
        self._networks: dict[tuple, object] = {}
        # rows of bits repeated for packed rows, with their height (see _tiled)
        self._tiles: dict[tuple[int, int], tuple[int, int]] = {}
        # cached: a carrier keys its sub-carriers' gather caches, looked up
        # on every relativize
        self._hash = hash((n, u, self.members))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def seqs(self) -> tuple[Seq, ...]:
        """Member sequences in carrier (= rank) order, which is product's
        order on a full carrier."""
        if self._seqs is None:
            self._seqs = tuple(itertools.product(range(self.u), repeat=self.n) if self.full
                               else (unrank(r, self.n, self.u) for r in self.members))
        return self._seqs

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Carrier):
            return NotImplemented
        return (self.n, self.u, self.members) == (other.n, other.u, other.members)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.size <= 8:
            body = "{" + ", ".join(fmt_seq(s) for s in self.seqs) + "}"
        else:
            body = f"{self.size} sequences"
        return f"Carrier(n={self.n}, u={self.u}, {body})"

    def _gather_for(self, f: Perm) -> list[int | None]:
        """s_f compiled as a gather: entry p is the position of the member
        p . f, or None when that composite is outside the carrier."""
        key = f.images
        gather = self._gathers.get(key)
        if gather is None:
            if f.n != self.n:
                raise DimensionMismatch(
                    f"permutation of dimension {f.n} on a carrier of dimension {self.n}"
                )
            idx = self.member_index
            u = self.u
            if self.n and self.full:
                # the full carrier: digit w of p is digit f^-1(w) of p . f,
                # so walk p's digits from the most significant, looking the
                # last one up as it goes
                *high, low = [u ** (self.n - 1 - key.index(w)) for w in range(self.n)]
                ranks = [0]
                for weight in high:
                    ranks = [t + d * weight for t in ranks for d in range(u)]
                gather = [idx[t + d * low] for t in ranks for d in range(u)]
            else:
                gather = [idx.get(_rank_unchecked(tuple(s[v] for v in key), u)) for s in self.seqs]
            self._gathers[key] = gather
        return gather

    def _network_for(self, f: Perm) -> tuple[int, tuple[tuple[int, int], ...], int | None]:
        """s_f as (width, swaps, defined), the map of _gather_for(f) on a row
        of width bits: each (d, m) of swaps in turn exchanges each bit p of m
        with bit p + d in the row, then defined, if not None, masks the row."""
        net = self._networks.get(f.images)
        if net is None:
            if f.n != self.n:
                raise DimensionMismatch(
                    f"permutation of dimension {f.n} on a carrier of dimension {self.n}"
                )
            if self.full:
                # s_f applies, in order, the transpositions sorting f's images
                images, swaps = list(f.images), []
                for v in range(self.n):
                    if images[v] != v:
                        w = images.index(v, v + 1)
                        images[v], images[w] = v, images[v]
                        swaps += self._digit_swaps(v, w)
                net = (self.size, tuple(swaps), None)
            else:
                net = _benes_network(self._gather_for(f))
            self._networks[f.images] = net
        return net

    def _tiled(self, mask: int, nbytes: int, rows: int) -> int:
        """mask, a row's bits, repeated for rows rows nbytes bytes apart and
        cached per carrier, so networks sharing a transposition share it:
        one tile per (mask, nbytes), rebuilt when asked for another height."""
        if rows == 1:
            return mask
        held = self._tiles.get((mask, nbytes))
        if held is None or held[0] != rows:
            held = self._tiles[mask, nbytes] = (rows, _repeat_row(mask, nbytes, rows))
        return held[1]

    def _digit_swaps(self, i: int, j: int) -> list[tuple[int, int]]:
        """s_t for t = (i j), i < j, on the full carrier ^n u: per c in
        1..u-1, member p whose digit j exceeds its digit i by c swaps with
        p + c * (u**(n-1-i) - u**(n-1-j)), which has those digits exchanged."""
        swaps = self._networks.get(("swap", i, j))
        if swaps is None:
            u = self.u
            wi, wj = u ** (self.n - 1 - i), u ** (self.n - 1 - j)
            swaps = []
            for c in range(1, u):
                # one period of digit i: digit i = a in bits [a*wi, (a+1)*wi),
                # and within those, digit j = a + c every u*wj bits
                block = 0
                for a in range(u - c):
                    block |= _tile(((1 << wj) - 1) << (a + c) * wj, u * wj, wi // (u * wj)) << a * wi
                swaps.append((c * (wi - wj), _tile(block, u * wi, u**i)))
            self._networks[("swap", i, j)] = swaps
        return swaps

    def _gather_from(self, E: "Carrier") -> list[int]:
        """x -> x ∩ self for x over the super-carrier E, compiled as a
        gather: entry p is the position in E of this carrier's member p."""
        gather = self._gathers.get(E)
        if gather is None:
            if (E.n, E.u) != (self.n, self.u):
                raise ValueError("sub-carrier lives in a different sequence space")
            eidx = E.member_index
            gather = [eidx.get(r) for r in self.members]
            if None in gather:
                raise ValueError("not a sub-carrier of the bigger carrier")
            self._gathers[E] = gather
        return gather


def _repeat_row(bits: int, nbytes: int, rows: int) -> int:
    """rows copies of the row bits, nbytes bytes apart."""
    return int.from_bytes(bits.to_bytes(nbytes, "little") * rows, "little")


def _tile(block: int, period: int, count: int) -> int:
    """count copies of block, period bits apart, in O(log count) steps."""
    out = shift = 0
    while count:
        if count & 1:
            out |= block << shift
            shift += period
        block |= block << period
        period <<= 1
        count >>= 1
    return out


def _mask(flags: list[bool]) -> int:
    """The int whose bit p is flags[p]."""
    return int("0" + "".join(["1" if b else "0" for b in reversed(flags)]), 2)


def _benes(dest: list[int]) -> list[tuple[int, int]]:
    """Delta swaps moving bit s to bit dest[s], for a permutation dest of
    a power-of-two length: the stages of a Benes network, at distances
    n/2, n/4, ..., 1, ..., n/4, n/2, routed by the looping algorithm."""
    n = len(dest)
    h = n // 2
    if not h:
        return []
    src = [0] * n
    for s, t in enumerate(dest):
        src[t] = s
    # upper[s]: bit s crosses the inner half-size networks in the upper one.
    # The two bits of an input pair s, s ^ h take different halves, and so
    # do the two bound for an output pair t, t ^ h; follow each cycle of
    # these constraints from a lower input.
    upper = [False] * n
    seen = [False] * n
    for first in range(h):
        s = first
        while not seen[s]:
            seen[s] = seen[s ^ h] = upper[s ^ h] = True
            s = src[dest[s ^ h] ^ h]
    halves: list[list[int]] = [[0] * h, [0] * h]
    for s, t in enumerate(dest):
        halves[upper[s]][s & (h - 1)] = t & (h - 1)
    inner = [(d, low | high << h) for (d, low), (_, high) in zip(*map(_benes, halves))]
    return [(h, _mask(upper[:h])), *inner, (h, _mask([upper[src[t]] for t in range(h)]))]


def _benes_network(gather: list[int | None]) -> tuple[int, tuple[tuple[int, int], ...], int | None]:
    """The gather, a partial injection of its own positions into
    themselves, extended to a permutation of a power-of-two row (empty
    entries take the unused positions), routed through _benes, masked.
    Any other gather raises ValueError: no network would route it."""
    size = len(gather)
    used = set(gather) - {None}
    if len(used) != size - gather.count(None) or not used <= set(range(size)):
        raise ValueError("a network routes only a partial injection into the row")
    width = 1 << max(size - 1, 0).bit_length()
    unused = iter([p for p in range(size) if p not in used])
    source = [next(unused) if src is None else src for src in gather] + list(range(size, width))
    dest = [0] * width
    for p, src in enumerate(source):
        dest[src] = p
    swaps = tuple((d, m) for d, m in _benes(dest) if m)
    defined = _mask([src is not None for src in gather]) if None in gather else None
    return width, swaps, defined


def full_carrier(n: int, u: int) -> Carrier:
    """The whole space ^n u as a carrier (always permutable)."""
    cap = MAX_CARRIER_MEMBERS
    count = _capped_power(u, n, cap)
    if count > cap:
        raise SizeCapExceeded(f"full carrier of ^{n} {u} would exceed the cap of {cap} members")
    return Carrier(n, u, range(count))


def carrier_from_seqs(n: int, u: int, seqs: Iterable[Seq]) -> Carrier:
    """Carrier from explicit member sequences (deduplicated, rank-sorted)."""
    cap = MAX_CARRIER_MEMBERS
    ranks: set[SpaceRank] = set()
    for s in seqs:
        t = tuple(s)
        if len(t) != n:
            raise DimensionMismatch(f"sequence {t!r} does not have {n} coordinates")
        ranks.add(rank(t, u))
        if len(ranks) > cap:
            raise SizeCapExceeded(f"carrier exceeds cap of {cap} members")
    return Carrier(n, u, sorted(ranks))


def _swapped_at(D: Carrier, ranks: Iterable[SpaceRank | None], i: int, j: int) -> list[SpaceRank | None]:
    """Each rank of D's space ^n u with its digits i and j exchanged (None
    stays None): for digits d_k of weight w_k = u**(n-1-k), rank r gains
    (d_j - d_i)(w_i - w_j)."""
    u, wi, wj = D.u, D.u ** (D.n - 1 - i), D.u ** (D.n - 1 - j)
    return [None if r is None else r + (r // wj % u - r // wi % u) * (wi - wj) for r in ranks]


def _swap_closed(D: Carrier) -> bool:
    """Whether D is closed under swapping any two coordinates of its
    members, decided afresh: the whole space is, and otherwise the n - 1
    neighbouring swaps, which generate every coordinate permutation, are
    tried on every member."""
    idx = D.member_index
    return D.full or all(r in idx for i in range(D.n - 1) for r in _swapped_at(D, D.members, i, i + 1))


def is_permutable(D: Carrier) -> bool:
    """Whether D is closed under every coordinate swap (_swap_closed),
    computed once per carrier and cached."""
    if D._permutable is None:
        D._permutable = _swap_closed(D)
    return D._permutable


def permutable_closure(D: Carrier) -> Carrier:
    """Smallest permutable carrier containing D: D itself when it is
    permutable, else the union of its members' orbits.  That is sized
    before it is built, at n!/prod(m_v!) members per distinct sorted
    content of D's members (m_v the count of value v), and then walked from
    D over the neighbouring swaps."""
    if is_permutable(D):
        return D
    cap = MAX_CARRIER_MEMBERS
    contents = {tuple(sorted(s)) for s in D.seqs}
    size = sum(math.factorial(D.n) // math.prod(math.factorial(c.count(v)) for v in set(c))
               for c in contents)
    if size > cap:
        raise SizeCapExceeded(f"closure exceeds cap of {cap} members")
    seen = set(D.members)
    frontier = list(D.members)
    while frontier:
        nxt = []
        for i in range(D.n - 1):
            for r in _swapped_at(D, frontier, i, i + 1):
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return Carrier(D.n, D.u, sorted(seen))


def permutable_subsets(n: int, u: int) -> list[Carrier]:
    """All permutable subsets of ^n u, i.e. all unions of coordinate-swap
    orbits, one orbit per sorted content.  Exponential in the orbit count,
    C(n + u - 1, n), so that count is checked against a cap first."""
    count = _capped_power(u, n, MAX_CARRIER_MEMBERS)
    if count > MAX_CARRIER_MEMBERS:
        raise SizeCapExceeded(f"space ^{n} {u} exceeds the cap of {MAX_CARRIER_MEMBERS} sequences")
    # ^0 0 holds one sequence, the empty one, where the formula reads C(-1, 0)
    orbit_count = math.comb(n + u - 1, n) if n + u else 1
    if 1 << orbit_count > MAX_ORBIT_UNIONS:
        raise SizeCapExceeded(f"2^{orbit_count} orbit unions exceed cap of {MAX_ORBIT_UNIONS}")
    # contents in lexicographic order: each is its orbit's least member
    orbits = [permutable_closure(Carrier(n, u, [_rank_unchecked(c, u)])).members
              for c in itertools.combinations_with_replacement(range(u), n)]
    out = []
    for pick in range(1 << len(orbits)):
        members = sorted(
            itertools.chain.from_iterable(orb for k, orb in enumerate(orbits) if pick >> k & 1)
        )
        c = Carrier(n, u, members)
        c._permutable = True
        out.append(c)
    return out


def _bit_positions(bits: int) -> Iterator[int]:
    """The set bits of bits >= 0, lowest first, from one binary string:
    linear in the width, where clearing each bit in turn would copy the
    whole int per bit."""
    text = format(bits, "b")[::-1]  # text[p] is bit p
    p = text.find("1")
    while p >= 0:
        yield p
        p = text.find("1", p + 1)


@dataclass(frozen=True, repr=False)
class Elem:
    """A subset of a carrier, stored as a bit vector over member positions."""

    carrier: Carrier
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.carrier.size:
            raise ValueError("bit vector does not fit the carrier")

    def seqs(self) -> list[Seq]:
        cs = self.carrier.seqs
        return [cs[p] for p in _bit_positions(self.bits)]

    def fmt(self) -> str:
        return "{" + ", ".join(fmt_seq(s) for s in self.seqs()) + "}"

    def __repr__(self) -> str:
        if self.carrier.size <= 64:
            return f"Elem({self.fmt()})"
        return f"Elem(<{self.bits.bit_count()} of {self.carrier.size} members>)"


def _same_carrier(x: Elem, y: Elem) -> Carrier:
    if x.carrier is not y.carrier and x.carrier != y.carrier:
        raise CarrierMismatch("elements belong to different carriers")
    return x.carrier


def _owned(D: Carrier, x: Elem) -> None:
    if x.carrier is not D and x.carrier != D:
        raise CarrierMismatch("element does not belong to the given carrier")


def zero(D: Carrier) -> Elem:
    return Elem(D, 0)


def one(D: Carrier) -> Elem:
    return Elem(D, (1 << D.size) - 1)


def meet(x: Elem, y: Elem) -> Elem:
    return Elem(_same_carrier(x, y), x.bits & y.bits)


def join(x: Elem, y: Elem) -> Elem:
    return Elem(_same_carrier(x, y), x.bits | y.bits)


def complement(x: Elem) -> Elem:
    return Elem(x.carrier, x.bits ^ ((1 << x.carrier.size) - 1))


def is_zero(x: Elem) -> bool:
    return x.bits == 0


def leq(x: Elem, y: Elem) -> bool:
    _same_carrier(x, y)
    return x.bits & ~y.bits == 0


def atom(D: Carrier, s: Seq) -> Elem:
    """The singleton {s} as an element of the algebra over D."""
    t = tuple(s)
    if len(t) != D.n:
        raise DimensionMismatch(f"sequence {t!r} does not have {D.n} coordinates")
    p = D.member_index.get(rank(t, D.u))
    if p is None:
        raise ValueError(f"sequence {fmt_seq(t)} is not a member of the carrier")
    return Elem(D, 1 << p)


def elem_from_seqs(D: Carrier, seqs: Iterable[Seq]) -> Elem:
    bits = 0
    for s in seqs:
        bits |= atom(D, s).bits
    return Elem(D, bits)


def _apply_gather(gather: list[int | None], bits: int, size: int) -> int:
    """Bit p of the result is bit gather[p] of bits, a vector over size
    positions, or 0 where gather[p] is None."""
    text = format(bits, f"0{size}b")[::-1]  # text[i] is bit i
    return int("0" + "".join(["0" if src is None else text[src] for src in reversed(gather)]), 2)


def subst(D: Carrier, f: Perm, x: Elem) -> Elem:
    """The substitution operator: subst(D, f, X) = {q in D : q . f in X}.

    Total for every carrier; members whose composite leaves D simply never
    enter the result.
    """
    _owned(D, x)
    return Elem(D, _apply_gather(D._gather_for(f), x.bits, D.size))


def generate_subalgebra(D: Carrier, generators: Iterable[Elem]) -> list[Elem]:
    """Least set of elements containing the generators and 0/1, closed
    under meet, complement, and substitution by every transposition.

    Returns the closure in increasing bit-vector order.  On the empty
    carrier the result is the single element 0 (= 1).
    """
    cap = MAX_SUBALGEBRA_ELEMS
    full = (1 << D.size) - 1
    tgathers = [
        D._gather_for(transposition(D.n, i, j))
        for i in range(D.n)
        for j in range(i + 1, D.n)
    ]
    elems: set[int] = set()
    pending: list[int] = []

    def add(b: int) -> None:
        if b not in elems:
            if len(elems) >= cap:
                raise SizeCapExceeded(f"generated subalgebra exceeds cap of {cap} elements")
            elems.add(b)
            pending.append(b)

    add(0)
    add(full)
    for g in generators:
        _owned(D, g)
        add(g.bits)
    while pending:
        b = pending.pop()
        add(full ^ b)
        for g in tgathers:
            add(_apply_gather(g, b, D.size))
        for c in list(elems):
            add(b & c)
    return [Elem(D, b) for b in sorted(elems)]


def relativize(x: Elem, G: Carrier) -> Elem:
    """Intersect x with the sub-carrier G, re-indexed to G's positions.

    This is the map underlying every relativization homomorphism; it is
    defined for any sub-carrier, but is only a homomorphism onto the
    algebra over G when G is permutable.
    """
    E = x.carrier
    if E is G or E == G:
        return Elem(G, x.bits)
    return Elem(G, _apply_gather(G._gather_from(E), x.bits, E.size))


def canonicalize_base(D: Carrier) -> tuple[Carrier, dict[int, int]]:
    """Relabel the base values actually used by D onto {0..m-1}, order
    preserved.  Returns the relabeled carrier and the renaming map.

    Member order is unchanged (an increasing relabeling preserves
    lexicographic order), so positions — and hence bit vectors — carry
    over unchanged.
    """
    used = sorted({e for s in D.seqs for e in s})
    renaming = {v: i for i, v in enumerate(used)}
    m = len(used)
    members = [_rank_unchecked(tuple(renaming[e] for e in s), m) for s in D.seqs]
    out = Carrier(D.n, m, members)
    out._permutable = D._permutable
    return out, renaming


@dataclass(frozen=True, repr=False)
class ProductElem:
    """An element of a direct product: one component per factor."""

    components: tuple[Elem, ...]

    def __repr__(self) -> str:
        return "ProductElem(" + ", ".join(repr(c) for c in self.components) + ")"


class ProductAlgebra:
    """Direct product of the powerset algebras over the given carriers.

    All operations act componentwise; the factors must share a dimension
    so substitution makes sense across the board.
    """

    def __init__(self, factors: Iterable[Carrier]):
        self.factors = tuple(factors)
        if not self.factors:
            raise ValueError("a product needs at least one factor")
        n = self.factors[0].n
        for c in self.factors[1:]:
            if c.n != n:
                raise DimensionMismatch("product factors must share their dimension")
        self.n = n

    def element(self, components: Iterable[Elem]) -> ProductElem:
        comps = tuple(components)
        if len(comps) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} components, got {len(comps)}")
        for e, c in zip(comps, self.factors):
            _owned(c, e)
        return ProductElem(comps)

    def _components(self, a: ProductElem) -> tuple[Elem, ...]:
        if len(a.components) != len(self.factors):
            raise CarrierMismatch("product element has the wrong number of components")
        for e, c in zip(a.components, self.factors):
            _owned(c, e)
        return a.components

    def zero(self) -> ProductElem:
        return ProductElem(tuple(zero(c) for c in self.factors))

    def one(self) -> ProductElem:
        return ProductElem(tuple(one(c) for c in self.factors))

    def meet(self, a: ProductElem, b: ProductElem) -> ProductElem:
        return ProductElem(tuple(meet(x, y) for x, y in zip(self._components(a), self._components(b))))

    def join(self, a: ProductElem, b: ProductElem) -> ProductElem:
        return ProductElem(tuple(join(x, y) for x, y in zip(self._components(a), self._components(b))))

    def complement(self, a: ProductElem) -> ProductElem:
        return ProductElem(tuple(complement(x) for x in self._components(a)))

    def subst(self, f: Perm, a: ProductElem) -> ProductElem:
        return ProductElem(tuple(subst(c, f, x) for c, x in zip(self.factors, self._components(a))))

    def is_zero(self, a: ProductElem) -> bool:
        return all(is_zero(x) for x in self._components(a))
