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
coordinates of its members (hence under every coordinate permutation).
On permutable carriers the substitution operators are Boolean
endomorphisms and compose functorially; on arbitrary carriers only the
literal definition is promised.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
    the compiled gathers are write-once caches.
    """

    __slots__ = ("n", "u", "members", "member_index", "_seqs", "_permutable", "_gathers",
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
        self._seqs: tuple[Seq, ...] | None = None
        self._permutable: bool | None = None
        # keyed by permutation images (see _gather_for) or by a super-carrier
        # (see _gather_from)
        self._gathers: dict[object, list] = {}
        # keyed by permutation images (see _network_for) or by
        # ("swap", i, j) (see _digit_swaps)
        self._networks: dict[tuple, object] = {}
        # masks of the networks repeated for packed rows (see Network.tiled)
        self._tiles: dict[tuple[int, int, int], int] = {}
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
            full = self.size == self.u**self.n
            self._seqs = tuple(itertools.product(range(self.u), repeat=self.n) if full
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
            if self.n and _capped_power(u, self.n, self.size) == self.size:
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

    def _network_for(self, f: Perm) -> "Network":
        """s_f compiled as a Network: the same map as _gather_for(f)."""
        net = self._networks.get(f.images)
        if net is None:
            if f.n != self.n:
                raise DimensionMismatch(
                    f"permutation of dimension {f.n} on a carrier of dimension {self.n}"
                )
            if _capped_power(self.u, self.n, self.size) == self.size:
                # s_f applies, in order, the transpositions sorting f's images
                images, swaps = list(f.images), []
                for v in range(self.n):
                    if images[v] != v:
                        w = images.index(v, v + 1)
                        images[v], images[w] = v, images[v]
                        swaps += self._digit_swaps(v, w)
                net = Network(self.size, tuple(swaps), None, self._tiles)
            else:
                net = _benes_network(self._gather_for(f), self._tiles)
            self._networks[f.images] = net
        return net

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


class Network:
    """s_f on a row of width bits: each (d, mask) of swaps, in order,
    exchanges bit p with bit p + d for every bit p of mask, then defined,
    unless None, clears what s_f leaves empty.  No swap leaves the row."""

    __slots__ = ("width", "swaps", "defined", "_tiles")

    def __init__(self, width: int, swaps: tuple[tuple[int, int], ...], defined: int | None,
                 tiles: dict[tuple[int, int, int], int]):
        self.width = width
        self.swaps = swaps
        self.defined = defined
        self._tiles = tiles  # the carrier's, shared by all its networks

    def tiled(self, nbytes: int, rows: int) -> tuple[Sequence[tuple[int, int]], int | None]:
        """swaps and defined for up to rows rows packed nbytes bytes apart,
        each mask repeated per row and cached per carrier and mask, so
        networks sharing a transposition share it."""
        def tile(m: int) -> int:
            key = (m, nbytes, rows)
            if key not in self._tiles:
                self._tiles[key] = _repeat_row(m, nbytes, rows)
            return self._tiles[key]

        if rows == 1:
            return self.swaps, self.defined
        return [(d, tile(m)) for d, m in self.swaps], None if self.defined is None else tile(self.defined)


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


def _benes_network(gather: list[int | None], tiles: dict) -> Network:
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
    return Network(width, swaps, defined, tiles)


def full_carrier(n: int, u: int, *, max_members: int | None = None) -> Carrier:
    """The whole space ^n u as a carrier (always permutable)."""
    cap = MAX_CARRIER_MEMBERS if max_members is None else max_members
    count = _capped_power(u, n, cap)
    if count > cap:
        raise SizeCapExceeded(f"full carrier of ^{n} {u} would exceed the cap of {cap} members")
    c = Carrier(n, u, range(count))
    c._permutable = True
    return c


def carrier_from_seqs(n: int, u: int, seqs: Iterable[Seq], *, max_members: int | None = None) -> Carrier:
    """Carrier from explicit member sequences (deduplicated, rank-sorted)."""
    cap = MAX_CARRIER_MEMBERS if max_members is None else max_members
    ranks: set[SpaceRank] = set()
    for s in seqs:
        t = tuple(s)
        if len(t) != n:
            raise DimensionMismatch(f"sequence {t!r} does not have {n} coordinates")
        ranks.add(rank(t, u))
        if len(ranks) > cap:
            raise SizeCapExceeded(f"carrier exceeds cap of {cap} members")
    return Carrier(n, u, sorted(ranks))


def is_permutable(D: Carrier) -> bool:
    """Whether D is closed under swapping any two coordinates of its members.

    Computed once per carrier and cached.
    """
    if D._permutable is None:
        D._permutable = _compute_permutable(D)
    return D._permutable


def _compute_permutable(D: Carrier) -> bool:
    idx = D.member_index
    u = D.u
    for i in range(D.n):
        for j in range(i + 1, D.n):
            for s in D.seqs:
                if s[i] == s[j]:
                    continue
                t = list(s)
                t[i], t[j] = t[j], t[i]
                if _rank_unchecked(t, u) not in idx:
                    return False
    return True


def permutable_closure(D: Carrier, *, max_members: int | None = None) -> Carrier:
    """Smallest permutable carrier containing D (the orbit closure of its
    members under all coordinate swaps)."""
    cap = MAX_CARRIER_MEMBERS if max_members is None else max_members
    seen: dict[SpaceRank, Seq] = {r: s for r, s in zip(D.members, D.seqs)}
    swaps = [(i, j) for i in range(D.n) for j in range(i + 1, D.n)]
    frontier = list(D.seqs)
    u = D.u
    while frontier:
        nxt = []
        for s in frontier:
            for i, j in swaps:
                if s[i] == s[j]:
                    continue
                t = list(s)
                t[i], t[j] = t[j], t[i]
                r = _rank_unchecked(t, u)
                if r not in seen:
                    if len(seen) >= cap:
                        raise SizeCapExceeded(f"closure exceeds cap of {cap} members")
                    tt = tuple(t)
                    seen[r] = tt
                    nxt.append(tt)
        frontier = nxt
    c = Carrier(D.n, D.u, sorted(seen))
    c._permutable = True
    return c


def permutable_subsets(n: int, u: int, *, max_subsets: int = 1 << 16) -> list[Carrier]:
    """All permutable subsets of ^n u, i.e. all unions of coordinate-swap
    orbits.  Exponential in the orbit count, so guarded by a cap."""
    count = _capped_power(u, n, MAX_CARRIER_MEMBERS)
    if count > MAX_CARRIER_MEMBERS:
        raise SizeCapExceeded(f"space ^{n} {u} exceeds the cap of {MAX_CARRIER_MEMBERS} sequences")
    orbits: list[tuple[SpaceRank, ...]] = []
    claimed: set[SpaceRank] = set()
    for r in range(count):
        if r in claimed:
            continue
        orbit = permutable_closure(Carrier(n, u, [r])).members
        claimed.update(orbit)
        orbits.append(orbit)
    if 1 << len(orbits) > max_subsets:
        raise SizeCapExceeded(f"{1 << len(orbits)} orbit unions exceed cap of {max_subsets}")
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


def generate_subalgebra(D: Carrier, generators: Iterable[Elem], *, max_elems: int | None = None) -> list[Elem]:
    """Least set of elements containing the generators and 0/1, closed
    under meet, complement, and substitution by every transposition.

    Returns the closure in increasing bit-vector order.  On the empty
    carrier the result is the single element 0 (= 1).
    """
    cap = MAX_SUBALGEBRA_ELEMS if max_elems is None else max_elems
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
