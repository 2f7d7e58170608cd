"""The level-one type-C / level-two type-A block bridge.

A block of the type-C algebra with a_0 >= 1 zero-residue nodes is cut by
the rectangle rho = (a_0^(kappa_c + a_0)); the bijection
(lambda, mu) -> rho + (lambda, mu') matches it with the type-A block of
content beta - omega and charges (kappa_c + a_0, a_0).  verify_bridge runs
the counting, graded, dominance, Kleshchev and good-path checks over one
block object per call, whose parts are built on first read.

Every check but dominance reads the bridge's own bit states, which are the
paper's weights: one int per shape, the charge in its bits.  The type-C
state (c_state) holds M(nu, kappa_c) = {kappa_c + nu_r - r}, the type-A
state (a_block's weights) the two Maya sets of a bipartition interleaved,
and a removal moves one element t of a set to t - 1.  The bridge's shapes
give a residue at most two corners, an upper and a lower one: contents i
and -i of a type-C state, or components 1 and 2 of a type-A one.  So an
upper corner's step degree is read off the two bits of the lower one (1 if
addable, -1 if removable), a lower corner's is 0, and the crystal rule
reads four bits: a removable upper corner is good unless the lower one is
addable, else a removable lower corner is; an addable lower corner is
cogood unless the upper one is removable, else an addable upper one is.
The counting and graded checks compare gdim(rho) times the type-C walk
over [rho, nu] (c_walk), the factorizable tableaux of nu, with gdim(rho)
times the type-A walk (a_walk).  A walk reads each removal off the bits
and recurses on it at once, with no list of steps; for a block taller
than a quarter of the recursion limit, every state below the block's is
put in the memos first, from the lowest up (_fill).  Each walk memo holds
one entry per state, at one digit width K for the whole process: at K =
0 the state's tableau count, else the count with its polynomial, one int
in Q = 2^K, so a removal is a shift and an add, and only the report
decodes the ints.  K stays 0 until a graded check runs, then is a
multiple of 16 and only grows: when a block's gdim(rho)(1) times its
largest count needs more bits, both memos are cleared, since no narrower
entry is read again.  The memos found empty start over at K = 0.  What
depends on (kappa_c, a0) alone, rho's content, its JSON, its state and
gdim(rho), is built once per process (rectangle, rho_gdim).  So is each
decode of a partition that a sweep repeats: a type-A lane's rows, keyed
by its bits and charge (_lane_rows), and the two pieces of a member's
image, rho's rows with lambda added, keyed by (lambda, a0, len(rho))
(_image_top), and mu', keyed by mu (_image_bottom).  The
Kleshchev check's two tests follow one good node (c_kleshchev,
a_kleshchev), each a loop with a dict memo, and the good-path check
searches good removals (c_good_walk), recursing once per removal, with
its memo filled from the lowest state up in a block as tall as the walks
fill theirs; each tries the removable bits top first.

The type-C shapes come from one of two sources, decided by the input.  A
sweep (iter_bridges) finds each block by grouping the partitions of each
height by their weight (_block_key), computes the content once per block,
and hands the group to bridge() as c_shapes.  A check of one named block
(one_block_bridge, for klrblocks verify --beta) lists the block with
enumerate_block (c_block) and hands the list to bridge().  A bridge made
by bridge() without shapes (a test) is listed so by verify_bridge, once
per call, before any check runs.  Both give the shapes in the order of
partitions_of, and a_block lists the type-A side off its weights by code
of its own, independent of either."""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from itertools import combinations
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .cartan import CartanType, Charge, NotASubroot, Residue, RootVector
from .graded import gdim_specht
from .partitions import (
    Partition,
    conjugate,
    content,
    dominance_sums,
    enumerate_block,
    partitions_of,
)

Bipartition = Tuple[Partition, Partition]


class BridgeError(ValueError):
    pass


class BlockBridge(NamedTuple):
    kappa_c: int
    beta: RootVector
    a0: int
    rho: Partition
    omega: RootVector
    kappa1: int
    kappa2: int
    a_beta: RootVector  # beta - omega, the content of the type-A block
    # the type-C shapes, when bridge()'s caller has them (iter_bridges,
    # one_block_bridge); None means verify_bridge lists them with c_block,
    # once per call
    c_shapes: Optional[Tuple[Partition, ...]] = None

    @property
    def c_charge(self) -> Charge:
        return (self.kappa_c,)

    @property
    def a_charge(self) -> Charge:
        return (self.kappa1, self.kappa2)

    def to_json(self) -> dict:
        return {
            "kappa_c": self.kappa_c,
            "beta": self.beta.to_json(),
            "a0": self.a0,
            "rho": list(self.rho),
            # a copy: a caller may edit its report, never the memo
            "omega": dict(rectangle(self.kappa_c, self.a0)[2]),
            "kappa1": self.kappa1,
            "kappa2": self.kappa2,
        }


@lru_cache(maxsize=None)
def rectangle(kappa_c: int, a0: int) -> tuple:
    """The bridge's rho = (a0^(kappa_c + a0)), its content, its JSON and
    its c_state."""
    rho = (a0,) * (kappa_c + a0)
    omega = content(CartanType.C, (kappa_c,), (rho,))
    return rho, omega, omega.to_json(), c_state(rho, kappa_c)


@lru_cache(maxsize=None)
def rho_gdim(kappa_c: int, a0: int, K: int) -> tuple:
    """gdim(rho) as (its lowest exponent low, one int in Q = 2^K with digit
    0 at q^low); at K = 0 the int is its value at 1."""
    terms = gdim_specht((rectangle(kappa_c, a0)[0],), CartanType.C, (kappa_c,)).items()
    low, x = min(terms)[0], 0
    for e, c in terms:
        x += c << K * (e - low)
    return low, x


def bridge(kappa_c: int, beta: RootVector,
           c_shapes: Optional[Tuple[Partition, ...]] = None) -> BlockBridge:
    """Populate the bridge datum for a type-C block: rho is the minimal
    rectangle holding all a_0 zero-residue nodes, omega its content, and
    the type-A charges are (kappa_c + a_0, a_0).  c_shapes, given by a
    caller that has listed the block, are its shapes in partitions_of
    order; None has verify_bridge list them."""
    if kappa_c < 0:
        raise BridgeError("kappa_c must be non-negative")
    a0 = beta[0]
    if a0 == 0:
        raise BridgeError("no zero nodes: bridge undefined")
    # checked before rho, of a0 (kappa_c + a0) nodes, is built
    if a0 * (kappa_c + a0) > beta.height:
        raise BridgeError("rectangle content is not contained in beta")
    rho, omega, _, _ = rectangle(kappa_c, a0)
    try:  # rho holds all a0 zero-residue nodes, so rest has none
        rest = beta - omega
    except NotASubroot:
        raise BridgeError("rectangle content is not contained in beta") from None
    return BlockBridge(kappa_c, beta, a0, rho, omega, kappa_c + a0, a0, rest, c_shapes)


def c_block(b: BlockBridge) -> List[Partition]:
    return [mp[0] for mp in enumerate_block(CartanType.C, b.c_charge, b.beta)]


def a_block(b: BlockBridge) -> Dict[Bipartition, int]:
    """The bridge's type-A block in multipartitions_of order, each member
    with its weight: bit 2u + m - 1 holds u >= 0 in M(bp_m, k_m), (k_1, k_2)
    = a_charge.  With a_beta on residues 1 and up, u is in c_u = [u < k_1] +
    [u < k_2] + beta(u) - beta(u + 1) sets: 2 is a cross, 1 free, and each
    pick of the free vertices set 1 lacks is a member.  |lambda| is set 1's
    sum less k_1 (k_1 - 1) / 2; at equal sums the larger lambda has the
    larger pick read from the top, and mu follows lambda."""
    (k1, k2), beta = b.a_charge, b.a_beta
    items = beta.items()
    top = max(k1, items[-1][0] + 1 if items else 0)  # c_u = 0 from top on
    if top > k1 + beta.height:  # a label above every member's nodes
        return {}
    dense = [0] * (top + 1)
    for i, x in items:
        dense[i] = x
    base, free, crosses = 0, [], 0
    for u in range(top):
        c = (u < k1) + (u < k2) + dense[u] - dense[u + 1]
        if c == 2:
            base |= 3 << 2 * u
            crosses += 1
        elif c == 1:
            base |= 2 << 2 * u  # in set 2 unless picked
            free.append(u)
        elif c:
            return {}
    # need >= 0: the c_u sum to k_1 + k_2 >= 2 #crosses
    need, lane, out = k1 - crosses, ((1 << 2 * top) - 1) // 3, {}
    for pick in sorted(combinations(free, need), key=lambda p: (sum(p), p[::-1]),
                       reverse=True):
        w = base
        for u in pick:
            w ^= 3 << 2 * u
        out[_lane_rows(w & lane, k1), _lane_rows(w >> 1 & lane, k2)] = w
    return out


@lru_cache(maxsize=None)
def _lane_rows(bits: int, k: int) -> Partition:
    """The partition of charge k whose Maya set is every u < 0 and each set
    bit 2u of bits: row j is u_j - k + j, read top first while positive.
    Memoized: a block's members repeat each lane, and a sweep its blocks'."""
    rows = []
    while bits:
        u = bits.bit_length() - 1 >> 1
        r = u - k + len(rows) + 1
        if r <= 0:
            break
        rows.append(r)
        bits ^= 1 << 2 * u
    return tuple(rows)


def _rect_image(bp: Bipartition, b: BlockBridge) -> Partition:
    """(lambda, mu) -> rho + (lambda, mu'), with no membership check: a0 +
    lambda_r in each of rho's rows (_image_top), then the rows of mu'
    (_image_bottom).  A member of the type-A block fits: a node of lambda
    below row kappa_c + a0, or of mu below row a0, would have residue 0.
    Both pieces are memoized, since a sweep's blocks repeat them."""
    lam, mu = bp
    return _image_top(lam, b.a0, len(b.rho)) + _image_bottom(mu)


@lru_cache(maxsize=None)
def _image_top(lam: Partition, a0: int, h: int) -> Partition:
    """The h rows of rho = (a0^h) with lambda added to them: a0 + lambda_r,
    then a0 in each row lambda leaves empty."""
    return tuple([a0 + x for x in lam]) + (a0,) * (h - len(lam))


@lru_cache(maxsize=None)
def _image_bottom(mu: Partition) -> Partition:
    """mu', the rows of the image below rho."""
    return conjugate(mu)


def from_type_c(nu: Partition, b: BlockBridge) -> Bipartition:
    """rect_preimage(nu, b) for nu in b's type-C block; a shape of another
    block, whose content is not b.beta, raises BridgeError."""
    if content(CartanType.C, b.c_charge, (nu,)) != b.beta:
        raise BridgeError(f"{nu} is not in the type-C block")
    return rect_preimage(nu, b)


def rect_preimage(nu: Partition, b: BlockBridge) -> Bipartition:
    """rho + (lambda, mu') -> (lambda, mu), the bridge read backwards, with
    no membership check (from_type_c makes it): lambda is nu beyond a0 in
    the rows of rho (a rectangle by construction), mu the conjugate of nu
    below them.  A block member needs no other check: its content-0 nodes
    are (kappa_c + j, j) for j = 1..a0, so it holds (kappa_c + a0, a0) and
    with it rho, but not (kappa_c + a0 + 1, a0 + 1), so no row below rho is
    wider than a0."""
    a, h = b.a0, len(b.rho)
    return tuple([p - a for p in nu[:h] if p > a]), conjugate(nu[h:])


def one_block_bridge(kappa_c: int, beta: RootVector) -> BlockBridge:
    """The bridge of the one type-C block of content beta, carrying the
    block's shapes, as c_block lists them, in c_shapes.  A beta with no
    bridge raises BridgeError, and so does an empty block, which no sweep
    reports.  The block is listed off a bridge without shapes, so a beta
    with no bridge is refused before any listing."""
    shapes = tuple(c_block(bridge(kappa_c, beta)))
    if not shapes:
        raise BridgeError(f"no type-C partition of charge {kappa_c} has "
                          f"content {json.dumps(beta.to_json())}")
    return bridge(kappa_c, beta, shapes)


def iter_bridges(kappa_c: int, max_n: int) -> Iterator[BlockBridge]:
    """All bridges for type-C blocks with a_0 >= 1 and height at most
    max_n, in increasing height, then in the order partitions_of first
    reaches each block.  The partitions of a height are grouped by their
    weight (_block_key) in that walk, and content is computed once per
    block, on its first shape; each bridge carries its block's shapes
    (c_shapes, in partitions_of order), so the checks do not list the
    block again.  The arguments are checked at the call, before any bridge
    is taken."""
    if kappa_c < 0:
        raise ValueError(f"kappa_c must be non-negative, got {kappa_c}")
    if max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    return _bridges(kappa_c, max_n)


def _bridges(kappa_c: int, max_n: int) -> Iterator[BlockBridge]:
    charge = (kappa_c,)
    for n in range(1, max_n + 1):
        blocks: Dict[Tuple[int, int], List[Partition]] = {}
        for p in partitions_of(n):
            blocks.setdefault(_block_key(p, kappa_c), []).append(p)
        for shapes in blocks.values():
            beta = content(CartanType.C, charge, (shapes[0],))
            if beta[0]:
                yield bridge(kappa_c, beta, tuple(shapes))


def _block_key(nu: Partition, kappa_c: int) -> Tuple[int, int]:
    """nu's weight, read off its rows in one pass: with the bit sets a =
    {u >= 0 : u in M(nu, kappa_c)} and b = {u >= 0 : -1 - u not in M},
    (a & b, a | b), the crosses and the crosses with the free vertices.
    Since |a| - |b| = kappa_c, it also fixes how many free vertices lie in
    b alone (the block's d), so it fixes the content, and two partitions
    share it iff they share their block.  M holds kappa_c - r for every row
    r past the last, L = len(nu): a gains the labels 0..kappa_c - L - 1,
    and b holds u < L - kappa_c unless the label -1 - u is some row's."""
    rows = len(nu)
    a = (1 << kappa_c - rows) - 1 if kappa_c > rows else 0
    b = (1 << rows - kappa_c) - 1 if rows > kappa_c else 0
    for i, p in enumerate(nu, 1 - kappa_c):  # row r's label kappa_c + p - r
        if p >= i:
            a |= 1 << p - i
        else:
            b ^= 1 << i - p - 1
    return a & b, a | b


def c_state(nu: Partition, kappa_c: int) -> Tuple[int, int]:
    """The type-C bit state (zero, s) of nu: bit zero + u of s holds
    u in M(nu, kappa_c) = {kappa_c + nu_r - r}, for u >= -zero; zero =
    kappa_c + |nu| + 1 puts every row and the mirror -t - 1 of every
    removable node's content t in the window.  It is nu's lattice state
    with 2 kappa_c more labels below it, all in M, built here in one pass:
    through lattice_state it took the crystal sweep 5% longer."""
    zero = kappa_c + sum(nu) + 1
    s = (1 << zero + kappa_c - len(nu)) - 1  # the rows below the last
    for r, p in enumerate(nu, 1):
        s |= 1 << zero + kappa_c + p - r
    return zero, s


_width = 0  # the digit width K of every entry in the walk memos


@lru_cache(maxsize=None)
def c_walk(zero: int, s: int):
    """The walk over the skew tableaux of nu/rho, for (zero, s) =
    c_state(nu, kappa_c) and rho the rectangle of nu's zero-residue nodes,
    at the walks' width K: at K = 0 the number of tableaux, else the pair
    of that number and the sum of Q^(deg + |nu| - |rho|), Q = 2^K, every
    coefficient below Q.  One entry per state: _Block.walks sets K.

    This is the bridge's factorizable truncation.  With a_0 >= 1 and rho =
    (a_0^(kappa_c + a_0)) of content omega, a sub-diagram of nu of content
    omega holds all a_0 zero-residue nodes of nu, on one diagonal, so it
    holds rho's corner and is rho.  So the tableaux of nu whose first
    ht(omega) entries fill a sub-diagram of content omega sum to gdim(rho)
    times this walk.

    Each removal is read off the bits as the walk goes: removing a node of
    content t moves t in M to t - 1, and its step degree, read only at K >
    0, is b(-t - 1) - b(-t) for t > 0, with b membership in M, and 0 for t
    < 0.  A content-0 node is never removed: above rho, the only one
    removable is rho's corner, the walk's floor."""
    K, n, p = _width, 0, 0
    movable = s & ~(s << 1) & ~1
    while movable:
        low = movable & -movable
        movable ^= low
        t = low.bit_length() - 1 - zero
        if t:  # never rho's corner, the walk's floor
            e = c_walk(zero - 1, (s ^ low ^ low >> 1) >> 1)
            if K:
                n += e[0]
                d = 1 + (s >> zero - t - 1 & 1) - (s >> zero - t & 1) if t > 0 else 1
                p += e[1] << K * d
            else:
                n += e
    if not n:
        return (1, 1) if K else 1
    return (n, p) if K else n


@lru_cache(maxsize=None)
def a_walk(s: int):
    """The walk over the standard tableaux of the bipartition bp whose
    weight, as a_block gives it, is s, as c_walk, with |bp| for |nu| -
    |rho|.  Removing a t-node moves t in its component's set to t - 1.
    From component 1 its step degree is b2(t - 1) - b2(t), with b2
    membership in the second set (the only t-corner below it); from
    component 2 it is 0."""
    K, n, p = _width, 0, 0
    movable = s & ~(s << 2) & ~3
    while movable:
        low = movable & -movable
        movable ^= low
        e = a_walk(s ^ low ^ low >> 2)
        if K:
            n += e[0]
            q = low.bit_length() - 1
            d = 1 if q & 1 else 1 + (s >> q - 1 & 1) - (s >> q + 1 & 1)
            p += e[1] << K * d
        else:
            n += e
    if not n:
        return (1, 1) if K else 1
    return (n, p) if K else n


_WALK_MEMOS = (c_walk, a_walk)  # the memos themselves, whatever their names hold


def _c_below(zero: int, s: int) -> List[Tuple[int, int]]:
    """The states c_walk(zero, s) reads."""
    out = []
    movable = s & ~(s << 1) & ~1
    while movable:
        low = movable & -movable
        movable ^= low
        if low.bit_length() - 1 != zero:  # not rho's corner
            out.append((zero - 1, (s ^ low ^ low >> 1) >> 1))
    return out


def _a_below(s: int) -> List[Tuple[int]]:
    """The states a_walk(s) reads."""
    out = []
    movable = s & ~(s << 2) & ~3
    while movable:
        low = movable & -movable
        movable ^= low
        out.append((s ^ low ^ low >> 2,))
    return out


def _c_goods(zero: int, s: int, to_rho: bool) -> List[Tuple[int, int, bool]]:
    """The states c_good_walk(zero, s, to_rho) may read: one good removal
    each, top first."""
    out = []
    removable = s & ~(s << 1) & ~1 & ~(to_rho << zero)
    while removable:
        p = removable.bit_length() - 1
        removable ^= 1 << p
        if s >> 2 * zero - p - 1 & 3 != (1 if p >= zero else 2):
            out.append((zero - 1, (s ^ 3 << p - 1) >> 1, to_rho))
    return out


def _fill(walk, below, tops) -> None:
    """Make walk's entries for the states tops (argument tuples) and every
    state below them, one removal per level, from the lowest level up, so
    that no miss recurses more than once: the walks and the good-removal
    walk recurse once per removed node, and for a block taller than a
    quarter of the recursion limit (_Block.deep) they are filled so first,
    as graded._fill does."""
    levels = [set(tops)]
    while levels[-1]:
        levels.append({t for st in levels[-1] for t in below(*st)})
    for level in reversed(levels):
        for st in level:
            walk(*st)


def kronecker_pairs(x: int, K: int, low: int) -> List[List[int]]:
    """The [exponent, coefficient] pairs of the polynomial whose
    coefficients are the K-bit digits of x, digit 0 being q^low."""
    mask, out = (1 << K) - 1, []
    while x:
        c = x & mask
        if c:
            out.append([low, c])
        x >>= K
        low += 1
    return out


# The Kleshchev tests' memos, as crystal._KLESHCHEV: the answer for every
# state on a followed path, (zero, s) in type C and the weight s in type A
_C_KLESHCHEV: Dict[Tuple[int, int], bool] = {}
_A_KLESHCHEV: Dict[int, bool] = {}


def c_kleshchev(zero: int, s: int) -> bool:
    """is_kleshchev of the level-one type-C shape with c_state (zero, s): its
    removable bit p, tried top first, is good unless the mirror bits (2 zero
    - p - 1, 2 zero - p) read (1, 0) above content 0, (0, 1) below it.
    Removes one good node a step, to the empty shape (True), a state with
    no good node (False) or one in _C_KLESHCHEV, and records the answer
    there for every state on the way; a loop, for any depth."""
    memo, chain, key = _C_KLESHCHEV, [], (zero, s)
    answer = memo.get(key)
    while answer is None:
        chain.append(key)
        rest = removable = s & ~(s << 1) & ~1
        while rest:
            p = rest.bit_length() - 1
            rest ^= 1 << p
            if s >> 2 * zero - p - 1 & 3 != (1 if p >= zero else 2):
                zero, s = zero - 1, (s ^ 3 << p - 1) >> 1
                key = (zero, s)
                answer = memo.get(key)
                break
        else:
            answer = not removable
    for key in chain:
        memo[key] = answer
    return answer


def a_kleshchev(s: int) -> bool:
    """is_kleshchev of the bipartition whose weight (a_block) is s: its node
    at bit p is good unless bits (p - 1, p + 1) read (1, 0) in component 1,
    (p - 3, p - 1) read (0, 1) in component 2.  A loop over one good node a
    step, as c_kleshchev, with the memo _A_KLESHCHEV."""
    memo, chain = _A_KLESHCHEV, []
    answer = memo.get(s)
    while answer is None:
        chain.append(s)
        rest = removable = s & ~(s << 2) & ~3
        while rest:
            p = rest.bit_length() - 1
            rest ^= 1 << p
            if s >> p - 3 & 5 != 4 if p & 1 else s >> p - 1 & 5 != 1:
                s ^= 5 << p - 2
                answer = memo.get(s)
                break
        else:
            answer = not removable
    for s in chain:
        memo[s] = answer
    return answer


@lru_cache(maxsize=None)
def c_good_walk(zero: int, s: int, to_rho: bool) -> Optional[int]:
    """Search good-node removals, top first, from the type-C state (zero, s)
    to the empty shape, or with to_rho to the rectangle rho of its content-0
    nodes, whose corner is the one good node inside rho; the s (at zero) that
    the word's cogood additions reach from that end, 0 if a step has no
    cogood node, None if there is no word.  An entry is one cogood step on
    top of the walk one good removal below it."""
    removable = s & ~(s << 1) & ~1 & ~(to_rho << zero)
    if not removable:
        return s
    while removable:  # the good test of c_kleshchev
        p = removable.bit_length() - 1
        removable ^= 1 << p
        if s >> 2 * zero - p - 1 & 3 != (1 if p >= zero else 2):
            end = c_good_walk(zero - 1, (s ^ 3 << p - 1) >> 1, to_rho)
            if end is not None:
                return end and _c_cogood(zero - 1, end, abs(p - zero))
    return None


def _c_cogood(zero: int, s: int, i: Residue) -> int:
    """The s of the type-C state (zero, s) with its cogood i-node added (its
    zero is zero + 1), or 0 if it has none."""
    upper, lower = s >> zero + i - 1 & 3, s >> zero - i - 1 & 3
    p = zero - i if lower == 1 and upper != 2 else zero + i if upper == 1 else 0
    return p and (s ^ 3 << p - 1) << 1 | 1


def _graded_shift(lhs: int, rhs: int, K: int) -> Optional[int]:
    """The unique c with lhs = q^c * rhs, if one exists, for Kronecker ints
    of digit width K whose digit 0 is the same power of q: c is the distance
    between their lowest nonzero digits, if one moved c digits is the other."""
    if not lhs or not rhs:
        return None if lhs or rhs else 0
    c = ((lhs & -lhs).bit_length() - 1) // K - ((rhs & -rhs).bit_length() - 1) // K
    return c if (lhs == rhs << K * c if c >= 0 else rhs == lhs << -K * c) else None


def known_checks(names: Iterable[str]) -> Tuple[str, ...]:
    """The requested check names as a tuple; an unknown name raises
    ValueError."""
    cs = tuple(names)
    for c in cs:
        if c not in ALL_CHECKS:
            raise ValueError(f"unknown check {c!r}")
    return cs


class _part:
    """A part of _Block, built by its method on first read and stored in
    the instance's __dict__, where every later read finds it as a plain
    attribute.  (functools.cached_property does the same under a lock,
    which costs more than a small part.)"""

    def __init__(self, build):
        self.build, self.name = build, build.__name__

    def __get__(self, blk, owner=None):
        value = blk.__dict__[self.name] = self.build(blk)
        return value


class _Block:
    """The data the checks read, for one verify_bridge call.  c_shapes is
    the bridge's own listing, or, for a bridge made without shapes, the
    block as c_block lists it, up front.  Each part is built on its first
    read, so a check builds only what it reads; graded says whether the
    walks must hold polynomials."""

    def __init__(self, b: BlockBridge, graded: bool):
        self.b, self.graded = b, graded
        self.c_shapes = b.c_shapes if b.c_shapes is not None else tuple(c_block(b))
        # every recursion of the checks is at most the block's height deep;
        # a deep block has its memos filled from the bottom (_fill)
        self.deep = 4 * b.beta.height > sys.getrecursionlimit()

    @_part
    def pairs(self) -> List[Tuple[Bipartition, Partition, int]]:
        # each member of a_block with its image and its weight; block members
        # need no membership check on the way through the bridge
        b = self.b
        return [(bp, _rect_image(bp, b), w) for bp, w in a_block(b).items()]

    @_part
    def c_states(self) -> dict:
        # each shape's state, built once
        kappa_c = self.b.kappa_c
        return {nu: c_state(nu, kappa_c) for nu in self.c_shapes}

    @_part
    def walks(self) -> tuple:
        """(K, each pair's two tableau counts, each pair's two walk entries)
        at the walks' width K.  A graded block needs K >= 16 above the bit
        length of gdim(rho)(1) times its largest count, which bounds every
        coefficient of the products; a shorter width (0 included) grows."""
        global _width
        b, states, deep = self.b, self.c_states, self.deep
        # memos found empty (cleared) start over at width 0
        K = _width if _WALK_MEMOS[0].cache_info().currsize else 0
        while True:
            if K != _width:  # no entry at another width is read again
                _width = K
                for memo in _WALK_MEMOS:
                    memo.cache_clear()
            # an image outside the listing, which only a failing bridge has,
            # has its state built here
            if deep:  # on every pass: a wider K has cleared the memos
                _fill(c_walk, _c_below, [states.get(nu) or c_state(nu, b.kappa_c)
                                         for _, nu, _ in self.pairs])
                _fill(a_walk, _a_below, [(w,) for _, _, w in self.pairs])
            entries = [(c_walk(*(states.get(nu) or c_state(nu, b.kappa_c))), a_walk(w))
                       for _, nu, w in self.pairs]
            counts = entries if not K else [(c[0], a[0]) for c, a in entries]
            if not self.graded:
                return K, counts, entries
            top = max(map(max, counts), default=0) * rho_gdim(b.kappa_c, b.a0, 0)[1]
            need = max(16, (top.bit_length() + 15) // 16 * 16)
            if need <= K:
                return K, counts, entries
            K = need

    @_part
    def c_klesh(self) -> List[Tuple[Partition, Tuple[int, int]]]:
        # off the listing, not pairs: the Kleshchev check compares two listings
        return [(nu, st) for nu, st in self.c_states.items() if c_kleshchev(*st)]


def _check_count(blk: _Block) -> dict:
    per_shape = []
    ok = sorted(nu for _, nu, _ in blk.pairs) == sorted(blk.c_shapes)  # one to one
    std_rho = rho_gdim(blk.b.kappa_c, blk.b.a0, 0)[1]
    lhs_total = rhs_total = 0
    for (_, nu, _), (n_c, n_a) in zip(blk.pairs, blk.walks[1]):
        n_fact, n_rho_a = std_rho * n_c, std_rho * n_a
        lhs_total += n_fact ** 2
        rhs_total += n_rho_a ** 2
        match = n_fact == n_rho_a
        ok = ok and match
        per_shape.append(
            {"nu": list(nu), "factorizable": n_fact,
             "rho_times_a": n_rho_a, "pass": match}
        )
    return {"pass": ok, "lhs": lhs_total, "rhs": rhs_total,
            "per_shape": per_shape}


def _check_graded(blk: _Block) -> dict:
    # The walks' width K holds every coefficient of the two products
    # (_Block.walks), which share the factor gdim(rho), so their shift is
    # the walks'.
    b = blk.b
    K, _, entries = blk.walks
    low, rho_int = rho_gdim(b.kappa_c, b.a0, K)
    per_shape, shifts = [], []
    for (_, nu, _), ((_, lhs), (_, rhs)) in zip(blk.pairs, entries):
        c = _graded_shift(lhs, rhs, K)
        shifts.append(c)
        base = low - sum(nu) + b.a0 * len(b.rho)  # digit 0's exponent
        lhs_pairs = kronecker_pairs(rho_int * lhs, K, base)
        rhs_pairs = lhs_pairs if rhs == lhs else kronecker_pairs(rho_int * rhs, K, base)
        per_shape.append({"nu": list(nu), "lhs": lhs_pairs, "rhs": rhs_pairs,
                          "shift": c})
    # an empty block has no shift, and fails
    shift = next((c for c in shifts if c is not None), None)
    return {"pass": shift == 0 and all(c == 0 for c in shifts), "shift": shift,
            "per_shape": per_shape}


def _check_dominance(blk: _Block) -> dict:
    # The bridge preserves dominance, which is what the check asserts.
    # It is not an order isomorphism: the type-C order may strictly
    # refine the type-A one, and the pairs where it does are reported
    # as witnesses.  On packed sums (dominance_sums) a pair costs one
    # subtraction and one AND per side, and the diagonal compares equal on
    # both.  A shape's JSON lists are built at its first witness and shared.
    witnesses, preserving, lists = [], True, {}
    bps = [bp for bp, _, _ in blk.pairs]
    if len(bps) > 1:  # one shape has no pair
        a_sums, a_top = dominance_sums(bps)
        c_sums, c_top = dominance_sums([(nu,) for _, nu, _ in blk.pairs])
        rows = list(zip(a_sums, c_sums))
        for i, (a1, c1) in enumerate(rows):
            a1, c1 = a1 | a_top, c1 | c_top
            wit = [j for j, (a2, c2) in enumerate(rows)
                   if ((a1 - a2) & a_top == a_top) != ((c1 - c2) & c_top == c_top)]
            if wit:
                preserving &= all((a1 - a_sums[j]) & a_top != a_top for j in wit)
                for j in {i, *wit} - lists.keys():
                    lists[j] = list(map(list, bps[j]))
                witnesses += [{"pair": [lists[i], lists[j]]} for j in wit]
    return {"pass": preserving, "order_preserving": preserving,
            "witnesses": witnesses}


def _check_kleshchev(blk: _Block) -> dict:
    # equal sets share one sorted list, as the graded check's equal sides do
    a_klesh = {nu for _, nu, w in blk.pairs if a_kleshchev(w)}
    c_klesh = {nu for nu, _ in blk.c_klesh}
    same, a_image = a_klesh == c_klesh, sorted(map(list, a_klesh))
    return {"pass": same, "a_image": a_image,
            "c_set": a_image if same else sorted(map(list, c_klesh))}


def _check_goodpath(blk: _Block) -> dict:
    # A Kleshchev shape passes when good-node removals take it down to rho
    # and rho down to the empty partition, and each word's cogood replay
    # from the lower end reaches the upper one (a replay that meets no
    # cogood node ends in 0).  The walks are memoized: rho's head is one
    # lookup, and in a sweep a shape extends the walk one removal below it.
    zero, s = rectangle(blk.b.kappa_c, blk.b.a0)[3]
    if blk.deep:
        _fill(c_good_walk, _c_goods, [(zero, s, False)] + [
            (*st, True) for _, st in blk.c_klesh])
    head_ok = c_good_walk(zero, s, False) == s
    failures = [list(nu) for nu, (zero, s) in blk.c_klesh
                if not head_ok or c_good_walk(zero, s, True) != s]
    return {"pass": not failures, "failures": failures}


# the checks in report order
_CHECKS = {
    "count": _check_count, "graded": _check_graded, "dominance": _check_dominance,
    "kleshchev": _check_kleshchev, "goodpath": _check_goodpath}
ALL_CHECKS = tuple(_CHECKS)


def verify_bridge(b: BlockBridge,
                  checks: Sequence[str] = ALL_CHECKS) -> Dict[str, dict]:
    """Run the requested checks, in ALL_CHECKS order, each once; failures
    are report entries, never exceptions."""
    cs = known_checks(checks)
    blk = _Block(b, "graded" in cs)
    out = {c: check(blk) for c, check in _CHECKS.items() if c in cs}
    return {"bridge": b.to_json(), "checks": out,
            "pass": all(v["pass"] for v in out.values())}
