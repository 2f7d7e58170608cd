"""Crystal combinatorics: Kleshchev l-partitions, and the bridge's
Kleshchev tests and good-removal walk on bit states.

Kashiwara's signature rule reads the good and cogood i-nodes off the
reduced i-signature, the word a..a r..r left when every removable i-node
followed by an addable one is cancelled, in (component, row) order.  For
any type and level (the command line) no signature is built: the good
nodes are read off the corner rule on lattice states (partitions.corners),
where a corner's degree d counts the addable minus removable i-nodes
below it.  A removable i-node stays (is normal) iff no stretch below it
holds more a's than r's: the stretch to the foot holds d more, and the
one to just above a lower removable i-node of degree d', d - d' + 1 more.
So, read bottom first, it is normal when d is below the running minimum
of its residue, which starts at 1; the good node, the leftmost r, is the
last normal one read.

The bridge's shapes give a residue at most two corners, an upper and a
lower one: contents i and -i of a type-C state (graded.c_state), or
components 1 and 2 of a type-A one (graded.a_state).  So the rule reads
four bits: a removable upper corner is good unless the lower one is
addable, else a removable lower corner is; an addable lower corner is
cogood unless the upper one is removable, else an addable upper one is."""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, Optional, Tuple

from .cartan import CartanType, Charge, Residue
from .partitions import MultiPartition, corners, lattice_state, move


_KLESHCHEV: Dict[Tuple[CartanType, Charge, int], bool] = {}


def _kleshchev(ct: CartanType, charge: Charge, mp: MultiPartition) -> bool:
    """Follow good removals from mp's lattice state to the empty one (True),
    a state with no good node (False) or one in the memo _KLESHCHEV, and
    record the answer there for every state on the way (each lane of s
    holds n + 1 bits, so s fixes n); a loop, for any depth.  Each step
    removes the good node of the first normal node's residue, bottom first."""
    l, (n, s) = len(charge), lattice_state(mp, charge)
    chain, key = [], (ct, charge, s)
    while key not in _KLESHCHEV:
        chain.append(key)
        pick = None  # the residue of the first normal node, its good node
        for q, i, d in reversed(corners(ct, charge, n, s, False)):
            if d < 1 and pick is None or i == pick and d < low:
                pick, good, low = i, q, d
        if pick is None:
            answer = not n
            break
        n, s = n - 1, move(l, s, good, False)
        key = (ct, charge, s)
    else:
        answer = _KLESHCHEV[key]
    _KLESHCHEV.update(dict.fromkeys(chain, answer))
    return answer


def is_kleshchev(mp: MultiPartition, ct: CartanType, charge: Charge) -> bool:
    """True iff mp is reachable from the empty l-partition by good-node
    additions.  The Kleshchev l-partitions form the crystal component of
    the empty one, which is closed under every e_i, so removing any one
    good node keeps mp in it or out of it: no search is needed."""
    return _kleshchev(ct, tuple(charge), mp)


def _c_goods(zero: int, s: int, removable: int) -> Iterator[int]:
    """The good ones among the removable bits p of the type-C state (zero,
    s), top first; the mirror of content p - zero is at 2 zero - p - 1."""
    while removable:
        p = removable.bit_length() - 1
        removable ^= 1 << p
        if s >> 2 * zero - p - 1 & 3 != (1 if p >= zero else 2):
            yield p


@lru_cache(maxsize=None)
def c_kleshchev(zero: int, s: int) -> bool:
    """is_kleshchev of the level-one type-C shape with c_state (zero, s)."""
    removable = s & ~(s << 1) & ~1
    for p in _c_goods(zero, s, removable):
        return c_kleshchev(zero - 1, (s ^ 3 << p - 1) >> 1)
    return not removable


@lru_cache(maxsize=None)
def a_kleshchev(s: int) -> bool:
    """is_kleshchev of the bipartition with a_state s: its node at bit p is
    good unless bits (p - 1, p + 1) read (1, 0) in component 1, (p - 3, p - 1)
    read (0, 1) in component 2."""
    rest = removable = s & ~(s << 2) & ~3
    while rest:
        p = rest.bit_length() - 1
        rest ^= 1 << p
        if s >> p - 3 & 5 != 4 if p & 1 else s >> p - 1 & 5 != 1:
            return a_kleshchev(s ^ 5 << p - 2)
    return not removable


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
    for p in _c_goods(zero, s, removable):
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
