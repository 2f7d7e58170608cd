"""Crystal combinatorics: good and cogood nodes, Kleshchev l-partitions,
and good-removal walks down to a target with their cogood replays.

Kashiwara's signature rule reads the good and cogood i-nodes off the
reduced i-signature, the word a..a r..r left when every removable i-node
followed by an addable one is cancelled, in (component, row) order.  No
signature is built: both are read off partitions.step_degrees, where a
corner's degree d counts the addable minus removable i-nodes below it.
A removable i-node stays (is normal) iff no stretch below it holds more
a's than r's: the stretch to the foot holds d more, and the one to just
above a lower removable i-node of degree d', d - d' + 1 more.  So, read
bottom first, it is normal when d is below the running minimum of its
residue, which starts at 1; the good node, the leftmost r, is the last
normal one read.  Dually, with T the addable minus removable i-nodes, an
addable i-node stays iff d < T and d is below the degree of every higher
addable i-node; the cogood node, the rightmost a, is the addable i-node
of least degree, the highest if several tie, when that degree is below T."""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Tuple

from .cartan import CartanType, Charge, Residue
from .partitions import (
    MultiPartition,
    Node,
    add_node,
    contains,
    remove_node,
    step_degrees,
)


def _good_nodes(mp: MultiPartition, ct: CartanType,
                charge: Charge) -> Dict[Residue, Node]:
    """{i: the good i-node} for every residue i that has one."""
    low: Dict[Residue, int] = {}
    good: Dict[Residue, Node] = {}
    for node, i, d in step_degrees(mp, ct, charge)[1]:
        if d < low.get(i, 1):
            low[i] = d
            good[i] = node
    return good


def _cogood_node(mp: MultiPartition, ct: CartanType, charge: Charge,
                 i: Residue) -> Optional[Node]:
    """The cogood i-node of mp, or None if there is none."""
    addable, removable = step_degrees(mp, ct, charge)
    best, low, excess = None, 0, 0
    for node, j, d in addable:  # bottom first: the last of a tie is the highest
        if j == i:
            excess += 1
            if best is None or d <= low:
                best, low = node, d
    excess -= sum(1 for _, j, _ in removable if j == i)
    return None if best is None or low >= excess else best


@lru_cache(maxsize=None)
def _kleshchev(ct: CartanType, charge: Charge, mp: MultiPartition) -> bool:
    if not any(mp):
        return True
    for node in _good_nodes(mp, ct, charge).values():
        return _kleshchev(ct, charge, remove_node(mp, node))
    return False


def is_kleshchev(mp: MultiPartition, ct: CartanType, charge: Charge) -> bool:
    """True iff mp is reachable from the empty l-partition by good-node
    additions.  The Kleshchev l-partitions form the crystal component of
    the empty one, which is closed under every e_i, so removing any one
    good node keeps mp in it or out of it; the memoized recursion removes
    the first good node that _good_nodes gives, with no sort.  It does not
    reuse good_walk's search, which branches over every good node: on the
    60-node bipartition ((9, 9, 3, 1^15), (14, 3, 3, 2, 2)) of type A,
    charge (0, 1), that search visits 234 226 states in 3.66 s, where this
    walk takes 59."""
    return _kleshchev(ct, tuple(charge), mp)


Walk = Tuple[Tuple[Residue, ...], Optional[MultiPartition]]


@lru_cache(maxsize=None)
def _good_walk(ct: CartanType, charge: Charge, mp: MultiPartition,
               target: MultiPartition) -> Optional[Walk]:
    """good_walk for mp != target, memoized for the process.  The search
    tries the good nodes of mp in (component, row) order, skipping those
    inside target, and keeps the first whose removal leaves target or a
    shape with a walk; the entry extends that walk by the node's residue
    and one cogood step of its replay, read from the step degrees of the
    replay's shape so far.  So a shape costs one entry on top
    of the walk one good removal below it, and the recursion is at most
    |mp| - |target| deep."""
    goods = _good_nodes(mp, ct, charge).items()
    for i, node in sorted(goods, key=lambda entry: (entry[1][2], entry[1][0])):
        if contains(target, node):
            continue
        nxt = remove_node(mp, node)
        below = ((), target) if nxt == target else _good_walk(ct, charge, nxt, target)
        if below is None:
            continue
        word, end = below
        if end is not None:
            step = _cogood_node(end, ct, charge, i)
            end = None if step is None else add_node(end, step)
        return word + (i,), end
    return None


def good_walk(mp: MultiPartition, target: MultiPartition, ct: CartanType,
              charge: Charge) -> Optional[Walk]:
    """Search for a sequence of good-node removals from mp down to target.
    Returns (word, end): the residue word in *addition* order (target up to
    mp), and the shape that adding cogood nodes of that word to target
    reaches (None if a step has no cogood node); None if there is no such
    sequence.  Depth-first, trying good nodes in (component, row) order; a
    good node inside target is never removed, since no later removal can
    bring it back."""
    if len(target) != len(mp):
        return None
    if mp == target:
        return (), target
    return _good_walk(ct, tuple(charge), mp, target)
