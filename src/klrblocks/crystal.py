"""Crystal combinatorics: good and cogood nodes, Kleshchev l-partitions,
and good-removal walks down to a target with their cogood replays.

Kashiwara's signature rule reads the good and cogood i-nodes off the
reduced i-signature, the word a..a r..r left when every removable i-node
followed by an addable one is cancelled.  No signature is built here: one
pass over the corners in (component, row) order counts, per residue, the
removable nodes still open (_corner_pass)."""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .cartan import CartanType, Charge, Residue
from .partitions import (
    MultiPartition,
    Node,
    add_node,
    contains,
    remove_node,
    residue,
)


def _corner_pass(mp: MultiPartition, ct: CartanType,
                 charge: Charge) -> Dict[Residue, list]:
    """[depth, bottom, cogood] for every residue i with a corner, from one
    pass over the rows.  Row r of a component has an addable node exactly
    when row r - 1 (if any) is longer, and then row r - 1 has a removable
    node; the two are read in that order.  A removable i-node opens on a
    stack, and an addable one closes the top of it or, with none open,
    becomes the latest unmatched addable i-node.  So at the end, if depth
    (the open removable nodes) is positive, bottom (the first of them) is
    the good i-node; cogood is the cogood i-node or None."""
    absolute = ct is CartanType.C
    state: Dict[Residue, list] = {}
    for m, p in enumerate(mp, start=1):
        k = charge[m - 1]
        prev = None
        for r, width in enumerate(p + (0,), start=1):
            if prev is not None:
                if width == prev:
                    continue
                i = k + prev - r + 1
                if absolute and i < 0:
                    i = -i
                s = state.get(i)
                if s is None:
                    state[i] = [1, (r - 1, prev, m), None]
                elif s[0]:
                    s[0] += 1
                else:
                    s[0], s[1] = 1, (r - 1, prev, m)
            i = k + width + 1 - r
            if absolute and i < 0:
                i = -i
            s = state.get(i)
            if s is None:
                state[i] = [0, None, (r, width + 1, m)]
            elif s[0]:
                s[0] -= 1
            else:
                s[2] = (r, width + 1, m)
            prev = width
    return state


def _good_nodes(mp: MultiPartition, ct: CartanType,
                charge: Charge) -> List[Node]:
    """The good node of every residue that has one, in (component, row)
    order."""
    goods = [bottom for depth, bottom, _ in _corner_pass(mp, ct, charge).values()
             if depth]
    goods.sort(key=lambda node: (node[2], node[0]))
    return goods


@lru_cache(maxsize=None)
def _kleshchev(ct: CartanType, charge: Charge, mp: MultiPartition) -> bool:
    if not any(mp):
        return True
    for depth, bottom, _ in _corner_pass(mp, ct, charge).values():
        if depth:
            return _kleshchev(ct, charge, remove_node(mp, bottom))
    return False


def is_kleshchev(mp: MultiPartition, ct: CartanType, charge: Charge) -> bool:
    """True iff mp is reachable from the empty l-partition by good-node
    additions.  The Kleshchev l-partitions form the crystal component of
    the empty one, which is closed under every e_i, so removing any one
    good node keeps mp in it or out of it; the memoized recursion removes
    the first good node the corner pass gives, with no sort.  It does not
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
    and one cogood step of its replay, read from the corner pass of the
    replay's shape so far.  So a shape costs one entry on top
    of the walk one good removal below it, and the recursion is at most
    |mp| - |target| deep."""
    for node in _good_nodes(mp, ct, charge):
        if contains(target, node):
            continue
        nxt = remove_node(mp, node)
        below = ((), target) if nxt == target else _good_walk(ct, charge, nxt, target)
        if below is None:
            continue
        word, end = below
        i = residue(ct, charge, node)
        if end is not None:
            s = _corner_pass(end, ct, charge).get(i)
            end = None if s is None or s[2] is None else add_node(end, s[2])
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
