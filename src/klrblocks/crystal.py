"""Crystal combinatorics: i-signatures, good/cogood nodes, Kleshchev
l-partitions, and good-removal walks down to a target with their cogood
replays."""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .cartan import CartanType, Charge, Residue
from .partitions import (
    MultiPartition,
    Node,
    SignatureEntry,
    add_node,
    contains,
    remove_node,
    residue,
    signatures,
)

Signature = Tuple[SignatureEntry, ...]


def i_signature(mp: MultiPartition, ct: CartanType, charge: Charge,
                i: Residue) -> Signature:
    """Addable and removable i-nodes merged in (component, row) reading
    order, marked 'a' and 'r'."""
    return tuple(signatures(mp, ct, charge).get(i, ()))


def reduce_signature(sig: Sequence[SignatureEntry]) -> Signature:
    """Cancel adjacent (r, a) pairs until the word has shape a..a r..r."""
    stack: List[SignatureEntry] = []
    for entry in sig:
        if entry[0] == "a" and stack and stack[-1][0] == "r":
            stack.pop()
        else:
            stack.append(entry)
    return tuple(stack)


def good_node(mp: MultiPartition, ct: CartanType, charge: Charge,
              i: Residue) -> Optional[Node]:
    """The removable node at the leftmost r of the reduced i-signature."""
    for marker, node in reduce_signature(i_signature(mp, ct, charge, i)):
        if marker == "r":
            return node
    return None


def cogood_node(mp: MultiPartition, ct: CartanType, charge: Charge,
                i: Residue) -> Optional[Node]:
    """The addable node at the rightmost a of the reduced i-signature."""
    last = None
    for marker, node in reduce_signature(i_signature(mp, ct, charge, i)):
        if marker == "a":
            last = node
    return last


def _good_nodes(mp: MultiPartition, ct: CartanType,
                charge: Charge) -> List[Node]:
    """The good node of every residue that has one, in (component, row)
    order, from one scan of the corners.  Each i-signature is reduced with
    a stack of its open removable nodes: an addable node closes the last
    one still open, and the good node is the first one left open."""
    goods = []
    for sig in signatures(mp, ct, charge).values():
        open_r: List[Node] = []
        for marker, node in sig:
            if marker == "r":
                open_r.append(node)
            elif open_r:
                open_r.pop()
        if open_r:
            goods.append(open_r[0])
    goods.sort(key=lambda node: (node[2], node[0]))
    return goods


@lru_cache(maxsize=None)
def _kleshchev(ct: CartanType, charge: Charge, mp: MultiPartition) -> bool:
    if not any(mp):
        return True
    goods = _good_nodes(mp, ct, charge)
    return bool(goods) and _kleshchev(ct, charge, remove_node(mp, goods[0]))


def is_kleshchev(mp: MultiPartition, ct: CartanType, charge: Charge) -> bool:
    """True iff mp is reachable from the empty l-partition by good-node
    additions.  The Kleshchev l-partitions form the crystal component of
    the empty one, which is closed under every e_i, so removing any one
    good node keeps mp in it or out of it; the memoized recursion follows
    one good node per step.  It does not reuse good_walk's search, which
    branches over every good node: on the 60-node bipartition
    ((9, 9, 3, 1^15), (14, 3, 3, 2, 2)) of type A, charge (0, 1), that
    search visits 234 226 states in 3.66 s, where this walk takes 59."""
    return _kleshchev(ct, tuple(charge), mp)


Walk = Tuple[Tuple[Residue, ...], Optional[MultiPartition]]


@lru_cache(maxsize=None)
def _good_walk(ct: CartanType, charge: Charge, mp: MultiPartition,
               target: MultiPartition) -> Optional[Walk]:
    """good_walk for mp != target, memoized for the process.  The search
    tries the good nodes of mp in (component, row) order, skipping those
    inside target, and keeps the first whose removal leaves target or a
    shape with a walk; the entry extends that walk by the node's residue
    and one cogood step of its replay.  So a shape costs one entry on top
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
            added = cogood_node(end, ct, charge, i)
            end = None if added is None else add_node(end, added)
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
