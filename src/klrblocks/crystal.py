"""Crystal combinatorics: i-signatures, good/cogood nodes, Kleshchev
l-partitions, cogood paths and good-removal factorization through the
rectangle."""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .cartan import CartanType, Charge, Residue
from .partitions import (
    MultiPartition,
    Node,
    Partition,
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


def _leftmost_r(sig: Sequence[SignatureEntry]) -> Optional[Node]:
    """The node at the leftmost r of the reduced signature, if any."""
    for marker, node in reduce_signature(sig):
        if marker == "r":
            return node
    return None


def good_node(mp: MultiPartition, ct: CartanType, charge: Charge,
              i: Residue) -> Optional[Node]:
    """The removable node at the leftmost r of the reduced i-signature."""
    return _leftmost_r(i_signature(mp, ct, charge, i))


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
    order, from one scan of the corners."""
    sigs = signatures(mp, ct, charge).values()
    goods = [node for node in map(_leftmost_r, sigs) if node is not None]
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
    one good node per step.  It does not reuse good_removal_path's search,
    which branches over every good node: on the 60-node bipartition
    ((9, 9, 3, 1^15), (14, 3, 3, 2, 2)) of type A, charge (0, 1), that
    search visits 234 226 states in 3.66 s, where this walk takes 59."""
    return _kleshchev(ct, tuple(charge), mp)


@lru_cache(maxsize=None)
def _cogood_step(ct: CartanType, charge: Charge, mp: MultiPartition,
                 i: Residue) -> Optional[MultiPartition]:
    """mp with its cogood i-node added, or None if it has none."""
    node = cogood_node(mp, ct, charge, i)
    return None if node is None else add_node(mp, node)


def cogood_path(start: MultiPartition, word: Sequence[Residue],
                ct: CartanType, charge: Charge) -> Optional[MultiPartition]:
    """Add cogood nodes of the given residues in order; None if a step has
    no cogood node.  Each step is memoized for the process, so replays
    that share a prefix, like the shapes of a block above rho, share its
    steps."""
    charge = tuple(charge)
    mp = start
    for i in word:
        mp = _cogood_step(ct, charge, mp, i)
        if mp is None:
            return None
    return mp


@lru_cache(maxsize=None)
def _removal_step(ct: CartanType, charge: Charge, cur: MultiPartition,
                  target: MultiPartition) -> Optional[Node]:
    """The first good node of cur, in (component, row) order and not inside
    target, whose removal leaves a shape from which good-node removals reach
    target; None if there is none.  The depth-first search below a shape
    depends on that shape and target only, so one step per state, memoized
    for the process, holds every search's answer."""
    for node in _good_nodes(cur, ct, charge):
        if contains(target, node):
            continue
        nxt = remove_node(cur, node)
        if nxt == target or _removal_step(ct, charge, nxt, target) is not None:
            return node
    return None


def good_removal_path(mp: MultiPartition, target: MultiPartition,
                      ct: CartanType, charge: Charge) -> Optional[Tuple[Residue, ...]]:
    """Search for a sequence of good-node removals from mp down to target;
    returns the residue word in *addition* order (target up to mp), or None.
    Depth-first, trying good nodes in (component, row) order; a good node
    inside target is never removed, since no later removal can bring it
    back.  The word is read off the memoized step of each state on the
    way down."""
    if len(target) != len(mp):
        return None
    charge = tuple(charge)
    word: List[Residue] = []
    cur = mp
    while cur != target:
        node = _removal_step(ct, charge, cur, target)
        if node is None:
            return None
        word.append(residue(ct, charge, node))
        cur = remove_node(cur, node)
    word.reverse()
    return tuple(word)


def factors_through(nu: Partition, rho: Partition, ct: CartanType,
                    charge: Charge) -> Optional[Tuple[Residue, ...]]:
    """A residue word j' (+) j'' such that good-node removals take nu to rho
    along reversed j'' and rho to the empty partition along reversed j';
    None if no such word exists.  Reported in addition order."""
    head = good_removal_path((rho,), ((),), ct, charge)
    if head is None:
        return None
    tail = good_removal_path((nu,), (rho,), ct, charge)
    if tail is None:
        return None
    return head + tail
