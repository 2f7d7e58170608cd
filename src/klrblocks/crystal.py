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
    one good node per step."""
    return _kleshchev(ct, charge, mp)


class CogoodPathError(ValueError):
    def __init__(self, position: int, i: Residue):
        super().__init__(f"no cogood {i}-node at step {position}")
        self.position = position
        self.residue = i


def cogood_path(start: MultiPartition, word: Sequence[Residue],
                ct: CartanType, charge: Charge) -> MultiPartition:
    """Add cogood nodes of the given residues in order; raises
    CogoodPathError with the failing position if a step has no cogood
    node."""
    mp = start
    for pos, i in enumerate(word, start=1):
        node = cogood_node(mp, ct, charge, i)
        if node is None:
            raise CogoodPathError(pos, i)
        mp = add_node(mp, node)
    return mp


def good_removal_path(mp: MultiPartition, target: MultiPartition,
                      ct: CartanType, charge: Charge) -> Optional[Tuple[Residue, ...]]:
    """Search for a sequence of good-node removals from mp down to target;
    returns the residue word in *addition* order (target up to mp), or None.
    Depth-first with memoized failures; a good node inside target is never
    removed, since no later removal can bring it back."""
    if len(target) != len(mp):
        return None
    failed: set = set()

    def rec(cur: MultiPartition) -> Optional[List[Residue]]:
        if cur == target:
            return []
        if cur in failed:
            return None
        for node in _good_nodes(cur, ct, charge):
            if contains(target, node):
                continue
            sub = rec(remove_node(cur, node))
            if sub is not None:
                sub.append(residue(ct, charge, node))
                return sub
        failed.add(cur)
        return None

    word = rec(mp)
    return tuple(word) if word is not None else None


@lru_cache(maxsize=None)
def _head_path(rho: Partition, ct: CartanType,
               charge: Charge) -> Optional[Tuple[Residue, ...]]:
    """The good-removal word of rho down to the empty partition, searched
    once per (rho, type, charge) in a process."""
    return good_removal_path((rho,), ((),), ct, charge)


def factors_through(nu: Partition, rho: Partition, ct: CartanType,
                    charge: Charge) -> Optional[Tuple[Residue, ...]]:
    """A residue word j' (+) j'' such that good-node removals take nu to rho
    along reversed j'' and rho to the empty partition along reversed j';
    None if no such word exists.  Reported in addition order."""
    head = _head_path(rho, ct, tuple(charge))
    if head is None:
        return None
    tail = good_removal_path((nu,), (rho,), ct, charge)
    if tail is None:
        return None
    return head + tail
