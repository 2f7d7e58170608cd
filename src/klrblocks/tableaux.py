"""Standard tableaux: enumeration, residue sequences and degree statistics.

A standard tableau is stored as its shape together with the list of nodes
in entry order, i.e. ``order[k-1]`` is the node containing k.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .cartan import CartanType, Charge, Residue
from .partitions import (
    MultiPartition,
    Node,
    add_node,
    addable_corners,
    contains,
    nodes,
    residue,
    size,
    step_degrees,
)


class StandardTableau(NamedTuple):
    shape: MultiPartition
    order: Tuple[Node, ...]

    def rows(self) -> List[List[List[int]]]:
        """Entries arranged per component and row, for display and JSON."""
        grid = [[[0] * w for w in p] for p in self.shape]
        for k, (r, c, m) in enumerate(self.order, start=1):
            grid[m - 1][r - 1][c - 1] = k
        return grid


def initial_tableau(shape: MultiPartition) -> StandardTableau:
    return StandardTableau(shape, tuple(nodes(shape)))


def residue_sequence(t: StandardTableau, ct: CartanType, charge: Charge) -> Tuple[Residue, ...]:
    return tuple(residue(ct, charge, node) for node in t.order)


def degree(t: StandardTableau, ct: CartanType, charge: Charge) -> int:
    """Cellular degree: the sum over the entries, in order, of the step
    degree partitions.step_degrees gives each node in the shape just after
    it is added."""
    total = 0
    mp: MultiPartition = tuple(() for _ in t.shape)
    for node in t.order:
        mp = add_node(mp, node)
        i = residue(ct, charge, node)
        total += next(d for n, d in step_degrees(mp, ct, charge, i) if n == node)
    return total


def enumerate_standard(
    shape: MultiPartition,
    ct: Optional[CartanType] = None,
    charge: Optional[Charge] = None,
    residues: Optional[Sequence[Residue]] = None,
) -> Iterator[StandardTableau]:
    """Depth-first enumeration of Std(shape), candidate nodes in reading
    order.  With a residue filter, branches whose prefix residue sequence
    deviates are pruned and never materialized."""
    n = size(shape)
    if residues is not None:
        if ct is None or charge is None:
            raise ValueError("a residue filter needs a Cartan type and a charge")
        if len(residues) != n:
            raise ValueError(f"residue word has length {len(residues)}, "
                             f"but the shape has {n} nodes")

    def rec(k: int, prefix: MultiPartition, order: List[Node]) -> Iterator[StandardTableau]:
        if k > n:
            yield StandardTableau(shape, tuple(order))
            return
        for node in addable_corners(prefix):
            if not contains(shape, node):
                continue
            if residues is not None and residue(ct, charge, node) != residues[k - 1]:
                continue
            order.append(node)
            yield from rec(k + 1, add_node(prefix, node), order)
            order.pop()

    return rec(1, tuple(() for _ in shape), [])
