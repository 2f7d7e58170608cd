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

    def prefix_shape(self, k: int) -> MultiPartition:
        mp: MultiPartition = tuple(() for _ in self.shape)
        for node in self.order[:k]:
            mp = add_node(mp, node)
        return mp


def initial_tableau(shape: MultiPartition) -> StandardTableau:
    return StandardTableau(shape, tuple(nodes(shape)))


def rectangle_final_tableau(a0: int, height: int) -> StandardTableau:
    """The minimal-degree tableau of the a0 x height rectangle in the
    weight space of its row-initial residue sequence: the height - a0 rows
    above the zero-residue square are filled in reading order, the square
    itself down its columns.  For height == a0 there are no rows above, and
    1..n fill the square column by column."""
    if not 1 <= a0 <= height:
        raise ValueError("need 1 <= a0 <= height")
    shape = (a0,) * height
    top = height - a0
    order: List[Node] = [(r, c, 1) for r in range(1, top + 1)
                         for c in range(1, a0 + 1)]
    order += [(top + r, c, 1) for c in range(1, a0 + 1)
              for r in range(1, a0 + 1)]
    return StandardTableau((shape,), tuple(order))


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
