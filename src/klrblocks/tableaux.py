"""Standard tableaux: enumeration with residue words and degrees.

A standard tableau is stored as its shape together with the list of nodes
in entry order, i.e. ``order[k-1]`` is the node containing k.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .cartan import CartanType, Charge, Residue
from .partitions import MultiPartition, Node, add_node, contains, size, step_degrees


class StandardTableau(NamedTuple):
    """A tableau of enumerate_standard, with its residue word and cellular
    degree for the walk's type and charge."""
    shape: MultiPartition
    order: Tuple[Node, ...]
    word: Tuple[Residue, ...]
    degree: int

    def rows(self) -> List[List[List[int]]]:
        """Entries arranged per component and row, for display and JSON."""
        grid = [[[0] * w for w in p] for p in self.shape]
        for k, (r, c, m) in enumerate(self.order, start=1):
            grid[m - 1][r - 1][c - 1] = k
        return grid


def enumerate_standard(
    shape: MultiPartition,
    ct: CartanType,
    charge: Charge,
    residues: Optional[Sequence[Residue]] = None,
) -> Iterator[StandardTableau]:
    """Std(shape), depth first, the children of a prefix in (component,
    row) order, so the first is the row-reading tableau, each tableau with
    its residue word and degree.  The walk keeps its own stack, so a shape
    of any height is walked.  One corner pass per prefix
    (partitions.step_degrees) gives each addable node its residue and the
    step degree of adding it, and the degree is their sum along the path.
    With a residue filter, branches whose prefix residue sequence deviates
    are pruned and never materialized."""
    n = size(shape)
    if residues is not None and len(residues) != n:
        raise ValueError(f"residue word has length {len(residues)}, "
                         f"but the shape has {n} nodes")
    return _walk(shape, ct, charge, residues, n)


def _walk(shape: MultiPartition, ct: CartanType, charge: Charge,
          residues: Optional[Sequence[Residue]], n: int) -> Iterator[StandardTableau]:
    if n == 0:
        yield StandardTableau(shape, (), (), 0)
        return

    def children(mp: MultiPartition, k: int):
        want = None if residues is None else residues[k]
        return iter([(node, i, d) for node, i, d in reversed(step_degrees(mp, ct, charge)[0])
                     if (want is None or i == want) and contains(shape, node)])

    empty = tuple(() for _ in shape)
    # per prefix: its untried children, entries, residue word, degree, shape
    stack = [(children(empty, 0), (), (), 0, empty)]
    while stack:
        kids, order, word, total, mp = stack[-1]
        for node, i, d in kids:
            if len(order) == n - 1:
                yield StandardTableau(shape, order + (node,), word + (i,), total + d)
                continue
            child = add_node(mp, node)
            stack.append((children(child, len(order) + 1), order + (node,), word + (i,),
                          total + d, child))
            break
        else:
            stack.pop()
