"""Standard tableaux: enumeration with residue words and degrees.

A standard tableau is stored as its shape together with the list of nodes
in entry order, i.e. ``order[k-1]`` is the node containing k.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .cartan import CartanType, Charge, Residue
from .partitions import MultiPartition, Node, corners, lattice_state


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
    of any height is walked.  A prefix is a lattice state: the corner rule
    (partitions.corners) gives each addable node its residue, the step
    degree of adding it, whose sum along the path is the degree, and the
    state of the prefix with it added; the node's row is 1 plus the number
    of its component's bits above it.
    With a residue filter only the next residue's corners are read.  A
    charge of another level is refused at the call, as lattice_state does,
    and a list charge is read as a tuple."""
    n = lattice_state(shape, charge)[0]
    if residues is not None and len(residues) != n:
        raise ValueError(f"residue word has length {len(residues)}, "
                         f"but the shape has {n} nodes")
    return _walk(shape, ct, tuple(charge), residues, n)


def _walk(shape: MultiPartition, ct: CartanType, charge: Charge,
          residues: Optional[Sequence[Residue]], n: int) -> Iterator[StandardTableau]:
    if n == 0:
        yield StandardTableau(shape, (), (), 0)
        return
    l = len(shape)
    lane = ((1 << l * (2 * n + 2)) - 1) // ((1 << l) - 1)  # bits 0, l, 2l, ...

    def children(k: int, s: int):
        out = []
        for q, i, d, child in corners(ct, charge, k, s, True, residues and residues[k]):
            j, m = divmod(q, l)
            r = (s >> q & lane).bit_count() + 1
            p, c = shape[m], j - k - 1 + r  # the charge-free content plus the row
            if r <= len(p) and c <= p[r - 1]:
                out.append(((r, c, m + 1), i, d, child))
        return iter(out)

    # per prefix: its untried children, entries, residue word, degree; the
    # walk starts from the empty l-partition, whose state is (1 << l) - 1
    stack = [(children(0, (1 << l) - 1), (), (), 0)]
    while stack:
        kids, order, word, total = stack[-1]
        for node, i, d, child in kids:
            if len(order) == n - 1:
                yield StandardTableau(shape, order + (node,), word + (i,), total + d)
                continue
            stack.append((children(len(order) + 1, child), order + (node,), word + (i,),
                          total + d))
            break
        else:
            stack.pop()
