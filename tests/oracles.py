"""Brute-force corner oracles from the definitions, independent of the
package's corner scans (partitions.signatures and step_degrees, the
crystal layer's corner pass): i-signatures and their reduction, good and
cogood nodes, the unmemoized cogood replay, and the bridge image.  Also
two tableau fixtures: the sub-diagram a tableau's first entries fill, and
the paper's minimal-degree rectangle tableau."""

from functools import lru_cache

from klrblocks.partitions import (
    EMPTY,
    add_node,
    as_partition,
    is_rectangle,
    remove_node,
    residue,
)
from klrblocks.tableaux import StandardTableau


def _fits(step, mp, node):
    try:
        step(mp, node)
    except ValueError:
        return False
    return True


@lru_cache(maxsize=None)
def corners(mp):
    """(addable, removable): the nodes that add_node and remove_node accept,
    each list in (component, row) order, found by trying both on every cell
    of each component's box one row and one column larger than the
    component.  Each shape is scanned once."""
    addable, removable = [], []
    for m, p in enumerate(mp, start=1):
        for r in range(1, len(p) + 2):
            for c in range(1, (p[0] if p else 0) + 2):
                node = (r, c, m)
                if _fits(add_node, mp, node):
                    addable.append(node)
                if _fits(remove_node, mp, node):
                    removable.append(node)
    return tuple(addable), tuple(removable)


def step_degrees(mp, ct, charge):
    """Every removable node of mp with its step degree by definition: the
    addable minus the removable nodes of its residue strictly below it in
    the (component, row) order, from one scan of mp."""
    addable, removable = corners(mp)

    def keyed(nodes):
        return [((n[2], n[0]), residue(ct, charge, n)) for n in nodes]

    a, r = keyed(addable), keyed(removable)
    return [(node, sum(1 for k, j in a if j == i and k > key)
             - sum(1 for k, j in r if j == i and k > key))
            for node, (key, i) in zip(removable, r)]


def signature(mp, ct, charge, i):
    """The i-signature: the addable and removable i-nodes of the
    brute-force corners, marked 'a' and 'r', in (component, row) order."""
    addable, removable = corners(mp)
    entries = [("a", node) for node in addable if residue(ct, charge, node) == i]
    entries += [("r", node) for node in removable if residue(ct, charge, node) == i]
    entries.sort(key=lambda e: (e[1][2], e[1][0]))
    return tuple(entries)


def reduce_signature(sig):
    """Cancel adjacent (r, a) pairs until the word has shape a..a r..r."""
    stack = []
    for entry in sig:
        if entry[0] == "a" and stack and stack[-1][0] == "r":
            stack.pop()
        else:
            stack.append(entry)
    return tuple(stack)


def good_node(mp, ct, charge, i):
    """The removable node at the leftmost r of the reduced i-signature."""
    reduced = reduce_signature(signature(mp, ct, charge, i))
    return next((node for marker, node in reduced if marker == "r"), None)


def cogood_node(mp, ct, charge, i):
    """The addable node at the rightmost a of the reduced i-signature."""
    reduced = reduce_signature(signature(mp, ct, charge, i))
    return next((node for marker, node in reversed(reduced) if marker == "a"), None)


def plain_cogood_path(start, word, ct, charge):
    """The cogood replay without a memo: one cogood_node and add_node per
    step; None if a step has no cogood node."""
    mp = start
    for i in word:
        node = cogood_node(mp, ct, charge, i)
        if node is None:
            return None
        mp = add_node(mp, node)
    return mp


def rect_add(rho, lam, mu=EMPTY):
    """rho + lam for a rectangle rho, or rho + (lam, mu) with mu appended
    below the rectangle; ValueError where the result is not of that form."""
    if not is_rectangle(rho):
        raise ValueError(f"{rho} is not a rectangle")
    if len(lam) > len(rho):
        raise ValueError(f"{lam} has more rows than {rho}")
    if mu and rho and mu[0] > rho[0]:
        raise ValueError(f"appended part {mu} is wider than the rectangle {rho}")
    if mu and not rho:
        raise ValueError("cannot append below an empty rectangle")
    parts = tuple(rho[r] + (lam[r] if r < len(lam) else 0) for r in range(len(rho)))
    return as_partition(parts + mu)


def prefix_shape(t, k):
    """The sub-diagram that the entries 1..k of the tableau t fill."""
    mp = tuple(() for _ in t.shape)
    for node in t.order[:k]:
        mp = add_node(mp, node)
    return mp


def rectangle_final_tableau(a0, height):
    """The minimal-degree tableau of the a0 x height rectangle in the
    weight space of its row-initial residue sequence: the height - a0 rows
    above the zero-residue square are filled in reading order, the square
    itself down its columns.  For height == a0 there are no rows above, and
    1..n fill the square column by column."""
    if not 1 <= a0 <= height:
        raise ValueError("need 1 <= a0 <= height")
    top = height - a0
    order = [(r, c, 1) for r in range(1, top + 1) for c in range(1, a0 + 1)]
    order += [(top + r, c, 1) for c in range(1, a0 + 1) for r in range(1, a0 + 1)]
    return StandardTableau(((a0,) * height,), tuple(order))
