"""Brute-force corner oracles from the definitions, independent of the
package's corner scan (partitions.signatures and step_degrees), and the
unmemoized cogood replay."""

from functools import lru_cache

from klrblocks.crystal import cogood_node
from klrblocks.partitions import add_node, remove_node, residue


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
