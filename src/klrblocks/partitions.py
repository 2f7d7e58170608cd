"""Charged partitions and l-partitions.

Partitions are tuples of positive integers in weakly decreasing order
(trailing zeros never stored); an l-partition is a tuple of l partitions.
A node is a triple (row, col, comp), all 1-based.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Sequence, Tuple

from .cartan import CartanType, Charge, Residue, RootVector

Partition = Tuple[int, ...]
MultiPartition = Tuple[Partition, ...]
Node = Tuple[int, int, int]

EMPTY: Partition = ()


def as_partition(parts: Sequence[int]) -> Partition:
    p = tuple(x for x in parts if x != 0)
    if any(x < 0 for x in p):
        raise ValueError(f"negative part in {parts!r}")
    if any(p[k] < p[k + 1] for k in range(len(p) - 1)):
        raise ValueError(f"parts not weakly decreasing: {parts!r}")
    return p


def size(mp: MultiPartition) -> int:
    return sum(sum(p) for p in mp)


def nodes(mp: MultiPartition) -> Iterator[Node]:
    """All nodes of the Young diagram in reading order (component, row, col)."""
    for m, p in enumerate(mp, start=1):
        for r, width in enumerate(p, start=1):
            for c in range(1, width + 1):
                yield (r, c, m)


def contains(mp: MultiPartition, node: Node) -> bool:
    r, c, m = node
    p = mp[m - 1]
    return r <= len(p) and c <= p[r - 1]


def residue(ct: CartanType, charge: Charge, node: Node) -> Residue:
    r, c, m = node
    res = charge[m - 1] + c - r
    return abs(res) if ct is CartanType.C else res


def content(ct: CartanType, charge: Charge, mp: MultiPartition) -> RootVector:
    counts: dict = {}
    for node in nodes(mp):
        i = residue(ct, charge, node)
        counts[i] = counts.get(i, 0) + 1
    return RootVector(counts)


def addable_corners(mp: MultiPartition) -> List[Node]:
    """All addable nodes, ordered by (component, row)."""
    out: List[Node] = []
    for m, p in enumerate(mp, start=1):
        for r in range(1, len(p) + 2):
            prev = p[r - 2] if r >= 2 else None
            cur = p[r - 1] if r <= len(p) else 0
            if prev is not None and cur >= prev:
                continue
            out.append((r, cur + 1, m))
    return out


def addable_nodes(mp: MultiPartition, ct: CartanType, charge: Charge,
                  i: Residue | None = None) -> List[Node]:
    """Addable nodes, optionally filtered by residue, ordered by
    (component, row)."""
    corners = addable_corners(mp)
    if i is None:
        return corners
    return [node for node in corners if residue(ct, charge, node) == i]


def removable_nodes(mp: MultiPartition, ct: CartanType, charge: Charge,
                    i: Residue | None = None) -> List[Node]:
    out: List[Node] = []
    for m, p in enumerate(mp, start=1):
        for r in range(1, len(p) + 1):
            nxt = p[r] if r < len(p) else 0
            if p[r - 1] > nxt:
                node = (r, p[r - 1], m)
                if i is None or residue(ct, charge, node) == i:
                    out.append(node)
    return out


def add_node(mp: MultiPartition, node: Node) -> MultiPartition:
    r, c, m = node
    p = list(mp[m - 1])
    if r == len(p) + 1:
        p.append(0)
    if c != p[r - 1] + 1 or (r >= 2 and p[r - 1] >= p[r - 2]):
        raise ValueError(f"node {node} is not addable to {mp}")
    p[r - 1] += 1
    return mp[: m - 1] + (tuple(p),) + mp[m:]


def remove_node(mp: MultiPartition, node: Node) -> MultiPartition:
    r, c, m = node
    p = list(mp[m - 1])
    nxt = p[r] if r < len(p) else 0
    if r > len(p) or c != p[r - 1] or p[r - 1] <= nxt:
        raise ValueError(f"node {node} is not removable from {mp}")
    p[r - 1] -= 1
    if p[r - 1] == 0:
        p.pop(r - 1)
    return mp[: m - 1] + (tuple(p),) + mp[m:]


def dominates(a: MultiPartition, b: MultiPartition) -> bool:
    """Dominance order on l-partitions of equal size and level."""
    if len(a) != len(b):
        raise ValueError("level mismatch")
    if size(a) != size(b):
        raise ValueError("size mismatch")
    before_a = before_b = 0
    for m in range(len(a)):
        pa, pb = a[m], b[m]
        sa, sb = before_a, before_b
        for r in range(max(len(pa), len(pb))):
            sa += pa[r] if r < len(pa) else 0
            sb += pb[r] if r < len(pb) else 0
            if sa < sb:
                return False
        before_a += sum(pa)
        before_b += sum(pb)
    return True


def conjugate(p: Partition) -> Partition:
    if not p:
        return EMPTY
    out = [0] * p[0]
    for width in p:
        for c in range(width):
            out[c] += 1
    return tuple(out)


def is_rectangle(p: Partition) -> bool:
    return len(set(p)) <= 1


def rect_add(rho: Partition, lam: Partition, mu: Partition = EMPTY) -> Partition:
    """rho + lam for a rectangle rho, or rho + (lam, mu) with mu appended
    below the rectangle."""
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


def rect_split(nu: Partition, rho: Partition) -> Tuple[Partition, Partition]:
    """Inverse of nu = rect_add(rho, lam, conjugate(mu)): recover (lam, mu)."""
    if not is_rectangle(rho):
        raise ValueError(f"{rho} is not a rectangle")
    b = len(rho)
    a = rho[0] if rho else 0
    if len(nu) < b or any(nu[r] < a for r in range(b)):
        raise ValueError(f"{rho} is not contained in {nu}")
    tail = nu[b:]
    if tail and tail[0] > a:
        raise ValueError(f"{nu} is not of the {rho}-block shape")
    lam = as_partition(tuple(nu[r] - a for r in range(b)))
    mu = conjugate(tail)
    return lam, mu


@lru_cache(maxsize=None)
def partitions_of(n: int) -> Tuple[Partition, ...]:
    """All partitions of n, lexicographically decreasing."""
    def gen(n: int, cap: int) -> Iterator[Partition]:
        if n == 0:
            yield ()
            return
        for first in range(min(n, cap), 0, -1):
            for rest in gen(n - first, first):
                yield (first,) + rest
    return tuple(gen(n, n))


def multipartitions_of(n: int, level: int) -> List[MultiPartition]:
    """All l-partitions of n, ordered lexicographically on part lists."""
    if n < 0:
        raise ValueError(f"size must be non-negative, got {n}")
    if level == 1:
        return [(p,) for p in partitions_of(n)]
    out: List[MultiPartition] = []
    for k in range(n, -1, -1):
        for p in partitions_of(k):
            for rest in multipartitions_of(n - k, level - 1):
                out.append((p,) + rest)
    return out


def enumerate_block(ct: CartanType, charge: Charge, beta: RootVector) -> List[MultiPartition]:
    """All l-partitions (l = len(charge)) with the given content, in the
    deterministic order of multipartitions_of.

    Shapes are grown under a residue budget: components in order, rows top
    to bottom, each row extended one node at a time while the node's residue
    still has budget left in beta.  A row stops at the first node whose
    residue has none, since every wider row holds that node too.  Once all
    ht(beta) nodes are placed, no residue count exceeds beta and the counts
    sum to ht(beta), so the content is beta.
    """
    level = len(charge)
    budget = dict(beta.items())
    out: List[MultiPartition] = []

    def grow(done: MultiPartition, rows: Partition, left: int) -> None:
        m = len(done) + 1
        if left == 0:
            out.append(done + (rows,) + (EMPTY,) * (level - m))
            return
        r = len(rows) + 1
        limit = min(rows[-1], left) if rows else left
        spent: List[Residue] = []
        while len(spent) < limit:
            i = residue(ct, charge, (r, len(spent) + 1, m))
            if not budget.get(i):
                break
            budget[i] -= 1
            spent.append(i)
        while spent:
            grow(done, rows + (len(spent),), left - len(spent))
            budget[spent.pop()] += 1
        if m < level:
            grow(done + (rows,), EMPTY, left)

    grow((), EMPTY, beta.height)
    # multipartitions_of's order: larger components first, then parts
    # lexicographically decreasing
    out.sort(key=lambda mp: tuple((-sum(p), tuple(-x for x in p)) for p in mp))
    return out
