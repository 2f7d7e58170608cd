"""Charged partitions and l-partitions.

Partitions are tuples of positive integers in weakly decreasing order
(trailing zeros never stored); an l-partition is a tuple of l partitions.
A node is a triple (row, col, comp), all 1-based.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, combinations, product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .cartan import CartanType, Charge, Residue, RootVector

Partition = Tuple[int, ...]
MultiPartition = Tuple[Partition, ...]
Node = Tuple[int, int, int]
SignatureEntry = Tuple[str, Node]  # marker 'a' or 'r', then the node

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
    """The residues of mp's nodes with multiplicity, one row at a time: the
    row r rows below the top of a component of charge k holds the type-A
    residues k - r, ..., k - r + width - 1, folded by abs in type C."""
    absolute = ct is CartanType.C
    counts: Dict[Residue, int] = {}
    for m, p in enumerate(mp):
        k = charge[m]
        for r, width in enumerate(p):
            start = k - r
            for i in range(start, start + width):
                if absolute and i < 0:
                    i = -i
                counts[i] = counts.get(i, 0) + 1
    # every count is positive and the dict is ours alone
    return RootVector._of_counts(counts)


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


def signatures(mp: MultiPartition, ct: CartanType,
               charge: Charge) -> Dict[Residue, List[SignatureEntry]]:
    """The i-signature of every residue i with a corner: its addable and
    removable i-nodes, marked 'a' and 'r', in (component, row) order, from
    one pass over the rows.  Row r of a component has an addable node
    exactly when row r - 1 (if any) is longer, and then row r - 1 has a
    removable node; the two are read in that order."""
    absolute = ct is CartanType.C
    sigs: Dict[Residue, List[SignatureEntry]] = {}
    for m, p in enumerate(mp, start=1):
        k = charge[m - 1]
        prev = None
        for r, width in enumerate(p + (0,), start=1):
            if prev is not None:
                if width == prev:
                    continue
                i = k + prev - r + 1
                sigs.setdefault(abs(i) if absolute else i, []).append(
                    ("r", (r - 1, prev, m)))
            i = k + width + 1 - r
            sigs.setdefault(abs(i) if absolute else i, []).append(
                ("a", (r, width + 1, m)))
            prev = width
    return sigs


def step_degrees(mp: MultiPartition, ct: CartanType, charge: Charge,
                 i: Optional[Residue] = None) -> List[Tuple[Node, int]]:
    """Every removable node of mp (of residue i, if given) with its step
    degree: (#addable - #removable) nodes of its residue strictly below it.
    The two corners of a row never share a residue (in type C, |x| is never
    |x + 1|), so in a signature the entries after a removable node are
    exactly those strictly below it, and one reversed pass over each
    signature gives every removal's step degree."""
    sigs = signatures(mp, ct, charge)
    out: List[Tuple[Node, int]] = []
    for sig in sigs.values() if i is None else (sigs.get(i, ()),):
        d = 0
        for marker, node in reversed(sig):
            if marker == "a":
                d += 1
            else:
                out.append((node, d))
                d -= 1
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


def dominance_sums(mps: Sequence[MultiPartition]) -> List[Tuple[int, ...]]:
    """Each l-partition's row prefix sums, taken over its components in
    turn, with every component padded by zero rows to the largest row count
    it has among mps.  For l-partitions of mps of equal size, a dominates b
    iff every sum of a is at least b's: the padded positions repeat totals
    that a compared position already holds, or 0 against 0."""
    widths = [max(map(len, comp)) for comp in zip(*mps)]
    return [tuple(accumulate(chain.from_iterable(
                p + (0,) * (w - len(p)) for p, w in zip(mp, widths))))
            for mp in mps]


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


def rect_split(nu: Partition, rho: Partition) -> Tuple[Partition, Partition]:
    """Inverse of the bridge image nu = rho + (lam, mu'): recover (lam, mu)."""
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
    deterministic order of multipartitions_of.  A level-two type-A block is
    read off its weight (_weight_placements), every other one as follows.

    At e = infinity a component of charge k is fixed by its diagonal
    profile: d(t) is the number of its nodes of type-A residue t.  Stepping
    toward the centre t = k, d stays the same or rises by 1; stepping away
    from it, d stays the same or drops by 1.  Each step is one edge of the
    shape's boundary, read from south-west to north-east: a north edge
    closes a row whose length is the number of east edges before it.

    The walk runs over residues, one profile value per track and step, with
    the values of each step summing to beta there.  In type A there is one
    track per component, walked from t = min(beta) - 1 to max(beta) + 1.  In
    type C the residue i holds the type-A residues i and -i, so a component
    is two tracks, t = 0, 1, ... and t = 0, -1, ..., that share d(0); the
    walk first splits beta(0) over the components, then steps i = 1 up to
    max(beta) + 1.  No value is negative or exceeds the away-steps left
    before it must reach 0, and the last track's value is beta minus the
    others', so a step tries at most 2^(tracks - 1) vectors.  The walk keeps
    its own stack, so a block of any height is listed without recursion.
    """
    level = len(charge)
    if beta.height == 0:
        return [(EMPTY,) * level]
    labels = [i for i, _ in beta.items()]
    if ct is CartanType.A and level == 2:
        return sorted(_weight_placements(charge, beta, labels[0], labels[-1]),
                      key=_block_order, reverse=True)
    if ct is CartanType.C:
        if labels[0] < 0:
            return []
        # component m is tracks 2m (t = 0, 1, ...) and 2m + 1 (t = 0, -1, ...)
        start, top = 0, labels[-1] + 1
        tracks = [(k, s) for k in charge for s in (1, -1)]
        targets = [beta[i] for i in range(1, top + 1)]
    else:
        start, top = labels[0] - 1, labels[-1] + 1
        tracks = [(k, 1) for k in charge]
        targets = [beta[t] for t in range(start + 1, top + 1)]
    n = len(targets)
    # a track whose centre is `ahead` steps on may rise on steps j < ahead
    # and fall after; past step j it holds at most min(cap, n - j - 1), the
    # away-steps left before it ends at 0
    bounds = [(s * (k - start), max(0, n - s * (k - start))) for k, s in tracks]
    if ct is CartanType.C:
        # a minus track may start at any d(0) <= n, its plus track at <= cap
        roots = [tuple(v for v in split for _ in "+-")
                 for split in product(*(range(min(n, cap) + 1)
                                        for _, cap in bounds[::2]))
                 if sum(split) == beta[0]]
    else:
        roots = [(0,) * level]

    out: List[MultiPartition] = []
    path: List[Tuple[int, ...]] = [()] * (n + 1)
    stack = [iter(roots)]
    while stack:
        j = len(stack) - 1
        for vec in stack[-1]:
            path[j] = vec
            if j < n:
                stack.append(iter(_profile_steps(vec, bounds, j, n - j - 1,
                                                 targets[j])))
                break
            profiles = list(zip(*path))
            if ct is CartanType.C:
                out.append(tuple(
                    _profile_rows(profiles[2 * m + 1][::-1] + profiles[2 * m][1:],
                                  -top, k)
                    for m, k in enumerate(charge)))
            else:
                out.append(tuple(_profile_rows(profiles[m], start, k)
                                 for m, k in enumerate(charge)))
        else:
            stack.pop()
    out.sort(key=_block_order, reverse=True)
    return out


def _block_order(mp: MultiPartition):
    # in reverse, multipartitions_of's order: larger components first, then parts
    # lexicographically decreasing (no part list of one size is a prefix of another)
    return tuple((sum(p), p) for p in mp)


def _weight_placements(charge: Charge, beta: RootVector, first: Residue,
                       last: Residue) -> List[MultiPartition]:
    """The level-two type-A block of content beta (residues first..last).
    Vertex u is in c_u = [u < k1] + [u < k2] + beta(u) - beta(u + 1) of the
    Maya sets M(lam, k1), M(mu, k2), where M(p, k) = {k + p_r - r : r >= 1}.
    From lo = min(beta, k1, k2) - 1 up, each c_u = 2 is in both, and each
    choice of k1 - lo - #(c_u = 2) free vertices (c_u = 1) for M(lam, k1),
    the rest for M(mu, k2), is one member; other c_u leave the block empty."""
    # a charge past first - 1 or last + 1 empties its component, as that end does
    k1, k2 = (min(max(k, first - 1), last + 1) for k in charge)
    lo, hi = min(first, k1, k2) - 1, max(last, k1, k2)
    c = [(u < k1) + (u < k2) + beta[u] - beta[u + 1] for u in range(hi, lo - 1, -1)]
    d = k1 - lo - c.count(2)
    if d < 0 or not set(c) <= {0, 1, 2}:
        return []
    out: List[MultiPartition] = []
    for vee in map(set, combinations([j for j, x in enumerate(c) if x == 1], d)):
        lam, mu = [], []
        for j, x in enumerate(c):
            if x == 2 or j in vee:
                lam.append(hi - j - k1 + len(lam) + 1)
            if x == 2 or (x == 1 and j not in vee):
                mu.append(hi - j - k2 + len(mu) + 1)
        out.append((tuple(x for x in lam if x), tuple(x for x in mu if x)))
    return out


def _profile_steps(vec: Tuple[int, ...], bounds: Sequence[Tuple[int, int]],
                   j: int, left: int, target: int) -> List[Tuple[int, ...]]:
    """Every profile vector one step on from vec whose values sum to
    target, where `left` steps remain after this one."""
    choices = []
    for v, (ahead, cap) in zip(vec, bounds):
        if cap > left:
            cap = left
        w = v + 1 if j < ahead else v - 1
        stay_or_step = (v, w) if 0 <= w <= cap else (v,)
        # a value above the cap must step down to it
        choices.append(stay_or_step[1:] if v > cap else stay_or_step)
    last = choices.pop()
    out = []
    for head in product(*choices):
        x = target - sum(head)
        if x in last:
            out.append(head + (x,))
    return out


def _profile_rows(profile: Sequence[int], t: int, k: int) -> Partition:
    """The partition of charge k whose diagonal lengths, from residue t on,
    are profile (0 at both ends)."""
    # The boundary corner on diagonal t has d(t) + max(t - k, 0) east edges
    # before it; where two corners agree, a north edge between them closes
    # a row that long.  Rows close bottom first.
    rows: List[int] = []
    prev = 0
    for d in profile:
        x = d + t - k if t > k else d
        if x == prev and x:
            rows.append(x)
        prev = x
        t += 1
    return tuple(reversed(rows))
