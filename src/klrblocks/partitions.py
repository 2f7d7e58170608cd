"""Charged partitions and l-partitions.

Partitions are tuples of positive integers in weakly decreasing order
(trailing zeros never stored); an l-partition is a tuple of l partitions.
A node is a triple (row, col, comp), all 1-based.

The Young lattice is walked on one int per l-partition, of any type and
level (lattice_state); one corner rule (corners) reads each corner's
residue and step degree off its bits, with the state after the step (its
child), which is again a lattice state.  The graded recursion, the tableau
walk and the command line's Kleshchev test read them.  A memoized walk
too deep to recurse through is filled from the bottom (fill_from_bottom).
"""

from __future__ import annotations

import sys
from itertools import combinations, count
from operator import sub
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .cartan import CartanType, Charge, Residue, RootVector

Partition = Tuple[int, ...]
MultiPartition = Tuple[Partition, ...]
Node = Tuple[int, int, int]

EMPTY: Partition = ()


def as_partition(parts: Sequence[int]) -> Partition:
    """parts as a partition, trailing zeros dropped; a negative part, or a
    part above the one before it (a positive part after a zero among
    them), is refused."""
    p = tuple(parts)
    ordered = all(map(int.__ge__, p, p[1:]))
    # a negative part is named first; the least of ordered parts is the last
    if p and (p[-1] if ordered else min(p)) < 0:
        raise ValueError(f"negative part in {parts!r}")
    if not ordered:
        raise ValueError(f"parts not weakly decreasing: {parts!r}")
    return p[:p.index(0)] if p and not p[-1] else p


def size(mp: MultiPartition) -> int:
    return sum(map(sum, mp))


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


def lattice_state(mp: MultiPartition, charge: Charge) -> Tuple[int, int]:
    """(n, s) for n = |mp|: mp's components' Maya sets interleaved in one
    int, with no charge in any bit (a charge of another level is refused).
    Bit l j + m - 1 of s holds k_m + j - n - 1 in M(mp_m, k_m) =
    {k_m + p_r - r}, that is j - n - 1 in M(mp_m, 0), over the window
    j = 0..2n + 1: every label below it is in M, none above, and each lane
    holds n + 1 bits."""
    l, n = len(mp), size(mp)
    if len(charge) != l:
        raise ValueError(f"shape has {l} components but charge has {len(charge)}")
    s = 0
    for m, p in enumerate(mp):  # the labels below the last row, then the rows
        s |= ((1 << l * (n + 1 - len(p))) - 1) // ((1 << l) - 1) << m
        for r, x in enumerate(p, 1):
            s |= 1 << l * (n + 1 + x - r) + m
    return n, s


# (type, charge) -> what corners reads of that setting (_setting), built on
# its first call and kept for the process
_SETTINGS: Dict[Tuple[CartanType, Charge], tuple] = {}


def _setting(ct: CartanType, charge: Charge) -> tuple:
    """corners' constants of (ct, charge): l = len(charge), the fold (type
    C), the l low bits, 1 << l | 1, and per component m (own, later, mirror).
    In a state of size n, label u - 1 of component b is bit l (u + n) + b -
    l k_b; own is m's offset m - l k_m, later the offsets of the components
    after m, and mirror later with own after them.  Built on the setting's
    first call and kept in _SETTINGS under the tuple charge."""
    setting = _SETTINGS.get((ct, charge))
    if setting is None:
        l = len(charge)
        offsets = [b - l * k for b, k in enumerate(charge)]
        setting = _SETTINGS[ct, charge] = (
            l, ct is CartanType.C, (1 << l) - 1, 1 << l | 1, tuple(
                (own, tuple(offsets[m + 1:]), tuple(offsets[m + 1:]) + (own,))
                for m, own in enumerate(offsets)))
    return setting


def corners(ct: CartanType, charge: Charge, n: int, s: int, add: bool,
            i: Optional[Residue] = None) -> List[Tuple[int, Residue, int, int]]:
    """Every addable (add) or removable corner of the lattice state (n, s)
    under charge (l = len(charge)), of residue i only if i is
    given, as (bit, residue, step degree, child) in (component, row) order.
    Bit q = l j + m is in component m + 1, of content t = j + k - n - 1 and
    residue t, or |t| in type C; it is addable when t - 1 is in M and t is
    not, removable when t is and t - 1 is not.  Its step degree
    (Brundan-Kleshchev-Wang), the addable minus the removable nodes of its
    residue strictly below it, sums b(u - 1) - b(u), b membership (1 below
    the window), over every later component and label u of the residue (t,
    or t and -t in type C), and in type C with t > 0 over the mirror -t in
    its own component.  Adding or removing the corner moves none of these
    bits, so an addable corner's degree is that of adding it.  The child is
    the lattice state of the shape after the step: t - 1 moves to t or
    back, and the window moves one lane step.  What depends on (ct, charge)
    alone is read from _SETTINGS."""
    try:
        setting = _SETTINGS[ct, charge]
    except (KeyError, TypeError):  # a new setting, or a list charge
        setting = _setting(ct, tuple(charge))
    l, fold, low, pair, comps = setting
    found = []  # (bit, content, later, mirror)
    if i is None:
        mask = ~s & s << l if add else s & ~(s << l) & ~low
        rep = ((1 << l * (mask.bit_length() // l + 1)) - 1) // low
        m = 0
        for own, later, mirror in comps:  # bit l j + m for every j, top first
            lane = mask & rep << m
            m += 1
            while lane:
                q = lane.bit_length() - 1
                lane ^= 1 << q
                found.append((q, (q - own) // l - n - 1, later, mirror))
    else:
        # a corner's bits of t - 1 and t (pair) read want
        want, base = 1 if add else 1 << l, l * (n + 1)
        contents = (i,) if not fold or i == 0 else (i, -i) if i > 0 else ()
        for own, later, mirror in comps:
            for t in contents:
                q = l * t + base + own
                if q >= l and s >> q - l & pair == want:
                    found.append((q, t, later, mirror))
    out = []
    for q, t, later, mirror in found:
        d, h = 0, l * (t + n)
        for p in later:  # the bit of u - 1, for u = t
            p += h
            if p >= 0:
                x = s >> p
                d += (x & 1) - (x >> l & 1)
        if fold and t:
            h = l * (n - t)
            for p in mirror if t > 0 else later:  # for u = -t
                p += h
                if p >= 0:
                    x = s >> p
                    d += (x & 1) - (x >> l & 1)
            t = abs(t)
        x = s ^ pair << q - l
        out.append((q, t, d, x << l | low if add else x >> l))
    return out


def fill_from_bottom(depth: int, memo: Callable, below: Callable,
                     tops: Iterable[tuple]) -> None:
    """If depth, the most levels a miss of memo recurses, is past a quarter
    of the recursion limit, read tops (argument tuples) and make memo's
    entries for them and every tuple below them (below(*args) lists those
    that memo(*args) reads), lowest level first, so no miss recurses twice."""
    if 4 * depth > sys.getrecursionlimit():
        levels = [set(tops)]
        while levels[-1]:
            levels.append({t for args in levels[-1] for t in below(*args)})
        for level in reversed(levels):
            for args in level:
                memo(*args)


def dominance_sums(mps: Sequence[MultiPartition]) -> Tuple[List[int], int]:
    """Each l-partition's row prefix sums, taken over its components in
    turn with every component padded by zero rows to the largest row count
    it has among mps, as one int (sum k at bit k*f, f = n.bit_length() + 1
    for size n), and G, the top bit of every field, which no sum reaches.
    For mps of equal size, a dominates b iff every sum of a is at least b's
    (a padded position repeats a total already compared, or 0 against 0),
    iff ((A | G) - B) & G == G: no field borrows from the next."""
    f = size(mps[0]).bit_length() + 1
    widths = [max(map(len, comp)) for comp in zip(*mps)]
    packed = []
    for mp in mps:
        x = t = k = 0
        for p, w in zip(mp, widths):
            for r in p + (0,) * (w - len(p)):
                t += r
                x, k = x | t << k, k + f
        packed.append(x)
    return packed, ((1 << f * sum(widths)) - 1) // ((1 << f) - 1) << f - 1


def conjugate(p: Partition) -> Partition:
    if not p:
        return EMPTY
    out = [0] * p[0]
    for width in p:
        for c in range(width):
            out[c] += 1
    return tuple(out)


def partitions_of(n: int) -> Tuple[Partition, ...]:
    """All partitions of n, lexicographically decreasing, listed in place
    (Zoghbi-Stojmenovic's ZS1): x holds the partition in its first m
    entries and 1 in every entry after h, its last part above 1.  The next
    partition lowers that part by one and refills what it and the 1s after
    it held with parts as large as it now is, the rest in one last part."""
    if n <= 0:
        return ((),) if n == 0 else ()
    x, m, h = [n] + [1] * (n - 1), 1, 0
    out = [(n,)]
    while x[0] > 1:
        if x[h] == 2:  # a 2 becomes 1, 1
            x[h], m, h = 1, m + 1, h - 1
        else:
            r = x[h] - 1
            x[h], t = r, m - h
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            m = h + 1 + (t > 0)
            if t > 1:
                h += 1
                x[h] = t
        out.append(tuple(x[:m]))
    return tuple(out)


def multipartitions_of(n: int, level: int) -> List[MultiPartition]:
    """All l-partitions of n, ordered lexicographically on part lists.  The
    partitions of each height up to n are listed once per call, and the
    tails, the last j components, once per size and j, from j = 1 up: a
    loop, for any level."""
    if n < 0:
        raise ValueError(f"size must be non-negative, got {n}")
    if level == 1:
        return [(p,) for p in partitions_of(n)]
    table = [partitions_of(k) for k in range(n + 1)]

    def heads(m: int, rests: List[List[MultiPartition]]) -> List[MultiPartition]:
        return [(p,) + rest for k in range(m, -1, -1)
                for p in table[k] for rest in rests[m - k]]

    tails = [[(p,) for p in ps] for ps in table]
    for _ in range(level - 2):
        tails = [heads(m, tails) for m in range(n + 1)]
    return heads(n, tails)


def enumerate_block(ct: CartanType, charge: Charge, beta: RootVector) -> List[MultiPartition]:
    """All l-partitions (l = len(charge)) with the given content, in the
    deterministic order of multipartitions_of, read off their Maya sets
    M(p, k) = {k + p_r - r : r >= 1}.

    A nonempty component's content is one run of consecutive labels that
    holds its charge.  So beta splits into its runs, each run is listed on
    its own (_run_block) with every component whose charge lies outside it
    empty there, and the block is the product of the runs' lists.  A type-C
    run that starts above 0 folds no node and is listed as type A.
    """
    if beta.height == 0:
        return [(EMPTY,) * len(charge)]
    runs: List[List[Tuple[Residue, int]]] = []
    for entry in beta.items():
        if runs and runs[-1][-1][0] == entry[0] - 1:
            runs[-1].append(entry)
        else:
            runs.append([entry])
    if ct is CartanType.C and runs[0][0][0] < 0:
        return []
    out = _run_block(ct is CartanType.C and runs[0][0][0] == 0, charge, runs[0])
    for entries in runs[1:]:
        # each component is empty in every run but its own, and the empty
        # partition is below every other
        out = [tuple(map(max, mp, shapes))
               for mp in out for shapes in _run_block(False, charge, entries)]
    out.sort(key=_block_order, reverse=True)
    return out


def _block_order(mp: MultiPartition):
    # in reverse, multipartitions_of's order: larger components first, then parts
    # lexicographically decreasing (no part list of one size is a prefix of another)
    return [(sum(p), p) for p in mp]


def _run_block(fold: bool, charge: Charge,
               entries: Sequence[Tuple[Residue, int]]) -> List[MultiPartition]:
    """The l-partitions whose content is entries, a run of labels
    first..last.  A charge outside first - 1..last + 1 is moved to the
    nearer end, which leaves its component empty, as the charge itself does.

    Vertex u is index j = last - u.  Type A (not fold): u lies in
    c_u = sum_m [u < k_m] + beta(u) - beta(u + 1) of the sets M(p_m, k_m);
    all of them hold every u < first - 1 and none holds a u > last, so set m
    holds k_m - first + 1 vertices of first - 1..last.  Type C (fold,
    first = 0): a component is two tracks on u >= 0, "u in M" and "-1 - u
    not in M", whose vertex counts add up to the same c_u with beta(0) more
    at u = 0, and the first track holds k_m more vertices than the second.
    Every way of dealing the vertices to the tracks (_placements) is one
    member."""
    last = entries[-1][0]
    lo = 0 if fold else entries[0][0] - 1
    ks = [min(max(k, lo), last + 1) for k in charge]
    # beta(u) for u = last, last - 1, ..., lo, then c_u
    b = [x for _, x in reversed(entries)] + ([] if fold else [0])
    c = list(map(sub, b, [0] + b))
    if fold:
        c[-1] += b[-1]
    for k in ks:
        for j in range(last - k + 1, len(c)):
            c[j] += 1
    if min(c) < 0:
        return []
    tops = [last - k + 1 for k in ks]
    if not fold:
        counts = tuple([k - lo for k in ks])
        return [tuple(map(_maya_rows, tracks, tops))
                for tracks in _placements(tuple(c), counts)]
    counts = tuple([x for k in ks for x in (None, k)])
    out = []
    for tracks in _placements(tuple(c), counts):
        shapes = []
        for top, inside, outside in zip(tops, tracks[::2], tracks[1::2]):
            # a vertex u (index j) of the second track leaves -1 - u, the
            # index 2 last + 1 - j, out of M; M holds -1 - u for every other u
            span = range(last, outside[0], -1) if outside else ()
            below = [2 * last + 1 - j for j in span if j not in outside]
            shapes.append(_maya_rows(inside + below, top))
        out.append(tuple(shapes))
    return out


def _maya_rows(indices: Sequence[int], top: int) -> Partition:
    """The partition of charge k whose Maya set holds the vertices
    u = last - j for j in indices (increasing) and every u below them, where
    top = last - k + 1: its rows are u_r - k + r."""
    return tuple(filter(None, map(sub, count(top), indices)))


def _placements(c: Tuple[int, ...], counts: tuple) -> Iterable[tuple]:
    """Every way to give each track counts[t] vertices so that vertex j goes
    to c[j] tracks, as one increasing list of vertices per track.  A count
    None (a type-C first track) is free, and the next entry is the charge k
    by which that track outnumbers the next.  A vertex whose c equals the
    tracks left goes to each of them; the last track takes what is left."""
    left = len(counts)
    if left > 2:
        return _dealt_placements(c, counts)
    forced = tuple([j for j, x in enumerate(c) if x == left])
    free = [j for j, x in enumerate(c) if 0 < x < left]
    if counts[0] is None:
        n = (sum(c) + counts[1]) // 2
        counts = (n, n - counts[1])
    d = counts[0] - len(forced)
    if max(c) > left or not 0 <= d <= len(free):
        return []
    if left == 1:
        return [(list(forced),)]
    if len(forced) + len(free) - d != counts[1]:
        return []
    # the complements of free's d-subsets, taken in lexicographic order,
    # are its other subsets in reverse lexicographic order
    rests = reversed(list(combinations(free, len(free) - d)))
    return [(sorted(forced + pick), sorted(forced + rest))
            for pick, rest in zip(combinations(free, d), rests)]


def _dealt_placements(c: Tuple[int, ...], counts: tuple) -> Iterable[tuple]:
    """_placements past two tracks, for a charge of many components: a loop
    over an explicit stack of keys (c, counts), each pick of the first track
    (or size of a free one) before the rest of c, chains sharing their tails."""
    memo, stack = {}, [(c, counts, None)]
    while stack:
        cs, ks, below = stack.pop()
        left = len(ks)
        if below is not None:  # every key below it is in memo
            memo[cs, ks] = [(head, chain) for head, key in below for chain in memo[key]]
        elif left <= 2:
            memo[cs, ks] = [(placed, None) for placed in _placements(cs, ks)]
        elif (cs, ks) not in memo:
            forced = tuple([j for j, x in enumerate(cs) if x == left])
            free = [j for j, x in enumerate(cs) if 0 < x < left]
            if ks[0] is None:
                below = [((), (cs, (n, n - ks[1]) + ks[2:])) for n in range(
                    max(ks[1], len(forced)), len(forced) + len(free) + 1)]
            else:
                below, d = [], ks[0] - len(forced)
                for pick in combinations(free, d) if max(cs) <= left and d >= 0 else ():
                    track = set(forced + pick)
                    after = tuple([x - (j in track) for j, x in enumerate(cs)])
                    below.append(((sorted(track),), (after, ks[1:])))
            stack += [(cs, ks, below)] + [key + (None,) for _, key in below
                                          if key not in memo]
    for chain in memo[c, counts]:
        tracks = []
        while chain:
            head, chain = chain
            tracks += head
        yield tuple(tracks)
