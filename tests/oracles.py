"""Brute-force corner oracles from the definitions, independent of the
package's one corner rule (partitions.corners on the lattice states of
partitions.lattice_state, off which the crystal layer also reads its
good nodes): the nodes of a shape and their residues, the Young-lattice
steps on shapes (contains, add_node, remove_node) with the corners they
accept, step degrees by definition, and the reversed pass over the rows
that the lattice states replaced (step_degrees), beside a reader of the
corner rule in its terms (state_corners), the step on a lattice state
that the rule's child state replaced (move), and the running-minimum good
nodes on it (good_nodes); i-signatures and their reduction, good and
cogood nodes, the unmemoized cogood replay, and the bridge image.  The
cogood rule on step degrees and the good-removal walk on shapes that the
bridge's bit rules replaced (oracle_cogood_node, good_walk), the ballot
rule of the type-A weights (ballot_kleshchev), and a reader of the bit
walk in the terms of good_walk (c_shape, bit_good_walk); the type-A bit
state built row by row (a_state), the oracle of the weights a_block
gives.  Also the bridge map with its membership check, built on that
image; the weight labels of a type-C partition; the pairwise dominance test that the dominance
check's prefix sums replaced, the prefix sums as tuples that its packed
sums replaced, and the check's pairwise loop on that test; the
recursive generator that listed partitions before partitions_of listed
them in place, and the sweep's grouping by content that its grouping by
weight replaced (content_bridges); the nested recursion that listed
l-partitions before multipartitions_of kept a table of its own, and the
tableau references that the package's walk
replaced: the recursive depth-first enumeration, the cellular degree
replayed entry by entry, and the hand-built row-reading tableau with its
residue word read node by node (nodes, residue); two tableau fixtures:
the sub-diagram a tableau's first entries fill, and the paper's
minimal-degree rectangle tableau; the bridge's map of tableaux onto
factorizable tableaux; the factorizable sum that the bridge's bit-state
walks replaced, as a recursion over an interval of the Young lattice,
with the product of Laurent polynomials it needs; the step lists and
good-node generator that the walks and Kleshchev tests read before they
read each removal off the bits themselves (c_steps, a_steps, c_goods),
with the Kleshchev test and good-removal walk written on them
(list_c_kleshchev, list_c_good_walk); those walks at one digit width per
block, as they were before one entry per state held the count with the
polynomial (width_c_walk, width_a_walk, block_width); the hook-length
count of a bipartition's tableaux (hook_count); the argparse parser
that the command line's own parser replaced, as the reference of its
parsing, with the --type reader through the CartanType enum call that
the command line's table of types replaced (enum_type); and the readers
that the one-pass parsers replaced: the partition rule's two checks
(two_check_partition) and the root vector read key by key and then
checked entry by entry (keyed_root_vector)."""

import argparse
from functools import cache, lru_cache
from itertools import accumulate, chain
from math import comb, factorial, prod

from klrblocks import cli, morita, partitions
from klrblocks.cartan import CartanType, RootVector
from klrblocks.graded import LaurentPoly, gdim_specht
from klrblocks.morita import ALL_CHECKS, BridgeError
from klrblocks.partitions import (
    EMPTY,
    MultiPartition,
    as_partition,
    conjugate,
    content,
    partitions_of,
    size,
)
from klrblocks.tableaux import StandardTableau


def nodes(mp):
    """All nodes of the Young diagram in reading order (component, row, col)."""
    for m, p in enumerate(mp, start=1):
        for r, width in enumerate(p, start=1):
            for c in range(1, width + 1):
                yield (r, c, m)


def residue(ct, charge, node):
    """A node's residue by definition: its component's charge plus its
    column minus its row, folded by abs in type C."""
    r, c, m = node
    res = charge[m - 1] + c - r
    return abs(res) if ct is CartanType.C else res


def initial_tableau(shape):
    """The row-reading tableau: the nodes filled in reading order.  Built by
    hand, it carries no residue word or degree."""
    return StandardTableau(shape, tuple(nodes(shape)), None, None)


def residue_sequence(t, ct, charge):
    """A tableau's residue word, one node's residue at a time."""
    return tuple(residue(ct, charge, node) for node in t.order)


def contains(mp, node):
    r, c, m = node
    p = mp[m - 1]
    return r <= len(p) and c <= p[r - 1]


def add_node(mp, node):
    r, c, m = node
    p = list(mp[m - 1])
    if r == len(p) + 1:
        p.append(0)
    if c != p[r - 1] + 1 or (r >= 2 and p[r - 1] >= p[r - 2]):
        raise ValueError(f"node {node} is not addable to {mp}")
    p[r - 1] += 1
    return mp[: m - 1] + (tuple(p),) + mp[m:]


def remove_node(mp, node):
    r, c, m = node
    p = list(mp[m - 1])
    nxt = p[r] if r < len(p) else 0
    if r > len(p) or c != p[r - 1] or p[r - 1] <= nxt:
        raise ValueError(f"node {node} is not removable from {mp}")
    p[r - 1] -= 1
    if p[r - 1] == 0:
        p.pop(r - 1)
    return mp[: m - 1] + (tuple(p),) + mp[m:]


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


@lru_cache(maxsize=None)
def removal_degrees(mp, ct, charge):
    """Every removable node of mp with its step degree by definition, as a
    dict: the addable minus the removable nodes of its residue strictly
    below it in the (component, row) order, from one scan of mp."""
    addable, removable = corners(mp)

    def keyed(nodes):
        return [((n[2], n[0]), residue(ct, charge, n)) for n in nodes]

    a, r = keyed(addable), keyed(removable)
    return {node: sum(1 for k, j in a if j == i and k > key)
            - sum(1 for k, j in r if j == i and k > key)
            for node, (key, i) in zip(removable, r)}


def step_degrees(mp, ct, charge):
    """(addable, removable): every corner of mp with its residue and step
    degree, both lists last first in (component, row) order, from one
    reversed pass over the rows: the package's corner scan before the
    lattice states replaced it.  Where row r of a component is longer than
    row r + 1, of width w (0 below the last row), (r + 1, w + 1) is
    addable and the last node of row r removable; row 1 always has an
    addable node.  A removable node's step degree is that of removing it;
    an addable node's is that of adding it."""
    absolute = ct is CartanType.C
    below = {}
    addable = []
    removable = []
    for m in range(len(mp), 0, -1):
        p, k = mp[m - 1], charge[m - 1]
        r, width = len(p), 0  # row r + 1 is width long, row r above long
        for above in p[::-1]:
            if above != width:
                i = k + width - r
                if absolute and i < 0:
                    i = -i
                d = below.get(i, 0)
                addable.append(((r + 1, width + 1, m), i, d))
                below[i] = d + 1
                i = k + above - r
                if absolute and i < 0:
                    i = -i
                d = below.get(i, 0)
                removable.append(((r, above, m), i, d))
                below[i] = d - 1
                width = above
            r -= 1
        i = k + width
        if absolute and i < 0:
            i = -i
        d = below.get(i, 0)
        addable.append(((1, width + 1, m), i, d))
        below[i] = d + 1
    return addable, removable


def state_corners(mp, ct, charge):
    """partitions.corners on mp's lattice state, in the form step_degrees
    gives: (addable, removable), each corner as (node, residue, degree),
    last first in (component, row) order.  A bit is read back as the node
    of its component at the end of a row (removable), or just past it
    (addable), with the same content; a bit with no such node raises
    KeyError."""
    n, s = partitions.lattice_state(mp, charge)
    l = len(mp)
    out = []
    for add in (True, False):
        at = {l * (x + add - r + n + 1) + m: (r, x + add, m + 1)
              for m, p in enumerate(mp) for r, x in enumerate(p + (0,) * add, 1)}
        found = partitions.corners(ct, tuple(charge), n, s, add)
        out.append([(at[q], i, d) for q, i, d, _ in reversed(found)])
    return tuple(out)


def move(l, s, q, add):
    """The lattice state of level l after adding (add) or removing the
    corner at bit q of s, as the corner rule's callers computed it before
    the rule gave each corner its child: t - 1 moves to t or back, and the
    window moves one lane step."""
    s ^= (1 << l | 1) << q - l
    return s << l | (1 << l) - 1 if add else s >> l


def good_nodes(mp, ct, charge):
    """{i: the good i-node} for every residue i that has one, by the
    running-minimum rule on the lattice state's step degrees, read bottom
    first (crystal._kleshchev's rule), in the order _kleshchev reads them:
    its first entry is the node it removes."""
    low, good = {}, {}
    for node, i, d in state_corners(mp, ct, charge)[1]:
        if d < low.get(i, 1):
            low[i] = d
            good[i] = node
    return good


def degree(t, ct, charge):
    """The cellular degree by definition: the sum over the entries, in
    order, of the step degree of each node in the shape just after it is
    added."""
    total = 0
    mp = tuple(() for _ in t.shape)
    for node in t.order:
        mp = add_node(mp, node)
        total += removal_degrees(mp, ct, tuple(charge))[node]
    return total


def standard_tableaux(shape):
    """Std(shape) by the recursive depth-first walk, the addable nodes of
    each prefix tried in (component, row) order: the order reference of
    the package's walk (tableaux.enumerate_standard)."""
    n = size(shape)

    def rec(prefix, order):
        if len(order) == n:
            yield StandardTableau(shape, tuple(order), None, None)
            return
        for node in corners(prefix)[0]:
            if contains(shape, node):
                order.append(node)
                yield from rec(add_node(prefix, node), order)
                order.pop()

    return rec(tuple(() for _ in shape), [])


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


def oracle_cogood_node(mp, ct, charge, i):
    """The cogood i-node read off the step degrees, as the crystal layer did
    before the bridge read it off bit states: the addable i-node of least
    degree, the highest if several tie, when that degree is below the
    count of addable minus removable i-nodes; None otherwise."""
    addable, removable = step_degrees(mp, ct, charge)
    best, low, excess = None, 0, 0
    for node, j, d in addable:  # bottom first: the last of a tie is the highest
        if j == i:
            excess += 1
            if best is None or d <= low:
                best, low = node, d
    excess -= sum(1 for _, j, _ in removable if j == i)
    return None if best is None or low >= excess else best


@lru_cache(maxsize=None)
def _good_walk(ct, charge, mp, target):
    """good_walk for mp != target, memoized for the process.  The search
    tries the good nodes of mp in (component, row) order, skipping those
    inside target, and keeps the first whose removal leaves target or a
    shape with a walk; the entry extends that walk by the node's residue
    and one cogood step of its replay."""
    goods = good_nodes(mp, ct, charge).items()
    for i, node in sorted(goods, key=lambda entry: (entry[1][2], entry[1][0])):
        if contains(target, node):
            continue
        nxt = remove_node(mp, node)
        below = ((), target) if nxt == target else _good_walk(ct, charge, nxt, target)
        if below is None:
            continue
        word, end = below
        if end is not None:
            step = oracle_cogood_node(end, ct, charge, i)
            end = None if step is None else add_node(end, step)
        return word + (i,), end
    return None


def good_walk(mp, target, ct, charge):
    """The good-removal walk on shapes that morita.c_good_walk replaced:
    (word, end), the residue word of good-node removals from mp down to
    target in addition order and the shape its cogood additions reach from
    target (None if a step has no cogood node); None if there is no such
    word.  Depth-first, trying good nodes in (component, row) order; a good
    node inside target is never removed, since no later removal can bring
    it back."""
    if len(target) != len(mp):
        return None
    if mp == target:
        return (), target
    return _good_walk(ct, tuple(charge), mp, target)


def c_shape(zero, s, kappa_c):
    """The partition nu whose type-C bit state (morita.c_state) is (zero, s),
    read off M(nu, kappa_c) = {kappa_c + nu_r - r}: its r-th largest element
    u gives nu_r = u - kappa_c + r, down to the first part that is 0."""
    parts = []
    for p in range(s.bit_length() - 1, -1, -1):
        if s >> p & 1:
            part = p - zero - kappa_c + len(parts) + 1
            if part == 0:
                break
            parts.append(part)
    return tuple(parts)


def a_state(bp, charge):
    """The level-two type-A bit state of bp, by rows: bit 2u + m - 1 holds u
    in M(bp_m, charge_m), for u >= 0 and m = 1, 2.  No component has more
    rows than its charge (as in a bridge's type-A block), so every u < 0 is
    in.  The weight that morita.a_block gives each member of its block."""
    s = 0
    for m, (p, k) in enumerate(zip(bp, charge)):
        if len(p) > k:
            raise ValueError(f"{p} has more rows than its charge {k}")
        s |= ((1 << 2 * (k - len(p))) - 1) // 3 << m  # the rows below the last
        for r, x in enumerate(p, 1):
            s |= 1 << 2 * (k + x - r) + m
    return s


def bit_good_walk(nu, kappa_c, to_rho):
    """morita.c_good_walk from nu, down to the rectangle rho of nu's
    zero-residue nodes or (not to_rho) down to the empty partition, in the
    terms of good_walk: (word, end) with end decoded into an l-partition,
    or None.  The word follows, from each shape, the first good node
    (good_nodes, in row order) outside rho whose state has a walk,
    as the search does."""
    C, charge = CartanType.C, (kappa_c,)
    a0 = content(C, charge, (nu,))[0]
    target = (a0,) * (kappa_c + a0) if to_rho else ()
    end = morita.c_good_walk(*morita.c_state(nu, kappa_c), to_rho)
    if end is None:
        return None
    word, cur = [], nu
    while cur != target:
        goods = sorted(good_nodes((cur,), C, charge).items(), key=lambda g: g[1])
        for i, node in goods:
            child = remove_node((cur,), node)[0]
            if not contains((target,), node) and morita.c_good_walk(
                    *morita.c_state(child, kappa_c), to_rho) is not None:
                word.append(i)
                cur = child
                break
        else:
            raise AssertionError(f"the bit walk has a word below {cur} that the "
                                 "search does not find")
    zero = morita.c_state(nu, kappa_c)[0]
    return tuple(reversed(word)), (c_shape(zero, end, kappa_c),) if end else None


def ballot_kleshchev(bp, charge):
    """Kleshchev membership of a bipartition of a bridge's type-A block by
    weights (ROADMAP finding 3): its free vertices u >= 0, those in exactly
    one of M(lambda, kappa_1) and M(mu, kappa_2), read upward as a ballot
    word, with no prefix holding more vertices of M(mu) than of M(lambda)."""
    sets = [{k + (p[r - 1] if r <= len(p) else 0) - r for r in range(1, len(p) + k + 1)}
            for p, k in zip(bp, charge)]
    lead = 0
    for u in range(size(bp) + max(charge) + 1):
        if (u in sets[0]) != (u in sets[1]):
            lead += 1 if u in sets[0] else -1
            if lead < 0:
                return False
    return True


def rect_add(rho, lam, mu=EMPTY):
    """rho + lam for a rectangle rho, or rho + (lam, mu) with mu appended
    below the rectangle; ValueError where the result is not of that form."""
    if len(set(rho)) > 1:
        raise ValueError(f"{rho} is not a rectangle")
    if len(lam) > len(rho):
        raise ValueError(f"{lam} has more rows than {rho}")
    if mu and rho and mu[0] > rho[0]:
        raise ValueError(f"appended part {mu} is wider than the rectangle {rho}")
    if mu and not rho:
        raise ValueError("cannot append below an empty rectangle")
    parts = tuple(rho[r] + (lam[r] if r < len(lam) else 0) for r in range(len(rho)))
    return as_partition(parts + mu)


def to_type_c(bp, b):
    """(lambda, mu) -> rho + (lambda, mu') for a member of b's type-A block,
    built by rect_add rather than the package's own image of the bridge;
    BridgeError for a bipartition outside the block."""
    if content(CartanType.A, b.a_charge, bp) != b.a_beta:
        raise BridgeError(f"{bp} is not in the type-A block")
    lam, mu = bp
    return rect_add(b.rho, lam, conjugate(mu))


def maya_labels(nu, kappa):
    """The weight labels of a type-C partition nu of charge kappa, read off
    M = {kappa + nu_r - r}: vertex u, for 0 <= u < |nu| + kappa + 2, has
    x_u = [u in M] and y_u = [-1 - u not in M].  Returns the crosses (x_u
    and y_u), the free vertices (x_u != y_u) and d, the number of free
    vertices with x_u = 0."""
    n = sum(nu)
    rows = len(nu) + n + 2 * kappa + 2  # reaches every -1 - u below
    maya = {kappa + (nu[r - 1] if r <= len(nu) else 0) - r for r in range(1, rows + 1)}
    vertices = [(u, u in maya, -1 - u not in maya) for u in range(n + kappa + 2)]
    crosses = tuple(u for u, x, y in vertices if x and y)
    free = tuple(u for u, x, y in vertices if x != y)
    d = sum(1 for u, x, y in vertices if x != y and not x)
    return crosses, free, d


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


def dominance_sums(mps):
    """Each l-partition's row prefix sums as a tuple, over its components in
    turn, each component padded by zero rows to its largest row count among
    mps: the sums that partitions.dominance_sums packs into one int."""
    widths = [max(map(len, comp)) for comp in zip(*mps)]
    return [tuple(accumulate(chain.from_iterable(
                p + (0,) * (w - len(p)) for p, w in zip(mp, widths))))
            for mp in mps]


def pairwise_dominance(b):
    """The dominance check's report by its pairwise loop on dominates: each
    ordered pair of distinct type-A block members, in a_block order, with
    their images by to_type_c."""
    pairs = [(bp, (to_type_c(bp, b),)) for bp in morita.a_block(b)]
    witnesses = []
    preserving = True
    for bp1, nu1 in pairs:
        for bp2, nu2 in pairs:
            if bp2 is bp1:
                continue
            a_rel, c_rel = dominates(bp1, bp2), dominates(nu1, nu2)
            if a_rel and not c_rel:
                preserving = False
            if a_rel != c_rel:
                witnesses.append({"pair": [list(map(list, bp1)), list(map(list, bp2))]})
    return {"pass": preserving, "order_preserving": preserving, "witnesses": witnesses}


def recursive_partitions_of(n):
    """All partitions of n, lexicographically decreasing, by the recursive
    generator that partitions_of's in-place listing replaced: each first
    part, largest first, then every partition of the rest into parts no
    larger."""
    def gen(n, cap):
        if n == 0:
            yield ()
            return
        for first in range(min(n, cap), 0, -1):
            for rest in gen(n - first, first):
                yield (first,) + rest
    return tuple(gen(n, n))


def content_bridges(kappa_c, max_n):
    """The sweep's bridges as they were listed before the sweep grouped by
    weight: the partitions of each height, from recursive_partitions_of,
    grouped by content, and one bridge per group with a zero node, which
    carries the group as its c_shapes."""
    for n in range(1, max_n + 1):
        blocks = {}
        for p in recursive_partitions_of(n):
            blocks.setdefault(content(CartanType.C, (kappa_c,), (p,)), []).append(p)
        for beta, shapes in blocks.items():
            if beta[0] >= 1:
                yield morita.bridge(kappa_c, beta)._replace(c_shapes=tuple(shapes))


def nested_multipartitions(n, level):
    """All l-partitions of n by the nested recursion that multipartitions_of
    replaced: each first component, largest size first, then every tail."""
    if level == 1:
        return [(p,) for p in partitions_of(n)]
    return [(p,) + rest for k in range(n, -1, -1) for p in partitions_of(k)
            for rest in nested_multipartitions(n - k, level - 1)]


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
    return StandardTableau(((a0,) * height,), tuple(order), None, None)


def tableau_to_type_c(s, u, b):
    """Combine a rho-tableau and a bipartition tableau into the
    factorizable tableau of shape rho + (lambda, mu'): component-1 nodes
    shift right past the rectangle, component-2 nodes conjugate below it."""
    if s.shape != (b.rho,):
        raise BridgeError("first tableau must have shape rho")
    lam, mu = u.shape
    nu = to_type_c((lam, mu), b)
    a, height = b.a0, len(b.rho)
    order = list(s.order)
    for (r, c, m) in u.order:
        if m == 1:
            order.append((r, a + c, 1))
        else:
            order.append((height + c, r, 1))
    return StandardTableau((nu,), tuple(order), None, None)


def poly_mul(p, r):
    """The product of two Laurent polynomials, term by term."""
    return LaurentPoly((e1 + e2, c1 * c2) for e1, c1 in p.items() for e2, c2 in r.items())


@lru_cache(maxsize=None)
def interval_gdim(ct, charge, mp, floor):
    """The sum of q^deg over the skew tableaux of mp/floor, each node's step
    degree read in the shape just after it is added, by a recursion down
    the interval [floor, mp] that never removes a node of floor; 0 if floor
    is not inside mp."""
    if mp == floor:
        return LaurentPoly.one()
    out = {}
    for node, _, d in step_degrees(mp, ct, charge)[1]:
        if not contains(floor, node):
            for e, c in interval_gdim(ct, charge, remove_node(mp, node), floor).items():
                out[e + d] = out.get(e + d, 0) + c
    return LaurentPoly(out)


def factorizable_gdim(nu, ct, charge, rho):
    """The sum of q^deg(t) over the tableaux t of shape nu whose first |rho|
    entries fill the sub-diagram rho: gdim(rho) times the sum over the skew
    tableaux of nu/rho."""
    charge = tuple(charge)
    return poly_mul(gdim_specht(rho, ct, charge), interval_gdim(ct, charge, nu, rho))


def c_steps(zero, s):
    """Each removal from the type-C bit state (zero, s), as (the new s, whose
    zero is zero - 1, step degree).  Removing a node of content t moves t in
    M to t - 1; its degree is b(-t - 1) - b(-t) for t > 0, with b membership
    in M, and 0 for t < 0.  A content-0 node is never removed: above rho,
    the only one removable is rho's corner, the walk's floor."""
    out = []
    movable = s & ~(s << 1) & ~1
    while movable:
        low = movable & -movable
        movable ^= low
        t = low.bit_length() - 1 - zero
        if t:
            d = (s >> zero - t - 1 & 1) - (s >> zero - t & 1) if t > 0 else 0
            out.append(((s ^ low ^ low >> 1) >> 1, d))
    return out


def a_steps(s):
    """Each removal from the type-A bit state s, as (state, step degree).
    Removing a t-node moves t in its component's set to t - 1.  From
    component 1 its degree is b2(t - 1) - b2(t), with b2 membership in the
    second set (the only t-corner below it); from component 2 it is 0."""
    out = []
    movable = s & ~(s << 2) & ~3
    while movable:
        low = movable & -movable
        movable ^= low
        p = low.bit_length() - 1
        d = 0 if p & 1 else (s >> p - 1 & 1) - (s >> p + 1 & 1)
        out.append((s ^ low ^ low >> 2, d))
    return out


def c_goods(zero, s, removable):
    """The good ones among the removable bits p of the type-C state (zero,
    s), top first; the mirror of content p - zero is at 2 zero - p - 1."""
    while removable:
        p = removable.bit_length() - 1
        removable ^= 1 << p
        if s >> 2 * zero - p - 1 & 3 != (1 if p >= zero else 2):
            yield p


@lru_cache(maxsize=None)
def list_c_kleshchev(zero, s):
    """morita.c_kleshchev as it read its good node off c_goods."""
    removable = s & ~(s << 1) & ~1
    for p in c_goods(zero, s, removable):
        return list_c_kleshchev(zero - 1, (s ^ 3 << p - 1) >> 1)
    return not removable


@lru_cache(maxsize=None)
def list_c_good_walk(zero, s, to_rho):
    """morita.c_good_walk as it searched the good nodes of c_goods, on
    morita's cogood step."""
    removable = s & ~(s << 1) & ~1 & ~(to_rho << zero)
    if not removable:
        return s
    for p in c_goods(zero, s, removable):
        end = list_c_good_walk(zero - 1, (s ^ 3 << p - 1) >> 1, to_rho)
        if end is not None:
            return end and morita._c_cogood(zero - 1, end, abs(p - zero))
    return None


@lru_cache(maxsize=None)
def width_c_walk(K, zero, s):
    """morita.c_walk's polynomial at digit width K, K = 0 giving the count,
    by the walk it replaced: one memo entry per (K, state), so the widths
    that blocks need walk a state once each."""
    total = 0
    for child, d in c_steps(zero, s):
        total += width_c_walk(K, zero - 1, child) << K * (d + 1)
    return total or 1


@lru_cache(maxsize=None)
def width_a_walk(K, s):
    """morita.a_walk's polynomial at digit width K, as width_c_walk."""
    total = 0
    for child, d in a_steps(s):
        total += width_a_walk(K, child) << K * (d + 1)
    return total or 1


def block_width(b):
    """The digit width the graded check gave b's block before the walks
    shared one: a multiple of 16, at least 16, above the bit length of
    gdim(rho)(1) times the block's largest tableau count."""
    counts = [n for bp, w in morita.a_block(b).items()
              for n in (width_c_walk(0, *morita.c_state(to_type_c(bp, b), b.kappa_c)),
                        width_a_walk(0, w))]
    rho = gdim_specht((b.rho,), CartanType.C, b.c_charge)
    top = rho.eval_at_1() * max(counts, default=0)
    return max(16, (top.bit_length() + 15) // 16 * 16)


def hook_count(bp):
    """The number of standard tableaux of the bipartition bp = (lambda, mu),
    C(|lambda| + |mu|, |lambda|) f^lambda f^mu, each f by the hook-length
    formula."""
    def f(p):
        cols = conjugate(p)
        return factorial(sum(p)) // prod(x - c + cols[c] - r - 1
                                         for r, x in enumerate(p) for c in range(x))
    lam, mu = bp
    return comb(sum(lam) + sum(mu), sum(lam)) * f(lam) * f(mu)


def two_check_partition(parts):
    """parts as a partition, trailing zeros dropped, after a check for a
    negative part and then one for the order."""
    p = tuple(parts)
    if p and min(p) < 0:
        raise ValueError(f"negative part in {parts!r}")
    if not all(map(int.__ge__, p, p[1:])):
        raise ValueError(f"parts not weakly decreasing: {parts!r}")
    return p[:len(p) - p.count(0)]


def keyed_root_vector(data):
    """The root vector of a JSON object: every multiplicity checked to be an
    int, then each key read as a residue, then RootVector's own entry
    checks."""
    if not isinstance(data, dict) or not all(type(m) is int for m in data.values()):
        raise ValueError(f"a root vector is a JSON object of integer "
                         f"multiplicities, got {data!r}")
    keys = {}
    for key in data:
        i = int(key)
        if i in keys:
            raise ValueError(f"keys {keys[i]!r} and {key!r} both name residue {i}")
        keys[i] = key
    return RootVector({i: data[key] for i, key in keys.items()})


def enum_type(text):
    """A --type value read through the CartanType enum call."""
    try:
        return CartanType(text.lower())
    except ValueError:
        raise ValueError(f"unknown type {text!r} (use a or c)") from None


@cache
def argparse_parser():
    """The command line's argparse parser, as klrblocks.cli built it before
    it parsed from its command table."""
    parser = argparse.ArgumentParser(
        prog="klrblocks",
        description="Block, tableau, crystal and graded-dimension "
                    "combinatorics for cyclotomic KLR algebras of types "
                    "A-infinity and C-infinity.",
    )
    parser.add_argument("--format", choices=("json", "csv", "pretty"),
                        default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", type=enum_type, default=CartanType.C)
        p.add_argument("--charge", required=True)

    p = sub.add_parser("block", help="list the l-partitions of a block or size")
    common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--beta", help='RootVector JSON, e.g. {"0":1,"1":2}')
    p.set_defaults(func=cli.cmd_block)

    p = sub.add_parser("tableaux", help="stream standard tableaux of a shape")
    common(p)
    p.add_argument("--shape", required=True)
    p.add_argument("--residues")
    p.add_argument("--with-degrees", action="store_true")
    p.set_defaults(func=cli.cmd_tableaux)

    p = sub.add_parser("kleshchev", help="Kleshchev membership")
    common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--shape")
    g.add_argument("--n", type=int)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cli.cmd_kleshchev)

    p = sub.add_parser("gdim", help="graded dimension of a Specht module")
    common(p)
    p.add_argument("--shape", required=True)
    p.add_argument("--weight", help="residue sequence of the weight space")
    p.set_defaults(func=cli.cmd_gdim)

    p = sub.add_parser("bridge", help="bridge datum and bipartition image of a shape")
    p.add_argument("--kappa-c", type=int, required=True)
    p.add_argument("--shape", required=True)
    p.set_defaults(func=cli.cmd_bridge)

    p = sub.add_parser("verify", help="run the bridge verification battery")
    p.add_argument("--kappa-c", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--max-n", type=int, help="every block up to this height")
    g.add_argument("--beta", help='one block, as type-C RootVector JSON')
    p.add_argument("--checks", default=",".join(ALL_CHECKS))
    p.set_defaults(func=cli.cmd_verify)

    return parser
