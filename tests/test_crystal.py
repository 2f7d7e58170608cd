import pytest
from hypothesis import example, given, settings, strategies as st

from klrblocks import crystal, morita
from klrblocks.cartan import CartanType
from klrblocks.crystal import is_kleshchev
from klrblocks.morita import (a_block, a_kleshchev, c_kleshchev, c_state, iter_bridges,
                              one_block_bridge)
from klrblocks.partitions import content, lattice_state, multipartitions_of, partitions_of, size

import oracles
from oracles import (
    a_state,
    add_node,
    ballot_kleshchev,
    bit_good_walk,
    c_shape,
    cogood_node,
    corners,
    good_node,
    good_nodes,
    good_walk,
    oracle_cogood_node,
    plain_cogood_path,
    reduce_signature,
    remove_node,
    residue,
    signature,
    state_corners,
)

A, C = CartanType.A, CartanType.C


@st.composite
def charged_shapes(draw, max_level=3, max_n=8, max_c_level=None):
    """A type, a charge (negative entries in type A) and a shape; type C
    shapes have level at most `max_c_level` when it is given."""
    ct = draw(st.sampled_from([A, C]))
    top = max_level if ct is A or max_c_level is None else max_c_level
    level = draw(st.integers(1, top))
    charge = tuple(draw(st.integers(0 if ct is C else -3, 3)) for _ in range(level))
    shape = draw(st.sampled_from(multipartitions_of(draw(st.integers(0, max_n)), level)))
    return ct, charge, shape


def pass_nodes(mp, ct, charge, i):
    """(good, cogood) i-nodes read off the step degrees: the good one by the
    Kleshchev test's rule on the lattice state, the cogood one by the
    oracle the bit rules replaced."""
    return good_nodes(mp, ct, charge).get(i), oracle_cogood_node(mp, ct, charge, i)


def seed_good_nodes(cur, ct, charge):
    """The nodes the search tried before the one-scan rewrite: each
    residue's first removable node in (component, row) order, kept only
    if it is that residue's good node."""
    seen, out = set(), []
    for node in corners(cur)[1]:
        i = residue(ct, charge, node)
        if i in seen:
            continue
        seen.add(i)
        if good_node(cur, ct, charge, i) == node:
            out.append(node)
    return out


def oracle_good_nodes(cur, ct, charge):
    """Every residue's good node from the per-residue oracle signatures, in
    (component, row) order."""
    residues = {residue(ct, charge, node) for node in corners(cur)[1]}
    goods = (good_node(cur, ct, charge, i) for i in residues)
    return sorted((n for n in goods if n is not None), key=lambda n: (n[2], n[0]))


def unpruned_good_removal_path(mp, target, ct, charge, candidates=oracle_good_nodes):
    """The good-removal DFS without target pruning, trying the nodes that
    `candidates` gives at each shape."""
    failed = set()

    def rec(cur):
        if cur == target:
            return []
        if cur in failed:
            return None
        for node in candidates(cur, ct, charge):
            sub = rec(remove_node(cur, node))
            if sub is not None:
                sub.append(residue(ct, charge, node))
                return sub
        failed.add(cur)
        return None

    word = rec(mp)
    return tuple(word) if word is not None else None


def removal_word(mp, target, ct, charge):
    """The residue word of good_walk, or None."""
    walk = good_walk(mp, target, ct, charge)
    return None if walk is None else walk[0]


def factors(nu, rho, ct, charge):
    """The word of good removals from nu down to rho and on to the empty
    partition, in addition order; None if either walk has none."""
    head = removal_word((rho,), ((),), ct, charge)
    tail = removal_word((nu,), (rho,), ct, charge)
    return None if head is None or tail is None else head + tail


def scan_signature(mp, ct, charge, i):
    """The i-signature that the package's corner rule gives on the lattice
    state, sorted into (component, row) order (no row has two corners of
    one residue)."""
    addable, removable = state_corners(mp, ct, charge)
    entries = [("a", node) for node, j, _ in addable if j == i]
    entries += [("r", node) for node, j, _ in removable if j == i]
    return tuple(sorted(entries, key=lambda e: (e[1][2], e[1][0])))


class TestSignatures:
    def test_examples(self):
        # the oracle's signature and the corner rule's
        for sig in (signature, scan_signature):
            assert sig(((2,),), C, (0,), 1) == (("r", (1, 2, 1)), ("a", (2, 1, 1)))
            assert sig(((1, 1),), C, (0,), 1) == (("a", (1, 2, 1)), ("r", (2, 1, 1)))
            assert sig(((1,), (1,)), A, (1, 1), 1) == (
                ("r", (1, 1, 1)),
                ("r", (1, 1, 2)),
            )

    def test_reduce_examples(self):
        r, a = ("r", (1, 2, 1)), ("a", (2, 1, 1))
        assert reduce_signature((r, a)) == ()
        assert reduce_signature((a, r)) == (a, r)
        assert reduce_signature((r, r, a)) == (r,)

    @given(st.lists(st.sampled_from("ar"), max_size=20))
    def test_reduce_canonical(self, markers):
        sig = tuple((m, (k, 1, 1)) for k, m in enumerate(markers, start=1))
        reduced = reduce_signature(sig)
        word = [m for m, _ in reduced]
        assert word == sorted(word)  # all a's before all r's
        # repeatedly deleting any (r, a) adjacency reaches the same word
        items = list(sig)
        changed = True
        while changed:
            changed = False
            for k in range(len(items) - 1):
                if items[k][0] == "r" and items[k + 1][0] == "a":
                    del items[k:k + 2]
                    changed = True
                    break
        assert tuple(items) == reduced


def assert_pass_matches_oracle(mp, ct, charge):
    """For every residue with a corner, good_nodes holds the leftmost r
    left in the oracle's reduced signature (no entry when none is left)
    and oracle_cogood_node gives the rightmost a; good_nodes has no entry
    for any other residue."""
    addable, removable = corners(mp)
    residues = {residue(ct, charge, node) for node in addable + removable}
    goods = good_nodes(mp, ct, charge)
    assert set(goods) <= residues
    for i in residues:
        reduced = reduce_signature(signature(mp, ct, charge, i))
        r_nodes = [node for marker, node in reduced if marker == "r"]
        a_nodes = [node for marker, node in reduced if marker == "a"]
        assert goods.get(i) == (r_nodes[0] if r_nodes else None)
        assert goods.get(i) == good_node(mp, ct, charge, i)
        cogood = oracle_cogood_node(mp, ct, charge, i)
        assert cogood == (a_nodes[-1] if a_nodes else None)
        assert cogood == cogood_node(mp, ct, charge, i)
    return residues


class TestOneScan:
    @settings(deadline=None, max_examples=200)
    @given(charged_shapes())
    def test_every_residue_matches_per_residue_oracle(self, case):
        ct, charge, mp = case
        residues = assert_pass_matches_oracle(mp, ct, charge)
        for i in residues:
            assert scan_signature(mp, ct, charge, i) == signature(mp, ct, charge, i)
        bare = max(residues) + 1  # a residue with no corner
        assert signature(mp, ct, charge, bare) == ()
        assert pass_nodes(mp, ct, charge, bare) == (None, None)

    @pytest.mark.parametrize("ct,charge", [
        (A, (0,)), (A, (-2,)), (C, (0,)), (C, (1,)), (C, (3,)),
        (A, (0, 0)), (A, (1, 0)), (A, (-1, 2)), (C, (0, 0)), (C, (0, 1)), (C, (2, 1)),
        (A, (0, 0, 0)), (A, (2, 0, 1)), (C, (0, 1, 1)), (C, (1, 0, 2)),
    ])
    def test_every_shape_to_size_8(self, ct, charge):
        for n in range(9):
            for mp in multipartitions_of(n, len(charge)):
                assert_pass_matches_oracle(mp, ct, charge)

    def test_level_three_signature_with_inner_cancellation(self):
        # residue 0 reads r a r: the first removable 0-node cancels, the
        # good node is the last one, and the one addable 0-node is closed
        mp = ((1,), (), (1,))
        assert signature(mp, A, (0, 0, 0), 0) == (
            ("r", (1, 1, 1)), ("a", (1, 1, 2)), ("r", (1, 1, 3)))
        assert pass_nodes(mp, A, (0, 0, 0), 0) == ((1, 1, 3), None)


def rule_cases():
    """Every l-partition to size 8 at levels 1 and 2 and to size 6 at
    level 3, of both types, under the charges 0^l, 1^l, (0, 1, 2)[:l], its
    reverse and (2, 0, 1)[:l]."""
    for level, max_n in ((1, 8), (2, 8), (3, 6)):
        charges = {(0,) * level, (1,) * level, (0, 1, 2)[:level],
                   (0, 1, 2)[:level][::-1], (2, 0, 1)[:level]}
        shapes = [mp for n in range(max_n + 1) for mp in multipartitions_of(n, level)]
        for ct in (A, C):
            for charge in sorted(charges):
                for mp in shapes:
                    yield ct, charge, mp


class TestStepDegreeRules:
    def test_every_small_shape_matches_the_oracles(self):
        # the running-minimum rule for good nodes and the least-degree rule
        # for cogood nodes, against the reduced signatures, exhaustively
        for ct, charge, mp in rule_cases():
            residues = {residue(ct, charge, node) for node in sum(corners(mp), ())}
            goods = {i: good_node(mp, ct, charge, i) for i in residues}
            assert good_nodes(mp, ct, charge) == {
                i: node for i, node in goods.items() if node is not None}
            for i in residues:
                assert oracle_cogood_node(mp, ct, charge, i) == cogood_node(mp, ct, charge, i)


@st.composite
def removal_searches(draw, max_c_level=2):
    """A shape of level 1 or 2 (type C: at most `max_c_level`) and a
    target: a sub-diagram reached by removing random nodes, or any shape
    of at most its size."""
    ct, charge, mp = draw(charged_shapes(max_level=2, max_c_level=max_c_level))
    if draw(st.booleans()):
        target = mp
        for _ in range(draw(st.integers(0, sum(map(sum, mp))))):
            target = remove_node(target, draw(st.sampled_from(corners(target)[1])))
    else:
        n = draw(st.integers(0, sum(map(sum, mp))))
        target = draw(st.sampled_from(multipartitions_of(n, len(mp))))
    return ct, charge, mp, target


class TestGoodRemovalPath:
    @settings(deadline=None, max_examples=200)
    @given(removal_searches())
    @example((C, (0,), ((3, 1),), ((2,),)))  # target not inside mp
    @example((A, (1, 0), ((2,), (1,)), ((1,), ())))
    def test_pruned_search_matches_unpruned(self, case):
        # the oracle's memo lives for the process: warm and cold answers agree
        ct, charge, mp, target = case
        warm = good_walk(mp, target, ct, charge)
        assert good_walk(mp, target, ct, charge) == warm
        oracles._good_walk.cache_clear()
        assert good_walk(mp, target, ct, charge) == warm
        assert removal_word(mp, target, ct, charge) == unpruned_good_removal_path(
            mp, target, ct, charge)

    @settings(deadline=None, max_examples=200)
    @given(removal_searches(max_c_level=1))
    def test_matches_seed_search_where_residues_have_two_corners(self, case):
        # type A at levels 1-2 and type C at level 1 (every bridge) give a
        # residue at most two corners, so its first removable node is its
        # good node whenever it has one
        ct, charge, mp, target = case
        assert (removal_word(mp, target, ct, charge)
                == unpruned_good_removal_path(mp, target, ct, charge,
                                              candidates=seed_good_nodes))

    def test_level_mismatch_has_no_path(self):
        assert good_walk(((1,),), ((), ()), C, (0,)) is None

    def test_level_three_good_node_after_cancellation(self):
        # the only way down is the good 0-node of component 3, which is
        # not the first removable 0-node
        assert removal_word(((1,), (), (1,)), ((1,), (), ()),
                            A, (0, 0, 0)) == (0,)

    def test_type_c_level_two_good_node_after_cancellation(self):
        # at ((1,), (1, 1)) under charge (1, 0) residue 1 reads r a r: the
        # removable 1-node of component 1 cancels, the one at the foot of
        # component 2 is good; the seed search tested only the first
        mp = ((1,), (1, 1, 1, 1))
        assert seed_good_nodes(((1,), (1, 1)), C, (1, 0)) == []
        assert removal_word(mp, ((), ()), C, (1, 0)) == (1, 0, 1, 2, 3)
        assert unpruned_good_removal_path(mp, ((), ()), C, (1, 0),
                                          candidates=seed_good_nodes) is None


class TestGoodCogood:
    def test_examples(self):
        assert pass_nodes(((2,),), C, (0,), 1) == (None, None)
        assert pass_nodes(((1, 1),), C, (0,), 1) == ((2, 1, 1), (1, 2, 1))
        assert pass_nodes(((),), C, (0,), 0) == (None, (1, 1, 1))

    def test_partial_inverse(self):
        # cogood addition then good removal is the identity where defined
        for n in range(9):
            for mp in multipartitions_of(n, 1):
                for i in range(n + 2):
                    node = pass_nodes(mp, C, (0,), i)[1]
                    if node is None:
                        continue
                    bigger = add_node(mp, node)
                    assert pass_nodes(bigger, C, (0,), i)[0] == node
                    assert remove_node(bigger, node) == mp


class TestKleshchev:
    def test_examples(self):
        assert is_kleshchev(((1, 1),), C, (0,))
        assert not is_kleshchev(((2,),), C, (0,))
        assert is_kleshchev(((1,), (1,)), A, (1, 1))
        assert not is_kleshchev(((1,), ()), A, (1, 1))
        assert is_kleshchev(((),), C, (0,))

    # is_kleshchev follows one good node; the oracle, good_walk, branches
    # over every good node
    @pytest.mark.parametrize("ct,charge,level,max_n", [
        (C, (0,), 1, 9), (C, (1,), 1, 8), (C, (2,), 1, 8), (A, (1, 1), 2, 6),
        (C, (3,), 1, 10), (A, (0,), 1, 10),
        (C, (0, 1), 2, 10), (C, (2, 2), 2, 10),
        (A, (3, 0), 2, 10), (A, (-1, 2), 2, 10),
        (C, (0, 1, 1), 3, 7), (A, (2, 0, 1), 3, 7),
    ])
    def test_equals_good_removal_reachability(self, ct, charge, level, max_n):
        for n in range(max_n + 1):
            for mp in multipartitions_of(n, level):
                empty = ((),) * level
                reachable = good_walk(mp, empty, ct, charge) is not None
                assert is_kleshchev(mp, ct, charge) == reachable

    def test_non_kleshchev_walk_is_linear(self):
        # the good-removal search visits 234 226 states on this shape; the
        # one-node walk records at most one memo entry per node and the
        # empty one
        mp = ((9, 9, 3) + (1,) * 15, (14, 3, 3, 2, 2))
        crystal._KLESHCHEV.clear()
        assert not is_kleshchev(mp, A, (0, 1))
        assert len(crystal._KLESHCHEV) <= size(mp) + 1

    def test_walk_records_every_shape_on_its_chain(self):
        # the answer is recorded for the lattice state of each shape the
        # walk passes, so testing a shape one good removal below a tested
        # one adds no entry
        for mp, answer in ((((3, 2, 1),), True), (((4, 2),), False)):
            crystal._KLESHCHEV.clear()
            assert is_kleshchev(mp, C, (0,)) is answer
            entries = dict(crystal._KLESHCHEV)
            below = remove_node(mp, next(iter(good_nodes(mp, C, (0,)).values())))
            assert entries[C, (0,), lattice_state(below, (0,))[1]] is answer
            assert is_kleshchev(below, C, (0,)) is answer
            assert crystal._KLESHCHEV == entries

    def test_column_deeper_than_the_recursion_limit(self):
        # the answers good_walk gives for the columns of 1 to 8 nodes
        column = (1,) * 1200
        assert is_kleshchev((column,), C, (0,))
        assert is_kleshchev(((), column), A, (0, 0))
        assert not is_kleshchev((column, ()), A, (0, 0))


def bridge_members(kappa_c, max_n=20):
    """Every bridge to height max_n at kappa_c, then the maximal blocks to
    a0 = 6 at kappa_c 0 and to a0 = 5 above it."""
    yield from iter_bridges(kappa_c, max_n)
    for a0 in range(1, 7 if kappa_c == 0 else 6):
        rect = ((a0,) * (2 * a0 + 2 * kappa_c),)
        yield one_block_bridge(kappa_c, content(C, (kappa_c,), rect))


class TestBitRules:
    """The bridge's Kleshchev tests and good-removal walk read their good and
    cogood nodes off four bits of a state; each must agree with the
    step-degree rules, and the type-A test also with the ballot rule of
    the weights (ROADMAP finding 3), on every member of every block the
    bridge checks."""

    def test_examples(self):
        assert c_kleshchev(*c_state((1, 1), 0))
        assert not c_kleshchev(*c_state((2,), 0))
        assert c_kleshchev(*c_state((), 3))
        assert a_kleshchev(a_state(((1,), (1,)), (1, 1)))
        assert not a_kleshchev(a_state(((1,), ()), (1, 1)))
        assert a_kleshchev(a_state(((), ()), (2, 0)))

    def test_cogood_nodes_of_small_shapes(self):
        # every residue of every partition to size 10 at kappa_c 0-3
        for kappa_c in range(4):
            for n in range(11):
                for nu in partitions_of(n):
                    zero, s = c_state(nu, kappa_c)
                    for i in range(kappa_c + n + 1):
                        node = cogood_node((nu,), C, (kappa_c,), i)
                        got = morita._c_cogood(zero, s, i)
                        assert got == (0 if node is None else
                                       c_state(add_node((nu,), node)[0], kappa_c)[1])

    def test_kleshchev_on_small_shapes(self):
        # beyond the bridge's blocks: every partition to size 12 at kappa_c
        # 0-3, and every bipartition to size 8 that fits its charges 0-3
        for kappa_c in range(4):
            for n in range(13):
                for nu in partitions_of(n):
                    assert (c_kleshchev(*c_state(nu, kappa_c))
                            == crystal._kleshchev(C, (kappa_c,), (nu,)))
        charges = [(k1, k2) for k1 in range(4) for k2 in range(4)]
        for n in range(9):
            for bp in multipartitions_of(n, 2):
                for charge in charges:
                    if all(len(p) <= k for p, k in zip(bp, charge)):
                        assert (a_kleshchev(a_state(bp, charge))
                                == crystal._kleshchev(A, charge, bp))

    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    def test_on_every_bridge_member(self, kappa_c):
        heads = set()
        for b in bridge_members(kappa_c):
            if b.rho not in heads:
                heads.add(b.rho)
                assert (bit_good_walk(b.rho, kappa_c, False)
                        == good_walk((b.rho,), ((),), C, (kappa_c,)))
            for nu in b.c_shapes:
                state = c_state(nu, kappa_c)
                assert c_shape(*state, kappa_c) == nu
                assert c_kleshchev(*state) == crystal._kleshchev(C, (kappa_c,), (nu,))
                assert (bit_good_walk(nu, kappa_c, True)
                        == good_walk((nu,), (b.rho,), C, (kappa_c,)))
            for bp in a_block(b):
                klesh = a_kleshchev(a_state(bp, b.a_charge))
                assert klesh == crystal._kleshchev(A, b.a_charge, bp)
                assert klesh == ballot_kleshchev(bp, b.a_charge)


class TestInlinedGoodNodes:
    """c_kleshchev and c_good_walk loop over the removable bits themselves;
    with cold memos they must equal the recursions on the good-node
    generator they replaced (oracles.list_c_kleshchev, list_c_good_walk)
    on every type-C state of every bridge to height 20, and of the maximal
    blocks to a0 = 5 at kappa_c 0 and 1."""

    @pytest.fixture(autouse=True)
    def cold_memos(self):
        memos = (morita.c_good_walk, oracles.list_c_kleshchev, oracles.list_c_good_walk)
        morita._C_KLESHCHEV.clear()
        for memo in memos:
            memo.cache_clear()
        yield
        for memo in memos[1:]:
            memo.cache_clear()

    @pytest.mark.parametrize("kappa_c,states", [(0, 3063), (1, 3329), (2, 2593)])
    def test_every_bridge_state(self, kappa_c, states):
        shapes = [nu for b in iter_bridges(kappa_c, 20) for nu in b.c_shapes]
        for a0 in range(1, 6 if kappa_c < 2 else 1):
            rect = (a0,) * (2 * a0 + 2 * kappa_c)
            shapes += one_block_bridge(kappa_c, content(C, (kappa_c,), (rect,))).c_shapes
        for nu in shapes:
            state = c_state(nu, kappa_c)
            assert c_kleshchev(*state) == oracles.list_c_kleshchev(*state)
            for to_rho in (False, True):
                assert (morita.c_good_walk(*state, to_rho)
                        == oracles.list_c_good_walk(*state, to_rho))
        assert len(shapes) == states
        # the same good nodes tried in the same order reach the same states
        assert len(morita._C_KLESHCHEV) == oracles.list_c_kleshchev.cache_info().currsize
        assert (morita.c_good_walk.cache_info().currsize
                == oracles.list_c_good_walk.cache_info().currsize)


def bridge_shapes(max_n=8):
    """(nu, kappa_c) for every partition nu to size max_n with a zero-residue
    node, at kappa_c 0-3."""
    return [(nu, kappa_c) for kappa_c in range(4) for n in range(1, max_n + 1)
            for nu in partitions_of(n) if content(C, (kappa_c,), (nu,))[0]]


class TestHeadMemo:
    @settings(deadline=None, max_examples=100)
    @given(st.sampled_from(bridge_shapes()), st.booleans())
    @example(((2, 1), 0), True)
    def test_warm_memo_matches_cold_memo_and_oracle(self, case, to_rho):
        # the walk memo lives for the process: warm and cold answers agree,
        # and both are the search's
        nu, kappa_c = case
        a0 = content(C, (kappa_c,), (nu,))[0]
        target = (a0,) * (kappa_c + a0) if to_rho else ()
        warm = bit_good_walk(nu, kappa_c, to_rho)
        morita.c_good_walk.cache_clear()
        assert bit_good_walk(nu, kappa_c, to_rho) == warm
        assert warm == good_walk((nu,), (target,), C, (kappa_c,))
        word = unpruned_good_removal_path((nu,), (target,), C, (kappa_c,))
        assert (None if warm is None else warm[0]) == word

    def test_one_head_search_per_key(self):
        # rho's walk down to the empty partition is built once: a sweep's
        # misses are the head's plus the tails' alone (their keys have
        # another flag)
        rho, shapes = (2, 2), [(4, 3, 1), (3, 2, 2, 1), (2, 2, 2, 2), (4, 3, 1)]
        walk = morita.c_good_walk
        walk.cache_clear()
        assert walk(*c_state(rho, 0), False) is not None
        head = walk.cache_info().misses
        walk.cache_clear()
        for nu in shapes:
            walk(*c_state(nu, 0), True)
        tails = walk.cache_info().misses
        walk.cache_clear()
        for nu in shapes:
            walk(*c_state(rho, 0), False)
            walk(*c_state(nu, 0), True)
        assert walk.cache_info().misses == head + tails

    def test_cold_miss_recurses_once_per_node(self, monkeypatch):
        # a cold walk recurses at most |nu| - |rho| deep, and its replay
        # adds no recursion
        memo, depth, deepest = morita.c_good_walk, [0], [0]

        def tracking(*key):
            depth[0] += 1
            deepest[0] = max(deepest[0], depth[0])
            try:
                return memo(*key)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(morita, "c_good_walk", tracking)
        for nu, rho in (((8,) + (1,) * 7, ()), ((7, 2, 2, 1, 1, 1, 1), (2, 2))):
            memo.cache_clear()
            deepest[0] = 0
            zero, s = c_state(nu, 0)
            assert morita.c_good_walk(zero, s, bool(rho)) == s
            assert deepest[0] == sum(nu) - sum(rho) + 1


class TestWalkMemos:
    """The oracle's walk memo lives for the process; every entry's word must
    be the search's and its replay end the unmemoized replay's.  A list
    charge reads the entries of its tuple in the walk and Kleshchev memos."""

    @settings(deadline=None, max_examples=200)
    @given(removal_searches())
    @example((C, (0,), ((2, 1),), ((),)))
    def test_cogood_path_matches_plain_replay(self, case):
        ct, charge, mp, target = case
        walk = good_walk(mp, target, ct, charge)
        if walk is not None:
            assert walk[1] == plain_cogood_path(target, walk[0], ct, charge)
        oracles._good_walk.cache_clear()
        assert good_walk(mp, target, ct, charge) == walk

    @settings(deadline=None, max_examples=100)
    @given(removal_searches())
    def test_list_charge_adds_no_misses(self, search):
        ct, charge, mp, target = search
        is_kleshchev(mp, ct, charge)
        entries = len(crystal._KLESHCHEV)
        is_kleshchev(mp, ct, list(charge))
        assert len(crystal._KLESHCHEV) == entries
        good_walk(mp, target, ct, charge)
        misses = oracles._good_walk.cache_info().misses
        good_walk(mp, target, ct, list(charge))
        assert oracles._good_walk.cache_info().misses == misses


class TestCogoodPath:
    """The replay half of the bit walk: the cogood additions of its word
    from the lower end."""

    def test_examples(self):
        assert bit_good_walk((1,), 0, False) == ((0,), ((1,),))
        assert bit_good_walk((1, 1), 0, False) == ((0, 1), ((1, 1),))
        assert bit_good_walk((1,), 0, True) == ((), ((1,),))

    def test_failure_position(self, monkeypatch):
        # a step with no cogood node ends the replay in 0, and every walk
        # built on it keeps 0
        real = morita._c_cogood

        def no_cogood_1(zero, s, i):
            return 0 if i == 1 else real(zero, s, i)

        monkeypatch.setattr(morita, "_c_cogood", no_cogood_1)
        morita.c_good_walk.cache_clear()
        try:
            assert bit_good_walk((1,), 0, False) == ((0,), ((1,),))
            assert bit_good_walk((1, 1), 0, False) == ((0, 1), None)
            assert bit_good_walk((2, 1, 1), 0, False) == ((0, 1, 2, 1), None)
            assert morita.c_good_walk(*c_state((2, 1, 1), 0), False) == 0
        finally:
            morita.c_good_walk.cache_clear()
        assert plain_cogood_path(((),), (0, 0), C, (0,)) is None

    def test_replay_witness(self):
        assert bit_good_walk((2, 1), 0, True) == ((1, 1), ((2, 1),))
        assert bit_good_walk((2, 1), 0, False) == ((0, 1, 1), ((2, 1),))


class TestFactorsThrough:
    def test_examples(self):
        assert factors((1,), (1,), C, (0,)) == (0,)
        assert factors((2, 1), (1,), C, (0,)) == (0, 1, 1)
        assert factors((2,), (1,), C, (0,)) is None

    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    def test_every_kleshchev_factors(self, kappa_c):
        for n in range(1, 10):
            for nu in partitions_of(n):
                a0 = content(C, (kappa_c,), (nu,))[0]
                if a0 == 0 or not c_kleshchev(*c_state(nu, kappa_c)):
                    continue
                rho = (a0,) * (kappa_c + a0)
                head = bit_good_walk(rho, kappa_c, False)
                tail = bit_good_walk(nu, kappa_c, True)
                assert head[1] == (rho,) and tail[1] == (nu,)
                word = head[0] + tail[0]
                # the word's residues add up to the block content
                assert len(word) == n
                mid = plain_cogood_path(((),), word[: sum(rho)], C, (kappa_c,))
                assert mid == (rho,)
                assert plain_cogood_path(mid, word[sum(rho):], C, (kappa_c,)) == (nu,)
