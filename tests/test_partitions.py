import random
from collections import Counter
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from klrblocks.cartan import CartanType, RootVector
from klrblocks.morita import a_block, bridge, c_block, iter_bridges
from klrblocks.partitions import (
    as_partition,
    conjugate,
    content,
    corners,
    dominance_sums,
    enumerate_block,
    lattice_state,
    multipartitions_of,
    partitions_of,
)

import oracles
from oracles import (
    add_node,
    dominates,
    from_type_c,
    nodes,
    rect_add,
    remove_node,
    residue,
    state_corners,
    step_degrees,
    to_type_c,
    two_check_partition,
)

A, C = CartanType.A, CartanType.C


class TestResidue:
    def test_type_c_grid(self):
        # residue grid of rho + lambda for kappa_c = 0, rho = (4^4), lambda = (3,2,1)
        assert [residue(C, (0,), (1, c, 1)) for c in range(1, 8)] == [0, 1, 2, 3, 4, 5, 6]
        assert [residue(C, (0,), (2, c, 1)) for c in range(1, 7)] == [1, 0, 1, 2, 3, 4]

    def test_examples(self):
        assert residue(C, (0,), (1, 1, 1)) == 0
        assert residue(C, (0,), (2, 1, 1)) == 1
        assert residue(C, (0,), (1, 7, 1)) == 6
        assert residue(A, (4, 4), (1, 1, 2)) == 4
        assert residue(A, (0,), (3, 1, 1)) == -2


class TestContent:
    def test_examples(self):
        assert content(C, (0,), ((2, 1),)) == RootVector({0: 1, 1: 2})
        assert content(C, (0,), ((),)) == RootVector()
        assert content(A, (1, 1), ((1,), (1,))) == RootVector({1: 2})

    def test_height_is_size(self):
        assert content(C, (2,), ((4, 3, 1),)).height == 8

    @pytest.mark.parametrize("ct, charges", [(A, [(0,), (-1, 2)]), (C, [(0,), (1, 0)])])
    def test_unchecked_root_vector_matches_checked(self, ct, charges):
        # content hands its counts to RootVector unchecked; the result must
        # be the root vector the checking constructor makes of them
        for charge in charges:
            for n in range(9):
                for mp in multipartitions_of(n, len(charge)):
                    beta = content(ct, charge, mp)
                    checked = RootVector(dict(beta.items()))
                    assert beta == checked and checked == beta
                    assert hash(beta) == hash(checked)
        with pytest.raises(ValueError):
            RootVector({0: -1})


@st.composite
def charged_shapes(draw):
    """A type, a charge of level 1-3 (entries -2..2, or 0..2 in type C) and
    an l-partition of that level with at most 5 rows of width at most 6
    per component."""
    ct = draw(st.sampled_from((A, C)))
    level = draw(st.integers(1, 3))
    charge = tuple(draw(st.integers(0 if ct is C else -2, 2)) for _ in range(level))
    rows = st.lists(st.integers(1, 6), max_size=5)
    mp = tuple(tuple(sorted(draw(rows), reverse=True)) for _ in range(level))
    return ct, charge, mp


@settings(max_examples=300, deadline=None)
@given(charged_shapes())
def test_content_matches_residue_per_node(case):
    # content reads a row's residues as one run; the oracle takes its own
    # residue() of every node it lists
    ct, charge, mp = case
    oracle = Counter(residue(ct, charge, n) for n in nodes(mp))
    assert content(ct, charge, mp) == RootVector(oracle)


class TestAddableRemovable:
    def test_examples(self):
        # (2) at kappa 0 in type C: (2, 1) and (1, 2) both have residue 1
        assert step_degrees(((2,),), C, (0,)) == (
            [((2, 1, 1), 1, 0), ((1, 3, 1), 2, 0)], [((1, 2, 1), 1, 1)])
        assert step_degrees(((),), C, (0,)) == ([((1, 1, 1), 0, 0)], [])

    def test_reading_order(self):
        # both lists last first in (component, row) order
        mp = ((2, 1), (1,))
        addable, removable = step_degrees(mp, A, (0, 0))
        assert [node for node, _, _ in reversed(addable)] == list(oracles.corners(mp)[0])
        assert [node for node, _, _ in reversed(removable)] == list(oracles.corners(mp)[1])


class TestStepDegrees:
    def test_examples(self):
        # (2, 1) at kappa 0 in type C: both removable nodes have residue 1
        assert step_degrees(((2, 1),), C, (0,)) == (
            [((3, 1, 1), 2, 0), ((2, 2, 1), 0, 0), ((1, 3, 1), 2, 1)],
            [((2, 1, 1), 1, 0), ((1, 2, 1), 1, -1)])
        assert step_degrees(((1,), (1,)), A, (1, 1))[1] == [
            ((1, 1, 2), 1, 0), ((1, 1, 1), 1, -1)]

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("ct", [A, C])
    def test_scan_matches_step_degree(self, ct, level):
        """Every corner of every l-partition up to size 7: its residue, and
        its step degree equals the brute-force oracle's, a removable node's
        in the shape itself and an addable node's in the shape with it
        added.  Type C folds the residue k + c - r to its absolute value,
        where a wrong same-row assumption would show."""
        shapes = [mp for n in range(8) for mp in multipartitions_of(n, level)]
        for charge in product(range(3) if ct is C else range(-2, 3), repeat=level):
            for mp in shapes:
                addable, removable = step_degrees(mp, ct, charge)
                assert sorted((node, d) for node, _, d in removable) == sorted(
                    oracles.removal_degrees(mp, ct, charge).items())
                for node, i, d in addable:
                    assert d == oracles.removal_degrees(add_node(mp, node), ct, charge)[node]
                for node, i, _ in addable + removable:
                    assert i == residue(ct, charge, node)


def reader_cases():
    """Every l-partition to size 7 at levels 1 and 2 and to size 4 at level
    3, under the type-A charges -2..2 and the type-C charges 0..2; then
    those of the larger sizes to 8 under three charges of each type."""
    for level, largest in ((1, 7), (2, 7), (3, 4)):
        shapes = [[mp for n in sizes for mp in multipartitions_of(n, level)]
                  for sizes in (range(largest + 1), range(largest + 1, 9))]
        for ct in (A, C):
            every = product(range(3) if ct is C else range(-2, 3), repeat=level)
            few = ([(0,) * level, tuple(range(-1, level - 1)), (3,) + (-2,) * (level - 1)]
                   if ct is A else
                   [(0,) * level, tuple(range(level, 0, -1)), (2,) + (0,) * (level - 1)])
            for mps, charges in zip(shapes, (every, few)):
                for charge in charges:
                    for mp in mps:
                        yield ct, charge, mp


class TestLatticeState:
    def test_examples(self):
        # under any charge the bits read M((2, 1), 0) = {1, -1, -3, -4, ...}
        # over the window -4..3
        assert lattice_state(((2, 1),), (5,)) == lattice_state(((2, 1),), (0,)) == (
            3, 0b00101011)
        assert lattice_state(((),), (0,)) == (0, 0b1)
        # (1) and () interleaved: lanes 1 and 2 read {0, -2, ...} and {-1, -2, ...}
        assert lattice_state(((1,), ()), (0, 3)) == (1, 0b011011)
        with pytest.raises(ValueError):
            lattice_state(((1,),), (0, 0))

    def test_no_charge_enters_a_bit(self):
        # corners read each lane against its own charge: a charge a billion
        # away costs the same bits
        n, s = lattice_state(((2, 1), (1,)), (10 ** 9, 0))
        assert s.bit_length() <= 2 * (2 * n + 2)
        assert [d for _, _, d, _ in corners(A, (10 ** 9, 0), n, s, False)] == [0, 0, 0]
        assert [i for _, i, _, _ in corners(A, (10 ** 9, 0), n, s, True)] == [
            10 ** 9 + 2, 10 ** 9, 10 ** 9 - 2, 1, -1]

    def test_corner_rule_matches_the_row_scan(self):
        """Every corner of every reader case: the lattice state's corner
        rule gives the nodes, order, residues and step degrees of the row
        scan the states replaced, and with a residue only that residue's
        corners, none for a negative one in type C.  Each lane holds n + 1
        bits, and each corner's child is the state of the shape add_node or
        remove_node makes, and the step on the state that the rule's
        callers took before (oracles.move)."""
        for ct, charge, mp in reader_cases():
            n, s = lattice_state(mp, charge)
            assert bin(s).count("1") == len(mp) * (n + 1)
            scanned = step_degrees(mp, ct, charge)
            assert state_corners(mp, ct, charge) == scanned
            for add, step, found in ((True, add_node, scanned[0]),
                                     (False, remove_node, scanned[1])):
                rule = corners(ct, charge, n, s, add)
                for i in {i for _, i, _ in found} | {-1, 7}:
                    assert corners(ct, charge, n, s, add, i) == [c for c in rule if c[1] == i]
                for (q, _, _, child), (node, _, _) in zip(rule, reversed(found)):
                    assert child == oracles.move(len(mp), s, q, add)
                    assert lattice_state(step(mp, node), charge) == (
                        n + 1 if add else n - 1, child)

    def test_a_list_charge_reads_as_its_tuple(self):
        n, s = lattice_state(((2, 1), (1,)), (1, 0))
        for ct in (A, C):
            for add in (True, False):
                assert corners(ct, [1, 0], n, s, add) == corners(ct, (1, 0), n, s, add)


class TestDominance:
    def test_examples(self):
        assert dominates(((2, 1),), ((1, 1, 1),))
        assert dominates(((1,), (1,)), ((1,), (1,)))
        assert not dominates(((), (2,)), ((2,), ()))

    def test_mismatch_errors(self):
        with pytest.raises(ValueError):
            dominates(((2,),), ((1,),))
        with pytest.raises(ValueError):
            dominates(((2,),), ((1,), (1,)))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_partial_order_on_blocks(self, n):
        for beta in {content(C, (0,), (p,)) for p in partitions_of(n)}:
            block = enumerate_block(C, (0,), beta)
            for x in block:
                assert dominates(x, x)
                for y in block:
                    if dominates(x, y) and dominates(y, x):
                        assert x == y
                    for z in block:
                        if dominates(x, y) and dominates(y, z):
                            assert dominates(x, z)


class TestDominanceSums:
    def test_examples(self):
        assert oracles.dominance_sums([((2, 1),), ((1, 1, 1),)]) == [(2, 3, 3), (1, 2, 3)]
        # each component padded to its longest among the shapes
        assert oracles.dominance_sums([((1,), (2,)), ((), (1, 1, 1))]) == [
            (1, 3, 3, 3), (0, 1, 2, 3)]

    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    def test_match_dominates_on_every_bridge(self, kappa_c):
        # the dominance check compares prefix sums; dominates is the oracle
        for b in iter_bridges(kappa_c, 14):
            for block in (list(a_block(b)), [(nu,) for nu in c_block(b)]):
                sums = oracles.dominance_sums(block)
                for x, sx in zip(block, sums):
                    for y, sy in zip(block, sums):
                        assert all(map(int.__ge__, sx, sy)) == dominates(x, y)


class TestPackedDominanceSums:
    """partitions.dominance_sums packs the tuple sums of the oracle, field k
    at bit k*f with f = n.bit_length() + 1, and x dominates y iff
    ((X | G) - Y) & G == G."""

    @staticmethod
    def check(mps):
        packed, top = dominance_sums(mps)
        sums = oracles.dominance_sums(mps)
        f = sum(map(sum, mps[0])).bit_length() + 1
        fields = range(len(sums[0]))
        assert top == sum(1 << k * f + f - 1 for k in fields)
        assert [tuple(x >> k * f & (1 << f) - 1 for k in fields) for x in packed] == sums
        for x, px in zip(mps, packed):
            for y, py in zip(mps, packed):
                assert (((px | top) - py) & top == top) == dominates(x, y)

    @pytest.mark.parametrize("mps", [
        [((3,),), ((1, 1, 1),)],  # a sum equal to n = 3, whose top bit is set
        [((4,),), ((2, 2),), ((1, 1, 1, 1),)],  # n = 4, a power of two
        [((2, 1), ()), ((1, 1, 1), ()), ((3,), ())],  # empty in every member
        [((), (2, 1)), ((), (1, 1, 1))],
        [((1,), (2,)), ((), (1, 1, 1))],
        [((2, 2),)],  # a one-shape block
        [((), ())],  # the empty bipartition
    ], ids=["row-column", "power-of-two", "empty-last", "empty-first", "padded",
            "one-shape", "empty"])
    def test_edge_cases(self, mps):
        self.check(mps)

    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    def test_every_bridge(self, kappa_c):
        for b in iter_bridges(kappa_c, 14):
            self.check(list(a_block(b)))
            self.check([(nu,) for nu in c_block(b)])


@given(st.lists(st.integers(-2, 3), max_size=6))
@example([-1, 2])  # a negative part is named before the order it breaks
@example([2, 0, 1])
@example([1, 0, 0])
def test_as_partition_is_the_two_check_rule(parts):
    # the one-pass rule against the two checks it replaced: the same
    # partition, or the same message
    def outcome(read):
        try:
            return read(parts)
        except ValueError as exc:
            return str(exc)

    assert outcome(as_partition) == outcome(two_check_partition)


@given(st.lists(st.integers(1, 8), max_size=8))
def test_conjugate_involution(parts):
    p = as_partition(sorted(parts, reverse=True))
    assert conjugate(conjugate(p)) == p


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)


class TestRectAddSplit:
    def test_examples(self):
        assert rect_add((4, 4, 4, 4), (3, 2, 1)) == (7, 6, 5, 4)
        assert rect_add((1,), (), ()) == (1,)
        assert rect_add((1,), (1,), (1,)) == (2, 1)

    def test_errors(self):
        with pytest.raises(ValueError):
            rect_add((2, 1), (1,))  # not a rectangle
        with pytest.raises(ValueError):
            rect_add((2,), (1, 1))  # too many rows
        with pytest.raises(ValueError):
            rect_add((2, 2), (), (3,))  # appended part too wide


class TestEnumerateBlock:
    def test_examples(self):
        assert enumerate_block(C, (0,), RootVector({0: 1, 1: 2})) == [((2, 1),)]
        assert enumerate_block(A, (1, 1), RootVector({1: 2})) == [((1,), (1,))]
        assert enumerate_block(C, (0,), RootVector({1: 2})) == []

    def test_counts_partition_all(self):
        for n in range(7):
            shapes = [mp for p in partitions_of(n)
                      for mp in enumerate_block(C, (0,), content(C, (0,), (p,)))]
            assert len(set(shapes)) == len(partitions_of(n))


@st.composite
def charged_blocks(draw):
    """A type, a charge and a root vector: the content of a random shape, or
    a random root vector, whose block is often empty."""
    ct = draw(st.sampled_from([A, C]))
    level = draw(st.integers(1, 3))
    charge = tuple(draw(st.integers(0 if ct is C else -3, 3)) for _ in range(level))
    if draw(st.booleans()):
        shape = draw(st.sampled_from(multipartitions_of(draw(st.integers(0, 8)), level)))
        beta = content(ct, charge, shape)
    else:
        beta = RootVector(draw(st.dictionaries(
            st.integers(0 if ct is C else -4, 5), st.integers(0, 2), max_size=4)))
    return ct, charge, beta


@settings(deadline=None)
@given(charged_blocks())
def test_enumerate_block_matches_content_filter(block):
    ct, charge, beta = block
    expected = [mp for mp in multipartitions_of(beta.height, len(charge))
                if content(ct, charge, mp) == beta]
    assert enumerate_block(ct, charge, beta) == expected


@lru_cache(maxsize=None)
def content_blocks(ct, charge, n):
    """The blocks of type ct, charge charge and height n, by the content
    filter over multipartitions_of(n, len(charge)), each in that order."""
    blocks = {}
    for mp in multipartitions_of(n, len(charge)):
        blocks.setdefault(content(ct, charge, mp), []).append(mp)
    return blocks


class TestLevelTwoTypeAByWeight:
    # enumerate_block reads every block off its Maya sets; each list, order
    # included, must be the content filter's
    CHARGES = list(product(range(-2, 3), repeat=2))

    def test_every_content_to_size_8(self):
        # every type and level up to 3; level 3 to size 7
        for ct, level in product((A, C), (1, 2, 3)):
            low = -2 if ct is A else 0
            for charge in product(range(low, 3), repeat=level):
                for n in range(9 if level < 3 else 8):
                    for beta, shapes in content_blocks(ct, charge, n).items():
                        assert enumerate_block(ct, charge, beta) == shapes

    def test_random_root_vectors(self):
        rng = random.Random(20251018)
        found = 0
        for _ in range(20000):
            charge = rng.choice(self.CHARGES)
            beta = RootVector({rng.randint(-5, 5): rng.randint(1, 2)
                               for _ in range(rng.randint(1, 4))})
            expected = content_blocks(A, charge, beta.height).get(beta, [])
            assert enumerate_block(A, charge, beta) == expected
            found += bool(expected)
        # most random root vectors have no bipartition (739 of these have)
        assert 0 < found < 2000

    def test_far_charges(self):
        # a charge far outside beta's labels leaves its component empty
        for ct, beta in ((A, RootVector({0: 2, 1: 1, -1: 1})),
                         (C, RootVector({0: 1, 1: 2, 2: 1}))):
            alone = [mp for (mp,) in enumerate_block(ct, (0,), beta)]
            assert alone
            fars = (10 ** 9, -10 ** 9) if ct is A else (10 ** 9,)
            for far in fars:
                assert enumerate_block(ct, (far, 0), beta) == [((), p) for p in alone]
                assert enumerate_block(ct, (0, far), beta) == [(p, ()) for p in alone]
                assert enumerate_block(ct, (far, 0, far), beta) == [
                    ((), p, ()) for p in alone]
            # with no charge in its run of labels, the block is empty
            assert enumerate_block(ct, (10 ** 9,), beta) == []


class TestBridgeBlocksMatchContentFilter:
    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    def test_every_bridge(self, kappa_c):
        # the content filter over multipartitions_of, at heights the
        # hypothesis test does not reach; one filter per charge and size
        filtered = {}

        def block(ct, charge, beta):
            key = (ct, charge, beta.height)
            if key not in filtered:
                by_content = filtered[key] = {}
                for mp in multipartitions_of(beta.height, len(charge)):
                    by_content.setdefault(content(ct, charge, mp), []).append(mp)
            return filtered[key][beta]

        # a_block lists the type-A side off its weights, with no code in
        # common with enumerate_block, which the filter checks to height 18
        for b in iter_bridges(kappa_c, 20):
            if b.beta.height <= 18:
                assert c_block(b) == [mp[0] for mp in block(C, b.c_charge, b.beta)]
                assert enumerate_block(A, b.a_charge, b.a_beta) == block(
                    A, b.a_charge, b.a_beta)
            # the shapes the sweep carries, which the checks read
            assert list(b.c_shapes) == c_block(b)
            check_a_block(b)

    @pytest.mark.parametrize("kappa_c, max_a0", [(0, 6), (1, 5), (2, 4)])
    def test_maximal_blocks(self, kappa_c, max_a0):
        for a0 in range(1, max_a0 + 1):
            rect = ((a0,) * (2 * a0 + 2 * kappa_c),)
            check_a_block(bridge(kappa_c, content(C, (kappa_c,), rect)))

    def test_rho_alone(self):
        # an empty a_beta: rho's block holds rho alone, the empty bipartition
        for kappa_c in range(3):
            for a0 in range(1, 4):
                b = bridge(kappa_c, content(C, (kappa_c,), ((a0,) * (kappa_c + a0),)))
                assert b.a_beta == RootVector()
                assert check_a_block(b) == {((), ()): oracles.a_state(((), ()), b.a_charge)}

    def test_far_label(self):
        # a label above every member's nodes empties the block, with no
        # vertex window up to it
        b = bridge(0, RootVector({0: 1, 10 ** 9: 1}))
        assert check_a_block(b) == {}


def check_a_block(b):
    """a_block(b), once it is checked against enumerate_block, order
    included, and each weight against the oracle's a_state."""
    members = a_block(b)
    assert list(members) == enumerate_block(A, b.a_charge, b.a_beta)
    assert list(members.values()) == [oracles.a_state(bp, b.a_charge) for bp in members]
    return members


@st.composite
def type_a_bridges(draw):
    """A bridge whose type-A block has charges 1 <= k2 <= k1 <= 4 and a
    content on residues 1 and up of height at most 10: that of a random
    bipartition that fits its charges, or a random root vector, whose block
    is often empty.  beta is that content plus the rectangle's."""
    k2 = draw(st.integers(1, 4))
    k1 = draw(st.integers(k2, 4))
    if draw(st.booleans()):
        shapes = [bp for bp in multipartitions_of(draw(st.integers(0, 10)), 2)
                  if len(bp[0]) <= k1 and len(bp[1]) <= k2]
        a_beta = content(A, (k1, k2), draw(st.sampled_from(shapes)))
    else:
        a_beta = RootVector(draw(st.dictionaries(
            st.integers(1, 14), st.integers(1, 3), max_size=5).filter(
                lambda d: sum(d.values()) <= 10)))
    omega = content(C, (k1 - k2,), ((k2,) * k1,))
    b = bridge(k1 - k2, RootVector({i: omega[i] + a_beta[i]
                                    for i, _ in omega.items() + a_beta.items()}))
    assert b.a_charge == (k1, k2) and b.a_beta == a_beta
    return b


@settings(deadline=None, max_examples=200)
@given(type_a_bridges())
def test_a_block_matches_enumerate_block(b):
    members = check_a_block(b)
    if not enumerate_block(A, b.a_charge, b.a_beta):
        assert members == {}


class TestBridgeResidueCompatibility:
    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    def test_content_compatible(self, kappa_c):
        # C-content of rho + (lam, mu') = omega + A-content of (lam, mu),
        # A-residues read literally as C-labels.
        for b in iter_bridges(kappa_c, 8):
            for bp in a_block(b):
                nu = to_type_c(bp, b)
                assert content(C, b.c_charge, (nu,)) - b.omega == content(A, b.a_charge, bp)

    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    def test_rectangle_contained(self, kappa_c):
        for n in range(1, 9):
            for p in partitions_of(n):
                beta = content(C, (kappa_c,), (p,))
                if beta[0] == 0:
                    continue
                b = bridge(kappa_c, beta)
                lam, mu = from_type_c(p, b)  # must not raise
                assert rect_add(b.rho, lam, conjugate(mu)) == p


class TestPartitionsOf:
    def test_matches_the_recursive_listing(self):
        # the in-place listing against the recursive generator it replaced,
        # partitions and order
        for n in range(-1, 31):
            assert partitions_of(n) == oracles.recursive_partitions_of(n)

    def test_ends_and_a_count(self):
        assert partitions_of(0) == ((),)
        assert partitions_of(-1) == ()
        assert len(partitions_of(36)) == 17977


def test_multipartitions_of_counts():
    assert len(multipartitions_of(2, 2)) == 5
    assert multipartitions_of(0, 1) == [((),)]


@pytest.mark.parametrize("level", [1, 2, 3])
def test_multipartitions_of_keeps_the_nested_order(level):
    for n in range(10):
        first = multipartitions_of(n, level)
        assert first == oracles.nested_multipartitions(n, level)
        # each call builds its own list
        second = multipartitions_of(n, level)
        assert second == first and second is not first
