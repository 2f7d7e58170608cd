import json
from collections import Counter
from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest

from klrblocks import morita
from klrblocks.cartan import CartanType, RootVector
from klrblocks import graded, partitions
from klrblocks.morita import (
    ALL_CHECKS,
    BridgeError,
    _block_key,
    a_block,
    bridge,
    c_block,
    c_state,
    iter_bridges,
    one_block_bridge,
    verify_bridge,
)
from klrblocks.graded import gdim_specht
from klrblocks.partitions import conjugate, content, lattice_state, partitions_of
from klrblocks.tableaux import enumerate_standard

from oracles import (a_state, bit_good_walk, block_width, content_bridges, from_type_c,
                     good_nodes, hook_count, maya_labels, pairwise_dominance,
                     prefix_shape, rect_add, remove_node, residue_sequence,
                     tableau_to_type_c, to_type_c, width_a_walk, width_c_walk)

A, C = CartanType.A, CartanType.C

MICRO = RootVector({0: 1, 1: 2})

# the memos of a_block's rows and of the two pieces of a member's image
IMAGE_MEMOS = (morita._lane_rows, morita._image_top, morita._image_bottom)


def outer_calls(monkeypatch, name):
    """The list of the argument tuples of the calls that the checks make to
    morita's function name, which is replaced by a recording wrapper.  The
    memoized walks recurse through their module's names, so the wrapper
    also sees their inner calls; it passes those on unrecorded."""
    real, calls, depth = getattr(morita, name), [], [0]

    def recording(*args):
        if not depth[0]:
            calls.append(args)
        depth[0] += 1
        try:
            return real(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(morita, name, recording)
    return calls


class TestBridge:
    def test_micro(self):
        b = bridge(0, MICRO)
        assert b.a0 == 1
        assert b.rho == (1,)
        assert b.omega == RootVector({0: 1})
        assert (b.kappa1, b.kappa2) == (1, 1)
        assert b.a_beta == RootVector({1: 2})

    def test_square_rectangle(self):
        beta = content(C, (0,), ((7, 6, 5, 4),))
        b = bridge(0, beta)
        assert b.a0 == 4
        assert b.rho == (4, 4, 4, 4)
        assert (b.kappa1, b.kappa2) == (4, 4)

    def test_tall_thin_rectangle(self):
        beta = content(C, (2,), ((1, 1, 1),))
        b = bridge(2, beta)
        assert b.a0 == 1
        assert b.rho == (1, 1, 1)
        assert (b.kappa1, b.kappa2) == (3, 1)
        assert b.a_beta == RootVector()

    def test_errors(self):
        with pytest.raises(BridgeError):
            bridge(0, RootVector({1: 2}))  # no zero nodes
        with pytest.raises(BridgeError):
            bridge(-1, MICRO)
        # enough nodes for rho, but not its content: the subtraction's
        # NotASubroot is the bridge's error
        with pytest.raises(BridgeError, match="not contained in beta") as info:
            bridge(0, RootVector({0: 2, 5: 10}))
        assert type(info.value) is BridgeError

    def test_rectangle_holds_every_zero_node(self):
        # rho has one zero-residue node in each of rows kappa_c + 1 ..
        # kappa_c + a0, so beta - omega is never supported on residue 0
        for kappa_c in range(8):
            for a0 in range(12):
                assert morita.rectangle(kappa_c, a0)[1][0] == a0

    def test_rectangle_holds_rhos_state(self):
        # the goodpath check reads rho's state here, not off c_state per bridge
        for kappa_c in range(8):
            for a0 in range(12):
                rho, _, _, state = morita.rectangle(kappa_c, a0)
                assert state == c_state(rho, kappa_c)

    def test_a_beta_computed_once(self, monkeypatch):
        beta = max(iter_bridges(0, 10), key=lambda b: len(a_block(b))).beta
        b = bridge(0, beta)
        subtractions = []
        sub = RootVector.__sub__
        monkeypatch.setattr(RootVector, "__sub__",
                            lambda x, y: subtractions.append(1) or sub(x, y))
        pairs = a_block(b)
        assert len(pairs) > 1
        for bp in pairs:
            to_type_c(bp, b)
        # bridge() computed beta - omega once; reading it subtracts nothing
        assert subtractions == []
        assert b.a_beta == b.beta - b.omega
        assert b == bridge(b.kappa_c, b.beta)
        assert hash(b) == hash(bridge(b.kappa_c, b.beta))

    def test_json(self):
        b = bridge(0, MICRO)
        assert b.to_json() == {
            "kappa_c": 0, "beta": {"0": 1, "1": 2}, "a0": 1, "rho": [1],
            "omega": {"0": 1}, "kappa1": 1, "kappa2": 1,
        }


def kron(poly, K=8, low=-4):
    """A polynomial {exponent: coefficient} as a Kronecker int of digit
    width K, digit 0 being q^low."""
    return sum(c << K * (e - low) for e, c in poly.items())


class TestGradedShift:
    def test_zero_against_zero(self):
        assert morita._graded_shift(0, 0, 8) == 0

    def test_zero_against_non_zero(self):
        p = kron({1: 1, -1: 1})
        assert morita._graded_shift(0, p, 8) is None
        assert morita._graded_shift(p, 0, 8) is None

    def test_equal_supports_different_coefficients(self):
        assert morita._graded_shift(kron({0: 1, 2: 2}), kron({0: 1, 2: 1}), 8) is None

    def test_shifts_found(self):
        p = {-1: 1, 1: 2, 4: 1}
        assert morita._graded_shift(kron({e - 3: c for e, c in p.items()}), kron(p), 8) == -3
        assert morita._graded_shift(kron({e + 2: c for e, c in p.items()}), kron(p), 8) == 2
        assert morita._graded_shift(kron(p), kron(p), 8) == 0
        # lowest digits whose own lowest bits differ
        assert morita._graded_shift(kron({1: 2, 3: 1}), kron({0: 1, 2: 2}), 8) is None
        assert morita._graded_shift(kron({1: 1, 2: 2}), kron({0: 1, 1: 2}), 8) == 1

    def test_supports_of_different_sizes(self):
        p = {0: 1, 2: 1}
        assert morita._graded_shift(kron(p), kron({**p, 5: 1}), 8) is None
        assert morita._graded_shift(kron({**p, 5: 1}), kron(p), 8) is None


class TestBlockMap:
    def test_micro_blocks(self):
        b = bridge(0, MICRO)
        assert c_block(b) == [(2, 1)]
        assert list(a_block(b)) == [((1,), (1,))]
        assert to_type_c(((1,), (1,)), b) == (2, 1)
        assert from_type_c((2, 1), b) == ((1,), (1,))

    def test_membership_errors(self):
        b = bridge(0, MICRO)
        with pytest.raises(BridgeError):
            to_type_c(((2,), ()), b)
        with pytest.raises(BridgeError):
            from_type_c((3,), b)

    @pytest.mark.parametrize("kappa_c", [0, 1])
    def test_from_type_c_refuses_every_other_block(self, kappa_c):
        # rect_preimage makes no check, so from_type_c alone refuses a shape
        # of another block, of the same height or not
        for b in iter_bridges(kappa_c, 8):
            members = set(b.c_shapes)
            for n in range(b.beta.height - 1, b.beta.height + 2):
                for nu in partitions_of(n):
                    if nu in members:
                        assert from_type_c(nu, b) == morita.rect_preimage(nu, b)
                    else:
                        with pytest.raises(BridgeError):
                            from_type_c(nu, b)

    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    def test_round_trip_is_block_bijection(self, kappa_c):
        for b in iter_bridges(kappa_c, 12):
            image = [to_type_c(bp, b) for bp in a_block(b)]
            assert sorted(image) == sorted(c_block(b))
            for bp, nu in zip(a_block(b), image):
                assert from_type_c(nu, b) == bp

    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    def test_rect_image_matches_rect_add(self, kappa_c):
        # the direct image of a block member against the checked
        # rectangle addition, on every bridge up to height 14 and the
        # maximal blocks up to a0 = 6 at kappa_c = 0 and 5 at kappa_c = 1:
        # once on the decode memos as the bridges before left them, once
        # on memos cleared before each bridge
        max_a0 = {0: 6, 1: 5}.get(kappa_c, 0)
        bridges = [*iter_bridges(kappa_c, 14),
                   *(maximal(kappa_c, a0) for a0 in range(1, max_a0 + 1))]
        for cold in (False, True):
            members = 0
            for b in bridges:
                if cold:
                    for memo in IMAGE_MEMOS:
                        memo.cache_clear()
                for bp in a_block(b):
                    lam, mu = bp
                    image = morita._rect_image(bp, b)
                    assert image == rect_add(b.rho, lam, conjugate(mu))
                    members += 1
            assert members > 0


class TestTableauTransport:
    @pytest.mark.parametrize("kappa_c", [0, 1])
    def test_bijection_onto_factorizable(self, kappa_c):
        for b in iter_bridges(kappa_c, 7):
            rho_tabs = list(enumerate_standard((b.rho,), C, b.c_charge))
            for bp in a_block(b):
                nu = to_type_c(bp, b)
                image = {
                    tableau_to_type_c(s, u, b).order
                    for s in rho_tabs
                    for u in enumerate_standard(bp, A, b.a_charge)
                }
                target = {
                    t.order for t in enumerate_standard((nu,), C, b.c_charge)
                    if content(C, b.c_charge, prefix_shape(t, b.omega.height)) == b.omega
                }
                assert image == target
                assert len(image) == len(rho_tabs) * sum(
                    1 for _ in enumerate_standard(bp, A, b.a_charge)
                )

    def test_residue_compatibility(self):
        # the transported tableau reads the A-residues of u literally
        b = bridge(0, content(C, (0,), ((3, 2, 1),)))
        for bp in a_block(b):
            for s in enumerate_standard((b.rho,), C, b.c_charge):
                for u in enumerate_standard(bp, A, b.a_charge):
                    t = tableau_to_type_c(s, u, b)
                    word = residue_sequence(t, C, b.c_charge)
                    head = residue_sequence(s, C, b.c_charge)
                    tail = residue_sequence(u, A, b.a_charge)
                    assert word == head + tail

    def test_shape_mismatch(self):
        b = bridge(0, MICRO)
        s = next(iter(enumerate_standard(((2,),), C, (0,))))
        u = next(iter(enumerate_standard(((1,), (1,)), A, (0, 0))))
        with pytest.raises(BridgeError):
            tableau_to_type_c(s, u, b)


class TestIterBridges:
    def test_deterministic(self):
        assert [b.to_json() for b in iter_bridges(0, 6)] == [
            b.to_json() for b in iter_bridges(0, 6)
        ]

    def test_heights_non_decreasing(self):
        heights = [b.beta.height for b in iter_bridges(1, 7)]
        assert heights == sorted(heights)

    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    def test_one_bridge_per_content_in_first_seen_order(self, kappa_c):
        # grouped by weight, the sweep yields the bridges of the grouping by
        # content, c_shapes included, in its order
        assert [tuple(b) for b in iter_bridges(kappa_c, 24)] == [
            tuple(b) for b in content_bridges(kappa_c, 24)]

    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    def test_sweep_computes_content_once_per_block(self, monkeypatch, kappa_c):
        max_n = 16
        list(iter_bridges(kappa_c, max_n))  # rectangle's contents, once per process
        calls = []
        monkeypatch.setattr(morita, "content",
                            lambda *args: calls.append(args[2]) or content(*args))
        list(iter_bridges(kappa_c, max_n))
        # each block, a_0 = 0 included, on its first shape
        firsts = []
        for n in range(1, max_n + 1):
            blocks = {}
            for p in partitions_of(n):
                blocks.setdefault(content(C, (kappa_c,), (p,)), p)
            firsts += [(p,) for p in blocks.values()]
        assert calls == firsts

    def test_sweep_lists_no_block_again(self, monkeypatch):
        # a sweep's bridges carry their type-C shapes, so no check under
        # any of the five lists a type-C block
        calls = []
        monkeypatch.setattr(morita, "c_block", lambda b: calls.append(b) or c_block(b))
        for kappa_c in (0, 1):
            for b in iter_bridges(kappa_c, 9):
                assert verify_bridge(b)["pass"]
        assert calls == []

    def test_negative_max_n(self):
        assert list(iter_bridges(0, 0)) == []
        with pytest.raises(ValueError):
            list(iter_bridges(0, -1))
        # a negative charge is refused before any bridge is built
        with pytest.raises(ValueError):
            list(iter_bridges(-1, 0))

    @pytest.mark.parametrize("kappa_c, max_n", [(-1, 3), (0, -1)])
    def test_arguments_are_checked_at_the_call(self, kappa_c, max_n):
        # not when the first bridge is taken, which a caller may do only
        # after it has written something
        with pytest.raises(ValueError, match="must be non-negative"):
            iter_bridges(kappa_c, max_n)


@pytest.mark.parametrize("kappa_c", [0, 1])
def test_one_block_bridge_is_the_sweeps(kappa_c):
    # the one block that klrblocks verify --beta checks is the sweep's
    # bridge, shapes and all
    for b in iter_bridges(kappa_c, 9):
        assert one_block_bridge(kappa_c, b.beta) == b
    # rho's content and one node of residue 9: a bridge, but no partition
    empty = RootVector({0: 1, 9: 1} if kappa_c == 0 else {0: 1, 1: 1, 9: 1})
    with pytest.raises(BridgeError, match=f"charge {kappa_c} has content"):
        one_block_bridge(kappa_c, empty)


class TestWeights:
    # ROADMAP findings 1-2 on the block listing: a block is its crosses and
    # free vertices, and its shapes are the placements of its d down-arrows
    # on the free vertices

    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    def test_a_block_is_its_labels(self, kappa_c):
        seen = set()
        for b in iter_bridges(kappa_c, 14):
            labels = {maya_labels(nu, kappa_c) for nu in b.c_shapes}
            assert len(labels) == 1
            (crosses, free, d), = labels
            assert len(free) == kappa_c + 2 * d
            assert len(b.c_shapes) == comb(kappa_c + 2 * d, d)
            # no two bridges of one height share their labels
            key = (b.beta.height, crosses, free, d)
            assert key not in seen
            seen.add(key)

    def test_block_key_is_the_labels(self):
        # the key's two bit sets: the crosses, and the crosses with the free
        # vertices
        for kappa_c in range(5):
            for n in range(15):
                for nu in partitions_of(n):
                    crosses, free, _ = maya_labels(nu, kappa_c)
                    assert _block_key(nu, kappa_c) == (
                        sum(1 << u for u in crosses), sum(1 << u for u in crosses + free))

    def test_grouping_by_key_is_grouping_by_content(self):
        # groups and their order, a_0 = 0 blocks included
        short = 0
        for kappa_c in range(5):
            for n in range(21):
                by_key, by_content = {}, {}
                for nu in partitions_of(n):
                    short += len(nu) < kappa_c
                    by_key.setdefault(_block_key(nu, kappa_c), []).append(nu)
                    by_content.setdefault(content(C, (kappa_c,), (nu,)), []).append(nu)
                assert list(by_key.values()) == list(by_content.values())
        assert short  # shapes with fewer rows than kappa_c are among them

    @pytest.mark.parametrize("kappa_c, blocks", [(1, 20), (2, 120), (3, 357)])
    def test_blocks_with_no_zero_node_are_single_shapes(self, kappa_c, blocks):
        # without residue 0 the algebra is a level-one type-A algebra, which
        # is semisimple (ROADMAP item 6 relies on this)
        found = 0
        for n in range(1, 21):
            sizes = Counter(content(C, (kappa_c,), (p,)) for p in partitions_of(n))
            no_zero = [size for beta, size in sizes.items() if beta[0] == 0]
            assert set(no_zero) <= {1}
            found += len(no_zero)
        assert found == blocks

    def test_type_c_state_is_the_lattice_state_shifted(self):
        # c_state builds its int in one pass; it is the lattice state with
        # 2 kappa_c more labels, all in the Maya set, below the window
        for kappa_c in range(5):
            for n in range(13):
                for nu in partitions_of(n):
                    _, s = lattice_state((nu,), (kappa_c,))
                    assert c_state(nu, kappa_c) == (kappa_c + n + 1,
                                                    (s + 1 << 2 * kappa_c) - 1)


class TestVerifyBridge:
    def test_micro_report(self):
        report = verify_bridge(bridge(0, MICRO))
        assert report["pass"]
        count = report["checks"]["count"]
        assert count["lhs"] == count["rhs"] == 4
        assert report["checks"]["graded"]["shift"] == 0
        klesh = report["checks"]["kleshchev"]
        assert klesh["a_image"] == klesh["c_set"] == [[2, 1]]
        assert report["checks"]["goodpath"]["pass"]

    def test_unknown_check(self):
        with pytest.raises(ValueError):
            verify_bridge(bridge(0, MICRO), checks=("count", "bogus"))

    def test_graded_fails_on_an_empty_block(self):
        # no pair has a shift, so the graded check has none to pass on
        b = bridge(0, RootVector({0: 1, 2: 1}))
        assert a_block(b) == {} and c_block(b) == []
        assert verify_bridge(b)["checks"]["graded"] == {
            "pass": False, "shift": None, "per_shape": []}

    @pytest.mark.parametrize("edit", ["drop", "repeat", "add"])
    def test_count_needs_each_shape_once(self, monkeypatch, edit):
        # the type-A listing must map onto the type-C shapes one to one: a
        # repeated shape leaves the image set unchanged, but not its size.
        # The type-A listing is a dict, which holds a key once, so the
        # repeat is made in the type-C one
        b = bridge(0, RootVector({0: 2, 1: 3, 2: 2, 3: 1}))
        assert verify_bridge(b, ("count",))["pass"]
        if edit == "repeat":
            shapes = c_block(b)
            b = b._replace(c_shapes=tuple(shapes + shapes[:1]))
        else:
            edited = dict(a_block(b))
            if edit == "drop":
                del edited[next(iter(edited))]
            else:
                edited[(1,), ()] = a_state(((1,), ()), b.a_charge)
            monkeypatch.setattr(morita, "a_block", lambda _: edited)
        assert not verify_bridge(b, ("count",))["pass"]

    def test_failing_kleshchev_reports_its_own_c_set(self, monkeypatch):
        # equal sets share one sorted list; unequal ones each keep their own
        b = bridge(0, RootVector({0: 2, 1: 3, 2: 2, 3: 1}))
        passing = verify_bridge(b, ("kleshchev",))["checks"]["kleshchev"]
        assert passing["pass"] and passing["a_image"] is passing["c_set"]
        edited = dict(a_block(b))
        del edited[((1,), (2, 1))]  # a Kleshchev member
        monkeypatch.setattr(morita, "a_block", lambda _: edited)
        klesh = verify_bridge(b, ("kleshchev",))["checks"]["kleshchev"]
        assert not klesh["pass"]
        assert klesh["c_set"] == passing["c_set"] == sorted(
            list(nu) for nu in c_block(b) if morita.c_kleshchev(*c_state(nu, 0)))
        assert klesh["a_image"] == [nu for nu in klesh["c_set"]
                                    if nu != list(to_type_c(((1,), (2, 1)), b))]

    def test_report_follows_all_checks_order(self):
        # the report lists each check once, in ALL_CHECKS order, whatever
        # the order and repeats of the request
        checks = verify_bridge(bridge(0, MICRO), ("goodpath", "count", "goodpath"))["checks"]
        assert list(checks) == ["count", "goodpath"]

    def test_dominance_refinement_witness(self):
        # the type-C order strictly refines the type-A order on this block:
        # (4,2,2) dominates (3,3,1,1) but the bipartition preimages
        # ((2),(1,1)) and ((1,1),(2)) are incomparable
        beta = RootVector({0: 2, 1: 3, 2: 2, 3: 1})
        b = bridge(0, beta)
        assert to_type_c(((2,), (1, 1)), b) == (4, 2, 2)
        assert to_type_c(((1, 1), (2,)), b) == (3, 3, 1, 1)
        report = verify_bridge(b, checks=("dominance",))
        dom = report["checks"]["dominance"]
        assert dom["pass"]
        assert dom["order_preserving"]
        assert {"pair": [[[2], [1, 1]], [[1, 1], [2]]]} in dom["witnesses"]

    def test_witness_census(self):
        # number of blocks with a refinement witness, up to each height
        for kappa_c, census in ((0, {8: 1, 10: 4, 12: 11}), (1, {8: 0, 10: 0, 12: 1})):
            heights = [
                b.beta.height for b in iter_bridges(kappa_c, max(census))
                if verify_bridge(b, checks=("dominance",))["checks"]["dominance"]["witnesses"]
            ]
            assert {n: sum(1 for h in heights if h <= n) for n in census} == census

    def test_goodpath_computes_each_replay_step_once(self, monkeypatch):
        # rho's head is looked up once per block and each Kleshchev shape's
        # tail once; with a cold memo every state the walks pass through
        # is built once, with its replay step, and a second run builds none
        b = bridge(0, content(C, (0,), ((4, 3, 1),)))
        calls = outer_calls(monkeypatch, "c_good_walk")
        morita._C_GOOD.clear()
        report = verify_bridge(b, checks=("kleshchev", "goodpath"))
        flags = [to_rho for _, _, to_rho in calls]
        assert report["checks"]["goodpath"]["pass"]
        klesh = report["checks"]["kleshchev"]["c_set"]
        assert len(klesh) > 1
        assert flags.count(False) == 1
        assert flags.count(True) == len(flags) - 1 == len(klesh)
        # the states on the walks' paths, the lower end included
        states = set()
        for start, to_rho in [(b.rho, False)] + [(tuple(nu), True) for nu in klesh]:
            mp = (start,)
            for i in reversed(bit_good_walk(start, b.kappa_c, to_rho)[0]):
                states.add((c_state(mp[0], b.kappa_c), to_rho))
                mp = remove_node(mp, good_nodes(mp, C, b.c_charge)[i])
            states.add((c_state(mp[0], b.kappa_c), to_rho))
        assert len(morita._C_GOOD) == len(states)
        verify_bridge(b, checks=("kleshchev", "goodpath"))
        assert len(morita._C_GOOD) == len(states)

    def test_goodpath_bad_head_fails_every_shape(self, monkeypatch):
        b = bridge(0, content(C, (0,), ((4, 3, 1),)))
        walk = morita.c_good_walk

        def bad_head(zero, s, to_rho):
            # a head whose replay meets no cogood node
            return walk(zero, s, to_rho) if to_rho else 0

        monkeypatch.setattr(morita, "c_good_walk", bad_head)
        report = verify_bridge(b, checks=("kleshchev", "goodpath"))
        goodpath = report["checks"]["goodpath"]
        assert not goodpath["pass"]
        assert sorted(goodpath["failures"]) == report["checks"]["kleshchev"]["c_set"]

    @pytest.mark.parametrize("kappa_c", [0, 1])
    def test_sweep_builds_one_walk_per_kleshchev_shape(self, kappa_c):
        # a Kleshchev shape's walk down to rho extends the walk of the
        # shape one good removal below it, which the bridge one height
        # lower checked; so once a bridge with the same rho has run,
        # rho's head and every other walk a bridge reads are memo hits
        memo = morita._C_GOOD
        memo.clear()
        seen, later = set(), 0
        for b in iter_bridges(kappa_c, 14):
            entries = len(memo)
            report = verify_bridge(b, ("kleshchev", "goodpath"))
            assert report["pass"]
            if b.rho in seen:
                later += 1
                assert len(memo) - entries == len(report["checks"]["kleshchev"]["c_set"])
            seen.add(b.rho)
        assert later > 100

    @pytest.mark.parametrize("checks, unread", [
        (("goodpath",), "a_block"),
        (("dominance",), "c_state"),
        (("graded",), "c_kleshchev"),
        (("dominance", "kleshchev", "goodpath"), "c_walk"),
    ], ids=["goodpath", "dominance", "graded", "crystal"])
    def test_check_builds_only_what_it_reads(self, monkeypatch, checks, unread):
        b = bridge(0, content(C, (0,), ((4, 3, 1),)))
        verify_bridge(b, ("graded",))  # the walks' width now holds the block
        calls = outer_calls(monkeypatch, unread)
        assert verify_bridge(b, checks)["pass"]
        assert calls == []
        # all five checks build each block once, build each shape's state
        # once (rho's is the rectangle's), test each state for Kleshchev
        # once, and walk down from each pair's type-C shape once: one
        # entry holds its tableau count and its polynomial
        verify_bridge(b)
        n = len(a_block(b))
        assert len(calls) == {"a_block": 1, "c_state": n,
                              "c_kleshchev": n, "c_walk": n}[unread]

    def test_shapeless_bridge_is_listed_once_per_call(self, monkeypatch):
        # a bridge made by bridge() alone is listed with c_block once per
        # call, up front, whatever the checks; one that carries its shapes
        # is never listed again
        b = bridge(0, content(C, (0,), ((4, 3, 1),)))
        carried = (one_block_bridge(0, b.beta),
                   next(x for x in iter_bridges(0, 8) if x.beta == b.beta))
        calls = outer_calls(monkeypatch, "c_block")
        for n in range(1, len(ALL_CHECKS) + 1):
            for checks in combinations(ALL_CHECKS, n):
                report = verify_bridge(b, checks)
                assert report["pass"]
                assert calls == [(b,)]
                calls.clear()
                for x in carried:
                    assert verify_bridge(x, checks) == report
                assert calls == []

    def test_kleshchev_shapes_tested_once(self, monkeypatch):
        # kleshchev and goodpath read one list of Kleshchev type-C shapes,
        # tested on the states of c_block's shapes
        b = bridge(0, content(C, (0,), ((4, 3, 1),)))
        asked = outer_calls(monkeypatch, "c_kleshchev")
        report = verify_bridge(b, ("kleshchev", "goodpath"))
        assert report["pass"]
        assert len(report["checks"]["kleshchev"]["c_set"]) > 1
        assert sorted(asked) == sorted(c_state(nu, 0) for nu in c_block(b))

    def test_block_members_not_rechecked(self, monkeypatch):
        # a_block yields only members of the type-A block, so mapping them
        # through the bridge needs no content computation
        b = next(b for b in iter_bridges(0, 10) if b.beta.height == 10)
        calls = []

        def counting(ct, charge, mp):
            calls.append(mp)
            return content(ct, charge, mp)

        monkeypatch.setattr(morita, "content", counting)
        assert verify_bridge(b)["pass"]
        assert calls == []

    @pytest.mark.parametrize("kappa_c", [0, 1])
    def test_single_check_reports_match_full_report(self, kappa_c):
        for b in iter_bridges(kappa_c, 10):
            report = verify_bridge(b)
            # a sweep's bridge carries its type-C shapes; one from bridge()
            # alone has none, and verify_bridge lists the block with c_block
            assert verify_bridge(bridge(b.kappa_c, b.beta)) == report
            full = report["checks"]
            for c in full:
                assert verify_bridge(b, checks=(c,))["checks"] == {c: full[c]}

    @pytest.mark.parametrize("kappa_c", [0, 1])
    def test_shared_memo_matches_cold_memo(self, kappa_c):
        # the graded-dimension memos live through a sweep; every report must
        # be what the bridge gives with them cleared before it
        bridges = list(iter_bridges(kappa_c, 10))
        shared = [verify_bridge(b) for b in bridges]
        cold = []
        for b in bridges:
            for memo in (graded._gdim, morita.c_walk, morita.a_walk, morita.rectangle,
                         morita.rho_gdim, *IMAGE_MEMOS):
                memo.cache_clear()
            cold.append(verify_bridge(b))
        assert shared == cold

    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    def test_crystal_memos_match_cold_memos(self, kappa_c):
        # the Kleshchev and walk memos live through a sweep; every report
        # must be what the bridge gives with both cleared before it
        checks = ("kleshchev", "goodpath")
        bridges = list(iter_bridges(kappa_c, 12))
        shared = [verify_bridge(b, checks) for b in bridges]
        cold = []
        for b in bridges:
            morita._C_KLESHCHEV.clear()
            morita._A_KLESHCHEV.clear()
            morita._C_GOOD.clear()
            for memo in IMAGE_MEMOS:
                memo.cache_clear()
            cold.append(verify_bridge(b, checks))
        assert shared == cold

    @pytest.mark.parametrize("kappa_c", [0, 1])
    def test_kleshchev_tests_follow_one_good_node(self, kappa_c):
        # each Kleshchev test removes one good node per step and does not
        # search: on the maximal blocks, with cleared memos, each memo ends
        # with at most one entry per state on one path per shape, and the
        # good-removal search is not read.  (At kappa_c = 0, a0 = 5 the tests
        # hold 2061 and 1349 entries against a bound of 12852; the search
        # holds 44455.)
        tables = (morita._C_KLESHCHEV, morita._A_KLESHCHEV)
        for a0 in range(1, 6):
            rect = ((a0,) * (2 * a0 + 2 * kappa_c),)
            b = one_block_bridge(kappa_c, content(C, (kappa_c,), rect))
            for table in tables + (morita._C_GOOD,):
                table.clear()
            assert verify_bridge(b, ("kleshchev",))["pass"]
            bound = len(b.c_shapes) * (b.beta.height + 1)
            assert all(len(table) <= bound for table in tables)
            assert not morita._C_GOOD

    def test_deep_blocks_answer_the_kleshchev_and_goodpath_checks(self, monkeypatch):
        # with a recursion limit that makes every block deep, the same
        # reports: the Kleshchev tests and the good-removal walk are loops,
        # and no call of one nests in another
        names = ("c_kleshchev", "a_kleshchev", "c_good_walk")
        checks = ("kleshchev", "goodpath")
        blocks = [maximal(0, a0) for a0 in (2, 3, 4)] + [maximal(1, 3), *iter_bridges(1, 10)]

        def cold():
            morita._C_KLESHCHEV.clear()
            morita._A_KLESHCHEV.clear()
            morita._C_GOOD.clear()

        cold()
        expected = [verify_bridge(b, checks) for b in blocks]
        monkeypatch.setattr(partitions, "sys", SimpleNamespace(getrecursionlimit=lambda: 0))
        cold()
        deepest = nesting(monkeypatch, names)
        assert [verify_bridge(b, checks) for b in blocks] == expected
        assert deepest[0] == 1

    @pytest.mark.parametrize("kappa_c", [0, 1])
    def test_order_preserving_on_small_blocks(self, kappa_c):
        for b in iter_bridges(kappa_c, 8):
            report = verify_bridge(b, checks=("dominance",))
            assert report["checks"]["dominance"]["order_preserving"]


def dominance_report(b):
    return verify_bridge(b, ("dominance",))["checks"]["dominance"]


class TestDominanceCheck:
    """The check on packed sums against its pairwise loop on dominates
    (oracles.pairwise_dominance): the same pass, order_preserving and
    witnesses, in the same order."""

    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    def test_every_bridge_to_height_20(self, kappa_c):
        for b in iter_bridges(kappa_c, 20):
            assert dominance_report(b) == pairwise_dominance(b)

    @pytest.mark.parametrize("kappa_c,max_a0", [(0, 6), (1, 5), (2, 4)])
    def test_maximal_blocks(self, kappa_c, max_a0):
        for a0 in range(1, max_a0 + 1):
            rect = ((a0,) * (2 * a0 + 2 * kappa_c),)
            b = one_block_bridge(kappa_c, content(C, (kappa_c,), rect))
            assert dominance_report(b) == pairwise_dominance(b)

    def test_one_shape_block_builds_no_sums(self, monkeypatch):
        def refuse(mps):
            raise AssertionError("a one-shape block has no pair")

        monkeypatch.setattr(morita, "dominance_sums", refuse)
        b = bridge(0, RootVector({0: 1}))
        assert list(a_block(b)) == [((), ())]
        assert dominance_report(b) == {"pass": True, "order_preserving": True,
                                       "witnesses": []}

    def test_witnesses_share_each_shapes_lists(self):
        # each shape's JSON lists are built once, however many witnesses
        # name it; the encoded report is the same as with copies
        b = one_block_bridge(0, content(C, (0,), ((4,) * 8,)))
        report = dominance_report(b)
        shapes = [s for w in report["witnesses"] for s in w["pair"]]
        assert len({id(s) for s in shapes}) == len({json.dumps(s) for s in shapes})
        assert len(shapes) > len({id(s) for s in shapes})
        assert json.dumps(report) == json.dumps(pairwise_dominance(b))


def clear_walks():
    for memo in (morita.c_walk, morita.a_walk):
        memo.cache_clear()


def nesting(monkeypatch, names):
    """Replace morita's functions names by wrappers that count how deeply
    their calls nest, one count for all of them; the list that holds the
    deepest nesting seen."""
    depth, deepest = [0], [0]

    def counting(real):
        def call(*args):
            depth[0] += 1
            deepest[0] = max(deepest[0], depth[0])
            try:
                return real(*args)
            finally:
                depth[0] -= 1
        return call

    for name in names:
        monkeypatch.setattr(morita, name, counting(getattr(morita, name)))
    return deepest


def maximal(kappa_c, a0):
    rect = ((a0,) * (2 * a0 + 2 * kappa_c),)
    return one_block_bridge(kappa_c, content(C, (kappa_c,), rect))


class TestWalks:
    """The walk memos, one entry per state at one digit width for the whole
    process, against the walks at a width per block that they replaced
    (oracles.width_c_walk, width_a_walk, block_width)."""

    @pytest.fixture(autouse=True)
    def clear_oracles(self):
        yield
        width_c_walk.cache_clear()
        width_a_walk.cache_clear()

    def assert_entries(self, b):
        # each pair's entries: the counts of the walks at width 0, and the
        # polynomials of the walks at the block's own width
        own, K = block_width(b), morita._width
        assert K >= own
        for bp, w in a_block(b).items():
            st = c_state(to_type_c(bp, b), b.kappa_c)
            (n_c, p_c), (n_a, p_a) = morita.c_walk(*st), morita.a_walk(w)
            assert (n_c, n_a) == (width_c_walk(0, *st), width_a_walk(0, w))
            for p, oracle in ((p_c, width_c_walk(own, *st)), (p_a, width_a_walk(own, w))):
                assert (morita.kronecker_pairs(p, K, 0)
                        == morita.kronecker_pairs(oracle, own, 0))

    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    def test_every_bridge_to_height_20(self, kappa_c):
        # the width never shrinks over a sweep, and grows past 16 by 20
        clear_walks()
        widths = []
        for b in iter_bridges(kappa_c, 20):
            assert verify_bridge(b, ("count", "graded"))["pass"]
            self.assert_entries(b)
            widths.append(morita._width)
        assert widths == sorted(widths) and widths[0] == 16 < widths[-1]

    @pytest.mark.parametrize("kappa_c", [0, 1])
    def test_maximal_blocks(self, kappa_c):
        clear_walks()
        for a0 in range(1, 6):
            b = maximal(kappa_c, a0)
            assert verify_bridge(b, ("graded",))["pass"]
            self.assert_entries(b)

    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    def test_counts_are_hook_counts(self, kappa_c):
        # both walks count a pair's tableaux, C(|lambda| + |mu|, |lambda|)
        # f^lambda f^mu (ROADMAP finding 6), with no walk oracle
        bridges = list(iter_bridges(kappa_c, 24))
        if kappa_c == 0:
            bridges += [maximal(0, a0) for a0 in range(1, 7)]
        for b in bridges:
            counts = morita._Block(b, False).walks[1]
            assert len(counts) == len(a_block(b))
            for bp, (n_c, n_a) in zip(a_block(b), counts):
                assert n_c == n_a == hook_count(bp)

    def test_cleared_memos_start_over_at_width_0(self):
        # as maximal_blocks.py clears them before each check: a graded block
        # widens from 0 to its own width, and count alone stores bare counts
        big, small = maximal(0, 4), maximal(0, 1)
        verify_bridge(big, ("graded",))
        assert morita._width > 16
        clear_walks()
        verify_bridge(small, ("graded",))
        assert morita._width == 16
        clear_walks()
        verify_bridge(big, ("count",))
        assert morita._width == 0
        size = morita.c_walk.cache_info().currsize
        for bp, w in a_block(big).items():
            st = c_state(to_type_c(bp, big), 0)
            assert type(morita.c_walk(*st)) is int and type(morita.a_walk(w)) is int
        assert morita.c_walk.cache_info().currsize == size

    def test_count_reads_a_wider_walk(self):
        # count after graded reads the counts of the wider entries, and
        # walks no second time
        b = maximal(0, 3)
        clear_walks()
        report = verify_bridge(b, ("graded",))
        size = morita.c_walk.cache_info().currsize
        count = verify_bridge(b, ("count",))["checks"]["count"]
        assert count == verify_bridge(b)["checks"]["count"]
        assert morita.c_walk.cache_info().currsize == size
        assert verify_bridge(b, ("graded",)) == report

    def test_a_block_the_width_does_not_hold_walks_again(self, monkeypatch):
        # once at the short width, to read its counts, then at its own
        b = maximal(0, 4)
        clear_walks()
        calls = outer_calls(monkeypatch, "c_walk")
        verify_bridge(b, ("count", "graded"))
        assert len(calls) == 2 * len(a_block(b))
        assert morita._width == block_width(b) > 16

    def test_deep_blocks_fill_the_walks_from_the_bottom(self, monkeypatch):
        # with a recursion limit that makes every block deep, each state is
        # put in the memos from the lowest up, at each width a block takes:
        # the same reports, and no walk call nests more than one other
        blocks = [maximal(0, a0) for a0 in (2, 3, 4)] + list(iter_bridges(1, 10))
        clear_walks()
        expected = [verify_bridge(b, ("count", "graded")) for b in blocks]
        monkeypatch.setattr(partitions, "sys", SimpleNamespace(getrecursionlimit=lambda: 0))
        clear_walks()
        deepest = nesting(monkeypatch, ("c_walk", "a_walk"))
        assert [verify_bridge(b, ("count", "graded")) for b in blocks] == expected
        assert morita._width > 16 and deepest[0] == 2

    def test_refused_bridge_builds_no_rectangle(self):
        memos = (morita.rectangle, morita.rho_gdim)
        sizes = [memo.cache_info().currsize for memo in memos]
        with pytest.raises(BridgeError):
            bridge(0, RootVector({0: 20000}))
        assert [memo.cache_info().currsize for memo in memos] == sizes

    def test_rectangle_is_shared(self):
        # what depends on (kappa_c, a0) alone is built once per process
        b1, b2 = (bridge(1, content(C, (1,), (nu,))) for nu in ((2, 2, 2), (3, 2, 2, 1)))
        assert b1.a0 == b2.a0 == 2 and b1.beta != b2.beta
        assert b1.omega is b2.omega
        assert b1.to_json()["omega"] == b2.to_json()["omega"] == b1.omega.to_json()

    def test_edited_report_leaves_rectangle_alone(self):
        # each report owns its omega: an edit to one reaches neither the
        # next report of the same (kappa_c, a0) nor the rectangle memo
        b1, b2 = (bridge(1, content(C, (1,), (nu,))) for nu in ((2, 2, 2), (3, 2, 2, 1)))
        omega = b1.omega.to_json()
        verify_bridge(b1)["bridge"]["omega"]["0"] = 99
        assert verify_bridge(b2)["bridge"]["omega"] == omega
        assert verify_bridge(b1)["bridge"]["omega"] == omega
        assert morita.rectangle(1, 2)[2] == omega
        rho = gdim_specht((b1.rho,), C, b1.c_charge)
        low = min(e for e, _ in rho.items())
        assert morita.rho_gdim(1, 2, 0) == (low, rho.eval_at_1())
        assert morita.rho_gdim(1, 2, 16) == (low, sum(c << 16 * (e - low)
                                                      for e, c in rho.items()))
