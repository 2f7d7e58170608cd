import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from klrblocks.cartan import CartanType
from klrblocks.graded import LaurentPoly, _gdim, gdim_specht, gdim_specht_weight
from klrblocks.morita import (a_block, bridge, c_state, from_type_c, iter_bridges,
                              verify_bridge)
from klrblocks.partitions import content, lattice_state, multipartitions_of, partitions_of, size
from klrblocks.tableaux import enumerate_standard

import oracles
from oracles import (
    a_state,
    a_steps,
    c_steps,
    factorizable_gdim,
    initial_tableau,
    poly_mul,
    prefix_shape,
    rectangle_final_tableau,
    remove_node,
    residue_sequence,
    step_degrees,
)

A, C = CartanType.A, CartanType.C

QBAL = LaurentPoly({1: 1, -1: 1})  # q + 1/q


class TestLaurentPoly:
    def test_square(self):
        assert poly_mul(QBAL, QBAL) == LaurentPoly({2: 1, 0: 2, -2: 1})

    def test_bar(self):
        p = LaurentPoly({3: 2, -1: 5})
        assert p.bar() == LaurentPoly({-3: 2, 1: 5})
        assert QBAL.bar() == QBAL

    def test_eval_at_1(self):
        assert LaurentPoly({3: 1, 1: 3, -1: 3, -3: 1}).eval_at_1() == 8
        assert LaurentPoly().eval_at_1() == 0

    def test_shifted(self):
        assert poly_mul(LaurentPoly.one(), LaurentPoly({2: 1})) == LaurentPoly({2: 1})
        assert poly_mul(QBAL, LaurentPoly({2: 1})) == LaurentPoly({3: 1, 1: 1})

    def test_pairs_round_trip(self):
        p = LaurentPoly({-1: 1, 1: 1, 4: -2})
        assert p.to_pairs() == [[-1, 1], [1, 1], [4, -2]]
        assert LaurentPoly(p.to_pairs()) == p

    def test_repr(self):
        assert repr(LaurentPoly()) == "0"
        assert repr(QBAL) == "q + q^-1"

    @given(st.dictionaries(st.integers(-5, 5), st.integers(-4, 4), max_size=5),
           st.dictionaries(st.integers(-5, 5), st.integers(-4, 4), max_size=5))
    def test_mul_commutes_and_distributes(self, d1, d2):
        p, r = LaurentPoly(d1), LaurentPoly(d2)
        assert poly_mul(p, r) == poly_mul(r, p)
        total = LaurentPoly([*p.items(), *r.items()])
        assert poly_mul(total, QBAL) == LaurentPoly(
            [*poly_mul(p, QBAL).items(), *poly_mul(r, QBAL).items()])


class TestGdimSpecht:
    def test_square_weight(self):
        iword = residue_sequence(initial_tableau(((2, 2),)), C, (0,))
        assert gdim_specht_weight(((2, 2),), C, (0,), iword) == QBAL

    def test_six_square_weight(self):
        shape = ((6,) * 6,)
        iword = residue_sequence(initial_tableau(shape), C, (0,))
        assert gdim_specht_weight(shape, C, (0,), iword) == LaurentPoly(
            {3: 1, 1: 3, -1: 3, -3: 1})

    def test_level_two_pair(self):
        assert gdim_specht(((1,), (1,)), A, (1, 1)) == QBAL

    def test_single_box(self):
        assert gdim_specht(((1,),), C, (0,)) == LaurentPoly.one()

    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    @pytest.mark.parametrize("a0", [1, 2, 3, 4, 5, 6])
    def test_rectangle_weight_bar_invariant(self, kappa_c, a0):
        rho = ((a0,) * (kappa_c + a0),)
        iword = residue_sequence(initial_tableau(rho), C, (kappa_c,))
        p = gdim_specht_weight(rho, C, (kappa_c,), iword)
        assert p.bar() == p

    def test_weight_sum_equals_full(self):
        for n in range(1, 10):
            for p in partitions_of(n):
                full = gdim_specht((p,), C, (0,))
                iwords = {t.word for t in enumerate_standard((p,), C, (0,))}
                assert LaurentPoly(
                    term for iword in iwords
                    for term in gdim_specht_weight((p,), C, (0,), iword).items()) == full


@st.composite
def charged_tableaux(draw):
    """A Cartan type, a charge of level 1 or 2, a shape of size at most 7,
    its standard tableaux and one of them."""
    ct = draw(st.sampled_from([A, C]))
    level = draw(st.integers(1, 2))
    charge = tuple(draw(st.integers(0 if ct is C else -3, 3)) for _ in range(level))
    shape = draw(st.sampled_from(multipartitions_of(draw(st.integers(0, 7)), level)))
    tabs = list(oracles.standard_tableaux(shape))
    return ct, charge, shape, tabs, draw(st.sampled_from(tabs))


def q_sum(tabs, ct, charge):
    return LaurentPoly((oracles.degree(t, ct, charge), 1) for t in tabs)


class TestLatticeAgainstEnumeration:
    @settings(deadline=None)
    @given(charged_tableaux())
    def test_gdim_specht(self, case):
        ct, charge, shape, tabs, _ = case
        assert gdim_specht(shape, ct, charge) == q_sum(tabs, ct, charge)

    @settings(deadline=None)
    @given(charged_tableaux())
    def test_gdim_specht_weight(self, case):
        ct, charge, shape, tabs, t = case
        word = residue_sequence(t, ct, charge)
        expected = q_sum([s for s in tabs if residue_sequence(s, ct, charge) == word],
                         ct, charge)
        assert gdim_specht_weight(shape, ct, charge, word) == expected

    @settings(deadline=None)
    @given(charged_tableaux(), st.integers(0, 7))
    def test_gdim_factorizable(self, case, k):
        # the factorizable oracle that the bridge's walks are tested against
        ct, charge, shape, tabs, t = case
        rho = prefix_shape(t, min(k, len(t.order)))
        expected = q_sum([s for s in tabs if prefix_shape(s, size(rho)) == rho],
                         ct, charge)
        assert factorizable_gdim(shape, ct, charge, rho) == expected


# The memo of _gdim lives for the process, so every call runs on states that
# earlier calls left behind.  Its key holds a shape's lattice state, in
# which no charge enters a bit, so calls of one shape under any type and
# charge meet the same states.  A call list often repeats the previous
# shape with one of its type, charge or residue word changed, which is
# where a key missing one of them would return a stale polynomial.
CALLS = (gdim_specht, gdim_specht_weight)


def draw_extra(draw, fn, shape, ct, charge):
    """The residue word of a call, read off a random tableau of the shape."""
    if fn is gdim_specht:
        return None
    return residue_sequence(draw(st.sampled_from(list(oracles.standard_tableaux(shape)))),
                            ct, charge)


@st.composite
def gdim_calls(draw, prev=None):
    """(function, shape, type, charge, word, pass lists?).  With prev: its
    function and shape, and exactly one of its type, charge and word
    changed."""
    if prev is None:
        fn = draw(st.sampled_from(CALLS))
        level = draw(st.integers(1, 3))
        shape = draw(st.sampled_from(multipartitions_of(draw(st.integers(0, 6)), level)))
        ct = draw(st.sampled_from([A, C]))
        charge = tuple(draw(st.integers(0 if ct is C else -3, 3)) for _ in range(level))
        extra = draw_extra(draw, fn, shape, ct, charge)
    else:
        fn, shape, ct, charge, extra, _ = prev
        change = draw(st.sampled_from(("type", "charge") + (("extra",) if extra is not None else ())))
        if change == "type":
            ct = A if ct is C else C
            charge = tuple(map(abs, charge))
        elif change == "charge":
            charge = (charge[0] + draw(st.integers(1, 2)),) + charge[1:]
        else:
            extra = draw_extra(draw, fn, shape, ct, charge)
    return fn, shape, ct, charge, extra, draw(st.booleans())


@st.composite
def gdim_call_lists(draw):
    calls = [draw(gdim_calls())]
    for _ in range(draw(st.integers(1, 7))):
        calls.append(draw(gdim_calls(calls[-1] if draw(st.booleans()) else None)))
    return calls


def make_call(call):
    fn, shape, ct, charge, extra, as_lists = call
    seq = list if as_lists else tuple
    if fn is gdim_specht:
        return fn(shape, ct, seq(charge))
    return fn(shape, ct, seq(charge), seq(extra))


def oracle(call):
    fn, shape, ct, charge, extra, _ = call
    tabs = list(oracles.standard_tableaux(shape))
    if fn is gdim_specht_weight:
        tabs = [t for t in tabs if residue_sequence(t, ct, charge) == extra]
    return q_sum(tabs, ct, charge)


class TestSharedMemo:
    @settings(deadline=None)
    @given(gdim_call_lists())
    def test_warm_calls_match_oracle_and_cold_calls(self, calls):
        warm = [make_call(call) for call in calls]
        for call, poly in zip(calls, warm):
            assert poly == oracle(call)
            _gdim.cache_clear()
            assert make_call(call) == poly


def sub_diagrams(shape):
    """The number of l-partitions inside shape, shape itself and the empty
    one included."""
    def inside(mp):
        return all(len(p) <= len(big) and all(map(int.__le__, p, big))
                   for p, big in zip(mp, shape))
    return sum(inside(mp) for n in range(size(shape) + 1)
               for mp in multipartitions_of(n, len(shape)))


class TestOneEntryPerState:
    def test_cold_memo_holds_one_entry_per_sub_diagram(self):
        """A Specht module's recursion on a cold memo makes one entry per
        lattice state it reaches, the states of the sub-diagrams of its
        shape; a larger shape reuses those of a smaller one inside it, and
        another type and charge make entries of their own."""
        _gdim.cache_clear()
        rho = ((3, 3, 3, 3),)
        nu = ((5, 4, 3, 3, 2, 1),)
        gdim_specht(rho, C, (1,))
        assert _gdim.cache_info().currsize == sub_diagrams(rho) == 35
        gdim_specht(nu, C, (1,))
        assert _gdim.cache_info().currsize == sub_diagrams(nu)
        gdim_specht(nu, A, (1,))
        assert _gdim.cache_info().currsize == 2 * sub_diagrams(nu)
        bp = ((3, 1), (2, 2))
        gdim_specht(bp, A, (4, 3))
        assert _gdim.cache_info().currsize == 2 * sub_diagrams(nu) + sub_diagrams(bp)
        # a residue word reaches at most one entry per sub-diagram
        _gdim.cache_clear()
        word = residue_sequence(rectangle_final_tableau(3, 4), C, (1,))
        gdim_specht_weight(rho, C, (1,), word)
        assert 12 < _gdim.cache_info().currsize <= 35


class TestDeepShapes:
    """Shapes deeper than the recursion allows are listed first and filled
    in from the smallest size up; each answer is the sum over its tableaux,
    for the whole module and for each tableau's weight space."""

    @pytest.mark.parametrize("shape,ct,charge", [
        (((1,) * 1200,), A, (0,)),
        (((600,),), C, (0,)),
        (((700,),), A, (0,)),
    ], ids=["column-a", "row-c", "row-a"])
    def test_matches_enumeration(self, shape, ct, charge):
        tableaux = list(enumerate_standard(shape, ct, charge))
        total = LaurentPoly((t.degree, 1) for t in tableaux)
        assert 4 * size(shape) > sys.getrecursionlimit()
        assert gdim_specht(shape, ct, charge) == total
        for t in tableaux:
            assert gdim_specht_weight(shape, ct, charge, t.word) == LaurentPoly({t.degree: 1})

    def test_bipartition_counts_its_tableaux(self):
        bp = ((1,) * 400, (2,))
        assert gdim_specht(bp, A, (0, 1)).eval_at_1() == oracles.hook_count(bp)


@lru_cache(maxsize=None)
def omega_gdim(ct, charge, mp, omega):
    """Oracle: the sum of q^deg(t) over t in Std(mp) whose first ht(omega)
    entries fill a sub-diagram of content omega (omega None: over all of
    Std(mp)), by a recursion over every sub-diagram with a content test."""
    n = size(mp)
    if omega is not None and n <= omega.height:
        if n < omega.height or content(ct, charge, mp) != omega:
            return LaurentPoly()
        return omega_gdim(ct, charge, mp, None)
    if n == 0:
        return LaurentPoly.one()
    out = {}
    for node, _, d in step_degrees(mp, ct, charge)[1]:
        for e, c in omega_gdim(ct, charge, remove_node(mp, node), omega).items():
            out[e + d] = out.get(e + d, 0) + c
    return LaurentPoly(out)


def maximal_bridge(a0, kappa_c=0):
    """The bridge of the maximal block of defect a0 at kappa_c, the block of
    the rectangle (a0^(2 a0 + 2 kappa_c)); at kappa_c = 0, beta = a0 alpha_0
    + sum over 1 <= i < 2 a0 of (2 a0 - i) alpha_i."""
    return bridge(kappa_c, content(C, (kappa_c,), ((a0,) * (2 * a0 + 2 * kappa_c),)))


class TestFactorizableAgainstOmega:
    """The bridge's bit-state walks, as the count and graded checks report
    them, against oracles on every shape of a block: the type-C side
    against the content-omega truncation and the factorizable sum, the
    type-A side against gdim(rho) times its Specht module's (_gdim)."""

    @staticmethod
    def shapes_checked(bridges):
        shapes = 0
        try:
            for b in bridges:
                checks = verify_bridge(b, ("count", "graded"))["checks"]
                rho = gdim_specht((b.rho,), C, b.c_charge)
                for bp, count, row in zip(a_block(b), checks["count"]["per_shape"],
                                          checks["graded"]["per_shape"]):
                    nu = (tuple(row["nu"]),)
                    lhs = omega_gdim(C, b.c_charge, nu, b.omega)
                    assert lhs == factorizable_gdim(nu, C, b.c_charge, (b.rho,))
                    rhs = poly_mul(rho, gdim_specht(bp, A, b.a_charge))
                    assert (row["lhs"], row["rhs"]) == (lhs.to_pairs(), rhs.to_pairs())
                    assert count["factorizable"] == lhs.eval_at_1()
                    assert count["rho_times_a"] == rhs.eval_at_1()
                    shapes += 1
        finally:
            omega_gdim.cache_clear()
            oracles.interval_gdim.cache_clear()
        return shapes

    @pytest.mark.parametrize("kappa_c,shapes", [(0, 914), (1, 898), (2, 834)])
    def test_every_bridge_to_height_16(self, kappa_c, shapes):
        assert self.shapes_checked(iter_bridges(kappa_c, 16)) == shapes

    @pytest.mark.parametrize("a0,shapes", [(4, 70), (5, 252)])
    def test_maximal_blocks(self, a0, shapes):
        # the a0 = 5 block's products have coefficients of 76 bits, so
        # digits of a fixed 64-bit width would carry into each other
        assert self.shapes_checked([maximal_bridge(a0)]) == shapes

    def test_maximal_block_at_kappa_c_1(self):
        assert self.shapes_checked([maximal_bridge(4, 1)]) == 126


def maya(p, k, u):
    """Whether u lies in M(p, k) = {k + p_r - r : r >= 1}, by the definition."""
    return u < k - len(p) or u in {k + x - r for r, x in enumerate(p, 1)}


@lru_cache(maxsize=None)
def walk_shapes(kappa_c, max_n):
    """Every type-C shape that the walks down from the blocks of the bridges
    to height max_n reach, that is every removal that keeps the content-0
    nodes, each with its bridge's rho."""
    seen = {}
    todo = [(nu, b.rho) for b in iter_bridges(kappa_c, max_n) for nu in b.c_shapes]
    while todo:
        nu, rho = todo.pop()
        if nu not in seen:
            seen[nu] = rho
            todo.extend((remove_node((nu,), (r, c, 1))[0], rho)
                        for (r, c, _), _, _ in step_degrees((nu,), C, (kappa_c,))[1]
                        if kappa_c + c != r)
    return seen


def own_split(nu, kappa_c):
    """nu's bipartition under the bridge of its own block, whose rho is that
    of every block above nu in walk_shapes: a walk keeps the content-0
    nodes."""
    return from_type_c(nu, bridge(kappa_c, content(C, (kappa_c,), (nu,))))


class TestBitRules:
    """The walks' step degrees, read off two bits of a bit state, against
    the corner scan on every state of every bridge's walks to height 20."""

    @pytest.mark.parametrize("kappa_c,states", [(0, 2713), (1, 2693), (2, 2593)])
    def test_steps_match_the_corner_scan(self, kappa_c, states):
        shapes = walk_shapes(kappa_c, 20)
        for nu, rho in shapes.items():
            zero, s = c_state(nu, kappa_c)
            assert sorted(((zero - 1, t), d) for t, d in c_steps(zero, s)) == sorted(
                (c_state(remove_node((nu,), node)[0], kappa_c), d)
                for node, _, d in step_degrees((nu,), C, (kappa_c,))[1]
                if kappa_c + node[1] != node[0])
            bp, charge = own_split(nu, kappa_c), (kappa_c + rho[0], rho[0])
            assert sorted(a_steps(a_state(bp, charge))) == sorted(
                (a_state(remove_node(bp, node), charge), d)
                for node, _, d in step_degrees(bp, A, charge)[1])
        assert len(shapes) == states

    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    def test_the_two_sides_degree_rules_agree(self, kappa_c):
        # finding 5: b2(t - 1) - b2(t) = b(-t - 1) - b(-t) for t >= 1, with b
        # membership in M(nu, kappa_c) and b2 in M(mu, a0), for nu = rho +
        # (lambda, mu'); at larger t both sides are 0
        for nu, rho in walk_shapes(kappa_c, 20).items():
            mu = own_split(nu, kappa_c)[1]
            for t in range(1, len(nu) + rho[0] + 3):
                assert (maya(mu, rho[0], t - 1) - maya(mu, rho[0], t)
                        == maya(nu, kappa_c, -t - 1) - maya(nu, kappa_c, -t))

    def test_type_a_state_refuses_more_rows_than_the_charge(self):
        # such a component has a node of residue 0 or less, and its set
        # misses some u < 0, which the state cannot hold
        with pytest.raises(ValueError):
            a_state(((1, 1), ()), (1, 1))
