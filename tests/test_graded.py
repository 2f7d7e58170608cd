import pytest
from hypothesis import given, settings, strategies as st

from klrblocks.cartan import CartanType, RootVector
from klrblocks.graded import (
    LaurentPoly,
    gdim_block,
    gdim_factorizable,
    gdim_specht,
    gdim_specht_weight,
)
from klrblocks.partitions import content, enumerate_block, multipartitions_of, partitions_of
from klrblocks.tableaux import degree, enumerate_standard, initial_tableau, residue_sequence

A, C = CartanType.A, CartanType.C

QBAL = LaurentPoly({1: 1, -1: 1})  # q + 1/q


class TestLaurentPoly:
    def test_square(self):
        assert QBAL * QBAL == LaurentPoly({2: 1, 0: 2, -2: 1})

    def test_pow(self):
        assert QBAL ** 0 == LaurentPoly.one()
        assert QBAL ** 2 == QBAL * QBAL
        with pytest.raises(ValueError):
            QBAL ** -1

    def test_bar(self):
        p = LaurentPoly({3: 2, -1: 5})
        assert p.bar() == LaurentPoly({-3: 2, 1: 5})
        assert QBAL.bar() == QBAL

    def test_eval_at_1(self):
        assert (QBAL ** 3).eval_at_1() == 8
        assert LaurentPoly.zero().eval_at_1() == 0

    def test_add_sub_cancel(self):
        p = LaurentPoly({0: 1, 2: -3})
        assert p - p == LaurentPoly.zero()
        assert not (p - p)
        assert p + LaurentPoly.zero() == p

    def test_shifted(self):
        assert LaurentPoly.one().shifted(2) == LaurentPoly.q(2)

    def test_pairs_round_trip(self):
        p = LaurentPoly({-1: 1, 1: 1, 4: -2})
        assert p.to_pairs() == [[-1, 1], [1, 1], [4, -2]]
        assert LaurentPoly.from_pairs(p.to_pairs()) == p

    def test_repr(self):
        assert repr(LaurentPoly.zero()) == "0"
        assert repr(QBAL) == "q + q^-1"

    @given(st.dictionaries(st.integers(-5, 5), st.integers(-4, 4), max_size=5),
           st.dictionaries(st.integers(-5, 5), st.integers(-4, 4), max_size=5))
    def test_mul_commutes_and_distributes(self, d1, d2):
        p, r = LaurentPoly(d1), LaurentPoly(d2)
        assert p * r == r * p
        assert (p + r) * QBAL == p * QBAL + r * QBAL


class TestGdimSpecht:
    def test_square_weight(self):
        iword = residue_sequence(initial_tableau(((2, 2),)), C, (0,))
        assert gdim_specht_weight(((2, 2),), C, (0,), iword) == QBAL

    def test_six_square_weight(self):
        shape = ((6,) * 6,)
        iword = residue_sequence(initial_tableau(shape), C, (0,))
        assert gdim_specht_weight(shape, C, (0,), iword) == QBAL ** 3

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
                iwords = {residue_sequence(t, C, (0,))
                          for t in enumerate_standard((p,))}
                total = LaurentPoly.zero()
                for iword in iwords:
                    total = total + gdim_specht_weight((p,), C, (0,), iword)
                assert total == full


class TestGdimBlock:
    def test_micro_block(self):
        beta = RootVector({0: 1, 1: 2})
        assert gdim_block(C, (0,), beta) == QBAL * QBAL
        assert gdim_block(A, (1, 1), RootVector({1: 2})) == QBAL * QBAL

    def test_trivial_truncation_is_identity(self):
        beta = RootVector({0: 1, 1: 2})
        assert gdim_block(C, (0,), beta, omega=RootVector.zero()) == gdim_block(
            C, (0,), beta
        )

    def test_empty_block(self):
        assert gdim_block(C, (0,), RootVector({1: 2})) == LaurentPoly.zero()

    def test_eval_at_1_counts(self):
        for n in range(1, 9):
            for beta in {content(C, (0,), (p,)) for p in partitions_of(n)}:
                expected = sum(
                    sum(1 for _ in enumerate_standard(shape)) ** 2
                    for shape in enumerate_block(C, (0,), beta)
                )
                assert gdim_block(C, (0,), beta).eval_at_1() == expected


@st.composite
def charged_tableaux(draw):
    """A Cartan type, a charge of level 1 or 2, a shape of size at most 7,
    its standard tableaux and one of them."""
    ct = draw(st.sampled_from([A, C]))
    level = draw(st.integers(1, 2))
    charge = tuple(draw(st.integers(0 if ct is C else -3, 3)) for _ in range(level))
    shape = draw(st.sampled_from(multipartitions_of(draw(st.integers(0, 7)), level)))
    tabs = list(enumerate_standard(shape))
    return ct, charge, shape, tabs, draw(st.sampled_from(tabs))


def q_sum(tabs, ct, charge):
    return LaurentPoly((degree(t, ct, charge), 1) for t in tabs)


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
        ct, charge, shape, tabs, t = case
        r = min(k, t.n)
        omega = content(ct, charge, t.prefix_shape(r))
        expected = q_sum([s for s in tabs if content(ct, charge, s.prefix_shape(r)) == omega],
                         ct, charge)
        assert gdim_factorizable(shape, ct, charge, omega) == expected
