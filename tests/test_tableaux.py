from itertools import product
from math import factorial

import pytest

from klrblocks.cartan import CartanType
from klrblocks.graded import LaurentPoly, gdim_specht
from klrblocks.partitions import conjugate, multipartitions_of, partitions_of, size
from klrblocks.tableaux import StandardTableau, enumerate_standard

import oracles
from oracles import (
    factorizable_gdim,
    initial_tableau,
    prefix_shape,
    rectangle_final_tableau,
    residue_sequence,
)

A, C = CartanType.A, CartanType.C

# The 2 x 2 square filled down its columns: [[1, 3], [2, 4]].
SQUARE_BY_COLUMNS = StandardTableau(
    ((2, 2),), ((1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1)), None, None
)


def hook_count(p):
    """Number of standard tableaux of a partition, by hooks."""
    if not p:
        return 1
    q = conjugate(p)
    out = factorial(sum(p))
    for r, width in enumerate(p):
        for c in range(width):
            out //= width - c + q[c] - r - 1
    return out


class TestDistinguishedTableaux:
    def test_initial(self):
        assert initial_tableau(((2, 2),)).rows() == [[[1, 2], [3, 4]]]
        assert initial_tableau(((1,), (1,))).rows() == [[[1]], [[2]]]

    def test_rectangle_final(self):
        # fills a square down its columns, row-fills the extra rows above
        assert rectangle_final_tableau(2, 2).order == SQUARE_BY_COLUMNS.order
        assert rectangle_final_tableau(2, 3).rows() == [[[1, 2], [3, 5], [4, 6]]]
        with pytest.raises(ValueError):
            rectangle_final_tableau(3, 2)


class TestResidueSequence:
    def test_examples(self):
        assert residue_sequence(initial_tableau(((2, 2),)), C, (0,)) == (0, 1, 1, 0)
        assert residue_sequence(SQUARE_BY_COLUMNS, C, (0,)) == (0, 1, 1, 0)
        assert residue_sequence(initial_tableau(((1,),)), C, (3,)) == (3,)


class TestDegree:
    def test_square_extremes(self):
        assert oracles.degree(initial_tableau(((2, 2),)), C, (0,)) == 1
        assert oracles.degree(SQUARE_BY_COLUMNS, C, (0,)) == -1
        walked = {t.order: t.degree for t in enumerate_standard(((2, 2),), C, (0,))}
        assert walked == {initial_tableau(((2, 2),)).order: 1, SQUARE_BY_COLUMNS.order: -1}

    def test_six_square_unique_maximum(self):
        shape = ((6,) * 6,)
        iword = residue_sequence(initial_tableau(shape), C, (0,))
        best = [t.order for t in enumerate_standard(shape, C, (0,), iword)
                if t.degree == 3]
        assert best == [initial_tableau(shape).order]

    @pytest.mark.parametrize("kappa_c", [0, 1, 2])
    @pytest.mark.parametrize("a0", [1, 2, 3, 4, 5])
    def test_rectangle_extremes(self, kappa_c, a0):
        rho = ((a0,) * (kappa_c + a0),)
        iword = residue_sequence(initial_tableau(rho), C, (kappa_c,))
        tableaux = list(enumerate_standard(rho, C, (kappa_c,), iword))
        degs = {t.order: t.degree for t in tableaux}
        top, bot = a0 // 2, -(a0 // 2)
        assert max(degs.values()) == top and min(degs.values()) == bot
        assert [o for o, d in degs.items() if d == top] == [initial_tableau(rho).order]
        assert [o for o, d in degs.items() if d == bot] == [
            rectangle_final_tableau(a0, kappa_c + a0).order
        ]


    @pytest.mark.parametrize("ct, charges", [
        (A, [(0,), (-2,), (0, 0), (1, -1), (0, 3)]),
        (C, [(0,), (2,), (0, 0), (1, 0), (0, 2)]),
    ])
    def test_sum_of_oracle_step_degrees(self, ct, charges):
        """Every standard tableau of every l-partition up to size 6: the
        walk's degree is the sum over its entries of the brute-force
        oracle's step degree of each node in the shape just after it is
        added."""
        for charge in charges:
            for n in range(7):
                for shape in multipartitions_of(n, len(charge)):
                    for t in enumerate_standard(shape, ct, charge):
                        expected = sum(
                            oracles.removal_degrees(prefix_shape(t, k), ct, charge)[node]
                            for k, node in enumerate(t.order, start=1))
                        assert t.degree == expected


class TestFirstTableau:
    """The walk's first tableau is the row-reading one, with its residue
    word: scripts/rectangle_table.py reads the row-initial word off it."""

    @pytest.mark.parametrize("level,largest", [(1, 7), (2, 7), (3, 5)])
    @pytest.mark.parametrize("ct", [A, C])
    def test_is_row_reading(self, ct, level, largest):
        for charge in [(0,) * level, (1,) * level, (2, 0, 1)[:level]]:
            for n in range(largest + 1):
                for shape in multipartitions_of(n, level):
                    first = next(enumerate_standard(shape, ct, charge))
                    assert first.order == tuple(oracles.nodes(shape))
                    assert first.word == residue_sequence(first, ct, charge)


class TestEnumeration:
    def test_unfiltered_counts(self):
        assert sum(1 for _ in enumerate_standard(((2, 1),), C, (0,))) == 2

    @pytest.mark.parametrize("n", range(1, 11))
    def test_hook_length_oracle(self, n):
        for p in partitions_of(n):
            assert sum(1 for _ in enumerate_standard((p,), A, (0,))) == hook_count(p)

    def test_weight_space_count_on_rectangle(self):
        rho = ((6,) * 6,)
        iword = residue_sequence(initial_tableau(rho), C, (0,))
        assert sum(1 for _ in enumerate_standard(rho, C, (0,), iword)) == 8

    @pytest.mark.parametrize("level,ct,charge", [(1, C, (0,)), (2, A, (1, 1))])
    def test_filtered_equals_filter_after(self, level, ct, charge):
        for n in range(1, 6):
            for shape in multipartitions_of(n, level):
                all_t = list(oracles.standard_tableaux(shape))
                for iword in {residue_sequence(t, ct, charge) for t in all_t}:
                    direct = {t.order for t in enumerate_standard(shape, ct, charge, iword)}
                    ref = {t.order for t in all_t
                           if residue_sequence(t, ct, charge) == iword}
                    assert direct == ref

    def test_residue_filter_checked_up_front(self):
        with pytest.raises(ValueError):
            enumerate_standard(((2,),), C, (0,), residues=(0,))
        with pytest.raises(ValueError):
            enumerate_standard(((2,),), C, (0,), residues=(0, 1, 1))

    @pytest.mark.parametrize("shape, charge", [
        (((),), (0, 0)), (((), ()), (0,)), (((2, 1), ()), (0,)), (((1,),), (1, 0))])
    def test_level_mismatch_refused_at_the_call(self, shape, charge):
        # for every shape, the empty one too, before a tableau is asked for
        with pytest.raises(ValueError, match=f"^shape has {len(shape)} components "
                                             f"but charge has {len(charge)}$"):
            enumerate_standard(shape, A, charge)


class TestWalkAgainstReferences:
    """The walk against the references it replaced: the recursive
    depth-first walk's list and order (oracles.standard_tableaux), each
    tableau's residue word (residue_sequence) and its degree replayed from
    the definition (oracles.degree); and with a residue filter, the walk's
    own tableaux of that word, in order."""

    @pytest.mark.parametrize("level,largest,filtered", [
        (1, 7, 7), (2, 7, 5), (3, 5, 4)])
    @pytest.mark.parametrize("ct", [A, C])
    def test_every_shape(self, ct, level, largest, filtered):
        for n in range(largest + 1):
            for shape in multipartitions_of(n, level):
                ref = [t.order for t in oracles.standard_tableaux(shape)]
                for charge in product(range(3), repeat=level):
                    walked = list(enumerate_standard(shape, ct, charge))
                    assert [t.order for t in walked] == ref
                    by_word = {}
                    for t in walked:
                        assert t.word == residue_sequence(t, ct, charge)
                        assert t.degree == oracles.degree(t, ct, charge)
                        by_word.setdefault(t.word, []).append(t)
                    if n > filtered:
                        continue
                    for word, tableaux in by_word.items():
                        assert list(enumerate_standard(shape, ct, charge, word)) == tableaux


class TestFactorizable:
    # the factorizable oracle against the definition: tableaux whose first
    # |rho| entries fill the sub-diagram rho
    @staticmethod
    def by_definition(nu, rho):
        return LaurentPoly(
            (oracles.degree(t, C, (0,)), 1) for t in oracles.standard_tableaux(nu)
            if prefix_shape(t, size(rho)) == rho
        )

    def test_examples(self):
        both = factorizable_gdim(((2, 1),), C, (0,), ((1,),))
        assert both.eval_at_1() == 2
        assert both == self.by_definition(((2, 1),), ((1,),))
        rho = ((2, 2),)
        assert factorizable_gdim(rho, C, (0,), rho) == gdim_specht(rho, C, (0,))
        assert factorizable_gdim(((2,),), C, (0,), ((2,),)).eval_at_1() == 1
        for floor, nu in [(((2,),), ((1,),)), (((1, 1),), ((2,),))]:
            # a floor not inside the shape gives 0
            assert factorizable_gdim(nu, C, (0,), floor) == self.by_definition(nu, floor)
            assert self.by_definition(nu, floor) == LaurentPoly()

    def test_matches_definition(self):
        rho = ((2, 2),)
        for p in partitions_of(6):
            assert factorizable_gdim((p,), C, (0,), rho) == self.by_definition((p,), rho)
