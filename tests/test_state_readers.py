"""The three readers of the lattice states (graded._gdim through
gdim_specht and gdim_specht_weight, the tableau walk and the Kleshchev
test) against the brute-force oracles, on every l-partition to size 7 at
levels 1 and 2 and to size 4 at level 3, under the type-A charges -2..2
and the type-C charges 0..2; and a charge whose level is not the
shape's, which the readers refuse."""

from itertools import product

import pytest

from klrblocks import crystal, graded
from klrblocks.cartan import CartanType
from klrblocks.crystal import is_kleshchev
from klrblocks.graded import LaurentPoly, gdim_specht, gdim_specht_weight
from klrblocks.partitions import multipartitions_of
from klrblocks.tableaux import enumerate_standard

import oracles
from oracles import corners, good_node, remove_node, residue, residue_sequence

A, C = CartanType.A, CartanType.C


def signature_kleshchev(mp, ct, charge):
    """Kleshchev membership by the reduced signatures alone: remove the good
    node of the first residue that has one, down to the empty l-partition."""
    while any(mp):
        goods = (good_node(mp, ct, charge, residue(ct, charge, node))
                 for node in corners(mp)[1])
        node = next((g for g in goods if g is not None), None)
        if node is None:
            return False
        mp = remove_node(mp, node)
    return True


def walked(tableaux):
    return [(t.order, t.word, t.degree) for t in tableaux]


@pytest.mark.parametrize("level,largest", [(1, 7), (2, 7), (3, 4)])
@pytest.mark.parametrize("ct", [A, C])
def test_readers_match_the_oracles(ct, level, largest):
    shapes = [mp for n in range(largest + 1) for mp in multipartitions_of(n, level)]
    for charge in product(range(3) if ct is C else range(-2, 3), repeat=level):
        # fresh memos, so every shape starts from states of its own calls
        graded._gdim.cache_clear()
        crystal._KLESHCHEV.clear()
        for mp in shapes:
            expected = [(t.order, residue_sequence(t, ct, charge),
                         oracles.degree(t, ct, charge))
                        for t in oracles.standard_tableaux(mp)]
            assert walked(enumerate_standard(mp, ct, charge)) == expected
            assert gdim_specht(mp, ct, charge) == LaurentPoly(
                (d, 1) for _, _, d in expected)
            for word in {expected[0][1], expected[-1][1]}:
                weight = [t for t in expected if t[1] == word]
                assert walked(enumerate_standard(mp, ct, charge, word)) == weight
                assert gdim_specht_weight(mp, ct, charge, word) == LaurentPoly(
                    (d, 1) for _, _, d in weight)
            assert is_kleshchev(mp, ct, charge) == signature_kleshchev(mp, ct, charge)


def test_a_charge_of_another_level_is_refused():
    for ct, charge in ((A, (0, 0)), (C, ())):
        with pytest.raises(ValueError):
            gdim_specht(((2, 1),), ct, charge)
        with pytest.raises(ValueError):
            gdim_specht_weight(((2, 1),), ct, charge, (0, 1, -1))
        with pytest.raises(ValueError):
            is_kleshchev(((2, 1),), ct, charge)
        with pytest.raises(ValueError):
            list(enumerate_standard(((2, 1),), ct, charge))
