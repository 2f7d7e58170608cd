"""Integer Laurent polynomials in q and graded dimension computations.

The graded dimension of a Specht module, or of one of its residue weight
spaces, comes from one recursion down the Young lattice to the empty
shape (_gdim), memoized for the life of the process; no tableau is
listed.  It walks lattice states and reads each step degree and each
child state off the package's one corner rule (partitions.corners), as
the tableau walk and the command line's Kleshchev test do.  It recurses
once per node, so a shape too deep for the interpreter's recursion limit
has its sub-states listed first and filled in from the smallest size up
(_fill)."""

from __future__ import annotations

import sys
from collections.abc import ItemsView, Mapping
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cartan import CartanType, Charge, Residue
from .partitions import MultiPartition, corners, lattice_state


class LaurentPoly:
    """Finitely supported exponent -> integer coefficient map; zero
    coefficients are never stored and equality is exact."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[Tuple[int, int]] = ()):
        d: Dict[int, int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for e, c in items:
            d[e] = d.get(e, 0) + c
        self._coeffs = {e: c for e, c in d.items() if c}

    @classmethod
    def _owning(cls, coeffs: Dict[int, int]) -> "LaurentPoly":
        """The polynomial that takes coeffs, which has no zero coefficient
        and no other holder, as its own map: no copy is made."""
        poly = cls.__new__(cls)
        poly._coeffs = coeffs
        return poly

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._owning({0: 1})

    def bar(self) -> "LaurentPoly":
        """The bar involution q -> 1/q."""
        return LaurentPoly({-e: c for e, c in self._coeffs.items()})

    def eval_at_1(self) -> int:
        return sum(self._coeffs.values())

    def items(self) -> ItemsView[int, int]:
        """A read-only view of the (exponent, coefficient) pairs."""
        return self._coeffs.items()

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._coeffs == other._coeffs

    def to_pairs(self) -> List[List[int]]:
        return [[e, c] for e, c in sorted(self._coeffs.items())]

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        terms = []
        for e, c in sorted(self._coeffs.items(), reverse=True):
            if e == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else "-" if c == -1 else f"{c}*"
                terms.append(f"{head}q^{e}" if e != 1 else f"{head}q")
        return " + ".join(terms).replace("+ -", "- ")


@lru_cache(maxsize=None)
def _gdim(ct: CartanType, charge: Charge, n: int, s: int,
          word: Optional[Tuple[Residue, ...]]) -> LaurentPoly:
    """Sum of q^deg(t) over t in Std(mp), for (n, s) the lattice state of
    mp, each node's step degree read in the shape just after it is added.
    Removing the node holding the largest entry leaves a tableau of a
    smaller shape and takes that node's step degree, which depends only on
    the shape and the node, off the degree; so the sum is a recursion down
    the Young lattice, memoized for the life of the process.  Each miss
    adds the sub-sums of its removable corners (partitions.corners) at
    their children, shifted by their step degrees, into one coefficient
    map; with word, only those of residue word[-1], below them word[-2],
    and so on."""
    if not n:
        return LaurentPoly.one()
    i, rest = (None, None) if word is None else (word[-1], word[:-1])
    out: Dict[int, int] = {}
    for _, _, d, child in corners(ct, charge, n, s, False, i):
        for e, c in _gdim(ct, charge, n - 1, child, rest).items():
            out[e + d] = out.get(e + d, 0) + c
    # every coefficient counts tableaux, so none is 0
    return LaurentPoly._owning(out)


def _fill(ct: CartanType, charge: Charge, n: int, s: int,
          word: Optional[Tuple[Residue, ...]]) -> LaurentPoly:
    """_gdim(ct, charge, n, s, word), which recurses once per node.  Past a
    quarter of the recursion limit, the sub-states it would visit (for a
    word, those of its prefixes) are listed one size at a time and their
    entries made from the smallest size up, so no miss recurses deeper
    than the sizes below it, which are all in the memo."""
    if 4 * n > sys.getrecursionlimit():
        levels = [{s}]
        for m in range(n, 0, -1):
            i = None if word is None else word[m - 1]
            levels.append({child for t in levels[-1]
                           for _, _, _, child in corners(ct, charge, m, t, False, i)})
        for m, states in enumerate(reversed(levels)):
            for t in states:
                _gdim(ct, charge, m, t, None if word is None else word[:m])
    return _gdim(ct, charge, n, s, word)


def gdim_specht_weight(shape: MultiPartition, ct: CartanType, charge: Charge,
                       residues: Sequence[Residue]) -> LaurentPoly:
    """Graded dimension of the residue-sequence weight space of the Specht
    module: sum of q^deg(t) over t in Std(shape) with the given residue
    sequence."""
    n, s = lattice_state(shape, charge)
    if len(residues) != n:
        raise ValueError(f"residue word has length {len(residues)}, "
                         f"but the shape has {n} nodes")
    return _fill(ct, tuple(charge), n, s, tuple(residues))


def gdim_specht(shape: MultiPartition, ct: CartanType, charge: Charge) -> LaurentPoly:
    """Graded dimension of the full Specht module."""
    return _fill(ct, tuple(charge), *lattice_state(shape, charge), None)
