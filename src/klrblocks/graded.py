"""Integer Laurent polynomials in q and graded dimension computations.

Every graded dimension comes from one recursion over the interval of the
Young lattice between a floor sub-diagram and the shape (_gdim), memoized
for the life of the process; no tableau is listed.  The Specht dimensions
walk down to the empty floor; the factorizable truncation of the bridge
walks down to the rectangle rho and multiplies by gdim(rho).  The step
degree of every removal comes from the package's one corner scan
(partitions.step_degrees), which also gives the tableau walk its step
degrees and the crystal layer its good and cogood nodes, and each memo
miss builds one polynomial."""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cartan import CartanType, Charge, Residue
from .partitions import (
    MultiPartition,
    contains,
    remove_node,
    size,
    step_degrees,
)


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
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = dict(self._coeffs)
        for e, c in other._coeffs.items():
            d[e] = d.get(e, 0) + c
        return LaurentPoly(d)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = dict(self._coeffs)
        for e, c in other._coeffs.items():
            d[e] = d.get(e, 0) - c
        return LaurentPoly(d)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        d: Dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(d)

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

    def __bool__(self) -> bool:
        return bool(self._coeffs)

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
def _gdim(ct: CartanType, charge: Charge, mp: MultiPartition,
          word: Optional[Tuple[Residue, ...]],
          floor: MultiPartition) -> LaurentPoly:
    """Sum of q^deg over the tableaux of the skew shape mp/floor, each
    node's step degree read in the full shape just after it is added; with
    the empty floor, the sum of q^deg(t) over t in Std(mp).  Removing the
    node holding the largest entry leaves a tableau of a smaller skew shape
    and takes that node's step degree, which depends only on the shape and
    the node, off the degree; so the sum is a recursion over the interval
    [floor, mp], memoized for the life of the process and keyed by its
    floor.  A node inside floor is never removed, and a floor not inside mp
    gives 0.  Each miss reads every removal's step degree from one corner
    pass (partitions.step_degrees) and adds the shifted sub-sums into one
    coefficient map.  With word, the node holding the largest entry must
    have residue word[-1], the next word[-2], and so on.

    For the bridge this walk is the factorizable truncation.  Let nu lie in
    a type-C block with a_0 >= 1 zero-residue nodes, rho = (a_0^(kappa_c +
    a_0)) and omega the content of rho.  A sub-diagram of nu of content
    omega holds a_0 zero-residue nodes, hence all of nu's, which lie on one
    diagonal; so it contains the corner (kappa_c + a_0, a_0) and with it
    rho, and having |omega| = |rho| nodes it is rho.  So the tableaux of nu
    whose first ht(omega) entries fill a sub-diagram of content omega are
    those whose first |rho| entries fill rho, and their sum is gdim(rho)
    times this walk with floor rho."""
    if mp == floor:
        return LaurentPoly.one()
    i, rest = (None, None) if word is None else (word[-1], word[:-1])
    out: Dict[int, int] = {}
    for node, j, d in step_degrees(mp, ct, charge)[1]:
        if (i is not None and j != i) or contains(floor, node):
            continue
        sub = _gdim(ct, charge, remove_node(mp, node), rest, floor)
        for e, c in sub.items():
            out[e + d] = out.get(e + d, 0) + c
    return LaurentPoly(out)


def gdim_specht_weight(shape: MultiPartition, ct: CartanType, charge: Charge,
                       residues: Sequence[Residue]) -> LaurentPoly:
    """Graded dimension of the residue-sequence weight space of the Specht
    module: sum of q^deg(t) over t in Std(shape) with the given residue
    sequence."""
    if len(residues) != size(shape):
        raise ValueError(f"residue word has length {len(residues)}, "
                         f"but the shape has {size(shape)} nodes")
    return _gdim(ct, tuple(charge), shape, tuple(residues), ((),) * len(shape))


def gdim_specht(shape: MultiPartition, ct: CartanType, charge: Charge) -> LaurentPoly:
    """Graded dimension of the full Specht module."""
    return _gdim(ct, tuple(charge), shape, None, ((),) * len(shape))


def gdim_factorizable(nu: MultiPartition, ct: CartanType, charge: Charge,
                      rho: MultiPartition) -> LaurentPoly:
    """Sum of q^deg(t) over the tableaux t of shape nu whose first |rho|
    entries fill the sub-diagram rho: gdim(rho) times the sum over the
    skew tableaux of nu/rho (0 if rho is not inside nu)."""
    if len(rho) != len(nu):
        raise ValueError(f"rho {rho} and nu {nu} differ in level")
    charge = tuple(charge)
    return gdim_specht(rho, ct, charge) * _gdim(ct, charge, nu, None, rho)
