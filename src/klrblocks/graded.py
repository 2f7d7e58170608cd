"""Integer Laurent polynomials in q and graded dimension computations.

Every graded dimension comes from one recursion over the sub-diagrams of
the shape (_gdim), memoized for the life of the process; no tableau is
listed.  The step degree of every removal comes from the corner scan that
the crystal layer also reads (partitions.signatures), and each memo miss
builds one polynomial."""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cartan import CartanType, Charge, Residue, RootVector
from .partitions import (
    MultiPartition,
    content,
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
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def q(cls, exponent: int = 1) -> "LaurentPoly":
        return cls({exponent: 1})

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

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative power")
        out = LaurentPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def bar(self) -> "LaurentPoly":
        """The bar involution q -> 1/q."""
        return LaurentPoly({-e: c for e, c in self._coeffs.items()})

    def eval_at_1(self) -> int:
        return sum(self._coeffs.values())

    def shifted(self, k: int) -> "LaurentPoly":
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def items(self) -> ItemsView[int, int]:
        """A read-only view of the (exponent, coefficient) pairs."""
        return self._coeffs.items()

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def to_pairs(self) -> List[List[int]]:
        return [[e, c] for e, c in sorted(self._coeffs.items())]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[int]]) -> "LaurentPoly":
        return cls((e, c) for e, c in pairs)

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
          omega: Optional[RootVector]) -> LaurentPoly:
    """Sum of q^deg(t) over t in Std(mp).  Removing the node holding the
    largest entry of t leaves a tableau of a sub-diagram, and deg(t) is its
    degree plus the step degree of that node, which depends only on the
    shape and the node; so the sum is a recursion over sub-diagrams,
    memoized for the life of the process.  Each miss reads every removal's
    step degree from one corner scan (partitions.step_degrees) and adds
    the shifted sub-sums into one coefficient map.  With word (of length
    |mp|), the node holding k must have residue word[k-1]; with omega, the
    sub-diagram holding the first ht(omega) entries must have content
    omega, and from there on the sum is the untruncated one."""
    n = size(mp)
    if omega is not None and n <= omega.height:
        if n < omega.height or content(ct, charge, mp) != omega:
            return LaurentPoly.zero()
        return _gdim(ct, charge, mp, word, None)
    if n == 0:
        return LaurentPoly.one()
    i, rest = (None, None) if word is None else (word[-1], word[:-1])
    out: Dict[int, int] = {}
    for node, d in step_degrees(mp, ct, charge, i):
        sub = _gdim(ct, charge, remove_node(mp, node), rest, omega)
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
    return _gdim(ct, tuple(charge), shape, tuple(residues), None)


def gdim_specht(shape: MultiPartition, ct: CartanType, charge: Charge) -> LaurentPoly:
    """Graded dimension of the full Specht module."""
    return _gdim(ct, tuple(charge), shape, None, None)


def gdim_factorizable(nu: MultiPartition, ct: CartanType, charge: Charge,
                      omega: RootVector) -> LaurentPoly:
    """Sum of q^deg(t) over the tableaux t of shape nu whose first
    ht(omega) entries fill a sub-diagram of content omega."""
    return _gdim(ct, tuple(charge), nu, None, omega)
