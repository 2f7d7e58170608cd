"""Integer Laurent polynomials in q and graded dimension computations.

The graded dimension of a Specht module, or of one of its residue weight
spaces, comes from one recursion down the Young lattice to the empty
shape (_gdim), memoized for the life of the process; no tableau is
listed.  It walks lattice states and reads each step degree off the
package's one corner rule (partitions.corners), as the tableau walk and
the command line's Kleshchev test do.

The bridge's checks read two memoized walks on bit states instead: the
type-C walk (c_walk) on one Maya set down to the rectangle rho, and the
type-A walk (a_walk) on two Maya sets.  Each reads a step degree off two
bits of its state and holds a polynomial as one int in Q = 2^K, so a
removal is a shift and an add; only the report decodes the ints."""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cartan import CartanType, Charge, Residue
from .partitions import MultiPartition, Partition, corners, lattice_state, move, size


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
    adds the sub-sums of its removable corners (partitions.corners),
    shifted by their step degrees, into one coefficient map; with word,
    only those of residue word[-1], below them word[-2], and so on."""
    if not n:
        return LaurentPoly.one()
    i, rest = (None, None) if word is None else (word[-1], word[:-1])
    out: Dict[int, int] = {}
    for q, _, d in corners(ct, charge, n, s, False, i):
        for e, c in _gdim(ct, charge, n - 1, move(len(charge), s, q, False), rest).items():
            out[e + d] = out.get(e + d, 0) + c
    # every coefficient counts tableaux, so none is 0
    return LaurentPoly._owning(out)


def gdim_specht_weight(shape: MultiPartition, ct: CartanType, charge: Charge,
                       residues: Sequence[Residue]) -> LaurentPoly:
    """Graded dimension of the residue-sequence weight space of the Specht
    module: sum of q^deg(t) over t in Std(shape) with the given residue
    sequence."""
    if len(residues) != size(shape):
        raise ValueError(f"residue word has length {len(residues)}, "
                         f"but the shape has {size(shape)} nodes")
    return _gdim(ct, tuple(charge), *lattice_state(shape, charge), tuple(residues))


def gdim_specht(shape: MultiPartition, ct: CartanType, charge: Charge) -> LaurentPoly:
    """Graded dimension of the full Specht module."""
    return _gdim(ct, tuple(charge), *lattice_state(shape, charge), None)


def c_state(nu: Partition, kappa_c: int) -> Tuple[int, int]:
    """The type-C bit state (zero, s) of nu: bit zero + u of s holds
    u in M(nu, kappa_c) = {kappa_c + nu_r - r}, for u >= -zero; zero =
    kappa_c + |nu| + 1 puts every row and the mirror -t - 1 of every
    removable node's content t in the window."""
    zero = kappa_c + sum(nu) + 1
    s = (1 << zero + kappa_c - len(nu)) - 1  # the rows below the last
    for r, p in enumerate(nu, 1):
        s |= 1 << zero + kappa_c + p - r
    return zero, s


def _c_steps(zero: int, s: int) -> List[Tuple[int, int]]:
    """Each removal from the type-C bit state (zero, s), as (the new s, whose
    zero is zero - 1, step degree).  Removing a node of content t moves t in
    M to t - 1; its degree is b(-t - 1) - b(-t) for t > 0, with b membership
    in M, and 0 for t < 0.  A content-0 node is never removed: above rho,
    the only one removable is rho's corner, the walk's floor."""
    out = []
    movable = s & ~(s << 1) & ~1
    while movable:
        low = movable & -movable
        movable ^= low
        t = low.bit_length() - 1 - zero
        if t:
            d = (s >> zero - t - 1 & 1) - (s >> zero - t & 1) if t > 0 else 0
            out.append(((s ^ low ^ low >> 1) >> 1, d))
    return out


@lru_cache(maxsize=None)
def c_walk(K: int, zero: int, s: int) -> int:
    """The sum of Q^(deg + |nu| - |rho|), Q = 2^K, over the skew tableaux of
    nu/rho, for (zero, s) = c_state(nu, kappa_c) and rho the rectangle of
    nu's zero-residue nodes; every coefficient must be below Q, and K = 0
    counts the tableaux.  The memo is keyed by K, so widths never mix.

    This is the bridge's factorizable truncation.  With a_0 >= 1 and rho =
    (a_0^(kappa_c + a_0)) of content omega, a sub-diagram of nu of content
    omega holds all a_0 zero-residue nodes of nu, on one diagonal, so it
    holds rho's corner and is rho.  So the tableaux of nu whose first
    ht(omega) entries fill a sub-diagram of content omega sum to gdim(rho)
    times this walk."""
    total = 0
    for child, d in _c_steps(zero, s):
        total += c_walk(K, zero - 1, child) << K * (d + 1)
    return total or 1


def a_state(bp: Tuple[Partition, Partition], charge: Charge) -> int:
    """The level-two type-A bit state of bp: bit 2u + m - 1 holds u in
    M(bp_m, charge_m), for u >= 0 and m = 1, 2.  No component has more rows
    than its charge (as in a bridge's type-A block), so every u < 0 is in."""
    s = 0
    for m, (p, k) in enumerate(zip(bp, charge)):
        if len(p) > k:
            raise ValueError(f"{p} has more rows than its charge {k}")
        s |= ((1 << 2 * (k - len(p))) - 1) // 3 << m  # the rows below the last
        for r, x in enumerate(p, 1):
            s |= 1 << 2 * (k + x - r) + m
    return s


def _a_steps(s: int) -> List[Tuple[int, int]]:
    """Each removal from the type-A bit state s, as (state, step degree).
    Removing a t-node moves t in its component's set to t - 1.  From
    component 1 its degree is b2(t - 1) - b2(t), with b2 membership in the
    second set (the only t-corner below it); from component 2 it is 0."""
    out = []
    movable = s & ~(s << 2) & ~3
    while movable:
        low = movable & -movable
        movable ^= low
        p = low.bit_length() - 1
        d = 0 if p & 1 else (s >> p - 1 & 1) - (s >> p + 1 & 1)
        out.append((s ^ low ^ low >> 2, d))
    return out


@lru_cache(maxsize=None)
def a_walk(K: int, s: int) -> int:
    """The sum of Q^(deg + |bp|), Q = 2^K, over the standard tableaux of the
    bipartition bp with a_state s, as c_walk."""
    total = 0
    for child, d in _a_steps(s):
        total += a_walk(K, child) << K * (d + 1)
    return total or 1


def kronecker_pairs(x: int, K: int, low: int) -> List[List[int]]:
    """The [exponent, coefficient] pairs of the polynomial whose
    coefficients are the K-bit digits of x, digit 0 being q^low."""
    mask, out = (1 << K) - 1, []
    while x:
        c = x & mask
        if c:
            out.append([low, c])
        x >>= K
        low += 1
    return out
