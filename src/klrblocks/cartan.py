"""Root data of types A-infinity and C-infinity.

Residue labels are plain integers: all of Z in type A, the non-negative
integers in type C.  Validity is checked at the point of use so that both
types share the same arithmetic.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum
from typing import Dict, Iterable, Tuple

Residue = int
Charge = Tuple[Residue, ...]


class CartanType(Enum):
    A = "a"
    C = "c"

    # members are singletons compared by identity, so the identity hash
    # agrees with equality and skips the Python-level Enum.__hash__ on
    # every memo lookup keyed by the type
    __hash__ = object.__hash__

    def check_labels(self, labels: Iterable[Residue]) -> None:
        """Refuse labels (a charge, a residue word, a root vector's residues)
        with one that is not a label of this type; the error names the
        first such label."""
        if self is CartanType.C:
            for i in labels:
                if i < 0:
                    raise ValueError(f"residue {i} is not a valid type-{self.name} label")


class NotASubroot(ValueError):
    pass


class RootVector:
    """Finitely supported residue -> multiplicity map (an element of the
    positive cone of the root lattice).  Immutable; zero entries are never
    stored."""

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries: Mapping[Residue, int] | None = None):
        d: Dict[Residue, int] = {}
        for i, m in (entries or {}).items():
            if m < 0:
                raise ValueError(f"negative multiplicity {m} at residue {i}")
            if m:
                d[i] = m
        self._entries = d
        self._hash = hash(frozenset(d.items()))

    @classmethod
    def _of_counts(cls, counts: Dict[Residue, int]) -> "RootVector":
        """Wrap a dict of positive counts the caller has just built and
        hands over, with no check and no copy."""
        v = object.__new__(cls)
        v._entries = counts
        v._hash = hash(frozenset(counts.items()))
        return v

    def __getitem__(self, i: Residue) -> int:
        return self._entries.get(i, 0)

    # __getitem__ answers every int, so the legacy sequence iteration it
    # would enable never ends; iterate .items() instead
    __iter__ = None

    def items(self):
        return sorted(self._entries.items())

    def labels(self):
        """The residues of non-zero multiplicity, in no set order."""
        return self._entries.keys()

    @property
    def height(self) -> int:
        return sum(self._entries.values())

    def __sub__(self, other: "RootVector") -> "RootVector":
        d = dict(self._entries)
        for i, m in other._entries.items():
            new = d.get(i, 0) - m
            if new < 0:
                raise NotASubroot(f"not a subroot: multiplicity at residue {i}")
            if new:
                d[i] = new
            else:
                d.pop(i, None)
        # every entry left is positive, and the copy is ours alone
        return RootVector._of_counts(d)

    def __eq__(self, other) -> bool:
        return isinstance(other, RootVector) and self._entries == other._entries

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._entries:
            return "RootVector()"
        body = " + ".join(
            (f"{m}*a{i}" if m != 1 else f"a{i}") for i, m in self.items()
        )
        return f"RootVector<{body}>"

    def to_json(self) -> Dict[str, int]:
        return {str(i): m for i, m in self.items()}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> "RootVector":
        if not isinstance(data, dict) or not all(type(m) is int for m in data.values()):
            raise ValueError(f"a root vector is a JSON object of integer "
                             f"multiplicities, got {data!r}")
        # every entry is read in one loop; a repeated residue is refused
        # before any negative multiplicity, which is named in key order
        d: Dict[Residue, int] = {}
        for key, m in data.items():
            i = int(key)
            if i in d:
                first = next(k for k in data if int(k) == i)
                raise ValueError(f"keys {first!r} and {key!r} both name residue {i}")
            d[i] = m
        if d and min(d.values()) < 1:
            for i, m in d.items():
                if m < 0:
                    raise ValueError(f"negative multiplicity {m} at residue {i}")
            d = {i: m for i, m in d.items() if m}
        return cls._of_counts(d)
