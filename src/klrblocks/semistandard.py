"""Semistandard tableaux of shape rho + lambda with row-constant segments.

Each of the l(rho) rectangle rows and l(lambda) overhang rows is a segment
carrying a single value; a tableau is an assignment of the values
1..l(rho)+l(lambda) to segments, one value each, with rectangle values and
overhang values increasing down the rows and the rectangle value of a row
preceding its overhang value."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Tuple

from .partitions import Partition, is_rectangle, rect_add


@dataclass(frozen=True)
class SemistandardTableauPlus:
    rho: Partition
    lam: Partition
    rho_values: Tuple[int, ...]  # value of rectangle row r, length l(rho)
    lam_values: Tuple[int, ...]  # value of overhang row r, length l(lam)

    def __post_init__(self):
        if not is_rectangle(self.rho):
            raise ValueError(f"{self.rho} is not a rectangle")
        if len(self.lam) > len(self.rho):
            raise ValueError(f"{self.lam} has more rows than {self.rho}")
        values = self.rho_values + self.lam_values
        ell = len(self.rho) + len(self.lam)
        if sorted(values) != list(range(1, ell + 1)):
            raise ValueError(f"values {values} are not a bijection onto 1..{ell}")
        if any(a >= b for a, b in zip(self.rho_values, self.rho_values[1:])):
            raise ValueError("rectangle values must increase down the rows")
        if any(a >= b for a, b in zip(self.lam_values, self.lam_values[1:])):
            raise ValueError("overhang values must increase down the rows")
        if any(self.rho_values[r] >= self.lam_values[r] for r in range(len(self.lam))):
            raise ValueError("rows must weakly increase left to right")

    @property
    def shape(self) -> Partition:
        return rect_add(self.rho, self.lam)

    @property
    def num_values(self) -> int:
        return len(self.rho_values) + len(self.lam_values)

    def fill(self) -> List[List[int]]:
        grid: List[List[int]] = []
        a = self.rho[0] if self.rho else 0
        for r, width in enumerate(self.shape, start=1):
            row = [self.rho_values[r - 1]] * a
            if width > a:
                row += [self.lam_values[r - 1]] * (width - a)
            grid.append(row)
        return grid


def row_initial_sstd(rho: Partition, lam: Partition) -> SemistandardTableauPlus:
    """Values 1..l along successive rows: rectangle row r then its overhang."""
    rho_values: List[int] = []
    lam_values: List[int] = []
    v = 0
    for r in range(len(rho)):
        v += 1
        rho_values.append(v)
        if r < len(lam):
            v += 1
            lam_values.append(v)
    return SemistandardTableauPlus(rho, lam, tuple(rho_values), tuple(lam_values))


def column_initial_sstd(rho: Partition, lam: Partition) -> SemistandardTableauPlus:
    """Values 1..l down successive columns: all rectangle rows first."""
    b = len(rho)
    return SemistandardTableauPlus(
        rho, lam,
        tuple(range(1, b + 1)),
        tuple(range(b + 1, b + len(lam) + 1)),
    )


def enumerate_sstd_plus(rho: Partition, lam: Partition) -> List[SemistandardTableauPlus]:
    """All row-constant semistandard fillings: interleavings of rectangle
    rows and overhang rows with the overhang of row r after its rectangle
    part."""
    b = len(rho)
    ell = b + len(lam)
    out: List[SemistandardTableauPlus] = []
    for rho_set in combinations(range(1, ell + 1), b):
        lam_vals = tuple(sorted(set(range(1, ell + 1)) - set(rho_set)))
        if all(rho_set[r] < lam_vals[r] for r in range(len(lam))):
            out.append(SemistandardTableauPlus(rho, lam, tuple(rho_set), lam_vals))
    return out


def adjacent_swap(T: SemistandardTableauPlus, k: int) -> SemistandardTableauPlus:
    """The action of s_k, swapping the values k and k+1; raises if the
    result is not semistandard."""
    def swap(vals: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(k + 1 if v == k else k if v == k + 1 else v for v in vals)

    return SemistandardTableauPlus(
        T.rho, T.lam, swap(T.rho_values), swap(T.lam_values)
    )
