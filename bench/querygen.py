"""Seeded stream of valid single-question ``klrblocks`` CLI calls.

The generator is independent of the package under test: shapes, residues
and contents are computed here, so a change to the program cannot change
the queries it is asked.  A fixed *pool* of queries is built from
``POOL_SEED``; the expected stdout digest of every pool query is pinned in
``pinned.json``.  A run's ``--seed`` sets the order in which the pool is
asked.  Every run asks every pool query: a seeded subset made the tail
latency depend on which of the costliest queries the seed happened to
draw.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Sequence, Tuple

POOL_SEED = 20251111
PER_CELL = 50  # pool queries per (kind, size) cell

# kind -> the shape sizes it is asked at; chosen so that no single query
# costs more than a few milliseconds at the seed.
SIZES: Dict[str, Tuple[int, ...]] = {
    "block": (4, 5, 6, 7, 8, 9),
    "tableaux": (4, 5, 6, 7, 8, 9),
    "kleshchev": (5, 6, 8, 9, 11, 12),
    "gdim": (2, 3, 4, 5, 6, 7),
    "gdim_weight": (4, 5, 6, 7, 8, 9),
    "bridge": (6, 7, 8, 9, 10, 11),
}

Shape = Tuple[Tuple[int, ...], ...]


def _residue(type_: str, charge: Sequence[int], r: int, c: int, m: int) -> int:
    res = charge[m - 1] + c - r
    return abs(res) if type_ == "c" else res


def _corners(shape: Sequence[Sequence[int]]) -> List[Tuple[int, int, int]]:
    """Addable nodes (row, col, comp), 1-based."""
    out = []
    for m, p in enumerate(shape, start=1):
        for r in range(1, len(p) + 2):
            cur = p[r - 1] if r <= len(p) else 0
            if r == 1 or p[r - 2] > cur:
                out.append((r, cur + 1, m))
    return out


def _add(shape: List[List[int]], node: Tuple[int, int, int]) -> None:
    r, _, m = node
    p = shape[m - 1]
    if r > len(p):
        p.append(0)
    p[r - 1] += 1


def random_shape(rng: random.Random, n: int, level: int) -> Shape:
    """An l-partition of n grown by random corner additions."""
    shape: List[List[int]] = [[] for _ in range(level)]
    for _ in range(n):
        _add(shape, rng.choice(_corners(shape)))
    return tuple(tuple(p) for p in shape)


def random_residues(rng: random.Random, shape: Shape, type_: str,
                    charge: Sequence[int]) -> List[int]:
    """Residue sequence of a random standard tableau of the shape."""
    grown: List[List[int]] = [[] for _ in shape]
    out = []
    for _ in range(sum(map(sum, shape))):
        inside = [(r, c, m) for r, c, m in _corners(grown)
                  if r <= len(shape[m - 1]) and c <= shape[m - 1][r - 1]]
        node = rng.choice(inside)
        _add(grown, node)
        out.append(_residue(type_, charge, *node))
    return out


def content(shape: Shape, type_: str, charge: Sequence[int]) -> Dict[str, int]:
    counts: Dict[int, int] = {}
    for m, p in enumerate(shape, start=1):
        for r, width in enumerate(p, start=1):
            for c in range(1, width + 1):
                i = _residue(type_, charge, r, c, m)
                counts[i] = counts.get(i, 0) + 1
    return {str(i): counts[i] for i in sorted(counts)}


def fmt_shape(shape: Shape) -> str:
    return "/".join(",".join(map(str, p)) or "-" for p in shape)


def _fmt_ints(xs: Sequence[int]) -> str:
    return ",".join(map(str, xs))


def _type_and_charge(rng: random.Random) -> Tuple[str, List[int]]:
    """Level-one type C or level-two type A, the two settings of the
    bridge."""
    if rng.random() < 0.5:
        return "c", [rng.randrange(3)]
    return "a", [rng.randrange(4), rng.randrange(4)]


def make_query(rng: random.Random, kind: str, n: int) -> List[str]:
    if kind == "bridge":
        kappa_c = rng.randrange(3)
        while True:
            (nu,) = random_shape(rng, n, 1)
            if len(nu) > kappa_c:  # node (kappa_c + 1, 1) has residue 0
                return ["bridge", f"--kappa-c={kappa_c}",
                        f"--shape={_fmt_ints(nu)}"]
    type_, charge = _type_and_charge(rng)
    shape = random_shape(rng, n, len(charge))
    # "--opt=value": a value such as "-/2,1" must not read as an option
    head = [f"--type={type_}", f"--charge={_fmt_ints(charge)}",
            f"--shape={fmt_shape(shape)}"]
    if kind == "block":
        beta = json.dumps(content(shape, type_, charge), separators=(",", ":"))
        return ["block", *head[:2], f"--beta={beta}"]
    if kind == "kleshchev":
        return ["kleshchev", *head]
    if kind == "gdim":
        return ["gdim", *head]
    residues = _fmt_ints(random_residues(rng, shape, type_, charge))
    if kind == "gdim_weight":
        return ["gdim", *head, f"--weight={residues}"]
    if kind == "tableaux":
        return ["tableaux", *head, f"--residues={residues}", "--with-degrees"]
    raise ValueError(f"unknown query kind {kind!r}")


def cells() -> List[Tuple[str, int]]:
    return [(kind, n) for kind, sizes in SIZES.items() for n in sizes]


def build_pool(seed: int = POOL_SEED) -> List[List[str]]:
    """PER_CELL queries per cell, distinct within a cell where the cell has
    that many, in cell order."""
    rng = random.Random(seed)
    pool: List[List[str]] = []
    for kind, n in cells():
        seen: List[List[str]] = []
        for _ in range(20 * PER_CELL):
            q = make_query(rng, kind, n)
            if q not in seen:
                seen.append(q)
            if len(seen) == PER_CELL:
                break
        # a cell with fewer distinct queries repeats them
        pool += [seen[k % len(seen)] for k in range(PER_CELL)]
    return pool


def pool_fingerprint(pool: List[List[str]]) -> str:
    return hashlib.sha256(json.dumps(pool).encode()).hexdigest()[:16]


def draw(seed: int) -> List[int]:
    """Pool indices in the order a run asks them."""
    picks = list(range(len(cells()) * PER_CELL))
    random.Random(seed).shuffle(picks)
    return picks
