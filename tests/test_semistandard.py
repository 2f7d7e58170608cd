from itertools import permutations

import pytest

from klrblocks.semistandard import (
    SemistandardTableauPlus,
    adjacent_swap,
    column_initial_sstd,
    enumerate_sstd_plus,
    row_initial_sstd,
)


def brute_count(rho, lam):
    """Count semistandard fillings directly on the grid: row-constant
    segments, weakly increasing rows, strictly increasing columns."""
    a, b = (rho[0] if rho else 0), len(rho)
    ell = b + len(lam)
    shape = [a + (lam[r] if r < len(lam) else 0) for r in range(b)]
    count = 0
    for perm in permutations(range(1, ell + 1)):
        rho_vals, lam_vals = perm[:b], perm[b:]
        grid = [[rho_vals[r]] * a
                + ([lam_vals[r]] * (shape[r] - a) if r < len(lam) else [])
                for r in range(b)]
        ok = all(row == sorted(row) for row in grid)
        for c in range(max(shape)):
            col = [row[c] for row in grid if c < len(row)]
            ok = ok and col == sorted(set(col))
        count += ok
    return count


class TestDistinguished:
    def test_row_initial_values(self):
        T = row_initial_sstd((4, 4, 4, 4), (3, 2, 1))
        assert T.rho_values == (1, 3, 5, 7)
        assert T.lam_values == (2, 4, 6)

    def test_column_initial_values(self):
        T = column_initial_sstd((4, 4, 4, 4), (3, 2, 1))
        assert T.rho_values == (1, 2, 3, 4)
        assert T.lam_values == (5, 6, 7)

    def test_fill(self):
        T = row_initial_sstd((2, 2), (1,))
        assert T.fill() == [[1, 1, 2], [3, 3]]


class TestConstruction:
    def test_rejects_non_rectangle(self):
        with pytest.raises(ValueError):
            SemistandardTableauPlus((2, 1), (), (1, 2), ())

    def test_rejects_column_violation(self):
        with pytest.raises(ValueError):
            SemistandardTableauPlus((1, 1), (), (2, 1), ())

    def test_rejects_row_violation(self):
        with pytest.raises(ValueError):
            SemistandardTableauPlus((1, 1), (1,), (2, 3), (1,))


class TestEnumeration:
    def test_singleton(self):
        assert len(enumerate_sstd_plus((1,), ())) == 1

    def test_contains_distinguished(self):
        rho, lam = (4, 4, 4, 4), (3, 2, 1)
        all_t = enumerate_sstd_plus(rho, lam)
        assert row_initial_sstd(rho, lam) in all_t
        assert column_initial_sstd(rho, lam) in all_t

    def test_contains_worked_pair(self):
        S = row_initial_sstd((3, 3, 3), (2, 1))
        T = adjacent_swap(S, 4)
        all_t = enumerate_sstd_plus((3, 3, 3), (2, 1))
        assert S in all_t and T in all_t and S != T

    @pytest.mark.parametrize("rho,lam", [
        ((1,), ()), ((2, 2), (1,)), ((1, 1, 1), (1, 1)),
        ((3, 3, 3), (2, 1)), ((2, 2, 2, 2), (2, 2, 1)),
    ])
    def test_brute_force_oracle(self, rho, lam):
        assert len(enumerate_sstd_plus(rho, lam)) == brute_count(rho, lam)

    @pytest.mark.parametrize("rho,lam", [
        ((2, 2), (1,)), ((1, 1, 1), (1, 1)), ((3, 3, 3), (2, 1)),
    ])
    def test_orbit_connected(self, rho, lam):
        # every tableau reachable from the row-initial one by adjacent swaps
        start = row_initial_sstd(rho, lam)
        seen, frontier = {start}, [start]
        while frontier:
            cur = frontier.pop()
            for k in range(1, cur.num_values):
                try:
                    nxt = adjacent_swap(cur, k)
                except ValueError:
                    continue
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert seen == set(enumerate_sstd_plus(rho, lam))


class TestAdjacentSwap:
    def test_invalid_swap_raises(self):
        # swapping 1 and 2 in the row-initial tableau breaks row order
        S = row_initial_sstd((2, 2), (1,))
        with pytest.raises(ValueError):
            adjacent_swap(S, 1)
