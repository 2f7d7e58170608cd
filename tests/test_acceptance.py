"""End-to-end acceptance battery.

Eight criteria, each printed as a single pass/fail line.  Criteria 3-6
share one verification sweep over all type-C blocks with a zero-residue
node, kappa_c in {0, 1} and content height at most 8.
"""

from functools import lru_cache
from itertools import product
from math import comb, factorial

from klrblocks.cartan import CartanType
from klrblocks.graded import LaurentPoly, gdim_specht_weight
from klrblocks.morita import a_block, iter_bridges, verify_bridge
from klrblocks.partitions import conjugate, partitions_of
from klrblocks.tableaux import enumerate_standard

from oracles import (
    from_type_c,
    initial_tableau,
    rectangle_final_tableau,
    reduce_signature,
    residue_sequence,
    to_type_c,
)

A, C = CartanType.A, CartanType.C

QBAL = LaurentPoly({1: 1, -1: 1})


def report(num, name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}")
    assert ok, f"criterion {num} ({name}) failed"


@lru_cache(maxsize=None)
def sweep_reports():
    out = []
    for kappa_c in (0, 1):
        for b in iter_bridges(kappa_c, 8):
            out.append(verify_bridge(
                b, checks=("count", "graded", "kleshchev", "goodpath")
            ))
    return tuple(out)


def test_criterion_1_rectangle_closed_form():
    ok = True
    for kappa_c, a0 in product((0, 1, 2), (1, 2, 3, 4, 5, 6)):
        rho = ((a0,) * (kappa_c + a0),)
        charge = (kappa_c,)
        iword = residue_sequence(initial_tableau(rho), C, charge)
        m = a0 // 2  # (q + 1/q)^m = sum over j of C(m, j) q^(m - 2j)
        closed = LaurentPoly({m - 2 * j: comb(m, j) for j in range(m + 1)})
        ok = ok and gdim_specht_weight(rho, C, charge, iword) == closed
        tableaux = list(enumerate_standard(rho, C, charge, iword))
        degs = {t.order: t.degree for t in tableaux}
        top = [o for o, d in degs.items() if d == a0 // 2]
        bot = [o for o, d in degs.items() if d == -(a0 // 2)]
        ok = ok and top == [initial_tableau(rho).order]
        ok = ok and bot == [rectangle_final_tableau(a0, kappa_c + a0).order]
    report(1, "rectangle weight space is (q + 1/q)^(a0 // 2) with unique "
              "extreme tableaux", ok)


def test_criterion_2_six_square_degree_counts():
    rho = ((6,) * 6,)
    iword = residue_sequence(initial_tableau(rho), C, (0,))
    degs = [t.degree for t in enumerate_standard(rho, C, (0,), iword)]
    ok = degs.count(3) == 1 and degs.count(1) == 3
    report(2, "6x6 rectangle has 1 tableau of degree 3 and 3 of degree 1", ok)


def test_criterion_3_dimension_matching():
    ok = all(r["checks"]["count"]["pass"] for r in sweep_reports())
    report(3, "per-shape and block-total dimension counts match across the "
              "bridge", ok)


def test_criterion_4_graded_matching():
    ok = True
    for r in sweep_reports():
        g = r["checks"]["graded"]
        ok = ok and g["pass"] and g["shift"] == 0
    report(4, "graded generating functions match with shift 0", ok)


def test_criterion_5_kleshchev_transport():
    ok = all(r["checks"]["kleshchev"]["pass"] for r in sweep_reports())
    report(5, "the bridge maps the Kleshchev set onto the Kleshchev set", ok)


def test_criterion_6_good_node_factorization():
    ok = all(r["checks"]["goodpath"]["pass"] for r in sweep_reports())
    report(6, "every Kleshchev shape factors through the rectangle by cogood "
              "additions", ok)


def hook_count(p):
    if not p:
        return 1
    q = conjugate(p)
    out = factorial(sum(p))
    for r, width in enumerate(p):
        for c in range(width):
            out //= width - c + q[c] - r - 1
    return out


def test_criterion_7_oracle_equivalences():
    ok = True

    # filtered enumeration against filter-after-enumerate
    for n in range(1, 10):
        for p in partitions_of(n):
            all_t = list(enumerate_standard((p,), C, (0,)))
            by_word = {}
            for t in all_t:
                by_word.setdefault(residue_sequence(t, C, (0,)), set()).add(t.order)
            for iword, ref in by_word.items():
                direct = {t.order for t in enumerate_standard((p,), C, (0,), iword)}
                ok = ok and direct == ref
            ok = ok and sum(len(v) for v in by_word.values()) == len(all_t)

    # tableau counts against the hook length formula
    for n in range(1, 11):
        for p in partitions_of(n):
            ok = ok and sum(1 for _ in enumerate_standard((p,), C, (0,))) == hook_count(p)

    # signature reduction against brute-force pair deletion
    for length in range(11):
        for markers in product("ar", repeat=length):
            sig = tuple((m, (k, 1, 1)) for k, m in enumerate(markers, start=1))
            items = list(sig)
            changed = True
            while changed:
                changed = False
                for k in range(len(items) - 1):
                    if items[k][0] == "r" and items[k + 1][0] == "a":
                        del items[k:k + 2]
                        changed = True
                        break
            ok = ok and reduce_signature(sig) == tuple(items)

    # bridge round trips
    for kappa_c in (0, 1):
        for b in iter_bridges(kappa_c, 8):
            for bp in a_block(b):
                ok = ok and from_type_c(to_type_c(bp, b), b) == bp

    report(7, "filtered enumeration, hook counts, signature reduction and "
              "bridge round trips agree with independent oracles", ok)


def test_criterion_8_micro_block():
    from klrblocks.cartan import RootVector
    from klrblocks.morita import bridge

    r = verify_bridge(bridge(0, RootVector({0: 1, 1: 2})))
    checks = r["checks"]
    ok = r["pass"]
    ok = ok and [s["nu"] for s in checks["count"]["per_shape"]] == [[2, 1]]
    ok = ok and checks["count"]["per_shape"][0]["factorizable"] == 2
    ok = ok and checks["count"]["per_shape"][0]["rho_times_a"] == 2
    per = checks["graded"]["per_shape"][0]
    ok = ok and per["lhs"] == per["rhs"] == QBAL.to_pairs()
    ok = ok and checks["kleshchev"]["a_image"] == [[2, 1]]
    ok = ok and checks["kleshchev"]["c_set"] == [[2, 1]]
    report(8, "hand-derived micro block report is reproduced exactly", ok)
