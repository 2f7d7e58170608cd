"""Rebuild ``pinned.json``, the expected outputs of every workload, from
the package in ``src/``.  Run from the root of a checkout:

    python3 bench/pin.py

Only the commit that defines or corrects the benchmark runs this; every
other commit is checked against the data it wrote.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import querygen  # noqa: E402
from run import run_worker  # noqa: E402

CRYSTAL_CHECKS = ["dominance", "kleshchev", "goodpath"]
GRADED_MAX_N = 12  # count and graded pinned up to here
CRYSTAL_MAX_N = 14  # the other checks up to here
# Blocks with a dominance refinement witness, cumulative by height, as
# first measured on the seed code.
KNOWN_CENSUS = {0: {8: 1, 10: 4, 12: 11, 13: 17, 14: 26},
                1: {12: 1, 13: 2, 14: 4}}


def main() -> int:
    deadline = time.monotonic() + 3600
    # Every bridge up to CRYSTAL_MAX_N, in the order the sweeps yield them.
    entries: list = []
    by_key: dict = {}
    for checks, max_n in ((CRYSTAL_CHECKS, CRYSTAL_MAX_N),
                          (["count", "graded"], GRADED_MAX_N)):
        res = run_worker({"kind": "sweep", "kappa_c": [0, 1], "max_n": max_n,
                          "checks": checks}, deadline)
        keys = [o["key"] for o in res["outputs"]]
        if entries and keys != [e["key"] for e in entries if e["height"] <= max_n]:
            raise SystemExit(f"bridges up to height {max_n} are not a prefix "
                             f"of those up to {CRYSTAL_MAX_N}")
        for out in res["outputs"]:
            if out["key"] not in by_key:
                by_key[out["key"]] = {"key": out["key"], "kappa_c": out["kappa_c"],
                                      "height": out["height"]}
                entries.append(by_key[out["key"]])
            entry = by_key[out["key"]]
            if entry.get("block", out["digests"]["block"]) != out["digests"]["block"]:
                raise SystemExit(f"the block of {out['key']} differs between sweeps")
            entry.update(out["digests"])
        if "dominance" in checks:
            if not all(o["order_preserving"] for o in res["outputs"]):
                raise SystemExit("order preservation fails on some block")
            census = {}
            for kc in (0, 1):
                census[str(kc)] = {
                    str(h): sum(1 for o in res["outputs"]
                                if o["kappa_c"] == kc
                                and o["height"] <= h and o["witnesses"])
                    for h in range(1, max_n + 1)}
                for h, want in KNOWN_CENSUS[kc].items():
                    if census[str(kc)][str(h)] != want:
                        raise SystemExit(f"census kappa_c={kc} <= {h}: "
                                         f"{census[str(kc)][str(h)]} != {want}")

    pool = querygen.build_pool()
    res = run_worker({"kind": "queries", "argvs": pool}, deadline)
    bad = [q for q, code in zip(pool, res["exit_codes"]) if code != 0]
    if bad:
        raise SystemExit(f"{len(bad)} pool queries exit non-zero, e.g. {bad[0]}")

    pinned = {
        "sweeps": entries,
        "census": census,
        "queries": {"fingerprint": querygen.pool_fingerprint(pool),
                    "digests": res["outputs"]},
    }
    with open(os.path.join(HERE, "pinned.json"), "w") as f:
        json.dump(pinned, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"pinned {len(entries)} bridges and {len(pool)} queries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
