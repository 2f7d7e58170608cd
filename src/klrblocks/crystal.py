"""Crystal combinatorics: Kleshchev l-partitions.

Kashiwara's signature rule reads the good and cogood i-nodes off the
reduced i-signature, the word a..a r..r left when every removable i-node
followed by an addable one is cancelled, in (component, row) order.  For
any type and level (the command line) no signature is built: the good
nodes are read off the corner rule on lattice states (partitions.corners),
where a corner's degree d counts the addable minus removable i-nodes
below it.  A removable i-node stays (is normal) iff no stretch below it
holds more a's than r's: the stretch to the foot holds d more, and the
one to just above a lower removable i-node of degree d', d - d' + 1 more.
So, read bottom first, it is normal when d is below the running minimum
of its residue, which starts at 1; the good node, the leftmost r, is the
last normal one read.  (The bridge reads its shapes' good and cogood
nodes off bit states of its own: morita.)"""

from __future__ import annotations

from typing import Dict, Tuple

from .cartan import CartanType, Charge
from .partitions import MultiPartition, corners, lattice_state


_KLESHCHEV: Dict[Tuple[CartanType, Charge, int], bool] = {}


def _kleshchev(ct: CartanType, charge: Charge, mp: MultiPartition) -> bool:
    """Follow good removals from mp's lattice state to the empty one (True),
    a state with no good node (False) or one in the memo _KLESHCHEV, and
    record the answer there for every state on the way (each lane of s
    holds n + 1 bits, so s fixes n); a loop, for any depth.  Each step
    removes the good node of the first normal node's residue, bottom first,
    and goes on from the corner rule's child state."""
    n, s = lattice_state(mp, charge)
    chain, key = [], (ct, charge, s)
    while key not in _KLESHCHEV:
        chain.append(key)
        pick = None  # the first normal node's residue; the state without its good node
        for _, i, d, child in reversed(corners(ct, charge, n, s, False)):
            if d < 1 and pick is None or i == pick and d < low:
                pick, good, low = i, child, d
        if pick is None:
            answer = not n
            break
        n, s = n - 1, good
        key = (ct, charge, s)
    else:
        answer = _KLESHCHEV[key]
    _KLESHCHEV.update(dict.fromkeys(chain, answer))
    return answer


def is_kleshchev(mp: MultiPartition, ct: CartanType, charge: Charge) -> bool:
    """True iff mp is reachable from the empty l-partition by good-node
    additions.  The Kleshchev l-partitions form the crystal component of
    the empty one, which is closed under every e_i, so removing any one
    good node keeps mp in it or out of it: no search is needed."""
    return _kleshchev(ct, tuple(charge), mp)
