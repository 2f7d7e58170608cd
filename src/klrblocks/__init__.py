"""Graded-cellular and crystal combinatorics of cyclotomic KLR algebras in
types A-infinity and C-infinity, with the level-one C / level-two A block
bridge and its verification battery."""

from .cartan import CartanType, NotASubroot, RootVector
from .crystal import is_kleshchev
from .graded import (
    LaurentPoly,
    gdim_specht,
    gdim_specht_weight,
)
from .morita import (
    BlockBridge,
    BridgeError,
    a_block,
    bridge,
    c_block,
    from_type_c,
    iter_bridges,
    verify_bridge,
)
from .partitions import (
    MultiPartition,
    Node,
    Partition,
    as_partition,
    conjugate,
    content,
    enumerate_block,
    multipartitions_of,
    partitions_of,
)
from .tableaux import StandardTableau, enumerate_standard

__version__ = "0.1.0"
