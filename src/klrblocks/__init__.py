"""Graded-cellular and crystal combinatorics of cyclotomic KLR algebras in
types A-infinity and C-infinity, with the level-one C / level-two A block
bridge and its verification battery."""

from .cartan import (
    CartanType,
    Generator,
    NotASubroot,
    RootVector,
    bilinear_form,
    cartan_pairing,
    generator_degree,
)
from .crystal import (
    CogoodPathError,
    cogood_node,
    cogood_path,
    factors_through,
    good_node,
    i_signature,
    is_kleshchev,
    reduce_signature,
)
from .graded import (
    LaurentPoly,
    gdim_block,
    gdim_factorizable,
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
    tableau_to_type_c,
    to_type_c,
    verify_bridge,
)
from .partitions import (
    MultiPartition,
    Node,
    Partition,
    addable_nodes,
    as_partition,
    conjugate,
    content,
    dominates,
    enumerate_block,
    multipartitions_of,
    partitions_of,
    rect_add,
    rect_split,
    removable_nodes,
    residue,
)
from .semistandard import (
    SemistandardTableauPlus,
    column_initial_sstd,
    enumerate_sstd_plus,
    row_initial_sstd,
    segment_data,
    segments_well_separated,
    standardize,
)
from .tableaux import (
    StandardTableau,
    apply_word,
    column_initial_tableau,
    rectangle_final_tableau,
    degree,
    enumerate_standard,
    initial_tableau,
    permutation_word,
    residue_sequence,
    standard_by_residue,
    y_exponents,
)

__version__ = "0.1.0"
