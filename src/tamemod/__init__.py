"""Exact-arithmetic engine for graded modules over graph edge rings.

Computes the edge-contraction functor M -> M/(e - e') and its derived torsion
functor, decides membership in the Serre subcategory generated by tame
partition modules, and compiles tameness certificates across an edge split.
"""

from ._core import kernel_name
from .errors import CertificateError, ResourceCapError, StructuralError, ValidationError
from .exactalg import (
    EdgeRing,
    FreeElement,
    FreeModule,
    GradedPoly,
    groebner,
    normal_form,
    radical_member,
    syzygies,
)
from .gradedmod import (
    ModuleMap,
    PresentedModule,
    ShortExactSequence,
    annihilator,
    annihilator_ideal,
    cokernel,
    connecting_map,
    cyclic_submodule,
    direct_sum,
    f0,
    f1,
    image,
    induced_map_f0,
    induced_map_f1,
    is_tame_support,
    kernel,
    pullback,
    quotient_by_elements,
    six_term,
    submodule_from_elements,
)
from .graphsplit import (
    AlwaysTame,
    CoBlocked,
    DiscreteOnly,
    EdgeGraph,
    MaxBlockCount,
    SplitResult,
    TamenessPredicate,
    check_merge_closure,
    predicate_from_config,
    split_edge,
    tame_partitions,
)
from .partition import (
    Partition,
    discrete_partition,
    make_partition,
    merge_edges,
    partition_ideal,
    partition_module,
    related,
)
from .serre import (
    Certificate,
    ExtNode,
    GenNode,
    PropertyReport,
    QuotNode,
    SubNode,
    VerifyResult,
    ZeroNode,
    harness,
    random_certificate,
    transform,
    verify,
)
from .workspace import Workspace

__version__ = "0.1.0"
