"""Integer dimension calculus for stratified moduli of abelian varieties.

The package computes, with exact integer arithmetic: set-partition
combinatorics on block-id tuples and canonical intersection-matrix types;
dimensions and boundary codimensions of Siegel and unitary moduli; strata
of the repeated-factor locus with their minimal codimension; the
partition-indexed symplectic subgroup calculus with its maximum (a
completion search at every g, checked on every matrix type up to g = 8);
and a planner for complete families of indecomposable abelian varieties
with prescribed connected monodromy group.
"""

__version__ = "0.1.0"

from .errors import DimensionCalculusError, Disagreement
from .hecke_groups import (
    MaxProductDim,
    gamma_dim,
    gamma_gamma_codim,
    max_product_dim,
    max_product_dim_by_pairs,
    product_dim,
    product_dim_from_matrix,
)
from .moduli import (
    BoundaryCodim,
    GroupExpr,
    SpAtom,
    SUFormAtom,
    siegel_boundary_codim,
    torelli_codim,
    unitary_boundary_codim,
)
from .partitions import (
    IntersectionMatrix,
    bell_number,
    enumerate_matrix_types,
    enumerate_proper_partitions,
    meet,
)
from .planner import (
    FamilySpec,
    KodairaReport,
    PlanReport,
    SymplecticFamily,
    UnitaryFamily,
    derived_mt,
    kodaira_budget,
    plan_family,
    realize_group,
)
from .strata import (
    DecompositionShape,
    MinCodim,
    Stratum,
    mdec_codim_fixedpart,
    mdec_codim_unitary,
    strata_of_shape,
    strata_of_unitary,
)
from .verify import CHECKS, CaseRecord, VerificationRun, run_check

__all__ = [
    "__version__",
    # errors
    "DimensionCalculusError", "Disagreement",
    # partitions
    "IntersectionMatrix", "bell_number", "enumerate_proper_partitions", "enumerate_matrix_types", "meet",
    # moduli
    "BoundaryCodim", "GroupExpr", "SpAtom", "SUFormAtom", "siegel_boundary_codim",
    "unitary_boundary_codim", "torelli_codim",
    # strata
    "Stratum", "DecompositionShape", "MinCodim", "strata_of_shape", "strata_of_unitary",
    "mdec_codim_fixedpart", "mdec_codim_unitary",
    # hecke groups
    "MaxProductDim", "gamma_dim", "product_dim", "product_dim_from_matrix",
    "max_product_dim", "max_product_dim_by_pairs", "gamma_gamma_codim",
    # planner
    "SymplecticFamily", "UnitaryFamily", "FamilySpec", "PlanReport", "KodairaReport",
    "plan_family", "derived_mt", "realize_group", "kodaira_budget",
    # verification
    "CHECKS", "CaseRecord", "VerificationRun", "run_check",
]
