"""lhdopt: efficient Latin hypercube designs.

Generation, metaheuristic optimization (SA, OA-based SA, multi-objective SA,
sliced SA, GA, swap-based PSO), exact orthogonal constructions, design
criteria (phi_p, maximum projection, column correlations), and a reproducible
benchmark harness.  See the README for the CLI.
"""

__version__ = "0.1.0"

from .criteria import (
    CriterionSpec,
    avg_abs_cor,
    avg_sq_cor,
    column_correlations,
    max_abs_cor,
    maxpro_psi,
    phi_p,
    weighted_objective,
)
from .constructions import (
    OrthogonalArray,
    catalog_names,
    good_oa_catalog,
    oa_to_lhd,
    olhd_butler2001,
    olhd_cioppa2007,
    olhd_lin2009,
    olhd_sun2010,
    olhd_ye1998,
    williams_transform,
)
from .design import (
    SliceStructure,
    ValidationReport,
    distance_matrix,
    exchange,
    is_slice_valid,
    make_slices,
    random_lhd,
    validate,
)
from .rng import RngStream
from .search import (
    OptimizerConfig,
    SearchResult,
    ga_search,
    lapso_search,
    oasa_search,
    sa_multiobj_search,
    sa_search,
    sliced_sa_search,
)

__all__ = [
    "CriterionSpec",
    "OptimizerConfig",
    "OrthogonalArray",
    "RngStream",
    "SearchResult",
    "SliceStructure",
    "ValidationReport",
    "avg_abs_cor",
    "avg_sq_cor",
    "catalog_names",
    "column_correlations",
    "distance_matrix",
    "exchange",
    "ga_search",
    "good_oa_catalog",
    "is_slice_valid",
    "lapso_search",
    "make_slices",
    "max_abs_cor",
    "maxpro_psi",
    "oa_to_lhd",
    "oasa_search",
    "olhd_butler2001",
    "olhd_cioppa2007",
    "olhd_lin2009",
    "olhd_sun2010",
    "olhd_ye1998",
    "phi_p",
    "random_lhd",
    "sa_multiobj_search",
    "sa_search",
    "sliced_sa_search",
    "validate",
    "weighted_objective",
    "williams_transform",
]
