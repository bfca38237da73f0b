"""Numerics for measurable Banach bundles over finite atomic measure spaces.

The package models a bundle as one finite-dimensional normed fiber per atom,
integrates pointwise norms into p-norms on spaces of sections, estimates
moduli of convexity by multi-start projected descent, evaluates dual pairings
and operator norms in closed form, and checks which abstract norms on
sections arise from a pointwise norm.
"""

from .measure import (
    MeasureSpace,
    ScalarField,
    as_exponent,
    conjugate_exponent,
    lp_norm,
)
from .norms import (
    InnerProductNorm,
    NormSpec,
    PolyhedralMaxNorm,
    PolytopeGaugeNorm,
    WeightedLpNorm,
    norm_spec_from_config,
)
from .convexity import (
    DEFAULT_EPS_GRID,
    ModulusCurve,
    SearchBudget,
    modulus_curve,
    modulus_grid_estimate_2d,
)
from .bundles import (
    Bundle,
    Fiber,
    Section,
    module_action,
    pointwise_norm,
    section_lp_norm,
    section_modulus_curve,
)
from .duality import (
    ReflexivityReport,
    check_reflexivity_diagram,
    holder_maximizer,
    integrated_pairing,
    operator_norm,
    pairing_field,
)
from .criterion import (
    AbstractModuleNorm,
    AtomicMeasureTriple,
    induced_norm,
    measure_inequality_report,
    mixed_max_norm,
    mixed_sum_norm,
    reconstruct_pointwise_norm,
    restriction_additivity_check,
    subset_sums,
    sup_over_atoms_norm,
    weak_star_continuity_check,
)
from .generators import InstanceRecipe, bundles_from_recipe, random_bundle
from .serialize import (
    ConfigError,
    bundle_digest,
    bundle_from_config,
    bundle_to_config,
    canonical_json,
)
from .suites import REQUIRED_TAGS, SUITE_TAGS, TheoremReport, run_suites

__version__ = "0.1.0"

__all__ = [
    "MeasureSpace", "ScalarField", "as_exponent", "conjugate_exponent",
    "lp_norm",
    "NormSpec", "InnerProductNorm", "WeightedLpNorm", "PolyhedralMaxNorm",
    "PolytopeGaugeNorm", "norm_spec_from_config",
    "DEFAULT_EPS_GRID", "ModulusCurve", "SearchBudget", "modulus_curve",
    "modulus_grid_estimate_2d",
    "Bundle", "Fiber", "Section", "module_action",
    "pointwise_norm", "section_lp_norm", "section_modulus_curve",
    "ReflexivityReport", "check_reflexivity_diagram", "holder_maximizer",
    "integrated_pairing", "operator_norm", "pairing_field",
    "AbstractModuleNorm", "AtomicMeasureTriple", "induced_norm",
    "measure_inequality_report", "mixed_max_norm", "mixed_sum_norm",
    "reconstruct_pointwise_norm", "restriction_additivity_check",
    "subset_sums", "sup_over_atoms_norm", "weak_star_continuity_check",
    "InstanceRecipe", "bundles_from_recipe", "random_bundle",
    "ConfigError", "bundle_digest", "bundle_from_config", "bundle_to_config",
    "canonical_json",
    "REQUIRED_TAGS", "SUITE_TAGS", "TheoremReport", "run_suites",
]
