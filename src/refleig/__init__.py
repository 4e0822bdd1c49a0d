"""Exact invariant theory of finite pseudo-reflection groups.

The package computes Molien series, fundamental invariants, and harmonic
polynomials for finite orthogonal matrix groups with cyclotomic entries, and
certifies irreducibility of the eigenspace representations of the associated
motion group by exact rank and commutant computations.
"""

__version__ = "0.1.0"

from .cyclotomic import Cyclotomic, E, I_UNIT, Rational, cyc
from .groups import (
    GroupElement,
    RMatrix,
    ReflectionGroup,
    builtin,
    closure,
    g_inverse,
    g_multiply,
    is_pseudo_reflection,
    is_pseudo_reflection_group,
    load_group_file,
)
from .polynomials import (
    Poly,
    act,
    diff_apply,
    invariant_subspace,
    jacobian_independent,
    reynolds,
)
from .series import (
    DegreeVector,
    SeriesQ,
    extract_degrees,
    harmonic_hilbert,
    molien,
    series_identity_check,
)
from .harmonics import (
    FundamentalInvariants,
    HarmonicSpace,
    compute_harmonics,
    find_fundamental_invariants,
    verify_product_decomposition,
)
from .eigenspace import (
    DualSample,
    FormalExp,
    InducedModel,
    Orbit,
    PlaneWaveSum,
    Weight,
    commutant_dimension,
    dual_cyclic_check,
    dual_sample_elements,
    eigen_check,
    eigenspace_action,
    equivariance_check,
    evaluation_rank,
    intertwiner,
    is_generic,
    model_act,
    orbit,
    random_generic_weight,
    stabilizer_order,
    zero_weight,
)
from .report import PipelineConfig, render_json, render_text, verify_all
