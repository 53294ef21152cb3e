"""Split-signature null-Kahler geometry toolkit.

Constructs (++--) four-metrics from closed-form potentials, verifies
anti-self-duality and the parallel-spinor conditions by two independent
curvature pipelines, checks the spectral-parameter Lax pair, and runs
the dispersionless-KP / Einstein-Weyl symmetry-reduction pipeline with
residual-based acceptance checks.
"""

from .expressions import EvaluationError, Expr, ExpressionError, parse
from .fields import (
    Chart,
    DomainError,
    ExcludedBand,
    ExprField,
    GridSpec,
    OrderOverflowError,
    SampledField,
    grid_to_csv,
    sample_to_grid,
)
from .sampling import Box, SamplePlan, halton
from .spinors import (
    Spinor2,
    TwoFormValue,
    bispinor_to_vector,
    contract,
    hodge_star_values,
    raise_lower,
    sd_asd_split,
    sigma_basis,
    vector_to_bispinor,
)
from .geometry import (
    CoFrame,
    DegeneracyError,
    FormField,
    MetricField,
    dkp_coframe,
    dkp_metric,
    exterior_derivative,
    hodge_star,
    metric_from_coframe,
    nk_coframe,
    nk_metric,
    wedge,
)
from .curvature import (
    CurvatureReport,
    NullKahlerReport,
    RawCurvature,
    cartan_report,
    check_null_kahler,
    coordinate_curvature,
    curvature_two_forms,
    decompose_curvature,
    oracle_report,
    path_agreement,
    spin_connection,
)
from .nk_system import (
    LaxFields,
    NKSolution,
    box_operator,
    commutator_sweep,
    example_family,
    induced_f,
    lax_commutator,
    lax_fields,
    residual_nk1,
    residual_nk2,
)
from .dkp import (
    EWStructure,
    JonesTodReduction,
    MonopolePair,
    build_metric,
    ew_from_u,
    ew_residual,
    hyperkahler_specialize,
    jones_tod_reduce,
    monopole_from_w,
    monopole_residual,
    residual_heqn,
    residual_lindkp,
    sd_two_forms,
    sigma11_rhs,
    symmetry_w,
)
from .evolver import (
    BlowUpError,
    BoundarySource,
    CFLError,
    DKPState,
    Grid2D,
    cfl_bound,
    dkp_evolve,
    manufactured_reference,
    mms_convergence,
    reference_run_error,
    uniform_reference,
)

__version__ = "0.1.0"
