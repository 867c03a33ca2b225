"""fracmean: fractional moments and power means of complex-valued random variables.

The library evaluates E[Z**lam] and E[((1/n) sum Z_j**p)**(1/p)] for
heavy-tailed and upper-half-plane laws by three mutually checking routes:
closed forms, fractional-order differentiation of characteristic functions
(numerical quadrature), and Monte Carlo.
"""

from .gammafn import GammaPoleError, gamma
from .principal import (
    BranchDomainError,
    np_principal_pow,
    power_bound_constant,
    principal_log,
    principal_pow,
)
from .quad import (
    IntegralResult,
    NonConvergenceError,
    QuadraturePreconditionError,
    QuadratureConfig,
    integrate_singular_decaying,
)
from .distributions import (
    Cauchy,
    Empirical,
    MomentExistenceError,
    Poincare,
    ScaledT3,
    SupportError,
    TwoPoint,
    char_fn,
    char_fn_derivative,
    density,
    model_from_json,
    parse_params,
    sample,
    samples_to_csv,
)
from .moments import (
    MCConfig,
    MomentEstimate,
    PowerMeanSpec,
    Route,
    RouteUnavailableError,
    closed_moment,
    continuity_scan,
    frac_moment,
    frac_moment_mc,
    frac_moment_neg,
    frac_moment_pos,
    power_mean,
    power_mean_expectation,
    t3_product_identity,
)
from .characterize import (
    AlphaSequence,
    LambdaSequence,
    blaschke_divergence_check,
    distinguish,
    muntz_divergence_check,
)
from .bounds import (
    BoundReport,
    cancelling_pair_law,
    general_bound_check,
    geometric_slln_demo,
    half_plane_bound_check,
)

__version__ = "0.1.0"
