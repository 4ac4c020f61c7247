"""Gradient-only saddle-point escape: negative-curvature search, accelerated
and stochastic escape loops, analytic landscapes, and verification tools."""

from types import ModuleType as _ModuleType

from .core import (
    AdditiveNoiseOracle,
    AlgorithmError,
    Array,
    CountingOracle,
    DivergenceError,
    GradientOracle,
    ParameterError,
    RngStream,
    SmoothnessSpec,
    StochasticOracle,
    Trace,
    TraceRecord,
    gaussian_sample,
    uniform_ball_sample,
)
from .ncfind import (
    NCDescentParams,
    NCOutcome,
    NCParams,
    lemma_decrease_bound,
    nc_find,
)
from .ancgd import ANCParams, ancgd_run
from .stochastic import SNCParams, sgd_nc_run, snc_find
from .drivers import BaselineParams, pagd_run, pgd_nc_run, pgd_run, psgd_run
from .schedules import derive_anc_params, derive_nc_params, derive_snc_params
from .testbed import (
    Landscape,
    RandomQuadraticNoiseOracle,
    SaddleInfo,
    VERIFY_IDS,
    get_landscape,
    with_noise,
)
from .verify import (
    StationarityVerdict,
    VerifyReport,
    classify,
    dense_hessian,
    fd_quadform,
    run_verify,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    TrialResult,
    derive_params_for,
    run_dimension_scaling,
    run_experiment,
)

__version__ = "0.1.0"

# The exports: every public name the imports above bind, less the submodules.
__all__ = [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
