"""Mixed semi-supervised regression toolkit.

Estimators that blend a supervised fit with a pool-informed semi-supervised
one (for least squares, general monotone links, and over-parameterized
interpolators), closed-form and data-driven selection of the mixing ratio,
asymptotic limits, and a reproducible Monte Carlo experiment harness.
"""

from .asymptotics import (
    AsymptoticSetting,
    LimitReport,
    finite_m_limits,
    interp_limits,
    ols_limits,
)
from .core import (
    LabeledSet,
    MixRisk,
    PopulationMoments,
    ResampleSpec,
    UnlabeledPool,
    build_moments,
    center_pool,
    gaussian_sampler,
    pool_sampler,
    resample_block,
    seeded_rng,
)
from .errors import (
    DataValidationError,
    LinkValidationError,
    MsslError,
    RegimeError,
    ResampleBudgetError,
    SingularMatrixError,
)
from .glm import (
    DdotRiskModel,
    GlmFitReport,
    GlmPoolStats,
    GlmProblem,
    GlmSample,
    estimate_noise_glm,
    fit_loss_mixed_ols,
    fit_ols_semisupervised,
    fit_ols_supervised,
    mix_linear,
)
from .interp import (
    InterpRiskTerms,
    InterpSample,
    NoiseSignal,
    fit_min_norm,
    fit_min_variance,
    interp_risk_terms,
    iterate_sigma_tau,
)
from .io import (
    read_labeled_csv,
    read_pool_binary,
    read_pool_csv,
    write_pool_binary,
)
from .links import (
    LinkSpec,
    custom_link,
    elu_link,
    identity_link,
    link_by_name,
)
from .ols import OlsPoolModel
from .simulate import (
    BetaMode,
    CovarianceSpec,
    ExperimentConfig,
    ExperimentResult,
    PairRow,
    PairSummary,
    ResultRow,
    constant_beta,
    gen_sigma,
    load_config,
    preset_names,
    random_beta,
    run_experiment,
    summarize_pairwise,
    write_result_csv,
)

__version__ = "0.1.0"
