"""Mixed semi-supervised regression toolkit.

Estimators that blend a supervised fit with a pool-informed semi-supervised
one (for least squares, general monotone links, and over-parameterized
interpolators), closed-form and data-driven selection of the mixing ratio,
asymptotic limits, and a reproducible Monte Carlo experiment harness.
"""

from .asymptotics import (
    AsymptoticSetting,
    LimitReport,
    eta_from_ols_terms,
    finite_m_limits,
    interp_limits,
    ols_limits,
)
from .core import (
    LabeledSet,
    PopulationMoments,
    ResampleSpec,
    UnlabeledPool,
    build_moments,
    center_pool,
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
    GlmFitReport,
    GlmPoolStats,
    GlmProblem,
    GlmSample,
    alpha_M_dispersion,
    alpha_dot_glm,
    clip_alpha,
    estimate_noise_glm,
    fit_glm_loss_mixed,
    fit_glm_semisupervised,
    fit_glm_supervised,
    r_dot_glm_curve,
)
from .interp import (
    InterpRiskTerms,
    InterpSample,
    NoiseSignalInterp,
    alpha_star_interp,
    fit_min_norm,
    fit_min_variance,
    gaussian_sampler,
    interp_eta,
    interp_risk_terms,
    interp_terms_spiked_closed_form,
    iterate_sigma_tau,
    pool_sampler,
)
from .io import (
    read_labeled_csv,
    read_pool_binary,
    read_pool_csv,
    write_pool_binary,
)
from .links import (
    LinkReport,
    LinkSpec,
    custom_link,
    elu_link,
    identity_link,
    link_by_name,
    link_eval,
    validate_link,
)
from .ols import (
    DdotRiskModel,
    NoiseSignalOls,
    OlsPoolModel,
    OlsSample,
    RiskCurve,
    alpha_star_finite_m,
    alpha_star_ols,
    fit_finite_m_semisupervised,
    fit_loss_mixed_ols,
    fit_ols_semisupervised,
    fit_ols_supervised,
    mix_linear,
    noise_signal_ols,
    r_dot_curve,
)
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
