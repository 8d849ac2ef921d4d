import json
import math
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from mssl import (
    CovarianceSpec,
    DataValidationError,
    ExperimentConfig,
    MixRisk,
    UnlabeledPool,
    constant_beta,
    elu_link,
    gaussian_sampler,
    gen_sigma,
    identity_link,
    load_config,
    pool_sampler,
    preset_names,
    random_beta,
    run_experiment,
    seeded_rng,
    summarize_pairwise,
    write_result_csv,
)
from mssl.simulate import _label, _t_tail


# -- covariance generation ------------------------------------------------------


def test_gen_sigma_block_example():
    sigma = gen_sigma(CovarianceSpec("block_equicorrelated", 4, blocks=2, rho=0.9))
    block = np.array([[1.0, 0.9], [0.9, 1.0]])
    expected = np.block(
        [[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]]
    )
    np.testing.assert_allclose(sigma, expected)


def test_gen_sigma_rho_zero_is_identity():
    sigma = gen_sigma(CovarianceSpec("block_equicorrelated", 6, blocks=3, rho=0.0))
    np.testing.assert_array_equal(sigma, np.eye(6))


def test_gen_sigma_spiked_example():
    sigma = gen_sigma(
        CovarianceSpec("spiked_diagonal", 100, spike_fraction=0.8, minor_scale=0.02)
    )
    d = np.diag(sigma)
    assert np.all(d[:80] == 1.0)
    assert np.all(d[80:] == 0.02)
    assert np.count_nonzero(sigma - np.diag(d)) == 0


def test_gen_sigma_trace_rescaling():
    sigma = gen_sigma(
        CovarianceSpec("block_equicorrelated", 10, blocks=5, rho=0.5, target_trace=25.0)
    )
    assert np.trace(sigma) == pytest.approx(25.0)


def test_gen_sigma_invalid_rho():
    with pytest.raises(DataValidationError):
        gen_sigma(CovarianceSpec("block_equicorrelated", 4, blocks=2, rho=-1.0))


def test_gen_sigma_indivisible_blocks():
    with pytest.raises(DataValidationError):
        gen_sigma(CovarianceSpec("block_equicorrelated", 5, blocks=2, rho=0.5))


@pytest.mark.parametrize("kind", ["identity", "custom", "spiked"])
def test_gen_sigma_unknown_kind(kind):
    with pytest.raises(DataValidationError, match=f"unknown covariance kind '{kind}'"):
        gen_sigma(CovarianceSpec(kind, 2))


# -- dataset draws: a design sampler, then _label (the presets' draw) ---------------


def test_draw_noiseless():
    sigma = np.eye(3)
    rng = seeded_rng(1)
    ds, beta = _label(gaussian_sampler(sigma, 5)(rng), constant_beta(1.5), elu_link(), 0.0, rng)
    np.testing.assert_array_equal(beta, np.full(3, 1.5))
    np.testing.assert_allclose(ds.Y, elu_link().g(ds.X @ beta), atol=1e-12)


def test_draw_constant_beta_value():
    rng = seeded_rng(2)
    _, beta = _label(gaussian_sampler(np.eye(2), 3)(rng), constant_beta(1.5), identity_link(), 1.0,
                     rng)
    np.testing.assert_array_equal(beta, [1.5, 1.5])


def test_draw_deterministic_per_seed():
    sigma = gen_sigma(CovarianceSpec("block_equicorrelated", 4, blocks=2, rho=0.5))
    ra, rb = seeded_rng(3), seeded_rng(3)
    a, _ = _label(gaussian_sampler(sigma, 6)(ra), random_beta(1.0), identity_link(), 2.0, ra)
    b, _ = _label(gaussian_sampler(sigma, 6)(rb), random_beta(1.0), identity_link(), 2.0, rb)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.Y, b.Y)


def test_draw_sample_covariance_matches_sigma():
    sigma = gen_sigma(CovarianceSpec("block_equicorrelated", 4, blocks=2, rho=0.7))
    rng = seeded_rng(4)
    ds, _ = _label(gaussian_sampler(sigma, 100000)(rng), constant_beta(0.0), identity_link(), 0.0,
                   rng)
    emp = ds.X.T @ ds.X / ds.n
    # entrywise within 3 standard errors (var of x_i x_j products ~ 1+rho^2)
    assert np.max(np.abs(emp - sigma)) < 3 * 2.0 / math.sqrt(ds.n)


def test_draw_from_pool_rows():
    pool = UnlabeledPool(seeded_rng(5).standard_normal((40, 3)))
    rng = seeded_rng(6)
    ds, _ = _label(pool_sampler(pool, 10)(rng), constant_beta(1.0), identity_link(), 1.0, rng)
    for row in ds.X:
        assert np.any(np.all(np.isclose(pool.Z, row), axis=1))


# -- pairwise summaries ----------------------------------------------------------------


def test_pairwise_symmetric_zero():
    s = summarize_pairwise([-1.0, 0.0, 1.0])
    assert s.mean == 0.0
    assert s.t == 0.0
    assert s.p == 1.0


def test_pairwise_degenerate_constant():
    s = summarize_pairwise([0.5, 0.5, 0.5])
    assert s.p == 0.0
    assert s.t == math.inf


def test_pairwise_degenerate_zero():
    s = summarize_pairwise([0.0, 0.0])
    assert s.p == 1.0


def test_pairwise_needs_two():
    with pytest.raises(DataValidationError):
        summarize_pairwise([1.0])


def test_pairwise_calibration_under_null():
    # p-values under the null should reject at roughly the nominal rate
    rejections = 0
    for k in range(200):
        d = seeded_rng(7, k).standard_normal(1000)
        if summarize_pairwise(d).p < 0.05:
            rejections += 1
    assert abs(rejections / 200 - 0.05) < 0.03


def test_pairwise_matches_scipy_oracle():
    from scipy.stats import ttest_rel

    rng = seeded_rng(8)
    a, b = rng.standard_normal(50), rng.standard_normal(50)
    ours = summarize_pairwise(a - b)
    ref = ttest_rel(a, b)
    assert ours.t == pytest.approx(ref.statistic, rel=1e-12)
    assert ours.p == pytest.approx(ref.pvalue, rel=1e-12)


_TAIL_DFS = [1, 2, 3, 5, 9, 19, 29, 59, 99, 299, 999, 1999, 4999, 9999]


@pytest.mark.parametrize("df", _TAIL_DFS)
def test_t_tail_matches_scipy_stdtr(df):
    from scipy.special import stdtr

    # |t| from 1e-3 to 500, plus a dense run just past the switch to the
    # fraction in x, x = (a + 1) / (a + 2.5), where forward evaluation loses most
    switch = math.sqrt(1.5 * df / (0.5 * df + 1.0))
    t = np.concatenate([np.geomspace(1e-3, 500.0, 400), np.linspace(switch, 1.5 * switch, 200)])
    ours = np.array([_t_tail(df, float(v)) for v in t])
    ref = stdtr(df, -t)
    normal = ref >= 1e-300  # below that scipy's tail is subnormal or 0
    np.testing.assert_allclose(ours[normal], ref[normal], rtol=1e-12, atol=0.0)
    assert np.all(ours[~normal] < 1e-299)
    if df >= 299:  # these tails pass through 1e-300 before |t| = 500
        assert ref[normal].min() < 1e-280


@pytest.mark.parametrize("t", np.geomspace(1e-12, 1e-3, 19))
def test_t_tail_near_zero_matches_closed_forms(t):
    # scipy's stdtr is off here (stdtr(1, -1e-8) = 0.4999999952568 against
    # the exact 0.4999999968169), so the oracles are the closed forms
    assert _t_tail(1, t) == pytest.approx(math.atan2(1.0, t) / math.pi, rel=1e-15)
    assert _t_tail(2, t) == pytest.approx(0.5 * (1.0 - t / math.sqrt(2.0 + t * t)), rel=1e-15)


@pytest.mark.parametrize("df", _TAIL_DFS)
def test_t_tail_edge_cases(df):
    assert _t_tail(df, 0.0) == _t_tail(df, -0.0) == 0.5  # so p = 1 exactly
    assert _t_tail(df, 1e200) == _t_tail(df, -math.inf) == 0.0  # t^2 overflows: 0, not nan
    assert math.isnan(_t_tail(df, math.nan))
    for t in (1e-7, 0.3, 2.0, 40.0):
        assert _t_tail(df, -t) == _t_tail(df, t)


# -- experiment engine -------------------------------------------------------------------


def _tiny_ols_cfg(**kw):
    base = dict(
        preset="ols_constant_beta",
        k=24,
        seed=5,
        n=30,
        p_rule="fixed:10",
        sigma2_grid=(9.0,),
        pool_size=1500,
        resample_blocks=40,
        alpha_grid_size=11,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_preset_names_complete():
    assert preset_names() == (
        "ols_constant_beta",
        "ols_random_beta",
        "glm_elu",
        "glm_alpha_sweep",
        "interp_fixed",
        "interp_growth",
    )


def test_unknown_preset_rejected():
    with pytest.raises(DataValidationError):
        run_experiment(ExperimentConfig(preset="nope"))


def test_row_count_conservation():
    cfg = _tiny_ols_cfg(sigma2_grid=(1.0, 9.0))
    res = run_experiment(cfg)
    n_est = 8  # preset default estimator set
    assert len(res.rows) == n_est * 2
    assert len(res.paired) == (n_est * (n_est - 1) // 2) * 2
    assert all(r.se >= 0 for r in res.rows)
    assert all(0.0 <= r.p <= 1.0 for r in res.paired)
    assert all(r.k_effective == cfg.k for r in res.rows)


@pytest.fixture
def cpus(monkeypatch):
    """Sets how many CPUs the replication engine sees, and lets it fork for
    loops of any length, so that it splits the replications over that many
    processes on any machine."""
    import mssl.simulate

    monkeypatch.setattr(mssl.simulate, "_FORK_MIN_S", 0.0)
    return lambda count: monkeypatch.setattr(mssl.simulate, "_cpu_count", lambda: count)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_bit_reproducibility_and_thread_independence(cpus):
    # replications run in 1, 2 or 3 processes, twice in one: the same bits
    results = []
    for count in (1, 1, 2, 3):
        cpus(count)
        results.append(run_experiment(_tiny_ols_cfg()))
    for res in results[1:]:
        assert res.rows == results[0].rows
        assert res.paired == results[0].paired
        curve = res.extras["alpha_curve"][9.0]
        assert curve["mean_r"].tobytes() == results[0].extras["alpha_curve"][9.0]["mean_r"].tobytes()
    _no_child_left()


def test_identical_estimators_have_zero_diff():
    cfg = _tiny_ols_cfg(k=2, estimators=("supervised", "linear_mixed(0.0)"))
    res = run_experiment(cfg)
    pair = res.paired[0]
    assert pair.mean_diff == 0.0
    assert pair.p == 1.0


def test_fixed_alpha_zero_matches_supervised():
    cfg = _tiny_ols_cfg(estimators=("supervised", "linear_mixed(0.0)", "loss_mixed(0.0)"))
    res = run_experiment(cfg)
    by_name = {r.estimator: r.mean_error for r in res.rows}
    assert abs(by_name["linear_mixed(0.0)"] - by_name["supervised"]) <= 1e-12
    assert abs(by_name["loss_mixed(0.0)"] - by_name["supervised"]) <= 1e-10


def test_fixed_alpha_one_matches_semisupervised():
    cfg = _tiny_ols_cfg(estimators=("semisupervised", "linear_mixed(1.0)"))
    res = run_experiment(cfg)
    by_name = {r.estimator: r.mean_error for r in res.rows}
    assert abs(by_name["linear_mixed(1.0)"] - by_name["semisupervised"]) <= 1e-12


def test_error_metric_nonnegative():
    res = run_experiment(_tiny_ols_cfg())
    assert all(r.mean_error >= 0.0 for r in res.rows)


def test_ols_random_smoke():
    cfg = ExperimentConfig(
        preset="ols_random_beta",
        k=16,
        seed=3,
        n_grid=(40,),
        pool_size=2000,
        resample_blocks=40,
    )
    res = run_experiment(cfg)
    assert {r.estimator for r in res.rows} == {
        "supervised", "semisupervised", "linear_mixed_opt",
        "linear_mixed_est", "linear_mixed_est_tau",
    }
    assert res.grid_name == "n"
    eta = res.extras["eta_measured"][40]
    assert eta["supervised"] == 1.0


def test_glm_elu_smoke():
    cfg = ExperimentConfig(
        preset="glm_elu",
        k=6,
        seed=11,
        sigma2_grid=(9.0,),
        pool_size=400,
        resample_blocks=30,
        rep_blocks=20,
    )
    res = run_experiment(cfg)
    assert len(res.rows) == 7
    assert all(r.k_effective >= 5 for r in res.rows)
    assert 0.0 < res.extras["alpha_dot_oracle"][9.0] <= 1.0


@pytest.mark.parametrize("b_mean, raises", [(0.05, False), (1.0, True)])
def test_alpha_curve_ratio_follows_the_clipping_policy(b_mean, raises):
    # rows (a, b, c) of r(alpha) = a alpha^2 + b alpha + c, with gain -b/2 and
    # cost a + b/2: a mean gain of -0.025 with an SE of 0.04 is within its noise
    # and clips the ratio to 0; one of -0.5 with an SE of 0.0008 used to be
    # clipped too, and now raises
    from mssl.simulate import _alpha_curve

    b = b_mean + (0.01 if raises else 0.5) * np.resize([1.0, -1.0], 40)
    coeffs = np.column_stack([np.ones(40), b, np.ones(40)])
    alphas = np.linspace(0.0, 1.0, 11)
    if raises:
        with pytest.raises(DataValidationError, match="gain"):
            _alpha_curve(coeffs, alphas)
    else:
        curve = _alpha_curve(coeffs, alphas)
        assert curve["argmin_cont"] == 0.0 and curve["argmin_grid"] == 0.0


def test_glm_elu_negative_formula_ratio_is_clipped(monkeypatch):
    # with the ratio clipped to 0 the linear mixes equal the supervised fit
    import mssl.glm

    # a raw ratio of -0.25 whose negative gain lies within its noise
    monkeypatch.setattr(mssl.glm.GlmPoolStats, "risk",
                        lambda self, sigma2: MixRisk(0.0, -0.25, 1.25, se_gain=1.0))
    cfg = ExperimentConfig(
        preset="glm_elu",
        k=4,
        seed=11,
        sigma2_grid=(9.0,),
        pool_size=400,
        resample_blocks=30,
        rep_blocks=20,
        estimators=("supervised", "linear_mixed_est", "linear_mixed_opt"),
    )
    res = run_experiment(cfg)
    assert res.extras["alpha_dot_oracle"][9.0] == 0.0
    errors = {r.estimator: r.mean_error for r in res.rows}
    assert errors["linear_mixed_est"] == errors["supervised"]
    assert errors["linear_mixed_opt"] == errors["supervised"]


def test_interp_fixed_smoke():
    cfg = ExperimentConfig(
        preset="interp_fixed",
        k=12,
        seed=2,
        n=20,
        p_rule="fixed:40",
        sigma2_grid=(4.0,),
        pool_size=500,
        resample_blocks=40,
    )
    res = run_experiment(cfg)
    assert len(res.rows) == 5
    assert res.extras["dominance_min_slack"][4.0] >= -1e-10


def test_csv_schema(tmp_path):
    res = run_experiment(_tiny_ols_cfg(k=4))
    main, pairs = write_result_csv(res, tmp_path)
    lines = main.read_text().splitlines()
    assert lines[0] == "preset,estimator,grid_name,grid_value,mean_error,se,k_effective"
    assert len(lines) == 1 + len(res.rows)
    plines = pairs.read_text().splitlines()
    assert plines[0] == "estimator_a,estimator_b,grid_value,mean_diff,se_diff,t,p"
    assert len(plines) == 1 + len(res.paired)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[experiment]\n"
        "preset = ols_constant_beta\n"
        "k = 8\n"
        "seed = 42\n"
        "sigma2_grid = 1, 9\n"
        "pool_size = 1000\n"
        "estimators = supervised, semisupervised\n"
    )
    cfg = load_config(path)
    assert cfg.preset == "ols_constant_beta"
    assert cfg.k == 8
    assert cfg.sigma2_grid == (1.0, 9.0)
    assert cfg.estimators == ("supervised", "semisupervised")


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\npreset = glm_elu\nbogus = 1\n")
    with pytest.raises(DataValidationError):
        load_config(path)


def test_config_validation():
    with pytest.raises(DataValidationError):
        ExperimentConfig(preset="glm_elu", k=1)
    with pytest.raises(DataValidationError):
        ExperimentConfig(preset="glm_elu", sigma2_grid=())
    # an empty estimator list used to stand for the preset's default set
    with pytest.raises(DataValidationError, match="estimators must be nonempty"):
        ExperimentConfig(preset="glm_elu", estimators=())
    with pytest.raises(DataValidationError):
        ExperimentConfig(preset="glm_elu", eval_cov="other")
    # a misspelt design source used to draw Gaussian designs silently
    with pytest.raises(DataValidationError, match="x_source"):
        ExperimentConfig(preset="glm_elu", x_source="gausian")


@pytest.mark.parametrize("preset, field, value", [
    ("glm_elu", "x_source", "pool"),
    ("glm_alpha_sweep", "x_source", "gaussian"),
    ("glm_elu", "eval_cov", "true"),
    ("glm_alpha_sweep", "eval_cov", "pool"),
    ("glm_elu", "alpha_grid_size", 3),
    ("ols_random_beta", "alpha_grid_size", 11),
    ("interp_fixed", "alpha_grid_size", 11),
    ("ols_constant_beta", "rep_blocks", 20),
    ("glm_alpha_sweep", "rep_blocks", 20),
    ("interp_growth", "rep_blocks", 20),
    ("ols_random_beta", "n", 7),
    ("interp_growth", "n", 30),
])
def test_config_field_the_preset_does_not_read_is_rejected(preset, field, value):
    # each of these configs used to run, and exit 0, with the field ignored
    with pytest.raises(DataValidationError, match=f"{preset} does not read {field}$"):
        ExperimentConfig(preset=preset, **{field: value})


def test_config_fields_are_accepted_where_the_preset_reads_them():
    ExperimentConfig(preset="ols_constant_beta", alpha_grid_size=11, eval_cov="true",
                     x_source="gaussian")
    ExperimentConfig(preset="interp_growth", eval_cov="pool", x_source="pool")
    ExperimentConfig(preset="glm_elu", rep_blocks=20)
    with pytest.raises(DataValidationError, match="alpha_grid_size"):
        ExperimentConfig(preset="ols_constant_beta", alpha_grid_size=1)


@pytest.mark.parametrize("field", ["rep_blocks", "resample_blocks"])
def test_block_budget_below_two_is_rejected(field, tmp_path):
    # a block pass needs 2 usable blocks; one block used to fail in every
    # replication, after the oracle statistics had been computed
    with pytest.raises(DataValidationError, match=field):
        ExperimentConfig(preset="glm_elu", **{field: 1})
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text(f"[experiment]\npreset = glm_elu\n{field} = 1\n")
    with pytest.raises(DataValidationError, match=field):
        load_config(cfgfile)
    ExperimentConfig(preset="glm_elu", **{field: 2})


@pytest.mark.parametrize("preset, fields, name", [
    ("ols_constant_beta", dict(n=0, pool_size=0), "n"),
    ("ols_constant_beta", dict(n=-3), "n"),
    ("interp_fixed", dict(pool_size=-1), "pool_size"),
    ("ols_random_beta", dict(n_grid=(0, 100)), "n_grid"),
])
def test_sizes_below_one_are_rejected(preset, fields, name, tmp_path):
    # a zero n or pool_size used to run on the preset's default size
    with pytest.raises(DataValidationError, match=f"{name} must be >= 1"):
        ExperimentConfig(preset=preset, **fields)
    lines = [f"{key} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}"
             for key, v in fields.items()]
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text("\n".join(["[experiment]", f"preset = {preset}", *lines]) + "\n")
    with pytest.raises(DataValidationError, match=f"{name} must be >= 1"):
        load_config(cfgfile)
    ExperimentConfig(preset="ols_random_beta", n_grid=(1, 100), pool_size=1)


def test_gaussian_x_source_switch():
    res_pool = run_experiment(_tiny_ols_cfg(k=8))
    res_iid = run_experiment(_tiny_ols_cfg(k=8, x_source="gaussian"))
    by_pool = {r.estimator: r.mean_error for r in res_pool.rows}
    by_iid = {r.estimator: r.mean_error for r in res_iid.rows}
    assert by_pool["supervised"] != by_iid["supervised"]  # different draws
    assert by_iid["supervised"] > 0


def test_true_eval_cov_switch():
    res = run_experiment(_tiny_ols_cfg(k=8, eval_cov="true"))
    assert all(r.mean_error >= 0 for r in res.rows)


# -- estimator names, Newton convergence, pinned preset numbers -----------------------

# one small configuration per preset; the golden values in
# data/preset_golden.json were recorded with these at seed 3
_SMALL = {
    "ols_constant_beta": dict(
        k=6, n=30, p_rule="fixed:10", sigma2_grid=(1.0, 25.0), pool_size=1500,
        resample_blocks=30, alpha_grid_size=11,
    ),
    "ols_random_beta": dict(k=6, n_grid=(30, 40), pool_size=1500, resample_blocks=30),
    "glm_elu": dict(
        k=3, sigma2_grid=(1.0, 25.0), pool_size=400, resample_blocks=20, rep_blocks=15
    ),
    "glm_alpha_sweep": dict(k=3, pool_size=400, resample_blocks=20),
    "interp_fixed": dict(
        k=6, n=20, p_rule="fixed:40", sigma2_grid=(1.0, 25.0), pool_size=500,
        resample_blocks=20,
    ),
    "interp_growth": dict(k=6, n_grid=(20, 30), pool_size=500, resample_blocks=20),
}
_GOLDEN_PATH = Path(__file__).parent / "data" / "preset_golden.json"


def _small_cfg(preset, **kw):
    return ExperimentConfig(preset=preset, seed=3, **{**_SMALL[preset], **kw})


def test_small_configs_cover_every_preset():
    from mssl.simulate import _ROWS

    assert tuple(_SMALL) == preset_names()
    assert tuple(_ROWS) == preset_names()


# a valid value of each optional config field, to set where a row lacks it
_FIELD_VALUES = {
    "n": 30, "n_grid": (30,), "p_rule": "fixed:5", "sigma2_grid": (1.0,), "pool_size": 100,
    "x_source": "pool", "eval_cov": "pool", "estimators": ("supervised",), "rep_blocks": 10,
    "alpha_grid_size": 11,
}


@pytest.mark.parametrize("preset", list(_SMALL))
def test_config_resolves_to_its_preset_row(preset):
    import dataclasses

    from mssl.simulate import _ROWS

    row = _ROWS[preset]
    cfg = ExperimentConfig(preset=preset)
    assert {name: getattr(cfg, name) for name in row.defaults} == row.defaults
    # the CLI applies its flags this way, which validates the resolved config again
    assert dataclasses.replace(cfg) == cfg
    assert dataclasses.replace(cfg, pool_size=123).pool_size == 123
    optional = [f.name for f in dataclasses.fields(cfg) if f.default is None]
    assert set(_FIELD_VALUES) == set(optional)
    for name in optional:
        if name in row.defaults:
            continue
        assert getattr(cfg, name) is None
        with pytest.raises(DataValidationError, match=f"{preset} does not read {name}$"):
            dataclasses.replace(cfg, **{name: _FIELD_VALUES[name]})


@pytest.mark.parametrize("rule, limit", [
    ("ratio:2.0", (2.0, 1.6)), ("ratio:3.0", (3.0, 2.4)), ("ratio:1.2", None), ("fixed:40", None),
])
def test_growth_eta_limit_follows_the_p_rule(rule, limit):
    # gamma = p / n from a ratio rule, and gamma_tilde = 0.8 gamma, the
    # spiked share of p; no limit exists outside 1 < gamma_tilde < gamma
    from mssl import AsymptoticSetting, interp_limits

    res = run_experiment(_small_cfg("interp_growth", k=3, p_rule=rule))
    if limit is None:
        assert "eta_limit" not in res.extras
    else:
        gamma, gamma_tilde = limit
        assert res.extras["eta_limit"] == pytest.approx(interp_limits(AsymptoticSetting(
            gamma=gamma, gamma_tilde=gamma_tilde, sigma2=25.0, tau2=1.0, c2=25.0,
        )).eta_inf, rel=1e-12)


@pytest.mark.parametrize("preset", ["interp_fixed", "interp_growth"])
def test_interpolator_presets_report_each_grid_point(preset):
    from mssl.simulate import _ROWS

    cfg = _small_cfg(preset, k=3)
    res = run_experiment(cfg)
    grid = getattr(cfg, f"{_ROWS[preset].sweep}_grid")
    for key in ("terms", "alpha_oracle", "dominance_min_slack", "eta_measured"):
        assert list(res.extras[key]) == list(grid), key
    assert all(slack >= -1e-10 for slack in res.extras["dominance_min_slack"].values())
    for eta in res.extras["eta_measured"].values():
        assert set(eta) == set(cfg.estimators) and eta["min_norm"] == 1.0


@pytest.mark.parametrize("preset", list(_SMALL))
def test_unknown_estimator_rejected_before_any_replication(preset, monkeypatch):
    import mssl.simulate

    def no_reps(*args, **kwargs):
        raise AssertionError("replications ran before the estimator names were checked")

    monkeypatch.setattr(mssl.simulate, "_run_reps", no_reps)
    with pytest.raises(DataValidationError, match="bogus"):
        run_experiment(_small_cfg(preset, estimators=("bogus",)))
    from mssl.cli import main

    assert main(["simulate", "--preset", preset, "-k", "2", "--estimators", "bogus"]) == 2


@pytest.mark.parametrize(
    "name", ["loss_mixed(1.5)", "loss_mixed(-0.1)", "loss_mixed(nan)", "linear_mixed(inf)"]
)
def test_fixed_ratio_out_of_range_rejected_before_any_replication(name, monkeypatch):
    import mssl.simulate

    def no_reps(*args, **kwargs):
        raise AssertionError("replications ran before the fixed ratio was checked")

    monkeypatch.setattr(mssl.simulate, "_run_reps", no_reps)
    with pytest.raises(DataValidationError, match="ratio must be finite"):
        run_experiment(_small_cfg("ols_constant_beta", estimators=("supervised", name)))
    from mssl.cli import main

    argv = ["simulate", "--preset", "ols_constant_beta", "-k", "4",
            "--estimators", f"supervised,{name}"]
    assert main(argv) == 2


def test_aborted_run_names_the_preset_and_each_failure_class():
    from mssl import SingularMatrixError
    from mssl.simulate import _run_reps

    def rep(i):
        if i % 2:
            raise SingularMatrixError("singular")
        if i == 0:
            raise np.linalg.LinAlgError("not positive definite")
        return i

    cfg = ExperimentConfig(preset="ols_constant_beta", k=4)
    with pytest.raises(RuntimeError) as info:
        _run_reps(cfg, rep, 4)
    assert str(info.value) == (
        "ols_constant_beta: 3/4 replications failed (LinAlgError: 1, SingularMatrixError: 2)"
    )


def test_failures_within_budget_are_dropped_in_order():
    from mssl import SingularMatrixError
    from mssl.simulate import _run_reps

    def rep(i):
        if i == 7:
            raise SingularMatrixError("singular")
        return i

    out = _run_reps(ExperimentConfig(preset="glm_elu", k=20), rep, 20)
    assert out == [i for i in range(20) if i != 7]


# -- replications in forked workers ---------------------------------------------


def _index_and_pid(i):
    return i, os.getpid()


_ENGINE_CFG = ExperimentConfig(preset="glm_elu", k=2)


def test_run_reps_gives_each_residue_to_one_process(cpus):
    from mssl.simulate import _run_reps

    cpus(3)
    out = _run_reps(_ENGINE_CFG, _index_and_pid, 8)
    assert [i for i, _ in out] == list(range(8))
    pids = [{pid for i, pid in out if i % 3 == r} for r in range(3)]
    # residue 0 runs here, residues 1 and 2 in one forked worker each
    assert pids[0] == {os.getpid()}
    assert len(pids[1]) == len(pids[2]) == 1 and len(set.union(*pids)) == 3
    _no_child_left()


def test_run_reps_with_fewer_replications_than_cpus(cpus):
    from mssl.simulate import _run_reps

    cpus(3)
    out = _run_reps(_ENGINE_CFG, _index_and_pid, 2)
    assert [i for i, _ in out] == [0, 1]
    assert out[0][1] == os.getpid() != out[1][1]
    _no_child_left()


def test_run_reps_drops_failures_in_every_share(cpus):
    from mssl import SingularMatrixError
    from mssl.simulate import _run_reps

    cpus(3)
    failing = (3, 7, 11)  # residues 0, 1 and 2 mod 3; 3 of 60 is the 5% budget

    def rep(i):
        if i in failing:
            raise SingularMatrixError("singular")
        return i

    assert _run_reps(_ENGINE_CFG, rep, 60) == [i for i in range(60) if i not in failing]
    _no_child_left()


@pytest.mark.parametrize("count", [1, 2, 3])
def test_run_reps_abort_message_is_the_same_for_any_worker_count(cpus, count):
    from mssl import SingularMatrixError
    from mssl.simulate import _run_reps

    cpus(count)

    def rep(i):
        if i % 4 == 1:
            raise SingularMatrixError("singular")
        if i % 5 == 0:
            raise np.linalg.LinAlgError("not positive definite")
        return i

    with pytest.raises(RuntimeError) as info:
        _run_reps(_ENGINE_CFG, rep, 20)
    assert str(info.value) == (
        "glm_elu: 8/20 replications failed (LinAlgError: 3, SingularMatrixError: 5)"
    )
    _no_child_left()


@pytest.mark.parametrize("count", [1, 2, 3])
def test_run_reps_raises_the_lowest_unexpected_error(cpus, count):
    from mssl import SingularMatrixError
    from mssl.simulate import _run_reps

    cpus(count)

    def rep(i):
        if i == 2:
            raise SingularMatrixError("dropped, not raised")
        if i == 5:  # a worker's share for 2 and 3 processes
            raise ValueError(f"replication {i} went wrong")
        if i in (6, 9):  # later, in this process's share or another worker's
            raise TypeError(f"replication {i} went wrong too")
        return i

    with pytest.raises(ValueError) as info:
        _run_reps(_ENGINE_CFG, rep, 12)
    assert info.type is ValueError and str(info.value) == "replication 5 went wrong"
    _no_child_left()


def test_run_reps_kills_its_workers_after_an_error_in_its_own_share(cpus):
    from mssl.simulate import _run_reps

    cpus(2)
    parent = os.getpid()

    def rep(i):
        if i == 2 and os.getpid() == parent:
            raise ValueError("the parent's share failed")
        if i > 2:  # still running in the worker when its outcome is not needed
            time.sleep(60)
        return i

    start = time.perf_counter()
    with pytest.raises(ValueError, match="the parent's share failed"):
        _run_reps(_ENGINE_CFG, rep, 4)
    assert time.perf_counter() - start < 30
    _no_child_left()


def test_run_reps_reports_a_worker_that_ends_early(cpus):
    from mssl.simulate import _run_reps

    cpus(2)
    parent = os.getpid()

    def rep(i):
        if i == 3 and os.getpid() != parent:
            os._exit(3)
        return i

    with pytest.raises(RuntimeError, match="with replication 3 and later ones of its share not run"):
        _run_reps(_ENGINE_CFG, rep, 6)
    _no_child_left()


class _TwoArgError(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_run_reps_names_an_error_a_worker_cannot_send(cpus):
    from mssl.simulate import _run_reps

    cpus(2)

    def rep(i):
        if i == 1:
            raise _TwoArgError("a", "b")
        return i

    with pytest.raises(RuntimeError, match="replication 1: its outcome could not be sent"):
        _run_reps(_ENGINE_CFG, rep, 4)
    _no_child_left()


def test_run_reps_stays_serial_for_a_short_loop(cpus, monkeypatch):
    import mssl.simulate
    from mssl.simulate import _run_reps

    cpus(3)
    monkeypatch.setattr(mssl.simulate, "_FORK_MIN_S", 60.0)
    out = _run_reps(_ENGINE_CFG, _index_and_pid, 6)
    assert out == [(i, os.getpid()) for i in range(6)]


def test_run_reps_stays_serial_while_another_thread_runs(cpus):
    from mssl.simulate import _run_reps

    cpus(3)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        out = _run_reps(_ENGINE_CFG, _index_and_pid, 6)
    finally:
        release.set()
        thread.join()
    assert out == [(i, os.getpid()) for i in range(6)]


@pytest.mark.parametrize("preset", list(_SMALL))
def test_every_preset_writes_the_same_bytes_for_any_worker_count(preset, cpus, tmp_path):
    outputs = []
    for count in (1, 2, 3):
        cpus(count)
        paths = write_result_csv(run_experiment(_small_cfg(preset)), tmp_path / str(count))
        outputs.append([path.read_bytes() for path in paths])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    _no_child_left()


@pytest.mark.parametrize(
    "preset, estimators, solves_per_rep",
    [("glm_elu", ("supervised", "loss_mixed_est"), 3), ("glm_alpha_sweep", None, 2 + 19)],
)
def test_glm_presets_count_nonconverged_newton_solves(
    preset, estimators, solves_per_rep, monkeypatch
):
    import dataclasses

    import mssl.glm

    cfg = _small_cfg(preset, k=2, sigma2_grid=(9.0,), estimators=estimators)
    plain = run_experiment(cfg)
    assert plain.extras["newton_nonconverged"] == {9.0: 0}

    newton = mssl.glm._newton
    monkeypatch.setattr(
        mssl.glm, "_newton",
        lambda *a, **kw: dataclasses.replace(newton(*a, **kw), converged=False),
    )
    flagged = run_experiment(cfg)
    assert flagged.extras["newton_nonconverged"] == {9.0: solves_per_rep * cfg.k}
    assert flagged.rows == plain.rows  # the count leaves the results alone


@pytest.mark.parametrize("preset", list(_SMALL))
def test_preset_numbers_are_pinned(preset):
    golden = json.loads(_GOLDEN_PATH.read_text())[preset]
    res = run_experiment(_small_cfg(preset))
    assert [[r.estimator, r.grid_value, r.k_effective] for r in res.rows] == [
        g[:3] for g in golden["rows"]
    ]
    assert [[r.estimator_a, r.estimator_b, r.grid_value] for r in res.paired] == [
        g[:3] for g in golden["pairs"]
    ]
    np.testing.assert_allclose(
        [[r.mean_error, r.se] for r in res.rows], [g[3:] for g in golden["rows"]],
        rtol=1e-12, atol=0.0,
    )
    np.testing.assert_allclose(
        [r.p for r in res.paired], [g[3] for g in golden["pairs"]], rtol=1e-12, atol=0.0
    )


@pytest.mark.parametrize("preset, names", [
    ("ols_random_beta", ("semisupervised", "linear_mixed_est")),
    ("interp_growth", ("min_variance", "interp_mixed_opt")),
])
def test_growth_presets_run_without_their_reference_estimator(preset, names):
    # eta is measured relative to supervised / min_norm; without that
    # estimator the run still completes and leaves eta empty
    res = run_experiment(_small_cfg(preset, k=2, estimators=names))
    assert {r.estimator for r in res.rows} == set(names)
    assert all(eta == {} for eta in res.extras["eta_measured"].values())
