import json
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from mssl import (
    MixRisk,
    UnlabeledPool,
    gen_sigma,
    CovarianceSpec,
    seeded_rng,
)
from mssl.cli import main
from mssl.io import write_pool_binary


def _schema(name: str) -> dict:
    return json.loads(
        resources.files("mssl").joinpath(f"schemas/{name}").read_text()
    )


def _write_ols_files(tmp):
    """Labeled (n=60, p=5) and pool CSVs in a well-posed OLS regime."""
    rng = seeded_rng(1)
    sigma = gen_sigma(CovarianceSpec("block_equicorrelated", 5, blocks=5, rho=0.0))
    Z = rng.standard_normal((4000, 5))
    X = rng.standard_normal((60, 5))
    beta = np.array([1.0, -0.5, 0.25, 0.0, 2.0])
    Y = X @ beta + rng.standard_normal(60)
    labeled = tmp / "train.csv"
    pool = tmp / "pool.csv"
    np.savetxt(labeled, np.column_stack([X, Y]), delimiter=",")
    np.savetxt(pool, Z, delimiter=",")
    return labeled, pool


def _write_interp_files(tmp):
    """Labeled (n=12, p=30) and pool CSVs in the interpolation regime."""
    rng = seeded_rng(2)
    p, n = 30, 12
    Z = rng.standard_normal((500, p))
    X = rng.standard_normal((n, p))
    w = rng.standard_normal(p)
    Y = X @ w + 0.5 * rng.standard_normal(n)
    labeled = tmp / "train.csv"
    pool = tmp / "pool.csv"
    np.savetxt(labeled, np.column_stack([X, Y]), delimiter=",")
    np.savetxt(pool, Z, delimiter=",")
    return labeled, pool


@pytest.fixture(scope="module")
def ols_files(tmp_path_factory):
    return _write_ols_files(tmp_path_factory.mktemp("olsdata"))


@pytest.fixture(scope="module")
def interp_files(tmp_path_factory):
    return _write_interp_files(tmp_path_factory.mktemp("interpdata"))


def test_fit_ols_auto(ols_files, capsys):
    labeled, pool = ols_files
    code = main(["fit", "--labeled", str(labeled), "--pool", str(pool),
                 "--model", "ols", "--seed", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("fit_output.schema.json"))
    assert payload["alpha_source"] == "formula"
    assert 0.0 <= payload["alpha"] <= 1.0
    assert len(payload["coefficients"]) == 5
    d = payload["diagnostics"]
    assert d["v_l"] > d["v_u"] > 0
    assert d["alpha_tilde"] is None


def test_fit_ols_grid_policy(ols_files, capsys):
    labeled, pool = ols_files
    code = main(["fit", "--labeled", str(labeled), "--pool", str(pool),
                 "--model", "ols", "--alpha", "grid", "--grid-size", "11"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("fit_output.schema.json"))
    assert payload["alpha_source"] == "grid"
    assert payload["diagnostics"]["alpha_tilde"] is not None


@pytest.mark.parametrize("model", ["ols", "glm"])
@pytest.mark.parametrize("size", ["-1", "0", "1"])
def test_fit_grid_size_below_two_is_a_usage_error(ols_files, capsys, model, size):
    labeled, pool = ols_files
    code = main(["fit", "--labeled", str(labeled), "--pool", str(pool), "--model", model,
                 "--alpha", "grid", "--grid-size", size, "--blocks", "20"])
    assert code == 2
    assert "grid" in capsys.readouterr().err


def test_fit_interp_single_block_is_a_usage_error(interp_files, capsys):
    labeled, pool = interp_files
    code = main(["fit", "--labeled", str(labeled), "--pool", str(pool),
                 "--model", "interp", "--blocks", "1"])
    assert code == 2
    assert "replications must be >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["ols", "glm"])
def test_fit_single_block_is_refused_before_any_work(model, ols_files, capsys, monkeypatch):
    import mssl.pipelines

    def no_work(*args, **kwargs):
        raise AssertionError("pool moments were built before the plan was checked")

    monkeypatch.setattr(mssl.pipelines, "build_moments", no_work)
    labeled, pool = ols_files
    code = main(["fit", "--labeled", str(labeled), "--pool", str(pool), "--model", model,
                 "--blocks", "1"])
    assert code == 2
    assert "replications must be >= 2, got 1" in capsys.readouterr().err


def test_fit_fixed_zero_equals_supervised(ols_files, capsys):
    labeled, pool = ols_files
    assert main(["fit", "--labeled", str(labeled), "--pool", str(pool),
                 "--model", "ols", "--alpha", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # alpha = 0 reduces to the plain least-squares fit on centered data
    X = np.loadtxt(labeled, delimiter=",")[:, :-1]
    Y = np.loadtxt(labeled, delimiter=",")[:, -1]
    Xc = X - np.asarray(payload["center"])
    ref = np.linalg.lstsq(Xc, Y, rcond=None)[0]
    np.testing.assert_allclose(payload["coefficients"], ref, atol=1e-8)


def test_fit_glm_elu(ols_files, capsys):
    labeled, pool = ols_files
    code = main(["fit", "--labeled", str(labeled), "--pool", str(pool),
                 "--model", "glm", "--link", "elu", "--blocks", "60"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("fit_output.schema.json"))
    assert payload["link"] == "elu"
    assert payload["converged"] is True


def test_fit_glm_negative_formula_ratio_is_clipped(ols_files, capsys, monkeypatch):
    # a negative plug-in ratio used to reach the loss-mixed fit and exit 2
    import mssl.glm

    labeled, pool = ols_files
    args = ["fit", "--labeled", str(labeled), "--pool", str(pool),
            "--model", "glm", "--link", "elu", "--blocks", "60"]
    assert main(args + ["--alpha", "0"]) == 0
    supervised = json.loads(capsys.readouterr().out)
    # a raw ratio of -0.25 whose negative gain lies within its noise
    monkeypatch.setattr(mssl.glm.GlmPoolStats, "risk",
                        lambda self, sigma2: MixRisk(0.0, -0.25, 1.25, se_gain=1.0))
    assert main(args + ["--alpha", "auto"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("fit_output.schema.json"))
    assert payload["alpha"] == 0.0
    assert payload["diagnostics"]["alpha_hat"] == -0.25
    assert payload["coefficients"] == supervised["coefficients"]


def test_fit_interp(interp_files, capsys):
    labeled, pool = interp_files
    code = main(["fit", "--labeled", str(labeled), "--pool", str(pool),
                 "--model", "interp", "--blocks", "60"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("fit_output.schema.json"))
    assert payload["model"] == "interp"
    assert len(payload["coefficients"]) == 30


def test_fit_interp_isotropic_pool_makes_estimators_agree(tmp_path, capsys):
    # with an (empirically) isotropic pool the two interpolators nearly
    # coincide, so any alpha gives nearly the same predictions
    rng = seeded_rng(4)
    p, n = 24, 8
    Z = rng.standard_normal((20000, p))
    X = rng.standard_normal((n, p))
    Y = X @ rng.standard_normal(p)
    labeled = tmp_path / "train.csv"
    pool = tmp_path / "pool.csv"
    np.savetxt(labeled, np.column_stack([X, Y]), delimiter=",")
    np.savetxt(pool, Z, delimiter=",")
    outs = []
    for alpha in ("0", "1"):
        assert main(["fit", "--labeled", str(labeled), "--pool", str(pool),
                     "--model", "interp", "--alpha", alpha, "--blocks", "50"]) == 0
        outs.append(np.asarray(json.loads(capsys.readouterr().out)["coefficients"]))
    # min-norm vs min-variance coefficients agree to the pool-estimation noise
    rel = np.linalg.norm(outs[0] - outs[1]) / np.linalg.norm(outs[0])
    assert rel < 0.15


def test_regime_mismatch_exit_2(interp_files, capsys):
    labeled, pool = interp_files
    code = main(["fit", "--labeled", str(labeled), "--pool", str(pool), "--model", "ols"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def _fit_on_a_collinear_pool(tmp_path, model, gap):
    """``mssl fit`` on a pool whose last two columns differ by ``gap`` times noise."""
    rng = seeded_rng(0)
    Z = rng.standard_normal((3000, 4))
    Z[:, 3] = Z[:, 2] + gap * rng.standard_normal(3000)
    X = rng.standard_normal((60, 4))
    labeled = tmp_path / "train.csv"
    pool = tmp_path / "pool.csv"
    np.savetxt(labeled, np.column_stack([X, X @ np.arange(4.0) + rng.standard_normal(60)]),
               delimiter=",")
    np.savetxt(pool, Z, delimiter=",")
    return main(["fit", "--labeled", str(labeled), "--pool", str(pool), "--model", model])


@pytest.mark.parametrize("model", ["ols", "glm"])
def test_fit_on_a_pool_with_equal_columns_reports_a_singular_matrix(model, tmp_path, capsys):
    # two equal pool columns make H (and H_g) singular
    assert _fit_on_a_collinear_pool(tmp_path, model, 0.0) == 2
    assert "singular" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["ols", "glm"])
def test_fit_on_a_pool_with_nearly_collinear_columns_exits_2(model, tmp_path, capsys):
    # the glm Newton fits damp the ill-conditioned pool Hessian with a ridge;
    # the checked factor of H (H_g) then stops the fit with exit 2, not a traceback
    with np.errstate(over="ignore"):
        assert _fit_on_a_collinear_pool(tmp_path, model, 1e-7) == 2
    assert "singular" in capsys.readouterr().err


@pytest.mark.parametrize("model, n, p", [("ols", 60, 5), ("glm", 60, 5), ("interp", 20, 40)])
def test_fit_of_an_all_zero_response(model, n, p, tmp_path, capsys):
    # no noise and no bias: every ratio is optimal, and the rule picks 0
    rng = seeded_rng(6)
    labeled, pool = tmp_path / "train.csv", tmp_path / "pool.csv"
    np.savetxt(labeled, np.column_stack([rng.standard_normal((n, p)), np.zeros(n)]), delimiter=",")
    np.savetxt(pool, rng.standard_normal((4000 if model != "interp" else 400, p)), delimiter=",")
    assert main(["fit", "--labeled", str(labeled), "--pool", str(pool), "--model", model]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("fit_output.schema.json"))
    assert payload["alpha"] == 0.0
    assert payload["coefficients"] == [0.0] * p


@pytest.mark.parametrize("model", ["ols", "glm", "interp"])
def test_fit_on_an_overflowing_pool_exits_2(model, tmp_path, capsys):
    # finite entries near 1e200 overflow the pool Gram
    p = 40 if model == "interp" else 5
    rng = seeded_rng(7)
    labeled, pool = tmp_path / "train.csv", tmp_path / "pool.csv"
    X = rng.standard_normal((20, p))
    np.savetxt(labeled, np.column_stack([X, X.sum(axis=1)]), delimiter=",")
    np.savetxt(pool, 1e200 * rng.standard_normal((400, p)), delimiter=",")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["fit", "--labeled", str(labeled), "--pool", str(pool), "--model", model]) == 2
    assert "not finite" in capsys.readouterr().err


def test_parse_failure_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,numeric,data\n1,2,x\n")
    pool = tmp_path / "pool.csv"
    np.savetxt(pool, np.eye(3), delimiter=",")
    code = main(["fit", "--labeled", str(bad), "--pool", str(pool), "--model", "ols"])
    assert code == 1


def test_fit_accepts_binary_pool(tmp_path, capsys):
    rng = seeded_rng(5)
    X = rng.standard_normal((40, 3))
    Y = X @ np.ones(3) + rng.standard_normal(40)
    labeled = tmp_path / "train.csv"
    np.savetxt(labeled, np.column_stack([X, Y]), delimiter=",")
    pool_bin = tmp_path / "pool.bin"
    write_pool_binary(UnlabeledPool(rng.standard_normal((800, 3))), pool_bin)
    code = main(["fit", "--labeled", str(labeled), "--pool", str(pool_bin),
                 "--model", "ols", "--blocks", "50"])
    assert code == 0
    json.loads(capsys.readouterr().out)


def test_diagnose_schema(ols_files, capsys):
    labeled, pool = ols_files
    code = main(["diagnose", "--labeled", str(labeled), "--pool", str(pool),
                 "--model", "ols"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("diagnose_output.schema.json"))
    assert "coefficients" not in payload


def test_limits_ols(capsys):
    code = main(["limits", "--mode", "ols", "--gamma", "0.5",
                 "--sigma2", "25", "--tau2", "1", "--c2", "25"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("limits_output.schema.json"))
    assert payload["eta_inf"] == pytest.approx(0.75)


def test_limits_interp_bad_ordering_exit_2(capsys):
    code = main(["limits", "--mode", "interp", "--gamma", "2.0",
                 "--gamma-tilde", "2.5"])
    assert code == 2


def test_limits_finite_m_reduction(capsys):
    assert main(["limits", "--mode", "finite_m", "--gamma", "0.5",
                 "--gamma-tilde", "0", "--c2", "25"]) == 0
    fm = json.loads(capsys.readouterr().out)
    assert main(["limits", "--mode", "ols", "--gamma", "0.5", "--c2", "25"]) == 0
    ols = json.loads(capsys.readouterr().out)
    assert fm["term_limits"]["b_u_tilde"] == pytest.approx(ols["term_limits"]["b_u"])
    assert fm["term_limits"]["v_u_tilde"] == pytest.approx(ols["term_limits"]["v_u"])


def test_simulate_list(capsys):
    assert main(["simulate", "--list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 6


def test_simulate_unknown_preset(capsys):
    assert main(["simulate", "--preset", "bogus"]) == 2


def test_simulate_smoke_writes_csv(tmp_path, capsys):
    code = main([
        "simulate", "--preset", "glm_elu", "-k", "3", "--seed", "9",
        "--sigma2-grid", "9", "--pool-size", "300", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    main_csv = tmp_path / "glm_elu.csv"
    pairs_csv = tmp_path / "glm_elu_pairs.csv"
    assert main_csv.exists() and pairs_csv.exists()
    header = main_csv.read_text().splitlines()[0]
    assert header == "preset,estimator,grid_name,grid_value,mean_error,se,k_effective"


def test_simulate_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text(
        "[experiment]\n"
        "preset = ols_constant_beta\n"
        "k = 4\n"
        "n = 30\n"
        "p_rule = fixed:10\n"
        "sigma2_grid = 9\n"
        "pool_size = 800\n"
        "resample_blocks = 30\n"
        "alpha_grid_size = 11\n"
    )
    code = main(["simulate", "--config", str(cfgfile), "--out-dir", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "ols_constant_beta.csv").read_text().splitlines()
    assert len(rows) == 1 + 8  # header + one grid point x eight estimators


def test_env_seed_fallback(ols_files, capsys, monkeypatch):
    labeled, pool = ols_files
    monkeypatch.setenv("MSSL_SEED", "123")
    assert main(["fit", "--labeled", str(labeled), "--pool", str(pool),
                 "--model", "ols"]) == 0
    out1 = capsys.readouterr().out
    assert main(["fit", "--labeled", str(labeled), "--pool", str(pool),
                 "--model", "ols", "--seed", "123"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2


# -- pinned fit/diagnose outputs ---------------------------------------------------

# each case: its data files and CLI arguments; the outputs in data/fit_golden.json
# were recorded with these
_FIT_CASES = {
    "fit_ols_auto": ("ols_files", ["fit", "--model", "ols"]),
    "fit_ols_grid": ("ols_files", ["fit", "--model", "ols", "--alpha", "grid",
                                   "--grid-size", "11"]),
    "fit_ols_fixed": ("ols_files", ["fit", "--model", "ols", "--alpha", "0.3"]),
    "fit_glm_auto": ("ols_files", ["fit", "--model", "glm", "--link", "elu", "--blocks", "60"]),
    "fit_glm_grid": ("ols_files", ["fit", "--model", "glm", "--link", "elu", "--blocks", "60",
                                   "--alpha", "grid", "--grid-size", "11"]),
    "fit_interp": ("interp_files", ["fit", "--model", "interp", "--blocks", "60"]),
    "diagnose_ols": ("ols_files", ["diagnose", "--model", "ols"]),
    "diagnose_glm": ("ols_files", ["diagnose", "--model", "glm", "--link", "elu",
                                   "--blocks", "60"]),
    "diagnose_interp": ("interp_files", ["diagnose", "--model", "interp", "--blocks", "60"]),
}
_FIT_GOLDEN_PATH = Path(__file__).parent / "data" / "fit_golden.json"


def _argv(files, args) -> list[str]:
    labeled, pool = files
    return [args[0], "--labeled", str(labeled), "--pool", str(pool), *args[1:], "--seed", "3"]


def _leaves(obj, path="$"):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


@pytest.mark.parametrize("case", list(_FIT_CASES))
def test_fit_outputs_are_pinned(case, request, capsys):
    files, args = _FIT_CASES[case]
    assert main(_argv(request.getfixturevalue(files), args)) == 0
    got = dict(_leaves(json.loads(capsys.readouterr().out)))
    want = dict(_leaves(json.loads(_FIT_GOLDEN_PATH.read_text())[case]))
    assert list(got) == list(want)
    numbers = [path for path, value in want.items() if isinstance(value, float)]
    assert {p: v for p, v in got.items() if p not in numbers} == {
        p: v for p, v in want.items() if p not in numbers
    }
    np.testing.assert_allclose(
        [got[p] for p in numbers], [want[p] for p in numbers], rtol=1e-12, atol=0.0
    )


# -- usage errors before any work ---------------------------------------------------


@pytest.mark.parametrize("model, alpha", [
    ("interp", "grid"), ("ols", "abc"), ("ols", "1.5"), ("glm", "-0.1"), ("interp", "nan"),
])
def test_alpha_policy_is_checked_before_any_work(
    model, alpha, ols_files, interp_files, capsys, monkeypatch
):
    import mssl.pipelines

    def no_work(*args, **kwargs):
        raise AssertionError("pool statistics were computed before the policy was checked")

    for name in ("build_moments", "OlsPoolModel", "interp_risk_terms"):
        monkeypatch.setattr(mssl.pipelines, name, no_work)
    labeled, pool = interp_files if model == "interp" else ols_files
    code = main(["fit", "--labeled", str(labeled), "--pool", str(pool), "--model", model,
                 "--alpha", alpha])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--sigma2-grid", "1,abc"), ("--n-grid", "x")])
def test_simulate_malformed_grid_flag_is_a_usage_error(flag, value, tmp_path, capsys):
    code = main(["simulate", "--preset", "ols_random_beta", flag, value,
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}")


@pytest.mark.parametrize("line, code, message", [
    ("k = abc", 1, "bad value 'abc' for 'k'"),
    ("p_rule = ratio:x", 2, "bad p rule 'ratio:x'"),
])
def test_simulate_malformed_config_number(line, code, message, tmp_path, capsys):
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text(f"[experiment]\npreset = ols_constant_beta\n{line}\n")
    assert main(["simulate", "--config", str(cfgfile), "-k", "2",
                 "--out-dir", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("preset", ["ols_random_beta", "glm_alpha_sweep", "interp_growth"])
def test_simulate_rejects_a_sigma2_grid_the_preset_does_not_sweep(
    preset, tmp_path, capsys, monkeypatch
):
    import mssl.simulate

    def no_work(cfg):
        raise AssertionError("the preset ran before its grids were checked")

    monkeypatch.setitem(mssl.simulate.PRESETS, preset, no_work)
    code = main(["simulate", "--preset", preset, "--sigma2-grid", "1,9", "-k", "3",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "sigma2_grid" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("preset", ["ols_constant_beta", "glm_elu", "glm_alpha_sweep",
                                    "interp_fixed"])
def test_simulate_rejects_an_n_grid_the_preset_does_not_sweep(
    preset, tmp_path, capsys, monkeypatch
):
    import mssl.simulate

    def no_work(cfg):
        raise AssertionError("the preset ran before its grids were checked")

    monkeypatch.setitem(mssl.simulate.PRESETS, preset, no_work)
    code = main(["simulate", "--preset", preset, "--n-grid", "7,9", "-k", "3",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "n_grid" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_rejects_a_pool_size_below_one(tmp_path, capsys, monkeypatch):
    # --pool-size 0 used to exit 0 after running on the preset's 5000-row pool
    import mssl.simulate

    def no_work(cfg):
        raise AssertionError("the preset ran before its sizes were checked")

    monkeypatch.setitem(mssl.simulate.PRESETS, "interp_fixed", no_work)
    code = main(["simulate", "--preset", "interp_fixed", "-k", "2", "--pool-size", "0",
                 "--sigma2-grid", "4", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "pool_size must be >= 1" in capsys.readouterr().err
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text("[experiment]\npreset = interp_fixed\nk = 2\npool_size = 0\n")
    assert main(["simulate", "--config", str(cfgfile), "--out-dir", str(tmp_path / "out")]) == 1
    assert "pool_size must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_config_out_dir_is_an_unknown_key(tmp_path, capsys, monkeypatch):
    # a config's out_dir was ignored: the CSVs went to the current directory
    monkeypatch.chdir(tmp_path)
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text("[experiment]\npreset = ols_constant_beta\nk = 2\nout_dir = wanted\n")
    assert main(["simulate", "--config", str(cfgfile)]) == 1
    assert "unknown config key 'out_dir'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


def test_simulate_config_fields_glm_elu_does_not_read_fail_before_any_work(
    tmp_path, capsys, monkeypatch
):
    # x_source, eval_cov and alpha_grid_size used to be ignored by glm_elu
    import mssl.simulate

    def no_work(cfg):
        raise AssertionError("the preset ran before its config was checked")

    monkeypatch.setitem(mssl.simulate.PRESETS, "glm_elu", no_work)
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text("[experiment]\npreset = glm_elu\nk = 3\nx_source = pool\n"
                       "eval_cov = true\nalpha_grid_size = 3\n")
    assert main(["simulate", "--config", str(cfgfile), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "glm_elu does not read x_source, eval_cov, alpha_grid_size" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("preset", ["ols_random_beta", "interp_growth"])
def test_simulate_config_rejects_n_where_the_preset_sweeps_n(
    preset, tmp_path, capsys, monkeypatch
):
    # n = 7 used to exit 0 with the value ignored: both presets read n_grid
    import mssl.simulate

    def no_work(cfg):
        raise AssertionError("the preset ran before its config was checked")

    monkeypatch.setitem(mssl.simulate.PRESETS, preset, no_work)
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text(f"[experiment]\npreset = {preset}\nk = 3\nn = 7\n")
    assert main(["simulate", "--config", str(cfgfile), "--out-dir", str(tmp_path / "out")]) == 1
    assert f"{preset} does not read n\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
