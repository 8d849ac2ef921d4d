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


@pytest.mark.parametrize("files, args", [
    ("interp_files", ["--model", "interp"]),
    ("ols_files", ["--model", "ols", "--alpha", "auto"]),
    ("ols_files", ["--model", "glm", "--alpha", "0.3"]),
])
def test_fit_grid_size_without_the_grid_policy_is_a_usage_error(files, args, request, capsys):
    # the grid size means nothing to another mixing policy
    labeled, pool = request.getfixturevalue(files)
    code = main(["fit", "--labeled", str(labeled), "--pool", str(pool), *args,
                 "--grid-size", "7", "--blocks", "20"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --grid-size applies to --alpha grid only\n"


def test_diagnose_takes_no_grid_size(ols_files, capsys):
    # diagnose always mixes by the formula, so it has no grid
    labeled, pool = ols_files
    with pytest.raises(SystemExit) as exit_:
        main(["diagnose", "--labeled", str(labeled), "--pool", str(pool), "--model", "ols",
              "--grid-size", "7", "--blocks", "20"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --grid-size 7" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["ols", "glm"])
def test_fit_grid_policy_takes_51_points_by_default(model, ols_files, monkeypatch, capsys):
    # the glm pipeline's own default is 21 points; the command's is 51 for both
    import mssl.cli

    seen = []
    monkeypatch.setattr(mssl.cli, f"fit_{model}_pipeline",
                        lambda *args, grid_size, **kwargs: seen.append(grid_size) or {})
    labeled, pool = ols_files
    assert main(["fit", "--labeled", str(labeled), "--pool", str(pool), "--model", model,
                 "--alpha", "grid"]) == 0
    assert seen == [51]


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


@pytest.mark.parametrize("verb", ["fit", "diagnose"])
@pytest.mark.parametrize("model", ["ols", "interp"])
def test_link_of_a_least_squares_model_is_refused_before_any_work(
    verb, model, ols_files, capsys, monkeypatch
):
    import mssl.cli

    def no_work(*args, **kwargs):
        raise AssertionError("the inputs were read before the link was checked")

    monkeypatch.setattr(mssl.cli, "read_labeled_csv", no_work)
    labeled, pool = ols_files
    code = main([verb, "--labeled", str(labeled), "--pool", str(pool), "--model", model,
                 "--link", "elu"])
    assert code == 2
    assert "--link elu applies to --model glm only" in capsys.readouterr().err


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


def test_limits_interp_needs_gamma_tilde(capsys):
    # no default can lie in 1 < gamma_tilde < gamma, so the flag is required
    assert main(["limits", "--mode", "interp", "--gamma", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --mode interp needs --gamma-tilde")


def test_limits_finite_m_reduction(capsys):
    assert main(["limits", "--mode", "finite_m", "--gamma", "0.5",
                 "--gamma-tilde", "0", "--c2", "25"]) == 0
    fm = json.loads(capsys.readouterr().out)
    assert main(["limits", "--mode", "ols", "--gamma", "0.5", "--c2", "25"]) == 0
    ols = json.loads(capsys.readouterr().out)
    assert fm["term_limits"]["b_u_tilde"] == pytest.approx(ols["term_limits"]["b_u"])
    assert fm["term_limits"]["v_u_tilde"] == pytest.approx(ols["term_limits"]["v_u"])


@pytest.mark.parametrize("mode, flag", [
    ("ols", "--gamma-tilde"), ("finite_m", "--sigma2"), ("finite_m", "--tau2"),
])
def test_limits_rejects_a_setting_its_mode_does_not_read(mode, flag, capsys):
    # these printed the limits without the setting and exited 0
    assert main(["limits", "--mode", mode, "--gamma", "0.5", flag, "0.7"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --mode {mode} does not read {flag}\n"


def test_simulate_list(capsys):
    assert main(["simulate", "--list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 6


def test_simulate_list_takes_no_other_simulate_input(capsys):
    # both printed the presets and exited 0
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--list", "--preset", "bogus"])
    assert exit_.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert main(["simulate", "--list", "-k", "abc"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --list takes no --replications\n"


def test_simulate_list_takes_no_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "listed"
    assert main(["simulate", "--list", "--out-dir", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --list takes no --out-dir\n"
    assert not out_dir.exists()


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
    ("p_rule = ratio:x", 1, "bad p rule 'ratio:x'"),
    ("p_rule = fixed:abc", 1, "bad p rule 'fixed:abc'"),
    ("p_rule = wide:3", 1, "bad p rule 'wide:3'"),
])
def test_simulate_malformed_config_number(line, code, message, tmp_path, capsys):
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text(f"[experiment]\npreset = ols_constant_beta\n{line}\n")
    assert main(["simulate", "--config", str(cfgfile), "-k", "2",
                 "--out-dir", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("content, message", [
    (b"[experiment]\npreset = glm_elu\nk = 3\nk = 4\n", "option 'k'"),
    (b"[experiment]\npreset = glm_elu\n[experiment]\nk = 3\n", "section 'experiment'"),
    (b"preset = glm_elu\n", "no section headers"),
    (b"[experiment]\npreset = glm_elu\ngarbage line\n", "parsing errors"),
    (b"[experiment]\npreset = glm\xff\n", "can't decode byte 0xff"),
    (None, "cannot read the file"),
], ids=["duplicate-option", "duplicate-section", "no-header", "unparsable-line",
        "not-utf8", "missing-file"])
def test_simulate_unreadable_config_is_one_error_line(content, message, tmp_path, capsys):
    # each used to end in a traceback; a missing file reported a missing section
    cfgfile, out = tmp_path / "exp.ini", tmp_path / "out"
    if content is not None:
        cfgfile.write_bytes(content)
    assert main(["simulate", "--config", str(cfgfile), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfgfile}: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("value", ["-4", "nan", "inf"])
def test_simulate_rejects_a_negative_or_non_finite_sigma2(value, tmp_path, capsys, monkeypatch):
    # --sigma2-grid=-4 used to exit 1 with a math domain error from the noise draw
    import mssl.simulate

    def no_work(cfg):
        raise AssertionError("the preset ran before its sigma2 grid was checked")

    monkeypatch.setitem(mssl.simulate.PRESETS, "interp_fixed", no_work)
    code = main(["simulate", "--preset", "interp_fixed", "-k", "2", f"--sigma2-grid={value}",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "sigma2_grid values must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_a_pool_no_larger_than_p_before_any_work(tmp_path, capsys):
    # p = 50 here; the pool covariance used to fail to factor in a LinAlgError traceback
    out = tmp_path / "small_pool"
    code = main(["simulate", "--preset", "ols_constant_beta", "-k", "3", "--pool-size", "40",
                 "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: pool size 40 must exceed p=50\n"
    assert not out.exists()
    # in a config file the pool size is checked with the p rule, when the preset runs
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text("[experiment]\npreset = glm_elu\nk = 3\npool_size = 5\n")
    assert main(["simulate", "--config", str(cfgfile), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "error: pool size 5 must exceed p=10\n"
    assert not out.exists()


def test_a_fit_leaves_its_pool_file_as_it_was(tmp_path, capsys):
    # the command centers the pool it read in place, never the file
    rng = seeded_rng(6)
    X = rng.standard_normal((40, 3)) + 2.0
    labeled = tmp_path / "train.csv"
    np.savetxt(labeled, np.column_stack([X, X @ np.ones(3) + rng.standard_normal(40)]),
               delimiter=",")
    pool_bin, pool_csv = tmp_path / "pool.bin", tmp_path / "pool.csv"
    Z = rng.standard_normal((800, 3)) + 2.0
    write_pool_binary(UnlabeledPool(Z), pool_bin)
    np.savetxt(pool_csv, Z, delimiter=",")
    before = {path: path.read_bytes() for path in (pool_bin, pool_csv)}
    for path in before:
        for model in ("ols", "glm"):
            assert main(["fit", "--labeled", str(labeled), "--pool", str(path),
                         "--model", model, "--blocks", "20"]) == 0
            center = json.loads(capsys.readouterr().out)["center"]
            np.testing.assert_allclose(center, Z.mean(axis=0), rtol=1e-14)
    assert {path: path.read_bytes() for path in before} == before


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


# -- seeds, non-finite limits settings, flag parsing --------------------------------


@pytest.mark.parametrize("env, seed_args", [(None, ["--seed", "-3"]), ("-2", [])])
def test_fit_negative_seed_is_a_usage_error(env, seed_args, ols_files, capsys, monkeypatch):
    # numpy's seed sequence used to end the run in a "non-negative integer" traceback
    if env is not None:
        monkeypatch.setenv("MSSL_SEED", env)
    labeled, pool = ols_files
    code = main(["fit", "--labeled", str(labeled), "--pool", str(pool), "--model", "ols",
                 "--blocks", "20", *seed_args])
    assert code == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_fit_non_integer_env_seed_is_refused_before_any_work(ols_files, capsys, monkeypatch):
    import mssl.cli

    def no_work(*args, **kwargs):
        raise AssertionError("the inputs were read before MSSL_SEED was checked")

    monkeypatch.setattr(mssl.cli, "read_labeled_csv", no_work)
    monkeypatch.setenv("MSSL_SEED", "abc")
    labeled, pool = ols_files
    assert main(["fit", "--labeled", str(labeled), "--pool", str(pool), "--model", "ols"]) == 2
    assert capsys.readouterr().err == "error: MSSL_SEED must be an integer, got 'abc'\n"


def test_simulate_negative_seed_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    import mssl.simulate

    def no_work(cfg):
        raise AssertionError("the preset ran before its seed was checked")

    monkeypatch.setitem(mssl.simulate.PRESETS, "glm_elu", no_work)
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "glm_elu", "--seed", "-1", "--out-dir", str(out)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    # a config file's bad values exit 1
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text("[experiment]\npreset = glm_elu\nseed = -4\n")
    assert main(["simulate", "--config", str(cfgfile), "--out-dir", str(out)]) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--mode", "ols", "--gamma", "0.5", "--c2", "nan"],
    ["--mode", "ols", "--gamma", "0.5", "--c2", "inf"],
    ["--mode", "ols", "--gamma", "0.5", "--sigma2", "nan"],
    ["--mode", "interp", "--gamma", "inf", "--gamma-tilde", "2"],
    ["--mode", "interp", "--gamma", "3", "--gamma-tilde", "2", "--tau2", "inf"],
    ["--mode", "finite_m", "--gamma", "0.5", "--c2", "nan"],
    ["--mode", "finite_m", "--gamma", "0.5", "--c2", "inf"],
])
def test_limits_rejects_a_non_finite_setting(args, capsys):
    # these printed NaN or Infinity, which is not JSON, and exited 0
    assert main(["limits", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("flag, value, name", [
    ("-k", "abc", "--replications"),
    ("--pool-size", "1.5", "--pool-size"),
    ("--sigma2-grid", "", "--sigma2-grid"),
])
def test_simulate_flag_is_parsed_as_its_config_key(flag, value, name, tmp_path, capsys):
    # -k abc was argparse's usage exit, and an empty --sigma2-grid was ignored
    out = tmp_path / "out"
    code = main(["simulate", "--preset", "glm_elu", flag, value, "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {name}: bad value {value!r}\n"
    assert not out.exists()


def test_simulate_config_and_preset_together_are_a_usage_error(tmp_path, capsys):
    # --preset used to be ignored: the config's preset ran and exited 0
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text("[experiment]\npreset = interp_fixed\nk = 2\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--config", str(cfgfile), "--preset", "glm_elu",
              "--out-dir", str(out)])
    assert exit_.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()
