"""Per-process BLAS thread policy, the LAPACK layer and the CLI start-up import set."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np  # noqa: F401  (loads numpy's OpenBLAS)
import pytest
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)
from scipy.linalg import lapack as scipy_lapack
from test_cli import _write_interp_files, _write_ols_files
from test_simulate import _SMALL

import mssl
from mssl import _blas, cli, simulate
from mssl._blas import single_blas_thread
from mssl.core import spd_factor
from mssl.errors import SingularMatrixError
from mssl.simulate import ExperimentConfig, ExperimentResult, run_experiment


@pytest.fixture
def libs(monkeypatch):
    """Loaded OpenBLAS handles, all set to 2 threads; counts restored after."""
    for var in _blas.THREAD_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    handles = _blas._find_openblas()
    if not handles:
        pytest.skip("no OpenBLAS loaded in this process")
    before = {h.path: h.get_threads() for h in handles}
    for h in handles:
        h.set_threads(2)
    yield handles
    for h in handles:
        h.set_threads(before[h.path])


def _counts(handles) -> set[int]:
    return {h.get_threads() for h in handles}


def test_finds_an_openblas_per_bundled_copy(libs):
    # numpy and scipy wheels each bundle their own OpenBLAS; every copy that
    # is mapped must be bound, or the one left alone keeps spinning threads
    assert len(libs) == len(_blas._loaded_paths())


def test_context_sets_one_thread_and_restores(libs):
    assert _counts(libs) == {2}
    with single_blas_thread():
        assert _counts(libs) == {1}
    assert _counts(libs) == {2}


def test_context_nests(libs):
    with single_blas_thread():
        with single_blas_thread():
            assert _counts(libs) == {1}
        assert _counts(libs) == {1}
    assert _counts(libs) == {2}


def test_context_restores_on_exception(libs):
    with pytest.raises(RuntimeError):
        with single_blas_thread():
            raise RuntimeError("boom")
    assert _counts(libs) == {2}


@pytest.mark.parametrize("var", _blas.THREAD_ENV_VARS)
def test_user_thread_variable_is_respected(libs, monkeypatch, var):
    monkeypatch.setenv(var, "2")
    with single_blas_thread():
        assert _counts(libs) == {2}
    assert _counts(libs) == {2}


def test_no_library_found_is_a_no_op(libs, monkeypatch):
    monkeypatch.setattr(_blas, "_find_openblas", lambda: [])
    with single_blas_thread():
        assert _counts(libs) == {2}
    assert _counts(libs) == {2}


def test_failing_finder_never_raises(libs, monkeypatch):
    def broken():
        raise OSError("unreadable")

    monkeypatch.setattr(_blas, "_find_openblas", broken)
    ran = False
    with single_blas_thread():
        ran = True
    assert ran
    assert _counts(libs) == {2}


def test_cli_dispatch_runs_single_threaded_and_restores(libs, monkeypatch, capsys):
    seen = []

    def probe(args):
        seen.append(_counts(libs))
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "_cmd_limits", probe)
    assert cli.main(["limits", "--mode", "ols", "--gamma", "0.5"]) == cli.EXIT_OK
    assert seen == [{1}]
    assert _counts(libs) == {2}


def test_run_experiment_runs_single_threaded_and_restores(libs, monkeypatch):
    seen = []

    def probe(cfg):
        seen.append(_counts(libs))
        return ExperimentResult(cfg.preset, "sigma2", (), ())

    monkeypatch.setitem(simulate.PRESETS, "probe", probe)
    run_experiment(ExperimentConfig(preset="probe"))
    assert seen == [{1}]
    assert _counts(libs) == {2}


def _scipy_modules(code: str) -> list[str]:
    """The scipy modules a fresh interpreter has loaded after running ``code``."""
    src = str(Path(mssl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code += "\nimport sys; print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def test_cli_import_leaves_scipy_stats_out():
    # nor any other scipy module: LAPACK comes from numpy's OpenBLAS
    assert _scipy_modules("import mssl.cli") == []


def _needs_openblas_lapack():
    if not isinstance(_blas._lapack(), _blas._OpenBlasLapack):
        pytest.skip("no loaded OpenBLAS exports the LAPACK routines")


@pytest.mark.parametrize("command", [
    ["limits", "--mode", "ols", "--gamma", "0.5"],
    ["fit", "--model", "ols"],
    ["fit", "--model", "glm", "--alpha", "grid", "--blocks", "20"],
    ["fit", "--model", "interp"],
    ["diagnose", "--model", "ols", "--blocks", "20"],
    ["simulate", "--preset", "ols_constant_beta", "-k", "3", "--pool-size", "500"],
    ["simulate", "--preset", "glm_elu", "-k", "3", "--pool-size", "400"],
    ["simulate", "--preset", "interp_growth", "-k", "3", "--pool-size", "300",
     "--n-grid", "20,30"],
])
def test_cli_commands_load_no_scipy(command, tmp_path):
    # every LAPACK call goes through numpy's OpenBLAS, and the paired-test
    # p-values of simulate come from mssl's own Student-t tail
    _needs_openblas_lapack()
    if command[0] == "simulate":
        command = command + ["--out-dir", str(tmp_path)]
    elif command[0] != "limits":
        write = _write_interp_files if "interp" in command else _write_ols_files
        labeled, pool = write(tmp_path)
        command = command + ["--labeled", str(labeled), "--pool", str(pool)]
    code = "import contextlib, io\nfrom mssl.cli import main\n"
    code += f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({command!r}) == 0"
    assert _scipy_modules(code) == []


def test_every_preset_runs_with_scipy_imports_blocked():
    # a finder in front of sys.meta_path fails every scipy import, so any
    # preset that still reaches for scipy fails the child process
    _needs_openblas_lapack()
    code = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from mssl.simulate import ExperimentConfig, run_experiment\n"
    )
    for preset, kw in _SMALL.items():
        kw = {**kw, "k": 3}
        code += f"assert run_experiment(ExperimentConfig(preset={preset!r}, **{kw!r})).paired\n"
    assert _scipy_modules(code) == []


# -- LAPACK layer ----------------------------------------------------------------------


@pytest.fixture
def fallback(monkeypatch):
    """The scipy provider, reached through a finder that finds no OpenBLAS."""
    _blas._lapack.cache_clear()
    monkeypatch.setattr(_blas, "_find_openblas", lambda: [])
    yield
    _blas._lapack.cache_clear()


@pytest.fixture(params=["openblas", "scipy"])
def provider(request):
    """Each LAPACK provider in turn."""
    if request.param == "scipy":
        request.getfixturevalue("fallback")
    elif _blas._find_lapack() is None:
        pytest.skip("no loaded OpenBLAS exports the LAPACK routines")
    return request.param


def _spd(p: int, seed: int = 0) -> np.ndarray:
    X = np.random.default_rng(seed).standard_normal((3 * p + 10, p))
    return X.T @ X


def _layouts(a: np.ndarray) -> dict:
    """The same values C-ordered, Fortran-ordered and as a strided view."""
    big = np.zeros(tuple(2 * d for d in a.shape))
    view = big[tuple(slice(None, None, 2) for _ in a.shape)]
    view[...] = a
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a), "strided": view}


def test_numpys_openblas_provides_lapack(provider):
    # numpy's wheels bundle an OpenBLAS with the full LAPACK; without it, and
    # only then, the wrappers run scipy's
    want = _blas._ScipyLapack if provider == "scipy" else _blas._OpenBlasLapack
    assert isinstance(_blas._lapack(), want)


@pytest.mark.parametrize("p", [1, 10, 51, 200])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_wrappers_agree_with_scipy_linalg(provider, p, layout):
    A = _spd(p)
    B = np.random.default_rng(1).standard_normal((p, 3))
    A_in, B_in = (_layouts(x)[layout] for x in (A, B))
    A_before = A_in.copy()

    c, info = _blas.potrf(A_in)
    want_c, want_info = scipy_lapack.dpotrf(A, lower=1, clean=0)
    assert info == want_info == 0
    np.testing.assert_allclose(np.tril(c), np.tril(want_c), rtol=1e-13, atol=1e-13)
    np.testing.assert_array_equal(np.triu(c, 1), np.triu(A, 1))  # as scipy's cho_factor
    anorm = np.abs(A).sum(axis=0).max()
    want_rcond = scipy_lapack.dpocon(want_c, anorm, uplo="L")[0]
    assert _blas.pocon(c, anorm) == pytest.approx(want_rcond, rel=1e-13)

    for b in (B_in, B_in[:, 0]):
        want = scipy.linalg.cho_solve((want_c, True), np.asarray(b))
        got = _blas.cho_solve((c, True), b)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    got = _blas.cho_solve(spd_factor(A_in), B_in)
    np.testing.assert_allclose(got, np.linalg.solve(A, B), rtol=1e-10, atol=1e-12)
    upper = scipy.linalg.cho_factor(A)  # scipy's default, an upper factor
    np.testing.assert_allclose(
        _blas.cho_solve(upper, B_in), scipy.linalg.cho_solve(upper, B), rtol=1e-13, atol=1e-13
    )
    np.testing.assert_array_equal(A_in, A_before)  # inputs are never written


def test_fallback_equals_scipy_linalg(fallback):
    assert isinstance(_blas._lapack(), _blas._ScipyLapack)
    A = _spd(51)
    B = np.random.default_rng(2).standard_normal((51, 4))
    c, info = _blas.potrf(A)
    want_c = scipy.linalg.cho_factor(A, lower=True)[0]
    np.testing.assert_array_equal(c, want_c)
    anorm = np.abs(A).sum(axis=0).max()
    assert _blas.pocon(c, anorm) == scipy_lapack.dpocon(want_c, anorm, uplo="L")[0]
    np.testing.assert_array_equal(
        _blas.cho_solve((c, True), B), scipy.linalg.cho_solve((want_c, True), B)
    )


@pytest.mark.parametrize("p", [1, 10, 100])
def test_cho_inverse_is_the_exactly_symmetric_inverse(provider, p):
    A = _spd(p, seed=p)
    want = np.linalg.inv(A)
    for factor in (spd_factor(A), scipy.linalg.cho_factor(A)):  # lower, then upper
        before = factor[0].copy()
        got = _blas.cho_inverse(factor)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())
        np.testing.assert_array_equal(got, got.T)
        np.testing.assert_array_equal(factor[0], before)  # the caller's factor is not written


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cho_inverse_rejects_a_non_finite_factor(provider, bad):
    c, lower = spd_factor(_spd(6))
    c = c.copy()
    c[3, 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        _blas.cho_inverse((c, lower))


def test_cho_inverse_rejects_a_singular_factor(provider):
    with pytest.raises(np.linalg.LinAlgError, match="zero pivot at order 2"):
        _blas.cho_inverse((np.diag([1.0, 0.0, 1.0]), True))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_value_error(provider, bad):
    A = _spd(6)
    A_bad = A.copy()
    A_bad[4, 1] = bad
    c = spd_factor(A)
    b_bad = np.ones(6)
    b_bad[2] = bad
    for call in (
        lambda: _blas.potrf(A_bad),
        lambda: spd_factor(A_bad),
        lambda: _blas.cho_solve(c, b_bad),
        lambda: _blas.cho_solve((A_bad, True), np.ones(6)),
    ):
        with pytest.raises(ValueError, match="infs or NaNs"):
            call()


def test_non_pd_matrix_reports_info_and_singular_with_rank(provider):
    V = np.random.default_rng(3).standard_normal((8, 5))
    low_rank = V @ V.T  # PSD of rank 5
    indefinite = np.diag([2.0, 1.0, -1.0, 3.0])
    assert _blas.potrf(indefinite)[1] == 3
    with pytest.raises(SingularMatrixError) as err:
        spd_factor(indefinite, "D")
    assert err.value.rank == 4
    with pytest.raises(SingularMatrixError) as err:
        spd_factor(low_rank, "V V^T")
    assert err.value.rank == 5
    assert isinstance(err.value, ValueError)


def test_shape_mismatch_raises_value_error(provider):
    c = spd_factor(_spd(4))
    with pytest.raises(ValueError):
        _blas.cho_solve(c, np.ones(5))
    with pytest.raises(ValueError):
        _blas.potrf(np.ones((3, 4)))


def test_newton_ridge_retry_still_triggers(provider):
    # _newton damps a Hessian that the checked factor rejects; the
    # SingularMatrixError of spd_factor is what sends it to the ridge
    from mssl.glm import _newton

    H = np.diag([1.0, 0.0])  # singular: the first factor fails, the ridged one works
    report = _newton(lambda b: float(b @ H @ b) / 2 - b[0], lambda b: H @ b - [1.0, 0.0],
                     lambda b: H, np.zeros(2))
    assert report.converged
    np.testing.assert_allclose(report.beta[0], 1.0)
