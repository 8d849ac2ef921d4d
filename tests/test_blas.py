"""Per-process BLAS thread policy and the CLI start-up import set."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np  # noqa: F401  (loads numpy's OpenBLAS)
import pytest
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

import mssl
from mssl import _blas, cli, simulate
from mssl._blas import single_blas_thread
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


def test_cli_import_leaves_scipy_stats_out():
    src = str(Path(mssl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, mssl.cli; "
        "print(' '.join(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""
