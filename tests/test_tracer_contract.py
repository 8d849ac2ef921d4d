"""The names the benchmark tracer wraps, and the counters it reads, exist in mssl.

``perfbench/traced_cli.py`` wraps the entry points listed in its
``ENTRY_POINTS`` by module and attribute path and reads counters from their
arguments and results.  A path that no longer resolves is skipped there
without an error, and its metrics then read ``null``, so the contract is
checked here from the program side.  The tracer is imported from its file
and only read.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from mssl import (
    LabeledSet, OlsPoolModel, ResampleSpec, UnlabeledPool, build_moments, seeded_rng,
)
from mssl.glm import _newton
from mssl.interp import iterate_sigma_tau
from mssl.simulate import ExperimentConfig, _run_reps

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ as is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_entry_point_resolves(tracer):
    missing = []
    for module_name, path, span_name in tracer.ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        try:
            for part in path.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{module_name}.{path} ({span_name})")
            continue
        assert callable(owner), f"{module_name}.{path} is not callable"
    assert missing == []


def test_library_modules_exist(tracer):
    for module_name in tracer.LIBRARY_MODULES:
        assert importlib.import_module(module_name).__all__


def test_pool_model_exposes_its_skip_count(tracer):
    pool = UnlabeledPool(seeded_rng(1).standard_normal((300, 3)))
    model = OlsPoolModel(build_moments(pool, 10), ResampleSpec(10, 5, 0))
    assert tracer._counters("ols.pool_model", (model,), {}, None) == {"skipped": model.n_skipped}
    assert model.n_skipped == 0


def test_newton_report_exposes_iterations_and_convergence(tracer):
    H = np.diag([2.0, 1.0])
    report = _newton(lambda b: float(b @ H @ b) / 2 - b[0], lambda b: H @ b - [1.0, 0.0],
                     lambda b: H, np.zeros(2))
    assert tracer._counters("glm.newton", (), {}, report) == {
        "iters": report.iterations, "nonconverged": 0,
    }
    assert report.iterations >= 1 and report.converged


def test_sigma_tau_exposes_its_iterations(tracer):
    rng = seeded_rng(2)
    X = rng.standard_normal((5, 12))
    data = LabeledSet(X, X @ rng.standard_normal(12) + rng.standard_normal(5))
    result = iterate_sigma_tau(data, np.eye(12))
    assert tracer._counters("interp.sigma_tau", (data,), {}, result) == {
        "iters": result.iterations,
    }
    assert result.iterations >= 1


def test_run_reps_takes_k_third_and_is_called_positionally(tracer, monkeypatch):
    # the tracer's replication wrapper unpacks (cfg, rep_fn, *rest), and its
    # counter reads k as the third positional argument
    assert list(inspect.signature(_run_reps).parameters) == ["cfg", "rep_fn", "k"]
    cfg = ExperimentConfig(preset="interp_fixed", k=3)
    ok = _run_reps(cfg, lambda i: i, 3)
    assert tracer._counters("simulate.engine", (cfg, None, 3), {}, ok) == {"reps": 3, "failed": 0}

    import mssl.simulate

    calls = []

    def recording(*args, **kwargs):
        calls.append((len(args), sorted(kwargs)))
        return _run_reps(*args, **kwargs)

    monkeypatch.setattr(mssl.simulate, "_run_reps", recording)
    mssl.simulate.run_experiment(ExperimentConfig(
        preset="interp_fixed", k=3, n=10, p_rule="fixed:20", sigma2_grid=(1.0,),
        pool_size=200, resample_blocks=10,
    ))
    assert calls == [(3, [])]
