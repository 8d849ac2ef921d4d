"""One copy of every pool: library calls copy, and the program's own pools are centered in place.

``build_moments``, ``center_pool``, ``GlmProblem`` and the fit pipelines
never write an array their caller passes in.  A pool the program draws or
reads itself exists once: numpy reports its buffers to ``tracemalloc``, so
the peak allocation of a grid point's pool statistics and of a whole
``mssl fit`` is measured exactly, against the bytes of the pool.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from mssl import (
    DataValidationError, LabeledSet, UnlabeledPool, build_moments, center_pool, elu_link,
    seeded_rng,
)
from mssl.cli import main
from mssl.core import _center_in_place
from mssl.glm import GlmProblem
from mssl.io import write_pool_binary
from mssl.pipelines import fit_glm_pipeline, fit_interp_pipeline, fit_ols_pipeline
from mssl.simulate import _SPIKE, CovarianceSpec, ExperimentConfig, _pool_point, gen_sigma


def _peak(fn) -> int:
    """The peak traced allocation, in bytes, while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _pool_array(order: str, m: int = 300, p: int = 4, seed: int = 1) -> np.ndarray:
    return np.asarray(seeded_rng(seed).standard_normal((m, p)) + 0.5, order=order)


def _labeled(n: int, p: int, seed: int = 2) -> LabeledSet:
    rng = seeded_rng(seed)
    X = rng.standard_normal((n, p))
    return LabeledSet(X, X @ np.linspace(-1.0, 1.0, p) + rng.standard_normal(n))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("call", [
    lambda pool: build_moments(pool, 10),
    center_pool,
    lambda pool: GlmProblem(_labeled(20, pool.p), pool, elu_link()),
    lambda pool: fit_ols_pipeline(_labeled(30, pool.p), pool, blocks=10),
    lambda pool: fit_ols_pipeline(_labeled(30, pool.p), pool, alpha_policy="grid", blocks=10),
    lambda pool: fit_glm_pipeline(_labeled(30, pool.p), pool, elu_link(), blocks=10),
], ids=["build_moments", "center_pool", "GlmProblem", "fit_ols", "fit_ols_grid", "fit_glm"])
def test_library_calls_leave_the_callers_pool_as_it_was(call, order):
    Z = _pool_array(order)
    before = Z.copy(order="A")
    call(UnlabeledPool(Z))
    assert Z.flags.f_contiguous == (order == "F")
    assert Z.tobytes(order="A") == before.tobytes(order="A")


@pytest.mark.parametrize("order", ["C", "F"])
def test_the_interp_pipeline_leaves_the_callers_pool_as_it_was(order):
    Z = _pool_array(order, m=200, p=30)
    before = Z.copy(order="A")
    fit_interp_pipeline(_labeled(12, 30), UnlabeledPool(Z), blocks=10)
    assert Z.tobytes(order="A") == before.tobytes(order="A")


@pytest.mark.parametrize("order", ["C", "F"])
def test_centering_in_place_matches_the_copy_bit_for_bit(order):
    Z = _pool_array(order)
    copied = build_moments(UnlabeledPool(Z.copy(order="A")), 10)
    pool = _center_in_place(Z)
    assert pool.Z is Z and pool.centered
    owned = build_moments(pool, 10)
    assert owned.pool is pool
    assert owned.mean.tobytes() == copied.mean.tobytes()
    assert Z.tobytes(order="A") == copied.pool.Z.tobytes(order="A")
    assert Z.flags.f_contiguous == (order == "F")
    assert owned.Exx.tobytes() == copied.Exx.tobytes()


def test_a_pool_centered_in_place_still_rejects_non_finite_entries():
    Z = _pool_array("C")
    Z[-1, -1] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(DataValidationError, match="must be finite"):
        _center_in_place(Z)


def test_the_finiteness_check_makes_no_pool_sized_mask():
    Z = _pool_array("C", m=200_000, p=5)
    assert _peak(lambda: UnlabeledPool(Z)) < 0.01 * Z.nbytes
    for bad in (np.nan, np.inf, -np.inf):
        Z[123_457, 3] = bad
        with pytest.raises(DataValidationError, match="pool entries must be finite"):
            UnlabeledPool(Z)


def test_a_grid_points_pool_exists_once():
    # interp_growth at n = 100: a 5000 x 200 pool, drawn, centered and read
    # by build_moments and the checked factor (2.25 times the pool when the
    # draw kept its normals and centering copied)
    cfg = ExperimentConfig(preset="interp_growth")
    n, p = 100, 200
    Sigma = gen_sigma(CovarianceSpec("spiked_diagonal", p, spike_fraction=_SPIKE,
                                     minor_scale=1 / n, target_trace=25.0))
    assert _peak(lambda: _pool_point(cfg, n, Sigma, 0)) <= 1.35 * cfg.pool_size * p * 8


@pytest.fixture(scope="module")
def bench_size_files(tmp_path_factory):
    """The benchmark's fit size: a 100k x 50 .bin pool and n = 500 labeled rows."""
    tmp = tmp_path_factory.mktemp("benchfit")
    rng = seeded_rng(9)
    m, p, n = 100_000, 50, 500
    write_pool_binary(UnlabeledPool(rng.standard_normal((m, p)) + 0.5), tmp / "pool.bin")
    X = rng.standard_normal((n, p)) + 0.5
    Y = (X - 0.5) @ rng.standard_normal(p) / np.sqrt(p) + rng.standard_normal(n)
    np.savetxt(tmp / "train.csv", np.column_stack([X, Y]), delimiter=",")
    return tmp / "train.csv", tmp / "pool.bin", m * p * 8


@pytest.mark.parametrize("model", ["ols", "glm"])
def test_a_fit_holds_one_copy_of_its_pool(model, bench_size_files):
    # 2.2 times the pool when the read array and its centered copy both lived
    labeled, pool, pool_bytes = bench_size_files
    args = ["fit", "--model", model, "--labeled", str(labeled), "--pool", str(pool),
            "--blocks", "40", "--link", "elu" if model == "glm" else "identity"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        peak = _peak(lambda: main(args))
    assert '"coefficients"' in out.getvalue()
    assert peak <= 1.35 * pool_bytes
