import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mssl import (
    DataValidationError,
    LabeledSet,
    MixRisk,
    ResampleSpec,
    UnlabeledPool,
    build_moments,
    center_pool,
    gaussian_sampler,
    pool_sampler,
    resample_block,
    seeded_rng,
)


def test_labeled_set_validation():
    with pytest.raises(DataValidationError):
        LabeledSet(np.ones((2, 2)), [1.0])  # length mismatch
    with pytest.raises(DataValidationError):
        LabeledSet([[1.0, np.nan]], [1.0])
    ds = LabeledSet([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0])
    assert (ds.n, ds.p) == (2, 2)


def test_pool_centered_flag_checked():
    with pytest.raises(DataValidationError):
        UnlabeledPool(np.array([[5.0, 5.0], [5.0, 5.0]]), centered=True)
    UnlabeledPool(np.array([[1.0, -1.0], [-1.0, 1.0]]), centered=True)
    # the tolerance scales with the column max of |Z|, here its negative extreme:
    # a mean of 7e-7 passes against 1e-12 * 1e6, not against 1e-12 * 5e5
    col = np.array([-1e6, 5e5, 5e5]) + 7e-7
    for Z in (col[:, None], np.asfortranarray(np.column_stack([col, -col]))):
        UnlabeledPool(Z, centered=True)
    with pytest.raises(DataValidationError):
        UnlabeledPool(np.array([[0.0], [np.nan]]), centered=True)


def test_build_moments_hand_example():
    Z = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    mom = build_moments(UnlabeledPool(Z), n=2)
    np.testing.assert_allclose(mom.mean, [0.0, 0.0])
    np.testing.assert_allclose(mom.Exx, np.diag([0.5, 0.5]))
    np.testing.assert_allclose(mom.H, np.diag([1.0, 1.0]))


def test_build_moments_zero_pool():
    mom = build_moments(UnlabeledPool(np.zeros((3, 2))), n=3)
    np.testing.assert_array_equal(mom.Exx, np.zeros((2, 2)))


def test_build_moments_centers_and_records_mean():
    Z = np.array([[4.0, 4.0], [6.0, 6.0], [5.0, 5.0]])
    mom = build_moments(UnlabeledPool(Z), n=2)
    np.testing.assert_allclose(mom.mean, [5.0, 5.0])
    assert mom.pool.centered
    np.testing.assert_allclose(mom.pool.Z.mean(axis=0), [0.0, 0.0], atol=1e-14)


def test_centering_idempotent():
    rng = seeded_rng(3)
    Z = rng.standard_normal((50, 4)) + 2.0
    first = build_moments(UnlabeledPool(Z), n=10)
    second = build_moments(first.pool, n=10)
    assert np.max(np.abs(first.pool.Z - second.pool.Z)) <= 1e-12
    assert np.max(np.abs(first.Exx - second.Exx)) <= 1e-12


def test_h_is_exact_scaling_of_exx():
    rng = seeded_rng(4)
    mom = build_moments(UnlabeledPool(rng.standard_normal((30, 3))), n=7)
    assert np.array_equal(mom.H, 7 * mom.Exx)


def test_build_moments_rejects_tiny_pool():
    with pytest.raises(DataValidationError):
        build_moments(UnlabeledPool(np.ones((1, 2))), n=1)


def test_build_moments_rejects_an_overflowing_pool():
    # every entry is finite, but the pool Gram overflows to inf
    Z = 1e200 * seeded_rng(5).standard_normal((50, 3))
    with np.errstate(over="ignore"), pytest.raises(DataValidationError, match="not finite"):
        build_moments(UnlabeledPool(Z), n=10)


def test_center_pool_roundtrip():
    Z = np.array([[1.0, 2.0], [3.0, 4.0]])
    centered, mean = center_pool(UnlabeledPool(Z))
    np.testing.assert_allclose(mean, [2.0, 3.0])
    again, mean2 = center_pool(centered)
    assert again is centered
    np.testing.assert_array_equal(mean2, [0.0, 0.0])


def test_resample_determinism():
    rng = seeded_rng(11)
    mom = build_moments(UnlabeledPool(rng.standard_normal((4, 3))), n=2)
    spec = ResampleSpec(replications=3, seed=7)
    runs = [
        [resample_block(mom, spec, i) for i in range(spec.replications)] for _ in range(2)
    ]
    for a, b in zip(*runs):
        np.testing.assert_array_equal(a, b)


def test_resample_independent_of_consumption_order():
    rng = seeded_rng(12)
    mom = build_moments(UnlabeledPool(rng.standard_normal((10, 2))), n=4)
    spec = ResampleSpec(replications=5, seed=99)
    forward = [resample_block(mom, spec, i) for i in range(5)]
    backward = [resample_block(mom, spec, i) for i in reversed(range(5))][::-1]
    for a, b in zip(forward, backward):
        np.testing.assert_array_equal(a, b)


def test_resample_single_block_shape():
    mom = build_moments(UnlabeledPool(np.arange(12.0).reshape(6, 2)), n=3)
    spec = ResampleSpec(2, 0)
    blocks = [resample_block(mom, spec, i) for i in range(spec.replications)]
    assert len(blocks) == 2
    assert all(block.shape == (3, 2) for block in blocks)


def test_resample_block_too_large():
    mom = build_moments(UnlabeledPool(np.ones((3, 2))), n=4)
    with pytest.raises(DataValidationError, match="exceeds pool size 3"):
        resample_block(mom, ResampleSpec(2, 0), 0)


def test_resample_block_draws_n_pool_rows_at_its_stream():
    # the block is pool_sampler's draw of moments.n rows, from the generator of
    # (seed, block stream, index): the rows a plan draws do not depend on the
    # pass that draws them
    mom = build_moments(UnlabeledPool(seeded_rng(13).standard_normal((50, 3))), n=7)
    spec = ResampleSpec(4, 21)
    for i in range(spec.replications):
        rows = seeded_rng(21, 0xB10C, i).choice(50, size=7, replace=False)
        np.testing.assert_array_equal(resample_block(mom, spec, i), mom.pool.Z[rows])
        want = pool_sampler(mom.pool, 7)(seeded_rng(21, 0xB10C, i))
        np.testing.assert_array_equal(resample_block(mom, spec, i), want)


def test_resample_blocks_match_pool_moments():
    # law of large numbers: mean of (1/n) X^T X over many blocks approaches
    # the pool second-moment estimate within 3 standard errors
    rng = seeded_rng(21)
    Z = rng.standard_normal((2000, 3))
    mom = build_moments(UnlabeledPool(Z), n=20)
    spec = ResampleSpec(replications=10000, seed=5)
    blocks = (resample_block(mom, spec, i) for i in range(spec.replications))
    samples = np.array([(X.T @ X / 20)[0, 0] for X in blocks])
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    assert abs(samples.mean() - mom.Exx[0, 0]) < 3 * se


# -- the conditioning policy ---------------------------------------------------------


def test_spd_factor_matches_cho_factor_on_a_well_conditioned_matrix():
    from scipy.linalg import cho_factor

    from mssl.core import spd_factor

    X = seeded_rng(40).standard_normal((30, 6))
    G = X.T @ X
    c, lower = spd_factor(G)
    assert lower
    np.testing.assert_array_equal(np.tril(c), np.tril(cho_factor(G, lower=True)[0]))


@pytest.mark.parametrize(
    "A, rank",
    [
        (np.ones((3, 3)), 1),  # Cholesky breaks down
        (np.diag([1.0, -1.0, 1.0]), 3),  # indefinite
        (np.diag([1.0, 1e-13, 1.0]), 3),  # factors, but cond 1e13 > COND_LIMIT
    ],
)
def test_spd_factor_rejects_singular_and_ill_conditioned(A, rank):
    from mssl import SingularMatrixError
    from mssl.core import spd_factor

    with pytest.raises(SingularMatrixError, match="what") as info:
        spd_factor(A, "what")
    assert info.value.rank == rank


def test_spd_factor_accepts_a_condition_number_below_the_limit():
    from mssl.core import spd_factor

    spd_factor(np.diag([1.0, 1e-11, 1.0]))


def test_moments_cache_the_factor_of_h():
    moments = build_moments(UnlabeledPool(seeded_rng(41).standard_normal((200, 4))), 10)
    factor = moments.H_factor
    assert moments.H_factor is factor
    np.testing.assert_allclose(
        np.tril(factor[0]) @ np.tril(factor[0]).T, moments.H, rtol=1e-12
    )


# -- the block pass -----------------------------------------------------------------


def _failing_at(bad, error=None):
    """A chunk kernel (10 x each block) whose check raises on the blocks in ``bad``."""
    from mssl import SingularMatrixError
    from mssl.core import _each_block

    def check(x):
        if x in bad:
            raise error or SingularMatrixError("singular block")
        return 10 * x

    def kernel(chunk):
        ok, results = _each_block(check, chunk)
        return ok, {"x10": np.array(results, dtype=int)}

    return kernel


def test_block_pass_skips_and_counts_failing_blocks():
    from mssl.core import _block_pass

    drawn = []

    def draw(i):
        drawn.append(i)
        return i

    results, skipped = _block_pass(ResampleSpec(20, 0), draw, _failing_at({3}))
    assert drawn == list(range(20))
    assert skipped == 1
    assert list(results["x10"]) == [10 * i for i in range(20) if i != 3]
    _, skipped = _block_pass(
        ResampleSpec(20, 0), lambda i: i, _failing_at({5}, np.linalg.LinAlgError())
    )
    assert skipped == 1


def test_block_pass_hands_the_kernel_chunks_within_the_byte_budget(monkeypatch):
    import mssl.core
    from mssl.core import _block_pass

    monkeypatch.setattr(mssl.core, "_CHUNK_BYTES", 7 * 8)
    sizes = []

    def kernel(chunk):
        sizes.append(chunk.shape)
        return np.ones(len(chunk), dtype=bool), {"x": chunk[:, 0]}

    results, _ = _block_pass(ResampleSpec(20, 0), lambda i: np.array([i, -i]), kernel)
    assert sizes == [(3, 2)] * 6 + [(2, 2)]  # a block is 16 bytes
    assert list(results["x"]) == list(range(20))


@pytest.mark.parametrize("budget", [1, 1 << 30])
def test_block_pass_results_do_not_depend_on_the_chunking(budget, monkeypatch):
    import mssl.core
    from mssl.core import _block_pass

    monkeypatch.setattr(mssl.core, "_CHUNK_BYTES", budget)  # one block, or all, per chunk
    results, skipped = _block_pass(ResampleSpec(20, 0), lambda i: i, _failing_at({2, 3}))
    assert skipped == 2
    assert list(results["x10"]) == [10 * i for i in range(20) if i not in (2, 3)]


def test_block_pass_budget_is_ten_percent_of_the_blocks():
    from mssl import ResampleBudgetError
    from mssl.core import _block_pass

    spec = ResampleSpec(20, 0)
    results, skipped = _block_pass(spec, lambda i: i, _failing_at({0, 7}))
    assert (len(results["x10"]), skipped) == (18, 2)
    with pytest.raises(ResampleBudgetError, match="3/20"):
        _block_pass(spec, lambda i: i, _failing_at({0, 7, 19}))


def test_block_pass_needs_two_usable_blocks():
    # a plan has >= 2 blocks and the budget skips at most 10% of them, so
    # every pass that returns averages over 2 blocks or more
    from mssl import ResampleBudgetError
    from mssl.core import _block_pass

    for replications in (-1, 0, 1):
        with pytest.raises(DataValidationError, match="replications must be >= 2"):
            ResampleSpec(replications, 0)
    results, skipped = _block_pass(ResampleSpec(2, 0), lambda i: i, _failing_at(set()))
    assert (len(results["x10"]), skipped) == (2, 0)
    with pytest.raises(ResampleBudgetError, match="1/2"):
        _block_pass(ResampleSpec(2, 0), lambda i: i, _failing_at({1}))


def test_block_pass_lets_other_errors_through():
    from mssl.core import _block_pass

    with pytest.raises(DataValidationError, match="bad block"):
        _block_pass(
            ResampleSpec(20, 0), lambda i: i,
            _failing_at({4}, DataValidationError("bad block")),
        )


def test_block_pass_releases_each_statistics_chunks_as_it_joins_them(monkeypatch):
    # a join that held every chunk's arrays beside the joined ones would peak
    # at four joined statistics here; releasing each chunk's keeps it at three
    import mssl.core
    from mssl.core import _block_pass

    blocks, width = 400, 4000
    monkeypatch.setattr(mssl.core, "_CHUNK_BYTES", 10 * 8)  # 10 blocks a chunk

    def kernel(chunk):
        rows = np.repeat(chunk[:, None].astype(float), width, axis=1)
        return np.ones(len(chunk), dtype=bool), {"a": rows, "b": -rows}

    tracemalloc.start()
    try:
        stats, _ = _block_pass(ResampleSpec(blocks, 0), lambda i: np.array(i), kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    joined = blocks * width * 8
    np.testing.assert_array_equal(stats["b"][:, -1], -np.arange(blocks))
    assert stats["a"].nbytes == stats["b"].nbytes == joined
    assert peak < 3.5 * joined


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("m", [100, 2 * 8192 + 37])  # below one chunk; not a multiple of one
def test_weighted_gram_matches_the_one_shot_product(order, m):
    from mssl.core import _CHUNK_BYTES, _weighted_gram

    p = 16
    assert _CHUNK_BYTES // (8 * p) == 8192  # rows per chunk
    rng = seeded_rng(41)
    Z = np.asarray(rng.standard_normal((m, p)) + 0.5, order=order)
    w = rng.exponential(size=m)
    w[::7] = 0.0
    want = (Z * w[:, None]).T @ Z
    got = _weighted_gram(Z, np.sqrt(w))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
    np.testing.assert_array_equal(got, got.T)


# one chunk; then many, with remainders below and above one panel of rows, at
# the sizes of preset pools (20000 x 50, 5000 x 600) and at odd ones
@pytest.mark.parametrize("m, p", [
    (7, 3), (500, 40), (20000, 10), (20000, 50), (5000, 200), (3000, 600), (777, 333),
    (15387, 34), (24773, 221),
])
def test_gaussian_sampler_draws_the_bits_of_one_product(m, p):
    # with one BLAS thread, as the commands and presets run
    from mssl._blas import single_blas_thread
    from mssl.core import _CHUNK_BYTES

    rng = seeded_rng(m, p)
    A = rng.standard_normal((p + 5, p))
    Sigma = A.T @ A / p + 0.1 * np.eye(p)
    with single_blas_thread():
        draw = gaussian_sampler(Sigma, m)
        want = seeded_rng(1).standard_normal((m, p)) @ np.linalg.cholesky(Sigma).T
        got = draw(seeded_rng(1))
        tracemalloc.start()
        try:
            draw(seeded_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    if m * p * 8 > 2 * _CHUNK_BYTES:  # many chunks: the normals never exist at once
        assert peak <= m * p * 8 + 1.2 * _CHUNK_BYTES


# -- the coefficient mix's risk quadratic ------------------------------------------

# entries on a 1e-3 lattice in [-10, 10]: products of two terms stay clear of underflow
_vectors = st.lists(st.integers(-10_000, 10_000), min_size=3, max_size=3).map(
    lambda k: np.array(k) / 1000.0
)


def _gram_risk(e0, e1, scale=1.0):
    """MixRisk of the errors e0 (alpha = 0) and e1 (alpha = 1), negative terms within noise."""
    r00, r11, r01 = e0 @ e0, e1 @ e1, e0 @ e1
    gain, cost = r00 - r01, r11 - r01
    return MixRisk(scale * r01, scale * gain, scale * cost,
                   se_gain=scale * abs(gain), se_cost=scale * abs(cost))


@given(_vectors, _vectors)
@settings(max_examples=200, deadline=None)
def test_mix_risk_ratio_minimizes_the_curve(e0, e1):
    risk = _gram_risk(e0, e1)
    alphas = np.linspace(0.0, 1.0, 2001)
    scale = e0 @ e0 + e1 @ e1
    tol = 1e-12 * scale
    assert 0.0 <= risk.ratio <= 1.0
    assert risk.curve(risk.ratio) <= risk.curve(alphas).min() + tol
    # clipping a term negative within noise gives the minimizer over [0, 1] of
    # the risk of the actual mix, |(1 - alpha) e0 + alpha e1|^2
    mixed = np.sum(((1.0 - alphas)[:, None] * e0 + alphas[:, None] * e1) ** 2, axis=1)
    at_ratio = np.sum(((1.0 - risk.ratio) * e0 + risk.ratio * e1) ** 2)
    assert at_ratio <= mixed.min() + 1e-9 * scale
    assert risk.minimum == pytest.approx(risk.curve(risk.ratio), rel=1e-12, abs=tol)


@given(_vectors, _vectors)
@settings(max_examples=200, deadline=None)
def test_mix_risk_swapping_gain_and_cost_mirrors_the_ratio(e0, e1):
    risk = _gram_risk(e0, e1)
    swapped = MixRisk(risk.floor, risk.cost, risk.gain, risk.se_cost, risk.se_gain)
    if risk.gain > 0.0 or risk.cost > 0.0:
        assert swapped.ratio == pytest.approx(1.0 - risk.ratio, abs=1e-12)
    else:  # the flat case picks 0 both ways
        assert risk.ratio == swapped.ratio == 0.0


@given(_vectors, _vectors, st.floats(1e-6, 1e6))
@settings(max_examples=200, deadline=None)
def test_mix_risk_ratio_is_scale_free(e0, e1, c):
    assert _gram_risk(e0, e1, c).ratio == pytest.approx(_gram_risk(e0, e1).ratio, abs=1e-12)


def test_mix_risk_raises_beyond_three_ses_and_clips_within():
    assert MixRisk(1.0, -0.29, 1.0, se_gain=0.1).ratio == 0.0
    assert MixRisk(1.0, 1.0, -0.29, se_cost=0.1).ratio == 1.0
    for risk in (MixRisk(1.0, -0.31, 1.0, se_gain=0.1), MixRisk(1.0, 1.0, -1e-12),
                 MixRisk(1.0, float("nan"), 1.0)):
        with pytest.raises(DataValidationError, match="beyond 3 Monte Carlo SEs"):
            risk.ratio
    raw = MixRisk(0.0, -0.25, 1.25, se_gain=1.0)
    assert (raw.raw, raw.ratio, raw.terms) == (-0.25, 0.0, (0.0, 1.25))


def test_mix_risk_flat_case():
    # no gain and no cost: every ratio attains the floor, and the rule picks 0
    risk = MixRisk(2.0, 0.0, -0.0)
    assert (risk.ratio, risk.raw, risk.minimum) == (0.0, 0.0, 2.0)
    np.testing.assert_array_equal(risk.curve([0.0, 0.5, 1.0]), [2.0, 2.0, 2.0])
    assert risk.eta == 1.0
    # no noise: the first estimator's risk is 0, and so is the best mix's
    assert MixRisk.from_factors(0.0, 1.0, 2.0, 0.5, 0.5).eta == 1.0
