"""Covariance generators, dataset draws, and the Monte Carlo experiment engine.

Each preset reproduces one synthetic study at desk scale: estimators are
refit on K seeded training draws, errors are aggregated with standard
errors, and every estimator pair gets a paired t-test.  Replications are
pure functions of (seed, grid index, replication index), so results are
bit-reproducible from the seed.  ``_run_reps`` shares them out by index
between this process and children forked from it, one process per CPU in
the affinity mask: they are bound by the interpreter, so threads would
only contend, while forked workers inherit what a grid point's
replications share copy-on-write.  A loop whose first replication shows
that the rest would take under ``_FORK_MIN_S`` stays in this process.  The
results are the same bits for any number of processes.

Each preset is one row of data in ``_ROWS``: its runner, the grid it sweeps,
the trace its covariance is scaled to, and the default of every optional
config field it reads.  ``ExperimentConfig`` resolves itself against that
row, and ``_grid`` gives each point of an n or sigma2 sweep its (n, sigma2).
The two interpolator presets share one runner.

Presets are compositions of the library.  A grid point builds what its
replications share (pool moments with the cached factor of H, resampled pool
statistics, oracle ratios, the factor of the pool covariance).  A replication
draws X through ``pool_sampler``/``gaussian_sampler`` and builds its family's
per-sample object, the one ``mssl fit`` uses (``OlsSample``, ``GlmSample``,
``InterpSample``).  One table per family maps each estimator name to a fit of
that object and the grid point's data, checked before any replication runs.
"""

from __future__ import annotations

import csv
import math
import os
import pickle
import select
import signal
import struct
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._blas import single_blas_thread
from .core import (
    LabeledSet, MixRisk, ResampleSpec, UnlabeledPool, build_moments, gaussian_sampler,
    pool_sampler, seeded_rng, spd_factor,
)
from .errors import DataValidationError, MsslError
from .glm import GlmPoolStats, GlmSample
from .interp import InterpRiskTerms, InterpSample, interp_risk_terms
from .links import LinkSpec, elu_link, identity_link
from .ols import OlsPoolModel, OlsSample
from .asymptotics import AsymptoticSetting, interp_limits

__all__ = [
    "CovarianceSpec", "BetaMode", "constant_beta", "random_beta", "ExperimentConfig",
    "ResultRow", "PairRow", "PairSummary", "ExperimentResult", "gen_sigma",
    "summarize_pairwise", "run_experiment", "write_result_csv", "load_config", "preset_names",
    "PRESETS",
]

# RNG stream tags
_S_POOL = 1
_S_REP = 2
_S_TERMS = 3
_S_REPBLOCKS = 4
_S_EVAL = 5

_IDENTITY = identity_link()


def _derive_seed(seed: int, *idx: int) -> int:
    """Collapse (seed, indices) into a single integer sub-seed."""
    ss = np.random.SeedSequence((int(seed),) + tuple(int(i) for i in idx))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# covariance generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceSpec:
    """Recipe for a p x p covariance matrix.

    kinds: "block_equicorrelated" (equal-size blocks, pairwise correlation
    rho inside each) or "spiked_diagonal" (unit variances on the first
    spike_fraction of coordinates, minor_scale elsewhere).  ``target_trace``
    rescales the result.
    """

    kind: str
    p: int
    blocks: int = 1
    rho: float = 0.0
    spike_fraction: float = 0.8
    minor_scale: float = 0.0
    target_trace: float | None = None


def gen_sigma(spec: CovarianceSpec) -> np.ndarray:
    if spec.p < 1:
        raise DataValidationError("p must be positive")
    if spec.kind == "block_equicorrelated":
        if spec.p % spec.blocks != 0:
            raise DataValidationError(f"p={spec.p} not divisible by blocks={spec.blocks}")
        bs = spec.p // spec.blocks
        lo = -1.0 / (bs - 1) if bs > 1 else -1.0
        if not lo < spec.rho < 1.0:
            raise DataValidationError(
                f"rho={spec.rho} outside ({lo:.4g}, 1) makes the block non-PSD"
            )
        block = np.full((bs, bs), spec.rho)
        np.fill_diagonal(block, 1.0)
        sigma = np.kron(np.eye(spec.blocks), block)
    elif spec.kind == "spiked_diagonal":
        if not 0.0 < spec.spike_fraction <= 1.0:
            raise DataValidationError("spike_fraction must be in (0, 1]")
        if spec.minor_scale < 0:
            raise DataValidationError("minor_scale must be nonnegative")
        n_major = int(round(spec.spike_fraction * spec.p))
        diag = np.full(spec.p, spec.minor_scale)
        diag[:n_major] = 1.0
        sigma = np.diag(diag)
    else:
        raise DataValidationError(f"unknown covariance kind {spec.kind!r}")
    if spec.target_trace is not None:
        sigma = sigma * (spec.target_trace / np.trace(sigma))
    return sigma



# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaMode:
    """Coefficient mechanism: every entry equal to a constant, or iid draws."""

    kind: str  # "constant" | "random_iid"
    value: float


def constant_beta(c: float) -> BetaMode:
    return BetaMode("constant", float(c))


def random_beta(tau: float) -> BetaMode:
    return BetaMode("random_iid", float(tau))


def _label(X: np.ndarray, beta_mode: BetaMode, link: LinkSpec, sigma2: float, rng):
    """Draw the coefficients, then Y = g(X beta) + Gaussian noise, from rng."""
    n, p = X.shape
    if beta_mode.kind == "constant":
        beta = np.full(p, beta_mode.value)
    elif beta_mode.kind == "random_iid":
        beta = beta_mode.value * rng.standard_normal(p)
    else:
        raise DataValidationError(f"unknown beta mode {beta_mode.kind!r}")
    Y = link.g(X @ beta) + math.sqrt(sigma2) * rng.standard_normal(n)
    return LabeledSet(X, Y), beta


# ---------------------------------------------------------------------------
# pairwise summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairSummary:
    mean: float
    se: float
    t: float
    p: float


def summarize_pairwise(diffs) -> PairSummary:
    """Two-sided paired t-test summary of a vector of differences.

    Degenerate zero-variance inputs use the conventions p = 0 for a nonzero
    mean and p = 1 for an identically zero difference.
    """
    d = np.asarray(diffs, dtype=float)
    if d.size < 2:
        raise DataValidationError("need at least 2 paired differences")
    mean = float(d.mean())
    se = float(d.std(ddof=1) / math.sqrt(d.size))
    if se == 0.0:
        if mean == 0.0:
            return PairSummary(mean=0.0, se=0.0, t=0.0, p=1.0)
        return PairSummary(mean=mean, se=0.0, t=math.copysign(math.inf, mean), p=0.0)
    t = mean / se
    # the in-house tail matches scipy.special.stdtr to about 3e-13 relative
    # (down to p = 1e-300), and spares each simulate process the import of
    # scipy.special, which costs more than all of mssl's own start-up
    return PairSummary(mean=mean, se=se, t=float(t), p=2.0 * _t_tail(d.size - 1, t))


_LOG_SQRT_PI = 0.5 * math.log(math.pi)


def _t_tail(df: int, t: float) -> float:
    """P(T > |t|) for Student's t with df degrees of freedom: I_x(df/2, 1/2) / 2.

    x = df / (df + t^2) and y = t^2 / (df + t^2) are formed separately, so
    that y keeps its precision as t -> 0, and x^a y^(1/2) / B(a, 1/2) is taken
    in logs with a log x = -a log1p(t^2 / df).
    """
    if math.isnan(t):
        return math.nan
    t2 = t * t
    if math.isinf(t2):
        return 0.0
    x, y = df / (df + t2), t2 / (df + t2)
    if y == 0.0:
        return 0.5
    a = 0.5 * df
    front = math.exp(-a * math.log1p(t2 / df) + 0.5 * math.log(y) - _log_beta_half(a))
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * front * _beta_cf(a, 0.5, x, y) / a
    # I_x(a, 1/2) = 1 - I_y(1/2, a), where the fraction in y converges fast
    return 0.5 - front * _beta_cf(0.5, a, y, x)


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2), from log G(a + 1/2) - log G(a) without cancellation."""
    if a < 30.0:
        return _LOG_SQRT_PI - (math.lgamma(a + 0.5) - math.lgamma(a))
    r = 1.0 / (a * a)
    series = (((17.0 / 14336.0 * r - 1.0 / 640.0) * r + 1.0 / 192.0) * r - 0.125) / a
    return _LOG_SQRT_PI - (0.5 * math.log(a) + series)


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """Continued fraction of I_x(a, b) (DLMF 8.17.22), with y = 1 - x.

    It is summed from its last term back, with 16, 32, 64, ... terms until two
    sums agree.  Forward (Lentz) evaluation loses about a * eps as x -> 1:
    1.3e-12 against stdtr at df = 9999.  For x > 1/2 an odd step forms
    1 - c x / (den u) as ((den - c) + c y + den (u - 1)) / (den u), where
    den - c is exact, so that 1 is never cancelled against c x / (den u).
    """
    prev = math.inf
    for n in (16 << i for i in range(12)):
        u = 1.0
        for k in range(n, 0, -1):
            m = k // 2
            den = (a + k - 1.0) * (a + k)
            if k % 2 == 0:
                u = 1.0 + m * (b - m) * x / (den * u)
                continue
            c = (a + m) * (a + b + m)
            if x > 0.5:
                u = ((den - c) + c * y + den * (u - 1.0)) / (den * u)
            else:
                u = 1.0 - c * x / (den * u)
        if abs(1.0 - prev * u) <= 1e-13:
            return 1.0 / u
        prev = 1.0 / u
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, x={x})")


# ---------------------------------------------------------------------------
# experiment configuration and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Preset name plus the knobs of the presets.

    The optional fields (default None) are resolved from the preset's row in
    ``_ROWS``: an unset field takes the row's default, and a set field the row
    lacks is rejected, since the preset would not read it.  A name without a
    row is left unresolved, and ``run_experiment`` rejects it unless
    ``PRESETS`` maps it to a runner.  ``eval_cov`` picks the quadratic form
    used for reducible errors ("pool" moments or the "true" generating
    covariance); ``rep_blocks`` is the per-replication resampling budget for
    data-driven mixing ratios, ``resample_blocks`` the one-time budget for
    pool-level statistics.
    """

    preset: str
    k: int = 1000
    seed: int = 0
    n: int | None = None
    n_grid: tuple[int, ...] | None = None
    p_rule: str | None = None
    sigma2_grid: tuple[float, ...] | None = None
    pool_size: int | None = None
    # a rejection names unread fields in field order
    x_source: str | None = None
    eval_cov: str | None = None
    estimators: tuple[str, ...] | None = None
    resample_blocks: int = 200
    rep_blocks: int | None = None
    alpha_grid_size: int | None = None

    def __post_init__(self):
        # an SE needs 2 replications, a block pass 2 usable blocks, a ratio grid 2 ends
        for name, low in (("k", 2), ("rep_blocks", 2), ("resample_blocks", 2),
                          ("alpha_grid_size", 2), ("n", 1), ("pool_size", 1), ("n_grid", 1)):
            values = getattr(self, name)
            values = values if isinstance(values, tuple) else (values,)
            if any(v is not None and v < low for v in values):
                raise DataValidationError(f"{name} must be >= {low}")
        for name in ("sigma2_grid", "n_grid", "estimators"):
            if getattr(self, name) == ():
                raise DataValidationError(f"{name} must be nonempty")
        if self.eval_cov not in (None, "pool", "true"):
            raise DataValidationError("eval_cov must be 'pool' or 'true'")
        if self.x_source not in (None, "pool", "gaussian"):
            raise DataValidationError("x_source must be 'pool' or 'gaussian'")
        row = _ROWS.get(self.preset)
        if row is None:
            return
        ignored = [f.name for f in fields(self) if f.default is None
                   and getattr(self, f.name) is not None and f.name not in row.defaults]
        if ignored:
            raise DataValidationError(f"{self.preset} does not read {', '.join(ignored)}")
        for name, value in row.defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        if row.sweep != "sigma2" and len(self.sigma2_grid) > 1:
            raise DataValidationError(
                f"{self.preset} runs at one sigma2 and does not sweep sigma2_grid; give one value"
            )


@dataclass(frozen=True)
class ResultRow:
    estimator: str
    grid_name: str
    grid_value: float
    mean_error: float
    se: float
    k_effective: int


@dataclass(frozen=True)
class PairRow:
    estimator_a: str
    estimator_b: str
    grid_value: float
    mean_diff: float
    se_diff: float
    t: float
    p: float


@dataclass(frozen=True)
class ExperimentResult:
    preset: str
    grid_name: str
    rows: tuple[ResultRow, ...]
    paired: tuple[PairRow, ...]
    extras: dict = field(default_factory=dict)


def _p_from_rule(rule: str, n: int) -> int:
    kind, _, arg = rule.partition(":")
    try:
        if kind == "fixed":
            return int(arg)
        if kind == "ratio":
            return int(round(float(arg) * n))
    except ValueError as exc:
        raise DataValidationError(f"bad p rule {rule!r}: {exc}") from exc
    raise DataValidationError(f"unknown p rule {rule!r}")


def _run_reps(cfg: ExperimentConfig, rep_fn, k: int):
    """Run replications 0..k-1, tolerating up to 5% failures.

    A replication that raises MsslError or LinAlgError is dropped; above the
    budget the run aborts with the count of each exception class.  Any other
    exception is raised, that of the lowest index first, as a loop over
    0..k-1 would raise it.

    The indices are shared by W processes (``_run_shares``): this one runs
    i = 0 (mod W) and W - 1 children forked from it run one other residue
    each.  Each replication is a pure function of its index, so the merged
    results are identical for any W.
    """
    outcomes = _run_shares(rep_fn, k)
    errors = [i for i, (kind, _) in outcomes.items() if kind == _ERROR]
    if errors:
        raise outcomes[min(errors)][1]
    ok = [outcomes[i][1] for i in range(k) if outcomes[i][0] == _OK]
    n_failed = k - len(ok)
    if n_failed > 0.05 * k:
        failed = Counter(value for kind, value in outcomes.values() if kind == _DROPPED)
        causes = ", ".join(f"{name}: {count}" for name, count in sorted(failed.items()))
        raise RuntimeError(f"{cfg.preset}: {n_failed}/{k} replications failed ({causes})")
    return ok


# what a replication came to: its result, the class name of the MsslError or
# LinAlgError it was dropped for, or any other exception it raised
_OK, _DROPPED, _ERROR = "ok", "dropped", "error"
_FRAME = struct.Struct("<Q")  # the byte length of each pickled outcome a worker sends
# the least time the replications after the first must be expected to take
# in one process before workers are forked for them: a fork and the pages
# the processes then copy cost several milliseconds, and a fresh process's
# first worker may share its CPU for a while
_FORK_MIN_S = 0.1


def _cpu_count() -> int:
    """The CPUs this process may run on (its affinity mask, where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _workers(k: int, first_s: float) -> int:
    """Processes for k replications, the first of which took ``first_s``:
    one per CPU, at most k.  One where the other k - 1 would take less than
    ``_FORK_MIN_S`` at that pace, without ``os.fork``, or while another
    Python thread is alive, since a thread may hold a lock the forked child
    would then never see released."""
    if ((k - 1) * first_s < _FORK_MIN_S or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return 1
    return min(k, _cpu_count())


def _attempt(rep_fn, i: int) -> tuple:
    try:
        return _OK, rep_fn(i)
    except (MsslError, np.linalg.LinAlgError) as exc:
        return _DROPPED, type(exc).__name__
    except Exception as exc:
        return _ERROR, exc


class _Share:
    """A forked worker running the indices r, r + w, ... below k."""

    def __init__(self, pid: int, fd: int, r: int):
        self.pid, self.fd, self.next = pid, fd, r
        self.buf = bytearray()
        self.open = True  # not yet at EOF, and so not yet reaped
        self.stopped = False  # it sent an error and runs no further index


def _run_shares(rep_fn, k: int) -> dict:
    """{index: outcome} of replications 0..k-1; indices that no process ran,
    after an error, are missing.

    This process runs replication 0 and, from its time, picks the number of
    processes W (``_workers``).  It then forks W - 1 workers, which inherit
    everything the replications share copy-on-write.  Each sends its
    outcomes through a pipe as it goes, and this process reads them between
    its own replications.  After an error in its own share at index i, it
    needs the workers' outcomes below i only.  Every worker is reaped before
    this returns or raises; one that is still running then is killed first.
    """
    if k < 1:
        return {}
    start = time.perf_counter()
    outcomes = {0: _attempt(rep_fn, 0)}
    if outcomes[0][0] == _ERROR:
        return outcomes
    w = _workers(k, time.perf_counter() - start)
    shares: list[_Share] = []
    parent = os.getpid()
    try:
        for r in range(1, w):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(rep_fn, range(r, k, w), write_fd, [read_fd] + [s.fd for s in shares])
            os.close(write_fd)
            shares.append(_Share(pid, read_fd, r))
        # stop: the lowest index known to have raised an error, else k
        stop = k
        for i in range(w, k, w):
            outcomes[i] = _attempt(rep_fn, i)
            if outcomes[i][0] == _ERROR:
                stop = i
            stop = _receive(shares, outcomes, stop, w, timeout=0.0)
            if stop < i + w:
                break
        while True:
            waiting = [s for s in shares if s.open and (s.next < stop or stop == k)]
            if not waiting:
                return outcomes
            stop = _receive(waiting, outcomes, stop, w, timeout=None)
    finally:
        if os.getpid() != parent:  # a worker that got here before its own try
            os._exit(1)
        for share in shares:
            if share.open:
                os.close(share.fd)
                os.kill(share.pid, signal.SIGKILL)
                os.waitpid(share.pid, 0)


def _receive(shares: list[_Share], outcomes: dict, stop: int, w: int, timeout) -> int:
    """Read what the workers have sent, waiting up to ``timeout`` (None:
    until one of them sends), and return ``stop`` lowered to any error index
    received.  A worker that ends before it has run every index of its share
    below ``stop`` raises RuntimeError."""
    if not shares:
        return stop
    ready, _, _ = select.select([s.fd for s in shares if s.open], [], [], timeout)
    for share in shares:
        if not share.open or share.fd not in ready:
            continue
        data = os.read(share.fd, 1 << 16)
        share.buf += data
        while len(share.buf) >= _FRAME.size:
            end = _FRAME.size + _FRAME.unpack_from(share.buf)[0]
            if len(share.buf) < end:
                break
            i, kind, value = pickle.loads(share.buf[_FRAME.size:end])
            del share.buf[:end]
            outcomes[i] = (kind, value)
            share.next = i + w
            if kind == _ERROR:
                share.stopped, stop = True, min(stop, i)
        if not data:
            os.close(share.fd)
            share.open = False
            _, status = os.waitpid(share.pid, 0)
            if not share.stopped and share.next < stop:
                raise RuntimeError(
                    f"replication worker {share.pid} ended (wait status {status}) with "
                    f"replication {share.next} and later ones of its share not run"
                )
    return stop


def _worker(rep_fn, indices: range, fd: int, inherited: list[int]):
    """Run one share in a forked child and send each outcome to ``fd``.

    It first closes the read ends it inherited, so that its writes fail
    once the parent is gone.  It leaves only through ``os._exit``, so that
    it never returns into its caller's frames (a CSV writer, a tracer's
    dump) nor runs exit handlers.
    """
    status = 1
    try:
        for other in inherited:
            os.close(other)
        for i in indices:
            kind, value = _attempt(rep_fn, i)
            try:
                payload = pickle.dumps((i, kind, value), pickle.HIGHEST_PROTOCOL)
                if kind == _ERROR:
                    pickle.loads(payload)  # an exception class must rebuild from its args
            except Exception as exc:
                kind, value = _ERROR, RuntimeError(
                    f"replication {i}: its outcome could not be sent from a worker process: "
                    f"{type(exc).__name__}: {exc}"
                )
                payload = pickle.dumps((i, kind, value), pickle.HIGHEST_PROTOCOL)
            message = memoryview(_FRAME.pack(len(payload)) + payload)
            while message:
                message = message[os.write(fd, message):]
            if kind == _ERROR:
                break
        status = 0
    finally:
        os._exit(status)


def _aggregate(
    grid_name: str, grid_value: float, per_rep: list[dict], estimators: list[str]
) -> tuple[list[ResultRow], list[PairRow]]:
    errs = {name: np.asarray([r[name] for r in per_rep]) for name in estimators}
    k_eff = len(per_rep)
    rows = [
        ResultRow(name, grid_name, grid_value, float(errs[name].mean()),
                  float(errs[name].std(ddof=1) / math.sqrt(k_eff)), k_eff)
        for name in estimators
    ]
    pairs = []
    for a, b in combinations(estimators, 2):
        s = summarize_pairwise(errs[a] - errs[b])
        pairs.append(PairRow(a, b, grid_value, s.mean, s.se, s.t, s.p))
    return rows, pairs


def _quad_err(L_eval: np.ndarray, diff: np.ndarray) -> float:
    u = L_eval.T @ diff
    return float(u @ u)


def _alpha_curve(coeffs: np.ndarray, alphas: np.ndarray, n_batches: int = 10) -> dict:
    """The mean mixed-coefficient error curve on a ratio grid, and its argmins.

    ``coeffs`` has one (a, b, c) row per replication for r(alpha) =
    a alpha^2 + b alpha + c, which is the ``MixRisk`` with floor c + b/2,
    gain -b/2 and cost a + b/2.  The continuous argmin is the ratio of the
    mean terms, with their SEs over the replications; it gets a batch-based SE.
    """
    a, b, c = coeffs.T
    terms = np.column_stack([c + b / 2.0, -b / 2.0, a + b / 2.0])  # floor, gain, cost
    spread = terms[:, 1:].std(axis=0, ddof=1)

    def argmin(rows: np.ndarray) -> float:
        se = spread / math.sqrt(rows.size)
        return MixRisk(*terms[rows].mean(axis=0), se_gain=se[0], se_cost=se[1]).ratio

    mean_r = a.mean() * alphas**2 + b.mean() * alphas + c.mean()
    vals = [argmin(rows) for rows in np.array_split(np.arange(len(coeffs)), n_batches) if rows.size]
    return {
        "alphas": alphas,
        "mean_r": mean_r,
        "argmin_grid": float(alphas[int(np.argmin(mean_r))]),
        "argmin_cont": argmin(np.arange(len(coeffs))),
        "argmin_se": float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0,
    }


def _select(cfg: ExperimentConfig, table: dict, parse=None):
    """(name, fit) of each requested estimator, checked before any replication.

    The preset's default set, its row's ``estimators``, is mapped to fits by
    ``table``; ``parse`` resolves other names (fixed mixing ratios) or returns
    None.
    """
    names = _ROWS[cfg.preset].defaults["estimators"]
    fits = [
        (name, table[name] if name in names else parse and parse(name))
        for name in cfg.estimators
    ]
    for name, fit in fits:
        if fit is None:
            raise DataValidationError(
                f"unknown estimator {name!r} for preset {cfg.preset!r}; "
                f"available: {', '.join(names)}"
            )
    return fits


def _grid(cfg, fits, run_point, extras: dict) -> ExperimentResult:
    """Aggregate ``run_point(gi, n, sigma2)`` over the grid the preset's row sweeps.

    A point runs at its grid value and at the config's one value of the other
    variable.  ``run_point`` returns the point's replications and its extras;
    each extra is filed under the grid value.
    """
    sweep = _ROWS[cfg.preset].sweep
    estimators = [name for name, _ in fits]
    rows, paired = [], []
    for gi, value in enumerate(getattr(cfg, f"{sweep}_grid")):
        n, sigma2 = (value, cfg.sigma2_grid[0]) if sweep == "n" else (cfg.n, value)
        per_rep, point_extras = run_point(gi, n, sigma2)
        for key, v in point_extras.items():
            extras.setdefault(key, {})[value] = v
        r, pr = _aggregate(sweep, value, per_rep, estimators)
        rows += r
        paired += pr
    return ExperimentResult(cfg.preset, sweep, tuple(rows), tuple(paired), extras)


def _block_sigma(cfg, p: int) -> np.ndarray:
    """The block-equicorrelated covariance of the OLS and GLM presets."""
    return gen_sigma(CovarianceSpec("block_equicorrelated", p, blocks=5, rho=0.9,
                                    target_trace=_ROWS[cfg.preset].trace))


def _gaussian_pool(seed: int, m: int, Sigma: np.ndarray, *idx: int) -> UnlabeledPool:
    return UnlabeledPool(gaussian_sampler(Sigma, m)(seeded_rng(seed, _S_POOL, *idx)))


def _pool_point(cfg, n: int, Sigma: np.ndarray, *idx: int):
    """The Gaussian pool of a grid point and what its replications share.

    Returns the pool moments, the resampling plan of the pool statistics, the
    factor of the covariance errors are measured in, and the design sampler
    (pool rows, or fresh Gaussians when ``x_source`` says so).
    """
    moments = build_moments(_gaussian_pool(cfg.seed, cfg.pool_size, Sigma, *idx), n)
    spec = ResampleSpec(cfg.resample_blocks, _derive_seed(cfg.seed, _S_TERMS, *idx))
    L_eval = np.linalg.cholesky(Sigma if cfg.eval_cov == "true" else moments.Exx)
    draw_x = pool_sampler(moments.pool, n) if cfg.x_source == "pool" else gaussian_sampler(Sigma, n)
    return moments, spec, L_eval, draw_x


def _relative_errors(per_rep: list[dict], fits, base: str) -> dict[str, float]:
    """Mean error of each estimator over that of ``base``; empty without ``base``."""
    means = {name: float(np.mean([r[name] for r in per_rep])) for name, _ in fits}
    return {name: e / means[base] for name, e in means.items()} if base in means else {}


# ---------------------------------------------------------------------------
# OLS presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _OlsPoint:
    """What the replications of one OLS grid point share besides the pool model:
    the oracle ratios, and for random coefficients b_u and the bias tau^2 b_u
    (the estimated ratio then takes the plug-in bias tau_hat^2 b_u)."""

    model: OlsPoolModel
    alpha_star: float
    alpha_ddot: float | None = None
    b_u: float | None = None
    bias_tau: float | None = None

    def alpha_est(self, s: OlsSample) -> float:
        return s.alpha_hat if self.b_u is None else s.ratio(s.tau2_hat * self.b_u)


# each fit maps (OlsSample, _OlsPoint) to coefficients
_OLS_FITS = {
    "supervised": lambda s, pt: s.beta_hat,
    "semisupervised": lambda s, pt: s.beta_breve,
    "linear_mixed_opt": lambda s, pt: s.linear(pt.alpha_star),
    "linear_mixed_est": lambda s, pt: s.linear(pt.alpha_est(s)),
    "linear_mixed_est_tau": lambda s, pt: s.linear(s.ratio(pt.bias_tau)),
    # the pure fit of lower formula risk: beta_breve when the gain exceeds the cost
    "adaptive_select": lambda s, pt: s.beta_breve if s.alpha_hat > 0.5 else s.beta_hat,
    "loss_mixed_est": lambda s, pt: s.loss(s.alpha_hat),
    "loss_mixed_grid": lambda s, pt: s.loss(s.alpha_grid),
    "loss_mixed_opt": lambda s, pt: s.loss(pt.alpha_ddot),
}


def _ols_fixed_mix(name: str):
    """The fit of ``linear_mixed(a)`` or ``loss_mixed(a)``, a fixed ratio a.

    The ratio is checked here, before any replication runs, against what the
    library fit accepts: any finite a for the coefficient mix, a in [0, 1]
    for the loss mix.
    """
    for prefix, mix in (("linear_mixed(", OlsSample.linear), ("loss_mixed(", OlsSample.loss)):
        if name.startswith(prefix) and name.endswith(")"):
            try:
                a = float(name[len(prefix):-1])
            except ValueError:
                return None
            if not math.isfinite(a) or (mix is OlsSample.loss and not 0.0 <= a <= 1.0):
                raise DataValidationError(
                    f"estimator {name!r}: the ratio must be finite, and in [0, 1] for loss_mixed"
                )
            return lambda s, pt: mix(s, a)
    return None


def _ols_reps(cfg, gi, point, draw_x, beta_mode, sigma2, fits, L_eval) -> list[dict]:
    """The K replications of one OLS grid point.

    Besides the estimator errors, each returns the quadratic coefficients of
    its mixed-coefficient error curve under ``_curve``.
    """

    def rep(k: int) -> dict:
        rng = seeded_rng(cfg.seed, _S_REP, gi, k)
        data, beta = _label(draw_x(rng), beta_mode, _IDENTITY, sigma2, rng)
        s = OlsSample(data, point.model)
        out = {name: _quad_err(L_eval, fit(s, point) - beta) for name, fit in fits}
        u0 = L_eval.T @ (s.beta_hat - beta)
        d = L_eval.T @ (s.beta_breve - beta) - u0
        out["_curve"] = (float(d @ d), float(2.0 * u0 @ d), float(u0 @ u0))
        return out

    return _run_reps(cfg, rep, cfg.k)


def _run_ols_constant(cfg: ExperimentConfig) -> ExperimentResult:
    fits = _select(cfg, _OLS_FITS, _ols_fixed_mix)
    p = _p_from_rule(cfg.p_rule, cfg.n)
    Sigma = _block_sigma(cfg, p)
    beta_mode = constant_beta(1.5)
    beta_true = np.full(p, beta_mode.value)
    moments, spec, L_eval, draw_x = _pool_point(cfg, cfg.n, Sigma)
    # uniform grid for the measured mixed-coefficient curve; a zero-anchored
    # geometric grid for the loss-mixed search (the best ratio can sit well
    # below one uniform step at low noise)
    alphas = np.linspace(0.0, 1.0, cfg.alpha_grid_size)
    ddot_grid = np.concatenate([[0.0], np.geomspace(2e-4, 1.0, cfg.alpha_grid_size - 1)])
    model = OlsPoolModel(moments, spec, grid=ddot_grid)
    B_true = model.bias_at(beta_true)

    def run_point(gi: int, n: int, sigma2: float):
        point = _OlsPoint(
            model,
            alpha_star=model.risk(sigma2, B_true).ratio,
            alpha_ddot=model.ddot.argmin_alpha(beta_true, sigma2),
        )
        per_rep = _ols_reps(cfg, gi, point, draw_x, beta_mode, sigma2, fits, L_eval)
        coeffs = np.asarray([rep["_curve"] for rep in per_rep])
        return per_rep, {"alpha_star": point.alpha_star, "alpha_ddot_oracle": point.alpha_ddot,
                         "alpha_curve": _alpha_curve(coeffs, alphas)}

    extras = {"terms": {"v_l": model.v_l, "v_u": model.v_u, "b_u": model.b_u_hat},
              "B_true": B_true}
    return _grid(cfg, fits, run_point, extras)


def _run_ols_random(cfg: ExperimentConfig) -> ExperimentResult:
    tau2 = 1.0
    beta_mode = random_beta(math.sqrt(tau2))
    fits = _select(cfg, _OLS_FITS)

    def run_point(gi: int, n: int, sigma2: float):
        Sigma = _block_sigma(cfg, _p_from_rule(cfg.p_rule, n))
        moments, spec, L_eval, draw_x = _pool_point(cfg, n, Sigma, gi)
        model = OlsPoolModel(moments, spec, keep_blocks=False)
        b_u = model.b_u_hat
        risk = model.risk(sigma2, tau2 * b_u)
        point = _OlsPoint(model, alpha_star=risk.ratio, b_u=b_u, bias_tau=tau2 * b_u)
        per_rep = _ols_reps(cfg, gi, point, draw_x, beta_mode, sigma2, fits, L_eval)
        return per_rep, {"alpha_star": risk.ratio, "eta_theory": risk.eta,
                         "terms": {"v_l": model.v_l, "v_u": model.v_u, "b_u": b_u},
                         "eta_measured": _relative_errors(per_rep, fits, "supervised")}

    return _grid(cfg, fits, run_point, {})


# ---------------------------------------------------------------------------
# GLM presets
# ---------------------------------------------------------------------------


class _GlmOracle(NamedTuple):
    """Oracle ratios: the clipped formula (coefficient mix) and the grid (loss mix)."""

    alpha_dot: float
    alpha_ddot: float


# each fit maps (GlmSample, _GlmOracle) to coefficients
_GLM_FITS = {
    "supervised": lambda s, o: s.beta_hat,
    "semisupervised": lambda s, o: s.beta_breve,
    "linear_mixed_est": lambda s, o: s.linear(s.alpha_hat),
    "linear_mixed_opt": lambda s, o: s.linear(o.alpha_dot),
    "loss_mixed_est": lambda s, o: s.loss(s.alpha_hat),
    "loss_mixed_grid": lambda s, o: s.loss(s.alpha_grid),
    "loss_mixed_opt": lambda s, o: s.loss(o.alpha_ddot),
}
# glm_alpha_sweep: each estimator is a curve of fits over the ratio grid
_GLM_SWEEP_CURVES = {
    "linear_mixed": lambda s, alphas: [s.linear(a) for a in alphas],
    "loss_mixed": lambda s, alphas: s.loss_path(alphas),
}


class _GlmStudy:
    """The ELU study of both GLM presets: the design, the oracle statistics (one
    large pool at the true coefficients) and the excess-loss error on a fixed
    evaluation sample."""

    def __init__(self, cfg: ExperimentConfig):
        self.seed = cfg.seed
        p = _p_from_rule(cfg.p_rule, cfg.n)
        self.link = elu_link()
        Sigma = _block_sigma(cfg, p)
        self.beta_mode = constant_beta(2.0)
        beta_true = np.full(p, self.beta_mode.value)
        self.Z_eval = gaussian_sampler(Sigma, 10000)(seeded_rng(cfg.seed, _S_EVAL))
        self.mu_true = self.link.g(self.Z_eval @ beta_true)
        self.draw_pool = gaussian_sampler(Sigma, cfg.pool_size)
        self.draw_x = gaussian_sampler(Sigma, cfg.n)
        self.alphas = np.round(np.linspace(0.0, 1.0, 21), 10)
        self.oracle = GlmPoolStats(
            build_moments(_gaussian_pool(cfg.seed, 20000, Sigma), cfg.n), self.link, beta_true,
            ResampleSpec(cfg.resample_blocks, _derive_seed(cfg.seed, _S_TERMS)),
            alphas=self.alphas,
        )

    def oracle_ratios(self, sigma2: float) -> _GlmOracle:
        return _GlmOracle(
            self.oracle.risk(sigma2).ratio, self.oracle.ddot_curve(sigma2).argmin_alpha
        )

    def draw(self, gi: int, k: int, sigma2: float) -> tuple[LabeledSet, UnlabeledPool]:
        """The labeled sample and the raw pool of one replication."""
        rng = seeded_rng(self.seed, _S_REP, gi, k)
        pool = UnlabeledPool(self.draw_pool(rng))
        return _label(self.draw_x(rng), self.beta_mode, self.link, sigma2, rng)[0], pool

    def error(self, beta: np.ndarray) -> float:
        eta = self.Z_eval @ beta
        return float(np.mean(self.link.G(eta) - eta * self.mu_true))


def _nonconverged(per_rep: list[dict]) -> int:
    return sum(r["_nonconverged"] for r in per_rep)


def _run_glm_elu(cfg: ExperimentConfig) -> ExperimentResult:
    fits = _select(cfg, _GLM_FITS)
    study = _GlmStudy(cfg)

    def run_point(gi: int, n: int, sigma2: float):
        oracle = study.oracle_ratios(sigma2)

        def rep(k: int) -> dict:
            data, raw_pool = study.draw(gi, k, sigma2)
            s = GlmSample(
                data, build_moments(raw_pool, n), study.link,
                ResampleSpec(cfg.rep_blocks, _derive_seed(cfg.seed, _S_REPBLOCKS, gi, k)),
                study.alphas,
            )
            out = {name: study.error(fit(s, oracle)) for name, fit in fits}
            out["_nonconverged"] = s.nonconverged
            return out

        per_rep = _run_reps(cfg, rep, cfg.k)
        return per_rep, {"alpha_dot_oracle": oracle.alpha_dot,
                         "alpha_ddot_oracle": oracle.alpha_ddot,
                         "newton_nonconverged": _nonconverged(per_rep)}

    return _grid(cfg, fits, run_point, {"oracle_terms": study.oracle})


def _run_glm_alpha_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    sigma2 = cfg.sigma2_grid[0]
    curves = _select(cfg, _GLM_SWEEP_CURVES)
    estimators = [name for name, _ in curves]
    study = _GlmStudy(cfg)
    alphas = study.alphas
    alpha_dot, alpha_ddot = study.oracle_ratios(sigma2)

    def rep(k: int) -> dict:
        data, raw_pool = study.draw(0, k, sigma2)
        s = GlmSample(data, build_moments(raw_pool, cfg.n), study.link)
        out = {name: np.array([study.error(b) for b in curve(s, alphas)]) for name, curve in curves}
        out["_nonconverged"] = s.nonconverged
        return out

    per_rep = _run_reps(cfg, rep, cfg.k)
    # one grid point per ratio; the rows are listed estimator by estimator
    by_alpha = [
        _aggregate("alpha", float(a), [{e: r[e][j] for e in estimators} for r in per_rep],
                   estimators)
        for j, a in enumerate(alphas)
    ]
    rows = [row for name in estimators for rs, _ in by_alpha for row in rs if row.estimator == name]
    paired = [pair for _, prs in by_alpha for pair in prs]
    mean_curves = {name: np.stack([r[name] for r in per_rep]).mean(axis=0) for name in estimators}
    extras = {
        "alphas": alphas,
        "alpha_dot_oracle": alpha_dot,
        "alpha_ddot_oracle": alpha_ddot,
        "mc_argmin": {name: float(alphas[int(np.argmin(c))]) for name, c in mean_curves.items()},
        "mean_curves": mean_curves,
        "newton_nonconverged": {sigma2: _nonconverged(per_rep)},
    }
    return ExperimentResult(cfg.preset, "alpha", tuple(rows), tuple(paired), extras)


# ---------------------------------------------------------------------------
# interpolator presets
# ---------------------------------------------------------------------------


# the share of coordinates of unit variance in the interpolators' covariance
_SPIKE = 0.8


@dataclass(frozen=True)
class _InterpPoint:
    """What the replications of one interpolator grid point share."""

    Sigma_fit: np.ndarray
    sigma_factor: tuple[np.ndarray, bool]
    terms: InterpRiskTerms
    sigma2: float
    tau2: float


def _interp_mixed_est(s: InterpSample, pt: _InterpPoint) -> np.ndarray:
    noise = s.sigma_tau(pt.Sigma_fit)
    return s.linear(pt.terms.risk(noise.sigma2_hat, noise.tau2_hat).ratio)


# each fit maps (InterpSample, _InterpPoint) to coefficients
_INTERP_FITS = {
    "min_norm": lambda s, pt: s.min_norm,
    "min_variance": lambda s, pt: s.min_variance,
    "interp_mixed_est": _interp_mixed_est,
    "interp_mixed_est_tau": lambda s, pt: s.linear(
        pt.terms.risk(max(s.sigma2_known_tau(pt.tau2), 0.0), pt.tau2).ratio
    ),
    "interp_mixed_opt": lambda s, pt: s.linear(pt.terms.risk(pt.sigma2, pt.tau2).ratio),
}


def _run_interp(cfg: ExperimentConfig) -> ExperimentResult:
    """Both interpolator presets: each grid point draws its own pool (seeded by
    the grid index) and computes its pool risk terms.

    Each replication also returns its realization-wise variance-dominance
    slack under ``_dominance_slack``.  A row with a trace and a ``ratio:``
    rule p = gamma n also gets the closed-form limit of eta at its one
    sigma2, with gamma_tilde = ``_SPIKE`` gamma, where 1 < gamma_tilde < gamma.
    """
    tau2 = 1.0
    beta_mode = random_beta(math.sqrt(tau2))
    fits = _select(cfg, _INTERP_FITS)
    trace = _ROWS[cfg.preset].trace

    def run_point(gi: int, n: int, sigma2: float):
        p = _p_from_rule(cfg.p_rule, n)
        if cfg.pool_size <= p:
            raise DataValidationError(f"pool size {cfg.pool_size} must exceed p={p}")
        Sigma = gen_sigma(CovarianceSpec(
            "spiked_diagonal", p, spike_fraction=_SPIKE, minor_scale=1 / n, target_trace=trace
        ))
        moments, spec, L_eval, draw_x = _pool_point(cfg, n, Sigma, gi)
        Sigma_fit = moments.Exx
        terms = interp_risk_terms(Sigma_fit, pool_sampler(moments.pool, n), spec)
        point = _InterpPoint(Sigma_fit, spd_factor(Sigma_fit, "Sigma"), terms, sigma2, tau2)

        def rep(k: int) -> dict:
            rng = seeded_rng(cfg.seed, _S_REP, gi, k)
            data, w_true = _label(draw_x(rng), beta_mode, _IDENTITY, sigma2, rng)
            s = InterpSample(data, point.sigma_factor)
            out = {name: _quad_err(L_eval, fit(s, point) - w_true) for name, fit in fits}
            var_hat = float(s.min_norm @ Sigma_fit @ s.min_norm)
            out["_dominance_slack"] = var_hat - float(s.min_variance @ Sigma_fit @ s.min_variance)
            return out

        per_rep = _run_reps(cfg, rep, cfg.k)
        return per_rep, {"terms": terms, "alpha_oracle": terms.risk(sigma2, tau2).ratio,
                         "dominance_min_slack": min(r["_dominance_slack"] for r in per_rep),
                         "eta_measured": _relative_errors(per_rep, fits, "min_norm")}

    result = _grid(cfg, fits, run_point, {})
    kind, _, arg = cfg.p_rule.partition(":")
    gamma = float(arg) if kind == "ratio" else 0.0
    if trace is not None and 1.0 < _SPIKE * gamma < gamma:
        result.extras["eta_limit"] = interp_limits(AsymptoticSetting(
            gamma=gamma, gamma_tilde=_SPIKE * gamma, sigma2=cfg.sigma2_grid[0], tau2=tau2,
            c2=trace,
        )).eta_inf
    return result


# ---------------------------------------------------------------------------
# the preset table, dispatch, CSV output, config files
# ---------------------------------------------------------------------------


class _Row:
    """One preset as data: its runner, the grid it sweeps ("sigma2", "n" or
    "alpha"), the trace its covariance is scaled to (None keeps the generated
    one), and the default of every optional config field it reads, its
    estimator set among them.  ``ExperimentConfig`` rejects any other field."""

    def __init__(self, run, sweep: str, trace: float | None = None, **defaults):
        self.run, self.sweep, self.trace, self.defaults = run, sweep, trace, defaults


_SIGMA2S = (1.0, 9.0, 25.0, 49.0)
# where the designs come from and whose covariance errors are measured in;
# the GLM presets fix both
_DESIGN = {"x_source": "pool", "eval_cov": "pool"}
_ROWS = {
    "ols_constant_beta": _Row(
        _run_ols_constant, "sigma2", n=100, p_rule="fixed:50", sigma2_grid=_SIGMA2S,
        pool_size=20000, alpha_grid_size=51, **_DESIGN,
        estimators=tuple(name for name in _OLS_FITS if name != "linear_mixed_est_tau"),
    ),
    "ols_random_beta": _Row(
        _run_ols_random, "n", trace=25.0, n_grid=(100, 200, 500), p_rule="ratio:0.5",
        sigma2_grid=(25.0,), pool_size=10000, **_DESIGN, estimators=tuple(_OLS_FITS)[:5],
    ),
    "glm_elu": _Row(
        _run_glm_elu, "sigma2", n=50, p_rule="fixed:10", sigma2_grid=_SIGMA2S, pool_size=5000,
        rep_blocks=40, estimators=tuple(_GLM_FITS),
    ),
    "glm_alpha_sweep": _Row(
        _run_glm_alpha_sweep, "alpha", n=50, p_rule="fixed:10", sigma2_grid=(25.0,),
        pool_size=5000, estimators=tuple(_GLM_SWEEP_CURVES),
    ),
    "interp_fixed": _Row(
        _run_interp, "sigma2", n=50, p_rule="fixed:100", sigma2_grid=(1.0, 4.0, 25.0),
        pool_size=5000, **_DESIGN, estimators=tuple(_INTERP_FITS),
    ),
    "interp_growth": _Row(
        _run_interp, "n", trace=25.0, n_grid=(100, 200, 300), p_rule="ratio:2.0",
        sigma2_grid=(25.0,), pool_size=5000, **_DESIGN, estimators=tuple(_INTERP_FITS),
    ),
}
PRESETS = {name: row.run for name, row in _ROWS.items()}


def preset_names() -> tuple[str, ...]:
    return tuple(PRESETS)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run a preset described by the config; fully reproducible from its seed.

    The run uses one BLAS thread unless OPENBLAS_NUM_THREADS or
    OMP_NUM_THREADS is set; the previous thread counts are restored after.
    """
    if cfg.preset not in PRESETS:
        raise DataValidationError(
            f"unknown preset {cfg.preset!r}; available: {', '.join(PRESETS)}"
        )
    with single_blas_thread():
        return PRESETS[cfg.preset](cfg)


def write_result_csv(result: ExperimentResult, out_dir) -> tuple[Path, Path]:
    """Write the rows CSV and the sibling _pairs.csv; returns both paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    main = out / f"{result.preset}.csv"
    pairs = out / f"{result.preset}_pairs.csv"
    with open(main, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["preset", "estimator", "grid_name", "grid_value", "mean_error", "se", "k_effective"]
        )
        for r in result.rows:
            w.writerow(
                [result.preset, r.estimator, r.grid_name, r.grid_value,
                 f"{r.mean_error:.10g}", f"{r.se:.10g}", r.k_effective]
            )
    with open(pairs, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["estimator_a", "estimator_b", "grid_value", "mean_diff", "se_diff", "t", "p"]
        )
        for r in result.paired:
            w.writerow(
                [r.estimator_a, r.estimator_b, r.grid_value,
                 f"{r.mean_diff:.10g}", f"{r.se_diff:.10g}", f"{r.t:.10g}", f"{r.p:.10g}"]
            )
    return main, pairs


def _list_of(item):
    return lambda raw: tuple(item(v.strip()) for v in raw.split(","))


# the parser of each key an [experiment] section may set
_CONFIG_KEYS = {
    **dict.fromkeys(("preset", "p_rule", "eval_cov", "x_source"), str),
    **dict.fromkeys(("k", "seed", "n", "pool_size", "resample_blocks", "rep_blocks",
                     "alpha_grid_size"), int),
    "sigma2_grid": _list_of(float),
    "n_grid": _list_of(int),
    "estimators": _list_of(str),
}


def load_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from a key=value sections file.

    Expected shape: an ``[experiment]`` section whose keys mirror the config
    fields; grids are comma-separated lists (``sigma2_grid``, ``n_grid``,
    ``estimators``).
    """
    import configparser

    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read or "experiment" not in parser:
        raise DataValidationError(f"{path}: missing [experiment] section")
    section = parser["experiment"]
    kwargs: dict = {}
    for key, raw in section.items():
        if key not in _CONFIG_KEYS:
            raise DataValidationError(f"{path}: unknown config key {key!r}")
        try:
            kwargs[key] = _CONFIG_KEYS[key](raw)
        except ValueError as exc:
            raise DataValidationError(f"{path}: bad value {raw!r} for {key!r}") from exc
    if "preset" not in kwargs:
        raise DataValidationError(f"{path}: config must name a preset")
    return ExperimentConfig(**kwargs)
