"""Core data containers, pool moment estimation, block resampling and the Monte Carlo engine.

The unlabeled pool stands in for the covariate distribution: column moments
estimated from it feed every semi-supervised estimator, and expectations
over fresh design matrices are realized by drawing blocks of rows from the
pool without replacement.  All containers are immutable after construction.

A pool is the one large array of a run, and each pool exists once.  Library
calls never write an array a caller passes in: ``center_pool`` and ``build_moments``
center a copy.  An array the program creates itself (a drawn pool, a pool
read from a file) is centered in place by the private ``_center_in_place``,
which keeps the removed means on the pool for ``build_moments`` to report.
``gaussian_sampler`` draws into its output, one row chunk at a time, and no
check of a pool builds an m x p temporary.

Every Monte Carlo loop of the package, a pool pass (``_block_pass``) over
its chunks of blocks or the presets' ``_run_reps`` over replications, maps
a pure function over indices through one engine, ``_map_indices``.  Inside
``simulate.run_experiment`` the outermost loop of two or more indices shares
them with workers forked from this process, one per CPU, whatever the
indices cost; a library call runs its loops in its own process.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from ._blas import pocon, potrf
from .errors import DataValidationError, ResampleBudgetError, SingularMatrixError

__all__ = [
    "LabeledSet",
    "UnlabeledPool",
    "PopulationMoments",
    "MixRisk",
    "ResampleSpec",
    "center_pool",
    "build_moments",
    "gaussian_sampler",
    "pool_sampler",
    "resample_block",
    "seeded_rng",
]

# Condition number beyond which a matrix is treated as singular (float64).
COND_LIMIT = 1e12

# The share of a resampling pass's blocks that may be skipped as singular
# before the pass gives up.
_SKIP_BUDGET = 0.10

# Bytes of drawn blocks a pass stacks into one chunk for its kernel; this
# bounds the memory of the stacked kernels whatever the block count.
_CHUNK_BYTES = 1 << 20

# A gaussian_sampler draw's row chunks come in whole multiples of this many
# rows, a multiple of every row panel width of OpenBLAS's x86-64 kernels.
_DRAW_ROWS = 96

# Stream tags keep independently-consumed RNG streams from colliding when
# they are derived from one user-facing seed.
_STREAM_BLOCKS = 0xB10C

# What an index of a loop came to: its result, the class name of the
# exception it was dropped for, or any other exception it raised.
_OK, _DROPPED, _ERROR = "ok", "dropped", "error"

# True inside ``_forking``, which ``simulate.run_experiment`` enters with one
# BLAS thread, and cleared while an engine loop runs: only the outermost loop
# of a preset may fork, and a library call made elsewhere never does.
_may_fork = False


def spd_factor(A: np.ndarray, what: str = "matrix") -> tuple[np.ndarray, bool]:
    """Checked Cholesky factor of a symmetric positive definite matrix.

    The one conditioning policy of the package: a Cholesky factorization, then
    LAPACK's ``pocon`` estimate of the reciprocal 1-norm condition number from
    that factor (Higham's estimator, O(p^2) against O(p^3) for an SVD).  The
    matrix counts as singular when the factorization fails or the estimate
    says cond > COND_LIMIT; the numerical rank is computed only then, and
    carried on the SingularMatrixError.  Returns the ``(c, lower)`` factor pair
    (lower triangle).  Non-finite entries raise ValueError.  Both LAPACK
    calls go through ``mssl._blas``.
    """
    c, info = potrf(A)  # checks A
    A = np.asarray(A, dtype=float)
    rcond = pocon(c, np.abs(A).sum(axis=0).max()) if info == 0 else 0.0
    if rcond * COND_LIMIT >= 1.0:
        return c, True
    rank = int(np.linalg.matrix_rank(A))
    raise SingularMatrixError(
        f"{what} is singular or too ill-conditioned (rcond ~ {rcond:.2e}, rank {rank})",
        rank=rank,
    )


def seeded_rng(seed: int, *indices: int) -> np.random.Generator:
    """Deterministic generator for (seed, *indices), stable across runs."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(i) for i in indices)))


@dataclass(frozen=True)
class LabeledSet:
    """A supervised sample: covariates X (n x p) and responses Y (length n)."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.asarray(self.Y, dtype=float).ravel()
        if X.ndim != 2:
            raise DataValidationError("X must be a 2-d matrix")
        if X.shape[0] < 1:
            raise DataValidationError("need at least one observation")
        if Y.shape[0] != X.shape[0]:
            raise DataValidationError(
                f"Y has length {Y.shape[0]} but X has {X.shape[0]} rows"
            )
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise DataValidationError("labeled data must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    # sample statistics, computed on first use and shared by every fit
    @cached_property
    def gram(self) -> np.ndarray:
        return self.X.T @ self.X

    @cached_property
    def xty(self) -> np.ndarray:
        return self.X.T @ self.Y

    @cached_property
    def xbar(self) -> np.ndarray:
        return self.X.mean(axis=0)

    @cached_property
    def ybar(self) -> float:
        return self.Y.mean()


@dataclass(frozen=True)
class UnlabeledPool:
    """Covariate-only observations Z (m x p) used to estimate moments."""

    Z: np.ndarray
    centered: bool = False

    def __post_init__(self):
        Z = np.atleast_2d(np.asarray(self.Z, dtype=float))
        if Z.ndim != 2 or Z.shape[0] < 1:
            raise DataValidationError("Z must be a nonempty 2-d matrix")
        # min and max propagate a NaN, and an infinity is one of them: no m x p mask
        if Z.size and not (np.isfinite(Z.min()) and np.isfinite(Z.max())):
            raise DataValidationError("pool entries must be finite")
        if self.centered:
            # |mean| may reach 1e-12 * max(column max of |Z|, 1); the column max
            # is needed only past 1e-12, and comes from the column extremes,
            # with no m x p temporary
            mean = np.abs(Z.mean(axis=0))
            if np.any(mean > 1e-12) and np.any(
                mean > 1e-12 * np.maximum(np.maximum(Z.max(axis=0), -Z.min(axis=0)), 1.0)
            ):
                raise DataValidationError(
                    "pool flagged as centered but column means are not ~0"
                )
        object.__setattr__(self, "Z", Z)

    @property
    def m(self) -> int:
        return self.Z.shape[0]

    @property
    def p(self) -> int:
        return self.Z.shape[1]


@dataclass(frozen=True)
class PopulationMoments:
    """Pool-based moment estimates shared by every estimator module.

    ``mean`` holds the column means removed from the pool; ``Exx`` estimates
    E[xx^T] on centered data (the covariance, under the zero-mean
    convention), and ``H`` is its n-scaled version n*Exx.  ``pool`` is the
    centered view of the ingested pool.  ``H_factor`` and ``Exx_factor`` are
    the checked Cholesky factors of H and of Exx, each computed on first use
    and then shared by every fit that solves against its matrix.
    """

    mean: np.ndarray
    Exx: np.ndarray
    H: np.ndarray
    n: int
    pool: UnlabeledPool

    def __post_init__(self):
        A = self.Exx
        if not np.all(np.isfinite(A)):
            raise DataValidationError("Exx is not finite: the pool's second moments overflow")
        sym_err = np.max(np.abs(A - A.T)) if A.size else 0.0
        if sym_err > 1e-10 * max(1.0, np.max(np.abs(A))):
            raise DataValidationError("Exx is not symmetric")
        evals = np.linalg.eigvalsh(A)
        if evals.size and evals.min() < -1e-10 * max(np.trace(A), 1.0):
            raise DataValidationError("Exx estimate is not PSD")

    @cached_property
    def H_factor(self) -> tuple[np.ndarray, bool]:
        return spd_factor(self.H, "H")

    @cached_property
    def Exx_factor(self) -> tuple[np.ndarray, bool]:
        return spd_factor(self.Exx, "the pool covariance")


@dataclass(frozen=True)
class MixRisk:
    """The risk of the coefficient mix (1 - alpha) beta_hat + alpha beta_breve, quadratic in alpha.

    R(alpha) = floor + (1 - alpha)^2 gain + alpha^2 cost.  With R00 and R11
    the risks of the two estimators and R01 their cross term, floor = R01,
    gain = R00 - R01 and cost = R11 - R01.  Each family's pool statistics
    fill in the three numbers (``GlmPoolStats.risk``, an ``OlsPoolModel``'s
    too, and ``InterpRiskTerms.risk``), and ``se_gain`` and ``se_cost`` are the Monte
    Carlo SEs of gain and cost, scaled like them (0 where a term is exact).
    ``terms`` is the one clipping policy for the mixing ratio, and ``curve``,
    ``minimum`` and ``eta`` evaluate the quadratic of the clipped terms.
    """

    floor: float
    gain: float
    cost: float
    se_gain: float = 0.0
    se_cost: float = 0.0

    @classmethod
    def from_factors(
        cls, sigma2: float, B: float, v_l: float, v_u: float, v_s: float,
        se_v_l: float = 0.0, se_v_s: float = 0.0,
    ) -> MixRisk:
        """The risk at noise sigma2, bias B and variance factors v_l, v_u and v_s.

        floor sigma^2 v_s, gain sigma^2 (v_l - v_s) and cost B + sigma^2 (v_u - v_s),
        so the ratio is sigma^2 (v_l - v_s) / (B + sigma^2 (v_l + v_u - 2 v_s)).
        Least squares has v_s = v_u, and the finite pool passes B = tau^2 b_u~,
        v_u~ and v_s~.  v_u is exact; the SEs of v_l and v_s add up in the SE
        of the gain.
        """
        return cls(
            sigma2 * v_s, sigma2 * (v_l - v_s), B + sigma2 * (v_u - v_s),
            se_gain=sigma2 * (se_v_l + se_v_s), se_cost=sigma2 * se_v_s,
        )

    @property
    def terms(self) -> tuple[float, float]:
        """(gain, cost), a term negative within 3 of its SEs counting as 0; beyond, it raises."""
        for name, value, se in (("gain", self.gain, self.se_gain),
                                ("cost", self.cost, self.se_cost)):
            if not value >= -3.0 * se:  # NaN fails too
                raise DataValidationError(
                    f"the mixing risk's {name} is {value:.4g}, negative beyond 3 Monte Carlo "
                    f"SEs ({se:.4g}): the bias/variance ordering of the two estimators is violated"
                )
        return max(0.0, self.gain), max(0.0, self.cost)

    @property
    def ratio(self) -> float:
        """gain / (gain + cost) of ``terms``, the minimizer of R over [0, 1]; 0 when both
        terms are 0 (the flat case, where every ratio is optimal).
        """
        gain, cost = self.terms
        total = gain + cost
        return float(gain / total) if total > 0.0 else 0.0

    @property
    def raw(self) -> float:
        """gain / (gain + cost) of the terms as given, unclipped; 0 where the sum is 0."""
        total = self.gain + self.cost
        return float(self.gain / total) if total != 0.0 else 0.0

    def curve(self, alphas):
        """R at a scalar or an array of ratios: a sum of nonnegative terms past the floor."""
        gain, cost = self.terms
        alphas = np.asarray(alphas, dtype=float)
        out = self.floor + (1.0 - alphas) ** 2 * gain + alphas**2 * cost
        return float(out) if out.ndim == 0 else out

    @property
    def minimum(self) -> float:
        """R at ``ratio``: floor + ratio cost = floor + gain cost / (gain + cost), uncancelled."""
        return float(self.floor + self.ratio * self.terms[1])

    @property
    def eta(self) -> float:
        """The best mix's risk relative to the first estimator's, minimum / R(0); 1 if R(0) = 0."""
        r0 = self.curve(0.0)
        return self.minimum / r0 if r0 != 0.0 else 1.0


def center_pool(pool: UnlabeledPool) -> tuple[UnlabeledPool, np.ndarray]:
    """Return a column-centered copy of the pool and the removed means.

    ``pool.Z`` is never written.  The centered copy keeps the memory layout
    of ``pool.Z`` (a column-major pool stays column-major).  A pool that is
    already centered is returned as it is, with the means ``_center_in_place``
    removed from it, or zeros.
    """
    if pool.centered:
        return pool, getattr(pool, "_removed_mean", np.zeros(pool.p))
    mean = pool.Z.mean(axis=0)
    return UnlabeledPool(pool.Z - mean, centered=True), mean


def _center_in_place(Z: np.ndarray) -> UnlabeledPool:
    """The centered pool of an array its caller created and hands over: Z itself, centered.

    Only for an array nothing else reads, such as a pool just drawn or read
    from a file; a caller's array goes through ``center_pool``, which copies.
    The removed column means are kept on the pool, where ``center_pool`` and
    so ``build_moments`` find them.  The result is bit for bit that of
    ``center_pool(UnlabeledPool(Z))``, without its second m x p array.
    """
    mean = Z.mean(axis=0)
    Z -= mean
    pool = UnlabeledPool(Z, centered=True)
    object.__setattr__(pool, "_removed_mean", mean)
    return pool


def build_moments(pool: UnlabeledPool, n: int) -> PopulationMoments:
    """Estimate (mean, Exx, H) from the pool for a sample size n.

    The pool is centered first (the estimators assume E[x] = 0) by
    ``center_pool``, which copies an uncentered pool and never writes
    ``pool.Z``; the centered pool is carried on the returned object.  A pool
    from ``_center_in_place`` is used as it is, so its array exists once.
    """
    if pool.m < 2:
        raise DataValidationError("need at least 2 pool rows to form moments")
    if n < 1:
        raise DataValidationError("n must be >= 1")
    centered, mean = center_pool(pool)
    Z = centered.Z
    Exx = (Z.T @ Z) / centered.m
    Exx = 0.5 * (Exx + Exx.T)
    return PopulationMoments(
        mean=mean, Exx=Exx, H=n * Exx, n=int(n), pool=centered
    )


@dataclass(frozen=True)
class ResampleSpec:
    """Deterministic block-resampling plan: ``replications`` blocks from ``seed``.

    The plan fixes how many blocks a pass draws and from which streams; the
    size of a block comes from the pass's inputs (the ``n`` of the pool
    moments, or the rows of a sampler's draws).
    """

    replications: int
    seed: int

    def __post_init__(self):
        # every pass averages over at least 2 usable blocks, and skips at most
        # _SKIP_BUDGET of them, which leaves 2 of any plan of 2 or more
        if self.replications < 2:
            raise DataValidationError(f"replications must be >= 2, got {self.replications}")
        if self.seed < 0:  # numpy's seed sequences take no negative seed
            raise DataValidationError(f"seed must be >= 0, got {self.seed}")


def gaussian_sampler(Sigma: np.ndarray, n: int):
    """Factory: draws n x p Gaussian designs with the given covariance.

    A draw is ``rng.standard_normal((n, p)) @ L.T`` with L the Cholesky factor
    of Sigma, formed in one new n x p array one chunk of rows at a time, so
    that no n x p array of normals exists beside it.  The caller owns the
    array, and may center it in place (``_center_in_place``).  The generator fills
    rows in order, so the normals are those of one draw of all rows.  A chunk
    holds about _CHUNK_BYTES, in whole multiples of _DRAW_ROWS rows, and the
    last one also takes a remainder shorter than _DRAW_ROWS.  Each chunk then
    starts on the edge of a panel of rows that OpenBLAS's kernels multiply
    together, and no chunk is small enough for a small-matrix path, so with
    one BLAS thread every row has the bits of the product over all rows.
    """
    L = np.linalg.cholesky(np.asarray(Sigma, dtype=float))
    p = L.shape[0]
    rows = max(1, _chunk_len(8 * p) // _DRAW_ROWS) * _DRAW_ROWS
    edges = [0, *range(rows, n - _DRAW_ROWS + 1, rows), n]

    def draw(rng: np.random.Generator) -> np.ndarray:
        out = np.empty((n, p))
        for start, stop in zip(edges[:-1], edges[1:]):
            np.matmul(rng.standard_normal((stop - start, p)), L.T, out=out[start:stop])
        return out

    return draw


def pool_sampler(pool: UnlabeledPool, n: int):
    """Factory: draws n pool rows without replacement."""
    if n > pool.m:
        raise DataValidationError(f"n={n} exceeds pool size {pool.m}")

    def draw(rng: np.random.Generator) -> np.ndarray:
        return pool.Z[rng.choice(pool.m, size=n, replace=False)]

    return draw


def resample_block(moments: PopulationMoments, spec: ResampleSpec, index: int) -> np.ndarray:
    """The index-th block of a pool pass: ``moments.n`` rows of ``moments.pool``.

    The rows are drawn by ``pool_sampler`` and depend only on (spec.seed, index).
    """
    return pool_sampler(moments.pool, moments.n)(seeded_rng(spec.seed, _STREAM_BLOCKS, index))


def _chunk_len(item_bytes: int) -> int:
    """How many items of ``item_bytes`` each fit in one chunk (at least one)."""
    return max(1, _CHUNK_BYTES // item_bytes)


def _weighted_gram(Z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Z^T diag(s^2) Z, summed over row chunks of at most _CHUNK_BYTES.

    Each chunk forms W_c = diag(s_c) Z_c and adds W_c^T W_c, which numpy hands
    to BLAS as a symmetric rank-k update (SYRK), so the result is exactly
    symmetric and no m x p weighted copy of Z is made.  A weighted Gram
    Z^T diag(w) Z with w >= 0 is ``_weighted_gram(Z, np.sqrt(w))``.
    """
    m, p = Z.shape
    rows = _chunk_len(8 * p)
    G = np.zeros((p, p))
    for start in range(0, m, rows):
        W = Z[start:start + rows] * s[start:start + rows, None]
        G += W.T @ W
    return G


def _each_block(fn: Callable, stack: Iterable) -> tuple[np.ndarray, list]:
    """``fn`` on each block of a stack: (usable mask, results of the usable blocks).

    The skip rule of every pass: a block on which ``fn`` raises
    SingularMatrixError or LinAlgError is masked out; other errors propagate.
    """
    ok, results = [], []
    for X in stack:
        try:
            results.append(fn(X))
            ok.append(True)
        except (SingularMatrixError, np.linalg.LinAlgError):
            ok.append(False)
    return np.array(ok, dtype=bool), results


def _cpu_count() -> int:
    """The CPUs this process may run on (its affinity mask, where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextmanager
def _forking():
    """Let the outermost engine loops of the block fork (``run_experiment``'s)."""
    global _may_fork
    saved, _may_fork = _may_fork, True
    try:
        yield
    finally:
        _may_fork = saved


def _workers(k: int) -> int:
    """Processes for a loop of k indices: one per CPU, at most k.  One without
    ``os.fork`` or while another Python thread is alive, since a thread may
    hold a lock the forked child would then never see released."""
    if k < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(k, _cpu_count())


def _share(fn: Callable, indices, drop: tuple) -> dict:
    """{index: outcome} for ``indices``, run in order up to the first unexpected error."""
    outcomes = {}
    for i in indices:
        try:
            outcomes[i] = _OK, fn(i)
        except drop as exc:
            outcomes[i] = _DROPPED, type(exc).__name__
        except Exception as exc:
            outcomes[i] = _ERROR, exc
            break
    return outcomes


def _map_indices(fn: Callable, k: int, drop: tuple = ()) -> tuple[list, list[str]]:
    """The one Monte Carlo engine: ``fn`` over the indices 0..k-1.

    Returns the results of the indices not dropped, in index order, and the
    class name of the exception each dropped index raised (one of the
    classes in ``drop``).  Any other exception is raised, that of the lowest
    index, as a loop over 0..k-1 would raise it.

    The loop runs on W processes (``_workers``), whatever its indices cost:
    W is 1 outside ``_forking`` and for a loop that ``fn`` runs, here or in
    a worker, so only the outermost loop forks.  This process forks W - 1
    workers, which inherit what ``fn`` reads copy-on-write, and then runs its
    own share, the indices i = 0 (mod W); each worker runs one other residue.
    ``fn`` must be a pure function of its index, so the merged results are
    the same bits for any W.  Each share stops at its own first unexpected
    error, so every index below the lowest one has run; the other shares
    still finish.  A worker sends one message, all its outcomes, read here
    after this process's share.  Every worker is reaped before this returns
    or raises, and killed first if it still runs then (this process's share
    raised).
    """
    global _may_fork
    w = _workers(k) if _may_fork else 1
    may_fork, _may_fork = _may_fork, False  # fn's own loops stay serial, as in a worker
    workers = {}  # pid: the read end of its pipe, for each worker not yet reaped
    parent = os.getpid()
    try:
        for r in range(1, w):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                inherited = [read_fd] + [pipe.fileno() for pipe in workers.values()]
                _worker(fn, range(r, k, w), drop, write_fd, inherited)
            os.close(write_fd)
            workers[pid] = open(read_fd, "rb")
        outcomes = _share(fn, range(0, k, w), drop)
        for pid in list(workers):
            with workers[pid] as pipe:  # read to EOF first: a worker ends once it is read
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            if status or not payload:
                raise RuntimeError(f"worker {pid} ended (wait status {status}) "
                                   "without sending the outcomes of its share")
            outcomes.update(pickle.loads(payload))
    finally:
        if os.getpid() != parent:  # a worker that got here before its own try
            os._exit(1)
        _may_fork = may_fork
        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    errors = [i for i, (kind, _) in outcomes.items() if kind == _ERROR]
    if errors:
        raise outcomes[min(errors)][1]
    return ([outcomes[i][1] for i in range(k) if outcomes[i][0] == _OK],
            [value for kind, value in outcomes.values() if kind == _DROPPED])


def _worker(fn: Callable, indices: range, drop: tuple, fd: int, inherited: list[int]):
    """Run one share in a forked child and write its outcomes to ``fd`` in one pickle.

    The first outcome that does not pickle and rebuild (an exception class
    must rebuild from its args) becomes a RuntimeError and ends the share.
    It closes the read ends it inherited first, so that its write fails once
    the parent is gone, and leaves only through ``os._exit``: it never returns
    into its caller's frames (a CSV writer, a tracer's dump) nor runs exit handlers.
    """
    status = 1
    try:
        for other in inherited:
            os.close(other)
        sent = {}
        for i, outcome in _share(fn, indices, drop).items():
            try:
                sent[i] = pickle.loads(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
            except Exception as exc:
                sent[i] = _ERROR, RuntimeError(
                    f"index {i}: its outcome could not be sent from a worker process: "
                    f"{type(exc).__name__}: {exc}"
                )
                break
        with open(fd, "wb") as pipe:
            pipe.write(pickle.dumps(sent, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _block_pass(
    spec: ResampleSpec, draw: Callable[[int], np.ndarray], kernel: Callable
) -> tuple[dict, int]:
    """The one resampling loop: ``kernel`` on chunks of the blocks ``draw(i)``.

    Blocks are stacked into chunks of at most _CHUNK_BYTES (one block at
    least), a length fixed from block 0, and ``_map_indices`` shares the
    chunks out; each draws its blocks one at a time, in plan order, so the
    statistics are the same bits for any number of processes.  ``kernel``
    takes a chunk of b blocks (an array of shape (b, *block.shape)) and
    returns ``(ok, stats)``: a length-b mask of the usable blocks and a dict
    of arrays whose leading axis runs over the usable ones, or has one row
    holding the chunk's sums over them (a form that would otherwise keep a
    matrix per block: the caller adds the rows).  A kernel masks a
    block whose statistics would raise SingularMatrixError or LinAlgError
    (see ``_each_block``), so every statistic of a pass averages over the
    same blocks; other errors propagate, that of the lowest chunk.  Raises
    ResampleBudgetError when more than _SKIP_BUDGET of the blocks were
    skipped (a plan has 2 blocks or more, so at least 2 are then left).
    Returns the statistics of the usable blocks (or the chunks' rows) in
    block order and the number skipped.
    """
    first = np.asarray(draw(0))
    b = _chunk_len(first.nbytes)

    def chunk(c: int) -> tuple[np.ndarray, dict]:
        indices = range(c * b, min((c + 1) * b, spec.replications))
        stack = np.empty((len(indices),) + first.shape, dtype=first.dtype)
        for j, i in enumerate(indices):
            stack[j] = first if i == 0 else draw(i)
        return kernel(stack)

    chunks, _ = _map_indices(chunk, -(-spec.replications // b))
    skipped = sum(len(ok) - int(np.count_nonzero(ok)) for ok, _ in chunks)
    if skipped > _SKIP_BUDGET * spec.replications:
        raise ResampleBudgetError(
            f"{skipped}/{spec.replications} resampled blocks were singular"
        )
    # each statistic's chunk arrays are released as it is joined, so the join
    # never holds every statistic twice
    return {key: np.concatenate([stats.pop(key) for _, stats in chunks])
            for key in list(chunks[0][1])}, skipped
