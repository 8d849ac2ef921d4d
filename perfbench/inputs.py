"""Deterministic input files for the benchmark workloads.

Everything here is a pure function of the workload seed: the same seed
writes byte-identical files and derives the same CLI ``--seed`` values.
Generation is never timed.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

# Stream tags, one per generated artefact, so files drawn from one workload
# seed never share random numbers.
_T_FIT_LINEAR = 1
_T_FIT_GLM = 2
_T_FIT_INTERP = 3
_T_CLI_SEED = 4

_POOL_HEADER = struct.Struct("<4sIII")  # the .bin layout the mssl CLI reads


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), tag)))


def cli_seed(seed: int, index: int) -> int:
    """The ``--seed`` handed to the index-th CLI call of a workload."""
    ss = np.random.SeedSequence((int(seed), _T_CLI_SEED, int(index)))
    return int(ss.generate_state(1, dtype=np.uint32)[0] >> 1)


def _ar1_factor(p: int, rho: float) -> np.ndarray:
    """Lower Cholesky factor of the AR(1) covariance rho^|i-j|."""
    idx = np.arange(p)
    return np.linalg.cholesky(rho ** np.abs(idx[:, None] - idx[None, :]))


def _elu(z: np.ndarray) -> np.ndarray:
    return np.where(z < 0.0, np.expm1(np.minimum(z, 0.0)), z)


def _write_labeled(path: Path, X: np.ndarray, Y: np.ndarray) -> None:
    np.savetxt(path, np.column_stack([X, Y]), delimiter=",", fmt="%.17g")


def _write_pool_bin(path: Path, Z: np.ndarray) -> None:
    m, p = Z.shape
    with open(path, "wb") as fh:
        fh.write(_POOL_HEADER.pack(b"MSSL", m, p, 0))
        fh.write(np.asarray(Z, dtype="<f8").tobytes(order="F"))


def write_fit_inputs(seed: int, out: Path, sizes: dict) -> dict:
    """Write the labeled sets and pools of the ``fit`` workload.

    Returns the file paths by role: ``linear`` and ``glm`` labeled CSVs share
    one binary pool; ``interp`` has its own labeled CSV and CSV pool.
    """
    out.mkdir(parents=True, exist_ok=True)
    n, p, m = sizes["n"], sizes["p"], sizes["m"]

    rng = _rng(seed, _T_FIT_LINEAR)
    L = _ar1_factor(p, 0.5)
    pool = rng.standard_normal((m, p)) @ L.T + 0.5
    X = rng.standard_normal((n, p)) @ L.T + 0.5
    beta = rng.standard_normal(p) / np.sqrt(p)
    Y_lin = X @ beta + 2.0 * rng.standard_normal(n)
    _write_pool_bin(out / "pool.bin", pool)
    _write_labeled(out / "linear.csv", X, Y_lin)

    rng = _rng(seed, _T_FIT_GLM)
    Y_glm = _elu((X - 0.5) @ beta) + 0.5 * rng.standard_normal(n)
    _write_labeled(out / "glm.csv", X, Y_glm)

    ni, pi, mi = sizes["interp_n"], sizes["interp_p"], sizes["interp_m"]
    rng = _rng(seed, _T_FIT_INTERP)
    scales = np.where(np.arange(pi) < pi // 5, 2.0, 0.5)
    pool_i = rng.standard_normal((mi, pi)) * scales
    X_i = rng.standard_normal((ni, pi)) * scales
    w = rng.standard_normal(pi) / np.sqrt(pi)
    Y_i = X_i @ w + rng.standard_normal(ni)
    np.savetxt(out / "interp_pool.csv", pool_i, delimiter=",", fmt="%.17g")
    _write_labeled(out / "interp.csv", X_i, Y_i)

    # make the files durable now, so that write-back does not run during the
    # timed calls that read them
    for path in out.iterdir():
        with open(path, "rb+") as fh:
            os.fsync(fh.fileno())
    return {
        "pool_bin": out / "pool.bin",
        "linear": out / "linear.csv",
        "glm": out / "glm.csv",
        "interp_pool": out / "interp_pool.csv",
        "interp": out / "interp.csv",
    }
