"""File ingestion for pools and labeled samples.

Two pool formats are supported: headerless CSV (one observation per row)
and a binary column-major float64 dump with a 16-byte header consisting of
the magic bytes ``MSSL``, u32 row count, u32 column count, and a reserved
u32.  Labeled CSVs carry the response in the last column.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import LabeledSet, UnlabeledPool
from .errors import DataValidationError

__all__ = [
    "read_pool_csv",
    "read_labeled_csv",
    "read_pool_binary",
    "write_pool_binary",
    "POOL_MAGIC",
]

POOL_MAGIC = b"MSSL"
_HEADER = struct.Struct("<4sIII")  # magic, m, p, reserved


def _load_csv(path) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except (ValueError, OSError) as exc:
        raise DataValidationError(f"cannot parse CSV {path}: {exc}") from exc
    if data.size == 0:
        raise DataValidationError(f"CSV {path} is empty")
    return data


def read_pool_csv(path) -> UnlabeledPool:
    """Read an m x p pool from a headerless comma-separated file."""
    return UnlabeledPool(_load_csv(path))


def read_labeled_csv(path) -> LabeledSet:
    """Read a labeled sample; the last column is the response."""
    data = _load_csv(path)
    if data.shape[1] < 2:
        raise DataValidationError(
            f"labeled CSV {path} needs >= 2 columns (covariates + response)"
        )
    return LabeledSet(data[:, :-1], data[:, -1])


def write_pool_binary(pool: UnlabeledPool, path) -> None:
    """Write the pool as the 16-byte header plus column-major float64 data."""
    Z = np.asarray(pool.Z, dtype="<f8")
    m, p = Z.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(POOL_MAGIC, m, p, 0))
        fh.write(Z.tobytes(order="F"))


def read_pool_binary(path) -> UnlabeledPool:
    """Read a pool written by :func:`write_pool_binary`.

    The header and the file size are checked before any payload is read.
    The payload is then read once, by one ``np.fromfile``, into the
    column-major (m, p) array the pool keeps, with no further copy.
    """
    size = Path(path).stat().st_size
    if size < _HEADER.size:
        raise DataValidationError(f"{path}: file shorter than the 16-byte header")
    with open(path, "rb") as fh:
        magic, m, p, _ = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != POOL_MAGIC:
            raise DataValidationError(f"{path}: bad magic {magic!r}")
        expected = _HEADER.size + 8 * m * p
        if size != expected:
            raise DataValidationError(
                f"{path}: expected {expected} bytes for an {m}x{p} pool, got {size}"
            )
        flat = np.fromfile(fh, dtype="<f8", count=m * p)
    if flat.size != m * p:  # the file shrank after it was measured
        raise DataValidationError(f"{path}: payload ended after {flat.size} of {m * p} values")
    return UnlabeledPool(flat.reshape((m, p), order="F"))
