"""Per-process BLAS thread policy.

The estimators spend their time in many small dense factorizations (p in
the tens to hundreds) and in Monte Carlo loops over them.  At these sizes
OpenBLAS's default of one thread per CPU only adds synchronization cost, so
the command-line entry point and the experiment engine run under
``single_blas_thread``, which sets every OpenBLAS loaded in the process to
one thread and restores the previous counts on exit.

numpy and scipy each bundle their own OpenBLAS (an ILP64 build whose symbols
carry a ``scipy_`` prefix and a ``64_`` suffix, and an LP64 build with the
prefix only), so both copies are found and set.  A user who sets
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` keeps full control: the
context then changes nothing.  When no OpenBLAS can be found (another BLAS,
or a platform without ``/proc/self/maps``) the context does nothing either.
It never raises.

The thread count is a process-wide setting: concurrent contexts on several
threads share it, and the last one to exit restores its own saved counts.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = ["single_blas_thread"]

THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# OpenBLAS builds rename their exported symbols: plain, scipy-openblas LP64
# (prefix only) and scipy-openblas ILP64 (prefix and suffix).
_SYMBOL_PREFIXES = ("scipy_", "")
_SYMBOL_SUFFIXES = ("64_", "")


@dataclass(frozen=True)
class OpenBlasHandle:
    """Thread-count getter and setter of one loaded OpenBLAS library."""

    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


def _loaded_paths() -> list[str]:
    """Paths of the mapped shared objects whose file name mentions openblas."""
    try:
        with open("/proc/self/maps") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    paths = []
    for line in lines:
        fields = line.split(maxsplit=5)  # address perms offset dev inode path
        if len(fields) < 6:
            continue
        path = fields[5]
        name = os.path.basename(path).lower()
        if "openblas" in name and ".so" in name and path not in paths:
            paths.append(path)
    return paths


def _bind(path: str) -> OpenBlasHandle | None:
    try:
        # RTLD_NOLOAD: bind to the copy already mapped, never load a new one
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    except OSError:
        return None
    for prefix in _SYMBOL_PREFIXES:
        for suffix in _SYMBOL_SUFFIXES:
            try:
                getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            getter.restype = ctypes.c_int
            getter.argtypes = []
            setter.restype = None
            setter.argtypes = [ctypes.c_int]
            return OpenBlasHandle(path, getter, setter)
    return None


def _find_openblas() -> list[OpenBlasHandle]:
    """Every OpenBLAS loaded in this process that exposes a thread setter."""
    handles = (_bind(path) for path in _loaded_paths())
    return [h for h in handles if h is not None]


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the block with one OpenBLAS thread; restore the counts on exit.

    Nestable.  Does nothing when a thread variable is set in the
    environment or when no OpenBLAS is loaded.
    """
    saved: list[tuple[OpenBlasHandle, int]] = []
    if not any(os.environ.get(var) for var in THREAD_ENV_VARS):
        try:
            for handle in _find_openblas():
                count = handle.get_threads()
                if count != 1:
                    handle.set_threads(1)
                    saved.append((handle, count))
        except (OSError, AttributeError, ValueError):
            pass  # a library that cannot be bound keeps its own setting
    try:
        yield
    finally:
        for handle, count in reversed(saved):
            handle.set_threads(count)
