"""The process's OpenBLAS: its thread policy, and the LAPACK calls of mssl.

The estimators spend their time in many small dense factorizations (p in
the tens to hundreds) and in Monte Carlo loops over them.  This module owns
the OpenBLAS libraries loaded in the process, for two jobs.

**Threads.**  At these sizes OpenBLAS's default of one thread per CPU only
adds synchronization cost, so the command-line entry point and the
experiment engine run under ``single_blas_thread``, which sets every
OpenBLAS loaded in the process to one thread and restores the previous
counts on exit.  numpy and scipy each bundle their own OpenBLAS (an ILP64
build whose symbols carry a ``scipy_`` prefix and a ``64_`` suffix, and an
LP64 build with the prefix only), so every copy that is loaded is set.  A
user who sets ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` keeps full
control: the context then changes nothing.  When no OpenBLAS can be found
(another BLAS, or a platform without ``/proc/self/maps``) the context does
nothing either.  It never raises.  The thread count is a process-wide
setting: concurrent contexts on several threads share it, and the last one
to exit restores its own saved counts.

**LAPACK.**  Every Cholesky factor, Cholesky solve, inverse from a
Cholesky factor and condition estimate of the package goes through the four
wrappers below (``potrf``, ``pocon``, ``cho_solve`` and ``cho_inverse``).
They call ``dpotrf``, ``dpocon``, ``dpotrs`` and ``dpotri`` of an OpenBLAS
that is already loaded, through ctypes: numpy's wheels bundle the full
LAPACK in their OpenBLAS, so the package needs no scipy import to factor a
matrix.  An ILP64 build is preferred (numpy's), and the integer width is
read from the library's own configuration string.  When no loaded OpenBLAS
exports the four routines, the wrappers fall back to
``scipy.linalg.lapack``, imported only then.  Both providers keep
scipy.linalg's checks: non-finite input raises ValueError.  Results are
laid out as scipy's (Fortran order, lower triangle) and computed the same
way, so they agree with ``scipy.linalg`` up to the roundoff of the two
OpenBLAS builds.

Every array whose address is handed to LAPACK is held by a local name for
the whole call; the routines write only into arrays created here.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

__all__ = ["single_blas_thread", "potrf", "pocon", "cho_solve", "cho_inverse"]

THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# OpenBLAS builds rename their exported symbols: plain, scipy-openblas LP64
# (prefix only) and scipy-openblas ILP64 (prefix and suffix).
_SYMBOL_PREFIXES = ("scipy_", "")
_SYMBOL_SUFFIXES = ("64_", "")


@dataclass(frozen=True)
class OpenBlasHandle:
    """Thread-count getter and setter of one loaded OpenBLAS library.

    ``symbol(name)`` looks up any other routine of the library under the
    same naming scheme (``prefix + name + suffix``).
    """

    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    lib: ctypes.CDLL
    prefix: str
    suffix: str

    def symbol(self, name: str):
        return getattr(self.lib, f"{self.prefix}{name}{self.suffix}")


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
            return OpenBlasHandle(path, getter, setter, lib, prefix, suffix)
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


# ---------------------------------------------------------------------------
# LAPACK
# ---------------------------------------------------------------------------


def _address(a: np.ndarray):
    """Pointer to the data of a contiguous array, for a ctypes argument.

    ``from_buffer`` is several times cheaper than ``a.ctypes.data`` and keeps
    ``a`` referenced; it needs a writable C-contiguous buffer, which the
    transpose of a Fortran-ordered array is.
    """
    try:
        return ctypes.byref(ctypes.c_char.from_buffer(a if a.flags.c_contiguous else a.T))
    except (TypeError, ValueError):  # read-only, or empty
        return a.ctypes.data


class _OpenBlasLapack:
    """dpotrf, dpocon, dpotrs and dpotri of one loaded OpenBLAS, via ctypes.

    Fortran calling convention: the character arguments come first, every
    argument is passed by reference, and one hidden ``size_t`` length per
    character argument ends the list.  Each method takes arrays already
    checked and laid out by the module-level wrappers.  The integer inputs
    (orders, leading dimensions, right-hand-side counts) are read-only to
    LAPACK, so one reference per value is made once and shared; ``info`` and
    ``rcond`` are fresh per call.
    """

    def __init__(self, handle: OpenBlasHandle, integer):
        self._int = integer
        self._refs: dict[int, object] = {}
        self._potrf = self._routine(handle, "dpotrf_", 1, 4)
        self._pocon = self._routine(handle, "dpocon_", 1, 8)
        self._potrs = self._routine(handle, "dpotrs_", 1, 7)
        self._potri = self._routine(handle, "dpotri_", 1, 4)

    @staticmethod
    def _routine(handle: OpenBlasHandle, name: str, chars: int, pointers: int):
        fn = handle.symbol(name)
        fn.argtypes = (
            [ctypes.c_char_p] * chars + [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * chars
        )
        fn.restype = None
        return fn

    def _ref(self, value: int):
        ref = self._refs.get(value)
        if ref is None:
            ref = self._refs[value] = ctypes.byref(self._int(value))
        return ref

    def potrf(self, a: np.ndarray) -> tuple[np.ndarray, int]:
        n = self._ref(a.shape[0])
        info = self._int(0)
        self._potrf(b"L", n, _address(a), n, ctypes.byref(info), 1)
        return a, info.value

    def pocon(self, c: np.ndarray, anorm: float) -> tuple[float, int]:
        n = self._ref(c.shape[0])
        work = (ctypes.c_double * (3 * c.shape[0]))()
        iwork = (self._int * c.shape[0])()
        rcond, info = ctypes.c_double(0.0), self._int(0)
        self._pocon(b"L", n, _address(c), n, ctypes.byref(ctypes.c_double(anorm)),
                    ctypes.byref(rcond), work, iwork, ctypes.byref(info), 1)
        return rcond.value, info.value

    def potrs(self, c: np.ndarray, x: np.ndarray, lower: bool) -> tuple[np.ndarray, int]:
        n = self._ref(c.shape[0])
        nrhs = self._ref(1 if x.ndim == 1 else x.shape[1])
        info = self._int(0)
        self._potrs(b"L" if lower else b"U", n, nrhs, _address(c), n, _address(x), n,
                    ctypes.byref(info), 1)
        return x, info.value

    def potri(self, c: np.ndarray, lower: bool) -> tuple[np.ndarray, int]:
        n = self._ref(c.shape[0])
        info = self._int(0)
        self._potri(b"L" if lower else b"U", n, _address(c), n, ctypes.byref(info), 1)
        return c, info.value


class _ScipyLapack:
    """The same four routines from ``scipy.linalg.lapack``: the fallback."""

    def __init__(self):
        from scipy.linalg import lapack

        self._lapack = lapack

    def potrf(self, a):
        return self._lapack.dpotrf(a, lower=1, clean=0, overwrite_a=1)

    def pocon(self, c, anorm):
        return self._lapack.dpocon(c, anorm, uplo="L")

    def potrs(self, c, x, lower):
        return self._lapack.dpotrs(c, x, lower=int(lower), overwrite_b=1)

    def potri(self, c, lower):
        return self._lapack.dpotri(c, lower=int(lower), overwrite_c=1)


def _find_lapack() -> _OpenBlasLapack | None:
    """A loaded OpenBLAS that exports the four routines; ILP64 builds first."""
    handles = sorted(_find_openblas(), key=lambda h: h.suffix != "64_")
    for handle in handles:
        try:
            for name in ("dpotrf_", "dpocon_", "dpotrs_", "dpotri_"):
                handle.symbol(name)
            config = handle.symbol("openblas_get_config")
        except AttributeError:
            continue
        config.restype = ctypes.c_char_p
        config.argtypes = []
        wide = b"USE64BITINT" in (config() or b"")
        return _OpenBlasLapack(handle, ctypes.c_int64 if wide else ctypes.c_int32)
    return None


@functools.cache
def _lapack():
    """The LAPACK provider of this process, chosen on first use."""
    try:
        found = _find_lapack()
    except (OSError, AttributeError, ValueError):
        found = None
    return found if found is not None else _ScipyLapack()


def _finite(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _square(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    return a


def _rhs(b, n: int) -> np.ndarray:
    """A Fortran-ordered copy of the right-hand side, which LAPACK overwrites."""
    b = _finite(b)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"right-hand side of shape {b.shape} does not fit order {n}")
    return np.array(b, order="F")


def _check(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def potrf(A) -> tuple[np.ndarray, int]:
    """Lower Cholesky factor of A, with LAPACK's ``info``.

    Returns a Fortran-ordered copy of A whose lower triangle holds L; its
    strict upper triangle keeps A's entries, as scipy's ``cho_factor(A, lower=True)``
    leaves them.  ``info > 0`` is the order of the first leading minor that
    is not positive definite (the factor is then incomplete).
    """
    a = np.array(_square(_finite(A)), order="F")
    c, info = _lapack().potrf(a)
    _check(info, "dpotrf")
    return c, info


def pocon(c, anorm: float) -> float:
    """LAPACK's estimate of 1 / cond_1(A) from A's lower Cholesky factor c.

    ``anorm`` is the 1-norm of A itself, and c comes from ``potrf``, which
    checked A; c is not checked again, as LAPACK's ``dpocon`` does not.
    """
    c = np.asfortranarray(_square(np.asarray(c, dtype=float)))
    rcond, info = _lapack().pocon(c, float(anorm))
    _check(info, "dpocon")
    return float(rcond)


def cho_solve(factor: tuple[np.ndarray, bool], b) -> np.ndarray:
    """Solve A x = b from the factor pair ``(c, lower)`` of A.

    ``factor`` is what ``core.spd_factor``, ``scipy.linalg.cho_factor`` or ``(L, True)``
    with ``L = np.linalg.cholesky(A)`` give.  ``b`` is a vector or a matrix.
    """
    c, lower = factor
    c = np.asfortranarray(_square(_finite(c)))
    x, info = _lapack().potrs(c, _rhs(b, c.shape[0]), bool(lower))
    _check(info, "dpotrs")
    return x


def cho_inverse(factor: tuple[np.ndarray, bool]) -> np.ndarray:
    """The full symmetric inverse of A from the factor pair ``(c, lower)`` of A.

    ``dpotri`` writes one triangle of A^{-1} over a copy of c (the caller's
    factor is never written), and the other triangle is mirrored from it in
    the same pass that makes the result, so it is exactly symmetric.  A zero
    on the factor's diagonal raises LinAlgError; a factor from
    ``core.spd_factor`` has none.
    """
    c, lower = factor
    a = np.array(_square(_finite(c)), order="F")
    a, info = _lapack().potri(a, bool(lower))
    _check(info, "dpotri")
    if info > 0:
        raise np.linalg.LinAlgError(f"the factor has a zero pivot at order {info}")
    mask = np.tri(a.shape[0], dtype=bool)  # the lower triangle, diagonal included
    return np.where(mask if lower else mask.T, a, a.T)
