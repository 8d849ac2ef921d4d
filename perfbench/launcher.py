"""Start ``mssl`` CLI processes one at a time and record what each cost.

Each call is ``python -m mssl.cli ...`` (or the traced wrapper) with
``PYTHONPATH=<checkout>/src``, so a checkout always runs its own code.  No
BLAS or OpenMP variable is set and no ``--threads`` flag is passed: the
program's own thread policy is what gets measured.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

CALL_TIMEOUT_S = 150.0
THREAD_ENV_PREFIXES = ("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "VECLIB_", "NUMEXPR_", "GOTO")

_BLAS_PROBE = r"""
import ctypes, json, numpy
names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
         "openblas_get_num_threads64_", "openblas_get_num_threads")
threads, lib = None, None
with open("/proc/self/maps") as fh:
    paths = sorted({l.split()[-1] for l in fh if "blas" in l.lower() and ".so" in l})
for path in paths:
    try:
        handle = ctypes.CDLL(path)
    except OSError:
        continue
    for name in names:
        fn = getattr(handle, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            threads, lib = fn(), path.rsplit("/", 1)[-1]
            break
    if threads is not None:
        break
print(json.dumps({"blas_threads": threads, "blas_library": lib}))
"""


@dataclass
class CallResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Launcher:
    """Runs child processes from the checkout with a fixed environment."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        # cache bytecode under src/ as an installed package would, so that
        # every call does not recompile the package on import
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env = env
        self._count = 0

    def run(self, argv: list[str]) -> CallResult:
        """Run ``python <argv>`` to completion; waits for the child always."""
        self._count += 1
        out_path = self.work / f"call{self._count}.out"
        err_path = self.work / f"call{self._count}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.work, env=self.env,
                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            )
            status, usage = self._wait(proc)
            wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        result = CallResult(
            exit_code=code,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(),
            stderr=err_path.read_text(),
        )
        out_path.unlink()
        err_path.unlink()
        return result

    @staticmethod
    def _wait(proc: subprocess.Popen):
        """Reap the child with its rusage; kill it if it overruns."""
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return status, usage

    def cli(self, args: list[str]) -> CallResult:
        return self.run(["-m", "mssl.cli", *args])

    def traced(self, spans_path: Path, args: list[str]) -> CallResult:
        script = self.root / "perfbench" / "traced_cli.py"
        return self.run([str(script), str(spans_path), "--", *args])

    def environment(self) -> dict:
        """Machine, library and thread settings the measurements ran under."""
        import numpy
        import scipy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        probe = self.run(["-c", _BLAS_PROBE])
        try:
            child = json.loads(probe.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            child = {"blas_threads": None, "blas_library": None}
        return {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_in_child": child["blas_threads"],
            "blas_library_in_child": child["blas_library"],
            "thread_env": {
                k: v for k, v in sorted(os.environ.items())
                if k.startswith(THREAD_ENV_PREFIXES)
            },
            "commit": _commit(self.root),
        }


def _commit(root: Path) -> str:
    """The git commit if the checkout is a repository, else a hash of src/."""
    if (root / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            )
            if head.returncode == 0:
                return head.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]
