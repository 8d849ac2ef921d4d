"""Run one ``mssl`` CLI call with spans around each module's entry points.

Usage::

    python perfbench/traced_cli.py SPANS.json -- <mssl cli arguments>

The script imports ``mssl.cli`` (timing the import), wraps the entry points
listed in ``ENTRY_POINTS`` at every ``mssl`` module that binds them, runs
``mssl.cli.main`` and, when it returns, writes every span it kept in memory
to ``SPANS.json``.  Nothing under ``src/`` is edited: the wrappers are
installed on the loaded modules only.

A span records its name (``<module>.<entry point>``), the thread that ran
it, start and end times, the span that enclosed it on the same thread, and
counters read from the call's result.  Self time is therefore computed
per thread, which matters because ``mssl simulate`` runs replications on a
thread pool.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# (module, attribute path, span name).  A class attribute path wraps the
# method on the class itself, so every module that binds the class sees it.
ENTRY_POINTS = [
    ("mssl.cli", "main", "cli.main"),
    ("mssl.io", "read_labeled_csv", "io.read"),
    ("mssl.io", "read_pool_csv", "io.read"),
    ("mssl.io", "read_pool_binary", "io.read"),
    ("mssl.core", "build_moments", "core.build_moments"),
    ("mssl.core", "resample_block", "core.resample_block"),
    ("mssl.ols", "OlsPoolModel.__init__", "ols.pool_model"),
    ("mssl.ols", "OlsPoolModel.bias_at", "ols.bias_at"),
    ("mssl.ols", "DdotRiskModel.__init__", "ols.ddot_model"),
    ("mssl.ols", "DdotRiskModel.curve", "ols.ddot_curve"),
    ("mssl.glm", "_newton", "glm.newton"),
    ("mssl.glm", "GlmPoolStats.__init__", "glm.pool_stats"),
    ("mssl.interp", "interp_risk_terms", "interp.risk_terms"),
    ("mssl.interp", "iterate_sigma_tau", "interp.sigma_tau"),
    ("mssl.interp", "fit_min_norm", "interp.fit"),
    ("mssl.interp", "fit_min_variance", "interp.fit"),
    ("mssl.pipelines", "fit_ols_pipeline", "pipelines.fit"),
    ("mssl.pipelines", "fit_glm_pipeline", "pipelines.fit"),
    ("mssl.pipelines", "fit_interp_pipeline", "pipelines.fit"),
    ("mssl.simulate", "run_experiment", "simulate.run"),
    ("mssl.simulate", "_run_reps", "simulate.engine"),
    ("mssl.simulate", "write_result_csv", "simulate.write_csv"),
]

# The remaining public functions of these modules get a span named
# "<module>.other", so that pipeline and CLI self time is glue only.
LIBRARY_MODULES = ("mssl.core", "mssl.io", "mssl.ols", "mssl.glm", "mssl.interp")


def _counters(span_name: str, args, kwargs, result) -> dict:
    """Counts read from an entry point's inputs and result.

    A count the call no longer exposes is left out of the span, which the
    report shows as "not observed" rather than as zero.
    """
    try:
        if span_name == "glm.newton":
            return {"iters": result.iterations, "nonconverged": int(not result.converged)}
        if span_name == "interp.sigma_tau":
            return {"iters": result.iterations}
        if span_name == "ols.pool_model":
            return {"skipped": args[0].n_skipped}
        if span_name == "simulate.engine":
            k = args[2] if len(args) > 2 else kwargs["k"]
            return {"reps": k, "failed": k - len(result)}
    except (AttributeError, IndexError, KeyError, TypeError):
        pass
    return {}


class Tracer:
    """Keeps spans in memory; one per-thread stack gives each span its parent."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, fn, span_name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span_name == "simulate.engine":
                # each replication gets its own span on whichever worker
                # thread runs it, so its inline kernels count as simulate
                # self time on that thread
                cfg, rep_fn, *rest = args
                args = (cfg, tracer.wrap(rep_fn, "simulate.rep"), *rest)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = {
                "name": span_name,
                "thread": threading.get_ident(),
                "parent": stack[-1] if stack else -1,
            }
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            span.update(_counters(span_name, args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("mssl")]
        replaced: dict[int, object] = {}
        for module_name, path, span_name in ENTRY_POINTS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(span_name)
                continue
            wrapped = self.wrap(original, span_name)
            if outer:
                setattr(owner, attr, wrapped)  # method: patched on the class
            else:
                replaced[id(original)] = wrapped
        for module_name in LIBRARY_MODULES:
            module = sys.modules.get(module_name)
            span_name = module_name.split(".")[1] + ".other"
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name, None)
                if callable(obj) and not isinstance(obj, type) and id(obj) not in replaced:
                    replaced[id(obj)] = self.wrap(obj, span_name)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced and callable(obj):
                    setattr(module, name, replaced[id(obj)])

    def dump(self, path: str, import_s: float) -> None:
        payload = {
            "import_s": import_s,
            "missing": sorted(set(self.missing)),
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS.json -- <mssl arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import mssl.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return mssl.cli.main(cli_args)
    finally:
        tracer.dump(out_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
