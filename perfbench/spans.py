"""Per-layer metrics from the spans that ``traced_cli.py`` writes.

*Busy* time of a span name sums its outermost spans (a span nested in one of
the same name on the same thread is not counted twice).  *Self* time is a
span's duration minus the durations of its direct children on the same
thread, so waiting on a worker thread is not mistaken for work.
"""

from __future__ import annotations

# metric -> (kind, span names, counter key); kinds: busy, calls, self, sum
LAYER_METRICS = {
    "io.read_s": ("busy", ("io.read",), None),
    "io.read_calls": ("calls", ("io.read",), None),
    "core.build_moments_s": ("busy", ("core.build_moments",), None),
    "core.resample_block_s": ("busy", ("core.resample_block",), None),
    "core.resample_block_calls": ("calls", ("core.resample_block",), None),
    "ols.pool_model_s": ("busy", ("ols.pool_model",), None),
    "ols.blocks_skipped": ("sum", ("ols.pool_model",), "skipped"),
    "ols.ddot_model_s": ("busy", ("ols.ddot_model",), None),
    "ols.ddot_curve_s": ("busy", ("ols.ddot_curve",), None),
    "ols.ddot_curve_calls": ("calls", ("ols.ddot_curve",), None),
    "ols.bias_at_s": ("busy", ("ols.bias_at",), None),
    "glm.newton_s": ("busy", ("glm.newton",), None),
    "glm.newton_calls": ("calls", ("glm.newton",), None),
    "glm.newton_iters": ("sum", ("glm.newton",), "iters"),
    "glm.newton_nonconverged": ("sum", ("glm.newton",), "nonconverged"),
    "glm.pool_stats_s": ("busy", ("glm.pool_stats",), None),
    "glm.pool_stats_calls": ("calls", ("glm.pool_stats",), None),
    "interp.risk_terms_s": ("busy", ("interp.risk_terms",), None),
    "interp.sigma_tau_s": ("busy", ("interp.sigma_tau",), None),
    "interp.sigma_tau_iters": ("sum", ("interp.sigma_tau",), "iters"),
    "interp.fit_s": ("busy", ("interp.fit",), None),
    "pipelines.self_s": ("self", ("pipelines.fit",), None),
    "cli.self_s": ("self", ("cli.main",), None),
    "simulate.self_s": ("self", ("simulate.run", "simulate.rep"), None),
    "simulate.write_csv_s": ("busy", ("simulate.write_csv",), None),
    "simulate.reps_failed": ("sum", ("simulate.engine",), "failed"),
}


def busy(spans: list[dict], names: tuple[str, ...]) -> float:
    total = 0.0
    for s in spans:
        if s["name"] not in names:
            continue
        parent = s["parent"]
        nested = False
        while parent >= 0:
            if spans[parent]["name"] == s["name"]:
                nested = True
                break
            parent = spans[parent]["parent"]
        if not nested:
            total += s["end"] - s["start"]
    return total


def _self_times(spans: list[dict]) -> list[float]:
    dur = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            child_time[s["parent"]] += dur[i]
    return [d - c for d, c in zip(dur, child_time)]


def _self(spans: list[dict], names: tuple[str, ...]) -> float:
    return sum(t for t, s in zip(_self_times(spans), spans) if s["name"] in names)


def thread_work(spans: list[dict]) -> float:
    """In-process time summed over threads, without the engine's wait.

    The self time of every span adds up to the length of each thread's
    outermost spans; the replication engine's own self time is the main
    thread waiting for its workers, so it is left out.
    """
    return sum(t for t, s in zip(_self_times(spans), spans) if s["name"] != "simulate.engine")


def call_metrics(trace: dict) -> dict:
    """Layer metrics of one traced CLI call; None where not observed."""
    spans, missing = trace["spans"], set(trace["missing"])
    out = {}
    for metric, (kind, names, key) in LAYER_METRICS.items():
        if all(n in missing for n in names):
            out[metric] = None
        elif kind == "busy":
            out[metric] = busy(spans, names)
        elif kind == "self":
            out[metric] = _self(spans, names)
        elif kind == "calls":
            out[metric] = sum(1 for s in spans if s["name"] in names)
        else:
            counts = [s.get(key) for s in spans if s["name"] in names]
            out[metric] = None if None in counts else sum(counts)
    return out


def sum_metrics(per_call: list[dict]) -> dict:
    """Totals over the calls of one pass; None stays None (not observed)."""
    out = {}
    for metric in LAYER_METRICS:
        values = [c[metric] for c in per_call]
        out[metric] = None if any(v is None for v in values) else sum(values)
    return out
