"""End-to-end and per-layer benchmark of the ``mssl`` command-line tool.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fit --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --update-reference        # rewrite reference.json

Every CLI call is its own process, started the way users start the tool
(``python -m mssl.cli`` with the checkout's ``src`` on ``PYTHONPATH``), one at
a time: a closed loop with one client.  A run first writes the workload's
inputs from ``--seed`` (untimed), then repeats passes over the workload's
calls until ``--seconds`` have passed (at least two passes).  Each pass
starts with one ``mssl limits`` call, whose wall time is the set-up cost
(interpreter start plus ``import mssl.cli``) that every call pays.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` traced and untraced passes alternate
and the JSON carries the per-layer metrics.  The lines above it report every
call kind by name, with its unit and sample count, and the environment.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from launcher import Launcher  # noqa: E402

ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_SEED = 0
MIN_PASSES = 2

# Sizes of the fit workload.  The ols and glm fits keep n=500, p=50 against
# a 100k-row pool; the interp sizes and the block count (CLI default 200) are
# cut so that a pass of all five fits fits twice into one run.
FIT_SIZES = {"n": 500, "p": 50, "m": 100_000, "interp_n": 100, "interp_p": 200, "interp_m": 2000}
FIT_BLOCKS = "40"

LIMITS_ARGS = ["limits", "--mode", "ols", "--gamma", "0.5"]


@dataclass
class Call:
    """One CLI call kind of a workload; ``name`` is its end-to-end metric."""

    name: str
    args: list[str]
    expect: dict
    out_dir: Path | None = None  # simulate calls write their CSVs here


@dataclass
class Samples:
    """What the untraced, or the traced, calls of one run measured."""

    wall: dict[str, list[float]] = field(default_factory=dict)
    cpu: dict[str, list[float]] = field(default_factory=dict)
    rss: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reps_attempted: int = 0
    reps_dropped: int = 0
    problems: list[str] = field(default_factory=list)


def _fit_calls(seed: int, work: Path) -> list[Call]:
    files = inputs.write_fit_inputs(seed, work / "inputs", FIT_SIZES)
    n, p, m = FIT_SIZES["n"], FIT_SIZES["p"], FIT_SIZES["m"]
    ni, pi, mi = FIT_SIZES["interp_n"], FIT_SIZES["interp_p"], FIT_SIZES["interp_m"]
    linear = ["--labeled", str(files["linear"]), "--pool", str(files["pool_bin"])]
    glm = ["--labeled", str(files["glm"]), "--pool", str(files["pool_bin"]), "--link", "elu"]
    specs = [
        ("fit.ols_auto_s", linear + ["--model", "ols", "--alpha", "auto"], "formula"),
        ("fit.ols_grid_s", linear + ["--model", "ols", "--alpha", "grid"], "grid"),
        ("fit.glm_auto_s", glm + ["--model", "glm", "--alpha", "auto"], "formula"),
        ("fit.glm_grid_s", glm + ["--model", "glm", "--alpha", "grid", "--grid-size", "21"],
         "grid"),
    ]
    calls = [
        Call(name, ["fit", *args], {"model": args[args.index("--model") + 1],
                                     "n": n, "p": p, "m": m, "alpha_source": source})
        for name, args, source in specs
    ]
    interp = ["--labeled", str(files["interp"]), "--pool", str(files["interp_pool"])]
    calls.append(Call("fit.interp_s", ["fit", *interp, "--model", "interp"],
                      {"model": "interp", "n": ni, "p": pi, "m": mi, "alpha_source": "formula"}))
    for i, call in enumerate(calls):
        call.args += ["--seed", str(inputs.cli_seed(seed, i)), "--blocks", FIT_BLOCKS]
    return calls


def _sim_call(name: str, seed: int, index: int, work: Path, config: dict, expect: dict) -> Call:
    """A ``simulate`` call reading its preset and grid from a generated config."""
    out_dir = work / name
    path = work / f"{name}.ini"
    lines = ["[experiment]"] + [f"{k} = {v}" for k, v in config.items()]
    path.write_text("\n".join(lines) + "\n")
    args = ["simulate", "--config", str(path), "-k", str(expect["k"]),
            "--seed", str(inputs.cli_seed(seed, index)), "--out-dir", str(out_dir)]
    return Call(name, args, {"preset": config["preset"], **expect}, out_dir)


# The preset grids are cut to one or two points, and the one-time pool
# statistics to fewer blocks, so that a pass fits three times into one run.
# sim-reps keeps most of its time in the replications, sim-pool in the pool
# statistics over large blocks.
def _sim_reps_calls(seed: int, work: Path) -> list[Call]:
    return [
        _sim_call("sim.glm_elu_s", seed, 0, work,
                  {"preset": "glm_elu", "sigma2_grid": "1, 25"},
                  {"k": 12, "estimators": 7, "grid": [1.0, 25.0]}),
        _sim_call("sim.ols_constant_beta_s", seed, 1, work,
                  {"preset": "ols_constant_beta", "sigma2_grid": "1, 25", "resample_blocks": 40},
                  {"k": 300, "estimators": 8, "grid": [1.0, 25.0]}),
    ]


def _sim_pool_calls(seed: int, work: Path) -> list[Call]:
    return [
        _sim_call("sim.interp_growth_s", seed, 0, work,
                  {"preset": "interp_growth", "n_grid": "100", "resample_blocks": 120},
                  {"k": 20, "estimators": 5, "grid": [100.0]}),
        _sim_call("sim.ols_random_beta_s", seed, 1, work,
                  {"preset": "ols_random_beta", "n_grid": "200", "resample_blocks": 120},
                  {"k": 20, "estimators": 5, "grid": [200.0]}),
    ]


WORKLOADS = {"fit": _fit_calls, "sim-reps": _sim_reps_calls, "sim-pool": _sim_pool_calls}


def _load_reference(seed: int) -> dict:
    """Reference outputs: limits always, fits only at the reference seed."""
    reference = json.loads(REFERENCE_PATH.read_text())
    if seed == REFERENCE_SEED:
        return reference
    return {"limits": reference["limits"]}


def _check(call: Call, result, reference: dict, samples: Samples) -> list[str]:
    if result.exit_code != 0:
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {result.exit_code}: {tail[0]}"]
    if call.name == "setup_s":
        return checks.check_limits(ROOT, result.stdout, reference.get("limits"))
    if call.out_dir is None:
        return checks.check_fit(ROOT, result.stdout, call.expect, reference.get(call.name))
    problems, attempted, dropped = checks.check_simulate(call.out_dir, call.expect)
    samples.reps_attempted += attempted
    samples.reps_dropped += dropped
    return problems


def _run_call(launcher: Launcher, call: Call, reference: dict, samples: Samples,
              spans_path: Path | None = None):
    if call.out_dir is not None:
        shutil.rmtree(call.out_dir, ignore_errors=True)
    if spans_path is None:
        result = launcher.cli(call.args)
    else:
        result = launcher.traced(spans_path, call.args)
    problems = _check(call, result, reference, samples)
    samples.attempted += 1
    if problems:
        samples.failed += 1
        samples.problems += [f"{call.name}: {p}" for p in problems]
    return result


def _pass(launcher: Launcher, calls: list[Call], reference: dict, samples: Samples,
          limits: Call, traced_dir: Path | None = None) -> list[dict]:
    """One pass over the workload's calls.

    Untraced passes start with the ``limits`` set-up probe.  Traced passes
    run each call under the tracer and return its layer metrics.
    """
    if traced_dir is None:
        for call in [limits, *calls]:
            result = _run_call(launcher, call, reference, samples)
            samples.wall.setdefault(call.name, []).append(result.wall_s)
            samples.cpu.setdefault(call.name, []).append(result.cpu_s)
            samples.rss.append(result.peak_rss_mb)
        return []
    per_call = []
    spans_path = traced_dir / "spans.json"
    for call in calls:
        result = _run_call(launcher, call, reference, samples, spans_path)
        samples.wall.setdefault(call.name, []).append(result.wall_s)
        if not spans_path.is_file():
            samples.failed += 1
            samples.problems.append(f"{call.name}: traced call wrote no spans")
            continue
        trace = json.loads(spans_path.read_text())
        spans_path.unlink()
        metrics = spans.call_metrics(trace)
        metrics["cli.import_s"] = trace["import_s"]
        metrics["work_s"] = spans.thread_work(trace["spans"])
        metrics["call"] = call.name
        per_call.append(metrics)
    return per_call


def _median(values: list[float]) -> float:
    return statistics.median(values)


def _summary_line(name: str, unit: str, values: list[float]) -> str:
    shown = " ".join(f"{v:.3f}" for v in values)
    return f"  {name:<28} {_median(values):10.4f} {unit:<5} n={len(values)} samples: {shown}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 launcher: Launcher, work: Path) -> dict:
    """Measure one workload; returns the result object for the JSON line."""
    calls = WORKLOADS[workload](seed, work)
    limits = Call("setup_s", LIMITS_ARGS, {})
    reference = _load_reference(seed)
    samples = Samples()  # untraced calls
    traced = Samples()
    per_pass: list[dict] = []
    traced_pass_wall: list[float] = []
    untraced_pass_wall: list[float] = []
    start = time.perf_counter()

    # the first call warms the interpreter's caches; it still counts as a
    # set-up sample, and the median over the run absorbs a slow first start
    _pass(launcher, [], reference, samples, limits)
    n_untraced = n_traced = 0
    while True:
        if not trace or n_untraced <= n_traced:
            before = {c.name: len(samples.wall.get(c.name, [])) for c in calls}
            _pass(launcher, calls, reference, samples, limits)
            untraced_pass_wall.append(sum(samples.wall[c.name][before[c.name]] for c in calls))
            n_untraced += 1
        else:
            tdir = work / "trace"
            tdir.mkdir(exist_ok=True)
            t0 = len(traced.wall.get(calls[0].name, []))
            call_metrics = _pass(launcher, calls, reference, traced, limits, tdir)
            if len(call_metrics) == len(calls):
                per_pass.append({
                    "layers": spans.sum_metrics(call_metrics),
                    "import_s": [m["cli.import_s"] for m in call_metrics],
                    "calls": call_metrics,
                })
            traced_pass_wall.append(sum(traced.wall[c.name][t0] for c in calls))
            n_traced += 1
        elapsed = time.perf_counter() - start
        enough = n_untraced >= (1 if trace else MIN_PASSES) and (not trace or n_traced >= 1)
        if enough and elapsed >= seconds:
            break

    medians = {c.name: _median(samples.wall[c.name]) for c in calls}
    setup = _median(samples.wall["setup_s"])
    end_to_end = {
        "setup_s": (setup, "s"),
        "pass_s": (sum(medians.values()), "s"),
        "peak_rss_mb": (max(samples.rss), "MB"),
    }
    attempted = samples.attempted + traced.attempted
    failed = samples.failed + traced.failed
    reps_attempted = samples.reps_attempted + traced.reps_attempted
    reps_dropped = samples.reps_dropped + traced.reps_dropped
    rep_fail_frac = reps_dropped / reps_attempted if reps_attempted else 0.0

    print(f"workload {workload}: seed={seed} passes={n_untraced} traced_passes={n_traced} "
          f"wall={time.perf_counter() - start:.1f}s")
    print("  end-to-end, untraced (median wall seconds of one CLI process):")
    print(_summary_line("setup_s", "s", samples.wall["setup_s"]))
    for c in calls:
        print(_summary_line(c.name, "s", samples.wall[c.name]))
    print(f"  {'pass_s':<28} {end_to_end['pass_s'][0]:10.4f} s     sum of the call medians above")
    print(f"  {'peak_rss_mb':<28} {max(samples.rss):10.4f} MB    largest of n={len(samples.rss)}")
    print(f"  {'failed_frac':<28} {failed / attempted:10.4f} ratio ({failed}/{attempted} calls)")
    if reps_attempted:
        print(f"  {'rep_fail_frac':<28} {rep_fail_frac:10.4f} ratio "
              f"({reps_dropped}/{reps_attempted} replications)")
    for problem in samples.problems + traced.problems:
        print(f"  FAILED {problem}")

    if not trace:
        metrics = end_to_end
    else:
        metrics = _layer_metrics(calls, samples, per_pass, untraced_pass_wall,
                                 traced_pass_wall, rep_fail_frac)
    return {
        "correct": failed == 0 and reps_dropped == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_per_wall")):
        return "ratio"
    return "count"


def _layer_metrics(calls, samples, per_pass, untraced_wall, traced_wall, rep_fail_frac):
    out = {}
    print("  per layer, traced (per pass; median over traced passes):")
    for name in spans.LAYER_METRICS:
        values = [p["layers"][name] for p in per_pass]
        value = None if not values or any(v is None for v in values) else _median(values)
        out[name] = (value, _layer_unit(name))
    imports = [v for p in per_pass for v in p["import_s"]]
    out["cli.import_s"] = (_median(imports) if imports else None, "s")
    cpu = [sum(samples.cpu[c.name][i] for c in calls) for i in range(len(untraced_wall))]
    out["process.cpu_s"] = (_median(cpu), "s")
    total_wall = sum(sum(samples.wall[c.name]) for c in calls)
    total_cpu = sum(sum(samples.cpu[c.name]) for c in calls)
    out["process.cpu_per_wall"] = (total_cpu / total_wall, "ratio")
    base = _median(untraced_wall)
    out["trace.overhead_frac"] = ((_median(traced_wall) - base) / base, "ratio")
    out["rep_fail_frac"] = (rep_fail_frac, "ratio")
    for name, (value, unit) in out.items():
        shown = "not observed" if value is None else f"{value:10.4f} {unit}"
        print(f"  {name:<28} {shown}")
    # where each call's in-process time went, from the last traced pass
    if per_pass:
        print("  busy share of in-process work (summed over threads), per call:")
        for m in per_pass[-1]["calls"]:
            total = m["work_s"]
            parts = [
                f"{k.removesuffix('_s')} {m[k] / total:.0%}"
                for k in spans.LAYER_METRICS
                if k.endswith("_s") and m[k] is not None and total > 0 and m[k] / total >= 0.05
            ]
            print(f"    {m['call']:<26} work {total:.3f}s: " + ", ".join(parts))
    return out


def update_reference(launcher: Launcher, work: Path) -> None:
    """Rewrite reference.json from the current code at the reference seed."""
    reference = {"seed": REFERENCE_SEED, "sizes": FIT_SIZES, "blocks": FIT_BLOCKS}
    result = launcher.cli(LIMITS_ARGS)
    reference["limits"] = checks.limits_reference(result.stdout)
    for call in _fit_calls(REFERENCE_SEED, work):
        result = launcher.cli(call.args)
        if result.exit_code != 0:
            raise SystemExit(f"{call.name} failed: {result.stderr}")
        reference[call.name] = checks.fit_reference(result.stdout)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mssl" / "cli.py").is_file():
        print(f"error: no mssl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        launcher = Launcher(ROOT, work)
        if args.update_reference:
            update_reference(launcher, work)
            return 0
        print("environment: " + json.dumps(launcher.environment(), sort_keys=True))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), launcher, work)
            for name in names
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
