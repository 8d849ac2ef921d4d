"""Checks on every CLI output; each returns a list of problems (empty = ok).

``fit`` and ``limits`` JSON is validated against the schemas of the commit
under test.  Simulate CSVs must carry the documented header and one row per
(estimator, grid value); replications the engine dropped are returned as a
count rather than a failure so that they can be reported on their own.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import combinations
from pathlib import Path

import jsonschema

MAIN_HEADER = ["preset", "estimator", "grid_name", "grid_value", "mean_error", "se", "k_effective"]
PAIRS_HEADER = ["estimator_a", "estimator_b", "grid_value", "mean_diff", "se_diff", "t", "p"]

# Relative tolerance against the stored reference: wide enough for a change
# in summation order, far too narrow for a changed estimator.
REFERENCE_RTOL = 1e-6


def _schema(root: Path, name: str) -> dict:
    return json.loads((root / "src" / "mssl" / "schemas" / name).read_text())


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REFERENCE_RTOL * max(1.0, scale)


def check_limits(root: Path, stdout: str, reference: dict | None) -> list[str]:
    try:
        out = json.loads(stdout)
        jsonschema.validate(out, _schema(root, "limits_output.schema.json"))
    except (json.JSONDecodeError, jsonschema.ValidationError) as exc:
        return [f"limits output invalid: {str(exc).splitlines()[0]}"]
    problems = []
    values = [out["eta_inf"], out["alpha_inf"], *out["term_limits"].values()]
    if not _finite(values):
        problems.append("limits output has a non-finite value")
    elif reference is not None:
        for key in ("eta_inf", "alpha_inf"):
            if not _close(out[key], reference[key], abs(reference[key])):
                problems.append(f"limits {key}={out[key]!r}, reference {reference[key]!r}")
    return problems


def check_fit(root: Path, stdout: str, expect: dict, reference: dict | None) -> list[str]:
    """``expect`` holds model, n, p, m and alpha_source of the call."""
    try:
        out = json.loads(stdout)
        jsonschema.validate(out, _schema(root, "fit_output.schema.json"))
    except (json.JSONDecodeError, jsonschema.ValidationError) as exc:
        return [f"fit output invalid: {str(exc).splitlines()[0]}"]
    problems = [
        f"{key}={out[key]!r}, expected {value!r}"
        for key, value in expect.items()
        if out[key] != value
    ]
    coef = out["coefficients"]
    if len(coef) != expect["p"]:
        problems.append(f"{len(coef)} coefficients for p={expect['p']}")
    if not _finite(coef):
        problems.append("non-finite coefficient")
    if out["model"] == "glm" and out.get("converged") is not True:
        problems.append("glm fit did not converge")
    if reference is not None and not problems:
        if not _close(out["alpha"], reference["alpha"], 1.0):
            problems.append(f"alpha={out['alpha']!r}, reference {reference['alpha']!r}")
        scale = max(abs(v) for v in reference["coefficients"])
        worst = max(abs(a - b) for a, b in zip(coef, reference["coefficients"]))
        if not _close(worst, 0.0, scale) or len(coef) != len(reference["coefficients"]):
            problems.append(f"coefficients differ from the reference by {worst:.3g}")
    return problems


def fit_reference(stdout: str) -> dict:
    out = json.loads(stdout)
    return {"alpha": out["alpha"], "coefficients": out["coefficients"]}


def limits_reference(stdout: str) -> dict:
    out = json.loads(stdout)
    return {"eta_inf": out["eta_inf"], "alpha_inf": out["alpha_inf"]}


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_simulate(out_dir: Path, expect: dict) -> tuple[list[str], int, int]:
    """Check ``<preset>.csv`` and ``<preset>_pairs.csv``.

    ``expect`` holds preset, k, estimators (count) and grid (values).
    Returns (problems, replications attempted, replications dropped).
    """
    preset, k, grid = expect["preset"], expect["k"], expect["grid"]
    n_est = expect["estimators"]
    attempted = k * len(grid)
    try:
        main = _read_csv(out_dir / f"{preset}.csv")
        pairs = _read_csv(out_dir / f"{preset}_pairs.csv")
    except OSError as exc:
        return [f"missing simulate output: {exc}"], attempted, 0
    problems = []
    if main[:1] != [MAIN_HEADER]:
        problems.append(f"{preset}.csv header {main[:1]!r}")
    if pairs[:1] != [PAIRS_HEADER]:
        problems.append(f"{preset}_pairs.csv header {pairs[:1]!r}")
    rows, pair_rows = main[1:], pairs[1:]
    if len(rows) != n_est * len(grid):
        problems.append(f"{preset}.csv has {len(rows)} rows, expected {n_est * len(grid)}")
    if len(pair_rows) != len(list(combinations(range(n_est), 2))) * len(grid):
        problems.append(f"{preset}_pairs.csv has {len(pair_rows)} rows")
    if problems:
        return problems, attempted, 0

    k_eff: dict[float, set[int]] = {}
    try:
        for row in rows:
            if row[0] != preset:
                problems.append(f"row names preset {row[0]!r}")
            mean_error, se = float(row[4]), float(row[5])
            if not (_finite([mean_error, se]) and se >= 0):
                problems.append(f"non-finite error or negative se in {row!r}")
            k_eff.setdefault(float(row[3]), set()).add(int(row[6]))
        for row in pair_rows:
            if not _finite([float(v) for v in row[3:6]]):
                problems.append(f"non-finite paired statistic in {row!r}")
    except (ValueError, IndexError) as exc:
        return [f"unparsable simulate row: {exc}"], attempted, 0
    if sorted(k_eff) != sorted(float(g) for g in grid):
        problems.append(f"grid values {sorted(k_eff)}, expected {sorted(grid)}")
    dropped = 0
    for value, counts in k_eff.items():
        if len(counts) != 1:
            problems.append(f"k_effective differs across estimators at {value}")
            continue
        kept = counts.pop()
        # the engine aborts a run above 5% failures; more is a broken contract
        if not 0.95 * k <= kept <= k:
            problems.append(f"k_effective={kept} at {value} for K={k}")
        dropped += k - kept
    return problems, attempted, dropped
