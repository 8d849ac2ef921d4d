"""Command-line frontend: fit, diagnose, simulate, and limits.

Exit codes: 0 on success, 1 for I/O or parse failures, 2 for usage and
domain errors.  fit and diagnose take their seed from the MSSL_SEED
environment variable when --seed is not given; simulate takes --seed or the
config's seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from ._blas import single_blas_thread
from .asymptotics import AsymptoticSetting, finite_m_limits, interp_limits, ols_limits
from .core import _center_in_place
from .errors import DataValidationError, MsslError
from .io import read_labeled_csv, read_pool_binary, read_pool_csv
from .links import link_by_name
from .pipelines import fit_glm_pipeline, fit_interp_pipeline, fit_ols_pipeline
from .simulate import (
    _CONFIG_KEYS,
    ExperimentConfig,
    load_config,
    preset_names,
    run_experiment,
    write_result_csv,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2


# each simulate flag overrides the config key it sets, parsed as a config file's value is
_SIMULATE_FLAGS = (
    (("-k", "--replications"), "k", None),
    (("--seed",), "seed", None),
    (("--sigma2-grid",), "sigma2_grid", "comma-separated values"),
    (("--n-grid",), "n_grid", "comma-separated values"),
    (("--pool-size",), "pool_size", None),
    (("--estimators",), "estimators", "comma-separated estimator names"),
)

# the optional limits settings are AsymptoticSetting's fields, which keep their
# defaults when their flags are left out; each mode reads only some of them
_LIMITS_SETTINGS = tuple(f.name for f in dataclasses.fields(AsymptoticSetting) if f.name != "gamma")
_LIMITS_READS = {
    "ols": ("sigma2", "tau2", "c2"),
    "interp": _LIMITS_SETTINGS,
    "finite_m": ("gamma_tilde", "c2"),
}


def _default_seed() -> int:
    env = os.environ.get("MSSL_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise DataValidationError(f"MSSL_SEED must be an integer, got {env!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mssl",
        description="Mixed semi-supervised regression toolkit",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_fit_args(p):
        p.add_argument("--labeled", required=True, help="labeled CSV, response last")
        p.add_argument("--pool", required=True, help="pool CSV or .bin dump")
        p.add_argument("--model", required=True, choices=["ols", "glm", "interp"])
        p.add_argument("--link", default="identity", choices=["identity", "elu"],
                       help="link of --model glm; the other models are least squares")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--blocks", type=int, default=200)

    fit = sub.add_parser("fit", help="fit a mixed estimator and print JSON")
    add_fit_args(fit)
    fit.add_argument(
        "--alpha",
        default="auto",
        help="mixing policy: 'auto' (formula), 'grid', or a fixed value in [0,1]",
    )
    fit.add_argument("--grid-size", type=int, help="points of the --alpha grid (default 51)")

    diag = sub.add_parser("diagnose", help="print the mixing diagnostics only")
    add_fit_args(diag)
    diag.set_defaults(alpha="auto", grid_size=None)

    sim = sub.add_parser("simulate", help="run a Monte Carlo preset")
    source = sim.add_mutually_exclusive_group()
    source.add_argument("--preset")
    source.add_argument("--config", help="key=value sections file with [experiment]")
    source.add_argument("--list", action="store_true", help="list presets and exit")
    sim.add_argument("--out-dir", help="directory of the CSVs (default: .)")
    for names, key, text in _SIMULATE_FLAGS:
        sim.add_argument(*names, dest=key, help=text)

    lim = sub.add_parser("limits", help="closed-form asymptotic limits as JSON")
    lim.add_argument("--mode", required=True, choices=["ols", "interp", "finite_m"])
    lim.add_argument("--gamma", type=float, required=True)
    for key in _LIMITS_SETTINGS:
        lim.add_argument("--" + key.replace("_", "-"), type=float)
    return parser


def _read_pool(path: str):
    if str(path).endswith(".bin"):
        return read_pool_binary(path)
    return read_pool_csv(path)


def _cmd_fit(args, diagnose_only: bool) -> int:
    if args.model != "glm" and args.link != "identity":
        raise DataValidationError(f"--link {args.link} applies to --model glm only")
    if args.grid_size is not None and args.alpha != "grid":
        raise DataValidationError("--grid-size applies to --alpha grid only")
    grid_size = 51 if args.grid_size is None else args.grid_size
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        data = read_labeled_csv(args.labeled)
        pool = _read_pool(args.pool)
    except DataValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    # the command owns the array it read: centered in place, it is the fit's one copy
    pool = _center_in_place(pool.Z)
    kwargs = {"alpha_policy": args.alpha, "seed": seed, "blocks": args.blocks}
    if args.model == "ols":
        report = fit_ols_pipeline(data, pool, grid_size=grid_size, **kwargs)
    elif args.model == "glm":
        report = fit_glm_pipeline(
            data, pool, link_by_name(args.link), grid_size=grid_size, **kwargs
        )
    else:
        report = fit_interp_pipeline(data, pool, **kwargs)
    if diagnose_only:
        report = {
            k: report[k]
            for k in ("schema_version", "model", "link", "n", "p", "m", "diagnostics")
        }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.list:
        for names, key, _ in _SIMULATE_FLAGS:
            if getattr(args, key) is not None:
                raise DataValidationError(f"--list takes no {names[-1]}")
        if args.out_dir is not None:
            raise DataValidationError("--list takes no --out-dir")
        for name in preset_names():
            print(name)
        return EXIT_OK
    if args.config:
        try:
            cfg = load_config(args.config)
        except DataValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    elif args.preset:
        cfg = ExperimentConfig(preset=args.preset)
    else:
        print("error: provide --preset, --config, or --list", file=sys.stderr)
        return EXIT_USAGE

    overrides = {}
    for names, key, _ in _SIMULATE_FLAGS:
        raw = getattr(args, key)
        if raw is not None:
            try:
                overrides[key] = _CONFIG_KEYS[key](raw)
            except ValueError as exc:
                raise DataValidationError(f"{names[-1]}: bad value {raw!r}") from exc
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)

    result = run_experiment(cfg)
    main_csv, pairs_csv = write_result_csv(result, "." if args.out_dir is None else args.out_dir)
    print(f"preset {result.preset}: {len(result.rows)} rows -> {main_csv}")
    print(f"paired tests: {len(result.paired)} rows -> {pairs_csv}")
    return EXIT_OK


def _cmd_limits(args) -> int:
    settings = {}
    for key in _LIMITS_SETTINGS:
        value = getattr(args, key)
        if value is None:
            continue
        if key not in _LIMITS_READS[args.mode]:
            flag = "--" + key.replace("_", "-")
            raise DataValidationError(f"--mode {args.mode} does not read {flag}")
        settings[key] = value
    if args.mode == "interp" and "gamma_tilde" not in settings:
        # the default gamma_tilde = 0 lies outside interp's range
        raise DataValidationError("--mode interp needs --gamma-tilde, with 1 < gamma_tilde < gamma")
    limits = {"ols": ols_limits, "interp": interp_limits, "finite_m": finite_m_limits}[args.mode]
    report = limits(AsymptoticSetting(gamma=args.gamma, **settings))
    payload = {"schema_version": 1, "mode": args.mode, **dataclasses.asdict(report)}
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with single_blas_thread():
            if args.verb == "fit":
                return _cmd_fit(args, diagnose_only=False)
            if args.verb == "diagnose":
                return _cmd_fit(args, diagnose_only=True)
            if args.verb == "simulate":
                return _cmd_simulate(args)
            if args.verb == "limits":
                return _cmd_limits(args)
    except MsslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
