"""Command-line front end.

Subcommands:
  calibrate  sweep a synthetic corpus, write the residual table and rate model
  minrate    residual budget -> minimum viable target bitrate
  run        execute a scenario file
  baseline   execute a scenario with fixed encoder knobs and no feedback

Exit codes: 0 success, 1 run/calibration failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .predictor import FitError, fit, save_model, write_samples
from .residual_opt import (
    AGGREGATES,
    CalibrationError,
    InfeasibleError,
    METRICS,
    calibrate_detailed,
    min_rate,
    read_table,
    write_table,
)
from .pipeline import RunError, run_scenario
from .scangen import SensorProfile, generate_corpus
from .scenario import ScenarioError, load_scenario


def _velocity(text: str) -> tuple[float, float]:
    try:
        vx, vy = (float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'vx,vy', got {text!r}") from None
    return vx, vy


def _cmd_calibrate(args) -> int:
    profile = SensorProfile(rings=args.rings, azimuth_steps=args.azimuth)
    corpus = generate_corpus(profile, args.seed, args.scans, args.scan_hz, args.velocity)
    table, samples = calibrate_detailed(
        corpus, scan_hz=args.scan_hz, aggregate=args.aggregate, n_jobs=args.jobs
    )
    write_table(args.out_table, table)
    print(f"table: {args.out_table} ({len(table.rows)} rows, corpus {table.corpus_id})")
    if args.out_samples:
        write_samples(args.out_samples, samples)
        print(f"samples: {args.out_samples} ({len(samples)})")
    if args.out_model:
        model = fit(samples, args.scan_hz)
        save_model(model, args.out_model)
        rmse = model.diagnostics.get("rel_rmse", float("nan"))
        print(f"model: {args.out_model} (relative RMSE {rmse:.4f})")
    return 0


def _cmd_minrate(args) -> int:
    table = read_table(args.table)
    bounds = min_rate(table, args.epsilon, args.r_max, args.metric)
    print(f"epsilon:   {bounds.epsilon!r} m ({bounds.metric})")
    print(f"r_min_bps: {bounds.r_min_bps!r}")
    print(f"r_max_bps: {bounds.r_max_bps!r}")
    print(f"floor_q:   {bounds.floor.min_q}")
    return 0


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    overrides = {}
    if args.seed is not None:
        overrides["scan_source"] = dataclasses.replace(scenario.scan_source, seed=args.seed)
        overrides["link"] = dataclasses.replace(scenario.link, rng_seed=args.seed)
    if args.duration is not None:
        overrides["duration"] = args.duration
    if args.command == "baseline":
        overrides["mode"] = "baseline"
        flags = {"q": args.q, "c": args.c, "pacing_bps": args.pacing_bps}
        overrides["baseline"] = dataclasses.replace(
            scenario.baseline, **{k: v for k, v in flags.items() if v is not None}
        )
    elif args.model is not None:
        overrides["model_path"] = args.model
    result = run_scenario(dataclasses.replace(scenario, **overrides), metrics_path=args.out)
    if result.metrics_path:
        print(f"metrics: {result.metrics_path}")
    print(result.summary.to_text())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="scanstream", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="sweep a corpus; write table, samples, model")
    p.add_argument("--rings", type=int, default=32, help="sensor rings (default 32)")
    p.add_argument("--azimuth", type=int, default=1024, help="azimuth steps per ring (default 1024)")
    p.add_argument("--seed", type=int, default=0, help="environment seed")
    p.add_argument("--scans", type=int, default=60, help="corpus length (default 60)")
    p.add_argument("--scan-hz", type=float, default=10.0, help="scan rate (default 10)")
    p.add_argument("--velocity", type=_velocity, default=(1.0, 0.3), metavar="VX,VY",
                   help="sensor velocity in m/s (default 1.0,0.3)")
    p.add_argument("--aggregate", choices=AGGREGATES, default="mean",
                   help="per-config residual aggregation across the corpus")
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    p.add_argument("--out-table", required=True, help="residual table CSV path")
    p.add_argument("--out-model", default=None, help="rate model JSON path")
    p.add_argument("--out-samples", default=None, help="raw sweep samples CSV path")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("minrate", help="residual budget -> minimum target bitrate")
    p.add_argument("--table", required=True, help="residual table CSV from calibrate")
    p.add_argument("--epsilon", type=float, required=True, help="residual budget in meters")
    p.add_argument("--r-max", type=float, default=10e6, help="upper rate bound in bps")
    p.add_argument("--metric", choices=METRICS, default="mean_ptp")
    p.set_defaults(func=_cmd_minrate)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, help="scenario YAML path")
    common.add_argument("--seed", type=int, default=None,
                        help="override scan-source and link seeds")
    common.add_argument("--duration", type=float, default=None, help="override duration (s)")
    common.add_argument("--out", default=None, help="override metrics CSV path")

    p = sub.add_parser("run", parents=[common], help="execute a scenario file")
    p.add_argument("--model", default=None, help="override rate model path")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("baseline", parents=[common],
                       help="fixed-config run: no feedback, fixed pacing")
    p.add_argument("--q", type=int, help="fixed quantization bits (default: the scenario's)")
    p.add_argument("--c", type=int, help="fixed compression level (default: the scenario's)")
    p.add_argument("--pacing-bps", type=float, help="fixed pacing rate (default: the scenario's)")
    p.set_defaults(func=_cmd_run)
    return top


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as e:
        print(f"error: {e} (smallest achievable: {e.smallest_achievable!r} m)", file=sys.stderr)
        return 1
    except (ScenarioError, RunError, CalibrationError, FitError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
