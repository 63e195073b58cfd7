"""Run every workload and print each metric by name, with its unit.

    python3 perfbench/report.py                 # seed 0, end-to-end metrics
    python3 perfbench/report.py --seeds 10      # seeds 0..9: medians and spreads
    python3 perfbench/report.py --trace 1       # per-layer metrics instead

Each (workload, seed) is one `run.py` process, run one after another, so
the output checks run.py makes (repeat digests, conservation, traced
against untraced digests) apply to every line.  With several seeds the
table gives the median and the spread: the distance between the first
and third quartiles as a share of the median, which is what a metric's
bound in BENCHMARK.json is compared with.  Exits 1 if any run failed or
was not correct.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = p.parse_args()

    defs = spec["per_layer" if args.trace else "end_to_end"]
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in defs}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_one(workload, seed, args.seconds, args.trace)
            if result is None or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: FAILED {result}")
                ok = False
                continue
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
        print(f"\n{workload} ({args.seeds} seeds from {args.first_seed}, trace {args.trace})")
        for m in defs:
            vals = values[m["name"]]
            if not vals:
                continue
            bound = m.get("bound")
            s = spread(vals)
            flag = " OVER BOUND" if bound is not None and m["name"] != "setup_s" and s > bound else ""
            print(f"  {m['name']:<40} {statistics.median(vals):>14.6g} {m['unit']:<6}"
                  f" spread {s:6.3f}" + (f" bound {bound}" if bound is not None else "") + flag)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
