"""Self-test of the benchmark: smoke runs plus the suite-replay check.

    python3 perfbench/selftest.py

For every workload it runs run.py on smoke-sized inputs with --trace 0
and --trace 1 and checks that:
  - the last output line is the result object with exactly the keys
    correct, attempted, failed and metrics, and reads correct, 0 failed;
  - every end-to-end and per-layer metric of BENCHMARK.json is present,
    finite and carries the unit BENCHMARK.json gives it;
  - the traced rep's digests equal the untraced rep's, in the same process
    and across the two processes.
It also checks that the model fixture is the one fixture.json describes
and that step-adaptive at full size with scene seed 7 reproduces the test
suite's metrics CSV byte for byte.  Takes about a minute; exits 1 on any
failure.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SEED = 0

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def smoke(workload: str, trace: int, defs: list[dict]) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    tag = f"{workload} trace {trace}"
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and bool(lines), f"{tag}: exits 0 with output")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {}
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{tag}: correct, attempted {result['attempted']}, failed {result['failed']}")
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in defs}, f"{tag}: metric names match BENCHMARK.json")
    bad = [m["name"] for m in defs
           if not (m["name"] in metrics
                   and isinstance(metrics[m["name"]]["value"], (int, float))
                   and math.isfinite(metrics[m["name"]]["value"])
                   and metrics[m["name"]]["unit"] == m["unit"])]
    check(not bad, f"{tag}: every metric finite with its unit {bad or ''}")
    with open(os.path.join(OUT, f"report-{workload}-seed{SEED}-trace{trace}.json")) as fh:
        return json.load(fh)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads as wl  # noqa: PLC0415

    fixture = wl.load_fixture()
    check(wl.sha256_file(wl.MODEL_PATH) == fixture["model_sha256"],
          "model fixture matches its recorded SHA-256")

    for w in spec["workloads"]:
        name = w["name"]
        untraced = smoke(name, 0, spec["end_to_end"])
        traced = smoke(name, 1, spec["per_layer"])
        if untraced and traced:
            same = all(traced["digests"][k] == v for k, v in traced["untraced_digests"].items())
            check(same and not traced["problems"],
                  f"{name}: traced rep's digests equal the untraced rep's {traced['problems']}")
            check(traced["digests"] == untraced["digests"],
                  f"{name}: trace 1 and trace 0 processes produce the same digests")

    # the full-size step workload is the suite's step scenario
    step = wl.make("step-adaptive")
    os.makedirs(OUT, exist_ok=True)
    step.setup(fixture["suite_step_seed"], OUT)
    rep = step.rep()
    check(rep.digests["metrics_sha256"] == fixture["suite_step_metrics_sha256"],
          f"step-adaptive seed {fixture['suite_step_seed']} replays the suite's metrics CSV"
          f" ({rep.digests['metrics_sha256'][:12]})")

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
