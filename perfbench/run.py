"""scanstream benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics of BENCHMARK.json untraced.  It
pins itself to one CPU, warms the workload up, then repeats its unit of
work until --seconds have passed (at least twice), timing set-up in fresh
interpreters spread over the run.  It checks that every repeat passed the
output checks and produced the same digests, and reports medians.  All
timings are scaled to a reference machine speed measured by a probe that
runs between and inside the reps (see Meter).  --trace 1 runs the unit of
work once untraced and once with the outside-in tracer installed, checks
that both produce the same digests, and reports the per-layer metrics.
Either way the last line of standard output is {"correct", "attempted",
"failed", "metrics"}; a longer report (with the unscaled timings) and, for
--trace 1, the span records go to .perfbench_out/ in the checkout.  Needs
the checkout's src/ tree and Python with numpy and PyYAML.
"""
from __future__ import annotations

import os

# single-threaded BLAS: every workload runs in one process on one core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
# set-up is timed in this many fresh interpreters, spread over the run
SETUP_PROBES = 7
# The speed of a shared host's cores swings by up to half, in phases of
# seconds to minutes, for every program on them.  So each timing is scaled
# to what it would be on a core where a fixed probe (pure Python and numpy) takes
# REF_NOMINAL_S (about its time on a quiet 2-vCPU VM).  The probe runs
# before every rep, after the last and, inside the run workloads' reps,
# about every PROBE_EVERY_S; see Meter.  It does not touch scanstream, so
# a faster or slower program moves the metrics in full.  The unscaled
# figures go to the report file.
REF_ITERATIONS = 40_000
REF_ARRAY_PASSES = 2
REF_ROUNDS = 10
REF_NOMINAL_S = 0.1
PROBE_EVERY_S = 1.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from None


def import_program():
    """Put the checkout's src/ first on the path and import the workloads."""
    if not os.path.isfile(os.path.join(SRC, "scanstream", "__init__.py")):
        raise BenchError(f"no scanstream sources under {SRC}")
    sys.path.insert(0, SRC)
    import workloads  # noqa: PLC0415  (imports scanstream)
    return workloads


def pin_to_one_cpu() -> None:
    """Run on one CPU of the allowed set, so that reps, reference probes and
    set-up probes (which inherit the mask) all time the same core.  Two
    cores of this kind of shared host drift apart by up to a fifth; a
    process that migrates between them mixes their speeds."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def reference_loop() -> int:
    """A fixed pure-Python loop, like the event loop's work."""
    d, s = {}, 0
    for i in range(REF_ITERATIONS):
        s += i * i
        d[i & 255] = s
    return s


def reference_arrays(a):
    """A fixed numpy kernel on scan-sized arrays, like the codec's work:
    interleave and sort keys, then a bit-matrix round trip."""
    for _ in range(REF_ARRAY_PASSES):
        key = (a[:, 0] << 2) ^ (a[:, 1] << 1) ^ a[:, 2]
        order = np.argsort(key, kind="stable")
        bits = np.unpackbits(key[order].view(np.uint8)).reshape(-1, 64)
        np.packbits(bits.T, axis=1)


class Meter:
    """Wall time scaled to the reference machine speed.

    probe() times REF_ROUNDS runs of reference_loop and of reference_arrays,
    neither of which uses scanstream, and records when.
    Between two probes the machine is taken to run at the mean of their
    speeds, so a stretch of wall time between them counts as its length
    times REF_NOMINAL_S / (mean of the two probes).  Probes made inside a
    rep (tick(), from the run workloads' metrics rows) are left out of its
    time.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, float, float]] = []  # start, end, seconds
        rng = np.random.default_rng(0)
        self.arrays = rng.integers(0, 2**20, size=(7168, 3), dtype=np.int64)

    def probe(self) -> float:
        t0 = time.perf_counter()
        for _ in range(REF_ROUNDS):
            reference_loop()
            reference_arrays(self.arrays)
        t1 = time.perf_counter()
        self.probes.append((t0, t1, t1 - t0))
        return t1 - t0

    def tick(self) -> None:
        if not self.probes or time.perf_counter() - self.probes[-1][1] >= PROBE_EVERY_S:
            self.probe()

    def walls(self, start: float, end: float) -> tuple[float, float]:
        """(wall seconds less probes, scaled seconds) from start to end.

        The probes must bracket the interval: one before start, one after end.
        """
        raw = scaled = 0.0
        for (_, lo, ref_a), (hi, _, ref_b) in zip(self.probes, self.probes[1:]):
            length = min(hi, end) - max(lo, start)
            if length > 0:
                raw += length
                scaled += length * REF_NOMINAL_S / ((ref_a + ref_b) / 2)
        return raw, scaled


def install_ticker(meter: Meter):
    """Probe about every PROBE_EVERY_S inside a run: each metrics row the
    pipeline builds (10 per simulated second) checks the clock.  Returns
    a function that removes the hook."""
    from scanstream import pipeline  # noqa: PLC0415

    row_type = pipeline.MetricsRow

    def metrics_row(*args, **kwargs):
        meter.tick()
        return row_type(*args, **kwargs)

    pipeline.MetricsRow = metrics_row

    def remove() -> None:
        pipeline.MetricsRow = row_type
    return remove


def probe_setup(workload: str, seed: int) -> float:
    """Wall seconds from starting a fresh interpreter to the end of set-up."""
    probe_dir = os.path.join(OUT, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe", probe_dir]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe exited with {code}")
    return elapsed


def run_reps(w, seconds: float, between) -> tuple[list, int, int]:
    """Repeat the unit of work for `seconds` of rep time (at least twice).

    The workload warms up first, untimed.  Calls between(rep_time) before
    each rep and once after the last.  A rep fails when it raises, when its
    output check fails, or when its digests differ from the first rep's.
    """
    from scanstream.pipeline import RunError  # noqa: PLC0415

    reps, failed, attempted = [], 0, 0
    first = None
    rep_time = 0.0
    try:
        w.warm()
    except (RunError, ValueError) as e:
        raise BenchError(f"warm-up raised: {e}") from None
    while rep_time < seconds or (len(reps) < 2 and attempted < 4):
        between(rep_time)
        attempted += 1
        t0 = time.perf_counter()
        try:
            rep = w.rep()
        except (RunError, ValueError) as e:
            print(f"rep {attempted} failed: {e}", file=sys.stderr)
            failed += 1
            continue
        finally:
            rep_time += time.perf_counter() - t0
        if first is None:
            first = rep.digests
        if rep.problem or rep.digests != first:
            print(f"rep {attempted} failed: {rep.problem or 'digests differ from rep 1'}",
                  file=sys.stderr)
            failed += 1
        reps.append(rep)
    between(math.inf)
    return reps, failed, attempted


def end_to_end(args, w, wl) -> tuple[dict, dict]:
    meter = Meter()
    setup_raw: list[float] = []
    setup: list[float] = []
    # set-up probes are spread evenly over the rep time
    due = [i * args.seconds / (SETUP_PROBES - 1) for i in range(SETUP_PROBES)]

    def between(rep_time: float) -> None:
        ref = meter.probe()
        while due and due[0] <= rep_time:
            due.pop(0)
            t = probe_setup(args.workload, args.seed)
            setup_raw.append(t)
            setup.append(t * REF_NOMINAL_S / ref)
            ref = meter.probe()

    os.makedirs(OUT, exist_ok=True)
    w.setup(args.seed, OUT)
    remove_ticker = install_ticker(meter) if isinstance(w, wl.Run) else None
    try:
        reps, failed, attempted = run_reps(w, args.seconds, between)
    finally:
        if remove_ticker:
            remove_ticker()
    if not reps:
        raise BenchError("every rep raised")
    extra_digests = {}
    if isinstance(w, wl.Calibrate):
        payload = [w.payload_digest() for _ in range(2)]
        attempted += 1
        if payload[0] != payload[1]:
            failed += 1
        extra_digests["payload_sha256"] = payload[0]

    walls = [meter.walls(r.start, r.end) for r in reps]

    def med(key, which):
        """Median over reps of work per second: raw (0) or at reference speed (1)."""
        return statistics.median(r.work[key] / wall[which] for r, wall in zip(reps, walls))

    first = reps[0]
    metrics = {
        "setup_s": statistics.median(setup),
        "sim_speed": med("sensor_s", 1),
        "calib_evals_per_s": med("evaluations", 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "scan_delivery_ratio": first.outcomes["scan_delivery_ratio"],
        "rate_tracking_error": first.outcomes["rate_tracking_error"],
        "model_rel_rmse": first.outcomes["model_rel_rmse"],
    }
    report = {
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "sim_speed": med("sensor_s", 0),
            "calib_evals_per_s": med("evaluations", 0),
        },
        "setup_samples_s": setup_raw,
        "reference_probes_s": [p[2] for p in meter.probes],
        "rep_walls_s": [wall[0] for wall in walls],
        "rep_scaled_walls_s": [wall[1] for wall in walls],
        "digests": {**first.digests, **extra_digests},
        "outcomes": first.outcomes,
        "work": first.work,
        "attempted": attempted,
        "failed": failed,
    }
    return metrics, report


def per_layer(args, w, wl) -> tuple[dict, dict]:
    import layers  # noqa: PLC0415
    from scanstream.pipeline import RunError  # noqa: PLC0415
    from tracer import Tracer  # noqa: PLC0415

    os.makedirs(OUT, exist_ok=True)
    w.setup(args.seed, OUT)
    tracer = Tracer()
    try:
        w.warm()
        untraced = w.rep()
        is_calibrate = isinstance(w, wl.Calibrate)
        payload = w.payload_digest() if is_calibrate else None
        counters = layers.install(tracer)
        try:
            traced = w.rep()
        finally:
            tracer.restore()
    except (RunError, ValueError) as e:
        raise BenchError(f"rep raised, no layer metrics: {e}") from None
    problems = [p for p in (untraced.problem, traced.problem) if p]
    if traced.digests != untraced.digests:
        problems.append("traced digests differ from untraced digests")
    digests = dict(traced.digests)
    if is_calibrate:
        digests["payload_sha256"] = w.payload_digest()
        if digests["payload_sha256"] != payload:
            problems.append("payload digests differ between two passes")
    metrics = layers.layer_metrics(tracer, counters, traced, untraced, w.load_scenario_s)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv")
    n_spans = tracer.write_spans(spans_path)
    report = {
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced.wall_s,
        "shares": layers.layer_shares(tracer, traced.wall_s),
        "digests": digests,
        "untraced_digests": untraced.digests,
        "outcomes": traced.outcomes,
        "work": traced.work,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "spans": n_spans,
        "problems": problems,
    }
    return metrics, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs for the self-test; the figures mean nothing")
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    args.seed %= 2**31

    try:
        pin_to_one_cpu()
        spec = load_spec()
        wl = import_program()
        if args.workload not in wl.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; have {wl.WORKLOADS}")
        w = wl.make(args.workload, smoke=args.smoke)
        if args.setup_probe:
            w.setup(args.seed, args.setup_probe)
            print("ready", flush=True)
            return 0
        if args.trace:
            metrics, report = per_layer(args, w, wl)
            wanted = spec["per_layer"]
            failed = 1 if report["problems"] else 0
            attempted = 2
        else:
            metrics, report = end_to_end(args, w, wl)
            wanted = spec["end_to_end"]
            failed = report["failed"]
            attempted = report["attempted"]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    result_metrics = {
        m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted
    }
    finite = all(math.isfinite(v["value"]) for v in result_metrics.values())
    correct = failed == 0 and finite
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  smoke=args.smoke, correct=correct, metrics=result_metrics)
    path = os.path.join(OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
