"""The benchmark's three workloads, driven through scanstream's public API.

Each workload builds its inputs from the workload seed in `setup` (that is
what `setup_s` measures) and then runs one fixed unit of work per `rep`,
the way `scanstream calibrate` and `scanstream run` do.  A rep returns its
wall time, the SHA-256 digests of what it produced and the simulated
outcomes; the caller repeats reps, compares digests across them and turns
the results into metrics.

Module attributes are looked up at call time (`pipeline.run_scenario`,
`residual_opt.calibrate_detailed`, ...) so that the tracer's wrappers,
when installed, see these calls too.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

from scanstream import codec, pipeline, predictor, residual_opt
from scanstream.netem import random_walk_trace
from scanstream.scangen import SensorProfile, generate_corpus
from scanstream.scenario import load_scenario

HERE = os.path.dirname(os.path.abspath(__file__))
MODEL_PATH = os.path.join(HERE, "data", "model.json")
FIXTURE_PATH = os.path.join(HERE, "data", "fixture.json")

# the test suite's desk-scale sensor and calibration settings
PROFILE = SensorProfile(rings=16, azimuth_steps=448)
SCAN_HZ = 10.0
EPSILON = 0.05
R_MAX_BPS = 10.0e6
CONFIGS = [(q, c) for q in range(codec.Q_MIN, codec.Q_MAX + 1)
           for c in range(codec.C_MIN, codec.C_MAX + 1)]

# Mirrors the suite's step scenario (tests/conftest.py) field for field;
# with duration 240, scene seed 7 and the fixture model it reproduces the
# suite's metrics CSV byte for byte (checked by selftest.py).
SCENARIO_TEMPLATE = """\
version: 1
scan_source:
  profile: {{rings: {rings}, azimuth_steps: {azimuth}}}
  seed: {scene_seed}
  velocity: [1.0, 0.3]
scan_hz: {scan_hz}
duration: {duration!r}
mode: adaptive
model: {model}
transport:
  sender_queue_cap: 160{extra_transport}
link:
  trace: {trace}
  prop_delay: 0.020
  queue_limit: {queue_limit}
  ce_threshold: 0.005
rate_bounds:
  r_min_bps: {r_min!r}
  r_max_bps: 10.0e6
  floor_q: {floor_q}
  epsilon: {epsilon}
baseline:
  q: 16
  c: 0
  pacing_bps: 3.2e6
"""

# tiny-mtu's capacity walk is fixed rather than drawn from the workload
# seed: a walk with these steps drifts by 1-2 Mbps within a few seconds,
# which moved the packet rate, and with it the simulator's speed and every
# outcome, by more between seeds than any bound could absorb.
TINY_TRACE_SEED = 1


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_fixture() -> dict:
    with open(FIXTURE_PATH) as fh:
        return json.load(fh)


@dataclass
class Rep:
    """One unit of work: its wall time, output digests and outcomes."""

    wall_s: float
    digests: dict[str, str]
    outcomes: dict[str, float]
    # sensor_s (seconds of sensor data processed) and evaluations (scans
    # encoded, decoded and compared) are what the speed metrics divide by
    work: dict[str, float] = field(default_factory=dict)
    problem: str | None = None  # why the rep's output failed a check
    # perf_counter() at the start and end of the timed work (wall_s apart)
    start: float = 0.0
    end: float = 0.0


class Calibrate:
    """Corpus sweep over all 170 (q, c) configs, model fit, minimum rate."""

    name = "calibrate"
    load_scenario_s = 0.0  # no scenario file

    def __init__(self, n_scans: int):
        self.n_scans = n_scans

    def setup(self, seed: int, out_dir: str) -> None:
        self.out_dir = out_dir
        self.corpus = generate_corpus(PROFILE, seed, self.n_scans, SCAN_HZ)

    def warm(self) -> None:
        """One untimed sweep of the first scan, so caches fill before timing."""
        residual_opt.calibrate_detailed(self.corpus[:1], scan_hz=SCAN_HZ, n_jobs=1)

    def payload_digest(self) -> str:
        """SHA-256 over the encoded payloads of the first scan at every config."""
        h = hashlib.sha256()
        scan = self.corpus[0]
        for q, c in CONFIGS:
            unit = codec.encode(scan, codec.CompressionConfig(q, c))
            h.update(f"{q},{c},{len(unit.payload)};".encode())
            h.update(unit.payload)
        return h.hexdigest()

    def rep(self) -> Rep:
        table_path = os.path.join(self.out_dir, "table.csv")
        model_path = os.path.join(self.out_dir, "model.json")
        t0 = time.perf_counter()
        table, samples = residual_opt.calibrate_detailed(self.corpus, scan_hz=SCAN_HZ, n_jobs=1)
        model = predictor.fit(samples, SCAN_HZ)
        bounds = residual_opt.min_rate(table, EPSILON, R_MAX_BPS)
        residual_opt.write_table(table_path, table)
        predictor.save_model(model, model_path)
        t1 = time.perf_counter()

        evaluations = len(self.corpus) * len(CONFIGS)
        errors = [
            abs(s.measured_bps - p) / p
            for s in samples
            for p in [predictor.predict(model, s.q, s.c, s.n_points)]
        ]
        outcomes = {
            # every sample is one evaluation whose unit was decoded again
            "scan_delivery_ratio": len(samples) / evaluations,
            "rate_tracking_error": sum(errors) / len(errors),
            "mean_ptp_mm": 1e3 * sum(r.mean_ptp for r in table.rows) / len(table.rows),
            "model_rel_rmse": float(model.diagnostics["rel_rmse"]),
            "r_min_bps": bounds.r_min_bps,
            "floor_q": bounds.floor.min_q,
        }
        problem = None
        if len(table.rows) != len(CONFIGS) or len(samples) != evaluations:
            problem = f"sweep covered {len(table.rows)} configs / {len(samples)} samples"
        elif not (codec.Q_MIN <= bounds.floor.min_q <= codec.Q_MAX
                  and 0 < bounds.r_min_bps <= R_MAX_BPS):
            problem = f"implausible bounds {bounds}"
        return Rep(
            wall_s=t1 - t0, start=t0, end=t1,
            digests={"table_sha256": sha256_file(table_path),
                     "model_sha256": sha256_file(model_path)},
            outcomes=outcomes,
            work={"sensor_s": evaluations / SCAN_HZ, "evaluations": evaluations,
                  "scans": len(self.corpus), "distinct_q": len({q for q, _ in CONFIGS})},
            problem=problem,
        )


class Run:
    """One closed-loop adaptive session, as `scanstream run` executes it."""

    def __init__(self, name: str, duration: float, tiny: bool):
        self.name = name
        self.duration = duration
        self.tiny = tiny

    def scenario_text(self, seed: int) -> str:
        fx = load_fixture()
        d = self.duration
        if self.tiny:
            trace = random_walk_trace(d, 0.5, 6.0e6, 0.4e6, 3.0e6, 10.0e6, TINY_TRACE_SEED)
            trace_text = "[" + ", ".join(f"[{t!r}, {c!r}]" for t, c in trace) + "]"
            extra, queue = "\n  mtu_payload: 100", 3000
        else:
            trace_text = f"[[0.0, 10.0e6], [{d / 4!r}, 3.0e6], [{3 * d / 4!r}, 10.0e6]]"
            extra, queue = "", 250000
        return SCENARIO_TEMPLATE.format(
            rings=PROFILE.rings, azimuth=PROFILE.azimuth_steps, scene_seed=seed,
            scan_hz=SCAN_HZ, duration=d, model=json.dumps(MODEL_PATH),
            extra_transport=extra, trace=trace_text, queue_limit=queue,
            r_min=fx["bounds"]["r_min_bps"], floor_q=fx["bounds"]["floor_q"],
            epsilon=fx["bounds"]["epsilon"],
        )

    def setup(self, seed: int, out_dir: str) -> None:
        self.out_dir = out_dir
        path = os.path.join(out_dir, f"{self.name}.yaml")
        with open(path, "w") as fh:
            fh.write(self.scenario_text(seed))
        t0 = time.perf_counter()
        self.scenario = load_scenario(path)
        self.load_scenario_s = time.perf_counter() - t0
        self.model = predictor.load_model(self.scenario.model_path)

    def warm(self) -> None:
        """One untimed run of the scenario's first simulated second."""
        short = dataclasses.replace(self.scenario, duration=min(1.0, self.scenario.duration))
        pipeline.run_scenario(short, model=self.model,
                              metrics_path=os.path.join(self.out_dir, f"{self.name}-warm.csv"))

    def rep(self) -> Rep:
        csv_path = os.path.join(self.out_dir, f"{self.name}-metrics.csv")
        t0 = time.perf_counter()
        result = pipeline.run_scenario(self.scenario, model=self.model, metrics_path=csv_path)
        t1 = time.perf_counter()
        s = result.summary
        outcomes = {
            "scan_delivery_ratio": s.scans_delivered / s.scans_generated,
            "rate_tracking_error": s.rate_tracking_error,
            "mean_ptp_mm": 1e3 * s.mean_ptp_mean,
            "p95_queue_delay_ms": 1e3 * s.p95_queue_delay,
            "model_rel_rmse": float(self.model.diagnostics["rel_rmse"]),
        }
        work = {
            "sensor_s": self.scenario.duration,
            # every generated scan goes through the encoder once
            "evaluations": s.scans_generated,
            "metrics_rows": len(result.rows),
            "packets_sent": s.packets_sent,
            "tail_drops": s.packets_tail_dropped,
            "ce_marks": s.ce_marked_packets,
            "random_losses": s.packets_random_lost,
            "sender_drops": s.scans_dropped_sender,
        }
        problem = None if s.conservation_ok else "conservation check failed"
        return Rep(wall_s=t1 - t0, start=t0, end=t1,
                   digests={"metrics_sha256": sha256_file(csv_path)},
                   outcomes=outcomes, work=work, problem=problem)


# full-size and smoke-test variants; the smoke sizes only check plumbing
def make(name: str, smoke: bool = False):
    if name == "calibrate":
        return Calibrate(n_scans=1 if smoke else 2)
    if name == "step-adaptive":
        return Run(name, duration=24.0 if smoke else 240.0, tiny=False)
    if name == "tiny-mtu":
        return Run(name, duration=1.0 if smoke else 5.0, tiny=True)
    raise KeyError(name)


WORKLOADS = ("calibrate", "step-adaptive", "tiny-mtu")
