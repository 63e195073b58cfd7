"""Shared fixtures: one calibrated corpus and one step scenario for the suite.

The heavy artifacts (60-scan calibration sweep, fitted rate model, the two
240 s scenario runs) are session-scoped and timed, so the acceptance tests
can charge each criterion with the real cost of producing what it checks.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import pytest
from hypothesis import HealthCheck, settings

from scanstream.congestion import ControlParams
from scanstream.netem import BottleneckLink, LinkConfig, random_walk_trace
from scanstream.pipeline import _PACE, _Runner, run_scenario
from scanstream.predictor import fit, save_model
from scanstream.residual_opt import calibrate_detailed, min_rate, write_table
from scanstream.scangen import SensorProfile, generate_corpus
from scanstream.scenario import Scenario, ScanSourceConfig, load_scenario
from scanstream.transport import DatagramSender, TransportParams

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Desk-scale sensor: small enough that a full grid sweep over 60 scans and
# two 240 s closed-loop runs stay inside the per-criterion time budgets.
PROFILE = SensorProfile(rings=16, azimuth_steps=448)
CORPUS_SEED = 1234  # calibration environments
SCENE_SEED = 7  # evaluation environment, deliberately disjoint
SCAN_HZ = 10.0
EPSILON = 0.05
R_MAX_BPS = 10.0e6

# fixture name -> wall seconds spent building it, for honest budget accounting
FIXTURE_WALL: dict[str, float] = {}
# every closed-loop RunResult the suite produces, for the conservation check
RUN_REGISTRY: list = []
# run name -> PaceProbe recorded while the run was built
PACE_PROBES: dict = {}

STEP_SCENARIO_TEMPLATE = """\
version: 1
scan_source:
  profile: {{rings: {rings}, azimuth_steps: {azimuth}}}
  seed: {scene_seed}
  velocity: [1.0, 0.3]
scan_hz: {scan_hz}
duration: 240.0
mode: adaptive
model: model.json
transport:
  sender_queue_cap: 160
link:
  trace: [[0.0, 10.0e6], [60.0, 3.0e6], [180.0, 10.0e6]]
  prop_delay: 0.020
  queue_limit: 250000
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


def _timed(name: str, builder):
    t0 = time.perf_counter()
    value = builder()
    FIXTURE_WALL[name] = time.perf_counter() - t0
    return value


@dataclass
class PaceProbe:
    """What the sender's pacing and the link's service did during one run."""

    pace_calls: int = 0  # DatagramSender.pace_and_send calls, from any handler
    wake_instants: list[float] = field(default_factory=list)  # pace events handled
    trace_walks: int = 0  # BottleneckLink._serialize_end calls
    trace_steps: int = 0  # capacity steps in the run's link trace


@contextmanager
def probe_pacing():
    """Count pacing work in the runs made inside the block."""
    probe = PaceProbe()
    pace_and_send = DatagramSender.pace_and_send
    serialize_end = BottleneckLink._serialize_end
    on_pace = _Runner._on_pace
    push = _Runner._push

    def counted_pace_and_send(self, *args, **kwargs):
        probe.pace_calls += 1
        return pace_and_send(self, *args, **kwargs)

    def counted_serialize_end(self, *args):
        probe.trace_walks += 1
        probe.trace_steps = len(self.config.capacity_trace) - 1
        return serialize_end(self, *args)

    def recorded_on_pace(self, *args):
        probe.wake_instants.append(self.now)
        # one pace timer: the event firing now was the only one pending
        assert not any(entry[1] == _PACE for entry in self._heap), f"two pace events at {self.now}"
        return on_pace(self, *args)

    def checked_push(self, t, prio, *args):
        # the heap orders by (time, kind) alone, so it holds one event per kind
        assert not any(entry[1] == prio for entry in self._heap), \
            f"a second pending event of kind {prio} at {self.now}"
        return push(self, t, prio, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DatagramSender, "pace_and_send", counted_pace_and_send)
        mp.setattr(BottleneckLink, "_serialize_end", counted_serialize_end)
        mp.setattr(_Runner, "_on_pace", recorded_on_pace)
        mp.setattr(_Runner, "_push", checked_push)
        yield probe


@pytest.fixture(scope="session")
def corpus60():
    return _timed(
        "corpus60",
        lambda: generate_corpus(PROFILE, seed=CORPUS_SEED, n_scans=60, scan_hz=SCAN_HZ),
    )


@pytest.fixture(scope="session")
def calibration(corpus60):
    return _timed("calibration", lambda: calibrate_detailed(corpus60, scan_hz=SCAN_HZ))


@pytest.fixture(scope="session")
def table(calibration):
    return calibration[0]


@pytest.fixture(scope="session")
def samples(calibration):
    return calibration[1]


@pytest.fixture(scope="session")
def model(samples):
    return _timed("model", lambda: fit(samples, SCAN_HZ))


@pytest.fixture(scope="session")
def bounds(table):
    return _timed("bounds", lambda: min_rate(table, EPSILON, R_MAX_BPS, "mean_ptp"))


@pytest.fixture(scope="session")
def art_dir(tmp_path_factory, model, table, bounds):
    """Directory holding model.json, table.csv, and the step scenario."""
    path = tmp_path_factory.mktemp("artifacts")
    save_model(model, path / "model.json")
    write_table(path / "table.csv", table)
    (path / "step.yaml").write_text(
        STEP_SCENARIO_TEMPLATE.format(
            rings=PROFILE.rings,
            azimuth=PROFILE.azimuth_steps,
            scene_seed=SCENE_SEED,
            scan_hz=SCAN_HZ,
            r_min=bounds.r_min_bps,
            floor_q=bounds.floor.min_q,
            epsilon=EPSILON,
        )
    )
    return path


@pytest.fixture(scope="session")
def step_scenario_path(art_dir):
    return art_dir / "step.yaml"


@pytest.fixture(scope="session")
def adaptive_run(step_scenario_path, model):
    scenario = load_scenario(step_scenario_path)
    with probe_pacing() as PACE_PROBES["step-adaptive"]:
        result = _timed("adaptive_run", lambda: run_scenario(scenario, model=model))
    RUN_REGISTRY.append(("step-adaptive", result))
    return result


@pytest.fixture(scope="session")
def baseline_run(step_scenario_path):
    scenario = replace(load_scenario(step_scenario_path), mode="baseline")
    result = _timed("baseline_run", lambda: run_scenario(scenario))
    RUN_REGISTRY.append(("step-baseline", result))
    return result


def tiny_mtu_scenario(bounds, duration=3.0):
    """Small packets over a shallow, wandering link: the loss path's workout.

    100 B fragments make pacing per packet the dominant cost. The 3 kB queue
    holds 2.4 ms at 10 Mbps, under the 5 ms CE threshold, so tail drops are
    the main congestion signal, and the 3-10 Mbps random walk keeps the
    controller cutting: loss cuts, receiver gaps, scans lost in the network
    and lost sequence numbers leaving the in-flight ledger all happen here.
    """
    trace = random_walk_trace(duration, 0.5, 6.0e6, 0.4e6, 3.0e6, 10.0e6, seed=1)
    return Scenario(
        scan_source=ScanSourceConfig(profile=PROFILE, seed=SCENE_SEED),
        link=LinkConfig(capacity_trace=trace, queue_limit=3000),
        control=ControlParams(),
        bounds=bounds,
        transport=TransportParams(mtu_payload=100, sender_queue_cap=160),
        duration=duration,
    )


@pytest.fixture(scope="session")
def tiny_mtu_run(bounds, model):
    with probe_pacing() as PACE_PROBES["tiny-mtu"]:
        result = _timed(
            "tiny_mtu_run", lambda: run_scenario(tiny_mtu_scenario(bounds), model=model)
        )
    RUN_REGISTRY.append(("tiny-mtu", result))
    return result


# ------------------------------------------------------- acceptance report

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
