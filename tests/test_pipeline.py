"""Closed-loop runs on simple links: saturation, determinism, accounting."""

import dataclasses
import math
from collections import Counter

import pytest

from conftest import PACE_PROBES, PROFILE, RUN_REGISTRY, SCAN_HZ, SCENE_SEED, probe_pacing
from scanstream import bitpack, codec, pipeline, transport
from scanstream.congestion import ControlParams
from scanstream.metrics import read_metrics
from scanstream.netem import LinkConfig
from scanstream.pipeline import _FEEDBACK, METRICS_TICK_HZ, RunError, _Runner, run_scenario
from scanstream.predictor import build_grid
from scanstream.residual_opt import calibrate_detailed
from scanstream.scangen import generate_corpus
from scanstream.scenario import BaselineConfig, ScanSourceConfig, Scenario
from scanstream.transport import DatagramReceiver, TransportParams


def make_scenario(bounds, duration=20.0, mode="adaptive", capacity=20.0e6,
                  baseline=None):
    kwargs = {} if baseline is None else {"baseline": baseline}
    return Scenario(
        scan_source=ScanSourceConfig(profile=PROFILE, seed=SCENE_SEED),
        link=LinkConfig(capacity_trace=((0.0, capacity),)),
        control=ControlParams(),
        bounds=bounds,
        transport=TransportParams(),
        duration=duration,
        mode=mode,
        **kwargs,
    )


@pytest.fixture(scope="module")
def slack_run(bounds, model):
    # capacity far above anything the encoder can emit: the controller should
    # pin r_trg at the configured ceiling with an empty queue and no losses
    result = run_scenario(make_scenario(bounds), model=model)
    RUN_REGISTRY.append(("pipeline-slack", result))
    return result


@pytest.fixture(scope="module")
def baseline_short(bounds):
    # pacing far below the fixed-config output rate so the sender cap bites
    slow = BaselineConfig(q=16, c=0, pacing_bps=1.5e6)
    result = run_scenario(
        make_scenario(bounds, duration=10.0, mode="baseline", baseline=slow)
    )
    RUN_REGISTRY.append(("pipeline-baseline", result))
    return result


def test_slack_link_pins_target_at_r_max(slack_run, bounds):
    late = [row for row in slack_run.rows if row.t >= 15.0]
    assert late
    assert all(row.r_trg == bounds.r_max_bps for row in late)


def test_slack_link_loses_nothing(slack_run):
    s = slack_run.summary
    assert s.packets_tail_dropped == 0
    assert s.packets_random_lost == 0
    assert s.scans_dropped_sender == 0
    assert s.scans_lost_network == 0
    assert s.conservation_ok
    assert s.scans_generated == 200


def test_config_floor_respected_every_tick(slack_run, bounds):
    assert all(row.q_used >= bounds.floor.min_q for row in slack_run.rows)


def test_encoder_sits_near_grid_ceiling(slack_run, model):
    ceiling = float(max(build_grid(model, PROFILE.n_points).predicted_bps))
    late = [row.enc_bitrate for row in slack_run.rows if row.t >= 15.0]
    mean_late = sum(late) / len(late)
    assert 0.8 * ceiling <= mean_late <= 1.1 * ceiling


def test_in_flight_budget_never_exceeded(slack_run):
    assert 0.0 < slack_run.summary.max_bif_fraction <= 1.0


def test_rate_tracking_error_small_under_slack(slack_run):
    assert slack_run.summary.rate_tracking_error < 0.5


def test_metrics_cadence(slack_run):
    rows = slack_run.rows
    assert len(rows) == int(20.0 * METRICS_TICK_HZ) + 1
    for k, row in enumerate(rows):
        assert row.t == pytest.approx(k / METRICS_TICK_HZ, abs=1e-9)


def test_runs_are_deterministic(bounds, model, tmp_path):
    # capacity below the encoder ceiling so the control loop actually works
    paths = []
    for name in ("a.csv", "b.csv"):
        scn = make_scenario(bounds, duration=10.0, capacity=5.0e6)
        result = run_scenario(scn, model=model, metrics_path=str(tmp_path / name))
        RUN_REGISTRY.append((f"pipeline-det-{name}", result))
        paths.append(tmp_path / name)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_metrics_file_written_and_readable(bounds, model, tmp_path):
    path = tmp_path / "m.csv"
    scn = make_scenario(bounds, duration=2.0)
    result = run_scenario(scn, model=model, metrics_path=str(path))
    assert result.metrics_path == str(path)
    # repr-compare so NaN columns count as equal to themselves
    assert list(map(repr, read_metrics(path))) == list(map(repr, result.rows))


def test_baseline_controller_columns_are_nan(baseline_short):
    for row in baseline_short.rows:
        assert math.isnan(row.w_ref)
        assert math.isnan(row.srtt)
        assert math.isnan(row.est_queue_delay)
        assert math.isnan(row.r_trg)
        assert math.isnan(row.bytes_in_flight)
        assert row.q_used == 16
        assert row.c_used == 0
    assert baseline_short.summary.feedback_reports == 0
    assert baseline_short.summary.mode == "baseline"


def test_baseline_sheds_at_sender_when_pacing_lags(baseline_short):
    # 1.5 Mbps pacing cannot keep up with q=16 output; the sender queue cap
    # has to shed scans, and the books must still balance
    s = baseline_short.summary
    assert s.scans_dropped_sender > 0
    assert s.conservation_ok
    assert math.isnan(s.rate_tracking_error)


def test_adaptive_run_requires_model(bounds):
    scn = make_scenario(bounds, duration=1.0)
    with pytest.raises(RunError, match="rate model"):
        run_scenario(scn, model=None)


def test_summary_text_report(slack_run):
    text = slack_run.summary.to_text()
    assert "mode                  adaptive" in text
    assert "conservation          ok" in text
    assert str(slack_run.summary.packets_sent) in text


def test_delivered_quality_matches_calibration(slack_run, table):
    # after the ramp the config is steady; per-tick delivered error should
    # reproduce the calibration-table value to within scene variation
    late = [row for row in slack_run.rows if row.t >= 15.0]
    counts = Counter((row.q_used, row.c_used) for row in late)
    (q, c), _ = counts.most_common(1)[0]
    expected = table.row(q, c).mean_ptp
    measured = [
        row.mean_ptp_of_delivered
        for row in late
        if not math.isnan(row.mean_ptp_of_delivered)
    ]
    assert measured
    mean_measured = sum(measured) / len(measured)
    assert 0.3 * expected <= mean_measured <= 2.0 * expected


# ---------------------------------------------------------------- pacing


@pytest.mark.parametrize("name, fixture, limit", [
    # one waker per block reason: a pace call that sends nothing is rare
    ("tiny-mtu", "tiny_mtu_run", 1.2),
    ("step-adaptive", "adaptive_run", 1.2),
])
def test_pacing_work_per_packet(name, fixture, limit, request):
    result = request.getfixturevalue(fixture)
    probe = PACE_PROBES[name]
    assert probe.pace_calls <= limit * result.summary.packets_sent
    # no two pace events at one simulated instant
    assert probe.wake_instants
    assert len(set(probe.wake_instants)) == len(probe.wake_instants)


def test_feedback_path_adds_prop_delay(bounds, model, monkeypatch):
    # the reverse path is pure propagation delay: every report lands, in
    # order, exactly prop_delay after the receiver made it
    made, landed = [], []
    make_feedback = DatagramReceiver.make_feedback
    on_feedback = _Runner._on_feedback

    def recorded_make_feedback(self, now):
        report = make_feedback(self, now)
        made.append((now, report))
        return report

    def recorded_on_feedback(self, report):
        landed.append((self.now, report))
        return on_feedback(self, report)

    monkeypatch.setattr(DatagramReceiver, "make_feedback", recorded_make_feedback)
    monkeypatch.setattr(_Runner, "_on_feedback", recorded_on_feedback)
    scenario = make_scenario(bounds, duration=2.0)
    scenario.link = dataclasses.replace(scenario.link, prop_delay=0.015)
    run_scenario(scenario, model=model)
    assert len(landed) > 100
    # reports made in the last 15 ms land after the run ends
    assert all(t > 2.0 - 0.015 for t, _ in made[len(landed):])
    for (t_made, sent), (t_landed, got) in zip(made, landed):
        assert got is sent
        assert t_landed == t_made + 0.015


def test_feedback_at_a_pace_instant_does_not_stall_the_sender(bounds, model, monkeypatch):
    # A report lands exactly on a pending pace wake and is handled first.
    # The sender is blocked on pacing, whose only waker is the timer, so
    # the wake must still fire and arm its successor, or the pace timer is
    # gone for good.
    on_scan = _Runner._on_scan
    collisions = []

    def on_scan_then_feedback(self, k):
        on_scan(self, k)
        if k == 0:
            assert self.sender.blocked_reason == "pacing"
            collisions.append(self._next_pace)
            report = self.receiver.make_feedback(self.now)
            self._push(self._next_pace, _FEEDBACK, self._on_feedback, report)

    monkeypatch.setattr(_Runner, "_on_scan", on_scan_then_feedback)
    with probe_pacing() as probe:
        result = run_scenario(make_scenario(bounds, duration=1.0), model=model)
    (wake,) = collisions
    assert wake in probe.wake_instants
    # the sender's own timer keeps running past the collision
    assert sum(t > wake for t in probe.wake_instants) > 100
    assert result.summary.scans_delivered >= 8


def test_run_and_sweep_never_decode(bounds, model, monkeypatch):
    # both take each scan's error from its reconstruction at encode
    def no_decode(unit):
        raise AssertionError(f"decode called on scan {unit.scan_id}")

    monkeypatch.setattr(codec, "decode", no_decode)
    monkeypatch.setattr(pipeline, "decode", no_decode)
    s = run_scenario(make_scenario(bounds, duration=2.0), model=model).summary
    assert s.scans_delivered > 0 and math.isfinite(s.mean_ptp_mean) and s.conservation_ok
    corpus = generate_corpus(PROFILE, seed=SCENE_SEED, n_scans=1, scan_hz=SCAN_HZ)
    table, _ = calibrate_detailed(corpus, scan_hz=SCAN_HZ)
    assert len(table.rows) == 170


@pytest.mark.parametrize("mode", ["adaptive", "baseline"])
def test_run_sizes_each_scan_once_and_makes_no_bytes(bounds, model, monkeypatch, mode):
    # a unit's bytes are never read on the simulated wire, only its length
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        for owner in (module, pipeline, transport):  # wherever the name is bound
            if getattr(owner, name, None) is fn:
                monkeypatch.setattr(owner, name, counted)

    for name in ("encode", "_pack", "pack_unit", "unpack_unit", "reconstruct", "_quantize"):
        count(codec, name)
    count(bitpack, "to_bit_matrix")
    s = run_scenario(make_scenario(bounds, duration=2.0, mode=mode), model=model).summary
    assert s.scans_delivered > 0 and math.isfinite(s.mean_ptp_mean) and s.conservation_ok
    assert calls == {"_quantize": s.scans_generated}
