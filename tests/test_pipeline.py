"""Closed-loop runs on simple links: saturation, determinism, accounting."""

import dataclasses
import gc
import math
import os
import subprocess
import sys
import weakref
from collections import Counter

import pytest

from conftest import (
    PACE_PROBES,
    PROFILE,
    RUN_REGISTRY,
    SCAN_HZ,
    SCENE_SEED,
    probe_pacing,
    tiny_mtu_scenario,
)
import scanstream
from scanstream import bitpack, codec, pipeline, transport
from scanstream.congestion import ControlParams
from scanstream.metrics import read_metrics
from scanstream.netem import LinkConfig
from scanstream.pipeline import _FEEDBACK, METRICS_TICK_HZ, RunError, _Runner, run_scenario
from scanstream.predictor import build_grid
from scanstream.residual_opt import calibrate_detailed
from scanstream.scangen import generate_corpus
from scanstream.scenario import BaselineConfig, ScanSourceConfig, Scenario
from scanstream.transport import DatagramReceiver, DatagramSender, TransportParams


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


@pytest.mark.parametrize("seed", [3, 5, 11])
def test_a_scan_whose_every_packet_is_lost_counts_as_lost(bounds, seed):
    # one packet per scan, so each random loss loses a whole scan, and no
    # fragment of it ever reaches the receiver
    scenario = make_scenario(bounds, mode="baseline", capacity=10.0e6)
    scenario = dataclasses.replace(
        scenario, link=dataclasses.replace(scenario.link, loss_rate=0.10, rng_seed=seed),
        transport=TransportParams(mtu_payload=65535))
    s = run_scenario(scenario).summary
    assert s.packets_sent == s.scans_generated - s.scans_dropped_sender
    assert s.packets_random_lost > 0 and s.packets_tail_dropped == 0
    assert s.scans_lost_network == s.packets_random_lost
    assert s.scans_pending == 0
    assert s.conservation_ok


def test_adaptive_run_requires_model(bounds):
    scn = make_scenario(bounds, duration=1.0)
    with pytest.raises(RunError, match="rate model"):
        run_scenario(scn, model=None)


def test_adaptive_run_refuses_a_model_of_another_scan_rate(bounds, model):
    # a model's rates are bits per second at its own scan rate: at twice
    # the rate every pick would send twice what was predicted
    scn = dataclasses.replace(make_scenario(bounds, duration=1.0), scan_hz=2 * SCAN_HZ)
    with pytest.raises(RunError, match="calibrated at 10.0 Hz cannot drive a scenario at 20.0 Hz"):
        run_scenario(scn, model=model)


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
    # one wake sends every packet due before the sender's next input
    assert len(probe.wake_instants) <= 0.6 * result.summary.packets_sent
    # no two pace events at one simulated instant
    assert probe.wake_instants
    assert len(set(probe.wake_instants)) == len(probe.wake_instants)


def test_epochs_dispatch_few_pace_events(tiny_mtu_run):
    # an epoch takes the sender through every wake due within prop_delay,
    # so the loop dispatches a pace event per epoch, not one per train
    assert len(PACE_PROBES["tiny-mtu"].wake_instants) <= 0.1 * tiny_mtu_run.summary.packets_sent


@pytest.mark.parametrize("name, fixture", [
    ("tiny-mtu", "tiny_mtu_run"),
    ("step-adaptive", "adaptive_run"),
])
def test_link_walks_its_trace_only_around_steps(name, fixture, request):
    # a packet that starts and ends in the segment the link has cached is
    # timed by one division; only the packet that crosses a step and the
    # first to start past it walk the trace
    result = request.getfixturevalue(fixture)
    probe = PACE_PROBES[name]
    assert probe.trace_steps >= 2
    assert 1 <= probe.trace_walks <= 1 + 2 * probe.trace_steps
    assert probe.trace_walks < result.summary.packets_sent / 1000


def test_overshoot_error_names_the_packet_that_broke_the_bound(bounds, model, monkeypatch):
    # With the window gate open the sender overshoots in its first long
    # train.  In-flight bytes only grow within a train, so the error must
    # name the first packet past overshoot x w_ref, not the wake or the last.
    monkeypatch.setattr(transport, "can_send", lambda *args: True)
    scenario = make_scenario(bounds, duration=1.0)
    # no report for 0.6 s and a timer every 0.1 s: trains of a few dozen packets
    scenario = dataclasses.replace(
        scenario, link=dataclasses.replace(scenario.link, prop_delay=0.3),
        transport=dataclasses.replace(scenario.transport, feedback_interval=0.1))
    trains = []
    pace_and_send = DatagramSender.pace_and_send

    def recorded(self, cc, ccp, rate, now, until):
        before = cc.bytes_in_flight
        packets = pace_and_send(self, cc, ccp, rate, now, until)
        trains.append((now, before, packets, ccp.overshoot_factor * cc.w_ref))
        return packets

    monkeypatch.setattr(DatagramSender, "pace_and_send", recorded)
    with pytest.raises(RunError, match="in-flight bytes") as err:
        run_scenario(scenario, model=model)
    wake, bif, packets, cap = trains[-1]
    for crossing in packets:
        bif += crossing.wire_bytes
        if bif > cap:
            break
    assert packets[0].send_time == wake < crossing.send_time < packets[-1].send_time
    assert str(err.value).startswith(f"in-flight bytes {bif} exceed")
    assert str(err.value).endswith(f"at t={crossing.send_time:.6f}")


def test_feedback_path_adds_prop_delay(bounds, model, monkeypatch):
    # the reverse path is pure propagation delay: every report lands, in
    # order, exactly prop_delay after the receiver made it
    made, landed = [], []
    make_feedback = DatagramReceiver.make_feedback
    apply_report = pipeline.on_feedback

    def recorded_make_feedback(self, now):
        report = make_feedback(self, now)
        made.append((now, report))
        return report

    def recorded_on_feedback(cc, ccp, report, now):
        landed.append((now, report))
        return apply_report(cc, ccp, report, now)

    monkeypatch.setattr(DatagramReceiver, "make_feedback", recorded_make_feedback)
    monkeypatch.setattr(pipeline, "on_feedback", recorded_on_feedback)
    scenario = make_scenario(bounds, duration=2.0)
    scenario = dataclasses.replace(scenario, link=dataclasses.replace(scenario.link, prop_delay=0.015))
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
    # the wake must still send and arm its successor, or the pace timer is
    # gone for good.
    on_scan = _Runner._on_scan
    pace_and_send = DatagramSender.pace_and_send
    collisions, sent = [], []

    def on_scan_then_feedback(self, k):
        on_scan(self, k)
        if k == 0:
            assert self.sender.blocked_reason == "pacing"
            wake = self.sender.next_send_opportunity()  # the pending pace event's time
            collisions.append(wake)
            report = self.receiver.make_feedback(self.now)
            self._push(wake, _FEEDBACK, self._on_feedback, report)

    def recorded_pace_and_send(self, *args):
        packets = pace_and_send(self, *args)
        sent.extend(pkt.send_time for pkt in packets)
        return packets

    monkeypatch.setattr(_Runner, "_on_scan", on_scan_then_feedback)
    monkeypatch.setattr(DatagramSender, "pace_and_send", recorded_pace_and_send)
    with probe_pacing():
        result = run_scenario(make_scenario(bounds, duration=1.0), model=model)
    (wake,) = collisions
    assert wake in sent
    # the sender keeps sending past the collision
    assert sum(t > wake for t in sent) > 100
    assert result.summary.scans_delivered >= 8


def test_finished_run_holds_no_cycle_through_its_runner(bounds, model):
    # events still queued past the end hold bound handlers; left there, each
    # finished runner would wait for the cyclic collector, and the process
    # would grow by a whole runner per run until it came
    runner = _Runner(tiny_mtu_scenario(bounds, duration=1.0), model)
    gc.disable()
    try:
        runner.run()
        ref = weakref.ref(runner)
        del runner
        assert ref() is None
    finally:
        gc.enable()


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

    # nor sorts an order, rebuilds a scan or calls residual: measure sorts
    # code values and takes the error from the cells
    for name in ("encode", "reconstruct", "_quantize", "_dequantize", "residual"):
        count(codec, name)
    for name in ("to_bit_matrix", "sort_order"):
        count(bitpack, name)
    s = run_scenario(make_scenario(bounds, duration=2.0, mode=mode), model=model).summary
    assert s.scans_delivered > 0 and math.isfinite(s.mean_ptp_mean) and s.conservation_ok
    assert calls == {"_quantize": s.scans_generated}


def test_each_adaptive_scan_builds_and_checks_one_config(bounds, model, monkeypatch):
    scenario = dataclasses.replace(make_scenario(bounds, duration=2.0), tight_bbox=True)
    built = []
    check = codec.CompressionConfig.__post_init__

    def counted(config):
        built.append(config)
        check(config)

    monkeypatch.setattr(codec.CompressionConfig, "__post_init__", counted)
    s = run_scenario(scenario, model=model).summary
    assert s.conservation_ok and len(built) == s.scans_generated
    assert all(config.tight_bbox for config in built)


def test_importing_the_pipeline_loads_no_process_pool_and_no_yaml():
    # each is loaded only where it is used: a process pool by a calibration
    # with n_jobs > 1, PyYAML by load_scenario
    src = os.path.dirname(os.path.dirname(os.path.abspath(scanstream.__file__)))
    code = ("import sys, scanstream.pipeline; "
            "print(sorted({'concurrent.futures.process', 'yaml'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
    assert out.stdout.strip() == "[]"
