"""Sender epochs leave every run as one event at a time left it.

A pace wake or a report takes the sender through every report and wake due
before its next input, each train running to the next of them
(`pipeline._Runner._epoch`), and the feedback timer sends no report that
repeats the last.  A runner that handles each report and each wake as its
own event, whose wake sends only what is due at its own instant and whose
timer queues every report, is the loop before epochs and trains.  Over
short runs of many link and feedback shapes, both must write the same
metrics CSV and the same summary.
"""
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scanstream.congestion import ControlParams
from scanstream.metrics import write_metrics
from scanstream.netem import LinkConfig, random_walk_trace
from scanstream.pipeline import _FB_TIMER, _PACE, _Runner, on_feedback
from scanstream.predictor import ConfigFloor
from scanstream.residual_opt import RateBounds
from scanstream.scangen import SensorProfile
from scanstream.scenario import BaselineConfig, ScanSourceConfig, Scenario
from scanstream.transport import TransportParams

# 256 points, 0.9-2.5 kB a scan: a 1-2 s run takes about 10 ms
PROFILE = SensorProfile(rings=4, azimuth_steps=64)
# pacing from 125 kbps to 2.5 Mbps, across the links below
BOUNDS = RateBounds(r_min_bps=100e3, r_max_bps=2e6, floor=ConfigFloor(), epsilon=0.05)


class _OneEventAtATime(_Runner):
    """Each report and each wake is an event; a wake sends only at its own instant."""

    def _arm(self) -> None:
        if self.sender.blocked_reason == "pacing":
            self._push(self.sender.next_send_opportunity(), _PACE, self._on_pace)

    def _on_pace(self, _payload) -> None:
        self._pace(self.now)
        self._arm()

    def _on_feedback(self, report) -> None:
        self.sender.reconcile_inflight(self.cc, report.highest_acked_seq)
        on_feedback(self.cc, self.ccp, report, self.now)
        if self.sender.blocked_reason == "cwnd":
            self._pace(self.now)
            self._arm()

    def _on_fb_timer(self, _payload) -> None:
        self._emit_feedback()
        self._push(self.now + self.sc.transport.feedback_interval, _FB_TIMER, self._on_fb_timer)


shapes = st.fixed_dictionaries({
    "mode": st.sampled_from(["adaptive", "baseline"]),
    "prop_delay": st.sampled_from([0.0, 0.02, 0.3]),
    "loss_rate": st.sampled_from([0.0, 0.1]),
    "queue_limit": st.sampled_from([3000, 250_000]),
    "mtu": st.sampled_from([100, 1200]),
    # off the 100 ms metrics grid too: then no tick bounds the last trains
    "duration": st.integers(100, 200).map(lambda n: n / 100),
    "capacity": st.sampled_from([300e3, 1e6, 3e6]),
    "seed": st.integers(0, 3),
    "feedback_every_packets": st.sampled_from([1, 2, 5]),
    "feedback_interval": st.sampled_from([0.005, 0.01, 0.05]),
})


def make_scenario(shape: dict) -> Scenario:
    d, seed = shape["duration"], shape["seed"]
    trace = random_walk_trace(d, 0.25, shape["capacity"], 0.3 * shape["capacity"],
                              0.5 * shape["capacity"], 2 * shape["capacity"], seed=seed)
    return Scenario(
        scan_source=ScanSourceConfig(profile=PROFILE, seed=seed),
        link=LinkConfig(capacity_trace=trace, prop_delay=shape["prop_delay"],
                        queue_limit=shape["queue_limit"], loss_rate=shape["loss_rate"],
                        rng_seed=seed),
        control=ControlParams(),
        bounds=BOUNDS,
        transport=TransportParams(mtu_payload=shape["mtu"], sender_queue_cap=8,
                                  feedback_interval=shape["feedback_interval"],
                                  feedback_every_packets=shape["feedback_every_packets"]),
        duration=d,
        mode=shape["mode"],
        # below the encoder's output: the sender always has a backlog
        baseline=BaselineConfig(q=16, c=0, pacing_bps=120e3),
    )


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("trains")


def run_to_csv(runner_type, scenario, model, path):
    rows, summary = runner_type(scenario, model).run()
    write_metrics(path, rows)
    return path.read_bytes(), summary


def pinned(mode, prop_delay, duration, capacity, mtu=100, every=2, interval=0.01):
    return {"mode": mode, "prop_delay": prop_delay, "loss_rate": 0.0, "queue_limit": 3000,
            "mtu": mtu, "duration": duration, "capacity": capacity, "seed": 0,
            "feedback_every_packets": every, "feedback_interval": interval}


# Each of the first four pins one term of a train's bound: a train that ignores it diverges.
@given(shape=shapes)
@example(shape=pinned("adaptive", 0.0, 1.0, 1e6))  # reports the train's arrivals make
@example(shape=pinned("adaptive", 0.02, 1.0, 300e3))  # the feedback deque's head
@example(shape=pinned("adaptive", 0.02, 1.0, 300e3, every=1, interval=0.05))  # now + prop_delay
@example(shape=pinned("baseline", 0.3, 1.55, 300e3))  # the end of the run
# a report lands exactly on a pace wake inside an epoch and moves the wake's rate
@example(shape=pinned("adaptive", 0.3, 2.0, 3e6, mtu=1200, every=1, interval=0.05))
# timer reports land exactly on metrics ticks
@example(shape=pinned("adaptive", 0.3, 1.0, 300e3, interval=0.05))
def test_epochs_replay_one_event_at_a_time(csv_dir, model, shape):
    scenario = make_scenario(shape)
    trains = run_to_csv(_Runner, scenario, model, csv_dir / "trains.csv")
    single = run_to_csv(_OneEventAtATime, scenario, model, csv_dir / "single.csv")
    assert trains[1].conservation_ok and trains[1].packets_sent > 0
    assert trains == single
