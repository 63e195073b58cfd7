"""Packet trains leave every run as the one-packet-per-wake pacer left it.

A pace wake sends, each at its own send time, every packet due before the
sender's next input (`pipeline._Runner._on_pace`).  A runner whose wake
sends only what is due at its own instant is the pacer before trains.
Over short runs of many link shapes, both must write the same metrics CSV
and the same summary.
"""
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scanstream.congestion import ControlParams
from scanstream.metrics import write_metrics
from scanstream.netem import LinkConfig, random_walk_trace
from scanstream.pipeline import _Runner
from scanstream.predictor import ConfigFloor
from scanstream.residual_opt import RateBounds
from scanstream.scangen import SensorProfile
from scanstream.scenario import BaselineConfig, ScanSourceConfig, Scenario
from scanstream.transport import TransportParams

# 256 points, 0.9-2.5 kB a scan: a 1-2 s run takes about 10 ms
PROFILE = SensorProfile(rings=4, azimuth_steps=64)
# pacing from 125 kbps to 2.5 Mbps, across the links below
BOUNDS = RateBounds(r_min_bps=100e3, r_max_bps=2e6, floor=ConfigFloor(), epsilon=0.05)


class _OnePacketPerWake(_Runner):
    """Each wake sends only the packets due at its own instant."""

    def _on_pace(self, _payload) -> None:
        self._pace(self.now)


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
        transport=TransportParams(mtu_payload=shape["mtu"], sender_queue_cap=8),
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


def pinned(mode, prop_delay, duration, capacity):
    return {"mode": mode, "prop_delay": prop_delay, "loss_rate": 0.0, "queue_limit": 3000,
            "mtu": 100, "duration": duration, "capacity": capacity, "seed": 0}


# Each pins one term of the wake's bound: a train that ignores it diverges here.
@given(shape=shapes)
@example(shape=pinned("adaptive", 0.0, 1.0, 1e6))  # reports the train's arrivals make
@example(shape=pinned("adaptive", 0.02, 1.0, 300e3))  # the feedback deque's head
@example(shape=pinned("baseline", 0.3, 1.55, 300e3))  # the end of the run
def test_trains_replay_one_packet_per_wake(csv_dir, model, shape):
    scenario = make_scenario(shape)
    trains = run_to_csv(_Runner, scenario, model, csv_dir / "trains.csv")
    single = run_to_csv(_OnePacketPerWake, scenario, model, csv_dir / "single.csv")
    assert trains[1].conservation_ok and trains[1].packets_sent > 0
    assert trains == single
