"""Scenario YAML loading: schema enforcement, defaults, path resolution."""

import dataclasses
import math

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from scanstream.congestion import ControlParams
from scanstream.netem import LinkConfig
from scanstream.predictor import ConfigFloor
from scanstream.residual_opt import RateBounds
from scanstream.scenario import (
    MODES,
    SCENARIO_VERSION,
    BaselineConfig,
    Scenario,
    ScanSourceConfig,
    ScenarioError,
    load_scenario,
)
from scanstream.transport import TransportParams

MINIMAL = {
    "version": SCENARIO_VERSION,
    "scan_source": {"profile": {"rings": 8, "azimuth_steps": 64}},
    "link": {"trace": [[0.0, 5.0e6]]},
    "rate_bounds": {"r_min_bps": 2.0e6, "r_max_bps": 8.0e6},
}


def write_scenario(tmp_path, doc, name="scn.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def test_minimal_scenario_defaults(tmp_path):
    scn = load_scenario(write_scenario(tmp_path, MINIMAL))
    assert scn.scan_hz == 10.0
    assert scn.duration == 60.0
    assert scn.mode == "adaptive"
    assert scn.model_path is None
    assert scn.metrics_path is None
    assert scn.tight_bbox is False
    assert scn.scan_source.seed == 0
    assert scn.scan_source.velocity == (1.0, 0.3)
    assert scn.scan_source.profile.rings == 8
    assert scn.scan_source.profile.azimuth_steps == 64
    assert scn.baseline == BaselineConfig(q=16, c=0, pacing_bps=3.5e6)
    assert scn.transport == TransportParams()
    assert scn.bounds.r_min_bps == 2.0e6
    assert scn.bounds.r_max_bps == 8.0e6
    assert scn.bounds.floor.min_q == 8
    # epsilon omitted is represented as NaN (bound was given directly, not derived)
    assert math.isnan(scn.bounds.epsilon)
    assert scn.bounds.metric == "mean_ptp"


def test_full_scenario_fields_land(tmp_path):
    doc = {
        "version": SCENARIO_VERSION,
        "scan_source": {
            "profile": {"rings": 16, "azimuth_steps": 128, "noise_sigma": 0.01},
            "seed": 5,
            "velocity": [0.5, -0.2],
        },
        "link": {
            "trace": [[0.0, 10.0e6], [30.0, 3.0e6]],
            "prop_delay": 0.015,
            "queue_limit": 200000,
            "ce_threshold": 0.004,
            "loss_rate": 0.001,
            "rng_seed": 9,
        },
        "control": {"w_min": 4000, "queue_delay_target": 0.015},
        "rate_bounds": {
            "r_min_bps": 2.5e6,
            "r_max_bps": 9.0e6,
            "floor_q": 11,
            "epsilon": 0.07,
            "metric": "max_ptp",
        },
        "transport": {"mtu_payload": 900, "sender_queue_cap": 64},
        "scan_hz": 5.0,
        "duration": 30.0,
        "mode": "baseline",
        "baseline": {"q": 14, "c": 2, "pacing_bps": 4.0e6},
        "metrics": "out.csv",
        "encoder": {"tight_bbox": True},
    }
    scn = load_scenario(write_scenario(tmp_path, doc))
    assert scn.scan_source.seed == 5
    assert scn.scan_source.velocity == (0.5, -0.2)
    assert scn.link.capacity_trace == ((0.0, 10.0e6), (30.0, 3.0e6))
    assert scn.link.prop_delay == 0.015
    assert scn.link.queue_limit == 200000
    assert scn.link.ce_threshold == 0.004
    assert scn.link.loss_rate == 0.001
    assert scn.link.rng_seed == 9
    assert scn.control.w_min == 4000
    assert scn.control.queue_delay_target == 0.015
    assert scn.bounds.floor.min_q == 11
    assert scn.bounds.epsilon == 0.07
    assert scn.bounds.metric == "max_ptp"
    assert scn.transport.mtu_payload == 900
    assert scn.transport.sender_queue_cap == 64
    assert scn.transport.pacing_headroom == TransportParams().pacing_headroom
    assert scn.scan_hz == 5.0
    assert scn.duration == 30.0
    assert scn.mode == "baseline"
    assert scn.baseline == BaselineConfig(q=14, c=2, pacing_bps=4.0e6)
    assert scn.metrics_path == "out.csv"
    assert scn.tight_bbox is True


def test_missing_file_raises(tmp_path):
    with pytest.raises(ScenarioError, match="does not exist"):
        load_scenario(tmp_path / "nope.yaml")


def test_invalid_yaml_raises(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("link: [unclosed\n")
    with pytest.raises(ScenarioError, match="invalid YAML"):
        load_scenario(path)


def test_non_mapping_document_raises(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ScenarioError, match="must be a mapping"):
        load_scenario(path)


def test_wrong_version_raises(tmp_path):
    doc = dict(MINIMAL, version=99)
    with pytest.raises(ScenarioError, match="version"):
        load_scenario(write_scenario(tmp_path, doc))


def test_unknown_top_level_key_raises(tmp_path):
    doc = dict(MINIMAL, bogus=1)
    with pytest.raises(ScenarioError, match="bogus"):
        load_scenario(write_scenario(tmp_path, doc))


@pytest.mark.parametrize(
    "section,key",
    [
        ("link", "bandwidth"),
        ("control", "alpha"),
        ("transport", "mtu"),
        ("rate_bounds", "rmin"),
        ("scan_source", "profile_name"),
        ("baseline", "rate"),
    ],
)
def test_unknown_section_key_raises(tmp_path, section, key):
    doc = {k: (dict(v) if isinstance(v, dict) else v) for k, v in MINIMAL.items()}
    doc.setdefault(section, {})
    doc[section] = dict(doc[section], **{key: 1})
    with pytest.raises(ScenarioError, match=key):
        load_scenario(write_scenario(tmp_path, doc))


def test_missing_link_section_raises(tmp_path):
    doc = {k: v for k, v in MINIMAL.items() if k != "link"}
    with pytest.raises(ScenarioError, match="link"):
        load_scenario(write_scenario(tmp_path, doc))


def test_missing_rate_bounds_section_raises(tmp_path):
    doc = {k: v for k, v in MINIMAL.items() if k != "rate_bounds"}
    with pytest.raises(ScenarioError, match="rate_bounds"):
        load_scenario(write_scenario(tmp_path, doc))


def test_link_trace_and_trace_file_mutually_exclusive(tmp_path):
    both = dict(MINIMAL, link={"trace": [[0.0, 1e6]], "trace_file": "t.csv"})
    with pytest.raises(ScenarioError, match="exactly one"):
        load_scenario(write_scenario(tmp_path, both))
    neither = dict(MINIMAL, link={"prop_delay": 0.01})
    with pytest.raises(ScenarioError, match="exactly one"):
        load_scenario(write_scenario(tmp_path, neither))


def test_trace_file_resolved_relative_to_scenario(tmp_path):
    sub = tmp_path / "cfg"
    sub.mkdir()
    (sub / "cap.csv").write_text("t_seconds,capacity_bps\n0.0,6000000.0\n10.0,2000000.0\n")
    doc = dict(MINIMAL, link={"trace_file": "cap.csv"})
    scn = load_scenario(write_scenario(sub, doc))
    assert scn.link.capacity_trace == ((0.0, 6.0e6), (10.0, 2.0e6))


def test_non_finite_trace_raises_at_load(tmp_path):
    inline = dict(MINIMAL, link={"trace": [[0.0, 5.0e6], [10.0, float("nan")]]})
    path = write_scenario(tmp_path, inline)
    assert ".nan" in path.read_text()
    with pytest.raises(ScenarioError, match="finite"):
        load_scenario(path)
    (tmp_path / "cap.csv").write_text("t_seconds,capacity_bps\n0.0,nan\n")
    from_file = dict(MINIMAL, link={"trace_file": "cap.csv"})
    with pytest.raises(ScenarioError, match="finite"):
        load_scenario(write_scenario(tmp_path, from_file))


def test_rate_bounds_requires_both_rates(tmp_path):
    doc = dict(MINIMAL, rate_bounds={"r_min_bps": 1e6})
    with pytest.raises(ScenarioError, match="r_max_bps"):
        load_scenario(write_scenario(tmp_path, doc))


def test_rate_bounds_unknown_metric_raises(tmp_path):
    doc = dict(
        MINIMAL,
        rate_bounds={"r_min_bps": 1e6, "r_max_bps": 2e6, "metric": "chamfer"},
    )
    with pytest.raises(ScenarioError, match="chamfer"):
        load_scenario(write_scenario(tmp_path, doc))


def test_adaptive_mode_requires_model_file_to_exist(tmp_path):
    doc = dict(MINIMAL, model="missing_model.json")
    with pytest.raises(ScenarioError, match="model file"):
        load_scenario(write_scenario(tmp_path, doc))


def test_model_path_resolved_relative_to_scenario(tmp_path):
    sub = tmp_path / "deep"
    sub.mkdir()
    (sub / "m.json").write_text("{}")
    doc = dict(MINIMAL, model="m.json")
    scn = load_scenario(write_scenario(sub, doc))
    assert scn.model_path == str(sub / "m.json")


def test_invalid_mode_raises(tmp_path):
    doc = dict(MINIMAL, mode="replay")
    assert "replay" not in MODES
    with pytest.raises(ScenarioError, match="mode"):
        load_scenario(write_scenario(tmp_path, doc))


@pytest.mark.parametrize("key,value", [("scan_hz", 0), ("duration", -1.0)])
def test_nonpositive_timing_raises(tmp_path, key, value):
    doc = dict(MINIMAL, **{key: value})
    with pytest.raises(ScenarioError, match=key):
        load_scenario(write_scenario(tmp_path, doc))


def test_baseline_mode_rejects_nonpositive_pacing(tmp_path):
    doc = dict(MINIMAL, mode="baseline", baseline={"pacing_bps": 0})
    with pytest.raises(ScenarioError, match="pacing"):
        load_scenario(write_scenario(tmp_path, doc))


def test_bad_velocity_raises(tmp_path):
    doc = dict(MINIMAL)
    doc["scan_source"] = dict(MINIMAL["scan_source"], velocity="fast")
    with pytest.raises(ScenarioError, match="velocity"):
        load_scenario(write_scenario(tmp_path, doc))


def test_invalid_control_value_raises(tmp_path):
    doc = dict(MINIMAL, control={"srtt_alpha": 2.0})
    with pytest.raises(ValueError, match="srtt_alpha"):
        load_scenario(write_scenario(tmp_path, doc))


NON_FINITE_CASES = (
    [(TransportParams, f.name) for f in dataclasses.fields(TransportParams)]
    + [(ControlParams, f.name) for f in dataclasses.fields(ControlParams)]
    + [(LinkConfig, name) for name in ("prop_delay", "queue_limit", "ce_threshold", "loss_rate")]
    + [(Scenario, name) for name in ("scan_hz", "duration")]
)


def build_params(kind, **overrides):
    link = ((0.0, 5.0e6),)
    if kind is LinkConfig:
        LinkConfig(capacity_trace=link, **overrides)
    elif kind is Scenario:
        Scenario(
            scan_source=ScanSourceConfig(),
            link=LinkConfig(capacity_trace=link),
            control=ControlParams(),
            bounds=RateBounds(2.0e6, 8.0e6, ConfigFloor(min_q=8), epsilon=0.05),
            **overrides,
        ).validate()
    else:
        kind(**overrides).validate()


@pytest.mark.parametrize("kind, name", NON_FINITE_CASES,
                         ids=[f"{k.__name__}.{n}" for k, n in NON_FINITE_CASES])
@given(value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_parameter_rejected(kind, name, value):
    # NaN passes every < / <= check, and inf passes the lower bounds
    build_params(kind)  # the defaults are valid
    with pytest.raises(ScenarioError if kind is Scenario else ValueError):
        build_params(kind, **{name: value})
