"""Scenario YAML loading: schema enforcement, defaults, path resolution."""

import copy
import dataclasses
import math
import re
import typing

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from scanstream.codec import Q_MAX, Q_MIN, CompressionConfig, ConfigError
from scanstream.congestion import ControlParams
from scanstream.netem import LinkConfig
from scanstream.predictor import ConfigFloor
from scanstream.residual_opt import RateBounds
from scanstream.scangen import SensorProfile
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
        ("transport", "pacing_window"),
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


OUT_OF_RANGE_CASES = [
    # each loaded, and either ran or failed mid-run, before its section checked it
    (("scan_source", "profile"), "noise_sigma", math.nan, "finite"),
    (("scan_source", "profile"), "sensor_height", math.nan, "finite"),
    # 8 x (2**21 + 1) points: generate would take about 900 MB before measure rejected the scan
    (("scan_source", "profile"), "azimuth_steps", 2**21 + 1, "codec"),
    (("rate_bounds",), "floor_q", 30, "min_q"),
    (("rate_bounds",), "floor_q", 0, "min_q"),
    (("rate_bounds",), "r_max_bps", math.inf, "r_max"),
    (("baseline",), "q", 30, "q must"),
    (("baseline",), "c", 10, "c must"),
    # generate's SeedSequence raised a numpy ValueError at the first scan
    (("scan_source",), "seed", -1, "seed"),
    # every point left the coding box: OutOfRangeError at the first scan after t = 0
    (("scan_source",), "velocity", [math.nan, 0.0], "velocity"),
]


@pytest.mark.parametrize("where, key, value, says", OUT_OF_RANGE_CASES,
                         ids=[f"{'.'.join(w)}.{k}={v}" for w, k, v, _ in OUT_OF_RANGE_CASES])
def test_out_of_range_value_raises_at_load_naming_its_section(tmp_path, where, key, value, says):
    doc = copy.deepcopy(MINIMAL)
    section = doc
    for name in where:
        section = section.setdefault(name, {})
    section[key] = value
    with pytest.raises(ScenarioError, match=rf"^{re.escape('.'.join(where))}\b.*{says}"):
        load_scenario(write_scenario(tmp_path, doc))


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


@pytest.mark.parametrize("mtu, w_min, mode, loads", [
    (2973, 3000.0, "adaptive", True),  # 2973 + 27 header bytes: exactly w_min
    (2974, 3000.0, "adaptive", False),
    (9000, 3000.0, "adaptive", False),
    (9000, 9027.0, "adaptive", True),
    (9000, 3000.0, "baseline", True),  # no window gate without a controller
])
def test_adaptive_first_fragment_must_fit_w_min(tmp_path, mtu, w_min, mode, loads):
    # the window starts at w_min: a larger first fragment never passes the
    # gate, so the sender would never send and no feedback would ever come
    doc = dict(MINIMAL, mode=mode, transport={"mtu_payload": mtu}, control={"w_min": w_min})
    path = write_scenario(tmp_path, doc)
    if loads:
        assert load_scenario(path).transport.mtu_payload == mtu
    else:
        with pytest.raises(ScenarioError, match=r"transport\.mtu_payload .*control\.w_min"):
            load_scenario(path)


def test_bad_velocity_raises(tmp_path):
    doc = dict(MINIMAL)
    doc["scan_source"] = dict(MINIMAL["scan_source"], velocity="fast")
    with pytest.raises(ScenarioError, match="velocity"):
        load_scenario(write_scenario(tmp_path, doc))


@pytest.mark.parametrize("seed", [-1, 1.5, math.nan])
def test_bad_rng_seed_raises_at_load(tmp_path, seed):
    doc = dict(MINIMAL, link=dict(MINIMAL["link"], rng_seed=seed))
    with pytest.raises(ScenarioError, match="rng_seed"):
        load_scenario(write_scenario(tmp_path, doc))


def test_invalid_control_value_raises(tmp_path):
    doc = dict(MINIMAL, control={"srtt_alpha": 2.0})
    with pytest.raises(ValueError, match="srtt_alpha"):
        load_scenario(write_scenario(tmp_path, doc))


NON_FINITE_CASES = (
    [(TransportParams, f.name) for f in dataclasses.fields(TransportParams)]
    + [(ControlParams, f.name) for f in dataclasses.fields(ControlParams)]
    + [(LinkConfig, name)
       for name in ("prop_delay", "queue_limit", "ce_threshold", "loss_rate", "rng_seed")]
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
        )
    else:
        kind(**overrides)


@pytest.mark.parametrize("kind, name", NON_FINITE_CASES,
                         ids=[f"{k.__name__}.{n}" for k, n in NON_FINITE_CASES])
@given(value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_parameter_rejected(kind, name, value):
    # NaN passes every < / <= check, and inf passes the lower bounds
    build_params(kind)  # the defaults are valid
    with pytest.raises(ScenarioError if kind is Scenario else ValueError):
        build_params(kind, **{name: value})


BUILT_OUT_OF_RANGE = [
    (CompressionConfig, {"q": Q_MIN - 1, "c": 0}, ConfigError),
    (ConfigFloor, {"min_q": Q_MAX + 1}, ValueError),
    (BaselineConfig, {"q": Q_MAX + 1}, ConfigError),
    (ControlParams, {"loss_beta": 1.0}, ValueError),
    (TransportParams, {"mtu_payload": 0}, ValueError),
]


@pytest.mark.parametrize("kind, values, error", BUILT_OUT_OF_RANGE,
                         ids=[k.__name__ for k, _, _ in BUILT_OUT_OF_RANGE])
def test_an_out_of_range_config_fails_when_built(kind, values, error):
    # each config checks itself at construction, so no invalid one exists
    # for a consumer to forget to check
    with pytest.raises(error):
        kind(**values)


def _not_a_number(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


def _wrong_values(kind):
    """One strategy per type of value, as YAML can write it, that is not a `kind`."""
    if kind is dict:
        return [st.none(), st.integers(), st.text(max_size=8), st.lists(st.integers(), max_size=3)]
    values = [
        st.none(),
        st.lists(st.integers(), max_size=3),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    ]
    if kind is int:
        return values + [st.booleans(), st.floats(), st.text(max_size=8)]
    if kind is float:
        return values + [st.booleans(), st.text(max_size=8).filter(_not_a_number)]
    if kind is bool:
        return values + [st.integers(), st.floats(), st.text(max_size=8)]
    return values + [st.booleans(), st.integers(), st.floats()]  # str


SECTIONS = [
    (("scan_source", "profile"), SensorProfile),
    (("control",), ControlParams),
    (("transport",), TransportParams),
    (("link",), LinkConfig),
    (("baseline",), BaselineConfig),
]
TYPED_KEYS = (
    [(where + (name,), kind)
     for where, cls in SECTIONS
     for name, kind in typing.get_type_hints(cls).items() if name != "capacity_trace"]
    + [((key,), kind) for key, kind in (
        ("version", int), ("scan_hz", float), ("duration", float), ("mode", str),
        ("model", str), ("metrics", str), ("scan_source", dict), ("link", dict),
        ("control", dict), ("rate_bounds", dict), ("transport", dict), ("baseline", dict),
        ("encoder", dict),
    )]
    + [(("rate_bounds", key), kind) for key, kind in (
        ("r_min_bps", float), ("r_max_bps", float), ("floor_q", int), ("epsilon", float),
        ("metric", str),
    )]
    + [(("scan_source", "seed"), int), (("scan_source", "profile"), dict),
       (("encoder", "tight_bbox"), bool), (("link", "trace_file"), str)]
)


@pytest.fixture(scope="module")
def typed_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("typed")


@pytest.mark.parametrize("keys, kind", TYPED_KEYS,
                         ids=[".".join(keys) for keys, _ in TYPED_KEYS])
@settings(max_examples=3)
@given(data=st.data())
def test_wrong_typed_value_raises_scenario_error_naming_the_key(typed_dir, keys, kind, data):
    name = re.escape(".".join(keys[-2:]))
    for wrong in _wrong_values(kind):
        doc = copy.deepcopy(MINIMAL)
        if keys == ("link", "trace_file"):
            del doc["link"]["trace"]
        section = doc
        for key in keys[:-1]:
            section = section.setdefault(key, {})
        section[keys[-1]] = data.draw(wrong)
        with pytest.raises(ScenarioError, match=name):
            load_scenario(write_scenario(typed_dir, doc))


@pytest.mark.parametrize("velocity", ["fast", 1.0, [1.0], [1.0, 2.0, 3.0], [1.0, "x"], [True, 0.0]])
def test_velocity_must_be_a_pair_of_numbers(tmp_path, velocity):
    doc = dict(MINIMAL, scan_source=dict(MINIMAL["scan_source"], velocity=velocity))
    with pytest.raises(ScenarioError, match="scan_source.velocity"):
        load_scenario(write_scenario(tmp_path, doc))


@pytest.mark.parametrize("trace", [5.0e6, [5.0e6], [[0.0]], [[0.0, "fast"]], [[0.0, None]]])
def test_inline_trace_must_be_a_list_of_pairs(tmp_path, trace):
    doc = dict(MINIMAL, link={"trace": trace})
    with pytest.raises(ScenarioError, match="link.trace"):
        load_scenario(write_scenario(tmp_path, doc))


def test_numeric_strings_load_as_floats(tmp_path):
    # PyYAML reads 10.0e6 (no exponent sign) as a string
    path = tmp_path / "scn.yaml"
    path.write_text(
        "version: 1\n"
        "link: {trace: [[0.0, 10.0e6], [30.0, 3.0e6]], prop_delay: 2.0e-2}\n"
        "rate_bounds: {r_min_bps: 2.0e6, r_max_bps: 10.0e6}\n"
        "baseline: {pacing_bps: 3.2e6}\n"
        "control: {w_min: 4000}\n"
    )
    scn = load_scenario(path)
    assert scn.link.capacity_trace == ((0.0, 10.0e6), (30.0, 3.0e6))
    assert scn.bounds.r_max_bps == 10.0e6
    assert scn.baseline.pacing_bps == 3.2e6
    assert scn.control.w_min == 4000.0 and type(scn.control.w_min) is float


def test_missing_or_unreadable_trace_file_raises_scenario_error(tmp_path):
    doc = dict(MINIMAL, link={"trace_file": "absent.csv"})
    with pytest.raises(ScenarioError, match="link.trace_file"):
        load_scenario(write_scenario(tmp_path, doc))
    (tmp_path / "bad.csv").write_text("t,capacity_bps\n0.0,fast\n")
    doc = dict(MINIMAL, link={"trace_file": "bad.csv"})
    with pytest.raises(ScenarioError, match="link.trace_file"):
        load_scenario(write_scenario(tmp_path, doc))
