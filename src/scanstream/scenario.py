"""Scenario configuration: YAML schema, validation, dataclass assembly.

A scenario file fully determines a run: scan source, link emulation,
controller parameters, operating rate bounds, transport knobs, duration.
Unknown keys are rejected rather than ignored so config typos fail loudly
instead of silently running defaults.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import yaml

from .congestion import ControlParams
from .netem import LinkConfig, read_trace
from .predictor import ConfigFloor
from .residual_opt import METRICS, RateBounds
from .scangen import SensorProfile
from .transport import TransportParams

SCENARIO_VERSION = 1
MODES = ("adaptive", "baseline")


class ScenarioError(ValueError):
    """Scenario file missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class ScanSourceConfig:
    profile: SensorProfile = SensorProfile()
    seed: int = 0
    velocity: tuple[float, float] = (1.0, 0.3)


@dataclass(frozen=True)
class BaselineConfig:
    """Fixed-config operation: no feedback, constant encoder knobs and pacing."""

    q: int = 16
    c: int = 0
    pacing_bps: float = 3.5e6


@dataclass
class Scenario:
    scan_source: ScanSourceConfig
    link: LinkConfig
    control: ControlParams
    bounds: RateBounds
    transport: TransportParams = field(default_factory=TransportParams)
    scan_hz: float = 10.0
    duration: float = 60.0
    mode: str = "adaptive"
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    model_path: str | None = None
    metrics_path: str | None = None
    tight_bbox: bool = False

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ScenarioError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (0 < self.scan_hz < math.inf):
            raise ScenarioError(f"scan_hz must be positive and finite, got {self.scan_hz}")
        if not (0 < self.duration < math.inf):
            raise ScenarioError(f"duration must be positive and finite, got {self.duration}")
        self.control.validate()
        if self.mode == "adaptive" and self.model_path is not None:
            if not os.path.exists(self.model_path):
                raise ScenarioError(f"model file does not exist: {self.model_path}")
        if self.mode == "baseline" and not (0 < self.baseline.pacing_bps < math.inf):
            raise ScenarioError("baseline pacing_bps must be positive and finite")


def _take(section: dict, allowed: set[str], where: str) -> dict:
    if not isinstance(section, dict):
        raise ScenarioError(f"{where} must be a mapping, got {type(section).__name__}")
    unknown = set(section) - allowed
    if unknown:
        raise ScenarioError(f"unknown keys in {where}: {sorted(unknown)}")
    return section


def _build_profile(raw: dict) -> SensorProfile:
    allowed = {
        "rings", "azimuth_steps", "elev_min_deg", "elev_max_deg",
        "sensor_height", "max_range", "min_range", "noise_sigma",
    }
    try:
        return SensorProfile(**_take(raw, allowed, "scan_source.profile"))
    except ValueError as e:
        raise ScenarioError(f"scan_source.profile: {e}") from None


def _build_link(raw: dict, base_dir: str) -> LinkConfig:
    allowed = {"trace", "trace_file", "prop_delay", "queue_limit", "ce_threshold", "loss_rate", "rng_seed"}
    raw = dict(_take(raw, allowed, "link"))
    trace = raw.pop("trace", None)
    trace_file = raw.pop("trace_file", None)
    if (trace is None) == (trace_file is None):
        raise ScenarioError("link needs exactly one of 'trace' (inline) or 'trace_file'")
    if trace_file is not None:
        trace = read_trace(os.path.join(base_dir, trace_file))
    else:
        try:
            trace = tuple((float(t), float(c)) for t, c in trace)
        except (TypeError, ValueError):
            raise ScenarioError("link.trace must be a list of [t_seconds, capacity_bps] pairs") from None
    try:
        return LinkConfig(capacity_trace=trace, **raw)
    except ValueError as e:
        raise ScenarioError(f"link: {e}") from None


def _build_bounds(raw: dict) -> RateBounds:
    allowed = {"r_min_bps", "r_max_bps", "floor_q", "epsilon", "metric"}
    raw = dict(_take(raw, allowed, "rate_bounds"))
    if "r_min_bps" not in raw or "r_max_bps" not in raw:
        raise ScenarioError("rate_bounds needs r_min_bps and r_max_bps")
    metric = raw.get("metric", "mean_ptp")
    if metric not in METRICS:
        raise ScenarioError(f"rate_bounds.metric must be one of {METRICS}, got {metric!r}")
    try:
        return RateBounds(
            r_min_bps=float(raw["r_min_bps"]),
            r_max_bps=float(raw["r_max_bps"]),
            floor=ConfigFloor(min_q=int(raw.get("floor_q", 8))),
            epsilon=float(raw.get("epsilon", 0.0)) or float("nan"),
            metric=metric,
        )
    except ValueError as e:
        raise ScenarioError(f"rate_bounds: {e}") from None


def load_scenario(path) -> Scenario:
    if not os.path.exists(path):
        raise ScenarioError(f"scenario file does not exist: {path}")
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as e:
            raise ScenarioError(f"{path}: invalid YAML: {e}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    if doc.get("version") != SCENARIO_VERSION:
        raise ScenarioError(
            f"{path}: expected version: {SCENARIO_VERSION}, got {doc.get('version')!r}"
        )
    base_dir = os.path.dirname(os.path.abspath(path))
    top_allowed = {
        "version", "scan_source", "link", "control", "rate_bounds", "transport",
        "scan_hz", "duration", "mode", "baseline", "model", "metrics", "encoder",
    }
    _take(doc, top_allowed, "scenario")

    src_raw = dict(_take(doc.get("scan_source", {}), {"profile", "seed", "velocity"}, "scan_source"))
    profile = _build_profile(src_raw.get("profile", {}))
    velocity = src_raw.get("velocity", (1.0, 0.3))
    try:
        velocity = (float(velocity[0]), float(velocity[1]))
    except (TypeError, ValueError, IndexError):
        raise ScenarioError("scan_source.velocity must be [vx, vy]") from None
    source = ScanSourceConfig(profile=profile, seed=int(src_raw.get("seed", 0)), velocity=velocity)

    if "link" not in doc:
        raise ScenarioError(f"{path}: missing required 'link' section")
    link = _build_link(doc["link"], base_dir)

    ctrl_allowed = {
        "overshoot_factor", "loss_beta", "ce_beta", "queue_delay_target",
        "increase_gain", "srtt_alpha", "w_min", "w_max", "mss", "owd_window",
    }
    try:
        control = ControlParams(**_take(doc.get("control", {}), ctrl_allowed, "control"))
        control.validate()
    except ValueError as e:
        raise ScenarioError(f"control: {e}") from None

    if "rate_bounds" not in doc:
        raise ScenarioError(f"{path}: missing required 'rate_bounds' section")
    bounds = _build_bounds(doc["rate_bounds"])

    tp_allowed = {
        "mtu_payload", "sender_queue_cap", "pacing_headroom", "pacing_window",
        "feedback_interval", "feedback_every_packets",
    }
    try:
        transport = TransportParams(**_take(doc.get("transport", {}), tp_allowed, "transport"))
        transport.validate()
    except ValueError as e:
        raise ScenarioError(f"transport: {e}") from None

    base_raw = _take(doc.get("baseline", {}), {"q", "c", "pacing_bps"}, "baseline")
    baseline = BaselineConfig(
        q=int(base_raw.get("q", 16)),
        c=int(base_raw.get("c", 0)),
        pacing_bps=float(base_raw.get("pacing_bps", 3.5e6)),
    )

    enc_raw = _take(doc.get("encoder", {}), {"tight_bbox"}, "encoder")

    model_path = doc.get("model")
    if model_path is not None:
        model_path = os.path.join(base_dir, str(model_path))

    scenario = Scenario(
        scan_source=source,
        link=link,
        control=control,
        bounds=bounds,
        transport=transport,
        scan_hz=float(doc.get("scan_hz", 10.0)),
        duration=float(doc.get("duration", 60.0)),
        mode=str(doc.get("mode", "adaptive")),
        baseline=baseline,
        model_path=model_path,
        metrics_path=doc.get("metrics"),
        tight_bbox=bool(enc_raw.get("tight_bbox", False)),
    )
    scenario.validate()
    return scenario
