"""Scenario configuration: YAML schema, validation, dataclass assembly.

A scenario file fully determines a run: scan source, link emulation,
controller parameters, operating rate bounds, transport knobs, duration.
Each section loads into its dataclass, whose fields are the section's keys,
defaults and types; a few keys are renamed (`model`, `metrics`,
`encoder.tight_bbox`, `rate_bounds.floor_q`, `link.trace`/`trace_file`).
Unknown keys and wrong-typed values are rejected rather than ignored so
config typos fail loudly instead of silently running defaults.

Every config, the scenario too, checks its own ranges once, when it is
built, and nothing re-checks it.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field, fields
from typing import get_type_hints

from .codec import CompressionConfig
from .congestion import ControlParams
from .netem import LinkConfig, read_trace
from .predictor import ConfigFloor
from .residual_opt import RateBounds
from .scangen import SensorProfile
from .transport import PACKET_HEADER_BYTES, TransportParams

SCENARIO_VERSION = 1
MODES = ("adaptive", "baseline")


class ScenarioError(ValueError):
    """Scenario file missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class ScanSourceConfig:
    profile: SensorProfile = SensorProfile()
    seed: int = 0
    velocity: tuple[float, float] = (1.0, 0.3)

    def __post_init__(self) -> None:
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (len(self.velocity) == 2 and all(map(math.isfinite, self.velocity))):
            raise ValueError(f"velocity must be two finite numbers, got {self.velocity!r}")


@dataclass(frozen=True)
class BaselineConfig:
    """Fixed-config operation: no feedback, constant encoder knobs and pacing."""

    q: int = 16
    c: int = 0
    pacing_bps: float = 3.5e6

    def __post_init__(self) -> None:
        CompressionConfig(self.q, self.c)  # rejects knobs off the codec's grid


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ScenarioError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (0 < self.scan_hz < math.inf):
            raise ScenarioError(f"scan_hz must be positive and finite, got {self.scan_hz}")
        if not (0 < self.duration < math.inf):
            raise ScenarioError(f"duration must be positive and finite, got {self.duration}")
        if self.mode == "adaptive":
            if self.model_path is not None and not os.path.exists(self.model_path):
                raise ScenarioError(f"model file does not exist: {self.model_path}")
            # the window starts at w_min and only feedback grows it: a larger
            # first fragment could never leave, so no feedback would ever come
            wire = self.transport.mtu_payload + PACKET_HEADER_BYTES
            if wire > self.control.w_min:
                raise ScenarioError(
                    f"transport.mtu_payload {self.transport.mtu_payload} plus a"
                    f" {PACKET_HEADER_BYTES} B header exceeds control.w_min {self.control.w_min}"
                )
        if self.mode == "baseline" and not (0 < self.baseline.pacing_bps < math.inf):
            raise ScenarioError("baseline pacing_bps must be positive and finite")


def _mapping(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where} must be a mapping, got {type(raw).__name__}")
    return raw


def _reject_unknown(raw: dict, accepted, where: str) -> None:
    unknown = raw.keys() - accepted
    if unknown:
        raise ScenarioError(f"unknown keys in {where}: {sorted(unknown, key=str)}")


def _coerce(value, kind: type, where: str):
    """value as `kind`: a float also takes an int or a numeric string, and a bool is never a number.

    PyYAML reads `10.0e6` (no exponent sign) as a string, so a float must take one.
    """
    if kind is float and type(value) in (int, float, str):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    elif type(value) is kind:
        return value
    raise ScenarioError(f"{where}: expected {kind.__name__}, got {value!r}")


def _pair(value, where: str) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ScenarioError(f"{where} must be a pair of numbers, got {value!r}")
    return _coerce(value[0], float, where), _coerce(value[1], float, where)


# resolving the annotations anew on every load would nearly double its cost
_field_types = functools.cache(get_type_hints)


def _build(cls, raw, where: str, **given):
    """cls from the section `raw`, whose keys are the fields of cls not in `given`.

    Keys, defaults and types come from the dataclass itself; a value must
    have its field's type (see `_coerce`).  Any error from construction,
    where each config checks itself, is raised as a ScenarioError.
    """
    _reject_unknown(_mapping(raw, where), {f.name for f in fields(cls)} - given.keys(), where)
    types = _field_types(cls)
    kwargs = {key: _coerce(value, types[key], f"{where}.{key}") for key, value in raw.items()}
    try:
        return cls(**kwargs, **given)
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"{where}: {e}") from None


def _build_source(raw) -> ScanSourceConfig:
    raw = _mapping(raw, "scan_source")
    given = {"profile": _build(SensorProfile, raw.pop("profile", {}), "scan_source.profile")}
    if "velocity" in raw:
        given["velocity"] = _pair(raw.pop("velocity"), "scan_source.velocity")
    return _build(ScanSourceConfig, raw, "scan_source", **given)


def _build_link(raw, base_dir: str) -> LinkConfig:
    raw = _mapping(raw, "link")
    if ("trace" in raw) == ("trace_file" in raw):
        raise ScenarioError("link needs exactly one of 'trace' (inline) or 'trace_file'")
    if "trace_file" in raw:
        trace_file = _coerce(raw.pop("trace_file"), str, "link.trace_file")
        try:
            trace = read_trace(os.path.join(base_dir, trace_file))
        except (OSError, ValueError) as e:
            raise ScenarioError(f"link.trace_file: {e}") from None
    else:
        trace = raw.pop("trace")
        if not isinstance(trace, list):
            raise ScenarioError("link.trace must be a list of [t_seconds, capacity_bps] pairs")
        trace = tuple(_pair(step, "link.trace") for step in trace)
    return _build(LinkConfig, raw, "link", capacity_trace=trace)


def _build_bounds(raw) -> RateBounds:
    raw = _mapping(raw, "rate_bounds")
    floor = _build(ConfigFloor, {"min_q": raw.pop("floor_q")} if "floor_q" in raw else {},
                   "rate_bounds.floor_q")
    # no epsilon (or 0): the rates were given directly, not derived from a budget
    epsilon = _coerce(raw.pop("epsilon", 0.0), float, "rate_bounds.epsilon") or math.nan
    return _build(RateBounds, raw, "rate_bounds", floor=floor, epsilon=epsilon)


def load_scenario(path) -> Scenario:
    import yaml  # noqa: PLC0415  (only a scenario file loads it)
    if not os.path.exists(path):
        raise ScenarioError(f"scenario file does not exist: {path}")
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except (yaml.YAMLError, ValueError) as e:  # ValueError: an integer past Python's digit limit
            raise ScenarioError(f"{path}: invalid YAML: {e}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    version = doc.pop("version", None)
    if type(version) is not int or version != SCENARIO_VERSION:
        raise ScenarioError(f"{path}: expected version: {SCENARIO_VERSION}, got {version!r}")
    for name in ("link", "rate_bounds"):
        if name not in doc:
            raise ScenarioError(f"{path}: missing required '{name}' section")
    base_dir = os.path.dirname(os.path.abspath(path))

    # the keys left in doc after the sections and renamed keys are Scenario's own scalars
    encoder = _mapping(doc.pop("encoder", {}), "encoder")
    _reject_unknown(encoder, {"tight_bbox"}, "encoder")
    given = {
        "scan_source": _build_source(doc.pop("scan_source", {})),
        "link": _build_link(doc.pop("link"), base_dir),
        "control": _build(ControlParams, doc.pop("control", {}), "control"),
        "bounds": _build_bounds(doc.pop("rate_bounds")),
        "transport": _build(TransportParams, doc.pop("transport", {}), "transport"),
        "baseline": _build(BaselineConfig, doc.pop("baseline", {}), "baseline"),
        "model_path": Scenario.model_path,
        "metrics_path": Scenario.metrics_path,
        "tight_bbox": Scenario.tight_bbox,
    }
    if "model" in doc:
        given["model_path"] = os.path.join(base_dir, _coerce(doc.pop("model"), str, "model"))
    if "metrics" in doc:
        given["metrics_path"] = _coerce(doc.pop("metrics"), str, "metrics")
    if "tight_bbox" in encoder:
        given["tight_bbox"] = _coerce(encoder["tight_bbox"], bool, "encoder.tight_bbox")
    return _build(Scenario, doc, "scenario", **given)
