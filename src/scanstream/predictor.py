"""Encoded-bitrate prediction over the codec knob grid.

The encoder's output rate is modeled as a quadratic surface over
(q, c, n): nine monomials plus an intercept, fitted by least squares on
standardized features.  Standardization matters because the monomials are
wildly different in magnitude (n**2 dwarfs q by nine orders for typical
scans); without it the normal equations are hopelessly ill conditioned.

A corpus holds one sensor profile, so the four monomials with n in them
are constant or collinear with q and c: the fit cannot tell how the rate
grows with n.  The one evaluator behind `predict` and `build_grid` reads
the surface at the corpus's point count n_fit and scales it by n / n_fit,
which is exactly 1 at n_fit.

Inverting the model for a target bitrate is a brute-force argmin over the
full 17 x 10 = 170 grid; the grid is tiny, exhaustive search is exact and
free of local-minimum worries.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .codec import C_MAX, C_MIN, Q_MAX, Q_MIN, CompressionConfig

FEATURE_NAMES = ("q", "c", "n", "q2", "c2", "n2", "qc", "qn", "cn")
_N = FEATURE_NAMES.index("n")
RATE_FLOOR_BPS = 1.0
MODEL_FORMAT = "scanstream-rate-model-v1"

MIN_SAMPLES = 30
MIN_DISTINCT_Q = 5
MIN_DISTINCT_C = 3


class FitError(ValueError):
    """Training set cannot support the quadratic rate surface."""


class SelectionError(ValueError):
    """No grid entry satisfies the selection constraints."""


def featurize(q, c, n) -> np.ndarray:
    """Raw degree-2 monomials (q, c, n, q2, c2, n2, qc, qn, cn) on a last axis;
    q, c and n are scalars or arrays, broadcast together."""
    q, c, n = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (q, c, n)))
    return np.stack([q, c, n, q * q, c * c, n * n, q * c, q * n, c * n], axis=-1)


@dataclass(frozen=True)
class RateSample:
    q: int
    c: int
    n_points: int
    measured_bps: float


@dataclass(frozen=True)
class ConfigFloor:
    """Lower bound on q; configs below it are never selectable."""

    min_q: int = Q_MIN

    def __post_init__(self) -> None:
        if not (Q_MIN <= self.min_q <= Q_MAX):
            raise ValueError(f"min_q must be in [{Q_MIN}, {Q_MAX}], got {self.min_q}")


@dataclass
class RateModel:
    """Fitted rate surface: coefficients live in standardized feature space."""

    coef: np.ndarray  # (9,)
    intercept: float
    feature_center: np.ndarray  # (9,)
    feature_scale: np.ndarray  # (9,)
    scan_hz: float
    diagnostics: dict = field(default_factory=dict)


def fit(samples: list[RateSample], scan_hz: float) -> RateModel:
    """Least-squares fit of the rate surface; raises FitError on thin data."""
    if len(samples) < MIN_SAMPLES:
        raise FitError(f"need at least {MIN_SAMPLES} samples, got {len(samples)}")
    qs = {s.q for s in samples}
    cs = {s.c for s in samples}
    if len(qs) < MIN_DISTINCT_Q:
        raise FitError(f"need at least {MIN_DISTINCT_Q} distinct q values, got {len(qs)}")
    if len(cs) < MIN_DISTINCT_C:
        raise FitError(f"need at least {MIN_DISTINCT_C} distinct c values, got {len(cs)}")
    ns = {s.n_points for s in samples}
    if len(ns) > 1:
        raise FitError(f"samples must share one point count, got {sorted(ns)}")

    X = featurize(*np.array([(s.q, s.c, s.n_points) for s in samples]).T)
    y = np.array([s.measured_bps for s in samples])
    center = X.mean(axis=0)
    scale = X.std(axis=0)
    degenerate = scale == 0.0
    scale = np.where(degenerate, 1.0, scale)
    Xs = (X - center) / scale

    # features are centered, so the intercept decouples to mean(y)
    y_mean = float(y.mean())
    coef, _, rank, _ = np.linalg.lstsq(Xs, y - y_mean, rcond=None)

    pred = Xs @ coef + y_mean
    resid = y - pred
    ss_tot = float(np.sum((y - y_mean) ** 2))
    rmse = float(np.sqrt(np.mean(resid**2)))
    diagnostics = {
        "n_samples": len(samples),
        "rank": int(rank),
        "degenerate_features": [FEATURE_NAMES[i] for i in np.flatnonzero(degenerate)],
        "r2": 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0,
        "rel_rmse": rmse / y_mean if y_mean != 0 else float("inf"),
    }
    return RateModel(
        coef=coef,
        intercept=y_mean,
        feature_center=center,
        feature_scale=scale,
        scan_hz=scan_hz,
        diagnostics=diagnostics,
    )


def _evaluate(model: RateModel, q, c, n: float):
    """Predicted bitrate at (q, c): the surface at the corpus's point count
    n_fit (the mean of a constant column), scaled by n / n_fit and floored."""
    n_fit = model.feature_center[_N]
    f = (featurize(q, c, n_fit) - model.feature_center) / model.feature_scale
    return np.maximum((f @ model.coef + model.intercept) * (n / n_fit), RATE_FLOOR_BPS)


def predict(model: RateModel, q: float, c: float, n: float) -> float:
    """Predicted encoded bitrate in bps of one config on n-point scans."""
    return float(_evaluate(model, q, c, n))


# q going down, then c going up: the entries at or above a q floor are a prefix
_GRID_QS, _GRID_CS = (a.ravel() for a in np.meshgrid(
    np.arange(Q_MAX, Q_MIN - 1, -1), np.arange(C_MIN, C_MAX + 1), indexing="ij"))
_GRID_QS.flags.writeable = _GRID_CS.flags.writeable = False  # every grid shares them


@dataclass
class ConfigGrid:
    """All 170 (q, c) pairs, q going down, then c going up, predicted for one point count."""

    n_points: int
    qs: np.ndarray  # (170,)
    cs: np.ndarray  # (170,)
    predicted_bps: np.ndarray  # (170,)

    def __post_init__(self) -> None:
        if not (np.array_equal(self.qs, _GRID_QS) and np.array_equal(self.cs, _GRID_CS)
                and len(self.predicted_bps) == len(_GRID_QS)
                and not np.isnan(self.predicted_bps).any()):
            raise ValueError(f"grid must list all {len(_GRID_QS)} (q, c) pairs, q going down,"
                             " then c going up, each with a prediction that is not NaN")


def build_grid(model: RateModel, n_points: int) -> ConfigGrid:
    return ConfigGrid(n_points=n_points, qs=_GRID_QS, cs=_GRID_CS,
                      predicted_bps=_evaluate(model, _GRID_QS, _GRID_CS, n_points))


def select_from_grid(grid: ConfigGrid, r_trg: float, floor: ConfigFloor,
                     tight_bbox: bool = False) -> CompressionConfig:
    """Grid entry whose prediction is closest to r_trg, honoring the q floor,
    as a config that codes in a tight bbox or the default one.

    Ties prefer larger q (finer geometry), then smaller c (cheaper encode):
    the first closest entry of the grid's prefix at or above the floor.
    """
    if not (np.isfinite(r_trg) and r_trg > 0):
        raise SelectionError(f"target bitrate must be positive and finite, got {r_trg}")
    allowed = (Q_MAX - floor.min_q + 1) * (C_MAX - C_MIN + 1)
    best = int(np.argmin(np.abs(grid.predicted_bps[:allowed] - r_trg)))
    return CompressionConfig(q=int(grid.qs[best]), c=int(grid.cs[best]), tight_bbox=tight_bbox)


# ------------------------------------------------------------------ artifacts

def save_model(model: RateModel, path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "scan_hz": model.scan_hz,
        "feature_names": list(FEATURE_NAMES),
        "coef": model.coef.tolist(),
        "intercept": model.intercept,
        "feature_center": model.feature_center.tolist(),
        "feature_scale": model.feature_scale.tolist(),
        "diagnostics": model.diagnostics,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> RateModel:
    """Read a model written by save_model; a malformed one raises ValueError naming the file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:
            raise ValueError(f"model file {path} is not JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"model file {path} holds a {type(doc).__name__}, not a JSON object")
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {doc.get('format')!r} in {path}")
    missing = [k for k in ("coef", "intercept", "feature_center", "feature_scale", "scan_hz")
               if k not in doc]
    if missing:
        raise ValueError(f"model file {path} lacks {', '.join(missing)}")
    try:
        vectors = {k: np.array(doc[k], dtype=np.float64)
                   for k in ("coef", "feature_center", "feature_scale")}
        scalars = {k: float(doc[k]) for k in ("intercept", "scan_hz")}
        diagnostics = dict(doc.get("diagnostics", {}))
    except (TypeError, ValueError) as e:
        raise ValueError(f"malformed model file {path}: {e}") from None
    for k, v in vectors.items():
        if v.shape != (len(FEATURE_NAMES),):
            raise ValueError(f"{k} in {path} has shape {v.shape}, not ({len(FEATURE_NAMES)},)")
    return RateModel(**vectors, **scalars, diagnostics=diagnostics)


def write_samples(path, samples: list[RateSample]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "c", "n_points", "measured_bps"])
        for s in samples:
            writer.writerow([s.q, s.c, s.n_points, repr(s.measured_bps)])

