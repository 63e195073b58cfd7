"""Encoded-bitrate prediction over the codec knob grid.

The encoder's output rate is modeled as a quadratic surface over
(q, c, n): nine monomials plus an intercept, fitted by least squares on
standardized features.  Standardization matters because the monomials are
wildly different in magnitude (n**2 dwarfs q by nine orders for typical
scans); without it the normal equations are hopelessly ill conditioned.

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
RATE_FLOOR_BPS = 1.0
MODEL_FORMAT = "scanstream-rate-model-v1"

MIN_SAMPLES = 30
MIN_DISTINCT_Q = 5
MIN_DISTINCT_C = 3


class FitError(ValueError):
    """Training set cannot support the quadratic rate surface."""


class SelectionError(ValueError):
    """No grid entry satisfies the selection constraints."""


def featurize(q: float, c: float, n: float) -> np.ndarray:
    """Raw degree-2 monomials (q, c, n, q2, c2, n2, qc, qn, cn)."""
    q = float(q)
    c = float(c)
    n = float(n)
    return np.array([q, c, n, q * q, c * c, n * n, q * c, q * n, c * n])


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

    X = np.stack([featurize(s.q, s.c, s.n_points) for s in samples])
    y = np.array([s.measured_bps for s in samples])
    center = X.mean(axis=0)
    scale = X.std(axis=0)
    degenerate = scale == 0.0
    if degenerate.all():
        names = ", ".join(FEATURE_NAMES)
        raise FitError(f"all features are constant across samples: {names}")
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


def predict(model: RateModel, q: float, c: float, n: float) -> float:
    """Predicted encoded bitrate in bps, floored at 1 bps."""
    f = (featurize(q, c, n) - model.feature_center) / model.feature_scale
    return max(float(model.coef @ f + model.intercept), RATE_FLOOR_BPS)


@dataclass
class ConfigGrid:
    """All 170 (q, c) pairs with predicted bitrates for a fixed point count."""

    n_points: int
    qs: np.ndarray  # (170,)
    cs: np.ndarray  # (170,)
    predicted_bps: np.ndarray  # (170,)

    def __post_init__(self) -> None:
        expected = (Q_MAX - Q_MIN + 1) * (C_MAX - C_MIN + 1)
        if not (len(self.qs) == len(self.cs) == len(self.predicted_bps) == expected):
            raise ValueError(f"grid must cover exactly {expected} entries")


def build_grid(model: RateModel, n_points: int) -> ConfigGrid:
    qs, cs = np.meshgrid(np.arange(Q_MIN, Q_MAX + 1), np.arange(C_MIN, C_MAX + 1), indexing="ij")
    qs = qs.ravel()
    cs = cs.ravel()
    feats = np.stack([featurize(q, c, n_points) for q, c in zip(qs, cs)])
    scaled = (feats - model.feature_center) / model.feature_scale
    pred = np.maximum(scaled @ model.coef + model.intercept, RATE_FLOOR_BPS)
    return ConfigGrid(n_points=n_points, qs=qs, cs=cs, predicted_bps=pred)


def select_from_grid(grid: ConfigGrid, r_trg: float, floor: ConfigFloor) -> CompressionConfig:
    """Grid entry whose prediction is closest to r_trg, honoring the q floor.

    Ties prefer larger q (finer geometry), then smaller c (cheaper encode).
    """
    if not (np.isfinite(r_trg) and r_trg > 0):
        raise SelectionError(f"target bitrate must be positive and finite, got {r_trg}")
    mask = grid.qs >= floor.min_q
    if not mask.any():
        raise SelectionError(f"no grid entries with q >= {floor.min_q}")
    idx = np.flatnonzero(mask)
    diff = np.abs(grid.predicted_bps[idx] - r_trg)
    best = idx[np.lexsort((grid.cs[idx], -grid.qs[idx], diff))[0]]
    return CompressionConfig(q=int(grid.qs[best]), c=int(grid.cs[best]))


def select_config(model: RateModel, r_trg: float, n_points: int, floor: ConfigFloor | None = None) -> CompressionConfig:
    return select_from_grid(build_grid(model, n_points), r_trg, floor or ConfigFloor())


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
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {doc.get('format')!r} in {path}")
    return RateModel(
        coef=np.array(doc["coef"], dtype=np.float64),
        intercept=float(doc["intercept"]),
        feature_center=np.array(doc["feature_center"], dtype=np.float64),
        feature_scale=np.array(doc["feature_scale"], dtype=np.float64),
        scan_hz=float(doc["scan_hz"]),
        diagnostics=dict(doc.get("diagnostics", {})),
    )


def write_samples(path, samples: list[RateSample]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "c", "n_points", "measured_bps"])
        for s in samples:
            writer.writerow([s.q, s.c, s.n_points, repr(s.measured_bps)])


def read_samples(path) -> list[RateSample]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            out.append(
                RateSample(
                    q=int(row["q"]),
                    c=int(row["c"]),
                    n_points=int(row["n_points"]),
                    measured_bps=float(row["measured_bps"]),
                )
            )
    return out
