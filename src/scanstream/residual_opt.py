"""Residual calibration and minimum-rate derivation.

Sweeping the full (q, c) grid over a calibration corpus ties reconstruction
error to measured bitrate.  Given an application error budget epsilon, the
minimum sustainable rate is simply the cheapest feasible grid entry, and the
smallest feasible q becomes the floor the adaptive encoder must never cross.
"""
from __future__ import annotations

import csv
import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import codec
from .codec import C_MAX, C_MIN, Q_MAX, Q_MIN, PointCloudScan
from .predictor import ConfigFloor, ConfigGrid, RateSample

TABLE_FORMAT = "scanstream-residual-table-v1"
METRICS = ("mean_ptp", "max_ptp", "l2_norm")
AGGREGATES = ("mean", "worst")


class CalibrationError(ValueError):
    pass


class InfeasibleError(ValueError):
    """No grid entry meets the requested error budget."""

    def __init__(self, message: str, smallest_achievable: float):
        super().__init__(message)
        self.smallest_achievable = smallest_achievable


@dataclass(frozen=True)
class TableRow:
    q: int
    c: int
    mean_ptp: float
    max_ptp: float
    l2_norm: float
    measured_bps: float


@dataclass
class ResidualTable:
    """Grid calibration results aggregated over a corpus.

    corpus_id fingerprints the calibration data (count x points - hash) so a
    table loaded from disk can be traced back to what produced it.
    """

    rows: list[TableRow]
    scan_hz: float
    aggregate: str = "mean"
    corpus_id: str = ""

    def row(self, q: int, c: int) -> TableRow:
        for r in self.rows:
            if r.q == q and r.c == c:
                return r
        raise KeyError(f"no calibration row for (q={q}, c={c})")


@dataclass(frozen=True)
class RateBounds:
    """Operating range handed to the congestion controller and encoder."""

    r_min_bps: float
    r_max_bps: float
    floor: ConfigFloor
    epsilon: float
    metric: str = "mean_ptp"

    def __post_init__(self) -> None:
        if not (0 < self.r_min_bps <= self.r_max_bps):
            raise ValueError(
                f"need 0 < r_min <= r_max, got ({self.r_min_bps}, {self.r_max_bps})"
            )


def _corpus_fingerprint(corpus: list[PointCloudScan]) -> str:
    h = hashlib.sha256()
    for s in corpus:
        h.update(np.int64(s.scan_id).tobytes())
        h.update(np.ascontiguousarray(s.points, dtype=np.float64).tobytes())
    return f"{len(corpus)}x{corpus[0].n_points}-{h.hexdigest()[:12]}"


def _sweep_column(args):
    """Stats per scan for every c at one q, from one encode per scan and no decode.

    Each c only repacks the same geometry, so every c decodes to the same
    points, the scan's reconstruction at q: its residual stands for the
    column, while each rate is that c's real payload size.
    """
    corpus, q, c_values, scan_hz, tight_bbox = args
    stats = {c: [] for c in c_values}
    for scan in corpus:
        units = codec.encode_efforts(scan, q, c_values, tight_bbox)
        res = codec.residual(scan, codec.reconstruct(scan, q, tight_bbox))
        for unit in units:
            bps = unit.payload_bits * scan_hz
            stats[unit.c].append((res.mean_ptp, res.max_ptp, res.l2_norm, bps))
    return [(q, c, stats[c]) for c in c_values]


def calibrate_detailed(
    corpus: list[PointCloudScan],
    grid: ConfigGrid | None = None,
    scan_hz: float = 10.0,
    aggregate: str = "mean",
    tight_bbox: bool = False,
    n_jobs: int = 1,
) -> tuple[ResidualTable, list[RateSample]]:
    """Grid encode/residual sweep over a corpus.

    `grid` names the (q, c) entries to sweep; None means the full Q x C
    product (predictions attached to the grid are ignored, only its entries
    matter here).  Returns the aggregated table plus one RateSample per
    (scan, q, c) for model fitting.  Entries are independent, so the sweep
    may fan out across processes; results merge deterministically by (q, c).
    """
    if not corpus:
        raise CalibrationError("calibration corpus is empty")
    if aggregate not in AGGREGATES:
        raise CalibrationError(f"aggregate must be one of {AGGREGATES}, got {aggregate!r}")
    n_points = corpus[0].n_points
    if any(s.n_points != n_points for s in corpus):
        raise CalibrationError("corpus scans must share one point count")
    if grid is None:
        pairs = [(q, c) for q in range(Q_MIN, Q_MAX + 1) for c in range(C_MIN, C_MAX + 1)]
    else:
        if grid.n_points != n_points:
            raise CalibrationError(
                f"grid was built for n_points={grid.n_points}, corpus has {n_points}"
            )
        pairs = sorted({(int(q), int(c)) for q, c in zip(grid.qs, grid.cs)})

    by_q: dict[int, list[int]] = {}
    for q, c in pairs:
        by_q.setdefault(q, []).append(c)

    results = {}
    if n_jobs > 1:
        tasks = [(corpus, q, cs, scan_hz, tight_bbox) for q, cs in by_q.items()]
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            for column in pool.map(_sweep_column, tasks):
                for q, c, stats in column:
                    results[q, c] = stats
    else:
        for q, cs in by_q.items():
            for _, c, stats in _sweep_column((corpus, q, cs, scan_hz, tight_bbox)):
                results[q, c] = stats

    rows = []
    samples = []
    for q, c in pairs:
        stats = np.array(results[q, c])
        agg = stats.mean(axis=0) if aggregate == "mean" else stats.max(axis=0)
        rows.append(
            TableRow(
                q=q,
                c=c,
                mean_ptp=float(agg[0]),
                max_ptp=float(agg[1]),
                l2_norm=float(agg[2]),
                measured_bps=float(stats[:, 3].mean()),
            )
        )
        for bps in stats[:, 3]:
            samples.append(RateSample(q=q, c=c, n_points=n_points, measured_bps=float(bps)))
    table = ResidualTable(
        rows=rows, scan_hz=scan_hz, aggregate=aggregate, corpus_id=_corpus_fingerprint(corpus)
    )
    return table, samples


def min_rate(
    table: ResidualTable,
    epsilon: float,
    r_max_bps: float,
    metric: str = "mean_ptp",
) -> RateBounds:
    """Cheapest feasible rate under the error budget, plus the q floor."""
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    values = [(getattr(r, metric), r) for r in table.rows]
    feasible = [r for v, r in values if v <= epsilon]
    if not feasible:
        smallest = min(v for v, _ in values)
        raise InfeasibleError(
            f"no config reaches {metric} <= {epsilon:g}; smallest achievable is {smallest:g}",
            smallest_achievable=smallest,
        )
    r_min = min(r.measured_bps for r in feasible)
    floor_q = min(r.q for r in feasible)
    return RateBounds(
        r_min_bps=r_min,
        r_max_bps=r_max_bps,
        floor=ConfigFloor(min_q=floor_q),
        epsilon=epsilon,
        metric=metric,
    )


def write_table(path, table: ResidualTable) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# {TABLE_FORMAT} scan_hz={table.scan_hz!r} aggregate={table.aggregate}"
            f" corpus={table.corpus_id or 'unknown'}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(["q", "c", "mean_ptp", "max_ptp", "l2_norm", "measured_bps"])
        for r in table.rows:
            writer.writerow(
                [r.q, r.c, repr(r.mean_ptp), repr(r.max_ptp), repr(r.l2_norm), repr(r.measured_bps)]
            )


def read_table(path) -> ResidualTable:
    with open(path, newline="") as fh:
        head = fh.readline().strip()
        if not head.startswith(f"# {TABLE_FORMAT}"):
            raise ValueError(f"unsupported residual table header {head!r} in {path}")
        fields = dict(part.split("=", 1) for part in head.split()[2:])
        reader = csv.DictReader(fh)
        rows = [
            TableRow(
                q=int(row["q"]),
                c=int(row["c"]),
                mean_ptp=float(row["mean_ptp"]),
                max_ptp=float(row["max_ptp"]),
                l2_norm=float(row["l2_norm"]),
                measured_bps=float(row["measured_bps"]),
            )
            for row in reader
        ]
    return ResidualTable(
        rows=rows,
        scan_hz=float(fields["scan_hz"]),
        aggregate=fields["aggregate"],
        corpus_id=fields.get("corpus", ""),
    )
