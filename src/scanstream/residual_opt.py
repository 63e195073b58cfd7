"""Residual calibration and minimum-rate derivation.

Sweeping the full (q, c) grid over a calibration corpus ties reconstruction
error to measured bitrate.  Given an application error budget epsilon, the
minimum sustainable rate is simply the cheapest feasible grid entry, and the
smallest feasible q becomes the floor the adaptive encoder must never cross.
"""
from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass

import numpy as np

from . import codec
from .codec import C_MAX, C_MIN, Q_MAX, Q_MIN, PointCloudScan
from .predictor import ConfigFloor, RateSample

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


_COLUMNS = ("q", "c", "mean_ptp", "max_ptp", "l2_norm", "measured_bps")


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
        if not (0 < self.r_min_bps <= self.r_max_bps < np.inf):
            raise ValueError(
                f"need 0 < r_min <= r_max < inf, got ({self.r_min_bps}, {self.r_max_bps})"
            )
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")


def _corpus_fingerprint(corpus: list[PointCloudScan]) -> str:
    h = hashlib.sha256()
    for s in corpus:
        h.update(np.int64(s.scan_id).tobytes())
        h.update(np.ascontiguousarray(s.points, dtype=np.float64).tobytes())
    return f"{len(corpus)}x{corpus[0].n_points}-{h.hexdigest()[:12]}"


def _sweep_scan(args) -> np.ndarray:
    """One scan's (mean_ptp, max_ptp, l2_norm, bps) at each q of qs (rows) and c of cs.

    Every c at one q decodes to the scan's reconstruction at q, so the
    sweep's error at q stands for the whole row, while each rate is that
    c's real payload size.
    """
    scan, qs, cs, scan_hz, tight_bbox = args
    stats = np.empty((len(qs), len(cs), 4))
    for row, (_, sizes, res) in zip(stats, codec.sweep(scan, qs, cs, tight_bbox)):
        row[:, :3] = res.mean_ptp, res.max_ptp, res.l2_norm
        row[:, 3] = [8 * nbytes * scan_hz for nbytes in sizes]
    return stats


def calibrate_detailed(
    corpus: list[PointCloudScan],
    scan_hz: float = 10.0,
    aggregate: str = "mean",
    tight_bbox: bool = False,
    n_jobs: int = 1,
) -> tuple[ResidualTable, list[RateSample]]:
    """Rate/residual sweep of every (q, c) over a corpus.

    Returns the aggregated table plus one RateSample per (scan, q, c) for
    model fitting.  Each scan is swept by `codec.sweep`, which quantizes,
    codes and sorts it once and takes every entry's rate from its payload
    size without packing; scans are independent, so the sweep may fan out
    one scan per task across processes, and results merge in corpus order.
    """
    if not corpus:
        raise CalibrationError("calibration corpus is empty")
    if aggregate not in AGGREGATES:
        raise CalibrationError(f"aggregate must be one of {AGGREGATES}, got {aggregate!r}")
    n_points = corpus[0].n_points
    if any(s.n_points != n_points for s in corpus):
        raise CalibrationError("corpus scans must share one point count")
    qs = list(range(Q_MIN, Q_MAX + 1))
    cs = list(range(C_MIN, C_MAX + 1))
    pairs = [(q, c) for q in qs for c in cs]
    tasks = [(scan, qs, cs, scan_hz, tight_bbox) for scan in corpus]
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # noqa: PLC0415  (only a pool loads it)
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            per_scan = list(pool.map(_sweep_scan, tasks))
    else:
        per_scan = [_sweep_scan(task) for task in tasks]

    # (q, c, scan, stat) flattened to (pair, scan, stat), scans in corpus
    # order: each pair's block is the (scan, stat) array a per-pair loop
    # would build, so every mean below adds the same numbers in the same
    # order as that loop's would
    stats = np.stack(per_scan, axis=2).reshape(len(pairs), len(corpus), 4)
    agg = stats.mean(axis=1) if aggregate == "mean" else stats.max(axis=1)
    rates = stats[:, :, 3]
    # positional fields from plain floats: 170 rows and a sample per scan each
    rows = [TableRow(q, c, *a[:3], m)
            for (q, c), a, m in zip(pairs, agg.tolist(), rates.mean(axis=1).tolist())]
    samples = [RateSample(q, c, n_points, bps)
               for (q, c), r in zip(pairs, rates.tolist()) for bps in r]
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
    """The header line, then the rows as csv.writer writes them: \\r\\n after each."""
    lines = [f"# {TABLE_FORMAT} scan_hz={table.scan_hz!r} aggregate={table.aggregate}"
             f" corpus={table.corpus_id or 'unknown'}\n", ",".join(_COLUMNS) + "\r\n"]
    lines += [f"{r.q},{r.c},{r.mean_ptp!r},{r.max_ptp!r},{r.l2_norm!r},{r.measured_bps!r}\r\n"
              for r in table.rows]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def read_table(path) -> ResidualTable:
    """Read a table written by write_table; a malformed one raises ValueError naming the file."""
    with open(path, newline="") as fh:
        head = fh.readline().strip()
        if not head.startswith(f"# {TABLE_FORMAT}"):
            raise ValueError(f"unsupported residual table header {head!r} in {path}")
        fields = dict(part.split("=", 1) for part in head.split()[2:] if "=" in part)
        missing = [k for k in ("scan_hz", "aggregate") if k not in fields]
        if missing:
            raise ValueError(f"residual table header lacks {', '.join(missing)} in {path}")
        reader = csv.DictReader(fh)
        missing = [k for k in _COLUMNS if k not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"residual table lacks column {', '.join(missing)} in {path}")
        try:  # a short row reads None in its missing fields
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
            scan_hz = float(fields["scan_hz"])
        except (TypeError, ValueError) as e:
            raise ValueError(f"malformed residual table {path}: {e}") from None
    if not rows:
        raise ValueError(f"residual table has no rows in {path}")
    return ResidualTable(
        rows=rows,
        scan_hz=scan_hz,
        aggregate=fields["aggregate"],
        corpus_id=fields.get("corpus", ""),
    )
