"""Fixed-schema run metrics: one row per 100 ms of simulated time.

The CSV begins with a version line so downstream tooling can refuse files
whose columns it does not understand. Floats are written with repr() to keep
round-trips exact and files byte-stable across runs.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import get_type_hints

METRICS_FORMAT = "scanstream-metrics-v1"


@dataclass(frozen=True)
class MetricsRow:
    t: float
    w_ref: float
    bytes_in_flight: float
    srtt: float
    est_queue_delay: float
    r_trg: float
    enc_bitrate: float
    link_capacity: float
    link_queue_delay: float
    q_used: int
    c_used: int
    sender_queue_depth: int
    scans_delivered: int
    scans_dropped: int
    ce_fraction: float
    mean_ptp_of_delivered: float


COLUMNS = tuple(f.name for f in fields(MetricsRow))
_FLOAT_FIELDS = frozenset(name for name, t in get_type_hints(MetricsRow).items() if t is float)


def write_metrics(path, rows: list[MetricsRow]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {METRICS_FORMAT}\n")
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([
                repr(getattr(row, name)) if name in _FLOAT_FIELDS else str(getattr(row, name))
                for name in COLUMNS
            ])


def read_metrics(path) -> list[MetricsRow]:
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if header != f"# {METRICS_FORMAT}":
            raise ValueError(f"{path}: expected '# {METRICS_FORMAT}', got {header!r}")
        reader = csv.reader(fh)
        names = tuple(next(reader))
        if names != COLUMNS:
            raise ValueError(f"{path}: column mismatch: {names}")
        rows = []
        for rec in reader:
            kwargs = {
                name: float(v) if name in _FLOAT_FIELDS else int(v)
                for name, v in zip(names, rec)
            }
            rows.append(MetricsRow(**kwargs))
        return rows
