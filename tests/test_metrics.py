"""Metrics CSV schema: column order, exact round-trips, format guards."""

import math

import pytest

from scanstream.metrics import (
    COLUMNS,
    METRICS_FORMAT,
    MetricsRow,
    read_metrics,
    write_metrics,
)


def make_row(t, **over):
    base = dict(
        t=t,
        w_ref=62500.0,
        bytes_in_flight=48000.0,
        srtt=0.0503,
        est_queue_delay=0.0021,
        r_trg=10e6,
        enc_bitrate=9.1e6,
        link_capacity=10e6,
        link_queue_delay=0.0007,
        q_used=18,
        c_used=4,
        sender_queue_depth=2,
        scans_delivered=37,
        scans_dropped=0,
        ce_fraction=0.125,
        mean_ptp_of_delivered=0.031,
    )
    base.update(over)
    return MetricsRow(**base)


def test_column_order_is_frozen():
    assert COLUMNS == (
        "t",
        "w_ref",
        "bytes_in_flight",
        "srtt",
        "est_queue_delay",
        "r_trg",
        "enc_bitrate",
        "link_capacity",
        "link_queue_delay",
        "q_used",
        "c_used",
        "sender_queue_depth",
        "scans_delivered",
        "scans_dropped",
        "ce_fraction",
        "mean_ptp_of_delivered",
    )


def test_write_read_roundtrip_exact(tmp_path):
    # awkward floats on purpose: repr() must carry them through unchanged
    rows = [
        make_row(0.1),
        make_row(0.2, srtt=1 / 3, r_trg=3333333.333333333, q_used=24),
        make_row(0.3, enc_bitrate=0.1 + 0.2, bytes_in_flight=1e-12),
    ]
    path = tmp_path / "m.csv"
    write_metrics(path, rows)
    assert read_metrics(path) == rows


def test_nan_columns_survive_roundtrip(tmp_path):
    rows = [make_row(0.1, srtt=math.nan, est_queue_delay=math.nan)]
    path = tmp_path / "m.csv"
    write_metrics(path, rows)
    back = read_metrics(path)[0]
    assert math.isnan(back.srtt)
    assert math.isnan(back.est_queue_delay)
    assert back.r_trg == 10e6


def test_writes_are_byte_stable(tmp_path):
    rows = [make_row(0.1 * k, scans_delivered=k) for k in range(1, 40)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics(a, rows)
    write_metrics(b, rows)
    assert a.read_bytes() == b.read_bytes()


def test_format_line_is_first(tmp_path):
    path = tmp_path / "m.csv"
    write_metrics(path, [make_row(0.1)])
    first, second = path.read_text().splitlines()[:2]
    assert first == f"# {METRICS_FORMAT}"
    assert second == ",".join(COLUMNS)


def test_wrong_format_line_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# other-format-v9\n" + ",".join(COLUMNS) + "\n")
    with pytest.raises(ValueError, match=METRICS_FORMAT):
        read_metrics(path)


def test_column_mismatch_rejected(tmp_path):
    path = tmp_path / "m.csv"
    cols = ("t", "w_ref")
    path.write_text(f"# {METRICS_FORMAT}\n" + ",".join(cols) + "\n")
    with pytest.raises(ValueError, match="column mismatch"):
        read_metrics(path)
