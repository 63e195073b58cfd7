import csv
import io
from collections import Counter

import numpy as np
import pytest

from scanstream import bitpack, codec
from scanstream.codec import C_MAX, C_MIN, Q_MAX, Q_MIN
from scanstream.predictor import fit
from scanstream.residual_opt import (
    AGGREGATES,
    METRICS,
    CalibrationError,
    InfeasibleError,
    ResidualTable,
    calibrate_detailed,
    min_rate,
    read_table,
    write_table,
)
from scanstream.scangen import SensorProfile, generate_corpus

SMALL = SensorProfile(rings=8, azimuth_steps=64)


@pytest.fixture(scope="module")
def small_calibration():
    corpus = generate_corpus(SMALL, seed=31, n_scans=4, scan_hz=10.0)
    return calibrate_detailed(corpus, scan_hz=10.0)


@pytest.fixture(scope="module")
def small_table(small_calibration):
    return small_calibration[0]


def brute_force_min_rate(table, epsilon, metric):
    feasible = [r for r in table.rows if getattr(r, metric) <= epsilon]
    if not feasible:
        return None
    return min(r.measured_bps for r in feasible), min(r.q for r in feasible)


def test_table_covers_grid_and_fingerprint(small_table):
    assert len(small_table.rows) == 170
    assert small_table.aggregate == "mean"
    assert small_table.corpus_id == "4x512-6627369a4164"
    row = small_table.row(16, 3)
    assert (row.q, row.c) == (16, 3)
    assert row.measured_bps > 0


def test_the_suites_corpus_keeps_its_fingerprint(table):
    # the hash of each scan's id and (n, 3) C-order points, whatever their layout
    assert table.corpus_id == "60x7168-d1b9c39541e0"


def test_calibrate_empty_corpus_raises():
    with pytest.raises(CalibrationError):
        calibrate_detailed([], scan_hz=10.0)


def test_calibrate_rejects_mixed_cardinality():
    a = generate_corpus(SMALL, seed=1, n_scans=1)
    b = generate_corpus(SensorProfile(rings=8, azimuth_steps=32), seed=1, n_scans=1)
    with pytest.raises(CalibrationError):
        calibrate_detailed(a + b)


def test_calibrate_rejects_unknown_aggregate():
    corpus = generate_corpus(SMALL, seed=2, n_scans=1)
    with pytest.raises(CalibrationError):
        calibrate_detailed(corpus, aggregate="median")


def test_samples_feed_the_fitter(small_calibration):
    table, samples = small_calibration
    assert len(samples) == 170 * 4
    model = fit(samples, 10.0)
    assert model.diagnostics["rel_rmse"] < 0.15


def test_parallel_calibration_matches_serial():
    corpus = generate_corpus(SensorProfile(rings=16, azimuth_steps=448), seed=5, n_scans=2)
    serial = calibrate_detailed(corpus, scan_hz=10.0, n_jobs=1)
    parallel = calibrate_detailed(corpus, scan_hz=10.0, n_jobs=2)
    assert parallel[0].rows == serial[0].rows
    assert parallel[1] == serial[1]
    assert parallel[0].corpus_id == serial[0].corpus_id


def test_table_aggregates_as_a_per_pair_loop():
    # The reference builds each pair's (scan, stat) array and reduces it.
    # From 8 scans up numpy may sum a strided column, a contiguous row and
    # an axis-0 reduction in different orders; at 9.7 Hz no rate is an
    # integer, so a different order shows in the last bits.
    corpus = generate_corpus(SMALL, seed=9, n_scans=9)
    for aggregate in AGGREGATES:
        table, samples = calibrate_detailed(corpus, scan_hz=9.7, aggregate=aggregate)
        for q in range(Q_MIN, Q_MAX + 1):
            res = [codec.residual(s, codec.reconstruct(s, q)) for s in corpus]
            for c in range(C_MIN, C_MAX + 1):
                rates = [x.measured_bps for x in samples if (x.q, x.c) == (q, c)]
                stats = np.array(
                    [(r.mean_ptp, r.max_ptp, r.l2_norm, bps) for r, bps in zip(res, rates)]
                )
                agg = stats.mean(axis=0) if aggregate == "mean" else stats.max(axis=0)
                row = table.row(q, c)
                assert (row.mean_ptp, row.max_ptp, row.l2_norm) == tuple(agg[:3])
                assert row.measured_bps == stats[:, 3].mean()


def test_sweep_codes_and_sorts_each_scan_once_and_packs_nothing(monkeypatch):
    # each q's cells and codes are the Q_MAX ones shifted, and a shift keeps
    # the sorted codes sorted: no sort order, no bytes, no decode; and one
    # config per q and per c checks what all 170 would
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("morton_encode", "sorted_codes", "sort_order", "to_bit_matrix", "pack_uint",
                 "pack_width"):
        count(bitpack, name)
    for name in ("_quantize", "encode", "decode", "CompressionConfig"):
        count(codec, name)
    corpus = generate_corpus(SMALL, seed=6, n_scans=3)
    table, _ = calibrate_detailed(corpus, scan_hz=10.0)
    assert len(table.rows) == 170
    configs = 3 * (Q_MAX - Q_MIN + 1 + C_MAX - C_MIN + 1)
    assert calls == {"_quantize": 3, "morton_encode": 3, "sorted_codes": 3, "CompressionConfig": configs}


def test_worst_aggregate_upper_bounds_mean():
    corpus = generate_corpus(SMALL, seed=8, n_scans=3)
    mean_t, _ = calibrate_detailed(corpus, aggregate="mean")
    worst_t, _ = calibrate_detailed(corpus, aggregate="worst")
    for m, w in zip(mean_t.rows, worst_t.rows):
        assert w.mean_ptp >= m.mean_ptp - 1e-15
        assert w.max_ptp >= m.max_ptp - 1e-15


@pytest.mark.parametrize("metric", METRICS)
def test_min_rate_matches_brute_force(small_table, metric):
    values = sorted(getattr(r, metric) for r in small_table.rows)
    probes = [values[0], values[3], values[len(values) // 2], values[-1] * 2]
    for eps in probes:
        oracle = brute_force_min_rate(small_table, eps, metric)
        got = min_rate(small_table, eps, 10e6, metric)
        assert got.r_min_bps == oracle[0]
        assert got.floor.min_q == oracle[1]
        assert got.metric == metric and got.epsilon == eps


def test_min_rate_monotone_in_epsilon(small_table):
    eps_grid = np.geomspace(0.02, 2.0, 30)
    rates = []
    for eps in eps_grid:
        try:
            rates.append(min_rate(small_table, float(eps), 10e6).r_min_bps)
        except InfeasibleError:
            rates.append(float("inf"))
    assert all(b <= a for a, b in zip(rates, rates[1:]))


def test_min_rate_infeasible_reports_smallest(small_table):
    smallest = min(r.mean_ptp for r in small_table.rows)
    with pytest.raises(InfeasibleError) as err:
        min_rate(small_table, smallest / 10.0, 10e6)
    assert err.value.smallest_achievable == smallest


def test_min_rate_validates_inputs(small_table):
    with pytest.raises(ValueError):
        min_rate(small_table, 0.05, 10e6, metric="chamfer")
    with pytest.raises(ValueError):
        min_rate(small_table, -0.05, 10e6)
    with pytest.raises(ValueError):
        min_rate(small_table, float("nan"), 10e6)


def test_bounds_carry_r_max(small_table):
    got = min_rate(small_table, 0.5, 7.5e6)
    assert got.r_max_bps == 7.5e6
    assert got.r_min_bps <= got.r_max_bps


def test_table_io_roundtrip(tmp_path, small_table):
    path = tmp_path / "table.csv"
    write_table(path, small_table)
    clone = read_table(path)
    assert clone.corpus_id == small_table.corpus_id
    assert clone.scan_hz == small_table.scan_hz
    assert clone.aggregate == small_table.aggregate
    for a, b in zip(small_table.rows, clone.rows):
        assert (a.q, a.c) == (b.q, b.c)
        assert b.mean_ptp == a.mean_ptp
        assert b.measured_bps == a.measured_bps


def test_table_bytes_are_what_csv_writer_wrote(tmp_path, small_table):
    # the header line, then one csv.writer row per line, floats as repr
    fh = io.StringIO(newline="")
    fh.write(f"# scanstream-residual-table-v1 scan_hz={small_table.scan_hz!r} aggregate=mean"
             f" corpus={small_table.corpus_id}\n")
    writer = csv.writer(fh)
    writer.writerow(["q", "c", "mean_ptp", "max_ptp", "l2_norm", "measured_bps"])
    for r in small_table.rows:
        writer.writerow([r.q, r.c, repr(r.mean_ptp), repr(r.max_ptp), repr(r.l2_norm),
                         repr(r.measured_bps)])
    path = tmp_path / "table.csv"
    write_table(path, small_table)
    assert path.read_bytes() == fh.getvalue().encode()


def test_read_table_rejects_wrong_header(tmp_path, small_table):
    path = tmp_path / "table.csv"
    write_table(path, small_table)
    body = path.read_text().splitlines()
    body[0] = "# someones-other-table-v3"
    path.write_text("\n".join(body) + "\n")
    with pytest.raises(ValueError):
        read_table(path)


def test_row_lookup_missing_raises(small_table):
    with pytest.raises(KeyError):
        small_table.row(7, 0)
