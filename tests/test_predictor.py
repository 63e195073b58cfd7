import csv

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import SCAN_HZ, SCENE_SEED

from scanstream.codec import C_MAX, C_MIN, Q_MAX, Q_MIN, sweep
from scanstream.predictor import (
    FEATURE_NAMES,
    MODEL_FORMAT,
    ConfigFloor,
    ConfigGrid,
    FitError,
    RateSample,
    build_grid,
    featurize,
    fit,
    load_model,
    predict,
    save_model,
    select_from_grid,
    write_samples,
)
from scanstream.scangen import SensorProfile, generate_corpus


def poly_surface(q, c, n):
    # ground-truth rate surface used to synthesize exact training data
    return 5e4 + 300.0 * q + 40.0 * q * q - 900.0 * c + 12.0 * c * c + 2.0 * n + 0.9 * q * c


def synth_samples(n_points=4096):
    return [
        RateSample(q=q, c=c, n_points=n_points, measured_bps=poly_surface(q, c, n_points))
        for q in range(Q_MIN, Q_MAX + 1)
        for c in range(C_MIN, C_MAX + 1)
    ]


def test_featurize_order():
    f = featurize(3.0, 2.0, 10.0)
    assert len(FEATURE_NAMES) == 9
    assert f.tolist() == [3.0, 2.0, 10.0, 9.0, 4.0, 100.0, 6.0, 30.0, 20.0]
    # arrays broadcast against scalars, one row of monomials per entry
    rows = featurize(np.array([3, 8]), np.array([2, 1]), 10)
    assert rows.shape == (2, 9)
    assert rows[0].tolist() == f.tolist()
    assert rows[1].tolist() == featurize(8.0, 1.0, 10.0).tolist()


def test_fit_recovers_polynomial_surface():
    model = fit(synth_samples(), 10.0)
    for q, c in [(8, 0), (16, 5), (24, 9), (11, 3)]:
        truth = poly_surface(q, c, 4096)
        assert predict(model, q, c, 4096) == pytest.approx(truth, rel=1e-6)
    assert model.diagnostics["rel_rmse"] < 1e-6


def test_fit_rejects_thin_data():
    samples = synth_samples()[:10]
    with pytest.raises(FitError):
        fit(samples, 10.0)
    # enough rows but too few distinct q values
    narrow = [s for s in synth_samples() if s.q in (8, 9)]
    with pytest.raises(FitError):
        fit(narrow, 10.0)
    narrow_c = [s for s in synth_samples() if s.c in (0, 1)]
    with pytest.raises(FitError):
        fit(narrow_c, 10.0)


def test_fit_tolerates_constant_n():
    # every corpus shares one sensor, so the n columns are degenerate; the
    # fit must cope instead of blowing up
    model = fit(synth_samples(), 10.0)
    assert "n" in model.diagnostics["degenerate_features"]


def test_fit_rejects_two_point_counts():
    mixed = synth_samples(4096)[::2] + synth_samples(8192)[1::2]
    with pytest.raises(FitError, match="one point count"):
        fit(mixed, 10.0)


@pytest.mark.parametrize("rings,azimuth", [(4, 64), (8, 128), (32, 1024)])
def test_model_sizes_other_profiles(model, rings, azimuth):
    # the suite's model is fitted on 16x448 scans alone; scaled by point
    # count, it sizes every config of a smaller or larger sensor's scans
    profile = SensorProfile(rings=rings, azimuth_steps=azimuth)
    qs = list(range(Q_MIN, Q_MAX + 1))
    cs = list(range(C_MIN, C_MAX + 1))
    ratios = []
    for scan in generate_corpus(profile, seed=SCENE_SEED, n_scans=2, scan_hz=SCAN_HZ):
        for q, sizes, _ in sweep(scan, qs, cs):
            for c, nbytes in zip(cs, sizes):
                ratios.append(predict(model, q, c, profile.n_points) / (8 * nbytes * SCAN_HZ))
    assert len(ratios) == 2 * 170
    assert 0.8 <= min(ratios) and max(ratios) <= 1.25, (min(ratios), max(ratios))


def test_grid_covers_full_product():
    model = fit(synth_samples(), 10.0)
    grid = build_grid(model, 4096)
    assert len(grid.qs) == (Q_MAX - Q_MIN + 1) * (C_MAX - C_MIN + 1) == 170
    assert grid.n_points == 4096
    assert np.all(grid.predicted_bps >= 1.0)


def test_select_matches_exhaustive_argmin():
    model = fit(synth_samples(), 10.0)
    grid = build_grid(model, 4096)
    floor = ConfigFloor(min_q=Q_MIN)
    rng = np.random.default_rng(99)
    lo, hi = grid.predicted_bps.min(), grid.predicted_bps.max()
    for r_trg in rng.uniform(0.5 * lo, 1.5 * hi, size=200):
        cfg = select_from_grid(grid, float(r_trg), floor)
        best = np.argmin(np.abs(grid.predicted_bps - r_trg))
        assert abs(predict(model, cfg.q, cfg.c, 4096) - r_trg) == pytest.approx(
            abs(grid.predicted_bps[best] - r_trg), abs=1e-9
        )


def test_select_tie_breaks_to_higher_q_then_lower_c():
    model = fit(synth_samples(), 10.0)
    base = build_grid(model, 4096)
    pred = np.full_like(base.predicted_bps, 9.9e6)
    ties = {(12, 4): 3.0e6, (12, 2): 3.0e6, (10, 0): 3.0e6, (14, 8): 4.0e6}
    for i, (q, c) in enumerate(zip(base.qs, base.cs)):
        if (q, c) in ties:
            pred[i] = ties[q, c]
    grid = ConfigGrid(n_points=4096, qs=base.qs, cs=base.cs, predicted_bps=pred)
    # exact three-way tie at 3.0 Mbps: larger q wins, then smaller c
    cfg = select_from_grid(grid, 3.0e6, ConfigFloor(min_q=8))
    assert (cfg.q, cfg.c) == (12, 2)
    # equidistant between 3.0 and 4.0: prefer the larger-q side
    cfg = select_from_grid(grid, 3.5e6, ConfigFloor(min_q=8))
    assert (cfg.q, cfg.c) == (14, 8)


def reference_select(grid, r_trg, floor):
    """The pick as a lexsort of the entries at or above the floor: closest
    first, then larger q, then smaller c, whatever the grid's order."""
    idx = np.flatnonzero(grid.qs >= floor.min_q)
    diff = np.abs(grid.predicted_bps[idx] - r_trg)
    best = idx[np.lexsort((grid.cs[idx], -grid.qs[idx], diff))[0]]
    return int(grid.qs[best]), int(grid.cs[best])


# few distinct rates, so exact ties and targets halfway between two rates are common
RATES = [1.0, 1.5e6, 2.0e6, 2.5e6, 3.0e6, 4.0e6, 9.9e6]


@given(
    rates=st.lists(st.sampled_from(RATES), min_size=170, max_size=170),
    targets=st.lists(st.sampled_from(RATES + [1.75e6, 2.25e6, 3.5e6, 2.0e7])
                     | st.floats(1.0, 2.0e7), min_size=1, max_size=8),
)
def test_select_is_the_lexsort_pick_at_every_floor(rates, targets):
    base = build_grid(fit(synth_samples(), 10.0), 4096)
    grid = ConfigGrid(n_points=4096, qs=base.qs, cs=base.cs, predicted_bps=np.array(rates))
    for min_q in range(Q_MIN, Q_MAX + 1):
        floor = ConfigFloor(min_q=min_q)
        for r_trg in targets:
            cfg = select_from_grid(grid, r_trg, floor)
            assert (cfg.q, cfg.c) == reference_select(grid, r_trg, floor)


def test_grid_lists_q_down_then_c_up():
    grid = build_grid(fit(synth_samples(), 10.0), 4096)
    pairs = list(zip(grid.qs.tolist(), grid.cs.tolist()))
    assert pairs == [(q, c) for q in range(Q_MAX, Q_MIN - 1, -1) for c in range(C_MIN, C_MAX + 1)]


def test_grid_rejects_another_order_or_a_nan_prediction():
    base = build_grid(fit(synth_samples(), 10.0), 4096)
    pred = base.predicted_bps
    for qs, cs in [(base.qs[::-1], base.cs[::-1]),  # q going up
                   (base.qs, base.cs[::-1]),  # c going down
                   (base.qs[:-1], base.cs[:-1])]:  # an entry short
        with pytest.raises(ValueError, match="q going down"):
            ConfigGrid(n_points=4096, qs=qs, cs=cs, predicted_bps=pred[: len(qs)])
    with pytest.raises(ValueError, match="not NaN"):
        ConfigGrid(n_points=4096, qs=base.qs, cs=base.cs, predicted_bps=np.append(pred[1:], np.nan))
    with pytest.raises(ValueError, match="170"):
        ConfigGrid(n_points=4096, qs=base.qs, cs=base.cs, predicted_bps=pred[:-1])


def test_select_respects_floor():
    model = fit(synth_samples(), 10.0)
    grid = build_grid(model, 4096)
    lo_rate = float(grid.predicted_bps.min())
    cfg = select_from_grid(grid, lo_rate, ConfigFloor(min_q=18))
    assert cfg.q >= 18


def test_model_io_roundtrip(tmp_path):
    model = fit(synth_samples(), 10.0)
    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    for q, c in [(8, 0), (20, 7)]:
        assert predict(clone, q, c, 4096) == predict(model, q, c, 4096)
    assert clone.diagnostics["rel_rmse"] == model.diagnostics["rel_rmse"]


def test_load_model_rejects_wrong_format(tmp_path):
    path = tmp_path / "model.json"
    model = fit(synth_samples(), 10.0)
    save_model(model, path)
    text = path.read_text().replace(MODEL_FORMAT, "other-format-v9")
    path.write_text(text)
    with pytest.raises(ValueError):
        load_model(path)


def test_samples_io_roundtrip(tmp_path):
    samples = synth_samples()[:40]
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    row, s = rows[7], samples[7]
    assert (int(row["q"]), int(row["c"]), int(row["n_points"])) == (s.q, s.c, s.n_points)
    assert float(row["measured_bps"]) == s.measured_bps
