import numpy as np
import pytest

from scanstream.codec import DEFAULT_BBOX, MAX_POINTS, CompressionConfig, decode, encode
from scanstream.scangen import ScanGenerator, SensorProfile, generate_corpus

SMALL = SensorProfile(rings=8, azimuth_steps=64)


def test_n_points_is_ring_times_azimuth():
    assert SMALL.n_points == 512
    assert SensorProfile(rings=16, azimuth_steps=448).n_points == 7168
    assert SensorProfile(rings=4096, azimuth_steps=4096).n_points == MAX_POINTS


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rings=0),
        dict(azimuth_steps=0),
        dict(elev_min_deg=10.0, elev_max_deg=-10.0),
        dict(min_range=0.0),
        dict(min_range=50.0, max_range=10.0),
        dict(noise_sigma=-1.0),
        dict(rings=4096, azimuth_steps=4097),  # past the codec's MAX_POINTS
    ],
)
def test_profile_validation(kwargs):
    with pytest.raises(ValueError):
        SensorProfile(**kwargs)


def test_same_seed_and_time_is_identical():
    a = ScanGenerator(SMALL, seed=42, velocity=(1.0, 0.0)).generate(0.3, scan_id=3)
    b = ScanGenerator(SMALL, seed=42, velocity=(1.0, 0.0)).generate(0.3, scan_id=3)
    assert np.array_equal(a.points, b.points)
    assert a.scan_id == b.scan_id == 3


def test_different_seeds_differ():
    a = ScanGenerator(SMALL, seed=1, velocity=(0.0, 0.0)).generate(0.0, scan_id=0)
    b = ScanGenerator(SMALL, seed=2, velocity=(0.0, 0.0)).generate(0.0, scan_id=0)
    assert not np.array_equal(a.points, b.points)


def test_motion_changes_consecutive_scans():
    gen = ScanGenerator(SMALL, seed=7, velocity=(1.0, 0.3))
    a = gen.generate(0.0, scan_id=0)
    b = gen.generate(0.1, scan_id=1)
    assert not np.array_equal(a.points, b.points)


def test_returns_fit_codec_default_box():
    # max_range 45 m keeps every return strictly inside the 50 m box, so
    # generated scans always encode without a tight bbox
    gen = ScanGenerator(SensorProfile(rings=16, azimuth_steps=128), seed=9, velocity=(2.0, 1.0))
    for t in (0.0, 5.0, 60.0):
        scan = gen.generate(t, scan_id=int(t * 10))
        pts = scan.points[: scan.n_valid]
        assert np.all(pts >= DEFAULT_BBOX[:3]) and np.all(pts <= DEFAULT_BBOX[3:])
        decode(encode(scan, CompressionConfig(10, 0)))  # must not raise


def test_generate_corpus_shape_and_ids():
    corpus = generate_corpus(SMALL, seed=5, n_scans=7, scan_hz=10.0)
    assert len(corpus) == 7
    assert [s.scan_id for s in corpus] == list(range(7))
    assert all(s.n_points == SMALL.n_points for s in corpus)
    assert {round(s.timestamp, 6) for s in corpus} == {round(k / 10.0, 6) for k in range(7)}


def test_generate_corpus_deterministic():
    a = generate_corpus(SMALL, seed=11, n_scans=3)
    b = generate_corpus(SMALL, seed=11, n_scans=3)
    for x, y in zip(a, b):
        assert np.array_equal(x.points, y.points)
