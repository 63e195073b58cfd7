"""Scans as axis rows and the codec's once-computed box constants, checked
against plain copies of the row-major code they replaced: every scan, cell
index, cell center and error message must come out the same, bit for bit,
and the codec must not care how a scan's points are laid out."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanstream import codec
from scanstream.codec import (
    C_MAX,
    C_MIN,
    Q_MAX,
    Q_MIN,
    CompressionConfig,
    OutOfRangeError,
    PointCloudScan,
    Workspace,
    encode,
    measure,
    sweep,
)
from scanstream.scangen import ScanGenerator, SensorProfile, _time_key

PROFILES = [(1, 1), (4, 64), (16, 448)]


def reference_generate(gen: ScanGenerator, t: float) -> np.ndarray:
    """The scan at t as an (n, 3) C-order array, summing the wall's
    harmonics one by one from r0 and writing x, y and z point by point."""
    p = gen.profile
    n = p.n_points
    rows, points = np.empty((2, n)), np.empty((n, 3))
    rng_range, noise = (row.reshape(p.rings, p.azimuth_steps) for row in rows)
    pos = (gen.velocity[0] * t, gen.velocity[1] * t)
    phase = gen._harmonics + (gen._kx * pos[0])[:, None]
    phase += (gen._ky * pos[1])[:, None]
    terms = np.sin(phase, out=phase)
    terms *= gen._amps[:, None]
    r = np.full_like(gen._azim, gen._r0)
    for term in terms:
        r += term
    rng_range[...] = np.clip(r, 4.0, p.max_range - 1.0)
    rng_range /= gen._cos_e
    np.minimum(rng_range, gen._slant_ground, out=rng_range)
    np.clip(rng_range, p.min_range, p.max_range, out=rng_range)
    if p.noise_sigma > 0:
        noise_rng = np.random.default_rng(np.random.SeedSequence([gen.seed, _time_key(t)]))
        noise_rng.standard_normal(out=noise)
        noise *= p.noise_sigma
        np.clip(noise, -3.0 * p.noise_sigma, 3.0 * p.noise_sigma, out=noise)
        rng_range += noise
        np.clip(rng_range, p.min_range, p.max_range, out=rng_range)
    pts = points.reshape(p.rings, p.azimuth_steps, 3)
    across = np.multiply(rng_range, gen._cos_e, out=noise)
    np.multiply(across, gen._cos_a, out=pts[:, :, 0])
    np.multiply(across, gen._sin_a, out=pts[:, :, 1])
    np.multiply(rng_range, gen._sin_e, out=pts[:, :, 2])
    return points


def reference_quantize(points: np.ndarray, bbox: np.ndarray, q: int) -> np.ndarray:
    """Cells of (n, 3) points: the offset over the extent, checked against
    [0, 1], then scaled by 2**q."""
    lo = bbox[:3].astype(np.float64)
    hi = bbox[3:].astype(np.float64)
    extent = hi - lo
    safe = np.where(extent > 0, extent, 1.0)
    t = np.array(points.T)
    t -= lo[:, None]
    t /= safe[:, None]
    if not (t.min() >= 0.0 and t.max() <= 1.0):
        bad = int(np.argmin(((t >= 0.0) & (t <= 1.0)).all(axis=0)))
        raise OutOfRangeError(
            f"point {bad} at {points[bad]} outside coding bbox [{lo}, {hi}]"
        )
    t *= float(1 << q)
    np.minimum(t, float((1 << q) - 1), out=t)
    return t.astype(np.int64).astype(np.uint64)


def reference_cell_centers(cells: np.ndarray, bbox: np.ndarray, q: int) -> np.ndarray:
    """Cell centers as (3, n) rows: the cell cast to float, plus 0.5, times the cell size."""
    lo = bbox[:3].astype(np.float64)
    hi = bbox[3:].astype(np.float64)
    cell = (hi - lo) / float(1 << q)
    t = cells.view(np.int64).astype(np.float64)
    t += 0.5
    t *= cell[:, None]
    t += lo[:, None]
    return t


@st.composite
def sources(draw, noise_sigmas=(0.01,)):
    """A generator and a time.  The lowest ring, a one-ring profile's only
    one, sits at elev_min_deg: at -30 degrees it sees only the ground, at 0
    only the wall."""
    rings, azimuth = draw(st.sampled_from(PROFILES))
    profile = SensorProfile(rings=rings, azimuth_steps=azimuth,
                            elev_min_deg=draw(st.sampled_from([-30.0, 0.0])),
                            noise_sigma=draw(st.sampled_from(noise_sigmas)))
    gen = ScanGenerator(profile, draw(st.integers(0, 2**16)))
    return gen, draw(st.floats(0.0, 1.0e4))


def scan_of(source):
    gen, t = source
    return gen.generate(t, scan_id=3)


@settings(max_examples=60)
@given(source=sources(noise_sigmas=(0.0, 0.01)))
def test_generate_matches_the_row_major_reference(source):
    gen, t = source
    scan = scan_of(source)
    expected = reference_generate(gen, t)
    assert scan.points.tobytes() == expected.tobytes()
    assert scan.points.T.flags.c_contiguous  # x, y and z are each one contiguous row
    work = Workspace(scan.n_points)
    assert gen.generate(t, scan_id=3, out=work).points.tobytes() == expected.tobytes()
    assert work.points.T.flags.c_contiguous


EVERY_Q = pytest.mark.parametrize("q", range(Q_MIN, Q_MAX + 1))
BOTH_BOXES = pytest.mark.parametrize("tight", [False, True])


@EVERY_Q
@BOTH_BOXES
@settings(max_examples=10)
@given(source=sources(), on_face=st.lists(st.tuples(st.integers(0, 2**24), st.booleans()), max_size=4))
def test_quantize_and_cell_centers_match_the_reference(source, on_face, q, tight):
    scan = scan_of(source)
    bbox = codec._coding_bbox(scan, tight)
    points = scan.points
    # points exactly on the box's max face (the 2**q clamp) or its min face
    faces = {k % len(points): high for k, high in on_face}
    for k, high in faces.items():
        points[k] = bbox[3:] if high else bbox[:3]
    expected = reference_quantize(points, bbox, q)
    for layout in (points, np.ascontiguousarray(points)):
        cells = codec._quantize(layout, bbox, q)
        assert cells.dtype == np.uint64 and np.array_equal(cells, expected)
    last = np.where(bbox[3:] > bbox[:3], (1 << q) - 1, 0)  # a flat axis has one cell
    for k, high in faces.items():
        assert np.array_equal(cells[:, k], last if high else [0, 0, 0])
    centers = codec._cell_centers(cells, bbox, q)
    assert centers.tobytes() == reference_cell_centers(cells, bbox, q).tobytes()
    out = np.empty(cells.shape)
    assert codec._cell_centers(cells, bbox, q, out=out) is out
    assert out.tobytes() == centers.tobytes()
    # a decoded unit's box is float64, not the shared float32 default
    wide = bbox.astype(np.float64)
    assert codec._cell_centers(cells, wide, q).tobytes() == centers.tobytes()


@EVERY_Q
@BOTH_BOXES
@settings(max_examples=10)
@given(source=sources(), k=st.integers(0, 2**24), axis=st.integers(0, 2), high=st.booleans())
def test_a_point_just_outside_the_box_is_named_as_before(source, k, axis, high, q, tight):
    scan = scan_of(source)
    bbox = codec._coding_bbox(scan, tight)
    points = scan.points
    k %= len(points)
    face = float(bbox[3 + axis] if high else bbox[axis])
    points[k, axis] = face + (1e-6 if high else -1e-6)
    try:
        expected = reference_quantize(points, bbox, q)
    except OutOfRangeError as e:
        expected = str(e)
    try:
        got = codec._quantize(points, bbox, q)
    except OutOfRangeError as e:
        got = str(e)
    if isinstance(expected, str):
        assert got == expected and got.startswith(f"point {k} at ")
    else:  # a flat axis of a tight box codes everything within 1 of it in its one cell
        assert bbox[3 + axis] == bbox[axis] and np.array_equal(got, expected)


@settings(max_examples=25)
@given(source=sources(), q=st.integers(Q_MIN, Q_MAX), c=st.integers(C_MIN, C_MAX),
       tight=st.booleans())
def test_the_codec_reads_axis_rows_and_row_major_points_alike(source, q, c, tight):
    scan = scan_of(source)
    copy = PointCloudScan(np.ascontiguousarray(scan.points), scan_id=scan.scan_id)
    assert copy.points.flags.c_contiguous
    config = CompressionConfig(q, c, tight)
    a, b = encode(scan, config), encode(copy, config)
    assert a.payload == b.payload and np.array_equal(a.bbox, b.bbox)
    assert measure(scan, config) == measure(copy, config)
    qs, cs = list(range(Q_MIN, Q_MAX + 1)), list(range(C_MIN, C_MAX + 1))
    assert list(sweep(scan, qs, cs, tight)) == list(sweep(copy, qs, cs, tight))
