import dataclasses
import functools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scanstream import bitpack, codec
from scanstream.codec import (
    C_MAX,
    C_MIN,
    DEFAULT_BBOX,
    Q_MAX,
    Q_MIN,
    CardinalityError,
    UNIT_HEADER_BYTES,
    CompressionConfig,
    ConfigError,
    DecodeError,
    OutOfRangeError,
    PointCloudScan,
    decode,
    encode,
    measure,
    pack_unit,
    reconstruct,
    residual,
    sweep,
    unpack_unit,
)


def cloud(n, seed=0, span=40.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-span, span, size=(n, 3))


def make_scan(n, seed=0, scan_id=0):
    return PointCloudScan(cloud(n, seed), scan_id=scan_id)


# ------------------------------------------------------------------ config


@pytest.mark.parametrize("q,c", [(7, 0), (25, 0), (8, -1), (8, 10)])
def test_config_rejects_out_of_grid(q, c):
    with pytest.raises(ConfigError):
        CompressionConfig(q, c).validate()


def test_config_accepts_grid_corners():
    for q, c in [(8, 0), (8, 9), (24, 0), (24, 9)]:
        CompressionConfig(q, c).validate()


# -------------------------------------------------------------- round trip


@given(q=st.integers(8, 24), c=st.integers(0, 9), seed=st.integers(0, 20))
def test_roundtrip_error_bounded_by_cell(q, c, seed):
    scan = make_scan(512, seed)
    unit = encode(scan, CompressionConfig(q, c))
    out = decode(unit)
    stats = residual(scan, out)
    # uniform quantization over the default box: worst case is half a cell
    # diagonal, plus a little float slack
    cell = (DEFAULT_BBOX[3] - DEFAULT_BBOX[0]) / (2**q - 1)
    assert stats.max_ptp <= (math.sqrt(3.0) / 2.0) * cell * (1.0 + 1e-6) + 1e-9
    assert out.n_points == scan.n_points
    assert out.scan_id == scan.scan_id


def test_roundtrip_exact_past_int64_cumsum_range():
    # 70k deltas of up to 72 bits sum past 2**63 when summed as 48-bit parts
    scan = make_scan(70_000, 3)
    stats = residual(scan, decode(encode(scan, CompressionConfig(24, 0))))
    cell = (DEFAULT_BBOX[3] - DEFAULT_BBOX[0]) / (2**24 - 1)
    assert stats.max_ptp <= (math.sqrt(3.0) / 2.0) * cell * (1.0 + 1e-6) + 1e-9


def test_decoded_points_sorted_not_original_order():
    # the codec reorders points; residual matching must still pair correctly
    scan = make_scan(256, 3)
    out = decode(encode(scan, CompressionConfig(16, 2)))
    stats = residual(scan, out)
    assert stats.mean_ptp < 0.01


def test_encode_deterministic():
    scan = make_scan(1024, 5)
    cfg = CompressionConfig(14, 3)
    assert encode(scan, cfg).payload == encode(scan, cfg).payload


@pytest.mark.parametrize("n", [1, 2, 300])
def test_encode_leaves_the_scan_unchanged(n):
    # one point, or Fortran-ordered points, transpose to a contiguous view
    for points in (cloud(n, 4), np.asfortranarray(cloud(n, 4))):
        scan = PointCloudScan(points)
        before = scan.points.copy()
        for q in (16, 24):
            out = decode(encode(scan, CompressionConfig(q, 9, tight_bbox=True)))
            assert np.array_equal(scan.points, before)
            assert residual(scan, out).max_ptp < 1e-2


def test_decode_independent_of_effort():
    # c only changes how the deltas are packed, so the calibration sweep may
    # take one reconstruction per (scan, q) as every c's decoded points
    scan = make_scan(2048, 23)
    for q in range(8, 25):
        first, *rest = [decode(encode(scan, CompressionConfig(q, c))) for c in range(10)]
        for out in rest:
            assert out.n_valid == first.n_valid
            assert np.array_equal(out.points, first.points)


# ------------------------------------------------------------------- sweep


def sweep_points(n, seed, layout):
    """n points of one layout, inside the default box unless stated."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-40.0, 40.0, size=(n, 3))
    if layout == "duplicates":  # at most three distinct points, repeated
        points = points[rng.integers(0, 3, size=n) % n]
    elif layout == "cluster":  # ties at coarse q, a perm stream at fine q
        points = rng.uniform(3.0, 3.01, size=(n, 3))
    elif layout == "presorted":  # in Morton order at Q_MAX, so at every q
        bbox = codec._coding_bbox(PointCloudScan(points), False)
        hi, lo = bitpack.morton_encode(codec._quantize(points, bbox, Q_MAX), Q_MAX)
        points = points[bitpack.sort_order(hi, lo)]
    elif layout == "faces":  # t == 1 on the default box's max face clamps
        face = rng.random(size=(n, 3)) < 0.3
        points[face] = rng.choice([-50.0, 50.0], size=int(face.sum()))
    return points


@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 1000),
    layout=st.sampled_from(["spread", "duplicates", "cluster", "presorted", "faces"]),
    padded=st.booleans(),
    tight=st.booleans(),
)
@example(n=1, seed=0, layout="spread", padded=False, tight=False)
@example(n=1, seed=0, layout="faces", padded=False, tight=True)
@example(n=30, seed=1, layout="duplicates", padded=False, tight=True)
@example(n=30, seed=2, layout="presorted", padded=False, tight=False)
@example(n=30, seed=3, layout="cluster", padded=False, tight=False)
@example(n=30, seed=4, layout="faces", padded=False, tight=False)
@example(n=30, seed=5, layout="spread", padded=True, tight=True)
def test_sweep_equals_encode_and_reconstruct(n, seed, layout, padded, tight):
    # and so does measure, config for config
    points = sweep_points(n, seed, layout)
    n_valid = max(1, n // 2) if padded else n
    points[n_valid:] = points[n_valid - 1]  # padding repeats the last real return
    scan = PointCloudScan(points, scan_id=seed, n_valid=n_valid)
    bbox = codec._coding_bbox(scan, tight)
    top = codec._quantize(scan.points, bbox, Q_MAX)
    qs = list(range(Q_MIN, Q_MAX + 1))
    cs = list(range(C_MIN, C_MAX + 1))
    swept = list(sweep(scan, qs, cs, tight))
    assert [q for q, _, _ in swept] == qs
    for q, sizes, rebuilt in swept:
        assert np.array_equal(codec._quantize(scan.points, bbox, q), top >> np.uint64(Q_MAX - q))
        assert sizes == [len(encode(scan, CompressionConfig(q, c, tight)).payload) for c in cs]
        ref = reconstruct(scan, q, tight)
        assert np.array_equal(rebuilt.points, ref.points)
        assert (rebuilt.n_valid, rebuilt.scan_id) == (n_valid, seed)
        for c, size in zip(cs, sizes):
            nbytes, measured = measure(scan, CompressionConfig(q, c, tight))
            assert nbytes == size
            assert np.array_equal(measured.points, ref.points)
            assert (measured.n_valid, measured.scan_id) == (n_valid, seed)


def test_sweep_rejects_what_encode_rejects(monkeypatch):
    # and so does measure
    scan = make_scan(16, 1)
    for q, c in [(7, 0), (25, 0), (12, -1), (12, 10)]:
        with pytest.raises(ConfigError):
            list(sweep(scan, [12, q], [0, c]))
        with pytest.raises(ConfigError):
            measure(scan, CompressionConfig(q, c))
    outside = PointCloudScan(np.array([[0.0, 0.0, 0.0], [60.0, 0.0, 0.0]]))
    with pytest.raises(OutOfRangeError):
        list(sweep(outside, [10], [0]))
    with pytest.raises(OutOfRangeError):
        measure(outside, CompressionConfig(10, 0))
    monkeypatch.setattr(codec, "MAX_POINTS", 15)
    with pytest.raises(ConfigError):
        encode(scan, CompressionConfig(12, 0))
    with pytest.raises(ConfigError):
        list(sweep(scan, [12], [0]))
    with pytest.raises(ConfigError):
        measure(scan, CompressionConfig(12, 0))


def test_payload_nondecreasing_in_q():
    scan = make_scan(2048, 9)
    for c in (0, 5, 9):
        sizes = [len(encode(scan, CompressionConfig(q, c)).payload) for q in range(8, 25)]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))


def test_mean_ptp_nonincreasing_in_q():
    scan = make_scan(2048, 11)
    for c in (0, 9):
        errs = [
            residual(scan, decode(encode(scan, CompressionConfig(q, c)))).mean_ptp
            for q in range(8, 25)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_higher_c_never_larger_at_same_q():
    scan = make_scan(2048, 13)
    for q in (10, 16, 22):
        sizes = [len(encode(scan, CompressionConfig(q, c)).payload) for c in range(10)]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def test_unit_metadata_and_sizes():
    scan = make_scan(300, 1, scan_id=77)
    unit = encode(scan, CompressionConfig(12, 4))
    assert (unit.scan_id, unit.q, unit.c) == (77, 12, 4)
    assert len(pack_unit(unit)) == UNIT_HEADER_BYTES + len(unit.payload)


def test_tight_bbox_roundtrip():
    scan = make_scan(512, 21, scan_id=5)
    unit = encode(scan, CompressionConfig(10, 0, tight_bbox=True))
    stats = residual(scan, decode(unit))
    loose = encode(scan, CompressionConfig(10, 0))
    loose_stats = residual(scan, decode(loose))
    # a tight box shrinks the quantization cell, so error drops at equal q
    assert stats.mean_ptp < loose_stats.mean_ptp


# ------------------------------------------------------------ unit framing


def test_pack_unpack_unit_roundtrip():
    unit = encode(make_scan(400, 8, scan_id=9), CompressionConfig(15, 6))
    clone = unpack_unit(pack_unit(unit))
    assert clone.scan_id == unit.scan_id
    assert clone.q == unit.q and clone.c == unit.c
    assert np.allclose(clone.bbox, unit.bbox)
    assert clone.payload == unit.payload
    assert decode(clone).points.shape == (400, 3)


def test_unpack_unit_rejects_garbage():
    blob = bytearray(pack_unit(encode(make_scan(64, 2), CompressionConfig(9, 1))))
    blob[0] = 0xFF  # break the magic
    with pytest.raises(DecodeError):
        unpack_unit(bytes(blob))
    with pytest.raises(DecodeError):
        unpack_unit(blob[:10])


def test_decode_rejects_truncated_payload():
    unit = encode(make_scan(128, 4), CompressionConfig(12, 0))
    unit.payload = unit.payload[: len(unit.payload) // 2]
    with pytest.raises(DecodeError):
        decode(unit)


def test_decode_checks_length_before_allocating():
    # a bare 21-byte header claiming 2**24 points of 8-bit deltas
    payload = struct.pack("<II9sBBBB", 1 << 24, 1, bytes(9), 0, 0, 8, 0)
    unit = encode(make_scan(16, 2), CompressionConfig(12, 0))
    unit.payload = payload
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError):
            decode(unit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def headed_unit(q, n, first, width, stream):
    """A unit at q whose payload is a hand-made header plus delta stream."""
    unit = encode(make_scan(n, 1), CompressionConfig(q, 0))
    unit.payload = struct.pack("<II9sBBBB", n, n, first.to_bytes(9, "big"), 0, 0, width, 0) + stream
    return unit


def delta_stream(deltas, width):
    bits = "".join(format(d, f"0{width}b") for d in deltas)
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


def test_decode_rejects_deltas_that_wrap_back_into_the_grid():
    # at q=21 codes have 63 bits and the decoder sums them in uint64:
    # 2**62 + 2 * (2**63 - 1) wraps past 2**64 to 2**62 - 2, back in the grid
    wide = (1 << 63) - 1
    with pytest.raises(DecodeError):
        decode(headed_unit(21, 3, 1 << 62, 63, delta_stream([wide, wide], 63)))
    # 63-bit deltas that end at the grid's last code decode
    out = decode(headed_unit(21, 3, 0, 63, delta_stream([1 << 62, (1 << 62) - 1], 63)))
    assert out.n_points == 3


def test_decode_rejects_deltas_wider_than_the_grid():
    with pytest.raises(DecodeError):
        decode(headed_unit(10, 3, 0, 31, delta_stream([1, 1], 31)))
    assert decode(headed_unit(10, 3, 0, 30, delta_stream([1, 1], 30))).n_points == 3


FUZZ_QS = (10, 21, 22, 24)
FUZZ_POINTS = 1200


@functools.cache
def fuzz_units():
    """Valid units at each fuzzed q, one per delta mode (global, blocks)."""
    # a dense cluster in a sparse field: the cluster's small deltas sit in
    # a run of their own, so blocked widths beat one global width
    rng = np.random.default_rng(5)
    points = np.concatenate([rng.uniform(-40, 40, (FUZZ_POINTS // 2, 3)),
                             rng.uniform(0, 0.4, (FUZZ_POINTS // 2, 3))])
    scan = PointCloudScan(points)
    units = []
    for q in FUZZ_QS:
        for delta_mode, c in enumerate((0, 9)):
            unit = encode(scan, CompressionConfig(q, c))
            assert unit.payload[18] == delta_mode
            units.append(unit)
    return units


@given(
    which=st.integers(0, 2 * len(FUZZ_QS) - 1),
    flips=st.lists(
        st.tuples(st.integers(0, 24) | st.integers(0, 10**6), st.integers(0, 255)), max_size=2
    ),
    cut=st.none() | st.integers(0, 10**6),
    extra=st.binary(max_size=16),
)
def test_decode_of_mutated_payloads_is_bounded(which, flips, cut, extra):
    unit = fuzz_units()[which]
    data = bytearray(unit.payload)
    for pos, value in flips:
        data[pos % len(data)] = value
    if cut is not None:
        del data[cut % len(data) :]
    data += extra
    mutated = dataclasses.replace(unit, payload=bytes(data))
    tracemalloc.start()
    try:
        try:
            out = decode(mutated)
        except DecodeError:
            out = None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    if out is not None:
        assert out.points.shape == (struct.unpack_from("<I", data)[0], 3)
        assert np.isfinite(out.points).all()


# ----------------------------------------------------------- input guards


def test_out_of_range_points_rejected():
    points = np.array([[0.0, 0.0, 0.0], [60.0, 0.0, 0.0]])  # outside the 50 m box
    scan = PointCloudScan(points)
    with pytest.raises(OutOfRangeError):
        encode(scan, CompressionConfig(10, 0))


def test_residual_zero_on_identity():
    scan = make_scan(200, 14)
    stats = residual(scan, scan)
    assert stats.mean_ptp == 0.0
    assert stats.max_ptp == 0.0
    assert stats.l2_norm == 0.0


def test_residual_rejects_mismatched_counts():
    a = make_scan(64, 1)
    b = make_scan(32, 1)
    with pytest.raises(CardinalityError):
        residual(a, b)
