import dataclasses
import functools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanstream.codec import (
    DEFAULT_BBOX,
    CardinalityError,
    CompressionConfig,
    ConfigError,
    DecodeError,
    OutOfRangeError,
    PointCloudScan,
    decode,
    encode,
    encode_efforts,
    pack_unit,
    pad_scan,
    residual,
    unpack_unit,
)


def cloud(n, seed=0, span=40.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-span, span, size=(n, 3))


def make_scan(n, seed=0, scan_id=0):
    return pad_scan(cloud(n, seed), n, scan_id=scan_id)


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
        scan = pad_scan(points, n)
        before = scan.points.copy()
        for q in (16, 24):
            out = decode(encode(scan, CompressionConfig(q, 9, tight_bbox=True)))
            assert np.array_equal(scan.points, before)
            assert residual(scan, out).max_ptp < 1e-2


def test_encode_efforts_matches_encode_per_config():
    scan = make_scan(1500, 17, scan_id=4)
    for q in (8, 13, 21, 22, 24):
        for tight in (False, True):
            cs = [9, 0, 3, 6, 7]
            units = encode_efforts(scan, q, cs, tight)
            assert [u.c for u in units] == cs
            for unit in units:
                ref = encode(scan, CompressionConfig(q, unit.c, tight_bbox=tight))
                assert (unit.scan_id, unit.q) == (ref.scan_id, ref.q)
                assert np.array_equal(unit.bbox, ref.bbox)
                assert unit.payload == ref.payload


def test_encode_efforts_rejects_bad_effort():
    with pytest.raises(ConfigError):
        encode_efforts(make_scan(16, 1), 12, [0, 10])


def test_decode_independent_of_effort():
    # c only changes how the deltas are packed, so the calibration sweep may
    # decode one unit per (scan, q) and share its residual across every c
    scan = make_scan(2048, 23)
    for q in range(8, 25):
        first, *rest = [decode(u) for u in encode_efforts(scan, q, list(range(10)))]
        for out in rest:
            assert out.n_valid == first.n_valid
            assert np.array_equal(out.points, first.points)


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
    assert unit.payload_bits == 8 * len(unit.payload)
    assert unit.wire_size > len(unit.payload)


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
    scan = pad_scan(points, FUZZ_POINTS)
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
    scan = pad_scan(points, 2)
    with pytest.raises(OutOfRangeError):
        encode(scan, CompressionConfig(10, 0))


def test_pad_scan_pads_and_rejects_excess():
    scan = pad_scan(cloud(10, 6), 16)
    assert scan.n_points == 16
    with pytest.raises(ValueError):
        pad_scan(cloud(10, 6), 4)


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
