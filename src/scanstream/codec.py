"""Lossy LiDAR point cloud codec with Draco-style rate knobs.

A scan is quantized to q bits per axis inside an axis-aligned bounding box,
the cell indices are interleaved into Morton codes, sorted spatially, and
delta coded.  The original point order is restored through a stored
permutation, so residuals stay per-point comparable.  The packing effort
knob c in [0, 9] enables progressively finer block-adaptive widths for the
delta stream; candidates are always raced against each other and the
smallest encoding wins, so payload size is nonincreasing in c.

Encoding runs in two stages, as Draco quantizes and orders before it
entropy codes.  The geometry stage depends only on (scan, q): bounding
box, quantization, Morton codes, sort, deltas and their widths.  The
packing stage picks the delta stream plan for c and writes the
permutation stream, the delta stream and the payload header.  Since c
only changes how the deltas are packed, every c at one q decodes to the
same points: the cell centers that `reconstruct` computes without
encoding.

A simulated run needs only each unit's size and those cell centers, so
`measure` stops after the geometry stage and the plan, whose byte count
the packing stage checks against every payload it writes.

The calibration sweep needs only payload sizes and those cell centers, so
`sweep` packs nothing and stages by scan, not by q.  It quantizes, Morton
codes and sorts a scan once, at Q_MAX.  Shifting a cell index at Q_MAX
right by Q_MAX - q gives the cell index at q, so shifting the sorted codes
right by 3 (Q_MAX - q) gives each q's sorted codes, and from their deltas
the plans give each c's exact payload size.

Cell indices travel as a (3, n) stack, one row per axis, and Morton codes
as uint64 words (see bitpack): one word for q <= 21, whose codes have at
most 63 bits, and a (hi, lo) pair above.  A delta is never wider than the
3q-bit grid, so the decoder rejects any wider stream width, and it
rejects delta streams whose running sum leaves the grid.

Payload layout (after the unit wire header, little endian):

    u32 n_points | u32 n_valid | first_code[9] (72-bit big endian)
    u8 perm_mode (0 identity, 1 packed) | u8 delta_mode (0 global, 1 blocks)
    u8 delta_width | u8 block_log2
    perm stream (byte padded) | block width bytes | delta stream (byte padded)
"""
from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import bitpack

Q_MIN, Q_MAX = 8, 24
C_MIN, C_MAX = 0, 9
MAX_POINTS = 1 << 24

# default short-range operating volume, meters per axis
DEFAULT_BBOX = np.array([-50.0, -50.0, -50.0, 50.0, 50.0, 50.0])

# block sizes unlocked as the effort knob grows; saturates past c == 6
_BLOCK_SIZES = (8192, 4096, 2048, 1024, 512, 256)

_UNIT_MAGIC = b"PCU1"
_UNIT_HEADER = struct.Struct("<4sIBB6fI")
UNIT_HEADER_BYTES = _UNIT_HEADER.size  # what pack_unit puts ahead of the payload
_PAYLOAD_META = struct.Struct("<II9sBBBB")


class ConfigError(ValueError):
    """Invalid compression configuration."""


class OutOfRangeError(ValueError):
    """Scan coordinates fall outside the coding bounding box."""


class DecodeError(ValueError):
    """Malformed or truncated encoded unit."""


class CardinalityError(ValueError):
    """Residual operands disagree on point count or padding."""


@dataclass(frozen=True)
class CompressionConfig:
    """Codec knobs: quantization bits q and packing effort c."""

    q: int
    c: int
    tight_bbox: bool = False

    def validate(self) -> None:
        if not (isinstance(self.q, int) and Q_MIN <= self.q <= Q_MAX):
            raise ConfigError(f"q must be an integer in [{Q_MIN}, {Q_MAX}], got {self.q}")
        if not (isinstance(self.c, int) and C_MIN <= self.c <= C_MAX):
            raise ConfigError(f"c must be an integer in [{C_MIN}, {C_MAX}], got {self.c}")


@dataclass
class PointCloudScan:
    """One sensor revolution: (n, 3) float64 points in sensor frame.

    Indices >= n_valid are padding (duplicates of the last real return)
    and are excluded from residual statistics.
    """

    points: np.ndarray
    scan_id: int = 0
    timestamp: float = 0.0
    n_valid: int | None = None

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3 or len(self.points) == 0:
            raise ValueError(f"points must be a nonempty (n, 3) array, got {self.points.shape}")
        if self.n_valid is None:
            self.n_valid = len(self.points)
        if not (1 <= self.n_valid <= len(self.points)):
            raise ValueError(f"n_valid {self.n_valid} out of range for {len(self.points)} points")

    @property
    def n_points(self) -> int:
        return len(self.points)


@dataclass
class EncodedUnit:
    scan_id: int
    q: int
    c: int
    bbox: np.ndarray  # (6,) float32: min xyz, max xyz
    payload: bytes


@dataclass
class ResidualStats:
    """Per-point reconstruction error; statistics cover valid points only."""

    mean_ptp: float
    max_ptp: float
    l2_norm: float


def _f32_bbox(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    '''round to float32, widening outward so no source point escapes'''
    lo32 = lo.astype(np.float32)
    hi32 = hi.astype(np.float32)
    lo32 = np.where(lo32.astype(np.float64) > lo, np.nextafter(lo32, np.float32(-np.inf)), lo32)
    hi32 = np.where(hi32.astype(np.float64) < hi, np.nextafter(hi32, np.float32(np.inf)), hi32)
    return np.concatenate([lo32, hi32]).astype(np.float32)


def _coding_bbox(scan: PointCloudScan, tight_bbox: bool) -> np.ndarray:
    if tight_bbox:
        return _f32_bbox(scan.points.min(axis=0), scan.points.max(axis=0))
    return _f32_bbox(DEFAULT_BBOX[:3], DEFAULT_BBOX[3:])


def _quantize(points: np.ndarray, bbox: np.ndarray, q: int) -> np.ndarray:
    """Cell indices of (n, 3) points as a (3, n) uint64 stack."""
    lo = bbox[:3].astype(np.float64)
    hi = bbox[3:].astype(np.float64)
    extent = hi - lo
    safe = np.where(extent > 0, extent, 1.0)
    # axis rows keep numpy's inner loops long; always a copy, as t is
    # scaled in place
    t = points.T.copy(order="C")
    t -= lo[:, None]
    t /= safe[:, None]
    if not (t.min() >= 0.0 and t.max() <= 1.0):
        bad = int(np.argmin(((t >= 0.0) & (t <= 1.0)).all(axis=0)))
        raise OutOfRangeError(
            f"point {bad} at {points[bad]} outside coding bbox [{lo}, {hi}]"
        )
    t *= float(1 << q)
    cells = t.astype(np.uint64)
    return np.minimum(cells, np.uint64((1 << q) - 1), out=cells)


def _dequantize(cells: np.ndarray, bbox: np.ndarray, q: int) -> np.ndarray:
    """Cell centers of a (3, n) stack of cell indices, as (n, 3) points."""
    lo = bbox[:3].astype(np.float64)
    hi = bbox[3:].astype(np.float64)
    cell = (hi - lo) / float(1 << q)
    t = cells.astype(np.float64)
    t += 0.5
    t *= cell[:, None]
    t += lo[:, None]
    return np.ascontiguousarray(t.T)


_Plan = tuple[int, int, int, "np.ndarray | None", int]


def _delta_stream_plans(widths: np.ndarray, cs: list[int]) -> list[_Plan]:
    """Race the packing candidates allowed at each effort in cs.

    Effort c admits the global width plus the first min(c, 6) block sizes.
    Each candidate is sized once; returns one (delta_mode, global_width,
    block_log2, block_widths, nbytes) per c, where nbytes is the exact size
    of the block width table plus the delta stream.  Ties go to the earlier
    (simpler) candidate.
    """
    m = len(widths)
    global_w = int(widths.max(initial=0))
    nbytes = (m * global_w + 7) // 8
    best = (0, global_w, 0, None, nbytes)
    winners = [best]  # winners[k]: best plan among the first k block sizes
    for block in _BLOCK_SIZES[: min(max(cs, default=0), len(_BLOCK_SIZES))]:
        if m == 0:
            break
        starts = np.arange(0, m, block)
        bw = np.maximum.reduceat(widths, starts)
        lens = np.diff(np.append(starts, m))
        nbytes = (int(np.sum(lens * bw)) + 7) // 8 + len(bw)
        if nbytes < best[4]:
            best = (1, 0, int(block).bit_length() - 1, bw, nbytes)
        winners.append(best)
    return [winners[min(c, len(winners) - 1)] for c in cs]


@dataclass
class _Geometry:
    """Geometry stage output for one (scan, q): the cells and their sorted deltas."""

    bbox: np.ndarray
    cells: np.ndarray  # (3, n) cell indices at q, in capture order
    order: np.ndarray | None  # Morton sort order; None when it is the identity
    first: bytes  # first sorted Morton code, 72-bit big endian
    deltas: tuple  # deltas of the sorted codes as (hi, lo) words (see bitpack)
    widths: np.ndarray  # bit length of each delta


def _check_scan_size(scan: PointCloudScan) -> None:
    if scan.n_points > MAX_POINTS:
        raise ConfigError(f"scan has {scan.n_points} points, codec limit is {MAX_POINTS}")


def _geometry(scan: PointCloudScan, q: int, tight_bbox: bool) -> _Geometry:
    """Quantize, Morton code and sort a scan; take the deltas and their widths."""
    _check_scan_size(scan)
    bbox = _coding_bbox(scan, tight_bbox)
    cells = _quantize(scan.points, bbox, q)
    hi, lo = bitpack.morton_encode(cells, q)
    order = bitpack.sort_order(hi, lo)
    if np.array_equal(order, np.arange(scan.n_points)):
        order = None
    else:
        lo = lo[order]
        hi = None if hi is None else hi[order]
    dhi, dlo = bitpack.deltas(hi, lo)
    first = bitpack.code_int(hi, lo, 0).to_bytes(9, "big")
    return _Geometry(bbox, cells, order, first, (dhi, dlo), bitpack.code_bit_length(dhi, dlo))


def _payload_nbytes(n: int, geom: _Geometry, plan: _Plan) -> int:
    """Exact payload size of an n-point scan's geometry under one delta stream plan."""
    perm = 0 if geom.order is None else (n * int(n - 1).bit_length() + 7) // 8
    return _PAYLOAD_META.size + perm + plan[4]


def _pack(scan: PointCloudScan, geom: _Geometry, plan: _Plan) -> bytes:
    """Packing stage: the payload for one delta stream plan."""
    delta_mode, global_w, block_log2, block_widths, _ = plan
    n = scan.n_points
    perm_bytes = b""
    if geom.order is not None:
        perm_bytes = bitpack.pack_uint(geom.order, int(n - 1).bit_length())
    bits = bitpack.to_bit_matrix(*geom.deltas)
    if delta_mode == 0:
        width_bytes = b""
        delta_bytes = bitpack.pack_width(bits, global_w)
    else:
        width_bytes = block_widths.astype(np.uint8).tobytes()
        block = 1 << block_log2
        # rows go straight into one stream: a copy per block, then their
        # concatenation, would hold the packed deltas twice at encode's peak
        lens = np.minimum(block, len(bits) - block * np.arange(len(block_widths)))
        stream = np.empty(int(lens @ block_widths), dtype=np.uint8)
        pos = 0
        for k, w in enumerate(block_widths):
            rows = bits[k * block : (k + 1) * block, bits.shape[1] - int(w) :]
            stream[pos : pos + rows.size].reshape(rows.shape)[...] = rows
            pos += rows.size
        delta_bytes = np.packbits(stream).tobytes()

    meta = _PAYLOAD_META.pack(
        n, scan.n_valid, geom.first, int(geom.order is not None), delta_mode, global_w, block_log2
    )
    payload = meta + perm_bytes + width_bytes + delta_bytes
    # `measure` and `sweep` size payloads without packing; they must never drift apart
    sized = _payload_nbytes(n, geom, plan)
    if len(payload) != sized:
        raise RuntimeError(f"packed {len(payload)} payload bytes, the plan sized {sized}")
    return payload


def encode(scan: PointCloudScan, config: CompressionConfig) -> EncodedUnit:
    """Compress a scan; raises OutOfRangeError for points outside the bbox."""
    config.validate()
    geom = _geometry(scan, config.q, config.tight_bbox)
    (plan,) = _delta_stream_plans(geom.widths, [config.c])
    payload = _pack(scan, geom, plan)
    return EncodedUnit(scan_id=scan.scan_id, q=config.q, c=config.c, bbox=geom.bbox, payload=payload)


def measure(scan: PointCloudScan, config: CompressionConfig) -> tuple[int, PointCloudScan]:
    """Payload size and reconstruction of a scan at one config, packing nothing:
    (len(encode(scan, config).payload), reconstruct(scan, config.q,
    config.tight_bbox)) from one quantization.  Rejects what encode rejects."""
    config.validate()
    geom = _geometry(scan, config.q, config.tight_bbox)
    (plan,) = _delta_stream_plans(geom.widths, [config.c])
    points = _dequantize(geom.cells, geom.bbox, config.q)
    rebuilt = PointCloudScan(points=points, scan_id=scan.scan_id, n_valid=scan.n_valid)
    return _payload_nbytes(scan.n_points, geom, plan), rebuilt


def sweep(
    scan: PointCloudScan, qs: list[int], cs: list[int], tight_bbox: bool = False
) -> Iterator[tuple[int, list[int], PointCloudScan]]:
    """Payload sizes and reconstruction of a scan at every (q, c), packing nothing.

    Yields (q, sizes, rebuilt) for each q in qs, one q at a time: sizes[k]
    is len(encode(scan, CompressionConfig(q, cs[k], tight_bbox)).payload)
    and rebuilt is reconstruct(scan, q, tight_bbox).  Rejects a bad q or c,
    an oversized scan and out-of-box points as encode does, once iterated.

    The scan is quantized, Morton coded and sorted once, at Q_MAX.  t * 2**q
    is a power-of-two scaling of t * 2**Q_MAX, so the floor and the clamp at
    t = 1 both commute with the right shift by Q_MAX - q: the cells at q are
    the shifted cells at Q_MAX, and the codes at q the sorted Q_MAX codes
    shifted by 3 (Q_MAX - q), still sorted.  Their deltas, widths and plans
    are then the encoder's; only the tie order inside the perm stream can
    differ, and its length does not.
    """
    for q in qs:
        for c in cs:
            CompressionConfig(q, c, tight_bbox).validate()
    _check_scan_size(scan)
    n = scan.n_points
    bbox = _coding_bbox(scan, tight_bbox)
    cells = _quantize(scan.points, bbox, Q_MAX)
    hi, lo = bitpack.morton_encode(cells, Q_MAX)
    # The encoder stores no perm stream when the codes at q never fall in
    # capture order.  A shift keeps every rise, and turns a fall into a tie
    # once it drops the highest bit where the two codes differ.
    a_hi, a_lo, b_hi, b_lo = hi[:-1], lo[:-1], hi[1:], lo[1:]
    fall = (b_hi < a_hi) | ((b_hi == a_hi) & (b_lo < a_lo))
    fall_bits = bitpack.code_bit_length(a_hi[fall] ^ b_hi[fall], a_lo[fall] ^ b_lo[fall])
    sorted_from = int(fall_bits.max(initial=0))  # shifts of this many bits leave no fall
    perm_bytes = (n * int(n - 1).bit_length() + 7) // 8
    order = bitpack.sort_order(hi, lo)
    hi, lo = hi[order], lo[order]
    for q in qs:
        shift = Q_MAX - q
        dhi, dlo = bitpack.deltas(*bitpack.shift_codes(hi, lo, q))
        plans = _delta_stream_plans(bitpack.code_bit_length(dhi, dlo), cs)
        perm = 0 if 3 * shift >= sorted_from else perm_bytes
        points = _dequantize(cells >> np.uint64(shift), bbox, q)
        rebuilt = PointCloudScan(points=points, scan_id=scan.scan_id, n_valid=scan.n_valid)
        yield q, [_PAYLOAD_META.size + perm + plan[4] for plan in plans], rebuilt


def decode(unit: EncodedUnit) -> PointCloudScan:
    """Reconstruct a scan at cell centers, in the original point order."""
    if not (Q_MIN <= unit.q <= Q_MAX and C_MIN <= unit.c <= C_MAX):
        raise DecodeError(f"unit carries out-of-range config q={unit.q} c={unit.c}")
    bbox = np.asarray(unit.bbox, dtype=np.float64)
    if bbox.shape != (6,) or not np.isfinite(bbox).all() or (bbox[:3] > bbox[3:]).any():
        raise DecodeError(f"invalid bounding box {bbox}")
    payload = unit.payload
    if len(payload) < _PAYLOAD_META.size:
        raise DecodeError(f"payload truncated at {len(payload)} bytes")
    n, n_valid, first_raw, perm_mode, delta_mode, global_w, block_log2 = _PAYLOAD_META.unpack_from(payload)
    if n < 1 or n > MAX_POINTS or not (1 <= n_valid <= n):
        raise DecodeError(f"bad point counts n={n} n_valid={n_valid}")
    q = unit.q
    if perm_mode not in (0, 1) or delta_mode not in (0, 1):
        raise DecodeError("unknown stream mode")
    if global_w > 3 * q:
        raise DecodeError(f"delta width {global_w} exceeds the {q}-bit grid")
    cols = bitpack.row_bits(q)
    pos = _PAYLOAD_META.size

    order = None  # identity
    if perm_mode == 1:
        pw = int(n - 1).bit_length()
        nbytes = (n * pw + 7) // 8
        try:
            order = bitpack.unpack_uint(payload[pos : pos + nbytes], pw, n)
        except ValueError as exc:
            raise DecodeError(str(exc)) from None
        pos += nbytes
        seen = np.zeros(n, dtype=bool)
        if order.max(initial=0) >= n:
            raise DecodeError("perm stream is not a permutation")
        seen[order] = True
        if not seen.all():
            raise DecodeError("perm stream is not a permutation")

    m = n - 1
    try:
        if delta_mode == 0:
            nbytes = (m * global_w + 7) // 8
            bits = bitpack.unpack_width(payload[pos : pos + nbytes], global_w, m, cols)
            pos += nbytes
        else:
            block = 1 << block_log2
            if block < 1 or block > MAX_POINTS:
                raise DecodeError(f"bad block size 2**{block_log2}")
            nblocks = (m + block - 1) // block
            bw = np.frombuffer(payload[pos : pos + nblocks], dtype=np.uint8).astype(np.int64)
            if len(bw) != nblocks:
                raise DecodeError("block width table truncated")
            if bw.max(initial=0) > 3 * q:
                raise DecodeError(f"block width exceeds the {q}-bit grid")
            pos += nblocks
            lens = np.minimum(np.arange(1, nblocks + 1) * block, m) - np.arange(nblocks) * block
            total_bits = int(np.sum(lens * bw))
            raw = np.frombuffer(payload[pos : pos + (total_bits + 7) // 8], dtype=np.uint8)
            if len(raw) * 8 < total_bits:
                raise ValueError(f"bit stream truncated: need {total_bits} bits")
            pos += (total_bits + 7) // 8
            flat = np.unpackbits(raw, count=total_bits) if total_bits else np.zeros(0, dtype=np.uint8)
            bits = np.zeros((m, cols), dtype=np.uint8)
            splits = np.split(flat, np.cumsum(lens * bw)[:-1])
            for k, seg in enumerate(splits):
                if bw[k] == 0:
                    continue
                rows = seg.reshape(int(lens[k]), int(bw[k]))
                bits[k * block : k * block + len(rows), cols - int(bw[k]) :] = rows
        dhi, dlo = bitpack.from_bit_matrix(bits)
        hi, lo = bitpack.cumsum_words(int.from_bytes(first_raw, "big"), dhi, dlo, q)
    except ValueError as exc:
        raise DecodeError(str(exc)) from None

    if order is not None:  # back to capture order while points are still words
        lo = _unsort(lo, order)
        hi = None if hi is None else _unsort(hi, order)
    points = _dequantize(bitpack.morton_decode(hi, lo), bbox, q)
    return PointCloudScan(points=points, scan_id=unit.scan_id, timestamp=0.0, n_valid=n_valid)


def reconstruct(scan: PointCloudScan, q: int, tight_bbox: bool = False) -> PointCloudScan:
    """The points every unit of `scan` at quantization q decodes to, without encoding."""
    CompressionConfig(q, C_MIN, tight_bbox).validate()
    bbox = _coding_bbox(scan, tight_bbox)
    points = _dequantize(_quantize(scan.points, bbox, q), bbox, q)
    return PointCloudScan(points=points, scan_id=scan.scan_id, n_valid=scan.n_valid)


def _unsort(sorted_values: np.ndarray, order: np.ndarray) -> np.ndarray:
    out = np.empty_like(sorted_values)
    out[order] = sorted_values
    return out


def residual(original: PointCloudScan, decoded: PointCloudScan) -> ResidualStats:
    """Point-to-point reconstruction error; padded indices do not count."""
    if original.n_points != decoded.n_points:
        raise CardinalityError(
            f"point count mismatch: {original.n_points} vs {decoded.n_points}"
        )
    if original.n_valid != decoded.n_valid:
        raise CardinalityError(
            f"padding mismatch: n_valid {original.n_valid} vs {decoded.n_valid}"
        )
    # the Euclidean norm per point, summed x, y, z in order as np.linalg.norm does
    d = np.ascontiguousarray((original.points - decoded.points).T)
    d *= d
    per_point = d[0] + d[1]
    per_point += d[2]
    np.sqrt(per_point, out=per_point)
    valid = per_point[: original.n_valid]
    return ResidualStats(
        mean_ptp=float(valid.mean()),
        max_ptp=float(valid.max()),
        l2_norm=float(np.sqrt(np.sum(valid * valid))),
    )


# ---------------------------------------------------------------- wire formats

def pack_unit(unit: EncodedUnit) -> bytes:
    bbox = np.asarray(unit.bbox, dtype=np.float32)
    header = _UNIT_HEADER.pack(_UNIT_MAGIC, unit.scan_id, unit.q, unit.c, *bbox, len(unit.payload))
    return header + unit.payload


def unpack_unit(data: bytes) -> EncodedUnit:
    if len(data) < _UNIT_HEADER.size:
        raise DecodeError(f"unit header truncated at {len(data)} bytes")
    magic, scan_id, q, c, *rest = _UNIT_HEADER.unpack_from(data)
    if magic != _UNIT_MAGIC:
        raise DecodeError(f"bad unit magic {magic!r}")
    bbox = np.array(rest[:6], dtype=np.float32)
    payload_len = rest[6]
    if len(data) != _UNIT_HEADER.size + payload_len:
        raise DecodeError(
            f"unit length mismatch: header says {payload_len} payload bytes, "
            f"got {len(data) - _UNIT_HEADER.size}"
        )
    return EncodedUnit(scan_id=scan_id, q=q, c=c, bbox=bbox, payload=data[_UNIT_HEADER.size :])
