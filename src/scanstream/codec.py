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
box, quantization, Morton codes, sort, deltas and their widths, the
permutation stream and the delta bit matrix.  The packing stage runs per
c: it picks the delta stream plan and writes the delta stream and the
payload header.  `encode_efforts` runs the geometry once for many c;
`encode` is its one-c case.  Since c only changes how the deltas are
packed, every c at one q decodes to the same points.

Payload layout (after the unit wire header, little endian):

    u32 n_points | u32 n_valid | first_code[9] (72-bit big endian)
    u8 perm_mode (0 identity, 1 packed) | u8 delta_mode (0 global, 1 blocks)
    u8 delta_width | u8 block_log2
    perm stream (byte padded) | block width bytes | delta stream (byte padded)
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

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
_SCAN_MAGIC = b"PCS1"
_SCAN_HEADER = struct.Struct("<4sI6f")
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

    @property
    def payload_bits(self) -> int:
        return 8 * len(self.payload)

    @property
    def wire_size(self) -> int:
        return _UNIT_HEADER.size + len(self.payload)


@dataclass
class ResidualStats:
    """Per-point reconstruction error; statistics cover valid points only."""

    mean_ptp: float
    max_ptp: float
    l2_norm: float
    per_point_l2: np.ndarray = field(repr=False)


def pad_scan(points: np.ndarray, n_points: int, scan_id: int = 0, timestamp: float = 0.0) -> PointCloudScan:
    """Pad a short sweep to n_points by duplicating the last valid return."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3 or len(points) == 0:
        raise ValueError(f"points must be a nonempty (n, 3) array, got {points.shape}")
    if len(points) > n_points:
        raise ValueError(f"scan has {len(points)} returns, more than n_points={n_points}")
    n_valid = len(points)
    if n_valid < n_points:
        pad = np.repeat(points[-1:], n_points - n_valid, axis=0)
        points = np.concatenate([points, pad], axis=0)
    return PointCloudScan(points=points, scan_id=scan_id, timestamp=timestamp, n_valid=n_valid)


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


def _quantize(points: np.ndarray, bbox: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lo = bbox[:3].astype(np.float64)
    hi = bbox[3:].astype(np.float64)
    extent = hi - lo
    safe = np.where(extent > 0, extent, 1.0)
    t = (points - lo) / safe
    inside = (t >= 0.0) & (t <= 1.0)
    if not inside.all():
        bad = int(np.argmin(inside.all(axis=1)))
        raise OutOfRangeError(
            f"point {bad} at {points[bad]} outside coding bbox [{lo}, {hi}]"
        )
    cells = np.clip((t * float(1 << q)).astype(np.int64), 0, (1 << q) - 1)
    return cells[:, 0], cells[:, 1], cells[:, 2]


def _dequantize(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray, bbox: np.ndarray, q: int) -> np.ndarray:
    lo = bbox[:3].astype(np.float64)
    hi = bbox[3:].astype(np.float64)
    cell = (hi - lo) / float(1 << q)
    idx = np.stack([ix, iy, iz], axis=1).astype(np.float64)
    return lo + (idx + 0.5) * cell


_Plan = tuple[int, int, int, "np.ndarray | None"]


def _delta_stream_plans(widths: np.ndarray, cs: list[int]) -> list[_Plan]:
    """Race the packing candidates allowed at each effort in cs.

    Effort c admits the global width plus the first min(c, 6) block sizes.
    Each candidate is sized once; returns one (delta_mode, global_width,
    block_log2, block_widths) per c.  Sizes are exact encoded byte counts,
    ties go to the earlier (simpler) candidate.
    """
    m = len(widths)
    global_w = int(widths.max(initial=0))
    best_bytes = (m * global_w + 7) // 8
    best = (0, global_w, 0, None)
    winners = [best]  # winners[k]: best plan among the first k block sizes
    for block in _BLOCK_SIZES[: min(max(cs, default=0), len(_BLOCK_SIZES))]:
        if m == 0:
            break
        starts = np.arange(0, m, block)
        bw = np.maximum.reduceat(widths, starts)
        lens = np.diff(np.append(starts, m))
        nbytes = (int(np.sum(lens * bw)) + 7) // 8 + len(bw)
        if nbytes < best_bytes:
            best_bytes = nbytes
            best = (1, 0, int(block).bit_length() - 1, bw)
        winners.append(best)
    return [winners[min(c, len(winners) - 1)] for c in cs]


@dataclass
class _Geometry:
    """Geometry stage output for one (scan, q): everything but the delta stream."""

    scan_id: int
    bbox: np.ndarray
    n: int
    n_valid: int
    first: bytes  # first sorted code, 72-bit big endian
    perm_mode: int
    perm_bytes: bytes
    widths: np.ndarray  # bit length of each delta
    bits: np.ndarray  # (n - 1, 72) delta bit matrix


def _geometry(scan: PointCloudScan, q: int, tight_bbox: bool) -> _Geometry:
    """Quantize, Morton code and sort a scan; build the perm stream and delta bits."""
    n = scan.n_points
    if n > MAX_POINTS:
        raise ConfigError(f"scan has {n} points, codec limit is {MAX_POINTS}")
    bbox = _coding_bbox(scan, tight_bbox)
    ix, iy, iz = _quantize(scan.points, bbox, q)
    codes = bitpack.morton_encode(ix, iy, iz, q)
    order = bitpack.sort_order(codes, q)
    sorted_codes = codes[order]
    deltas = bitpack.delta_limbs(sorted_codes)
    widths = bitpack.limb_bit_length(deltas) if len(deltas) else np.zeros(0, dtype=np.int64)

    identity = bool(np.array_equal(order, np.arange(n)))
    perm_bytes = b""
    perm_mode = 0
    if not identity:
        perm_mode = 1
        pw = int(n - 1).bit_length()
        perm_bytes = bitpack.pack_uint(order, pw)

    bits = bitpack.to_bit_matrix(deltas) if len(deltas) else np.zeros((0, 72), dtype=np.uint8)
    first = bitpack.limbs_to_int(sorted_codes[0]).to_bytes(9, "big")
    return _Geometry(
        scan.scan_id, bbox, n, scan.n_valid, first, perm_mode, perm_bytes, widths, bits
    )


def _pack(geom: _Geometry, plan: _Plan) -> bytes:
    """Packing stage: the payload for one delta stream plan."""
    delta_mode, global_w, block_log2, block_widths = plan
    bits = geom.bits
    if delta_mode == 0:
        width_bytes = b""
        delta_bytes = bitpack.pack_width(bits, global_w)
    else:
        width_bytes = block_widths.astype(np.uint8).tobytes()
        block = 1 << block_log2
        segs = []
        for k, w in enumerate(block_widths):
            if w == 0:
                continue
            rows = bits[k * block : (k + 1) * block, bitpack.VALUE_BITS - int(w) :]
            segs.append(rows.ravel())
        if segs:
            delta_bytes = np.packbits(np.concatenate(segs)).tobytes()
        else:
            delta_bytes = b""

    meta = _PAYLOAD_META.pack(
        geom.n, geom.n_valid, geom.first, geom.perm_mode, delta_mode, global_w, block_log2
    )
    return meta + geom.perm_bytes + width_bytes + delta_bytes


def encode_efforts(
    scan: PointCloudScan, q: int, cs: list[int], tight_bbox: bool = False
) -> list[EncodedUnit]:
    """Compress a scan at quantization q once per packing effort in cs.

    The geometry stage runs once; each effort only replans and repacks the
    delta stream, and efforts that choose the same plan share its payload.
    Unit k equals encode(scan, CompressionConfig(q, cs[k], tight_bbox)).
    """
    for c in cs:
        CompressionConfig(q, c, tight_bbox).validate()
    geom = _geometry(scan, q, tight_bbox)
    units = []
    payloads: dict[tuple[int, int, int], bytes] = {}
    for c, plan in zip(cs, _delta_stream_plans(geom.widths, cs)):
        key = plan[:3]
        if key not in payloads:
            payloads[key] = _pack(geom, plan)
        units.append(
            EncodedUnit(scan_id=geom.scan_id, q=q, c=c, bbox=geom.bbox, payload=payloads[key])
        )
    return units


def encode(scan: PointCloudScan, config: CompressionConfig) -> EncodedUnit:
    """Compress a scan; raises OutOfRangeError for points outside the bbox."""
    return encode_efforts(scan, config.q, [config.c], config.tight_bbox)[0]


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
    if perm_mode not in (0, 1) or delta_mode not in (0, 1) or global_w > bitpack.VALUE_BITS:
        raise DecodeError("unknown stream mode")
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
            bits = bitpack.unpack_width(payload[pos : pos + nbytes], global_w, m)
            pos += nbytes
        else:
            block = 1 << block_log2
            if block < 1 or block > MAX_POINTS:
                raise DecodeError(f"bad block size 2**{block_log2}")
            nblocks = (m + block - 1) // block
            bw = np.frombuffer(payload[pos : pos + nblocks], dtype=np.uint8).astype(np.int64)
            if len(bw) != nblocks:
                raise DecodeError("block width table truncated")
            if bw.max(initial=0) > bitpack.VALUE_BITS:
                raise DecodeError("block width exceeds 72 bits")
            pos += nblocks
            lens = np.minimum(np.arange(1, nblocks + 1) * block, m) - np.arange(nblocks) * block
            total_bits = int(np.sum(lens * bw))
            raw = np.frombuffer(payload[pos : pos + (total_bits + 7) // 8], dtype=np.uint8)
            if len(raw) * 8 < total_bits:
                raise ValueError(f"bit stream truncated: need {total_bits} bits")
            pos += (total_bits + 7) // 8
            flat = np.unpackbits(raw, count=total_bits) if total_bits else np.zeros(0, dtype=np.uint8)
            bits = np.zeros((m, bitpack.VALUE_BITS), dtype=np.uint8)
            splits = np.split(flat, np.cumsum(lens * bw)[:-1])
            for k, seg in enumerate(splits):
                if bw[k] == 0:
                    continue
                rows = seg.reshape(int(lens[k]), int(bw[k]))
                bits[k * block : k * block + len(rows), bitpack.VALUE_BITS - int(bw[k]) :] = rows
    except ValueError as exc:
        raise DecodeError(str(exc)) from None

    deltas = bitpack.from_bit_matrix(bits) if m else np.zeros((0, 3), dtype=np.int64)
    first = bitpack.int_to_limbs(int.from_bytes(first_raw, "big"))
    sorted_codes = bitpack.cumsum_limbs(first, deltas)
    if sorted_codes[:, 0].max(initial=0) > bitpack.LIMB_MASK:
        raise DecodeError("delta stream overflows 72-bit code range")
    if bitpack.limbs_to_int(sorted_codes[-1]) >= 1 << (3 * unit.q):
        raise DecodeError(f"decoded cell index exceeds {unit.q}-bit grid")

    ix, iy, iz = bitpack.morton_decode(sorted_codes, unit.q)
    pts_sorted = _dequantize(ix, iy, iz, bbox, unit.q)
    points = pts_sorted
    if order is not None:
        points = np.empty((n, 3), dtype=np.float64)
        points[order] = pts_sorted
    return PointCloudScan(points=points, scan_id=unit.scan_id, timestamp=0.0, n_valid=n_valid)


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
    per_point = np.linalg.norm(original.points - decoded.points, axis=1)
    valid = per_point[: original.n_valid]
    return ResidualStats(
        mean_ptp=float(valid.mean()),
        max_ptp=float(valid.max()),
        l2_norm=float(np.sqrt(np.sum(valid * valid))),
        per_point_l2=per_point,
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


def write_scan_file(path, scan: PointCloudScan, bbox: np.ndarray | None = None) -> None:
    bbox = np.asarray(DEFAULT_BBOX if bbox is None else bbox, dtype=np.float32)
    with open(path, "wb") as fh:
        fh.write(_SCAN_HEADER.pack(_SCAN_MAGIC, scan.n_points, *bbox))
        fh.write(scan.points.astype("<f4").tobytes())


def read_scan_file(path, scan_id: int = 0, timestamp: float = 0.0) -> tuple[PointCloudScan, np.ndarray]:
    with open(path, "rb") as fh:
        header = fh.read(_SCAN_HEADER.size)
        if len(header) < _SCAN_HEADER.size:
            raise DecodeError(f"scan file header truncated: {path}")
        magic, n, *bbox = _SCAN_HEADER.unpack(header)
        if magic != _SCAN_MAGIC:
            raise DecodeError(f"bad scan magic {magic!r} in {path}")
        raw = fh.read(n * 12)
    if len(raw) != n * 12:
        raise DecodeError(f"scan file body truncated: {path}")
    points = np.frombuffer(raw, dtype="<f4").reshape(n, 3).astype(np.float64)
    scan = PointCloudScan(points=points, scan_id=scan_id, timestamp=timestamp)
    return scan, np.array(bbox, dtype=np.float32)


def read_ascii_scan(path, scan_id: int = 0, timestamp: float = 0.0) -> PointCloudScan:
    """Import a fixture scan with one 'x y z' line per point."""
    points = np.loadtxt(path, dtype=np.float64, ndmin=2)
    if points.shape[1] != 3:
        raise ValueError(f"expected 3 columns in {path}, got {points.shape[1]}")
    return PointCloudScan(points=points, scan_id=scan_id, timestamp=timestamp)
