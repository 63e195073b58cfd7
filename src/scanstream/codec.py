"""Lossy LiDAR point cloud codec with Draco-style rate knobs.

A scan is quantized to q bits per axis inside an axis-aligned bounding box,
the cell indices are interleaved into Morton codes, sorted spatially, and
delta coded.  The original point order is restored through a stored
permutation, so residuals stay per-point comparable.  The packing effort
knob c in [0, 9] enables progressively finer block-adaptive widths for the
delta stream; candidates are always raced against each other and the
smallest encoding wins, so payload size is nonincreasing in c.

Encoding follows Draco's order: quantize and sort, then entropy code.
Quantization, Morton codes, sort and deltas depend only on (scan, q); c
only picks how the deltas are packed: one global width, or one width per
block, each the bit length of the largest delta it packs.  So every c at
one q decodes to the same points: the cell centers that `reconstruct`
computes without encoding.  Both modes write and read the delta stream
block by block, the global mode as one block of all n - 1 deltas.

A simulated run and the calibration sweep need only payload sizes and the
error at those cell centers, so `measure` and `sweep` pack nothing.  One
kernel serves both: from a scan's cells at q and their codes, in capture
order and sorted as values (not by a sort order), it sizes each c's
payload from the deltas, and takes each point's error from the cells as
axis rows, not a rebuilt scan.  `measure` quantizes, codes and sorts at its
config's q.  `sweep` does that once, at Q_MAX, then shifts: a cell index at
q is the one at Q_MAX shifted right by Q_MAX - q, its code by 3 (Q_MAX - q).

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

Blocks hold 2**block_log2 deltas, 256 to 8192 (block_log2 8 to 13), the
last block the rest.  Each block's stream is whole bytes but the last
one's, so the blocks join into one byte-padded stream.
"""
from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bitpack

Q_MIN, Q_MAX = 8, 24
C_MIN, C_MAX = 0, 9
MAX_POINTS = 1 << 24

# default short-range operating volume, meters per axis
DEFAULT_BBOX = np.array([-50.0, -50.0, -50.0, 50.0, 50.0, 50.0])

# block sizes unlocked as the effort knob grows; saturates past c == 6
_BLOCK_SIZES = (8192, 4096, 2048, 1024, 512, 256)

# Wire bytes of a unit header: magic[4] | u32 scan_id | u8 q | u8 c | f32 bbox[6] |
# u32 payload_len.  The simulation carries units as byte counts and only charges this size.
UNIT_HEADER_BYTES = 38
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

    def __post_init__(self) -> None:
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


_DEFAULT_F32_BBOX = _f32_bbox(DEFAULT_BBOX[:3], DEFAULT_BBOX[3:])
_DEFAULT_F32_BBOX.setflags(write=False)  # every default-box unit shares it


def _coding_bbox(scan: PointCloudScan, tight_bbox: bool) -> np.ndarray:
    if tight_bbox:
        return _f32_bbox(scan.points.min(axis=0), scan.points.max(axis=0))
    return _DEFAULT_F32_BBOX


class Workspace:
    """The arrays an n-point scan passes through in `ScanGenerator.generate`
    and `measure`, allocated once by their owner, who passes them to both.
    `sweep` works each q of a scan in one of its own.

    generate writes a scan's points into `points`, over the last scan's, as
    axis rows: the (n, 3) view of a (3, n) array, whose rows hold the range
    grid and noise until x, y and z are made from them.  They are allocated
    when first used, so the sweep, which reads its scan's points where they
    are, never allocates them.  measure's stages reuse what earlier ones are
    done with: `rows` holds the scaled coordinates; as `index`, the same
    memory then holds the Morton code's table indices and the sorted codes,
    and at last, as `rows`, the cell centers and errors.  `words` holds the
    code words, then their deltas.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows = np.empty((3, n))
        self.index = self.rows.view(np.uint64)
        self.cells, self.words = np.empty((2, 3, n), dtype=np.uint64)

    @cached_property
    def points(self) -> np.ndarray:
        return np.empty((3, self.n)).T

    def sized(self, n: int) -> Workspace:
        if n != self.n:
            raise ValueError(f"workspace sized for {self.n} points, not {n}")
        return self


def _box_constants(bbox: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A box's low corner, extent and safe extent (1 on a flat axis), float64 (3, 1) columns."""
    if bbox is _DEFAULT_F32_BBOX:
        return _DEFAULT_BOX  # computed once, at import
    lo, hi = bbox.astype(np.float64).reshape(2, 3, 1)
    return lo, hi - lo, np.where(hi > lo, hi - lo, 1.0)


_DEFAULT_BOX = _box_constants(_DEFAULT_F32_BBOX.copy())  # a copy is not the default itself


def _quantize(points: np.ndarray, bbox: np.ndarray, q: int, out=None) -> np.ndarray:
    """Cell indices of (n, 3) points as a (3, n) uint64 stack; `out` holds
    a (3, n) float64 array to scale them in and a (3, n) uint64 one for them.

    Points are read as axis rows, contiguous when they are generated.  An
    offset from the low corner is divided once by the cell size extent /
    2**q: a power-of-two scaling is exact, so the cells are those of the
    offset over the extent, times 2**q, and the box is t in [0, 2**q].
    """
    lo, _, safe = _box_constants(bbox)
    top = float(1 << q)
    n = len(points)
    t, cells = (np.empty((3, n)), np.empty((3, n), dtype=np.uint64)) if out is None else out
    np.subtract(points.T, lo, out=t)
    t /= safe / top
    if not (t.min() >= 0.0 and t.max() <= top):
        bad = int(np.argmin(((t >= 0.0) & (t <= top)).all(axis=0)))
        raise OutOfRangeError(f"point {bad} at {points[bad]} outside coding bbox"
                              f" [{bbox[:3].astype(np.float64)}, {bbox[3:].astype(np.float64)}]")
    # t = 2**q, the box's max face, falls in the last cell: a clamp at 2**q - 1
    # before the cast truncates gives the cells a clamp after it would
    np.minimum(t, top - 1.0, out=t)
    cells.view(np.int64)[...] = t  # numpy converts to and from int64 about twice as fast
    return cells


def _cell_centers(cells: np.ndarray, bbox: np.ndarray, q: int, out=None) -> np.ndarray:
    """Cell centers of a (3, n) stack of cell indices, as (3, n) axis rows,
    in the float64 array `out` if given."""
    lo, extent, _ = _box_constants(bbox)
    t = np.add(cells.view(np.int64), 0.5, out=out)
    t *= extent / float(1 << q)
    t += lo
    return t


def _dequantize(cells: np.ndarray, bbox: np.ndarray, q: int) -> np.ndarray:
    """Cell centers of a (3, n) stack of cell indices, as (n, 3) points."""
    return np.ascontiguousarray(_cell_centers(cells, bbox, q).T)


_Plan = tuple[int, int, int, "np.ndarray | None", int]


def _delta_stream_plans(dhi: np.ndarray | None, dlo: np.ndarray, cs: list[int]) -> list[_Plan]:
    """Race the packing candidates allowed at each effort in cs for the deltas (dhi, dlo).

    Effort c admits the global width plus the first min(c, 6) block sizes.
    Bit length is monotone, so a stream's width is the bit length of its
    largest delta.  Block sizes are powers of two and blocks start at 0, so
    each block is whole blocks of the smallest size cs admits (the last one
    may be cut short): one reduceat sizes those, and a block's width is the
    largest of theirs.  Each candidate is sized once; returns one
    (delta_mode, global_width, block_log2, block_widths, nbytes) per c,
    where nbytes is the exact size of the block width table plus the delta
    stream.  Ties go to the earlier (simpler) candidate.
    """
    m = len(dlo)
    width = bitpack.max_code_bit_length(dhi, dlo)
    best = (0, width, 0, None, (m * width + 7) // 8)
    winners = [best]  # winners[k]: best plan among the first k block sizes
    blocks = _BLOCK_SIZES[: min(max(cs, default=0), len(_BLOCK_SIZES))] if m else ()
    if blocks:
        starts = np.arange(0, m, blocks[-1])
        # a block's largest hi word is 0 only when every delta in it fits its lo word
        small = bitpack.code_bit_length(None if dhi is None else np.maximum.reduceat(dhi, starts),
                                        np.maximum.reduceat(dlo, starts))
    for block in blocks:
        bw = np.maximum.reduceat(small, np.arange(0, len(small), block // blocks[-1]))
        # every block but the last is full
        bits = block * int(bw[:-1].sum()) + (m - block * (len(bw) - 1)) * int(bw[-1])
        nbytes = (bits + 7) // 8 + len(bw)
        if nbytes < best[4]:
            best = (1, 0, int(block).bit_length() - 1, bw, nbytes)
        winners.append(best)
    return [winners[min(c, len(winners) - 1)] for c in cs]


def _check_scan_size(scan: PointCloudScan) -> None:
    if scan.n_points > MAX_POINTS:
        raise ConfigError(f"scan has {scan.n_points} points, codec limit is {MAX_POINTS}")


def _payload_nbytes(n: int, permuted: bool, plan: _Plan) -> int:
    """Exact payload size of an n-point scan, with or without a perm stream, under one plan."""
    perm = (n * int(n - 1).bit_length() + 7) // 8 if permuted else 0
    return _PAYLOAD_META.size + perm + plan[4]


def encode(scan: PointCloudScan, config: CompressionConfig) -> EncodedUnit:
    """Compress a scan; raises OutOfRangeError for points outside the bbox."""
    _check_scan_size(scan)
    n = scan.n_points
    bbox = _coding_bbox(scan, config.tight_bbox)
    hi, lo = bitpack.morton_encode(_quantize(scan.points, bbox, config.q), config.q)
    order = bitpack.sort_order(hi, lo)
    permuted = not np.array_equal(order, np.arange(n))
    perm_bytes = b""
    if permuted:
        perm_bytes = bitpack.pack_uint(order, int(n - 1).bit_length())
        lo = lo[order]
        hi = None if hi is None else hi[order]
    # each stage's words are dropped once the next stage holds them, so
    # encode's peak is the deltas' bit matrix
    del order
    first = bitpack.code_int(hi, lo, 0).to_bytes(9, "big")
    dhi, dlo = bitpack.deltas(hi, lo)
    del hi, lo
    (plan,) = _delta_stream_plans(dhi, dlo, [config.c])
    delta_mode, global_w, block_log2, block_widths, _ = plan
    bits = bitpack.to_bit_matrix(dhi, dlo)
    del dhi, dlo
    block, widths = len(bits), [global_w]  # the global stream is one block
    if delta_mode == 1:
        block, widths = 1 << block_log2, block_widths
    # every block but the last holds a multiple of 8 bits, so the blocks'
    # byte-padded streams join into one padded stream
    delta_bytes = b"".join(bitpack.pack_width(bits[k * block : (k + 1) * block], int(w))
                           for k, w in enumerate(widths))
    width_bytes = b"" if delta_mode == 0 else block_widths.astype(np.uint8).tobytes()
    meta = _PAYLOAD_META.pack(
        n, scan.n_valid, first, int(permuted), delta_mode, global_w, block_log2
    )
    payload = meta + perm_bytes + width_bytes + delta_bytes
    # `measure` and `sweep` size payloads without packing; they must never drift apart
    sized = _payload_nbytes(n, permuted, plan)
    if len(payload) != sized:
        raise RuntimeError(f"packed {len(payload)} payload bytes, the plan sized {sized}")
    return EncodedUnit(scan_id=scan.scan_id, q=config.q, c=config.c, bbox=bbox, payload=payload)


def _sizes_and_errors(scan: PointCloudScan, bbox: np.ndarray, q: int, cells: np.ndarray, codes: tuple,
                      ordered: tuple, cs: list[int], work: Workspace) -> tuple[list[int], np.ndarray]:
    """Each c of cs's exact payload size for the scan at q, and each valid
    point's error at its cell's center, from its (3, n) cells at q and their
    codes (hi, lo) in capture order and sorted, worked out in `work`.

    encode stores a perm stream unless its stable sort order is the identity:
    unless the codes are sorted in capture order.  The deltas may overwrite
    the codes; the errors are a view into `work`, valid until its next use.
    """
    (hi, lo), (shi, slo) = codes, ordered
    permuted = not (np.array_equal(slo, lo) and (hi is None or np.array_equal(shi, hi)))
    dhi, dlo = bitpack.deltas(shi, slo, out=work.words)
    n = scan.n_points
    sizes = [_payload_nbytes(n, permuted, plan) for plan in _delta_stream_plans(dhi, dlo, cs)]
    d = _cell_centers(cells, bbox, q, out=work.rows)
    np.subtract(scan.points.T, d, out=d)
    return sizes, _point_errors(d, scan.n_valid)


def measure(scan: PointCloudScan, config: CompressionConfig,
            work: Workspace | None = None) -> tuple[int, float]:
    """(len(encode(scan, config).payload), residual(scan, reconstruct(scan,
    config.q, config.tight_bbox)).mean_ptp), both exact, from one quantization.

    Rejects what encode rejects.  It works in `work`, a Workspace sized for
    the scan that the caller owns, or in a new one, and leaves the scan's
    points as they were.
    """
    _check_scan_size(scan)
    work = Workspace(scan.n_points) if work is None else work.sized(scan.n_points)
    bbox, q = _coding_bbox(scan, config.tight_bbox), config.q
    cells = _quantize(scan.points, bbox, q, (work.rows, work.cells))
    codes = bitpack.morton_encode(cells, q, out=(work.index, work.words))
    ordered = bitpack.sorted_codes(*codes, out=work.index)
    (nbytes,), errors = _sizes_and_errors(scan, bbox, q, cells, codes, ordered, [config.c], work)
    return nbytes, float(errors.mean())


def sweep(
    scan: PointCloudScan, qs: list[int], cs: list[int], tight_bbox: bool = False
) -> Iterator[tuple[int, list[int], ResidualStats]]:
    """Payload sizes and reconstruction error of a scan at every (q, c), packing nothing.

    Yields (q, sizes, stats) for each q in qs, one q at a time: sizes[k]
    is len(encode(scan, CompressionConfig(q, cs[k], tight_bbox)).payload)
    and stats is residual(scan, reconstruct(scan, q, tight_bbox)).  Rejects
    a bad q or c, an oversized scan and out-of-box points as encode does,
    once iterated.

    The scan is quantized, Morton coded and sorted once, at Q_MAX.  t * 2**q
    is a power-of-two scaling of t * 2**Q_MAX, so the floor and the clamp at
    t = 1 both commute with the right shift by Q_MAX - q: the cells at q are
    the shifted cells at Q_MAX.  Bit j of axis a is code bit 3j + a, so their
    codes are the Q_MAX codes shifted by 3 (Q_MAX - q), and a shift never
    reverses an order, so the same holds sorted.  measure's kernel takes them.
    """
    for q, c in [(q, C_MIN) for q in qs] + [(Q_MIN, c) for c in cs]:  # each q once, each c once
        CompressionConfig(q, c, tight_bbox)
    _check_scan_size(scan)
    work = Workspace(scan.n_points)
    bbox = _coding_bbox(scan, tight_bbox)
    top = np.empty((8, scan.n_points), dtype=np.uint64)  # Q_MAX cells, codes, sorted codes
    cells = _quantize(scan.points, bbox, Q_MAX, (work.rows, top[:3]))
    codes = bitpack.morton_encode(cells, Q_MAX, out=(work.index, top[3:6]))
    ordered = bitpack.sorted_codes(*codes, out=top[5:])
    for q in qs:
        k = Q_MAX - q
        sizes, errors = _sizes_and_errors(
            scan, bbox, q, np.right_shift(cells, np.uint64(k), out=work.cells),
            bitpack.right_shift(*codes, 3 * k, out=work.words),
            bitpack.right_shift(*ordered, 3 * k, out=work.index), cs, work)
        yield q, sizes, _stats(errors)


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
    pos = _PAYLOAD_META.size

    order = None  # identity
    if perm_mode == 1:
        pw = int(n - 1).bit_length()
        nbytes = (n * pw + 7) // 8
        if len(payload) < pos + nbytes:
            raise DecodeError("perm stream truncated")
        order = bitpack.unpack_uint(payload[pos : pos + nbytes], pw, n)
        pos += nbytes
        seen = np.zeros(n, dtype=bool)
        if order.max(initial=0) >= n:
            raise DecodeError("perm stream is not a permutation")
        seen[order] = True
        if not seen.all():
            raise DecodeError("perm stream is not a permutation")

    m = n - 1
    block, widths = m, np.array([global_w])  # the global stream is one block
    if delta_mode == 1:
        block = 1 << block_log2
        if block not in _BLOCK_SIZES:
            raise DecodeError(f"block size 2**{block_log2} is not one the encoder writes")
        nblocks = (m + block - 1) // block
        widths = np.frombuffer(payload[pos : pos + nblocks], dtype=np.uint8)
        if len(widths) != nblocks:
            raise DecodeError("block width table truncated")
        if widths.max(initial=0) > 3 * q:
            raise DecodeError(f"block width exceeds the {q}-bit grid")
        pos += nblocks
    lens = np.minimum(block, m - block * np.arange(len(widths)))
    sizes = ((lens * widths + 7) // 8).tolist()
    if len(payload) < pos + sum(sizes):
        raise DecodeError(f"delta stream truncated: need {sum(sizes)} bytes")
    bits = np.zeros((m, bitpack.row_bits(q)), dtype=np.uint8)
    for k, (w, size) in enumerate(zip(widths.tolist(), sizes)):
        bitpack.unpack_width(payload[pos : pos + size], w, bits[k * block : (k + 1) * block])
        pos += size
    try:
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
    CompressionConfig(q, C_MIN, tight_bbox)  # rejects a q off the grid
    bbox = _coding_bbox(scan, tight_bbox)
    points = _dequantize(_quantize(scan.points, bbox, q), bbox, q)
    return PointCloudScan(points=points, scan_id=scan.scan_id, n_valid=scan.n_valid)


def _unsort(sorted_values: np.ndarray, order: np.ndarray) -> np.ndarray:
    out = np.empty_like(sorted_values)
    out[order] = sorted_values
    return out


def _point_errors(d: np.ndarray, n_valid: int) -> np.ndarray:
    """Norm of each valid column of a (3, n) difference, squaring d in place;
    x, y and z are summed in that order, as np.linalg.norm does."""
    d *= d
    per_point = np.add(d[0], d[1], out=d[0])
    per_point += d[2]
    np.sqrt(per_point, out=per_point)
    return per_point[:n_valid]


def _stats(valid: np.ndarray) -> ResidualStats:
    return ResidualStats(
        mean_ptp=float(valid.mean()),
        max_ptp=float(valid.max()),
        l2_norm=float(np.sqrt(np.sum(valid * valid))),
    )


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
    return _stats(_point_errors(np.ascontiguousarray((original.points - decoded.points).T),
                                original.n_valid))
