"""Bit-level helpers for the point cloud codec.

Cell indices interleave into Morton codes of 3q bits, at most 72.  A code
is carried as uint64 words: `lo` holds code bits 0-63, and `hi` holds bits
64-71.  `hi` exists only for q >= WIDE_Q; below that every code fits `lo`
and `hi` is None.  Delta streams travel through numpy's packbits/unpackbits
on a big-endian bit matrix with one row per value: 64 columns when `hi` is
None, VALUE_BITS when it is not.
"""
from __future__ import annotations

import numpy as np

VALUE_BITS = 72
WIDE_Q = 22  # the first q whose codes reach past bit 63

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
# (shift, mask) steps that move bit j of a 21-bit value to bit 3j
_SPREAD = (
    (32, 0x1F00000000FFFF),
    (16, 0x1F0000FF0000FF),
    (8, 0x100F00F00F00F00F),
    (4, 0x10C30C30C30C30C3),
    (2, 0x1249249249249249),
)
# the same moves undone, in reverse order
_COMPACT = (
    (2, 0x10C30C30C30C30C3),
    (4, 0x100F00F00F00F00F),
    (8, 0x1F0000FF0000FF),
    (16, 0x1F00000000FFFF),
    (32, 0x1FFFFF),
)
# bits 0-2 of a value spread to bits 0, 3, 6: the top axis bits at q >= WIDE_Q
_SPREAD_TOP = np.array([(v & 1) | (v & 2) << 2 | (v & 4) << 4 for v in range(8)], dtype=_U64)


def row_bits(q: int) -> int:
    """Columns of the bit matrix at q: 64 while every code fits `lo`."""
    return 64 if q < WIDE_Q else VALUE_BITS


def code_int(hi: np.ndarray | None, lo: np.ndarray, k: int) -> int:
    """Code k as a Python int."""
    return (0 if hi is None else int(hi[k]) << 64) | int(lo[k])


def bit_length(values: np.ndarray) -> np.ndarray:
    """Per-element bit length of uint64 values (bit_length(0) == 0).

    float64 holds values below 2**53 exactly, and its binary exponent is
    the bit length.  Larger values may round up to the next power of two,
    so their length is taken from the high 32 bits instead.
    """
    values = np.asarray(values, dtype=_U64)
    lengths = np.frexp(values.astype(np.float64))[1]
    big = np.flatnonzero(lengths > 53)
    if len(big):
        lengths[big] = 32 + np.frexp((values[big] >> _U64(32)).astype(np.float64))[1]
    return lengths


def code_bit_length(hi: np.ndarray | None, lo: np.ndarray) -> np.ndarray:
    """Bit length of each code given as words."""
    if hi is None:
        return bit_length(lo)
    return np.where(hi > 0, 64 + bit_length(hi), bit_length(lo))


def _spread3(v: np.ndarray) -> np.ndarray:
    """Spread each value below 2**21, in place, so bit j lands at bit 3j."""
    for shift, mask in _SPREAD:
        v |= v << _U64(shift)
        v &= _U64(mask)
    return v


def _compact3(v: np.ndarray) -> np.ndarray:
    """Inverse of _spread3, in place: collect bits 0, 3, 6, ... into the low 21."""
    v &= _U64(0x1249249249249249)
    for shift, mask in _COMPACT:
        v ^= v >> _U64(shift)
        v &= _U64(mask)
    return v


def morton_encode(cells: np.ndarray, q: int) -> tuple[np.ndarray | None, np.ndarray]:
    """Interleave a (3, n) uint64 stack of q-bit cell indices into words (hi, lo).

    Bit j of axis a maps to code bit 3j + a; x is the least significant
    axis.  Bits 21-23 of each axis (q >= WIDE_Q) land at code bits 63-71.
    """
    spread = _spread3(cells & _U64(0x1FFFFF))
    lo = spread[0] | (spread[1] << _U64(1)) | (spread[2] << _U64(2))
    if q < WIDE_Q:
        return None, lo
    top = _SPREAD_TOP[cells >> _U64(21)]
    top = top[0] | (top[1] << _U64(1)) | (top[2] << _U64(2))  # code bits 63-71
    lo |= top << _U64(63)
    return top >> _U64(1), lo


def morton_decode(hi: np.ndarray | None, lo: np.ndarray) -> np.ndarray:
    """Inverse of morton_encode: the (3, n) uint64 stack of cell indices."""
    cells = np.stack([lo, lo >> _U64(1), lo >> _U64(2)])
    _compact3(cells)
    if hi is not None:
        top = (lo >> _U64(63)) | (hi << _U64(1))  # code bits 63-71
        top = _compact3(np.stack([top, top >> _U64(1), top >> _U64(2)]))
        cells |= top << _U64(21)
    return cells


def sort_order(hi: np.ndarray | None, lo: np.ndarray) -> np.ndarray:
    """Stable ascending order of the codes (ties keep input order)."""
    if hi is None:
        return np.argsort(lo, kind="stable")
    # Wide codes: stable-sort the top 64 bits, then rank them densely and
    # re-sort (rank, low 8 bits).  That key fits 32 bits and is already in
    # order outside runs of equal tops, so the second sort is nearly free;
    # both sorts are stable, so equal codes keep input order.
    top = (hi << _U64(56)) | (lo >> _U64(8))
    order = np.argsort(top, kind="stable")
    ranked = top[order]
    rank = np.zeros(len(ranked), dtype=_U64)
    np.cumsum(ranked[1:] != ranked[:-1], out=rank[1:])
    low8 = lo[order] & _U64(0xFF)
    return order[np.argsort((rank << _U64(8)) | low8, kind="stable")]


def deltas(hi: np.ndarray | None, lo: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """Differences of consecutive sorted codes as words; input must be sorted."""
    dlo = np.diff(lo)  # wraps modulo 2**64, and hi takes the borrow
    if hi is None:
        return None, dlo
    return np.diff(hi) - (lo[1:] < lo[:-1]), dlo


def cumsum_words(
    first: int, dhi: np.ndarray | None, dlo: np.ndarray, q: int
) -> tuple[np.ndarray | None, np.ndarray]:
    """Rebuild sorted codes from the first code and the deltas.

    Raises ValueError when a code leaves the 3q-bit grid.  Below WIDE_Q the
    sum runs in uint64: it wraps only past 2**64, which shows as a decrease,
    and a nondecreasing run stays in the grid when its last code does.
    From WIDE_Q up, the sum carries exactly through 32-bit halves: each
    half-column sum stays below 2**56 for up to 2**24 codes.
    """
    if first >> (3 * q):
        raise ValueError(f"first code exceeds the {q}-bit grid")
    lo = np.empty(len(dlo) + 1, dtype=_U64)
    lo[0] = first & 0xFFFFFFFFFFFFFFFF
    lo[1:] = dlo
    if dhi is None:
        np.cumsum(lo, out=lo)
        if lo[-1] >> _U64(3 * q) or (lo[1:] < lo[:-1]).any():
            raise ValueError(f"delta stream leaves the {q}-bit grid")
        return None, lo
    hi = np.empty_like(lo)
    hi[0] = first >> 64
    hi[1:] = dhi
    low = np.cumsum(lo & _LOW32)
    mid = np.cumsum(lo >> _U64(32)) + (low >> _U64(32))
    np.cumsum(hi, out=hi)
    hi += mid >> _U64(32)
    if hi[-1] >> _U64(3 * q - 64):
        raise ValueError(f"delta stream leaves the {q}-bit grid")
    np.bitwise_or(mid << _U64(32), low & _LOW32, out=lo)
    return hi, lo


def to_bit_matrix(hi: np.ndarray | None, lo: np.ndarray) -> np.ndarray:
    """Words -> (n, 64) or, with hi, (n, 72) uint8 bit matrix, most significant bit first."""
    n = len(lo)
    lo_bytes = lo.astype(">u8").view(np.uint8)
    if hi is None:
        # rows are whole bytes, so the flat (much faster) form is row for row
        return np.unpackbits(lo_bytes).reshape(n, 64)
    by = np.empty((n, VALUE_BITS // 8), dtype=np.uint8)
    by[:, 0] = hi
    by[:, 1:] = lo_bytes.reshape(n, 8)
    return np.unpackbits(by.reshape(-1)).reshape(n, VALUE_BITS)


def from_bit_matrix(bits: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """Inverse of to_bit_matrix: an (n, 64) or (n, 72) bit matrix -> words."""
    n, cols = bits.shape
    by = np.packbits(bits.reshape(-1)).reshape(n, cols // 8)
    if cols == 64:
        return None, by.view(">u8").reshape(n).astype(_U64)
    lo = np.ascontiguousarray(by[:, 1:]).view(">u8").reshape(n).astype(_U64)
    return by[:, 0].astype(_U64), lo


def pack_uint(values: np.ndarray, width: int) -> bytes:
    """Pack 32-bit-or-less unsigned values at a fixed width, byte padded."""
    if width == 0 or len(values) == 0:
        return b""
    if width > 32:
        raise ValueError(f"pack_uint supports widths up to 32, got {width}")
    by = values.astype(">u4").view(np.uint8).reshape(len(values), 4)
    bits = np.unpackbits(by.reshape(-1)).reshape(len(values), 32)[:, 32 - width :]
    return np.packbits(bits.ravel()).tobytes()


def unpack_uint(data: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of pack_uint; returns int64 values."""
    if width == 0 or count == 0:
        return np.zeros(count, dtype=np.int64)
    need = count * width
    raw = np.frombuffer(data, dtype=np.uint8)
    if len(raw) * 8 < need:
        raise ValueError(f"bit stream truncated: need {need} bits, have {len(raw) * 8}")
    bits = np.zeros((count, 32), dtype=np.uint8)
    bits[:, 32 - width :] = np.unpackbits(raw, count=need).reshape(count, width)
    return np.packbits(bits.reshape(-1)).view(">u4").astype(np.int64)


def pack_width(bits: np.ndarray, width: int) -> bytes:
    """Pack the low `width` bits of every row; result is byte padded."""
    if width == 0 or len(bits) == 0:
        return b""
    sel = bits[:, bits.shape[1] - width :]
    return np.packbits(sel.ravel()).tobytes()


def unpack_width(data: bytes, width: int, count: int, cols: int) -> np.ndarray:
    """Inverse of pack_width; returns a (count, cols) bit matrix.

    Raises ValueError when `data` is too short for count * width bits.
    """
    need = count * width
    raw = np.frombuffer(data, dtype=np.uint8)
    if len(raw) * 8 < need:
        raise ValueError(f"bit stream truncated: need {need} bits, have {len(raw) * 8}")
    out = np.zeros((count, cols), dtype=np.uint8)
    if need == 0:
        return out
    out[:, cols - width :] = np.unpackbits(raw, count=need).reshape(count, width)
    return out
