"""Bit-level helpers for the point cloud codec.

Cell indices interleave into Morton codes of up to 3 * 24 = 72 bits, which
does not fit a single int64.  Codes are therefore carried as three 24-bit
limbs (most significant first) so that all arithmetic stays inside exact
int64 range.  Packing to and from byte streams goes through numpy's
unpackbits/packbits on a big-endian (n, 72) bit matrix.
"""
from __future__ import annotations

import numpy as np

LIMB_BITS = 24
LIMB_MASK = (1 << LIMB_BITS) - 1
VALUE_BITS = 3 * LIMB_BITS  # 72
VALUE_BYTES = VALUE_BITS // 8

_SPREAD_MASK_21 = 0x1FFFFF


def bit_length(values: np.ndarray) -> np.ndarray:
    """Per-element bit length of nonnegative integers below 2**53 (bit_length(0) == 0).

    Such values are exact in float64, whose binary exponent is the bit length.
    """
    return np.frexp(np.asarray(values, dtype=np.float64))[1].astype(np.int64)


def limb_bit_length(limbs: np.ndarray) -> np.ndarray:
    """Bit length of 72-bit values given as (n, 3) limbs, most significant first."""
    m2 = limbs[:, 0]
    low48 = limbs[:, 2] | (limbs[:, 1] << LIMB_BITS)
    return np.where(m2 > 0, 2 * LIMB_BITS + bit_length(m2), bit_length(low48))


def _spread3(v: np.ndarray) -> np.ndarray:
    '''spread the low 21 bits of v so bit j lands at position 3*j'''
    v = v.astype(np.uint64) & np.uint64(_SPREAD_MASK_21)
    v = (v | (v << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v << np.uint64(2))) & np.uint64(0x1249249249249249)
    return v


def _compact3(v: np.ndarray) -> np.ndarray:
    '''inverse of _spread3: collect bits at positions 0, 3, 6, ...'''
    v = v.astype(np.uint64) & np.uint64(0x1249249249249249)
    v = (v ^ (v >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    v = (v ^ (v >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    v = (v ^ (v >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    v = (v ^ (v >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    v = (v ^ (v >> np.uint64(32))) & np.uint64(0x1FFFFF)
    return v


def morton_encode(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray, q: int) -> np.ndarray:
    """Interleave three q-bit cell indices into (n, 3) limb rows.

    Bit j of axis a maps to Morton bit 3*j + a; x is the least significant
    axis.  q may be up to 24, so the top 3 bits of each axis (when q > 21)
    land in a high part above bit 62.
    """
    ix = ix.astype(np.uint64)
    iy = iy.astype(np.uint64)
    iz = iz.astype(np.uint64)
    lo = _spread3(ix) | (_spread3(iy) << np.uint64(1)) | (_spread3(iz) << np.uint64(2))
    if q > 21:
        hi = (
            _spread3(ix >> np.uint64(21))
            | (_spread3(iy >> np.uint64(21)) << np.uint64(1))
            | (_spread3(iz >> np.uint64(21)) << np.uint64(2))
        )
    else:
        hi = np.zeros_like(lo)
    # lo holds Morton bits 0..62, hi holds bits 63.. (at most 9 of them)
    limbs = np.empty((len(lo), 3), dtype=np.int64)
    limbs[:, 2] = (lo & np.uint64(LIMB_MASK)).astype(np.int64)
    limbs[:, 1] = ((lo >> np.uint64(24)) & np.uint64(LIMB_MASK)).astype(np.int64)
    limbs[:, 0] = ((lo >> np.uint64(48)) | (hi << np.uint64(15))).astype(np.int64)
    return limbs


def morton_decode(limbs: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of morton_encode; returns (ix, iy, iz) int64 arrays."""
    m2 = limbs[:, 0].astype(np.uint64)
    m1 = limbs[:, 1].astype(np.uint64)
    m0 = limbs[:, 2].astype(np.uint64)
    lo = m0 | (m1 << np.uint64(24)) | ((m2 & np.uint64(0x7FFF)) << np.uint64(48))
    hi = m2 >> np.uint64(15)
    out = []
    for axis in range(3):
        low = _compact3(lo >> np.uint64(axis))
        if q > 21:
            high = _compact3(hi >> np.uint64(axis))
            low = low | (high << np.uint64(21))
        out.append(low.astype(np.int64))
    return out[0], out[1], out[2]


def sort_order(limbs: np.ndarray, q: int) -> np.ndarray:
    """Stable ascending order of the 72-bit codes (ties keep input order)."""
    m2 = limbs[:, 0].astype(np.uint64)
    m1 = limbs[:, 1].astype(np.uint64)
    m0 = limbs[:, 2].astype(np.uint64)
    if 3 * q <= 63:
        key = m0 | (m1 << np.uint64(24)) | (m2 << np.uint64(48))
        return np.argsort(key, kind="stable")
    # Wider codes: stable-sort the top 64 bits, then rank them densely and
    # re-sort (rank, low 8 bits).  That key fits 32 bits and is already in
    # order outside runs of equal tops, so the second sort is nearly free;
    # both sorts are stable, so equal codes keep input order.
    top = (m2 << np.uint64(40)) | (m1 << np.uint64(16)) | (m0 >> np.uint64(8))
    order = np.argsort(top, kind="stable")
    ranked = top[order]
    rank = np.zeros(len(ranked), dtype=np.int64)
    np.cumsum(ranked[1:] != ranked[:-1], out=rank[1:])
    low8 = limbs[order, 2].astype(np.int64) & 0xFF
    return order[np.argsort((rank << 8) | low8, kind="stable")]


def delta_limbs(limbs: np.ndarray) -> np.ndarray:
    """Differences of consecutive sorted codes as limbs; input must be sorted."""
    n = len(limbs)
    out = np.empty((max(n - 1, 0), 3), dtype=np.int64)
    if n <= 1:
        return out
    d0 = limbs[1:, 2] - limbs[:-1, 2]
    borrow = (d0 < 0).astype(np.int64)
    d0 += borrow << LIMB_BITS
    d1 = limbs[1:, 1] - limbs[:-1, 1] - borrow
    borrow = (d1 < 0).astype(np.int64)
    d1 += borrow << LIMB_BITS
    d2 = limbs[1:, 0] - limbs[:-1, 0] - borrow
    out[:, 0] = d2
    out[:, 1] = d1
    out[:, 2] = d0
    return out


def cumsum_limbs(first: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Rebuild sorted codes from the first code and the deltas.

    Each 24-bit limb column is summed on its own, so every running sum stays
    below 2**48 for up to 2**24 codes and int64 cumsum is exact; carries
    then ripple from the low limb up.  The top limb is left unmasked so the
    caller can detect a sum past 72 bits.
    """
    limbs = np.empty((len(deltas) + 1, 3), dtype=np.int64)
    limbs[0] = first
    limbs[1:] = deltas
    sums = np.cumsum(limbs, axis=0)
    carry = 0
    for k in (2, 1):
        col = sums[:, k] + carry
        carry = col >> LIMB_BITS
        limbs[:, k] = col & LIMB_MASK
    limbs[:, 0] = sums[:, 0] + carry
    return limbs


def limbs_to_int(row: np.ndarray) -> int:
    return (int(row[0]) << 48) | (int(row[1]) << 24) | int(row[2])


def int_to_limbs(value: int) -> np.ndarray:
    return np.array(
        [(value >> 48) & LIMB_MASK, (value >> 24) & LIMB_MASK, value & LIMB_MASK],
        dtype=np.int64,
    )


def to_bit_matrix(limbs: np.ndarray) -> np.ndarray:
    """(n, 3) limbs -> (n, 72) uint8 bit matrix, most significant bit first."""
    n = len(limbs)
    # big-endian layout: top 8 bits first, then the low 64 as one word
    low64 = (
        limbs[:, 2].astype(np.uint64)
        | (limbs[:, 1].astype(np.uint64) << np.uint64(24))
        | ((limbs[:, 0].astype(np.uint64) & np.uint64(0xFFFF)) << np.uint64(48))
    )
    by = np.empty((n, VALUE_BYTES), dtype=np.uint8)
    by[:, 0] = limbs[:, 0] >> 16
    by[:, 1:] = low64.astype(">u8").view(np.uint8).reshape(n, 8)
    # rows are whole bytes, so the flat (much faster) form is row for row
    return np.unpackbits(by.reshape(-1)).reshape(n, VALUE_BITS)


def from_bit_matrix(bits: np.ndarray) -> np.ndarray:
    """(n, 72) bit matrix -> (n, 3) limbs."""
    n = len(bits)
    by = np.packbits(bits.reshape(-1)).reshape(n, VALUE_BYTES)
    low64 = np.ascontiguousarray(by[:, 1:]).view(">u8").reshape(n).astype(np.uint64)
    limbs = np.empty((n, 3), dtype=np.int64)
    limbs[:, 2] = (low64 & np.uint64(LIMB_MASK)).astype(np.int64)
    limbs[:, 1] = ((low64 >> np.uint64(24)) & np.uint64(LIMB_MASK)).astype(np.int64)
    limbs[:, 0] = ((low64 >> np.uint64(48)) | (by[:, 0].astype(np.uint64) << np.uint64(16))).astype(np.int64)
    return limbs


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
    sel = bits[:, VALUE_BITS - width :]
    return np.packbits(sel.ravel()).tobytes()


def unpack_width(data: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of pack_width; returns a (count, 72) bit matrix.

    Raises ValueError when `data` is too short for count * width bits.
    """
    need = count * width
    raw = np.frombuffer(data, dtype=np.uint8)
    if len(raw) * 8 < need:
        raise ValueError(f"bit stream truncated: need {need} bits, have {len(raw) * 8}")
    out = np.zeros((count, VALUE_BITS), dtype=np.uint8)
    if need == 0:
        return out
    u = np.unpackbits(raw, count=need).reshape(count, width)
    out[:, VALUE_BITS - width :] = u
    return out
