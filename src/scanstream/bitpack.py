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
_AXIS_BITS = 12  # the index bits one table lookup spreads
_AXIS_VALUES = np.arange(1 << _AXIS_BITS, dtype=_U64)
# _SPREAD_AXIS[a][v]: axis a's code bits from 12 bits v of a cell index, bit j at 3j + a
_SPREAD_AXIS = [sum((_AXIS_VALUES >> _U64(j) & _U64(1)) << _U64(3 * j + a)
                    for j in range(_AXIS_BITS)) for a in range(3)]
# (shift, mask) steps that collect bits 0, 3, 6, ... of a value into its low 21
_COMPACT = (
    (2, 0x10C30C30C30C30C3),
    (4, 0x100F00F00F00F00F),
    (8, 0x1F0000FF0000FF),
    (16, 0x1F00000000FFFF),
    (32, 0x1FFFFF),
)

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
    floats = values.astype(np.float64)
    lengths = np.frexp(floats, out=(floats, None))[1]
    big = np.flatnonzero(lengths > 53)
    if len(big):
        lengths[big] = 32 + np.frexp((values[big] >> _U64(32)).astype(np.float64))[1]
    return lengths


def code_bit_length(hi: np.ndarray | None, lo: np.ndarray) -> np.ndarray:
    """Bit length of each code given as words."""
    lengths = bit_length(lo)
    if hi is not None:
        wide = np.flatnonzero(hi)
        lengths[wide] = 64 + bit_length(hi[wide])
    return lengths


def max_code_bit_length(hi: np.ndarray | None, lo: np.ndarray) -> int:
    """code_bit_length(hi, lo).max(initial=0), from the largest code alone."""
    top = 0 if hi is None else int(hi.max(initial=0))
    return 64 + top.bit_length() if top else int(lo.max(initial=0)).bit_length()


def _interleave(out: np.ndarray, index: np.ndarray, part: np.ndarray) -> np.ndarray:
    """Into out, the code bits of a (3, n) stack of 12-bit indices, one per axis."""
    np.take(_SPREAD_AXIS[0], index[0].view(np.intp), out=out, mode="clip")
    for a in (1, 2):
        out |= np.take(_SPREAD_AXIS[a], index[a].view(np.intp), out=part, mode="clip")
    return out


def _compact3(v: np.ndarray) -> np.ndarray:
    """Collect bits 0, 3, 6, ... of each value, in place, into its low 21."""
    v &= _U64(0x1249249249249249)
    for shift, mask in _COMPACT:
        v ^= v >> _U64(shift)
        v &= _U64(mask)
    return v


def morton_encode(cells: np.ndarray, q: int, out=None) -> tuple[np.ndarray | None, np.ndarray]:
    """Interleave a (3, n) uint64 stack of q-bit cell indices into words (hi, lo).

    Bit j of axis a maps to code bit 3j + a; x is the least significant
    axis.  Bits 0-11 of each axis are looked up in _SPREAD_AXIS as code
    bits 0-35, and bits 12-23 (q > 12) as the 36 bits from code bit 36 on,
    whose low 28 fill lo and whose top 8 are hi (q >= WIDE_Q).  `out` is
    two uint64 arrays shaped like cells to work in; the words are rows of
    the second.
    """
    index, words = (np.empty_like(cells), np.empty_like(cells)) if out is None else out
    lo, hi, part = words
    low = cells if q <= _AXIS_BITS else np.bitwise_and(cells, _AXIS_VALUES[-1], out=index)
    _interleave(lo, low, part)
    if q <= _AXIS_BITS:
        return None, lo
    _interleave(hi, np.right_shift(cells, _U64(_AXIS_BITS), out=index), part)
    lo |= np.left_shift(hi, _U64(3 * _AXIS_BITS), out=part)  # wraps past bit 63
    if q < WIDE_Q:
        return None, lo
    hi >>= _U64(64 - 3 * _AXIS_BITS)
    return hi, lo


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
    return np.lexsort((lo, hi))  # hi first; lexsort is stable


def sorted_codes(hi: np.ndarray | None, lo: np.ndarray,
                 out=None) -> tuple[np.ndarray | None, np.ndarray]:
    """The codes that sort_order puts in order, without that order.

    Wide codes sort as keys: the top 64 bits with the code's index in their
    lowest bits.  Where two keys tie above the index, sort_order decides.
    `out` is a (3, n) uint64 array to work in; the words are rows of it."""
    n = len(lo)
    slo, shi, key = np.empty((3, n), dtype=_U64) if out is None else out
    if hi is None:
        np.copyto(slo, lo)
        slo.sort()
        return None, slo
    bits = _U64(int(n - 1).bit_length())
    np.left_shift(hi, _U64(56), out=key)
    key |= np.right_shift(lo, _U64(8), out=slo)
    key >>= bits
    key <<= bits
    key |= np.arange(n, dtype=_U64)
    key.sort()
    if (np.right_shift(key, bits, out=shi)[1:] == shi[:-1]).any():
        order = sort_order(hi, lo)
        return hi[order], lo[order]
    np.right_shift(key, _U64(56), out=shi)
    key &= (_U64(1) << bits) - _U64(1)
    np.take(lo, key.view(np.intp), out=slo, mode="clip")
    return shi, slo


def right_shift(hi: np.ndarray, lo: np.ndarray, k: int, out=None) -> tuple[np.ndarray | None, np.ndarray]:
    """72-bit codes shifted right by k < 64 bits, as words in the first two
    rows of `out` (hi None once they fit lo, k >= 8); at k = 0, the input."""
    if k == 0:
        return hi, lo
    olo, ohi = (np.empty((2, len(lo)), dtype=_U64) if out is None else out)[:2]
    np.right_shift(lo, _U64(k), out=olo)
    olo |= np.left_shift(hi, _U64(64 - k), out=ohi)
    return None if k >= VALUE_BITS - 64 else np.right_shift(hi, _U64(k), out=ohi), olo


def deltas(hi: np.ndarray | None, lo: np.ndarray, out=None) -> tuple[np.ndarray | None, np.ndarray]:
    """Differences of consecutive sorted codes as words; input must be sorted.
    `out` is a (2, n) uint64 array or taller, whose rows' heads hold them."""
    m = len(lo) - 1
    # wraps modulo 2**64, and hi takes the borrow
    dlo = np.subtract(lo[1:], lo[:-1], out=None if out is None else out[0, :m])
    if hi is None:
        return None, dlo
    dhi = np.less(lo[1:], lo[:-1], out=np.empty(m, _U64) if out is None else out[1, :m])
    np.subtract(hi[1:], dhi, out=dhi)  # hi[1:] - borrow - hi[:-1]
    dhi -= hi[:-1]
    return dhi, dlo


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
    if width > 32:
        raise ValueError(f"pack_uint supports widths up to 32, got {width}")
    by = values.astype(">u4").view(np.uint8)
    return pack_width(np.unpackbits(by).reshape(len(values), 32), width)


def unpack_uint(data: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of pack_uint; returns int64 values."""
    bits = np.zeros((count, 32), dtype=np.uint8)
    unpack_width(data, width, bits)
    return np.packbits(bits.reshape(-1)).view(">u4").astype(np.int64)


def pack_width(bits: np.ndarray, width: int) -> bytes:
    """Pack the low `width` bits of every row; result is byte padded."""
    if width == 0 or len(bits) == 0:
        return b""
    sel = bits[:, bits.shape[1] - width :]
    return np.packbits(sel.ravel()).tobytes()


def unpack_width(data: bytes, width: int, out: np.ndarray) -> None:
    """Inverse of pack_width: fill the low `width` columns of the zeroed bit
    matrix `out`, one row per value.

    Raises ValueError when `data` holds fewer than len(out) * width bits.
    """
    count, cols = out.shape
    need = count * width
    raw = np.frombuffer(data, dtype=np.uint8)
    if len(raw) * 8 < need:
        raise ValueError(f"bit stream truncated: need {need} bits, have {len(raw) * 8}")
    if need:
        out[:, cols - width :] = np.unpackbits(raw, count=need).reshape(count, width)
