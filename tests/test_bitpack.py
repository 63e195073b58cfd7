import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanstream import bitpack

MASK64 = (1 << 64) - 1


def coords(q, n):
    rng = np.random.default_rng(q * 1000 + n)
    return rng.integers(0, 1 << q, size=(3, n), dtype=np.uint64)


def to_words(values, q):
    """Python ints -> (hi, lo) words, hi only from WIDE_Q up."""
    lo = np.array([v & MASK64 for v in values], dtype=np.uint64)
    if q < bitpack.WIDE_Q:
        assert all(v <= MASK64 for v in values)
        return None, lo
    return np.array([v >> 64 for v in values], dtype=np.uint64), lo


def to_ints(hi, lo):
    if hi is None:
        return [int(v) for v in lo]
    return [(int(h) << 64) | int(v) for h, v in zip(hi, lo)]


def morton_reference(x, y, z, q):
    code = 0
    for j in range(q):
        for axis, v in enumerate((x, y, z)):
            code |= ((v >> j) & 1) << (3 * j + axis)
    return code


@given(q=st.integers(1, 24), n=st.integers(1, 300))
def test_morton_roundtrip(q, n):
    cells = coords(q, n)
    hi, lo = bitpack.morton_encode(cells, q)
    assert (hi is None) == (q < bitpack.WIDE_Q)
    assert np.array_equal(bitpack.morton_decode(hi, lo), cells)


def test_morton_is_injective_at_full_width():
    # the 2^9 corner cells of the q=24 grid, low and high, map to distinct codes
    side = np.array([0, 1, (1 << 24) - 2, (1 << 24) - 1], dtype=np.uint64)
    side = np.concatenate([side, np.arange(2, 6, dtype=np.uint64)])
    cells = np.stack([a.ravel() for a in np.meshgrid(side, side, side, indexing="ij")])
    hi, lo = bitpack.morton_encode(cells, 24)
    codes = to_ints(hi, lo)
    assert len(set(codes)) == 512
    assert max(codes) == (1 << 72) - 1


@pytest.mark.parametrize("q", [22, 23, 24])
def test_morton_codes_straddle_bits_63_and_64(q):
    # bit 21 of x, y, z lands at code bits 63, 64, 65: the lo/hi boundary
    b21 = 1 << 21
    top = (1 << q) - 1
    rows = [
        (b21, 0, 0),
        (0, b21, 0),
        (0, 0, b21),
        (b21 - 1, b21 - 1, b21 - 1),
        (b21, b21, b21),
        (top, 0, top),
    ]
    cells = np.array(rows, dtype=np.uint64).T
    hi, lo = bitpack.morton_encode(cells, q)
    assert to_ints(hi, lo) == [morton_reference(x, y, z, q) for x, y, z in rows]
    assert to_ints(hi, lo)[:2] == [1 << 63, 1 << 64]
    assert np.array_equal(bitpack.morton_decode(hi, lo), cells)


@given(q=st.integers(1, 24), n=st.integers(2, 200))
def test_sort_order_sorts_codes(q, n):
    hi, lo = bitpack.morton_encode(coords(q, n), q)
    order = bitpack.sort_order(hi, lo)
    values = to_ints(None if hi is None else hi[order], lo[order])
    assert values == sorted(values)


@given(q=st.integers(1, 24), n=st.integers(1, 1000), cells=st.integers(1, 40))
def test_sort_order_is_stable_with_ties(q, n, cells):
    # few distinct codes, so most of them tie; they differ only in the top
    # two and the low eight bits, so wide codes also tie on their top 64 bits
    rng = np.random.default_rng(q * 1000 + n)
    highs = rng.integers(0, 4, size=cells)
    lows = rng.integers(0, 256, size=cells)
    pool = [((int(h) << (3 * q - 2)) | int(lo)) % (1 << (3 * q)) for h, lo in zip(highs, lows)]
    values = [pool[i] for i in rng.integers(0, cells, size=n)]
    expected = sorted(range(n), key=lambda i: values[i])
    assert bitpack.sort_order(*to_words(values, q)).tolist() == expected


@given(q=st.integers(1, 24), n=st.integers(2, 200))
def test_delta_cumsum_roundtrip(q, n):
    hi, lo = bitpack.morton_encode(coords(q, n), q)
    order = bitpack.sort_order(hi, lo)
    hi, lo = (None if hi is None else hi[order]), lo[order]
    dhi, dlo = bitpack.deltas(hi, lo)
    codes = to_ints(hi, lo)
    assert to_ints(dhi, dlo) == [b - a for a, b in zip(codes, codes[1:])]
    back_hi, back_lo = bitpack.cumsum_words(codes[0], dhi, dlo, q)
    assert to_ints(back_hi, back_lo) == codes


@pytest.mark.parametrize("q", [22, 23, 24])
def test_deltas_borrow_and_carry_across_bit_64(q):
    codes = [MASK64 - 1, MASK64, 1 << 64, (1 << 64) + 5, (3 << 64) + 2, (1 << (3 * q)) - 1]
    dhi, dlo = bitpack.deltas(*to_words(codes, q))
    assert to_ints(dhi, dlo) == [b - a for a, b in zip(codes, codes[1:])]
    assert to_ints(*bitpack.cumsum_words(codes[0], dhi, dlo, q)) == codes


def test_cumsum_exact_for_many_wide_deltas():
    # 2**16 deltas near 2**72 / n carry out of both 32-bit halves of lo
    # at almost every step
    n = 1 << 16
    step = ((1 << 72) - 1) // n
    dhi, dlo = to_words([step] * (n - 1), 24)
    codes = to_ints(*bitpack.cumsum_words(5, dhi, dlo, 24))
    for k in (0, 1, n // 2, n - 1):
        assert codes[k] == 5 + k * step


def test_cumsum_rejects_codes_past_the_grid():
    with pytest.raises(ValueError):
        bitpack.cumsum_words(1 << 30, None, np.zeros(3, dtype=np.uint64), 10)
    with pytest.raises(ValueError):
        bitpack.cumsum_words(0, None, np.array([1 << 29, 1 << 29], dtype=np.uint64), 10)
    dhi, dlo = to_words([1 << 71, 1 << 71], 24)
    with pytest.raises(ValueError):
        bitpack.cumsum_words(0, dhi, dlo, 24)


def test_cumsum_rejects_a_wrap_back_into_the_grid():
    # below WIDE_Q the sum runs in uint64: 2**62 + 2 * (2**63 - 1) wraps to
    # 2**62 - 2, inside the 63-bit grid, and only the decrease gives it away
    dlo = np.array([(1 << 63) - 1, (1 << 63) - 1], dtype=np.uint64)
    with pytest.raises(ValueError):
        bitpack.cumsum_words(1 << 62, None, dlo, 21)


@given(n=st.integers(1, 128), wide=st.booleans())
def test_bit_matrix_roundtrip(n, wide):
    rng = np.random.default_rng(n)
    lo = rng.integers(0, MASK64, size=n, dtype=np.uint64, endpoint=True)
    hi = rng.integers(0, 256, size=n, dtype=np.uint64) if wide else None
    bits = bitpack.to_bit_matrix(hi, lo)
    assert bits.shape == (n, bitpack.VALUE_BITS if wide else 64)
    assert to_ints(*bitpack.from_bit_matrix(bits)) == to_ints(hi, lo)
    assert "".join(map(str, bits[0])) == format(to_ints(hi, lo)[0], f"0{bits.shape[1]}b")


@given(width=st.integers(1, 32), n=st.integers(0, 400))
def test_pack_uint_roundtrip(width, n):
    rng = np.random.default_rng(width * 7 + n)
    values = rng.integers(0, 1 << width, size=n, dtype=np.uint64)
    data = bitpack.pack_uint(values, width)
    assert len(data) == (n * width + 7) // 8
    assert np.array_equal(bitpack.unpack_uint(data, width, n), values)


@given(width=st.integers(1, 72), n=st.integers(1, 200))
def test_pack_width_roundtrip(width, n):
    rng = np.random.default_rng(width + n)
    values = [int.from_bytes(rng.bytes(9), "big") >> (72 - width) for _ in range(n)]
    bits = bitpack.to_bit_matrix(*to_words(values, 24))
    packed = bitpack.pack_width(bits, width)
    assert len(packed) == (n * width + 7) // 8
    assert np.array_equal(bitpack.unpack_width(packed, width, n, bitpack.VALUE_BITS), bits)
    if width <= 64:
        narrow = bitpack.to_bit_matrix(*to_words(values, 21))
        assert bitpack.pack_width(narrow, width) == packed
        assert np.array_equal(bitpack.unpack_width(packed, width, n, 64), narrow)


def test_bit_length():
    values = np.array([0, 1, 2, 3, 255, 256], dtype=np.uint64)
    assert bitpack.bit_length(values).tolist() == [0, 1, 2, 2, 8, 9]


def test_bit_length_exact_over_64_bits():
    # float64 rounds 2**53 + 1 down and 2**64 - 1 up to the next power of two
    values = [(1 << 53) - 1, 1 << 53, (1 << 53) + 1, (1 << 63) - 1, 1 << 63, MASK64]
    lengths = bitpack.bit_length(np.array(values, dtype=np.uint64)).tolist()
    assert lengths == [v.bit_length() for v in values] == [53, 54, 54, 63, 64, 64]


def test_code_bit_length_spans_words():
    values = [1, (1 << 63) + 1, MASK64, 1 << 64, (1 << 72) - 1]
    assert bitpack.code_bit_length(*to_words(values, 24)).tolist() == [1, 64, 64, 65, 72]
    assert bitpack.code_bit_length(*to_words(values[:3], 21)).tolist() == [1, 64, 64]


@pytest.mark.parametrize("q", [21, 24])
def test_code_int_joins_words(q):
    values = [0, 1, 1 << 40, (1 << 63) - 1]
    if q >= bitpack.WIDE_Q:
        values += [MASK64, 1 << 64, (1 << 72) - 1]
    hi, lo = to_words(values, q)
    assert [bitpack.code_int(hi, lo, k) for k in range(len(values))] == values


def test_pack_uint_rejects_overwide_width():
    with pytest.raises(ValueError):
        bitpack.pack_uint(np.array([4], dtype=np.uint64), 33)


def test_unpack_truncation_raises():
    with pytest.raises(ValueError):
        bitpack.unpack_uint(b"\x00", 16, 4)
    with pytest.raises(ValueError):
        bitpack.unpack_width(b"\x00", 16, 4, 64)
