import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanstream import bitpack


def coords(q, n):
    rng = np.random.default_rng(q * 1000 + n)
    return (
        rng.integers(0, 1 << q, size=n, dtype=np.uint64),
        rng.integers(0, 1 << q, size=n, dtype=np.uint64),
        rng.integers(0, 1 << q, size=n, dtype=np.uint64),
    )


@given(q=st.integers(1, 24), n=st.integers(1, 300))
def test_morton_roundtrip(q, n):
    ix, iy, iz = coords(q, n)
    limbs = bitpack.morton_encode(ix, iy, iz, q)
    jx, jy, jz = bitpack.morton_decode(limbs, q)
    assert np.array_equal(ix, jx)
    assert np.array_equal(iy, jy)
    assert np.array_equal(iz, jz)


def test_morton_is_injective_at_full_width():
    # 2^8 cube corner cells must map to distinct codes
    side = np.arange(8, dtype=np.uint64)
    ix, iy, iz = np.meshgrid(side, side, side, indexing="ij")
    limbs = bitpack.morton_encode(ix.ravel(), iy.ravel(), iz.ravel(), 24)
    keys = {tuple(row) for row in limbs}
    assert len(keys) == 512


@given(q=st.integers(1, 24), n=st.integers(2, 200))
def test_sort_order_sorts_codes(q, n):
    ix, iy, iz = coords(q, n)
    limbs = bitpack.morton_encode(ix, iy, iz, q)
    order = bitpack.sort_order(limbs, q)
    values = [bitpack.limbs_to_int(row) for row in limbs[order]]
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
    limbs = np.array([bitpack.int_to_limbs(v) for v in values], dtype=np.int64)
    expected = sorted(range(n), key=lambda i: values[i])
    assert bitpack.sort_order(limbs, q).tolist() == expected


@given(q=st.integers(1, 24), n=st.integers(2, 200))
def test_delta_cumsum_roundtrip(q, n):
    ix, iy, iz = coords(q, n)
    limbs = bitpack.morton_encode(ix, iy, iz, q)
    limbs = limbs[bitpack.sort_order(limbs, q)]
    deltas = bitpack.delta_limbs(limbs)
    back = bitpack.cumsum_limbs(limbs[0], deltas)
    assert np.array_equal(limbs, back)


def test_cumsum_exact_for_many_wide_deltas():
    # 2**16 deltas near 2**72 / n would overflow a 48-bit-part int64 cumsum
    n = 1 << 16
    step = ((1 << 72) - 1) // n
    deltas = np.tile(bitpack.int_to_limbs(step), (n - 1, 1))
    codes = bitpack.cumsum_limbs(bitpack.int_to_limbs(5), deltas)
    for k in (0, 1, n // 2, n - 1):
        assert bitpack.limbs_to_int(codes[k]) == 5 + k * step


def test_limb_int_roundtrip():
    for value in (0, 1, bitpack.LIMB_MASK, 1 << 40, (1 << 72) - 1):
        row = bitpack.int_to_limbs(value)
        assert bitpack.limbs_to_int(row) == value


@given(n=st.integers(1, 128))
def test_bit_matrix_roundtrip(n):
    rng = np.random.default_rng(n)
    limbs = rng.integers(0, 1 << 24, size=(n, 3), dtype=np.uint64)
    bits = bitpack.to_bit_matrix(limbs)
    assert bits.shape == (n, bitpack.VALUE_BITS)
    assert np.array_equal(bitpack.from_bit_matrix(bits), limbs)


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
    limbs = rng.integers(0, 1 << 24, size=(n, 3), dtype=np.uint64)
    bits = bitpack.to_bit_matrix(limbs)
    bits[:, : bitpack.VALUE_BITS - width] = 0  # only `width` low bits survive
    packed = bitpack.pack_width(bits, width)
    assert len(packed) == (n * width + 7) // 8
    assert np.array_equal(bitpack.unpack_width(packed, width, n), bits)


def test_bit_length():
    values = np.array([0, 1, 2, 3, 255, 256], dtype=np.uint64)
    assert bitpack.bit_length(values).tolist() == [0, 1, 2, 2, 8, 9]


def test_limb_bit_length_spans_limbs():
    limbs = np.zeros((3, 3), dtype=np.uint64)
    limbs[0, 2] = 1  # low limb only
    limbs[1, 1] = 1  # needs one middle-limb bit -> 25
    limbs[2, 0] = 0x800000  # top bit of the high limb -> 72
    assert bitpack.limb_bit_length(limbs).tolist() == [1, 25, 72]


def test_pack_uint_rejects_overwide_width():
    with pytest.raises(ValueError):
        bitpack.pack_uint(np.array([4], dtype=np.uint64), 33)


def test_unpack_truncation_raises():
    with pytest.raises(ValueError):
        bitpack.unpack_uint(b"\x00", 16, 4)
    with pytest.raises(ValueError):
        bitpack.unpack_width(b"\x00", 16, 4)
