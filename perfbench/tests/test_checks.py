"""Each output check accepts a good output and rejects a broken one."""
import math

import numpy as np
import pytest

import checks
import stream_large
from common import Tally

EB = 1e-3


def _pair(shape=(8, 9, 10), dtype=np.float32, seed=0):
    rng = np.random.default_rng(seed)
    original = rng.standard_normal(shape).astype(dtype)
    noise = rng.uniform(-0.9 * EB, 0.9 * EB, shape)
    output = (original.astype(np.float64) + noise).astype(dtype)
    return original, output


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_within_bound_rejects_one_value_moved_by_two_eb(dtype):
    original, output = _pair(dtype=dtype)
    assert checks.within_bound(original, output, EB) is None
    output[3, 4, 5] = original[3, 4, 5] + 2 * EB
    assert "exceeds bound" in checks.within_bound(original, output, EB)


def test_within_bound_rejects_nan_and_wrong_geometry():
    original, output = _pair()
    bad = output.copy()
    bad[0, 0, 0] = np.nan
    assert checks.within_bound(original, bad, EB) is not None
    assert checks.within_bound(original, output[:-1], EB) is not None
    assert checks.within_bound(original, output.astype(np.float64), EB) is not None


def test_bit_identical_rejects_one_ulp():
    original, output = _pair()
    assert checks.bit_identical(output, output.copy()) is None
    other = output.copy()
    other[1, 2, 3] = np.nextafter(other[1, 2, 3], np.float32(np.inf))
    assert checks.bit_identical(output, other) == "reconstructions differ"


def test_psnr_is_computed_from_the_arrays():
    original = np.linspace(0.0, 2.0, 1000)
    output = original + 0.01
    # peak = value range 2.0, mse = 1e-4
    assert checks.psnr(original, output) == pytest.approx(20 * math.log10(2.0) + 40.0)
    assert checks.psnr(original, original) == math.inf
    moved = output.copy()
    moved[0] += 1.0
    assert checks.psnr(original, moved) < checks.psnr(original, output)


def test_prefix_plus_rest_must_equal_the_archived_blob():
    full = bytes(range(200))
    assert checks.prefix_equals(full[:50], full[50:], full) is None
    assert checks.prefix_equals(full[:50], full[51:], full) is not None
    flipped = bytearray(full[50:])
    flipped[7] ^= 1
    assert checks.prefix_equals(full[:50], bytes(flipped), full) is not None


def test_progressive_preview_is_held_to_its_advertised_level_bound():
    from repro.compressors import get_compressor
    from repro.compressors.progressive import decompress_prefix, level_table

    rng = np.random.default_rng(3)
    data = np.cumsum(np.cumsum(rng.standard_normal((12, 16, 16)), 0), 1).astype(np.float32)
    blob = get_compressor("sz3_progressive", EB).compress(data)
    coarse = level_table(blob)[0]
    preview = decompress_prefix(blob[:coarse["end"]])
    assert preview.eb > EB
    assert checks.within_bound(data, preview.array, preview.eb) is None
    moved = preview.array.copy()
    moved[5, 5, 5] = data[5, 5, 5] + 2 * preview.eb
    assert checks.within_bound(data, moved, preview.eb) is not None


def test_stream_slabs_are_checked_one_by_one():
    rows = 3 * stream_large.CHECK_ROWS
    original, output = _pair(shape=(rows, 4, 5))
    tally = Tally()
    stream_large.check_slabs(original, output, EB, tally)
    assert (tally.attempted, tally.failed) == (3, 0)
    output[stream_large.CHECK_ROWS + 1, 0, 0] += 2 * EB
    tally = Tally()
    stream_large.check_slabs(original, output, EB, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 1, 1)


def test_same_sizes_rejects_one_changed_size():
    assert checks.same_sizes([10, 20, None], [10, 20, 31]) is None  # failed op skipped
    assert "gave 21 bytes" in checks.same_sizes([10, 20, 30], [10, 21, 30])
    assert checks.same_sizes([10, 20], [10, 20, 30]) is not None
