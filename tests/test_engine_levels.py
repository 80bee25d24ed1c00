"""Engine headers declare their level count; decode walks trust it only
when it is the shape's own.  A re-headered blob — a count other than
``num_levels(shape)``, or a stop level past it — raises a typed error
before any pass runs, instead of walking up to the declared count.
tests/numpy_path re-runs this module on the numpy loops.
"""
import numpy as np
import pytest

from repro.compressors import HPEZ, SZ3, get_compressor, interp_engine
from repro.compressors.base import Blob
from repro.compressors.progressive import decode_to_level
from repro.core import QPConfig
from repro.errors import CorruptBlobError
from repro.utils.levels import num_levels

SHAPE = (16, 16, 16)
REAL = num_levels(SHAPE)
BAD_COUNTS = [40000, REAL + 1, REAL - 1, 0]


def _field(shape=SHAPE, seed=0):
    rng = np.random.default_rng(seed)
    coords = np.meshgrid(*(np.linspace(0, 3, s) for s in shape), indexing="ij")
    return (sum(np.sin(c) for c in coords)
            + 0.05 * rng.standard_normal(shape)).astype(np.float32)


def _reheader(blob, edit):
    b = Blob.from_bytes(blob)
    edit(b.header)
    return b.to_bytes()


@pytest.fixture
def passes_walked(monkeypatch):
    """Every level a walk asks the pass schedule for (clear it after
    compressing: the encode walks the schedule too)."""
    levels = []
    real = interp_engine._passes_for_level

    def spy(shape, level, cfg):
        levels.append(level)
        return real(shape, level, cfg)

    monkeypatch.setattr(interp_engine, "_passes_for_level", spy)
    return levels


def _set_engine_levels(n):
    def edit(header):
        header["engine"]["levels"] = n
    return edit


@pytest.mark.parametrize("levels", BAD_COUNTS)
def test_decompress_refuses_a_foreign_level_count(passes_walked, levels):
    comp = SZ3(1e-2, predictor="interp", qp=QPConfig())
    blob = comp.compress(_field())
    bad = _reheader(blob, _set_engine_levels(levels))
    passes_walked.clear()
    with pytest.raises(CorruptBlobError):
        comp.decompress(bad)
    assert passes_walked == []


@pytest.mark.parametrize("levels", BAD_COUNTS)
def test_stacked_decode_refuses_a_foreign_level_count(passes_walked, levels):
    comp = SZ3(1e-2, predictor="interp", qp=QPConfig())
    data = _field((16, 16, 16))
    slabs = [comp.compress(np.ascontiguousarray(data[a:a + 8])) for a in (0, 8)]
    # both slabs re-headered alike, so they still share one stack
    bad = [_reheader(b, _set_engine_levels(levels)) for b in slabs]
    passes_walked.clear()
    with pytest.raises(CorruptBlobError):
        comp.decompress_many(bad)
    assert passes_walked == []
    # the pristine pair still decodes as one stack
    outs = comp.decompress_many(slabs)
    for out, blob in zip(outs, slabs):
        np.testing.assert_array_equal(out, comp.decompress(blob))


@pytest.mark.parametrize("levels", [40000, 4, 2, 0])
def test_hpez_block_mode_refuses_a_foreign_level_count(levels):
    # each 8^3 block has 3 levels
    comp = HPEZ(1e-2, alpha=1.5, beta=2.0, block_side=8)
    blob = comp.compress(_field())

    def edit(header):
        header["block_metas"][1]["levels"] = levels

    with pytest.raises(CorruptBlobError):
        comp.decompress(_reheader(blob, edit))


def test_decode_to_level_refuses_a_level_past_the_shape():
    comp = get_compressor("sz3_progressive", 1e-2)
    blob = comp.compress(_field())

    def edit(header):
        header["progressive"]["levels"][0]["level"] = 40000

    with pytest.raises(CorruptBlobError):
        decode_to_level(_reheader(blob, edit), 40000)


def test_resolution_stop_level_is_bounded_by_the_shape():
    comp = get_compressor("mgard", 1e-2)
    blob = comp.compress(_field())
    assert comp.decompress_resolution(blob, REAL).shape == (1, 1, 1)
    with pytest.raises(ValueError) as info:
        comp.decompress_resolution(blob, REAL + 1)
    assert not isinstance(info.value, CorruptBlobError)


def _plain_value_error(fn):
    """``fn()`` raises ValueError, and not the corrupt-blob kind."""
    with pytest.raises(ValueError) as info:
        fn()
    assert not isinstance(info.value, CorruptBlobError), info.value


def test_decompress_resolution_reports_a_bad_level_as_a_bad_argument(
    passes_walked,
):
    # a caller's level outside 0..levels is refused before any pass runs;
    # a re-headered level count is damage whatever level is asked for
    comp = get_compressor("mgard", 1e-2)
    blob = comp.compress(_field())
    passes_walked.clear()
    for level in (REAL + 1, REAL + 5, -1):
        _plain_value_error(lambda: comp.decompress_resolution(blob, level))
    assert passes_walked == []
    for levels in BAD_COUNTS:
        bad = _reheader(blob, _set_engine_levels(levels))
        for level in (1, REAL + 1):
            with pytest.raises(CorruptBlobError):
                comp.decompress_resolution(bad, level)


def test_decode_to_level_reports_a_missing_level_as_a_bad_argument():
    comp = get_compressor("sz3_progressive", 1e-2)
    blob = comp.compress(_field())
    for level in (0, REAL + 1, -1):
        _plain_value_error(lambda: decode_to_level(blob, level))

    # a level table that no longer lists the blob's sections is damage
    def edit(header):
        del header["progressive"]["levels"][0]

    with pytest.raises(CorruptBlobError):
        decode_to_level(_reheader(blob, edit), REAL)
