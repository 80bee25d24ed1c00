"""Tests for the compressor registry and Table I traits."""
import numpy as np
import pytest

from repro.compressors import (
    COMPRESSORS,
    INTERP_COMPRESSORS,
    available_compressors,
    decompress_any,
    get_compressor,
    supports_qp,
    traits_table,
)
from repro.core import QPConfig


def test_all_names_registered():
    # the listings are pinned: a registry table edit must update them here
    assert COMPRESSORS == (
        "mgard", "sz3", "qoz", "hpez", "zfp", "tthresh", "sperr",
        "sz3_progressive",
    )
    assert available_compressors() == COMPRESSORS
    assert INTERP_COMPRESSORS == (
        "mgard", "sz3", "qoz", "hpez", "sz3_progressive"
    )
    assert tuple(n for n in COMPRESSORS if supports_qp(n)) == (
        "mgard", "sz3", "qoz", "hpez", "sperr", "sz3_progressive"
    )


def test_get_compressor_unknown():
    with pytest.raises(KeyError):
        get_compressor("szip", 1e-3)


def test_supports_qp_unknown_name():
    with pytest.raises(KeyError):
        supports_qp("nonexistent")


@pytest.mark.parametrize("name", COMPRESSORS)
def test_every_compressor_constructs_and_roundtrips(name, field_2d):
    kwargs = {"qp": QPConfig()} if name in INTERP_COMPRESSORS else {}
    comp = get_compressor(name, 1e-3, **kwargs)
    blob = comp.compress(field_2d)
    out = decompress_any(blob)
    assert np.abs(out.astype(np.float64) - field_2d.astype(np.float64)).max() <= 1e-3


def test_traits_table_matches_paper_table1():
    rows = {r["compressor"]: r for r in traits_table()}
    assert set(rows) == {"MGARD", "SZ3", "QOZ", "HPEZ"}
    # Table I claims, row by row
    assert rows["MGARD"]["speed"] == "low"
    assert rows["SZ3"]["speed"] == "high"
    assert rows["HPEZ"]["speed"] == "medium"
    assert rows["HPEZ"]["ratio"] == "high"
    assert rows["MGARD"]["resolution_reduction"] is True
    assert all(
        rows[n]["resolution_reduction"] is False for n in ("SZ3", "QOZ", "HPEZ")
    )
    assert rows["MGARD"]["qoi"] is True and rows["SZ3"]["qoi"] is True
    assert rows["QOZ"]["quality_oriented"] is True


def test_decompress_any_requires_valid_blob():
    with pytest.raises(ValueError):
        decompress_any(b"not a blob at all")
