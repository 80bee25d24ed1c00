"""Every engine decode entry point reads its sections exactly: a literal
section holding one extra value, or an index stream one symbol longer or
one symbol shorter than the pass schedule reads, raises
:class:`~repro.errors.CorruptBlobError` — from ``decompress`` for each
interpolation layout, and from ``decompress_many`` over equal SZ3 slabs.
Each tampered section is re-encoded validly, so only the count is wrong;
tests/numpy_path re-runs this module on the numpy loops.
"""
import numpy as np
import pytest

from repro.codecs import compress as lossless_compress
from repro.codecs import decompress as lossless_decompress
from repro.compressors import get_compressor
from repro.compressors.base import Blob, decode_index_stream, encode_index_stream
from repro.core import QPConfig
from repro.errors import CorruptBlobError


def _field(shape):
    rng = np.random.default_rng(11)
    coords = np.meshgrid(*(np.linspace(0, 3, s) for s in shape), indexing="ij")
    return (sum(np.sin(c) for c in coords)
            + 0.1 * rng.standard_normal(shape)).astype(np.float32)


def _one_literal_more(b, suffix):
    key = "literals" + suffix
    lits = np.frombuffer(
        lossless_decompress(b.sections[key]), dtype=b.header["dtype"]
    )
    extra = np.zeros(1, dtype=lits.dtype)
    b.sections[key] = lossless_compress(np.concatenate([lits, extra]).tobytes())


def _one_symbol_more(b, suffix):
    key = "indices" + suffix
    b.sections[key] = encode_index_stream(
        np.append(decode_index_stream(b.sections[key]), 0)
    )


def _one_symbol_fewer(b, suffix):
    key = "indices" + suffix
    b.sections[key] = encode_index_stream(decode_index_stream(b.sections[key])[:-1])


TAMPERS = [_one_literal_more, _one_symbol_more, _one_symbol_fewer]
TAMPER_IDS = ["literal+1", "symbol+1", "symbol-1"]

#: (compressor, constructor arguments, suffix of the tampered sections):
#: the progressive layout's sections are per level, the finest last
LAYOUTS = {
    "sz3-interp": ("sz3", {"predictor": "interp"}, ""),
    "qoz": ("qoz", {}, ""),
    "hpez-global": ("hpez", {}, ""),
    "hpez-blocks": ("hpez", {"block_side": 8}, ""),
    "mgard": ("mgard", {}, ""),
    "sz3_progressive": ("sz3_progressive", {}, ":1"),
}


def _tampered(blob, tamper, suffix):
    b = Blob.from_bytes(blob)
    tamper(b, suffix)
    return b.to_bytes()


@pytest.mark.parametrize("tamper", TAMPERS, ids=TAMPER_IDS)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_decompress_refuses_a_miscounted_section(layout, tamper):
    name, kwargs, suffix = LAYOUTS[layout]
    comp = get_compressor(name, 1e-2, qp=QPConfig(), **kwargs)
    blob = comp.compress(_field((12, 11, 10)))
    # the re-encoded sections alone decode as before
    np.testing.assert_array_equal(
        comp.decompress(_tampered(blob, lambda b, s: None, suffix)),
        comp.decompress(blob),
    )
    with pytest.raises(CorruptBlobError):
        comp.decompress(_tampered(blob, tamper, suffix))


@pytest.mark.parametrize("tamper", TAMPERS, ids=TAMPER_IDS)
def test_decompress_many_refuses_a_miscounted_stack_member(tamper):
    data = _field((15, 11, 10))
    comp = get_compressor("sz3", 1e-2, predictor="interp", qp=QPConfig())
    blobs = [comp.compress(np.ascontiguousarray(data[i:i + 5]))
             for i in (0, 5, 10)]
    blobs[1] = _tampered(blobs[1], tamper, "")
    with pytest.raises(CorruptBlobError):
        comp.decompress_many(blobs)
