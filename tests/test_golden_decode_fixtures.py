"""Golden decode fixtures: committed byte streams with pinned digests.

Every decode-path rewrite (on-demand window gathers, memoized decode
tables, the C kernel, one container at a time) must stay bit-compatible
with streams written by earlier versions of the encoder.  These fixtures are *committed bytes* —
they are never regenerated by the test — so any decode change that alters
output is caught even if encode and decode drift together.

``tests/data/golden_decode.json`` maps each fixture file to:

* ``fixture_sha256`` — digest of the committed bytes (guards the fixture
  itself against accidental regeneration or corruption),
* ``decoded_sha256`` — digest of ``decode(fixture).tobytes()``,
* enough metadata to decode it (``block_size``, ``shape``, ``dtype``).
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.codecs.huffman import HuffmanCodec
from repro.compressors import decompress_any

DATA_DIR = Path(__file__).parent / "data"
MANIFEST = json.loads((DATA_DIR / "golden_decode.json").read_text())

HUFFMAN_FIXTURES = sorted(n for n in MANIFEST if n.endswith(".bin"))
BLOB_FIXTURES = sorted(n for n in MANIFEST if n.endswith(".blob"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load(name: str) -> tuple[bytes, dict]:
    return (DATA_DIR / name).read_bytes(), MANIFEST[name]


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_fixture_bytes_unchanged(name):
    blob, meta = _load(name)
    assert _sha256(blob) == meta["fixture_sha256"], (
        f"{name}: committed fixture bytes changed — fixtures are frozen, "
        "regenerating them defeats the cross-version decode guarantee"
    )


@pytest.mark.parametrize("name", HUFFMAN_FIXTURES)
def test_huffman_fixture_decodes_to_golden_digest(name):
    blob, meta = _load(name)
    codec = HuffmanCodec(block_size=meta.get("block_size", 4096))
    out = codec.decode(blob)
    assert out.dtype == np.int64
    assert out.size == meta["n_symbols"]
    assert _sha256(out.tobytes()) == meta["decoded_sha256"]


def test_huffman_fixtures_decode_many_matches_golden_digests():
    # decode_many must produce byte-identical output to decode; fixtures
    # deliberately mix alphabet widths, block fill levels, and a degenerate
    # single-symbol table in one batch
    default = [n for n in HUFFMAN_FIXTURES
               if "block_size" not in MANIFEST[n]]
    assert len(default) >= 2, "need several same-block-size fixtures"
    blobs = [(DATA_DIR / n).read_bytes() for n in default]
    outs = HuffmanCodec().decode_many(blobs)
    for name, out in zip(default, outs):
        assert out.size == MANIFEST[name]["n_symbols"]
        assert _sha256(out.tobytes()) == MANIFEST[name]["decoded_sha256"]


@pytest.mark.parametrize("name", BLOB_FIXTURES)
def test_compressor_blob_decodes_to_golden_digest(name):
    blob, meta = _load(name)
    out = decompress_any(blob)
    assert out.shape == tuple(meta["shape"])
    assert str(out.dtype) == meta["dtype"]
    assert _sha256(out.tobytes()) == meta["decoded_sha256"]
