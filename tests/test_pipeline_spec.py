"""The compressor table, its lint, and header-driven golden decode.

Covers three contracts of the compressor table in
:mod:`repro.compressors.registry`:

* the literal listings (``INTERP_COMPRESSORS``/``supports_qp``) agree with
  what each registered class does;
* the registry lint (``tools/check_api.py``) passes, and reports an entry
  that builds a class of another name;
* the class a frozen golden container's header names decodes it to the
  exact pinned digest.
"""
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.compressors import (
    COMPRESSORS,
    INTERP_COMPRESSORS,
    decompress_any,
    get_compressor,
    supports_qp,
)
from repro.compressors.base import Blob
from repro.core import QPConfig

DATA_DIR = Path(__file__).parent / "data"
TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_registry_derived_from_pipelines(field_2d):
    for name in COMPRESSORS:
        header = Blob.from_bytes(get_compressor(name, 1e-2).compress(field_2d)).header
        # the interpolation engine records its walk in the header
        assert ("engine" in header) == (name in INTERP_COMPRESSORS), name
        if supports_qp(name):
            get_compressor(name, 1e-2, qp=QPConfig())
        else:
            with pytest.raises(TypeError):
                get_compressor(name, 1e-2, qp=QPConfig())


def test_pipeline_lint_clean():
    # the CI lint (tools/check_api.py) holds every registry entry to the
    # Codec shape and to building a class of that name
    sys.path.insert(0, str(TOOLS))
    try:
        import check_api
    finally:
        sys.path.remove(str(TOOLS))
    results = check_api.check_registry()
    bad = {name: probs for name, probs in results.items() if probs}
    assert not bad, f"registry-lint violations: {bad}"
    assert tuple(results) == COMPRESSORS

    swapped = check_api.check_registry({"sz3": get_compressor("qoz", 1e-3)})
    assert swapped["sz3"] == ["registry entry builds a class named 'qoz'"]
    assert not any(probs for name, probs in swapped.items() if name != "sz3")


def test_spec_driven_decode_matches_golden_digest():
    manifest = json.loads((DATA_DIR / "golden_decode.json").read_text())
    entry = manifest["sz3_miranda_qp.blob"]
    raw = (DATA_DIR / "sz3_miranda_qp.blob").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == entry["fixture_sha256"]

    header = Blob.from_bytes(raw).header
    assert header["compressor"] == "sz3"
    # the fixture was compressed with QP on; its header keeps that config
    qp = header["engine"]["qp"]
    assert qp["enabled"] and QPConfig.from_dict(qp).to_dict() == qp

    by_header = get_compressor(header["compressor"], header["error_bound"])
    for out in (by_header.decompress(raw), decompress_any(raw)):
        assert list(out.shape) == entry["shape"]
        assert str(out.dtype) == entry["dtype"]
        assert hashlib.sha256(out.tobytes()).hexdigest() == entry["decoded_sha256"]
        assert np.isfinite(out).all()
