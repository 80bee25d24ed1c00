"""Frozen tuner output: ``compress(auto=True)`` decisions and blob bytes.

Two seeded fields, each tuned for the four engine bases.  The miranda
field is large enough for three 32^3 sample blocks; the 2-D cesm slice
yields two blocks and a decision with adaptive quantization on.  Every
discrete field of ``TuningDecision.to_dict()`` and the sha256 of the tuned
blob must match exactly; the RD score to 1e-12 relative.  A refactor of
the tuner that changes any of these changed what the tuner decides.
"""
import hashlib

import numpy as np
import pytest

import repro
from repro.compressors import get_compressor

_QP_2D = {"enabled": True, "dimension": "2d", "condition": "III", "max_level": 2}
_QP_TOP = {"enabled": True, "dimension": "1d-top", "condition": "III", "max_level": 2}


def _decision(interp, structure, axis_order, alpha, beta, bits, qp, score,
              fraction, n_blocks):
    return {
        "interp": interp, "structure": structure, "axis_order": axis_order,
        "alpha": alpha, "beta": beta, "adaptive_bits": bits,
        "adaptive_threshold": 4, "qp": qp, "score": score,
        "adaptive_fraction": fraction, "n_blocks": n_blocks, "block_side": 32,
    }


PINNED = {
    ("miranda-48x40x44", "sz3"): (
        _decision("cubic", "sequential", [2, 1, 0], 1.25, 3.0, 0, _QP_2D,
                  146.78912813522987, 0.0, 3),
        "9dc87453342dba3af2208f79c66b596b6ed1d9a30d4e5f8420381d6af9a34b3d"),
    ("miranda-48x40x44", "qoz"): (
        _decision("cubic", "sequential", [2, 1, 0], 1.25, 3.0, 0, _QP_2D,
                  146.78912813522987, 0.0, 3),
        "070cd7a26475bcc604d07f6b8a2b8affc6b318bd806f5eb0e3021283a9a8b7c7"),
    ("miranda-48x40x44", "hpez"): (
        _decision("cubic", "sequential", None, 1.5, 2.0, 0, _QP_2D,
                  145.79409341585261, 0.0, 3),
        "09cdbaa4148b3977be3df2fe9c6c14417c2301c2b94c3b7d2e68c368341e9741"),
    ("miranda-48x40x44", "mgard"): (
        _decision("linear", "multidim", None, 1.0, 1.0, 0, _QP_TOP,
                  122.49151070508391, 0.0, 3),
        "7385f58b6642a54bbd577dc6a69843f579f9180e4523c1f24a6a55898cc973b8"),
    ("cesm-40x36", "sz3"): (
        _decision("cubic", "sequential", [1, 0], 1.25, 2.0, 1, _QP_2D,
                  120.73027863360575, 0.49609375, 2),
        "7f9f48600f51b57e38c62a6da5e43f922651747f39235eae2530a0a21489847a"),
    ("cesm-40x36", "qoz"): (
        _decision("cubic", "sequential", [1, 0], 1.25, 2.0, 1, _QP_2D,
                  120.73027863360575, 0.49609375, 2),
        "b9d4047f98049aeeb9610d0a4cf66583d223e41dd31a4e008bde4ef37cc7612d"),
    ("cesm-40x36", "hpez"): (
        _decision("cubic", "sequential", None, 1.5, 2.0, 1, _QP_2D,
                  120.11443717592547, 0.63232421875, 2),
        "f43863664823e40f3d2e9586993cea232b197b005fcc480e6a35f556fd00238c"),
    ("cesm-40x36", "mgard"): (
        _decision("linear", "multidim", None, 1.0, 1.0, 1, _QP_2D,
                  95.95994634119526, 0.9365234375, 2),
        "1fe42dc93d93de283dcff77922245a31af18ef64607f80f1b3cee9b08157f883"),
}


@pytest.fixture(scope="module")
def fields():
    """Field name -> (data, error bound)."""
    miranda = repro.generate("miranda", shape=(48, 40, 44), seed=3)
    cesm = np.ascontiguousarray(
        repro.generate("cesm", shape=(2, 40, 36), seed=7)[0]
    )
    return {
        name: (data, rel * float(data.max() - data.min()))
        for name, data, rel in (
            ("miranda-48x40x44", miranda, 1e-3), ("cesm-40x36", cesm, 1e-4),
        )
    }


@pytest.mark.parametrize("field,base", sorted(PINNED))
def test_auto_decision_and_bytes_pinned(fields, field, base):
    data, eb = fields[field]
    comp = get_compressor(base, eb)
    blob = comp.compress(data, auto=True)
    expected, digest = PINNED[(field, base)]
    got = comp.last_tuning.to_dict()
    assert got.keys() == expected.keys()
    assert got["score"] == pytest.approx(expected["score"], rel=1e-12, abs=0)
    discrete = {k: v for k, v in got.items() if k != "score"}
    assert discrete == {k: v for k, v in expected.items() if k != "score"}
    assert hashlib.sha256(blob).hexdigest() == digest
