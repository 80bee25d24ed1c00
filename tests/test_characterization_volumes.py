"""Frozen characterization volumes: what ``compress(state=...)`` collects.

The index volumes a :class:`~repro.compressors.CompressionState` receives
are what the ``characterize`` CLI and the Figure 3-5 benchmarks read: the
per-point quantization index before QP (``index_volume``), after QP
(``extras["index_volume_qp"]``) and the level that produced each point
(``extras["pass_levels"]``).  Their sha256 digests were taken from the
encoder before the engine's state scatter was reorganized; any change to
how the volumes are built must leave these bytes as they are.
"""
import hashlib

import numpy as np
import pytest

import repro
from repro.compressors import CompressionState, get_compressor
from repro.core import QPConfig

#: (base, constructor kwargs) -> (index_volume, index_volume_qp, pass_levels)
#: digests; HPEZ's block mode fills no ``pass_levels``
PINNED = {
    "sz3": (
        {"predictor": "interp"},
        (
            "887f9c2df8a79e776d046a43d157ab2e88927c5cb01c092b3408ec296e123b1b",
            "cc91e24cb84d472961236d4782d7b1eb04ee5441cfde7234b24b190b5119ce85",
            "408e6b63511607f4937dcbf0dc77323128d2c4cbf4ff3a3d8581df32f4e1dfef",
        ),
    ),
    "qoz": (
        {},
        (
            "73243e6450d478129dd8c87b9ed0e9e8173b4cede116eb0a2bd8ffc3caaaa0da",
            "58c0b69bcc8da5e6da4732f61c8f393bb58798506397289ea3d61a6833d2ce92",
            "408e6b63511607f4937dcbf0dc77323128d2c4cbf4ff3a3d8581df32f4e1dfef",
        ),
    ),
    "hpez": (
        {},
        (
            "37bb4048c63ebb60db4312754832df47a9c8c9d17c3ba1a5e50215aaca015459",
            "69352b47492fad6b48efb46df62c7bcb3a68ac613e0029a0fd8b934174e917f2",
            "408e6b63511607f4937dcbf0dc77323128d2c4cbf4ff3a3d8581df32f4e1dfef",
        ),
    ),
    "hpez-blocks16": (
        {"block_side": 16},
        (
            "072febb1ce9a0fc8b8f81cff9000b787f92e0dca194915e8f488a50b2198f664",
            "8dbf14c0a021da8f456a0110210cbafb221643ee2f8f0ac0a31388d63e8c1160",
            None,
        ),
    ),
    "mgard": (
        {},
        (
            "04d602d41840a9ee03b9ffb81d58d2e827ea6f7ef228830ccaaff41c69bdcf72",
            "490fe2b56298b3fa5613aa1539613402870c9528c9bbd192806a528a9ea81fd4",
            "408e6b63511607f4937dcbf0dc77323128d2c4cbf4ff3a3d8581df32f4e1dfef",
        ),
    ),
}


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def field():
    data = repro.generate("miranda", shape=(48, 40, 44), seed=3)
    return data, 1e-3 * float(data.max() - data.min())


@pytest.mark.parametrize("key", sorted(PINNED))
def test_state_volumes_match_pinned_digests(field, key):
    data, eb = field
    kwargs, (want_idx, want_qp, want_levels) = PINNED[key]
    st = CompressionState()
    get_compressor(key.split("-")[0], eb, qp=QPConfig(), **kwargs).compress(
        data, state=st
    )
    assert st.index_volume.shape == data.shape
    assert _sha(st.index_volume) == want_idx
    assert _sha(st.extras["index_volume_qp"]) == want_qp
    if want_levels is None:
        assert "pass_levels" not in st.extras
    else:
        assert _sha(st.extras["pass_levels"]) == want_levels
