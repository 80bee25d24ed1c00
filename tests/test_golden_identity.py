"""Golden bit-identity: the performance work must not move a single bit.

The digests below were produced by the pre-optimization encoder on fixed
seeded inputs.  Every hot-path change this PR makes — prediction reuse,
schedule memoization, the subgrid trial shrink, the cumsum/wavefront-cache
QP inverses, the histogram median, the byte-windowed Huffman packer, and the
stage profiler — claims to be a pure reorganization of work.  This test is
that claim, enforced: blobs must stay byte-identical to the pre-PR encoder,
with profiling off, with profiling on, and with every cache warm.
"""
import hashlib

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.config import QPConfig
from repro.compressors import get_compressor

GOLDEN = {
    "miranda-24x20x22/sz3/qp=off": "4ade417d3da37085a0d2e0f775d9ea8196345620060f8a4490231180f88795b8",
    "miranda-24x20x22/sz3/qp=on": "c8440c4447626d107ca975185f68ca20213c907e772c964ab31fac9234f33a5f",
    "miranda-24x20x22/qoz/qp=off": "3c5585d099452716f3e702eee22c9b2b4c80f49eac52d652f66c21019e2b156f",
    "miranda-24x20x22/qoz/qp=on": "a1b8d8e181fd569938757c5d3339553fa59742e0d90eba40c460167fca4ea5c4",
    "miranda-24x20x22/hpez/qp=off": "48d0f6f02b88a0cb9b00a69bd3928ef47d6a58953e32efee901bb6dfe6fccf12",
    "miranda-24x20x22/hpez/qp=on": "9d5109a13ff7e8ddfd8d29e9c8c3119be1e5f3ed3261d3829b2a81411040347d",
    "miranda-24x20x22/mgard/qp=off": "4442890613dd182675652b0960d50af2a9d52f7fb781196e7ae25486ea77b760",
    "miranda-24x20x22/mgard/qp=on": "d9894cd41e94bef57257afda0e13e267d9c03fb5af45a87f15bdcb274ced0077",
    "cesm-33x26/sz3/qp=off": "024425bf087a09eeb28775dcb6119ac6500df41cd6fc979ca003a979b8513d84",
    "cesm-33x26/sz3/qp=on": "f0eaf968fc76c7e8d9627367f148edbede18671d2ad9ec21c1edc1ca22478c98",
    "cesm-33x26/qoz/qp=off": "8cce13ecb4e79ff1ca2399252ccf6eb20586f53dd8444faeee5ce3d668a491f6",
    "cesm-33x26/qoz/qp=on": "7ebb48265561c86858f2fe8e574c17c219bc3193eccda3090a6e9b7f7d055bc7",
    "cesm-33x26/hpez/qp=off": "5c82c83349a0bb442522a616066404979ebc2b2e410b67969b42d4e78cb6fb8b",
    "cesm-33x26/hpez/qp=on": "51934e0527821cf2c3d32556f3c14e04dd81c1a79e06434c08306e32554c1617",
    "cesm-33x26/mgard/qp=off": "16b3daa70d56929ce83c9c92023891459639770d15c2cc66c86f24bd7adb78ed",
    "cesm-33x26/mgard/qp=on": "41e919feb4a7ed261c02296907ba4e972738d3f3f877f3ff589ec95f0884ac89",
}


@pytest.fixture(scope="module")
def inputs():
    data3 = repro.generate("miranda", shape=(24, 20, 22), seed=0)
    data2 = np.ascontiguousarray(repro.generate("cesm", shape=(4, 33, 26), seed=1)[0])
    return {"miranda-24x20x22": data3, "cesm-33x26": data2}


def _compress(data, base, qp_on):
    eb = 1e-3 * float(data.max() - data.min())
    kw = {"qp": QPConfig()} if qp_on else {}
    return get_compressor(base, eb, **kw).compress(data)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_blob_matches_golden_digest(inputs, key):
    label, base, qp = key.split("/")
    blob = _compress(inputs[label], base, qp == "qp=on")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[key]


def test_profiling_does_not_change_bytes(inputs):
    data = inputs["miranda-24x20x22"]
    plain = _compress(data, "sz3", True)
    ob = obs.Observation()
    with obs.observe(ob):
        instrumented = _compress(data, "sz3", True)
    assert instrumented == plain
    # and the tracer actually saw the pipeline while bytes stayed equal
    assert {"predict", "quantize", "qp", "huffman", "lossless"} <= set(
        ob.tracer.stage_seconds()
    )


def test_sealed_blob_payload_matches_golden_digest(inputs):
    # the v1 integrity envelope wraps the canonical v0 bytes unmodified:
    # checksummed blobs still hash to the golden digests once unsealed
    from repro.io import integrity

    data = inputs["miranda-24x20x22"]
    eb = 1e-3 * float(data.max() - data.min())
    comp = get_compressor("sz3", eb, qp=QPConfig())
    sealed = comp.compress(data, checksum=True)
    assert sealed[:4] == integrity.BLOB_MAGIC_V1
    payload = integrity.unseal(sealed)
    assert (
        hashlib.sha256(payload).hexdigest()
        == GOLDEN["miranda-24x20x22/sz3/qp=on"]
    )
    # and the sealed blob decodes like the plain one
    out = comp.decompress(sealed)
    assert np.abs(out - data).max() <= eb * (1 + 1e-6)


def test_warm_caches_do_not_change_bytes(inputs):
    # second run hits the schedule/wavefront-index memo tables; bytes and
    # decoded values must be unaffected by cache state
    data = inputs["miranda-24x20x22"]
    eb = 1e-3 * float(data.max() - data.min())
    comp = get_compressor("sz3", eb, qp=QPConfig())
    cold = comp.compress(data)
    warm = comp.compress(data)
    assert cold == warm
    out = comp.decompress(warm)
    assert np.abs(out - data).max() <= eb * (1 + 1e-6)
