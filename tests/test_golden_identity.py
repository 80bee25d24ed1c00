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
from repro.core.config import AdaptiveConfig, QPConfig
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

#: (blob sha256, decoded-array sha256) of a compress/decompress round trip
#: on float64 input and with the adaptive quantizer at bits=3, threshold=2
#: (``adaptive``, with ``QPConfig()``): every float dtype and quantizer
#: variant the predict/quantize stages run in has a pin of its own
GOLDEN_ROUNDTRIP = {
    "miranda-24x20x22-f64/sz3/qp=off": ("af925d78b76b79400a3eca2bd4b89e24926d9d84bbe2a43a4742ff89fa40c47a", "109460ec3123703124f6fd2b643cf2b6121391969a676bb0d2cf81be1395cfbf"),
    "miranda-24x20x22-f64/sz3/qp=on": ("2ac439701b49125fe89c2e7f9e3dd814cd57f3573da525e9dc43e46f69134d4c", "109460ec3123703124f6fd2b643cf2b6121391969a676bb0d2cf81be1395cfbf"),
    "miranda-24x20x22-f64/qoz/qp=off": ("4ec496614406319e29af9f801bf1766495b9d27e368eee1aa9c2037e3f26c25e", "1a55be863655aeca213a72f4d652c13de2bb676d6f2ae69c63845469b96ee30d"),
    "miranda-24x20x22-f64/qoz/qp=on": ("d790ab48b3a4ccb5fceb3c6e4370617989bd1a764ab9e7c47ec39b4a32b11c37", "1a55be863655aeca213a72f4d652c13de2bb676d6f2ae69c63845469b96ee30d"),
    "miranda-24x20x22-f64/hpez/qp=off": ("6c37537dae997e5f909b15ed4fa57f3b4081e07f94b2b40642ad077a2e8bdc61", "3a8518ed05d257e234bbed19187472868ffa83f9e5ac75bd333db203d98a040f"),
    "miranda-24x20x22-f64/hpez/qp=on": ("a148b8d8d9c7eb2e9c2abd9ac57d132f03550b2a7dd8333d7927c92cdeefbaed", "3a8518ed05d257e234bbed19187472868ffa83f9e5ac75bd333db203d98a040f"),
    "miranda-24x20x22-f64/mgard/qp=off": ("6c8e68b13a6d0e52b3073fde16af5dcd83efa8ffe05240834df92bcd98a5626e", "52a975b10b0aadc508c2244094ac4f4bacb442631f1d6be5c860c1e7d67afb9d"),
    "miranda-24x20x22-f64/mgard/qp=on": ("c16d7bb5c27b80cdb2275cb0635a59f8f5602d89bea10fe1ef9d43eb5d8a507f", "52a975b10b0aadc508c2244094ac4f4bacb442631f1d6be5c860c1e7d67afb9d"),
    "miranda-24x20x22/sz3/adaptive": ("89be358a057063cf239758e4faa5a7f55927dd79b94897fe0cc8350607d36ad5", "2e72ed8c2ee7b6380a57ee826f034d49600505f7faefde81e725b645c0f887a9"),
    "miranda-24x20x22/hpez/adaptive": ("d4631a1bfe01627efeae7dd0f44be68c6b1786d0041f2b2bbac494fcf48e6eae", "5594f2f581a9730b95c30c91e422817cb7ab4fa6518da03d7167bb10427f4ec0"),
    "miranda-24x20x22-f64/sz3/adaptive": ("1885351b48ce2d32fe4f112e92e08512d81d102d5094ab5c24dc50dd32963c6a", "23a63a480aba3a41693f9a91241578b5c9105b0049dd5d176a37d05d5b87f767"),
    "miranda-24x20x22-f64/hpez/adaptive": ("b5d720ca26c1e9df71ebfa0376f2aa9e1a76045b58198adc4fcbababfe44d0a9", "eb16801e534b1100ec392008a6aa8ce8a874a44db2b77d470a77452e2a22797d"),
}


@pytest.fixture(scope="module")
def inputs():
    data3 = repro.generate("miranda", shape=(24, 20, 22), seed=0)
    data2 = np.ascontiguousarray(repro.generate("cesm", shape=(4, 33, 26), seed=1)[0])
    return {
        "miranda-24x20x22": data3,
        "miranda-24x20x22-f64": data3.astype(np.float64),
        "cesm-33x26": data2,
    }


def _compress(data, base, qp_on):
    eb = 1e-3 * float(data.max() - data.min())
    kw = {"qp": QPConfig()} if qp_on else {}
    return get_compressor(base, eb, **kw).compress(data)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_blob_matches_golden_digest(inputs, key):
    label, base, qp = key.split("/")
    blob = _compress(inputs[label], base, qp == "qp=on")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_ROUNDTRIP))
def test_roundtrip_matches_golden_digests(inputs, key):
    label, base, mode = key.split("/")
    data = inputs[label]
    eb = 1e-3 * float(data.max() - data.min())
    kw = {} if mode == "qp=off" else {"qp": QPConfig()}
    if mode == "adaptive":
        kw["adaptive"] = AdaptiveConfig(bits=3, threshold=2)
    comp = get_compressor(base, eb, **kw)
    blob = comp.compress(data)
    out = comp.decompress(blob)
    assert out.dtype == data.dtype
    assert (
        hashlib.sha256(blob).hexdigest(),
        hashlib.sha256(out.tobytes()).hexdigest(),
    ) == GOLDEN_ROUNDTRIP[key]


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
