"""ParallelCompressor: slab jobs on threads, pinned container bytes, QP routing.

Each slab compresses as its own job on a pool of ``parallel`` threads and
each thread decodes one contiguous group of slabs through
``decompress_many``; container bytes do not depend on the worker count,
the lowest-index failing slab's error is the one raised, no thread
outlives a call, and QP is routed by the registry capability flag instead
of a hardcoded base-name list.
"""
import hashlib
import struct
import threading
import time

import numpy as np
import pytest

import repro
from repro.core.config import QPConfig
from repro.compressors import get_compressor, supports_qp
from repro.compressors.registry import COMPRESSORS
from repro.errors import CorruptBlobError, ReproError
from repro.parallel import _MAGIC, ParallelCompressor, _slab_table

#: (container sha256, decoded-array sha256) of a 4-slab ``QPConfig()``
#: container of miranda 32x24x20 (seed 0, rel 1e-3): every worker count
#: writes and decodes the same bytes
PARALLEL_ROUNDTRIP = {
    "miranda-32x24x20/sz3/qp=on": ("284b76969ef8f132eb1b0621902336041a7d685e31f42772922f9e28a0823139", "a07c7dd4d7039914dce5edc1518f831718a6b874f448fbd37d54d432842f2fbc"),
    "miranda-32x24x20/qoz/qp=on": ("ce207abb3ce701f22e7e0fd72f4ab436d18546c35131f15238f1bba257d159ce", "b237b7279a5aaddc3f361ec62a0f5c52a28d464fe4c18fae4c6a90a4dfe7ed1d"),
}


@pytest.fixture(scope="module")
def volume():
    return repro.generate("miranda", shape=(40, 32, 32), seed=0)


def _eb(data):
    return 1e-3 * float(data.max() - data.min())


def _parallel_threads():
    return [t for t in threading.enumerate() if t.name.startswith("parallel")]


def _pinned_field():
    return repro.generate("miranda", shape=(32, 24, 20), seed=0)


def _container(axis, blobs):
    head = _MAGIC + struct.pack("<BI", axis, len(blobs))
    return head + b"".join(struct.pack("<Q", len(b)) + b for b in blobs)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("key", sorted(PARALLEL_ROUNDTRIP))
def test_container_matches_pinned_digests(key, workers):
    base = key.split("/")[1]
    data = _pinned_field()
    comp = ParallelCompressor(base, _eb(data), workers=workers, n_slabs=4,
                              qp=QPConfig())
    blob = comp.compress(data)
    out = comp.decompress(blob)
    assert out.dtype == data.dtype and out.shape == data.shape
    assert (
        hashlib.sha256(blob).hexdigest(),
        hashlib.sha256(out.tobytes()).hexdigest(),
    ) == PARALLEL_ROUNDTRIP[key]


@pytest.mark.parametrize("workers", [1, 4])
def test_decode_raises_the_lowest_failing_slab(monkeypatch, workers):
    # slabs 1 and 3 are corrupt and slab 1's check finishes last: its
    # typed error is the one raised, however the slabs were grouped
    from repro.compressors import registry

    data = _pinned_field()
    comp = ParallelCompressor("sz3", _eb(data), workers=workers, n_slabs=4,
                              qp=QPConfig())
    axis, blobs = _slab_table(comp.compress(data))
    bad = list(blobs)
    bad[1] = bad[1][:6]
    bad[3] = b"XXXX" + bad[3][4:]
    errors = []
    for b in (bad[1], bad[3]):
        with pytest.raises(ReproError) as info:
            registry.decompress_any(b)
        errors.append(info.value)
    assert str(errors[0]) != str(errors[1])
    real = registry._dispatch_key

    def slow_slab1(blob):
        if blob == bad[1]:
            time.sleep(0.05)
        return real(blob)

    monkeypatch.setattr(registry, "_dispatch_key", slow_slab1)
    with pytest.raises(ReproError) as info:
        comp.decompress(_container(axis, bad))
    assert type(info.value) is type(errors[0])
    assert str(info.value) == str(errors[0])
    assert not _parallel_threads()


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("later", ["magic", "shape"])
def test_payload_fault_beats_a_later_bad_header(later, workers):
    # slab 1's payload is corrupt while its header still dispatches, and
    # slab 3's header is bad (its magic, or a shape that still names the
    # same compressor and bound): slab 1's error is raised, also where all
    # four slabs decode as one decompress_many batch
    from repro.compressors import Blob, registry

    data = _pinned_field()
    comp = ParallelCompressor("sz3", _eb(data), workers=workers, n_slabs=4,
                              qp=QPConfig())
    axis, blobs = _slab_table(comp.compress(data))
    bad = list(blobs)
    mid = len(bad[1]) // 2
    bad[1] = bad[1][:mid] + bytes([bad[1][mid] ^ 0xFF]) + bad[1][mid + 1:]
    if later == "magic":
        bad[3] = b"XXXX" + bad[3][4:]
    else:
        slab3 = Blob.from_bytes(bad[3])
        slab3.header["shape"] = [0] + slab3.header["shape"][1:]
        bad[3] = slab3.to_bytes()
    registry._dispatch_key(bad[1])
    with pytest.raises(ReproError) as slab1:
        registry.decompress_any(bad[1])
    for decode in (registry.decompress_many,
                   lambda parts: comp.decompress(_container(axis, parts))):
        with pytest.raises(ReproError) as info:
            decode(bad)
        assert type(info.value) is type(slab1.value)
        assert str(info.value) == str(slab1.value)


@pytest.mark.parametrize("workers", [1, 4])
def test_compress_raises_the_lowest_failing_slab(monkeypatch, workers):
    from repro.compressors.sz3 import SZ3

    data = _pinned_field()
    comp = ParallelCompressor("sz3", _eb(data), workers=workers, n_slabs=4)
    slab_of = {data[8 * i:8 * (i + 1)].tobytes(): i for i in range(4)}
    real = SZ3.compress

    def failing(self, slab, **kwargs):
        i = slab_of[np.ascontiguousarray(slab).tobytes()]
        if i == 1:
            time.sleep(0.05)
        if i in (1, 3):
            raise RuntimeError(f"slab {i} failed")
        return real(self, slab, **kwargs)

    monkeypatch.setattr(SZ3, "compress", failing)
    with pytest.raises(RuntimeError, match="^slab 1 failed$"):
        comp.compress(data)
    assert not _parallel_threads()


def test_slabs_of_mixed_dtypes_are_corrupt():
    data = _pinned_field()
    comp = get_compressor("sz3", _eb(data))
    blobs = [comp.compress(data[:16]),
             comp.compress(data[16:].astype(np.float64))]
    with pytest.raises(CorruptBlobError, match="mixes slab dtypes"):
        ParallelCompressor("sz3", _eb(data), workers=2).decompress(
            _container(0, blobs))


class TestRoundTrips:
    @pytest.mark.parametrize("base", COMPRESSORS)
    def test_all_bases_workers2(self, volume, base):
        eb = _eb(volume)
        comp = ParallelCompressor(base, eb, workers=2)
        out = comp.decompress(comp.compress(volume))
        assert out.shape == volume.shape
        if base not in ("zfp", "tthresh"):  # fixed-rate/HOSVD bound semantics differ
            assert np.abs(out - volume).max() <= eb * (1 + 1e-6)

    @pytest.mark.parametrize("qp_on", [False, True])
    def test_qp_on_off(self, volume, qp_on):
        eb = _eb(volume)
        kw = {"qp": QPConfig()} if qp_on else {}
        comp = ParallelCompressor("sz3", eb, workers=2, **kw)
        out = comp.decompress(comp.compress(volume))
        assert np.abs(out - volume).max() <= eb * (1 + 1e-6)

    def test_non_contiguous_input(self, volume):
        eb = _eb(volume)
        nc = volume.transpose(2, 0, 1)
        assert not nc.flags["C_CONTIGUOUS"]
        comp = ParallelCompressor("sz3", eb, workers=2)
        out = comp.decompress(comp.compress(nc))
        assert out.shape == nc.shape
        assert np.abs(out - nc).max() <= eb * (1 + 1e-6)

    def test_short_axis_fewer_slabs_than_workers(self):
        # longest axis < 8 * workers: slab count clamps but round-trip holds
        data = repro.generate("miranda", shape=(12, 10, 10), seed=3)
        eb = _eb(data)
        comp = ParallelCompressor("sz3", eb, workers=4)
        out = comp.decompress(comp.compress(data))
        assert np.abs(out - data).max() <= eb * (1 + 1e-6)


class TestSharedMemoryPath:
    def test_parallel_bytes_match_serial(self, volume):
        # threading must not change what gets compressed: the container
        # from 4 workers equals the serial 4-slab container
        eb = _eb(volume)
        par = ParallelCompressor("sz3", eb, workers=4, n_slabs=4, qp=QPConfig())
        ser = ParallelCompressor("sz3", eb, workers=1, n_slabs=4, qp=QPConfig())
        assert par.compress(volume) == ser.compress(volume)


class TestQPRouting:
    def test_capability_flags(self):
        assert supports_qp("sz3") and supports_qp("qoz")
        assert supports_qp("hpez") and supports_qp("mgard") and supports_qp("sperr")
        assert not supports_qp("zfp")
        assert not supports_qp("tthresh")
        with pytest.raises(KeyError):
            supports_qp("nope")

    @pytest.mark.parametrize("base", ["zfp", "tthresh"])
    def test_qp_on_incapable_base_raises(self, base):
        with pytest.raises(ValueError, match="does not support quantization"):
            ParallelCompressor(base, 1e-3, workers=2, qp=QPConfig())

    @pytest.mark.parametrize("base", ["zfp", "tthresh"])
    def test_disabled_qp_on_incapable_base_ok(self, volume, base):
        comp = ParallelCompressor(base, _eb(volume), workers=1,
                                  qp=QPConfig.disabled())
        out = comp.decompress(comp.compress(volume))
        assert out.shape == volume.shape

    def test_qp_changes_sperr_stream(self, volume):
        # sperr gained the capability flag: QP must actually reach the base
        eb = _eb(volume)
        plain = ParallelCompressor("sperr", eb, workers=1, n_slabs=2)
        qp = ParallelCompressor("sperr", eb, workers=1, n_slabs=2, qp=QPConfig())
        assert plain.compress(volume) != qp.compress(volume)
