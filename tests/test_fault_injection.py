"""Corruption matrix: every injector × every decode path, typed and bounded.

The contract under test (ISSUE tentpole): feeding corrupted bytes to any
decode path raises a *typed* :class:`repro.errors.ReproError` within the
deadline — never an uncontrolled ``IndexError``/``struct.error``, never a
hang, never a wrong-shaped array.

Two strictness tiers:

* **sealed (v1) compressor blobs** — the CRC envelope catches *everything*:
  all four injectors must produce a typed error, across all 7 compressors
  with QP on and off.
* **codec streams / unsealed blobs** — no checksum, so a bit flip can
  legitimately decode to different-but-well-formed output (e.g. two Huffman
  codes of equal length swapped).  Here the contract is: no untyped
  exception, no deadline overrun, and any silent decode must still be
  well-formed (the matrix's decode callables assert shape/type before
  returning).
"""
import numpy as np
import pytest

from repro.codecs import HuffmanCodec, RangeCodec
from repro.codecs import fixed as fixed_codec
from repro.codecs import huffman, lossless
from repro.compressors import decompress_any, get_compressor, supports_qp
from repro.compressors.base import decode_index_stream, encode_index_stream
from repro.core.config import AdaptiveConfig, QPConfig
from repro.errors import CorruptBlobError, ReproError, TruncatedStreamError
from repro.parallel import ParallelCompressor
from repro.testing import INJECTORS, run_corruption_matrix

pytestmark = pytest.mark.faults

ALL_COMPRESSORS = ("mgard", "sz3", "qoz", "hpez", "zfp", "tthresh", "sperr")
#: engine compressors whose quantize stage has the adaptive spec variant —
#: its reserved-index wire format and adaptive header block are extra
#: decode surface, so each gets its own matrix rows
ADAPTIVE_COMPRESSORS = ("mgard", "sz3", "qoz", "hpez")
SEEDS = range(3)
DEADLINE_S = 10.0


def _make_data(seed=0, shape=(14, 12, 10)):
    rng = np.random.default_rng(seed)
    coords = np.meshgrid(*(np.linspace(0, 3, s) for s in shape), indexing="ij")
    return (sum(np.sin(c) for c in coords) + 0.1 * rng.standard_normal(shape)).astype(
        np.float32
    )


def _compressor_configs():
    for name in ALL_COMPRESSORS:
        qp_modes = (False, True) if supports_qp(name) else (False,)
        for qp_on in qp_modes:
            yield name, qp_on, False
    for name in ADAPTIVE_COMPRESSORS:
        yield name, True, True


def _build(name, qp_on, adaptive_on, checksum):
    data = _make_data()
    kwargs = {}
    if supports_qp(name):
        kwargs["qp"] = QPConfig() if qp_on else QPConfig.disabled()
    if adaptive_on:
        kwargs["adaptive"] = AdaptiveConfig(bits=2, threshold=3)
    comp = get_compressor(name, 1e-2, **kwargs)
    return data, comp.compress(data, checksum=checksum)


@pytest.mark.parametrize(
    "name,qp_on,adaptive_on", list(_compressor_configs()), ids=lambda v: str(v)
)
def test_sealed_blobs_all_injectors_typed(name, qp_on, adaptive_on):
    """With the v1 envelope, every injector must yield a typed error."""
    data, sealed = _build(name, qp_on, adaptive_on, checksum=True)

    def decode(blob):
        return decompress_any(blob)

    results = run_corruption_matrix(sealed, decode, seeds=SEEDS, deadline_s=DEADLINE_S)
    bad = [r for r in results if not r.ok]
    assert not bad, [
        f"{r.injector}/seed={r.seed}: {r.outcome} ({r.detail})" for r in bad
    ]
    assert all(r.elapsed_s <= DEADLINE_S for r in results)


@pytest.mark.parametrize(
    "name,qp_on,adaptive_on", list(_compressor_configs()), ids=lambda v: str(v)
)
def test_unsealed_blobs_never_untyped_never_misshapen(name, qp_on, adaptive_on):
    """Without a checksum a flip may silently decode — but any decode that
    returns must produce the declared shape/dtype, and failures stay typed."""
    data, blob = _build(name, qp_on, adaptive_on, checksum=False)

    def decode(b):
        out = decompress_any(b)
        assert out.shape == data.shape, f"wrong shape {out.shape}"
        assert out.dtype == data.dtype
        return out

    results = run_corruption_matrix(blob, decode, seeds=SEEDS, deadline_s=DEADLINE_S)
    untyped = [r for r in results if r.outcome == "untyped"]
    assert not untyped, [
        f"{r.injector}/seed={r.seed}: {r.detail}" for r in untyped
    ]
    assert all(r.elapsed_s <= DEADLINE_S for r in results)
    # truncation and header tampering are always structurally detectable
    for r in results:
        if r.injector in ("truncate", "tamper"):
            assert r.outcome in ("typed", "unchanged"), (
                f"{r.injector}/seed={r.seed}: {r.outcome} ({r.detail})"
            )


def _codec_streams():
    rng = np.random.default_rng(42)
    symbols = rng.integers(0, 30, size=4000).astype(np.int64)
    raw_bytes = rng.integers(0, 256, size=3000, dtype=np.uint8).tobytes()
    compressible = (b"abcd" * 700) + raw_bytes[:200]
    streams = {
        # both index-stream entropy coders
        f"entropy-{name}": (codec.encode(symbols), codec.decode)
        for name, codec in (("huffman", HuffmanCodec()), ("range", RangeCodec()))
    }
    # the framing around the Huffman container: median window, escapes
    # below and above it, the lossless stage
    framed = np.rint(rng.normal(0, 4, 4000)).astype(np.int64)
    framed[[3, 4, 2000, 3990]] = [-40000, 90000, -32768, 70000]
    streams["index-stream-huffman"] = (
        encode_index_stream(framed), decode_index_stream
    )
    streams.update({
        "fixed": (
            fixed_codec.encode_fixed(symbols.astype(np.uint64)),
            fixed_codec.decode_fixed,
        ),
        "lossless-zlib": (lossless.compress(compressible), lossless.decompress),
    })
    return streams


@pytest.mark.parametrize("codec", sorted(_codec_streams()))
def test_codec_streams_never_untyped(codec):
    stream, decode = _codec_streams()[codec]
    results = run_corruption_matrix(stream, decode, seeds=SEEDS, deadline_s=DEADLINE_S)
    untyped = [r for r in results if r.outcome == "untyped"]
    assert not untyped, [
        f"{r.injector}/seed={r.seed}: {r.detail}" for r in untyped
    ]
    assert all(r.elapsed_s <= DEADLINE_S for r in results)


@pytest.mark.parametrize("name", ["sz3", "qoz"])
def test_parallel_containers_never_untyped(name):
    """The slab table in front of the slab blobs is decode surface too:
    four equal slabs, decoded in-process through ``decompress_many``."""
    data = _make_data(shape=(32, 12, 10))
    par = ParallelCompressor(name, 1e-2, workers=1, n_slabs=4, qp=QPConfig())
    container = par.compress(data)

    def decode(b):
        out = par.decompress(b)
        assert out.shape == data.shape, f"wrong shape {out.shape}"
        return out

    results = run_corruption_matrix(container, decode, seeds=SEEDS,
                                    deadline_s=DEADLINE_S)
    untyped = [r for r in results if r.outcome == "untyped"]
    assert not untyped, [
        f"{r.injector}/seed={r.seed}: {r.detail}" for r in untyped
    ]
    assert all(r.elapsed_s <= DEADLINE_S for r in results)


def test_truncated_before_magic_is_truncation_not_corruption():
    """A prefix too short to even judge the 4-byte magic must raise the typed
    truncation error — the magic check only fires once enough bytes exist."""
    blob = huffman.HuffmanCodec().encode(np.arange(50, dtype=np.int64))
    for cut in (0, 1, 3):
        with pytest.raises(TruncatedStreamError):
            huffman.HuffmanCodec().decode(blob[:cut])
    # once the magic is fully present but wrong, it is corruption
    with pytest.raises(CorruptBlobError):
        huffman.HuffmanCodec().decode(b"XXXX" + blob[4:])
    # and a truncated-but-magic-bearing prefix is still truncation
    with pytest.raises(TruncatedStreamError):
        huffman.HuffmanCodec().decode(blob[:12])


def test_matrix_classifies_typed_and_silent():
    """Self-check of the harness: a strict decoder reports typed cells, a
    no-op decoder reports silent ones."""

    def strict(_):
        raise ReproError("always typed")

    payload = bytes(range(64)) * 4
    assert all(
        r.outcome in ("typed", "unchanged")
        for r in run_corruption_matrix(payload, strict, seeds=range(2))
    )
    silent = run_corruption_matrix(payload, lambda b: b, seeds=range(2))
    assert any(r.outcome == "silent" for r in silent)


def test_every_injector_changes_bytes():
    payload = bytes(range(250)) * 3
    for kind in INJECTORS:
        changed = sum(
            INJECTORS[kind](payload, seed=s) != payload for s in range(10)
        )
        assert changed == 10, f"{kind} left bytes unchanged"
