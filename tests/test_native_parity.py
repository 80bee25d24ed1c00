"""The native kernels against their numpy reference.

Every case runs on both paths: the C library and the numpy loops (forced
by swapping the loader's handle).  Decodes must return identical arrays,
or both must raise a typed :class:`~repro.errors.ReproError` of the same
class; encodes must return identical bytes or arrays.
"""
import itertools
import struct

import numpy as np
import pytest

from repro import kernels
from repro.codecs.huffman import (
    MAX_CODE_LEN,
    HuffmanCodec,
    _huffman_lengths_heap,
    _huffman_lengths_native,
    _parse_container,
)
from repro.core import QP_CONDITIONS, QP_DIMENSIONS, QPConfig, qp_forward, qp_inverse
from repro.core.qp import qp_inverse_multi
from repro.errors import ReproError
from repro.testing import INJECTORS

pytestmark = pytest.mark.skipif(
    kernels.native() is None, reason="native kernel library unavailable"
)

SENTINEL = -32


def _outcome(fn):
    try:
        out = fn()
    except ReproError as exc:
        return "error", type(exc)
    return "ok", out if isinstance(out, list) else [out]


def assert_paths_agree(monkeypatch, fn):
    """Run ``fn`` natively and on numpy; return the native arrays (or None
    when both paths raised)."""
    native = _outcome(fn)
    with monkeypatch.context() as m:
        m.setattr(kernels, "_lib", None)
        fallback = _outcome(fn)
    assert native[0] == fallback[0], (native, fallback)
    if native[0] == "error":
        assert native[1] is fallback[1]
        return None
    assert len(native[1]) == len(fallback[1])
    for a, b in zip(native[1], fallback[1]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
    return native[1]


def _skewed(rng, n, scale):
    return np.abs(rng.normal(0, scale, n)).astype(np.int64)


@pytest.mark.parametrize(
    "block_size,n", [(1, 50), (64, 1000), (4096, 4097), (97, 97)],
    ids=["block-1", "partial-last-block", "one-symbol-tail", "exact-blocks"],
)
def test_huffman_containers(monkeypatch, block_size, n):
    rng = np.random.default_rng(block_size + n)
    codec = HuffmanCodec(block_size=block_size)
    for scale in (0.5, 5.0, 300.0):
        sym = _skewed(rng, n, scale)
        blob = codec.encode(sym)
        out = assert_paths_agree(monkeypatch, lambda: codec.decode(blob))
        assert np.array_equal(out[0], sym)


def test_huffman_20_bit_table(monkeypatch):
    # 21 Fibonacci frequencies give a tree 20 deep: the deepest codes the
    # length limit allows
    counts = [1, 1]
    while len(counts) < 21:
        counts.append(counts[-1] + counts[-2])
    sym = np.repeat(np.arange(len(counts)), counts)
    np.random.default_rng(0).shuffle(sym)
    blob = HuffmanCodec(block_size=509).encode(sym)
    assert _parse_container(blob)[5][2] == 20
    out = assert_paths_agree(monkeypatch, lambda: HuffmanCodec().decode(blob))
    assert np.array_equal(out[0], sym)


def test_huffman_decode_many_mixed_tables(monkeypatch):
    rng = np.random.default_rng(1)
    streams = [
        (HuffmanCodec(block_size=bs), _skewed(rng, n, scale))
        for bs, n, scale in (
            (4096, 20000, 3.0), (61, 500, 0.4), (1, 7, 40.0),
            (128, 1, 1.0), (4096, 0, 1.0), (300, 3001, 2000.0),
        )
    ]
    blobs = [codec.encode(sym) for codec, sym in streams]
    outs = assert_paths_agree(
        monkeypatch, lambda: HuffmanCodec().decode_many(blobs)
    )
    for (_, sym), out in zip(streams, outs):
        assert np.array_equal(out, sym)


def test_huffman_tampered_payloads(monkeypatch):
    rng = np.random.default_rng(2)
    codec = HuffmanCodec(block_size=100)
    blob = codec.encode(_skewed(rng, 2000, 4.0))
    cases = [INJECTORS[kind](blob, seed=seed)
             for kind, seed in itertools.product(sorted(INJECTORS), range(12))]
    # single payload bit flips: each may still decode, to different symbols
    n_present = struct.unpack_from("<QII", blob, 4)[2]
    n_blocks = struct.unpack_from("<Q", blob, 20 + 5 * n_present)[0]
    payload_at = 20 + 5 * n_present + 16 + 8 * n_blocks
    for _ in range(24):
        raw = bytearray(blob)
        raw[int(rng.integers(payload_at, len(raw)))] ^= 1 << int(rng.integers(8))
        cases.append(bytes(raw))
    # an incomplete (tampered) code table whose last code runs past the
    # payload end: zero padding completes it and the decode fails truncated
    cases.append(
        b"HUF1" + struct.pack("<QII", 8, 4096, 2)
        + np.array([0, 1], np.uint32).tobytes() + bytes([1, 2])
        + struct.pack("<QQ", 1, 8) + bytes(8) + b"\x01"
    )
    for bad in cases:
        assert_paths_agree(monkeypatch, lambda: codec.decode(bad))
        assert_paths_agree(monkeypatch, lambda: codec.decode_many([blob, bad]))


def _sample(shape, seed, wrap=False):
    rng = np.random.default_rng(seed)
    q = np.rint(rng.normal(0, 3, shape)).astype(np.int64)
    if wrap:
        q *= 1 << 61  # neighbour sums overflow int64 and must wrap alike
    q[rng.random(shape) < 0.05] = SENTINEL
    return q


QP_SHAPES = [(40,), (9, 11), (6, 7, 8), (3, 4, 5, 6), (2, 3, 4, 5, 3), (5, 1, 7)]


@pytest.mark.parametrize("shape", QP_SHAPES, ids=str)
@pytest.mark.parametrize("wrap", [False, True], ids=["small", "wrapping"])
def test_qp_inverse(monkeypatch, shape, wrap):
    for k, (dim, cond) in enumerate(itertools.product(QP_DIMENSIONS, QP_CONDITIONS)):
        q = _sample(shape, k, wrap)
        cfg = QPConfig(dimension=dim, condition=cond)
        coded = qp_forward(q, SENTINEL, cfg, level=1)
        out = assert_paths_agree(
            monkeypatch, lambda: qp_inverse(coded, SENTINEL, cfg, level=1)
        )
        assert np.array_equal(out[0], q), (dim, cond)
        # arbitrary (not forward-coded) input, as a corrupt stream gives
        noise = np.random.default_rng(k).integers(
            np.iinfo(np.int64).min, np.iinfo(np.int64).max, shape,
            dtype=np.int64, endpoint=True,
        )
        assert_paths_agree(
            monkeypatch, lambda: qp_inverse(noise, SENTINEL, cfg, level=1)
        )


@pytest.mark.parametrize("shape", [(9, 11), (6, 7, 8), (3, 4, 5, 6)], ids=str)
def test_qp_inverse_multi(monkeypatch, shape):
    for k, (dim, cond) in enumerate(itertools.product(QP_DIMENSIONS, QP_CONDITIONS)):
        cfg = QPConfig(dimension=dim, condition=cond)
        qs = [_sample(shape, 10 * k + i) for i in range(3)]
        parts = [qp_forward(q, SENTINEL, cfg, level=1) for q in qs]
        out = assert_paths_agree(
            monkeypatch, lambda: qp_inverse_multi(parts, SENTINEL, cfg, level=1)
        )
        assert np.array_equal(out[0], np.stack(qs)), (dim, cond)


# -- encode side ---------------------------------------------------------------


def assert_encodes_agree(monkeypatch, fn):
    """Run ``fn`` natively and on numpy; both must give identical bytes."""
    native = fn()
    with monkeypatch.context() as m:
        m.setattr(kernels, "_lib", None)
        fallback = fn()
    assert native == fallback
    return native


def _fibonacci_stream(n_symbols, seed=0):
    counts = [1, 1]
    while len(counts) < n_symbols:
        counts.append(counts[-1] + counts[-2])
    sym = np.repeat(np.arange(n_symbols), counts)
    np.random.default_rng(seed).shuffle(sym)
    return sym


@pytest.mark.parametrize("block_size", [1, 64, 4096, 97])
def test_huffman_encode_block_sizes(monkeypatch, block_size):
    rng = np.random.default_rng(block_size)
    codec = HuffmanCodec(block_size=block_size)
    for n, scale in ((1, 1.0), (97, 0.5), (4097, 5.0), (20000, 300.0)):
        sym = _skewed(rng, n, scale)
        blob = assert_encodes_agree(monkeypatch, lambda: codec.encode(sym))
        assert np.array_equal(codec.decode(blob), sym)


@pytest.mark.parametrize(
    "sym",
    [
        np.full(1000, 7),
        np.array([3, 9] * 50 + [9]),
        # 25 Fibonacci counts give a 24-deep optimal tree: the 20-bit limit
        # takes the halving loop
        _fibonacci_stream(25),
        np.random.default_rng(3).permutation(np.arange(65535) * 3 % 65535),
        np.random.default_rng(4).integers(0, 256, 5000).astype(np.uint8),
        np.random.default_rng(5).integers(0, 70000, 5000).astype(np.int32),
    ],
    ids=["single-symbol", "two-symbols", "halving-loop", "alphabet-65535",
         "uint8", "int32"],
)
def test_huffman_encode_streams(monkeypatch, sym):
    codec = HuffmanCodec(block_size=509)
    blob = assert_encodes_agree(monkeypatch, lambda: codec.encode(sym))
    assert np.array_equal(codec.decode(blob), sym)


def test_huffman_encode_halving_stream_needs_the_loop():
    freqs = np.bincount(_fibonacci_stream(25))
    assert _huffman_lengths_heap(freqs).max() > MAX_CODE_LEN
    blob = HuffmanCodec().encode(_fibonacci_stream(25))
    assert _parse_container(blob)[5][2] <= MAX_CODE_LEN


def test_huffman_encode_rejects_negative_symbols(monkeypatch):
    sym = np.array([0, 4, -1, 2])
    with pytest.raises(ValueError, match="non-negative"):
        HuffmanCodec().encode(sym)
    with monkeypatch.context() as m:
        m.setattr(kernels, "_lib", None)
        with pytest.raises(ValueError, match="non-negative"):
            HuffmanCodec().encode(sym)


@pytest.mark.parametrize("seed", range(8))
def test_huffman_code_lengths_kernel(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5000))
    # few distinct values: many (frequency) ties, broken by node id
    freqs = rng.integers(1, 1 + 4 ** (seed % 4), m).astype(np.int64)
    lens = _huffman_lengths_native(kernels.native(), freqs)
    assert np.array_equal(lens, _huffman_lengths_heap(freqs))


def _engine_views(q):
    """``q`` and the moved-axis views the engine passes (interpolation axis
    first, read through the strides of the untransposed array)."""
    yield q
    for axis in range(1, q.ndim):
        yield np.moveaxis(np.ascontiguousarray(np.moveaxis(q, 0, axis)), axis, 0)
    if q.ndim >= 2:
        yield q[::-1, ..., ::2]  # negative and non-unit strides


@pytest.mark.parametrize("shape", QP_SHAPES, ids=str)
@pytest.mark.parametrize("wrap", [False, True], ids=["small", "wrapping"])
def test_qp_forward(monkeypatch, shape, wrap):
    for k, (dim, cond) in enumerate(itertools.product(QP_DIMENSIONS, QP_CONDITIONS)):
        q = _sample(shape, 100 + k, wrap)
        if wrap:
            # neighbours right at the edges of int64
            q.flat[::7] = np.iinfo(np.int64).max
            q.flat[3::11] = np.iinfo(np.int64).min
        cfg = QPConfig(dimension=dim, condition=cond)
        for view in _engine_views(q):
            out = assert_paths_agree(
                monkeypatch, lambda: qp_forward(view, SENTINEL, cfg, level=1)
            )
            if out[0] is not view:  # QP applied at this rank
                assert out[0].flags.c_contiguous
                assert np.array_equal(
                    qp_inverse(out[0], SENTINEL, cfg, level=1), view
                ), (dim, cond)
