"""The native kernels against their numpy reference.

Every case runs on both paths: the C library and the numpy loops (forced
by swapping the loader's handle).  Decodes must return identical arrays,
or both must raise a typed :class:`~repro.errors.ReproError` of the same
class; encodes must return identical bytes or arrays.  The float stages
(quantizers, midpoint fill, Lorenzo and SZ3's predictor-selection
estimates) must agree byte for byte, NaN payloads and signed zeros
included, over float32 and float64, ranks 1-4 and contiguous, strided
and transposed views.
"""
import ctypes
import itertools
import struct

import numpy as np
import pytest

from repro import kernels
from repro.codecs import huffman, lossless
from repro.codecs.huffman import (
    MAX_CODE_LEN,
    HuffmanCodec,
    IndexWindow,
    _huffman_lengths_heap,
    _huffman_lengths_native,
    _parse_container,
)
from repro.compressors import base, sz3
from repro.compressors.base import Blob, decode_index_stream, encode_index_stream
from repro.compressors.sz3 import SZ3
from repro.core import QP_CONDITIONS, QP_DIMENSIONS, QPConfig, qp_forward, qp_inverse
from repro.core.qp import qp_inverse_multi
from repro.errors import CorruptBlobError, ReproError, TruncatedStreamError
from repro.predictors import interpolation, lorenzo
from repro.predictors.interpolation import predict_midpoints
from repro.predictors.lorenzo import LorenzoResult, lorenzo_decode, lorenzo_encode
from repro.quantize import adaptive
from repro.quantize.adaptive import AdaptiveLinearQuantizer
from repro.quantize.linear import LinearQuantizer, QuantResult
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
    # the parts sit in the rows of a wider buffer, as a stacked decode
    # hands them over; they are inverted in place and nothing beside them
    # in the buffer changes
    n = int(np.prod(shape))
    for k, (dim, cond) in enumerate(itertools.product(QP_DIMENSIONS, QP_CONDITIONS)):
        cfg = QPConfig(dimension=dim, condition=cond)
        qs = np.stack([_sample(shape, 10 * k + i) for i in range(3)])
        coded = np.stack([qp_forward(q, SENTINEL, cfg, level=1) for q in qs])

        def invert():
            buf = np.full((3, n + 5), 7, dtype=np.int64)
            view = buf[:, 2:2 + n].reshape(coded.shape)
            view[...] = coded
            assert qp_inverse_multi(view, SENTINEL, cfg, level=1) is view
            return buf

        out = assert_paths_agree(monkeypatch, invert)
        assert np.array_equal(out[0][:, 2:2 + n].reshape(qs.shape), qs), (dim, cond)
        assert (out[0][:, :2] == 7).all() and (out[0][:, 2 + n:] == 7).all()


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


# -- index-stream framing -------------------------------------------------------

_I64 = np.iinfo(np.int64)


def _framing_streams():
    rng = np.random.default_rng(11)
    bulk = np.rint(rng.normal(0, 3, 5000)).astype(np.int64)
    two_sided = bulk.copy()
    # below the window, the sentinel (one below it) and above it; in blocks
    # of 7, positions 5 and 7 sit in neighbouring blocks, which the C
    # decoder walks side by side and so meets 7 first
    two_sided[[5, 7, 900, 2500, 4000]] = [-40000, 70000, -32768, 200000, -99999]
    at_escape = np.zeros(301, dtype=np.int64)
    # the median is 0, so the offset is -32767 and this value's windowed
    # code is the escape symbol itself
    at_escape[150] = huffman._ESCAPE - huffman._MEDIAN_SLOT
    cap = huffman._MEDIAN_RANGE_CAP
    return {
        "empty": np.empty(0, dtype=np.int64),
        "single-value": np.array([-5]),
        "all-sentinels": np.full(3000, -32768),
        "escapes-both-sides": two_sided,
        "value-at-escape-symbol": at_escape,
        "range-at-cap": np.concatenate([[0, cap], bulk[:200] + 9]),
        "range-past-cap": np.concatenate([[0, cap + 1], bulk[:200] + 9]),
        "int64-extremes": np.array([_I64.min, _I64.max, 0, 1, -1, 2] * 30),
        "near-int64-max": _I64.max - rng.integers(0, 70000, 2000),
        "near-int64-min": _I64.min + 40000 + rng.integers(0, 70000, 2000),
    }


FRAMING_STREAMS = _framing_streams()


@pytest.mark.parametrize("block_size", [1, 7, 4096])
@pytest.mark.parametrize("name", sorted(FRAMING_STREAMS))
def test_index_stream_framing(monkeypatch, name, block_size):
    stream = FRAMING_STREAMS[name]
    # the C path takes every non-empty stream within the range cap
    fused = stream.size > 0 and name != "range-past-cap" and name != "int64-extremes"
    windowed_in_c = huffman._choose_window(kernels.native(), stream)[1] is not None
    assert windowed_in_c == fused
    blob = assert_encodes_agree(
        monkeypatch, lambda: encode_index_stream(stream, block_size=block_size)
    )
    out = assert_paths_agree(monkeypatch, lambda: decode_index_stream(blob))
    assert np.array_equal(out[0], stream)

    def into_row():
        # one row of a wider buffer, as a stacked decode hands it over
        buf = np.full((2, stream.size + 3), 7, dtype=np.int64)
        row = buf[1, 1:1 + stream.size]
        assert decode_index_stream(blob, out=row) is row
        return buf

    buf = assert_paths_agree(monkeypatch, into_row)[0]
    assert np.array_equal(buf[1, 1:1 + stream.size], stream)
    assert (buf[0] == 7).all() and buf[1, 0] == 7 and (buf[1, -2:] == 7).all()
    # a row of another length is refused before anything is written
    short = np.full(stream.size + 1, 7, dtype=np.int64)
    assert assert_paths_agree(
        monkeypatch, lambda: decode_index_stream(blob, out=short)
    ) is None
    assert (short == 7).all()


def test_index_stream_offset_below_int64_is_refused(monkeypatch):
    # a median (a float64, 2048 apart down there) within _MEDIAN_SLOT of
    # INT64_MIN would put the window's offset below int64: both paths
    # refuse the stream with the same ValueError; a median a little
    # higher, both code, with escapes on both sides of the window
    low = _I64.min + 40000
    errors = []
    for lib in (kernels.native(), None):
        with monkeypatch.context() as m:
            m.setattr(kernels, "_lib", lib)
            for stream in (np.full(10, _I64.min), np.full(10, _I64.min + 30000)):
                with pytest.raises(ValueError, match="does not fit in int64") as info:
                    encode_index_stream(stream)
                errors.append(str(info.value))
    assert errors[:2] == errors[2:]
    stream = np.array([low, low, _I64.min, low + 70000, low])
    blob = assert_encodes_agree(monkeypatch, lambda: encode_index_stream(stream))
    out = assert_paths_agree(monkeypatch, lambda: decode_index_stream(blob))
    assert np.array_equal(out[0], stream)


def test_huffman_window_encode(monkeypatch):
    # HuffmanCodec.encode(window=) chooses the window and codes through it
    # on either path (the C packer as it codes, numpy before), and decode
    # through that window gives the stream back
    stream = FRAMING_STREAMS["escapes-both-sides"]
    windows = []

    def encode():
        windows.append(IndexWindow())
        return HuffmanCodec(block_size=61).encode(stream, window=windows[-1])

    blob = assert_encodes_agree(monkeypatch, encode)
    native, fallback = windows
    assert native.offset == fallback.offset
    assert np.array_equal(native.escaped, fallback.escaped)
    codes = stream - native.offset
    assert np.array_equal(
        native.escaped, codes[(codes < 0) | (codes >= huffman._ESCAPE)]
    )
    out = assert_paths_agree(monkeypatch, lambda: HuffmanCodec().decode(
        blob, window=IndexWindow(native.offset, native.escaped)
    ))
    assert np.array_equal(out[0], stream)
    # the encode sets both fields, also for an empty stream
    window = IndexWindow(5, np.arange(3))
    HuffmanCodec().encode(np.empty(0, dtype=np.int64), window=window)
    assert window.offset == 0 and window.escaped.size == 0


def test_native_pack_refuses_frequencies_of_another_stream():
    # the C packer writes nothing past the payload its caller sized, and
    # reports a stream that does not match the frequencies it was sized by
    lib = kernels.native()
    symbols = np.zeros(1000, dtype=np.int64)
    freqs = np.array([1, 1])  # two symbols: a one-byte payload
    lengths = huffman.huffman_code_lengths(freqs)
    codes = huffman.canonical_codes(lengths)
    guard = np.full(64, 0xAA, dtype=np.uint8)
    offsets = np.empty(1, dtype=np.uint64)
    met = lib.repro_huffman_encode(
        symbols.ctypes.data, symbols.size, codes.ctypes.data,
        lengths.ctypes.data, 4096, guard.ctypes.data, 1, offsets.ctypes.data,
        0, -1, 0, 0,
    )
    assert met == -1 and (guard[1:] == 0xAA).all()
    with pytest.raises(ValueError, match="do not match the symbols"):
        huffman._encode_native(lib, symbols, freqs, lengths, codes, 4096, None)
    # frequencies that leave out an escape
    stream = FRAMING_STREAMS["escapes-both-sides"]
    offset, freqs = huffman._choose_window(lib, stream)
    freqs = freqs.copy()
    freqs[huffman._ESCAPE] -= 1
    freqs[0] += 1
    lengths = huffman.huffman_code_lengths(freqs)
    codes = huffman.canonical_codes(lengths)
    with pytest.raises(ValueError, match="do not match the symbols"):
        huffman._encode_native(lib, stream, freqs, lengths, codes, 4096, offset)


def _index_sections(blob):
    head = struct.calcsize("<BqQ")
    plen = struct.unpack_from("<BqQ", blob)[2]
    return blob[:head + plen], blob[head + plen:]


@pytest.mark.parametrize("change", [-1, 1], ids=["one-too-few", "one-too-many"])
def test_index_stream_escape_count_mismatch(monkeypatch, change):
    stream = FRAMING_STREAMS["escapes-both-sides"]
    framed, escapes = _index_sections(encode_index_stream(stream))
    esc = base._decode_escapes(escapes)
    esc = esc[:-1] if change < 0 else np.append(esc, esc[-1])
    bad = framed + lossless.compress(sz3.encode_fixed(base._zigzag(esc)))
    out = np.zeros(stream.size, dtype=np.int64)
    for decode in (lambda: decode_index_stream(bad),
                   lambda: decode_index_stream(bad, out=out)):
        assert assert_paths_agree(monkeypatch, decode) is None
        with pytest.raises(CorruptBlobError, match="escape count mismatch"):
            decode()


def test_index_stream_damaged_in_both_sections(monkeypatch):
    # the escapes section is read before the Huffman payload now, yet a
    # stream whose two sections are both damaged still raises the
    # payload's error, as when the payload was decoded first
    stream = FRAMING_STREAMS["escapes-both-sides"]
    framed, _ = _index_sections(encode_index_stream(stream))
    head = struct.calcsize("<BqQ")
    entropy_id, offset, _ = struct.unpack_from("<BqQ", framed)
    container = lossless.decompress(framed[head:])
    payload = lossless.compress(container[:len(container) // 2])
    bad = (struct.pack("<BqQ", entropy_id, offset, len(payload)) + payload
           + b"not an escapes section")
    assert assert_paths_agree(monkeypatch, lambda: decode_index_stream(bad)) is None
    with pytest.raises(TruncatedStreamError):
        decode_index_stream(bad)
    # with the payload intact the escapes section's own error shows
    good_payload = framed + b"not an escapes section"
    with pytest.raises(CorruptBlobError) as info:
        decode_index_stream(good_payload)
    assert not isinstance(info.value, TruncatedStreamError)


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


# -- float stages --------------------------------------------------------------

FLOAT_DTYPES = [np.float32, np.float64]
RANKS = [1, 2, 3, 4]
LAYOUTS = ["contiguous", "strided", "transposed"]

#: the numpy code each float-stage kernel replaces (Lorenzo's integer half
#: and the stacked Lorenzo decode included); the native run must reach
#: none of it, the forced-numpy run must reach it
NUMPY_FLOAT_CODE = [
    (LinearQuantizer, "_quantize_numpy"),
    (LinearQuantizer, "_dequantize_numpy"),
    (adaptive, "adaptive_encode"),
    (adaptive, "adaptive_decode"),
    (interpolation, "_linear_fill"),
    (interpolation, "_cubic_fill"),
    (lorenzo, "_encode_numpy"),
    (lorenzo, "_integrate_numpy"),
    (sz3, "_integrate_stack_numpy"),
    (sz3, "_pass_entropy"),
]


def float_paths(monkeypatch, fn):
    """``fn()`` on the C kernels, then on numpy; returns both results."""
    calls = []
    with monkeypatch.context() as m:
        for owner, name in NUMPY_FLOAT_CODE:
            real = getattr(owner, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            m.setattr(owner, name, spy)
        with np.errstate(all="ignore"):
            native = fn()
            assert not calls, f"the native run reached {calls}"
            m.setattr(kernels, "_lib", None)
            fallback = fn()
        assert calls
    return native, fallback


def assert_same_bytes(a, b):
    if isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_bytes(x, y)
        return
    if isinstance(a, QuantResult):
        assert_same_bytes((a.indices, a.decoded, a.literals),
                          (b.indices, b.decoded, b.literals))
        return
    if isinstance(a, LorenzoResult):
        assert_same_bytes((a.indices, a.escapes, a.sentinel, a.step),
                          (b.indices, b.escapes, b.sentinel, b.step))
        return
    if isinstance(a, float):  # bit for bit
        assert struct.pack("<d", a) == struct.pack("<d", b)
        return
    if not isinstance(a, np.ndarray):
        assert a == b
        return
    # bytes, so NaN payloads and the sign of zero count too
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _view(rng, dtype, rank, layout, scale):
    """Random finite values in (-scale, scale), ``rank`` axes of 1 to 6
    points in ``layout``: C-contiguous, every other element of a larger
    array, or the transpose of a C-contiguous array."""
    shape = tuple(int(n) for n in rng.integers(1, 7, rank))
    big = (rng.uniform(-1, 1, tuple(2 * n + 1 for n in shape)) * scale).astype(dtype)
    if layout == "contiguous":
        return np.ascontiguousarray(big[tuple(slice(0, n) for n in shape)])
    if layout == "strided":
        return big[tuple(slice(1, None, 2) for _ in shape)]
    return np.ascontiguousarray(big[tuple(slice(0, n) for n in shape[::-1])]).T


def _scales(dtype):
    """Magnitudes: ordinary, and near the float maximum, where sums
    overflow to inf and the cubic fill makes NaN."""
    return (1.0, float(np.finfo(dtype).max) / 1.5)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("rank", RANKS)
@pytest.mark.parametrize("dtype", FLOAT_DTYPES, ids=["f32", "f64"])
def test_fill(monkeypatch, dtype, rank, layout):
    rng = np.random.default_rng(rank * 10 + LAYOUTS.index(layout))
    for scale in _scales(dtype):
        for _ in range(3):
            known = _view(rng, dtype, rank, layout, scale)
            for axis, method in itertools.product(range(rank), ("linear", "cubic")):
                nk = known.shape[axis]
                for n_targets in {max(nk - 1, 0), nk}:
                    native, fallback = float_paths(
                        monkeypatch,
                        lambda: predict_midpoints(known, n_targets, method, axis),
                    )
                    assert_same_bytes(native, fallback)
                    assert native.flags.c_contiguous


def _predictions(rng, values, eb, bounds):
    """Predictions off by about ``bounds`` error bounds plus 0.1% of the
    value, so a tiny bound or a huge value makes every inexact point a
    literal; a third of them exact and a few infinite or NaN (an
    overflowed fill)."""
    spread = np.abs(values) * 1e-3 + eb * bounds
    preds = (values + spread * rng.standard_normal(values.shape)).astype(values.dtype)
    flat = preds.reshape(-1)  # a copy: preds is C-contiguous, values need not be
    flat[::3] = values.reshape(-1)[::3]  # exact predictions
    if flat.size > 7:
        flat[5] = np.inf
        flat[7] = np.nan
    return flat.reshape(values.shape)


def _quantizer_cases(dtype):
    """(error bound, radius) pairs, literal-heavy ones included: radius
    2-4, and a bound so small every inexact point is a literal."""
    tiny = float(np.finfo(dtype).tiny) * 8
    return [(1e-2, 32768), (1e-3, 2), (1e-1, 3), (1e-2, 4), (tiny, 32768)]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("rank", RANKS)
@pytest.mark.parametrize("dtype", FLOAT_DTYPES, ids=["f32", "f64"])
def test_linear_quantizer(monkeypatch, dtype, rank, layout):
    rng = np.random.default_rng(100 + rank * 10 + LAYOUTS.index(layout))
    for scale in _scales(dtype):
        for eb, radius in _quantizer_cases(dtype):
            values = _view(rng, dtype, rank, layout, scale)
            preds = _predictions(rng, values, eb, 300)
            quant = LinearQuantizer(eb, radius)
            native, fallback = float_paths(
                monkeypatch, lambda: quant.quantize(values, preds)
            )
            assert_same_bytes(native, fallback)
            # decode the result, and its indices read as the engine reads
            # them: through the moved-axis view of a contiguous stream
            indices = np.moveaxis(
                np.ascontiguousarray(np.moveaxis(native.indices, -1, 0)), 0, -1
            )
            decoded, again = float_paths(
                monkeypatch,
                lambda: quant.dequantize(indices, preds, native.literals),
            )
            assert_same_bytes(decoded, again)
            assert_same_bytes(decoded, native.decoded)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("rank", RANKS)
@pytest.mark.parametrize("dtype", FLOAT_DTYPES, ids=["f32", "f64"])
def test_adaptive_quantizer(monkeypatch, dtype, rank, layout):
    rng = np.random.default_rng(200 + rank * 10 + LAYOUTS.index(layout))
    for scale in _scales(dtype):
        for (eb, radius), (bits, threshold) in zip(
            _quantizer_cases(dtype), [(2, 4), (1, 1), (3, 2), (8, 16), (3, 2)]
        ):
            radius = max(radius, 4 << bits)
            values = _view(rng, dtype, rank, layout, scale)
            preds = _predictions(rng, values, eb, 30)
            quant = AdaptiveLinearQuantizer(
                eb, radius, bits=bits, threshold=threshold
            )

            def encode():
                res = quant.quantize(values, preds)
                return res, quant.last_adaptive

            native, fallback = float_paths(monkeypatch, encode)
            assert_same_bytes(native, fallback)
            res = native[0]
            decoded, again = float_paths(
                monkeypatch,
                lambda: quant.dequantize(res.indices.T.copy().T, preds, res.literals),
            )
            assert_same_bytes(decoded, again)
            assert_same_bytes(decoded, res.decoded)


@pytest.mark.parametrize("dtype", FLOAT_DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("quantizer", [LinearQuantizer, AdaptiveLinearQuantizer])
def test_decode_of_untrusted_indices(monkeypatch, dtype, quantizer):
    # any int64 may arrive from a corrupt stream: huge magnitudes, each
    # reserved band, the sentinel
    rng = np.random.default_rng(3)
    quant = quantizer(1e-3, 64)
    indices = rng.integers(-80, 80, (5, 6, 7))
    indices.flat[::5] = rng.integers(
        np.iinfo(np.int64).min, np.iinfo(np.int64).max, indices.size, endpoint=True
    )[::5]
    preds = rng.standard_normal(indices.shape).astype(dtype)
    literals = rng.standard_normal(int((indices == quant.sentinel).sum())).astype(dtype)
    native, fallback = float_paths(
        monkeypatch, lambda: quant.dequantize(indices, preds, literals)
    )
    assert_same_bytes(native, fallback)


@pytest.mark.parametrize("dtype", FLOAT_DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("quantizer", [LinearQuantizer, AdaptiveLinearQuantizer])
def test_decode_with_more_sentinels_than_literals(monkeypatch, dtype, quantizer):
    quant = quantizer(1e-2, 16)
    indices = np.zeros((6, 7), dtype=np.int64)
    indices[::2, ::3] = quant.sentinel  # 9 sentinels
    preds = np.zeros(indices.shape, dtype=dtype)
    errors = []
    for forced in (False, True):
        with monkeypatch.context() as m:
            if forced:
                m.setattr(kernels, "_lib", None)
            with pytest.raises(ValueError, match="literal count mismatch") as err:
                quant.dequantize(indices, preds, np.arange(4, dtype=dtype))
        errors.append(str(err.value))
    assert errors[0] == errors[1]

    # the kernel itself: past the 4 literals lie canaries it must not read
    name = "repro_dequantize" if quantizer is LinearQuantizer else "repro_adaptive_decode"
    fn = kernels.float_kernel(name, np.dtype(dtype))
    buf = np.full(9, -7.0, dtype=dtype)
    buf[:4] = np.arange(1, 5)
    out = np.full(indices.shape, 99.0, dtype=dtype)
    count = fn(
        kernels.address(indices),
        kernels.view_geometry(
            indices.shape, indices.strides, 8, out=(out.strides, out.itemsize)
        ),
        kernels.address(preds), kernels.address(buf), 4,
        ctypes.addressof(quant._params), kernels.address(out),
    )
    assert count == 9
    assert not (out == -7.0).any()
    assert out[indices == quant.sentinel].tolist() == [1, 2, 3, 4] + [99] * 5


def _misaligned(values):
    """A copy of the 1-D float32 ``values`` one byte off alignment."""
    raw = np.zeros(values.nbytes + 1, dtype=np.uint8)
    out = np.ndarray(values.shape, np.float32, raw.data, offset=1)
    out[...] = values
    assert not out.flags.aligned
    return out


def test_float_kernels_fall_back_on_arrays_they_cannot_walk(monkeypatch):
    # five axes that cannot merge into four, and misaligned values,
    # predictions or literals: the numpy code runs on both sides, with the
    # same results
    rng = np.random.default_rng(4)
    five = rng.standard_normal((3, 5, 4, 5, 6)).astype(np.float32)[:, ::2, :, ::2, ::2]
    assert kernels.view_geometry(five.shape, five.strides, 4) is None
    flat = rng.standard_normal(30).astype(np.float32)
    quant = LinearQuantizer(1e-2, 4)
    cases = [
        lambda: quant.quantize(five, five + np.float32(0.03)),
        lambda: predict_midpoints(five, 2, "cubic", 0),
        lambda: quant.quantize(_misaligned(flat), flat + np.float32(0.03)),
        lambda: quant.quantize(flat, _misaligned(flat + np.float32(0.03))),
        lambda: predict_midpoints(_misaligned(flat), 29, "cubic", 0),
    ]
    res = quant.quantize(flat, np.zeros_like(flat))
    assert res.literals.size
    cases += [
        lambda: quant.dequantize(res.indices, _misaligned(np.zeros_like(flat)),
                                 res.literals),
        lambda: quant.dequantize(res.indices, np.zeros_like(flat),
                                 _misaligned(res.literals)),
    ]
    for fn in cases:
        native = fn()
        with monkeypatch.context() as m:
            m.setattr(kernels, "_lib", None)
            assert_same_bytes(native, fn())


# -- Lorenzo and SZ3's predictor selection ---------------------------------------


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("rank", RANKS)
@pytest.mark.parametrize("dtype", FLOAT_DTYPES, ids=["f32", "f64"])
def test_lorenzo(monkeypatch, dtype, rank, layout):
    # radius 2-8 at a small bound makes most residuals escape
    rng = np.random.default_rng(300 + rank * 10 + LAYOUTS.index(layout))
    for radius, eb in itertools.product((2, 3, 8, 32768), (1e-3, 0.3)):
        data = _view(rng, dtype, rank, layout, 1.0)
        native, fallback = float_paths(
            monkeypatch, lambda: lorenzo_encode(data, eb, radius)
        )
        assert_same_bytes(native, fallback)
        result, recon = native
        decoded, again = float_paths(
            monkeypatch, lambda: lorenzo_decode(result, eb, dtype)
        )
        assert_same_bytes(decoded, again)
        assert_same_bytes(decoded, recon)


def _estimates(comp, data):
    """SZ3's two selection estimates, each path as the selection runs it."""
    table = sz3._IndexHistogram.for_radius(comp.radius)
    lorenzo_bpp, _ = comp._estimate_lorenzo_bpp(data, table)
    return lorenzo_bpp, comp._estimate_interp_bpp(data, table)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("rank", RANKS)
@pytest.mark.parametrize("dtype", FLOAT_DTYPES, ids=["f32", "f64"])
def test_selection_estimates(monkeypatch, dtype, rank, layout):
    rng = np.random.default_rng(400 + rank * 10 + LAYOUTS.index(layout))
    for radius, eb in itertools.product((2, 5, 8, 32768), (1e-3, 0.3)):
        data = _view(rng, dtype, rank, layout, 1.0)
        comp = SZ3(eb, radius=radius)
        native, fallback = float_paths(monkeypatch, lambda: _estimates(comp, data))
        assert_same_bytes(native, fallback)


@pytest.mark.parametrize(
    "field,eb,winner",
    [("layered_field", 1e-5, "lorenzo"), ("smooth_field", 1e-3, "interp")],
)
def test_selection_decisions_and_blobs(monkeypatch, request, field, eb, winner):
    data = request.getfixturevalue(field)
    comp = SZ3(eb)
    native, fallback = float_paths(monkeypatch, lambda: _estimates(comp, data))
    assert_same_bytes(native, fallback)
    assert ("lorenzo" if native[0] < native[1] else "interp") == winner
    blob, again = float_paths(monkeypatch, lambda: comp.compress(data))
    assert blob == again
    # float64 input takes the other instantiation of every kernel
    wide = data.astype(np.float64)
    native, fallback = float_paths(monkeypatch, lambda: _estimates(comp, wide))
    assert_same_bytes(native, fallback)


def test_lorenzo_scale_just_under_the_guard():
    # the public bound check stops at scales near 2**48 (float64); the
    # kernels' int64 arithmetic must still wrap like numpy's up to the
    # 2**60 guard, where rank-4 differences overflow
    rng = np.random.default_rng(5)
    shapes = [(40,), (6, 7, 8), (3, 4, 5, 6)]
    for dtype, shape in itertools.product(FLOAT_DTYPES, shapes):
        data = rng.uniform(-1, 1, shape).astype(dtype)
        step = float(np.abs(data).max()) / (2.0**60 * (1 - 1e-9))
        for radius in (2, 8, 32768):
            native = lorenzo._encode_native(data, step, radius, True)
            fallback = lorenzo._encode_numpy(data, step, radius, True)
            assert_same_bytes(native, fallback)
            assert native[0].escapes.size


def test_lorenzo_residual_of_int64_min(monkeypatch):
    # a rank-4 checkerboard of +-2**59 steps differences to 16 * 2**59,
    # which wraps to INT64_MIN: numpy's abs keeps it negative, so it is no
    # escape, and the histogram cannot bin it; the selection then falls
    # back to numpy's trial encoding, with the same estimate
    parity = np.indices((2, 2, 2, 2)).sum(axis=0) % 2
    data = np.where(parity, -1.0, 1.0)
    monkeypatch.setattr(lorenzo, "lorenzo_step", lambda d, eb: 2.0 ** -59)
    comp = SZ3(1e-3, radius=8)
    table = sz3._IndexHistogram.for_radius(comp.radius)
    assert lorenzo.lorenzo_histogram(data, 1e-3, 8, table.bins, table.bounds) is None
    table.take()
    result, _ = lorenzo_encode(data, 1e-3, 8)
    assert result.indices[1, 1, 1, 1] == np.iinfo(np.int64).min
    native = _estimates(comp, data)
    with monkeypatch.context() as m:
        m.setattr(kernels, "_lib", None)
        assert_same_bytes(native, _estimates(comp, data))


def test_too_small_a_bound_raises_on_both_paths(monkeypatch):
    data = np.linspace(1e3, 2e3, 64, dtype=np.float32).reshape(4, 16)
    for forced in (False, True):
        with monkeypatch.context() as m:
            if forced:
                m.setattr(kernels, "_lib", None)
            with pytest.raises(ValueError, match="representable resolution"):
                lorenzo_encode(data, 1e-6)
            with pytest.raises(ValueError, match="representable resolution"):
                SZ3(1e-6)._estimate_lorenzo_bpp(data)
            assert SZ3(1e-6)._select_predictor(data) == "interp"


@pytest.mark.parametrize("dtype", FLOAT_DTYPES, ids=["f32", "f64"])
def test_lorenzo_decode_of_untrusted_indices(monkeypatch, dtype):
    # any int64 may arrive from a corrupt stream; sums wrap alike, and a
    # sentinel count other than the escape count raises the same error
    rng = np.random.default_rng(6)
    indices = rng.integers(-80, 80, (5, 6, 7))
    indices.flat[::5] = rng.integers(
        np.iinfo(np.int64).min, np.iinfo(np.int64).max, indices.size, endpoint=True
    )[::5]
    indices.flat[::9] = -8
    n = int((indices == -8).sum())
    for n_esc in (n, n - 1, n + 1, 0):
        escapes = rng.integers(-(1 << 62), 1 << 62, n_esc)
        result = LorenzoResult(indices, escapes, sentinel=-8, step=0.01)
        errors = []
        for forced in (False, True):
            with monkeypatch.context() as m:
                if forced:
                    m.setattr(kernels, "_lib", None)
                try:
                    errors.append(lorenzo_decode(result, 0.01, dtype))
                except ValueError as exc:
                    errors.append(str(exc))
        if n_esc == n:
            assert_same_bytes(errors[0], errors[1])
        else:
            assert errors == ["escape count mismatch"] * 2


def _lorenzo_blobs(n, radius, seed):
    rng = np.random.default_rng(seed)
    comp = SZ3(1e-3, predictor="lorenzo", radius=radius)
    data = np.cumsum(rng.normal(0, 0.05, (n, 6, 7, 8)), axis=1).astype(np.float32)
    return comp, [comp.compress(d) for d in data]


def test_stacked_lorenzo_decode(monkeypatch):
    # equal-geometry Lorenzo blobs decode as one stack; a slab whose
    # escape stream is one short must fail alike on both paths
    comp, blobs = _lorenzo_blobs(3, 4, 7)
    out = assert_paths_agree(monkeypatch, lambda: comp.decompress_many(blobs))
    for blob, arr in zip(blobs, out):
        assert_same_bytes(arr, comp.decompress(blob))
    blob = Blob.from_bytes(blobs[1])
    escapes = sz3._unzigzag(
        sz3.decode_fixed(lossless.decompress(blob.sections["escapes"]))
    )
    assert escapes.size
    blob.sections["escapes"] = lossless.compress(
        sz3.encode_fixed(sz3._zigzag(escapes[:-1]))
    )
    bad = [blobs[0], blob.to_bytes(), blobs[2]]
    assert assert_paths_agree(monkeypatch, lambda: comp.decompress_many(bad)) is None
