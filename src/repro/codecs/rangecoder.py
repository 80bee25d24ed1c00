"""Adaptive binary range coder (SZ3's alternative entropy stage).

Real SZ3 ships an arithmetic encoder beside Huffman; this module provides
the equivalent: a carry-less binary range coder with an adaptive bit model,
coding each symbol's unary-exponential (Elias-gamma-like) binarization.  It
beats Huffman on very skewed index distributions (no 1-bit-per-symbol floor)
at the cost of strictly sequential decoding — which is why Huffman remains
the default stage and this coder an option (mirroring SZ3's choice).

The implementation favours clarity over raw speed; both directions are
O(bits) Python loops over *binarized* symbols, so keep inputs to the ~1e5
symbol range (tests/benchmarks scale accordingly).
"""
from __future__ import annotations

import struct
import zlib

import numpy as np

from ..errors import CorruptBlobError, IntegrityError, TruncatedStreamError

__all__ = ["RangeCodec"]

_MASK32 = 0xFFFFFFFF
_TOP = 1 << 24
_BOT = 1 << 16
#: the container carries a CRC32 of the decoded symbol bytes, because an
#: adaptive arithmetic stream has no internal redundancy — without the
#: checksum a flipped payload bit decodes to plausible garbage silently
_MAGIC = b"RNG2"

#: decoder slack past the payload before declaring truncation (the encoder's
#: flush emits exactly 4 tail bytes; anything further means bytes are missing)
_TAIL_SLACK = 8

#: ceiling on symbols per payload byte: the adaptive model's probability
#: floor caps legitimate streams near ~700 symbols/byte, so anything beyond
#: this is a corrupt count field, not data (and would loop for minutes)
_MAX_SYMBOLS_PER_BYTE = 4096

# adaptive bit model parameters
_PROB_BITS = 12
_PROB_ONE = 1 << _PROB_BITS
_ADAPT = 5


class _Encoder:
    """Subbotin carry-less range encoder (32-bit low/range)."""

    def __init__(self) -> None:
        self.low = 0
        self.range = _MASK32
        self.out = bytearray()

    def encode_bit(self, prob_zero: int, bit: int) -> None:
        split = (self.range >> _PROB_BITS) * prob_zero
        if bit == 0:
            self.range = split
        else:
            self.low = (self.low + split) & _MASK32
            self.range -= split
        self._normalize()

    def _normalize(self) -> None:
        while True:
            if ((self.low ^ (self.low + self.range)) & _MASK32) < _TOP:
                pass  # top byte settled: emit
            elif self.range < _BOT:
                self.range = (-self.low) & (_BOT - 1)  # force emission
            else:
                break
            self.out.append((self.low >> 24) & 0xFF)
            self.low = (self.low << 8) & _MASK32
            self.range = (self.range << 8) & _MASK32

    def finish(self) -> bytes:
        for _ in range(4):
            self.out.append((self.low >> 24) & 0xFF)
            self.low = (self.low << 8) & _MASK32
        return bytes(self.out)


class _Decoder:
    """Mirror of :class:`_Encoder`."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 4
        self.low = 0
        self.range = _MASK32
        self.code = int.from_bytes(data[:4].ljust(4, b"\x00"), "big")

    def decode_bit(self, prob_zero: int) -> int:
        split = (self.range >> _PROB_BITS) * prob_zero
        if ((self.code - self.low) & _MASK32) < split:
            bit = 0
            self.range = split
        else:
            bit = 1
            self.low = (self.low + split) & _MASK32
            self.range -= split
        self._normalize()
        return bit

    def _normalize(self) -> None:
        while True:
            if ((self.low ^ (self.low + self.range)) & _MASK32) < _TOP:
                pass
            elif self.range < _BOT:
                self.range = (-self.low) & (_BOT - 1)
            else:
                break
            if self.pos < len(self.data):
                nxt = self.data[self.pos]
            elif self.pos < len(self.data) + _TAIL_SLACK:
                nxt = 0
            else:
                raise TruncatedStreamError("range-coded stream exhausted")
            self.pos += 1
            self.code = ((self.code << 8) | nxt) & _MASK32
            self.low = (self.low << 8) & _MASK32
            self.range = (self.range << 8) & _MASK32


class _BitModel:
    """Per-context adaptive probability of a zero bit."""

    def __init__(self, n_contexts: int) -> None:
        self.p = [_PROB_ONE // 2] * n_contexts

    def encode(self, enc: _Encoder, ctx: int, bit: int) -> None:
        p = self.p[ctx]
        enc.encode_bit(p, bit)
        self._adapt(ctx, bit)

    def decode(self, dec: _Decoder, ctx: int) -> int:
        bit = dec.decode_bit(self.p[ctx])
        self._adapt(ctx, bit)
        return bit

    def _adapt(self, ctx: int, bit: int) -> None:
        p = self.p[ctx]
        if bit == 0:
            self.p[ctx] = p + ((_PROB_ONE - p) >> _ADAPT)
        else:
            self.p[ctx] = p - (p >> _ADAPT)


_N_MAG_CTX = 72  # unary length contexts (covers 64-bit zigzag magnitudes)
#: longest zigzag magnitude an int64 symbol can have; a longer unary length
#: prefix can only come from a corrupt stream
_MAX_MAG_BITS = 64


class RangeCodec:
    """Adaptive range coder over signed integers.

    Binarization per symbol: unary-coded bit-length of the zigzag magnitude
    (each unary position has its own adaptive context) followed by the
    magnitude's payload bits under per-position contexts.  Skewed
    quantization-index streams spend well under a bit per symbol.
    """

    def encode(self, symbols: np.ndarray) -> bytes:
        symbols = np.ascontiguousarray(symbols).ravel().astype(np.int64)
        zz = np.where(symbols >= 0, 2 * symbols, -2 * symbols - 1).astype(np.uint64)
        enc = _Encoder()
        length_model = _BitModel(_N_MAG_CTX)
        payload_model = _BitModel(_N_MAG_CTX)
        for v in zz.tolist():  # sequential by nature of arithmetic coding
            nbits = v.bit_length()
            for i in range(nbits):
                length_model.encode(enc, i, 1)
            length_model.encode(enc, nbits, 0)
            for i in range(nbits - 2, -1, -1):  # MSB is implicit
                payload_model.encode(enc, i, (v >> i) & 1)
        payload = enc.finish()
        crc = zlib.crc32(symbols.tobytes()) & 0xFFFFFFFF
        return _MAGIC + struct.pack("<QI", symbols.size, crc) + payload

    def decode(self, data: bytes) -> np.ndarray:
        """Decode an ``RNG2`` range-coded container.

        The CRC32 of the symbol array is verified after decoding — the only
        way to catch a mid-payload bit flip in an adaptive arithmetic
        stream.  All failures are typed and bounded: the symbol count is
        sanity-capped against the payload size so a tampered header cannot
        drive an hours-long decode loop.
        """
        if data[:4] != _MAGIC:
            raise CorruptBlobError("not an RNG2 range-coder container")
        if len(data) < 16:
            raise TruncatedStreamError("range-coder container truncated")
        n, crc = struct.unpack_from("<QI", data, 4)
        body = data[16:]
        if n > _MAX_SYMBOLS_PER_BYTE * max(len(body), 1):
            raise CorruptBlobError(
                f"range-coder container declares {n} symbols for "
                f"{len(body)} payload bytes"
            )
        dec = _Decoder(body)
        length_model = _BitModel(_N_MAG_CTX)
        payload_model = _BitModel(_N_MAG_CTX)
        out = np.empty(n, dtype=np.int64)
        for j in range(n):
            nbits = 0
            while length_model.decode(dec, nbits) == 1:
                nbits += 1
                if nbits > _MAX_MAG_BITS:
                    raise CorruptBlobError(
                        f"range-coded magnitude longer than {_MAX_MAG_BITS} bits"
                    )
            if nbits == 0:
                v = 0
            else:
                v = 1
                for i in range(nbits - 2, -1, -1):
                    v = (v << 1) | payload_model.decode(dec, i)
            out[j] = (v >> 1) if (v & 1) == 0 else -((v + 1) >> 1)
        if (zlib.crc32(out.tobytes()) & 0xFFFFFFFF) != crc:
            raise IntegrityError("range-coded stream CRC32 mismatch")
        return out
