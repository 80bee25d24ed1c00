"""Bit-level I/O used by the entropy coders.

The writers/readers operate on NumPy bit arrays internally so that bulk
operations (appending thousands of variable-length codes) stay vectorized;
per-bit Python loops are avoided everywhere except tiny headers.
"""
from __future__ import annotations

import numpy as np

from ..errors import TruncatedStreamError

__all__ = ["BitWriter", "BitReader", "pack_bits", "unpack_bits", "encode_codes_packed"]


def pack_bits(bits: np.ndarray) -> bytes:
    """Pack a uint8 array of 0/1 values into bytes (MSB-first)."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.packbits(bits).tobytes()


def unpack_bits(data: bytes, nbits: int) -> np.ndarray:
    """Unpack bytes into a uint8 array of 0/1 values of length ``nbits``."""
    arr = np.frombuffer(data, dtype=np.uint8)
    bits = np.unpackbits(arr)
    if nbits > bits.size:
        raise TruncatedStreamError(
            f"requested {nbits} bits but buffer holds {bits.size}"
        )
    return bits[:nbits]


def encode_codes_packed(
    codes: np.ndarray, lengths: np.ndarray, bit_positions: np.ndarray
) -> bytes:
    """Concatenate variable-length codes straight into packed bytes.

    Produces exactly ``pack_bits`` of the bit expansion that
    :meth:`BitWriter.write_codes` builds, but in O(symbols) instead of
    O(total_bits): each code is left-aligned inside a byte-addressed integer
    window and the windows are OR-merged per output byte with one
    ``bitwise_or.reduceat`` per window column.  This is the numpy Huffman
    encoder's hot path (millions of symbols per volume).

    Every length must lie in [1, 57], so a code plus its bit offset fits a
    64-bit window.  ``bit_positions`` is the exclusive prefix sum of
    ``lengths`` (length ``n + 1``), which the caller already needs for its
    block offsets.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have the same shape")
    if codes.size == 0:
        return b""
    starts = bit_positions[:-1]
    total = int(bit_positions[-1])
    max_len = int(lengths.max())
    window_bytes = (max_len + 7 + 7) >> 3  # code bits + worst-case bit offset
    window_bits = 8 * window_bytes
    byte0 = (starts >> 3).astype(np.int64)
    bit_off = (starts & 7).astype(np.uint64)
    w = codes << (np.uint64(window_bits) - lengths.astype(np.uint64) - bit_off)
    nbytes = (total + 7) >> 3
    out = np.zeros(nbytes + window_bytes, dtype=np.uint8)
    # Codes whose windows start in the same output byte can be OR-merged as
    # whole uint64 windows *before* splitting into byte columns: their start
    # byte is equal, so every column lands on the same target.  One reduceat
    # over the symbols, then per-column work on the (much smaller) merged set.
    group_starts = np.concatenate(([0], np.flatnonzero(byte0[1:] != byte0[:-1]) + 1))
    merged = np.bitwise_or.reduceat(w, group_starts)
    first = byte0[group_starts]
    for j in range(window_bytes):
        col = ((merged >> np.uint64(window_bits - 8 * (j + 1))) & np.uint64(0xFF))
        out[first + j] |= col.astype(np.uint8)
    return out[:nbytes].tobytes()


class BitWriter:
    """Accumulates bits (MSB-first) and serializes to bytes.

    ``write_uint`` appends a single fixed-width value; ``write_codes`` appends
    many variable-length codes at once using vectorized bit extraction, which
    is what the Huffman encoder uses on millions of symbols.
    """

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []
        self._nbits = 0

    def __len__(self) -> int:  # number of bits written so far
        return self._nbits

    def write_bit(self, bit: int) -> None:
        self._chunks.append(np.array([bit & 1], dtype=np.uint8))
        self._nbits += 1

    def write_uint(self, value: int, width: int) -> None:
        """Append ``value`` as ``width`` bits, most significant bit first."""
        if width < 0:
            raise ValueError("width must be non-negative")
        if width == 0:
            return
        if value < 0 or value >= (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        shifts = np.arange(width - 1, -1, -1)
        bits = ((value >> shifts) & 1).astype(np.uint8)
        self._chunks.append(bits)
        self._nbits += width

    def write_codes(self, codes: np.ndarray, lengths: np.ndarray) -> None:
        """Append many variable-length codes at once.

        ``codes[i]`` holds the code value for symbol ``i`` right-aligned in an
        integer; ``lengths[i]`` is its bit length.  The expansion into a flat
        bit array is done with one vectorized pass per bit position (bounded by
        the maximum code length, typically <= 24), never per symbol.
        """
        codes = np.asarray(codes, dtype=np.uint64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if codes.shape != lengths.shape:
            raise ValueError("codes and lengths must have the same shape")
        total = int(lengths.sum())
        if total == 0:
            return
        out = np.empty(total, dtype=np.uint8)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        max_len = int(lengths.max())
        for b in range(max_len):
            sel = lengths > b
            # bit b (0 = most significant) of each selected code
            shift = (lengths[sel] - 1 - b).astype(np.uint64)
            out[starts[sel] + b] = ((codes[sel] >> shift) & np.uint64(1)).astype(np.uint8)
        self._chunks.append(out)
        self._nbits += total

    def getvalue(self) -> bytes:
        if not self._chunks:
            return b""
        bits = np.concatenate(self._chunks)
        return pack_bits(bits)


class BitReader:
    """Reads bits (MSB-first) from a byte buffer."""

    def __init__(self, data: bytes, nbits: int | None = None) -> None:
        self._bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        if nbits is not None:
            self._bits = self._bits[:nbits]
        self.pos = 0

    @property
    def remaining(self) -> int:
        return self._bits.size - self.pos

    def read_bit(self) -> int:
        if self.pos >= self._bits.size:
            raise TruncatedStreamError("bitstream exhausted")
        bit = int(self._bits[self.pos])
        self.pos += 1
        return bit

    def read_uint(self, width: int) -> int:
        if width == 0:
            return 0
        if self.pos + width > self._bits.size:
            raise TruncatedStreamError("bitstream exhausted")
        chunk = self._bits[self.pos:self.pos + width]
        self.pos += width
        value = 0
        for b in chunk:  # width is small (<= 64); fine as a scalar loop
            value = (value << 1) | int(b)
        return value

    def bits_view(self) -> np.ndarray:
        """Expose the remaining bits as an array (used by table decoders)."""
        return self._bits[self.pos:]

    def advance(self, nbits: int) -> None:
        if self.pos + nbits > self._bits.size:
            raise TruncatedStreamError("bitstream exhausted")
        self.pos += nbits
