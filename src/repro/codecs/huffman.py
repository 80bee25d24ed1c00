"""Canonical, length-limited Huffman coding for quantization indices.

This is the entropy stage shared by the SZ-family, MGARD, and SPERR ports.
Design constraints (see DESIGN.md section 7):

* **Encoding** takes one ``np.bincount`` pass for the frequencies, builds
  code lengths with a priority queue popping nodes in (frequency, node id)
  order, assigns canonical codes from the count per length, and packs the
  codes MSB-first, recording a bit offset every ``block_size`` symbols.
  The numpy packer gathers per-symbol codes and lengths and OR-merges
  byte-addressed windows (:func:`~repro.codecs.bitstream.encode_codes_packed`).
* **Decoding** avoids a per-symbol Python loop by encoding in fixed-size
  *blocks* whose starting bit offsets are stored in the header.  All blocks
  are then decoded in lockstep: a vector of per-block cursors advances one
  symbol per iteration, so the Python-level loop runs ``block_size`` times on
  vectors instead of ``n_symbols`` times on scalars.  Each step fetches its
  ``max_len``-bit windows *on demand* with a vectorized byte gather
  (``cursor >> 3`` indexes an overlapping big-endian uint32 view of the
  payload, ``cursor & 7`` aligns), so decode work scales with symbols
  decoded — not payload bits × code length as the earlier
  unpackbits/window-precompute design did.
* Code lengths are limited to ``MAX_CODE_LEN`` bits (via iterative frequency
  dampening) so a flat ``2**maxlen`` decode table stays small.  Decode
  tables are memoized keyed by a digest of the sparse code-length table, so
  repeated tables (parallel slabs, multi-level passes, repeated decodes of
  one container) skip the rebuild entirely.
* When the native kernel library loads (:func:`repro.kernels.native`), C
  loops build the code lengths, pack the payload (one pass over the
  symbols) and walk the flat decode tables block by block, one call per
  container.  The numpy code is the fallback and the reference: both
  paths write identical bytes, and both hand their per-block end cursors
  to one validation helper, so a corrupt stream raises the same typed
  error on either.
* An index stream is coded through an :class:`IndexWindow`, which this
  module alone chooses and applies.  Where the C kernels load, one
  histogram of the signed stream gives the window's offset (the median)
  and the Huffman frequencies, the C packer windows each value as it
  codes it and collects the escapes, and the C decoder adds the offset
  and records the escape symbols' positions as it writes, so the framing
  makes no pass of its own over the stream.
"""
from __future__ import annotations

import hashlib
import heapq
import os
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .. import kernels
from ..errors import CorruptBlobError, TruncatedStreamError
from ..obs import metric_count
from .bitstream import encode_codes_packed

__all__ = [
    "HuffmanCodec",
    "huffman_code_lengths",
    "canonical_codes",
    "decode_table_cache_info",
    "clear_decode_table_cache",
]

_WIN_DTYPE = np.dtype(">u4")  # overlapping big-endian window view of payload
_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = np.iinfo(np.int64).max

#: the escape symbol of an index stream (see :class:`IndexWindow`), the
#: last of its 2**16 alphabet: the symbols below it code the values
#: ``offset .. offset + _ESCAPE - 1`` in place
_ESCAPE = (1 << 16) - 1
#: a window's offset puts the stream's median this far into the window
_MEDIAN_SLOT = (1 << 15) - 1
#: the widest range (max - min) of a stream whose median comes from a
#: histogram; past it the histogram would cost more than the partition
#: ``np.median`` makes
_MEDIAN_RANGE_CAP = 1 << 21

MAX_CODE_LEN = 20
DEFAULT_BLOCK_SIZE = 4096
_MAGIC = b"HUF1"


def huffman_code_lengths(freqs: np.ndarray, max_len: int = MAX_CODE_LEN) -> np.ndarray:
    """Return per-symbol code lengths for the given frequency table.

    Zero-frequency symbols get length 0.  Lengths are limited to ``max_len``
    by repeatedly halving frequencies (the standard practical fallback; the
    loss versus package-merge is negligible for our skewed distributions).
    More than ``2**max_len`` present symbols cannot be coded and raise
    ``ValueError``.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.ndim != 1:
        raise ValueError("freqs must be 1-D")
    if (freqs < 0).any():
        raise ValueError("negative frequency")
    present = np.nonzero(freqs)[0]
    lengths = np.zeros(freqs.size, dtype=np.int64)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths
    if present.size > 1 << max_len:
        # halving ends with every frequency 1, a tree ceil(log2(m)) deep:
        # past 2**max_len leaves the loop below could never finish
        raise ValueError(
            f"{present.size} symbols cannot all get codes of at most "
            f"{max_len} bits"
        )

    work = freqs[present]
    lib = kernels.native()
    if lib is not None and int(work.max()) > _INT64_MAX // work.size:
        lib = None  # node sums could pass int64; Python ints cannot overflow
    while True:
        lens = (
            _huffman_lengths_heap(work) if lib is None
            else _huffman_lengths_native(lib, work)
        )
        if lens.max() <= max_len:
            lengths[present] = lens
            return lengths
        # Dampen: flattening the distribution shortens the deepest leaves.
        work = np.maximum(work >> 1, 1)


def _huffman_lengths_heap(freqs: np.ndarray) -> np.ndarray:
    """Optimal (unlimited) Huffman code lengths of ``freqs.size >= 2`` leaves.

    Nodes pop in (frequency, node id) order: leaf ``i`` is node ``i`` and
    internal nodes are numbered from ``freqs.size`` upward as they are
    created.  The order is total, so the C kernel pops the same sequence.
    """
    # Heap items: (freq, node id, node). Leaves are ints (position within
    # ``freqs``); internal nodes are [left, right] lists.
    heap: list[tuple[int, int, object]] = [
        (f, i, i) for i, f in enumerate(freqs.tolist())
    ]
    heapq.heapify(heap)
    counter = freqs.size
    while len(heap) > 1:
        f1, _, n1 = heapq.heappop(heap)
        f2, _, n2 = heapq.heappop(heap)
        heapq.heappush(heap, (f1 + f2, counter, [n1, n2]))
        counter += 1
    lens = np.zeros(freqs.size, dtype=np.int64)
    # Iterative DFS assigning depth to each leaf.
    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, list):
            stack.append((node[0], depth + 1))
            stack.append((node[1], depth + 1))
        else:
            lens[node] = depth
    return lens


def _huffman_lengths_native(lib, freqs: np.ndarray) -> np.ndarray:
    """:func:`_huffman_lengths_heap` in C; ``freqs`` is C-contiguous int64."""
    lens = np.empty(freqs.size, dtype=np.int64)
    scratch = np.empty(5 * freqs.size, dtype=np.int64)
    lib.repro_huffman_lengths(
        freqs.ctypes.data, freqs.size, lens.ctypes.data, scratch.ctypes.data
    )
    return lens


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical code values given per-symbol code lengths.

    Symbols are ordered by (length, symbol id); codes increase sequentially,
    left-shifted when the length grows.  Returns a uint64 array parallel to
    ``lengths`` (entries with length 0 are unused).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(lengths.size, dtype=np.uint64)
    present = np.nonzero(lengths)[0]
    if present.size == 0:
        return codes
    plens = lengths[present]
    order = np.argsort(plens, kind="stable")  # (length, symbol) order
    count = np.bincount(plens)
    # The first code of each length, from the count per length (the
    # DEFLATE construction): the codes of one length run consecutively
    # from there in symbol order.
    first = [0] * count.size
    code = 0
    for ln in range(1, count.size):  # one step per length, not per symbol
        code = (code + int(count[ln - 1])) << 1
        first[ln] = code
    sorted_lens = plens[order]
    start = np.cumsum(count) - count  # position of each length's first symbol
    rank = np.arange(present.size) - start[sorted_lens]
    codes[present[order]] = (
        np.array(first, dtype=np.uint64)[sorted_lens] + rank.astype(np.uint64)
    )
    return codes


# -- memoized decode tables ---------------------------------------------------

#: LRU of validated flat decode tables keyed by a digest of the sparse
#: (present, present_lens) code table.  Entries are read-only arrays, safe to
#: share across decodes, threads and fork()ed worker processes; the memo
#: itself and its counters change only under ``_DECODE_TABLE_LOCK``, because
#: streamed segments decode on several threads at once.
_DECODE_TABLE_CACHE: "OrderedDict[bytes, tuple[np.ndarray, np.ndarray, int]]" = (
    OrderedDict()
)
_DECODE_TABLE_CACHE_MAX = 64
_DECODE_TABLE_STATS = {"hits": 0, "misses": 0, "evictions": 0}
_DECODE_TABLE_LOCK = threading.Lock()


def _reset_decode_table_lock_in_child() -> None:
    # a fork taken while another thread held the lock would leave the
    # child's copy locked forever (the gateway forks its worker pool)
    global _DECODE_TABLE_LOCK
    _DECODE_TABLE_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_decode_table_lock_in_child)


def decode_table_cache_info() -> dict:
    """Hits/misses/evictions/size of the decode-table memo (for tests,
    ``repro stats``, and perf triage)."""
    with _DECODE_TABLE_LOCK:
        return {
            **_DECODE_TABLE_STATS,
            "size": len(_DECODE_TABLE_CACHE),
            "max_entries": _DECODE_TABLE_CACHE_MAX,
        }


def clear_decode_table_cache() -> None:
    """Drop all memoized decode tables and reset the hit/miss/evict counters."""
    with _DECODE_TABLE_LOCK:
        _DECODE_TABLE_CACHE.clear()
        _DECODE_TABLE_STATS["hits"] = 0
        _DECODE_TABLE_STATS["misses"] = 0
        _DECODE_TABLE_STATS["evictions"] = 0


def _decode_tables(
    present: np.ndarray, present_lens: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Flat (sym_table, len_table, max_len) for one sparse code table.

    Memoized: the key is a digest of the raw header bytes describing the
    table, so byte-identical code tables (parallel slabs of one volume,
    repeated decodes of one container) reuse the validated tables and skip
    both the Kraft check and the table fill.  The tables a cache hit returns
    are exactly the arrays a rebuild would produce — the build is a pure
    function of the key.
    """
    key = hashlib.blake2b(
        present.tobytes() + present_lens.tobytes(), digest_size=16
    ).digest()
    with _DECODE_TABLE_LOCK:
        cached = _DECODE_TABLE_CACHE.get(key)
        if cached is not None:
            _DECODE_TABLE_CACHE.move_to_end(key)
            _DECODE_TABLE_STATS["hits"] += 1
        else:
            _DECODE_TABLE_STATS["misses"] += 1
    if cached is not None:
        metric_count("huffman.table_cache", result="hit")
        return cached
    metric_count("huffman.table_cache", result="miss")

    # ``present`` is validated strictly increasing by the container parse
    # (the canonical encoder emits it sorted), so no dense alphabet-sized
    # scratch array is needed — a tampered header declaring a symbol near
    # 2**32 must not cost alphabet-sized memory or scan time.
    psyms = present.astype(np.int64)
    plens = present_lens.astype(np.int64)
    max_len = int(plens.max())
    # Kraft inequality: an over-subscribed length table would assign
    # canonical codes past the table and corrupt the flat lookup
    if int((1 << (max_len - plens)).sum()) > (1 << max_len):
        raise CorruptBlobError("Huffman code-length table violates Kraft")

    # Canonical code values increase sequentially in (length, symbol) order,
    # so the flat-table spans they cover are contiguous from slot 0: the
    # whole fill is two np.repeat calls, no per-symbol loop and no explicit
    # code values needed.
    order = np.argsort(plens, kind="stable")  # psyms ascending -> (len, sym)
    spans = np.int64(1) << (max_len - plens[order])
    covered = int(spans.sum())  # <= 1 << max_len by Kraft
    sym_table = np.zeros(1 << max_len, dtype=np.int64)
    # uint8 (code lengths are <= MAX_CODE_LEN): the per-step cursor advance
    # gathers randomly from this table, so an 8x smaller footprint keeps it
    # cache-resident even for wide tables (numpy upcasts the += to int64)
    len_table = np.zeros(1 << max_len, dtype=np.uint8)
    sym_table[:covered] = np.repeat(psyms[order], spans)
    len_table[:covered] = np.repeat(plens[order], spans)
    sym_table.setflags(write=False)
    len_table.setflags(write=False)

    with _DECODE_TABLE_LOCK:
        _DECODE_TABLE_CACHE[key] = (sym_table, len_table, max_len)
        evict = len(_DECODE_TABLE_CACHE) > _DECODE_TABLE_CACHE_MAX
        if evict:
            _DECODE_TABLE_CACHE.popitem(last=False)
            _DECODE_TABLE_STATS["evictions"] += 1
    if evict:
        metric_count("huffman.table_cache", result="evict")
    return sym_table, len_table, max_len


@dataclass
class IndexWindow:
    """The alphabet window through which an index stream is coded (the
    framing of :func:`repro.compressors.base.encode_index_stream`).

    A value ``v`` of the signed stream codes as the symbol ``v - offset``
    when that lies in ``[0, _ESCAPE)``, and as the escape symbol
    ``_ESCAPE`` otherwise; ``escaped`` holds the codes ``v - offset`` of
    the escaped values in stream order.  :meth:`HuffmanCodec.encode`
    chooses the offset, which puts the stream's median
    :data:`_MEDIAN_SLOT` into the window, and sets both fields;
    :meth:`HuffmanCodec.decode` adds the offset and puts each escaped
    value back at its escape symbol's place.
    """

    offset: int = 0
    escaped: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))


class HuffmanCodec:
    """Self-contained Huffman container: ``encode`` -> bytes -> ``decode``.

    The header stores the code-length table (sparse: only present symbols),
    the symbol count, and per-block bit offsets enabling lockstep decoding.
    """

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.block_size = block_size

    # -- encoding ---------------------------------------------------------

    def encode(
        self, symbols: np.ndarray, *, window: "IndexWindow | None" = None
    ) -> bytes:
        """Code the non-negative integers ``symbols`` into a container.

        With ``window`` (an :class:`IndexWindow`, whose fields this sets),
        ``symbols`` is a signed index stream, coded through the window
        chosen for it; the escaped values' codes are left in
        ``window.escaped``.
        """
        symbols = np.ascontiguousarray(symbols).ravel()
        if symbols.dtype != np.int64 or not symbols.flags.aligned:
            symbols = symbols.astype(np.int64)
        lib = kernels.native()
        freqs = pack_offset = None
        if window is not None:
            window.offset, freqs = _choose_window(lib, symbols)
            if freqs is None:
                # numpy windows the stream first and counts it below
                symbols, window.escaped = _apply_window(symbols, window.offset)
            else:
                pack_offset = window.offset  # the C packer windows it
        n = symbols.size
        if n == 0:
            return _MAGIC + struct.pack("<QII", 0, self.block_size, 0)
        if freqs is None:
            # bincount scans the data once and rejects negatives as it
            # goes, so the frequency table, the alphabet bound and the sign
            # guard all come out of a single pass (no min()/max() sweeps).
            try:
                freqs = np.bincount(symbols)
            except ValueError:
                raise ValueError("symbols must be non-negative") from None
        lengths = huffman_code_lengths(freqs)
        codes = canonical_codes(lengths)
        if lib is not None:
            payload, block_offsets, total_bits, escaped = _encode_native(
                lib, symbols, freqs, lengths, codes, self.block_size,
                pack_offset,
            )
            if pack_offset is not None:
                window.escaped = escaped
        else:
            sym_lengths = lengths[symbols]
            bit_positions = np.empty(n + 1, dtype=np.int64)
            bit_positions[0] = 0
            np.cumsum(sym_lengths, out=bit_positions[1:])
            block_offsets = bit_positions[:-1:self.block_size].astype(np.uint64)
            total_bits = int(bit_positions[-1])
            payload = encode_codes_packed(
                codes[symbols], sym_lengths, bit_positions
            )

        present = np.nonzero(lengths)[0].astype(np.uint32)
        present_lens = lengths[present].astype(np.uint8)
        return b"".join([
            _MAGIC,
            struct.pack("<QII", n, self.block_size, present.size),
            present.tobytes(),
            present_lens.tobytes(),
            struct.pack("<QQ", block_offsets.size, total_bits),
            block_offsets.tobytes(),
            payload,
        ])

    # -- decoding ---------------------------------------------------------

    def decode(
        self,
        data: bytes,
        out: "np.ndarray | None" = None,
        *,
        window: "IndexWindow | None" = None,
    ) -> np.ndarray:
        """Decode a Huffman container.

        Strict-validating: every header field is bounds-checked against the
        available bytes, the code-length table must satisfy the Kraft
        inequality (so the flat decode table cannot be indexed out of range),
        each block decodes exactly its header-derived symbol count with
        reads past the payload end seeing zeros (cursors cannot index out of
        bounds or loop forever), and each block must land exactly on the
        next block's recorded bit offset.  Corrupt input raises
        :class:`~repro.errors.CorruptBlobError` /
        :class:`~repro.errors.TruncatedStreamError` in bounded time — never
        a hang, never a silently mis-shaped array.

        With ``out`` (a writable C-contiguous int64 array) the symbols are
        decoded into it and it is returned; a container holding another
        number of symbols raises :class:`~repro.errors.CorruptBlobError`
        before anything is written.

        With ``window`` (see :class:`IndexWindow`) the decode returns the
        signed stream: each symbol plus ``window.offset``, and at the
        escape symbols the values of ``window.escaped`` in stream order.
        A container holding another number of escape symbols than
        ``window.escaped`` has values raises
        :class:`~repro.errors.CorruptBlobError`.
        """
        return _decode_one(data, out, window)

    def decode_many(self, datas: "list[bytes]") -> "list[np.ndarray]":
        """Decode several containers in order, one at a time: output and
        errors match ``decode`` applied to each (the first corrupt member
        raises)."""
        return [_decode_one(d) for d in datas]


def _choose_window(lib, stream: np.ndarray) -> "tuple[int, np.ndarray | None]":
    """The offset of an int64 index stream's window, and its windowed
    symbols' frequencies where C windows the stream as it packs it
    (``None`` where numpy windows and counts it).

    The offset puts the stream's median :data:`_MEDIAN_SLOT` into the
    window.  The median is exact: from a histogram of the stream when its
    range is within :data:`_MEDIAN_RANGE_CAP` (taken in C where the
    kernels load), from ``np.median`` past it, where numpy windows the
    stream.  C's frequencies come from the same histogram: the window's
    counts are its symbols', the rest fall on the escape symbol, one
    count per symbol up to the greatest coded, as ``np.bincount`` of the
    windowed stream gives them.  A stream whose offset would fall below
    int64 raises ``ValueError``.
    """
    if not stream.size:
        return 0, None
    if lib is None:
        lo, hi = int(stream.min()), int(stream.max())
    else:
        bounds = np.empty(2, dtype=np.int64)
        lib.repro_int_bounds(stream.ctypes.data, stream.size, bounds.ctypes.data)
        lo, hi = int(bounds[0]), int(bounds[1])
    if hi - lo > _MEDIAN_RANGE_CAP:
        counts = None
        median = float(np.median(stream))
    else:
        counts = (
            np.bincount(stream - lo) if lib is None
            else _histogram(lib, stream, lo, hi - lo + 1)
        )
        median = _counts_median(counts, lo)
    offset = int(median) - _MEDIAN_SLOT
    if offset < _INT64_MIN:
        raise ValueError(
            f"index stream median {median} lies within {_MEDIAN_SLOT} of the "
            "int64 minimum: its window offset does not fit in int64"
        )
    if lib is None or counts is None:
        return offset, None
    # the window's values that lie in [lo, hi]
    first, last = max(lo, offset), min(hi, offset + _ESCAPE - 1)
    inside = counts[first - lo:last - lo + 1]
    n_esc = stream.size - int(inside.sum())
    freqs = np.zeros(_ESCAPE + 1 if n_esc else last - offset + 1, dtype=np.int64)
    freqs[first - offset:last - offset + 1] = inside
    if n_esc:
        freqs[_ESCAPE] = n_esc
    return offset, freqs


def _histogram(lib, stream: np.ndarray, lo: int, nbins: int) -> np.ndarray:
    """Counts of the values ``lo .. lo + nbins - 1`` of ``stream``, which
    holds no others, taken in C."""
    # four interleaved tables pay for their zeroing and summing once the
    # stream is several times longer than one table (docs/performance.md
    # times both)
    ways = 4 if stream.size >= 4 * nbins else 1
    tables = np.zeros(ways * nbins, dtype=np.int64)
    lib.repro_int_histogram(
        stream.ctypes.data, stream.size, lo, nbins, ways, tables.ctypes.data
    )
    return tables[:nbins]


def _counts_median(counts: np.ndarray, lo: int) -> float:
    """Exact median of the integers whose histogram is ``counts`` (bin
    ``i`` counts the value ``lo + i``): the mean of the two middle order
    statistics in float64, as ``np.median`` gives it."""
    cum = np.cumsum(counts)
    n = int(cum[-1])
    v_lo = lo + int(np.searchsorted(cum, (n - 1) // 2 + 1))
    v_hi = lo + int(np.searchsorted(cum, n // 2 + 1))
    return (v_lo + v_hi) / 2.0


def _apply_window(
    stream: np.ndarray, offset: int
) -> "tuple[np.ndarray, np.ndarray]":
    """The numpy windowing of a signed stream: its symbols and the escaped
    values' codes."""
    codes = stream - offset
    outside = (codes < 0) | (codes >= _ESCAPE)
    escaped = codes[outside]
    if escaped.size:
        codes[outside] = _ESCAPE
    return codes, escaped


def _encode_native(lib, symbols, freqs, lengths, codes, block_size: int,
                   offset: "int | None"):
    """Pack ``symbols`` with the C encoder: ``(payload, offsets, bits,
    escaped)``, the payload as a uint8 array.

    With ``offset`` the symbols are a signed stream the packer windows
    (:class:`IndexWindow`), and ``escaped`` holds the escaped values'
    codes; without, they are coded as they are.  The tables come from
    ``freqs``, the frequencies of the (windowed) symbols, and so does the
    payload's size.  The kernel writes nothing past that size; symbols
    that need more room, or hold another count of escapes than ``freqs``
    gives, raise ``ValueError``.
    """
    total_bits = int(freqs @ lengths)
    payload = np.empty((total_bits + 7) >> 3, dtype=np.uint8)
    offsets = np.empty(-(-symbols.size // block_size), dtype=np.uint64)
    if offset is None:
        offset, escape, n_esc = 0, -1, 0
    else:
        escape = _ESCAPE
        n_esc = int(freqs[_ESCAPE]) if freqs.size > _ESCAPE else 0
    escaped = np.empty(n_esc, dtype=np.int64)
    met = lib.repro_huffman_encode(
        symbols.ctypes.data, symbols.size, codes.ctypes.data,
        lengths.ctypes.data, block_size, payload.ctypes.data, payload.size,
        offsets.ctypes.data, offset, escape, escaped.ctypes.data, n_esc,
    )
    if met != n_esc:
        raise ValueError("Huffman frequencies do not match the symbols")
    return payload, offsets, total_bits, escaped


def _parse_container(data: bytes) -> "tuple | None":
    """Validate one container's header; None for the empty container.

    Returns ``(n, block_size, block_offsets, total_bits, payload, tables)``
    with every strict check from the original decoder applied: magic,
    truncation bounds, block-count consistency, offset monotonicity, code
    lengths in range, and (inside the memoized table build) Kraft.
    """
    # magic is judged first only when enough bytes exist to judge it; a
    # truncated prefix of a valid container must raise the truncation
    # error, not "not a Huffman container"
    if len(data) >= 4 and data[:4] != _MAGIC:
        raise CorruptBlobError("not a Huffman container")
    if len(data) < 20:
        raise TruncatedStreamError("Huffman container header truncated")
    off = 4
    n, block_size, n_present = struct.unpack_from("<QII", data, off)
    off += 16
    if n == 0:
        return None
    if block_size == 0:
        raise CorruptBlobError("Huffman container declares block size 0")
    if n_present == 0:
        raise CorruptBlobError(f"{n} symbols but an empty code table")
    if off + 5 * n_present + 16 > len(data):
        raise TruncatedStreamError("Huffman code table truncated")
    present = np.frombuffer(data, dtype=np.uint32, count=n_present, offset=off)
    off += 4 * n_present
    present_lens = np.frombuffer(data, dtype=np.uint8, count=n_present, offset=off)
    off += n_present
    n_blocks, total_bits = struct.unpack_from("<QQ", data, off)
    off += 16
    if n_blocks != (n + block_size - 1) // block_size:
        raise CorruptBlobError(
            f"{n_blocks} block offsets inconsistent with {n} symbols "
            f"in blocks of {block_size}"
        )
    if off + 8 * n_blocks > len(data):
        raise TruncatedStreamError("Huffman block-offset table truncated")
    block_offsets = np.frombuffer(data, dtype=np.uint64, count=n_blocks, offset=off)
    off += 8 * n_blocks
    if total_bits > 8 * (len(data) - off):
        raise TruncatedStreamError(
            f"Huffman payload declares {total_bits} bits, only "
            f"{8 * (len(data) - off)} present"
        )
    if n > max(total_bits, 1):
        raise CorruptBlobError(
            f"{n} symbols cannot fit in {total_bits} payload bits"
        )
    # compared as uint64 so no offset can wrap negative; ascending offsets
    # that end below total_bits start every cursor inside the payload
    if (block_offsets[1:] < block_offsets[:-1]).any() or (
        n_blocks and int(block_offsets[-1]) >= max(total_bits, 1)
    ):
        raise CorruptBlobError("Huffman block offsets out of order or range")
    if int(present_lens.min()) == 0 or int(present_lens.max()) > MAX_CODE_LEN:
        raise CorruptBlobError(
            f"Huffman code lengths outside [1, {MAX_CODE_LEN}]"
        )
    if n_present > 1 and (np.diff(present.astype(np.int64)) <= 0).any():
        raise CorruptBlobError("Huffman code table symbols not ascending")
    # Flat decode table: for every max_len-bit window, the symbol whose code
    # prefixes it and that code's length.  Memoized across decodes sharing
    # one code table; the Kraft check lives with the build.
    tables = _decode_tables(present, present_lens)
    payload = np.frombuffer(data, dtype=np.uint8, offset=off)
    return n, block_size, block_offsets.astype(np.int64), total_bits, payload, tables


def _check_block_ends(ends, block_offsets, total_bits: int) -> None:
    """Each block must stop exactly where the next one starts, the last at
    ``total_bits``.  A decode that drifted out of code alignment (flipped
    bits, a truncated payload, a window matching no code and stalling its
    cursor) cannot satisfy this; ``ends`` are bit cursors relative to the
    container's payload, from either decode path."""
    expected = np.empty(block_offsets.size, dtype=np.int64)
    expected[:-1] = block_offsets[1:]
    expected[-1] = total_bits
    if not np.array_equal(ends, expected):
        if int(ends.max()) > total_bits:
            raise TruncatedStreamError("Huffman payload exhausted mid-block")
        raise CorruptBlobError("Huffman blocks misaligned after decode")


def _decode_one(
    data: bytes,
    out: "np.ndarray | None" = None,
    window: "IndexWindow | None" = None,
) -> np.ndarray:
    """Parse and decode one container on whichever path is loaded, into
    ``out`` when given, through ``window`` when given (see
    :meth:`HuffmanCodec.decode`)."""
    parsed = _parse_container(data)
    n = 0 if parsed is None else parsed[0]
    if out is None:
        out = np.empty(n, dtype=np.int64)
    elif (
        out.dtype != np.int64 or not out.flags.c_contiguous
        or not out.flags.writeable
    ):
        raise ValueError("Huffman decode needs a writable C-contiguous int64 out")
    elif out.size != n:
        raise CorruptBlobError(
            f"Huffman container holds {n} symbols, {out.size} expected"
        )
    # the escape symbols met and their positions: recorded by the C
    # decoder, found by a scan after the numpy one
    met, positions = 0, None
    if parsed is not None:
        lib = kernels.native()
        if lib is not None:
            met, positions = _decode_native(lib, parsed, out, window)
        else:
            _decode_lockstep(parsed, out)
            if window is not None:
                positions = np.flatnonzero(out == _ESCAPE)
                met = positions.size
                if window.offset:
                    np.add(out, window.offset, out=out)
    if window is not None:
        if met != window.escaped.size:
            raise CorruptBlobError("index stream escape count mismatch")
        if met:
            out[positions] = window.escaped + window.offset
    return out


def _decode_native(
    lib, parsed: tuple, out: np.ndarray, window: "IndexWindow | None"
) -> "tuple[int, np.ndarray]":
    """Decode one parsed container into ``out`` with the C block decoder;
    returns how many escape symbols it met and, in stream order, the
    positions of the first ``window.escaped.size`` of them.

    The kernel walks the memoized flat tables block by block, reading
    bits past the payload end as zeros (the numpy path's padding), and
    writes only inside the ``n``-symbol output and the positions buffer.
    """
    n, block_size, block_offsets, total_bits, payload, tables = parsed
    sym_table, len_table, max_len = tables
    ends = np.empty(block_offsets.size, dtype=np.int64)
    if window is None:
        offset, escape, cap = 0, -1, 0
    else:
        offset, escape, cap = window.offset, _ESCAPE, window.escaped.size
    positions = np.empty(cap, dtype=np.int64)
    met = lib.repro_huffman_decode(
        payload.ctypes.data, payload.size, sym_table.ctypes.data,
        len_table.ctypes.data, max_len, block_offsets.ctypes.data,
        block_offsets.size, block_size, n, out.ctypes.data, ends.ctypes.data,
        offset, escape, positions.ctypes.data, cap,
    )
    _check_block_ends(ends, block_offsets, total_bits)
    # the lanes record positions block by block, not in stream order
    return met, np.sort(positions[:met])


def _decode_lockstep(parsed: tuple, out: np.ndarray) -> None:
    """Decode one parsed container into ``out`` with numpy, all blocks in
    lockstep.

    Every block is a *lane*: a bit cursor advanced one symbol per
    Python-level step.  Only the last block can be short, so all lanes run
    its length and the full blocks then run on without it.  Windows are
    gathered from the zero-padded payload and stored row-major, so the
    per-step store is contiguous.  The step count is fixed up front, so
    decode time stays bounded for corrupt input, and every block must land
    exactly on the next block's recorded bit offset.
    """
    n, block_size, block_offsets, total_bits, payload, tables = parsed
    sym_table, len_table, M = tables
    steps = min(block_size, n)
    # A cursor starts inside the payload (checked during parse) and advances
    # at most M bits per step, so this padding bounds every window gather.
    buf = np.zeros(payload.size + (steps * M + 7) // 8 + 8, dtype=np.uint8)
    buf[:payload.size] = payload
    # Overlapping big-endian 32-bit window view: byte i starts the window
    # covering bits [8i, 8i+32); buf carries >=3 padding bytes at the end.
    allwin = np.ndarray(
        (buf.size - 3,), dtype=_WIN_DTYPE, buffer=buf.data, strides=(1,)
    ).astype(np.int64)
    mask = np.int64((1 << M) - 1)
    shift_base = np.int64(32 - M)
    nb = block_offsets.size
    last = n - (nb - 1) * block_size  # symbols in the last block
    cur = block_offsets.copy()
    wins = np.empty((steps, nb), dtype=np.int64)
    for lanes, first, stop in ((nb, 0, last), (nb - 1, last, steps)):
        cur_v = cur[:lanes]
        for step in range(first, stop):
            w = allwin[cur_v >> 3]
            win = (w >> (shift_base - (cur_v & 7))) & mask
            wins[step, :lanes] = win
            cur_v += len_table[win]
    _check_block_ends(cur, block_offsets, total_bits)
    # every window is below 2**M, the table's size: no index is clipped
    np.take(
        sym_table, np.ascontiguousarray(wins.T).reshape(-1)[:n], out=out,
        mode="clip",
    )
