"""Canonical, length-limited Huffman coding for quantization indices.

This is the entropy stage shared by the SZ-family, MGARD, and SPERR ports.
Design constraints (see DESIGN.md section 7):

* **Encoding** is fully vectorized: per-symbol codes/lengths are gathered from
  lookup tables and expanded into a flat bit array with one pass per bit
  position of the longest code.
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
"""
from __future__ import annotations

import hashlib
import heapq
import struct
from collections import OrderedDict

import numpy as np

from ..errors import CorruptBlobError, TruncatedStreamError
from ..obs import metric_count
from .bitstream import encode_codes_packed

__all__ = [
    "HuffmanCodec",
    "huffman_code_lengths",
    "canonical_codes",
    "decode_table_cache_info",
    "set_decode_table_cache_max",
    "clear_decode_table_cache",
]

_WIN_DTYPE = np.dtype(">u4")  # overlapping big-endian window view of payload

MAX_CODE_LEN = 20
DEFAULT_BLOCK_SIZE = 4096
_MAGIC = b"HUF1"


def huffman_code_lengths(freqs: np.ndarray, max_len: int = MAX_CODE_LEN) -> np.ndarray:
    """Return per-symbol code lengths for the given frequency table.

    Zero-frequency symbols get length 0.  Lengths are limited to ``max_len``
    by repeatedly halving frequencies (the standard practical fallback; the
    loss versus package-merge is negligible for our skewed distributions).
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

    work = freqs.copy()
    while True:
        lens = _huffman_lengths_heap(work, present)
        if lens.max() <= max_len:
            lengths[present] = lens
            return lengths
        # Dampen: flattening the distribution shortens the deepest leaves.
        work[present] = np.maximum(work[present] >> 1, 1)


def _huffman_lengths_heap(freqs: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Optimal (unlimited) Huffman code lengths for the present symbols."""
    # Heap items: (freq, tiebreak, node). Leaves are ints (position within
    # ``present``); internal nodes are [left, right] lists.
    heap: list[tuple[int, int, object]] = [
        (int(freqs[s]), i, i) for i, s in enumerate(present)
    ]
    heapq.heapify(heap)
    counter = present.size
    while len(heap) > 1:
        f1, _, n1 = heapq.heappop(heap)
        f2, _, n2 = heapq.heappop(heap)
        heapq.heappush(heap, (f1 + f2, counter, [n1, n2]))
        counter += 1
    lens = np.zeros(present.size, dtype=np.int64)
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
    order = present[np.argsort(lengths[present], kind="stable")]
    code = 0
    prev_len = int(lengths[order[0]])
    for sym in order:  # loop over *distinct* symbols only — small
        ln = int(lengths[sym])
        code <<= ln - prev_len
        codes[sym] = code
        code += 1
        prev_len = ln
    return codes


# -- memoized decode tables ---------------------------------------------------

#: LRU of validated flat decode tables keyed by a digest of the sparse
#: (present, present_lens) code table.  Entries are read-only arrays, safe to
#: share across decodes, threads (GIL) and fork()ed worker processes.
_DECODE_TABLE_CACHE: "OrderedDict[bytes, tuple[np.ndarray, np.ndarray, int]]" = (
    OrderedDict()
)
_DECODE_TABLE_CACHE_MAX = 64
_DECODE_TABLE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def decode_table_cache_info() -> dict:
    """Hits/misses/evictions/size of the decode-table memo (for tests,
    ``repro stats``, and perf triage)."""
    return {
        **_DECODE_TABLE_STATS,
        "size": len(_DECODE_TABLE_CACHE),
        "max_entries": _DECODE_TABLE_CACHE_MAX,
    }


def set_decode_table_cache_max(max_entries: int) -> int:
    """Re-bound the decode-table LRU (returns the previous cap).

    Service workloads churning many distinct code tables can lower the cap
    to bound memory, or raise it to keep a hot spec set resident; shrinking
    evicts oldest-first immediately."""
    global _DECODE_TABLE_CACHE_MAX
    if int(max_entries) < 1:
        raise ValueError(f"cache cap must be >= 1, got {max_entries!r}")
    prev = _DECODE_TABLE_CACHE_MAX
    _DECODE_TABLE_CACHE_MAX = int(max_entries)
    _evict_decode_tables()
    return prev


def _evict_decode_tables() -> None:
    while len(_DECODE_TABLE_CACHE) > _DECODE_TABLE_CACHE_MAX:
        _DECODE_TABLE_CACHE.popitem(last=False)
        _DECODE_TABLE_STATS["evictions"] += 1
        metric_count("huffman.table_cache", result="evict")


def clear_decode_table_cache() -> None:
    """Drop all memoized decode tables and reset the hit/miss/evict counters."""
    _DECODE_TABLE_CACHE.clear()
    _DECODE_TABLE_STATS["hits"] = 0
    _DECODE_TABLE_STATS["misses"] = 0
    _DECODE_TABLE_STATS["evictions"] = 0


def _decode_tables(
    present: np.ndarray, present_lens: np.ndarray
) -> tuple[bytes, np.ndarray, np.ndarray, int]:
    """Flat (key, sym_table, len_table, max_len) for one sparse code table.

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
    cached = _DECODE_TABLE_CACHE.get(key)
    if cached is not None:
        _DECODE_TABLE_CACHE.move_to_end(key)
        _DECODE_TABLE_STATS["hits"] += 1
        metric_count("huffman.table_cache", result="hit")
        return (key, *cached)
    _DECODE_TABLE_STATS["misses"] += 1
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
    # cache-resident even for wide tables and concatenated multi-container
    # tables (numpy upcasts the += to int64)
    len_table = np.zeros(1 << max_len, dtype=np.uint8)
    sym_table[:covered] = np.repeat(psyms[order], spans)
    len_table[:covered] = np.repeat(plens[order], spans)
    sym_table.setflags(write=False)
    len_table.setflags(write=False)

    _DECODE_TABLE_CACHE[key] = (sym_table, len_table, max_len)
    _evict_decode_tables()
    return key, sym_table, len_table, max_len


#: LRU of width-expanded length tables for multi-container lockstep decodes,
#: keyed by the tuple of member table digests.  Byte-capped rather than
#: entry-capped: a deep (MAX_CODE_LEN) table is 1 MiB per container, so a
#: handful of four-slab entries is the natural working set.
_COMBINED_TABLE_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_COMBINED_TABLE_CACHE_MAX_BYTES = 192 << 20


def _combined_tables(
    parts: list[tuple[bytes, np.ndarray, np.ndarray, int]]
) -> tuple[np.ndarray, int, np.ndarray]:
    """Per-container length tables expanded to one width for joint decode.

    Returns ``(len_exp, M, norms)``: ``M = max(max_len)`` is the global
    window width; ``len_exp`` is every container's length table expanded to
    width ``M`` (its native table repeated ``2**(M - max_len_k)`` times, so
    the junk low bits of a wide window are absorbed by construction) and
    laid out contiguously, so ``len_exp[win + (k << M)]`` is container
    ``k``'s code length for the full ``M``-bit window ``win``;
    ``norms[k] = M - max_len_k`` converts stored windows back to native ones
    for the final symbol gather.  Expanding up front keeps the per-step
    cursor advance at one add plus one gather — no per-step normalization
    shift, which at lockstep lane counts is pure ufunc-call overhead.
    """
    key = tuple(p[0] for p in parts)
    cached = _COMBINED_TABLE_CACHE.get(key)
    if cached is not None:
        _COMBINED_TABLE_CACHE.move_to_end(key)
        return cached
    max_lens = [p[3] for p in parts]
    M = max(max_lens)
    len_exp = np.empty(len(parts) << M, dtype=np.uint8)
    for k, p in enumerate(parts):
        norm = M - max_lens[k]
        len_exp[k << M:(k + 1) << M] = (
            np.repeat(p[2], 1 << norm) if norm else p[2]
        )
    len_exp.setflags(write=False)
    norms = np.asarray([M - ml for ml in max_lens], dtype=np.int64)
    entry = (len_exp, M, norms)
    _COMBINED_TABLE_CACHE[key] = entry
    total = sum(e[0].nbytes for e in _COMBINED_TABLE_CACHE.values())
    while total > _COMBINED_TABLE_CACHE_MAX_BYTES and len(_COMBINED_TABLE_CACHE) > 1:
        _, dropped = _COMBINED_TABLE_CACHE.popitem(last=False)
        total -= dropped[0].nbytes
    return entry


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

    def encode(self, symbols: np.ndarray) -> bytes:
        symbols = np.ascontiguousarray(symbols).ravel()
        n = symbols.size
        if n == 0:
            return _MAGIC + struct.pack("<QII", 0, self.block_size, 0)
        if symbols.dtype != np.int64:
            symbols = symbols.astype(np.int64)
        # bincount scans the data once and rejects negatives as it goes, so
        # the frequency table, the alphabet bound and the sign guard all come
        # out of a single pass (no separate min()/max() sweeps).
        try:
            freqs = np.bincount(symbols)
        except ValueError:
            raise ValueError("symbols must be non-negative") from None
        lengths = huffman_code_lengths(freqs)
        codes = canonical_codes(lengths)

        sym_lengths = lengths[symbols]
        sym_codes = codes[symbols]
        bit_positions = np.empty(n + 1, dtype=np.int64)
        bit_positions[0] = 0
        np.cumsum(sym_lengths, out=bit_positions[1:])
        block_offsets = bit_positions[:-1:self.block_size].astype(np.uint64)
        total_bits = int(bit_positions[-1])

        payload = encode_codes_packed(sym_codes, sym_lengths, bit_positions)

        present = np.nonzero(lengths)[0].astype(np.uint32)
        present_lens = lengths[present].astype(np.uint8)
        header = [
            _MAGIC,
            struct.pack("<QII", n, self.block_size, present.size),
            present.tobytes(),
            present_lens.tobytes(),
            struct.pack("<QQ", block_offsets.size, total_bits),
            block_offsets.tobytes(),
        ]
        return b"".join(header) + payload

    # -- decoding ---------------------------------------------------------

    def decode(self, data: bytes) -> np.ndarray:
        """Decode a Huffman container.

        Strict-validating: every header field is bounds-checked against the
        available bytes, the code-length table must satisfy the Kraft
        inequality (so the flat decode table cannot be indexed out of range),
        the lockstep loop runs a fixed number of steps over a zero-padded
        payload (cursors cannot index out of bounds or loop forever), and
        each block must land exactly on the next block's recorded bit
        offset.  Corrupt input raises
        :class:`~repro.errors.CorruptBlobError` /
        :class:`~repro.errors.TruncatedStreamError` in bounded time — never
        a hang, never a silently mis-shaped array.
        """
        parsed = _parse_container(data)
        if parsed is None:
            return np.empty(0, dtype=np.int64)
        return _decode_group([parsed])[0]

    def decode_many(self, datas: "list[bytes]") -> "list[np.ndarray]":
        """Decode several containers in one joint lockstep loop.

        Every container's blocks become lanes of a single cursor vector, so
        the Python-level loop cost is paid once for the whole batch instead
        of once per container — the win that makes decoding N slab streams
        of one volume as cheap as decoding the volume's own stream.  Output
        and error behaviour match ``decode`` applied to each container in
        order (the first corrupt member raises).
        """
        parsed = [_parse_container(d) for d in datas]
        live = [p for p in parsed if p is not None]
        decoded = iter(_decode_group(live)) if live else iter(())
        return [
            np.empty(0, dtype=np.int64) if p is None else next(decoded)
            for p in parsed
        ]


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
    if (np.diff(block_offsets.astype(np.int64)) < 0).any() or (
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


def _decode_lockstep(buf, cur, stops, len_flat, lane_off, wins, M) -> None:
    """Advance every lane one symbol per step, recording matched windows.

    ``buf`` is the zero-padded concatenated payload, ``cur`` the per-lane
    absolute bit cursors (advanced in place), ``stops`` the per-lane symbol
    counts sorted descending, ``len_flat`` the window -> code-length table,
    ``lane_off`` each lane's base offset into ``len_flat`` (``None`` when
    all lanes share one table), ``wins`` the ``(max_steps, n_lanes)`` output
    matrix of matched windows and ``M`` the window width in bits.
    """
    # Overlapping big-endian 32-bit window view: byte i starts the window
    # covering bits [8i, 8i+32); buf carries >=3 padding bytes at the end.
    allwin = np.ndarray(
        (buf.size - 3,), dtype=_WIN_DTYPE, buffer=buf.data, strides=(1,)
    ).astype(np.int64)
    mask = np.int64((1 << M) - 1)
    shift_base = np.int64(32 - M)
    prev = 0
    for b in [int(v) for v in np.unique(stops)]:
        act = int(np.count_nonzero(stops >= b))
        cur_v = cur[:act]
        row = slice(0, act)
        if lane_off is None:
            for step in range(prev, b):
                w = allwin[cur_v >> 3]
                win = (w >> (shift_base - (cur_v & 7))) & mask
                wins[step, row] = win
                cur_v += len_flat[win]
        else:
            off_v = lane_off[:act]
            for step in range(prev, b):
                w = allwin[cur_v >> 3]
                win = (w >> (shift_base - (cur_v & 7))) & mask
                wins[step, row] = win
                cur_v += len_flat[win + off_v]
        prev = b


def _decode_group(parsed: list) -> "list[np.ndarray]":
    """Joint lockstep decode of one or more parsed containers.

    Every block of every container is one *lane*: a cursor advanced one
    symbol per Python-level step.  Lanes are sorted by their step count
    (descending), so the active set is always a prefix and the lockstep
    advance runs as one :func:`_decode_lockstep` call.  Windows are gathered
    from the concatenated zero-padded payload buffer and matched windows are
    stored row-major so the per-step store is contiguous.  The step count is
    fixed up front, so decode time stays bounded for corrupt input; each
    container's blocks are still checked to land exactly on the next block's
    recorded bit offset.
    """
    single = len(parsed) == 1
    if single:
        key, sym_flat, len_flat, M = parsed[0][5]
        norms = None
    else:
        len_flat, M, norms = _combined_tables([p[5] for p in parsed])

    # Concatenate payloads into one zero-padded buffer.  Padding bounds every
    # window gather: a cursor starts inside its container's payload (checked
    # during parse) and advances at most max_len bits per active step, so the
    # worst overrun past the final payload byte is steps * M bits.
    pay_sizes = [p[4].size for p in parsed]
    base_bytes = np.zeros(len(parsed) + 1, dtype=np.int64)
    np.cumsum(np.asarray(pay_sizes, dtype=np.int64), out=base_bytes[1:])
    max_steps = max(min(p[1], p[0]) for p in parsed)
    pad = (max_steps * M + 7) // 8 + 8
    buf = np.zeros(int(base_bytes[-1]) + pad, dtype=np.uint8)
    for p, lo, size in zip(parsed, base_bytes, pay_sizes):
        buf[int(lo):int(lo) + size] = p[4]

    # Lane tables: cursors (absolute bit positions in the concatenated
    # buffer), per-lane step counts, and — for multi-container groups — the
    # per-lane window normalization shift and table base offset.
    lane_cont: list[int] = []
    cur_parts: list[np.ndarray] = []
    stop_parts: list[np.ndarray] = []
    for k, p in enumerate(parsed):
        n, block_size, block_offsets, _, _, _ = p
        nb = block_offsets.size
        cur_parts.append(block_offsets + base_bytes[k] * 8)
        stops = np.full(nb, block_size, dtype=np.int64)
        stops[-1] = n - (nb - 1) * block_size
        stop_parts.append(stops)
        lane_cont.extend([k] * nb)
    cur = np.concatenate(cur_parts)
    stops = np.concatenate(stop_parts)
    cont_ids = np.asarray(lane_cont, dtype=np.int64)
    L = cur.size

    # Sort lanes so longer-running ones come first: the active set during any
    # step range is then a prefix slice.  (For a single container this is the
    # identity permutation — all blocks are full except the last.)
    perm = np.argsort(-stops, kind="stable")
    inv = np.empty(L, dtype=np.int64)
    inv[perm] = np.arange(L)
    cur = np.ascontiguousarray(cur[perm])
    stops_p = stops[perm]
    # per-lane base offset into the width-expanded length table; the
    # expansion absorbs the per-container normalization shift, so the
    # advance is one add + one gather regardless of mixed table depths
    lane_off = None if single else cont_ids[perm] << np.int64(M)

    wins = np.empty((max_steps, L), dtype=np.int64)
    _decode_lockstep(buf, cur, stops_p, len_flat, lane_off, wins, M)

    # Validate and extract per container.  Each container's blocks must land
    # exactly where the next one starts — a decode that drifted out of code
    # alignment (flipped bits, truncated payload, a window matching no code
    # and stalling its cursor) cannot satisfy this.
    end_cur = cur[inv]
    results: list[np.ndarray] = []
    lane_lo = 0
    for k, p in enumerate(parsed):
        n, block_size, block_offsets, total_bits, _, _ = p
        nb = block_offsets.size
        rel = end_cur[lane_lo:lane_lo + nb] - base_bytes[k] * 8
        expected_ends = np.empty(nb, dtype=np.int64)
        expected_ends[:-1] = block_offsets[1:]
        expected_ends[-1] = total_bits
        if not np.array_equal(rel, expected_ends):
            if int(rel.max()) > total_bits:
                raise TruncatedStreamError("Huffman payload exhausted mid-block")
            raise CorruptBlobError("Huffman blocks misaligned after decode")
        cols = inv[lane_lo:lane_lo + nb]
        lane_lo += nb
        c0 = int(cols[0])
        if np.array_equal(cols, np.arange(c0, c0 + nb)):
            blk = wins[:, c0:c0 + nb]  # contiguous lanes: keep the view
        else:
            blk = wins[:, cols]
        flat = np.ascontiguousarray(blk.T[:, :block_size]).reshape(-1)[:n]
        if single:
            results.append(sym_flat[flat])
        else:
            # stored windows are full width: shift off the junk low bits to
            # index this container's own (native-width) symbol table
            nk = int(norms[k])
            results.append(p[5][1][flat >> nk if nk else flat])
    return results
