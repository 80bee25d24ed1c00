"""Unit + property tests for the canonical length-limited Huffman codec."""
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.codecs.huffman import (
    MAX_CODE_LEN,
    HuffmanCodec,
    canonical_codes,
    clear_decode_table_cache,
    decode_table_cache_info,
    huffman_code_lengths,
)
from repro.errors import CorruptBlobError, TruncatedStreamError


def _decode_in_child():
    stream = np.arange(7, dtype=np.int64)
    codec = HuffmanCodec()
    assert np.array_equal(codec.decode(codec.encode(stream)), stream)


def kraft_sum(lengths):
    present = lengths[lengths > 0]
    return float(np.sum(2.0 ** (-present)))


class TestCodeLengths:
    def test_empty(self):
        assert huffman_code_lengths(np.zeros(4, dtype=np.int64)).sum() == 0

    def test_single_symbol_gets_one_bit(self):
        lens = huffman_code_lengths(np.array([0, 5, 0]))
        assert lens.tolist() == [0, 1, 0]

    def test_two_equal_symbols(self):
        lens = huffman_code_lengths(np.array([3, 3]))
        assert lens.tolist() == [1, 1]

    def test_kraft_inequality_holds(self):
        rng = np.random.default_rng(1)
        freqs = rng.integers(0, 1000, size=300)
        lens = huffman_code_lengths(freqs)
        assert kraft_sum(lens) <= 1.0 + 1e-12

    def test_skewed_distribution_is_near_entropy(self):
        # geometric-ish distribution: expected code length close to entropy
        freqs = np.array([2 ** (20 - i) for i in range(20)], dtype=np.int64)
        lens = huffman_code_lengths(freqs)
        p = freqs / freqs.sum()
        entropy = -(p * np.log2(p)).sum()
        avg = (p * lens).sum()
        assert avg <= entropy + 1.0  # Huffman is within 1 bit of entropy

    def test_length_limit_enforced(self):
        # Fibonacci-like frequencies force very deep optimal trees
        freqs = np.ones(64, dtype=np.int64)
        a, b = 1, 2
        for i in range(64):
            freqs[i] = a
            a, b = b, a + b
        lens = huffman_code_lengths(freqs)
        assert lens.max() <= MAX_CODE_LEN
        assert kraft_sum(lens) <= 1.0 + 1e-12

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            huffman_code_lengths(np.array([1, -1]))

    def test_non_1d_rejected(self):
        with pytest.raises(ValueError):
            huffman_code_lengths(np.ones((2, 2), dtype=np.int64))

    def test_more_symbols_than_max_len_can_code_raises(self):
        # Halving ends with every frequency 1, and 5 leaves need 3 bits, so
        # the length-limit loop used to spin forever: run the calls in a
        # child with a timeout so a regression fails instead of hanging.
        # Both encoder paths run, the numpy one by dropping the library.
        code = (
            "import numpy as np\n"
            "from repro import kernels\n"
            "from repro.codecs.huffman import HuffmanCodec, huffman_code_lengths\n"
            "for lib in (kernels.native(), None):\n"
            "    kernels._lib = lib\n"
            "    for call in (\n"
            "        lambda: huffman_code_lengths(np.ones(5, dtype=np.int64), max_len=2),\n"
            "        lambda: HuffmanCodec().encode(np.arange(2**20 + 1)),\n"
            "    ):\n"
            "        try:\n"
            "            call()\n"
            "        except ValueError:\n"
            "            continue\n"
            "        raise SystemExit('no ValueError')\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_exactly_two_to_max_len_symbols_fit(self):
        lens = huffman_code_lengths(np.ones(4, dtype=np.int64), max_len=2)
        assert lens.tolist() == [2, 2, 2, 2]


class TestCanonicalCodes:
    def test_prefix_free(self):
        lens = huffman_code_lengths(np.array([50, 30, 10, 7, 2, 1]))
        codes = canonical_codes(lens)
        present = np.nonzero(lens)[0]
        strings = {
            format(int(codes[s]), f"0{int(lens[s])}b") for s in present
        }
        assert len(strings) == present.size
        for a in strings:
            for b in strings:
                if a != b:
                    assert not b.startswith(a)

    def test_empty_lengths(self):
        assert canonical_codes(np.zeros(3, dtype=np.int64)).sum() == 0

    @staticmethod
    def _per_symbol_loop(lengths):
        """The per-symbol construction canonical_codes replaced."""
        codes = np.zeros(lengths.size, dtype=np.uint64)
        present = np.nonzero(lengths)[0]
        order = present[np.argsort(lengths[present], kind="stable")]
        code, prev_len = 0, int(lengths[order[0]])
        for sym in order:
            code <<= int(lengths[sym]) - prev_len
            codes[sym] = code
            code += 1
            prev_len = int(lengths[sym])
        return codes

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_symbol_loop(self, seed):
        rng = np.random.default_rng(seed)
        freqs = rng.geometric(0.05 * (seed + 1), size=rng.integers(2, 3000))
        freqs[rng.random(freqs.size) < 0.3] = 0
        freqs[:2] = 1
        lens = huffman_code_lengths(freqs)
        assert np.array_equal(canonical_codes(lens), self._per_symbol_loop(lens))


class TestCodecRoundtrip:
    def test_empty(self):
        c = HuffmanCodec()
        assert c.decode(c.encode(np.empty(0, dtype=np.int64))).size == 0

    def test_single_value_repeated(self):
        c = HuffmanCodec()
        sym = np.full(1000, 7, dtype=np.int64)
        assert np.array_equal(c.decode(c.encode(sym)), sym)

    def test_one_symbol(self):
        c = HuffmanCodec()
        sym = np.array([42])
        assert np.array_equal(c.decode(c.encode(sym)), sym)

    def test_negative_symbols_rejected(self):
        with pytest.raises(ValueError):
            HuffmanCodec().encode(np.array([-1, 2]))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            HuffmanCodec().decode(b"XXXX" + b"\x00" * 16)

    def test_gaussian_indices(self):
        rng = np.random.default_rng(2)
        sym = np.abs(rng.normal(0, 5, 100000)).astype(np.int64)
        c = HuffmanCodec()
        blob = c.encode(sym)
        assert np.array_equal(c.decode(blob), sym)
        # must actually compress a low-entropy stream
        assert len(blob) < sym.size * 8 / 2

    def test_block_boundaries(self):
        # sizes around multiples of the block size stress the lockstep decode
        c = HuffmanCodec(block_size=64)
        rng = np.random.default_rng(3)
        for n in (1, 63, 64, 65, 128, 129, 1000):
            sym = rng.integers(0, 10, n)
            assert np.array_equal(c.decode(c.encode(sym)), sym), n

    def test_large_alphabet(self):
        rng = np.random.default_rng(4)
        sym = rng.integers(0, 5000, 20000)
        c = HuffmanCodec()
        assert np.array_equal(c.decode(c.encode(sym)), sym)

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            HuffmanCodec(block_size=0)


class TestDecodeEdgeCases:
    def test_single_symbol_stream_max_len_one(self):
        # one-symbol alphabet -> every code is the single 1-bit code, the
        # smallest possible decode table (max_len == 1, two entries)
        c = HuffmanCodec(block_size=32)
        for n in (1, 31, 32, 33, 100):
            sym = np.full(n, 3, dtype=np.int64)
            assert np.array_equal(c.decode(c.encode(sym)), sym), n

    def test_final_block_shorter_than_block_size(self):
        # 2 full blocks + a 20-symbol tail: the tail lane must stop early
        # while the full lanes keep stepping
        c = HuffmanCodec(block_size=50)
        rng = np.random.default_rng(5)
        sym = rng.integers(0, 6, 120).astype(np.int64)
        assert np.array_equal(c.decode(c.encode(sym)), sym)

    def test_last_window_straddles_payload_end(self):
        # craft a stream whose total bit length is not byte-aligned, so the
        # final window gather reads past the payload into the zero pad
        import struct

        c = HuffmanCodec()
        rng = np.random.default_rng(6)
        for attempt in range(16):
            sym = np.concatenate([
                np.zeros(1000, np.int64),
                rng.integers(0, 40, 200 + attempt),
            ])
            blob = c.encode(sym)
            n, block_size, n_present = struct.unpack_from("<QII", blob, 4)
            off = 20 + 5 * n_present
            _, total_bits = struct.unpack_from("<QQ", blob, off)
            if total_bits % 8:
                break
        assert total_bits % 8, "could not build a non-byte-aligned payload"
        assert np.array_equal(c.decode(blob), sym)

    def test_decode_table_cache_shared_across_containers(self):
        # two containers with identical code-length tables (same frequency
        # profile) must share exactly one table build, byte-identical output
        c = HuffmanCodec()
        rng = np.random.default_rng(7)
        a = rng.integers(0, 16, 3000).astype(np.int64)
        b = a[::-1].copy()  # same frequencies -> same canonical table
        blob_a, blob_b = c.encode(a), c.encode(b)
        clear_decode_table_cache()
        out_a = c.decode(blob_a)
        info = decode_table_cache_info()
        assert (info["misses"], info["hits"]) == (1, 0)
        out_b = c.decode(blob_b)
        info = decode_table_cache_info()
        assert (info["misses"], info["hits"]) == (1, 1)  # exactly one build
        assert np.array_equal(out_a, a)
        assert np.array_equal(out_b, b)
        assert out_a.tobytes() == a.tobytes()
        assert out_b.tobytes() == b.tobytes()

    def test_decode_table_cache_evicts_past_its_cap(self):
        # 65 containers with distinct code tables: the 64-entry LRU holds
        # the last 64 and has evicted the first
        c = HuffmanCodec()
        streams = [np.arange(2 + i, dtype=np.int64) for i in range(65)]
        blobs = [c.encode(s) for s in streams]
        clear_decode_table_cache()
        for s, blob in zip(streams, blobs):
            assert np.array_equal(c.decode(blob), s)
        info = decode_table_cache_info()
        assert info["max_entries"] == 64
        assert (info["size"], info["evictions"], info["misses"]) == (64, 1, 65)
        c.decode(blobs[-1])
        assert decode_table_cache_info()["hits"] == 1

    def test_cache_hit_survives_an_eviction_by_another_thread(self, monkeypatch):
        # force the interleaving a threaded decode can hit: between this
        # thread's cache lookup and its LRU reorder, a second decoding
        # thread inserts another table and evicts the one just looked up.
        # The lookup pauses until the other thread has evicted (or 1 s has
        # passed, for a memo that makes the other thread wait)
        from collections import OrderedDict

        from repro.codecs import huffman

        c = HuffmanCodec()
        a, b = np.arange(5, dtype=np.int64), np.arange(9, dtype=np.int64)
        blob_a, blob_b = c.encode(a), c.encode(b)
        clear_decode_table_cache()
        monkeypatch.setattr(huffman, "_DECODE_TABLE_CACHE_MAX", 1)
        c.decode(blob_a)  # the memo now holds a's table only
        main = threading.current_thread()
        looked_up, evicted = threading.Event(), threading.Event()

        class PausingMemo(OrderedDict):
            def get(self, key, default=None):
                value = super().get(key, default)
                if value is not None and threading.current_thread() is main:
                    looked_up.set()
                    evicted.wait(timeout=1.0)
                return value

        monkeypatch.setattr(
            huffman, "_DECODE_TABLE_CACHE", PausingMemo(huffman._DECODE_TABLE_CACHE)
        )
        other_out = []

        def decode_b():
            looked_up.wait(timeout=10.0)
            other_out.append(c.decode(blob_b))
            evicted.set()

        other = threading.Thread(target=decode_b)
        other.start()
        try:
            out = c.decode(blob_a)
        finally:
            looked_up.set()
            other.join()
        assert np.array_equal(out, a)
        assert np.array_equal(other_out[0], b)
        info = decode_table_cache_info()
        assert (info["hits"], info["misses"], info["evictions"], info["size"]) == (
            1, 2, 1, 1,
        )

    def test_fork_while_the_memo_is_locked_does_not_deadlock(self):
        # a decode thread can hold the memo's lock when the gateway forks
        # its pool; the child must not inherit the held lock
        import multiprocessing

        from repro.codecs import huffman

        ctx = multiprocessing.get_context("fork")
        with huffman._DECODE_TABLE_LOCK:
            proc = ctx.Process(target=_decode_in_child)
            proc.start()
        proc.join(timeout=60)
        hung = proc.is_alive()
        if hung:
            proc.kill()
            proc.join(timeout=10)
        assert not hung
        assert proc.exitcode == 0


class TestDecodeMany:
    def test_matches_decode_per_container(self):
        c = HuffmanCodec(block_size=128)
        rng = np.random.default_rng(8)
        streams = [
            rng.integers(0, hi, n).astype(np.int64)
            for hi, n in ((5, 1000), (300, 257), (2, 1), (7, 500), (1, 90))
        ]
        blobs = [c.encode(s) for s in streams]
        outs = c.decode_many(blobs)
        assert len(outs) == len(streams)
        for s, blob, out in zip(streams, blobs, outs):
            assert np.array_equal(out, s)
            assert np.array_equal(c.decode(blob), out)

    def test_empty_members_keep_positions(self):
        c = HuffmanCodec()
        empty = c.encode(np.empty(0, dtype=np.int64))
        full = c.encode(np.arange(10))
        outs = c.decode_many([empty, full, empty])
        assert outs[0].size == 0 and outs[2].size == 0
        assert np.array_equal(outs[1], np.arange(10))

    def test_empty_batch(self):
        assert HuffmanCodec().decode_many([]) == []

    def test_corrupt_member_raises(self):
        c = HuffmanCodec()
        good = c.encode(np.arange(100))
        with pytest.raises(TruncatedStreamError):
            c.decode_many([good, good[:10]])

    def test_first_corrupt_member_raises_its_own_error(self):
        # ``a`` parses, but its first block decodes out of alignment; ``b``
        # is a truncated header.  The batch must fail on ``a`` with the
        # error ``decode(a)`` raises, not on ``b``'s truncation.
        c = HuffmanCodec(block_size=64)
        good = c.encode(np.minimum(np.arange(1000) % 16, 3))
        n_present = struct.unpack_from("<QII", good, 4)[2]
        n_blocks = struct.unpack_from("<Q", good, 20 + 5 * n_present)[0]
        a = bytearray(good)
        a[20 + 5 * n_present + 16 + 8 * n_blocks] ^= 0xFF  # first payload byte
        a = bytes(a)
        with pytest.raises(CorruptBlobError) as single:
            c.decode(a)
        with pytest.raises(CorruptBlobError) as batch:
            c.decode_many([a, good[:10]])
        assert type(single.value) is type(batch.value) is CorruptBlobError
        assert str(batch.value) == str(single.value)


@given(
    hnp.arrays(
        dtype=np.int64,
        shape=st.integers(0, 2000),
        elements=st.integers(0, 200),
    )
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(sym):
    c = HuffmanCodec(block_size=97)
    assert np.array_equal(c.decode(c.encode(sym)), sym)


@given(
    st.lists(
        hnp.arrays(
            dtype=np.int64,
            shape=st.integers(0, 300),
            elements=st.integers(0, 60),
        ),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=40, deadline=None)
def test_decode_many_property(streams):
    c = HuffmanCodec(block_size=61)
    blobs = [c.encode(s) for s in streams]
    for s, out in zip(streams, c.decode_many(blobs)):
        assert np.array_equal(out, s)


def test_huffman_table_cache_counters_surface_in_obs():
    from repro import obs

    clear_decode_table_cache()
    symbols = np.arange(100, dtype=np.int64) % 17
    blob = HuffmanCodec().encode(symbols)
    ob = obs.Observation()
    with obs.observe(ob):
        HuffmanCodec().decode(blob)   # miss: cold table
        HuffmanCodec().decode(blob)   # hit: memoized table
    snap = ob.metrics.snapshot()
    assert snap["huffman.table_cache{result=miss}"]["value"] == 1
    assert snap["huffman.table_cache{result=hit}"]["value"] == 1
