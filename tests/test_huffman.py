"""Unit + property tests for the canonical length-limited Huffman codec."""
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
from repro.errors import TruncatedStreamError


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
