"""Codec substrates: bit I/O, Huffman entropy coding, lossless byte codecs."""
from .bitstream import BitReader, BitWriter, pack_bits, unpack_bits
from .fixed import decode_fixed, encode_fixed
from .huffman import HuffmanCodec, canonical_codes, huffman_code_lengths
from .lossless import BACKENDS, compress, decompress
from .rangecoder import RangeCodec

__all__ = [
    "BitReader",
    "BitWriter",
    "pack_bits",
    "unpack_bits",
    "HuffmanCodec",
    "huffman_code_lengths",
    "canonical_codes",
    "RangeCodec",
    "compress",
    "decompress",
    "BACKENDS",
    "encode_fixed",
    "decode_fixed",
]
