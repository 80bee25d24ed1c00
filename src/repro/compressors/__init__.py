"""Error-bounded lossy compressors: the four interpolation-based bases the
paper integrates QP with (MGARD, SZ3, QoZ, HPEZ) and the three
transform-based comparators (ZFP, TTHRESH, SPERR)."""
from .base import Blob, Codec, CompressionState, Compressor
from .hpez import HPEZ
from .mgard import MGARD
from .qoz import QoZ
from .registry import (
    COMPRESSORS,
    INTERP_COMPRESSORS,
    available_compressors,
    base_compressor,
    constructor_accepts,
    decompress_any,
    decompress_many,
    get_compressor,
    supports_qp,
    traits_table,
)
from .sz3 import SZ3

__all__ = [
    "Blob",
    "Codec",
    "Compressor",
    "CompressionState",
    "SZ3",
    "QoZ",
    "HPEZ",
    "MGARD",
    "COMPRESSORS",
    "INTERP_COMPRESSORS",
    "available_compressors",
    "base_compressor",
    "constructor_accepts",
    "get_compressor",
    "decompress_any",
    "decompress_many",
    "supports_qp",
    "traits_table",
]
