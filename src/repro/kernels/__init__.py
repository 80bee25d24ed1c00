"""Which implementation runs each hot loop of the compressor stack.

Every hot loop has a plain numpy implementation, called directly in the
module that owns it: the Huffman code lengths, bit packing and lockstep
decode in :mod:`repro.codecs.huffman`, the QP forward shifts and
wavefront walks in :mod:`repro.core.qp`, the Lorenzo diff/cumsum pair in
:mod:`repro.predictors.lorenzo`, the midpoint fills in
:mod:`repro.predictors.interpolation`, and the reserved-index
encode/decode in :mod:`repro.quantize.adaptive`.

The integer loops of the Huffman and QP stages also exist in C
(``native.c`` beside this file): on the decode side the Huffman block
decode and the QP Case II-IV inverse, on the encode side the Huffman code
lengths, the Huffman bit packing and the QP forward.  Integer arithmetic
gives the same bytes on either path by construction; the float stages
(interpolation, quantization) stay in numpy.  :func:`native` compiles the
source with the system C compiler on first use, caches the shared library
in this package's ``__pycache__`` under a digest of the source and the
compiler command, and loads it through :mod:`ctypes`.  Nothing is built at
import.  When there is no compiler, the directory is not writable or the
build or load fails, :func:`native` returns ``None`` for the life of the
process and the numpy loops run; no option selects the path.  Reports
record :func:`active_backends` so a run states which implementation
produced its numbers.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import threading

__all__ = ["active_backends", "native"]

_STAGES = ("adaptive_quantize", "huffman", "interp", "lorenzo", "qp")
#: stages whose integer loops run in ``native.c`` when the library loads
_NATIVE_STAGES = ("huffman", "qp")

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "native.c")
_CACHE_DIR = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
_CFLAGS = ("-O2", "-shared", "-fPIC")

_P = ctypes.c_void_p
_I = ctypes.c_int64
_SIGNATURES = {
    "repro_huffman_decode": (_P, _I, _P, _P, _I, _P, _I, _I, _I, _P, _P),
    "repro_huffman_lengths": (_P, _I, _P, _P),
    "repro_huffman_encode": (_P, _I, _P, _P, _I, _P, _P),
    "repro_qp_inverse_1d": (_P, _I, _I, _I, _I),
    "repro_qp_inverse_2d": (_P, _I, _I, _I, _I, _I),
    "repro_qp_inverse_3d": (_P, _I, _I, _I, _I, _I, _I),
    "repro_qp_forward_1d": (_P, _P, _I, _I, _I, _P),
    "repro_qp_forward_2d": (_P, _P, _I, _I, _P),
    "repro_qp_forward_3d": (_P, _P, _I, _I, _P),
}

_UNRESOLVED = object()
#: the loaded library, ``None`` (numpy path) or not yet resolved; tests swap
#: it with ``monkeypatch`` to force the numpy path
_lib = _UNRESOLVED
_lib_lock = threading.Lock()


def _reset_lock_in_child() -> None:
    # a fork taken while another thread held the lock (mid-build) would
    # leave the child's copy locked forever; the child resolves on its own
    global _lib_lock
    _lib_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_lock_in_child)


def native():
    """The loaded C kernel library, or ``None`` when the numpy path runs.

    The first call builds (or finds the cached build of) ``native.c`` and
    loads it; every later call returns the same answer.
    """
    global _lib
    lib = _lib
    if lib is _UNRESOLVED:
        with _lib_lock:
            if _lib is _UNRESOLVED:
                _lib = _load()
            lib = _lib
    return lib


def active_backends() -> dict[str, str]:
    """stage -> implementation of its hot loop (``"c"`` or ``"numpy"``)."""
    path = "numpy" if native() is None else "c"
    return {s: path if s in _NATIVE_STAGES else "numpy" for s in _STAGES}


def _library_path(compiler: str) -> str:
    with open(_SOURCE, "rb") as f:
        source = f.read()
    command = " ".join((compiler, *_CFLAGS)).encode()
    digest = hashlib.blake2b(source + b"\0" + command, digest_size=8).hexdigest()
    return os.path.join(_CACHE_DIR, f"native-{digest}.so")


def _build(compiler: str, path: str) -> None:
    """Compile to a private temporary name, then move it into place, so a
    concurrent process never loads a half-written library."""
    os.makedirs(_CACHE_DIR, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp, _SOURCE],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(path)
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = None
    return lib


def _load():
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    try:
        path = _library_path(compiler)
        if os.path.exists(path):
            try:
                return _open(path)
            except OSError:
                pass  # truncated or foreign file: rebuild it below
        _build(compiler, path)
        return _open(path)
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
