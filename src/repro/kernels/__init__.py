"""Which implementation runs each hot loop of the compressor stack.

Every hot loop has a plain numpy implementation, called directly in the
module that owns it: the Huffman code lengths, bit packing and lockstep
decode, and the index-stream window they code through (median offset,
escapes), in :mod:`repro.codecs.huffman`, the QP
forward shifts and wavefront walks in :mod:`repro.core.qp`, the Lorenzo
diff/cumsum pair in :mod:`repro.predictors.lorenzo`, SZ3's
predictor-selection estimates in :mod:`repro.compressors.sz3`, the
midpoint fills in :mod:`repro.predictors.interpolation`, the linear
quantizer in :mod:`repro.quantize.linear` and the reserved-index
encode/decode in :mod:`repro.quantize.adaptive`.

All of them also exist in C (``native.c`` beside this file).  The
integer loops: on the decode side the Huffman block decode, which also
adds an index stream's offset and finds its escape symbols, the QP Case
II-IV inverse and the prefix sums that invert Lorenzo and QP Case I; on
the encode side an index stream's bounds and histogram (its median,
window and Huffman frequencies all come from that one count), the
Huffman code lengths, the Huffman bit packing through the window (the
escapes collected as it packs), the QP forward and Lorenzo's
differences; integer arithmetic gives the same bytes on either path by
construction.  The float loops, in float32 and float64: the linear and
adaptive quantizers' encode and decode, the
linear/cubic midpoint fill, Lorenzo's pre-quantization and the two
histograms SZ3's predictor selection compares (the Lorenzo indices,
without writing them, and each interpolation pass's clipped indices).
These repeat numpy's IEEE-754 operations in numpy's order, and the build
forbids fused multiply-adds (``-ffp-contract=off``) and extended-precision
intermediates (``native.c`` refuses to compile unless
``FLT_EVAL_METHOD == 0``), so they give the same bytes too.
:func:`native` compiles the source with the system C compiler on first
use, caches the shared library in this package's ``__pycache__`` under a
digest of the source and the compiler command, and loads it through
:mod:`ctypes`.  Nothing is built at import.  When there is no compiler, the directory is not writable or the
build or load fails, :func:`native` returns ``None`` for the life of the
process and the numpy loops run; no option selects the path.  Reports
record :func:`active_backends` so a run states which implementation
produced its numbers.

The float kernels walk one strided array per call through the rank-4
geometry :func:`view_geometry` builds (the Lorenzo kernels with no axes
merged; the decode kernels also write their output through it), and the
quantizers take their constants as a :class:`QuantParams`;
:func:`float_kernel` picks a kernel's float32 or float64 instantiation.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import threading

import numpy as np

__all__ = [
    "QuantParams", "active_backends", "address", "float_kernel", "native",
    "view_geometry",
]

_STAGES = ("adaptive_quantize", "huffman", "interp", "lorenzo", "qp", "quantize")

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "native.c")
_CACHE_DIR = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
#: -ffp-contract=off: a fused multiply-add rounds once where numpy rounds
#: twice, so contraction (GCC's default on aarch64, or with -mfma) would
#: change the float kernels' bytes
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double
#: name -> (argtypes, restype)
_SIGNATURES = {
    "repro_huffman_decode": (
        (_P, _I, _P, _P, _I, _P, _I, _I, _I, _P, _P, _I, _I, _P, _I), _I
    ),
    "repro_huffman_lengths": ((_P, _I, _P, _P), None),
    "repro_huffman_encode": (
        (_P, _I, _P, _P, _I, _P, _I, _P, _I, _I, _P, _I), _I
    ),
    "repro_int_bounds": ((_P, _I, _P), None),
    "repro_int_histogram": ((_P, _I, _I, _I, _I, _P), None),
    "repro_qp_inverse_1d": ((_P, _I, _I, _I, _I), None),
    "repro_qp_inverse_2d": ((_P, _I, _I, _I, _I, _I), None),
    "repro_qp_inverse_3d": ((_P, _I, _I, _I, _I, _I, _I), None),
    "repro_qp_forward_1d": ((_P, _P, _I, _I, _I, _P), None),
    "repro_qp_forward_2d": ((_P, _P, _I, _I, _P), None),
    "repro_qp_forward_3d": ((_P, _P, _I, _I, _P), None),
    "repro_prefix_sums": ((_P, _P, _P, _I, _I, _P, _I), _I),
    "repro_lorenzo_encode": ((_P, _P, _I, _P, _P), _I),
}
#: the float kernels, each exported as ``<name>_f32`` and ``<name>_f64``:
#: (argtypes, restype); the quantizers return their literal count, the
#: Lorenzo histogram its escape count and the binning kernel its NaN count
_FLOAT_SIGNATURES = {
    "repro_quantize": ((_P, _P, _P, _P, _P, _P), _I),
    "repro_adaptive_encode": ((_P, _P, _P, _P, _P, _P), _I),
    "repro_dequantize": ((_P, _P, _P, _P, _I, _P, _P), _I),
    "repro_adaptive_decode": ((_P, _P, _P, _P, _I, _P, _P), _I),
    "repro_fill": ((_P, _P, _P), None),
    "repro_lorenzo_prequantize": ((_P, _P, _D, _P, _P), None),
    "repro_lorenzo_hist": ((_P, _P, _D, _I, _P, _P, _P), _I),
    "repro_bin_residuals": ((_P, _P, _P, _D, _I, _P, _P), _I),
}
_FLOAT_SUFFIX = {np.dtype(np.float32): "_f32", np.dtype(np.float64): "_f64"}


class QuantParams(ctypes.Structure):
    """A quantizer's constants as ``native.c``'s ``struct quant_params``."""

    _fields_ = [
        ("two_eb", ctypes.c_double),
        ("eb", ctypes.c_double),
        ("radius", ctypes.c_double),
        ("sentinel", ctypes.c_int64),
        ("two_tight", ctypes.c_double),
        ("tight_eb", ctypes.c_double),
        ("threshold", ctypes.c_double),
        ("bias", ctypes.c_double),
    ]

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
    return dict.fromkeys(_STAGES, path)


_from_buffer = ctypes.c_char.from_buffer


def address(a: np.ndarray) -> int:
    """The address of ``a``'s first element, for a kernel argument.

    ctypes' ``from_buffer`` reads it in 0.4 µs where ``a.ctypes`` takes
    1.5 µs (2-vCPU Xeon VM), but only from a non-empty, writable,
    C-contiguous array: the fresh outputs and predictions the float kernels
    take.  Views of the working array go through ``a.ctypes``.
    """
    flags = a.flags
    if flags.c_contiguous and flags.writeable and a.size:
        return ctypes.addressof(_from_buffer(a))
    return a.ctypes.data


def float_kernel(name: str, dtype: np.dtype):
    """The float32 or float64 instantiation of the float kernel ``name``
    (``"repro_quantize"``, ...) for arrays of ``dtype``, or ``None`` when
    the library did not load or ``dtype`` is neither."""
    lib = native()
    suffix = _FLOAT_SUFFIX.get(dtype)
    if lib is None or suffix is None:
        return None
    return getattr(lib, name + suffix)


@functools.lru_cache(maxsize=4096)
def view_geometry(
    shape: tuple[int, ...], strides: tuple[int, ...], itemsize: int,
    keep: int = -1, tail: tuple[int, ...] = (), merge: bool = True,
    out: "tuple[tuple[int, ...], int] | None" = None,
):
    """The rank-4 view of a strided array that ``native.c``'s float kernels
    walk: four extents, then four strides in elements, then ``tail``.

    Adjacent axes merge where the strides allow and unit axes drop, so the
    view visits the elements in the array's C order; axis ``keep`` (the
    interpolation axis of a fill) neither merges nor drops, and its slot
    in the view comes after the strides, before ``tail``.  ``merge=False``
    merges no axes (the Lorenzo kernels difference along each of the
    array's own axes).  ``out`` is ``(strides, itemsize)`` of a second
    array of the same shape that the kernel writes alongside (the decode
    kernels' output): axes then merge only where both arrays allow, and
    its four strides follow the first array's.  ``None`` when more than
    four axes remain or a stride is not a whole number of elements: the
    caller then runs numpy.  The result is cached and shared by every
    caller; the kernels only read it.
    """
    arrays = ((strides, itemsize),) + ((out,) if out else ())
    dims: list[list] = []  # [extent, kept, stride in elements per array]
    for axis, n in enumerate(shape):
        if any(st[axis] % size for st, size in arrays):
            return None
        steps = [st[axis] // size for st, size in arrays]
        kept = axis == keep
        if n == 1 and not kept:
            continue
        if (merge and dims and not kept and not dims[-1][1]
                and all(a == n * b for a, b in zip(dims[-1][2], steps))):
            dims[-1][0] *= n
            dims[-1][2] = steps
        else:
            dims.append([n, kept, steps])
    if len(dims) > 4:
        return None
    dims = [[1, False, [0] * len(arrays)]] * (4 - len(dims)) + dims
    geom = [d[0] for d in dims]
    for a in range(len(arrays)):
        geom += [d[2][a] for d in dims]
    if keep >= 0:
        geom.append([d[1] for d in dims].index(True))
    geom += tail
    return (ctypes.c_int64 * len(geom))(*geom)


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
    signatures = dict(_SIGNATURES)
    for name, signature in _FLOAT_SIGNATURES.items():
        for suffix in _FLOAT_SUFFIX.values():
            signatures[name + suffix] = signature
    for name, (argtypes, restype) in signatures.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
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
