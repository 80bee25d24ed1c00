"""The QP transform: adaptive quantization index prediction (Algorithms 1-2).

``qp_forward`` maps a pass's quantization-index array ``Q`` to the
lower-entropy ``Q' = Q - c`` where the compensation ``c`` comes from a
conditional Lorenzo prediction over *previously processed* indices of the same
pass.  ``qp_inverse`` recovers ``Q`` exactly — the transform is reversible by
construction, so QP never changes decompressed data (the paper's key
invariant).

Array convention: a *pass array* holds the quantization indices of one
interpolation pass, with the interpolation axis first and the orthogonal
plane axes last.  The 2-D Lorenzo of the paper acts on the last two axes
(the plane perpendicular to the interpolation direction); all leading axes
are batch axes.

Vectorization strategy (DESIGN.md §7): when the native kernel library loads
(:func:`repro.kernels.native`), the forward direction is one C pass that
reads the pass array through its strides and writes ``Q'`` C-contiguous,
and the Case II-IV inverse is a plain raster scan in C, because C order
visits every left, top and back neighbour (and their diagonals) before the
point itself.  The Case I inverse is prefix sums on either path; in C it
is the prefix-sum kernel that also inverts Lorenzo.  The numpy fallback,
also the reference the tests compare against, computes the
forward as a handful of whole-array shifts fed to
:func:`~repro.core.conditions.compensation`, and walks the inverse in
anti-diagonal wavefronts so each Python iteration recovers a whole diagonal
(1-D variants walk lines; the 3-D variant walks i+j+k wavefronts).
"""
from __future__ import annotations

import ctypes
import math
from functools import lru_cache

import numpy as np

from .. import kernels
from ..obs import span
from .conditions import compensation
from .config import QPConfig

__all__ = ["qp_forward", "qp_inverse", "qp_inverse_multi", "effective_dimension"]


def effective_dimension(dimension: str, ndim: int) -> str | None:
    """Degrade the configured predictor to what the pass array supports.

    Returns ``None`` when QP cannot act at all (no usable neighbour axis).
    """
    if ndim >= 3:
        return dimension
    if ndim == 2:
        # only one plane axis exists; in-plane Lorenzo degenerates to 1-D
        return {
            "2d": "1d-left",
            "3d": "2d",  # (back, left) become the two Lorenzo axes
            "1d-top": None,
        }.get(dimension, dimension)
    # ndim == 1: only the interpolation axis exists
    return dimension if dimension == "1d-back" else None


def _shift(a: np.ndarray, axis: int) -> np.ndarray:
    """Previous element along ``axis``; missing neighbours read as 0."""
    out = np.empty_like(a)
    src = [slice(None)] * a.ndim
    dst = [slice(None)] * a.ndim
    src[axis] = slice(0, a.shape[axis] - 1)
    dst[axis] = slice(1, None)
    out[tuple(dst)] = a[tuple(src)]
    dst[axis] = slice(0, 1)
    out[tuple(dst)] = 0
    return out


def _plane_axes(ndim: int, dim: str) -> tuple[int | None, int | None, int | None]:
    """(back, top, left) axes for a pass array of the given rank."""
    back = 0
    left = ndim - 1 if ndim >= 2 else None
    top = ndim - 2 if ndim >= 3 else None
    if ndim == 2 and dim == "2d":
        # degraded 3d: treat (back, left) as the Lorenzo plane
        top = 0
        back = None
    return back, top, left


def qp_forward(q: np.ndarray, sentinel: int, config: QPConfig, level: int) -> np.ndarray:
    """Apply QP to one pass array; returns ``Q'`` (input is not modified)."""
    if not config.applies_to_level(level):
        return q
    dim = effective_dimension(config.dimension, q.ndim)
    if dim is None:
        return q

    with span("qp.forward", dim=dim, level=level):
        lib = _native_lib(q.dtype, sentinel)
        if lib is not None and q.ndim:
            return _forward_native(lib, q, sentinel, config.condition, dim)
        back_ax, top_ax, left_ax = _plane_axes(q.ndim, dim)
        # only allocate the all-zero stand-in when some neighbour axis is
        # missing
        zeros = (
            np.zeros_like(q) if (left_ax is None or top_ax is None) else None
        )
        left = _shift(q, left_ax) if left_ax is not None else zeros
        top = _shift(q, top_ax) if top_ax is not None else zeros
        lt = (
            _shift(_shift(q, left_ax), top_ax)
            if (left_ax is not None and top_ax is not None)
            else zeros
        )
        kwargs = {}
        if dim in ("1d-back", "3d"):
            back = _shift(q, back_ax)
            kwargs["back"] = back
            if dim == "3d":
                kwargs["lb"] = _shift(left, back_ax)
                kwargs["tb"] = _shift(top, back_ax)
                kwargs["ltb"] = _shift(lt, back_ax)
        c = compensation(dim, config.condition, sentinel, left, top, lt, **kwargs)
        return q - c


def qp_inverse(
    qp: np.ndarray, sentinel: int, config: QPConfig, level: int
) -> np.ndarray:
    """Invert :func:`qp_forward`, recovering the original pass array."""
    if not config.applies_to_level(level):
        return qp
    dim = effective_dimension(config.dimension, qp.ndim)
    if dim is None:
        return qp
    with span("qp.inverse", dim=dim, level=level):
        return _inverse(qp, sentinel, config.condition, dim)


def qp_inverse_multi(
    qs: np.ndarray, sentinel: int, config: QPConfig, level: int
) -> np.ndarray:
    """Invert :func:`qp_forward` in place on every part ``qs[i]`` of a
    stack of equal pass arrays; returns ``qs``.

    Each part must be C-contiguous, as the rows of a stacked decode's
    index buffer are (``qs`` itself need not be).  Where the native
    library loads, the C walks and Case I's prefix sums run on each part
    itself; the 3-D walk of a part of rank 4 or more (its back axis moves
    beside the plane) and the numpy path invert into scratch and copy
    back.
    """
    if not config.applies_to_level(level):
        return qs
    dim = effective_dimension(config.dimension, qs.ndim - 1)
    if dim is None:
        return qs
    cond = config.condition
    with span("qp.inverse", dim=dim, level=level, batch=len(qs)):
        lib = _native_lib(qs.dtype, sentinel)
        for part in qs:
            if not part.flags.c_contiguous or not part.flags.writeable:
                raise ValueError("qp_inverse_multi needs writable C-contiguous parts")
            if lib is None or not _inverse_in_place(lib, part, sentinel, cond, dim):
                part[...] = _inverse(part, sentinel, cond, dim)
    return qs


def _inverse(qp: np.ndarray, sentinel: int, cond: str, dim: str) -> np.ndarray:
    if dim in ("1d-back", "1d-top", "1d-left"):
        return _inverse_1d(qp, sentinel, cond, dim)
    if dim == "2d":
        return _inverse_2d(qp, sentinel, cond)
    return _inverse_3d(qp, sentinel, cond)


def _inverse_in_place(lib, q: np.ndarray, sentinel: int, cond: str, dim: str) -> bool:
    """Invert the C-contiguous int64 ``q`` in place with one C call; False,
    with ``q`` untouched, where the walk needs another layout (3-D at rank
    4 or more)."""
    if cond == "I":
        _prefix_sums(lib, q, q, *_case1_sums(q.shape, dim))
        return True
    if dim == "3d" and q.ndim != 3:
        return False
    _walk_native(lib, q, sentinel, cond, dim)
    return True


# -- native kernels ----------------------------------------------------------

_NATIVE_CONDITIONS = {"I": 1, "II": 2, "III": 3, "IV": 4}
#: the forward kernels' view geometry: four extents, four element strides
_Geometry = ctypes.c_int64 * 8
_INT64 = np.iinfo(np.int64)


def _native_lib(dtype: np.dtype, sentinel: int):
    """The C library when it is loaded and can walk this input, else None."""
    lib = kernels.native()
    if lib is None or dtype != np.int64 or not _INT64.min <= sentinel <= _INT64.max:
        return None
    return lib


def _prod(dims) -> int:
    return math.prod(dims)


def _forward_native(
    lib, q: np.ndarray, sentinel: int, cond: str, dim: str
) -> np.ndarray:
    """:func:`qp_forward`'s ``q - c`` computed by the C kernel for ``dim``.

    The kernels see ``q`` as a rank-4 strided view: back axis, batch
    axes, top axis, left axis (``native.c``).  Reshaping to it keeps the
    engine's moved-axis views as views; only rank >= 5 arrays whose middle
    axes cannot merge, and unaligned arrays, are copied.  The output is a
    new C-contiguous array, so callers can ravel it without a copy.
    """
    shape, d = q.shape, q.ndim
    if d >= 3:
        dims = (shape[0], _prod(shape[1:-2]), shape[-2], shape[-1])
    else:
        dims = (1,) * (4 - d) + shape
    view = q.reshape(dims)
    if not view.flags.aligned or any(s % 8 for s in view.strides):
        view = np.ascontiguousarray(view)
    geom = _Geometry(*dims, *[s // 8 for s in view.strides])
    out = np.empty(shape, dtype=np.int64)
    args = (_NATIVE_CONDITIONS[cond], int(sentinel), out.ctypes.data)
    if dim == "2d":
        lib.repro_qp_forward_2d(view.ctypes.data, geom, *args)
    elif dim == "3d":
        lib.repro_qp_forward_3d(view.ctypes.data, geom, *args)
    else:
        # the view axis the 1-D neighbour runs along: 0, 2 or 3
        axis = _axis_1d(dim, d)
        slot = axis + 4 - d if axis >= d - 2 else 0
        lib.repro_qp_forward_1d(view.ctypes.data, geom, slot, *args)
    return out


def _walk_native(lib, q: np.ndarray, sentinel: int, cond: str, dim: str) -> np.ndarray:
    """Invert ``q`` in place with the C walk for ``dim`` and return it.

    ``q`` must be a private C-contiguous int64 array.  The kernels index
    only by loop counters over the shape passed here, so values from an
    untrusted stream never steer memory access.  3d walks the last three
    axes; callers move the back axis there first.
    """
    if q.dtype != np.int64 or not q.flags.c_contiguous:
        raise ValueError("native QP walk needs a C-contiguous int64 array")
    shape = q.shape
    if dim == "2d":
        lib.repro_qp_inverse_2d(
            q.ctypes.data, _prod(shape[:-2]), *shape[-2:],
            _NATIVE_CONDITIONS[cond], sentinel,
        )
    elif dim == "3d":
        lib.repro_qp_inverse_3d(
            q.ctypes.data, _prod(shape[:-3]), *shape[-3:],
            _NATIVE_CONDITIONS[cond], sentinel,
        )
    else:  # 1-D: Cases II-IV coincide (see native.c)
        axis = _axis_1d(dim, q.ndim)
        lib.repro_qp_inverse_1d(
            q.ctypes.data, _prod(shape[:axis]), shape[axis],
            _prod(shape[axis + 1:]), sentinel,
        )
    return q


def _case1_sums(shape: tuple[int, ...], dim: str) -> tuple[tuple[int, ...], int]:
    """Case I's inverse as ``native.c``'s ``repro_prefix_sums`` runs it on
    a pass array of ``shape``: the rank-4 C-order extents it sees the
    array as, and the bits of the axes it sums along.  Unconditional
    Lorenzo is a first difference along each of its axes, so the inverse
    is one prefix sum per axis."""
    if dim == "2d":
        return (1, _prod(shape[:-2]), *shape[-2:]), 12
    if dim == "3d":  # back, top, left
        return (shape[0], _prod(shape[1:-2]), *shape[-2:]), 13
    axis = _axis_1d(dim, len(shape))
    outer, n, inner = _prod(shape[:axis]), shape[axis], _prod(shape[axis + 1:])
    if inner == 1:  # the last axis: sum along the kernel's rows
        return (1, 1, outer, n), 8
    return (1, outer, n, inner), 4


def _prefix_sums(lib, q: np.ndarray, src: np.ndarray, dims, axes: int) -> None:
    """The prefix sums of the C-contiguous ``src``, seen as the rank-4
    C-order array ``dims``, along the axes whose bits are set in ``axes``,
    into ``q`` of its layout (``src is q`` sums in place; otherwise the
    kernel copies as it sums)."""
    lib.repro_prefix_sums(
        q.ctypes.data, src.ctypes.data, (ctypes.c_int64 * 4)(*dims), axes, 0,
        None, -1,
    )


def _prefix_sums_native(qp: np.ndarray, dims: tuple[int, ...], axes: int):
    """Case I's inverse in C: a new array of the prefix sums of ``qp``
    (:func:`_prefix_sums`; :func:`_case1_sums` gives ``dims`` and
    ``axes``).  None where numpy must run."""
    lib = _native_lib(qp.dtype, 0)
    if lib is None:
        return None
    q = np.empty(qp.shape, dtype=np.int64)
    _prefix_sums(lib, q, np.ascontiguousarray(qp), dims, axes)
    return q


def _axis_1d(dim: str, ndim: int) -> int:
    return {"1d-back": 0, "1d-top": ndim - 2, "1d-left": ndim - 1}[dim]


def _inverse_1d(qp: np.ndarray, sentinel: int, cond: str, dim: str) -> np.ndarray:
    axis = _axis_1d(dim, qp.ndim)
    if cond == "I":
        # Unconditional 1-D Lorenzo is a first difference along ``axis``; its
        # inverse is a prefix sum — O(N) fully vectorized, no line walk
        # (same fast path _inverse_2d has for the separable 2-D case).
        q = _prefix_sums_native(qp, *_case1_sums(qp.shape, dim))
        return np.cumsum(qp, axis=axis) if q is None else q
    lib = _native_lib(qp.dtype, sentinel)
    if lib is not None:
        return _walk_native(lib, np.array(qp, order="C"), sentinel, cond, dim)
    q = np.moveaxis(qp.copy(), axis, -1)  # view into the copy; scan last axis
    n = q.shape[-1]
    zeros = np.zeros(q.shape[:-1], dtype=q.dtype)
    for j in range(1, n):
        nb = q[..., j - 1]
        if dim == "1d-back":
            c = compensation(dim, cond, sentinel, zeros, zeros, zeros, back=nb)
        elif dim == "1d-top":
            c = compensation(dim, cond, sentinel, zeros, nb, zeros)
        else:
            c = compensation(dim, cond, sentinel, nb, zeros, zeros)
        q[..., j] += c
    return np.moveaxis(q, -1, axis)


@lru_cache(maxsize=32)
def _diag_indices_2d(na: int, nb: int):
    """Flat per-anti-diagonal gather/scatter tables for the 2-D inverse.

    Indices address a zero-padded ``(na+1, nb+1)`` plane (one ghost row and
    column of zeros in front), so border neighbours read the padding instead
    of needing per-diagonal ``has_top``/``has_left`` clamp masks — the
    padding zeros are exactly the "missing neighbour reads as 0" convention
    of the forward transform.  Each diagonal carries one scatter table
    (``ctr``) and one *concatenated* gather table (``nbr`` = left|top|lt),
    so the whole wavefront step is a single fancy-index gather.  Built once
    per pass-array shape (shapes repeat across levels, passes and volumes)
    and reused read-only.
    """
    width = nb + 1
    diags = []
    for k in range(1, na + nb - 1):
        i = np.arange(max(0, k - nb + 1), min(na - 1, k) + 1) + 1
        j = (k + 2) - i  # padded coordinates: i + j == k + 2
        ctr = i * width + j
        nbr = np.concatenate([
            i * width + (j - 1),        # left
            (i - 1) * width + j,        # top
            (i - 1) * width + (j - 1),  # lt
        ])
        ctr.setflags(write=False)
        nbr.setflags(write=False)
        diags.append((ctr, nbr, i.size))
    interior = (
        (np.arange(na)[:, None] + 1) * width + np.arange(nb)[None, :] + 1
    ).ravel()
    interior.setflags(write=False)
    return tuple(diags), interior


def _inverse_2d(qp: np.ndarray, sentinel: int, cond: str) -> np.ndarray:
    if cond == "I":
        # Unconditional 2-D Lorenzo is a separable finite difference, so its
        # inverse is two prefix sums — O(N) fully vectorized, no wavefront.
        # (This implements the paper's future-work item on reducing QP's
        # computational overhead for the unconditional case.)
        q = _prefix_sums_native(qp, *_case1_sums(qp.shape, "2d"))
        if q is not None:
            return q
        q = np.cumsum(qp, axis=-1)
        return np.cumsum(q, axis=-2)
    lib = _native_lib(qp.dtype, sentinel)
    if lib is not None:
        return _walk_native(lib, np.array(qp, order="C"), sentinel, cond, "2d")
    shape = qp.shape
    na, nb = shape[-2], shape[-1]
    batch = int(np.prod(shape[:-2], dtype=np.int64)) if qp.ndim > 2 else 1
    diags, interior = _diag_indices_2d(na, nb)
    q = np.zeros((batch, (na + 1) * (nb + 1)), dtype=qp.dtype)
    q[:, interior] = qp.reshape(batch, na * nb)
    _walk_2d(q, diags, sentinel, cond)
    return q[:, interior].reshape(shape)


def _walk_2d(q, diags, sentinel: int, cond: str) -> None:
    """Run the 2-D anti-diagonal wavefront over a padded plane batch."""
    for ctr, nbr, m in diags:
        g = q[:, nbr]  # one gather: [left | top | lt], each m wide
        left, top, lt = g[:, :m], g[:, m:2 * m], g[:, 2 * m:]
        pred = left + top
        pred -= lt
        ok = g != sentinel
        valid = ok[:, :m] & ok[:, m:2 * m]
        valid &= ok[:, 2 * m:]
        if cond == "III":
            pos = g[:, :2 * m] > 0
            neg = g[:, :2 * m] < 0
            valid &= (pos[:, :m] & pos[:, m:]) | (neg[:, :m] & neg[:, m:])
        elif cond == "IV":
            pos = g > 0
            neg = g < 0
            valid &= (pos[:, :m] & pos[:, m:2 * m] & pos[:, 2 * m:]) | (
                neg[:, :m] & neg[:, m:2 * m] & neg[:, 2 * m:]
            )
        pred *= valid
        q[:, ctr] += pred


@lru_cache(maxsize=8)
def _diag_indices_3d(na: int, nb: int, nc: int):
    """Flat i+j+k wavefront gather/scatter tables for the 3-D inverse.

    Same padded-volume scheme as :func:`_diag_indices_2d`: indices address a
    zero-padded ``(na+1, nb+1, nc+1)`` volume, each diagonal stores its
    scatter table and one concatenated 7-neighbour gather table
    (left|top|back|lt|lb|tb|ltb), built once per pass-array shape.
    """
    w1 = (nb + 1) * (nc + 1)
    w2 = nc + 1
    I, J, K = np.indices((na, nb, nc)).reshape(3, -1)
    diag = I + J + K
    order = np.argsort(diag, kind="stable")
    I, J, K, diag = I[order] + 1, J[order] + 1, K[order] + 1, diag[order]
    bounds = np.searchsorted(diag, np.arange(diag[-1] + 2))
    diags = []
    for d in range(1, int(diag[-1]) + 1):
        sl = slice(bounds[d], bounds[d + 1])
        i, j, k = I[sl], J[sl], K[sl]
        ctr = i * w1 + j * w2 + k
        nbr = np.concatenate([
            i * w1 + j * w2 + (k - 1),              # left
            i * w1 + (j - 1) * w2 + k,              # top
            (i - 1) * w1 + j * w2 + k,              # back
            i * w1 + (j - 1) * w2 + (k - 1),        # lt
            (i - 1) * w1 + j * w2 + (k - 1),        # lb
            (i - 1) * w1 + (j - 1) * w2 + k,        # tb
            (i - 1) * w1 + (j - 1) * w2 + (k - 1),  # ltb
        ])
        ctr.setflags(write=False)
        nbr.setflags(write=False)
        diags.append((ctr, nbr, i.size))
    interior = (
        (np.arange(na)[:, None, None] + 1) * w1
        + (np.arange(nb)[None, :, None] + 1) * w2
        + np.arange(nc)[None, None, :] + 1
    ).ravel()
    interior.setflags(write=False)
    return tuple(diags), interior


def _inverse_3d(qp: np.ndarray, sentinel: int, cond: str) -> np.ndarray:
    if qp.ndim < 3:
        raise ValueError("3d QP requires a rank >= 3 pass array")
    if cond == "I":
        # The unconditional 3-D Lorenzo difference is separable too: its
        # inverse is one prefix sum per axis (back, top, left).
        q = _prefix_sums_native(qp, *_case1_sums(qp.shape, "3d"))
        if q is not None:
            return q
        q = np.cumsum(qp, axis=-1)
        q = np.cumsum(q, axis=-2)
        return np.cumsum(q, axis=0)
    # back is axis 0 (``_plane_axes``): the walks run over the last three
    # axes, so move it beside the plane and batch any axes in between
    moved = np.moveaxis(qp, 0, -3)
    lib = _native_lib(qp.dtype, sentinel)
    if lib is not None:
        q = _walk_native(lib, np.array(moved, order="C"), sentinel, cond, "3d")
        return np.moveaxis(q, -3, 0)
    shape = moved.shape
    na, nb, nc = shape[-3], shape[-2], shape[-1]
    batch = int(np.prod(shape[:-3], dtype=np.int64)) if qp.ndim > 3 else 1
    diags, interior = _diag_indices_3d(na, nb, nc)
    q = np.zeros((batch, (na + 1) * (nb + 1) * (nc + 1)), dtype=qp.dtype)
    q[:, interior] = moved.reshape(batch, na * nb * nc)
    _walk_3d(q, diags, sentinel, cond)
    return np.moveaxis(q[:, interior].reshape(shape), -3, 0)


def _walk_3d(q, diags, sentinel: int, cond: str) -> None:
    """Run the i+j+k wavefront over a padded volume batch."""
    for ctr, nbr, m in diags:
        g = q[:, nbr]  # one gather: [left|top|back|lt|lb|tb|ltb], each m wide
        left, top, back = g[:, :m], g[:, m:2 * m], g[:, 2 * m:3 * m]
        lt, lb = g[:, 3 * m:4 * m], g[:, 4 * m:5 * m]
        tb, ltb = g[:, 5 * m:6 * m], g[:, 6 * m:]
        pred = left + top
        pred += back
        pred -= lt
        pred -= lb
        pred -= tb
        pred += ltb
        ok = g != sentinel
        valid = ok[:, :m] & ok[:, m:2 * m]
        valid &= ok[:, 2 * m:3 * m]
        valid &= ok[:, 3 * m:4 * m]
        valid &= ok[:, 4 * m:5 * m]
        valid &= ok[:, 5 * m:6 * m]
        valid &= ok[:, 6 * m:]
        if cond == "III":
            pos = g[:, :2 * m] > 0
            neg = g[:, :2 * m] < 0
            valid &= (pos[:, :m] & pos[:, m:]) | (neg[:, :m] & neg[:, m:])
        elif cond == "IV":
            # Case IV in 3-D tests the first-order neighbours (left, top, back)
            pos = g[:, :3 * m] > 0
            neg = g[:, :3 * m] < 0
            valid &= (pos[:, :m] & pos[:, m:2 * m] & pos[:, 2 * m:]) | (
                neg[:, :m] & neg[:, m:2 * m] & neg[:, 2 * m:]
            )
        pred *= valid
        q[:, ctr] += pred
