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

Vectorization strategy (DESIGN.md §7): the forward direction is a handful of
whole-array shifts; the inverse walks anti-diagonal wavefronts so each Python
iteration recovers a whole diagonal (1-D variants walk lines; the 3-D variant
walks i+j+k wavefronts).
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

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
    back_ax, top_ax, left_ax = _plane_axes(q.ndim, dim)

    with span("qp.forward", dim=dim, level=level):
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
        if dim in ("1d-back", "1d-top", "1d-left"):
            return _inverse_1d(qp, sentinel, config.condition, dim)
        if dim == "2d":
            return _inverse_2d(qp, sentinel, config.condition)
        return _inverse_3d(qp, sentinel, config.condition)


def qp_inverse_multi(
    parts: "list[np.ndarray]", sentinel: int, config: QPConfig, level: int
) -> np.ndarray:
    """Invert :func:`qp_forward` for N equal-shape pass arrays at once.

    Returns the per-part results stacked along a new leading axis — always
    bit-identical to ``np.stack([qp_inverse(p, ...) for p in parts])``, but
    the Lorenzo wavefront walk runs *once* over all parts: each part is
    scattered straight into the shared zero-padded work plane (a copy the
    kernel performs anyway), so batching adds no extra passes over the data.
    Dimensions whose kernel involves the parts' leading axis (``1d-back``,
    and ``3d`` on rank > 3 arrays) cannot share a walk and fall back to the
    per-part loop.
    """
    shape = parts[0].shape
    if any(p.shape != shape for p in parts[1:]):
        raise ValueError("qp_inverse_multi requires equal-shape parts")
    if len(parts) == 1:
        return qp_inverse(parts[0], sentinel, config, level)[None]
    if not config.applies_to_level(level):
        return np.stack(parts)
    ndim = len(shape)
    dim = effective_dimension(config.dimension, ndim)
    if dim is None:
        return np.stack(parts)
    if dim == "2d":
        with span("qp.inverse", dim=dim, level=level, batch=len(parts)):
            return _inverse_2d_multi(parts, sentinel, config.condition)
    if dim == "3d" and ndim == 3:
        with span("qp.inverse", dim=dim, level=level, batch=len(parts)):
            return _inverse_3d_multi(parts, sentinel, config.condition)
    if dim in ("1d-left", "1d-top"):
        # scan axis is a trailing axis (these dims only survive
        # ``effective_dimension`` at ranks where it is), so the stack is a
        # pure batch; call the kernel directly with the resolved dim — the
        # public entry would re-resolve against the stacked rank
        with span("qp.inverse", dim=dim, level=level, batch=len(parts)):
            return _inverse_1d(np.stack(parts), sentinel, config.condition, dim)
    return np.stack([qp_inverse(p, sentinel, config, level) for p in parts])


# -- inverse kernels ---------------------------------------------------------


def _inverse_1d(qp: np.ndarray, sentinel: int, cond: str, dim: str) -> np.ndarray:
    axis = {"1d-back": 0, "1d-top": qp.ndim - 2, "1d-left": qp.ndim - 1}[dim]
    if cond == "I":
        # Unconditional 1-D Lorenzo is a first difference along ``axis``; its
        # inverse is a prefix sum — O(N) fully vectorized, no line walk
        # (same fast path _inverse_2d has for the separable 2-D case).
        return np.cumsum(qp, axis=axis)
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
        q = np.cumsum(qp, axis=-1)
        return np.cumsum(q, axis=-2)
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


def _inverse_2d_multi(
    parts: "list[np.ndarray]", sentinel: int, cond: str
) -> np.ndarray:
    """N equal-shape parts through one 2-D wavefront; stacked result.

    Each part scatters into its own row block of the shared padded plane
    batch, so the diagonal walk (the Python-level cost) is paid once for
    all parts instead of once per part.
    """
    shape = parts[0].shape
    if cond == "I":
        q = np.cumsum(np.stack(parts), axis=-1)
        return np.cumsum(q, axis=-2)
    na, nb = shape[-2], shape[-1]
    b = int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1
    diags, interior = _diag_indices_2d(na, nb)
    q = np.zeros((len(parts) * b, (na + 1) * (nb + 1)), dtype=parts[0].dtype)
    for i, part in enumerate(parts):
        q[i * b:(i + 1) * b, interior] = part.reshape(b, na * nb)
    _walk_2d(q, diags, sentinel, cond)
    return q[:, interior].reshape((len(parts),) + shape)


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
        # inverse is one prefix sum per axis.
        q = np.cumsum(qp, axis=-1)
        q = np.cumsum(q, axis=-2)
        return np.cumsum(q, axis=-3)
    shape = qp.shape
    na, nb, nc = shape[-3], shape[-2], shape[-1]
    batch = int(np.prod(shape[:-3], dtype=np.int64)) if qp.ndim > 3 else 1
    diags, interior = _diag_indices_3d(na, nb, nc)
    q = np.zeros((batch, (na + 1) * (nb + 1) * (nc + 1)), dtype=qp.dtype)
    q[:, interior] = qp.reshape(batch, na * nb * nc)
    _walk_3d(q, diags, sentinel, cond)
    return q[:, interior].reshape(shape)


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


def _inverse_3d_multi(
    parts: "list[np.ndarray]", sentinel: int, cond: str
) -> np.ndarray:
    """N equal-shape rank-3 parts through one i+j+k wavefront; stacked."""
    shape = parts[0].shape
    if cond == "I":
        q = np.cumsum(np.stack(parts), axis=-1)
        q = np.cumsum(q, axis=-2)
        return np.cumsum(q, axis=-3)
    na, nb, nc = shape[-3], shape[-2], shape[-1]
    diags, interior = _diag_indices_3d(na, nb, nc)
    q = np.zeros((len(parts), (na + 1) * (nb + 1) * (nc + 1)), dtype=parts[0].dtype)
    for i, part in enumerate(parts):
        q[i, interior] = part.reshape(-1)
    _walk_3d(q, diags, sentinel, cond)
    return q[:, interior].reshape((len(parts),) + shape)
