"""Temporal compression for time-series volumes (RTM-style 4-D data).

Real SZ offers a time-dimension mode: each snapshot is predicted from the
*decoded* previous snapshot and only the residual is compressed, which pays
whenever consecutive snapshots are similar (a wavefront moves a few cells
per step).  Because the residual is formed against decoded data, errors do
not accumulate across time — every frame satisfies the point-wise bound
independently.

Frames are independent blobs inside one container, so any frame decodes
after decoding only its predecessors (or instantly for keyframes).
"""
from __future__ import annotations

import struct

import numpy as np

from .compressors import base_compressor, decompress_any
from .core.config import QPConfig
from .errors import CorruptBlobError, TruncatedStreamError
from .io.container import pack_parts, unpack_parts
from .io.integrity import is_sealed, seal, unseal
from .obs import span

__all__ = ["TemporalCompressor"]

_MAGIC = b"RTMP"
#: ``RTMP | u32 keyframe interval | u64 frame count``, then the frame blobs
_HEADER_LEN = 16


class TemporalCompressor:
    """Compress a (time, *spatial) array with inter-frame prediction.

    ``keyframe_interval`` bounds random-access cost: every k-th frame is
    coded without temporal prediction.

    Satisfies the :class:`repro.compressors.Codec` protocol:
    ``compress(data, *, checksum=True)`` seals the frame container in the
    v1 integrity envelope, and ``decompress`` accepts both framings.
    """

    name = "temporal"

    def __init__(
        self,
        base: str,
        error_bound: float,
        keyframe_interval: int = 16,
        qp: QPConfig | None = None,
        **kwargs,
    ) -> None:
        if keyframe_interval < 1:
            raise ValueError("keyframe_interval must be >= 1")
        self.base = base
        self.error_bound = float(error_bound)
        self.keyframe_interval = keyframe_interval
        self.qp = qp or QPConfig.disabled()
        self.kwargs = kwargs

    def compress(
        self,
        data: np.ndarray,
        *,
        checksum: bool = False,
        auto: bool = False,
        adaptive=None,
    ) -> bytes:
        """Compress with the uniform Codec knob set.

        ``auto=True`` tunes the base compressor on the *first keyframe*
        and reuses that configuration for every subsequent frame —
        per-frame retuning would dominate the inter-frame savings.
        ``adaptive=`` forwards to the base compressor's constructor when
        its pipeline supports adaptive quantization.
        """
        data = np.asarray(data)
        if data.ndim < 2:
            raise ValueError("temporal compression needs a time axis plus space")
        kwargs = (self.kwargs if adaptive is None
                  else dict(self.kwargs, adaptive=adaptive))
        comp = base_compressor(
            self.base, self.error_bound, qp=self.qp, **kwargs
        )
        if auto:
            comp = comp._tuned_for(np.ascontiguousarray(data[0]))
        blobs: list[bytes] = []
        prev_decoded: np.ndarray | None = None
        with span("temporal.compress", base=self.base, frames=data.shape[0]):
            for t in range(data.shape[0]):
                frame = np.ascontiguousarray(data[t])
                if prev_decoded is None or t % self.keyframe_interval == 0:
                    blob = comp.compress(frame)
                    decoded = decompress_any(blob)
                else:
                    residual = frame - prev_decoded
                    blob = comp.compress(residual)
                    decoded = prev_decoded + decompress_any(blob)
                blobs.append(blob)
                prev_decoded = decoded
        head = _MAGIC + struct.pack(
            "<IQ", self.keyframe_interval, data.shape[0]
        )
        out = head + pack_parts(blobs)
        return seal(out) if checksum else out

    def decompress(self, blob: bytes) -> np.ndarray:
        """Decode every frame; a damaged container raises the typed
        :mod:`repro.errors` family."""
        if is_sealed(blob):
            blob = unseal(blob)
        if blob[:4] != _MAGIC:
            raise CorruptBlobError("not a temporal container")
        if len(blob) < _HEADER_LEN:
            raise TruncatedStreamError("temporal container header truncated")
        key_int, n_frames = struct.unpack_from("<IQ", blob, 4)
        if key_int < 1:
            raise CorruptBlobError("temporal keyframe interval must be >= 1")
        if n_frames == 0:
            raise CorruptBlobError("temporal container holds no frames")
        parts = unpack_parts(blob, _HEADER_LEN, n_frames, "temporal")
        frames = []
        with span("temporal.decompress", base=self.base, frames=n_frames):
            for t, part in enumerate(parts):
                decoded = decompress_any(part)
                if frames and (decoded.shape, decoded.dtype) != (
                    frames[0].shape, frames[0].dtype
                ):
                    raise CorruptBlobError(
                        f"temporal frame {t} differs from frame 0 in shape "
                        "or dtype"
                    )
                if t % key_int:  # a residual against the previous frame
                    decoded = frames[-1] + decoded
                frames.append(decoded)
        return np.stack(frames, axis=0)
