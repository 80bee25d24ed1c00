"""Error-bound modes beyond plain absolute bounds.

Real SZ supports three user-facing bound modes: absolute (``ABS``, the
compressors' native mode), value-range relative (``REL``), and point-wise
relative (``PW_REL``).  ``REL`` is a one-line scale; ``PW_REL`` — each
point's error bounded by ``rel * |value|`` — is implemented the standard
way: compress ``log(data)`` with the absolute bound ``log(1 + rel)``, which
provably yields ``|d' - d| <= rel * |d|`` point-wise.
"""
from __future__ import annotations

import numpy as np

from .compressors import base_compressor, decompress_any
from .compressors.base import Blob
from .core.config import QPConfig

__all__ = ["relative_bound", "PointwiseRelativeCompressor"]


def relative_bound(data: np.ndarray, rel: float) -> float:
    """Absolute bound equivalent to a value-range-relative bound (REL mode)."""
    if rel <= 0:
        raise ValueError("rel must be positive")
    return rel * float(data.max() - data.min())


class PointwiseRelativeCompressor:
    """PW_REL mode: ``|d' - d| <= rel * |d|`` at every point.

    Requires strictly positive data (the standard log-transform PW_REL; SZ
    imposes the same restriction modulo sign bookkeeping).  Compression runs
    the chosen base compressor on ``log(data)`` with absolute bound
    ``log(1 + rel)``; since ``|log d' - log d| <= log(1+rel)`` implies
    ``d'/d`` within ``[1/(1+rel), 1+rel]``, the point-wise relative bound
    follows.

    Satisfies the :class:`repro.compressors.Codec` protocol: the blob is a
    regular repro container (annotated with the PW_REL fields), so
    ``checksum=True`` uses the standard v1 sealing and ``decompress``
    needs no out-of-band arguments.
    """

    name = "pw_rel"

    def __init__(
        self,
        base: str,
        rel: float,
        qp: QPConfig | None = None,
        **kwargs,
    ) -> None:
        if rel <= 0:
            raise ValueError("rel must be positive")
        self.base = base
        self.rel = float(rel)
        self.qp = qp
        self.kwargs = kwargs

    def compress(
        self,
        data: np.ndarray,
        *,
        checksum: bool = False,
        auto: bool = False,
        adaptive=None,
    ) -> bytes:
        """Compress with the uniform Codec knob set; ``auto``/``adaptive``
        forward to the base compressor running on the log-domain data."""
        data = np.asarray(data)
        if data.dtype.kind != "f":
            # exp of the decoded logs would truncate back to integers
            raise ValueError(
                f"PW_REL mode requires floating-point data, got {data.dtype}"
            )
        if (data <= 0).any():
            raise ValueError(
                "PW_REL mode requires strictly positive data "
                "(shift or split by sign first)"
            )
        logd = np.log(data.astype(np.float64))
        kwargs = (self.kwargs if adaptive is None
                  else dict(self.kwargs, adaptive=adaptive))
        comp = base_compressor(
            self.base, float(np.log1p(self.rel)), qp=self.qp, **kwargs
        )
        blob = comp.compress(logd, auto=auto)
        # annotate the blob so decompression knows to exponentiate
        b = Blob.from_bytes(blob)
        b.header["pw_rel"] = self.rel
        b.header["pw_rel_dtype"] = data.dtype.str
        return b.to_bytes(checksum=checksum)

    @staticmethod
    def decompress(blob: bytes) -> np.ndarray:
        """Decode through the registry, which exponentiates PW_REL blobs
        back to the data's dtype at every entry point."""
        if "pw_rel" not in Blob.from_bytes(blob).header:
            raise ValueError("not a PW_REL blob")
        return decompress_any(blob)
