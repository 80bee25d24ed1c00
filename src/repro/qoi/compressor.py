"""QoI-preserving compression: spatially varying bounds over blocks.

The derived point-wise bound varies across the domain (e.g. ``SquareQoI``
allows large errors where ``|x|`` is small).  Error-bounded compressors take
one scalar bound, so the domain is tiled into blocks; each block is
compressed with the *minimum* derived bound inside it — conservative within
the block, adaptive across blocks, which is exactly the blockwise strategy
of the QoI literature the paper cites.  A verify-and-tighten loop guarantees
the QoI tolerance on the decoded output.
"""
from __future__ import annotations

import json
import struct

import numpy as np

from ..compressors import base_compressor, decompress_any
from ..core.config import QPConfig
from ..compressors.base import _validated_geometry
from ..errors import CorruptBlobError, TruncatedStreamError
from ..io.container import pack_parts, unpack_parts
from ..io.integrity import is_sealed, seal, unseal
from ..obs import span
from ..utils.blocks import block_grid_shape, iter_blocks
from .bounds import IsolineQoI, QoISpec

__all__ = ["QoIPreservingCompressor"]

#: legacy v1 container: bare block list, geometry supplied out of band
_MAGIC_V1 = b"RQOI"
#: v2 container: ``RQO2 | u32 hlen | JSON header | blocks`` — the header
#: carries shape/dtype/block geometry, so decompression is self-describing
_MAGIC = b"RQO2"


class QoIPreservingCompressor:
    """Wrap a base compressor with QoI-derived spatially varying bounds.

    Satisfies the :class:`repro.compressors.Codec` protocol: the v2
    container header carries the array geometry, so ``decompress(blob)``
    takes no out-of-band ``shape``; ``compress(..., checksum=True)`` seals
    the container in the v1 integrity envelope.  The legacy shape-less
    ``RQOI`` format is retired: those bytes now raise a typed
    :class:`~repro.errors.CorruptBlobError` with a migration hint.

    Parameters
    ----------
    base:
        Registry name of the error-bounded compressor to use per block.
    qoi:
        The :class:`~repro.qoi.bounds.QoISpec` to preserve.
    tau:
        Tolerance on the QoI.
    block_side:
        Block size for the spatial adaptation.
    qp:
        Optional QP config, applied as
        :func:`~repro.compressors.base_compressor` does.
    """

    def __init__(
        self,
        base: str,
        qoi: QoISpec,
        tau: float,
        block_side: int = 32,
        qp: QPConfig | None = None,
    ) -> None:
        if tau <= 0:
            raise ValueError("tau must be positive")
        if block_side < 4:
            raise ValueError("block_side must be >= 4")
        self.base = base
        self.qoi = qoi
        self.tau = float(tau)
        self.block_side = block_side
        self.qp = qp

    @property
    def name(self) -> str:
        return f"qoi[{self.base}]"

    def compress(
        self,
        data: np.ndarray,
        *,
        checksum: bool = False,
        auto: bool = False,
        adaptive=None,
    ) -> bytes:
        """Compress with the uniform Codec knob set.

        ``auto`` is accepted for conformance but is a no-op here: block
        bounds are already derived per block from the QoI, so there is no
        scalar configuration left for the sampling tuner to choose.
        ``adaptive=`` forwards to each block's base compressor when its
        pipeline supports adaptive quantization.
        """
        data = np.asarray(data)
        bounds = self.qoi.pointwise_bound(data, self.tau)
        blobs: list[bytes] = []
        recon = np.empty_like(data)
        with span("qoi.compress", base=self.base, block_side=self.block_side):
            for bslice in iter_blocks(data.shape, self.block_side):
                block = np.ascontiguousarray(data[bslice])
                eb = float(bounds[bslice].min())
                # verify-and-tighten: the derived bound is sufficient in exact
                # arithmetic; shrink on the rare violation from stacked
                # rounding
                for _ in range(8):
                    comp = base_compressor(
                        self.base, eb, qp=self.qp, adaptive=adaptive
                    )
                    blob = comp.compress(block)
                    out = decompress_any(blob)
                    if self._block_ok(block, out):
                        break
                    eb /= 2.0
                else:
                    raise RuntimeError("QoI bound could not be satisfied")
                blobs.append(blob)
                recon[bslice] = out
        qerr = self.qoi.error(data, recon)
        if isinstance(self.qoi, IsolineQoI):
            if not self.qoi.check(data, recon, self.tau):
                raise RuntimeError("isoline QoI violated after compression")
        elif qerr > self.tau * (1 + 1e-9):
            raise RuntimeError(f"QoI error {qerr} exceeds tau {self.tau}")
        header = json.dumps(
            {
                "shape": list(data.shape),
                "dtype": data.dtype.str,
                "block_side": self.block_side,
                "n_blocks": len(blobs),
            },
            separators=(",", ":"),
        ).encode()
        out_bytes = (
            _MAGIC + struct.pack("<I", len(header)) + header + pack_parts(blobs)
        )
        return seal(out_bytes) if checksum else out_bytes

    def _block_ok(self, block: np.ndarray, out: np.ndarray) -> bool:
        if isinstance(self.qoi, IsolineQoI):
            return self.qoi.check(block, out, self.tau)
        return self.qoi.error(block, out) <= self.tau * (1 + 1e-9)

    def decompress(self, blob: bytes) -> np.ndarray:
        """Reassemble the volume; a damaged container raises the typed
        :mod:`repro.errors` family."""
        if is_sealed(blob):
            blob = unseal(blob)
        if blob[:4] == _MAGIC_V1:
            # the shape-less v1 path warned via DeprecationWarning for two
            # releases; it is now a typed rejection (see docs/api.md)
            raise CorruptBlobError(
                "the legacy shape-less RQOI container format has been "
                "retired; decode it with a pre-service release and "
                "re-compress to the self-describing RQO2 format"
            )
        if blob[:4] != _MAGIC:
            raise CorruptBlobError("not a QoI container")
        if len(blob) < 8:
            raise TruncatedStreamError("QoI container header truncated")
        (hlen,) = struct.unpack_from("<I", blob, 4)
        try:  # a header cut short is not valid JSON either
            header = json.loads(blob[8:8 + hlen].decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptBlobError(f"QoI container header: {exc}") from None
        if not isinstance(header, dict):
            raise CorruptBlobError("QoI container header is not an object")
        out_shape, dtype = _validated_geometry(header)
        block_side = header.get("block_side")
        if not isinstance(block_side, int) or block_side < 1:
            raise CorruptBlobError(f"QoI container block_side {block_side!r}")
        n_blocks = int(np.prod(block_grid_shape(out_shape, block_side)))
        if header.get("n_blocks") != n_blocks:
            raise CorruptBlobError(
                f"QoI container declares {header.get('n_blocks')!r} blocks; "
                f"its block grid has {n_blocks}"
            )
        parts = unpack_parts(blob, 8 + hlen, n_blocks, "QoI")
        out = np.empty(out_shape, dtype=dtype)
        with span("qoi.decompress", base=self.base, blocks=n_blocks):
            for part, bslice in zip(parts, iter_blocks(out_shape, block_side)):
                block = decompress_any(part)
                if block.dtype != dtype or block.shape != out[bslice].shape:
                    raise CorruptBlobError(
                        "QoI block does not match its slot in the volume"
                    )
                out[bslice] = block
        return out
