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

from ..compressors import decompress_any, get_compressor, supports_qp
from ..core.config import QPConfig
from ..errors import CorruptBlobError
from ..io.integrity import is_sealed, seal, unseal
from ..obs import span
from ..utils.blocks import iter_blocks
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
        Optional QP config forwarded to interpolation-based bases.
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

    def _block_compressor(self, eb: float, adaptive=None):
        kwargs = {}
        if supports_qp(self.base):
            kwargs["qp"] = self.qp or QPConfig.disabled()
        if adaptive is not None:
            from ..compressors import constructor_accepts

            if not constructor_accepts(self.base, "adaptive"):
                raise ValueError(
                    f"compressor {self.base!r} does not support adaptive "
                    "quantization; drop the adaptive= argument"
                )
            kwargs["adaptive"] = adaptive
        return get_compressor(self.base, eb, **kwargs)

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
                    blob = self._block_compressor(eb, adaptive).compress(block)
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
        body = b"".join(struct.pack("<Q", len(b)) + b for b in blobs)
        out_bytes = _MAGIC + struct.pack("<I", len(header)) + header + body
        return seal(out_bytes) if checksum else out_bytes

    def _block_ok(self, block: np.ndarray, out: np.ndarray) -> bool:
        if isinstance(self.qoi, IsolineQoI):
            return self.qoi.check(block, out, self.tau)
        return self.qoi.error(block, out) <= self.tau * (1 + 1e-9)

    def decompress(self, blob: bytes) -> np.ndarray:
        if is_sealed(blob):
            blob = unseal(blob)
        if blob[:4] == _MAGIC:
            (hlen,) = struct.unpack_from("<I", blob, 4)
            header = json.loads(blob[8:8 + hlen].decode())
            out_shape = tuple(header["shape"])
            block_side = int(header["block_side"])
            n_blocks = int(header["n_blocks"])
            off = 8 + hlen
        elif blob[:4] == _MAGIC_V1:
            # the shape-less v1 path warned via DeprecationWarning for two
            # releases; it is now a typed rejection (see docs/api.md)
            raise CorruptBlobError(
                "the legacy shape-less RQOI container format has been "
                "retired; decode it with a pre-service release and "
                "re-compress to the self-describing RQO2 format"
            )
        else:
            raise CorruptBlobError("not a QoI container")
        out: np.ndarray | None = None
        with span("qoi.decompress", base=self.base, blocks=n_blocks):
            for i, bslice in enumerate(iter_blocks(out_shape, block_side)):
                if i >= n_blocks:
                    raise ValueError("block count mismatch")
                (size,) = struct.unpack_from("<Q", blob, off)
                off += 8
                block = decompress_any(blob[off:off + size])
                off += size
                if out is None:
                    out = np.empty(out_shape, dtype=block.dtype)
                out[bslice] = block
        if out is None or off != len(blob):
            raise ValueError("QoI container corrupt")
        return out
