"""Block-parallel compression on worker threads (real SZ3's ``-T``).

Splits the domain into slabs (along the leading axis, or the longest one
when the leading axis is too short), compresses each slab as its own job
on a pool of ``parallel`` threads, and frames the results so
decompression (also threaded) reassembles the array.  The C kernels
and zlib release the GIL, so slab jobs run concurrently; on the numpy
path, whose Python loops hold it, the pool has one thread (see
``streaming._default_workers``).  Slab independence costs a little ratio
(prediction cannot cross slab boundaries) and buys near-linear wall-clock
scaling — the same trade real multithreaded compressors make.

Decompression splits the slab list into one contiguous group per thread;
each group is one ``registry.decompress_many`` call, so equal slabs of a
group decode as one stack.
"""
from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable

import numpy as np

from . import obs
from .core.config import QPConfig
from .errors import CorruptBlobError, ReproError, TruncatedStreamError
from .io.container import pack_parts, unpack_parts
from .io.integrity import is_sealed, seal, unseal
from .streaming import _default_workers, _JobObservation, slab_slices

__all__ = ["ParallelCompressor"]

_MAGIC = b"RPAR"


def _slab_table(blob: bytes) -> tuple[int, list[bytes]]:
    """``(axis, slab blobs)`` of an unsealed slab container."""
    if blob[:4] != _MAGIC:
        raise CorruptBlobError("not a parallel container")
    if len(blob) < 9:
        raise TruncatedStreamError("parallel container header truncated")
    axis, n = struct.unpack_from("<BI", blob, 4)
    if n == 0:
        raise CorruptBlobError("parallel container holds no slabs")
    return axis, unpack_parts(blob, 9, n, "parallel")


#: Huffman block size for slab containers (vs the 4096 codec default).  The
#: numpy decode of one container takes ``min(block_size, n)`` lockstep steps,
#: so short slab streams decode faster with smaller blocks, for <2%
#: compressed-size growth.  The value is written into every slab container,
#: so changing it changes the bytes of parallel containers.
SLAB_HUFFMAN_BLOCK = 1024


class ParallelCompressor:
    """Slab-parallel wrapper around any registered compressor.

    Satisfies the :class:`repro.compressors.Codec` protocol: ``compress``
    takes a keyword-only ``checksum`` that seals the whole slab container
    in the v1 integrity envelope, and ``decompress`` accepts both the
    canonical and the sealed framing.
    """

    @property
    def name(self) -> str:
        return f"parallel[{self.base}]"

    def __init__(
        self,
        base: str,
        error_bound: float,
        workers: int = 2,
        n_slabs: int | None = None,
        qp: QPConfig | None = None,
        **kwargs,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        from .compressors import base_compressor, constructor_accepts

        self.base = base
        self.error_bound = float(error_bound)
        self.workers = workers
        self.n_slabs = n_slabs
        self.qp = qp or QPConfig.disabled()
        # slab streams are short: smaller Huffman blocks cut the numpy
        # decode's step count for ~8 bytes of stored offset per extra block
        # (<2% of a typical slab payload).  Only offered to bases whose
        # constructor understands the knob; explicit caller values
        # (including None) win.
        if "huffman_block_size" not in kwargs and constructor_accepts(
            base, "huffman_block_size"
        ):
            kwargs["huffman_block_size"] = SLAB_HUFFMAN_BLOCK
        self.kwargs = kwargs
        # a configuration the base cannot honor fails here, not in a job
        base_compressor(base, self.error_bound, qp=self.qp, **kwargs)

    # -- slab jobs ----------------------------------------------------------

    def _threads(self, jobs: int) -> int:
        return min(self.workers, _default_workers(), jobs)

    def _map(self, fn: Callable[[Any], Any], jobs: list) -> list:
        """``[fn(job) for job in jobs]`` on ``_threads(len(jobs))`` threads.

        Each job records into its own observation, merged as worker
        ``w{i}`` in job order.  An error re-raises from the lowest-index
        failing job, after the rest are cancelled and the pool has shut
        down.
        """
        handoff = _JobObservation()
        out = []
        with ThreadPoolExecutor(
            max_workers=self._threads(len(jobs)), thread_name_prefix="parallel"
        ) as pool:
            for i, (result, payload) in enumerate(
                pool.map(partial(handoff.run, fn), jobs)
            ):
                handoff.merge(payload, f"w{i}")
                out.append(result)
        return out

    def _slabs(self, shape: tuple[int, ...]) -> tuple[int, list[slice]]:
        n = self.n_slabs or self.workers
        # prefer the leading axis, where C-order slabs are contiguous views
        # of the input and of the output; fall back to the longest axis
        # when axis 0 cannot host the slab count
        axis = int(np.argmax(shape))
        if shape[0] // 8 >= min(n, shape[axis] // 8 or 1):
            axis = 0
        n = max(1, min(n, shape[axis] // 8 or 1))
        return axis, slab_slices(shape[axis], n)

    # -- compression --------------------------------------------------------

    def compress(
        self,
        data: np.ndarray,
        *,
        checksum: bool = False,
        auto: bool = False,
        adaptive: Any = None,
    ) -> bytes:
        """Compress slab-parallel; the standard keyword knob set applies.

        ``auto`` runs the sampling tuner inside each slab job (each slab is
        tuned independently); ``adaptive`` forwards an
        :class:`~repro.core.config.AdaptiveConfig` (or its dict form) to
        every slab's base compressor and raises ``ValueError`` when the
        base does not take one.
        """
        from .compressors import base_compressor

        data = np.asarray(data)
        # the slab plan needs an axis; the slab jobs check the rest
        if not 1 <= data.ndim <= 4:
            raise ValueError(f"expected 1..4-D data, got {data.ndim}-D")
        kwargs = (self.kwargs if adaptive is None
                  else dict(self.kwargs, adaptive=adaptive))
        axis, slabs = self._slabs(data.shape)

        def compress_slab(sl: slice) -> bytes:
            idx = [slice(None)] * data.ndim
            idx[axis] = sl
            slab = np.ascontiguousarray(data[tuple(idx)])
            comp = base_compressor(
                self.base, self.error_bound, qp=self.qp, **kwargs
            )
            return comp.compress(slab, auto=auto)

        with obs.span(
            "parallel.compress", base=self.base, slabs=len(slabs), axis=axis
        ):
            blobs = self._map(compress_slab, slabs)
            out = _MAGIC + struct.pack("<BI", axis, len(blobs)) + pack_parts(blobs)
        return seal(out) if checksum else out

    # -- decompression ------------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        """Reassemble the volume; a damaged container raises the typed
        :mod:`repro.errors` family, as the registry decoders do."""
        from .compressors.base import _DECODE_FAULTS
        from .compressors.registry import decompress_many

        if is_sealed(blob):
            blob = unseal(blob)
        axis, parts = _slab_table(blob)
        n = len(parts)
        groups = [parts[sl] for sl in slab_slices(n, self._threads(n))]
        with obs.span("parallel.decompress", base=self.base, slabs=n, axis=axis):
            try:
                slabs = [arr for group in self._map(decompress_many, groups)
                         for arr in group]
                if any(arr.dtype != slabs[0].dtype for arr in slabs):
                    raise CorruptBlobError(
                        f"{self.name} container mixes slab dtypes"
                    )
                return np.concatenate(slabs, axis=axis)
            except ReproError:
                raise
            except _DECODE_FAULTS as exc:  # slabs that do not tile one volume
                raise CorruptBlobError(
                    f"{self.name} container failed to decode: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
