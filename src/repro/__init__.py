"""repro — reproduction of "Improving the Efficiency of Interpolation-based
Scientific Data Compressors with Adaptive Quantization Index Prediction"
(IPDPS 2025).

Public API
----------
The stable surface is exactly ``__all__`` below — seven names:

>>> import repro
>>> blob = repro.compress(data, compressor="sz3", error_bound=1e-3)
>>> out = repro.decompress(blob)
>>> with_qp = repro.compress(data, adaptive=repro.AdaptiveConfig())
>>> ar = repro.open_archive("results.rar1", create=True)
>>> repro.serve(port=9753)                      # blocking gateway

``Codec`` is the protocol every compressing object satisfies
(``compress(data, *, checksum=False, auto=False, adaptive=None)`` /
``decompress(blob)``), ``PipelineSpec`` the declarative stage-list
description of a compressor, and ``AdaptiveConfig`` the adaptive
quantization configuration from the paper.

Everything else importable from this module (``get_compressor``,
``generate``, ``ParallelCompressor``, ``TemporalCompressor``, the typed
error classes, ...) remains available for research workflows and
backwards compatibility but is private-by-convention: not part of the
frozen contract, documented in ``docs/api.md`` under "internal
surface".  The service layer lives in :mod:`repro.service`.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from .analysis import max_cr_gain, qp_comparison, rd_sweep
from .compressors import (
    COMPRESSORS,
    HPEZ,
    INTERP_COMPRESSORS,
    MGARD,
    SZ3,
    Codec,
    CompressionState,
    QoZ,
    decompress_any,
    get_compressor,
    traits_table,
)
from .core import (
    AdaptiveConfig,
    QPConfig,
    clustering_stats,
    plane_slice,
    qp_forward,
    qp_inverse,
    regional_entropy,
    shannon_entropy,
    slice_entropy,
)
from .datasets import DATASETS, generate, generate_all, table3_rows
from .errors import (
    CorruptArchiveError,
    CorruptBlobError,
    IntegrityError,
    ReproError,
    ServiceError,
    TransferError,
    TransferFaultError,
    TruncatedStreamError,
    VersionError,
)
from .metrics import EvalResult, evaluate, psnr
from .modes import PointwiseRelativeCompressor, relative_bound
from .parallel import ParallelCompressor
from .pipeline.spec import PipelineSpec
from .streaming import StreamResult, stream_compress, stream_decompress
from .temporal import TemporalCompressor

__version__ = "1.0.0"

#: the frozen public surface — everything else is private-by-convention
__all__ = [
    "AdaptiveConfig",
    "Codec",
    "PipelineSpec",
    "compress",
    "decompress",
    "open_archive",
    "serve",
    "__version__",
]


def compress(
    data: np.ndarray,
    *,
    compressor: str = "sz3",
    error_bound: float = 1e-3,
    checksum: bool = False,
    auto: bool = False,
    adaptive: Any = None,
    **kwargs: Any,
) -> bytes:
    """Compress an array to a self-describing blob in one call.

    Builds the named registry compressor (``repro.compressors``) with
    ``error_bound`` and any extra constructor ``kwargs`` (``qp=``, ...),
    then compresses with the uniform Codec knob set: ``checksum`` seals
    the container, ``auto`` runs the sampling auto-tuner, ``adaptive``
    applies adaptive quantization (an :class:`AdaptiveConfig` or its dict
    form) where the pipeline supports it.
    """
    return get_compressor(compressor, error_bound, **kwargs).compress(
        data, checksum=checksum, auto=auto, adaptive=adaptive
    )


def decompress(blob: bytes) -> np.ndarray:
    """Decompress any repro container back into its array.

    Dispatches on the container header: canonical/sealed blobs go
    through the registry, streamed ``RSTR`` containers (written by
    ``compress_stream`` or the service's oversized route) through the
    streaming decoder.  Raises the typed :mod:`repro.errors` family on
    corrupt input.
    """
    from .io.container import is_streamed_container

    if is_streamed_container(bytes(blob[:8])):
        return stream_decompress(blob)
    return decompress_any(blob)


def open_archive(path: Any, *, create: bool = False) -> Any:
    """Open (or create) a crash-safe ``RAR1`` archive at ``path``.

    Opening an existing archive replays its recovery protocol first
    (:meth:`~repro.io.container.Archive.recover`), so a crash-interrupted
    append never surfaces as a torn entry.  Returns the
    :class:`~repro.io.container.Archive`.
    """
    import os

    from .io.container import Archive

    if os.path.exists(os.fspath(path)):
        archive = Archive(path)
        archive.recover()
        return archive
    if not create:
        raise FileNotFoundError(
            f"archive {os.fspath(path)!r} does not exist (pass create=True)"
        )
    return Archive.create(path)


def serve(host: str = "127.0.0.1", port: int = 9753, *, config: Any = None) -> None:
    """Run the compression gateway over TCP until interrupted (blocking).

    ``config`` is an optional :class:`repro.service.GatewayConfig`; see
    :mod:`repro.service` for the request schema and admission semantics,
    and the ``repro serve`` CLI for the command-line form.
    """
    from .service import serve as _serve

    _serve(host, port, config=config)
