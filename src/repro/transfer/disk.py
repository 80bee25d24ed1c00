"""Disk-backed end-to-end pipeline: real archive writes and reads.

Where :mod:`repro.transfer.pipeline` *models* the filesystem stages from
bandwidth parameters, this module actually executes them: compress slices
into an :class:`~repro.io.Archive` on disk, measure the real write, read the
archive back, decompress, verify.  The transfer stage remains modelled
(there is no second site), using the measured archive size — unless a
``channel`` is supplied, in which case every slice is pushed through it via
:func:`~repro.transfer.pipeline.transfer_slices` with retry/backoff/
quarantine, and the result carries graceful-degradation accounting
(delivered / degraded / quarantined slices, integrity-verified bytes).
"""
from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..compressors import base_compressor, decompress_any
from ..core.config import QPConfig
from ..io import Archive
from ..obs import add_bytes, span
from .pipeline import LinkConfig, RetryPolicy, transfer_slices

__all__ = ["DiskPipelineResult", "run_disk_pipeline"]


@dataclass
class DiskPipelineResult:
    """Measured stage times (seconds) of one disk-backed run."""

    n_slices: int
    raw_bytes: int
    archive_bytes: int
    compress_seconds: float
    write_seconds: float
    transfer_seconds: float  # modelled from the link bandwidth
    read_seconds: float
    decompress_seconds: float
    max_abs_error: float
    # graceful-degradation accounting (populated when a channel is used;
    # on the modelled/perfect path every slice counts as delivered+verified)
    delivered_slices: int = 0
    degraded_slices: int = 0
    quarantined_slices: int = 0
    verified_bytes: int = 0
    quarantined: list[str] = field(default_factory=list)

    @property
    def total(self) -> float:
        return (
            self.compress_seconds
            + self.write_seconds
            + self.transfer_seconds
            + self.read_seconds
            + self.decompress_seconds
        )

    @property
    def cr(self) -> float:
        return self.raw_bytes / self.archive_bytes


def run_disk_pipeline(
    slices: list[np.ndarray],
    workdir: str | pathlib.Path,
    compressor: str = "sz3",
    error_bound: float = 1e-3,
    qp: QPConfig | None = None,
    link: LinkConfig = LinkConfig(),
    checksum: bool = True,
    channel: Callable[[str, bytes], bytes] | None = None,
    retry: RetryPolicy | None = None,
    sleep: Callable[[float], None] = time.sleep,
    **comp_kwargs,
) -> DiskPipelineResult:
    """Compress → write archive → transfer → read → decompress.

    ``checksum=True`` (the default) seals each blob in the v1 integrity
    envelope before it is archived, so both the per-entry archive CRC and
    the blob CRC protect the bytes end to end.  When ``channel`` is given,
    the transfer stage is *executed*, not modelled: every archived slice is
    pushed through the channel by
    :func:`~repro.transfer.pipeline.transfer_slices` under ``retry``
    (default :class:`~repro.transfer.pipeline.RetryPolicy`), slices that
    exhaust their retries are quarantined (skipped downstream, listed in
    ``result.quarantined``) and the run degrades gracefully instead of
    failing.
    """
    workdir = pathlib.Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "transfer.rarc"
    if path.exists():
        path.unlink()

    comp = base_compressor(compressor, error_bound, qp=qp, **comp_kwargs)

    t0 = time.perf_counter()
    blobs = {
        f"slice{i:05d}": comp.compress(s, checksum=checksum)
        for i, s in enumerate(slices)
    }
    t1 = time.perf_counter()
    with span("archive.write", path=str(path)):
        arch = Archive.create(path)
        arch.append_many(blobs)
    t2 = time.perf_counter()

    archive_bytes = arch.total_bytes()
    add_bytes("archive.write", archive_bytes)

    t3 = time.perf_counter()
    with span("archive.read", path=str(path)):
        read_blobs = {name: arch.read(name) for name in arch.names()}
    t4 = time.perf_counter()
    add_bytes("archive.read", sum(len(b) for b in read_blobs.values()))

    if channel is not None:
        tx0 = time.perf_counter()
        delivered: dict[str, bytes] = {}
        report = transfer_slices(
            read_blobs,
            channel,
            policy=retry or RetryPolicy(),
            sleep=sleep,
            received=delivered,
        )
        transfer_seconds = time.perf_counter() - tx0
        read_blobs = delivered
        delivered_n = len(report.delivered)
        degraded_n = len(report.degraded)
        quarantined = report.quarantined
        verified_bytes = report.verified_bytes
    else:
        transfer_seconds = archive_bytes / 1e6 / link.link_mbs
        delivered_n = len(read_blobs)
        degraded_n = 0
        quarantined = []
        verified_bytes = sum(len(b) for b in read_blobs.values())

    max_err = 0.0
    t5a = time.perf_counter()
    for i, s in enumerate(slices):
        name = f"slice{i:05d}"
        if name not in read_blobs:  # quarantined: degrade, don't fail
            continue
        out = decompress_any(read_blobs[name])
        max_err = max(
            max_err,
            float(np.abs(out.astype(np.float64) - s.astype(np.float64)).max()),
        )
    t5 = time.perf_counter()

    return DiskPipelineResult(
        n_slices=len(slices),
        raw_bytes=int(sum(s.nbytes for s in slices)),
        archive_bytes=archive_bytes,
        compress_seconds=t1 - t0,
        write_seconds=t2 - t1,
        transfer_seconds=transfer_seconds,
        read_seconds=t4 - t3,
        decompress_seconds=t5 - t5a,
        max_abs_error=max_err,
        delivered_slices=delivered_n,
        degraded_slices=degraded_n,
        quarantined_slices=len(quarantined),
        verified_bytes=verified_bytes,
        quarantined=list(quarantined),
    )
