"""End-to-end parallel data-transfer pipeline (Section VI-E).

The paper compresses 3600 RTM slices embarrassingly in parallel, writes the
compressed data, moves it over a Globus link (461.75 MB/s measured), reads it
back, and decompresses — on 225 to 1800 cores.  This module reproduces that
experiment as measurement + model:

* **measurement**: per-slice compression/decompression times and sizes are
  measured on the real substrate, optionally across worker processes
  (owner-computes slab decomposition, mpi4py-style);
* **model**: strong-scaling stage times for any core count — compute stages
  scale with cores, bandwidth stages (write / transfer / read) do not.

The model is what makes the paper's headline claim testable here: QP wins
end-to-end whenever the link is the bottleneck, and the win shrinks as
bandwidth grows (the paper's 16% -> 11% observation).
"""
from __future__ import annotations

import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ReproError, TransferFaultError
from ..obs import add_bytes, event, metric_count, metric_seconds, span as stage

__all__ = [
    "LinkConfig",
    "SliceMeasurement",
    "measure_slices",
    "PipelineTimes",
    "simulate_pipeline",
    "RetryPolicy",
    "SliceOutcome",
    "TransferReport",
    "transfer_slices",
]

#: bandwidth the paper measured on the MCC<->Anvil Globus link
PAPER_LINK_MBS = 461.75


@dataclass(frozen=True)
class LinkConfig:
    """Bandwidths of the pipeline's I/O stages, in MB/s (1e6 bytes)."""

    link_mbs: float = PAPER_LINK_MBS
    fs_write_mbs: float = 2000.0
    fs_read_mbs: float = 2000.0


@dataclass
class SliceMeasurement:
    """Aggregate measurement over the compressed slices."""

    n_slices: int
    raw_bytes: int
    compressed_bytes: int
    compress_seconds: float  # total CPU seconds across slices
    decompress_seconds: float

    @property
    def cr(self) -> float:
        return self.raw_bytes / self.compressed_bytes


def _work_one(args) -> tuple[int, float, float]:
    """Worker: compress+decompress one slice, return (size, t_comp, t_dec)."""
    data, name, error_bound, qp_dict, extra = args
    from ..compressors import get_compressor
    from ..core.config import QPConfig

    kwargs = dict(extra)
    if name in ("sz3", "qoz", "hpez", "mgard"):
        kwargs["qp"] = QPConfig.from_dict(qp_dict)
    comp = get_compressor(name, error_bound, **kwargs)
    t0 = time.perf_counter()
    blob = comp.compress(data)
    t1 = time.perf_counter()
    comp.decompress(blob)
    t2 = time.perf_counter()
    return len(blob), t1 - t0, t2 - t1


def measure_slices(
    slices: list[np.ndarray],
    compressor: str,
    error_bound: float,
    qp=None,
    workers: int = 0,
    **comp_kwargs,
) -> SliceMeasurement:
    """Compress every slice (serially or over ``workers`` processes) and
    aggregate sizes and CPU times.  Extra kwargs go to the compressor
    constructor (e.g. ``predictor="interp"``)."""
    from ..core.config import QPConfig

    qp_dict = (qp or QPConfig.disabled()).to_dict()
    jobs = [(s, compressor, error_bound, qp_dict, comp_kwargs) for s in slices]
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_work_one, jobs))
    else:
        results = [_work_one(j) for j in jobs]
    sizes, t_comp, t_dec = zip(*results)
    return SliceMeasurement(
        n_slices=len(slices),
        raw_bytes=int(sum(s.nbytes for s in slices)),
        compressed_bytes=int(sum(sizes)),
        compress_seconds=float(sum(t_comp)),
        decompress_seconds=float(sum(t_dec)),
    )


@dataclass
class PipelineTimes:
    """Stage times (seconds) of one end-to-end transfer configuration."""

    cores: int
    compress: float
    write: float
    transfer: float
    read: float
    decompress: float

    @property
    def total(self) -> float:
        return self.compress + self.write + self.transfer + self.read + self.decompress

    def row(self) -> dict[str, float]:
        return {
            "cores": self.cores,
            "compress": round(self.compress, 3),
            "write": round(self.write, 3),
            "transfer": round(self.transfer, 3),
            "read": round(self.read, 3),
            "decompress": round(self.decompress, 3),
            "total": round(self.total, 3),
        }


def simulate_pipeline(
    m: SliceMeasurement,
    cores: int,
    link: LinkConfig = LinkConfig(),
    scale_to_slices: int | None = None,
) -> PipelineTimes:
    """Strong-scaling pipeline model from measured per-slice costs.

    ``scale_to_slices`` linearly extrapolates the measured subset to the
    paper's full slice count (3600 for RTM); compute stages divide by the
    core count (embarrassingly parallel), bandwidth stages do not.
    """
    if cores <= 0:
        raise ValueError("cores must be positive")
    factor = 1.0 if scale_to_slices is None else scale_to_slices / m.n_slices
    comp_total = m.compress_seconds * factor
    dec_total = m.decompress_seconds * factor
    cbytes = m.compressed_bytes * factor
    return PipelineTimes(
        cores=cores,
        compress=comp_total / cores,
        write=cbytes / 1e6 / link.fs_write_mbs,
        transfer=cbytes / 1e6 / link.link_mbs,
        read=cbytes / 1e6 / link.fs_read_mbs,
        decompress=dec_total / cores,
    )


def vanilla_transfer_seconds(
    raw_bytes: int, link: LinkConfig = LinkConfig(), scale: float = 1.0
) -> float:
    """Time to move the uncompressed data over the link (the paper's
    23m29s baseline for RTM)."""
    return raw_bytes * scale / 1e6 / link.link_mbs


# -- resilient per-slice transfer ---------------------------------------------
#
# The measurement/model halves above assume a perfect link.  Real traffic
# does not: slices get dropped, corrupted, or stall.  ``transfer_slices``
# moves each slice through a caller-supplied channel with retry + exponential
# backoff + a per-attempt deadline, verifying every received payload's CRC32
# and quarantining slices that exhaust their budget — the pipeline degrades
# gracefully instead of silently shipping garbage or hanging on one slice.


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for the per-slice retry loop.

    ``max_attempts``      total tries per slice before quarantine.
    ``base_delay_s``      backoff before the first retry.
    ``backoff``           multiplier applied per failed attempt.
    ``max_delay_s``       backoff ceiling.
    ``attempt_timeout_s`` an attempt slower than this counts as failed even
                          if the channel eventually returned (synchronous
                          channels cannot be preempted, so the deadline is
                          enforced on completion).
    """

    max_attempts: int = 5
    base_delay_s: float = 0.01
    backoff: float = 2.0
    max_delay_s: float = 1.0
    attempt_timeout_s: float = 30.0

    def delay_s(self, failures: int) -> float:
        """Backoff after the ``failures``-th consecutive failure (1-based)."""
        return min(self.base_delay_s * self.backoff ** (failures - 1), self.max_delay_s)


@dataclass
class SliceOutcome:
    """Fate of one slice after the retry loop.

    ``full_nbytes`` is the slice's untruncated size; it equals ``nbytes``
    unless an early-abort run sent only a level prefix."""

    name: str
    attempts: int
    delivered: bool
    verified: bool
    nbytes: int
    error: str | None = None
    full_nbytes: int = 0


@dataclass
class TransferReport:
    """Graceful-degradation accounting for one resilient transfer run."""

    outcomes: list[SliceOutcome] = field(default_factory=list)

    @property
    def delivered(self) -> list[str]:
        return [o.name for o in self.outcomes if o.delivered]

    @property
    def degraded(self) -> list[str]:
        """Slices that arrived, but only after at least one retry."""
        return [o.name for o in self.outcomes if o.delivered and o.attempts > 1]

    @property
    def quarantined(self) -> list[str]:
        return [
            o.name for o in self.outcomes if not o.delivered and o.attempts > 0
        ]

    @property
    def verified_bytes(self) -> int:
        return sum(o.nbytes for o in self.outcomes if o.verified)

    @property
    def total_attempts(self) -> int:
        return sum(o.attempts for o in self.outcomes)

    @property
    def skipped(self) -> list[str]:
        """Slices never attempted because the byte budget ran out."""
        return [
            o.name for o in self.outcomes if not o.delivered and o.attempts == 0
        ]

    @property
    def full_bytes(self) -> int:
        """Untruncated size of everything delivered (what a non-progressive
        run would have moved for the same slices)."""
        return sum(o.full_nbytes for o in self.outcomes if o.delivered)

    def summary(self) -> dict:
        return {
            "slices": len(self.outcomes),
            "delivered": len(self.delivered),
            "degraded": len(self.degraded),
            "quarantined": len(self.quarantined),
            "skipped": len(self.skipped),
            "attempts": self.total_attempts,
            "verified_bytes": self.verified_bytes,
            "full_bytes": self.full_bytes,
        }


def _crc32(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _preview_payload(payload: bytes, target_level: int) -> bytes:
    """The prefix of ``payload`` that decodes through ``target_level``.

    Non-progressive blobs have no level-aligned prefixes, so they move in
    full; progressive blobs whose table stops above ``target_level`` send
    their deepest recorded prefix (never more than asked for)."""
    from ..compressors.progressive import level_table

    try:
        table = level_table(payload)
    except ReproError:
        return payload
    for entry in table:
        if entry["level"] <= target_level:
            return payload[: entry["end"]]
    return payload[: table[-1]["end"]] if table else payload


def transfer_slices(
    blobs: dict[str, bytes],
    channel: Callable[[str, bytes], bytes],
    policy: RetryPolicy = RetryPolicy(),
    sleep: Callable[[float], None] = time.sleep,
    received: dict[str, bytes] | None = None,
    *,
    target_level: int | None = None,
    byte_budget: int | None = None,
) -> TransferReport:
    """Move every blob through ``channel`` with retry/backoff/quarantine.

    ``channel(name, payload)`` models one transfer attempt: it returns the
    bytes as received on the far side (possibly corrupted) or raises
    :class:`~repro.errors.TransferFaultError` for a dropped slice.  Each
    received payload is CRC-verified against the sender's checksum — the
    same integrity data the v1 archive index carries — and a mismatch counts
    as a failed attempt.  Slices that exhaust ``policy.max_attempts`` land
    on the quarantine list instead of raising, so one bad slice cannot sink
    the run; the report carries delivered/degraded/quarantined accounting.

    Timings surface through :mod:`repro.obs` under the ``transfer`` (channel
    attempts), ``verify`` (integrity checks), and ``retry`` (backoff waits)
    stages; delivered and verified byte counts are recorded via
    ``add_bytes`` under the same names.  When an
    observation is active the loop additionally records structured events
    (``transfer.retry``, ``transfer.quarantine``), per-attempt latency in the
    ``transfer.attempt_seconds`` histogram, and the
    ``transfer.slices{outcome=...}`` / ``transfer.attempts`` counters.

    ``received`` (optional) collects the verified payloads by name.

    **Early abort** (progressive retrieval): ``target_level=k`` sends each
    progressive slice's level-``k`` byte prefix instead of the full blob —
    the receiver previews it with
    :func:`repro.compressors.progressive.decompress_prefix` — while
    non-progressive slices still move in full.  ``byte_budget`` caps the
    payload bytes admitted to the channel across the run (retries of an
    admitted slice are not re-charged); slices that no longer fit are
    reported as ``skipped`` (attempts=0, not quarantined)
    so the caller knows the preview is partial.  The CRC travels over the
    bytes actually sent, and ``stage.bytes`` under ``transfer.prefix`` /
    ``transfer.full`` record served-prefix vs untruncated sizes for the
    savings ratio.
    """
    if policy.max_attempts < 1:
        raise ValueError("RetryPolicy.max_attempts must be >= 1")
    if byte_budget is not None and byte_budget < 0:
        raise ValueError("byte_budget must be >= 0")
    report = TransferReport()
    budget_left = byte_budget
    for name, full_payload in blobs.items():
        payload = (
            _preview_payload(full_payload, target_level)
            if target_level is not None
            else full_payload
        )
        if budget_left is not None and len(payload) > budget_left:
            event(
                "transfer.skip", slice=name,
                needed=len(payload), budget_left=budget_left,
            )
            metric_count("transfer.slices", outcome="skipped")
            report.outcomes.append(
                SliceOutcome(
                    name=name, attempts=0, delivered=False, verified=False,
                    nbytes=0, full_nbytes=len(full_payload),
                    error=(
                        f"skipped: needs {len(payload)} bytes, "
                        f"{budget_left} left in budget"
                    ),
                )
            )
            continue
        want_crc = _crc32(payload)
        attempts = 0
        last_error: str | None = None
        delivered = False
        while attempts < policy.max_attempts and not delivered:
            attempts += 1
            t0 = time.perf_counter()
            metric_count("transfer.attempts")
            try:
                with stage("transfer"):
                    got = channel(name, payload)
            except TransferFaultError as exc:
                last_error = str(exc)
                metric_seconds(
                    "transfer.attempt_seconds", time.perf_counter() - t0
                )
            else:
                elapsed = time.perf_counter() - t0
                metric_seconds("transfer.attempt_seconds", elapsed)
                if elapsed > policy.attempt_timeout_s:
                    last_error = (
                        f"attempt took {elapsed:.3f}s "
                        f"(> {policy.attempt_timeout_s}s deadline)"
                    )
                else:
                    with stage("verify"):
                        ok = _crc32(got) == want_crc
                    if ok:
                        delivered = True
                        add_bytes("transfer", len(got))
                        add_bytes("verify", len(got))
                        if target_level is not None or byte_budget is not None:
                            add_bytes("transfer.prefix", len(got))
                            add_bytes("transfer.full", len(full_payload))
                        if received is not None:
                            received[name] = got
                    else:
                        last_error = "received payload failed CRC32 verification"
            if attempts == 1 and budget_left is not None:
                budget_left -= len(payload)
            if not delivered and attempts < policy.max_attempts:
                event("transfer.retry", slice=name, attempt=attempts, error=last_error)
                with stage("retry"):
                    sleep(policy.delay_s(attempts))
        if delivered:
            outcome = "degraded" if attempts > 1 else "delivered"
        else:
            outcome = "quarantined"
            event(
                "transfer.quarantine", slice=name, attempts=attempts, error=last_error
            )
        metric_count("transfer.slices", outcome=outcome)
        report.outcomes.append(
            SliceOutcome(
                name=name,
                attempts=attempts,
                delivered=delivered,
                verified=delivered,
                nbytes=len(payload) if delivered else 0,
                error=None if delivered else last_error,
                full_nbytes=len(full_payload) if delivered else 0,
            )
        )
    return report
