"""Typed exception hierarchy for corrupt, truncated, or unversioned streams.

Every decode path in the stack (blob container, entropy codecs, lossless
backends, archive reader, transfer pipeline) raises one of these instead of
a bare ``struct.error``/``ValueError``/``EOFError`` — callers can catch
:class:`ReproError` and know the input bytes, not the code, were at fault.

The hierarchy deliberately double-inherits from the builtin types older
callers already catch (``ValueError``, ``EOFError``), so tightening a
decoder never breaks an existing ``except ValueError`` site.

``CorruptBlobError``     payload bytes fail validation (bad magic, checksum
                         mismatch, inconsistent internal structure).
``TruncatedStreamError`` the stream ends before its declared content does.
``VersionError``         a valid container written by a format revision this
                         reader does not understand.
``IntegrityError``       a CRC/length check failed on otherwise well-formed
                         framing (a :class:`CorruptBlobError` refinement).
``CorruptArchiveError``  the ``RARC`` archive index/footer is unreadable.
``TransferError``        the resilient transfer pipeline's failures.
``ServiceError``         the compression gateway's request failures; admission
                         rejections (rate limit, quota, queue full) are the
                         :class:`AdmissionError` refinements so clients can
                         back off on exactly those.
``TenantAccessError``    a request crossed a tenant's archive namespace.
"""
from __future__ import annotations

__all__ = [
    "ReproError",
    "CorruptBlobError",
    "TruncatedStreamError",
    "VersionError",
    "IntegrityError",
    "CorruptArchiveError",
    "TransferError",
    "TransferFaultError",
    "QuarantinedSliceError",
    "ServiceError",
    "AdmissionError",
    "RateLimitedError",
    "QuotaExceededError",
    "QueueFullError",
    "ServiceClosedError",
    "ServiceRequestError",
    "TenantAccessError",
]


class ReproError(Exception):
    """Base class for every error raised on invalid repro-format input."""


class CorruptBlobError(ReproError, ValueError):
    """The bytes do not form a valid stream (bad magic, bad structure,
    checksum mismatch, impossible field values)."""


class TruncatedStreamError(CorruptBlobError, EOFError):
    """The stream is shorter than its own header/length fields declare."""


class VersionError(CorruptBlobError):
    """Well-formed container written by an unsupported format version."""


class IntegrityError(CorruptBlobError):
    """A CRC32 or declared-length check failed."""


class CorruptArchiveError(ReproError, ValueError):
    """The ``RARC`` archive footer/index cannot be read."""


class TransferError(ReproError):
    """Base class for resilient-transfer failures."""


class TransferFaultError(TransferError):
    """One transfer attempt failed (link fault, timeout, refused slice).

    Raised by channels to signal a retryable fault; the pipeline converts
    repeated faults into quarantine entries rather than propagating."""


class ServiceError(ReproError):
    """Base class for compression-gateway request failures.

    ``reason`` is a stable machine-readable tag (also the wire-format error
    code and the ``service.rejected{reason=...}`` metric label), so clients
    and dashboards never parse the human message."""

    reason = "service"


class AdmissionError(ServiceError):
    """The gateway refused to accept the request (backpressure).

    The request was never queued; retrying after a backoff is safe and
    side-effect free."""

    reason = "admission"


class RateLimitedError(AdmissionError):
    """The tenant's token bucket is empty (requests arriving faster than
    the provisioned rate)."""

    reason = "rate_limited"


class QuotaExceededError(AdmissionError):
    """The tenant already has ``max_inflight`` admitted requests."""

    reason = "quota"


class QueueFullError(AdmissionError):
    """The gateway's bounded dispatch queue is full (global backpressure)."""

    reason = "queue_full"


class ServiceClosedError(ServiceError):
    """The gateway is draining or stopped; no new work is accepted."""

    reason = "closed"


class ServiceRequestError(ServiceError, ValueError):
    """The request itself is invalid (unknown archive entry, malformed
    payload, unsupported spec) — retrying the same request cannot help."""

    reason = "bad_request"


class TenantAccessError(ServiceError):
    """The request would cross a tenant's archive namespace boundary
    (a name that escapes the tenant prefix, or a get for another
    tenant's entry).  Deliberately *not* an :class:`AdmissionError`:
    the request was understood and refused, so backoff-and-retry is
    pointless."""

    reason = "forbidden"


class QuarantinedSliceError(TransferError):
    """A slice exhausted its retry budget and was quarantined."""

    def __init__(self, name: str, attempts: int, last_error: str = "") -> None:
        self.name = name
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"slice {name!r} quarantined after {attempts} attempts"
            + (f": {last_error}" if last_error else "")
        )
