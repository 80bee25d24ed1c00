"""Resilient-transfer tests: retry/backoff convergence, quarantine,
graceful-degradation accounting, and profiler surfacing.

The acceptance bar from the ISSUE: a flaky-link run with 20% injected
failure probability still delivers 100% of slices via retries, and the
pipeline's accounting reconciles exactly with the faults the link injected.
"""
import numpy as np
import pytest

from repro import obs
from repro.errors import TransferFaultError
from repro.testing import FlakyLink
from repro.transfer import (
    RetryPolicy,
    TransferReport,
    run_disk_pipeline,
    transfer_slices,
)

pytestmark = pytest.mark.faults


def _blobs(n=20, size=100):
    return {f"s{i:03d}": bytes([i % 256]) * size for i in range(n)}


def _no_sleep(_):
    return None


class TestRetryConvergence:
    def test_flaky_20pct_delivers_everything(self):
        """20% drop probability: every slice arrives via retries."""
        blobs = _blobs()
        link = FlakyLink(fail_prob=0.2, seed=1)
        report = transfer_slices(blobs, link, sleep=_no_sleep)
        assert sorted(report.delivered) == sorted(blobs)
        assert not report.quarantined
        assert report.verified_bytes == sum(len(b) for b in blobs.values())
        # accounting reconciles with the faults the link actually injected
        assert report.total_attempts == sum(link.attempts.values())
        assert len(report.degraded) == sum(
            1 for n in blobs if link.faults.get(n, 0) > 0
        )

    def test_corrupting_link_is_caught_and_retried(self):
        """Corrupted payloads fail CRC verification and are re-requested."""
        blobs = _blobs()
        link = FlakyLink(fail_prob=0.0, corrupt_prob=0.5, seed=3)
        received: dict[str, bytes] = {}
        report = transfer_slices(blobs, link, sleep=_no_sleep, received=received)
        assert sorted(report.delivered) == sorted(blobs)
        # what landed is bit-identical to what was sent — corruption never leaks
        assert received == blobs
        assert len(report.degraded) == sum(1 for n in link.faults if link.faults[n])

    def test_perfect_link_single_attempt(self):
        report = transfer_slices(_blobs(), lambda name, p: p, sleep=_no_sleep)
        assert not report.degraded and not report.quarantined
        assert all(o.attempts == 1 for o in report.outcomes)


class TestQuarantine:
    def test_dead_link_quarantines_all(self):
        blobs = _blobs(n=5)
        policy = RetryPolicy(max_attempts=4)
        link = FlakyLink(fail_prob=1.0, seed=2)
        report = transfer_slices(blobs, link, policy=policy, sleep=_no_sleep)
        assert sorted(report.quarantined) == sorted(blobs)
        assert not report.delivered
        assert report.verified_bytes == 0
        assert all(o.attempts == policy.max_attempts for o in report.outcomes)
        assert all(o.error for o in report.outcomes)

    def test_attempt_timeout_counts_as_failure(self):
        """A channel that returns bytes too late still fails the attempt."""
        policy = RetryPolicy(max_attempts=2, attempt_timeout_s=0.0)
        report = transfer_slices(
            _blobs(n=3), lambda name, p: p, policy=policy, sleep=_no_sleep
        )
        assert len(report.quarantined) == 3
        assert all("deadline" in o.error for o in report.outcomes)

    def test_summary_accounting(self):
        blobs = _blobs(n=8)
        link = FlakyLink(fail_prob=0.5, seed=5)
        report = transfer_slices(
            blobs, link, policy=RetryPolicy(max_attempts=2), sleep=_no_sleep
        )
        s = report.summary()
        assert s["slices"] == 8
        assert s["delivered"] + s["quarantined"] == 8
        assert s["verified_bytes"] == 100 * s["delivered"]


class TestBackoff:
    def test_exponential_backoff_sequence(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.01, backoff=2.0, max_delay_s=0.05
        )
        sleeps: list[float] = []
        link = FlakyLink(fail_prob=1.0, seed=0)
        transfer_slices({"only": b"x" * 10}, link, policy=policy, sleep=sleeps.append)
        # 5 attempts -> 4 backoff waits: 0.01, 0.02, 0.04, then capped at 0.05
        assert sleeps == [0.01, 0.02, 0.04, 0.05]

    def test_delay_s_is_capped(self):
        policy = RetryPolicy(base_delay_s=0.1, backoff=10.0, max_delay_s=0.5)
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert [policy.delay_s(k) for k in (2, 3, 9)] == [0.5, 0.5, 0.5]

    def test_no_sleep_after_final_attempt(self):
        sleeps: list[float] = []
        link = FlakyLink(fail_prob=1.0, seed=0)
        transfer_slices(
            _blobs(n=2),
            link,
            policy=RetryPolicy(max_attempts=3),
            sleep=sleeps.append,
        )
        assert len(sleeps) == 2 * 2  # (max_attempts - 1) waits per slice


class TestProfilerSurfacing:
    def test_stages_recorded(self):
        ob = obs.Observation()
        link = FlakyLink(fail_prob=0.3, seed=4)
        blobs = _blobs()
        with obs.observe(ob):
            report = transfer_slices(blobs, link, sleep=_no_sleep)
        assert {"transfer", "verify", "retry"} <= set(ob.tracer.stage_seconds())
        assert sorted(report.delivered) == sorted(blobs)

    def test_byte_accounting_matches_report(self):
        ob = obs.Observation()
        blobs = _blobs(n=6, size=50)
        with obs.observe(ob):
            report = transfer_slices(blobs, lambda n, p: p, sleep=_no_sleep)
        assert ob.bytes_seen()["verify"] == report.verified_bytes == 6 * 50


class TestDiskPipelineIntegration:
    @pytest.fixture()
    def slices(self):
        rng = np.random.default_rng(0)
        return [rng.standard_normal((16, 16)).astype(np.float32) for _ in range(4)]

    def test_flaky_channel_still_delivers(self, tmp_path, slices):
        res = run_disk_pipeline(
            slices,
            tmp_path,
            compressor="sz3",
            error_bound=1e-2,
            channel=FlakyLink(fail_prob=0.2, seed=7),
            sleep=_no_sleep,
        )
        assert res.delivered_slices == len(slices)
        assert res.quarantined_slices == 0
        assert res.verified_bytes > 0
        assert res.max_abs_error <= 1e-2 * (1 + 1e-6)

    def test_dead_channel_degrades_gracefully(self, tmp_path, slices):
        res = run_disk_pipeline(
            slices,
            tmp_path,
            compressor="sz3",
            error_bound=1e-2,
            channel=FlakyLink(fail_prob=1.0, seed=7),
            retry=RetryPolicy(max_attempts=2),
            sleep=_no_sleep,
        )
        assert res.delivered_slices == 0
        assert res.quarantined_slices == len(slices)
        assert len(res.quarantined) == len(slices)
        assert res.verified_bytes == 0

    def test_modelled_path_reports_full_delivery(self, tmp_path, slices):
        res = run_disk_pipeline(
            slices, tmp_path, compressor="sz3", error_bound=1e-2
        )
        assert res.delivered_slices == len(slices)
        assert res.degraded_slices == res.quarantined_slices == 0
        # verified_bytes counts the blob payloads read back (< file size,
        # which also holds the archive magic/index/footer)
        assert 0 < res.verified_bytes < res.archive_bytes


def test_channel_fault_is_typed():
    with pytest.raises(TransferFaultError):
        FlakyLink(fail_prob=1.0, seed=0)("s", b"x")
