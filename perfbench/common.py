"""Shared pieces of the benchmark: the output yardstick, memory sampling,
percentiles and the report envelope.

The yardstick (error-bound check, PSNR, bits per point) is numpy code of
the benchmark's own, never ``repro.metrics``, so a change to the program
cannot move the ruler it is measured with.
"""
from __future__ import annotations

import math
import os
import platform
import subprocess
import threading
import time

import numpy as np

MB = 1e6


# -- yardstick -----------------------------------------------------------------


class Tally:
    """Attempted / failed operation counts and the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.miss(reason)

    def miss(self, reason: str) -> None:
        """An operation already counted as attempted failed its check."""
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


def within_bound(
    decoded: np.ndarray, original: np.ndarray, eb: float
) -> tuple[bool, float, float]:
    """``(ok, squared error sum, max error)`` of one decoded array.

    ``ok`` needs the same shape and dtype and ``max|decoded - original|``
    at most ``eb``.  Differences are taken in float64.
    """
    if decoded.shape != original.shape or decoded.dtype != original.dtype:
        return False, math.inf, math.inf
    diff = decoded.astype(np.float64) - original.astype(np.float64)
    err = float(np.abs(diff).max()) if diff.size else 0.0
    return bool(err <= eb), sq_sum(diff), err


def sq_sum(diff: np.ndarray) -> float:
    """Sum of squares without BLAS (in place): BLAS helper threads
    busy-wait after a call and would bill CPU time to the measured
    process."""
    return float(np.square(diff, out=diff).sum())


def psnr_db(sq_err_sum: float, n: int, vrange: float) -> float:
    """PSNR of a field from its squared-error sum over ``n`` points."""
    mse = sq_err_sum / max(1, n)
    if mse <= 0.0:
        return 999.0
    return 20.0 * math.log10(vrange) - 10.0 * math.log10(mse)


# -- statistics ----------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return quantile(values, 0.5)


def hit_ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses > 0 else 0.0


# -- memory --------------------------------------------------------------------


def anon_rss_bytes(pid: int | str = "self") -> int:
    """Anonymous resident memory of a process (``RssAnon``), in bytes.

    File-backed pages (memory-mapped inputs) are excluded on purpose.
    Returns 0 for a process that has exited.
    """
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("RssAnon:"):
                    return int(line.split()[1]) * 1024
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def host_steal_seconds() -> float:
    """CPU time the hypervisor stole from this VM, summed over its CPUs."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def child_pids() -> list[int]:
    """Direct children of this process (the gateway's pool workers)."""
    pids: list[int] = []
    task_dir = "/proc/self/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/children") as f:
                pids.extend(int(p) for p in f.read().split())
        except FileNotFoundError:
            continue
    return sorted(set(pids))


class Sampler:
    """Background sampler, every ``period`` seconds, of the summed
    ``RssAnon`` of this process and the given child processes, and of the
    VM's cumulative CPU steal.

    ``samples`` keeps ``(perf_counter time, rss bytes, steal seconds)``
    so a caller can read the peak memory inside any interval.
    """

    def __init__(self, pids: list[int] | None = None, period: float = 0.01):
        self.pids: list = ["self"] + list(pids or [])
        self.period = period
        self.samples: list[tuple[float, int, float]] = []
        self.ncpu = os.cpu_count() or 1
        self._steal0 = host_steal_seconds()
        self._steal = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> None:
        total = sum(anon_rss_bytes(p) for p in self.pids)
        self._steal = host_steal_seconds() - self._steal0
        self.samples.append((time.perf_counter(), total, self._steal))

    def now(self) -> float:
        """A steal-corrected clock for a serial path: wall seconds minus
        the VM's CPU steal so far (its resolution is the sampling period).
        An idle CPU accrues no steal, so the steal is the time the one
        busy CPU lost."""
        return time.perf_counter() - self._steal

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            self.sample()

    def start(self) -> "Sampler":
        self.sample()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._stop.is_set():
            return
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.sample()

    def peak_between(self, t0: float, t1: float) -> int:
        vals = [v for t, v, _ in self.samples if t0 <= t <= t1]
        return max(vals) if vals else 0

    def at(self, t: float) -> int:
        """RSS of the last sample taken at or before ``t``."""
        best = self.samples[0][1] if self.samples else 0
        for ts, v, _ in self.samples:
            if ts > t:
                break
            best = v
        return best

    def steal_share(self) -> float:
        """Share of the VM's CPU time stolen while the sampler ran."""
        (t0, _, s0), (t1, _, s1) = self.samples[0], self.samples[-1]
        return (s1 - s0) / (self.ncpu * (t1 - t0)) if t1 > t0 else 0.0


# -- envelope ------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except FileNotFoundError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    out: dict[str, str] = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            if not idx.startswith("index"):
                continue
            try:
                with open(os.path.join(d, "level")) as f:
                    level = f.read().strip()
                with open(os.path.join(d, "type")) as f:
                    kind = f.read().strip()
                with open(os.path.join(d, "size")) as f:
                    size = f.read().strip()
            except FileNotFoundError:
                continue
            if kind in ("Unified", "Data"):
                out[f"L{level}"] = size
    except FileNotFoundError:
        pass
    return out


def _ram_mb() -> float:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024.0
    except FileNotFoundError:
        pass
    return 0.0


def _git_commit(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def envelope(root: str, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Machine and software facts every report records."""
    from repro import kernels

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "ram_mb": round(_ram_mb(), 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backends": kernels.active_backends(),
        "git_commit": _git_commit(root),
    }
