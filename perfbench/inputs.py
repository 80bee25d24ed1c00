"""Seeded inputs for the benchmark: fields and gateway sessions.

Everything here is the benchmark's own code, so a change to the program
cannot move its inputs.  Fields are generated in a separate process
(``python3 perfbench/inputs.py --workload NAME --seed N``) and cached on
disk as ``.npy`` files keyed by (dataset, shape, seed); the measured
process only memory-maps or loads them.  The reason is size: a spectral
field of the large stream workload needs several hundred MB of FFT
work memory, which would otherwise land in the measured process's
set-up time and peak RSS.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

CACHE_DIR = ".perfbench_cache"
#: fields beyond this many bytes on disk are evicted oldest-first
CACHE_BUDGET_BYTES = 640 << 20

#: codec-qp fields: the paper's miranda and s3d grids, f32
CODEC_FIELDS = (("miranda", (64, 96, 96)), ("s3d", (48, 48, 48)))
#: stream-large field: 1.19x the 105 MiB L3 of the reference box
STREAM_FIELD = ("miranda", (320, 320, 320))

#: gateway traffic classes and their session weights (small:big:archive:range)
SESSION_WEIGHTS = {"small": 96, "big": 4, "archive": 12, "range": 8}
SMALL_SHAPE = (12, 16, 16)
BIG_SHAPE = (48, 72, 72)
TENANTS = ("alice", "bob", "carol")


def _spectral(shape, slope, rng, cutoff_frac):
    """Gaussian random field with per-mode power ``k**-slope`` and a
    Gaussian roll-off at ``cutoff_frac`` of Nyquist, zero mean and unit
    variance, in float32.

    The half spectrum is filled one leading-axis plane at a time so the
    temporary memory stays at one complex64 spectrum plus the output.
    """
    import scipy.fft

    half = shape[-1] // 2 + 1
    spec = np.empty(shape[:-1] + (half,), dtype=np.complex64)
    kcut = cutoff_frac * max(shape) / 2.0
    tail = [np.fft.fftfreq(n) * n for n in shape[1:-1]]
    last = np.fft.rfftfreq(shape[-1]) * shape[-1]
    grids = np.meshgrid(*tail, last, indexing="ij")
    k2_tail = sum(g.astype(np.float32) ** 2 for g in grids)
    for i, f0 in enumerate(np.fft.fftfreq(shape[0]) * shape[0]):
        k = np.sqrt(k2_tail + np.float32(f0 * f0))
        amp = np.where(k >= 1.0, np.maximum(k, 1.0) ** (-slope / 2.0), 0.0)
        amp *= np.exp(-((k / kcut) ** 2))
        phase = rng.uniform(0.0, 2.0 * np.pi, k.shape)
        spec[i] = (amp * np.exp(1j * phase)).astype(np.complex64)
    field = scipy.fft.irfftn(spec, s=shape, overwrite_x=True, workers=1)
    del spec
    field = np.asarray(field, dtype=np.float32)
    field -= np.float32(field.mean(dtype=np.float64))
    field /= np.float32(field.std(dtype=np.float64) or 1.0)
    return field


def make_field(dataset: str, shape: tuple[int, ...], seed: int) -> np.ndarray:
    """One float32 field; the same (dataset, shape, seed) gives the same bytes."""
    rng = np.random.default_rng([seed, len(dataset), *shape])
    if dataset == "miranda":
        # turbulence: Kolmogorov-like velocity component
        return _spectral(shape, 11.0 / 3.0, rng, 0.15)
    if dataset == "s3d":
        # combustion temperature: thin reaction fronts between plateaus
        level = _spectral(shape, 4.0, rng, 0.12)
        return (300.0 + 750.0 * (1.0 + np.tanh(25.0 * level))).astype(np.float32)
    raise ValueError(f"unknown dataset {dataset!r}")


def field_path(root: str, dataset: str, shape, seed: int) -> str:
    dims = "x".join(str(int(s)) for s in shape)
    return os.path.join(root, CACHE_DIR, f"{dataset}-{dims}-seed{seed}.npy")


def _evict(root: str, keep: set[str]) -> None:
    d = os.path.join(root, CACHE_DIR)
    entries = []
    for name in os.listdir(d):
        p = os.path.join(d, name)
        if name.endswith(".npy") and p not in keep:
            entries.append((os.path.getmtime(p), p))
    total = sum(os.path.getsize(p) for p in keep if os.path.exists(p))
    total += sum(os.path.getsize(p) for _, p in entries)
    for _, p in sorted(entries):
        if total <= CACHE_BUDGET_BYTES:
            break
        total -= os.path.getsize(p)
        os.remove(p)
        if os.path.exists(p + ".json"):
            os.remove(p + ".json")


def ensure_field(root: str, dataset: str, shape, seed: int) -> str:
    """Path of the cached field, generating it (atomically) when missing."""
    path = field_path(root, dataset, shape, seed)
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        out = np.lib.format.open_memmap(
            path + ".tmp.npy", mode="w+", dtype=np.float32, shape=tuple(shape)
        )
        field = make_field(dataset, tuple(shape), seed)
        out[...] = field
        out.flush()
        del out
        with open(path + ".json", "w") as f:
            json.dump({"min": float(field.min()), "max": float(field.max())}, f)
        del field
        os.replace(path + ".tmp.npy", path)
    os.utime(path)
    _evict(root, {path})
    return path


def field_range(path: str) -> float:
    """Value range (max - min) of a cached field, from its sidecar."""
    with open(path + ".json") as f:
        d = json.load(f)
    return float(d["max"]) - float(d["min"])


def workload_fields(workload: str) -> list[tuple[str, tuple[int, ...]]]:
    if workload == "codec-qp":
        return list(CODEC_FIELDS)
    if workload == "stream-large":
        return [STREAM_FIELD]
    return []


# -- gateway traffic ---------------------------------------------------------


def walk_field(rng: np.random.Generator, shape) -> np.ndarray:
    """Small smooth field for gateway traffic: a random walk along axis 0."""
    return np.cumsum(rng.standard_normal(shape, dtype=np.float32), axis=0)


def gateway_sessions(seed: int, n: int) -> list[dict]:
    """``n`` seeded gateway sessions, each with its class, tenant and the
    arrays it sends, so the measured process only encodes frames.

    Classes are dealt from shuffled decks that hold the exact 96:4:12:8
    mix, so every run gets its share of the rare big class, which sets
    the p99 (a per-session draw would let it vary from seed to seed).
    """
    rng = np.random.default_rng([seed, 7])
    deck_proto = [c for c, w in SESSION_WEIGHTS.items() for _ in range(w)]
    deck: list[str] = []
    out: list[dict] = []
    ranges = 0
    for i in range(n):
        if not deck:
            deck = [deck_proto[j] for j in rng.permutation(len(deck_proto))]
        cls = deck.pop()
        s = {
            "id": i,
            "cls": cls,
            "tenant": TENANTS[int(rng.integers(len(TENANTS)))],
            "data": walk_field(rng, BIG_SHAPE if cls == "big" else SMALL_SHAPE),
        }
        if cls == "small":
            s["follow"] = bool(rng.random() < 0.5)
        elif cls == "range":
            s["follow"] = ranges % 2 == 1  # every other one is refined
            ranges += 1
        out.append(s)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="generate and cache benchmark fields")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", default=".")
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    paths = [
        ensure_field(args.root, ds, shape, args.seed)
        for ds, shape in workload_fields(args.workload)
    ]
    print(json.dumps({"paths": paths, "seconds": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
