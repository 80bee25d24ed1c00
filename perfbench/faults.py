"""Deliberate output damage for the benchmark's self-test.

``--inject flip`` flips one payload byte of the first item's blob in
every pass; ``--inject nudge`` pushes one decoded value of the first item
past the error bound.  Either must show up as failed operations, which
proves the output check fires.  Without ``--inject`` both hooks return
their input untouched.
"""
from __future__ import annotations

import numpy as np


class Faults:
    def __init__(self, kind: str | None = None) -> None:
        if kind not in (None, "flip", "nudge"):
            raise ValueError(f"unknown fault {kind!r}")
        self.kind = kind

    def blob(self, i: int, blob: bytes) -> bytes:
        if self.kind != "flip" or i != 0:
            return blob
        b = bytearray(blob)
        pos = len(b) - max(1, len(b) // 8)  # inside the payload, past the header
        b[pos] ^= 0x5A
        return bytes(b)

    def decoded(self, i: int, out: np.ndarray, eb: float) -> np.ndarray:
        if self.kind != "nudge" or i != 0:
            return out
        out = np.array(out, copy=True)
        flat = out.reshape(-1)
        flat[flat.size // 2] += out.dtype.type(3.0 * eb)
        return out
