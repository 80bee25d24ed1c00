"""SZ3-like compressor: multilevel spline interpolation with Lorenzo switch.

Pipeline (Section IV-A): multilevel linear/cubic interpolation (level by
level, axis by axis), linear-scaling quantization, Huffman + lossless
encoding.  Like the real SZ3, a sampling-based estimator may switch the whole
field to the (dual-quantization) Lorenzo predictor when that decorrelates
better — the behaviour the paper leans on to explain SegSalt/SCALE results at
small error bounds.  QP integrates per Algorithm 1 and is automatically
inactive on the Lorenzo path.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from .. import kernels
from ..codecs import compress as lossless_compress, decompress as lossless_decompress
from ..codecs.fixed import decode_fixed, encode_fixed
from ..core.characterize import counts_entropy, shannon_entropy
from ..core.config import AdaptiveConfig, QPConfig
from ..pipeline.driver import decode_engine_blob, encode_engine_sections
from ..pipeline.stages import InterpPredict
from ..obs import span as stage
from ..predictors.lorenzo import lorenzo_encode, lorenzo_histogram, lorenzo_integrate
from .base import (
    ENTROPY_WIRE_IDS,
    Blob,
    CompressionState,
    Compressor,
    _unzigzag,
    _zigzag,
    decode_index_stream,
    encode_index_stream,
)
from .interp_engine import EngineConfig, compress_volumes, stack_key

__all__ = ["SZ3"]


class SZ3(Compressor):
    """SZ3-like interpolation compressor with optional QP.

    Parameters
    ----------
    error_bound:
        Absolute point-wise error bound.
    qp:
        :class:`~repro.core.QPConfig` controlling quantization index
        prediction; ``None`` disables it (vanilla SZ3).
    predictor:
        ``"auto"`` (sampling-based selection), ``"interp"`` or ``"lorenzo"``.
    interp:
        ``"auto"`` per-level linear/cubic selection, or a fixed method.
    """

    name = "sz3"
    traits = {
        "speed": "high",
        "ratio": "medium",
        "resolution_reduction": False,
        "gpu": False,
        "qoi": True,
        "quality_oriented": False,
    }

    def __init__(
        self,
        error_bound: float,
        qp: QPConfig | None = None,
        predictor: str = "auto",
        interp: str = "auto",
        radius: int = 32768,
        huffman_block_size: int | None = None,
        entropy: str = "huffman",
        adaptive: AdaptiveConfig | None = None,
    ) -> None:
        super().__init__(error_bound)
        if predictor not in ("auto", "interp", "lorenzo", "regression"):
            raise ValueError("predictor must be auto|interp|lorenzo|regression")
        self.qp = qp or QPConfig.disabled()
        self.predictor = predictor
        self.interp = interp
        self.radius = radius
        if huffman_block_size is not None and huffman_block_size <= 0:
            raise ValueError("huffman_block_size must be positive")
        self.huffman_block_size = huffman_block_size
        if entropy not in ENTROPY_WIRE_IDS:
            raise ValueError(f"entropy must be one of {tuple(ENTROPY_WIRE_IDS)}")
        self.entropy = entropy
        if isinstance(adaptive, dict):
            adaptive = AdaptiveConfig.from_dict(adaptive)
        self.adaptive = adaptive
        #: interpolation axis order; only the auto-tuner sets this
        self.axis_order: tuple[int, ...] | None = None

    # -- engine configuration (overridden by QoZ/HPEZ subclasses) ----------

    def _engine_config(self, data: np.ndarray) -> EngineConfig:
        return EngineConfig(
            error_bound=self.error_bound,
            radius=self.radius,
            interp=self.interp,
            axis_order=self.axis_order,
            qp=self.qp,
            adaptive=self.adaptive,
        )

    # -- sampling auto-tuner (compress(auto=True)) --------------------------

    def _tuned_for(self, data: np.ndarray) -> "SZ3":
        """Joint sampling tuner: interp / axis order / per-level eb /
        adaptive_bits / QP on a few strided blocks (see
        :func:`repro.core.autotune.autotune`).  Returns a tuned copy; the
        original instance keeps its configuration."""
        import copy

        from ..core.autotune import autotune

        decision = autotune(data, self.error_bound, radius=self.radius)
        tuned = copy.copy(self)
        tuned.predictor = "interp"  # the tuner searches the interp engine
        tuned.interp = decision.interp
        tuned.axis_order = decision.axis_order
        tuned.qp = decision.qp_config()
        tuned.adaptive = decision.adaptive_config()
        if hasattr(tuned, "alpha"):  # QoZ/HPEZ level-eb scaling
            tuned.alpha = decision.alpha
            tuned.beta = decision.beta
        tuned.tuning_decision = decision
        return tuned

    # -- predictor selection -------------------------------------------------

    def _select_predictor(self, data: np.ndarray) -> str:
        return self._select_predictor_with_trial(data)[0]

    def _select_predictor_with_trial(self, data: np.ndarray):
        """Pick the predictor; also return the Lorenzo trial encoding when
        the numpy path made one and Lorenzo won, so the compression path
        reuses it instead of encoding twice.  Runs under the ``select``
        span."""
        if self.predictor != "auto":
            return self.predictor, None
        if self.adaptive is not None:
            # reserved-index adaptivity lives in the interp engine's
            # quantizer only; an explicit adaptive config would be silently
            # dropped on the Lorenzo/regression paths, so pin the engine
            return "interp", None
        with stage("select"):
            table = _IndexHistogram.for_radius(self.radius)
            try:
                lorenzo_bpp, trial = self._estimate_lorenzo_bpp(data, table)
            except ValueError:  # eb too small for dual quantization
                return "interp", None
            if lorenzo_bpp < self._estimate_interp_bpp(data, table):
                return "lorenzo", trial
            return "interp", None

    def _estimate_lorenzo_bpp(self, data: np.ndarray, table=None):
        """Bits/point of the Lorenzo path (index entropy plus 64 bits per
        escape), and the trial encoding the numpy path computed it from
        (None when the C histogram in ``table``, an
        :class:`_IndexHistogram`, gave it without encoding).  Raises
        ``ValueError`` where the bound is too small."""
        n_escapes = None
        if table is not None:
            n_escapes = lorenzo_histogram(
                data, self.error_bound, self.radius, table.bins, table.bounds
            )
            counts = table.take()
        if n_escapes is not None:
            entropy, trial = counts_entropy(counts, data.size), None
        else:
            trial, _ = lorenzo_encode(
                data, self.error_bound, self.radius, want_recon=False
            )
            entropy, n_escapes = shannon_entropy(trial.indices), trial.escapes.size
        return entropy + (64.0 * n_escapes / data.size), trial

    def _estimate_interp_bpp(self, data: np.ndarray, table=None) -> float:
        """Estimated bits/point of the interpolation path, computed on the
        finest two levels (>98% of points) with original values standing in
        for decoded neighbours — cheap, vectorized, no crop bias.  With a
        ``table`` each pass is quantized and binned in C."""
        from ..utils.levels import level_passes, num_levels

        two_eb = 2.0 * self.error_bound
        bits = 0.0
        count = 0
        method = "cubic" if self.interp in ("auto", "cubic") else "linear"
        for level in (1, 2):
            if level > num_levels(data.shape):
                break
            for p in level_passes(data.shape, level):
                pred = InterpPredict.pass_prediction(data, p, method)
                values = data[p.target]
                counts = None
                if table is not None:
                    counts = table.bin_residuals(values, pred, two_eb)
                if counts is None:
                    entropy = _pass_entropy(values, pred, two_eb, self.radius)
                else:
                    entropy = counts_entropy(counts, pred.size)
                bits += entropy * pred.size
                count += pred.size
        return bits / max(count, 1)

    # -- compression ----------------------------------------------------------

    def _compress(
        self, data: np.ndarray, state: CompressionState | None
    ) -> tuple[dict[str, Any], dict[str, bytes]]:
        # ``trial``: the selection's Lorenzo encoding of ``data``, or None
        predictor, trial = self._select_predictor_with_trial(data)
        if predictor == "lorenzo":
            return self._compress_lorenzo(data, state, trial)
        if predictor == "regression":
            return self._compress_regression(data, state)
        return self._compress_interp(data, state)

    def _compress_interp(
        self, data: np.ndarray, state: CompressionState | None
    ) -> tuple[dict[str, Any], dict[str, bytes]]:
        cfg = self._engine_config(data)
        (meta,), (stream,), (literals,), (anchors,) = compress_volumes(
            data[None], cfg, state
        )[:4]
        sections = encode_engine_sections(
            stream, literals, anchors,
            entropy=self.entropy, block_size=self.huffman_block_size,
        )
        header: dict[str, Any] = {"predictor": "interp", "engine": meta}
        if self.entropy != "huffman":  # default stays off-header: bytes frozen
            header["entropy"] = self.entropy
        return header, sections

    def _compress_lorenzo(
        self, data: np.ndarray, state: CompressionState | None, trial=None
    ) -> tuple[dict[str, Any], dict[str, bytes]]:
        if trial is not None:
            result = trial  # auto-selection already encoded this exact input
        else:
            result, _ = lorenzo_encode(
                data, self.error_bound, self.radius, want_recon=False
            )
        if state is not None:
            state.index_volume = result.indices.copy()
            state.extras["predictor"] = "lorenzo"
        sections = {
            "indices": encode_index_stream(
                result.indices, entropy=self.entropy,
                block_size=self.huffman_block_size,
            ),
            "escapes": lossless_compress(encode_fixed(_zigzag(result.escapes))),
        }
        return {
            "predictor": "lorenzo",
            "sentinel": result.sentinel,
            "step": result.step,
        }, sections

    def _compress_regression(
        self, data: np.ndarray, state: CompressionState | None
    ) -> tuple[dict[str, Any], dict[str, bytes]]:
        """SZ2-style block-regression path (paper ref [5])."""
        from ..predictors.regression import REGRESSION_BLOCK, fit_plane, plane_prediction
        from ..quantize.linear import LinearQuantizer
        from ..utils.blocks import iter_blocks

        quantizer = LinearQuantizer(self.error_bound, self.radius)
        coeff_parts: list[np.ndarray] = []
        index_parts: list[np.ndarray] = []
        literal_parts: list[np.ndarray] = []
        if state is not None:
            state.index_volume = np.zeros(data.shape, dtype=np.int64)
            state.extras["predictor"] = "regression"
        for bslice in iter_blocks(data.shape, REGRESSION_BLOCK):
            block = data[bslice]
            coeffs = fit_plane(block)
            pred = plane_prediction(block.shape, coeffs).astype(data.dtype)
            res = quantizer.quantize(block, pred)
            coeff_parts.append(coeffs)
            index_parts.append(res.indices.ravel())
            literal_parts.append(res.literals)
            if state is not None:
                state.index_volume[bslice] = res.indices
        sections = {
            "indices": encode_index_stream(
                np.concatenate(index_parts), entropy=self.entropy,
                block_size=self.huffman_block_size,
            ),
            "literals": lossless_compress(
                np.concatenate(literal_parts).tobytes() if literal_parts else b""
            ),
            "coeffs": lossless_compress(np.concatenate(coeff_parts).tobytes()),
        }
        return {"predictor": "regression", "radius": self.radius}, sections

    def _decompress_regression(self, blob: Blob) -> np.ndarray:
        from ..predictors.regression import REGRESSION_BLOCK, plane_prediction
        from ..quantize.linear import LinearQuantizer
        from ..utils.blocks import iter_blocks

        stream = decode_index_stream(blob.sections["indices"])
        header = blob.header
        shape = tuple(header["shape"])
        dtype = np.dtype(header["dtype"])
        quantizer = LinearQuantizer(
            header["error_bound"], int(header.get("radius", self.radius))
        )
        literals = np.frombuffer(
            lossless_decompress(blob.sections["literals"]), dtype=dtype
        )
        coeffs = np.frombuffer(
            lossless_decompress(blob.sections["coeffs"]), dtype=np.float32
        ).reshape(-1, len(shape) + 1)
        out = np.empty(shape, dtype=dtype)
        spos = lpos = 0
        for bi, bslice in enumerate(iter_blocks(shape, REGRESSION_BLOCK)):
            bshape = tuple(sl.stop - sl.start for sl in bslice)
            count = int(np.prod(bshape))
            indices = stream[spos:spos + count].reshape(bshape)
            spos += count
            n_lit = int((indices == quantizer.sentinel).sum())
            lits = literals[lpos:lpos + n_lit]
            lpos += n_lit
            pred = plane_prediction(bshape, coeffs[bi]).astype(dtype)
            out[bslice] = quantizer.dequantize(indices, pred, lits)
        return out

    # -- decompression ----------------------------------------------------------

    def _decompress(self, blob: Blob) -> np.ndarray:
        return self._decompress_many([blob])[0]

    def _decompress_many(self, blobs: "list[Blob]") -> "list[np.ndarray]":
        """Batch decode; one blob is a batch of one.  Blobs are grouped by
        their headers before any index stream is decoded: interpolation
        blobs of one :func:`~repro.compressors.interp_engine.stack_key`,
        and Lorenzo blobs of one geometry.  Each group decodes as one
        stack — every member's index stream into its row of one ``(k, L)``
        int64 buffer, which the stacked walk
        (:func:`~repro.pipeline.driver.decode_engine_blob`,
        :meth:`_decompress_lorenzo_many`) inverts in place.  Regression
        blobs decode one at a time."""
        groups: dict[tuple, list[int]] = {}
        for i, b in enumerate(blobs):
            groups.setdefault(_stack_group(b.header), []).append(i)
        outs: "list[np.ndarray | None]" = [None] * len(blobs)
        for (front, *_), members in groups.items():
            group = [blobs[i] for i in members]
            if front == "interp":
                arrs = decode_engine_blob(group)
            elif front == "lorenzo":
                arrs = self._decompress_lorenzo_many(group)
            else:
                arrs = [self._decompress_regression(b) for b in group]
            for i, arr in zip(members, arrs):
                outs[i] = arr
        return outs

    def _decompress_lorenzo_many(self, blobs: "list[Blob]") -> "list[np.ndarray]":
        """Stacked Lorenzo inverse for equal-geometry blobs: their index
        streams decode into the rows of one ``(k, prod(shape))`` int64
        buffer, inverted in place.

        Where the native library loads, each slab integrates in place with
        one C call (every axis but the stack's batch axis); on numpy the
        prefix-sum inverse treats leading axes as batch, so N slabs
        integrate in one set of cumsums instead of N, and escapes reinstate
        with a single slab-major scatter (C order matches the per-slab
        streams concatenated).  The per-slab quantization steps broadcast
        over the stack, so values are bit-identical to per-blob
        :func:`~repro.predictors.lorenzo.lorenzo_decode`.  Returns views of
        one contiguous stacked array — slab reassembly upstream can then
        skip its copy.
        """
        h0 = blobs[0].header
        shape = tuple(h0["shape"])
        dtype = np.dtype(h0["dtype"])
        sentinel = int(h0["sentinel"])
        q = np.empty((len(blobs),) + shape, dtype=np.int64)
        for b, row in zip(blobs, q.reshape(len(blobs), -1)):
            decode_index_stream(b.sections["indices"], out=row)
        esc_parts = [
            _unzigzag(decode_fixed(lossless_decompress(b.sections["escapes"])))
            for b in blobs
        ]
        # the slabs share shape, sentinel and escape dtype, so the C kernel
        # takes all of them or none
        if lorenzo_integrate(q[0], esc_parts[0], sentinel):
            for row in range(1, len(blobs)):
                lorenzo_integrate(q[row], esc_parts[row], sentinel)
        else:
            q = _integrate_stack_numpy(q, esc_parts, sentinel)
        steps = np.asarray([
            float(b.header.get("step", 0.0)) or 2.0 * float(b.header["error_bound"])
            for b in blobs
        ])
        with stage("quantize"):
            out = (q * steps.reshape((-1,) + (1,) * len(shape))).astype(dtype)
        return [out[row] for row in range(len(blobs))]


def _stack_group(header: dict) -> tuple:
    """The batch decode's group of a blob, from its validated header: the
    ``predictor`` (any value but ``"lorenzo"`` and ``"regression"`` is an
    interpolation blob), then what must match for blobs to share a stack
    (regression blobs, which decode one at a time, share one group)."""
    front = header.get("predictor")
    if front == "lorenzo":
        return (front, tuple(header["shape"]), np.dtype(header["dtype"]).str,
                int(header["sentinel"]))
    if front == "regression":
        return (front,)
    return ("interp", stack_key(
        header["engine"], header["shape"], header["dtype"],
        header["error_bound"],
    ))


def _integrate_stack_numpy(
    q: np.ndarray, esc_parts: "list[np.ndarray]", sentinel: int
) -> np.ndarray:
    """The numpy inverse of a stack of Lorenzo slabs: reinstate each slab's
    escapes and prefix-sum every axis but the first."""
    mask = q == sentinel
    counts = mask.sum(axis=tuple(range(1, q.ndim)))
    for row, esc in enumerate(esc_parts):
        if int(counts[row]) != esc.size:
            raise ValueError("escape count mismatch")
    if any(esc.size for esc in esc_parts):
        q[mask] = np.concatenate(esc_parts)
    with stage("predict"):
        for ax in range(1, q.ndim):
            q = np.cumsum(q, axis=ax)
    return q


def _pass_entropy(
    values: np.ndarray, pred: np.ndarray, two_eb: float, radius: int
) -> float:
    """Entropy of one pass's clipped quantization indices in numpy: the
    fallback, and the specification of the C binning kernel."""
    q = np.rint((values - pred) / two_eb)
    np.clip(q, -radius, radius, out=q)
    return shannon_entropy(q.astype(np.int64))


class _IndexHistogram:
    """One table of ``2*radius + 1`` bins for the selection's C kernels;
    ``bins[b]`` counts index ``b - radius`` and ``bounds`` holds the
    lowest and highest bin touched.  :meth:`take` reads the counts and
    zeroes only that range, so a call's passes reuse one table at a cost
    that scales with the bins touched, not with the radius."""

    #: keeps the table within 16 MiB
    MAX_RADIUS = 1 << 20

    def __init__(self, radius: int) -> None:
        self.radius = radius
        self.bins = np.zeros(2 * radius + 1, dtype=np.int64)
        self.bounds = np.array([self.bins.size, -1], dtype=np.int64)

    @classmethod
    def for_radius(cls, radius: int) -> "_IndexHistogram | None":
        """A table, or None where the selection must run numpy (no
        library, or a radius the table should not hold)."""
        if kernels.native() is None or not 2 <= radius <= cls.MAX_RADIUS:
            return None
        return cls(radius)

    def take(self) -> np.ndarray:
        """The nonzero counts in ascending index order (the order
        :func:`~repro.core.characterize.shannon_entropy` reads them in);
        leaves the table empty."""
        lo, hi = int(self.bounds[0]), int(self.bounds[1])
        touched = self.bins[lo:hi + 1]
        counts = touched[touched > 0]
        touched[...] = 0
        self.bounds[:] = (self.bins.size, -1)
        return counts

    def bin_residuals(
        self, values: np.ndarray, pred: np.ndarray, two_eb: float
    ) -> "np.ndarray | None":
        """:func:`_pass_entropy`'s clipped indices of ``values`` against
        ``pred`` (C-contiguous, of ``values``' shape and dtype), binned in C
        and returned as :meth:`take` returns them; None where numpy must
        run (another dtype, a view the kernel cannot walk, NaN)."""
        fn = kernels.float_kernel("repro_bin_residuals", values.dtype)
        if (
            fn is None or not values.size or pred.dtype != values.dtype
            or pred.shape != values.shape or not pred.flags.c_contiguous
        ):
            return None
        geom = kernels.view_geometry(values.shape, values.strides, values.itemsize)
        if geom is None or values.ctypes.data % values.itemsize:
            return None
        n_nan = fn(
            values.ctypes.data, geom, kernels.address(pred), two_eb,
            self.radius, kernels.address(self.bins),
            kernels.address(self.bounds),
        )
        counts = self.take()
        return None if n_nan else counts


def _center_sample(data: np.ndarray, side: int) -> np.ndarray:
    """Central sub-block used by sampling-based estimators."""
    slices = []
    for n in data.shape:
        take = min(n, side)
        start = (n - take) // 2
        slices.append(slice(start, start + take))
    return np.ascontiguousarray(data[tuple(slices)])
