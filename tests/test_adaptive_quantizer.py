"""Adaptive-quantize property/fault layer (run alone via ``pytest -m adaptive``).

Three families of guarantees for the reserved-index adaptive quantizer:

* **Properties** — on random fields across dtypes, bounds, and (bits,
  threshold) grids: the global bound always holds, hard-to-predict points
  additionally meet the tightened bound ``eb / 2**bits``, the wire stream
  respects the reserved-band partition (easy ``|w| < t``, hard
  ``t <= |w| < radius``, literals exactly at the sentinel), and encode-side
  ``decoded`` is bit-identical to ``dequantize``.
* **Integration** — every registered compressor accepts ``auto=True`` and
  the result decodes via ``decompress_any`` within the bound; the sampling
  tuner is deterministic under the seeded conftest RNG; with adaptivity off
  the golden digests of ``test_golden_identity`` are reproduced unchanged.
* **Faults** — tampered reserved indices, out-of-range ``adaptive_bits`` in
  a rebuilt header, truncation, and the full corruption matrix on adaptive
  blobs: every failure is a typed :class:`repro.errors.ReproError` within
  the deadline.
"""
import hashlib

import numpy as np
import pytest

import repro
from repro.compressors import (
    COMPRESSORS,
    decompress_any,
    get_compressor,
    supports_qp,
)
from repro.compressors.base import Blob, CompressionState
from repro.core.autotune import autotune, sample_blocks
from repro.core.config import ADAPTIVE_MAX_BITS, AdaptiveConfig, QPConfig
from repro.errors import CorruptBlobError, ReproError, TruncatedStreamError
from repro.quantize import AdaptiveLinearQuantizer
from repro.quantize.adaptive import reserved_bias
from repro.testing import run_corruption_matrix

pytestmark = pytest.mark.adaptive

DEADLINE_S = 10.0


def _field(seed, n=600, dtype=np.float32, scale=1.0):
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 4 * np.pi, n)
    return (scale * (np.sin(x) + 0.3 * rng.standard_normal(n))).astype(dtype)


# -- properties: bounds, wire bands, bit-identity ----------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bits,threshold", [(1, 1), (2, 4), (3, 2), (8, 16)])
@pytest.mark.parametrize("eb", [1e-2, 1e-4])
def test_roundtrip_bounds_and_wire_bands(dtype, bits, threshold, eb):
    values = _field(seed=bits * 31 + threshold, dtype=dtype)
    rng = np.random.default_rng(99)
    # predictions with a long error tail so easy, hard, and literal points
    # all occur in one stream
    preds = (values + rng.standard_normal(values.size).astype(dtype)
             * np.array(eb * 8, dtype)).astype(dtype)
    preds[::97] = values[::97] + dtype(50 * eb)

    quant = AdaptiveLinearQuantizer(eb, radius=512, bits=bits, threshold=threshold)
    res = quant.quantize(values, preds)

    err = np.abs(res.decoded.astype(np.float64) - values.astype(np.float64))
    assert np.all(err <= eb * (1 + 1e-12)), "global bound violated"

    sent = res.indices == quant.sentinel
    hard = (np.abs(res.indices) >= threshold) & ~sent
    easy = ~hard & ~sent
    assert np.all(err[hard] <= quant.tight_bound * (1 + 1e-12)), (
        "adaptive points must meet the tightened bound eb / 2**bits"
    )
    # reserved-band partition of the wire alphabet
    assert np.all(np.abs(res.indices[easy]) < threshold)
    assert np.all(np.abs(res.indices[hard]) < quant.radius)
    assert res.literals.size == int(sent.sum())

    recon = quant.dequantize(res.indices, preds, literals=res.literals)
    assert recon.dtype == values.dtype
    assert np.array_equal(recon, res.decoded), (
        "dequantize must be bit-identical to the encode-side reconstruction"
    )


def test_reserved_band_is_exact_in_floating_point():
    """The in-band signal relies on |qt| >= t*2^b - 2^(b-1) holding exactly
    whenever |q| >= t; sweep diffs straddling every coarse bucket edge."""
    eb, bits, threshold = 1e-3, 3, 4
    quant = AdaptiveLinearQuantizer(eb, radius=1 << 14, bits=bits, threshold=threshold)
    edges = (np.arange(1, 40, dtype=np.float64) - 0.5) * 2 * eb
    diffs = np.concatenate([
        edges * (1 - 1e-15), edges, edges * (1 + 1e-15), -edges,
    ])
    preds = np.zeros(diffs.size)
    res = quant.quantize(diffs, preds)
    sent = res.indices == quant.sentinel
    coarse = np.rint(diffs / (2 * eb))
    hard = (np.abs(coarse) >= threshold) & ~sent
    assert np.all(np.abs(res.indices[hard]) >= threshold), (
        "a hard point escaped the reserved band — decoder would misscale it"
    )
    bias = reserved_bias(bits, threshold)
    assert bias == threshold * (1 << bits) - (1 << (bits - 1)) - threshold


@pytest.mark.parametrize("bad_kwargs", [
    {"bits": 0}, {"bits": ADAPTIVE_MAX_BITS + 1}, {"threshold": 0},
])
def test_quantizer_rejects_out_of_range_params(bad_kwargs):
    with pytest.raises(ValueError):
        AdaptiveLinearQuantizer(1e-3, **bad_kwargs)


def test_literal_count_mismatch_is_detected():
    quant = AdaptiveLinearQuantizer(1e-3, radius=64)
    values = _field(seed=5, n=128)
    res = quant.quantize(values, np.zeros_like(values))
    with pytest.raises(ValueError):
        quant.dequantize(res.indices, np.zeros_like(values),
                         literals=res.literals[:-1] if res.literals.size
                         else np.ones(1, values.dtype))


# -- integration: engine bound, auto=True, tuner determinism -----------------


def test_engine_adaptive_regions_meet_tightened_bound(smooth_field):
    """End to end through the pipeline: points coded via reserved indices in
    any interpolation pass must meet eb / 2**bits, everything the bound."""
    eb = 1e-3 * float(smooth_field.max() - smooth_field.min())
    cfg = AdaptiveConfig(bits=3, threshold=2)
    comp = get_compressor("sz3", eb, adaptive=cfg)
    st = CompressionState()
    blob = comp.compress(smooth_field, state=st)
    out = decompress_any(blob)
    err = np.abs(out.astype(np.float64) - smooth_field.astype(np.float64))
    assert np.all(err <= eb * (1 + 1e-12))
    idx = st.index_volume
    interp_pts = st.extras["pass_levels"] > 0  # anchors never carry indices
    hard = (np.abs(idx) >= cfg.threshold) & (idx != -comp.radius) & interp_pts
    assert hard.any(), "test field produced no adaptive points — weak test"
    tight = eb / (1 << cfg.bits)
    assert np.all(err[hard] <= tight * (1 + 1e-12)), (
        f"adaptive region exceeded tightened bound {tight:.3e}"
    )


def test_adaptive_header_roundtrips_via_decompress_any(smooth_field):
    eb = 1e-3
    for name in ("mgard", "sz3", "qoz", "hpez"):
        comp = get_compressor(name, eb, adaptive={"bits": 2, "threshold": 3})
        blob = comp.compress(smooth_field)
        out = decompress_any(blob)
        err = np.abs(out.astype(np.float64) - smooth_field.astype(np.float64))
        assert err.max() <= eb * (1 + 1e-12), name


@pytest.mark.parametrize("name", sorted(COMPRESSORS))
def test_every_compressor_accepts_auto(name, smooth_field):
    """The unified surface: auto=True on all seven compressors produces a
    blob that decodes through the format-sniffing entry point within the
    bound.  Non-engine compressors treat it as a no-op."""
    eb = 1e-2
    kwargs = {"qp": QPConfig.disabled()} if supports_qp(name) else {}
    comp = get_compressor(name, eb, **kwargs)
    blob = comp.compress(smooth_field, auto=True)
    out = decompress_any(blob)
    err = float(np.abs(out.astype(np.float64)
                       - smooth_field.astype(np.float64)).max())
    assert err <= eb * (1 + 1e-9), f"{name}: {err} > {eb}"
    if comp.last_tuning is not None:
        d = comp.last_tuning.to_dict()
        assert 0 <= d["adaptive_bits"] <= ADAPTIVE_MAX_BITS
        assert d["n_blocks"] >= 1


def test_tuner_is_deterministic_under_seeded_rng(noisy_field, tuner_rng):
    eb = 1e-2 * float(noisy_field.max() - noisy_field.min())
    a = autotune(noisy_field, eb, rng=tuner_rng)
    b = autotune(noisy_field, eb, rng=np.random.default_rng(2024))
    assert a == b, "same seed must reproduce the same decision"
    assert a.score > -np.inf and a.n_blocks >= 1
    assert 0.0 <= a.adaptive_fraction <= 1.0


def test_sample_blocks_deterministic_and_in_bounds(noisy_field, tuner_rng):
    blocks = sample_blocks(noisy_field, block_side=16, max_blocks=3,
                           rng=tuner_rng)
    again = sample_blocks(noisy_field, block_side=16, max_blocks=3,
                          rng=np.random.default_rng(2024))
    assert len(blocks) >= 1
    for x, y in zip(blocks, again):
        assert x.shape == y.shape and np.array_equal(x, y)
        assert all(s <= 16 for s in x.shape)


def test_golden_digests_unchanged_with_adaptivity_off():
    """Frozen-bytes regression: the adaptive variant is *additive* — with it
    off (the default) the exact pre-adaptive golden bytes come out."""
    from tests.test_golden_identity import GOLDEN

    data = repro.generate("miranda", shape=(24, 20, 22), seed=0)
    eb = 1e-3 * float(data.max() - data.min())
    for qp_on, key in ((False, "miranda-24x20x22/sz3/qp=off"),
                       (True, "miranda-24x20x22/sz3/qp=on")):
        kw = {"qp": QPConfig()} if qp_on else {}
        blob = get_compressor("sz3", eb, **kw).compress(data)
        assert hashlib.sha256(blob).hexdigest() == GOLDEN[key]
        header = Blob.from_bytes(blob).header
        assert "adaptive" not in header.get("engine", {}), (
            "adaptivity-off blobs must not carry the adaptive header block"
        )


# -- faults: tampering, bad headers, truncation, the matrix ------------------


@pytest.fixture(scope="module")
def adaptive_blob():
    data = repro.generate("miranda", shape=(20, 18, 16), seed=0)
    eb = 1e-3 * float(data.max() - data.min())
    comp = get_compressor("sz3", eb, qp=QPConfig(),
                          adaptive=AdaptiveConfig(bits=2, threshold=3))
    return data, comp.compress(data), eb


def _reheader(blob_bytes, mutate):
    """Parse, apply ``mutate(header)``, re-serialize with intact sections."""
    blob = Blob.from_bytes(blob_bytes)
    mutate(blob.header)
    return blob.to_bytes()


@pytest.mark.parametrize("bad_bits", [0, ADAPTIVE_MAX_BITS + 1, 99, "2", None])
def test_out_of_range_adaptive_bits_in_header_is_typed(adaptive_blob, bad_bits):
    _, blob, _ = adaptive_blob

    def mutate(h):
        h["engine"]["adaptive"]["bits"] = bad_bits

    with pytest.raises(CorruptBlobError):
        decompress_any(_reheader(blob, mutate))


def test_unknown_adaptive_header_key_is_typed(adaptive_blob):
    _, blob, _ = adaptive_blob

    def mutate(h):
        h["engine"]["adaptive"]["mode"] = "extra"

    with pytest.raises(CorruptBlobError):
        decompress_any(_reheader(blob, mutate))


def test_bad_threshold_in_header_is_typed(adaptive_blob):
    _, blob, _ = adaptive_blob

    def mutate(h):
        h["engine"]["adaptive"]["threshold"] = 0

    with pytest.raises(CorruptBlobError):
        decompress_any(_reheader(blob, mutate))


def test_tampered_reserved_indices_stay_bounded(adaptive_blob):
    """Rewriting wire indices inside/outside the reserved band must never
    crash untyped or hang: decode either raises typed or returns the declared
    shape (the index payload is not integrity-protected without the seal)."""
    data, blob, _ = adaptive_blob
    rng = np.random.default_rng(0)
    parsed = Blob.from_bytes(blob)
    payload = bytearray(parsed.sections["indices"])
    for trial in range(8):
        corrupted = bytearray(payload)
        # flip bytes inside the entropy-coded index section only
        for pos in rng.integers(16, len(corrupted), size=6):
            corrupted[pos] ^= int(rng.integers(1, 256))
        sections = dict(parsed.sections, indices=bytes(corrupted))
        rebuilt = Blob(dict(parsed.header), sections).to_bytes()
        try:
            out = decompress_any(rebuilt)
        except ReproError:
            continue
        assert out.shape == data.shape and out.dtype == data.dtype


def test_truncated_adaptive_blob_is_typed(adaptive_blob):
    _, blob, _ = adaptive_blob
    for cut in (0, 3, 7, len(blob) // 4, len(blob) // 2, len(blob) - 1):
        with pytest.raises((TruncatedStreamError, CorruptBlobError)):
            decompress_any(blob[:cut])


@pytest.mark.faults
def test_corruption_matrix_on_adaptive_blobs(adaptive_blob):
    """Full injector matrix on the adaptive spec variant, sealed and not:
    sealed catches everything; unsealed never goes untyped or over deadline."""
    data, blob, eb = adaptive_blob
    comp = get_compressor("sz3", eb, qp=QPConfig(),
                          adaptive=AdaptiveConfig(bits=2, threshold=3))
    sealed = comp.compress(data, checksum=True)

    results = run_corruption_matrix(
        sealed, decompress_any, seeds=range(3), deadline_s=DEADLINE_S
    )
    bad = [r for r in results if not r.ok]
    assert not bad, [
        f"{r.injector}/seed={r.seed}: {r.outcome} ({r.detail})" for r in bad
    ]

    def decode(b):
        out = decompress_any(b)
        assert out.shape == data.shape and out.dtype == data.dtype
        return out

    results = run_corruption_matrix(
        blob, decode, seeds=range(3), deadline_s=DEADLINE_S
    )
    untyped = [r for r in results if r.outcome == "untyped"]
    assert not untyped, [
        f"{r.injector}/seed={r.seed}: {r.detail}" for r in untyped
    ]
    assert all(r.elapsed_s <= DEADLINE_S for r in results)
