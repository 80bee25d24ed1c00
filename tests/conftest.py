"""Shared fixtures: small synthetic fields covering the regimes the paper
exercises (smooth, layered/discontinuous, noisy)."""
import numpy as np
import pytest


@pytest.fixture(scope="session")
def smooth_field():
    n = 48
    x, y, z = np.meshgrid(*[np.linspace(0, 1, n)] * 3, indexing="ij")
    return (
        np.sin(6 * np.pi * x) * np.cos(4 * np.pi * y) * np.exp(-((z - 0.5) ** 2) * 8)
    ).astype(np.float32)


@pytest.fixture(scope="session")
def layered_field():
    n = 48
    rng = np.random.default_rng(7)
    layers = np.cumsum(rng.uniform(0.05, 0.3, 12))
    vals = rng.uniform(1.5, 4.5, 13)
    depth = np.linspace(0, 1, n)
    field = vals[np.searchsorted(layers, depth)][:, None, None] * np.ones((n, n, n))
    x, y = np.meshgrid(np.linspace(0, 1, n), np.linspace(0, 1, n), indexing="ij")
    field = field + (0.3 * np.sin(2 * np.pi * x) * y)[None, :, :]
    return field.astype(np.float32)


@pytest.fixture(scope="session")
def noisy_field(smooth_field):
    rng = np.random.default_rng(3)
    return (smooth_field + 0.05 * rng.normal(0, 1, smooth_field.shape)).astype(
        np.float32
    )


@pytest.fixture()
def tuner_rng():
    """Deterministic RNG for the sampling auto-tuner's block jitter.

    Function-scoped on purpose: every test that samples tuner blocks starts
    from the same stream, so tuner decisions are reproducible run to run
    and across test-selection order."""
    return np.random.default_rng(2024)


@pytest.fixture(scope="session")
def field_2d():
    n = 64
    x, y = np.meshgrid(np.linspace(0, 1, n), np.linspace(0, 1, n), indexing="ij")
    return (np.sin(5 * np.pi * x) * np.cos(3 * np.pi * y)).astype(np.float32)


@pytest.fixture()
def numpy_path(monkeypatch):
    """Run the test on the numpy loops even where the native library
    loads: swaps the loader's cached handle for the "did not load" value."""
    from repro import kernels

    monkeypatch.setattr(kernels, "_lib", None)
