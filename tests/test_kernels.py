"""The native kernel library's loader, and the kernel-path record that
benchmark and bench reports carry."""
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.codecs.huffman import HuffmanCodec
from repro.core import QPConfig, qp_forward, qp_inverse

STAGES = ("adaptive_quantize", "huffman", "interp", "lorenzo", "qp", "quantize")
CC = shutil.which("cc")
needs_cc = pytest.mark.skipif(CC is None, reason="no C compiler on PATH")


def _roundtrips():
    """A Huffman and a QP round trip through whichever path is active."""
    sym = np.arange(3000, dtype=np.int64) % 11
    codec = HuffmanCodec(block_size=64)
    assert np.array_equal(codec.decode(codec.encode(sym)), sym)
    q = (np.arange(4 * 5 * 6, dtype=np.int64).reshape(4, 5, 6) % 7) - 3
    cfg = QPConfig(dimension="3d", condition="III")
    assert np.array_equal(qp_inverse(qp_forward(q, -32, cfg, 1), -32, cfg, 1), q)


def test_active_backends_maps_every_stage():
    path = "numpy" if kernels.native() is None else "c"
    assert kernels.active_backends() == dict.fromkeys(STAGES, path)
    assert kernels.__all__ == [
        "QuantParams", "active_backends", "address", "float_kernel", "native",
        "view_geometry",
    ]


def test_import_builds_nothing():
    src = str(Path(kernels.__file__).parents[2])
    code = ("import repro, repro.kernels as k; "
            "assert k._lib is k._UNRESOLVED, k._lib")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An unresolved loader that builds into ``tmp_path``; the process's
    real handle comes back when the test ends."""
    monkeypatch.setattr(kernels, "_lib", kernels._UNRESOLVED)
    monkeypatch.setattr(kernels, "_CACHE_DIR", str(tmp_path))
    return tmp_path


def test_no_compiler_runs_numpy(fresh_loader, monkeypatch):
    empty = fresh_loader / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    assert kernels.native() is None
    assert set(kernels.active_backends().values()) == {"numpy"}
    _roundtrips()
    assert not list(fresh_loader.glob("*.so"))


@needs_cc
def test_truncated_cached_library_is_rebuilt(fresh_loader):
    path = kernels._library_path(CC)
    with open(path, "wb") as f:
        f.write(b"\x7fELF\x02\x01\x01")  # a build cut off mid-write
    assert kernels.native() is not None
    assert kernels.active_backends()["huffman"] == "c"
    assert os.path.getsize(path) > 64
    _roundtrips()


def test_source_and_command_are_in_the_library_name(monkeypatch, tmp_path):
    src = tmp_path / "native.c"
    shutil.copy(kernels._SOURCE, src)
    monkeypatch.setattr(kernels, "_SOURCE", str(src))
    before = kernels._library_path("/usr/bin/cc")
    assert kernels._library_path("/usr/bin/cc") == before
    assert kernels._library_path("/opt/other/cc") != before
    with open(src, "a") as f:
        f.write("/* edited */\n")
    assert kernels._library_path("/usr/bin/cc") != before


@needs_cc
@pytest.mark.parametrize(
    "source",
    ["int broken(", "void unrelated(void) {}\n"],
    ids=["compile-error", "missing-symbol"],
)
def test_build_failure_keeps_numpy(fresh_loader, monkeypatch, source):
    bad = fresh_loader / "native.c"
    bad.write_text(source)
    monkeypatch.setattr(kernels, "_SOURCE", str(bad))
    assert kernels.native() is None
    assert set(kernels.active_backends().values()) == {"numpy"}
    _roundtrips()


@needs_cc
def test_concurrent_first_use_builds_once(fresh_loader):
    # more threads than cores race the first load, then decode at once
    # (ctypes releases the GIL inside the kernels)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    handles, errors = [], []

    def work():
        try:
            handles.append(kernels.native())
            for _ in range(5):
                _roundtrips()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert not errors, errors
    assert len(handles) == 6 and handles[0] is not None
    assert all(h is handles[0] for h in handles)
    assert [p.name for p in fresh_loader.iterdir()] == [
        os.path.basename(kernels._library_path(CC))
    ]


def _resolve_in_child():
    kernels.native()
    _roundtrips()


def test_fork_during_first_load_does_not_deadlock(fresh_loader):
    # a gateway thread can be mid-build when the fork pool starts; the child
    # must not inherit the held lock
    ctx = multiprocessing.get_context("fork")
    with kernels._lib_lock:
        proc = ctx.Process(target=_resolve_in_child)
        proc.start()
    proc.join(timeout=120)
    hung = proc.is_alive()
    if hung:
        proc.kill()
        proc.join(timeout=10)
    assert not hung
    assert proc.exitcode == 0


@needs_cc
def test_kernel_source_compiles_without_warnings():
    # the real build uses plain -O2, so a warning here never switches a
    # user to numpy; this keeps the source clean instead
    proc = subprocess.run(
        [CC, "-fsyntax-only", "-Wall", "-Wextra", "-Werror", kernels._SOURCE],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
