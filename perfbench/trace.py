"""Span tracing from outside the program.

The traced run wraps the public entry points of each layer of ``repro``
(a class attribute, or every module-level name a caller resolves) with a
timing shim defined here, so no program module changes.  Each span
records its name, start, end, the span that caused it, an operation id
shared by every span of one operation (the RSV1 ``request_id`` on the
gateway workload), the thread it ran on, and an optional amount (bytes
or points).  Spans stay in memory until the run ends.

Parent links follow a :class:`contextvars.ContextVar`, so they are right
under asyncio (each request task has its own context); threads started
by the program begin with an empty context, so their spans have no
parent and no operation id.
"""
from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
from time import perf_counter
from typing import Any, Callable

#: (index of the enclosing span, operation id)
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(None, None)
)

# span tuple fields
IDX, NAME, T0, T1, PARENT, OP, THREAD, AMOUNT = range(8)


def set_operation(op: Any) -> contextvars.Token:
    """Tag every span opened from here on (in this context) with ``op``."""
    return _CURRENT.set((None, op))


def reset_operation(token: contextvars.Token) -> None:
    _CURRENT.reset(token)


class Tracer:
    """Install / remove timing shims and hold the recorded spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.enabled = False
        self._ids = itertools.count()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- shims -------------------------------------------------------------

    def _shim(self, fn: Callable, name: str, amount=None, gate=None) -> Callable:
        spans = self.spans
        ids = self._ids
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_shim(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                parent, op = _CURRENT.get()
                idx = next(ids)
                token = _CURRENT.set((idx, op))
                t0 = perf_counter()
                try:
                    out = await fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    _CURRENT.reset(token)
                spans.append((idx, name, t0, t1, parent, op,
                              threading.get_ident(), 0))
                return out

            return async_shim

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not tracer.enabled or (gate is not None and not gate(args)):
                return fn(*args, **kwargs)
            parent, op = _CURRENT.get()
            idx = next(ids)
            token = _CURRENT.set((idx, op))
            t0 = perf_counter()
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = perf_counter()
                _CURRENT.reset(token)
                amt = -1 if failed else (amount(args, out) if amount else 0)
                spans.append((idx, name, t0, t1, parent, op,
                              threading.get_ident(), amt))
            return out

        return shim

    def wrap_method(self, cls: type, attr: str, name: str, **kw: Any) -> None:
        """Wrap ``cls.attr`` (plain, static or class method) and every
        module-level alias of the same function inside ``repro``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            fn = raw.__func__
            shim = self._shim(fn, name, **kw)
            self._set(cls, attr, type(raw)(shim))
        else:
            fn = raw
            shim = self._shim(fn, name, **kw)
            self._set(cls, attr, shim)
        self._replace_aliases(fn, shim)

    def wrap_function(self, module: str, attr: str, name: str, **kw: Any) -> None:
        """Wrap a module-level function under every name ``repro`` binds it to."""
        fn = getattr(sys.modules[module], attr)
        self._replace_aliases(fn, self._shim(fn, name, **kw))

    def _replace_aliases(self, fn: Callable, shim: Callable) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("repro"):
                continue
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, key, shim)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        if isinstance(owner, type):
            old = owner.__dict__[attr]
        else:
            old = getattr(owner, attr)
        self._patches.append((owner, attr, old))
        setattr(owner, attr, value)

    def dump(self, root: str, tag: str) -> str:
        """Write the spans out as JSON lines under ``.perfbench_out/``."""
        d = os.path.join(root, ".perfbench_out")
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, f"{tag}.spans.jsonl")
        with open(path, "w") as f:
            for idx, name, t0, t1, parent, op, thread, amount in self.spans:
                f.write(json.dumps({
                    "id": idx, "name": name, "start": t0, "end": t1,
                    "parent": parent, "op": op, "thread": str(thread),
                    "amount": amount if isinstance(amount, int) else 0,
                }) + "\n")
        return path

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last patch first)."""
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)
        self.enabled = False


def _nbytes_out(args, out) -> int:
    return len(out)


def _nbytes_arg(pos: int) -> Callable:
    def amount(args, out) -> int:
        return len(args[pos])
    return amount


def _nbytes_many(args, out) -> int:
    return sum(len(b) for b in args[1])


def _qp_gate(args) -> bool:
    # the QP stage sits in every QP-capable pipeline; count it only where
    # its config makes it transform this level's indices
    self, ctx = args[0], args[1]
    return self.config.applies_to_level(ctx.level)


def _qp_points(args, out) -> int:
    q = args[2]
    if isinstance(q, (list, tuple)):
        return sum(int(x.size) for x in q)
    return int(q.size)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    from repro.codecs import huffman, lossless
    from repro.compressors import base
    from repro.core import autotune  # noqa: F401 - binds repro.core.autotune
    from repro.io.container import Archive, ContainerReader, ContainerWriter
    from repro.pipeline import driver, stages
    from repro.predictors import lorenzo, regression  # noqa: F401
    from repro.quantize.adaptive import AdaptiveLinearQuantizer
    from repro.quantize.linear import LinearQuantizer
    from repro.service import gateway, messages  # noqa: F401
    from repro.service.admission import AdmissionController

    W = tracer.wrap_method
    F = tracer.wrap_function

    W(base.Compressor, "compress", "compressors.compress")
    W(base.Compressor, "decompress", "compressors.decompress")
    W(base.Compressor, "decompress_many", "compressors.decompress")

    for attr in ("pass_prediction", "pass_prediction_stacked", "choose"):
        W(stages.InterpPredict, attr, "predictors")
    for cls in (stages.LorenzoPredict, stages.RegressionPredict):
        W(cls, "forward", "predictors")
        W(cls, "inverse", "predictors")
    for fn in ("lorenzo_encode", "lorenzo_decode"):
        F("repro.predictors.lorenzo", fn, "predictors")
    for fn in ("fit_plane", "plane_prediction"):
        F("repro.predictors.regression", fn, "predictors")

    for cls in (LinearQuantizer, AdaptiveLinearQuantizer):
        W(cls, "quantize", "quantize")
        W(cls, "dequantize", "quantize")

    W(stages.QPTransform, "forward", "qp.forward", gate=_qp_gate, amount=_qp_points)
    W(stages.QPTransform, "inverse", "qp.inverse", gate=_qp_gate, amount=_qp_points)
    W(stages.QPTransform, "inverse_multi", "qp.inverse", gate=_qp_gate,
      amount=_qp_points)

    F("repro.core.autotune", "autotune", "autotune")

    W(huffman.HuffmanCodec, "encode", "entropy.encode", amount=_nbytes_out)
    W(huffman.HuffmanCodec, "decode", "entropy.decode", amount=_nbytes_arg(1))
    W(huffman.HuffmanCodec, "decode_many", "entropy.decode", amount=_nbytes_many)
    F(lossless.__name__, "compress", "lossless.encode", amount=_nbytes_out)
    F(lossless.__name__, "decompress", "lossless.decode", amount=_nbytes_arg(0))

    F(driver.__name__, "encode_engine_sections", "pipeline.encode")
    F(driver.__name__, "decode_engine_blob", "pipeline.decode")
    F(driver.__name__, "engine_decode_item", "pipeline.decode")

    F("repro.streaming", "stream_compress", "streaming.compress",
      amount=lambda args, out: out)
    F("repro.streaming", "stream_decompress", "streaming.decompress")

    W(ContainerWriter, "append", "io.container.write", amount=_nbytes_arg(1))
    W(ContainerWriter, "finalize", "io.container.write")
    W(ContainerReader, "__init__", "io.container.read")
    W(ContainerReader, "segment", "io.container.read")
    W(Archive, "append", "io.archive.append", amount=_nbytes_arg(2))
    W(Archive, "read", "io.archive.read")

    F("repro.service.messages", "encode_message", "service.wire.encode")
    F("repro.service.messages", "decode_message", "service.wire.decode")
    W(AdmissionController, "admit", "service.admission")
    W(gateway.Gateway, "handle", "service.handle")
