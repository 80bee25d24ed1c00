"""Per-layer metrics from the spans of a traced run.

``busy_s`` of a layer sums its outermost spans (a span of the same layer
further up the causal chain is already counted), ``calls`` counts them,
and ``self_s`` sums each span's duration minus the part its direct
children cover.
"""
from __future__ import annotations

from .common import hit_ratio, quantile
from .trace import AMOUNT, IDX, NAME, PARENT, T0, T1, THREAD

#: the layer each span name belongs to (nesting within a layer is not
#: double counted)
LAYER_OF = {
    "compressors.compress": "compressors",
    "compressors.decompress": "compressors",
    "predictors": "predictors",
    "quantize": "quantize",
    "qp.forward": "qp",
    "qp.inverse": "qp",
    "autotune": "autotune",
    "entropy.encode": "entropy",
    "entropy.decode": "entropy",
    "lossless.encode": "lossless",
    "lossless.decode": "lossless",
    "pipeline.encode": "pipeline",
    "pipeline.decode": "pipeline",
    "streaming.compress": "streaming",
    "streaming.decompress": "streaming",
    "io.container.write": "io.container",
    "io.container.read": "io.container",
    "io.archive.append": "io.archive",
    "io.archive.read": "io.archive",
    "service.wire.encode": "service.wire",
    "service.wire.decode": "service.wire",
    "service.admission": "service.admission",
    "service.handle": "service.handle",
    "parallel.worker": "parallel",
}

#: program span names (``repro.obs``) merged from the gateway's fork
#: workers, mapped onto the benchmark's names; entropy and lossless take
#: their direction from the enclosing compress/decompress span
OBS_NAMES = {
    "compress": "compressors.compress",
    "decompress": "compressors.decompress",
    "predict": "predictors",
    "quantize": "quantize",
    "autotune": "autotune",
    "service.batch.compress": "parallel.worker",
    "service.batch.decompress": "parallel.worker",
}


def from_obs(obs_spans, first_idx: int) -> list[tuple]:
    """Convert merged worker spans (``repro.obs`` Span objects) to span
    tuples.  Times stay on each worker's own clock, which is consistent
    inside one worker payload; only durations and nesting are used."""
    out: list[tuple] = []
    remap: dict[int, int] = {}
    direction: dict[int, str] = {}
    for s in obs_spans:
        if s.end is None:
            continue
        idx = first_idx + len(out)
        remap[s.index] = idx
        parent = remap.get(s.parent)
        d = direction.get(parent, "")
        name = OBS_NAMES.get(s.name)
        if s.name == "compress":
            d = "encode"
        elif s.name == "decompress":
            d = "decode"
        elif s.name in ("huffman", "lossless") and d:
            name = ("entropy." if s.name == "huffman" else "lossless.") + d
        direction[idx] = d
        if name is None:
            name = "obs." + s.name
        labels = s.labels or {}
        out.append((idx, name, s.start, s.end, parent, None, s.worker,
                    int(labels.get("jobs", 0))))
    return out


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class SpanIndex:
    """Spans keyed by index with parent/child links and layer ancestry."""

    def __init__(self, spans: list[tuple]) -> None:
        self.spans = sorted(spans, key=lambda s: s[IDX])
        self.by_idx = {s[IDX]: s for s in self.spans}
        self.children: dict[int, list[tuple]] = {}
        for s in self.spans:
            if s[PARENT] is not None:
                self.children.setdefault(s[PARENT], []).append(s)
        # layers of all ancestors, memoized per span (parents come first)
        self._anc: dict[int, frozenset] = {}
        for s in self.spans:
            p = self.by_idx.get(s[PARENT]) if s[PARENT] is not None else None
            if p is None:
                self._anc[s[IDX]] = frozenset()
            else:
                self._anc[s[IDX]] = self._anc.get(p[IDX], frozenset()) | {
                    LAYER_OF.get(p[NAME], p[NAME])
                }

    def named(self, *names: str) -> list[tuple]:
        return [s for s in self.spans if s[NAME] in names]

    def outermost(self, *names: str) -> list[tuple]:
        """Spans of ``names`` with no ancestor in the same layer."""
        out = []
        for s in self.named(*names):
            if LAYER_OF.get(s[NAME], s[NAME]) not in self._anc[s[IDX]]:
                out.append(s)
        return out

    def busy(self, *names: str) -> float:
        return sum(s[T1] - s[T0] for s in self.outermost(*names))

    def self_time(self, s: tuple) -> float:
        kids = [
            (max(c[T0], s[T0]), min(c[T1], s[T1]))
            for c in self.children.get(s[IDX], ())
        ]
        kids = [(a, b) for a, b in kids if b > a]
        return (s[T1] - s[T0]) - _union_length(kids)

    def self_sum(self, *names: str) -> float:
        return sum(self.self_time(s) for s in self.named(*names))

    def amount(self, *names: str) -> int:
        return sum(
            s[AMOUNT] for s in self.outermost(*names)
            if isinstance(s[AMOUNT], int) and s[AMOUNT] > 0
        )

    def top_level_union(self) -> float:
        """Wall time covered by at least one parentless span recorded in
        this process (worker spans merged from the gateway carry the
        worker's name in place of a thread id, and their own clock)."""
        return _union_length([
            (s[T0], s[T1]) for s in self.spans
            if s[PARENT] is None and isinstance(s[THREAD], int)
        ])


def codec_layer_metrics(ix: SpanIndex) -> dict[str, float]:
    """Metrics of the compressor, stage, entropy and pipeline layers."""
    comp_c = ix.busy("compressors.compress")
    comp_d = ix.busy("compressors.decompress")
    qp_inv = ix.busy("qp.inverse")
    return {
        "compressors.compress.busy_s": comp_c,
        "compressors.decompress.busy_s": comp_d,
        "compressors.calls": float(
            len(ix.outermost("compressors.compress", "compressors.decompress"))
        ),
        "compressors.self_s": ix.self_sum(
            "compressors.compress", "compressors.decompress"
        ),
        "predictors.busy_s": ix.busy("predictors"),
        "predictors.calls": float(len(ix.outermost("predictors"))),
        "quantize.busy_s": ix.busy("quantize"),
        "quantize.calls": float(len(ix.outermost("quantize"))),
        "qp.forward.busy_s": ix.busy("qp.forward"),
        "qp.inverse.busy_s": qp_inv,
        "qp.points": float(
            sum(s[AMOUNT] for s in ix.named("qp.forward", "qp.inverse")
                if s[AMOUNT] > 0)
        ),
        "qp.decompress_share": qp_inv / comp_d if comp_d > 0 else 0.0,
        "autotune.busy_s": ix.busy("autotune"),
        "autotune.calls": float(len(ix.outermost("autotune"))),
        "entropy.encode.busy_s": ix.busy("entropy.encode"),
        "entropy.decode.busy_s": ix.busy("entropy.decode"),
        "entropy.bytes": float(ix.amount("entropy.encode", "entropy.decode")),
        "lossless.encode.busy_s": ix.busy("lossless.encode"),
        "lossless.decode.busy_s": ix.busy("lossless.decode"),
        "lossless.bytes": float(ix.amount("lossless.encode", "lossless.decode")),
        "pipeline.encode.self_s": ix.self_sum("pipeline.encode"),
        "pipeline.decode.self_s": ix.self_sum("pipeline.decode"),
    }


def io_stream_metrics(ix: SpanIndex, sampler=None) -> dict[str, float]:
    """Streaming and container/archive I/O layer metrics; the RSS growth
    of a streamed compress needs the run's memory ``sampler``."""
    results = [
        s[AMOUNT] for s in ix.named("streaming.compress")
        if hasattr(s[AMOUNT], "backpressure_wait_s")
    ]
    hits = sum(r.buffer_reuse.get("hits", 0) for r in results)
    misses = sum(r.buffer_reuse.get("misses", 0) for r in results)
    growth = 0.0
    if sampler is not None:
        for s in ix.outermost("streaming.compress"):
            g = sampler.peak_between(s[T0], s[T1]) - sampler.at(s[T0])
            growth = max(growth, g / 1e6)
    return {
        "streaming.compress.busy_s": ix.busy("streaming.compress"),
        "streaming.decompress.busy_s": ix.busy("streaming.decompress"),
        "streaming.backpressure_wait_s": float(
            sum(r.backpressure_wait_s for r in results)
        ),
        "streaming.buffer_reuse.hit_ratio": hit_ratio(hits, misses),
        "streaming.compress.rss_growth_mb": growth,
        "io.container.write.busy_s": ix.busy("io.container.write"),
        "io.container.read.busy_s": ix.busy("io.container.read"),
        "io.bytes_written": float(
            ix.amount("io.container.write") + ix.amount("io.archive.append")
        ),
        "io.archive.append.busy_s": ix.busy("io.archive.append"),
        "io.archive.read.busy_s": ix.busy("io.archive.read"),
    }


def service_metrics(ix: SpanIndex, queue_depths=()) -> dict[str, float]:
    """Gateway layer metrics: wire, admission, workers and dispatch."""
    workers = ix.named("parallel.worker")
    worker_busy = sum(s[T1] - s[T0] for s in workers)
    jobs = [s[AMOUNT] for s in workers if s[AMOUNT] > 0]
    handles = ix.named("service.handle")
    covered = 0.0
    for h in handles:
        for c in ix.children.get(h[IDX], ()):
            covered += c[T1] - c[T0]  # wire decode/encode and admission
    # each job waits for its whole batch; streamed, archive and container
    # work done for a request runs on the gateway's own threads
    covered += sum((s[T1] - s[T0]) * max(1, s[AMOUNT]) for s in workers)
    covered += ix.busy("streaming.compress", "streaming.decompress")
    covered += ix.busy("io.archive.append", "io.archive.read")
    handle_total = sum(h[T1] - h[T0] for h in handles)
    admissions = ix.named("service.admission")
    return {
        "parallel.worker.busy_s": worker_busy,
        "service.wire.encode.busy_s": ix.busy("service.wire.encode"),
        "service.wire.decode.busy_s": ix.busy("service.wire.decode"),
        "service.admission.busy_s": ix.busy("service.admission"),
        "service.admission.rejected": float(
            sum(1 for s in admissions if s[AMOUNT] == -1)
        ),
        "service.queue.depth_p99": quantile(list(queue_depths), 0.99),
        "service.batch.jobs_per_batch": (
            sum(jobs) / len(jobs) if jobs else 0.0
        ),
        "service.dispatch_s": max(0.0, handle_total - covered),
    }
