"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``compress``      compress a ``.npy`` array to a ``.rz`` blob
``decompress``    reconstruct the array from a blob
``info``          dump a blob's header (compressor, shape, parameters)
``evaluate``      one-shot CR/PSNR/speed report for a compressor on a dataset
``dataset``       generate a synthetic benchmark field to ``.npy``
``characterize``  quantization-index statistics (Section IV analysis)
``sweep``         rate-distortion sweep across error bounds
``faults``        seeded fault injection / corruption-matrix sweep on a blob
``stats``         per-stage span/metric report for one observed
                  compress → transfer → decompress run (repro.obs)
``serve``         run the compression gateway over TCP (repro.service):
                  async multi-tenant front end with batching, admission
                  control, streamed oversized inputs, archive persistence
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _add_qp_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--qp", action="store_true", help="enable quantization index prediction")
    p.add_argument("--qp-dimension", default="2d",
                   choices=["1d-back", "1d-top", "1d-left", "2d", "3d"])
    p.add_argument("--qp-condition", default="III", choices=["I", "II", "III", "IV"])
    p.add_argument("--qp-max-level", type=int, default=2)


def _qp_from_args(args) -> "object":
    from .core.config import QPConfig

    if not getattr(args, "qp", False):
        return QPConfig.disabled()
    return QPConfig(
        dimension=args.qp_dimension,
        condition=args.qp_condition,
        max_level=args.qp_max_level,
    )


def _add_adaptive_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--auto", action="store_true",
                   help="sampling auto-tuner: pick interp/axis-order/"
                        "per-level-eb/adaptive-bits/QP on strided blocks")
    p.add_argument("--adaptive-bits", type=int, default=0,
                   help="tighten the bound by 2^BITS at hard-to-predict "
                        "points (0 = off; in-band reserved-index signalling)")
    p.add_argument("--adaptive-threshold", type=int, default=4,
                   help="coarse-index magnitude that marks a point as hard")


def _adaptive_from_args(args) -> "object | None":
    from .core.config import AdaptiveConfig

    bits = getattr(args, "adaptive_bits", 0)
    if not bits:
        return None
    return AdaptiveConfig(bits=bits, threshold=args.adaptive_threshold)


def _make_compressor(args, data: np.ndarray):
    from .compressors import base_compressor

    eb = args.eb
    if args.rel:
        eb = eb * float(data.max() - data.min())
    try:
        return base_compressor(
            args.compressor, eb,
            qp=_qp_from_args(args), adaptive=_adaptive_from_args(args),
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    from .compressors import COMPRESSORS
    from .datasets import DATASETS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Error-bounded lossy compression with adaptive "
                    "quantization index prediction (IPDPS 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a .npy array")
    p.add_argument("input", help="input .npy file")
    p.add_argument("output", help="output blob file")
    p.add_argument("--compressor", "-c", default="sz3", choices=COMPRESSORS)
    p.add_argument("--eb", type=float, required=True, help="absolute error bound")
    p.add_argument("--rel", action="store_true",
                   help="interpret --eb relative to the value range")
    p.add_argument("--checksum", action="store_true",
                   help="seal the blob in the v1 integrity envelope (CRC32)")
    p.add_argument("--stream", action="store_true",
                   help="streaming out-of-core mode: memory-map the input, "
                        "walk it in bounded slabs, and flush per-slab "
                        "segments to the output incrementally (peak memory "
                        "O(slab), not O(volume))")
    p.add_argument("--slab-mb", type=float, default=None,
                   help="streaming slab budget in MiB (default ~12)")
    _add_qp_args(p)
    _add_adaptive_args(p)

    p = sub.add_parser("decompress", help="decompress a blob to .npy")
    p.add_argument("input", help="input blob file")
    p.add_argument("output", help="output .npy file")

    p = sub.add_parser("info", help="dump a blob header")
    p.add_argument("input", help="blob file")

    p = sub.add_parser("evaluate", help="evaluate a compressor on a dataset")
    p.add_argument("--dataset", "-d", required=True, choices=tuple(DATASETS))
    p.add_argument("--field", "-f", default=None)
    p.add_argument("--compressor", "-c", default="sz3", choices=COMPRESSORS)
    p.add_argument("--eb", type=float, required=True)
    p.add_argument("--rel", action="store_true")
    _add_qp_args(p)
    _add_adaptive_args(p)

    p = sub.add_parser("dataset", help="generate a synthetic benchmark field")
    p.add_argument("name", choices=tuple(DATASETS))
    p.add_argument("field", nargs="?", default=None)
    p.add_argument("--output", "-o", required=True, help="output .npy file")
    p.add_argument("--shape", default=None, help="comma-separated dims")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("characterize", help="quantization-index statistics")
    p.add_argument("--dataset", "-d", required=True, choices=tuple(DATASETS))
    p.add_argument("--field", "-f", default=None)
    p.add_argument("--compressor", "-c", default="sz3",
                   choices=("mgard", "sz3", "qoz", "hpez"))
    p.add_argument("--eb", type=float, required=True)
    p.add_argument("--rel", action="store_true")

    p = sub.add_parser("archive", help="compress a whole dataset into one archive")
    p.add_argument("name", choices=tuple(DATASETS))
    p.add_argument("--output", "-o", required=True, help="output .rarc archive")
    p.add_argument("--compressor", "-c", default="sz3", choices=COMPRESSORS)
    p.add_argument("--eb", type=float, required=True)
    p.add_argument("--rel", action="store_true")
    p.add_argument("--shape", default=None, help="comma-separated dims override")
    p.add_argument("--checksum", action="store_true",
                   help="seal each blob in the v1 integrity envelope (CRC32)")
    _add_qp_args(p)

    p = sub.add_parser("extract", help="extract one field from an archive")
    p.add_argument("archive", help=".rarc archive file")
    p.add_argument("field", help="field name (or 'list' to list entries)")
    p.add_argument("--output", "-o", default=None, help="output .npy file")

    p = sub.add_parser("sweep", help="rate-distortion sweep")
    p.add_argument("--dataset", "-d", required=True, choices=tuple(DATASETS))
    p.add_argument("--field", "-f", default=None)
    p.add_argument("--compressors", "-c", default="sz3",
                   help="comma-separated compressor names")
    p.add_argument("--bounds", default="1e-2,1e-3,1e-4",
                   help="comma-separated relative error bounds")
    p.add_argument("--qp", action="store_true",
                   help="also evaluate each compressor with QP")

    p = sub.add_parser(
        "faults", help="seeded fault injection on a blob (inject or matrix)"
    )
    p.add_argument("input", help="blob file to corrupt")
    p.add_argument("--injector", default=None, choices=("flip", "truncate",
                   "splice", "tamper"),
                   help="apply one injector and write the result (needs -o); "
                        "omit to run the full corruption matrix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=3,
                   help="seeds per injector in matrix mode")
    p.add_argument("--output", "-o", default=None,
                   help="output file for single-injector mode")
    p.add_argument("--deadline", type=float, default=10.0,
                   help="per-decode deadline (seconds) in matrix mode")

    p = sub.add_parser(
        "stats",
        help="observability report for a compress -> transfer -> decompress run",
    )
    p.add_argument("--dataset", "-d", default="miranda", choices=tuple(DATASETS))
    p.add_argument("--field", "-f", default=None)
    p.add_argument("--shape", default="32,48,48", help="comma-separated dims")
    p.add_argument("--compressor", "-c", default="sz3", choices=COMPRESSORS)
    p.add_argument("--eb", type=float, default=1e-3, help="error bound")
    p.add_argument("--rel", action="store_true", default=True,
                   help="interpret --eb relative to the value range (default)")
    p.add_argument("--abs", dest="rel", action="store_false",
                   help="interpret --eb as an absolute bound")
    p.add_argument("--slices", type=int, default=4,
                   help="transfer slices (split along axis 0)")
    p.add_argument("--fail-prob", type=float, default=0.0,
                   help="per-attempt drop probability of the demo channel")
    p.add_argument("--corrupt-prob", type=float, default=0.0,
                   help="per-attempt corruption probability of the demo channel")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jsonl", default=None,
                   help="also export the observation as JSON-lines to this path")
    _add_qp_args(p)
    p.add_argument("--no-qp", dest="qp", action="store_false",
                   help="disable quantization index prediction")
    p.set_defaults(qp=True)

    p = sub.add_parser(
        "serve", help="run the compression gateway over TCP (blocking)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9753)
    p.add_argument("--workers", type=int, default=2,
                   help="fork-pool worker processes for batched jobs")
    p.add_argument("--queue-depth", type=int, default=256,
                   help="bounded dispatch queue (global backpressure)")
    p.add_argument("--rate", type=float, default=None,
                   help="default per-tenant sustained requests/second "
                        "(unlimited when omitted)")
    p.add_argument("--burst", type=int, default=64,
                   help="default per-tenant token-bucket burst")
    p.add_argument("--max-inflight", type=int, default=32,
                   help="default per-tenant inflight request quota")
    p.add_argument("--stream-threshold-mb", type=float, default=32.0,
                   help="inputs at or above this size take the streamed "
                        "RSTR route instead of the fork pool")
    p.add_argument("--archive", default=None,
                   help="crash-safe RAR1 archive path backing "
                        "archive-put/archive-get requests")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


# -- command implementations ---------------------------------------------------


def _cmd_compress(args) -> int:
    if getattr(args, "stream", False):
        return _cmd_compress_stream(args)
    data = np.load(args.input)
    comp = _make_compressor(args, data)
    blob = comp.compress(
        data,
        checksum=getattr(args, "checksum", False),
        auto=getattr(args, "auto", False),
    )
    with open(args.output, "wb") as f:
        f.write(blob)
    print(f"{args.input}: {data.nbytes} -> {len(blob)} bytes "
          f"(CR {data.nbytes / len(blob):.2f}) with {comp.name}"
          f"{'+QP' if getattr(args, 'qp', False) else ''}")
    if comp.last_tuning is not None:
        print(f"auto-tuned: {json.dumps(comp.last_tuning.to_dict())}")
    return 0


def _cmd_compress_stream(args) -> int:
    if getattr(args, "auto", False):
        raise SystemExit("--auto samples the full volume; not available "
                         "with --stream")
    # memory-map the source: slabs page in as the pipeline reaches them,
    # so a volume much larger than RAM still compresses
    data = np.load(args.input, mmap_mode="r")
    comp = _make_compressor(args, data)
    slab_mb = getattr(args, "slab_mb", None)
    slab_bytes = int(slab_mb * (1 << 20)) if slab_mb else None
    with open(args.output, "wb") as f:
        res = comp.compress_stream(
            data, f,
            slab_bytes=slab_bytes,
            checksum=getattr(args, "checksum", False),
        )
    print(f"{args.input}: {res.input_bytes} -> {res.total_bytes} bytes "
          f"(CR {res.ratio:.2f}) with {comp.name}"
          f"{'+QP' if getattr(args, 'qp', False) else ''} "
          f"[streamed: {res.segments} slabs]")
    return 0


def _cmd_decompress(args) -> int:
    from .compressors import decompress_any
    from .io.container import is_streamed_container

    with open(args.input, "rb") as f:
        head = f.read(4)
    if is_streamed_container(head):
        from .streaming import stream_decompress

        out = stream_decompress(args.input)
    else:
        with open(args.input, "rb") as f:
            blob = f.read()
        out = decompress_any(blob)
    np.save(args.output, out)
    print(f"{args.input} -> {args.output}: {out.shape} {out.dtype}")
    return 0


def _cmd_info(args) -> int:
    from .compressors.base import Blob
    from .io import integrity

    with open(args.input, "rb") as f:
        raw = f.read()
    blob = Blob.from_bytes(raw)
    header = dict(blob.header)
    header["section_sizes"] = {k: len(v) for k, v in blob.sections.items()}
    header["envelope"] = integrity.envelope_info(raw)
    print(json.dumps(header, indent=2, default=str))
    return 0


def _cmd_evaluate(args) -> int:
    from .analysis import print_table
    from .datasets import generate
    from .metrics import evaluate

    data = generate(args.dataset, args.field)
    comp = _make_compressor(args, data)
    label = comp.name + ("+QP" if getattr(args, "qp", False) else "")
    if getattr(args, "auto", False):
        comp = comp._tuned_for(data)
        label += "+auto"
    res = evaluate(comp, data, label=label)
    print_table([res.row()], f"{args.dataset}/{args.field or 'default'}")
    return 0


def _cmd_dataset(args) -> int:
    from .datasets import generate

    shape = tuple(int(x) for x in args.shape.split(",")) if args.shape else None
    data = generate(args.name, args.field, shape=shape, seed=args.seed)
    np.save(args.output, data)
    print(f"{args.name}/{args.field or 'default'} -> {args.output}: "
          f"{data.shape} {data.dtype}")
    return 0


def _cmd_characterize(args) -> int:
    from .analysis import print_table
    from .compressors import CompressionState, get_compressor
    from .core import QPConfig, clustering_stats, shannon_entropy
    from .datasets import generate

    data = generate(args.dataset, args.field)
    eb = args.eb * (float(data.max() - data.min()) if args.rel else 1.0)
    st = CompressionState()
    kwargs = {"predictor": "interp"} if args.compressor == "sz3" else {}
    get_compressor(args.compressor, eb, qp=QPConfig(), **kwargs).compress(
        data, state=st
    )
    cs = clustering_stats(st.index_volume)
    print_table(
        [{
            "H(Q)": round(shannon_entropy(st.index_volume), 3),
            "H(Q') after QP": round(
                shannon_entropy(st.extras["index_volume_qp"]), 3
            ),
            "nonzero frac": round(cs.nonzero_fraction, 3),
            "same-sign nbrs": round(cs.same_sign_neighbour, 3),
            "equal nbrs": round(cs.neighbour_equal, 3),
        }],
        f"index statistics: {args.compressor} on {args.dataset}",
    )
    return 0


def _cmd_sweep(args) -> int:
    from .analysis import print_table, qp_comparison, rd_sweep
    from .compressors import supports_qp
    from .datasets import generate

    data = generate(args.dataset, args.field)
    bounds = tuple(float(x) for x in args.bounds.split(","))
    rows = []
    for name in args.compressors.split(","):
        name = name.strip()
        if args.qp and supports_qp(name):
            kwargs = {"predictor": "interp"} if name == "sz3" else {}
            for p in qp_comparison(name, data, rel_bounds=bounds, **kwargs):
                rows.append({
                    "compressor": name,
                    "rel eb": p.rel_bound,
                    "PSNR": round(p.base.psnr, 2),
                    "CR": round(p.base.cr, 2),
                    "CR +QP": round(p.qp.cr, 2),
                    "gain %": round(100 * p.cr_gain, 1),
                })
        else:
            for r in rd_sweep(name, data, rel_bounds=bounds):
                rows.append(r.row())
    print_table(rows, f"sweep: {args.dataset}")
    return 0


def _cmd_archive(args) -> int:
    from .datasets import generate_all
    from .io import Archive

    shape = tuple(int(x) for x in args.shape.split(",")) if args.shape else None
    fields = generate_all(args.name, shape=shape)
    arch = Archive.create(args.output)
    raw = comp_total = 0
    blobs = {}
    for fname, data in fields.items():
        comp = _make_compressor(args, data)
        blob = comp.compress(data, checksum=getattr(args, "checksum", False))
        blobs[fname] = blob
        raw += data.nbytes
        comp_total += len(blob)
    arch.append_many(blobs)
    print(f"{args.name}: {len(fields)} fields, {raw} -> {arch.total_bytes()} bytes "
          f"(CR {raw / comp_total:.2f})")
    return 0


def _cmd_extract(args) -> int:
    from .compressors import decompress_any
    from .io import Archive

    arch = Archive(args.archive)
    if args.field == "list":
        for name, size in arch.sizes().items():
            print(f"{name}\t{size}")
        return 0
    out = decompress_any(arch.read(args.field))
    target = args.output or f"{args.field}.npy"
    np.save(target, out)
    print(f"{args.field} -> {target}: {out.shape} {out.dtype}")
    return 0


def _cmd_faults(args) -> int:
    from .compressors import decompress_any
    from .testing import inject, run_corruption_matrix

    with open(args.input, "rb") as f:
        blob = f.read()
    if args.injector:
        corrupted = inject(blob, args.injector, seed=args.seed)
        if not args.output:
            print("--injector requires --output", file=sys.stderr)
            return 2
        with open(args.output, "wb") as f:
            f.write(corrupted)
        print(f"{args.input}: {args.injector}(seed={args.seed}) -> "
              f"{args.output} ({len(blob)} -> {len(corrupted)} bytes)")
        return 0
    results = run_corruption_matrix(
        blob, decompress_any, seeds=range(args.seeds), deadline_s=args.deadline
    )
    for r in results:
        print(f"{r.injector:<10} seed={r.seed}  {r.outcome:<10} "
              f"{r.elapsed_s * 1e3:8.2f} ms  {r.detail}")
    bad = [r for r in results if not r.ok]
    print(f"{len(results) - len(bad)}/{len(results)} cells ok "
          f"(typed error or unchanged bytes)")
    return 1 if bad else 0


def _cmd_stats(args) -> int:
    from . import obs
    from .compressors import decompress_any
    from .datasets import generate
    from .obs.export import JsonlExporter, render_report
    from .transfer.pipeline import transfer_slices

    shape = tuple(int(x) for x in args.shape.split(",")) if args.shape else None
    data = generate(args.dataset, args.field, shape=shape, seed=args.seed)
    comp = _make_compressor(args, data)

    n = max(1, min(args.slices, data.shape[0]))
    edges = np.linspace(0, data.shape[0], n + 1).astype(int)
    if args.fail_prob > 0 or args.corrupt_prob > 0:
        from .testing.faults import FlakyLink

        channel = FlakyLink(fail_prob=args.fail_prob,
                            corrupt_prob=args.corrupt_prob, seed=args.seed)
    else:
        def channel(name: str, payload: bytes) -> bytes:
            return payload

    ob = obs.Observation()
    with obs.observe(ob):
        blobs = {
            f"slice{i:03d}": comp.compress(
                np.ascontiguousarray(data[a:b]), checksum=True
            )
            for i, (a, b) in enumerate(zip(edges[:-1], edges[1:]))
            if b > a
        }
        received: dict[str, bytes] = {}
        report = transfer_slices(blobs, channel, received=received,
                                 sleep=lambda s: None)
        for name in sorted(received):
            decompress_any(received[name])

    qp_tag = "+qp" if getattr(args, "qp", False) else ""
    print(render_report(
        ob, title=f"{args.compressor}{qp_tag} {args.dataset} "
                  f"compress -> transfer -> decompress"
    ))
    s = report.summary()
    print(f"transfer: {s['delivered']}/{s['slices']} slices delivered "
          f"({s['degraded']} degraded, {s['quarantined']} quarantined, "
          f"{s['attempts']} attempts, {s['verified_bytes']} bytes verified)")
    snap = ob.metrics.snapshot()
    hits = int(snap.get("huffman.table_cache{result=hit}", {}).get("value", 0))
    misses = int(snap.get("huffman.table_cache{result=miss}", {}).get("value", 0))
    if hits or misses:
        from .codecs.huffman import decode_table_cache_info

        info = decode_table_cache_info()
        print(f"huffman decode-table cache: {hits} hits / {misses} misses "
              f"this run (process totals: {info['hits']}/{info['misses']}, "
              f"{info['evictions']} evicted, {info['size']}/"
              f"{info['max_entries']} tables resident)")
    if args.jsonl:
        records = JsonlExporter(args.jsonl).export(
            ob, command="stats", dataset=args.dataset,
            compressor=args.compressor,
        )
        print(f"wrote {records} JSONL records to {args.jsonl}")
    return 0


def _cmd_serve(args) -> int:
    from .service import GatewayConfig, TenantPolicy, serve

    policy = TenantPolicy(
        rate=args.rate if args.rate else float("inf"),
        burst=args.burst,
        max_inflight=args.max_inflight,
    )
    config = GatewayConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        stream_threshold_bytes=int(args.stream_threshold_mb * (1 << 20)),
        archive_path=args.archive,
        default_policy=policy,
    )
    serve(args.host, args.port, config=config)
    return 0


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "info": _cmd_info,
    "evaluate": _cmd_evaluate,
    "dataset": _cmd_dataset,
    "characterize": _cmd_characterize,
    "sweep": _cmd_sweep,
    "archive": _cmd_archive,
    "extract": _cmd_extract,
    "faults": _cmd_faults,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
}


if __name__ == "__main__":
    sys.exit(main())
