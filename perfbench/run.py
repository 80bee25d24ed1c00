"""The repo benchmark: one command runs one workload by name and seed.

    python3 perfbench/run.py --workload codec-qp --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it imports ``repro`` from
``src/``).  Inputs are generated from ``--seed`` in a separate process and
cached under ``.perfbench_cache/``; the measured process then sets up the
program, measures for ``--seconds`` and checks every output with the
benchmark's own yardstick.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics from a traced run, each named with its
unit as ``BENCHMARK.json`` lists them.  The last line of
standard output is one JSON object; a fuller report (machine envelope,
sample counts, reconciliation) goes to ``.perfbench_out/``.  See
``perfbench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("codec-qp", "stream-large", "gateway-mixed")

def _generate_inputs(root: str, workload: str, seed: int) -> None:
    """Seeded fields, made (or found in the cache) by a separate process."""
    subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"),
         "--workload", workload, "--seed", str(seed), "--root", root],
        check=True, stdout=subprocess.DEVNULL, timeout=600,
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size: cropped fields, short schedule")
    ap.add_argument("--inject", choices=("flip", "nudge"), default=None,
                    help="self-test: damage one output per pass")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}/repro; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(HERE))

    _generate_inputs(root, args.workload, args.seed)

    import importlib

    from perfbench.common import envelope
    from perfbench.faults import Faults

    module = importlib.import_module(
        "perfbench." + args.workload.replace("-", "_")
    )
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    t0 = time.perf_counter()
    result = module.run(root, args.seed, args.seconds, bool(args.trace),
                        args.tiny, Faults(args.inject), tag)
    wall = time.perf_counter() - t0

    tally = result["tally"]
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    values = result["layers" if args.trace else "metrics"]
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec
    }
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    report = {
        "envelope": envelope(root, args.workload, args.seed, args.seconds,
                             bool(args.trace)),
        "wall_s": wall,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failure_reasons": tally.reasons,
        "metrics": metrics,
        "samples": result.get("samples", {}),
        "reconcile": result.get("reconcile"),
    }
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True, default=str)

    print(json.dumps({"envelope": report["envelope"]}, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0 and finite,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
