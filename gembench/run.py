"""Gem end-to-end and per-layer benchmark.

Usage, from the root of a repository checkout::

    python3 gembench/run.py --workload pipeline-sato --seed 13 --seconds 8 --trace 0

``--trace 0`` measures with no instrumentation and prints the end-to-end
metrics; ``--trace 1`` wraps each layer's public calls in spans and prints
the per-layer metrics (spans go to ``.gembench/traces/``). Every line but
the last is a human-readable report; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. End-to-end times
are divided by the run's host factor (``gembench/hostref.py``); the
measured ones are printed as ``# raw`` lines. Any failed
correctness check exits with status 1; a checkout without ``src/repro``
exits with status 2 before measuring anything.

Workloads, metric definitions and the layer → end-to-end metric map are in
``gembench/spec.json``.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before numpy is imported anywhere: one thread
# keeps timings free of pool start-up and oversubscription on small hosts.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"gembench: no package at {src / 'repro'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from harness import Run
    from workloads import OP_MIX

    workdir = ROOT / ".gembench"
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              workdir / f"run-{os.getpid()}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("# threads: " + " ".join(f"{v}=1" for v in THREAD_VARS))
    print("# write-ahead log: one per serving session under .gembench/run-<pid>/ "
          "inside the checkout, fsync before each acknowledged write batch (GemOpLog); "
          "not on tmpfs because the benchmark writes only inside its checkout")
    print("# serving: one closed-loop client, mix "
          + ", ".join(f"{k} {v:.0%}" for k, v in OP_MIX.items()))
    result = run.execute()

    for line in run.latency_report():
        print(line)
    metrics = result.per_layer if args.trace else result.end_to_end
    units = SPEC["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        for name, ratio in run.overhead_ratios().items():
            print(f"# tracing overhead {name}: {ratio:.4f}")
        trace_path = workdir / "traces" / f"{args.workload}-seed{args.seed}.json"
        run.tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                     "per_layer": metrics})
        print(f"# spans: {trace_path.relative_to(ROOT)}")
    print(f"# host factor {result.host_factor:.4f} (median of {len(run.host.readings)} "
          f"reference readings / nominal); gated times below are measured times / factor")
    for name, value in result.raw_end_to_end.items():
        print(f"# raw {name} {value:.6g}")
    for note in result.notes:
        print(f"# {note}")
    out = {}
    for name, meta in units.items():
        value = metrics[name]
        if not math.isfinite(value):
            result.checks[f"finite_{name}"] = False
            value = 0.0
        out[name] = {"value": value, "unit": meta["unit"]}
        print(f"{name} {value:.6g} {meta['unit']}")
    for name in metrics.keys() - units.keys():
        print(f"# {name} {metrics[name]:.6g} (reported, not gated; see spec.json)")
    for name, ok in sorted(result.checks.items()):
        print(f"# check {name}: {'ok' if ok else 'FAILED'}")
    correct = all(result.checks.values())
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
