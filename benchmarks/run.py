"""Benchmark of the ``chipfire`` command line on seeded workloads.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload sandpile|space|roundtrip \
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs every op once untraced and once traced and reports the per-layer
metrics. Every op's output is checked by an oracle in ``chipbench.oracles``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (sample counts,
per-seed input summary, machine) goes to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sandpile", "space", "roundtrip")
# one client thread: native thread pools are pinned before numpy is imported
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import ``chipfire`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "chipfire", "cli.py")):
        raise SystemExit(f"error: {SRC}/chipfire not found; run from a full checkout")
    sys.path.insert(0, SRC)
    import chipfire.cli  # noqa: F401

    found = os.path.dirname(os.path.abspath(sys.modules["chipfire"].__file__))
    if found != os.path.join(SRC, "chipfire"):
        raise SystemExit(f"error: imported chipfire from {found}, not from {SRC}")


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "thread_pins": THREAD_PINS,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_PINS)
    load_program()
    sys.path.insert(0, HERE)
    from chipbench import harness, tracer as tracing, workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(HERE, ".work", f"{tag}-{os.getpid()}")
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    try:
        blocks, warm_failure = harness.prepare(args.workload, args.seed, args.seconds, workdir)
        failures = [] if warm_failure is None else [("warm-up", blocks[0][0].argv, warm_failure)]
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine()}
        if args.trace:
            tracer = tracing.Tracer()
            traced, untraced, attempted, failed, used = harness.run_traced(
                blocks, args.seconds, tracer)
            failures += failed
            metrics = {name: (value, unit, attempted // 2) for name, (value, unit) in
                       tracing.per_layer_metrics(tracer, traced, untraced).items()}
            tracer.write_spans(os.path.join(results, f"spans-{tag}.jsonl.gz"))
        else:
            env = dict(os.environ, PYTHONPATH=SRC)
            harness.setup_once(ROOT, env)  # untimed: fills the bytecode cache
            samples, units, setup, failed, used = harness.run_untraced(
                blocks, args.seconds, lambda: harness.setup_once(ROOT, env))
            failures += failed
            attempted = len(samples)
            metrics = harness.end_to_end(samples, units, setup)
            raw = harness.end_to_end(samples, units, setup, scale=False)
            record["raw_wall_metrics"] = {n: {"value": v, "unit": u, "samples": c}
                                          for n, (v, u, c) in raw.items()}
        attempted += 1  # the warm-up op
        record["inputs"] = workloads.summary(blocks[:used])
        record["blocks_run"] = used
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit, count) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={count})")
    for name, entry in record.get("raw_wall_metrics", {}).items():
        print(f"{args.workload} raw wall {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload} failed_ratio = {len(failures) / attempted:.6g} ratio "
          f"(n={attempted})")
    inputs = record["inputs"]
    print(f"{args.workload} inputs: {inputs['ops']} distinct ops in {inputs['blocks']} blocks, "
          f"{inputs['units']} units, sizes {inputs['min_units']}..{inputs['max_units']}")
    for kind, op_argv, reason in failures[:20]:
        print(f"FAILED {kind} {' '.join(op_argv)}: {reason}", file=sys.stderr)

    record["metrics"] = {n: {"value": v, "unit": u, "samples": c} for n, (v, u, c) in metrics.items()}
    record["failed_ratio"] = len(failures) / attempted
    record["failures"] = [{"kind": k, "argv": list(a), "reason": r} for k, a, r in failures[:20]]
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
