"""Rack benchmark: host-time throughput of three simulated pulse workloads.

Run from the repository root::

    python3 rackbench/run.py --workload tsv-rack --seed 1 --seconds 20 \\
        --trace 0

Workloads are ``tsv-rack``, ``batch-mix`` and ``kv-durable`` (see
``rigs.py``).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate cProfile-traced run.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
host fingerprint and every metric with its unit.

The simulator is imported from ``src/`` next to this directory; nothing
is installed and no source file is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

#: each of these silently swaps the execution tier being measured
TIER_OVERRIDES = ("PULSE_INTERP", "PULSE_BATCH", "PULSE_WORKERS")

#: library thread pools, pinned before numpy loads: thread fan-out that
#: varies with the host's core count would add run-to-run variance
THREAD_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

#: a seed kept out of tuning, for confirming a claimed gain
CONFIRM_SEED = 9001

#: printed beside the end-to-end metrics but not in the result line:
#: ``error_rate`` is carried there as ``failed / attempted`` (it reads 0
#: on a healthy rack, and a metric that reads 0 has no spread to bound);
#: raw ``req_per_s`` drifts with the host's speed, which
#: ``req_per_ref_s`` cancels
UNDECLARED_UNITS = {"error_rate": "ratio", "req_per_s": "1/s"}


def host_fingerprint() -> dict:
    import numpy
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "cpu_count": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    overrides = [name for name in TIER_OVERRIDES if name in os.environ]
    if overrides:
        print(f"refusing to run: {', '.join(overrides)} set; each swaps "
              "the execution tier being measured", file=sys.stderr)
        return 2
    for name in THREAD_POOL_VARS:
        os.environ[name] = "1"
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"simulator sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    declared = json.loads((root / "BENCHMARK.json").read_text())

    import repro
    from measure import measure_end_to_end, measure_layers, req_per_ref_s
    from rigs import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    print(f"workload {spec.name} seed {args.seed} "
          f"(confirm seed {CONFIRM_SEED}) requests/rep {spec.requests}")

    if args.trace:
        package_dir = str(Path(repro.__file__).resolve().parent)
        outcome = measure_layers(spec, args.seed, args.seconds, package_dir)
        section = declared["per_layer"]
    else:
        outcome = measure_end_to_end(spec, args.seed, args.seconds)
        section = declared["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        outcome.problems.append(f"declared metrics not measured: {missing}")
        outcome.correct = False
    for index, rep in enumerate(outcome.reps):
        kind = "traced" if rep.profile is not None else "untraced"
        print(f"rep {index} {kind}: setup {rep.setup_s:.4f} s, "
              f"drive {rep.drive_s:.4f} s, "
              f"{rep.requests / rep.drive_s:.2f} req/s, "
              f"reference {rep.reference_s * 1e3:.2f} ms, "
              f"{req_per_ref_s(rep):.2f} req/ref_s")
    for name in sorted(outcome.metrics):
        unit = units.get(name) or UNDECLARED_UNITS[name]
        print(f"  {name:42s} {outcome.metrics[name]:>16.6g} {unit}")
    for problem in outcome.problems:
        print(f"INCORRECT: {problem}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name],
                           "unit": units[name]}
                    for name in sorted(units) if name in outcome.metrics},
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
