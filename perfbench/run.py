"""The repository benchmark: one workload per process, seeded inputs, a
correctness gate, end-to-end metrics untraced and a per-layer breakdown
from a separate traced run.

Run from the repository root::

    python3 perfbench/run.py --workload pycorpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # every workload, each in a fresh process

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``).  The exit code is non-zero when the correctness gate fails.
See ``perfbench/README.md`` for what each workload and metric means.
"""

import time

#: Process start, as far as this program can see it: setup_s counts from here.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Isolation from ambient caches: no inherited on-disk compilation cache, and
# any default cache location resolves inside the checkout's scratch space.
# Only grammar-dev uses a cache, in its own directory.
os.environ.pop("REPRO_CACHE_DIR", None)
os.environ["XDG_CACHE_HOME"] = str(ROOT / ".perfbench" / "xdg-cache")
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import common  # noqa: E402
from calibrate import scale_just_ended  # noqa: E402
from tracing import NULL, OP_LAYERS, Tracer  # noqa: E402

WORKLOADS = ("pycorpus", "edit", "serve", "grammar-dev")

#: Set-ups per run for setup_s: this process plus fresh child processes.
SETUP_SAMPLES = 3


def _module(workload: str):
    import importlib

    return importlib.import_module("workload_" + workload.replace("-", "_"))


def setup_samples(args: argparse.Namespace, first: float) -> list[float]:
    """setup_s of this process plus ``SETUP_SAMPLES - 1`` fresh processes
    that only set up and tear down."""
    samples = [first]
    for index in range(SETUP_SAMPLES - 1):
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed + index + 1), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_workload(args: argparse.Namespace) -> int:
    module = _module(args.workload)
    gate = common.Gate()
    state = module.setup(args.seed, gate)
    setup_s = scale_just_ended(time.perf_counter() - T0, T0)
    if args.setup_only:
        module.teardown(state)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        tracer = Tracer()
        measurement = module.measure(state, args.seconds, tracer, gate)
        values = module.layers(state, tracer, measurement, gate)
        by_layer, total, ops = tracer.layer_self(module.OP_SPANS)
        for layer in OP_LAYERS:
            values[f"self.{layer}_ms"] = by_layer[layer] * 1e3 / ops
        values["trace.coverage"] = (total - by_layer["bench"]) / total
        pairs = list(zip(measurement.latencies, measurement.traced))
        values["trace.overhead"] = common.median([lat for lat, on in pairs if on]) / common.median(
            [lat for lat, on in pairs if not on]) - 1.0
        module.teardown(state)
        declared = common.declared_metrics()["per_layer"]
        values = {name: values.get(name, 0.0) for name in declared} | values
        section = "per_layer"
        trace_path = common.WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome(trace_path, {"workload": args.workload, "seed": args.seed})
        print(f"trace: {trace_path.relative_to(ROOT)} ({len(tracer.meta)} spans)")
    else:
        measurement = module.measure(state, args.seconds, NULL, gate)
        module.teardown(state)
        samples = setup_samples(args, setup_s)
        values = {
            "setup_s": common.median(samples),
            "ops_per_s": measurement.ops_per_s,
            "p50_ms": common.median(measurement.scaled) * 1e3,
            "tail_ms": common.percentile(measurement.scaled, module.TAIL) * 1e3,
            "peak_rss_mb": measurement.peak_rss_mb,
        }
        measurement.report["setup_s"] = (values["setup_s"], "s")
        measurement.counts["setup_samples"] = len(samples)
        section = "end_to_end"

    report = dict(measurement.report)
    report["fail_share"] = (gate.share, "ratio")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(common.format_table([(name, value, unit) for name, (value, unit) in report.items()]))
    if section == "per_layer":
        declared = common.declared_metrics()["per_layer"]
        print(common.format_table([(name, values[name], declared[name]["unit"]) for name in declared]))
    print("provenance: " + json.dumps(common.provenance(args.seed, measurement.counts), sort_keys=True))
    for problem in gate.problems:
        print(f"FAILED: {problem}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": common.metrics_block(values, section),
    }
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own fresh process."""
    results = {}
    status = 0
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        print(completed.stderr, end="", file=sys.stderr)
        if completed.returncode != 0:
            status = 1
        results[workload] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
