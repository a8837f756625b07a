"""Tests of the benchmark itself: seeded inputs, the correctness gate, and
the metric names a run prints.

Run from the repository root (takes a few minutes: the metric-name test
runs every workload once, traced)::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import common  # noqa: E402
import workload_edit  # noqa: E402
import workload_grammar_dev  # noqa: E402
import workload_pycorpus  # noqa: E402
import workload_serve  # noqa: E402
from tracing import NULL  # noqa: E402

MODULES = {
    "pycorpus": workload_pycorpus,
    "edit": workload_edit,
    "serve": workload_serve,
    "grammar-dev": workload_grammar_dev,
}


@pytest.mark.parametrize("workload", sorted(MODULES))
def test_seed_determines_inputs(workload):
    module = MODULES[workload]
    assert module.inputs_digest(7) == module.inputs_digest(7)
    assert module.inputs_digest(7) != module.inputs_digest(8)


def test_check_verdict_counts_mismatches():
    gate = common.Gate()
    common.check_verdict(gate, {"accept": True, "ast": common.ast_digest(("x",))}, ("x",), None, "same")
    common.check_verdict(gate, {"accept": True, "ast": "0" * 64}, ("x",), None, "digest")
    common.check_verdict(gate, {"accept": False}, ("x",), None, "verdict")
    common.check_verdict(gate, None, ("x",), None, "missing")
    assert (gate.attempted, gate.failed) == (4, 3)


def test_corrupted_reference_digest_is_counted():
    gate = common.Gate()
    state = workload_pycorpus.setup(1, gate)
    name = state.files[0][0]
    state.references = dict(state.references)
    state.references[name] = dict(state.references[name], ast="0" * 64)
    measurement = workload_pycorpus.measure(state, 0.0, NULL, gate)
    workload_pycorpus.teardown(state)
    passes = measurement.counts["passes"]
    assert gate.failed == passes
    assert gate.share == pytest.approx(passes / gate.attempted)
    assert all(name in problem for problem in gate.problems)


def _run(workload: str, trace: int) -> tuple[int, dict]:
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    return completed.returncode, json.loads(completed.stdout.strip().splitlines()[-1])


def test_every_printed_metric_is_declared():
    declared = common.declared_metrics()
    produced: set[str] = set()
    for workload in MODULES:
        status, result = _run(workload, 1)
        assert status == 0 and result["correct"], result
        assert set(result["metrics"]) == set(declared["per_layer"])
        produced |= {name for name, metric in result["metrics"].items() if metric["value"] != 0}
    # Every declared per-layer metric is measured by some workload; only
    # the serve layer's fault counters read zero on a healthy run.
    faults = {"serve.retries", "serve.recycles", "serve.respawns"} | {
        f"serve.outcome.{name}" for name in ("timeout", "rejected", "worker_lost", "error")
    }
    assert produced | faults == set(declared["per_layer"])
    status, result = _run("serve", 0)
    assert status == 0 and result["correct"], result
    assert set(result["metrics"]) == set(declared["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
