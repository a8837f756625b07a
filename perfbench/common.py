"""Shared pieces of the benchmark: statistics, AST digests, the correctness
gate, provenance and result emission.

Nothing here imports :mod:`repro` at module level, so ``run.py`` can take
its process-start timestamp and scrub the environment before the program
under test is imported.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"

#: Scratch space (temp grammar trees, cache directories, trace files).  It
#: lives inside the checkout so a run reads and writes nowhere else.
WORK_DIR = REPO_ROOT / ".perfbench"


# -- statistics --------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb(children: bool = False) -> float:
    """``ru_maxrss`` in MB (Linux reports KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- AST digests ---------------------------------------------------------------


def ast_digest(value: Any) -> str:
    """A sha256 over the structure of a parse result, ignoring locations.

    Mirrors :func:`repro.runtime.node.structurally_equal`: node names,
    child order and leaf values count; lists and tuples are the same
    container.  Iterative, because real-Python trees nest deeper than the
    recursion limit allows for a recursive walk.
    """
    from repro.runtime.node import GNode

    hasher = hashlib.sha256()
    update = hasher.update
    stack: list[Any] = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, GNode):
            update(b"N" + item.name.encode() + b"(%d" % len(item.children))
            stack.extend(reversed(item.children))
        elif isinstance(item, (list, tuple)):
            update(b"L(%d" % len(item))
            stack.extend(reversed(item))
        else:
            update(b"V" + type(item).__name__.encode() + b":" + repr(item).encode() + b";")
    return hasher.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_references() -> dict:
    """The checked-in reference verdicts (see ``make_references.py``)."""
    with REFERENCES.open() as handle:
        return json.load(handle)


class Gate:
    """The correctness gate: counts operations and the ones that failed.

    A failed check never raises; it is counted (and the first few are kept
    for the report) so one run shows every mismatch.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    @property
    def share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_verdict(gate: Gate, reference: dict | None, value: Any, error: str | None, what: str) -> None:
    """Compare one parse outcome with its reference entry.

    ``reference`` is ``{"accept": true, "ast": sha}`` or ``{"accept":
    false}``; ``error`` is the parse error (None when the parse accepted).
    """
    if reference is None:
        gate.record(False, f"{what}: no reference entry")
        return
    if reference["accept"]:
        if error is not None:
            gate.record(False, f"{what}: rejected, reference accepts ({error})")
            return
        digest = ast_digest(value)
        gate.record(digest == reference["ast"], f"{what}: AST digest {digest[:12]} != reference {reference['ast'][:12]}")
        return
    gate.record(error is not None, f"{what}: accepted, reference rejects")


@dataclass
class Measurement:
    """What one measuring phase of a workload saw."""

    #: Seconds per operation (file, edit, request, compile step).
    latencies: list[float]
    #: Seconds the operations took.
    busy_s: float
    peak_rss_mb: float
    #: ``latencies`` and ``busy_s`` at the reference host speed (see
    #: ``calibrate.py``): the end-to-end timings, ``ops_per_s`` too, come
    #: from these.
    scaled: list[float]
    scaled_busy_s: float
    #: The workload's own end-to-end figures: name -> (value, unit).
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Operation and sample counts for the provenance record.
    counts: dict[str, int] = field(default_factory=dict)
    #: Raw material the traced run derives per-layer metrics from.
    detail: dict[str, Any] = field(default_factory=dict)
    #: Per operation: was it traced?  A traced run alternates traced and
    #: untraced units of work, so the two halves see the same inputs.
    traced: list[bool] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.scaled_busy_s


# -- provenance ------------------------------------------------------------------


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git; a
    checkout that is not a repository reports ``"unknown"``."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            packed = git / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def provenance(seed: int, counts: dict[str, int]) -> dict[str, Any]:
    from repro.optim import Options
    from repro.optim.pipeline import PIPELINE_VERSION

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "commit": git_commit(),
        "pipeline_version": PIPELINE_VERSION,
        "options": Options.all().cache_key(),
        "counts": counts,
    }


# -- metrics and the result line ---------------------------------------------


def declared_metrics() -> dict[str, dict[str, dict]]:
    """``{"end_to_end": {name: spec}, "per_layer": {name: spec}}`` from
    ``BENCHMARK.json``."""
    with (REPO_ROOT / "BENCHMARK.json").open() as handle:
        spec = json.load(handle)
    return {
        section: {metric["name"]: metric for metric in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def metrics_block(values: dict[str, float], section: str) -> dict[str, dict]:
    """Shape ``values`` as the result line's ``metrics`` object.

    Every metric declared in ``section`` must be present and nothing else
    may be: a mismatch is a benchmark bug and raises.
    """
    declared = declared_metrics()[section]
    missing = sorted(set(declared) - set(values))
    extra = sorted(set(values) - set(declared))
    if missing or extra:
        raise KeyError(f"{section} metrics: missing {missing}, undeclared {extra}")
    return {
        name: {"value": float(values[name]), "unit": declared[name]["unit"]}
        for name in declared
    }


def format_table(rows: list[tuple[str, float, str]]) -> str:
    width = max(len(name) for name, _, _ in rows)
    return "\n".join(f"  {name:<{width}}  {value:>14.6g}  {unit}" for name, value, unit in rows)
