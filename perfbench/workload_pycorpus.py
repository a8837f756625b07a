"""pycorpus: batch parse of the vendored CPython stdlib slice.

Every parseable file of ``examples/python/`` goes through the layout
pre-pass and a warm ``Language.session()`` on the default generated
backend, in whole corpus passes (file order drawn from the seed).  Almost
all time is the generated parser (``runtime``) plus ``layout``; compiling
happens in setup only, and the VM, incremental and serve layers stay idle.
An operation is one file: layout + parse.
"""

from __future__ import annotations

import ast
import random
import time
import tracemalloc
from dataclasses import dataclass
from typing import Iterator

import repro
from repro.errors import ParseError
from repro.workloads.pylayout import python_layout

import common
import inputs
from calibrate import Calibrator
import pipeline
import workload_grammar_dev
from tracing import NULL

OP_SPANS = ("file",)
#: 22 files x at least 5 passes = 110 samples, 11 beyond p90.
TAIL = 90
MIN_PASSES = 5
#: Recursion budget of a parse, as ``python -m repro.workloads.pycorpus`` uses.
DEPTH_BUDGET = 50_000
ROOT = "python.Python"


@dataclass
class State:
    language: object
    session: object
    files: list[tuple[str, str, int]]  # name, source, UTF-8 bytes
    references: dict
    passes: Iterator[list[tuple[str, str, int]]]
    seed: int


def schedule(seed: int, files: list) -> Iterator[list]:
    """The seeded file order of each corpus pass."""
    rng = random.Random(seed)
    while True:
        order = list(files)
        rng.shuffle(order)
        yield order


def inputs_digest(seed: int, units: int = MIN_PASSES) -> str:
    files = [(name, text, 0) for name, text in inputs.corpus_files()]
    passes = schedule(seed, files)
    return common.text_digest(repr([[(name, common.text_digest(text)) for name, text, _ in next(passes)]
                                    for _ in range(units)]))


def setup(seed: int, gate: common.Gate) -> State:
    language = repro.compile_grammar(ROOT)
    files = [(name, text, len(text.encode("utf-8"))) for name, text in inputs.corpus_files()]
    return State(
        language=language,
        session=language.session(depth_budget=DEPTH_BUDGET),
        files=files,
        references=common.load_references()["pycorpus"],
        passes=schedule(seed, files),
        seed=seed,
    )


def static_checks(state: State, gate: common.Gate) -> None:
    """Inputs match the references, and CPython accepts every file we time
    (allowlisted ``match`` files are not in the timed set)."""
    for name, text, _size in state.files:
        reference = state.references.get(name)
        laid = python_layout(text)
        gate.record(
            reference is not None and reference["text"] == common.text_digest(laid),
            f"pycorpus {name}: input differs from the one the references were made from",
        )
        try:
            ast.parse(text, filename=name)
            cpython = True
        except SyntaxError:
            cpython = False
        gate.record(cpython == (reference or {}).get("accept"), f"pycorpus {name}: CPython verdict {cpython} disagrees")


def measure(state: State, seconds: float, tracer, gate: common.Gate) -> common.Measurement:
    session = state.session
    now = time.perf_counter
    calibrator = Calibrator()
    latencies: list[float] = []
    starts: list[float] = []
    layout_times: list[float] = []
    traced: list[bool] = []
    parsed_bytes = 0
    passes = 0
    started = now()
    while passes < MIN_PASSES or now() - started < seconds:
        order = next(state.passes)
        on = tracer.enabled and passes % 2 == 1
        span = (tracer if on else NULL).span
        for name, text, size in order:
            error = None
            value = None
            calibrator.tick()
            t0 = now()
            with span("file", "bench", op=f"{passes}:{name}"):
                with span("python_layout", "layout"):
                    laid = python_layout(text)
                t1 = now()
                try:
                    with span("parse", "runtime"):
                        value = session.parse(laid, name)
                except ParseError as exc:
                    error = str(exc)
            t2 = now()
            latencies.append(t2 - t0)
            starts.append(t0)
            layout_times.append(t1 - t0)
            traced.append(on)
            parsed_bytes += size
            common.check_verdict(gate, state.references.get(name), value, error, f"pycorpus {name}")
        passes += 1
    calibrator.probe()
    peak = common.peak_rss_mb()
    static_checks(state, gate)
    busy = sum(latencies)
    scaled = [calibrator.scale(latency, start) for latency, start in zip(latencies, starts)]
    return common.Measurement(
        latencies=latencies,
        busy_s=busy,
        peak_rss_mb=peak,
        scaled=scaled,
        scaled_busy_s=sum(scaled),
        report={"parse_kbps": (parsed_bytes / 1e3 / sum(scaled), "KB/s"),
                "layout_share": (sum(layout_times) / busy, "ratio"),
                "calibration_unit_ms": (calibrator.median_unit_s * 1e3, "ms")},
        counts={"passes": passes, "files": len(latencies), "tail_samples": len(latencies)},
        detail={"layout": layout_times},
        traced=traced,
    )


def layers(state: State, tracer, traced: common.Measurement, gate: common.Gate) -> dict[str, float]:
    values = pipeline.breakdown([ROOT], tracer, gate)
    layout = traced.detail["layout"]
    parse = [total - lay for total, lay in zip(traced.latencies, layout)]
    values["layout_s"] = sum(layout) / len(layout)
    values["parse_s"] = sum(parse) / len(parse)
    values["layout_share"] = sum(layout) / traced.busy_s
    # Memo size after each document and the tracemalloc peak while parsing
    # it (the paper's heap column), in one extra untimed pass.
    entries = size = 0
    peaks = []
    session = state.session
    tracemalloc.start()
    try:
        for name, text, _size in state.files:
            laid = python_layout(text)
            tracemalloc.reset_peak()
            session.parse(laid, name)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1024.0)
            entries += session.parser.memo_entry_count()
            size += session.parser.memo_size_bytes()
    finally:
        tracemalloc.stop()
    values["memo.entries"] = entries
    values["memo.bytes"] = size
    values["heap_peak_kb"] = common.median(peaks)
    # grammar-dev is not a benchmark workload (too unsteady on a noisy
    # host), so its cache loop runs here, on this workload's grammar.
    values |= workload_grammar_dev.cache_exercise(state.seed, tracer, gate, ROOT)
    return values


def teardown(state: State) -> None:
    state.session.close()
