"""serve: a closed loop against ``ParseService`` with two workers.

One client thread keeps two requests in flight (the host's two CPUs)
against ``ParseService`` serving jay, json and xc with ``workers=2``.  The
requests are drawn, in a seeded order, from a fixed pool of generated
documents (median ~650 chars; every 20th is cut short and must come back as
``parse_error``).  Parsing is well under half of a request's latency, so
the queue, the pipe to the worker and result pickling dominate — layers the
pycorpus workload never touches.  An operation is one request: from
``submit`` to its result.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from repro.serve import OK, OUTCOMES, PARSE_ERROR, ParseService

import common
import inputs
import pipeline
from calibrate import Calibrator

OP_SPANS = ("request",)
TAIL = 99
WORKERS = 2
IN_FLIGHT = 2
MIN_REQUESTS = 1000
#: Per-request budget; far above any pool document's parse time.
TIMEOUT_S = 30.0
ROOTS = ("jay.Jay", "json.Json", "xc.XC")


@dataclass
class State:
    service: ParseService
    pool: list[tuple[str, str]]
    references: list[dict]
    requests: Iterator[int]
    #: Peak RSS of this process once the service is ready; what the client
    #: later holds (every result, for the gate) is not the service's memory.
    ready_rss_mb: float = 0.0
    measurements: list[common.Measurement] = field(default_factory=list)


def schedule(seed: int, pool_size: int) -> Iterator[int]:
    """Pool indices to request: seeded shuffles of the whole pool."""
    rng = random.Random(seed)
    while True:
        block = list(range(pool_size))
        rng.shuffle(block)
        yield from block


def inputs_digest(seed: int, units: int = MIN_REQUESTS) -> str:
    pool = inputs.serve_pool()
    requests = schedule(seed, len(pool))
    return common.text_digest(repr([pool[next(requests)] for _ in range(units)]))


def setup(seed: int, gate: common.Gate) -> State:
    pool = inputs.serve_pool()
    references = common.load_references()["serve"]
    for index, (grammar, text) in enumerate(pool):
        reference = references[index] if index < len(references) else None
        gate.record(
            reference is not None and reference["text"] == common.text_digest(text)
            and reference["grammar"] == grammar,
            f"serve pool {index}: input differs from the one the references were made from",
        )
    service = ParseService(
        {key: key for key in inputs.SERVE_GRAMMARS}, workers=WORKERS, timeout=TIMEOUT_S
    )
    deadline = time.perf_counter() + 60.0
    while None in service.worker_pids():
        if time.perf_counter() > deadline:
            raise RuntimeError("parse service workers did not come up")
        time.sleep(0.005)
    # Ready means every worker has answered for every grammar.
    first: dict[str, int] = {}
    for index, (grammar, _text) in enumerate(pool):
        first.setdefault(grammar, index)
    warm = [index for index in first.values() for _ in range(WORKERS)]
    futures = [service.submit(pool[index][1], grammar=pool[index][0]) for index in warm]
    state = State(service=service, pool=pool, references=references, requests=schedule(seed, len(pool)))
    check_results(state, [(index, future.result()) for index, future in zip(warm, futures)], gate)
    state.ready_rss_mb = common.peak_rss_mb()
    return state


def check_results(state: State, results: list, gate: common.Gate) -> None:
    for index, result in results:
        reference = state.references[index]
        what = f"serve pool {index} ({result.grammar})"
        if result.outcome == OK:
            common.check_verdict(gate, reference, result.value, None, what)
        elif result.outcome == PARSE_ERROR:
            common.check_verdict(gate, reference, None, str(result.error), what)
        else:
            gate.record(False, f"{what}: outcome {result.outcome} ({result.detail})")


def measure(state: State, seconds: float, tracer, gate: common.Gate) -> common.Measurement:
    service = state.service
    pool = state.pool
    now = time.perf_counter
    calibrator = Calibrator()
    before = service.stats()
    results: list = []
    starts: list[float] = []
    inflight: deque = deque()
    #: (start, end) of the closed loop's stretches between calibration
    #: units; a unit runs only once the requests in flight are back, so no
    #: request waits for it.
    stretches: list[tuple[float, float]] = []

    def collect() -> None:
        index, submitted_at, future = inflight.popleft()
        results.append((index, future.result()))
        starts.append(submitted_at)

    started = stretch = now()
    submitted = 0
    while True:
        if calibrator.due():
            while inflight:
                collect()
            stretches.append((stretch, now()))
            calibrator.probe()
            stretch = now()
        while len(inflight) < IN_FLIGHT and (submitted < MIN_REQUESTS or now() - started < seconds):
            index = next(state.requests)
            grammar, text = pool[index]
            inflight.append((index, now(), service.submit(text, grammar=grammar, request_id=f"q{submitted}")))
            submitted += 1
        if not inflight:
            break
        collect()
    stretches.append((stretch, now()))
    calibrator.probe()
    elapsed = sum(end - start for start, end in stretches)
    scaled_elapsed = sum(calibrator.scale(end - start, start) for start, end in stretches)
    after = service.stats()
    check_results(state, results, gate)
    latencies = [result.latency_s for _index, result in results]
    scaled = [calibrator.scale(latency, start) for latency, start in zip(latencies, starts)]
    # Spans are recorded after the loop, from the service's own timings, for
    # every other request (which, two in flight, do not overlap); the client
    # loop itself does no tracing work.
    traced = [tracer.enabled and slot % 2 == 1 for slot in range(len(results))]
    for slot, ((index, result), start) in enumerate(zip(results, starts)):
        if not traced[slot]:
            continue
        span = tracer.add("request", "serve", start, start + result.latency_s,
                          op=result.id, grammar=result.grammar)
        if result.parse_s is not None:
            # The worker reports only how long it parsed: placed at the end
            # of its request.
            end = start + result.latency_s
            tracer.add("worker.parse", "runtime", end - result.parse_s, end, op=result.id,
                       parent=span)
    outcomes = {name: sum(1 for _i, r in results if r.outcome == name) for name in OUTCOMES}
    measurement = common.Measurement(
        latencies=latencies,
        busy_s=elapsed,
        peak_rss_mb=state.ready_rss_mb,
        scaled=scaled,
        scaled_busy_s=scaled_elapsed,
        report={
            "serve_rps": (len(results) / scaled_elapsed, "req/s"),
            "req_p50_ms": (common.median(scaled) * 1e3, "ms"),
            "req_p99_ms": (common.percentile(scaled, 99) * 1e3, "ms"),
            "calibration_unit_ms": (calibrator.median_unit_s * 1e3, "ms"),
        },
        counts={"requests": len(results), "tail_samples": len(results)},
        detail={
            "parse": [r.parse_s for _i, r in results if r.parse_s is not None],
            "overhead": [r.latency_s - r.parse_s for _i, r in results if r.parse_s is not None],
            "outcomes": outcomes,
            "retries": after.retries - before.retries,
            "recycles": after.recycles - before.recycles,
            "respawns": after.respawns - before.respawns,
        },
        traced=traced,
    )
    state.measurements.append(measurement)
    return measurement


def layers(state: State, tracer, traced: common.Measurement, gate: common.Gate) -> dict[str, float]:
    values = pipeline.breakdown(list(ROOTS), tracer, gate)
    detail = traced.detail
    values["serve.parse_ms"] = common.median(detail["parse"]) * 1e3
    values["serve.overhead_ms"] = common.median(detail["overhead"]) * 1e3
    for key in ("retries", "recycles", "respawns"):
        values[f"serve.{key}"] = detail[key]
    for name, count in detail["outcomes"].items():
        values[f"serve.outcome.{name}"] = count / traced.ops
    return values


def teardown(state: State) -> None:
    """Stop the service; peak RSS is the larger of this process when ready
    and the largest worker, which counts once the workers are reaped."""
    state.service.shutdown(wait=True)
    workers = common.peak_rss_mb(children=True)
    for measurement in state.measurements:
        measurement.peak_rss_mb = max(measurement.peak_rss_mb, workers)
