"""grammar-dev: the paper's extensibility loop — edit a grammar module,
rebuild the language, try it on its examples.

The eleven E2 extension roots, their four bases and ``python.Python`` are
compiled from a copy of the grammar tree with a fresh on-disk
``CompilationCache``.  Each cycle visits every root once, in a seeded
order, with three compile steps in a seeded order (rebuild first):

- *rebuild*: append a comment to one of the root's modules (seeded choice)
  and recompile — the in-process LRU and the disk entry are both stale, so
  this composes, optimizes, generates, loads and stores;
- *reload*: ``clear_language_cache()`` and recompile — a disk hit, standing
  in for a new process;
- *LRU hit*: recompile unchanged.

After each compile the language parses its ``examples/`` inputs (for
``python.Python`` one seeded corpus file).  ``meta``, ``optim``, ``codegen``
and ``cache`` do nearly all the work.  An operation is one compile step;
with equal numbers of each kind, the median step is the median reload and
p85 lies among the rebuilds.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass
from typing import Iterator

from repro import CompilationCache, clear_language_cache, compile_grammar
from repro.errors import ParseError
from repro.workloads.pylayout import python_layout

import common
import inputs
import pipeline
from calibrate import Calibrator
from tracing import NULL

OP_SPANS = ("step",)
#: 16 roots x 3 steps x at least 2 cycles = 96 steps, 14 beyond p85.
TAIL = 85
MIN_CYCLES = 2


class TracedCache(CompilationCache):
    """The on-disk cache with a span around each lookup and store."""

    tracer = NULL

    def lookup(self, *args, **kwargs):
        with self.tracer.span("cache.lookup", "cache"):
            return super().lookup(*args, **kwargs)

    def store(self, *args, **kwargs):
        with self.tracer.span("cache.store", "cache"):
            return super().store(*args, **kwargs)


@dataclass
class State:
    roots: tuple[tuple[str, tuple[str, ...], str], ...]
    directory: str
    tree: str
    cache: TracedCache
    sources: dict[str, str]
    examples: dict[str, list[tuple[str, str]]]
    references: dict[str, dict]
    cycles: Iterator[list[tuple[str, str, str | None, int | None]]]
    edits: int = 0


def schedule(seed: int, python_examples: int, roots=inputs.GD_ROOTS) -> Iterator[list[tuple[str, str, str | None, int | None]]]:
    """Each cycle's steps: ``(root, kind, module to edit, python example)``."""
    rng = random.Random(seed)
    while True:
        order = list(roots)
        rng.shuffle(order)
        steps = []
        for root, modules, folder in order:
            kinds = ["rebuild"] + rng.choice((["reload", "lru"], ["lru", "reload"]))
            for kind in kinds:
                module = rng.choice(modules) if kind == "rebuild" else None
                pick = rng.randrange(python_examples) if folder == "python" else None
                steps.append((root, kind, module, pick))
        yield steps


def cache_exercise(seed: int, tracer, gate: common.Gate, root: str) -> dict[str, float]:
    """Per-layer cache metrics for a workload that otherwise leaves the
    cache idle: this workload's loop, reduced to ``root``, for
    ``MIN_CYCLES`` cycles in a private tree and cache."""
    state = setup(seed, gate, roots=tuple(entry for entry in inputs.GD_ROOTS if entry[0] == root))
    try:
        return cache_values(tracer, measure(state, 0.0, tracer, gate))
    finally:
        teardown(state)


def inputs_digest(seed: int, units: int = MIN_CYCLES) -> str:
    cycles = schedule(seed, len(inputs.corpus_files()))
    return common.text_digest(repr([next(cycles) for _ in range(units)]))


def setup(seed: int, gate: common.Gate, roots=inputs.GD_ROOTS) -> State:
    directory = common.WORK_DIR / f"grammar-dev-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    tree = directory / "grammars"
    shutil.copytree(inputs.grammar_tree(), tree, ignore=shutil.ignore_patterns("*.py", "__pycache__"))
    cache = TracedCache(directory / "cache")
    sources = {
        root: compile_grammar(root, paths=[str(tree)], cache=cache).parser_source for root, _m, _f in roots
    }
    references = common.load_references()
    python = {name: python_layout(text) for name, text in inputs.corpus_files()}
    examples = {}
    for root, _modules, folder in roots:
        examples[root] = list(python.items()) if folder == "python" else inputs.gd_examples(folder)
    refs = {root: references["grammar_dev"].get(root, references["pycorpus"]) for root, _m, _f in roots}
    return State(
        roots=roots, directory=str(directory), tree=str(tree), cache=cache, sources=sources,
        examples=examples, references=refs, cycles=schedule(seed, len(python), roots),
    )


def _touch(state: State, module: str) -> None:
    """A developer's edit that changes no syntax: append a comment."""
    path = os.path.join(state.tree, *module.split(".")) + ".mg"
    state.edits += 1
    with open(path, "a") as handle:
        handle.write(f"\n// edit {state.edits}\n")


def measure(state: State, seconds: float, tracer, gate: common.Gate) -> common.Measurement:
    cache = state.cache
    stats = cache.stats
    now = time.perf_counter
    paths = [state.tree]
    calibrator = Calibrator()
    latencies: list[float] = []
    starts: list[float] = []
    traced: list[bool] = []
    kinds: list[str] = []
    before = stats.as_dict()
    cycles = 0
    started = now()
    while cycles < MIN_CYCLES or now() - started < seconds:
        on = tracer.enabled and cycles % 2 == 1
        cache.tracer = tracer if on else NULL
        span = cache.tracer.span
        for root, kind, module, pick in next(state.cycles):
            if kind == "rebuild":
                _touch(state, module)
            elif kind == "reload":
                clear_language_cache()
            counts = (stats.hits, stats.misses, stats.stores)
            op = f"{cycles}:{root}:{kind}"
            calibrator.tick()
            t0 = now()
            with span("step", "bench", op=op):
                with span("compile_grammar", "compile" if kind == "rebuild" else "cache", kind=kind):
                    language = compile_grammar(root, paths=paths, cache=cache)
            latency = now() - t0
            latencies.append(latency)
            starts.append(t0)
            traced.append(on)
            kinds.append(kind)
            expected = {"rebuild": (0, 1, 1), "reload": (1, 0, 0), "lru": (0, 0, 0)}[kind]
            seen = (stats.hits - counts[0], stats.misses - counts[1], stats.stores - counts[2])
            gate.record(seen == expected, f"grammar-dev {op}: cache outcome (hits, misses, stores) {seen} != {expected}")
            gate.record(language.parser_source == state.sources[root],
                        f"grammar-dev {op}: parser source differs from the initial build's")
            with span("examples", "bench", op=op):
                try_examples(state, root, language, pick, span, gate, op)
        cycles += 1
    calibrator.probe()
    after = stats.as_dict()
    peak = common.peak_rss_mb()
    busy = sum(latencies)
    scaled = [calibrator.scale(latency, start) for latency, start in zip(latencies, starts)]
    by_kind: dict[str, list[float]] = {"rebuild": [], "reload": [], "lru": []}
    for kind, latency in zip(kinds, scaled):
        by_kind[kind].append(latency)
    lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    return common.Measurement(
        latencies=latencies,
        busy_s=busy,
        peak_rss_mb=peak,
        scaled=scaled,
        scaled_busy_s=sum(scaled),
        report={
            "rebuild_p50_ms": (common.median(by_kind["rebuild"]) * 1e3, "ms"),
            "reload_p50_ms": (common.median(by_kind["reload"]) * 1e3, "ms"),
            "lru_hit_p50_ms": (common.median(by_kind["lru"]) * 1e3, "ms"),
        },
        counts={"cycles": cycles, "steps": len(latencies), "rebuilds": len(by_kind["rebuild"]),
                "reloads": len(by_kind["reload"]), "lru_hits": len(by_kind["lru"]),
                "tail_samples": len(latencies)},
        detail={
            "lru": [latency for kind, latency in zip(kinds, latencies) if kind == "lru"],
            "hit_ratio": (after["hits"] - before["hits"]) / lookups,
            "invalidations": (after["invalidations"] - before["invalidations"]) / cycles,
        },
        traced=traced,
    )


def try_examples(state: State, root: str, language, pick: int | None, span, gate: common.Gate, op: str) -> None:
    examples = state.examples[root]
    if pick is not None:
        examples = [examples[pick]]
    for name, text in examples:
        error = value = None
        try:
            with span("parse", "runtime"):
                value = language.parse(text, source=name)
        except ParseError as exc:
            error = str(exc)
        common.check_verdict(gate, state.references[root].get(name), value, error, f"grammar-dev {op} {name}")


def layers(state: State, tracer, traced: common.Measurement, gate: common.Gate) -> dict[str, float]:
    values = pipeline.breakdown([root for root, _m, _f in state.roots], tracer, gate, paths=[state.tree])
    return values | cache_values(tracer, traced)


def cache_values(tracer, traced: common.Measurement) -> dict[str, float]:
    """The cache layer's per-layer metrics from a traced measurement."""
    values = {}
    lookups = tracer.durations("cache.lookup")
    stores = tracer.durations("cache.store")
    values["cache.lookup_s"] = sum(lookups) / len(lookups)
    values["cache.store_s"] = sum(stores) / len(stores)
    values["lru.hit_s"] = sum(traced.detail["lru"]) / len(traced.detail["lru"])
    values["cache.hit_ratio"] = traced.detail["hit_ratio"]
    values["cache.invalidations"] = traced.detail["invalidations"]
    return values


def teardown(state: State) -> None:
    clear_language_cache()
    shutil.rmtree(state.directory, ignore_errors=True)
