"""edit: an editor session on ``Language.incremental()`` (VM backend).

Each parseable stdlib file is opened (a cold parse) and then edited by a
seeded script of 41 same-length identifier renames and two typos, in a
seeded order.  A typo is a run of token edits (``pyedits.random_edit``)
that ends with the first one the parser rejects; accepted token edits
stay, and every rejected edit is followed by its undo, as a user fixes a
typo.  That makes about 90% renames and 10% token edits, and a fixed
number of rejects per file: a warm reject reruns cold inside the session,
which is the tail this workload exists to show, and a fixed count keeps
the tail from depending on how many rejects a seed happens to draw.  The
cold rerun parses up to the error, so a reject costs more the later in
the file it lands: each typo is drawn inside one quarter of the buffer,
and over two cycles every file gets one typo in each quarter (seeded
rotation), so the tail does not hinge on where a seed puts them.  One
cycle over the 22 files carries over 1000 edits (undos included) and a run
makes at least two, so p99 has at least twenty samples beyond it.  An
operation is one edit: from
``apply_edit`` to tree or error.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterator

import repro
from repro.errors import ParseError
from repro.vm import compile_program
from repro.workloads.pyedits import Edit, corpus_texts, random_edit, rename_identifier

import common
import pipeline
from calibrate import Calibrator
from tracing import NULL

OP_SPANS = ("open", "edit")
TAIL = 99
RENAMES_PER_FILE = 41
TYPOS_PER_FILE = 2
#: Whole cycles a run makes at least: p99 then has 20 samples beyond it,
#: and a run's tail rests on two seeded scripts per file, not one.
MIN_CYCLES = 2
#: Slices of the buffer a file's typos are spread over, one per typo in
#: ``MIN_CYCLES`` cycles.
STRATA = TYPOS_PER_FILE * MIN_CYCLES
#: A typo draws token edits until one is rejected; this caps the draws.
MAX_TYPO_ATTEMPTS = 10
#: Share of edits whose warm result is also compared with a cold parse of
#: the same incremental program (the final buffer of each file is always
#: compared with a cold generated-backend parse).
CHECK_SHARE = 0.01
ROOT = "python.Python"


@dataclass
class State:
    language: object
    session: object
    #: A second session, re-seeded with set_text for every check: a cold
    #: parse by the same incremental program.
    cold: object
    files: list[tuple[str, str]]  # name, laid-out source
    cycles: Iterator[list[tuple[str, str, list, random.Random]]]


def schedule(seed: int, files: list[tuple[str, str]]) -> Iterator[list[tuple[str, str, list, random.Random]]]:
    """Each cycle: every file in a seeded order, with its seeded order of
    edits — ``"rename"``, or the buffer slice of a typo — and the random
    stream its edits and check samples come from (the edits themselves
    depend on the evolving buffer)."""
    rng = random.Random(seed)
    rotation = {name: rng.randrange(STRATA) for name, _text in files}
    cycle = 0
    while True:
        order = list(files)
        rng.shuffle(order)
        steps = []
        for name, text in order:
            first = rotation[name] + cycle * TYPOS_PER_FILE
            plan = ["rename"] * RENAMES_PER_FILE + [(first + typo) % STRATA for typo in range(TYPOS_PER_FILE)]
            rng.shuffle(plan)
            steps.append((name, text, plan, random.Random(f"{seed}:{cycle}:{name}")))
        yield steps
        cycle += 1


def inputs_digest(seed: int, units: int = 1) -> str:
    """The seeded plan plus each file's first edit (later edits depend on
    which earlier ones the parser accepted)."""
    cycles = schedule(seed, corpus_texts())
    plans = []
    for _ in range(units):
        for name, text, plan, rng in next(cycles):
            first = rename_identifier(text, rng) if plan[0] == "rename" else typo_edit(text, rng, plan[0])
            plans.append((name, plan, first))
    return common.text_digest(repr(plans))


def typo_edit(text: str, rng: random.Random, stratum: int) -> Edit:
    """``pyedits.random_edit`` confined to slice ``stratum`` of ``STRATA``
    equal slices of ``text``."""
    low = len(text) * stratum // STRATA
    edit = random_edit(text[low:len(text) * (stratum + 1) // STRATA], rng)
    return Edit(low + edit.offset, edit.removed, edit.inserted)


def setup(seed: int, gate: common.Gate) -> State:
    language = repro.compile_grammar(ROOT)
    language.vm_program(incremental=True)
    files = corpus_texts()
    return State(
        language=language,
        session=language.incremental(),
        cold=language.incremental(),
        files=files,
        cycles=schedule(seed, files),
    )


def _outcome(run) -> tuple[object, ParseError | None]:
    try:
        return run(), None
    except ParseError as exc:
        return None, exc


def _compare(digest, error, cold, cold_error, gate: common.Gate, what: str, exact: bool) -> None:
    """Verdict, AST (``digest`` of the warm tree) and farthest-failure offset
    must agree; with ``exact`` (same program) the expected set too.  Other
    programs record other expected sets, as
    ``repro.difftest.oracle.EditOracle`` documents."""
    if error is None and cold_error is None:
        same = digest == common.ast_digest(cold)
    elif error is None or cold_error is None:
        same = False
    else:
        same = error.offset == cold_error.offset and (not exact or error.expected == cold_error.expected)
    gate.record(same, f"{what}: warm {error or 'accept'} != cold {cold_error or 'accept'}")


def check_cold(state: State, source: str, text: str, digest, error, gate: common.Gate, what: str,
               same_program: bool) -> None:
    """Compare a warm result on ``text`` with a cold generated-backend parse
    and, with ``same_program``, with a cold parse by the same incremental
    program."""
    cold, cold_error = _outcome(lambda: state.language.parse(text, source=source))
    _compare(digest, error, cold, cold_error, gate, f"{what} (generated)", exact=False)
    if same_program:
        state.cold.set_text(text, source)
        cold, cold_error = _outcome(state.cold.parse)
        state.cold.close()
        _compare(digest, error, cold, cold_error, gate, f"{what} (incremental)", exact=True)


class _Recorder:
    """Times edits on the session and feeds the gate; one per measuring run."""

    def __init__(self, state: State, gate: common.Gate, calibrator: Calibrator):
        self.state = state
        self.gate = gate
        self.calibrator = calibrator
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.traced: list[bool] = []
        self.detail = {"apply": [], "warm": [], "reject": [], "dropped": 0, "shifted": 0, "retained": 0}
        self.rejects = 0
        #: Arguments of the ``check_cold`` calls made after the loop.
        self.checks: list[tuple] = []
        #: (value, error) of the latest parse.
        self.last: tuple = (None, None)

    def edit(self, offset: int, removed: int, inserted: str, span, on: bool, op: str):
        """One timed edit, from ``apply_edit`` to tree or error."""
        session = self.state.session
        now = time.perf_counter
        self.calibrator.tick()
        t0 = now()
        with span("edit", "bench", op=op):
            with span("apply_edit", "incremental"):
                stats = session.apply_edit(offset, removed, inserted)
            t1 = now()
            with span("parse", "incremental"):
                value, error = _outcome(session.parse)
        t2 = now()
        self.latencies.append(t2 - t0)
        self.starts.append(t0)
        self.traced.append(on)
        detail = self.detail
        detail["apply"].append(t1 - t0)
        detail["warm" if error is None else "reject"].append(t2 - t1)
        detail["dropped"] += stats.dropped
        detail["shifted"] += stats.shifted
        detail["retained"] += stats.retained
        self.gate.record(not session.last_parse_recovered, f"edit {op}: warm reject that a cold rerun accepts")
        return value, error

    def attempt(self, name: str, edit, rng: random.Random, span, on: bool, op: str) -> bool:
        """Apply ``edit``; when the parser rejects it, undo it.  Returns
        whether it was rejected."""
        buffer = self.state.session.text
        value, error = self.edit(edit.offset, edit.removed, edit.inserted, span, on, op)
        if rng.random() < CHECK_SHARE:
            self.defer_check(name, value, error, f"edit {op}", True)
        rejected = error is not None
        if rejected:
            self.rejects += 1
            original = buffer[edit.offset:edit.offset + edit.removed]
            value, error = self.edit(edit.offset, len(edit.inserted), original, span, on, op + ":undo")
            self.gate.record(error is None, f"edit {op}: undo rejected ({error})")
        self.last = (value, error)
        return rejected

    def defer_check(self, name: str, value, error, what: str, same_program: bool) -> None:
        """Keep what a cold parse of the current buffer must agree with.  The
        cold parses run after the loop, so the memory they take does not
        count in the run's peak RSS, and which edits the seed samples does
        not move it."""
        digest = common.ast_digest(value) if error is None else None
        self.checks.append((name, self.state.session.text, digest, error, what, same_program))


def measure(state: State, seconds: float, tracer, gate: common.Gate) -> common.Measurement:
    session = state.session
    now = time.perf_counter
    calibrator = Calibrator()
    recorder = _Recorder(state, gate, calibrator)
    opens: list[tuple[float, float]] = []  # latency, start
    open_parse: list[float] = []
    cycles = 0
    started = now()
    while cycles < MIN_CYCLES or now() - started < seconds:
        for index, (name, text, plan, rng) in enumerate(next(state.cycles)):
            span = (tracer if tracer.enabled and index % 2 else NULL).span
            calibrator.tick()
            t0 = now()
            with span("open", "bench", op=f"{cycles}:{name}"):
                with span("set_text", "incremental"):
                    session.set_text(text, name)
                t1 = now()
                with span("parse", "incremental"):
                    _value, error = _outcome(session.parse)
            t2 = now()
            opens.append((t2 - t0, t0))
            open_parse.append(t2 - t1)
            gate.record(error is None, f"edit {name}: open rejected ({error})")
            for step, kind in enumerate(plan):
                on = tracer.enabled and step % 2 == 1
                span = (tracer if on else NULL).span
                op = f"{cycles}:{name}:{step}"
                if kind == "rename":
                    recorder.attempt(name, rename_identifier(session.text, rng), rng, span, on, op)
                    continue
                # A typo: token edits in one slice of the buffer until one is
                # rejected (and undone).
                for attempt in range(MAX_TYPO_ATTEMPTS):
                    if recorder.attempt(name, typo_edit(session.text, rng, kind), rng, span, on, f"{op}:{attempt}"):
                        break
            value, error = recorder.last
            recorder.defer_check(name, value, error, f"edit {cycles}:{name}:final", False)
        cycles += 1
    calibrator.probe()
    peak = common.peak_rss_mb()
    for name, text, digest, error, what, same_program in recorder.checks:
        check_cold(state, name, text, digest, error, gate, what, same_program)
    latencies = recorder.latencies
    scaled = [calibrator.scale(latency, start) for latency, start in zip(latencies, recorder.starts)]
    scaled_opens = [calibrator.scale(latency, start) for latency, start in opens]
    detail = dict(recorder.detail, open_parse=open_parse, rejects=recorder.rejects)
    return common.Measurement(
        latencies=latencies,
        busy_s=sum(latencies),
        peak_rss_mb=peak,
        scaled=scaled,
        scaled_busy_s=sum(scaled),
        report={
            "open_ms": (common.median(scaled_opens) * 1e3, "ms"),
            "edit_p50_ms": (common.median(scaled) * 1e3, "ms"),
            "edit_p99_ms": (common.percentile(scaled, 99) * 1e3, "ms"),
            "reject_share": (recorder.rejects / len(latencies), "ratio"),
            "calibration_unit_ms": (calibrator.median_unit_s * 1e3, "ms"),
        },
        counts={"cycles": cycles, "opens": len(opens), "edits": len(latencies),
                "rejects": recorder.rejects, "tail_samples": len(latencies)},
        detail=detail,
        traced=recorder.traced,
    )


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layers(state: State, tracer, traced: common.Measurement, gate: common.Gate) -> dict[str, float]:
    values = pipeline.breakdown([ROOT], tracer, gate)
    detail = traced.detail
    edits = traced.ops
    values["apply_edit_s"] = _mean(detail["apply"])
    values["warm_parse_s"] = _mean(detail["warm"])
    values["reject_rerun_s"] = _mean(detail["reject"])
    values["open_parse_s"] = _mean(detail["open_parse"])
    values["reject_share"] = detail["rejects"] / edits
    for key in ("dropped", "shifted", "retained"):
        values[f"edit.{key}"] = detail[key] / edits
    values["retained_ratio"] = detail["retained"] / (detail["retained"] + detail["dropped"])
    with tracer.span("vm.compile", "vm"):
        started = time.perf_counter()
        program = compile_program(state.language.prepared, incremental=True)
        values["vm.compile_s"] = time.perf_counter() - started
    values["vm.program_ops"] = len(program.code)
    # The plain (non-incremental) machine over the corpus, cold, once.
    parsed = 0
    started = time.perf_counter()
    with state.language.session(backend="vm") as cold:
        for name, text in state.files:
            with tracer.span("vm.parse", "vm", op=f"vm:{name}"):
                cold.parse(text, name)
            parsed += len(text.encode("utf-8"))
    values["vm.parse_kbps"] = parsed / 1e3 / (time.perf_counter() - started)
    return values


def teardown(state: State) -> None:
    state.session.close()
    state.cold.close()
