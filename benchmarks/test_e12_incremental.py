"""E12 — incremental reparsing: memo reuse vs. cold parse after an edit.

The incremental subsystem (``docs/incremental.md``) promises that an
editor-style token-level edit invalidates only the memo columns whose
examined spans overlap the damage, so a warm reparse costs work
proportional to the damage, not the buffer.  This experiment measures
that, per incremental backend (the parsing machine and the closure
compiler):

- **Jay**: a seeded generated program; the edit script is same-length
  identifier renames (:func:`repro.workloads.pyedits.rename_edits`), the
  canonical editor action.  Warm = ``apply_edit`` + ``parse`` on a live
  :class:`~repro.incremental.IncrementalSession`; cold = ``set_text`` +
  ``parse`` of the identical buffer on a second session of the same
  flavor (the same program, so the comparison isolates memo reuse).
- **Real Python**: a layout-preprocessed stdlib source from
  ``examples/python/`` under the modular ``python.Python`` grammar —
  the at-scale version of the same measurement.

The acceptance bar — warm reparse >= 10x faster than cold, both
backends, both corpora — is the floor; the measured ratios on the seeded
corpora are orders of magnitude above it (the warm parse re-derives only
the damaged spine).

**Warm rejects** get their own rows: a seeded typo the parser rejects
(:func:`repro.workloads.pyedits.typo_edits`) followed by its undo, on Jay
and on ``abc.py``.  Warm = the reject's ``parse`` plus the undo's
``parse`` on the live session, which re-derives only the failure frontier
and keeps the columns right of it for the undo; cold = the same two
parses on a fresh ``set_text`` each.  The asserted floor is 5x.

Correctness is not re-proven here (the differential edit oracle in
``repro.difftest`` owns that); the runs still assert that no warm parse
was turned from a reject into an accept by its frontier rerun
(``last_parse_recovered``).
"""

from __future__ import annotations

import random
import time

import repro
from repro.errors import ParseError
from repro.workloads.pyedits import corpus_texts, rename_edits, typo_edits

from bench_util import print_table

#: Acceptance floor: warm edit reparse at least this much faster than cold.
MIN_SPEEDUP = 10.0

BACKENDS = ("vm", "closures")

#: Edits per measurement (each timed warm and cold; totals are compared).
EDITS = 8

#: Acceptance floor for a warm reject plus its undo against a cold session.
MIN_REJECT_SPEEDUP = 5.0

#: Typo+undo rounds per reject measurement.
TYPOS = 6


def _measure(language, backend: str, text: str, edits) -> dict:
    """Total warm vs cold reparse seconds over one edit script."""
    warm = language.incremental(backend=backend)
    warm.set_text(text)
    warm.parse()  # populate the memo table
    cold = language.incremental(backend=backend)
    current = text
    warm_s = cold_s = 0.0
    count = 0
    for edit in edits:
        warm.apply_edit(edit.offset, edit.removed, edit.inserted)
        current = edit.apply(current)
        start = time.perf_counter()
        warm.parse()
        warm_s += time.perf_counter() - start
        assert not warm.last_parse_recovered
        cold.set_text(current)
        start = time.perf_counter()
        cold.parse()
        cold_s += time.perf_counter() - start
        count += 1
    assert count > 0, "edit script was empty"
    return {
        "backend": backend,
        "edits": count,
        "chars": len(text),
        "warm_s": warm_s,
        "cold_s": cold_s,
        "speedup": cold_s / warm_s,
    }


def _timed_parse(session, accept: bool) -> float:
    start = time.perf_counter()
    try:
        session.parse()
    except ParseError:
        assert not accept, "undo rejected"
    else:
        assert accept, "typo accepted"
    return time.perf_counter() - start


def _measure_rejects(language, backend: str, text: str) -> dict:
    """Total warm vs cold seconds over seeded typo+undo rounds."""
    pairs = list(typo_edits(text, random.Random(5), TYPOS, language.recognize))
    assert pairs, "no typo was rejected"
    warm = language.incremental(backend=backend)
    warm.set_text(text)
    warm.parse()
    cold = language.incremental(backend=backend)
    warm_s = cold_s = 0.0
    for typo, undo in pairs:
        warm.apply_edit(typo.offset, typo.removed, typo.inserted)
        warm_s += _timed_parse(warm, accept=False)
        assert not warm.last_parse_recovered
        warm.apply_edit(undo.offset, undo.removed, undo.inserted)
        warm_s += _timed_parse(warm, accept=True)
        cold.set_text(typo.apply(text))
        cold_s += _timed_parse(cold, accept=False)
        cold.set_text(text)
        cold_s += _timed_parse(cold, accept=True)
    return {
        "backend": backend,
        "edits": len(pairs),
        "chars": len(text),
        "warm_s": warm_s,
        "cold_s": cold_s,
        "speedup": cold_s / warm_s,
    }


def _report(title: str, rows: list[dict]) -> None:
    print_table(
        title,
        [
            {
                "backend": r["backend"],
                "chars": r["chars"],
                "edits": r["edits"],
                "warm (ms/edit)": f"{r['warm_s'] / r['edits'] * 1000:.3f}",
                "cold (ms/edit)": f"{r['cold_s'] / r['edits'] * 1000:.3f}",
                "speedup": f"{r['speedup']:.1f}x",
            }
            for r in rows
        ],
        ["backend", "chars", "edits", "warm (ms/edit)", "cold (ms/edit)", "speedup"],
    )


def test_e12_jay_incremental_reparse(benchmark, jay_all):
    from repro.workloads import generate_jay_program

    text = generate_jay_program(size=14, seed=11)
    rows = []
    for backend in BACKENDS:
        edits = list(rename_edits(text, random.Random(5), EDITS))
        rows.append(_measure(jay_all, backend, text, edits))
    _report(f"E12 — Jay ({len(text)} chars), token rename, warm vs cold", rows)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for row in rows:
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{row['backend']}: warm reparse only {row['speedup']:.1f}x over cold "
            f"(floor {MIN_SPEEDUP}x)"
        )


def test_e12_python_corpus_incremental_reparse(benchmark):
    language = repro.compile_grammar("python.Python")
    [(name, text)] = corpus_texts(limit=1, max_chars=40_000)
    rows = []
    for backend in BACKENDS:
        edits = list(rename_edits(text, random.Random(5), EDITS))
        rows.append(_measure(language, backend, text, edits))
    _report(
        f"E12 — real Python ({name}, {len(text)} layouted chars), "
        "token rename, warm vs cold",
        rows,
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for row in rows:
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{row['backend']}: warm reparse only {row['speedup']:.1f}x over cold "
            f"(floor {MIN_SPEEDUP}x)"
        )


def _assert_reject_floor(rows: list[dict]) -> None:
    for row in rows:
        assert row["speedup"] >= MIN_REJECT_SPEEDUP, (
            f"{row['backend']}: warm typo+undo only {row['speedup']:.1f}x over cold "
            f"(floor {MIN_REJECT_SPEEDUP}x)"
        )


def test_e12_jay_warm_reject(benchmark, jay_all):
    from repro.workloads import generate_jay_program

    text = generate_jay_program(size=14, seed=11)
    rows = [_measure_rejects(jay_all, backend, text) for backend in BACKENDS]
    _report(f"E12 — Jay ({len(text)} chars), typo + undo, warm vs cold", rows)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _assert_reject_floor(rows)


def test_e12_python_corpus_warm_reject(benchmark):
    language = repro.compile_grammar("python.Python")
    [(name, text)] = corpus_texts(limit=1, max_chars=40_000)
    rows = [_measure_rejects(language, backend, text) for backend in BACKENDS]
    _report(
        f"E12 — real Python ({name}, {len(text)} layouted chars), "
        "typo + undo, warm vs cold",
        rows,
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _assert_reject_floor(rows)
