"""Warm-reject fidelity check: every warm reject equals a cold parse's.

``make incremental-smoke`` runs this after the incremental test file.  On
two real-Python corpus files, for both incremental backends, it applies
seeded ``random_edit``s to a live session.  Accepted edits stay; each
rejected one is compared with a cold session of the same backend (offset,
line, column and the ordered expected tuple must be identical), then
undone, and the undo must parse.  A warm parse whose frontier rerun turned
a reject into an accept (``last_parse_recovered``) also counts as a
mismatch.  Exits 1 on any mismatch.  Runs in well under 30 s.

    PYTHONPATH=src python scripts/reject_check.py [--seed N] [--edits N]

See docs/incremental.md ("Failure fidelity").
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro.errors import ParseError
from repro.incremental import BACKENDS
from repro.workloads.pyedits import corpus_texts, random_edit

#: Corpus files checked, and the largest (layouted) size admitted.
FILES = 2
MAX_CHARS = 9_000


def error_key(error: ParseError) -> tuple:
    return (error.offset, error.line, error.column, error.expected)


def check_file(language, backend: str, name: str, text: str, rng, edits: int) -> tuple[int, int]:
    """``(rejects, mismatches)`` over ``edits`` random edits to ``text``."""
    warm = language.incremental(backend=backend)
    warm.set_text(text, source=name)
    warm.parse()
    cold = language.incremental(backend=backend)
    rejects = mismatches = 0
    for step in range(1, edits + 1):
        edit = random_edit(warm.text, rng)
        removed = warm.text[edit.offset : edit.offset + edit.removed]
        warm.apply_edit(edit.offset, edit.removed, edit.inserted)
        where = f"{backend} {name} step {step} {edit}"
        try:
            warm.parse()
        except ParseError as error:
            warm_error = error
        else:
            if warm.last_parse_recovered:
                mismatches += 1
                print(f"MISMATCH {where}: warm reject recovered by its rerun", file=sys.stderr)
            continue
        rejects += 1
        cold.set_text(warm.text, source=name)
        try:
            cold.parse()
        except ParseError as error:
            if error_key(error) != error_key(warm_error):
                mismatches += 1
                print(f"MISMATCH {where}: warm {warm_error!r} != cold {error!r}", file=sys.stderr)
        else:
            mismatches += 1
            print(f"MISMATCH {where}: warm rejects, cold accepts", file=sys.stderr)
        warm.apply_edit(edit.offset, len(edit.inserted), removed)
        try:
            warm.parse()
        except ParseError as error:
            mismatches += 1
            print(f"MISMATCH {where}: undo rejected ({error})", file=sys.stderr)
    return rejects, mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="reject_check", description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20261018)
    parser.add_argument("--edits", type=int, default=60, help="edits per file and backend")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    language = repro.compile_grammar("python.Python")
    texts = corpus_texts(limit=FILES, max_chars=MAX_CHARS)
    rejects = mismatches = 0
    for backend in BACKENDS:
        for index, (name, text) in enumerate(texts):
            rng = random.Random(args.seed + index)
            seen, bad = check_file(language, backend, name, text, rng, args.edits)
            rejects += seen
            mismatches += bad
    elapsed = time.perf_counter() - started
    status = "FAIL" if mismatches or not rejects else "ok"
    print(
        f"{status} reject-check: {rejects} warm rejects over {len(texts)} files x "
        f"{len(BACKENDS)} backends, {mismatches} mismatches ({elapsed:.1f}s)"
    )
    return 1 if status == "FAIL" else 0


if __name__ == "__main__":
    raise SystemExit(main())
