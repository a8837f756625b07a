"""The benchmark's inputs, derived from fixed corpora and the run's seed.

The reference verdicts (``references.json``) are keyed by these inputs, so
``make_references.py`` and the workloads both take them from here.  The
seed only chooses order, sampling and edit scripts; the program under test
receives the generated inputs and nothing else.
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.workloads import generate_c_program, generate_jay_program, generate_json_document
from repro.workloads.pycorpus import ALLOWLIST, CORPUS_DIR, load_corpus

from common import REPO_ROOT

EXAMPLES = REPO_ROOT / "examples"

# -- pycorpus -------------------------------------------------------------------


def corpus_files() -> list[tuple[str, str]]:
    """``(name, decoded source)`` of every corpus file expected to parse:
    undecodable and allowlisted (``match`` statement) files are left out."""
    files, _skipped = load_corpus(CORPUS_DIR)
    return [(cf.name, cf.text) for cf in files if cf.name not in ALLOWLIST]


# -- serve ------------------------------------------------------------------------

SERVE_GRAMMARS = ("jay", "json", "xc")

#: Documents per grammar in the fixed request pool; every 20th is cut short
#: (about 5%) and expected back as a ``parse_error``.
POOL_PER_GRAMMAR = 120
TRUNCATE_EVERY = 20


def _document(grammar: str, rng: random.Random) -> str:
    if grammar == "jay":
        return generate_jay_program(size=1, rng=rng)
    if grammar == "xc":
        return generate_c_program(size=rng.choice((1, 2)), rng=rng)
    return generate_json_document(size=rng.randint(8, 16), rng=rng)


def serve_pool() -> list[tuple[str, str]]:
    """The fixed ``(grammar, text)`` request pool (median ~650 chars)."""
    pool: list[tuple[str, str]] = []
    for grammar in SERVE_GRAMMARS:
        rng = random.Random(f"perfbench-serve-{grammar}")
        for index in range(POOL_PER_GRAMMAR):
            text = _document(grammar, rng)
            if index % TRUNCATE_EVERY == TRUNCATE_EVERY - 1:
                text = text[: rng.randint(len(text) // 4, 3 * len(text) // 4)]
            pool.append((grammar, text))
    return pool


# -- grammar-dev ----------------------------------------------------------------

#: (root, modules a developer edits for it, examples directory).  The eleven
#: extension roots of experiment E2 with their delta modules, their four
#: bases, and ``python.Python``, the largest parser.
GD_ROOTS: tuple[tuple[str, tuple[str, ...], str], ...] = (
    ("calc.Power", ("calc.Power",), "calc"),
    ("calc.Comparison", ("calc.Comparison",), "calc"),
    ("calc.Full", ("calc.Power", "calc.Comparison", "calc.Full"), "calc"),
    ("jay.ForEach", ("jay.ForEach",), "jay"),
    ("jay.AssertStmt", ("jay.AssertStmt",), "jay"),
    ("jay.SwitchStmt", ("jay.SwitchStmt",), "jay"),
    ("jay.Increments", ("jay.Increments",), "jay"),
    ("jay.Sql", ("jay.Sql", "sql.Core"), "jay"),
    ("jay.Extended", ("jay.ForEach", "jay.AssertStmt", "jay.SwitchStmt", "jay.Increments",
                      "jay.Sql", "sql.Core", "jay.Extended"), "jay"),
    ("xc.Until", ("xc.Until",), "xc"),
    ("ml.Pipeline", ("ml.Pipeline",), "ml"),
    ("calc.Calculator", ("calc.Calculator", "calc.Core"), "calc"),
    ("jay.Jay", ("jay.Jay", "jay.Statements"), "jay"),
    ("xc.XC", ("xc.XC", "xc.Statements"), "xc"),
    ("ml.ML", ("ml.ML", "ml.Expressions"), "ml"),
    ("python.Python", ("python.Python", "python.Statements"), "python"),
)


def gd_examples(directory: str) -> list[tuple[str, str]]:
    """``(name, text)`` of the example inputs a language is tried on
    (``python.Python`` is tried on the corpus files instead)."""
    folder = EXAMPLES / directory
    return [(path.name, path.read_text()) for path in sorted(folder.iterdir()) if path.is_file()]


def grammar_tree() -> Path:
    """The shipped ``.mg`` tree the grammar-dev workload copies."""
    import repro.grammars

    return Path(repro.grammars.__file__).resolve().parent
