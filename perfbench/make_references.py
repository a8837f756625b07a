"""Regenerate ``references.json``: the reference verdicts the benchmark's
correctness gate compares against.

Every verdict comes from the unoptimized reference interpreter
(``Options.none()`` + ``Language.interpreter()``), never from the
generated parser, the VM or the incremental engine the benchmark times.
For each input it records the input's sha256, whether it parses and, if
so, the digest of its AST (:func:`common.ast_digest`).

Run from the repository root (takes about a minute)::

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import repro  # noqa: E402
from repro.errors import ParseError  # noqa: E402
from repro.grammars import ROOTS  # noqa: E402
from repro.optim import Options  # noqa: E402
from repro.workloads.pylayout import python_layout  # noqa: E402

import inputs  # noqa: E402
from common import REFERENCES, ast_digest, text_digest  # noqa: E402


def reference_parser(root: str):
    return repro.compile_grammar(root, options=Options.none(), cache=False).interpreter()


def verdict(interpreter, text: str, name: str) -> dict:
    entry: dict = {"text": text_digest(text)}
    try:
        value = interpreter.parse(text, source=name)
    except ParseError:
        entry["accept"] = False
        return entry
    entry["accept"] = True
    entry["ast"] = ast_digest(value)
    return entry


def build() -> dict:
    python = reference_parser("python.Python")
    pycorpus = {
        name: verdict(python, python_layout(text), name) for name, text in inputs.corpus_files()
    }
    print(f"pycorpus: {len(pycorpus)} files", file=sys.stderr)

    interpreters = {key: reference_parser(ROOTS[key]) for key in inputs.SERVE_GRAMMARS}
    serve = [
        dict(verdict(interpreters[grammar], text, f"pool-{index}"), grammar=grammar)
        for index, (grammar, text) in enumerate(inputs.serve_pool())
    ]
    print(f"serve: {len(serve)} pool documents", file=sys.stderr)

    grammar_dev: dict[str, dict] = {}
    for root, _modules, directory in inputs.GD_ROOTS:
        if directory == "python":
            continue  # the python.Python examples are the pycorpus entries
        interpreter = reference_parser(root)
        grammar_dev[root] = {
            name: verdict(interpreter, text, name) for name, text in inputs.gd_examples(directory)
        }
    print(f"grammar-dev: {len(grammar_dev)} roots", file=sys.stderr)
    return {"pycorpus": pycorpus, "serve": serve, "grammar_dev": grammar_dev}


def main() -> int:
    # The unoptimized interpreter recurses once per repetition step, so
    # long real-Python modules need a deep stack.
    sys.setrecursionlimit(1_000_000)
    threading.stack_size(512 * 1024 * 1024)
    result: dict = {}
    worker = threading.Thread(target=lambda: result.update(build()))
    worker.start()
    worker.join()
    if not result:
        return 1
    REFERENCES.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
