"""Record the benchmark trajectory into a versioned JSON file.

``make bench-record`` (or ``PYTHONPATH=src python scripts/bench_record.py``)
runs the E5 throughput measurement (generated parser and parsing machine,
all optimizations, per-grammar seeded corpora), the E3 cumulative
optimization ladder on the Jay corpus, the E11 real-Python corpus
throughput (every backend over ``examples/python/``), and the E12
incremental-reparse ratio (warm edit reparse vs cold parse, and warm
typo+undo vs cold, both incremental backends, Jay and real-Python
buffers), and *appends* one
record to ``BENCH_5.json``.  ``--backends`` restricts which backends the
E5/E11 sections measure (e.g. ``--backends vm`` for a machine-only
record).  Each record
carries enough provenance (machine, Python, options fingerprint, pipeline
version) that later PRs can diff performance against earlier ones instead
of re-deriving a baseline.  See docs/testing.md for the format.

The measured corpora are seeded and fixed-size, matching the fixtures in
``benchmarks/conftest.py`` where one exists, so numbers are comparable
across runs on the same machine.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro.codegen import generate_parser_source, load_parser
from repro.difftest.generator import SentenceGenerator
from repro.optim import Options, prepare
from repro.optim.pipeline import PIPELINE_VERSION
from repro.workloads import (
    generate_c_program,
    generate_jay_program,
    generate_json_document,
    load_corpus,
    python_layout,
)
from repro.workloads.pycorpus import ALLOWLIST

#: Bump when the record layout changes.
SCHEMA_VERSION = 1

#: Backends the E5/E11 sections can measure; ``--backends`` selects a subset.
E5_BACKENDS = ("generated", "vm")
E11_BACKENDS = ("interpreter", "closures", "generated", "vm")

#: Grammars measured by the E5 record, with their seeded corpora.
def _sentences(root: str, count: int, seed: int) -> list[str]:
    """``count`` seeded *valid* sentences of ``root`` (derivation candidates
    that the reference parser rejects are skipped, as in the fuzz harness)."""
    grammar = repro.load_grammar(root)
    prepared = prepare(grammar, Options.none(), check=False)
    generator = SentenceGenerator(prepared.grammar, random.Random(seed), max_length=600)
    language = repro.compile_grammar(grammar, cache=False)
    sentences: list[str] = []
    attempts = 0
    while len(sentences) < count and attempts < count * 20:
        attempts += 1
        sentence = generator.generate()
        if language.recognize(sentence):
            sentences.append(sentence)
    if len(sentences) < count:
        raise RuntimeError(f"{root}: only {len(sentences)}/{count} valid sentences")
    return sentences


def corpora() -> dict[str, list[str]]:
    return {
        "calc.Calculator": _sentences("calc.Calculator", 120, 7),
        "json.Json": [generate_json_document(size=150, seed=s) for s in (66, 77)],
        "jay.Jay": [generate_jay_program(size=14, seed=s) for s in (11, 22, 33)],
        "xc.XC": [generate_c_program(size=12, seed=s) for s in (44, 55)],
        "ml.ML": _sentences("ml.ML", 120, 9),
    }


def _compiled(grammar, options: Options):
    prepared = prepare(grammar, options)
    return load_parser(generate_parser_source(prepared))


def _best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_e5(repeat: int, backends: tuple[str, ...] = E5_BACKENDS) -> dict[str, dict]:
    """Per-grammar chars/sec of the selected backends over the optimized
    grammar.  The generated parser keeps its historical top-level keys
    (``seconds``/``chars_per_sec``); other backends land under
    ``backends.<name>`` so earlier records diff cleanly."""
    results: dict[str, dict] = {}
    for root, corpus in corpora().items():
        grammar = repro.load_grammar(root)
        prepared = prepare(grammar, Options.all())
        chars = sum(len(text) for text in corpus)
        entry: dict = {"inputs": len(corpus), "chars": chars}
        if "generated" in backends:
            parser_cls = load_parser(generate_parser_source(prepared))
            for text in corpus:  # correctness before timing
                parser_cls(text).parse()
            seconds = _best_of(lambda: [parser_cls(t).parse() for t in corpus], repeat)
            entry["seconds"] = round(seconds, 6)
            entry["chars_per_sec"] = round(chars / seconds)
        if "vm" in backends:
            from repro.vm import VMParser, compile_program

            vm = VMParser(compile_program(prepared))
            for text in corpus:
                vm.reset(text).parse()
            seconds = _best_of(lambda: [vm.reset(t).parse() for t in corpus], repeat)
            entry.setdefault("backends", {})["vm"] = {
                "seconds": round(seconds, 6),
                "chars_per_sec": round(chars / seconds),
            }
        results[root] = entry
    return results


def measure_e3(repeat: int) -> dict[str, int]:
    """Chars/sec at every rung of the cumulative ladder (Jay corpus)."""
    corpus = [generate_jay_program(size=14, seed=s) for s in (11, 22, 33)]
    chars = sum(len(text) for text in corpus)
    grammar = repro.load_grammar("jay.Jay")
    ladder: dict[str, int] = {}
    for label, options in Options.cumulative():
        parser_cls = _compiled(grammar, options)
        seconds = _best_of(lambda: [parser_cls(t).parse() for t in corpus], repeat)
        ladder[label] = round(chars / seconds)
    return ladder


def measure_e11(repeat: int, backends: tuple[str, ...] = E11_BACKENDS) -> dict[str, dict]:
    """Real-Python corpus bytes/sec per backend (layout pre-pass included)."""
    from repro.interp import PackratInterpreter
    from repro.interp.closures import ClosureParser
    from repro.optim import prepare as optim_prepare

    sys.setrecursionlimit(100_000)  # the interpreter is stack-hungry
    files, _ = load_corpus()
    texts = [cf.text for cf in files if cf.name not in ALLOWLIST]
    nbytes = sum(cf.nbytes for cf in files if cf.name not in ALLOWLIST)

    grammar = repro.load_grammar("python.Python")
    full = optim_prepare(grammar, Options.all(), check=False)
    language = repro.compile_grammar(grammar)
    available = {
        "interpreter": lambda: PackratInterpreter(full.grammar, chunked=True).parse,
        "closures": lambda: ClosureParser(full.grammar, chunked=True).parse,
        "vm": lambda: language.session(backend="vm").parse,
        "generated": lambda: language.session().parse,
    }
    measured = {name: make() for name, make in available.items() if name in backends}
    results: dict[str, dict] = {}
    for name, parse in measured.items():
        seconds = _best_of(
            lambda parse=parse: [parse(python_layout(t)) for t in texts],
            repeat if name != "interpreter" else 1,
        )
        results[name] = {
            "files": len(texts),
            "bytes": nbytes,
            "seconds": round(seconds, 6),
            "bytes_per_sec": round(nbytes / seconds),
        }
    return results


#: Incremental backends the E12 section measures.
E12_BACKENDS = ("vm", "closures")


def _timed_parse(session, accept: bool = True) -> float:
    """Seconds for ``session.parse()``, which must accept (or reject)."""
    start = time.perf_counter()
    try:
        session.parse()
    except repro.ParseError:
        if accept:
            raise
    else:
        if not accept:
            raise RuntimeError("a typo was accepted")
    return time.perf_counter() - start


def measure_e12(edits: int = 8, typos: int = 6) -> dict[str, dict]:
    """Warm-vs-cold reparse ratio per incremental backend (see benchmark
    E12): a seeded identifier-rename script over a Jay program and a
    layouted real-Python stdlib source; ``speedup`` is total cold seconds
    over total warm seconds for the whole script.  ``reject`` rows time
    seeded typo+undo rounds the same way: the typo's (rejected) parse plus
    the undo's parse, warm on the live session vs cold on fresh buffers."""
    from repro.workloads.pyedits import apply_script, corpus_texts, rename_edits, typo_edits

    buffers = {
        "jay.Jay": (
            repro.compile_grammar("jay.Jay"),
            generate_jay_program(size=14, seed=11),
        ),
    }
    python_corpus = corpus_texts(limit=1, max_chars=40_000)
    if python_corpus:
        [(name, text)] = python_corpus
        buffers[f"python.Python ({name})"] = (repro.compile_grammar("python.Python"), text)

    results: dict[str, dict] = {}
    for key, (language, text) in buffers.items():
        renames = list(rename_edits(text, random.Random(5), edits))
        # The typo rounds follow the renames, on the renamed buffer.
        renamed = apply_script(text, renames)
        pairs = list(typo_edits(renamed, random.Random(5), typos, language.recognize))
        entry: dict = {"chars": len(text), "edits": len(renames), "typos": len(pairs), "backends": {}}
        for backend in E12_BACKENDS:
            warm = language.incremental(backend=backend)
            warm.set_text(text)
            warm.parse()
            cold = language.incremental(backend=backend)
            current = text
            warm_s = cold_s = 0.0
            for edit in renames:
                warm.apply_edit(edit.offset, edit.removed, edit.inserted)
                current = edit.apply(current)
                warm_s += _timed_parse(warm)
                cold.set_text(current)
                cold_s += _timed_parse(cold)
            reject_warm = reject_cold = 0.0
            for typo, undo in pairs:
                for edit, accept in ((typo, False), (undo, True)):
                    warm.apply_edit(edit.offset, edit.removed, edit.inserted)
                    reject_warm += _timed_parse(warm, accept)
                for buffer, accept in ((typo.apply(renamed), False), (renamed, True)):
                    cold.set_text(buffer)
                    reject_cold += _timed_parse(cold, accept)
            entry["backends"][backend] = {
                "warm_seconds": round(warm_s, 6),
                "cold_seconds": round(cold_s, 6),
                "speedup": round(cold_s / warm_s, 2),
                "reject": {
                    "warm_seconds": round(reject_warm, 6),
                    "cold_seconds": round(reject_cold, 6),
                    "speedup": round(reject_cold / reject_warm, 2) if pairs else None,
                },
            }
        results[key] = entry
    return results


def build_record(label: str, repeat: int, backends: tuple[str, ...] | None = None) -> dict:
    e5_backends = tuple(b for b in E5_BACKENDS if backends is None or b in backends)
    e11_backends = tuple(b for b in E11_BACKENDS if backends is None or b in backends)
    return {
        "label": label,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "machine": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "options": Options.all().cache_key(),
        "pipeline_version": PIPELINE_VERSION,
        "e5": measure_e5(repeat, e5_backends),
        "e3_cumulative": measure_e3(repeat),
        "e11_python_corpus": measure_e11(repeat, e11_backends),
        "e12_incremental": measure_e12(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_record", description="Append a benchmark record to BENCH_5.json."
    )
    parser.add_argument("--label", default="run", help="record label (e.g. a PR name)")
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_5.json"),
        help="record file to append to",
    )
    parser.add_argument("--repeat", type=int, default=3, help="best-of-N timing")
    parser.add_argument(
        "--backends", metavar="NAME[,NAME…]",
        help="restrict the E5/E11 sections to a backend subset "
        f"(known: {', '.join(sorted(set(E5_BACKENDS) | set(E11_BACKENDS)))})",
    )
    args = parser.parse_args(argv)

    backends = None
    if args.backends:
        backends = tuple(t.strip() for t in args.backends.split(",") if t.strip())
        known = set(E5_BACKENDS) | set(E11_BACKENDS)
        unknown = [t for t in backends if t not in known]
        if unknown:
            print(f"error: unknown backend(s) {unknown}; known: {sorted(known)}", file=sys.stderr)
            return 1

    record = build_record(args.label, args.repeat, backends)

    output = Path(args.output)
    if output.exists():
        data = json.loads(output.read_text())
        if data.get("schema") != SCHEMA_VERSION:
            print(
                f"error: {output} has schema {data.get('schema')}, "
                f"expected {SCHEMA_VERSION}",
                file=sys.stderr,
            )
            return 1
    else:
        data = {"schema": SCHEMA_VERSION, "records": []}
    data["records"].append(record)
    output.write_text(json.dumps(data, indent=2, sort_keys=False) + "\n")

    print(f"recorded {args.label!r} -> {output}")
    for root, row in record["e5"].items():
        if "chars_per_sec" in row:
            print(f"  {root}: {row['chars_per_sec']:,} chars/s ({row['chars']} chars)")
        for backend, sub in row.get("backends", {}).items():
            print(f"  {root}/{backend}: {sub['chars_per_sec']:,} chars/s")
    for backend, row in record["e11_python_corpus"].items():
        print(
            f"  python-corpus/{backend}: {row['bytes_per_sec']:,} bytes/s "
            f"({row['files']} files)"
        )
    for key, row in record.get("e12_incremental", {}).items():
        for backend, sub in row["backends"].items():
            print(
                f"  incremental/{key}/{backend}: {sub['speedup']}x warm-vs-cold "
                f"({row['edits']} edits over {row['chars']} chars); typo+undo "
                f"{sub['reject']['speedup']}x ({row['typos']} typos)"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
