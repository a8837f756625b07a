"""The compile pipeline taken apart: compose, each optimization pass,
codegen and load, timed one call at a time.

``prepare`` runs its passes back to back, so the traced run calls the pass
functions itself, in the order :func:`repro.optim.prepare` documents, and
then checks the result against ``prepare`` (the drift guard): when the
pipeline gains, loses or reorders a pass, the breakdown fails loudly
instead of timing a pipeline that no longer exists.
"""

from __future__ import annotations

from repro.analysis.wellformed import require_wellformed
from repro.codegen import generate_parser_source, load_parser
from repro.meta import ModuleLoader
from repro.modules import compose_with_manifest
from repro.optim import (
    Options,
    PreparedGrammar,
    fold_grammar,
    fold_prefixes,
    infer_transient,
    inline_cheap_productions,
    prepare,
    specialize_terminals,
)
from repro.optim.fuse import fuse_scanners
from repro.peg.expr import walk
from repro.transform.leftrec import transform_left_recursion

from common import Gate

#: The passes ``prepare`` runs under ``Options.all()``, in its order.  The
#: desugaring step only runs when ``repeated``/``optional`` are off.
PASSES = ("leftrec", "fold", "prefixes", "fuse", "terminals", "inline", "transient")

#: Span names whose summed durations become per-layer metrics.
TIMED = ("compose", "prepare", "wellformed") + tuple(f"pass.{name}" for name in PASSES) + (
    "codegen", "load",
)


def node_count(grammar) -> int:
    return sum(
        sum(1 for _ in walk(alternative.expr))
        for production in grammar
        for alternative in production.alternatives
    )


def _run_pass(name: str, grammar, options: Options):
    if name == "leftrec":
        return transform_left_recursion(grammar, optimize=options.leftrec)
    if name == "fold":
        return fold_grammar(grammar)
    if name == "prefixes":
        return fold_prefixes(grammar)
    if name == "fuse":
        return fuse_scanners(grammar)
    if name == "terminals":
        return specialize_terminals(grammar)
    if name == "inline":
        return inline_cheap_productions(grammar, threshold=options.inline_threshold)
    return infer_transient(grammar)


def build(root: str, tracer, gate: Gate, ir: dict[str, float], paths: list[str] | None = None) -> None:
    """Compile ``root`` cold, one span per stage; add IR sizes to ``ir``.

    A breakdown that disagrees with ``prepare`` is recorded as a failure in
    ``gate``.
    """
    options = Options.all()
    loader = ModuleLoader(paths=paths)
    with tracer.span("compose", "meta", op=root):
        grammar, _modules = compose_with_manifest(root, loader)
    stages = {"compose": grammar}
    with tracer.span("prepare", "optim", op=root):
        with tracer.span("wellformed", "optim"):
            warnings = tuple(require_wellformed(grammar))
        current = grammar
        for name in PASSES:
            with tracer.span(f"pass.{name}", "optim"):
                current = _run_pass(name, current, options)
            stages[name] = current
        current.validate()
    prepared = PreparedGrammar(grammar=current, options=options, warnings=warnings)
    reference = prepare(grammar, options)
    gate.record(
        reference.grammar == prepared.grammar and reference.warnings == warnings,
        f"{root}: pass-by-pass pipeline differs from prepare(); the pass list in "
        "perfbench/pipeline.py is stale",
    )
    for stage, staged in stages.items():
        ir[f"ir.productions.{stage}"] = ir.get(f"ir.productions.{stage}", 0) + len(staged)
        ir[f"ir.nodes.{stage}"] = ir.get(f"ir.nodes.{stage}", 0) + node_count(staged)
    with tracer.span("codegen", "codegen", op=root):
        source = generate_parser_source(prepared, "Parser")
    with tracer.span("load", "codegen", op=root):
        load_parser(source, "Parser")
    ir["codegen_bytes"] = ir.get("codegen_bytes", 0) + len(source.encode("utf-8"))


def breakdown(roots: list[str], tracer, gate: Gate, paths: list[str] | None = None) -> dict[str, float]:
    """Per-layer compile metrics for one cold build of ``roots``: summed
    stage seconds (``compose_s``, ``pass.fuse_s``, …), IR sizes after each
    stage and generated-source bytes."""
    ir: dict[str, float] = {}
    first = len(tracer.meta)
    for root in roots:
        build(root, tracer, gate, ir, paths)
    metrics = dict(ir)
    for name in TIMED:
        metrics[f"{name}_s"] = sum(tracer.durations(name, since=first))
    return metrics
