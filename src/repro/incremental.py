"""Incremental reparsing: memo-table reuse across edits.

An :class:`IncrementalSession` (built by :meth:`repro.Language.incremental`)
keeps one parser, one memo table and one line index alive across a sequence
of text edits.  :meth:`~IncrementalSession.apply_edit` translates an edit —
*replace* ``removed`` characters at ``offset`` with an inserted string —
into memo-table surgery instead of a cold start:

- entries whose **examined span** overlaps the damaged range are dropped
  (:meth:`~repro.runtime.memo.IncrementalMemoTable.drop_range`);
- entries entirely right of the damage are shifted by the length delta
  (:meth:`~repro.runtime.memo.IncrementalMemoTable.shift_from`) — pure
  column motion, since entries store relative spans; attached source
  locations move with them;
- everything else — typically the vast majority — is *retained* and served
  as memo hits by the next :meth:`~IncrementalSession.parse`.

The soundness of retention rests on the **examined watermark**: the
incremental twins of the closures backend
(:class:`repro.interp.closures.ClosureParser` with ``incremental=True``)
and the parsing machine (:class:`repro.vm.VMParser` with
``incremental=True``) record, per memo entry, the exclusive end of the
input span its computation *read* — consumed characters, lookahead-probe
spans (``&``/``!``), single-character dispatch reads, and failed
expectations alike.  An entry is reusable after an edit exactly when that
span misses the damage; fused ``Regex`` regions, whose single C scan can
examine unboundedly far past its match end, are compiled back to their
original expressions in incremental programs so the watermark stays tight.
See ``docs/incremental.md`` for the algorithm and invariant.

Failure fidelity: memoized results do not replay the expected-set records
their original computation made, so a *warm* reject may under-report its
farthest failure.  A recorded failure at ``q`` raises the frame's examined
watermark to at least ``q + 1``, so an entry whose examined end is ``<= F``
hides only failures below ``F``.  When a warm parse rejects at ``F``, the
session therefore drops the spine of entries reaching past ``F``, sets
aside every column at or beyond it, reruns warm, and puts the set-aside
columns back: the reported error is bit-identical to a from-scratch parse,
and the edit that follows (typically the undo) still finds the suffix warm.
A pass that raises :class:`~repro.errors.ParseDepthError` reruns cold
instead.  The rerun also acts as a tripwire: if it *accepts* where the warm
pass rejected, an invalidation bug exists, and
:attr:`~IncrementalSession.last_parse_recovered` flags it.  It covers stale
entries that examined text at or beyond ``F``, not those wholly left of
it; the differential edit oracle, which parses cold at every step, keeps
full coverage.

:class:`StreamFeeder` is the streaming half: it frames a chunked character
stream into newline-delimited documents and (optionally) parses each one as
it completes, which is how ``repro-serve --streaming`` consumes NDJSON and
log streams chunk-by-chunk (:mod:`repro.serve.wire`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ParseDepthError, ParseError
from repro.locations import LineIndex, Location
from repro.runtime.node import GNode

#: Backends :meth:`repro.Language.incremental` accepts.
BACKENDS = ("vm", "closures")


@dataclass(frozen=True)
class EditStats:
    """What one :meth:`IncrementalSession.apply_edit` did to the memo table."""

    offset: int
    removed: int
    inserted: int
    #: Entries whose examined span overlapped the damage (invalidated).
    dropped: int
    #: Entries right of the damage, relocated by the length delta.
    shifted: int
    #: Entries surviving the edit (shifted ones included).
    retained: int


class IncrementalSession:
    """One text buffer, edited in place and reparsed with memo reuse.

    Build via :meth:`repro.Language.incremental`; see the module docstring
    for the reuse algorithm.  Not thread-safe — one session, one buffer,
    one caller.
    """

    def __init__(
        self,
        language,
        start: str | None = None,
        backend: str = "vm",
        profile: Any = None,
        depth_budget: int | None = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        self._language = language
        self._start = start or language.grammar.start
        self._backend_name = backend
        self._profile = profile
        self._depth_budget = depth_budget
        self._text = ""
        self._source = "<input>"
        self._index = LineIndex("")
        self._recovered = False
        grammar = language.prepared.grammar
        self._with_location = "withLocation" in grammar.options or any(
            production.has("withLocation") for production in grammar
        )
        if backend == "vm":
            from repro.vm import VMParser

            program = language.vm_program(incremental=True)
            self._parser = VMParser(
                program, "", self._source, depth_budget=depth_budget, incremental=True
            )
            self._memo = self._parser._memo
            self._run = self._run_vm
        else:
            from repro.interp.closures import ClosureParser

            self._closures = ClosureParser(
                grammar, chunked=language.prepared.chunked_memo, incremental=True
            )
            self._state = self._closures.incremental_state("", self._source)
            self._memo = self._state.memo
            self._run = self._run_closures

    # -- backend adapters -----------------------------------------------------

    def _run_vm(self) -> Any:
        return self._parser.parse(self._start)

    def _run_closures(self) -> Any:
        from repro.runtime.base import recursion_budget

        with recursion_budget(self._depth_budget):
            return self._closures.reparse(self._state, self._start)

    def _rebind(self) -> None:
        target = self._parser if self._backend_name == "vm" else self._state
        target.rebind(self._text, self._index, source=self._source)

    # -- the buffer -----------------------------------------------------------

    @property
    def text(self) -> str:
        """The session's current buffer contents."""
        return self._text

    @property
    def line_index(self) -> LineIndex:
        """The incrementally maintained line index over :attr:`text`."""
        return self._index

    @property
    def last_parse_recovered(self) -> bool:
        """Did the last :meth:`parse` succeed only in the rerun after a
        warm reject?  Always False in a correct build — a warm reject that
        the rerun accepts means a memo entry survived an edit it depended
        on.  The frontier-local rerun re-derives only entries that examined
        text at or beyond the warm pass's farthest failure, so stale entries
        wholly left of it go unnoticed here; the differential edit oracle
        (a cold parse at every step) covers those."""
        return self._recovered

    def memo_entry_count(self) -> int:
        """Memo entries currently stored (retained + rebuilt)."""
        return self._memo.entry_count()

    def set_text(self, text: str, source: str = "<input>") -> "IncrementalSession":
        """Replace the whole buffer, discarding all memoized state."""
        self._text = text
        self._source = source
        self._index = LineIndex(text)
        self._memo.resize(len(text))
        self._rebind()
        return self

    def apply_edit(self, offset: int, removed: int, inserted: str) -> EditStats:
        """Replace ``removed`` characters at ``offset`` with ``inserted``.

        Updates the buffer, splices the line index, drops memo entries whose
        examined span overlaps the damaged range ``[offset, offset+removed)``,
        and shifts the survivors right of it by the length delta (relocating
        any source locations attached to their values).  The next
        :meth:`parse` serves everything retained as memo hits.
        """
        old = self._text
        if not 0 <= offset <= len(old):
            raise ValueError(f"edit offset {offset} outside text of length {len(old)}")
        if removed < 0 or offset + removed > len(old):
            raise ValueError(f"edit removes [{offset}, {offset + removed}) beyond the text")
        hi = offset + removed
        removed_text = old[offset:hi]
        new = old[:offset] + inserted + old[hi:]
        delta = len(inserted) - removed

        old_index = self._index.clone()
        self._index.splice(new, offset, removed, len(inserted))
        self._text = new

        relocate = None
        if self._with_location and not _preserves_locations(delta, removed_text, inserted):
            relocate = _location_relocator(old_index, self._index, hi, delta)

        memo = self._memo
        dropped = memo.drop_range(offset, hi)
        shifted = memo.shift_from(hi, delta, on_value=relocate)
        retained = memo.entry_count()
        self._rebind()
        if self._profile is not None:
            self._profile.record_edit(retained, dropped, shifted)
        return EditStats(
            offset=offset,
            removed=removed,
            inserted=len(inserted),
            dropped=dropped,
            shifted=shifted,
            retained=retained,
        )

    def feed(self, chunk: str) -> "IncrementalSession":
        """Append ``chunk`` to the buffer (a pure-insertion edit at the end).

        Appending damages nothing behind it: only entries that probed the
        old end of input are dropped, so growing a stream and reparsing
        costs work proportional to the new tail, not the buffer.
        """
        self.apply_edit(len(self._text), 0, chunk)
        return self

    # -- parsing --------------------------------------------------------------

    def parse(self) -> Any:
        """Parse the current buffer, serving surviving memo entries.

        Raises :class:`~repro.errors.ParseError` on failure with exactly the
        error a cold parse reports (a warm reject re-derives its failure
        frontier — see the module docstring).
        """
        self._recovered = False
        try:
            value = self._run()
        except ParseDepthError:
            value = self._rerun_cold()
        except ParseError as error:
            value = self._rerun_from(error.offset)
        self._count_parse(True)
        return value

    def _rerun_from(self, frontier: int) -> Any:
        """Re-derive a warm reject whose farthest failure is ``frontier``.

        A recorded failure at ``q`` raises its frame's examined watermark to
        at least ``q + 1``, so an entry whose examined end is ``<= frontier``
        hides only failures below it.  Dropping the spine that reaches past
        the frontier and setting aside every column at or beyond it makes
        the rerun record every failure a cold parse records from the
        frontier on; the set-aside columns are valid for the text, so they
        go back afterwards and the next edit (typically the undo) stays
        warm.
        """
        memo = self._memo
        memo.drop_range(frontier, frontier)
        saved = memo.detach_from(frontier)
        self._rebind()
        try:
            try:
                value = self._run()
            finally:
                memo.reattach(saved)
        except ParseDepthError:
            return self._rerun_cold()
        except ParseError:
            self._count_parse(False)
            raise
        self._recovered = True
        return value

    def _rerun_cold(self) -> Any:
        """The exact path for depth errors: clear the memo, parse cold."""
        self._memo.reset()
        self._rebind()
        try:
            value = self._run()
        except ParseError:
            self._count_parse(False)
            raise
        self._recovered = True
        return value

    def _count_parse(self, accepted: bool) -> None:
        if self._profile is not None:
            self._profile.count_parse(self._text, accepted=accepted)

    def close(self) -> None:
        """Release the memo table's entries (the session stays usable)."""
        self._memo.reset()
        self._rebind()

    def __enter__(self) -> "IncrementalSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _preserves_locations(delta: int, removed_text: str, inserted: str) -> bool:
    """Is the location mapping across this edit the identity?

    True when the edit neither changes the text length nor touches any line
    break: every retained location's (line, column) is then unchanged, and
    the relocation walk can be skipped entirely (the common case for
    editor-style replacements, e.g. renaming an identifier in place).
    ``\\r`` counts as a break character even mid-``\\r\\n``: removing or
    inserting either half re-tokenizes the terminator.
    """
    if delta != 0:
        return False
    for chunk in (removed_text, inserted):
        if "\n" in chunk or "\r" in chunk:
            return False
    return True


def _location_relocator(
    old_index: LineIndex, new_index: LineIndex, hi: int, delta: int
) -> Callable[[Any], None]:
    """A per-value walker that rewrites stale :class:`Location` objects.

    Called by ``shift_from`` on each relocated memo entry's value.  Every
    node inside such a value starts at an old offset >= ``hi`` (the damage
    end), so its new offset is exactly ``old + delta``; the walker maps the
    stale (line, column) back to the old offset via the pre-splice index
    snapshot and forward to the new pair via the post-splice index.  Both
    lookups are O(log lines) binary searches — no text rescan.

    Relocation mutates nodes in place (locations move, identity is shared
    with any previously returned tree — the tree-sitter tradeoff), and it
    is not idempotent, so one ``visited`` identity set per edit guards
    values that share memoized substructure.
    """
    visited: set[int] = set()

    def relocate(value: Any) -> None:
        stack = [value]
        while stack:
            node = stack.pop()
            if isinstance(node, GNode):
                if id(node) in visited:
                    continue
                visited.add(id(node))
                location = node.location
                if location is not None:
                    old_offset = old_index.offset_of(location.line, location.column)
                    if old_offset >= hi:
                        line, column = new_index.line_column(old_offset + delta)
                        node.location = Location(location.source, line, column)
                stack.extend(node.children)
            elif isinstance(node, (tuple, list)):
                if id(node) in visited:
                    continue
                visited.add(id(node))
                stack.extend(node)

    return relocate


# -- streaming ----------------------------------------------------------------


@dataclass(frozen=True)
class FeedRecord:
    """One newline-framed document completed by a :class:`StreamFeeder`.

    ``value``/``error`` are populated only when the feeder was built with a
    parse callable; framing-only feeders (``repro-serve`` submits documents
    to its own worker queue) leave both None.
    """

    index: int
    text: str
    value: Any = None
    error: ParseError | None = None


class StreamFeeder:
    """Frame a chunked character stream into newline-delimited documents.

    ``feed(chunk)`` buffers arbitrary chunk boundaries (a document may span
    many chunks; a chunk may complete many documents) and returns a
    :class:`FeedRecord` per *completed* document, in order; ``end()``
    flushes the unterminated tail.  Documents are 1-indexed per stream —
    ``repro-serve`` uses ``<stream>:<index>`` result ids.  Blank documents
    (empty lines) are skipped, matching the NDJSON wire's blank-line rule.
    A trailing ``\\r`` is stripped, so CRLF-framed streams work unchanged.
    """

    def __init__(self, parse: Callable[[str], Any] | None = None):
        self._parse = parse
        self._buffer = ""
        self._count = 0
        self._ended = False

    @property
    def pending(self) -> str:
        """The buffered, not-yet-terminated tail."""
        return self._buffer

    @property
    def count(self) -> int:
        """Documents completed so far."""
        return self._count

    def feed(self, chunk: str) -> list[FeedRecord]:
        """Buffer ``chunk``; return records for every document it completes."""
        if self._ended:
            raise ValueError("stream already ended")
        self._buffer += chunk
        records: list[FeedRecord] = []
        while True:
            cut = self._buffer.find("\n")
            if cut < 0:
                return records
            line = self._buffer[:cut]
            self._buffer = self._buffer[cut + 1:]
            self._emit(line, records)

    def end(self) -> list[FeedRecord]:
        """Flush the unterminated tail (if any) and seal the stream."""
        if self._ended:
            return []
        self._ended = True
        records: list[FeedRecord] = []
        tail, self._buffer = self._buffer, ""
        self._emit(tail, records)
        return records

    def _emit(self, line: str, records: list[FeedRecord]) -> None:
        if line.endswith("\r"):
            line = line[:-1]
        if not line.strip():
            return
        self._count += 1
        if self._parse is None:
            records.append(FeedRecord(index=self._count, text=line))
            return
        try:
            value = self._parse(line)
        except ParseError as error:
            records.append(FeedRecord(index=self._count, text=line, error=error))
        else:
            records.append(FeedRecord(index=self._count, text=line, value=value))

    def __repr__(self) -> str:
        state = "ended" if self._ended else f"{len(self._buffer)} buffered"
        return f"<StreamFeeder {self._count} documents, {state}>"
