"""Unit tests for the memo-table organizations."""

import random

import pytest

from repro.runtime.memo import (
    _SPAN_CAP,
    ChunkedMemoTable,
    DictMemoTable,
    IncrementalMemoTable,
    make_memo_table,
)

RULES = [f"R{i}" for i in range(20)]


@pytest.mark.parametrize("table_cls", [DictMemoTable, ChunkedMemoTable])
class TestCommonBehavior:
    def test_miss_then_hit(self, table_cls):
        table = table_cls(RULES)
        assert table.get(3, 100) is None
        table.put(3, 100, (105, "value"))
        assert table.get(3, 100) == (105, "value")

    def test_rules_independent(self, table_cls):
        table = table_cls(RULES)
        table.put(0, 5, (6, "a"))
        assert table.get(1, 5) is None
        assert table.get(0, 6) is None

    def test_failure_entries(self, table_cls):
        table = table_cls(RULES)
        table.put(2, 0, (-1, None))
        assert table.get(2, 0) == (-1, None)

    def test_entry_count(self, table_cls):
        table = table_cls(RULES)
        for rule in range(10):
            for pos in range(7):
                table.put(rule, pos, (pos + 1, None))
        assert table.entry_count() == 70

    def test_clear(self, table_cls):
        table = table_cls(RULES)
        table.put(1, 1, (2, "x"))
        table.clear()
        assert table.get(1, 1) is None
        assert table.entry_count() == 0

    def test_size_bytes_grows(self, table_cls):
        table = table_cls(RULES)
        empty = table.size_bytes()
        for pos in range(50):
            table.put(0, pos, (pos + 1, "payload"))
        assert table.size_bytes() > empty

    def test_overwrite(self, table_cls):
        table = table_cls(RULES)
        table.put(0, 0, (1, "a"))
        table.put(0, 0, (2, "b"))
        assert table.get(0, 0) == (2, "b")
        assert table.entry_count() == 1

    def test_reset_returns_same_table(self, table_cls):
        table = table_cls(RULES)
        table.put(1, 1, (2, "x"))
        assert table.reset() is table
        assert table.get(1, 1) is None
        assert table.entry_count() == 0

    def test_reset_then_reuse(self, table_cls):
        table = table_cls(RULES)
        for pos in range(10):
            table.put(0, pos, (pos + 1, "first"))
        table.reset()
        table.put(0, 3, (4, "second"))
        assert table.get(0, 3) == (4, "second")
        assert table.entry_count() == 1
        # stale entries from before the reset never resurface
        assert table.get(0, 4) is None


class TestChunkedSpecifics:
    def test_chunks_allocated_lazily(self):
        table = ChunkedMemoTable(RULES, chunk_size=8)
        table.put(0, 0, (1, None))  # chunk 0 at column 0
        assert table.chunk_count() == 1
        table.put(1, 0, (1, None))  # same chunk
        assert table.chunk_count() == 1
        table.put(8, 0, (1, None))  # chunk 1, same column
        assert table.chunk_count() == 2
        table.put(0, 9, (10, None))  # new column
        assert table.chunk_count() == 3
        assert table.column_count() == 2

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            ChunkedMemoTable(RULES, chunk_size=0)

    def test_single_rule_grammar(self):
        table = ChunkedMemoTable(["Only"])
        table.put(0, 0, (1, "v"))
        assert table.get(0, 0) == (1, "v")

    def test_chunk_size_larger_than_rule_count(self):
        # 3 rules, chunks of 64: one chunk per column, indices still correct.
        table = ChunkedMemoTable(["A", "B", "C"], chunk_size=64)
        for rule in range(3):
            table.put(rule, 7, (8, f"r{rule}"))
        assert [table.get(rule, 7) for rule in range(3)] == [
            (8, "r0"), (8, "r1"), (8, "r2")
        ]
        assert table.chunk_count() == 1
        assert table.column_count() == 1

    def test_reset_keeps_chunk_geometry(self):
        table = ChunkedMemoTable(RULES, chunk_size=4)
        table.put(13, 5, (6, "v"))
        table.reset()
        assert table.column_count() == 0
        table.put(13, 5, (6, "w"))
        assert table.get(13, 5) == (6, "w")
        assert table.chunk_count() == 1


def test_factory():
    assert isinstance(make_memo_table(RULES, chunked=True), ChunkedMemoTable)
    assert isinstance(make_memo_table(RULES, chunked=False), DictMemoTable)


@pytest.mark.parametrize("table_cls", [DictMemoTable, ChunkedMemoTable])
class TestSizeAccounting:
    """entry_count/size_bytes are incremental + cached, never stale."""

    def test_size_bytes_stable_between_mutations(self, table_cls):
        table = table_cls(RULES)
        for pos in range(20):
            table.put(2, pos, (pos + 1, "v"))
        assert table.size_bytes() == table.size_bytes()

    def test_size_bytes_not_stale_after_reset(self, table_cls):
        # Regression: the size cache must be invalidated by reset()/clear(),
        # not keep reporting the pre-reset footprint.
        table = table_cls(RULES)
        empty = table.size_bytes()
        for pos in range(50):
            table.put(0, pos, (pos + 1, "payload"))
        full = table.size_bytes()
        assert full > empty
        table.reset()
        assert table.entry_count() == 0
        assert table.size_bytes() < full

    def test_size_bytes_tracks_refill_after_reset(self, table_cls):
        table = table_cls(RULES)
        for pos in range(50):
            table.put(0, pos, (pos + 1, "payload"))
        full = table.size_bytes()
        table.reset()
        table.put(0, 0, (1, "payload"))
        assert table.entry_count() == 1
        assert table.size_bytes() < full

    def test_clear_resets_counts(self, table_cls):
        table = table_cls(RULES)
        for rule in range(5):
            table.put(rule, 3, (4, None))
        table.clear()
        assert table.entry_count() == 0
        table.put(1, 1, (2, None))
        assert table.entry_count() == 1


class TestChunkedIncrementalCounts:
    def test_counts_match_scan(self):
        # The incremental _entries/_chunks bookkeeping must agree with what a
        # full walk of the columns would find.
        table = ChunkedMemoTable(RULES, chunk_size=4)
        for rule in (0, 3, 4, 19):
            for pos in (0, 7, 7, 100):  # includes an overwrite
                table.put(rule, pos, (pos + 1, None))
        entries = chunks = 0
        for column in table._columns.values():
            for chunk in column.chunks:
                if chunk is not None:
                    chunks += 1
                    entries += sum(1 for slot in chunk if slot is not None)
        assert table.entry_count() == entries
        assert table.chunk_count() == chunks

    def test_chunk_count_not_stale_after_reset(self):
        table = ChunkedMemoTable(RULES, chunk_size=4)
        table.put(0, 0, (1, None))
        table.put(9, 0, (1, None))
        assert table.chunk_count() == 2
        table.reset()
        assert table.chunk_count() == 0
        table.put(0, 0, (1, None))
        assert table.chunk_count() == 1


class RecordingEvents:
    """Minimal sink capturing the raw event stream."""

    def __init__(self):
        self.events = []

    def hit(self, rule, pos, entry):
        self.events.append(("hit", rule, pos))

    def miss(self, rule, pos):
        self.events.append(("miss", rule, pos))

    def store(self, rule, pos, entry):
        self.events.append(("store", rule, pos))


@pytest.mark.parametrize("chunked", [True, False])
class TestEventsSink:
    def test_event_stream(self, chunked):
        sink = RecordingEvents()
        table = make_memo_table(RULES, chunked=chunked, events=sink)
        table.get(3, 7)
        table.put(3, 7, (8, "v"))
        table.get(3, 7)
        assert sink.events == [("miss", 3, 7), ("store", 3, 7), ("hit", 3, 7)]

    def test_instrumented_semantics_unchanged(self, chunked):
        plain = make_memo_table(RULES, chunked=chunked)
        wired = make_memo_table(RULES, chunked=chunked, events=RecordingEvents())
        for table in (plain, wired):
            table.put(1, 2, (3, "x"))
            table.put(5, 0, (-1, None))
        for rule, pos in [(1, 2), (5, 0), (0, 0)]:
            assert plain.get(rule, pos) == wired.get(rule, pos)
        assert plain.entry_count() == wired.entry_count()

    def test_no_sink_no_instance_overrides(self, chunked):
        # Pay-for-what-you-use: without a sink, get/put resolve to the plain
        # class methods — nothing instrumented sits on the instance.
        table = make_memo_table(RULES, chunked=chunked)
        assert "get" not in table.__dict__
        assert "put" not in table.__dict__
        wired = make_memo_table(RULES, chunked=chunked, events=RecordingEvents())
        assert "get" in wired.__dict__ and "put" in wired.__dict__


# -- IncrementalMemoTable summaries under random surgery -----------------------


def assert_summaries_exact(table: IncrementalMemoTable) -> None:
    """``_cnt``, ``_relb``, ``_long`` and ``entry_count()`` equal what a
    scan of ``_cols`` gives; ``drop_range``'s locality rests on them."""
    cols = table._cols
    assert len(cols) == len(table._relb) == len(table._cnt)
    long_spans = set()
    total = 0
    for pos, col in enumerate(cols):
        live = [e for e in col if e is not None] if col is not None else []
        assert col is None or live, f"empty column list kept at {pos}"
        assert table._cnt[pos] == len(live), pos
        widest = max((e[1] for e in live), default=0)
        assert table._relb[pos] == min(widest, _SPAN_CAP), pos
        if widest >= _SPAN_CAP:
            long_spans.add(pos)
        total += len(live)
    assert table._long == long_spans
    assert table.entry_count() == total


def table_contents(table: IncrementalMemoTable) -> dict:
    return {
        (pos, rule): entry
        for pos, col in enumerate(table._cols)
        if col is not None
        for rule, entry in enumerate(col)
        if entry is not None
    }


def random_entry(rng: random.Random):
    rel = rng.randint(_SPAN_CAP, _SPAN_CAP + 120) if rng.random() < 0.1 else rng.randint(0, 12)
    span = -1 if rng.random() < 0.3 else rng.randint(0, rel)
    return ((span, object()), rel)


@pytest.mark.parametrize("seed", range(4))
def test_incremental_table_summaries_under_random_surgery(seed):
    """Seeded put / drop_range / shift_from / detach_from / reattach
    sequences: after every step the summaries match a rescan of the
    columns, and the contents match a dict model of the same operations."""
    rng = random.Random(seed)
    width = 5
    table = IncrementalMemoTable([f"R{i}" for i in range(width)]).resize(300)
    model: dict[tuple[int, int], object] = {}
    saved = saved_model = None
    for _ in range(250):
        length = len(table._cols)
        ops = ["put"] * 6
        ops += ["reattach"] * 2 if saved is not None else ["drop", "shift", "detach"]
        op = rng.choice(ops)
        if op == "put":
            pos, rule = rng.randrange(length), rng.randrange(width)
            if (pos, rule) not in model:  # packrat stores one result per slot
                value = random_entry(rng)
                table.put(rule, pos, value)
                model[(pos, rule)] = value
        elif op == "drop":
            lo = rng.randrange(length)
            hi = min(length - 1, lo + rng.randint(0, 4))
            doomed = {
                (p, r)
                for (p, r), value in model.items()
                if (lo <= p < hi and (p > lo or value[1] > 0)) or (p < lo and p + value[1] > lo)
            }
            assert table.drop_range(lo, hi) == len(doomed)
            for key in doomed:
                del model[key]
        elif op == "shift":
            pos = rng.randrange(length)
            delta = rng.randint(-min(pos, 6), 6)
            moved = sum(1 for p, _ in model if p >= pos)
            assert table.shift_from(pos, delta) == (moved if delta else 0)
            model = {
                (p + delta if p >= pos else p, r): value
                for (p, r), value in model.items()
                if p >= pos or p < pos + min(delta, 0)
            }
        elif op == "detach":
            pos = rng.randrange(length)
            saved = table.detach_from(pos)
            saved_model = {k: v for k, v in model.items() if k[0] >= pos}
            model = {k: v for k, v in model.items() if k[0] < pos}
        else:  # reattach: set-aside entries win over ones stored since
            table.reattach(saved)
            model.update(saved_model)
            saved = saved_model = None
        assert_summaries_exact(table)
        assert table_contents(table) == model
