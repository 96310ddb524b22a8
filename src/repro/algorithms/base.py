"""Shared infrastructure for the evaluation algorithms.

Besides wall-clock time (which the benchmark harness measures), every
algorithm reports machine-independent **work counters** so the paper's
relative results can be checked in a way that does not depend on the host:

* ``elements_scanned`` — sequential cursor advances over stored lists;
* ``pointer_jumps`` / ``entries_skipped`` — materialized-pointer
  dereferences and how many list entries they skipped (the LE/LE_p payoff);
* ``comparisons`` — structural label comparisons performed by join logic;
* ``candidates_added`` — nodes admitted to the intermediate result;
* ``matches`` — output tuples.

:class:`CountingCursor` wraps a storage cursor and attributes every move to
those counters, so all algorithms are instrumented identically.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import EvaluationError
from repro.storage.lists import ListCursor
from repro.storage.pager import IOStats
from repro.storage.records import ElementEntry

#: Exhausted-cursor sentinel: ``start``/``end`` compare greater than every
#: real label, so stream-merging loops need no separate None checks.
_INF = float("inf")


class Mode(enum.Enum):
    """Output-buffering mode (paper Section IV, "Variations")."""

    MEMORY = "memory"
    DISK = "disk"

    @classmethod
    def parse(cls, value: "Mode | str") -> "Mode":
        if isinstance(value, Mode):
            return value
        try:
            return cls(value.strip().lower())
        except ValueError:
            raise EvaluationError(
                f"unknown output mode {value!r}"
                f" (expected one of {[m.value for m in cls]})"
            ) from None


@dataclass
class Counters:
    """Machine-independent work counters for one evaluation run."""

    elements_scanned: int = 0
    pointer_jumps: int = 0
    entries_skipped: int = 0
    comparisons: int = 0
    getnext_calls: int = 0
    candidates_added: int = 0
    intermediate_tuples: int = 0
    flushes: int = 0
    matches: int = 0

    def merge(self, other: "Counters") -> None:
        self.elements_scanned += other.elements_scanned
        self.pointer_jumps += other.pointer_jumps
        self.entries_skipped += other.entries_skipped
        self.comparisons += other.comparisons
        self.getnext_calls += other.getnext_calls
        self.candidates_added += other.candidates_added
        self.intermediate_tuples += other.intermediate_tuples
        self.flushes += other.flushes
        self.matches += other.matches

    def as_dict(self) -> dict[str, int]:
        return {
            "elements_scanned": self.elements_scanned,
            "pointer_jumps": self.pointer_jumps,
            "entries_skipped": self.entries_skipped,
            "comparisons": self.comparisons,
            "getnext_calls": self.getnext_calls,
            "candidates_added": self.candidates_added,
            "intermediate_tuples": self.intermediate_tuples,
            "flushes": self.flushes,
            "matches": self.matches,
        }

    @property
    def work(self) -> int:
        """A single scalar summarizing CPU-side work (for quick ranking)."""
        return (
            self.elements_scanned
            + self.pointer_jumps
            + self.comparisons
            + self.candidates_added
            + self.intermediate_tuples
        )


Match = tuple[ElementEntry, ...]


@dataclass
class EvalResult:
    """Outcome of one query evaluation.

    ``matches`` holds output tuples aligned with the query pattern's
    preorder tags; it is empty when the run was started with
    ``emit_matches=False`` (``match_count`` is always filled in).
    """

    matches: list[Match]
    match_count: int
    counters: Counters
    io: IOStats = field(default_factory=IOStats)
    peak_buffer_entries: int = 0
    peak_buffer_bytes: int = 0
    #: Time spent in the output phase (partition extension + match
    #: enumeration + spill), as opposed to the filtering phase.  The
    #: paper's lambda=1 choice rests on evaluation being CPU-bound; this
    #: split makes the claim observable.
    output_seconds: float = 0.0
    _sorted_matches: list[Match] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _match_keys: list[tuple[int, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def sorted_matches(self) -> list[Match]:
        """Matches in document order (cached; ``matches`` is final)."""
        cached = self._sorted_matches
        if cached is None:
            cached = sorted(
                self.matches, key=lambda m: tuple(e.start for e in m)
            )
            self._sorted_matches = cached
        return cached

    def match_keys(self) -> list[tuple[int, ...]]:
        """Canonical representation used by the differential tests (cached)."""
        cached = self._match_keys
        if cached is None:
            cached = sorted(tuple(e.start for e in m) for m in self.matches)
            self._match_keys = cached
        return cached


class CountingCursor:
    """A :class:`ListCursor` that attributes every move to counters.

    This is the engines' cursor kernel.  ``start``/``end``/``level`` are
    plain attributes holding the head entry's labels as raw ints (``_INF``
    floats once exhausted), so join loops compare numbers without building
    a record object per advance; ``current`` constructs the record on
    demand — engines call it only when a head is actually emitted into a
    match buffer.

    When the underlying list carries packed columns the cursor advances
    over the raw column arrays directly, mirroring the buffer pool's read
    accounting via :meth:`~repro.storage.pager.BufferPool.touch`; otherwise
    every move delegates to the wrapped pool-served :class:`ListCursor`.
    Counter increments live in the shared methods, so fast and slow paths
    report identical work by construction.
    """

    __slots__ = (
        "cursor", "counters", "position", "start", "end",
        "_columns", "_starts", "_ends", "_length", "_touch", "_touch_range",
        "_decoder_id", "_page_ids", "_breaks", "_page", "_page_hi",
    )

    def __init__(self, cursor: ListCursor, counters: Counters):
        self.cursor = cursor
        self.counters = counters
        stored = cursor.list
        columns = stored.columns
        self._columns = columns
        self._length = len(stored)
        self.position = cursor.position
        if columns is None:
            head = cursor.current
            if head is None:
                self.start = _INF
                self.end = _INF
            else:
                self.start = head.start
                self.end = head.end
            return
        self._starts = columns.starts
        self._ends = columns.ends
        self._touch = stored.pager.pool.touch
        self._touch_range = stored.touch_range
        self._decoder_id = stored._decoder_id
        page_ids, breaks = stored.page_map()
        self._page_ids = page_ids
        self._breaks = breaks
        position = self.position
        if position < self._length:
            page = bisect_right(breaks, position, 0, len(page_ids)) - 1
            self._page = page
            self._page_hi = breaks[page + 1]
            self.start = self._starts[position]
            self.end = self._ends[position]
        else:
            self._page = 0
            self._page_hi = 0
            self.start = _INF
            self.end = _INF

    @property
    def current(self):
        """The head entry as a record object (None past the end)."""
        columns = self._columns
        if columns is None:
            return self.cursor.current
        if self.start is _INF:
            return None
        return columns.entry(self.position)

    @property
    def level(self) -> int:
        """Level label of the head entry (head must exist)."""
        columns = self._columns
        if columns is None:
            return self.cursor.current.level
        return columns.levels[self.position]

    @property
    def following(self) -> int:
        """Following pointer of the head entry (linked schemes only)."""
        columns = self._columns
        if columns is None:
            return self.cursor.current.following
        return columns.following[self.position]

    def child_pointer(self, slot: int) -> int:
        """Child pointer ``slot`` of the head entry (linked schemes only)."""
        columns = self._columns
        if columns is None:
            return self.cursor.current.children[slot]
        return columns.children[slot][self.position]

    @property
    def exhausted(self) -> bool:
        return self.start is _INF

    def __len__(self) -> int:
        return self._length

    def advance(self) -> None:
        """Sequential move to the next entry."""
        self.counters.elements_scanned += 1
        columns = self._columns
        if columns is None:
            cursor = self.cursor
            cursor.advance()
            self.position = cursor.position
            head = cursor.current
            if head is None:
                self.start = _INF
                self.end = _INF
            else:
                self.start = head.start
                self.end = head.end
            return
        if self.start is _INF:
            return
        position = self.position + 1
        self.position = position
        if position >= self._length:
            self.start = _INF
            self.end = _INF
            return
        if position >= self._page_hi:
            page = self._page + 1
            self._page = page
            self._page_hi = self._breaks[page + 1]
        self._touch(self._page_ids[self._page], self._decoder_id)
        self.start = self._starts[position]
        self.end = self._ends[position]

    def advance_past(self, bound: int) -> None:
        """Skip-ahead kernel: advance until ``start >= bound``.

        Contract: observable state and counters are byte-identical to the
        sequential skip loop every engine used to inline::

            while self.start < bound:
                self.counters.comparisons += 1
                self.advance()

        so each skipped entry still costs one comparison, one scanned
        element and one logical page read.  On the columnar path the
        landing position is found by bisection over the packed ``starts``
        column and the page reads are accounted in per-page runs via
        :meth:`~repro.storage.pager.BufferPool.touch_run` — O(log n +
        pages crossed) instead of O(entries skipped) Python-level work
        (``touch_range`` on the underlying list).
        """
        columns = self._columns
        if columns is None:
            while self.start < bound:
                self.counters.comparisons += 1
                self.advance()
            return
        start = self.start
        if start is _INF or start >= bound:
            return
        position = self.position
        length = self._length
        target = bisect_left(self._starts, bound, position, length)
        # The sequential loop advances once per entry whose start label is
        # below the bound; running off the end costs one extra (uncounted-
        # touch) advance into the exhausted state.
        steps = target - position if target < length else length - position
        self.counters.comparisons += steps
        self.counters.elements_scanned += steps
        last = target if target < length else length - 1
        self._touch_range(position + 1, last + 1)
        breaks = self._breaks
        page = bisect_right(breaks, last, 0, len(self._page_ids)) - 1
        self._page = page
        self._page_hi = breaks[page + 1]
        self.position = target
        if target < length:
            self.start = self._starts[target]
            self.end = self._ends[target]
        else:
            self.start = _INF
            self.end = _INF

    def restore(self, position: int) -> None:
        """Reposition to ``position`` without attributing any work.

        Suspend/resume support (:mod:`repro.algorithms.preempt`): a
        resumed run rebuilds its cursors at their saved positions, and
        the scan/skip work that originally got them there is already in
        the snapshot's counters — re-counting it here would break the
        resumed-equals-uninterrupted counter contract.  Page residency
        is still mirrored (the reposition touches the landing page), so
        only I/O accounting — never work counters — differs from an
        uninterrupted run.
        """
        columns = self._columns
        if columns is None:
            cursor = self.cursor
            cursor.seek(position)
            self.position = cursor.position
            head = cursor.current
            if head is None:
                self.start = _INF
                self.end = _INF
            else:
                self.start = head.start
                self.end = head.end
            return
        if position >= self._length:
            self.position = self._length
            self._page = 0
            self._page_hi = 0
            self.start = _INF
            self.end = _INF
            return
        self.position = position
        page = bisect_right(self._breaks, position, 0, len(self._page_ids)) - 1
        self._page = page
        self._page_hi = self._breaks[page + 1]
        self._touch(self._page_ids[page], self._decoder_id)
        self.start = self._starts[position]
        self.end = self._ends[position]

    def seek_pointer(self, index: int) -> None:
        """Jump forward via a materialized pointer to entry ``index``.

        Never moves backwards: pointer targets at or before the current
        position are ignored (the cursor discipline of the algorithms only
        skips forward over provably dead entries).
        """
        if index <= self.position:
            return
        self.counters.pointer_jumps += 1
        self.counters.entries_skipped += index - self.position - 1
        columns = self._columns
        if columns is None:
            cursor = self.cursor
            cursor.seek(index)
            self.position = cursor.position
            head = cursor.current
            if head is None:
                self.start = _INF
                self.end = _INF
            else:
                self.start = head.start
                self.end = head.end
            return
        if index >= self._length:
            self.position = self._length
            self.start = _INF
            self.end = _INF
            return
        self.position = index
        page = bisect_right(self._breaks, index, 0, len(self._page_ids)) - 1
        self._page = page
        self._page_hi = self._breaks[page + 1]
        self._touch(self._page_ids[page], self._decoder_id)
        self.start = self._starts[index]
        self.end = self._ends[index]

    def peek(self, index: int):
        return self.cursor.peek(index)


def element_of(entry) -> ElementEntry:
    """Project any stored entry onto its plain element record."""
    if isinstance(entry, ElementEntry):
        return entry
    return entry.element


def total_list_length(lists: Sequence) -> int:
    return sum(len(stored) for stored in lists)
