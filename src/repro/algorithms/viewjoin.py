"""ViewJoin (paper Section IV): holistic TPQ evaluation over view segments.

The evaluation follows Algorithm 1:

1. compute the view-segmented query Q' (:mod:`segmentation`);
2. stream the per-tag lists of the Q' tags with one cursor each, produce
   solution nodes in document order via a segment-level ``get_next``
   (Function 3), and collect them in the DAG buffer ``F``;
3. when a new Q'-root solution falls outside the current partition, extend
   ``F`` to the query tags outside Q' via the views' materialized pointers
   (or pager-accounted binary search under the element scheme) and emit the
   partition's matches.

Skipping (``advance_pointers``, Function 4) dereferences following and
child pointers to jump cursors over entries that are provably dead.  Two
safety guards tighten the paper's pseudocode (documented in DESIGN.md §6):

* a following-pointer jump is taken only when the view node has no parent
  in its view — for parent-constrained nodes the pointer's
  same-lowest-ancestor group may hop over live entries, so those cursors
  advance sequentially;
* a child-pointer refresh is taken only when no buffered parent candidate
  region can still cover the entries being skipped
  (:meth:`DagBuffer.max_buffered_end`), and only across ad view edges.

Both guards only ever *reduce* skipping, never correctness: every engine in
this repository is differentially tested against the naive oracle.
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import Mapping, Sequence

from repro.algorithms.access import TagSource
from repro.algorithms.base import (
    _INF,
    Counters,
    CountingCursor,
    EvalResult,
    Match,
    Mode,
)
from repro.algorithms.dag import DagBuffer
from repro.algorithms.preempt import PlanState, QuantumBudget
from repro.algorithms.segmentation import Segment, SegmentedQuery, segment_query
from repro.errors import ContinuationMalformed
from repro.storage.pager import Pager
from repro.tpq.pattern import Axis, Pattern

_solution_start = itemgetter(1)


def viewjoin(
    query: Pattern,
    sources: Mapping[str, TagSource],
    view_patterns: list[Pattern],
    mode: Mode = Mode.MEMORY,
    emit_matches: bool = True,
    spill_pager: Pager | None = None,
    sink=None,
) -> EvalResult:
    """Evaluate ``query`` with ViewJoin over a covering view set.

    Args:
        query: the tree pattern query.
        sources: per-tag access to the materialized views (E, LE or LE_p).
        view_patterns: the covering view patterns (define the segmentation).
        mode: memory- or disk-based output approach.
        emit_matches: materialize output tuples (False counts only).
        spill_pager: pager for the disk-based spill.

    Returns:
        The evaluation result; matches equal those of every other engine.
    """
    run = _ViewJoinRun(
        query, sources, view_patterns, mode, emit_matches, spill_pager,
        sink=sink,
    )
    return run.execute()


def viewjoin_quantum(
    query: Pattern,
    sources: Mapping[str, TagSource],
    view_patterns: list[Pattern],
    mode: Mode = Mode.MEMORY,
    emit_matches: bool = True,
    spill_pager: Pager | None = None,
    budget: QuantumBudget | None = None,
    state: PlanState | None = None,
) -> tuple[EvalResult, PlanState | None]:
    """Run one quantum of a preemptible ViewJoin evaluation.

    With ``state=None`` the run starts fresh; otherwise it resumes the
    given snapshot (which must come from the same query/views/scheme/
    mode — the service's continuation tokens enforce that identity).
    ``budget=None`` (or an unbounded budget) runs to completion.

    Returns ``(result, next_state)``.  ``next_state`` is None when the
    evaluation finished; the result's ``matches`` then hold only this
    quantum's output page, while ``match_count`` / ``counters`` are
    cumulative over all quanta (equal, on the final quantum, to an
    uninterrupted run's — the differential contract of
    ``tests/test_preemption.py``).
    """
    run = _ViewJoinRun(
        query, sources, view_patterns, Mode.parse(mode), emit_matches,
        spill_pager, budget=budget, state=state, preemptible=True,
    )
    return run.run_quantum()


class _ViewJoinRun:
    def __init__(
        self,
        query: Pattern,
        sources: Mapping[str, TagSource],
        view_patterns: list[Pattern],
        mode: Mode,
        emit_matches: bool,
        spill_pager: Pager | None,
        sink=None,
        budget: QuantumBudget | None = None,
        state: PlanState | None = None,
        preemptible: bool = False,
    ):
        self.query = query
        self.sources = sources
        self.seg: SegmentedQuery = segment_query(query, view_patterns)
        self.counters = Counters()
        self._own_spill = False
        if Mode.parse(mode) is Mode.DISK and spill_pager is None:
            spill_pager = Pager(file_backed=True)
            self._own_spill = True
        self.spill_pager = spill_pager if Mode.parse(mode) is Mode.DISK else None
        self.dag = DagBuffer(
            query, self.counters, emit_matches, self.spill_pager, sink=sink
        )
        self.cursors: dict[str, CountingCursor] = {
            tag: sources[tag].cursor(self.counters)
            for tag in self.seg.retained
        }
        # Cached solutions (Function 2 lines 3-5): tag -> cursor position
        # proven to be a solution but not yet admitted to F.
        self.sol: dict[str, int] = {}
        # View nodes with no parent inside their view: their following
        # pointers are unconstrained, hence safe for skip-jumps.
        self._unconstrained = {
            tag
            for tag in self.seg.retained
            if self.seg.view_of(tag).node(tag).parent is None
        }
        # (parent_tag, child_tag) -> child-pointer slot usable for skip
        # jumps, or None; resolved once instead of per refresh.
        self._skip_slots: dict[tuple[str, str], int | None] = {}
        self._extension = self._plan_extension()
        # Preemption state (repro.algorithms.preempt).  Plain runs keep
        # budget=None and never touch the suspension checks' slow side.
        self.budget = budget
        self._preemptible = bool(preemptible or budget is not None
                                 or state is not None)
        self._pending: list[Match] = []
        self._done = False
        self.steps = 0
        self._quantum_steps = 0
        self._quantum_matches = 0
        self._quantum_begin = 0.0
        if state is not None:
            self._restore(state)

    # -- driver (Algorithm 1) ---------------------------------------------------

    def execute(self) -> EvalResult:
        result, state = self.run_quantum()
        assert state is None, "unbudgeted runs cannot suspend"
        return result

    def run_quantum(self) -> tuple[EvalResult, PlanState | None]:
        """Run until done or the quantum budget expires.

        The non-preemptible path (``viewjoin``) goes through here too
        with ``budget=None`` so there is exactly one driver loop — the
        differential preemption tests compare resumed runs against this
        very code, not a near-copy.
        """
        try:
            emitted: list[Match] | None = None
            if self._preemptible:
                self._quantum_steps = 0
                self._quantum_matches = 0
                budget = self.budget
                if budget is not None and budget.max_seconds is not None:
                    self._quantum_begin = time.perf_counter()
                emitted = []
                self._drain_pending(emitted)
            if not self._done and not self._pending:
                self._drive(emitted)
            if self._preemptible and (self._pending or not self._done):
                return self._result(emitted), self.save_state()
            return self._result(emitted), None
        finally:
            if self._own_spill and self.spill_pager is not None:
                self.spill_pager.close()

    def _drive(self, emitted: list[Match] | None) -> None:
        root_tag = self.seg.root_tag
        root_segment = self.seg.root_segment
        root_cursor = self.cursors[root_tag]
        while True:
            if self._quantum_expired():
                return
            result = self._get_next(root_segment)
            if result is None:
                break
            self.steps += 1
            self._quantum_steps += 1
            tag, start = result
            if tag == root_tag:
                if self.dag.partition_root is None:
                    self.dag.set_partition_root(root_cursor)
                elif start > self.dag.partition_end:
                    self._flush(emitted)
                    self.dag.set_partition_root(root_cursor)
            self._add_nodes(tag)
        self._done = True
        self._flush(emitted)

    def _result(self, emitted: list[Match] | None) -> EvalResult:
        dag = self.dag
        return EvalResult(
            matches=dag.matches if emitted is None else emitted,
            match_count=dag.match_count,
            counters=self.counters,
            peak_buffer_entries=dag.peak_entries,
            peak_buffer_bytes=dag.peak_bytes,
            output_seconds=dag.output_seconds,
        )

    # -- preemption (quantum boundary, suspend, resume) --------------------------

    def _quantum_expired(self) -> bool:
        """True when the driver loop must suspend *before* its next step.

        The check sits at the loop top, a consistent point: cursors rest
        on their heads, the open partition is fully described by the DAG
        buffer, and any surplus output page is in ``pending``.  Time is
        measured as a ``perf_counter`` duration since the quantum began,
        and only after at least one step — a quantum always progresses,
        whatever the budget.
        """
        budget = self.budget
        if budget is None:
            return False
        if self._pending:
            return True  # a full output page is waiting: yield it
        steps = self._quantum_steps
        if budget.max_steps is not None and steps >= budget.max_steps:
            return True
        if (
            budget.max_matches is not None
            and self._quantum_matches >= budget.max_matches
        ):
            return True
        if (
            budget.max_seconds is not None
            and steps > 0
            and time.perf_counter() - self._quantum_begin
                >= budget.max_seconds
        ):
            return True
        return False

    def _flush(self, emitted: list[Match] | None) -> None:
        """Flush the open partition; in preemptible mode drain the fresh
        matches into this quantum's page, carrying any surplus beyond the
        output budget as ``pending`` (yielded by later quanta)."""
        self.dag.flush(self._extend)
        if emitted is None:
            return
        fresh = self.dag.matches
        if not fresh:
            return
        self.dag.matches = []
        budget = self.budget
        if budget is not None and budget.max_matches is not None:
            room = budget.max_matches - self._quantum_matches
            room = room if room > 0 else 0
        else:
            room = len(fresh)
        emitted.extend(fresh[:room])
        self._quantum_matches += min(room, len(fresh))
        if room < len(fresh):
            self._pending.extend(fresh[room:])

    def _drain_pending(self, emitted: list[Match]) -> None:
        """Emit carried-over sorted matches, up to the output budget."""
        if not self._pending:
            return
        budget = self.budget
        if budget is not None and budget.max_matches is not None:
            room = budget.max_matches - self._quantum_matches
            room = room if room > 0 else 0
            take = self._pending[:room]
            self._pending = self._pending[room:]
        else:
            take = self._pending
            self._pending = []
        emitted.extend(take)
        self._quantum_matches += len(take)

    def save_state(self) -> PlanState:
        partition_end, buffered = self.dag.save_state()
        return PlanState(
            positions={
                tag: cursor.position for tag, cursor in self.cursors.items()
            },
            sol=dict(self.sol),
            partition_end=partition_end,
            buffered=buffered,
            pending=list(self._pending),
            counters=Counters(**self.counters.as_dict()),
            steps=self.steps,
            done=self._done,
            match_count=self.dag.match_count,
            peak_entries=self.dag.peak_entries,
            output_seconds=self.dag.output_seconds,
        )

    def _restore(self, state: PlanState) -> None:
        """Load a snapshot, accounting-free (see ``CountingCursor.restore``).

        The counters object is mutated in place — the DAG buffer and
        every cursor already hold a reference to it.
        """
        if set(state.positions) != set(self.cursors):
            raise ContinuationMalformed(
                "snapshot cursor tags do not match the planned view set"
            )
        for key, value in state.counters.as_dict().items():
            setattr(self.counters, key, value)
        self.dag.restore_state(
            state.partition_end, state.buffered,
            match_count=state.match_count,
            peak_entries=state.peak_entries,
            output_seconds=state.output_seconds,
        )
        for tag, cursor in self.cursors.items():
            position = state.positions[tag]
            if position > len(cursor):
                raise ContinuationMalformed(
                    f"snapshot position {position} for {tag!r} is past the"
                    f" end of its list ({len(cursor)} entries)"
                )
            cursor.restore(position)
        self.sol = dict(state.sol)
        self._pending = list(state.pending)
        self.steps = state.steps
        self._done = state.done

    # -- get_next (Function 3) -----------------------------------------------------

    def _get_next(self, segment: Segment) -> tuple[str, int] | None:
        """Next solution node reachable through ``segment`` as a
        ``(tag, start)`` pair, or None when the segment can produce no
        further solutions.  Solutions are always current cursor heads, so
        the raw start label identifies the entry without constructing it.

        A None child is skipped rather than propagated: its tags may still
        pair with already-buffered candidates, so sibling segments continue.
        """
        self.counters.getnext_calls += 1
        root_tag = segment.root_tag
        root_cursor = self.cursors[root_tag]
        if segment.is_leaf:
            root_start = root_cursor.start
            if root_start is _INF:
                return None
            return (root_tag, root_start)
        # Note: the paper's Function 3 also short-circuits on a cached
        # solution (sol) for non-leaf segments.  That hides smaller pending
        # solutions in child segments and can flush a partition before they
        # are admitted (DESIGN.md §6), so cached solutions here only exempt
        # their entries from being skipped, never from recursion.

        while True:
            solutions: list[tuple[str, int]] = []
            restart = False
            for child in segment.children:
                settled = self._get_next(child)
                if settled is None:
                    continue
                s_tag, s_start = settled
                if s_tag != child.root_tag:
                    # A deeper blocking solution; propagate for admission.
                    solutions.append(settled)
                    continue
                parent_tag = child.parent_tag
                assert parent_tag is not None
                parent_cursor = self.cursors[parent_tag]
                p_start = parent_cursor.start
                self.counters.comparisons += 1
                if s_start < p_start:
                    child_cursor = self.cursors[s_tag]
                    if self.dag.open_ancestor(
                        parent_tag, child_cursor.start, child_cursor.end
                    ):
                        solutions.append(settled)
                    else:
                        self._advance_segment_root(
                            child.root_tag, parent_tag, p_start
                        )
                        restart = True
                        break
                elif s_start > parent_cursor.end:
                    # parent head cannot contain this (or any later) child
                    # solution: skip dead parent entries via pointers.
                    self._advance_pointers(parent_tag, s_start)
                    restart = True
                    break
                else:
                    solutions.append(settled)
            if not restart:
                break

        for tag in segment.tags:
            head_start = self.cursors[tag].start
            if head_start is not _INF:
                solutions.append((tag, head_start))
        if not solutions:
            return None
        return min(solutions, key=_solution_start)

    # -- add_nodes (Function 2) -------------------------------------------------------

    def _add_nodes(self, tag: str) -> None:
        """Admit the Q' subtree of ``tag`` to F in top-down order.

        A node whose cursor starts after its (already advanced) parent
        cursor may belong under a later parent candidate: it is cached as a
        known solution (``sol``) instead, and get_next short-circuits on it.
        """
        root_tag = self.seg.root_tag
        for qi in self.seg.subtree_tags(tag):
            cursor = self.cursors[qi]
            if cursor.start is _INF:
                continue
            if qi != root_tag:
                parent_cursor = self.cursors[self.seg.parent_of[qi]]
                parent_start = parent_cursor.start
                self.counters.comparisons += 1
                if parent_start is not _INF and cursor.start > parent_start:
                    self.sol[qi] = cursor.position
                    break
            self.dag.add(qi, cursor.current)
            self.sol.pop(qi, None)
            cursor.advance()

    # -- skipping (Function 4) -----------------------------------------------------------

    def _advance_segment_root(
        self, tag: str, parent_tag: str, bound: float
    ) -> None:
        """Advance a child-segment root past entries that start before the
        parent head and have no buffered parent candidate (lines 15-16)."""
        cursor = self.cursors[tag]
        cursor.advance()
        while cursor.start < bound:
            self.counters.comparisons += 1
            if self.dag.open_ancestor(parent_tag, cursor.start, cursor.end):
                break
            cursor.advance()

    def _advance_pointers(self, parent_tag: str, limit: int) -> None:
        """Skip dead ``parent_tag`` entries (end < limit), then refresh the
        cursors of its Q' descendants via materialized pointers."""
        self._advance_tag_past(parent_tag, limit)
        self._refresh_descendants(parent_tag)

    def _advance_tag_past(self, tag: str, limit: int) -> None:
        """Advance ``tag``'s cursor until its head's end reaches ``limit``.

        Entries with ``end < limit`` cannot contain the next (or any later)
        child-segment solution, so they are dead.  When the view node is
        unconstrained its following pointer jumps the dead entry's whole
        subtree (a null pointer proves every remaining entry is a
        descendant of the dead head, exhausting the list); otherwise the
        cursor advances sequentially.
        """
        cursor = self.cursors[tag]
        use_pointers = (
            tag in self._unconstrained and self.sources[tag].has_pointers
        )
        while cursor.start is not _INF:
            self.counters.comparisons += 1
            if cursor.end >= limit:
                break
            if use_pointers:
                target = cursor.following
                if target >= 0:
                    cursor.seek_pointer(target)
                    continue
                if target == -1:  # NULL: remaining entries nest inside head
                    cursor.seek_pointer(len(cursor))
                    continue
                # UNMATERIALIZED (LE_p): the target is adjacent.
            cursor.advance()

    def _refresh_descendants(self, tag: str) -> None:
        """Move the cursors of ``tag``'s Q' descendants up to the freshly
        advanced ancestor context (Function 4 lines 3-13).

        Jump rules (each provably skips only dead entries):

        * only when no buffered parent candidate region still covers the
          entries being skipped;
        * via the parent head's child pointer when the Q' edge is also an
          ad view edge with a materialized pointer;
        * otherwise sequentially up to the parent head's start.
        """
        for qi in self.seg.subtree_tags(tag)[1:]:
            parent_tag = self.seg.parent_of[qi]
            parent_cursor = self.cursors[parent_tag]
            parent_start = parent_cursor.start
            if parent_start is _INF:
                continue
            cursor = self.cursors[qi]
            if cursor.start is _INF:
                continue
            if self.sol.get(qi) == cursor.position:
                continue  # never skip a cached solution
            self.counters.comparisons += 1
            if self.dag.max_buffered_end(parent_tag) > cursor.start:
                continue  # a buffered ancestor may still pair with skipped entries
            target = self._pointer_target(parent_tag, qi)
            if target is not None:
                cursor.seek_pointer(target)
                continue
            cursor.advance_past(parent_start)

    def _pointer_target(self, parent_tag: str, child_tag: str) -> int | None:
        """Entry index of the parent head's first ``child_tag`` partner, if
        a materialized ad child pointer provides it."""
        key = (parent_tag, child_tag)
        slot = self._skip_slots.get(key, -1)
        if slot == -1:
            slot = self._resolve_skip_slot(parent_tag, child_tag)
            self._skip_slots[key] = slot
        if slot is None:
            return None
        target = self.cursors[parent_tag].child_pointer(slot)
        if target < 0:
            return None
        return target

    def _resolve_skip_slot(self, parent_tag: str, child_tag: str) -> int | None:
        """Child-pointer slot usable for skip jumps on this Q' edge, if any
        (linked scheme, ad view edge directly below ``parent_tag``)."""
        source = self.sources[parent_tag]
        if not source.has_pointers:
            return None
        view = self.seg.view_of(parent_tag)
        if not view.has_tag(child_tag):
            return None
        child_node = view.node(child_tag)
        if child_node.parent is None or child_node.parent.tag != parent_tag:
            return None
        if child_node.axis is not Axis.DESCENDANT:
            return None  # pc pointers may overshoot ad candidates
        return source.child_slot(child_tag)

    # -- flush extension (Algorithm 1 line 10) ----------------------------------------------

    def _plan_extension(self) -> list[tuple[str, str, int | None, tuple]]:
        """The per-partition fetch steps for the query tags outside Q'.

        One ``(tag, view-parent tag, pointer slot, child slots)`` step per
        such tag, parents before children.  ``pointer slot`` is the
        parent's materialized ad child pointer to ``tag`` (None: binary
        search instead); ``child slots`` are the pointer slots of
        ``tag``'s own records that later steps follow.
        """
        retained = set(self.seg.retained)
        steps: list[tuple[str, str, int | None]] = []
        wanted: dict[str, list[int]] = {}
        for view in self.seg.views:
            for qnode in view.nodes:
                if qnode.tag in retained:
                    continue
                assert qnode.parent is not None, "view roots are always in Q'"
                parent_tag = qnode.parent.tag
                parent_source = self.sources[parent_tag]
                slot = (
                    parent_source.child_slot(qnode.tag)
                    if qnode.axis is Axis.DESCENDANT
                    and parent_source.has_pointers
                    else None
                )
                steps.append((qnode.tag, parent_tag, slot))
                if slot is not None and parent_tag not in retained:
                    wanted.setdefault(parent_tag, []).append(slot)
        return [
            (tag, parent_tag, slot, tuple(wanted.get(tag, ())))
            for tag, parent_tag, slot in steps
        ]

    def _extend(self, buffered: Mapping[str, list]) -> dict[str, list]:
        """Fetch the candidate lists of the query tags outside Q'.

        Tags outside Q' were never scanned; their entries are fetched per
        partition from the regions of their view-parent candidates — via
        materialized child pointers under LE/LE_p, or pager-accounted
        binary search under the element scheme (Section III-B advantage 3).
        A buffered parent's pointers come from its record; a fetched
        parent's from the pointer columns read along with it.
        """
        fetched: dict[str, list] = {}
        links: dict[tuple[str, int], Sequence[int]] = {}
        for tag, parent_tag, slot, child_slots in self._extension:
            parents = fetched.get(parent_tag)
            if parents is None:
                parents = buffered.get(parent_tag, ())
                pointers = (
                    None if slot is None
                    else [parent.children[slot] for parent in parents]
                )
            else:
                pointers = None if slot is None else links[parent_tag, slot]
            entries, columns = self.sources[tag].fetch_regions(
                parents, pointers, self.counters, child_slots
            )
            fetched[tag] = entries
            for child_slot, column in zip(child_slots, columns):
                links[tag, child_slot] = column
        return fetched
