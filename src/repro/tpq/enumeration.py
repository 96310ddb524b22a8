"""Output enumeration: expand per-node candidate lists into full matches.

Given a pattern and, for every pattern node, a document-ordered list of
candidate data nodes (any objects carrying ``start``/``end``/``level``),
:func:`enumerate_matches` produces every embedding that can be assembled
from the candidates.  Structural checks are done purely on region labels:

* ad-edge: the child candidate's region nests inside the parent's;
* pc-edge: nesting plus ``child.level == parent.level + 1`` (region labels
  of ancestors have pairwise distinct levels, so this pins the parent).

The routine is output-sensitive: candidates inside a parent's region are
located by binary search, subtrees that yield no match prune the
enumeration immediately, and matches are built as per-branch products of
subtree matches (the factorized form the DAG buffer ``F`` holds them in)
rather than by backtracking over every component of every match.  It is
shared by the tuple-scheme materializer and by every algorithm's final
"output matches" phase, which guarantees all engines emit byte-identical
results whenever their filtered candidate sets agree.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import product
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

from repro.errors import PatternError
from repro.tpq.pattern import Pattern

Entry = TypeVar("Entry")


def enumerate_matches(
    pattern: Pattern,
    candidates: Mapping[str, Sequence[Entry]],
) -> list[tuple[Entry, ...]]:
    """All matches assembled from ``candidates``, sorted by start labels.

    Factorized enumeration.  A match's preorder tuple is its root binding
    followed by one subtree match per child branch, so the matches of a
    bound node are the product of its branch lists.  A branch list holds
    the subtree matches of every child candidate inside the binding's
    region — its ends found by bisecting the child's start labels, with
    the level check on pc edges — in start order.  Leaf children contribute
    their candidates themselves, not singleton tuples, and the tuple of
    ancestor bindings is handed down to where a match gets its last
    component, so each match is built there rather than copied again at
    every level above.

    The subtree matches of a child candidate are memoized only across an
    ad edge whose parent candidates nest: that is the only way a child
    candidate can lie inside several parent bindings (a pc child has one
    parent at its level; disjoint parent regions share no descendants),
    so every other candidate is expanded at most once without a memo.

    Args:
        pattern: the query pattern; output tuples follow ``pattern.tags()``
            (preorder) component order.
        candidates: per-tag candidate lists in document order.

    Returns:
        Matches sorted lexicographically by their tuple of start labels:
        candidate lists are in document order, and a product of sorted
        branch lists comes out in that order, so no sort is needed.
    """
    nodes = pattern.nodes  # preorder, aligned with pattern.tags()
    try:
        pools = [candidates[node.tag] for node in nodes]
    except KeyError:
        missing = [node.tag for node in nodes if node.tag not in candidates]
        raise PatternError(
            f"candidate lists missing for tags {missing}"
        ) from None
    shape = pattern.branch_slots
    # Children come after their parent in preorder: build bottom-up.
    expanders: list[Callable | None] = [None] * len(pools)
    for k in range(len(pools) - 1, -1, -1):
        nests = None
        branches = []
        for c, pc, leaf in shape[k]:
            memo = None
            if not pc and not leaf:
                if nests is None:
                    nests = _regions_nest(pools[k])
                if nests:
                    memo = {}
            pool = pools[c]
            branches.append((
                [entry.start for entry in pool], pool, pc, expanders[c], memo,
            ))
        if branches:
            expanders[k] = _expander(branches)
    expand = expanders[0]
    if expand is None:
        return [(entry,) for entry in pools[0]]
    matches: list[tuple[Entry, ...]] = []
    for entry in pools[0]:
        matches += expand(entry, ())
    return matches


def iter_matches(
    pattern: Pattern,
    candidates: Mapping[str, Sequence[Entry]],
) -> Iterator[tuple[Entry, ...]]:
    """Iterate over :func:`enumerate_matches` (same matches, same order).

    The matches are built up front: the consumers drain every partition
    anyway, and handing over a finished list skips a generator resume
    per match.
    """
    return iter(enumerate_matches(pattern, candidates))


#: One child branch of a pattern node: the child's start labels and
#: candidates, whether the edge is pc, the child's expander (None for a
#: leaf child) and its memo (None unless the parent's regions nest).
_Branch = tuple


def _subtree_rows(branch: _Branch, entry, prefix: tuple) -> list:
    """``prefix`` followed by each subtree match of every admissible
    child of ``branch`` (a non-leaf child) under the binding ``entry``."""
    column, pool, pc, expand, memo = branch
    lo = bisect_right(column, entry.start)
    hi = bisect_left(column, entry.end, lo)
    part: list = []
    if memo is None and not pc:
        for child in pool[lo:hi]:
            part += expand(child, prefix)
        return part
    level = entry.level + 1
    for j in range(lo, hi):
        child = pool[j]
        if pc and child.level != level:
            continue
        if memo is None:
            part += expand(child, prefix)
            continue
        sub = memo.get(j)
        if sub is None:
            sub = memo[j] = expand(child, ())
        part += [prefix + row for row in sub] if prefix else sub
    return part


def _expander(branches: list[_Branch]) -> Callable:
    """The function ``expand(entry, prefix)`` of a node with these child
    branches: ``prefix`` followed by each subtree match of the binding
    ``entry``, in lexicographic order.

    The prefix travels down to wherever a match gets its last
    component, so a match tuple is built by one operation there instead
    of being copied at every level above.
    """
    if len(branches) == 1 and branches[0][3] is not None:
        branch = branches[0]

        def expand_subtree(entry, prefix: tuple) -> list:
            return _subtree_rows(branch, entry, prefix + (entry,))
        return expand_subtree
    if len(branches) == 1:
        column, pool, pc, __, __ = branches[0]

        def expand_leaf(entry, prefix: tuple) -> list:
            lo = bisect_right(column, entry.start)
            part = pool[lo:bisect_left(column, entry.end, lo)]
            if pc:
                level = entry.level + 1
                part = [child for child in part if child.level == level]
            if not prefix:
                return [(entry, child) for child in part]
            head = prefix + (entry,)
            return [head + (child,) for child in part]
        return expand_leaf
    all_leaves = all(branch[3] is None for branch in branches)

    def expand_product(entry, prefix: tuple) -> list:
        # Leaf branches first: they are cheap to gather and prune the
        # binding before any subtree is expanded.
        parts = []
        start = entry.start
        end = entry.end
        for column, pool, pc, expand, __ in branches:
            if expand is not None:
                parts.append(None)
                continue
            lo = bisect_right(column, start)
            part = pool[lo:bisect_left(column, end, lo)]
            if pc:
                level = entry.level + 1
                part = [child for child in part if child.level == level]
            if not part:
                return []
            parts.append(part)
        head = prefix + (entry,)
        if all_leaves:
            return [head + row for row in product(*parts)]
        # Extend the rows branch by branch; while there is a single row
        # it is handed down to the next subtree branch as its prefix.
        rows = [head]
        for branch, part in zip(branches, parts):
            if part is not None:
                rows = [row + (child,) for row in rows for child in part]
            elif len(rows) == 1:
                rows = _subtree_rows(branch, entry, rows[0])
            else:
                subs = _subtree_rows(branch, entry, ())
                rows = [row + sub for row in rows for sub in subs]
            if not rows:
                return []
        return rows
    return expand_product


def _regions_nest(pool: Sequence) -> bool:
    """True iff some two regions in the document-ordered ``pool`` nest.

    Regions nest or are disjoint, so nesting anywhere shows up between
    neighbours: if ``a`` contains a later ``c``, it also contains every
    region starting between them.
    """
    return any(
        pool[i].end > pool[i + 1].start for i in range(len(pool) - 1)
    )


def count_matches(
    pattern: Pattern,
    candidates: Mapping[str, Sequence[Entry]],
) -> int:
    """Number of matches without materializing them.

    Uses a bottom-up dynamic count: the number of embeddings rooted at a
    candidate is the product over child edges of the sum of counts of
    compatible child candidates.  Linear passes + binary searches, no
    enumeration — the count-only flush (``emit_matches=False``) uses it.
    """
    counts: dict[str, list[int]] = {}
    starts_cache = {
        tag: [entry.start for entry in pool]
        for tag, pool in candidates.items()
    }
    for qnode in reversed(pattern.nodes):
        pool = candidates[qnode.tag]
        node_counts = []
        for entry in pool:
            total = 1
            for child in qnode.children:
                child_pool = candidates[child.tag]
                child_counts = counts[child.tag]
                starts = starts_cache[child.tag]
                lo = bisect_right(starts, entry.start)
                subtotal = 0
                for i in range(lo, len(child_pool)):
                    child_entry = child_pool[i]
                    if child_entry.start >= entry.end:
                        break
                    if child.axis.is_pc and child_entry.level != entry.level + 1:
                        continue
                    subtotal += child_counts[i]
                total *= subtotal
                if total == 0:
                    break
            node_counts.append(total)
        counts[qnode.tag] = node_counts
    return sum(counts[pattern.root.tag])
