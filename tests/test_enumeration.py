"""Match-enumeration tests: enumerate_matches vs the naive oracle."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import random_trees
from repro.tpq.enumeration import count_matches, enumerate_matches, iter_matches
from repro.tpq.matching import solution_nodes
from repro.tpq.naive import find_embeddings
from repro.tpq.parser import parse_pattern


def test_enumerate_from_full_tag_lists(small_doc):
    q = parse_pattern("//a[f]//d//e")
    candidates = {tag: list(small_doc.tag_list(tag)) for tag in q.tags()}
    matches = enumerate_matches(q, candidates)
    truth = find_embeddings(small_doc, q)
    assert [tuple(n.start for n in m) for m in matches] == [
        tuple(n.start for n in m) for m in truth
    ]


def test_enumerate_filters_supersets(small_doc):
    """Extra candidates that join with nothing must not produce matches."""
    q = parse_pattern("//b/c")
    candidates = {
        "b": list(small_doc.tag_list("b")),
        # include a non-child c2-style decoy by lying about the tag list
        "c": list(small_doc.tag_list("c")) + list(small_doc.tag_list("g")),
    }
    matches = enumerate_matches(q, candidates)
    assert len(matches) == 1


def test_pc_level_check(recursive_doc):
    q = parse_pattern("//a/e")
    candidates = {tag: list(recursive_doc.tag_list(tag)) for tag in q.tags()}
    matches = enumerate_matches(q, candidates)
    truth = find_embeddings(recursive_doc, q)
    assert len(matches) == len(truth)


def test_missing_tag_raises(small_doc):
    q = parse_pattern("//a//b")
    import pytest
    from repro.errors import PatternError

    with pytest.raises(PatternError):
        enumerate_matches(q, {"a": list(small_doc.tag_list("a"))})


def test_empty_candidates_empty_result(small_doc):
    q = parse_pattern("//a//b")
    assert enumerate_matches(q, {"a": [], "b": []}) == []


QUERIES = [
    "//a//b//c",
    "//a[//b]//c",
    "//a[b]//c/d",
    "//a[//b//c]//d[e]//f",
]


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 500), query=st.sampled_from(QUERIES))
def test_enumerate_equals_naive_on_solution_lists(seed, query):
    doc = random_trees.generate(size=100, max_depth=8, seed=seed)
    pattern = parse_pattern(query)
    sols = solution_nodes(doc, pattern)
    matches = enumerate_matches(pattern, sols)
    truth = find_embeddings(doc, pattern)
    assert [tuple(n.start for n in m) for m in matches] == [
        tuple(n.start for n in m) for m in truth
    ]


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 500), query=st.sampled_from(QUERIES))
def test_count_matches_equals_enumeration(seed, query):
    doc = random_trees.generate(size=100, max_depth=8, seed=seed)
    pattern = parse_pattern(query)
    sols = solution_nodes(doc, pattern)
    assert count_matches(pattern, sols) == len(enumerate_matches(pattern, sols))


def test_iter_matches_order_free(small_doc):
    q = parse_pattern("//a//c")
    candidates = {tag: list(small_doc.tag_list(tag)) for tag in q.tags()}
    assert sorted(
        tuple(n.start for n in m) for m in iter_matches(q, candidates)
    ) == [tuple(n.start for n in m) for m in enumerate_matches(q, candidates)]


# -- differential properties against the naive oracle ---------------------

TAGS = ("a", "b", "c", "d", "e")


@st.composite
def random_patterns(draw):
    """A pattern over distinct tags with random shape and mixed axes."""
    from repro.tpq.pattern import Axis, Pattern, PatternNode

    size = draw(st.sampled_from([1, 2, 3, 4, 4, 5, 5, 5]))
    tags = draw(st.permutations(TAGS))[:size]
    nodes = [PatternNode(tags[0])]
    for i in range(1, size):
        parent = nodes[draw(st.integers(0, i - 1))]
        axis = draw(st.sampled_from([Axis.CHILD, Axis.DESCENDANT]))
        nodes.append(parent.add_child(PatternNode(tags[i], axis)))
    return Pattern(nodes[0])


@st.composite
def candidate_lists(draw, doc, pattern):
    """Per-tag candidate lists in document order: the full tag list (a
    superset of the solutions), the exact solution nodes, a random
    subset, or nothing."""
    solutions = solution_nodes(doc, pattern)
    lists = {}
    for tag in pattern.tags():
        full = list(doc.tag_list(tag))
        kind = draw(st.sampled_from(
            ["full", "full", "solutions", "subset", "subset", "empty"]
        ))
        if kind == "full":
            lists[tag] = full
        elif kind == "solutions":
            lists[tag] = list(solutions[tag])
        elif kind == "subset":
            keep = draw(st.lists(st.booleans(), min_size=len(full),
                                 max_size=len(full)))
            lists[tag] = [node for node, kept in zip(full, keep) if kept]
        else:
            lists[tag] = []
    return lists


def _keys(matches):
    return [tuple(node.start for node in match) for match in matches]


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_iter_matches_equals_naive_on_any_candidates(seed, data):
    """Matches are exactly the oracle's embeddings whose every component
    is a candidate, in lexicographic start order — on recursive trees
    (nested parent regions take the memo path), mixed pc/ad edges,
    empty lists, single-node patterns and superset candidate lists."""
    doc = random_trees.generate(
        size=150, tags=TAGS, max_depth=10, max_fanout=4, seed=seed
    )
    pattern = data.draw(random_patterns())
    lists = data.draw(candidate_lists(doc, pattern))
    allowed = {tag: {node.start for node in nodes}
               for tag, nodes in lists.items()}
    tags = pattern.tags()
    truth = [
        match for match in find_embeddings(doc, pattern)
        if all(node.start in allowed[tag] for tag, node in zip(tags, match))
    ]
    keys = _keys(iter_matches(pattern, lists))
    assert keys == _keys(truth)
    assert keys == sorted(keys)
    assert count_matches(pattern, lists) == len(keys)
    assert _keys(enumerate_matches(pattern, lists)) == keys


def test_single_node_pattern(small_doc):
    q = parse_pattern("//a")
    nodes = list(small_doc.tag_list("a"))
    assert list(iter_matches(q, {"a": nodes})) == [(n,) for n in nodes]
    assert count_matches(q, {"a": nodes}) == len(nodes)


def test_nested_parents_share_memoized_subtrees():
    """Nested ``a`` regions reach the same ``b`` subtree from several
    bindings (the memo path): every pairing is emitted once, in order."""
    from repro.xmltree.document import DocumentBuilder

    builder = DocumentBuilder("nested")
    with builder.element("a"):          # a1
        with builder.element("b"):      # b1
            builder.leaf("c")
        with builder.element("a"):      # a2
            with builder.element("b"):  # b2
                builder.leaf("c")
                builder.leaf("c")
    doc = builder.build()
    q = parse_pattern("//a//b//c")
    candidates = {tag: list(doc.tag_list(tag)) for tag in q.tags()}
    truth = find_embeddings(doc, q)
    assert len(truth) == 5
    assert _keys(iter_matches(q, candidates)) == _keys(truth)
