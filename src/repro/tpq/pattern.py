"""Tree pattern query (TPQ) model.

A pattern is a rooted tree whose nodes are labelled with element types and
whose edges are either parent-child (pc) or ancestor-descendant (ad).
Per the paper's simplifying assumption (Section II), a single pattern has no
duplicate element types, so within one pattern a node is identified by its
tag; :class:`Pattern` enforces this and offers tag-keyed lookups throughout.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from repro.errors import PatternError


class Axis(enum.Enum):
    """The two edge kinds of a TPQ."""

    CHILD = "/"        # pc-edge
    DESCENDANT = "//"  # ad-edge

    @property
    def is_pc(self) -> bool:
        return self is Axis.CHILD

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class PatternNode:
    """A node of a TPQ.

    Attributes:
        tag: element type of the node.
        axis: axis of the incoming edge from the parent (the root's axis is
            the axis connecting it to the document context; views and queries
            in the paper all start with ``//``, i.e. ``Axis.DESCENDANT``).
        parent: the parent pattern node, or None at the root.
        children: child pattern nodes in definition order.
    """

    __slots__ = ("tag", "axis", "parent", "children")

    def __init__(self, tag: str, axis: Axis = Axis.DESCENDANT):
        if not tag:
            raise PatternError("pattern node requires a non-empty tag")
        self.tag = tag
        self.axis = axis
        self.parent: PatternNode | None = None
        self.children: list[PatternNode] = []

    def add_child(self, child: "PatternNode") -> "PatternNode":
        """Attach ``child`` under this node and return it."""
        if child.parent is not None:
            raise PatternError(f"node {child.tag!r} already has a parent")
        child.parent = self
        self.children.append(child)
        return child

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def iter_subtree(self) -> Iterator["PatternNode"]:
        """All nodes of the subtree rooted here, preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PatternNode({self.tag!r}, axis={self.axis.value!r})"


class Pattern:
    """An immutable TPQ over a root :class:`PatternNode`.

    Patterns render back to the XPath fragment via :meth:`to_xpath` and parse
    from it via :func:`repro.tpq.parser.parse_pattern`.
    """

    def __init__(self, root: PatternNode, name: str | None = None):
        self.root = root
        self.name = name
        self._nodes: list[PatternNode] = list(root.iter_subtree())
        self._by_tag: dict[str, PatternNode] = {}
        for node in self._nodes:
            if node.tag in self._by_tag:
                raise PatternError(
                    f"duplicate element type {node.tag!r} in pattern"
                    " (disallowed by the paper's query model)"
                )
            self._by_tag[node.tag] = node

    # -- accessors -----------------------------------------------------------

    @property
    def nodes(self) -> Sequence[PatternNode]:
        """All pattern nodes, preorder."""
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[PatternNode]:
        return iter(self._nodes)

    def tags(self) -> list[str]:
        """Element types in preorder."""
        return [node.tag for node in self._nodes]

    @cached_property
    def branch_slots(self) -> tuple[tuple[tuple[int, bool, bool], ...], ...]:
        """The tree in preorder-slot form: per slot, one
        ``(child slot, pc edge, leaf child)`` triple per child in
        definition order.  Computed once — patterns are immutable."""
        slot_of = {node.tag: k for k, node in enumerate(self._nodes)}
        return tuple(
            tuple(
                (slot_of[child.tag], child.axis.is_pc, child.is_leaf)
                for child in node.children
            )
            for node in self._nodes
        )

    def tag_set(self) -> set[str]:
        return set(self._by_tag)

    def node(self, tag: str) -> PatternNode:
        """The unique node with element type ``tag``."""
        try:
            return self._by_tag[tag]
        except KeyError:
            raise PatternError(f"pattern has no node with tag {tag!r}") from None

    def has_tag(self, tag: str) -> bool:
        return tag in self._by_tag

    def edges(self) -> list[tuple[PatternNode, PatternNode]]:
        """All (parent, child) edges."""
        return [
            (node.parent, node) for node in self._nodes if node.parent is not None
        ]

    def is_path(self) -> bool:
        """True iff the pattern has no branching (a path query/view)."""
        return all(len(node.children) <= 1 for node in self._nodes)

    def leaves(self) -> list[PatternNode]:
        return [node for node in self._nodes if node.is_leaf]

    # -- rendering -------------------------------------------------------------

    def to_xpath(self) -> str:
        """Render the pattern in the ``{/, //, []}`` XPath fragment."""
        return _render(self.root)

    def __str__(self) -> str:
        return self.to_xpath()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = f" name={self.name!r}" if self.name else ""
        return f"Pattern({self.to_xpath()!r}{label})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return _structurally_equal(self.root, other.root)

    def __hash__(self) -> int:
        return hash(self.to_xpath())

    # -- derivation --------------------------------------------------------------

    def subtree(self, tag: str) -> "Pattern":
        """A fresh pattern copying the subtree rooted at node ``tag``."""
        return Pattern(_copy_subtree(self.node(tag)))

    def copy(self, name: str | None = None) -> "Pattern":
        return Pattern(_copy_subtree(self.root), name=name or self.name)


def _render(node: PatternNode) -> str:
    prefix = str(node.axis)
    if not node.children:
        return f"{prefix}{node.tag}"
    # The last child continues the main spine; earlier children become
    # predicates, matching the usual XPath rendering of twigs.
    *predicates, spine = node.children
    rendered = "".join(f"[{_render_predicate(child)}]" for child in predicates)
    return f"{prefix}{node.tag}{rendered}{_render(spine)}"


def _render_predicate(node: PatternNode) -> str:
    # XPath writes a pc-step predicate without the leading slash: a[b]//c.
    text = _render(node)
    if node.axis.is_pc:
        return text[1:]
    return text


def _structurally_equal(a: PatternNode, b: PatternNode) -> bool:
    if a.tag != b.tag or a.axis != b.axis or len(a.children) != len(b.children):
        return False
    # Children order-insensitively: match by tag (tags are unique per pattern).
    b_children = {child.tag: child for child in b.children}
    for child in a.children:
        other = b_children.get(child.tag)
        if other is None or not _structurally_equal(child, other):
            return False
    return True


def _copy_subtree(node: PatternNode) -> PatternNode:
    clone = PatternNode(node.tag, node.axis)
    for child in node.children:
        clone.add_child(_copy_subtree(child))
    return clone


def pattern_from_edges(
    root_tag: str,
    edges: Iterable[tuple[str, str, Axis]],
    name: str | None = None,
) -> Pattern:
    """Build a pattern from ``(parent_tag, child_tag, axis)`` triples.

    Handy for tests and generated workloads. Edges may be listed in any
    order; the parent of each edge must be reachable from ``root_tag``.
    """
    nodes: dict[str, PatternNode] = {root_tag: PatternNode(root_tag)}
    pending = list(edges)
    # Attach edges until fixpoint, to allow arbitrary listing order.
    while pending:
        progressed = False
        remaining: list[tuple[str, str, Axis]] = []
        for parent_tag, child_tag, axis in pending:
            if parent_tag in nodes:
                if child_tag in nodes:
                    raise PatternError(f"duplicate tag {child_tag!r} in edges")
                child = PatternNode(child_tag, axis)
                nodes[parent_tag].add_child(child)
                nodes[child_tag] = child
                progressed = True
            else:
                remaining.append((parent_tag, child_tag, axis))
        if not progressed and remaining:
            missing = sorted({edge[0] for edge in remaining})
            raise PatternError(
                f"edges reference unknown parent tags: {missing}"
            )
        pending = remaining
    return Pattern(nodes[root_tag], name=name)
