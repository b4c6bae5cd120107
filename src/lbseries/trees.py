"""Rooted trees and forests: planar and non-planar data model.

Conventions used throughout the package:

* A planar tree stores its children as a tuple in *serialization order*,
  which is the order the children appear in the bracket notation.  The
  planar left-to-right order is the reverse of the stored tuple: grafting
  a new subtree "leftmost" at a vertex appends it to the stored tuple.
  ``_grafted`` is the package's one routine that grafts trees at vertices,
  for the planar and the non-planar products and the pre-Lie operad.
  (All products, coproducts and worked identities in this package are
  consistent with this single orientation.)
* Serialization is the nested-bracket form.  The single vertex is ``[]``,
  a tree is ``[<children>]`` and a forest is its trees joined by spaces.
  The empty forest serializes to the empty string.
* Non-planar trees are represented by a canonical planar embedding whose
  child lists are sorted under a fixed total order (vertex count first,
  then recursively on the sorted child keys).  Forests of non-planar
  trees are sorted multisets under the same order.

All values are immutable, and equal values are one object: each constructor
returns the existing object for its value, so equality and hashing are identity.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import attrgetter
from typing import Sequence


class ForestParseError(ValueError):
    """Malformed bracket input; ``position`` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PlanarTree:
    """An ordered rooted tree; children order is significant."""

    __slots__ = ("children", "vertex_count", "_text", "_canonical")
    _table: dict = {}

    def __new__(cls, children: Sequence["PlanarTree"] = ()):
        children = tuple(children)
        self = cls._table.get(children)
        if self is None:
            self = object.__new__(cls)
            self.children = children
            self.vertex_count = 1 + sum(c.vertex_count for c in children)
            self._text = "[" + "".join(c._text for c in children) + "]"
            self._canonical = None  # its NonPlanarTree, once canonicalize has met it
            self = cls._table.setdefault(children, self)
        return self

    def __reduce__(self):
        return PlanarTree, (self.children,)

    def __repr__(self):
        return f"PlanarTree({self.serialize()!r})"

    def serialize(self) -> str:
        return self._text

    def to_json(self):
        return [c.to_json() for c in self.children]

    @staticmethod
    def from_json(data) -> "PlanarTree":
        return PlanarTree(tuple(PlanarTree.from_json(c) for c in data))


LEAF = PlanarTree()


def _grafted(trees: tuple, target: PlanarTree, memo: dict, root: bool = True) -> dict:
    """Every way of grafting each of ``trees`` at a vertex of ``target``, as
    ``{tree: n}`` with ``int`` counts ``n``, kept in ``memo[(trees, target)]``.

    Each child of the root takes a subsequence of ``trees`` and grafts it
    through this recursion; the trees left over are appended to the root's
    children in reverse order, so the first of them is leftmost.  With
    ``root`` false none is left over: the target is ``b_plus`` of a forest
    whose own vertices take every tree.  The children are met in a loop, so
    only the depth of ``target`` nests calls.
    """
    key = (trees, target)
    out = memo.get(key)
    if out is None:
        k = len(trees)
        # {trees not yet placed, as a bit mask: {new children so far: n}}
        placed = {(1 << k) - 1: {(): 1}}
        last = len(target.children) - 1
        for j, child in enumerate(target.children):
            whole = not root and j == last  # the last child takes what is left
            step: dict = {}
            for mask, partial in placed.items():
                sub = mask
                while True:
                    # ``sub``: the trees that go below ``child``
                    if sub:
                        picked = tuple(trees[i] for i in range(k) if sub >> i & 1)
                        below = _grafted(picked, child, memo)
                    else:
                        below = {child: 1}
                    into = step.setdefault(mask ^ sub, {})
                    for kids, n in partial.items():
                        for grafted, m in below.items():
                            kids_m = kids + (grafted,)
                            into[kids_m] = into.get(kids_m, 0) + n * m
                    if not sub or whole:
                        break
                    sub = (sub - 1) & mask
            placed = step
        out = {}
        for mask, partial in placed.items():
            if mask and not root:
                continue
            at_root = tuple(trees[i] for i in range(k - 1, -1, -1) if mask >> i & 1)
            for kids, n in partial.items():
                tree = PlanarTree(kids + at_root)
                out[tree] = out.get(tree, 0) + n
        memo[key] = out
    return out


class OrderedForest:
    """A finite sequence of planar trees; the empty sequence is the unit."""

    __slots__ = ("trees", "vertex_count", "_text")
    _table: dict = {}

    def __new__(cls, trees: Sequence[PlanarTree] = ()):
        trees = tuple(trees)
        self = cls._table.get(trees)
        if self is None:
            self = object.__new__(cls)
            self.trees = trees
            self.vertex_count = sum(t.vertex_count for t in trees)
            self._text = " ".join(t._text for t in trees)
            self = cls._table.setdefault(trees, self)
        return self

    def __reduce__(self):
        return OrderedForest, (self.trees,)

    def __repr__(self):
        return f"OrderedForest({self.serialize()!r})"

    def __len__(self):
        return len(self.trees)

    @property
    def is_empty(self) -> bool:
        return not self.trees

    def serialize(self) -> str:
        return self._text

    def concat(self, other: "OrderedForest") -> "OrderedForest":
        return OrderedForest(self.trees + other.trees)

    def to_json(self):
        return {"trees": [t.to_json() for t in self.trees]}

    @staticmethod
    def from_json(data) -> "OrderedForest":
        return OrderedForest(tuple(PlanarTree.from_json(t) for t in data["trees"]))


EMPTY_FOREST = OrderedForest()


def built_forest(trees: tuple) -> OrderedForest | None:
    """The ordered forest of the tuple ``trees`` if one was ever built, else
    ``None``; nothing is built or interned.  A character has values only on
    forests that exist, so a product reading one on a right leg it has as a
    tuple of trees looks the leg up here instead of building it."""
    return OrderedForest._table.get(trees)


# bracket text -> the tree it names, for every tree the parser has built.
# Each key is the tree's own ``_text``, and the intern table keeps every
# tree, so an entry lives as long as its tree.
_PARSED: dict = {}


def parse_forest(text: str) -> OrderedForest:
    """Parse nested-bracket notation into an :class:`OrderedForest`.

    Grammar: ``forest := tree*``, ``tree := "[" tree* "]"``; whitespace
    separates top-level trees and is ignored elsewhere between trees.

    A text whose every whitespace-separated word is the bracket text of a
    tree parsed before is read from ``_PARSED``: such a word holds no
    whitespace (``str.split`` and ``str.isspace`` agree on it), so it is
    one whole tree.  Any other text is read one character at a time.
    """
    trees = [_PARSED.get(word) for word in text.split()]
    if None not in trees:
        return OrderedForest(trees)
    trees = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch == "[":
            tree, pos = _read_tree(text, pos)
            trees.append(tree)
        else:
            raise ForestParseError(f"unexpected character {ch!r}", pos)
    return OrderedForest(trees)


def _read_tree(text: str, pos: int) -> tuple[PlanarTree, int]:
    """The tree whose ``[`` is at ``text[pos]``, and the position past its
    ``]``.  A module-level recursion, so a parse leaves no reference cycle
    (a nested function that calls itself holds itself through its cell)."""
    n = len(text)
    pos += 1
    children = []
    while pos < n and text[pos] != "]":
        if text[pos].isspace():
            pos += 1
        elif text[pos] == "[":
            child, pos = _read_tree(text, pos)
            children.append(child)
        else:
            raise ForestParseError("expected '['", pos)
    if pos >= n:
        raise ForestParseError("unbalanced brackets: missing ']'", pos)
    tree = PlanarTree(children)
    _PARSED[tree._text] = tree
    return tree, pos + 1


def parse_tree(text: str) -> PlanarTree:
    """Parse a single planar tree; reject multi-tree input."""
    forest = parse_forest(text)
    if len(forest.trees) != 1:
        raise ForestParseError(
            f"expected exactly one tree, found {len(forest.trees)}", 0
        )
    return forest.trees[0]


class _ForestIndex:
    """Preorder-indexed vertices of a sequence of planar trees (an ordered
    forest's ``trees``) with planar data.

    This is the package's one numbering of vertices: tree by tree, each
    vertex before its children, children in stored order.  ``subtree``
    holds the planar tree rooted at each vertex.
    """

    def __init__(self, trees: Sequence[PlanarTree]):
        self.parent: list[int | None] = []
        self.children: list[list[int]] = []
        self.subtree: list[PlanarTree] = []
        self.roots = [self._walk(t, None) for t in trees]
        self.n = len(self.parent)

    def _walk(self, node: PlanarTree, parent: int | None) -> int:
        my = len(self.parent)
        self.parent.append(parent)
        self.children.append([])
        self.subtree.append(node)
        if parent is not None:
            self.children[parent].append(my)
        for c in node.children:
            self._walk(c, my)
        return my

    def parent_map(self, offset: int = 0) -> dict[int, int | None]:
        """Vertex id to parent id (``None`` at roots), all ids shifted by ``offset``."""
        return {
            offset + v: None if p is None else offset + p
            for v, p in enumerate(self.parent)
        }


def mirror_tree(t: PlanarTree) -> PlanarTree:
    """Reverse every child list (the planar mirror image)."""
    return PlanarTree(tuple(mirror_tree(c) for c in reversed(t.children)))


def mirror_forest(f: OrderedForest) -> OrderedForest:
    """Mirror every tree and reverse the forest order."""
    return OrderedForest(tuple(mirror_tree(t) for t in reversed(f.trees)))


class NonPlanarTree:
    """A rooted tree up to planar embedding, held in canonical form.

    The canonical representative sorts every child list ascending under
    ``sort_key``: vertex count first, then lexicographically on the
    children's own keys.  The table is keyed by the (interned) rep, which
    must be canonical; :func:`canonicalize` takes any embedding to the one
    object.  The sort key is built once, when a tree is first seen, from
    its children's keys.
    """

    __slots__ = ("rep", "vertex_count", "_key")
    _table: dict = {}

    def __new__(cls, rep: PlanarTree):
        self = cls._table.get(rep)
        if self is None:
            self = object.__new__(cls)
            self.rep = rep
            self.vertex_count = rep.vertex_count
            self._key = (rep.vertex_count, tuple(NonPlanarTree(c)._key for c in rep.children))
            self = cls._table.setdefault(rep, self)
        return self

    def __reduce__(self):
        return NonPlanarTree, (self.rep,)

    def sort_key(self):
        return self._key

    def __repr__(self):
        return f"NonPlanarTree({self.serialize()!r})"

    def serialize(self) -> str:
        return self.rep.serialize()


# ``NonPlanarTree.sort_key`` read at C level, for sorting
_sort_key = attrgetter("_key")


def canonicalize(t: PlanarTree) -> NonPlanarTree:
    """Forget the planar embedding of a single tree.  The answer is kept on
    the planar tree (and on its canonical rep), so each is sorted once."""
    tree = t._canonical
    if tree is None:
        children = sorted(map(canonicalize, t.children), key=_sort_key)
        tree = NonPlanarTree(PlanarTree(tuple(c.rep for c in children)))
        t._canonical = tree.rep._canonical = tree
    return tree


class Forest:
    """A multiset of non-planar trees, stored sorted; product is commutative.
    The tree whose root carries the forest (:meth:`planted`) is kept on it,
    once built."""

    __slots__ = ("trees", "vertex_count", "_planted")
    _table: dict = {}

    def __new__(cls, trees: Sequence[NonPlanarTree] = ()):
        trees = tuple(trees)
        if len(trees) > 1:
            trees = tuple(sorted(trees, key=_sort_key))
        self = cls._table.get(trees)
        if self is None:
            self = object.__new__(cls)
            self.trees = trees
            self.vertex_count = sum(t.vertex_count for t in trees)
            self._planted = None
            self = cls._table.setdefault(trees, self)
        return self

    def __reduce__(self):
        return Forest, (self.trees,)

    def __repr__(self):
        return f"Forest({self.serialize()!r})"

    def __len__(self):
        return len(self.trees)

    @property
    def is_empty(self) -> bool:
        return not self.trees

    def serialize(self) -> str:
        return " ".join(t.serialize() for t in self.trees)

    def mul(self, other: "Forest") -> "Forest":
        if not other.trees:
            return self
        if not self.trees:
            return other
        return Forest(self.trees + other.trees)

    __mul__ = mul

    def planted(self) -> NonPlanarTree:
        """B+: the tree whose root carries the forest's trees.  They are
        stored in canonical child order, so no sort is needed."""
        tree = self._planted
        if tree is None:
            tree = self._planted = NonPlanarTree(PlanarTree(tuple(t.rep for t in self.trees)))
        return tree


EMPTY_NP_FOREST = Forest()


def forget_planarity(forest: OrderedForest) -> Forest:
    """Canonicalize each tree and forget the sequence order."""
    return Forest(tuple(canonicalize(t) for t in forest.trees))


def parse_nonplanar_forest(text: str) -> Forest:
    return forget_planarity(parse_forest(text))


def symmetry_factor(t: NonPlanarTree) -> int:
    """Order of the automorphism group of a non-planar rooted tree."""
    return _symmetry_of_rep(t.rep)


def _symmetry_of_rep(rep: PlanarTree) -> int:
    # equal children of a canonical rep are one object, and adjacent
    runs = [(c, len(list(run))) for c, run in itertools.groupby(rep.children)]
    return math.prod(math.factorial(m) * _symmetry_of_rep(c) ** m for c, m in runs)


@lru_cache(maxsize=None)
def enumerate_planar_trees(n: int) -> tuple[PlanarTree, ...]:
    """All planar trees with ``n`` vertices, lexicographic by serialization."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (LEAF,)
    out = [PlanarTree(forest.trees) for forest in enumerate_ordered_forests(n - 1)]
    return tuple(sorted(out, key=PlanarTree.serialize))


@lru_cache(maxsize=None)
def enumerate_ordered_forests(n: int) -> tuple[OrderedForest, ...]:
    """All ordered forests with ``n`` vertices, lexicographic by serialization."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return (EMPTY_FOREST,)
    out = []
    for first_size in range(1, n + 1):
        for tree in enumerate_planar_trees(first_size):
            for rest in enumerate_ordered_forests(n - first_size):
                out.append(OrderedForest((tree,) + rest.trees))
    return tuple(sorted(out, key=OrderedForest.serialize))


@lru_cache(maxsize=None)
def enumerate_nonplanar_trees(n: int) -> tuple[NonPlanarTree, ...]:
    """All non-planar trees with ``n`` vertices, sorted by canonical key:
    B+ of the forests with ``n - 1`` vertices, whose order it keeps."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(map(Forest.planted, enumerate_forests(n - 1)))


@lru_cache(maxsize=None)
def enumerate_forests(n: int) -> tuple[Forest, ...]:
    """All non-planar forests with ``n`` total vertices, lexicographic on
    their trees' sort keys.  Each sorted multiset of trees is built once:
    its smallest tree, then a forest of the other vertices whose trees are
    no smaller."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return (EMPTY_NP_FOREST,)
    out = []
    for size in range(1, n + 1):
        rests = enumerate_forests(n - size)
        for tree in enumerate_nonplanar_trees(size):
            out.extend(
                Forest((tree,) + rest.trees)
                for rest in rests
                if not rest.trees or rest.trees[0]._key >= tree._key
            )
    return tuple(out)
