"""Planar-side algebra: left grafting, Lie polynomials, Grossman-Larson
product, shuffle algebra and the planar left-cut coproduct.

Left grafting attaches the root(s) of the first argument below a vertex of
the second so that the new edge is leftmost there; with the stored child
order of :mod:`lbseries.trees` that is an append.  It extends to ordered
forests by the usual recursions (derivation in the right argument, the
associator rule in the left argument) and to linear combinations
bilinearly.  The basis-level product is memoized: ``LinComb`` has no
in-place operation, so a cached result is safe to share.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .coeffalg import LinComb, bilinear
from .trees import EMPTY_FOREST, OrderedForest, PlanarTree


def _tree_onto_tree(t1: PlanarTree, t2: PlanarTree) -> LinComb:
    terms = []
    for index in range(t2.vertex_count):
        terms.append((OrderedForest((t2.attach_at(index, t1),)), 1))
    return LinComb(terms)


@lru_cache(maxsize=None)
def _graft_forests(f1: OrderedForest, f2: OrderedForest) -> LinComb:
    if f1.is_empty:
        return LinComb.of(f2)
    if len(f1.trees) == 1:
        t1 = f1.trees[0]
        if f2.is_empty:
            return LinComb.zero()
        head, tail = f2.trees[0], OrderedForest(f2.trees[1:])
        grafted = _tree_onto_tree(t1, head)
        left = grafted.map_basis(lambda w: w.concat(tail))
        right = _graft_forests(OrderedForest((t1,)), tail).map_basis(
            lambda w: OrderedForest((head,)).concat(w)
        )
        return left + right
    head = OrderedForest(f1.trees[:1])
    rest = OrderedForest(f1.trees[1:])
    inner = _graft_forests(rest, f2)
    first = left_graft(LinComb.of(head), inner)
    outer = left_graft(_graft_forests(head, rest), LinComb.of(f2))
    return first - outer


def left_graft(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear left grafting on linear combinations of ordered forests."""
    return bilinear(x, y, _graft_forests)


def concat(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear concatenation product of ordered forests."""
    return bilinear(x, y, lambda a, b: a.concat(b))


def b_plus(forest: OrderedForest) -> PlanarTree:
    """Add a common root above the forest (root's children are reversed)."""
    return PlanarTree(tuple(reversed(forest.trees)))


def b_minus(tree: PlanarTree) -> OrderedForest:
    """Remove the root; inverse of :func:`b_plus`."""
    return OrderedForest(tuple(reversed(tree.children)))


def gl_product(f1: OrderedForest, f2: OrderedForest) -> LinComb:
    """Grossman-Larson product of ordered forests."""
    grafted = _graft_forests(f1, OrderedForest((b_plus(f2),)))
    return grafted.map_basis(lambda w: b_minus(w.trees[0]))


def shuffle(f1: OrderedForest, f2: OrderedForest) -> LinComb:
    """Sum of all interleavings of the two tree sequences."""
    terms = [(w, 1) for w in _shuffle_words(f1.trees, f2.trees)]
    return LinComb(terms)


def _shuffle_words(a: tuple, b: tuple):
    if not a:
        yield OrderedForest(b)
        return
    if not b:
        yield OrderedForest(a)
        return
    for rest in _shuffle_words(a[1:], b):
        yield OrderedForest((a[0],) + rest.trees)
    for rest in _shuffle_words(a, b[1:]):
        yield OrderedForest((b[0],) + rest.trees)


def shuffle_comb(x: LinComb, y: LinComb) -> LinComb:
    return bilinear(x, y, shuffle)


def shuffle_many(forests: Iterable[OrderedForest]) -> LinComb:
    out = LinComb.of(EMPTY_FOREST)
    for f in forests:
        out = bilinear(out, LinComb.of(f), shuffle)
    return out


@lru_cache(maxsize=None)
def delta_shuffle(forest: OrderedForest) -> LinComb:
    """Unshuffling coproduct: sum over complementary subsequences."""
    trees = forest.trees
    n = len(trees)
    terms = []
    for mask in range(1 << n):
        left = tuple(trees[i] for i in range(n) if mask & (1 << i))
        right = tuple(trees[i] for i in range(n) if not mask & (1 << i))
        terms.append(((OrderedForest(left), OrderedForest(right)), 1))
    return LinComb(terms)


@lru_cache(maxsize=None)
def delta_n(forest: OrderedForest) -> LinComb:
    """Planar left-cut coproduct, dual to the Grossman-Larson product.

    Left tensor legs are fully evaluated: components cut from a common
    vertex are concatenated left-to-right and the per-vertex forests are
    then shuffled into linear combinations of forests.  The coproduct of a
    forest is computed through ``b_plus``/``b_minus``.
    """
    terms = []
    for pieces, remainder in _cuts(b_plus(forest)):
        right = b_minus(remainder)
        terms.extend(((w, right), c) for w, c in shuffle_many(pieces).items())
    return LinComb(terms)


def _cuts(tree: PlanarTree):
    """Yield (cut-off forests, remaining tree) over admissible left cuts.

    At each vertex the cut edges form a suffix of the stored child tuple
    (the planar-left block); below a cut edge nothing else is cut.  The
    forest cut from one vertex lists its subtrees in planar left-to-right
    order, i.e. reversed storage order.
    """
    children = tree.children
    k = len(children)
    for split in range(k + 1):
        kept, removed = children[:split], children[split:]
        piece = (
            (OrderedForest(tuple(reversed(removed))),) if removed else ()
        )
        for combo in _cut_combos(kept):
            sub_pieces, sub_trees = combo
            yield piece + sub_pieces, PlanarTree(sub_trees)


def _cut_combos(kept: tuple):
    if not kept:
        yield (), ()
        return
    head, tail = kept[0], kept[1:]
    head_options = list(_cuts(head))
    for tail_pieces, tail_trees in _cut_combos(tail):
        for head_pieces, head_tree in head_options:
            yield head_pieces + tail_pieces, (head_tree,) + tail_trees


class LiePoly:
    """A Lie polynomial of planar trees in its word expansion.

    The canonical form is the expansion inside the concatenation algebra of
    ordered forests via ``[a, b] = ab - ba``; equality, hashing and display
    go through that expansion, so bracket expressions that agree as
    elements compare equal.
    """

    __slots__ = ("expansion", "display", "_hash")

    def __init__(self, expansion: LinComb, display: str | None = None):
        self.expansion = expansion
        self.display = display
        self._hash = hash(("lp", frozenset(expansion.items())))

    @staticmethod
    def zero() -> "LiePoly":
        return LiePoly(LinComb.zero(), "0")

    @staticmethod
    def from_tree(tree: PlanarTree) -> "LiePoly":
        return LiePoly(LinComb.of(OrderedForest((tree,))), tree.serialize())

    def is_zero(self) -> bool:
        return self.expansion.is_zero()

    def __eq__(self, other):
        return isinstance(other, LiePoly) and self.expansion == other.expansion

    def __hash__(self):
        return self._hash

    def __add__(self, other: "LiePoly") -> "LiePoly":
        return LiePoly(self.expansion + other.expansion)

    def __sub__(self, other: "LiePoly") -> "LiePoly":
        return LiePoly(self.expansion - other.expansion)

    def scale(self, c) -> "LiePoly":
        return LiePoly(self.expansion.scale(c))

    def sort_key(self):
        return tuple(
            (f.vertex_count, f.serialize(), str(c))
            for f, c in self.expansion.sorted_items()
        )

    def sign_normalized(self) -> tuple[int, "LiePoly"]:
        """Orient the polynomial so its lexicographically first word is
        positive; returns (sign, canonical representative)."""
        if self.expansion.is_zero():
            return 1, self
        first = min(
            self.expansion.items(),
            key=lambda fc: (fc[0].vertex_count, fc[0].serialize()),
        )
        if first[1] < 0:
            return -1, LiePoly(self.expansion.scale(-1))
        return 1, self

    def serialize(self) -> str:
        if self.display is not None:
            return self.display
        from .coeffalg import format_lincomb

        return format_lincomb(self.expansion)

    def __repr__(self):
        return f"LiePoly({self.serialize()!r})"


def bracket(x: LiePoly, y: LiePoly) -> LiePoly:
    """Commutator ``xy - yx`` in the concatenation algebra."""
    expansion = concat(x.expansion, y.expansion) - concat(y.expansion, x.expansion)
    display = "{" + x.serialize() + ", " + y.serialize() + "}"
    return LiePoly(expansion, display)


def lie_graft(x: LiePoly, y: LiePoly) -> LiePoly:
    """Left grafting of Lie polynomials (agrees with the word-level grafting)."""
    return LiePoly(left_graft(x.expansion, y.expansion))
