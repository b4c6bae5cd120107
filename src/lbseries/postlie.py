"""Planar-side algebra: left grafting, Lie polynomials, Grossman-Larson
product, shuffle algebra and the planar left-cut coproduct, an integer
recursion through the cuts of the forests below each root and of the
suffixes of each forest that ``delta_n`` and ``seriesmorph.compose_lb``
both read from one memo for the process (``_CUTS``), as the cuts carry no
character.

Left grafting attaches the root(s) of the first argument below a vertex of
the second so that the new edge is leftmost there; with the stored child
order of :mod:`lbseries.trees` that is an append.  On ordered forests it is
one closed sum: ``f1 > f2`` adds, for every map from the trees of ``f1`` to
the vertices of ``f2``, the forest ``f2`` with each tree grafted at its
vertex, trees that share a vertex keeping their order in ``f1``, so no tree
lands on another grafted tree and nothing cancels.  One integer recursion
over (trees still to place, target tree) counts the terms
(``trees._grafted``, which the pre-Lie side reads too), and ``left_graft``
and ``gl_product`` turn the counts into a ``LinComb``; grafting extends to
linear combinations bilinearly.  The
basis-level graft is memoized: ``LinComb`` has no in-place operation, so a
cached result is safe to share.
"""

from __future__ import annotations

from functools import lru_cache

from .coeffalg import LinComb, _shuffled_words, bilinear, format_lincomb, leg_terms
from .trees import EMPTY_FOREST, OrderedForest, PlanarTree, _grafted


@lru_cache(maxsize=None)
def _graft_forests(f1: OrderedForest, f2: OrderedForest) -> LinComb:
    """``f1 > f2``: the grafts of ``f1`` onto the vertices of ``f2``, the
    vertices of ``b_plus(f2)`` below its root."""
    grafted = _grafted(f1.trees, b_plus(f2), {}, root=False)
    return LinComb((b_minus(t), n) for t, n in grafted.items())


def left_graft(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear left grafting on linear combinations of ordered forests: on
    forests ``f1 > f2``, the sum over every map from the trees of ``f1`` to
    the vertices of ``f2`` of ``f2`` with each tree grafted leftmost at its
    vertex, trees at one vertex in their ``f1`` order (``f1 > 1`` is zero
    unless ``f1`` is empty)."""
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
    """Grossman-Larson product of ordered forests, ``b_minus(f1 > b_plus(f2))``:
    the trees of ``f1`` also graft at the new root, where they become trees
    of the product's forest, left of ``f2``'s.  The ``LinComb`` is built once,
    from the integer counts."""
    grafted = _grafted(f1.trees, b_plus(f2), {})
    return LinComb((b_minus(t), n) for t, n in grafted.items())


@lru_cache(maxsize=None)
def shuffle(f1: OrderedForest, f2: OrderedForest) -> LinComb:
    """Sum of all interleavings of the two tree sequences (cached, so every
    caller shares a pair's interleavings), built by the interleaving routine
    of the Lyndon-product check (``coeffalg._shuffled_words``)."""
    return LinComb((OrderedForest(w), c) for w, c in _shuffled_words(f1.trees, {f2.trees: 1}))


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


def _shuffled(x: dict, y: dict) -> dict:
    """The shuffle product of two combinations of forests with ``int`` or
    ``LinComb`` coefficients; a sum that cancels is dropped."""
    sums: dict = {}
    for fx, cx in x.items():
        for fy, cy in y.items():
            c = cx * cy
            for w, m in shuffle(fx, fy).items():
                sums[w] = sums.get(w, 0) + c * m
    return {w: c for w, c in sums.items() if c}


_CUTS: dict = {}


def _cuts_below(tree: PlanarTree) -> dict:
    """The planar left cuts of the forest below ``tree``'s root, as
    ``{b_plus(right leg): {left leg: n}}`` with ``int`` multiplicities
    ``n``, kept in ``_CUTS[tree]``: each right leg is keyed closed under
    ``tree``'s root, the one form that :func:`_kept_cuts` and
    ``compose_lb`` read.

    For that forest ``trees``, the cut at the root takes a planar-left run
    ``trees[:j]`` whole as a left leg, shuffled with the left legs of a kept
    cut of the suffix ``trees[j:]`` (:func:`_kept_cuts`).  A right leg holds
    one tree per kept root, so each is met once and only left legs sum.
    The cuts carry no character, so ``_CUTS`` is one memo for the process:
    ``delta_n`` and every ``compose_lb`` call read the same tables, except
    for a tree of the top order, whose cuts ``compose_lb`` sums without a
    table.
    """
    out = _CUTS.get(tree)
    if out is None:
        trees = b_minus(tree).trees
        out = {}
        for j in range(len(trees) + 1):
            run = {OrderedForest(trees[:j]): 1}
            for right, lefts in _kept_cuts(OrderedForest(trees[j:])).items():
                out[b_plus(right)] = _shuffled(run, lefts) if j else lefts
        _CUTS[tree] = out
    return out


def _kept_cuts(forest: OrderedForest) -> dict:
    """The planar left cuts of ``forest`` in which every tree keeps its
    root, as ``{right leg: {left leg: n}}``, kept in ``_CUTS[forest]`` as
    are those of its suffixes.

    Each tree is cut through the forest below its root
    (:func:`_cuts_below`, whose right legs are closed under the root):
    right legs concatenate and left legs shuffle, so a right leg holds as
    many trees as ``forest``.  The suffixes are met from the shortest, in a
    loop, so only the depth of the trees nests calls.
    """
    out = _CUTS.get(forest)
    if out is None:
        trees = forest.trees
        out = {EMPTY_FOREST: {EMPTY_FOREST: 1}}
        for j in range(len(trees) - 1, -1, -1):
            suffix = OrderedForest(trees[j:])
            kept = _CUTS.get(suffix)
            if kept is None:
                # the unit left leg of the empty rest shuffles to lb itself
                kept = _CUTS[suffix] = {
                    OrderedForest((rb,) + rk.trees): _shuffled(lb, lk) if rk.trees else lb
                    for rb, lb in _cuts_below(trees[j]).items()
                    for rk, lk in out.items()
                }
            out = kept
    return out


@lru_cache(maxsize=None)
def delta_n(forest: OrderedForest) -> LinComb:
    """Planar left-cut coproduct, dual to the Grossman-Larson product: the
    cuts below the root of ``b_plus(forest)`` (``_cuts_below``, each right
    leg opened again by ``b_minus``), read with the universal character,
    which sends each left leg to itself.  ``seriesmorph.compose_lb`` reads
    the same recursion, and the same memo of cut tables (``_CUTS``), with
    beta."""
    cuts = _cuts_below(b_plus(forest))
    return leg_terms({b_minus(right): lefts for right, lefts in cuts.items()})


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
