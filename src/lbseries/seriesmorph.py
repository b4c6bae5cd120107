"""Series-level layer: truncated dual-basis series, the substitution
endomorphism on forests, its adjoint, and the composition / substitution
products on characters."""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .coeffalg import (
    CharacterMap,
    LinComb,
    format_lincomb,
    integer_values,
    pair_legs,
    truncation_order,
)
from .postlie import _cuts_below, _kept_cuts, b_minus, b_plus, concat, left_graft, shuffle
from .subst import _alpha_contraction, _contracted, star_w
from .trees import EMPTY_FOREST, LEAF, OrderedForest, built_forest, enumerate_ordered_forests


class TruncatedSeries:
    """A linear combination of ordered forests truncated at a vertex order."""

    __slots__ = ("order", "element")

    def __init__(self, order: int, element: LinComb):
        self.order = truncation_order(order)
        self.element = LinComb(
            (f, c) for f, c in element.items() if f.vertex_count <= order
        )

    def coeff(self, forest: OrderedForest) -> Fraction:
        return self.element.coeff(forest)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(order, self.element + other.element)

    def scale(self, c) -> "TruncatedSeries":
        return TruncatedSeries(self.order, self.element.scale(c))

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return _truncated_product(concat, self, other)

    def graft(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return _truncated_product(left_graft, self, other)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.element == other.element
        )

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, {format_lincomb(self.element)})"


def _by_degree(element: LinComb) -> dict[int, LinComb]:
    """The homogeneous components of a combination of forests."""
    parts: dict[int, list] = {}
    for f, c in element.items():
        parts.setdefault(f.vertex_count, []).append((f, c))
    return {n: LinComb(terms) for n, terms in parts.items()}


def _truncated_product(product, x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    """``product(x, y)`` truncated at the smaller order.  Concatenation and
    grafting both add vertex counts, so only the pairs of homogeneous
    components whose degrees fit are multiplied: the terms truncation would
    drop are never built."""
    order = min(x.order, y.order)
    ys = _by_degree(y.element)
    terms = (
        term
        for i, xi in _by_degree(x.element).items()
        for j, yj in ys.items()
        if i + j <= order
        for term in product(xi, yj).items()
    )
    return TruncatedSeries(order, LinComb(terms))


def series_of(alpha: CharacterMap) -> TruncatedSeries:
    """The dual-basis series of a character, up to its truncation order."""
    terms = [(EMPTY_FOREST, alpha.empty_value)]
    for size in range(1, alpha.order + 1):
        for forest in enumerate_ordered_forests(size):
            terms.append((forest, alpha(forest)))
    return TruncatedSeries(alpha.order, LinComb(terms))


_VERTEX = OrderedForest((LEAF,))


def a_alpha(alpha: CharacterMap, forest: OrderedForest) -> TruncatedSeries:
    """The substitution endomorphism: the unique map fixing concatenation and
    grafting that sends the single vertex to the series of ``alpha``.

    ``alpha`` must be logarithmic, so the single-vertex image is primitive
    and the map sends Lie polynomials to Lie polynomials.  The images are
    grafted from that seed and kept on alpha, in its contraction
    (``subst._alpha_contraction``), so the calls of a loop over forests
    graft each subforest's image once.
    """
    images = _alpha_contraction(alpha)[3]
    seed = images.get(_VERTEX)
    if seed is None:
        seed = images[_VERTEX] = series_of(alpha)
    return _a_alpha_image(forest, seed, images)


def _a_alpha_image(w: OrderedForest, seed: TruncatedSeries, cache: dict) -> TruncatedSeries:
    """The image of ``w`` under the substitution endomorphism that sends the
    single vertex to ``seed``, with the images met kept in ``cache``."""
    out = cache.get(w)
    if out is None:
        if w.is_empty:
            out = TruncatedSeries(seed.order, LinComb.of(EMPTY_FOREST))
        elif len(w.trees) == 1:
            out = _a_alpha_image(b_minus(w.trees[0]), seed, cache).graft(seed)
        else:
            first = _a_alpha_image(OrderedForest(w.trees[:1]), seed, cache)
            out = first.mul(_a_alpha_image(OrderedForest(w.trees[1:]), seed, cache))
        cache[w] = out
    return out


def a_alpha_dagger(alpha: CharacterMap, forest: OrderedForest) -> LinComb:
    """Adjoint of the substitution endomorphism: the partition coaction of
    ``forest`` with ``alpha`` evaluated multiplicatively on each word of
    parts.  The alpha-contracted recursion of :mod:`lbseries.subst` gives the
    quotients with integer coefficients, so ``delta_w``'s words are never
    built; one division undoes alpha's scaling.  The recursion's memo is
    kept on alpha (``subst._alpha_contraction``), so the calls of a loop
    over forests, and ``star_w`` with alpha, share it."""
    scale, weight, memo, _ = _alpha_contraction(alpha)
    denominator = scale**forest.vertex_count
    contracted = _contracted(forest, weight.get, memo)
    return LinComb((q, Fraction(c, denominator)) for q, c in contracted.items())


def check_adjoint(alpha: CharacterMap, order: int) -> bool:
    """Pairing of the substitution endomorphism against its adjoint: the
    coefficient of ``w2`` in the grafted image of ``w1`` equals that of
    ``w1`` in the adjoint of ``w2``, for all forests up to ``order``.  Both
    sides are compared as maps of their nonzero coefficients, so no pair
    that is zero on both sides is read."""
    forests = [EMPTY_FOREST]
    for size in range(1, order + 1):
        forests.extend(enumerate_ordered_forests(size))
    index = set(forests)
    grafted = {
        (w1, w2): c
        for w1 in forests
        for w2, c in a_alpha(alpha, w1).element.items()
        if w2 in index
    }
    paired = {
        (w1, w2): c
        for w2 in forests
        for w1, c in a_alpha_dagger(alpha, w2).items()
        if w1 in index
    }
    return grafted == paired


def compose_lb(beta: CharacterMap, alpha: CharacterMap) -> CharacterMap:
    """Composition convolution of characters through the left-cut coproduct,
    truncated to the smaller of their orders.

    No ``delta_n`` term is built.  With ``E`` the lcm of beta's
    denominators, its empty value included (``integer_values``), a forest
    ``F = t1...tk`` has the right legs of ``delta_n(F)``, each carrying
    ``E * beta`` on its left legs:

    - the empty right leg, with ``E * beta(F)``;
    - for ``1 <= j < k``, each kept cut ``(R, lefts)`` of the suffix
      ``F[j:]`` (``postlie._kept_cuts``), with ``sum n * shuffled(F[:j], l)``;
    - each cut ``(rb, lb)`` below ``t1``'s root, ``rb`` its right leg
      closed under that root (``postlie._cuts_below``), and kept cut
      ``(R, lk)`` of ``F[1:]``, the right leg ``rb R`` with
      ``sum a * b * shuffled(l, m)``.

    ``shuffled(u, v)`` is ``E * beta(u sh v)``, read once per pair and call;
    so no left leg of ``F`` is expanded into shuffled words, and only
    strictly smaller forests enter the cut recursion.  Its tables carry no
    character, so they stay in the one memo that ``delta_n`` reads too
    (``postlie._CUTS``) and later calls read them again.  A tree of the top
    order gets no table, as no other forest reads it: its cuts, each run
    ``r`` of the forest below its root with a kept cut ``(R, lefts)`` of
    what follows the run, are summed straight into its pairing, the right
    leg ``b_plus(R)`` with ``sum n * shuffled(r, l)``.  Each right leg's
    total is paired with alpha through ``pair_legs``; a leg ``rb R`` is
    looked up as a tuple of trees (``trees.built_forest``), not built, and
    one never built has no alpha value.  Equal to
    ``convolve_through(delta_n, ...)`` (tested up to order 7).
    """
    scale, weight = integer_values(beta, EMPTY_FOREST)
    order = min(beta.order, alpha.order)

    @cache
    def shuffled(u: OrderedForest, v: OrderedForest) -> int:
        return sum(m * weight.get(w, 0) for w, m in shuffle(u, v).items())

    def run_totals(trees: tuple, ends: range):
        """``(R, sum n * shuffled(trees[:j], l))`` for each ``j`` in
        ``ends`` and each kept cut ``(R, lefts)`` of ``trees[j:]``."""
        for j in ends:
            run = OrderedForest(trees[:j])
            for right, lefts in _kept_cuts(OrderedForest(trees[j:])).items():
                total = 0
                for l, n in lefts.items():
                    total += n * shuffled(run, l)
                yield right, total

    def paired(forest: OrderedForest, read) -> int:
        trees = forest.trees
        out = read(EMPTY_FOREST, 0) * weight.get(forest, 0)
        if len(trees) == 1 and forest.vertex_count == order:
            # a top-order tree: no other forest reads its cuts, so they are
            # summed here and kept in no table
            below = b_minus(trees[0]).trees
            for right, total in run_totals(below, range(len(below) + 1)):
                out += read(built_forest((b_plus(right),)), 0) * total
            return out
        for right, total in run_totals(trees, range(1, len(trees))):
            out += read(right, 0) * total
        if trees:
            rest = _kept_cuts(OrderedForest(trees[1:]))
            for rb, lb in _cuts_below(trees[0]).items():
                head = (rb,)
                for rk, lk in rest.items():
                    total = 0
                    for l, a in lb.items():
                        for m, b in lk.items():
                            total += a * b * shuffled(l, m)
                    out += read(built_forest(head + rk.trees), 0) * total
        return out

    return pair_legs(paired, lambda size: scale, alpha, enumerate_ordered_forests, order)


def substitute_lb(alpha: CharacterMap, beta: CharacterMap) -> CharacterMap:
    """Substitution of a logarithmic series into another series' coefficients."""
    return star_w(alpha, beta)
