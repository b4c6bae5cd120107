"""Series-level layer: truncated dual-basis series, the substitution
endomorphism on forests, its adjoint, and the composition / substitution
products on characters."""

from __future__ import annotations

from fractions import Fraction

from .coeffalg import CharacterMap, LinComb, convolve_through
from .postlie import b_minus, concat, delta_n, left_graft
from .subst import _require_logarithmic, _word_value, delta_w, star_w
from .trees import EMPTY_FOREST, OrderedForest, enumerate_ordered_forests


class TruncatedSeries:
    """A linear combination of ordered forests truncated at a vertex order."""

    __slots__ = ("order", "element")

    def __init__(self, order: int, element: LinComb):
        self.order = int(order)
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
        from .coeffalg import format_lincomb

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


def a_alpha(alpha: CharacterMap, forest: OrderedForest) -> TruncatedSeries:
    """The substitution endomorphism: the unique map fixing concatenation and
    grafting that sends the single vertex to the series of ``alpha``.

    ``alpha`` must be logarithmic, so the single-vertex image is primitive
    and the map sends Lie polynomials to Lie polynomials.
    """
    _require_logarithmic(alpha)
    order = alpha.order
    seed = series_of(alpha)
    cache: dict[OrderedForest, TruncatedSeries] = {}

    def rec(w: OrderedForest) -> TruncatedSeries:
        if w in cache:
            return cache[w]
        if w.is_empty:
            out = TruncatedSeries(order, LinComb.of(EMPTY_FOREST))
        elif len(w.trees) == 1:
            out = rec(b_minus(w.trees[0])).graft(seed)
        else:
            out = rec(OrderedForest(w.trees[:1])).mul(rec(OrderedForest(w.trees[1:])))
        cache[w] = out
        return out

    return rec(forest)


def a_alpha_dagger(alpha: CharacterMap, forest: OrderedForest) -> LinComb:
    """Adjoint of the substitution endomorphism, computed through the
    partition coaction with ``alpha`` multiplicative over parts."""
    _require_logarithmic(alpha)
    return LinComb(
        (quotient, c * _word_value(alpha, word))
        for (word, quotient), c in delta_w(forest).items()
    )


def check_adjoint(alpha: CharacterMap, order: int) -> bool:
    """Pairing of the substitution endomorphism against its adjoint."""
    forests = [EMPTY_FOREST]
    for size in range(1, order + 1):
        forests.extend(enumerate_ordered_forests(size))
    images = {w: a_alpha(alpha, w) for w in forests}
    daggers = {w: a_alpha_dagger(alpha, w) for w in forests}
    for w1 in forests:
        for w2 in forests:
            if images[w1].coeff(w2) != daggers[w2].coeff(w1):
                return False
    return True


def compose_lb(beta: CharacterMap, alpha: CharacterMap) -> CharacterMap:
    """Composition convolution of characters through the left-cut coproduct."""
    if beta.order != alpha.order:
        raise ValueError("truncation orders differ")
    return convolve_through(delta_n, beta, alpha, enumerate_ordered_forests, beta.order)


def substitute_lb(alpha: CharacterMap, beta: CharacterMap) -> CharacterMap:
    """Substitution of a logarithmic series into another series' coefficients."""
    return star_w(alpha, beta)
