"""Seeded characters for substitution tests: logarithmic ones with values on
trees of every size and on multi-tree forests, and arbitrary ones, all with
denominators other than one."""

import random
from fractions import Fraction

from lbseries import CharacterMap, LinComb
from lbseries.coeffalg import convolve_through
from lbseries.postlie import LiePoly, bracket, delta_n
from lbseries.subst import delta_w
from lbseries.trees import OrderedForest, enumerate_ordered_forests, enumerate_planar_trees


def fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def lie_character(order: int, rng: random.Random, brackets: int = 12) -> CharacterMap:
    """The coefficient functional of a random Lie polynomial: every planar
    tree up to ``order`` with a random coefficient, plus ``brackets`` nested
    brackets of two or three random trees of at most ``order`` vertices in
    all.  It vanishes on shuffles, so it is logarithmic."""
    comb = LinComb(
        (OrderedForest((t,)), fraction(rng))
        for size in range(1, order + 1)
        for t in enumerate_planar_trees(size)
    )
    for _ in range(brackets):
        sizes = [rng.randint(1, max(2, order // 3)) for _ in range(rng.choice((2, 3)))]
        while sum(sizes) > order:
            sizes.pop()
        if len(sizes) < 2:
            continue
        trees = [LiePoly.from_tree(rng.choice(enumerate_planar_trees(s))) for s in sizes]
        poly = trees[-1]
        for t in reversed(trees[:-1]):
            poly = bracket(t, poly)
        comb = comb + poly.expansion.scale(fraction(rng))
    return CharacterMap(order, 0, comb.items())


def any_character(order: int, rng: random.Random) -> CharacterMap:
    """A random value on every forest up to ``order``, the empty one too."""
    values = [
        (f, fraction(rng)) for size in range(order + 1) for f in enumerate_ordered_forests(size)
    ]
    return CharacterMap(order, 0, values)


def compose_through_delta_n(beta: CharacterMap, alpha: CharacterMap) -> CharacterMap:
    """The composition product as the convolution through ``delta_n``,
    ``beta`` read on the left legs and ``alpha`` on the right legs."""
    return convolve_through(
        delta_n, beta, alpha, enumerate_ordered_forests, min(beta.order, alpha.order)
    )


def star_w_through_delta_w(alpha: CharacterMap, beta: CharacterMap) -> CharacterMap:
    """The substitution product as the convolution through ``delta_w``,
    ``alpha`` multiplicative over the word of parts."""
    return convolve_through(
        delta_w,
        lambda word: alpha.eval_multiplicative(word.parts),
        beta,
        enumerate_ordered_forests,
        min(alpha.order, beta.order),
    )


def dagger_through_delta_w(alpha: CharacterMap, forest: OrderedForest) -> LinComb:
    """The adjoint of the substitution endomorphism as the ``delta_w``
    terms paired with ``alpha`` on their words."""
    return LinComb(
        (quotient, c * alpha.eval_multiplicative(word.parts))
        for (word, quotient), c in delta_w(forest).items()
    )

