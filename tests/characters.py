"""Seeded characters for substitution tests: logarithmic ones with values on
trees of every size and on multi-tree forests, and arbitrary ones, all with
denominators other than one; a strategy of sparse characters, with values on
a drawn few forests; and the term-by-term oracles that read them."""

import math
import random
from fractions import Fraction

from hypothesis import strategies as st

from lbseries import CharacterMap, LinComb
from lbseries.coeffalg import convolve_through
from lbseries.postlie import LiePoly, bracket, delta_n, shuffle
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


_SPARSE_FORESTS = [f for n in range(1, 7) for f in enumerate_ordered_forests(n)]
_FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def sparse_characters(draw):
    """A character of order 0..6 with values on a drawn few of its forests,
    zero on the rest, and an empty value that is often not an integer."""
    order = draw(st.integers(0, 6))
    pool = [f for f in _SPARSE_FORESTS if f.vertex_count <= order]
    values = draw(st.dictionaries(st.sampled_from(pool), _FRACTIONS, max_size=40)) if pool else {}
    return CharacterMap(order, draw(_FRACTIONS), values)


def eval_multiplicative(character: CharacterMap, factors) -> Fraction:
    """Product of a character's values on a sequence of basis elements (1 on
    none)."""
    return math.prod(map(character, factors), start=Fraction(1))


def _shuffle_pairs(order: int):
    """Each unordered pair of non-empty forests up to ``order`` in all, once:
    shuffle commutes, and both pairwise oracles are symmetric in the pair."""
    for total in range(2, order + 1):
        for left_size in range(1, total // 2 + 1):
            lefts = enumerate_ordered_forests(left_size)
            rights = enumerate_ordered_forests(total - left_size)
            for i, left in enumerate(lefts):
                for right in rights[i:] if 2 * left_size == total else rights:
                    yield left, right


def vanishes_on_shuffle_pairs(alpha: CharacterMap) -> bool:
    """The pairwise oracle of ``is_logarithmic``: zero on the empty forest
    and on the shuffle of each unordered pair of non-empty forests up to the
    order."""
    if alpha.empty_value != 0:
        return False
    pairs = _shuffle_pairs(alpha.order)
    return all(alpha.on_comb(shuffle(left, right)) == 0 for left, right in pairs)


def multiplicative_on_shuffle_pairs(alpha: CharacterMap) -> bool:
    """The pairwise oracle of ``is_exponential``: one on the empty forest
    and ``alpha(u sh v) == alpha(u) * alpha(v)`` for each unordered pair of
    non-empty forests up to the order."""
    if alpha.empty_value != 1:
        return False
    pairs = _shuffle_pairs(alpha.order)
    return all(alpha.on_comb(shuffle(u, v)) == alpha(u) * alpha(v) for u, v in pairs)


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
        lambda word: eval_multiplicative(alpha, word.parts),
        beta,
        enumerate_ordered_forests,
        min(alpha.order, beta.order),
    )


def dagger_through_delta_w(alpha: CharacterMap, forest: OrderedForest) -> LinComb:
    """The adjoint of the substitution endomorphism as the ``delta_w``
    terms paired with ``alpha`` on their words."""
    return LinComb(
        (quotient, c * eval_multiplicative(alpha, word.parts))
        for (word, quotient), c in delta_w(forest).items()
    )

