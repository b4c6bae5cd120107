import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbseries import (
    CharacterMap,
    LinComb,
    TruncatedSeries,
    a_alpha,
    a_alpha_dagger,
    check_adjoint,
    compose_lb,
    is_exponential,
    is_logarithmic,
    is_primitive_shuffle,
    parse_forest,
    series_of,
    star_w,
    substitute_lb,
)
from lbseries import coeffalg
from lbseries.laws import (
    random_character,
    random_exponential_character,
    random_logarithmic_character,
    run_law,
)
from lbseries.postlie import concat, left_graft
from lbseries.trees import EMPTY_FOREST, enumerate_ordered_forests

pf = parse_forest


def test_series_of_examples():
    delta_dot = CharacterMap(3, 0, [(pf("[]"), 1)])
    series = series_of(delta_dot)
    assert series.element == LinComb.of(pf("[]"))
    remark = CharacterMap(3, 0, [(pf("[[]] []"), 1), (pf("[] [[]]"), -1)])
    assert is_logarithmic(remark)
    element = series_of(remark).element
    assert element == LinComb([(pf("[[]] []"), 1), (pf("[] [[]]"), -1)])
    assert is_primitive_shuffle(element, 3)


def test_logarithmic_series_are_primitive():
    rng = random.Random(21)
    for _ in range(3):
        alpha = random_logarithmic_character(4, rng)
        assert is_primitive_shuffle(series_of(alpha).element, 4)


def test_a_alpha_identity_character():
    delta_dot = CharacterMap(3, 0, [(pf("[]"), 1)])
    for n in range(0, 4):
        for forest in enumerate_ordered_forests(n):
            assert a_alpha(delta_dot, forest).element == LinComb.of(forest)


def test_a_alpha_chain_expansion():
    # alpha sends the vertex to 1 and the 2-chain to c; grafting the seed
    # series onto itself expands, through order three, to
    #   [[]] + c[[][]] + 2c[[[]]]
    c = Fraction(2, 5)
    alpha = CharacterMap(3, 0, [(pf("[]"), 1), (pf("[[]]"), c)])
    result = a_alpha(alpha, pf("[[]]"))
    expected = LinComb(
        [
            (pf("[[]]"), 1),
            (pf("[[][]]"), c),
            (pf("[[[]]]"), 2 * c),
        ]
    )
    assert result == TruncatedSeries(3, expected)


def test_a_alpha_requires_logarithmic():
    """Refused on every call: the cached answer of the shuffle check is
    honoured when it is False."""
    alpha = CharacterMap(2, 0, [(pf("[] []"), 1)])
    beta = random_character(2, random.Random(3))
    for _ in range(2):
        assert not is_logarithmic(alpha)
        with pytest.raises(ValueError):
            a_alpha(alpha, pf("[]"))
        with pytest.raises(ValueError):
            a_alpha_dagger(alpha, pf("[]"))
        with pytest.raises(ValueError):
            star_w(alpha, beta)


def test_the_shuffle_check_runs_once_per_character(monkeypatch):
    checks = []
    check = coeffalg._vanishes_on_shuffles
    monkeypatch.setattr(
        coeffalg, "_vanishes_on_shuffles", lambda alpha: checks.append(alpha) or check(alpha)
    )
    alpha = random_logarithmic_character(3, random.Random(5), support=2)
    beta = random_character(3, random.Random(6))
    for forest in (pf("[]"), pf("[[]]"), pf("[] []")):
        a_alpha(alpha, forest)
        a_alpha_dagger(alpha, forest)
    star_w(alpha, beta)
    assert checks == [alpha]
    # an equal character built anew is checked anew
    twin = CharacterMap(alpha.order, alpha.empty_value, alpha.values)
    assert is_logarithmic(twin) and checks == [alpha, twin]


_FORESTS_TO_5 = [f for n in range(6) for f in enumerate_ordered_forests(n)]


@st.composite
def _truncated_series(draw):
    """A truncated series of order 0..5 with up to six terms, the empty
    forest often among them."""
    order = draw(st.integers(0, 5))
    pool = [f for f in _FORESTS_TO_5 if f.vertex_count <= order]
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), coeffs), max_size=5))
    if draw(st.booleans()):
        terms.append((EMPTY_FOREST, draw(coeffs)))
    return TruncatedSeries(order, LinComb(terms))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_truncated_series(), _truncated_series())
def test_truncated_products_are_the_full_products_truncated(x, y):
    order = min(x.order, y.order)
    assert x.mul(y) == TruncatedSeries(order, concat(x.element, y.element))
    assert x.graft(y) == TruncatedSeries(order, left_graft(x.element, y.element))


def test_a_alpha_preserves_primitives():
    """Linear extension of the substitution endomorphism sends commutators
    (shuffle primitives) to shuffle primitives, degree-wise."""
    rng = random.Random(19)
    alpha = random_logarithmic_character(4, rng, support=2)
    commutator = LinComb([(pf("[] [[]]"), 1), (pf("[[]] []"), -1)])
    image = LinComb()
    for w, c in commutator.items():
        image = image + a_alpha(alpha, w).element.scale(c)
    assert is_primitive_shuffle(image, 4)
    tree_image = a_alpha(alpha, pf("[[][]]")).element
    assert is_primitive_shuffle(tree_image, 4)


def test_a_alpha_is_a_coshuffle_morphism_sample():
    from lbseries.postlie import shuffle

    rng = random.Random(7)
    alpha = random_logarithmic_character(3, rng, support=2)
    pool = [f for n in range(1, 3) for f in enumerate_ordered_forests(n)]
    for a in pool:
        for b in pool:
            lhs = LinComb()
            for w, cw in shuffle(a, b).items():
                lhs = lhs + a_alpha(alpha, w).element.scale(cw)
            rhs = LinComb()
            for wa, ca in a_alpha(alpha, a).element.items():
                for wb, cb in a_alpha(alpha, b).element.items():
                    if wa.vertex_count + wb.vertex_count <= 3:
                        rhs = rhs + shuffle(wa, wb).scale(ca * cb)
            lhs = LinComb((w, c) for w, c in lhs.items() if w.vertex_count <= 3)
            assert lhs == rhs


def test_a_alpha_dagger_examples():
    delta_dot = CharacterMap(3, 0, [(pf("[]"), 1)])
    for n in range(0, 4):
        for forest in enumerate_ordered_forests(n):
            assert a_alpha_dagger(delta_dot, forest) == LinComb.of(forest)
    c = Fraction(3, 4)
    alpha = CharacterMap(2, 0, [(pf("[]"), Fraction(1, 2)), (pf("[[]]"), c)])
    assert a_alpha_dagger(alpha, pf("[]")) == LinComb.of(pf("[]"), Fraction(1, 2))
    assert a_alpha_dagger(alpha, pf("[[]]")) == LinComb(
        [(pf("[[]]"), Fraction(1, 4)), (pf("[]"), c)]
    )


def test_adjoint_identity():
    rng = random.Random(8)
    alpha = random_logarithmic_character(3, rng, support=3)
    assert check_adjoint(alpha, 3)


def test_adjoint_law():
    assert run_law("adjoint", 3).passed


def test_compose_lb_counit_and_vertex():
    rng = random.Random(9)
    alpha = random_character(3, rng)
    counit = CharacterMap(3, 1)
    left = compose_lb(counit, alpha)
    right = compose_lb(alpha, counit)
    for n in range(0, 4):
        for f in enumerate_ordered_forests(n):
            assert left(f) == alpha(f)
            assert right(f) == alpha(f)
    beta = random_character(3, rng)
    composed = compose_lb(beta, alpha)
    dot = pf("[]")
    assert composed(dot) == beta(pf("")) * alpha(dot) + beta(dot) * alpha(pf(""))


def test_compose_lb_associativity():
    rng = random.Random(10)
    a = random_character(3, rng)
    b = random_character(3, rng)
    c = random_character(3, rng)
    lhs = compose_lb(compose_lb(a, b), c)
    rhs = compose_lb(a, compose_lb(b, c))
    for n in range(0, 4):
        for f in enumerate_ordered_forests(n):
            assert lhs(f) == rhs(f)


def test_exponential_group_closure():
    rng = random.Random(11)
    beta = random_exponential_character(3, rng)
    gamma = random_exponential_character(3, rng)
    assert is_exponential(beta) and is_exponential(gamma)
    assert is_exponential(compose_lb(beta, gamma))


def test_substitute_lb_identity_and_exponentiality():
    rng = random.Random(12)
    delta_dot = CharacterMap(3, 0, [(pf("[]"), 1)])
    beta = random_character(3, rng)
    result = substitute_lb(delta_dot, beta)
    for n in range(0, 4):
        for f in enumerate_ordered_forests(n):
            assert result(f) == beta(f)
    alpha = random_logarithmic_character(3, rng, support=2)
    expo = random_exponential_character(3, rng)
    assert is_exponential(substitute_lb(alpha, expo))


def test_substitution_freeness():
    rng = random.Random(13)
    alpha = random_logarithmic_character(3, rng, support=3)
    beta = random_character(3, rng)
    substituted = series_of(substitute_lb(alpha, beta))
    rebuilt = LinComb.of(pf(""), beta(pf("")))
    for n in range(1, 4):
        for f in enumerate_ordered_forests(n):
            rebuilt = rebuilt + a_alpha(alpha, f).element.scale(beta(f))
    assert TruncatedSeries(3, rebuilt) == substituted


def test_substitution_distributes_over_composition():
    rng = random.Random(14)
    alpha = random_logarithmic_character(3, rng, support=2)
    beta = random_character(3, rng)
    gamma = random_character(3, rng)
    lhs = substitute_lb(alpha, compose_lb(beta, gamma))
    rhs = compose_lb(substitute_lb(alpha, beta), substitute_lb(alpha, gamma))
    for n in range(0, 4):
        for f in enumerate_ordered_forests(n):
            assert lhs(f) == rhs(f)
