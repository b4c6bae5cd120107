import gc
import itertools
import random
from fractions import Fraction

import pytest

from lbseries import (
    CharacterMap,
    Forest,
    LinComb,
    a_alpha_dagger,
    canonicalize,
    check_h_operad_duality,
    check_prelie_identity,
    compose_prelie_operad,
    convolve,
    convolve_through,
    delta_ck,
    delta_h,
    graft,
    graft_comb,
    parse_forest,
    parse_nonplanar_forest,
    parse_tree,
    prelie,
    star_w,
)
from lbseries.laws import (
    random_character,
    random_logarithmic_character,
    random_tree_character,
    run_law,
)
from lbseries.trees import _ForestIndex, enumerate_forests, enumerate_nonplanar_trees

from characters import eval_multiplicative
from digests import character_digest, coproduct_digest
from graft_oracle import _graftings
from tree_coproduct_oracle import oracle_delta_ck, oracle_delta_h
from worked_examples import CK_EXAMPLES, GRAFT_EXAMPLE, H_EXAMPLES, PRELIE_OPERAD_EXAMPLE

pnf = parse_nonplanar_forest


def cn(text):
    return canonicalize(parse_tree(text))


def test_graft_worked_example():
    t1, t2, expected = GRAFT_EXAMPLE
    assert graft(t1, t2) == expected


def test_graft_single_vertex():
    assert graft(cn("[]"), cn("[]")) == LinComb.of(cn("[[]]"))


def test_graft_onto_cherry_collects_isomorphic_results():
    result = graft(cn("[]"), cn("[[][]]"))
    expected = LinComb([(cn("[[][][]]"), 1), (cn("[[[]][]]"), 2)])
    assert result == expected
    # independent oracle: attach at each vertex of every planar embedding
    total = sum(result.coeff(t) for t in result.support())
    assert total == 3


def test_graft_matches_the_single_vertex_oracle():
    trees = [t for n in range(1, 6) for t in enumerate_nonplanar_trees(n)]
    assert len(trees) ** 2 == 289
    for t1 in trees:
        for t2 in trees:
            expected = LinComb((canonicalize(t), 1) for t in _graftings(t2.rep, t1.rep))
            assert graft(t1, t2) == expected, (t1, t2)


def test_prelie_identity_exhaustive():
    result = run_law("prelie-identity", 4)
    assert result.passed, result.counterexample


def test_prelie_identity_spot():
    assert check_prelie_identity(cn("[]"), cn("[[]]"), cn("[[][]]"))


def test_operad_worked_example():
    inputs, base, expected = PRELIE_OPERAD_EXAMPLE
    assert compose_prelie_operad(inputs, base) == expected


def test_operad_identities():
    base = cn("[[][]]")
    dots = [cn("[]")] * 3
    assert compose_prelie_operad(dots, base) == LinComb.of(base)
    tau = cn("[[][[]]]")
    assert compose_prelie_operad([tau], cn("[]")) == LinComb.of(tau)


def test_operad_composition_leaves_no_reference_cycle():
    """Composing in the pre-Lie operad leaves nothing to the cyclic garbage
    collector, so ``verify`` run with the collector paused keeps no dead
    recursion frames."""
    base = cn("[[][[]]]")
    inputs = [cn("[[]]"), cn("[]"), cn("[[][]]"), cn("[]")]
    compose_prelie_operad(inputs, base)  # interns what the call meets
    gc.collect()
    gc.disable()
    try:
        compose_prelie_operad(inputs, base, assignment=[3, 1, 0, 2])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_operad_arity_errors():
    with pytest.raises(ValueError):
        compose_prelie_operad([cn("[]")], cn("[[][]]"))
    with pytest.raises(ValueError):
        compose_prelie_operad([cn("[]")] * 3, cn("[[][]]"), assignment=[0, 0, 1])


def test_operad_assignment_permutes_inputs():
    base = cn("[[]]")
    a, b = cn("[[]]"), cn("[]")
    swapped = compose_prelie_operad([a, b], base, assignment=[1, 0])
    direct = compose_prelie_operad([b, a], base)
    assert swapped == direct


def test_operad_matches_the_labeled_composition():
    """The unlabeled image of ``_labeled_compose`` over preorder parent maps,
    as ``operad-assoc`` computes it, on every base up to 4 vertices and every
    tuple of inputs up to 3, with the identity and the reversed assignment."""
    pool = [t for n in range(1, 4) for t in enumerate_nonplanar_trees(n)]
    cases = 0
    for n in range(1, 5):
        for base in enumerate_nonplanar_trees(n):
            base_map = _ForestIndex((base.rep,)).parent_map(1000)
            # keyed by the inputs at the preorder vertices of ``base``
            expected = {}
            for placed in itertools.product(pool, repeat=n):
                maps = [_ForestIndex((t.rep,)).parent_map(10 * v) for v, t in enumerate(placed)]
                labeled = prelie._labeled_compose(maps, base_map)
                expected[placed] = LinComb((prelie._parent_map_shape(m), 1) for m in labeled)
            reverse = list(range(n - 1, -1, -1))
            for inputs, composed in expected.items():
                cases += 1
                assert compose_prelie_operad(inputs, base) == composed, (base, inputs)
                flipped = compose_prelie_operad(inputs, base, reverse)  # last input at vertex 0
                assert flipped == expected[inputs[::-1]], (base, inputs)
    assert cases == 1172


def test_delta_ck_worked_examples():
    for forest, expected in CK_EXAMPLES:
        assert delta_ck(forest) == expected


def test_delta_h_worked_examples():
    for forest, expected in H_EXAMPLES:
        assert delta_h(forest) == expected


# computed by the edge-mask construction of delta_h, before both tree
# coproducts became recursions at the root
DELTA_H_DIGEST_7 = "ff7d35a974d612716ab1c6cb1ae7da8711a2fc85993bf11ce5c549439c04b7dc"
DELTA_CK_DIGEST_7 = "11e58c46d571308d81de1ef802009b9d42957a13ef56916206dcf385f43f9b8c"


def test_delta_h_and_delta_ck_are_pinned_to_order_7():
    assert coproduct_digest(delta_h, enumerate_forests, 7) == DELTA_H_DIGEST_7
    assert coproduct_digest(delta_ck, enumerate_forests, 7) == DELTA_CK_DIGEST_7


# computed by the term-building root recursions, before delta_h and
# delta_ck became the contracted recursions read with the universal character
DELTA_H_DIGEST_8 = "3023eb0f843abf6c32a2875539c327fce3d6b1add0abe1239c8eaf135ca6cd77"
DELTA_CK_DIGEST_8 = "82c98efad13c50d15269bd3e7a4bbe48748d136b7c0a40bfda798c4648c79064"


def test_delta_h_and_delta_ck_are_pinned_to_order_8():
    assert coproduct_digest(delta_h, enumerate_forests, 8) == DELTA_H_DIGEST_8
    assert coproduct_digest(delta_ck, enumerate_forests, 8) == DELTA_CK_DIGEST_8


def test_delta_h_and_delta_ck_match_the_brute_force_oracle():
    """Every edge subset (``delta_h``) and every admissible cut
    (``delta_ck``) of every forest up to order 6."""
    for n in range(7):
        for forest in enumerate_forests(n):
            assert delta_h(forest) == oracle_delta_h(forest), forest
            assert delta_ck(forest) == oracle_delta_ck(forest), forest


def test_delta_ck_coassoc_law():
    assert run_law("ck-coassoc", 4).passed


def test_delta_h_coassoc_and_multiplicativity_law():
    assert run_law("h-coassoc", 4).passed


def test_h_operad_duality():
    for n in range(1, 4):
        for tree in enumerate_nonplanar_trees(n):
            assert check_h_operad_duality(tree)


def test_convolve_counit_is_identity():
    rng = random.Random(1)
    values = []
    for n in range(1, 4):
        for f in enumerate_forests(n):
            values.append((f, Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
    alpha = CharacterMap(3, Fraction(rng.randint(-2, 2)), values)
    counit = CharacterMap(3, 1)
    result = convolve(counit, alpha, "ck")
    for n in range(0, 4):
        for f in enumerate_forests(n):
            assert result(f) == alpha(f)


def test_convolve_h_reads_off_contractions():
    rng = random.Random(2)
    a_dot = Fraction(3, 2)
    a_ladder = Fraction(-1, 3)
    alpha = CharacterMap(2, 0, [(pnf("[]"), a_dot), (pnf("[[]]"), a_ladder)])
    beta_vals = {}
    for n in range(1, 3):
        for f in enumerate_forests(n):
            beta_vals[f] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    beta = CharacterMap(2, 1, beta_vals)
    result = convolve(alpha, beta, "h")
    dot, ladder = pnf("[]"), pnf("[[]]")
    assert result(dot) == a_dot * beta(dot)
    assert result(ladder) == a_ladder * beta(dot) + a_dot**2 * beta(ladder)


def test_convolve_with_unequal_orders_truncates_to_the_smaller():
    rng = random.Random(12)
    for op in ("h", "ck"):
        a = _random_forest_character(4, rng, 0)
        b = _random_forest_character(2, rng, 1)
        result = convolve(a, b, op)
        assert result.order == 2
        assert result == convolve(a.truncated(2), b, op)
        a = _random_forest_character(2, rng, 0)
        b = _random_forest_character(4, rng, 1)
        result = convolve(a, b, op)
        assert result.order == 2
        assert result == convolve(a, b.truncated(2), op)


def test_graft_comb_bilinear():
    x = LinComb([(cn("[]"), 2)])
    y = LinComb([(cn("[]"), 1), (cn("[[]]"), -1)])
    direct = graft_comb(x, y)
    expected = graft(cn("[]"), cn("[]")).scale(2) + graft(cn("[]"), cn("[[]]")).scale(-2)
    assert direct == expected


def _random_forest_character(order, rng, empty):
    values = [
        (f, Fraction(rng.randint(-5, 5), rng.randint(1, 12)))
        for n in range(1, order + 1)
        for f in enumerate_forests(n)
    ]
    return CharacterMap(order, empty, values)


def _convolve_through(a, b, delta):
    """The convolution read term by term off a forest coproduct."""

    def left(forest):
        return eval_multiplicative(a, [Forest((t,)) for t in forest.trees])

    return convolve_through(delta, left, b, enumerate_forests, a.order)


# each brute-force coproduct, with the id of the coproduct it stands for
ORACLES = [
    pytest.param("h", oracle_delta_h, id="h-delta_h"),
    pytest.param("ck", oracle_delta_ck, id="ck-delta_ck"),
]


@pytest.mark.parametrize("op,delta", ORACLES)
def test_convolve_agrees_with_the_coproduct_terms(op, delta):
    """The contraction of ``a`` through the root recursion equals the sum
    over the terms of the brute-force ``delta_h``/``delta_ck``, which share
    no code with it, up to order 7, on ``a`` given on trees or on every
    forest (its values on forests of two or more trees are not read) and on
    ``b`` given on trees or on every forest."""
    rng = random.Random(31)
    for order in (0, 1, 3, 6, 7):
        for a in (
            random_tree_character(order, rng, empty=Fraction(rng.randint(-2, 2))),
            _random_forest_character(order, rng, Fraction(rng.randint(-2, 2), 5)),
        ):
            for b in (
                random_tree_character(order, rng, empty=1),
                _random_forest_character(order, rng, Fraction(rng.randint(-2, 2), 3)),
            ):
                assert convolve(a, b, op) == _convolve_through(a, b, delta)


# computed by the convolution that summed the delta_h/delta_ck terms of
# every tree, before a was carried through the root recursions
CONVOLVE_DIGEST_7 = {
    "h": "a386a58994329917e0a76b7b53918f73187d21738775fc259beddafa66d29b07",
    "ck": "49480efb97c17d19e1ad21a744ea54e071752d728bd8ac03a55f095af953a46f",
}


@pytest.mark.parametrize("op", ["h", "ck"])
def test_convolve_is_pinned_at_order_7(op):
    rng = random.Random(7)
    a = _random_forest_character(7, rng, Fraction(rng.randint(-2, 2)))
    b = _random_forest_character(7, rng, Fraction(rng.randint(-2, 2), 3))
    assert character_digest(convolve(a, b, op)) == CONVOLVE_DIGEST_7[op]


# the same construction at order 8, computed by the convolution whose
# coproduct recursions multiplied from the unit
CONVOLVE_DIGEST_8 = {
    "h": "34b85851d1b706c40f68a673e75ba695789e6b18dd83d462083d80c63f6b5cdd",
    "ck": "06148ce119b8c09da435c73709f41120c1defd7dd9bb076c50e90e11946adc6d",
}


@pytest.mark.parametrize("op", ["h", "ck"])
def test_convolve_is_pinned_at_order_8(op):
    rng = random.Random(7)
    a = _random_forest_character(8, rng, Fraction(rng.randint(-2, 2)))
    b = _random_forest_character(8, rng, Fraction(rng.randint(-2, 2), 3))
    assert character_digest(convolve(a, b, op)) == CONVOLVE_DIGEST_8[op]


@pytest.mark.parametrize("op,delta", ORACLES)
def test_convolve_does_not_build_the_tree_coproducts(op, delta, monkeypatch):
    """``convolve`` builds no coproduct term: neither the tree coproducts
    nor the universal character that they read the recursions with are
    called, and the result still equals the sum over the terms."""
    rng = random.Random(41)
    a = _random_forest_character(5, rng, 0)
    b = _random_forest_character(5, rng, 1)
    expected = _convolve_through(a, b, delta)

    def refuse(*args):
        raise AssertionError("convolve built a coproduct term")

    for name in ("delta_h", "delta_ck", "_universal_leg"):
        monkeypatch.setattr(prelie, name, refuse)
    assert convolve(a, b, op) == expected


@pytest.mark.parametrize("op", ["h", "ck"])
def test_convolve_frees_its_memo_on_return(op):
    """The memo dies with the call: no reference cycle leaves it to the
    cyclic garbage collector."""
    rng = random.Random(43)
    a = _random_forest_character(5, rng, 0)
    b = _random_forest_character(5, rng, 1)
    convolve(a, b, op)  # interns every tree and forest the call meets
    gc.collect()
    gc.disable()
    try:
        convolve(a, b, op)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("product", ["star_w", "a_alpha_dagger"])
def test_star_w_frees_its_memo_on_return(product):
    """The memo of the alpha-contracted recursion dies with alpha, which
    keeps it between calls of ``star_w`` or ``a_alpha_dagger``: no
    reference cycle leaves it to the cyclic garbage collector."""
    rng = random.Random(47)
    alpha = random_logarithmic_character(5, rng)
    beta = random_character(5, rng)
    forest = parse_forest("[[]] [] [[[]]]")

    def call():
        if product == "star_w":
            star_w(alpha, beta)
        else:
            a_alpha_dagger(alpha, forest)

    call()  # interns every forest the call meets and checks alpha once
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
