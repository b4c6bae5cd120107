import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbseries import (
    CharacterMap,
    LinComb,
    SymWord,
    admissible_partitions,
    check_cointeraction,
    check_pi_morphism,
    compose_module,
    compose_postlie_operad,
    delta_w,
    forest_expr,
    parse_forest,
    parse_tree,
    rho_oracle,
    star_rho,
    star_w,
    tree_expr,
)
from lbseries.laws import (
    random_character,
    random_exponential_character,
    random_logarithmic_character,
    run_law,
)
from lbseries.postlie import LiePoly, bracket
from lbseries.subst import (
    Bracket,
    Concat,
    Graft,
    Leaf,
    OracleGuardError,
    _bracket_leg,
    _nonzero_bracketings,
    _run_blocks,
    _skeleton,
    _vanishing_part,
    _word_leg,
    eval_expr,
)
from lbseries import seriesmorph, subst
from lbseries.coeffalg import convolve_through
from lbseries.seriesmorph import a_alpha, a_alpha_dagger, substitute_lb
from lbseries.trees import OrderedForest, enumerate_ordered_forests, enumerate_planar_trees

from characters import (
    any_character,
    dagger_through_delta_w,
    eval_multiplicative,
    lie_character,
    sparse_characters,
    star_w_through_delta_w,
)
from digests import character_digest, coproduct_digest
from partition_oracle import oracle_delta_w, oracle_partitions
from worked_examples import RHO_EXAMPLE_1, RHO_EXAMPLE_2, RHO_EXAMPLE_3, W_EXAMPLE
from perfbench import gen

pf = parse_forest


def lp(text):
    return LiePoly.from_tree(parse_tree(text))


# -- operad and module compositions -----------------------------------------


def test_symbolic_substitution_display():
    """Substituting into a bracket of trees equals substituting into its
    displayed graft expression."""
    tree_a = parse_tree("[[]]")  # vertex 2 grafted into vertex 1
    tree_b = parse_tree("[[][]]")  # chain of grafts on three vertices
    base_trees = Bracket(
        Leaf(0),
        Bracket(tree_expr(tree_a, [1, 2]), tree_expr(tree_b, [3, 4, 5])),
    )
    base_display = Bracket(
        Leaf(0),
        Bracket(
            Graft(Leaf(2), Leaf(1)),
            Graft(Concat(Leaf(5), Leaf(4)), Leaf(3)),
        ),
    )
    rng = random.Random(9)
    pool = [lp("[]"), lp("[[]]"), bracket(lp("[]"), lp("[[]]"))]
    for _ in range(4):
        inputs = [rng.choice(pool) for _ in range(6)]
        lhs = compose_postlie_operad(inputs, base_trees)
        rhs = compose_postlie_operad(inputs, base_display)
        assert lhs == rhs


def test_expressions_number_vertices_through_the_forest_index():
    """``forest_expr`` labels vertices tree by tree in preorder, children in
    stored order, and lists a root forest planar left to right (reversed
    stored order); ``tree_expr`` is its one-tree case.  A label list of
    another length is refused."""
    assert forest_expr(pf("[[][[]]] []")) == Concat(
        Graft(Concat(Graft(Leaf(3), Leaf(2)), Leaf(1)), Leaf(0)), Leaf(4)
    )
    assert forest_expr(pf("[] [[]]"), [7, 8, 9]) == Concat(Leaf(7), Graft(Leaf(9), Leaf(8)))
    assert tree_expr(parse_tree("[[]]"), [5, 6]) == Graft(Leaf(6), Leaf(5))
    for labels in ([0, 1, 2], [0]):
        with pytest.raises(ValueError, match="label count"):
            forest_expr(pf("[] []"), labels)
    with pytest.raises(ValueError, match="label count"):
        tree_expr(parse_tree("[[]]"), [0, 1, 2])


def test_operad_identities():
    base = Bracket(Leaf(0), Graft(Leaf(1), Leaf(2)))
    dots = [lp("[]")] * 3
    direct = compose_postlie_operad(dots, base)
    expected = eval_expr(base, {i: lp("[]").expansion for i in range(3)})
    assert direct.expansion == expected
    x = bracket(lp("[]"), lp("[[]]"))
    assert compose_postlie_operad([x], Leaf(0)) == x


def test_operad_arity_error():
    with pytest.raises(ValueError):
        compose_postlie_operad([lp("[]")], Bracket(Leaf(0), Leaf(1)))


def test_compose_module_examples():
    # two-vertex word with a commutator in the second slot
    result = compose_module([lp("[]"), bracket(lp("[]"), lp("[[]]"))], pf("[] []"))
    expected = LinComb([(pf("[] [] [[]]"), 1), (pf("[] [[]] []"), -1)])
    assert result == expected
    assert compose_module([lp("[]"), lp("[]")], pf("[[]]")) == LinComb.of(pf("[[]]"))
    assert compose_module([lp("[[]]"), lp("[]")], pf("[] []")) == LinComb.of(
        pf("[[]] []")
    )


def test_compose_module_unit_law():
    """Single vertices substituted into every vertex give the forest back."""
    dot = lp("[]")
    for n in range(1, 7):
        for forest in enumerate_ordered_forests(n):
            assert compose_module([dot] * n, forest) == LinComb.of(forest)


def test_compose_module_result_is_primitive_for_tree_bases():
    from lbseries.coeffalg import is_primitive_shuffle

    base = pf("[[][]]")
    inputs = [lp("[]"), bracket(lp("[]"), lp("[]")), lp("[[]]")]
    result = compose_module([lp("[]"), lp("[[]]"), lp("[]")], base)
    assert is_primitive_shuffle(result, 6)


def test_operad_assoc_law():
    assert run_law("operad-assoc", 6).passed


def test_operad_equivariance():
    """Permuting the inputs together with the assignment leaves the
    composition unchanged."""
    base = Bracket(Leaf(0), Graft(Leaf(1), Leaf(2)))
    inputs = [lp("[]"), lp("[[]]"), bracket(lp("[]"), lp("[[]]"))]
    reference = compose_postlie_operad(inputs, base)
    perm = [2, 0, 1]
    permuted = [inputs[perm[k]] for k in range(3)]
    inverse = [perm.index(k) for k in range(3)]
    assert compose_postlie_operad(permuted, base, assignment=inverse) == reference
    shuffled = compose_module(
        [inputs[1], inputs[0]], pf("[] []"), assignment=[1, 0]
    )
    assert shuffled == compose_module([inputs[0], inputs[1]], pf("[] []"))


# -- admissible partitions, contraction, coaction ---------------------------


def test_partition_counts():
    assert len(admissible_partitions(pf("[]"))) == 1
    assert len(admissible_partitions(pf("[] [[]]"))) == 3
    assert len(admissible_partitions(pf("[[[]][]]"))) == 7


def _described(partitions):
    """Block set -> each block's (part, roots, part vertices)."""
    return {
        frozenset(p.blocks): {
            block: described
            for block, *described in zip(
                p.blocks, p.parts, p.part_roots, p.part_vertices
            )
        }
        for p in partitions
    }


def test_admissible_partitions_match_the_set_partition_oracle():
    """The constructive generator gives exactly the partitions that
    filtering all set partitions gives, each once, with the same parts: on
    every forest up to order 6 and on a seeded sample of orders 7 and 8."""
    forests = [forest for n in range(0, 7) for forest in enumerate_ordered_forests(n)]
    for n, count in ((7, 20), (8, 10)):
        forests += random.Random(f"partitions:{n}").sample(enumerate_ordered_forests(n), count)
    for forest in forests:
        got = admissible_partitions(forest)
        described = _described(got)
        assert len(described) == len(got)
        assert described == _described(oracle_partitions(forest))


def test_delta_w_matches_the_set_partition_oracle():
    for n in range(0, 7):
        for forest in enumerate_ordered_forests(n):
            assert delta_w(forest) == oracle_delta_w(forest)


def test_forests_with_one_start_read_one_run():
    """The blocks of a run of first trees are built once: two forests that
    start with the same trees read the identical tuple for each such run,
    and a run is its prefix's blocks, each extended by a block of its last
    tree."""
    first = _skeleton(pf("[[]] [] [[][]]"))
    second = _skeleton(pf("[[]] [] [[[]]] []"))
    for j in (0, 1):
        assert first[j][1] is second[j][1]
    assert first[2][1] is not second[2][1]
    assert first[2][1] is _run_blocks(pf("[[]] [] [[][]]"))
    extended = [
        (OrderedForest(part.trees + (p,)), hanging + h)
        for part, hanging in _run_blocks(pf("[[]] []"))
        for p, h in subst._tree_blocks(parse_tree("[[][]]"))
    ]
    assert list(first[2][1]) == extended


def test_universal_legs_have_no_value_on_vanishing_parts():
    for text in ("[] []", "[[]] [[]] [[]]"):
        assert _word_leg(pf(text)) is None
        assert _bracket_leg(pf(text)) is None
    assert _word_leg(pf("[] [[]]")) == LinComb.of(SymWord.of(pf("[] [[]]")))
    assert _bracket_leg(pf("[] [[]]"))


def test_substitution_never_asks_for_vanishing_parts(monkeypatch):
    """alpha's route skips a part ``t t ... t`` by alpha's own zero there,
    so ``star_w`` never calls ``_vanishing_part``; a universal leg does."""
    rng = random.Random(18)
    alpha = lie_character(6, rng)
    beta = any_character(6, rng)
    expected = star_w_through_delta_w(alpha, beta)
    calls = []
    vanishing = subst._vanishing_part

    def spy(part):
        calls.append(part)
        return vanishing(part)

    monkeypatch.setattr(subst, "_vanishing_part", spy)
    assert star_w(alpha, beta) == expected
    assert calls == []
    subst._contracted(pf("[] [] [[]]"), subst._word_leg, {})
    assert pf("[] []") in calls


def test_vanishing_parts_are_the_all_equal_forests():
    """A forest of two or more trees has no nonzero in-order Lie bracketing
    iff all its trees are equal."""
    for n in range(2, 8):
        for forest in enumerate_ordered_forests(n):
            if len(forest.trees) > 1:
                assert _vanishing_part(forest) == (not _nonzero_bracketings(forest))


def test_contract_examples():
    """Contractions read off as coefficients of the coaction."""
    host = pf("[[[]][]]")
    coaction = delta_w(host)
    # the whole forest collapses to the single vertex
    assert coaction.coeff((SymWord.of(host), pf("[]"))) == 1
    # the singleton partition is the identity contraction
    assert coaction.coeff((SymWord.of(*[pf("[]")] * 4), host)) == 1
    # the three-part partitions with a 2-chain produce three embeddings
    word = SymWord.of(pf("[]"), pf("[]"), pf("[[]]"))
    assert [(q, c) for (w, q), c in coaction.items() if w == word] == [(pf("[[][]]"), 3)]


# computed by the partition-and-contraction construction, before the
# coaction became a recursion on its first block
DELTA_W_DIGEST_7 = "2eba491dd8f7c5a07ac62f7ffd053979bffedf2f88c0c64655b7e5c123f83a09"


def test_delta_w_is_pinned_to_order_7():
    """Past the oracle's order 6: the coaction of every forest up to order 7
    is unchanged from the partition-and-contraction construction."""
    assert coproduct_digest(delta_w, enumerate_ordered_forests, 7) == DELTA_W_DIGEST_7


# computed by the convolution through delta_w, before star_w stopped
# building the coaction's words
STAR_W_DIGEST_7 = "1facda108e9df9cc9b917564f9b0603bb2c6d3b8b13163c7cd6a229da4da08f4"


def test_star_w_is_pinned_to_order_7():
    alpha = lie_character(7, random.Random(70))
    beta = any_character(7, random.Random(71))
    assert character_digest(star_w(alpha, beta)) == STAR_W_DIGEST_7


# computed by star_w while it still built every forest's contracted map
# below the top order and streamed the top order's terms
STAR_W_DIGEST_8 = "b1b77ade23c1a554dd8506584a6ce472441d5b2623d48541449d3c8aa4cf3853"


def test_star_w_is_pinned_to_order_8():
    """The headline recipe of the benchmark's generator at order 8."""
    rng = random.Random("order-8:1")
    alpha = CharacterMap.from_json(gen.logarithmic_character(rng, 8, 8))
    beta = CharacterMap.from_json(gen.character(rng, 8))
    assert character_digest(star_w(alpha, beta)) == STAR_W_DIGEST_8


def test_star_w_matches_delta_w_on_a_sample_of_order_8_forests():
    """The top-order pairing, summed once per (hanging, rest), against the
    convolution through ``delta_w`` on a seeded sample of top forests."""
    rng = random.Random(80)
    alpha = lie_character(8, rng)
    beta = any_character(8, rng)
    assert any(len(f.trees) > 1 for f in alpha.values)
    sample = rng.sample(enumerate_ordered_forests(8), 20)
    expected = convolve_through(
        delta_w,
        lambda word: eval_multiplicative(alpha, word.parts),
        beta,
        lambda size: sample if size == 8 else [],
        8,
    )
    product = star_w(alpha, beta)
    assert [product(f) for f in sample] == [expected(f) for f in sample]
    assert any(expected(f) for f in sample)


def test_delta_w_worked_example():
    forest, expected = W_EXAMPLE
    assert delta_w(forest) == expected


def test_delta_w_base_cases():
    assert delta_w(pf("")) == LinComb.of((SymWord.unit(), pf("")))
    assert delta_w(pf("[]")) == LinComb.of((SymWord.of(pf("[]")), pf("[]")))


def test_rho_worked_examples():
    for forest, expected in (RHO_EXAMPLE_1, RHO_EXAMPLE_2, RHO_EXAMPLE_3):
        assert rho_oracle(forest, 5) == expected


# computed by the term-building coaction recursion, before rho_oracle
# became the contracted recursion read with its universal bracket leg
RHO_DIGEST_5 = "c1b1ee230b82dfabc5d8af2326b9bcb22b3957f5ffe4073c808e30912e41b473"


def test_rho_oracle_is_pinned_at_guard_5():
    """The digest reads the printed bracket factors too: of two equal Lie
    factors that print differently, the one kept is the first one met, so
    the order in which the recursion sums shows here."""
    digest = coproduct_digest(lambda f: rho_oracle(f, 5), enumerate_ordered_forests, 5)
    assert digest == RHO_DIGEST_5


def test_rho_guard():
    with pytest.raises(OracleGuardError):
        rho_oracle(pf("[] [] [] [] []"), 4)


def test_delta_w_matches_rho_on_tree_parts():
    """Coaction terms whose factors are single trees coincide between the
    bracket oracle and the partition coaction."""
    for n in range(0, 6):
        for forest in enumerate_ordered_forests(n):
            flattened = LinComb()
            for (word, quotient), c in rho_oracle(forest, 5).items():
                parts = []
                for factor in word.factors:
                    words = list(factor.expansion.items())
                    if len(words) == 1 and words[0][1] == 1:
                        parts.append(words[0][0])
                    else:
                        break
                else:
                    flattened = flattened + LinComb.of(
                        (SymWord(parts), quotient), c
                    )
            tree_part_terms = LinComb(
                ((w, q), c)
                for (w, q), c in delta_w(forest).items()
                if all(len(p.trees) == 1 for p in w.parts)
            )
            assert flattened == tree_part_terms


def test_grading_and_closure_law():
    assert run_law("grading", 5).passed


def test_w_coassoc_law_documents_the_defect():
    """The counit laws hold; the two-sided coassociativity on symmetric-word
    legs is genuinely false, with the two-tree forest as the smallest
    counterexample (see the w-coassoc law docstring)."""
    result = run_law("w-coassoc", 4)
    assert not result.passed
    # a counit failure anywhere up to order 4 would be reported instead
    assert result.counterexample == "coassociativity at [[]] []"
    assert run_law("w-coassoc", 2).passed  # no degenerate quotient below three vertices


# -- character-level products ------------------------------------------------


def test_star_w_identity_character():
    rng = random.Random(3)
    delta_dot = CharacterMap(3, 0, [(pf("[]"), 1)])
    beta = random_character(3, rng)
    result = star_w(delta_dot, beta)
    for n in range(0, 4):
        for f in enumerate_ordered_forests(n):
            assert result(f) == beta(f)


def test_star_w_single_vertex_and_chain():
    c = Fraction(5, 7)
    alpha = CharacterMap(2, 0, [(pf("[]"), 1), (pf("[[]]"), c)])
    rng = random.Random(4)
    beta = random_character(2, rng)
    result = star_w(alpha, beta)
    assert result(pf("[]")) == alpha(pf("[]")) * beta(pf("[]"))
    assert result(pf("[[]]")) == c * beta(pf("[]")) + beta(pf("[[]]"))


def test_star_w_requires_logarithmic():
    bad = CharacterMap(2, 0, [(pf("[] []"), 1)])
    with pytest.raises(ValueError):
        star_w(bad, CharacterMap(2, 1))


def test_star_w_with_unequal_orders_truncates_to_the_smaller():
    rng = random.Random(8)
    alpha = random_logarithmic_character(4, rng)
    beta = random_character(2, rng)
    result = star_w(alpha, beta)
    assert result.order == 2
    assert result == star_w(alpha.truncated(2), beta)
    alpha = random_logarithmic_character(2, rng)
    beta = random_character(4, rng)
    result = star_w(alpha, beta)
    assert result.order == 2
    assert result == star_w(alpha, beta.truncated(2))


def test_seeded_random_characters_keep_their_draw_order():
    # the seeded laws check the same cases only while these values hold
    log = random_logarithmic_character(3, random.Random(0))
    assert log.to_json() == {
        "order": 3,
        "empty": "0",
        "values": {"[[]]": "-2", "[[[]]]": "1/2", "[[]] []": "-7/6", "[] [[]]": "7/6"},
    }
    exp = random_exponential_character(2, random.Random(1))
    assert exp.to_json() == {
        "order": 2,
        "empty": "1",
        "values": {"[]": "-4", "[[]]": "-2", "[] []": "8"},
    }


@pytest.mark.parametrize(
    "seed, alpha_order, beta_order",
    [(0, 7, 7), (1, 7, 5), (2, 4, 7), (3, 6, 6), (4, 5, 5), (5, 1, 3), (6, 0, 2)],
)
def test_star_w_matches_the_convolution_through_delta_w(seed, alpha_order, beta_order):
    """Unequal orders, alpha with values on multi-tree forests and
    denominators up to 12 in both characters."""
    rng = random.Random(seed)
    alpha = lie_character(alpha_order, rng)
    beta = any_character(beta_order, rng)
    assert any(len(f.trees) > 1 for f in alpha.values) or alpha_order < 2
    assert star_w(alpha, beta) == star_w_through_delta_w(alpha, beta)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 6), st.integers(0, 2**32), sparse_characters())
def test_star_w_is_the_convolution_through_delta_w_on_sparse_beta(alpha_order, seed, beta):
    """Beta has values on a drawn few forests, so most right legs that
    ``_paired_top`` reads have none; its sums must still match the
    ``delta_w`` terms."""
    alpha = lie_character(alpha_order, random.Random(seed))
    assert star_w(alpha, beta) == star_w_through_delta_w(alpha, beta)


def test_star_w_matches_the_convolution_on_law_characters():
    rng = random.Random(13)
    for order, support in ((3, None), (4, 3), (6, 2)):
        alpha = random_logarithmic_character(order, rng, support)
        beta = random_character(order, rng)
        assert star_w(alpha, beta) == star_w_through_delta_w(alpha, beta)


def test_substitution_does_not_build_delta_w(monkeypatch):
    rng = random.Random(14)
    alpha = lie_character(5, rng)
    beta = any_character(5, rng)
    expected = star_w_through_delta_w(alpha, beta)
    daggers = {f: dagger_through_delta_w(alpha, f) for f in enumerate_ordered_forests(5)}

    def refuse(forest):
        raise AssertionError(f"delta_w or its universal leg called on {forest.serialize()}")

    # a fresh memo, so that a read through the universal leg calls it
    monkeypatch.setattr(subst, "_WORD_MEMO", {})
    for name in ("delta_w", "_word_leg"):
        monkeypatch.setattr(subst, name, refuse)
        monkeypatch.setattr(seriesmorph, name, refuse, raising=False)
    assert substitute_lb(alpha, beta) == expected
    assert all(a_alpha_dagger(alpha, f) == d for f, d in daggers.items())


def test_alpha_keeps_its_contraction_across_products():
    """One alpha substituted into betas of orders 3, 6 and 5 and then read
    by ``a_alpha_dagger`` gives, every time, what a fresh copy of alpha
    gives: the maps kept on alpha do not depend on what it meets."""
    rng = random.Random(15)
    alpha = lie_character(6, rng)
    for order in (3, 6, 5):
        beta = any_character(order, rng)
        fresh = CharacterMap(alpha.order, alpha.empty_value, alpha.values)
        assert star_w(alpha, beta) == star_w(fresh, beta), order
    fresh = CharacterMap(alpha.order, alpha.empty_value, alpha.values)
    for forest in enumerate_ordered_forests(6):
        assert a_alpha_dagger(alpha, forest) == a_alpha_dagger(fresh, forest), forest


def test_a_second_substitution_computes_no_map_below_the_top_order(monkeypatch):
    """The second ``star_w`` with one alpha reads every forest map below the
    top order from alpha's memo."""
    rng = random.Random(16)
    alpha = lie_character(6, rng)
    beta, gamma = any_character(6, rng), any_character(6, rng)
    computed = []
    contracted = subst._contracted

    def counted(forest, value, memo):
        if forest not in memo:
            computed.append(forest)
        return contracted(forest, value, memo)

    monkeypatch.setattr(subst, "_contracted", counted)
    star_w(alpha, beta)
    assert computed and max(f.vertex_count for f in computed) == 5
    computed.clear()
    star_w(alpha, gamma)
    assert computed == []


def test_alpha_frees_its_contraction_with_it():
    """The memo kept on alpha dies with alpha: no reference cycle leaves it
    to the cyclic garbage collector."""
    rng = random.Random(17)
    alpha = lie_character(5, rng)
    beta = any_character(5, rng)
    star_w(alpha, beta)
    a_alpha_dagger(alpha, pf("[[]] [] [[[]]]"))
    assert alpha._contraction[2]
    gc.collect()
    gc.disable()
    try:
        del alpha
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_star_rho_agrees_with_star_w():
    """The bracket oracle agrees with the partition coaction up to guard 4
    (at guard 5 it does not, see the expected failure below)."""
    rng = random.Random(12)
    for guard in (3, 3, 3, 3, 4, 4, 4, 4):
        alpha = random_logarithmic_character(guard, rng)
        beta = random_character(guard, rng)
        lhs = star_rho(alpha, beta, guard)
        rhs = star_w(alpha, beta)
        for n in range(0, guard + 1):
            for f in enumerate_ordered_forests(n):
                assert lhs(f) == rhs(f)
    assert star_rho(alpha, beta, 3)(pf("[]")) == alpha(pf("[]")) * beta(pf("[]"))


# At order 5 the bracket oracle departs from the partition coaction on four
# forests.  alpha is the vertex (value 1) plus the coefficient functional of
# [a, [a, [a, b]]] with a = [] and b = [[]]; beta is 1 on every forest.
ORDER_5_DEPARTURES = {"[[]] [] [] []": 0, "[] [[]] [] []": 4, "[] [] [[]] []": -2, "[] [] [] [[]]": 2}


def _order_5_characters():
    a, b = lp("[]"), lp("[[]]")
    values = bracket(a, bracket(a, bracket(a, b))).expansion + LinComb.of(pf("[]"))
    alpha = CharacterMap(5, 0, values.items())
    beta = CharacterMap(
        5, 1, [(f, 1) for n in range(1, 6) for f in enumerate_ordered_forests(n)]
    )
    return alpha, beta


def test_star_w_matches_the_grafting_route_at_order_5():
    """On the forests where the bracket oracle departs, star_w agrees with
    the substitution endomorphism a_alpha paired against beta.  a_alpha
    sends the vertex to the series of alpha and, alpha being the vertex
    plus terms of order 5, a forest of 5 vertices to itself plus terms of 9
    or more vertices; so the pairing is beta(f) + a_alpha([])(f) beta([])."""
    alpha, beta = _order_5_characters()
    product = star_w(alpha, beta)
    vertex_image = a_alpha(alpha, pf("[]"))
    for text, value in ORDER_5_DEPARTURES.items():
        forest = pf(text)
        grafted = beta(forest) + vertex_image.coeff(forest) * beta(pf("[]"))
        assert product(forest) == grafted == value


@pytest.mark.xfail(
    strict=True,
    reason="star_rho's 1/k! pairing of bracket factors is wrong for parts with "
    "repeated trees: at [[]] [] [] [] it gives 1/6 where star_w and the "
    "a_alpha route give 0 (also with random_logarithmic_character(5, Random(3)))",
)
def test_star_rho_agrees_with_star_w_at_order_5():
    alpha, beta = _order_5_characters()
    product = star_rho(alpha, beta, 5)
    assert {text: product(pf(text)) for text in ORDER_5_DEPARTURES} == ORDER_5_DEPARTURES


def test_cointeraction_report():
    report = check_cointeraction(order=3, guard=3)
    assert report == {name: True for name in report}
    assert set(report) == {
        "unit",
        "multiplicative",
        "counit",
        "coaction-compat",
        "character-identity",
    }


def test_pi_morphism_small_cases_and_documented_defect():
    """The projection check holds on the vertex and the 2-chain but fails at
    the planar cherry: the non-planar contraction coproduct counts two
    ladder extractions while only one planar partition is
    leftmost-admissible, so no multiplicity-preserving collapse exists.
    The acceptance suite carries the corresponding expected failure."""
    assert check_pi_morphism(parse_tree("[]"))
    assert check_pi_morphism(parse_tree("[[]]"))
    assert not check_pi_morphism(parse_tree("[[][]]"))
    law = run_law("pi-morphism", 4)
    assert not law.passed
    assert law.counterexample == "[[][]]"
