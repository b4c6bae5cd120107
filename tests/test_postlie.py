import itertools

from lbseries import (
    LinComb,
    OrderedForest,
    b_minus,
    b_plus,
    delta_n,
    delta_shuffle,
    gl_product,
    left_graft,
    parse_forest,
    parse_tree,
    shuffle,
)
from lbseries.postlie import LiePoly, bracket, concat, lie_graft
from lbseries.coeffalg import is_primitive_shuffle, tensor
from lbseries.laws import run_law
from lbseries.trees import EMPTY_FOREST, enumerate_ordered_forests, enumerate_planar_trees

from worked_examples import (
    B_PLUS_EXAMPLE,
    GL_EXAMPLE,
    N_EXAMPLES,
    SHUFFLE_EXAMPLE,
    UNSHUFFLE_EXAMPLE,
)

pf = parse_forest


def one(text):
    return LinComb.of(pf(text))


def test_left_graft_unit_and_annihilation():
    for n in range(0, 4):
        for forest in enumerate_ordered_forests(n):
            assert left_graft(one(""), LinComb.of(forest)) == LinComb.of(forest)
    assert left_graft(one("[]"), one("")) == LinComb.zero()
    assert left_graft(one("[] [[]]"), one("")) == LinComb.zero()


def test_left_graft_single_attachments():
    assert left_graft(one("[]"), one("[]")) == one("[[]]")
    # grafting the 2-chain onto the 2-chain: at the root (new edge leftmost,
    # i.e. appended to the stored child list) and at the leaf
    result = left_graft(one("[[]]"), one("[[]]"))
    assert result == LinComb([(pf("[[][[]]]"), 1), (pf("[[[[]]]]"), 1)])


def test_b_plus_worked_example():
    forest, expected = B_PLUS_EXAMPLE
    assert b_plus(forest).serialize() == expected


def test_b_plus_agrees_with_grafting_onto_a_vertex():
    for n in range(0, 5):
        for forest in enumerate_ordered_forests(n):
            expected = LinComb.of(OrderedForest((b_plus(forest),)))
            assert left_graft(LinComb.of(forest), one("[]")) == expected


def test_b_minus_inverts_b_plus():
    assert b_plus(EMPTY_FOREST).serialize() == "[]"
    for n in range(0, 6):
        for forest in enumerate_ordered_forests(n):
            assert b_minus(b_plus(forest)) == forest
    for n in range(1, 6):
        for tree in enumerate_planar_trees(n):
            assert b_plus(b_minus(tree)) == tree


def test_bracket_definition_and_antisymmetry():
    a = LiePoly.from_tree(parse_tree("[]"))
    b = LiePoly.from_tree(parse_tree("[[]]"))
    com = bracket(a, b)
    assert com.expansion == LinComb([(pf("[] [[]]"), 1), (pf("[[]] []"), -1)])
    assert bracket(a, a).is_zero()
    assert is_primitive_shuffle(com.expansion, 4)


def test_bracket_jacobi_in_words():
    gens = [LiePoly.from_tree(t) for n in (1, 2) for t in enumerate_planar_trees(n)]
    for a, b, c in itertools.product(gens, repeat=3):
        total = (
            bracket(a, bracket(b, c))
            + bracket(b, bracket(c, a))
            + bracket(c, bracket(a, b))
        )
        assert total.is_zero()


def test_lie_graft_derivation_rule_into_brackets():
    dot = LiePoly.from_tree(parse_tree("[]"))
    ladder = LiePoly.from_tree(parse_tree("[[]]"))
    lhs = lie_graft(dot, bracket(dot, ladder))
    rhs = bracket(lie_graft(dot, dot), ladder) + bracket(dot, lie_graft(dot, ladder))
    assert lhs == rhs
    assert is_primitive_shuffle(lhs.expansion, 4)


def test_lie_graft_bracket_of_equal_elements_is_zero():
    dot = LiePoly.from_tree(parse_tree("[]"))
    zero = bracket(dot, dot)
    for text in ("[]", "[[]]", "[[][]]"):
        target = LiePoly.from_tree(parse_tree(text))
        assert lie_graft(zero, target).is_zero()


def test_postlie_jacobi_law():
    assert run_law("postlie-jacobi", 3).passed


def test_dalgebra_axioms_law_small():
    assert run_law("dalgebra-axioms", 2).passed


def test_gl_worked_example():
    f1, f2, expected = GL_EXAMPLE
    assert gl_product(f1, f2) == expected


def test_gl_unit_and_single_vertices():
    for n in range(0, 4):
        for forest in enumerate_ordered_forests(n):
            assert gl_product(EMPTY_FOREST, forest) == LinComb.of(forest)
            assert gl_product(forest, EMPTY_FOREST) == LinComb.of(forest)
    assert gl_product(pf("[]"), pf("[]")) == LinComb(
        [(pf("[] []"), 1), (pf("[[]]"), 1)]
    )


def _gl_comb(x: LinComb, y: LinComb) -> LinComb:
    out = LinComb()
    for fx, cx in x.items():
        for fy, cy in y.items():
            out = out + gl_product(fx, fy).scale(cx * cy)
    return out


def test_gl_associativity_exhaustive_small():
    small = [f for n in range(0, 3) for f in enumerate_ordered_forests(n)]
    for a in small:
        for b in small:
            for c in small:
                lhs = _gl_comb(gl_product(a, b), LinComb.of(c))
                rhs = _gl_comb(LinComb.of(a), gl_product(b, c))
                assert lhs == rhs


def test_gl_associativity_samples_at_three():
    import random

    rng = random.Random(5)
    pool = list(enumerate_ordered_forests(3))
    for _ in range(6):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        lhs = _gl_comb(gl_product(a, b), LinComb.of(c))
        rhs = _gl_comb(LinComb.of(a), gl_product(b, c))
        assert lhs == rhs


def test_shuffle_worked_example():
    f1, f2, expected = SHUFFLE_EXAMPLE
    assert shuffle(f1, f2) == expected


def test_shuffle_unit():
    for n in range(0, 4):
        for forest in enumerate_ordered_forests(n):
            assert shuffle(forest, EMPTY_FOREST) == LinComb.of(forest)
            assert shuffle(EMPTY_FOREST, forest) == LinComb.of(forest)


def test_unshuffle_worked_example():
    forest, expected = UNSHUFFLE_EXAMPLE
    assert delta_shuffle(forest) == expected


def test_unshuffle_counit():
    for n in range(0, 5):
        for forest in enumerate_ordered_forests(n):
            left = LinComb()
            right = LinComb()
            for (a, b), c in delta_shuffle(forest).items():
                if a.is_empty:
                    left = left + LinComb.of(b, c)
                if b.is_empty:
                    right = right + LinComb.of(a, c)
            assert left == LinComb.of(forest)
            assert right == LinComb.of(forest)


def test_unshuffle_pairs_with_shuffle():
    small = [f for n in range(0, 3) for f in enumerate_ordered_forests(n)]
    for a in small:
        for b in small:
            for n in range(0, 5):
                for w in enumerate_ordered_forests(n):
                    assert shuffle(a, b).coeff(w) == delta_shuffle(w).coeff((a, b))


def test_delta_n_worked_examples():
    for forest, expected in N_EXAMPLES:
        assert delta_n(forest) == expected


def test_delta_n_single_vertex():
    assert delta_n(pf("[]")) == LinComb(
        [((pf(""), pf("[]")), 1), ((pf("[]"), pf("")), 1)]
    )


def test_delta_n_coassoc_law():
    assert run_law("n-coassoc", 4).passed


def test_gl_duality_law():
    assert run_law("gl-duality", 4).passed


def test_shuffle_bialgebra_law():
    assert run_law("shuffle-bialgebra", 3).passed


def test_concat_is_associative_on_combs():
    a, b, c = one("[]"), one("[[]]"), one("[] []")
    assert concat(concat(a, b), c) == concat(a, concat(b, c))


def test_grafting_results_are_unchanged_by_what_callers_build_from_them():
    """The basis-level product is memoized, so a result is shared between
    calls; building on it must not change what a repeat call returns."""
    x = LinComb([(pf("[] [[]]"), 2), (pf("[[]]"), -1)])
    y = LinComb([(pf("[[]] []"), 1), (pf(""), 3)])
    f1, f2 = pf("[[]] []"), pf("[] [[]]")
    graft, gl = left_graft(x, y), gl_product(f1, f2)
    saved = (dict(graft.items()), dict(gl.items()))
    for result in (graft, gl):
        built = result + result.scale(3) - result.map_basis(lambda w: w.concat(w))
        assert built != result
    assert left_graft(x, y) == graft and gl_product(f1, f2) == gl
    assert (dict(graft.items()), dict(gl.items())) == saved
