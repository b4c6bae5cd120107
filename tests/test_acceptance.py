"""Acceptance suite.

One test per acceptance criterion, each asserting the exact identities at
the stated sizes (all comparisons are exact rational equalities) and
printing a summary line with its runtime.  Two sub-checks are carried as
strict expected failures: the identities they state are genuinely false,
with the smallest counterexamples recorded in the xfail reasons and the
analysis in the corresponding law docstrings.
"""

import time
from fractions import Fraction

import pytest

from lbseries import (
    LinComb,
    b_plus,
    compose_prelie_operad,
    delta_ck,
    delta_h,
    delta_n,
    delta_shuffle,
    delta_w,
    gl_product,
    graft,
    parse_forest,
    rho_oracle,
    shuffle,
)
from lbseries.laws import run_law
from lbseries.trees import enumerate_nonplanar_trees, enumerate_planar_trees

import worked_examples as wx


def _report(number: int, label: str, budget: float, started: float) -> None:
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number} {label}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def _run(name: str, order: int | None = None, guard: int | None = None):
    result = run_law(name, order, guard)
    assert result.passed, f"{name}: {result.counterexample}"
    return result


def test_criterion_1_golden_examples():
    """Every worked example reproduces term-for-term with coefficients."""
    started = time.time()
    t1, t2, expected = wx.GRAFT_EXAMPLE
    assert graft(t1, t2) == expected
    forest, expected_text = wx.B_PLUS_EXAMPLE
    assert b_plus(forest).serialize() == expected_text
    f1, f2, expected = wx.GL_EXAMPLE
    assert gl_product(f1, f2) == expected
    f1, f2, expected = wx.SHUFFLE_EXAMPLE
    assert shuffle(f1, f2) == expected
    forest, expected = wx.UNSHUFFLE_EXAMPLE
    assert delta_shuffle(forest) == expected
    for forest, expected in wx.CK_EXAMPLES:
        assert delta_ck(forest) == expected
    for forest, expected in wx.H_EXAMPLES:
        assert delta_h(forest) == expected
    for forest, expected in wx.N_EXAMPLES:
        assert delta_n(forest) == expected
    inputs, base, expected = wx.PRELIE_OPERAD_EXAMPLE
    assert compose_prelie_operad(inputs, base) == expected
    _postlie_symbolic_example()
    for forest, expected in (wx.RHO_EXAMPLE_1, wx.RHO_EXAMPLE_2, wx.RHO_EXAMPLE_3):
        assert rho_oracle(forest, 5) == expected
    forest, expected = wx.W_EXAMPLE
    assert delta_w(forest) == expected
    _report(1, "golden examples", 1.0, started)


def _postlie_symbolic_example():
    """Substituting into a bracket of trees matches the displayed
    graft-expression form."""
    import random

    from lbseries import compose_postlie_operad, parse_tree, tree_expr
    from lbseries.postlie import LiePoly, bracket
    from lbseries.subst import Bracket, Concat, Graft, Leaf

    base_trees = Bracket(
        Leaf(0),
        Bracket(
            tree_expr(parse_tree("[[]]"), [1, 2]),
            tree_expr(parse_tree("[[][]]"), [3, 4, 5]),
        ),
    )
    base_display = Bracket(
        Leaf(0),
        Bracket(
            Graft(Leaf(2), Leaf(1)),
            Graft(Concat(Leaf(5), Leaf(4)), Leaf(3)),
        ),
    )
    rng = random.Random(1)
    pool = [
        LiePoly.from_tree(parse_tree("[]")),
        LiePoly.from_tree(parse_tree("[[]]")),
        bracket(LiePoly.from_tree(parse_tree("[]")), LiePoly.from_tree(parse_tree("[[]]"))),
    ]
    for _ in range(3):
        inputs = [rng.choice(pool) for _ in range(6)]
        assert compose_postlie_operad(inputs, base_trees) == compose_postlie_operad(
            inputs, base_display
        )


def test_criterion_2_axiom_suites():
    """Exhaustive identity suites at desk scale."""
    started = time.time()
    _run("prelie-identity", 3)
    _run("postlie-jacobi", 3)
    _run("dalgebra-axioms", 3)
    _run("ck-coassoc", 5)
    _run("h-coassoc", 5)  # includes multiplicativity on products
    _run("n-coassoc", 5)
    _run("shuffle-bialgebra", 3)
    # partition-coaction counit laws at order 4 (the two-sided identity is
    # the documented defect carried by the xfail below)
    result = run_law("w-coassoc", 4)
    assert result.counterexample and result.counterexample.startswith("coassociativity")
    # coaction multiplicativity over shuffles at oracle scale
    from lbseries import check_cointeraction

    report = check_cointeraction(order=3, guard=3)
    assert report["multiplicative"] and report["unit"] and report["counit"]
    _report(2, "axiom suites", 120.0, started)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known-false identity: two-sided coassociativity of the partition "
        "coaction on symmetric-word legs fails at three-vertex two-tree "
        "forests; "
        "decomposing a composite partition into a coarse partition plus "
        "refinements is not unique (see the w-coassoc law docstring)"
    ),
)
def test_criterion_2_partition_coaction_two_sided_coassociativity():
    assert run_law("w-coassoc", 4).passed


def test_criterion_3_duality_theorems():
    """Cut coproduct vs product pairing, and the labeled operadic dual."""
    started = time.time()
    _run("gl-duality", 6)
    _run("h-operad-duality", 4)
    _report(3, "duality theorems", 120.0, started)


def test_criterion_4_cointeraction():
    """Coaction axioms at oracle scale and the character-level identity."""
    started = time.time()
    _run("cointeraction", 4, 3)
    _report(4, "cointeraction", 120.0, started)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known-false identity: collapsing the tree-part terms of the "
        "partition coaction onto non-planar forests does not reproduce the "
        "extraction-contraction coproduct; smallest counterexample is the "
        "planar cherry, where the non-planar side counts two ladder "
        "extractions but only one planar partition is leftmost-admissible"
    ),
)
def test_criterion_4_projection_morphism():
    assert run_law("pi-morphism", 4).passed


def test_criterion_5_substitution_theorem():
    """Twenty randomized logarithmic characters: the substitution
    endomorphism equals the series rebuilt from the partition-coaction
    product, and its adjoint identity holds on all pairs."""
    started = time.time()
    _run("substitution-theorem", 5)
    _run("adjoint", 5)
    _report(5, "substitution theorem", 120.0, started)


def test_criterion_6_bseries_substitution():
    """Polynomial-field substitution identity through sixth order."""
    started = time.time()
    _run("bseries-substitution", 6)
    _report(6, "series substitution on polynomial fields", 60.0, started)


def test_criterion_7_counting_cross_checks():
    started = time.time()
    assert [len(enumerate_planar_trees(n)) for n in range(1, 7)] == [1, 1, 2, 5, 14, 42]
    assert [len(enumerate_nonplanar_trees(n)) for n in range(1, 7)] == [1, 1, 2, 4, 9, 20]
    # independent recurrences
    cs = [1]
    for m in range(6):
        cs.append(sum(cs[i] * cs[m - i] for i in range(m + 1)))
    assert [cs[n - 1] for n in range(1, 7)] == [
        len(enumerate_planar_trees(n)) for n in range(1, 7)
    ]
    r = [0, 1]
    for n in range(1, 6):
        total = 0
        for k in range(1, n + 1):
            s = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += s * r[n + 1 - k]
        r.append(total // n)
    assert r[1:7] == [len(enumerate_nonplanar_trees(n)) for n in range(1, 7)]
    _report(7, "counting cross-checks", 1.0, started)


def test_criterion_8_exponential_group_closure():
    started = time.time()
    _run("automorphism", 4)
    _report(8, "exponential group closure", 60.0, started)
