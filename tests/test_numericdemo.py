import random
from fractions import Fraction

import pytest

from lbseries import (
    CharacterMap,
    Forest,
    LinComb,
    Poly,
    PolyVectorField,
    bseries_eval,
    canonicalize,
    elementary_differential,
    parse_nonplanar_forest,
    parse_tree,
    verify_bseries_substitution,
)
from lbseries import numericdemo
from lbseries.laws import random_tree_character, run_law
from lbseries.numericdemo import diff_y, poly_mul
from lbseries.prelie import graft
from lbseries.trees import enumerate_nonplanar_trees, symmetry_factor

pnf = parse_nonplanar_forest


def cn(text):
    return canonicalize(parse_tree(text))


def _field_y_squared() -> PolyVectorField:
    return PolyVectorField([Poly({(0, (2,)): Fraction(1)})])


def test_elementary_differential_examples():
    f = _field_y_squared()
    assert elementary_differential(f, cn("[]")) == f
    # f'(y) f(y) = 2y * y^2 = 2 y^3
    assert elementary_differential(f, cn("[[]]")) == PolyVectorField(
        [Poly({(0, (3,)): Fraction(2)})]
    )
    # f''(f, f) = 2 * y^2 * y^2
    assert elementary_differential(f, cn("[[][]]")) == PolyVectorField(
        [Poly({(0, (4,)): Fraction(2)})]
    )
    # f'(f' f) = 2y * 2y^3
    assert elementary_differential(f, cn("[[[]]]")) == PolyVectorField(
        [Poly({(0, (4,)): Fraction(4)})]
    )


def test_bseries_counit_character_returns_the_point():
    f = _field_y_squared()
    alpha = CharacterMap(3, 1)
    assert bseries_eval(Fraction(1, 2), f, alpha, (Fraction(7),), 3) == (Fraction(7),)


def test_flow_expansion_coefficients():
    """With every tree weighted 1 the expansion reads, through third order,
    y + h f + h^2 f'f + h^3 ( f''(f,f)/2 + f'f'f );
    frozen below at two rational points for f = y^2."""
    f = _field_y_squared()
    values = []
    for n in range(1, 4):
        for tree in enumerate_nonplanar_trees(n):
            values.append((Forest((tree,)), 1))
    alpha = CharacterMap(3, 1, values)
    # y0 = 1: 1 + h + 2h^2 + (1 + 4)h^3
    assert bseries_eval(None, f, alpha, (1,), 3)[0] == {
        0: Fraction(1),
        1: Fraction(1),
        2: Fraction(2),
        3: Fraction(5),
    }
    # y0 = 2: 2 + 4h + 16h^2 + (16 + 64)h^3
    assert bseries_eval(None, f, alpha, (2,), 3)[0] == {
        0: Fraction(2),
        1: Fraction(4),
        2: Fraction(16),
        3: Fraction(80),
    }


def _density(tree) -> int:
    # independent recursive tree-density: gamma(t) = |t| * prod gamma(children)
    total = tree.rep.vertex_count
    for child in tree.rep.children:
        total *= _density(canonicalize(child))
    return total


def test_exact_flow_of_riccati_equation():
    """The exact flow of y' = y^2 from y0 = 1 is 1/(1-h); its Taylor
    coefficients are all 1, matched by the density character."""
    f = _field_y_squared()
    order = 4
    values = []
    for n in range(1, order + 1):
        for tree in enumerate_nonplanar_trees(n):
            values.append((Forest((tree,)), Fraction(1, _density(tree))))
    alpha = CharacterMap(order, 1, values)
    series = bseries_eval(None, f, alpha, (1,), order)[0]
    assert series == {k: Fraction(1) for k in range(order + 1)}


def test_prelie_morphism_property():
    """The elementary differential intertwines grafting with the directional
    derivative: F(t1 -> t2) = (d F(t2)) applied to F(t1)."""
    fields = [
        _field_y_squared(),
        PolyVectorField(
            [
                Poly({(0, (1, 1)): Fraction(1), (0, (0, 1)): Fraction(1, 2)}),
                Poly({(0, (2, 0)): Fraction(1, 3), (0, (1, 0)): Fraction(-1)}),
            ]
        ),
    ]
    trees = [t for n in range(1, 4) for t in enumerate_nonplanar_trees(n)]
    for field in fields:
        dim = field.dim
        for t1 in trees:
            for t2 in trees:
                lhs_comb = graft(t1, t2)
                lhs = [LinComb() for _ in range(dim)]
                for tree, coeff in lhs_comb.items():
                    diff = elementary_differential(field, tree)
                    for i in range(dim):
                        lhs[i] = lhs[i] + diff.components[i].scale(coeff)
                f1 = elementary_differential(field, t1)
                f2 = elementary_differential(field, t2)
                rhs = []
                for i in range(dim):
                    acc = LinComb()
                    for j in range(dim):
                        acc = acc + poly_mul(diff_y(f2.components[i], j), f1.components[j])
                    rhs.append(acc)
                assert lhs == rhs


def test_h_grading():
    """The h^k coefficient only sees k-vertex trees."""
    f = _field_y_squared()
    rng = random.Random(17)
    alpha = random_tree_character(3, rng, empty=1)
    full = bseries_eval(None, f, alpha, (1,), 3)[0]
    for k in range(1, 4):
        zeroed = {
            basis: val
            for basis, val in alpha.values.items()
            if basis.vertex_count != k
        }
        trimmed = CharacterMap(3, 1, zeroed)
        partial = bseries_eval(None, f, trimmed, (1,), 3)[0]
        for j in range(0, 4):
            if j != k:
                assert partial.get(j, Fraction(0)) == full.get(j, Fraction(0))


def test_substitution_identity_case():
    f = _field_y_squared()
    rng = random.Random(18)
    beta = random_tree_character(3, rng, empty=Fraction(1))
    delta_dot = CharacterMap(3, 0, [(pnf("[]"), 1)])
    assert verify_bseries_substitution(delta_dot, beta, f, (1,), 3)


def test_verify_truncates_both_characters_to_the_order(monkeypatch):
    """Characters of different orders are checked at any order up to the
    lower one, and only that order is convolved."""
    f = _field_y_squared()
    rng = random.Random(20)
    alpha = random_tree_character(3, rng, empty=0)
    beta = random_tree_character(4, rng, empty=1)
    convolve = numericdemo.convolve
    orders = []

    def recording(a, b, op):
        orders.append((a.order, b.order))
        return convolve(a, b, op)

    monkeypatch.setattr(numericdemo, "convolve", recording)
    for order in (1, 2, 3):
        assert verify_bseries_substitution(alpha, beta, f, (1,), order)
    assert orders == [(1, 1), (2, 2), (3, 3)]


def test_substitution_rejects_nonvanishing_empty_part():
    f = _field_y_squared()
    alpha = CharacterMap(2, 1, [(pnf("[]"), 1)])
    beta = CharacterMap(2, 1)
    with pytest.raises(ValueError):
        verify_bseries_substitution(alpha, beta, f, (1,), 2)


def test_substitution_law():
    assert run_law("bseries-substitution", 3).passed


def test_field_json_round_trip():
    field = PolyVectorField(
        [
            Poly({(1, (1, 0)): Fraction(1, 2), (0, (0, 2)): Fraction(-3)}),
            Poly({(0, (0, 0)): Fraction(7)}),
        ]
    )
    assert PolyVectorField.from_json(field.to_json()) == field


def test_series_stop_at_the_characters_order(monkeypatch):
    """Past its order a character is zero, so no tree above it is enumerated
    and a higher requested order changes nothing."""
    f = PolyVectorField(
        [
            Poly({(0, (1, 1)): Fraction(1), (1, (0, 1)): Fraction(1, 2)}),
            Poly({(0, (1, 0)): Fraction(-1), (0, (0, 2)): Fraction(1, 3)}),
        ]
    )
    rng = random.Random(19)
    alpha = random_tree_character(2, rng, empty=0)
    beta = random_tree_character(2, rng, empty=1)
    series = bseries_eval(None, f, beta, (1, -2), 2)
    modified = numericdemo._series_as_field(f, alpha, 2)
    enumerate_trees = numericdemo.enumerate_nonplanar_trees

    def bounded(size):
        if size > 2:
            raise AssertionError(f"trees of order {size} enumerated for an order-2 character")
        return enumerate_trees(size)

    monkeypatch.setattr(numericdemo, "enumerate_nonplanar_trees", bounded)
    for order in (5, 12):
        assert bseries_eval(None, f, beta, (1, -2), order) == series
        assert numericdemo._series_as_field(f, alpha, order) == modified
    with pytest.raises(ValueError):
        verify_bseries_substitution(alpha, beta, f, (1, -2), 3)


def test_floats_are_rejected_at_the_library_boundary():
    f = _field_y_squared()
    alpha = CharacterMap(2, 1, [(pnf("[]"), 1)])
    delta_dot = CharacterMap(2, 0, [(pnf("[]"), 1)])
    for h, y0 in ((0.1, (Fraction(1, 2),)), (Fraction(1, 10), (0.5,)), (None, (0.5,))):
        with pytest.raises(ValueError, match="not an exact rational"):
            bseries_eval(h, f, alpha, y0, 2)
    with pytest.raises(ValueError, match="not an exact rational"):
        verify_bseries_substitution(delta_dot, alpha, f, (0.5,), 2)
    exact = bseries_eval(Fraction(1, 10), f, alpha, (Fraction(1, 2),), 2)
    assert bseries_eval("1/10", f, alpha, ("1/2",), 2) == exact


# the law's two fields, and the 2-D field with an h-dependent monomial of
# tests/test_cli.py: (y1 y2 + h y2/2, -y1 + y2^2/3)
TRUNCATION_FIELDS = [
    (_field_y_squared(), (Fraction(1),)),
    (
        PolyVectorField(
            [
                Poly({(0, (1, 1)): Fraction(1), (0, (0, 1)): Fraction(1, 2)}),
                Poly({(0, (1, 0)): Fraction(-1), (0, (0, 2)): Fraction(1, 3)}),
            ]
        ),
        (Fraction(1), Fraction(-2)),
    ),
    (
        PolyVectorField(
            [
                Poly({(0, (1, 1)): Fraction(1), (1, (0, 1)): Fraction(1, 2)}),
                Poly({(0, (1, 0)): Fraction(-1), (0, (0, 2)): Fraction(1, 3)}),
            ]
        ),
        (Fraction(1), Fraction(-2)),
    ),
]


@pytest.mark.parametrize("field,y0", TRUNCATION_FIELDS)
def test_capped_series_is_the_series_up_to_the_cap(field, y0):
    """The capped expansion that verify_bseries_substitution compares is
    bseries_eval of the substituted field, h-power by h-power up to the
    order, and has nothing above it.  The uncapped 2-D series take 13-15 s
    at order 5, so the 2-D fields stop at order 4."""
    rng = random.Random(23)
    for order in range(1, 6 if field.dim == 1 else 5):
        alpha = random_tree_character(order, rng, empty=0)
        beta = random_tree_character(order, rng, empty=Fraction(2, 3))
        modified = numericdemo._series_as_field(field, alpha, order)
        full = bseries_eval(None, modified, beta, y0, order)
        capped = numericdemo._series(modified, beta, y0, order, cap=order)
        for comp_full, comp_capped in zip(full, capped):
            assert max(comp_capped.support(), default=0) <= order
            for k in range(order + 1):
                assert comp_capped.coeff(k) == comp_full.get(k, 0)


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("field,y0", TRUNCATION_FIELDS)
def test_verify_sees_every_tree_of_the_top_order(field, y0, order, monkeypatch):
    """Changing the convolved character on one tree of size ``order``, where
    its elementary differential is nonzero at y0, makes the check fail: the
    cap keeps the top h-power."""
    rng = random.Random(29)
    alpha = random_tree_character(order, rng, empty=0)
    beta = random_tree_character(order, rng, empty=Fraction(1))
    assert verify_bseries_substitution(alpha, beta, field, y0, order)
    convolve = numericdemo.convolve
    seen = 0
    for tree in enumerate_nonplanar_trees(order):
        diff = elementary_differential(field, tree)
        if not any(numericdemo.eval_y(p, y0) for p in diff.components):
            continue
        seen += 1

        def perturbed(a, b, op, tree=tree):
            product = convolve(a, b, op)
            values = dict(product.values)
            values[Forest((tree,))] = product(Forest((tree,))) + 1
            return CharacterMap(product.order, product.empty_value, values)

        monkeypatch.setattr(numericdemo, "convolve", perturbed)
        assert not verify_bseries_substitution(alpha, beta, field, y0, order)
    assert seen
