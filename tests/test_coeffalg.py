import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import lbseries
from lbseries import (
    CharacterMap,
    LinComb,
    SymWord,
    bilinear,
    format_lincomb,
    is_exponential,
    is_logarithmic,
    is_primitive_shuffle,
    pairing,
    parse_forest,
    parse_lincomb,
    tensor,
)
from lbseries.coeffalg import convolve_through, leg_terms
from lbseries.laws import (
    random_exponential_character,
    random_logarithmic_character,
    random_tree_character,
)
from lbseries.postlie import bracket, concat, delta_n, gl_product, LiePoly, shuffle
from lbseries.prelie import convolve
from lbseries.seriesmorph import compose_lb
from lbseries.subst import star_w
from lbseries.trees import (
    Forest,
    OrderedForest,
    enumerate_forests,
    enumerate_ordered_forests,
    enumerate_planar_trees,
)

from characters import (
    any_character,
    compose_through_delta_n,
    eval_multiplicative,
    lie_character,
    multiplicative_on_shuffle_pairs,
    star_w_through_delta_w,
    vanishes_on_shuffle_pairs,
)
from tree_coproduct_oracle import oracle_delta_ck, oracle_delta_h

pf = parse_forest


def test_lincomb_drops_zeros_and_accumulates():
    x = LinComb([(pf("[]"), 1), (pf("[]"), -1), (pf("[[]]"), Fraction(1, 2))])
    assert x.coeff(pf("[]")) == 0
    assert x.coeff(pf("[[]]")) == Fraction(1, 2)
    assert len(x) == 1


def test_lincomb_module_axioms_random():
    rng = random.Random(0)
    basis = list(enumerate_ordered_forests(2)) + list(enumerate_ordered_forests(3))
    for _ in range(25):
        x = LinComb(
            (rng.choice(basis), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            for _ in range(4)
        )
        y = LinComb(
            (rng.choice(basis), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            for _ in range(4)
        )
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert x.scale(a + b) == x.scale(a) + x.scale(b)
        assert (x + y).scale(a) == x.scale(a) + y.scale(a)
        assert x + y == y + x
        assert x - x == LinComb.zero()


def test_tensor_bilinear():
    x = LinComb.of(pf("[]"), 2)
    y = LinComb.of(pf("[[]]"), 3)
    z = LinComb.of(pf("[] []"), Fraction(1, 2))
    assert tensor(x + y, z) == tensor(x, z) + tensor(y, z)
    assert tensor(z, x + y) == tensor(z, x) + tensor(z, y)


def test_symword_product_commutative_associative():
    forests = [f for n in range(1, 4) for f in enumerate_ordered_forests(n)]
    words = [SymWord.of(f) for f in forests[:6]]
    unit = SymWord.unit()
    for a in words:
        assert a * unit == a == unit * a
        for b in words:
            assert a * b == b * a
            for c in words[:3]:
                assert (a * b) * c == a * (b * c)


def test_symword_rejects_empty_parts():
    with pytest.raises(ValueError):
        SymWord.of(pf(""))


def test_pairing_examples():
    x = LinComb([(pf("[[]]"), 2), (pf("[]"), 3)])
    assert pairing(x, pf("[]")) == 3
    assert pairing(LinComb.of(pf(""), Fraction(5, 7)), pf("")) == Fraction(5, 7)
    gl = gl_product(pf("[[][]]"), pf("[] [[]]"))
    assert pairing(gl, pf("[[][]] [] [[]]")) == 1
    # an int that an integer product stores reads back as a Fraction, so a
    # division of it stays exact
    third = gl_product(pf("[]"), pf("[] []")).coeff(pf("[] [] []")) / 3
    half = pairing(delta_n(pf("[[]]")), (pf("[]"), pf("[]"))) / 2
    for value, exact in ((third, Fraction(1, 3)), (half, Fraction(1, 2)), (pairing(gl, pf("[]")), 0)):
        assert type(value) is Fraction and value == exact


def test_primitive_shuffle_examples():
    for text in ("[]", "[[]]", "[[][]]"):
        assert is_primitive_shuffle(LinComb.of(pf(text)), 4)
    commutator = LinComb([(pf("[[]] []"), 1), (pf("[] [[]]"), -1)])
    assert is_primitive_shuffle(commutator, 4)
    assert not is_primitive_shuffle(LinComb.of(pf("[] [[]]")), 4)


def test_primitive_shuffle_for_brackets():
    a = LiePoly.from_tree(pf("[]").trees[0])
    b = LiePoly.from_tree(pf("[[]]").trees[0])
    nested = bracket(a, bracket(a, b))
    assert is_primitive_shuffle(nested.expansion, 4)


def test_logarithmic_examples():
    # dual-basis difference of the two-letter words
    alpha = CharacterMap(3, 0, [(pf("[[]] []"), 1), (pf("[] [[]]"), -1)])
    assert is_logarithmic(alpha)
    counit = CharacterMap(3, 1)
    assert is_exponential(counit)
    assert not is_logarithmic(CharacterMap(3, 0, [(pf("[] [[]]"), 1)]))


def test_a_change_on_one_forest_is_seen_by_the_shuffle_checks():
    """A logarithmic character changed on one forest up to order 5 is still
    logarithmic iff the forest is one tree, which no proper shuffle holds;
    the counit changed on the empty forest or on a forest of two or more
    trees is not exponential."""
    alpha = random_logarithmic_character(5, random.Random(5))
    assert is_logarithmic(alpha)
    for n in range(6):
        for f in enumerate_ordered_forests(n):
            values = dict(alpha.values)
            values[f] = alpha(f) + 1
            changed = CharacterMap(5, alpha.empty_value, values)
            assert is_logarithmic(changed) == (len(f) == 1), f
            if len(f) != 1:
                assert not is_exponential(CharacterMap(5, 1, {f: 2 if f.is_empty else 1})), f


def test_the_lyndon_check_rejects_what_the_pairwise_check_rejects():
    """A logarithmic character changed on one forest at a time, up to order
    6, and an exponential one, orders 2 to 5, the empty forest included:
    ``is_logarithmic`` and ``is_exponential``, which check the products of
    Lyndon factors, and their pairwise oracles reject the same characters,
    and some changed characters keep the property."""
    logarithmic = (
        lie_character(6, random.Random(18)),
        random_logarithmic_character(5, random.Random(19)),
    )
    exponential = tuple(
        random_exponential_character(order, random.Random(f"exp-{order}-{seed}"))
        for order in range(2, 6)
        for seed in range(2)
    )
    cases = [(alpha, is_logarithmic, vanishes_on_shuffle_pairs) for alpha in logarithmic]
    cases += [(alpha, is_exponential, multiplicative_on_shuffle_pairs) for alpha in exponential]
    for alpha, check, oracle in cases:
        assert check(alpha) and oracle(alpha)
        answers = set()
        for n in range(alpha.order + 1):
            for f in enumerate_ordered_forests(n):
                values = dict(alpha.values)
                values[f] = alpha(f) + 1
                changed = CharacterMap(alpha.order, alpha.empty_value, values)
                answer = check(changed)
                assert answer == oracle(changed), f
                answers.add(answer)
        assert answers == {True, False}


def _kernel(rows: list, columns: tuple) -> list[dict]:
    """A basis of the functionals on ``columns`` that vanish on every row (a
    combination of columns), by exact row reduction."""
    matrix = [[Fraction(row.coeff(c)) for c in columns] for row in rows]
    pivots = []
    for col in range(len(columns)):
        k = len(pivots)
        p = next((i for i in range(k, len(matrix)) if matrix[i][col]), None)
        if p is None:
            continue
        matrix[k], matrix[p] = matrix[p], matrix[k]
        matrix[k] = [v / matrix[k][col] for v in matrix[k]]
        for i, row in enumerate(matrix):
            if i != k and row[col]:
                matrix[i] = [a - row[col] * b for a, b in zip(row, matrix[k])]
        pivots.append(col)
    return [
        {columns[free]: 1, **{columns[p]: -matrix[k][free] for k, p in enumerate(pivots)}}
        for free in range(len(columns))
        if free not in pivots
    ]


def test_the_lyndon_check_sees_what_tree_with_forest_shuffles_miss():
    """At six vertices the shuffles of one tree with a forest span less than
    all proper shuffles.  On every functional of that size that vanishes on
    the former, ``is_logarithmic`` answers as the pairwise oracle, and it
    rejects some."""
    forests = enumerate_ordered_forests(6)
    rows = [
        shuffle(OrderedForest((t,)), v)
        for k in range(1, 6)
        for t in enumerate_planar_trees(k)
        for v in enumerate_ordered_forests(6 - k)
    ]
    answers = []
    for values in _kernel(rows, forests):
        alpha = CharacterMap(6, 0, values)
        answers.append(is_logarithmic(alpha))
        assert answers[-1] == vanishes_on_shuffle_pairs(alpha)
    assert not all(answers)


def test_monomials_multiply_their_keys_and_drop_cancelled_sums():
    """Combinations of commuting monomials multiply their keys, ``0 + x``
    is ``x``, and a sum that cancels is dropped; ``leg_terms`` reads a map
    of right legs to such combinations as coproduct terms."""
    a, b = SymWord.of(pf("[]")), SymWord.of(pf("[[]]"))
    x = LinComb({a: 2, b: -1})
    assert x * LinComb({a: 1, b: 1}) == LinComb({a * a: 2, a * b: 1, b * b: -1})
    assert 0 + x == x and 3 * x == x * 3 == LinComb({a: 6, b: -3})
    assert x + LinComb.of(b) == LinComb.of(a, 2)
    assert leg_terms({pf("[]"): x}) == LinComb([((a, pf("[]")), 2), ((b, pf("[]")), -1)])


def test_integer_coefficients_stay_integers():
    """Integer products and coproducts keep ``int`` coefficients; a
    Fraction or a ``"p/q"`` string gives a ``Fraction``, and a float or a
    bool is refused."""
    f = pf("[[]]")
    combs = [
        gl_product(pf("[]"), pf("[] [[]]")),
        shuffle(pf("[] []"), pf("[[]]")),
        delta_n(pf("[[][]] []")),
        LinComb.of(f, 2),
        LinComb.of(f, 2).scale(3) + LinComb.of(f),
    ]
    for comb in combs:
        assert comb and all(type(c) is int for _, c in comb.items()), comb
    for half in (Fraction(1, 2), "1/2"):
        c = LinComb.of(f, half).coeff(f)
        assert type(c) is Fraction and c == Fraction(1, 2)
    for bad in (0.5, True):
        with pytest.raises(ValueError):
            LinComb.of(f, bad)
        with pytest.raises(ValueError):
            LinComb.of(f).scale(bad)


def test_character_calls_and_truncation():
    alpha = CharacterMap(2, Fraction(1, 3), [(pf("[]"), 2)])
    assert alpha(pf("")) == Fraction(1, 3)
    assert alpha(pf("[]")) == 2
    assert alpha(pf("[[]]")) == 0
    with pytest.raises(ValueError):
        CharacterMap(1, 0, [(pf("[[]]"), 1)])
    # order 0 holds only the empty value; no order is below it
    assert CharacterMap(0, 5, [(pf(""), 7)])(pf("")) == 7
    with pytest.raises(ValueError):
        CharacterMap(-1, 1)
    # a cut drops the larger forests; a raise would claim values never given
    alpha = CharacterMap(2, 1, [(pf("[]"), 2), (pf("[[]]"), 3)])
    assert alpha.truncated(2) == alpha
    assert alpha.truncated(1) == CharacterMap(1, 1, [(pf("[]"), 2)])
    with pytest.raises(ValueError, match="order 5 is above the character's order 2"):
        alpha.truncated(5)
    with pytest.raises(ValueError, match="truncation order must be a non-negative integer"):
        alpha.truncated(1.5)


def test_character_json_round_trip(tmp_path):
    alpha = CharacterMap(
        3, Fraction(1, 2), [(pf("[]"), Fraction(-2, 3)), (pf("[] [[]]"), 4)]
    )
    data = alpha.to_json()
    assert data["order"] == 3 and data["empty"] == "1/2"
    path = tmp_path / "char.json"
    path.write_text(json.dumps(data))
    loaded = CharacterMap.load(path, planar=True)
    assert loaded == alpha


def test_lincomb_text_round_trip():
    x = LinComb(
        [
            (pf(""), Fraction(1, 2)),
            (pf("[]"), -2),
            (pf("[] [[]]"), Fraction(5, 3)),
        ]
    )
    for comb in (x, LinComb()):
        assert parse_lincomb(format_lincomb(comb)) == comb
    assert parse_lincomb("3/2 * [[]] - [] ") == LinComb(
        [(pf("[[]]"), Fraction(3, 2)), (pf("[]"), -1)]
    )


def test_parse_lincomb_rejects_a_zero_denominator():
    with pytest.raises(ValueError):
        parse_lincomb("1/0 * []")


def test_bilinear_with_comb_values():
    x = LinComb.of(pf("[]"), 2)
    y = LinComb.of(pf("[]"), 3)
    assert bilinear(x, y, lambda a, b: a.concat(b)) == LinComb.of(pf("[] []"), 6)
    assert concat(x, y) == LinComb.of(pf("[] []"), 6)


def test_map_basis_is_the_linear_extension():
    """``f`` may return a basis element or a combination, the zero one
    included; colliding images accumulate and may cancel; and the result is
    ``bilinear`` against a one-term right factor."""
    x = LinComb([(pf("[]"), 2), (pf("[[]]"), 3), (pf("[] []"), Fraction(1, 2))])
    to_comb = {
        pf("[]"): LinComb.of(pf("[[]]"), 3),
        pf("[[]]"): LinComb([(pf("[[]]"), -2), (pf("[]"), 1)]),
        pf("[] []"): LinComb(),
    }
    assert x.map_basis(to_comb.get) == LinComb.of(pf("[]"), 3)
    assert x.map_basis(lambda w: w.concat(w)) == LinComb(
        [(pf("[] []"), 2), (pf("[[]] [[]]"), 3), (pf("[] [] [] []"), Fraction(1, 2))]
    )
    assert LinComb([(pf("[]"), 1), (pf("[[]]"), -1)]).map_basis(lambda w: "one") == LinComb()
    for f in (to_comb.get, lambda w: w.concat(w)):
        assert x.map_basis(f) == bilinear(x, LinComb.of("k"), lambda b, _: f(b))


# the truncation orders of the two arguments: the top order is then the
# empty forest or the single vertex, or one argument is far below the other
EDGE_ORDERS = [(0, 0), (1, 1), (0, 3), (3, 0), (1, 3), (3, 1)]


@pytest.mark.parametrize("left_order,right_order", EDGE_ORDERS)
def test_products_at_the_lowest_top_orders(left_order, right_order):
    """Each character product states its own top-order rule; at a top
    order of 0 or 1 it still equals the convolution through its coproduct
    or coaction."""
    rng = random.Random(f"edge-{left_order}-{right_order}")
    order = min(left_order, right_order)
    alpha, beta = lie_character(left_order, rng), any_character(right_order, rng)
    product = star_w(alpha, beta)
    assert product.order == order and product == star_w_through_delta_w(alpha, beta)
    beta, alpha = any_character(left_order, rng), any_character(right_order, rng)
    product = compose_lb(beta, alpha)
    assert product.order == order and product == compose_through_delta_n(beta, alpha)
    for op, delta in (("h", oracle_delta_h), ("ck", oracle_delta_ck)):
        a = random_tree_character(left_order, rng, empty=Fraction(2, 3))
        b = random_tree_character(right_order, rng, empty=Fraction(-1, 5))

        def left(forest):
            return eval_multiplicative(a, [Forest((t,)) for t in forest.trees])

        product = convolve(a, b, op)
        assert product.order == order
        assert product == convolve_through(delta, left, b, enumerate_forests, order), op


# the true divisions in the package, each of a Fraction character value by
# an integer: (module, enclosing function)
_FRACTION_DIVISIONS = {
    ("laws.py", "random_exponential_character"),
    ("numericdemo.py", "_weighted_differentials"),
    ("subst.py", "_lie_factor_value"),
}


def test_no_floating_point_in_the_package():
    """No float literal, no ``float`` and no true division in
    ``src/lbseries`` but the divisions of Fraction values listed above."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        op = getattr(node, "op", None)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(op, ast.Div):
            found.add((path.name, where))
        literal = type(getattr(node, "value", None)) is float
        assert not literal and getattr(node, "id", None) != "float", (path.name, node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(lbseries.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), None)
    assert found <= _FRACTION_DIVISIONS, found - _FRACTION_DIVISIONS


def test_only_trees_reads_the_tree_intern_tables():
    """Outside ``trees`` no module reads an intern ``_table`` but its own
    class's, as ``cls._table`` in the constructor (``SymWord``): a forest
    is looked up through ``trees.built_forest``, so the tables stay a
    detail of ``trees``."""
    found = []
    for path in sorted(Path(lbseries.__file__).parent.glob("*.py")):
        if path.name == "trees.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "_table":
                if getattr(node.value, "id", None) != "cls":
                    found.append((path.name, node.lineno))
            elif isinstance(node, ast.Constant) and node.value == "_table":  # getattr(x, "_table")
                found.append((path.name, node.lineno))
    assert not found, found
