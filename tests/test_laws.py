"""The law layer: one result shape, its failure path, and its place above
the kernel."""

import ast
from pathlib import Path

import lbseries
from lbseries import laws
from lbseries.coeffalg import LinComb
from lbseries.laws import run_law
from lbseries.trees import EMPTY_FOREST, parse_forest

SOURCES = sorted(Path(lbseries.__file__).parent.glob("*.py"))


def test_run_law_reports_a_wrong_coproduct(monkeypatch):
    """A left-cut coproduct that loses its (1, f) term breaks the counit law
    at the single vertex."""
    right = laws.delta_n

    def wrong_delta_n(forest):
        if forest.is_empty:
            return right(forest)
        return right(forest) - LinComb.of((EMPTY_FOREST, forest))

    monkeypatch.setattr(laws, "delta_n", wrong_delta_n)
    result = run_law("n-coassoc", 3)
    assert (result.name, result.passed, result.order) == ("n-coassoc", False, 3)
    assert result.counterexample == "counit at []"


def test_run_law_reports_a_wrong_product(monkeypatch):
    """With the Grossman-Larson product's arguments swapped, duality with the
    left-cut coproduct first fails at the cherry."""
    right = laws.gl_product
    monkeypatch.setattr(laws, "gl_product", lambda f1, f2: right(f2, f1))
    result = run_law("gl-duality", 4)
    assert (result.name, result.passed, result.order) == ("gl-duality", False, 4)
    assert parse_forest(result.counterexample).serialize() == "[[][]]"


def test_operad_assoc_sees_inputs_out_of_place(monkeypatch):
    """A production composition that takes its inputs in reverse order
    disagrees with the labeled composition on the two-vertex base."""
    right = laws.compose_prelie_operad
    monkeypatch.setattr(
        laws, "compose_prelie_operad", lambda inputs, base: right(inputs[::-1], base)
    )
    result = run_law("operad-assoc")
    assert not result.passed
    assert result.counterexample == "labeled vs production at base [[]]"


def test_operad_assoc_draws_nothing_at_random(monkeypatch):
    """It enumerates its cases, so it runs with no random generator; at
    order 8 it checks every one of them."""
    monkeypatch.setattr(laws.random, "Random", None)
    assert run_law("operad-assoc", 8).passed


def _drop_first_term(delta, keep):
    """``delta`` with its first sorted term dropped where ``keep`` is false."""

    def wrong(forest):
        terms = delta(forest)
        if keep(forest):
            return terms
        pair, c = terms.sorted_items()[0]
        return terms - LinComb.of(pair, c)

    return wrong


def test_h_coassoc_sees_a_wrong_coproduct_of_two_trees(monkeypatch):
    wrong = _drop_first_term(laws.delta_h, lambda f: len(f.trees) != 2)
    monkeypatch.setattr(laws, "delta_h", wrong)
    assert run_law("h-coassoc", 3).counterexample == "counit at [] []"


def test_h_coassoc_multiplicativity_sees_a_wrong_coproduct(monkeypatch):
    """With the coassociativity and counit checks passed over, the
    multiplicativity loop finds the same fault in the product of two
    vertices."""
    wrong = _drop_first_term(laws.delta_h, lambda f: len(f.trees) != 2)
    monkeypatch.setattr(laws, "delta_h", wrong)
    monkeypatch.setattr(laws, "_coassoc_check", lambda *args: None)
    assert run_law("h-coassoc", 3).counterexample == "multiplicativity at [] | []"


def test_shuffle_bialgebra_sees_a_non_multiplicative_shuffle(monkeypatch):
    """Doubling every shuffle breaks the left-cut morphism already at the
    empty forests: the left side doubles, the right side quadruples."""
    right = laws.shuffle
    monkeypatch.setattr(laws, "shuffle", lambda a, b: right(a, b).scale(2))
    result = run_law("shuffle-bialgebra", 3)
    assert result.counterexample == "left-cut morphism at  | "


def test_cointeraction_sees_a_wrong_left_cut_coproduct(monkeypatch):
    wrong = _drop_first_term(laws.delta_n, lambda f: f.vertex_count < 2)
    monkeypatch.setattr(laws, "delta_n", wrong)
    assert run_law("cointeraction", 3).counterexample == "coaction-compat"


def test_cointeraction_law_passes_its_guard_and_names_failing_checks(monkeypatch):
    calls = []

    def report(order, guard, seed):
        calls.append((order, guard, seed))
        return {"unit": False, "multiplicative": True, "counit": False}

    monkeypatch.setattr(laws, "check_cointeraction", report)
    result = run_law("cointeraction", 2, 0, seed=5)
    assert not result.passed and result.counterexample == "unit, counit"
    run_law("cointeraction", 2)
    assert calls == [(2, 0, 5), (2, 3, 0)]


def test_matrix_rank_divides_exactly():
    """The third row is an integer combination of the first two, which a
    float division of the integer entries misses."""
    rows = [
        [906691060, 413654000, 813847340],
        [955892129, 451585302, 43469774],
        [758625467813959, 354404426916522, 244259293734874],
    ]
    assert laws.matrix_rank(rows) == 2


def _imported_modules(tree: ast.Module) -> set[str]:
    """Sibling modules named by the relative or ``lbseries.`` imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                names.update(alias.name for alias in node.names)
            elif node.level == 1 or (node.module or "").startswith("lbseries."):
                names.add(node.module.split(".")[-1])
        elif isinstance(node, ast.Import):
            names.update(
                alias.name.split(".")[-1] for alias in node.names if alias.name.startswith("lbseries.")
            )
    return names


def test_only_the_law_and_cli_layers_import_them():
    """No kernel module imports ``laws`` or ``cli`` (``__main__`` is the
    command line's entry point); every import sits at
    module top except ``coeffalg``'s of ``postlie``, which imports
    ``coeffalg``; no class subclasses ``dict``, so ``LinComb`` stays the
    one coefficient container; ``laws`` builds ``LawResult`` only in
    ``run_law``."""
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        if path.stem not in ("laws", "cli", "__init__", "__main__"):
            assert not _imported_modules(tree) & {"laws", "cli"}, path.name
        top = set(map(id, tree.body))
        nested = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and id(node) not in top
            and not (path.stem == "coeffalg" and _imported_modules(node) == {"postlie"})
        ]
        assert nested == [], f"{path.name} imports inside a function at lines {nested}"
        dicts = [
            cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            and any(getattr(base, "id", None) == "dict" for base in cls.bases)
        ]
        assert dicts == [], f"{path.name} subclasses dict in {dicts}"
        if path.stem != "laws":
            continue
        builders = [
            func.name
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for call in ast.walk(func)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "LawResult"
        ]
        assert builders == ["run_law"]


# the true divisions on Fraction values: character values are Fractions
DIVISIONS = [
    ("laws", "random_exponential_character"),
    ("numericdemo", "_weighted_differentials"),
    ("subst", "_lie_factor_value"),
]


def test_true_divisions_only_where_the_values_are_fractions():
    """``LinComb`` keeps integer coefficients as ``int``s, and ``int / int``
    is a float: a ``/`` in ``src/lbseries`` may stand only in the functions
    above, once each, where a ``Fraction`` is divided."""
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        owner = {}
        # breadth first, so an inner function's nodes take its name last
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), func.name) for node in ast.walk(func))
        sites += [
            (path.stem, owner.get(id(node), "<module>"))
            for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        ]
    assert sorted(sites) == DIVISIONS


def test_interned_values_compare_by_identity():
    """The tree, forest and word constructors return one object per value,
    so no class in ``trees`` and not ``SymWord`` defines ``__eq__`` or
    ``__hash__``: equality and hashing stay Python's identity defaults."""
    sources = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    classes = [node for node in sources["trees"].body if isinstance(node, ast.ClassDef)]
    classes += [
        node
        for node in sources["coeffalg"].body
        if isinstance(node, ast.ClassDef) and node.name == "SymWord"
    ]
    assert {"PlanarTree", "OrderedForest", "NonPlanarTree", "Forest", "SymWord"} <= {
        cls.name for cls in classes
    }
    defined = [
        (cls.name, func.name)
        for cls in classes
        for func in cls.body
        if isinstance(func, ast.FunctionDef) and func.name in ("__eq__", "__hash__")
    ]
    assert defined == []
