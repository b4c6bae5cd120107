"""Registry of verification laws.

Each law runs an exhaustive or randomized identity check at a configurable
size and reports the smallest counterexample it finds.  The CLI exposes the
registry; the test suite drives the same functions.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .coeffalg import (
    CharacterMap,
    LinComb,
    SymWord,
    convolve_through,
    is_exponential,
    is_primitive_shuffle,
    tensor,
)
from .postlie import (
    LiePoly,
    bracket,
    concat,
    delta_n,
    delta_shuffle,
    gl_product,
    left_graft,
    lie_graft,
    shuffle,
)
from .prelie import (
    check_h_operad_duality,
    check_prelie_identity,
    compose_prelie_operad,
    delta_ck,
    delta_h,
)
from .subst import (
    Bracket,
    Leaf,
    admissible_partitions,
    check_cointeraction,
    check_pi_morphism,
    compose_postlie_operad,
    delta_w,
)
from .trees import (
    EMPTY_FOREST,
    Forest,
    NonPlanarTree,
    OrderedForest,
    _ForestIndex,
    enumerate_forests,
    enumerate_nonplanar_trees,
    enumerate_ordered_forests,
    enumerate_planar_trees,
)


@dataclass
class LawResult:
    name: str
    passed: bool
    order: int
    counterexample: str | None = None
    detail: str | None = None


# ---------------------------------------------------------------------------
# Random character construction (all exact rationals, seeded).


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def random_character(order: int, rng: random.Random) -> CharacterMap:
    """Arbitrary rational functional on ordered forests up to ``order``."""
    values = []
    for size in range(1, order + 1):
        for forest in enumerate_ordered_forests(size):
            values.append((forest, _random_fraction(rng)))
    return CharacterMap(order, _random_fraction(rng), values)


def _lie_monomials(max_vertices: int) -> list[LiePoly]:
    """Spanning set of Lie polynomials: all in-order bracketings of all tree
    sequences with the given total vertex count or less."""
    from .subst import _in_order_bracketings

    out = []
    for total in range(1, max_vertices + 1):
        for forest in enumerate_ordered_forests(total):
            if forest.is_empty:
                continue
            for lp in _in_order_bracketings(forest.trees):
                if not lp.is_zero():
                    out.append(lp)
    return out


def random_logarithmic_character(
    order: int, rng: random.Random, support: int | None = None
) -> CharacterMap:
    """Random functional vanishing on the empty forest and on all shuffles.

    Built as the coefficient functional of a random Lie polynomial, whose
    words are primitive for the unshuffling coproduct.
    """
    limit = min(order, support if support is not None else order)
    terms = []
    for lp in _lie_monomials(limit):
        c = _random_fraction(rng)
        terms.extend((w, a * c) for w, a in lp.expansion.items())
    return CharacterMap(order, 0, LinComb(terms).items())


def _deconcat(forest: OrderedForest) -> LinComb:
    """Deconcatenation coproduct: every split of the tree sequence in two."""
    trees = forest.trees
    return LinComb(
        ((OrderedForest(trees[:cut]), OrderedForest(trees[cut:])), 1)
        for cut in range(len(trees) + 1)
    )


def _deconcat_convolve(a: CharacterMap, b: CharacterMap) -> CharacterMap:
    return convolve_through(_deconcat, a, b, enumerate_ordered_forests, min(a.order, b.order))


def random_exponential_character(order: int, rng: random.Random) -> CharacterMap:
    """Convolution exponential of a random logarithmic functional."""
    log = random_logarithmic_character(order, rng)
    terms = []
    power = CharacterMap(order, 1)
    for k in range(1, order + 1):
        power = _deconcat_convolve(power, log)
        terms.extend((f, c / math.factorial(k)) for f, c in power.values.items())
    return CharacterMap(order, 1, LinComb(terms).items())


def random_tree_character(order: int, rng: random.Random, empty=0) -> CharacterMap:
    """Random functional supported on single non-planar trees."""
    values = []
    for size in range(1, order + 1):
        for tree in enumerate_nonplanar_trees(size):
            values.append((Forest((tree,)), _random_fraction(rng)))
    return CharacterMap(order, empty, values)


# ---------------------------------------------------------------------------
# Exact linear algebra helper.


def matrix_rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    col = 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / pr[col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], pr)]
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# Individual laws.


def law_prelie_identity(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    trees = [t for n in range(1, order + 1) for t in enumerate_nonplanar_trees(n)]
    for t1, t2, t3 in itertools.product(trees, repeat=3):
        if not check_prelie_identity(t1, t2, t3):
            ce = f"{t1.serialize()}, {t2.serialize()}, {t3.serialize()}"
            return LawResult("prelie-identity", False, order, ce)
    return LawResult("prelie-identity", True, order)


def _post_lie_bracket(a: LiePoly, b: LiePoly) -> LiePoly:
    return lie_graft(a, b) - lie_graft(b, a) + bracket(a, b)


def law_postlie_jacobi(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    gens = [
        LiePoly.from_tree(t)
        for n in range(1, order + 1)
        for t in enumerate_planar_trees(n)
    ]
    for a, b, c in itertools.product(gens, repeat=3):
        total = (
            _post_lie_bracket(a, _post_lie_bracket(b, c))
            + _post_lie_bracket(b, _post_lie_bracket(c, a))
            + _post_lie_bracket(c, _post_lie_bracket(a, b))
        )
        if not total.is_zero():
            ce = f"{a.serialize()}, {b.serialize()}, {c.serialize()}"
            return LawResult("postlie-jacobi", False, order, ce)
    return LawResult("postlie-jacobi", True, order)


def law_dalgebra_axioms(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    forests = [
        f for n in range(0, order + 1) for f in enumerate_ordered_forests(n)
    ]
    unit = LinComb.of(EMPTY_FOREST)
    for a in forests:
        if left_graft(unit, LinComb.of(a)) != LinComb.of(a):
            return LawResult("dalgebra-axioms", False, order, f"1 -> {a.serialize()}")
    lies = _lie_monomials(order)
    small = [f for f in forests if f.vertex_count <= 2]
    for a in forests:
        for x in lies:
            y = left_graft(LinComb.of(a), x.expansion)
            for b in small:
                for c in small:
                    lhs = left_graft(y, LinComb.of(b.concat(c)))
                    rhs = concat(left_graft(y, LinComb.of(b)), LinComb.of(c)) + concat(
                        LinComb.of(b), left_graft(y, LinComb.of(c))
                    )
                    if lhs != rhs:
                        ce = f"a={a.serialize()}, x={x.serialize()}, b={b.serialize()}, c={c.serialize()}"
                        return LawResult("dalgebra-axioms", False, order, ce)
    for x in lies:
        for a in forests:
            for b in forests:
                lhs = left_graft(x.expansion, left_graft(LinComb.of(a), LinComb.of(b)))
                rhs = left_graft(
                    concat(x.expansion, LinComb.of(a)), LinComb.of(b)
                ) + left_graft(left_graft(x.expansion, LinComb.of(a)), LinComb.of(b))
                if lhs != rhs:
                    ce = f"x={x.serialize()}, a={a.serialize()}, b={b.serialize()}"
                    return LawResult("dalgebra-axioms", False, order, ce)
    return LawResult("dalgebra-axioms", True, order)


def _coassociator(delta: Callable, dx: LinComb) -> tuple[LinComb, LinComb]:
    """``(delta (x) id)`` and ``(id (x) delta)`` applied to the tensor ``dx``."""
    lhs = LinComb(
        ((a1, a2, b), c * c1) for (a, b), c in dx.items() for (a1, a2), c1 in delta(a).items()
    )
    rhs = LinComb(
        ((a, b1, b2), c * c2) for (a, b), c in dx.items() for (b1, b2), c2 in delta(b).items()
    )
    return lhs, rhs


def _coassoc_check(delta: Callable, basis_iter, counit: Callable):
    """Generic coassociativity + counit check; returns a counterexample or None."""
    for x in basis_iter:
        dx = delta(x)
        lhs, rhs = _coassociator(delta, dx)
        if lhs != rhs:
            return f"coassociativity at {x.serialize()}"
        left_counit = LinComb((b, c * counit(a)) for (a, b), c in dx.items())
        right_counit = LinComb((a, c * counit(b)) for (a, b), c in dx.items())
        if left_counit != LinComb.of(x) or right_counit != LinComb.of(x):
            return f"counit at {x.serialize()}"
    return None


def law_ck_coassoc(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    basis = [f for n in range(0, order + 1) for f in enumerate_forests(n)]
    ce = _coassoc_check(delta_ck, basis, lambda f: Fraction(1 if f.is_empty else 0))
    return LawResult("ck-coassoc", ce is None, order, ce)


def _h_counit(f: Forest) -> Fraction:
    return Fraction(1 if all(t.vertex_count == 1 for t in f.trees) else 0)


def law_h_coassoc(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    basis = [f for n in range(0, order + 1) for f in enumerate_forests(n)]
    ce = _coassoc_check(delta_h, basis, _h_counit)
    if ce is None:
        half = min(4, order)
        pieces = [f for n in range(0, half + 1) for f in enumerate_forests(n)]
        for f in pieces:
            for g in pieces:
                prod = f.mul(g)
                lhs = delta_h(prod)
                rhs = LinComb(
                    ((a.mul(a2), b.mul(b2)), c * c2)
                    for (a, b), c in delta_h(f).items()
                    for (a2, b2), c2 in delta_h(g).items()
                )
                if lhs != rhs:
                    ce = f"multiplicativity at {f.serialize()} | {g.serialize()}"
                    break
            if ce:
                break
    return LawResult("h-coassoc", ce is None, order, ce)


def law_n_coassoc(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    basis = [f for n in range(0, order + 1) for f in enumerate_ordered_forests(n)]
    ce = _coassoc_check(delta_n, basis, lambda f: Fraction(1 if f.is_empty else 0))
    return LawResult("n-coassoc", ce is None, order, ce)


def _delta_w_on_symword(word: SymWord) -> LinComb:
    out = LinComb.of((SymWord.unit(), SymWord.unit()))
    for part in word.parts:
        comp = delta_w(part).map_basis(
            lambda wq: (wq[0], SymWord.unit() if wq[1].is_empty else SymWord.of(wq[1]))
        )
        out = LinComb(
            ((a * a2, b * b2), c * c2)
            for (a, b), c in out.items()
            for (a2, b2), c2 in comp.items()
        )
    return out


def _w_counit(word: SymWord) -> Fraction:
    ok = all(
        len(p.trees) == 1 and p.vertex_count == 1 for p in word.parts
    )
    return Fraction(1 if ok else 0)


def law_w_coassoc(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    """Two-sided coassociativity of the partition coaction on symmetric-word
    legs, plus its coaction counit laws.

    The two-sided identity is genuinely false: refining an admissible
    partition by admissible partitions of its parts is again admissible,
    but the converse decomposition of a composite partition into a coarse
    partition plus refinements is not unique, and the smallest
    counterexample is the two-tree forest of a vertex and a 2-chain.  The
    counit laws and the character-level substitution-action associativity
    (covered by the substitution-theorem and automorphism laws) do hold.
    """
    counterexample = None
    for n in range(1, order + 1):
        for forest in enumerate_ordered_forests(n):
            dw = delta_w(forest).items()
            counit_side = LinComb((b, c * _w_counit(a)) for (a, b), c in dw)
            empty_side = LinComb((a, c) for (a, b), c in dw if b.is_empty)
            if counit_side != LinComb.of(forest):
                return LawResult(
                    "w-coassoc", False, order, f"counit at {forest.serialize()}"
                )
            if not empty_side.is_zero():
                return LawResult(
                    "w-coassoc", False, order, f"empty quotient at {forest.serialize()}"
                )
            if counterexample is not None:
                continue
            dx = _delta_w_on_symword(SymWord.of(forest))
            lhs, rhs = _coassociator(_delta_w_on_symword, dx)
            if lhs != rhs:
                counterexample = f"coassociativity at {forest.serialize()}"
    if counterexample is not None:
        return LawResult(
            "w-coassoc",
            False,
            order,
            counterexample,
            detail="known-false identity: counit laws pass (see docstring)",
        )
    return LawResult("w-coassoc", True, order)


def law_shuffle_bialgebra(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    pieces = [f for n in range(0, order + 1) for f in enumerate_ordered_forests(n)]
    for a in pieces:
        for b in pieces:
            # unshuffling is multiplicative over concatenation
            lhs = delta_shuffle(a.concat(b))
            rhs = LinComb(
                ((a1.concat(b1), a2.concat(b2)), c1 * c2)
                for (a1, a2), c1 in delta_shuffle(a).items()
                for (b1, b2), c2 in delta_shuffle(b).items()
            )
            if lhs != rhs:
                return LawResult(
                    "shuffle-bialgebra",
                    False,
                    order,
                    f"concat morphism at {a.serialize()} | {b.serialize()}",
                )
            # the left-cut coproduct is multiplicative over shuffles
            lhs = LinComb(
                (pair, c * cp)
                for w, c in shuffle(a, b).items()
                for pair, cp in delta_n(w).items()
            )
            rhs = LinComb(
                (pair, c1 * c2 * cp)
                for (a1, a2), c1 in delta_n(a).items()
                for (b1, b2), c2 in delta_n(b).items()
                for pair, cp in tensor(shuffle(a1, b1), shuffle(a2, b2)).items()
            )
            if lhs != rhs:
                return LawResult(
                    "shuffle-bialgebra",
                    False,
                    order,
                    f"left-cut morphism at {a.serialize()} | {b.serialize()}",
                )
    # primitives of the unshuffling coproduct = span of bracket monomials
    scan = min(order + 1, 4)
    for n in range(1, scan + 1):
        basis = list(enumerate_ordered_forests(n))
        pos = {w: i for i, w in enumerate(basis)}
        pair_index: dict = {}
        rows = [
            LinComb(
                (pair_index.setdefault((u, v), len(pair_index)), c)
                for (u, v), c in delta_shuffle(w).items()
                if not (u.is_empty or v.is_empty)
            )
            for w in basis
        ]
        width = len(pair_index)
        # primitive space = kernel of the reduced coproduct on degree n
        columns = [[row.coeff(j) for row in rows] for j in range(width)]
        rank = matrix_rank(columns) if width else 0
        primitive_dim = len(basis) - rank
        monos = [
            lp
            for lp in _lie_monomials(n)
            if next(iter(lp.expansion.items()))[0].vertex_count == n
        ]
        vecs = []
        for lp in monos:
            vec = [Fraction(0)] * len(basis)
            for w, c in lp.expansion.items():
                vec[pos[w]] = c
            if not is_primitive_shuffle(lp.expansion, n):
                return LawResult(
                    "shuffle-bialgebra",
                    False,
                    order,
                    f"non-primitive bracket at degree {n}",
                )
            vecs.append(vec)
        lie_dim = matrix_rank(vecs) if vecs else 0
        if lie_dim != primitive_dim:
            return LawResult(
                "shuffle-bialgebra",
                False,
                order,
                f"primitive dimension {primitive_dim} != bracket span {lie_dim} at degree {n}",
            )
    return LawResult("shuffle-bialgebra", True, order)


def law_gl_duality(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    for n in range(0, order + 1):
        expected: dict[OrderedForest, list] = {}
        for a_size in range(0, n + 1):
            for f1 in enumerate_ordered_forests(a_size):
                for f2 in enumerate_ordered_forests(n - a_size):
                    for w, c in gl_product(f1, f2).items():
                        expected.setdefault(w, []).append(((f1, f2), c))
        for forest in enumerate_ordered_forests(n):
            lhs = delta_n(forest)
            rhs = LinComb(expected.get(forest, ()))
            if lhs != rhs:
                return LawResult("gl-duality", False, order, forest.serialize())
    return LawResult("gl-duality", True, order)


def law_h_operad_duality(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    for n in range(1, order + 1):
        for tree in enumerate_nonplanar_trees(n):
            if not check_h_operad_duality(tree):
                return LawResult("h-operad-duality", False, order, tree.serialize())
    return LawResult("h-operad-duality", True, order)


# -- labeled compositions for the operad associativity laws ----------------


def _labeled_compose(inputs: list[dict], base: dict) -> list[dict]:
    """Compose labeled trees (parent maps): base vertices in sorted order are
    replaced by the inputs; every edge redistribution yields one summand."""
    base_vertices = sorted(base)
    roots = {}
    for i, pmap in enumerate(inputs):
        for v, p in pmap.items():
            if p is None:
                roots[i] = v
    slot_of = {v: i for i, v in enumerate(base_vertices)}
    merged: dict = {}
    for pmap in inputs:
        merged.update(pmap)
    edges = [(v, p) for v, p in base.items() if p is not None]
    choice_sets = [sorted(inputs[slot_of[p]]) for _, p in edges]
    out = []
    for choice in itertools.product(*choice_sets):
        candidate = dict(merged)
        for (child, _), attach in zip(edges, choice):
            candidate[roots[slot_of[child]]] = attach
        out.append(candidate)
    return out


def _substitute_expr(expr, mapping: dict):
    if isinstance(expr, Leaf):
        return mapping[expr.label]
    return type(expr)(
        _substitute_expr(expr.left, mapping), _substitute_expr(expr.right, mapping)
    )


def law_operad_assoc(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    rng = random.Random(seed)
    from .prelie import _parent_map_shape
    from .subst import tree_expr

    # Pre-Lie side: nested vs flat labeled composition, plus agreement of the
    # unlabeled image with the production composition.
    for trial in range(25):
        base_size = rng.randint(1, 2)
        base = rng.choice(enumerate_nonplanar_trees(base_size))
        mids = [
            rng.choice(enumerate_nonplanar_trees(rng.randint(1, 2)))
            for _ in range(base_size)
        ]
        leaf_budget = max(1, order - sum(m.vertex_count for m in mids))
        leaves = []
        for m in mids:
            group = []
            for _ in range(m.vertex_count):
                size = rng.randint(1, 2) if leaf_budget > 2 else 1
                leaf_budget -= size - 1
                group.append(rng.choice(enumerate_nonplanar_trees(size)))
            leaves.append(group)

        offset = 0
        base_map = _ForestIndex((base.rep,)).parent_map(1000)
        mid_maps = []
        for m in mids:
            mid_maps.append(_ForestIndex((m.rep,)).parent_map(offset))
            offset += 100
        leaf_maps = []
        for group in leaves:
            maps = []
            for leaf_tree in group:
                maps.append(_ForestIndex((leaf_tree.rep,)).parent_map(offset))
                offset += 10
            leaf_maps.append(maps)

        nested = []
        inner_results = [
            _labeled_compose(leaf_maps[i], mid_maps[i]) for i in range(base_size)
        ]
        for combo in itertools.product(*inner_results):
            nested.extend(_labeled_compose(list(combo), base_map))
        flat_inputs = [m for group in leaf_maps for m in group]
        flat = []
        for composite in _labeled_compose(mid_maps, base_map):
            flat.extend(_labeled_compose(flat_inputs, composite))
        lhs = LinComb((_parent_map_shape(m), 1) for m in nested)
        rhs = LinComb((_parent_map_shape(m), 1) for m in flat)
        if lhs != rhs:
            return LawResult(
                "operad-assoc", False, order, f"pre-Lie nested vs flat, base {base.serialize()}"
            )
        production = compose_prelie_operad(
            [NonPlanarTree(m.rep) for m in mids], base
        )
        labeled_image = LinComb(
            (_parent_map_shape(m), 1) for m in _labeled_compose(mid_maps, base_map)
        )
        if production != labeled_image:
            return LawResult(
                "operad-assoc",
                False,
                order,
                f"labeled vs production at base {base.serialize()}",
            )
    # Post-Lie side: substituting expressions first, then evaluating, agrees
    # with evaluating in stages.
    for trial in range(10):
        base_expr = Bracket(Leaf(0), Leaf(1))
        mids_sizes = [rng.randint(1, 2), rng.randint(1, 2)]
        mid_trees = [rng.choice(enumerate_planar_trees(s)) for s in mids_sizes]
        label = itertools.count()
        mid_exprs = [
            tree_expr(t, [next(label) for _ in range(t.vertex_count)])
            for t in mid_trees
        ]
        n_leaves = sum(mids_sizes)
        leaf_polys = [
            LiePoly.from_tree(rng.choice(enumerate_planar_trees(rng.randint(1, 2))))
            for _ in range(n_leaves)
        ]
        inner = []
        offset = 0
        for expr, size in zip(mid_exprs, mids_sizes):
            inner.append(
                compose_postlie_operad(leaf_polys[offset : offset + size], expr)
            )
            offset += size
        staged = compose_postlie_operad(inner, base_expr)
        flat_expr = _substitute_expr(base_expr, {0: mid_exprs[0], 1: mid_exprs[1]})
        flat = compose_postlie_operad(leaf_polys, flat_expr)
        if staged != flat:
            return LawResult("operad-assoc", False, order, "post-Lie nested vs flat")
    return LawResult("operad-assoc", True, order)


def law_cointeraction(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    report = check_cointeraction(order, guard or 3, seed)
    failing = [k for k, ok in report.items() if not ok]
    if failing:
        return LawResult("cointeraction", False, order, ", ".join(failing))
    return LawResult("cointeraction", True, order)


def law_pi_morphism(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    for n in range(1, order + 1):
        for tree in enumerate_planar_trees(n):
            if not check_pi_morphism(tree):
                return LawResult("pi-morphism", False, order, tree.serialize())
    return LawResult("pi-morphism", True, order)


def law_grading(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    for n in range(1, order + 1):
        for forest in enumerate_ordered_forests(n):
            for (word, quotient), _ in delta_w(forest).items():
                left_degree = sum(p.vertex_count - 1 for p in word.parts)
                if left_degree + quotient.vertex_count - 1 != n - 1:
                    return LawResult(
                        "grading", False, order, f"{forest.serialize()} -> {word.serialize()}"
                    )
    # nested-partition closure: refining a partition by admissible partitions
    # of its parts stays admissible
    for n in range(1, min(order, 4) + 1):
        for forest in enumerate_ordered_forests(n):
            partitions = admissible_partitions(forest)
            signatures = {
                tuple(sorted(tuple(sorted(b)) for b in p.blocks)) for p in partitions
            }
            for p in partitions:
                refinements = []
                for part, host_ids in zip(p.parts, p.part_vertices):
                    subs = admissible_partitions(part)
                    refinements.append(
                        [
                            [
                                frozenset(host_ids[i] for i in sub_block)
                                for sub_block in sp.blocks
                            ]
                            for sp in subs
                        ]
                    )
                for combo in itertools.product(*refinements):
                    refined = tuple(
                        sorted(tuple(sorted(b)) for group in combo for b in group)
                    )
                    if refined not in signatures:
                        return LawResult(
                            "grading",
                            False,
                            order,
                            f"refinement escapes admissibility at {forest.serialize()}",
                        )
    return LawResult("grading", True, order)


def law_adjoint(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    from .seriesmorph import check_adjoint

    rng = random.Random(seed)
    for trial in range(3):
        alpha = random_logarithmic_character(order, rng, support=3)
        if not check_adjoint(alpha, order):
            return LawResult("adjoint", False, order, f"random trial {trial}")
    return LawResult("adjoint", True, order)


def law_substitution_theorem(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    from .seriesmorph import a_alpha, series_of, substitute_lb

    rng = random.Random(seed)
    trials = 20
    forests = [
        f for n in range(0, order + 1) for f in enumerate_ordered_forests(n)
    ]
    for trial in range(trials):
        alpha = random_logarithmic_character(order, rng, support=3)
        beta = random_character(order, rng)
        substituted = series_of(substitute_lb(alpha, beta))
        terms = [(EMPTY_FOREST, beta.empty_value)]
        for f in forests:
            if not f.is_empty:
                terms.extend((w, c * beta(f)) for w, c in a_alpha(alpha, f).element.items())
        from .seriesmorph import TruncatedSeries

        if TruncatedSeries(order, LinComb(terms)) != substituted:
            return LawResult(
                "substitution-theorem", False, order, f"freeness, trial {trial}"
            )
    return LawResult("substitution-theorem", True, order)


def law_bseries_substitution(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    from .numericdemo import Poly, PolyVectorField, verify_bseries_substitution

    rng = random.Random(seed)
    fields = []
    f1 = PolyVectorField([Poly({(0, (2,)): Fraction(1)})])
    fields.append((f1, (Fraction(1),)))
    f2 = PolyVectorField(
        [
            Poly({(0, (1, 1)): Fraction(1), (0, (0, 1)): Fraction(1, 2)}),
            Poly({(0, (1, 0)): Fraction(-1), (0, (0, 2)): Fraction(1, 3)}),
        ]
    )
    fields.append((f2, (Fraction(1), Fraction(-2))))
    for field, y0 in fields:
        for trial in range(3):
            alpha = random_tree_character(order, rng, empty=0)
            beta = random_tree_character(order, rng, empty=_random_fraction(rng))
            if not verify_bseries_substitution(alpha, beta, field, y0, order):
                return LawResult(
                    "bseries-substitution",
                    False,
                    order,
                    f"dim {field.dim}, trial {trial}",
                )
    return LawResult("bseries-substitution", True, order)


def law_automorphism(order: int, guard: int | None = None, seed: int = 0) -> LawResult:
    from .seriesmorph import compose_lb, substitute_lb

    rng = random.Random(seed)
    for trial in range(2):
        beta = random_exponential_character(order, rng)
        gamma = random_exponential_character(order, rng)
        if not is_exponential(beta) or not is_exponential(gamma):
            return LawResult("automorphism", False, order, "exponential generator failed")
        composed = compose_lb(beta, gamma)
        if not is_exponential(composed):
            return LawResult(
                "automorphism", False, order, f"composition not exponential, trial {trial}"
            )
        alpha = random_logarithmic_character(order, rng, support=3)
        substituted = substitute_lb(alpha, beta)
        if not is_exponential(substituted):
            return LawResult(
                "automorphism", False, order, f"substitution not exponential, trial {trial}"
            )
        gamma_sub = substitute_lb(alpha, gamma)
        lhs = substitute_lb(alpha, compose_lb(beta, gamma))
        rhs = compose_lb(substituted, gamma_sub)
        for n in range(0, order + 1):
            for forest in enumerate_ordered_forests(n):
                if lhs(forest) != rhs(forest):
                    return LawResult(
                        "automorphism", False, order, f"distributivity at {forest.serialize()}"
                    )
    return LawResult("automorphism", True, order)


REGISTRY: dict[str, tuple[Callable, int]] = {
    "prelie-identity": (law_prelie_identity, 3),
    "postlie-jacobi": (law_postlie_jacobi, 3),
    "dalgebra-axioms": (law_dalgebra_axioms, 3),
    "ck-coassoc": (law_ck_coassoc, 5),
    "h-coassoc": (law_h_coassoc, 4),
    "n-coassoc": (law_n_coassoc, 5),
    "w-coassoc": (law_w_coassoc, 4),
    "shuffle-bialgebra": (law_shuffle_bialgebra, 3),
    "gl-duality": (law_gl_duality, 6),
    "h-operad-duality": (law_h_operad_duality, 4),
    "operad-assoc": (law_operad_assoc, 6),
    "cointeraction": (law_cointeraction, 6),
    "pi-morphism": (law_pi_morphism, 4),
    "grading": (law_grading, 6),
    "adjoint": (law_adjoint, 5),
    "substitution-theorem": (law_substitution_theorem, 5),
    "bseries-substitution": (law_bseries_substitution, 4),
    "automorphism": (law_automorphism, 4),
}


def run_law(name: str, order: int | None = None, guard: int | None = None, seed: int = 0) -> LawResult:
    if name not in REGISTRY:
        raise KeyError(f"unknown law: {name}")
    func, default_order = REGISTRY[name]
    return func(order if order is not None else default_order, guard, seed)


def law_names() -> list[str]:
    return list(REGISTRY)
