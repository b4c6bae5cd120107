"""Non-planar side: grafting, the vertex-replacement operad, and the two
coproducts that govern composition (admissible edge cuts) and substitution
(extraction-contraction of spanning subforests) for series over rooted trees.

Each coproduct is one recursion at a tree's root (``_h_terms``,
``_ck_legs``), where each child's own terms are computed once, extended
multiplicatively over the trees of a forest.  The recursion carries a left
character: ``convolve`` passes its left argument's values as integers and
builds no coproduct term, and ``delta_h``/``delta_ck`` pass the universal
character, whose value on a tree is the tree itself (a ``LinComb`` of
one-tree forests, which multiply as forests), so the summed values are the
left legs.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

from .coeffalg import (
    CharacterMap,
    LinComb,
    bilinear,
    integer_weights,
    leg_terms,
    pair_legs,
    pair_mul,
)
from .trees import (
    EMPTY_NP_FOREST,
    Forest,
    NonPlanarTree,
    PlanarTree,
    _ForestIndex,
    _grafted,
    canonicalize,
    enumerate_forests,
)


def graft(t1: NonPlanarTree, t2: NonPlanarTree) -> LinComb:
    """Sum over all ways to add an edge from a vertex of ``t2`` to ``t1``'s root."""
    return LinComb((canonicalize(t), n) for t, n in _grafted((t1.rep,), t2.rep, {}).items())


def graft_comb(x: LinComb, y: LinComb) -> LinComb:
    return bilinear(x, y, graft)


def check_prelie_identity(t1: NonPlanarTree, t2: NonPlanarTree, t3: NonPlanarTree) -> bool:
    """a(bc)-associator symmetry in the first two arguments."""
    one = LinComb.of
    lhs = (
        graft_comb(one(t1), graft_comb(one(t2), one(t3)))
        - graft_comb(graft_comb(one(t1), one(t2)), one(t3))
        - graft_comb(one(t2), graft_comb(one(t1), one(t3)))
        + graft_comb(graft_comb(one(t2), one(t1)), one(t3))
    )
    return lhs.is_zero()


def compose_prelie_operad(
    inputs: Sequence[NonPlanarTree],
    base: NonPlanarTree,
    assignment: Sequence[int] | None = None,
) -> LinComb:
    """Replace each vertex of ``base`` by a tree and redistribute edges.

    ``assignment[v]`` names the input placed at preorder vertex ``v`` of the
    canonical representative of ``base`` (identity when omitted).  The
    incoming edge of a vertex moves to the root of its replacement; each
    outgoing edge may reattach to any vertex of the replacement, and the sum
    ranges over all such choices: the trees built below a vertex's children
    graft onto its replacement through ``trees._grafted``, one memo per call.
    """
    n = base.vertex_count
    if len(inputs) != n:
        raise ValueError(f"expected {n} inputs, got {len(inputs)}")
    if assignment is None:
        assignment = list(range(n))
    if sorted(assignment) != list(range(n)):
        raise ValueError("assignment must be a bijection onto the inputs")

    # the slots are read in preorder, as ``_replaced`` meets the vertices
    terms = _replaced(base.rep, inputs, iter(assignment), {})
    return LinComb((canonicalize(t), c) for t, c in terms.items())


def _replaced(vertex: PlanarTree, inputs: Sequence[NonPlanarTree], slots, memo: dict) -> dict:
    """The planar trees, with counts, of ``vertex`` and what hangs below it
    with each vertex replaced by its input (the next of ``slots``): the
    terms built below its children graft onto its input.  A module-level
    recursion, so no call leaves a reference cycle."""
    slot = inputs[next(slots)].rep
    child_terms = [_replaced(c, inputs, slots, memo) for c in vertex.children]
    out: dict = {}
    for picks in itertools.product(*(c.items() for c in child_terms)):
        coeff = math.prod(c for _, c in picks)
        for tree, m in _grafted(tuple(t for t, _ in picks), slot, memo).items():
            out[tree] = out.get(tree, 0) + coeff * m
    return out


def _universal_leg(tree: NonPlanarTree) -> LinComb:
    """The universal character on trees: a tree is its own one-tree forest."""
    return LinComb.of(Forest((tree,)))


_UNIT = LinComb.of(EMPTY_NP_FOREST)


def delta_ck(forest: Forest) -> LinComb:
    """Admissible-cut coproduct: ``_ck_legs`` read with the universal character."""
    memo: dict = {}
    legs = _forest_legs(forest, lambda rep: _ck_legs(rep, _UNIT, _universal_leg, memo), _UNIT)
    return leg_terms(legs)


def delta_h(forest: Forest) -> LinComb:
    """Extraction-contraction coproduct: ``_h_terms`` read with the
    universal character."""
    memo: dict = {}
    legs = _forest_legs(forest, lambda rep: _h_terms(rep, _universal_leg, memo)[1], _UNIT)
    return leg_terms(legs)


def _forest_legs(forest: Forest, tree_legs, one) -> dict:
    """The product of the maps ``tree_legs(rep)`` of a forest's trees, from
    the first (the tree coproducts are multiplicative); the empty forest's
    map is ``{EMPTY_NP_FOREST: one}``."""
    if forest.is_empty:
        return {EMPTY_NP_FOREST: one}
    return functools.reduce(_multiplied, (tree_legs(t.rep) for t in forest.trees))


# ---------------------------------------------------------------------------
# Labeled brute-force dual of the vertex-replacement operad.


def _labeled_trees_on(labels: tuple[int, ...]):
    """All rooted trees on the given distinct labels, as parent maps."""
    labels = tuple(labels)
    n = len(labels)
    if n == 1:
        yield {labels[0]: None}
        return
    for root in labels:
        rest = [v for v in labels if v != root]
        for parents in itertools.product(labels, repeat=len(rest)):
            pmap = {root: None}
            for v, p in zip(rest, parents):
                pmap[v] = p
            ok = True
            for v in rest:
                w, hops = v, 0
                while w is not None and hops <= n:
                    w = pmap[w]
                    hops += 1
                if w is not None:
                    ok = False
                    break
            if ok:
                yield pmap


def _parent_map_shape(pmap: dict) -> NonPlanarTree:
    children: dict = {v: [] for v in pmap}
    root = None
    for v, p in pmap.items():
        if p is None:
            root = v
        else:
            children[p].append(v)

    return canonicalize(_tree_below(root, children))


def _tree_below(v, children: dict) -> PlanarTree:
    """The planar tree rooted at ``v`` of the map ``children``."""
    return PlanarTree(tuple(_tree_below(c, children) for c in children[v]))


def _ordered_set_partitions(items: tuple):
    """All ways to split ``items`` into an ordered tuple of nonempty blocks."""
    items = tuple(items)
    if not items:
        yield ()
        return
    n = len(items)
    for n_blocks in range(1, n + 1):
        for labels in itertools.product(range(n_blocks), repeat=n):
            if sorted(set(labels)) != list(range(n_blocks)):
                continue
            blocks = tuple(
                tuple(items[i] for i in range(n) if labels[i] == b)
                for b in range(n_blocks)
            )
            yield blocks


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


def check_h_operad_duality(tree: NonPlanarTree) -> bool:
    """Compare ``delta_h`` with the 1/n!-weighted labeled operadic dual.

    The oracle fixes one labeling of the tree, then enumerates ordered label
    partitions, labeled trees on each block, a labeled pattern tree on the
    blocks, and all edge redistributions; every tuple whose composite
    contains the fixed labeled tree contributes its block shapes tensor the
    pattern shape, weighted by 1/n!.
    """
    target = _ForestIndex((tree.rep,)).parent_map()
    labels = tuple(sorted(target))

    terms = []
    for blocks in _ordered_set_partitions(labels):
        n = len(blocks)
        weight = Fraction(1, math.factorial(n))
        block_trees = [list(_labeled_trees_on(b)) for b in blocks]
        for pattern in _labeled_trees_on(tuple(range(n))):
            for combo in itertools.product(*block_trees):
                if target in _labeled_compose(list(combo), pattern):
                    left = Forest(tuple(_parent_map_shape(m) for m in combo))
                    right = Forest((_parent_map_shape(pattern),))
                    terms.append(((left, right), weight))
    return LinComb(terms) == delta_h(Forest((tree,)))


def convolve(a: CharacterMap, b: CharacterMap, coproduct: str) -> CharacterMap:
    """Convolution of functionals through ``delta_ck`` or ``delta_h``: the
    value on a forest is the sum of ``c * a(left) * b(right)`` over its
    terms, up to the smaller of the two orders.

    The left argument is evaluated multiplicatively over the tree factors of
    the left tensor legs (so a functional given on trees extends to the cut
    branches / extracted parts; its values on other forests are not read);
    the right argument is looked up directly.  No coproduct term is built:
    ``a`` is carried through the root recursion that ``delta_h`` and
    ``delta_ck`` read with the universal character (``_h_terms``,
    ``_ck_legs``), which gives each tree a map from right legs to their
    summed left values, in integers.  A forest's map is the product of its
    trees' maps, paired with ``b`` through ``pair_legs``; a top-order tree
    leaves the memo.  Equal to
    ``convolve_through`` of a brute-force coproduct (tested up to order 7).
    """
    if coproduct not in ("ck", "h"):
        raise ValueError("coproduct must be 'ck' or 'h'")
    scale, weight = integer_weights({f.trees[0]: c for f, c in a.values.items() if len(f) == 1})
    memo: dict = {}

    def tree_legs(rep: PlanarTree) -> dict:
        if coproduct == "h":
            return _h_terms(rep, weight.get, memo)[1]
        return _ck_legs(rep, scale, weight.get, memo)

    order = min(a.order, b.order)

    def paired(forest: Forest, read) -> int:
        legs = _forest_legs(forest, tree_legs, 1)
        if forest.vertex_count == order and len(forest) == 1:
            del memo[forest.trees[0].rep]  # a tree of the top order is no other tree's subtree
        return sum(c * read(r, 0) for r, c in legs.items())

    return pair_legs(paired, lambda size: scale**size, b, enumerate_forests, order)


def _multiplied(x: dict, y: dict, mul=Forest.mul) -> dict:
    """The product of two combinations under ``mul``; equal products sum.
    The coefficients are ``int``s or ``LinComb``s."""
    out: dict = {}
    for bx, cx in x.items():
        for by, cy in y.items():
            b = mul(bx, by)
            out[b] = out.get(b, 0) + cx * cy
    return out


_LEAF_TERMS = {(EMPTY_NP_FOREST, EMPTY_NP_FOREST): 1}


def _h_terms(rep: PlanarTree, value, memo: dict) -> tuple[dict, dict]:
    """The left character ``value`` contracted into ``delta_h`` of a
    canonical tree rep, as ``(options, legs)``.  ``legs`` maps each right
    leg (the quotient, as a one-tree forest) to the sum, over the spanning
    subforests with that quotient, of ``value``'s product over their parts:
    an ``int`` for ``convolve``, the parts themselves for ``delta_h``.

    Every edge to a child is kept or cut.  The root's terms are keyed by
    (the forest its part carries below the root, the quotients hanging
    below that part), the values of the other parts multiplied into the
    coefficient.  A kept edge joins the child's root part to the root's; a
    cut one hangs the child's quotient below the root's part, its part's
    value coming in from the child's legs.  ``options`` holds both kinds,
    as the pairs of forests a tree brings to its parent's terms, so each
    subtree's are built once and the children's multiply from the first;
    equal keys and equal quotients sum.  With ``convolve``'s weights every
    part weighs ``a(part) * D ** |part|`` (``integer_weights``) and the
    parts cover the tree, so each term of a tree ``t`` carries ``D ** |t|``.
    ``memo`` holds each planar subtree's pair for one call.
    """
    out = memo.get(rep)
    if out is None:
        terms = _LEAF_TERMS
        if rep.children:
            terms = functools.reduce(
                functools.partial(_multiplied, mul=pair_mul),
                (_h_terms(child, value, memo)[0] for child in rep.children),
            )
        options, legs = {}, {}
        for (kids, below), c in terms.items():
            part = kids.planted()
            # kept: the part grows up through the parent's edge
            options[Forest((part,)), below] = c
            w = value(part)
            if w:
                leg = Forest((below.planted(),))
                legs[leg] = legs.get(leg, 0) + c * w
        # cut: the quotient hangs below the parent's part
        options.update(((EMPTY_NP_FOREST, leg), c) for leg, c in legs.items())
        out = memo[rep] = options, legs
    return out


def _ck_legs(rep: PlanarTree, scale, value, memo: dict) -> dict:
    """The left character ``value`` contracted into ``delta_ck`` of a
    canonical tree rep: a map from right legs (the kept tree as a one-tree
    forest, or the empty forest) to the sum, over the cuts that keep it, of
    ``value``'s product over the cut branches.

    A cut takes at most one edge on any root-to-leaf path: each child edge
    is cut, the child's branch weighing in on the empty leg, or the cut goes
    on inside the child.  So a child's options are its own legs, and the
    kept children multiply as forests.  Every kept vertex weighs ``scale``
    (the unit monomial for ``delta_ck``), so with ``convolve``'s weights
    each term of a tree ``t`` carries ``scale ** |t|``, as does the term
    with the whole tree on the left, ``value(t)`` on the empty leg.
    ``memo`` holds each planar subtree's legs for one call.
    """
    out = memo.get(rep)
    if out is None:
        kids = {EMPTY_NP_FOREST: scale}
        for child in rep.children:
            kids = _multiplied(kids, _ck_legs(child, scale, value, memo))
        out = {Forest((f.planted(),)): c for f, c in kids.items()}
        w = value(NonPlanarTree(rep))
        if w:
            out[EMPTY_NP_FOREST] = w
        memo[rep] = out
    return out
