"""Non-planar side: grafting, the vertex-replacement operad, and the two
coproducts that govern composition (admissible edge cuts) and substitution
(extraction-contraction of spanning subforests) for series over rooted trees.

Both coproducts are given on a tree by recursion at its root, where each
child's own terms are computed once, and extended multiplicatively over the
trees of a forest.  The convolution of characters through either one runs
the same recursion with the left character's values in place of the left
legs, so it builds no coproduct term.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .coeffalg import CharacterMap, LinComb, bilinear, integer_weights, pair_legs
from .trees import (
    EMPTY_NP_FOREST,
    Forest,
    NonPlanarTree,
    PlanarTree,
    _ForestIndex,
    canonicalize,
    enumerate_forests,
)


def graft(t1: NonPlanarTree, t2: NonPlanarTree) -> LinComb:
    """Sum over all ways to add an edge from a vertex of ``t2`` to ``t1``'s root."""
    return LinComb((canonicalize(t), 1) for t in t2.rep.graftings(t1.rep))


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
    ranges over all such choices.
    """
    n = base.vertex_count
    if len(inputs) != n:
        raise ValueError(f"expected {n} inputs, got {len(inputs)}")
    if assignment is None:
        assignment = list(range(n))
    if sorted(assignment) != list(range(n)):
        raise ValueError("assignment must be a bijection onto the inputs")

    base_index = _ForestIndex((base.rep,))

    def build(vertex: int) -> LinComb:
        slot = _ForestIndex((inputs[assignment[vertex]].rep,))
        child_results = [build(c) for c in base_index.children[vertex]]
        terms = []
        for picks in itertools.product(*(list(c.items()) for c in child_results)):
            coeff = math.prod(c for _, c in picks)
            subtrees = [t for t, _ in picks]
            for targets in itertools.product(range(slot.n), repeat=len(subtrees)):
                extras: dict[int, list[PlanarTree]] = {}
                for sub, tgt in zip(subtrees, targets):
                    extras.setdefault(tgt, []).append(sub)
                terms.append((slot.grafted_tree(extras), coeff))
        return LinComb(terms)

    return build(0).map_basis(canonicalize)


def _edge_antichains(tree: PlanarTree):
    """Yield (cut-off branches, remaining tree) over admissible cuts.

    A cut takes at most one edge on any root-to-leaf path: either an edge to
    a child is cut (its whole branch comes off) or the recursion continues
    inside that child.
    """
    options = []
    for child in tree.children:
        child_options = [((child,), None)]
        child_options.extend(
            (branches, kept) for branches, kept in _edge_antichains(child)
        )
        options.append(child_options)
    for combo in itertools.product(*options):
        branches = tuple(itertools.chain.from_iterable(b for b, _ in combo))
        kept_children = tuple(k for _, k in combo if k is not None)
        yield branches, PlanarTree(kept_children)


def _delta_ck_tree(tree: NonPlanarTree) -> LinComb:
    terms = []
    for branches, remainder in _edge_antichains(tree.rep):
        left = Forest(tuple(canonicalize(b) for b in branches))
        terms.append(((left, Forest((canonicalize(remainder),))), 1))
    terms.append(((Forest((tree,)), EMPTY_NP_FOREST), 1))
    return LinComb(terms)


def _multiplicative(tree_coproduct, forest: Forest) -> LinComb:
    """A coproduct given on trees, extended multiplicatively over a forest."""
    out = LinComb.of((EMPTY_NP_FOREST, EMPTY_NP_FOREST))
    for t in forest.trees:
        out = bilinear(out, tree_coproduct(t), _pair_mul)
    return out


def _pair_mul(x: tuple, y: tuple) -> tuple:
    """Pairs of forests multiply leg by leg."""
    return x[0].mul(y[0]), x[1].mul(y[1])


def delta_ck(forest: Forest) -> LinComb:
    """Admissible-cut coproduct, multiplicative over forest factors."""
    return _multiplicative(_delta_ck_tree, forest)


def _root_blocks(rep: PlanarTree) -> LinComb:
    """The spanning subforests of a tree before contraction, keyed by (the
    part holding the root, the other parts, the quotients hanging below the
    root's part).

    Every edge to a child is kept or cut.  A kept edge joins the child's own
    root part to the root's; a cut one adds the child's parts to the others
    and hangs the child's contracted tree below the root's part.  Both come
    from the child's own terms, so each subtree is computed once.
    """
    out = LinComb.of(((), EMPTY_NP_FOREST, EMPTY_NP_FOREST))
    for child in rep.children:
        terms = _root_blocks(child)
        joined = terms.map_basis(lambda k: ((k[0],), k[1], k[2]))
        cut = terms.map_basis(lambda k: ((), *_contract(*k)))
        out = bilinear(
            out, joined + cut, lambda a, b: (a[0] + b[0], a[1].mul(b[1]), a[2].mul(b[2]))
        )
    return out.map_basis(lambda k: (PlanarTree(k[0]), k[1], k[2]))


def _contract(part: PlanarTree, others: Forest, hanging: Forest) -> tuple[Forest, Forest]:
    """The ``delta_h`` term (all parts, quotient) of a :func:`_root_blocks` term.

    The root's part is canonicalized: its kept children may have lost
    vertices, so their order can break.
    """
    return others.mul(Forest((canonicalize(part),))), Forest((_b_plus(hanging),))


def _b_plus(forest: Forest) -> NonPlanarTree:
    """The tree whose root carries the forest's trees.  A ``Forest`` keeps
    its trees in canonical child order, so no sort is needed."""
    return NonPlanarTree(PlanarTree(tuple(t.rep for t in forest.trees)))


def _delta_h_tree(tree: NonPlanarTree) -> LinComb:
    return _root_blocks(tree.rep).map_basis(lambda k: _contract(*k))


def delta_h(forest: Forest) -> LinComb:
    """Extraction-contraction coproduct, multiplicative over forest factors."""
    return _multiplicative(_delta_h_tree, forest)


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

    def build(v) -> PlanarTree:
        return PlanarTree(tuple(build(c) for c in children[v]))

    return canonicalize(build(root))


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
    ``a`` is carried through the root recursion of the coproduct
    (``_h_terms``, ``_ck_legs``), which gives each tree a map from right legs
    to their summed left values, in integers.  A forest's map is the product
    of its trees' maps, which ``pair_legs`` pairs with ``b``.  Equal to
    ``convolve_through`` of the coproduct (tested up to order 7).
    """
    if coproduct not in ("ck", "h"):
        raise ValueError("coproduct must be 'ck' or 'h'")
    scale, weight = integer_weights({f.trees[0]: c for f, c in a.values.items() if len(f) == 1})
    memo: dict = {}

    def legs(forest: Forest, top: bool):
        out = {EMPTY_NP_FOREST: 1}
        for tree in forest.trees:
            rep = tree.rep
            if coproduct == "h":
                tree_legs = _h_terms(rep, weight, memo)[1]
            else:
                tree_legs = _ck_legs(rep, scale, weight, memo)
            if top and len(forest) == 1:
                del memo[rep]  # a tree of the top order is no other tree's subtree
            out = _multiplied(out, tree_legs)
        return out.items()

    return pair_legs(legs, scale, b, enumerate_forests, min(a.order, b.order))


def _multiplied(x: dict, y: dict, mul=Forest.mul) -> dict:
    """The product of two integer combinations under ``mul``; equal
    products sum."""
    out: dict = {}
    for bx, cx in x.items():
        for by, cy in y.items():
            b = mul(bx, by)
            out[b] = out.get(b, 0) + cx * cy
    return out


def _h_terms(rep: PlanarTree, weight: dict, memo: dict) -> tuple[dict, dict]:
    """``a`` contracted into ``delta_h`` of a canonical tree rep, as
    ``(blocks, legs)``.  ``legs`` maps each right leg (the quotient, as a
    one-tree forest) to the sum, over the spanning subforests with that
    quotient, of ``weight``'s product over their parts.

    This is ``_root_blocks``' recursion with another key: ``blocks`` is
    keyed by (the root's part, the quotients hanging below it), and the
    weights of the other parts are summed into the coefficient, so a cut
    child's part enters as a number, not as a left leg.  Every part weighs
    ``a(part) * D ** |part|`` (``integer_weights``) and the parts cover the
    tree, so each term of a tree ``t`` carries ``D ** |t|``.  Different parts may give the same
    key, and different subforests the same quotient; their weights sum.
    ``memo`` holds each planar subtree's pair for one ``convolve`` call.
    """
    out = memo.get(rep)
    if out is None:
        terms = {(EMPTY_NP_FOREST, EMPTY_NP_FOREST): 1}
        for child in rep.children:
            blocks, legs = _h_terms(child, weight, memo)
            # a kept edge joins the child's root part to the root's; a cut
            # one hangs the child's quotient below the root's part
            options = {(Forest((part,)), below): c for (part, below), c in blocks.items()}
            options.update(((EMPTY_NP_FOREST, leg), c) for leg, c in legs.items())
            terms = _multiplied(terms, options, _pair_mul)
        blocks = {(_b_plus(kids), below): c for (kids, below), c in terms.items()}
        legs = {}
        for (part, below), c in blocks.items():
            w = weight.get(part)
            if w:
                leg = Forest((_b_plus(below),))
                legs[leg] = legs.get(leg, 0) + c * w
        out = memo[rep] = blocks, legs
    return out


def _ck_legs(rep: PlanarTree, scale: int, weight: dict, memo: dict) -> dict:
    """``a`` contracted into ``delta_ck`` of a canonical tree rep: a map from
    right legs (the kept tree as a one-tree forest, or the empty forest) to
    the sum, over the cuts that keep it, of ``weight``'s product over the
    cut branches.

    This is ``_edge_antichains``' recursion keyed by the kept tree: each
    child edge is cut, the child's branch weighing in on the empty leg, or
    the recursion goes on inside the child, so a child's options are its
    own legs and the kept children multiply as forests.  A kept tree
    weighs ``scale ** |kept|``, so each term of a tree ``t`` carries
    ``scale ** |t|``, as does the term with the whole tree on the left,
    ``weight(t)`` on the empty leg.  ``memo`` holds each planar subtree's
    legs for one ``convolve`` call.
    """
    out = memo.get(rep)
    if out is None:
        kids = {EMPTY_NP_FOREST: scale}
        for child in rep.children:
            kids = _multiplied(kids, _ck_legs(child, scale, weight, memo))
        out = {Forest((_b_plus(f),)): c for f, c in kids.items()}
        w = weight.get(NonPlanarTree(rep))
        if w:
            out[EMPTY_NP_FOREST] = w
        memo[rep] = out
    return out
