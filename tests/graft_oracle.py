"""Left grafting and the Grossman-Larson product by the associator rule.

A single tree grafts onto a forest as a derivation: onto each tree in turn,
at each vertex (``_graftings``).  A forest ``t1 rest`` grafts by
``t1 > (rest > f2) - (t1 > rest) > f2``, which builds every graft of ``t1``
onto the trees of ``rest`` and subtracts it again.  Of ``lbseries.postlie``
it uses only ``b_plus``/``b_minus``, not the closed sum over vertex
assignments (``trees._grafted``); it is kept only to cross-check
``left_graft``, ``gl_product`` and the pre-Lie ``graft``.
"""

from __future__ import annotations

from functools import lru_cache

from lbseries import LinComb
from lbseries.coeffalg import bilinear
from lbseries.postlie import b_minus, b_plus
from lbseries.trees import OrderedForest, PlanarTree


def _graftings(tree: PlanarTree, sub: PlanarTree):
    """Yield copies of ``tree`` with ``sub`` grafted leftmost below each
    vertex, in preorder.  "Leftmost" appends ``sub`` to the vertex's stored
    child tuple."""
    children = tree.children
    yield PlanarTree(children + (sub,))
    for i, child in enumerate(children):
        for grafted in _graftings(child, sub):
            yield PlanarTree(children[:i] + (grafted,) + children[i + 1 :])


def _tree_onto_tree(t1: PlanarTree, t2: PlanarTree) -> LinComb:
    return LinComb((OrderedForest((t,)), 1) for t in _graftings(t2, t1))


@lru_cache(maxsize=None)
def _graft_forests(f1: OrderedForest, f2: OrderedForest) -> LinComb:
    if f1.is_empty:
        return LinComb.of(f2)
    if len(f1.trees) == 1:
        t1 = f1.trees[0]
        if f2.is_empty:
            return LinComb.zero()
        head, tail = f2.trees[0], OrderedForest(f2.trees[1:])
        grafted = _tree_onto_tree(t1, head)
        left = grafted.map_basis(lambda w: w.concat(tail))
        right = _graft_forests(OrderedForest((t1,)), tail).map_basis(
            lambda w: OrderedForest((head,)).concat(w)
        )
        return left + right
    head = OrderedForest(f1.trees[:1])
    rest = OrderedForest(f1.trees[1:])
    inner = _graft_forests(rest, f2)
    first = oracle_left_graft(LinComb.of(head), inner)
    outer = oracle_left_graft(_graft_forests(head, rest), LinComb.of(f2))
    return first - outer


def oracle_left_graft(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear left grafting on linear combinations of ordered forests."""
    return bilinear(x, y, _graft_forests)


def oracle_gl_product(f1: OrderedForest, f2: OrderedForest) -> LinComb:
    """Grossman-Larson product of ordered forests."""
    grafted = _graft_forests(f1, OrderedForest((b_plus(f2),)))
    return grafted.map_basis(lambda w: b_minus(w.trees[0]))
