"""Brute-force admissible partitions and contraction.

Every set partition of the vertices, filtered block by block: the
enumerator the package used before it generated admissible partitions
constructively.  It costs Bell(n) candidates for n vertices and is kept
only to cross-check ``lbseries.subst.admissible_partitions``.

Contraction by listing every interleaving of the child parts of each part:
the construction the package used before it computed the coaction by
recursion on the first block.  With the partitions above it gives
``oracle_delta_w``, kept only to cross-check ``lbseries.subst.delta_w``.
"""

from __future__ import annotations

import itertools

from lbseries import LinComb, SymWord
from lbseries.subst import AdmissiblePartition, _nonzero_bracketings
from lbseries.trees import EMPTY_FOREST, OrderedForest, PlanarTree, _ForestIndex


class _Index(_ForestIndex):
    """The package's vertex numbering with each vertex's position in its
    parent's stored child list, or in the forest's top-level list for a
    root."""

    def __init__(self, trees):
        super().__init__(trees)
        self.position = {c: i for sibs in self.children + [self.roots] for i, c in enumerate(sibs)}


def set_partitions(items: list[int]):
    """Canonical-order set partitions (first item opens the first block)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def block_admissible(index: _ForestIndex, block: frozenset[int]) -> bool:
    roots = [v for v in block if index.parent[v] is None or index.parent[v] not in block]
    parents = {index.parent[r] for r in roots}
    if len(parents) != 1:
        return False
    positions = sorted(index.position[r] for r in roots)
    if positions != list(range(positions[0], positions[0] + len(positions))):
        return False
    # internal edges at any vertex must occupy a prefix of its stored child
    # list (the planar-right block): grafted-in material sits planar-left.
    for v in block:
        internal = [index.position[c] for c in index.children[v] if c in block]
        if internal and sorted(internal) != list(range(len(internal))):
            return False
    return True


def part_forest(index: _ForestIndex, block: frozenset[int]):
    """The block's part, its roots planar left to right, its vertices in the
    part's preorder.  Stored order is planar for top-level roots and
    reversed planar for the children of a common vertex."""
    roots = [v for v in block if index.parent[v] is None or index.parent[v] not in block]
    top = index.parent[roots[0]] is None
    ordered = sorted(roots, key=lambda v: index.position[v] if top else -index.position[v])
    visited: list[int] = []

    def rec(v: int) -> PlanarTree:
        visited.append(v)
        return PlanarTree(tuple(rec(c) for c in index.children[v] if c in block))

    trees = tuple(rec(r) for r in ordered)
    return OrderedForest(trees), tuple(ordered), tuple(visited)


def oracle_partitions(forest: OrderedForest) -> list[AdmissiblePartition]:
    """Admissible partitions by filtering all set partitions; a multi-tree
    part is kept iff some in-order Lie bracketing of its trees is nonzero."""
    index = _Index(forest.trees)
    out = []
    for raw in set_partitions(list(range(index.n))):
        blocks = tuple(frozenset(b) for b in raw)
        if not all(block_admissible(index, b) for b in blocks):
            continue
        described = [part_forest(index, b) for b in blocks]
        if any(len(p.trees) > 1 and not _nonzero_bracketings(p) for p, _, _ in described):
            continue
        parts, roots, vertices = zip(*described) if described else ((), (), ())
        out.append(AdmissiblePartition(blocks, parts, roots, vertices))
    return out


def oracle_delta_w(forest: OrderedForest) -> LinComb:
    """The partition coaction over the oracle's partitions."""
    if forest.is_empty:
        return LinComb.of((SymWord.unit(), EMPTY_FOREST))
    return LinComb(
        ((SymWord(p.parts), q), c)
        for p in oracle_partitions(forest)
        for q, c in oracle_contract(forest, p).items()
    )


def merge_orders(groups: list[list[int]]):
    """All interleavings of the groups, each group keeping its own order."""
    if not groups:
        yield []
        return
    total = sum(len(g) for g in groups)
    if total == 0:
        yield []
        return

    def rec(state: tuple[int, ...]):
        if sum(state) == total:
            yield []
            return
        for gi, used in enumerate(state):
            if used < len(groups[gi]):
                nxt = list(state)
                nxt[gi] += 1
                for rest in rec(tuple(nxt)):
                    yield [groups[gi][used]] + rest

    yield from rec(tuple(0 for _ in groups))


def oracle_contract(forest: OrderedForest, partition: AdmissiblePartition) -> LinComb:
    """Collapse each part to a vertex, one term per planar embedding: child
    parts at one vertex keep their planar order, child parts at different
    vertices of a part take every interleaving."""
    index = _Index(forest.trees)
    block_of: dict[int, int] = {}
    for bi, block in enumerate(partition.blocks):
        for v in block:
            block_of[v] = bi

    n_blocks = len(partition.blocks)
    child_groups: list[dict[int, list[int]]] = [dict() for _ in range(n_blocks)]
    top_parts: list[int] = []
    for bi, roots in enumerate(partition.part_roots):
        parent = index.parent[roots[0]]
        if parent is None:
            top_parts.append(bi)
        else:
            child_groups[block_of[parent]].setdefault(parent, []).append(bi)

    # Per attachment vertex order child parts planar left-to-right: smaller
    # stored positions sit planar-right, so sort by descending position.
    grouped: list[list[list[int]]] = []
    for bi in range(n_blocks):
        groups = []
        for parent in sorted(child_groups[bi]):
            members = child_groups[bi][parent]
            members.sort(
                key=lambda cb: -min(index.position[r] for r in partition.part_roots[cb])
            )
            groups.append(members)
        grouped.append(groups)

    top_parts.sort(key=lambda cb: min(index.position[r] for r in partition.part_roots[cb]))
    choices = [list(merge_orders(groups)) for groups in grouped]

    def build(combo, bi: int) -> PlanarTree:
        planar_children = [build(combo, cb) for cb in combo[bi]]
        return PlanarTree(tuple(reversed(planar_children)))

    return LinComb(
        (OrderedForest(tuple(build(combo, bi) for bi in top_parts)), 1)
        for combo in itertools.product(*choices)
    )
