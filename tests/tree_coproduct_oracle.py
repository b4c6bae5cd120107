"""Brute-force tree coproducts on the numbered vertices of a forest.

``oracle_delta_h`` keeps every subset of the edges: the components of the
kept edges are the parts, and contracting each part to a vertex gives the
quotient.  ``oracle_delta_ck`` takes every admissible cut: a set of cut
vertices, none below another, each taking the branch it roots (a root's
branch is its whole tree), and the rest is the trunk.  Both list 2^n
candidates for n vertices and share no code with the root recursions of
``lbseries.prelie``; they are kept only to cross-check ``delta_h`` and
``delta_ck``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from lbseries import LinComb
from lbseries.trees import Forest, PlanarTree, _ForestIndex, canonicalize


def _index(forest: Forest) -> _ForestIndex:
    return _ForestIndex(tuple(t.rep for t in forest.trees))


def _induced(index: _ForestIndex, top: int, keep) -> PlanarTree:
    """The planar tree at ``top`` through the children ``keep`` admits."""
    return PlanarTree(tuple(_induced(index, c, keep) for c in index.children[top] if keep(c)))


@lru_cache(maxsize=None)
def oracle_delta_h(forest: Forest) -> LinComb:
    index = _index(forest)
    edges = [v for v in range(index.n) if index.parent[v] is not None]  # the edge above v
    terms = []
    for kept in itertools.product((False, True), repeat=len(edges)):
        joined = {v for v, k in zip(edges, kept) if k}
        tops = [v for v in range(index.n) if v not in joined]
        top_of: dict[int, int] = {}
        for v in range(index.n):  # preorder: a parent comes before its children
            top_of[v] = top_of[index.parent[v]] if v in joined else v
        below = {t: [] for t in tops}
        for t in tops:
            if index.parent[t] is not None:
                below[top_of[index.parent[t]]].append(t)

        def quotient(t: int) -> PlanarTree:
            return PlanarTree(tuple(quotient(u) for u in below[t]))

        parts = Forest(tuple(canonicalize(_induced(index, t, joined.__contains__)) for t in tops))
        roots = Forest(tuple(canonicalize(quotient(r)) for r in index.roots))
        terms.append(((parts, roots), 1))
    return LinComb(terms)


@lru_cache(maxsize=None)
def oracle_delta_ck(forest: Forest) -> LinComb:
    index = _index(forest)

    def ancestors(v: int) -> list[int]:
        out = []
        while index.parent[v] is not None:
            v = index.parent[v]
            out.append(v)
        return out

    terms = []
    for picked in itertools.product((False, True), repeat=index.n):
        cuts = {v for v in range(index.n) if picked[v]}
        if any(u in cuts for v in cuts for u in ancestors(v)):
            continue
        cut_off = {v for v in range(index.n) if v in cuts or cuts.intersection(ancestors(v))}
        branches = Forest(tuple(canonicalize(index.subtree[v]) for v in sorted(cuts)))
        trunk = Forest(
            tuple(
                canonicalize(_induced(index, r, lambda c: c not in cut_off))
                for r in index.roots
                if r not in cut_off
            )
        )
        terms.append(((branches, trunk), 1))
    return LinComb(terms)
