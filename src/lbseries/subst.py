"""Substitution machinery for planar forests.

This module houses the vertex-replacement operad on Lie polynomials of
planar trees, the module structure of ordered forests over it, admissible
vertex partitions, the partition coaction, the bounded coaction oracle with
Lie-bracket left legs, the induced convolution-style products on
characters, and the projection check onto the extraction-contraction
coproduct.

Both coactions and substitution are one recursion on the block of a
forest's first vertex (``_contracted``), which reads the blocks there, with
the forests each leaves, from one coefficient-free cache per forest
(``_skeleton``); the blocks of a run of first trees are built once, from
the run's prefix, and shared by every forest that starts with that run
(``_run_blocks``).  It carries a left character, multiplicative over the
parts, and skips a part on which it has no value: a logarithmic character
and the universal legs have none on a part ``t t ... t``.  Substitution
(``star_w``, and ``a_alpha_dagger`` in :mod:`lbseries.seriesmorph`) passes the logarithmic character's values as
integers and builds no word of parts, over one memo kept on the character
(``_alpha_contraction``); ``coeffalg.pair_legs`` pairs the result with the
right character.  At the top order ``star_w`` builds no forest's map
either: ``_paired_top`` pairs beta once per call with each (hanging
forests, rest) pair that a block of a top-order forest leaves, and weighs
it by the block's part.  ``delta_w`` and ``rho_oracle`` pass a
universal leg, whose summed values are the words, over one memo each for
the process; they serve ``coproduct --op w``, the laws and the tests.

``admissible_partitions`` reads the same cache: it lays each block whose
part is not ``t t ... t`` on the vertices of one ``_ForestIndex`` of the
forest, the numbering that the expressions (``forest_expr``) read too,
and partitions what the block leaves in turn.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from fractions import Fraction
from typing import Sequence

from .coeffalg import (
    CharacterMap,
    LinComb,
    SymWord,
    convolve_through,
    integer_weights,
    is_logarithmic,
    leg_terms,
    pair_legs,
)
from .postlie import LiePoly, _shuffled, b_plus, bracket, concat, left_graft
from .prelie import delta_h
from .trees import (
    EMPTY_FOREST,
    Forest,
    OrderedForest,
    PlanarTree,
    _ForestIndex,
    built_forest,
    enumerate_ordered_forests,
    forget_planarity,
)


# ---------------------------------------------------------------------------
# Expressions over labeled vertices.


@dataclass(frozen=True)
class Leaf:
    label: int


@dataclass(frozen=True)
class Graft:
    left: object
    right: object


@dataclass(frozen=True)
class Bracket:
    left: object
    right: object


@dataclass(frozen=True)
class Concat:
    left: object
    right: object


def eval_expr(expr, env: dict[int, LinComb]) -> LinComb:
    """Evaluate an expression over word expansions of its leaves."""
    if isinstance(expr, Leaf):
        return env[expr.label]
    if isinstance(expr, Graft):
        return left_graft(eval_expr(expr.left, env), eval_expr(expr.right, env))
    if isinstance(expr, Concat):
        return concat(eval_expr(expr.left, env), eval_expr(expr.right, env))
    if isinstance(expr, Bracket):
        a = eval_expr(expr.left, env)
        b = eval_expr(expr.right, env)
        return concat(a, b) - concat(b, a)
    raise TypeError(f"not an expression: {expr!r}")


def expr_labels(expr) -> list[int]:
    if isinstance(expr, Leaf):
        return [expr.label]
    return expr_labels(expr.left) + expr_labels(expr.right)


def forest_expr(forest: OrderedForest, labels: Sequence[int] | None = None):
    """Concatenation of per-tree expressions, each tree the grafting of its
    root forest onto its root.

    Vertex labels follow the preorder of ``_ForestIndex`` (tree by tree, root
    first, children in stored order); custom labels may be supplied in that
    same order, one per vertex.  A root forest lists the children planar
    left to right, which is reversed stored order.
    """
    if forest.is_empty:
        raise ValueError("the empty forest has no expression")
    index = _ForestIndex(forest.trees)
    labels = list(range(index.n) if labels is None else labels)
    if len(labels) != index.n:
        raise ValueError("label count must match the vertex count")
    return reduce(Concat, (_vertex_expr(index.children, labels, v) for v in index.roots))


def _vertex_expr(children: list, labels: list, v: int):
    """The expression of vertex ``v``: its leaf, grafted onto by the
    concatenation of its children's expressions (planar left to right, so
    reversed stored order).  A module-level recursion, so no call leaves a
    reference cycle."""
    expr = Leaf(labels[v])
    if children[v]:
        below = (_vertex_expr(children, labels, c) for c in reversed(children[v]))
        expr = Graft(reduce(Concat, below), expr)
    return expr


def tree_expr(tree: PlanarTree, labels: Sequence[int] | None = None):
    """The one-tree case of :func:`forest_expr`: the grafting of the tree's
    root forest onto its root."""
    return forest_expr(OrderedForest((tree,)), labels)


def _expr_env(
    inputs: Sequence[LiePoly], labels: list[int], assignment: Sequence[int] | None
) -> dict[int, LinComb]:
    n = len(labels)
    if len(inputs) != n:
        raise ValueError(f"expected {n} inputs, got {len(inputs)}")
    if assignment is None:
        assignment = list(range(n))
    if sorted(assignment) != list(range(n)):
        raise ValueError("assignment must be a bijection onto the inputs")
    env = {}
    for position, label in enumerate(sorted(labels)):
        env[label] = inputs[assignment[position]].expansion
    return env


def compose_postlie_operad(
    inputs: Sequence[LiePoly], base, assignment: Sequence[int] | None = None
) -> LiePoly:
    """Substitute Lie polynomials into the labeled vertices of a bracket/graft
    expression and evaluate in word coordinates.

    ``assignment[k]`` names the input placed at the k-th smallest label.
    """
    labels = expr_labels(base)
    if len(set(labels)) != len(labels):
        raise ValueError("expression labels must be distinct")
    env = _expr_env(inputs, labels, assignment)
    return LiePoly(eval_expr(base, env))


def compose_module(
    inputs: Sequence[LiePoly],
    base: OrderedForest,
    assignment: Sequence[int] | None = None,
) -> LinComb:
    """Replace the vertices of an ordered forest by Lie polynomials.

    Vertices are numbered in preorder across the forest; the result is the
    evaluated word expansion (independent of how the forest expression is
    rewritten).
    """
    if base.is_empty:
        if inputs:
            raise ValueError("expected 0 inputs for the empty forest")
        return LinComb.of(EMPTY_FOREST)
    expr = forest_expr(base)
    env = _expr_env(inputs, expr_labels(expr), assignment)
    return eval_expr(expr, env)


# ---------------------------------------------------------------------------
# Admissible partitions and the partition coaction.


@dataclass(frozen=True)
class AdmissiblePartition:
    """A vertex partition of an ordered forest into subforests.

    ``blocks`` are the vertex sets (deterministically ordered); ``parts``
    are the induced subforests with their trees in planar left-to-right
    order; ``part_roots`` lists each block's root vertices in that order;
    ``part_vertices`` gives, per part, the host vertex ids in the part's
    own preorder.
    """

    blocks: tuple[frozenset[int], ...]
    parts: tuple[OrderedForest, ...]
    part_roots: tuple[tuple[int, ...], ...]
    part_vertices: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _tree_blocks(tree: PlanarTree) -> tuple:
    """The blocks rooted at a tree's root, each as (part tree, hanging):
    the root takes a prefix of its stored children, each taken child roots
    a block of its own subtree, and ``hanging`` lists, in the part's
    preorder, the children each block vertex leaves (planar left to right)
    as one forest per vertex that leaves any."""
    kids = tree.children
    blocks = []
    for j in range(len(kids) + 1):
        own = (OrderedForest(kids[j:][::-1]),) if j < len(kids) else ()
        for taken in itertools.product(*map(_tree_blocks, kids[:j])):
            part = PlanarTree(tuple(p for p, _ in taken))
            blocks.append((part, own + tuple(h for _, hs in taken for h in hs)))
    return tuple(blocks)


def _in_order_bracketings(trees: tuple[PlanarTree, ...]) -> list[LiePoly]:
    """All binary bracketings of the trees in their given order."""
    if len(trees) == 1:
        return [LiePoly.from_tree(trees[0])]
    return [
        bracket(left, right)
        for mid in range(1, len(trees))
        for left in _in_order_bracketings(trees[:mid])
        for right in _in_order_bracketings(trees[mid:])
    ]


def _nonzero_bracketings(part: OrderedForest) -> list[LiePoly]:
    return [lp for lp in _in_order_bracketings(part.trees) if not lp.is_zero()]


def _vanishing_part(part: OrderedForest) -> bool:
    """True iff the part has two or more trees, all equal: exactly the parts
    with no nonzero in-order Lie bracketing (checked against
    ``_nonzero_bracketings`` on every forest up to order 7)."""
    trees = part.trees
    return len(trees) > 1 and trees.count(trees[0]) == len(trees)


def admissible_partitions(forest: OrderedForest) -> list[AdmissiblePartition]:
    """Vertex partitions whose parts can be grafted back into a smaller forest.

    The block that holds a forest's first vertex is one of its blocks
    (``_skeleton``): its roots are a run of the forest's first trees, and
    each of its vertices takes a prefix of its stored children, so internal
    edges sit planar-right of grafted-in material.  Each block is laid on
    the host vertices of one ``_ForestIndex`` from its roots, and the
    forests it leaves (the children its vertices do not take, planar left
    to right, and the trees past its roots) are partitioned in turn, so
    each partition is built once.  Blocks whose part has two or more trees,
    all equal, are left out: no in-order Lie bracketing of such a part is
    nonzero, and keeping them breaks coassociativity of the coaction.  The
    coaction does not list partitions; it reads ``_skeleton`` alone.
    """
    index = _ForestIndex(forest.trees)
    out: list[AdmissiblePartition] = []
    _partitions(index, (tuple(index.roots),) if index.roots else (), (), out)
    return out


def _partitions(index: _ForestIndex, pending: tuple, picked: tuple, out: list) -> None:
    """Append to ``out`` every partition that extends the blocks ``picked``
    over the host forests ``pending``, each as its roots planar left to
    right (``admissible_partitions``)."""
    if not pending:
        columns = tuple(zip(*picked)) or ((),) * 4
        out.append(AdmissiblePartition(*columns))
        return
    roots, pending = pending[0], pending[1:]
    runs = _skeleton(OrderedForest(index.subtree[r] for r in roots))
    for end, (_, blocks) in enumerate(runs, 1):
        rest = (roots[end:],) if end < len(roots) else ()
        for part, _ in blocks:
            if _vanishing_part(part):
                continue
            visited, hanging = [], []
            for r, tree in zip(roots, part.trees):
                _lay(index, r, tree, visited, hanging)
            entry = (frozenset(visited), part, roots[:end], tuple(visited))
            _partitions(index, (*hanging, *rest, *pending), picked + (entry,), out)


def _lay(index: _ForestIndex, u: int, vertex: PlanarTree, visited: list, hanging: list) -> None:
    """Lay the block vertex ``vertex`` on the host vertex ``u``: it takes
    the first of its stored children, as many as ``vertex`` has, and the
    rest hang below it, planar left to right."""
    visited.append(u)
    kids = index.children[u]
    if len(vertex.children) < len(kids):
        hanging.append(tuple(kids[len(vertex.children) :][::-1]))
    for c, sub in zip(kids, vertex.children):
        _lay(index, c, sub, visited, hanging)


@lru_cache(maxsize=None)
def _run_blocks(run: OrderedForest) -> tuple:
    """The blocks whose roots are the roots of the trees of ``run``, each
    tree rooting a block of its own (``_tree_blocks``), as (part, hanging)
    with the part listing them in forest order; with ``_tree_blocks`` the
    one statement of the block rule, which partitions and coactions read.

    They are the blocks of ``run`` without its last tree, each extended by
    every block of that tree, so a run is built from its prefix and every
    forest that starts with ``run`` reads this one tuple.  Parts with two or
    more trees, all equal (``_vanishing_part``), are kept: a longer run
    extends them, and the readers skip them (``admissible_partitions``, the
    universal legs) or find no value there (a logarithmic alpha).
    """
    if run.is_empty:
        return ((EMPTY_FOREST, ()),)
    last = _tree_blocks(run.trees[-1])
    return tuple(
        (OrderedForest(part.trees + (p,)), hanging + h)
        for part, hanging in _run_blocks(OrderedForest(run.trees[:-1]))
        for p, h in last
    )


@lru_cache(maxsize=None)
def _skeleton(forest: OrderedForest) -> tuple:
    """The blocks at a non-empty forest's first vertex, as (rest, blocks)
    pairs, one per run of the forest's first trees: ``blocks`` are that
    run's (``_run_blocks``, the one tuple every forest with that run reads)
    and ``rest`` holds the top-level trees past it.

    Every other block lies in one of the smaller forests a block leaves:
    ``hanging`` lists the children its vertices do not take, one forest per
    vertex, and ``rest`` the trees past its roots.  The skeleton does not
    depend on coefficients, so every use of ``_contracted`` reads this one
    cache.
    """
    trees = forest.trees
    return tuple(
        (OrderedForest(trees[end:]), _run_blocks(OrderedForest(trees[:end])))
        for end in range(1, len(trees) + 1)
    )


def _contracted(forest: OrderedForest, value, memo: dict) -> dict:
    """The partition coaction of ``forest`` with the left character
    ``value`` evaluated on the word of parts, as ``{quotient: c}``.  With
    alpha's ``integer_weights`` over the scale ``D`` (``star_w``,
    ``a_alpha_dagger``), ``c`` is the quotient's coefficient in
    ``a_alpha_dagger(alpha, forest)`` times ``D ** |forest|``; with a
    universal leg (``delta_w``, ``rho_oracle``), it is the quotient's words.
    ``memo`` holds each forest's map for as long as the caller keeps it:
    for alpha's weights, as long as alpha (:func:`_alpha_contraction`); for
    a universal leg, the process.

    The map is a recursion on the block that holds the forest's first
    vertex (``_skeleton``): the values of the forests the block leaves
    multiply in, the forests hanging below the block shuffle and ``b_plus``
    closes them under the collapsed block (``_hung``), and the rest
    concatenates.  With alpha's weights each part weighs
    ``alpha(part) * D ** |part|``, and the parts of a term cover the
    forest.  A part without a value is skipped.
    """
    out = memo.get(forest)
    if out is not None:
        return out
    sums: dict = {}
    if forest.is_empty:
        sums[EMPTY_FOREST] = 1
    for rest, blocks in _skeleton(forest):
        # the forests closed under the collapsed block, summed over the
        # blocks of this run before the rest multiplies in
        heads: dict = {}
        for part, hanging in blocks:
            a = value(part)
            if a is not None:
                for f, c in _hung(hanging, value, memo, a).items():
                    heads[f] = heads.get(f, 0) + c
        tail = _contracted(rest, value, memo).items() if heads else ()
        for fb, cb in heads.items():
            if cb:
                head = (b_plus(fb),)
                for fr, cr in tail:
                    q = OrderedForest(head + fr.trees)
                    sums[q] = sums.get(q, 0) + cb * cr
    out = memo[forest] = {q: c for q, c in sums.items() if c}
    return out


def _hung(hanging: tuple, value, memo: dict, a=1) -> dict:
    """The shuffle of the ``_contracted`` maps of the forests that hang
    below a block, times ``a``; ``{EMPTY_FOREST: a}`` when none hangs."""
    if not hanging:
        return {EMPTY_FOREST: a}
    below = {f: a * c for f, c in _contracted(hanging[0], value, memo).items()}
    for h in hanging[1:]:
        below = _shuffled(below, _contracted(h, value, memo))
    return below


def _paired_top(forest: OrderedForest, read, value, memo: dict, pairings: dict) -> int:
    """The pairing of ``_contracted(forest, value, memo)`` with the integer
    reader ``read``, for a forest whose map no other forest reads: the map
    is not built.

    Each block ``(part, hanging)`` of a run with rest ``rest``
    (``_skeleton``) with a value adds ``value(part) * S(hanging, rest)``.  ``S`` sums
    ``cb * T(fb, rest)`` over the hanging forests' shuffle ``{fb: cb}``
    (``_hung``), and ``T`` pairs ``read`` with every ``b_plus(fb) fr``,
    ``fr`` over the map of ``rest``, each looked up as a tuple of trees
    (``trees.built_forest``) rather than built: a forest never built has
    no value to read.  Neither depends on the part, so
    ``pairings[rest]`` keeps both, ``S`` under the tuple ``hanging`` and
    ``T`` under the forest ``fb``, for every block and every forest that
    meets them while the caller keeps ``pairings``.
    """
    if forest.is_empty:
        return read(EMPTY_FOREST, 0)
    total = 0
    for rest, blocks in _skeleton(forest):
        known = pairings.get(rest)
        if known is None:
            known = pairings[rest] = {}
        for part, hanging in blocks:
            a = value(part)
            if a is None:
                continue
            s = known.get(hanging)
            if s is None:
                s = 0
                for fb, cb in _hung(hanging, value, memo).items():
                    t = known.get(fb)
                    if t is None:
                        head = (b_plus(fb),)
                        t = known[fb] = sum(
                            cr * read(built_forest(head + fr.trees), 0)
                            for fr, cr in _contracted(rest, value, memo).items()
                        )
                    s += cb * t
                known[hanging] = s
            total += a * s
    return total


_WORD_MEMO: dict = {}


def _word_leg(part: OrderedForest) -> LinComb | None:
    """The universal leg of ``delta_w``: a part is its own one-part word,
    and a part ``t t ... t`` (``_vanishing_part``) has none."""
    if _vanishing_part(part):
        return None
    return LinComb.of(SymWord.of(part))


@lru_cache(maxsize=None)
def delta_w(forest: OrderedForest) -> LinComb:
    """Partition coaction: symmetric words of parts tensor contractions,
    ``_contracted`` read with the universal word leg over one memo for the
    process."""
    if forest.is_empty:
        return LinComb.of((SymWord.unit(), EMPTY_FOREST))
    return leg_terms(_contracted(forest, _word_leg, _WORD_MEMO))


# ---------------------------------------------------------------------------
# Coaction with Lie-bracket left legs.


class SymLieWord:
    """A commutative word of Lie polynomials (compared by word expansion)."""

    __slots__ = ("factors", "_hash")

    def __init__(self, factors: Sequence[LiePoly] = ()):
        self.factors = tuple(sorted(factors, key=LiePoly.sort_key))
        self._hash = hash(("slw", tuple(f.sort_key() for f in self.factors)))

    @staticmethod
    def unit() -> "SymLieWord":
        return SymLieWord(())

    def __mul__(self, other: "SymLieWord") -> "SymLieWord":
        return SymLieWord(self.factors + other.factors)

    def __eq__(self, other):
        return isinstance(other, SymLieWord) and self.factors == other.factors

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.factors)

    def serialize(self) -> str:
        if not self.factors:
            return "1"
        return " & ".join(f.serialize() for f in self.factors)

    def __repr__(self):
        return f"SymLieWord({self.serialize()!r})"


class OracleGuardError(ValueError):
    pass


def rho_oracle(forest: OrderedForest, max_size_guard: int = 4) -> LinComb:
    """Coaction with Lie-polynomial left legs, refusing forests above the guard.

    It is ``delta_w``'s recursion with another universal leg: every nonzero
    in-order bracketing of a part is one left factor, stored sign-normalized
    so that opposite orientations cancel.
    """
    if forest.vertex_count > max_size_guard:
        raise OracleGuardError(
            f"forest has {forest.vertex_count} vertices, guard is {max_size_guard}"
        )
    if forest.is_empty:
        return LinComb.of((SymLieWord.unit(), EMPTY_FOREST))
    return leg_terms(_contracted(forest, _bracket_leg, _RHO_MEMO))


_RHO_MEMO: dict = {}


def _bracket_leg(part: OrderedForest) -> LinComb | None:
    """The universal leg of :func:`rho_oracle`: the signed sum of a part's
    sign-normalized nonzero in-order bracketings, one left factor each; a
    part ``t t ... t`` (``_vanishing_part``) has none."""
    if _vanishing_part(part):
        return None
    signed = (lp.sign_normalized() for lp in _nonzero_bracketings(part))
    return LinComb((SymLieWord((canonical,)), sign) for sign, canonical in signed)


# ---------------------------------------------------------------------------
# Character-level products.


def _require_logarithmic(alpha: CharacterMap) -> None:
    if not is_logarithmic(alpha):
        raise ValueError("character is not logarithmic")


def _alpha_contraction(alpha: CharacterMap) -> tuple[int, dict, dict, dict]:
    """A logarithmic character's contraction ``(D, weights, memo, images)``:
    its ``integer_weights``, the memo of its ``_contracted`` forest maps and
    the memo of its grafted images (``seriesmorph.a_alpha``, which puts the
    seed series at the single vertex).  None of it depends on what alpha is
    substituted into, so it is built on first use and kept on alpha
    (``CharacterMap._contraction``): every ``star_w`` and
    ``a_alpha_dagger`` with alpha reads and fills one memo, and every
    ``a_alpha`` with alpha the other."""
    _require_logarithmic(alpha)
    if alpha._contraction is None:
        alpha._contraction = (*integer_weights(alpha.values), {}, {})
    return alpha._contraction


def star_w(alpha: CharacterMap, beta: CharacterMap) -> CharacterMap:
    """Substitution product on characters through the partition coaction.

    ``alpha`` must be logarithmic; it is extended multiplicatively over the
    commutative word of parts.  The coaction's words are never built: the
    recursion that ``delta_w`` reads with its universal leg
    (``_contracted``) carries alpha and gives each forest's quotients with
    integer coefficients, which ``pair_legs`` pairs with beta.  Those maps
    do not depend on beta, so they live in alpha's memo
    (:func:`_alpha_contraction`) and a later call with alpha reads them
    again.  A forest of the top order gets no map: ``_paired_top`` sums its
    pairing block by block, as ``alpha(part)`` times beta paired with what
    the block's hanging forests and the rest of the forest contract to,
    which is summed once per call for each (hanging, rest) pair.  Equal to
    ``convolve_through(delta_w, ...)`` (tested up to order 7, and on a
    sample of order-8 forests).
    """
    scale, weight, memo, _ = _alpha_contraction(alpha)
    pairings: dict = {}
    order = min(alpha.order, beta.order)

    def paired(forest: OrderedForest, read) -> int:
        if forest.vertex_count == order:
            return _paired_top(forest, read, weight.get, memo, pairings)
        return sum(c * read(q, 0) for q, c in _contracted(forest, weight.get, memo).items())

    return pair_legs(paired, lambda size: scale**size, beta, enumerate_ordered_forests, order)


def _lie_factor_value(alpha: CharacterMap, lp: LiePoly) -> Fraction:
    """Evaluate a character on a bracket monomial through its word expansion,
    normalized by the symmetrization factor of its letter count."""
    if lp.is_zero():
        return Fraction(0)
    letters = len(next(iter(lp.expansion.support())).trees)
    return alpha.on_comb(lp.expansion) / math.factorial(letters)


def star_rho(alpha: CharacterMap, beta: CharacterMap, max_size_guard: int = 4) -> CharacterMap:
    """Oracle-scale substitution product through the bracket coaction.

    Checked against :func:`star_w` only up to guard 4.  At guard 5 the
    ``1/k!`` normalization of bracket factors departs from it on parts
    with repeated trees, first on the forest ``[[]] [] [] []``.
    """
    _require_logarithmic(alpha)
    return convolve_through(
        partial(rho_oracle, max_size_guard=max_size_guard),
        lambda word: math.prod(_lie_factor_value(alpha, lp) for lp in word.factors),
        beta,
        enumerate_ordered_forests,
        min(alpha.order, beta.order, max_size_guard),
    )


# ---------------------------------------------------------------------------
# Projection check.


def check_pi_morphism(tree: PlanarTree) -> bool:
    """Projecting the partition coaction onto non-planar forests (brackets
    killed, embeddings collapsed) must reproduce the extraction-contraction
    coproduct of the underlying non-planar tree."""
    forest = OrderedForest((tree,))
    terms = []
    for (word, quotient), c in delta_w(forest).items():
        if all(len(part.trees) == 1 for part in word.parts):
            left = Forest(tuple(forget_planarity(part).trees[0] for part in word.parts))
            terms.append(((left, forget_planarity(quotient)), c))
    return LinComb(terms) == delta_h(forget_planarity(forest))
