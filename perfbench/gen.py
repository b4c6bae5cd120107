"""Seeded workload inputs, built from the seed alone.

Nothing here imports ``lbseries``: trees are enumerated as bracket strings
and characters are written as the JSON documents the CLI reads, so a change
to the program (its enumerators or its ``laws.random_*`` helpers) cannot
change what a workload is fed.  Every rational is written as a ``"p/q"``
string, never as a JSON number.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

@lru_cache(maxsize=None)
def planar_trees(n: int) -> tuple[str, ...]:
    """Planar trees with ``n`` vertices as bracket strings."""
    if n == 1:
        return ("[]",)
    return tuple("[" + "".join(f) + "]" for f in ordered_forests(n - 1))


@lru_cache(maxsize=None)
def ordered_forests(n: int) -> tuple[tuple[str, ...], ...]:
    """Ordered forests with ``n`` vertices as tuples of tree strings."""
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        for tree in planar_trees(first):
            for rest in ordered_forests(n - first):
                out.append((tree,) + rest)
    return tuple(out)


def _canonical(tree: str) -> str:
    """Bracket string with every child list sorted (one embedding per tree)."""
    children, depth, start = [], 0, 1
    for i, ch in enumerate(tree[1:-1], start=1):
        depth += 1 if ch == "[" else -1
        if depth == 0:
            children.append(_canonical(tree[start : i + 1]))
            start = i + 1
    return "[" + "".join(sorted(children)) + "]"


@lru_cache(maxsize=None)
def nonplanar_trees(n: int) -> tuple[str, ...]:
    """One bracket string per non-planar tree with ``n`` vertices."""
    return tuple(sorted({_canonical(t) for t in planar_trees(n)}))


def fraction(rng: random.Random) -> Fraction:
    """A nonzero rational with numerator in -9..9 and denominator in 1..6."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))


def text(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def _random_tree(rng: random.Random, size: int) -> str:
    return rng.choice(planar_trees(size))


def _bracket(a: dict, b: dict) -> dict:
    """``ab - ba`` in the concatenation algebra of tree sequences."""
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            for word, sign in ((wa + wb, 1), (wb + wa, -1)):
                out[word] = out.get(word, 0) + sign * ca * cb
    return {w: c for w, c in out.items() if c}


def lie_polynomial(rng: random.Random, degree: int) -> dict:
    """Random Lie polynomial in planar trees, expanded into tree sequences.

    Every planar tree with at most ``degree`` vertices gets a coefficient.
    Each total degree d >= 3 adds ``[x, y]`` with ``|x| = 1``, and each
    d >= 4 adds ``[x, [x, z]]`` with ``|z| = d - 2``; the trees y and z are
    drawn at random.  The make-up, and so the support size, is the same for
    every seed; all coefficients are nonzero.
    """
    poly: dict = {}

    def add(term: dict) -> None:
        c = fraction(rng)
        for w, v in term.items():
            poly[w] = poly.get(w, 0) + c * v

    def letter(size: int) -> dict:
        return {(_random_tree(rng, size),): 1}

    for size in range(1, degree + 1):
        for tree in planar_trees(size):
            add({(tree,): 1})
    vertex = {("[]",): 1}
    for total in range(3, degree + 1):
        add(_bracket(vertex, letter(total - 1)))
        if total >= 4:
            add(_bracket(vertex, _bracket(vertex, letter(total - 2))))
    return {w: c for w, c in poly.items() if c}


def logarithmic_character(rng: random.Random, order: int, degree: int) -> dict:
    """Coefficient functional of a random Lie polynomial, as CLI JSON."""
    if degree > order:
        raise ValueError("the Lie polynomial must fit the truncation order")
    poly = lie_polynomial(rng, degree)
    values = {" ".join(w): text(c) for w, c in sorted(poly.items())}
    return {"order": order, "empty": "0/1", "values": values}


def character(rng: random.Random, order: int, empty: Fraction | None = None) -> dict:
    """A nonzero random value on every ordered forest up to ``order``."""
    values = {}
    for size in range(1, order + 1):
        for forest in ordered_forests(size):
            values[" ".join(forest)] = text(fraction(rng))
    empty = fraction(rng) if empty is None else empty
    return {"order": order, "empty": text(empty), "values": values}


def tree_character(rng: random.Random, order: int, empty: Fraction) -> dict:
    """A nonzero random value on every non-planar tree up to ``order``."""
    values = {}
    for size in range(1, order + 1):
        for tree in nonplanar_trees(size):
            values[tree] = text(fraction(rng))
    return {"order": order, "empty": text(empty), "values": values}


def vector_field(rng: random.Random) -> dict:
    """Two-dimensional field ``(a y2, b y1 + c y2^2)`` (an oscillator with a
    quadratic term) with random nonzero coefficients."""
    shape = (((0, 1),), ((1, 0), (0, 2)))
    components = [
        {
            "monomials": [
                {"coeff": text(fraction(rng)), "powers": list(p), "hpower": 0}
                for p in powers
            ]
        }
        for powers in shape
    ]
    return {"dim": 2, "components": components}


def point(rng: random.Random, dim: int = 2) -> list[str]:
    return [text(fraction(rng)) for _ in range(dim)]
