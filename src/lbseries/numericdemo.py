"""Exact realization of tree-indexed series on polynomial vector fields.

Vector fields are tuples of multivariate polynomials over the rationals in
variables ``y_1 .. y_d`` with an optional formal step parameter ``h``; all
derivatives, evaluations and series expansions are exact, so the classical
substitution identity becomes a checkable equality of ``h``-coefficients.
A polynomial is a :class:`LinComb` keyed by monomials ``(hpow, ypows)``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from fractions import Fraction
from typing import Sequence

from .coeffalg import CharacterMap, LinComb, _as_fraction, _check_keys, bilinear, evaluate
from .prelie import convolve
from .trees import Forest, NonPlanarTree, enumerate_nonplanar_trees, symmetry_factor

Poly = LinComb


def _monomial_product(a: tuple, b: tuple) -> tuple:
    return a[0] + b[0], tuple(map(operator.add, a[1], b[1]))


def poly_mul(p: Poly, q: Poly) -> Poly:
    """Product of two polynomials: exponents add."""
    return bilinear(p, q, _monomial_product)


def diff_y(p: Poly, i: int) -> Poly:
    """Partial derivative in ``y_i`` (0-based)."""
    return LinComb(
        ((h, y[:i] + (y[i] - 1,) + y[i + 1:]), c * y[i]) for (h, y), c in p.items() if y[i]
    )


def eval_y(p: Poly, point: Sequence[Fraction]) -> LinComb:
    """Substitute y = point; return the h-polynomial, keyed by h-power."""
    return LinComb(
        (h, math.prod((v**e for v, e in zip(point, y) if e), start=c))
        for (h, y), c in p.items()
    )


def _exponent(e) -> int:
    if type(e) is not int or e < 0:
        raise ValueError(f"an exponent is a non-negative integer, not {e!r}")
    return e


class PolyVectorField:
    """A d-tuple of polynomials, one component per coordinate."""

    __slots__ = ("dim", "components")

    def __init__(self, components: Sequence[Poly]):
        self.components = tuple(components)
        self.dim = len(self.components)
        if not self.dim:
            raise ValueError("dimension must be positive")
        for p in self.components:
            if any(len(y) != self.dim for _, y in p.support()):
                raise ValueError("wrong power-vector length")

    def __eq__(self, other):
        return (
            isinstance(other, PolyVectorField)
            and self.components == other.components
        )

    @staticmethod
    def from_json(data: dict) -> "PolyVectorField":
        """Read ``{"dim": d, "components": [{"monomials": [...]}]}``; every
        ``coeff`` is a ``"p/q"`` string or an integer, every ``powers`` entry
        and ``hpower`` a non-negative integer."""
        if not isinstance(data, dict) or type(data.get("dim")) is not int:
            raise ValueError('a field is an object with an integer "dim"')
        _check_keys(data, "a field", ("dim", "components"), ("components",))
        dim = data["dim"]
        components = data["components"]
        if not isinstance(components, list) or len(components) != dim:
            raise ValueError("need a list of one component per coordinate")
        comps = []
        for comp in components:
            if not isinstance(comp, dict):
                raise ValueError(f"a field component is an object, not {comp!r}")
            _check_keys(comp, "a field component", ("monomials",))
            terms = []
            for mono in comp.get("monomials", []):
                if not isinstance(mono, dict):
                    raise ValueError(f"a monomial is an object, not {mono!r}")
                _check_keys(mono, "a monomial", ("coeff", "powers", "hpower"), ("coeff",))
                powers = mono.get("powers", [0] * dim)
                if not isinstance(powers, list):
                    raise ValueError(f'"powers" is a list, not {powers!r}')
                key = (_exponent(mono.get("hpower", 0)), tuple(map(_exponent, powers)))
                terms.append((key, _as_fraction(mono["coeff"])))
            comps.append(LinComb(terms))
        return PolyVectorField(comps)

    @staticmethod
    def load(path) -> "PolyVectorField":
        with open(path) as fh:
            return PolyVectorField.from_json(json.load(fh))

    def to_json(self) -> dict:
        comps = []
        for p in self.components:
            monos = []
            for (h, y), c in sorted(p.items()):
                monos.append({"coeff": str(c), "powers": list(y), "hpower": h})
            comps.append({"monomials": monos})
        return {"dim": self.dim, "components": comps}


def _capped(p: Poly, cap: int | None) -> Poly:
    """``p`` without its monomials above ``h^cap`` (all of ``p`` when ``cap`` is None)."""
    if cap is None:
        return p
    return LinComb((m, c) for m, c in p.items() if m[0] <= cap)


def _applied(p: Poly, js: Sequence[int], children: Sequence[Sequence[Poly]], cap) -> Poly:
    """The derivative of ``p`` in ``y_j1 .. y_jk`` applied to component
    ``j_m`` of the m-th child, capped at ``h^cap`` after each product."""
    for j in js:
        p = diff_y(p, j)
    for child, j in zip(children, js):
        if not p:
            break
        p = _capped(poly_mul(p, child[j]), cap)
    return p


def _differentials(field: PolyVectorField, cap: int | None):
    """The map from the canonical rep of a tree t to its elementary
    differential, each tree computed once, keeping the h-powers up to
    ``cap - |t|`` (all of them when ``cap`` is None).

    Powers of h only add in a product, so dropping the higher ones from
    every factor and after every product leaves the kept ones exact.  A
    subtree keeps more powers than its parent needs, and is capped again
    where it is used."""
    return functools.partial(_differential, field=field, cap=cap, memo={})


def _differential(rep, field: PolyVectorField, cap: int | None, memo: dict) -> PolyVectorField:
    out = memo.get(rep)
    if out is None:
        bound = None if cap is None else cap - rep.vertex_count
        components = [_capped(p, bound) for p in field.components]
        if rep.children:
            children = [
                [_capped(q, bound) for q in _differential(c, field, cap, memo).components]
                for c in rep.children
            ]
            slots = list(itertools.product(range(field.dim), repeat=len(children)))
            components = [
                LinComb(term for js in slots for term in _applied(p, js, children, bound).items())
                for p in components
            ]
        out = memo[rep] = PolyVectorField(components)
    return out


def elementary_differential(field: PolyVectorField, tree: NonPlanarTree) -> PolyVectorField:
    """Recursive derivative tensors of the field applied along the tree.

    The single vertex maps to the field itself; a root with subtrees
    t_1..t_k maps, component-wise, to the k-th derivative of that component
    applied to the subtree images.
    """
    return _differentials(field, None)(tree.rep)


def _weighted_differentials(
    field: PolyVectorField, alpha: CharacterMap, order: int, cap: int | None = None
) -> list:
    """``(|t|, alpha(t)/sigma(t), F(t))`` for every tree t with a nonzero
    weight, up to ``order`` or the character's order if that is lower (the
    character vanishes past its own order).  With a ``cap``, F(t) keeps the
    h-powers up to ``cap - |t|``: those that reach at most ``h^cap`` in the
    series."""
    differential = _differentials(field, cap)
    out = []
    for size in range(1, min(order, alpha.order) + 1):
        for tree in enumerate_nonplanar_trees(size):
            coeff = alpha(Forest((tree,))) / symmetry_factor(tree)
            if coeff:
                out.append((size, coeff, differential(tree.rep)))
    return out


def _series(
    field: PolyVectorField, alpha: CharacterMap, y0: Sequence, order: int, cap: int | None = None
) -> list[LinComb]:
    """The series at ``y0`` with a formal step, one h-polynomial per
    component; with a ``cap``, exact up to ``h^cap`` and nothing above."""
    point = tuple(map(_as_fraction, y0))
    if len(point) != field.dim:
        raise ValueError("point dimension mismatch")
    weighted = _weighted_differentials(field, alpha, order, cap)
    return [
        LinComb(
            itertools.chain(
                [(0, alpha.empty_value * x)],
                (
                    (hpow + size, coeff * v)
                    for size, coeff, diff in weighted
                    for hpow, v in eval_y(diff.components[i], point).items()
                ),
            )
        )
        for i, x in enumerate(point)
    ]


def bseries_eval(
    h,
    field: PolyVectorField,
    alpha: CharacterMap,
    y0: Sequence,
    order: int,
):
    """Evaluate the tree-indexed series at a point.

    With ``h=None`` the step stays formal and each component is returned as
    a map ``{h-power: coefficient}``; with a rational ``h`` the exact vector
    is returned.  ``h`` and the entries of ``y0`` are exact rationals
    (``Fraction``, ``int`` or ``"p/q"``); a float is a ``ValueError``.  The
    character is read on single trees (non-planar basis); trees above its
    order are not visited, as it vanishes there.
    """
    if h is not None:
        h = _as_fraction(h)
    series = _series(field, alpha, y0, order)
    if h is None:
        return [dict(comp.items()) for comp in series]
    return tuple(evaluate(lambda k: h**k, comp) for comp in series)


def _series_as_field(field: PolyVectorField, alpha: CharacterMap, order: int) -> PolyVectorField:
    """The series with the step divided out, as a vector field with
    h-polynomial coefficients.  Requires a vanishing empty-forest value."""
    if alpha.empty_value != 0:
        raise ValueError("the substituted series must vanish on the empty forest")
    weighted = _weighted_differentials(field, alpha, order)
    return PolyVectorField(
        LinComb(
            ((h + size - 1, y), coeff * c)
            for size, coeff, diff in weighted
            for (h, y), c in diff.components[i].items()
        )
        for i in range(field.dim)
    )


def verify_bseries_substitution(
    alpha: CharacterMap,
    beta: CharacterMap,
    field: PolyVectorField,
    y0: Sequence,
    order: int,
) -> bool:
    """Substituting one series as the vector field of another agrees with
    the convolution through the extraction-contraction coproduct, compared
    exactly on h-coefficients up to ``order``, which may not exceed either
    character's order.  Both characters are truncated to ``order`` first,
    so their orders may differ.  The entries of ``y0`` are exact rationals.

    Both sides are expanded only up to ``h^order``: a tree ``t`` reads the
    h-powers up to ``order - |t|`` of its elementary differential, and
    higher ones are dropped after every product, since powers of h only add.
    """
    if order > min(alpha.order, beta.order):
        raise ValueError(
            f"order {order} is above the characters' orders {alpha.order} and {beta.order}"
        )
    alpha, beta = alpha.truncated(order), beta.truncated(order)
    modified = _series_as_field(field, alpha, order)
    lhs = _series(modified, beta, y0, order, cap=order)
    rhs = _series(field, convolve(alpha, beta, "h"), y0, order, cap=order)
    return lhs == rhs
