"""Exact realization of tree-indexed series on polynomial vector fields.

Vector fields are tuples of multivariate polynomials over the rationals in
variables ``y_1 .. y_d`` with an optional formal step parameter ``h``; all
derivatives, evaluations and series expansions are exact, so the classical
substitution identity becomes a checkable equality of ``h``-coefficients.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Sequence

from .coeffalg import CharacterMap, _as_fraction
from .prelie import convolve
from .trees import Forest, NonPlanarTree, PlanarTree, enumerate_nonplanar_trees, symmetry_factor


class Poly:
    """Sparse polynomial in y_1..y_d and h: {(hpow, ypows): coefficient}."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        self.dim = dim
        self.terms: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        if terms:
            for key, c in terms.items() if isinstance(terms, dict) else terms:
                c = Fraction(c)
                if c:
                    hpow, ypows = key
                    ypows = tuple(ypows)
                    if len(ypows) != dim:
                        raise ValueError("wrong power-vector length")
                    k = (hpow, ypows)
                    total = self.terms.get(k, Fraction(0)) + c
                    if total:
                        self.terms[k] = total
                    elif k in self.terms:
                        del self.terms[k]

    @staticmethod
    def zero(dim: int) -> "Poly":
        return Poly(dim)

    @staticmethod
    def constant(dim: int, c) -> "Poly":
        return Poly(dim, {(0, (0,) * dim): Fraction(c)})

    @staticmethod
    def variable(dim: int, i: int) -> "Poly":
        pows = [0] * dim
        pows[i] = 1
        return Poly(dim, {(0, tuple(pows)): Fraction(1)})

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            total = out.get(k, Fraction(0)) + c
            if total:
                out[k] = total
            elif k in out:
                del out[k]
        p = Poly(self.dim)
        p.terms = out
        return p

    def __neg__(self) -> "Poly":
        p = Poly(self.dim)
        p.terms = {k: -c for k, c in self.terms.items()}
        return p

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict = {}
        for (h1, y1), c1 in self.terms.items():
            for (h2, y2), c2 in other.terms.items():
                k = (h1 + h2, tuple(a + b for a, b in zip(y1, y2)))
                total = out.get(k, Fraction(0)) + c1 * c2
                if total:
                    out[k] = total
                elif k in out:
                    del out[k]
        p = Poly(self.dim)
        p.terms = out
        return p

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        p = Poly(self.dim)
        if c:
            p.terms = {k: v * c for k, v in self.terms.items()}
        return p

    def shift_h(self, k: int) -> "Poly":
        p = Poly(self.dim)
        p.terms = {(h + k, y): c for (h, y), c in self.terms.items()}
        return p

    def diff_y(self, i: int) -> "Poly":
        out: dict = {}
        for (h, y), c in self.terms.items():
            if y[i]:
                ny = list(y)
                ny[i] -= 1
                out[(h, tuple(ny))] = out.get((h, tuple(ny)), Fraction(0)) + c * y[i]
        p = Poly(self.dim)
        p.terms = {k: v for k, v in out.items() if v}
        return p

    def eval_y(self, point: Sequence[Fraction]) -> dict[int, Fraction]:
        """Substitute y = point; return the h-polynomial as {hpow: coeff}."""
        out: dict[int, Fraction] = {}
        for (h, y), c in self.terms.items():
            val = c
            for yi, e in zip(point, y):
                if e:
                    val *= Fraction(yi) ** e
            if val:
                out[h] = out.get(h, Fraction(0)) + val
        return {h: v for h, v in out.items() if v}

    def __eq__(self, other):
        return isinstance(other, Poly) and self.dim == other.dim and self.terms == other.terms

    def __repr__(self):
        return f"Poly(dim={self.dim}, {len(self.terms)} terms)"


class PolyVectorField:
    """A d-tuple of polynomials, one component per coordinate."""

    __slots__ = ("dim", "components")

    def __init__(self, components: Sequence[Poly]):
        self.components = tuple(components)
        if not self.components:
            raise ValueError("dimension must be positive")
        self.dim = self.components[0].dim
        if any(p.dim != self.dim for p in self.components):
            raise ValueError("mixed dimensions")
        if len(self.components) != self.dim:
            raise ValueError("need one component per coordinate")

    def __eq__(self, other):
        return (
            isinstance(other, PolyVectorField)
            and self.components == other.components
        )

    @staticmethod
    def from_json(data: dict) -> "PolyVectorField":
        """Read ``{"dim": d, "components": [{"monomials": [...]}]}``; every
        ``coeff`` is a ``"p/q"`` string or an integer."""
        if not isinstance(data, dict) or type(data.get("dim")) is not int:
            raise ValueError('a field is an object with an integer "dim"')
        dim = data["dim"]
        comps = []
        for comp in data["components"]:
            if not isinstance(comp, dict):
                raise ValueError(f"a field component is an object, not {comp!r}")
            terms = []
            for mono in comp.get("monomials", []):
                if not isinstance(mono, dict):
                    raise ValueError(f"a monomial is an object, not {mono!r}")
                powers = tuple(mono.get("powers", [0] * dim))
                hpow = mono.get("hpower", 0)
                terms.append(((hpow, powers), _as_fraction(mono["coeff"])))
            comps.append(Poly(dim, terms))
        return PolyVectorField(comps)

    @staticmethod
    def load(path) -> "PolyVectorField":
        with open(path) as fh:
            return PolyVectorField.from_json(json.load(fh))

    def to_json(self) -> dict:
        comps = []
        for p in self.components:
            monos = []
            for (h, y), c in sorted(p.terms.items()):
                monos.append({"coeff": str(c), "powers": list(y), "hpower": h})
            comps.append({"monomials": monos})
        return {"dim": self.dim, "components": comps}


def elementary_differential(field: PolyVectorField, tree: NonPlanarTree) -> PolyVectorField:
    """Recursive derivative tensors of the field applied along the tree.

    The single vertex maps to the field itself; a root with subtrees
    t_1..t_k maps, component-wise, to the k-th derivative of that component
    applied to the subtree images.
    """
    children = tree.rep.children
    if not children:
        return field
    child_fields = [elementary_differential(field, _sub(c)) for c in children]
    dim = field.dim
    out = []
    for i in range(dim):
        total = Poly.zero(dim)
        for js in itertools.product(range(dim), repeat=len(children)):
            deriv = field.components[i]
            for j in js:
                deriv = deriv.diff_y(j)
                if not deriv.terms:
                    break
            if not deriv.terms:
                continue
            term = deriv
            for child_field, j in zip(child_fields, js):
                term = term * child_field.components[j]
            total = total + term
        out.append(total)
    return PolyVectorField(out)


def _sub(rep: PlanarTree) -> NonPlanarTree:
    # children of a canonical representative are canonical themselves
    return NonPlanarTree(rep)


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
    is returned.  The character is read on single trees (non-planar basis).
    """
    dim = field.dim
    point = tuple(Fraction(v) for v in y0)
    if len(point) != dim:
        raise ValueError("point dimension mismatch")
    acc: list[dict[int, Fraction]] = [
        {0: alpha.empty_value * point[i]} if alpha.empty_value else {}
        for i in range(dim)
    ]
    for size in range(1, order + 1):
        for tree in enumerate_nonplanar_trees(size):
            coeff = alpha(Forest((tree,))) / symmetry_factor(tree)
            if not coeff:
                continue
            diff = elementary_differential(field, tree)
            for i in range(dim):
                for hpow, val in diff.components[i].eval_y(point).items():
                    k = hpow + size
                    acc[i][k] = acc[i].get(k, Fraction(0)) + coeff * val
    acc = [{k: v for k, v in comp.items() if v} for comp in acc]
    if h is None:
        return acc
    h = Fraction(h)
    return tuple(
        sum((v * h**k for k, v in comp.items()), Fraction(0)) for comp in acc
    )


def _series_as_field(field: PolyVectorField, alpha: CharacterMap, order: int) -> PolyVectorField:
    """The series with the step divided out, as a vector field with
    h-polynomial coefficients.  Requires a vanishing empty-forest value."""
    if alpha.empty_value != 0:
        raise ValueError("the substituted series must vanish on the empty forest")
    dim = field.dim
    comps = [Poly.zero(dim) for _ in range(dim)]
    for size in range(1, order + 1):
        for tree in enumerate_nonplanar_trees(size):
            coeff = alpha(Forest((tree,))) / symmetry_factor(tree)
            if not coeff:
                continue
            diff = elementary_differential(field, tree)
            for i in range(dim):
                comps[i] = comps[i] + diff.components[i].scale(coeff).shift_h(size - 1)
    return PolyVectorField(comps)


def verify_bseries_substitution(
    alpha: CharacterMap,
    beta: CharacterMap,
    field: PolyVectorField,
    y0: Sequence,
    order: int,
) -> bool:
    """Substituting one series as the vector field of another agrees with
    the convolution through the extraction-contraction coproduct, compared
    exactly on h-coefficients up to ``order``."""
    modified = _series_as_field(field, alpha, order)
    lhs = bseries_eval(None, modified, beta, y0, order)
    rhs = bseries_eval(None, field, convolve(alpha, beta, "h"), y0, order)
    for comp_l, comp_r in zip(lhs, rhs):
        for k in range(order + 1):
            if comp_l.get(k, Fraction(0)) != comp_r.get(k, Fraction(0)):
                return False
    return True
