"""Exact-rational linear combinations, tensors, symmetric words and characters.

Every coefficient in the package is a :class:`fractions.Fraction`; there is
no floating point anywhere.  ``LinComb`` is a sparse map from basis elements
(any hashable values) to nonzero rationals.  Rank-two tensors are
``LinComb`` instances keyed by ``(left, right)`` pairs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .trees import Forest, OrderedForest, parse_forest, parse_nonplanar_forest

Rational = Fraction
_ZERO = Fraction(0)


def _as_fraction(c) -> Fraction:
    """Exact rational from a Fraction, an int or a ``"p/q"`` string; a float
    (such as a JSON number with a fraction part) or a bool is rejected."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, (int, str)) and not isinstance(c, bool):
        return Fraction(c)
    raise ValueError(f"not an exact rational: {c!r}")


class LinComb:
    """A finite linear combination of basis elements with Fraction coefficients.

    Zero coefficients are never stored.  Addition, subtraction and scalar
    multiplication are basis-wise; ``coeff`` extracts a coefficient.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for b, c in terms.items() if isinstance(terms, dict) else terms:
                c = _as_fraction(c)
                if c:
                    acc = data.get(b)
                    total = c if acc is None else acc + c
                    if total:
                        data[b] = total
                    elif acc is not None:
                        del data[b]
        self._terms = data

    @staticmethod
    def zero() -> "LinComb":
        return LinComb()

    @staticmethod
    def of(basis, coeff=1) -> "LinComb":
        return LinComb([(basis, coeff)])

    def items(self):
        return self._terms.items()

    def __iter__(self) -> Iterator:
        return iter(self._terms.items())

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, basis) -> Fraction:
        return self._terms.get(basis, _ZERO)

    def support(self):
        return self._terms.keys()

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        data = dict(self._terms)
        for b, c in other._terms.items():
            total = data.get(b, _ZERO) + c
            if total:
                data[b] = total
            elif b in data:
                del data[b]
        out = LinComb()
        out._terms = data
        return out

    def __neg__(self) -> "LinComb":
        out = LinComb()
        out._terms = {b: -c for b, c in self._terms.items()}
        return out

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def scale(self, c) -> "LinComb":
        c = _as_fraction(c)
        out = LinComb()
        if c:
            out._terms = {b: v * c for b, v in self._terms.items()}
        return out

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, LinComb) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def map_basis(self, f: Callable) -> "LinComb":
        """Push forward along ``f``; colliding images accumulate."""
        return LinComb((f(b), c) for b, c in self._terms.items())

    def sorted_items(self, key=None):
        if key is None:
            key = _default_term_key
        return sorted(self._terms.items(), key=lambda bc: key(bc[0]))

    def __repr__(self):
        if not self._terms:
            return "LinComb(0)"
        body = " + ".join(f"{c}*{b!r}" for b, c in self.sorted_items())
        return f"LinComb({body})"


def _default_term_key(basis):
    vc = getattr(basis, "vertex_count", None)
    if vc is None and isinstance(basis, tuple):
        return tuple(_default_term_key(x) for x in basis)
    return (vc if vc is not None else 0, str(_serialize_basis(basis)))


def _serialize_basis(basis) -> str:
    ser = getattr(basis, "serialize", None)
    return ser() if ser is not None else str(basis)


def bilinear(x: LinComb, y: LinComb, f: Callable) -> LinComb:
    """Bilinear extension of a map on basis pairs.

    ``f`` may return a basis element or a :class:`LinComb`.
    """
    terms = []
    for bx, cx in x.items():
        for by, cy in y.items():
            val = f(bx, by)
            if isinstance(val, LinComb):
                c = cx * cy
                terms.extend((b, v * c) for b, v in val.items())
            else:
                terms.append((val, cx * cy))
    return LinComb(terms)


def tensor(x: LinComb, y: LinComb) -> LinComb:
    """Rank-two tensor of two linear combinations, keyed by (left, right)."""
    return bilinear(x, y, lambda a, b: (a, b))


def pairing(x: LinComb, basis) -> Fraction:
    """Kronecker pairing: the coefficient of ``basis`` in ``x``."""
    return x.coeff(basis)


def evaluate(func: Callable, x: LinComb) -> Fraction:
    """Linear extension of a basis functional over a combination."""
    total = Fraction(0)
    for b, c in x.items():
        total += c * func(b)
    return total


class SymWord:
    """A commutative word of non-empty ordered forests (unit: empty word)."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: Iterable[OrderedForest] = ()):
        parts = tuple(parts)
        for p in parts:
            if not isinstance(p, OrderedForest) or p.is_empty:
                raise ValueError("SymWord parts must be non-empty ordered forests")
        self.parts = tuple(sorted(parts, key=lambda f: (f.vertex_count, f.serialize())))
        self._hash = hash(("sw", self.parts))

    @staticmethod
    def unit() -> "SymWord":
        return SymWord(())

    @staticmethod
    def of(*parts: OrderedForest) -> "SymWord":
        return SymWord(parts)

    @property
    def vertex_count(self) -> int:
        return sum(p.vertex_count for p in self.parts)

    def __mul__(self, other: "SymWord") -> "SymWord":
        return SymWord(self.parts + other.parts)

    def __eq__(self, other):
        return isinstance(other, SymWord) and self.parts == other.parts

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.parts)

    def serialize(self) -> str:
        if not self.parts:
            return "1"
        return " & ".join(p.serialize() for p in self.parts)

    def __repr__(self):
        return f"SymWord({self.serialize()!r})"


class CharacterMap:
    """A truncated linear functional on forests.

    ``order`` is the truncation: values are stored for basis forests with at
    most ``order`` vertices, missing entries are zero.  The value on the
    empty forest is kept separately.  Works over either planar
    (:class:`OrderedForest`) or non-planar (:class:`Forest`) bases.  A
    character is not changed after construction, so :func:`is_logarithmic`
    caches its answer on it.
    """

    __slots__ = ("order", "empty_value", "values", "_logarithmic")

    def __init__(self, order: int, empty_value=0, values=None):
        if type(order) is not int:
            raise ValueError(f"truncation order must be an integer, not {order!r}")
        self.order = order
        self.empty_value = _as_fraction(empty_value)
        self.values = {}
        self._logarithmic = None
        if values:
            for basis, c in values.items() if isinstance(values, dict) else values:
                if basis.vertex_count > self.order:
                    raise ValueError(
                        f"basis element exceeds truncation order {self.order}"
                    )
                c = _as_fraction(c)
                if basis.is_empty:
                    self.empty_value = c
                elif c:
                    self.values[basis] = c

    def __call__(self, basis) -> Fraction:
        if basis.is_empty:
            return self.empty_value
        return self.values.get(basis, _ZERO)

    def on_comb(self, x: LinComb) -> Fraction:
        return evaluate(self, x)

    def eval_multiplicative(self, forest) -> Fraction:
        """Product of values over the tree factors (1 on the empty forest)."""
        total = Fraction(1)
        for t in forest.trees:
            total *= self(_single(forest, t))
            if not total:
                return total
        return total

    def __eq__(self, other):
        return (
            isinstance(other, CharacterMap)
            and self.order == other.order
            and self.empty_value == other.empty_value
            and self.values == other.values
        )

    def to_json(self) -> dict:
        items = sorted(
            self.values.items(), key=lambda kv: (kv[0].vertex_count, kv[0].serialize())
        )
        return {
            "order": self.order,
            "empty": str(self.empty_value),
            "values": {b.serialize(): str(c) for b, c in items},
        }

    @staticmethod
    def from_json(data: dict, planar: bool = True) -> "CharacterMap":
        """Read ``{"order": n, "empty": c, "values": {forest: c}}``; every
        value is a ``"p/q"`` string or an integer."""
        parse = parse_forest if planar else parse_nonplanar_forest
        values = data.get("values", {}) if isinstance(data, dict) else None
        if not isinstance(values, dict):
            raise ValueError('a character is an object with a "values" object')
        values = [(parse(k), v) for k, v in values.items()]
        return CharacterMap(data["order"], data.get("empty", 0), values)

    @staticmethod
    def load(path, planar: bool = True) -> "CharacterMap":
        with open(path) as fh:
            return CharacterMap.from_json(json.load(fh), planar=planar)

    def __repr__(self):
        return f"CharacterMap(order={self.order}, empty={self.empty_value}, {len(self.values)} values)"


def _single(forest, tree):
    if isinstance(forest, Forest):
        return Forest((tree,))
    return OrderedForest((tree,))


def is_primitive_shuffle(x: LinComb, order: int) -> bool:
    """True iff every homogeneous component of ``x`` up to ``order`` is
    primitive for the unshuffling coproduct."""
    from .postlie import delta_shuffle
    from .trees import EMPTY_FOREST

    by_degree: dict[int, list] = {}
    for forest, c in x.items():
        if forest.vertex_count <= order:
            by_degree.setdefault(forest.vertex_count, []).append((forest, c))
    for terms in by_degree.values():
        comp = LinComb(terms)
        lhs = LinComb(
            (pair, c * cp) for forest, c in terms for pair, cp in delta_shuffle(forest).items()
        )
        rhs = tensor(LinComb.of(EMPTY_FOREST), comp) + tensor(
            comp, LinComb.of(EMPTY_FOREST)
        )
        if lhs != rhs:
            return False
    return True


def _shuffle_pairs(order: int):
    from .trees import enumerate_ordered_forests

    for total in range(2, order + 1):
        for left_size in range(1, total):
            for left in enumerate_ordered_forests(left_size):
                for right in enumerate_ordered_forests(total - left_size):
                    yield left, right


def is_logarithmic(alpha: CharacterMap) -> bool:
    """Zero on the empty forest and on every proper shuffle up to the order.
    The shuffle check runs once per character; its answer is cached."""
    if alpha._logarithmic is None:
        alpha._logarithmic = _vanishes_on_shuffles(alpha)
    return alpha._logarithmic


def _vanishes_on_shuffles(alpha: CharacterMap) -> bool:
    from .postlie import shuffle

    if alpha.empty_value != 0:
        return False
    for left, right in _shuffle_pairs(alpha.order):
        if alpha.on_comb(shuffle(left, right)) != 0:
            return False
    return True


def is_exponential(alpha: CharacterMap) -> bool:
    """One on the empty forest and multiplicative on shuffles up to the order."""
    from .postlie import shuffle

    if alpha.empty_value != 1:
        return False
    for left, right in _shuffle_pairs(alpha.order):
        if alpha.on_comb(shuffle(left, right)) != alpha(left) * alpha(right):
            return False
    return True


def convolve_through(
    delta: Callable, left: Callable, right: Callable, forests: Callable, order: int
) -> CharacterMap:
    """The character ``w -> sum c * left(l) * right(r)`` over the terms
    ``c * (l, r)`` of ``delta(w)``, for every ``w`` in ``forests(0..order)``.

    This is the one product of characters: composition and substitution of
    series are convolutions through a coproduct or a coaction.
    """
    values = []
    for size in range(order + 1):
        for forest in forests(size):
            total = Fraction(0)
            for (l, r), c in delta(forest).items():
                total += c * left(l) * right(r)
            values.append((forest, total))
    return CharacterMap(order, 0, values)


def format_basis(basis) -> str:
    """Text of a basis element; the empty forest and the unit word print as
    ``1`` and a pair as ``left (x) right``."""
    if isinstance(basis, tuple) and len(basis) == 2:
        return f"{format_basis(basis[0])} (x) {format_basis(basis[1])}"
    return _serialize_basis(basis) or "1"


def format_lincomb(x: LinComb) -> str:
    """Render ``c1 * <word> + c2 * <word>`` with words as in :func:`format_basis`."""
    if x.is_zero():
        return "0"
    chunks = []
    for basis, c in x.sorted_items():
        word = format_basis(basis)
        if not chunks:
            prefix = "-" if c < 0 else ""
        else:
            prefix = " - " if c < 0 else " + "
        chunks.append(f"{prefix}{abs(c)} * {word}")
    return "".join(chunks)


def parse_lincomb(text: str, word_parser: Callable = parse_forest) -> LinComb:
    """Parse ``c1 * <word> + c2 * <word>`` with rational literals ``p/q``.

    The word ``1`` denotes the empty forest.  A missing coefficient means 1.
    """
    terms = []
    for sign, chunk in _split_terms(text):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty term in linear combination")
        if "*" in chunk:
            coeff_text, _, word_text = chunk.partition("*")
            coeff = Fraction(coeff_text.strip())
        else:
            coeff, word_text = Fraction(1), chunk
        word_text = word_text.strip()
        word = word_parser("" if word_text == "1" else word_text)
        terms.append((word, sign * coeff))
    return LinComb(terms)


def _split_terms(text: str):
    depth = 0
    sign = 1
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if depth == 0 and ch in "+-" and current:
            yield sign, "".join(current)
            sign = 1 if ch == "+" else -1
            current = []
        elif depth == 0 and ch in "+-" and not current:
            sign = sign if ch == "+" else -sign
        else:
            current.append(ch)
    if current:
        yield sign, "".join(current)
    elif sign != 1:
        raise ValueError("dangling sign in linear combination")
