"""Exact-rational linear combinations, tensors, symmetric words and characters.

``LinComb`` coefficients are exact ``int``s or ``Fraction``s (``coeff``
reads either as a ``Fraction``), and character values are ``Fraction``s;
there is no floating point anywhere.  The contracted recursions behind the
character products keep ``int`` coefficients, over one scale per character
(``integer_weights``, ``integer_values``): each product sums a forest's
integer pairing, and ``pair_legs`` divides it once per forest.  ``LinComb``
is a sparse map from basis elements (any hashable values) to nonzero exact
coefficients.  Rank-two tensors are ``LinComb`` instances keyed by
``(left, right)`` pairs.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .trees import (
    EMPTY_FOREST,
    OrderedForest,
    enumerate_ordered_forests,
    enumerate_planar_trees,
    parse_forest,
    parse_nonplanar_forest,
)

Rational = Fraction
_ZERO = Fraction(0)
_EXACT = {int, Fraction}  # the coefficient types kept as they are


def _exact(c):
    """An exact coefficient as given: an ``int`` stays an ``int``, a
    Fraction or a ``"p/q"`` string is a ``Fraction``; a float (such as a
    JSON number with a fraction part), a bool or a zero denominator is
    rejected."""
    if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        return c
    if isinstance(c, str):
        try:
            return Fraction(c)
        except ZeroDivisionError:
            pass
    raise ValueError(f"not an exact rational: {c!r}")


def _as_fraction(c) -> Fraction:
    """Exact rational from a Fraction, an int or a ``"p/q"`` string, with
    :func:`_exact`'s refusals."""
    c = _exact(c)
    return c if isinstance(c, Fraction) else Fraction(c)


def _check_keys(data: dict, what: str, allowed: tuple, required: tuple = ()) -> None:
    """Refuse a JSON object ``data`` read as ``what`` that has a key outside
    ``allowed`` (a misspelled key would read as its default) or lacks a key
    of ``required``."""
    for key in data:
        if key not in allowed:
            known = ", ".join(f'"{k}"' for k in allowed)
            raise ValueError(f"unknown key {key!r} in {what}; the keys are {known}")
    for key in required:
        if key not in data:
            raise ValueError(f'{what} has no "{key}"')


def truncation_order(order) -> int:
    """``order`` if it is a non-negative ``int`` (a ``bool`` is not one);
    a truncated character or series is refused any other."""
    if type(order) is not int or order < 0:
        raise ValueError(f"truncation order must be a non-negative integer, not {order!r}")
    return order


class LinComb:
    """A finite linear combination of basis elements with exact coefficients:
    an ``int`` stays an ``int`` and a Fraction or a ``"p/q"`` string is a
    ``Fraction`` (:func:`_exact`), so integer recursions stay integer.

    Zero coefficients are never stored.  Addition, subtraction and scalar
    multiplication are basis-wise, and ``0 + x`` is ``x``; ``coeff``
    extracts a coefficient as a ``Fraction``.  Two combinations of commuting
    monomials (a ``Forest`` of parts, a ``SymWord``, a ``SymLieWord``)
    multiply by ``*``, their keys multiplying.  Of two equal keys whose sum stays nonzero the
    first is kept, so a ``SymLieWord`` prints its first brackets.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = _summed({}, terms.items() if isinstance(terms, dict) else terms or ())

    @staticmethod
    def _over(data: dict) -> "LinComb":
        """The combination that takes over ``data``, a map to nonzero exact
        coefficients."""
        out = object.__new__(LinComb)
        out._terms = data
        return out

    @staticmethod
    def zero() -> "LinComb":
        return LinComb()

    @staticmethod
    def of(basis, coeff=1) -> "LinComb":
        c = _exact(coeff)
        return LinComb._over({basis: c} if c else {})

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
        c = self._terms.get(basis, _ZERO)
        return c if type(c) is Fraction else Fraction(c)

    def support(self):
        return self._terms.keys()

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return LinComb._over(_summed(dict(self._terms), other._terms.items()))

    def __radd__(self, other) -> "LinComb":
        return self if other == 0 else NotImplemented

    def __neg__(self) -> "LinComb":
        return LinComb._over({b: -c for b, c in self._terms.items()})

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def scale(self, c) -> "LinComb":
        c = _exact(c)
        return LinComb._over({b: v * c for b, v in self._terms.items()} if c else {})

    def __mul__(self, other) -> "LinComb":
        if not isinstance(other, LinComb):
            return self.scale(other)
        y = other._terms.items()
        return LinComb._over(
            _summed({}, ((ka * kb, ca * cb) for ka, ca in self._terms.items() for kb, cb in y))
        )

    __rmul__ = scale

    def __eq__(self, other):
        return isinstance(other, LinComb) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def map_basis(self, f: Callable) -> "LinComb":
        """Linear extension of a map on basis elements; colliding images
        accumulate.  ``f`` may return a basis element or a
        :class:`LinComb`, as in :func:`bilinear`."""
        return LinComb._over(_summed({}, _images(self._terms.items(), f)))

    def sorted_items(self):
        return sorted(self._terms.items(), key=lambda bc: _default_term_key(bc[0]))

    def __repr__(self):
        if not self._terms:
            return "LinComb(0)"
        body = " + ".join(f"{c}*{b!r}" for b, c in self.sorted_items())
        return f"LinComb({body})"


def _summed(data: dict, terms) -> dict:
    """``data`` with the ``terms`` added in, key by key, each coefficient
    read by :func:`_exact`; a key whose sum cancels is dropped.  A new key
    takes its coefficient as it is, so a ``Fraction`` is not added to 0."""
    for b, c in terms:
        if type(c) not in _EXACT:
            c = _exact(c)
        acc = data.get(b)
        total = c if acc is None else acc + c
        if total:
            data[b] = total
        elif acc is not None:
            del data[b]
    return data


def _images(terms, f: Callable):
    """The terms of the linear extension of ``f`` over ``terms``."""
    for b, c in terms:
        val = f(b)
        if isinstance(val, LinComb):
            for k, v in val._terms.items():
                yield k, c * v
        else:
            yield val, c


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
                terms.extend((b, c * v) for b, v in val.items())
            else:
                terms.append((val, cx * cy))
    return LinComb(terms)


def tensor(x: LinComb, y: LinComb) -> LinComb:
    """Rank-two tensor of two linear combinations, keyed by (left, right)."""
    return bilinear(x, y, lambda a, b: (a, b))


def pair_mul(x: tuple, y: tuple) -> tuple:
    """Pairs of commuting monomials (``Forest``, ``SymWord``, ``SymLieWord``)
    multiply leg by leg."""
    return x[0] * y[0], x[1] * y[1]


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
    """A commutative word of non-empty ordered forests (unit: empty word),
    its parts sorted by size, then text; equal words are one object."""

    __slots__ = ("parts",)
    _table: dict = {}

    def __new__(cls, parts: Iterable[OrderedForest] = ()):
        parts = tuple(parts)
        for p in parts:
            if not isinstance(p, OrderedForest) or p.is_empty:
                raise ValueError("SymWord parts must be non-empty ordered forests")
        parts = tuple(sorted(parts, key=lambda f: (f.vertex_count, f.serialize())))
        self = cls._table.get(parts)
        if self is None:
            self = object.__new__(cls)
            self.parts = parts
            self = cls._table.setdefault(parts, self)
        return self

    def __reduce__(self):
        return SymWord, (self.parts,)

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

    def __len__(self):
        return len(self.parts)

    def serialize(self) -> str:
        if not self.parts:
            return "1"
        return " & ".join(p.serialize() for p in self.parts)

    def __repr__(self):
        return f"SymWord({self.serialize()!r})"


def leg_terms(legs: dict) -> LinComb:
    """A coproduct from its legs read with the universal character: the
    terms ``c * (left, right)``, one per right leg and left monomial."""
    return LinComb(((left, right), c) for right, m in legs.items() for left, c in m.items())


class CharacterMap:
    """A truncated linear functional on forests.

    ``order`` is the truncation: values are stored for basis forests with at
    most ``order`` vertices, missing entries are zero.  The value on the
    empty forest is kept separately.  Works over either planar
    (:class:`OrderedForest`) or non-planar (:class:`Forest`) bases.  A
    character is not changed after construction, so what depends on it
    alone is kept on it: :func:`is_logarithmic` caches its answer, and
    substitution (``subst.star_w``, ``seriesmorph.a_alpha_dagger``,
    ``seriesmorph.a_alpha``) keeps a logarithmic character's contraction,
    ``(scale, weights, memo, images)``: its :func:`integer_weights`, the
    memo of its contracted forest maps and that of its grafted images,
    built on first use and freed with the character.
    """

    __slots__ = ("order", "empty_value", "values", "_logarithmic", "_contraction")

    def __init__(self, order: int, empty_value=0, values=None):
        self.order = truncation_order(order)
        self.empty_value = _as_fraction(empty_value)
        self.values = {}
        self._logarithmic = None
        self._contraction = None
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

    def truncated(self, order: int) -> "CharacterMap":
        """The character cut to truncation ``order``: its values on larger
        forests are dropped.  An order above the character's own is refused,
        as the values there were never given."""
        if truncation_order(order) > self.order:
            raise ValueError(f"order {order} is above the character's order {self.order}")
        values = [(b, c) for b, c in self.values.items() if b.vertex_count <= order]
        return CharacterMap(order, self.empty_value, values)

    def __eq__(self, other):
        return (
            isinstance(other, CharacterMap)
            and self.order == other.order
            and self.empty_value == other.empty_value
            and self.values == other.values
        )

    def sorted_items(self) -> list:
        """The values by vertex count, then by serialized forest: the order of
        ``to_json`` and of the CLI's text."""
        return sorted(
            self.values.items(), key=lambda kv: (kv[0].vertex_count, kv[0].serialize())
        )

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "empty": str(self.empty_value),
            "values": {b.serialize(): str(c) for b, c in self.sorted_items()},
        }

    @staticmethod
    def from_json(data: dict, planar: bool = True) -> "CharacterMap":
        """Read ``{"order": n, "empty": c, "values": {forest: c}}``; every
        value is a ``"p/q"`` string or an integer.  Each forest gets one
        value: two keys naming one forest, or a key naming the empty forest
        beside ``"empty"``, are an error, and so is any other key."""
        parse = parse_forest if planar else parse_nonplanar_forest
        values = data.get("values", {}) if isinstance(data, dict) else None
        if not isinstance(values, dict):
            raise ValueError('a character is an object with a "values" object')
        _check_keys(data, "a character", ("order", "empty", "values"), ("order",))
        parsed = {}
        for key, value in values.items():
            forest = parse(key)
            if forest in parsed or (forest.is_empty and "empty" in data):
                raise ValueError(f"key {key!r} names a forest that already has a value")
            parsed[forest] = value
        return CharacterMap(data["order"], data.get("empty", 0), parsed)

    @staticmethod
    def load(path, planar: bool = True) -> "CharacterMap":
        with open(path) as fh:
            return CharacterMap.from_json(json.load(fh), planar=planar)

    def __repr__(self):
        return f"CharacterMap(order={self.order}, empty={self.empty_value}, {len(self.values)} values)"


def is_primitive_shuffle(x: LinComb, order: int) -> bool:
    """True iff every homogeneous component of ``x`` up to ``order`` is
    primitive for the unshuffling coproduct."""
    from .postlie import delta_shuffle

    by_degree: dict[int, list] = {}
    for forest, c in x.items():
        if forest.vertex_count <= order:
            by_degree.setdefault(forest.vertex_count, []).append((forest, c))
    for terms in by_degree.values():
        comp = LinComb(terms)
        lhs = comp.map_basis(delta_shuffle)
        rhs = tensor(LinComb.of(EMPTY_FOREST), comp) + tensor(
            comp, LinComb.of(EMPTY_FOREST)
        )
        if lhs != rhs:
            return False
    return True


def is_logarithmic(alpha: CharacterMap) -> bool:
    """Zero on the empty forest and on every proper shuffle up to the order.
    The shuffle check runs once per character; its answer is cached."""
    if alpha._logarithmic is None:
        alpha._logarithmic = _vanishes_on_shuffles(alpha)
    return alpha._logarithmic


def _vanishes_on_shuffles(alpha: CharacterMap) -> bool:
    """Zero on the empty forest and on each product of Lyndon factors
    (:func:`_lyndon_products`)."""
    return alpha.empty_value == 0 and all(lhs == 0 for lhs, _ in _lyndon_products(alpha))


def is_exponential(alpha: CharacterMap) -> bool:
    """One on the empty forest and multiplicative on shuffles up to the
    order: on each product of Lyndon factors, the first factor times the
    product of the rest (:func:`_lyndon_products`)."""
    return alpha.empty_value == 1 and all(lhs == rhs for lhs, rhs in _lyndon_products(alpha))


def _lyndon_products(alpha: CharacterMap):
    """``(E**2 * alpha(L1 sh P), E * alpha(L1) * E * alpha(P))`` in ``int``
    for each forest up to the order whose Lyndon factorization
    ``L1 ... Lk`` has ``k >= 2`` factors, where ``P = L2 sh ... sh Lk``
    and ``E`` is alpha's scale (:func:`integer_values`).

    The shuffle algebra over Q is the polynomial algebra on Lyndon words
    (Radford; Reutenauer, *Free Lie Algebras*, 1993, ch. 6), here words of
    planar trees ordered by ``(vertex_count, serialize())``.  So the
    products ``L1 sh ... sh Lk``, one per forest, are a basis of each size,
    those with ``k >= 2`` span the proper shuffles, and the shuffle of two
    products is the product of all their factors.  Hence alpha vanishes
    on the proper shuffles iff every first value is 0, and it is
    multiplicative on shuffles iff every pair agrees.  A product is the first factor
    shuffled with the product of the rest; its terms are kept below the
    top order, and ``E * alpha`` on it in ``at``.
    """
    order = alpha.order
    # each size's trees are listed by serialization
    trees = (t for n in range(1, order + 1) for t in enumerate_planar_trees(n))
    letter = {t: i for i, t in enumerate(trees)}
    scale, weight = integer_values(alpha, EMPTY_FOREST)
    value = {tuple(map(letter.get, f.trees)): c for f, c in weight.items()}
    products: dict = {}
    at: dict = {}
    for size in range(2, order + 1):
        for forest in enumerate_ordered_forests(size):
            word = tuple(map(letter.get, forest.trees))
            cut = _lyndon_prefix(word)
            if cut == len(word):
                continue
            head, rest = word[:cut], word[cut:]
            terms = _shuffled_words(head, products.get(rest, {rest: 1}))
            if size < order:
                products[word] = _summed({}, terms)
                terms = products[word].items()
            at[word] = sum(c * value.get(w, 0) for w, c in terms)
            # a Lyndon word is its own product
            yield scale * at[word], value.get(head, 0) * at.get(rest, value.get(rest, 0))


def _lyndon_prefix(word: tuple) -> int:
    """The length of the first factor of ``word``'s Lyndon factorization,
    its longest Lyndon prefix (Duval's scan)."""
    j, k = 1, 0
    while j < len(word) and word[k] <= word[j]:
        k = 0 if word[k] < word[j] else k + 1
        j += 1
    return j - k


def _shuffled_words(head: tuple, x: dict):
    """The terms ``(w, c)`` of ``head`` shuffled with the combination ``x``
    of words, one per interleaving: ``head``'s letters go to the positions
    of each ``combinations`` pick, the other word's fill the rest.  The
    picks come in lexicographic order, so for each word of ``x`` the
    interleavings that take ``head``'s next letter first come first."""
    for b, c in x.items():
        for picks in combinations(range(len(head) + len(b)), len(head)):
            w = list(b)
            for p, a in zip(picks, head):
                w.insert(p, a)
            yield tuple(w), c


def integer_weights(values: dict) -> tuple[int, dict]:
    """Rational values as integers over one scale: ``(D, weights)`` with
    ``D`` the lcm of the denominators and ``weights[x]`` the integer
    ``values[x] * D ** |x|``.

    The weights of parts that cover ``n`` vertices multiply to ``D ** n``
    times the product of their values, whatever the parts, so a sum over
    the terms of a size-``n`` basis element stays an integer and one
    division by ``D ** n`` ends it."""
    scale = math.lcm(1, *(c.denominator for c in values.values()))
    return scale, {
        x: c.numerator * (scale**x.vertex_count // c.denominator) for x, c in values.items()
    }


def integer_values(character: CharacterMap, empty) -> tuple[int, dict]:
    """A character's values, its empty value on the basis element ``empty``
    included, as integers over one scale: ``(E, weights)`` with ``E`` the
    lcm of their denominators and ``weights[x]`` the integer
    ``character(x) * E``.  Unlike :func:`integer_weights` the scale does not
    grow with a basis element's size, so it fits a character that is read
    linearly, whatever the sizes of its arguments."""
    values = {empty: character.empty_value, **character.values}
    scale = math.lcm(1, *(c.denominator for c in values.values()))
    return scale, {x: c.numerator * (scale // c.denominator) for x, c in values.items()}


def pair_legs(
    paired: Callable, left_scale: Callable, right: CharacterMap, forests: Callable, order: int
) -> CharacterMap:
    """The character ``w -> paired(w, read) / (left_scale(|w|) * E)`` for
    every ``w`` in ``forests(0..order)``, ``read`` being the right
    character's integer reader over the lcm ``E`` of its denominators
    (:func:`integer_values`).

    This is the one pairing of the character products (``subst.star_w``,
    ``prelie.convolve``, ``seriesmorph.compose_lb``): ``paired`` carries the
    left character through a coproduct's or coaction's recursion and sums
    a forest's right legs, read by ``read``, times their integer
    coefficients, the left values times ``left_scale`` of the forest's
    size: ``D ** n`` for weights that multiply over parts
    (:func:`integer_weights`), one scale for a character read on whole left
    legs (:func:`integer_values`).  Each caller states its own rule for the
    top order, whose forests no later forest reads.  ``forests(0)`` lists
    the empty forest, where ``right`` reads its empty value.  The values
    go straight into the result, a zero pairing left out, as
    ``CharacterMap`` would leave it: every forest here is within ``order``
    and every value a ``Fraction``, so none needs its checks.
    """
    (empty,) = forests(0)
    right_scale, weight = integer_values(right, empty)
    read = weight.get
    out = CharacterMap(order, Fraction(paired(empty, read), left_scale(0) * right_scale))
    values = out.values
    for size in range(1, order + 1):
        denominator = left_scale(size) * right_scale
        for w in forests(size):
            c = paired(w, read)
            if c:
                values[w] = Fraction(c, denominator)
    return out


def convolve_through(
    delta: Callable, left: Callable, right: Callable, forests: Callable, order: int
) -> CharacterMap:
    """The character ``w -> sum c * left(l) * right(r)`` over the terms
    ``c * (l, r)`` of ``delta(w)``, for every ``w`` in ``forests(0..order)``.

    Composition and substitution of series are convolutions through a
    coproduct or a coaction.  The production products (``star_w``,
    ``convolve``, ``compose_lb``) build no terms: they carry their left
    character through the recursion that the coproduct or coaction reads
    with the universal character, pair it with the right character through
    :func:`pair_legs`, and are tested against this.  It serves the
    bracket-route oracle ``subst.star_rho`` and the deconcatenation
    convolution of the laws.
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


def parse_lincomb(text: str) -> LinComb:
    """Parse ``c1 * <word> + c2 * <word>`` with rational literals ``p/q``.

    The word ``1`` denotes the empty forest.  A missing coefficient means 1.
    ``0`` is the zero combination, as :func:`format_lincomb` prints it.
    """
    if text.strip() == "0":
        return LinComb()
    terms = []
    for sign, chunk in _split_terms(text):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty term in linear combination")
        if "*" in chunk:
            coeff_text, _, word_text = chunk.partition("*")
            coeff = _as_fraction(coeff_text.strip())
        else:
            coeff, word_text = Fraction(1), chunk
        word_text = word_text.strip()
        word = parse_forest("" if word_text == "1" else word_text)
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
