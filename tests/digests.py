"""Output digests that pin a coproduct, coaction or product on a whole
basis, or a character."""

import hashlib
import json


def coproduct_digest(coproduct, forests, order: int) -> str:
    """sha256 of every forest's sorted, serialized ``coproduct`` terms, for
    the forests ``forests(n)`` with ``n`` up to ``order``."""
    digest = hashlib.sha256()
    for n in range(order + 1):
        for forest in forests(n):
            terms = sorted(
                f"{left.serialize()} (x) {right.serialize()} = {c}"
                for (left, right), c in coproduct(forest).items()
            )
            digest.update("\n".join([forest.serialize(), *terms, ""]).encode())
    return digest.hexdigest()


def forest_pairs(forests, order: int):
    """Every pair of forests ``f1`` in ``forests(a)``, ``f2`` in
    ``forests(b)`` with ``a + b`` up to ``order``, by total order."""
    for n in range(order + 1):
        for a in range(n + 1):
            for f1 in forests(a):
                for f2 in forests(n - a):
                    yield f1, f2


def product_digest(product, forests, order: int) -> str:
    """sha256 of the sorted, serialized ``product(f1, f2)`` terms of every
    pair in ``forest_pairs(forests, order)``."""
    digest = hashlib.sha256()
    for f1, f2 in forest_pairs(forests, order):
        terms = sorted(f"{w.serialize()} = {c}" for w, c in product(f1, f2).items())
        head = f"{f1.serialize()} | {f2.serialize()}"
        digest.update("\n".join([head, *terms, ""]).encode())
    return digest.hexdigest()


def character_digest(char) -> str:
    """sha256 of a character's JSON form with sorted keys."""
    return hashlib.sha256(json.dumps(char.to_json(), sort_keys=True).encode()).hexdigest()
