"""Output digests that pin a coproduct or coaction on a whole basis, or a
character."""

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


def character_digest(char) -> str:
    """sha256 of a character's JSON form with sorted keys."""
    return hashlib.sha256(json.dumps(char.to_json(), sort_keys=True).encode()).hexdigest()
