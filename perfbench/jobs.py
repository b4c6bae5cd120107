"""The four workloads: their inputs, job steps, output text and checks.

A job is a list of steps.  The same code runs a step in a cold child, in
the warm child and in the parent that checks the outputs, so the text the
children report can be compared with the parent's checked results.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from . import gen

WORKLOADS = ("subst-cold", "series-warm", "graft-cold", "bseries-cold")

SERIES_ORDER = 6  # substitution and composition (subst-cold, series-warm)
ORACLE_ORDER = 4  # star_rho and a_alpha cross-checks of the substitution
GL_ORDER = 6  # total order of the forest pairs given to gl_product
A_ALPHA_ORDER = 4  # forests whose a_alpha image graft-cold computes
A_ALPHA_DEGREE = 3  # degree of the Lie polynomial behind graft-cold's alpha
BSERIES_ORDER = 4  # verify_bseries_substitution
CONVOLVE_ORDER = 7  # convolve(..., "h") and convolve(..., "ck"), and their associativity check


def inputs(workload: str, seed: int, round_index: int | None = None) -> dict:
    """JSON documents for one workload (for series-warm: one round)."""
    if workload == "series-warm":
        rng = random.Random(f"{workload}:{seed}:{round_index}")
    else:
        rng = random.Random(f"{workload}:{seed}")
    if workload in ("subst-cold", "series-warm"):
        return {
            "alpha": gen.logarithmic_character(rng, SERIES_ORDER, SERIES_ORDER),
            "beta": gen.character(rng, SERIES_ORDER),
            "gamma": gen.character(rng, SERIES_ORDER),
        }
    if workload == "graft-cold":
        return {"alpha": gen.logarithmic_character(rng, A_ALPHA_ORDER, A_ALPHA_DEGREE)}
    if workload == "bseries-cold":
        return {
            "field": gen.vector_field(rng),
            "y0": gen.point(rng),
            "alpha": gen.tree_character(rng, BSERIES_ORDER, Fraction(0)),
            "beta": gen.tree_character(rng, BSERIES_ORDER, gen.fraction(rng)),
            "a": gen.tree_character(rng, CONVOLVE_ORDER, Fraction(0)),
            "b": gen.tree_character(rng, CONVOLVE_ORDER, Fraction(1)),
            "c": gen.tree_character(rng, CONVOLVE_ORDER, Fraction(1)),
        }
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(docs: dict, directory: str) -> dict[str, str]:
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(directory, name + ".json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    return paths


# ---------------------------------------------------------------------------
# Output text: one canonical string per step result.


def character_text(char) -> str:
    return json.dumps(char.to_json(), sort_keys=True)


def comb_text(comb) -> str:
    return " ".join(
        f"{c}*<{b.serialize()}>" for b, c in sorted(comb.items(), key=lambda bc: bc[0].serialize())
    )


def series_text(series) -> str:
    return f"{series.order}: {comb_text(series.element)}"


# ---------------------------------------------------------------------------
# Jobs.  A step is (name, thunk, to_text, splits): ``splits`` lists the
# (owner, name) functions at whose calls clock.UnitClock cuts the step.


def cli_call(lb, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lb.cli.run(argv)
    return f"exit {code}\n{out.getvalue()}"


def series_splits(lb) -> list:
    """Split points of substitution and composition (see clock.UnitClock).
    ``_block_admissible`` cuts the enumeration of partition candidates."""
    return [
        (lb.subst, "delta_w"),
        (lb.subst, "admissible_partitions"),
        (lb.subst, "_block_admissible"),
        (lb.subst, "contract"),
        (lb.postlie, "delta_n"),
        (lb.coeffalg, "is_logarithmic"),
        (lb.coeffalg.CharacterMap, "load"),
        (lb.coeffalg.CharacterMap, "to_json"),
    ]


def subst_steps(lb, paths: dict[str, str]) -> list:
    splits = series_splits(lb)
    substitute = ["substitute", "--alpha", paths["alpha"], "--beta", paths["beta"]]
    compose = ["compose", "--beta", paths["beta"], "--alpha", paths["gamma"]]
    return [
        ("substitute", lambda: cli_call(lb, substitute + ["--format", "json"]), str, splits),
        ("compose", lambda: cli_call(lb, compose + ["--format", "json"]), str, splits),
    ]


def expected_cli_text(char) -> str:
    return f"exit 0\n{character_text(char)}\n"


def round_steps(lb, chars: dict) -> list:
    """One series-warm round; its last two results are the two sides of the
    cointeraction identity."""
    sm = lb.seriesmorph
    alpha, beta, gamma = chars["alpha"], chars["beta"], chars["gamma"]
    out: dict = {}

    def step(key, fn):
        def thunk():
            out[key] = fn()
            return out[key]

        return (key, thunk, character_text, [])

    return [
        step("s_ab", lambda: sm.substitute_lb(alpha, beta)),
        step("s_ag", lambda: sm.substitute_lb(alpha, gamma)),
        step("c_bg", lambda: sm.compose_lb(beta, gamma)),
        step("lhs", lambda: sm.substitute_lb(alpha, out["c_bg"])),
        step("rhs", lambda: sm.compose_lb(out["s_ab"], out["s_ag"])),
    ]


def gl_pairs(lb, order: int = GL_ORDER) -> list:
    forests = lb.trees.enumerate_ordered_forests
    return [
        (f1, f2)
        for left in range(order + 1)
        for f1 in forests(left)
        for f2 in forests(order - left)
    ]


def a_alpha_forests(lb, order: int = A_ALPHA_ORDER) -> list:
    forests = lb.trees.enumerate_ordered_forests
    return [w for size in range(order + 1) for w in forests(size)]


def graft_steps(lb, alpha) -> list:
    postlie, seriesmorph = lb.postlie, lb.seriesmorph
    splits = [(postlie, "left_graft"), (lb.coeffalg, "bilinear"), (lb.coeffalg, "is_logarithmic")]
    steps = []
    for f1, f2 in gl_pairs(lb):
        name = f"gl {f1.serialize()}|{f2.serialize()}"
        steps.append((name, lambda f1=f1, f2=f2: postlie.gl_product(f1, f2), comb_text, splits))
    for w in a_alpha_forests(lb):
        name = f"a_alpha {w.serialize()}"
        steps.append((name, lambda w=w: seriesmorph.a_alpha(alpha, w), series_text, splits))
    return steps


def bseries_steps(lb, data: dict) -> list:
    numericdemo, prelie = lb.numericdemo, lb.prelie
    y0 = [Fraction(v) for v in data["y0"]]
    verify = (data["alpha"], data["beta"], data["field"], y0, BSERIES_ORDER)
    verify_splits = [
        (numericdemo, "elementary_differential"),
        (prelie, "delta_h"),
        (numericdemo.Poly, "__mul__"),
    ]
    a, b = data["a"], data["b"]

    def convolve(op: str):
        thunk = lambda: prelie.convolve(a, b, op)  # noqa: E731
        return (f"convolve-{op}", thunk, character_text, [(prelie, f"delta_{op}")])

    return [
        ("verify", lambda: numericdemo.verify_bseries_substitution(*verify), str, verify_splits),
        convolve("h"),
        convolve("ck"),
    ]


def load_bseries(lb, paths: dict[str, str]) -> dict:
    data = {}
    for name in ("alpha", "beta", "a", "b", "c"):
        data[name] = lb.coeffalg.CharacterMap.load(paths[name], planar=False)
    with open(paths["field"]) as fh:
        data["field"] = lb.numericdemo.PolyVectorField.from_json(json.load(fh))
    with open(paths["y0"]) as fh:
        data["y0"] = json.load(fh)
    return data


def cold_steps(lb, workload: str, paths: dict[str, str]):
    """(steps, loaded inputs) for one pass of a cold workload."""
    if workload == "subst-cold":
        return subst_steps(lb, paths), None
    if workload == "graft-cold":
        alpha = lb.coeffalg.CharacterMap.load(paths["alpha"])
        return graft_steps(lb, alpha), alpha
    if workload == "bseries-cold":
        data = load_bseries(lb, paths)
        return bseries_steps(lb, data), data
    raise ValueError(f"not a cold workload: {workload!r}")


def digest(texts: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name, text in texts.items():
        h.update(f"{name}\t{text}\n".encode())
    return h.hexdigest()


def run_steps(steps, clock=None) -> tuple[dict, dict[str, str]]:
    """Run steps (timed by ``clock`` if given); return results and texts."""
    results, texts = {}, {}
    for name, thunk, _, _ in steps:
        results[name] = clock.step(name, thunk) if clock else thunk()
    for name, _, to_text, _ in steps:
        texts[name] = to_text(results[name])
    return results, texts


# ---------------------------------------------------------------------------
# Independent checks.  Each returns a list of failure descriptions.


def catalan(n: int) -> int:
    out = 1
    for k in range(n):
        out = out * 2 * (2 * k + 1) // (k + 2)
    return out


def rooted_trees(n: int) -> list[int]:
    """Rooted-tree counts a(0..n) by the recurrence
    a(m+1) = (1/m) sum_{k=1..m} (sum_{d | k} d a(d)) a(m-k+1)."""
    a = [0, 1]
    for m in range(1, n):
        total = 0
        for k in range(1, m + 1):
            s = sum(d * a[d] for d in range(1, k + 1) if k % d == 0)
            total += s * a[m - k + 1]
        a.append(total // m)
    return a[: n + 1]


def check_bases(lb, order: int) -> list[str]:
    trees = lb.trees
    counts = rooted_trees(order + 1)
    failures = []
    for n in range(1, order + 1):
        got = (
            len(trees.enumerate_planar_trees(n)),
            len(trees.enumerate_ordered_forests(n)),
            len(trees.enumerate_nonplanar_trees(n)),
            len(trees.enumerate_forests(n)),
        )
        want = (catalan(n - 1), catalan(n), counts[n], counts[n + 1])
        if got != want:
            failures.append(f"basis sizes at order {n}: {got} != {want}")
    return failures


def truncate(lb, char, order: int):
    values = [(f, c) for f, c in char.values.items() if f.vertex_count <= order]
    return lb.coeffalg.CharacterMap(order, char.empty_value, values)


def check_series(lb, alpha, beta, gamma, substituted, composed) -> list[str]:
    """``substituted`` = substitute(alpha, beta), ``composed`` =
    compose(beta, gamma), as the program produced them."""
    sm = lb.seriesmorph
    failures = []
    lhs = sm.substitute_lb(alpha, composed)
    rhs = sm.compose_lb(substituted, sm.substitute_lb(alpha, gamma))
    if lhs != rhs:
        failures.append("cointeraction identity fails")
    if sm.compose_lb(composed, alpha) != sm.compose_lb(beta, sm.compose_lb(gamma, alpha)):
        failures.append("compose_lb is not associative")
    order = min(ORACLE_ORDER, alpha.order)
    alpha_low, beta_low = truncate(lb, alpha, order), truncate(lb, beta, order)
    low = truncate(lb, substituted, order)
    if lb.subst.star_rho(alpha_low, beta_low, order) != low:
        failures.append(f"substitution differs from star_rho up to order {order}")
    rebuilt = lb.coeffalg.LinComb.of(lb.trees.EMPTY_FOREST, beta_low.empty_value)
    for size in range(1, order + 1):
        for f in lb.trees.enumerate_ordered_forests(size):
            rebuilt = rebuilt + sm.a_alpha(alpha_low, f).element.scale(beta_low(f))
    if sm.TruncatedSeries(order, rebuilt) != sm.series_of(low):
        failures.append(f"substitution differs from the a_alpha series up to order {order}")
    return failures


def check_graft(lb, alpha, gl: dict, images: dict) -> list[str]:
    """``gl[(f1, f2)]`` (all pairs of one total order) and ``images[w]`` are
    the program's gl_product and a_alpha results."""
    failures = []
    order = max(f1.vertex_count + f2.vertex_count for f1, f2 in gl)
    expected: dict = {}
    for (f1, f2), product in gl.items():
        for w, c in product.items():
            expected.setdefault(w, []).append(((f1, f2), c))
    LinComb = lb.coeffalg.LinComb
    for w in lb.trees.enumerate_ordered_forests(order):
        if lb.postlie.delta_n(w) != LinComb(expected.get(w, [])):
            failures.append(f"GL duality fails at {w.serialize()}")
    daggers = {w: lb.seriesmorph.a_alpha_dagger(alpha, w) for w in images}
    for w1, image in images.items():
        for w2, dagger in daggers.items():
            if image.coeff(w2) != dagger.coeff(w1):
                failures.append(f"adjoint fails at ({w1.serialize()}, {w2.serialize()})")
    return failures


def check_bseries(lb, data: dict, verified, conv_h, conv_ck) -> list[str]:
    """``verified``, ``conv_h`` and ``conv_ck`` are the program's results for
    ``data``; the convolutions are checked up to the order of ``data["c"]``.

    On trees both convolutions must be associative.  On a forest of two or
    more trees the right argument, a character on trees, reads zero unless
    the right leg is one tree or empty, so the value follows from the tree
    values: zero for "h" (its right legs keep every tree), and for "ck"
    ``b(1) prod_j a(t_j) + sum_i ((a*b)(t_i) - b(1) a(t_i)) prod_{j != i} a(t_j)``.
    """
    failures = []
    if verified is not True:
        failures.append("verify_bseries_substitution is not true")
    convolve, Forest = lb.prelie.convolve, lb.trees.Forest
    order = data["c"].order
    a, b, c = (truncate(lb, data[k], order) for k in "abc")
    for op, ab in (("h", conv_h), ("ck", conv_ck)):
        left = convolve(truncate(lb, ab, order), c, op)
        right = convolve(a, convolve(b, c, op), op)
        for size in range(1, order + 1):
            for t in lb.trees.enumerate_nonplanar_trees(size):
                tree = Forest((t,))
                if left(tree) != right(tree):
                    failures.append(f"convolve {op} is not associative at {t.serialize()}")
            for forest in lb.trees.enumerate_forests(size):
                if len(forest) < 2:
                    continue
                singles = [Forest((t,)) for t in forest.trees]
                want = 0
                if op == "ck":
                    want = b.empty_value * _product(a(s) for s in singles)
                    for i, s in enumerate(singles):
                        rest = _product(a(r) for j, r in enumerate(singles) if j != i)
                        want += (ab(s) - b.empty_value * a(s)) * rest
                if ab(forest) != want:
                    failures.append(f"convolve {op} is wrong on the forest {forest.serialize()}")
    return failures


def _product(values) -> Fraction:
    out = Fraction(1)
    for v in values:
        out *= v
    return out
