"""Per-layer metrics, reduced from one traced pass of a job.

Each metric reads the spans of named traced functions ("module.name" or
"module.Class.method"), or the ``cache_info()`` of an lru-cached function.
"""

from __future__ import annotations

import inspect

ENUMERATORS = tuple(
    f"trees.enumerate_{kind}"
    for kind in ("planar_trees", "ordered_forests", "nonplanar_trees", "forests")
)
CHARACTER_JSON = tuple(
    f"coeffalg.CharacterMap.{name}" for name in ("from_json", "to_json", "load")
)
TRUNCATED_SERIES = tuple(
    f"seriesmorph.TruncatedSeries.{name}" for name in ("graft", "mul", "__add__", "scale")
)

# name -> (unit, better, traced functions or a name prefix, what is read)
SPAN_METRICS = {
    "trees.enumerate.self_s": ("s", "lower", ENUMERATORS, "self"),
    "trees.canonicalize.calls": ("count", "lower", ("trees.canonicalize",), "calls"),
    "coeffalg.bilinear.calls": ("count", "lower", ("coeffalg.bilinear",), "calls"),
    "coeffalg.bilinear.self_s": ("s", "lower", ("coeffalg.bilinear",), "self"),
    "coeffalg.lincomb_add.calls": ("count", "lower", ("coeffalg.LinComb.__add__",), "calls"),
    "coeffalg.lincomb_add.self_s": ("s", "lower", ("coeffalg.LinComb.__add__",), "self"),
    "coeffalg.is_logarithmic.self_s": ("s", "lower", ("coeffalg.is_logarithmic",), "self"),
    "coeffalg.character_json.self_s": ("s", "lower", CHARACTER_JSON, "self"),
    "cli.run.self_s": ("s", "lower", "cli.", "self"),
    "postlie.left_graft.self_s": ("s", "lower", ("postlie.left_graft",), "self"),
    "postlie.gl_product.self_s": ("s", "lower", ("postlie.gl_product",), "self"),
    "postlie.delta_n.self_s": ("s", "lower", ("postlie.delta_n",), "self"),
    "postlie.shuffle.calls": ("count", "lower", ("postlie.shuffle",), "calls"),
    "subst.delta_w.self_s": ("s", "lower", ("subst.delta_w",), "self"),
    "subst.admissible_partitions.self_s": ("s", "lower", ("subst.admissible_partitions",), "self"),
    "subst.contract.self_s": ("s", "lower", ("subst.contract",), "self"),
    "subst.star_w.self_s": ("s", "lower", ("subst.star_w",), "self"),
    "seriesmorph.compose_lb.self_s": ("s", "lower", ("seriesmorph.compose_lb",), "self"),
    "seriesmorph.a_alpha.self_s": ("s", "lower", ("seriesmorph.a_alpha",), "self"),
    "seriesmorph.truncated_series.self_s": ("s", "lower", TRUNCATED_SERIES, "self"),
    "prelie.delta_h.self_s": ("s", "lower", ("prelie.delta_h",), "self"),
    "prelie.delta_ck.self_s": ("s", "lower", ("prelie.delta_ck",), "self"),
    "prelie.convolve.self_s": ("s", "lower", ("prelie.convolve",), "self"),
    "numericdemo.elementary_differential.self_s": (
        "s", "lower", ("numericdemo.elementary_differential",), "self",
    ),
    "numericdemo.bseries_eval.self_s": ("s", "lower", ("numericdemo.bseries_eval",), "self"),
    "numericdemo.poly_mul.calls": ("count", "lower", ("numericdemo.Poly.__mul__",), "calls"),
    "numericdemo.poly_mul.self_s": ("s", "lower", ("numericdemo.Poly.__mul__",), "self"),
}

# name -> (unit, better, (module, function), what is read)
CACHE_METRICS = {
    "postlie.delta_n.hit_ratio": ("ratio", "higher", ("postlie", "delta_n"), "hit_ratio"),
    "subst.delta_w.hit_ratio": ("ratio", "higher", ("subst", "delta_w"), "hit_ratio"),
    "postlie.delta_n.cache_entries": ("count", "lower", ("postlie", "delta_n"), "entries"),
    "subst.delta_w.cache_entries": ("count", "lower", ("subst", "delta_w"), "entries"),
}

OVERHEAD = ("trace.overhead_s", "s", "lower")

UNITS = {name: spec[0] for name, spec in {**SPAN_METRICS, **CACHE_METRICS}.items()}
UNITS[OVERHEAD[0]] = OVERHEAD[1]


def cached_functions(lb) -> dict:
    """The lru-cached functions behind CACHE_METRICS, under any hooks."""
    out = {}
    for _, _, where, _ in CACHE_METRICS.values():
        fn = getattr(getattr(lb, where[0]), where[1])
        out[where] = inspect.unwrap(fn, stop=lambda f: hasattr(f, "cache_info"))
    return out


def cache_snapshot(functions: dict) -> dict:
    return {where: fn.cache_info() for where, fn in functions.items()}


def span_values(totals: dict) -> dict[str, float]:
    """Metric values from ``Tracer.totals()`` of one pass."""
    out = {}
    for name, (_, _, functions, what) in SPAN_METRICS.items():
        if isinstance(functions, str):
            picked = [v for k, v in totals.items() if k.startswith(functions)]
        else:
            picked = [totals[k] for k in functions if k in totals]
        index = 0 if what == "calls" else 1
        out[name] = sum(v[index] for v in picked)
    return out


def cache_values(before: dict, after: dict) -> dict[str, float]:
    """Hit ratio of the calls made between two snapshots, and entries after."""
    out = {}
    for name, (_, _, where, what) in CACHE_METRICS.items():
        b, a = before[where], after[where]
        if what == "entries":
            out[name] = a.currsize
        else:
            calls = (a.hits - b.hits) + (a.misses - b.misses)
            out[name] = (a.hits - b.hits) / calls if calls else 0.0
    return out
