"""Command-line interface.

Subcommands: parse, canon, enumerate, graft, product, coproduct, operad,
substitute, compose, bseries, verify.  Output is deterministic text by
default; ``--format json`` emits machine-readable structures.  Exit codes:
0 success, 1 usage or input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import sys

from .coeffalg import CharacterMap, LinComb, _as_fraction, format_basis, format_lincomb
from .laws import REGISTRY, check_law_order, law_names, reads_guard, run_law
from .numericdemo import PolyVectorField, bseries_eval, verify_bseries_substitution
from .postlie import LiePoly, delta_n, delta_shuffle, gl_product, left_graft, shuffle
from .prelie import compose_prelie_operad, delta_ck, delta_h, graft_comb
from .seriesmorph import compose_lb, substitute_lb
from .subst import Bracket, compose_postlie_operad, delta_w, expr_labels, tree_expr
from .trees import (
    LEAF,
    ForestParseError,
    canonicalize,
    enumerate_nonplanar_trees,
    enumerate_planar_trees,
    forget_planarity,
    parse_forest,
    parse_nonplanar_forest,
    parse_tree,
)


class CliError(Exception):
    pass


# The largest order that ``substitute``, ``compose`` and ``enumerate`` take:
# cold order-12 substitution finishes (141 s at 2.6 GB on a 2-vCPU, 8 GB
# machine), and a higher order would run until it is killed.
MAX_ORDER = 12


# The largest order that ``bseries eval`` takes: with a value on every tree
# up to order 15, on a 2-D quadratic field, it took 54 s at 525 MiB on a
# 2-vCPU machine, and order 16 ran past 90 s.  The trees of an order are
# enumerated whatever the character's values, so a higher order would run
# until it is killed.
BSERIES_MAX_ORDER = 15


# The largest order that ``bseries verify`` takes: with a value on every
# tree on both characters and a 2-D quadratic field, order 12 took 36 s at
# 138 MiB on a 2-vCPU machine and order 13 took 99 s at 500 MiB.
BSERIES_VERIFY_MAX_ORDER = 12


def _check_order(order: int, largest: int = MAX_ORDER) -> None:
    """Refuse an order above ``largest`` before anything is built."""
    if order > largest:
        raise CliError(f"order {order} is above the largest order {largest}")


def _comb_payload(comb: LinComb):
    terms = []
    for basis, c in comb.sorted_items():
        if isinstance(basis, tuple) and len(basis) == 2:
            terms.append(
                {"coeff": str(c), "left": format_basis(basis[0]), "right": format_basis(basis[1])}
            )
        else:
            terms.append({"coeff": str(c), "word": format_basis(basis)})
    return {"terms": terms}


def _emit(args, payload, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _emit_comb(args, comb: LinComb) -> None:
    _emit(args, _comb_payload(comb), format_lincomb(comb))


def _parse_bracket(text: str, labels):
    """Parse ``{x, y}`` bracket syntax over planar trees into a bracket/graft
    expression whose vertices take the next labels, left to right."""
    text = text.strip()
    if not text.startswith("{"):
        tree = parse_tree(text)
        return tree_expr(tree, [next(labels) for _ in range(tree.vertex_count)])
    if not text.endswith("}"):
        raise CliError(f"unbalanced braces in {text!r}")
    inner = text[1:-1]
    depth = 0
    for i, ch in enumerate(inner):
        if ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
        elif ch == "," and depth == 0:
            left = _parse_bracket(inner[:i], labels)
            return Bracket(left, _parse_bracket(inner[i + 1 :], labels))
    raise CliError(f"expected a comma in bracket {text!r}")


def _lie_poly(text: str) -> LiePoly:
    """The Lie polynomial written in bracket syntax: its expression evaluated
    with a single vertex at every label."""
    expr = _parse_bracket(text, itertools.count())
    vertices = [LiePoly.from_tree(LEAF)] * len(expr_labels(expr))
    return compose_postlie_operad(vertices, expr)


def _read(kind: str, path: str, load):
    try:
        return load(path)
    except (OSError, ValueError, KeyError) as exc:
        raise CliError(f"cannot read {kind} file {path}: {exc}") from exc


def _load_character(path: str, planar: bool) -> CharacterMap:
    return _read("character", path, lambda p: CharacterMap.load(p, planar=planar))


def cmd_parse(args) -> int:
    forest = parse_forest(args.input)
    _emit(args, forest.to_json(), forest.serialize() or "1")
    return 0


def cmd_canon(args) -> int:
    forest = forget_planarity(parse_forest(args.input))
    _emit(
        args,
        {"trees": [t.rep.to_json() for t in forest.trees]},
        forest.serialize() or "1",
    )
    return 0


def cmd_enumerate(args) -> int:
    n = args.order
    if n < 1:
        raise CliError("--order must be at least 1")
    _check_order(n)
    if args.mode == "planar":
        items = [t.serialize() for t in enumerate_planar_trees(n)]
    else:
        items = [t.serialize() for t in enumerate_nonplanar_trees(n)]
    _emit(args, {"count": len(items), "trees": items}, "\n".join(items))
    return 0


def cmd_graft(args) -> int:
    if args.mode == "prelie":
        t1 = canonicalize(parse_tree(args.left))
        t2 = canonicalize(parse_tree(args.right))
        result = graft_comb(LinComb.of(t1), LinComb.of(t2))
    else:
        f1 = parse_forest(args.left)
        f2 = parse_forest(args.right)
        result = left_graft(LinComb.of(f1), LinComb.of(f2))
    _emit_comb(args, result)
    return 0


# --op -> the product of two ordered forests
PRODUCTS = {
    "concat": lambda f1, f2: LinComb.of(f1.concat(f2)),
    "shuffle": shuffle,
    "gl": gl_product,
}

# --op -> (the parser of its input, the coproduct)
COPRODUCTS = {
    "ck": (parse_nonplanar_forest, delta_ck),
    "h": (parse_nonplanar_forest, delta_h),
    "n": (parse_forest, delta_n),
    "shuffle": (parse_forest, delta_shuffle),
    "w": (parse_forest, delta_w),
}


def cmd_product(args) -> int:
    _emit_comb(args, PRODUCTS[args.op](parse_forest(args.left), parse_forest(args.right)))
    return 0


def cmd_coproduct(args) -> int:
    parse, coproduct = COPRODUCTS[args.op]
    _emit_comb(args, coproduct(parse(args.input)))
    return 0


def cmd_operad(args) -> int:
    inputs = [chunk for chunk in args.inputs.split(";") if chunk.strip()]
    assignment = [int(x) for x in args.assign.split(",")] if args.assign else None
    if args.mode == "prelie":
        base = canonicalize(parse_tree(args.base))
        trees = [canonicalize(parse_tree(c)) for c in inputs]
        _emit_comb(args, compose_prelie_operad(trees, base, assignment))
    else:
        expr = _parse_bracket(args.base, itertools.count())
        polys = [_lie_poly(c) for c in inputs]
        _emit_comb(args, compose_postlie_operad(polys, expr, assignment).expansion)
    return 0


def cmd_series_product(args) -> int:
    """``substitute`` (alpha *_W beta) and ``compose`` (beta * alpha): the
    operands are read in ``args.operands`` order and multiplied in it.  An
    ``--order`` may lower the truncation but not raise it past either
    character's order, where their coefficients are not given.  The order
    the product is taken at, the lower of the characters' orders and
    ``--order``, may not pass :data:`MAX_ORDER`."""
    if args.order is not None and args.order < 1:
        raise CliError("--order must be at least 1")
    chars = [_load_character(getattr(args, name), planar=True) for name in args.operands]
    orders = {name: char.order for name, char in zip(args.operands, chars)}
    order = min(orders.values()) if args.order is None else args.order
    if order > min(orders.values()):
        alpha, beta = orders["alpha"], orders["beta"]
        raise CliError(f"order {order} is above the characters' orders {alpha} and {beta}")
    _check_order(order)
    if args.order is not None:
        chars = [char.truncated(order) for char in chars]
    result = args.product(*chars)
    # rendered in the format asked for only: at order 11 the text alone
    # takes about 0.2 s
    if args.format == "json":
        print(json.dumps(result.to_json(), sort_keys=True))
    else:
        print(_character_text(result))
    return 0


def _character_text(char: CharacterMap) -> str:
    lines = [f"order {char.order}", f"1 -> {char.empty_value}"]
    lines.extend(f"{basis.serialize()} -> {c}" for basis, c in char.sorted_items())
    return "\n".join(lines)


def cmd_bseries(args) -> int:
    if args.order is not None and args.order < 1:
        raise CliError("--order must be at least 1")
    field = _read("field", args.field, PolyVectorField.load)
    y0 = [_as_fraction(x) for x in args.y0.split(",")]
    if args.action == "eval":
        alpha = _load_character(args.alpha, planar=False)
        h = _as_fraction(args.step) if args.step is not None else None
        order = args.order or alpha.order
        _check_order(order, BSERIES_MAX_ORDER)
        result = bseries_eval(h, field, alpha, y0, order)
        if h is None:
            payload = [
                {str(k): str(v) for k, v in comp.items()} for comp in result
            ]
            text = "\n".join(
                " + ".join(f"{v} h^{k}" for k, v in sorted(comp.items())) or "0"
                for comp in result
            )
        else:
            payload = [str(v) for v in result]
            text = ", ".join(str(v) for v in result)
        _emit(args, {"value": payload}, text)
        return 0
    alpha = _load_character(args.alpha, planar=False)
    beta = _load_character(args.beta, planar=False)
    order = args.order or min(alpha.order, beta.order)
    _check_order(order, BSERIES_VERIFY_MAX_ORDER)
    ok = verify_bseries_substitution(alpha, beta, field, y0, order)
    _emit(args, {"passed": ok}, "PASS" if ok else "FAIL")
    return 0 if ok else 2


def cmd_verify(args) -> int:
    for flag in ("order", "guard"):
        if getattr(args, flag) is not None and getattr(args, flag) < 1:
            raise CliError(f"--{flag} must be at least 1")
    names = law_names() if args.all else [args.law]
    if not args.all and args.law not in REGISTRY:
        raise CliError(
            f"unknown law {args.law!r}; known: {', '.join(law_names())}"
        )
    if args.guard is not None and not any(map(reads_guard, names)):
        readers = ", ".join(filter(reads_guard, law_names()))
        raise CliError(f"--guard is read only by {readers}")
    if args.order is not None:
        for name in names:
            check_law_order(name, args.order)
    results = []
    for name in names:
        result = run_law(name, args.order, args.guard, args.seed)
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        line = f"{status} {result.name} (order {result.order})"
        if result.counterexample:
            line += f" counterexample: {result.counterexample}"
        if args.format != "json":
            print(line)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "law": r.name,
                        "passed": r.passed,
                        "order": r.order,
                        "counterexample": r.counterexample,
                    }
                    for r in results
                ],
                sort_keys=True,
            )
        )
    return 0 if all(r.passed for r in results) else 2


def _forest_args(p):
    p.add_argument("input")


def _enumerate_args(p):
    p.add_argument("--order", "-n", type=int, required=True)
    p.add_argument("--mode", choices=("planar", "nonplanar"), default="planar")


def _graft_args(p):
    p.add_argument("--mode", choices=("prelie", "postlie"), default="prelie")
    p.add_argument("left")
    p.add_argument("right")


def _product_args(p):
    p.add_argument("--op", choices=PRODUCTS, required=True)
    p.add_argument("left")
    p.add_argument("right")


def _coproduct_args(p):
    p.add_argument("--op", choices=COPRODUCTS, required=True)
    p.add_argument("input")


def _operad_args(p):
    p.add_argument("--mode", choices=("prelie", "postlie"), default="prelie")
    p.add_argument("--base", required=True)
    p.add_argument("--inputs", required=True, help="inputs separated by ';'")
    p.add_argument("--assign", help="comma-separated input index per vertex")


def _series_args(product, operands):
    def add(p):
        p.add_argument("--alpha", required=True)
        p.add_argument("--beta", required=True)
        p.add_argument("--order", type=int)
        p.set_defaults(product=product, operands=operands)

    return add


def _bseries_args(p):
    p.add_argument("action", choices=("eval", "verify"))
    p.add_argument("--field", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta")
    p.add_argument("--order", type=int)
    p.add_argument("--y0", default="1")
    p.add_argument("--step", help="rational step; omit to keep it formal")


def _verify_args(p):
    p.add_argument("law", nargs="?", help="law name; see --list")
    p.add_argument("--all", action="store_true")
    p.add_argument("--list", action="store_true")
    p.add_argument("--order", "-n", type=int)
    p.add_argument("--guard", type=int)
    p.add_argument("--seed", type=int, default=0)


# command -> (help line, handler, the function that adds its arguments);
# every command also takes --format, added last
COMMANDS = {
    "parse": ("parse and echo an ordered forest", cmd_parse, _forest_args),
    "canon": ("canonical non-planar form of a forest", cmd_canon, _forest_args),
    "enumerate": ("enumerate trees of a given size", cmd_enumerate, _enumerate_args),
    "graft": ("grafting products", cmd_graft, _graft_args),
    "product": ("concatenation, shuffle or GL product", cmd_product, _product_args),
    "coproduct": ("coproducts on forests", cmd_coproduct, _coproduct_args),
    "operad": ("vertex-replacement composition", cmd_operad, _operad_args),
    "substitute": (
        "substitution product of characters",
        cmd_series_product,
        _series_args(substitute_lb, ("alpha", "beta")),
    ),
    "compose": (
        "composition product of characters",
        cmd_series_product,
        _series_args(compose_lb, ("beta", "alpha")),
    ),
    "bseries": ("evaluate or verify tree-indexed series", cmd_bseries, _bseries_args),
    "verify": ("run a registered verification law", cmd_verify, _verify_args),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, built once per process and ``command``: with a
    command name it holds that command's subparser alone, else every one.
    A parser holds no mutable default, so every call parses into a fresh
    namespace."""
    parser = argparse.ArgumentParser(
        prog="lbseries",
        description="Exact computer algebra for series over rooted trees and forests.",
    )
    # one command's parser still lists every command in its usage line (the
    # full parser derives the same list from its choices)
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        help_text, func, add_arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
    return parser


def run(argv=None) -> int:
    """Run one command.  Its handler runs with the cyclic garbage collector
    paused, as the products make no reference cycles and a collection would
    only rescan the tables they keep; the collector's state is restored
    after, whatever the outcome."""
    if argv is None:
        argv = sys.argv[1:]
    # a command named first needs only its own subparser
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        if args.command == "verify" and getattr(args, "list", False):
            for name in law_names():
                print(name)
            return 0
        if args.command == "verify" and not args.all and not args.law:
            raise CliError("verify needs a law name, --all or --list")
        if args.command == "bseries" and args.action == "verify" and not args.beta:
            raise CliError("bseries verify needs --beta")
        return args.func(args)
    except (CliError, ForestParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
