"""Command-line interface.

Subcommands: parse, canon, enumerate, graft, product, coproduct, operad,
substitute, compose, bseries, verify.  Output is deterministic text by
default; ``--format json`` emits machine-readable structures.  Exit codes:
0 success, 1 usage or input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from .coeffalg import CharacterMap, LinComb, format_basis, format_lincomb
from .laws import REGISTRY, law_names, run_law
from .postlie import LiePoly, delta_n, delta_shuffle, gl_product, left_graft, shuffle
from .prelie import delta_ck, delta_h, graft_comb
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
    _emit(args, _comb_payload(result), format_lincomb(result))
    return 0


def cmd_product(args) -> int:
    f1 = parse_forest(args.left)
    f2 = parse_forest(args.right)
    if args.op == "concat":
        result = LinComb.of(f1.concat(f2))
    elif args.op == "shuffle":
        result = shuffle(f1, f2)
    elif args.op == "gl":
        result = gl_product(f1, f2)
    else:
        raise CliError(f"unknown product {args.op!r}")
    _emit(args, _comb_payload(result), format_lincomb(result))
    return 0


def cmd_coproduct(args) -> int:
    if args.op in ("ck", "h"):
        forest = parse_nonplanar_forest(args.input)
        result = delta_ck(forest) if args.op == "ck" else delta_h(forest)
    elif args.op == "n":
        result = delta_n(parse_forest(args.input))
    elif args.op == "shuffle":
        result = delta_shuffle(parse_forest(args.input))
    elif args.op == "w":
        result = delta_w(parse_forest(args.input))
    else:
        raise CliError(f"unknown coproduct {args.op!r}")
    _emit(args, _comb_payload(result), format_lincomb(result))
    return 0


def cmd_operad(args) -> int:
    inputs = [chunk for chunk in args.inputs.split(";") if chunk.strip()]
    if args.mode == "prelie":
        from .prelie import compose_prelie_operad

        base = canonicalize(parse_tree(args.base))
        trees = [canonicalize(parse_tree(c)) for c in inputs]
        assignment = (
            [int(x) for x in args.assign.split(",")] if args.assign else None
        )
        result = compose_prelie_operad(trees, base, assignment)
        _emit(args, _comb_payload(result), format_lincomb(result))
    else:
        expr = _parse_bracket(args.base, itertools.count())
        polys = [_lie_poly(c) for c in inputs]
        assignment = (
            [int(x) for x in args.assign.split(",")] if args.assign else None
        )
        result = compose_postlie_operad(polys, expr, assignment)
        _emit(
            args,
            _comb_payload(result.expansion),
            format_lincomb(result.expansion),
        )
    return 0


def cmd_substitute(args) -> int:
    alpha = _load_character(args.alpha, planar=True)
    beta = _load_character(args.beta, planar=True)
    if args.order is not None:
        alpha = _truncate(alpha, args.order)
        beta = _truncate(beta, args.order)
    result = substitute_lb(alpha, beta)
    _emit(args, result.to_json(), _character_text(result))
    return 0


def cmd_compose(args) -> int:
    beta = _load_character(args.beta, planar=True)
    alpha = _load_character(args.alpha, planar=True)
    if args.order is not None:
        alpha = _truncate(alpha, args.order)
        beta = _truncate(beta, args.order)
    result = compose_lb(beta, alpha)
    _emit(args, result.to_json(), _character_text(result))
    return 0


def _truncate(char: CharacterMap, order: int) -> CharacterMap:
    values = [(b, c) for b, c in char.values.items() if b.vertex_count <= order]
    return CharacterMap(order, char.empty_value, values)


def _character_text(char: CharacterMap) -> str:
    lines = [f"order {char.order}", f"1 -> {char.empty_value}"]
    for basis, c in sorted(
        char.values.items(), key=lambda kv: (kv[0].vertex_count, kv[0].serialize())
    ):
        lines.append(f"{basis.serialize()} -> {c}")
    return "\n".join(lines)


def cmd_bseries(args) -> int:
    from .numericdemo import PolyVectorField, bseries_eval, verify_bseries_substitution

    if args.order is not None and args.order < 1:
        raise CliError("--order must be at least 1")
    field = _read("field", args.field, PolyVectorField.load)
    y0 = [Fraction(x) for x in args.y0.split(",")]
    if args.action == "eval":
        alpha = _load_character(args.alpha, planar=False)
        h = Fraction(args.step) if args.step is not None else None
        result = bseries_eval(h, field, alpha, y0, args.order or alpha.order)
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
    ok = verify_bseries_substitution(alpha, beta, field, y0, order)
    _emit(args, {"passed": ok}, "PASS" if ok else "FAIL")
    return 0 if ok else 2


def cmd_verify(args) -> int:
    names = law_names() if args.all else [args.law]
    if not args.all and args.law not in REGISTRY:
        raise CliError(
            f"unknown law {args.law!r}; known: {', '.join(law_names())}"
        )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lbseries",
        description="Exact computer algebra for series over rooted trees and forests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("parse", help="parse and echo an ordered forest")
    p.add_argument("input")
    add_format(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("canon", help="canonical non-planar form of a forest")
    p.add_argument("input")
    add_format(p)
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("enumerate", help="enumerate trees of a given size")
    p.add_argument("--order", "-n", type=int, required=True)
    p.add_argument("--mode", choices=("planar", "nonplanar"), default="planar")
    add_format(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("graft", help="grafting products")
    p.add_argument("--mode", choices=("prelie", "postlie"), default="prelie")
    p.add_argument("left")
    p.add_argument("right")
    add_format(p)
    p.set_defaults(func=cmd_graft)

    p = sub.add_parser("product", help="concatenation, shuffle or GL product")
    p.add_argument("--op", choices=("concat", "shuffle", "gl"), required=True)
    p.add_argument("left")
    p.add_argument("right")
    add_format(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("coproduct", help="coproducts on forests")
    p.add_argument("--op", choices=("ck", "h", "n", "shuffle", "w"), required=True)
    p.add_argument("input")
    add_format(p)
    p.set_defaults(func=cmd_coproduct)

    p = sub.add_parser("operad", help="vertex-replacement composition")
    p.add_argument("--mode", choices=("prelie", "postlie"), default="prelie")
    p.add_argument("--base", required=True)
    p.add_argument("--inputs", required=True, help="inputs separated by ';'")
    p.add_argument("--assign", help="comma-separated input index per vertex")
    add_format(p)
    p.set_defaults(func=cmd_operad)

    p = sub.add_parser("substitute", help="substitution product of characters")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--order", type=int)
    add_format(p)
    p.set_defaults(func=cmd_substitute)

    p = sub.add_parser("compose", help="composition product of characters")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--order", type=int)
    add_format(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("bseries", help="evaluate or verify tree-indexed series")
    p.add_argument("action", choices=("eval", "verify"))
    p.add_argument("--field", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta")
    p.add_argument("--order", type=int)
    p.add_argument("--y0", default="1")
    p.add_argument("--step", help="rational step; omit to keep it formal")
    add_format(p)
    p.set_defaults(func=cmd_bseries)

    p = sub.add_parser("verify", help="run a registered verification law")
    p.add_argument("law", nargs="?", help="law name; see --list")
    p.add_argument("--all", action="store_true")
    p.add_argument("--list", action="store_true")
    p.add_argument("--order", "-n", type=int)
    p.add_argument("--guard", type=int)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        if args.command == "verify" and getattr(args, "list", False):
            for name in law_names():
                print(name)
            return 0
        if args.command == "verify" and not args.all and not args.law:
            print("verify needs a law name, --all or --list", file=sys.stderr)
            return 1
        if args.command == "bseries" and args.action == "verify" and not args.beta:
            print("bseries verify needs --beta", file=sys.stderr)
            return 1
        return args.func(args)
    except (CliError, ForestParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 1


def verify_registry() -> list[str]:
    """Stable list of the registered verification laws."""
    return law_names()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
