import gc
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import lbseries
from lbseries import CharacterMap, parse_forest
from lbseries import cli
from lbseries.cli import BSERIES_MAX_ORDER, BSERIES_VERIFY_MAX_ORDER, COMMANDS, MAX_ORDER, build_parser, run
from lbseries.laws import REGISTRY, check_law_order, law_names

pf = parse_forest

EXPECTED_LAWS = [
    "prelie-identity",
    "postlie-jacobi",
    "dalgebra-axioms",
    "ck-coassoc",
    "h-coassoc",
    "n-coassoc",
    "w-coassoc",
    "shuffle-bialgebra",
    "gl-duality",
    "h-operad-duality",
    "operad-assoc",
    "cointeraction",
    "pi-morphism",
    "grading",
    "adjoint",
    "substitution-theorem",
    "bseries-substitution",
    "automorphism",
]


def test_registry_is_stable():
    assert law_names() == EXPECTED_LAWS


def test_parse_and_canon(capsys):
    assert run(["parse", "[[][[]]]"]) == 0
    assert capsys.readouterr().out.strip() == "[[][[]]]"
    assert run(["canon", "[[][[]]]"]) == 0
    first = capsys.readouterr().out.strip()
    assert run(["canon", "[[[]][]]"]) == 0
    second = capsys.readouterr().out.strip()
    assert first == second


def test_parse_error_exit_code(capsys):
    assert run(["parse", "[[x]]"]) == 1
    assert "position" in capsys.readouterr().err


def test_enumerate(capsys):
    assert run(["enumerate", "-n", "4", "--mode", "nonplanar", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 4


def test_coproduct_h_worked_example(capsys):
    assert run(["coproduct", "--op", "h", "[[[]]]"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1 * [[[]]] (x) [] + 2 * [] [[]] (x) [[]] + 1 * [] [] [] (x) [[[]]]"


def test_product_gl_worked_example(capsys):
    assert run(["product", "--op", "gl", "[[][]]", "[] [[]]", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    words = {term["word"] for term in payload["terms"]}
    assert words == {
        "[[][]] [] [[]]",
        "[[[][]]] [[]]",
        "[] [[][[][]]]",
        "[] [[[[][]]]]",
    }
    assert all(term["coeff"] == "1" for term in payload["terms"])


def test_coproduct_w_json_round_trips(capsys):
    assert run(["coproduct", "--op", "w", "[[[]][]]", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    legs = {(term["left"], term["right"]): Fraction(term["coeff"]) for term in payload["terms"]}
    assert legs[("[] & [] & [[]]", "[[][]]")] == 3
    for left, right in legs:
        for part in left.split(" & "):
            if part != "1":
                parse_forest(part)
        parse_forest(right if right != "1" else "")


def test_graft_modes(capsys):
    assert run(["graft", "--mode", "prelie", "[[][]]", "[[]]"]) == 0
    out = capsys.readouterr().out
    assert "[[][[][]]]" in out and "[[[[][]]]]" in out
    assert run(["graft", "--mode", "postlie", "[[]]", "[[]]"]) == 0
    out = capsys.readouterr().out
    assert "[[][[]]]" in out and "[[[[]]]]" in out


def test_operad_prelie(capsys):
    assert (
        run(
            [
                "operad",
                "--mode",
                "prelie",
                "--base",
                "[[]]",
                "--inputs",
                "[];[]",
            ]
        )
        == 0
    )
    assert capsys.readouterr().out.strip() == "1 * [[]]"


def test_operad_postlie_bracket(capsys):
    assert (
        run(
            [
                "operad",
                "--mode",
                "postlie",
                "--base",
                "{[], [[]]}",
                "--inputs",
                "[];[];[]",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out.strip()
    assert "[] [[]]" in out and "[[]] []" in out


def test_operad_postlie_reads_asymmetric_trees_planar(capsys):
    """A tree as the only input of a single vertex comes back unchanged."""
    for tree in ("[[][[]]]", "[[[]][]]", "[[][[]][[][]]]"):
        argv = ["operad", "--mode", "postlie", "--base", "[]", "--inputs", tree]
        assert run(argv) == 0
        assert capsys.readouterr().out == f"1 * {tree}\n"


def test_substitute_and_compose_files(tmp_path, capsys):
    alpha = CharacterMap(2, 0, [(pf("[]"), 1), (pf("[[]]"), Fraction(1, 2))])
    beta = CharacterMap(2, 1, [(pf("[]"), 1), (pf("[[]]"), Fraction(1, 3))])
    alpha_path = tmp_path / "alpha.json"
    beta_path = tmp_path / "beta.json"
    alpha_path.write_text(json.dumps(alpha.to_json()))
    beta_path.write_text(json.dumps(beta.to_json()))
    assert (
        run(
            [
                "substitute",
                "--alpha",
                str(alpha_path),
                "--beta",
                str(beta_path),
                "--format",
                "json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    loaded = CharacterMap.from_json(payload, planar=True)
    # (alpha *_W beta)([[]] ) = alpha([[]]) beta(.) + beta([[]])
    assert loaded(pf("[[]]")) == Fraction(1, 2) * 1 + Fraction(1, 3)
    assert (
        run(["compose", "--alpha", str(alpha_path), "--beta", str(beta_path)]) == 0
    )
    out = capsys.readouterr().out
    assert "order 2" in out


@pytest.mark.parametrize("command", ["substitute", "compose"])
def test_a_series_product_is_rendered_in_the_format_asked_for_only(
    tmp_path, capsys, monkeypatch, command
):
    alpha, beta = tmp_path / "alpha.json", tmp_path / "beta.json"
    alpha.write_text(json.dumps(CharacterMap(2, 0, [(pf("[]"), 1), (pf("[[]]"), 2)]).to_json()))
    beta.write_text(json.dumps(CharacterMap(2, 1, [(pf("[]"), 3)]).to_json()))
    rendered = []

    def spy(name, render):
        def wrapped(*args):
            rendered.append(name)
            return render(*args)

        return wrapped

    monkeypatch.setattr(lbseries.cli, "_character_text", spy("text", lbseries.cli._character_text))
    monkeypatch.setattr(CharacterMap, "to_json", spy("json", CharacterMap.to_json))
    for fmt in ("text", "json"):
        assert run([command, "--alpha", str(alpha), "--beta", str(beta), "--format", fmt]) == 0
    assert rendered == ["text", "json"]
    out = capsys.readouterr().out
    assert out.startswith("order 2\n")
    assert json.loads(out.splitlines()[-1])["order"] == 2


def test_runs_in_one_process_match_separate_processes(tmp_path, capsys):
    """The parser is built once per process, so substitute, compose, a bad
    input file and a usage error, run one after another in one process,
    print and exit as each does in a process of its own."""
    alpha = CharacterMap(3, 0, [(pf("[]"), 1), (pf("[[]]"), Fraction(1, 2)), (pf("[[][]]"), -2)])
    beta = CharacterMap(3, Fraction(3, 2), [(pf("[]"), 1), (pf("[[]] []"), Fraction(-1, 3))])
    alpha_path, beta_path, bad_path = (tmp_path / name for name in ("alpha", "beta", "bad"))
    alpha_path.write_text(json.dumps(alpha.to_json()))
    beta_path.write_text(json.dumps(beta.to_json()))
    bad_path.write_text("{")
    operands = ["--alpha", str(alpha_path), "--beta", str(beta_path)]
    argvs = [
        ["substitute", *operands, "--format", "json"],
        ["compose", *operands],
        ["compose", "--alpha", str(bad_path), "--beta", str(beta_path)],
        ["compose", "--alpha", str(alpha_path)],
    ]
    in_process = []
    for argv in argvs:
        code = run(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lbseries.__file__)))
    separate = []
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "lbseries.cli", *argv], capture_output=True, text=True, env=env
        )
        separate.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == separate
    assert [code for code, _, _ in in_process] == [0, 0, 1, 1]


@pytest.mark.parametrize("order", ["-1", "0"])
@pytest.mark.parametrize("command", ["substitute", "compose"])
def test_series_product_order_below_one_is_an_input_error(tmp_path, capsys, command, order):
    path = tmp_path / "char.json"
    path.write_text(json.dumps(CharacterMap(2, 0, [(pf("[]"), 1)]).to_json()))
    argv = [command, "--alpha", str(path), "--beta", str(path), "--order", order]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --order must be at least 1\n"


def test_compose_of_unequal_orders_truncates_to_the_smaller(tmp_path, capsys):
    """Without ``--order`` compose, like substitute, multiplies up to the
    lower of the two orders."""
    beta, alpha = tmp_path / "beta.json", tmp_path / "alpha.json"
    beta.write_text(json.dumps(CharacterMap(9, 1, [(pf("[]"), 1), (pf("[[]]"), 2)]).to_json()))
    alpha.write_text(json.dumps(CharacterMap(8, 1, [(pf("[]"), 2)]).to_json()))
    assert run(["compose", "--beta", str(beta), "--alpha", str(alpha)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("order 8\n1 -> 1\n[] -> 3\n")


@pytest.mark.parametrize("command", ["substitute", "compose"])
def test_series_product_order_above_the_characters_is_an_input_error(tmp_path, capsys, command):
    """Coefficients past a character's truncation are not given, so the
    product cannot be truncated above the lower of the two orders."""
    alpha, beta = tmp_path / "alpha.json", tmp_path / "beta.json"
    alpha.write_text(json.dumps(CharacterMap(2, 0, [(pf("[]"), 1)]).to_json()))
    beta.write_text(json.dumps(CharacterMap(3, 1, [(pf("[]"), 1)]).to_json()))
    argv = [command, "--alpha", str(alpha), "--beta", str(beta), "--order", "3"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: order 3 is above the characters' orders 2 and 3\n"
    assert run(argv[:-1] + ["2"]) == 0
    assert capsys.readouterr().out.startswith("order 2\n")


def _order_40_files(tmp_path):
    """An alpha and a beta file of order 40 with values on small forests
    only, cheap to read but not to multiply at their order."""
    alpha, beta = tmp_path / "alpha.json", tmp_path / "beta.json"
    alpha.write_text(json.dumps(CharacterMap(40, 0, [(pf("[]"), 1), (pf("[[]]"), 2)]).to_json()))
    beta.write_text(json.dumps(CharacterMap(40, 1, [(pf("[]"), 3), (pf("[] []"), 4)]).to_json()))
    return str(alpha), str(beta)


@pytest.mark.parametrize("command", ["substitute", "compose"])
def test_series_product_above_the_largest_order_is_refused(tmp_path, capsys, command):
    """A product at an order past ``MAX_ORDER`` would run until killed; it
    is refused before anything is built, whether the order comes from the
    files alone or from an ``--order`` within them."""
    alpha, beta = _order_40_files(tmp_path)
    for extra in ([], ["--order", "13"]):
        assert run([command, "--alpha", alpha, "--beta", beta, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        order = extra[-1] if extra else "40"
        assert captured.err == f"error: order {order} is above the largest order {MAX_ORDER}\n"


@pytest.mark.parametrize("command", ["substitute", "compose"])
def test_series_product_of_high_order_files_at_a_lowered_order(tmp_path, capsys, command):
    """``--order`` at or below ``MAX_ORDER`` lowers the order-40 files to a
    product that is computed, the same as with the files truncated."""
    alpha, beta = _order_40_files(tmp_path)
    assert run([command, "--alpha", alpha, "--beta", beta, "--order", "3", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    alpha, beta = (CharacterMap.load(path).truncated(3) for path in (alpha, beta))
    if command == "substitute":
        expected = lbseries.substitute_lb(alpha, beta)
    else:
        expected = lbseries.compose_lb(beta, alpha)
    assert json.loads(captured.out) == expected.to_json()


def test_enumerate_above_the_largest_order_is_refused(capsys):
    assert run(["enumerate", "--order", "40"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: order 40 is above the largest order {MAX_ORDER}\n"
    assert run(["enumerate", "--order", str(MAX_ORDER), "--mode", "nonplanar", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 4766


def test_bseries_eval_above_its_largest_order_is_refused(tmp_path, golden_files, capsys):
    """An order-40 character with two values would enumerate every tree up
    to 40 vertices; it is refused before anything is built, unless
    ``--order`` lowers it."""
    path = tmp_path / "alpha40.json"
    path.write_text(json.dumps({"order": 40, "empty": "1", "values": {"[]": "1", "[[]]": "2"}}))
    argv = ["bseries", "eval", "--field", golden_files["field"], "--alpha", str(path)]
    argv += ["--y0", "1,-2", "--step", "1/10"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: order 40 is above the largest order {BSERIES_MAX_ORDER}\n"
    assert run(argv + ["--order", "3"]) == 0
    assert capsys.readouterr().out == "881/1000, -8701/4500\n"


def test_bseries_verify_above_its_largest_order_is_refused(tmp_path, golden_files, capsys):
    """Order-40 characters would be checked on every tree up to 40
    vertices; they are refused before anything is built, as is an
    ``--order`` above the largest one, unless ``--order`` lowers it."""
    paths = []
    for name in ("alpha", "beta"):
        path = tmp_path / f"{name}40.json"
        empty = "0" if name == "alpha" else "1"
        path.write_text(json.dumps({"order": 40, "empty": empty, "values": {"[]": "1", "[[]]": "2"}}))
        paths.append(str(path))
    argv = ["bseries", "verify", "--field", golden_files["field"], "--alpha", paths[0]]
    argv += ["--beta", paths[1], "--y0", "1,-2"]
    too_high = BSERIES_VERIFY_MAX_ORDER + 1
    for extra, order in (([], 40), (["--order", str(too_high)], too_high)):
        assert run(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: order {order} is above the largest order {BSERIES_VERIFY_MAX_ORDER}\n"
        )
    assert run(argv + ["--order", "3"]) == 0
    assert capsys.readouterr().out == "PASS\n"


def test_verify_above_a_laws_largest_order_is_refused(capsys):
    """A law past its largest order would run until killed; it is refused
    before any law runs, also within ``--all``."""
    assert run(["verify", "n-coassoc", "--order", "40"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: order 40 is above the largest order 9 of n-coassoc\n"
    assert run(["verify", "--all", "--order", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: order 5 is above the largest order 4 of dalgebra-axioms\n"


def test_every_law_runs_up_to_its_largest_order():
    for name, (_, default, largest) in REGISTRY.items():
        assert default <= largest
        check_law_order(name, largest)
        with pytest.raises(ValueError, match=f"largest order {largest} of {name}"):
            check_law_order(name, largest + 1)


def test_run_restores_the_collectors_state(tmp_path, monkeypatch, capsys):
    """A command runs with the cyclic collector paused and leaves it as it
    found it: on after a product or an ``error:`` exit when it was on, and
    still off when it was off."""
    seen = []
    parse = cli.parse_forest

    def spy(text):
        seen.append(gc.isenabled())
        return parse(text)

    monkeypatch.setattr(cli, "parse_forest", spy)
    alpha, beta = _order_40_files(tmp_path)
    product = ["substitute", "--alpha", alpha, "--beta", beta]
    assert gc.isenabled()
    assert run(["parse", "[] [[]]"]) == 0
    assert seen == [False]
    assert gc.isenabled()
    assert run(product + ["--order", "3"]) == 0
    assert gc.isenabled()
    assert run(product) == 1
    assert gc.isenabled()
    assert capsys.readouterr().err == f"error: order 40 is above the largest order {MAX_ORDER}\n"
    gc.disable()
    try:
        assert run(product + ["--order", "3"]) == 0
        assert not gc.isenabled()
        assert run(["parse", "]"]) == 1
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_bseries_eval_and_verify(tmp_path, capsys):
    field = {
        "dim": 1,
        "components": [{"monomials": [{"coeff": "1", "powers": [2], "hpower": 0}]}],
    }
    field_path = tmp_path / "field.json"
    field_path.write_text(json.dumps(field))
    alpha = {"order": 2, "empty": "0", "values": {"[]": "1"}}
    beta = {"order": 2, "empty": "1", "values": {"[]": "1", "[[]]": "1/2"}}
    alpha_path = tmp_path / "alpha.json"
    beta_path = tmp_path / "beta.json"
    alpha_path.write_text(json.dumps(alpha))
    beta_path.write_text(json.dumps(beta))
    assert (
        run(
            [
                "bseries",
                "eval",
                "--field",
                str(field_path),
                "--alpha",
                str(beta_path),
                "--y0",
                "1",
                "--order",
                "2",
                "--step",
                "1/2",
            ]
        )
        == 0
    )
    value = capsys.readouterr().out.strip()
    # 1 + h + h^2/2 * f'f = 1 + 1/2 + (1/4)(1/2)(2) = 1 + 1/2 + 1/4
    assert Fraction(value) == Fraction(7, 4)
    assert (
        run(
            [
                "bseries",
                "verify",
                "--field",
                str(field_path),
                "--alpha",
                str(alpha_path),
                "--beta",
                str(beta_path),
                "--y0",
                "1",
                "--order",
                "2",
            ]
        )
        == 0
    )
    assert capsys.readouterr().out.strip() == "PASS"


# (y1 y2 + h y2/2, -y1 + y2^2/3): a 2-D field with an h-dependent monomial
GOLDEN_FIELD = {
    "dim": 2,
    "components": [
        {
            "monomials": [
                {"coeff": "1", "powers": [1, 1]},
                {"coeff": "1/2", "powers": [0, 1], "hpower": 1},
            ]
        },
        {"monomials": [{"coeff": "-1", "powers": [1, 0]}, {"coeff": "1/3", "powers": [0, 2]}]},
    ],
}
GOLDEN_BETA = {
    "order": 4,
    "empty": "1",
    "values": {
        "[]": "1",
        "[[]]": "1/2",
        "[[][]]": "1/3",
        "[[[]]]": "1/6",
        "[[[][]]]": "-1/5",
        "[[[[]]]]": "1/24",
        "[[][][]]": "3/7",
        "[[[]][]]": "1/9",
    },
}
GOLDEN_ALPHA = {
    "order": 4,
    "empty": "0",
    "values": {
        "[]": "1",
        "[[]]": "-1/2",
        "[[][]]": "2/3",
        "[[[]]]": "1/4",
        "[[[][]]]": "1/5",
        "[[[[]]]]": "-1/6",
        "[[][][]]": "1/7",
        "[[[]][]]": "-2/9",
    },
}
GOLDEN_FORMAL = [
    ["1", "-2", "7/6", "-35/108", "-2173/3240", "-1409/3240", "-65/288"],
    ["-2", "1/3", "7/9", "-5/9", "-47/2916", "839/3240", "-1/48"],
]


@pytest.fixture
def golden_files(tmp_path):
    paths = {}
    for name, doc in (("field", GOLDEN_FIELD), ("alpha", GOLDEN_ALPHA), ("beta", GOLDEN_BETA)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return {name: str(path) for name, path in paths.items()}


def test_bseries_golden_output(golden_files, capsys):
    """Pinned text and JSON output of `bseries eval`/`verify` on a 2-D field
    with an h-dependent term."""
    files = golden_files
    evaluate = ["bseries", "eval", "--field", files["field"], "--alpha", files["beta"]]
    formal = evaluate + ["--y0", "1,-2"]
    assert run(formal) == 0
    text = "\n".join(
        " + ".join(f"{v} h^{k}" for k, v in enumerate(comp)) for comp in GOLDEN_FORMAL
    )
    assert capsys.readouterr().out == text + "\n"
    assert run(formal + ["--format", "json"]) == 0
    payload = [{str(k): v for k, v in enumerate(comp)} for comp in GOLDEN_FORMAL]
    assert capsys.readouterr().out == json.dumps({"value": payload}) + "\n"
    stepped = evaluate + ["--y0", "1/2,3", "--step", "1/3"]
    assert run(stepped) == 0
    assert capsys.readouterr().out == "10735/5832, 7795/1944\n"
    assert run(stepped + ["--format", "json"]) == 0
    assert capsys.readouterr().out == '{"value": ["10735/5832", "7795/1944"]}\n'
    verify = ["bseries", "verify", "--field", files["field"]]
    verify += ["--alpha", files["alpha"], "--beta", files["beta"]]
    assert run(verify + ["--y0", "1,-2"]) == 0
    assert capsys.readouterr().out == "PASS\n"
    assert run(verify + ["--y0", "1/2,3", "--format", "json"]) == 0
    assert capsys.readouterr().out == '{"passed": true}\n'


def test_bseries_verify_above_the_characters_order_is_an_input_error(golden_files, capsys):
    files = golden_files
    argv = ["bseries", "verify", "--field", files["field"], "--alpha", files["alpha"]]
    argv += ["--beta", files["beta"], "--y0", "1,-2", "--order", "5"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: order 5 is above the characters' orders")


@pytest.mark.parametrize(
    "order", [[], ["--order", "3"], ["--order", "2"]], ids=["default", "order-3", "order-2"]
)
def test_bseries_verify_with_characters_of_different_orders(golden_files, tmp_path, capsys, order):
    """An order-3 alpha against the order-4 beta is checked up to order 3,
    or to a lower ``--order``."""
    alpha = dict(GOLDEN_ALPHA, order=3)
    alpha["values"] = {k: v for k, v in GOLDEN_ALPHA["values"].items() if k.count("[") <= 3}
    path = tmp_path / "alpha3.json"
    path.write_text(json.dumps(alpha))
    argv = ["bseries", "verify", "--field", golden_files["field"], "--alpha", str(path)]
    argv += ["--beta", golden_files["beta"], "--y0", "1,-2"]
    assert run(argv + order) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("PASS\n", "")


@pytest.mark.parametrize("flag", ["--y0", "--step"])
def test_zero_denominator_on_the_command_line_is_an_input_error(golden_files, capsys, flag):
    argv = ["bseries", "eval", "--field", golden_files["field"], "--alpha", golden_files["beta"]]
    assert run(argv + [flag, "1/0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not an exact rational: '1/0'\n"


@pytest.mark.parametrize("order", ["-1", "0"])
@pytest.mark.parametrize("action", ["eval", "verify"])
def test_bseries_order_below_one_is_an_input_error(golden_files, capsys, action, order):
    files = golden_files
    argv = ["bseries", action, "--field", files["field"], "--alpha", files["alpha"]]
    argv += ["--beta", files["beta"], "--y0", "1,-2", "--order", order]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --order must be at least 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "[" * 3000 + "]" * 3000],
        ["operad", "--mode", "postlie", "--base", "{[], " * 3000 + "[]" + "}" * 3000, "--inputs", "[]"],
    ],
    ids=["parse", "operad-base"],
)
def test_deeply_nested_input_is_an_input_error(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input is nested too deeply\n"


# sha256 of the output printed before grafting became the closed sum over
# vertex assignments: by the associator recursion (planar) and by the
# single-vertex generator that is now ``graft_oracle._graftings`` (pre-Lie)
DEEP_CHAIN_OUTPUTS = {
    "graft": "86e19543c3099457cf00f223d8e6abda64a47456cb74fbbe4253919cfba31d2e",
    "gl": "be4146af52a119d88f6e6aacb4533370da13bb1c2c70870d4b68fc6e89b337be",
    "prelie": "5c37e2414fa23bfcdc9d8ef0372c085e2d6caaac8f9026bae034b27a552e35d1",
}


@pytest.mark.parametrize(
    "name, argv, depth",
    [
        ("graft", ["graft", "--mode", "postlie"], 499),
        ("gl", ["product", "--op", "gl"], 498),
        ("prelie", ["graft", "--mode", "prelie"], 499),
    ],
    ids=["graft", "gl", "prelie"],
)
def test_grafting_a_vertex_onto_a_deep_chain(capsys, name, argv, depth):
    """One frame per tree level: a vertex grafts onto a chain hundreds of
    vertices deep (``gl`` adds a root above it) without running out of
    nesting depth."""
    chain = "[" * depth + "]" * depth
    assert run(argv + ["[]", chain]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == DEEP_CHAIN_OUTPUTS[name]


def test_verify_reports_documented_defect(capsys):
    assert run(["verify", "pi-morphism", "--order", "3"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "[[][]]" in out


def test_verify_list(capsys):
    assert run(["verify", "--list"]) == 0
    assert capsys.readouterr().out.split() == EXPECTED_LAWS


def test_verify_json_format(capsys):
    assert run(["verify", "gl-duality", "--order", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["law"] == "gl-duality" and payload[0]["passed"]


def test_unknown_law_is_usage_error(capsys):
    assert run(["verify", "no-such-law"]) == 1
    assert "unknown law" in capsys.readouterr().err


def test_verify_all_json_golden_at_order_3(capsys):
    """All 18 records, in registry order, with the two documented
    counterexamples."""
    counterexamples = {"w-coassoc": "coassociativity at [[]] []", "pi-morphism": "[[][]]"}
    expected = [
        {
            "counterexample": counterexamples.get(name),
            "law": name,
            "order": 3,
            "passed": name not in counterexamples,
        }
        for name in EXPECTED_LAWS
    ]
    assert run(["verify", "--all", "--order", "3", "--format", "json"]) == 2
    assert capsys.readouterr().out == json.dumps(expected, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", ["-1", "0"])
@pytest.mark.parametrize("flag", ["--order", "--guard"])
@pytest.mark.parametrize("target", [["--all"], ["cointeraction"]], ids=["all", "one"])
def test_verify_order_or_guard_below_one_is_an_input_error(capsys, target, flag, value):
    assert run(["verify", *target, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be at least 1\n"


def test_verify_without_a_target_is_a_usage_error(capsys):
    assert run(["verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: verify needs a law name, --all or --list\n"


def test_bseries_verify_without_beta_is_a_usage_error(golden_files, capsys):
    argv = ["bseries", "verify", "--field", golden_files["field"], "--alpha", golden_files["alpha"]]
    assert run(argv + ["--y0", "1,-2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bseries verify needs --beta\n"


def test_verify_guard_needs_a_law_that_reads_it(capsys):
    assert run(["verify", "ck-coassoc", "--order", "3", "--guard", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --guard is read only by cointeraction\n"
    assert run(["verify", "cointeraction", "--order", "3", "--guard", "4"]) == 0
    assert capsys.readouterr().out == "PASS cointeraction (order 3)\n"


def test_deterministic_output(capsys):
    run(["coproduct", "--op", "n", "[[][]] [[]]"])
    first = capsys.readouterr().out
    run(["coproduct", "--op", "n", "[[][]] [[]]"])
    assert capsys.readouterr().out == first


def test_operad_postlie_nested_bracket(capsys):
    # the inner bracket {[], []} is zero; the base still has four vertices
    argv = ["operad", "--mode", "postlie", "--base", "{{[], []}, [[]]}"]
    assert run(argv + ["--inputs", "[];[[]];[];[]"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1 * [[]] [[]] [] - 2 * [[]] [] [[]] + 1 * [] [[]] [[]]"


def test_operad_postlie_bracket_errors(capsys):
    for base, message in (("{[], [[]]", "unbalanced braces"), ("{[] [[]]}", "expected a comma")):
        argv = ["operad", "--mode", "postlie", "--base", base, "--inputs", "[];[];[]"]
        assert run(argv) == 1
        assert message in capsys.readouterr().err


MONOMIALS = [{"monomials": [{"coeff": "1", "powers": [2], "hpower": 0}]}]
CHARACTER = {"order": 1, "empty": "1", "values": {"[]": "1/2"}}


@pytest.mark.parametrize(
    "kind, doc",
    [
        ("character", {**CHARACTER, "values": {"[]": 0.1}}),
        ("character", {**CHARACTER, "empty": 0.5}),
        ("character", {**CHARACTER, "values": [["[]", "1/2"]]}),
        ("field", {"dim": 1, "components": [{"monomials": [{"coeff": 0.5, "powers": [2]}]}]}),
        ("field", {"components": MONOMIALS}),
        ("character", {**CHARACTER, "order": 1.5}),
        ("character", {**CHARACTER, "values": {"[]": True}}),
        ("field", {"dim": "1", "components": MONOMIALS}),
        ("field", {"dim": 1, "components": [[]]}),
        ("field", {"dim": 1, "components": [{"monomials": [{"coeff": "1", "powers": [0.5]}]}]}),
        ("field", {"dim": 1, "components": [{"monomials": [{"coeff": "1", "powers": ["2"]}]}]}),
        ("field", {"dim": 1, "components": [{"monomials": [{"coeff": "1", "hpower": "1"}]}]}),
        ("field", {"dim": 1, "components": [{"monomials": [{"coeff": "1", "powers": [-1]}]}]}),
        ("field", {"dim": 1, "components": [{"monomials": [{"coeff": "1", "powers": 2}]}]}),
        ("character", {**CHARACTER, "values": {"[]": "1/0"}}),
        ("field", {"dim": 1, "components": [{"monomials": [{"coeff": "1/0", "powers": [2]}]}]}),
        # one forest named twice, or the empty forest beside "empty"
        ("character", {"order": 2, "values": {"[]": "1", " []": "7"}}),
        ("character", {**CHARACTER, "values": {"": "3", "[]": "1/2"}}),
        ("tree character", {"order": 4, "values": {"[[][[]]]": "2", "[[[]][]]": "2"}}),
        ("character", {"order": -1, "empty": "1", "values": {}}),
        # a refused value beside accepted ones
        ("character", {"order": 2, "values": {"[]": "1/2", "[[]]": "0x10", "[] []": "1/2"}}),
        ("character", {"order": 2, "values": {"[]": 1, "[[]]": True}}),
        # a misspelled or missing key is not read as its default
        ("character", {"order": 2, "emtpy": "1", "values": {"[]": "1"}}),
        ("character", {"empty": "1", "values": {"[]": "1"}}),
        ("tree character", {**CHARACTER, "valeus": {}}),
        ("field", {"dim": 1, "components": [{"monomials": [{"coeff": "1", "power": [2]}]}]}),
        ("field", {"dim": 1, "components": [{"monomial": MONOMIALS[0]["monomials"]}]}),
        ("field", {"dim": 1, "components": MONOMIALS, "order": 2}),
        ("field", {"dim": 1}),
        ("field", {"dim": 1, "components": [{"monomials": [{"powers": [2]}]}]}),
    ],
)
def test_inexact_or_malformed_json_is_an_input_error(tmp_path, capsys, kind, doc):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    good.write_text(json.dumps(CHARACTER))
    if kind == "character":
        argv = ["compose", "--alpha", str(bad), "--beta", str(good)]
    elif kind == "field":
        argv = ["bseries", "eval", "--field", str(bad), "--alpha", str(good), "--order", "1"]
    else:
        # bseries reads its character on non-planar forests
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"dim": 1, "components": MONOMIALS}))
        argv = ["bseries", "eval", "--field", str(field), "--alpha", str(bad), "--order", "1"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {kind.split()[-1]} file")


@pytest.mark.parametrize(
    "kind, doc, message",
    [
        ("character", {"values": {"[]": "1"}}, 'a character has no "order"'),
        ("character", {**CHARACTER, "emtpy": "1"}, "unknown key 'emtpy' in a character"),
        (
            "field",
            {"dim": 1, "components": [{"monomials": [{"coeff": "1", "power": [2]}]}]},
            "unknown key 'power' in a monomial",
        ),
        ("field", {"dim": 1}, 'a field has no "components"'),
    ],
)
def test_a_bad_key_is_named(tmp_path, capsys, kind, doc, message):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    good.write_text(json.dumps(CHARACTER))
    if kind == "character":
        argv = ["substitute", "--alpha", str(bad), "--beta", str(good)]
    else:
        argv = ["bseries", "eval", "--field", str(bad), "--alpha", str(good), "--order", "1"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {kind} file {bad}: {message}")


def _parse_outcome(parser, argv, capsys):
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, command):
    for argv in ([command, "--help"], [command], [command, "--format", "xml"], [command, "--zzz"]):
        alone = _parse_outcome(build_parser(command), argv, capsys)
        assert alone == _parse_outcome(build_parser(), argv, capsys), argv
    help_text = _parse_outcome(build_parser(command), [command, "-h"], capsys)[1]
    assert help_text.startswith(f"usage: lbseries {command} [-h]")


def test_a_command_named_first_builds_its_own_parser_alone(tmp_path):
    alpha, beta = tmp_path / "alpha.json", tmp_path / "beta.json"
    alpha.write_text(json.dumps({**CHARACTER, "empty": "0"}))
    beta.write_text(json.dumps(CHARACTER))
    script = f"""
import argparse, contextlib, io
progs = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    init(self, *args, **kwargs)
    progs.append(self.prog)
argparse.ArgumentParser.__init__ = counted
from lbseries.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    assert run(["substitute", "--alpha", {str(alpha)!r}, "--beta", {str(beta)!r}]) == 0
print(progs)
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lbseries.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['lbseries', 'lbseries substitute']\n"


def test_python_dash_m_runs_the_command_line(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lbseries.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "lbseries", "parse", "[[] []]"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[[][]]\n", "")
