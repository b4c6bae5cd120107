import json
from fractions import Fraction

import pytest

from lbseries import CharacterMap, parse_forest
from lbseries.cli import run, verify_registry

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
    assert verify_registry() == EXPECTED_LAWS


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
    ],
)
def test_inexact_or_malformed_json_is_an_input_error(tmp_path, capsys, kind, doc):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    good.write_text(json.dumps(CHARACTER))
    if kind == "character":
        argv = ["compose", "--alpha", str(bad), "--beta", str(good)]
    else:
        argv = ["bseries", "eval", "--field", str(bad), "--alpha", str(good), "--order", "1"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {kind} file")
