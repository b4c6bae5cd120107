"""Tests of the benchmark itself: seeded inputs, unit timing and the checks
that each workload applies to the program's outputs."""

import json
import random
from fractions import Fraction

import lbseries
import lbseries.cli

from perfbench import clock, gen, jobs

CharacterMap = lbseries.coeffalg.CharacterMap


def test_inputs_depend_only_on_the_seed():
    for workload in jobs.WORKLOADS:
        assert jobs.inputs(workload, 3, 0) == jobs.inputs(workload, 3, 0)
        assert jobs.inputs(workload, 3, 0) != jobs.inputs(workload, 4, 0)
    assert jobs.inputs("series-warm", 3, 0) != jobs.inputs("series-warm", 3, 1)


def test_inputs_write_rationals_as_strings():
    def no_float(text):
        raise AssertionError(f"JSON number {text}")

    for workload in jobs.WORKLOADS:
        json.loads(json.dumps(jobs.inputs(workload, 1, 0)), parse_float=no_float)


def test_generated_bases_and_logarithmic_characters():
    counts = jobs.rooted_trees(8)
    for n in range(1, 8):
        assert len(gen.planar_trees(n)) == jobs.catalan(n - 1)
        assert len(gen.ordered_forests(n)) == jobs.catalan(n)
        assert len(gen.nonplanar_trees(n)) == counts[n]
    assert counts[:8] == [0, 1, 1, 2, 4, 9, 20, 48]
    for degree in (3, 4):
        doc = gen.logarithmic_character(random.Random(degree), 4, degree)
        assert lbseries.is_logarithmic(CharacterMap.from_json(doc))


def test_unit_clock_cuts_steps_at_split_calls():
    original = lbseries.postlie.shuffle
    unit_clock = clock.UnitClock()
    unit_clock.split(lbseries.postlie, "shuffle")
    f = lbseries.parse_forest("[] [[]]")
    try:
        assert lbseries.shuffle is not original
        unit_clock.step("s", lambda: lbseries.postlie.shuffle(f, f))
    finally:
        clock.patch(lbseries.postlie, "shuffle", lambda fn: original)
    assert lbseries.shuffle is original
    assert len(unit_clock.units["s"]) == 3
    fastest = clock.Fastest()
    fastest.add({"s": [3.0, 1.0]})
    fastest.add({"s": [2.0, 4.0, 1.0]})
    assert fastest.total() == 2.0 + 1.0 + 1.0


def bump(char):
    """The same character with one value changed."""
    forest, value = max(char.values.items(), key=lambda kv: kv[0].vertex_count)
    values = dict(char.values)
    values[forest] = value + 1
    return CharacterMap(char.order, char.empty_value, values)


def small_series(order=3):
    rng = random.Random(7)
    alpha = CharacterMap.from_json(gen.logarithmic_character(rng, order, order))
    beta = CharacterMap.from_json(gen.character(rng, order))
    gamma = CharacterMap.from_json(gen.character(rng, order))
    return alpha, beta, gamma


def test_series_checks_catch_a_corrupted_result():
    sm = lbseries.seriesmorph
    alpha, beta, gamma = small_series()
    substituted, composed = sm.substitute_lb(alpha, beta), sm.compose_lb(beta, gamma)
    assert jobs.check_series(lbseries, alpha, beta, gamma, substituted, composed) == []
    assert jobs.check_series(lbseries, alpha, beta, gamma, bump(substituted), composed)
    assert jobs.check_series(lbseries, alpha, beta, gamma, substituted, bump(composed))


def test_cli_output_matches_the_library(tmp_path):
    alpha, beta, gamma = small_series()
    paths = {}
    for name, char in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(jobs.character_text(char))
    (_, substitute, *_), (_, compose, *_) = jobs.subst_steps(lbseries, paths)
    assert substitute() == jobs.expected_cli_text(lbseries.substitute_lb(alpha, beta))
    assert compose() == jobs.expected_cli_text(lbseries.compose_lb(beta, gamma))
    assert compose() != jobs.expected_cli_text(bump(lbseries.compose_lb(beta, gamma)))


def test_graft_checks_catch_a_corrupted_result():
    alpha = CharacterMap.from_json(gen.logarithmic_character(random.Random(1), 3, 2))
    gl = {pair: lbseries.gl_product(*pair) for pair in jobs.gl_pairs(lbseries, 3)}
    images = {w: lbseries.a_alpha(alpha, w) for w in jobs.a_alpha_forests(lbseries, 3)}
    assert jobs.check_graft(lbseries, alpha, gl, images) == []
    pair = max(gl, key=lambda p: len(gl[p]))
    broken = dict(gl)
    broken[pair] = gl[pair] + gl[pair]
    assert jobs.check_graft(lbseries, alpha, broken, images)
    w = max(images, key=lambda f: f.vertex_count)
    broken_images = dict(images)
    broken_images[w] = images[w].scale(2)
    assert jobs.check_graft(lbseries, alpha, gl, broken_images)


def test_bseries_checks_catch_a_corrupted_result():
    rng = random.Random(5)
    data = {
        "a": gen.tree_character(rng, 4, Fraction(0)),
        "b": gen.tree_character(rng, 4, Fraction(1)),
        "c": gen.tree_character(rng, 4, Fraction(1)),
    }
    data = {k: CharacterMap.from_json(v, planar=False) for k, v in data.items()}
    conv_h = lbseries.convolve(data["a"], data["b"], "h")
    conv_ck = lbseries.convolve(data["a"], data["b"], "ck")
    assert jobs.check_bseries(lbseries, data, True, conv_h, conv_ck) == []
    assert jobs.check_bseries(lbseries, data, False, conv_h, conv_ck)
    assert jobs.check_bseries(lbseries, data, True, bump(conv_h), conv_ck)
    assert jobs.check_bseries(lbseries, data, True, conv_h, bump(conv_ck))


def test_basis_check():
    assert jobs.check_bases(lbseries, 4) == []
