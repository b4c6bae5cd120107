import copy
import gc
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbseries import (
    Forest,
    ForestParseError,
    NonPlanarTree,
    OrderedForest,
    PlanarTree,
    SymWord,
    canonicalize,
    enumerate_forests,
    enumerate_nonplanar_trees,
    enumerate_ordered_forests,
    enumerate_planar_trees,
    forget_planarity,
    mirror_forest,
    mirror_tree,
    parse_forest,
    parse_tree,
    symmetry_factor,
)
from lbseries import trees
from lbseries.trees import LEAF


def test_parse_basics():
    assert parse_forest("[]").trees[0] == PlanarTree()
    cherry = parse_tree("[[][]]")
    assert cherry.vertex_count == 3
    assert len(cherry.children) == 2
    assert parse_forest("").is_empty
    assert parse_forest("   ").is_empty


def test_parse_planar_distinct():
    a = parse_forest("[[][[]]]")
    b = parse_forest("[[[]][]]")
    assert a != b
    assert forget_planarity(a) == forget_planarity(b)


@pytest.mark.parametrize(
    "text,pos",
    [("[[]", 3), ("[]]", 2), ("[a]", 1), ("hello", 0), ("[] x", 3), ("[[] []] [x]", 9), ("[]\t]", 3)],
)
def test_parse_errors_carry_position(monkeypatch, text, pos):
    """The same error, also once the well-formed pieces are known trees."""
    monkeypatch.setattr(trees, "_PARSED", {})
    with pytest.raises(ForestParseError) as err:
        parse_forest(text)
    assert err.value.position == pos
    for piece in ("[]", "[[]]", "[[] []]", "[ ]", "a", "x", "]"):
        try:
            parse_forest(piece)
        except ForestParseError:
            pass
    assert "[[]]" in trees._PARSED and "]" not in trees._PARSED
    with pytest.raises(ForestParseError) as again:
        parse_forest(text)
    assert (again.value.position, str(again.value)) == (pos, str(err.value))


def test_a_parse_leaves_no_reference_cycle(monkeypatch):
    """A parse read one character at a time leaves nothing to the cyclic
    garbage collector, so a command run with the collector paused keeps
    no dead parser objects."""
    monkeypatch.setattr(trees, "_PARSED", {})
    gc.collect()
    gc.disable()
    try:
        forest = parse_forest("[[] [[]]] [] [[[ ]] []]")
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert forest.serialize() == "[[][[]]] [] [[[]][]]"


def test_every_tree_the_parser_builds_is_known_by_its_own_text(monkeypatch):
    monkeypatch.setattr(trees, "_PARSED", {})
    for n in range(0, 7):
        for forest in enumerate_ordered_forests(n):
            assert parse_forest(forest.serialize()) is forest
            # every tree of the forest, and below it, is now in the table
            for tree in forest.trees:
                assert trees._PARSED[tree.serialize()] is tree
                assert all(trees._PARSED[c.serialize()] is c for c in tree.children)
            # so this parse reads the table alone
            assert parse_forest(forest.serialize()) is forest
    keys = {id(key) for key in trees._PARSED}
    assert keys == {id(tree.serialize()) for tree in trees._PARSED.values()}


@pytest.mark.parametrize(
    "text,serialized",
    [
        (" [[] []] ", "[[][]]"),
        ("[]\t[[]]", "[] [[]]"),
        ("\n[[]]\n[] ", "[[]] []"),
        ("[ ]", "[]"),
        ("[[]\x0b[]]", "[[][]]"),
        ("[]\u2003[]", "[] []"),
        ("  ", ""),
        ("", ""),
    ],
)
def test_whitespace_reads_as_the_character_parser_reads_it(monkeypatch, text, serialized):
    monkeypatch.setattr(trees, "_PARSED", {})
    by_characters = parse_forest(text)
    assert by_characters.serialize() == serialized
    for n in range(0, 5):
        for forest in enumerate_ordered_forests(n):
            parse_forest(forest.serialize())
    assert parse_forest(text) is by_characters


def test_built_forest_finds_only_forests_that_were_built():
    """``built_forest`` returns the one forest of a tuple of trees without
    building one: a tuple never built gives ``None`` and stays unbuilt."""
    never = (LEAF,) * 40
    assert trees.built_forest(never) is None
    assert trees.built_forest(never) is None
    for n in range(7):
        for forest in enumerate_ordered_forests(n):
            assert trees.built_forest(forest.trees) is forest


def test_parse_tree_rejects_forests():
    with pytest.raises(ForestParseError):
        parse_tree("[] []")


def test_round_trip_up_to_six_vertices():
    for n in range(0, 7):
        for forest in enumerate_ordered_forests(n):
            assert parse_forest(forest.serialize()) is forest


def test_json_round_trip():
    for n in range(0, 7):
        for forest in enumerate_ordered_forests(n):
            assert OrderedForest.from_json(forest.to_json()) is forest


def test_canonicalize_idempotent():
    for n in range(1, 7):
        for tree in enumerate_planar_trees(n):
            c = canonicalize(tree)
            assert canonicalize(c.rep) == c


def test_nonplanar_tree_of_its_rep_is_itself():
    for n in range(1, 8):
        for tree in enumerate_nonplanar_trees(n):
            assert NonPlanarTree(tree.rep) is tree


def test_canonicalize_examples():
    assert canonicalize(parse_tree("[[][[]]]")) == canonicalize(parse_tree("[[[]][]]"))
    assert canonicalize(parse_tree("[]")).serialize() == "[]"
    assert canonicalize(parse_tree("[[][]]")).serialize() == "[[][]]"


def test_forget_planarity_examples():
    assert forget_planarity(parse_forest("")) == Forest()
    assert forget_planarity(parse_forest("[] [[]]")) == forget_planarity(
        parse_forest("[[]] []")
    )


def _brute_symmetry(tree) -> int:
    """Automorphism count via labeled representatives: the number of labeled
    trees with a given shape is n!/sigma."""
    n = tree.vertex_count
    shapes = 0
    vertices = list(range(n))
    for parents in itertools.product([None] + vertices, repeat=n):
        if parents.count(None) != 1:
            continue
        ok = True
        for v in range(n):
            w, hops = v, 0
            while parents[w] is not None and hops <= n:
                w = parents[w]
                hops += 1
            if hops > n:
                ok = False
                break
        if not ok:
            continue
        children = {v: [] for v in range(n)}
        root = None
        for v, p in enumerate(parents):
            if p is None:
                root = v
            else:
                children[p].append(v)

        def build(v):
            return PlanarTree(tuple(build(c) for c in children[v]))

        if canonicalize(build(root)) == tree:
            shapes += 1
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    assert fact % shapes == 0
    return fact // shapes


def test_symmetry_factor_examples():
    assert symmetry_factor(canonicalize(parse_tree("[]"))) == 1
    assert symmetry_factor(canonicalize(parse_tree("[[][]]"))) == 2
    assert symmetry_factor(canonicalize(parse_tree("[[[]]]"))) == 1


def test_symmetry_factor_against_labeled_count():
    for n in range(1, 6):
        for tree in enumerate_nonplanar_trees(n):
            assert symmetry_factor(tree) == _brute_symmetry(tree)


def _catalan(n: int) -> int:
    # independent recurrence C_0 = 1, C_{n+1} = sum C_i C_{n-i}
    cs = [1]
    for m in range(n):
        cs.append(sum(cs[i] * cs[m - i] for i in range(m + 1)))
    return cs[n]


def _rooted_tree_counts(limit: int) -> list[int]:
    # independent recurrence: r(n+1) = (1/n) sum_{k=1..n} (sum_{d|k} d r(d)) r(n+1-k)
    r = [0, 1]
    for n in range(1, limit):
        total = 0
        for k in range(1, n + 1):
            s = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += s * r[n + 1 - k]
        r.append(total // n)
    return r


def test_planar_counts_match_catalan():
    for n in range(1, 8):
        assert len(enumerate_planar_trees(n)) == _catalan(n - 1)
    assert [len(enumerate_planar_trees(n)) for n in range(1, 7)] == [1, 1, 2, 5, 14, 42]


def test_nonplanar_counts_match_recurrence():
    counts = _rooted_tree_counts(10)
    for n in range(1, 11):
        assert len(enumerate_nonplanar_trees(n)) == counts[n]
        # a forest of n - 1 vertices is what B+ makes a tree of n from
        assert len(enumerate_forests(n - 1)) == counts[n]
    # A000081
    assert [len(enumerate_nonplanar_trees(n)) for n in range(1, 11)] == [
        1, 1, 2, 4, 9, 20, 48, 115, 286, 719
    ]


def _embeddings(t: PlanarTree) -> set:
    """Every planar tree reached by permuting the children at each vertex."""
    out = set()
    for children in itertools.product(*map(_embeddings, t.children)):
        out.update(map(PlanarTree, set(itertools.permutations(children))))
    return out


def _recursive_key(t: PlanarTree):
    # the sort key as a recursion over the planar tree, built anew on each call
    return (t.vertex_count, tuple(_recursive_key(c) for c in t.children))


def _sorted_rep(t: PlanarTree) -> PlanarTree:
    return PlanarTree(sorted(map(_sorted_rep, t.children), key=_recursive_key))


def test_canonicalize_gives_one_object_per_abstract_tree_up_to_eight_vertices():
    counts = _rooted_tree_counts(8)
    for n in range(1, 9):
        seen = set()
        for t in enumerate_planar_trees(n):
            tree = canonicalize(t)
            assert canonicalize(mirror_tree(t)) is tree
            assert all(canonicalize(e) is tree for e in _embeddings(t))
            assert tree.rep is _sorted_rep(t)
            assert tree.sort_key() == _recursive_key(tree.rep)
            assert canonicalize(tree.rep) is tree and NonPlanarTree(tree.rep) is tree
            seen.add(tree)
        assert len(seen) == counts[n]


def _planar_route_trees(n):
    """The non-planar trees of order ``n`` by canonicalizing every planar tree."""
    trees = dict.fromkeys(map(canonicalize, enumerate_planar_trees(n)))
    return tuple(sorted(trees, key=NonPlanarTree.sort_key))


def _planar_route_forests(n):
    """The non-planar forests of order ``n`` by forgetting the planarity of
    every ordered forest."""
    forests = dict.fromkeys(map(forget_planarity, enumerate_ordered_forests(n)))
    return tuple(sorted(forests, key=lambda f: tuple(t.sort_key() for t in f.trees)))


def test_nonplanar_enumeration_matches_the_planar_route_up_to_order_nine():
    for n in range(1, 10):
        assert enumerate_nonplanar_trees(n) == _planar_route_trees(n)
    for n in range(0, 10):
        assert enumerate_forests(n) == _planar_route_forests(n)


def test_nonplanar_enumeration_does_not_take_the_planar_route(monkeypatch):
    expected = [(enumerate_forests(n), enumerate_nonplanar_trees(n)) for n in range(1, 8)]

    def refuse(n):
        raise AssertionError("the non-planar enumeration read a planar one")

    for name in ("enumerate_ordered_forests", "enumerate_planar_trees"):
        monkeypatch.setattr(trees, name, refuse)
    trees.enumerate_forests.cache_clear()
    trees.enumerate_nonplanar_trees.cache_clear()
    assert enumerate_forests(7) == expected[-1][0]
    assert enumerate_nonplanar_trees(7) == expected[-1][1]
    assert [(enumerate_forests(n), enumerate_nonplanar_trees(n)) for n in range(1, 8)] == expected


def test_forest_products_with_the_unit_and_the_planted_tree():
    empty = trees.EMPTY_NP_FOREST
    assert empty.mul(empty) is empty and empty.planted() is canonicalize(LEAF)
    for n in range(1, 6):
        for f in enumerate_forests(n):
            assert f.mul(empty) is f and empty.mul(f) is f
            assert Forest(tuple(reversed(f.trees))) is f
            planted = f.planted()
            assert planted is f.planted() is canonicalize(PlanarTree([t.rep for t in f.trees]))
            assert planted.vertex_count == n + 1


def test_enumerations_have_no_duplicates():
    for n in range(1, 6):
        planar = enumerate_planar_trees(n)
        assert len(set(planar)) == len(planar)
        forests = enumerate_forests(n)
        assert len(set(forests)) == len(forests)


def test_mirror_is_an_involution():
    for n in range(0, 7):
        for forest in enumerate_ordered_forests(n):
            assert mirror_forest(mirror_forest(forest)) is forest
            assert forget_planarity(mirror_forest(forest)) is forget_planarity(forest)


_forests = st.integers(0, 4).flatmap(lambda n: st.sampled_from(enumerate_forests(n)))
_parts = st.integers(1, 4).flatmap(lambda n: st.sampled_from(enumerate_ordered_forests(n)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_forests, _forests, _parts, _parts)
def test_commutative_products_are_one_object(f, g, p, q):
    assert f.mul(g) is g.mul(f)
    assert SymWord.of(p, q) is SymWord.of(q, p)


@pytest.mark.parametrize(
    "value",
    [
        parse_tree("[[][[]]]"),
        parse_forest("[[]] [] [[][]]"),
        canonicalize(parse_tree("[[[]][]]")),
        forget_planarity(parse_forest("[] [[]] []")),
        SymWord.of(parse_forest("[[]]"), parse_forest("[] []")),
    ],
    ids=lambda value: type(value).__name__,
)
def test_copy_and_pickle_return_the_one_object(value):
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    assert pickle.loads(pickle.dumps(value)) is value
    assert LEAF.children == () and LEAF.serialize() == "[]" and PlanarTree() is LEAF
