"""Frequency-tree tests against a linear-scan oracle and worked examples."""

import hashlib
import math
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import (insert_and_lookup_reference, linear_forward, linear_reverse,
                     lookup_and_remove_reference, probe, subtree_total, tree_depth,
                     tree_fields)
from mszip import ContractError, FreqList, FreqTree, Multiset, build_balanced

REFERENCE = Multiset([("a", 1), ("b", 2), ("c", 3), ("d", 1), ("e", 1)])


def _nodes(t):
    """Every node object in the tree, keyed by id."""
    nodes, stack = {}, [t.root] if t.root is not None else []
    while stack:
        node = stack.pop()
        nodes[id(node)] = node
        stack.extend(k for k in (node.left, node.right) if k is not None)
    return nodes


def multisets(max_unique=64, max_count=8):
    return st.dictionaries(st.integers(0, 1000), st.integers(1, max_count),
                           min_size=0, max_size=max_unique) \
        .map(lambda d: Multiset(sorted(d.items())))


class TestMultisetType:
    def test_canonical_validation(self):
        with pytest.raises(ContractError):
            Multiset([("b", 1), ("a", 1)])
        with pytest.raises(ContractError):
            Multiset([("a", 0)])
        with pytest.raises(ContractError):
            Multiset([("a", 1), ("a", 2)])

    def test_from_iterable_canonicalizes(self):
        m = Multiset.from_iterable("cabca")
        assert m.pairs == (("a", 2), ("b", 1), ("c", 2))
        assert m.total == 5
        assert m.unique == 3
        assert list(m.expand()) == ["a", "a", "b", "c", "c"]
        # a mapping is an iterable of its keys; its values are not counts
        assert Multiset.from_iterable({"b": 5, "a": 0}) == Multiset([("a", 1), ("b", 1)])

    def test_equality_ignores_build_order(self):
        assert Multiset.from_iterable("abcab") == Multiset.from_iterable("babca")

    @given(st.lists(st.integers(-50, 50), max_size=80)
           | st.lists(st.binary(max_size=2), max_size=80))
    def test_from_iterable_equals_the_checked_constructor(self, syms):
        m = Multiset.from_iterable(syms)
        want = Multiset(sorted((x, syms.count(x)) for x in set(syms)))
        assert (m.pairs, m.total) == (want.pairs, want.total)

    def test_from_iterable_rejects_a_partial_order(self):
        # sorted() accepts sets, which only partly order; the result would not
        # be strictly increasing
        with pytest.raises(ContractError, match="strictly increasing"):
            Multiset.from_iterable([frozenset({1}), frozenset({2})])

    @pytest.mark.parametrize("build, fault", [
        (lambda: Multiset([("a", 1.5)]), "integer count"),
        (lambda: Multiset([("a",)]), "integer count"),
        (lambda: Multiset([(b"a", 1), ("b", 1)]), "do not compare"),
        (lambda: Multiset.from_iterable([1, "a"]), "comparable: '<' not supported"),
        (lambda: Multiset.from_iterable([[1], [2]]), "hashable.*unhashable type"),
    ], ids=["float-count", "one-field-pair", "bytes-then-str", "int-and-str",
            "unhashable"])
    def test_bad_input_names_the_fault(self, build, fault):
        with pytest.raises(ContractError, match=fault):
            build()

    @seed(20261026)
    @settings(max_examples=300)
    @given(st.lists(st.integers(-1000, 1000), max_size=60, unique=True)
           | st.lists(st.integers(-4, 4), max_size=60)
           | st.lists(st.binary(max_size=2), max_size=60)
           | st.lists(st.tuples(st.binary(max_size=1), st.binary(max_size=1)),
                      max_size=60))
    def test_from_sorted_equals_from_iterable(self, xs):
        # unique ints take the all-distinct shortcut; small ranges repeat
        got = Multiset._from_sorted(sorted(xs))
        want = Multiset.from_iterable(xs)
        assert (got.pairs, got.total) == (want.pairs, want.total)


class TestBuildBalanced:
    def test_reference_tree_shape(self):
        t = build_balanced(REFERENCE)
        root = t.root
        assert (root.sym, subtree_total(root)) == ("b", 8)
        assert (root.left.sym, subtree_total(root.left)) == ("a", 1)
        assert (root.right.sym, subtree_total(root.right)) == ("d", 5)
        assert (root.right.left.sym, subtree_total(root.right.left)) == ("c", 3)
        assert (root.right.right.sym, subtree_total(root.right.right)) == ("e", 1)

    def test_empty_and_singleton(self):
        assert build_balanced(Multiset()).total == 0
        t = build_balanced(Multiset([("x", 5)]))
        assert t.total == 5
        assert t.root.sym == "x"
        assert t.root.left is None and t.root.right is None

    @given(multisets(max_unique=200))
    def test_depth_bound_and_roundtrip(self, m):
        t = build_balanced(m)
        depth = tree_depth(t)
        assert depth <= math.ceil(math.log2(m.unique + 1)) if m.unique else depth == 0
        assert t.to_multiset() == m
        assert t.total == m.total


class TestLookups:
    """The coder's two walks read the tree by probes: a removal and the insert
    that puts the occurrence back."""

    def test_forward_examples(self):
        t = build_balanced(REFERENCE)
        assert probe(t, 2)[1] == (1, 2)  # "b" owns [1, 3)
        assert probe(t, 0)[1] == (0, 1)  # "a"
        assert probe(t, 7)[1] == (7, 1)  # "e"

    def test_reverse_examples(self):
        t = build_balanced(REFERENCE)
        assert probe(t, 4)[0] == ("c", 3, 3)
        assert probe(t, 0)[0] == ("a", 0, 1)
        assert probe(t, 7)[0] == ("e", 7, 1)

    def test_reverse_out_of_range(self):
        t = build_balanced(REFERENCE)
        fields = tree_fields(t)
        for i in (-1, 8, 100):
            with pytest.raises(ContractError, match=f"index {i} outside"):
                t.lookup_and_remove(i)
        assert tree_fields(t) == fields

    @pytest.mark.parametrize("table", [FreqList, build_balanced])
    @pytest.mark.parametrize("m", [Multiset([(1, 1), (3, 1), (5, 1)]), REFERENCE])
    def test_non_integer_index_changes_nothing(self, table, m):
        t = table(m)
        for i in (1.5, 1.0, "1", None):
            with pytest.raises(ContractError, match="is not an integer"):
                t.lookup_and_remove(i)
            assert (t.total, t.to_multiset()) == (m.total, m)

    @given(multisets())
    def test_lookups_match_linear_oracle(self, m):
        t = build_balanced(m)
        for i in range(m.total):
            found, again = probe(t, i)
            assert found == linear_reverse(m.pairs, i)
            assert again == linear_forward(m.pairs, found[0])

    @given(multisets())
    def test_interval_partition(self, m):
        t = build_balanced(m)
        seen = []
        for i in range(m.total):
            sym, c, p = probe(t, i)[0]
            assert c <= i < c + p
            seen.append(sym)
        # non-decreasing symbols, each occupying exactly its count
        assert seen == sorted(seen)
        for sym, cnt in m.pairs:
            assert seen.count(sym) == cnt


class TestRemove:
    def test_reference_remove(self):
        t = build_balanced(REFERENCE)
        assert t.lookup_and_remove(4) == ("c", 3, 3)
        assert t.total == 7
        assert probe(t, 3) == (("c", 3, 2), (3, 2))

    def test_singleton_becomes_empty(self):
        t = build_balanced(Multiset([("x", 1)]))
        assert t.lookup_and_remove(0) == ("x", 0, 1)
        assert t.total == 0
        assert t.to_multiset() == Multiset()

    def test_removing_least_promotes_next(self):
        t = build_balanced(REFERENCE)
        assert t.lookup_and_remove(0) == ("a", 0, 1)
        assert probe(t, 0) == (("b", 0, 2), (0, 2))
        assert t.to_multiset() == Multiset(
            [("b", 2), ("c", 3), ("d", 1), ("e", 1)])

    @given(multisets(max_unique=24, max_count=4), st.randoms(use_true_random=False))
    def test_drain_matches_oracle(self, m, rng):
        t = build_balanced(m)
        pairs = {s: c for s, c in m.pairs}
        remaining = m.total
        while remaining:
            i = rng.randrange(remaining)
            expect = linear_reverse(sorted(pairs.items()), i)
            got = t.lookup_and_remove(i)
            assert got == expect
            sym = got[0]
            pairs[sym] -= 1
            if not pairs[sym]:
                del pairs[sym]
            remaining -= 1
            assert t.to_multiset() == Multiset(sorted(pairs.items()))
        assert t.total == 0
        assert t.to_multiset() == Multiset()

    def test_drained_symbol_is_reinserted_into_its_node(self):
        t = build_balanced(REFERENCE)
        nodes = _nodes(t)
        for _ in range(3):  # "c" occupies [3, 6)
            assert t.lookup_and_remove(3)[0] == "c"
        assert probe(t, 3) == (("d", 3, 1), (3, 1))
        drained = REFERENCE.pairs[:2] + REFERENCE.pairs[3:]
        assert t.to_multiset() == Multiset(drained)
        for k in range(3):
            with_c = drained[:2] + (("c", k + 1),) + drained[2:]
            assert t.insert_and_lookup("c") == linear_forward(with_c, "c")
        assert _nodes(t).keys() == nodes.keys()
        assert t.to_multiset() == REFERENCE


class TestInsert:
    def test_reference_inserts(self):
        t = build_balanced(REFERENCE)
        assert t.insert_and_lookup("b") == (1, 3)
        assert t.total == 9
        t = build_balanced(REFERENCE)
        assert t.insert_and_lookup("f") == (8, 1)

    def test_insert_into_empty(self):
        t = FreqTree()
        assert t.insert_and_lookup("x") == (0, 1)
        assert t.total == 1

    @given(st.lists(st.integers(0, 30), max_size=80))
    def test_insertion_order_content(self, syms):
        t = FreqTree()
        for k, sym in enumerate(syms):
            c, p = t.insert_and_lookup(sym)
            sofar = Multiset.from_iterable(syms[: k + 1])
            assert (c, p) == linear_forward(sofar.pairs, sym)
            assert t.to_multiset() == sofar

    @given(multisets(max_unique=16, max_count=4), st.randoms(use_true_random=False))
    def test_remove_then_insert_is_content_identity(self, m, rng):
        if not m.total:
            return
        t = build_balanced(m)
        i = rng.randrange(m.total)
        sym, _, _ = t.lookup_and_remove(i)
        t.insert_and_lookup(sym)
        assert t.to_multiset() == m


class TestReadOnlyLookupsOnDrainedTrees:
    """Probes on a tree whose nodes were drained and refilled agree with the
    oracle and leave every node as it was."""

    @given(multisets(max_unique=24, max_count=4), st.lists(st.integers(0, 1000), max_size=12),
           st.randoms(use_true_random=False))
    def test_lookups_match_oracle_and_do_not_mutate(self, m, extra, rng):
        t = build_balanced(m)
        for _ in range(m.total // 2):
            t.lookup_and_remove(rng.randrange(t.total))
        for sym in extra:
            t.insert_and_lookup(sym)
        current = t.to_multiset()
        counts = dict(current.pairs)
        fields = tree_fields(t)
        for i in range(current.total):
            found, again = probe(t, i)
            assert found == linear_reverse(current.pairs, i)
            assert again == linear_forward(current.pairs, found[0])
        for sym, *_ in fields.values():  # drained nodes own an empty interval
            if sym not in counts:
                before = sum(cnt for s, cnt in current.pairs if s < sym)
                assert t.insert_and_lookup(sym) == (before, 1)
                assert t.lookup_and_remove(before) == (sym, before, 1)
        assert tree_fields(t) == fields


class TestLeftCounts:
    """Each node keeps its left subtree's count and the tree its total,
    across any mix of the two walks."""

    @given(st.booleans(), multisets(max_unique=24, max_count=4),
           st.lists(st.sampled_from(["insert", "remove"]), max_size=60),
           st.randoms(use_true_random=False))
    def test_every_walk_keeps_the_counts(self, balanced, m, walks, rng):
        t = build_balanced(m) if balanced else FreqTree()
        fields = tree_fields(t)
        for walk in walks:
            if walk == "insert":
                present = sorted(node[0] for node in fields.values())
                t.insert_and_lookup(rng.choice(present) if present and rng.random() < 0.5
                                    else rng.randrange(1001))
            elif t.total:
                t.lookup_and_remove(rng.randrange(t.total))
            fields = tree_fields(t)


class TestReferenceWalks:
    """The walks give what the reference walks (``seen`` per level, the
    ``offset`` sum, the ``parent`` link) give on a twin tree, visits
    included, step by step."""

    @seed(20261021)
    @settings(max_examples=200)
    @given(st.booleans(), multisets(max_unique=24, max_count=4),
           st.lists(st.sampled_from(["insert", "remove"]), max_size=80),
           st.randoms(use_true_random=False))
    def test_walks_match_the_reference(self, filled, m, walks, rng):
        tree, ref = (build_balanced(m), build_balanced(m)) if filled else (FreqTree(), FreqTree())
        seen = [sym for sym, _ in m.pairs]  # drained symbols stay candidates
        for walk in walks:
            if walk == "insert":
                sym = (rng.choice(seen) if seen and rng.random() < 0.5
                       else rng.randrange(1001))
                seen.append(sym)
                assert tree.insert_and_lookup(sym) == insert_and_lookup_reference(ref, sym)
            elif tree.total:
                i = rng.randrange(tree.total)
                assert tree.lookup_and_remove(i) == lookup_and_remove_reference(ref, i)
            assert (tree.total, tree.visits) == (ref.total, ref.visits)
        assert tree.to_multiset() == ref.to_multiset()


class TestDepth:
    """Every node's ``depth`` is its count of nodes from the root, however
    the tree was built and drained (``tree_depth`` checks it)."""

    @given(multisets(max_unique=200), st.randoms(use_true_random=False))
    def test_balanced_build_and_drain(self, m, rng):
        t = build_balanced(m)
        depth = tree_depth(t)
        while t.total:
            t.lookup_and_remove(rng.randrange(t.total))
        assert tree_depth(t) == depth

    @given(st.lists(st.integers(0, 1000), max_size=120), st.randoms(use_true_random=False))
    def test_inserts_into_empty_and_drain(self, syms, rng):
        t = FreqTree()
        for sym in syms:
            t.insert_and_lookup(sym)
        depth = tree_depth(t)
        while t.total:
            t.lookup_and_remove(rng.randrange(t.total))
        assert tree_depth(t) == depth


class TestFreqList:
    """The sorted list answers every walk as the tree over the same
    occurrences does."""

    def test_reference_walks(self):
        t = FreqList(REFERENCE)
        assert t.items == ["a", "b", "b", "c", "c", "c", "d", "e"]
        assert t.lookup_and_remove(4) == ("c", 3, 3)
        assert t.insert_and_lookup("c") == (3, 3)
        assert t.lookup_and_remove(0) == ("a", 0, 1)
        assert t.insert_and_lookup("f") == (7, 1)
        assert (t.total, t.to_multiset()) == (8, Multiset(
            [("b", 2), ("c", 3), ("d", 1), ("e", 1), ("f", 1)]))

    def test_empty(self):
        t = FreqList()
        assert (t.total, t.to_multiset()) == (0, Multiset())
        assert t.insert_and_lookup(b"x") == (0, 1)
        assert t.lookup_and_remove(0) == (b"x", 0, 1)
        assert FreqList(Multiset()).items == []

    def test_index_out_of_range(self):
        t = FreqList(REFERENCE)
        for i in (-1, 8, 100):
            with pytest.raises(ContractError, match=f"index {i} outside"):
                t.lookup_and_remove(i)
        assert t.to_multiset() == REFERENCE

    def test_distinct_symbols_are_their_own_intervals(self):
        t = FreqList(Multiset([(b"a", 1), (b"c", 1), (b"d", 1), (b"f", 1)]))
        assert t.distinct
        for i in (2, 0, 1):
            items = list(t.items)
            assert t.lookup_and_remove(i) == (items[i], i, 1)
        assert (t.items, t.total, t.distinct) == ([b"c"], 1, True)
        assert not FreqList(REFERENCE).distinct

    def test_walks_match_the_tree_after_inserts_into_distinct(self):
        m = Multiset([(1, 1), (3, 1), (5, 1), (7, 1)])
        tree, lst = build_balanced(m), FreqList(m)
        assert lst.lookup_and_remove(1) == tree.lookup_and_remove(1) == (3, 1, 1)
        for sym in (4, 5):  # a new symbol, then a repeat
            assert lst.insert_and_lookup(sym) == tree.insert_and_lookup(sym)
        assert not lst.distinct
        assert lst.lookup_and_remove(3) == tree.lookup_and_remove(3) == (5, 2, 2)
        for i in (2, 0, 1, 0):
            assert lst.lookup_and_remove(i) == tree.lookup_and_remove(i)
            assert lst.to_multiset() == tree.to_multiset()
        assert lst.total == tree.total == 0

    @seed(20261020)
    @settings(max_examples=200)
    @given(st.booleans(), multisets(max_unique=24, max_count=4),
           st.lists(st.sampled_from(["insert", "remove"]), max_size=60),
           st.randoms(use_true_random=False))
    def test_walks_match_the_tree(self, filled, m, walks, rng):
        tree, lst = (build_balanced(m), FreqList(m)) if filled else (FreqTree(), FreqList())
        seen = [sym for sym, _ in m.pairs]  # drained symbols stay candidates
        for walk in walks:
            if walk == "insert":
                sym = (rng.choice(seen) if seen and rng.random() < 0.5
                       else rng.randrange(1001))
                seen.append(sym)
                assert lst.insert_and_lookup(sym) == tree.insert_and_lookup(sym)
            elif tree.total:
                i = rng.randrange(tree.total)
                assert lst.lookup_and_remove(i) == tree.lookup_and_remove(i)
            assert lst.total == tree.total
            assert lst.to_multiset() == tree.to_multiset()


class TestVisitInstrumentation:
    def test_balanced_ops_visit_at_most_depth_plus_one(self):
        rng = random.Random(9)
        m = Multiset([(k, rng.randint(1, 5)) for k in range(300)])
        bound = math.ceil(math.log2(m.unique + 1)) + 1
        t = build_balanced(m)
        while t.total:
            before = t.visits
            t.lookup_and_remove(rng.randrange(t.total))
            assert t.visits - before <= bound

    @given(multisets(max_unique=40), st.randoms(use_true_random=False))
    def test_drain_keeps_shape_and_visits_at_most_depth(self, m, rng):
        t = build_balanced(m)
        depth, nodes = tree_depth(t), _nodes(t)
        assert depth == math.ceil(math.log2(m.unique + 1))
        while t.total:
            before = t.visits
            t.lookup_and_remove(rng.randrange(t.total))
            assert t.visits - before <= depth
        assert tree_depth(t) == depth
        assert _nodes(t).keys() == nodes.keys()

    def test_counters_accumulate(self):
        t = build_balanced(REFERENCE)
        assert t.visits == 0
        probe(t, 0)  # b, a and again
        assert t.visits == 4
        probe(t, 3)  # b, d, c and again
        assert t.visits == 10
        t.insert_and_lookup("f")  # b, d, e and the new leaf
        assert t.visits == 14


def _pinned_workload():
    """2**14 draws from 1,024 symbols, and the generator that then picks the
    drain's indices."""
    rng = random.Random(20261018)
    pool = rng.sample(range(1 << 16), 1024)
    return rng, [rng.choice(pool) for _ in range(1 << 14)]


def _digest(seq):
    return hashlib.sha256(repr(seq).encode()).hexdigest()


class TestPinnedWork:
    """A seeded drain and fill give the (sym, c, p) sequences and the
    visit counts recorded from an earlier implementation of the
    walks, which read every child total on every visit."""

    def test_drain_of_balanced_tree(self):
        rng, syms = _pinned_workload()
        m = Multiset.from_iterable(syms)
        assert m.unique == 1024
        t = build_balanced(m)
        drained = []
        while t.total:
            drained.append(t.lookup_and_remove(rng.randrange(t.total)))
        assert _digest(drained) == \
            "563b87831ae9d75466d86c5afc53cfd08243ef544acfd9fef7d6e77f2be5e502"
        assert t.visits == 163_887

    def test_fill_of_empty_tree(self):
        _, syms = _pinned_workload()
        t = FreqTree()
        filled = [(sym, *t.insert_and_lookup(sym)) for sym in syms]
        assert _digest(filled) == \
            "e6939e9ff7abae6c08938b06b01c3c79c62eb9df59fea299a3aec2f43167d116"
        assert t.visits == 198_532
        assert t.to_multiset() == Multiset.from_iterable(syms)


@settings(max_examples=50)
@given(multisets(max_unique=40))
def test_to_multiset_roundtrip(m):
    assert build_balanced(m).to_multiset() == m


@settings(max_examples=50)
@given(multisets(max_unique=40), st.randoms(use_true_random=False))
def test_to_multiset_equals_the_checked_constructor(m, rng):
    # drain part of the tree, so some nodes hold a count of zero
    t = build_balanced(m)
    left = dict(m.pairs)
    for _ in range(rng.randrange(m.total + 1)):
        sym, _, _ = t.lookup_and_remove(rng.randrange(t.total))
        left[sym] -= 1
    got = t.to_multiset()
    want = Multiset(sorted((sym, cnt) for sym, cnt in left.items() if cnt))
    assert (got.pairs, got.total) == (want.pairs, want.total)
