import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paritykit.trees
from paritykit.errors import UndefinedTree
from paritykit.trees import (
    _COUNTS,
    _LEVELS,
    _WIDTH,
    LEAF,
    Embedding,
    OrderedTree,
    embed,
    enumerate_trees,
    is_universal_for,
    n_strahler,
    universal_tree,
    universal_tree_size,
)

from corpora import UNIVERSAL_GRID
from oracles import reference_trees


def T(*kids):
    return OrderedTree(tuple(kids))


def backtracking_embed(t, host):
    """Exhaustive search over all strictly increasing child assignments."""
    if not t.children:
        return True
    m, k = len(t.children), len(host.children)
    if m > k:
        return False
    for combo in itertools.combinations(range(k), m):
        if all(backtracking_embed(c, host.children[j]) for c, j in zip(t.children, combo)):
            return True
    return False


def figure_tree():
    # the depth-4 example tree from the worked Strahler illustration
    c1 = T(T(LEAF), T(LEAF), LEAF)
    c2 = T(T(LEAF, LEAF, LEAF))
    c3 = T(LEAF, LEAF)
    c4 = T(LEAF, T(LEAF, LEAF, LEAF))
    c5 = T(T(LEAF, LEAF), T(LEAF, LEAF))
    return T(c1, c2, c3, c4, c5)


def complete_binary(h):
    t = LEAF
    for _ in range(h - 1):
        t = T(t, t)
    return t


def random_tree(rng, max_depth, max_branch):
    if max_depth == 1 or rng.random() < 0.3:
        return LEAF
    deg = rng.randint(0, max_branch)
    return T(*[random_tree(rng, max_depth - 1, max_branch) for _ in range(deg)])


class TestDepth:
    def test_leaf(self):
        assert LEAF._depth == 1

    def test_unary(self):
        assert T(LEAF)._depth == 2

    def test_figure_tree(self):
        assert figure_tree()._depth == 4


class TestStrahler:
    def test_leaf(self):
        assert n_strahler(LEAF, 1) == 1
        assert n_strahler(LEAF, 5) == 1

    def test_figure_tree(self):
        # The recursive definition bumps at >= n+1 equal children, which on
        # this tree yields 3 at n=2 (the caption's count matches the n=2 run).
        t = figure_tree()
        assert n_strahler(t, 2) == 3
        assert n_strahler(t, 3) == 2

    def test_classical_strahler_on_complete_binary(self):
        for h in range(1, 6):
            assert n_strahler(complete_binary(h), 1) == h

    def test_bounded_by_depth(self):
        rng = random.Random(5)
        for _ in range(100):
            t = random_tree(rng, 4, 3)
            for n in (1, 2, 3):
                assert n_strahler(t, n) <= t._depth

    def test_antitone_in_n(self):
        rng = random.Random(6)
        for _ in range(100):
            t = random_tree(rng, 4, 4)
            values = [n_strahler(t, n) for n in (1, 2, 3, 4)]
            assert values == sorted(values, reverse=True)


class TestEmbed:
    def test_identity(self):
        t = figure_tree()
        e = embed(t, t)
        assert e is not None
        assert all(p == q for p, q in e.mapping.items())
        assert e.check(t, t)

    def test_check_rejects_each_broken_mapping(self):
        t = OrderedTree.from_brackets("((())())")
        host = OrderedTree.from_brackets("((()())()(()))")
        good = {(): (), (0,): (0,), (0, 0): (0, 1), (1,): (2,)}
        assert Embedding(good).check(t, host)
        broken = [
            {**good, (): (1,)},  # the root goes elsewhere
            {**good, (0, 0): (0, 1, 0)},  # a path and its image differ in length
            {k: v for k, v in good.items() if k != (0,)},  # a node whose parent is unmapped
            {**good, (0, 0): (2, 0)},  # a node off its parent's image
            {**good, (1, 0): (2, 0)},  # a path that is no node of the query
            {**good, (0, 0): (0, 5)},  # an image that is no node of the host
            {k: v for k, v in good.items() if k != (1,)},  # a node left out
            {(): (), (0,): (2,), (0, 0): (2, 0), (1,): (0,)},  # siblings out of order
            {(): (), (0,): (0,), (0, 0): (0, 0), (1,): (0,)},  # siblings on one image
            {**good, (-1,): (2,)},  # a path that names a node by a negative index
        ]
        assert [Embedding(m).check(t, host) for m in broken] == [False] * 10

    def test_check_rejects_a_negative_image_index(self):
        # -1 names no child by its index: Python would read it as the last
        # child, after child 1's image in the first mapping
        t = host = OrderedTree.from_brackets("(()())")
        assert not Embedding({(): (), (0,): (-1,), (1,): (0,)}).check(t, host)
        assert not Embedding({(): (), (0,): (0,), (1,): (-1,)}).check(t, host)

    def test_too_few_children(self):
        assert embed(T(LEAF, LEAF), T(LEAF)) is None

    def test_agrees_with_backtracking_oracle_small(self):
        smalls = enumerate_trees(5, 4, 4)
        hosts = enumerate_trees(6, 4, 4)
        for t in smalls:
            for h in hosts:
                got = embed(t, h)
                assert (got is not None) == backtracking_embed(t, h)
                if got is not None:
                    assert got.check(t, h)

    def test_embedding_bounds_strahler(self):
        rng = random.Random(8)
        for _ in range(150):
            t = random_tree(rng, 4, 3)
            h = random_tree(rng, 4, 3)
            if embed(t, h) is not None:
                for n in (1, 2, 3):
                    assert n_strahler(t, n) <= n_strahler(h, n)

    def test_transitive(self):
        rng = random.Random(9)
        found = 0
        for _ in range(400):
            a = random_tree(rng, 3, 2)
            b = random_tree(rng, 4, 3)
            c = random_tree(rng, 4, 3)
            if embed(a, b) is not None and embed(b, c) is not None:
                found += 1
                assert embed(a, c) is not None
        assert found > 10


def caterpillar(k):
    """A spine k nodes long, each spine node with a leaf before the next:
    2k+1 nodes, k+1 deep."""
    return OrderedTree.from_brackets("(()" * k + "()" + ")" * k)


class TestPruningInvariants:
    def test_cached_leaf_count(self):
        trees = enumerate_trees(9, 9, 9) + [caterpillar(3000)]
        assert len(trees) == 2057
        assert [t._leaves for t in trees] == [_leaf_count(t) for t in trees]
        assert trees[-1]._leaves == 3001

    def test_cached_level_counts(self):
        # the last tree is three nodes short of saturating: 8,191 children
        # of three leaves each, 24,573 nodes at depth 2
        trees = enumerate_trees(9, 9, 9) + [caterpillar(3000), T(*[T(LEAF, LEAF, LEAF)] * 8191)]
        assert len(trees) == 2058 and trees[-1].node_count() == 2 ** (_WIDTH - 1) - 3
        assert [_cached_levels(t) for t in trees] == [_level_counts(t) for t in trees]
        # at each depth a spine node with two children and a leaf
        assert _cached_levels(trees[-2]) == [2, 1, 1, 0] * 6
        assert _cached_levels(trees[-1]) == [8191] * 4 + [24573, 0, 0, 0] + [0] * 16

    def test_more_nodes_at_a_depth_is_refused_without_a_search(self, monkeypatch):
        # equal size, depth and leaf count, fewer root children, but two
        # nodes at depth 2 against the host's one
        t = OrderedTree.from_brackets("((()())())")
        host = OrderedTree.from_brackets("((())()())")
        assert (t._size, t._depth, t._leaves) == (host._size, host._depth, host._leaves)
        assert _level_counts(t)[::_COUNTS][:2] == [2, 2] and _level_counts(host)[::_COUNTS][:2] == [3, 1]
        monkeypatch.setattr(paritykit.trees, "_fits", _refuse_search)
        assert embed(t, host) is None
        with pytest.raises(AssertionError):
            embed(host, host)

    def test_more_branching_nodes_at_a_depth_is_refused_without_a_search(self, monkeypatch):
        # equal size, depth, leaf count and node counts at every depth, but
        # two nodes of two children at depth 1 against the host's one
        t = OrderedTree.from_brackets("((()())(()()))")
        host = OrderedTree.from_brackets("((()()())(()))")
        assert (t._size, t._depth, t._leaves) == (host._size, host._depth, host._leaves)
        assert _level_counts(t)[::_COUNTS] == _level_counts(host)[::_COUNTS] == [2, 4, 0, 0, 0, 0]
        assert _level_counts(t)[:_COUNTS] == [2, 2, 2, 0] and _level_counts(host)[:_COUNTS] == [2, 2, 1, 1]
        assert not backtracking_embed(t, host)
        monkeypatch.setattr(paritykit.trees, "_fits", _refuse_search)
        assert embed(t, host) is None
        with pytest.raises(AssertionError):
            embed(t, t)

    def test_saturated_counts(self):
        # 40 nested (t, t): 2**41 - 1 expanded nodes over 41 shared objects
        big = LEAF
        for _ in range(40):
            big = T(big, big)
        size, levels = big.node_count(), _cached_levels(big)
        assert size == 2**41 - 1 and levels == [2 ** (_WIDTH - 1) - 1] * _LEVELS * _COUNTS
        # each saturated field is at least the walk's count (2**k nodes of
        # two children at depth k), so the host refuses no unsaturated query
        assert all(a >= b for a, b in zip(levels, _level_counts(big)))
        small, ternary = complete_binary(6), complete_ternary(2)
        e = embed(small, big)
        checked = e is not None and e.check(small, big)
        missed = embed(ternary, big)
        assert checked and missed is None
        answers = [is_universal_for(big, [small, t]) for t in (complete_binary(12), ternary)]
        assert answers == [(True, None), (False, ternary)]
        # a saturated query meets a saturated host after the size check
        wide = T(*[LEAF] * 2 ** (_WIDTH - 1))
        assert _cached_levels(wide) == levels
        e = embed(wide, wide)
        assert e is not None and len(e.mapping) == wide.node_count()
        missed = embed(wide, big)
        assert missed is None

    def test_equal_leaf_count_still_embeds(self):
        # equal at the roots and at the first pair of children
        t = OrderedTree.from_brackets("((()())())")
        host = OrderedTree.from_brackets("(((())())(()))")
        assert (t._leaves, t.children[0]._leaves) == (host._leaves, host.children[0]._leaves) == (3, 2)
        e = embed(t, host)
        assert e.mapping == {(): (), (0,): (0,), (0, 0): (0, 0), (0, 1): (0, 1), (1,): (1,)}
        assert e.check(t, host)

    def test_equal_root_fan_out_still_embeds(self):
        t = OrderedTree.from_brackets("(()())")
        host = OrderedTree.from_brackets("((()())())")
        assert len(t.children) == len(host.children) == 2 and t._leaves < host._leaves
        e = embed(t, host)
        assert e.mapping == {(): (), (0,): (0,), (1,): (1,)}
        assert e.check(t, host)


class TestDeepEmbed:
    def test_self_embedding_1000_deep(self):
        t = caterpillar(1000)
        e = embed(t, t)
        assert len(e.mapping) == 2001 and all(p == q for p, q in e.mapping.items())
        assert e.check(t, t)

    def test_spine_goes_under_the_deep_child(self):
        k = 3000
        spine = OrderedTree.from_brackets("(" * k + ")" * k)
        e = embed(spine, caterpillar(k))
        # the spine's last node is a leaf, which goes leftmost
        assert e.mapping == {(0,) * i: (1,) * i for i in range(k - 1)} | {
            (0,) * (k - 1): (1,) * (k - 2) + (0,)
        }

    def test_deep_miss(self):
        # leaves after the spine child cannot fit where the leaves come first
        k = 3000
        late = OrderedTree.from_brackets("(" * k + "()" + "())" * k)
        assert (late.node_count(), late._depth) == (caterpillar(k).node_count(), k + 1)
        assert embed(late, caterpillar(k)) is None
        assert embed(late, late) is not None

    def test_larger_or_deeper_query_misses(self):
        assert embed(caterpillar(10), caterpillar(9)) is None
        assert embed(OrderedTree.from_brackets("(((())))"), T(*[LEAF] * 9)) is None


class TestUniversalTree:
    def test_base_case(self):
        for n in (1, 2, 3):
            assert universal_tree(n, 1, 1, 2) == LEAF

    def test_deep_chain(self):
        u = universal_tree(1, 1, 2000, 1)
        assert u.node_count() == 2000 and u._depth == 2000

    def test_undefined(self):
        with pytest.raises(UndefinedTree):
            universal_tree(2, 3, 2, 2)
        with pytest.raises(UndefinedTree):
            universal_tree(2, 0, 1, 2)

    def test_size_follows_the_recurrence_without_building(self):
        cases = 0
        for n, w, d in itertools.product((1, 2, 3), (1, 2, 3), range(1, 7)):
            for k in range(1, d + 1):
                size = universal_tree(n, k, d, w).node_count()
                assert universal_tree_size(n, k, d, w, size) == size
                # over a smaller cap: a subtree's count above it, no more than the total
                assert size // 2 < universal_tree_size(n, k, d, w, size // 2) <= size
                cases += 1
        assert cases == 189
        assert universal_tree_size(1, 1, 10**9, 1, 1000) == 1001
        with pytest.raises(UndefinedTree):
            universal_tree_size(2, 3, 2, 2, 10)

    def test_2_2_2_3(self):
        u = universal_tree(2, 2, 2, 3)
        assert u._depth == 2
        assert n_strahler(u, 2) == 2

    def test_strahler_exact_when_width_suffices(self):
        for n in (1, 2):
            for d in (1, 2, 3):
                for k in range(1, d + 1):
                    u = universal_tree(n, k, d, n + 1)
                    assert u._depth == d
                    assert n_strahler(u, n) == k

    def test_universal_for_bounded_family(self):
        # finite instance of the universality guarantee
        for n in (1, 2):
            for d in (1, 2, 3):
                for k in range(1, d + 1):
                    for w in (1, 2, 3):
                        u = universal_tree(n, k, d, w)
                        family = [
                            t
                            for t in enumerate_trees(1 + w + w * w + w ** 3, d, w)
                            if n_strahler(t, n) <= k
                        ]
                        ok, bad = is_universal_for(u, family)
                        assert ok, f"n={n} k={k} d={d} w={w} missed {bad}"


def first_miss(host, candidates):
    """is_universal_for's answer, from one `embed` call per candidate."""
    for t in candidates:
        if embed(t, host) is None:
            return False, t
    return True, None


def strahler_family():
    """U(2, 3, 5, 3) and the 14,998 trees of <= 12 nodes, depth <= 5 and
    fan-out <= 3 whose 2-Strahler number is at most 3."""
    family = [t for t in enumerate_trees(12, 5, 3) if n_strahler(t, 2) <= 3]
    assert len(family) == 14998
    return universal_tree(2, 3, 5, 3), family


def complete_ternary(h):
    """2-Strahler number h: every inner node has three children that attain it."""
    t = LEAF
    for _ in range(h - 1):
        t = T(t, t, t)
    return t


class TestIsUniversalFor:
    def test_leaf_always_embeds(self):
        assert is_universal_for(figure_tree(), [LEAF]) == (True, None)

    def test_leaf_host_fails(self):
        ok, bad = is_universal_for(LEAF, [T(LEAF)])
        assert not ok and bad == T(LEAF)

    def test_same_first_miss_as_embed_on_the_criterion_7_grid(self):
        missed = 0
        for n, k, d, w in UNIVERSAL_GRID:
            u = universal_tree(n, k, d, w)
            family = enumerate_trees(1 + w + w**2 + w**3, d, w)
            bounded = [t for t in family if n_strahler(t, n) <= k]
            for candidates in (bounded, family):
                ok, bad = is_universal_for(u, candidates)
                want_ok, want_bad = first_miss(u, candidates)
                assert ok == want_ok and bad is want_bad
                missed += bad is not None
        assert missed > 0

    def test_same_answer_as_embed_on_a_strahler_family(self):
        u, family = strahler_family()
        assert is_universal_for(u, family) == first_miss(u, family) == (True, None)

    def test_planted_miss_is_the_first_miss(self):
        u, family = strahler_family()
        miss = complete_ternary(4)
        assert n_strahler(miss, 2) == 4 and miss._depth <= 5
        candidates = family[:7000] + [miss] + family[7000:]
        ok, bad = is_universal_for(u, candidates)
        assert not ok and bad is miss
        assert first_miss(u, candidates) == (False, miss)

    def test_candidates_from_a_generator_that_drops_each_tree(self):
        # every candidate is built fresh and freed once the next is asked
        # for, so its subtrees' ids are free for the trees that follow
        u, family = strahler_family()
        brackets = [t.to_brackets() for t in family[::10]]
        planted = brackets[:700] + [complete_ternary(4).to_brackets()] + brackets[700:]
        for texts in (brackets, planted):
            ok, bad = is_universal_for(u, (OrderedTree.from_brackets(b) for b in texts))
            want_ok, want_bad = first_miss(u, (OrderedTree.from_brackets(b) for b in texts))
            assert (ok, bad) == (want_ok, want_bad)
        assert not ok and bad == complete_ternary(4)

    def test_answers_without_building_an_embedding(self, monkeypatch):
        def refuse(mapping):
            raise AssertionError("an Embedding was built")

        monkeypatch.setattr(paritykit.trees, "Embedding", refuse)
        with pytest.raises(AssertionError):
            embed(LEAF, LEAF)
        u = universal_tree(2, 2, 3, 3)
        family = [t for t in enumerate_trees(40, 3, 3) if n_strahler(t, 2) <= 2]
        assert is_universal_for(u, family) == (True, None)
        ok, bad = is_universal_for(u, family + [complete_ternary(3)])
        assert not ok and bad == complete_ternary(3)


class TestRepr:
    def test_small_trees_print_their_brackets(self):
        assert repr(LEAF) == "OrderedTree'()'"
        assert repr(T(LEAF, T(LEAF))) == "OrderedTree'(()(()))'"
        chain = OrderedTree.from_brackets("(" * 1000 + ")" * 1000)
        assert repr(chain) == f"OrderedTree{chain.to_brackets()!r}"

    def test_large_trees_print_their_size_and_depth(self):
        # 40 nested (t, t) expand to 2**41 - 1 nodes over 41 shared objects
        big = LEAF
        for _ in range(40):
            big = T(big, big)
        assert repr(big) == f"<OrderedTree of {2**41 - 1} nodes, depth 41>"
        assert repr(T(*[LEAF] * 1000)) == "<OrderedTree of 1001 nodes, depth 2>"


class TestEnumerate:
    def test_single(self):
        assert enumerate_trees(1, 3, 3) == [LEAF]

    def test_equals_the_reference_list_for_list(self):
        for n, d, b in itertools.product(range(1, 9), range(1, 9), range(1, 6)):
            assert enumerate_trees(n, d, b) == reference_trees(n, d, b), (n, d, b)

    def test_equals_the_reference_on_the_criterion_7_families(self):
        for w in (1, 2, 3):
            for d in (1, 2, 3):
                got = enumerate_trees(1 + w + w**2 + w**3, d, w)
                assert got == reference_trees(1 + w + w**2 + w**3, d, w), (w, d)

    def test_a_huge_node_bound_tries_only_sizes_that_exist(self):
        start = time.perf_counter()
        assert enumerate_trees(10**6, 2, 2) == [LEAF, T(LEAF), T(LEAF, LEAF)]
        assert time.perf_counter() - start < 1

    def test_builds_each_tree_once(self, monkeypatch):
        built = []

        def counted(kids):
            built.append(kids)
            return OrderedTree(kids)

        monkeypatch.setattr(paritykit.trees, "OrderedTree", counted)
        trees = enumerate_trees(9, 9, 9)
        # every tree but the shared leaf, and nothing else
        assert len(trees) == 2056 and len(built) == 2055

    def test_hand_count(self):
        got = set(enumerate_trees(3, 2, 2))
        assert got == {LEAF, T(LEAF), T(LEAF, LEAF)}

    def test_catalan_counts(self):
        # ordered trees with n nodes and no branching cap: Catalan(n-1)
        for n, catalan in [(1, 1), (2, 1), (3, 2), (4, 5), (5, 14)]:
            exact = [t for t in enumerate_trees(n, n, n) if t.node_count() == n]
            assert len(exact) == catalan

    def test_unique_and_within_bounds(self):
        trees = enumerate_trees(6, 3, 3)
        assert len(trees) == len(set(trees))
        for t in trees:
            assert t.node_count() <= 6
            assert t._depth <= 3
            assert all(len(n.children) <= 3 for n in _nodes(t))


def _nodes(t):
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


trees_strategy = st.recursive(
    st.just(LEAF),
    lambda kids: st.lists(kids, max_size=4).map(lambda ks: T(*ks)),
    max_leaves=12,
)


def _oracle_depth(t):
    return 1 + max((_oracle_depth(c) for c in t.children), default=0)


def _leaf_count(t):
    """Leaves of t by a walk on an explicit stack, not from the cache."""
    return sum(1 for node in _nodes(t) if not node.children)


def _level_counts(t):
    """At each of depths 1 to 6, by a walk one level at a time: the node
    count, then the counts of nodes with at least 1, 2 and 3 children."""
    counts, level = [], [t]
    for _ in range(_LEVELS):
        level = [c for node in level for c in node.children]
        counts += [sum(1 for node in level if len(node.children) >= c) for c in range(_COUNTS)]
    return counts


def _cached_levels(t):
    """The fields of `t._levels` in `_level_counts`' order, guard bits
    included and the top field unmasked, so that a set guard bit or a stray
    high bit reads as a count no walk gives."""
    levels = t._levels
    top = (_LEVELS * _COUNTS - 1) * _WIDTH
    return [levels >> k & (1 << _WIDTH) - 1 for k in range(0, top, _WIDTH)] + [levels >> top]


def _refuse_search(*args):
    raise AssertionError("searched")


def _measures(t):
    return sum(1 for _ in _nodes(t)), _oracle_depth(t), _leaf_count(t), *_level_counts(t)


class TestProperties:
    @given(trees_strategy)
    @settings(max_examples=120, deadline=None)
    def test_cached_measures(self, t):
        assert t.node_count() == sum(1 for _ in _nodes(t))
        assert t._depth == _oracle_depth(t)
        assert _cached_levels(t) == _level_counts(t)
        assert hash(t) == hash(tuple(hash(c) for c in t.children))

    @given(trees_strategy, st.integers(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_strahler_bounded_by_depth(self, t, n):
        assert 1 <= n_strahler(t, n) <= t._depth

    @given(trees_strategy, st.integers(1, 3), st.integers(0, 2))
    @settings(max_examples=120, deadline=None)
    def test_strahler_antitone_in_n(self, t, n, extra):
        assert n_strahler(t, n + extra) <= n_strahler(t, n)

    @given(trees_strategy, trees_strategy, st.integers(1, 3))
    @settings(max_examples=120, deadline=None)
    def test_embedding_is_strahler_monotone(self, t, host, n):
        if embed(t, host) is not None:
            assert n_strahler(t, n) <= n_strahler(host, n)

    @given(trees_strategy, trees_strategy)
    @settings(max_examples=200, deadline=None)
    def test_embedding_grows_no_pruned_measure(self, t, host):
        # size, depth, leaf count and, at depths 1 to 6, the node counts (the
        # first is the root fan-out) and the counts of nodes with at least 1,
        # 2 and 3 children, each counted by a walk
        if embed(t, host) is not None:
            assert all(a <= b for a, b in zip(_measures(t), _measures(host)))


class TestBrackets:
    @given(st.integers(0, 100000))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, seed):
        t = random_tree(random.Random(seed), 4, 3)
        assert OrderedTree.from_brackets(t.to_brackets()) == t

    @given(trees_strategy)
    @settings(max_examples=80, deadline=None)
    def test_round_trip_generated(self, t):
        assert OrderedTree.from_brackets(t.to_brackets()) == t

    def test_deep_trees_compare_without_recursion(self):
        brackets = "(" * 3000 + ")" * 3000
        a, b = OrderedTree.from_brackets(brackets), OrderedTree.from_brackets(brackets)
        assert a is not b and a == b and hash(a) == hash(b)
        # one level deeper: the innermost leaf gets a child
        other = OrderedTree.from_brackets("(" * 3000 + "()" + ")" * 3000)
        assert a != other and other != a
        assert OrderedTree.from_brackets("(()(()))") != OrderedTree.from_brackets("((())())")
