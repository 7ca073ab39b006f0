import random
import time

import pytest

from paritykit import decomposition, manifests
from paritykit.decomposition import (
    AdChild,
    AttractorDecomposition,
    LabellingPair,
    ad_from_bounded_pair,
    ad_reachability_check,
    build_ad,
    is_tight,
    memory_product,
    tree_shape,
    validate_ad,
)
from paritykit.errors import (
    InvalidDecomposition,
    NotBounded,
    NotEven,
    PreconditionFailed,
    PriorityOutOfRange,
    StateExplosion,
    TooLarge,
)
from paritykit.games import Index, ParityGraph, check_even, is_even, unwind
from paritykit.lab import GenParams, random_bounded_pair, random_even_graph
from paritykit.trees import LEAF, OrderedTree, n_strahler

from corpora import repaired_even_graph, validate_corpus, wide_flag_pair
from oracles import brute_is_tight, brute_reachability_check, chain_graph, random_graph


class TestBuildAd:
    def test_single_even_loop(self):
        g = ParityGraph.make([0], [(0, 0, 2)])
        d = build_ad(g, 2)
        assert d.top_edges == frozenset({0})
        assert d.top_attractor == frozenset({0})
        assert d.children == ()

    def test_priority_zero_graph(self):
        g = ParityGraph.make([0, 1], [(0, 1, 0), (1, 0, 0)])
        d = build_ad(g, 0)
        assert d.level == 0
        assert d.top_attractor == g.vertices

    def test_odd_graph_rejected(self):
        g = ParityGraph.make([0], [(0, 0, 1)])
        with pytest.raises(NotEven) as err:
            build_ad(g, 2)
        assert err.value.lasso.cycle == (0,)

    def test_priority_above_level(self):
        g = ParityGraph.make([0], [(0, 0, 4)])
        with pytest.raises(PriorityOutOfRange):
            build_ad(g, 2)

    def test_random_even_graphs_validate(self):
        for seed in range(40):
            p = GenParams(seed=seed, vertex_count=8, priority_cap=4)
            g = random_even_graph(p)
            h = max((e.priority for e in g.edges), default=0)
            h += h % 2
            d = build_ad(g, h)
            assert validate_ad(g, d)
            assert ad_reachability_check(g, d)

    def test_evenness_equivalence(self):
        rng = random.Random(3)
        for _ in range(60):
            g = random_graph(rng, 6, 4)
            h = max((e.priority for e in g.edges), default=0)
            h += h % 2
            try:
                build_ad(g, h)
                built = True
            except NotEven:
                built = False
            assert built == is_even(g)


class TestValidateAd:
    def g(self):
        # two separate even components at different levels
        return ParityGraph.make(
            [0, 1, 2], [(0, 0, 0), (1, 1, 0), (1, 0, 1), (2, 2, 2), (0, 2, 1)]
        )

    def test_canonical_passes(self):
        g = self.g()
        assert validate_ad(g, build_ad(g, 2))

    def test_detects_high_priority_inside_child(self):
        # child subgame containing a level-1 edge
        g = ParityGraph.make([0, 1], [(0, 1, 1), (1, 0, 0)])
        bad = AttractorDecomposition(
            2,
            frozenset(),
            frozenset(),
            (
                AdChild(
                    frozenset({0, 1}),
                    frozenset({0, 1}),
                    AttractorDecomposition(0, frozenset({0, 1}), frozenset({0, 1}), ()),
                ),
            ),
        )
        res = validate_ad(g, bad)
        assert not res and res.clause == "child-priorities"

    def test_detects_missing_coverage(self):
        g = ParityGraph.make([0, 1], [(0, 0, 0), (1, 1, 0)])
        bad = AttractorDecomposition(
            2,
            frozenset(),
            frozenset(),
            (
                AdChild(
                    frozenset({0}),
                    frozenset({0}),
                    AttractorDecomposition(0, frozenset({0}), frozenset({0}), ()),
                ),
            ),
        )
        res = validate_ad(g, bad)
        assert not res and res.clause == "coverage"

    def test_top_edge_connecting_children_stays_excluded(self):
        # a level-2 edge between two child subgames must not leak into them
        g = ParityGraph.make([0, 1], [(0, 0, 0), (0, 1, 2), (1, 1, 0)])
        d = build_ad(g, 2)
        assert validate_ad(g, d)
        assert ad_reachability_check(g, d)


class TestWidth:
    def test_leaf(self):
        g = ParityGraph.make([0], [(0, 0, 2)])
        assert build_ad(g, 2).width() == 0

    def test_widest_node_anywhere(self):
        def node(level, *subs):
            kids = tuple(AdChild(frozenset(), frozenset(), sub) for sub in subs)
            return AttractorDecomposition(level, frozenset(), frozenset(), kids)

        inner = node(2, node(0), node(0))
        assert inner.width() == 2
        assert node(4, inner).width() == 2
        assert node(6, node(4, inner), node(4), node(4)).width() == 3


class TestTreeShape:
    def test_leaf(self):
        g = ParityGraph.make([0], [(0, 0, 2)])
        assert tree_shape(build_ad(g, 2)) == LEAF

    def test_two_children(self):
        g = ParityGraph.make(
            [0, 1, 2], [(0, 0, 0), (1, 1, 0), (1, 0, 1), (2, 2, 2), (0, 2, 1)]
        )
        assert tree_shape(build_ad(g, 2)) == OrderedTree((LEAF, LEAF))

    def test_depth_bounded_by_level(self):
        for seed in range(25):
            p = GenParams(seed=seed, vertex_count=8, priority_cap=4)
            g = random_even_graph(p)
            h = max((e.priority for e in g.edges), default=0)
            h += h % 2
            d = build_ad(g, h)
            assert tree_shape(d)._depth <= h // 2 + 1


class TestIsTight:
    def test_single_child_tight(self):
        g = ParityGraph.make([0], [(0, 0, 0)])
        d = build_ad(g, 2)
        assert is_tight(g, d)

    def test_low_back_edge_between_children(self):
        # second child reaches the first through a priority-0 edge
        g = ParityGraph.make(
            [0, 1], [(0, 0, 0), (1, 1, 0), (1, 0, 1), (1, 0, 0)]
        )
        d = build_ad(g, 2)
        assert len(d.children) == 2
        assert not is_tight(g, d)

    def test_dominated_back_edge_is_tight(self):
        # the only crossing edge carries priority h-1
        g = ParityGraph.make([0, 1], [(0, 0, 0), (1, 1, 0), (1, 0, 1)])
        d = build_ad(g, 2)
        assert len(d.children) == 2
        assert is_tight(g, d)


def simple_pair(label_i, label_j, edges, vertices=None, ii=None, jj=None):
    vs = vertices or sorted({v for e in edges for v in e[:2]})
    g = ParityGraph.make(vs, [(s, t, 0) for s, t, *_ in edges])
    return LabellingPair.make(g, label_i, label_j, ii, jj)


class TestMemoryProduct:
    def test_trivial_memory_without_odd_inputs(self):
        pair = simple_pair(
            (0, 0), (2, 2), [(0, 1), (1, 0)], ii=Index(0, 0), jj=Index(1, 2)
        )
        mp = memory_product(pair)
        # no flag pairs at all: product is the base graph
        assert mp.flag_pairs == ()
        assert len(mp.decode) == 2

    def test_flag_count_bound(self):
        pair = simple_pair(
            (1, 0), (2, 1), [(0, 1), (1, 0)], ii=Index(0, 2), jj=Index(1, 2)
        )
        mp = memory_product(pair)
        # one odd, one even: at most 4 memory states per vertex
        assert len(mp.decode) <= len(pair.graph.vertices) * 4

    def test_state_cap_names_construction(self):
        pair = simple_pair(
            (1, 0), (2, 1), [(0, 1), (1, 0)], ii=Index(0, 2), jj=Index(1, 2)
        )
        size = len(memory_product(pair).decode)
        assert len(memory_product(pair, cap=size).decode) == size
        with pytest.raises(StateExplosion) as info:
            memory_product(pair, cap=size - 1)
        assert info.value.construction == "memory_product(I=[0,2], J=[1,2])"
        # the cleared start states count toward the cap as well
        with pytest.raises(StateExplosion):
            memory_product(pair, cap=1)

    def test_wide_declared_index_raises_too_large_before_building(self):
        start = time.perf_counter()
        wide = simple_pair(
            (1, 2), (2, 2), [(0, 1), (1, 0)], ii=Index(0, 4000), jj=Index(1, 4000)
        )
        with pytest.raises(TooLarge) as info:
            memory_product(wide)
        assert str(info.value).startswith("memory_product(I=[0,4000], J=[1,4000]): 4000000 ")
        assert time.perf_counter() - start < 5
        # I=[0,4] and J=[1,4] declare 2 x 2 flag pairs: a cap of 4 admits them
        pair = simple_pair((1, 2), (2, 2), [(0, 1), (1, 0)], ii=Index(0, 4), jj=Index(1, 4))
        with pytest.raises(TooLarge):
            memory_product(pair, cap=3)
        size = len(memory_product(pair).decode)
        assert size >= 4 and len(memory_product(pair, cap=size).decode) == size

    def test_wide_declared_index_below_the_cap_answers_quickly(self):
        # 445 x 445 flag pairs, whose product the pin wide_memory_product
        # holds; it took 13 s before the flags were stepped by masks
        start = time.perf_counter()
        memory_product(wide_flag_pair())
        assert time.perf_counter() - start < 2

    def test_unfolding_equivalence_to_depth_8(self):
        rng = random.Random(5)
        for _ in range(15):
            g = random_graph(rng, 4, 0, max_out=2)
            li = tuple(rng.choice([0, 1, 2]) for _ in g.edges)
            lj = tuple(rng.choice([1, 2]) for _ in g.edges)
            pair = LabellingPair.make(g, li, lj, Index(0, 2), Index(1, 2))
            mp = memory_product(pair)

            def unfold(graph, labels, start, depth):
                if depth == 0:
                    return frozenset({()})
                out = set()
                for i in graph.out[start]:
                    e = graph.edges[i]
                    for tail in unfold(graph, labels, e.dst, depth - 1):
                        out.add((labels[i],) + tail)
                return frozenset(out)

            for v in g.sorted_vertices():
                base_words = unfold(g, pair.label_i, v, 8)
                prod_words = unfold(
                    mp.pair.graph, mp.pair.label_i, mp.initial[v], 8
                )
                assert base_words == prod_words


class TestAdFromBoundedPair:
    def test_trivial_index(self):
        pair = simple_pair(
            (0, 0), (2, 2), [(0, 1), (1, 0)], ii=Index(0, 0), jj=Index(1, 2)
        )
        d = ad_from_bounded_pair(pair, 1, 1)
        assert d.level == 0
        assert tree_shape(d) == LEAF
        assert n_strahler(tree_shape(d), 1) == 1

    def test_not_bounded_rejected(self):
        # even pair with one (odd, even)-dominated segment violates 0-bound
        pair = TestBoundedPairOffByOne().pair()
        with pytest.raises(NotBounded) as err:
            ad_from_bounded_pair(pair, 0, 1)
        assert err.value.counterexample.check(pair)

    def test_uneven_rejected(self):
        pair = simple_pair((1, 1), (2, 2), [(0, 1), (1, 0)], ii=Index(0, 2), jj=Index(1, 2))
        with pytest.raises(NotEven):
            ad_from_bounded_pair(pair, 2, 1)

    def test_evenness_errors_name_the_view(self):
        loop = [(0, 1), (1, 0)]
        for li, lj, name in (((1, 1), (2, 2), "labelI"), ((2, 0), (1, 1), "labelJ")):
            pair = simple_pair(li, lj, loop, ii=Index(0, 2), jj=Index(1, 2))
            with pytest.raises(NotEven) as err:
                ad_from_bounded_pair(pair, 2, 1)
            assert str(err.value) == f"{name} view is not even"
            assert err.value.lasso.check(pair.graph)
        dead_end = simple_pair((0,), (2,), [(0, 1)], ii=Index(0, 0), jj=Index(1, 2))
        with pytest.raises(PreconditionFailed) as err:
            ad_from_bounded_pair(dead_end, 2, 1)
        assert err.value.name == "evenness"
        assert str(err.value) == "precondition failed: evenness (terminal vertex 1)"

    def test_random_pairs_validate_and_bound(self):
        for seed in range(30):
            j = 1 + (seed % 2)
            m = seed % 3
            p = GenParams(
                seed=seed, vertex_count=5, priority_cap=4, index_j=(1, 2 * j)
            )
            pair = random_bounded_pair(p, m)
            d = ad_from_bounded_pair(pair, m, j)
            mp = memory_product(pair)
            assert validate_ad(mp.pair.graph_i(), d)
            assert ad_reachability_check(mp.pair.graph_i(), d)
            assert n_strahler(tree_shape(d), m + 1) <= j


class TestReachChecksAgainstOracle:
    def test_reachability_holds_wherever_validate_ad_holds(self):
        """`ad_reachability_check` never refuses a decomposition that
        `validate_ad` accepts; it refuses some that `validate_ad` refuses."""
        verdicts = [(bool(validate_ad(g, d)), ad_reachability_check(g, d)) for g, d in validate_corpus()]
        assert verdicts.count((True, True)) == 503 and verdicts.count((True, False)) == 0
        assert verdicts.count((False, False)) == 28 and verdicts.count((False, True)) == 1283 - 28

    def test_canonical_and_bounded_pair_decompositions(self):
        cases = []
        for salt in range(150):
            for vertices in (6, 12):
                p = GenParams(seed=7, vertex_count=vertices, priority_cap=6)
                g = random_even_graph(p, salt=salt)
                h = max(e.priority for e in g.edges)
                cases.append((g, build_ad(g, h + h % 2)))
        for seed in range(40):
            j = 1 + (seed % 2)
            m = seed % 3
            p = GenParams(seed=seed, vertex_count=5, priority_cap=4, index_j=(1, 2 * j))
            pair = random_bounded_pair(p, m)
            cases.append((memory_product(pair).pair.graph_i(), ad_from_bounded_pair(pair, m, j)))
        not_tight = 0
        for g, d in cases:
            assert validate_ad(g, d)
            assert is_tight(g, d) == brute_is_tight(g, d)
            assert ad_reachability_check(g, d) == brute_reachability_check(g, d)
            not_tight += not is_tight(g, d)
        assert not_tight >= 5


class TestBoundedPairOffByOne:
    """A 1-bound pair whose memory product admits no 1-Strahler-1
    decomposition: the construction's star ranks legitimately reach n+1,
    so the certified bound is the (n+1)-Strahler number."""

    def pair(self):
        g = ParityGraph.make(
            [0, 1, 2, 3],
            [(0, 0, 0), (1, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)],
        )
        return LabellingPair.make(
            g, (0, 0, 0, 1, 0), (2, 2, 2, 1, 2), Index(0, 2), Index(1, 2)
        )

    def test_is_one_bound(self):
        from paritykit.transduction import n_bound_check

        pair = self.pair()
        assert n_bound_check(pair, 1)[0]
        assert not n_bound_check(pair, 0)[0]

    def test_construction_meets_shifted_bound(self):
        pair = self.pair()
        d = ad_from_bounded_pair(pair, 1, 1)
        mp = memory_product(pair)
        assert validate_ad(mp.pair.graph_i(), d)
        shape = tree_shape(d)
        assert n_strahler(shape, 2) <= 1
        assert n_strahler(shape, 1) == 2  # provably unavoidable here


class TestDecompositionPins:
    def test_construction_fails_exactly_on_odd_graphs(self):
        rng = random.Random(77)
        odd = 0
        for k in range(400):
            n, top = rng.choice((1, 3, 5, 8, 20)), rng.choice((1, 2, 3, 4, 5))
            g = random_graph(rng, n, top) if k % 2 else repaired_even_graph(rng, n, top, 0.3)
            h = max(g.pri) + max(g.pri) % 2
            even, _ = check_even(g)
            try:
                unwind(decomposition._build(g, g.vertices, g.cap, h))
                built = True
            except InvalidDecomposition:
                built = False
            assert built == even
            odd += not even
        assert 100 <= odd <= 250


class TestDeepDecompositions:
    def test_chain_of_1200_levels(self):
        start = time.perf_counter()
        g = chain_graph(1200)
        d = build_ad(g, 2 * 1199)
        assert validate_ad(g, d)
        assert d.width() == 1
        assert tree_shape(d)._depth == 1200
        assert is_tight(g, d) and ad_reachability_check(g, d)
        dot = manifests.export_dot(d)
        assert dot.count("subgraph cluster_") == 1200
        assert time.perf_counter() - start < 30

    def test_chains_of_1200_levels_compare_and_hash(self):
        start = time.perf_counter()
        a = build_ad(chain_graph(1200), 2 * 1199)
        b = build_ad(chain_graph(1200), 2 * 1199)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a.children[0] == b.children[0] and hash(a.children[0]) == hash(b.children[0])
        # the same chain with its deepest node one level higher
        nodes = [a]
        while nodes[-1].children:
            nodes.append(nodes[-1].children[0].sub)
        x = nodes.pop()
        c = AttractorDecomposition(x.level + 2, x.top_edges, x.top_attractor, x.children)
        for x in reversed(nodes):
            kid = x.children[0]
            c = AttractorDecomposition(
                x.level, x.top_edges, x.top_attractor, (AdChild(kid.subgame, kid.attractor, c),)
            )
        assert len(nodes) == 1199 and a != c and c != a
        assert time.perf_counter() - start < 30
