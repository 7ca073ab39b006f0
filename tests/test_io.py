import pytest

from paritykit import manifests
from paritykit.automata import RegularTree
from paritykit.decomposition import build_ad, validate_ad
from paritykit.errors import DanglingSuccessor, NotExpressible, ParseError, TooLarge
from paritykit.games import ADAM, EVE, Index, Lasso, ParityGame, ParityGraph
from paritykit.lab import (
    GenParams,
    _aut_eventually_b,
    _deterministic_guide,
    random_bounded_pair,
    random_even_graph,
    random_game,
)
from paritykit.transduction import reg_product
from paritykit.trees import OrderedTree

from oracles import chain_graph


class TestRoundTrips:
    def test_graph(self):
        g = random_game(GenParams(seed=1)).graph
        assert manifests.loads(manifests.dumps(g)) == g

    def test_game(self):
        gm = random_game(GenParams(seed=2))
        assert manifests.loads(manifests.dumps(gm)) == gm

    def test_lasso(self):
        lasso = Lasso((0, 1), (2, 3))
        assert manifests.loads(manifests.dumps(lasso)) == lasso

    def test_tree(self):
        t = OrderedTree.from_brackets("((()())(()))")
        assert manifests.loads(manifests.dumps(t)) == t

    def test_decomposition(self):
        g = random_even_graph(GenParams(seed=3, vertex_count=8))
        h = max((e.priority for e in g.edges), default=0)
        h += h % 2
        d = build_ad(g, h)
        assert manifests.loads(manifests.dumps(d)) == d

    def test_decomposition_at_the_nesting_cap(self):
        g = chain_graph(166)
        d = build_ad(g, 2 * 165)
        text = manifests.dumps(d)
        back = manifests.loads(text)
        assert validate_ad(g, back) and manifests.dumps(back) == text
        assert back == d and hash(back) == hash(d)

    def test_pair(self):
        pair = random_bounded_pair(GenParams(seed=4), 1)
        assert manifests.loads(manifests.dumps(pair)) == pair

    def test_automaton_and_regular_tree(self):
        a = _aut_eventually_b()
        assert manifests.loads(manifests.dumps(a)) == a
        t = RegularTree.make(("a", "b"), (1, 0), (0, 1), 0)
        assert manifests.loads(manifests.dumps(t)) == t

    def test_guiding_function(self):
        a = _aut_eventually_b()
        gf = _deterministic_guide(a, a)
        again = manifests.loads(manifests.dumps(gf))
        assert again.table == gf.table

    def test_strategy(self):
        sigma = {0: 3, 2: 5}
        assert manifests.loads(manifests.dumps(sigma)) == sigma

    def test_product(self):
        g = ParityGraph.make([0, 1], [(0, 1, 1), (1, 0, 2)])
        p = reg_product(g, Index(1, 2), 1)
        again = manifests.loads(manifests.dumps(p))
        assert again.decode == p.decode
        assert again.game == p.game


class TestRoundTripProperty:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_random_games_round_trip(self, seed):
        gm = random_game(GenParams(seed=seed, vertex_count=5))
        assert manifests.loads(manifests.dumps(gm)) == gm
        assert manifests.loads(manifests.dumps(gm.graph)) == gm.graph


class TestPgsolver:
    SAMPLE = "parity 1;\n0 3 0 1;\n1 2 1 0,1;\n"

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            manifests.import_pgsolver("parity 0;\n")
        with pytest.raises(ParseError):
            manifests.import_pgsolver("")

    def test_target_priority_conversion(self):
        gm = manifests.import_pgsolver(self.SAMPLE)
        assert gm.graph.vertices == frozenset({0, 1})
        assert gm.owner(0) == EVE and gm.owner(1) == ADAM
        # every edge carries the priority of its target vertex
        for e in gm.graph.edges:
            assert e.priority == {0: 3, 1: 2}[e.dst]

    def test_source_priority_flag(self):
        gm = manifests.import_pgsolver(self.SAMPLE, use_source_priority=True)
        for e in gm.graph.edges:
            assert e.priority == {0: 3, 1: 2}[e.src]

    def test_dangling_successor(self):
        with pytest.raises(DanglingSuccessor):
            manifests.import_pgsolver("parity 1;\n0 1 0 7;\n")

    def test_duplicate_vertex_id_names_its_line(self):
        with pytest.raises(ParseError) as info:
            manifests.import_pgsolver("parity 1;\n0 3 0 1;\n1 2 1 0,1;\n0 1 1 1;\n")
        assert info.value.line == 4
        assert "duplicate vertex id 0" in str(info.value)

    def test_round_trip(self):
        gm = manifests.import_pgsolver(self.SAMPLE)
        again = manifests.import_pgsolver(manifests.export_pgsolver(gm))
        assert again == gm

    def test_not_expressible(self):
        g = ParityGraph.make([0], [(0, 0, 1), (0, 0, 2)])
        gm = ParityGame.make(g, {0: EVE})
        with pytest.raises(NotExpressible):
            manifests.export_pgsolver(gm)


class TestDot:
    def test_tree_single_node(self):
        text = manifests.export_dot(OrderedTree())
        assert text.count("n0") == 1
        assert "->" not in text

    def test_game_node_count(self):
        gm = random_game(GenParams(seed=5, vertex_count=4))
        text = manifests.export_dot(gm)
        assert text.count("shape=") == 4

    def test_deterministic(self):
        gm = random_game(GenParams(seed=6))
        assert manifests.export_dot(gm) == manifests.export_dot(gm)

    def test_decomposition_clusters(self):
        g = random_even_graph(GenParams(seed=7, vertex_count=8))
        h = max((e.priority for e in g.edges), default=0)
        h += h % 2
        d = build_ad(g, h)
        text = manifests.export_dot(d)
        assert "subgraph cluster_0" in text


class TestManifestErrors:
    def test_bad_json(self):
        with pytest.raises(ParseError):
            manifests.loads("not json")

    def test_wrong_format_tag(self):
        with pytest.raises(ParseError):
            manifests.loads('{"format": "other", "kind": "graph", "payload": {}}')

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            manifests.loads(
                '{"format": "paritykit/1", "kind": "mystery", "payload": {}}'
            )

    def test_deep_nesting(self):
        text = '{"format": "paritykit/1", "kind": "tree", "payload": ' + "[" * 5000 + "]" * 5000 + "}"
        with pytest.raises(ParseError, match="nested more than 500 deep"):
            manifests.loads(text)

    def test_dumps_refuses_what_loads_would_reject(self):
        for k in (167, 1200):
            d = build_ad(chain_graph(k), 2 * (k - 1))
            with pytest.raises(TooLarge, match="decomposition manifest: nested more than 500 deep"):
                manifests.dumps(d)

    def test_kind_not_among_the_wanted(self):
        text = manifests.dumps(OrderedTree.from_brackets("(())"))
        assert manifests.loads(text, ("tree",)) == OrderedTree.from_brackets("(())")
        with pytest.raises(ParseError, match="a graph or game manifest is needed, not 'tree'"):
            manifests.loads(text, ("graph", "game"))
