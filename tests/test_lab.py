import random

import pytest

from paritykit import lab
from paritykit.errors import TerminalVertex, TooLarge
from paritykit.games import EVE, ParityGame, ParityGraph, is_even, solve
from paritykit.lab import (
    GenParams,
    brute_solve,
    random_bounded_pair,
    random_even_graph,
    random_game,
    rejecting_vertices,
    run_theorem_battery,
    shrink_game,
)
from paritykit.transduction import n_bound_check

import oracles


def _oracle_corpus(count):
    """Seeded games of 1-8 vertices with gapped ids, priorities up to 2-6
    and out-degree 0-3, so some vertices are terminal; every fifth game has
    no Eve vertex and every fifth after it is all Eve's."""
    games = []
    for seed in range(count):
        rng = random.Random(seed)
        n = 1 + seed % 8
        ids = sorted(rng.sample(range(3 * n), n))
        cap = rng.choice([2, 4, 6])
        edges = [
            (v, rng.choice(ids), rng.randint(0, cap))
            for v in ids
            for _ in range(rng.choice([0, 1, 1, 2, 2, 2, 2, 3]))
        ]
        mode = seed % 5
        eve = [] if mode == 0 else ids if mode == 1 else [v for v in ids if rng.random() < 0.5]
        games.append(ParityGame.make(ParityGraph.make(ids, edges), eve))
    return games


class TestGenerators:
    def test_seed_determinism(self):
        p = GenParams(seed=99)
        assert random_game(p) == random_game(p)
        assert random_even_graph(p) == random_even_graph(p)
        assert random_bounded_pair(p, 1) == random_bounded_pair(p, 1)

    def test_vertex_count_honoured(self):
        for count in (3, 5, 9):
            p = GenParams(seed=5, vertex_count=count)
            assert len(random_game(p).graph.vertices) == count

    def test_no_terminals(self):
        for seed in range(20):
            g = random_game(GenParams(seed=seed)).graph
            assert not g.terminals

    def test_even_graphs_are_even(self):
        for seed in range(20):
            assert is_even(random_even_graph(GenParams(seed=seed)))

    def test_even_graph_shape_census(self):
        # both trivial and multi-vertex strategy graphs occur
        sizes = {
            len(random_even_graph(GenParams(seed=seed)).vertices)
            for seed in range(60)
        }
        assert any(s == 1 for s in sizes)
        assert any(s > 2 for s in sizes)

    def test_bounded_pairs_pass_their_check(self):
        for seed in range(15):
            n = seed % 3
            pair = random_bounded_pair(GenParams(seed=seed), n)
            assert n_bound_check(pair, n)[0]
            assert is_even(pair.graph_i())
            assert is_even(pair.graph_j())


class TestBruteSolve:
    def test_trivial_loops(self):
        g = ParityGraph.make([0], [(0, 0, 2)])
        gm = ParityGame.make(g, {0: "eve"})
        assert brute_solve(gm) == (frozenset({0}), frozenset())
        g1 = ParityGraph.make([0], [(0, 0, 1)])
        gm1 = ParityGame.make(g1, {0: "adam"})
        assert brute_solve(gm1) == (frozenset(), frozenset({0}))

    def test_agrees_with_solve(self):
        for seed in range(60):
            gm = random_game(GenParams(seed=seed, vertex_count=5, priority_cap=4))
            assert brute_solve(gm)[0] == solve(gm)[0]

    def test_agrees_with_the_simple_cycle_oracle(self):
        games = _oracle_corpus(400)
        assert any(gm.graph.sorted_vertices() != list(range(len(gm.graph.vertices))) for gm in games)
        terminal = 0
        for gm in games:
            if gm.graph.terminals:
                terminal += 1
                raised = []
                for solver in (brute_solve, oracles.brute_solve):
                    with pytest.raises(TerminalVertex) as info:
                        solver(gm)
                    raised.append(info.value.vertex)
                assert raised == [min(gm.graph.terminals)] * 2
            else:
                assert brute_solve(gm) == oracles.brute_solve(gm)
        assert terminal == 165

    def test_stops_once_eve_wins_everywhere(self, monkeypatch):
        # 2**17 strategies; the first takes every self-loop of priority 0
        g = ParityGraph.make(
            range(17), [e for v in range(17) for e in ((v, v, 0), (v, (v + 1) % 17, 1))]
        )
        calls = []
        kernel = lab._odd_reach

        def spy(n, edges):
            calls.append(n)
            return kernel(n, edges)

        monkeypatch.setattr(lab, "_odd_reach", spy)
        assert brute_solve(ParityGame.make(g, range(17))) == (g.vertices, frozenset())
        assert calls == [17]

    def test_size_cap(self):
        g = ParityGraph.make(
            range(12), [(v, w, 0) for v in range(12) for w in range(12)]
        )
        gm = ParityGame.make(g, {v: "eve" for v in range(12)})
        with pytest.raises(TooLarge):
            brute_solve(gm, cap=10_000)


class TestRejectingVertices:
    def test_odd_loop(self):
        g = ParityGraph.make([0, 1], [(0, 1, 2), (1, 1, 1)])
        assert rejecting_vertices(g) == frozenset({0, 1})

    def test_even_graph_has_none(self):
        g = ParityGraph.make([0], [(0, 0, 2)])
        assert rejecting_vertices(g) == frozenset()

    def test_agrees_with_the_simple_cycle_definition(self):
        for gm in _oracle_corpus(400):
            g = gm.graph
            on_odd_cycle = {
                g.src[i]
                for cycle in oracles.simple_cycles(g)
                if max(g.pri[i] for i in cycle) % 2 == 1
                for i in cycle
            }
            expected = {v for v in g.vertices if oracles.walk_ends(g, {v}) & on_odd_cycle}
            assert rejecting_vertices(g) == expected


class TestShrink:
    def test_preserves_predicate(self):
        gm = random_game(GenParams(seed=4, vertex_count=6))

        def has_odd_cycle(game):
            return not is_even(game.graph)

        if has_odd_cycle(gm):
            small = shrink_game(gm, has_odd_cycle)
            assert has_odd_cycle(small)
            assert len(small.graph.vertices) <= len(gm.graph.vertices)


class TestBattery:
    def test_empty_instance_count(self):
        report = run_theorem_battery(GenParams(instance_count=0))
        assert report.checks == [] and report.ok

    def test_small_battery_passes(self):
        report = run_theorem_battery(GenParams(seed=3, instance_count=4))
        assert report.ok, report.summary()
        assert len(report.checks) == 10
        assert "pass" in report.summary()

    def test_report_structured_emission(self):
        import json

        report = run_theorem_battery(GenParams(seed=3, instance_count=1))
        doc = json.loads(report.to_json())
        assert doc["ok"] is True
        assert len(doc["checks"]) == 10
        assert all("seconds" in c for c in doc["checks"])

    def test_battery_checks_named_after_criteria(self):
        report = run_theorem_battery(GenParams(seed=3, instance_count=2))
        names = [c.name for c in report.checks]
        assert names == [c.name for c in lab.CRITERIA] == [
            "solver-cross-oracle",
            "evenness-decomposition",
            "transduction-soundness",
            "bounded-pair-completeness",
            "strahler-completeness",
            "bounded-pair-low-strahler",
            "universal-trees",
            "composition-correctness",
            "guided-n-bound",
            "mutation-sensitivity",
        ]
        # each full-scale count scaled by 2 / 100, at least 1; universal-trees
        # runs its small corpus and guided-n-bound its fixed suite
        assert [c.instances for c in report.checks] == [10, 6, 36, 3, 3, 2, 1549, 52, 16, 2]

    def test_products_whose_strategies_fail_verification_are_failures(self, monkeypatch):
        # Adam's strategies "fail": every product of criteria 3 and 8 is reported
        monkeypatch.setattr(lab, "verify_winning", lambda game, sigma, region, player=EVE: player == EVE)
        p = GenParams(seed=3)
        soundness = lab.CRITERIA[2].check(p, 1)
        names = [name for name, _ in soundness.failures]
        assert len(names) == soundness.instances == 9
        assert all(name.startswith("instance 0 J=") and name.endswith("strategies not verified") for name in names)
        composition = lab.CRITERIA[7].check(p, 1)
        names = [name for name, _ in composition.failures]
        assert len(names) == composition.instances
        assert all(name.startswith("automaton 0 tree ") and name.endswith("strategies not verified") for name in names)
