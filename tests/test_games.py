import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritykit import games, manifests
from paritykit.automata import accepting_run, acceptance_game, run_pair_labelling
from paritykit.decomposition import memory_product
from paritykit.errors import (
    NoAcceptingRun,
    ParityKitError,
    StateExplosion,
    StrategyEscapesRegion,
    TerminalVertex,
    UndefinedChoice,
    UsageError,
)
from paritykit.games import (
    ADAM,
    EVE,
    Edge,
    Index,
    Lasso,
    ParityGame,
    ParityGraph,
    attractor_vertices,
    check_even,
    explore,
    is_even,
    player_attractor,
    solve,
    strategy_graph,
    verify_winning,
)
from paritykit.lab import (
    GenParams,
    enumerate_regular_trees,
    guided_suite,
    random_automaton,
    random_bounded_pair,
    random_non_even_graph,
    rejecting_vertices,
)
from paritykit.lab import random_game as lab_random_game
from paritykit.transduction import reg_product

from corpora import verify_corpus
from oracles import (
    brute_attractor_edges,
    brute_attractor_vertices,
    brute_is_even,
    brute_player_attractor,
    brute_solve,
    random_game,
    random_graph,
    simple_cycles,
)


def two_cycle():
    return ParityGraph.make([0, 1], [(0, 1, 2), (1, 0, 1)])


def edge_attractor(g, targets):
    """attr(E', G): vertices whose every infinite path traverses an edge of
    `targets`; `_validate` takes this mode on views with a dead end."""
    return games._attract(g, g.vertices, g.cap, target_edges=frozenset(targets))[0]


class TestSuccessorTables:
    def test_vertices_0_to_n_minus_1_give_list_tables(self):
        g = ParityGraph.make(range(3), [(0, 1, 2), (1, 0, 1), (1, 2, 0), (2, 2, 3)])
        assert g.out == [(0,), (1, 2), (3,)] and g.inc == [(1,), (0,), (2, 3)]
        empty = ParityGraph.make([], [])
        assert empty.out == [] and empty.inc == []

    def test_sparse_pgsolver_ids_give_dict_tables_and_the_same_answers(self):
        rng = random.Random(43)
        for _ in range(30):
            n = rng.randint(2, 12)
            ids = sorted(rng.sample(range(1, 3 * n), n))
            rows = [
                (v, rng.randint(0, 5), rng.randint(0, 1), rng.sample(ids, rng.randint(1, min(3, n))))
                for v in ids
            ]

            def text(name):
                lines = [f"parity {name[ids[-1]]};"]
                for v, p, o, succ in rows:
                    lines.append(f"{name[v]} {p} {o} {','.join(str(name[w]) for w in succ)};")
                return "\n".join(lines) + "\n"

            renumber = {v: k for k, v in enumerate(ids)}
            sparse = manifests.import_pgsolver(text({v: v for v in ids}))
            dense = manifests.import_pgsolver(text(renumber))
            assert type(sparse.graph.out) is dict and type(sparse.graph.inc) is dict
            assert type(dense.graph.out) is list and type(dense.graph.inc) is list
            assert [sparse.graph.out[v] for v in ids] == dense.graph.out
            we, wa, se, sa = solve(sparse)
            assert [{renumber[v] for v in region} for region in (we, wa)] == list(solve(dense)[:2])
            assert verify_winning(sparse, se, we) and verify_winning(sparse, sa, wa, player=ADAM)


class TestAttractors:
    def test_self_loop_edge(self):
        g = ParityGraph.make([0], [(0, 0, 1)])
        assert edge_attractor(g, {0}) == {0}

    def test_all_edges(self):
        g = two_cycle()
        assert edge_attractor(g, {0, 1}) == g.vertices

    def test_avoidance_via_self_loop(self):
        # a -> b is a's only move; b has a self-loop outside the targets
        g = ParityGraph.make([0, 1], [(0, 1, 1), (1, 1, 0), (1, 0, 0)])
        attracted = edge_attractor(g, {0})
        assert 0 in attracted
        assert 1 not in attracted

    def test_empty_and_full_vertex_targets(self):
        g = two_cycle()
        assert attractor_vertices(g, frozenset()) == frozenset()
        assert attractor_vertices(g, g.vertices) == g.vertices

    def test_chain(self):
        g = ParityGraph.make([0, 1, 2], [(0, 1, 0), (1, 2, 0), (2, 2, 0)])
        assert attractor_vertices(g, {2}) == frozenset({0, 1, 2})

    def test_vertex_attractor_matches_brute(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, 6, 3)
            targets = frozenset(rng.sample(g.sorted_vertices(), rng.randint(0, 3)))
            assert attractor_vertices(g, targets) == brute_attractor_vertices(g, targets)

    def test_edge_attractor_matches_brute(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng, 6, 3)
            ids = range(len(g.edges))
            targets = frozenset(i for i in ids if rng.random() < 0.3)
            assert edge_attractor(g, targets) == brute_attractor_edges(g, targets)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_targets(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, 5, 3)
        vs = g.sorted_vertices()
        small = frozenset(v for v in vs if rng.random() < 0.3)
        big = small | frozenset(v for v in vs if rng.random() < 0.3)
        a_small = attractor_vertices(g, small)
        a_big = attractor_vertices(g, big)
        assert a_small <= a_big
        assert small <= a_small


class TestGameOwners:
    def test_a_mapping_is_refused_not_read_for_its_keys(self):
        g = ParityGraph.make([0, 1], [(0, 1, 0), (1, 0, 0)])
        for owner in ({0: "Eve", 1: "eve"}, {}):
            with pytest.raises(UsageError, match="not a mapping"):
                ParityGame.make(g, owner)
        assert ParityGame.make(g, [0, 1]).eve == g.vertices
        assert ParityGame.make(g, ()).adam == g.vertices

    def test_eve_outside_the_vertices_is_refused(self):
        g = ParityGraph.make([0], [(0, 0, 0)])
        with pytest.raises(UsageError, match="eve set not within vertices"):
            ParityGame.make(g, [0, 1])


class TestPlayerAttractor:
    def test_targets_everything(self):
        gm = random_game(random.Random(3), 4, 3)
        region, _ = player_attractor(gm, gm.graph.vertices, EVE)
        assert region == gm.graph.vertices

    def test_single_step(self):
        g = ParityGraph.make([0, 1], [(0, 1, 0), (1, 1, 0)])
        gm = ParityGame.make(g, [0])
        region, strat = player_attractor(gm, {1}, EVE)
        assert region == frozenset({0, 1})
        assert strat == {0: 0}

    def test_matches_game_tree_search(self):
        rng = random.Random(17)
        for _ in range(30):
            gm = random_game(rng, 6, 3)
            targets = frozenset(rng.sample(gm.graph.sorted_vertices(), 2))
            for player in (EVE, ADAM):
                region, strat = player_attractor(gm, targets, player)
                assert region == brute_player_attractor(gm, targets, player)
                for v, i in strat.items():
                    assert gm.owner(v) == player
                    assert gm.graph.edges[i].src == v


class TestEvenness:
    def test_odd_self_loop(self):
        ok, lasso = check_even(ParityGraph.make([0], [(0, 0, 1)]))
        assert not ok
        assert lasso.cycle == (0,)

    def test_even_self_loop(self):
        assert is_even(ParityGraph.make([0], [(0, 0, 2)]))

    def test_terminal_rejected(self):
        g = ParityGraph.make([0], [], Index(0, 0))
        with pytest.raises(TerminalVertex):
            is_even(g)

    def test_matches_cycle_enumeration(self):
        rng = random.Random(19)
        for _ in range(60):
            g = random_graph(rng, 8, 4, max_out=2)
            ok, lasso = check_even(g)
            assert ok == brute_is_even(g)
            if not ok:
                assert lasso.check(g)
                assert max(g.pri[i] for i in lasso.cycle) % 2 == 1


class TestSolve:
    def test_even_loop_eve_wins(self):
        g = ParityGraph.make([0], [(0, 0, 2)])
        gm = ParityGame.make(g, [0])
        we, wa, se, _ = solve(gm)
        assert we == frozenset({0}) and wa == frozenset()
        assert verify_winning(gm, se, we)

    def test_odd_loop_adam_wins(self):
        g = ParityGraph.make([0], [(0, 0, 1)])
        gm = ParityGame.make(g, [])
        we, wa, _, sa = solve(gm)
        assert wa == frozenset({0}) and we == frozenset()
        assert verify_winning(gm, sa, wa, player=ADAM)

    def test_matches_brute_on_random_games(self):
        rng = random.Random(23)
        for _ in range(80):
            gm = random_game(rng, 5, 4, max_out=2)
            we, wa, se, sa = solve(gm)
            bwe, bwa = brute_solve(gm)
            assert we == bwe and wa == bwa
            assert we | wa == gm.graph.vertices and not (we & wa)
            assert verify_winning(gm, se, we)
            assert verify_winning(gm, sa, wa, player=ADAM)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_priority_shift_by_two_preserves_regions(self, seed):
        rng = random.Random(seed)
        gm = random_game(rng, 5, 3)
        g = gm.graph
        pri = [p + 2 for p in g.pri]
        shifted = ParityGame(g.with_priorities(pri, Index(0, max(pri))), gm.eve)
        assert solve(gm)[0] == solve(shifted)[0]


class TestStrategyGraph:
    def test_picks_single_loop(self):
        g = ParityGraph.make([0], [(0, 0, 2), (0, 0, 1)])
        gm = ParityGame.make(g, [0])
        h = strategy_graph(gm, {0: 0}, {0})
        assert len(h.edges) == 1 and h.edges[0].priority == 2

    def test_adam_only_unchanged(self):
        g = two_cycle()
        gm = ParityGame.make(g, [])
        h = strategy_graph(gm, {}, g.vertices)
        assert h.edges == g.edges

    def test_errors(self):
        g = two_cycle()
        gm = ParityGame.make(g, [0])
        with pytest.raises(UndefinedChoice):
            strategy_graph(gm, {}, g.vertices)
        with pytest.raises(StrategyEscapesRegion):
            strategy_graph(gm, {0: 0}, {0})

    def test_winning_strategy_graph_is_even(self):
        rng = random.Random(29)
        hits = 0
        for _ in range(40):
            gm = random_game(rng, 6, 4)
            we, _, se, _ = solve(gm)
            if we:
                hits += 1
                assert is_even(strategy_graph(gm, se, we))
        assert hits > 5


class TestVerifyWinning:
    def test_empty_region_vacuous(self):
        gm = random_game(random.Random(1), 4, 3)
        assert verify_winning(gm, {}, frozenset())

    def test_odd_choice_fails(self):
        g = ParityGraph.make([0], [(0, 0, 2), (0, 0, 1)])
        gm = ParityGame.make(g, [0])
        assert not verify_winning(gm, {0: 1}, {0})
        assert verify_winning(gm, {0: 0}, {0})

    def test_opponent_edge_leaving_region_fails(self):
        # Adam owns both vertices; from 0 he can leave {0} and win at 1
        g = ParityGraph.make([0, 1], [(0, 0, 2), (0, 1, 0), (1, 1, 1)])
        gm = ParityGame.make(g, [])
        assert solve(gm)[0] == frozenset()
        assert not verify_winning(gm, {}, {0})
        assert verify_winning(gm, {1: 2}, {1}, player=ADAM)

    def test_adam_verdict_matches_relabelled_strategy_graph(self):
        # reference: Adam wins iff shifting every priority by one leaves an even graph
        rng = random.Random(31)
        verdicts = []
        for _ in range(60):
            gm = random_game(rng, 6, 4)
            g = gm.graph
            _, wa, _, sa = solve(gm)
            regions = [(wa, sa), (g.vertices, {})] if wa else [(g.vertices, {})]
            for region, sigma in regions:
                adam = [v for v in sorted(region) if v not in gm.eve]
                picked = {v: rng.choice([i for i in g.out[v] if g.edges[i].dst in region]) for v in adam}
                for choice in (sigma, picked):
                    if any(v not in choice for v in adam):
                        continue
                    h = strategy_graph(gm, choice, region, ADAM)
                    verdict = verify_winning(gm, choice, region, player=ADAM)
                    pri = [p + 1 for p in h.pri]
                    assert verdict == is_even(h.with_priorities(pri, Index(0, max(pri))))
                    verdicts.append(verdict)
        assert verdicts.count(True) > 10 and verdicts.count(False) > 10


def lasso_contract_calls():
    """(graph, view) calls on at most 7 vertices: seeded graphs with
    priorities up to 9, ids 0..n-1 or gapped and self-loops, then the
    strategy views that verify_winning searches on verify_corpus()."""
    rng = random.Random(2929)
    for k in range(400):
        n = rng.randint(1, 7)
        vertices = sorted(rng.sample(range(3 * n), n)) if k % 3 == 0 else list(range(n))
        edges = []
        for v in vertices:
            for _ in range(rng.randint(0, 3)):
                edges.append((v, rng.choice(vertices), rng.randint(0, 9)))
            if rng.random() < 0.3:
                edges.append((v, v, rng.randint(0, 9)))
        yield ParityGraph.make(vertices, edges), None
    views = []
    search = games._odd_cycle_witness

    def spy(g, parity=1, view=None):
        views.append((g, view))
        return search(g, parity, view)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(games, "_odd_cycle_witness", spy)
        for gm, sigma, region, player in verify_corpus():
            try:
                verify_winning(gm, sigma, region, player)
            except ParityKitError:
                pass
    yield from ((g, view) for g, view in views if len(view[0]) <= 7)


def contract_first_edge(g, parity, view):
    """The edge the lasso must start at, from simple cycles: for the largest
    p of `parity` that is the maximum of a simple cycle, the first p-edge in
    `ids` order on such a cycle; None if there is no such p."""
    vertices, _, ids = view or (g.vertices, None, range(len(g.pri)))
    sub = ParityGraph.make(vertices, [(g.src[i], g.dst[i], g.pri[i]) for i in ids])
    on_cycles = {}
    for cycle in simple_cycles(sub):
        p = max(sub.pri[j] for j in cycle)
        if p % 2 == parity:
            on_cycles.setdefault(p, set()).update(j for j in cycle if sub.pri[j] == p)
    if not on_cycles:
        return None
    return ids[min(on_cycles[max(on_cycles)])]


class CountingTable(list):
    """A successor table that counts the reads of each vertex's entry."""

    def __init__(self, table):
        super().__init__(table)
        self.reads = Counter()

    def __getitem__(self, v):
        self.reads[v] += 1
        return super().__getitem__(v)


class TestOddCycleWitness:
    def test_lasso_starts_at_the_first_top_edge_on_a_cycle(self):
        below_top, later_edge, views = 0, 0, 0
        for g, view in lasso_contract_calls():
            views += view is not None
            for parity in (1, 0):
                lasso = games._odd_cycle_witness(g, parity, view)
                first = contract_first_edge(g, parity, view)
                assert (lasso is None) == (first is None)
                if lasso is None:
                    continue
                assert lasso.cycle[0] == first and lasso.check(g)
                ids = list(range(len(g.pri)) if view is None else view[2])
                assert set(lasso.cycle) <= set(ids)
                p = g.pri[first]
                below_top += p < max(g.pri[i] for i in ids if g.pri[i] % 2 == parity)
                later_edge += any(g.pri[i] == p for i in ids[: ids.index(first)])
        assert views > 1000 and below_top > 150 and later_edge > 150

    def test_search_stops_in_the_part_where_the_top_cycle_closes(self):
        # part A, vertices 0-1: edge 0 is the first top edge and closes a cycle;
        # part B, vertices 2-41: a ring with top edges and cycles at every level
        edges = [(0, 1, 7), (1, 0, 2)]
        edges += [(v, 2 + (v - 1) % 40, 7 - v % 8) for v in range(2, 42)]
        edges += [(v, v, 5) for v in range(2, 42, 5)]
        g = ParityGraph.make(range(42), edges)
        out = vars(g)["out"] = CountingTable(g.out)
        assert games._odd_cycle_witness(g) == Lasso((), (0, 1))
        assert set(out.reads) <= {0, 1}

    def test_each_level_searches_a_vertex_at_most_once(self):
        # a ring of priority-0 edges into which no odd edge closes: each ring
        # vertex also has edges of priorities 3 and 1 into a sink with a loop
        k = 20
        edges = [(v, (v + 1) % k, 0) for v in range(k)] + [(k, k, 0)]
        edges += [(v, k, p) for v in range(k) for p in (3, 1)]
        g = ParityGraph.make(range(k + 1), edges)
        out = vars(g)["out"] = CountingTable(g.out)
        assert games._odd_cycle_witness(g) is None
        # level 3 reaches the sink from the ring; level 1 only searches the
        # ring, since the sink has a component of its own
        assert out.reads == {**dict.fromkeys(range(k), 2), k: 1}

    def test_even_cycles_match_cycle_enumeration(self):
        rng = random.Random(47)
        seen = 0
        for k in range(80):
            g = random_graph(rng, 8, 4, max_out=2, no_terminals=k % 2 == 0)
            lasso = games._odd_cycle_witness(g, 0)
            even = [c for c in simple_cycles(g) if max(g.pri[i] for i in c) % 2 == 0]
            assert (lasso is None) == (not even)
            if lasso is not None:
                seen += 1
                assert lasso.check(g) and max(g.pri[i] for i in lasso.cycle) % 2 == 0
        assert 10 < seen < 80

    def test_check_rejects_each_broken_lasso(self):
        # edges 0: 0->1, 1: 1->2, 2: 2->1, 3: 2->0
        g = ParityGraph.make([0, 1, 2], [(0, 1, 0), (1, 2, 1), (2, 1, 2), (2, 0, 1)])
        assert Lasso((0,), (1, 2)).check(g)
        broken = [
            Lasso((0, 0), (1, 2)),  # a gap inside the stem
            Lasso((1,), (1, 2)),  # the stem does not lead into the cycle
            Lasso((), (1, 3, 2)),  # a gap inside the cycle, which still closes
            Lasso((), (0, 1)),  # the cycle does not return to its start
        ]
        assert [lasso.check(g) for lasso in broken] == [False] * 4


class TestExplore:
    @staticmethod
    def doubling(limit, calls=None):
        """States 0..limit-1, each with successors 2s and 2s+1 when in range."""

        def expand(state, sid, intern):
            if calls is not None:
                calls.append((state, sid))
            for nxt in (2 * state, 2 * state + 1):
                if nxt < limit:
                    intern(nxt)

        return expand

    def test_numbers_in_discovery_order_and_expands_each_once(self):
        calls = []
        states, start_ids = explore([3, 1], self.doubling(10, calls), "doubling")
        # 3 -> 6, 7; 1 -> 2, (3); 6, 7 -> none; 2 -> 4, 5; 4 -> 8, 9
        assert states == [3, 1, 6, 7, 2, 4, 5, 8, 9]
        assert start_ids == [0, 1]
        assert calls == [(s, sid) for sid, s in enumerate(states)]

    def test_repeated_start_keeps_one_id(self):
        states, start_ids = explore([5, 5], self.doubling(0), "doubling")
        assert states == [5] and start_ids == [0, 0]

    def test_cap_allows_exactly_cap_states(self):
        states, _ = explore([1], self.doubling(8), "doubling", cap=7)
        assert len(states) == 7

    def test_cap_names_the_construction(self):
        with pytest.raises(StateExplosion) as info:
            explore([1], self.doubling(8), "doubling(limit=8)", cap=6)
        err = info.value
        assert (err.count, err.cap, err.construction) == (7, 6, "doubling(limit=8)")
        assert str(err).startswith("doubling(limit=8): ")

    def test_starts_count_toward_the_cap(self):
        with pytest.raises(StateExplosion):
            explore([0, 1, 2], self.doubling(0), "starts", cap=2)

    def test_an_expand_that_returns_true_ends_the_exploration(self):
        calls = []
        grow = self.doubling(10, calls)

        def expand(state, sid, intern):
            grow(state, sid, intern)
            return state == 6

        states, start_ids = explore([3, 1], expand, "doubling")
        # 3 -> 6, 7; 1 -> 2; 6 stops before 7 and 2 are expanded
        assert states == [3, 1, 6, 7, 2] and start_ids == [0, 1]
        assert calls == [(3, 0), (1, 1), (6, 2)]


class TestExploreKnownNewStates:
    """`intern(state, True)` numbers a state its caller knows to be new."""

    @staticmethod
    def binary_tree(limit):
        """States 1..limit-1: each state's children 2s and 2s+1 have one
        parent, so they are numbered new; every state also looks up the
        start, which has id 0."""

        def expand(state, sid, intern):
            for child in (2 * state, 2 * state + 1):
                if child < limit:
                    intern(child, True)
            assert intern(1) == 0

        return expand

    def test_added_states_take_the_next_id_in_discovery_order(self):
        ids = []

        def expand(state, sid, intern):
            if state == "root":
                ids.append(intern("x", True))
                ids.append(intern("y"))
                ids.append(intern("z", True))
            elif state == "y":
                ids.append(intern("w", True))

        states, start_ids = explore(["root"], expand, "mixed")
        assert states == ["root", "x", "y", "z", "w"]
        assert start_ids == [0] and ids == [1, 2, 3, 4]
        states, _ = explore([1], self.binary_tree(16), "tree")
        assert states == list(range(1, 16))

    def test_an_added_state_is_never_looked_up(self):
        def expand(state, sid, intern):
            if sid == 0:
                assert (intern("x", True), intern("x"), intern("x")) == (1, 2, 2)

        states, _ = explore(["root"], expand, "twice")
        assert states == ["root", "x", "x"]

    def test_added_states_count_toward_the_cap(self):
        states, _ = explore([1], self.binary_tree(8), "tree", cap=7)
        assert len(states) == 7
        with pytest.raises(StateExplosion) as info:
            explore([1], self.binary_tree(8), "tree(limit=8)", cap=6)
        err = info.value
        assert (err.count, err.cap, err.construction) == (7, 6, "tree(limit=8)")
        assert str(err).startswith("tree(limit=8): ")

    def test_a_looked_up_state_past_added_ones_overflows(self):
        def expand(state, sid, intern):
            if sid == 0:
                intern("x", True)
                intern("y")

        with pytest.raises(StateExplosion) as info:
            explore(["root"], expand, "mixed", cap=2)
        assert (info.value.count, info.value.cap, info.value.construction) == (3, 2, "mixed")


def solver_corpus():
    """Random games of 4-40 vertices and three criterion-3 register products."""
    rng = random.Random(37)
    corpus = [random_game(rng, rng.randint(4, 40), rng.randint(1, 6)) for _ in range(80)]
    base = GenParams(seed=21057, vertex_count=5, priority_cap=4, edge_density=0.5)
    for salt in range(3):
        g = random_non_even_graph(base, salt=salt)
        corpus.append(reg_product(g, Index(1, 4), 1, starts=sorted(rejecting_vertices(g))).game)
    return corpus


class TestLazySeeding:
    def test_zielonka_views_have_live_moves_and_seed_lazily_as_by_full_scan(self, monkeypatch):
        real_zielonka, real_attract = games._zielonka, games._attract
        views = []
        lazy_calls = []

        def zielonka(game, alive, cap, top=None):
            views.append((game.graph, alive, cap))
            return real_zielonka(game, alive, cap, top)

        def attract(g, alive, cap, *args, live_moves=False, **kwargs):
            got = real_attract(g, alive, cap, *args, live_moves=live_moves, **kwargs)
            if live_moves:
                full = real_attract(g, alive, cap, *args, **kwargs)
                assert got[0] == full[0]
                assert list(got[1].items()) == list(full[1].items())
                lazy_calls.append(len(got[0]))
            return got

        monkeypatch.setattr(games, "_zielonka", zielonka)
        monkeypatch.setattr(games, "_attract", attract)
        for gm in solver_corpus():
            solve(gm)
        for g, alive, cap in views:
            for v in alive:
                assert any(g.pri[i] < cap and g.dst[i] in alive for i in g.out[v])
        assert len(lazy_calls) > 500 and max(lazy_calls) > 1000


class TestInheritedTop:
    def test_solver_attractors_target_the_top_edges_of_a_full_scan(self, monkeypatch):
        real_zielonka, real_attract = games._zielonka, games._attract
        inherited = []
        checked = []

        def zielonka(game, alive, cap, top=None):
            g = game.graph
            if top and any(g.src[i] in alive and g.dst[i] in alive for i in top):
                inherited.append(len(alive))
            return real_zielonka(game, alive, cap, top)

        def attract(g, alive, cap, targets=frozenset(), target_edges=frozenset(), **kwargs):
            if target_edges:
                live = [i for v in alive for i in g.out[v] if g.pri[i] < cap and g.dst[i] in alive]
                d = max(g.pri[i] for i in live)
                assert set(target_edges) == {i for i in live if g.pri[i] == d}
                checked.append(len(target_edges))
            return real_attract(g, alive, cap, targets, target_edges, **kwargs)

        monkeypatch.setattr(games, "_zielonka", zielonka)
        monkeypatch.setattr(games, "_attract", attract)
        corpus = solver_corpus()
        for gm in corpus:
            solve(gm)
        # every root and many second sub-calls find d in the top they inherit
        assert len(inherited) > 2 * len(corpus) and len(checked) > 400


class TestStrategyKeys:
    def test_each_strategy_maps_only_its_players_vertices(self, monkeypatch):
        """`solve` returns `_zielonka`'s strategies unfiltered, and each call
        keeps its sub-calls' strategies whole, which is sound only because
        every move it records is its player's own, inside its region: at
        every call, not only at the root."""
        real_zielonka = games._zielonka
        calls = []

        def zielonka(game, alive, cap, top=None):
            result = yield from real_zielonka(game, alive, cap, top)
            for player, mine in ((EVE, game.eve), (ADAM, game.adam)):
                assert set(result[(player, "s")]) <= mine & result[player]
            calls.append(alive)
            return result

        monkeypatch.setattr(games, "_zielonka", zielonka)
        corpus = solver_corpus()
        for gm in corpus:
            eve_region, adam_region, eve_strat, adam_strat = solve(gm)
            assert set(eve_strat) <= gm.eve & eve_region
            assert set(adam_strat) <= gm.adam & adam_region
        # a sub-call's view is never empty
        assert len(calls) > len(corpus) and all(calls)


def explored_corpus():
    """(graph, skeleton) pairs: a graph from every builder that numbers its
    states with `explore` (skeleton None), and relabelled views of bounded
    pairs and memory products with the graph whose successor tables they
    share."""
    base = GenParams(seed=21057, vertex_count=5, priority_cap=4, edge_density=0.5)
    for salt in range(4):
        g = random_non_even_graph(base, salt=salt)
        for lo, hi in ((1, 2), (1, 4)):
            for n in (0, 1):
                yield reg_product(g, Index(lo, hi), n).game.graph, None
        yield reg_product(lab_random_game(base, salt=salt), Index(1, 2), 1).game.graph, None
    rng = random.Random(41)
    trees = enumerate_regular_trees(2)
    for _ in range(12):
        a = random_automaton(rng)
        for t in rng.sample(trees, 4):
            yield acceptance_game(a, t).game.graph, None
            try:
                yield accepting_run(a, t).graph, None
            except NoAcceptingRun:
                pass
    for a, b, gf, trees in guided_suite():
        for t in trees:
            yield run_pair_labelling(gf, a, b, t, accepting_run(b, t))[0].graph, None
    pair_params = GenParams(seed=21057, vertex_count=5, priority_cap=4, index_j=(1, 2))
    for salt in range(4):
        pair = random_bounded_pair(pair_params, 1, salt=salt)
        mp = memory_product(pair)
        yield mp.pair.graph, None
        for p in (pair, mp.pair):
            yield p.graph_i(), p.graph
            yield p.graph_j(), p.graph
        g = mp.pair.graph
        yield g.with_priorities([i % 5 for i in range(len(g.pri))], Index(0, 4)), g


class TestExploredGraphs:
    def test_every_builder_matches_make_of_the_same_edges(self):
        count = views = 0
        for g, skeleton in explored_corpus():
            ref = ParityGraph.make(g.vertices, g.edges, g.index)
            assert g == ref
            assert g.vertices == frozenset(range(len(g.vertices)))
            assert all(type(e) is Edge for e in g.edges)
            assert g.out == ref.out and g.inc == ref.inc
            if skeleton is not None:
                assert g.out is skeleton.out and g.inc is skeleton.inc
                views += 1
            count += 1
        assert count > 60 and views == 20

    def test_edges_view_reads_as_the_tuple_of_edges(self):
        for g, _skeleton in explored_corpus():
            ref = tuple(Edge(*e) for e in zip(g.src, g.dst, g.pri))
            view = g.edges
            m = len(ref)
            assert len(view) == m
            assert [view[i] for i in range(-m, m)] == [ref[i] for i in range(-m, m)]
            for cut in (slice(None), slice(1, None, 2), slice(-3, None), slice(None, None, -1)):
                assert view[cut] == ref[cut] and type(view[cut]) is tuple
            assert tuple(view) == ref and list(view) == list(ref)
            assert view == ref and ref == view and view == g.edges
            assert view == ParityGraph.make(g.vertices, ref, g.index).edges
            assert view != ref[:-1] and view != list(ref)
            assert all(type(e) is Edge for e in view) and type(view[-1]) is Edge
            with pytest.raises(IndexError):
                view[m]
