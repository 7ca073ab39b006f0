import collections
import functools
import itertools
import random
import time

import pytest

from paritykit import transduction
from paritykit.automata import NPTA, acceptance_game, compose_transducer
from paritykit.decomposition import (
    AdChild,
    AttractorDecomposition,
    LabellingPair,
    SegmentedPath,
    _segment_search,
    build_ad,
    tree_shape,
    validate_ad,
)
from paritykit.errors import (
    DEFAULT_STATE_CAP,
    NotBounded,
    NotEven,
    PreconditionFailed,
    StateExplosion,
    TooLarge,
)
from paritykit.games import ADAM, EVE, Index, ParityGame, ParityGraph, solve
from paritykit.lab import (
    GenParams,
    _corpus_params,
    _rng,
    enumerate_regular_trees,
    random_automaton,
    random_bounded_pair,
    random_even_graph,
    random_game,
    random_non_even_graph,
    rejecting_vertices,
)
from paritykit.transduction import (
    LIBERAL,
    LITERAL,
    NEVER,
    _decomposition_signatures,
    eve_wins_reg,
    n_bound_check,
    normalize_output_index,
    reg_machine,
    reg_product,
    strategy_from_bounded_pair,
    synth_from_ad,
)
from paritykit.trees import OrderedTree, enumerate_trees, n_strahler

from corpora import graph_of_tree
from oracles import chain_graph, random_graph


def simulate_reachable_configs(g, J, n):
    """Independent enumeration of reachable (vertex, registers, counters)
    states, straight from the round rules."""
    J = normalize_output_index(J)
    odds = [p for p in range(g.index.lo, g.index.hi + 1) if p % 2 == 1]
    regs = sorted({e // 2 for e in range(J.lo, J.hi + 1) if e % 2 == 0} | ({0} if J.lo == 1 else set()))
    max_even = None
    for p in range(g.index.hi, g.index.lo - 1, -1):
        if p % 2 == 0:
            max_even = p
            break
    init = max_even if max_even is not None else g.index.lo - 1
    start_regs = {j: init for j in regs}
    start_ctrs = {(i, j): 0 for i in odds for j in regs}

    def freeze(v, r, c):
        return (v, tuple(sorted(r.items())), tuple(sorted(c.items())))

    seen = set()
    stack = []
    for v in g.sorted_vertices():
        s = freeze(v, start_regs, start_ctrs)
        if s not in seen:
            seen.add(s)
            stack.append(s)
    while stack:
        v, r_t, c_t = stack.pop()
        r = dict(r_t)
        c = dict(c_t)
        for eid in g.out[v]:
            e = g.edges[eid]
            for j in regs:
                r2, c2 = dict(r), dict(c)
                if j == 0:
                    pass
                elif r2[j] % 2 == 1:
                    if c2[(r2[j], j)] == n:
                        c2[(r2[j], j)] = 0
                        if 2 * j + 1 not in J:
                            continue  # instant loss: play over
                    else:
                        c2[(r2[j], j)] += 1
                choices = [e.priority] if e.priority % 2 == 0 else [
                    i for i in odds if i >= e.priority
                ]
                for i in choices:
                    r3, c3 = dict(r2), dict(c2)
                    for (ki, kj) in list(c3):
                        if ki < i or kj < j:
                            c3[(ki, kj)] = 0
                    r3[j] = i
                    for j2 in regs:
                        if j2 > j and r3[j2] < i:
                            r3[j2] = i
                    s = freeze(e.dst, r3, c3)
                    if s not in seen:
                        seen.add(s)
                        stack.append(s)
    return seen


class TestRegProduct:
    def test_even_loop_eve_wins(self):
        g = ParityGraph.make([0], [(0, 0, 2)])
        assert eve_wins_reg(g, Index(1, 2), 0)

    def test_odd_loop_adam_wins(self):
        g = ParityGraph.make([0], [(0, 0, 1)])
        for n in (0, 1, 2):
            assert not eve_wins_reg(g, Index(1, 2), n)
            assert not eve_wins_reg(g, Index(2, 4), n)

    def test_reachable_states_match_independent_simulation(self):
        rng = random.Random(3)
        for _ in range(12):
            g = random_graph(rng, 3, 3, max_out=2)
            for J, n in [(Index(1, 2), 0), (Index(1, 2), 1), (Index(2, 4), 0)]:
                product = reg_product(g, J, n)
                a_states = sum(1 for s in product.decode if s[0] == "A")
                assert a_states == len(simulate_reachable_configs(g, J, n))

    def test_state_count_within_closed_form(self):
        g = ParityGraph.make([0, 1], [(0, 1, 1), (1, 0, 2)])
        J, n = Index(1, 2), 1
        product = reg_product(g, J, n)
        n_regs, n_counters = 2, 2  # r0, r1; c_{1,0}, c_{1,1}
        size_i = 3  # register values live in [0, 2]
        bound = 2 * (size_i**n_regs) * ((n + 1) ** n_counters)
        a_states = sum(1 for s in product.decode if s[0] == "A")
        assert a_states <= bound

    def test_phase_structure(self):
        g = ParityGraph.make([0], [(0, 0, 1)])
        product = reg_product(g, Index(1, 2), 0)
        game = product.game
        for vid, state in enumerate(product.decode):
            phase = state[0]
            if phase == "A":
                assert game.owner(vid) == ADAM
                for i in game.graph.out[vid]:
                    assert game.graph.edges[i].priority == 0
            elif phase in ("B", "C"):
                assert game.owner(vid) == EVE
            elif phase == "sink":
                outs = game.graph.out[vid]
                assert len(outs) == 1
                assert game.graph.edges[outs[0]].priority == 1

    def test_output_edges_carry_output(self):
        g = ParityGraph.make([0], [(0, 0, 2)])
        product = reg_product(g, Index(1, 2), 0)
        b_vertices = [v for v, s in enumerate(product.decode) if s[0] == "B"]
        priorities = {
            product.game.graph.edges[i].priority
            for v in b_vertices
            for i in product.game.graph.out[v]
        }
        assert priorities == {1, 2}  # r0 outputs 1, r1 outputs 2

    def test_state_cap(self):
        g = ParityGraph.make([0, 1], [(0, 1, 1), (1, 0, 2)])
        with pytest.raises(StateExplosion) as info:
            reg_product(g, Index(1, 4), 2, cap=5)
        assert info.value.construction == "reg_product(J=[1,4], n=2, rule=liberal)"
        assert str(info.value).startswith("reg_product(J=[1,4], n=2, rule=liberal): ")

    def test_game_input_keeps_base_owner(self):
        g = ParityGraph.make([0, 1], [(0, 1, 2), (1, 0, 2)])
        gm = ParityGame.make(g, [0])
        product = reg_product(gm, Index(1, 2), 0)
        for vid, state in enumerate(product.decode):
            if state[0] == "A":
                base = state[1]
                expected = EVE if base == 0 else ADAM
                assert product.game.owner(vid) == expected


class TestEveWinsReg:
    def test_non_even_rejecting_vertices_lose(self):
        for seed in range(10):
            p = GenParams(seed=seed, vertex_count=4, priority_cap=3)
            from paritykit.lab import random_non_even_graph

            g = random_non_even_graph(p, salt=0)
            for v in sorted(rejecting_vertices(g)):
                assert not eve_wins_reg(g, Index(1, 2), 1, v)

    def test_even_graph_wins_with_wide_index(self):
        for seed in range(8):
            p = GenParams(seed=seed, vertex_count=5, priority_cap=4)
            g = random_even_graph(p)
            hi = max((e.priority for e in g.edges), default=0)
            hi += hi % 2
            J = Index(1, max(2, hi))
            assert eve_wins_reg(g, J, 3)

    def test_counter_monotonicity(self):
        rng = random.Random(9)
        for _ in range(12):
            g = random_graph(rng, 4, 3, max_out=2)
            for v in g.sorted_vertices():
                if eve_wins_reg(g, Index(2, 4), 0, v):
                    assert eve_wins_reg(g, Index(2, 4), 1, v)


class TestRegisterGameAgainstZielonka:
    def test_eve_wins_the_register_game_only_where_she_wins_the_base_game(self):
        """Lehtinen's register game on a `ParityGame`: Eve wins it from a
        base vertex only if `solve` gives her that vertex.  At J [1, 2] n 1,
        J [1, 4] n 0 and J [2, 4] n 0 she wins it exactly there on every
        game of this corpus, and at J [1, 2] n 0 on all but one: the 4-vertex
        game of salt 5, where her region has 2 vertices and `solve`'s 4.
        These are observations, not a theorem: Lehtinen's (LICS 2018)
        1 + log2 |V| registers are reached here only by the 4-vertex games
        at J [1, 4], whose registers are {0, 1, 2}."""
        won = states = 0
        for v, salt in itertools.product((4, 6, 8, 10), range(10)):
            game = random_game(GenParams(seed=7, vertex_count=v, priority_cap=6), salt=salt)
            eve_base = solve(game)[0]
            for (lo, hi), n in (((1, 2), 0), ((1, 2), 1), ((1, 4), 0), ((2, 4), 0)):
                product = reg_product(game, Index(lo, hi), n)
                eve_product = solve(product.game)[0]
                eve_reg = {u for u, sid in product.initial.items() if sid in eve_product}
                if (lo, hi, n) == (1, 2, 0):
                    assert eve_reg <= eve_base, (v, salt)
                else:
                    assert eve_reg == eve_base, (v, salt, lo, hi, n)
                won += len(eve_reg)
                states = max(states, len(product.decode))
        # the check is not vacuous: Eve wins somewhere, in products of thousands of states
        assert won > 0 and states > 5000

    def test_more_registers_or_a_larger_counter_bound_never_shrink_eves_region(self):
        """Eve's won base vertices (every vertex a start) never shrink from
        J = [1, 2] to [1, 4] at counter bound 0 or 1, nor from bound 0 to 1 at
        either J.  Observed on this corpus, not proved for this construction,
        so only the inclusions are asserted, never an equality."""
        least = 0
        for v, salt in itertools.product((4, 5, 6), range(10)):
            game = random_game(GenParams(seed=7, vertex_count=v, priority_cap=6), salt=salt)
            won = {}
            for (lo, hi), n in itertools.product(((1, 2), (1, 4)), (0, 1)):
                product = reg_product(game, Index(lo, hi), n)
                eve_product = solve(product.game)[0]
                won[hi, n] = {u for u, sid in product.initial.items() if sid in eve_product}
            for smaller, larger in (((2, 0), (4, 0)), ((2, 1), (4, 1)), ((2, 0), (2, 1)), ((4, 0), (4, 1))):
                assert won[smaller] <= won[larger], (v, salt, smaller, larger)
            least += len(won[2, 0])
        # not vacuous: Eve wins some vertices even with the fewest registers
        assert least > 0


class TestNBoundCheck:
    def pair(self, edges, li, lj, ii=Index(0, 4), jj=Index(1, 2)):
        vs = sorted({v for e in edges for v in e[:2]})
        g = ParityGraph.make(vs, [(s, t, 0) for s, t in edges])
        return LabellingPair.make(g, li, lj, ii, jj)

    def test_single_segment_violates_zero_bound(self):
        pair = self.pair([(0, 1), (1, 1)], (1, 0), (2, 2))
        ok, witness = n_bound_check(pair, 0)
        assert not ok
        assert witness.odd == 1 and witness.even == 2
        assert witness.check(pair)

    def test_witness_check_rejects_each_broken_path(self):
        # edges 0: 0->1, 1: 1->0, 2: 0->0
        pair = self.pair([(0, 1), (1, 0), (0, 0)], (1, 0, 1), (2, 2, 1), jj=Index(1, 2))
        assert SegmentedPath(1, 2, ((0, 1), (0, 1))).check(pair)
        broken = [
            ((0, 1), ()),  # an empty segment
            ((0, 0),),  # a gap inside a segment
            ((0,), (0,)),  # a segment that starts away from the previous end
            ((1,),),  # labelI maximum 0, not the odd 1
            ((2,),),  # labelJ maximum 1, not the even 2
        ]
        assert [SegmentedPath(1, 2, segments).check(pair) for segments in broken] == [False] * 5

    def test_all_even_label_i(self):
        pair = self.pair([(0, 1), (1, 0)], (2, 0), (1, 2))
        for n in (0, 1, 2):
            assert n_bound_check(pair, n)[0]

    def test_witnesses_replay(self):
        rng = random.Random(21)
        for _ in range(40):
            g = random_graph(rng, 5, 0, max_out=2)
            li = tuple(rng.choice([0, 1, 2, 3, 4]) for _ in g.edges)
            lj = tuple(rng.choice([1, 2]) for _ in g.edges)
            pair = LabellingPair.make(g, li, lj, Index(0, 4), Index(1, 2))
            for n in (0, 1):
                ok, witness = n_bound_check(pair, n)
                if not ok:
                    assert len(witness.segments) == n + 1
                    assert witness.check(pair)

    def test_matches_bounded_walk_enumeration(self):
        rng = random.Random(23)

        def oracle(pair, n, max_len=9):
            g = pair.graph
            for odd in pair.index_i.odds():
                for even in pair.index_j.evens():
                    allowed = [
                        i
                        for i in range(len(g.edges))
                        if pair.label_i[i] <= odd and pair.label_j[i] <= even
                    ]
                    out = {}
                    for i in allowed:
                        out.setdefault(g.edges[i].src, []).append(i)

                    def greedy_count(walk):
                        count = 0
                        fi = fj = False
                        for i in walk:
                            fi = fi or pair.label_i[i] == odd
                            fj = fj or pair.label_j[i] == even
                            if fi and fj:
                                count += 1
                                fi = fj = False
                        return count

                    def dfs(v, walk):
                        if greedy_count(walk) >= n + 1:
                            return True
                        if len(walk) == max_len:
                            return False
                        for i in out.get(v, ()):
                            if dfs(g.edges[i].dst, walk + [i]):
                                return True
                        return False

                    if any(dfs(v, []) for v in g.sorted_vertices()):
                        return False
            return True

        for _ in range(25):
            g = random_graph(rng, 4, 0, max_out=2)
            li = tuple(rng.choice([0, 1, 2]) for _ in g.edges)
            lj = tuple(rng.choice([1, 2]) for _ in g.edges)
            pair = LabellingPair.make(g, li, lj, Index(0, 2), Index(1, 2))
            for n in (0, 1):
                ok, _ = n_bound_check(pair, n)
                if not oracle(pair, n):
                    assert not ok

    def test_wide_declared_index_answers_quickly(self):
        wide_i, wide_j = Index(0, 20000), Index(1, 20000)
        start = time.perf_counter()
        unbounded = self.pair([(0, 1), (1, 0)], (19999, 0), (2, 1), wide_i, wide_j)
        ok, witness = n_bound_check(unbounded, 0)
        assert not ok and (witness.odd, witness.even) == (19999, 2)
        assert witness.check(unbounded)
        bounded = self.pair([(0, 1), (1, 0)], (19999, 0), (19999, 2), wide_i, wide_j)
        assert n_bound_check(bounded, 0) == (True, None)
        assert time.perf_counter() - start < 5

    def test_same_first_witness_as_every_declared_pair(self):
        def declared_loop(pair, n):
            for odd in pair.index_i.odds():
                for even in pair.index_j.evens():
                    found = _segment_search(pair.graph, pair.label_i, pair.label_j, odd, even, n)
                    if found is not None:
                        return False, (odd, even, found)
            return True, None

        rng = random.Random(29)
        for _ in range(60):
            g = random_graph(rng, 4, 0, max_out=2)
            li = tuple(rng.choice([0, 3, 4, 5]) for _ in g.edges)
            lj = tuple(rng.choice([1, 3, 4, 6]) for _ in g.edges)
            pair = LabellingPair.make(g, li, lj, Index(0, 9), Index(1, 8))
            for n in (0, 1):
                ok, witness = n_bound_check(pair, n)
                found = None if ok else (witness.odd, witness.even, witness.segments)
                assert (ok, found) == declared_loop(pair, n)

    def test_a_huge_bound_stops_at_the_state_cap(self):
        # two states per segment: the search would need about 2 * 10**6
        pair = self.pair([(0, 0)], (1,), (2,))
        start = time.perf_counter()
        with pytest.raises(StateExplosion) as info:
            n_bound_check(pair, 10**6)
        assert time.perf_counter() - start < 5
        assert info.value.construction.startswith("n_bound_check(")

    def test_monotone_in_n(self):
        for seed in range(10):
            p = GenParams(seed=seed, vertex_count=5, priority_cap=4)
            pair = random_bounded_pair(p, 1)
            assert n_bound_check(pair, 1)[0]
            assert n_bound_check(pair, 2)[0]


class TestStrategyFromBoundedPair:
    def test_trivial_even_pair(self):
        g = ParityGraph.make([0, 1], [(0, 1, 0), (1, 0, 0)])
        pair = LabellingPair.make(g, (2, 0), (2, 2), Index(0, 2), Index(1, 2))
        strat = strategy_from_bounded_pair(pair, 0)
        assert strat.verify()

    def test_random_bounded_pairs_win(self):
        for seed in range(25):
            n = seed % 3
            p = GenParams(seed=seed, vertex_count=5, priority_cap=4)
            pair = random_bounded_pair(p, n)
            assert strategy_from_bounded_pair(pair, n).verify()

    def test_unbounded_pair_rejected(self):
        g = ParityGraph.make([0], [(0, 0, 0)])
        pair = LabellingPair.make(g, (2,), (2,), Index(0, 2), Index(1, 2))
        ok = strategy_from_bounded_pair(pair, 0)
        assert ok.verify()
        bad = LabellingPair.make(
            ParityGraph.make([0, 1], [(0, 1, 0), (1, 0, 0)]),
            (1, 2),
            (2, 2),
            Index(0, 2),
            Index(1, 2),
        )
        with pytest.raises(NotBounded) as err:
            strategy_from_bounded_pair(bad, 0)
        assert err.value.counterexample.check(bad)

    def test_uneven_labellings_name_their_view(self):
        loop = ParityGraph.make([0, 1], [(0, 1, 0), (1, 0, 0)])
        for li, lj, name in (((1, 1), (2, 2), "labelI"), ((2, 0), (1, 1), "labelJ")):
            pair = LabellingPair.make(loop, li, lj, Index(0, 2), Index(1, 2))
            with pytest.raises(NotEven) as err:
                strategy_from_bounded_pair(pair, 0)
            assert str(err.value) == f"{name} view is not even"
            assert err.value.lasso.check(loop)

    def test_an_output_index_shifted_by_even_steps_gives_the_same_strategy(self):
        # the product normalizes J, and the mirror pick reads labelJ shifted alike
        for seed in range(30):
            j = 1 + seed % 2
            n = seed % 3
            p = GenParams(seed=seed, vertex_count=4 + seed % 2, priority_cap=4, index_j=(1, 2 * j))
            pair = random_bounded_pair(p, n)
            strat = strategy_from_bounded_pair(pair, n)
            assert strat.verify()
            for shift in (2, 4):
                moved = LabellingPair.make(
                    pair.graph,
                    pair.label_i,
                    [q + shift for q in pair.label_j],
                    pair.index_i,
                    pair.index_j.shift(shift),
                )
                again = strategy_from_bounded_pair(moved, n)
                assert again.product.game == strat.product.game
                assert again.sigma == strat.sigma

    def test_mirror_strategy_outclasses_never_rule(self):
        # with resets disabled the mirror strategy overflows its counter
        g = ParityGraph.make([0, 1], [(0, 1, 0), (1, 0, 0)])
        pair = LabellingPair.make(g, (3, 4), (2, 2), Index(0, 4), Index(1, 2))
        assert strategy_from_bounded_pair(pair, 1).verify()
        assert not strategy_from_bounded_pair(pair, 1, rule=NEVER).verify()

    def test_literal_rule_pinned_unverified_against_the_paper(self):
        # Pins today's behaviour of the `literal` reset rule, which is not
        # checked against the paper's counter-update definition: on this
        # bounded pair the mirror strategy verifies under `liberal` but not
        # under `literal`, while Eve wins the product from every vertex
        # under both rules (at the strategy's counter bound n + 1).
        p = GenParams(seed=21057, vertex_count=5, priority_cap=4)
        pair = random_bounded_pair(p, 2, salt=31)
        assert strategy_from_bounded_pair(pair, 2, rule=LIBERAL).verify()
        assert not strategy_from_bounded_pair(pair, 2, rule=LITERAL).verify()
        g = pair.graph_i()
        for rule in (LIBERAL, LITERAL):
            assert all(eve_wins_reg(g, pair.index_j, 3, v, rule=rule) for v in g.vertices)


class TestSynthFromAd:
    def test_leaf_decomposition_uses_low_registers(self):
        g = ParityGraph.make([0], [(0, 0, 2)])
        d = build_ad(g, 2)
        strat = synth_from_ad(g, d, 1)
        assert strat.verify()
        assert strat.product.J == Index(1, 2)

    def test_two_leaf_children_at_h2(self):
        g = ParityGraph.make(
            [0, 1, 2], [(0, 0, 0), (1, 1, 0), (1, 0, 1), (2, 2, 2), (0, 2, 1)]
        )
        d = build_ad(g, 2)
        assert tree_shape(d) == OrderedTree((OrderedTree(), OrderedTree()))
        strat = synth_from_ad(g, d, 1)
        assert strat.product.J == Index(1, 4)
        assert strat.verify()

    def test_random_even_graphs_verified(self):
        for seed in range(30):
            n = 1 + (seed % 2)
            p = GenParams(seed=seed, vertex_count=6, priority_cap=4)
            g = random_even_graph(p)
            h = max((e.priority for e in g.edges), default=0)
            h += h % 2
            d = build_ad(g, h)
            strat = synth_from_ad(g, d, n)
            assert strat.verify()
            assert strat.product.J.hi == 2 * n_strahler(tree_shape(d), n)

    def test_nested_strahler_three_shape(self):
        # two level-4 children, each splitting into two leaves at level 2:
        # classical Strahler 3, so the synthesis must climb to register 3
        g = ParityGraph.make(
            [0, 1, 2, 3],
            [
                (0, 0, 0),          # a1
                (1, 1, 0), (1, 0, 1),  # a2 -> a1 sees 1
                (2, 2, 0), (2, 0, 3),  # b1 -> a1 sees 3
                (3, 3, 0), (3, 2, 1),  # b2 -> b1 sees 1
            ],
            Index(0, 4),
        )
        d = build_ad(g, 4)
        shape = tree_shape(d)
        assert shape.to_brackets() == "((()())(()()))"
        assert n_strahler(shape, 1) == 3
        strat = synth_from_ad(g, d, 1)
        assert strat.product.J == Index(1, 6)
        assert strat.verify()


class TestDecompositionSignatures:
    @staticmethod
    def _nodes(d):
        stack = [((), d)]
        while stack:
            prefix, node = stack.pop()
            yield prefix, node
            for k, child in enumerate(node.children, 1):
                stack.append((prefix + (k, 0), child.sub))

    @staticmethod
    def _shaped(shape, level):
        """A decomposition with the given tree shape and empty vertex sets."""
        kids = tuple(
            AdChild(frozenset(), frozenset(), TestDecompositionSignatures._shaped(c, level - 2))
            for c in shape.children
        )
        return AttractorDecomposition(level, frozenset(), frozenset(), kids)

    def test_each_node_has_its_shape_strahler(self):
        checked = set()
        for shape in enumerate_trees(7, 7, 7):
            d = self._shaped(shape, 2 * shape._depth)
            assert tree_shape(d) == shape
            for n in (1, 2, 3):
                _, info = _decomposition_signatures(d, n)
                for prefix, node in self._nodes(d):
                    assert info[prefix] == (node.level, n_strahler(tree_shape(node), n))
                    checked.add((n, info[prefix][1]))
        assert checked == {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2)}

    def test_chain_of_1200_levels(self):
        start = time.perf_counter()
        d = build_ad(chain_graph(1200), 2 * 1199)
        for n in (1, 2):
            sig, info = _decomposition_signatures(d, n)
            assert len(info) == 1200 and len(sig) == 1200
            assert info[()] == (2398, n_strahler(tree_shape(d), n)) == (2398, 1)
        # rebuilding every subtree's shape took about 7 s per n here
        assert time.perf_counter() - start < 10


class TestGuidedPairStrategy:
    def test_guided_run_pair_wins_at_product_bound(self):
        # pair of labellings from two accepting runs with a supplied guide,
        # played at n = |A||B|+1 counters
        from paritykit.automata import accepting_run, run_pair_labelling
        from paritykit.lab import guided_suite

        a, b, gf, trees = guided_suite()[1]
        n = len(a.states) * len(b.states) + 1
        for t in trees:
            run_b = accepting_run(b, t)
            _run_a, pair = run_pair_labelling(gf, a, b, t, run_b)
            assert n_bound_check(pair, n)[0]
            assert strategy_from_bounded_pair(pair, n).verify()


class TestRoundTrip:
    def test_bounded_pair_to_strahler_to_register_win(self):
        # decompose the memory product, then synthesize a verified win in
        # the register game whose index matches the shape's Strahler number
        from paritykit.decomposition import ad_from_bounded_pair, memory_product

        for seed in range(8):
            j = 1 + (seed % 2)
            m = seed % 2
            p = GenParams(
                seed=seed, vertex_count=5, priority_cap=4, index_j=(1, 2 * j)
            )
            pair = random_bounded_pair(p, m)
            d = ad_from_bounded_pair(pair, m, j)
            gi = memory_product(pair).pair.graph_i()
            h = n_strahler(tree_shape(d), m + 1)
            assert h <= j
            strat = synth_from_ad(gi, d, m + 1)
            assert strat.product.J == Index(1, 2 * h)
            assert strat.verify()


def eve_wins_everywhere(g, J, n):
    product = reg_product(g, J, n)
    return solve(product.game)[0].issuperset(product.initial.values())


class TestTreeShapedGraphs:
    def test_every_small_tree_is_a_canonical_shape(self):
        strahler = collections.Counter()
        for t in enumerate_trees(7, 7, 7):
            g = graph_of_tree(t)
            d = build_ad(g, 2 * t._depth)
            assert tree_shape(d) == t
            assert validate_ad(g, d)
            strahler[n_strahler(t, 1)] += 1
        assert strahler == {1: 7, 2: 189, 3: 1}

    def test_synthesis_above_strahler_number_one(self):
        """synth_from_ad verifies on every tree of <= 6 nodes and depth
        <= 3 at n in {1, 2}, at J = [1, 2h] for the n-Strahler number h.
        The least j with Eve winning at J = [1, 2j] is at most h, and often
        h - 1."""
        table = collections.Counter()
        for t in enumerate_trees(6, 3, 6):
            g = graph_of_tree(t)
            d = build_ad(g, 2 * t._depth)
            for n in (1, 2):
                h = n_strahler(t, n)
                strat = synth_from_ad(g, d, n)
                assert strat.product.J == Index(1, 2 * h)
                assert strat.verify()
                least = next(
                    (j for j in range(1, h + 1) if eve_wins_everywhere(g, Index(1, 2 * j), n + 1)),
                    None,
                )
                assert least is not None
                table[n, h, least] += 1
        # (n, n-Strahler number, least winning j): count
        assert table == {
            (1, 1, 1): 3,
            (1, 2, 1): 22,
            (1, 2, 2): 7,
            (2, 1, 1): 12,
            (2, 2, 1): 19,
            (2, 2, 2): 1,
        }


class TestNormalization:
    def test_output_index_shifts(self):
        assert normalize_output_index(Index(3, 6)) == Index(1, 4)
        assert normalize_output_index(Index(4, 6)) == Index(2, 4)
        assert normalize_output_index(Index(0, 2)) == Index(2, 4)
        assert normalize_output_index(Index(1, 2)) == Index(1, 2)
        # a huge J shifts in one step, not one step per two priorities
        huge = 10**9
        assert normalize_output_index(Index(huge + 1, huge + 4)) == Index(1, 4)
        assert normalize_output_index(Index(huge, huge + 2)) == Index(2, 4)

    def test_shifted_output_index_same_winner(self):
        rng = random.Random(31)
        for _ in range(10):
            g = random_graph(rng, 4, 3, max_out=2)
            v = min(g.vertices)
            assert eve_wins_reg(g, Index(1, 2), 1, v) == eve_wins_reg(
                g, Index(3, 4), 1, v
            )

    def test_shifted_input_index_same_product(self):
        """Shifting input priorities and their declared index by an even
        amount changes no state and no edge of the product."""
        rng = random.Random(32)
        for k in range(40):
            g = random_graph(rng, 4, 3, max_out=2)
            g = g.with_priorities(g.pri, Index(k % 2, 3 + k % 3))
            up = g.with_priorities([p + 2 for p in g.pri], g.index.shift(2))
            for J in (Index(1, 2), Index(1, 4)):
                a, b = reg_product(g, J, 1), reg_product(up, J, 1)
                assert a.decode == b.decode
                ga, gb = a.game.graph, b.game.graph
                assert (ga.src, ga.dst, ga.pri, ga.index) == (gb.src, gb.dst, gb.pri, gb.index)
                assert a.game.eve == b.game.eve


def one_predecessor_corpus():
    """Register products of the first 4 criterion-3 graphs x the nine
    (J, n) x the three reset rules, from their rejecting vertices, and
    game-mode products over the acceptance games of the first 10
    criterion-8 automata on every regular tree of <= 2 nodes, at J = [1, 2]
    and n in {0, 1}."""
    p = GenParams(seed=21057)
    grid = [(J, n) for J in (Index(1, 2), Index(1, 4), Index(2, 4)) for n in (0, 1, 2)]
    for k in range(4):
        g = random_non_even_graph(_corpus_params(p, 5), salt=k)
        starts = sorted(rejecting_vertices(g))
        for (J, n), rule in itertools.product(grid, (LIBERAL, LITERAL, NEVER)):
            yield reg_product(g, J, n, rule=rule, starts=starts)
    trees = enumerate_regular_trees(2)
    for k in range(10):
        a = random_automaton(_rng(p, 8, k))
        for t, n in itertools.product(trees, (0, 1)):
            ag = acceptance_game(a, t)
            yield reg_product(ag.game, Index(1, 2), n, starts=[ag.initial])


class TestOnePredecessorStates:
    def test_b_and_c_states_have_one_in_edge_from_their_origin(self):
        """`reg_product` numbers its "B" and "C" states without a lookup,
        which is sound only because each has one predecessor: a "B" state
        the "A" state of its edge's source with the same config, a "C"
        state the "B" state of the same edge whose register's counter
        effect gives its config (which changes at most one counter)."""
        products = kinds = 0
        for product in one_predecessor_corpus():
            products += 1
            decode, g = product.decode, product.game.graph
            base = product._graph()
            assert len(set(decode)) == len(decode)
            preds = [[] for _ in decode]
            for eid, (s, d) in enumerate(zip(g.src, g.dst)):
                preds[d].append((s, eid))
            for vid, state in enumerate(decode):
                if state[0] == "B":
                    _, edge, cfg = state
                    ((src, _),) = preds[vid]
                    assert decode[src] == ("A", base.src[edge], cfg)
                    kinds |= 1
                elif state[0] == "C":
                    _, edge, jx, mid = state
                    ((src, eid),) = preds[vid]
                    phase, src_edge, cfg = decode[src]
                    assert (phase, src_edge) == ("B", edge)
                    assert g.out[src][jx] == eid
                    assert cfg[0] == mid[0]
                    assert sum(a != b for a, b in zip(cfg[1], mid[1])) <= 1
                    kinds |= 2
        assert products == 4 * 27 + 10 * 26 * 2 and kinds == 3


def machine_builds():
    """Zero-argument builds of every product that steps a register machine
    in the explored-graph corpus of tests/test_games.py and in
    corpora.composed_corpus()."""
    base = GenParams(seed=21057, vertex_count=5, priority_cap=4, edge_density=0.5)
    builds = []
    for salt in range(4):
        g = random_non_even_graph(base, salt=salt)
        for lo, hi in ((1, 2), (1, 4)):
            for n in (0, 1):
                builds.append(functools.partial(reg_product, g, Index(lo, hi), n))
        builds.append(functools.partial(reg_product, random_game(base, salt=salt), Index(1, 2), 1))
    p = GenParams(seed=21057)
    for k in range(8):
        a = random_automaton(_rng(p, 8, k))
        for n in (0, 1):
            builds.append(functools.partial(compose_transducer, a, Index(1, 2), n))
    return builds


def build_answer(built):
    """A register product's decode, columns, Eve's vertices and starts, or
    a composed automaton."""
    if isinstance(built, NPTA):
        return built
    g = built.game.graph
    return built.decode, g.src, g.dst, g.pri, built.game.eve, built.initial


def empty_pool(monkeypatch):
    monkeypatch.setattr(transduction, "_machines", {})
    monkeypatch.setattr(transduction, "_held", 0)


def pooled_entries():
    return sum(len(m._configs) + len(m._steps) for m in transduction._machines.values())


class TestSharedMachines:
    def test_one_machine_per_parameter_set(self, monkeypatch):
        empty_pool(monkeypatch)

        def machine(n, rule):
            return reg_machine(Index(0, 2), Index(1, 2), n, rule, DEFAULT_STATE_CAP, "test")[0]

        for _ in range(2):
            with pytest.raises(PreconditionFailed):
                machine(-1, LIBERAL)
            with pytest.raises(PreconditionFailed):
                machine(1, "sometimes")
        assert transduction._machines == {} and transduction._held == 0
        m = machine(1, LIBERAL)
        assert machine(1, LIBERAL) is m
        assert machine(1, LITERAL) is not m
        assert transduction._held == pooled_entries() == 2

    def test_cold_and_warm_builds_are_equal(self, monkeypatch):
        builds = machine_builds()
        cold = []
        for build in builds:
            empty_pool(monkeypatch)
            cold.append(build_answer(build()))
        for build, answer in reversed(list(zip(builds, cold))):
            assert build_answer(build()) == answer
        # warm builds are served from the tables, which no longer grow
        held, machines = transduction._held, len(transduction._machines)
        assert held == pooled_entries()
        for build, answer in zip(builds, cold):
            assert build_answer(build()) == answer
        assert (transduction._held, len(transduction._machines)) == (held, machines)

    def test_equal_configurations_are_one_object(self, monkeypatch):
        empty_pool(monkeypatch)
        base = GenParams(seed=21057, vertex_count=5, priority_cap=4, edge_density=0.5)
        first = {}
        shared = 0
        for salt in (0, 1):
            g = random_non_even_graph(base, salt=salt)
            assert g.index == Index(0, 4)
            product = reg_product(g, Index(1, 4), 1)
            configs = [state[-1] for state in product.decode if state[0] != "sink"]
            if salt == 0:
                for cfg in configs:
                    assert first.setdefault(cfg, cfg) is cfg
            else:
                for cfg in configs:
                    if cfg in first:
                        assert first[cfg] is cfg
                        shared += 1
        assert len(first) > 100 and shared > 100

    def test_pool_never_holds_more_than_the_cap(self, monkeypatch):
        builds = machine_builds()
        expected = [build_answer(build()) for build in builds]
        cap = 300
        empty_pool(monkeypatch)
        monkeypatch.setattr(transduction, "DEFAULT_STATE_CAP", cap)
        charge = transduction._charge
        fresh_starts = []

        def bounded_charge(machine):
            before = transduction._held
            charge(machine)
            assert transduction._held <= cap
            if transduction._held <= before:
                fresh_starts.append(before)

        monkeypatch.setattr(transduction, "_charge", bounded_charge)
        for build, answer in zip(builds, expected):
            assert build_answer(build()) == answer
            assert transduction._held == pooled_entries() <= cap
        assert len(fresh_starts) > 10 and set(fresh_starts) == {cap}


class TestMachineSizing:
    def test_counter_keys_are_counted_before_they_are_listed(self):
        huge = 10**9
        g = ParityGraph.make([0, 1], [(0, 0, huge), (0, 1, 0), (1, 0, 0)], Index(0, huge))
        a = NPTA.make(("a",), (0,), 0, [(0, "a", 0, 0)], [(huge, huge)], Index(0, huge))
        start = time.perf_counter()
        with pytest.raises(TooLarge) as info:
            reg_product(g, Index(1, 2), 0)
        assert str(info.value) == (
            "reg_product(J=[1,2], n=0, rule=liberal): "
            "2 registers and 1000000000 counter keys exceed the cap 200000"
        )
        with pytest.raises(TooLarge) as info:
            compose_transducer(a, Index(1, 2), 0)
        assert str(info.value).startswith("compose_transducer(J=[1,2], n=0, rule=liberal): ")
        # a huge J is refused by its register count alone
        with pytest.raises(TooLarge):
            reg_product(ParityGraph.make([0], [(0, 0, 2)]), Index(1, huge), 0)
        assert time.perf_counter() - start < 2

    def test_the_cap_itself_is_allowed(self):
        # odds {1, 3} x registers {0, 1, 2}: 6 counter keys
        g = ParityGraph.make([0], [(0, 0, 3)], Index(0, 3))
        with pytest.raises(TooLarge):
            reg_product(g, Index(1, 4), 0, cap=5)
        with pytest.raises(StateExplosion):
            reg_product(g, Index(1, 4), 0, cap=6)
        assert reg_product(g, Index(1, 4), 0).game.graph.vertices
