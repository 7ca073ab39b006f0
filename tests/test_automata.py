import functools
import gc
import itertools
import random
import tracemalloc

import pytest

from paritykit import manifests
from paritykit.automata import (
    NPTA,
    GuidingFunction,
    RegularTree,
    acceptance_game,
    accepting_run,
    compose_transducer,
    guided_pair_bound_check,
    membership,
    run_graph,
    run_pair_labelling,
)
from paritykit.errors import (
    AlphabetMismatch,
    IncompatibleGuide,
    IncompleteAutomaton,
    NoAcceptingRun,
    PreconditionFailed,
    StateExplosion,
)
from paritykit.games import Index, explore, is_even, solve
from paritykit.lab import (
    GenParams,
    _aut_accept_all,
    _aut_eventually_b,
    _deterministic_guide,
    _rng,
    enumerate_regular_trees,
    guided_negative,
    guided_suite,
    random_automaton,
)
from paritykit.transduction import reg_product

from corpora import composed_corpus, quotient_corpus


def one_node_tree(letter="a"):
    return RegularTree.make((letter,), (0,), (0,), 0)


class TestAcceptanceGame:
    def test_tiny_product(self):
        a = _aut_accept_all()
        ag = acceptance_game(a, one_node_tree())
        assert len(ag.decode) == 2  # (node, state) + (node, transition)
        eve_region, _, _, _ = solve(ag.game)
        assert ag.initial in eve_region

    def test_odd_automaton_loses(self):
        a = NPTA.make(
            ("a", "b"),
            (0,),
            0,
            [(0, "a", 0, 0), (0, "b", 0, 0)],
            [(1, 1), (1, 1)],
            Index(1, 2),
        )
        for t in enumerate_regular_trees(1):
            assert not membership(a, t)

    def test_size_bound(self):
        rng = random.Random(1)
        for _ in range(15):
            a = random_automaton(rng)
            for t in enumerate_regular_trees(2)[:5]:
                ag = acceptance_game(a, t)
                bound = t.node_count() * (len(a.states) + len(a.transitions))
                assert len(ag.decode) <= bound

    def test_alphabet_mismatch(self):
        a = NPTA.make(
            ("a",), (0,), 0, [(0, "a", 0, 0)], [(2, 2)], Index(1, 2)
        )
        with pytest.raises(AlphabetMismatch):
            acceptance_game(a, one_node_tree("b"))

    def test_incomplete_rejected(self):
        with pytest.raises(IncompleteAutomaton):
            NPTA.make(("a", "b"), (0,), 0, [(0, "a", 0, 0)], [(2, 2)], Index(1, 2))


class TestMembership:
    def test_accept_all(self):
        a = _aut_accept_all()
        for t in enumerate_regular_trees(2):
            assert membership(a, t)

    def test_eventually_b(self):
        a = _aut_eventually_b()
        all_a = one_node_tree("a")
        all_b = one_node_tree("b")
        assert not membership(a, all_a)
        assert membership(a, all_b)
        # b on one branch only: root a, left subtree all-a, right all-b
        mixed = RegularTree.make(("a", "a", "b"), (1, 1, 2), (2, 1, 2), 0)
        assert not membership(a, mixed)

    def test_membership_iff_even_run_exists(self):
        rng = random.Random(7)
        for _ in range(10):
            a = random_automaton(rng, max_states=2)
            for t in enumerate_regular_trees(1):
                ag = acceptance_game(a, t)
                eve_vertices = sorted(
                    v for v, s in enumerate(ag.decode) if s[0] == "q"
                )
                choice_lists = [ag.game.graph.out[v] for v in eve_vertices]
                exists = False
                for combo in itertools.product(*choice_lists):
                    sigma = dict(zip(eve_vertices, combo))
                    run = run_graph(a, t, sigma, ag=ag)
                    if is_even(run.graph):
                        exists = True
                        break
                assert exists == membership(a, t)


class TestMembershipQuotient:
    def test_membership_agrees_with_the_full_acceptance_game(self):
        automata, trees = quotient_corpus()
        answers = set()
        for a in automata:
            for t in trees:
                ag = acceptance_game(a, t)
                full = ag.initial in solve(ag.game)[0]
                assert membership(a, t) == full
                answers.add(full)
        assert answers == {True, False}

    def test_errors_match_the_acceptance_game(self, monkeypatch):
        a = NPTA.make(("a",), (0,), 0, [(0, "a", 0, 0)], [(2, 2)], Index(1, 2))
        incomplete = NPTA(("a", "b"), (0,), 0, (0,), ("a",), (0,), (0,), ((2, 2),), Index(1, 2))
        for build in (acceptance_game, membership):
            with pytest.raises(AlphabetMismatch):
                build(a, one_node_tree("b"))
            with pytest.raises(IncompleteAutomaton):
                build(incomplete, one_node_tree("b"))
        monkeypatch.setattr("paritykit.automata.explore", functools.partial(explore, cap=1))
        with pytest.raises(StateExplosion) as info:
            membership(a, one_node_tree())
        assert info.value.construction == "membership(states=1, nodes=1)"

    def test_bisimilar_states_have_equal_tail_sets(self):
        automata, _trees = quotient_corpus()
        letters_checked = 0
        for a in automata:
            rep, tails = a._quotient
            assert set(rep.values()) <= set(a.states)
            for q in a.states:
                assert rep[rep[q]] == rep[q]
                for letter in a.alphabet:
                    seen = {
                        (rep[a.transitions[tid][2]], rep[a.transitions[tid][3]], *a.omega[tid])
                        for tid in a.transitions_from(q, letter)
                    }
                    assert seen == set(tails[rep[q], letter])
                    letters_checked += 1
        assert letters_checked

    def test_classes_are_refined_no_further_than_needed(self):
        # states in different classes differ in some letter's tail set
        automata, _trees = quotient_corpus()
        for a in automata:
            rep, tails = a._quotient
            reps = sorted(set(rep.values()))
            for x, y in itertools.combinations(reps, 2):
                assert any(
                    set(tails[x, letter]) != set(tails[y, letter]) for letter in a.alphabet
                )

    def test_duplicated_transitions_fall_in_their_source_tail(self):
        automata, _trees = quotient_corpus()
        for source, duplicated, copied in zip(automata[::5], automata[1::5], automata[2::5]):
            assert duplicated._quotient == source._quotient
            # every state of `copied` leaves by every transition of the source
            assert set(copied._quotient[0].values()) == {copied.states[0]}

    def test_twin_states_fall_in_their_source_class(self):
        rng = random.Random(41)
        for _ in range(20):
            a = random_automaton(rng)
            k = len(a.states)
            transitions, omega = list(a.transitions), list(a.omega)
            for (q, letter, q0, q1), o in zip(a.transitions, a.omega):
                # each child is the original state or its twin
                q0, q1 = q0 + k * rng.randint(0, 1), q1 + k * rng.randint(0, 1)
                transitions.append((q + k, letter, q0, q1))
                omega.append(o)
            twins = NPTA.make(a.alphabet, range(2 * k), 0, transitions, omega, a.index)
            rep = twins._quotient[0]
            assert all(rep[q + k] == rep[q] for q in a.states)
            assert len(set(rep.values())) == len(set(a._quotient[0].values()))

    def test_some_composed_automaton_has_fewer_classes_than_states(self):
        automata, _trees = quotient_corpus()
        composed = automata[3::5] + automata[4::5]
        assert any(len(set(c._quotient[0].values())) < len(c.states) for c in composed)

    def test_membership_game_no_larger_than_acceptance_game(self, monkeypatch):
        solved = []
        monkeypatch.setattr(
            "paritykit.automata.solve", lambda game: solved.append(game) or solve(game)
        )
        automata, trees = quotient_corpus()
        smaller = 0
        for a in automata:
            for t in trees:
                full = acceptance_game(a, t).game.graph
                membership(a, t)
                quotient = solved.pop().graph
                assert len(quotient.vertices) <= len(full.vertices)
                assert len(quotient.src) <= len(full.src)
                smaller += len(quotient.vertices) < len(full.vertices)
        assert smaller

    def test_incomplete_automaton_names_a_state_of_the_automaton(self):
        # states 0 and 1 are bisimilar; the class of the initial state 1 is named by 0
        a = NPTA(
            ("a", "b"), (0, 1), 1, (0, 1), ("a", "a"), (0, 1), (0, 1), ((2, 2), (2, 2)), Index(1, 2)
        )
        assert a._quotient[0] == {0: 0, 1: 0}
        with pytest.raises(IncompleteAutomaton) as info:
            membership(a, one_node_tree("b"))
        assert str(info.value) == "no transition from 0 over 'b'"


def dominance_corpus():
    """Seeded automata whose quotients hold dominated tails: criterion-8
    automata composed at J=[1,2] with n in {0, 1} and at J=[1,4] with n=1,
    and random automata; each paired with every regular tree of <= 2 nodes."""
    p = GenParams(seed=21057)
    base = {k: random_automaton(_rng(p, 8, k)) for k in (0, 1, 2, 3, 7, 28)}
    automata = [compose_transducer(base[k], Index(1, 2), n) for k in range(4) for n in (0, 1)]
    automata += [compose_transducer(base[k], Index(1, 4), 1) for k in (7, 28)]
    rng = random.Random(2026)
    automata += [random_automaton(rng) for _ in range(20)]
    return automata, enumerate_regular_trees(2)


def eve_prefers(p, q):
    """Whether priority p is at least as good for Eve as q: every odd
    priority is below every even one, a smaller odd priority is better and
    a larger even one is better."""
    if p % 2 != q % 2:
        return p % 2 == 0
    return p >= q if p % 2 == 0 else p <= q


def dominates(u, t):
    """Whether tail u = (q0, q1, p0, p1) dominates another tail t."""
    return u != t and u[:2] == t[:2] and eve_prefers(u[2], t[2]) and eve_prefers(u[3], t[3])


class TestMembershipDominance:
    def test_membership_agrees_with_the_full_acceptance_game(self):
        automata, trees = dominance_corpus()
        answers = set()
        for a in automata:
            for t in trees:
                ag = acceptance_game(a, t)
                full = ag.initial in solve(ag.game)[0]
                assert membership(a, t) == full
                answers.add(full)
        assert answers == {True, False}
        offered = sum(len(tails) for a in automata for tails in a._quotient[1].values())
        kept = sum(len(tails) for a in automata for tails in a._undominated.values())
        assert kept < offered

    def test_entries_are_nonempty_subsequences_of_the_quotient(self):
        automata, _trees = dominance_corpus()
        for a in automata:
            tails = a._quotient[1]
            assert a._undominated.keys() == tails.keys()
            for key, kept in a._undominated.items():
                assert kept
                rest = iter(tails[key])
                assert all(tail in rest for tail in kept)

    def test_exactly_the_dominated_tails_are_removed(self):
        automata, _trees = dominance_corpus()
        for a in automata:
            for key, tails in a._quotient[1].items():
                kept = a._undominated[key]
                for t in tails:
                    if t in kept:
                        assert not any(dominates(u, t) for u in tails)
                    else:
                        assert any(dominates(u, t) for u in kept)


class TestAutomatonFootprint:
    def test_transition_index_is_built_on_first_use(self):
        a = compose_transducer(random_automaton(random.Random(3)), Index(1, 2), 1)
        assert "_by_state_letter" not in a.__dict__
        membership(a, one_node_tree(a.alphabet[0]))
        assert "_by_state_letter" not in a.__dict__
        assert a.transitions_from(a.initial, a.alphabet[0])
        assert "_by_state_letter" in a.__dict__

    def test_equal_priority_pairs_are_one_object(self):
        composed = compose_transducer(random_automaton(random.Random(3)), Index(1, 2), 1)
        loaded = manifests.loads(manifests.dumps(composed))
        for a in (composed, loaded):
            assert len(a.omega) > len(set(a.omega))
            assert len({id(o) for o in a.omega}) == len(set(a.omega))

    def test_incomplete_automaton_names_the_first_missing_pair(self):
        # (1, "a") and (0, "b") are missing; states, then letters, ascend
        transitions = [(1, "b", 0, 0), (0, "a", 1, 1), (2, "a", 2, 2), (2, "b", 2, 2)]
        with pytest.raises(IncompleteAutomaton) as info:
            NPTA.make(("b", "a"), (2, 1, 0), 2, transitions, [(2, 2)] * 4, Index(1, 2))
        assert str(info.value) == "no transition from 0 over 'b'"

    @pytest.mark.parametrize(
        "initial, transitions, omega, message",
        [
            (0, [(0, "a", 0, 0)], [], "omega (priority map must be total on transitions)"),
            (5, [(0, "a", 0, 0)], [(1, 1)], "initial (5 not a state)"),
            ([0], [(0, "a", 0, 0)], [(1, 1)], "initial ([0] not a state)"),
            (0, [(0, "a", 7, 0)], [(1, 1)], "transition (unknown state in (0, 'a', 7, 0))"),
            (0, [(0, "a", [0], 0)], [(1, 1)], "transition (unknown state in (0, 'a', [0], 0))"),
            (0, [(0, "c", 0, 0)], [(1, 1)], "transition (unknown letter in (0, 'c', 0, 0))"),
            (0, [(0, "a", 0, 0)], [(1, 3)], "omega (priorities (1, 3) outside Index(lo=1, hi=2))"),
        ],
    )
    def test_make_names_the_first_fault(self, initial, transitions, omega, message):
        with pytest.raises(PreconditionFailed) as info:
            NPTA.make(("a",), (0,), initial, transitions, omega, Index(1, 2))
        assert str(info.value) == f"precondition failed: {message}"

    def test_transitions_view_reads_as_the_rows(self):
        rows = [(0, "a", 0, 1), (1, "a", 1, 1), (0, "b", 1, 0), (1, "b", 0, 0)]
        a = NPTA.make(("a", "b"), (0, 1), 0, rows, [(1, 2)] * 4, Index(1, 2))
        assert (a.src, a.letter, a.left, a.right) == tuple(zip(*rows))
        view = a.transitions
        assert len(view) == 4 and view == tuple(rows) and list(view) == rows
        assert [view[i] for i in range(-4, 4)] == rows + rows
        assert view[1:3] == tuple(rows[1:3]) and type(view[0]) is tuple
        composed = compose_transducer(a, Index(1, 2), 1)
        assert manifests.loads(manifests.dumps(composed)).transitions == composed.transitions

    def test_automaton_without_transitions(self):
        a = NPTA.make((), (0,), 0, [], [], Index(0, 3))
        assert len(a.transitions) == 0 and a.transitions == ()
        assert manifests.loads(manifests.dumps(a)) == a
        composed = compose_transducer(a, Index(1, 2), 1)
        assert len(composed.states) == 2 and len(composed.transitions) == 0

    def test_composed_transitions_retain_at_most_56_bytes_each(self):
        """Four column references and a shared priority pair are 40 bytes a
        transition; a (state, letter, left, right) tuple per transition
        retained 88.  The shared machine's step rows are filled by a first
        build, so what stays is the automaton."""
        J, p = Index(1, 2), GenParams(seed=21057)
        automata = {k: random_automaton(_rng(p, 8, k)) for k in (0, 11, 39)}
        compose_transducer(automata[0], J, 1)
        for k, a in automata.items():
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                composed = compose_transducer(a, J, 1)
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert retained / len(composed.src) <= 56, (k, retained, len(composed.src))


class TestRunGraph:
    def test_winning_strategy_gives_even_run(self):
        a = _aut_eventually_b()
        t = one_node_tree("b")
        run = accepting_run(a, t)
        assert is_even(run.graph)
        assert len(run.decode) <= t.node_count() * len(a.states)

    def test_rejected_tree_raises(self):
        with pytest.raises(NoAcceptingRun, match="^the automaton rejects the tree$"):
            accepting_run(_aut_eventually_b(), one_node_tree("a"))

    def test_losing_strategy_gives_odd_run(self):
        a = NPTA.make(
            ("a",),
            (0,),
            0,
            [(0, "a", 0, 0), (0, "a", 0, 0)],
            [(1, 1), (2, 2)],
            Index(1, 2),
        )
        t = one_node_tree("a")
        ag = acceptance_game(a, t)
        eve_vertex = next(v for v, s in enumerate(ag.decode) if s[0] == "q")
        losing = {eve_vertex: ag.game.graph.out[eve_vertex][0]}
        run = run_graph(a, t, losing, ag=ag)
        assert not is_even(run.graph)


def assert_directions(run, a, t):
    """Every vertex's direction-i edge leads to successor i of its node, in
    the state the chosen transition sends there, with that transition's
    direction-i priority."""
    edges = run.graph.edges
    for vid, (node, q) in enumerate(run.decode):
        tid = run.chosen[vid]
        _, _, q0, q1 = a.transitions[tid]
        e0, e1 = (edges[i] for i in run.graph.out[vid])
        assert e0.src == e1.src == vid
        assert (run.decode[e0.dst], run.decode[e1.dst]) == ((t.succ0[node], q0), (t.succ1[node], q1))
        assert (e0.priority, e1.priority) == a.omega[tid]


def two_node_tree():
    """Node 0's direction-0 child is node 1, and its direction-1 child is itself."""
    return RegularTree.make(("a", "a"), (1, 1), (0, 1), 0)


def accept_all_a():
    return NPTA.make(("a",), (0,), 0, [(0, "a", 0, 0)], [(2, 2)], Index(1, 2))


class TestRunGraphDirections:
    def test_run_graph_on_two_node_tree(self):
        a = accept_all_a()
        t = two_node_tree()
        ag = acceptance_game(a, t)
        _, _, sigma, _ = solve(ag.game)
        for run in (run_graph(a, t, sigma, ag=ag), accepting_run(a, t)):
            assert len(run.decode) == 2
            assert_directions(run, a, t)

    def test_self_loop_keeps_transition_priorities_in_direction_order(self):
        a = NPTA.make(("a",), (0,), 0, [(0, "a", 0, 0)], [(2, 1)], Index(1, 2))
        t = one_node_tree("a")
        ag = acceptance_game(a, t)
        eve_vertex = ag.initial
        run = run_graph(a, t, {eve_vertex: ag.game.graph.out[eve_vertex][0]}, ag=ag)
        assert_directions(run, a, t)

    def test_guided_run_follows_guide_directions(self):
        a = NPTA.make(
            ("a",), (0, 1), 0, [(0, "a", 1, 0), (1, "a", 1, 1)], [(2, 1), (2, 2)], Index(1, 2)
        )
        b = accept_all_a()
        gf = GuidingFunction.make(a, b, {(0, 0): 0, (1, 0): 1})
        t = two_node_tree()
        run_b = accepting_run(b, t)
        guided, pair = run_pair_labelling(gf, a, b, t, run_b)
        assert guided.decode == ((0, 0), (1, 1))
        assert_directions(guided, a, t)
        # the guide's run carries priority 2 in both directions everywhere
        assert pair.label_i == (2, 1, 2, 2)
        assert pair.label_j == (2, 2, 2, 2)


def direct_guided_transitions(gf, a, b, run_b, depth):
    """The paper-style recursive definition of the rewritten run, computed
    path by path up to the given depth."""
    table = {}

    def rec(path, bvid, p):
        tid_b = run_b.chosen[bvid]
        tid_a = gf.table[(p, tid_b)]
        table[path] = tid_a
        if len(path) == depth:
            return
        _, _, p0, p1 = a.transitions[tid_a]
        e0, e1 = run_b.graph.out[bvid]
        rec(path + (0,), run_b.graph.edges[e0].dst, p0)
        rec(path + (1,), run_b.graph.edges[e1].dst, p1)

    rec((), run_b.root, a.initial)
    return table


def unfold_run(run, depth):
    table = {}

    def rec(path, vid):
        table[path] = run.chosen[vid]
        if len(path) == depth:
            return
        e0, e1 = run.graph.out[vid]
        rec(path + (0,), run.graph.edges[e0].dst)
        rec(path + (1,), run.graph.edges[e1].dst)

    rec((), run.root)
    return table


class TestGuidedRun:
    def test_self_guide_reproduces_run(self):
        a = _aut_eventually_b()
        gf = _deterministic_guide(a, a)
        t = one_node_tree("b")
        run = accepting_run(a, t)
        guided, _pair = run_pair_labelling(gf, a, a, t, run)
        assert unfold_run(guided, 5) == unfold_run(run, 5)

    def test_preserving_guide_accepts(self):
        for a, b, gf, trees in guided_suite():
            for t in trees:
                run_b = accepting_run(b, t)
                guided, _pair = run_pair_labelling(gf, a, b, t, run_b)
                assert is_even(guided.graph)

    def test_depth_6_unfolding_matches_direct_definition(self):
        for a, b, gf, trees in guided_suite()[:3]:
            for t in trees:
                run_b = accepting_run(b, t)
                guided, _pair = run_pair_labelling(gf, a, b, t, run_b)
                assert unfold_run(guided, 6) == direct_guided_transitions(
                    gf, a, b, run_b, 6
                )

    def test_label_j_follows_the_guide_edge_of_each_direction(self):
        # the guide reads 2 in direction 0 and 4 in direction 1, so a label
        # taken from the other direction shows
        b = NPTA.make(("a",), (0,), 0, [(0, "a", 0, 0)], [(2, 4)], Index(1, 4))
        t = RegularTree.make(("a", "a"), (1, 0), (0, 1), 0)
        run_b = accepting_run(b, t)
        guided, pair = run_pair_labelling(_deterministic_guide(b, b), b, b, t, run_b)
        todo, seen = [(guided.root, run_b.root)], set()
        while todo:
            v, w = todo.pop()
            if (v, w) in seen:
                continue
            seen.add((v, w))
            for ge, be in zip(guided.graph.out[v], run_b.graph.out[w]):
                assert pair.label_j[ge] == run_b.graph.pri[be]
                todo.append((guided.graph.dst[ge], run_b.graph.dst[be]))
        assert len(seen) == len(guided.graph.vertices) and set(pair.label_j) == {2, 4}

    def test_incompatible_guide_rejected(self):
        a = _aut_eventually_b()
        b = _aut_accept_all()
        table = {(p, tid): 0 for p in a.states for tid in range(len(b.transitions))}
        with pytest.raises(IncompatibleGuide):
            GuidingFunction.make(a, b, table)

    def test_incompatible_guide_names_both_transitions(self):
        a = _aut_eventually_b()
        b = _aut_accept_all()
        table = {(p, tid): 0 for p in a.states for tid in range(len(b.src))}
        with pytest.raises(IncompatibleGuide) as info:
            GuidingFunction.make(a, b, table)
        expected = "g(0, (0, 'b', 0, 0)) = (0, 'a', 0, 0) is not compatible with state and letter"
        assert str(info.value) == expected

    @pytest.mark.parametrize("entry", [999, -1])
    def test_guide_entry_outside_the_transitions_rejected(self, entry):
        a, b, gf, _trees = guided_suite()[0]
        with pytest.raises(IncompatibleGuide, match=rf"g\(0, 1\) = {entry} is not a transition id"):
            GuidingFunction.make(a, b, {**gf.table, (0, 1): entry})


class TestComposeTransducer:
    def test_state_cap_names_construction(self):
        a = _aut_eventually_b()
        size = compose_transducer(a, Index(1, 2), 1).size()
        assert compose_transducer(a, Index(1, 2), 1, cap=size).size() == size
        with pytest.raises(StateExplosion) as info:
            compose_transducer(a, Index(3, 4), 1, cap=size - 1)
        assert info.value.construction == "compose_transducer(J=[1,2], n=1, rule=liberal)"

    def test_even_automaton_language_preserved_at_n0(self):
        a = _aut_eventually_b()
        composed = compose_transducer(a, Index(1, 2), 0)
        assert composed.index == Index(1, 2)
        for t in enumerate_regular_trees(2):
            assert membership(composed, t) == membership(a, t)

    def test_reject_all_stays_empty(self):
        a = NPTA.make(
            ("a", "b"),
            (0,),
            0,
            [(0, "a", 0, 0), (0, "b", 0, 0)],
            [(1, 1), (1, 1)],
            Index(1, 2),
        )
        composed = compose_transducer(a, Index(1, 2), 1)
        for t in enumerate_regular_trees(1):
            assert not membership(composed, t)

    def test_contract_against_product_on_random_instances(self):
        rng = random.Random(13)
        trees = enumerate_regular_trees(1)
        for _ in range(6):
            a = random_automaton(rng, max_states=2)
            for n in (0, 1):
                composed = compose_transducer(a, Index(1, 2), n)
                for t in trees:
                    ag = acceptance_game(a, t)
                    product = reg_product(
                        ag.game, Index(1, 2), n, starts=[ag.initial]
                    )
                    eve_region, _, _, _ = solve(product.game)
                    rhs = product.initial[ag.initial] in eve_region
                    assert membership(composed, t) == rhs

    def test_composed_automata_pass_the_checked_constructor(self):
        """`compose_transducer` builds its automaton unchecked; `NPTA.make`
        accepts every one and rebuilds it equal."""
        automata, _trees = quotient_corpus()
        # the corpus composes at J [1, 2]; its other automata are at [0, 3]
        composed = [a for a in automata if a.index == Index(1, 2)]
        composed += [c for _k, _n, c in composed_corpus()]
        assert len(composed) == 28
        for c in composed:
            assert NPTA.make(c.alphabet, c.states, c.initial, c.transitions, c.omega, c.index) == c


class TestGuidedPairBoundCheck:
    def test_self_guide_bounded(self):
        a = _aut_eventually_b()
        gf = _deterministic_guide(a, a)
        assert guided_pair_bound_check(a, a, gf, one_node_tree("b"))

    def test_suite_bounded(self):
        for a, b, gf, trees in guided_suite():
            assert len(trees) >= 3
            for t in trees:
                assert guided_pair_bound_check(a, b, gf, t)

    def test_negative_control_fails(self):
        a, b, gf, trees = guided_negative()
        hits = [
            t
            for t in trees
            if membership(b, t) and not guided_pair_bound_check(a, b, gf, t)
        ]
        assert hits

    def test_feasible_register_downward_evidence(self):
        # with a known J-index equivalent and its guide, the transduction
        # game at |A||B|+2 counters decides membership on the corpus
        a, b, gf, trees = guided_suite()[1]
        n = len(a.states) * len(b.states) + 2
        for t in trees + [one_node_tree("a")]:
            ag = acceptance_game(a, t)
            product = reg_product(ag.game, b.index, n, starts=[ag.initial])
            eve_region, _, _, _ = solve(product.game)
            won = product.initial[ag.initial] in eve_region
            assert won == membership(a, t)
