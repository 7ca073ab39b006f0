"""Metamorphic relations: changes of an input that must not change an answer.

Raising every priority by 2 keeps each parity condition, and renaming the
vertices (or automaton states) by the order-preserving v -> 3v + 7 keeps
the ascending-id contract, so each answer below must map exactly.  Neither
relation needs an oracle, so the corpora can be as large as time allows.
"""

import random

import pytest

from paritykit.automata import NPTA, GuidingFunction, RegularTree, guided_pair_bound_check, membership
from paritykit.decomposition import (
    AdChild,
    AttractorDecomposition,
    LabellingPair,
    SegmentedPath,
    build_ad,
    n_bound_check,
    tree_shape,
    validate_ad,
)
from paritykit.games import Index, ParityGame, ParityGraph, _odd_cycle_witness, solve
from paritykit.lab import (
    GenParams,
    _deterministic_guide,
    enumerate_regular_trees,
    guided_negative,
    guided_suite,
    random_automaton,
    random_non_even_graph,
)
from paritykit.transduction import eve_wins_reg
from paritykit.trees import n_strahler

from corpora import n_bound_corpus, repaired_even_graph
from oracles import random_game, random_graph


def rename(v):
    return 3 * v + 7


def graph(g, shift=0, names=lambda v: v):
    """`g` with every priority raised by `shift` and vertex v named
    names(v); edge ids stay as they are."""
    edges = [(names(s), names(d), p + shift) for s, d, p in zip(g.src, g.dst, g.pri)]
    return ParityGraph.make(map(names, g.vertices), edges, g.index.shift(shift))


def game(gm, shift=0, names=lambda v: v):
    return ParityGame.make(graph(gm.graph, shift, names), map(names, gm.eve))


def renamed(vertices):
    return frozenset(map(rename, vertices))


def renamed_ad(d):
    children = tuple(
        AdChild(renamed(c.subgame), renamed(c.attractor), renamed_ad(c.sub)) for c in d.children
    )
    return AttractorDecomposition(d.level, d.top_edges, renamed(d.top_attractor), children)


def automaton(a, shift=0, names=lambda q: q):
    return NPTA.make(
        a.alphabet,
        map(names, a.states),
        names(a.initial),
        [(names(q), letter, names(q0), names(q1)) for q, letter, q0, q1 in a.transitions],
        [(p0 + shift, p1 + shift) for p0, p1 in a.omega],
        a.index.shift(shift),
    )


def check_solve():
    for seed in range(400):
        rng = random.Random(seed)
        gm = random_game(rng, rng.randint(1, 12), rng.randint(0, 6))
        we, wa, se, sa = solve(gm)
        assert solve(game(gm, shift=2)) == (we, wa, se, sa)
        assert solve(game(gm, names=rename)) == (
            renamed(we),
            renamed(wa),
            {rename(v): e for v, e in se.items()},
            {rename(v): e for v, e in sa.items()},
        )


def check_odd_cycle_witness():
    found = 0
    for seed in range(600):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(1, 12), rng.randint(0, 7), no_terminals=seed % 2 == 0)
        lasso = _odd_cycle_witness(g)
        found += lasso is not None
        assert _odd_cycle_witness(graph(g, shift=2)) == lasso
        assert _odd_cycle_witness(graph(g, names=rename)) == lasso
    assert 100 < found < 600


def check_build_ad():
    for seed in range(300):
        rng = random.Random(seed)
        g = repaired_even_graph(rng, rng.randint(2, 8), 6, 0.3)
        h = max(g.pri) + max(g.pri) % 2
        d = build_ad(g, h)
        up = graph(g, shift=2)
        d_up = build_ad(up, h + 2)
        assert validate_ad(up, d_up)
        assert tree_shape(d_up) == tree_shape(d)
        for n in (1, 2):
            assert n_strahler(tree_shape(d_up), n) == n_strahler(tree_shape(d), n)
        assert build_ad(graph(g, names=rename), h) == renamed_ad(d)


def check_eve_wins_reg():
    verdicts = set()
    for salt in range(16):
        g = random_non_even_graph(GenParams(seed=7, vertex_count=4, priority_cap=3), salt=salt)
        start = min(g.vertices)
        for J in (Index(1, 2), Index(1, 4), Index(2, 4)):
            for n in (0, 1):
                won = eve_wins_reg(g, J, n, start)
                verdicts.add(won)
                assert eve_wins_reg(graph(g, shift=2), J, n, start) == won
                assert eve_wins_reg(g, J.shift(2), n, start) == won
                assert eve_wins_reg(graph(g, names=rename), J, n, rename(start)) == won
    assert verdicts == {True, False}


def check_n_bound_check():
    verdicts = set()
    for pair in n_bound_corpus():
        up = LabellingPair.make(
            pair.graph,
            [p + 2 for p in pair.label_i],
            [p + 2 for p in pair.label_j],
            pair.index_i.shift(2),
            pair.index_j.shift(2),
        )
        moved = LabellingPair.make(
            graph(pair.graph, names=rename), pair.label_i, pair.label_j, pair.index_i, pair.index_j
        )
        for n in (0, 1, 2):
            ok, witness = n_bound_check(pair, n)
            verdicts.add(ok)
            if ok:
                assert n_bound_check(up, n) == n_bound_check(moved, n) == (True, None)
            else:
                raised = SegmentedPath(witness.odd + 2, witness.even + 2, witness.segments)
                assert n_bound_check(up, n) == (False, raised)
                assert n_bound_check(moved, n) == (False, witness)
    assert verdicts == {True, False}


def check_membership():
    trees = enumerate_regular_trees(2)
    verdicts = set()
    for k in range(60):
        a = random_automaton(random.Random(k))
        up, moved = automaton(a, shift=2), automaton(a, names=rename)
        for t in trees:
            accepted = membership(a, t)
            verdicts.add(accepted)
            assert membership(up, t) == membership(moved, t) == accepted
    assert verdicts == {True, False}


def renamed_table(gf):
    """The table of `gf` with the guided automaton's states renamed."""
    return {(rename(p), tid_b): tid_a for (p, tid_b), tid_a in gf.table.items()}


def check_guided_bound():
    # a one-state guide at priority 0 guiding itself on the one-node a-tree
    zero = NPTA.make(("a",), (0,), 0, [(0, "a", 0, 0)], [(0, 0)], Index(0, 2))
    a_tree = RegularTree.make(("a",), (0,), (0,), 0)
    for a in (zero, automaton(zero, shift=2)):
        for b in (zero, automaton(zero, shift=2)):
            assert guided_pair_bound_check(a, b, _deterministic_guide(a, b), a_tree)
    # the guided suite and its negative control, and random guides, whose
    # index [0, 3] holds priority 0, each guiding a random automaton
    cases = [(a, b, gf, t) for a, b, gf, trees in guided_suite() for t in trees]
    a, b, gf, trees = guided_negative()
    cases += [(a, b, gf, t) for t in trees if membership(b, t)]
    trees = enumerate_regular_trees(2)
    for k in range(40):
        a, b = random_automaton(random.Random(100 + k)), random_automaton(random.Random(200 + k))
        cases += [(a, b, _deterministic_guide(a, b), t) for t in trees[::3] if membership(b, t)]
    verdicts = set()
    for a, b, gf, t in cases:
        bounded = guided_pair_bound_check(a, b, gf, t)
        verdicts.add(bounded)
        for shift in (2, 4):
            up_a, up_b = automaton(a, shift=shift), automaton(b, shift=shift)
            assert guided_pair_bound_check(up_a, up_b, gf, t) == bounded
        moved_a, moved_b = automaton(a, names=rename), automaton(b, names=rename)
        moved = GuidingFunction.make(moved_a, moved_b, renamed_table(gf))
        assert guided_pair_bound_check(moved_a, moved_b, moved, t) == bounded
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "check",
    [
        check_solve,
        check_odd_cycle_witness,
        check_build_ad,
        check_eve_wins_reg,
        check_n_bound_check,
        check_membership,
        check_guided_bound,
    ],
    ids=lambda check: check.__name__.removeprefix("check_"),
)
def test_shifts_by_two_and_order_preserving_renamings_keep_every_answer(check):
    check()
