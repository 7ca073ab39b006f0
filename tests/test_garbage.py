"""Every public construction frees its working memory when it returns.

With the cyclic collector off, each call below runs on small fixtures and
must leave nothing that only the collector could free: `gc.collect()`
after it finds no unreachable object.  A function that names itself from
a closure (a recursive inner function, or an inner generator run by
`games.unwind`) would keep its frame state, memo included, alive in a
reference cycle until the next full collection.
"""

import gc
import random

import pytest

from paritykit import manifests
from paritykit.automata import (
    acceptance_game,
    accepting_run,
    compose_transducer,
    guided_pair_bound_check,
    membership,
    run_graph,
    run_pair_labelling,
)
from paritykit.decomposition import (
    ad_from_bounded_pair,
    ad_reachability_check,
    build_ad,
    is_tight,
    memory_product,
    n_bound_check,
    tree_shape,
    validate_ad,
)
from paritykit.games import Index, check_even, solve, verify_winning
from paritykit.lab import (
    GenParams,
    brute_solve,
    enumerate_regular_trees,
    guided_negative,
    guided_suite,
    random_automaton,
    random_bounded_pair,
    random_even_graph,
    random_game,
    random_non_even_graph,
    rejecting_vertices,
)
from paritykit.transduction import eve_wins_reg, reg_product, strategy_from_bounded_pair, synth_from_ad
from paritykit.trees import (
    OrderedTree,
    embed,
    enumerate_trees,
    is_universal_for,
    n_strahler,
    universal_tree,
    universal_tree_size,
)

P = GenParams(seed=21057, vertex_count=5, priority_cap=4)


class Fixtures:
    """Small inputs for every call, built once."""

    def __init__(self):
        self.game = random_game(P)
        self.solved = solve(self.game)
        self.graph = random_even_graph(P)
        self.non_even = random_non_even_graph(P, salt=0)
        self.pair = random_bounded_pair(P, 1)
        self.ad = build_ad(self.graph, 4)
        self.tree = universal_tree(2, 2, 3, 3)
        self.family = enumerate_trees(5, 3, 3)
        self.automaton = random_automaton(random.Random(3))
        self.regular = enumerate_regular_trees(2)
        self.member = next(t for t in self.regular if membership(self.automaton, t))
        self.acceptance = acceptance_game(self.automaton, self.member)
        self.run_choice = solve(self.acceptance.game)[2]
        self.a, self.b, self.guide, trees = guided_suite()[0]
        self.guided_tree = trees[0]
        self.run_b = accepting_run(self.b, self.guided_tree)


CALLS = {
    # trees
    "enumerate_trees(9, 9, 9)": lambda f: enumerate_trees(9, 9, 9),
    "enumerate_trees(40, 3, 3)": lambda f: enumerate_trees(40, 3, 3),
    "universal_tree": lambda f: universal_tree(2, 2, 3, 3),
    "universal_tree_size": lambda f: universal_tree_size(2, 2, 3, 3, 10**6),
    "embed": lambda f: embed(f.family[-1], f.tree),
    "is_universal_for": lambda f: is_universal_for(f.tree, f.family),
    "n_strahler": lambda f: n_strahler(f.tree, 2),
    "brackets": lambda f: OrderedTree.from_brackets(f.tree.to_brackets()),
    # games
    "solve": lambda f: solve(f.game),
    "verify_winning": lambda f: verify_winning(f.game, f.solved[2], f.solved[0]),
    "check_even": lambda f: check_even(f.non_even),
    # decomposition
    "build_ad": lambda f: build_ad(f.graph, 4),
    "validate_ad": lambda f: validate_ad(f.graph, f.ad),
    "ad_reachability_check": lambda f: ad_reachability_check(f.graph, f.ad),
    "tree_shape": lambda f: tree_shape(f.ad),
    "is_tight": lambda f: is_tight(f.graph, f.ad),
    "width": lambda f: f.ad.width(),
    "n_bound_check": lambda f: n_bound_check(f.pair, 1),
    "memory_product": lambda f: memory_product(f.pair),
    "ad_from_bounded_pair": lambda f: ad_from_bounded_pair(f.pair, 1, 1),
    # transduction
    "reg_product": lambda f: reg_product(f.non_even, Index(1, 4), 1),
    "eve_wins_reg": lambda f: eve_wins_reg(f.non_even, Index(1, 4), 1),
    "strategy_from_bounded_pair": lambda f: strategy_from_bounded_pair(f.pair, 1).verify(),
    "synth_from_ad": lambda f: synth_from_ad(f.graph, f.ad, 1).verify(),
    # automata
    "acceptance_game": lambda f: acceptance_game(f.automaton, f.member),
    "membership": lambda f: membership(f.automaton, f.member),
    "accepting_run": lambda f: accepting_run(f.automaton, f.member),
    "run_graph": lambda f: run_graph(f.automaton, f.member, f.run_choice, ag=f.acceptance),
    "compose_transducer": lambda f: compose_transducer(f.automaton, Index(1, 2), 1),
    "run_pair_labelling": lambda f: run_pair_labelling(f.guide, f.a, f.b, f.guided_tree, f.run_b),
    "guided_pair_bound_check": lambda f: guided_pair_bound_check(f.a, f.b, f.guide, f.guided_tree),
    "unfolding_signature": lambda f: f.regular[-1].unfolding_signature(6),
    # lab
    "random_game": lambda f: random_game(P),
    "random_even_graph": lambda f: random_even_graph(P),
    "random_non_even_graph": lambda f: random_non_even_graph(P, salt=0),
    "random_bounded_pair": lambda f: random_bounded_pair(P, 1),
    "random_automaton": lambda f: random_automaton(random.Random(3)),
    "enumerate_regular_trees": lambda f: enumerate_regular_trees(2),
    "guided_suite": lambda f: guided_suite(),
    "guided_negative": lambda f: guided_negative(),
    "brute_solve": lambda f: brute_solve(f.game),
    "rejecting_vertices": lambda f: rejecting_vertices(f.non_even),
    # manifests
    "round trips": lambda f: [
        manifests.loads(manifests.dumps(obj))
        for obj in (f.game, f.graph, f.ad, f.pair, f.tree, f.automaton, f.member)
    ],
    "pgsolver": lambda f: manifests.import_pgsolver(
        manifests.export_pgsolver(manifests.import_pgsolver("parity 1;\n0 2 0 1;\n1 1 1 0;\n"))
    ),
    "export_dot": lambda f: [
        manifests.export_dot(obj) for obj in (f.game, f.ad, f.tree, reg_product(f.non_even, Index(1, 2), 1))
    ],
}


@pytest.fixture(scope="module")
def fixtures():
    return Fixtures()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_leaves_no_cyclic_garbage(name, fixtures):
    call = CALLS[name]
    gc.collect()
    gc.disable()
    try:
        call(fixtures)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
