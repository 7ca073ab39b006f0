"""The bounded-pair survey: on seeded bounded pairs, `ad_from_bounded_pair`
must return a decomposition that validates against the pair's memory
product and whose tree-shape has (n+1)-Strahler number at most j.

    PYTHONPATH=src python tests/bounded_survey.py

runs the whole survey, 16,146 calls (`priority_cap` 4 and 6, seeds 1-299,
4-6 vertices, j 1-3 and n 0-2), prints each call that falls short and
exits 1 if there is any.  tests/test_decomposition.py runs a slice of it,
and the two guided pairs below.
"""

import random
import sys

from paritykit.automata import NPTA, accepting_run, compose_transducer, run_pair_labelling
from paritykit.decomposition import (
    LabellingPair,
    ad_from_bounded_pair,
    memory_product,
    tree_shape,
    validate_ad,
)
from paritykit.errors import ParityKitError
from paritykit.games import Index
from paritykit.lab import GenParams, _deterministic_guide, enumerate_regular_trees, random_bounded_pair
from paritykit.trees import n_strahler


def shortfall(pair, n, j):
    """Why `ad_from_bounded_pair(pair, n, j)` falls short, or None."""
    try:
        d = ad_from_bounded_pair(pair, n, j)
    except ParityKitError as err:
        return f"{type(err).__name__}: {err}"
    res = validate_ad(memory_product(pair).pair.graph_i(), d)
    if not res:
        return f"invalid: {res!r}"
    strahler = n_strahler(tree_shape(d), n + 1)
    if strahler > j:
        return f"(n+1)-Strahler number {strahler} exceeds j"
    return None


def random_call(cap, seed, vertices, j, n):
    """The survey's call (pair, n, j) at these parameters."""
    p = GenParams(seed=seed, vertex_count=vertices, priority_cap=cap, index_j=(1, 2 * j))
    return random_bounded_pair(p, n), n, j


def survey(caps=(4, 6), seeds=range(1, 300), vertex_counts=(4, 5, 6), js=(1, 2, 3), ns=(0, 1, 2)):
    """(cap, seed, vertices, j, n) and the shortfall of each call that has one."""
    for cap in caps:
        for seed in seeds:
            for vertices in vertex_counts:
                for j in js:
                    for n in ns:
                        key = (cap, seed, vertices, j, n)
                        why = shortfall(*random_call(*key))
                        if why is not None:
                            yield key, why


def guided_pair(seed, tree):
    """The labelling pair of a seeded deterministic automaton A's run, guided
    along the accepting run of A composed at J [1, 4] and n 0 on regular
    tree number `tree` of at most 2 nodes, with its I index widened to
    [0, 4]."""
    rng = random.Random(seed)
    states = list(range(rng.randint(1, 3)))
    transitions, omega = [], []
    for q in states:
        for letter in ("a", "b"):
            transitions.append((q, letter, rng.choice(states), rng.choice(states)))
            omega.append((rng.randint(0, 3), rng.randint(0, 3)))
    a = NPTA.make(("a", "b"), states, 0, transitions, omega, Index(0, 3))
    c = compose_transducer(a, Index(1, 4), 0)
    t = enumerate_regular_trees(2)[tree]
    pair = run_pair_labelling(_deterministic_guide(a, c), a, c, t, accepting_run(c, t))[1]
    return LabellingPair.make(pair.graph, pair.label_i, pair.label_j, Index(0, 4), pair.index_j)


def main():
    failed = False
    for key, why in survey():
        print("cap={} seed={} vertices={} j={} n={}: ".format(*key) + why)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
