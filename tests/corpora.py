"""Seeded corpora of the answer pins (tests/pins.py), shared with the tests
that check other properties on the same inputs.

A corpus that more than one test or pin reads is built once per process:
those functions are cached and return tuples of immutable objects.
"""

import functools
import itertools
import random

from paritykit.automata import NPTA, compose_transducer
from paritykit.decomposition import (
    AdChild,
    AttractorDecomposition,
    LabellingPair,
    ad_from_bounded_pair,
    build_ad,
    memory_product,
)
from paritykit.errors import ParityKitError
from paritykit.games import (
    ADAM,
    EVE,
    Index,
    ParityGame,
    ParityGraph,
    _strategy_view,
    check_even,
    solve,
    strategy_graph,
)
from paritykit.lab import (
    GenParams,
    _rng,
    enumerate_regular_trees,
    random_automaton,
    random_bounded_pair,
    random_even_graph,
    random_non_even_graph,
    rejecting_vertices,
)
from paritykit.transduction import reg_product

from oracles import random_game, random_graph


def witness_corpus():
    """Seeded graphs for the lasso pin: vertex ids 0..n-1 or gapped, self-
    loops of both parities, vertices without out-edges, the sparse
    strategy graphs that verify_winning checks, and explored products
    with relabelled views of them."""
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 12 if seed % 4 else 80)
        vertices = sorted(rng.sample(range(3 * n), n)) if seed % 3 == 0 else list(range(n))
        top = rng.randint(0, 9)
        edges = []
        for v in vertices:
            for _ in range(rng.randint(0, 3)):
                edges.append((v, rng.choice(vertices), rng.randint(0, top)))
            if rng.random() < 0.25:
                edges.append((v, v, rng.randint(0, top)))
        yield ParityGraph.make(vertices, edges)
    rng = random.Random(43)
    for _ in range(60):
        gm = random_game(rng, rng.randint(3, 9), 5)
        we, wa, se, sa = solve(gm)
        yield strategy_graph(gm, se, we)
        yield strategy_graph(gm, sa, wa, ADAM)
    base = GenParams(seed=21057, vertex_count=5, priority_cap=4, edge_density=0.5)
    for salt in range(3):
        g = random_non_even_graph(base, salt=salt)
        product = reg_product(g, Index(1, 4), 1, starts=sorted(rejecting_vertices(g))).game.graph
        yield product
        yield product.with_priorities([(p + 1) % 5 for p in product.pri], Index(0, 4))
    pair_params = GenParams(seed=21057, vertex_count=5, priority_cap=4, index_j=(1, 2))
    for salt in range(4):
        pair = random_bounded_pair(pair_params, 1, salt=salt)
        yield pair.graph_i()
        yield pair.graph_j()


def verify_corpus():
    """(game, sigma, region, player) calls: both players' solved regions and
    strategies on seeded games (ids 0..n-1 or gapped, some with terminal
    vertices), and mutants of them: a vertex added to or dropped from the
    region, a choice dropped, redirected or taken from another vertex, the
    whole vertex set, and the other player's strategy."""
    rng = random.Random(6060)
    for k in range(300):
        n = rng.choice((1, 3, 5, 8, 14))
        g = random_graph(rng, n, rng.choice((1, 2, 3, 4, 6)), no_terminals=k % 5 != 0)
        if k % 3 == 0:
            g = ParityGraph.make(
                [2 * v + 3 for v in g.vertices],
                [(2 * e.src + 3, 2 * e.dst + 3, e.priority) for e in g.edges],
            )
        gm = ParityGame.make(g, [v for v in sorted(g.vertices) if rng.random() < 0.5])
        if g.terminals:
            we, wa = frozenset(g.vertices), frozenset()
            se = {v: g.out[v][0] for v in g.vertices if v in gm.eve and g.out[v]}
            sa = {}
        else:
            we, wa, se, sa = solve(gm)
        vs = sorted(g.vertices)
        for player, region, sigma in ((EVE, we, se), (ADAM, wa, sa)):
            yield gm, sigma, region, player
            v = rng.choice(vs)
            yield gm, sigma, region ^ {v}, player
            yield gm, sigma, g.vertices, player
            yield gm, se if player == ADAM else sa, region, player
            if sigma:
                u = rng.choice(sorted(sigma))
                yield gm, {w: e for w, e in sigma.items() if w != u}, region, player
                yield gm, {**sigma, u: rng.randrange(len(g.src))}, region, player
                yield gm, {**sigma, u: rng.choice(g.out[u])}, region, player


def repaired_even_graph(rng, n, top, odd_share):
    """Random terminal-free graph with mostly even priorities up to `top`;
    the top edge of each odd cycle that check_even reports is bumped by one
    until none is left."""
    for g in repair_loop(rng, n, top, odd_share):
        pass
    return g


def repair_loop(rng, n, top, odd_share):
    """Every graph that repaired_even_graph checks, in order; the last one
    is even."""
    edges = []
    for v in range(n):
        for _ in range(1 + sum(1 for _ in range(2) if rng.random() < 0.5)):
            p = 2 * rng.randint(0, top // 2)
            if rng.random() < odd_share:
                p = p - 1 if p else 1
            edges.append((v, rng.randrange(n), p))
    while True:
        g = ParityGraph.make(range(n), edges)
        yield g
        even, lasso = check_even(g)
        if even:
            return
        i = max(lasso.cycle, key=lambda k: (edges[k][2], k))
        s, d, p = edges[i]
        edges[i] = (s, d, p + 1)


def large_witness_corpus():
    """(graph, view) calls for the large lasso pin: every graph of 16
    seeded 300-vertex repair loops (mostly even priorities up to 16, odd
    share 0.15, their lassos 1-3 levels below the top; the last graph of
    each loop even), then strategy views of register products as
    verify_winning passes them, for each player its solved strategy on its
    region and, on the whole vertex set, that strategy completed by each
    other vertex's first edge."""
    for seed in range(16):
        for g in repair_loop(random.Random(seed), 300, 16, 0.15):
            yield g, None
    base = GenParams(seed=21057, vertex_count=5, priority_cap=4, edge_density=0.5)
    for salt in range(3):
        g = random_non_even_graph(base, salt=salt)
        game = reg_product(g, Index(1, 4), 1, starts=sorted(rejecting_vertices(g))).game
        we, wa, se, sa = solve(game)
        out = game.graph.out
        for player, sigma, region in ((EVE, se, we), (ADAM, sa, wa)):
            first = {v: out[v][0] for v in game.player_vertices(player)}
            for s, r in ((sigma, region), ({**first, **sigma}, game.graph.vertices)):
                view = _strategy_view(game, s, r, player)
                yield game.graph, (r, view, list(itertools.chain.from_iterable(view.values())))


def graph_of_tree(t):
    """An even graph whose canonical decomposition at level 2 x t._depth
    has tree shape t: one vertex per node of t, numbered in preorder, with
    a self-loop of the node's level (2 x t._depth at the root, 2 less per
    generation), an edge of priority 0 from each child to its parent and
    one of the parent's level back, and an edge one below the parent's
    level from each child to its previous sibling, so that the children
    are peeled off in order."""
    edges, ids = [], itertools.count()

    def add(node, level):
        v = next(ids)
        edges.append((v, v, level))
        previous = None
        for child in node.children:
            w = add(child, level - 2)
            edges.extend([(w, v, 0), (v, w, level)])
            if previous is not None:
                edges.append((w, previous, level - 1))
            previous = w
        return v

    add(t, 2 * t._depth)
    return ParityGraph.make(range(next(ids)), edges)


def _gapped(g, rng):
    """The same graph, or with vertex v renamed 3v + 1 (dict successor
    tables), each with its edges listed in source order or shuffled."""
    gap = rng.random() < 0.5
    edges = [(3 * s + 1, 3 * d + 1, p) if gap else (s, d, p) for s, d, p in g.edges]
    if rng.random() < 0.5:
        rng.shuffle(edges)
    return ParityGraph.make([3 * v + 1 if gap else v for v in g.vertices], edges)


@functools.cache
def build_corpus():
    """(graph, level) pairs: repaired even graphs, strategy graphs on Eve's
    regions (gapped ids), random graphs that are mostly odd, and random
    graphs with terminals, at the canonical level, above it, below it and
    at an odd level."""
    rng = random.Random(9090)
    cases = []
    for k in range(480):
        kind = k % 4
        n = rng.choice((2, 4, 7, 12, 30, 60))
        top = rng.choice((2, 4, 6, 8))
        if kind == 0:
            g = _gapped(repaired_even_graph(rng, n, top, rng.choice((0.1, 0.3))), rng)
        elif kind == 1:
            p = GenParams(seed=k, vertex_count=n, priority_cap=top)
            g = random_even_graph(p, salt=k)
        elif kind == 2:
            g = _gapped(random_graph(rng, n, top), rng)
        else:
            g = _gapped(random_graph(rng, n, top, no_terminals=False), rng)
        h = max(g.pri, default=0)
        h += h % 2
        levels = [h]
        if k % 7 == 0:
            levels.append(h + 2)
        if k % 23 == 0:
            levels += [h - 1, max(h - 2, 0)]
        cases += [(g, level) for level in levels]
    return tuple(cases)


def _nodes(d, path=()):
    yield path, d
    for k, child in enumerate(d.children):
        yield from _nodes(child.sub, path + (k,))


def _replace(d, path, new):
    if not path:
        return new
    kids = list(d.children)
    c = kids[path[0]]
    kids[path[0]] = AdChild(c.subgame, c.attractor, _replace(c.sub, path[1:], new))
    return AttractorDecomposition(d.level, d.top_edges, d.top_attractor, tuple(kids))


def _mutants(g, d, rng):
    """(graph, decomposition) pairs: d with one node changed (children
    dropped, merged, swapped or emptied, vertices moved, levels and top
    sets changed) or d against g with one extra edge."""
    out = [(g, d)]
    edge_ids = range(len(g.src) + 2)
    vs = sorted(g.vertices)
    for _ in range(10):
        path, x = rng.choice(list(_nodes(d)))
        kids = list(x.children)
        k = rng.randrange(len(kids)) if kids else None
        m = rng.randrange(17)
        new = None
        if m == 0 and kids:
            del kids[k]
        elif m == 1 and len(kids) > 1 and k + 1 < len(kids):
            a, b = kids[k], kids[k + 1]
            kids[k : k + 2] = [AdChild(a.subgame | b.subgame, a.attractor | b.attractor, a.sub)]
        elif m == 2 and len(kids) > 1 and k + 1 < len(kids):
            kids[k], kids[k + 1] = kids[k + 1], kids[k]
        elif m == 3 and kids:
            kids.insert(k, AdChild(frozenset(), frozenset(), kids[k].sub))
        elif m == 4 and len(kids) > 1:
            a, b = kids[k], kids[(k + 1) % len(kids)]
            v = rng.choice(sorted(a.subgame))
            kids[k] = AdChild(a.subgame - {v}, a.attractor - {v}, a.sub)
            kids[(k + 1) % len(kids)] = AdChild(b.subgame | {v}, b.attractor | {v}, b.sub)
        elif m == 5 and kids:
            a = kids[k]
            v = rng.choice(sorted(a.subgame))
            kids[k] = AdChild(a.subgame - {v}, a.attractor, a.sub)
        elif m == 6 and kids and x.top_attractor:
            v = rng.choice(sorted(x.top_attractor))
            a = kids[k]
            kids[k] = AdChild(a.subgame | {v}, a.attractor | {v}, a.sub)
            new = AttractorDecomposition(
                x.level, x.top_edges, x.top_attractor - {v}, tuple(kids)
            )
        elif m == 7:
            new = AttractorDecomposition(
                x.level + rng.choice((-2, -1, 1, 2)), x.top_edges, x.top_attractor, x.children
            )
        elif m == 8:
            new = AttractorDecomposition(
                x.level, x.top_edges ^ {rng.choice(edge_ids)}, x.top_attractor, x.children
            )
        elif m == 9:
            new = AttractorDecomposition(
                x.level, x.top_edges, x.top_attractor ^ {rng.choice(vs)}, x.children
            )
        elif m == 10 and not kids:
            leaf = AttractorDecomposition(max(x.level - 2, 0), frozenset(), frozenset(), ())
            kids = [AdChild(x.top_attractor, x.top_attractor, leaf)]
        elif m == 11 and kids:
            a = kids[k]
            extra = rng.choice(vs)
            kids[k] = AdChild(a.subgame, a.attractor ^ {extra}, a.sub)
        elif m == 12:
            # one more edge, into a new vertex without out-edges half the time
            u, w = rng.choice(vs), rng.choice((vs[-1] + 1,) * len(vs) + tuple(vs))
            p = rng.randint(0, d.level + 1)
            g2 = ParityGraph.make(g.vertices | {w}, [*g.edges, (u, w, p)])
            out.append((g2, d))
            continue
        elif m == 13 and kids:
            a = kids[k]
            kids[k] = AdChild(a.subgame, a.attractor, _replace(a.sub, (), AttractorDecomposition(
                a.sub.level, a.sub.top_edges, a.sub.top_attractor, a.sub.children[:-1]
            )))
        elif m == 14 and kids:
            a = kids[k]
            kids[k] = AdChild(a.subgame | x.top_attractor, a.attractor | x.top_attractor, a.sub)
            new = AttractorDecomposition(x.level, x.top_edges, frozenset(), tuple(kids))
        elif m == 15 and kids:
            a, b = kids[k], kids[(k + 1) % len(kids)]
            both = sorted(a.subgame | b.subgame)
            half = frozenset(rng.sample(both, (len(both) + 1) // 2))
            kids[k] = AdChild(half, a.attractor | b.attractor, a.sub)
        elif m == 16 and kids:
            a, b = kids[k], kids[(k + 1) % len(kids)]
            kids[k] = AdChild(a.attractor | b.attractor, a.attractor | b.attractor, a.sub)
        else:
            continue
        if new is None:
            new = AttractorDecomposition(x.level, x.top_edges, x.top_attractor, tuple(kids))
        out.append((g, _replace(d, path, new)))
    return out


@functools.cache
def validate_corpus():
    """(graph, decomposition) pairs: canonical decompositions of even
    graphs of the build corpus and of memory products, each with its
    mutants."""
    rng = random.Random(4242)
    cases = []
    for g, h in build_corpus():
        try:
            d = build_ad(g, h)
        except ParityKitError:
            continue
        cases += _mutants(g, d, rng)
    for seed in range(12):
        p = GenParams(seed=seed, vertex_count=5, priority_cap=4, index_j=(1, 4))
        pair = random_bounded_pair(p, seed % 2)
        try:
            d = ad_from_bounded_pair(pair, seed % 2, 2)
        except ParityKitError:
            continue
        cases += _mutants(memory_product(pair).pair.graph_i(), d, rng)
    return tuple(cases)


def wide_flag_pair():
    """A two-vertex loop whose declared indices I=[0,890] and J=[1,890]
    give its memory product 445 x 445 flag pairs."""
    g = ParityGraph.make([0, 1], [(0, 1, 0), (1, 0, 0)])
    return LabellingPair.make(g, (1, 2), (2, 2), Index(0, 890), Index(1, 890))


def with_duplicates(a, rng):
    """`a` with a seeded sample of its transitions listed a second time."""
    extra = rng.sample(range(len(a.transitions)), k=max(1, len(a.transitions) // 2))
    transitions = tuple(a.transitions) + tuple(a.transitions[i] for i in extra)
    omega = a.omega + tuple(a.omega[i] for i in extra)
    return NPTA.make(a.alphabet, a.states, a.initial, transitions, omega, a.index)


def with_copied_sources(a):
    """`a` with every transition also leaving every other state: the copies
    differ from their original only in their source state."""
    transitions, omega = list(a.transitions), list(a.omega)
    for (q, letter, q0, q1), o in zip(a.transitions, a.omega):
        for other in a.states:
            if other != q:
                transitions.append((other, letter, q0, q1))
                omega.append(o)
    return NPTA.make(a.alphabet, a.states, a.initial, transitions, omega, a.index)


@functools.cache
def quotient_corpus():
    """Seeded automata whose acceptance games have choice vertices with equal
    out-edges: random ones, the same with duplicated transitions and with
    transitions copied to other source states, and composed ones (J=[1,2],
    n in {0, 1}); each paired with every regular tree of <= 2 nodes."""
    rng = random.Random(2025)
    automata = []
    for _ in range(6):
        a = random_automaton(rng)
        automata += [a, with_duplicates(a, rng), with_copied_sources(a)]
        automata += [compose_transducer(a, Index(1, 2), n) for n in (0, 1)]
    return tuple(automata), tuple(enumerate_regular_trees(2))


@functools.cache
def composed_corpus():
    """(k, n, automaton): the first 8 criterion-8 automata (acceptance
    seed) composed with the register transducer at J=[1,2], n in {0, 1}."""
    p = GenParams(seed=21057)
    cases = []
    for k in range(8):
        a = random_automaton(_rng(p, 8, k))
        cases += [(k, n, compose_transducer(a, Index(1, 2), n)) for n in (0, 1)]
    return tuple(cases)


def n_bound_corpus():
    """Random labelling pairs of 2-7 vertices, with labelI in [0, 5] and
    labelJ in [1, 6], and bounded pairs from the generator."""
    rng = random.Random(31)
    for k in range(300):
        if k % 4 == 3:
            p = GenParams(seed=k, vertex_count=rng.randint(3, 6), priority_cap=4)
            yield random_bounded_pair(p, k % 3)
            continue
        g = random_graph(rng, rng.randint(2, 7), 0, max_out=2)
        li = tuple(rng.randint(0, 5) for _ in g.src)
        lj = tuple(rng.randint(1, 6) for _ in g.src)
        yield LabellingPair.make(g, li, lj, Index(0, 5), Index(1, 6))


# criterion 7's universal-tree grid: U(n, k, d, w) for n, d, w in 1-3, k <= d
UNIVERSAL_GRID = tuple(
    (n, k, d, w)
    for n in (1, 2, 3)
    for d in (1, 2, 3)
    for k in range(1, d + 1)
    for w in (1, 2, 3)
)
