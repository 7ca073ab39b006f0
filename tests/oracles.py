"""Brute-force oracles used by the test suite.

Everything here is deliberately independent of the algorithms under test:
bounded walk enumeration instead of fixpoints, simple-cycle enumeration
instead of SCC scans, game-tree search instead of attractor layering and
positional-strategy enumeration instead of Zielonka recursion.
"""

import itertools

from paritykit.errors import TerminalVertex
from paritykit.games import ADAM, ParityGame, ParityGraph
from paritykit.trees import LEAF, OrderedTree


def random_graph(rng, n_vertices, max_priority, max_out=3, no_terminals=True):
    vertices = list(range(n_vertices))
    edges = []
    for v in vertices:
        deg = rng.randint(1 if no_terminals else 0, max_out)
        for _ in range(deg):
            edges.append((v, rng.choice(vertices), rng.randint(0, max_priority)))
    if no_terminals:
        for v in vertices:
            if not any(e[0] == v for e in edges):
                edges.append((v, rng.choice(vertices), rng.randint(0, max_priority)))
    return ParityGraph.make(vertices, edges)


def chain_graph(k):
    """Vertex i has a self-loop of priority 2i and an edge of priority 0 to
    i-1: its canonical decomposition at level 2(k-1) is k nodes deep, which
    prints as 3k levels of JSON."""
    edges = [(i, i, 2 * i) for i in range(k)] + [(i, i - 1, 0) for i in range(1, k)]
    return ParityGraph.make(range(k), edges)


def random_game(rng, n_vertices, max_priority, max_out=3):
    g = random_graph(rng, n_vertices, max_priority, max_out)
    eve = [v for v in g.sorted_vertices() if rng.random() < 0.5]
    return ParityGame.make(g, eve)


def escape_walk_exists(g, v, *, avoid_edges=frozenset(), avoid_vertices=frozenset()):
    """True iff an infinite path from v avoids the given edges/vertices.

    A walk of length |V| that avoids them revisits a vertex, so it can be
    pumped into an infinite avoiding path; bounded DFS is therefore exact.
    """
    limit = len(g.vertices)
    if v in avoid_vertices:
        return False

    def dfs(u, steps):
        if steps == limit:
            return True
        for i in g.out[u]:
            if i in avoid_edges:
                continue
            w = g.edges[i].dst
            if w in avoid_vertices:
                continue
            if dfs(w, steps + 1):
                return True
        return False

    return dfs(v, 0)


def brute_attractor_vertices(g, targets):
    targets = frozenset(targets)
    out = set()
    for v in g.sorted_vertices():
        if v in targets:
            out.add(v)
        elif not escape_walk_exists(g, v, avoid_vertices=targets):
            out.add(v)
    return frozenset(out)


def brute_attractor_edges(g, targets):
    targets = frozenset(targets)
    return frozenset(
        v for v in g.sorted_vertices() if not escape_walk_exists(g, v, avoid_edges=targets)
    )


def brute_player_attractor(game, targets, player):
    """Bounded-depth reachability-game search; depth |V| is exact."""
    g = game.graph
    targets = frozenset(targets)

    def force(v, depth):
        if v in targets:
            return True
        if depth == 0:
            return False
        succ = [g.edges[i].dst for i in g.out[v]]
        if game.owner(v) == player:
            return any(force(w, depth - 1) for w in succ)
        return all(force(w, depth - 1) for w in succ)

    return frozenset(v for v in g.sorted_vertices() if force(v, len(g.vertices)))


def simple_cycles(g):
    """All simple cycles as edge-id tuples (DFS over small graphs only)."""
    cycles = []

    def dfs(start, u, path_edges, seen):
        for i in g.out[u]:
            w = g.edges[i].dst
            if w == start:
                cycles.append(tuple(path_edges + [i]))
            elif w not in seen and w > start:
                dfs(start, w, path_edges + [i], seen | {w})

    for v in g.sorted_vertices():
        dfs(v, v, [], {v})
    return cycles


def brute_is_even(g):
    return all(max(g.edges[i].priority for i in c) % 2 == 0 for c in simple_cycles(g))


def _bad_core_vertices(g, region_edges):
    """Vertices lying on an odd-maximal cycle of the one-player graph."""
    bad = set()
    for c in simple_cycles(g):
        if max(g.edges[i].priority for i in c) % 2 == 1:
            for i in c:
                bad.add(g.edges[i].src)
    return bad


def brute_solve(game):
    """Exact regions by enumerating Eve's positional strategies; a vertex
    without out-edges raises TerminalVertex for the smallest such vertex."""
    g = game.graph
    terminals = [v for v in g.sorted_vertices() if not g.out[v]]
    if terminals:
        raise TerminalVertex(terminals[0])
    eve_vs = sorted(game.eve)
    eve_region = set()
    choice_lists = [g.out[v] for v in eve_vs]
    for combo in itertools.product(*choice_lists):
        sigma = dict(zip(eve_vs, combo))
        keep = set(combo)
        for v in g.sorted_vertices():
            if game.owner(v) == ADAM:
                keep.update(g.out[v])
        sub = ParityGraph.make(g.vertices, [g.edges[i] for i in sorted(keep)], g.index)
        bad = _bad_core_vertices(sub, keep)
        # losing vertices: those that can reach an odd cycle in the residual
        losing = set(bad)
        changed = True
        while changed:
            changed = False
            for e in sub.edges:
                if e.dst in losing and e.src not in losing:
                    losing.add(e.src)
                    changed = True
        eve_region |= g.vertices - losing
    return frozenset(eve_region), frozenset(g.vertices - eve_region)


def walk_ends(g, starts):
    """`starts` plus the last vertex of every walk from them: walks are
    extended one edge at a time, and |V| steps reach every vertex that
    any walk reaches."""
    ends = set(starts)
    layer = set(starts)
    for _ in range(len(g.vertices)):
        layer = {e.dst for e in g.edges if e.src in layer}
        ends |= layer
    return ends


def _restricted(g, vertices, edge_ids):
    """Fresh graph on `vertices` with the edges of `edge_ids` (ids of g)
    that stay inside it."""
    edges = [g.edges[i] for i in sorted(edge_ids)]
    return ParityGraph.make(vertices, [e for e in edges if e.src in vertices and e.dst in vertices])


def brute_reachability_check(g, d):
    """`ad_reachability_check` by its definition: at every node, drop the
    top edges of the node and of its ancestors, keep the union of the child
    attractors as a graph of its own, and no walk from a child attractor
    may end in a later one."""

    def check(d, edge_ids):
        if not d.children:
            return True
        edge_ids = edge_ids - d.top_edges
        union = frozenset().union(*(c.attractor for c in d.children))
        h = _restricted(g, union, edge_ids)
        for k, child in enumerate(d.children):
            ends = walk_ends(h, child.attractor)
            if any(ends & later.attractor for later in d.children[k + 1 :]):
                return False
        return all(check(c.sub, edge_ids) for c in d.children)

    return check(d, frozenset(range(len(g.edges))))


def brute_is_tight(g, d):
    """`is_tight` by its definition: at every node, drop the top edges of
    the node and of its ancestors, keep the node's subgame with the edges
    of priority at most level-2 as a graph of its own, and no walk from a
    child subgame may end in an earlier one."""

    def tight(d, vertices, edge_ids):
        if not d.children:
            return True
        edge_ids = edge_ids - d.top_edges
        low = _restricted(g, vertices, {i for i in edge_ids if g.edges[i].priority <= d.level - 2})
        for k, child in enumerate(d.children):
            ends = walk_ends(low, child.subgame) - child.subgame
            if any(ends & earlier.subgame for earlier in d.children[:k]):
                return False
        return all(tight(c.sub, c.subgame, edge_ids) for c in d.children)

    return tight(d, g.vertices, frozenset(range(len(g.edges))))


def reference_trees(max_nodes, max_depth, max_branch):
    """`enumerate_trees` by its definition, with no bound pruning the
    search: the trees of k nodes and depth <= d are the leaf (k = 1), or a
    root over a tuple of trees of depth <= d - 1 whose node counts are a
    composition of k - 1 into at most `max_branch` parts; compositions in
    lexicographic order, then `itertools.product` order."""
    memo = {}

    def exact(nodes, dep):
        if (nodes, dep) not in memo:
            out = [LEAF] if nodes == 1 else []
            if nodes > 1 and dep > 1:
                for parts in sorted(_compositions(nodes - 1, max_branch)):
                    pools = [exact(p, dep - 1) for p in parts]
                    out.extend(OrderedTree(kids) for kids in itertools.product(*pools))
            memo[nodes, dep] = out
        return memo[nodes, dep]

    return [t for nodes in range(1, max_nodes + 1) for t in exact(nodes, max_depth)]


def _compositions(total, max_parts):
    """Every composition of `total` into at most `max_parts` positive parts,
    one per set of cut points."""
    for k in range(1, max_parts + 1):
        for cuts in itertools.combinations(range(1, total), k - 1):
            bounds = (0, *cuts, total)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))
