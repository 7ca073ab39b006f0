"""The four benchmark workloads over paritykit's public functions.

Each workload builds a fixed population of units from the acceptance seed
(the battery's own corpora where one exists) and runs one unit at a time.
`run(unit, tracer)` is a generator: it yields STEP after work that is not
an instance (a composition) and, after each instance, its check: a
function returning `(ok, answer)`, where `ok` is the benchmark's own oracle
verdict and `answer` a short digest of the canonical answer, compared
against the stored reference.  run.py times the generator only, so the
checks are not part of an instance's time.

Every call into paritykit sits inside a span named after the module and
function it calls; the spans wrap these call sites only, never the
package's internals.
"""

import hashlib
import itertools
import random

from paritykit.automata import acceptance_game, compose_transducer, membership
from paritykit.decomposition import (
    ad_from_bounded_pair,
    ad_reachability_check,
    build_ad,
    memory_product,
    tree_shape,
    validate_ad,
)
from paritykit.errors import StateExplosion
from paritykit.games import ADAM, EVE, Index, ParityGraph, check_even, solve, verify_winning
from paritykit.lab import (
    GenParams,
    brute_solve,
    enumerate_regular_trees,
    random_automaton,
    random_bounded_pair,
    random_even_graph,
    random_game,
    random_non_even_graph,
    rejecting_vertices,
)
from paritykit.transduction import (
    n_bound_check,
    reg_product,
    strategy_from_bounded_pair,
    synth_from_ad,
)
from paritykit.trees import embed, enumerate_trees, is_universal_for, n_strahler, universal_tree

ACCEPTANCE_SEED = 21057
STATE_CAP = 200_000
COMPOSE_CAP = 400_000
STEP = None


def seeded_rng(seed, *salts):
    """Same mixing as the battery's generators, so populations match the
    acceptance corpora."""
    mix = seed & 0xFFFFFFFFFFFFFFFF
    for s in salts:
        mix = (mix * 1_000_003 + s + 0x9E3779B9) & 0xFFFFFFFFFFFFFFFF
    return random.Random(mix)


def digest(obj):
    return hashlib.sha1(repr(obj).encode()).hexdigest()[:12]


def regions_answer(eve, adam, eve_strat, adam_strat):
    return (sorted(eve), sorted(adam), sorted(eve_strat.items()), sorted(adam_strat.items()))


def decomposition_answer(d):
    """Top edges, attractors and children, recursively, in ascending order."""
    return (
        d.level,
        sorted(d.top_edges),
        sorted(d.top_attractor),
        [(sorted(c.subgame), sorted(c.attractor), decomposition_answer(c.sub)) for c in d.children],
    )


# ---------------------------------------------------------------------------
# independent oracles


def own_strahler(t, n):
    """n-Strahler number, iteratively and without the package's memo."""
    value = {}
    stack = [(t, False)]
    while stack:
        node, done = stack.pop()
        if done:
            vals = [value[id(c)] for c in node.children]
            if not vals:
                value[id(node)] = 1
            else:
                m = max(vals)
                value[id(node)] = m + 1 if vals.count(m) > n else m
        elif id(node) not in value:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children)
    return value[id(t)]


def own_node_count(t):
    count, stack = 0, [t]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def decomposition_nodes(d):
    return 1 + sum(decomposition_nodes(c.sub) for c in d.children)


def backtrack_embeds(t, host, memo):
    """Exhaustive search over order-preserving child assignments; `memo`
    holds verdicts for subtree pairs (shared subtrees are shared objects)."""
    if not t.children:
        return True
    if len(t.children) > len(host.children):
        return False
    key = (id(t), id(host))
    got = memo.get(key)
    if got is None:
        got = any(
            all(backtrack_embeds(c, host.children[j], memo) for c, j in zip(t.children, combo))
            for combo in itertools.combinations(range(len(host.children)), len(t.children))
        )
        memo[key] = got
    return got


def is_trap_won_by(game, region, strat, player):
    """`region` is closed under the opponent's moves and under `strat`, and
    every vertex of `player` in it keeps a move inside."""
    g = game.graph
    for v in region:
        inside = [g.edges[i].dst in region for i in g.out[v]]
        if game.owner(v) == player:
            if not any(inside) or g.edges[strat[v]].dst not in region:
                return False
        elif not all(inside):
            return False
    return True


# ---------------------------------------------------------------------------
# call sites shared by several workloads


def traced_reg_product(tr, base, J, n, cap, starts):
    with tr.span("transduction.reg_product") as sp:
        try:
            product = reg_product(base, J, n, cap=cap, starts=starts)
        except StateExplosion:
            sp.count(cap_hits=1)
            raise
    states = len(product.decode)
    sp.count(states=states, edges=len(product.game.graph.edges), cap_ratio=states / cap)
    return product


def traced_solve(tr, game):
    with tr.span("games.solve") as sp:
        result = solve(game)
    sp.count(vertices=len(game.graph.vertices), edges=len(game.graph.edges))
    return result


# ---------------------------------------------------------------------------
# transduce: the criterion-3 corpus


TRANSDUCE_GRID = [(Index(lo, hi), n) for lo, hi in ((1, 2), (1, 4), (2, 4)) for n in (0, 1, 2)]


class Transduce:
    """Register products of non-even 5-vertex graphs, solved from the
    rejecting starts; soundness says Eve wins none of them."""

    name = "transduce"
    graphs_count = 200

    def setup(self, tr):
        base = GenParams(
            seed=ACCEPTANCE_SEED, vertex_count=5, priority_cap=4, edge_density=0.5
        )
        with tr.span("lab.generate"):
            self.graphs = [random_non_even_graph(base, salt=k) for k in range(self.graphs_count)]
        self.units = [(k, x) for k in range(self.graphs_count) for x in range(len(TRANSDUCE_GRID))]

    def label(self, unit):
        k, x = unit
        J, n = TRANSDUCE_GRID[x]
        return f"g{k}/J{J.lo}-{J.hi}/n{n}"

    def run(self, unit, tr):
        k, x = unit
        g = self.graphs[k]
        J, n = TRANSDUCE_GRID[x]
        with tr.span("lab.rejecting_vertices"):
            rejecting = sorted(rejecting_vertices(g))
        product = traced_reg_product(tr, g, J, n, STATE_CAP, rejecting)
        eve, adam, eve_strat, adam_strat = traced_solve(tr, product.game)
        yield lambda: (
            not any(product.initial[v] in eve for v in rejecting),
            digest(regions_answer(eve, adam, eve_strat, adam_strat)),
        )


# ---------------------------------------------------------------------------
# compose: the criterion-8 corpus


class Compose:
    """Output-index composition of random 3-state automata, checked on every
    regular tree of at most 2 nodes against the register product of the
    acceptance game.  A unit is one check; the composition of its
    (automaton, n) pair is built the first time a run needs it, as a step
    of that unit, and kept for the rest of the run."""

    name = "compose"
    automata_count = 50
    J = Index(1, 2)

    def setup(self, tr):
        with tr.span("lab.generate"):
            self.automata = [
                random_automaton(seeded_rng(ACCEPTANCE_SEED, 8, k))
                for k in range(self.automata_count)
            ]
            self.trees = enumerate_regular_trees(2)
        self.composed = {}
        self.units = [
            (k, n, t)
            for k in range(self.automata_count)
            for n in (0, 1)
            for t in range(len(self.trees))
        ]

    def label(self, unit):
        return "a{}/n{}/t{}".format(*unit)

    def run(self, unit, tr):
        k, n, ti = unit
        a = self.automata[k]
        if (k, n) not in self.composed:
            with tr.span("automata.compose_transducer") as sp:
                composed = compose_transducer(a, self.J, n, cap=COMPOSE_CAP)
            size = (len(composed.states), len(composed.transitions))
            sp.count(states=size[0], transitions=size[1])
            self.composed[(k, n)] = composed, size
            yield STEP
        composed, size = self.composed[(k, n)]
        t = self.trees[ti]
        with tr.span("automata.membership"):
            lhs = membership(composed, t)
        with tr.span("automata.acceptance_game") as sp:
            ag = acceptance_game(a, t)
        sp.count(vertices=len(ag.decode))
        product = traced_reg_product(tr, ag.game, self.J, n, COMPOSE_CAP, [ag.initial])
        eve = traced_solve(tr, product.game)[0]
        yield lambda: (lhs == (product.initial[ag.initial] in eve), digest((size, lhs)))


# ---------------------------------------------------------------------------
# certify: decompositions, bounded pairs and tiny games


def repaired_even_graph(rng, vertices, top, odd_share):
    """Random graph with mostly even priorities up to `top`; each odd cycle
    that check_even reports is repaired by bumping its top edge by one."""
    edges = []
    for v in range(vertices):
        for _ in range(1 + sum(1 for _ in range(2) if rng.random() < 0.5)):
            p = 2 * rng.randint(0, top // 2)
            if rng.random() < odd_share:
                p = p - 1 if p else 1
            edges.append((v, rng.randrange(vertices), p))
    while True:
        g = ParityGraph.make(range(vertices), edges)
        even, lasso = check_even(g)
        if even:
            h = max(e.priority for e in g.edges)
            return g, h + h % 2
        top_edge = max(lasso.cycle, key=lambda i: (edges[i][2], i))
        src, dst, p = edges[top_edge]
        edges[top_edge] = (src, dst, p + 1)


class Certify:
    """Three kinds of unit: a repaired even graph of 300 vertices (its
    decomposition), a bounded pair with a small even graph (the syntheses),
    and a 6-vertex game (solve against brute force)."""

    name = "certify"
    even_count = 20
    pair_count = 36
    game_count = 300

    def setup(self, tr):
        seed = ACCEPTANCE_SEED
        with tr.span("bench.repair_even"):
            self.even = [
                repaired_even_graph(seeded_rng(seed, 101, k), 300, 16, 0.15)
                for k in range(self.even_count)
            ]
        small = GenParams(seed=seed, vertex_count=6, priority_cap=4, edge_density=0.5)
        with tr.span("lab.generate"):
            self.pairs = []
            for k in range(self.pair_count):
                m, j = k % 3, 1 + (k // 3) % 2
                base = GenParams(
                    seed=seed,
                    vertex_count=5,
                    priority_cap=4,
                    edge_density=0.5,
                    index_j=(1, 2 * j),
                )
                pair = random_bounded_pair(base, m, salt=k)
                ge = random_even_graph(small, salt=k)
                h = max(e.priority for e in ge.edges)
                self.pairs.append((pair, m, j, ge, h + h % 2, 1 + k % 2))
            self.games = [random_game(small, salt=k) for k in range(self.game_count)]
        self.units = (
            [("even", k) for k in range(self.even_count)]
            + [("pair", k) for k in range(self.pair_count)]
            + [("game", k) for k in range(self.game_count)]
        )

    def label(self, unit):
        return f"{unit[0]}{unit[1]}"

    def run(self, unit, tr):
        kind, k = unit
        yield getattr(self, "_" + kind)(k, tr)

    def _even(self, k, tr):
        g, h = self.even[k]
        with tr.span("games.check_even"):
            even, lasso = check_even(g)
        with tr.span("decomposition.build_ad") as sp:
            d = build_ad(g, h)
        sp.count(tree_nodes=decomposition_nodes(d))
        with tr.span("decomposition.validate_ad"):
            valid = validate_ad(g, d)
        with tr.span("decomposition.ad_reachability_check"):
            ordered = ad_reachability_check(g, d)
        with tr.span("decomposition.tree_shape"):
            shape = tree_shape(d)
        with tr.span("trees.n_strahler"):
            s1, s2 = n_strahler(shape, 1), n_strahler(shape, 2)

        def check():
            ok = (
                even
                and lasso is None
                and bool(valid)
                and ordered
                and own_node_count(shape) == decomposition_nodes(d)
                and (s1, s2) == (own_strahler(shape, 1), own_strahler(shape, 2))
            )
            return ok, digest((decomposition_answer(d), shape.to_brackets(), s1, s2))

        return check

    def _pair(self, k, tr):
        pair, m, j, ge, hge, n_synth = self.pairs[k]
        with tr.span("transduction.n_bound_check"):
            bounded, _ = n_bound_check(pair, m)
        with tr.span("transduction.strategy_from_bounded_pair") as sp:
            strat = strategy_from_bounded_pair(pair, m, cap=STATE_CAP)
        sp.count(states=len(strat.product.decode))
        with tr.span("transduction.verify"):
            mirror_wins = strat.verify()
        with tr.span("decomposition.memory_product") as sp:
            mp = memory_product(pair, cap=STATE_CAP)
        sp.count(states=len(mp.decode))
        with tr.span("decomposition.ad_from_bounded_pair") as sp:
            d = ad_from_bounded_pair(pair, m, j, cap=STATE_CAP)
        sp.count(tree_nodes=decomposition_nodes(d))
        with tr.span("decomposition.validate_ad"):
            valid = validate_ad(mp.pair.graph_i(), d)
        with tr.span("decomposition.tree_shape"):
            shape = tree_shape(d)
        with tr.span("trees.n_strahler"):
            strahler = n_strahler(shape, m + 1)
        with tr.span("decomposition.build_ad") as sp:
            d_small = build_ad(ge, hge)
        sp.count(tree_nodes=decomposition_nodes(d_small))
        with tr.span("transduction.synth_from_ad") as sp:
            synth = synth_from_ad(ge, d_small, n_synth, cap=STATE_CAP)
        sp.count(states=len(synth.product.decode))
        with tr.span("transduction.verify"):
            synth_wins = synth.verify()

        def check():
            if tr.enabled:
                with tr.span("bench.reachable_region") as sp:
                    reached = len(strat.reachable_region()) + len(synth.reachable_region())
                sp.count(reachable=reached, built=len(strat.product.decode) + len(synth.product.decode))
            ok = (
                bounded
                and mirror_wins
                and bool(valid)
                and strahler <= j
                and strahler == own_strahler(shape, m + 1)
                and synth_wins
            )
            answer = (
                sorted(strat.sigma.items()),
                decomposition_answer(d),
                decomposition_answer(d_small),
                sorted(synth.sigma.items()),
                strahler,
            )
            return ok, digest(answer)

        return check

    def _game(self, k, tr):
        game = self.games[k]
        eve, adam, eve_strat, adam_strat = traced_solve(tr, game)
        with tr.span("lab.brute_solve"):
            brute_eve, brute_adam = brute_solve(game)
        with tr.span("games.verify_winning"):
            certified = verify_winning(game, eve_strat, eve) and verify_winning(
                game, adam_strat, adam, player=ADAM
            )

        def check():
            ok = (
                eve == brute_eve
                and adam == brute_adam
                and certified
                and is_trap_won_by(game, eve, eve_strat, EVE)
                and is_trap_won_by(game, adam, adam_strat, ADAM)
            )
            return ok, digest(regions_answer(eve, adam, eve_strat, adam_strat))

        return check


# ---------------------------------------------------------------------------
# trees: the criterion-7 corpus

UNIVERSAL_GRID = [
    (n, k, d, w)
    for n in (1, 2, 3)
    for d in (1, 2, 3)
    for k in range(1, d + 1)
    for w in (1, 2, 3)
]


class Trees:
    """Embedding batches (one query tree of at most 7 nodes against every
    host of at most 9 nodes) and universal-tree checks over the 54-point
    grid."""

    name = "trees"

    def setup(self, tr):
        with tr.span("trees.enumerate_trees"):
            self.queries = enumerate_trees(7, 7, 7)
            self.hosts = enumerate_trees(9, 9, 9)
            self.families = {
                (w, d): enumerate_trees(1 + w + w**2 + w**3, d, w)
                for w in (1, 2, 3)
                for d in (1, 2, 3)
            }
        with tr.span("trees.universal_tree") as sp:
            self.universal = {key: universal_tree(*key) for key in UNIVERSAL_GRID}
        sp.count(nodes=sum(own_node_count(u) for u in self.universal.values()))
        # oracle verdicts are deterministic, so each is computed once per run
        self.embeds_oracle = {}
        self.family_sizes = {}
        self.units = [("embed", i) for i in range(len(self.queries))] + [
            ("universal", key) for key in UNIVERSAL_GRID
        ]

    def label(self, unit):
        kind, key = unit
        if kind == "embed":
            return f"embed{key}"
        return "U{}-{}-{}-{}".format(*key)

    def run(self, unit, tr):
        kind, key = unit
        if kind == "embed":
            yield self._embed(key, tr)
        else:
            yield self._universal(key, tr)

    def _embed(self, i, tr):
        t = self.queries[i]
        with tr.span("trees.embed") as sp:
            found = [embed(t, h) for h in self.hosts]
        if tr.enabled:
            sp.count(calls=len(found), found=sum(e is not None for e in found))

        def check():
            if i not in self.embeds_oracle:
                memo = {}
                self.embeds_oracle[i] = bytes(backtrack_embeds(t, h, memo) for h in self.hosts)
            ok = bytes(e is not None for e in found) == self.embeds_oracle[i]
            answer = [sorted(e.mapping.items()) if e is not None else None for e in found]
            return ok, digest(answer)

        return check

    def _universal(self, key, tr):
        n, k, d, w = key
        family_all = self.families[(w, d)]
        with tr.span("trees.n_strahler"):
            family = [t for t in family_all if n_strahler(t, n) <= k]
        with tr.span("trees.is_universal_for"):
            universal, missed = is_universal_for(self.universal[key], family)

        def check():
            if key not in self.family_sizes:
                self.family_sizes[key] = sum(1 for t in family_all if own_strahler(t, n) <= k)
            ok = universal and missed is None and len(family) == self.family_sizes[key]
            return ok, digest((universal, len(family)))

        return check


WORKLOADS = {cls.name: cls for cls in (Transduce, Compose, Certify, Trees)}
