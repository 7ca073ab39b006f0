"""Random instance generation, the brute-force solver oracle, and the
theorem-regression battery tying all modules together.

Every generator is a pure function of its seed.  The battery is one table,
`CRITERIA`, of the acceptance criteria; failures carry serialized,
replayable counterexamples.
"""

import itertools
import json
import random
import time
from dataclasses import dataclass, field, replace

from . import manifests
from .automata import (
    NPTA,
    GuidingFunction,
    RegularTree,
    acceptance_game,
    compose_transducer,
    guided_pair_bound_check,
    membership,
)
from .decomposition import (
    LabellingPair,
    ad_from_bounded_pair,
    ad_reachability_check,
    build_ad,
    n_bound_check,
    tree_shape,
    validate_ad,
)
from .errors import (
    DEFAULT_STATE_CAP,
    ExhaustedRetries,
    NotEven,
    ParityKitError,
    TerminalVertex,
    TooLarge,
)
from .games import (
    ADAM,
    Index,
    ParityGame,
    ParityGraph,
    _odd_cycle_witness,
    is_even,
    solve,
    strategy_graph,
    verify_winning,
)
from .transduction import (
    NEVER,
    eve_wins_reg,
    reg_product,
    strategy_from_bounded_pair,
    synth_from_ad,
)
from .trees import embed, enumerate_trees, is_universal_for, n_strahler, universal_tree


@dataclass(frozen=True)
class GenParams:
    seed: int = 0
    vertex_count: int = 6
    priority_cap: int = 4
    edge_density: float = 0.5
    index_j: tuple = (1, 2)
    instance_count: int = 100


# draws per generator call before it gives up; the retry count enters
# each attempt's salt, so changing it changes every seeded instance
GRAPH_RETRIES = 200
PAIR_RETRIES = 300
# the most vertices `paritykit lab random --kind pair` takes: the chance
# that a draw passes the n-bound check falls with the vertex count, and a
# pair repaired after 300 failed draws pays for them all, as each draw's
# `_repair_even` reruns the odd-cycle search once per bump; with seed 0 and
# n = 0 a call took 0.9 s at 100 vertices, 3.3 s at 300 and 36 s at 1,000
# (one core of a 2-core Xeon)
PAIR_VERTICES = 85


def _rng(p, *salts):
    mix = p.seed & 0xFFFFFFFFFFFFFFFF
    for s in salts:
        mix = (mix * 1_000_003 + s + 0x9E3779B9) & 0xFFFFFFFFFFFFFFFF
    return random.Random(mix)


def _random_graph(rng, n_vertices, priority_cap, density):
    vertices = list(range(n_vertices))
    edges = []
    for v in vertices:
        deg = 1 + sum(1 for _ in range(2) if rng.random() < density)
        for _ in range(deg):
            edges.append((v, rng.choice(vertices), rng.randint(0, priority_cap)))
    return ParityGraph.make(vertices, edges)


def random_game(p, salt=0):
    """Owner-partitioned random game; no terminal vertices by construction."""
    rng = _rng(p, 1, salt)
    g = _random_graph(rng, p.vertex_count, p.priority_cap, p.edge_density)
    eve = [v for v in g.sorted_vertices() if rng.random() < 0.5]
    return ParityGame.make(g, eve)


def random_even_graph(p, salt=0):
    """Eve's strategy graph on her winning region of a random game."""
    for attempt in range(GRAPH_RETRIES):
        game = random_game(p, salt * GRAPH_RETRIES + attempt)
        eve_region, _, eve_strat, _ = solve(game)
        if not eve_region:
            continue
        g = strategy_graph(game, eve_strat, eve_region)
        if g.vertices and not g.terminals:
            return g
    raise ExhaustedRetries("no even strategy graph found")


def random_non_even_graph(p, salt):
    for attempt in range(GRAPH_RETRIES):
        rng = _rng(p, 2, salt * GRAPH_RETRIES + attempt)
        cap = max(1, p.priority_cap)
        g = _random_graph(rng, p.vertex_count, cap, p.edge_density)
        if not is_even(g):
            return g
    raise ExhaustedRetries("no non-even graph found")


def _repair_even(g, labels, index):
    """Bump the maximal odd edge of each odd cycle to the next even value;
    the label sum strictly grows, so this terminates."""
    labels = list(labels)
    while True:
        view = g.with_priorities(labels, index)
        lasso = _odd_cycle_witness(view)
        if lasso is None:
            return tuple(labels)
        worst = max(lasso.cycle, key=lambda i: labels[i])
        labels[worst] += 1


def random_bounded_pair(p, n, salt=0):
    """Even pair passing the n-bound check: labelJ is an even labelling in
    [1, 2j], labelI adds sparse odd bursts and is rejection-sampled.  If
    every draw fails, the last is repaired: each labelI edge on a witness's
    segments that carries its odd priority rises by 1 until no witness is
    left.  A cycle through such an edge peaks at a higher even label, so
    labelI stays even."""
    j_lo, j_hi = p.index_j
    index_j = Index(j_lo, j_hi)
    i_hi = p.priority_cap + (p.priority_cap % 2)
    index_i = Index(0, max(2, i_hi))
    odd_bias = 0.35 / (n + 1)
    odds, evens = index_i.odds(), index_i.evens()
    for attempt in range(PAIR_RETRIES):
        rng = _rng(p, 3, salt * PAIR_RETRIES + attempt, n)
        g = _random_graph(rng, p.vertex_count, 0, p.edge_density)
        label_j = [rng.randint(j_lo, j_hi) for _ in g.src]
        label_j = _repair_even(g, label_j, index_j)
        label_i = []
        for _ in g.src:
            # `choice` takes the range's len(), which overflows past sys.maxsize;
            # `randrange` draws the same value without it
            r = odds if rng.random() < odd_bias else evens
            label_i.append(rng.randrange(r.start, r.stop, 2))
        label_i = _repair_even(g, label_i, index_i)
        pair = LabellingPair.make(g, label_i, label_j, index_i, index_j)
        ok, witness = n_bound_check(pair, n)
        if ok:
            return pair
    label_i = list(label_i)
    while witness is not None:
        for i in {i for seg in witness.segments for i in seg if label_i[i] == witness.odd}:
            label_i[i] += 1
        pair = LabellingPair(g, tuple(label_i), label_j, index_i, index_j)
        _, witness = n_bound_check(pair, n)
    return pair


def brute_solve(game):
    """Exact regions by enumerating Eve's positional strategies, which
    suffice by positional determinacy: a vertex is Eve's iff some strategy
    leaves no cycle with odd maximum reachable from it in the residual
    one-player graph.  A terminal vertex raises TerminalVertex, as in
    `solve`.

    The strategies are counted first and refused with TooLarge beyond
    `DEFAULT_STATE_CAP`; each then costs one `_odd_reach`, about n^2 per
    odd priority, so the whole cost is exponential in Eve's choices.  The
    enumeration stops as soon as Eve wins every vertex."""
    g = game.graph
    if g.terminals:
        raise TerminalVertex(g.terminals[0])
    eve_vs = sorted(game.eve)
    total = 1
    for v in eve_vs:
        total *= len(g.out[v])
        if total > DEFAULT_STATE_CAP:
            raise TooLarge(f"strategy space exceeds {DEFAULT_STATE_CAP}")
    order, edges = _positions(g)
    adam_edges = [edges[i] for v in order if v not in game.eve for i in g.out[v]]
    full = (1 << len(order)) - 1
    eve = 0
    for combo in itertools.product(*[[edges[i] for i in g.out[v]] for v in eve_vs]):
        eve |= full & ~_odd_reach(len(order), adam_edges + list(combo))
        if eve == full:
            break
    eve_region = frozenset(v for k, v in enumerate(order) if eve >> k & 1)
    return eve_region, g.vertices - eve_region


def _positions(g):
    """g's vertices in ascending id, and its edges by id as (source, target,
    priority) triples with each vertex at its position in that order."""
    order = g.sorted_vertices()
    at = {v: k for k, v in enumerate(order)}
    return order, [(at[s], at[d], p) for s, d, p in zip(g.src, g.dst, g.pri)]


def _odd_reach(n, edges):
    """Bit mask of the positions 0..n-1 that reach a cycle with odd maximum
    in the graph of `edges`, (source, target, priority) triples of
    positions.

    For each odd priority p that occurs, Warshall's closure over int masks
    of the edges of priority <= p marks the source s of each p-edge s -> d
    whose target reaches s (a self-loop included): that edge closes a
    cycle of maximum p.  The result is those sources and every position
    that reaches one.  Each odd priority costs about n^2 mask operations,
    quadratic rather than linear in the graph: this suits the oracles'
    graphs of a dozen vertices, and from a few hundred vertices on a
    linear-time SCC search is faster."""
    bad = 0
    for p in sorted({q for _, _, q in edges if q % 2}):
        reach = [0] * n
        for s, d, q in edges:
            if q <= p:
                reach[s] |= 1 << d
        for k in range(n):
            bit, row = 1 << k, reach[k]
            for i in range(n):
                if reach[i] & bit:
                    reach[i] |= row
        for s, d, q in edges:
            if q == p and reach[d] >> s & 1:
                bad |= 1 << s
    pred = [0] * n
    for s, d, _ in edges:
        pred[d] |= 1 << s
    losing = todo = bad
    while todo:
        low = todo & -todo
        todo ^= low
        grown = pred[low.bit_length() - 1] & ~losing
        losing |= grown
        todo |= grown
    return losing


# ---------------------------------------------------------------------------
# automata corpus

ALPHABET = ("a", "b")


def random_automaton(rng, max_states=3):
    n_states = rng.randint(1, max_states)
    states = list(range(n_states))
    transitions = []
    omega = []
    for q in states:
        for a in ALPHABET:
            for _ in range(rng.randint(1, 2)):
                transitions.append((q, a, rng.choice(states), rng.choice(states)))
                omega.append((rng.randint(0, 3), rng.randint(0, 3)))
    return NPTA.make(ALPHABET, states, 0, transitions, omega, Index(0, 3))


def enumerate_regular_trees(max_nodes):
    """All regular trees presented by rooted graphs with at most max_nodes
    nodes, deduplicated by bounded unfolding."""
    seen = {}
    for m in range(1, max_nodes + 1):
        for labels in itertools.product(ALPHABET, repeat=m):
            for succ0 in itertools.product(range(m), repeat=m):
                for succ1 in itertools.product(range(m), repeat=m):
                    t = RegularTree.make(labels, succ0, succ1, 0)
                    sig = t.unfolding_signature(2 * max_nodes + 2)
                    if sig not in seen:
                        seen[sig] = t
    return list(seen.values())


def _aut_accept_all():
    return NPTA.make(
        ("a", "b"),
        (0,),
        0,
        [(0, "a", 0, 0), (0, "b", 0, 0)],
        [(2, 2), (2, 2)],
        Index(1, 2),
    )


def _aut_eventually_b():
    """Every branch eventually reads the letter b (deterministic)."""
    return NPTA.make(
        ("a", "b"),
        (0, 1),
        0,
        [
            (0, "a", 0, 0),
            (0, "b", 1, 1),
            (1, "a", 1, 1),
            (1, "b", 1, 1),
        ],
        [(1, 1), (2, 2), (2, 2), (2, 2)],
        Index(1, 2),
    )


def _aut_ping_pong():
    return NPTA.make(
        ("a", "b"),
        (0, 1),
        0,
        [
            (0, "a", 1, 1),
            (0, "b", 1, 1),
            (1, "a", 0, 0),
            (1, "b", 0, 0),
        ],
        [(2, 2)] * 4,
        Index(1, 2),
    )


def _aut_eventually_b_dup():
    base = _aut_eventually_b()
    transitions = list(base.transitions) + [(0, "b", 1, 1)]
    omega = list(base.omega) + [(2, 2)]
    return NPTA.make(base.alphabet, base.states, 0, transitions, omega, base.index)


def _aut_eventually_b_trap():
    return NPTA.make(
        ("a", "b"),
        (0, 1, 2),
        0,
        [
            (0, "a", 0, 0),
            (0, "b", 1, 1),
            (0, "b", 2, 2),
            (1, "a", 1, 1),
            (1, "b", 1, 1),
            (2, "a", 2, 2),
            (2, "b", 2, 2),
        ],
        [(1, 1), (2, 2), (1, 1), (2, 2), (2, 2), (1, 1), (1, 1)],
        Index(1, 2),
    )


def _deterministic_guide(a, b):
    """Map every guide transition to a's unique transition over its letter."""
    table = {}
    for p in a.states:
        for tid_b, x in enumerate(b.letter):
            table[(p, tid_b)] = a.transitions_from(p, x)[0]
    return GuidingFunction.make(a, b, table)


def _suite_trees():
    all_b = RegularTree.make(("b",), (0,), (0,), 0)
    alternating = RegularTree.make(("a", "b"), (1, 0), (1, 0), 0)
    b_then_a = RegularTree.make(("b", "a"), (1, 1), (1, 1), 0)
    return [all_b, alternating, b_then_a]


def guided_suite():
    """Acceptance-preserving (a, b, g) triples with member trees."""
    trees = _suite_trees()
    suite = []
    pairs = [
        (_aut_accept_all(), _aut_eventually_b()),
        (_aut_eventually_b(), _aut_eventually_b()),
        (_aut_eventually_b_dup(), _aut_eventually_b()),
        (_aut_ping_pong(), _aut_accept_all()),
        (_aut_accept_all(), _aut_ping_pong()),
    ]
    for a, b in pairs:
        suite.append((a, b, _deterministic_guide(a, b), [t for t in trees if membership(b, t)]))
    return suite


def guided_negative():
    """A non-preserving guide: the guide's b-step is rewritten into a trap."""
    a = _aut_eventually_b_trap()
    b = _aut_eventually_b()
    table = dict(_deterministic_guide(a, b).table)
    trap = next(i for i in a.transitions_from(0, "b") if a.left[i] == 2)
    for tid_b, x in enumerate(b.letter):
        if x == "b":
            table[(0, tid_b)] = trap
    return a, b, GuidingFunction.make(a, b, table), _suite_trees()


# ---------------------------------------------------------------------------
# theorem battery


@dataclass
class CheckResult:
    name: str
    instances: int
    failures: list
    seconds: float

    @property
    def ok(self):
        return not self.failures


@dataclass
class TheoremReport:
    checks: list = field(default_factory=list)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def summary(self):
        lines = []
        width = max((len(c.name) for c in self.checks), default=4)
        for c in self.checks:
            status = "pass" if c.ok else f"FAIL ({len(c.failures)})"
            lines.append(
                f"{c.name:<{width}}  {c.instances:>5} instances  {c.seconds:7.2f}s  {status}"
            )
        return "\n".join(lines)

    def to_json(self):
        return json.dumps(
            {
                "ok": self.ok,
                "checks": [
                    {
                        "name": c.name,
                        "instances": c.instances,
                        "seconds": round(c.seconds, 3),
                        "failures": [
                            {"description": desc, "counterexample": manifest}
                            for desc, manifest in c.failures
                        ],
                    }
                    for c in self.checks
                ],
            },
            indent=2,
        )


def shrink_game(game, predicate):
    """Greedy vertex deletion preserving the failure predicate."""
    current = game
    changed = True
    while changed:
        changed = False
        for v in current.graph.sorted_vertices():
            keep = set(current.graph.vertices) - {v}
            while True:
                edges = [
                    e for e in current.graph.edges if e.src in keep and e.dst in keep
                ]
                terminals = keep - {e.src for e in edges}
                if not terminals:
                    break
                keep -= terminals
            if not keep:
                continue
            g = ParityGraph.make(sorted(keep), edges)
            candidate = ParityGame.make(g, current.eve & frozenset(keep))
            try:
                if predicate(candidate):
                    current = candidate
                    changed = True
                    break
            except ParityKitError:
                continue
    return current


def _solve_certified(game):
    """Eve's region by `solve`, and whether both players' strategies from
    `solve` verify on their regions by the independent odd-cycle test."""
    eve_region, adam_region, eve_strat, adam_strat = solve(game)
    certified = verify_winning(game, eve_strat, eve_region) and verify_winning(
        game, adam_strat, adam_region, player=ADAM
    )
    return eve_region, certified


def _corpus_params(p, vertices, priority_cap=None, index_j=(1, 2)):
    """A criterion's generator parameters: `p`'s seed and edge density, the
    criterion's own vertex count and index J, and `p`'s priority cap
    bounded by 4 unless `priority_cap` is given, which keeps the register
    products of the corpus small."""
    if priority_cap is None:
        priority_cap = min(p.priority_cap, 4)
    return replace(p, vertex_count=vertices, priority_cap=priority_cap, index_j=index_j)


# Each criterion below runs a corpus of `count` members generated from
# `p`'s seed and returns (instances, failures); a failure is a description
# and a serialized, replayable counterexample.


def _solver_cross_oracle(p, count):
    failures = []
    base = _corpus_params(p, 6, priority_cap=4)
    for k in range(count):
        game = random_game(base, salt=k)
        eve_region, certified = _solve_certified(game)
        brute_eve, _ = brute_solve(game)
        if eve_region != brute_eve or not certified:
            if eve_region != brute_eve:
                game = shrink_game(game, lambda g: solve(g)[0] != brute_solve(g)[0])
            failures.append((f"instance {k}", manifests.dumps(game)))
    return count, failures


def _evenness_decomposition(p, count):
    failures = []
    for k in range(count):
        g = _random_graph(_rng(p, 4, k), 10, p.priority_cap, p.edge_density)
        even = is_even(g)
        try:
            d = build_ad(g)
            built = True
        except NotEven:
            built = False
        if built != even:
            failures.append((f"instance {k}: even={even} built={built}", manifests.dumps(g)))
            continue
        if built:
            res = validate_ad(g, d)
            if not res or not ad_reachability_check(g, d):
                failures.append((f"instance {k}: {res.clause}", manifests.dumps(g)))
    return count, failures


def rejecting_vertices(g):
    """Vertices from which a cycle with odd maximum is reachable; exactly
    where soundness promises Adam a win.  One `_odd_reach` over the whole
    graph, so about n^2 per odd priority."""
    order, edges = _positions(g)
    bad = _odd_reach(len(order), edges)
    return frozenset(v for k, v in enumerate(order) if bad >> k & 1)


def _transduction_soundness(p, count):
    grid = [(J, n) for J in (Index(1, 2), Index(1, 4), Index(2, 4)) for n in (0, 1, 2)]
    failures = []
    base = _corpus_params(p, 5)
    for k in range(count):
        g = random_non_even_graph(base, salt=k)
        rejecting = rejecting_vertices(g)
        for J, n in grid:
            product = reg_product(g, J, n, starts=sorted(rejecting))
            eve_region, certified = _solve_certified(product.game)
            if not certified:
                failures.append(
                    (f"instance {k} J={J} n={n}: strategies not verified", manifests.dumps(g))
                )
            for v in sorted(rejecting):
                if product.initial[v] in eve_region:
                    failures.append((f"instance {k} J={J} n={n} from {v}", manifests.dumps(g)))
                    break
    return count * len(grid), failures


def _bounded_pair_completeness(p, count):
    failures = []
    base = _corpus_params(p, 5, index_j=p.index_j)
    for k in range(count):
        n = k % 3
        pair = random_bounded_pair(base, n, salt=k)
        if not strategy_from_bounded_pair(pair, n).verify():
            failures.append((f"instance {k} n={n}: strategy", manifests.dumps(pair)))
        elif not eve_wins_reg(pair.graph_i(), pair.index_j, n + 1):
            failures.append((f"instance {k} n={n}: solve", manifests.dumps(pair)))
    return count, failures


def _strahler_completeness(p, count):
    failures = []
    base = _corpus_params(p, 6)
    for k in range(count):
        n = 1 + (k % 2)
        g = random_even_graph(base, salt=k)
        d = build_ad(g)
        if not synth_from_ad(g, d, n).verify():
            failures.append((f"instance {k} n={n}", manifests.dumps(g)))
    return count, failures


def _bounded_pair_low_strahler(p, count):
    failures = []
    for k in range(count):
        j = 1 + (k % 2)
        m = k % 2
        pair = random_bounded_pair(_corpus_params(p, 5, index_j=(1, 2 * j)), m, salt=k)
        try:
            # the construction validates its decomposition or raises
            d = ad_from_bounded_pair(pair, m, j)
        except ParityKitError as err:
            failures.append((f"instance {k}: {type(err).__name__}: {err}", manifests.dumps(pair)))
            continue
        strahler = n_strahler(tree_shape(d), m + 1)
        if strahler > j:
            failures.append((f"instance {k}: S_{m + 1}={strahler} > {j}", manifests.dumps(pair)))
    return count, failures


def _embeds_by_backtracking(t, host):
    """Whether `t` embeds in `host`, by exhaustive backtracking over the
    host's children: the independent oracle for `trees.embed`."""
    if not t.children:
        return True
    if len(t.children) > len(host.children):
        return False
    for combo in itertools.combinations(range(len(host.children)), len(t.children)):
        if all(
            _embeds_by_backtracking(c, host.children[j])
            for c, j in zip(t.children, combo)
        ):
            return True
    return False


def _universal_trees(p, count):
    """Each U(n, k, d, w) against the trees it must embed, then `embed`
    against backtracking on every pair of a query and a host: queries of at
    most 7 nodes in hosts of at most 9 at full scale (count 100, the
    battery's scale in percent), 5 in 6 below it."""
    failures = []
    instances = 0
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            for k in range(1, d + 1):
                for w in (1, 2, 3):
                    instances += 1
                    u = universal_tree(n, k, d, w)
                    family = [
                        t
                        for t in enumerate_trees(1 + w + w**2 + w**3, d, w)
                        if n_strahler(t, n) <= k
                    ]
                    ok, bad = is_universal_for(u, family)
                    if not ok:
                        failures.append((f"U({n},{k},{d},{w}) missed", manifests.dumps(bad)))
    query_nodes, host_nodes = (7, 9) if count >= 100 else (5, 6)
    hosts = enumerate_trees(host_nodes, host_nodes, host_nodes)
    for t in enumerate_trees(query_nodes, query_nodes, query_nodes):
        for h in hosts:
            instances += 1
            if (embed(t, h) is not None) != _embeds_by_backtracking(t, h):
                failures.append(("embed mismatch", manifests.dumps(t) + manifests.dumps(h)))
    return instances, failures


def _composition_correctness(p, count):
    J = Index(1, 2)
    failures = []
    trees = enumerate_regular_trees(2)
    instances = 0
    for k in range(count):
        a = random_automaton(_rng(p, 8, k))
        games = [acceptance_game(a, t) for t in trees]
        for n in (0, 1):
            composed = compose_transducer(a, J, n)
            for ti, (t, ag) in enumerate(zip(trees, games)):
                instances += 1
                lhs = membership(composed, t)
                product = reg_product(ag.game, J, n, starts=[ag.initial])
                eve_region, certified = _solve_certified(product.game)
                rhs = product.initial[ag.initial] in eve_region
                problems = [] if certified else ["strategies not verified"]
                if lhs != rhs:
                    problems.append(f"membership={lhs} reg={rhs}")
                for problem in problems:
                    witness = manifests.dumps(a) + "\n" + manifests.dumps(t)
                    failures.append((f"automaton {k} tree {ti} n={n}: {problem}", witness))
    return instances, failures


def _guided_bound(p, count):
    """The fixed guided suite and its negative control; `count` is unused."""
    failures = []
    instances = 0
    for idx, (a, b, gf, trees) in enumerate(guided_suite()):
        if len(trees) < 3:
            failures.append((f"suite {idx}: fewer than 3 member trees", ""))
        for ti, t in enumerate(trees):
            instances += 1
            if not guided_pair_bound_check(a, b, gf, t):
                failures.append((f"suite {idx} tree {ti}", manifests.dumps(a)))
    a, b, gf, trees = guided_negative()
    instances += 1
    if not any(membership(b, t) and not guided_pair_bound_check(a, b, gf, t) for t in trees):
        failures.append(("negative control never failed", ""))
    return instances, failures


def _mutation_sensitivity(p, count):
    """Re-run the bounded-pair completeness check under the never-reset
    rule; the mirror strategy must stop verifying on some corpus instance.

    Note full solving cannot distinguish the rules when 1 is in J: waiting
    on r_0 until the running input maximum is even wins regardless of
    counters, so the sensitivity lives in the synthesized strategy."""
    base = _corpus_params(p, 5)
    # fixed corpus member: a 3/4-alternating cycle whose mirror strategy
    # must recycle its counter through the update resets
    cycle = ParityGraph.make([0, 1], [(0, 1, 0), (1, 0, 0)])
    pairs = [(1, LabellingPair.make(cycle, (3, 4), (2, 2), Index(0, 4), Index(1, 2)))]
    for k in range(count):
        # n = 0 cannot distinguish reset rules (counters never leave 0)
        n = 1 + (k % 2)
        pairs.append((n, random_bounded_pair(base, n, salt=k)))
    hits = 0
    for n, pair in pairs:
        liberal = strategy_from_bounded_pair(pair, n).verify()
        never = strategy_from_bounded_pair(pair, n, rule=NEVER).verify()
        if liberal and not never:
            hits += 1
    failures = [] if hits else [("never-reset mutation was not detected", "")]
    return len(pairs), failures


@dataclass(frozen=True)
class Criterion:
    """One acceptance criterion: its name, its count at full scale, and
    `run(p, count)`, which runs a corpus of `count` members (except where
    the run's docstring says how it reads `count`)."""

    name: str
    count: int
    run: object

    def check(self, p, count):
        """The timed result of running `count` corpus members."""
        start = time.perf_counter()
        instances, failures = self.run(p, count)
        return CheckResult(self.name, instances, failures, time.perf_counter() - start)


# the acceptance criteria, numbered from 1 in this order; every product
# they build runs under its builder's default cap, DEFAULT_STATE_CAP
CRITERIA = (
    Criterion("solver-cross-oracle", 500, _solver_cross_oracle),
    Criterion("evenness-decomposition", 300, _evenness_decomposition),
    Criterion("transduction-soundness", 200, _transduction_soundness),
    Criterion("bounded-pair-completeness", 150, _bounded_pair_completeness),
    Criterion("strahler-completeness", 150, _strahler_completeness),
    Criterion("bounded-pair-low-strahler", 100, _bounded_pair_low_strahler),
    Criterion("universal-trees", 100, _universal_trees),
    Criterion("composition-correctness", 50, _composition_correctness),
    Criterion("guided-n-bound", 1, _guided_bound),
    Criterion("mutation-sensitivity", 25, _mutation_sensitivity),
)


def run_theorem_battery(p):
    """The acceptance-criteria suite at a scale set by p.instance_count
    (100 reproduces the full criteria counts): each criterion runs its
    full-scale count times p.instance_count / 100, and at least 1."""
    report = TheoremReport()
    if p.instance_count > 0:
        factor = p.instance_count / 100
        report.checks = [c.check(p, max(1, round(c.count * factor))) for c in CRITERIA]
    return report
