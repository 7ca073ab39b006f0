"""Nondeterministic parity tree automata over regular trees: acceptance
games, runs, guided runs, and the output-index composition."""

from collections import deque
from dataclasses import dataclass, field

from .decomposition import LabellingPair
from .errors import (
    DEFAULT_STATE_CAP,
    AlphabetMismatch,
    EmptyIndex,
    IncompatibleGuide,
    IncompleteAutomaton,
    NoAcceptingRun,
    PreconditionFailed,
    StateExplosion,
    UndefinedChoice,
)
from .games import Index, ParityGame, ParityGraph, solve
from .transduction import (
    LIBERAL,
    RegMachine,
    normalize_output_index,
)


@dataclass(frozen=True)
class NPTA:
    """Complete nondeterministic parity tree automaton with transition
    priorities (one per child direction)."""

    alphabet: tuple
    states: tuple
    initial: object
    transitions: tuple  # (state, letter, left, right)
    omega: tuple  # per transition: (left priority, right priority)
    index: Index

    @staticmethod
    def make(alphabet, states, initial, transitions, omega, index=None):
        alphabet = tuple(sorted(set(alphabet)))
        states = tuple(sorted(set(states)))
        transitions = tuple(tuple(t) for t in transitions)
        omega = tuple(tuple(o) for o in omega)
        if len(omega) != len(transitions):
            raise PreconditionFailed("omega", "priority map must be total on transitions")
        if initial not in states:
            raise PreconditionFailed("initial", f"{initial} not a state")
        for q, a, q0, q1 in transitions:
            if q not in states or q0 not in states or q1 not in states:
                raise PreconditionFailed("transition", f"unknown state in {(q, a, q0, q1)}")
            if a not in alphabet:
                raise PreconditionFailed("transition", f"unknown letter in {(q, a, q0, q1)}")
        if index is None:
            hi = max((max(o) for o in omega), default=0)
            lo = min((min(o) for o in omega), default=0)
            index = Index(lo, hi)
        for o in omega:
            if o[0] not in index or o[1] not in index:
                raise PreconditionFailed("omega", f"priorities {o} outside {index}")
        aut = NPTA(alphabet, states, initial, transitions, omega, index)
        for q in states:
            for a in alphabet:
                if not aut.transitions_from(q, a):
                    raise IncompleteAutomaton(f"no transition from {q} over {a!r}")
        return aut

    def transitions_from(self, q, a):
        return tuple(
            i for i, t in enumerate(self.transitions) if t[0] == q and t[1] == a
        )

    def size(self):
        return len(self.states)


@dataclass(frozen=True)
class RegularTree:
    """Finite rooted representation of a regular binary tree: every node
    carries a letter and both successors."""

    labels: tuple
    succ0: tuple
    succ1: tuple
    root: int

    @staticmethod
    def make(labels, succ0, succ1, root=0):
        labels = tuple(labels)
        succ0 = tuple(succ0)
        succ1 = tuple(succ1)
        m = len(labels)
        if len(succ0) != m or len(succ1) != m:
            raise PreconditionFailed("regular tree", "successor maps must be total")
        for s in (*succ0, *succ1):
            if not (0 <= s < m):
                raise PreconditionFailed("regular tree", f"successor {s} out of range")
        if not (0 <= root < m):
            raise PreconditionFailed("regular tree", "root out of range")
        return RegularTree(labels, succ0, succ1, root)

    def node_count(self):
        return len(self.labels)

    def label_at(self, path):
        node = self.root
        for d in path:
            node = self.succ1[node] if d else self.succ0[node]
        return self.labels[node]

    def unfolding_signature(self, depth):
        """Label tree truncated at the given depth, for equality checks."""

        def rec(node, d):
            if d == 0:
                return self.labels[node]
            return (
                self.labels[node],
                rec(self.succ0[node], d - 1),
                rec(self.succ1[node], d - 1),
            )

        return rec(self.root, depth)


@dataclass(frozen=True)
class AcceptanceGame:
    """Product of an automaton and a regular tree, with vertex decode."""

    game: ParityGame
    decode: tuple  # per vertex: ("q", node, state) or ("t", node, transition id)
    initial: int
    automaton: NPTA
    tree: RegularTree


def acceptance_game(a, t):
    """Eve resolves nondeterminism at (node, state) vertices with edges of
    the minimal priority; Adam picks directions with the transition's
    per-direction priorities."""
    if set(t.labels) - set(a.alphabet):
        raise AlphabetMismatch(sorted(set(t.labels) - set(a.alphabet)))
    ids = {}
    decode = []
    eve = []
    edges = []
    queue = deque()

    def intern(state):
        vid = ids.get(state)
        if vid is None:
            vid = len(decode)
            ids[state] = vid
            decode.append(state)
            queue.append(state)
            if state[0] == "q":
                eve.append(vid)
        return vid

    initial = intern(("q", t.root, a.initial))
    lo = a.index.lo
    while queue:
        state = queue.popleft()
        sid = ids[state]
        if state[0] == "q":
            _, node, q = state
            tids = a.transitions_from(q, t.labels[node])
            if not tids:
                raise IncompleteAutomaton(f"no transition from {q} over {t.labels[node]!r}")
            for tid in tids:
                edges.append((sid, intern(("t", node, tid)), lo))
        else:
            _, node, tid = state
            _, _, q0, q1 = a.transitions[tid]
            p0, p1 = a.omega[tid]
            edges.append((sid, intern(("q", t.succ0[node], q0)), p0))
            edges.append((sid, intern(("q", t.succ1[node], q1)), p1))
    graph = ParityGraph.make(range(len(decode)), edges, a.index)
    return AcceptanceGame(ParityGame.make(graph, eve), tuple(decode), initial, a, t)


def membership(a, t):
    ag = acceptance_game(a, t)
    eve_region, _, _, _ = solve(ag.game)
    return ag.initial in eve_region


@dataclass(frozen=True)
class RunGraph:
    """One-player graph of a fixed Eve strategy: vertices decode to
    (tree node, automaton state), each with its chosen transition; the two
    out-edges per vertex are directions 0 and 1 in order."""

    graph: ParityGraph
    decode: tuple
    chosen: tuple
    root: int
    automaton: NPTA
    tree: RegularTree

    def direction_edges(self, vid):
        return self.graph.out[vid]


def run_graph(a, t, sigma, ag=None):
    """Collapse the acceptance game under an Eve strategy into the run
    graph; priorities become the per-direction transition priorities."""
    if ag is None:
        ag = acceptance_game(a, t)
    positions = {}
    for vid, state in enumerate(ag.decode):
        if state[0] == "q":
            positions[(state[1], state[2])] = vid
    ids = {}
    decode = []
    chosen = []
    edges = []
    queue = deque()

    def intern(node, q):
        key = (node, q)
        vid = ids.get(key)
        if vid is None:
            vid = len(decode)
            ids[key] = vid
            decode.append(key)
            game_vid = positions[key]
            if game_vid not in sigma:
                raise UndefinedChoice(f"strategy undefined at {key}")
            eid = sigma[game_vid]
            target = ag.decode[ag.game.graph.edges[eid].dst]
            if target[0] != "t":
                raise PreconditionFailed("run_graph", "strategy edge is not a choice edge")
            chosen.append(target[2])
            queue.append(key)
        return vid

    root = intern(t.root, a.initial)
    while queue:
        node, q = queue.popleft()
        vid = ids[(node, q)]
        tid = chosen[vid]
        _, _, q0, q1 = a.transitions[tid]
        p0, p1 = a.omega[tid]
        edges.append((vid, intern(t.succ0[node], q0), p0))
        edges.append((vid, intern(t.succ1[node], q1), p1))
    graph = ParityGraph.make(range(len(decode)), sorted(edges), a.index)
    return RunGraph(graph, tuple(decode), tuple(chosen), root, a, t)


def accepting_run(a, t):
    """Run graph of Eve's winning strategy, or NoAcceptingRun."""
    ag = acceptance_game(a, t)
    eve_region, _, eve_strat, _ = solve(ag.game)
    if ag.initial not in eve_region:
        raise NoAcceptingRun(f"the automaton rejects the tree")
    return run_graph(a, t, eve_strat, ag=ag)


@dataclass(frozen=True)
class GuidingFunction:
    """Transition rewriting table (guided state, guide transition id) ->
    guided transition id, compatible with state and letter."""

    table: dict = field(hash=False)

    @staticmethod
    def make(a, b, table):
        for p in a.states:
            for tid_b in range(len(b.transitions)):
                key = (p, tid_b)
                if key not in table:
                    raise IncompatibleGuide(f"table not total at {key}")
                tid_a = table[key]
                ta = a.transitions[tid_a]
                tb = b.transitions[tid_b]
                if ta[0] != p or ta[1] != tb[1]:
                    raise IncompatibleGuide(
                        f"g({p}, {tb}) = {ta} is not compatible with state and letter"
                    )
        return GuidingFunction(dict(table))


def guided_run(gf, a, b, t, run_b):
    """Pull a run of `a` along a run of `b` through the guiding function.

    States of `a` propagate forward from the initial state, so vertices are
    (guide vertex, guided state) pairs; the unfolding is the rewritten run.
    """
    ids = {}
    decode = []
    chosen = []
    edges = []
    queue = deque()

    def intern(bvid, p):
        key = (bvid, p)
        vid = ids.get(key)
        if vid is None:
            vid = len(decode)
            ids[key] = vid
            node, _qb = run_b.decode[bvid]
            tid_b = run_b.chosen[bvid]
            tid_a = gf.table.get((p, tid_b))
            if tid_a is None:
                raise IncompatibleGuide(f"no entry for ({p}, transition {tid_b})")
            ta = a.transitions[tid_a]
            if ta[0] != p or ta[1] != b.transitions[tid_b][1]:
                raise IncompatibleGuide(f"entry ({p}, {tid_b}) -> {tid_a} incompatible")
            decode.append((node, p, bvid))
            chosen.append(tid_a)
            queue.append(key)
        return vid

    root = intern(run_b.root, a.initial)
    while queue:
        bvid, p = queue.popleft()
        vid = ids[(bvid, p)]
        tid_a = chosen[vid]
        _, _, p0, p1 = a.transitions[tid_a]
        pr0, pr1 = a.omega[tid_a]
        b0, b1 = run_b.direction_edges(bvid)
        edges.append((vid, intern(run_b.graph.edges[b0].dst, p0), pr0))
        edges.append((vid, intern(run_b.graph.edges[b1].dst, p1), pr1))
    graph = ParityGraph.make(range(len(decode)), sorted(edges), a.index)
    return RunGraph(graph, tuple(d[:2] for d in decode), tuple(chosen), root, a, t)


def run_pair_labelling(gf, a, b, t, run_b):
    """Guided run and the joint (labelI, labelJ) view of guided vs guide."""
    ga = guided_run(gf, a, b, t, run_b)
    label_i = [e.priority for e in ga.graph.edges]
    label_j = []
    # reconstruct the guide component per guided vertex to read B priorities
    ids = {}
    queue = deque([(ga.root, run_b.root)])
    guide_of = {}
    while queue:
        vid, bvid = queue.popleft()
        if vid in guide_of:
            continue
        guide_of[vid] = bvid
        d0, d1 = ga.direction_edges(vid)
        b0, b1 = run_b.direction_edges(bvid)
        queue.append((ga.graph.edges[d0].dst, run_b.graph.edges[b0].dst))
        queue.append((ga.graph.edges[d1].dst, run_b.graph.edges[b1].dst))
    for eid, e in enumerate(ga.graph.edges):
        bvid = guide_of[e.src]
        direction = 0 if ga.direction_edges(e.src)[0] == eid else 1
        bedge = run_b.direction_edges(bvid)[direction]
        label_j.append(run_b.graph.edges[bedge].priority)
    pair = LabellingPair.make(
        ga.graph, label_i, label_j, a.index, _j_index(b.index)
    )
    return ga, pair


def _j_index(index):
    lo = index.lo if index.lo in (1, 2) else max(1, index.lo)
    hi = index.hi if index.hi % 2 == 0 else index.hi + 1
    return Index(min(lo, hi), hi)


def guided_pair_bound_check(a, b, gf, t):
    """Instantiated boundedness check: the guided run's labelling must be
    (|A||B|+1)-bound by its guide's labelling."""
    from .transduction import n_bound_check

    run_b = accepting_run(b, t)
    _ga, pair = run_pair_labelling(gf, a, b, t, run_b)
    n = a.size() * b.size() + 1
    ok, _ce = n_bound_check(pair, n)
    return ok


def compose_transducer(a, J, n, *, rule=LIBERAL, cap=DEFAULT_STATE_CAP):
    """J-index automaton equivalent to running the transduction game over
    the acceptance games of `a`.

    States pair automaton states with register configurations.  Each tree
    level plays two transduction rounds (Eve's transition-choice edge at
    the minimal input priority, then the direction edge), whose two outputs
    fold into one per-direction priority by maximum; instant losses route
    both directions into an odd-looping reject state.
    """
    J = normalize_output_index(J)
    index_i = a.index
    shift = 0
    if index_i.lo >= 2:
        shift = index_i.lo - (index_i.lo % 2)
        index_i = index_i.shift(-shift)
    reject_priority = J.hi if J.hi % 2 == 1 else J.hi - 1
    if reject_priority < J.lo:
        raise EmptyIndex(f"output index {J} has no odd priority to reject with")
    machine = RegMachine(index_i, J, n, rule)
    lo = index_i.lo

    reject = ("reject",)
    ids = {}
    order = []
    queue = deque()

    def intern(state):
        sid = ids.get(state)
        if sid is None:
            sid = len(order)
            if sid >= cap:
                raise StateExplosion(sid + 1, cap)
            ids[state] = sid
            order.append(state)
            queue.append(state)
        return sid

    initial = intern((a.initial, machine.initial))
    intern(reject)
    transitions = []
    omega = []
    seen_rows = set()

    def second_round(cfg, priority):
        """All (output, config) results of one direction round, or loss."""
        outs = []
        for jx in range(len(machine.regs)):
            w, mid, loss = machine.output(cfg, jx)
            if loss:
                outs.append((None, None))
                continue
            for i in machine.sharp_choices(priority - shift):
                outs.append((w, machine.update(mid, i, jx)))
        return outs

    while queue:
        state = queue.popleft()
        if state == reject:
            for letter in a.alphabet:
                transitions.append((reject, letter, reject, reject))
                omega.append((reject_priority, reject_priority))
            continue
        q, cfg = state
        for letter in a.alphabet:
            for tid in a.transitions_from(q, letter):
                _, _, q0, q1 = a.transitions[tid]
                p0, p1 = a.omega[tid]
                first = []
                for jx in range(len(machine.regs)):
                    w1, mid1, loss1 = machine.output(cfg, jx)
                    if loss1:
                        first.append((None, None))
                        continue
                    for i1 in machine.sharp_choices(lo):
                        first.append((w1, machine.update(mid1, i1, jx)))
                for w1, cfg1 in first:
                    if w1 is None:
                        row = (state, letter, reject, reject, reject_priority, reject_priority)
                        if row not in seen_rows:
                            seen_rows.add(row)
                            transitions.append((state, letter, reject, reject))
                            omega.append((reject_priority, reject_priority))
                        continue
                    for w20, cfg20 in second_round(cfg1, p0):
                        for w21, cfg21 in second_round(cfg1, p1):
                            if w20 is None:
                                child0, pr0 = reject, reject_priority
                            else:
                                child0, pr0 = (q0, cfg20), max(w1, w20)
                            if w21 is None:
                                child1, pr1 = reject, reject_priority
                            else:
                                child1, pr1 = (q1, cfg21), max(w1, w21)
                            row = (state, letter, child0, child1, pr0, pr1)
                            if row in seen_rows:
                                continue
                            seen_rows.add(row)
                            intern(child0)
                            intern(child1)
                            transitions.append((state, letter, child0, child1))
                            omega.append((pr0, pr1))

    name = {state: i for i, state in enumerate(order)}
    return NPTA.make(
        a.alphabet,
        range(len(order)),
        name[(a.initial, machine.initial)],
        [(name[q], letter, name[c0], name[c1]) for q, letter, c0, c1 in transitions],
        omega,
        Index(J.lo, J.hi),
    )
