"""Nondeterministic parity tree automata over regular trees: acceptance
games, runs, guided runs, and the output-index composition."""

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .decomposition import LabellingPair, n_bound_check
from .errors import (
    DEFAULT_STATE_CAP,
    AlphabetMismatch,
    EmptyIndex,
    IncompatibleGuide,
    IncompleteAutomaton,
    NoAcceptingRun,
    PreconditionFailed,
    UndefinedChoice,
)
from .games import ColumnView, Index, ParityGame, ParityGraph, explore, solve
from .transduction import LIBERAL, normalize_output_index, reg_machine


@dataclass(frozen=True)
class NPTA:
    """Complete nondeterministic parity tree automaton with transition
    priorities (one per child direction).

    Transitions are stored as columns indexed by transition id, like a
    graph's edges: transition i leaves state `src[i]` over `letter[i]` for
    children `left[i]` and `right[i]`, with priorities `omega[i]`, a
    (left, right) pair that equal pairs share.  On a 64-bit build a
    transition costs five references, 40 bytes; a (state, letter, left,
    right) tuple per transition would cost 72 bytes more.  `transitions`
    reads the rows back as such tuples, built on read.
    """

    alphabet: tuple
    states: tuple
    initial: object
    src: tuple
    letter: tuple
    left: tuple
    right: tuple
    omega: tuple  # per transition: (left priority, right priority)
    index: Index

    @staticmethod
    def make(alphabet, states, initial, transitions, omega, index):
        """Build an automaton from (state, letter, left, right) rows and
        their priority pairs, checking both."""
        rows = tuple(tuple(t) for t in transitions)
        # a row of another length fails to unpack, here or in the zip
        src, letter, left, right = zip(*rows, strict=True) if rows else ((),) * 4
        alphabet = tuple(sorted(set(alphabet)))
        states = tuple(sorted(set(states)))
        omega = tuple(tuple(o) for o in omega)
        if len(omega) != len(src):
            raise PreconditionFailed("omega", "priority map must be total on transitions")
        known, letters = frozenset(states), frozenset(alphabet)
        try:
            hash((initial, src, letter, left, right))
        except TypeError:
            # an unhashable entry is in no set: scan the tuples, which say so
            known, letters = states, alphabet
        if initial not in known:
            raise PreconditionFailed("initial", f"{initial} not a state")
        for q, a, q0, q1 in zip(src, letter, left, right):
            if q not in known or q0 not in known or q1 not in known:
                raise PreconditionFailed("transition", f"unknown state in {(q, a, q0, q1)}")
            if a not in letters:
                raise PreconditionFailed("transition", f"unknown letter in {(q, a, q0, q1)}")
        lo, hi = index.lo, index.hi
        for o in omega:
            if not (lo <= o[0] <= hi and lo <= o[1] <= hi):
                raise PreconditionFailed("omega", f"priorities {o} outside {index}")
        # equal priority pairs share one tuple: a loaded composed automaton
        # holds many transitions over a handful of distinct pairs
        pairs = {}
        omega = tuple(pairs.setdefault(o, o) for o in omega)
        # read from a set, so that only callers of transitions_from build its index
        present = set(zip(src, letter))
        for q in states:
            for a in alphabet:
                if (q, a) not in present:
                    raise IncompleteAutomaton(f"no transition from {q} over {a!r}")
        return NPTA(alphabet, states, initial, src, letter, left, right, omega, index)

    @property
    def transitions(self):
        """The transitions as (state, letter, left, right) tuples by id: a
        read-only view of the columns."""
        return ColumnView((self.src, self.letter, self.left, self.right), tuple)

    def _row(self, tid):
        """Transition `tid` as (state, letter, left, right), for messages."""
        return self.src[tid], self.letter[tid], self.left[tid], self.right[tid]

    @cached_property
    def _by_state_letter(self):
        """(state, letter) -> ascending ids of the transitions from there."""
        table = {}
        for i, key in enumerate(zip(self.src, self.letter)):
            table.setdefault(key, []).append(i)
        return {key: tuple(ids) for key, ids in table.items()}

    def transitions_from(self, q, a):
        return self._by_state_letter.get((q, a), ())

    @cached_property
    def _quotient(self):
        """Coarsest bisimulation: (state -> its class's first state,
        (that state, letter) -> the class's tails in first-seen order).

        States are bisimilar when, per letter, they have the same set of
        tails (class of q0, class of q1, p0, p1).  Classes are refined from
        one by those signatures until their count stops growing.  They are
        computed once per automaton; the composed automata of criterion 8
        have about a quarter as many classes as states.
        """
        rows = {q: [] for q in self.states}
        columns = zip(self.src, self.letter, self.left, self.right, self.omega)
        for q, a, q0, q1, (p0, p1) in columns:
            rows[q].append((a, q0, q1, p0, p1))
        cls, count = dict.fromkeys(self.states, 0), 1
        while True:
            sigs = {}
            refined = {
                q: sigs.setdefault(
                    (cls[q], frozenset((a, cls[q0], cls[q1], p0, p1) for a, q0, q1, p0, p1 in r)),
                    len(sigs),
                )
                for q, r in rows.items()
            }
            if len(sigs) == count:
                break
            cls, count = refined, len(sigs)
        first = {}
        rep = {q: first.setdefault(c, q) for q, c in cls.items()}
        shared, table = {}, {}
        for q in first.values():
            for a, q0, q1, p0, p1 in rows[q]:
                tail = (rep[q0], rep[q1], p0, p1)
                table.setdefault((q, a), {})[shared.setdefault(tail, tail)] = None
        return rep, {key: tuple(tails) for key, tails in table.items()}

    @cached_property
    def _undominated(self):
        """(class state, letter) -> the tails of that `_quotient` entry that
        no other tail of the entry dominates, in the entry's order.

        Tail u dominates tail t when both have the same child classes and,
        in each direction, u's priority is at least as good for Eve as t's
        (`_eve_rank`).  Tails are compared only within their child-class
        group, and an entry keeps at least its maximal tails, so no entry
        is empty.
        """
        table = {}
        for key, tails in self._quotient[1].items():
            groups = {}
            for q0, q1, p0, p1 in tails:
                groups.setdefault((q0, q1), []).append((_eve_rank(p0), _eve_rank(p1)))
            kept = []
            for tail in tails:
                r0, r1 = _eve_rank(tail[2]), _eve_rank(tail[3])
                if not any(
                    s0 >= r0 and s1 >= r1 and (s0 != r0 or s1 != r1)
                    for s0, s1 in groups[tail[0], tail[1]]
                ):
                    kept.append(tail)
            table[key] = tuple(kept)
        return table

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
    def make(labels, succ0, succ1, root):
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

    def unfolding_signature(self, depth):
        """Label tree truncated at the given depth, for equality checks: a
        node's label at depth 0, else (label, successor 0's, successor 1's
        at one depth less), built for every node depth by depth."""
        sigs = self.labels
        for _ in range(depth):
            sigs = [(label, sigs[a], sigs[b]) for label, a, b in zip(self.labels, self.succ0, self.succ1)]
        return sigs[self.root]


@dataclass(frozen=True)
class AcceptanceGame:
    """Product of an automaton and a regular tree, with vertex decode."""

    game: ParityGame
    decode: tuple  # per vertex: ("q", node, state) or ("t", node, transition id)
    initial: int


def acceptance_game(a, t):
    """Eve resolves nondeterminism at (node, state) vertices with edges of
    the minimal priority; Adam picks directions with the transition's
    per-direction priorities."""
    what = f"acceptance_game(states={a.size()}, nodes={t.node_count()})"
    left, right, omega = a.left, a.right, a.omega
    decode, initial, game = _acceptance_product(
        a, t, what, a.initial, a.transitions_from, lambda tid: (left[tid], right[tid], *omega[tid])
    )
    return AcceptanceGame(game, tuple(decode), initial)


def _eve_rank(p):
    """Orders priorities by how good they are for Eve: every odd priority
    below every even one, smaller odd ones better, larger even ones better."""
    return p if p % 2 == 0 else -p


def membership(a, t):
    """Whether `a` accepts `t`.

    Decided on the acceptance game of the automaton's bisimulation quotient
    (`NPTA._quotient`), where Eve is offered only her undominated tails
    (`NPTA._undominated`).  The quotient keeps the winner: bisimilar states
    give bisimilar games.  The pruning keeps it too.  Removing options can
    only hurt Eve, and she loses nothing: in any winning strategy she can
    switch each dominated pick to a pick that dominates it.  Every play then
    visits the same (node, state) vertices, and each of its priorities is at
    least as good for her, so if the largest priority seen infinitely often
    was even, it stays even.  `acceptance_game` still builds the full game.
    """
    what = f"membership(states={a.size()}, nodes={t.node_count()})"
    rep = a._quotient[0]
    tails = a._undominated
    _decode, initial, game = _acceptance_product(
        a, t, what, rep[a.initial], lambda q, letter: tails.get((q, letter), ()), lambda tail: tail
    )
    eve_region, _, _, _ = solve(game)
    return initial in eve_region


def _acceptance_product(a, t, what, start, moves, tail):
    """(decode, initial vertex, game) of the acceptance game of `a` on `t`
    from state `start`.

    Eve's vertices are ("q", node, state), Adam's ("t", node, key) for each
    key in moves(state, letter); tail(key) gives its (q0, q1, p0, p1).
    """
    missing = sorted(set(t.labels) - set(a.alphabet))
    if missing:
        raise AlphabetMismatch(f"tree letters {missing} are not in the alphabet {list(a.alphabet)}")
    eve = []
    src, dst, pri = [], [], []
    lo = a.index.lo

    def expand(state, sid, intern):
        if state[0] == "q":
            _, node, q = state
            eve.append(sid)
            keys = moves(q, t.labels[node])
            if not keys:
                raise IncompleteAutomaton(f"no transition from {q} over {t.labels[node]!r}")
            for key in keys:
                src.append(sid)
                dst.append(intern(("t", node, key)))
                pri.append(lo)
        else:
            _, node, key = state
            q0, q1, p0, p1 = tail(key)
            src.extend((sid, sid))
            dst.append(intern(("q", t.succ0[node], q0)))
            dst.append(intern(("q", t.succ1[node], q1)))
            pri.extend((p0, p1))

    decode, (initial,) = explore([("q", t.root, start)], expand, what)
    graph = ParityGraph._explored(len(decode), src, dst, pri, a.index)
    # `explore` numbered every vertex in `eve`, so eve is within them
    return decode, initial, ParityGame(graph, frozenset(eve))


@dataclass(frozen=True)
class RunGraph:
    """One-player graph of a fixed Eve strategy: vertices decode to
    (tree node, automaton state), each with its chosen transition; the two
    out-edges per vertex are directions 0 and 1 in order."""

    graph: ParityGraph
    decode: tuple
    chosen: tuple
    root: int


def run_graph(a, t, sigma, ag):
    """Collapse `ag`, the acceptance game of `a` on `t`, under an Eve
    strategy into the run graph; priorities become the per-direction
    transition priorities."""
    g = ag.game.graph
    chosen = []
    src, dst, pri = [], [], []

    def expand(game_vid, vid, intern):
        if game_vid not in sigma:
            raise UndefinedChoice(f"strategy undefined at {ag.decode[game_vid][1:]}")
        choice = g.dst[sigma[game_vid]]
        kind, _node, tid = ag.decode[choice]
        if kind != "t":
            raise PreconditionFailed("run_graph", "strategy edge is not a choice edge")
        chosen.append(tid)
        # a choice vertex's out-edges are its directions 0 and 1, in order
        for i in g.out[choice]:
            src.append(vid)
            dst.append(intern(g.dst[i]))
            pri.append(g.pri[i])

    what = f"run_graph(states={a.size()}, nodes={t.node_count()})"
    states, (root,) = explore([ag.initial], expand, what)
    graph = ParityGraph._explored(len(states), src, dst, pri, a.index)
    decode = tuple(ag.decode[game_vid][1:] for game_vid in states)
    return RunGraph(graph, decode, tuple(chosen), root)


def accepting_run(a, t):
    """Run graph of Eve's winning strategy, or NoAcceptingRun."""
    ag = acceptance_game(a, t)
    eve_region, _, eve_strat, _ = solve(ag.game)
    if ag.initial not in eve_region:
        raise NoAcceptingRun("the automaton rejects the tree")
    return run_graph(a, t, eve_strat, ag)


@dataclass(frozen=True)
class GuidingFunction:
    """Transition rewriting table (guided state, guide transition id) ->
    guided transition id, compatible with state and letter."""

    table: dict = field(hash=False)

    @staticmethod
    def make(a, b, table):
        for p in a.states:
            for tid_b in range(len(b.src)):
                _guide_entry(table, a, b, p, tid_b)
        return GuidingFunction(dict(table))


def _guide_entry(table, a, b, p, tid_b):
    """The guided transition id at (p, tid_b): present, a transition id of
    `a`, and compatible with state p and guide transition tid_b's letter."""
    key = (p, tid_b)
    if key not in table:
        raise IncompatibleGuide(f"table not total at {key}")
    tid_a = table[key]
    if tid_a not in range(len(a.src)):
        raise IncompatibleGuide(f"g{key} = {tid_a} is not a transition id")
    if a.src[tid_a] != p or a.letter[tid_a] != b.letter[tid_b]:
        ta, tb = a._row(tid_a), b._row(tid_b)
        raise IncompatibleGuide(f"g({p}, {tb}) = {ta} is not compatible with state and letter")
    return tid_a


def run_pair_labelling(gf, a, b, t, run_b):
    """Pull a run of `a` along a run of `b` through the guiding function:
    the guided run and the joint (labelI, labelJ) view of guided vs guide.

    States of `a` propagate forward from the initial state, so vertices are
    (guide vertex, guided state) pairs; the unfolding is the rewritten run.
    Each edge's labelJ is the priority of the edge of `run_b` that it
    follows, shifted by the even offset that `normalize_output_index`
    applies to the guide's index.
    """
    chosen = []
    src, dst, pri = [], [], []
    label_j = []
    b_out, b_dst, b_pri = run_b.graph.out, run_b.graph.dst, run_b.graph.pri
    index_j = normalize_output_index(b.index)
    shift = index_j.lo - b.index.lo

    def expand(key, vid, intern):
        bvid, p = key
        tid_a = _guide_entry(gf.table, a, b, p, run_b.chosen[bvid])
        chosen.append(tid_a)
        b0, b1 = b_out[bvid]
        src.extend((vid, vid))
        dst.append(intern((b_dst[b0], a.left[tid_a])))
        dst.append(intern((b_dst[b1], a.right[tid_a])))
        pri.extend(a.omega[tid_a])
        label_j.extend((b_pri[b0] + shift, b_pri[b1] + shift))

    what = f"guided_run(states={a.size()}, guide states={b.size()}, nodes={t.node_count()})"
    states, (root,) = explore([(run_b.root, a.initial)], expand, what)
    graph = ParityGraph._explored(len(states), src, dst, pri, a.index)
    decode = tuple((run_b.decode[bvid][0], p) for bvid, p in states)
    # each labelling lies in its index, as every automaton's priorities do
    pair = LabellingPair(graph, graph.pri, tuple(label_j), a.index, index_j)
    return RunGraph(graph, decode, tuple(chosen), root), pair


def guided_pair_bound_check(a, b, gf, t):
    """Instantiated boundedness check: the guided run's labelling must be
    (|A||B|+1)-bound by its guide's labelling."""
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
    both directions into an odd-looping reject state.  Each round's step
    row (configuration, input priority) is computed once per process, on
    the shared machine from `reg_machine`.
    """
    machine, what = reg_machine(a.index, J, n, rule, cap, "compose_transducer")
    J, step = machine.J, machine.step
    reject_priority = J.hi if J.hi % 2 == 1 else J.hi - 1
    if reject_priority < J.lo:
        raise EmptyIndex(f"output index {J} has no odd priority to reject with")

    # the reject state is the second start, so its id is 1
    reject = 1
    # the distinct rows (state, letter, child0, child1, priority pair), each
    # once, in the order first emitted; equal priority pairs are one tuple
    lost = (reject_priority, reject_priority)
    rows, pairs = {}, {lost: lost}

    def expand(state, sid, intern):
        if sid == reject:
            for letter in a.alphabet:
                rows[reject, letter, reject, reject, lost] = None
            return
        q, cfg = state
        first = step(cfg, a.index.lo)
        for letter in a.alphabet:
            for tid in a.transitions_from(q, letter):
                q0, q1 = a.left[tid], a.right[tid]
                p0, p1 = a.omega[tid]
                # an instant loss (output None) has one outcome, None
                for w1, _, after1 in first:
                    for cfg1 in after1:
                        if w1 is None:
                            rows[sid, letter, reject, reject, lost] = None
                            continue
                        children1 = None
                        for w20, _, after20 in step(cfg1, p0):
                            for cfg20 in after20:
                                if w20 is None:
                                    child0, pr0 = reject, reject_priority
                                else:
                                    child0, pr0 = intern((q0, cfg20)), max(w1, w20)
                                if children1 is None:
                                    # interned once, right after the first
                                    # direction-0 child, which keeps the numbering
                                    children1 = [
                                        (reject, reject_priority)
                                        if w21 is None
                                        else (intern((q1, cfg21)), max(w1, w21))
                                        for w21, _, after21 in step(cfg1, p1)
                                        for cfg21 in after21
                                    ]
                                for child1, pr1 in children1:
                                    pair = pr0, pr1
                                    rows[sid, letter, child0, child1, pairs.setdefault(pair, pair)] = None

    states, (initial, _reject) = explore(
        [(a.initial, machine.initial), ("reject",)], expand, what, cap
    )
    # the columns of the rows, one pass each: `zip(*rows)` would hold an
    # iterator per row.  An empty alphabet gives empty columns
    src, letter, left, right, omega = (tuple(map(itemgetter(k), rows)) for k in range(5))
    del rows
    # states, letters and priorities all come from `a` and the machine, and
    # every (state, letter) has a row, so there is nothing for `make` to check
    return NPTA(a.alphabet, tuple(range(len(states))), initial, src, letter, left, right, omega, J)
