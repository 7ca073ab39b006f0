"""Parity graphs and games: attractors, evenness, Zielonka solving.

Priorities live on edges throughout.  Vertices are plain ints, edges are
referred to by their id, the position in the graph's per-edge columns.
All set-valued results are computed by iterating vertices and edges in
ascending id order, so every operation is deterministic.
"""

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import eq
from typing import NamedTuple

from .errors import (
    DEFAULT_STATE_CAP,
    PreconditionFailed,
    PriorityOutOfRange,
    StateExplosion,
    StrategyEscapesRegion,
    TerminalVertex,
    UndefinedChoice,
)

EVE = "eve"
ADAM = "adam"


@dataclass(frozen=True)
class Index:
    """A contiguous priority range [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 0 or self.hi < self.lo:
            raise PreconditionFailed("index", f"bad range [{self.lo},{self.hi}]")

    def __contains__(self, p):
        return self.lo <= p <= self.hi

    def odds(self):
        return range(self.lo + 1 - self.lo % 2, self.hi + 1, 2)

    def evens(self):
        return range(self.lo + self.lo % 2, self.hi + 1, 2)

    def shift(self, delta):
        return Index(self.lo + delta, self.hi + delta)


class Edge(NamedTuple):
    src: int
    dst: int
    priority: int


class ColumnView(Sequence):
    """Rows by id read from parallel columns: row i holds entry i of each
    column, as a `row` (a tuple type).  Its length is the column length,
    and each row is built when it is indexed or iterated, never kept.  It
    equals a tuple or view of the same rows."""

    __slots__ = ("_columns", "_row")

    def __init__(self, columns, row):
        self._columns = columns
        self._row = row

    def __len__(self):
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(tuple.__new__, repeat(self._row), zip(*(c[i] for c in self._columns))))
        return tuple.__new__(self._row, [c[i] for c in self._columns])

    def __iter__(self):
        return map(tuple.__new__, repeat(self._row), zip(*self._columns))

    def __eq__(self, other):
        if isinstance(other, ColumnView):
            return self._columns == other._columns
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented


@dataclass(frozen=True)
class ParityGraph:
    """Edge-priority-labelled directed graph, stored as per-edge columns:
    edge i runs from `src[i]` to `dst[i]` with priority `pri[i]`.

    Terminal vertices (no outgoing edge) are representable, but
    game-facing operations reject them.
    """

    vertices: frozenset
    src: tuple
    dst: tuple
    pri: tuple
    index: Index

    # set by `with_priorities`: the graph whose successor tables this one reads
    _skeleton = None

    @staticmethod
    def make(vertices, edges, index=None):
        """Build a graph from iterables, inferring the index if omitted (an
        index never reaches below 0, so neither can a priority)."""
        vs = frozenset(vertices)
        src, dst, pri = [], [], []
        for s, d, p in edges:
            if s not in vs or d not in vs:
                raise PreconditionFailed("edge endpoints", f"{Edge(s, d, p)} not within vertex set")
            src.append(s)
            dst.append(d)
            pri.append(p)
        if index is None:
            index = Index(0, max([0, *pri]))
        outside = [p for p in pri if not index.lo <= p <= index.hi]
        if outside:
            raise PriorityOutOfRange(f"priority {outside[0]} outside {index}")
        return ParityGraph(vs, tuple(src), tuple(dst), tuple(pri), index)

    @staticmethod
    def _explored(count, src, dst, pri, index):
        """Graph on 0..count-1 from the columns that a builder filled while
        numbering its states with `explore`; nothing is re-checked."""
        return ParityGraph(frozenset(range(count)), tuple(src), tuple(dst), tuple(pri), index)

    def with_priorities(self, pri, index):
        """The same edges with priorities `pri` (by edge id) under `index`,
        unchecked; the new graph shares this graph's successor tables."""
        g = ParityGraph(self.vertices, self.src, self.dst, tuple(pri), index)
        object.__setattr__(g, "_skeleton", self._skeleton or self)
        return g

    @property
    def edges(self):
        """The edges as `Edge`s by id: a read-only view of the columns."""
        return ColumnView((self.src, self.dst, self.pri), Edge)

    def _by_vertex(self, column):
        """vertex -> tuple of the ids of the edges whose `column` entry is
        that vertex, ascending: a list indexed by vertex when the vertices
        are exactly 0..n-1, else a dict.  Readers only index it by vertex."""
        vs = self.vertices
        dense = not vs or (min(vs) == 0 and max(vs) == len(vs) - 1)
        table = [[] for _ in vs] if dense else {v: [] for v in vs}
        for i, v in enumerate(column):
            table[v].append(i)
        if dense:
            return list(map(tuple, table))
        return {v: tuple(ids) for v, ids in table.items()}

    @cached_property
    def out(self):
        """vertex -> tuple of outgoing edge ids, ascending."""
        return self._skeleton.out if self._skeleton else self._by_vertex(self.src)

    @cached_property
    def inc(self):
        """vertex -> tuple of incoming edge ids, ascending."""
        return self._skeleton.inc if self._skeleton else self._by_vertex(self.dst)

    @cached_property
    def cap(self):
        """Root priority cap: one above every priority.  A view of the graph
        is a vertex set `alive` plus a cap; an edge is live iff both ends
        are alive and its priority is below the cap."""
        return max(self.pri, default=0) + 1

    @cached_property
    def terminals(self):
        """Vertices with no outgoing edge, ascending."""
        return tuple(sorted(self.vertices.difference(self.src)))

    def sorted_vertices(self):
        return sorted(self.vertices)


@dataclass(frozen=True)
class ParityGame:
    """Parity graph plus an Eve/Adam partition of the vertices."""

    graph: ParityGraph
    eve: frozenset

    @staticmethod
    def make(graph, owner):
        """owner: mapping vertex -> EVE/ADAM, or an iterable of Eve's vertices."""
        if isinstance(owner, dict):
            missing = graph.vertices - owner.keys()
            extra = owner.keys() - graph.vertices
            if missing or extra:
                raise PreconditionFailed("owner", f"missing={sorted(missing)} extra={sorted(extra)}")
            eve = frozenset(v for v, p in owner.items() if p == EVE)
        else:
            eve = frozenset(owner)
            if not eve <= graph.vertices:
                raise PreconditionFailed("owner", "eve set not within vertices")
        return ParityGame(graph, eve)

    def owner(self, v):
        return EVE if v in self.eve else ADAM

    @cached_property
    def adam(self):
        return self.graph.vertices - self.eve

    def player_vertices(self, player):
        return self.eve if player == EVE else self.adam


@dataclass(frozen=True)
class Lasso:
    """Finite witness of an infinite play: a stem followed by a cycle."""

    stem: tuple
    cycle: tuple

    def __post_init__(self):
        if not self.cycle:
            raise PreconditionFailed("lasso", "empty cycle")

    def check(self, g):
        """True iff the edge ids form a connected stem+cycle returning to its start."""
        src, dst = g.src, g.dst
        path = list(self.stem) + list(self.cycle)
        for a, b in zip(path, path[1:]):
            if dst[a] != src[b]:
                return False
        return dst[self.cycle[-1]] == src[self.cycle[0]]


# ---------------------------------------------------------------------------
# state-space exploration


def explore(starts, expand, what, cap=DEFAULT_STATE_CAP):
    """Breadth-first exploration of a product state space.

    States (hashable) are numbered in discovery order, `starts` first.
    `expand(state, sid, intern)` runs once per state in id order, and
    `intern(state)` returns a state's id, numbering it if it is new; so a
    builder that appends its out-edges inside `expand` lists them by
    source id, each source's in the order it emits them.  `intern(state,
    True)` numbers a state that the caller knows to be new without looking
    it up, and never finds it later: only a state with one predecessor,
    which is expanded once, may be numbered so.  An `expand` that returns
    true ends the exploration: no later state is expanded.  Raises
    StateExplosion naming the construction `what` when more than `cap`
    states are needed.  Returns (states by id, ids of `starts`).
    """
    ids = {}
    # ids are pop order, so the decode list doubles as the queue
    states = []

    def intern(state, new=False):
        sid = None if new else ids.get(state)
        if sid is None:
            sid = len(states)
            if sid >= cap:
                raise StateExplosion(sid + 1, cap, what)
            if not new:
                ids[state] = sid
            states.append(state)
        return sid

    start_ids = [intern(state) for state in starts]
    for sid, state in enumerate(states):
        if expand(state, sid, intern):
            break
    return states, start_ids


# ---------------------------------------------------------------------------
# attractors


def _attract(
    g, alive, cap, targets=frozenset(), target_edges=frozenset(), mine=frozenset(), live_moves=False
):
    """Least set of `alive` from which every live path is forced into
    `targets` or across a live edge of `target_edges`.

    Vertices in `mine` need one such move, all others need every live
    move to be one (so a vertex without live moves is forced vacuously).
    Counter-based, O(|V|+|E|) on the view.  Returns (attracted set,
    strategy), the strategy mapping each attracted vertex of `mine`
    outside `targets` to its move: its first target edge in out-edge
    order if it has one, else the in-edge that first reached it.  The
    seed round takes vertices in ascending id and the queue scans
    in-edges ascending, so the strategy is deterministic.

    `live_moves` promises a view without dead ends.  Then only the sources
    of target edges can seed besides `targets`, and an opponent vertex
    counts its escapes (live non-target moves) when first reached, so the
    cost is in the attracted vertices, their in-edges and the out-edges of
    the opponent vertices touched; the queue and strategy are unchanged.
    """
    src, dst, pri, out, inc = g.src, g.dst, g.pri, g.out, g.inc
    # the queue is a list that the loop below extends while reading it
    queue = sorted(targets & alive)
    push = queue.append
    strat = {}
    # opponent vertex -> its escapes not yet cut off by attracted vertices
    esc = {}
    seeds = alive.intersection(map(src.__getitem__, target_edges)) if live_moves else alive
    for v in sorted(seeds.difference(queue)):
        if v in mine:
            if target_edges:
                for i in out[v]:
                    if i in target_edges and pri[i] < cap and dst[i] in alive:
                        strat[v] = i
                        push(v)
                        break
        else:
            k = 0
            for i in out[v]:
                if pri[i] < cap and dst[i] in alive and i not in target_edges:
                    k += 1
            if k:
                esc[v] = k
            else:
                push(v)
    attracted = set(queue)
    add = attracted.add
    for w in queue:
        for i in inc[w]:
            u = src[i]
            if u not in alive or u in attracted or pri[i] >= cap or i in target_edges:
                continue
            if u in mine:
                strat[u] = i
            else:
                k = esc.get(u)
                if k is None:
                    k = 0
                    for j in out[u]:
                        if pri[j] < cap and dst[j] in alive and j not in target_edges:
                            k += 1
                if k > 1:
                    esc[u] = k - 1
                    continue
            add(u)
            push(u)
    return attracted, strat


def attractor_vertices(g, targets):
    """attr(V', G): vertices whose every infinite path eventually passes V'."""
    targets = frozenset(targets)
    if not targets <= g.vertices:
        raise PreconditionFailed("attractor_vertices", "targets not within vertices")
    return frozenset(_attract(g, g.vertices, g.cap, targets)[0])


def player_attractor(game, targets, player):
    """Vertices from which `player` can force reaching `targets`, plus a
    positional reaching strategy on the player's vertices outside the targets."""
    targets = frozenset(targets)
    g = game.graph
    if not targets <= g.vertices:
        raise PreconditionFailed("player_attractor", "targets not within vertices")
    attracted, strat = _attract(g, g.vertices, g.cap, targets, mine=game.player_vertices(player))
    return frozenset(attracted), strat


# ---------------------------------------------------------------------------
# evenness


def _odd_cycle_witness(g, parity=1, view=None):
    """Lasso whose cycle's maximum has the given parity (1: odd), or None.

    A cycle with maximum exactly p exists iff the view capped at p+1 has
    a p-edge inside one of its strongly connected components.  Each level
    p of that parity is searched in descending order, from its own p-edges
    in `ids` order: Tarjan's search (on edges of priority <= p) starts at a
    p-edge's source only if that source has no component at this level
    yet, and it never leaves the source's component of the levels above,
    which holds every smaller one.  The search stops at the first p-edge
    whose ends share a cyclic component; since SCCs do not depend on the
    order of the roots, that is the first such edge of a full refinement.
    A vertex that no search of a level reaches keeps its enclosing
    component, and one found on no cycle leaves the search for good.  Each
    vertex is placed at most once per level: O(levels * (V + E)).

    `view`, if given, confines the search to a subgraph of g as a triple
    (vertices, out, ids): `out` maps each vertex to its out-edge ids, none
    of which leaves the vertices, and `ids` lists those edges.  The lasso's
    cycle starts at the first p-edge in `ids` order that lies in a cyclic
    component, so at the smallest one for the whole graph.

    The per-vertex state is held in lists indexed by vertex when g's
    vertices are 0..n-1 (g's successor table is then a list), else in
    dicts; both are read through `[]`.
    """
    src, dst, pri = g.src, g.dst, g.pri
    if view is None:
        vertices, out, ids, at = g.vertices, g.out, range(len(pri)), pri
        loops = compress(ids, map(eq, src, dst))
    else:
        vertices, out, ids = view
        at = [pri[i] for i in ids]
        loops = [i for i in ids if src[i] == dst[i]]
    levels = sorted((p for p in set(at) if p % 2 == parity), reverse=True)
    # lowest self-loop priority: a one-vertex component is cyclic iff it is <= p
    loop = {}
    for i in loops:
        if pri[i] < loop.get(src[i], pri[i] + 1):
            loop[src[i]] = pri[i]
    # comp: vertex -> its cyclic component, -1 once it is on no cycle; ids
    # are DFS numbers + 1, so those given at this level exceed `start` and
    # those of the levels above (0: the whole view) do not
    if isinstance(g.out, list):
        n = len(g.out)
        comp, index, low = [0] * n, [-1] * n, [0] * n
    else:
        comp, index, low = dict.fromkeys(vertices, 0), dict.fromkeys(vertices, -1), {}
    count = 0
    stack = []
    for p in levels:
        start = count
        for i in compress(ids, map(p.__eq__, at)):
            s, d = src[i], dst[i]
            cid = comp[s]
            if 0 <= cid <= start:
                # place s and what it reaches inside its enclosing component;
                # a vertex there was visited at this level iff index >= start
                index[s] = low[s] = count
                count += 1
                stack.append(s)
                work = [(s, iter(out[s]))]
                while work:
                    v, edges = work[-1]
                    for k in edges:
                        if pri[k] <= p:
                            w = dst[k]
                            if comp[w] == cid:
                                x = index[w]
                                if x < start:
                                    index[w] = low[w] = count
                                    count += 1
                                    stack.append(w)
                                    work.append((w, iter(out[w])))
                                    break
                                if x < low[v]:
                                    low[v] = x
                    else:
                        work.pop()
                        x = low[v]
                        if work:
                            u = work[-1][0]
                            if x < low[u]:
                                low[u] = x
                        if x != index[v]:
                            continue
                        w = stack.pop()
                        if w == v and loop.get(v, p + 1) > p:
                            comp[v] = -1
                            continue
                        comp[w] = x + 1
                        while w != v:
                            w = stack.pop()
                            comp[w] = x + 1
                cid = comp[s]
            if cid < 0 or cid != comp[d]:
                continue
            # path d -> s inside the view, restricted to the component (empty
            # for a self-loop)
            parent = {d: None}
            queue = deque([d])
            while queue:
                u = queue.popleft()
                if u == s:
                    break
                for k in out[u]:
                    w = dst[k]
                    if pri[k] <= p and comp[w] == cid and w not in parent:
                        parent[w] = k
                        queue.append(w)
            path = []
            u = s
            while parent[u] is not None:
                k = parent[u]
                path.append(k)
                u = src[k]
            path.reverse()
            return Lasso((), (i, *path))
    return None


def check_even(g):
    """(True, None) if every cycle has even maximum, else (False, lasso)."""
    if g.terminals:
        raise TerminalVertex(g.terminals[0])
    lasso = _odd_cycle_witness(g)
    return (lasso is None), lasso


def is_even(g):
    ok, _ = check_even(g)
    return ok


# ---------------------------------------------------------------------------
# solving


def unwind(gen):
    """The return value of the generator `gen`, run on an explicit stack: a
    generator that a running one yields is its sub-call, whose return value
    is sent back.  An exception propagates out; no caller is resumed."""
    stack, result = [gen], None
    while stack:
        try:
            stack.append(stack[-1].send(result))
            result = None
        except StopIteration as stop:
            result = stop.value
            stack.pop()
    return result


def gather(gens):
    """`values = yield from gather(gens)` inside a generator run by `unwind`:
    the return values of the generators `gens`, called in turn."""
    values = []
    for gen in gens:
        values.append((yield gen))
    return values


def _zielonka(game, alive, cap, top=None):
    """Generator form of Zielonka's recursion for edge priorities on the
    view (alive, cap) of the game's graph.

    Yields its two sub-calls as generators, which `unwind` runs and sends
    back the results of.  Returns a dict
    {EVE: region, ADAM: region, (EVE, 's'): strategy, (ADAM, 's'): strategy}.
    The first sub-call caps the view at d, the maximal live priority: that
    removes exactly the top edges, because no live edge lies above d.

    `top`, if given, holds every live edge of maximal priority in some
    view that contains this one and has the same cap.  Its edges that are
    still live, if any, are then exactly this view's top edges, so they
    give d without scanning the view.  The second sub-call's view lies
    inside this one with the same cap, so it inherits this call's top.

    Views have no dead ends, so the attractors seed lazily: the root is a
    terminal-free game, and a vertex outside a player's attractor keeps a
    live move that avoids it and the top edges, so neither `below` nor
    `alive - trap` (outside the opponent's attractor) has one.

    `alive` is never empty: an empty sub-view gets its result inline, with
    fresh strategy dicts, since callers update them.  Each returned
    strategy maps only its player's vertices inside that player's region,
    so a sub-call's strategy is kept whole.
    """
    g = game.graph
    src, dst, pri, out = g.src, g.dst, g.pri, g.out
    if top:
        top = {i for i in top if src[i] in alive and dst[i] in alive}
    if top:
        d = pri[next(iter(top))]
    else:
        d = -1
        top = set()
        for v in alive:
            for i in out[v]:
                p = pri[i]
                if d <= p < cap and dst[i] in alive:
                    if p > d:
                        d = p
                        top = {i}
                    else:
                        top.add(i)
    if d < 0:
        # cannot happen: subgames of terminal-free games stay terminal-free
        raise TerminalVertex(min(alive))
    player, other = (EVE, ADAM) if d % 2 == 0 else (ADAM, EVE)
    mine = game.player_vertices(player)
    area, reach = _attract(g, alive, cap, target_edges=top, mine=mine, live_moves=True)
    below = alive - area
    if not below:
        return {player: alive, other: frozenset(), (player, "s"): reach, (other, "s"): {}}
    # sub-calls nest deeply; a suspended call keeps only what its merge
    # needs, and the top edges as a tuple, which is smaller than a set
    top = tuple(top)
    del area
    sub = yield _zielonka(game, below, d)
    del below
    if not sub[other]:
        strat = sub[(player, "s")]
        strat.update(reach)
        return {player: alive, other: frozenset(), (player, "s"): strat, (other, "s"): {}}
    won, kept = sub[other], sub[(other, "s")]
    theirs = game.player_vertices(other)
    trap, pull = _attract(g, alive, cap, won, mine=theirs, live_moves=True)
    del reach, sub, won
    left = alive - trap
    if not left:
        pull.update(kept)
        return {player: frozenset(), other: alive, (player, "s"): {}, (other, "s"): pull}
    rest = yield _zielonka(game, left, cap, top)
    other_strat = rest[(other, "s")]
    other_strat.update(pull)
    other_strat.update(kept)
    return {
        player: rest[player],
        other: rest[other] | trap,
        (player, "s"): rest[(player, "s")],
        (other, "s"): other_strat,
    }


def solve(game):
    """Zielonka regions and positional winning strategies for both players.

    Every recursive call reads only the live out-edges of its own
    vertices in the graph's flat edge lists, or only the top edges that
    it inherits; the root inherits the edges of the graph's top priority.
    Each strategy maps only its own player's vertices inside that player's
    region: `_attract` records moves of `mine` only, attracted into the
    region that the call gives them, and a call gives each sub-call's
    region to the same player.
    """
    g = game.graph
    if g.terminals:
        raise TerminalVertex(g.terminals[0])
    if not g.vertices:
        return frozenset(), frozenset(), {}, {}
    top = tuple(compress(range(len(g.pri)), map((g.cap - 1).__eq__, g.pri)))
    result = unwind(_zielonka(game, g.vertices, g.cap, top))
    return result[EVE], result[ADAM], result[(EVE, "s")], result[(ADAM, "s")]


def _strategy_view(game, sigma, region, player):
    """The strategy graph on the frozenset `region` as a view of the game's
    edges: vertex -> the ids of its out-edges, the chosen one for each of
    `player`'s vertices and all for the opponent's.  Raises on a bad choice,
    in ascending vertex order."""
    g = game.graph
    src, dst, out = g.src, g.dst, g.out
    mine = game.player_vertices(player)
    view = {}
    for v in sorted(region):
        if v not in mine:
            view[v] = out[v]
            continue
        if v not in sigma:
            raise UndefinedChoice(f"no choice at vertex {v}")
        i = sigma[v]
        if src[i] != v:
            raise PreconditionFailed("strategy", f"edge {i} does not leave {v}")
        if dst[i] not in region:
            raise StrategyEscapesRegion(f"choice at {v} leaves the region")
        view[v] = (i,)
    return view


def strategy_graph(game, sigma, region, player=EVE):
    """One-player graph: `player` vertices keep only their chosen edge,
    the opponent's keep all region-internal edges."""
    g = game.graph
    region = frozenset(region)
    view = _strategy_view(game, sigma, region, player)
    keep = sorted(i for ids in view.values() for i in ids if g.dst[i] in region)
    src, dst, pri = (tuple(column[i] for i in keep) for column in (g.src, g.dst, g.pri))
    return ParityGraph(region, src, dst, pri, g.index)


def verify_winning(game, sigma, region, player=EVE):
    """True iff `region` is a trap for the opponent and fixing `sigma` on it
    leaves only plays won by `player`.

    The strategy graph is searched as a view of the game's own edges, as
    `strategy_graph` would check it: in a trap every opponent vertex keeps
    all of its out-edges."""
    dst = game.graph.dst
    region = frozenset(region)
    view = _strategy_view(game, sigma, region, player)
    if not all(region.issuperset(map(dst.__getitem__, ids)) for ids in view.values()):
        return False
    terminal = min((v for v, ids in view.items() if not ids), default=None)
    if terminal is not None:
        raise TerminalVertex(terminal)
    ids = list(chain.from_iterable(view.values()))
    # Eve wins iff no cycle with odd maximum survives, Adam iff none with even
    parity = 1 if player == EVE else 0
    return _odd_cycle_witness(game.graph, parity, (region, view, ids)) is None
