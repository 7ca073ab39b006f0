"""Attractor decompositions: construction and validation, the n-bound
check of labelling pairs, and the bounded-pair to low-Strahler
construction on memory products.

All vertex and edge references inside a decomposition are in the id space
of the root graph it was built for; recursion happens on (alive vertices,
priority cap) views of that graph (see `ParityGraph.cap`) instead of
physically restricted graphs, because a removed top-priority edge can
connect two vertices of the same child subgame and must stay excluded all
the way down.  Below a node of level h every live edge has priority at
most h, so removing the node's top edges is the same as capping the view
at h.
"""

from dataclasses import dataclass

from .errors import (
    DEFAULT_STATE_CAP,
    InvalidDecomposition,
    NotBounded,
    NotEven,
    PreconditionFailed,
    PriorityOutOfRange,
    TooLarge,
)
from .games import Index, ParityGraph, _attract, _odd_cycle_witness, explore, gather, unwind
from .trees import LEAF, OrderedTree


@dataclass(frozen=True)
class AdChild:
    subgame: frozenset
    attractor: frozenset
    sub: "AttractorDecomposition"

    def __post_init__(self):
        # the dataclass hash, from the hash that `sub` cached when it was built
        object.__setattr__(self, "_hash", hash((self.subgame, self.attractor, self.sub)))

    def __eq__(self, other):
        if other.__class__ is not AdChild:
            return NotImplemented
        return self.subgame == other.subgame and self.attractor == other.attractor and self.sub == other.sub

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class AttractorDecomposition:
    level: int
    top_edges: frozenset
    top_attractor: frozenset
    children: tuple

    def __post_init__(self):
        # the dataclass hash, from the hashes the children cached when built
        h = hash((self.level, self.top_edges, self.top_attractor, self.children))
        object.__setattr__(self, "_hash", h)

    def __eq__(self, other):
        if other.__class__ is not AttractorDecomposition:
            return NotImplemented
        return unwind(_equal(self, other))

    def __hash__(self):
        return self._hash

    def width(self):
        return unwind(_width(self))


def _width(d):
    """The most children of a node below `d`, run by `unwind`."""
    widths = yield from gather(_width(c.sub) for c in d.children)
    return max([len(d.children), *widths])


def _equal(x, y):
    """The dataclass == of two decompositions, run by `unwind` so that deep
    decompositions compare."""
    if x is y:
        return True
    fields = (x.level, x.top_edges, x.top_attractor, len(x.children))
    if fields != (y.level, y.top_edges, y.top_attractor, len(y.children)):
        return False
    for a, b in zip(x.children, y.children):
        if a.subgame != b.subgame or a.attractor != b.attractor or not (yield _equal(a.sub, b.sub)):
            return False
    return True


@dataclass
class ValidationResult:
    ok: bool
    clause: str = ""
    witness: object = None

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "ValidationResult(ok)"
        return f"ValidationResult(clause={self.clause!r}, witness={self.witness!r})"


def _live_edges(g, alive, cap, labels=None, value=None):
    """Live edge ids of the view (alive, cap), or only those whose entry in
    `labels` is `value`, as a frozenset."""
    dst, pri, out = g.dst, g.pri, g.out
    if labels is None:
        return frozenset(i for v in alive for i in out[v] if pri[i] < cap and dst[i] in alive)
    return frozenset(
        i for v in alive for i in out[v] if labels[i] == value and pri[i] < cap and dst[i] in alive
    )


def _kids(g, rest, cap, labels, odd):
    """Peel maximal S_k off the residual: all vertices from which no live
    edge labelled `odd` is reachable, then their attractor.  An empty S_k
    on a non-empty residual signals a non-even input.

    The residual's view has no dead end (its vertices escaped an attractor
    of a view without one), so the attractors seed lazily, and so does the
    one that reaches the odd edges, where every vertex is the mover's.  The
    odd edges are collected once and shrink with the residual."""
    src, dst = g.src, g.dst
    odd_edges = _live_edges(g, rest, cap, labels, odd)
    kids = []
    while rest:
        bad, _ = _attract(g, rest, cap, target_edges=odd_edges, mine=rest, live_moves=True)
        s = rest - bad
        if not s:
            raise InvalidDecomposition(
                f"no level-{odd - 1} core in a non-empty residual (graph not even?)"
            )
        a, _ = _attract(g, rest, cap, s, live_moves=True)
        kids.append((s, frozenset(a)))
        rest = rest - a
        odd_edges = frozenset(i for i in odd_edges if src[i] in rest and dst[i] in rest)
    return kids


def _canonical_children(g, alive, cap, level):
    """Top layer of the canonical decomposition: (H, A_0, [(S_k, A_k)]),
    for a view without dead ends."""
    h_edges = _live_edges(g, alive, cap, g.pri, level)
    a0 = frozenset(_attract(g, alive, cap, target_edges=h_edges, live_moves=True)[0])
    return h_edges, a0, _kids(g, alive - a0, min(cap, level), g.pri, level - 1)


def _build(g, alive, cap, level):
    if level == 0:
        return AttractorDecomposition(0, _live_edges(g, alive, cap), frozenset(alive), ())
    h_edges, a0, kids = _canonical_children(g, alive, cap, level)
    if not kids:
        return AttractorDecomposition(level, h_edges, frozenset(alive), ())
    cap1 = min(cap, level)
    subs = yield from gather(_build(g, s, cap1, level - 2) for s, _a in kids)
    children = tuple(AdChild(s, a, sub) for (s, a), sub in zip(kids, subs))
    return AttractorDecomposition(level, h_edges, a0, children)


def build_ad(g, h=None):
    """Canonical attractor decomposition of an even graph at even level h,
    by default the least even level at or above every priority.

    The construction itself detects a graph that is not even: a cycle with
    odd maximum p enters no attractor above level p+1, and there it leaves
    a residual without a level-p core.  Only then is the lasso searched.

    The decomposition of a non-empty graph descends one even level at a
    time and stops where a top attractor covers its view, so it is at most
    h/2 + 1 nodes deep, not h/2 + 1 nodes in all; a graph whose h/2 + 1
    exceeds DEFAULT_STATE_CAP raises TooLarge before anything is built."""
    if h is None:
        h = max(g.pri, default=0)
        h += h % 2
    if h < 0 or h % 2 == 1:
        raise PreconditionFailed("build_ad", "level must be an even natural")
    if max(g.pri, default=0) > h:
        raise PriorityOutOfRange(f"priority {max(g.pri)} exceeds level {h}")
    if g.terminals:
        lasso = _odd_cycle_witness(g)
        if lasso is not None:
            raise NotEven(lasso)
        raise PreconditionFailed("build_ad", f"terminal vertex {g.terminals[0]}")
    if g.vertices and h // 2 + 1 > DEFAULT_STATE_CAP:
        raise TooLarge(f"build_ad(h={h}): {h // 2 + 1} nodes exceed the cap {DEFAULT_STATE_CAP}")
    try:
        return unwind(_build(g, g.vertices, g.cap, h))
    except InvalidDecomposition:
        raise NotEven(_odd_cycle_witness(g)) from None


def _scan(g, s, current, cap, level):
    """One pass over the view (s, cap), where `s` lies in `current`: the
    smallest live edge id of priority above `level`, the smallest vertex
    without a live edge, the first edge (by source, then id) from `s` into
    the rest of `current`, each None if there is none, and the live edges
    of priority `level`."""
    dst, pri, out = g.dst, g.pri, g.out
    over = terminal = leak = None
    top = set()
    for v in s:
        live = False
        for i in out[v]:
            p = pri[i]
            if p < cap:
                w = dst[i]
                if w in s:
                    live = True
                    if p >= level:
                        if p == level:
                            top.add(i)
                        elif over is None or i < over:
                            over = i
                elif w in current and (leak is None or (v, i) < leak):
                    leak = (v, i)
        if not live and (terminal is None or v < terminal):
            terminal = v
    return over, terminal, leak and leak[1], top


def _validate(g, d, alive, cap, top=None):
    """Checks d against the view (alive, cap).  `top`, if given, holds the
    view's live edges of priority d.level, and the view is known to have
    no dead end and no live edge above d.level.

    In a view without dead ends every attractor seeds lazily: a vertex
    outside a checked attractor keeps a live move that avoids it, below
    the node's level, so no residual has a dead end either."""
    if d.level < 0 or d.level % 2 == 1:
        return ValidationResult(False, "level-even", d.level)
    lazy = top is not None
    if top is None:
        over, terminal, _, top = _scan(g, alive, alive, cap, d.level)
        if over is not None:
            return ValidationResult(False, "priorities-bounded", over)
        lazy = terminal is None
    if d.top_edges != top:
        return ValidationResult(False, "top-edges", d.top_edges ^ top)
    a0, _ = _attract(g, alive, cap, target_edges=top, live_moves=lazy)
    if d.top_attractor != a0:
        return ValidationResult(False, "top-attractor", d.top_attractor ^ a0)
    if not d.children:
        if a0 != alive:
            return ValidationResult(False, "coverage", alive - a0)
        return ValidationResult(True)
    if d.level == 0:
        return ValidationResult(False, "level-zero-children", None)
    cap2 = min(cap, d.level)
    current = alive - a0
    for idx, child in enumerate(d.children, 1):
        s, a, sub = child.subgame, child.attractor, child.sub
        if not s:
            return ValidationResult(False, "child-nonempty", idx)
        if not s <= current:
            return ValidationResult(False, "child-in-residual", (idx, s - current))
        over, terminal, leak, sub_top = _scan(g, s, current, cap2, d.level - 2)
        if over is not None:
            return ValidationResult(False, "child-priorities", (idx, over))
        if terminal is not None:
            return ValidationResult(False, "child-terminal", (idx, terminal))
        if leak is not None:
            return ValidationResult(False, "child-closed", (idx, leak))
        expected_a, _ = _attract(g, current, cap2, s, live_moves=lazy)
        if a != expected_a:
            return ValidationResult(False, "child-attractor", (idx, a ^ expected_a))
        if sub.level != d.level - 2:
            return ValidationResult(False, "child-level", (idx, sub.level))
        inner = yield _validate(g, sub, s, cap2, sub_top)
        if not inner:
            return inner
        current = current - a
    if current:
        return ValidationResult(False, "coverage", current)
    return ValidationResult(True)


def validate_ad(g, d):
    """Check every clause of the decomposition definition; names the first
    violated clause and a witness on failure."""
    return unwind(_validate(g, d, g.vertices, g.cap))


def _reach(g, starts, alive, cap):
    """`starts` plus the vertices reachable from them along live edges of
    the view (alive, cap)."""
    dst, pri, out = g.dst, g.pri, g.out
    reach = set(starts)
    queue = list(reach)
    for v in queue:
        for i in out[v]:
            w = dst[i]
            if pri[i] < cap and w in alive and w not in reach:
                reach.add(w)
                queue.append(w)
    return reach


def _reach_check(g, d):
    if not d.children:
        return True
    union = frozenset().union(*(c.attractor for c in d.children))
    for i, child in enumerate(d.children):
        reach = _reach(g, child.attractor, union, d.level)
        for later in d.children[i + 1 :]:
            if reach & later.attractor:
                return False
    return all((yield from gather(_reach_check(g, c.sub) for c in d.children)))


def ad_reachability_check(g, d):
    """Ordering regression: within the top-priority-free part,
    later child attractors are unreachable from earlier ones, recursively.

    Exact for decompositions that `validate_ad` accepts: inside a valid
    node of level h every edge of priority above h is the top edge of an
    ancestor, so the top-priority-free part of a node is the union of its
    child attractors capped at h.

    It cannot fail on such a decomposition: each child attractor is the
    attractor of a subgame that is closed in its residual, so no live
    edge below the node's level leaves it into the residual, which holds
    every later attractor.  It does fail on some that `validate_ad`
    refuses."""
    return unwind(_reach_check(g, d))


def _shape(d):
    if not d.children:
        return LEAF
    return OrderedTree(tuple((yield from gather(_shape(c.sub) for c in d.children))))


def tree_shape(d):
    return unwind(_shape(d))


def _tight(g, d, alive):
    if not d.children:
        return True
    for i, child in enumerate(d.children):
        if i == 0:
            continue
        reach = _reach(g, child.subgame, alive, d.level - 1)
        for earlier in d.children[:i]:
            if (reach - child.subgame) & earlier.subgame:
                return False
    return all((yield from gather(_tight(g, c.sub, c.subgame) for c in d.children)))


def is_tight(g, d):
    """True iff every path between distinct subgames dodges nothing: it must
    see priority >= level-1, recursively in all children.

    Exact for decompositions that `validate_ad` accepts: inside a valid
    node of level h every edge of priority above h is the top edge of an
    ancestor, so the paths to check are those of the node's subgame
    capped at h-1."""
    return unwind(_tight(g, d, g.vertices))


# ---------------------------------------------------------------------------
# labelling pairs, their n-bound check and the memory product


@dataclass(frozen=True)
class LabellingPair:
    """One graph skeleton with two total edge labellings (its own priorities
    are ignored)."""

    graph: ParityGraph
    label_i: tuple
    label_j: tuple
    index_i: Index
    index_j: Index

    @staticmethod
    def make(graph, label_i, label_j, index_i, index_j):
        li = tuple(label_i)
        lj = tuple(label_j)
        if len(li) != len(graph.src) or len(lj) != len(graph.src):
            raise PreconditionFailed("labelling", "labellings must be total on edges")
        for p in li:
            if p not in index_i:
                raise PriorityOutOfRange(f"labelI value {p} outside {index_i}")
        for p in lj:
            if p not in index_j:
                raise PriorityOutOfRange(f"labelJ value {p} outside {index_j}")
        return LabellingPair(graph, li, lj, index_i, index_j)

    def graph_i(self):
        """The skeleton carrying the labelI priorities; it shares the
        skeleton's successor tables."""
        return self.graph.with_priorities(self.label_i, self.index_i)

    def graph_j(self):
        return self.graph.with_priorities(self.label_j, self.index_j)


@dataclass(frozen=True)
class SegmentedPath:
    """Witness against an n-bound: n+1 consecutive segments whose labelI and
    labelJ maxima are the fixed odd/even pair."""

    odd: int
    even: int
    segments: tuple

    def check(self, pair):
        src, dst = pair.graph.src, pair.graph.dst
        prev_end = None
        for seg in self.segments:
            if not seg:
                return False
            for a, b in zip(seg, seg[1:]):
                if dst[a] != src[b]:
                    return False
            if prev_end is not None and src[seg[0]] != prev_end:
                return False
            prev_end = dst[seg[-1]]
            if max(pair.label_i[i] for i in seg) != self.odd:
                return False
            if max(pair.label_j[i] for i in seg) != self.even:
                return False
        return True


def _segment_search(g, li, lj, odd, even, n):
    """Breadth-first search on `explore` over (vertex, closed segments,
    seen-odd, seen-even); a close is an epsilon step allowed when both
    maxima have been witnessed.  Returns the first n+1 closed segments
    found, or None."""
    out, dst = g.out, g.dst
    starts = [(v, 0, False, False) for v in g.sorted_vertices()]
    # state id -> (parent id, edge id or None for a close); starts have none
    parent = [None] * len(starts)
    closing = []

    def expand(state, sid, intern):
        v, s, fi, fj = state
        if fi and fj:
            if s == n:
                closing.append((sid, None))
                return True
            if intern((v, s + 1, False, False)) == len(parent):
                parent.append((sid, None))
        for eid in out[v]:
            a, b = li[eid], lj[eid]
            if a <= odd and b <= even:
                if intern((dst[eid], s, fi or a == odd, fj or b == even)) == len(parent):
                    parent.append((sid, eid))

    explore(starts, expand, f"n_bound_check(n={n}, odd={odd}, even={even})")
    if not closing:
        return None
    # walk back from the last close: each close starts an earlier segment
    segments, link = [], closing[0]
    while link is not None:
        sid, eid = link
        if eid is None:
            segments.append([])
        else:
            segments[-1].append(eid)
        link = parent[sid]
    return tuple(tuple(reversed(seg)) for seg in reversed(segments))


def n_bound_check(pair, n):
    """(True, None) if labelI is n-bound by labelJ, else (False, witness)."""
    if n < 0:
        raise PreconditionFailed("n_bound_check", "n must be a natural")
    # a closed segment needs an edge at each of its maxima, so only the
    # priorities that occur (all inside their index) can witness
    odds = sorted({p for p in pair.label_i if p % 2 == 1})
    evens = sorted({p for p in pair.label_j if p % 2 == 0})
    for odd in odds:
        for even in evens:
            found = _segment_search(
                pair.graph, pair.label_i, pair.label_j, odd, even, n
            )
            if found is not None:
                return False, SegmentedPath(odd, even, found)
    return True, None


def _bounded_pair_gate(pair, n):
    """The precondition of both bounded-pair syntheses, checked in this
    order: no terminal vertex (PreconditionFailed), both views even
    (NotEven, naming the view), labelI n-bound by labelJ (NotBounded)."""
    terminals = pair.graph.terminals
    if terminals:
        raise PreconditionFailed("evenness", f"terminal vertex {terminals[0]}")
    for name, view in (("labelI", pair.graph_i()), ("labelJ", pair.graph_j())):
        lasso = _odd_cycle_witness(view)
        if lasso is not None:
            raise NotEven(lasso, f"{name} view is not even")
    ok, ce = n_bound_check(pair, n)
    if not ok:
        raise NotBounded(ce)


@dataclass(frozen=True)
class MemoryProduct:
    """Product of a labelling pair with per-(odd i, even j) freshness flags.

    Bit 2p of a memory word says "2j seen in labelJ since the last i in
    labelI" for flag pair p, bit 2p+1 the converse.  An edge carrying both
    priorities at once sets both flags.
    """

    pair: LabellingPair
    decode: tuple
    flag_pairs: tuple
    initial: dict

    def flag_j_since_i(self, v, oi, ej):
        p = self.flag_pairs.index((oi, ej))
        return (self.decode[v][1] >> (2 * p)) & 1 == 1


def memory_product(pair, cap=DEFAULT_STATE_CAP):
    """All (vertex, memory) states reachable from cleared memory at every
    base vertex, with both labellings lifted edge-wise.  Raises TooLarge
    before building anything when the declared indices give more (odd,
    even) flag pairs than `cap`."""
    ii, jj = pair.index_i, pair.index_j
    what = f"memory_product(I=[{ii.lo},{ii.hi}], J=[{jj.lo},{jj.hi}])"
    flags = ((ii.hi + 1) // 2 - ii.lo // 2) * (jj.hi // 2 - (jj.lo + 1) // 2 + 1)
    if flags > cap:
        raise TooLarge(f"{what}: {flags} flag pairs exceed the cap {cap}")
    g = pair.graph
    flag_pairs = tuple(
        (oi, ej) for oi in pair.index_i.odds() for ej in pair.index_j.evens()
    )

    masks = {}

    def step(mem, a, b):
        # an edge (a, b) clears the first flag of each pair (a, ej) and the
        # second of each pair (oi, b), then sets the first of each (oi, b)
        # and the second of each (a, ej): with A and B the first-flag bits
        # of those pairs, mem & ~(A | B << 1) | B | A << 1
        got = masks.get((a, b))
        if got is None:
            a_bits = b_bits = 0
            for p, (oi, ej) in enumerate(flag_pairs):
                if oi == a:
                    a_bits |= 1 << (2 * p)
                if ej == b:
                    b_bits |= 1 << (2 * p)
            got = masks[(a, b)] = (~(a_bits | b_bits << 1), b_bits | a_bits << 1)
        keep, put = got
        return (mem & keep) | put

    src, dst = [], []
    label_i = []
    label_j = []

    def expand(state, sid, intern):
        v, mem = state
        for i in g.out[v]:
            a, b = pair.label_i[i], pair.label_j[i]
            src.append(sid)
            dst.append(intern((g.dst[i], step(mem, a, b))))
            label_i.append(a)
            label_j.append(b)

    starts = g.sorted_vertices()
    decode, start_ids = explore(((v, 0) for v in starts), expand, what, cap)
    initial = dict(zip(starts, start_ids))
    product_graph = ParityGraph._explored(len(decode), src, dst, [0] * len(src), Index(0, 0))
    # the labels are copied from `pair`, which checked them against its indices
    product_pair = LabellingPair(
        product_graph, tuple(label_i), tuple(label_j), pair.index_i, pair.index_j
    )
    return MemoryProduct(product_pair, tuple(decode), flag_pairs, initial)


# ---------------------------------------------------------------------------
# bounded pair -> low-Strahler decomposition


def _view_core(g, part, cap):
    """Largest subset whose view-internal paths are infinite: the part
    minus the vertices forced into the empty target (those with no
    infinite internal path).  Dropped vertices are forced out of the
    part, so assembly attractors absorb them."""
    part = frozenset(part)
    return part - _attract(g, part, cap)[0]


def _star_layers(g, alive, cap, stars, oi, n):
    """Star ranks as attractor layers of the view (alive, cap).  A witnessed
    hop is a path that crosses a live edge of priority `oi`; T_r holds the
    stars that start a chain of r witnessed hops between stars, and B_r the
    vertices that reach T_r.  Returns [alive, T_1, ..., T_R, {}] and
    [alive, B_1, ..., B_R, {}] for the largest rank R <= n+1."""
    dst, pri = g.dst, g.pri
    oi_edges = _live_edges(g, alive, cap, pri, oi)
    tiers, reach = [alive], [alive]
    while stars:
        # T_{n+2} also holds every star on a witnessed cycle
        if len(tiers) > n + 1:
            raise InvalidDecomposition(
                f"star rank {n + 2} exceeds n+1={n + 1}; pair is not bounded"
            )
        tiers.append(stars)
        b = _attract(g, alive, cap, stars, mine=alive)[0]
        reach.append(b)
        hops = frozenset(i for i in oi_edges if dst[i] in b)
        stars = stars & _attract(g, alive, cap, target_edges=hops, mine=alive)[0]
    return tiers + [stars], reach + [stars]


def _rts_build(mp, g, label_j, alive, cap, i2, j2, n):
    """The induction step of the bounded-pair construction on the memory
    product: split children into star parts ranked by witnessed hops and
    priority-free leftovers, then reassemble in interleaved order.  `g` is
    the product's labelI graph, `label_j` its labelJ values.

    Each child is what of a part cannot leave it within the residual, so
    it is closed there.  Passes over the parts repeat until they cover the
    residual: a vertex in a kid's star attractor but in no part can keep a
    part open until a later pass.

    Within a star part no labelI edge has priority level-1 (its source
    would outrank its target), nor within a leftover part (a subset of one
    S_k), so capping the children at `level` removes exactly the top edges
    here and the children's top edges below."""
    level = 2 * i2
    if i2 == 0:
        return AttractorDecomposition(0, _live_edges(g, alive, cap), frozenset(alive), ())
    h_edges, a0, kids = _canonical_children(g, alive, cap, level)
    if not kids:
        return AttractorDecomposition(level, h_edges, frozenset(alive), ())
    cap1 = min(cap, level)
    alive1 = alive - a0
    oi = level - 1
    ej = 2 * j2

    stars_of = [frozenset(v for v in s if mp.flag_j_since_i(v, oi, ej)) for s, _a in kids]
    tiers, reach = _star_layers(g, alive1, cap1, frozenset().union(*stars_of), oi, n)
    max_rank = len(tiers) - 2

    # a leftover vertex's rank is the highest star rank it reaches
    leftover_pieces = [[] for _ in range(max_rank + 1)]
    for (s, _a), stars in zip(kids, stars_of):
        left = s - _attract(g, s, cap1, stars)[0]
        for m in range(max_rank + 1):
            # dead-end vertices of a rank class exit it on every path and
            # are swept up by the assembly attractors instead
            part = _view_core(g, (left & reach[m]) - reach[m + 1], cap1)
            if not part:
                continue
            if j2 <= 1:
                raise InvalidDecomposition(
                    "2j-free leftover with an internal cycle contradicts "
                    "output evenness"
                )
            # a view core has no forced vertex, so without top output
            # edges its labelJ top attractor is empty as well
            if _live_edges(g, part, cap1, label_j, ej):
                raise InvalidDecomposition(
                    "leftover part unexpectedly contains a top output priority"
                )
            leftover_pieces[m] += [s_p for s_p, _ap in _kids(g, part, cap1, label_j, ej - 1)]

    sequence = []
    for m, pieces in enumerate(leftover_pieces):
        sequence += [(part, j2 - 1) for part in pieces]
        if m < max_rank:
            sequence.append((tiers[m + 1] - tiers[m + 2], j2))

    current = alive1
    children = []
    while current:
        before = len(children)
        for part, sub_j in sequence:
            # the part's vertices that cannot leave it within the residual:
            # closed there, and without a dead end, as `current` has none
            p = frozenset(part) & current
            live_part = p - _attract(g, current, cap1, current - p, mine=current)[0]
            if not live_part:
                continue
            sub = yield _rts_build(mp, g, label_j, live_part, cap1, i2 - 1, sub_j, n)
            a = frozenset(_attract(g, current, cap1, live_part)[0])
            children.append(AdChild(live_part, a, sub))
            current = current - a
        if len(children) == before:
            raise InvalidDecomposition(f"assembly left {sorted(current)} uncovered")
    return AttractorDecomposition(level, h_edges, a0, tuple(children))


def ad_from_bounded_pair(pair, n, j, cap=DEFAULT_STATE_CAP):
    """Decomposition of the memory product witnessing low Strahler complexity.

    Requires both labellings even and labelI n-bound by labelJ.  The
    result is validated against the product's labelI graph before it is
    returned, and its tree-shape has (n+1)-Strahler number at most j, as
    on every call of tests/bounded_survey.py; when the realized star ranks
    stay at n or below (in particular whenever the pair is already
    (n-1)-bound) the n-Strahler number is at most j as well.
    """
    ii, jj = pair.index_i, pair.index_j
    if ii.lo != 0 or ii.hi % 2 == 1:
        raise PreconditionFailed("index-I", f"{ii} is not of the form [0,2i]")
    if jj.lo != 1 or jj.hi != 2 * j:
        raise PreconditionFailed("index-J", f"{jj} is not [1,{2 * j}]")
    _bounded_pair_gate(pair, n)
    mp = memory_product(pair, cap=cap)
    g_i = mp.pair.graph_i()
    d = unwind(_rts_build(mp, g_i, mp.pair.label_j, g_i.vertices, g_i.cap, ii.hi // 2, j, n))
    res = validate_ad(g_i, d)
    if not res:
        raise InvalidDecomposition(f"internal: {res.clause} ({res.witness})")
    return d
