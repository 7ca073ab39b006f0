"""The J,n-priority transduction game as a finite parity game, and the
two strategy syntheses.

Round structure per base move: (1) the base owner picks an edge, (2) Eve
picks a register, which fixes the output priority, (3) if the base edge
priority is odd Eve additionally picks an odd value at least as large
before the counter and register updates fire.  Auxiliary edges carry
priority 0, outputs carry their own value, and instant losses route to a
sink with a priority-1 self-loop.
"""

from dataclasses import dataclass, field

# n_bound_check stays importable from here, where perfbench/ reads it
from .decomposition import _bounded_pair_gate, n_bound_check, validate_ad
from .errors import (
    DEFAULT_STATE_CAP,
    InvalidDecomposition,
    PreconditionFailed,
    TooLarge,
)
from .games import (
    EVE,
    Index,
    ParityGame,
    ParityGraph,
    explore,
    solve,
    unwind,
    verify_winning,
)
from .trees import strahler_from_children

LIBERAL = "liberal"
LITERAL = "literal"
NEVER = "never"
# a step row's entry for an instant loss: no output and one outcome, None
LOSS = (None, None, (None,))


@dataclass(frozen=True)
class RegProduct:
    game: ParityGame
    decode: tuple
    initial: dict
    base: object
    J: Index
    n: int
    rule: str
    reg_indices: tuple
    counter_keys: tuple

    def _graph(self):
        return self.base.graph if isinstance(self.base, ParityGame) else self.base


def normalize_output_index(J):
    """Shift J by even steps until min(J) lands in {1, 2}."""
    return J.shift(2) if J.lo == 0 else J.shift(-2 * ((J.lo - 1) // 2))


class RegMachine:
    """The register/counter data structure shared by the product game and
    the automaton composition: one step table over interned configs.  It
    is a pure function of (I, J, n, rule), so `reg_machine` keeps one per
    parameter set and its tables fill across products.  Registers and
    counter keys hold input priorities less the machine's `shift`, the even
    amount that puts min(I) in {0, 1}; J is normalized."""

    def __init__(self, index_i, J, n, rule):
        if n < 0:
            raise PreconditionFailed("reg machine", "counter bound must be a natural")
        if rule not in (LIBERAL, LITERAL, NEVER):
            raise PreconditionFailed("reg machine", f"unknown reset rule {rule}")
        self.key = (index_i, J, n, rule)
        self.shift = index_i.lo - index_i.lo % 2
        index_i = index_i.shift(-self.shift)
        self.J = J
        self.n = n
        self.rule = rule
        # J's minimum is 1 or 2, so the registers ascend and are never none
        self.regs = (0,) * (1 in J) + tuple(e // 2 for e in J.evens())
        self.counter_keys = tuple((i, j) for i in index_i.odds() for j in self.regs)
        self._ck_pos = {key: x for x, key in enumerate(self.counter_keys)}
        self.hi = index_i.hi
        # the largest even input priority, or 0 when the shifted I is [1, 1]
        init_reg = index_i.hi - index_i.hi % 2
        self.initial = ((init_reg,) * len(self.regs), (0,) * len(self.counter_keys))
        self._forget()

    def _forget(self):
        """Empty every table."""
        self._configs = {}
        self._steps = {}

    def _intern(self, cfg):
        """The machine's one object equal to `cfg`."""
        got = self._configs.get(cfg)
        if got is None:
            _charge(self)
            got = self._configs[cfg] = cfg
        return got

    def step(self, cfg, priority):
        """The step row of one round after an input edge of `priority`, as
        the input index declares it: per register, (output priority, config
        after the output's counter effect, configs after each odd pick p,
        p+2, ... up to the largest odd input, or after p itself when p is
        even, for p = priority - shift), or LOSS."""
        key = (cfg, priority)
        row = self._steps.get(key)
        if row is None:
            p = priority - self.shift
            picks = range(p, self.hi + 1, 2) if p % 2 else (p,)
            row = tuple(self._register_step(cfg, jx, picks) for jx in range(len(self.regs)))
            _charge(self)
            self._steps[key] = row
        return row

    def _register_step(self, cfg, jx, picks):
        """One register's entry of a step row."""
        regs_t, ctr_t = cfg
        j = self.regs[jx]
        r = regs_t[jx]
        w, mid = (2 * j if j else 1), cfg
        if j and r % 2 == 1:
            ci = self._ck_pos[(r, j)]
            ctr2 = list(ctr_t)
            if ctr2[ci] == self.n:
                if 2 * j + 1 not in self.J:
                    return LOSS
                ctr2[ci] = 0
                w = 2 * j + 1
            else:
                ctr2[ci] += 1
            mid = self._intern((regs_t, tuple(ctr2)))
            ctr_t = mid[1]
        after = []
        for i in picks:
            ctr2 = list(ctr_t)
            if self.rule == LIBERAL:
                for x, (ki, kj) in enumerate(self.counter_keys):
                    if ki < i or kj < j:
                        ctr2[x] = 0
            elif self.rule == LITERAL:
                for x, (ki, kj) in enumerate(self.counter_keys):
                    if kj == j and ki < i:
                        ctr2[x] = 0
                    elif r % 2 == 1 and ki == r and kj < j:
                        ctr2[x] = 0
            regs2 = list(regs_t)
            regs2[jx] = i
            for x in range(jx + 1, len(self.regs)):
                if regs2[x] < i:
                    regs2[x] = i
            after.append(self._intern((tuple(regs2), tuple(ctr2))))
        return w, mid, tuple(after)


# The process's machines by (I, J, n, rule), and the entries of all their
# tables together, interned configs included.  Every table maps a key to a
# pure function of it, so a race between threads can cost recomputation,
# never an answer.
_machines = {}
_held = 0


def _charge(machine):
    """Count one more table entry of `machine`.  The pool holds at most
    DEFAULT_STATE_CAP entries: past that it starts afresh, with every
    table emptied and only `machine` kept."""
    global _held
    if _held >= DEFAULT_STATE_CAP:
        for m in _machines.values():
            m._forget()
        machine._forget()
        _machines.clear()
        _machines[machine.key] = machine
        _held = 0
    _held += 1


def reg_machine(index_i, J, n, rule, cap, name):
    """The process's one `RegMachine` for input index I, output index J
    (normalized here), counter bound n and reset rule, with the
    construction's description `name(J=[lo,hi], n=.., rule=..)`.  More
    registers or counter keys (odd input priorities x registers) than `cap`
    are refused before they are listed; invalid parameters raise on every
    call and are never stored."""
    J = normalize_output_index(J)
    what = f"{name}(J=[{J.lo},{J.hi}], n={n}, rule={rule})"
    odds = (index_i.hi + 1) // 2 - index_i.lo // 2
    regs = J.hi // 2 + (1 in J)
    if max(odds, 1) * regs > cap:
        raise TooLarge(
            f"{what}: {regs} registers and {odds * regs} counter keys exceed the cap {cap}"
        )
    machine = _machines.get((index_i, J, n, rule))
    if machine is None:
        machine = RegMachine(index_i, J, n, rule)
        _machines[machine.key] = machine
        machine.initial = machine._intern(machine.initial)
    return machine, what


def reg_product(base, J, n, *, rule=LIBERAL, cap=DEFAULT_STATE_CAP, starts=None):
    """Finite parity game whose plays biject with transduction-game plays.

    `base` is a ParityGraph (Adam moves) or a ParityGame (base moves owned
    by the base owner).  Initial configurations have counters 0 and all
    registers at the maximal even priority of the input index.
    """
    game_mode = isinstance(base, ParityGame)
    g = base.graph if game_mode else base
    if g.terminals:
        raise PreconditionFailed("reg_product", f"terminal vertex {g.terminals[0]}")
    machine, what = reg_machine(g.index, J, n, rule, cap, "reg_product")
    J, step = machine.J, machine.step

    starts = g.sorted_vertices() if starts is None else list(starts)
    for v in starts:
        if v not in g.vertices:
            raise PreconditionFailed("reg_product", f"unknown start vertex {v!r}")
    g_out, g_dst, g_pri = g.out, g.dst, g.pri
    src, dst, pri = [], [], []
    eve = []
    # the odd picks of each "C" state not yet expanded, by its id
    picks_of = {}

    def edge(s, d, p):
        src.append(s)
        dst.append(d)
        pri.append(p)

    # A "B" state's one predecessor is the "A" state of its edge's source
    # with the same config, and a "C" state's is the "B" state it comes
    # from (a register's counter effect changes at most one counter, so it
    # is injective): both are numbered new, without a lookup.
    def expand(state, sid, intern):
        phase = state[0]
        if phase == "A":
            _, v, cfg = state
            if game_mode and base.owner(v) == EVE:
                eve.append(sid)
            for eid in g_out[v]:
                edge(sid, intern(("B", eid, cfg), True), 0)
            return
        if phase == "B":
            _, eid, cfg = state
            eve.append(sid)
            p = g_pri[eid]
            for jx, (w, mid, picks) in enumerate(step(cfg, p)):
                if w is None:
                    edge(sid, intern(("sink",)), 0)
                elif p % 2 == 0:
                    edge(sid, intern(("A", g_dst[eid], picks[0])), w)
                else:
                    cid = intern(("C", eid, jx, mid), True)
                    picks_of[cid] = picks
                    edge(sid, cid, w)
            return
        if phase == "sink":
            edge(sid, sid, 1)
            return
        eve.append(sid)
        d = g_dst[state[1]]
        for cfg in picks_of.pop(sid):
            edge(sid, intern(("A", d, cfg)), 0)

    decode, start_ids = explore((("A", v, machine.initial) for v in starts), expand, what, cap)
    initial = dict(zip(starts, start_ids))
    graph = ParityGraph._explored(len(decode), src, dst, pri, Index(0, max(J.hi, 1)))
    # `explore` numbered every vertex in `eve`, so eve is within them
    game = ParityGame(graph, frozenset(eve))
    return RegProduct(
        game, tuple(decode), initial, base, J, n, rule, machine.regs, machine.counter_keys
    )


def eve_wins_reg(base, J, n, from_vertex=None, *, rule=LIBERAL, cap=DEFAULT_STATE_CAP):
    """Does Eve win the transduction game from the encoded initial
    configuration of `from_vertex` (default: smallest vertex)?"""
    g = base.graph if isinstance(base, ParityGame) else base
    if from_vertex is None:
        if not g.vertices:
            raise PreconditionFailed("eve_wins_reg", "the graph has no vertex")
        from_vertex = min(g.vertices)
    product = reg_product(base, J, n, rule=rule, cap=cap, starts=[from_vertex])
    eve_region, _, _, _ = solve(product.game)
    return product.initial[from_vertex] in eve_region


# ---------------------------------------------------------------------------
# strategy syntheses


@dataclass(frozen=True)
class ProductStrategy:
    """An Eve strategy over a concrete register product."""

    product: RegProduct
    sigma: dict = field(hash=False)

    def reachable_region(self):
        """Vertices reachable from the initial ones when Eve follows sigma."""
        game, sigma = self.product.game, self.sigma
        out, dst = game.graph.out, game.graph.dst

        def expand(v, sid, intern):
            for i in (sigma[v],) if game.owner(v) == EVE else out[v]:
                intern(dst[i])

        # a region never holds more states than the product
        cap = len(game.graph.vertices)
        states, _ = explore(self.product.initial.values(), expand, "reachable_region", cap)
        return frozenset(states)

    def verify(self):
        return verify_winning(self.product.game, self.sigma, self.reachable_region())


def _register_strategy(product, pick):
    """Eve's strategy over `product` from pick(eid) -> (i, register) on base
    edges, called once per base edge: a "B" state takes its edge to
    `register`, a "C" state the edge of the odd pick i (its out-edges list
    p, p+2, ... for base priority p)."""
    out, base_pri = product.game.graph.out, product._graph().pri
    reg_pos = {j: x for x, j in enumerate(product.reg_indices)}
    picks = list(map(pick, range(len(base_pri))))
    sigma = {}
    for vid, state in enumerate(product.decode):
        if state[0] in ("B", "C"):
            eid = state[1]
            i, reg = picks[eid]
            sigma[vid] = out[vid][reg_pos[reg] if state[0] == "B" else (i - base_pri[eid]) // 2]
    return ProductStrategy(product, sigma)


def strategy_from_bounded_pair(pair, n, *, rule=LIBERAL, cap=DEFAULT_STATE_CAP):
    """Eve's register strategy mirroring the guide labelling: after an edge
    with output label j', pick register floor(j'/2), where j' is shifted
    as the product shifts J; resolve odd inputs by their own priority.
    Wins the product at counter bound n+1."""
    _bounded_pair_gate(pair, n)
    product = reg_product(pair.graph_i(), pair.index_j, n + 1, rule=rule, cap=cap)
    shift = product.J.lo - pair.index_j.lo
    return _register_strategy(product, lambda eid: (pair.label_i[eid], (pair.label_j[eid] + shift) // 2))


def _decomposition_signatures(d, n):
    """Per-vertex ordering signature plus (level, shape-Strahler) per node,
    the n-Strahler number of the node's tree shape taken bottom-up.

    Signature chunks are (slot, marker) pairs flattened into one tuple:
    child k contributes slot k, the top attractor slot kappa+1; marker 0
    descends into the child subtree, marker 1 stops on its attractor rim.
    Lexicographic order on signatures is the leaf order with every node's
    top attractor ordered last.
    """
    sig = {}
    info = {}
    unwind(_signature_walk(d, (), n, sig, info))
    return sig, info


def _signature_walk(node, prefix, n, sig, info):
    """`_decomposition_signatures`' walk below `node`, run by `unwind`:
    fills `sig` and `info` and returns the node's shape-Strahler number."""
    kappa = len(node.children)
    for v in node.top_attractor:
        sig[v] = prefix + (kappa + 1, 0)
    values = []
    for k, child in enumerate(node.children, 1):
        for v in child.attractor - child.subgame:
            sig[v] = prefix + (k, 1)
        values.append((yield _signature_walk(child.sub, prefix + (k, 0), n, sig, info)))
    strahler = strahler_from_children(values, n)
    info[prefix] = (node.level, strahler)
    return strahler


def _smallest_common(info, sig_q, sig_r):
    prefix = ()
    for idx in range(0, min(len(sig_q), len(sig_r)) - 1, 2):
        chunk = sig_q[idx : idx + 2]
        candidate = prefix + chunk
        # every key of `info` is a run of (k, 0) chunks, so a rim chunk stops here
        if chunk != sig_r[idx : idx + 2] or candidate not in info:
            break
        prefix = candidate
    return info[prefix]


def synth_from_ad(g, d, n, *, rule=LIBERAL, cap=DEFAULT_STATE_CAP):
    """Eve strategy for the product over a one-player even graph, reading
    register picks off the decomposition: r_0 leftwards, the subtree's
    Strahler number rightwards, r_0/r_1 inside an attractor."""
    if n < 1:
        raise PreconditionFailed("synth_from_ad", "n must be positive")
    res = validate_ad(g, d)
    if not res:
        raise InvalidDecomposition(f"{res.clause} ({res.witness})")
    sig, info = _decomposition_signatures(d, n)
    h = info[()][1]
    if g.index.hi < d.level:
        # widen the declared range so the sharp choice can reach level-1
        g = g.with_priorities(g.pri, Index(g.index.lo, d.level))
    product = reg_product(g, Index(1, 2 * h), n + 1, rule=rule, cap=cap)

    def pick(eid):
        at_src, at_dst = sig[g.src[eid]], sig[g.dst[eid]]
        level, strahler = _smallest_common(info, at_src, at_dst)
        p = g.pri[eid]
        if p % 2 == 1 and p < level - 1:
            i = level - 1
        else:
            i = p
        if at_dst < at_src:
            reg = 0
        elif at_src < at_dst:
            reg = strahler
        else:
            reg = 0 if i < level else 1
        return i, reg

    return _register_strategy(product, pick)
