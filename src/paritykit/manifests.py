"""Native JSON manifests, PGSolver interop, and DOT export.

Every native kind round-trips: parse(print(x)) == x.  Register products
are serialized by their generating parameters and rebuilt on load, which
is identity because construction is deterministic.
"""

import json
import re

from .automata import NPTA, GuidingFunction, RegularTree
from .decomposition import AdChild, AttractorDecomposition, LabellingPair
from .errors import (
    DanglingSuccessor,
    NotExpressible,
    ParseError,
    PreconditionFailed,
    TooLarge,
)
from .games import ADAM, Index, Lasso, ParityGame, ParityGraph, gather, unwind
from .transduction import RegProduct, reg_product
from .trees import OrderedTree

FORMAT = "paritykit/1"

MAX_NESTING = 500
"""Deepest nesting of JSON containers that `dumps` writes and `loads`
accepts: a decomposition of 166 nodes from root to leaf.  Python's JSON
encoder and decoder recurse, so it stays far from the stack limit."""


def _graph_payload(g):
    return {
        "vertices": sorted(g.vertices),
        "edges": [[e.src, e.dst, e.priority] for e in g.edges],
        "index": [g.index.lo, g.index.hi],
    }


# the keys each payload kind must carry, with their JSON types
_SHAPES = {
    "graph": {"vertices": list, "edges": list, "index": list},
    "game": {"graph": dict, "eve": list},
    "lasso": {"stem": list, "cycle": list},
    "tree": {"brackets": str},
    "decomposition": {"level": int, "top_edges": list, "top_attractor": list, "children": list},
    "child": {"subgame": list, "attractor": list, "sub": dict},
    "pair": {"graph": dict, "label_i": list, "label_j": list, "index_i": list, "index_j": list},
    "automaton": {"alphabet": list, "states": list, "initial": object, "transitions": list,
                  "omega": list, "index": list},
    "regular-tree": {"labels": list, "succ0": list, "succ1": list, "root": int},
    "guiding-function": {"table": list},
    "strategy": {"choices": list},
    "product": {"base": dict, "J": list, "n": int, "rule": str, "starts": list},
    "base": {"kind": str, "payload": dict},
}


def _checked(kind, payload):
    """The payload, once it carries every key of its kind with its type."""
    if not isinstance(payload, dict):
        raise ParseError(f"{kind} payload is not an object")
    for key, typ in _SHAPES[kind].items():
        if key not in payload:
            raise ParseError(f"{kind} payload: missing key {key!r}")
        value = payload[key]
        # a JSON boolean is no integer, although Python's bool is an int
        if not isinstance(value, typ) or typ is int and type(value) is bool:
            raise ParseError(f"{kind} payload: {key!r} is not of JSON type {typ.__name__}")
    return payload


def _int_rows(kind, key, rows, arity, ints=True):
    """`rows` as tuples, once each is a list of `arity` entries, all ints
    unless `ints` is false."""
    what = "ints" if ints else "entries"
    for row in rows:
        if not isinstance(row, list) or len(row) != arity or (
            ints and not all(type(x) is int for x in row)
        ):
            raise ParseError(
                f"{kind} payload: {key} entry {row!r} is not a list of {arity} {what}"
            )
    return [tuple(row) for row in rows]


def _ints(kind, key, values):
    """`values`, once each is an int."""
    for x in values:
        if type(x) is not int:
            raise ParseError(f"{kind} payload: {key} entry {x!r} is not an int")
    return values


def _scalars(kind, key, values):
    """`values`, once they make a set of JSON scalars that sort together."""
    try:
        sorted(set(values))
    except TypeError:
        raise ParseError(f"{kind} payload: {key} entries are not scalars of one type") from None
    return values


def _index(kind, payload, key):
    return Index(*_int_rows(kind, key, [payload[key]], 2)[0])


def _graph_from(payload):
    payload = _checked("graph", payload)
    edges = _int_rows("graph", "edges", payload["edges"], 3)
    vertices = _ints("graph", "vertices", payload["vertices"])
    return ParityGraph.make(vertices, edges, _index("graph", payload, "index"))


def _payload(obj):
    if isinstance(obj, ParityGraph):
        return "graph", _graph_payload(obj)
    if isinstance(obj, ParityGame):
        return "game", {
            "graph": _graph_payload(obj.graph),
            "eve": sorted(obj.eve),
        }
    if isinstance(obj, Lasso):
        return "lasso", {"stem": list(obj.stem), "cycle": list(obj.cycle)}
    if isinstance(obj, OrderedTree):
        return "tree", {"brackets": obj.to_brackets()}
    if isinstance(obj, AttractorDecomposition):
        return "decomposition", unwind(_ad_payload(obj))
    if isinstance(obj, LabellingPair):
        return "pair", {
            "graph": _graph_payload(obj.graph),
            "label_i": list(obj.label_i),
            "label_j": list(obj.label_j),
            "index_i": [obj.index_i.lo, obj.index_i.hi],
            "index_j": [obj.index_j.lo, obj.index_j.hi],
        }
    if isinstance(obj, NPTA):
        return "automaton", {
            "alphabet": list(obj.alphabet),
            "states": list(obj.states),
            "initial": obj.initial,
            "transitions": [list(t) for t in zip(obj.src, obj.letter, obj.left, obj.right)],
            "omega": [list(o) for o in obj.omega],
            "index": [obj.index.lo, obj.index.hi],
        }
    if isinstance(obj, RegularTree):
        return "regular-tree", {
            "labels": list(obj.labels),
            "succ0": list(obj.succ0),
            "succ1": list(obj.succ1),
            "root": obj.root,
        }
    if isinstance(obj, GuidingFunction):
        return "guiding-function", {
            "table": [[p, tb, ta] for (p, tb), ta in sorted(obj.table.items())]
        }
    if isinstance(obj, dict):
        return "strategy", {"choices": [[v, e] for v, e in sorted(obj.items())]}
    if isinstance(obj, RegProduct):
        base_kind, base_payload = _payload(obj.base)
        return "product", {
            "base": {"kind": base_kind, "payload": base_payload},
            "J": [obj.J.lo, obj.J.hi],
            "n": obj.n,
            "rule": obj.rule,
            "starts": sorted(obj.initial),
        }
    raise PreconditionFailed("manifest", f"unsupported object {type(obj).__name__}")


def _ad_payload(d):
    subs = yield from gather(_ad_payload(c.sub) for c in d.children)
    return {
        "level": d.level,
        "top_edges": sorted(d.top_edges),
        "top_attractor": sorted(d.top_attractor),
        "children": [
            {"subgame": sorted(c.subgame), "attractor": sorted(c.attractor), "sub": sub}
            for c, sub in zip(d.children, subs)
        ],
    }


def _ad_from(payload):
    kind = "decomposition"
    payload = _checked(kind, payload)
    children = [_checked("child", c) for c in payload["children"]]
    top_edges = frozenset(_ints(kind, "top_edges", payload["top_edges"]))
    top_attractor = frozenset(_ints(kind, "top_attractor", payload["top_attractor"]))
    kids = []
    for c in children:
        s = frozenset(_ints("child", "subgame", c["subgame"]))
        a = frozenset(_ints("child", "attractor", c["attractor"]))
        kids.append(AdChild(s, a, (yield _ad_from(c["sub"]))))
    return AttractorDecomposition(payload["level"], top_edges, top_attractor, tuple(kids))


def dumps(obj, indent=None, meta=None):
    kind, payload = _payload(obj)
    doc = {"format": FORMAT, "kind": kind, "payload": payload}
    if meta:
        doc["meta"] = meta
    if _too_deep(doc):
        raise TooLarge(f"{kind} manifest: nested more than {MAX_NESTING} deep")
    return json.dumps(doc, indent=indent, sort_keys=True)


def _too_deep(doc):
    """True iff the JSON document `doc` nests containers more than
    MAX_NESTING deep."""
    stack = [(doc, 1)] if isinstance(doc, (list, dict)) else []
    while stack:
        node, depth = stack.pop()
        if depth > MAX_NESTING:
            return True
        children = node.values() if isinstance(node, dict) else node
        stack += [(c, depth + 1) for c in children if isinstance(c, (list, dict))]
    return False


def loads(text, kinds=None):
    """The object of a manifest; `kinds`, if given, lists the kinds the
    caller can use, and a manifest of any other kind is a ParseError."""
    too_deep = ParseError(f"not a manifest: nested more than {MAX_NESTING} deep")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"not a manifest: {err.msg}", line=err.lineno, column=err.colno)
    except RecursionError:
        raise too_deep from None
    if _too_deep(doc):
        raise too_deep
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ParseError("missing or unknown manifest format tag")
    kind = doc.get("kind")
    if kinds is not None and kind not in kinds:
        raise ParseError(f"a {' or '.join(kinds)} manifest is needed, not {kind!r}")
    return _from_payload(kind, doc.get("payload"))


def _from_payload(kind, payload):
    if not isinstance(kind, str) or kind not in _SHAPES:
        raise ParseError(f"unknown manifest kind {kind!r}")
    payload = _checked(kind, payload)
    if kind == "graph":
        return _graph_from(payload)
    if kind == "game":
        return ParityGame.make(_graph_from(payload["graph"]), _ints(kind, "eve", payload["eve"]))
    if kind == "lasso":
        return Lasso(
            tuple(_ints(kind, "stem", payload["stem"])), tuple(_ints(kind, "cycle", payload["cycle"]))
        )
    if kind == "tree":
        return OrderedTree.from_brackets(payload["brackets"])
    if kind == "decomposition":
        return unwind(_ad_from(payload))
    if kind == "pair":
        return LabellingPair.make(
            _graph_from(payload["graph"]),
            _ints(kind, "label_i", payload["label_i"]),
            _ints(kind, "label_j", payload["label_j"]),
            _index(kind, payload, "index_i"),
            _index(kind, payload, "index_j"),
        )
    if kind == "automaton":
        return NPTA.make(
            _scalars(kind, "alphabet", payload["alphabet"]),
            _scalars(kind, "states", payload["states"]),
            payload["initial"],
            _int_rows(kind, "transitions", payload["transitions"], 4, ints=False),
            _int_rows(kind, "omega", payload["omega"], 2),
            _index(kind, payload, "index"),
        )
    if kind == "regular-tree":
        return RegularTree.make(
            _scalars(kind, "labels", payload["labels"]),
            _ints(kind, "succ0", payload["succ0"]),
            _ints(kind, "succ1", payload["succ1"]),
            payload["root"],
        )
    if kind == "guiding-function":
        rows = _int_rows(kind, "table", payload["table"], 3)
        return GuidingFunction({(p, tb): ta for p, tb, ta in rows})
    if kind == "strategy":
        return dict(_int_rows(kind, "choices", payload["choices"], 2))
    if kind == "product":
        base = _checked("base", payload["base"])
        if base["kind"] not in ("graph", "game"):
            raise ParseError(f"{kind} payload: base kind {base['kind']!r} is not graph or game")
        return reg_product(
            _from_payload(base["kind"], base["payload"]),
            _index(kind, payload, "J"),
            payload["n"],
            rule=payload["rule"],
            starts=_ints(kind, "starts", payload["starts"]),
        )
    raise ParseError(f"unknown manifest kind {kind!r}")


# ---------------------------------------------------------------------------
# PGSolver format

_PG_LINE = re.compile(
    r"^\s*(\d+)\s+(\d+)\s+([01])\s+(\d+(?:\s*,\s*\d+)*)\s*(?:\"([^\"]*)\")?\s*;\s*$"
)


def import_pgsolver(text, *, use_source_priority=False):
    """Parse the classic vertex-priority format; vertex priorities convert
    to edge priorities via the TARGET vertex (a play sees a priority on
    arrival), or via the source behind the flag."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", line=1)
    header = lines[0].strip()
    if not re.match(r"^parity\s+\d+\s*;$", header):
        raise ParseError(f"bad header {header!r}", line=1)
    priority = {}
    eve = []
    succs = {}
    for ln, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        m = _PG_LINE.match(raw)
        if m is None:
            raise ParseError(f"bad vertex line {raw!r}", line=ln)
        vid = int(m.group(1))
        if vid in priority:
            raise ParseError(f"duplicate vertex id {vid}", line=ln)
        priority[vid] = int(m.group(2))
        if m.group(3) == "0":
            eve.append(vid)
        succs[vid] = [int(s) for s in m.group(4).split(",")]
    if not priority:
        raise ParseError("no vertices (EmptyGame)", line=1)
    for v, targets in succs.items():
        for w in targets:
            if w not in priority:
                raise DanglingSuccessor(f"vertex {v} lists unknown successor {w}")
    edges = []
    for v in sorted(succs):
        for w in succs[v]:
            p = priority[v] if use_source_priority else priority[w]
            edges.append((v, w, p))
    graph = ParityGraph.make(sorted(priority), edges)
    return ParityGame.make(graph, eve)


def export_pgsolver(game):
    """Inverse of the import where expressible: every vertex's incoming
    edges must agree on a single priority."""
    if not isinstance(game, ParityGame):
        raise PreconditionFailed("pgsolver", f"unsupported object {type(game).__name__}")
    g = game.graph
    if not g.vertices:
        # the `parity N;` header names the largest vertex id
        raise PreconditionFailed("pgsolver", "a game without vertices has no header")
    if min(g.vertices) < 0:
        raise NotExpressible(f"negative vertex id {min(g.vertices)}")
    vertex_priority = {}
    for e in g.edges:
        before = vertex_priority.get(e.dst)
        if before is None:
            vertex_priority[e.dst] = e.priority
        elif before != e.priority:
            raise NotExpressible(
                f"vertex {e.dst} has incoming priorities {before} and {e.priority}"
            )
    lines = [f"parity {max(g.vertices)};"]
    for v in g.sorted_vertices():
        succ = ",".join(str(g.dst[i]) for i in g.out[v])
        if not succ:
            raise NotExpressible(f"terminal vertex {v}")
        p = vertex_priority.get(v, 0)
        o = 1 if game.owner(v) == ADAM else 0
        lines.append(f"{v} {p} {o} {succ};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def export_dot(obj):
    """The DOT digraph of a game, graph, tree, decomposition or product."""
    if isinstance(obj, ParityGame):
        name, body = "parity", _dot_game(obj.graph, obj, obj.graph.sorted_vertices())
    elif isinstance(obj, ParityGraph):
        name, body = "parity", _dot_game(obj, None, obj.sorted_vertices())
    elif isinstance(obj, OrderedTree):
        name, body = "tree", []
        unwind(_dot_tree_walk(obj, body, [0]))
    elif isinstance(obj, AttractorDecomposition):
        name, body = "decomposition", ["  compound=true;"]
        unwind(_dot_decomposition_walk(obj, body, [0]))
    elif isinstance(obj, RegProduct):
        name, body = "product", _dot_game(obj.game.graph, obj.game, _product_labels(obj))
    else:
        raise PreconditionFailed("dot", f"unsupported object {type(obj).__name__}")
    return "\n".join([f"digraph {name} {{", *body, "}"]) + "\n"


def _dot_game(g, game, labels):
    """The DOT lines of `g`'s vertices in ascending order, labelled by
    `labels` in that order, then of its edges; a game's owners set the
    vertices' shapes."""
    lines = []
    for v, label in zip(g.sorted_vertices(), labels):
        if game is None:
            shape = "circle"
        else:
            shape = "box" if game.owner(v) == ADAM else "ellipse"
        lines.append(f'  v{v} [label="{label}", shape={shape}];')
    for e in g.edges:
        lines.append(f'  v{e.src} -> v{e.dst} [label="{e.priority}"];')
    return lines


def _dot_tree_walk(node, lines, counter):
    me = counter[0]
    counter[0] += 1
    lines.append(f'  n{me} [label="", shape=point];')
    for c in node.children:
        child = yield _dot_tree_walk(c, lines, counter)
        lines.append(f"  n{me} -> n{child};")
    return me


def _dot_decomposition_walk(node, lines, counter):
    cid = counter[0]
    counter[0] += 1
    lines.append(f"  subgraph cluster_{cid} {{")
    lines.append(f'    label="level {node.level}";')
    top = ",".join(str(v) for v in sorted(node.top_attractor))
    lines.append(f'    a{cid} [label="A0: {top}", shape=box];')
    for k, child in enumerate(node.children, 1):
        att = ",".join(str(v) for v in sorted(child.attractor))
        lines.append(f'    a{cid}_{k} [label="A{k}: {att}", shape=box];')
        yield _dot_decomposition_walk(child.sub, lines, counter)
    lines.append("  }")


def _product_labels(p):
    """Each product vertex's phase, base position and nonzero registers
    and counters, by vertex id."""
    base_src = p._graph().src
    labels = []
    for state in p.decode:
        phase = state[0]
        if phase == "sink":
            labels.append("sink")
            continue
        # an "A" state holds its base vertex, the others a base edge
        at = state[1] if phase == "A" else base_src[state[1]]
        regs_t, ctrs_t = state[-1]
        regs = ",".join(f"r{j}={x}" for j, x in zip(p.reg_indices, regs_t))
        ctrs = ",".join(f"c{i},{j}={x}" for (i, j), x in zip(p.counter_keys, ctrs_t) if x)
        labels.append(f"{phase} {at} [{regs}]" + (f" [{ctrs}]" if ctrs else ""))
    return labels
