"""Command-line surface.

Exit codes: 0 success, 1 negative property/decision (not even, not
bounded, rejected, ...), 2 usage error, 3 resource cap exceeded.
"""

import argparse
import json
import sys

from . import manifests
from .decomposition import build_ad, is_tight, n_bound_check, tree_shape, validate_ad
from .errors import (
    DEFAULT_STATE_CAP,
    NegativeAnswer,
    ParityKitError,
    ParseError,
    PreconditionFailed,
    ResourceCap,
    TooLarge,
    UsageError,
)
from .games import (
    ADAM,
    EVE,
    Index,
    ParityGame,
    ParityGraph,
    attractor_vertices,
    check_even,
    player_attractor,
    solve,
)
from .lab import (
    PAIR_VERTICES,
    GenParams,
    random_bounded_pair,
    random_even_graph,
    random_game,
    run_theorem_battery,
)
from .transduction import (
    LIBERAL,
    eve_wins_reg,
    reg_product,
    strategy_from_bounded_pair,
    synth_from_ad,
)
from .trees import embed, n_strahler, universal_tree, universal_tree_size
from .automata import acceptance_game, compose_transducer, guided_pair_bound_check, membership


GRAPHS = ("graph", "game")


def _load(path, kinds, source_priority=False, meta=None):
    """The object of the manifest at `path`, which must be of one of `kinds`
    (of any kind if None).  A file that starts with a `parity N;` header is
    a PGSolver game, whose priority conversion is recorded in `meta` if
    given; any other is a native (JSON) manifest."""
    if path is None:
        raise PreconditionFailed("manifest", f"no {' or '.join(kinds)} manifest given")
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        # an OSError's text names the path again; a decode error has no strerror
        raise ParseError(f"cannot read {path}: {getattr(err, 'strerror', err)}") from err
    if not text.lstrip().startswith("parity"):
        return manifests.loads(text, kinds)
    if kinds is not None and "game" not in kinds:
        raise ParseError(f"a {' or '.join(kinds)} manifest is needed, not a PGSolver game")
    if meta is not None:
        rule = "source" if source_priority else "target"
        meta.update({"source-format": "pgsolver", "priority-conversion": f"{rule}-vertex"})
    return manifests.import_pgsolver(text, use_source_priority=source_priority)


def _emit(obj, args, meta=None):
    fmt = getattr(args, "format", "native")
    if fmt == "dot":
        sys.stdout.write(manifests.export_dot(obj))
    elif fmt == "pgsolver":
        sys.stdout.write(manifests.export_pgsolver(obj))
    else:
        print(manifests.dumps(obj, indent=2, meta=meta))


def _int_at_least(text, low):
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _positive_int(text):
    return _int_at_least(text, 1)


def _natural_int(text):
    return _int_at_least(text, 0)


def cmd_solve(args):
    obj = _load(args.file, GRAPHS)
    if isinstance(obj, ParityGraph):
        obj = ParityGame.make(obj, {v: ADAM for v in obj.vertices})
    eve_region, adam_region, eve_strat, adam_strat = solve(obj)
    print("eve:", " ".join(map(str, sorted(eve_region))))
    print("adam:", " ".join(map(str, sorted(adam_region))))
    print("eve-strategy:", json.dumps({str(v): e for v, e in sorted(eve_strat.items())}))
    print("adam-strategy:", json.dumps({str(v): e for v, e in sorted(adam_strat.items())}))
    return 0


def cmd_even(args):
    g = _load(args.file, GRAPHS)
    if isinstance(g, ParityGame):
        g = g.graph
    ok, lasso = check_even(g)
    if ok:
        print("even")
        return 0
    print("not even")
    print(manifests.dumps(lasso))
    return 1


def cmd_attract(args):
    obj = _load(args.file, GRAPHS)
    targets = frozenset(args.targets)
    if args.player:
        if not isinstance(obj, ParityGame):
            raise PreconditionFailed("attract", "--player needs a game input")
        region, strat = player_attractor(obj, targets, args.player)
        print("attractor:", " ".join(map(str, sorted(region))))
        print("strategy:", json.dumps({str(v): e for v, e in sorted(strat.items())}))
    else:
        if isinstance(obj, ParityGame):
            obj = obj.graph
        region = attractor_vertices(obj, targets)
        print("attractor:", " ".join(map(str, sorted(region))))
    return 0


def cmd_ad(args):
    g = _load(args.file, GRAPHS)
    if isinstance(g, ParityGame):
        g = g.graph
    if args.action == "build":
        h = args.level
        if h is None:
            h = max(g.pri, default=0)
            h += h % 2
        d = build_ad(g, h)
        _emit(d, args)
        return 0
    d = _load(args.decomposition, ("decomposition",))
    if args.action == "check":
        res = validate_ad(g, d)
        if res:
            print("valid")
            return 0
        print(f"invalid: {res.clause} ({res.witness})")
        return 1
    if args.action == "tight":
        if not validate_ad(g, d):
            print("invalid decomposition")
            return 1
        tight = is_tight(g, d)
        print("tight" if tight else "not tight")
        return 0 if tight else 1
    _emit(tree_shape(d), args)
    return 0


def cmd_strahler(args):
    t = _load(args.file, ("tree",))
    print(n_strahler(t, args.n))
    return 0


def cmd_universal(args):
    # shared subtrees print once per occurrence, so the cap is on the
    # expanded count, taken before the tree is built
    size = universal_tree_size(args.n, args.k, args.depth, args.width, args.cap_states)
    if size > args.cap_states:
        raise TooLarge(
            f"universal_tree(n={args.n}, k={args.k}, d={args.depth}, w={args.width}): "
            f"{size} nodes or more exceed the cap {args.cap_states}"
        )
    _emit(universal_tree(args.n, args.k, args.depth, args.width), args)
    return 0


def _printed_entries(t):
    """The path entries that `cmd_embed` prints for the query t: each node's
    path and its image's, each as long as the node's depth, so twice the
    sum of the depths.  A subtree's depth sum is its children's, each plus
    the child's node count, taken once per distinct subtree."""
    sums = {}
    stack = [t]
    while stack:
        node = stack[-1]
        if id(node) in sums:
            stack.pop()
            continue
        todo = [c for c in node.children if id(c) not in sums]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        sums[id(node)] = sum(sums[id(c)] + c.node_count() for c in node.children)
    return 2 * sums[id(t)]


def cmd_embed(args):
    t = _load(args.tree, ("tree",))
    host = _load(args.host, ("tree",))
    # the printed paths grow with the square of the depth, so the cap is on
    # their total length, taken before embedding
    entries = _printed_entries(t)
    if entries > args.cap_states:
        raise TooLarge(
            f"embed(query of {t.node_count()} nodes): {entries} printed path entries "
            f"exceed the cap {args.cap_states}"
        )
    e = embed(t, host)
    if e is None:
        print("no embedding")
        return 1
    for path, image in sorted(e.mapping.items()):
        print(f"{list(path)} -> {list(image)}")
    return 0


def cmd_reg(args):
    if args.action != "synth":
        kinds = GRAPHS
    elif args.decomposition:
        kinds = ("graph",)
    else:
        kinds = ("pair",)
    obj = _load(args.file, kinds)
    J = Index(args.j_lo, args.j_hi)
    if args.action == "build":
        product = reg_product(obj, J, args.n, rule=args.reset_rule, cap=args.cap_states)
        _emit(product, args)
        return 0
    if args.action == "solve":
        won = eve_wins_reg(
            obj, J, args.n, args.start, rule=args.reset_rule, cap=args.cap_states
        )
        print("eve wins" if won else "adam wins")
        return 0 if won else 1
    if args.decomposition:
        d = _load(args.decomposition, ("decomposition",))
        strat = synth_from_ad(obj, d, args.n, rule=args.reset_rule, cap=args.cap_states)
    else:
        strat = strategy_from_bounded_pair(obj, args.n, rule=args.reset_rule, cap=args.cap_states)
    verified = strat.verify()
    print("verified" if verified else "not winning")
    print(manifests.dumps(strat.sigma))
    return 0 if verified else 1


def cmd_bound(args):
    pair = _load(args.file, ("pair",))
    ok, witness = n_bound_check(pair, args.n)
    if ok:
        print("bounded")
        return 0
    print("not bounded")
    print(
        json.dumps(
            {
                "odd": witness.odd,
                "even": witness.even,
                "segments": [list(s) for s in witness.segments],
            }
        )
    )
    return 1


def cmd_aut(args):
    a = _load(args.automaton, ("automaton",))
    if args.action == "compose":
        J = Index(args.j_lo, args.j_hi)
        _emit(compose_transducer(a, J, args.n, rule=args.reset_rule, cap=args.cap_states), args)
        return 0
    t = _load(args.tree, ("regular-tree",))
    if args.action == "game":
        ag = acceptance_game(a, t)
        _emit(ag.game, args)
        return 0
    if args.action == "member":
        ok = membership(a, t)
        print("accepted" if ok else "rejected")
        return 0 if ok else 1
    b = _load(args.guide_automaton, ("automaton",))
    gf = _load(args.guiding_function, ("guiding-function",))
    ok = guided_pair_bound_check(a, b, gf, t)
    print("bounded" if ok else "not bounded")
    return 0 if ok else 1


def cmd_lab(args):
    if args.action == "battery" and args.vertices is not None:
        raise PreconditionFailed("--vertices", "the battery's criteria fix their own vertex counts")
    p = GenParams(
        seed=args.seed,
        vertex_count=6 if args.vertices is None else args.vertices,
        priority_cap=args.priorities,
        instance_count=args.instances,
    )
    if args.action == "random":
        if p.vertex_count > args.cap_states:
            raise TooLarge(
                f"lab random(vertices={p.vertex_count}): more vertices than the cap {args.cap_states}"
            )
        if args.kind == "game":
            _emit(random_game(p), args)
        elif args.kind == "even-graph":
            _emit(random_even_graph(p), args)
        elif p.vertex_count > PAIR_VERTICES:
            raise PreconditionFailed(
                "--vertices", f"--kind pair takes at most {PAIR_VERTICES} vertices, not {p.vertex_count}"
            )
        else:
            _emit(random_bounded_pair(p, args.n), args)
        return 0
    report = run_theorem_battery(p)
    print(report.summary())
    if report.ok:
        print("all checks passed")
        return 0
    for check in report.checks:
        for desc, manifest in check.failures:
            print(f"failure[{check.name}]: {desc}")
            if manifest:
                print(manifest)
    return 1


def cmd_convert(args):
    meta = {}
    _emit(_load(args.file, None, args.pg_source_priority, meta), args, meta)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="paritykit",
        description="parity games, attractor decompositions, register games,"
        " Strahler numbers, universal trees, parity tree automata",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--format",
        choices=("native", "pgsolver", "dot"),
        default="native",
        help="output format (input is recognised by its content)",
    )
    parser.add_argument("--cap-states", type=_positive_int, default=DEFAULT_STATE_CAP)
    parser.add_argument(
        "--reset-rule", choices=("liberal", "literal", "never"), default=LIBERAL
    )
    parser.add_argument(
        "--json-errors", action="store_true", help="machine-readable error payload"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve a parity game")
    s.add_argument("file")
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("even", help="evenness check with lasso witness")
    s.add_argument("file")
    s.set_defaults(func=cmd_even)

    s = sub.add_parser("attract", help="attractor of a vertex set")
    s.add_argument("file")
    s.add_argument("targets", type=int, nargs="+")
    s.add_argument("--player", choices=(EVE, ADAM), default=None)
    s.set_defaults(func=cmd_attract)

    s = sub.add_parser("ad", help="attractor decompositions")
    s.add_argument("action", choices=("build", "check", "tight", "shape"))
    s.add_argument("file")
    s.add_argument("--decomposition", help="decomposition manifest (check/tight/shape)")
    s.add_argument("--level", type=int, default=None)
    s.set_defaults(func=cmd_ad)

    s = sub.add_parser("strahler", help="n-Strahler number of an ordered tree")
    s.add_argument("file")
    s.add_argument("--n", type=int, default=1)
    s.set_defaults(func=cmd_strahler)

    s = sub.add_parser("universal", help="finite universal tree")
    for flag in ("--n", "--k", "--depth", "--width"):
        s.add_argument(flag, type=_positive_int, required=True)
    s.set_defaults(func=cmd_universal)

    s = sub.add_parser("embed", help="isomorphic tree embedding")
    s.add_argument("tree")
    s.add_argument("host")
    s.set_defaults(func=cmd_embed)

    s = sub.add_parser("reg", help="priority transduction games")
    s.add_argument("action", choices=("build", "solve", "synth"))
    s.add_argument("file")
    s.add_argument("--j-lo", type=int, default=1)
    s.add_argument("--j-hi", type=int, default=2)
    s.add_argument("--n", type=int, default=0)
    s.add_argument("--start", type=int, default=None)
    s.add_argument("--decomposition", default=None)
    s.set_defaults(func=cmd_reg)

    s = sub.add_parser("bound", help="n-bound check of a labelling pair")
    s.add_argument("action", choices=("check",))
    s.add_argument("file")
    s.add_argument("--n", type=int, default=0)
    s.set_defaults(func=cmd_bound)

    s = sub.add_parser("aut", help="parity tree automata")
    s.add_argument("action", choices=("game", "member", "compose", "guide"))
    s.add_argument("automaton")
    s.add_argument("--tree", default=None)
    s.add_argument("--guide-automaton", default=None)
    s.add_argument("--guiding-function", default=None)
    s.add_argument("--j-lo", type=int, default=1)
    s.add_argument("--j-hi", type=int, default=2)
    s.add_argument("--n", type=int, default=0)
    s.set_defaults(func=cmd_aut)

    s = sub.add_parser("lab", help="generators and the theorem battery")
    s.add_argument("action", choices=("random", "battery"))
    s.add_argument("--kind", choices=("game", "even-graph", "pair"), default="game")
    s.add_argument("--vertices", type=_positive_int, default=None, help="random only (default 6)")
    s.add_argument("--priorities", type=_natural_int, default=4)
    s.add_argument("--instances", type=_positive_int, default=5)
    s.add_argument("--n", type=_natural_int, default=1)
    s.set_defaults(func=cmd_lab)

    s = sub.add_parser("convert", help="convert between formats")
    s.add_argument("file")
    s.add_argument(
        "--pg-source-priority",
        action="store_true",
        help="convert vertex priorities via edge sources instead of targets",
    )
    s.set_defaults(func=cmd_convert)

    return parser


def _report_error(args, err, label, code):
    if getattr(args, "json_errors", False):
        payload = {"error": type(err).__name__, "message": str(err), "exit": code}
        print(json.dumps(payload), file=sys.stderr)
    else:
        print(f"{label}: {err}", file=sys.stderr)
    return code


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return 2 if stop.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as err:
        return _report_error(args, err, "usage error", 2)
    except NegativeAnswer as err:
        return _report_error(args, err, "negative", 1)
    except ResourceCap as err:
        return _report_error(args, err, "resource cap", 3)
    except MemoryError:
        # a MemoryError carries no message, so this one names the command
        command = " ".join(filter(None, (args.command, getattr(args, "action", None))))
        return _report_error(args, MemoryError(f"{command}: out of memory"), "resource cap", 3)
    except ParityKitError as err:
        return _report_error(args, err, "error", 1)


if __name__ == "__main__":
    sys.exit(main())
