"""A seeded input fuzz of the command line: every input must end in an
exit code of 0-3, never in an exception out of `cli.main`.

    PYTHONPATH=src python tests/input_fuzz.py [COUNT]

runs the fixed cases and COUNT seeded mutations (default 20,000), prints
each input that fails and exits 1 if there is any.  A mutation is one of:

- a valid manifest of some kind, with one value replaced from a fixed
  list, or one nested object swapped for another kind's payload;
- a PGSolver game with 1-3 characters inserted, replaced or deleted.

Each input runs in-process through `main(["--cap-states", "1000", ...])`
with its output captured, under a command that reads its kind.  An exit
code alone would not show a failure, since a traceback also exits 1.
tests/test_cli.py runs the fixed cases and a slice of the mutations.
"""

import contextlib
import io
import json
import pathlib
import random
import sys
import tempfile

from paritykit import manifests
from paritykit.cli import main
from paritykit.decomposition import build_ad
from paritykit.games import Index, check_even, solve
from paritykit.lab import (
    GenParams,
    guided_suite,
    random_bounded_pair,
    random_even_graph,
    random_game,
    random_non_even_graph,
)
from paritykit.transduction import reg_product
from paritykit.trees import OrderedTree


def valid_documents():
    """kind -> a valid manifest document of that kind, from seeded objects;
    the decomposition is the graph's, and the automaton, guide automaton,
    regular tree and guiding function are one guided triple."""
    g = random_even_graph(GenParams(seed=3, vertex_count=6))
    game = random_game(GenParams(seed=8, vertex_count=4))
    a, b, gf, trees = guided_suite()[0]
    objects = {
        "graph": g,
        "game": game,
        "lasso": check_even(random_non_even_graph(GenParams(seed=5, vertex_count=4), 0))[1],
        "tree": OrderedTree.from_brackets("((())())"),
        "decomposition": build_ad(g, max(g.pri) + max(g.pri) % 2),
        "pair": random_bounded_pair(GenParams(seed=9, vertex_count=4), 1),
        "automaton": a,
        "guide": b,
        "regular-tree": trees[0],
        "guiding-function": gf,
        "strategy": solve(game)[2],
        "product": reg_product(random_game(GenParams(seed=2, vertex_count=3)), Index(1, 2), 0),
    }
    return {kind: json.loads(manifests.dumps(obj)) for kind, obj in objects.items()}


# a PGSolver game: vertex, priority, owner, successors and an optional name
PGSOLVER = 'parity 4;\n0 3 0 1,2 "a";\n1 2 1 0, 3;\n2 1 0 4 ;\n3 0 1 2,4,1;\n4 4 0 0 "b c";\n'

# the commands that read each kind, with the input at "{}" and a valid
# manifest of the named kind elsewhere
COMMANDS = {
    "graph": [["solve", "{}"], ["even", "{}"], ["attract", "{}", "0"], ["ad", "build", "{}"],
              ["reg", "build", "{}", "--n", "1"], ["reg", "solve", "{}", "--n", "1"]],
    "game": [["solve", "{}"], ["attract", "{}", "0", "--player", "eve"], ["reg", "solve", "{}", "--n", "1"],
             ["--format", "pgsolver", "convert", "{}"]],
    "lasso": [],
    "tree": [["strahler", "{}"], ["embed", "{}", "tree"], ["embed", "tree", "{}"]],
    "decomposition": [["ad", "check", "graph", "--decomposition", "{}"],
                      ["reg", "synth", "graph", "--n", "1", "--decomposition", "{}"]],
    "pair": [["bound", "check", "{}"], ["reg", "synth", "{}", "--n", "1"]],
    "automaton": [["aut", "member", "{}", "--tree", "regular-tree"], ["aut", "compose", "{}"],
                  ["aut", "guide", "{}", "--tree", "regular-tree", "--guide-automaton", "guide",
                   "--guiding-function", "guiding-function"]],
    "guide": [["aut", "guide", "automaton", "--tree", "regular-tree", "--guide-automaton", "{}",
               "--guiding-function", "guiding-function"]],
    "regular-tree": [["aut", "member", "automaton", "--tree", "{}"], ["aut", "game", "automaton", "--tree", "{}"]],
    "guiding-function": [["aut", "guide", "automaton", "--tree", "regular-tree", "--guide-automaton", "guide",
                          "--guiding-function", "{}"]],
    "strategy": [],
    "product": [["--format", "dot", "convert", "{}"]],
}
COMMANDS["pgsolver"] = COMMANDS["graph"] + COMMANDS["game"]
for commands in COMMANDS.values():
    commands.append(["convert", "{}"])

# the values a replacement draws from
VALUES = [None, True, False, 0, 1, -1, 3, 10**9, 1.5, "", "a", [], [0, 1], [[0, 1]], {}]
# the characters a PGSolver edit draws from
CHARACTERS = " \t\n,;\"-0123456789ap"


def fixed_cases(docs):
    """(name, kind, text, exit codes): every other kind's payload as a
    product's base, and successors that PGSolver's grammar does not allow,
    each a usage error."""
    cases = []
    for kind in sorted(docs):
        if kind not in ("graph", "game", "guide"):
            doc = json.loads(json.dumps(docs["product"]))
            doc["payload"]["base"] = {"kind": docs[kind]["kind"], "payload": docs[kind]["payload"]}
            cases.append((f"product over a {kind} base", "product", json.dumps(doc), (2,)))
    twelve = "parity 12;\n0 3 0 {};\n1 2 1 0;\n2 1 0 12;\n12 0 1 0;\n"
    for succ in ("1 2", "1\t2", "1,,2", "1,"):
        cases.append((f"successors {succ!r}", "pgsolver", twelve.format(succ), (2,)))
    return cases


def _replace(rng, doc, docs):
    """`doc` with one value at a drawn place replaced, from VALUES or by
    another kind's payload, or with its own kind replaced."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 0.6):
        parent = node
        key = rng.choice(sorted(node) if isinstance(node, dict) else range(len(node)))
        node = parent[key]
    if rng.random() < 0.3:
        other = docs[rng.choice(sorted(docs))]
        swap = other["payload"] if rng.random() < 0.5 else {"kind": other["kind"], "payload": other["payload"]}
        parent[key] = json.loads(json.dumps(swap))
    else:
        parent[key] = rng.choice(VALUES)
    return doc


def _edit(rng, text):
    """`text` with 1-3 characters inserted, replaced or deleted."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars) + 1)
        how = rng.choice(("insert", "replace", "delete"))
        if how == "insert" or at == len(chars):
            chars.insert(at, rng.choice(CHARACTERS))
        elif how == "replace":
            chars[at] = rng.choice(CHARACTERS)
        else:
            del chars[at]
    return "".join(chars)


def mutation(seed, docs):
    """(name, kind, text, exit codes) of the mutation with this seed."""
    rng = random.Random(seed)
    kind = rng.choice([*sorted(docs), "pgsolver"])
    if kind == "pgsolver":
        text = _edit(rng, PGSOLVER)
    else:
        text = json.dumps(_replace(rng, json.loads(json.dumps(docs[kind])), docs))
    return f"mutation {seed}", kind, text, (0, 1, 2, 3)


def run(cases, docs):
    """(name, command, what went wrong) of each case whose run of `main`
    raises or ends in an exit code outside its own; each case runs under a
    command for its kind, drawn by its name."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for kind, doc in docs.items():
            paths[kind] = pathlib.Path(tmp, f"{kind}.json")
            paths[kind].write_text(json.dumps(doc))
        target = pathlib.Path(tmp, "input")
        for name, kind, text, codes in cases:
            target.write_text(text)
            command = random.Random(name).choice(COMMANDS[kind])
            argv = ["--cap-states", "1000"]
            argv += [str(target) if arg == "{}" else str(paths.get(arg, arg)) for arg in command]
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    got = main(argv)
            except Exception as err:  # noqa: BLE001 - every escape is the failure sought
                failures.append((name, command, f"raised {type(err).__name__}: {err}"))
                continue
            if got not in codes:
                failures.append((name, command, f"exit {got}: {' '.join(out.getvalue().split())[-200:]}"))
    return failures


def fuzz(count):
    """The failures of the fixed cases and of `count` mutations."""
    docs = valid_documents()
    mutations = [mutation(seed, docs) for seed in range(count)]
    return run([*fixed_cases(docs), *mutations], docs)


if __name__ == "__main__":
    failures = fuzz(int(sys.argv[1]) if len(sys.argv) > 1 else 20000)
    for name, command, why in failures:
        print(f"{name} ({' '.join(command)}): {why}")
    sys.exit(1 if failures else 0)
