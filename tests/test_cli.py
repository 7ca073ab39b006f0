import contextlib
import dataclasses
import inspect
import json
import os
import pathlib
import random
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritykit import cli, errors, lab, manifests
from paritykit.automata import (
    NPTA,
    GuidingFunction,
    RegularTree,
    acceptance_game,
    guided_pair_bound_check,
    membership,
)
from paritykit.cli import main
from paritykit.decomposition import AttractorDecomposition, LabellingPair, SegmentedPath, build_ad
from paritykit.errors import PreconditionFailed
from paritykit.games import Index, ParityGame, ParityGraph
from paritykit.lab import (
    GenParams,
    _aut_eventually_b,
    guided_negative,
    guided_suite,
    random_bounded_pair,
    random_game,
)
from paritykit.transduction import RegProduct, eve_wins_reg
from paritykit.trees import OrderedTree

from corpora import graph_of_tree
from input_fuzz import fuzz, valid_documents
from oracles import chain_graph


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_block(language, after):
    """The first fenced `language` block of README.md below the line `after`."""
    text = README.read_text()
    return text[text.index(after):].partition(f"```{language}\n")[2].partition("```")[0]


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(manifests.dumps(obj))
    return str(path)


# a self-loop of priority 4 in a graph that declares the index [0, 2]
LOOP_4 = {"vertices": [0], "edges": [[0, 0, 4]], "index": [0, 2]}


@pytest.fixture
def odd_loop(tmp_path):
    return write(tmp_path, "odd.json", ParityGraph.make([0], [(0, 0, 1)]))


@pytest.fixture
def even_loop(tmp_path):
    return write(tmp_path, "even.json", ParityGraph.make([0], [(0, 0, 2)]))


# today's exit code and stderr label of each error class, by name
EXIT_OF_ERROR = {
    "ParityKitError": (1, "error"),
    "UsageError": (2, "usage error"),
    "NegativeAnswer": (1, "negative"),
    "ResourceCap": (3, "resource cap"),
    "ParseError": (2, "usage error"),
    "PreconditionFailed": (2, "usage error"),
    "PriorityOutOfRange": (2, "usage error"),
    "DanglingSuccessor": (2, "usage error"),
    "TerminalVertex": (2, "usage error"),
    "IncompleteAutomaton": (2, "usage error"),
    "AlphabetMismatch": (2, "usage error"),
    "EmptyIndex": (2, "usage error"),
    "IncompatibleGuide": (2, "usage error"),
    "NotEven": (1, "negative"),
    "NotBounded": (1, "negative"),
    "StateExplosion": (3, "resource cap"),
    "TooLarge": (3, "resource cap"),
    "StrategyEscapesRegion": (1, "error"),
    "UndefinedChoice": (1, "error"),
    "InvalidDecomposition": (1, "error"),
    "NoAcceptingRun": (1, "error"),
    "ExhaustedRetries": (1, "error"),
    "NotExpressible": (1, "error"),
    "UndefinedTree": (1, "error"),
}

ERROR_CLASSES = [
    value
    for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, errors.ParityKitError) and value.__module__ == errors.__name__
]


class TestExitCodes:
    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_each_error_class_exits_with_its_code_and_label(self, cls, monkeypatch, capsys):
        assert cls.__name__ in EXIT_OF_ERROR, f"{cls.__name__} has no row in EXIT_OF_ERROR"
        code, label = EXIT_OF_ERROR[cls.__name__]
        # "x" for each argument that the class's own __init__ requires, else a one-word message
        init = cls.__init__
        params = [] if init is Exception.__init__ else list(inspect.signature(init).parameters.values())[1:]
        err = cls(*["x" for p in params if p.default is p.empty] or ["x"])

        def fail(args):
            raise err

        monkeypatch.setattr(cli, "cmd_convert", fail)
        assert main(["convert", "unread"]) == code
        assert capsys.readouterr().err == f"{label}: {err}\n"
        assert main(["--json-errors", "convert", "unread"]) == code
        assert json.loads(capsys.readouterr().err) == {"error": cls.__name__, "message": str(err), "exit": code}

    def test_even_negative_prints_lasso(self, odd_loop, capsys):
        assert main(["even", odd_loop]) == 1
        out = capsys.readouterr().out
        assert "not even" in out
        assert "lasso" in out

    def test_even_positive(self, even_loop, capsys):
        assert main(["even", even_loop]) == 0
        assert "even" in capsys.readouterr().out

    def test_unknown_flag(self, capsys):
        assert main(["--bogus", "even", "x"]) == 2

    def test_missing_file(self, capsys):
        assert main(["even", "/nonexistent/file.json"]) == 2

    def test_resource_cap(self, tmp_path, capsys):
        g = ParityGraph.make([0, 1], [(0, 1, 1), (1, 0, 2)])
        path = write(tmp_path, "g.json", g)
        assert main(["--cap-states", "4", "reg", "build", path]) == 3
        capsys.readouterr()
        assert main(["--cap-states", "5", "reg", "build", path, "--j-hi", "4", "--n", "2"]) == 3
        assert "resource cap: reg_product(J=[1,4], n=2, rule=liberal)" in capsys.readouterr().err

    def test_cap_states_below_one_is_usage_error(self, tmp_path, capsys):
        g = ParityGraph.make([0, 1], [(0, 1, 1), (1, 0, 2)])
        path = write(tmp_path, "g.json", g)
        assert main(["--cap-states", "0", "reg", "build", path]) == 2
        assert main(["--cap-states", "-5", "reg", "build", path]) == 2
        assert "--cap-states" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["lab", "random", "--priorities", "-1"], "--priorities"),
            (["lab", "random", "--kind", "pair", "--n", "-1"], "--n"),
            (["lab", "battery", "--instances", "0"], "--instances"),
            (["lab", "battery", "--instances", "-3"], "--instances"),
            (["lab", "random", "--vertices", "-2"], "--vertices"),
            (["lab", "random", "--vertices", "0"], "--vertices"),
        ],
    )
    def test_lab_out_of_range_integer_is_usage_error(self, argv, flag, capsys):
        assert main(argv) == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sizes, flag",
        [
            (("1", "-1", "-2", "1"), "--k"),
            (("1", "1", "-5", "1"), "--depth"),
            (("-1", "1", "1", "1"), "--n"),
            (("1", "0", "1", "1"), "--k"),
            (("1", "1", "1", "0"), "--width"),
        ],
    )
    def test_universal_out_of_range_integer_is_usage_error(self, sizes, flag, capsys):
        n, k, d, w = sizes
        assert main(["universal", "--n", n, "--k", k, "--depth", d, "--width", w]) == 2
        assert f"argument {flag}: must be at least 1" in capsys.readouterr().err

    def test_universal_k_above_depth_is_undefined(self, capsys):
        assert main(["universal", "--n", "1", "--k", "2", "--depth", "1", "--width", "1"]) == 1
        assert "error: U(n=1,k=2,d=1) is undefined" in capsys.readouterr().err

    def test_lab_random_above_the_cap_exits_before_generating(self, capsys):
        start = time.perf_counter()
        assert main(["lab", "random", "--vertices", "100000000"]) == 3
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert "resource cap: lab random(vertices=100000000)" in err
        for kind in ("game", "even-graph", "pair"):
            assert main(["--cap-states", "5", "lab", "random", "--kind", kind, "--vertices", "6"]) == 3
            assert main(["--cap-states", "5", "lab", "random", "--kind", kind, "--vertices", "5"]) == 0

    def test_lab_random_pair_refuses_more_vertices_than_it_answers_for(self, capsys):
        start = time.perf_counter()
        for seed in range(6):
            assert main(["--seed", str(seed), "lab", "random", "--kind", "pair", "--vertices", "85"]) == 0
        assert time.perf_counter() - start < 10
        capsys.readouterr()
        for vertices in ("86", "2000", "200000"):
            start = time.perf_counter()
            assert main(["lab", "random", "--kind", "pair", "--vertices", vertices]) == 2
            assert time.perf_counter() - start < 1
            err = capsys.readouterr().err
            assert f"--kind pair takes at most 85 vertices, not {vertices}" in err
        assert main(["lab", "random", "--kind", "game", "--vertices", "86"]) == 0

    def test_lab_random_defaults_to_six_vertices(self, capsys):
        assert main(["--seed", "3", "lab", "random"]) == 0
        default = capsys.readouterr().out
        assert main(["--seed", "3", "lab", "random", "--vertices", "6"]) == 0
        assert capsys.readouterr().out == default
        assert len(manifests.loads(default).graph.vertices) == 6

    def test_lab_battery_rejects_vertices(self, capsys):
        assert main(["lab", "battery", "--instances", "1", "--vertices", "3"]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "criteria fix their own vertex counts" in err

    def test_unknown_start_vertex(self, tmp_path, capsys):
        g = ParityGraph.make([0, 1], [(0, 1, 1), (1, 0, 2)])
        path = write(tmp_path, "g.json", g)
        capsys.readouterr()
        assert main(["reg", "solve", path, "--start", "7"]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "unknown start vertex 7" in err
        with pytest.raises(PreconditionFailed, match="unknown start vertex 7"):
            eve_wins_reg(g, Index(1, 2), 0, 7)

    def test_malformed_manifest_is_usage_error(self, tmp_path, capsys):
        graph = {"vertices": [0], "edges": [[0, 0, 2]], "index": [0, 2]}
        no_eve = {"format": "paritykit/1", "kind": "game", "payload": {"graph": graph}}
        short_edge = {"format": "paritykit/1", "kind": "graph", "payload": dict(graph, edges=[[0, 0]])}
        automaton = {"alphabet": ["a"], "states": [0], "initial": 0, "index": [0, 1],
                     "transitions": [[0, "a", 0, 0]], "omega": [[0, 0]]}
        cases = [
            ("no_eve", "solve", no_eve, "game payload: missing key 'eve'"),
            ("short", "solve", short_edge, "graph payload: edges entry [0, 0]"),
            ("choices", "convert", {"kind": "strategy", "payload": {"choices": [[0]]}},
             "strategy payload: choices entry [0]"),
            ("table", "convert", {"kind": "guiding-function", "payload": {"table": [[0, "x", 1]]}},
             "guiding-function payload: table entry [0, 'x', 1]"),
            ("omega", "convert", {"kind": "automaton", "payload": dict(automaton, omega=[[0]])},
             "automaton payload: omega entry [0]"),
            ("transitions", "convert",
             {"kind": "automaton", "payload": dict(automaton, transitions=[[0, "a", 0]])},
             "automaton payload: transitions entry [0, 'a', 0]"),
            ("initial", "convert", {"kind": "automaton", "payload": dict(automaton, initial=[0])},
             "initial ([0] not a state)"),
            ("state", "convert",
             {"kind": "automaton", "payload": dict(automaton, transitions=[[0, "a", [0], 0]])},
             "unknown state in (0, 'a', [0], 0)"),
        ]
        for name, command, doc, named in cases:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(dict(doc, format="paritykit/1")))
            capsys.readouterr()
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert "usage error" in err and named in err

    def test_manifest_of_another_kind_is_usage_error(self, tmp_path, capsys):
        g = ParityGraph.make([0], [(0, 0, 2)])
        d = write(tmp_path, "d.json", build_ad(g, 2))
        pair = write(tmp_path, "pair.json", random_bounded_pair(GenParams(seed=9, vertex_count=4), 1))
        graph = write(tmp_path, "g.json", g)
        cases = [
            (["even", d], "a graph or game manifest is needed, not 'decomposition'"),
            (["solve", pair], "a graph or game manifest is needed, not 'pair'"),
            (["bound", "check", graph], "a pair manifest is needed, not 'graph'"),
            (["ad", "check", graph, "--decomposition", graph],
             "a decomposition manifest is needed, not 'graph'"),
            (["ad", "check", graph], "no decomposition manifest given"),
        ]
        for argv, named in cases:
            capsys.readouterr()
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "usage error" in err and named in err
        assert main(["--json-errors", "even", d]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"

    def test_non_int_ids_are_usage_errors(self, tmp_path, capsys):
        graph = {"vertices": [0], "edges": [[0, 0, 2]], "index": [0, 2]}
        node = {"level": 2, "top_edges": [0], "top_attractor": [0], "children": []}
        cases = [
            ("even", "graph", dict(graph, vertices=[[0, 1, 2]]), "graph payload: vertices entry [0, 1, 2]"),
            ("solve", "game", {"graph": graph, "eve": ["0"]}, "game payload: eve entry '0'"),
            ("convert", "decomposition", dict(node, top_attractor=[0, 2, None]),
             "decomposition payload: top_attractor entry None"),
            ("convert", "decomposition", dict(node, top_edges=[1.5]),
             "decomposition payload: top_edges entry 1.5"),
            ("convert", "decomposition",
             dict(node, children=[{"subgame": [True], "attractor": [0], "sub": node}]),
             "child payload: subgame entry True"),
            ("convert", "decomposition",
             dict(node, children=[{"subgame": [0], "attractor": [{}], "sub": node}]),
             "child payload: attractor entry {}"),
        ]
        for command, kind, payload, named in cases:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({"format": "paritykit/1", "kind": kind, "payload": payload}))
            capsys.readouterr()
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert "usage error" in err and named in err

    def test_deep_nesting_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(_deep_decomposition(400))
        assert main(["convert", str(path)]) == 2
        assert "nested more than 500 deep" in capsys.readouterr().err
        # 3 * 165 + 3 = 498 levels of JSON containers, then 501
        path.write_text(_deep_decomposition(165))
        assert main(["convert", str(path)]) == 0
        path.write_text(_deep_decomposition(166))
        assert main(["convert", str(path)]) == 2

    def test_ad_build_past_the_nesting_cap_is_a_resource_cap(self, tmp_path, capsys):
        def chain(k):
            return write(tmp_path, f"chain{k}.json", chain_graph(k))

        for k in (167, 1200):
            assert main(["ad", "build", chain(k)]) == 3
            err = capsys.readouterr().err
            assert "resource cap: decomposition manifest: nested more than 500 deep" in err
        assert main(["--format", "dot", "ad", "build", chain(1200)]) == 0
        assert capsys.readouterr().out.count("subgraph cluster_") == 1200
        path = chain(166)
        assert main(["ad", "build", path]) == 0
        d_path = tmp_path / "d.json"
        d_path.write_text(capsys.readouterr().out)
        assert main(["ad", "check", path, "--decomposition", str(d_path)]) == 0
        assert main(["ad", "tight", path, "--decomposition", str(d_path)]) == 0

    @pytest.mark.parametrize(
        "argv, doc, named",
        [
            (["solve"], {"kind": "graph", "payload": LOOP_4}, "priority 4 outside Index(lo=0, hi=2)"),
            (["--json-errors", "solve"], {"kind": "graph", "payload": LOOP_4}, '"error": "PriorityOutOfRange"'),
            (
                ["bound", "check"],
                {"kind": "pair", "payload": {"graph": dict(LOOP_4, edges=[[0, 0, 0]]), "label_i": [5],
                                             "label_j": [2], "index_i": [0, 2], "index_j": [1, 2]}},
                "labelI value 5 outside Index(lo=0, hi=2)",
            ),
            (["solve"], "parity 1;\n0 1 0 7;\n", "vertex 0 lists unknown successor 7"),
            (
                ["ad", "build", "--level", "2"],
                {"kind": "graph", "payload": dict(LOOP_4, index=[0, 4])},
                "priority 4 exceeds level 2",
            ),
        ],
    )
    def test_priority_outside_the_index_or_a_dangling_successor_is_usage_error(
        self, tmp_path, capsys, argv, doc, named
    ):
        path = tmp_path / "input"
        path.write_text(doc if isinstance(doc, str) else json.dumps(dict(doc, format="paritykit/1")))
        assert main([*argv, str(path)]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert '"exit": 2' in err if "--json-errors" in argv else err.startswith("usage error: ")

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["solve", "{dead_end}"], "vertex 1 has no outgoing edge"),
            (["even", "{dead_end}"], "vertex 1 has no outgoing edge"),
            (["aut", "member", "{no_b_move}", "--tree", "{b_tree}"], "no transition from 0 over 'b'"),
            (
                ["aut", "member", "{automaton}", "--tree", "{c_tree}"],
                "tree letters ['c'] are not in the alphabet ['a', 'b']",
            ),
            (["aut", "compose", "{automaton}", "--j-lo", "2", "--j-hi", "2"], "no odd priority to reject with"),
        ],
    )
    def test_a_dead_end_a_missing_move_or_letter_or_an_unusable_index_is_usage_error(
        self, tmp_path, capsys, argv, named
    ):
        incomplete = json.loads(manifests.dumps(_aut_eventually_b()))
        # drop the transition (0, "b", 1, 1) and its priorities
        del incomplete["payload"]["transitions"][1], incomplete["payload"]["omega"][1]
        (tmp_path / "no-b-move.json").write_text(json.dumps(incomplete))
        paths = {
            "dead_end": write(tmp_path, "dead-end.json", ParityGraph.make([0, 1], [(0, 1, 0)])),
            "no_b_move": str(tmp_path / "no-b-move.json"),
            "automaton": write(tmp_path, "a.json", _aut_eventually_b()),
            "b_tree": write(tmp_path, "b.json", RegularTree.make(("b",), (0,), (0,), 0)),
            "c_tree": write(tmp_path, "c.json", RegularTree.make(("c",), (0,), (0,), 0)),
        }
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and named in err

    @pytest.mark.parametrize(
        "edges, label_i, label_j, index_j, code, named",
        [
            ([(0, 1), (1, 0)], (2, 2), (4, 4), (3, 4), 0, "verified"),
            ([(0, 1), (1, 0)], (1, 1), (2, 2), (1, 2), 1, "negative: labelI view is not even"),
            ([(0, 1), (1, 0)], (1, 2), (2, 2), (1, 2), 1, "negative: labelling is not bounded"),
            ([(0, 1)], (2,), (2,), (1, 2), 2, "usage error: precondition failed: evenness (terminal vertex 1)"),
        ],
    )
    def test_reg_synth_from_a_pair_exits_as_bound_check_and_ad_build(
        self, tmp_path, capsys, edges, label_i, label_j, index_j, code, named
    ):
        g = ParityGraph.make([0, 1], [(s, d, 0) for s, d in edges])
        pair = LabellingPair.make(g, label_i, label_j, Index(0, 2), Index(*index_j))
        assert main(["reg", "synth", write(tmp_path, "pair.json", pair)]) == code
        captured = capsys.readouterr()
        assert named in (captured.out if code == 0 else captured.err)

    def test_memory_error_is_a_resource_cap(self, even_loop, monkeypatch, capsys):
        def exhaust(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_ad", exhaust)
        assert main(["ad", "build", even_loop]) == 3
        assert capsys.readouterr().err == "resource cap: ad build: out of memory\n"
        monkeypatch.setattr(cli, "cmd_embed", exhaust)
        assert main(["--json-errors", "embed", even_loop, even_loop]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "MemoryError",
            "message": "embed: out of memory",
            "exit": 3,
        }


class TestCommands:
    def test_solve(self, tmp_path, capsys):
        gm = random_game(GenParams(seed=8, vertex_count=4))
        path = write(tmp_path, "game.json", gm)
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("eve:")

    def test_attract(self, tmp_path, capsys):
        g = ParityGraph.make([0, 1, 2], [(0, 1, 0), (1, 2, 0), (2, 2, 0)])
        path = write(tmp_path, "g.json", g)
        assert main(["attract", path, "2"]) == 0
        assert "0 1 2" in capsys.readouterr().out

    def test_readme_attract_example(self, tmp_path, capsys):
        line = next(x for x in README.read_text().splitlines() if x.startswith("paritykit attract"))
        argv = line.partition("#")[0].split()[1:]
        assert argv[1] == "game.json" and "--player" in argv
        printed = []
        for kind, name, code in (("game", "game.json", 0), ("even-graph", "graph.json", 2)):
            assert main(["lab", "random", "--kind", kind]) == 0
            (tmp_path / name).write_text(capsys.readouterr().out)
            argv[1] = str(tmp_path / name)
            assert main(argv) == code
            printed.append(capsys.readouterr())
        assert printed[0].out.startswith("attractor:") and "\nstrategy: {" in printed[0].out
        assert printed[1].out == "" and "--player needs a game input" in printed[1].err

    def test_readme_python_example(self, capsys):
        block = _readme_block("python", "A small example")
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out == "(()) 1\n"

    def test_readme_command_lines(self, tmp_path, monkeypatch, capsys):
        """Every line of README's "Command line" block, on files that `lab
        random` or a fixture writes under the names it uses, ends in exit 0.
        `lab battery --instances 100` runs at one instance per criterion:
        at 100 it is the acceptance-scale battery, which
        tests/test_acceptance.py runs criterion by criterion."""
        monkeypatch.chdir(tmp_path)
        for kind, name in (("game", "game.json"), ("even-graph", "graph.json"), ("pair", "pair.json")):
            assert main(["lab", "random", "--kind", kind]) == 0
            (tmp_path / name).write_text(capsys.readouterr().out)
        (tmp_path / "input.pg").write_text("parity 1;\n0 2 0 1;\n1 2 1 0;\n")
        for name, obj in (
            ("small.json", OrderedTree.from_brackets("(()())")),
            ("host.json", OrderedTree.from_brackets("((())()())")),
            ("automaton.json", _aut_eventually_b()),
        ):
            write(tmp_path, name, obj)
        # `strahler` reads tree.json as an ordered tree, `aut member` as a regular one
        trees = {
            "strahler": OrderedTree.from_brackets("((())())"),
            "aut": RegularTree.make(("b",), (0,), (0,), 0),
        }
        lines = [line.partition("#")[0].split() for line in _readme_block("sh", "## Command line").splitlines()]
        assert len(lines) == 15 and all(argv[0] == "paritykit" for argv in lines)
        for argv in lines:
            argv = argv[1:]
            if argv[0] in trees:
                write(tmp_path, "tree.json", trees[argv[0]])
            if argv[:2] == ["lab", "battery"]:
                argv[argv.index("--instances") + 1] = "1"
            assert main(argv) == 0, argv
            printed = capsys.readouterr().out
            if argv[:2] == ["ad", "build"]:
                # `ad check` on the next line reads this decomposition
                (tmp_path / "d.json").write_text(printed)

    def test_ad_build_and_check(self, tmp_path, capsys):
        g = ParityGraph.make([0], [(0, 0, 2)])
        path = write(tmp_path, "g.json", g)
        assert main(["ad", "build", path]) == 0
        d_text = capsys.readouterr().out
        d_path = tmp_path / "d.json"
        d_path.write_text(d_text)
        assert main(["ad", "check", path, "--decomposition", str(d_path)]) == 0
        assert "valid" in capsys.readouterr().out
        assert main(["ad", "shape", path, "--decomposition", str(d_path)]) == 0

    def test_ad_check_names_the_clause_that_fails(self, tmp_path, capsys):
        g = graph_of_tree(OrderedTree.from_brackets("(()())"))
        d = build_ad(g, 4)
        assert len(d.children) == 2
        path = write(tmp_path, "g.json", g)
        dropped = write(tmp_path, "d.json", dataclasses.replace(d, children=d.children[:1]))
        assert main(["ad", "check", path, "--decomposition", dropped]) == 1
        assert capsys.readouterr().out == "invalid: coverage (frozenset({2}))\n"

    def test_reg_synth_from_a_decomposition(self, tmp_path, capsys):
        assert main(["lab", "random", "--kind", "even-graph"]) == 0
        (tmp_path / "g.json").write_text(capsys.readouterr().out)
        assert main(["ad", "build", str(tmp_path / "g.json")]) == 0
        (tmp_path / "d.json").write_text(capsys.readouterr().out)
        argv = ["reg", "synth", str(tmp_path / "g.json"), "--decomposition", str(tmp_path / "d.json")]
        assert main([*argv, "--n", "1"]) == 0
        verdict, _, strategy = capsys.readouterr().out.partition("\n")
        assert verdict == "verified"
        assert json.loads(strategy)["kind"] == "strategy"

    def test_strahler_and_universal(self, tmp_path, capsys):
        t = OrderedTree.from_brackets("(()()())")
        path = write(tmp_path, "t.json", t)
        assert main(["strahler", path, "--n", "2"]) == 0
        assert capsys.readouterr().out.strip() == "2"
        assert main(["universal", "--n", "2", "--k", "2", "--depth", "2", "--width", "3"]) == 0

    def test_universal_chain_of_2000_nodes(self, capsys):
        assert main(["universal", "--n", "1", "--k", "1", "--depth", "2000", "--width", "1"]) == 0
        tree = manifests.loads(capsys.readouterr().out, ("tree",))
        assert tree.node_count() == 2000

    def test_strahler_of_a_deep_tree(self, tmp_path, capsys):
        brackets = "(" * 3000 + ")" * 3000
        path = tmp_path / "deep.json"
        manifest = {"format": "paritykit/1", "kind": "tree", "payload": {"brackets": brackets}}
        path.write_text(json.dumps(manifest))
        assert main(["strahler", str(path), "--n", "1"]) == 0
        assert capsys.readouterr().out.strip() == "1"
        t = OrderedTree.from_brackets(brackets)
        assert t.node_count() == 3000 and t.to_brackets() == brackets

    def test_embed(self, tmp_path, capsys):
        small = write(tmp_path, "s.json", OrderedTree.from_brackets("(())"))
        host = write(tmp_path, "h.json", OrderedTree.from_brackets("((())())"))
        assert main(["embed", small, host]) == 0
        leaf_host = write(tmp_path, "l.json", OrderedTree.from_brackets("()"))
        assert main(["embed", small, leaf_host]) == 1

    @pytest.mark.parametrize("k", [1000, 3000])
    def test_embed_of_a_deep_tree(self, tmp_path, k):
        # a spine k nodes long, each spine node with a leaf before the next;
        # its node depths sum to k*k + k, and each node prints two paths
        path = write(tmp_path, "t.json", OrderedTree.from_brackets("(()" * k + "()" + ")" * k))
        out = tmp_path / "out.txt"
        entries = 2 * (k * k + k)
        start = time.perf_counter()
        with open(out, "w") as f, contextlib.redirect_stdout(f):
            assert main(["--cap-states", str(entries), "embed", path, path]) == 0
        assert time.perf_counter() - start < 30
        lines = printed = 0
        with open(out) as f:
            for line in f:
                source, image = line.rstrip("\n").split(" -> ")
                assert source == image
                lines += 1
                printed += 2 * len(json.loads(source))
        assert lines == 2 * k + 1 and printed == entries

    def test_embed_over_the_cap_exits_before_embedding(self, tmp_path, capsys, monkeypatch):
        k = 3000
        path = write(tmp_path, "t.json", OrderedTree.from_brackets("(()" * k + "()" + ")" * k))
        small = write(tmp_path, "s.json", OrderedTree.from_brackets("(()(()))"))

        def refuse(t, host):
            raise AssertionError("embedded")

        monkeypatch.setattr(cli, "embed", refuse)
        start = time.perf_counter()
        assert main(["embed", path, path]) == 3
        assert time.perf_counter() - start < 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "embed(query of 6001 nodes): 18006000 printed path entries exceed the cap 200000" in captured.err
        # depths 1, 1 and 2: eight entries, whatever the host
        assert main(["--cap-states", "7", "embed", small, path]) == 3
        monkeypatch.undo()
        assert main(["--cap-states", "8", "embed", small, small]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "[1, 0] -> [1, 0]"

    def test_embed_sizes_shared_subtrees_once(self):
        # 40 nested (t, t): 2**41 - 1 nodes over 41 shared objects, with
        # 2**d of them at depth d
        big = OrderedTree()
        for _ in range(40):
            big = OrderedTree((big, big))
        assert cli._printed_entries(big) == 2 * sum(d * 2**d for d in range(41))

    def test_universal_over_the_cap(self, capsys):
        start = time.perf_counter()
        assert main(["universal", "--n", "3", "--k", "4", "--depth", "9", "--width", "4"]) == 3
        assert time.perf_counter() - start < 10
        captured = capsys.readouterr()
        # the tree has 71,719,612 nodes; the check stops at a subtree's count
        assert captured.out == "" and "438829 nodes or more exceed the cap 200000" in captured.err
        chain = ["universal", "--n", "1", "--k", "1", "--depth", "2000", "--width", "1"]
        assert main(["--cap-states", "1999", *chain]) == 3
        assert capsys.readouterr().out == ""
        assert main(["--cap-states", "2000", *chain]) == 0
        assert manifests.loads(capsys.readouterr().out, ("tree",)).node_count() == 2000

    def test_universal_over_the_cap_exits_before_building(self, capsys):
        start = time.perf_counter()
        chain = ["universal", "--n", "1", "--k", "1", "--depth", "300000", "--width", "1"]
        assert main(chain) == 3
        assert time.perf_counter() - start < 1
        assert "200001 nodes or more exceed the cap 200000" in capsys.readouterr().err

    def test_reg_solve(self, tmp_path, capsys, odd_loop, even_loop):
        assert main(["reg", "solve", even_loop, "--n", "0"]) == 0
        assert main(["reg", "solve", odd_loop, "--n", "1"]) == 1

    def test_reg_build_starts_from_the_start_vertex_only(self, tmp_path, capsys):
        g = ParityGraph.make([0, 1], [(0, 1, 1), (1, 0, 2)])
        path = write(tmp_path, "g.json", g)
        assert main(["reg", "build", path]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["starts"] == [0, 1]
        assert main(["reg", "build", path, "--start", "1"]) == 0
        manifest = capsys.readouterr().out
        assert json.loads(manifest)["payload"]["starts"] == [1]
        assert set(manifests.loads(manifest).initial) == {1}
        assert main(["reg", "build", path, "--start", "7"]) == 2
        assert "unknown start vertex 7" in capsys.readouterr().err

    def test_reg_synth_from_pair(self, tmp_path, capsys):
        pair = random_bounded_pair(GenParams(seed=9, vertex_count=4), 1)
        path = write(tmp_path, "pair.json", pair)
        assert main(["reg", "synth", path, "--n", "1"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_bound_check(self, tmp_path, capsys):
        pair = random_bounded_pair(GenParams(seed=10, vertex_count=4), 0)
        path = write(tmp_path, "pair.json", pair)
        assert main(["bound", "check", path, "--n", "0"]) == 0

    def test_bound_check_prints_a_witness_that_replays(self, tmp_path, capsys):
        # each pass round the loop is a segment with labelI 1 and labelJ 2
        g = ParityGraph.make([0], [(0, 0, 0)])
        pair = LabellingPair.make(g, (1,), (2,), Index(0, 2), Index(1, 2))
        path = write(tmp_path, "pair.json", pair)
        assert main(["bound", "check", path, "--n", "2"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "not bounded"
        witness = json.loads(out[1])
        segments = tuple(map(tuple, witness["segments"]))
        assert len(segments) == 3
        assert SegmentedPath(witness["odd"], witness["even"], segments).check(pair)

    def test_ad_tight_refuses_an_invalid_decomposition(self, tmp_path, capsys):
        g = ParityGraph.make([0, 1], [(0, 0, 0), (1, 1, 0), (1, 0, 1)])
        d = build_ad(g)
        assert len(d.children) == 2
        # vertex 1's edge of priority 1 leads into the later child {0}
        swapped = write(tmp_path, "d.json", dataclasses.replace(d, children=d.children[::-1]))
        path = write(tmp_path, "g.json", g)
        assert main(["ad", "tight", path, "--decomposition", swapped]) == 1
        assert capsys.readouterr().out == "invalid decomposition\n"

    def test_even_reads_the_graph_of_a_game(self, tmp_path, capsys):
        game = ParityGame.make(ParityGraph.make([0, 1], [(0, 1, 1), (1, 0, 2)]), [0])
        assert main(["even", write(tmp_path, "game.json", game)]) == 0
        assert capsys.readouterr().out == "even\n"

    def test_aut_member(self, tmp_path, capsys):
        from paritykit.lab import _aut_eventually_b
        from paritykit.automata import RegularTree

        a_path = write(tmp_path, "a.json", _aut_eventually_b())
        t_path = write(tmp_path, "t.json", RegularTree.make(("b",), (0,), (0,), 0))
        assert main(["aut", "member", a_path, "--tree", t_path]) == 0
        t2 = write(tmp_path, "t2.json", RegularTree.make(("a",), (0,), (0,), 0))
        assert main(["aut", "member", a_path, "--tree", t2]) == 1

    def test_aut_game(self, tmp_path, capsys):
        a = _aut_eventually_b()
        t = RegularTree.make(("a", "b"), (1, 0), (1, 0), 0)
        argv = ["aut", "game", write(tmp_path, "a.json", a), "--tree", write(tmp_path, "t.json", t)]
        capsys.readouterr()
        assert main(argv) == 0
        assert manifests.loads(capsys.readouterr().out, ("game",)) == acceptance_game(a, t).game

    def test_aut_guide(self, tmp_path, capsys):
        def guide(a, b, gf, t):
            return main([
                "aut", "guide", write(tmp_path, "a.json", a),
                "--tree", write(tmp_path, "t.json", t),
                "--guide-automaton", write(tmp_path, "b.json", b),
                "--guiding-function", write(tmp_path, "g.json", gf),
            ])

        a, b, gf, trees = guided_suite()[0]
        capsys.readouterr()
        assert guide(a, b, gf, trees[0]) == 0
        assert capsys.readouterr().out == "bounded\n"
        a, b, gf, trees = guided_negative()
        failing = [t for t in trees if membership(b, t) and not guided_pair_bound_check(a, b, gf, t)]
        assert failing and guide(a, b, gf, failing[0]) == 1
        assert capsys.readouterr().out == "not bounded\n"

    def test_lab_battery_prints_each_failure(self, monkeypatch, capsys):
        def run(p, count):
            return count, [("instance 0 disagrees", None), ("instance 1 disagrees", '{"kind": "graph"}')]

        monkeypatch.setattr(lab, "CRITERIA", (lab.Criterion("always-fails", 1, run),))
        assert main(["lab", "battery", "--instances", "1"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-3:] == [
            "failure[always-fails]: instance 0 disagrees",
            "failure[always-fails]: instance 1 disagrees",
            '{"kind": "graph"}',
        ]

    def test_lab_battery(self, capsys):
        assert main(["--seed", "3", "lab", "battery", "--instances", "2"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_lab_random_deterministic(self, capsys):
        assert main(["--seed", "11", "lab", "random", "--kind", "game"]) == 0
        first = capsys.readouterr().out
        assert main(["--seed", "11", "lab", "random", "--kind", "game"]) == 0
        assert capsys.readouterr().out == first
        assert main(["lab", "random", "--kind", "foo"]) == 2

    def test_convert_pgsolver(self, tmp_path, capsys):
        text = "parity 1;\n0 2 0 1;\n1 2 1 0;\n"
        path = tmp_path / "g.pg"
        path.write_text(text)
        assert main(["convert", str(path)]) == 0
        manifest = capsys.readouterr().out
        gm = manifests.loads(manifest)
        assert isinstance(gm, ParityGame)
        # the conversion rule is documented in the emitted metadata
        assert json.loads(manifest)["meta"]["priority-conversion"] == "target-vertex"
        code = main(
            [
                "convert",
                str(path),
                "--pg-source-priority",
            ]
        )
        assert code == 0
        assert (
            json.loads(capsys.readouterr().out)["meta"]["priority-conversion"]
            == "source-vertex"
        )

    def test_convert_recognises_a_pgsolver_game_without_a_flag(self, tmp_path, capsys):
        text = "parity 1;\n0 2 0 1;\n1 2 1 0;\n"
        path = tmp_path / "g.pg"
        path.write_text(text)
        game = manifests.import_pgsolver(text)
        meta = {"source-format": "pgsolver", "priority-conversion": "target-vertex"}
        for fmt, expected in (
            ("native", manifests.dumps(game, indent=2, meta=meta) + "\n"),
            ("dot", manifests.export_dot(game)),
            ("pgsolver", manifests.export_pgsolver(game)),
        ):
            assert main(["--format", fmt, "convert", str(path)]) == 0
            assert capsys.readouterr().out == expected

    def test_convert_to_dot(self, tmp_path, capsys):
        gm = random_game(GenParams(seed=12, vertex_count=3))
        path = write(tmp_path, "g.json", gm)
        assert main(["--format", "dot", "convert", path]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_convert_a_bare_graph_to_dot(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", ParityGraph.make([0, 1], [(0, 1, 1), (1, 0, 2)]))
        assert main(["--format", "dot", "convert", path]) == 0
        assert capsys.readouterr().out == (
            "digraph parity {\n"
            '  v0 [label="0", shape=circle];\n'
            '  v1 [label="1", shape=circle];\n'
            '  v0 -> v1 [label="1"];\n'
            '  v1 -> v0 [label="2"];\n'
            "}\n"
        )

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["universal", "--n", "1", "--k", "1", "--depth", "2", "--width", "2"], "OrderedTree"),
            (["lab", "random", "--kind", "pair"], "LabellingPair"),
            (["lab", "random", "--kind", "even-graph"], "ParityGraph"),
            (["aut", "compose", "automaton"], "NPTA"),
            (["ad", "build", "game.pg"], "AttractorDecomposition"),
            (["reg", "build", "game.pg"], "RegProduct"),
            (["convert", "graph"], "ParityGraph"),
            (["convert", "tree"], "OrderedTree"),
        ],
    )
    def test_pgsolver_output_of_a_non_game_is_usage_error(self, tmp_path, capsys, argv, kind):
        pg = tmp_path / "game.pg"
        pg.write_text("parity 1;\n0 2 0 1;\n1 2 1 0;\n")
        paths = {
            "game.pg": str(pg),
            "automaton": write(tmp_path, "a.json", _aut_eventually_b()),
            "graph": write(tmp_path, "g.json", ParityGraph.make([0], [(0, 0, 2)])),
            "tree": write(tmp_path, "t.json", OrderedTree.from_brackets("(()())")),
        }
        assert main(["--format", "pgsolver", *[paths.get(arg, arg) for arg in argv]]) == 2
        err = capsys.readouterr().err
        assert f"precondition failed: pgsolver (unsupported object {kind})" in err

    @pytest.mark.parametrize("fmt", ["native", "dot"])
    @pytest.mark.parametrize(
        "command, kind", [("ad", AttractorDecomposition), ("reg", RegProduct)]
    )
    def test_pgsolver_input_with_native_or_dot_output(self, tmp_path, capsys, command, kind, fmt):
        """A PGSolver game is recognised by its header, so `--format` sets
        only how the result is printed."""
        pg = tmp_path / "game.pg"
        pg.write_text("parity 1;\n0 2 0 1;\n1 2 1 0;\n")
        assert main(["--format", fmt, command, "build", str(pg)]) == 0
        out = capsys.readouterr().out
        if fmt == "dot":
            assert out.startswith("digraph")
        else:
            assert isinstance(manifests.loads(out), kind)

    def test_compose_an_automaton_without_transitions(self, tmp_path, capsys):
        # an empty alphabet leaves every state complete without a transition
        a = NPTA.make((), (0,), 0, [], [], Index(0, 3))
        assert main(["aut", "compose", write(tmp_path, "a.json", a), "--n", "1"]) == 0
        composed = manifests.loads(capsys.readouterr().out)
        assert composed.states == (0, 1) and composed.transitions == ()

    @pytest.mark.parametrize("entry", [999, -1])
    def test_guide_entry_outside_the_transitions_is_rejected(self, tmp_path, capsys, entry):
        a, b, gf, trees = guided_suite()[0]
        # the guide's run of trees[0] takes guide transition 1 from state 0
        table = {**gf.table, (0, 1): entry}
        argv = [
            "aut", "guide", write(tmp_path, "a.json", a),
            "--tree", write(tmp_path, "t.json", trees[0]),
            "--guide-automaton", write(tmp_path, "b.json", b),
            "--guiding-function", write(tmp_path, "g.json", GuidingFunction(table)),
        ]
        assert main(argv) == 2
        assert f"usage error: g(0, 1) = {entry} is not a transition id" in capsys.readouterr().err


VALID = valid_documents()

# every command that reads a manifest, with the mutated one at "{}" and
# valid manifests of the named kinds elsewhere
COMMANDS = [
    ["solve", "{}"],
    ["even", "{}"],
    ["attract", "{}", "0"],
    ["attract", "{}", "0", "--player", "eve"],
    ["ad", "build", "{}"],
    ["ad", "check", "{}", "--decomposition", "decomposition"],
    ["ad", "check", "graph", "--decomposition", "{}"],
    ["ad", "tight", "graph", "--decomposition", "{}"],
    ["ad", "shape", "graph", "--decomposition", "{}"],
    ["strahler", "{}"],
    ["embed", "{}", "tree"],
    ["embed", "tree", "{}"],
    ["reg", "build", "{}"],
    ["reg", "solve", "{}"],
    ["reg", "synth", "{}", "--n", "1"],
    ["reg", "synth", "graph", "--n", "1", "--decomposition", "{}"],
    ["bound", "check", "{}"],
    ["aut", "game", "{}", "--tree", "regular-tree"],
    ["aut", "member", "automaton", "--tree", "{}"],
    ["aut", "compose", "{}"],
    ["aut", "guide", "automaton", "--tree", "regular-tree", "--guide-automaton", "automaton",
     "--guiding-function", "{}"],
    ["convert", "{}"],
    ["--format", "dot", "convert", "{}"],
    ["--format", "pgsolver", "convert", "{}"],
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def _deep_decomposition(depth):
    """Text of a decomposition manifest nested `depth` levels deep."""
    opens = "".join(
        f'{{"level": {2 * k}, "top_edges": [], "top_attractor": [], "children": '
        '[{"subgame": [0], "attractor": [0], "sub": '
        for k in range(depth, 0, -1)
    )
    leaf = '{"level": 0, "top_edges": [], "top_attractor": [0], "children": []}'
    return (
        '{"format": "paritykit/1", "kind": "decomposition", "payload": '
        + opens + leaf + "}]}" * depth + "}"
    )


def _mutate(data, doc):
    """Text of `doc` with one change at a drawn place: a key or entry
    dropped, a value replaced by a JSON value of any type, the kind
    swapped, or a value wrapped in deeply nested lists; or a deeply nested
    decomposition."""
    how = data.draw(st.sampled_from(["drop", "replace", "kind", "nest", "deep-decomposition"]))
    if how == "kind":
        doc["kind"] = data.draw(st.sampled_from([*VALID, "base", "child", 7, None]))
        return json.dumps(doc)
    if how == "deep-decomposition":
        return _deep_decomposition(data.draw(st.sampled_from([40, 165, 166, 320, 340, 2000])))
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)):
        parent = node
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
    if parent is None:
        return json.dumps(doc)
    if how == "drop":
        del parent[key]
    elif how == "replace":
        parent[key] = data.draw(json_values)
    else:
        depth = data.draw(st.sampled_from([5, 300, 495, 990, 1200, 5000]))
        parent[key] = "\0nest"
        nested = "[" * depth + json.dumps(node) + "]" * depth
        return json.dumps(doc).replace(json.dumps("\0nest"), nested)
    return json.dumps(doc)


class TestHostileManifests:
    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_cli_ends_in_an_exit_code(self, tmp_path_factory, data):
        tmp = tmp_path_factory.mktemp("hostile")
        paths = {}
        for kind, doc in VALID.items():
            paths[kind] = tmp / f"{kind}.json"
            paths[kind].write_text(json.dumps(doc))
        kind = data.draw(st.sampled_from(sorted(VALID)))
        bad = tmp / "bad.json"
        bad.write_text(_mutate(data, json.loads(json.dumps(VALID[kind]))))
        command = data.draw(st.sampled_from(COMMANDS))
        argv = [str(bad) if arg == "{}" else str(paths.get(arg, arg)) for arg in command]
        code = main(["--cap-states", "500", *argv])
        assert code in (0, 1, 2, 3)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["reg", "build", "huge-graph", "--j-lo", "1", "--j-hi", "2", "--n", "0"], 3),
            (["reg", "solve", "huge-graph", "--n", "1"], 3),
            (["reg", "build", "graph", "--j-lo", "1", "--j-hi", str(10**9)], 3),
            (["reg", "build", "graph", "--j-lo", str(10**9 + 1), "--j-hi", str(10**9 + 2)], 0),
            (["aut", "compose", "huge-automaton", "--n", "1"], 3),
        ],
    )
    def test_huge_priorities_and_indices_end_in_seconds(self, tmp_path, capsys, argv, code):
        huge = 10**9
        paths = {
            "graph": write(tmp_path, "g.json", ParityGraph.make([0, 1], [(0, 1, 1), (1, 0, 2)])),
            "huge-graph": write(
                tmp_path,
                "huge-g.json",
                ParityGraph.make([0, 1], [(0, 0, huge), (0, 1, 0), (1, 0, 0)], Index(0, huge)),
            ),
            "huge-automaton": write(
                tmp_path,
                "huge-a.json",
                NPTA.make(("a",), (0,), 0, [(0, "a", 0, 0)], [(huge, huge)], Index(0, huge)),
            ),
        }
        start = time.perf_counter()
        assert main([paths.get(arg, arg) for arg in argv]) == code
        assert time.perf_counter() - start < 2
        if code == 3:
            assert "counter keys exceed the cap 200000" in capsys.readouterr().err

    def test_ad_build_at_a_huge_level_ends_in_seconds(self, tmp_path, capsys):
        # the decomposition would hold one node per even level, 5*10**8 + 1
        huge = 10**9
        path = write(
            tmp_path,
            "huge-g.json",
            ParityGraph.make([0, 1], [(0, 0, huge), (0, 1, 0), (1, 0, 0)], Index(0, huge)),
        )
        start = time.perf_counter()
        assert main(["ad", "build", path]) == 3
        assert time.perf_counter() - start < 2
        assert f"build_ad(h={huge}): {huge // 2 + 1} nodes exceed the cap 200000" in capsys.readouterr().err

    def test_bound_check_at_a_huge_bound_ends_in_seconds(self, tmp_path, capsys):
        # one self-loop closes a segment every two states of the search
        g = ParityGraph.make([0], [(0, 0, 0)])
        path = write(tmp_path, "loop-pair.json", LabellingPair.make(g, (1,), (2,), Index(0, 2), Index(1, 2)))
        start = time.perf_counter()
        assert main(["bound", "check", path, "--n", str(10**9)]) == 3
        assert time.perf_counter() - start < 2
        assert "n_bound_check(" in capsys.readouterr().err
        assert main(["bound", "check", path, "--n", "1000"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "not bounded"
        assert json.loads(out[1])["segments"] == [[0]] * 1001

    def test_pgsolver_export_without_a_vertex_is_a_usage_error(self, tmp_path, capsys):
        # PGSolver's header names the largest vertex id, and `parity -1;` does not parse
        path = write(tmp_path, "empty.json", ParityGame.make(ParityGraph.make([], []), ()))
        assert main(["--format", "pgsolver", "convert", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "precondition failed: pgsolver (a game without vertices has no header)" in captured.err

    @pytest.mark.parametrize("kind", ["graph", "game"])
    def test_reg_solve_without_a_vertex_is_a_usage_error(self, tmp_path, capsys, kind):
        # with no --start the game starts at the smallest vertex, and there is none
        g = ParityGraph.make([], [])
        path = write(tmp_path, "empty.json", g if kind == "graph" else ParityGame.make(g, ()))
        assert main(["reg", "solve", path, "--n", "1"]) == 2
        assert "precondition failed: eve_wins_reg" in capsys.readouterr().err


# each hostile run is a child process that calls `main` under an
# address-space limit, so a run that would exhaust memory dies alone and
# a run that would loop is stopped at the timeout
CHILD_MEMORY = 2 << 30
HOSTILE_SECONDS = 3
HUGE = 10**9


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


def _run_main(argv):
    """(exit code, stderr, seconds) of `main(argv)` in a child process."""
    path = os.pathsep.join(filter(None, [str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from paritykit.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True,
        text=True,
        timeout=HOSTILE_SECONDS * 5,
        preexec_fn=_limit_memory,
        env={**os.environ, "PYTHONPATH": path},
    )
    return run.returncode, run.stderr, time.perf_counter() - start


@pytest.mark.parametrize(
    "argv, code",
    [
        # fixed: a huge index, a huge but empty universal tree, unreadable files
        (["lab", "random", "--kind", "pair", "--priorities", str(HUGE)], 0),
        (["lab", "random", "--kind", "pair", "--priorities", str(10**18), "--vertices", "20"], 0),
        (["universal", "--n", str(HUGE), "--k", "1", "--depth", "1", "--width", "1"], 0),
        (["universal", "--n", str(10**18), "--k", "1", "--depth", "1", "--width", "1"], 0),
        (["solve", "{dir}"], 2),
        (["solve", "{random_bytes}"], 2),
        (["solve", "{latin1_pgsolver}"], 2),
        # already ending in an exit code
        (["reg", "solve", "{graph}", "--j-hi", str(HUGE)], 3),
        (["aut", "compose", "{automaton}", "--j-hi", str(HUGE)], 3),
        (["reg", "build", "{odd_loop}", "--n", str(HUGE)], 3),
        (["ad", "build", "{graph}", "--level", str(10**18)], 3),
        (["universal", "--n", "1", "--k", "1", "--depth", str(10**18), "--width", "1"], 3),
        (["reg", "solve", "{graph}", "--start", str(10**18)], 2),
        (["ad", "build", "{graph}", "--level", "-2"], 2),
        (["bound", "check", "{pair}", "--n", "-1"], 2),
        (["attract", "{graph}", str(HUGE)], 2),
        # fixed: a priority cap past sys.maxsize
        (["lab", "random", "--kind", "pair", "--priorities", str(10**20)], 0),
    ],
)
def test_hostile_input_ends_in_an_exit_code_in_seconds(tmp_path, argv, code):
    (tmp_path / "random.bin").write_bytes(random.Random(0).randbytes(300))
    (tmp_path / "latin1.pg").write_bytes(b'parity 1;\n0 2 0 1 "\xff";\n1 2 1 0;\n')
    paths = {
        "dir": str(tmp_path),
        "random_bytes": str(tmp_path / "random.bin"),
        "latin1_pgsolver": str(tmp_path / "latin1.pg"),
        "graph": write(tmp_path, "g.json", ParityGraph.make([0, 1], [(0, 1, 1), (1, 0, 2)])),
        "odd_loop": write(tmp_path, "odd.json", ParityGraph.make([0], [(0, 0, 1)])),
        "automaton": write(tmp_path, "a.json", _aut_eventually_b()),
        "pair": write(tmp_path, "pair.json", random_bounded_pair(GenParams(seed=9, vertex_count=4), 1)),
    }
    got, err, seconds = _run_main([arg.format(**paths) for arg in argv])
    assert (got, "Traceback" in err) == (code, False), err
    assert seconds < HOSTILE_SECONDS


def test_input_fuzz_slice_ends_in_exit_codes():
    """tests/input_fuzz.py's fixed cases, each a usage error, and its first
    300 seeded mutations, each ending in an exit code of 0-3."""
    assert fuzz(300) == []
