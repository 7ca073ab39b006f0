import json

import pytest

from paritykit import manifests
from paritykit.cli import main
from paritykit.errors import PreconditionFailed
from paritykit.games import Index, ParityGame, ParityGraph
from paritykit.lab import GenParams, random_bounded_pair, random_game
from paritykit.transduction import eve_wins_reg
from paritykit.trees import OrderedTree


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(manifests.dumps(obj))
    return str(path)


@pytest.fixture
def odd_loop(tmp_path):
    return write(tmp_path, "odd.json", ParityGraph.make([0], [(0, 0, 1)]))


@pytest.fixture
def even_loop(tmp_path):
    return write(tmp_path, "even.json", ParityGraph.make([0], [(0, 0, 2)]))


class TestExitCodes:
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
        ]
        for name, command, doc, named in cases:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(dict(doc, format="paritykit/1")))
            capsys.readouterr()
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert "usage error" in err and named in err


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

    def test_strahler_and_universal(self, tmp_path, capsys):
        t = OrderedTree.from_brackets("(()()())")
        path = write(tmp_path, "t.json", t)
        assert main(["strahler", path, "--n", "2"]) == 0
        assert capsys.readouterr().out.strip() == "2"
        assert main(["universal", "--n", "2", "--k", "2", "--depth", "2", "--width", "3"]) == 0

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

    def test_reg_solve(self, tmp_path, capsys, odd_loop, even_loop):
        assert main(["reg", "solve", even_loop, "--n", "0"]) == 0
        assert main(["reg", "solve", odd_loop, "--n", "1"]) == 1

    def test_reg_synth_from_pair(self, tmp_path, capsys):
        pair = random_bounded_pair(GenParams(seed=9, vertex_count=4), 1)
        path = write(tmp_path, "pair.json", pair)
        assert main(["reg", "synth", path, "--n", "1"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_bound_check(self, tmp_path, capsys):
        pair = random_bounded_pair(GenParams(seed=10, vertex_count=4), 0)
        path = write(tmp_path, "pair.json", pair)
        assert main(["bound", "check", path, "--n", "0"]) == 0

    def test_aut_member(self, tmp_path, capsys):
        from paritykit.lab import _aut_eventually_b
        from paritykit.automata import RegularTree

        a_path = write(tmp_path, "a.json", _aut_eventually_b())
        t_path = write(tmp_path, "t.json", RegularTree.make(("b",), (0,), (0,), 0))
        assert main(["aut", "member", a_path, "--tree", t_path]) == 0
        t2 = write(tmp_path, "t2.json", RegularTree.make(("a",), (0,), (0,), 0))
        assert main(["aut", "member", a_path, "--tree", t2]) == 1

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
        assert main(["convert", str(path), "--input-format", "pgsolver"]) == 0
        manifest = capsys.readouterr().out
        gm = manifests.loads(manifest)
        assert isinstance(gm, ParityGame)
        # the conversion rule is documented in the emitted metadata
        assert json.loads(manifest)["meta"]["priority-conversion"] == "target-vertex"
        code = main(
            [
                "convert",
                str(path),
                "--input-format",
                "pgsolver",
                "--pg-source-priority",
            ]
        )
        assert code == 0
        assert (
            json.loads(capsys.readouterr().out)["meta"]["priority-conversion"]
            == "source-vertex"
        )

    def test_convert_to_dot(self, tmp_path, capsys):
        gm = random_game(GenParams(seed=12, vertex_count=3))
        path = write(tmp_path, "g.json", gm)
        assert main(["--format", "dot", "convert", path]) == 0
        assert capsys.readouterr().out.startswith("digraph")
