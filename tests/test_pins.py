import os
import subprocess
import sys
from pathlib import Path

import pytest

import pins

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", pins.PINS)
def test_answers_pinned(name):
    assert pins.sha1(pins.calls(name)) == pins.PINS[name][0]


def test_answers_do_not_depend_on_the_hash_seed(tmp_path):
    path = os.pathsep.join(filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]))
    runs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "pins.py"), "save", str(tmp_path / seed)],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
        )
        for seed in ("1", "2")
    ]
    assert [run.wait(timeout=600) for run in runs] == [0, 0]
    for name in pins.PINS:
        saved = [pins.load(tmp_path / seed, name) for seed in ("1", "2")]
        assert saved[0] and pins.changed(*saved) == []


def test_diff_names_each_changed_call(tmp_path, monkeypatch, capsys):
    def squares():
        for k in range(4):
            yield f"k={k}", f"{k * k}\n".encode()

    monkeypatch.setattr(pins, "PINS", {"squares": (None, squares), "empty": (None, lambda: iter(()))})
    assert pins.main(["save", str(tmp_path)]) == 0
    assert pins.main(["diff", str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""
    (tmp_path / "squares.json").write_text('{"k=0": "0\\n", "k=1": "2\\n", "k=2": "4\\n", "k=9": ""}')
    assert pins.main(["diff", str(tmp_path)]) == 1
    assert capsys.readouterr().out == "squares: k=1\nsquares: k=9\nsquares: k=3\n"
