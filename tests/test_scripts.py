import importlib.util
import math
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_epsilon_sensitivity_tabulates_each_epsilon(monkeypatch, capsys):
    script = _load("epsilon_sensitivity")
    monkeypatch.setattr(sys, "argv", ["epsilon_sensitivity.py", "--m", "7", "--epsilons", "0.5", "1"])
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("three_level, sigma=1")
    assert lines[1].split() == ["epsilon", "error_A", "order", "min_eig_R", "min_slack"]
    rows = [[float(cell) for cell in line.split()] for line in lines[2:]]
    assert [row[0] for row in rows] == [0.5, 1.0]
    assert all(len(row) == 5 and all(math.isfinite(cell) for cell in row) for row in rows)
