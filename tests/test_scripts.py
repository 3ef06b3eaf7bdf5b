"""The bundled scripts run end to end on the public API."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def run_script(name, *args, code=0):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, str(REPO / "scripts" / name), *args],
                          capture_output=True, text=True, env=env)
    assert done.returncode == code, done.stderr
    return done.stdout.splitlines() if code == 0 else done.stderr.splitlines()


def test_switch_sweep_prints_one_row_per_candidate():
    lines = run_script("switch_sweep.py", "--candidates", "5,10", "--budget", "2")
    assert lines[0] == "law p_transpose, hardware budget 2"
    assert lines[1].split()[-3:] == ["final", "dB", "advice"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["5", "10"]
    assert all(len(row) == 7 and row[-1] in ("switch", "stay") for row in rows)


@pytest.mark.parametrize("args, message", [
    (["--law", "bogus"], "argument --law: invalid choice: 'bogus'"),
    (["--candidates", "5,0"], "argument --candidates: must be at least 1, got 0"),
    (["--candidates", "5,x"], "argument --candidates: invalid"),
    (["--budget", "-1"], "argument --budget: must be at least 0, got -1"),
])
def test_switch_sweep_rejects_bad_arguments_with_a_usage_error(args, message):
    lines = run_script("switch_sweep.py", *args, code=2)
    assert lines[0].startswith("usage: switch_sweep.py")
    assert lines[-1].startswith(f"switch_sweep.py: error: {message}")
    assert not any("Traceback" in line for line in lines)


def test_reproduce_figures_writes_every_layout(tmp_path):
    lines = run_script("reproduce_figures.py", "--output-dir", str(tmp_path))
    # the marker variants in one law, the plain variants in all three
    assert [line.split()[0] for line in lines] == (
        ["fig2"] + ["fig3"] * 3 + ["fig4"] + ["fig5"] * 3
    )
    for line in lines:
        svg = Path(line.split(": ", 1)[1].split(" (", 1)[0])
        assert svg.parent == tmp_path and svg.exists() and line.endswith(" dB)")
    assert len(list(tmp_path.glob("*.csv"))) == 24


def test_scripts_import_only_the_public_api():
    for script in (REPO / "scripts").glob("*.py"):
        for node in ast.walk(ast.parse(script.read_text())):
            if isinstance(node, ast.ImportFrom) and "liftedilc" in node.module:
                assert node.module == "liftedilc", script.name
                assert not any(a.name.startswith("_") for a in node.names), script.name
