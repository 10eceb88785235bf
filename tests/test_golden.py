"""Golden tests for the CLI: the README's examples, and timed cases whose
durations exercise the integer grid. The README's Python examples run
under ``doctest``.

Each example runs as a fresh ``python -m timed_plactic`` process, in text and
``--json`` form, and its exit code, exact stdout and (for ``render``) the
exact SVG bytes are compared with the files under ``tests/golden/``.

The grid cases cover equal-letter runs that the parser merges
(``1^1/2 1^1/2``), decimals that reduce (``2^0.50``), distinct prime
denominators, and move cuts that fall inside runs, so the pieces get
denominators the word did not have.

Regenerate the files, only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

MOVE = '{"kind":"k2","u_len":"0","x_len":"1","y_len":"1","z_len":"1"}'

# (name, argv in text form, expected exit code, SVG file written or None),
# in README order.
EXAMPLES = [
    ("insert-classical", ["insert", "3421153"], 0, None),
    ("insert-classical-steps", ["insert", "3421153", "--steps"], 0, None),
    ("insert-timed", ["insert", "3^0.82 5^0.08 2^0.45"], 0, None),
    ("greene-oracle", ["greene", "3421153", "--oracle"], 0, None),
    ("greene-timed", ["greene", "1^0.5 2^0.5"], 0, None),
    ("equiv-classical", ["equiv", "3421153", "3245113"], 0, None),
    ("equiv-move", ["equiv", "2^1 1^1 3^1", "2^1 3^1 1^1", "--move", MOVE], 0, None),
    ("render-ribbon", ["render", "3^0.82 5^0.08 2^0.45", "--svg", "ribbon.svg"], 0,
     "ribbon.svg"),
    ("render-tableau",
     ["render", "3^0.82 5^0.08 2^0.45", "--tableau", "--svg", "tableau.svg"], 0,
     "tableau.svg"),
    ("random", ["random", "--runs", "5", "--letters", "4", "--max-den", "4", "--seed", "7"],
     0, None),
    ("check", ["check", "--iters", "50", "--seed", "0"], 0, None),
]

K2_CUT = '{"kind":"k2","u_len":"5/3","x_len":"1/3","y_len":"1/3","z_len":"1/5"}'
K1_CUT = '{"kind":"k1","u_len":"3/2","x_len":"1/2","y_len":"1/7","z_len":"1/7"}'

# Timed cases beyond the README, in the same form.
GRID_EXAMPLES = [
    ("insert-merge", ["insert", "2^1 1^1/2 1^1/2 3^1/3 1^0.25"], 0, None),
    ("greene-decimals", ["greene", "2^0.50 1^0.25 3^1.50 1^0.750", "--oracle"], 0, None),
    ("insert-primes", ["insert", "3^1/7 1^2/11 4^3/13 2^1/17 1^5/19 3^1/23"], 0, None),
    ("greene-primes", ["greene", "3^1/5 1^2/7 4^1/3 2^1/2", "--oracle"], 0, None),
    ("equiv-move-k2-cut",
     ["equiv", "4^1 2^1 1^1/3 3^1", "4^1 2^1 3^1/5 1^1/3 3^4/5", "--move", K2_CUT], 0, None),
    ("equiv-move-k1-cut",
     ["equiv", "2^1 1^1 3^1/7 2^1/3 4^1", "2^1 1^1/2 3^1/7 1^1/2 2^1/3 4^1",
      "--move", K1_CUT], 0, None),
]

CASES = [
    (f"{name}{suffix}", argv + extra, code, svg)
    for name, argv, code, svg in EXAMPLES + GRID_EXAMPLES
    for suffix, extra in (("", []), (".json", ["--json"]))
]


def run_example(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "TIMED_PLACTIC_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "timed_plactic", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("name,argv,code,svg", CASES, ids=[c[0] for c in CASES])
def test_readme_example(name, argv, code, svg, tmp_path):
    proc = run_example(argv, tmp_path)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    if svg is not None:
        assert (tmp_path / svg).read_bytes() == (GOLDEN / svg).read_bytes()


def test_readme_python_examples():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code, svg in CASES:
        proc = run_example(argv, GOLDEN)
        if proc.returncode != code or proc.stderr:
            raise SystemExit(f"{name}: exit {proc.returncode}\n{proc.stderr}")
        (GOLDEN / f"{name}.out").write_text(proc.stdout, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
