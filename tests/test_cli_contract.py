"""The CLI's exit-code contract, fuzzed over argv drawn from its grammar.

For every argv, ``main`` returns 0, 1 or 2 and lets no exception escape.
A handler's error exits 2 with nothing on stdout; under ``--json`` it is one
JSON object on stderr, otherwise one ``error:`` line. Argparse's own usage
errors are a ``SystemExit(2)`` with plain-text usage on stderr.

Values that size real work (``--runs``, ``--iters``, word length) stay
small: the test is about the contract, not load. ``--runs`` is also drawn
above its ceiling, where it is refused before any work, and numerals past
the digit bound, which are refused as notation errors. The last test is
about load: the largest timed inputs known within one argv string, each run
in a subprocess under a timeout.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timed_plactic import cli
from timed_plactic.cli import _MAX_RUNS, _MAX_STEP_CELLS, main

_digits = st.text("0123456789", min_size=1, max_size=3)
_numerals = st.one_of(
    _digits,
    st.builds("{}.{}".format, _digits, _digits),
    st.builds("{}/{}".format, _digits, _digits),
)
_timed_words = st.lists(
    st.builds("{}^{}".format, st.integers(1, 5), _numerals), max_size=4
).map(" ".join)
_classical_words = st.one_of(
    st.text("123456789", max_size=10),
    st.lists(st.integers(1, 30), max_size=8).map(lambda w: ",".join(map(str, w))),
)
# Numerals past the digit bound, where int() itself would refuse them.
_LONG = "9" * 5000
_words = st.one_of(
    _classical_words,
    _timed_words,
    st.text(max_size=12),
    st.text("0123456789^/., -", max_size=12),
    st.sampled_from([f"1^{_LONG}", f"{_LONG}^1", f"1^1/{_LONG}", f"1,{_LONG}"]),
)

# Integer arguments: zero, negative and huge, plus text argparse refuses.
_numbers = st.integers(-3, 5).map(str) | st.sampled_from(
    [str(10**9), str(10**18), str(10**40), str(-(10**40)), "", "x", "1.5", "1e3"]
)
_small = st.integers(-3, 50).map(str)
# --runs also above its ceiling, where it is a usage error. The values stay
# within ten times the ceiling, so that a lost check costs under a second.
_runs = _small | st.sampled_from([_MAX_RUNS + 1, 10 * _MAX_RUNS]).map(str)

_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    _numerals,
    st.text(max_size=4),
)
_json_keys = st.sampled_from(
    ["rows", "runs", "letter", "dur", "kind", "u_len", "x_len", "y_len", "z_len", "reverse"]
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_json_keys | st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)
_moves = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["k1", "k2", "k3"]),
        "u_len": _numerals | st.integers(-1, 3),
        "x_len": _numerals | st.integers(-1, 3),
        "y_len": _numerals | st.integers(-1, 3),
        "z_len": _numerals | st.integers(-1, 3),
    },
    optional={"reverse": st.booleans() | _json_scalars},
)
_tableaux = st.one_of(
    st.lists(st.lists(st.integers(-1, 6), max_size=4), max_size=3).map(
        lambda rows: {"rows": rows}
    ),
    st.lists(
        st.lists(
            st.fixed_dictionaries({"letter": st.integers(-1, 6), "dur": _numerals}),
            max_size=3,
        ).map(lambda runs: {"runs": runs}),
        max_size=3,
    ).map(lambda rows: {"rows": rows}),
)


@st.composite
def _letter_below_one(draw):
    """Tableau JSON, classical or timed, whose rows are well formed but for
    one or more letters below 1."""
    rows = draw(
        st.lists(st.lists(st.integers(-3, 6), min_size=1, max_size=4), min_size=1, max_size=3)
    )
    i = draw(st.integers(0, len(rows) - 1))
    rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.integers(-3, 0))
    if draw(st.booleans()):
        rows = [{"runs": [{"letter": c, "dur": "1"} for c in row]} for row in rows]
    return {"rows": rows}


_json_texts = st.one_of(
    st.one_of(_json_values, _moves, _tableaux, _letter_below_one()).map(json.dumps),
    st.integers(1, 3000).map(lambda depth: "[" * depth + "]" * depth),
    st.integers(1, 3000).map(lambda depth: '{"rows": ' * depth),
    st.text("{}[]\":,0123456789 ", max_size=20),
    st.sampled_from(
        [f'{{"rows": [[{_LONG}]]}}', f'{{"rows": [{{"runs": [{{"letter": 1, "dur": "1.{_LONG}"}}]}}]}}']
    ),
)

# Relative to a fresh temporary directory; all but the first two fail.
_svg_paths = st.just("out.svg") | st.sampled_from(
    ["ünï cödé.svg", "no such dir/x.svg", "", ".", "a\x00b.svg"]
)


def _flag(name, values):
    """Either nothing or [name, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _switch(name):
    return st.sampled_from([[], [name]])


def _command(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


_argvs = st.one_of(
    _command(st.just(["insert"]), _words.map(lambda w: [w]), _switch("--steps")),
    _command(st.just(["greene"]), _words.map(lambda w: [w]), _switch("--oracle")),
    _command(
        st.just(["equiv"]),
        st.tuples(_words, _words).map(list),
        _flag("--move", _json_texts),
    ),
    _command(
        st.just(["render"]),
        (_words | _json_texts).map(lambda w: [w]),
        _svg_paths.map(lambda p: ["--svg", p]),
        _switch("--tableau"),
        _flag("--scale", _numbers),
    ),
    _command(
        st.just(["random"]),
        _flag("--runs", _runs),
        _flag("--letters", _numbers),
        _flag("--max-den", _numbers),
        _flag("--max-num", _numbers),
        _flag("--seed", _numbers),
    ),
    _command(st.just(["check"]), _flag("--iters", _small), _flag("--seed", _numbers)),
)


@settings(max_examples=300)
@given(argv=_argvs, as_json=st.booleans(), bogus=st.integers(0, 9))
def test_exit_code_contract(argv, as_json, bogus):
    argv = argv + (["--json"] if as_json else []) + (["--bogus"] if bogus == 0 else [])
    # A drawn word "--" ends argparse's options: the "--json" after it is
    # then a positional argument, not the switch.
    as_json = as_json and "--" not in argv
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [
            os.path.join(tmp, a) if i and argv[i - 1] == "--svg" else a
            for i, a in enumerate(argv)
        ]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                assert exc.code == 2
                assert err.getvalue().startswith("usage:")
                return
    assert code in (0, 1, 2)
    if code != 2:
        assert err.getvalue() == ""
        return
    assert out.getvalue() == ""
    if as_json:
        error = json.loads(err.getvalue())["error"]
        assert isinstance(error["type"], str) and isinstance(error["message"], str)
        if any(_LONG in a for a in argv):
            assert error["type"] == "NotationError"
    else:
        assert err.getvalue().startswith("error: ")


@settings(max_examples=100)
@given(data=_letter_below_one(), tableau=_switch("--tableau"))
def test_json_letters_below_one_are_notation_errors(data, tableau):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        svg = os.path.join(tmp, "out.svg")
        argv = ["render", json.dumps(data), "--svg", svg, "--json", *tableau]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert not os.path.exists(svg)
    error = json.loads(err.getvalue())["error"]
    assert error["type"] == "NotationError"
    assert error["message"].startswith("letters must be at least 1, got ")


def _largest_steps_input(extra):
    """The number of letters or runs n whose n(n+1)/2 is at the --steps
    bound, plus extra."""
    n = 0
    while (n + 1) * (n + 2) // 2 <= _MAX_STEP_CELLS:
        n += 1
    return n + extra


@pytest.mark.parametrize("timed", [False, True])
@pytest.mark.parametrize("as_json", [False, True])
def test_steps_past_the_bound_are_refused_before_insertion(monkeypatch, timed, as_json):
    def refuse(*args, **kwargs):
        raise AssertionError("insertion ran before the bound was checked")

    for name in ("insertion_steps", "insertion_tableau",
                 "timed_insertion_steps", "timed_insertion_tableau"):
        monkeypatch.setattr(cli, name, refuse)
    n = _largest_steps_input(1)
    word = " ".join(f"{i % 2 + 1}^1/3" for i in range(n)) if timed else ("12" * n)[:n]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["insert", word, "--steps"] + (["--json"] if as_json else []))
    assert code == 2 and out.getvalue() == ""
    message = json.loads(err.getvalue())["error"]["message"] if as_json else err.getvalue()
    assert "--steps" in message and f"n = {n}" in message
    assert "Traceback" not in err.getvalue()


def test_steps_at_the_bound_run():
    n = _largest_steps_input(0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["insert", "1" * n, "--steps"]) == 0
    assert out.getvalue().count("after letter ") == n
    # The golden --steps case and the benchmark's desk-scale requests
    # (at most 44 letters) stay far below the bound.
    assert 44 * 45 // 2 * 100 < _MAX_STEP_CELLS


def _ribbon_word() -> str:
    """The 8,000 runs with distinct prime denominators from 1009 up that CI
    renders as a ribbon, one letter of 1..7 each: 78,938 bytes."""
    primes, p = [], 1009
    while len(primes) < 8000:
        if all(p % d for d in range(2, isqrt(p) + 1)):
            primes.append(p)
        p += 1
    return " ".join(f"{i % 7 + 1}^1/{p}" for i, p in enumerate(primes))


# The largest timed inputs known within one argv string of Linux's 131,071
# bytes (MAX_ARG_STRLEN). The ribbon's results pass the digit bound; the
# caret blocks, 128,820 bytes, are numerals just under it, each cut short by
# an "x": a search for a long numeral from every position is quadratic on
# them, and a parser that scans on past the first error is slower still.
_AT_ARGV_LIMIT = {
    "ribbon": (_ribbon_word, "exact result needs a numeral of more than 4300 digits"),
    "carets": (lambda: ("1^" + "1" * 4290 + "x ") * 30, "at position 0"),
}


@pytest.mark.parametrize(
    "command", [["insert", "--json"], ["greene", "--json"], ["equiv"]], ids=["insert", "greene", "equiv"]
)
@pytest.mark.parametrize("family", sorted(_AT_ARGV_LIMIT))
def test_timed_words_at_the_argv_limit_exit_2_in_time(command, family):
    make, message = _AT_ARGV_LIMIT[family]
    word = make()
    assert len(word.encode()) <= 131_071
    name, *flags = command
    words = [word, word] if name == "equiv" else [word]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "timed_plactic", name, *words, *flags],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.stderr
    assert message in result.stderr
