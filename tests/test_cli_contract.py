"""The CLI's exit-code contract, fuzzed over argv drawn from its grammar.

For every argv, ``main`` returns 0, 1 or 2 and lets no exception escape.
A handler's error exits 2 with nothing on stdout; under ``--json`` it is one
JSON object on stderr, otherwise one ``error:`` line. A usage error of the
argv reader is a ``SystemExit(2)`` with plain-text usage on stderr.

Values that size real work (``--runs``, ``--iters``, word length) stay
small: the test is about the contract, not load. ``--runs`` is also drawn
above its ceiling, where it is refused before any work, and numerals past
the digit bound, which are refused as notation errors. The argv-limit
tests are about load: the largest timed inputs and digit strings known
within one argv string, each run in a subprocess under a timeout. So are
the errors whose message quotes a word with numerals longer than the
interpreter writes, or print a sum too long to write: each keeps its own
type and condition. So are the two one-column families at the ``--steps``
bound, decreasing letters and decreasing runs, which pass the most rows.
"""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
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

# Integer arguments: zero, negative and huge, plus text that int() refuses.
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


def _asks_for_help(token: str) -> bool:
    """-h, -h repeated as in -hh, or a prefix of --help of at least --h."""
    if re.fullmatch(r"-h+", token):
        return True
    return len(token) > 2 and "--help".startswith(token)


@settings(max_examples=300)
@given(argv=_argvs, as_json=st.booleans(), bogus=st.integers(0, 9))
@example(argv=["insert", "-h"], as_json=False, bogus=0)
def test_exit_code_contract(argv, as_json, bogus):
    argv = argv + (["--json"] if as_json else []) + (["--bogus"] if bogus == 0 else [])
    # A drawn word "--" ends the options: the "--json" after it is
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
            except SystemExit as exc:  # usage errors, or help
                if exc.code == 0:
                    assert any(map(_asks_for_help, argv))
                    assert out.getvalue().startswith("usage:")
                    assert err.getvalue() == ""
                    return
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
    result = _run_module([name, *words, *flags])
    assert result.returncode == 2 and result.stdout == ""
    assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.stderr
    assert message in result.stderr


def _run_module(argv):
    """``python -m timed_plactic`` on argv in a subprocess, under 30 s."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run(
        [sys.executable, "-m", "timed_plactic", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )


def _digit_string() -> str:
    """131,071 random letters 1..9 (seed 1): the longest classical word one
    argv string holds."""
    rng = random.Random(1)
    return "".join(str(rng.randint(1, 9)) for _ in range(131_071))


# The digit-string half of the audit: every command on the longest digit
# string W, and equiv --move on the ribbon R, whose tableau JSON passes the
# digit bound before the move is applied. W's insert --steps passes the
# --steps bound; the rest of W's commands run to the end.
_MOVE = json.dumps({"kind": "k1", "u_len": "0", "x_len": "1/1009", "y_len": "1/1013",
                    "z_len": "1/1019"})
_DIGIT_AUDIT = {
    "insert-json": (["insert", "W", "--json"], 0),
    "greene": (["greene", "W"], 0),
    "greene-oracle": (["greene", "W", "--oracle"], 0),
    "equiv": (["equiv", "W", "W"], 0),
    "render": (["render", "W", "--svg", "SVG"], 0),
    "render-tableau": (["render", "W", "--tableau", "--svg", "SVG"], 0),
    "insert-steps": (["insert", "W", "--steps"], 2),
    "equiv-move-ribbon": (["equiv", "R", "R", "--move", _MOVE], 2),
}


@pytest.mark.parametrize("name", list(_DIGIT_AUDIT))
def test_digit_strings_at_the_argv_limit_finish_in_time(tmp_path, name):
    argv, code = _DIGIT_AUDIT[name]
    words = {"W": _digit_string, "R": _ribbon_word, "SVG": lambda: str(tmp_path / "out.svg")}
    argv = [words[a]() if a in words else a for a in argv]
    assert all(len(a.encode()) <= 131_071 for a in argv)
    result = _run_module(argv)
    assert result.returncode == code and "Traceback" not in result.stderr
    if code:
        assert result.stdout == "" and len(result.stderr.splitlines()) == 1
    else:
        assert result.stdout and result.stderr == ""


# Text outputs that pass the digit bound only part way through: the first
# step of insert --steps fits and the second needs a denominator of 5,001
# digits; equiv's verdict line fits and the decimal of 1/2^13000 needs
# 13,000 digits (its JSON form 1/2^13000 fits, so --json exits 0).
_A, _B = 10**2500 + 1, 10**2500 + 3
_LATE_TEXT_ERRORS = {
    "insert-steps": ["insert", f"2^1/{_A} 1^1/{_B}", "--steps"],
    "equiv": ["equiv", f"1^1/{2**13000}", f"1^1/{2**13000}"],
}


@pytest.mark.parametrize("name", sorted(_LATE_TEXT_ERRORS))
def test_text_error_late_in_the_output_prints_nothing(name):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_LATE_TEXT_ERRORS[name])
    assert code == 2 and out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("error: ")


# Errors whose message quotes a word with numerals of 4,001 digits: str()
# of such an integer raises ValueError on interpreters that limit it, and
# the quote must not let that replace the error being raised.
_C, _D = 10**4000 + 1, 10**4000 + 3
_LONG_QUOTES = {
    "equiv-move": (
        ["equiv", "2^1 1^1", "2^1 1^1", "--json", "--move",
         json.dumps({"kind": "k1", "u_len": "0", "x_len": "1", "z_len": f"1/{_C}",
                     "y_len": f"1/{_D}"})],
        "InvalidMoveError", "xyz-not-a-row",
    ),
    "render": (
        ["render", json.dumps({"rows": [{"runs": [
            {"letter": 2, "dur": f"1/{_C}"}, {"letter": 2, "dur": f"1/{_D}"},
            {"letter": 1, "dur": "1"}]}]}), "--svg", "SVG", "--json"],
        "InvalidTableauError", None,
    ),
}


@pytest.mark.parametrize("name", sorted(_LONG_QUOTES))
def test_error_quoting_a_long_numeral_keeps_its_type(tmp_path, name):
    argv, kind, condition = _LONG_QUOTES[name]
    svg = tmp_path / "out.svg"
    result = _run_module([str(svg) if a == "SVG" else a for a in argv])
    assert result.returncode == 2 and result.stdout == "" and not svg.exists()
    error = json.loads(result.stderr)["error"]
    assert error["type"] == kind and error.get("condition") == condition
    assert "Exceeds the limit" not in error["message"]
    assert "set_int_max_str_digits" not in error["message"]


# Errors whose message prints a sum: each denominator below has 4,001
# digits, so the sum's has about 8,000, past what str() writes on
# interpreters that limit it. The message must keep the error's own type and
# condition, with a placeholder in place of the numeral.
_LONG_SUMS = {
    "render-longer-row": (
        ["render", json.dumps({"rows": [
            {"runs": [{"letter": 1, "dur": f"1/{_C}"}, {"letter": 2, "dur": f"1/{_D}"}]},
            {"runs": [{"letter": 3, "dur": "1"}]}]}), "--svg", "SVG", "--json"],
        "InvalidTableauError", None, "row 1 is longer than row 0 (1 > ",
    ),
    "equiv-move-out-of-range": (
        ["equiv", "1^1", "1^1", "--json", "--move",
         json.dumps({"kind": "k1", "u_len": "0", "x_len": "1", "z_len": f"1/{_C}",
                     "y_len": f"1/{_D}"})],
        "InvalidMoveError", "cuts-out-of-range", "move region [0, ",
    ),
}


@pytest.mark.parametrize("name", sorted(_LONG_SUMS))
def test_error_printing_a_long_sum_keeps_its_type(tmp_path, name):
    argv, kind, condition, start = _LONG_SUMS[name]
    svg = tmp_path / "out.svg"
    result = _run_module([str(svg) if a == "SVG" else a for a in argv])
    assert result.returncode == 2 and result.stdout == "" and not svg.exists()
    error = json.loads(result.stderr)["error"]
    assert error["type"] == kind and error.get("condition") == condition
    assert error["message"].startswith(start)
    assert "Exceeds the limit" not in error["message"]


# The incremental callers of the run kernel at the --steps bound, on words
# whose tableau is one column: each step passes its letter or run through
# every row, n(n + 1)/2 row passes in all, so a cost per row pass that grows
# with the alphabet shows here. In a child process on a 2-vCPU host the 631
# letters take about 1 s and the 630 runs, on a grid of 276 digits, about
# 3 s.
_DECREASING_STEPS = {
    "letters": lambda: ",".join(str(x) for x in range(631, 0, -1)),
    "runs": lambda: " ".join(f"{x}^1/{x + 1}" for x in range(630, 0, -1)),
}


@pytest.mark.parametrize("name", sorted(_DECREASING_STEPS))
def test_decreasing_steps_at_the_bound_finish_in_time(name):
    result = _run_module(["insert", _DECREASING_STEPS[name](), "--steps", "--json"])
    assert result.returncode == 0 and result.stderr == ""
    out = json.loads(result.stdout)
    n = len(out["steps"])
    assert n == (631 if name == "letters" else 630)
    assert out["steps"][-1]["rows"] == out["rows"] and len(out["rows"]) == n
