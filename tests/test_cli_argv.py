"""The CLI's argv reader, fuzzed against the argparse parser it replaced.

``_build_parser`` below is the parser that ``cli.main`` built on every call
before the command table and its reader took its place, kept unchanged as
the reference. For every argv drawn from the command grammar the two agree
on the outcome: the same command and attribute values; a usage error, exit
2 with ``usage:`` first on stderr; or help, exit 0 with ``usage:`` first on
stdout.

argparse reads two kinds of token differently from one Python version to
the next, so no argv that holds one is compared: a token that starts with
"-h" and goes on ("-hx"), and one that starts like a negative number but is
none ("-1/2"). The reader keeps Python 3.11's reading of both, which
``test_tokens_that_argparse_versions_read_apart`` pins.

One difference is deliberate. argparse drops a "--" that comes after the
first one from an argument that has no other token (``equiv a -- --``,
``--move=--``), and passes an empty list that the handlers cannot read:
``check --iters=--`` ended in a traceback. The reader passes "--" itself,
so the comparison reads argparse's empty list as "--". An option that takes
an integer refuses "--" at once, where argparse read on to a later -h, so
"--" is drawn after "=" only for options that take text.
"""

import argparse
import contextlib
import io
import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from timed_plactic import cli
from timed_plactic.cli import (
    _cmd_check,
    _cmd_equiv,
    _cmd_greene,
    _cmd_insert,
    _cmd_random,
    _cmd_render,
    main,
)

from test_cli_contract import _json_texts, _numbers, _runs, _small, _svg_paths, _words


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timed-plactic",
        description=(
            "Schensted insertion, Knuth equivalence, and Greene invariants "
            "for classical and timed words."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("insert", parents=[common], help="insertion tableau of a word")
    p.add_argument("input", help="classical or timed word")
    p.add_argument("--steps", action="store_true", help="show intermediate tableaux")
    p.set_defaults(handler=_cmd_insert)

    p = sub.add_parser("greene", parents=[common], help="Greene invariant profile")
    p.add_argument("input", help="classical or timed word")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the min-cost flow oracle",
    )
    p.set_defaults(handler=_cmd_greene)

    p = sub.add_parser("equiv", parents=[common], help="decide Knuth equivalence")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument(
        "--move",
        metavar="JSON",
        default=None,
        help="apply this move to the left word and compare with the right",
    )
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("render", parents=[common], help="render an SVG figure")
    p.add_argument("input", help="word, timed word, or tableau JSON")
    p.add_argument("--svg", required=True, metavar="PATH", help="output file")
    p.add_argument(
        "--tableau",
        action="store_true",
        help="render the insertion tableau instead of the ribbon",
    )
    p.add_argument("--scale", type=int, default=100, help="pixels per unit duration")
    p.set_defaults(handler=_cmd_render)

    p = sub.add_parser("random", parents=[common], help="generate a random timed word")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--letters", type=int, default=4)
    p.add_argument("--max-den", type=int, default=4, dest="max_den")
    p.add_argument("--max-num", type=int, default=3, dest="max_num")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_random)

    p = sub.add_parser("check", parents=[common], help="run the self-check suites")
    p.add_argument("--iters", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_check)
    return parser


# Each command: its positional count, its switches and its options that
# take a value, with the values drawn for each.
_GRAMMAR = {
    "insert": (1, ["--json", "--steps"], []),
    "greene": (1, ["--json", "--oracle"], []),
    "equiv": (2, ["--json"], ["--move"]),
    "render": (1, ["--json", "--tableau"], ["--svg", "--scale"]),
    "random": (0, ["--json"], ["--runs", "--letters", "--max-den", "--max-num", "--seed"]),
    "check": (0, ["--json"], ["--iters", "--seed"]),
}
_INT_OPTIONS = {"--scale", "--runs", "--letters", "--max-den", "--max-num", "--seed", "--iters"}
_VALUES = {
    "--move": _json_texts,
    "--svg": _svg_paths,
    "--runs": _runs,
    "--iters": _small,
    **{option: _numbers for option in _INT_OPTIONS - {"--runs", "--iters"}},
}
# Mixed in anywhere, the command's place included; ["--seed", "-3"] is two
# tokens.
_TOKENS = st.sampled_from(
    ["--", "-", "-1", "-1.5", "-1 2", "-x", "--js", "--s", "--json=1", "--seed=-3", "-h",
     "--json", "", "--move"]
).map(lambda token: [token]) | st.sampled_from([["--seed", "-3"], ["-h"], ["--help"]])

# Values and words that start with "-": positionals or options.
_LIKE_OPTIONS = st.sampled_from(
    ["-", "--", "-3", "-1.5", "-.5", "-1 2", "- x", "--x y", "-x", "-h", "--json", "--js", ""]
)

_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's, up to Python 3.12.1


def _read_alike(token: str) -> bool:
    """Whether every argparse from Python 3.10 on reads the token alike."""
    if token.startswith("-h") and len(token) > 2:
        return False
    return not re.match(r"-\.?\d", token) or bool(_NEGATIVE.match(token)) or " " in token


_rarely = st.sampled_from([False] * 9 + [True])


@st.composite
def _argvs(draw):
    name = draw(st.sampled_from(sorted(_GRAMMAR)))
    count, switches, valued = _GRAMMAR[name]
    words = st.one_of(_words, _words, _LIKE_OPTIONS)
    n = draw(st.sampled_from([count] * 4 + [count - 1, count + 1]))
    items = [[draw(words)] for _ in range(n)]
    for option in switches:
        items += [[draw(_prefix(option))] for _ in range(draw(st.integers(0, 2)))]
    for option in valued:
        for _ in range(draw(st.integers(0, 2))):  # a repeat: the last one wins
            spelt = draw(_prefix(option))
            value = draw(st.one_of(_VALUES[option], _VALUES[option], _LIKE_OPTIONS))
            if draw(st.booleans()) and not (value == "--" and option in _INT_OPTIONS):
                items.append([f"{spelt}={value}"])
            else:
                items.append([spelt, value])
    argv = [name] + [token for item in draw(st.permutations(items)) for token in item]
    for tokens in draw(st.one_of(st.just([]), st.lists(_TOKENS, min_size=1, max_size=3))):
        at = 0 if draw(_rarely) else draw(st.integers(1, len(argv)))
        argv[at:at] = tokens
    if draw(_rarely):
        argv.remove(name)
    return argv


def _prefix(option: str):
    """The option, or a prefix of it that may fit other options too."""
    return st.just(option) | st.integers(3, len(option)).map(lambda k: option[:k])


def _outcome(parse, argv):
    """"help", "usage", or the attribute values that ``parse`` returns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = parse(list(argv))
        except SystemExit as exc:
            if exc.code == 0:
                assert out.getvalue().startswith("usage:") and err.getvalue() == ""
                return "help"
            assert exc.code == 2 and out.getvalue() == ""
            assert err.getvalue().startswith("usage:")
            return "usage"
    assert out.getvalue() == err.getvalue() == ""
    return vars(namespace)


def _argparse_outcome(argv):
    outcome = _outcome(_build_parser().parse_args, argv)
    if isinstance(outcome, dict):
        for dest, value in outcome.items():
            if value == []:  # a "--" that argparse dropped: see above
                outcome[dest] = "--"
    return outcome


@settings(max_examples=500, deadline=None)
@given(argv=_argvs())
def test_reader_agrees_with_argparse(argv):
    assume(all(map(_read_alike, argv)))
    assert _outcome(cli._parse_args, argv) == _argparse_outcome(argv)


# One argv or more for each of argparse's rules that the reader keeps.
_RULES = {
    "prefix": [["render", "x", "--sv", "a"], ["render", "x", "--s", "a"], ["insert", "12", "--js"],
               ["random", "--max", "3"], ["random", "--max-d", "3"], ["render", "x", "-h", "--s"]],
    "equals": [["render", "x", "--svg=a", "--sc=3"], ["insert", "12", "--json=1"],
               ["random", "--seed=-3"], ["random", "--seed="]],
    "first double dash": [["insert", "12", "--"], ["insert", "12", "--json", "--"],
                          ["insert", "--", "-h"], ["insert", "--"], ["equiv", "a", "--", "b"],
                          ["equiv", "--", "a", "b"], ["equiv", "a", "b", "--"],
                          ["equiv", "a", "--"], ["equiv", "a", "--json", "--", "b"],
                          ["--", "insert", "12"]],
    "dash positionals": [["insert", "-"], ["insert", "-1"], ["insert", "-1.5"], ["insert", "-1 2"],
                         ["insert", "-x"], ["insert", ""]],
    "values": [["random", "--seed", "-3"], ["random", "--seed", "-x"], ["check", "--iters"],
               ["equiv", "a", "b", "--move"], ["equiv", "a", "b", "--move", "--json"],
               ["check", "--seed", " 4 "], ["check", "--seed", "1_000"]],
    "repeats": [["check", "--iters", "1", "--iters", "2"], ["insert", "1", "--json", "--json"]],
    "command": [[], [""], ["bogus"], ["--json", "insert", "12"], ["--json", "insert", "12", "-h"],
                ["-h", "bogus"], ["bogus", "-h"]],
}


@pytest.mark.parametrize(
    "argv", [argv for argvs in _RULES.values() for argv in argvs], ids=" ".join
)
def test_each_rule_agrees_with_argparse(argv):
    assert _outcome(cli._parse_args, argv) == _argparse_outcome(argv)


@pytest.mark.parametrize(
    "argv, outcome",
    [
        (["insert", "-1/2"], "usage"),  # an unknown option, not a negative number
        (["insert", "-1e3"], "usage"),
        (["insert", "12", "-hx"], "usage"),  # -h with a value
        (["insert", "12", "-h="], "usage"),
        (["insert", "12", "-hh"], "help"),  # -h twice
    ],
)
def test_tokens_that_argparse_versions_read_apart(argv, outcome):
    assert _outcome(cli._parse_args, argv) == outcome


@pytest.mark.parametrize(
    "argv, dest",
    [
        (["equiv", "a", "--", "--"], "right"),
        (["equiv", "--", "--", "a"], "left"),
        (["equiv", "a", "b", "--move=--"], "move"),
        (["insert", "--", "--"], "input"),
    ],
)
def test_a_later_double_dash_is_a_value(argv, dest):
    assert getattr(cli._parse_args(argv), dest) == "--"


@pytest.mark.parametrize("argv", [["check", "--iters=--"], ["random", "--seed=--", "--json"]])
def test_double_dash_for_an_integer_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage:")
    assert "invalid int value: '--'" in captured.err


def test_double_dash_as_a_move_is_a_json_error(capsys):
    assert main(["equiv", "12", "12", "--move=--", "--json"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "NotationError" and error["message"].startswith("bad JSON input")


@pytest.mark.parametrize("command", [None, *_GRAMMAR])
@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_lists_every_option_and_exits_0(capsys, command, flag):
    argv = [flag] if command is None else [command, flag]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    text = captured.out
    assert text.startswith("usage: timed-plactic" + ("" if command is None else f" {command}"))
    if command is None:
        assert all(name in text for name in _GRAMMAR)
    else:
        _, switches, valued = _GRAMMAR[command]
        assert all(option in text for option in ["-h", "--help", *switches, *valued])


def test_a_usage_error_under_json_is_plain_text(capsys):
    with pytest.raises(SystemExit) as info:
        main(["insert", "12", "--bogus", "--json"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0] == "usage: timed-plactic insert [-h] [--json] [--steps] input"
    assert lines[1] == "timed-plactic insert: error: unrecognized arguments: '--bogus'"
