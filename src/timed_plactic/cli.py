"""Command-line interface.

Subcommands: insert, greene, equiv, render, random, check. Classical words
(digit strings or comma-separated integers) are accepted anywhere a timed
word is; inputs containing ``^`` parse as timed words. ``--json`` switches
output to stable JSON (errors then go to stderr as JSON too).

Exit codes: 0 success; 1 failed verification (non-equivalent words, oracle
disagreement, failing checks); 2 parse or usage errors. Each handler builds
its whole output, text or JSON, before it prints any of it, so an error on
the way (a numeral past the digit bound) exits 2 with nothing on stdout.
The environment variable ``TIMED_PLACTIC_SEED`` overrides ``--seed``.

``main`` reads argv from one table of the commands, ``_COMMANDS``, with no
argparse: a usage error prints usage to stderr and exits 2, in plain text
also under ``--json``, and ``-h`` prints help built from the table.

A process pays only for what its command runs: ``check`` and ``random``
load their modules (``selfcheck``, ``randomgen``, ``random``) when they
run, ``fractions`` executes at the first ``Fraction`` built
(:mod:`.timed_words`), and the text grammars compile on first use
(:mod:`.notation`). ``equiv --move`` applies the move before it inserts
either word, so a move that fails its checks exits 2 without inserting.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace
from typing import Callable, Sequence

from .classical import insertion_steps, insertion_tableau
from .errors import BudgetExceededError, NotationError, OracleSizeError, _quote
from .greene import (
    greene_classical,
    greene_classical_oracle,
    greene_timed,
    greene_timed_oracle,
)
from .notation import (
    _json_integer,
    _rational_text,
    format_timed_tableau,
    format_timed_word,
    format_word,
    human_rational,
    move_from_dict,
    parse_word_or_timed,
    tableau_from_dict,
    tableau_to_dict,
    timed_tableau_from_dict,
    timed_tableau_to_dict,
    timed_word_to_dict,
)
from .render import render_svg
from .timed_knuth import apply_move
from .timed_words import TimedWord, embed_classical
from .timed_tableaux import (
    TimedTableau,
    embed_classical_tableau,
    timed_insertion_steps,
    timed_insertion_tableau,
)

# `random` builds its whole word before printing it, so its size is capped:
# the run count, and the run count times the bits of --max-den and --max-num,
# which bounds the bits of the word's grid denominator q and the total bits
# of its printed durations. `check` costs about 1 ms per iteration, so its
# iteration count is capped too. `insert --steps` prints one tableau per
# letter or run, n(n+1)/2 letters or runs in all for n of them, so it is
# capped on that sum. At the cap 631 random digits print in ~0.4 s; the
# decreasing word 631,...,1, whose steps hold as many rows as letters, in
# ~1 s and ~80 MB; and 631 runs with distinct prime denominators in ~2 s
# and ~75 MB.
_MAX_RUNS = 10_000
_MAX_GRID_BITS = 2**17
_MAX_ITERS = 10_000
_MAX_STEP_CELLS = 200_000
# `greene --oracle` cross-checks a timed word only up to this many letters on
# its grid 1/q (length times q); past it the profile prints with a note. The
# oracle's work does not grow with the grid (greene._MAX_FLOW_WORK bounds
# it), so this limit is output policy, not a bound on cost.
_MAX_ORACLE_LETTERS = 500


def _resolve_seed(args) -> int:
    env = os.environ.get("TIMED_PLACTIC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise NotationError(f"TIMED_PLACTIC_SEED must be an integer, got {_quote(env)}")
    return args.seed


def _in_range(flag: str, value: int, low: int, high: int | None = None) -> None:
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{flag} must be at most {high}, got {value}")


def _load_json(text: str):
    try:
        return json.loads(text, parse_int=_json_integer)
    except json.JSONDecodeError as exc:
        raise NotationError(f"bad JSON input: {exc}") from exc
    except RecursionError:
        raise NotationError("bad JSON input: nested too deeply") from None


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False))


# A plain class, as the command table's are: a NamedTuple costs a process
# ~0.15 ms to define.
class _Kind:
    """What the commands do differently for classical and timed words:
    ``step`` is what one insertion step inserts, and ``value_json`` and
    ``value_text`` spell a profile entry in JSON and in text."""

    def __init__(self, insert: Callable, steps: Callable, to_dict: Callable,
                 tableau_text: Callable, step: str, greene: Callable, oracle: Callable,
                 value_json: Callable, value_text: Callable):
        self.insert, self.steps, self.to_dict = insert, steps, to_dict
        self.tableau_text, self.step = tableau_text, step
        self.greene, self.oracle = greene, oracle
        self.value_json, self.value_text = value_json, value_text


def _kind(timed: bool) -> _Kind:
    # Built on every call, so each library function is read from this
    # module's namespace when it is used; tracers rebind them there.
    if timed:
        return _Kind(
            timed_insertion_tableau, timed_insertion_steps, timed_tableau_to_dict,
            format_timed_tableau, "run", greene_timed, _timed_oracle,
            _rational_text, human_rational,
        )
    return _Kind(
        insertion_tableau, insertion_steps, tableau_to_dict,
        _format_tableau, "letter", greene_classical, greene_classical_oracle,
        int, str,
    )


def _format_tableau(t) -> str:
    return "\n".join(map(format_word, t.rows))


def _tableau_text(t, kind: _Kind) -> str:
    return kind.tableau_text(t) or "(empty)"


def _timed_oracle(w: TimedWord, r: int) -> tuple:
    size = sum(w.counts)
    if size > _MAX_ORACLE_LETTERS:
        # str() refuses ints past 4,300 digits; 14,000 bits stay below that
        bits = size.bit_length()
        shown = size if bits <= 14_000 else f"a {bits}-bit number of"
        raise OracleSizeError(
            f"expansion of {shown} letters exceeds the bound of {_MAX_ORACLE_LETTERS}"
        )
    return greene_timed_oracle(w, r)


def _cmd_insert(args) -> int:
    word = parse_word_or_timed(args.input)
    kind = _kind(isinstance(word, TimedWord))
    n = len(word.letters if isinstance(word, TimedWord) else word)
    if args.steps and n * (n + 1) // 2 > _MAX_STEP_CELLS:
        raise ValueError(
            f"--steps prints n(n+1)/2 {kind.step}s for n {kind.step}s, which must be "
            f"at most {_MAX_STEP_CELLS}, got n = {n}"
        )
    steps = kind.steps(word) if args.steps else None
    # The last step is the whole word's tableau; only the empty word has none.
    final = steps[-1] if steps else kind.insert(word)
    if args.json:
        payload = kind.to_dict(final)
        if steps is not None:
            payload["steps"] = [kind.to_dict(s) for s in steps]
        _print_json(payload)
    else:
        lines = []
        for i, s in enumerate(steps or ()):
            lines += [f"after {kind.step} {i + 1}:", _tableau_text(s, kind), ""]
        print(*lines, _tableau_text(final, kind), sep="\n")
    return 0


def _cmd_greene(args) -> int:
    word = parse_word_or_timed(args.input)
    kind = _kind(isinstance(word, TimedWord))
    profile = kind.greene(word)
    mode, agreement, note = "fast", None, None
    if args.oracle:
        try:
            mode, agreement = "both", kind.oracle(word, len(profile)) == profile
        except OracleSizeError as exc:
            note = str(exc)
    payload = {
        "profile": [kind.value_json(x) for x in profile],
        "mode": mode,
        "agreement": agreement,
    }
    if note:
        payload["note"] = note
    if args.json:
        _print_json(payload)
    else:
        lines = [f"profile: {' '.join(map(kind.value_text, profile)) or '(empty)'}",
                 f"mode: {mode}" + (f" (oracle skipped: {note})" if note else "")]
        if agreement is not None:
            lines.append(f"agreement: {str(agreement).lower()}")
        print(*lines, sep="\n")
    return 1 if agreement is False else 0


def _cmd_equiv(args) -> int:
    words = [parse_word_or_timed(args.left), parse_word_or_timed(args.right)]
    timed = args.move is not None or any(isinstance(w, TimedWord) for w in words)
    if timed:
        words = [w if isinstance(w, TimedWord) else embed_classical(w) for w in words]
    if args.move is not None:
        # Read and applied before either word is inserted: a move that
        # fails its checks exits 2 at the cost of the parses.
        moved = apply_move(words[0], move_from_dict(_load_json(args.move)))
    kind = _kind(timed)
    ta, tb = (kind.insert(w) for w in words)
    equivalent = ta == tb
    payload: dict = {"left_tableau": kind.to_dict(ta), "right_tableau": kind.to_dict(tb)}
    if args.move is not None:
        payload["move_result"] = timed_word_to_dict(moved)
        payload["move_reaches_right"] = moved == words[1]
    payload["equivalent"] = equivalent
    ok = equivalent and payload.get("move_reaches_right", True)
    if args.json:
        _print_json(payload)
    else:
        lines = [f"equivalent: {str(equivalent).lower()}",
                 f"left insertion tableau:\n{_tableau_text(ta, kind)}",
                 f"right insertion tableau:\n{_tableau_text(tb, kind)}"]
        if args.move is not None:
            lines += [f"move result: {str(moved) or '(empty)'}",
                      f"move reaches right word: {str(payload['move_reaches_right']).lower()}"]
        print(*lines, sep="\n")
    return 0 if ok else 1


def _cmd_render(args) -> int:
    text = args.input.strip()
    if text.startswith(("{", "[")):
        data = _load_json(text)
        rows = data.get("rows", []) if isinstance(data, dict) else None
        if not isinstance(rows, list):
            raise NotationError('tableau JSON must be an object with a "rows" list')
        if rows and not isinstance(rows[0], dict):
            obj: TimedWord | TimedTableau = embed_classical_tableau(
                tableau_from_dict(data)
            )
        else:
            obj = timed_tableau_from_dict(data)
    else:
        parsed = parse_word_or_timed(text)
        word = parsed if isinstance(parsed, TimedWord) else embed_classical(parsed)
        obj = timed_insertion_tableau(word) if args.tableau else word
    # The scale goes by position: perfbench's tracer counts render_svg calls
    # with a `lambda obj, spec=None` that it passes the caller's arguments.
    svg = render_svg(obj, args.scale)
    with open(args.svg, "w", encoding="utf-8") as handle:
        handle.write(svg)
    if args.json:
        _print_json({"svg": args.svg, "bytes": len(svg.encode())})
    else:
        print(f"wrote {args.svg} ({len(svg.encode())} bytes)")
    return 0


def _cmd_random(args) -> int:
    _in_range("--runs", args.runs, 0, _MAX_RUNS)
    _in_range("--letters", args.letters, 1)
    _in_range("--max-den", args.max_den, 1)
    _in_range("--max-num", args.max_num, 1)
    bits = args.max_den.bit_length() + args.max_num.bit_length()
    if args.runs * bits > _MAX_GRID_BITS:
        raise ValueError(
            "--runs times the bit lengths of --max-den and --max-num together must be "
            f"at most {_MAX_GRID_BITS}, got {args.runs} runs of {bits} bits"
        )
    seed = _resolve_seed(args)
    # Loaded here: no other command draws random numbers.
    import random

    from .randomgen import random_timed_word

    rng = random.Random(seed)
    word = random_timed_word(
        rng,
        runs=args.runs,
        max_letter=args.letters,
        max_den=args.max_den,
        max_num=args.max_num,
    )
    if args.json:
        _print_json(timed_word_to_dict(word))
    else:
        print(format_timed_word(word))
    return 0


def _cmd_check(args) -> int:
    _in_range("--iters", args.iters, 0, _MAX_ITERS)
    seed = _resolve_seed(args)
    # Loaded here, and run_checks read from the module when it is called,
    # so that a tracer that rebinds the module's attribute sees the call.
    from . import selfcheck

    report = selfcheck.run_checks(args.iters, seed)
    if args.json:
        _print_json(report)
    else:
        lines = [f"seed {report['seed']}, {report['iterations']} iterations per suite"]
        lines += [f"  {suite['name']}: {suite['pass']} passed, {suite['fail']} failed"
                  for suite in report["suites"]]
        if "witness" in report:
            lines.append("first failure: {suite}, seed {seed}, iteration {iteration}, word '{word}'"
                         .format(**report["witness"]))
        lines.append("all checks passed" if report["ok"] else "CHECK FAILURES")
        print(*lines, sep="\n")
    return 0 if report["ok"] else 1


# The table's two classes are plain classes: each NamedTuple costs a process
# ~0.15 ms to define.
class _Option:
    """An option of the command table: a switch when ``value`` is None,
    otherwise an option that takes one value and converts it with
    ``value``."""

    def __init__(self, help: str, value: Callable | None = None, default=None,
                 metavar: str = "", required: bool = False):
        self.help, self.value, self.default = help, value, default
        self.metavar, self.required = metavar, required


class _Command:
    """A command: its handler, its help line, its positionals (name ->
    help, each taking one token, in this order) and its options (option ->
    _Option, in the order that help lists them)."""

    def __init__(self, handler: Callable, help: str, positionals: dict, options: dict):
        self.handler, self.help = handler, help
        self.positionals, self.options = positionals, options


_PROG = "timed-plactic"
_ABOUT = ("Schensted insertion, Knuth equivalence, and Greene invariants for\n"
          "classical and timed words.")
_HELP = _Option("show this help message and exit")
_MAIN = {"-h": _HELP, "--help": _HELP}  # the options before the command
_JSON = {"--json": _Option("emit JSON output")}
_WORD = "classical or timed word"
_SEED = "random seed; TIMED_PLACTIC_SEED overrides it"

# The six commands: what ``main`` reads from argv, and the handler it runs.
# Every command also takes -h and --help.
_COMMANDS = {
    "insert": _Command(_cmd_insert, "insertion tableau of a word", {"input": _WORD}, {
        **_JSON,
        "--steps": _Option("show intermediate tableaux"),
    }),
    "greene": _Command(_cmd_greene, "Greene invariant profile", {"input": _WORD}, {
        **_JSON,
        "--oracle": _Option("cross-check against the min-cost flow oracle"),
    }),
    "equiv": _Command(_cmd_equiv, "decide Knuth equivalence", {"left": _WORD, "right": _WORD}, {
        **_JSON,
        "--move": _Option("apply this move to the left word and compare with the right",
                          str, metavar="JSON"),
    }),
    "render": _Command(_cmd_render, "render an SVG figure",
                       {"input": "word, timed word, or tableau JSON"}, {
        **_JSON,
        "--svg": _Option("output file", str, metavar="PATH", required=True),
        "--tableau": _Option("render the insertion tableau instead of the ribbon"),
        "--scale": _Option("pixels per unit duration", int, 100),
    }),
    "random": _Command(_cmd_random, "generate a random timed word", {}, {
        **_JSON,
        "--runs": _Option("number of runs", int, 5),
        "--letters": _Option("largest letter", int, 4),
        "--max-den": _Option("largest denominator of a duration", int, 4),
        "--max-num": _Option("largest numerator of a duration", int, 3),
        "--seed": _Option(_SEED, int, 0),
    }),
    "check": _Command(_cmd_check, "run the self-check suites", {}, {
        **_JSON,
        "--iters": _Option("iterations per suite", int, 25),
        "--seed": _Option(_SEED, int, 0),
    }),
}


# The argv reader. It accepts and refuses the argv that argparse accepted
# and refused when it read this table, as Python 3.11's argparse did: a
# unique prefix of a long option is that option; --opt=value gives a value;
# the first "--" ends the options; a token that starts with "-" is a
# positional when it is "-" alone, looks like a negative number or holds a
# space; an option that takes a value takes the next token unless that
# looks like an option; the last repeat of an option wins. One difference:
# a "--" after the first is the value "--", where argparse gave an empty
# list that the handlers could not read.

# argparse's test for a token that looks like a negative number; re compiles
# it on first use, which most commands never reach.
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"


class _UsageError(Exception):
    """Bad argv; ``command`` names the command whose usage is shown."""

    def __init__(self, message: str, command: str | None = None):
        super().__init__(message)
        self.command = command


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def _spelt(option: str, spec: _Option) -> str:
    return option if spec.value is None else f"{option} {spec.metavar or _dest(option).upper()}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: {_PROG} [-h] {{{','.join(_COMMANDS)}}} ...\n"
    cmd = _COMMANDS[command]
    parts = [_spelt(o, s) if s.required else f"[{_spelt(o, s)}]" for o, s in cmd.options.items()]
    return f"usage: {_PROG} {command} [-h] {' '.join(parts + list(cmd.positionals))}\n"


def _help(command: str | None) -> str:
    """The text that -h prints: usage, what the command does, and a line
    for each argument."""
    options = [("-h, --help", _HELP.help)]
    if command is None:
        about = _ABOUT
        sections = {"commands": [(name, cmd.help) for name, cmd in _COMMANDS.items()]}
    else:
        cmd = _COMMANDS[command]
        about = cmd.help
        sections = {"positional arguments": list(cmd.positionals.items())}
        options += [(_spelt(o, s), s.help + (f" (default: {s.default})" if s.value is int else ""))
                    for o, s in cmd.options.items()]
    sections["options"] = options
    width = max(len(left) for rows in sections.values() for left, _ in rows) + 2
    blocks = [_usage(command), about + "\n"]
    blocks += [f"{title}:\n" + "".join(f"  {left:<{width}}{right}\n" for left, right in rows)
               for title, rows in sections.items() if rows]
    return "\n".join(blocks)


def _read_option(token: str, options: dict, command: str | None):
    """How a token before the first ``--`` reads: None for a positional,
    otherwise (option, explicit value or None); the option is None when no
    option of ``options`` matches."""
    if not token.startswith("-") or token == "-":
        return None
    if token in options:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return name, value
    if token[1] == "-":
        matches = [o for o in options if o.startswith(name)]
        explicit = value if eq else None
    else:  # -h is the one short option, and "-hVALUE" gives it a value
        matches = [token[:2]] if token[:2] in options else []
        explicit = token[2:]
    if len(matches) > 1:
        raise _UsageError(
            f"ambiguous option: {_quote(token)} could match {', '.join(matches)}", command
        )
    if matches:
        return matches[0], explicit
    if re.match(_NEGATIVE, token) or " " in token:
        return None
    return None, None


def _switch(option: str, explicit: str | None, command: str | None) -> None:
    """Take a switch: -h and --help print help and exit 0. A switch takes
    no value, but "-hh" reads as -h twice."""
    if explicit is not None and (option.startswith("--") or not explicit or explicit.strip("h")):
        raise _UsageError(
            f"argument {option}: ignored explicit argument {_quote(explicit)}", command
        )
    if option in _MAIN:
        sys.stdout.write(_help(command))
        raise SystemExit(0)


def _read_command(command: str, tokens: list[str]) -> dict:
    """The values of ``command``'s arguments in ``tokens``, the argv after
    the command. Every token is read before any is taken, so an ambiguous
    prefix is an error even after -h; then tokens are taken left to right,
    so that -h wins over an error that a later token would raise."""
    cmd = _COMMANDS[command]
    options = {**_MAIN, **cmd.options}
    n = len(tokens)
    end = tokens.index("--") if "--" in tokens else n
    kinds = [_read_option(t, options, command) for t in tokens[:end]] + [None] * (n - end)
    values = {_dest(o): s.default if s.value else False for o, s in cmd.options.items()}
    waiting = list(cmd.positionals)
    given, extras = set(), []
    i = 0
    while i < n:
        if kinds[i] is None:
            # The tokens up to the next option: each waiting positional
            # takes the next of them but the first "--", which goes with a
            # positional taken on either side of it. The rest are left over.
            j = i
            while j < n and kinds[j] is None:
                j += 1
            taken = [k for k in range(i, j) if k != end][: len(waiting)]
            for name, k in zip(waiting, taken):
                values[name] = tokens[k]
            del waiting[: len(taken)]
            stop = taken[-1] + 1 + (taken[-1] + 1 == end) if taken else i
            extras += tokens[stop:j]
            i = j
            continue
        option, explicit = kinds[i]
        i += 1
        if option is None:
            extras.append(tokens[i - 1])
            continue
        spec = options[option]
        given.add(option)
        if spec.value is None:
            _switch(option, explicit, command)
            values[_dest(option)] = True
            continue
        if explicit is None:
            if i == end or kinds[i] is not None:  # also at the end of argv
                raise _UsageError(f"argument {option}: expected one argument", command)
            explicit = tokens[i]
            i += 1
        try:
            values[_dest(option)] = spec.value(explicit)
        except ValueError:
            raise _UsageError(
                f"argument {option}: invalid int value: {_quote(explicit)}", command
            ) from None
    missing = waiting + [o for o, s in cmd.options.items() if s.required and o not in given]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}", command)
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(map(_quote, extras))}", command)
    return values


def _parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command, its handler and one attribute per argument. A usage
    error prints usage and the error to stderr and exits 2."""
    argv = list(argv)
    try:
        extras = []
        for i, token in enumerate(argv):
            kind = None if token == "--" else _read_option(token, _MAIN, None)
            if kind is None:
                break
            if kind[0] is None:
                extras.append(token)
            else:
                _switch(*kind, None)
        else:
            raise _UsageError("the following arguments are required: command")
        if token not in _COMMANDS:
            raise _UsageError(
                f"invalid command {_quote(token)} (choose from {', '.join(_COMMANDS)})"
            )
        values = _read_command(token, argv[i + 1:])
        if extras:
            raise _UsageError(f"unrecognized arguments: {' '.join(map(_quote, extras))}", token)
    except _UsageError as exc:
        prog = _PROG if exc.command is None else f"{_PROG} {exc.command}"
        sys.stderr.write(f"{_usage(exc.command)}{prog}: error: {exc}\n")
        raise SystemExit(2) from None
    return SimpleNamespace(command=token, handler=_COMMANDS[token].handler, **values)


def _fail(args, exc: Exception, code: int) -> int:
    if getattr(args, "json", False):
        error = {"type": type(exc).__name__, "message": str(exc)}
        for name in ("position", "condition"):
            value = getattr(exc, name, None)
            if value is not None:
                error[name] = value
        print(json.dumps({"error": error}), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, OracleSizeError, BudgetExceededError) as exc:
        return _fail(args, exc, 2)
