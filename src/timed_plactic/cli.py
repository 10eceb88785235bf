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
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Callable, NamedTuple, Sequence

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
from .randomgen import random_timed_word
from .render import render_svg
from .selfcheck import run_checks
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


class _Kind(NamedTuple):
    """What the commands do differently for classical and timed words."""

    insert: Callable
    steps: Callable
    to_dict: Callable
    tableau_text: Callable
    step: str  # what one insertion step inserts
    greene: Callable
    oracle: Callable
    value_json: Callable  # a profile entry in JSON
    value_text: Callable  # a profile entry in text


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
    return "\n".join(map(format_word, t.spelt))


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
    kind = _kind(timed)
    ta, tb = (kind.insert(w) for w in words)
    equivalent = ta == tb
    payload: dict = {"left_tableau": kind.to_dict(ta), "right_tableau": kind.to_dict(tb)}
    if args.move is not None:
        moved = apply_move(words[0], move_from_dict(_load_json(args.move)))
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
    report = run_checks(args.iters, seed)
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


def _fail(args, exc: Exception, code: int) -> int:
    if getattr(args, "json", False):
        error = {"type": type(exc).__name__, "message": str(exc)}
        position = getattr(exc, "position", None)
        if position is not None:
            error["position"] = position
        condition = getattr(exc, "condition", None)
        if condition is not None:
            error["condition"] = condition
        print(json.dumps({"error": error}), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, OracleSizeError, BudgetExceededError) as exc:
        return _fail(args, exc, 2)
