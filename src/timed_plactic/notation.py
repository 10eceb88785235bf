"""Textual and JSON notation.

Text grammar:
  - classical word: a string of digits when letters stay below 10
    (``3421153``), or comma-separated integers (``12,3,11``);
  - timed word: ``<letter>^<duration>`` tokens, whitespace optional between
    them, where a duration is a decimal numeral (``12``, ``0.45``, ``3.25``)
    or a fraction ``p/q``. Without whitespace, a token's duration is the
    longest numeral after which the rest of the text is empty, whitespace,
    or starts a new ``<letter>^`` token: ``1^1/23^2`` reads as
    ``1^1/2 3^2``, ``1^12^3`` as ``1^1 2^3`` and ``3^0.825^0.08`` as
    ``3^0.82 5^0.08``.

JSON schemas:
  - classical tableau: ``{"rows": [[1,1,3],[2,4,5],[3]]}``;
  - timed word: ``{"runs": [{"letter": 3, "dur": "41/50"}, ...]}``;
  - timed tableau: ``{"rows": [<timed word>, ...]}``, top row first;
  - move: ``{"kind": "k2", "u_len": "...", "x_len": "...", "y_len": "...",
    "z_len": "...", "reverse": false}`` with rational strings.

Durations parse to exact rationals: ``0.82`` means 82/100 reduced, never a
binary float. One helper reads a numeral's matched digits as a numerator
and a denominator, and ``parse_duration`` makes a ``Fraction`` of them.
``parse_timed_word`` builds no ``Fraction``, and no match object per run:
one ``findall`` returns every run's digit groups, and the pattern's last
alternative takes the rest of the text from the first token that is not a
run, so the scan stops there. Each run is converted and checked as it is
read; only a token that fails is found again, by ``finditer``, to give its
error a message and a position. The counts go on the grid of one lcm,
equal neighbours merge and the word is built without a second check.
``timed_word_to_dict`` writes each count n as n/q reduced by one gcd. The
tableau writers read the grid, not the rows: a timed tableau's JSON takes
one gcd per run against the tableau's q, and a classical tableau's rows are
its runs spelt out, so neither builds a row word.
JSON letters must be JSON integers, durations JSON strings or integers,
and a move's ``reverse`` a JSON boolean; anything else is a
``NotationError``. Digits are ASCII digits only, and no numeral may run past
4,300 digits (``_MAX_DIGITS``), in input or in output: an exact result that
would need a longer numeral is a ``NotationError`` too, whatever limit the
interpreter puts on ``str()`` of an integer.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import NoReturn

from .classical import Tableau, Word
from .errors import NotationError, _quote
from .timed_knuth import SOURCE_ORDER, TimedKnuthMove
from .timed_words import TimedWord, _merged, normalize
from .timed_tableaux import TimedTableau

# A duration numeral: p/q, a decimal a.b or an integer. Its five groups are
# p, q, a, b and the integer. Digits are ASCII only: \d would also match
# other scripts' digits, and re.ASCII would narrow \s as well.
_NUMERAL = r"(?:([0-9]+)/([0-9]+)|([0-9]+)\.([0-9]+)|([0-9]+))"
_DURATION_RE = re.compile(_NUMERAL)
# A timed word's tokens: a run <letter>^<numeral>, whose lookahead lets
# adjacent runs like 3^0.825^0.08 split unambiguously (the numeral
# backtracks until the rest starts a new <letter>^ token), or, in the last
# group, the rest of the text from the first non-space character where no
# run starts. Taking the rest makes findall stop at the first error, as a
# reading run by run does, instead of scanning on past it.
_TOKEN_RE = re.compile(rf"([0-9]+)\^{_NUMERAL}(?=\s|[0-9]+\^|$)|(\S[\s\S]*)")
# int() refuses more than 4,300 digits by default, a limit that varies with
# the interpreter. Refusing every longer run of digits and decimal points
# before anything is converted gives one verdict everywhere. A window starts
# only where a run of digits and points does: a longer run that starts
# earlier holds the whole window too, so the first hit is the same, and no
# position is scanned twice.
_MAX_DIGITS = 4300
_LONG_DIGITS_RE = re.compile(rf"(?<![0-9.])[0-9.]{{{_MAX_DIGITS + 1}}}")
# The same bound on output: a value whose numerator or denominator reaches
# this has more than _MAX_DIGITS digits, which str() may refuse to write.
_TOO_LONG = 10**_MAX_DIGITS


def _check_digits(text: str, at: int | None = 0) -> None:
    """Refuse a run past the digit bound; text starts at ``at`` in the input."""
    m = _LONG_DIGITS_RE.search(text)
    if m:
        position = None if at is None else at + m.start()
        raise NotationError(f"numeral of more than {_MAX_DIGITS} digits", position)


def _json_integer(digits: str) -> int:
    """A JSON integer, within the digit bound."""
    _check_digits(digits, None)
    return int(digits)


def _numeral(p, q, whole, frac, integer, text: str) -> tuple[int, int]:
    """The exact value of a numeral, as a numerator and a denominator (not
    reduced) read from its matched digit groups."""
    if p is not None:
        den = int(q)
        if not den:
            raise NotationError(f"zero denominator in {_quote(text)}")
        return int(p), den
    if whole is not None:
        return int(whole + frac), 10 ** len(frac)
    return int(integer), 1


def _refuse_long_result():
    raise NotationError(f"exact result needs a numeral of more than {_MAX_DIGITS} digits")


def _rational_text(d: Fraction) -> str:
    """``str(d)``, refused past the digit bound with the same verdict on
    every interpreter."""
    if not -_TOO_LONG < d.numerator < _TOO_LONG > d.denominator:
        _refuse_long_result()
    return str(d)


def parse_duration(text: str) -> Fraction:
    """Parse a decimal numeral or p/q fraction into an exact Fraction."""
    m = _DURATION_RE.fullmatch(text.strip())
    if not m:
        raise NotationError(f"not a duration: {_quote(text)}")
    _check_digits(m.group(), None)
    return Fraction(*_numeral(*m.groups(), text))


def format_duration(d: Fraction) -> str:
    """Exact decimal string when the denominator divides a power of 10
    (``41/50`` renders as ``0.82``), otherwise ``p/q``."""
    rest = d.denominator
    e2 = e5 = 0
    while rest % 2 == 0:
        rest //= 2
        e2 += 1
    while rest % 5 == 0:
        rest //= 5
        e5 += 1
    if rest != 1:
        return _rational_text(d)
    digits = max(e2, e5)
    scaled = abs(d.numerator) * 10**digits // d.denominator
    if scaled >= _TOO_LONG:
        _refuse_long_result()
    sign = "-" if d.numerator < 0 else ""
    if digits == 0:
        return f"{sign}{scaled}"
    text = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def human_rational(d: Fraction) -> str:
    """Human-readable rendering: exact decimal when one exists, otherwise the
    fraction with an approximation marked inexact."""
    text = format_duration(d)
    if "/" not in text:
        return text
    try:
        approx = f"{float(d):.6g}"
    except OverflowError:
        # Beyond the float range: divide in decimal instead.
        from decimal import Decimal

        approx = f"{Decimal(d.numerator) / d.denominator:.6g}"
    return f"{text} (≈{approx})"


def parse_timed_word(text: str) -> TimedWord:
    """Parse the timed-word grammar; errors carry the offending position.

    One ``findall`` reads every run's digit groups. Each run is checked as it
    is converted, its counts then go on the grid of their lcm, and equal
    neighbours merge (``1^1 1^1/2`` is ``1^3/2``), so the word is built in
    normal form without a second check."""
    _check_digits(text)
    runs: list[tuple[int, int, int]] = []
    for letter, p, q, whole, frac, integer, rest in _TOKEN_RE.findall(text):
        if rest:
            _token_error(text, len(runs))
        letter = int(letter)
        if p:
            num, den = int(p), int(q)
        elif whole:
            num, den = int(whole + frac), 10 ** len(frac)
        else:
            num, den = int(integer), 1
        if letter < 1 or not den or not num:
            _token_error(text, len(runs))
        runs.append((letter, num, den))
    grid = lcm(*(den for _, _, den in runs))
    return _merged(((c, num * (grid // den)) for c, num, den in runs), grid)


def _token_error(text: str, i: int) -> NoReturn:
    """Raise the error of token ``i`` of a timed word, the first one that
    fails: a letter below 1, then a zero denominator, then a zero duration."""
    m = next(islice(_TOKEN_RE.finditer(text), i, None))
    if m[7] is not None:
        raise NotationError("expected <letter>^<duration>", m.start())
    if int(m[1]) < 1:
        raise NotationError("letters must be at least 1", m.start())
    at = m.end(1) + 1
    _numeral(*m.group(2, 3, 4, 5, 6), text[at:m.end()])  # raises on a zero denominator
    raise NotationError("durations must be positive", at)


def format_timed_word(w: TimedWord) -> str:
    return " ".join(f"{c}^{format_duration(d)}" for c, d in w.runs)


def parse_word(text: str) -> Word:
    """Parse a classical word: digit string or comma-separated integers."""
    s = text.strip()
    if not s:
        return ()
    if "," in s:
        _check_digits(text)
        letters = []
        for part in s.split(","):
            part = part.strip()
            if not (part.isascii() and part.isdigit()):
                raise NotationError(f"not a letter: {_quote(part)}")
            value = int(part)
            if value < 1:
                raise NotationError(f"letters must be at least 1, got {_quote(part)}")
            letters.append(value)
        return tuple(letters)
    if s.isascii() and s.isdigit():
        if "0" in s:
            raise NotationError("digit-string words cannot contain the letter 0")
        return tuple(int(ch) for ch in s)
    raise NotationError(f"not a word: {_quote(text)}")


def format_word(w: Word) -> str:
    if not w:
        return ""
    if max(w) <= 9:
        return "".join(map(str, w))
    return ",".join(map(str, w))


def parse_word_or_timed(text: str) -> Word | TimedWord:
    """Classify input by the presence of '^': timed words carry durations."""
    if "^" in text:
        return parse_timed_word(text)
    return parse_word(text)


def _runs_json(letters, counts, q: int) -> dict:
    # The JSON of the runs whose counts lie on the grid 1/q: each count n is
    # n/q reduced by one gcd. A tableau row passes its tableau's q, which may
    # be a multiple of the row's own smallest q; n/q reduces to the same
    # fraction on either grid. Durations are positive: one chained
    # comparison per run keeps each numeral within the digit bound.
    runs = []
    for c, n in zip(letters, counts):
        g = gcd(n, q)
        num, den = n // g, q // g
        if not den < _TOO_LONG > num:
            _refuse_long_result()
        runs.append({"letter": c, "dur": f"{num}/{den}" if den > 1 else str(num)})
    return {"runs": runs}


def timed_word_to_dict(w: TimedWord) -> dict:
    return _runs_json(w.letters, w.counts, w.q)


def _json_letter(value) -> int:
    # JSON integers only: int() would read 1.5 as 1 and true as 1.
    if type(value) is not int:
        raise NotationError(f"letters must be JSON integers, got {_quote(value)}")
    if value < 1:
        raise NotationError(f"letters must be at least 1, got {_quote(value)}")
    return value


def _json_duration(value) -> Fraction:
    # JSON strings and integers only: a JSON number with a fraction part is
    # already a rounded float, so 0.10000000000000001 would read as 1/10.
    if type(value) not in (str, int):
        raise NotationError(f"durations must be JSON strings or integers, got {_quote(value)}")
    return parse_duration(str(value))


def timed_word_from_dict(data: dict) -> TimedWord:
    try:
        raw = data["runs"]
        runs = []
        for entry in raw:
            dur = _json_duration(entry["dur"])
            if not dur.numerator:
                raise NotationError(f"durations must be positive, got {_quote(entry['dur'])}")
            runs.append((_json_letter(entry["letter"]), dur))
    except (KeyError, TypeError) as exc:
        raise NotationError(f"bad timed-word JSON: {exc}") from exc
    return normalize(runs)


def tableau_to_dict(t: Tableau) -> dict:
    rows = []
    for letters, counts in t.grid:
        row: list[int] = []
        for c, n in zip(letters, counts):
            row += [c] * n
        rows.append(row)
    return {"rows": rows}


def tableau_from_dict(data: dict) -> Tableau:
    try:
        rows = tuple(tuple(_json_letter(x) for x in row) for row in data["rows"])
    except (KeyError, TypeError) as exc:
        raise NotationError(f"bad tableau JSON: {exc}") from exc
    return Tableau(rows)


def timed_tableau_to_dict(t: TimedTableau) -> dict:
    return {"rows": [_runs_json(*row, t.q) for row in t.grid]}


def timed_tableau_from_dict(data: dict) -> TimedTableau:
    try:
        rows = tuple(timed_word_from_dict(row) for row in data["rows"])
    except (KeyError, TypeError) as exc:
        raise NotationError(f"bad timed-tableau JSON: {exc}") from exc
    return TimedTableau(rows)


def format_timed_tableau(t: TimedTableau) -> str:
    return "\n".join(format_timed_word(row) for row in t.rows)


def move_to_dict(m: TimedKnuthMove) -> dict:
    order = SOURCE_ORDER[m.kind, m.reverse]
    lens = dict(zip(order, m.cuts))
    out = {
        "kind": m.kind,
        "u_len": _rational_text(m.position),
        "x_len": _rational_text(lens["x"]),
        "y_len": _rational_text(lens["y"]),
        "z_len": _rational_text(lens["z"]),
    }
    if m.reverse:
        out["reverse"] = True
    return out


def move_from_dict(data: dict) -> TimedKnuthMove:
    try:
        kind = data["kind"]
        reverse = data.get("reverse", False)
        u_len = _json_duration(data["u_len"])
        lens = {role: _json_duration(data[f"{role}_len"]) for role in ("x", "y", "z")}
    except (KeyError, TypeError) as exc:
        raise NotationError(f"bad move JSON: {exc}") from exc
    if kind not in ("k1", "k2"):
        raise NotationError(f"move kind must be 'k1' or 'k2', got {_quote(kind)}")
    if not isinstance(reverse, bool):
        raise NotationError(f"move reverse must be true or false, got {_quote(reverse)}")
    order = SOURCE_ORDER[kind, reverse]
    cuts = tuple(lens[role] for role in order)
    try:
        return TimedKnuthMove(kind, u_len, *cuts, reverse=reverse)
    except ValueError as exc:
        raise NotationError(f"bad move JSON: {exc}") from exc
