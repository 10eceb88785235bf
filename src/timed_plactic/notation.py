"""Textual and JSON notation.

Text grammar:
  - classical word: a string of digits when letters stay below 10
    (``3421153``), or comma-separated integers (``12,3,11``), with
    optional whitespace around each integer and leading zeros; a word of
    one letter may end with one comma (``12,``), as ``format_word`` spells
    a one-letter word above 9;
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
and a denominator, and ``parse_duration`` makes a ``Fraction`` of them: the
one reader that builds one, and where a command that reads a move or a
JSON duration first executes ``fractions`` (``errors.fractions``, as in
:mod:`.timed_words`). The grammars' five patterns are ``errors._Deferred``
proxies too, each compiled on its first use, so a command compiles only
those of the text it reads: a digit string, none.
A classical word in the spelling that ``format_word`` writes is read at C
speed: a digit string by one ``bytes.translate`` of its ASCII bytes, and
two or more comma-separated integers with no whitespace and no leading zero
by one ``json.loads`` of the text in brackets. Every other spelling (the
one-letter ``12,`` among them), and every error, takes the loop that reads
letter by letter and names the bad one.
``parse_timed_word`` builds no ``Fraction``. A timed word in the spelling
of ``str()`` and of the JSON durations, runs ``<letter>^p`` or
``<letter>^p/q`` joined by single spaces with no leading zero, is read by
one ``json.loads`` of its runs as rows of an array. Decimals, unspaced
runs, other whitespace and every error take the loop: one ``finditer``
pass reads each run once and checks it where it is matched, so an error
has its position at hand, and the pattern's last alternative takes the
rest of the text from the first token that is not a run, so the scan
stops there. Either path hands each run's letter, numerator and
denominator to ``timed_words._from_ratios``, which forms the grid.
Every writer of a timed word or tableau, text and JSON, reads the grid: each
count n becomes n/q reduced by one gcd (``classical._reduced``, against the
tableau's q for a tableau row). JSON spells it ``p/q``, and text as an exact
decimal where one exists (``_decimal_text``, which ``format_duration``
calls with a ``Fraction``'s numerator and denominator), so no writer builds
a row word or a ``Fraction``. A classical tableau's writers read its
``rows``, the tuples of letters it is stored as.
JSON letters must be JSON integers, durations JSON strings or integers,
and a move's ``reverse`` a JSON boolean; anything else is a
``NotationError``. Digits are ASCII digits only, and no numeral may run past
4,300 digits (``_MAX_DIGITS``), in input or in output: an exact result that
would need a longer numeral is a ``NotationError`` too, whatever limit the
interpreter puts on ``str()`` of an integer.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import zip_longest

from .classical import Tableau, Word, _ratio, _reduced, _runs_text
from .errors import NotationError, _Deferred, _quote, fractions
from .timed_knuth import SOURCE_ORDER, TimedKnuthMove
from .timed_words import TimedWord, _from_ratios, normalize
from .timed_tableaux import TimedTableau


# A duration numeral: p/q, a decimal a.b or an integer. Its five groups are
# p, q, a, b and the integer. Digits are ASCII only: \d would also match
# other scripts' digits, and re.ASCII would narrow \s as well.
_NUMERAL = r"(?:([0-9]+)/([0-9]+)|([0-9]+)\.([0-9]+)|([0-9]+))"
_DURATION_RE = _Deferred(re.compile, _NUMERAL)
# A timed word's tokens: a run <letter>^<numeral>, whose lookahead lets
# adjacent runs like 3^0.825^0.08 split unambiguously (the numeral
# backtracks until the rest starts a new <letter>^ token), or, in the last
# group, the rest of the text from the first non-space character where no
# run starts. Taking the rest makes finditer stop at the first error
# instead of scanning on past it.
_TOKEN_RE = _Deferred(re.compile, rf"([0-9]+)\^{_NUMERAL}(?=\s|[0-9]+\^|$)|(\S[\s\S]*)")
# The spelling of str(TimedWord) and of _runs_json's durations: runs
# <letter>^<p> or <letter>^<p>/<q> joined by single spaces, every numeral
# without a leading zero (so each is at least 1). Every text it matches is
# a valid word.
_RUN = r"[1-9][0-9]*\^[1-9][0-9]*(?:/[1-9][0-9]*)?"
_RUN_WORD_RE = _Deferred(re.compile, rf"{_RUN}(?: {_RUN})*")
# The comma spelling that format_word writes, which json.loads reads as the
# elements of a JSON array: integers without a leading zero (so each is at
# least 1), one comma between two, and no whitespace.
_COMMA_WORD_RE = _Deferred(re.compile, r"[1-9][0-9]*(?:,[1-9][0-9]*)+")
# ASCII digit bytes to the letters they spell.
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))
# int() refuses more than 4,300 digits by default, a limit that varies with
# the interpreter. Refusing every longer run of digits and decimal points
# before anything is converted gives one verdict everywhere. A window starts
# only where a run of digits and points does: a longer run that starts
# earlier holds the whole window too, so the first hit is the same, and no
# position is scanned twice.
_MAX_DIGITS = 4300
_LONG_DIGITS_RE = _Deferred(re.compile, rf"(?<![0-9.])[0-9.]{{{_MAX_DIGITS + 1}}}")
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


def _rational_text(d: fractions.Fraction) -> str:
    """``str(d)``, refused past the digit bound with the same verdict on
    every interpreter."""
    return _ratio_text(d.numerator, d.denominator)


def _ratio_text(num: int, den: int) -> str:
    """The reduced ratio num/den spelt ``p/q`` (``classical._ratio``),
    refused past the digit bound."""
    if not -_TOO_LONG < num < _TOO_LONG > den:
        _refuse_long_result()
    return _ratio(num, den)


def parse_duration(text: str) -> fractions.Fraction:
    """Parse a decimal numeral or p/q fraction into an exact Fraction."""
    m = _DURATION_RE.fullmatch(text.strip())
    if not m:
        raise NotationError(f"not a duration: {_quote(text)}")
    _check_digits(m.group(), None)
    return fractions.Fraction(*_numeral(*m.groups(), text))


def format_duration(d: fractions.Fraction) -> str:
    """Exact decimal string when the denominator divides a power of 10
    (``41/50`` renders as ``0.82``), otherwise ``p/q``."""
    return _decimal_text(d.numerator, d.denominator)


def _decimal_text(num: int, den: int) -> str:
    """The reduced ratio num/den as an exact decimal when den divides a
    power of 10, otherwise ``p/q``; refused past the digit bound."""
    e2 = (den & -den).bit_length() - 1
    rest = den >> e2
    e5 = 0
    while rest % 5 == 0:
        rest //= 5
        e5 += 1
    if rest != 1:
        return _ratio_text(num, den)
    digits = max(e2, e5)
    scaled = abs(num) * 10**digits // den
    if scaled >= _TOO_LONG:
        _refuse_long_result()
    sign = "-" if num < 0 else ""
    if digits == 0:
        return f"{sign}{scaled}"
    text = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def human_rational(d: fractions.Fraction) -> str:
    """Human-readable rendering: exact decimal when one exists, otherwise the
    fraction with an approximation marked inexact."""
    text = format_duration(d)
    if "/" not in text:
        return text
    if sys.float_info.min <= abs(d) <= sys.float_info.max:
        approx = f"{float(d):.6g}"
    else:
        # Past the float range float() overflows, and below its normal range
        # it loses digits or gives 0: divide in decimal instead.
        from decimal import Decimal

        approx = f"{Decimal(d.numerator) / d.denominator:.6g}"
    return f"{text} (≈{approx})"


def parse_timed_word(text: str) -> TimedWord:
    """Parse the timed-word grammar; errors carry the offending position.

    The spelling of ``str()`` (``_RUN_WORD_RE``, tested after the digit
    bound: ``p`` or ``p/q`` durations, single spaces, no leading zero) is
    read by one ``json.loads`` of its runs as rows of a JSON array. Any
    other spelling (decimals, unspaced runs, other whitespace) and every
    error take the loop, one ``finditer`` match per run: a letter below 1,
    then a zero denominator, then a zero duration is refused with the
    run's position. Either way ``_from_ratios`` puts the runs on the grid
    of their lcm and merges equal neighbours (``1^1 1^1/2`` is ``1^3/2``),
    so the word is built in normal form without a second check."""
    _check_digits(text)
    if _RUN_WORD_RE.fullmatch(text):
        # The sentinel row [0, 0, 1] gives the transpose three columns even
        # when no duration has a denominator; a missing one is 1.
        rows = "[[0,0,1],[" + text.replace("^", ",").replace("/", ",").replace(" ", "],[") + "]]"
        letters, nums, dens = zip_longest(*json.loads(rows), fillvalue=1)
        return _from_ratios(letters[1:], nums[1:], dens[1:])
    letters, nums, dens = [], [], []
    for m in _TOKEN_RE.finditer(text):
        if m[7] is not None:
            raise NotationError("expected <letter>^<duration>", m.start())
        letter = int(m[1])
        if letter < 1:
            raise NotationError("letters must be at least 1", m.start())
        at = m.end(1) + 1
        num, den = _numeral(*m.group(2, 3, 4, 5, 6), text[at:m.end()])
        if not num:
            raise NotationError("durations must be positive", at)
        letters.append(letter)
        nums.append(num)
        dens.append(den)
    return _from_ratios(letters, nums, dens)


def format_timed_word(w: TimedWord) -> str:
    return _runs_text(w.letters, w.counts, w.q, _decimal_text)


def parse_word(text: str) -> Word:
    """Parse a classical word: digit string or comma-separated integers.

    The spellings that ``format_word`` writes take a fast path: a digit
    string is one ``bytes.translate`` of its ASCII bytes, and a comma word
    with no whitespace and no leading zero (``_COMMA_WORD_RE``, tested after
    the digit bound) is one ``json.loads`` of ``[text]``. A comma word with
    whitespace or a leading zero, a one-letter word with its one trailing
    comma (``12,``), and every error, go through the loop that reads letter
    by letter, so an error names the first bad part. A trailing comma after
    more than one letter is an error."""
    s = text.strip()
    if not s:
        return ()
    if "," in s:
        _check_digits(text)
        if _COMMA_WORD_RE.fullmatch(text):
            return tuple(json.loads(f"[{text}]"))
        parts = s.split(",")
        if len(parts) == 2 and not parts[1]:
            # "12,": the comma spelling of a one-letter word.
            del parts[1]
        letters = []
        for part in parts:
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
        return tuple(s.encode().translate(_DIGIT_VALUES))
    raise NotationError(f"not a word: {_quote(text)}")


def format_word(w: Word) -> str:
    """A digit string when every letter is below 10, else the letters
    joined by commas. A one-letter word above 9 ends with a comma, ``12,``,
    since ``12`` reads as the digit string 1 2."""
    if not w:
        return ""
    if max(w) <= 9:
        return "".join(map(str, w))
    if len(w) == 1:
        return f"{w[0]},"
    return ",".join(map(str, w))


def parse_word_or_timed(text: str) -> Word | TimedWord:
    """Classify input by the presence of '^': timed words carry durations."""
    if "^" in text:
        return parse_timed_word(text)
    return parse_word(text)


def _runs_json(letters, counts, q: int) -> dict:
    # The JSON of the runs whose counts lie on the grid 1/q, each reduced
    # to p/q by classical._reduced. Durations are positive: one chained
    # comparison per run keeps each numeral within the digit bound, and
    # _refuse_long_result raises past it.
    return {"runs": [{"letter": c, "dur": _ratio(n, d) if d < _TOO_LONG > n
                      else _refuse_long_result()} for c, n, d in _reduced(letters, counts, q)]}


def timed_word_to_dict(w: TimedWord) -> dict:
    return _runs_json(w.letters, w.counts, w.q)


def _json_letter(value) -> int:
    # JSON integers only: int() would read 1.5 as 1 and true as 1.
    if type(value) is not int:
        raise NotationError(f"letters must be JSON integers, got {_quote(value)}")
    if value < 1:
        raise NotationError(f"letters must be at least 1, got {_quote(value)}")
    return value


def _json_duration(value) -> fractions.Fraction:
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
    return {"rows": list(map(list, t.rows))}


def tableau_from_dict(data: dict) -> Tableau:
    # Tableau reads every row before it checks one, so a bad letter
    # anywhere is named before a bad row.
    try:
        return Tableau(tuple(_json_letter(x) for x in row) for row in data["rows"])
    except (KeyError, TypeError) as exc:
        raise NotationError(f"bad tableau JSON: {exc}") from exc


def timed_tableau_to_dict(t: TimedTableau) -> dict:
    return {"rows": [_runs_json(*row, t.q) for row in t.grid]}


def timed_tableau_from_dict(data: dict) -> TimedTableau:
    # As in tableau_from_dict, every row is read before any is checked.
    try:
        return TimedTableau(timed_word_from_dict(row) for row in data["rows"])
    except (KeyError, TypeError) as exc:
        raise NotationError(f"bad timed-tableau JSON: {exc}") from exc


def format_timed_tableau(t: TimedTableau) -> str:
    return "\n".join([_runs_text(*row, t.q, _decimal_text) for row in t.grid])


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
