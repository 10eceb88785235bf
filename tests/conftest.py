"""Shared fixtures: frozen worked-example data and hypothesis strategies."""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from itertools import groupby
from math import lcm

from hypothesis import settings
from hypothesis import strategies as st

from timed_plactic import (
    NotationError,
    Run,
    TimedWord,
    format_word,
    letter_color,
    normalize,
    parse_timed_word,
)
from timed_plactic.errors import _quote

# str() of an integer past the interpreter's digit limit raises ValueError
# (Python 3.11+; a limit of 0 means none). An error message prints a number
# past it as this placeholder.
DIGIT_LIMITED = bool(getattr(sys, "get_int_max_str_digits", lambda: 0)())
TOO_LONG_TO_PRINT = "<Fraction with a numeral too long to quote>"


def printed(x) -> str:
    """A number as an error message prints it: str(x), or the placeholder
    where the interpreter refuses to write it."""
    try:
        return str(x)
    except ValueError:
        return TOO_LONG_TO_PRINT


# Exact rational arithmetic makes per-example cost vary widely; the wall-clock
# deadline would only add flakiness.
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

# Classical running example: the word whose insertion tableau is
# [113 / 245 / 3], with Greene profile (3, 6, 7).
WORD_3421153 = (3, 4, 2, 1, 1, 5, 3)
TABLEAU_3421153 = ((1, 1, 3), (2, 4, 5), (3,))
STEPS_3421153 = (
    ((3,),),
    ((3, 4),),
    ((2, 4), (3,)),
    ((1, 4), (2,), (3,)),
    ((1, 1), (2, 4), (3,)),
    ((1, 1, 5), (2, 4), (3,)),
    ((1, 1, 3), (2, 4, 5), (3,)),
)

# Timed running example: a 15-run word of length 7.19 whose insertion tableau
# has six rows and shape (3.20, 1.93, 1.09, 0.61, 0.29, 0.07).
BIG_TIMED_WORD_TEXT = (
    "3^0.82 5^0.08 2^0.45 6^0.64 5^0.94 1^0.15 5^0.09 1^0.52 "
    "4^0.29 1^0.59 3^0.97 4^0.42 2^0.61 1^0.07 4^0.55"
)
BIG_TIMED_TABLEAU_ROWS = (
    "1^1.33 2^0.54 3^0.36 4^0.97",
    "2^0.52 3^0.91 5^0.50",
    "3^0.52 4^0.22 5^0.32 6^0.03",
    "4^0.07 5^0.22 6^0.32",
    "5^0.07 6^0.22",
    "6^0.07",
)
BIG_TIMED_SHAPE = tuple(
    Fraction(x) for x in ("3.20", "1.93", "1.09", "0.61", "0.29", "0.07")
)
BIG_TIMED_READING_TEXT = (
    "6^0.07 5^0.07 6^0.22 4^0.07 5^0.22 6^0.32 3^0.52 4^0.22 5^0.32 6^0.03 "
    "2^0.52 3^0.91 5^0.50 1^1.33 2^0.54 3^0.36 4^0.97"
)
BIG_TIMED_PROFILE = tuple(
    Fraction(x) for x in ("3.20", "5.13", "6.22", "6.83", "7.12", "7.19")
)

# Row-insertion running example.
RINS_ROW_TEXT = "1^1.4 2^1.6 3^0.7"
RINS_INSERTED_TEXT = "1^0.7 2^0.2"
RINS_BUMPED_TEXT = "2^0.7 3^0.2"
RINS_RESULT_TEXT = "1^2.1 2^1.1 3^0.5"

# Tableau-insertion cascade fixtures on a two-row tableau of mass 5.6:
# row A (mass 2.2) cascades into a three-row tableau of shape (4.9, 1.9, 1.0);
# row B (mass 0.9) exercises the same cascade at smaller scale. Insertion
# conserves mass, so the resulting shapes always sum to 5.6 plus the row mass.
INSERT_EXAMPLE_TABLEAU_ROWS = ("1^1.4 2^1.6 3^0.7", "3^0.8 4^1.1")
INSERT_EXAMPLE_ROW_A = "1^0.3 2^1.7 3^0.2"
INSERT_EXAMPLE_RESULT_A = ("1^1.7 2^3 3^0.2", "2^0.3 3^1.2 4^0.4", "3^0.3 4^0.7")
INSERT_EXAMPLE_SHAPE_A = tuple(Fraction(x) for x in ("4.9", "1.9", "1.0"))
INSERT_EXAMPLE_ROW_B = "1^0.7 2^0.2"
INSERT_EXAMPLE_RESULT_B = ("1^2.1 2^1.1 3^0.5", "2^0.7 3^0.3 4^0.9", "3^0.7 4^0.2")

# Knuth-move running example: the two words differ by one k2 move whose
# factors are x = 1^0.32 2^0.41, y = 3^0.11 4^0.62, z = 4^0.27 5^1.20 inside
# the context u = 5^1.10 3^2.08, v = 2^0.03 (source order y, z, x).
KAPPA2_SOURCE_TEXT = "5^1.10 3^2.19 4^0.89 5^1.20 1^0.32 2^0.44"
KAPPA2_RESULT_TEXT = "5^1.10 3^2.19 4^0.62 1^0.32 2^0.41 4^0.27 5^1.20 2^0.03"
KAPPA2_MOVE_KWARGS = dict(
    kind="k2",
    position=Fraction("3.18"),
    cut1=Fraction("0.73"),
    cut2=Fraction("1.47"),
    cut3=Fraction("0.73"),
    reverse=True,
)


def tw(text: str) -> TimedWord:
    return parse_timed_word(text)


# One <letter>^<duration> token. The duration is the longest numeral (p/q,
# a.b or an integer) after which the rest is empty, whitespace or a new
# <letter>^ token.
_TOKEN = re.compile(r"([0-9]+)\^([0-9]+/[0-9]+|[0-9]+\.[0-9]+|[0-9]+)(?=\s|[0-9]+\^|$)")


def tokens_then_normalize(text: str) -> TimedWord:
    """The timed-word text grammar read in two passes: tokens first, each
    checked with its position and read by ``Fraction(str)``, then
    ``normalize`` merges equal neighbours. A reference for the one-pass
    parser; numerals past the digit bound are not covered."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise NotationError("expected <letter>^<duration>", pos)
        if int(m.group(1)) < 1:
            raise NotationError("letters must be at least 1", pos)
        numeral = m.group(2)
        _, slash, den = numeral.partition("/")
        if slash and not int(den):
            raise NotationError(f"zero denominator in {_quote(numeral)}")
        dur = Fraction(numeral)
        if not dur:
            raise NotationError("durations must be positive", m.start(2))
        tokens.append((int(m.group(1)), dur))
        pos = m.end()
    return normalize(tokens)


def schensted_rows(word) -> tuple[tuple[int, ...], ...]:
    """Plain-list Schensted insertion, written without the library so that
    differential tests compare the insertion kernel with something else."""
    rows: list[list[int]] = []
    for a in word:
        for row in rows:
            j = bisect_right(row, a)
            if j == len(row):
                row.append(a)
                break
            row[j], a = a, row[j]
        else:
            rows.append([a])
    return tuple(tuple(row) for row in rows)


def runs_reference(row) -> tuple[list[int], list[int]]:
    """A row's runs by groupby, apart from the library's bisection: its
    distinct letters and their counts, in order."""
    runs = [(c, len(list(g))) for c, g in groupby(row)]
    return [c for c, _ in runs], [n for _, n in runs]


def expand_on_grid(*words) -> tuple[list[list[int]], int]:
    """Each timed word as a classical word on the grid 1/q, q the lcm of all
    their run denominators: a run a^d becomes d*q copies of a."""
    q = lcm(*(d.denominator for w in words for _, d in w.runs))
    return [[c for c, d in w.runs for _ in range(int(d * q))] for w in words], q


def runs_on_grid(cells, q) -> TimedWord:
    """The timed word whose run a^(n/q) stands for n equal cells a."""
    return TimedWord(tuple(Run(c, Fraction(len(list(g)), q)) for c, g in groupby(cells)))


def grid_reference(w) -> tuple[TimedWord, ...]:
    """Timed insertion tableau rows from the plain-list reference: expand w on
    its 1/q grid, insert classically, run-length encode, divide by q."""
    (word,), q = expand_on_grid(w)
    return tuple(runs_on_grid(row, q) for row in schensted_rows(word))


def grid_row_insert(row, u) -> tuple[TimedWord, TimedWord]:
    """(bumped, new row) of inserting the timed word u into the timed row, by
    plain-list row insertion of u's cells into the row's cells."""
    (cells, inserted), q = expand_on_grid(row, u)
    bumped = []
    for a in inserted:
        j = bisect_right(cells, a)
        if j == len(cells):
            cells.append(a)
        else:
            bumped.append(cells[j])
            cells[j] = a
    return runs_on_grid(bumped, q), runs_on_grid(cells, q)


def greene_reference(word, r) -> int:
    """The largest total size of r disjoint weakly increasing subwords of a
    classical word, by a search over its letters one at a time: each letter
    joins a chain whose last letter is at most it, or is left out. A state
    is the sorted tuple of chain last letters (0 for an empty chain). It is
    exhaustive and has no state budget, so keep the words small."""
    states = {(0,) * r: 0}
    for c in word:
        updates = {}
        for lasts, used in states.items():
            for k in range(r):
                if lasts[k] <= c and (k == 0 or lasts[k] != lasts[k - 1]):
                    cand = tuple(sorted(lasts[:k] + lasts[k + 1 :] + (c,)))
                    updates[cand] = max(updates.get(cand, -1), used + 1)
        for cand, score in updates.items():
            states[cand] = max(states.get(cand, -1), score)
    return max(states.values())


def timed_greene_reference(w, r, refine=1) -> Fraction:
    """a_r of a timed word by the per-letter search on its expansion on the
    grid 1/(refine * q), divided back by the grid denominator."""
    (word,), q = expand_on_grid(w)
    return Fraction(greene_reference([c for c in word for _ in range(refine)], r), refine * q)


def reference_profile(values, total) -> tuple:
    """The reference values a_1, a_2, ... as an oracle returns them: a_i is
    kept only while a_(i-1) < total, with a_0 = 0."""
    kept = []
    for a in values:
        if (kept[-1] if kept else 0) >= total:
            break
        kept.append(a)
    return tuple(kept)


def random_timed_word_runs(rng, *, runs, max_letter, max_den, max_num):
    """The runs of randomgen.random_timed_word drawn the list-based way:
    rng.choice over every letter but the previous one."""
    count = min(runs, 1) if max_letter < 2 else runs
    letters: list[int] = []
    for _ in range(count):
        choices = [c for c in range(1, max_letter + 1) if not letters or c != letters[-1]]
        letters.append(rng.choice(choices))
    return tuple(
        (c, Fraction(rng.randint(1, max_num), rng.randint(1, max_den))) for c in letters
    )


def fraction_length(word) -> Fraction:
    return sum((d for _, d in word.runs), Fraction(0))


def fraction_cut(word, a, b) -> tuple[tuple[int, Fraction], ...]:
    """The runs of word over [a, b), by a Fraction walk over every run: a
    reference for the library's grid cutter."""
    runs = []
    start = Fraction(0)
    for c, d in word.runs:
        end = start + d
        overlap = min(end, b) - max(start, a)
        if overlap > 0:
            runs.append((c, overlap))
        start = end
    return tuple(runs)


def fraction_px(value) -> str:
    """value as an exact decimal with six fractional digits, rounded by
    round() on the Fraction, trailing zeros trimmed."""
    digits = str(round(Fraction(value) * 10**6)).rjust(7, "0")
    whole, frac = digits[:-6], digits[-6:].rstrip("0")
    return f"{whole}.{frac}" if frac else whole


def render_reference(obj, unit_scale) -> str:
    """The SVG of a timed word (a ribbon) or a timed tableau, by Fraction
    geometry over each row's ``runs``: a reference for render_svg."""
    rows = (obj,) if isinstance(obj, TimedWord) else obj.rows
    scale, rh = Fraction(unit_scale), 40
    width = fraction_px(max((fraction_length(row) for row in rows), default=0) * scale)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{len(rows) * rh}" viewBox="0 0 {width} {len(rows) * rh}">'
    ]
    for i, row in enumerate(rows):
        y, x = i * rh, Fraction(0)
        for letter, dur in row.runs:
            parts.append(
                f'<rect x="{fraction_px(x * scale)}" y="{y}" width="{fraction_px(dur * scale)}" '
                f'height="{rh}" fill="{letter_color(letter)}" stroke="#333333" stroke-width="1"/>'
            )
            if dur * scale >= 16:
                parts.append(
                    f'<text x="{fraction_px((x + dur / 2) * scale)}" y="{y + 26}" '
                    f'font-family="sans-serif" font-size="13" text-anchor="middle" '
                    f'fill="#111111">{letter}</text>'
                )
            x += dur
    return "\n".join(parts + ["</svg>"]) + "\n"


def _fraction_value(word, t) -> int:
    acc = Fraction(0)
    for c, d in word.runs:
        acc += d
        if t < acc:
            return c
    raise ValueError(f"time {t} outside the word")


def fraction_column_strict(upper, lower) -> bool:
    """Compare the rows at the start of every segment between their merged
    run boundaries, up to lower's length, walking Fraction prefix sums."""
    limit = fraction_length(lower)
    bounds = {Fraction(0)}
    for word in (upper, lower):
        acc = Fraction(0)
        for _, d in word.runs:
            acc += d
            bounds.add(acc)
    return all(
        _fraction_value(upper, t) < _fraction_value(lower, t)
        for t in sorted(bounds)
        if t < limit
    )


def decimal_reference(d: Fraction) -> str:
    """d as ``format_duration`` spells it, found by trial: with the fewest
    decimal places k (at most the denominator's bit length) that make
    d * 10**k whole, else ``str(d)``."""
    for k in range(d.denominator.bit_length() + 1):
        scaled = d * 10**k
        if scaled.denominator == 1:
            digits = str(abs(scaled.numerator)).rjust(k + 1, "0")
            sign = "-" if d < 0 else ""
            return sign + (f"{digits[:-k]}.{digits[-k:]}" if k else digits)
    return str(d)


def word_text_reference(w, spell=str) -> str:
    """A timed word's text run by run over its ``Fraction`` runs, each
    duration spelt by spell: ``str()`` for spell=str, ``format_timed_word``
    for spell=decimal_reference. A reference for the grid writers."""
    return " ".join(f"{c}^{spell(d)}" for c, d in w.runs)


def tableau_text_reference(t, spell=str) -> str:
    """A timed tableau's text row by row over its ``rows``."""
    return "\n".join(word_text_reference(row, spell) for row in t.rows)


def tableau_repr_reference(t) -> str:
    return "TimedTableau({})".format(" | ".join(f"'{word_text_reference(r)}'" for r in t.rows))


def letter_durations_reference(w) -> dict:
    """Total duration per letter, summed as ``Fraction`` runs."""
    out: dict = {}
    for c, d in w.runs:
        out[c] = out.get(c, Fraction(0)) + d
    return out


def classical_text_reference(t, row_text=format_word) -> str:
    """A classical tableau's text over its ``rows``, each row written by
    row_text: ``format_word`` for the CLI's text tableau."""
    return "\n".join(row_text(row) for row in t.rows)


def tableau_error(rows) -> str | None:
    """The error a stack of classical rows must raise as a Tableau, checked
    cell by cell in the library's order, or None if valid. A column fault
    reads as the grid validator words it; a quoted row is clipped as the
    library's messages clip it."""
    for i, row in enumerate(rows):
        if not isinstance(row, Sequence):
            return f"row {i} is not a sequence of letters: {_quote(row)}"
        if not row:
            return f"row {i} is empty"
        for c in row:
            if isinstance(c, bool) or not isinstance(c, int) or c < 1:
                return f"letters must be integers >= 1, got {c!r}"
        if any(a > b for a, b in zip(row, row[1:])):
            return f"row {i} is not weakly increasing: {_quote(row)}"
    for i in range(len(rows) - 1):
        upper, lower = rows[i], rows[i + 1]
        if len(upper) < len(lower):
            return f"row {i + 1} is longer than row {i} ({len(lower)} > {len(upper)})"
        if any(upper[j] >= lower[j] for j in range(len(lower))):
            return f"rows {i} and {i + 1} are not strictly increasing downward"
    return None


def timed_tableau_error(rows) -> str | None:
    """The error a stack of timed words must raise as a TimedTableau, checked
    with Fraction arithmetic in the library's order, or None if valid."""
    for i, row in enumerate(rows):
        if not row.runs:
            return f"row {i} is empty"
        if any(a.letter >= b.letter for a, b in zip(row.runs, row.runs[1:])):
            return f"row {i} is not a timed row: {row!r}"
    for i in range(len(rows) - 1):
        upper, lower = rows[i], rows[i + 1]
        lu, ll = fraction_length(upper), fraction_length(lower)
        if lu < ll:
            return f"row {i + 1} is longer than row {i} ({ll} > {lu})"
        if not fraction_column_strict(upper, lower):
            return f"rows {i} and {i + 1} are not strictly increasing downward"
    return None


# hypothesis strategies

letters = st.integers(min_value=1, max_value=4)

words = st.lists(letters, max_size=8).map(tuple)

durations = st.fractions(
    min_value=Fraction(1, 8), max_value=Fraction(3), max_denominator=8
)

timed_words = st.lists(st.tuples(letters, durations), max_size=6).map(normalize)

nonempty_timed_words = st.lists(
    st.tuples(letters, durations), min_size=1, max_size=6
).map(normalize)

# Small common denominators keep the per-letter reference's grid tractable.
small_durations = st.fractions(
    min_value=Fraction(1, 4), max_value=Fraction(2), max_denominator=4
)

small_timed_words = st.lists(st.tuples(letters, small_durations), max_size=5).map(
    normalize
)

# Weakly increasing rows as (letter, count) runs: unit runs, long runs, a
# single letter, and letters far apart.
sorted_rows = st.lists(
    st.tuples(st.integers(1, 60), st.one_of(st.just(1), st.integers(1, 300))), max_size=12
).map(lambda runs: tuple(sorted(c for c, n in runs for _ in range(n))))
