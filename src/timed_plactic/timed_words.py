"""Timed words: run-length sequences of letters with exact rational durations.

A timed word is a normalized sequence of runs ``letter^duration`` (adjacent
letters distinct, durations positive). It can equivalently be read as a step
function on [0, length) whose value at t is the letter of the run covering t;
``value_at`` evaluates that function. Timed words form a monoid under
``concat`` with the empty word as identity.

A word is stored on its integer grid: run i lasts ``counts[i] / q`` for the
smallest such q, so ``gcd(q, *counts) == 1`` (q is 1 for the empty word).
The form is canonical: two words are equal exactly when their letters,
counts and q are. The one field, ``runs``, gives the durations as exact
``fractions.Fraction`` values; it is built on first read and cached. Work on
several words puts them on one grid: ``_grid`` is the lcm of their q, and
``_to_grid`` gives a word's runs on it as two parallel lists, the letters
and their counts, which is also the row form of the insertion kernel.

Each word is checked once, where it is made. A public ``TimedWord(...)``
call validates its runs. The functions that produce words from runs they
have already checked (``normalize``, ``concat``, ``scale``, ``restrict``,
``subword``, ``apply_move``, the text parser and the insertion functions)
build them with ``_on_grid``, which skips that second check and
divides q and the counts by their gcd (``classical._grid_gcd``, which the
tableau builder shares). Truth and equality read the grid
(``_Value._key``); ``repr``, ``str`` and ``hash`` read ``runs``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import Iterable, NamedTuple, Sequence, Union

from .classical import Grid, Word, _check_letters, _grid_gcd, _Value

DurationLike = Union[Fraction, int, str]


def as_duration(x: DurationLike) -> Fraction:
    """Coerce to an exact Fraction; floats are refused since they are inexact."""
    if isinstance(x, (float, bool)):
        raise TypeError(
            f"durations must be exact (int, str, or Fraction), got {x!r}; "
            f"write the value as a string such as '0.82' or '41/50'"
        )
    if type(x) is Fraction:
        return x
    return Fraction(x)


class Run(NamedTuple):
    letter: int
    duration: Fraction


class TimedWord(_Value):
    """A normalized timed word, stored on its grid as ``letters``, ``counts``, ``q``.

    Construction validates normal form: positive durations, adjacent letters
    distinct. Use :func:`normalize` to build one from raw run data.
    """

    _fields = ("runs",)
    _key = ("letters", "counts", "q")

    def __init__(self, runs: tuple[Run, ...] = ()):
        for letter, dur in runs:
            _check_letters((letter,))
            if not isinstance(dur, Fraction) or dur.numerator <= 0:
                raise ValueError(f"run durations must be positive Fractions, got {dur!r}")
        for a, b in zip(runs, runs[1:]):
            if a.letter == b.letter:
                raise ValueError(
                    f"adjacent runs carry the same letter {a.letter}; use normalize()"
                )
        self.__dict__.update(_word(runs).__dict__)

    @cached_property
    def runs(self) -> tuple[Run, ...]:
        q = self.q
        return tuple([Run(c, Fraction(n, q)) for c, n in zip(self.letters, self.counts)])

    @cached_property
    def length(self) -> Fraction:
        return Fraction(sum(self.counts), self.q)

    def breakpoints(self) -> list[Fraction]:
        """Prefix sums of run durations, including 0 and the total length."""
        return [Fraction(n, self.q) for n in accumulate(self.counts, initial=0)]

    def __mul__(self, other: "TimedWord") -> "TimedWord":
        if not isinstance(other, TimedWord):
            return NotImplemented
        return concat(self, other)

    def __str__(self) -> str:
        return " ".join(f"{c}^{d}" for c, d in self.runs)

    def __repr__(self) -> str:
        return f"TimedWord('{self}')"


def _on_grid(letters, counts, q: int) -> TimedWord:
    """A TimedWord from runs on the grid 1/q that its caller has already
    checked to be in normal form, built without the constructor's check, on
    the smallest grid. The lists are copied: the kernel mutates its rows."""
    g = _grid_gcd(q, counts)
    if g > 1:
        counts = [n // g for n in counts]
        q //= g
    w = object.__new__(TimedWord)
    w.__dict__.update(letters=tuple(letters), counts=tuple(counts), q=q)
    return w


def _word(runs) -> TimedWord:
    """The word of positive ``Fraction`` runs, equal neighbours merged, on the
    lcm of their denominators."""
    q = lcm(*(d.denominator for _, d in runs))
    return _merged(((c, d.numerator * (q // d.denominator)) for c, d in runs), q)


def _merged(runs, q: int) -> TimedWord:
    """The word of the runs (letter, count) on the grid 1/q, each merged into
    an equal left neighbour."""
    letters: list[int] = []
    counts: list[int] = []
    for c, n in runs:
        if letters and letters[-1] == c:
            counts[-1] += n
        else:
            letters.append(c)
            counts.append(n)
    return _on_grid(letters, counts, q)


def normalize(runs: Iterable[tuple[int, DurationLike]]) -> TimedWord:
    """Build a TimedWord from raw runs: zero-duration runs are dropped and
    adjacent equal-letter runs merged. Negative durations are rejected."""
    kept: list[tuple[int, Fraction]] = []
    for letter, raw in runs:
        dur = as_duration(raw)
        if dur.numerator < 0:
            raise ValueError(f"run durations must be nonnegative, got {dur}")
        if dur.numerator:
            kept.append((letter, dur))
    w = _word(kept)
    # Letters are checked on the kept runs, after every duration, as the
    # constructor would: a dropped zero-duration run's letter goes unchecked.
    _check_letters(w.letters)
    return w


def concat(*words: TimedWord) -> TimedWord:
    """Concatenation, merging equal letters at the junctions."""
    q = _grid(*words)
    return _merged((run for w in words for run in zip(*_to_grid(w, q))), q)


def value_at(w: TimedWord, t: DurationLike) -> int:
    """The letter at time t, for 0 <= t < length; each run covers the
    half-open interval [prefix, prefix + duration)."""
    t = as_duration(t)
    if t < 0 or t >= w.length:
        raise ValueError(f"time {t} outside [0, {w.length})")
    return w.letters[bisect_right(list(accumulate(w.counts)), t * w.q)]


def _grid(*words) -> int:
    """The common grid denominator q: the lcm of the grids of the words (or
    timed tableaux)."""
    return lcm(*(w.q for w in words))


def _to_grid(w: TimedWord, q: int) -> Grid:
    """The runs of w on the grid 1/q (a multiple of w.q) as two parallel
    lists, the letters and their integer counts: the row form of the
    insertion kernel."""
    k = q // w.q
    return list(w.letters), [n * k for n in w.counts]


def _cut(w: TimedWord, points: Sequence[Fraction]) -> tuple[int, list[Grid]]:
    """The pieces of w between consecutive points, for
    0 <= p0 <= p1 <= ... <= length, in one pass: q, and each piece as its
    letters and counts on the grid 1/q (q also clears the points'
    denominators). Adjacent letters within a piece are distinct."""
    q = lcm(w.q, *(p.denominator for p in points))
    ticks = [p.numerator * (q // p.denominator) for p in points]
    letters, counts = _to_grid(w, q)
    pieces = []
    i = start = 0  # run i covers [start, start + its count)
    for a, b in zip(ticks, ticks[1:]):
        piece: Grid = ([], [])
        while start < b:
            end = start + counts[i]
            if end > a:
                span = min(end, b) - max(start, a)
                if span:
                    piece[0].append(letters[i])
                    piece[1].append(span)
                if end > b:
                    break
            i += 1
            start = end
        pieces.append(piece)
    return q, pieces


def restrict(w: TimedWord, a: DurationLike, b: DurationLike) -> TimedWord:
    """The timed word of length b - a whose value at t is w's value at a + t.

    Requires 0 <= a <= b <= length; a == b yields the empty word.
    """
    a, b = as_duration(a), as_duration(b)
    if not (0 <= a <= b <= w.length):
        raise ValueError(f"window [{a}, {b}) outside [0, {w.length}]")
    q, (piece,) = _cut(w, (a, b))
    return _on_grid(*piece, q)


class TimeSample(_Value):
    """A finite disjoint union of half-open intervals [a, b) in strictly
    separated normal form: 0 <= a1 < b1 < a2 < b2 < ... (touching intervals
    must be supplied pre-merged; see :meth:`from_intervals`)."""

    _fields = ("intervals",)

    def __init__(self, intervals: tuple[tuple[Fraction, Fraction], ...] = ()):
        self.__dict__["intervals"] = intervals
        prev_end: Fraction | None = None
        for a, b in intervals:
            if not (isinstance(a, Fraction) and isinstance(b, Fraction)):
                raise ValueError("interval endpoints must be Fractions")
            if a < 0 or a >= b:
                raise ValueError(f"bad interval [{a}, {b})")
            if prev_end is not None and a <= prev_end:
                raise ValueError(
                    f"intervals must be strictly separated; [{a}, {b}) touches "
                    f"or overlaps the previous one"
                )
            prev_end = b

    @classmethod
    def from_intervals(
        cls, pairs: Iterable[tuple[DurationLike, DurationLike]]
    ) -> "TimeSample":
        """Normalizing constructor: sorts, drops empty intervals, and merges
        overlapping or touching ones."""
        cleaned: list[tuple[Fraction, Fraction]] = []
        for a, b in pairs:
            a, b = as_duration(a), as_duration(b)
            if a > b:
                raise ValueError(f"bad interval [{a}, {b})")
            if a < b:
                cleaned.append((a, b))
        cleaned.sort()
        merged: list[list[Fraction]] = []
        for a, b in cleaned:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return cls(tuple((a, b) for a, b in merged))

    @property
    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.intervals), Fraction(0))


def subword(w: TimedWord, sample: TimeSample) -> TimedWord:
    """The timed subword selected by a time sample: the pieces of w over the
    sample's intervals, concatenated in order. Its length is the measure."""
    if sample.intervals and sample.intervals[-1][1] > w.length:
        raise ValueError(
            f"sample reaches {sample.intervals[-1][1]}, beyond word length {w.length}"
        )
    q, pieces = _cut(w, [p for interval in sample.intervals for p in interval])
    return _merged((run for piece in pieces[::2] for run in zip(*piece)), q)


def is_timed_row(w: TimedWord) -> bool:
    """True when run letters strictly increase, i.e. the step function is
    nondecreasing; the empty word counts as a row."""
    return all(a < b for a, b in zip(w.letters, w.letters[1:]))


def embed_classical(w: Word) -> TimedWord:
    """Each letter becomes a duration-1 run (equal neighbours merge)."""
    return normalize((c, 1) for c in w)


def scale(w: TimedWord, factor: DurationLike) -> TimedWord:
    """Multiply every duration by a positive rational factor."""
    factor = as_duration(factor)
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    return _on_grid(w.letters, [n * factor.numerator for n in w.counts], w.q * factor.denominator)


def letter_durations(w: TimedWord) -> dict[int, Fraction]:
    """Total duration per letter (the letter-duration histogram)."""
    out: dict[int, Fraction] = {}
    for c, d in w.runs:
        out[c] = out.get(c, Fraction(0)) + d
    return out
