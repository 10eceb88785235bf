"""Timed words: run-length sequences of letters with exact rational durations.

A timed word is a normalized sequence of runs ``letter^duration`` (adjacent
letters distinct, durations positive). It can equivalently be read as a step
function on [0, length) whose value at t is the letter of the run covering t;
``value_at`` evaluates that function. Timed words form a monoid under
``concat`` with the empty word as identity.

Durations are ``fractions.Fraction`` values, which keeps every result exact
and equality decidable. Each one is made once, where a value is produced;
the work in between runs on integer counts. Lengths and cuts clear
denominators first: with q the lcm of the denominators involved, every
duration is an integer count on the grid 1/q (``_grid``). ``_to_grid`` gives
a word on the grid in one layout everywhere: two parallel lists, the run
letters and their counts, which is also the row form of the insertion
kernel. Only the durations a cut creates become new ``Fraction(n, q)``
values.

Each word is checked once, where it is made. A public ``TimedWord(...)``
call validates its runs. The functions that produce words from runs they
have already checked (``normalize``, ``concat``, ``scale``, the cutter
behind ``restrict`` and ``subword``, the text parser and the insertion
functions) build them with ``_word``, which skips that second check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, NamedTuple, Sequence, Union

from .classical import Grid, Word, _check_letters

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


@dataclass(frozen=True, repr=False)
class TimedWord:
    """A normalized timed word.

    Construction validates normal form: positive durations, adjacent letters
    distinct. Use :func:`normalize` to build one from raw run data.
    """

    runs: tuple[Run, ...] = ()

    def __post_init__(self):
        for run in self.runs:
            letter, dur = run
            _check_letters((letter,))
            if not isinstance(dur, Fraction) or dur.numerator <= 0:
                raise ValueError(f"run durations must be positive Fractions, got {dur!r}")
        for a, b in zip(self.runs, self.runs[1:]):
            if a.letter == b.letter:
                raise ValueError(
                    f"adjacent runs carry the same letter {a.letter}; use normalize()"
                )

    @cached_property
    def length(self) -> Fraction:
        q = _grid(self)
        return Fraction(sum(_to_grid(self, q)[1]), q)

    def breakpoints(self) -> list[Fraction]:
        """Prefix sums of run durations, including 0 and the total length."""
        out = [Fraction(0)]
        for _, dur in self.runs:
            out.append(out[-1] + dur)
        return out

    def __bool__(self) -> bool:
        return bool(self.runs)

    def __mul__(self, other: "TimedWord") -> "TimedWord":
        if not isinstance(other, TimedWord):
            return NotImplemented
        return concat(self, other)

    def __str__(self) -> str:
        return " ".join(f"{c}^{d}" for c, d in self.runs)

    def __repr__(self) -> str:
        return f"TimedWord('{self}')"


def _word(runs: tuple[Run, ...], length: Fraction | None = None) -> TimedWord:
    """A TimedWord from runs its caller has already checked to be in normal
    form, built without the constructor's check. A known length fills the
    ``length`` cache."""
    w = object.__new__(TimedWord)
    w.__dict__["runs"] = runs
    if length is not None:
        w.__dict__["length"] = length
    return w


def normalize(runs: Iterable[tuple[int, DurationLike]]) -> TimedWord:
    """Build a TimedWord from raw runs: zero-duration runs are dropped and
    adjacent equal-letter runs merged. Negative durations are rejected."""
    out: list[Run] = []
    for letter, raw in runs:
        dur = as_duration(raw)
        if dur.numerator < 0:
            raise ValueError(f"run durations must be nonnegative, got {dur}")
        if not dur.numerator:
            continue
        if out and out[-1].letter == letter:
            out[-1] = Run(letter, out[-1].duration + dur)
        else:
            out.append(Run(letter, dur))
    # Letters are checked on the kept runs, after every duration, as the
    # constructor would: a dropped zero-duration run's letter goes unchecked.
    _check_letters([letter for letter, _ in out])
    return _word(tuple(out))


def concat(*words: TimedWord) -> TimedWord:
    """Concatenation, merging equal letters at the junctions."""
    runs: list[Run] = []
    for w in words:
        for run in w.runs:
            if runs and runs[-1].letter == run.letter:
                runs[-1] = Run(run.letter, runs[-1].duration + run.duration)
            else:
                runs.append(run)
    return _word(tuple(runs))


def value_at(w: TimedWord, t: DurationLike) -> int:
    """The letter at time t, for 0 <= t < length; each run covers the
    half-open interval [prefix, prefix + duration)."""
    t = as_duration(t)
    if t < 0 or t >= w.length:
        raise ValueError(f"time {t} outside [0, {w.length})")
    acc = Fraction(0)
    for letter, dur in w.runs:
        acc += dur
        if t < acc:
            return letter
    raise AssertionError("unreachable: t < length but no run covers it")


def _grid(*words: TimedWord) -> int:
    """The grid denominator q: the lcm of every run denominator."""
    return lcm(*(d.denominator for w in words for _, d in w.runs))


def _to_grid(w: TimedWord, q: int) -> Grid:
    """The runs of w on the grid 1/q as two parallel lists, the letters and
    their integer counts: the row form of the insertion kernel."""
    return [c for c, _ in w.runs], [d.numerator * (q // d.denominator) for _, d in w.runs]


def _cut(w: TimedWord, points: Sequence[Fraction]) -> list[TimedWord]:
    """The pieces of w between consecutive points, for
    0 <= p0 <= p1 <= ... <= length, in one pass on the grid 1/q (q also
    clears the points' denominators). A run wholly inside a piece is kept as
    it is; only a run that a point splits gets new durations. Each piece's
    length is known, and fills its cache."""
    q = lcm(_grid(w), *(p.denominator for p in points))
    ticks = [p.numerator * (q // p.denominator) for p in points]
    runs = w.runs
    counts = _to_grid(w, q)[1]
    pieces = []
    i = start = 0  # run i covers [start, start + its count)
    for a, b in zip(ticks, ticks[1:]):
        piece = []
        while start < b:
            n = counts[i]
            end = start + n
            if end > a:
                span = min(end, b) - max(start, a)
                if span == n:
                    piece.append(runs[i])
                elif span:
                    piece.append(Run(runs[i].letter, Fraction(span, q)))
                if end > b:
                    break
            i += 1
            start = end
        pieces.append(_word(tuple(piece), Fraction(b - a, q)))
    return pieces


def restrict(w: TimedWord, a: DurationLike, b: DurationLike) -> TimedWord:
    """The timed word of length b - a whose value at t is w's value at a + t.

    Requires 0 <= a <= b <= length; a == b yields the empty word.
    """
    a, b = as_duration(a), as_duration(b)
    if not (0 <= a <= b <= w.length):
        raise ValueError(f"window [{a}, {b}) outside [0, {w.length}]")
    return _cut(w, (a, b))[0]


@dataclass(frozen=True)
class TimeSample:
    """A finite disjoint union of half-open intervals [a, b) in strictly
    separated normal form: 0 <= a1 < b1 < a2 < b2 < ... (touching intervals
    must be supplied pre-merged; see :meth:`from_intervals`)."""

    intervals: tuple[tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self):
        prev_end: Fraction | None = None
        for a, b in self.intervals:
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

    def __bool__(self) -> bool:
        return bool(self.intervals)


def subword(w: TimedWord, sample: TimeSample) -> TimedWord:
    """The timed subword selected by a time sample: the pieces of w over the
    sample's intervals, concatenated in order. Its length is the measure."""
    if sample.intervals and sample.intervals[-1][1] > w.length:
        raise ValueError(
            f"sample reaches {sample.intervals[-1][1]}, beyond word length {w.length}"
        )
    return concat(*_cut(w, [p for interval in sample.intervals for p in interval])[::2])


def is_timed_row(w: TimedWord) -> bool:
    """True when run letters strictly increase, i.e. the step function is
    nondecreasing; the empty word counts as a row."""
    return all(a.letter < b.letter for a, b in zip(w.runs, w.runs[1:]))


def embed_classical(w: Word) -> TimedWord:
    """Each letter becomes a duration-1 run (equal neighbours merge)."""
    return normalize((c, 1) for c in w)


def scale(w: TimedWord, factor: DurationLike) -> TimedWord:
    """Multiply every duration by a positive rational factor."""
    factor = as_duration(factor)
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    return _word(tuple([Run(c, d * factor) for c, d in w.runs]))


def letter_durations(w: TimedWord) -> dict[int, Fraction]:
    """Total duration per letter (the letter-duration histogram)."""
    out: dict[int, Fraction] = {}
    for c, d in w.runs:
        out[c] = out.get(c, Fraction(0)) + d
    return out
