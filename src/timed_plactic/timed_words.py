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
tableau builder shares). Truth, equality and ``hash`` read the grid
(``_Value._key``), and so do ``str`` and ``repr``: each run's count goes
to ``p/q`` through ``classical._reduced``, one gcd per run, without a
``Fraction``.

A q is formed in four places. A word made from ratios, whether read from
text by either path of ``notation.parse_timed_word`` or from ``Fraction``
runs by ``TimedWord(...)`` and ``normalize``, gets the lcm of its
denominators from ``_from_ratios``. Work on several words takes ``_grid``,
a cut takes the lcm of w.q and its points' denominators (``_ticks``), and
``scale`` multiplies q by the factor's denominator.

A cut and a join cost their pieces, not the word's runs. ``_cut`` finds
each point's run by one ``bisect_right`` over the runs' starts, slices the
whole runs between two points at C speed and trims the two end runs.
``_joined`` concatenates pieces, each already in normal form, and merges
two runs only at a seam where a piece starts with the last letter so far;
``restrict``, ``subword``, ``concat``, ``timed_tableaux.timed_reading_word``
and ``timed_knuth.apply_move`` build their words so. Only raw runs, which
may repeat a letter anywhere, are merged run by run (``_merged``, for
``_from_ratios``).

The module reaches ``fractions`` through one proxy shared by the package
(``errors.fractions``, a ``_Deferred``), which imports it, with the
``decimal`` and ``numbers`` it imports, at the first ``Fraction`` built or
type-checked: in ``as_duration``, in a public ``TimedWord(...)`` call with
runs, or at a first read of ``runs`` or ``length``. A word read from text,
embedded from a classical word (``embed_classical``, on the grid q = 1) or
inserted stays on its grid and builds none, so a command on such words
never executes ``fractions``.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import accumulate, islice, repeat
from math import lcm
from operator import eq, floordiv, mul
from typing import Iterable, NamedTuple, Sequence, Union

from .classical import Grid, Word, _check_letters, _grid_gcd, _runs_text, _Value
from .errors import _entries, _quote, _text, fractions

# A forward reference: the union is built without executing `fractions`.
DurationLike = Union["fractions.Fraction", int, str]


def as_duration(x: DurationLike) -> fractions.Fraction:
    """Coerce to an exact Fraction; floats are refused since they are
    inexact, and so is what is not a number. A string in exponent notation
    is refused too: a few characters such as ``"1e-1000000"`` would build
    an integer of millions of bits."""
    if type(x) is fractions.Fraction:
        return x
    if isinstance(x, str) and ("e" in x or "E" in x):
        raise ValueError(
            f"durations must not use exponent notation, got {_quote(x)}; "
            f"write the value as a string such as '0.82' or '41/50'"
        )
    if not isinstance(x, (float, bool)):
        try:
            return fractions.Fraction(x)
        except TypeError:  # not a number at all
            pass
    raise TypeError(
        f"durations must be exact (int, str, or Fraction), got {_quote(x)}; "
        f"write the value as a string such as '0.82' or '41/50'"
    )


class Run(NamedTuple):
    letter: int
    duration: fractions.Fraction


class TimedWord(_Value):
    """A normalized timed word, stored on its grid as ``letters``, ``counts``, ``q``.

    Construction validates normal form: positive durations, adjacent letters
    distinct. Use :func:`normalize` to build one from raw run data.
    """

    _fields = ("runs",)
    _key = ("letters", "counts", "q")

    def __init__(self, runs: tuple[Run, ...] = ()):
        runs = _entries(runs, ValueError, "runs must be an iterable of (letter, duration) pairs")
        for i, run in enumerate(runs):
            try:
                letter, dur = run
            except (TypeError, ValueError):
                raise ValueError(
                    f"run {i} is not a (letter, duration) pair: {_quote(run)}"
                ) from None
            _check_letters((letter,))
            if not isinstance(dur, fractions.Fraction) or dur.numerator <= 0:
                raise ValueError(f"run durations must be positive Fractions, got {_quote(dur)}")
        for a, b in zip(runs, runs[1:]):
            if a[0] == b[0]:
                raise ValueError(
                    f"adjacent runs carry the same letter {_text(a[0])}; use normalize()"
                )
        self.__dict__.update(_word(runs).__dict__)

    @cached_property
    def runs(self) -> tuple[Run, ...]:
        q = self.q
        return tuple([Run(c, fractions.Fraction(n, q)) for c, n in zip(self.letters, self.counts)])

    @cached_property
    def length(self) -> fractions.Fraction:
        return fractions.Fraction(sum(self.counts), self.q)

    def breakpoints(self) -> list[fractions.Fraction]:
        """Prefix sums of run durations, including 0 and the total length."""
        return [fractions.Fraction(n, self.q) for n in accumulate(self.counts, initial=0)]

    def __mul__(self, other: "TimedWord") -> "TimedWord":
        if not isinstance(other, TimedWord):
            return NotImplemented
        return concat(self, other)

    def __str__(self) -> str:
        return _runs_text(self.letters, self.counts, self.q)

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
    return _from_ratios([c for c, _ in runs], [d.numerator for _, d in runs],
                        [d.denominator for _, d in runs])


def _from_ratios(letters, nums, dens) -> TimedWord:
    """The word of the positive runs letters[i]^(nums[i]/dens[i]), equal
    neighbours merged, on the grid of the lcm of the denominators: the one
    place where a word read from text or ``Fraction`` runs forms its q.
    ``letters`` is a sequence; the ratios need not be reduced."""
    q = lcm(*dens)
    counts = list(map(mul, nums, map(floordiv, repeat(q), dens)))
    if any(map(eq, letters, islice(letters, 1, None))):
        return _merged(zip(letters, counts), q)
    return _on_grid(letters, counts, q)


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
    kept: list[tuple[int, fractions.Fraction]] = []
    for letter, raw in runs:
        dur = as_duration(raw)
        if dur.numerator < 0:
            raise ValueError(f"run durations must be nonnegative, got {_text(dur)}")
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
    return _joined([_to_grid(w, q) for w in words], q)


def value_at(w: TimedWord, t: DurationLike) -> int:
    """The letter at time t, for 0 <= t < length; each run covers the
    half-open interval [prefix, prefix + duration)."""
    t = as_duration(t)
    if t < 0 or t >= w.length:
        raise ValueError(f"time {_text(t)} outside [0, {_text(w.length)})")
    return w.letters[bisect_right(list(accumulate(w.counts)), t * w.q)]


def _grid(*words) -> int:
    """The common grid denominator q: the lcm of the grids of the words (or
    timed tableaux)."""
    return lcm(*(w.q for w in words))


def _to_grid(w: TimedWord, q: int) -> Grid:
    """The runs of w on the grid 1/q (a multiple of w.q) as two parallel
    lists, the letters and their integer counts: the row form of the
    insertion kernel."""
    return list(w.letters), list(map(mul, w.counts, repeat(q // w.q)))


def _ticks(w: TimedWord, points: Sequence[fractions.Fraction]) -> tuple[int, list[int]]:
    """The grid of a cut: q, the lcm of w.q and the points' denominators,
    and each point as an integer tick on the grid 1/q."""
    q = lcm(w.q, *(p.denominator for p in points))
    return q, [p.numerator * (q // p.denominator) for p in points]


def _cut(w: TimedWord, q: int, ticks: Sequence[int]) -> list[Grid]:
    """The pieces of w between consecutive ticks on the grid 1/q (a multiple
    of w.q), for 0 <= t0 <= t1 <= ... <= the length on that grid: each
    piece as its letters and counts. Adjacent letters within a piece are
    distinct.

    Each tick's run is found by one ``bisect_right`` over the runs' starts.
    The whole runs between two ticks are sliced at C speed and the two end
    runs trimmed, so a piece costs a few Python steps, whatever its size.
    The counts are scaled onto the grid only when q is not w.q."""
    k = q // w.q
    counts = w.counts if k == 1 else list(map(mul, w.counts, repeat(k)))
    starts = list(accumulate(counts, initial=0))
    runs = [bisect_right(starts, t) - 1 for t in ticks]  # the run covering each tick
    letters = w.letters
    pieces: list[Grid] = []
    for a, b, i, j in zip(ticks, islice(ticks, 1, None), runs, islice(runs, 1, None)):
        if i == j:
            pieces.append(((letters[i],), [b - a]) if b > a else ((), []))
            continue
        tail = b - starts[j]  # the part of run j before b
        end = j + 1 if tail else j
        piece = [starts[i + 1] - a, *counts[i + 1 : end]]
        if tail:
            piece[-1] = tail
        pieces.append((letters[i:end], piece))
    return pieces


def _joined(pieces, q: int) -> TimedWord:
    """The word of the pieces (letters, counts) on the grid 1/q, in order,
    each in normal form. Pieces are concatenated as they are, at C speed;
    runs merge only at a seam where a piece starts with the last letter so
    far."""
    letters: list[int] = []
    counts: list[int] = []
    for piece_letters, piece_counts in pieces:
        seam = 1 if letters and piece_letters and letters[-1] == piece_letters[0] else 0
        if seam:
            counts[-1] += piece_counts[0]
        letters += piece_letters[seam:]
        counts += piece_counts[seam:]
    return _on_grid(letters, counts, q)


def restrict(w: TimedWord, a: DurationLike, b: DurationLike) -> TimedWord:
    """The timed word of length b - a whose value at t is w's value at a + t.

    Requires 0 <= a <= b <= length; a == b yields the empty word.
    """
    a, b = as_duration(a), as_duration(b)
    if not (0 <= a <= b <= w.length):
        raise ValueError(f"window [{_text(a)}, {_text(b)}) outside [0, {_text(w.length)}]")
    q, ticks = _ticks(w, (a, b))
    (piece,) = _cut(w, q, ticks)
    return _on_grid(*piece, q)


class TimeSample(_Value):
    """A finite disjoint union of half-open intervals [a, b) in strictly
    separated normal form: 0 <= a1 < b1 < a2 < b2 < ... (touching intervals
    must be supplied pre-merged; see :meth:`from_intervals`). The intervals
    are read once, from any iterable of pairs, and stored as a tuple of
    ``(a, b)`` tuples."""

    _fields = ("intervals",)

    def __init__(self, intervals: tuple[tuple[fractions.Fraction, fractions.Fraction], ...] = ()):
        pairs: list[tuple[fractions.Fraction, fractions.Fraction]] = []
        intervals = _entries(intervals, ValueError, "intervals must be an iterable of pairs")
        for i, interval in enumerate(intervals):
            try:
                a, b = interval
            except (TypeError, ValueError):
                raise ValueError(
                    f"interval {i} is not a pair of endpoints: {_quote(interval)}"
                ) from None
            if not (isinstance(a, fractions.Fraction) and isinstance(b, fractions.Fraction)):
                raise ValueError("interval endpoints must be Fractions")
            if a < 0 or a >= b:
                raise ValueError(f"bad interval [{_text(a)}, {_text(b)})")
            if pairs and a <= pairs[-1][1]:
                raise ValueError(
                    f"intervals must be strictly separated; [{_text(a)}, {_text(b)}) touches "
                    f"or overlaps the previous one"
                )
            pairs.append((a, b))
        self.__dict__["intervals"] = tuple(pairs)

    @classmethod
    def from_intervals(
        cls, pairs: Iterable[tuple[DurationLike, DurationLike]]
    ) -> "TimeSample":
        """Normalizing constructor: sorts, drops empty intervals, and merges
        overlapping or touching ones."""
        cleaned: list[tuple[fractions.Fraction, fractions.Fraction]] = []
        for a, b in pairs:
            a, b = as_duration(a), as_duration(b)
            if a > b:
                raise ValueError(f"bad interval [{_text(a)}, {_text(b)})")
            if a < b:
                cleaned.append((a, b))
        cleaned.sort()
        merged: list[list[fractions.Fraction]] = []
        for a, b in cleaned:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return cls(merged)

    @property
    def measure(self) -> fractions.Fraction:
        return sum((b - a for a, b in self.intervals), fractions.Fraction(0))


def subword(w: TimedWord, sample: TimeSample) -> TimedWord:
    """The timed subword selected by a time sample: the pieces of w over the
    sample's intervals, concatenated in order. Its length is the measure."""
    if sample.intervals and sample.intervals[-1][1] > w.length:
        raise ValueError(
            f"sample reaches {_text(sample.intervals[-1][1])}, beyond word length {_text(w.length)}"
        )
    q, ticks = _ticks(w, [p for interval in sample.intervals for p in interval])
    return _joined(_cut(w, q, ticks)[::2], q)


def is_timed_row(w: TimedWord) -> bool:
    """True when run letters strictly increase, i.e. the step function is
    nondecreasing; the empty word counts as a row."""
    try:
        return all(a < b for a, b in zip(w.letters, w.letters[1:]))
    except AttributeError:
        raise TypeError(f"is_timed_row needs a timed word, got {_quote(w)}") from None


def embed_classical(w: Word) -> TimedWord:
    """Each letter becomes a duration-1 run (equal neighbours merge), on
    the grid q = 1, with no ``Fraction`` built."""
    letters = tuple(w)
    ones = [1] * len(letters)
    e = _from_ratios(letters, ones, ones)
    _check_letters(e.letters)
    return e


def scale(w: TimedWord, factor: DurationLike) -> TimedWord:
    """Multiply every duration by a positive rational factor."""
    factor = as_duration(factor)
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {_text(factor)}")
    return _on_grid(w.letters, [n * factor.numerator for n in w.counts], w.q * factor.denominator)


def letter_durations(w: TimedWord) -> dict[int, fractions.Fraction]:
    """Total duration per letter (the letter-duration histogram)."""
    totals: dict[int, int] = {}
    for c, n in zip(w.letters, w.counts):
        totals[c] = totals.get(c, 0) + n
    return {c: fractions.Fraction(n, w.q) for c, n in totals.items()}
