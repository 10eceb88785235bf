"""Timed tableaux and timed Schensted insertion.

A timed tableau is a stack of timed rows (top row first) with weakly
decreasing lengths in which, at every time t covered by both, a lower row's
value strictly exceeds the row above. The strictness check is exact: both
rows are step functions, so comparing them on the merged run boundaries
settles every t.

Timed insertion clears denominators once per call: with q the lcm of the
input's run denominators, every duration becomes an integer count on the
grid 1/q, the integer-run kernel of :mod:`.classical` inserts them (classical
insertion is its unit-duration case), and the counts go back to exact
``Fraction(n, q)`` durations. Each returned tableau is validated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .classical import Tableau, _bump_runs, _insert_runs
from .errors import InvalidTableauError, NotARowError
from .timed_words import (
    DurationLike,
    Run,
    TimedWord,
    as_duration,
    concat,
    embed_classical,
    is_timed_row,
)


def _column_strict(upper: TimedWord, lower: TimedWord) -> bool:
    # Walk both run lists over [0, l(lower)); each segment between merged
    # boundaries has constant values, so one comparison per segment is exact.
    limit = lower.length
    ui = li = 0
    u_end = upper.runs[0].duration
    l_end = lower.runs[0].duration
    pos = Fraction(0)
    while pos < limit:
        if upper.runs[ui].letter >= lower.runs[li].letter:
            return False
        nxt = min(u_end, l_end)
        pos = nxt
        if pos >= limit:
            break
        if u_end == nxt:
            ui += 1
            u_end += upper.runs[ui].duration
        if l_end == nxt:
            li += 1
            l_end += lower.runs[li].duration
    return True


@dataclass(frozen=True, repr=False)
class TimedTableau:
    """Stack of timed rows, top row first; validated on construction."""

    rows: tuple[TimedWord, ...] = ()

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if not row:
                raise InvalidTableauError(f"row {i} is empty")
            if not is_timed_row(row):
                raise InvalidTableauError(f"row {i} is not a timed row: {row!r}")
        for i in range(len(self.rows) - 1):
            upper, lower = self.rows[i], self.rows[i + 1]
            if upper.length < lower.length:
                raise InvalidTableauError(
                    f"row {i + 1} is longer than row {i} "
                    f"({lower.length} > {upper.length})"
                )
            if not _column_strict(upper, lower):
                raise InvalidTableauError(
                    f"rows {i} and {i + 1} are not strictly increasing downward"
                )

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __str__(self) -> str:
        return "\n".join(str(row) for row in self.rows)

    def __repr__(self) -> str:
        return "TimedTableau({})".format(" | ".join(f"'{row}'" for row in self.rows))


def timed_shape(t: TimedTableau) -> tuple[Fraction, ...]:
    """Row lengths as exact rationals, top row first."""
    return tuple(row.length for row in t.rows)


def timed_reading_word(t: TimedTableau) -> TimedWord:
    """Rows concatenated bottom row first."""
    return concat(*reversed(t.rows))


def _grid(*words: TimedWord) -> int:
    """The grid denominator q: the lcm of every run denominator."""
    return lcm(*(d.denominator for w in words for _, d in w.runs))


def _to_grid(w: TimedWord, q: int) -> list[list[int]]:
    return [[c, d.numerator * (q // d.denominator)] for c, d in w.runs]


def _from_grid(rows: list[list[list[int]]], q: int) -> tuple[TimedWord, ...]:
    return tuple([TimedWord(tuple([Run(c, Fraction(n, q)) for c, n in row])) for row in rows])


def timed_row_insert(
    w: TimedWord, letter: int, duration: DurationLike
) -> tuple[TimedWord, TimedWord]:
    """Insert the run letter^duration into the timed row w.

    If every value of w is at most the letter, the run is appended and nothing
    is bumped. Otherwise, with t0 the first time w exceeds the letter, the
    stretch of w of the run's duration starting at t0 is bumped out and the
    run takes its place (when less than the duration remains past t0, the
    whole tail from t0 is bumped). Returns (bumped, new_row); lengths satisfy
    l(bumped) + l(new_row) = l(w) + duration.
    """
    if not is_timed_row(w):
        raise NotARowError(f"timed_row_insert needs a timed row, got {w!r}")
    dur = as_duration(duration)
    if dur <= 0:
        raise ValueError(f"inserted duration must be positive, got {dur}")
    return timed_row_insert_word(w, TimedWord((Run(letter, dur),)))


def timed_row_insert_word(w: TimedWord, u: TimedWord) -> tuple[TimedWord, TimedWord]:
    """Insert the runs of u into the timed row w, left to right, concatenating
    the bumped pieces in order. l(bumped) + l(new_row) = l(w) + l(u)."""
    if not is_timed_row(w):
        raise NotARowError(f"timed_row_insert_word needs a timed row, got {w!r}")
    q = _grid(w, u)
    row = _to_grid(w, q)
    bumped = _bump_runs(row, _to_grid(u, q))
    return _from_grid([bumped, row], q)


def timed_tableau_insert(t: TimedTableau, v: TimedWord) -> TimedTableau:
    """Insert the timed row v into t, cascading bumps downward; a nonempty
    residue below the last row becomes a new row."""
    if not is_timed_row(v):
        raise NotARowError(f"timed_tableau_insert needs a timed row, got {v!r}")
    q = _grid(v, *t.rows)
    rows = [_to_grid(row, q) for row in t.rows]
    _insert_runs(rows, _to_grid(v, q))
    return TimedTableau(_from_grid(rows, q))


def timed_insertion_tableau(w: TimedWord) -> TimedTableau:
    """Timed insertion of the runs of w, left to right, into the empty
    tableau."""
    q = _grid(w)
    rows: list[list[list[int]]] = []
    _insert_runs(rows, _to_grid(w, q))
    return TimedTableau(_from_grid(rows, q))


def timed_insertion_steps(w: TimedWord) -> list[TimedTableau]:
    """The tableau after each successive run of w (len(w.runs) entries)."""
    q = _grid(w)
    rows: list[list[list[int]]] = []
    steps: list[TimedTableau] = []
    for run in _to_grid(w, q):
        _insert_runs(rows, [run])
        steps.append(TimedTableau(_from_grid(rows, q)))
    return steps


def embed_classical_tableau(t: Tableau) -> TimedTableau:
    """Reinterpret a classical tableau with every letter held for duration 1."""
    return TimedTableau(tuple(embed_classical(row) for row in t.rows))
