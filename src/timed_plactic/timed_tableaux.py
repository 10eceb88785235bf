"""Timed tableaux and timed Schensted insertion.

A timed tableau is a stack of timed rows (top row first) with weakly
decreasing lengths in which, at every time t covered by both, a lower row's
value strictly exceeds the row above. The checks run on integer counts: with
q the lcm of every run denominator, each row becomes its letters and their
counts on the grid 1/q, two parallel lists, and lengths and column
strictness are integer comparisons. Both rows are step functions, so this
settles every t exactly.

Timed insertion clears denominators once per call the same way: the
integer-run kernel of :mod:`.classical` inserts the counts, in the same
parallel-list form (classical insertion is its unit-duration case), and
they go back to exact ``Fraction(n, q)`` durations once, in the returned
tableau.

Each tableau is validated once, by the grid validator that classical
tableaux share as its q = 1 case (``classical._check_grid``).
``TimedTableau(rows)``, for user and JSON input, puts its rows on their grid
and calls it. The insertion functions call it on the kernel's own rows and
q, then build the tableau without a second check, each row's length
``Fraction(sum(counts), q)`` filled into its cache, so ``timed_shape``
computes no lcm. ``embed_classical_tableau`` goes the same way from a
classical tableau's runs with q = 1.
"""

from __future__ import annotations

from fractions import Fraction

from .classical import Grid, Tableau, _bump_runs, _check_grid, _insert_runs, _runs, _Value
from .errors import NotARowError, _quote
from .timed_words import (
    DurationLike,
    Run,
    TimedWord,
    _grid,
    _to_grid,
    _word,
    as_duration,
    concat,
    is_timed_row,
)


class TimedTableau(_Value):
    """Stack of timed rows, top row first; validated on construction."""

    _fields = ("rows",)

    def __init__(self, rows: tuple[TimedWord, ...] = ()):
        self.__dict__["rows"] = rows
        q = _grid(*rows)
        _check_grid([_to_grid(row, q) for row in rows], q, rows)

    def __str__(self) -> str:
        return "\n".join(str(row) for row in self.rows)

    def __repr__(self) -> str:
        return "TimedTableau({})".format(" | ".join(f"'{row}'" for row in self.rows))


def _row(row: Grid, q: int) -> TimedWord:
    """A kernel row back as exact durations n/q, built without a second
    check; its length fills the ``length`` cache."""
    letters, counts = row
    return _word(
        tuple([Run(c, Fraction(n, q)) for c, n in zip(letters, counts)]),
        Fraction(sum(counts), q),
    )


def _tableau(rows: list[Grid], q: int) -> TimedTableau:
    """The tableau of the kernel's grid rows, validated once on the grid
    (the built rows serve only to quote a bad one), without a second check."""
    built = tuple([_row(row, q) for row in rows])
    _check_grid(rows, q, built)
    t = object.__new__(TimedTableau)
    t.__dict__["rows"] = built
    return t


def timed_shape(t: TimedTableau) -> tuple[Fraction, ...]:
    """Row lengths as exact rationals, top row first."""
    return tuple(row.length for row in t.rows)


def timed_reading_word(t: TimedTableau) -> TimedWord:
    """Rows concatenated bottom row first."""
    return concat(*reversed(t.rows))


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
        raise NotARowError(f"timed_row_insert needs a timed row, got {_quote(w)}")
    dur = as_duration(duration)
    if dur <= 0:
        raise ValueError(f"inserted duration must be positive, got {dur}")
    return timed_row_insert_word(w, TimedWord((Run(letter, dur),)))


def timed_row_insert_word(w: TimedWord, u: TimedWord) -> tuple[TimedWord, TimedWord]:
    """Insert the runs of u into the timed row w, left to right, concatenating
    the bumped pieces in order. l(bumped) + l(new_row) = l(w) + l(u)."""
    if not is_timed_row(w):
        raise NotARowError(f"timed_row_insert_word needs a timed row, got {_quote(w)}")
    q = _grid(w, u)
    row = _to_grid(w, q)
    bumped = _bump_runs(*row, *_to_grid(u, q))
    return _row(bumped, q), _row(row, q)


def timed_tableau_insert(t: TimedTableau, v: TimedWord) -> TimedTableau:
    """Insert the timed row v into t, cascading bumps downward; a nonempty
    residue below the last row becomes a new row."""
    if not is_timed_row(v):
        raise NotARowError(f"timed_tableau_insert needs a timed row, got {_quote(v)}")
    q = _grid(v, *t.rows)
    rows = [_to_grid(row, q) for row in t.rows]
    _insert_runs(rows, *_to_grid(v, q))
    return _tableau(rows, q)


def timed_insertion_tableau(w: TimedWord) -> TimedTableau:
    """Timed insertion of the runs of w, left to right, into the empty
    tableau."""
    q = _grid(w)
    rows: list[Grid] = []
    _insert_runs(rows, *_to_grid(w, q))
    return _tableau(rows, q)


def timed_insertion_steps(w: TimedWord) -> list[TimedTableau]:
    """The tableau after each successive run of w (len(w.runs) entries)."""
    q = _grid(w)
    rows: list[Grid] = []
    steps: list[TimedTableau] = []
    for c, n in zip(*_to_grid(w, q)):
        _insert_runs(rows, [c], [n])
        steps.append(_tableau(rows, q))
    return steps


def embed_classical_tableau(t: Tableau) -> TimedTableau:
    """Reinterpret a classical tableau with every letter held for duration 1:
    its rows' runs are the grid rows for q = 1."""
    return _tableau([_runs(row) for row in t.rows], 1)
