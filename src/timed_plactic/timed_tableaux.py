"""Timed tableaux and timed Schensted insertion.

A timed tableau is a stack of timed rows (top row first) with weakly
decreasing lengths in which, at every time t covered by both, a lower row's
value strictly exceeds the row above. The checks run on integer counts: with
q the lcm of every run denominator, each row becomes its letters and their
counts on the grid 1/q, two parallel lists, and lengths and column
strictness are integer comparisons. Both rows are step functions, so this
settles every t exactly.

A tableau is stored on one integer grid, as a timed word is: ``grid`` holds
each row's letters and counts as tuples, and ``q`` is the smallest
denominator for the whole tableau, so ``gcd(q, *every count) == 1``. The
form is canonical: two tableaux are equal exactly when their grids and q
are. ``rows``, the one field, gives the rows as timed words; it is built on
first read and cached. Shape, reading word, equality, hash, truth, and
text and JSON output, ``str`` and ``repr`` included, read the grid.

Timed insertion puts its words on one grid the same way, and its run
kernel (``_cascade``, behind ``_insert_runs`` and, for one row,
``_bump_runs``) inserts the counts. A kernel call ranks the letters of the
word and of the rows it is given once and keeps one dense buffer, a count
per rank (``_buffer``). A row pass fills it from the row's runs; a run a^d
finds the next rank present above a in at most three cells or one
``bytearray.find`` and takes d units from that rank onward, and equal
bumped ranks merge into one run. The pass writes the row back by walking
the presence map, which leaves the buffer clear for the next row, and the
stream runs from row to row as ranks. Every row is written back in the
parallel-list form of the grid, so the kernel's rows become the returned
tableau's grid; no ``Fraction`` and no row word is built. Inserting into a
tableau scales its grid onto the lcm of its q and the inserted row's.
Classical insertion, the unit-duration case, runs Schensted's own loop
(``classical._insert_units``); the self-check compares the two kernels
through ``embed_classical``.

Each kind of tableau has one stored form and one builder. A timed tableau
is built and validated once, by ``_tableau``, and stores only ``grid`` and
``q``. ``TimedTableau(rows)``, for user and JSON input, reads its rows once,
from any iterable of timed words, and passes them on their grid; it keeps
nothing of them, so its ``rows`` is the cached view of the grid, as an
inserted tableau's is. The insertion functions pass the kernel's own rows
and q, which become the grid without a second check.
``embed_classical_tableau`` passes a classical tableau's grid with q = 1:
the only place a classical tableau's rows are read as runs. A classical
tableau is stored as its rows spelt out as letters (:mod:`.classical`).
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from operator import lt

from .classical import Grid, Tableau, _grid_gcd, _runs_text, _Value
from .errors import InvalidTableauError, NotARowError, _entries, _quote, _text, fractions
from .timed_words import (
    DurationLike,
    Run,
    TimedWord,
    _grid,
    _joined,
    _on_grid,
    _to_grid,
    as_duration,
    is_timed_row,
)


def _buffer(k: int) -> tuple[list[int], bytearray]:
    """The run kernel's clear dense row over k letter ranks: a count per
    rank followed by three nonzero sentinel cells, and a presence map of the
    ranks whose count is nonzero, with its own sentinel at k."""
    present = bytearray(k + 1)
    present[k] = 1
    return [0] * k + [1, 1, 1], present


def _cascade(rows: list[Grid], stream_letters, stream_counts, grow: bool) -> Grid:
    """The run kernel: pass the stream of runs a^d (letters, counts) through
    rows top to bottom, each row rewritten in place and its bumped runs
    feeding the next; open a row for any residue when ``grow``, or else
    return the runs bumped out of the last row. Row by row equals run by
    run: each row sees the same stream in order.

    The call ranks the letters of the stream and the rows once, and every
    row pass shares one dense buffer (``_buffer``); the stream passes from
    row to row as ranks. A pass fills the buffer from the row's runs. Each
    a^d finds the next rank present above a in at most three cells or one
    ``find``, takes d units from that rank onward (fewer if the row ends
    first), and adds d to a's count; equal bumped ranks in a row merge into
    one run. The row is written back by walking ``present``, which clears
    every cell the pass left nonzero."""
    alpha = sorted(set(stream_letters).union(*[row[0] for row in rows]))
    k = len(alpha)
    rank = dict(zip(alpha, range(k)))
    cnt, present = _buffer(k)
    find = present.find
    stream = [rank[c] for c in stream_letters]
    i = 0
    while stream:
        if i == len(rows):
            if not grow:
                break
            rows.append(([], []))
        letters, counts = rows[i]
        i += 1
        for c, n in zip(letters, counts):
            c = rank[c]
            cnt[c] = n
            present[c] = 1
        out: list[int] = []
        out_counts: list[int] = []
        last = -1  # the last bumped rank
        for a, d in zip(stream, stream_counts):
            c = a + 1
            if not cnt[c]:
                c += 1
                if not cnt[c]:
                    c += 1
                    if not cnt[c]:
                        c = find(1, c + 1)
            rest = d
            while c < k:
                n = cnt[c]
                if n > rest:
                    cnt[c] = n - rest
                    n = rest
                else:
                    cnt[c] = 0
                    present[c] = 0
                if c == last:
                    out_counts[-1] += n
                else:
                    out.append(c)
                    out_counts.append(n)
                    last = c
                rest -= n
                if not rest:
                    break
                c = find(1, c + 1)
            n = cnt[a]
            if not n:
                present[a] = 1
            cnt[a] = n + d
        letters.clear()
        counts.clear()
        c = find(1)
        while c < k:
            letters.append(alpha[c])
            counts.append(cnt[c])
            cnt[c] = 0
            present[c] = 0
            c = find(1, c + 1)
        stream = out
        stream_counts = out_counts
    return [alpha[c] for c in stream], list(stream_counts)


def _bump_runs(
    letters: list[int], counts: list[int], stream_letters, stream_counts
) -> Grid:
    """Insert the integer runs a^d of the stream into the row, in order, and
    return the bumped runs in the same parallel-list form. Each a^d goes in
    after the last entry <= a and bumps the next d units of the row (fewer
    if the row ends first): the run kernel on one row."""
    return _cascade([(letters, counts)], stream_letters, stream_counts, False)


def _insert_runs(rows: list[Grid], letters, counts) -> None:
    """The insertion kernel: pass the stream of runs (letters, counts)
    through rows top to bottom and open a row for any residue."""
    _cascade(rows, letters, counts, True)


class TimedTableau(_Value):
    """Stack of timed rows, top row first; validated on construction, and
    stored as ``grid`` and ``q`` alone, whatever it was built from.
    ``rows``, the one field, is built from the grid on first read and
    cached; equality, hash, truth and the writers read the grid."""

    _fields = ("rows",)
    _key = ("grid", "q")

    def __init__(self, rows: tuple[TimedWord, ...] = ()):
        rows = _entries(rows, InvalidTableauError, "rows must be an iterable of timed words")
        for i, row in enumerate(rows):
            if not isinstance(row, TimedWord):
                raise InvalidTableauError(f"row {i} is not a timed word: {_quote(row)}")
        q = _grid(*rows)
        grid = [_to_grid(row, q) for row in rows]
        self.__dict__.update(_tableau(grid, q).__dict__)

    @cached_property
    def rows(self) -> tuple[TimedWord, ...]:
        return tuple([_on_grid(*row, self.q) for row in self.grid])

    def __str__(self) -> str:
        return "\n".join([_runs_text(*row, self.q) for row in self.grid])

    def __repr__(self) -> str:
        return "TimedTableau({})".format(" | ".join(f"'{row}'" for row in str(self).splitlines()))


def _column_strict(upper: Grid, lower: Grid) -> bool:
    # Grid rows, upper at least as long as lower. Rows increase left to
    # right, so over each run of lower the upper row is largest at the run's
    # last grid cell: one comparison per run of lower is exact.
    u_letters, u_counts = upper
    k = 0
    u_end = u_counts[0]
    l_end = 0
    for letter, n in zip(*lower):
        l_end += n
        while u_end < l_end:
            k += 1
            u_end += u_counts[k]
        if u_letters[k] >= letter:
            return False
    return True


def _tableau(rows: list[Grid], q: int) -> TimedTableau:
    """The one timed tableau builder and validator: the tableau whose rows
    are given as runs on the grid 1/q, stored on its smallest grid. Raises
    InvalidTableauError naming the first violation: an empty row, a row that
    is not a timed row (letters not strictly increasing, or a count below
    1), a row longer than the one above, or two rows not strictly increasing
    downward. Rows are built only to quote a bad one.

    The counts are copied unchanged when they are already on the smallest
    grid, and a row's letters are checked for strict increase by one ``map``
    of ``operator.lt`` over neighbours."""
    g = _grid_gcd(q, [n for _, counts in rows for n in counts]) if q > 1 else 1
    t = object.__new__(TimedTableau)
    grid = tuple([(tuple(letters), tuple(counts) if g == 1 else tuple([n // g for n in counts]))
                  for letters, counts in rows])
    t.__dict__.update(grid=grid, q=q // g)
    for i, (letters, counts) in enumerate(grid):
        if not letters:
            raise InvalidTableauError(f"row {i} is empty")
        if min(counts) < 1 or not all(map(lt, letters, islice(letters, 1, None))):
            raise InvalidTableauError(f"row {i} is not a timed row: {_quote(t.rows[i])}")
    lengths = [sum(counts) for _, counts in grid]
    for i in range(len(grid) - 1):
        if lengths[i] < lengths[i + 1]:
            raise InvalidTableauError(
                f"row {i + 1} is longer than row {i} "
                f"({_text(fractions.Fraction(lengths[i + 1], t.q))} > "
                f"{_text(fractions.Fraction(lengths[i], t.q))})"
            )
        if not _column_strict(grid[i], grid[i + 1]):
            raise InvalidTableauError(
                f"rows {i} and {i + 1} are not strictly increasing downward"
            )
    return t


def timed_shape(t: TimedTableau) -> tuple[fractions.Fraction, ...]:
    """Row lengths as exact rationals, top row first."""
    return tuple([fractions.Fraction(sum(counts), t.q) for _, counts in t.grid])


def timed_reading_word(t: TimedTableau) -> TimedWord:
    """Rows concatenated bottom row first."""
    return _joined(reversed(t.grid), t.q)


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
    if not (isinstance(w, TimedWord) and is_timed_row(w)):
        raise NotARowError(f"timed_row_insert needs a timed row, got {_quote(w)}")
    dur = as_duration(duration)
    if dur <= 0:
        raise ValueError(f"inserted duration must be positive, got {_text(dur)}")
    return timed_row_insert_word(w, TimedWord((Run(letter, dur),)))


def timed_row_insert_word(w: TimedWord, u: TimedWord) -> tuple[TimedWord, TimedWord]:
    """Insert the runs of u into the timed row w, left to right, concatenating
    the bumped pieces in order. l(bumped) + l(new_row) = l(w) + l(u)."""
    if not (isinstance(w, TimedWord) and is_timed_row(w)):
        raise NotARowError(f"timed_row_insert_word needs a timed row, got {_quote(w)}")
    if not isinstance(u, TimedWord):
        raise NotARowError(f"timed_row_insert_word inserts a timed word, got {_quote(u)}")
    q = _grid(w, u)
    row = _to_grid(w, q)
    bumped = _bump_runs(*row, *_to_grid(u, q))
    return _on_grid(*bumped, q), _on_grid(*row, q)


def timed_tableau_insert(t: TimedTableau, v: TimedWord) -> TimedTableau:
    """Insert the timed row v into t, cascading bumps downward; a nonempty
    residue below the last row becomes a new row."""
    if not (isinstance(v, TimedWord) and is_timed_row(v)):
        raise NotARowError(f"timed_tableau_insert needs a timed row, got {_quote(v)}")
    if not isinstance(t, TimedTableau):
        raise InvalidTableauError(f"timed_tableau_insert needs a timed tableau, got {_quote(t)}")
    q = _grid(t, v)
    k = q // t.q
    rows = [(list(letters), [n * k for n in counts]) for letters, counts in t.grid]
    _insert_runs(rows, *_to_grid(v, q))
    return _tableau(rows, q)


def timed_insertion_tableau(w: TimedWord) -> TimedTableau:
    """Timed insertion of the runs of w, left to right, into the empty
    tableau."""
    rows: list[Grid] = []
    _insert_runs(rows, w.letters, w.counts)
    return _tableau(rows, w.q)


def timed_insertion_steps(w: TimedWord) -> list[TimedTableau]:
    """The tableau after each successive run of w (len(w.runs) entries)."""
    rows: list[Grid] = []
    steps: list[TimedTableau] = []
    for c, n in zip(w.letters, w.counts):
        _insert_runs(rows, [c], [n])
        steps.append(_tableau(rows, w.q))
    return steps


def embed_classical_tableau(t: Tableau) -> TimedTableau:
    """Reinterpret a classical tableau with every letter held for duration 1:
    its grid is the timed tableau's grid for q = 1."""
    return _tableau(t.grid, 1)
