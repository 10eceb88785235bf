"""Words over an ordered alphabet {1..n}, semistandard tableaux, Schensted
insertion, reading words, and Knuth moves.

Words are plain tuples of integer letters (>= 1). All operations are pure;
tableaux are immutable and validated on construction.

Insertion, classical and timed, runs through one kernel (``_insert_runs``)
on runs with integer counts. A row is two parallel lists, ``letters``
(strictly increasing) and ``counts`` (positive), and so is the stream of
runs passed down from row to row. Timed insertion works on the grid 1/q of
its durations' common denominator q; classical insertion is the case where
every inserted count is 1. The insertion point is a plain bisect on the
row's letters. A unit run that lands inside a row is a swap: one unit of
the run it hits is bumped, and that run is shortened, overwritten, or
merged into an equal left neighbour in place.

Tableaux of both kinds have one validator, ``_check_grid``, over rows in
this run form on the grid 1/q: no empty row, strictly increasing letters
with counts >= 1, weakly decreasing lengths, and columns that strictly
increase downward, checked with one comparison per run. A classical tableau
is its q = 1 case. ``Tableau(rows)`` checks each row's letters and order,
then validates the rows' runs; the insertion functions validate the
kernel's own runs (at most one run per letter in a row) and build the
tableau without a second check.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from fractions import Fraction

from .errors import BudgetExceededError, InvalidTableauError, NotARowError, _quote

Word = tuple[int, ...]
# Runs with integer counts as two parallel lists, letters and counts: the
# kernel's row and stream form, and every grid word's.
Grid = tuple[list[int], list[int]]


def _check_letters(letters) -> None:
    for c in letters:
        if not isinstance(c, int) or isinstance(c, bool) or c < 1:
            raise ValueError(f"letters must be integers >= 1, got {c!r}")


def is_row(w: Word) -> bool:
    """True when w is weakly increasing; the empty word counts as a row."""
    return all(a <= b for a, b in zip(w, w[1:]))


def row_insert(u: Word, a: int) -> tuple[int | None, Word]:
    """Insert the letter a into the row u.

    Appends when a is at least every entry of u. Otherwise the leftmost entry
    greater than a is replaced by a and returned as the bumped letter.
    """
    if not is_row(u):
        raise NotARowError(f"row_insert needs a weakly increasing word, got {_quote(u)}")
    _check_letters(u)
    _check_letters((a,))
    row = _runs(u)
    bumped, _ = _bump_runs(*row, [a], [1])
    (new_row,) = _tableau([row]).rows
    return (bumped[0] if bumped else None), new_row


class _Value:
    """The base of the value classes: ``_fields`` names the fields, which
    ``__init__`` writes into the instance ``__dict__``. A value equals only
    an object of its own class with equal fields, hashes as the tuple of its
    fields, is false when its first field is empty, and refuses assignment
    and deletion."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __bool__(self) -> bool:
        return bool(getattr(self, self._fields[0]))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Tableau(_Value):
    """Semistandard Young tableau; rows stored top row first.

    Invariants, enforced on construction: rows weakly increase, row lengths
    weakly decrease, columns strictly increase, and no row is empty.
    """

    _fields = ("rows",)

    def __init__(self, rows: tuple[Word, ...] = ()):
        self.__dict__["rows"] = rows
        for i, row in enumerate(rows):
            if not row:
                raise InvalidTableauError(f"row {i} is empty")
            # Letters first: _runs would merge 1 and True.
            _check_letters(row)
            if not is_row(row):
                raise InvalidTableauError(f"row {i} is not weakly increasing: {_quote(row)}")
        _check_grid([_runs(row) for row in rows], 1, rows)

    def __str__(self) -> str:
        return "\n".join(" ".join(map(str, row)) for row in self.rows)


def shape(t: Tableau) -> tuple[int, ...]:
    """Row lengths, top row first (an integer partition)."""
    return tuple(len(row) for row in t.rows)


def reading_word(t: Tableau) -> Word:
    """Rows concatenated left to right, starting from the bottom row."""
    out: list[int] = []
    for row in reversed(t.rows):
        out.extend(row)
    return tuple(out)


def _bump_runs(
    letters: list[int], counts: list[int], stream_letters, stream_counts
) -> Grid:
    """Insert the integer runs a^d of the stream into the row, in order, and
    return the bumped runs in the same parallel-list form. Each a^d goes in
    after the last entry <= a and bumps the next d units of the row (fewer
    if the row ends first)."""
    out_letters: list[int] = []
    out_counts: list[int] = []
    last = 0  # the last bumped letter; letters are >= 1
    for a, d in zip(stream_letters, stream_counts):
        j = bisect_right(letters, a)
        merge = j and letters[j - 1] == a
        if j == len(letters):
            if merge:
                counts[j - 1] += d
            else:
                letters.append(a)
                counts.append(d)
            continue
        if d == 1:
            # One unit bumps one unit of run j: a swap inside the row.
            c = letters[j]
            if c == last:
                out_counts[-1] += 1
            else:
                out_letters.append(c)
                out_counts.append(1)
                last = c
            if counts[j] > 1:
                counts[j] -= 1
                if merge:
                    counts[j - 1] += 1
                else:
                    letters.insert(j, a)
                    counts.insert(j, 1)
            elif merge:
                counts[j - 1] += 1
                del letters[j], counts[j]
            else:
                letters[j] = a
            continue
        k = j
        rest = d
        end = len(letters)
        while rest and k < end:
            c = letters[k]
            n = counts[k]
            if n > rest:
                counts[k] = n - rest
                n = rest
            else:
                k += 1
            rest -= n
            if c == last:
                out_counts[-1] += n
            else:
                out_letters.append(c)
                out_counts.append(n)
                last = c
        if merge:
            counts[j - 1] += d
            del letters[j:k], counts[j:k]
        elif k == j + 1:
            letters[j] = a
            counts[j] = d
        else:
            letters[j:k] = (a,)
            counts[j:k] = (d,)
    return out_letters, out_counts


def _insert_runs(rows: list[Grid], letters, counts) -> None:
    """The insertion kernel: pass the stream of runs (letters, counts)
    through rows top to bottom, each row's bumped runs feeding the next, and
    open a row for any residue. Row by row equals run by run: each row sees
    the same stream in order."""
    i = 0
    while letters:
        if i == len(rows):
            rows.append(([], []))
        letters, counts = _bump_runs(*rows[i], letters, counts)
        i += 1


def _runs(row: Word) -> Grid:
    """A weakly increasing row of letters as runs: its distinct letters and
    their counts, each run's end found by bisection."""
    letters: list[int] = []
    counts: list[int] = []
    i = 0
    while i < len(row):
        c = row[i]
        j = bisect_right(row, c, i)
        letters.append(c)
        counts.append(j - i)
        i = j
    return letters, counts


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


def _check_grid(grid: list[Grid], q: int, rows) -> None:
    """The one tableau validator, for both kinds: rows given on the grid
    1/q (q = 1 for classical rows), with ``rows`` the caller's row objects,
    used only to quote an offending row. Raises InvalidTableauError naming
    the first violation: an empty row, a row that is not a timed row
    (letters not strictly increasing, or a count below 1), a row longer than
    the one above, or two rows not strictly increasing downward."""
    for i, (letters, counts) in enumerate(grid):
        if not letters:
            raise InvalidTableauError(f"row {i} is empty")
        if min(counts) < 1 or any(a >= b for a, b in zip(letters, letters[1:])):
            raise InvalidTableauError(f"row {i} is not a timed row: {_quote(rows[i])}")
    lengths = [sum(counts) for _, counts in grid]
    for i in range(len(grid) - 1):
        if lengths[i] < lengths[i + 1]:
            raise InvalidTableauError(
                f"row {i + 1} is longer than row {i} "
                f"({Fraction(lengths[i + 1], q)} > {Fraction(lengths[i], q)})"
            )
        if not _column_strict(grid[i], grid[i + 1]):
            raise InvalidTableauError(
                f"rows {i} and {i + 1} are not strictly increasing downward"
            )


def _tableau(rows: list[Grid]) -> Tableau:
    """The tableau of the kernel's runs, validated once on those runs with
    q = 1 (the built rows serve only to quote a bad one)."""
    # tuple() of a list comprehension has exact size; tuple() of a generator
    # resizes as it grows, which fragmented the heap over long runs.
    built = tuple([tuple([c for c, n in zip(*row) for _ in range(n)]) for row in rows])
    _check_grid(rows, 1, built)
    t = object.__new__(Tableau)
    t.__dict__["rows"] = built
    return t


def tableau_insert(t: Tableau, a: int) -> Tableau:
    """Insert a into t, bumping row by row; a surviving bump opens a new row."""
    _check_letters((a,))
    rows = [_runs(row) for row in t.rows]
    _insert_runs(rows, [a], [1])
    return _tableau(rows)


def insertion_tableau(w: Word) -> Tableau:
    """Schensted insertion of the letters of w, left to right, into the
    empty tableau."""
    _check_letters(w)
    rows: list[Grid] = []
    _insert_runs(rows, w, [1] * len(w))
    return _tableau(rows)


def insertion_steps(w: Word) -> list[Tableau]:
    """The tableau after each successive letter of w (len(w) entries)."""
    _check_letters(w)
    rows: list[Grid] = []
    steps: list[Tableau] = []
    for a in w:
        _insert_runs(rows, [a], [1])
        steps.append(_tableau(rows))
    return steps


def knuth_neighbors(w: Word) -> set[Word]:
    """All words one Knuth move away from w, in either direction.

    On a length-3 window (p, q, r): swapping p and q realizes xzy <-> zxy,
    allowed when p <= r < q or q <= r < p; swapping q and r realizes
    yxz <-> yzx, allowed when q < p <= r or r < p <= q.
    """
    out: set[Word] = set()
    for i in range(len(w) - 2):
        p, q, r = w[i], w[i + 1], w[i + 2]
        if p <= r < q or q <= r < p:
            out.add(w[:i] + (q, p, r) + w[i + 3 :])
        if q < p <= r or r < p <= q:
            out.add(w[:i] + (p, r, q) + w[i + 3 :])
    return out


def knuth_equivalent_bfs(w: Word, w2: Word, budget: int = 100_000) -> bool:
    """Decide Knuth equivalence by exhausting the move closure of w.

    Moves preserve length and letter multiset, so the class is finite; the
    search is exhaustive unless more than ``budget`` words get explored, in
    which case BudgetExceededError is raised (distinct from a False verdict).
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if w == w2:
        return True
    seen = {w}
    frontier = deque([w])
    while frontier:
        for nxt in knuth_neighbors(frontier.popleft()):
            if nxt == w2:
                return True
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > budget:
                    raise BudgetExceededError(
                        f"equivalence class of {_quote(w)} exceeds budget of {budget} words"
                    )
                frontier.append(nxt)
    return False


def knuth_equivalent(w: Word, w2: Word) -> bool:
    """Production-path decision: equal insertion tableaux."""
    return insertion_tableau(w) == insertion_tableau(w2)
