"""Words over an ordered alphabet {1..n}, semistandard tableaux, Schensted
insertion, reading words, and Knuth moves.

Words are plain tuples of integer letters (>= 1). All operations are pure;
tableaux are immutable and validated on construction.

Every classical insertion runs one kernel, ``_insert_units``: Schensted's
own loop on rows spelt out as letters. Each letter walks down the rows,
one bisection per row step at most, and the rows are read as runs. A word
makes n + sum((i - 1) * l_i) row steps, which its tableau's shape l fixes.
``insertion_tableau`` starts from no rows, ``insertion_steps`` keeps one
list of spelt rows across its letters, ``tableau_insert`` spells out the
tableau's grid, and ``row_insert`` inserts into its one row and reads the
bumped letter off the row below. Timed insertion runs its own kernel, on
runs with integer counts, in :mod:`.timed_tableaux`; the self-check
compares the two through the timed embedding.

Tableaux of both kinds have one stored form and one builder. A tableau is
stored as ``grid``, each row's letters and counts as tuples, and ``q``, the
smallest denominator for the whole tableau; ``rows`` is built from the grid
on first read (``_GridTableau``), and no writer reads it: ``_reduced`` gives
a row's runs as reduced fractions, ``_spelt`` as letters. A classical
tableau is the q = 1 case, each row its runs of equal letters.
``_tableau(cls, rows, q)`` builds
either kind from rows in this run form on the grid 1/q and validates it
once: no empty row, strictly increasing letters with counts >= 1, weakly
decreasing lengths, and columns that strictly increase downward, checked
with one comparison per run. ``Tableau(rows)`` checks each row's letters
and order, then passes the rows' runs; the insertion functions pass the
kernel's own runs (at most one run per letter in a row).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd
from operator import lt

from .errors import BudgetExceededError, InvalidTableauError, NotARowError, _quote, _text

Word = tuple[int, ...]
# Runs with integer counts as two parallel lists, letters and counts: the
# form of every grid word and tableau row, and the timed kernel's stream.
Grid = tuple[list[int], list[int]]


def _check_letters(letters) -> None:
    """Refuse any letter that is not an integer >= 1 (``bool`` is not a
    letter). ``letters`` is a sequence. The test runs at C speed when every
    letter's type is exactly ``int``; otherwise, or when a letter is below
    1, the loop names the first bad letter, and accepts an ``int``
    subclass such as an ``IntEnum`` member."""
    if set(map(type, letters)) <= {int} and min(letters, default=1) >= 1:
        return
    for c in letters:
        if not isinstance(c, int) or isinstance(c, bool) or c < 1:
            raise ValueError(f"letters must be integers >= 1, got {_quote(c)}")


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
    spelt = [list(u)] if u else []
    _insert_units(spelt, (a,))
    return (spelt[1][0] if len(spelt) > 1 else None), tuple(spelt[0])


class _Value:
    """The base of the value classes: ``_fields`` names the fields, which
    ``__init__`` writes into the instance ``__dict__``. ``_key`` names the
    attributes that equality compares, hash and truth read, by default the
    fields; a class stored in another form than its fields (a grid) names
    that form, so equality, hash and truth need not build the fields, and
    its subclasses inherit that key. A value equals only an object of its
    own class with an equal key, hashes as the tuple of its key's values,
    is false when its first key attribute is empty, and refuses assignment
    and deletion."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._key = getattr(cls, "_key", cls._fields)

    def _values(self, names) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self._key) == other._values(self._key)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self._key))

    def __bool__(self) -> bool:
        return bool(getattr(self, self._key[0]))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _GridTableau(_Value):
    """The stored form of both tableau kinds: ``grid`` holds each row's
    letters and counts as tuples on the grid 1/q, with the smallest q for
    the whole tableau. ``rows``, the one field, is built from the grid by
    the kind's ``_row`` on first read and cached; equality, hash, truth and
    the writers read the grid."""

    _fields = ("rows",)
    _key = ("grid", "q")

    @cached_property
    def rows(self) -> tuple:
        return tuple([self._row(*row, self.q) for row in self.grid])


class Tableau(_GridTableau):
    """Semistandard Young tableau; rows stored top row first, as the q = 1
    grid of their runs.

    Invariants, enforced on construction: rows weakly increase, row lengths
    weakly decrease, columns strictly increase, and no row is empty.

    ``Tableau(rows)`` keeps the rows as given, and its repr reads them;
    equality, hash and ``str`` read the grid. So rows given as lists equal
    the same rows given as tuples, and hash as they do.
    """

    def __init__(self, rows: tuple[Word, ...] = ()):
        self.__dict__["rows"] = rows
        for i, row in enumerate(rows):
            if not row:
                raise InvalidTableauError(f"row {i} is empty")
            # Letters first: _runs would merge 1 and True.
            _check_letters(row)
            if not is_row(row):
                raise InvalidTableauError(f"row {i} is not weakly increasing: {_quote(row)}")
        self.__dict__.update(_tableau(Tableau, [_runs(row) for row in rows], 1).__dict__)

    @staticmethod
    def _row(letters, counts, q) -> Word:
        # tuple() of a list has exact size; tuple() of a generator resizes
        # as it grows, which fragmented the heap over long runs.
        return tuple(_spelt(letters, counts))

    def __str__(self) -> str:
        return "\n".join([" ".join(map(str, _spelt(*row))) for row in self.grid])


def _spelt(letters, counts) -> list[int]:
    """A classical row's runs spelt out as its list of letters: the one
    spelling that ``Tableau.rows``, ``reading_word``, ``tableau_insert``
    and the text and JSON writers share."""
    out: list[int] = []
    for c, n in zip(letters, counts):
        out += [c] * n
    return out


def _reduced(letters, counts, q: int):
    """Each run of counts on the grid 1/q as (letter, numerator,
    denominator), its count n over q reduced by one gcd: the one step from
    the grid to rationals that every writer of timed words and tableaux,
    text and JSON, shares. A tableau row may pass its tableau's q, a
    multiple of the row's own smallest q; n/q reduces to the same fraction
    on either grid."""
    for c, n in zip(letters, counts):
        g = gcd(n, q)
        yield c, n // g, q // g


def _ratio(num: int, den: int) -> str:
    """A reduced ratio as ``str(Fraction)`` spells it: ``p/q``, or ``p``
    when q is 1."""
    return f"{num}/{den}" if den > 1 else str(num)


def _runs_text(letters, counts, q: int, spell=_ratio) -> str:
    """The runs on the grid 1/q as ``letter^duration`` tokens, each
    duration's reduced numerator and denominator spelt by ``spell``."""
    return " ".join([f"{c}^{spell(n, d)}" for c, n, d in _reduced(letters, counts, q)])


def shape(t: Tableau) -> tuple[int, ...]:
    """Row lengths, top row first (an integer partition)."""
    return tuple([sum(counts) for _, counts in t.grid])


def reading_word(t: Tableau) -> Word:
    """Rows concatenated left to right, starting from the bottom row."""
    return tuple([c for row in reversed(t.grid) for c in _spelt(*row)])


def _insert_units(spelt: list[list[int]], w) -> list[Grid]:
    """The classical kernel: insert the letters of w into the rows
    ``spelt``, each a nonempty list of its letters, in place, and return
    the rows as runs. Schensted's own loop.

    Each letter walks down the rows. It is appended to a row whose last
    entry it is at least, and stops; otherwise ``bisect_right`` finds the
    first entry above it, which it takes the place of, and the bumped entry
    walks on to the next row. A letter that passes every row opens a new
    one. The letters are compared as they are, with no ranking, and each
    row is read as runs by ``_runs``."""
    for a in w:
        for row in spelt:
            if a >= row[-1]:
                row.append(a)
                break
            i = bisect_right(row, a)
            row[i], a = a, row[i]
        else:
            spelt.append([a])
    return [_runs(row) for row in spelt]


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


def _grid_gcd(q: int, counts) -> int:
    """``gcd(q, *counts)``, the factor that puts counts on the grid 1/q onto
    the smallest grid. It starts from the gcd of q and two sums of the
    counts, a multiple of the answer. When the answer is small (a word whose
    runs have coprime denominators) that start is small too, often 1, so the
    gcd does not carry a running value of q's size through every count."""
    return gcd(gcd(q, sum(counts), sum(counts[::2])), *counts)


def _tableau(cls, rows: list[Grid], q: int):
    """The one tableau builder and validator, for both kinds: the tableau of
    class cls whose rows are given as runs on the grid 1/q (q = 1 for
    classical rows), stored on its smallest grid. Raises InvalidTableauError
    naming the first violation: an empty row, a row that is not a timed row
    (letters not strictly increasing, or a count below 1), a row longer than
    the one above, or two rows not strictly increasing downward. Rows are
    built only to quote a bad one.

    The counts are copied unchanged when they are already on the smallest
    grid (always for classical rows), and a row's letters are checked for
    strict increase by one ``map`` of ``operator.lt`` over neighbours."""
    g = _grid_gcd(q, [n for _, counts in rows for n in counts]) if q > 1 else 1
    t = object.__new__(cls)
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
                f"({_text(Fraction(lengths[i + 1], t.q))} > {_text(Fraction(lengths[i], t.q))})"
            )
        if not _column_strict(grid[i], grid[i + 1]):
            raise InvalidTableauError(
                f"rows {i} and {i + 1} are not strictly increasing downward"
            )
    return t


def tableau_insert(t: Tableau, a: int) -> Tableau:
    """Insert a into t, bumping row by row; a surviving bump opens a new row."""
    _check_letters((a,))
    return _tableau(Tableau, _insert_units([_spelt(*row) for row in t.grid], (a,)), 1)


def insertion_tableau(w: Word) -> Tableau:
    """Schensted insertion of the letters of w, left to right, into the
    empty tableau."""
    _check_letters(w)
    return _tableau(Tableau, _insert_units([], w), 1)


def insertion_steps(w: Word) -> list[Tableau]:
    """The tableau after each successive letter of w (len(w) entries)."""
    _check_letters(w)
    spelt: list[list[int]] = []
    return [_tableau(Tableau, _insert_units(spelt, (a,)), 1) for a in w]


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
