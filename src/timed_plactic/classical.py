"""Words over an ordered alphabet {1..n}, semistandard tableaux, Schensted
insertion, reading words, and Knuth moves.

Words are plain tuples of integer letters (>= 1). All operations are pure;
tableaux are immutable and validated on construction.

Every classical insertion runs one kernel, ``_insert_units``: Schensted's
own loop on rows spelt out as letters. Each letter walks down the rows,
one bisection per row step at most. A word makes n + sum((i - 1) * l_i)
row steps, which its tableau's shape l fixes. ``insertion_tableau`` starts
from no rows, ``insertion_steps`` keeps one list of spelt rows across its
letters, ``tableau_insert`` copies the tableau's rows into lists,
and ``row_insert`` inserts into its one row and reads the bumped letter off
the row below. Timed insertion runs its own kernel, on runs with integer
counts, in :mod:`.timed_tableaux`; the self-check compares the two through
the timed embedding.

Each kind of tableau has one stored form and one builder. A classical
tableau is stored as ``rows``, a tuple of rows, each a tuple of letters:
the rows the kernel spelt, frozen, or the rows ``Tableau(rows)`` was given,
copied into tuples once they are checked. Equality, hash, truth, ``repr``,
``shape``, ``reading_word``, ``str`` and the text and JSON writers read
them. The insertion functions check the kernel's rows once, with every
loop over rows and letters at C speed (``_valid``): no empty row, rows
weakly increasing, lengths weakly decreasing, and columns strictly
increasing downward. Only when that fails does ``_checked``, which
``Tableau(rows)`` runs on its rows, name the first violation. ``grid``,
each row's runs on the grid 1/q for q = 1, the form a timed tableau
stores, is built on first read by ``embed_classical_tableau`` alone. A
timed tableau is stored on its grid and built by
``timed_tableaux._tableau``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Sequence
from functools import cached_property
from itertools import chain, islice, repeat
from math import gcd
from operator import eq, ge, le, lt

from .errors import BudgetExceededError, InvalidTableauError, NotARowError, _entries, _quote

Word = tuple[int, ...]
# Runs with integer counts as two parallel lists, letters and counts: the
# form of every grid word and timed tableau row, and the timed kernel's
# stream.
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
    try:
        return all(map(le, w, w[1:]))
    except TypeError:  # not a sequence, or letters that do not compare
        raise TypeError(f"is_row needs a word, got {_quote(w)}") from None


def row_insert(u: Word, a: int) -> tuple[int | None, Word]:
    """Insert the letter a into the row u.

    Appends when a is at least every entry of u. Otherwise the leftmost entry
    greater than a is replaced by a and returned as the bumped letter.
    """
    try:
        row = isinstance(u, Sequence) and is_row(u)
    except TypeError:  # letters that do not compare
        row = False
    if not row:
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
    own class with an equal key, hashes as the tuple of its key's values, is
    false when its first key attribute is empty, and refuses assignment and
    deletion."""

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


class Tableau(_Value):
    """Semistandard Young tableau; rows stored top row first, spelt out as
    tuples of letters.

    Invariants, enforced on construction: rows weakly increase, row lengths
    weakly decrease, columns strictly increase, and no row is empty.

    ``Tableau(rows)`` reads its rows once, from any iterable of sequences,
    and stores them as a tuple of tuples; it keeps nothing of the caller's
    objects. So rows given as lists, or by an iterator, equal, hash and
    repr as the same rows given as tuples. ``grid``, each row's runs on the
    grid 1/q for q = 1, is built on first read, for the timed embedding.
    """

    _fields = ("rows",)
    q = 1

    def __init__(self, rows: tuple[Word, ...] = ()):
        self.__dict__["rows"] = _checked(rows)

    @cached_property
    def grid(self) -> tuple[tuple[Word, Word], ...]:
        return tuple([tuple(map(tuple, _runs(row))) for row in self.rows])

    def __str__(self) -> str:
        return "\n".join([" ".join(map(str, row)) for row in self.rows])


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
    return tuple(map(len, t.rows))


def reading_word(t: Tableau) -> Word:
    """Rows concatenated left to right, starting from the bottom row."""
    return tuple(chain.from_iterable(reversed(t.rows)))


def _insert_units(spelt: list[list[int]], w) -> list[list[int]]:
    """The classical kernel: insert the letters of w into the rows
    ``spelt``, each a nonempty list of its letters, in place, and return
    them. Schensted's own loop.

    Each letter walks down the rows. It is appended to a row whose last
    entry it is at least, and stops; otherwise ``bisect_right`` finds the
    first entry above it, which it takes the place of, and the bumped entry
    walks on to the next row. A letter that passes every row opens a new
    one. The letters are compared as they are, with no ranking."""
    for a in w:
        for row in spelt:
            if a >= row[-1]:
                row.append(a)
                break
            i = bisect_right(row, a)
            row[i], a = a, row[i]
        else:
            spelt.append([a])
    return spelt


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


def _grid_gcd(q: int, counts) -> int:
    """``gcd(q, *counts)``, the factor that puts counts on the grid 1/q onto
    the smallest grid. It starts from the gcd of q and two sums of the
    counts, a multiple of the answer. When the answer is small (a word whose
    runs have coprime denominators) that start is small too, often 1, so the
    gcd does not carry a running value of q's size through every count."""
    return gcd(gcd(q, sum(counts), sum(counts[::2])), *counts)


def _checked(rows) -> tuple[Word, ...]:
    """The classical tableau validator: ``rows`` as a tuple of tuples, the
    tableau's stored form, once they are checked. Raises InvalidTableauError
    naming the first violation: a row that is not a sequence, an empty row,
    a row that is not weakly increasing, a row longer than the one above,
    or two rows not strictly increasing downward. Each row's letters are
    checked by ``_check_letters``, which raises ValueError, after the row's
    emptiness and before its order. A row and a pair of rows are each
    checked by one ``map`` of ``operator.le`` or ``operator.lt``. ``rows``
    may be any iterable: it is read once, into a tuple, before any check."""
    rows = _entries(rows, InvalidTableauError, "rows must be an iterable of rows")
    for i, row in enumerate(rows):
        if not isinstance(row, Sequence):
            raise InvalidTableauError(f"row {i} is not a sequence of letters: {_quote(row)}")
        if not row:
            raise InvalidTableauError(f"row {i} is empty")
        _check_letters(row)
        if not is_row(row):
            raise InvalidTableauError(f"row {i} is not weakly increasing: {_quote(row)}")
    rows = tuple(map(tuple, rows))
    for i in range(1, len(rows)):
        upper, lower = rows[i - 1], rows[i]
        if len(upper) < len(lower):
            raise InvalidTableauError(
                f"row {i} is longer than row {i - 1} ({len(lower)} > {len(upper)})"
            )
        if not all(map(lt, upper, lower)):
            raise InvalidTableauError(f"rows {i - 1} and {i} are not strictly increasing downward")
    return rows


def _valid(rows: tuple[Word, ...]) -> bool:
    """Whether rows of integer letters, as tuples, form a tableau: what
    ``_checked`` checks, with every loop over rows and letters at C speed.
    A row of integers is weakly increasing when ``sorted`` leaves it as it
    is, and a pair of rows is checked by a ``map`` of ``operator.lt`` made
    by ``map`` itself."""
    lengths = list(map(len, rows))
    return (
        all(lengths)
        and all(map(eq, map(sorted, rows), map(list, rows)))
        and all(map(ge, lengths, islice(lengths, 1, None)))
        and all(map(all, map(map, repeat(lt), rows, islice(rows, 1, None))))
    )


def _kernel_tableau(spelt: list[list[int]]) -> Tableau:
    """The tableau whose rows are the kernel's spelt rows, stored as tuples
    once ``_valid`` accepts them; otherwise ``_checked`` names the first
    violation. The kernel's letters were checked on the way in."""
    rows = tuple(map(tuple, spelt))
    if not _valid(rows):
        _checked(rows)
    t = object.__new__(Tableau)
    t.__dict__["rows"] = rows
    return t


def tableau_insert(t: Tableau, a: int) -> Tableau:
    """Insert a into t, bumping row by row; a surviving bump opens a new row."""
    if not isinstance(t, Tableau):
        raise InvalidTableauError(f"tableau_insert needs a tableau, got {_quote(t)}")
    _check_letters((a,))
    return _kernel_tableau(_insert_units(list(map(list, t.rows)), (a,)))


def insertion_tableau(w: Word) -> Tableau:
    """Schensted insertion of the letters of w, left to right, into the
    empty tableau."""
    _check_letters(w)
    return _kernel_tableau(_insert_units([], w))


def insertion_steps(w: Word) -> list[Tableau]:
    """The tableau after each successive letter of w (len(w) entries). One
    list of spelt rows is kept across the letters, and each tableau holds
    its own tuples of them, so a later letter changes no earlier tableau."""
    _check_letters(w)
    spelt: list[list[int]] = []
    return [_kernel_tableau(_insert_units(spelt, (a,))) for a in w]


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
