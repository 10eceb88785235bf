"""Words over an ordered alphabet {1..n}, semistandard tableaux, Schensted
insertion, reading words, and Knuth moves.

Words are plain tuples of integer letters (>= 1). All operations are pure;
tableaux are immutable and validated on construction.

Insertion, classical and timed, runs through one kernel (``_insert_runs``)
on mutable rows of ``[letter, count]`` runs with integer counts: timed
insertion works on the grid 1/q of its durations' common denominator q, and
classical insertion is the case where every count is 1. Each returned
tableau is built, and so validated, once.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from .errors import BudgetExceededError, InvalidTableauError, NotARowError

Word = tuple[int, ...]
_LETTER = itemgetter(0)


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
        raise NotARowError(f"row_insert needs a weakly increasing word, got {u}")
    _check_letters((a,))
    j = bisect_right(u, a)
    if j == len(u):
        return None, u + (a,)
    return u[j], u[:j] + (a,) + u[j + 1 :]


@dataclass(frozen=True)
class Tableau:
    """Semistandard Young tableau; rows stored top row first.

    Invariants, enforced on construction: rows weakly increase, row lengths
    weakly decrease, columns strictly increase, and no row is empty.
    """

    rows: tuple[Word, ...] = ()

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if not row:
                raise InvalidTableauError(f"row {i} is empty")
            _check_letters(row)
            if not is_row(row):
                raise InvalidTableauError(f"row {i} is not weakly increasing: {row}")
        for i in range(len(self.rows) - 1):
            upper, lower = self.rows[i], self.rows[i + 1]
            if len(upper) < len(lower):
                raise InvalidTableauError(
                    f"row {i + 1} is longer than row {i} ({len(lower)} > {len(upper)})"
                )
            for j, b in enumerate(lower):
                if upper[j] >= b:
                    raise InvalidTableauError(
                        f"column {j} is not strictly increasing between rows {i} and {i + 1}"
                    )

    def __bool__(self) -> bool:
        return bool(self.rows)

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


def _bump_runs(row: list[list[int]], stream) -> list[list[int]]:
    """Insert the integer runs ``(a, d)`` of stream into row, in order, and
    return the bumped runs. Each a^d goes in after the last entry <= a and
    bumps the next d units of the row (fewer if the row ends first)."""
    out: list[list[int]] = []
    for a, d in stream:
        j = k = bisect_right(row, a, key=_LETTER)
        rest = d
        while rest and k < len(row):
            c, n = run = row[k]
            if n > rest:
                run[1] = n - rest
                n = rest
            else:
                k += 1
            rest -= n
            if out and out[-1][0] == c:
                out[-1][1] += n
            else:
                out.append([c, n])
        del row[j:k]
        if j and row[j - 1][0] == a:
            row[j - 1][1] += d
        else:
            row.insert(j, [a, d])
    return out


def _insert_runs(rows: list[list[list[int]]], stream) -> None:
    """The insertion kernel: pass stream through rows top to bottom, each
    row's bumped runs feeding the next, and open a row for any residue.
    Row by row equals run by run: each row sees the same stream in order."""
    i = 0
    while stream:
        if i == len(rows):
            rows.append([])
        stream = _bump_runs(rows[i], stream)
        i += 1


def _tableau(rows: list[list[list[int]]]) -> Tableau:
    # tuple() of a list comprehension has exact size; tuple() of a generator
    # resizes as it grows, which fragmented the heap over long runs.
    return Tableau(tuple([tuple([c for c, n in row for _ in range(n)]) for row in rows]))


def tableau_insert(t: Tableau, a: int) -> Tableau:
    """Insert a into t, bumping row by row; a surviving bump opens a new row."""
    _check_letters((a,))
    rows = [[[c, len(list(g))] for c, g in groupby(row)] for row in t.rows]
    _insert_runs(rows, [(a, 1)])
    return _tableau(rows)


def insertion_tableau(w: Word) -> Tableau:
    """Schensted insertion of the letters of w, left to right, into the
    empty tableau."""
    _check_letters(w)
    rows: list[list[list[int]]] = []
    _insert_runs(rows, [(a, 1) for a in w])
    return _tableau(rows)


def insertion_steps(w: Word) -> list[Tableau]:
    """The tableau after each successive letter of w (len(w) entries)."""
    _check_letters(w)
    rows: list[list[list[int]]] = []
    steps: list[Tableau] = []
    for a in w:
        _insert_runs(rows, [(a, 1)])
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
                        f"equivalence class of {w} exceeds budget of {budget} words"
                    )
                frontier.append(nxt)
    return False


def knuth_equivalent(w: Word, w2: Word) -> bool:
    """Production-path decision: equal insertion tableaux."""
    return insertion_tableau(w) == insertion_tableau(w2)
