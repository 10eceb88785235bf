"""Reference results the benchmark checks the library's outputs against.

Written without ``timed_plactic``. Classical insertion is plain-list
Schensted. Timed insertion clears denominators once (q = lcm of the run
denominators) and runs row insertion on integer run lengths: inserting a
run of d copies of a letter bumps the next d units of the row past that
letter, which is classical insertion of the grid-expanded word. Each row is
a transducer from an input stream to a bumped stream, so the whole word can
pass through row 1 before row 2 sees anything. Durations go back to
rationals by dividing by q.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import lcm


def schensted(word) -> list[list[int]]:
    rows: list[list[int]] = []
    for a in word:
        for row in rows:
            j = bisect_right(row, a)
            if j == len(row):
                row.append(a)
                break
            row[j], a = a, row[j]
        else:
            rows.append([a])
    return rows


def schensted_steps(word) -> list[list[list[int]]]:
    return [schensted(word[: i + 1]) for i in range(len(word))]


def _emit(out: list[list[int]], letter: int, dur: int) -> None:
    if out and out[-1][0] == letter:
        out[-1][1] += dur
    else:
        out.append([letter, dur])


def _row_pass(stream: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Feed integer runs through an empty row; return (row, bumped stream)."""
    row: list[list[int]] = []
    out: list[list[int]] = []
    for a, d in stream:
        j = 0
        while j < len(row) and row[j][0] <= a:
            j += 1
        k, rest = j, d
        while rest and k < len(row):
            letter, have = row[k]
            take = min(have, rest)
            _emit(out, letter, take)
            rest -= take
            if take == have:
                k += 1
            else:
                row[k][1] = have - take
        del row[j:k]
        if j and row[j - 1][0] == a:
            row[j - 1][1] += d
        else:
            row.insert(j, [a, d])
    return row, out


def grid_denominator(runs) -> int:
    return lcm(*(d.denominator for _, d in runs)) if runs else 1


def timed_tableau(runs) -> list[list[tuple[int, Fraction]]]:
    """Timed insertion tableau of ``[(letter, Fraction), ...]``."""
    q = grid_denominator(runs)
    stream = [[c, d.numerator * (q // d.denominator)] for c, d in runs]
    rows = []
    while stream:
        row, stream = _row_pass(stream)
        rows.append([(c, Fraction(n, q)) for c, n in row])
    return rows


def classical_greene(rows) -> list[int]:
    return list(accumulate(len(row) for row in rows))


def timed_greene(rows) -> list[Fraction]:
    return list(accumulate(sum(d for _, d in row) for row in rows))


# JSON shapes the library's notation produces.


def timed_word_dict(runs) -> dict:
    return {"runs": [{"letter": c, "dur": str(d)} for c, d in runs]}


def timed_tableau_dict(rows) -> dict:
    return {"rows": [timed_word_dict(row) for row in rows]}


def classical_tableau_dict(rows) -> dict:
    return {"rows": [list(row) for row in rows]}


def embed(word) -> list[tuple[int, Fraction]]:
    """A classical word as a timed word with unit runs (equal neighbours
    merged)."""
    out: list[tuple[int, Fraction]] = []
    for c in word:
        if out and out[-1][0] == c:
            out[-1] = (c, out[-1][1] + 1)
        else:
            out.append((c, Fraction(1)))
    return out
