"""Greene invariants: brute-force oracles and insertion-tableau fast paths.

The r-th Greene invariant of a word is the maximum total size of r pairwise
disjoint weakly increasing subwords; for timed words, sizes become measures
of time samples whose selected subwords are timed rows. The oracles here
never touch the insertion machinery, so they can cross-check it.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .classical import Word, insertion_tableau, shape
from .errors import OracleSizeError
from .timed_words import TimedWord
from .timed_tableaux import timed_insertion_tableau, timed_shape


# Over an alphabet of k letters the search has at most C(r + k, r) states,
# so this admits every word over 9 letters with r <= 9 (C(18, 9) = 48,620).
_STATE_BUDGET = 50_000


def greene_classical_oracle(w: Word, r: int, *, max_len: int | None = 2000) -> int:
    """Exact maximum total size of r pairwise disjoint weakly increasing
    subwords of w, by exhaustive search.

    Every position is assigned to one of the r chains (if its letter is at
    least the chain's current last letter) or left unused. Chains are
    interchangeable, so a search state is just the sorted tuple of chain last
    letters (0 meaning empty); states explored once, best use count kept.
    More than 50,000 states raise OracleSizeError.
    """
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")
    if max_len is not None and len(w) > max_len:
        raise OracleSizeError(
            f"word of length {len(w)} exceeds the oracle bound of {max_len}"
        )
    states: dict[tuple[int, ...], int] = {(0,) * r: 0}
    for c in w:
        updates: dict[tuple[int, ...], int] = {}
        for lasts, used in states.items():
            prev = -1
            for k in range(r):
                last = lasts[k]
                if last > c:
                    break
                if last == prev:
                    continue
                prev = last
                rest = lasts[:k] + lasts[k + 1 :]
                j = bisect_right(rest, c)
                cand = rest[:j] + (c,) + rest[j:]
                score = used + 1
                if updates.get(cand, -1) < score:
                    updates[cand] = score
        for cand, score in updates.items():
            if states.get(cand, -1) < score:
                states[cand] = score
        if len(states) > _STATE_BUDGET:
            raise OracleSizeError(
                f"oracle search for r={r} exceeds the budget of {_STATE_BUDGET} states"
            )
    return max(states.values())


def greene_classical(w: Word) -> tuple[int, ...]:
    """Greene profile (a_1, ..., a_l) via partial sums of the insertion
    tableau's shape; the fast path the oracle validates."""
    return tuple(accumulate(shape(insertion_tableau(w))))


def _grid(w: TimedWord, refine: int) -> int:
    if refine < 1:
        raise ValueError(f"refine must be a positive integer, got {refine}")
    return lcm(*(run.duration.denominator for run in w.runs)) * refine


def expand_to_classical(w: TimedWord, refine: int = 1) -> tuple[Word, int]:
    """Clear denominators: on the 1/q grid (q a multiple of every run
    denominator) each run becomes its letter repeated duration*q times.
    Returns the classical word and the grid denominator q."""
    q = _grid(w, refine)
    letters: list[int] = []
    for c, d in w.runs:
        letters.extend([c] * int(d * q))
    return tuple(letters), q


def greene_timed_oracle(
    w: TimedWord, r: int, *, refine: int = 1, max_letters: int | None = 500
) -> Fraction:
    """Timed Greene invariant via the scaling reduction: expand w on the
    common grid, run the classical oracle, divide by the grid denominator.

    ``refine`` multiplies the grid denominator; the result must not change
    under refinement (checked by the discretization-stability suite).
    """
    # The expansion has length(w) * q letters; check that before building it.
    size = int(w.length * _grid(w, refine))
    if max_letters is not None and size > max_letters:
        raise OracleSizeError(
            f"expansion of {size} letters exceeds the bound of {max_letters}"
        )
    word, q = expand_to_classical(w, refine)
    return Fraction(greene_classical_oracle(word, r, max_len=None), q)


def greene_timed(w: TimedWord) -> tuple[Fraction, ...]:
    """Timed Greene profile via partial sums of the insertion tableau's shape."""
    return tuple(accumulate(timed_shape(timed_insertion_tableau(w))))


def profile_value(profile: tuple, r: int, total) -> Fraction | int:
    """a_r read off a profile: profile[r-1] for r within range, else the total
    word length (r chains can never pick up more than everything)."""
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")
    return profile[r - 1] if r <= len(profile) else total
