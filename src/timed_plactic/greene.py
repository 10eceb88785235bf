"""Greene invariants: an exact search oracle and insertion-tableau fast paths.

The r-th Greene invariant of a word is the maximum total size of r pairwise
disjoint weakly increasing subwords; for timed words, sizes become measures
of time samples whose selected subwords are timed rows. Where two chains
share a run, swapping their tails moves the whole run into one chain, so the
oracle searches over whole runs (blocks of equal letters, or timed runs on the
grid 1/q) and never touches insertion, which it can therefore cross-check.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, groupby
from math import lcm

from .classical import Word, insertion_tableau, shape
from .errors import OracleSizeError
from .timed_words import TimedWord
from .timed_tableaux import timed_insertion_tableau, timed_shape


# Over an alphabet of k letters the search has at most C(r + k, r) states,
# so this admits every word over 9 letters with r <= 9 (C(18, 9) = 48,620),
# though the work budget below may still stop a long one.
_STATE_BUDGET = 50_000
# The search's work: state updates (the states each run is tried against)
# summed over the runs. A search can stay under the state budget at every
# run and still run for minutes over many runs; this bound stops one call
# after about a second on a 2-vCPU host.
_WORK_BUDGET = 250_000
_MAX_LEN = 2000  # classical letters


def _greene_runs(letters, counts, r: int) -> int:
    """Maximum total count of r disjoint weakly increasing chains of whole
    runs, run i being counts[i] copies of letters[i].

    Each run joins a chain whose last letter is at most its own, or is left
    unused. Chains are interchangeable, so a state is the sorted tuple of chain
    last letters (0: empty), kept with its best count. More than 50,000 states,
    or more than 250,000 state updates summed over the runs, raise
    OracleSizeError.
    """
    states: dict[tuple[int, ...], int] = {(0,) * r: 0}
    work = 0
    for c, n in zip(letters, counts):
        work += len(states)
        if work > _WORK_BUDGET:
            raise OracleSizeError(
                f"oracle search for r={r} exceeds the budget of {_WORK_BUDGET} state updates"
            )
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
                score = used + n
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


def greene_classical_oracle(w: Word, r: int) -> int:
    """Exact maximum total size of r pairwise disjoint weakly increasing
    subwords of w, by the state search over w's blocks of equal letters.
    Words longer than 2,000 letters raise OracleSizeError."""
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")
    if len(w) > _MAX_LEN:
        raise OracleSizeError(
            f"word of length {len(w)} exceeds the oracle bound of {_MAX_LEN}"
        )
    runs = [(c, len(list(block))) for c, block in groupby(w)]
    return _greene_runs([c for c, _ in runs], [n for _, n in runs], r)


def greene_classical(w: Word) -> tuple[int, ...]:
    """Greene profile (a_1, ..., a_l) via partial sums of the insertion
    tableau's shape; the fast path the oracle validates."""
    return tuple(accumulate(shape(insertion_tableau(w))))


def greene_timed_oracle(w: TimedWord, r: int, *, max_letters: int | None = 500) -> Fraction:
    """Exact timed Greene invariant a_r: the state search over w's runs with
    their counts on the grid 1/q, divided by q. More than ``max_letters`` grid
    letters (length(w) * q) raise OracleSizeError."""
    q = lcm(*(d.denominator for _, d in w.runs))
    counts = [d.numerator * (q // d.denominator) for _, d in w.runs]
    size = sum(counts)
    if max_letters is not None and size > max_letters:
        raise OracleSizeError(
            f"expansion of {size} letters exceeds the bound of {max_letters}"
        )
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")
    return Fraction(_greene_runs([c for c, _ in w.runs], counts, r), q)


def greene_timed(w: TimedWord) -> tuple[Fraction, ...]:
    """Timed Greene profile via partial sums of the insertion tableau's shape."""
    return tuple(accumulate(timed_shape(timed_insertion_tableau(w))))


def profile_value(profile: tuple, r: int, total) -> Fraction | int:
    """a_r read off a profile: profile[r-1] for r within range, else the total
    word length (r chains can never pick up more than everything)."""
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")
    return profile[r - 1] if r <= len(profile) else total
