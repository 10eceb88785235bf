"""Seeded random generators for words, timed words, and valid Knuth moves.

These back the CLI ``random`` and ``check`` subcommands and the randomized
test suites; everything is driven by a caller-supplied ``random.Random`` so
runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .classical import Word
from .errors import _quote
from .timed_knuth import SOURCE_ORDER, TimedKnuthMove
from .timed_words import Run, TimedWord, concat, restrict


def random_word(rng: random.Random, *, max_len: int = 8, max_letter: int = 4) -> Word:
    return tuple(rng.randint(1, max_letter) for _ in range(rng.randint(0, max_len)))


def random_duration(rng: random.Random, *, max_num: int = 3, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_timed_word(
    rng: random.Random,
    *,
    runs: int | None = None,
    max_runs: int = 5,
    max_letter: int = 4,
    max_den: int = 4,
    max_num: int = 3,
) -> TimedWord:
    """A timed word with exactly ``runs`` runs (or up to ``max_runs``),
    adjacent letters kept distinct so the run count is as requested."""
    count = rng.randint(0, max_runs) if runs is None else runs
    if max_letter < 2:
        count = min(count, 1)
    letters: list[int] = []
    for _ in range(count):
        # Uniform over 1..max_letter without the previous letter; draws as
        # rng.choice over that list would, without building it.
        c = rng.randrange(max_letter - bool(letters)) + 1
        if letters and c >= letters[-1]:
            c += 1
        letters.append(c)
    return TimedWord(
        tuple(Run(c, random_duration(rng, max_num=max_num, max_den=max_den)) for c in letters)
    )


def random_timed_row(rng: random.Random, *, max_den: int) -> TimedWord:
    """A timed row of 2 to 4 runs over the letters 1..5, each run lasting
    at most 2."""
    count = rng.randint(2, 4)
    letters = sorted(rng.sample(range(1, 6), count))
    return TimedWord(
        tuple(Run(c, random_duration(rng, max_num=2, max_den=max_den)) for c in letters)
    )


def random_kappa_instance(
    rng: random.Random,
    kind: str,
    *,
    max_den: int = 4,
) -> tuple[TimedWord, TimedKnuthMove]:
    """A word containing a valid move of the given kind, plus that move.

    Built directly: draw a timed row, split it into x, y, z meeting the
    length and boundary-letter conditions (the split between the two
    equal-length factors must land on a run boundary so the letters differ),
    then embed the source arrangement between random context words of up
    to two runs each. Every letter is at most 5 and every run lasts at
    most 2.
    """
    if kind not in ("k1", "k2"):
        raise ValueError(f"kind must be 'k1' or 'k2', got {_quote(kind)}")
    for _ in range(1000):
        row = random_timed_row(rng, max_den=max_den)
        total = row.length
        interior = row.breakpoints()[1:-1]
        if kind == "k2":
            candidates = [s for s in interior if 2 * s < total]
            if not candidates:
                continue
            s = rng.choice(candidates)
            points = (0, s, 2 * s, total)
        else:
            candidates = [b for b in interior if 2 * b > total]
            if not candidates:
                continue
            b = rng.choice(candidates)
            points = (0, 2 * b - total, b, total)
        x, y, z = (restrict(row, p, r) for p, r in zip(points, points[1:]))
        factors = {"x": x, "y": y, "z": z}
        context = dict(max_runs=2, max_letter=5, max_den=max_den, max_num=2)
        u = random_timed_word(rng, **context)
        v = random_timed_word(rng, **context)
        order = SOURCE_ORDER[kind, False]
        source = [factors[role] for role in order]
        word = concat(u, *source, v)
        move = TimedKnuthMove(
            kind, u.length, *(f.length for f in source), reverse=False
        )
        return word, move
    raise RuntimeError(f"could not build a valid {kind} instance")
