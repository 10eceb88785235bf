"""Cuts and joins of timed words, against references that walk every run.

``_cut`` finds each point's run by bisection, slices the whole runs between
two points and trims the two end runs; ``_joined`` concatenates pieces and
merges runs only at a seam. Here the pieces are compared with
``fraction_cut``, a ``Fraction`` walk over every run, and every word built
by a join (``concat``, ``subword``, ``timed_reading_word``, ``apply_move``
and the word that a move's ``xyz-not-a-row`` message quotes) with
``merged``, which merges run by run. Points include 0, the length, repeated
points (empty pieces), points inside runs and on run boundaries, and
denominators that do not divide the word's q.
"""

import random
import sys
from fractions import Fraction
from math import lcm

from hypothesis import example, given
from hypothesis import strategies as st

from timed_plactic import (
    InvalidMoveError,
    Run,
    TimedKnuthMove,
    TimedWord,
    TimeSample,
    apply_move,
    concat,
    invert_move,
    parse_timed_word,
    subword,
    timed_insertion_tableau,
    timed_reading_word,
)
from timed_plactic.errors import _quote
from timed_plactic.randomgen import random_kappa_instance
from timed_plactic.timed_knuth import SOURCE_ORDER
from timed_plactic.timed_words import _cut, _ticks

from conftest import fraction_cut, nonempty_timed_words, timed_words, tw


def merged(runs, q: int) -> TimedWord:
    """The word of the runs (letter, count) on the grid 1/q, each merged
    into an equal left neighbour, run by run: the reference for
    ``_joined``, built by the public constructor."""
    letters: list[int] = []
    counts: list[int] = []
    for c, n in runs:
        if letters and letters[-1] == c:
            counts[-1] += n
        else:
            letters.append(c)
            counts.append(n)
    return TimedWord(tuple(Run(c, Fraction(n, q)) for c, n in zip(letters, counts)))


def points_in(w: TimedWord):
    """A point of [0, l(w)]: a run boundary (0 and the length among them),
    a point inside a run at a fraction with denominator up to 13, or a
    multiple of 1/7, 1/11 or 1/13."""
    bounds = w.breakpoints()
    runs = list(zip(bounds, bounds[1:])) or [(Fraction(0), Fraction(0))]
    inside = st.tuples(st.sampled_from(runs), st.fractions(0, 1, max_denominator=13)).map(
        lambda r: r[0][0] + (r[0][1] - r[0][0]) * r[1]
    )
    anywhere = st.sampled_from([7, 11, 13]).flatmap(
        lambda p: st.integers(0, int(w.length * p)).map(lambda k: Fraction(k, p))
    )
    return st.one_of(st.sampled_from(bounds), inside, anywhere)


@given(timed_words, st.data())
@example(tw("1^1/2 2^3/4 1^1/3 3^2"), None)
def test_pieces_are_the_fraction_cut(w, data):
    if data is None:  # 0, repeats, a boundary, inside runs, a 1/11 step, the length
        points = [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(5, 11), Fraction(5, 11),
                  Fraction(7, 11), Fraction(2), w.length, w.length]
        points.sort()
    else:
        points = sorted(data.draw(st.lists(points_in(w), max_size=8)))
        points = [Fraction(0), *points, w.length]
    q, ticks = _ticks(w, points)
    assert q % w.q == 0 and all(q % p.denominator == 0 for p in points)
    pieces = _cut(w, q, ticks)
    assert len(pieces) == len(points) - 1
    for (letters, counts), a, b in zip(pieces, points, points[1:]):
        assert len(letters) == len(counts) and min(counts, default=1) >= 1
        assert all(x != y for x, y in zip(letters, letters[1:]))
        assert tuple((c, Fraction(n, q)) for c, n in zip(letters, counts)) == fraction_cut(w, a, b)


@given(st.lists(timed_words, max_size=4))
@example([tw("1^1 2^1/2"), TimedWord(), tw("2^1/3 1^1"), tw("1^1/7")])
def test_concat_is_the_run_by_run_join(words):
    q = lcm(*(w.q for w in words))
    runs = [(c, n * (q // w.q)) for w in words for c, n in zip(w.letters, w.counts)]
    assert concat(*words) == merged(runs, q)


@given(nonempty_timed_words, st.data())
@example(tw("1^1 2^1 1^1"), [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2)])
def test_subword_is_the_run_by_run_join(w, data):
    if isinstance(data, list):
        points = data
    else:
        points = sorted(set(data.draw(st.lists(points_in(w), max_size=6))))
        points = points[: len(points) // 2 * 2]
    sample = TimeSample(tuple(zip(points[::2], points[1::2])))
    pieces = [fraction_cut(w, a, b) for a, b in sample.intervals]
    q = lcm(w.q, *(p.denominator for p in points))
    expected = merged([(c, d * q) for piece in pieces for c, d in piece], q)
    assert subword(w, sample) == expected
    assert sum(d for piece in pieces for _, d in piece) == sample.measure


@given(timed_words)
def test_reading_word_is_the_run_by_run_join(w):
    t = timed_insertion_tableau(w)
    runs = [run for row in reversed(t.grid) for run in zip(*row)]
    assert timed_reading_word(t) == merged(runs, t.q)


def reference_move(w, m):
    """apply_move with the pieces of ``fraction_cut`` and the run-by-run
    join: the moved word, or the side condition that fails and its
    message."""
    start = m.position
    end = start + sum(m.cuts)
    if end > w.length:
        return "cuts-out-of-range", f"move region [{start}, {end}) exceeds word length {w.length}"
    bounds = [Fraction(0), start, start + m.cut1, start + m.cut1 + m.cut2, end, w.length]
    q = lcm(*(p.denominator for p in bounds), w.q)
    u, *factors, v = (
        [(c, d * q) for c, d in fraction_cut(w, a, b)] for a, b in zip(bounds, bounds[1:])
    )
    named = dict(zip(SOURCE_ORDER[m.kind, m.reverse], factors))
    xyz = [run for role in "xyz" for run in named[role]]
    if any(a > b for (a, _), (b, _) in zip(xyz, xyz[1:])):
        return "xyz-not-a-row", f"x y z = {_quote(merged(xyz, q))} is not a timed row"
    (a, b), (left, right) = {"k1": ("zy", "yz"), "k2": ("xy", "xy")}[m.kind]
    la, lb = (Fraction(sum(n for _, n in named[role]), q) for role in (a, b))
    if la != lb:
        return "length-mismatch", f"l({a}) = {la} differs from l({b}) = {lb}"
    last, first = named[left][-1][0], named[right][0][0]
    if not last < first:
        return "limit-condition", (
            f"last letter of {left} ({last}) must be below the first letter of {right} ({first})"
        )
    target = [run for role in SOURCE_ORDER[m.kind, not m.reverse] for run in named[role]]
    return merged(u + target + v, q)


def move_outcome(w, m):
    try:
        return apply_move(w, m)
    except InvalidMoveError as exc:
        return exc.condition, str(exc)


@given(nonempty_timed_words, st.sampled_from(["k1", "k2"]), st.booleans(), st.data())
def test_a_move_is_the_run_by_run_join(w, kind, reverse, data):
    # Every outcome, each failed side condition with its message included.
    point = points_in(w) | st.just(w.length + Fraction(1, 11))  # one past the end
    points = sorted(data.draw(st.lists(point, min_size=4, max_size=4, unique=True)))
    m = TimedKnuthMove(kind, points[0], *(b - a for a, b in zip(points, points[1:])),
                       reverse=reverse)
    assert move_outcome(w, m) == reference_move(w, m)


@given(st.integers(0, 10**6), st.sampled_from(["k1", "k2"]),
       st.sampled_from([1, Fraction(1, 11)]))
def test_a_valid_move_and_its_inverse_are_the_run_by_run_join(seed, kind, shift):
    # A valid instance inside a longer word, its region moved by a shift
    # whose denominator may not divide the word's q.
    w, m = random_kappa_instance(random.Random(seed), kind, max_den=8)
    pad = tw(f"4^{shift}")
    w = concat(pad, w, pad)
    m = TimedKnuthMove(kind, m.position + shift, *m.cuts, reverse=m.reverse)
    moved = apply_move(w, m)
    assert moved == reference_move(w, m)
    back = invert_move(m)
    assert apply_move(moved, back) == reference_move(moved, back) == w


def python_lines(call) -> int:
    """The lines of Python that call() executes, in every frame it opens."""
    lines = [0]

    def trace(frame, event, arg):
        if event == "line":
            lines[0] += 1
        return trace

    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(None)
    return lines[0]


def test_a_moves_python_work_does_not_grow_with_the_word():
    # The same move at the start of a word of 20 runs and of 20,000: the
    # cut, the join and the grid's gcd run their loops over the word's runs
    # at C speed, so the Python lines executed are the same.
    rng = random.Random(1)
    tail = " ".join(f"{rng.randint(1, 12)}^{Fraction(rng.randint(1, 8), rng.randint(1, 8))}"
                    for _ in range(20_000))
    long = parse_timed_word("1^1/2 3^1/2 2^1/2 " + tail)
    short = parse_timed_word("1^1/2 3^1/2 2^1/2 " + " ".join(tail.split()[:20]))
    assert long.q == short.q
    for cuts in [(0, "1/2", "1/2", "1/2"), ("4/11", "3/22", "1/2", "1/2")]:
        m = TimedKnuthMove("k1", *cuts)
        assert python_lines(lambda: apply_move(short, m)) == python_lines(
            lambda: apply_move(long, m)
        )
