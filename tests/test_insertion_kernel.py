"""Differential tests of the two insertion kernels, branch by branch.

Timed insertion runs the run kernel (``timed_tableaux._cascade``) on rows
of runs with integer counts, each row held as a dense count per letter
rank while the stream passes through it. Long words over one to three
letters make its rows short and its runs long, so every case fires many
times. A run that lands inside a row, of one unit or more, bumps part of a
run, exactly one whole run, or several runs, and may merge into an equal
left neighbour; a run at the row's end is appended. The references are
plain-list Schensted insertion and its expansion on the integer grid,
written without the kernel. ``TestRunKernelFamilies`` checks every entry
point of the run kernel against them on huge letters, wide alphabets, far
next letters and back-to-back calls.

Every classical entry point runs the other kernel, ``classical._insert_units``:
Schensted's loop on rows spelt out as letters, with one bisection per row
step. ``TestUnitRunBranches`` inserts one letter each way it can land.
``TestWholeWordKernel`` checks it row for row against the run kernel on
the all-unit stream, on the families where the two kernels' costs differ
most: many rows (decreasing words, doubled or not, and permutations), rows
of thousands of letters over two symbols, a next larger letter far away,
and huge letters. ``TestIncrementalOnManyRows`` checks ``insertion_steps``
and ``tableau_insert``, which carry spelt rows from letter to letter or
copy a tableau's spelt rows, on the words with the most rows.
``TestWholeWordKernel`` also compares the two kernels through the timed
embedding at the classical benchmark's scale and on the 631 decreasing
letters.
"""

import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timed_plactic import (
    Run,
    Tableau,
    TimedWord,
    concat,
    embed_classical,
    embed_classical_tableau,
    insertion_steps,
    insertion_tableau,
    normalize,
    tableau_insert,
    timed_insertion_steps,
    timed_insertion_tableau,
    timed_row_insert,
    timed_row_insert_word,
    timed_tableau_insert,
)
from timed_plactic.classical import _insert_units, _runs
from timed_plactic.timed_tableaux import _bump_runs, _insert_runs

from conftest import grid_reference, grid_row_insert, schensted_rows, tw

# Long words over a small alphabet: 1, 2 or 3 letters.
few_letter_words = st.integers(1, 3).flatmap(
    lambda k: st.lists(st.integers(1, k), max_size=300).map(tuple)
)

# Integer and small-denominator durations, so runs span many grid units.
unit_durations = st.integers(1, 4).map(Fraction)
mixed_durations = st.one_of(
    unit_durations, st.fractions(Fraction(1, 3), 3, max_denominator=3)
)
multi_unit_words = st.lists(
    st.tuples(st.integers(1, 3), mixed_durations), max_size=60
).map(normalize)
timed_rows = multi_unit_words.map(
    lambda w: (timed_insertion_tableau(w).rows or (w,))[0]
)


class TestUnitRunBranches:
    """One unit inserted into a one-row tableau: each way it can land."""

    @pytest.mark.parametrize(
        "row, a, rows",
        [
            ((1, 3), 2, ((1, 2), (3,))),  # overwrite a whole run in place
            ((1, 2, 3), 2, ((1, 2, 2), (3,))),  # merge left, delete the run
            ((1, 3, 3), 2, ((1, 2, 3), (3,))),  # shorten the run, insert
            ((2, 3, 3), 2, ((2, 2, 3), (3,))),  # shorten the run, merge left
            ((3, 3), 1, ((1, 3), (3,))),  # at the start of the row
            ((1, 2), 2, ((1, 2, 2),)),  # append, merging left
            ((1, 2), 3, ((1, 2, 3),)),  # append a new run
        ],
    )
    def test_single_insert(self, row, a, rows):
        assert tableau_insert(Tableau((row,)), a).rows == rows == schensted_rows(row + (a,))


class TestLongerRunBranches:
    """One run of integer duration inserted into a timed row."""

    @pytest.mark.parametrize(
        "row, run, bumped, new_row",
        [
            ("1^1 3^2 5^1", "2^2", "3^2", "1^1 2^2 5^1"),  # one whole run
            ("2^1 3^2 5^1", "2^2", "3^2", "2^3 5^1"),  # merge left, delete
            ("1^1 3^3", "2^2", "3^2", "1^1 2^2 3^1"),  # part of a run
            ("1^1 3^1 4^1 5^2", "2^3", "3^1 4^1 5^1", "1^1 2^3 5^1"),  # several
            ("1^1 3^1", "2^3", "3^1", "1^1 2^3"),  # the row ends first
            ("1^1 2^1", "2^2", "", "1^1 2^3"),  # append, merging left
        ],
    )
    def test_single_insert(self, row, run, bumped, new_row):
        result = timed_row_insert(tw(row), *tw(run).runs[0])
        assert result == (tw(bumped), tw(new_row)) == grid_row_insert(tw(row), tw(run))

    @pytest.mark.parametrize(
        "row, u, bumped, new_row",
        [
            ("3^2", "1^1 2^1", "3^2", "1^1 2^1"),  # two unit runs
            ("3^4", "1^2 2^2", "3^4", "1^2 2^2"),  # two longer runs
        ],
    )
    def test_equal_bumped_letters_merge(self, row, u, bumped, new_row):
        # Successive runs both bump 3s: the bumped word has one run of 3.
        result = timed_row_insert_word(tw(row), tw(u))
        assert result == (tw(bumped), tw(new_row)) == grid_row_insert(tw(row), tw(u))


class TestClassicalOnFewLetters:
    @settings(max_examples=150)
    @given(few_letter_words)
    def test_insertion_tableau(self, w):
        assert insertion_tableau(w).rows == schensted_rows(w)

    @given(few_letter_words.map(lambda w: w[:40]))
    def test_insertion_steps(self, w):
        steps = insertion_steps(w)
        assert [t.rows for t in steps] == [schensted_rows(w[: i + 1]) for i in range(len(w))]

    @given(few_letter_words, st.integers(1, 4))
    def test_tableau_insert(self, w, a):
        assert tableau_insert(insertion_tableau(w), a).rows == schensted_rows(w + (a,))


class TestTimedOnMultiUnitCounts:
    @settings(max_examples=150)
    @given(multi_unit_words)
    def test_insertion_tableau(self, w):
        assert timed_insertion_tableau(w).rows == grid_reference(w)

    @given(multi_unit_words.map(lambda w: normalize(w.runs[:15])))
    def test_insertion_steps(self, w):
        steps = timed_insertion_steps(w)
        prefixes = (normalize(w.runs[: i + 1]) for i in range(len(w.runs)))
        assert [t.rows for t in steps] == [grid_reference(p) for p in prefixes]

    @given(timed_rows, multi_unit_words)
    def test_row_insert_word(self, row, u):
        assert timed_row_insert_word(row, u) == grid_row_insert(row, u)

    @given(multi_unit_words, timed_rows)
    def test_tableau_insert(self, base, row):
        result = timed_tableau_insert(timed_insertion_tableau(base), row)
        assert result.rows == grid_reference(concat(base, row))


# Classical words whose tableaux have many rows, or rows of thousands of
# letters over two symbols.
_MANY_ROWS = {
    "decreasing-1500": tuple(range(1500, 0, -1)),
    "doubled-decreasing-500": tuple(x for m in range(500, 0, -1) for x in (m, m)),
    "permutation-3000": tuple(random.Random(2).sample(range(1, 3001), 3000)),
    "20000-over-2": tuple(random.Random(3).choices((1, 2), k=20_000)),
}


def _run_kernel_rows(w):
    rows = []
    _insert_runs(rows, w, [1] * len(w))
    return rows


def _alternating(k):
    """k, 1, k, 2, ..., k, k - 1: each low letter's next larger letter in
    the first row is k, past every letter inserted before it."""
    return tuple(x for i in range(1, k) for x in (k, i))


class TestWholeWordKernel:
    """``_insert_units([], w)`` spells out the rows of ``_insert_runs`` on
    the all-unit stream of w: read as runs, they are the same rows."""

    @settings(max_examples=150)
    @given(
        few_letter_words
        | st.lists(st.integers(1, 40), max_size=200).map(tuple)
        | st.lists(st.integers(1, 10**6), max_size=60).map(tuple)
    )
    def test_hypothesis_words(self, w):
        assert [_runs(r) for r in _insert_units([], w)] == _run_kernel_rows(w)

    @pytest.mark.parametrize(
        "w",
        [
            (),
            (1,),
            (7,),
            (10**18,),
            tuple(range(500, 0, -1)),
            _alternating(300),
            tuple(random.Random(0).choices(range(1, 201), k=1000)),
            tuple(10**18 + d for d in random.Random(1).choices(range(-9, 10), k=1000)),
            *_MANY_ROWS.values(),
            tuple(random.Random(4).choices(range(2**63, 2**66, 2**50), k=1000)),
        ],
        ids=["empty", "one", "seven", "huge-one", "decreasing-500", "alternating-300",
             "1000-over-200", "near-1e18", *_MANY_ROWS, "past-2^64"],
    )
    def test_families(self, w):
        assert [_runs(r) for r in _insert_units([], w)] == _run_kernel_rows(w)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_scale(self, seed):
        rng = random.Random(seed)
        w = tuple(rng.randint(1, 20) for _ in range(1000))
        assert [_runs(r) for r in _insert_units([], w)] == _run_kernel_rows(w)
        assert insertion_tableau(w).rows == schensted_rows(w)
        assert embed_classical_tableau(insertion_tableau(w)) == timed_insertion_tableau(
            embed_classical(w)
        )

    def test_decreasing_631_through_the_embedding(self):
        # The word at the --steps bound whose tableau has the most rows.
        w = tuple(range(631, 0, -1))
        assert embed_classical_tableau(insertion_tableau(w)) == timed_insertion_tableau(
            embed_classical(w)
        )

    def test_far_next_letter_is_bounded(self):
        # 21,798 letters whose next larger letter lies up to 10,898 ranks
        # away: bisection keeps each letter's search in C. A scan cell by
        # cell in Python reads 100 times the run kernel or more here.
        w = _alternating(10_900)
        assert [_runs(r) for r in _insert_units([], w)] == _run_kernel_rows(w)

        def best(f):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                f(w)
                times.append(time.perf_counter() - start)
            return min(times)

        assert best(insertion_tableau) <= 3 * best(_run_kernel_rows)


class TestIncrementalOnManyRows:
    """``insertion_steps`` keeps one list of spelt rows across its letters
    and ``tableau_insert`` copies a tableau's spelt rows: both against
    plain-list Schensted insertion on the words with the most rows. Steps
    stop at 631 letters, the most that ``insert --steps`` prints. Each step
    is read only after the last letter went in, so a step that shared rows
    with the kernel's lists would show later letters; each holds tuples."""

    @pytest.mark.parametrize("name", _MANY_ROWS)
    def test_insertion_steps(self, name):
        w = _MANY_ROWS[name][:631]
        steps = insertion_steps(w)
        assert len(steps) == len(w)
        for i in _samples(len(w)):
            assert steps[i].rows == schensted_rows(w[: i + 1]), i
            assert all(type(row) is tuple for row in steps[i].rows), i

    @pytest.mark.parametrize("name", _MANY_ROWS)
    def test_tableau_insert(self, name):
        w = _MANY_ROWS[name]
        assert tableau_insert(insertion_tableau(w[:-1]), w[-1]).rows == schensted_rows(w)


def _family(name):
    """Timed words whose runs are 2 to 7 cells long on the grid 1/q."""
    rng = random.Random(name)

    def dur():
        return Fraction(rng.randint(2, 7), 3)

    if name == "near-1e18":
        return normalize([(10**18 + rng.randint(-9, 9), dur()) for _ in range(300)])
    if name == "2000-distinct":
        return normalize([(c, dur()) for c in rng.sample(range(1, 10**6), 2000)])
    # K^1/2 1^1/3 K^1/2 2^1/3 ... K^1/2 (K-1)^1/3 for K = 300: on the grid
    # 1/6 each low letter's next larger letter in the first row is K.
    half, third = Fraction(1, 2), Fraction(1, 3)
    return normalize([run for i in range(1, 300) for run in ((300, half), (i, third))])


_FAMILIES = ["near-1e18", "2000-distinct", "alternating"]


def _as_words(rows, q):
    """Kernel rows on the grid 1/q as timed words."""
    return tuple(TimedWord(tuple(Run(c, Fraction(n, q)) for c, n in zip(*row))) for row in rows)


def _on(w, q):
    """w's letters and counts on the grid 1/q, a multiple of w.q, as lists."""
    return list(w.letters), [n * (q // w.q) for n in w.counts]


def _halves(w):
    half = len(w.runs) // 2
    return normalize(w.runs[:half]), normalize(w.runs[half:])


def _samples(n):
    """About ten step indices out of n, the first and last among them."""
    return sorted({0, n - 1, *range(0, n, max(1, n // 8))})


class TestRunKernelFamilies:
    """Every entry point of the run kernel against the plain-list
    references, with counts above 1."""

    @pytest.mark.parametrize("name", _FAMILIES)
    def test_insert_runs(self, name):
        w = _family(name)
        rows = []
        _insert_runs(rows, *_on(w, w.q))
        assert _as_words(rows, w.q) == grid_reference(w)
        assert timed_insertion_tableau(w).rows == grid_reference(w)

    @pytest.mark.parametrize("name", _FAMILIES)
    def test_bump_runs(self, name):
        base, u = _halves(_family(name))
        row = timed_insertion_tableau(base).rows[0]
        q = row.q * u.q // gcd(row.q, u.q)
        letters, counts = _on(row, q)
        bumped = _bump_runs(letters, counts, *_on(u, q))
        expected = grid_row_insert(row, u)
        assert (_as_words([bumped], q)[0], _as_words([(letters, counts)], q)[0]) == expected
        assert timed_row_insert_word(row, u) == expected

    @pytest.mark.parametrize("name", _FAMILIES)
    def test_tableau_insert(self, name):
        base, rest = _halves(_family(name))
        row = timed_insertion_tableau(rest).rows[0]
        result = timed_tableau_insert(timed_insertion_tableau(base), row)
        assert result.rows == grid_reference(concat(base, row))

    @pytest.mark.parametrize("name", _FAMILIES)
    def test_timed_insertion_steps(self, name):
        w = _family(name)
        steps = timed_insertion_steps(w)
        assert len(steps) == len(w.runs)
        for i in _samples(len(steps)):
            assert steps[i].rows == grid_reference(normalize(w.runs[: i + 1])), i

    @pytest.mark.parametrize("name", _FAMILIES)
    def test_insertion_steps(self, name):
        # The word's first 1,500 grid cells as classical letters.
        w = _family(name)
        cells = tuple(c for c, n in zip(w.letters, w.counts) for _ in range(n))[:1500]
        steps = insertion_steps(cells)
        for i in _samples(len(steps)):
            expected = grid_reference(embed_classical(cells[: i + 1]))
            assert embed_classical_tableau(steps[i]).rows == expected, i

    @pytest.mark.parametrize("name", _FAMILIES)
    def test_back_to_back_calls(self, name):
        # Each call reuses one buffer for all its row passes; a cell left
        # set by one row, or by an earlier call's rows, would show in the
        # rows that follow. Chunked calls must give the one-call rows.
        w = _family(name)
        letters, counts = _on(w, w.q)
        rows = []
        for start in range(0, len(letters), 37):
            _insert_runs(rows, letters[start:start + 37], counts[start:start + 37])
        assert _as_words(rows, w.q) == grid_reference(w)
        base, u = _halves(w)
        row = timed_insertion_tableau(base).rows[0]
        q = row.q * u.q // gcd(row.q, u.q)
        row_letters, row_counts = _on(row, q)
        u_letters, u_counts = _on(u, q)
        bumped = []
        for start in range(0, len(u_letters), 37):
            bumped.append(_bump_runs(row_letters, row_counts, u_letters[start:start + 37],
                                     u_counts[start:start + 37]))
        pieces = [run for out in bumped for run in _as_words([out], q)[0].runs]
        assert (normalize(pieces), _as_words([(row_letters, row_counts)], q)[0]) == (
            grid_row_insert(row, u))
