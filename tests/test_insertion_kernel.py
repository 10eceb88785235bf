"""Differential tests of the insertion kernels, branch by branch.

Timed insertion, and classical insertion step by step, run one kernel on
rows of runs with integer counts. Long words over one to three letters make
its rows short and its runs long, so every branch fires many times. A run
that lands inside a row, of one unit or more, takes one bump loop: it bumps
part of a run, exactly one whole run (overwritten in place), or several
runs, and may merge into an equal left neighbour; a run at the row's end is
appended. The unit runs of classical insertion step by step take the same
loop, and ``TestUnitRunBranches`` inserts one unit each way it can land.
The references are plain-list Schensted insertion and its expansion on the
integer grid, written without the kernel.

A whole classical word goes through a second kernel, ``_insert_units``, on
dense counts per letter rank. It is checked row for row against the run
kernel on the families that stress its scan: many rows, many symbols, a
next larger letter far away, and huge letters.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timed_plactic import (
    Tableau,
    concat,
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
from timed_plactic.classical import _insert_runs, _insert_units

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


def _run_kernel_rows(w):
    rows = []
    _insert_runs(rows, w, [1] * len(w))
    return rows


def _alternating(k):
    """k, 1, k, 2, ..., k, k - 1: each low letter's next larger letter in
    the first row is k, past every letter inserted before it."""
    return tuple(x for i in range(1, k) for x in (k, i))


class TestWholeWordKernel:
    """``_insert_units(w)`` gives the rows of ``_insert_runs`` on the
    all-unit stream of w."""

    @settings(max_examples=150)
    @given(
        few_letter_words
        | st.lists(st.integers(1, 40), max_size=200).map(tuple)
        | st.lists(st.integers(1, 10**6), max_size=60).map(tuple)
    )
    def test_hypothesis_words(self, w):
        assert _insert_units(w) == _run_kernel_rows(w)

    @pytest.mark.parametrize(
        "w",
        [
            (),
            (1,),
            (7,),
            (10**18,),
            tuple(range(500, 0, -1)),
            _alternating(300),
            tuple(random.Random(0).randint(1, 200) for _ in range(1000)),
            tuple(10**18 + random.Random(1).randint(-9, 9) for _ in range(1000)),
        ],
        ids=["empty", "one", "seven", "huge-one", "decreasing-500", "alternating-300",
             "1000-over-200", "near-1e18"],
    )
    def test_families(self, w):
        assert _insert_units(w) == _run_kernel_rows(w)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_scale(self, seed):
        rng = random.Random(seed)
        w = tuple(rng.randint(1, 20) for _ in range(1000))
        assert _insert_units(w) == _run_kernel_rows(w)
        assert insertion_tableau(w).rows == schensted_rows(w)

    def test_far_next_letter_is_bounded(self):
        # 21,798 letters whose next larger letter lies up to 10,898 ranks
        # away: the presence map's find keeps each unit's scan in C. A
        # scan cell by cell in Python reads 100 times the run kernel or
        # more here.
        w = _alternating(10_900)
        assert _insert_units(w) == _run_kernel_rows(w)

        def best(f):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                f(w)
                times.append(time.perf_counter() - start)
            return min(times)

        assert best(insertion_tableau) <= 3 * best(_run_kernel_rows)
