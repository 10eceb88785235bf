from fractions import Fraction
from math import gcd
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from timed_plactic import (
    InvalidTableauError,
    NotARowError,
    Run,
    Tableau,
    TimedTableau,
    TimedWord,
    concat,
    embed_classical,
    embed_classical_tableau,
    insertion_steps,
    insertion_tableau,
    normalize,
    reading_word,
    scale,
    shape,
    tableau_insert,
    timed_insertion_steps,
    timed_insertion_tableau,
    timed_reading_word,
    timed_row_insert,
    timed_row_insert_word,
    timed_shape,
    timed_tableau_insert,
)
from timed_plactic import timed_tableaux
from timed_plactic.timed_words import _grid, _to_grid

from conftest import (
    DIGIT_LIMITED,
    INSERT_EXAMPLE_RESULT_A,
    INSERT_EXAMPLE_RESULT_B,
    INSERT_EXAMPLE_ROW_A,
    INSERT_EXAMPLE_ROW_B,
    INSERT_EXAMPLE_SHAPE_A,
    INSERT_EXAMPLE_TABLEAU_ROWS,
    RINS_BUMPED_TEXT,
    RINS_INSERTED_TEXT,
    RINS_RESULT_TEXT,
    RINS_ROW_TEXT,
    durations,
    fraction_length,
    grid_reference,
    letters,
    nonempty_timed_words,
    tableau_error,
    timed_tableau_error,
    printed,
    TOO_LONG_TO_PRINT,
    timed_words,
    tw,
    words,
)


class TestTimedTableauInvariants:
    def test_rejects_non_row(self):
        with pytest.raises(InvalidTableauError):
            TimedTableau((tw("2^1 1^1"),))

    def test_rejects_growing_lengths(self):
        with pytest.raises(InvalidTableauError):
            TimedTableau((tw("1^1"), tw("2^1 3^1")))

    def test_rejects_weak_column_anywhere(self):
        # rows have equal values on [0.5, 1)
        with pytest.raises(InvalidTableauError):
            TimedTableau((tw("1^0.5 2^0.5"), tw("2^1")))

    def test_rejects_empty_row(self):
        with pytest.raises(InvalidTableauError):
            TimedTableau((tw("1^1"), TimedWord()))

    def test_accepts_interleaved_breakpoints(self):
        TimedTableau((tw("1^0.5 2^0.5"), tw("2^0.25 3^0.5")))

    def test_longer_row_message_past_the_digit_limit(self):
        # Row 0 is 1/a + 1/b long, a denominator of about 8,000 digits: the
        # error keeps its type, with a placeholder for the length.
        a, b = 10**4000 + 1, 10**4000 + 3
        top = normalize([(1, Fraction(1, a)), (2, Fraction(1, b))])
        with pytest.raises(InvalidTableauError) as info:
            TimedTableau((top, tw("3^1")))
        length = printed(Fraction(1, a) + Fraction(1, b))
        assert str(info.value) == f"row 1 is longer than row 0 (1 > {length})"
        assert (length == TOO_LONG_TO_PRINT) == DIGIT_LIMITED


def timed_rows_with(durations):
    return st.lists(
        st.tuples(st.integers(min_value=1, max_value=6), durations),
        min_size=1,
        max_size=4,
        unique_by=lambda run: run[0],
    ).map(lambda runs: TimedWord(tuple(Run(c, d) for c, d in sorted(runs))))


# Denominators up to 12, so that run boundaries seldom meet those of the
# insertion tableaux below (denominators up to 8).
timed_rows = timed_rows_with(
    st.fractions(min_value=Fraction(1, 12), max_value=Fraction(2), max_denominator=12)
)
# All on the grid 1/4, so that boundaries often meet or lie one cell apart.
quarter_rows = timed_rows_with(
    st.integers(min_value=1, max_value=4).map(lambda k: Fraction(k, 4))
)


@st.composite
def near_tableaux(draw):
    """The rows of an insertion tableau, valid, or with one change that may
    break it: a row replaced, two rows swapped, a row rescaled, or one run's
    letter moved by one."""
    rows = list(timed_insertion_tableau(draw(timed_words)).rows)
    change = draw(st.sampled_from(["none", "replace", "swap", "scale", "relabel"]))
    if not rows or change == "none":
        return tuple(rows)
    i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
    if change == "replace":
        rows[i] = draw(timed_rows)
    elif change == "swap" and i + 1 < len(rows):
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    elif change == "scale":
        factor = draw(st.sampled_from([Fraction(1, 2), Fraction(6, 7), Fraction(12, 11), 2]))
        rows[i] = scale(rows[i], factor)
    elif change == "relabel":
        runs = list(rows[i].runs)
        j = draw(st.integers(min_value=0, max_value=len(runs) - 1))
        step = draw(st.sampled_from([-1, 1]))
        runs[j] = (max(1, runs[j].letter + step), runs[j].duration)
        rows[i] = normalize(runs)
    return tuple(rows)


class TestTimedTableauMatchesFractionReference:
    """The grid validator accepts and rejects exactly what a Fraction walk
    over the rows does, with the same message."""

    @staticmethod
    def check(rows):
        expected = timed_tableau_error(rows)
        if expected is None:
            assert TimedTableau(rows).rows == rows
        else:
            with pytest.raises(InvalidTableauError) as info:
                TimedTableau(rows)
            assert str(info.value) == expected

    @given(st.lists(st.one_of(timed_rows, timed_words), max_size=4).map(tuple))
    def test_random_stacks(self, rows):
        self.check(rows)

    @given(near_tableaux())
    def test_changed_insertion_tableaux(self, rows):
        self.check(rows)

    @given(st.lists(quarter_rows, max_size=4).map(tuple))
    def test_stacks_on_a_coarse_grid(self, rows):
        self.check(rows)

    def test_both_verdicts_occur(self):
        valid = (tw("1^1/3 2^1/2"), tw("2^1/3 3^1/4"))
        self.check(valid)
        assert timed_tableau_error(valid) is None
        weak = (tw("1^1/3 2^1/2"), tw("2^2/5 3^1/4"))
        self.check(weak)
        assert "strictly increasing downward" in timed_tableau_error(weak)
        last_cell = (tw("1^3/4 3^1/4"), tw("2^1"))
        self.check(last_cell)
        assert "strictly increasing downward" in timed_tableau_error(last_cell)
        longer = (tw("1^1/3"), tw("2^2/5"))
        self.check(longer)
        assert "longer" in timed_tableau_error(longer)


def _constructor_error(rows) -> str | None:
    try:
        TimedTableau(rows)
    except InvalidTableauError as exc:
        return str(exc)
    return None


class TestInsertionChecksTheKernelsRows:
    """Each insertion function checks the kernel's grid rows once, before it
    builds the tableau: a kernel that emitted some stack of rows gets the
    verdict and message that ``TimedTableau(rows)`` gives that stack."""

    WRAPPERS = {
        "timed_insertion_tableau": timed_insertion_tableau,
        "timed_insertion_steps": lambda w: timed_insertion_steps(w)[-1],
        "timed_tableau_insert": lambda w: timed_tableau_insert(TimedTableau(), w),
    }

    @classmethod
    def check(cls, wrapper, rows, k=1):
        # One run on the stack's grid 1/q, or on a grid k times finer, so the
        # wrapper works on that grid too, and a kernel that replaces every
        # row by the stack's on that grid.
        q = _grid(*rows) * k
        grid = [_to_grid(row, q) for row in rows]

        def kernel(out, letters, counts):
            out[:] = [(list(ls), list(cs)) for ls, cs in grid]

        w = TimedWord((Run(1, Fraction(1, q)),))
        expected = _constructor_error(rows)
        with mock.patch.object(timed_tableaux, "_insert_runs", kernel):
            if expected is None:
                assert cls.WRAPPERS[wrapper](w) == TimedTableau(rows)
            else:
                with pytest.raises(InvalidTableauError) as info:
                    cls.WRAPPERS[wrapper](w)
                assert str(info.value) == expected

    @pytest.mark.parametrize("wrapper", WRAPPERS)
    @pytest.mark.parametrize(
        "rows",
        [
            ("1^1/3 2^1/2", "2^1/3 3^1/4"),  # valid
            ("1^1", ""),  # empty row
            ("2^1/10 1^1/10",),  # not a timed row
            ("1^1/3", "2^2/5"),  # longer than the row above
            ("1^1/3 2^1/2", "2^2/5 3^1/4"),  # equal values on [1/3, 2/5)
            ("1^3/4 3^1/4", "2^1"),  # equal values at the last cell
        ],
    )
    def test_bad_rows(self, wrapper, rows):
        self.check(wrapper, tuple(tw(row) for row in rows))

    @given(
        st.sampled_from(sorted(WRAPPERS)),
        st.one_of(
            near_tableaux(),
            st.lists(st.one_of(timed_rows, timed_words), max_size=4).map(tuple),
        ),
    )
    def test_random_stacks(self, wrapper, rows):
        self.check(wrapper, rows)

    @pytest.mark.parametrize("wrapper", WRAPPERS)
    @pytest.mark.parametrize(
        "rows",
        [
            ("1^1/3 2^1/2", "2^1/3 3^1/4"),  # valid
            ("1^1/3", "2^2/5"),  # longer than the row above
            ("1^1/2", "2^1"),  # longer, on the grid 1/2
            ("1^3/4 3^1/4", "2^1"),  # equal values at the last cell
        ],
    )
    def test_a_stack_on_a_finer_grid(self, wrapper, rows):
        # The rows are coarsened by k before they are checked, and the
        # message quotes their lengths on the coarse grid.
        self.check(wrapper, tuple(tw(row) for row in rows), k=6)

    def test_zero_counts_are_refused(self):
        def kernel(out, letters, counts):
            out[:] = [([1, 2], [1, 0])]

        with mock.patch.object(timed_tableaux, "_insert_runs", kernel):
            with pytest.raises(InvalidTableauError, match="row 0 is not a timed row"):
                timed_insertion_tableau(tw("1^1"))


class TestCachedLengths:
    """Each row of an insertion tableau computes its length once and caches
    it, and the shape read from the grid equals the recomputed lengths."""

    @staticmethod
    def check(t):
        assert timed_shape(t) == tuple(fraction_length(row) for row in t.rows)
        for row in t.rows:
            assert row.length == fraction_length(row)
            assert row.length is row.__dict__["length"]

    @given(timed_words, timed_rows)
    def test_equal_recomputed_lengths(self, w, v):
        t = timed_insertion_tableau(w)
        self.check(t)
        for step in timed_insertion_steps(w):
            self.check(step)
        self.check(timed_tableau_insert(t, v))


@st.composite
def built_tableaux(draw):
    """A timed tableau from one of the builders: the constructor (on the
    rows of an insertion tableau, possibly changed but still valid),
    insertion, a step of insertion, insertion into a tableau, or the
    embedding of a classical tableau."""
    w = draw(timed_words)
    builder = draw(st.sampled_from(["constructor", "insertion", "steps", "insert", "embed"]))
    if builder == "constructor":
        rows = draw(near_tableaux())
        assume(timed_tableau_error(rows) is None)
        return TimedTableau(rows)
    if builder == "insertion":
        return timed_insertion_tableau(w)
    if builder == "steps":
        steps = timed_insertion_steps(w)
        assume(steps)
        return draw(st.sampled_from(steps))
    if builder == "insert":
        return timed_tableau_insert(timed_insertion_tableau(w), draw(timed_rows))
    return embed_classical_tableau(insertion_tableau(draw(words)))


@st.composite
def built_classical_tableaux(draw):
    """A classical tableau from one of the builders: the constructor (on the
    rows of an insertion tableau, possibly with a cell dropped but still
    valid), insertion, a step of insertion, or insertion into a tableau."""
    w = draw(words)
    builder = draw(st.sampled_from(["constructor", "insertion", "steps", "insert"]))
    if builder == "constructor":
        rows = [list(row) for row in insertion_tableau(w).rows]
        if rows and draw(st.booleans()):
            i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            rows[i].pop()
        rows = tuple(tuple(row) for row in rows if row)
        assume(tableau_error(rows) is None)
        return Tableau(rows)
    if builder == "insertion":
        return insertion_tableau(w)
    if builder == "steps":
        steps = insertion_steps(w)
        assume(steps)
        return draw(st.sampled_from(steps))
    return tableau_insert(insertion_tableau(w), draw(letters))


def _timed_row(letters, counts, q):
    return TimedWord(tuple(Run(c, Fraction(n, q)) for c, n in zip(letters, counts)))


def _classical_row(letters, counts, q):
    return tuple(c for c, n in zip(letters, counts) for _ in range(n))


# Each tableau kind's builders and readers, so that one test covers both.
TIMED = SimpleNamespace(
    tableau=TimedTableau, built=built_tableaux(), words=timed_words, inserted=timed_rows,
    insertion=timed_insertion_tableau, steps=timed_insertion_steps,
    insert=timed_tableau_insert, shape=timed_shape, reading_word=timed_reading_word,
    row=_timed_row, length=lambda row: row.length, concat=concat, derived="rows",
)
CLASSICAL = SimpleNamespace(
    tableau=Tableau, built=built_classical_tableaux(), words=words, inserted=letters,
    insertion=insertion_tableau, steps=insertion_steps,
    insert=tableau_insert, shape=shape, reading_word=reading_word,
    row=_classical_row, length=len, concat=lambda *rows: sum(rows, ()), derived="grid",
)
kinds = st.sampled_from([TIMED, CLASSICAL])


class TestTableauGrid:
    """A timed tableau is stored as its rows' letters and counts on one
    smallest grid 1/q, and its rows are built from that grid on first read.
    A classical tableau is stored as its rows spelt out as letters, and its
    grid, the same form for q = 1, is built from them on first read. Each
    kind's readers build nothing (``derived``)."""

    @given(st.data())
    def test_one_canonical_grid(self, data):
        kind = data.draw(kinds)
        t = data.draw(kind.built)
        counts = [n for _, row_counts in t.grid for n in row_counts]
        assert gcd(t.q, *counts) == 1
        assert type(t.grid) is tuple
        assert all(type(letters) is tuple and type(c) is tuple for letters, c in t.grid)
        assert t.rows == tuple(kind.row(*row, t.q) for row in t.grid)
        if kind is CLASSICAL:
            embedded = embed_classical_tableau(t)
            assert t.q == 1 and embedded.grid == t.grid and embedded.q == 1
        else:
            for row in t.rows:
                assert gcd(row.q, *row.counts) == 1

    @given(st.data())
    def test_equality_is_equality_of_rows(self, data):
        kind = data.draw(kinds)
        t, u = data.draw(kind.built), data.draw(kind.built)
        routes = [
            t,
            kind.tableau(t.rows),
            kind.insertion(kind.reading_word(t)),
            u,
            kind.tableau(u.rows),
        ]
        for a in routes:
            for b in routes:
                equal = a == b
                assert equal == (a.rows == b.rows)
                if equal:
                    assert hash(a) == hash(b)
        assert routes[0] == routes[1] == routes[2]
        assert routes[1].rows == t.rows and repr(routes[1]) == repr(t)

    @given(st.data())
    def test_reading_the_grid_builds_no_rows(self, data):
        kind = data.draw(kinds)
        w, v = data.draw(kind.words), data.draw(kind.inserted)
        t = kind.insertion(w)
        u = kind.insert(t, v)
        assert bool(t) is bool(w) and u and t != u
        for tableau in (t, u, *kind.steps(w)):
            assert tableau == tableau and (tableau == kind.tableau()) is not bool(tableau)
            shape = kind.shape(tableau)
            kind.reading_word(tableau)
            assert kind.derived not in tableau.__dict__
            assert shape == tuple(Fraction(sum(counts), tableau.q) for _, counts in tableau.grid)
        assert kind.shape(t) == tuple(kind.length(row) for row in t.rows)
        assert kind.reading_word(t) == kind.concat(*reversed(t.rows))
        assert t.__dict__["rows"] is t.rows

    def test_the_tableau_grid_is_coarser_than_the_words(self):
        w = tw("2^1/2 1^1/2 2^1/2 1^1/2")
        t = timed_insertion_tableau(w)
        assert w.q == 2
        assert t.q == 1 and t.grid == (((1,), (1,)), ((2,), (1,)))
        assert t.rows == (tw("1^1"), tw("2^1"))
        assert t == TimedTableau((tw("1^1"), tw("2^1")))

    def test_equality_reads_the_grid_not_the_given_rows(self):
        # Rows given as lists equal the same rows given as tuples, and hash
        # and repr as they do: a classical tableau's one stored form is its
        # rows spelt out as tuples, whatever it was given.
        t, u = Tableau([[1, 2], [3]]), Tableau(((1, 2), (3,)))
        assert t == u and t.rows == u.rows and repr(t) == repr(u)
        assert hash(t) == hash(u)
        assert TimedTableau([tw("1^1/2")]) == TimedTableau((tw("1^1/2"),))


class TestTimedRowInsert:
    def test_bump_inside_run(self):
        bumped, row = timed_row_insert(tw(RINS_ROW_TEXT), 1, "0.7")
        assert bumped == tw("2^0.7")
        assert row == tw("1^2.1 2^0.9 3^0.7")

    def test_append_case(self):
        bumped, row = timed_row_insert(tw("1^1"), 2, "0.5")
        assert bumped == TimedWord()
        assert row == tw("1^1 2^0.5")

    def test_append_merges_equal_letter(self):
        bumped, row = timed_row_insert(tw("1^1 2^1"), 2, "0.5")
        assert bumped == TimedWord()
        assert row == tw("1^1 2^1.5")

    def test_whole_tail_bumped_on_boundary(self):
        # exactly the remaining length past the first larger letter
        bumped, row = timed_row_insert(tw("1^1 3^1"), 2, 1)
        assert bumped == tw("3^1")
        assert row == tw("1^1 2^1")

    def test_requires_timed_row(self):
        with pytest.raises(NotARowError):
            timed_row_insert(tw("2^1 1^1"), 1, 1)

    def test_requires_positive_duration(self):
        with pytest.raises(ValueError):
            timed_row_insert(tw("1^1"), 2, 0)

    @given(letters, durations, timed_words)
    def test_length_conservation(self, letter, dur, row_source):
        rows = timed_insertion_tableau(row_source).rows
        row = rows[0] if rows else TimedWord()
        bumped, new_row = timed_row_insert(row, letter, dur)
        assert bumped.length + new_row.length == row.length + dur


class TestTimedRowInsertWord:
    def test_running_example(self):
        bumped, row = timed_row_insert_word(tw(RINS_ROW_TEXT), tw(RINS_INSERTED_TEXT))
        assert bumped == tw(RINS_BUMPED_TEXT)
        assert row == tw(RINS_RESULT_TEXT)

    def test_empty_insert(self):
        w = tw("1^1 2^1")
        assert timed_row_insert_word(w, TimedWord()) == (TimedWord(), w)

    def test_whole_row_bumped(self):
        assert timed_row_insert_word(tw("2^1"), tw("1^2")) == (tw("2^1"), tw("1^2"))


class TestTimedTableauInsert:
    def test_cascade_opens_new_row(self):
        t = TimedTableau(tuple(tw(r) for r in INSERT_EXAMPLE_TABLEAU_ROWS))
        result = timed_tableau_insert(t, tw(INSERT_EXAMPLE_ROW_A))
        assert result.rows == tuple(tw(r) for r in INSERT_EXAMPLE_RESULT_A)
        assert timed_shape(result) == INSERT_EXAMPLE_SHAPE_A

    def test_cascade_conserves_mass(self):
        t = TimedTableau(tuple(tw(r) for r in INSERT_EXAMPLE_TABLEAU_ROWS))
        result = timed_tableau_insert(t, tw(INSERT_EXAMPLE_ROW_B))
        assert result.rows == tuple(tw(r) for r in INSERT_EXAMPLE_RESULT_B)
        assert sum(timed_shape(result)) == sum(timed_shape(t)) + Fraction("0.9")

    def test_into_empty(self):
        v = tw("1^0.5 3^0.25")
        assert timed_tableau_insert(TimedTableau(), v).rows == (v,)

    def test_append_no_bump(self):
        t = timed_tableau_insert(TimedTableau((tw("1^1"),)), tw("1^1"))
        assert t.rows == (tw("1^2"),)

    def test_requires_timed_row(self):
        with pytest.raises(NotARowError):
            timed_tableau_insert(TimedTableau(), tw("2^1 1^1"))

    @given(timed_words, nonempty_timed_words)
    def test_validity_and_mass(self, base, extra):
        t = timed_insertion_tableau(base)
        row = timed_insertion_tableau(extra).rows[0]
        result = timed_tableau_insert(t, row)  # constructor revalidates
        assert sum(timed_shape(result), Fraction(0)) == base.length + row.length

    @given(timed_words, nonempty_timed_words)
    def test_matches_grid_reference(self, base, extra):
        row = grid_reference(extra)[0]
        result = timed_tableau_insert(timed_insertion_tableau(base), row)
        assert result.rows == grid_reference(concat(base, row))


class TestTimedInsertionTableau:
    def test_empty(self):
        assert timed_insertion_tableau(TimedWord()) == TimedTableau()

    def test_up_down_up(self):
        t = timed_insertion_tableau(tw("3^1 1^1 3^1"))
        assert t.rows == (tw("1^1 3^1"), tw("3^1"))

    def test_steps_count(self):
        steps = timed_insertion_steps(tw("3^1 1^1 3^1"))
        assert len(steps) == 3
        assert steps[-1] == timed_insertion_tableau(tw("3^1 1^1 3^1"))

    def test_classical_compatibility_on_running_example(self):
        w = (3, 4, 2, 1, 1, 5, 3)
        timed = timed_insertion_tableau(embed_classical(w))
        assert timed == embed_classical_tableau(insertion_tableau(w))

    @given(timed_words)
    def test_matches_grid_reference(self, w):
        assert timed_insertion_tableau(w).rows == grid_reference(w)

    @given(timed_words)
    def test_steps_match_grid_reference_on_prefixes(self, w):
        steps = timed_insertion_steps(w)
        prefixes = (TimedWord(w.runs[: i + 1]) for i in range(len(w.runs)))
        assert [t.rows for t in steps] == [grid_reference(p) for p in prefixes]

    @given(words)
    def test_classical_compatibility(self, w):
        timed = timed_insertion_tableau(embed_classical(w))
        classical = insertion_tableau(w)
        assert timed == embed_classical_tableau(classical)
        assert timed_shape(timed) == tuple(map(Fraction, shape(classical)))

    @given(timed_words)
    def test_total_mass(self, w):
        assert sum(timed_shape(timed_insertion_tableau(w)), Fraction(0)) == w.length

    @given(timed_words)
    def test_scaling_equivariance(self, w):
        factor = Fraction(3, 7)
        scaled = timed_insertion_tableau(scale(w, factor)) if w else TimedTableau()
        base = timed_insertion_tableau(w)
        assert timed_shape(scaled) == tuple(factor * part for part in timed_shape(base))

    @given(timed_words)
    def test_reading_word_roundtrip(self, w):
        t = timed_insertion_tableau(w)
        assert timed_insertion_tableau(timed_reading_word(t)) == t


class TestReadingWordAndShape:
    def test_empty(self):
        assert timed_reading_word(TimedTableau()) == TimedWord()

    def test_single_row(self):
        row = tw("1^1 2^0.5")
        assert timed_reading_word(TimedTableau((row,))) == row

    def test_bottom_to_top(self):
        t = TimedTableau((tw("1^1 3^1"), tw("3^1")))
        assert timed_reading_word(t) == tw("3^1 1^1 3^1")

    def test_shape_single_run(self):
        assert timed_shape(TimedTableau((tw("2^0.25"),))) == (Fraction(1, 4),)

    def test_shape_empty(self):
        assert timed_shape(TimedTableau()) == ()
