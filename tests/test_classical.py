import re
from enum import IntEnum
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from timed_plactic import (
    BudgetExceededError,
    InvalidTableauError,
    NotARowError,
    Tableau,
    insertion_steps,
    insertion_tableau,
    is_row,
    knuth_equivalent,
    knuth_equivalent_bfs,
    knuth_neighbors,
    normalize,
    reading_word,
    row_insert,
    shape,
    tableau_insert,
)
from timed_plactic import classical
from timed_plactic.classical import _runs

from conftest import (
    STEPS_3421153,
    TABLEAU_3421153,
    WORD_3421153,
    runs_reference,
    schensted_rows,
    sorted_rows,
    tableau_error,
    words,
)

# Longer words over more letters than ``words``, still at desk scale.
long_words = st.lists(st.integers(1, 6), max_size=40).map(tuple)


class TestIsRow:
    def test_weakly_increasing(self):
        assert is_row((1, 1, 5))

    def test_empty(self):
        assert is_row(())

    def test_descent(self):
        assert not is_row((1, 2, 1))


class TestRowInsert:
    def test_append_case(self):
        assert row_insert((1, 1, 5), 5) == (None, (1, 1, 5, 5))

    def test_bump_case(self):
        assert row_insert((1, 1, 5), 3) == (5, (1, 1, 3))

    def test_empty_row(self):
        assert row_insert((), 4) == (None, (4,))

    def test_not_a_row_rejected(self):
        with pytest.raises(NotARowError):
            row_insert((2, 1), 3)

    def test_result_is_row(self):
        bumped, row = row_insert((1, 2, 2, 4), 2)
        assert bumped == 4
        assert is_row(row)

    @pytest.mark.parametrize(
        "u, a, bad",
        [
            ((0, 1), 2, "0"),  # appended after the bad letter
            ((1, 5.0), 3, "5.0"),  # the bad letter is the one bumped
            ((True, 2), 2, "True"),
        ],
    )
    def test_row_letters_are_checked(self, u, a, bad):
        with pytest.raises(ValueError, match=rf"^letters must be integers >= 1, got {bad}$"):
            row_insert(u, a)


class TestLetterCheckFallback:
    """The letter check tests every letter's type and the least letter at C
    speed; when that fails, its loop names the first bad letter, and an int
    subclass still passes."""

    CASES = [((3, True, 0), "True"), ((2, 0, 1.5), "0"), ((1, 2.0), "2.0")]

    @staticmethod
    def _refused(bad):
        return pytest.raises(ValueError, match=rf"^letters must be integers >= 1, got {re.escape(bad)}$")

    @pytest.mark.parametrize("w, bad", CASES)
    def test_insertion_tableau(self, w, bad):
        with self._refused(bad):
            insertion_tableau(w)

    @pytest.mark.parametrize("w, bad", CASES)
    def test_normalize(self, w, bad):
        with self._refused(bad):
            normalize([(c, Fraction(1)) for c in w])

    # row_insert needs a weakly increasing row and checks it before the
    # inserted letter: the same letters, split so that the named one is the
    # first bad letter checked.
    @pytest.mark.parametrize(
        "u, a, bad", [((True, 3), 0, "True"), ((0, 2), 1.5, "0"), ((1, 2.0), 3, "2.0")]
    )
    def test_row_insert(self, u, a, bad):
        with self._refused(bad):
            row_insert(u, a)

    def test_int_enum_letters_are_accepted(self):
        class Letter(IntEnum):
            TWO = 2

        w = (1, Letter.TWO, 3)
        assert insertion_tableau(w).rows == ((1, 2, 3),)
        assert row_insert(w, 2) == (3, (1, 2, 2))
        assert normalize([(c, Fraction(1)) for c in w]).letters == (1, 2, 3)


class TestTableau:
    def test_str(self):
        assert str(Tableau(TABLEAU_3421153)) == "1 1 3\n2 4 5\n3"

    def test_rejects_non_row(self):
        with pytest.raises(InvalidTableauError):
            Tableau(((2, 1),))

    def test_rejects_growing_rows(self):
        with pytest.raises(InvalidTableauError):
            Tableau(((1,), (2, 3)))

    def test_rejects_weak_column(self):
        with pytest.raises(InvalidTableauError):
            Tableau(((1, 2), (1,)))

    def test_rejects_empty_row(self):
        with pytest.raises(InvalidTableauError):
            Tableau(((1,), ()))

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            Tableau(((0, 1),))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ((0,), "row 0 is not a sequence of letters: 0"),
            ((None,), "row 0 is not a sequence of letters: None"),
            ((5,), "row 0 is not a sequence of letters: 5"),
            (((1, 2), 3), "row 1 is not a sequence of letters: 3"),
            (((1, 2), {3}), "row 1 is not a sequence of letters: {3}"),
            ((1.5,), "row 0 is not a sequence of letters: 1.5"),
            (((1,), ()), "row 1 is empty"),
            (((1,), []), "row 1 is empty"),
        ],
    )
    def test_rows_that_are_not_sequences_are_named(self, rows, message):
        with pytest.raises(InvalidTableauError) as info:
            Tableau(rows)
        assert str(info.value) == message == tableau_error(rows)


# Short rows of letters 1..5, some sorted, some not.
_letter_lists = st.lists(st.integers(1, 5), min_size=1, max_size=5)
_rows = st.one_of(_letter_lists.map(sorted), _letter_lists).map(tuple)
# Rows the kernel's run form can carry: weakly increasing, letters >= 1.
_sorted_rows = _letter_lists.map(sorted).map(tuple)


@st.composite
def near_tableaux(draw, rows=_rows, bad_letters=True):
    """The rows of an insertion tableau, valid, or with one change that may
    break it: a row replaced, two rows swapped, a cell dropped, a cell
    appended, or one letter moved by one (to 0 or True, if allowed)."""
    out = [list(row) for row in insertion_tableau(draw(long_words)).rows]
    changes = ["none", "replace", "swap", "drop", "append", "relabel"]
    change = draw(st.sampled_from(changes))
    if not out or change == "none":
        return tuple(tuple(row) for row in out)
    i = draw(st.integers(min_value=0, max_value=len(out) - 1))
    j = draw(st.integers(min_value=0, max_value=len(out[i]) - 1))
    if change == "replace":
        out[i] = list(draw(rows))
    elif change == "swap" and i + 1 < len(out):
        out[i], out[i + 1] = out[i + 1], out[i]
    elif change == "drop":
        del out[i][j]
    elif change == "append":
        out[i].append(draw(st.integers(out[i][-1], 7)))
    elif change == "relabel":
        moved = out[i][j] + draw(st.sampled_from([-1, 1]))
        if moved < 1 and not bad_letters:
            moved = 1
        elif moved == 1 and bad_letters and draw(st.booleans()):
            moved = True
        out[i][j] = moved
        if not bad_letters:
            out[i].sort()
    return tuple(tuple(row) for row in out)


def _constructor_error(rows) -> str | None:
    try:
        Tableau(rows)
    except ValueError as exc:
        return str(exc)
    return None


class TestRuns:
    """``_runs`` finds each run's end by bisection; groupby is the reference."""

    @given(sorted_rows)
    def test_matches_groupby(self, row):
        assert _runs(row) == runs_reference(row)

    @pytest.mark.parametrize(
        "row",
        [(), (7,), (1, 2, 3, 4), (5,) * 1000, (1,) * 3 + (2,) + (9,) * 500, tuple(range(1, 200))],
    )
    def test_fixed_rows(self, row):
        assert _runs(row) == runs_reference(row)


class TestTableauMatchesElementwiseReference:
    """Tableau(rows) checks each row's letters and order, then the rows'
    lengths and columns at C speed: it accepts and rejects exactly what a
    cell-by-cell walk does, with the same message."""

    @staticmethod
    def check(rows):
        expected = tableau_error(rows)
        assert _constructor_error(rows) == expected
        if expected is None:
            assert Tableau(rows).rows == rows
        elif not expected.startswith("letters"):
            with pytest.raises(InvalidTableauError):
                Tableau(rows)

    @given(
        st.lists(
            st.one_of(_rows, st.lists(st.sampled_from([0, 1, 2, True]), max_size=4).map(tuple)),
            max_size=4,
        ).map(tuple)
    )
    def test_random_stacks(self, rows):
        self.check(rows)

    @given(near_tableaux())
    def test_changed_insertion_tableaux(self, rows):
        self.check(rows)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (((1, 1, 3), (2, 4, 5), (3,)), None),
            (((1,) * 10 + (3,) + (2,) * 14,),
             "row 0 is not weakly increasing: (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 2, 2, 2, 2, 2, 2, 2, 2,..."),
            (((1,), ()), "row 1 is empty"),
            (((1, True),), "letters must be integers >= 1, got True"),
            (((2, 1),), "row 0 is not weakly increasing: (2, 1)"),
            (((1,), (2, 3)), "row 1 is longer than row 0 (2 > 1)"),
            (((1, 2), (1,)), "rows 0 and 1 are not strictly increasing downward"),
            (((1, 2, 2), (2, 2)), "rows 0 and 1 are not strictly increasing downward"),
            (((1, 1, 2), (2, 3), (3, 3)), "rows 1 and 2 are not strictly increasing downward"),
        ],
    )
    def test_examples(self, rows, message):
        assert tableau_error(rows) == message
        self.check(rows)


class TestInsertionChecksTheKernelsRows:
    """Each insertion function checks the kernel's spelt rows once before
    it builds the tableau: a kernel that emitted some stack of rows gets
    the verdict and message that ``Tableau(rows)`` gives that stack. The
    stacks are of weakly increasing rows of letters >= 1, the rows the
    kernel spells out."""

    WRAPPERS = {
        "insertion_tableau": insertion_tableau,
        "insertion_steps": lambda w: insertion_steps(w)[-1],
        "tableau_insert": lambda w: tableau_insert(Tableau(), w[0]),
    }

    @classmethod
    def check(cls, wrapper, rows):
        def units(spelt, w):
            return [list(row) for row in rows]

        expected = _constructor_error(rows)
        # Every wrapper runs the one classical kernel, which emits the stack.
        with mock.patch.object(classical, "_insert_units", units):
            if expected is None:
                assert cls.WRAPPERS[wrapper]((1,)) == Tableau(rows)
            else:
                with pytest.raises(InvalidTableauError) as info:
                    cls.WRAPPERS[wrapper]((1,))
                assert str(info.value) == expected

    @pytest.mark.parametrize("wrapper", WRAPPERS)
    @pytest.mark.parametrize(
        "rows",
        [
            ((1, 1, 3), (2, 4, 5), (3,)),  # valid
            ((1,), ()),  # empty row
            ((1,), (2, 3)),  # longer than the row above
            ((1, 2, 2), (2, 2)),  # equal letters in column 1
            ((1, 1, 2), (2, 2, 2)),  # equal letters in the last column
        ],
    )
    def test_bad_rows(self, wrapper, rows):
        self.check(wrapper, rows)

    @given(
        st.sampled_from(sorted(WRAPPERS)),
        st.one_of(
            near_tableaux(rows=_sorted_rows, bad_letters=False),
            st.lists(_sorted_rows, max_size=4).map(tuple),
        ),
    )
    def test_random_stacks(self, wrapper, rows):
        self.check(wrapper, rows)

    def test_decreasing_rows_are_refused(self):
        def units(spelt, w):
            return [[2, 1]]

        with mock.patch.object(classical, "_insert_units", units):
            with pytest.raises(InvalidTableauError) as info:
                insertion_tableau((1,))
        assert str(info.value) == "row 0 is not weakly increasing: (2, 1)"


class TestTableauInsert:
    def test_bump_chain(self):
        t = Tableau(((1, 1, 5), (2, 4), (3,)))
        assert tableau_insert(t, 3).rows == TABLEAU_3421153

    def test_into_empty(self):
        assert tableau_insert(Tableau(), 7).rows == ((7,),)

    def test_append_no_bump(self):
        assert tableau_insert(Tableau(((1, 1),)), 1).rows == ((1, 1, 1),)


class TestInsertionTableau:
    def test_running_example(self):
        assert insertion_tableau(WORD_3421153).rows == TABLEAU_3421153

    def test_steps(self):
        assert tuple(t.rows for t in insertion_steps(WORD_3421153)) == STEPS_3421153

    def test_empty(self):
        assert insertion_tableau(()) == Tableau()

    def test_strictly_decreasing_word_gives_one_column(self):
        assert insertion_tableau((3, 2, 1)).rows == ((1,), (2,), (3,))

    @given(words)
    def test_always_valid(self, w):
        insertion_tableau(w)  # construction validates all invariants

    @given(long_words)
    def test_matches_plain_list_reference(self, w):
        assert insertion_tableau(w).rows == schensted_rows(w)

    @given(long_words)
    def test_steps_match_reference_on_prefixes(self, w):
        steps = insertion_steps(w)
        assert [t.rows for t in steps] == [schensted_rows(w[: i + 1]) for i in range(len(w))]

    @given(long_words, st.integers(1, 6))
    def test_tableau_insert_matches_reference(self, w, a):
        assert tableau_insert(insertion_tableau(w), a).rows == schensted_rows(w + (a,))


class TestReadingWordAndShape:
    def test_reading_example(self):
        assert reading_word(Tableau(TABLEAU_3421153)) == (3, 2, 4, 5, 1, 1, 3)

    def test_reading_empty(self):
        assert reading_word(Tableau()) == ()

    def test_reading_single_row(self):
        assert reading_word(Tableau(((1, 2),))) == (1, 2)

    def test_shape_examples(self):
        assert shape(Tableau(((1, 1, 5), (2, 4), (3,)))) == (3, 2, 1)
        assert shape(Tableau(TABLEAU_3421153)) == (3, 3, 1)
        assert shape(Tableau()) == ()

    @given(words)
    def test_reading_word_roundtrip(self, w):
        t = insertion_tableau(w)
        assert insertion_tableau(reading_word(t)) == t


class TestKnuthNeighbors:
    def test_swap_last_two(self):
        assert (4, 2, 3, 1, 4, 4, 3) in knuth_neighbors((4, 2, 1, 3, 4, 4, 3))

    def test_swap_first_two(self):
        assert (3, 2, 4) in knuth_neighbors((3, 4, 2))

    def test_constant_word_has_no_moves(self):
        assert knuth_neighbors((1, 1, 1)) == set()

    @given(words)
    def test_symmetry_and_multiset(self, w):
        for w2 in knuth_neighbors(w):
            assert len(w2) == len(w)
            assert sorted(w2) == sorted(w)
            assert w in knuth_neighbors(w2)

    @given(words)
    def test_moves_preserve_insertion_tableau(self, w):
        t = insertion_tableau(w)
        for w2 in knuth_neighbors(w):
            assert insertion_tableau(w2) == t


class TestSchensted:
    @given(st.lists(st.integers(1, 4), max_size=10).map(tuple))
    def test_first_row_is_longest_weakly_increasing_subword(self, w):
        from timed_plactic import greene_classical_oracle

        t = insertion_tableau(w)
        first_row = len(t.rows[0]) if t.rows else 0
        assert greene_classical_oracle(w, 1) == ((first_row,) if w else ())


class TestKnuthEquivalence:
    def test_running_example(self):
        assert knuth_equivalent_bfs(WORD_3421153, (3, 2, 4, 5, 1, 1, 3))

    def test_reflexive(self):
        assert knuth_equivalent_bfs((2, 1, 2), (2, 1, 2))

    def test_two_letter_words_are_rigid(self):
        assert not knuth_equivalent_bfs((1, 2), (2, 1))

    def test_budget_error_is_distinct(self):
        with pytest.raises(BudgetExceededError):
            knuth_equivalent_bfs(WORD_3421153, (1, 1, 2, 3, 3, 4, 5), budget=2)

    @given(words)
    def test_bfs_matches_tableau_equality_on_neighbors(self, w):
        for w2 in knuth_neighbors(w):
            assert knuth_equivalent(w, w2)
            assert knuth_equivalent_bfs(w, w2)

    def test_bfs_matches_tableau_equality_exhaustively(self):
        # all same-multiset pairs up to length 6 over {1, 2, 3}; moves
        # preserve the multiset, so other pairs are trivially inequivalent
        import itertools

        groups: dict = {}
        tableaux: dict = {}
        for n in range(1, 7):
            for w in itertools.product((1, 2, 3), repeat=n):
                groups.setdefault(tuple(sorted(w)), []).append(w)
                tableaux[w] = insertion_tableau(w)
        for members in groups.values():
            for a, b in itertools.combinations_with_replacement(members, 2):
                expected = tableaux[a] == tableaux[b]
                assert knuth_equivalent_bfs(a, b) is expected, (a, b)
