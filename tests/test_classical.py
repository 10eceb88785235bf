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
    reading_word,
    row_insert,
    shape,
    tableau_insert,
)

from conftest import (
    STEPS_3421153,
    TABLEAU_3421153,
    WORD_3421153,
    schensted_rows,
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
        assert greene_classical_oracle(w, 1) == first_row


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
