"""The contract of the five immutable value classes: Tableau, TimedWord,
TimeSample, TimedTableau and TimedKnuthMove.

Each compares equal only to an object of its own class with equal fields,
hashes as the tuple of the values that equality compares (its grid, for a
word or tableau), shows its fields in its repr, is false only when empty,
survives pickling, and refuses assignment to and deletion of a field with
an AttributeError. A wrong-typed argument to a constructor or a row
function raises one of the library's own errors, which names it. A
constructor reads its argument once, from any iterable, and keeps nothing
of it beside its one stored form.
"""

import pickle
from fractions import Fraction

import pytest

from timed_plactic import (
    InvalidTableauError,
    NotARowError,
    Run,
    Tableau,
    TimedKnuthMove,
    TimedTableau,
    TimedWord,
    TimeSample,
    is_row,
    is_timed_row,
    row_insert,
    tableau_insert,
    timed_row_insert,
    timed_row_insert_word,
    timed_tableau_insert,
)
from timed_plactic.cli import main
from timed_plactic.timed_words import _word

from conftest import tw

F = Fraction

# (value, its fields in order, its repr), one or more per class.
CASES = [
    (Tableau(((1, 2), (3,))), ("rows",), "Tableau(rows=((1, 2), (3,)))"),
    (Tableau(), ("rows",), "Tableau(rows=())"),
    (tw("1^1/2 2^3"), ("runs",), "TimedWord('1^1/2 2^3')"),
    (TimedWord(), ("runs",), "TimedWord('')"),
    (
        TimeSample(((F(0), F(1, 2)), (F(1), F(2)))),
        ("intervals",),
        "TimeSample(intervals=((Fraction(0, 1), Fraction(1, 2)), "
        "(Fraction(1, 1), Fraction(2, 1))))",
    ),
    (TimeSample(), ("intervals",), "TimeSample(intervals=())"),
    (
        TimedTableau((tw("1^1 2^1/2"), tw("3^1"))),
        ("rows",),
        "TimedTableau('1^1 2^1/2' | '3^1')",
    ),
    (TimedTableau(), ("rows",), "TimedTableau()"),
    (
        TimedKnuthMove("k2", 0, 1, "1/2", F(1, 2)),
        ("kind", "position", "cut1", "cut2", "cut3", "reverse"),
        "TimedKnuthMove(kind='k2', position=Fraction(0, 1), cut1=Fraction(1, 1), "
        "cut2=Fraction(1, 2), cut3=Fraction(1, 2), reverse=False)",
    ),
]

EMPTY = {"Tableau(rows=())", "TimedWord('')", "TimeSample(intervals=())", "TimedTableau()"}

IDS = [type(value).__name__ for value, _, _ in CASES]


def field_values(value, fields):
    return tuple(getattr(value, name) for name in fields)


def rebuilt(value, fields):
    """An equal object built anew from the value's fields."""
    return type(value)(*field_values(value, fields))


@pytest.mark.parametrize("value, fields, text", CASES, ids=IDS)
class TestContract:
    def test_repr(self, value, fields, text):
        assert repr(value) == text

    def test_hash_is_the_hash_of_the_fields(self, value, fields, text):
        # The hash reads what equality compares: the key, which is the
        # fields unless the class is stored in another form (a grid).
        assert hash(value) == hash(field_values(value, type(value)._key))

    def test_equal_to_a_rebuilt_copy(self, value, fields, text):
        copy = rebuilt(value, fields)
        assert copy is not value
        assert copy == value and not copy != value
        assert hash(copy) == hash(value)

    def test_not_equal_to_other_kinds(self, value, fields, text):
        assert value != field_values(value, fields)
        assert value != object()
        for other, _, _ in CASES:
            if type(other) is not type(value):
                assert value != other
                assert value.__eq__(other) is NotImplemented

    def test_fields_cannot_be_assigned_or_deleted(self, value, fields, text):
        for name in fields:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) == before

    def test_new_attributes_cannot_be_set(self, value, fields, text):
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_pickle_round_trip(self, value, fields, text):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and repr(copy) == text

    def test_truth(self, value, fields, text):
        # Empty containers are false; a render spec or a move is always true.
        assert bool(value) is bool(getattr(value, fields[0]))
        assert bool(value) is (text not in EMPTY)


def test_empty_tableaux_of_both_kinds_differ():
    assert Tableau(()) != TimedTableau(())
    assert TimedTableau(()) != Tableau(())
    assert Tableau() == Tableau(()) and TimedTableau() == TimedTableau(())


class TestConstruction:
    def test_keyword_arguments(self):
        assert Tableau(rows=((1,),)) == Tableau(((1,),))
        runs = (Run(1, F(1)),)
        assert TimedWord(runs=runs) == TimedWord(runs)
        assert TimeSample(intervals=((F(0), F(1)),)) == TimeSample(((F(0), F(1)),))
        rows = (tw("1^1"),)
        assert TimedTableau(rows=rows) == TimedTableau(rows)
        m = TimedKnuthMove(kind="k1", position="1/3", cut1=1, cut2=1, cut3=2, reverse=True)
        assert m == TimedKnuthMove("k1", F(1, 3), 1, 1, 2, True)

    def test_defaults(self):
        assert Tableau().rows == ()
        assert TimedWord().runs == ()
        assert TimeSample().intervals == ()
        assert TimedTableau().rows == ()
        assert TimedKnuthMove("k1", 0, 1, 1, 1).reverse is False

    def test_move_fields_become_fractions(self):
        m = TimedKnuthMove(kind="k1", position=2, cut1="0.5", cut2=F(3, 4), cut3="1/3")
        assert (m.position, m.cut1, m.cut2, m.cut3) == (F(2), F(1, 2), F(3, 4), F(1, 3))
        assert all(type(x) is Fraction for x in (m.position, *m.cuts))
        assert m.kind == "k1" and m.reverse is False

    @pytest.mark.parametrize(
        "args, message",
        [
            (("k3", 0, 1, 1, 1), "move kind must be 'k1' or 'k2', got 'k3'"),
            (("k1", 0, 1, 0, 1), "cut2 must be positive, got 0"),
            (("k1", -1, 1, 1, 1), "position must be nonnegative, got -1"),
            (("k1", -1, 0, 1, 1), "cut1 must be positive, got 0"),
        ],
    )
    def test_move_messages_and_their_order(self, args, message):
        with pytest.raises(ValueError) as info:
            TimedKnuthMove(*args)
        assert str(info.value) == message

    def test_move_refuses_floats(self):
        with pytest.raises(TypeError, match="durations must be exact"):
            TimedKnuthMove("k1", 0.5, 1, 1, 1)


class TestCachedLength:
    def test_the_cache_that_word_fills_is_read(self):
        runs = (Run(1, F(1, 2)), Run(2, F(3)))
        w = _word(runs)
        assert w.length == F(7, 2)
        assert w.__dict__["length"] == F(7, 2)
        # The cache is no field: equality, hashing and repr ignore it.
        assert w == TimedWord(runs) and hash(w) == hash(TimedWord(runs))
        assert repr(w) == "TimedWord('1^1/2 2^3')"

    def test_the_length_is_computed_once_and_cached(self):
        w = TimedWord((Run(1, F(1, 2)), Run(2, F(1, 3))))
        assert "length" not in w.__dict__
        assert w.length == F(5, 6)
        assert w.__dict__["length"] == F(5, 6)
        assert w.length is w.__dict__["length"]


_W = TimedWord((Run(1, F(1, 2)), Run(2, F(1))))

# A wrong-typed argument to each constructor and row function: the call, the
# library error it raises, and the start of the message, which names the
# argument.
WRONG_TYPES = {
    # An argument that is not iterable at all is named as a bad entry is.
    "Tableau 5": (lambda: Tableau(5), InvalidTableauError,
                  "rows must be an iterable of rows, got 5"),
    "TimedTableau 5": (lambda: TimedTableau(5), InvalidTableauError,
                       "rows must be an iterable of timed words, got 5"),
    "TimedWord 5": (lambda: TimedWord(5), ValueError,
                    "runs must be an iterable of (letter, duration) pairs, got 5"),
    "TimeSample 5": (lambda: TimeSample(5), ValueError,
                     "intervals must be an iterable of pairs, got 5"),
    "Tableau row 5": (lambda: Tableau((5,)), InvalidTableauError,
                      "row 0 is not a sequence of letters: 5"),
    "Tableau row None": (lambda: Tableau((None,)), InvalidTableauError,
                         "row 0 is not a sequence of letters: None"),
    "TimedTableau row 5": (lambda: TimedTableau((5,)), InvalidTableauError,
                           "row 0 is not a timed word: 5"),
    "TimedTableau row None": (lambda: TimedTableau((None,)), InvalidTableauError,
                              "row 0 is not a timed word: None"),
    "TimedTableau row pair": (lambda: TimedTableau(((1, 2),)), InvalidTableauError,
                              "row 0 is not a timed word: (1, 2)"),
    "TimedTableau row text": (lambda: TimedTableau((_W, "3^1")), InvalidTableauError,
                              "row 1 is not a timed word: '3^1'"),
    "TimedWord run 5": (lambda: TimedWord((5,)), ValueError,
                        "run 0 is not a (letter, duration) pair: 5"),
    "TimedWord run of one": (lambda: TimedWord(((1,),)), ValueError,
                             "run 0 is not a (letter, duration) pair: (1,)"),
    "TimedWord float": (lambda: TimedWord(((1, 0.5),)), ValueError,
                        "run durations must be positive Fractions"),
    "TimeSample interval 5": (lambda: TimeSample((5,)), ValueError,
                              "interval 0 is not a pair of endpoints: 5"),
    "TimeSample ints": (lambda: TimeSample(((1, 2),)), ValueError,
                        "interval endpoints must be Fractions"),
    "TimedKnuthMove kind": (lambda: TimedKnuthMove(5, 0, 1, 1, 1), ValueError,
                            "move kind must be 'k1' or 'k2', got 5"),
    "TimedKnuthMove None": (lambda: TimedKnuthMove("k1", None, 1, 1, 1), TypeError,
                            "durations must be exact (int, str, or Fraction), got None"),
    "row_insert 5": (lambda: row_insert(5, 1), NotARowError,
                     "row_insert needs a weakly increasing word, got 5"),
    "row_insert set": (lambda: row_insert({1, 2}, 1), NotARowError,
                       "row_insert needs a weakly increasing word, got {1, 2}"),
    "row_insert None": (lambda: row_insert(None, 1), NotARowError,
                        "row_insert needs a weakly increasing word, got None"),
    "row_insert text letter": (lambda: row_insert((1, "a"), 1), NotARowError,
                               "row_insert needs a weakly increasing word, got (1, 'a')"),
    "row_insert letter": (lambda: row_insert((1, 2), "x"), ValueError,
                          "letters must be integers >= 1, got 'x'"),
    "tableau_insert 5": (lambda: tableau_insert(5, 1), InvalidTableauError,
                         "tableau_insert needs a tableau, got 5"),
    "tableau_insert row": (lambda: tableau_insert((1, 2), 1), InvalidTableauError,
                           "tableau_insert needs a tableau, got (1, 2)"),
    "timed_row_insert 5": (lambda: timed_row_insert(5, 1, 1), NotARowError,
                           "timed_row_insert needs a timed row, got 5"),
    "timed_row_insert pair": (lambda: timed_row_insert((1, 2), 1, 1), NotARowError,
                              "timed_row_insert needs a timed row, got (1, 2)"),
    "timed_row_insert None": (lambda: timed_row_insert(_W, 1, None), TypeError,
                              "durations must be exact (int, str, or Fraction), got None"),
    "timed_row_insert_word row 5": (lambda: timed_row_insert_word(5, _W), NotARowError,
                                    "timed_row_insert_word needs a timed row, got 5"),
    "timed_row_insert_word word 5": (lambda: timed_row_insert_word(_W, 5), NotARowError,
                                     "timed_row_insert_word inserts a timed word, got 5"),
    "timed_tableau_insert row 5": (lambda: timed_tableau_insert(TimedTableau((_W,)), 5),
                                   NotARowError, "timed_tableau_insert needs a timed row, got 5"),
    "timed_tableau_insert tableau 5": (lambda: timed_tableau_insert(5, _W), InvalidTableauError,
                                       "timed_tableau_insert needs a timed tableau, got 5"),
    "is_row 5": (lambda: is_row(5), TypeError, "is_row needs a word, got 5"),
    "is_timed_row 5": (lambda: is_timed_row(5), TypeError,
                       "is_timed_row needs a timed word, got 5"),
}


@pytest.mark.parametrize("name", list(WRONG_TYPES))
def test_wrong_typed_arguments_raise_the_librarys_errors(name):
    call, error, message = WRONG_TYPES[name]
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is error
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("data, message", [
    ('{"rows": [5]}', "bad tableau JSON: 'int' object is not iterable"),
    ('{"rows": [{"runs": 5}]}', "bad timed-word JSON: 'int' object is not iterable"),
])
def test_a_type_error_raised_while_the_entries_are_read_keeps_its_message(
    data, message, tmp_path, capsys
):
    # The JSON readers hand the constructors a generator, which is
    # iterable; a row that is not is met only as the generator runs.
    assert main(["render", data, "--svg", str(tmp_path / "out.svg")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not (tmp_path / "out.svg").exists()


# The four classes built from a sequence of entries: each one's entries as
# a tuple, and the attributes that it stores.
_ROWS = ((1, 1, 3), (2, 4), (3,))
_RUNS = (Run(1, F(1, 2)), Run(2, F(3)), Run(1, F(1, 3)))
_PAIRS = ((F(0), F(1, 2)), (F(1), F(2)))
FROM_ENTRIES = {
    "Tableau": (Tableau, _ROWS, {"rows"}),
    "TimedTableau": (TimedTableau, (tw("1^1 2^1/2"), tw("3^1/3")), {"grid", "q"}),
    "TimedWord": (TimedWord, _RUNS, {"letters", "counts", "q"}),
    "TimeSample": (TimeSample, _PAIRS, {"intervals"}),
}
SOURCES = {
    "iterator": iter,
    "generator": lambda entries: (entry for entry in entries),
    "list": list,
    # Entries that are tuples given as lists too: rows, runs and intervals.
    "lists": lambda entries: [list(e) if isinstance(e, tuple) else e for e in entries],
}


@pytest.mark.parametrize("source", list(SOURCES))
@pytest.mark.parametrize("name", list(FROM_ENTRIES))
def test_the_argument_is_read_once_and_kept_by_no_one(name, source):
    """Built from an iterator, a generator or a list, a value equals,
    hashes and reprs as the value built from the tuple of the same entries,
    stores its one form and nothing else, and does not change when the
    caller edits the list it was given."""
    cls, entries, stored = FROM_ENTRIES[name]
    twin = cls(entries)
    given = SOURCES[source](entries)
    value = cls(given)
    assert set(value.__dict__) == stored
    assert value == twin and hash(value) == hash(twin) and repr(value) == repr(twin)
    if isinstance(given, list):
        for entry in given:
            if isinstance(entry, list):
                entry.append(entry[-1])
        given.append(entries[0])
        given.reverse()
        assert value == twin and hash(value) == hash(twin) and repr(value) == repr(twin)
