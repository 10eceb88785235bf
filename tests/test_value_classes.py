"""The contract of the five immutable value classes: Tableau, TimedWord,
TimeSample, TimedTableau and TimedKnuthMove.

Each compares equal only to an object of its own class with equal fields,
hashes as the tuple of the values that equality compares (its grid, for a
word or tableau), shows its fields in its repr, is false only when empty,
survives pickling, and refuses assignment to and deletion of a field with
an AttributeError.
"""

import pickle
from fractions import Fraction

import pytest

from timed_plactic import (
    Run,
    Tableau,
    TimedKnuthMove,
    TimedTableau,
    TimedWord,
    TimeSample,
)
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
