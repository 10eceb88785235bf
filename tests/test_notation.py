import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from timed_plactic import (
    NotationError,
    Tableau,
    TimedKnuthMove,
    TimedTableau,
    format_duration,
    format_timed_tableau,
    format_timed_word,
    format_word,
    insertion_tableau,
    move_from_dict,
    move_to_dict,
    parse_duration,
    parse_timed_word,
    parse_word,
    parse_word_or_timed,
    tableau_from_dict,
    tableau_to_dict,
    timed_insertion_tableau,
    timed_tableau_from_dict,
    timed_tableau_to_dict,
    timed_word_from_dict,
    timed_word_to_dict,
)

from conftest import timed_words, tokens_then_normalize, tw, words


class TestParseDuration:
    def test_decimal(self):
        assert parse_duration("0.45") == Fraction(9, 20)

    def test_integer(self):
        assert parse_duration("12") == 12

    def test_fraction(self):
        assert parse_duration("41/50") == Fraction(41, 50)

    def test_rejects_exponent_notation(self):
        with pytest.raises(NotationError):
            parse_duration("1e3")

    def test_rejects_zero_denominator(self):
        with pytest.raises(NotationError):
            parse_duration("1/0")


class TestFormatDuration:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(41, 50), "0.82"),
            (Fraction(1, 3), "1/3"),
            (Fraction(2), "2"),
            (Fraction(13, 4), "3.25"),
            (Fraction(1, 2), "0.5"),
        ],
    )
    def test_examples(self, value, expected):
        assert format_duration(value) == expected

    @given(timed_words)
    def test_roundtrip_through_parse(self, w):
        for _, dur in w.runs:
            assert parse_duration(format_duration(dur)) == dur


class TestParseTimedWord:
    def test_decimal_durations(self):
        w = parse_timed_word("3^0.82 5^0.08 2^0.45")
        assert w.runs == (
            (3, Fraction(41, 50)),
            (5, Fraction(2, 25)),
            (2, Fraction(9, 20)),
        )

    def test_fraction_syntax_normalizes(self):
        assert parse_timed_word("2^1/3 2^2/3") == tw("2^1")

    def test_zero_duration_rejected(self):
        with pytest.raises(NotationError):
            parse_timed_word("3^0")

    def test_empty_string(self):
        assert parse_timed_word("") == tw("")
        assert parse_timed_word("   ") == tw("")

    def test_adjacent_tokens_split_unambiguously(self):
        assert parse_timed_word("3^0.825^0.08") == tw("3^0.82 5^0.08")
        assert parse_timed_word("1^12^1") == tw("1^1 2^1")

    def test_error_position(self):
        with pytest.raises(NotationError) as err:
            parse_timed_word("3^0.5 oops")
        assert err.value.position == 6

    def test_letter_zero_rejected(self):
        with pytest.raises(NotationError):
            parse_timed_word("0^1")

    @pytest.mark.parametrize("text", ["١^٠.٥", "1^٠.٥", "1^1/٢", "1^²", "²^1", "1^1 ٢^1"])
    def test_only_ascii_digits(self, text):
        with pytest.raises(NotationError):
            parse_timed_word(text)

    @pytest.mark.parametrize("text", ["٠.٥", "1/٢", "²", "١"])
    def test_durations_take_only_ascii_digits(self, text):
        with pytest.raises(NotationError):
            parse_duration(text)

    @given(timed_words)
    def test_format_parse_roundtrip(self, w):
        assert parse_timed_word(format_timed_word(w)) == w


# Numerals of the timed grammar, with leading and trailing zeros, zero
# values and zero denominators.
_digits = st.text("0123456789", min_size=1, max_size=4)
numerals = st.one_of(
    _digits,
    st.builds("{}.{}".format, _digits, _digits),
    st.builds("{}/{}".format, _digits, _digits),
)


class TestUnspacedText:
    """Without whitespace, a token's duration is the longest numeral after
    which the rest of the text starts a new <letter>^ token."""

    @pytest.mark.parametrize(
        "text, runs",
        [
            ("1^1/23^2", ((1, Fraction(1, 2)), (3, Fraction(2)))),
            ("1^12^3", ((1, Fraction(1)), (2, Fraction(3)))),
            ("3^0.825^0.08", ((3, Fraction(41, 50)), (5, Fraction(2, 25)))),
        ],
    )
    def test_reading(self, text, runs):
        assert parse_timed_word(text).runs == runs
        assert format_timed_word(parse_timed_word(text)) == " ".join(
            f"{c}^{format_duration(d)}" for c, d in runs
        )

    @given(numerals, st.sampled_from(["", "1^1 ", "2^3/4", "1^0.5"]))
    @example("007", "")
    @example("0.10", "")
    @example("12/08", "")
    @example("0.00", "1^1 ")
    @example("0/7", "2^3/4")
    @example("3/0", "")
    def test_durations_match_fraction_of_the_numeral(self, numeral, prefix):
        text = f"{prefix}5^{numeral}"
        at = len(prefix) + 2
        try:
            expected = Fraction(numeral)
        except ZeroDivisionError:
            message = re.escape(f"zero denominator in {numeral!r}")
            with pytest.raises(NotationError, match=message):
                parse_duration(numeral)
            with pytest.raises(NotationError, match=message):
                parse_timed_word(text)
            return
        assert parse_duration(numeral) == expected
        if expected:
            assert parse_timed_word(text).runs[-1] == (5, expected)
        else:
            with pytest.raises(NotationError, match="durations must be positive") as info:
                parse_timed_word(text)
            assert info.value.position == at

    @given(numerals, st.sampled_from(["", "1^1 "]))
    def test_negative_durations_rejected_at_the_token(self, numeral, prefix):
        with pytest.raises(NotationError, match="expected <letter>") as info:
            parse_timed_word(f"{prefix}5^-{numeral}")
        assert info.value.position == len(prefix)


# Text near the timed grammar: tokens with letters from 0, numerals of every
# form, optional whitespace of several kinds (a line feed, a vertical tab,
# a file separator and an em space are whitespace to str.isspace and to
# regex \s alike), and stray characters.
_spaces = st.sampled_from(["", " ", "  ", "\t", "\n", "\x0b", "\x1c", "\u2003"])
_token = st.builds(
    "{}^{}{}".format,
    st.sampled_from(["0", "1", "2", "3", "12"]),
    numerals,
    _spaces,
)
timed_texts = st.one_of(
    st.builds("{}{}{}".format, _spaces, st.lists(_token, max_size=24).map("".join), _spaces),
    st.text("0123456789^/. x", max_size=24),
)


class TestOnePassParser:
    """The parser checks and merges runs in one pass; it must read every text
    as tokens followed by ``normalize`` do, errors included."""

    @given(timed_texts)
    @example("1^1 1^1/2")
    @example("2^1 2^0.5 2^1/4 3^1 3^1")
    @example("1^1 1^0")
    @example("1^1 0^1")
    @example("1^1 1^1/0")
    @example("1^12^3")
    @example("3^0.825^0.08")
    @example("1^1/23^2")
    @example("1^1 x 0^1")
    @example("0^1 1^1/0")
    def test_matches_tokens_then_normalize(self, text):
        try:
            expected = tokens_then_normalize(text)
        except NotationError as exc:
            with pytest.raises(NotationError) as info:
                parse_timed_word(text)
            assert str(info.value) == str(exc)
            assert info.value.position == exc.position
            return
        word = parse_timed_word(text)
        assert word == expected
        assert word.runs == expected.runs

    def test_merges_equal_neighbours(self):
        assert parse_timed_word("1^1 1^1/2").runs == ((1, Fraction(3, 2)),)
        assert parse_timed_word("2^1 1^1 1^1 2^1") == tw("2^1 1^2 2^1")


class TestDigitBound:
    @pytest.mark.parametrize(
        "block", ["1" * 4300 + " ", "1^" + "1" * 4290 + "x "], ids=["digits", "carets"]
    )
    def test_many_runs_just_under_the_bound_are_refused_in_linear_time(self, block):
        # 300 blocks, 1.29 MB: a search that tries the bound's whole window
        # at every position takes 6-8 s on them (Python 3.11, 2-vCPU host).
        text = block * 300
        start = time.perf_counter()
        with pytest.raises(NotationError) as info:
            parse_timed_word(text)
        assert time.perf_counter() - start < 1
        assert info.value.position == 0


class TestParseWord:
    def test_digit_string(self):
        assert parse_word("3421153") == (3, 4, 2, 1, 1, 5, 3)

    def test_comma_separated(self):
        assert parse_word("12,3,11") == (12, 3, 11)

    def test_empty(self):
        assert parse_word("") == ()

    def test_letter_zero_rejected(self):
        with pytest.raises(NotationError):
            parse_word("102")
        with pytest.raises(NotationError):
            parse_word("1,0,2")

    def test_garbage_rejected(self):
        with pytest.raises(NotationError):
            parse_word("1a2")

    @pytest.mark.parametrize("text", ["²", "١٢", "1,²", "1,١٢"])
    def test_only_ascii_digits(self, text):
        # str.isdigit accepts these, and int() reads the Arabic-Indic ones
        with pytest.raises(NotationError):
            parse_word(text)

    @given(words)
    def test_format_parse_roundtrip(self, w):
        assert parse_word(format_word(w)) == w

    def test_large_letters_roundtrip(self):
        assert parse_word(format_word((12, 3, 11))) == (12, 3, 11)

    def test_dispatch(self):
        assert parse_word_or_timed("31") == (3, 1)
        assert parse_word_or_timed("3^1") == tw("3^1")


class TestJson:
    def test_timed_word_dict(self):
        w = tw("3^0.82 5^2")
        data = timed_word_to_dict(w)
        assert data == {
            "runs": [
                {"letter": 3, "dur": "41/50"},
                {"letter": 5, "dur": "2"},
            ]
        }
        assert timed_word_from_dict(data) == w

    def test_timed_word_dict_accepts_decimal_strings(self):
        assert timed_word_from_dict(
            {"runs": [{"letter": 3, "dur": "0.82"}]}
        ) == tw("3^0.82")

    def test_timed_word_dict_rejects_garbage(self):
        with pytest.raises(NotationError):
            timed_word_from_dict({"oops": []})
        with pytest.raises(NotationError):
            timed_word_from_dict({"runs": [{"letter": 3, "dur": "0"}]})

    @pytest.mark.parametrize("letter", [1.5, 2.0, True, "3", None])
    def test_timed_word_dict_rejects_non_integer_letters(self, letter):
        with pytest.raises(NotationError, match="JSON integers"):
            timed_word_from_dict({"runs": [{"letter": letter, "dur": "1"}]})

    @pytest.mark.parametrize("dur", [0.10000000000000001, 0.5, 2.0, True, None, [1]])
    def test_json_durations_are_strings_or_integers(self, dur):
        with pytest.raises(NotationError, match="JSON strings or integers"):
            timed_word_from_dict({"runs": [{"letter": 1, "dur": dur}]})
        move = {"kind": "k1", "u_len": "0", "x_len": "1", "y_len": "1", "z_len": "1"}
        for key in ("u_len", "x_len", "y_len", "z_len"):
            with pytest.raises(NotationError, match="JSON strings or integers"):
                move_from_dict({**move, key: dur})

    def test_json_integer_durations(self):
        assert timed_word_from_dict({"runs": [{"letter": 1, "dur": 2}]}) == tw("1^2")
        move = {"kind": "k1", "u_len": 0, "x_len": 1, "y_len": 1, "z_len": 1}
        assert move_from_dict(move) == TimedKnuthMove("k1", 0, 1, 1, 1)
        with pytest.raises(NotationError, match="not a duration"):
            timed_word_from_dict({"runs": [{"letter": 1, "dur": -1}]})

    @pytest.mark.parametrize("rows", [[[1.7, 2]], [[1, 2.0]], [[False]], [["1"]]])
    def test_tableau_dict_rejects_non_integer_letters(self, rows):
        with pytest.raises(NotationError, match="JSON integers"):
            tableau_from_dict({"rows": rows})

    @pytest.mark.parametrize("rows", [None, 5, [5]])
    def test_timed_tableau_dict_rejects_bad_rows(self, rows):
        with pytest.raises(NotationError):
            timed_tableau_from_dict({"rows": rows})

    @pytest.mark.parametrize("reverse", ["false", "true", 0, 1, None])
    def test_move_dict_requires_boolean_reverse(self, reverse):
        data = {"kind": "k1", "u_len": "0", "x_len": "1", "y_len": "1", "z_len": "1"}
        with pytest.raises(NotationError, match="reverse"):
            move_from_dict({**data, "reverse": reverse})
        assert move_from_dict({**data, "reverse": False}).reverse is False

    def test_tableau_dict(self):
        t = Tableau(((1, 1, 3), (2, 4, 5), (3,)))
        data = tableau_to_dict(t)
        assert data == {"rows": [[1, 1, 3], [2, 4, 5], [3]]}
        assert tableau_from_dict(data) == t

    def test_timed_tableau_dict(self):
        t = TimedTableau((tw("1^1 3^1"), tw("3^1")))
        assert timed_tableau_from_dict(timed_tableau_to_dict(t)) == t

    def test_move_dict_roundtrip(self):
        move = TimedKnuthMove(
            "k2",
            Fraction("3.18"),
            Fraction("0.73"),
            Fraction("1.47"),
            Fraction("0.73"),
            reverse=True,
        )
        data = move_to_dict(move)
        assert data["kind"] == "k2"
        assert data["reverse"] is True
        assert move_from_dict(data) == move

    def test_move_dict_roles(self):
        data = {"kind": "k1", "u_len": "2", "x_len": "1", "y_len": "1/2", "z_len": "1/2"}
        move = move_from_dict(data)
        # k1 source order is x, z, y
        assert move.cuts == (Fraction(1), Fraction(1, 2), Fraction(1, 2))
        assert move_to_dict(move) == data

    def test_move_dict_rejects_bad_kind(self):
        with pytest.raises(NotationError):
            move_from_dict({"kind": "k9", "u_len": "0", "x_len": "1", "y_len": "1", "z_len": "1"})

    def test_format_timed_tableau(self):
        t = TimedTableau((tw("1^1 3^1"), tw("3^1")))
        assert format_timed_tableau(t) == "1^1 3^1\n3^1"


_PRIMES = [p for p in range(2, 200) if all(p % d for d in range(2, p))]

# Timed words whose runs have distinct prime denominators.
_coprime_words = st.lists(
    st.tuples(st.integers(1, 6), st.integers(1, 5), st.sampled_from(_PRIMES)),
    max_size=12,
    unique_by=lambda run: run[2],
).map(lambda runs: tw(" ".join(f"{c}^{n}/{p}" for c, n, p in runs)))


@st.composite
def _stacked_rows(draw):
    """A TimedTableau(rows) whose rows each use their own prime
    denominators, so a row's smallest grid is coarser than the tableau's:
    rows sorted longest first, and row i's letters in 10i+1..10i+9, so
    every column is strictly increasing."""
    runs = st.tuples(st.integers(1, 9), st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        p = draw(st.sampled_from(_PRIMES))
        cells = draw(st.lists(runs, min_size=1, max_size=4, unique_by=lambda r: r[0]))
        rows.append(sorted((c, Fraction(n, p)) for c, n in cells))
    rows.sort(key=lambda row: -sum(d for _, d in row))
    return TimedTableau(tuple(
        tw(" ".join(f"{10 * i + c}^{d}" for c, d in row)) for i, row in enumerate(rows)
    ))


class TestTableauWritersReadTheGrid:
    """The tableau writers read the grid; the row-based forms they replace
    are the reference."""

    @given(st.one_of(
        timed_words.map(timed_insertion_tableau),
        _coprime_words.map(timed_insertion_tableau),
        _stacked_rows(),
    ))
    @example(TimedTableau((tw("1^1/2 2^1/3"), tw("2^1/2"))))
    def test_timed_writer_equals_the_rows_form(self, t):
        data = json.dumps(timed_tableau_to_dict(t))
        assert data == json.dumps({"rows": [timed_word_to_dict(r) for r in t.rows]})

    @given(st.one_of(
        words.map(insertion_tableau),
        st.lists(st.integers(1, 30), max_size=60).map(insertion_tableau),
    ))
    def test_classical_writer_equals_the_rows_form(self, t):
        data = json.dumps(tableau_to_dict(t))
        assert data == json.dumps({"rows": [list(r) for r in t.rows]})
        assert data == json.dumps(tableau_to_dict(Tableau(t.rows)))

    def test_no_rows_are_built(self):
        t = timed_insertion_tableau(tw("3^1/7 1^2/11 4^3/13 2^1/17 1^5/19 3^1/23"))
        timed_tableau_to_dict(t)
        assert "rows" not in t.__dict__
        c = insertion_tableau((3, 4, 2, 1, 1, 5, 3))
        tableau_to_dict(c)
        assert "rows" not in c.__dict__
