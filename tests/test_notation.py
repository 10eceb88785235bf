import json
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from timed_plactic import (
    InvalidTableauError,
    NotationError,
    Tableau,
    TimedKnuthMove,
    TimedTableau,
    format_duration,
    format_timed_tableau,
    format_timed_word,
    format_word,
    insertion_tableau,
    letter_durations,
    move_from_dict,
    move_to_dict,
    normalize,
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

from timed_plactic import cli, notation
from timed_plactic.notation import human_rational

from conftest import (
    classical_text_reference,
    decimal_reference,
    letter_durations_reference,
    tableau_repr_reference,
    tableau_text_reference,
    timed_words,
    tokens_then_normalize,
    tw,
    word_text_reference,
    words,
)


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


class TestHumanRational:
    @pytest.mark.parametrize(
        "value, approx",
        [
            (Fraction(1, 3), "0.333333"),
            (Fraction(sys.float_info.min) * Fraction(4, 3), "2.96677e-308"),
            (Fraction(sys.float_info.max) / 3, "5.99231e+307"),
            # subnormal as a float, where float() keeps only a few digits
            (Fraction(1, 3 * 10**320), "3.33333e-321"),
        ],
    )
    def test_approximation(self, value, approx):
        assert human_rational(value) == f"{format_duration(value)} (≈{approx})"


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


big_letters = st.one_of(st.integers(1, 30), st.integers(1, 2**70))
big_durations = st.one_of(
    st.fractions(min_value=Fraction(1, 10), max_value=Fraction(5), max_denominator=10),
    st.builds(Fraction, st.integers(1, 2**80), st.integers(1, 2**80)),
)


class TestRunWordFastPath:
    """The spelling of ``str()`` (``_RUN_WORD_RE``) is read by one JSON
    decode; every other spelling takes the loop. Both must read the same
    word, and an error never takes the fast path."""

    @given(
        st.lists(st.tuples(big_letters, big_durations), min_size=1, max_size=10).map(normalize),
        st.integers(0, 9),
    )
    @example(tw("1^1/2 12^3/4 1^2"), 1)
    @example(tw("3^2"), 0)
    @example(tw(f"{2**70}^{2**80}/{2**80 - 1} 1^1"), 0)
    def test_str_spelling_parses_as_its_loop_path_variants(self, w, zero_at):
        text = str(w)
        assert notation._RUN_WORD_RE.fullmatch(text)
        assert parse_timed_word(text) == w
        runs = text.split(" ")
        zero_at %= len(runs)
        variants = [
            " ".join(["0" + r if j == zero_at else r for j, r in enumerate(runs)]),
            text + " ",
        ]
        if len(runs) > 1:
            variants.append("  ".join(runs))
        if format_timed_word(w) != text:
            variants.append(format_timed_word(w))
        for variant in variants:
            assert not notation._RUN_WORD_RE.fullmatch(variant)
            assert parse_timed_word(variant) == w

    @pytest.mark.parametrize(
        "text, runs",
        [
            ("1^1 1^1/2", ((1, Fraction(3, 2)),)),
            ("2^1 1^1 1^1 2^1/3", ((2, 1), (1, 2), (2, Fraction(1, 3)))),
            ("2^2/4", ((2, Fraction(1, 2)),)),
            ("7^3", ((7, 3),)),
            ("12^1/3 10^2 11^5/6", ((12, Fraction(1, 3)), (10, 2), (11, Fraction(5, 6)))),
        ],
        ids=["merge", "merge-inside", "not-reduced", "one-run", "letters-above-9"],
    )
    def test_fast_path_words(self, text, runs):
        assert notation._RUN_WORD_RE.fullmatch(text)
        word = parse_timed_word(text)
        assert word.runs == runs
        assert word == tokens_then_normalize(text)

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("1^2^3", "expected <letter>^<duration> (at position 0)", 0),
            ("1^1/2/3", "expected <letter>^<duration> (at position 0)", 0),
            ("0^1", "letters must be at least 1 (at position 0)", 0),
            ("1^0", "durations must be positive (at position 2)", 2),
            ("1^1/0", "zero denominator in '1/0'", None),
            ("1^1 x", "expected <letter>^<duration> (at position 4)", 4),
            ("1^1 0^1", "letters must be at least 1 (at position 4)", 4),
        ],
    )
    def test_errors_just_outside_the_fast_path_keep_their_messages(self, text, message, position):
        assert not notation._RUN_WORD_RE.fullmatch(text)
        with pytest.raises(NotationError) as info:
            parse_timed_word(text)
        assert type(info.value) is NotationError
        assert str(info.value) == message
        assert info.value.position == position


def _random_runs() -> list[str]:
    """10,000 runs over letters 1..12 with durations p/q, p and q up to 8."""
    rng = random.Random(1)
    return [
        f"{rng.randint(1, 12)}^{Fraction(rng.randint(1, 8), rng.randint(1, 8))}"
        for _ in range(10_000)
    ]


class TestLoopPathAtScale:
    """A long word with two spaces between runs takes the loop, which checks
    each run where it is matched: a bad run anywhere gives the error,
    message and position of a token-by-token reading."""

    RUNS = _random_runs()

    def test_word_matches_tokens_then_normalize(self):
        text = "  ".join(self.RUNS)
        assert not notation._RUN_WORD_RE.fullmatch(text)
        word = parse_timed_word(text)
        assert word == tokens_then_normalize(text)
        assert word == parse_timed_word(" ".join(self.RUNS))

    @pytest.mark.parametrize("index", [0, 4_999, 9_999])
    @pytest.mark.parametrize("bad", ["0^1", "1^0", "1^1/0", "x"])
    def test_bad_run_matches_tokens_then_normalize(self, index, bad):
        runs = list(self.RUNS)
        runs[index] = bad
        text = "  ".join(runs)
        with pytest.raises(NotationError) as expected:
            tokens_then_normalize(text)
        with pytest.raises(NotationError) as info:
            parse_timed_word(text)
        assert type(info.value) is NotationError
        assert str(info.value) == str(expected.value)
        assert info.value.position == expected.value.position


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

    @given(st.lists(st.one_of(st.integers(1, 30), st.integers(1, 2**70)), max_size=6).map(tuple))
    @example((12,))
    @example((10,))
    @example((9,))
    @example((2**64 + 1,))
    def test_every_word_roundtrips_one_letter_words_too(self, w):
        assert parse_word(format_word(w)) == w

    @pytest.mark.parametrize(
        "w, text", [((12,), "12,"), ((10,), "10,"), ((9,), "9"), ((12, 3), "12,3"), ((1, 2), "12")]
    )
    def test_one_letter_above_9_is_spelt_with_a_trailing_comma(self, w, text):
        assert format_word(w) == text
        assert parse_word(text) == parse_word(f" {text} ") == w

    @given(
        st.lists(st.one_of(st.integers(1, 30), st.integers(1, 2**70)), min_size=2, max_size=12)
        .map(tuple),
        st.integers(0, 11),
    )
    @example((12, 3, 11), 1)
    @example((2**64 + 1, 1), 0)
    def test_writer_spelling_parses_as_its_loop_path_variants(self, w, zero_at):
        # At least two letters: the one-letter word 12 is spelt "12,", which
        # the JSON fast path does not read.
        text = format_word(w)
        assert parse_word(text) == w
        if "," not in text:
            return
        # The writer's comma spelling takes the JSON fast path; a space after
        # each comma, a leading zero on one letter and whitespace around the
        # text each take the loop, and all must read the same word.
        assert notation._COMMA_WORD_RE.fullmatch(text)
        parts = text.split(",")
        zero_at %= len(parts)
        zeroed = ",".join(["0" + p if j == zero_at else p for j, p in enumerate(parts)])
        for variant in (", ".join(parts), zeroed, f" \t{text}\n"):
            assert not notation._COMMA_WORD_RE.fullmatch(variant)
            assert parse_word(variant) == w

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,,2", "not a letter: ''"),
            ("1,2,", "not a letter: ''"),
            (",1", "not a letter: ''"),
            ("1,0,2", "letters must be at least 1, got '0'"),
            ("1,²", "not a letter: '²'"),
            ("1," + "9" * 4301, "numeral of more than 4300 digits (at position 2)"),
        ],
    )
    def test_comma_errors_keep_their_messages(self, text, message):
        with pytest.raises(NotationError) as info:
            parse_word(text)
        assert type(info.value) is NotationError
        assert str(info.value) == message

    def test_dispatch(self):
        assert parse_word_or_timed("31") == (3, 1)
        assert parse_word_or_timed("3^1") == tw("3^1")


# The JSON of the timed word 2^1 1^1, which is no timed row.
_DESCENDING_RUNS = {"runs": [{"letter": 2, "dur": "1"}, {"letter": 1, "dur": "1"}]}


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

    @pytest.mark.parametrize(
        "read, rows, error, message",
        [
            (tableau_from_dict, [[2, 1], [0]], NotationError, "letters must be at least 1, got 0"),
            (tableau_from_dict, [[2, 1], 5], NotationError,
             "bad tableau JSON: 'int' object is not iterable"),
            (tableau_from_dict, [[2, 1], [1]], InvalidTableauError,
             "row 0 is not weakly increasing: (2, 1)"),
            (timed_tableau_from_dict, [_DESCENDING_RUNS, {"runs": [{"letter": 0, "dur": "1"}]}],
             NotationError, "letters must be at least 1, got 0"),
            (timed_tableau_from_dict, [_DESCENDING_RUNS, 5], NotationError,
             "bad timed-word JSON: 'int' object is not subscriptable"),
            (timed_tableau_from_dict, [{"runs": [{"letter": 1, "dur": "1"}]},
                                       {"runs": [{"letter": 2, "dur": "2"}]}],
             InvalidTableauError, "row 1 is longer than row 0 (2 > 1)"),
        ],
    )
    def test_tableau_dicts_read_every_row_before_checking_one(self, read, rows, error, message):
        # A bad letter or row anywhere in the JSON is named before a
        # tableau fault in an earlier row, and a classical tableau's
        # messages quote its rows as tuples.
        with pytest.raises(error) as info:
            read({"rows": rows})
        assert type(info.value) is error and str(info.value) == message

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
        # A timed tableau's writers read its grid and build no rows; a
        # classical tableau's read its spelt rows and build no grid.
        t = timed_insertion_tableau(tw("3^1/7 1^2/11 4^3/13 2^1/17 1^5/19 3^1/23"))
        timed_tableau_to_dict(t)
        assert "rows" not in t.__dict__
        c = insertion_tableau((3, 4, 2, 1, 1, 5, 3))
        tableau_to_dict(c)
        assert "grid" not in c.__dict__
        # The text writers, str, repr and hash read the stored form too.
        format_timed_tableau(t), str(t), repr(t), hash(t)
        assert "rows" not in t.__dict__
        cli._format_tableau(c), str(c), repr(c), hash(c)
        assert "grid" not in c.__dict__
        w = tw("3^1/7 1^2/11 4^0.25 1^5/19")
        format_timed_word(w), str(w), repr(w), hash(w), letter_durations(w)
        assert "runs" not in w.__dict__


# Runs whose denominators are 2^a 5^b, so each duration has an exact
# decimal, with letters up to 12.
_decimal_words = st.lists(
    st.tuples(st.integers(1, 12), st.integers(1, 40), st.integers(0, 6), st.integers(0, 6)),
    max_size=10,
).map(lambda runs: normalize((c, Fraction(n, 2**a * 5**b)) for c, n, a, b in runs))
_text_words = st.one_of(timed_words, _decimal_words, _coprime_words)


class TestTextWritersReadTheGrid:
    """The text writers, str and repr read the grid; the writers over
    ``runs`` and ``rows`` that they replace are the reference."""

    @given(st.one_of(
        st.fractions(max_denominator=10**6),
        st.tuples(st.integers(-10**6, 10**6), st.integers(0, 30), st.integers(0, 30)).map(
            lambda n: Fraction(n[0], 2**n[1] * 5**n[2])),
    ))
    @example(Fraction(0))
    @example(Fraction(-7, 1000))
    def test_format_duration(self, d):
        assert format_duration(d) == decimal_reference(d)

    @given(_text_words)
    def test_words(self, w):
        assert format_timed_word(w) == word_text_reference(w, decimal_reference)
        assert str(w) == word_text_reference(w)
        assert repr(w) == f"TimedWord('{word_text_reference(w)}')"
        assert letter_durations(w) == letter_durations_reference(w)
        assert list(letter_durations(w)) == list(letter_durations_reference(w))

    @given(st.one_of(_text_words.map(timed_insertion_tableau), _stacked_rows()))
    @example(TimedTableau((tw("1^1/2 2^1/3"), tw("2^1/2"))))
    @example(TimedTableau())
    def test_timed_tableaux(self, t):
        assert format_timed_tableau(t) == tableau_text_reference(t, decimal_reference)
        assert str(t) == tableau_text_reference(t)
        assert repr(t) == tableau_repr_reference(t)

    @given(st.one_of(
        words.map(insertion_tableau),
        st.lists(st.integers(1, 30), max_size=60).map(insertion_tableau),
        st.lists(st.integers(1, 30), max_size=60).map(insertion_tableau).map(
            lambda t: Tableau([list(row) for row in t.rows])),
    ))
    @example(Tableau([[1, 2, 9], [10, 11]]))
    @example(Tableau(((1, 12), (3,))))
    @example(Tableau())
    def test_classical_tableaux(self, t):
        assert cli._format_tableau(t) == classical_text_reference(t)
        assert str(t) == classical_text_reference(t, lambda row: " ".join(map(str, row)))
