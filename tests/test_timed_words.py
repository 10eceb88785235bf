import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from timed_plactic import (
    Run,
    TimedKnuthMove,
    TimedWord,
    TimeSample,
    apply_move,
    as_duration,
    concat,
    embed_classical,
    embed_classical_tableau,
    format_timed_word,
    insertion_tableau,
    is_timed_row,
    letter_durations,
    normalize,
    parse_timed_word,
    restrict,
    scale,
    subword,
    timed_insertion_steps,
    timed_insertion_tableau,
    timed_row_insert_word,
    timed_tableau_insert,
    timed_word_from_dict,
    timed_word_to_dict,
    value_at,
)
from timed_plactic.errors import _quote

from conftest import durations, fraction_cut, letters, timed_words, tw, words


def pieces_between(w: TimedWord, points) -> list[TimedWord]:
    """The pieces of w between consecutive points of 0, *points, l(w)."""
    ends = [0, *points, w.length]
    return [restrict(w, a, b) for a, b in zip(ends, ends[1:])]


def cut_points(w: TimedWord):
    """Points in [0, l(w)]: run boundaries, scaled fractions of the length,
    and multiples of 1/7, 1/11 or 1/13, coprime to the word's denominators
    (at most 8)."""
    unit = st.fractions(min_value=0, max_value=1, max_denominator=16)
    coprime = st.builds(
        lambda p, u: Fraction(int(u * w.length * p), p), st.sampled_from([7, 11, 13]), unit
    )
    return st.one_of(
        st.sampled_from(w.breakpoints()), unit.map(lambda u: u * w.length), coprime
    )


class TestAsDuration:
    def test_exact_decimal_string(self):
        assert as_duration("0.82") == Fraction(41, 50)

    def test_fraction_passthrough(self):
        assert as_duration(Fraction(1, 3)) == Fraction(1, 3)

    def test_int(self):
        assert as_duration(2) == Fraction(2)

    def test_float_refused(self):
        with pytest.raises(TypeError):
            as_duration(0.82)

    @pytest.mark.parametrize("text", ["1e-3", "2E5", "1e" + "0" * 100])
    def test_exponent_notation_refused(self, text):
        with pytest.raises(ValueError, match="^durations must not use exponent notation") as info:
            as_duration(text)
        assert _quote(text) in str(info.value) and len(str(info.value)) < 200

    def test_exponent_string_is_refused_at_once(self):
        # Read as a Fraction, "1e-1000000" builds a 3.3-million-bit
        # denominator before value_at can cut the word.
        code = (
            "from timed_plactic import parse_timed_word, value_at\n"
            "try:\n"
            "    value_at(parse_timed_word('1^1 2^1'), '1e-1000000')\n"
            "except ValueError as e:\n"
            "    print(e)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith(
            "durations must not use exponent notation, got '1e-1000000'"
        )


class TestNormalize:
    def test_merges_adjacent(self):
        assert normalize([(2, "0.5"), (2, "0.25"), (3, 1)]) == tw("2^0.75 3^1")

    def test_drops_zero_runs(self):
        assert normalize([(1, 0), (4, 2)]) == tw("4^2")

    def test_merge_preserves_length(self):
        w = normalize([(3, 1), (2, 1), (2, 1), (3, 1)])
        assert w == tw("3^1 2^2 3^1")
        assert w.length == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize([(1, -1)])

    @given(st.lists(st.tuples(st.integers(1, 4), durations), max_size=6))
    def test_idempotent(self, runs):
        w = normalize(runs)
        assert normalize(w.runs) == w


class TestTimedWordInvariants:
    def test_rejects_adjacent_equal_letters(self):
        with pytest.raises(ValueError):
            TimedWord((Run(1, Fraction(1)), Run(1, Fraction(2))))

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            TimedWord((Run(1, Fraction(0)),))

    def test_rejects_letter_zero(self):
        with pytest.raises(ValueError):
            TimedWord((Run(0, Fraction(1)),))

    def test_length(self):
        assert tw("3^0.82 5^0.08").length == Fraction("0.9")

    def test_breakpoints(self):
        assert tw("1^1 2^0.5").breakpoints() == [0, 1, Fraction(3, 2)]


class TestConcat:
    def test_boundary_merge(self):
        assert concat(tw("3^1"), tw("3^2")) == tw("3^3")

    def test_identity(self):
        w = tw("1^0.5 2^0.5")
        assert concat(TimedWord(), w) == w
        assert concat(w, TimedWord()) == w

    def test_middle_merge(self):
        assert concat(tw("1^0.5 2^0.5"), tw("2^0.5 1^0.5")) == tw("1^0.5 2^1 1^0.5")
        assert concat(tw("1^0.5 2^0.5"), tw("2^0.5 1^0.5")).length == 2

    def test_operator(self):
        assert tw("1^1") * tw("2^1") == tw("1^1 2^1")

    @pytest.mark.parametrize(
        "product", [lambda w: w * 3, lambda w: 3 * w, lambda w: w * "1^1"],
        ids=["word-int", "int-word", "word-str"],
    )
    def test_operator_refuses_what_is_not_a_timed_word(self, product):
        with pytest.raises(TypeError):
            product(tw("1^1 2^1"))

    @given(timed_words, timed_words, timed_words)
    def test_associative(self, a, b, c):
        assert concat(concat(a, b), c) == concat(a, concat(b, c))

    @given(timed_words, timed_words)
    def test_length_homomorphism(self, a, b):
        assert concat(a, b).length == a.length + b.length


class TestValueAt:
    def test_left_endpoint(self):
        assert value_at(tw("3^0.82 5^0.08"), 0) == 3

    def test_half_open_boundary(self):
        assert value_at(tw("3^0.82 5^0.08"), "0.82") == 5

    def test_total_length_excluded(self):
        with pytest.raises(ValueError):
            value_at(tw("3^0.82 5^0.08"), "0.9")

    def test_negative_excluded(self):
        with pytest.raises(ValueError):
            value_at(tw("3^1"), "-1/2")


class TestRestrict:
    def test_exact_run(self):
        assert restrict(tw("1^1.4 2^1.6 3^0.7"), "1.4", 3) == tw("2^1.6")

    def test_full_range(self):
        w = tw("1^1.4 2^1.6 3^0.7")
        assert restrict(w, 0, "3.7") == w

    def test_split_across_boundary(self):
        assert restrict(tw("1^1.4 2^1.6 3^0.7"), 1, "1.8") == tw("1^0.4 2^0.4")

    def test_empty_window(self):
        assert restrict(tw("1^1"), "0.5", "0.5") == TimedWord()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            restrict(tw("1^1"), 0, 2)
        with pytest.raises(ValueError):
            restrict(tw("1^1"), "0.8", "0.2")

    @given(timed_words, st.data())
    def test_composition(self, w, data):
        if not w:
            return
        unit = st.fractions(min_value=0, max_value=1, max_denominator=16)
        a, b = sorted(data.draw(unit) * w.length for _ in range(2))
        inner = restrict(w, a, b)
        c, d = sorted(data.draw(unit) * (b - a) for _ in range(2))
        assert restrict(inner, c, d) == restrict(w, a + c, a + d)


class TestCutMatchesFractionReference:
    @given(timed_words, st.data())
    def test_restrict(self, w, data):
        a, b = sorted(data.draw(cut_points(w)) for _ in range(2))
        assert restrict(w, a, b).runs == fraction_cut(w, a, b)

    @given(timed_words, st.data())
    def test_subword(self, w, data):
        points = data.draw(st.lists(cut_points(w), max_size=6))
        sample = TimeSample.from_intervals(map(sorted, zip(points[::2], points[1::2])))
        pieces = (fraction_cut(w, a, b) for a, b in sample.intervals)
        assert subword(w, sample) == normalize(run for piece in pieces for run in piece)


class TestTimeSample:
    def test_normal_form_required(self):
        with pytest.raises(ValueError):
            TimeSample(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))))

    def test_from_intervals_merges_touching(self):
        s = TimeSample.from_intervals([(0, 1), (1, 2)])
        assert s.intervals == ((0, 2),)

    def test_from_intervals_merges_overlap_and_sorts(self):
        s = TimeSample.from_intervals([(3, 4), (0, 2), (1, "2.5")])
        assert s.intervals == ((0, Fraction("2.5")), (3, 4))

    def test_measure(self):
        assert TimeSample.from_intervals([(0, 1), (2, 3)]).measure == 2
        assert TimeSample().measure == 0


def _sample_value_by_largest_preimage(w, sample, t):
    # Independent evaluation of the selected subword at time t: find the
    # largest position b in [0, l(w)) whose sample-measure prefix equals t,
    # then read w there.
    acc = Fraction(0)
    for a, b in sample.intervals:
        width = b - a
        if t < acc + width:
            return value_at(w, a + (t - acc))
        acc += width
    raise AssertionError("t beyond sample measure")


class TestSubword:
    def test_full_sample(self):
        w = tw("3^1 1^1 3^1")
        assert subword(w, TimeSample.from_intervals([(0, 3)])) == w

    def test_merges_selected_pieces(self):
        w = tw("3^1 1^1 3^1")
        assert subword(w, TimeSample.from_intervals([(0, 1), (2, 3)])) == tw("3^2")

    def test_empty_sample(self):
        assert subword(tw("3^1"), TimeSample()) == TimedWord()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            subword(tw("3^1"), TimeSample.from_intervals([(0, 2)]))

    @given(timed_words, st.data())
    def test_agrees_with_largest_preimage_construction(self, w, data):
        if not w:
            return
        unit = st.fractions(min_value=0, max_value=1, max_denominator=12)
        cuts = data.draw(st.lists(unit, max_size=6))
        pairs = sorted({u * w.length for u in cuts})
        intervals = list(zip(pairs[::2], pairs[1::2]))
        sample = TimeSample.from_intervals(intervals)
        sub = subword(w, sample)
        assert sub.length == sample.measure
        for t_unit in data.draw(st.lists(unit, max_size=4)):
            t = t_unit * sample.measure
            if t >= sample.measure:
                continue
            assert value_at(sub, t) == _sample_value_by_largest_preimage(w, sample, t)


class TestIsTimedRow:
    def test_strictly_increasing_letters(self):
        assert is_timed_row(tw("1^1.33 2^0.54 3^0.36 4^0.97"))

    def test_descent(self):
        assert not is_timed_row(tw("3^0.82 5^0.08 2^0.45"))

    def test_empty(self):
        assert is_timed_row(TimedWord())


class TestEmbedClassical:
    def test_equal_letters_merge(self):
        assert embed_classical((1, 1, 5)) == tw("1^2 5^1")

    def test_empty(self):
        assert embed_classical(()) == TimedWord()

    def test_running_example(self):
        assert embed_classical((3, 4, 2, 1, 1, 5, 3)) == tw("3^1 4^1 2^1 1^2 5^1 3^1")
        assert embed_classical((3, 4, 2, 1, 1, 5, 3)).length == 7

    @given(words, words)
    def test_respects_concatenation(self, u, v):
        assert embed_classical(u + v) == concat(embed_classical(u), embed_classical(v))


class TestScaleAndHistogram:
    def test_scale(self):
        assert scale(tw("1^1 2^0.5"), "1/2") == tw("1^0.5 2^0.25")

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale(tw("1^1"), 0)

    def test_letter_durations(self):
        assert letter_durations(tw("3^1 2^2 3^1")) == {3: 2, 2: 2}


def assert_canonical(w: TimedWord) -> None:
    """w is stored on its smallest grid, in tuples, and its runs are its
    counts over q."""
    assert type(w.letters) is tuple and type(w.counts) is tuple
    assert gcd(w.q, *w.counts) == 1
    assert w.runs == tuple(Run(c, Fraction(n, w.q)) for c, n in zip(w.letters, w.counts))
    assert w.q == lcm(*(d.denominator for _, d in w.runs))


# Raw runs, equal neighbours allowed, each with a factor that the text and
# JSON forms multiply into both terms of its duration (2^1/2 as 2^2/4).
raw_runs = st.lists(st.tuples(letters, durations, st.integers(1, 6)), max_size=6)


def unreduced(d: Fraction, k: int) -> str:
    return f"{d.numerator * k}/{d.denominator * k}"


class TestCanonicalGrid:
    """Every producer of a word gives the canonical grid, and equality of
    grids is equality of runs."""

    @given(raw_runs)
    def test_parser_normalize_and_json(self, raw):
        expected = normalize((c, d) for c, d, _ in raw)
        text = " ".join(f"{c}^{unreduced(d, k)}" for c, d, k in raw)
        data = {"runs": [{"letter": c, "dur": unreduced(d, k)} for c, d, k in raw]}
        decimals = " ".join(f"{c}^{d.numerator}.5{'0' * k}" for c, d, k in raw)
        for w in (
            expected,
            parse_timed_word(text),
            parse_timed_word(format_timed_word(expected)),
            timed_word_from_dict(data),
            timed_word_from_dict(timed_word_to_dict(expected)),
            TimedWord(expected.runs),
        ):
            assert_canonical(w)
            assert w == expected
        assert_canonical(parse_timed_word(decimals))
        assert_canonical(normalize((c, d * k) for c, d, k in raw))

    @given(timed_words, timed_words, st.data())
    def test_concat_cut_and_scale(self, a, b, data):
        assert_canonical(concat(a, b, a))
        points = sorted(data.draw(st.lists(cut_points(a), max_size=5)))
        for piece in pieces_between(a, points):
            assert_canonical(piece)
        for factor in (3, Fraction(1, 3), Fraction(4, 6), Fraction(7, 2)):
            assert_canonical(scale(a, factor))

    @given(timed_words, timed_words, words)
    def test_insertion_rows(self, w, u, word):
        row = normalize(sorted(u.runs))
        t = timed_insertion_tableau(w)
        tableaux = [
            t,
            timed_tableau_insert(t, row),
            embed_classical_tableau(insertion_tableau(word)),
        ]
        for tableau in tableaux + timed_insertion_steps(w):
            for r in tableau.rows:
                assert_canonical(r)
        for r in timed_row_insert_word(row, u):
            assert_canonical(r)

    @given(timed_words, timed_words, st.data())
    def test_equality_is_equality_of_runs(self, w, v, data):
        points = sorted(data.draw(st.lists(cut_points(w), max_size=5)))
        routes = [
            w,
            parse_timed_word(format_timed_word(w)),
            concat(*pieces_between(w, points)),
            scale(scale(w, 3), Fraction(1, 3)),
            TimedWord(w.runs),
            v,
        ]
        for a in routes:
            for b in routes:
                equal = a == b
                assert equal == (a.runs == b.runs)
                if equal:
                    assert hash(a) == hash(b)
        assert all(route == w for route in routes[:-1])

    def test_truth_and_equality_build_no_runs(self):
        a, b = tw("1^1/2 2^1/3"), tw("1^1/2 2^1/3")
        assert a and a == b and not TimedWord()
        assert "runs" not in a.__dict__ and "runs" not in b.__dict__
        assert a.runs == (Run(1, Fraction(1, 2)), Run(2, Fraction(1, 3)))
        assert a.__dict__["runs"] is a.runs

    def test_merges_and_reductions(self):
        assert tw("1^1/2 1^1/2") == tw("1^1")
        assert (tw("1^1/2 1^1/2").counts, tw("1^1/2 1^1/2").q) == ((1,), 1)
        assert (tw("2^0.50").letters, tw("2^0.50").counts, tw("2^0.50").q) == ((2,), (1,), 2)
        assert TimedWord().q == 1 and TimedWord().counts == ()
        assert concat(*pieces_between(tw("1^1 2^1/2"), [Fraction(1, 3)])).q == 2


def primes_from(p: int, count: int) -> list[int]:
    out = []
    while len(out) < count:
        if all(p % d for d in range(2, isqrt(p) + 1)):
            out.append(p)
        p += 1
    return out


def count_big_gcd_steps(monkeypatch) -> list[int]:
    """Patch the gcd that ``classical._grid_gcd`` calls with a pairwise gcd
    that counts the steps taken while the running value exceeds 64 bits;
    the returned one-item list holds the count."""
    steps = [0]

    def counting_gcd(*args):
        g = 0
        for x in args:
            if g.bit_length() > 64:
                steps[0] += 1
            g = gcd(g, x)
        return g

    monkeypatch.setattr("timed_plactic.classical.gcd", counting_gcd)
    return steps


class TestCanonicalGridOnCoprimeRuns:
    """Putting a word on its smallest grid takes O(1) gcds of big numbers.
    With distinct prime denominators, ``gcd(q, *counts)`` carries a running
    value of thousands of bits through nearly every count, so a word of R
    runs cost R big gcds, each quadratic in R. The gcd is counted, not
    timed.

    This covers re-gridding a whole word, and a Knuth move, which builds
    its word once from the cut pieces on the word's grid. ``restrict`` or
    ``subword`` of a piece whose own grid is far smaller than the word's (a
    prefix of half the runs) still divides every count by a big gcd."""

    def test_few_gcd_steps_on_big_numbers(self, monkeypatch):
        primes = primes_from(1009, 3000)
        text = " ".join(f"{i % 7 + 1}^1/{p}" for i, p in enumerate(primes))
        steps = count_big_gcd_steps(monkeypatch)
        w = parse_timed_word(text)
        whole = restrict(w, 0, w.length)
        ww = concat(w, w)
        same = TimedWord(w.runs)
        t = timed_insertion_tableau(w)
        assert steps[0] <= 20
        assert w.q == prod(primes) and len(w.counts) == 3000
        assert whole == same == w and ww.q == w.q and len(ww.counts) == 6000
        assert t.q == w.q

    def test_a_move_takes_few_gcd_steps_on_big_numbers(self, monkeypatch):
        primes = primes_from(1009, 3000)
        u = normalize((i % 7 + 1, Fraction(1, p)) for i, p in enumerate(primes[:1500]))
        v = normalize((i % 7 + 1, Fraction(1, p)) for i, p in enumerate(primes[1500:], 1500))
        w = concat(u, tw("9^1/2 8^1/2 10^1/3"), v)
        expected = concat(u, tw("9^1/2 10^1/3 8^1/2"), v)
        move = TimedKnuthMove("k2", u.length, Fraction(1, 2), Fraction(1, 2), Fraction(1, 3))
        steps = count_big_gcd_steps(monkeypatch)
        moved = apply_move(w, move)
        assert steps[0] <= 20
        assert moved == expected and moved.q == w.q
