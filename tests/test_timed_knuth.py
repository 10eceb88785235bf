import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timed_plactic import (
    InvalidMoveError,
    TimedKnuthMove,
    TimedWord,
    apply_move,
    check_move_invariance,
    embed_classical,
    greene_timed,
    invert_move,
    letter_durations,
    normalize,
    scale,
    timed_insertion_tableau,
)
from timed_plactic.randomgen import random_kappa_instance, random_timed_word
from timed_plactic.timed_knuth import SOURCE_ORDER

from conftest import (
    DIGIT_LIMITED,
    fraction_cut,
    fraction_length,
    knuth_neighbors,
    nonempty_timed_words,
    KAPPA2_MOVE_KWARGS,
    KAPPA2_RESULT_TEXT,
    KAPPA2_SOURCE_TEXT,
    printed,
    TOO_LONG_TO_PRINT,
    tw,
    words,
)


def fraction_move(w, m):
    """apply_move by the Fraction reference cutter: the rewritten runs, or
    the name of the side condition the move fails."""
    a = m.position + m.cut1
    b = a + m.cut2
    end = b + m.cut3
    if end > fraction_length(w):
        return "cuts-out-of-range"
    bounds = (0, m.position, a, b, end, fraction_length(w))
    u, *factors, v = (fraction_cut(w, s, e) for s, e in zip(bounds, bounds[1:]))
    named = dict(zip(SOURCE_ORDER[m.kind, m.reverse], factors))
    x, y, z = named["x"], named["y"], named["z"]
    xyz = normalize(x + y + z).runs
    if any(p.letter >= q.letter for p, q in zip(xyz, xyz[1:])):
        return "xyz-not-a-row"
    first, second = (y, z) if m.kind == "k1" else (x, y)
    if sum(d for _, d in first) != sum(d for _, d in second):
        return "length-mismatch"
    if not first[-1][0] < second[0][0]:
        return "limit-condition"
    target = [named[role] for role in SOURCE_ORDER[m.kind, not m.reverse]]
    return normalize(run for piece in (u, *target, v) for run in piece).runs


def move_outcome(w, m):
    try:
        return apply_move(w, m).runs
    except InvalidMoveError as exc:
        return exc.condition


class TestMoveValidation:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            TimedKnuthMove("k3", 0, 1, 1, 1)

    def test_cuts_positive(self):
        with pytest.raises(ValueError):
            TimedKnuthMove("k1", 0, 1, 0, 1)

    def test_region_must_fit(self):
        move = TimedKnuthMove("k1", 0, 1, 1, 1)
        with pytest.raises(InvalidMoveError) as err:
            apply_move(tw("1^1 3^1"), move)
        assert err.value.condition == "cuts-out-of-range"

    def test_xyz_must_be_row(self):
        # factors x=2^1, z=3^1, y=1^1: x y z = 2,1,3 descends
        move = TimedKnuthMove("k1", 0, 1, 1, 1)
        with pytest.raises(InvalidMoveError) as err:
            apply_move(tw("2^1 3^1 1^1"), move)
        assert err.value.condition == "xyz-not-a-row"

    def test_equal_boundary_letters_merge_into_a_row(self):
        # x=2, z=3, y=2 embeds the classical move 232 -> 322 (x <= y < z)
        move = TimedKnuthMove("k1", 0, 1, 1, 1)
        assert apply_move(tw("2^1 3^1 2^1"), move) == tw("3^1 2^2")

    def test_length_condition(self):
        # k1 needs l(z) = l(y)
        move = TimedKnuthMove("k1", 0, 1, 1, "1/2")
        with pytest.raises(InvalidMoveError) as err:
            apply_move(tw("1^1 3^1 2^0.5"), move)
        assert err.value.condition == "length-mismatch"

    def test_limit_condition(self):
        # k2 on y=2^1, x=1^1, z=2^0.5 3^0.5: last(x)=1 < first(y)=2 holds,
        # but swap x so the boundary letters coincide
        move = TimedKnuthMove("k2", 0, 1, 1, 1)
        with pytest.raises(InvalidMoveError) as err:
            apply_move(tw("2^1 2^0.5 1^0.5 2^0.5 3^0.5"), move)
        # x = 2^0.5 1^0.5 is not even part of a row here; the first failing
        # condition reported is the row condition
        assert err.value.condition == "xyz-not-a-row"

    def test_limit_condition_specifically(self):
        # k1 with y ending at the same letter z starts with: make xyz a row
        # by merging, so only the limit condition fails
        move = TimedKnuthMove("k1", 0, "1/2", "1/2", "1/2")
        with pytest.raises(InvalidMoveError) as err:
            apply_move(tw("1^0.5 2^1"), move)
        assert err.value.condition == "limit-condition"

    @pytest.mark.parametrize(
        "kind, word, cuts, condition, message",
        [
            ("k1", "1^1 3^1 2^1/2", (1, 1, "1/2"), "length-mismatch",
             "l(z) = 1 differs from l(y) = 1/2"),
            ("k2", "2^1 1^1/2 3^1", (1, "1/2", 1), "length-mismatch",
             "l(x) = 1/2 differs from l(y) = 1"),
            # x z y = 1 2 2: x y z merges into a row, y ends where z starts
            ("k1", "1^1 2^2", (1, 1, 1), "limit-condition",
             "last letter of y (2) must be below the first letter of z (2)"),
            # y x z = 2 2 3: x ends where y starts
            ("k2", "2^2 3^1", (1, 1, 1), "limit-condition",
             "last letter of x (2) must be below the first letter of y (2)"),
        ],
    )
    def test_condition_messages(self, kind, word, cuts, condition, message):
        with pytest.raises(InvalidMoveError) as err:
            apply_move(tw(word), TimedKnuthMove(kind, 0, *cuts))
        assert err.value.condition == condition
        assert str(err.value) == message

    def test_length_mismatch_message_past_the_digit_limit(self):
        # l(z) = 1/c and l(y) = 1/d, each denominator of 4,401 digits.
        c, d = 10**4400 + 1, 10**4400 + 3
        w = normalize([(1, 1), (3, Fraction(1, c)), (2, Fraction(1, d))])
        with pytest.raises(InvalidMoveError) as err:
            apply_move(w, TimedKnuthMove("k1", 0, 1, Fraction(1, c), Fraction(1, d)))
        assert err.value.condition == "length-mismatch"
        lz, ly = printed(Fraction(1, c)), printed(Fraction(1, d))
        assert str(err.value) == f"l(z) = {lz} differs from l(y) = {ly}"
        assert (lz == TOO_LONG_TO_PRINT) == DIGIT_LIMITED

    def test_out_of_range_message_past_the_digit_limit(self):
        # The region ends at 1 + 1/a + 1/b, a denominator of about 8,000
        # digits, past the word's length 1.
        a, b = 10**4000 + 1, 10**4000 + 3
        with pytest.raises(InvalidMoveError) as err:
            apply_move(tw("1^1"), TimedKnuthMove("k1", 0, 1, Fraction(1, a), Fraction(1, b)))
        assert err.value.condition == "cuts-out-of-range"
        end = printed(1 + Fraction(1, a) + Fraction(1, b))
        assert str(err.value) == f"move region [0, {end}) exceeds word length 1"
        assert (end == TOO_LONG_TO_PRINT) == DIGIT_LIMITED


class TestKappa1:
    def test_unit_duration_classical_case(self):
        move = TimedKnuthMove("k1", 0, 1, 1, 1)
        assert apply_move(tw("1^1 3^1 2^1"), move) == tw("3^1 1^1 2^1")

    def test_inverse_recovers(self):
        move = TimedKnuthMove("k1", 0, 1, 1, 1)
        w = tw("1^1 3^1 2^1")
        assert apply_move(apply_move(w, move), invert_move(move)) == w


class TestKappa2:
    def test_worked_example(self):
        move = TimedKnuthMove(**KAPPA2_MOVE_KWARGS)
        assert apply_move(tw(KAPPA2_SOURCE_TEXT), move) == tw(KAPPA2_RESULT_TEXT)

    def test_worked_example_preserves_tableau_and_profile(self):
        w, w2 = tw(KAPPA2_SOURCE_TEXT), tw(KAPPA2_RESULT_TEXT)
        assert timed_insertion_tableau(w) == timed_insertion_tableau(w2)
        assert greene_timed(w) == greene_timed(w2)

    def test_worked_example_preserves_histogram(self):
        w, w2 = tw(KAPPA2_SOURCE_TEXT), tw(KAPPA2_RESULT_TEXT)
        assert letter_durations(w) == letter_durations(w2)

    def test_unit_duration_classical_case(self):
        move = TimedKnuthMove("k2", 0, 1, 1, 1)
        assert apply_move(tw("2^1 1^1 3^1"), move) == tw("2^1 3^1 1^1")

    def test_invariance_checker_on_worked_example(self):
        move = TimedKnuthMove(**KAPPA2_MOVE_KWARGS)
        assert check_move_invariance(tw(KAPPA2_SOURCE_TEXT), move, 3)


class TestClassicalEmbedding:
    @settings(max_examples=60)
    @given(words)
    def test_every_classical_move_lifts(self, w):
        timed = embed_classical(w)
        for i in range(len(w) - 2):
            p, q, r = w[i], w[i + 1], w[i + 2]
            lifted = None
            if p <= r < q:
                lifted = TimedKnuthMove("k1", i, 1, 1, 1)  # xzy -> zxy
            elif q <= r < p:
                lifted = TimedKnuthMove("k1", i, 1, 1, 1, reverse=True)
            if lifted is not None:
                classical = w[:i] + (q, p, r) + w[i + 3 :]
                assert apply_move(timed, lifted) == embed_classical(classical)
            lifted = None
            if q < p <= r:
                lifted = TimedKnuthMove("k2", i, 1, 1, 1)  # yxz -> yzx
            elif r < p <= q:
                lifted = TimedKnuthMove("k2", i, 1, 1, 1, reverse=True)
            if lifted is not None:
                classical = w[:i] + (p, r, q) + w[i + 3 :]
                assert apply_move(timed, lifted) == embed_classical(classical)
                assert classical in knuth_neighbors(w)


class TestTimedEquivalence:
    def test_worked_example_pair(self):
        assert timed_insertion_tableau(tw(KAPPA2_SOURCE_TEXT)) == timed_insertion_tableau(
            tw(KAPPA2_RESULT_TEXT)
        )

    def test_reflexive(self):
        w = tw("1^0.5 2^0.5")
        assert timed_insertion_tableau(w) == timed_insertion_tableau(w)

    def test_histogram_mismatch(self):
        assert timed_insertion_tableau(tw("1^1")) != timed_insertion_tableau(tw("2^1"))


class TestRandomInstances:
    def test_soundness_and_symmetry(self):
        rng = random.Random(20240601)
        for i in range(60):
            kind = "k1" if i % 2 == 0 else "k2"
            w, move = random_kappa_instance(rng, kind, max_den=4)
            moved = apply_move(w, move)
            assert letter_durations(moved) == letter_durations(w)
            assert timed_insertion_tableau(moved) == timed_insertion_tableau(w)
            assert apply_move(moved, invert_move(move)) == w

    def test_invariance_under_random_contexts(self):
        # equivalent words keep equal invariants inside arbitrary contexts
        rng = random.Random(99)
        from timed_plactic import concat

        for i in range(20):
            kind = "k1" if i % 2 == 0 else "k2"
            w, move = random_kappa_instance(rng, kind)
            w2 = apply_move(w, move)
            u = random_timed_word(rng, max_runs=2)
            v = random_timed_word(rng, max_runs=2)
            a = greene_timed(concat(u, w, v))
            b = greene_timed(concat(u, w2, v))
            assert a == b


class TestMoveMatchesFractionReference:
    """apply_move cuts with the grid cutter; a Fraction walk must agree."""

    @given(st.integers(min_value=0, max_value=10**6), st.sampled_from(["k1", "k2"]),
           st.sampled_from([1, Fraction(1, 7), Fraction(3, 11), Fraction(13, 5)]))
    def test_valid_moves_both_directions(self, seed, kind, factor):
        # A rescaled valid instance keeps its validity, with cuts whose
        # denominators are coprime to the word's.
        w, m = random_kappa_instance(random.Random(seed), kind, max_den=8)
        w = scale(w, factor)
        m = TimedKnuthMove(kind, m.position * factor, *(c * factor for c in m.cuts))
        moved = move_outcome(w, m)
        assert not isinstance(moved, str)
        assert moved == fraction_move(w, m)
        moved, back = TimedWord(moved), invert_move(m)
        assert move_outcome(moved, back) == fraction_move(moved, back) == w.runs

    @given(nonempty_timed_words, st.sampled_from(["k1", "k2"]), st.booleans(), st.data())
    def test_arbitrary_cuts(self, w, kind, reverse, data):
        # Cut points on run boundaries, or multiples of 1/7, 1/11 or 1/13
        # (coprime to the word's denominators) up to just past its end.
        p = data.draw(st.sampled_from([7, 11, 13]))
        point = st.one_of(
            st.sampled_from(w.breakpoints()),
            st.integers(min_value=0, max_value=int(w.length * p) + 1).map(
                lambda k: Fraction(k, p)
            ),
        )
        points = sorted(data.draw(st.lists(point, min_size=4, max_size=4, unique=True)))
        cuts = [b - a for a, b in zip(points, points[1:])]
        m = TimedKnuthMove(kind, points[0], *cuts, reverse=reverse)
        assert move_outcome(w, m) == fraction_move(w, m)
