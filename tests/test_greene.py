import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from timed_plactic import (
    OracleSizeError,
    embed_classical,
    expand_to_classical,
    greene_classical,
    greene_classical_oracle,
    greene_timed,
    greene_timed_oracle,
    profile_value,
    scale,
)

from conftest import WORD_3421153, small_timed_words, timed_words, tw, words


class TestClassicalOracle:
    def test_running_example(self):
        assert greene_classical_oracle(WORD_3421153, 1) == 3
        assert greene_classical_oracle(WORD_3421153, 2) == 6
        assert greene_classical_oracle(WORD_3421153, 3) == 7

    def test_empty_word(self):
        assert greene_classical_oracle((), 3) == 0

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            greene_classical_oracle((1,), 0)

    def test_size_bound(self):
        with pytest.raises(OracleSizeError):
            greene_classical_oracle((1, 2, 3), 1, max_len=2)

    def test_state_budget(self):
        # 30 letters over 40 symbols: about 100,000 states at r = 6, far
        # beyond the default budget, so the search stops early.
        rng = random.Random(1)
        w = tuple(rng.randint(1, 40) for _ in range(30))
        assert greene_classical_oracle(w, 3) == greene_classical(w)[2]
        with pytest.raises(OracleSizeError, match="budget of 50000 states"):
            greene_classical_oracle(w, 6)

    def test_state_budget_admits_nine_letter_alphabets(self):
        # C(r + 9, r) <= C(18, 9) = 48,620 states for r <= 9.
        w = (9, 8, 7, 6, 5, 4, 3, 2, 1) * 3
        profile = greene_classical(w)
        assert tuple(greene_classical_oracle(w, r) for r in range(1, 10)) == profile


class TestClassicalProfile:
    def test_running_example(self):
        assert greene_classical(WORD_3421153) == (3, 6, 7)

    def test_constant_word(self):
        assert greene_classical((1, 1, 1, 1, 1)) == (5,)

    def test_strictly_decreasing(self):
        assert greene_classical((3, 2, 1)) == (1, 2, 3)

    def test_exhaustive_small_alphabet(self):
        for n in range(5):
            for w in itertools.product((1, 2, 3), repeat=n):
                profile = greene_classical(w)
                for r in range(1, len(profile) + 1):
                    assert greene_classical_oracle(w, r) == profile[r - 1], (w, r)

    @given(st.lists(st.integers(1, 4), max_size=9).map(tuple))
    def test_oracle_agreement(self, w):
        profile = greene_classical(w)
        for r in range(1, len(profile) + 1):
            assert greene_classical_oracle(w, r) == profile[r - 1]

    @given(words)
    def test_profile_shape(self, w):
        profile = greene_classical(w)
        if profile:
            assert profile[-1] == len(w)
        increments = [
            b - a for a, b in zip((0,) + profile, profile)
        ]
        assert increments == sorted(increments, reverse=True)


class TestExpansion:
    def test_grid(self):
        word, q = expand_to_classical(tw("3^0.5 1^1.5"))
        assert q == 2
        assert word == (3, 1, 1, 1)

    def test_refine_doubles(self):
        word, q = expand_to_classical(tw("3^0.5 1^1.5"), refine=2)
        assert q == 4
        assert word == (3, 3, 1, 1, 1, 1, 1, 1)

    def test_empty(self):
        assert expand_to_classical(tw("")) == ((), 1)


class TestTimedOracle:
    def test_decreasing_runs_cap_at_one_run(self):
        assert greene_timed_oracle(tw("3^1 2^1 1^1"), 1) == 1

    def test_timed_row_is_its_own_best_sample(self):
        assert greene_timed_oracle(tw("1^0.5 2^0.5"), 1) == 1

    def test_size_bound(self):
        with pytest.raises(OracleSizeError):
            greene_timed_oracle(tw("1^1 2^1 1^1"), 1, max_letters=2)

    def test_size_bound_is_checked_before_expanding(self):
        # the expansion would hold 10,000,020 letters
        w = tw("1^1/10000019 2^1")
        tracemalloc.start()
        try:
            with pytest.raises(OracleSizeError, match="expansion of 10000020 letters"):
                greene_timed_oracle(w, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_fractional_value(self):
        # the 2-run alone beats the 1-run; no nondecreasing sample spans both
        assert greene_timed_oracle(tw("2^0.5 1^0.25"), 1) == Fraction(1, 2)


class TestTimedProfile:
    def test_single_run(self):
        assert greene_timed(tw("4^0.29")) == (Fraction("0.29"),)

    def test_oracle_agreement_on_flagship_example(self):
        from conftest import BIG_TIMED_PROFILE, BIG_TIMED_WORD_TEXT

        w = tw(BIG_TIMED_WORD_TEXT)
        assert greene_timed(w) == BIG_TIMED_PROFILE
        for r in range(1, 7):
            assert (
                greene_timed_oracle(w, r, max_letters=1000) == BIG_TIMED_PROFILE[r - 1]
            )

    def test_classical_compatibility(self):
        assert greene_timed(embed_classical(WORD_3421153)) == (3, 6, 7)

    @given(small_timed_words)
    def test_oracle_agreement(self, w):
        profile = greene_timed(w)
        for r in range(1, len(profile) + 1):
            assert greene_timed_oracle(w, r, max_letters=None) == profile[r - 1]

    @given(timed_words)
    def test_profile_shape(self, w):
        profile = greene_timed(w)
        if profile:
            assert profile[-1] == w.length
        increments = [b - a for a, b in zip((Fraction(0),) + profile, profile)]
        assert increments == sorted(increments, reverse=True)

    @given(timed_words)
    def test_scaling(self, w):
        factor = Fraction(5, 3)
        scaled_profile = greene_timed(scale(w, factor)) if w else ()
        assert scaled_profile == tuple(factor * x for x in greene_timed(w))

    @given(small_timed_words)
    def test_discretization_stability(self, w):
        rows = len(greene_timed(w))
        for r in range(1, rows + 1):
            assert greene_timed_oracle(w, r, max_letters=None) == greene_timed_oracle(
                w, r, refine=2, max_letters=None
            )


class TestProfileValue:
    def test_within_and_beyond(self):
        assert profile_value((3, 6, 7), 2, 7) == 6
        assert profile_value((3, 6, 7), 5, 7) == 7
        assert profile_value((), 1, 0) == 0

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            profile_value((1,), 0, 1)
