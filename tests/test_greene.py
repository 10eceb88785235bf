import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from timed_plactic import (
    OracleSizeError,
    embed_classical,
    greene_classical,
    greene_classical_oracle,
    greene_timed,
    greene_timed_oracle,
    normalize,
    scale,
)
from timed_plactic import classical, timed_tableaux
from timed_plactic.greene import _MAX_FLOW_WORK

from conftest import (
    WORD_3421153,
    greene_reference,
    reference_profile,
    small_timed_words,
    timed_greene_reference,
    timed_words,
    tw,
    words,
)


class TestClassicalOracle:
    def test_running_example(self):
        assert greene_classical_oracle(WORD_3421153, 3) == (3, 6, 7)

    def test_empty_word(self):
        assert greene_classical_oracle((), 3) == ()

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            greene_classical_oracle((1,), -1)
        assert greene_classical_oracle((1,), 0) == ()

    def test_size_bound(self):
        # The flow bounds runs x letters x r, not length: one run of 2,001
        # letters is one node pair.
        assert greene_classical_oracle((1,) * 2000, 1) == (2000,)
        assert greene_classical_oracle((1,) * 2001, 1) == (2001,)

    def test_state_budget(self):
        # 30 letters over 40 symbols: about 100,000 sorted tuples of chain
        # ends at r = 6, the worst case of a search over chain ends.
        rng = random.Random(1)
        w = tuple(rng.randint(1, 40) for _ in range(30))
        profile = greene_classical(w)
        assert greene_classical_oracle(w, 3) == profile[:3]
        assert greene_classical_oracle(w, 6) == profile[:6]

    @pytest.mark.parametrize("length", [60, 400])
    def test_work_budget(self, length):
        # r = 9 over 9 letters, where a search over chain ends took 4.6 s at
        # 60 letters and 76 s at 400.
        rng = random.Random(1)
        w = tuple(rng.randint(1, 9) for _ in range(length))
        profile = greene_classical(w)
        start = time.perf_counter()
        # 9 letters give at most 9 rows, so r = 9 is the whole profile
        assert greene_classical_oracle(w, 9) == profile
        assert time.perf_counter() - start < 20

    def test_flow_bound_is_checked_before_building(self):
        # 2,600 runs of 20 letters at r = 20: runs x letters x r = 1,040,000
        w = tuple(range(1, 21)) * 130
        assert 2600 * 20 * 20 > _MAX_FLOW_WORK
        tracemalloc.start()
        try:
            with pytest.raises(OracleSizeError, match="over 2600 runs of 20 letters at r=20 exceeds"):
                greene_classical_oracle(w, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_ranks_past_the_alphabet_cost_nothing_more(self):
        # r chains over k letters gain nothing past r = k, so r is capped at
        # k before the bound is checked.
        w = tuple(range(1, 21)) * 130
        assert greene_classical_oracle(w, 1) == greene_classical(w)[:1] == (130 + 19,)
        with pytest.raises(OracleSizeError, match="at r=20 exceeds"):
            greene_classical_oracle(w, 10**9)

    def test_agreement_on_a_long_word_over_twenty_letters(self):
        # 952 runs over 20 letters, at every r.
        rng = random.Random(1)
        w = tuple(rng.randint(1, 20) for _ in range(1000))
        profile = greene_classical(w)
        assert len(profile) == 20
        for r in (*range(22), 10**9):
            assert greene_classical_oracle(w, r) == profile[:r]

    def test_state_budget_admits_nine_letter_alphabets(self):
        # C(r + 9, r) <= C(18, 9) = 48,620 states for r <= 9.
        w = (9, 8, 7, 6, 5, 4, 3, 2, 1) * 3
        profile = greene_classical(w)
        assert greene_classical_oracle(w, 9) == profile


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
                assert greene_classical_oracle(w, len(profile)) == profile, w

    @given(st.lists(st.integers(1, 4), max_size=9).map(tuple))
    def test_oracle_agreement(self, w):
        profile = greene_classical(w)
        assert greene_classical_oracle(w, len(profile)) == profile

    @given(words)
    def test_profile_shape(self, w):
        profile = greene_classical(w)
        if profile:
            assert profile[-1] == len(w)
        increments = [
            b - a for a, b in zip((0,) + profile, profile)
        ]
        assert increments == sorted(increments, reverse=True)


class TestTimedOracle:
    def test_decreasing_runs_cap_at_one_run(self):
        assert greene_timed_oracle(tw("3^1 2^1 1^1"), 1) == (1,)

    def test_timed_row_is_its_own_best_sample(self):
        assert greene_timed_oracle(tw("1^0.5 2^0.5"), 1) == (1,)

    def test_rejects_bad_rank_before_size(self):
        with pytest.raises(ValueError):
            greene_timed_oracle(tw("1^1/10000019 2^1"), -1)
        assert greene_timed_oracle(tw("1^1 2^1"), 0) == ()

    def test_large_grid_is_never_expanded(self):
        # the grid 1/10000019 holds 10,000,020 letters of the word
        w = tw("1^1/10000019 2^1")
        tracemalloc.start()
        try:
            profile = greene_timed_oracle(w, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profile == (Fraction(10000020, 10000019),)
        assert peak < 100_000

    def test_fractional_value(self):
        # the 2-run alone beats the 1-run; no nondecreasing sample spans both
        assert greene_timed_oracle(tw("2^0.5 1^0.25"), 1) == (Fraction(1, 2),)


class TestTimedProfile:
    def test_single_run(self):
        assert greene_timed(tw("4^0.29")) == (Fraction("0.29"),)

    def test_oracle_agreement_on_flagship_example(self):
        from conftest import BIG_TIMED_PROFILE, BIG_TIMED_WORD_TEXT

        w = tw(BIG_TIMED_WORD_TEXT)
        assert greene_timed(w) == BIG_TIMED_PROFILE
        assert greene_timed_oracle(w, 6) == BIG_TIMED_PROFILE

    def test_classical_compatibility(self):
        assert greene_timed(embed_classical(WORD_3421153)) == (3, 6, 7)

    @given(small_timed_words)
    def test_oracle_agreement(self, w):
        profile = greene_timed(w)
        assert greene_timed_oracle(w, len(profile)) == profile

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
        # The reference expands w on the grid 1/(2q), twice as fine as the
        # oracle's.
        rows = len(greene_timed(w))
        assert greene_timed_oracle(w, rows) == tuple(
            timed_greene_reference(w, r, refine=2) for r in range(1, rows + 1)
        )


def _primes_below(n):
    return [p for p in range(2, n) if all(p % d for d in range(2, int(p**0.5) + 1))]


class TestWholeRunSearch:
    """The oracles search over whole runs; the reference goes letter by
    letter, on the grid expansion for timed words."""

    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=6))
    def test_classical_words_with_repeats(self, blocks):
        w = tuple(c for c, n in blocks for _ in range(n))
        assert greene_classical_oracle(w, 4) == reference_profile(
            (greene_reference(w, r) for r in range(1, 5)), len(w)
        )

    @given(small_timed_words)
    def test_small_timed_words(self, w):
        assert greene_timed_oracle(w, 4) == reference_profile(
            (timed_greene_reference(w, r) for r in range(1, 5)), w.length
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coprime_denominators_at_benchmark_scale(self, seed):
        # 150 runs with distinct prime denominators: the grid 1/q is far
        # beyond any expansion, so the oracle is checked against insertion.
        rng = random.Random(seed)
        runs, prev = [], None
        for p in rng.sample(_primes_below(1000), 150):
            prev = rng.choice([c for c in range(1, 6) if c != prev])
            runs.append((prev, Fraction(rng.randint(1, max(p - 1, 1)), p)))
        w = normalize(runs)
        assert len(w.runs) == 150 and w.length.denominator.bit_length() > 1000
        profile = greene_timed(w)
        for r in (*range(len(profile) + 2), 10**9):
            assert greene_timed_oracle(w, r) == profile[:r]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_classical_words_at_benchmark_scale(self, seed):
        rng = random.Random(seed)
        w = tuple(rng.randint(1, 4) for _ in range(1000))
        profile = greene_classical(w)
        assert greene_classical_oracle(w, len(profile)) == profile


class TestIndependence:
    def test_oracles_call_no_insertion(self, monkeypatch):
        from conftest import BIG_TIMED_PROFILE, BIG_TIMED_WORD_TEXT

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called insertion")

        w = tw(BIG_TIMED_WORD_TEXT)
        monkeypatch.setattr(timed_tableaux, "_insert_runs", refuse)
        monkeypatch.setattr(timed_tableaux, "_bump_runs", refuse)
        monkeypatch.setattr(classical, "_insert_units", refuse)
        for fast, word in ((greene_classical, WORD_3421153), (greene_timed, w)):
            with pytest.raises(AssertionError):
                fast(word)
        assert greene_classical_oracle(WORD_3421153, 3) == (3, 6, 7)
        assert greene_timed_oracle(w, 6) == BIG_TIMED_PROFILE

