import random

from hypothesis import given
from hypothesis import strategies as st

from timed_plactic.randomgen import random_timed_word

from conftest import random_timed_word_runs


@given(
    seed=st.integers(0, 2**64),
    runs=st.integers(0, 12),
    max_letter=st.integers(1, 40),
    max_den=st.integers(1, 9),
    max_num=st.integers(1, 9),
)
def test_letters_drawn_as_by_choice_over_a_list(seed, runs, max_letter, max_den, max_num):
    # Same runs and the same generator state after: `random` and `check`
    # outputs depend on both.
    sizes = dict(runs=runs, max_letter=max_letter, max_den=max_den, max_num=max_num)
    rng, ref = random.Random(seed), random.Random(seed)
    assert random_timed_word(rng, **sizes).runs == random_timed_word_runs(ref, **sizes)
    assert rng.getstate() == ref.getstate()


def test_huge_alphabet_draws_without_a_letter_list():
    w = random_timed_word(random.Random(3), runs=50, max_letter=10**18)
    assert len(w.runs) == 50
    assert all(1 <= c <= 10**18 for c, _ in w.runs)
