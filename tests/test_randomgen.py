import hashlib
import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from timed_plactic import TimedKnuthMove
from timed_plactic.randomgen import random_kappa_instance
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


KAPPA_DIGEST = "3f4d4d7cebf88736aef9e9c18a55d2b8ca9619cb2ca1bc62d808e25776923bab"


def test_kappa_instances_are_pinned():
    # What random_kappa_instance draws, and the generator state it leaves,
    # over 300 seeds, both kinds and two denominator bounds: `check` and
    # the move tests depend on both.
    digest = hashlib.sha256()
    for seed in range(300):
        for kind in ("k1", "k2"):
            for max_den in (4, 8):
                rng = random.Random(seed)
                w, m = random_kappa_instance(rng, kind, max_den=max_den)
                digest.update(f"{seed} {kind} {max_den} {w} {m!r} {rng.random()}\n".encode())
    assert digest.hexdigest() == KAPPA_DIGEST
    w, m = random_kappa_instance(random.Random(0), "k1", max_den=4)
    assert str(w) == "3^1/4 1^1 2^1/3 4^2 2^5/3 3^1/3 5^2"
    assert m == TimedKnuthMove("k1", Fraction(1, 4), Fraction(4, 3), 2, 2)
    w, m = random_kappa_instance(random.Random(1), "k2", max_den=8)
    assert str(w) == "1^1/4 3^1/6 2^1 1^1 5^1/2"
    assert m == TimedKnuthMove("k2", Fraction(5, 12), 1, 1, Fraction(1, 2))
