"""Randomized self-check suites behind the CLI ``check`` subcommand.

Each suite is one seeded iteration, ``suite(rng, i) -> bool``, run a fixed
number of times with its failures counted; the whole report is reproducible
for a given seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .classical import insertion_tableau, shape
from .greene import (
    greene_classical,
    greene_classical_oracle,
    greene_timed,
    greene_timed_oracle,
)
from .notation import format_timed_word, parse_timed_word
from .randomgen import random_kappa_instance, random_timed_word, random_word
from .timed_knuth import apply_move, check_move_invariance
from .timed_words import embed_classical, letter_durations, scale
from .timed_tableaux import (
    embed_classical_tableau,
    timed_insertion_tableau,
    timed_reading_word,
    timed_shape,
)


def _classical_oracle_agreement(rng: random.Random, i: int) -> bool:
    w = random_word(rng, max_len=7, max_letter=4)
    profile = greene_classical(w)
    return all(
        greene_classical_oracle(w, r) == profile[r - 1] for r in range(1, len(profile) + 1)
    )


def _timed_oracle_agreement(rng: random.Random, i: int) -> bool:
    w = random_timed_word(rng, max_runs=5, max_letter=4, max_den=4, max_num=2)
    profile = greene_timed(w)
    return all(
        greene_timed_oracle(w, r, max_letters=None) == profile[r - 1]
        for r in range(1, len(profile) + 1)
    )


def _move_invariance(rng: random.Random, i: int) -> bool:
    kind = "k1" if i % 2 == 0 else "k2"
    w, move = random_kappa_instance(rng, kind, max_den=4)
    moved = apply_move(w, move)
    return (
        letter_durations(moved) == letter_durations(w)
        and timed_insertion_tableau(moved) == timed_insertion_tableau(w)
        and check_move_invariance(w, move, 3)
    )


def _roundtrips(rng: random.Random, i: int) -> bool:
    w = random_timed_word(rng, max_runs=6, max_letter=5, max_den=6, max_num=3)
    if parse_timed_word(format_timed_word(w)) != w:
        return False
    t = timed_insertion_tableau(w)
    return timed_insertion_tableau(timed_reading_word(t)) == t


def _embedding_compatibility(rng: random.Random, i: int) -> bool:
    w = random_word(rng, max_len=8, max_letter=4)
    t = insertion_tableau(w)
    timed = timed_insertion_tableau(embed_classical(w))
    return timed == embed_classical_tableau(t) and timed_shape(timed) == shape(t)


def _discretization_stability(rng: random.Random, i: int) -> bool:
    w = random_timed_word(rng, max_runs=4, max_letter=4, max_den=4, max_num=2)
    rows = len(timed_shape(timed_insertion_tableau(w)))
    # Halving every duration doubles q; the oracle's value must halve too.
    half = scale(w, Fraction(1, 2))
    return all(
        greene_timed_oracle(half, r, max_letters=None)
        == greene_timed_oracle(w, r, max_letters=None) / 2
        for r in range(1, rows + 1)
    )


_SUITES = (
    ("greene-classical-oracle-agreement", _classical_oracle_agreement),
    ("greene-timed-oracle-agreement", _timed_oracle_agreement),
    ("knuth-move-invariance", _move_invariance),
    ("parse-and-reading-word-roundtrips", _roundtrips),
    ("classical-embedding-compatibility", _embedding_compatibility),
    ("discretization-stability", _discretization_stability),
)


def run_checks(iters: int, seed: int) -> dict:
    """Run every suite for ``iters`` iterations; deterministic per seed."""
    rng = random.Random(seed)
    suites = []
    for name, passes in _SUITES:
        fails = sum(not passes(rng, i) for i in range(iters))
        suites.append({"name": name, "pass": iters - fails, "fail": fails})
    return {
        "seed": seed,
        "iterations": iters,
        "suites": suites,
        "ok": all(entry["fail"] == 0 for entry in suites),
    }
