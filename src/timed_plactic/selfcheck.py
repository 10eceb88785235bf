"""Randomized self-check suites behind the CLI ``check`` subcommand.

Each suite is one seeded iteration, ``suite(rng, i) -> (word, passed)``,
run a fixed number of times with its failures counted; the whole report is
reproducible for a given seed and iteration count. The first failure is
reported as a witness: its suite, seed, iteration and input word.
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
from .notation import (
    format_timed_word,
    format_word,
    parse_timed_word,
    timed_tableau_from_dict,
    timed_tableau_to_dict,
    timed_word_from_dict,
    timed_word_to_dict,
)
from .randomgen import random_kappa_instance, random_timed_word, random_word
from .timed_knuth import apply_move, check_move_invariance
from .timed_words import TimedWord, embed_classical, letter_durations, scale
from .timed_tableaux import (
    embed_classical_tableau,
    timed_insertion_tableau,
    timed_reading_word,
    timed_shape,
)


def _classical_oracle_agreement(rng: random.Random, i: int) -> tuple:
    w = random_word(rng, max_len=7, max_letter=4)
    profile = greene_classical(w)
    return w, greene_classical_oracle(w, len(profile)) == profile


def _timed_oracle_agreement(rng: random.Random, i: int) -> tuple:
    w = random_timed_word(rng, max_runs=5, max_letter=4, max_den=4, max_num=2)
    profile = greene_timed(w)
    return w, greene_timed_oracle(w, len(profile)) == profile


def _move_invariance(rng: random.Random, i: int) -> tuple:
    kind = "k1" if i % 2 == 0 else "k2"
    w, move = random_kappa_instance(rng, kind, max_den=4)
    moved = apply_move(w, move)
    return w, (
        letter_durations(moved) == letter_durations(w)
        and timed_insertion_tableau(moved) == timed_insertion_tableau(w)
        and check_move_invariance(w, move, 3)
    )


def _roundtrips(rng: random.Random, i: int) -> tuple:
    # The JSON readers go through Fractions, normalize and TimedTableau(rows),
    # so they check the writers, which read the grid.
    w = random_timed_word(rng, max_runs=6, max_letter=5, max_den=6, max_num=3)
    if parse_timed_word(format_timed_word(w)) != w:
        return w, False
    if timed_word_from_dict(timed_word_to_dict(w)) != w:
        return w, False
    t = timed_insertion_tableau(w)
    return w, (
        timed_tableau_from_dict(timed_tableau_to_dict(t)) == t
        and timed_insertion_tableau(timed_reading_word(t)) == t
    )


def _embedding_compatibility(rng: random.Random, i: int) -> tuple:
    w = random_word(rng, max_len=8, max_letter=4)
    t = insertion_tableau(w)
    timed = timed_insertion_tableau(embed_classical(w))
    return w, timed == embed_classical_tableau(t) and timed_shape(timed) == shape(t)


def _discretization_stability(rng: random.Random, i: int) -> tuple:
    w = random_timed_word(rng, max_runs=4, max_letter=4, max_den=4, max_num=2)
    rows = len(timed_shape(timed_insertion_tableau(w)))
    # Halving every duration doubles q; the oracle's values must halve too.
    half = scale(w, Fraction(1, 2))
    return w, greene_timed_oracle(half, rows) == tuple(a / 2 for a in greene_timed_oracle(w, rows))


_SUITES = (
    ("greene-classical-oracle-agreement", _classical_oracle_agreement),
    ("greene-timed-oracle-agreement", _timed_oracle_agreement),
    ("knuth-move-invariance", _move_invariance),
    ("parse-and-reading-word-roundtrips", _roundtrips),
    ("classical-embedding-compatibility", _embedding_compatibility),
    ("discretization-stability", _discretization_stability),
)


def run_checks(iters: int, seed: int) -> dict:
    """Run every suite for ``iters`` iterations; deterministic per seed. A
    failure adds the first ``witness``, which the same seed and ``iters``
    reproduce."""
    rng = random.Random(seed)
    suites = []
    witness = None
    for name, suite in _SUITES:
        fails = 0
        for i in range(iters):
            w, passed = suite(rng, i)
            if not (passed or witness):
                text = format_timed_word(w) if isinstance(w, TimedWord) else format_word(w)
                witness = {"suite": name, "seed": seed, "iteration": i, "word": text}
            fails += not passed
        suites.append({"name": name, "pass": iters - fails, "fail": fails})
    report = {"seed": seed, "iterations": iters, "suites": suites, "ok": witness is None}
    if witness:
        report["witness"] = witness
    return report
