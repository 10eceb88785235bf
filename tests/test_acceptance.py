"""Acceptance suite: every criterion as one test, exact tolerances, with a
printed pass/fail line per criterion (run with ``pytest -s`` to see them)."""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from timed_plactic import (
    TimedKnuthMove,
    apply_move,
    embed_classical,
    embed_classical_tableau,
    format_timed_word,
    greene_classical,
    greene_classical_oracle,
    greene_timed,
    greene_timed_oracle,
    insertion_steps,
    insertion_tableau,
    parse_timed_word,
    render_svg,
    timed_insertion_tableau,
    timed_reading_word,
    timed_row_insert_word,
    timed_shape,
    timed_tableau_insert,
)
from timed_plactic.cli import main as cli_main
from timed_plactic.randomgen import random_kappa_instance, random_timed_word, random_word
from timed_plactic.timed_tableaux import TimedTableau

from conftest import (
    BIG_TIMED_PROFILE,
    BIG_TIMED_SHAPE,
    BIG_TIMED_TABLEAU_ROWS,
    BIG_TIMED_WORD_TEXT,
    INSERT_EXAMPLE_RESULT_A,
    INSERT_EXAMPLE_RESULT_B,
    INSERT_EXAMPLE_ROW_A,
    INSERT_EXAMPLE_ROW_B,
    INSERT_EXAMPLE_SHAPE_A,
    INSERT_EXAMPLE_TABLEAU_ROWS,
    KAPPA2_MOVE_KWARGS,
    KAPPA2_RESULT_TEXT,
    KAPPA2_SOURCE_TEXT,
    RINS_BUMPED_TEXT,
    RINS_INSERTED_TEXT,
    RINS_RESULT_TEXT,
    RINS_ROW_TEXT,
    STEPS_3421153,
    TABLEAU_3421153,
    WORD_3421153,
    knuth_equivalent_bfs,
    timed_greene_reference,
    tw,
)


@contextmanager
def criterion(num: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {num:02d} {name}: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {num:02d} {name}: PASS ({elapsed:.2f}s)", flush=True)


def best_time(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_01_classical_example_reproduction(capsys):
    with criterion(1, "classical insertion and Greene example"):
        assert cli_main(["insert", "3421153", "--json", "--steps"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"] == [[1, 1, 3], [2, 4, 5], [3]]
        assert [tuple(map(tuple, s["rows"])) for s in data["steps"]] == list(
            STEPS_3421153
        )
        assert cli_main(["greene", "3421153", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["profile"] == [3, 6, 7]

        assert insertion_tableau(WORD_3421153).rows == TABLEAU_3421153
        assert tuple(t.rows for t in insertion_steps(WORD_3421153)) == STEPS_3421153
        assert greene_classical(WORD_3421153) == (3, 6, 7)
        elapsed = best_time(
            lambda: (insertion_tableau(WORD_3421153), greene_classical(WORD_3421153))
        )
        assert elapsed < 0.001, f"classical pipeline took {elapsed * 1000:.3f} ms"


def test_02_timed_example_reproduction():
    with criterion(2, "timed insertion and Greene example"):
        w = tw(BIG_TIMED_WORD_TEXT)
        t = timed_insertion_tableau(w)
        assert t.rows == tuple(tw(row) for row in BIG_TIMED_TABLEAU_ROWS)
        assert timed_shape(t) == BIG_TIMED_SHAPE
        assert timed_shape(t) == (
            Fraction(16, 5),
            Fraction(193, 100),
            Fraction(109, 100),
            Fraction(61, 100),
            Fraction(29, 100),
            Fraction(7, 100),
        )
        assert greene_timed(w) == BIG_TIMED_PROFILE
        elapsed = best_time(lambda: (timed_insertion_tableau(w), greene_timed(w)))
        assert elapsed < 0.010, f"timed pipeline took {elapsed * 1000:.3f} ms"


def test_03_timed_row_and_tableau_insertion_examples():
    with criterion(3, "timed row and tableau insertion examples"):
        bumped, row = timed_row_insert_word(tw(RINS_ROW_TEXT), tw(RINS_INSERTED_TEXT))
        assert bumped == tw(RINS_BUMPED_TEXT)
        assert row == tw(RINS_RESULT_TEXT)

        base = TimedTableau(tuple(tw(r) for r in INSERT_EXAMPLE_TABLEAU_ROWS))
        result = timed_tableau_insert(base, tw(INSERT_EXAMPLE_ROW_A))
        assert result.rows == tuple(tw(r) for r in INSERT_EXAMPLE_RESULT_A)
        assert timed_shape(result) == INSERT_EXAMPLE_SHAPE_A
        assert timed_shape(result) == (
            Fraction("4.9"),
            Fraction("1.9"),
            Fraction(1),
        )
        # a second cascade at smaller mass, pinned with its conservation law
        other = timed_tableau_insert(base, tw(INSERT_EXAMPLE_ROW_B))
        assert other.rows == tuple(tw(r) for r in INSERT_EXAMPLE_RESULT_B)
        assert sum(timed_shape(other)) == sum(timed_shape(base)) + tw(
            INSERT_EXAMPLE_ROW_B
        ).length


def test_04_greene_theorem_classical_exhaustive():
    with criterion(4, "Greene theorem, classical, exhaustive length <= 6"):
        start = time.perf_counter()
        count = 0
        for n in range(1, 7):
            for w in itertools.product((1, 2, 3), repeat=n):
                profile = greene_classical(w)
                assert greene_classical_oracle(w, len(profile)) == profile, w
                count += 1
        assert count == 1092
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"exhaustive check took {elapsed:.1f}s"


def test_05_greene_theorem_timed_randomized():
    with criterion(5, "Greene theorem, timed, 500 randomized words"):
        start = time.perf_counter()
        rng = random.Random(20240605)
        for _ in range(500):
            w = random_timed_word(rng, max_runs=5, max_letter=4, max_den=4, max_num=2)
            profile = greene_timed(w)
            oracle = greene_timed_oracle(w, len(profile))
            assert oracle == profile, format_timed_word(w)
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"randomized timed check took {elapsed:.1f}s"


def test_06_knuth_equivalence_matches_tableau_equality():
    with criterion(6, "Knuth equivalence <=> tableau equality, exhaustive"):
        groups: dict = {}
        tableaux: dict = {}
        for n in range(1, 6):
            for w in itertools.product((1, 2, 3), repeat=n):
                groups.setdefault(tuple(sorted(w)), []).append(w)
                tableaux[w] = insertion_tableau(w)
        for members in groups.values():
            for a, b in itertools.combinations_with_replacement(members, 2):
                expected = tableaux[a] == tableaux[b]
                assert knuth_equivalent_bfs(a, b) is expected, (a, b)


def test_07_kappa2_worked_example():
    with criterion(7, "kappa2 worked example"):
        w = tw(KAPPA2_SOURCE_TEXT)
        expected = tw(KAPPA2_RESULT_TEXT)
        move = TimedKnuthMove(**KAPPA2_MOVE_KWARGS)
        assert apply_move(w, move) == expected
        assert timed_insertion_tableau(w) == timed_insertion_tableau(expected)
        assert greene_timed(w) == greene_timed(expected)
        # spot-check the first two invariants against the scaling oracle too
        for r in (1, 2):
            assert greene_timed_oracle(w, r) == greene_timed_oracle(expected, r)


def test_08_move_invariance_randomized():
    with criterion(8, "move invariance, 200 randomized instances"):
        rng = random.Random(20240608)
        for i in range(200):
            kind = "k1" if i % 2 == 0 else "k2"
            w, move = random_kappa_instance(rng, kind, max_den=4)
            moved = apply_move(w, move)
            assert timed_insertion_tableau(moved) == timed_insertion_tableau(w)
            for r in (1, 2, 3):
                assert greene_timed_oracle(w, r) == greene_timed_oracle(moved, r), (
                    format_timed_word(w), move, r
                )


def test_09_embedding_compatibility():
    with criterion(9, "classical embedding compatibility, 300 words"):
        rng = random.Random(20240609)
        for _ in range(300):
            w = random_word(rng, max_len=8, max_letter=4)
            classical = insertion_tableau(w)
            timed = timed_insertion_tableau(embed_classical(w))
            assert timed == embed_classical_tableau(classical)
            assert greene_timed(embed_classical(w)) == tuple(
                map(Fraction, greene_classical(w))
            )


def test_10_discretization_stability():
    with criterion(10, "discretization stability under grid refinement"):
        rng = random.Random(20240610)
        for _ in range(200):
            w = random_timed_word(rng, max_runs=4, max_letter=4, max_den=4, max_num=2)
            rows = len(greene_timed(w))
            oracle = greene_timed_oracle(w, rows)
            fine = tuple(timed_greene_reference(w, r, refine=2) for r in range(1, rows + 1))
            assert oracle == fine, format_timed_word(w)


def test_11_determinism_and_roundtrips():
    with criterion(11, "determinism and roundtrips"):
        rng = random.Random(20240611)
        for _ in range(1000):
            w = random_timed_word(rng, max_runs=6, max_letter=6, max_den=8, max_num=5)
            assert parse_timed_word(format_timed_word(w)) == w
        for _ in range(200):
            w = random_timed_word(rng, max_runs=6, max_letter=4, max_den=4, max_num=3)
            t = timed_insertion_tableau(w)
            assert timed_insertion_tableau(timed_reading_word(t)) == t
        big = timed_insertion_tableau(tw(BIG_TIMED_WORD_TEXT))
        assert render_svg(big).encode() == render_svg(big).encode()
        assert render_svg(tw(BIG_TIMED_WORD_TEXT)).encode() == render_svg(
            tw(BIG_TIMED_WORD_TEXT)
        ).encode()
