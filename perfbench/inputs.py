"""Seeded input generation for the benchmark.

Independent of ``timed_plactic``: words are plain lists, timed words are
lists of ``(letter, Fraction)`` runs in normal form (positive durations,
adjacent letters distinct). Every seed draws the same sizes in the same
order; only the contents change with the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Factor roles in source and target order, per (kind, reverse); the same
# convention as the k1/k2 move JSON (``x_len`` etc. name roles, not slots).
SOURCE = {("k1", False): "xzy", ("k1", True): "zxy", ("k2", False): "yxz", ("k2", True): "yzx"}
TARGET = {("k1", False): "zxy", ("k1", True): "xzy", ("k2", False): "yzx", ("k2", True): "yxz"}


def strata(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes, the midpoints of log-spaced strata of [lo, hi], in
    van der Corput order, so that every prefix spreads over the range."""
    ratio = hi / lo
    order = sorted(range(count), key=lambda i: int(f"{i:016b}"[::-1], 2))
    return [round(lo * ratio ** ((i + 0.5) / count)) for i in order]


def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(n) if sieve[p]]


# ---------------------------------------------------------------- classical


def classical_word(rng: random.Random, n: int, alphabet: int) -> list[int]:
    return [rng.randint(1, alphabet) for _ in range(n)]


def knuth_walk(rng: random.Random, word: list[int], attempts: int) -> list[int]:
    """Apply random Knuth moves: x z y <-> z x y (x <= y < z) and
    y x z <-> y z x (x < y <= z), each on a random length-3 window."""
    w = list(word)
    if len(w) < 3:
        return w
    for _ in range(attempts):
        i = rng.randrange(len(w) - 2)
        a, b, c = w[i], w[i + 1], w[i + 2]
        first = a <= c < b or b <= c < a
        second = b < a <= c or c < a <= b
        if first and (not second or rng.random() < 0.5):
            w[i], w[i + 1] = b, a
        elif second:
            w[i + 1], w[i + 2] = c, b
    return w


def change_one_letter(rng: random.Random, word: list[int], alphabet: int) -> list[int]:
    """Change one letter; the letter content, a Knuth invariant, changes."""
    w = list(word)
    i = rng.randrange(len(w))
    w[i] = rng.choice([c for c in range(1, alphabet + 1) if c != w[i]])
    return w


def classical_equiv_pair(rng, n, alphabet, equivalent):
    left = classical_word(rng, n, alphabet)
    right = knuth_walk(rng, left, 3 * n)
    if not equivalent:
        right = knuth_walk(rng, change_one_letter(rng, right, alphabet), n)
    return left, right


def format_word(word) -> str:
    if max(word) <= 9:
        return "".join(map(str, word))
    return ",".join(map(str, word))


# -------------------------------------------------------------------- timed


def small_den(max_den: int):
    def draw(rng: random.Random) -> Fraction:
        den = rng.randint(1, max_den)
        return Fraction(rng.randint(1, 2 * den), den)

    return draw


def prime_dens(primes: list[int]):
    """A duration drawer whose denominators are primes, each drawn once
    until all of ``primes`` have been used."""
    pool: list[int] = []

    def draw(rng: random.Random) -> Fraction:
        if not pool:
            pool.extend(rng.sample(primes, len(primes)))
        p = pool.pop()
        num = rng.randrange(1, 2 * p - 1)
        return Fraction(num + (num >= p), p)

    return draw


def normal_form(runs) -> list[tuple[int, Fraction]]:
    out: list[tuple[int, Fraction]] = []
    for c, d in runs:
        if out and out[-1][0] == c:
            out[-1] = (c, out[-1][1] + d)
        else:
            out.append((c, d))
    return out


def timed_word(rng, n_runs, alphabet, draw) -> list[tuple[int, Fraction]]:
    runs = []
    for _ in range(n_runs):
        c = rng.randint(1, alphabet)
        while runs and c == runs[-1][0]:
            c = rng.randint(1, alphabet)
        runs.append((c, draw(rng)))
    return runs


def length(runs) -> Fraction:
    return sum((d for _, d in runs), Fraction(0))


def cut(runs, a: Fraction, b: Fraction):
    """The piece of a timed word over the time window [a, b)."""
    out, start = [], Fraction(0)
    for c, d in runs:
        end = start + d
        lo, hi = max(start, a), min(end, b)
        if lo < hi:
            out.append((c, hi - lo))
        start = end
    return out


def change_one_run(rng, runs, alphabet):
    """Give one run another letter; the letter-duration content changes."""
    out = list(runs)
    i = rng.randrange(len(out))
    c, d = out[i]
    out[i] = (rng.choice([x for x in range(1, alphabet + 1) if x != c]), d)
    return normal_form(out)


def move_instance(rng, n_runs, alphabet, draw, *, equivalent: bool):
    """(left, right, move) where ``move`` (k1 or k2, either direction) is a
    valid move on ``left``. When ``equivalent`` it rewrites left into right;
    otherwise right is the rewrite with one run relabelled, so the words are
    not Knuth equivalent and the move does not reach right."""
    kind = rng.choice(("k1", "k2"))
    reverse = rng.random() < 0.5
    while True:
        k = rng.randint(3, min(6, alphabet))
        letters = sorted(rng.sample(range(1, alphabet + 1), k))
        row = [(c, draw(rng)) for c in letters]
        total = length(row)
        inner = [length(row[:i]) for i in range(1, k)]
        if kind == "k2":
            choices = [s for s in inner if 2 * s < total]
            if choices:
                s = rng.choice(choices)
                roles = {"x": cut(row, 0, s), "y": cut(row, s, 2 * s), "z": cut(row, 2 * s, total)}
                break
        else:
            choices = [b for b in inner if 2 * b > total]
            if choices:
                b = rng.choice(choices)
                a = 2 * b - total
                roles = {"x": cut(row, 0, a), "y": cut(row, a, b), "z": cut(row, b, total)}
                break
    rest = max(0, n_runs - k)
    n_u = rng.randint(0, rest)
    u = timed_word(rng, n_u, alphabet, draw)
    v = timed_word(rng, rest - n_u, alphabet, draw)
    src = [run for role in SOURCE[kind, reverse] for run in roles[role]]
    dst = [run for role in TARGET[kind, reverse] for run in roles[role]]
    left = normal_form(u + src + v)
    moved = normal_form(u + dst + v)
    right = moved if equivalent else change_one_run(rng, moved, alphabet)
    move = {"kind": kind, "u_len": str(length(u))}
    for role in "xyz":
        move[f"{role}_len"] = str(length(roles[role]))
    if reverse:
        move["reverse"] = True
    return left, right, move, moved


def format_duration(d: Fraction) -> str:
    return str(d.numerator) if d.denominator == 1 else f"{d.numerator}/{d.denominator}"


def format_timed(runs) -> str:
    return " ".join(f"{c}^{format_duration(d)}" for c, d in runs)
