"""The paper's timed claims, each checked on every word of a stated scope:
the timed Knuth moves, and the timed Greene theorem.

The moves' scope is every timed word of length 3 on the grid 1/2 over the letters
1..3: six half cells, each holding one of three letters, so 3**6 = 729
words. A move site names a region by a position and three cuts, all
positive multiples of 1/2 except the position, ending by 3: 35 cut tuples,
each tried as both kinds in both directions. A move keeps the length and
the grid, so every word a valid move reaches is in the scope.

Soundness: every valid move keeps the insertion tableau, the letter
durations and the Greene profile of the flow oracle. Completeness: the
components of the move graph are exactly the classes of words with equal
timed tableaux. Each count is pinned, as criterion 4 of the acceptance suite
pins its 1,092 words. A move that cuts only at run boundaries splits the
graph into 190 components, and a limit condition weakened to ``<=`` merges
it into 30, so both count as failures here.

The Greene scope is every timed word of one to four runs over the letters
1..3, adjacent letters distinct, each run lasting one of six durations
between 1/3 and 2: 3 * 6 + 6 * 6**2 + 12 * 6**3 + 24 * 6**4 = 33,930 words.
On every one, the profile that the fast path reads off the insertion
tableau equals the min-cost flow oracle's, which never inserts.
"""

from fractions import Fraction
from itertools import product

from timed_plactic import (
    InvalidMoveError,
    Run,
    TimedKnuthMove,
    TimedWord,
    apply_move,
    greene_timed,
    greene_timed_oracle,
    letter_durations,
    normalize,
    timed_insertion_tableau,
)

HALF = Fraction(1, 2)
CELLS = 6  # half cells: the words have length 3
DURATIONS = tuple(map(Fraction, ("1/3", "1/2", "2/3", "1", "3/2", "2")))


def scope_words():
    return [normalize((c, HALF) for c in cells) for cells in product((1, 2, 3), repeat=CELLS)]


def move_sites():
    """Every (position, cut1, cut2, cut3) in half cells: cuts of at least
    one cell, the region ending by the last cell."""
    return [
        (p, c1, c2, c3)
        for p in range(CELLS)
        for c1 in range(1, CELLS + 1)
        for c2 in range(1, CELLS + 1)
        for c3 in range(1, CELLS + 1)
        if p + c1 + c2 + c3 <= CELLS
    ]


def components(nodes, edges) -> list[frozenset]:
    parent = {v: v for v in nodes}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        parent[root(a)] = root(b)
    groups: dict = {}
    for v in nodes:
        groups.setdefault(root(v), set()).add(v)
    return [frozenset(g) for g in groups.values()]


def test_moves_are_sound_and_complete_on_the_half_grid_of_length_3():
    words = scope_words()
    sites = move_sites()
    assert len(set(words)) == 729 and len(sites) == 35
    tableau = {w: timed_insertion_tableau(w) for w in words}
    durations = {w: letter_durations(w) for w in words}
    profile = {w: greene_timed_oracle(w, 3) for w in words}
    tried = 0
    edges = []
    for w in words:
        for (p, c1, c2, c3), kind, reverse in product(sites, ("k1", "k2"), (False, True)):
            tried += 1
            m = TimedKnuthMove(kind, p * HALF, c1 * HALF, c2 * HALF, c3 * HALF, reverse)
            try:
                moved = apply_move(w, m)
            except InvalidMoveError:
                continue
            assert moved in tableau, (w, m)  # the scope is closed under moves
            assert tableau[moved] == tableau[w], (w, m)
            assert durations[moved] == durations[w], (w, m)
            assert profile[moved] == profile[w], (w, m)
            edges.append((w, moved))
    assert tried == 102_060
    assert len(edges) == 2_612
    classes: dict = {}
    for w in words:
        classes.setdefault(tableau[w], set()).add(w)
    found = components(words, edges)
    assert len(found) == 119 and len(classes) == 119
    assert set(found) == {frozenset(c) for c in classes.values()}


def greene_scope_words():
    """Every timed word of 1 to 4 runs over the letters 1..3, adjacent
    letters distinct, each run lasting one of DURATIONS."""
    return [
        TimedWord(tuple(map(Run, letters, durations)))
        for n in range(1, 5)
        for letters in product((1, 2, 3), repeat=n)
        if all(a != b for a, b in zip(letters, letters[1:]))
        for durations in product(DURATIONS, repeat=n)
    ]


def test_timed_greene_theorem_on_every_word_of_up_to_4_runs_over_3_letters():
    words = greene_scope_words()
    assert len(set(words)) == 33_930
    for w in words:
        profile = greene_timed(w)
        assert greene_timed_oracle(w, len(profile)) == profile, w
