"""Knuth moves on timed words.

The two move kinds rewrite a three-factor region of a word, leaving a prefix
u and suffix v untouched. With x, y, z denoting the roles in the side
conditions (x y z must form a timed row):

  k1: x z y <-> z x y   requires l(z) = l(y) and last letter of y < first of z
  k2: y x z <-> y z x   requires l(x) = l(y) and last letter of x < first of y

A move names the region by rational cut lengths in the source word; the
``reverse`` flag applies the rewrite right to left. Both directions of either
kind preserve the letter-duration histogram and the insertion tableau.

``apply_move`` works on one integer grid, the lcm of the word's q and the
cuts' denominators. It cuts the word into u, the three factors and v by
bisection and slicing (``timed_words._cut``) and joins the rewritten
pieces, merging runs only at their seams (``timed_words._joined``). Its
Python steps do not grow with the word: a move at the start of 20,000 runs
runs the same lines as one at the start of 20, and the copying of u and v
is done at C speed.
"""

from __future__ import annotations

from itertools import accumulate

from .classical import _Value, is_row
from .errors import InvalidMoveError, _lazy_module, _quote, _text
from .greene import greene_timed_oracle
from .timed_words import TimedWord, _cut, _joined, _ticks, as_duration
from .timed_tableaux import timed_insertion_tableau

fractions = _lazy_module("fractions")

# Factor roles in their order of appearance, per (kind, reverse). A move
# rewrites its source order into the order of the opposite direction.
SOURCE_ORDER: dict[tuple[str, bool], str] = {
    ("k1", False): "xzy",
    ("k1", True): "zxy",
    ("k2", False): "yxz",
    ("k2", True): "yzx",
}


class TimedKnuthMove(_Value):
    """A Knuth move site: ``position`` is where the three-factor region
    starts, and cut1..cut3 are the factor lengths in source order (see
    SOURCE_ORDER for which role each cut plays)."""

    _fields = ("kind", "position", "cut1", "cut2", "cut3", "reverse")

    def __init__(self, kind: str, position, cut1, cut2, cut3, reverse: bool = False):
        if kind not in ("k1", "k2"):
            raise ValueError(f"move kind must be 'k1' or 'k2', got {_quote(kind)}")
        position = as_duration(position)
        cuts = []
        for i, cut in enumerate((cut1, cut2, cut3), 1):
            value = as_duration(cut)
            if value <= 0:
                raise ValueError(f"cut{i} must be positive, got {_text(value)}")
            cuts.append(value)
        if position < 0:
            raise ValueError(f"position must be nonnegative, got {_text(position)}")
        self.__dict__.update(zip(self._fields, (kind, position, *cuts, reverse)))

    @property
    def cuts(self) -> tuple[fractions.Fraction, fractions.Fraction, fractions.Fraction]:
        return (self.cut1, self.cut2, self.cut3)


# Side conditions per kind: the two factors whose lengths must be equal,
# and the two whose boundary letters must increase across the junction.
SIDE_CONDITIONS: dict[str, tuple[str, str]] = {
    "k1": ("zy", "yz"),
    "k2": ("xy", "xy"),
}


def _validate(kind: str, named: dict, q: int) -> None:
    # The factors are slices of a normalized word, with distinct neighbours
    # within each, so x y z is a timed row when their letters weakly increase.
    xyz = [named[role] for role in "xyz"]
    if not is_row([c for letters, _ in xyz for c in letters]):
        word = _quote(_joined(xyz, q))
        raise InvalidMoveError("xyz-not-a-row", f"x y z = {word} is not a timed row")
    (a, b), (left, right) = SIDE_CONDITIONS[kind]
    if sum(named[a][1]) != sum(named[b][1]):
        la, lb = (fractions.Fraction(sum(named[role][1]), q) for role in (a, b))
        raise InvalidMoveError(
            "length-mismatch", f"l({a}) = {_text(la)} differs from l({b}) = {_text(lb)}"
        )
    last, first = named[left][0][-1], named[right][0][0]
    if not last < first:
        raise InvalidMoveError(
            "limit-condition",
            f"last letter of {left} ({last}) must be below the "
            f"first letter of {right} ({first})",
        )


def apply_move(w: TimedWord, m: TimedKnuthMove) -> TimedWord:
    """Validate and apply a move, returning the rewritten (normalized) word,
    built once from the cut pieces on their common grid.

    The region's ends are integer ticks on one grid, the lcm of w.q and the
    cuts' denominators, and the range is tested against the word's count
    total; ``Fraction``s are built only for the error message."""
    q, ticks = _ticks(w, (m.position, *m.cuts))
    start, a, b, end = accumulate(ticks)
    total = sum(w.counts) * (q // w.q)
    if end > total:
        raise InvalidMoveError(
            "cuts-out-of-range",
            f"move region [{_text(m.position)}, {_text(fractions.Fraction(end, q))}) "
            f"exceeds word length {_text(w.length)}",
        )
    u, *factors, v = _cut(w, q, (0, start, a, b, end, total))
    named = dict(zip(SOURCE_ORDER[m.kind, m.reverse], factors))
    _validate(m.kind, named, q)
    return _joined((u, *(named[role] for role in SOURCE_ORDER[m.kind, not m.reverse]), v), q)


def invert_move(m: TimedKnuthMove) -> TimedKnuthMove:
    """The move that undoes m on m's output (same kind, opposite direction).

    Applying m permutes the factor lengths within the region: k1 swaps the
    first two cuts, k2 the last two.
    """
    if m.kind == "k1":
        cuts = (m.cut2, m.cut1, m.cut3)
    else:
        cuts = (m.cut1, m.cut3, m.cut2)
    return TimedKnuthMove(m.kind, m.position, *cuts, reverse=not m.reverse)


def timed_knuth_equivalent(w: TimedWord, w2: TimedWord) -> bool:
    """Decide Knuth equivalence of timed words by insertion-tableau equality
    (exact rational comparison of all rows)."""
    return timed_insertion_tableau(w) == timed_insertion_tableau(w2)


def check_move_invariance(w: TimedWord, m: TimedKnuthMove, r: int) -> bool:
    """True iff the Greene invariants a_1..a_r agree before and after m, each
    side's profile up to r computed by one call of the oracle."""
    w2 = apply_move(w, m)
    return greene_timed_oracle(w, r) == greene_timed_oracle(w2, r)
