"""Deterministic SVG rendering of timed words (ribbons) and timed tableaux.

Every run becomes a rectangle whose width is its duration times the unit
scale; a tableau stacks one left-aligned strip per row, top row first.
Geometry is read from the grid (a word's ``letters`` and ``counts``, a
tableau's ``grid``, and the object's ``q``) and stays in integer ticks of
1/q until the final attribute formatting, which writes exact decimals with
six fractional digits, so repeated renders are byte-identical.
"""

from __future__ import annotations

from .errors import _text
from .notation import _TOO_LONG, _refuse_long_result
from .timed_words import TimedWord
from .timed_tableaux import TimedTableau

# Categorical 12-color palette, cycled by letter value.
PALETTE: tuple[str, ...] = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc949",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
)

_ROW_HEIGHT = 40  # px per ribbon or tableau row
_MIN_LABEL_WIDTH = 16  # px below which run labels are omitted


def letter_color(letter: int) -> str:
    return PALETTE[(letter - 1) % len(PALETTE)]


def _px(n: int, q: int) -> str:
    # n/q (n >= 0) as an exact decimal with six fractional digits, trailing
    # zeros trimmed; the last digit is rounded half to even, as round() does.
    scaled, r = divmod(n * 10**6, q)
    if 2 * r > q or (2 * r == q and scaled % 2):
        scaled += 1
    if scaled >= _TOO_LONG:
        _refuse_long_result()
    digits = str(scaled).rjust(7, "0")
    whole, frac = digits[:-6], digits[-6:].rstrip("0")
    return f"{whole}.{frac}" if frac else whole


def render_svg(obj: TimedWord | TimedTableau, unit_scale: int = 100) -> str:
    """Render a ribbon (timed word) or stacked strips (timed tableau);
    ``unit_scale`` is px per unit duration."""
    if isinstance(obj, TimedWord):
        grid = ((obj.letters, obj.counts),)
    elif isinstance(obj, TimedTableau):
        grid = obj.grid
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")
    if unit_scale <= 0:
        raise ValueError(f"unit_scale must be positive, got {_text(unit_scale)}")

    q, rh = obj.q, _ROW_HEIGHT
    width = _px(max((sum(counts) for _, counts in grid), default=0) * unit_scale, q)
    height = len(grid) * rh
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    for i, (letters, counts) in enumerate(grid):
        y = i * rh
        x = 0
        for letter, n in zip(letters, counts):
            parts.append(
                f'<rect x="{_px(x * unit_scale, q)}" y="{y}" width="{_px(n * unit_scale, q)}" '
                f'height="{rh}" fill="{letter_color(letter)}" '
                f'stroke="#333333" stroke-width="1"/>'
            )
            if n * unit_scale >= _MIN_LABEL_WIDTH * q:
                cx = _px((2 * x + n) * unit_scale, 2 * q)
                cy = y + (2 * rh) // 3
                parts.append(
                    f'<text x="{cx}" y="{cy}" font-family="sans-serif" '
                    f'font-size="{rh // 3}" text-anchor="middle" '
                    f'fill="#111111">{letter}</text>'
                )
            x += n
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
