"""Deterministic SVG rendering of timed words (ribbons) and timed tableaux.

Every run becomes a rectangle whose width is its duration times the unit
scale; a tableau stacks one left-aligned strip per row, top row first.
Geometry stays rational until the final attribute formatting, which renders
exact decimals with six fractional digits, so repeated renders are
byte-identical.
"""

from __future__ import annotations

from fractions import Fraction

from .classical import _Value
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


class RenderSpec(_Value):
    """``target`` is "ribbon" or "tableau"; ``unit_scale`` is px per unit duration."""

    _fields = ("target", "unit_scale")

    def __init__(self, target: str = "ribbon", unit_scale: int = 100):
        self.__dict__.update(target=target, unit_scale=unit_scale)
        if target not in ("ribbon", "tableau"):
            raise ValueError(f"target must be 'ribbon' or 'tableau', got {target!r}")
        if unit_scale <= 0:
            raise ValueError(f"unit_scale must be positive, got {unit_scale}")


def letter_color(letter: int) -> str:
    return PALETTE[(letter - 1) % len(PALETTE)]


def _px(value: Fraction) -> str:
    # Exact decimal with six fractional digits (trailing zeros trimmed).
    scaled = round(Fraction(value) * 10**6)
    if abs(scaled) >= _TOO_LONG:
        _refuse_long_result()
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(7, "0")
    whole, frac = digits[:-6], digits[-6:].rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def render_svg(obj: TimedWord | TimedTableau, spec: RenderSpec | None = None) -> str:
    """Render a ribbon (timed word) or stacked strips (timed tableau)."""
    if isinstance(obj, TimedWord):
        rows: tuple[TimedWord, ...] = (obj,)
        expected = "ribbon"
    elif isinstance(obj, TimedTableau):
        rows = obj.rows
        expected = "tableau"
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")
    if spec is None:
        spec = RenderSpec(target=expected)
    elif spec.target != expected:
        raise ValueError(f"spec targets {spec.target!r} but object is a {expected}")

    scale = Fraction(spec.unit_scale)
    rh = _ROW_HEIGHT
    width = max((row.length for row in rows), default=Fraction(0)) * scale
    height = len(rows) * rh
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_px(width)}" '
        f'height="{height}" viewBox="0 0 {_px(width)} {height}">'
    ]
    for i, row in enumerate(rows):
        y = i * rh
        x = Fraction(0)
        for letter, dur in row.runs:
            w_px = dur * scale
            parts.append(
                f'<rect x="{_px(x * scale)}" y="{y}" width="{_px(w_px)}" '
                f'height="{rh}" fill="{letter_color(letter)}" '
                f'stroke="#333333" stroke-width="1"/>'
            )
            if w_px >= _MIN_LABEL_WIDTH:
                cx = (x + dur / 2) * scale
                cy = y + (2 * rh) // 3
                parts.append(
                    f'<text x="{_px(cx)}" y="{cy}" font-family="sans-serif" '
                    f'font-size="{rh // 3}" text-anchor="middle" '
                    f'fill="#111111">{letter}</text>'
                )
            x += dur
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
