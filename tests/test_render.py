import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from timed_plactic import (
    embed_classical_tableau,
    insertion_tableau,
    letter_color,
    normalize,
    render_svg,
    timed_insertion_tableau,
)
from timed_plactic.render import PALETTE, _px

from conftest import BIG_TIMED_WORD_TEXT, fraction_px, letters, render_reference, tw, words


class TestRenderSpec:
    """What a render takes besides the object: a scale in px per unit
    duration, 100 by default, which must be positive."""

    def test_defaults(self):
        w = tw(BIG_TIMED_WORD_TEXT)
        assert render_svg(w) == render_svg(w, 100) == render_reference(w, 100)

    def test_validation(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match=f"unit_scale must be positive, got {bad}"):
                render_svg(tw("1^1"), bad)

    def test_palette_cycles(self):
        assert letter_color(1) == PALETTE[0]
        assert letter_color(13) == PALETTE[0]
        assert letter_color(2) != letter_color(3)


class TestPixelFormatting:
    def test_exact_six_digit_decimals(self):
        assert _px(41, 50) == "0.82"
        assert _px(1, 1) == "1"
        assert _px(1, 3) == "0.333333"
        assert _px(0, 7) == "0"
        # ties round half to even, as round() does on a Fraction
        assert _px(1, 2_000_000) == "0"
        assert _px(3, 2_000_000) == "0.000002"
        assert _px(5, 2_000_000) == "0.000002"
        assert _px(2_000_001, 2_000_000) == "1"


# Denominators with ties at six digits (2^7 and up, 5^7 and up) and coprime
# ones, so that the label centres and run edges round every way.
_dens = st.sampled_from([1, 3, 8, 128, 640, 1009, 2**21, 5**8, 2_000_000])
_runs = st.lists(
    st.tuples(letters, st.builds(Fraction, st.integers(1, 3000), _dens)), max_size=6
)


@st.composite
def renderables(draw):
    w = normalize(draw(_runs))
    kind = draw(st.sampled_from(["ribbon", "tableau", "classical"]))
    if kind == "ribbon":
        return w
    if kind == "tableau":
        return timed_insertion_tableau(w)
    return embed_classical_tableau(insertion_tableau(draw(words)))


class TestAgainstFractionReference:
    @given(renderables(), st.integers(1, 1000))
    def test_same_bytes_as_fraction_geometry(self, obj, unit_scale):
        assert render_svg(obj, unit_scale).encode() == render_reference(obj, unit_scale).encode()


class TestRibbon:
    def test_single_run_single_rect(self):
        svg = render_svg(tw("3^1"))
        assert svg.count("<rect") == 1
        assert 'width="100"' in svg

    def test_widths_exactly_proportional(self):
        w = tw(BIG_TIMED_WORD_TEXT)
        svg = render_svg(w)
        widths = re.findall(r'<rect x="[^"]+" y="\d+" width="([0-9.]+)"', svg)
        assert widths == [fraction_px(dur * 100) for _, dur in w.runs]

    def test_deterministic(self):
        w = tw(BIG_TIMED_WORD_TEXT)
        assert render_svg(w).encode() == render_svg(w).encode()


class TestTableauRendering:
    def test_stacked_strips(self):
        t = timed_insertion_tableau(tw(BIG_TIMED_WORD_TEXT))
        svg = render_svg(t)
        # one strip per row, stacked top first at multiples of the row height
        for i in range(len(t.rows)):
            assert f'y="{i * 40}"' in svg
        widths = re.findall(r'<rect x="[^"]+" y="\d+" width="([0-9.]+)"', svg)
        expected = [fraction_px(dur * 100) for row in t.rows for _, dur in row.runs]
        assert widths == expected

    def test_non_renderable_rejected(self):
        with pytest.raises(TypeError):
            render_svg("3^1")
