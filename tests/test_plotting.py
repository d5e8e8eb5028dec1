"""series_svg: escaped text, and the input it refuses instead of drawing."""

import html
from xml.etree import ElementTree

import numpy as np
import pytest

from hsswitness.errors import InvalidParams
from hsswitness.plotting import _XML_TEXT, series_svg

TAU = np.linspace(0.0, 3.0, 7)
WAVE = np.sin(TAU)


def texts(svg):
    root = ElementTree.fromstring(svg)
    return [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]


def test_title_and_names_are_escaped():
    svg = series_svg(TAU, {"A & B <x>": WAVE, "C>D": WAVE + 1}, title="R&D <v2>")
    found = texts(svg)
    assert found[0] == "R&D <v2>"
    assert found[-2:] == ["A & B <x>", "C>D"]


def test_escape_is_html_escape_without_quotes():
    text = "a & b < c > d \" e ' f &amp;"
    assert text.translate(_XML_TEXT) == html.escape(text, quote=False)


def test_lists_draw_as_arrays():
    assert (series_svg(TAU.tolist(), {"a": WAVE.tolist()}, title="t")
            == series_svg(TAU, {"a": WAVE}, title="t"))


@pytest.mark.parametrize("tau,series,message", [
    (TAU, {}, "needs at least one series"),
    (TAU[:3], {"short": WAVE[:2]}, r"series 'short' has shape \(2,\), tau has \(3,\)"),
    (TAU, {"long": np.append(WAVE, 0.0)}, "series 'long' has shape"),
    (np.zeros(3), {"flat": np.ones(3)}, r"tau\[0\] < tau\[-1\]"),
    (TAU[::-1], {"reversed": WAVE}, r"tau\[0\] < tau\[-1\]"),
    (TAU[:1], {"one": WAVE[:1]}, "finite 1-D grid"),
    (np.array([0.0, np.nan, 1.0]), {"a": np.ones(3)}, "finite 1-D grid"),
    (TAU.reshape(1, -1), {"a": WAVE.reshape(1, -1)}, "finite 1-D grid"),
    (TAU, {"nan": np.where(TAU > 1, np.nan, WAVE)}, "series 'nan' is not finite"),
    (TAU, {"inf": np.where(TAU > 1, np.inf, WAVE)}, "series 'inf' is not finite"),
    (TAU, {"a": np.full(7, 1.7e308), "b": np.full(7, -1.7e308)},
     "value range overflows"),
], ids=["empty", "short", "long", "flat-tau", "reversed-tau", "one-point",
        "nan-tau", "2-d-tau", "nan-value", "inf-value", "overflowing-range"])
def test_bad_input_is_refused(tau, series, message):
    with pytest.raises(InvalidParams, match=message):
        series_svg(tau, series)
