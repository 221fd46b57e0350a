import math
import re
import xml.etree.ElementTree as ET

import pytest

from cotypelab import (
    EmptySeriesError,
    PreconditionViolationError,
    emit_plot,
)

SERIES = [("curve-a", [(1.0, 1.0), (2.0, 4.0), (3.0, 9.0)]),
          ("curve-b", [(1.0, 2.0), (3.0, 2.5)])]


def test_emit_plot_well_formed_svg(tmp_path):
    path = str(tmp_path / "plot.svg")
    out = emit_plot(SERIES, path, title="squares", xlabel="x", ylabel="y")
    assert out == path
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    text = open(path).read()
    assert "curve-a" in text and "curve-b" in text
    assert "squares" in text
    assert "<polyline" in text


def test_emit_plot_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    emit_plot(SERIES, p1, title="t")
    emit_plot(SERIES, p2, title="t")
    assert open(p1).read() == open(p2).read()


def test_single_point_series(tmp_path):
    path = str(tmp_path / "dot.svg")
    emit_plot([("only", [(1.0, 1.0)])], path)
    text = open(path).read()
    assert "<circle" in text
    assert "<polyline" not in text
    ET.parse(path)  # still valid XML


def test_reference_line(tmp_path):
    path = str(tmp_path / "ref.svg")
    emit_plot(SERIES, path, reference=("ceiling", 5.0))
    text = open(path).read()
    assert "ceiling" in text
    assert "stroke-dasharray" in text


def test_degenerate_ranges_padded(tmp_path):
    path = str(tmp_path / "flat.svg")
    emit_plot([("flat", [(1.0, 2.0), (2.0, 2.0)])], path)
    ET.parse(path)
    path = str(tmp_path / "tall.svg")
    emit_plot([("tall", [(1.0, 1.0), (1.0, 5.0)])], path)
    ET.parse(path)


def test_empty_series_rejected(tmp_path):
    with pytest.raises(EmptySeriesError):
        emit_plot([], str(tmp_path / "no.svg"))
    with pytest.raises(EmptySeriesError):
        emit_plot([("empty", [])], str(tmp_path / "no.svg"))


def test_non_finite_rejected(tmp_path):
    with pytest.raises(PreconditionViolationError):
        emit_plot([("bad", [(0.0, math.nan)])], str(tmp_path / "no.svg"))
    with pytest.raises(PreconditionViolationError):
        emit_plot([("bad", [(math.inf, 0.0)])], str(tmp_path / "no.svg"))


def test_labels_escaped(tmp_path):
    path = str(tmp_path / "esc.svg")
    emit_plot([("a<b>&c", [(0.0, 0.0), (1.0, 1.0)])], path,
              title="x < y & z")
    ET.parse(path)  # escaping keeps the document parseable
    assert "a&lt;b&gt;&amp;c" in open(path).read()


@pytest.mark.parametrize("series,named", [
    ([{"label": "a", "points": [(1.0, 2.0)]}], "series entry"),
    ([("a", [(1.0, 2.0, 3.0)])], "(1.0, 2.0, 3.0)"),
    ([("a", [(1.0, 2.0)], "extra")], "series entry"),
    ([("a", [7.0])], "7.0"),
])
def test_malformed_series_is_a_precondition_error(tmp_path, series, named):
    with pytest.raises(PreconditionViolationError, match=re.escape(named)):
        emit_plot(series, str(tmp_path / "bad.svg"))
