"""SVG rendering: structure, determinism, region overlays."""

from escobar.regions import Cap, Strip, TupleCandidate, validate_tuple
from escobar.render import render_svg


def test_svg_skeleton(unit_disk):
    svg = render_svg(unit_disk)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert 'xmlns="http://www.w3.org/2000/svg"' in svg
    assert "nan" not in svg and "inf" not in svg


def test_svg_deterministic(square):
    caps = (Cap(0.5, 2.0), Cap(3.0, 5.0))
    tc = TupleCandidate(square, caps)
    assert render_svg(square, tc) == render_svg(square, tc)


def test_disk_outline_uses_two_arcs(unit_disk):
    """A full circle cannot be one SVG arc; the outline splits it in two."""
    svg = render_svg(unit_disk)
    outline = svg.splitlines()[1]
    assert outline.count("A ") == 2


def test_cap_overlay_counts(square):
    caps = (Cap(0.5, 2.0), Cap(3.0, 5.0))
    tc = TupleCandidate(square, caps)
    assert validate_tuple(tc) == []
    svg = render_svg(square, tc)
    # one exterior highlight and one dashed chord per cap
    assert svg.count('stroke-width="4"') == 2
    assert svg.count('stroke-dasharray="6 5"') == 2


def test_strip_overlay_counts(square):
    strip = Strip(inner=Cap(1.0, 2.0), outer=Cap(0.5, 2.5))
    tc = TupleCandidate(square, (strip,))
    assert validate_tuple(tc) == []
    svg = render_svg(square, tc)
    # a strip exposes two exterior runs and two chords
    assert svg.count('stroke-width="4"') == 2
    assert svg.count('stroke-dasharray="6 5"') == 2


def test_no_overlay_without_candidate(hexagon):
    svg = render_svg(hexagon)
    assert 'stroke-width="4"' not in svg
    assert "stroke-dasharray" not in svg


def test_width_parameter(unit_disk):
    svg = render_svg(unit_disk, width=320)
    assert 'width="320"' in svg


def test_half_disk_mixed_boundary(half_disk):
    """Curvilinear boundary renders without degenerate commands."""
    tc = TupleCandidate(half_disk, (Cap(0.3, 1.2),))
    svg = render_svg(half_disk, tc)
    assert svg.count('stroke-width="4"') == 1
    assert "nan" not in svg
