"""Deterministic SVG rendering of domains and region tuples.

Exterior boundary arcs of each region are drawn bold in a per-region color;
interior chords are dashed.  All coordinates are emitted with fixed 4-digit
formatting so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import _integer
from .geometry import Arc, PlanarDomain, Segment
from .regions import TupleCandidate, exterior_intervals, interior_chords

_PALETTE = (
    "#c0392b",
    "#2471a3",
    "#1e8449",
    "#b7950b",
    "#884ea0",
    "#d35400",
    "#148f77",
    "#7b241c",
)


def _fmt(v: float) -> str:
    if v == 0.0:
        v = 0.0  # normalise -0.0
    return f"{v:.4f}"


class _Frame:
    """World-to-SVG transform with a flipped y axis."""

    def __init__(self, domain: PlanarDomain, width: int):
        xmin, ymin, xmax, ymax = domain.bbox
        span = max(xmax - xmin, ymax - ymin, 1e-12)
        pad = 0.06 * span  # margin on every side
        self.scale = width / (span + 2 * pad)
        self.x0 = xmin - pad
        self.y0 = ymin - pad
        self.width = width
        self.height = math.ceil((ymax - ymin + 2 * pad) * self.scale)

    def map(self, p) -> tuple[float, float]:
        return (
            (p[0] - self.x0) * self.scale,
            self.height - (p[1] - self.y0) * self.scale,
        )


def _arc_command(frame: _Frame, arc: Arc, t0: float, t1: float) -> str:
    """SVG arc path commands from local arclength t0 to t1 (t1 > t0)."""
    r = arc.radius * frame.scale
    sweep_angle = (t1 - t0) / arc.radius
    # world-ccw becomes clockwise after the y flip
    sweep_flag = 0 if arc.ccw else 1
    parts = []
    # SVG cannot express a full (or near-full) turn in one command
    nseg = 2 if sweep_angle > 1.5 * math.pi else 1
    for i in range(nseg):
        ta = t0 + (t1 - t0) * i / nseg
        tb = t0 + (t1 - t0) * (i + 1) / nseg
        large = 1 if (tb - ta) / arc.radius > math.pi else 0
        x, y = frame.map(arc.point_at_local(tb))
        parts.append(
            f"A {_fmt(r)} {_fmt(r)} 0 {large} {sweep_flag} {_fmt(x)} {_fmt(y)}"
        )
    return " ".join(parts)


def _domain_path(frame: _Frame, domain: PlanarDomain) -> str:
    start = frame.map(domain.edges[0].point_at_local(0.0))
    parts = [f"M {_fmt(start[0])} {_fmt(start[1])}"]
    for edge in domain.edges:
        if isinstance(edge, Segment):
            x, y = frame.map(edge.end)
            parts.append(f"L {_fmt(x)} {_fmt(y)}")
        else:
            parts.append(_arc_command(frame, edge, 0.0, edge.length))
    parts.append("Z")
    return " ".join(parts)


def _walk_path(frame: _Frame, domain: PlanarDomain, s0: float, s1: float) -> str:
    pieces = domain.boundary_pieces(s0, s1)
    if not pieces:
        # a walk too short for arclengths (deep in an anchored chain): a dot
        x, y = frame.map(domain.point_at(s0))
        return f"M {_fmt(x)} {_fmt(y)} L {_fmt(x)} {_fmt(y)}"
    first_edge, t0, _ = pieces[0]
    start = frame.map(domain.edges[first_edge].point_at_local(t0))
    parts = [f"M {_fmt(start[0])} {_fmt(start[1])}"]
    for i, ta, tb in pieces:
        edge = domain.edges[i]
        if isinstance(edge, Segment):
            x, y = frame.map(edge.point_at_local(tb))
            parts.append(f"L {_fmt(x)} {_fmt(y)}")
        else:
            parts.append(_arc_command(frame, edge, ta, tb))
    return " ".join(parts)


def render_svg(
    domain: PlanarDomain,
    candidate: Optional[TupleCandidate] = None,
    *,
    width: int = 640,
) -> str:
    """Render the domain (and optionally a tuple of regions) as an SVG string."""
    frame = _Frame(domain, _integer("width", width, 1))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{frame.width}" '
        f'height="{frame.height}" viewBox="0 0 {frame.width} {frame.height}">',
        f'<path d="{_domain_path(frame, domain)}" fill="#f7f7f2" '
        f'stroke="#222222" stroke-width="1.5"/>',
    ]
    if candidate is not None:
        for idx, region in enumerate(candidate.regions):
            color = _PALETTE[idx % len(_PALETTE)]
            for s0, s1 in exterior_intervals(domain, region):
                lines.append(
                    f'<path d="{_walk_path(frame, domain, s0, s1)}" fill="none" '
                    f'stroke="{color}" stroke-width="4" stroke-linecap="round"/>'
                )
            for s0, s1 in interior_chords(domain, region):
                x1, y1 = frame.map(domain.point_at(s0))
                x2, y2 = frame.map(domain.point_at(s1))
                lines.append(
                    f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                    f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="{color}" '
                    f'stroke-width="1.6" stroke-dasharray="6 5"/>'
                )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
