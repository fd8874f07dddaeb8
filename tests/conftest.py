"""Shared fixtures: a handful of domains the whole suite reuses."""

import functools
import math

import pytest

from escobar.geometry import (
    Arc,
    Segment,
    make_disk,
    make_domain,
    make_polygon,
    make_regular_polygon,
)


@pytest.fixture
def unit_disk():
    return make_disk()


@pytest.fixture
def square():
    # regular 4-gon with circumradius 1, side sqrt(2)
    return make_regular_polygon(4)


@pytest.fixture
def hexagon():
    return make_regular_polygon(6)


@pytest.fixture
def lshape():
    # nonconvex hexagon with one reflex corner at (1, 1)
    return make_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])


@pytest.fixture
def half_disk():
    # one straight edge plus the upper unit semicircle; two right-angle corners
    return make_domain(
        [Segment((-1.0, 0.0), (1.0, 0.0)), Arc((0.0, 0.0), 1.0, 0.0, math.pi)]
    )


def rectangle(w: float, h: float):
    return make_polygon(
        [(-w / 2, -h / 2), (w / 2, -h / 2), (w / 2, h / 2), (-w / 2, h / 2)]
    )


def circular_slice(theta: float):
    # the unit disk's sector between polar angles 0 and theta
    tip = (math.cos(theta), math.sin(theta))
    return make_domain(
        [Segment((0.0, 0.0), (1.0, 0.0)), Arc((0.0, 0.0), 1.0, 0.0, theta),
         Segment(tip, (0.0, 0.0))]
    )


def chord_cut_disk(h: float):
    # the unit disk below the line y = h
    c = math.sqrt(1.0 - h * h)
    return make_domain(
        [Arc((0.0, 0.0), 1.0, math.atan2(h, -c), math.atan2(h, c) + 2.0 * math.pi),
         Segment((c, h), (-c, h))]
    )


def star_hexagon():
    # star-shaped hexagon with a reflex vertex at polar angle 3.579
    polar = [(0.239, 0.968), (1.505, 1.048), (2.364, 0.822),
             (2.582, 1.251), (3.579, 0.525), (5.505, 0.872)]
    return make_polygon([(r * math.cos(a), r * math.sin(a)) for a, r in polar])


def concave_square():
    # unit square whose top side bows inwards: a quarter circle about (0.5, 1.5)
    return make_domain(
        [
            Segment((0.0, 0.0), (1.0, 0.0)),
            Segment((1.0, 0.0), (1.0, 1.0)),
            Arc((0.5, 1.5), math.sqrt(0.5), -math.pi / 4, -3 * math.pi / 4, ccw=False),
            Segment((0.0, 1.0), (0.0, 0.0)),
        ]
    )


#: domains whose edges are all straight or concave arcs, where a cap tuple
#: needs a distinct vertex per cap
NO_CAP_DOMAINS = {
    **{f"D{n}": functools.partial(make_regular_polygon, n) for n in range(3, 9)},
    "quad": lambda: make_polygon([(0.0, 0.0), (3.0, 0.0), (2.6, 1.8), (-0.4, 1.3)]),
    "lshape": lambda: make_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
    "star": star_hexagon,
    "concave-square": concave_square,
}
