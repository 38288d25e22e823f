"""Presets: polynomial shift calculi on C[x]."""

from __future__ import annotations

from ..algebra import Presentation
from ..calculus import DirectionSet
from .catalog import _calculus


def _poly_shift(shifts, name):
    cx = Presentation(["x"], name=name)
    directions = DirectionSet.from_group(shifts, lambda a, b: a + b, 0)
    return cx, _calculus(cx, directions, {label: ({"x": f"x + {i}"}, {"x": f"x - {i}"})
                                          for label, i in shifts.items()})


def _build_S12():
    return _poly_shift({"1": 1, "2": 2}, "poly_shift_S12")[1]


def _build_sym():
    return _poly_shift({"-1": -1, "1": 1}, "poly_shift_sym")[1]
