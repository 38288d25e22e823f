"""Frame-module machinery: matrix commutation rules and the d table."""

import pytest

from nccalc.frame import FrameError, ThetaFrame
from nccalc.presets import load_preset
from nccalc.presets.catalog import _gl_frame, _gl_pres


def test_frame_tables_respect_relations():
    pres = _gl_pres("gl_check")
    frame = _gl_frame(pres)
    assert frame.verify().ok


def test_inconsistent_d_table_rejected():
    # swapping the second column of the d table (d b = a tth3 + b tth4
    # instead of a tth2 + b tth4) breaks well-definedness on the relations
    pres = _gl_pres("gl_bad")
    good = _gl_frame(pres)
    comm = {g.name: dict(good.comm[g.name]) for g in pres.generators}
    bad_d = {"a": {"t1": "a", "t3": "b"},
             "b": {"t3": "a", "t4": "b"},  # misprinted row
             "c": {"t1": "c", "t3": "d"},
             "d": {"t2": "c", "t4": "d"}}
    with pytest.raises(FrameError):
        ThetaFrame(pres, ["t1", "t2", "t3", "t4"], comm, bad_d)


def test_frame_move_is_multiplicative():
    bundle = load_preset("glpq2")
    frame = bundle.extras["frame"]
    pres = bundle.presentation
    f = pres.parse("a*b")
    th = frame.theta("t1")
    one_step = frame.move_word(th, next(iter(pres.gen("a").terms)))
    via_b = one_step.mul_right(pres.gen("b"))
    assert th.mul_right(f) == via_b


def test_frame_inverse_letters():
    bundle = load_preset("glpq2")
    frame = bundle.extras["frame"]
    pres = bundle.presentation
    th = frame.theta("t1")
    round_trip = th.mul_right(pres.gen("b")).mul_right(pres.gen("b", -1))
    assert round_trip == th


def test_frame_form_text_is_pinned():
    bundle = load_preset("glpq2")
    frame = bundle.extras["frame"]
    moved = frame.theta("t1").mul_right(bundle.presentation.parse("a*b+c"))
    assert str(moved) == (
        "(p*q*c + p*q*a*b)*t1 + ((p^2*q^2 - p*q)*a^2)*t2"
        " + ((p*q - 1)*d + (p^2*q - p)*b^2)*t3"
        " + ((p^3*q^3 - p^2*q^2 - p*q + 1)/(p*q)*a*b)*t4")
