"""Frame-module machinery: matrix commutation rules and the d table."""

import pytest

from nccalc.frame import FrameError, ThetaFrame
from nccalc.presets import load_preset
from nccalc.presets.glpq2 import _gl_frame, _gl_pres


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


def _laurent_frame(comm):
    """A frame over C[x, x^-1] with frame labels t1, t2 and d x = x t1."""
    from nccalc.algebra import Presentation
    pres = Presentation(["x"], invertible=["x"])
    return ThetaFrame(pres, ["t1", "t2"], comm, {"x": {"t1": "x"}})


@pytest.mark.parametrize("build, message", [
    (lambda: _laurent_frame({}), "no commutation matrix for generator x"),
    # the second row is the first: no pivot is left for the second column
    (lambda: _laurent_frame({"x": {("t1", "t1"): "x", ("t1", "t2"): "x",
                                   ("t2", "t1"): "x", ("t2", "t2"): "x"}}),
     "commutation matrix of an invertible generator is not invertible by unit pivots"),
    (lambda: load_preset("glpq2").extras["frame"].theta("t9"), "unknown frame label t9"),
], ids=["no_commutation_matrix", "singular_commutation_matrix", "unknown_label"])
def test_frame_rejects_invalid_input(build, message):
    with pytest.raises(FrameError) as exc:
        build()
    assert (type(exc.value), str(exc.value)) == (FrameError, message)
