"""Every catalog bundle loads, re-verifies, and passes its fixtures."""

import pkgutil

import pytest

import nccalc
from nccalc.calculus import GradedForm
from nccalc.presets import PRESET_IDS, PresetBundle, PresetError, load_preset
from nccalc.presets import catalog
from nccalc.presets.catalog import make_group_lattice
from nccalc.scalar import Scalar
from nccalc.suites import suite_differentiability


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_preset_fixtures(pid):
    bundle = load_preset(pid)
    rep = bundle.run_fixtures()
    assert rep.ok, f"{pid}:\n{rep.text()}"


def test_catalog_is_complete():
    expected = {
        "poly_shift_S12", "poly_shift_sym", "quantum_plane_a", "quantum_plane_b",
        "quantum_plane_c", "quantum_torus", "heisenberg", "h_plane", "h_plane_r1",
        "z3_root_of_unity", "group_lattice_z3", "group_lattice_s3",
        "twisted_heisenberg_2", "twisted_heisenberg_3", "glpq2",
        "tensor_qplane", "tensor_hplane",
    }
    assert set(PRESET_IDS) == expected


def test_unknown_preset():
    with pytest.raises(PresetError):
        load_preset("no_such_calculus")


def test_preset_loading_reverifies_automorphisms():
    bundle = load_preset("quantum_plane_a")
    for s in bundle.spec.directions.labels:
        m = bundle.spec.phi(s)
        assert m.verified and m.inverse is not None


def test_make_group_lattice_z2xz2():
    # ad(S)S holds trivially for abelian groups; build a fresh lattice
    elems = [(0, 0), (1, 0), (0, 1), (1, 1)]
    mul = lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)
    pres, spec, elements, idx = make_group_lattice(
        "z2xz2", elems, mul, (0, 0), {"a": (1, 0), "b": (0, 1)})
    from nccalc.calculus import differential, d_form
    for g in pres.generators:
        assert d_form(spec, differential(spec, pres.gen(g.name))).is_zero()
    # both directions square to the unit: biangles (a,a), (b,b)
    assert ("a", "a") in spec.directions.biangles
    assert ("b", "b") in spec.directions.biangles


def test_h_plane_r1_matches_h_plane_limit():
    """The twisted r=1 preset agrees with the r-generic preset after r := 1."""
    from nccalc.calculus import differential
    from nccalc.scalar import Scalar

    generic = load_preset("h_plane").spec
    limit = load_preset("h_plane_r1").spec
    at = {"r": Scalar.one(), "t2": Scalar.one()}
    # dx in the generic preset, with t2 = 1 - r cleared first:
    x = generic.pres.gen("x")
    dx = differential(generic, x)
    # substitute t2 := 1 - r, then r := 1
    cleared = dx.substitute_params({"t2": 1 - Scalar.param("r")})
    dx_lim = cleared.substitute_params({"r": Scalar.one()})
    xl = limit.pres.gen("x")
    dxl = differential(limit, xl)
    # compare coefficient by coefficient via string rendering (different
    # presentations, same generator names and normal forms)
    assert sorted((w, str(c)) for w, c in dx_lim.component(1).items()) == \
        sorted((w, str(c)) for w, c in dxl.component(1).items())


def test_z3_quotient_presentation():
    bundle = load_preset("z3_root_of_unity")
    qpres = bundle.extras["quotient"]
    assert qpres.parse("x^3").is_one()
    assert qpres.parse("x^4") == qpres.gen("x")


def test_glpq2_extras_present():
    bundle = load_preset("glpq2")
    assert "frame" in bundle.extras and "thetas" in bundle.extras
    D = bundle.extras["determinant"]
    pres = bundle.presentation
    assert (D * pres.gen("a") - pres.gen("a") * D).is_zero()


# modules a command never uses: the geometry, file and suite layers, the
# GL_pq(2) frame and the preset fixtures
_UNUSED = {"nccalc.geometry", "nccalc.files", "nccalc.suites", "nccalc.frame",
           "nccalc.presets.fixtures"}
_EVERY = {m.name for m in pkgutil.walk_packages(nccalc.__path__, "nccalc.")}
_CLI = ("from nccalc.cli import main\n"
        "try:\n    main([{args}])\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code")
_SHIFT_FILE = ("[generators]\nx\n\n[directions]\nlabels = 1\n\n[automorphisms]\n"
               "1: x -> x + 1\n1 inverse: x -> x - 1\n\n[weights]\n1 = 1\n")


@pytest.mark.parametrize("code, absent", [
    ("import nccalc", _EVERY),
    ("from nccalc.presets import load_preset; load_preset('glpq2')", _UNUSED),
    (_CLI.format(args="'--preset', 'glpq2', 'normalize', 'a'"), _UNUSED),
    (_CLI.format(args="'--file', {calc!r}, 'normalize', 'x'"), _UNUSED - {"nccalc.files"}),
    (_CLI.format(args="'--preset', 'heisenberg', 'verify', '--suite', 'inner'"),
     _UNUSED - {"nccalc.suites"}),
], ids=["import_nccalc", "load_preset", "cli_normalize", "cli_file_normalize",
        "cli_verify_inner"])
def test_glpq2_load_leaves_frame_module_unloaded(code, absent, tmp_path):
    """A load builds the calculus; the frame waits for its first reader, and
    a command imports only the modules it runs."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    calc = tmp_path / "shift.calc"
    calc.write_text(_SHIFT_FILE)
    src = str(Path(nccalc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = code.format(calc=str(calc))
    code += "\nimport sys; print(*sorted(m for m in sys.modules if m.startswith('nccalc.')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert not loaded & absent, sorted(loaded & absent)


def test_identity_atoms_match_direct_calls():
    """Delta(form), d of a form, vartheta and zeta in the fixture rows equal
    the direct calls on every preset with 2-forms, and each atom is nonzero
    somewhere; vartheta and zeta give way to a parameter or generator."""
    from nccalc.calculus import d_form, delta, differential, vartheta
    from nccalc.files import load_calculus
    from nccalc.parsing import parse_with_context
    from nccalc.presets.fixtures import _IdentityCtx

    nonzero = set()
    for pid in PRESET_IDS:
        spec = load_preset(pid).spec
        if spec.two_forms is None:
            continue
        cases = [("vartheta", "vartheta", vartheta(spec)),
                 ("zeta", "zeta", spec.two_forms.zeta_form())]
        thetas = {s: GradedForm.theta(spec, s) for s in spec.directions.labels}
        cases += [("Delta", f"Delta(theta[{s}])", delta(spec, t)) for s, t in thetas.items()]
        for g in spec.pres.generators:
            f = spec.pres.gen(g.name)
            cases.append(("d", f"d({g.name})", differential(spec, f)))
            cases += [("d of a form", f"d({g.name}*theta[{s}])", d_form(spec, f * t))
                      for s, t in thetas.items()]
        for atom, text, want in cases:
            assert parse_with_context(text, _IdentityCtx(spec)) == want, (pid, text)
            if not want.is_zero():
                nonzero.add(atom)
    assert nonzero == {"vartheta", "zeta", "Delta", "d", "d of a form"}

    spec = load_calculus("[params]\nvartheta\n\n" + _SHIFT_FILE.replace("x", "zeta"))
    for name, value in [("zeta", spec.pres.gen("zeta")),
                        ("vartheta", spec.pres.const(Scalar.param("vartheta")))]:
        assert parse_with_context(name, _IdentityCtx(spec)) == GradedForm.from_poly(spec, value)


def test_glpq2_frame_is_built_once_and_shared(monkeypatch):
    frame_builder = catalog._gl_frame
    built = []

    def counting_frame(pres):
        built.append(frame_builder(pres))
        return built[-1]

    monkeypatch.setattr(catalog, "_gl_frame", counting_frame)
    bundle = load_preset.__wrapped__("glpq2")
    assert built == []
    assert bundle.run_fixtures().ok
    assert len(built) == 1
    assert bundle.extras["frame"] is built[0]
    assert bundle.extras["frame"] is bundle.extras["frame"]
    assert bundle.extras["thetas"]["1"].spec is built[0]
    assert len(built) == 1


def test_glpq2_bad_frame_table_fails_the_frame_fixtures(monkeypatch):
    """A broken frame no longer stops the load: its fixtures fail instead."""
    from nccalc.frame import ThetaFrame

    frame_builder = catalog._gl_frame

    def bad_frame(pres):
        good = frame_builder(pres)
        d_images = {"a": {"t1": "a", "t3": "b"},
                    "b": {"t3": "a", "t4": "b"},  # misprinted row
                    "c": {"t1": "c", "t3": "d"},
                    "d": {"t2": "c", "t4": "d"}}
        return ThetaFrame(pres, good.labels, good.comm, d_images)

    monkeypatch.setattr(catalog, "_gl_frame", bad_frame)
    bundle = load_preset.__wrapped__("glpq2")
    failures = bundle.run_fixtures().failures()
    assert [c.path.split(".")[0] for c in failures] == [f"fixture_{i:02d}" for i in range(6)]
    assert all(c.detail.startswith("FrameError: frame tables violate the relations")
               for c in failures)


def test_gl_theta_tilde_move_example():
    # tth^3 a = p a tth^3
    bundle = load_preset("glpq2")
    frame = bundle.extras["frame"]
    pres = bundle.presentation
    moved = frame.move_word(frame.theta("t3"), next(iter(pres.gen("a").terms)))
    assert moved == frame.theta("t3").mul_left(pres.parse("p*a"))


def _shift_calculus_with_11_quadrangle_classes():
    from nccalc.presets.catalog import _poly_shift

    _, spec = _poly_shift({"1": 1, "2": 2, "4": 4, "8": 8, "16": 16}, "poly_shift_1_2_4_8_16")
    assert len(spec.directions.quad_classes) == 11  # classes g0 .. g10
    return spec


def test_serialization_round_trip():
    """serialize -> load -> serialize is a fixpoint, on every preset and on a
    calculus with more than ten quadrangle classes (g10 must load after g9)."""
    from nccalc.files import load_calculus, serialize_calculus
    from nccalc.geometry import torsion_free_conditions

    specs = [(pid, load_preset(pid).spec) for pid in PRESET_IDS]
    specs.append(("shift_1_2_4_8_16", _shift_calculus_with_11_quadrangle_classes()))
    for name, spec in specs:
        text = serialize_calculus(spec)
        spec2 = load_calculus(text)
        assert serialize_calculus(spec2) == text, name
        assert spec2.directions.labels == spec.directions.labels
        assert spec2.mode == spec.mode
        if spec.mode == "automorphism" and spec.directions.classified:
            assert str(torsion_free_conditions(spec2)) == str(torsion_free_conditions(spec)), name
        for g in spec.pres.generators:
            f = spec.pres.gen(g.name)
            f2 = spec2.pres.gen(g.name)
            for s in spec.directions.labels:
                assert str(spec.e(s, f)) == str(spec2.e(s, f2))


# -- phi_s(theta^u) derived by the spec, against independent oracles


@pytest.mark.parametrize("pid", sorted(catalog._LATTICES))
def test_theta_image_is_group_conjugation_on_lattices(pid):
    """R*_s theta^u = theta^{s u s^-1}, computed in the group."""
    elements, mul, unit, directions, _ = catalog._LATTICES[pid]
    spec = load_preset(pid).spec
    oracle = catalog._lattice_theta_images(spec, directions, mul,
                                           catalog._group_inverse(elements, mul, unit))
    labels = spec.directions.labels
    assert {s: {u: spec.theta_image(s, u) for u in labels} for s in labels} == oracle
    if pid == "group_lattice_s3":  # nonabelian: some theta^u really move
        assert spec.theta_image("t12", "t13") == GradedForm.theta(spec, "t23")


def test_theta_image_on_glpq2_scales_theta2():
    """phi_s(theta^2) = r^-1 theta^2 and the other thetas stay fixed."""
    spec = load_preset("glpq2").spec
    r_inv = (Scalar.param("p") * Scalar.param("q")).inverse()
    for s in spec.directions.labels:
        for u in spec.directions.labels:
            want = GradedForm.theta(spec, u)
            assert spec.theta_image(s, u) == (r_inv * want if u == "2" else want)


@pytest.mark.parametrize("pid", [p for p in PRESET_IDS
                                 if p not in catalog._LATTICES and p != "glpq2"])
def test_theta_image_fixed_elsewhere(pid):
    spec = load_preset(pid).spec
    for s in spec.directions.labels:
        for u in spec.directions.labels:
            assert spec.theta_image(s, u) == GradedForm.theta(spec, u)


@pytest.mark.parametrize("pid", ["glpq2", *sorted(catalog._LATTICES)])
def test_differentiability_suite_fixes_vartheta(pid):
    spec = load_preset(pid).spec
    rep = suite_differentiability(spec)
    assert rep.ok, rep.text()
    passed = {c.path for c in rep.checks if c.ok}
    for s in spec.directions.labels:
        assert f"phi_{s}.phi_vartheta_fixed" in passed


@pytest.mark.parametrize("pid, mode", [("glpq2", "first-order"), ("heisenberg", "derived"),
                                       ("group_lattice_s3", "derived"),
                                       ("z3_root_of_unity", "validated"),
                                       ("twisted_heisenberg_2", "validated")])
def test_bundle_reads_id_and_two_forms_mode_from_its_spec(pid, mode):
    bundle = PresetBundle(load_preset(pid).spec)
    assert (bundle.id, bundle.two_forms_mode) == (pid, mode)
    assert load_preset(pid).id == pid
