"""Connections, torsion, curvature, the L-tensor product, metrics."""

import gc
import itertools
import random
import weakref

import pytest

from nccalc.algebra import _acc
from nccalc.calculus import CalculusError, GradedForm, d_form, differential, vartheta
from nccalc.geometry import (Connection, LTensor, Metric, TensorA, WedgeTensor, curvature,
                             invariant_monomial_scan, levi_civita_check,
                             metric_compatibility, metric_invariance_conditions,
                             monomial_scaling, nabla_on_tensor, nabla_one_form, torsion,
                             torsion_free_conditions, transport_theta)
from nccalc.presets import load_preset
from nccalc.scalar import Scalar, params
from nccalc.suites import random_poly


def spec_of(pid):
    return load_preset(pid).spec


def theta(spec, *labels):
    return GradedForm.theta(spec, *labels)


# -- the second torsion route: Theta = d - pi o nabla


def transport_one_form(spec, conn, s, alpha):
    """V_s on a 1-form: V_s(f E) = phi_s^-1(f) V_s(E)."""
    if set(alpha.degrees()) - {1}:
        raise CalculusError("transport expects a 1-form")
    out = GradedForm.zero(spec)
    for (sp,), f in alpha.component(1).items():
        out = out + spec.phi_inv(s).apply(f) * transport_theta(spec, conn, s, sp)
    return out


def wedge_projection(spec, t):
    """The canonical projection onto 2-forms."""
    if any(len(w) != 2 for w in t.comps):
        raise CalculusError("projection expects a 2-tensor")
    return GradedForm._build(spec, t.comps)


def torsion_of_form(spec, conn, alpha):
    """Theta(alpha) = d alpha - pi(nabla alpha); cross-check path."""
    return d_form(spec, alpha) - wedge_projection(spec, nabla_one_form(spec, conn, alpha))


def _nabla_reference(spec, conn, alpha):
    """nabla(alpha) = vartheta (x) alpha - sum_s theta^s (x) V_s(alpha), each
    coefficient of V_s(alpha) moved left through phi_s."""
    comps = {}
    for (u,), lam in vartheta(spec).component(1).items():
        for (v,), f in alpha.component(1).items():
            _acc(comps, (u, v), lam * spec.phi(u).apply(f))
    for s in spec.directions.labels:
        for (v,), f in transport_one_form(spec, conn, s, alpha).component(1).items():
            _acc(comps, (s, v), -spec.phi(s).apply(f))
    return TensorA(spec, comps)


# -- nabla


def test_nabla_zero_connection_is_vartheta_tensor():
    spec = spec_of("quantum_plane_a")
    conn = Connection.zero(spec)
    for s in spec.directions.labels:
        got = nabla_one_form(spec, conn, theta(spec, s))
        th = vartheta(spec)
        want = TensorA(spec, {(u, s): c for (u,), c in th.component(1).items()})
        assert got == want


def test_nabla_leibniz():
    rng = random.Random(2)
    for pid in ["quantum_plane_a", "heisenberg"]:
        spec = spec_of(pid)
        conn = Connection(spec, {("1", "2", "1"): "1", ("2", "1", "2"): "2"})
        for _ in range(10):
            f = random_poly(spec.pres, rng)
            alpha = theta(spec, rng.choice(spec.directions.labels))
            lhs = nabla_one_form(spec, conn, f * alpha)
            df = differential(spec, f)
            want = nabla_one_form(spec, conn, alpha).mul_left(f) + TensorA(
                spec, {(u, s): c for (u,), c in df.component(1).items()
                       for (s,), _ in alpha.component(1).items()})
            assert lhs == want


def test_transport_twisted_left_linearity():
    rng = random.Random(3)
    spec = spec_of("quantum_plane_a")
    conn = Connection(spec, {("1", "1", "2"): "x", ("2", "2", "1"): "y"})
    for _ in range(15):
        f = random_poly(spec.pres, rng)
        s = rng.choice(spec.directions.labels)
        sp = rng.choice(spec.directions.labels)
        lhs = transport_one_form(spec, conn, s, f * theta(spec, sp))
        rhs = transport_theta(spec, conn, s, sp).mul_left(spec.phi_inv(s).apply(f))
        assert lhs == rhs


# -- torsion


def test_torsion_conditions_quantum_plane_exact():
    spec = spec_of("quantum_plane_a")
    conds = torsion_free_conditions(spec)
    got = sorted(str(eq) for eq in conds.equations)
    assert got == ["V[1,2,1] = V[1,1,2] + 1", "V[2,2,1] = V[2,1,2] - 1"]
    assert all(eq.category == "quadrangle" for eq in conds.equations)


@pytest.mark.parametrize("pid", ["quantum_plane_a", "group_lattice_s3", "poly_shift_sym"])
def test_torsion_conditions_are_built_once_per_spec(pid):
    from nccalc.geometry import _torsion_free_conditions
    spec = spec_of(pid)
    conds = torsion_free_conditions(spec)
    assert torsion_free_conditions(spec) is conds
    assert conds == _torsion_free_conditions(spec)


def test_torsion_conditions_group_lattice_delta_solution():
    # V^s_{s',s''} = (delta^s_{s's''} - delta^s_{s'}) 1 solves all classes
    spec = spec_of("group_lattice_s3")
    d = spec.directions
    entries = {}
    for s in d.labels:
        for (u, v) in d.biangles:
            entries[(s, u, v)] = -1 if u == s else 0
        for (u, v), target in d.triangles.items():
            entries[(s, u, v)] = (1 if target == s else 0) - (1 if u == s else 0)
        for cls in d.quad_classes:
            for (u, v) in cls:
                entries[(s, u, v)] = -1 if u == s else 0
    conn = Connection(spec, {k: v for k, v in entries.items() if v})
    assert torsion_free_conditions(spec).check(conn).ok
    tor = torsion(spec, conn)
    assert all(t.is_zero() for t in tor.values())


def test_torsion_conditions_pure_triangle_group_empty_quadrangle_set():
    spec = spec_of("group_lattice_z3")  # Z_3 with S = {1,2}: no quadrangles
    conds = torsion_free_conditions(spec)
    assert all(eq.category in ("biangle", "triangle") for eq in conds.equations)


def test_biangle_torsion_vanishing_values():
    # poly_shift_sym has biangles (1,-1), (-1,1): V^s_{u,v} = -delta^s_u
    spec = spec_of("poly_shift_sym")
    conds = torsion_free_conditions(spec)
    biangle = [eq for eq in conds.equations if eq.category == "biangle"]
    assert biangle
    entries = {}
    for s in spec.directions.labels:
        for (u, v) in spec.directions.biangles:
            if u == s:
                entries[(s, u, v)] = -1
    conn = Connection(spec, entries)
    for eq in biangle:
        assert eq.residue(conn).is_zero()


def test_torsion_zero_iff_conditions_hold():
    spec = spec_of("quantum_plane_a")
    good = Connection(spec, {("1", "2", "1"): "1", ("2", "2", "1"): "-1"})
    assert torsion_free_conditions(spec).check(good).ok
    assert all(t.is_zero() for t in torsion(spec, good).values())
    bad = Connection(spec, {("1", "2", "1"): "2"})
    assert not torsion_free_conditions(spec).check(bad).ok
    assert not all(t.is_zero() for t in torsion(spec, bad).values())


def test_torsion_condition_checks_format_only_failing_equations():
    """Each check's path is its index and category; a failing check names
    its equation and residue, and a passing one keeps no detail parts."""
    spec = spec_of("quantum_plane_a")
    conds = torsion_free_conditions(spec)
    bad = Connection(spec, {("1", "2", "1"): "2"})
    rep = conds.check(bad)
    assert [c.path for c in rep.checks] == [f"{i}.{eq.category}"
                                            for i, eq in enumerate(conds.equations)]
    assert rep.failures() and all(c.parts == () for c in rep.checks if c.ok)
    for c in rep.failures():
        eq = conds.equations[int(c.path.split(".")[0])]
        assert c.detail == f"{eq}; residue {eq.residue(bad)}"


def test_torsion_agrees_with_definition_path():
    spec = spec_of("poly_shift_S12")
    conn = Connection(spec, {("1", "1", "2"): "x", ("2", "2", "2"): "1"})
    tor = torsion(spec, conn)
    for s in spec.directions.labels:
        assert tor[s] == torsion_of_form(spec, conn, theta(spec, s))


def test_torsion_sign_rule_on_prefixed_forms():
    # Theta(omega (x) alpha) = (-1)^r omega Theta(alpha) for degree-1 omega:
    # expanding Theta = d o pi - pi o nabla on omega (x) alpha gives
    # d(omega alpha) - pi(d omega (x) alpha - omega nabla alpha)
    from nccalc.calculus import d_form

    rng = random.Random(31)
    spec = spec_of("quantum_plane_a")
    conn = Connection(spec, {("1", "1", "2"): "x", ("2", "2", "1"): "y"})
    for _ in range(10):
        f = random_poly(spec.pres, rng, max_len=1)
        omega = f * theta(spec, rng.choice(spec.directions.labels))
        alpha = theta(spec, rng.choice(spec.directions.labels))
        nb = nabla_one_form(spec, conn, alpha)
        # pi(nabla(omega (x) alpha)) = pi(d omega (x) alpha) - omega ^ pi(nabla alpha)
        projected = GradedForm.zero(spec)
        dom = d_form(spec, omega)
        for pair, c in dom.component(2).items():
            a_part = alpha.component(1)
            for (v,), av in a_part.items():
                moved = spec.phi_word(pair, av)
                projected = projected + (c * moved) * theta(spec, *pair, v)
        projected = projected - omega.wedge(wedge_projection(spec, nb))
        lhs = d_form(spec, omega.wedge(alpha)) - projected
        rhs = -omega.wedge(torsion_of_form(spec, conn, alpha))
        assert lhs == rhs


def test_torsion_V_zero_nonzero_quantum_plane():
    spec = spec_of("quantum_plane_a")
    tor = torsion(spec, Connection.zero(spec))
    assert tor["1"] == theta(spec, "1", "2")  # theta^1 vartheta reduced
    assert not tor["2"].is_zero()


# -- curvature


def test_curvature_zero_connection_quantum_plane():
    spec = spec_of("quantum_plane_a")
    conn = Connection.zero(spec)
    for s in spec.directions.labels:
        assert curvature(spec, conn, theta(spec, s)).is_zero()


def test_curvature_left_linear():
    rng = random.Random(6)
    spec = spec_of("poly_shift_S12")
    conn = Connection(spec, {("1", "1", "1"): "x", ("2", "2", "1"): "1 - x"})
    for _ in range(8):
        f = random_poly(spec.pres, rng, max_len=1)
        alpha = theta(spec, rng.choice(spec.directions.labels))
        assert curvature(spec, conn, f * alpha) == \
            curvature(spec, conn, alpha).mul_left(f)


def test_curvature_zero_form():
    spec = spec_of("quantum_plane_a")
    conn = Connection(spec, {("1", "1", "1"): "x"})
    assert curvature(spec, conn, GradedForm.zero(spec)).is_zero()


# -- curvature against the per-coefficient extension


GEOMETRY_PRESETS = ("group_lattice_s3", "h_plane", "heisenberg", "quantum_torus",
                    "tensor_hplane", "group_lattice_z3", "poly_shift_S12", "poly_shift_sym",
                    "quantum_plane_a", "quantum_plane_b", "quantum_plane_c", "tensor_qplane")


def _nabla_on_tensor_reference(spec, conn, t):
    """nabla(omega (x) E) = d omega (x) E - omega nabla(E), one d and one
    wedge per coefficient f theta^u (x) theta^v, nabla(theta^v) recomputed."""
    comps = {}
    nablas = {v: nabla_one_form(spec, conn, theta(spec, v))
              for v in sorted({v for _, v in t.comps})}
    for (u, v), f in t.comps.items():
        omega = f * theta(spec, u)
        for pair, c in d_form(spec, omega).component(2).items():
            _acc(comps, (pair, v), c)
        for (w, z), g in nablas[v].comps.items():
            for pair, c in omega.wedge(g * theta(spec, w)).component(2).items():
                _acc(comps, (pair, z), -c)
    return WedgeTensor(spec, comps)


def _random_connection(spec, rng, torsion_free):
    """A few random entries; torsion-free solves each torsion-free equation
    for a key that no other equation uses."""
    pres = spec.pres

    def rand():
        return random_poly(pres, rng, max_len=1, terms=2)

    keys = list(itertools.product(spec.directions.labels, repeat=3))
    entries = {k: rand() for k in rng.sample(keys, 3)}
    if torsion_free:
        equations = torsion_free_conditions(spec).equations
        uses = {}
        for eq in equations:
            for key, _ in eq.terms:
                uses[key] = uses.get(key, 0) + 1
        for eq in equations:
            target, tc = min(eq.terms, key=lambda kc: uses[kc[0]])
            acc = pres.const(eq.const)
            for key, c in eq.terms:
                if key != target:
                    acc = acc + entries.setdefault(key, rand()) * c
            entries[target] = acc * (-tc.inverse())
    conn = Connection(spec, entries)
    assert all(t.is_zero() for t in torsion(spec, conn).values()) == torsion_free
    return conn


@pytest.mark.parametrize("pid", GEOMETRY_PRESETS)
def test_nabla_on_tensor_against_per_coefficient_reference(pid):
    spec = spec_of(pid)
    labels = spec.directions.labels
    rng = random.Random(pid)
    for torsion_free in (True, False):
        conn = _random_connection(spec, rng, torsion_free)
        s, u = rng.sample(labels, 2)
        f, g = random_poly(spec.pres, rng), random_poly(spec.pres, rng)
        alphas = [*(theta(spec, v) for v in labels), f * theta(spec, s),
                  theta(spec, s) + g * theta(spec, u), GradedForm.zero(spec)]
        for alpha in alphas:
            want = _nabla_on_tensor_reference(spec, conn, nabla_one_form(spec, conn, alpha))
            assert nabla_on_tensor(spec, conn, nabla_one_form(spec, conn, alpha)) == want
            assert curvature(spec, conn, alpha) == -want
        slots = {(rng.choice(labels), v): random_poly(spec.pres, rng)
                 for v in labels for _ in range(2)}
        t = TensorA(spec, slots)
        assert len({v for _, v in t.comps}) > 1
        assert nabla_on_tensor(spec, conn, t) == _nabla_on_tensor_reference(spec, conn, t)


def test_nabla_theta_memo_is_per_connection():
    spec = spec_of("quantum_plane_a")
    labels = spec.directions.labels
    first = Connection.zero(spec)
    second = Connection(spec, {("1", "1", "2"): "x", ("2", "2", "1"): "y"})
    for s in labels:
        curvature(spec, first, theta(spec, s))
    for s in labels:
        alpha = theta(spec, s)
        want = -_nabla_on_tensor_reference(spec, second, nabla_one_form(spec, second, alpha))
        assert curvature(spec, second, alpha) == want
        assert second.nabla_theta(s) == nabla_one_form(spec, second, alpha)


def test_curvature_repeats_and_nabla_theta_memo_is_bounded():
    spec = spec_of("group_lattice_z3")
    labels = spec.directions.labels
    conn = _random_connection(spec, random.Random(9), torsion_free=False)
    first = {s: curvature(spec, conn, theta(spec, s)) for s in labels}
    for _ in range(2):
        assert {s: curvature(spec, conn, theta(spec, s)) for s in labels} == first
    assert len(conn._nabla_theta) <= len(labels)


@pytest.mark.parametrize("pid", GEOMETRY_PRESETS)
def test_nabla_one_form_against_phi_reference(pid):
    """The transport part summed as f_v V[v,s,s''] equals the formula that
    moves phi_s^-1 coefficients back through phi_s."""
    spec = spec_of(pid)
    labels = spec.directions.labels
    rng = random.Random(f"nabla {pid}")
    for torsion_free in (True, False):
        conn = _random_connection(spec, rng, torsion_free)
        s, u = rng.sample(labels, 2)
        f, g = random_poly(spec.pres, rng), random_poly(spec.pres, rng)
        alphas = [*(theta(spec, v) for v in labels), f * theta(spec, s),
                  theta(spec, s) + g * theta(spec, u)]
        for alpha in alphas:
            assert nabla_one_form(spec, conn, alpha) == _nabla_reference(spec, conn, alpha)
        for v in labels:
            assert conn.nabla_theta(v) == _nabla_reference(spec, conn, theta(spec, v))


@pytest.mark.parametrize("pid", GEOMETRY_PRESETS)
def test_metric_compatibility_components_against_unhoisted_sum(pid):
    """Each component check, with its verdict and detail, against
    sum_{s',s''} g[s',s''] V[s',s,s1] V[s'',s,s2] summed term by term."""
    spec = spec_of(pid)
    labels = spec.directions.labels
    rng = random.Random(f"compatibility {pid}")
    for torsion_free in (True, False):
        conn = _random_connection(spec, rng, torsion_free)
        g = Metric(spec, {(a, b): random_poly(spec.pres, rng, max_len=1, terms=2)
                          for a in labels for b in labels})
        want = []
        for s, s1, s2 in itertools.product(labels, repeat=3):
            lhs = spec.phi(s).apply(g.entry(s1, s2))
            rhs = spec.pres.zero
            for sp, spp in itertools.product(labels, repeat=2):
                rhs = rhs + g.entry(sp, spp) * conn.entry(sp, s, s1) * conn.entry(spp, s, s2)
            ok = lhs == rhs
            if not ok or not g.entry(s1, s2).is_zero():
                detail = "" if ok else f"phi(g) = {lhs}, sum g V V = {rhs}"
                want.append((f"component.{s}.g[{s1},{s2}]", ok, detail))
        rep = metric_compatibility(spec, conn, g)
        got = [(c.path, c.ok, c.detail) for c in rep.checks if c.path.startswith("component.")]
        assert got == want


def test_transport_table_is_per_connection():
    spec = spec_of("quantum_plane_a")
    labels = spec.directions.labels
    first = Connection.zero(spec)
    second = Connection(spec, {("1", "1", "2"): "x", ("2", "2", "1"): "y",
                               ("1", "2", "1"): "1 + x*y"})
    torsion(spec, first)
    for s, sp in itertools.product(labels, repeat=2):
        assert transport_theta(spec, first, s, sp).is_zero()
    for s, sp in itertools.product(labels, repeat=2):
        want = GradedForm(spec, {(spp,): spec.phi_inv(s).apply(second.entry(sp, s, spp))
                                 for spp in labels})
        assert transport_theta(spec, second, s, sp) == want
    tor = torsion(spec, second)
    for s in labels:
        assert tor[s] == torsion_of_form(spec, second, theta(spec, s))


@pytest.mark.parametrize("pid", GEOMETRY_PRESETS)
def test_torsion_against_definition_path(pid):
    """Theta(theta^s) summed as V[s,s',s''] theta^s' theta^s'' equals
    d theta^s - pi(nabla theta^s)."""
    spec = spec_of(pid)
    rng = random.Random(f"torsion {pid}")
    for torsion_free in (True, False):
        conn = _random_connection(spec, rng, torsion_free)
        tor = torsion(spec, conn)
        assert list(tor) == list(spec.directions.labels)
        for s in spec.directions.labels:
            assert tor[s] == torsion_of_form(spec, conn, theta(spec, s))


def test_torsion_applies_no_automorphism(monkeypatch):
    from nccalc.algebra import AlgebraMorphism
    from nccalc.geometry import _torsion_part
    spec = spec_of("group_lattice_s3")
    conn = _random_connection(spec, random.Random(11), torsion_free=False)
    want = {s: torsion_of_form(spec, conn, theta(spec, s)) for s in spec.directions.labels}
    _torsion_part(spec)
    calls = []
    apply = AlgebraMorphism.apply
    monkeypatch.setattr(AlgebraMorphism, "apply",
                        lambda self, p: calls.append(p) or apply(self, p))
    assert torsion(spec, conn) == want
    assert calls == []


@pytest.mark.parametrize("pid", GEOMETRY_PRESETS)
def test_torsion_part_is_zero_connection_torsion_built_once(pid):
    from nccalc.geometry import _torsion_part
    spec = spec_of(pid)
    part = _torsion_part(spec)
    torsion(spec, _random_connection(spec, random.Random(pid), torsion_free=False))
    assert _torsion_part(spec) is part
    assert part == torsion(spec, Connection.zero(spec))
    th = vartheta(spec)
    assert part == {s: theta(spec, s).wedge(th) - spec.two_forms.delta_theta(s)
                    for s in spec.directions.labels}


def test_dropped_connection_is_freed_without_the_cyclic_collector():
    spec = spec_of("quantum_plane_a")
    conn = _random_connection(spec, random.Random(5), torsion_free=False)
    for s in spec.directions.labels:
        curvature(spec, conn, theta(spec, s))
    metric_compatibility(spec, conn, Metric(spec, {("1", "2"): 1, ("2", "1"): 1}))
    assert conn._nabla_theta
    ref = weakref.ref(conn)
    gc.disable()
    try:
        del conn
        assert ref() is None
    finally:
        gc.enable()


# -- tensor_L


def test_tensor_L_coefficient_rule():
    spec = spec_of("quantum_plane_a")
    rng = random.Random(7)
    for _ in range(10):
        f = random_poly(spec.pres, rng)
        fp = random_poly(spec.pres, rng)
        s = rng.choice(spec.directions.labels)
        u = rng.choice(spec.directions.labels)
        lhs = LTensor(spec, {(s,): f}).tensor(LTensor(spec, {(u,): fp}))
        assert lhs == LTensor(spec, {(s, u): f * fp})


def test_tensor_L_associative_random():
    rng = random.Random(8)
    spec = spec_of("glpq2")
    labels = spec.directions.labels
    for _ in range(20):
        ts = [LTensor(spec, {(rng.choice(labels),): random_poly(spec.pres, rng, 1, 1)})
              for _ in range(3)]
        assert ts[0].tensor(ts[1]).tensor(ts[2]) == ts[0].tensor(ts[1].tensor(ts[2]))


def test_label_containers_drop_zeros_and_compare_by_type():
    spec = spec_of("quantum_plane_a")
    c = {("1", "2"): spec.pres.parse("x"), ("2", "1"): spec.pres.zero}
    t, lt = TensorA(spec, c), LTensor(spec, c)
    assert t.comps == lt.comps == {("1", "2"): spec.pres.parse("x")}
    assert t != lt and not t == lt
    assert (t - t).is_zero() and str(t - t) == "0"
    assert str(t) == "(x) theta[1] (x) theta[2]"
    assert str(lt) == "(x) theta[1] (x)L theta[2]"


# -- metrics


def test_metric_invariance_glpq2_scaling_classes():
    spec = spec_of("glpq2")
    pres = spec.pres
    g = Metric(spec, {("1", "1"): "1", ("2", "2"): "a^2", ("2", "1"): "a",
                      ("1", "2"): "a"})
    rep = metric_invariance_conditions(spec, g)
    assert rep.ok, rep.text()
    # and the required multipliers are the three classes 1, r, r^2
    from nccalc.geometry import invariance_scaling_targets
    targets = invariance_scaling_targets(spec)
    p, q = params("p q")
    r = p * q
    for s in spec.directions.labels:
        assert targets[(s, "2", "2")] == r * r
        assert targets[(s, "2", "1")] == r
        assert targets[(s, "1", "1")] == Scalar.one()


def test_metric_invariance_trivial():
    spec = spec_of("heisenberg")  # all theta scalings 1, phi fixes constants
    g = Metric(spec, {(a, b): 1 for a in ("1", "2") for b in ("1", "2")})
    assert metric_invariance_conditions(spec, g).ok


def test_metric_symmetry_flag():
    spec = spec_of("heisenberg")
    Metric(spec, {("1", "2"): "x", ("2", "1"): "x"}, symmetric=True)
    from nccalc.calculus import CalculusError
    with pytest.raises(CalculusError):
        Metric(spec, {("1", "2"): "x"}, symmetric=True)


def test_monomial_scan_glpq2_finds_invariants():
    spec = spec_of("glpq2")
    found = invariant_monomial_scan(spec, exponent_bound=3)
    assert ("2", "2") in found and found[("2", "2")]
    # a^2 scales by r^2 under every phi_s
    a2 = spec.pres.parse("a^2")
    assert any(m == a2 for m in found[("2", "2")])
    # the derived quantum determinant scales by r, so a*D fits g_22 as well
    p, q = params("p q")
    D = spec.pres.parse("a*d - p*b*c")
    for s in spec.directions.labels:
        assert monomial_scaling(spec, s, D) == p * q
        assert monomial_scaling(spec, s, spec.pres.gen("a") * D) == (p * q) ** 2


def test_metric_compatibility_identity_connection_fixed_metric():
    spec = spec_of("quantum_plane_a")
    ident = Connection(spec, {(s, u, s): 1 for s in ("1", "2") for u in ("1", "2")})
    g = Metric(spec, {("1", "2"): 1, ("2", "1"): 1})
    rep = metric_compatibility(spec, ident, g)
    assert rep.ok, rep.text()


def test_metric_compatibility_matrix_form_central_case():
    # central coefficients: phi_s(g) = V_s^T g V_s
    spec = spec_of("poly_shift_S12")
    conn = Connection(spec, {("1", "1", "1"): 2, ("2", "1", "2"): 1,
                             ("1", "2", "2"): 1, ("2", "2", "1"): 3})
    g = Metric(spec, {("1", "1"): 5, ("1", "2"): 7, ("2", "1"): 7, ("2", "2"): 11})
    labels = spec.directions.labels
    for s in labels:
        for s1 in labels:
            for s2 in labels:
                lhs = spec.phi(s).apply(g.entry(s1, s2))
                rhs = spec.pres.zero
                for a in labels:
                    for b in labels:
                        rhs = rhs + g.entry(a, b) * conn.entry(a, s, s1) * conn.entry(b, s, s2)
                matrix_form = spec.pres.zero
                for a in labels:
                    for b in labels:
                        matrix_form = matrix_form + \
                            conn.entry(a, s, s1) * g.entry(a, b) * conn.entry(b, s, s2)
                assert rhs == matrix_form  # central entries commute
    rep = metric_compatibility(spec, conn, g)
    assert any(c.path == "paths_agree" and c.ok for c in rep.checks)


def test_metric_compatibility_two_paths_agree_on_violation():
    spec = spec_of("glpq2")
    ident = Connection(spec, {(s, u, s): 1 for s in spec.directions.labels
                              for u in spec.directions.labels})
    g = Metric(spec, {("2", "2"): "a^2"})  # invariant but NOT phi-fixed
    rep = metric_compatibility(spec, ident, g)
    assert not rep.ok
    assert any(c.path == "paths_agree" and c.ok for c in rep.checks)


def test_metric_compatibility_grid_scan_oracle():
    # commutative two-direction preset; scalar V grid; both paths agree on
    # every grid point and the diagonal solutions satisfy g = g v^2
    spec = spec_of("poly_shift_S12")
    q_grid = [Scalar.from_int(0), Scalar.from_int(1), Scalar.from_int(-1)]
    g = Metric(spec, {("1", "1"): 1, ("2", "2"): 1})
    hits = []
    for v11, v22 in itertools.product(q_grid, repeat=2):
        conn = Connection(spec, {("1", "1", "1"): v11, ("2", "2", "2"): v22,
                                 ("1", "2", "1"): v11, ("2", "1", "2"): v22})
        rep = metric_compatibility(spec, conn, g)
        flags = {c.path: c.ok for c in rep.checks}
        assert flags["paths_agree"]
        if rep.ok:
            hits.append((str(v11), str(v22)))
    assert ("1", "1") in hits and ("-1", "-1") in hits and ("0", "0") not in hits


# -- levi-civita


def test_levi_civita_fails_with_torsion():
    spec = spec_of("quantum_plane_a")
    conn = Connection.zero(spec)
    g = Metric(spec, {("1", "2"): 1, ("2", "1"): 1})
    rep = levi_civita_check(spec, conn, g)
    assert not rep.ok
    assert any(c.path.startswith("torsion") and not c.ok for c in rep.checks)


def test_levi_civita_quantum_plane_grid_solution():
    # grid-search scalar torsion-free connections: V^s_{2,1} determined by
    # V^s_{1,2} via the two torsion conditions, remaining six entries free
    spec = spec_of("quantum_plane_a")
    g = Metric(spec, {("1", "2"): 1, ("2", "1"): 1})
    grid = [Scalar.from_int(k) for k in (-1, 0, 1)]
    found = []
    for v112, v212, a1, d1, a2, d2 in itertools.product(grid, repeat=6):
        conn = Connection(spec, {
            ("1", "1", "2"): v112, ("1", "2", "1"): v112 + 1,
            ("2", "1", "2"): v212, ("2", "2", "1"): v212 - 1,
            ("1", "1", "1"): a1, ("2", "1", "1"): d1,
            ("1", "2", "2"): a2, ("2", "2", "2"): d2,
        })
        if metric_compatibility(spec, conn, g).ok:
            found.append(conn)
    assert found  # e.g. V^1_{1,2} = V^2_{1,1} = V^1_{2,2} = V^2_{2,1} = -1
    for conn in found:
        rep = levi_civita_check(spec, conn, g)
        assert rep.ok, rep.text()
    explicit = Connection(spec, {("1", "1", "2"): -1, ("2", "1", "1"): -1,
                                 ("1", "2", "2"): -1, ("2", "2", "1"): -1})
    assert any(c.V == explicit.V for c in found)


def test_levi_civita_bounded_search_semantics():
    # no grid hit does not mean no solution: report stays a plain conjunction
    spec = spec_of("poly_shift_sym")
    g = Metric(spec, {("1", "1"): 1})
    conn = Connection.zero(spec)
    rep = levi_civita_check(spec, conn, g)
    assert not rep.ok  # this particular candidate fails; nothing more is claimed
