import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import refimpl
from draws import draws, hex_outcome
from refimpl import complementary_density, integrate_face, linked_stretch_pair

from contactbounds.errors import InadmissibleTrial, InvalidParameters, NonFiniteIntegrand
from contactbounds.contact import BodySpec, DirichletData, SystemSpec
from contactbounds.kinematics import Box3, Homogeneous, StretchBend, TriaxialStretch, _face_spans
from contactbounds import cli, energy
from contactbounds.energy import (
    QuadratureRule,
    complementary_energy,
    divergence_identity_residual,
    enclosure,
    integrate_volume,
    potential_energy,
)
from contactbounds.material import (
    Constant,
    NeoHookeanIncompressible,
    RadialProfile,
    piola_stress,
    strain_energy,
)
from contactbounds.states import (
    BOX1,
    BOX2,
    bend_pair,
    linked_bend_pair,
    stretch_pair,
)

BOX = Box3(0.0, 0.5, 0.0, 1.0, 0.0, 1.0)

# frozen: the stored energy density at a = 0.81, C = 1 over unit total volume
EP_081_TAU0 = 0.06261790123456779

# frozen: deliberately non-equilibrated constant-pressure bending state
CONST_P_BEND_RESIDUAL = 2.5493061443337615


def test_rule_validation():
    with pytest.raises(InvalidParameters):
        QuadratureRule(0)
    with pytest.raises(InvalidParameters):
        QuadratureRule(65)
    with pytest.raises(InvalidParameters):
        QuadratureRule(2.5)


def test_rule_nodes_computed_once_per_order_and_read_only():
    a, b = QuadratureRule(5), QuadratureRule(5)
    assert a._nodes is b._nodes and a._weights is b._weights
    nodes, weights = np.polynomial.legendre.leggauss(5)
    assert np.array_equal(a._nodes, nodes) and np.array_equal(a._weights, weights)
    with pytest.raises(ValueError):
        a._nodes[0] = 0.0
    with pytest.raises(ValueError):
        a._weights[0] = 0.0


def test_gauss_weight_tensors_are_cached_read_only():
    # (w0[i] * w1[j]) * w2[k] of each mapped rule, bit for bit, built once
    # per (order, spans) however many reference energies read it
    system = stretch_pair(1.3, 0.9, -0.12)
    box = system.body1.domain
    energy._weights.cache_clear()
    for order in (1, 3, 16):
        rule = QuadratureRule(order)
        for spans in (energy._spans(box), tuple(_face_spans(box, "x")), ((0.0, 0.5),)):
            ws = [rule.mapped(lo, hi)[1].tolist() for lo, hi in spans]
            want = [math.prod(t) for t in itertools.product(*ws)]  # left to right
            W = energy._weights(order, spans)
            assert W.shape == tuple(len(w) for w in ws)
            assert [v.hex() for v in W.ravel().tolist()] == [v.hex() for v in want]
            assert not W.flags.writeable
            with pytest.raises(ValueError):
                W.flat[0] = 1.0
            assert energy._weights(order, spans) is W
    assert energy._weights.cache_info().misses == 9
    fine = QuadratureRule(16)
    e = potential_energy(system, -0.12, fine)
    misses = energy._weights.cache_info().misses
    assert potential_energy(system, -0.12, fine) == e
    assert energy._weights.cache_info().misses == misses


def test_rule_exact_through_degree_15():
    rule = QuadratureRule(8)
    xs, ws = rule.mapped(0.0, 1.0)
    val = float(np.sum(ws * xs**15))
    assert val == pytest.approx(1.0 / 16.0, abs=1e-14)


def test_volume_integral_of_polynomial():
    got = integrate_volume(lambda X: X[0] * X[1] * X[2], BOX)
    assert got == pytest.approx((0.5**2 / 2.0) * 0.5 * 0.5, abs=1e-14)


def test_face_integrals_each_axis():
    got = integrate_face(lambda X: X[1] + X[2], BOX, "x", 0.5)
    assert got == pytest.approx(1.0, abs=1e-14)
    got = integrate_face(lambda X: X[0], BOX, "y", 0.0)
    assert got == pytest.approx(0.125, abs=1e-14)
    got = integrate_face(lambda X: 1.0, BOX, "z", 1.0)
    assert got == pytest.approx(0.5, abs=1e-14)


def test_nonfinite_integrand_detected():
    with pytest.raises(NonFiniteIntegrand):
        integrate_volume(lambda X: math.inf, BOX)
    with pytest.raises(NonFiniteIntegrand):
        integrate_face(lambda X: math.nan, BOX, "x", 0.0)


def test_potential_energy_frozen_value():
    sys_ = linked_stretch_pair(1.0, 1.0, 0.81, 0.81, tau=0.0)
    assert potential_energy(sys_, 0.0) == pytest.approx(EP_081_TAU0, abs=1e-12)


def test_potential_energy_load_work_term():
    # equal stretches with a shifted pair: the load face sits at x = b
    sys0 = linked_stretch_pair(1.0, 1.0, 0.81, 0.81, tau=0.0)
    sys1 = linked_stretch_pair(1.0, 1.0, 0.81, 0.81, tau=0.0, b2=0.3)
    tau = -0.4
    e0 = potential_energy(sys0, tau)
    e1 = potential_energy(sys1, tau)
    assert e1 - e0 == pytest.approx(tau * 0.3, abs=1e-12)


def test_energies_coincide_at_exact_triaxial_states():
    for tau in (-0.1, -0.3, -0.57):
        sys_ = stretch_pair(1.0, 2.0, tau)
        e_p = potential_energy(sys_, tau)
        e_c = complementary_energy(sys_)
        assert abs(e_p - e_c) < 1e-12


def test_energies_coincide_at_exact_bending_state():
    sys_ = bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, 3.0, -1.2)
    e_p = potential_energy(sys_, -1.2)
    e_c = complementary_energy(sys_)
    assert e_p == pytest.approx(-0.925346927833119, abs=1e-10)
    assert abs(e_p - e_c) < 1e-12


def test_divergence_identity_at_equilibrium():
    sys_ = stretch_pair(1.0, 2.0, -0.3)
    assert divergence_identity_residual(sys_) < 1e-12
    bend = bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, 3.0, -1.2)
    assert divergence_identity_residual(bend) < 1e-9


def test_divergence_identity_flags_nonequilibrium():
    sys_ = linked_bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, tau=-0.2)
    res = divergence_identity_residual(sys_)
    assert res > 1e-3
    assert res == pytest.approx(CONST_P_BEND_RESIDUAL, rel=1e-9)


def test_enclosure_exact_state_closes_the_bracket():
    tau = -0.3
    sys_ = stretch_pair(1.0, 1.0, tau)
    enc = enclosure(sys_, sys_, tau)
    assert enc.gap == pytest.approx(0.0, abs=1e-12)
    assert enc.gap == enc.e_potential - enc.e_complementary


def test_enclosure_orders_trial_energies():
    tau = -0.3
    exact = stretch_pair(1.0, 1.0, tau)
    m2 = exact.body2.map
    for delta in (0.02, 0.05, 0.1):
        a_t = exact.body1.map.a * (1.0 + delta)
        b_t = (m2.a * 0.5 + m2.b) - a_t * 0.5 - 0.01
        body = dataclasses.replace(exact.body1, map=TriaxialStretch(a_t, b_t))
        trial = dataclasses.replace(exact, body1=body)
        enc = enclosure(trial, exact, tau)
        assert enc.e_complementary <= enc.e_potential + 1e-9
        assert enc.gap > 0.0


def test_enclosure_rejects_penetrating_trial():
    tau = -0.3
    exact = stretch_pair(1.0, 1.0, tau)
    body = dataclasses.replace(
        exact.body1,
        map=TriaxialStretch(exact.body1.map.a, exact.body1.map.b + 0.05),
    )
    trial = dataclasses.replace(exact, body1=body)
    with pytest.raises(InadmissibleTrial, match="gap"):
        enclosure(trial, exact, tau)


def test_enclosure_checks_the_static_trial_only_after_the_kinematic_one(monkeypatch):
    tau = -0.3
    exact = stretch_pair(1.0, 1.0, tau)
    body = dataclasses.replace(exact.body1, map=TriaxialStretch(exact.body1.map.a, 0.05))
    trial = dataclasses.replace(exact, body1=body)
    calls = []
    monkeypatch.setattr(energy, "check_static", lambda *args: calls.append(args))
    # both trials fail: the kinematic one is named and the static one never checked
    with pytest.raises(InadmissibleTrial, match=r"^kinematic trial: gap residual = 5\.000e-02$"):
        enclosure(trial, exact, tau + 0.1)
    assert calls == []


def test_complementary_energy_rejects_unknown_dirichlet_map():
    system = dataclasses.replace(
        stretch_pair(1.3, 0.9, -0.12), dirichlet=DirichletData(map2=object())
    )
    with pytest.raises(InvalidParameters, match="unknown deformation map"):
        complementary_energy(system)


def test_enclosure_rejects_unbalanced_static_state():
    tau = -0.3
    exact = stretch_pair(1.0, 1.0, tau)
    with pytest.raises(InadmissibleTrial, match="^static trial: neumann residual = "):
        enclosure(exact, exact, tau + 0.1)


def _by_x(f):
    # a volume integrand of the abscissa alone, memoised so the pointwise
    # reference below stays cheap at order 13; every node is still summed
    cache = {}

    def at(X):
        x = float(X[0])
        if x not in cache:
            cache[x] = f(x)
        return cache[x]

    return at


def _pointwise_pairing(body, dmap, axis, side, rule):
    col = "xyz".index(axis)
    sign = 1.0 if side == "hi" else -1.0

    def pairing(X):
        P = piola_stress(body.material, *body.state(float(X[0])))
        return sign * float(P[:, col] @ dmap.frame_place(X))

    face = getattr(body.domain, "%s_%s" % (axis, side))
    return integrate_face(pairing, body.domain, axis, face, rule)


def _pointwise_energies(system, tau, rule):
    """(potential, complementary, divergence residual) through the
    node-by-node integrate_volume and integrate_face."""
    bodies = (system.body1, system.body2)
    b1 = system.body1
    e_p = 0.0
    for b in bodies:
        w = lambda x, b=b: strain_energy(b.material, b.map.gradient(x))
        e_p += integrate_volume(_by_x(w), b.domain, rule)
    face = integrate_face(b1.map.normal_position, b1.domain, "x", b1.domain.x_lo, rule)
    e_p += tau * face
    d = system.dirichlet
    maps = (d.map1 or b1.map, d.map2 or system.body2.map)
    e_c = 0.0
    for b in bodies:
        wc = lambda x, b=b: complementary_density(b.material, *b.state(x))
        e_c -= integrate_volume(_by_x(wc), b.domain, rule)
    e_c += _pointwise_pairing(system.body2, maps[1], "x", "hi", rule)
    if isinstance(system.body2.map, StretchBend):
        for b, dmap in zip(bodies, maps):
            for side in ("lo", "hi"):
                e_c += _pointwise_pairing(b, dmap, "z", side, rule)
    lhs = rhs = 0.0
    for b in bodies:
        pf = lambda x, b=b: float(
            np.sum(piola_stress(b.material, *b.state(x)) * b.map.gradient(x))
        )
        rhs += integrate_volume(_by_x(pf), b.domain, rule)
        for axis in "xyz":
            for side in ("lo", "hi"):
                lhs += _pointwise_pairing(b, b.map, axis, side, rule)
    return e_p, e_c, abs(lhs - rhs)


def _held_by(system, F0, t):
    # system with body 2's held face on the sheared affine data map x = F0 X + t,
    # the one way a Homogeneous map enters the energies
    return dataclasses.replace(system, dirichlet=DirichletData(map2=Homogeneous(F0, t)))


def _homogeneous_pair():
    F0 = np.array([[1.1, 0.2, -0.1], [0.05, 0.95, 0.15], [-0.1, 0.1, 1.02]])
    F0 = F0 / np.cbrt(np.linalg.det(F0))  # isochoric
    return _held_by(stretch_pair(1.3, 1.3, -0.12), F0, np.array([0.02, -0.01, 0.03]))


@pytest.mark.parametrize("order", [1, 3, 8, 13])
@pytest.mark.parametrize(
    "system, tau",
    [
        (stretch_pair(1.3, 0.9, -0.12), -0.12),
        (bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8), -0.8),
        (_homogeneous_pair(), 0.1),
    ],
    ids=["stretch", "bend", "homogeneous"],
)
def test_energies_equal_pointwise_quadrature(system, tau, order):
    # bit-identical to calling each integrand at every node, not merely close
    rule = QuadratureRule(order)
    e_p, e_c, div = _pointwise_energies(system, tau, rule)
    assert potential_energy(system, tau, rule) == e_p
    assert complementary_energy(system, rule) == e_c
    assert divergence_identity_residual(system, rule) == div


@pytest.mark.parametrize(
    "system",
    [bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8), stretch_pair(1.3, 0.9, -0.12)],
    ids=["bend", "stretch"],
)
def test_complementary_energy_evaluates_each_body_state_once(system, monkeypatch):
    # on the quadrature path one state stack per body serves its density
    # and its axial faces; body 2's held x face takes the third
    calls = []

    def counted(self, x, state=BodySpec.state):
        calls.append(self)
        return state(self, x)

    monkeypatch.setattr(BodySpec, "state", counted)
    complementary_energy(system, QuadratureRule(8))
    assert len(calls) == 3


@pytest.mark.parametrize(
    "system, tau",
    [
        (stretch_pair(1.3, 0.9, -0.12), -0.12),
        (bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8), -0.8),
        (_homogeneous_pair(), 0.1),
    ],
    ids=["stretch", "bend", "homogeneous"],
)
def test_exact_energies_run_no_quadrature(system, tau, monkeypatch):
    def banned(*args, **kwargs):
        raise RuntimeError("quadrature on the exact path")

    monkeypatch.setattr(energy, "_node_sum", banned)
    monkeypatch.setattr(QuadratureRule, "mapped", banned)
    assert math.isfinite(potential_energy(system, tau))
    assert math.isfinite(complementary_energy(system))
    # the patch bites: the reference path sums nodes
    with pytest.raises(RuntimeError, match="exact path"):
        complementary_energy(system, QuadratureRule(8))


def _agree_with_order_64(system, tau):
    fine = QuadratureRule(64)
    for e, ref in (
        (potential_energy(system, tau), potential_energy(system, tau, fine)),
        (complementary_energy(system), complementary_energy(system, fine)),
    ):
        assert abs(e - ref) <= 1e-11 * max(1.0, abs(e))


unit = st.floats(0.5, 2.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(("compression", "bending", "homogeneous")),
    C1=unit, C2=unit, A=unit, a1=unit, a2=unit,
    # b1 >= 0.1 keeps body 1's pole rho = 0 far enough for order 64
    b1=st.floats(0.1, 3.0),
    delta=st.sampled_from((0.01, 0.03, 0.08)),
    shear=st.lists(st.floats(-0.2, 0.2), min_size=12, max_size=12),
)
def test_exact_energies_agree_with_order_64(family, C1, C2, A, a1, a2, b1, delta, shear):
    if family == "homogeneous":
        # a compression pair held by a sheared affine data map
        F0 = np.eye(3) + np.reshape(shear[:9], (3, 3))
        F0 = F0 / np.cbrt(np.linalg.det(F0))
        system = _held_by(stretch_pair(C1, C2, -0.3 * C1), F0, shear[9:])
        _agree_with_order_64(system, -0.3 * C1)
        return
    # verify's exact pair and one of its trials, whose body 1 leaves the
    # Dirichlet data that the static side holds
    ex = cli.EXAMPLES[family]
    config = cli.ProblemConfig(family, cli.BodyConfig(C1, a1, b1), cli.BodyConfig(C2, a2), A=A)
    tau, exact = ex.reference(config)
    trial = dataclasses.replace(
        exact, body1=dataclasses.replace(exact.body1, map=ex.trial(exact, delta))
    )
    _agree_with_order_64(exact, tau)
    _agree_with_order_64(trial, tau)
    enc = enclosure(trial, exact, tau)
    assert enc.e_complementary <= enc.e_potential + 1e-9


def test_bending_volume_integral_keeps_its_digits_as_the_radii_meet():
    # rho_hi / rho_lo = 1 + 1e-12, a ratio that rounds at 1e-4 of its log
    m = StretchBend(1.0, 1.0, 1e12)
    lo, hi = m.rho(BOX1.x_lo), m.rho(BOX1.x_hi)
    ref = (BOX1.x_hi - BOX1.x_lo) / (0.5 * (lo + hi))
    assert m.volume_integral(BOX1, 1.0, 0.0, 0.0) == pytest.approx(ref, rel=1e-14, abs=0.0)
    assert math.log(hi / lo) / 2.0 != pytest.approx(ref, rel=1e-6, abs=0.0)


def test_exact_energies_raise_on_a_nonfinite_coefficient():
    # (A / sqrt(a))^2 overflows: the rho coefficient of I1 is inf
    m = StretchBend(1e200, 1.0, 1.0)
    model = NeoHookeanIncompressible(1.0)
    system = SystemSpec(BodySpec(BOX1, model, m), BodySpec(BOX2, model, m))
    with pytest.raises(NonFiniteIntegrand):
        potential_energy(system, -0.1)
    with pytest.raises(NonFiniteIntegrand):
        complementary_energy(system)


def _energy_map(d, bend, wide):
    # a map of the family, its parameters from the subnormals to 1e308 when
    # wide, else of order one, where most energies are finite
    pos, off = (d.positive, d.offset) if wide else (lambda: d.uniform(0.2, 3.0),) * 2
    if bend:
        return StretchBend(pos(), pos(), off())
    return TriaxialStretch(pos(), off() - 1.5)


def _energy_system(d, bend, radial, wide):
    # a pair of one family with draws of moduli, maps and pressures
    bodies = []
    for box in (BOX1, BOX2):
        c = (d.signed(), d.signed(), d.signed()) if wide else [d.uniform(-2.0, 2.0)] * 3
        pressure = RadialProfile(*c) if bend and radial else Constant(c[2])
        C = d.positive() if wide else d.uniform(0.1, 10.0)
        bodies.append(BodySpec(box, NeoHookeanIncompressible(C), _energy_map(d, bend, wide),
                               pressure))
    return SystemSpec(*bodies)


def _potential_draw(d):
    wide = d.flag()
    tau = d.signed() if wide else d.uniform(-2.0, 2.0)
    return _energy_system(d, d.flag(), False, wide), tau, d.choice((None, 1, 3, 8))


def test_potential_energy_from_the_diagonal_equals_the_gradient_stacks():
    # the stored energy's Gauss sum from the diagonal with its constrained
    # det check, and the exact load from the face radius or a x + b as a
    # float, against the gradient stacks and the centroid (tests/refimpl.py):
    # bit for bit, or the same error
    model = NeoHookeanIncompressible(1.0)

    def pair(m1, m2):
        return SystemSpec(BodySpec(BOX1, model, m1), BodySpec(BOX2, model, m2))

    ok = StretchBend(1.0, 1.0, 1.0)
    cases = [
        (pair(TriaxialStretch(5e-324), TriaxialStretch(1.0)), -0.1, 8),  # s^2 = inf: |J - 1| = inf
        (pair(ok, StretchBend(1e-170, 1e300, 1e-12)), 0.0, 3),  # F_tt underflows: J = 0
        (pair(ok, StretchBend(1e-310, 1.0, 1.0)), 0.0, 8),  # F_zz = inf: J is NaN, W is inf
        (pair(StretchBend(1e-300, 1e-300, 1.0), ok), 0.0, 1),  # A sqrt(a) underflows to 0
        (pair(StretchBend(1.0, 1.0, -0.5), ok), 0.0, None),  # the radius is too small
        (stretch_pair(1.3, 0.9, -0.12), -0.12, 8),
        (bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8), -0.8, 13),
    ] + draws(201, 300, _potential_draw)
    for case in cases:
        system, tau, order = case
        rule = order and QuadratureRule(order)
        want = hex_outcome(lambda: refimpl.potential_energy(system, tau, rule))
        assert hex_outcome(lambda: potential_energy(system, tau, rule)) == want, case


def _data_map(d, bend, wide):
    kind = d.choice(("own", "same", "triaxial", "homogeneous"))
    if kind == "own":
        return None
    if kind == "same":
        return _energy_map(d, bend, wide)
    if kind == "triaxial":
        return _energy_map(d, False, wide)
    F0 = [[d.uniform(-2.0, 2.0) for _ in range(3)] for _ in range(3)]
    return Homogeneous(F0, [d.uniform(-1.0, 1.0) for _ in range(3)])


def _complementary_draw(d):
    bend, wide = d.flag(), d.flag()
    system = _energy_system(d, bend, d.flag(), wide)
    data = DirichletData(_data_map(d, bend, wide), _data_map(d, bend, wide))
    return dataclasses.replace(system, dirichlet=data)


def test_exact_complementary_energy_from_the_diagonal_equals_the_stress_stack():
    # body 2's held face from P_00 at x_hi and the data's placement, and
    # the data's axial stretch from its diagonal (a Homogeneous map keeps
    # F0), against the full stress and gradient (tests/refimpl.py): bit for
    # bit, or the same error
    model = NeoHookeanIncompressible(1.0)
    ok = StretchBend(1.0, 1.0, 1.0)

    def pair(m2, p2=Constant(0.0), data=DirichletData()):
        return SystemSpec(BodySpec(BOX1, model, ok), BodySpec(BOX2, model, m2, p2),
                          dirichlet=data)

    cases = [
        pair(StretchBend(1e-170, 1e300, 1e-12)),  # F_tt underflows: det F = 0
        pair(StretchBend(1e-310, 1.0, 1.0), Constant(1.0)),  # F_zz = inf: P_10 is NaN
        pair(ok, RadialProfile(1e308, 1e308, 0.0)),  # p = inf at x_hi: P_10 is NaN
        pair(ok, data=DirichletData(map2=StretchBend(1.0, 1.0, -2.0))),  # the data's radius
        pair(ok, data=DirichletData(map2=StretchBend(1e-300, 1e-300, 1.0))),  # its A sqrt(a)
        pair(ok, data=DirichletData(Homogeneous(np.diag([1.0, 1.0, 2.0])), TriaxialStretch(0.7))),
        _homogeneous_pair(),
        bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8),
    ] + draws(223, 300, _complementary_draw)
    for system in cases:
        want = hex_outcome(lambda: refimpl.complementary_energy(system))
        assert hex_outcome(lambda: complementary_energy(system)) == want, system
