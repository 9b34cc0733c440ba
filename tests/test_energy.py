import dataclasses
import math

import numpy as np
import pytest

from contactbounds.errors import InadmissibleTrial, InvalidParameters, NonFiniteIntegrand
from contactbounds.contact import BodySpec, DirichletData, SystemSpec
from contactbounds.kinematics import Box3, Homogeneous, StretchBend, TriaxialStretch
from contactbounds import energy
from contactbounds.energy import (
    QuadratureRule,
    complementary_energy,
    divergence_identity_residual,
    enclosure,
    integrate_face,
    integrate_volume,
    potential_energy,
)
from contactbounds.material import (
    NeoHookeanCompressible,
    complementary_density,
    piola_stress,
    strain_energy,
)
from contactbounds.states import (
    BOX1,
    BOX2,
    bend_pair,
    linked_bend_pair,
    linked_stretch_pair,
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


def _compressible_pair():
    F0 = np.array([[1.1, 0.2, -0.1], [0.05, 0.95, 0.15], [-0.1, 0.1, 1.02]])
    t = np.array([0.02, -0.01, 0.03])
    model = NeoHookeanCompressible(1.3, 2.5)
    return SystemSpec(
        BodySpec(BOX1, model, Homogeneous(F0, t)),
        BodySpec(BOX2, model, Homogeneous(F0, t)),
    )


@pytest.mark.parametrize("order", [1, 3, 8, 13])
@pytest.mark.parametrize(
    "system, tau",
    [
        (stretch_pair(1.3, 0.9, -0.12), -0.12),
        (bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8), -0.8),
        (_compressible_pair(), 0.1),
    ],
    ids=["stretch", "bend", "compressible"],
)
def test_energies_equal_pointwise_quadrature(system, tau, order):
    # bit-identical to calling each integrand at every node, not merely close
    rule = QuadratureRule(order)
    e_p, e_c, div = _pointwise_energies(system, tau, rule)
    assert potential_energy(system, tau, rule) == e_p
    assert complementary_energy(system, rule) == e_c
    assert divergence_identity_residual(system, rule) == div
