import dataclasses
import math
import random

import numpy as np
import pytest
import refimpl
from draws import draws, hex_outcome as _hex_outcome, outcome as _outcome
from refimpl import linked_stretch_pair

from contactbounds import contact, material
from contactbounds.errors import FamilyMismatch, InvalidParameters
from contactbounds.kinematics import R_MIN, Box3, Homogeneous, StretchBend, TriaxialStretch
from contactbounds.material import Constant, NeoHookeanIncompressible, RadialProfile
from contactbounds.contact import (
    BodySpec,
    DirichletData,
    SystemSpec,
    _equilibrium_residual,
    _face_points,
    check_kinematic,
    check_static,
    contact_traction,
    evaluate_contact,
    gap_value,
    nominal_traction,
    rivlin_f,
    solve_radial_pressure,
)
from contactbounds.tensor3 import det
from contactbounds.states import (
    BOX1,
    BOX2,
    bend_pair,
    bending_system,
    linked_bend_pair,
    stretch_pair,
)


def replace_map1(system, new_map):
    body = dataclasses.replace(system.body1, map=new_map)
    return dataclasses.replace(system, body1=body)


def test_gap_closed_by_construction():
    sys_ = linked_stretch_pair(1.0, 1.0, 0.8, 0.9, tau=-0.1)
    assert abs(gap_value(sys_)) < 1e-15


def test_gap_sign_triaxial():
    sys_ = linked_stretch_pair(1.0, 1.0, 0.8, 0.9, tau=-0.1)
    pushed = replace_map1(sys_, TriaxialStretch(0.8, sys_.body1.map.b + 0.07))
    assert gap_value(pushed) == pytest.approx(0.07, abs=1e-14)
    pulled = replace_map1(sys_, TriaxialStretch(0.8, sys_.body1.map.b - 0.07))
    assert gap_value(pulled) == pytest.approx(-0.07, abs=1e-14)


def test_gap_bending_radii():
    sys_ = linked_bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, tau=-0.2)
    assert abs(gap_value(sys_)) < 1e-14
    trial = replace_map1(sys_, StretchBend(1.0, 1.0, 0.9))
    r1 = math.sqrt(2.0 * 0.5 + 0.9)
    assert gap_value(trial) == pytest.approx(r1 - math.sqrt(2.0), abs=1e-14)


def test_gap_family_mismatch():
    b1 = BodySpec(BOX1, NeoHookeanIncompressible(1.0), TriaxialStretch(1.0))
    b2 = BodySpec(BOX2, NeoHookeanIncompressible(1.0), StretchBend(1.0, 1.0, 0.5))
    with pytest.raises(FamilyMismatch):
        gap_value(SystemSpec(b1, b2))


def test_system_rejects_bodies_of_two_families():
    # built, and through dataclasses.replace, so no check downstream (gap,
    # kinematic data) ever sees a mixed pair
    bend = BodySpec(BOX1, NeoHookeanIncompressible(1.0), StretchBend(1.0, 1.0, 1.0))
    stretch = BodySpec(BOX2, NeoHookeanIncompressible(1.0), TriaxialStretch(1.0))
    msg = "bodies deform in different families: StretchBend vs TriaxialStretch"
    with pytest.raises(FamilyMismatch, match=msg):
        SystemSpec(bend, stretch)
    system = SystemSpec(bend, dataclasses.replace(stretch, map=StretchBend(1.0, 1.0, 2.0)))
    with pytest.raises(FamilyMismatch, match=msg):
        dataclasses.replace(system, body2=stretch)


def test_system_requires_shared_geometry():
    shifted = Box3(0.6, 1.1, 0.0, 1.0, 0.0, 1.0)
    b1 = BodySpec(BOX1, NeoHookeanIncompressible(1.0), TriaxialStretch(1.0))
    b2 = BodySpec(shifted, NeoHookeanIncompressible(1.0), TriaxialStretch(1.0))
    with pytest.raises(InvalidParameters):
        SystemSpec(b1, b2)
    tall = Box3(0.5, 1.0, 0.0, 2.0, 0.0, 1.0)
    b2 = BodySpec(tall, NeoHookeanIncompressible(1.0), TriaxialStretch(1.0))
    with pytest.raises(InvalidParameters):
        SystemSpec(b1, b2)


def test_body_rejects_a_homogeneous_map():
    # a body deforms in one of the two families that the examples build;
    # an isochoric affine map is no exception
    for F0 in (np.eye(3), np.diag([1.2, 1.0, 1.0]), np.diag([0.8, 1.25, 1.0])):
        with pytest.raises(InvalidParameters, match=r"^unknown deformation map Homogeneous\("):
            BodySpec(BOX1, NeoHookeanIncompressible(1.0), Homogeneous(F0))


def test_triaxial_body_rejects_radial_pressure():
    prof = RadialProfile(0.0, 0.0, 0.0)
    with pytest.raises(InvalidParameters, match="^triaxial bodies take a Constant"):
        BodySpec(BOX1, NeoHookeanIncompressible(1.0), TriaxialStretch(1.0), prof)


def test_body_validates_its_pressure_field_when_built():
    model = NeoHookeanIncompressible(1.0)
    with pytest.raises(InvalidParameters, match="^unknown pressure field 3.0$"):
        BodySpec(BOX1, model, TriaxialStretch(1.0), pressure=3.0)
    with pytest.raises(InvalidParameters, match="^unknown pressure field"):
        BodySpec(BOX1, model, StretchBend(1.0, 1.0, 1.0), pressure=None)
    # the profile is for bent bodies, and a Constant suits every family
    BodySpec(BOX1, model, StretchBend(1.0, 1.0, 1.0), RadialProfile(1, 0, 0))
    for m in (TriaxialStretch(1.0), StretchBend(1.0, 1.0, 1.0)):
        BodySpec(BOX1, model, m, Constant(0.2))


def test_contact_traction_frozen():
    body = BodySpec(
        BOX1, NeoHookeanIncompressible(1.0), TriaxialStretch(0.81), Constant(0.9)
    )
    # sigma_11 = C a^2 - p
    assert contact_traction(body, 0.5) == pytest.approx(0.81**2 - 0.9, abs=1e-14)
    assert nominal_traction(body, 0.5) == pytest.approx(
        (0.81**2 - 0.9) / 0.81, abs=1e-14
    )


def test_bending_traction_needs_radius():
    body = BodySpec(
        BOX1, NeoHookeanIncompressible(1.0), StretchBend(1.0, 1.0, 1.0), Constant(0.2)
    )
    # the face X = -0.5 has squared radius 2 a X + b = 0: no cylinder there
    with pytest.raises(InvalidParameters, match="^bending radius"):
        contact_traction(body, -0.5)
    # sigma_rr = C a^2 / r^2 - p on the face X = 0.5 of squared radius 2,
    # and nominal = cauchy * r / a there
    r = math.sqrt(2.0)
    sig = contact_traction(body, 0.5)
    assert sig == pytest.approx(1.0 / r**2 - 0.2, abs=1e-14)
    assert nominal_traction(body, 0.5) == pytest.approx(sig * r / 1.0, abs=1e-14)


def test_linked_pair_balances_cauchy_tractions():
    tau = -0.1
    sys_ = linked_stretch_pair(1.0, 2.0, 0.8, 0.9, tau=tau)
    ev = evaluate_contact(sys_)
    assert ev.regime == "closed"
    assert ev.traction_normal == pytest.approx(tau, abs=1e-14)
    assert ev.action_reaction_residual < 1e-14
    assert ev.complementarity_residual < 1e-14


def test_linked_bend_pair_balances_at_contact_radius():
    tau = -0.3
    sys_ = linked_bend_pair(1.0, 1.5, 1.0, 1.0, 1.0, 1.0, tau=tau)
    ev = evaluate_contact(sys_)
    assert ev.regime == "closed"
    assert ev.traction_normal == pytest.approx(tau, abs=1e-13)
    assert ev.action_reaction_residual < 1e-13


def test_open_contact_reports_separation():
    sys_ = linked_stretch_pair(1.0, 1.0, 0.8, 0.8, tau=-0.1)
    apart = replace_map1(sys_, TriaxialStretch(0.8, sys_.body1.map.b - 0.2))
    ev = evaluate_contact(apart)
    assert ev.regime == "open"
    assert ev.gap == pytest.approx(-0.2, abs=1e-14)
    assert ev.complementarity_residual == pytest.approx(0.2 * 0.1, abs=1e-12)


def test_allowance_shifts_the_gap():
    sys_ = linked_stretch_pair(1.0, 1.0, 0.8, 0.8, tau=-0.1)
    sys_ = dataclasses.replace(sys_, d_allow=0.05)
    pushed = replace_map1(sys_, TriaxialStretch(0.8, sys_.body1.map.b + 0.05))
    ev = evaluate_contact(pushed)
    assert abs(ev.gap) < 1e-14
    assert ev.regime == "closed"


def test_kinematic_ok_for_exact_pair():
    sys_ = stretch_pair(1.0, 2.0, -0.25)
    rep = check_kinematic(sys_)
    assert rep.kinematic_ok
    assert rep.static_ok is None
    assert rep.residuals["dirichlet"] < 1e-12
    assert rep.residuals["gap"] == 0.0
    assert rep.residuals["constraint"] < 1e-12


def test_kinematic_rejects_penetration():
    sys_ = stretch_pair(1.0, 1.0, -0.25)
    pushed = replace_map1(
        sys_, TriaxialStretch(sys_.body1.map.a, sys_.body1.map.b + 0.1)
    )
    rep = check_kinematic(pushed)
    assert not rep.kinematic_ok
    assert rep.residuals["gap"] == pytest.approx(0.1, abs=1e-12)


def test_kinematic_allows_separation():
    sys_ = stretch_pair(1.0, 1.0, -0.25)
    apart = replace_map1(
        sys_, TriaxialStretch(sys_.body1.map.a, sys_.body1.map.b - 0.1)
    )
    assert check_kinematic(apart).kinematic_ok


def test_kinematic_rejects_moved_held_face():
    sys_ = stretch_pair(1.0, 1.0, -0.25)
    body2 = dataclasses.replace(
        sys_.body2, map=TriaxialStretch(sys_.body2.map.a, sys_.body2.map.b + 0.02)
    )
    moved = dataclasses.replace(sys_, body2=body2)
    rep = check_kinematic(moved)
    assert not rep.kinematic_ok
    assert rep.residuals["dirichlet"] == pytest.approx(0.02, abs=1e-12)


def test_bending_offset_is_a_free_trial_direction():
    # the axial faces prescribe only the axial coordinate and the flanks
    # only the meridian plane, so shrinking b leaves the trial admissible
    exact = bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, 3.0, -1.2)
    trial = replace_map1(exact, StretchBend(1.0, 1.0, exact.body1.map.b - 0.05))
    rep = check_kinematic(trial)
    assert rep.kinematic_ok
    assert rep.residuals["dirichlet"] < 1e-12


def test_bending_stretch_change_violates_axial_data():
    exact = bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, 3.0, -1.2)
    trial = replace_map1(exact, StretchBend(1.0, 1.1, exact.body1.map.b - 0.05))
    rep = check_kinematic(trial)
    assert not rep.kinematic_ok
    assert rep.residuals["dirichlet"] > 1e-3


def test_static_ok_for_exact_pair():
    tau = -0.37
    sys_ = stretch_pair(1.4, 0.8, tau)
    rep = check_static(sys_, tau)
    assert rep.static_ok
    assert rep.kinematic_ok is None
    for k, v in rep.residuals.items():
        assert v < 1e-10, k


def test_static_detects_wrong_load():
    tau = -0.37
    sys_ = stretch_pair(1.4, 0.8, tau)
    rep = check_static(sys_, tau + 0.05)
    assert not rep.static_ok
    assert rep.residuals["neumann"] == pytest.approx(0.05, abs=1e-12)


def test_static_action_reaction_uses_reference_areas():
    tau = -0.2
    sys_ = linked_stretch_pair(1.0, 1.0, 0.8, 0.9, tau=tau)
    rep = check_static(sys_, tau)
    # equal Cauchy tractions but unequal stretches: the nominal
    # tractions tau / a_i differ
    expected = abs(tau) * abs(1.0 / 0.8 - 1.0 / 0.9)
    assert rep.residuals["action_reaction"] == pytest.approx(expected, rel=1e-12)
    assert not rep.static_ok


def test_static_tensile_traction_capped_by_g():
    sys_ = stretch_pair(1.0, 1.0, 0.3, g=0.5)
    rep = check_static(sys_, 0.3)
    assert rep.static_ok
    bare = dataclasses.replace(sys_, g=0.0)
    rep = check_static(bare, 0.3)
    assert not rep.static_ok
    assert rep.residuals["contact_traction_sign"] > 0.1


def test_static_ok_for_exact_bending_pair():
    tau = -1.2
    sys_ = bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, 3.0, tau)
    rep = check_static(sys_, tau)
    assert rep.static_ok
    assert rep.residuals["equilibrium"] < 1e-8
    assert rep.residuals["action_reaction"] < 1e-10


def test_static_constant_pressure_cannot_bend():
    sys_ = linked_bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, tau=-0.2)
    rep = check_static(sys_, -0.2)
    assert not rep.static_ok
    assert rep.residuals["equilibrium"] > 1e-3


def test_radial_pressure_satisfies_momentum_balance():
    body = BodySpec(
        BOX1, NeoHookeanIncompressible(1.3), StretchBend(1.1, 0.9, 1.2)
    )
    prof = solve_radial_pressure(body, -0.5)
    C, a, A = 1.3, 0.9, 1.1
    r_in = math.sqrt(1.2)
    r_out = math.sqrt(2.0 * 0.9 * 0.5 + 1.2)
    # anchor value is the radial Cauchy stress on the inner face
    assert C * a**2 / r_in**2 - prof(r_in) == pytest.approx(-0.5, abs=1e-12)
    worst = 0.0
    for r in np.linspace(r_in, r_out, 201):
        dsig = -2.0 * C * a**2 / r**3 - prof.derivative(r)
        rhs = C * (A**2 * r / a - a**2 / r**3)
        worst = max(worst, abs(dsig - rhs))
    assert worst < 1e-8


def test_radial_pressure_frozen_rivlin():
    # C = 1.3, a = 0.9, A = 1.1 on x in (0, 1/2) with b = 1.2: squared radii
    # 1.2 (inner) and 2.1 (outer). Rivlin's sigma_rr(rho) = sigma_0
    # + C [A^2 (rho - rho_0) / (2 a) + a^2 (1 / rho - 1 / rho_0) / 2],
    # evaluated by hand in fractions.
    body = BodySpec(
        BOX1, NeoHookeanIncompressible(1.3), StretchBend(1.1, 0.9, 1.2)
    )
    C, a = 1.3, 0.9

    def sigma_rr(prof, rho):
        return C * a**2 / rho - prof(math.sqrt(rho))

    prof = solve_radial_pressure(body, -0.5)
    assert sigma_rr(prof, 1.5) == pytest.approx(-3907 / 12000, abs=1e-13)
    assert sigma_rr(prof, 2.1) == pytest.approx(2757 / 28000, abs=1e-13)
    # the inner stress that leaves the outer face traction free
    prof = solve_radial_pressure(body, -16757 / 28000)
    assert sigma_rr(prof, 2.1) == pytest.approx(0.0, abs=1e-13)


def test_radial_pressure_anchor_roundtrip():
    # C = A = a = b = 1: squared radii 1 (inner) and 2 (outer)
    body = BodySpec(
        BOX1, NeoHookeanIncompressible(1.0), StretchBend(1.0, 1.0, 1.0)
    )
    sig_in = -0.4
    prof = solve_radial_pressure(body, sig_in)
    rho_in, rho_out = 1.0, 2.0
    r_out = math.sqrt(rho_out)
    sig_out = 1.0 / r_out**2 - prof(r_out)
    expected = sig_in + rivlin_f(1.0, 1.0, 1.0, rho_out) - rivlin_f(1.0, 1.0, 1.0, rho_in)
    assert sig_out == pytest.approx(expected, abs=1e-12)


def test_radial_pressure_argument_validation():
    body = BodySpec(BOX1, NeoHookeanIncompressible(1.0), TriaxialStretch(1.0))
    with pytest.raises(InvalidParameters):
        solve_radial_pressure(body, 0.0)


@pytest.mark.parametrize(
    "A, a, message",
    [
        (1e300, 1.0, "radial pressure coefficient A^2 overflows for A = 1e+300"),
        (1.0, 1e200, "radial pressure coefficient a^2 overflows for stretch a = 1e+200"),
        # A^2 is checked first
        (1e300, 1e200, "radial pressure coefficient A^2 overflows for A = 1e+300"),
    ],
)
def test_radial_pressure_names_an_overflowing_square(A, a, message):
    # A^2 and a^2 are Python float powers, which raise on overflow
    body = BodySpec(BOX1, NeoHookeanIncompressible(1.0), StretchBend(A, a, 1.0))
    with pytest.raises(OverflowError) as err:
        solve_radial_pressure(body, 0.0)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "A, a, message",
    [
        (1e200, 1.0, "equilibrium residual: A = 1e+200 overflows in A^2"),
        (1.0, 1e200, "equilibrium residual: stretch a = 1e+200 overflows in a^2"),
        # A^2 is squared first
        (1e200, 1e200, "equilibrium residual: A = 1e+200 overflows in A^2"),
    ],
)
def test_equilibrium_residual_names_an_overflowing_square(A, a, message):
    body = BodySpec(BOX1, NeoHookeanIncompressible(1.0), StretchBend(A, a, 1.0))
    with pytest.raises(OverflowError) as err:
        _equilibrium_residual(body)
    assert str(err.value) == message


def test_equilibrium_residual_names_an_overflowing_cube_of_a_radius():
    # rho = 2 X + 1e210, so every radius is near 1e105 and its cube overflows;
    # the first one, at X = x_lo = 0, is sqrt(1e210)
    body = BodySpec(BOX1, NeoHookeanIncompressible(1.0), StretchBend(1.0, 1.0, 1e210))
    with pytest.raises(OverflowError) as err:
        _equilibrium_residual(body)
    assert str(err.value) == "radius r = %r overflows in r^3" % (math.sqrt(1e210),)


@pytest.mark.parametrize(
    "A, a, message",
    [
        (1e200, 1.0, "rivlin_f: A = 1e+200 overflows in A^2"),
        (1.0, 1e200, "rivlin_f: stretch a = 1e+200 overflows in a^2"),
        (1e200, 1e200, "rivlin_f: A = 1e+200 overflows in A^2"),
    ],
)
def test_rivlin_f_names_an_overflowing_square(A, a, message):
    with pytest.raises(OverflowError) as err:
        rivlin_f(1.0, A, a, 1.0)
    assert str(err.value) == message


def _face_samples(domain, axis, value):
    # the 5 x 5 sample points of the face {axis = value}, one at a time
    col = "xyz".index(axis)
    spans = [(getattr(domain, c + "_lo"), getattr(domain, c + "_hi")) for c in "xyz" if c != axis]
    for u in np.linspace(*spans[0], 5):
        for v in np.linspace(*spans[1], 5):
            X = [u, v]
            X.insert(col, value)
            yield np.array(X)


def _pointwise_kinematic(system, data):
    """check_kinematic's residuals from one place() call per point."""
    b1, b2 = system.body1, system.body2
    worst = 0.0
    for X in _face_samples(b2.domain, "x", b2.domain.x_hi):
        d = b2.map.place(X) - data.map2.place(X)
        worst = max(worst, float(np.max(np.abs(d))))
    if isinstance(b1.map, StretchBend):
        for body, dmap in ((b1, data.map1), (b2, data.map2)):
            for zv in (body.domain.z_lo, body.domain.z_hi):
                for X in _face_samples(body.domain, "z", zv):
                    worst = max(worst, abs(body.map.place(X)[2] - dmap.place(X)[2]))
            for yv in (body.domain.y_lo, body.domain.y_hi):
                th = dmap.A * yv / math.sqrt(dmap.a)
                n = np.array([-math.sin(th), math.cos(th), 0.0])
                for X in _face_samples(body.domain, "y", yv):
                    worst = max(worst, abs(float(body.map.place(X) @ n)))
    con = 0.0
    for body in (b1, b2):
        for x in np.linspace(body.domain.x_lo, body.domain.x_hi, 5):
            con = max(con, abs(det(body.map.gradient(x)) - 1.0))
    gap = max(0.0, gap_value(system) - system.d_allow)
    return {"dirichlet": worst, "gap": gap, "constraint": con}


_STRETCH = stretch_pair(1.0, 2.0, -0.25)
_BEND = bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8)
_BEND_TRIAL = replace_map1(_BEND, StretchBend(1.1, 0.95, _BEND.body1.map.b - 0.05))
_S1, _S2 = _STRETCH.body1.map, _STRETCH.body2.map
_B1, _B2 = _BEND.body1.map, _BEND.body2.map


@pytest.mark.parametrize(
    "system, data",
    [
        (_STRETCH, DirichletData(_S1, _S2)),
        (_STRETCH, DirichletData(_S1, TriaxialStretch(_S2.a, 0.03))),
        (_BEND, DirichletData(_B1, _B2)),
        (_BEND_TRIAL, DirichletData(_B1, _B2)),
        # moved data: the flank normals and axial placements both change
        (_BEND, DirichletData(StretchBend(1.3, _B1.a, _B1.b), StretchBend(_B2.A, 1.05, _B2.b))),
    ],
    ids=["stretch", "stretch-moved", "bend", "bend-trial", "bend-moved"],
)
def test_kinematic_residuals_equal_pointwise(system, data):
    # every residual is the float of the point-by-point loop, not merely close
    rep = check_kinematic(system, dirichlet=data)
    assert rep.residuals == _pointwise_kinematic(system, data)


def _bending_bodies(count, seed):
    # bodies of bending_system (RadialProfile pressures) and of
    # linked_bend_pair (Constant pressures) over stretches in [0.3, 2]
    rng = random.Random(seed)
    radial, constant = [], []
    for _ in range(count):
        C1, C2 = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        A, a1, a2 = rng.uniform(0.6, 1.4), rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
        b1, tau = rng.uniform(0.5, 3.0), rng.uniform(-1.0, 0.3)
        s = bending_system(C1, C2, A, a1, a2, b1, tau=tau)
        radial += [s.body1, s.body2]
        s = linked_bend_pair(C1, C2, A, a1, a2, b1, tau)
        constant += [s.body1, s.body2]
    return radial, constant


def _equilibrium_residual_per_radius(body):
    # the residual as one loop over numpy scalar radii, as it was first written
    m = body.map
    C, a, A = body.material.C, m.a, m.A
    worst = 0.0
    for r in np.linspace(m.radius(body.domain.x_lo), m.radius(body.domain.x_hi), 101):
        rhs = C * (A**2 * r / a - a**2 / r**3)
        if isinstance(body.pressure, RadialProfile):
            dsig = -2.0 * C * a**2 / r**3 - body.pressure.derivative(r)
        else:
            dsig = -2.0 * C * a**2 / r**3
        worst = max(worst, abs(dsig - rhs))
    return worst


def test_equilibrium_residual_matches_the_loop_over_radii():
    radial, constant = _bending_bodies(30, 11)
    for bodies, kind in ((radial, RadialProfile), (constant, Constant)):
        assert len(bodies) >= 50
        for body in bodies:
            assert isinstance(body.pressure, kind)
            assert _equilibrium_residual(body) == _equilibrium_residual_per_radius(body)


def test_equilibrium_residual_cubes_the_radii_once(monkeypatch):
    cubes = []

    def counted(v, k, _cpow=contact._cpow):
        if k == 3:
            cubes.append(np.shape(v))
        return _cpow(v, k)

    for module in (contact, material):
        monkeypatch.setattr(module, "_cpow", counted)
    radial, constant = _bending_bodies(2, 13)
    for body in radial + constant:
        del cubes[:]
        _equilibrium_residual(body)
        assert cubes == [(101,)]


def counting_constraint_dets(monkeypatch):
    # the shape of the abscissae of every constraint residual evaluation:
    # the 5 of a sample grid or a triaxial body's x_lo
    calls = []

    def counted(m, xs, _constraint=contact._constraint):
        calls.append(np.shape(xs))
        return _constraint(m, xs)

    monkeypatch.setattr(contact, "_constraint", counted)
    return calls


def test_constraint_residual_is_evaluated_once_per_body(monkeypatch):
    systems = [
        bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8),
        linked_stretch_pair(1.3, 0.7, 0.8, 1.6, tau=-0.2),
    ]
    calls = counting_constraint_dets(monkeypatch)
    for system, shape in zip(systems, [(5,), ()]):
        del calls[:]
        worst = 0.0
        for b in (system.body1, system.body2):
            for x in np.linspace(b.domain.x_lo, b.domain.x_hi, 5).tolist():
                worst = max(worst, abs(det(b.map.gradient(x)) - 1.0))
        for _ in range(2):
            assert check_kinematic(system).residuals["constraint"] == worst
            assert check_static(system, -0.2).residuals["constraint"] == worst
        assert calls == [shape, shape]
        # a copy is a new body and evaluates its own
        copy = dataclasses.replace(system, body1=dataclasses.replace(system.body1))
        assert check_kinematic(copy).residuals["constraint"] == worst
        check_static(copy, -0.2)
        assert len(calls) == 3


# the float-kernel laws below run their named cases and then a few hundred
# fixed draws (tests/draws.py): positive floats from the subnormals to the
# largest powers of ten, offsets and signed values of either sign


def _constraint_draw(d):
    return d.flag(), d.positive(), d.positive(), d.offset(), d.flag()


def test_constraint_residual_of_one_abscissa_equals_the_stack():
    # a body's residual, in floats per abscissa, against the 5-abscissa
    # stack it replaced: bit for bit, or the same error; a triaxial body
    # reads x_lo alone. nan_det makes every determinant NaN, and a NaN
    # determinant makes the residual NaN
    cases = [
        (False, 1.0, 5e-324, -1e308, False),  # s = 1 / sqrt(a) squares to inf: det is inf
        (False, 1.0, 1.7976931348623157e308, 1e308, False),  # s * s is subnormal
        (False, 1.0, 0.81, 0.0, True),
        (True, 1e308, 4.0, 4.0, False),  # det is NaN at every abscissa
        (True, 1e-300, 1e-300, 1.0, False),  # A sqrt(a) underflows to 0
        (True, 1.0, 1.0, -0.5, False),  # the radius is too small at x_lo
        (True, 1e-310, 1.0, 1.0, False),  # F_zz = 1 / A sqrt(a) is inf: det F is NaN
        (True, 1e308, 1.0, 100.0, False),  # F_tt = A r / sqrt(a) is inf: det F is NaN
        (True, 1e308, 1.0, 2.5, False),  # F_tt is inf from x = 0.375 on: NaN at two abscissae
    ] + draws(597, 300, _constraint_draw)
    nans = 0
    for case in cases:
        bend, A, a, b, nan_det = case
        m = StretchBend(A, a, b) if bend else TriaxialStretch(a, b)
        body = BodySpec(BOX1, NeoHookeanIncompressible(1.0), m)
        with pytest.MonkeyPatch.context() as mp:
            if nan_det:
                mp.setattr(contact, "_det_diag", lambda *d, real=contact._det_diag: real(*d) * math.nan)
                mp.setattr(refimpl, "det", lambda F, real=det: real(F) * math.nan)
            got = _outcome(lambda: body._constraint_residual)
            assert got == _outcome(lambda: refimpl.constraint_residual(body)), case
        nans += got == "nan"
        if not bend:
            x = contact._abscissae(body, 5)
            assert type(x) is float and x == BOX1.x_lo
    assert nans > 10


def test_a_nan_det_fails_the_kinematic_and_static_checks():
    # F_zz = 1 / A sqrt(a) is inf on StretchBend(1e-310, 1, 1), so det F is
    # NaN at every abscissa: the constraint residual is NaN, on either body
    # alone too, and no check admits it
    nan_map, ok_map = StretchBend(1e-310, 1.0, 1.0), StretchBend(1.0, 1.0, 1.0)
    model = NeoHookeanIncompressible(1.0)
    for m1, m2 in ((nan_map, nan_map), (ok_map, nan_map), (nan_map, ok_map)):
        system = SystemSpec(BodySpec(BOX1, model, m1), BodySpec(BOX2, model, m2))
        kin, stat = check_kinematic(system), check_static(system, -0.1)
        assert math.isnan(kin.residuals["constraint"]) and kin.kinematic_ok is False
        assert math.isnan(stat.residuals["constraint"]) and stat.static_ok is False
    # the residual of a finite body stays its own
    fine = SystemSpec(BodySpec(BOX1, model, ok_map), BodySpec(BOX2, model, ok_map))
    assert check_kinematic(fine).residuals["constraint"] == max(
        refimpl.constraint_residual(fine.body1), refimpl.constraint_residual(fine.body2))


def _cauchy_draw(d):
    x = d.choice((0.0, 0.5)) if d.flag() else d.uniform(0.0, 0.5)
    return (d.flag(), d.positive(), d.positive(), d.positive(), d.signed(),
            (d.signed(), d.signed(), d.signed()), d.flag(), x)


def test_cauchy_traction_in_floats_equals_the_stress_tensor():
    # sigma_nn and the radius of a face from the diagonal, against the full
    # Cauchy stress: bit for bit, or the same error
    cases = [
        (True, 1.0, 1e-170, 1e300, 1e-12, (0.0, 0.0, 0.0), False, 0.0),  # F_tt underflows: det F = 0
        (True, 1.0, 1e-300, 1e-300, 1.0, (0.0, 0.0, 0.0), False, 0.5),  # A sqrt(a) underflows to 0
        (True, 1.0, 1.0, 1.0, -0.5, (0.0, 0.0, 0.0), False, 0.0),  # the radius is too small
        (True, 1.0, 1.0, 1.0, 1e-12, (1e300, 0.0, 0.0), True, 0.0),  # p = inf: sigma_nn is NaN
        (True, 1.0, 1e-310, 1.0, 1.0, (0.0, 0.0, 0.0), False, 0.5),  # F_zz = inf: det F is NaN
        (False, 1.0, 1.0, 5e-324, 0.0, (1.0, 0.0, 0.0), False, 0.5),  # s^2 = inf: det F is inf
        (False, 6e-323, 1.0, 0.25, 0.0, (5e-324, 0.0, 0.0), False, 0.5),  # P_00 F_00 is -0.0
    ] + draws(646, 400, _cauchy_draw)
    for case in cases:
        bend, C, A, a, b, p, radial, x = case
        m = StretchBend(A, a, b) if bend else TriaxialStretch(a, b)
        pressure = RadialProfile(*p) if bend and radial else Constant(p[0])
        body = BodySpec(BOX1, NeoHookeanIncompressible(C), m, pressure)
        want = _hex_outcome(lambda: (refimpl.cauchy_traction(body, x), m.radius(x)))
        assert _hex_outcome(lambda: contact._sigma_nn(body, x)) == want, case


# boxes whose z / A sqrt(a) overflows on no grid column, on some (the grid's
# z near 0 stays finite) or on all of them
_FLANK_BOXES = (
    BOX1,
    Box3(-0.3, 0.2, 0.1, 0.7, -1.0, 2.5),
    Box3(0.0, 0.5, 0.0, 1.0, -1e10, 1e-300),
    Box3(0.0, 0.5, -2.0, 3.0, 1e300, 1.5e300),
)


def _bend_map(d):
    # b from [R_MIN^2, 1e308], log-uniform, four times in five, so that the
    # radius check at x_lo passes; else a signed value, which mostly fails it
    b = max(R_MIN**2, 10.0 ** d.uniform(-12.0, 308.0)) if d.choice(range(5)) else d.signed()
    return StretchBend(d.positive(), d.positive(), b)


def _flank_draw(d):
    return d.choice(_FLANK_BOXES), _bend_map(d), _bend_map(d)


def _flank_case(box, m, dmap):
    return BodySpec(box, NeoHookeanIncompressible(1.0), m), dmap


def test_flank_residual_of_ten_rows_equals_the_grids():
    # _flank over one row per abscissa and flank against the 5 x 5 grids of
    # both y faces: bit for bit, or the same error
    cases = [
        (_FLANK_BOXES[2], StretchBend(1e-300, 1.0, 1.0), StretchBend(1.0, 1.0, 1.0)),
        (_FLANK_BOXES[3], StretchBend(1e-300, 1.0, 1.0), StretchBend(1.1, 0.9, 1.0)),
        (BOX1, StretchBend(1e-300, 1e-300, 1.0), StretchBend(1.0, 1.0, 1.0)),  # underflow
        (BOX1, StretchBend(1.0, 1.0, -0.5), StretchBend(1e-300, 1e-300, 1.0)),  # low radius first
    ] + draws(677, 400, _flank_draw)
    for case in cases:
        body, dmap = _flank_case(*case)
        assert _hex_outcome(lambda: contact._flank(body, dmap)) == _hex_outcome(
            lambda: refimpl.flank(body, dmap)
        ), case


def test_axial_difference_at_two_heights_equals_the_grids():
    # _axial_difference at z_lo and z_hi against the 5 x 5 grids of both z
    # faces: bit for bit, or the same error
    cases = [
        (_FLANK_BOXES[2], StretchBend(1e-300, 1.0, 1.0), StretchBend(1e-300, 4.0, 1.0)),
        (_FLANK_BOXES[2], StretchBend(1e-300, 1.0, 1.0), StretchBend(2e-300, 1.0, 1.0)),
        (BOX1, StretchBend(1.0, 1.0, 1.0), StretchBend(1e-300, 1e-300, 1.0)),  # data underflow
        (BOX1, StretchBend(1e-300, 1e-300, -0.5), StretchBend(1.0, 1.0, 1.0)),  # low radius first
        (BOX1, StretchBend(1.0, 1.0, 1.0), StretchBend(1.0, 1.0, -0.5)),  # the data's radius
    ] + draws(693, 400, _flank_draw)
    for case in cases:
        body, dmap = _flank_case(*case)
        assert _hex_outcome(lambda: contact._axial_difference(body, dmap)) == _hex_outcome(
            lambda: refimpl.axial_difference(body, dmap)
        ), case


def test_flank_skips_the_rows_whose_axial_coordinate_overflows():
    # k = A sqrt(a) = 1e-300: z / k is -inf on four grid columns of the box
    # and 1 on the fifth, so the grids' NaN rows are skipped, and the ten
    # rows read that fifth column
    body, dmap = _flank_case(_FLANK_BOXES[2], StretchBend(1e-300, 1.0, 1.0), StretchBend(1.0, 1.0, 1.0))
    X = _face_points(body.domain, "y", (body.domain.y_lo, body.domain.y_hi))
    with np.errstate(over="ignore", invalid="ignore"):
        z = body.map.frame_place(X)[:, 2]
        want = refimpl.flank(body, dmap)
    assert np.isinf(z).sum() == 40 and set(z[np.isfinite(z)].tolist()) == {1.0}
    rows = contact._flank_points(body.domain)
    assert rows.shape == (10, 3) and set(rows[:, 2].tolist()) == {1e-300}
    assert not rows.flags.writeable and contact._flank_points(dataclasses.replace(body.domain)) is rows
    got = contact._flank(body, dmap)
    assert got > 0.0 and got == want


def _neumann_draw(d):
    return ((d.positive(), d.positive()), (d.positive(), d.positive()),
            (d.signed(), d.signed()), d.signed())


def test_triaxial_neumann_residual_in_floats_equals_the_stress_tensors():
    # the dead load and traction-free faces from the diagonal Piola stress,
    # against the full tensors: bit for bit
    cases = [
        ((1.0, 1.0), (5e-324, 1.0), (1.0, 0.0), -math.inf),  # P_00 - tau = -inf + inf
        ((1.0, 1.0), (0.81, 0.81), (0.0, 0.0), math.nan),
        ((1e308, 1e308), (1.7976931348623157e308, 5e-324), (-1e308, 1e308), 0.0),
    ] + draws(727, 300, _neumann_draw)
    for case in cases:
        C, a, p, tau = case
        bodies = [
            BodySpec(box, NeoHookeanIncompressible(Ci), TriaxialStretch(ai), Constant(pi))
            for box, Ci, ai, pi in zip((BOX1, BOX2), C, a, p)
        ]
        system = SystemSpec(*bodies)
        assert _hex_outcome(lambda: contact._neumann_residual(system, tau)) == _hex_outcome(
            lambda: refimpl.neumann_residual(system, tau)
        ), case


def _gap_draw(d):
    bend = d.flag()
    maps = [StretchBend(d.positive(), d.positive(), d.offset()) if bend
            else TriaxialStretch(d.positive(), d.offset()) for _ in range(2)]
    return maps, d.choice((BOX1, Box3(-0.3, 0.2, 0.1, 0.7, -1.0, 2.5)))


def test_gap_in_floats_equals_the_face_centre():
    # each map's normal coordinate on the contact plane as a float, against
    # normal_position at the face centre: bit for bit, or the same error
    cases = [
        ([TriaxialStretch(1e308, 1e308), TriaxialStretch(1e308, -1e308)], BOX1),  # inf - inf
        ([StretchBend(1.0, 1.0, -1.5), StretchBend(1.0, 1.0, 1.0)], BOX1),  # low radius, body 1
        ([StretchBend(1.0, 1.0, 1.0), StretchBend(1.0, 1.0, -1.5)], BOX1),  # and body 2
        ([StretchBend(1.0, 1e308, 1e308), StretchBend(1.0, 1.0, 1.0)], BOX1),  # rho is inf
    ] + draws(235, 300, _gap_draw)
    for case in cases:
        maps, box = case
        box2 = Box3(box.x_hi, box.x_hi + 0.5, box.y_lo, box.y_hi, box.z_lo, box.z_hi)
        model = NeoHookeanIncompressible(1.0)
        system = SystemSpec(BodySpec(box, model, maps[0]), BodySpec(box2, model, maps[1]))
        want = _hex_outcome(lambda: refimpl.gap_value(system))
        assert _hex_outcome(lambda: gap_value(system)) == want, case


def test_nominal_traction_looks_up_each_face_radius_once(monkeypatch):
    # the radius comes with the kept sigma_nn: one rho per face, whether
    # nominal_traction or contact_traction asks first; an abscissa that is
    # not a float keeps nothing and looks its radius up once per call
    body = dataclasses.replace(bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8).body1)
    fresh = dataclasses.replace(body)
    want = {x: contact_traction(fresh, x) * fresh.map.radius(x) / fresh.map.a
            for x in (0.0, 0.25, 0.5)}
    calls = []

    def counted(self, x, rho=StretchBend.rho):
        calls.append(x)
        return rho(self, x)

    monkeypatch.setattr(StretchBend, "rho", counted)
    assert nominal_traction(body, 0.0) == want[0.0]
    contact_traction(body, 0.0)
    assert nominal_traction(body, 0.0) == want[0.0]
    contact_traction(body, 0.5)
    assert nominal_traction(body, 0.5) == nominal_traction(body, 0.5) == want[0.5]
    assert calls == [0.0, 0.5]
    assert nominal_traction(body, np.float64(0.25)) == want[0.25]
    assert calls == [0.0, 0.5, 0.25]


def test_sample_grids_are_cached_read_only():
    bend = bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8).body1
    contact._grid.cache_clear()
    for n in (5, 7):
        xs = contact._abscissae(bend, n)
        assert xs.tolist() == np.linspace(bend.domain.x_lo, bend.domain.x_hi, n).tolist()
        assert not xs.flags.writeable
        assert contact._abscissae(dataclasses.replace(bend), n) is xs
    info = contact._grid.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_state_stack_matches_per_abscissa_calls():
    radial, constant = _bending_bodies(10, 12)
    triaxial = linked_stretch_pair(1.3, 0.7, 0.8, 1.6, tau=-0.2)
    for body in radial + constant + [triaxial.body1, triaxial.body2]:
        # enough radii that an array square would differ from C pow on some
        xs = np.linspace(body.domain.x_lo, body.domain.x_hi, 401)
        F, p = body.state(xs)
        assert F.shape == (401, 3, 3) and p.shape == (401,)
        for i, x in enumerate(xs.tolist()):
            Fx, px = body.state(x)
            assert type(px) is float
            assert F[i].tolist() == Fx.tolist() and p[i] == px


def test_bending_state_looks_up_each_radius_once(monkeypatch):
    body = bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8).body1
    calls = []

    def counted(self, x, rho=StretchBend.rho):
        calls.append(np.shape(x))
        return rho(self, x)

    monkeypatch.setattr(StretchBend, "rho", counted)
    F, p = body.state(np.linspace(body.domain.x_lo, body.domain.x_hi, 8))
    assert calls == [(8,)]
    assert F.shape == (8, 3, 3) and p.shape == (8,)


@pytest.mark.parametrize("axis", ["y", "z"])
def test_system_rejects_bodies_off_the_shared_span(axis):
    sys_ = stretch_pair(1.0, 1.0, -0.2)
    domain = dataclasses.replace(BOX2, **{axis + "_hi": 1.5})
    body2 = dataclasses.replace(sys_.body2, domain=domain)
    with pytest.raises(InvalidParameters, match="share the %s-range" % axis):
        dataclasses.replace(sys_, body2=body2)


@pytest.mark.parametrize(
    "domain, axis, values",
    [
        (BOX2, "x", (BOX2.x_hi,)),
        (BOX1, "z", (BOX1.z_lo, BOX1.z_hi)),
        (BOX2, "y", (BOX2.y_lo, BOX2.y_hi)),
        (Box3(-0.3, 0.2, 0.1, 0.7, -1.0, 2.5), "y", (0.1, 0.7)),
    ],
)
def test_face_points_are_shared_and_read_only(domain, axis, values):
    fresh = np.array([X for v in values for X in _face_samples(domain, axis, v)])
    pts = _face_points(domain, axis, values)
    assert np.array_equal(pts, fresh)
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0
    # an equal box gives the same grid object, built once
    assert _face_points(dataclasses.replace(domain), axis, values) is pts


@pytest.mark.parametrize(
    "system", [_STRETCH, _BEND, _BEND_TRIAL], ids=["stretch", "bend", "bend-trial"]
)
def test_own_data_maps_give_the_residuals_of_equal_copies(system):
    # a data map that is the body's own map skips its differences; equal
    # but distinct copies take the compared path, with the same floats
    own = DirichletData(system.body1.map, system.body2.map)
    copies = DirichletData(*(dataclasses.replace(m) for m in (own.map1, own.map2)))
    assert copies.map1 is not own.map1 and copies.map2 is not own.map2
    got = check_kinematic(system, dirichlet=own).residuals
    want = check_kinematic(system, dirichlet=copies).residuals
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


def test_verify_bending_trial_keeps_its_dirichlet_residual():
    # verify's trials differ from their data map 1, so the comparison runs
    from contactbounds import cli
    from contactbounds.energy import _resolved_data

    config = cli.parse_config(
        "[system]\nexample = bending\nA = 1.0\n[body1]\nC = 1.0\na = 1.0\nb = 1.0\n"
        "[body2]\nC = 1.0\na = 1.0\n"
    )
    ex = cli.EXAMPLES["bending"]
    exact = ex.reference(config)[1]
    data = _resolved_data(exact)
    for delta in (0.01, 0.03, 0.08):
        trial = replace_map1(exact, ex.trial(exact, delta))
        got = check_kinematic(trial, dirichlet=data).residuals["dirichlet"]
        copies = DirichletData(dataclasses.replace(data.map1), dataclasses.replace(data.map2))
        assert got > 0.0
        assert got == check_kinematic(trial, dirichlet=copies).residuals["dirichlet"]


def test_kinematic_check_rejects_a_held_face_below_the_minimum_radius():
    # body 2's map gives rho = -1 at its held face X = x_hi: whether the
    # held face is compared or skipped, the check raises
    low = StretchBend(_B2.A, _B2.a, -2.0 * _B2.a * BOX2.x_hi - 1.0)
    system = dataclasses.replace(
        _BEND, body2=dataclasses.replace(_BEND.body2, map=low),
        dirichlet=DirichletData(_B1, low),
    )
    with pytest.raises(InvalidParameters, match="below minimum at X = "):
        check_kinematic(system)
    with pytest.raises(InvalidParameters, match="below minimum at X = "):
        check_kinematic(system, dirichlet=DirichletData(_B1, dataclasses.replace(low)))


def counting_cauchy(monkeypatch):
    # the (body, abscissa) of each Cauchy stress evaluation
    calls, real = [], contact._sigma_nn

    def counted(body, x):
        calls.append((body, x))
        return real(body, x)

    monkeypatch.setattr(contact, "_sigma_nn", counted)
    return calls


def test_cauchy_traction_is_kept_per_body_and_abscissa(monkeypatch):
    body = dataclasses.replace(bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8).body1)
    calls = counting_cauchy(monkeypatch)
    t = contact_traction(body, 0.5)
    assert contact_traction(body, 0.5) == t
    assert nominal_traction(body, 0.5) == t * body.map.radius(0.5) / body.map.a
    assert [(b is body, x) for b, x in calls] == [(True, 0.5)]
    # another abscissa, and a numpy scalar, are evaluated anew
    contact_traction(body, 0.25)
    assert contact_traction(body, np.float64(0.5)) == t
    assert [x for _, x in calls] == [0.5, 0.25, 0.5]
    assert type(calls[-1][1]) is np.float64


def test_a_raising_face_raises_again(monkeypatch):
    # rho = -0.5 at x = 0: the traction raises on every call, and keeps nothing
    low = BodySpec(BOX1, NeoHookeanIncompressible(1.0), StretchBend(1.0, 1.0, -0.5))
    for _ in range(2):
        with pytest.raises(InvalidParameters, match="below minimum at X = 0$"):
            contact_traction(low, 0.0)
    assert low._memo == {}
    contact_traction(low, 0.5)
    assert list(low._memo) == [("sigma", 0.5)]
    # a stress that raises once is evaluated again on the next call
    body = dataclasses.replace(_BEND.body1)
    calls, real = [], contact._sigma_nn

    def fails_once(b, x):
        calls.append(x)
        if len(calls) == 1:
            raise ArithmeticError("first call")
        return real(b, x)

    monkeypatch.setattr(contact, "_sigma_nn", fails_once)
    with pytest.raises(ArithmeticError, match="first call"):
        contact_traction(body, 0.5)
    assert contact_traction(body, 0.5) == contact_traction(_BEND.body1, 0.5)
    assert contact_traction(body, 0.5) == contact_traction(_BEND.body1, 0.5)
    assert len(calls) == 2  # _BEND.body1 kept its traction when it was built


def test_a_replaced_body_evaluates_its_faces_anew(monkeypatch):
    # building the pair took body 1's traction at the contact plane already
    system = bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8)
    calls = counting_cauchy(monkeypatch)
    want = evaluate_contact(system)
    assert evaluate_contact(system) == want
    assert [(b is system.body2, x) for b, x in calls] == [(True, 0.5)]
    copy = dataclasses.replace(system, body1=dataclasses.replace(system.body1))
    assert evaluate_contact(copy) == want
    assert len(calls) == 2 and calls[1][0] is copy.body1


def test_a_filled_memo_leaves_equality_hash_repr_and_output_alone():
    from contactbounds.cli import format_jsonish

    system = bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8)
    fresh = [dataclasses.replace(b) for b in (system.body1, system.body2)]
    seen = [(b == f, hash(b) == hash(f), repr(b), format_jsonish(b)) for b, f in
            zip((system.body1, system.body2), fresh)]
    check_kinematic(system)
    check_static(system, -0.8)
    evaluate_contact(system)
    assert system.body1._memo and system.body2._memo
    for (b, f), before in zip(zip((system.body1, system.body2), fresh), seen):
        assert before == (True, True, repr(f), format_jsonish(f))
        assert (b == f, hash(b) == hash(f), repr(b), format_jsonish(b)) == before


def test_flank_residual_is_kept_per_data_map(monkeypatch):
    calls = []

    def counted(body, dmap, _real=contact._flank):
        calls.append((body, dmap))
        return _real(body, dmap)

    monkeypatch.setattr(contact, "_flank", counted)
    system = bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8)
    want = check_kinematic(system).residuals
    assert check_kinematic(system).residuals == want and len(calls) == 2
    # another data map for body 2 tilts its flank planes: a new residual
    m2 = system.body2.map
    tilted = DirichletData(system.body1.map, dataclasses.replace(m2, A=1.2 * m2.A))
    assert check_kinematic(system, tilted).residuals["dirichlet"] > want["dirichlet"]
    assert [dmap for _, dmap in calls[2:]] == [tilted.map2]
    # an equal data map (or a map with the same A and a) reads the kept one
    same = DirichletData(system.body1.map, dataclasses.replace(m2, b=m2.b + 1.0))
    check_kinematic(system, DirichletData(None, same.map2))
    assert len(calls) == 3


@pytest.mark.parametrize("slot", ["map1", "map2"])
@pytest.mark.parametrize(
    "dmap", [Homogeneous(np.eye(3)), TriaxialStretch(1.1)], ids=["homogeneous", "triaxial"]
)
def test_bending_data_map_of_another_family_is_a_family_mismatch(dmap, slot):
    # the flank planes are a bending map's: another family has none
    system = bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8)
    data = dataclasses.replace(DirichletData(_B1, _B2), **{slot: dmap})
    msg = "^body and data map deform in different families: StretchBend vs %s$"
    with pytest.raises(FamilyMismatch, match=msg % type(dmap).__name__):
        check_kinematic(system, dirichlet=data)


def test_homogeneous_data_map_pins_a_triaxial_held_face():
    # body 2's own placement as an affine map holds it exactly; moved, it does not
    system = linked_stretch_pair(1.3, 0.7, 0.8, 1.6, tau=-0.2)
    m2 = system.body2.map
    s = 1.0 / math.sqrt(m2.a)
    for shift, residual in ((0.0, 0.0), (0.01, 0.01)):
        held = Homogeneous(np.diag([m2.a, s, s]), t=(m2.b + shift, 0.0, 0.0))
        rep = check_kinematic(system, DirichletData(None, held))
        assert rep.residuals["dirichlet"] == pytest.approx(residual, rel=1e-12, abs=0.0)
        assert rep.kinematic_ok is (shift == 0.0)


def _unit_pair(box1, box2, b1=0.0):
    model = NeoHookeanIncompressible(1.0)
    return SystemSpec(
        BodySpec(box1, model, TriaxialStretch(1.0, b1)), BodySpec(box2, model, TriaxialStretch(1.0))
    )


_LEFT, _RIGHT = Box3(-0.5, 0.0, 0.0, 1.0, 0.0, 1.0), Box3(0.0, 0.5, 0.0, 1.0, 0.0, 1.0)
_PAST = math.nextafter(1e-12, 1.0)


def test_contact_closes_at_exactly_the_gap_tolerance():
    # equal stretches meet with a gap of exactly 0, so |gap - d_allow| = d_allow
    assert contact.GAP_TOL == 1e-10
    system = _unit_pair(BOX1, BOX2)
    assert gap_value(system) == 0.0
    assert evaluate_contact(dataclasses.replace(system, d_allow=1e-10)).regime == "closed"
    past = math.nextafter(1e-10, 1.0)
    assert evaluate_contact(dataclasses.replace(system, d_allow=past)).regime == "open"


def test_system_admits_interface_offsets_of_exactly_1e_12():
    # the contact plane: body 1 ends at 0.0, body 2 starts at 1e-12
    _unit_pair(_LEFT, dataclasses.replace(_RIGHT, x_lo=1e-12))
    with pytest.raises(InvalidParameters, match="share the contact plane"):
        _unit_pair(_LEFT, dataclasses.replace(_RIGHT, x_lo=_PAST))
    # a transverse span offset by 1e-12 at either end
    for axis in "yz":
        for end, span1, span2 in (("_lo", (0.0, 1.0), 1e-12), ("_hi", (-1.0, 0.0), 1e-12)):
            box1 = dataclasses.replace(_LEFT, **{axis + "_lo": span1[0], axis + "_hi": span1[1]})
            box2 = dataclasses.replace(_RIGHT, **{axis + "_lo": span1[0], axis + "_hi": span1[1]})
            _unit_pair(box1, dataclasses.replace(box2, **{axis + end: span2}))
            with pytest.raises(InvalidParameters, match="share the %s-range" % axis):
                _unit_pair(box1, dataclasses.replace(box2, **{axis + end: _PAST}))


def test_kinematic_check_admits_a_gap_residual_of_exactly_its_tolerance():
    # with the contact plane at x = 0 the gap is body 1's offset b1 alone
    assert contact.TOLERANCES["gap"] == 1e-12
    rep = check_kinematic(_unit_pair(_LEFT, _RIGHT, b1=1e-12))
    assert rep.residuals == {"dirichlet": 0.0, "gap": 1e-12, "constraint": 0.0}
    assert rep.kinematic_ok
    assert not check_kinematic(_unit_pair(_LEFT, _RIGHT, b1=_PAST)).kinematic_ok


def test_static_check_admits_residuals_of_exactly_their_tolerances():
    # C = 1e-8 at F = I: body 1 carries sigma = C - p1 = 0, body 2 -1e-8 on
    # every face, so its free faces and the interface mismatch read 1e-8
    assert contact.TOLERANCES["neumann"] == contact.TOLERANCES["action_reaction"] == 1e-8
    model = NeoHookeanIncompressible(1e-8)

    def system(p2):
        body = BodySpec(BOX1, model, TriaxialStretch(1.0), Constant(1e-8))
        return SystemSpec(body, BodySpec(BOX2, model, TriaxialStretch(1.0), Constant(p2)))

    rep = check_static(system(2e-8), 0.0)
    assert (rep.residuals["neumann"], rep.residuals["action_reaction"]) == (1e-8, 1e-8)
    assert rep.static_ok
    assert not check_static(system(math.nextafter(2e-8, 1.0)), 0.0).static_ok
