"""Acceptance battery: one test per shipped guarantee.

Each test is self-contained and seeded, so a failure line names the
guarantee that broke. Tolerances are part of the contract and are not
to be loosened casually.
"""

import dataclasses
import math

import numpy as np
import pytest

from contactbounds import cli
from contactbounds.bounds import (
    brute_force_oracle,
    criteria_check,
    load_interval_bending,
    load_interval_cohesive,
    load_interval_compression,
    numeric_load_bounds,
    search_bracket,
)
from contactbounds.contact import (
    BodySpec,
    check_kinematic,
    check_static,
    evaluate_contact,
    solve_radial_pressure,
)
from contactbounds.energy import (
    QuadratureRule,
    divergence_identity_residual,
    enclosure,
    integrate_volume,
)
from contactbounds.errors import NonPositiveJacobian
from contactbounds.kinematics import (
    Box3,
    Homogeneous,
    StretchBend,
    TriaxialStretch,
    image_volume,
    injectivity_check,
    jacobian,
)
from contactbounds.material import (
    Constant,
    NeoHookeanIncompressible,
    piola_stress,
)
from contactbounds.states import BOX1, bend_pair, linked_bend_pair, stretch_pair

RULE = QuadratureRule(8)


def replace_map1(sys_, m):
    body = dataclasses.replace(sys_.body1, map=m)
    return dataclasses.replace(sys_, body1=body)


def closing_offset(sys_, a_t):
    m2 = sys_.body2.map
    return (m2.a * sys_.x_c + m2.b) - a_t * sys_.x_c


def hoop_potential(C, A, a, rho):
    # antiderivative of the radial momentum source in the squared radius
    return C * (A**2 * rho / (2.0 * a) + a**2 / (2.0 * rho))


def test_criterion_01_compression_interval_reproduction():
    rng = np.random.default_rng(101)
    for _ in range(20):
        C1, C2 = rng.uniform(0.5, 3.0, 2)
        a1, a2 = rng.uniform(0.5, 0.99, 2)
        lo_ref = -min(C1 * (math.sqrt(a1) - a1**2), C2 * (math.sqrt(a2) - a2**2))
        iv = load_interval_compression(C1, C2, a1, a2)
        assert iv.tau_lo == lo_ref and iv.tau_hi == 0.0 and not iv.empty
        fp = {"C1": C1, "C2": C2, "a1": a1, "a2": a2}
        b_lo, b_hi = search_bracket("compression", fp)
        res = (b_hi - b_lo) / 1000
        orc = brute_force_oracle("compression", fp, 1000)
        assert abs(orc.tau_lo - lo_ref) <= 2.0 * res
        assert abs(orc.tau_hi - 0.0) <= 2.0 * res
        num = numeric_load_bounds("compression", fp)
        assert abs(num.tau_lo - lo_ref) <= 1e-6
        assert abs(num.tau_hi - 0.0) <= 1e-6


def test_criterion_02_cohesive_interval_reproduction():
    rng = np.random.default_rng(102)
    for _ in range(20):
        C1, C2 = rng.uniform(0.5, 3.0, 2)
        a1, a2 = rng.uniform(0.5, 0.99, 2)
        g = rng.uniform(0.1, 2.0)
        hi_ref = min(g, C1 * (math.sqrt(a1) + a1**2), C2 * (math.sqrt(a2) + a2**2))
        lo_ref = -min(C1 * (math.sqrt(a1) - a1**2), C2 * (math.sqrt(a2) - a2**2))
        iv = load_interval_cohesive(C1, C2, a1, a2, g)
        assert iv.tau_hi == hi_ref and iv.tau_lo == lo_ref and not iv.empty
        fp = {"C1": C1, "C2": C2, "a1": a1, "a2": a2, "g": g}
        b_lo, b_hi = search_bracket("cohesive", fp)
        res = (b_hi - b_lo) / 1000
        orc = brute_force_oracle("cohesive", fp, 1000)
        assert abs(orc.tau_hi - hi_ref) <= 2.0 * res
        assert abs(orc.tau_lo - lo_ref) <= 2.0 * res
        num = numeric_load_bounds("cohesive", fp)
        assert abs(num.tau_hi - hi_ref) <= 1e-6
        assert abs(num.tau_lo - lo_ref) <= 1e-6
        # separated interface: the only admissible load is the cohesive cap
        fp_open = dict(fp, contact_closed=False)
        for got in (
            load_interval_cohesive(C1, C2, a1, a2, g, contact_closed=False),
            numeric_load_bounds("cohesive", fp_open),
            brute_force_oracle("cohesive", fp_open),
        ):
            assert got.tau_lo == g and got.tau_hi == g and got.regime == "open"


def test_criterion_03_bending_interval_and_radial_equilibrium():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = rng.uniform(0.7, 1.2)
        a = rng.uniform(0.8, 1.1)
        b = rng.uniform(0.8, 2.0)
        assert math.sqrt(b) >= 0.5
        iv = load_interval_bending(1.0, 1.0, A, a, a, b, b)
        assert not iv.empty
        fp = {"C1": 1.0, "C2": 1.0, "A": A, "a1": a, "a2": a, "b1": b, "b2": b}
        b_lo, b_hi = search_bracket("bending", fp)
        res = (b_hi - b_lo) / 1000
        orc = brute_force_oracle("bending", fp, 1000)
        assert orc.regime == "closed"
        assert abs(orc.tau_lo - iv.tau_lo) <= 2.0 * res
        assert abs(orc.tau_hi - iv.tau_hi) <= 2.0 * res
        # the pressure profile behind the interval solves radial momentum
        body = BodySpec(BOX1, NeoHookeanIncompressible(1.0), StretchBend(A, a, b))
        prof = solve_radial_pressure(body, 0.5 * iv.tau_lo)
        r_in = math.sqrt(b)
        r_out = math.sqrt(a + b)
        worst = 0.0
        for r in np.linspace(r_in, r_out, 201):
            dsig = -2.0 * a**2 / r**3 - prof.derivative(r)
            rhs = A**2 * r / a - a**2 / r**3
            worst = max(worst, abs(dsig - rhs))
        assert worst < 1e-8


def test_criterion_04_energy_enclosure_and_exact_equality():
    rng = np.random.default_rng(104)
    worst_gap = math.inf

    for _ in range(200):  # compressed pair, trial opens or grazes the gap
        C1, C2 = rng.uniform(0.5, 3.0, 2)
        tau = -rng.uniform(0.02, 0.3) * min(C1, C2)
        exact = stretch_pair(C1, C2, tau)
        a_t = exact.body1.map.a * (1.0 + rng.uniform(0.005, 0.08))
        b_t = closing_offset(exact, a_t) - rng.uniform(0.0, 0.05)
        e = enclosure(replace_map1(exact, TriaxialStretch(a_t, b_t)), exact, tau, RULE)
        assert e.e_complementary <= e.e_potential + 1e-9
        worst_gap = min(worst_gap, e.gap)

    for _ in range(200):  # cohesive pair, trial keeps the interface closed
        C1, C2 = rng.uniform(0.5, 3.0, 2)
        g = rng.uniform(0.1, 2.0)
        tau = rng.uniform(0.05, 0.9) * min(g, 0.5 * min(C1, C2))
        exact = stretch_pair(C1, C2, tau, g=g)
        a_t = exact.body1.map.a * (1.0 + rng.uniform(0.005, 0.08))
        b_t = closing_offset(exact, a_t)
        e = enclosure(replace_map1(exact, TriaxialStretch(a_t, b_t)), exact, tau, RULE)
        assert e.e_complementary <= e.e_potential + 1e-9
        worst_gap = min(worst_gap, e.gap)

    for _ in range(200):  # bent pair, trial retracts the inner body
        C1, C2 = rng.uniform(0.5, 3.0, 2)
        A = rng.uniform(0.8, 1.2)
        a1, a2 = rng.uniform(0.85, 1.1, 2)
        rho_out = rng.uniform(a1 + a2 + 0.6, a1 + a2 + 2.0)
        rho_c = rho_out - a2
        rho_1i = rho_c - a1
        r0 = math.sqrt(rho_1i)
        # keep the interface compressive so the exact state stays admissible
        need = (
            hoop_potential(C1, A, a1, rho_c) - hoop_potential(C1, A, a1, rho_1i)
        ) * r0 / a1
        tau = -(max(need, 0.0) + rng.uniform(0.02, 0.25) * min(C1, C2))
        exact = bend_pair(C1, C2, A, a1, a2, rho_out, tau)
        m1 = exact.body1.map
        delta = rng.uniform(0.005, min(0.08, 0.5 * m1.b))
        e = enclosure(replace_map1(exact, StretchBend(A, a1, m1.b - delta)),
                      exact, tau, RULE)
        assert e.e_complementary <= e.e_potential + 1e-9
        worst_gap = min(worst_gap, e.gap)

    assert worst_gap >= -1e-9

    # constructed exact solutions close the bracket
    for tau in (-0.12, -0.31, 0.2):
        exact = stretch_pair(1.3, 0.9, tau, g=max(tau, 0.0) + 0.1)
        assert abs(enclosure(exact, exact, tau, RULE).gap) < 1e-8
    for tau in (-0.8, -1.2):  # compressive enough to keep the interface closed
        exact = bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, tau)
        assert abs(enclosure(exact, exact, tau, RULE).gap) < 1e-8


def test_criterion_05_stress_matches_augmented_energy_differences():
    rng = np.random.default_rng(105)
    model = NeoHookeanIncompressible(1.7)
    worst = 0.0
    count = 0
    while count < 100:
        M = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        d = np.linalg.det(M)
        if d <= 0.1:
            continue
        count += 1
        F = M / d ** (1.0 / 3.0)
        p = rng.uniform(-0.8, 0.8)
        P = piola_stress(model, F, p)
        G = rng.standard_normal((3, 3))
        G /= np.linalg.norm(G)
        h = 1e-6

        def aug(X):
            return 0.5 * model.C * (np.sum(X * X) - 3.0) - p * (np.linalg.det(X) - 1.0)

        fd = (aug(F + h * G) - aug(F - h * G)) / (2.0 * h)
        worst = max(worst, abs(fd - float(np.sum(P * G))) / max(1.0, abs(fd)))
    assert worst < 1e-6


def test_criterion_06_divergence_identity_and_negative_control():
    for tau in (-0.1, -0.3, -0.6):
        assert divergence_identity_residual(stretch_pair(1.0, 2.0, tau)) < 1e-9
    # constant pressure cannot equilibrate a bent body
    bad = linked_bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, tau=-0.2)
    assert divergence_identity_residual(bad) > 1e-3


def test_criterion_07_criteria_flip_brackets_the_pressure_window():
    C = 1.3
    for a in (0.64, 0.81, 1.0):
        w = C * math.sqrt(a)
        body = BodySpec(
            BOX1, NeoHookeanIncompressible(C), TriaxialStretch(a), Constant(0.0)
        )
        for sign in (1.0, -1.0):
            inside = dataclasses.replace(body, pressure=Constant(sign * (w - 0.02)))
            outside = dataclasses.replace(body, pressure=Constant(sign * (w + 0.02)))
            r_in = criteria_check(inside, probe_count=50)
            r_out = criteria_check(outside, probe_count=50)
            assert r_in.primal_ok and r_in.complementary_ok, (a, sign)
            assert not r_out.complementary_ok, (a, sign)
    # curved analog on the worked geometry: windows set by the largest stretch
    sys_ = linked_bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, tau=0.0)
    for body, lam in ((sys_.body1, math.sqrt(2.0)), (sys_.body2, math.sqrt(3.0))):
        w = 1.0 / lam
        for sign in (1.0, -1.0):
            inside = dataclasses.replace(body, pressure=Constant(sign * (w - 0.02)))
            outside = dataclasses.replace(body, pressure=Constant(sign * (w + 0.02)))
            assert criteria_check(inside, probe_count=50).complementary_ok
            assert not criteria_check(outside, probe_count=50).complementary_ok


def test_criterion_08_volume_identity_for_affine_maps():
    rng = np.random.default_rng(108)
    box = Box3(0.0, 0.7, -0.2, 0.9, 0.1, 1.3)
    for _ in range(15):
        m = TriaxialStretch(rng.uniform(0.3, 2.5), rng.uniform(-1.0, 1.0))
        quad = integrate_volume(lambda X: jacobian(m, X), box, RULE)
        vol = image_volume(m, box)
        assert abs(quad - vol) <= 1e-9 * max(1.0, abs(vol))
        assert injectivity_check(m, box)
    for _ in range(15):
        F0 = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
        if np.linalg.det(F0) <= 0.05:
            continue
        m = Homogeneous(F0, rng.standard_normal(3))
        quad = integrate_volume(lambda X: jacobian(m, X), box, RULE)
        vol = image_volume(m, box)
        assert abs(quad - vol) <= 1e-9 * max(1.0, abs(vol))
        assert injectivity_check(m, box)
    with pytest.raises(NonPositiveJacobian):
        image_volume(Homogeneous(np.diag([-1.0, 1.0, 1.0])), box)


def test_criterion_09_metamorphic_suite():
    rng = np.random.default_rng(109)
    for _ in range(20):
        C1, C2 = rng.uniform(0.5, 3.0, 2)
        a1, a2 = rng.uniform(0.5, 0.99, 2)
        g = rng.uniform(0.1, 2.0)
        A = rng.uniform(0.7, 1.2)
        ab = rng.uniform(0.8, 1.1)
        bb = rng.uniform(0.8, 2.0)
        base = (
            load_interval_compression(C1, C2, a1, a2),
            load_interval_cohesive(C1, C2, a1, a2, g),
            load_interval_bending(C1, C2, A, ab, ab, bb, bb),
        )
        scaled_inputs = lambda k: (
            load_interval_compression(k * C1, k * C2, a1, a2),
            load_interval_cohesive(k * C1, k * C2, a1, a2, k * g),
            load_interval_bending(k * C1, k * C2, A, ab, ab, bb, bb),
        )
        for k in (0.5, 2.0):
            for iv, ref in zip(scaled_inputs(k), base):
                assert iv.tau_lo == k * ref.tau_lo
                assert iv.tau_hi == k * ref.tau_hi
        for iv, ref in zip(scaled_inputs(10.0), base):
            assert math.isclose(iv.tau_lo, 10.0 * ref.tau_lo, rel_tol=1e-14, abs_tol=0.0)
            assert math.isclose(iv.tau_hi, 10.0 * ref.tau_hi, rel_tol=1e-14, abs_tol=0.0)
        # the planar families carry no body order
        assert load_interval_compression(C2, C1, a2, a1) == base[0]
        assert load_interval_cohesive(C2, C1, a2, a1, g) == base[1]

    # translating the whole assembly moves no residual
    for _ in range(5):
        C1, C2 = rng.uniform(0.5, 3.0, 2)
        tau = -rng.uniform(0.05, 0.3) * min(C1, C2)
        shift = rng.uniform(-5.0, 5.0)
        ref = stretch_pair(C1, C2, tau)
        moved = stretch_pair(C1, C2, tau, b2=shift)
        kin_r, kin_m = check_kinematic(ref), check_kinematic(moved)
        st_r, st_m = check_static(ref, tau), check_static(moved, tau)
        for key in kin_r.residuals:
            assert abs(kin_r.residuals[key] - kin_m.residuals[key]) <= 1e-12
        for key in st_r.residuals:
            assert abs(st_r.residuals[key] - st_m.residuals[key]) <= 1e-12
        ev_r, ev_m = evaluate_contact(ref), evaluate_contact(moved)
        assert abs(ev_r.gap - ev_m.gap) <= 1e-12
        assert abs(ev_r.traction_normal - ev_m.traction_normal) <= 1e-12
        assert abs(enclosure(ref, ref, tau, RULE).gap
                   - enclosure(moved, moved, tau, RULE).gap) <= 1e-12


def test_criterion_10_verify_is_deterministic():
    cfg = cli.parse_config(
        "[system]\nexample = compression\n"
        "[body1]\nC = 1.0\na = 0.81\n"
        "[body2]\nC = 1.0\na = 0.81\n"
        "[load]\ntau = -0.3\n"
        "[numerics]\nseed = 7\n"
    )
    code1, text1 = cli.verify(cfg)
    code2, text2 = cli.verify(cfg)
    assert code1 == 0 and code2 == 0
    assert text1 == text2
