import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from test_tensor3 import assert_same_outcome, edge_entries, edge_mat3, outcome

from contactbounds import material
from contactbounds.errors import ConstraintViolated, InvalidParameters, NonPositiveJacobian
from contactbounds.material import (
    Constant,
    NeoHookeanIncompressible,
    RadialProfile,
    cauchy_stress,
    complementary_density,
    hessian_quadratic_form,
    piola_stress,
    strain_energy,
)
from contactbounds.tensor3 import det

# frozen: 0.5 * (0.81^2 + 2 / 0.81 - 3)
W_AT_081 = 0.06261790123456779


def triaxial_f(a):
    s = 1.0 / math.sqrt(a)
    return np.diag([a, s, s])


def random_isochoric(rng):
    lam = np.exp(rng.uniform(-0.3, 0.3, 2))
    F = np.diag([lam[0], lam[1], 1.0 / (lam[0] * lam[1])])
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(Q) < 0.0:
        Q[:, 0] = -Q[:, 0]
    return Q @ F


def test_strain_energy_frozen_value():
    model = NeoHookeanIncompressible(1.0)
    assert strain_energy(model, triaxial_f(0.81)) == pytest.approx(
        W_AT_081, rel=1e-14
    )
    assert strain_energy(model, np.eye(3)) == 0.0


def test_strain_energy_scales_with_modulus():
    F = triaxial_f(0.7)
    w1 = strain_energy(NeoHookeanIncompressible(1.0), F)
    w3 = strain_energy(NeoHookeanIncompressible(3.0), F)
    assert w3 == pytest.approx(3.0 * w1, rel=1e-15)


def test_strain_energy_enforces_constraint():
    with pytest.raises(ConstraintViolated):
        strain_energy(NeoHookeanIncompressible(1.0), np.diag([1.1, 1.0, 1.0]))


def test_strain_energy_rejects_negative_jacobian():
    with pytest.raises(NonPositiveJacobian):
        strain_energy(NeoHookeanIncompressible(1.0), np.diag([-1.0, 1.0, 1.0]))


def test_piola_stress_rejects_det_zero():
    # det F = 0 exactly, one gradient and in a stack: a nonpositive Jacobian
    model, singular = NeoHookeanIncompressible(1.0), np.diag([1.0, 1.0, 0.0])
    with pytest.raises(NonPositiveJacobian, match="det F = 0$"):
        piola_stress(model, singular)
    with pytest.raises(NonPositiveJacobian, match="det F = 0$"):
        piola_stress(model, np.array([np.eye(3), singular]))


def test_stacks_equal_single_calls():
    model = NeoHookeanIncompressible(1.3)
    rng = np.random.default_rng(4)
    Fs = np.array([random_isochoric(rng) for _ in range(30)])
    ps = rng.uniform(-0.5, 0.5, 30)
    W = strain_energy(model, Fs)
    P = piola_stress(model, Fs, ps)
    Wc = complementary_density(model, Fs, ps)
    for F, p, w, Pk, wc in zip(Fs, ps, W, P, Wc):
        assert w == strain_energy(model, F)
        assert np.array_equal(Pk, piola_stress(model, F, p))
        assert wc == complementary_density(model, F, p)
    # cauchy_stress transposes each matrix, not the stack axes
    for n in (1, 2, 3, 30):
        S = cauchy_stress(model, Fs[:n], ps[:n])
        assert S.shape == (n, 3, 3)
        for F, p, Sk in zip(Fs, ps, S):
            assert Sk.tobytes() == cauchy_stress(model, F, p).tobytes()


def test_stack_check_names_the_first_failing_matrix():
    model = NeoHookeanIncompressible(1.0)
    I, J11, flip = np.eye(3), np.diag([1.1, 1.0, 1.0]), np.diag([-1.0, 1.0, 1.0])
    with pytest.raises(ConstraintViolated, match="= 1.000e-01"):
        strain_energy(model, np.array([I, J11, flip]))
    with pytest.raises(NonPositiveJacobian, match="det F = -1$"):
        strain_energy(model, np.array([I, flip, J11]))


@given(edge_mat3, edge_entries)
@settings(max_examples=150, deadline=None, derandomize=True)
@example(np.diag([2.0, 0.5, 1.0]), -0.0)
@example(np.diag([-1.0, 1.0, 1.0]), 0.5)  # det F <= 0: the same error
@example(np.array([[1e300, 0.0, 0.0], [0.0, 1e-300, 5e-324], [0.0, -0.0, 1.0]]), 1e300)
def test_single_gradient_stress_equals_the_stack(F, p):
    # one gradient takes tensor3's Python-float path, a stack numpy's
    model = NeoHookeanIncompressible(1.7)

    def P_stack():
        return piola_stress(model, F[None], [p])[0]

    assert_same_outcome(outcome(piola_stress, model, F, p), outcome(P_stack))
    # one gradient's cauchy_stress keeps its Python-float J: J^-1 P F^T
    # from the stack's P and J
    want = outcome(lambda: (P_stack() @ F.T) / det(F[None])[0])
    assert_same_outcome(outcome(cauchy_stress, model, F, p), want)


def test_cauchy_stress_checks_the_determinant_once(monkeypatch):
    calls = []
    check = material._check_det
    monkeypatch.setattr(material, "_check_det", lambda *a: calls.append(1) or check(*a))
    cauchy_stress(NeoHookeanIncompressible(1.0), triaxial_f(0.81), 0.9)
    assert len(calls) == 1


def test_piola_matches_finite_differences_of_augmented_energy():
    rng = np.random.default_rng(11)
    model = NeoHookeanIncompressible(1.7)
    worst = 0.0
    for _ in range(20):
        F = random_isochoric(rng)
        p = rng.uniform(-0.8, 0.8)
        P = piola_stress(model, F, p)
        G = rng.standard_normal((3, 3))
        G /= np.linalg.norm(G)
        h = 1e-6

        def aug(M):
            return 0.5 * model.C * (np.sum(M * M) - 3.0) - p * (np.linalg.det(M) - 1.0)

        fd = (aug(F + h * G) - aug(F - h * G)) / (2.0 * h)
        worst = max(worst, abs(fd - float(np.sum(P * G))) / max(1.0, abs(fd)))
    assert worst < 1e-6


def test_cauchy_stress_frozen_uniaxial_value():
    model = NeoHookeanIncompressible(1.0)
    sig = cauchy_stress(model, triaxial_f(0.81), 0.9)
    # sigma_11 = C a^2 - p
    assert sig[0, 0] == pytest.approx(0.81**2 - 0.9, abs=1e-14)
    assert sig == pytest.approx(sig.T, abs=1e-14)


def test_cauchy_transverse_free_at_reaction_pressure():
    a = 0.77
    model = NeoHookeanIncompressible(1.3)
    sig = cauchy_stress(model, triaxial_f(a), 1.3 / a)
    assert abs(sig[1, 1]) < 1e-14
    assert abs(sig[2, 2]) < 1e-14


def test_complementary_density_is_legendre_gap():
    model = NeoHookeanIncompressible(0.9)
    F = triaxial_f(0.85)
    p = 0.4
    P = piola_stress(model, F, p)
    expected = float(np.sum(P * F)) - strain_energy(model, F)
    assert complementary_density(model, F, p) == pytest.approx(expected, rel=1e-14)


def test_hessian_form_matches_second_differences():
    rng = np.random.default_rng(5)
    model = NeoHookeanIncompressible(1.0)
    for _ in range(10):
        F = random_isochoric(rng)
        p = rng.uniform(-0.8, 0.8)
        G = rng.standard_normal((3, 3))
        G /= np.linalg.norm(G)
        h = 1e-4

        def aug(M):
            return 0.5 * model.C * (np.sum(M * M) - 3.0) - p * (np.linalg.det(M) - 1.0)

        fd = (aug(F + h * G) - 2.0 * aug(F) + aug(F - h * G)) / h**2
        q = hessian_quadratic_form(model, F, p, G)
        assert q == pytest.approx(fd, abs=1e-5)


def test_hessian_form_cubic_expansion_coefficient():
    # det(F + t G) is cubic in t; the quadratic coefficient is recovered
    # exactly from evaluations at t = -1, 0, 1
    rng = np.random.default_rng(19)
    model = NeoHookeanIncompressible(1.0)
    for _ in range(10):
        F = rng.standard_normal((3, 3))
        G = rng.standard_normal((3, 3))
        p = rng.uniform(-1.0, 1.0)
        c2 = 0.5 * (np.linalg.det(F + G) + np.linalg.det(F - G) - 2.0 * np.linalg.det(F))
        expected = model.C * float(np.sum(G * G)) - 2.0 * p * c2
        assert hessian_quadratic_form(model, F, p, G) == pytest.approx(
            expected, abs=1e-10
        )


def test_model_parameter_validation():
    with pytest.raises(InvalidParameters):
        NeoHookeanIncompressible(0.0)
    with pytest.raises(InvalidParameters):
        Constant(math.inf)


def test_unknown_model_rejected():
    with pytest.raises(InvalidParameters):
        strain_energy(object(), np.eye(3))
    with pytest.raises(InvalidParameters):
        piola_stress(object(), np.eye(3))
    with pytest.raises(InvalidParameters):
        hessian_quadratic_form(object(), np.eye(3), 0.0, np.eye(3))


def test_radial_profile_matches_formula():
    prof = RadialProfile(0.7, -0.3, 1.1)
    for r in np.linspace(0.5, 2.0, 17):
        assert prof(r) == pytest.approx(0.7 / r**2 - 0.3 * r**2 + 1.1, abs=1e-12)
        assert prof.derivative(r) == pytest.approx(-1.4 / r**3 - 0.6 * r, abs=1e-11)


def test_radial_profile_validation():
    for bad in (math.inf, -math.inf, math.nan):
        for coeffs in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
            with pytest.raises(InvalidParameters):
                RadialProfile(*coeffs)


def test_pressure_fields_are_called_with_the_radius():
    assert Constant(0.3)(2.0) == 0.3
    assert Constant(0.3)(None) == 0.3
    assert Constant(0.3).derivative(2.0) == 0.0
    prof = RadialProfile(1.0, 1.0, -0.5)
    assert prof(2.0) == pytest.approx(3.75, abs=1e-12)
