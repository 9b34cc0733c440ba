"""The hyperelastic material model and pointwise stress measures.

The model is the incompressible neo-Hookean solid

    W(F) = (C / 2) (I1(F) - 3),     det F = 1,

whose first Piola-Kirchhoff stress carries a reaction pressure p:

    P = C F - p cof F.

At det F = 1 the cofactor equals the inverse transpose, so this agrees
with the usual C F - p F^{-T} while staying polynomial in F.

strain_energy, piola_stress, cauchy_stress and complementary_density
also take a stack of gradients and pressures: matrix by matrix the
floats of single calls, and a failed check names the first failing
matrix. One gradient takes tensor3's Python-float path for its
determinant and cofactors, with the floats of the stack.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolated, InvalidParameters, NonPositiveJacobian
from .tensor3 import _cpow, _scalar, cofactor, ddot, det

__all__ = [
    "NeoHookeanIncompressible",
    "Constant",
    "RadialProfile",
    "strain_energy",
    "piola_stress",
    "cauchy_stress",
    "complementary_density",
    "hessian_quadratic_form",
]

#: |det F - 1| beyond this violates the incompressibility constraint
CONSTRAINT_TOL = 1e-8


@dataclass(frozen=True)
class NeoHookeanIncompressible:
    C: float

    def __post_init__(self):
        if not (math.isfinite(self.C) and self.C > 0.0):
            raise InvalidParameters("modulus C = %r must be positive" % (self.C,))


@dataclass(frozen=True)
class Constant:
    """Spatially constant pressure field; called with a radius, or None."""

    p: float
    c_inv = c_sq = 0.0  # with c0 = p, the RadialProfile it equals

    def __post_init__(self):
        if not math.isfinite(self.p):
            raise InvalidParameters("pressure must be finite")
        object.__setattr__(self, "c0", self.p)

    def __call__(self, r):
        return self.p

    def derivative(self, r):
        return 0.0

    def _derivative(self, r, r3):
        return 0.0


@dataclass(frozen=True)
class RadialProfile:
    """Pressure varying with the current radius r of a bent block:

        p(r) = c_inv / r^2 + c_sq r^2 + c0.

    This family holds the exact equilibrium pressure of Rivlin's flexure
    (see contact.solve_radial_pressure). An array of radii gives an array.
    """

    c_inv: float
    c_sq: float
    c0: float

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.c_inv, self.c_sq, self.c0)):
            raise InvalidParameters("profile coefficients must be finite")

    def __call__(self, r):
        r2 = _cpow(r, 2)
        return _scalar(self.c_inv / r2 + self.c_sq * r2 + self.c0)

    def derivative(self, r):
        return self._derivative(r, _cpow(r, 3))

    def _derivative(self, r, r3):
        # dp/dr from r and its cube, for a caller that has cubed r already
        return _scalar(-2.0 * self.c_inv / r3 + 2.0 * self.c_sq * r)


def _check_det(F, constrained=False):
    # det F, or an error at the first matrix with det F <= 0 or, when
    # constrained, with |det F - 1| beyond the constraint tolerance
    J = det(F)
    bad = J <= 0.0
    if constrained:
        bad = bad | (abs(J - 1.0) > CONSTRAINT_TOL)
    if bad if type(bad) is bool else bad.any():  # a bool for one matrix
        j = np.ravel(J)[np.argmax(np.ravel(bad))]
        if j <= 0.0:
            raise NonPositiveJacobian("det F = %.6g" % j)
        raise ConstraintViolated("|det F - 1| = %.3e" % abs(j - 1.0))
    return J


def _check_model(model):
    if not isinstance(model, NeoHookeanIncompressible):
        raise InvalidParameters("unknown material model %r" % (model,))


def strain_energy(model, F):
    """Stored energy density W(F)."""
    _check_model(model)
    F = np.asarray(F, dtype=float)
    _check_det(F, constrained=True)
    return 0.5 * model.C * (ddot(F, F) - 3.0)


def _piola(model, F, pressure):
    # P = C F - p cof F for a checked model and gradient
    return model.C * F - np.asarray(pressure, dtype=float)[..., None, None] * cofactor(F)


def piola_stress(model, F, pressure=0.0):
    """First Piola-Kirchhoff stress; pressure is the constraint reaction."""
    _check_model(model)
    F = np.asarray(F, dtype=float)
    _check_det(F)
    return _piola(model, F, pressure)


def cauchy_stress(model, F, pressure=0.0):
    """sigma = J^{-1} P F^T, with one determinant check."""
    F = np.asarray(F, dtype=float)
    J = _check_det(F)
    _check_model(model)
    sigma = _piola(model, F, pressure) @ np.swapaxes(F, -1, -2)
    return sigma / (J if F.ndim == 2 else J[..., None, None])  # one matrix: a float J


def complementary_density(model, F, pressure=0.0):
    """W_c = P : F - W, evaluated from the same P and W."""
    F = np.asarray(F, dtype=float)
    P = piola_stress(model, F, pressure)
    return ddot(P, F) - strain_energy(model, F)


def hessian_quadratic_form(model, F, pressure, G):
    """Second derivative of W + lambda (det F - 1) along G, lambda = -p.

    Uses the exact expansion det(F + t G) = det F + t cof(F):G
    + t^2 cof(G):F + t^3 det G, so the form is polynomial and exact.
    """
    _check_model(model)
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    return model.C * ddot(G, G) - pressure * 2.0 * ddot(cofactor(G), F)
