"""Hyperelastic material models and pointwise stress measures.

The workhorse is the incompressible neo-Hookean solid

    W(F) = (C / 2) (I1(F) - 3),     det F = 1,

whose first Piola-Kirchhoff stress carries a reaction pressure p:

    P = C F - p cof F.

At det F = 1 the cofactor equals the inverse transpose, so this agrees
with the usual C F - p F^{-T} while staying polynomial in F. A weakly
compressible variant replaces the constraint by a quadratic volumetric
penalty; there the pressure argument is ignored.

strain_energy, piola_stress and complementary_density also take a stack
of gradients and pressures: matrix by matrix the floats of single calls,
and a failed check names the first failing matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolated, InvalidParameters, NonPositiveJacobian
from .tensor3 import _cpow, _scalar, cofactor, ddot, det

__all__ = [
    "NeoHookeanIncompressible",
    "NeoHookeanCompressible",
    "Constant",
    "RadialProfile",
    "pressure_at",
    "strain_energy",
    "constraint_value",
    "constraint_gradient",
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
class NeoHookeanCompressible:
    C: float
    D: float

    def __post_init__(self):
        if not (math.isfinite(self.C) and self.C > 0.0):
            raise InvalidParameters("modulus C = %r must be positive" % (self.C,))
        if not (math.isfinite(self.D) and self.D > 0.0):
            raise InvalidParameters("penalty D = %r must be positive" % (self.D,))


@dataclass(frozen=True)
class Constant:
    """Spatially constant pressure field."""

    p: float

    def __post_init__(self):
        if not math.isfinite(self.p):
            raise InvalidParameters("pressure must be finite")


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
        return _scalar(-2.0 * self.c_inv / _cpow(r, 3) + 2.0 * self.c_sq * r)


def pressure_at(pressure, r=None):
    """Evaluate a pressure field; RadialProfile needs the radius."""
    if isinstance(pressure, Constant):
        return pressure.p
    if isinstance(pressure, RadialProfile):
        if r is None:
            raise InvalidParameters("RadialProfile requires an evaluation radius")
        return pressure(r)
    raise InvalidParameters("unknown pressure field %r" % (pressure,))


def _check_det(F, constrained=False):
    # det F, or an error at the first matrix with det F <= 0 or, when
    # constrained, with |det F - 1| beyond the constraint tolerance
    J = det(F)
    bad = J <= 0.0
    if constrained:
        bad = bad | (np.abs(J - 1.0) > CONSTRAINT_TOL)
    if np.any(bad):
        j = np.ravel(J)[np.argmax(np.ravel(bad))]
        if j <= 0.0:
            raise NonPositiveJacobian("det F = %.6g" % j)
        raise ConstraintViolated("|det F - 1| = %.3e" % abs(j - 1.0))
    return J


def strain_energy(model, F):
    """Stored energy density W(F)."""
    F = np.asarray(F, dtype=float)
    J = _check_det(F, isinstance(model, NeoHookeanIncompressible))
    i1 = ddot(F, F)
    if isinstance(model, NeoHookeanIncompressible):
        return 0.5 * model.C * (i1 - 3.0)
    if isinstance(model, NeoHookeanCompressible):
        # a numpy float for one matrix, like an element of a stack
        return 0.5 * model.C * (i1 - 3.0) + model.D * np.float64(_cpow(J - 1.0, 2))
    raise InvalidParameters("unknown material model %r" % (model,))


def constraint_value(F):
    """Incompressibility residual det F - 1."""
    return det(np.asarray(F, dtype=float)) - 1.0


def constraint_gradient(F):
    """d(det F)/dF = cof F."""
    return cofactor(np.asarray(F, dtype=float))


def piola_stress(model, F, pressure=0.0):
    """First Piola-Kirchhoff stress.

    For the incompressible model, pressure is the constraint reaction;
    for the compressible model it is ignored (forced to zero).
    """
    F = np.asarray(F, dtype=float)
    J = _check_det(F)
    if isinstance(model, NeoHookeanIncompressible):
        return model.C * F - np.asarray(pressure, dtype=float)[..., None, None] * cofactor(F)
    if isinstance(model, NeoHookeanCompressible):
        return model.C * F + np.asarray(2.0 * model.D * (J - 1.0))[..., None, None] * cofactor(F)
    raise InvalidParameters("unknown material model %r" % (model,))


def cauchy_stress(model, F, pressure=0.0):
    """sigma = J^{-1} P F^T."""
    F = np.asarray(F, dtype=float)
    J = _check_det(F)
    P = piola_stress(model, F, pressure)
    return (P @ F.T) / J


def complementary_density(model, F, pressure=0.0):
    """W_c = P : F - W, evaluated from the same P and W."""
    F = np.asarray(F, dtype=float)
    P = piola_stress(model, F, pressure)
    return ddot(P, F) - strain_energy(model, F)


def hessian_quadratic_form(model, F, pressure, G):
    """Second derivative of W + lambda (det F - 1) along G, lambda = -p.

    Uses the exact expansion det(F + t G) = det F + t cof(F):G
    + t^2 cof(G):F + t^3 det G, so the form is polynomial and exact.
    Defined for the incompressible model, the one the criteria test.
    """
    if not isinstance(model, NeoHookeanIncompressible):
        raise InvalidParameters("quadratic form applies to incompressible bodies")
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    return model.C * ddot(G, G) - pressure * 2.0 * ddot(cofactor(G), F)
