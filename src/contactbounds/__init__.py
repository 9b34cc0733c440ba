"""Sustainable load bounds for two incompressible bodies in contact.

The package evaluates coordinated deformation states of a two-body
assembly (triaxial stretching or cylindrical bending), checks their
kinematic and static admissibility, brackets the exact energy between
potential and complementary trial values, and computes the interval of
dead loads the assembly can sustain in three ways: closed form, bisection
of the feasibility conditions, and a brute-force scan.
"""

from .errors import (
    ConstraintViolated,
    ContactBoundsError,
    FamilyMismatch,
    InadmissibleTrial,
    InfeasibleProblem,
    InvalidParameters,
    NonFiniteIntegrand,
    NonPositiveJacobian,
    ParseError,
    ValidationError,
)
from .kinematics import (
    Box3,
    Homogeneous,
    StretchBend,
    TriaxialStretch,
    deformation_gradient,
    image_volume,
    injectivity_check,
    jacobian,
)
from .material import (
    Constant,
    NeoHookeanIncompressible,
    RadialProfile,
    piola_stress,
    strain_energy,
)
from .contact import (
    AdmissibilityReport,
    BodySpec,
    ContactEvaluation,
    DirichletData,
    SystemSpec,
    check_kinematic,
    check_static,
    contact_traction,
    evaluate_contact,
    gap_value,
    nominal_traction,
    solve_radial_pressure,
)
from .energy import (
    EnergyEnclosure,
    QuadratureRule,
    complementary_energy,
    divergence_identity_residual,
    enclosure,
    integrate_volume,
    potential_energy,
)
from .bounds import (
    CriteriaResult,
    LoadInterval,
    brute_force_oracle,
    criteria_check,
    load_interval_bending,
    load_interval_cohesive,
    load_interval_compression,
    numeric_load_bounds,
    pressure_window,
    search_bracket,
)
from .states import (
    BOX1,
    BOX2,
    bend_pair,
    linked_bend_pair,
    load_from_stretch_ratio,
    stretch_pair,
    stretch_ratio_from_load,
)
from .tensor3 import cofactor, ddot, det

__version__ = "0.1.0"

_CLI_NAMES = ("ProblemConfig", "RunReport", "parse_config", "run", "sweep", "verify")


def __getattr__(name):
    # cli loads on first use: imported here eagerly, it would already sit in
    # sys.modules when `python -m contactbounds.cli` runs it, and runpy warns
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
