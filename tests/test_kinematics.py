import math

import numpy as np
import pytest
import refimpl
from draws import draws, outcome
from hypothesis import given, settings
from hypothesis import strategies as st

from contactbounds import energy, kinematics
from contactbounds.errors import InvalidParameters, NonPositiveJacobian
from contactbounds.material import Constant
from contactbounds.states import BOX1
from contactbounds.kinematics import (
    R_MIN,
    Box3,
    Homogeneous,
    StretchBend,
    TriaxialStretch,
    deformation_gradient,
    image_volume,
    injectivity_check,
    jacobian,
)

BOX = Box3(0.0, 0.5, 0.0, 1.0, 0.0, 1.0)

# frozen: 0.5 * (r_hi^2 - r_lo^2) * 2 pi * dz / (A sqrt(a)) for A = 7
WRAPPED_SECTOR_VOLUME = 0.44879895051282775


def fd_gradient(map_, X, h=1e-7):
    F = np.zeros((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        F[:, j] = (map_.place(X + e) - map_.place(X - e)) / (2.0 * h)
    return F


def test_box_volume_contains_center():
    assert BOX.volume() == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(BOX.center(), [0.25, 0.5, 0.5])


def test_box_rejects_degenerate_ranges():
    with pytest.raises(InvalidParameters):
        Box3(0.0, 0.0, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(InvalidParameters):
        Box3(0.0, math.inf, 0.0, 1.0, 0.0, 1.0)


def test_map_parameter_validation():
    with pytest.raises(InvalidParameters):
        TriaxialStretch(-0.5)
    with pytest.raises(InvalidParameters):
        TriaxialStretch(1.0, math.nan)
    with pytest.raises(InvalidParameters):
        StretchBend(0.0, 1.0, 1.0)
    with pytest.raises(InvalidParameters):
        StretchBend(1.0, -1.0, 1.0)
    with pytest.raises(InvalidParameters):
        Homogeneous(np.eye(3), t=(1.0, np.nan, 0.0))


def test_zero_stretch_is_rejected():
    with pytest.raises(InvalidParameters, match="stretch a = 0.0 must be positive"):
        TriaxialStretch(0.0)
    with pytest.raises(InvalidParameters, match="stretch a = 0.0 must be positive"):
        StretchBend(1.0, 0.0, 1.0)


def test_singular_map_is_rejected_at_det_zero():
    # det F = 0 exactly: neither an orientation-preserving nor a reversing map
    m = Homogeneous(np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(NonPositiveJacobian, match="det F = 0 "):
        jacobian(m, (0.1, 0.1, 0.1))
    with pytest.raises(NonPositiveJacobian, match="det F0 = 0$"):
        image_volume(m, BOX)


def test_least_square_radius_is_accepted():
    # rho = R_MIN^2 exactly on the float and the array path; one ulp less raises
    b = R_MIN**2
    m = StretchBend(1.0, 1.0, b)
    assert m.rho(0.0) == b
    assert m.rho(np.array([0.0, 0.25])).tolist() == [b, 0.5 + b]
    low = StretchBend(1.0, 1.0, math.nextafter(b, 0.0))
    for x in (0.0, np.array([0.25, 0.0])):
        with pytest.raises(InvalidParameters, match="below minimum at X = 0$"):
            low.rho(x)


def test_underflowing_axial_stretch_names_A_and_a():
    # A sqrt(a) = 1e-450 rounds to 0, so 1 / (A sqrt(a)) would divide by zero,
    # on the float and on the array path
    m = StretchBend(1e-300, 1e-300, 1.0)
    for x in (0.0, np.array([0.0, 0.25])):
        with pytest.raises(ZeroDivisionError) as err:
            m.gradient(x)
        assert str(err.value) == "axial stretch: A sqrt(a) underflows to 0 for A = 1e-300, a = 1e-300"
    # a product as small as the least subnormal still divides, to inf
    assert StretchBend(5e-324, 1.0, 1.0).gradient(0.0)[2, 2] == math.inf


@pytest.mark.parametrize("method", ["stretch_max", "i1_terms", "image_volume", "axial_piola",
                                    "frame_place"])
def test_every_axial_division_names_an_underflowing_A_sqrt_a(method):
    # each method that divides by A sqrt(a) names A and a in frame's message,
    # frame_place too, whose numpy division would give an infinite z
    m = StretchBend(1e-300, 1e-300, 1.0)
    call = {
        "stretch_max": lambda: m.stretch_max(BOX1),
        "i1_terms": m.i1_terms,
        "image_volume": lambda: m.image_volume(BOX1),
        "axial_piola": lambda: m.axial_piola(1.3, Constant(0.2)),
        "frame_place": lambda: m.frame_place(BOX1.center()),
    }[method]
    with pytest.raises(ZeroDivisionError) as err:
        call()
    assert str(err.value) == "axial stretch: A sqrt(a) underflows to 0 for A = 1e-300, a = 1e-300"


def test_gradient_matches_finite_differences():
    maps = [
        TriaxialStretch(0.81, 0.1),
        StretchBend(1.2, 0.9, 1.1),
        Homogeneous(np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.1], [0.0, 0.0, 1.0]])),
    ]
    points = [(0.1, 0.2, 0.3), (0.4, 0.9, 0.7), (0.25, 0.5, 0.5)]
    for m in maps:
        for X in points:
            F = deformation_gradient(m, X)
            fd = fd_gradient(m, np.array(X))
            if isinstance(m, StretchBend):
                # the analytic gradient lives in the rotated principal
                # frame; compare the invariants instead of the entries
                assert jacobian(m, X) == pytest.approx(np.linalg.det(fd), abs=1e-6)
                assert np.sum(F * F) == pytest.approx(np.sum(fd * fd), abs=1e-6)
            else:
                assert np.max(np.abs(F - fd)) < 1e-6


@given(st.floats(min_value=0.3, max_value=3.0))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_triaxial_is_isochoric(a):
    m = TriaxialStretch(a)
    assert abs(jacobian(m, (0.2, 0.5, 0.5)) - 1.0) < 1e-12


def test_bending_is_isochoric():
    m = StretchBend(1.3, 0.8, 1.4)
    for x in np.linspace(0.0, 0.5, 9):
        assert abs(jacobian(m, (x, 0.5, 0.5)) - 1.0) < 1e-12


def test_jacobian_rejects_orientation_reversal():
    m = Homogeneous(np.diag([-1.0, 1.0, 1.0]))
    with pytest.raises(NonPositiveJacobian):
        jacobian(m, (0.1, 0.1, 0.1))


def test_placement_triaxial_affine():
    m = TriaxialStretch(0.81, 0.25)
    x = m.place((0.5, 1.0, 0.0))
    assert x == pytest.approx([0.655, 1.0 / 0.9, 0.0], abs=1e-14)


def test_placement_bending_embeds_cylinder():
    m = StretchBend(1.0, 1.0, 1.0)
    x = m.place((0.0, math.pi / 2.0, 0.3))
    assert x == pytest.approx([0.0, 1.0, 0.3], abs=1e-12)
    # radius follows r = sqrt(2 a X + b)
    x = m.place((0.5, 0.0, 0.0))
    assert x[0] == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_image_volume_matches_reference_for_isochoric_maps():
    assert image_volume(TriaxialStretch(0.7, 0.3), BOX) == pytest.approx(
        0.5, abs=1e-14
    )
    assert image_volume(StretchBend(1.0, 1.0, 1.0), BOX) == pytest.approx(
        0.5, abs=1e-14
    )


def test_image_volume_homogeneous_scales_with_det():
    m = Homogeneous(np.diag([2.0, 1.0, 1.0]))
    assert image_volume(m, BOX) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(NonPositiveJacobian):
        image_volume(Homogeneous(np.diag([-1.0, 1.0, 1.0])), BOX)


def test_image_volume_caps_wrapped_sector():
    m = StretchBend(7.0, 1.0, 1.0)
    assert image_volume(m, BOX) == pytest.approx(WRAPPED_SECTOR_VOLUME, rel=1e-12)


def test_injectivity_accepted_for_family_members():
    assert injectivity_check(TriaxialStretch(0.81), BOX)
    assert injectivity_check(StretchBend(1.0, 1.0, 1.0), BOX)
    assert injectivity_check(Homogeneous(np.diag([0.5, 2.0, 1.0])), BOX)


def test_injectivity_tolerance_edge(monkeypatch):
    # the integral of det F (0.5 here) equal to vol + 1e-9 max(1, |vol|)
    # exactly is accepted, and one float less image volume is rejected
    m = TriaxialStretch(1.0)
    total = jacobian(m, BOX.center()) * BOX.volume()

    def bound(v):
        return v + 1e-9 * max(1.0, abs(v))

    vol = total - 1e-9
    for _ in range(64):
        if bound(vol) == total:
            break
        vol = math.nextafter(vol, math.inf if bound(vol) < total else -math.inf)
    below = math.nextafter(vol, -math.inf)
    assert bound(vol) == total > bound(below)
    monkeypatch.setattr(kinematics, "image_volume", lambda map_, domain: vol)
    assert injectivity_check(m, BOX)
    monkeypatch.setattr(kinematics, "image_volume", lambda map_, domain: below)
    assert not injectivity_check(m, BOX)


def test_injectivity_rejects_overwound_sector():
    # sweep angle A dy / sqrt(a) = 7 rad > 2 pi: the image overlaps itself
    assert not injectivity_check(StretchBend(7.0, 1.0, 1.0), BOX)


def test_bending_radius_floor():
    m = StretchBend(1.0, 1.0, -0.5)
    with pytest.raises(InvalidParameters):
        m.place((0.1, 0.0, 0.0))


def test_unknown_map_rejected():
    from contactbounds.bounds import pressure_window
    from contactbounds.contact import BodySpec
    from contactbounds.material import NeoHookeanIncompressible

    unknown = object()
    # a body cannot even be built around an unknown map, so no pressure
    # window, traction or gap is ever computed for one
    for call in (
        lambda: deformation_gradient(unknown, (0.1, 0.5, 0.5)),
        lambda: image_volume(unknown, BOX),
        lambda: pressure_window(BodySpec(BOX, NeoHookeanIncompressible(1.0), unknown)),
    ):
        with pytest.raises(InvalidParameters, match="unknown deformation map"):
            call()


@pytest.mark.parametrize(
    "m",
    [
        TriaxialStretch(0.81, 0.1),
        StretchBend(1.1, 0.9, 1.3),
        Homogeneous(np.diag([0.5, 2.0, 1.0]), t=(0.1, 0.0, -0.2)),
    ],
)
def test_family_methods_match_module_functions(m):
    X = np.array([0.3, 0.4, 0.7])
    x_chi = m.place(X)
    assert np.array_equal(m.gradient(0.3), deformation_gradient(m, X))
    assert m.image_volume(BOX) == image_volume(m, BOX)
    if isinstance(m, Homogeneous):
        # a data map only: its frame is Cartesian, and it has no body methods
        assert np.array_equal(m.frame_place(X), x_chi)
        return
    stations = [max(np.diag(m.gradient(x))) for x in (BOX.x_lo, BOX.x_hi)]
    assert m.stretch_max(BOX) == max(stations)
    r = m.radius(0.3)
    if r is None:
        # triaxial: the gradient's frame is Cartesian, the load axis is x
        assert m.normal_position(X) == x_chi[0]
        assert np.array_equal(m.frame_place(X), x_chi)
    else:
        assert r == math.sqrt(m.rho(0.3)) == m.normal_position(X)
        assert r == pytest.approx(math.hypot(x_chi[0], x_chi[1]), rel=1e-15)
        assert np.array_equal(m.frame_place(X), [r, 0.0, x_chi[2]])
        assert np.array_equal(m.frame(r), deformation_gradient(m, X))


STACK_MAPS = [
    TriaxialStretch(0.81, 0.1),
    StretchBend(1.1, 0.9, 1.3),
    # off-diagonal F0: each component of F0 X is a 3-term dot
    Homogeneous(
        np.array([[1.1, 0.2, -0.1], [0.05, 0.95, 0.15], [-0.1, 0.1, 1.02]]),
        t=(0.02, -0.01, 0.03),
    ),
]


@pytest.mark.parametrize("m", STACK_MAPS, ids=["triaxial", "bend", "homogeneous"])
def test_stacked_methods_equal_single_calls(m):
    # a stacked call holds, point by point, the floats of single calls
    X = np.random.default_rng(5).uniform(0.0, 1.0, (4, 6, 3)) * [0.5, 1.0, 1.0]
    points = list(np.ndindex(X.shape[:-1]))
    for name in ("place", "frame_place"):
        stacked = getattr(m, name)(X)
        assert stacked.shape == X.shape
        for idx in points:
            assert np.array_equal(stacked[idx], getattr(m, name)(X[idx]))
    xs = X[..., 0]
    F = m.gradient(xs)
    assert all(np.array_equal(F[idx], m.gradient(float(xs[idx]))) for idx in points)
    if isinstance(m, Homogeneous):
        return  # a data map: no image coordinate along the load, no radius
    normal = m.normal_position(X)
    assert all(normal[idx] == m.normal_position(X[idx]) for idx in points)
    assert type(m.normal_position(X[0, 0])) is float
    r = m.radius(xs)
    if r is None:
        assert m.radius(0.3) is None
    else:
        assert all(r[idx] == m.radius(float(xs[idx])) for idx in points)
        assert type(m.radius(0.3)) is float


def test_stacked_flank_dot_equals_pointwise_dot():
    # (n . chi) on the bending flanks with n = (-sin th, cos th, 0): the
    # stacked matmul gives np.dot's float at every point
    m = StretchBend(1.1, 0.9, 1.3)
    rng = np.random.default_rng(8)
    X = rng.uniform(0.0, 1.0, (200, 3)) * [0.5, 1.0, 1.0]
    X[:, 1] = rng.choice([0.0, 1.0, 0.37], 200)
    th = 1.2 * X[:, 1] / math.sqrt(0.8)
    n = np.stack([-np.sin(th), np.cos(th), np.zeros_like(th)], axis=-1)
    stacked = (n[:, None, :] @ m.place(X)[..., None])[:, 0, 0]
    for k in range(len(X)):
        t = 1.2 * float(X[k, 1]) / math.sqrt(0.8)
        nk = np.array([-math.sin(t), math.cos(t), 0.0])
        assert stacked[k] == float(m.place(X[k]) @ nk)


def test_stacked_rho_names_the_first_low_abscissa():
    # a Python float takes its own path, with the same message
    m = StretchBend(1.0, 1.0, -0.3)
    for x in (np.array([0.5, 0.1, 0.0]), 0.1, np.float64(0.1)):
        with pytest.raises(InvalidParameters, match="-1.000e-01 below minimum at X = 0.1$"):
            m.rho(x)


def _injectivity_per_node(map_, domain, quad_order=8):
    # the Gauss sum of det F that the exact volume test replaced: one
    # jacobian() per x node
    rule = energy.QuadratureRule(quad_order)
    spans = energy._spans(domain)
    xs, ys, zs = (rule.mapped(lo, hi)[0] for lo, hi in spans)
    Js = [jacobian(map_, (x, ys[0], zs[0])) for x in xs]
    total = energy._node_sum(np.reshape(Js, (-1, 1, 1)), energy._weights(quad_order, spans))
    vol = image_volume(map_, domain)
    return Js, total, total <= vol + 1e-9 * max(1.0, abs(vol))


def _random_maps(count, seed):
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(count):
        a = rng.uniform(0.3, 2.0)
        maps.append(TriaxialStretch(a, rng.uniform(-1.0, 1.0)))
        # b keeps the squared radius 2 a x + b above R_MIN^2 on the box
        maps.append(StretchBend(rng.uniform(0.3, 7.0), a, rng.uniform(1e-3, 3.0)))
        F0 = rng.standard_normal((3, 3))
        maps.append(Homogeneous(F0 if np.linalg.det(F0) > 0.0 else -F0))
    return maps


@pytest.mark.parametrize("quad_order", [1, 3, 8])
def test_stacked_injectivity_equals_the_per_node_loop(quad_order):
    # det F is constant on the box, so the exact test decides as the Gauss
    # sum of every order; the one node of order 1 is the box centre, and
    # there the Gauss total is det F times the box volume, bit for bit
    for m in _random_maps(40, quad_order):
        _, ref_total, ref_ok = _injectivity_per_node(m, BOX, quad_order)
        assert injectivity_check(m, BOX) == ref_ok
        if quad_order == 1:
            assert jacobian(m, BOX.center()) * BOX.volume() == ref_total


def _raised(call):
    try:
        call()
    except (NonPositiveJacobian, InvalidParameters) as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize(
    "m, expected",
    [
        (Homogeneous(np.diag([-0.5, 2.0, 1.0])),
         (NonPositiveJacobian, "det F = -1 at X = [0.25 0.5  0.5 ]")),
        (Homogeneous(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])),
         (NonPositiveJacobian, "det F = -1 at X = [0.25 0.5  0.5 ]")),
        # the squared radius 2 a x + b is 0.2 at the centre and falls below
        # R_MIN^2 at x_lo, where the image volume reads the radius
        (StretchBend(1.0, 1.0, -0.3),
         (InvalidParameters, "bending radius^2 = -3.000e-01 below minimum at X = 0")),
    ],
    ids=["reflection", "swap", "low-radius"],
)
def test_injectivity_raises_at_the_box_centre_or_x_lo(m, expected):
    assert _raised(lambda: injectivity_check(m, BOX)) == expected


def test_stacked_injectivity_passes_a_nan_determinant():
    # det F0 = inf - inf: the rule is J <= 0.0, which a NaN does not meet
    m = Homogeneous(np.array([[1e200, 1e200, 0.0], [1e200, 1e200, 0.0], [0.0, 0.0, 1.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(jacobian(m, (0.1, 0.5, 0.5)))
        ok = injectivity_check(m, BOX)
        assert ok == _injectivity_per_node(m, BOX)[2]
    assert not ok  # the image volume is NaN too


#: a box whose centre is at x = 0
_CENTRED = Box3(-0.25, 0.25, 0.0, 1.0, 0.0, 1.0)


def _injectivity_draw(d):
    kind = d.choice(("triaxial", "bending", "homogeneous"))
    if kind == "triaxial":
        m = TriaxialStretch(d.positive(), d.offset())
    elif kind == "bending":
        m = StretchBend(d.positive(), d.positive(), d.offset())
    else:
        m = Homogeneous([[d.uniform(-2.0, 2.0) for _ in range(3)] for _ in range(3)])
    return m, d.choice((BOX, _CENTRED, Box3(-0.3, 0.2, 0.1, 0.7, -1.0, 2.5)))


def test_injectivity_of_a_body_map_reads_det_f_off_its_diagonal():
    # a body family's det F as the diagonal's product in floats, jacobian
    # raising where it is not positive, against jacobian at the box centre
    # (tests/refimpl.py): the same bool, or the same error
    cases = [
        (StretchBend(1e-300, 1e100, 1.0), _CENTRED),  # F_tt underflows at x = 0: det F = 0
        (StretchBend(1e-310, 1.0, 1.0), BOX),  # F_zz = inf: det F is NaN, which passes
        (StretchBend(1e-300, 1e-300, 1.0), BOX),  # A sqrt(a) underflows to 0
        (StretchBend(1.0, 1.0, -0.3), BOX),  # the radius is too small at x_lo, not the centre
        (TriaxialStretch(5e-324), BOX),  # s^2 = inf: det F is inf
        (StretchBend(7.0, 1.0, 1.0), BOX),  # winds past a full turn
        (Homogeneous(np.diag([-0.5, 2.0, 1.0])), BOX),
    ] + draws(367, 300, _injectivity_draw)
    kinds = set()
    for case in cases:
        got = outcome(lambda: injectivity_check(*case))
        assert got == outcome(lambda: refimpl.injectivity_check(*case)), case
        kinds.add(got if isinstance(got, str) else got[0])
    assert kinds == {"True", "False", InvalidParameters, NonPositiveJacobian, ZeroDivisionError}


def test_injectivity_of_a_body_map_builds_no_gradient(monkeypatch):
    def refuse(*args):
        raise AssertionError("a gradient was built")

    monkeypatch.setattr(kinematics, "_diag", refuse)
    for m in (TriaxialStretch(0.81, 0.1), StretchBend(1.1, 0.9, 1.0)):
        assert injectivity_check(m, BOX)
    with pytest.raises(AssertionError, match="a gradient was built"):
        injectivity_check(StretchBend(1e-300, 1e100, 1.0), _CENTRED)  # jacobian names det F = 0
