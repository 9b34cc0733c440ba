import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from refimpl import linked_stretch_pair

from contactbounds.errors import InvalidParameters
from contactbounds.kinematics import R_MIN
from contactbounds.contact import (
    check_kinematic,
    check_static,
    evaluate_contact,
    gap_value,
    nominal_traction,
)
from contactbounds.states import (
    BOX1,
    BOX2,
    bend_pair,
    bending_system,
    linked_bend_pair,
    load_from_stretch_ratio,
    stretch_pair,
    stretch_ratio_from_load,
    triaxial_system,
)

# frozen by independent bisection on a - 1/a^2 + 0.3 = 0
A_AT_MINUS_03 = 0.9093392328648922


def test_load_stretch_frozen_inversion():
    assert stretch_ratio_from_load(1.0, -0.3) == pytest.approx(
        A_AT_MINUS_03, abs=1e-12
    )
    assert stretch_ratio_from_load(1.0, 0.0) == pytest.approx(1.0, abs=1e-14)


@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.5, max_value=3.0),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_load_stretch_roundtrip(tau, C):
    a = stretch_ratio_from_load(C, tau)
    assert load_from_stretch_ratio(C, a) == pytest.approx(tau, abs=1e-10)
    # compressive loads shorten, tensile loads lengthen
    if tau < -1e-12:
        assert a < 1.0
    if tau > 1e-12:
        assert a > 1.0


def test_load_from_stretch_rejects_nonpositive():
    with pytest.raises(InvalidParameters):
        load_from_stretch_ratio(1.0, 0.0)


def test_stretch_pair_is_exact():
    tau = -0.3
    sys_ = stretch_pair(1.0, 2.0, tau)
    assert abs(gap_value(sys_)) < 1e-14
    assert check_kinematic(sys_).kinematic_ok
    assert check_static(sys_, tau).static_ok
    # transverse-face reaction pressure
    assert sys_.body1.pressure.p == pytest.approx(1.0 / sys_.body1.map.a, rel=1e-14)
    assert sys_.body2.pressure.p == pytest.approx(2.0 / sys_.body2.map.a, rel=1e-14)
    # the held map is stored as the Dirichlet data
    assert sys_.dirichlet.map2 is sys_.body2.map


def test_stretch_pair_offset_closure():
    sys_ = stretch_pair(1.0, 2.0, -0.3, b2=0.4)
    a1, a2 = sys_.body1.map.a, sys_.body2.map.a
    assert sys_.body1.map.b == pytest.approx((a2 - a1) * 0.5 + 0.4, abs=1e-14)


def test_bend_pair_geometry_chain():
    sys_ = bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, 3.0, -1.2)
    m1, m2 = sys_.body1.map, sys_.body2.map
    # squared radii: body 1 spans [1, 2], body 2 spans [2, 3]
    assert m1.b == pytest.approx(1.0, abs=1e-14)
    assert m2.b == pytest.approx(1.0, abs=1e-14)
    r1o = math.sqrt(2.0 * m1.a * 0.5 + m1.b)
    r2i = math.sqrt(2.0 * m2.a * 0.5 + m2.b)
    assert r1o == pytest.approx(r2i, abs=1e-14)
    assert abs(gap_value(sys_)) < 1e-14


def test_bend_pair_is_exact():
    tau = -1.2
    sys_ = bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, 3.0, tau)
    assert check_kinematic(sys_).kinematic_ok
    rep = check_static(sys_, tau)
    assert rep.static_ok
    # load anchors the inner face per reference area
    assert nominal_traction(sys_.body1, BOX1.x_lo) == pytest.approx(tau, abs=1e-12)
    # nominal tractions match across the interface
    t1 = nominal_traction(sys_.body1, BOX1.x_hi)
    t2 = nominal_traction(sys_.body2, BOX2.x_lo)
    assert t1 == pytest.approx(t2, abs=1e-10)


def test_bend_pair_rejects_vanishing_core():
    with pytest.raises(InvalidParameters):
        bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, -0.5)  # rho1i = 0


def test_linked_stretch_pair_tractions():
    tau = -0.15
    sys_ = linked_stretch_pair(1.0, 3.0, 0.7, 0.95, tau=tau)
    ev = evaluate_contact(sys_)
    assert ev.traction_normal == pytest.approx(tau, abs=1e-14)
    assert ev.action_reaction_residual < 1e-13
    # p_i = C_i a_i^2 - tau
    assert sys_.body1.pressure.p == pytest.approx(0.7**2 + 0.15, abs=1e-14)
    assert sys_.body2.pressure.p == pytest.approx(3.0 * 0.95**2 + 0.15, abs=1e-14)


def test_linked_bend_pair_tractions():
    tau = -0.4
    sys_ = linked_bend_pair(2.0, 1.0, 1.0, 1.0, 1.0, 1.0, tau=tau)
    ev = evaluate_contact(sys_)
    assert ev.traction_normal == pytest.approx(tau, abs=1e-13)
    assert ev.action_reaction_residual < 1e-13
    # p_i = C_i a_i^2 / rho_c - tau with rho_c = a1 + b1 = 2
    assert sys_.body1.pressure.p == pytest.approx(2.0 / 2.0 + 0.4, abs=1e-14)


def test_linked_bend_pair_rejects_tiny_core():
    with pytest.raises(InvalidParameters):
        linked_bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, 1e-14, tau=0.0)


def test_triaxial_system_defaults():
    sys_ = triaxial_system(1.0, 2.0, 0.8, 0.9, b2=0.3)
    assert evaluate_contact(sys_).regime == "closed"
    assert sys_.body1.map.b == (0.9 - 0.8) * 0.5 + 0.3
    # the transverse-face reaction pressure p = C / a
    assert sys_.body1.pressure.p == 1.0 / 0.8
    assert sys_.body2.pressure.p == 2.0 / 0.9
    assert sys_.dirichlet.map1 is None and sys_.dirichlet.map2 is sys_.body2.map
    explicit = triaxial_system(1.0, 2.0, 0.8, 0.9, b1=0.0, p1=0.25, g=0.1, d_allow=0.01)
    assert explicit.body1.map.b == 0.0 and explicit.body1.pressure.p == 0.25
    assert (explicit.g, explicit.d_allow) == (0.1, 0.01)


def test_bending_system_anchors():
    tau = -0.6
    sys_ = bending_system(1.0, 1.5, 1.1, 0.9, 1.0, 2.0, tau=tau)
    assert evaluate_contact(sys_).regime == "closed"
    assert sys_.body2.map.b == 0.9 + 2.0 - 1.0
    # the dead load on body 1's inner face, nominal traction across the interface
    assert nominal_traction(sys_.body1, BOX1.x_lo) == pytest.approx(tau, abs=1e-12)
    t1 = nominal_traction(sys_.body1, BOX1.x_hi)
    assert nominal_traction(sys_.body2, BOX2.x_lo) == pytest.approx(t1, abs=1e-12)
    # an open interface leaves body 2's inner face traction free
    open_ = bending_system(1.0, 1.5, 1.1, 0.9, 1.0, 2.0, b2=2.5, tau=tau)
    assert evaluate_contact(open_).regime == "open"
    assert nominal_traction(open_.body2, BOX2.x_lo) == pytest.approx(0.0, abs=1e-12)


def test_load_from_stretch_ratio_names_an_overflowing_square():
    with pytest.raises(OverflowError) as err:
        load_from_stretch_ratio(1.0, 1e200)
    assert str(err.value) == "load from stretch: stretch a = 1e+200 overflows in a^2"


@pytest.mark.parametrize(
    "a",
    [
        1e-200,  # a^2 underflows to 0
        1e-160,  # a^2 is subnormal and 1 / a^2 overflows
        5e-324,
    ],
)
def test_load_from_stretch_ratio_names_an_overflowing_inverse_square(a):
    with pytest.raises(OverflowError) as err:
        load_from_stretch_ratio(1.0, a)
    assert str(err.value) == "load from stretch: 1/a^2 overflows for stretch a = %r" % (a,)


def test_load_from_stretch_ratio_at_the_smallest_stretch_with_a_finite_inverse_square():
    # the edge of the check: the smallest a whose 1 / a^2 is finite gives
    # C (a - 1 / a^2), and the next float down is refused
    a = 1.0 / math.sqrt(1.7976931348623157e308)
    while 1.0 / (a * a) == math.inf:
        a = math.nextafter(a, 1.0)
    while 1.0 / (math.nextafter(a, 0.0) ** 2) != math.inf:
        a = math.nextafter(a, 0.0)
    assert load_from_stretch_ratio(1.0, a) == a - 1.0 / a**2 == -1.7976931348623143e308
    with pytest.raises(OverflowError):
        load_from_stretch_ratio(1.0, math.nextafter(a, 0.0))


_LOAD_OVERFLOW = "load from stretch: C (a - 1/a^2) overflows for C = %r, stretch a = %r"


@pytest.mark.parametrize(
    "C, a",
    [
        (2.0, 7.458340731200208e-155),  # 1 / a^2 is finite, C times it is not
        (1e300, 1e10),
    ],
)
def test_load_from_stretch_ratio_names_an_overflowing_load(C, a):
    with pytest.raises(OverflowError) as err:
        load_from_stretch_ratio(C, a)
    assert str(err.value) == _LOAD_OVERFLOW % (C, a)


@pytest.mark.parametrize(
    "C, a, load",
    [
        (1.0272532199213231e308, 2.0, 1.7976931348623155e308),  # a - 1 / a^2 = 1.75
        (1.0000000000000007, 7.458340731200208e-155, -1.7976931348623155e308),
    ],
)
def test_load_from_stretch_ratio_at_the_largest_finite_load(C, a, load):
    # the largest C whose load at a is finite gives it; the next float up is refused
    assert load_from_stretch_ratio(C, a) == load
    above = math.nextafter(C, math.inf)
    with pytest.raises(OverflowError) as err:
        load_from_stretch_ratio(above, a)
    assert str(err.value) == _LOAD_OVERFLOW % (above, a)


@pytest.mark.parametrize("body", ["a1", "a2"])
def test_linked_pairs_name_an_overflowing_square(body):
    stretches = {"a1": 1.0, "a2": 1.0, body: 1e200}
    with pytest.raises(OverflowError) as err:
        linked_stretch_pair(1.0, 1.0, tau=0.0, **stretches)
    assert str(err.value) == "linked stretch pair: stretch %s = 1e+200 overflows in %s^2" % (
        body, body,
    )
    with pytest.raises(OverflowError) as err:
        linked_bend_pair(1.0, 1.0, 1.0, b1=1.0, tau=0.0, **stretches)
    assert str(err.value) == "linked bend pair: stretch %s = 1e+200 overflows in %s^2" % (
        body, body,
    )


def test_stretch_ratio_accepts_the_loads_of_its_range_ends():
    # tau = load_from_stretch_ratio(C, 1e-9) and (C, 1e9) exactly are inside
    # the range; the next float past either end is not
    for C in (1.0, 2.5):
        lo, hi = load_from_stretch_ratio(C, 1e-9), load_from_stretch_ratio(C, 1e9)
        assert stretch_ratio_from_load(C, lo) == pytest.approx(1e-9, rel=1e-12)
        assert stretch_ratio_from_load(C, hi) == pytest.approx(1e9, rel=1e-12)
        for past in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
            with pytest.raises(InvalidParameters, match="no stretch ratio"):
                stretch_ratio_from_load(C, past)


@pytest.mark.parametrize(
    "C, tau, a",
    [
        (1e300, -3e299, 0.9093392328648923),
        (1e300, 5e299, 1.1974293369330329),
        # the first C whose load at a = 1e-9 overflows, and the most negative float
        (1.7976931348623164e290, -1.7976931348623157e308, 1.0000000000000003e-09),
        # the first C whose load at a = 1e9 overflows, and the largest float
        (1.7976931348623164e299, 1.7976931348623157e308, 999999999.9999996),
    ],
)
def test_stretch_ratio_inverts_loads_when_its_range_ends_overflow(C, tau, a):
    # an end whose load C (a - 1/a^2) overflows is -inf or inf and bounds no
    # load; the inversion goes on, and load_from_stretch_ratio's own refusal
    # of that load is not taken
    assert stretch_ratio_from_load(C, tau) == a


def test_pairs_accept_an_inner_square_radius_of_exactly_r_min_squared():
    s = R_MIN**2
    # rho_out - a2 - a1 = s exactly: every step is an exact float subtraction
    assert bend_pair(1.0, 1.0, 1.0, s, 2.0 * s, 4.0 * s, 0.0).body1.map.b == s
    with pytest.raises(InvalidParameters, match="below minimum"):
        bend_pair(1.0, 1.0, 1.0, s, 2.0 * s, math.nextafter(4.0 * s, 0.0), 0.0)
    assert linked_bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, s, tau=0.0).body1.map.b == s
    with pytest.raises(InvalidParameters, match="nonpositive radius"):
        linked_bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, math.nextafter(s, 0.0), tau=0.0)


def test_linked_bend_pair_rejects_a_contact_radius_of_zero():
    # a1 + b1 = 0 exactly: refused before p_i = C_i a_i^2 / (a1 + b1) divides
    with pytest.raises(InvalidParameters, match="nonpositive radius"):
        linked_bend_pair(1.0, 1.0, 1.0, -1.0, 1.0, 1.0, tau=0.0)
