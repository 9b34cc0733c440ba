import ast
import dataclasses
import inspect
import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from refimpl import hessian_quadratic_form

from contactbounds.errors import InfeasibleProblem, InvalidParameters
from contactbounds.kinematics import StretchBend, TriaxialStretch
from contactbounds.material import (
    Constant,
    NeoHookeanIncompressible,
    RadialProfile,
)
from contactbounds.contact import BodySpec
from contactbounds.states import BOX1, BOX2, bend_pair, linked_bend_pair
from contactbounds import bounds
from contactbounds.tensor3 import _cpow, cofactor
from contactbounds.bounds import (
    brute_force_oracle,
    criteria_check,
    load_interval_bending,
    load_interval_cohesive,
    load_interval_compression,
    numeric_load_bounds,
    pressure_window,
    search_bracket,
    _feasible_closed,
    _linkage,
    _running_min,
)

# frozen endpoint values for the worked parameter sets
COMPRESSION_LO_081 = -0.2438999999999999
COHESIVE_HI_081_G10 = 1.5561000000000003
BENDING_LO_WORKED = 0.5 - 1.0 / math.sqrt(3.0)


def triaxial_body(C, a, p):
    return BodySpec(
        BOX1, NeoHookeanIncompressible(C), TriaxialStretch(a), Constant(p)
    )


def test_pressure_window_frozen():
    body = triaxial_body(1.0, 0.81, 0.0)
    lo, hi = pressure_window(body)
    assert hi == pytest.approx(0.9, abs=1e-14)
    assert lo == -hi


def test_pressure_window_bending_worked_set():
    sys_ = linked_bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, tau=0.0)
    assert pressure_window(sys_.body1)[1] == pytest.approx(
        1.0 / math.sqrt(2.0), abs=1e-14
    )
    assert pressure_window(sys_.body2)[1] == pytest.approx(
        1.0 / math.sqrt(3.0), abs=1e-14
    )


def test_pressure_window_requires_incompressible():
    # windows and criteria take the material as incompressible, as BodySpec
    # rejects any other
    with pytest.raises(InvalidParameters):
        BodySpec(BOX1, object(), TriaxialStretch(1.0))


def test_criteria_flip_brackets_the_window():
    w = 0.9
    for p, ok in ((0.98 * w, True), (1.02 * w, False), (-0.98 * w, True), (-1.02 * w, False)):
        res = criteria_check(triaxial_body(1.0, 0.81, p), probe_count=50)
        assert res.complementary_ok is ok, p
        assert res.primal_ok is ok, p


def test_criteria_minimum_frozen_value():
    res = criteria_check(triaxial_body(1.0, 0.81, 0.88), probe_count=200)
    # worst shear pair: C - p / sqrt(a)
    assert res.min_quadratic_value == pytest.approx(1.0 - 0.88 / 0.9, abs=1e-12)
    assert res.pressure_window == pytest.approx((-0.9, 0.9), abs=1e-14)


def test_criteria_deterministic_for_fixed_seed():
    body = triaxial_body(1.0, 0.81, 0.5)
    r1 = criteria_check(body, probe_count=100, seed=7)
    r2 = criteria_check(body, probe_count=100, seed=7)
    assert r1 == r2


def test_probe_sets_are_cached_read_only_for_int_seeds_only():
    body = triaxial_body(1.0, 0.81, 0.5)
    bounds._probe_set.cache_clear()
    cold = criteria_check(body, probe_count=100, seed=7)
    assert criteria_check(body, probe_count=100, seed=7) == cold
    assert bounds._probe_set.cache_info().hits == 1
    probe_set = bounds._probe_set(7, 100)
    # |G|^2 and the three diagonal cofactor rows; no full cofactor is kept
    assert [v.shape for v in probe_set] == [(106,), (3, 106)]
    for v in probe_set:
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 1.0
    # any other seed is refused, a Generator and None included, and takes
    # no cache entry
    for seed in (np.random.default_rng(7), None, -1, 7.0, "7"):
        with pytest.raises(InvalidParameters, match="seed = .* must be an int >= 0"):
            criteria_check(body, probe_count=100, seed=seed)
    assert bounds._probe_set.cache_info().currsize == 1
    # a float count fails as it does uncached, though 100 is cached
    with pytest.raises(TypeError):
        criteria_check(body, probe_count=100.0, seed=7)


def test_criteria_bending_body_runs_across_stations():
    sys_ = linked_bend_pair(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, tau=0.0)
    body = dataclasses.replace(sys_.body1, pressure=Constant(0.5))
    res = criteria_check(body, probe_count=50)
    assert res.complementary_ok
    body = dataclasses.replace(sys_.body1, pressure=Constant(0.75))
    res = criteria_check(body, probe_count=50)
    assert not res.complementary_ok  # window is 1/sqrt(2) = 0.707


def _pointwise_criteria(body, probe_count, seed):
    """(min over stations of q, min of bubble-weighted q), one form per pair."""
    rng = np.random.default_rng(seed)
    probes = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for s in (1.0, -1.0):
            G = np.zeros((3, 3))
            G[i, j] = 1.0 / math.sqrt(2.0)
            G[j, i] = s / math.sqrt(2.0)
            probes.append(G)
    for _ in range(probe_count):
        G = np.zeros((3, 3))
        G[0, 1], G[0, 2], G[1, 0], G[1, 2], G[2, 0], G[2, 1] = rng.standard_normal(6)
        probes.append(G / math.sqrt(float(np.sum(G * G))))
    lo, hi = body.domain.x_lo, body.domain.x_hi
    if isinstance(body.map, TriaxialStretch):
        edge, inner = np.array([lo, 0.5 * (lo + hi), hi]), np.array([0.5 * (lo + hi)])
    else:
        edge, inner = np.linspace(lo, hi, 33), np.linspace(lo, hi, 35)[1:-1]
    comp = primal = math.inf
    for x in edge:
        F, p = body.state(x)
        for G in probes:
            comp = min(comp, hessian_quadratic_form(body.material, F, p, G))
    for x in inner:
        F, p = body.state(x)
        w = ((x - lo) * (hi - x)) ** 2
        for G in probes:
            primal = min(primal, w * hessian_quadratic_form(body.material, F, p, G))
    return comp, primal


@pytest.mark.parametrize(
    "body, probe_count, seed",
    [
        (triaxial_body(1.0, 0.81, 0.88), 200, 42),
        (triaxial_body(1.7, 1.2, -0.4), 1, 0),
        (bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8).body1, 50, 3),
        (bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8).body2, 1, 0),
    ],
    ids=["triaxial-200", "triaxial-1", "bend1-50", "bend2-1"],
)
def test_criteria_equal_pointwise_forms(body, probe_count, seed):
    # bit-identical to one hessian_quadratic_form call per probe and station
    comp, primal = _pointwise_criteria(body, probe_count, seed)
    res = criteria_check(body, probe_count, seed)
    assert res.min_quadratic_value == comp
    assert res.complementary_ok is bool(comp > 0.0)
    assert res.primal_ok is bool(primal > 0.0)


@pytest.mark.parametrize("scale", [0.98, 1.02, -0.98, -1.02])
@pytest.mark.parametrize(
    "body",
    [bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8).body1, triaxial_body(1.3, 0.81, 0.0)],
    ids=["bend", "triaxial"],
)
def test_side_min_is_the_complementary_minimum(body, scale):
    # verify's window flip reads the edge stations' minimum alone
    body = dataclasses.replace(body, pressure=Constant(scale * pressure_window(body)[1]))
    m = bounds._minima(body, bounds._probe_forms(50, 5))[0]
    res = criteria_check(body, 50, 5)
    assert m.hex() == res.min_quadratic_value.hex()
    assert res.complementary_ok is bool(m > 0.0) is (abs(scale) < 1.0)


@pytest.mark.parametrize("count", [50, 200])
@pytest.mark.parametrize(
    "body",
    [bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8).body1, triaxial_body(1.3, 0.81, 0.0)],
    ids=["bend", "triaxial"],
)
def test_edge_minima_equal_side_min_on_rebuilt_bodies(monkeypatch, body, count):
    # verify's window flip and more: signed zeros, subnormal and huge
    # pressures, and 1e308, whose forms overflow and hold NaN
    w = pressure_window(body)[1]
    pressures = [1.02 * w, 0.98 * w, -1.02 * w, -0.98 * w, 0.0, -0.0, 5e-324, 1e300, 1e308]
    probes = bounds._probe_forms(count, 7)
    with np.errstate(all="ignore"):
        want = [bounds._minima(dataclasses.replace(body, pressure=Constant(p)), probes)[0]
                for p in pressures]
        grads = []
        real = type(body.map).gradient
        monkeypatch.setattr(type(body.map), "gradient", lambda m, x: grads.append(x) or real(m, x))
        got = bounds._edge_minima(body, probes, pressures)
    assert [m.hex() for m in got] == [m.hex() for m in want]
    assert [m > 0.0 for m in got[:4]] == [False, True, False, True]
    assert got[-1] == -math.inf  # not vacuous: 2 p overflows, and 0 * inf is NaN
    assert len(grads) == 1  # one gradient stack for every pressure


def test_edge_minima_reject_a_non_finite_pressure_in_order():
    # Constant's check on each edge pressure, in turn: the first non-finite
    # one raises, after the finite ones before it
    body = triaxial_body(1.3, 0.81, 0.0)
    probes = bounds._probe_forms(50, 42)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParameters) as old:
            for p in (0.5, bad, 0.7):
                bounds._minima(dataclasses.replace(body, pressure=Constant(p)), probes)
        with pytest.raises(InvalidParameters) as new:
            bounds._edge_minima(body, probes, [0.5, bad, 0.7])
        assert str(new.value) == str(old.value) == "pressure must be finite"


def test_criteria_station_blocks_give_the_same_result(monkeypatch):
    # 56 probes: 4 stations per block of 250, the last block holds one
    body = bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8).body1
    whole = criteria_check(body, 50, 3)
    monkeypatch.setattr(bounds, "CRITERIA_BLOCK", 250)
    assert criteria_check(body, 50, 3) == whole


def _nine_term_forms(C, seed, count, F, p):
    # the form with cof(G) : F summed over all nine products of the full
    # cofactors, which the probe sets do not keep
    probes = bounds._probes(np.random.default_rng(seed), count)
    cof = cofactor(probes)
    return C * bounds._sum9(probes * probes) - p[:, None] * 2.0 * bounds._sum9(cof * F[:, None])


def _counting_sum9(monkeypatch):
    calls = []
    real = bounds._sum9
    monkeypatch.setattr(bounds, "_sum9", lambda m: calls.append(m.shape) or real(m))
    return calls


_DIAG_ENTRIES = [0.0, -0.0, 5e-324, -2.5e-310, 1e-300, 0.7, -1.3, 1e300, math.inf, -math.inf,
                 math.nan]
_PRESSURES = [0.0, -0.0, 0.45, -2.0, 1e-310, 1e300, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("C", [1.0, 5e-324, 1e308])
def test_diagonal_kernel_gives_the_nine_term_forms_bit_for_bit(monkeypatch, C):
    # every triple of diagonal entries, each station with its own pressure
    probes = bounds._probe_set(42, 50)
    d = np.array(list(itertools.product(_DIAG_ENTRIES, repeat=3)))
    F = np.zeros((len(d), 3, 3))
    F[:, [0, 1, 2], [0, 1, 2]] = d
    p = np.resize(_PRESSURES, len(d))
    with np.errstate(all="ignore"):
        ref = _nine_term_forms(C, 42, 50, F, p)
        calls = _counting_sum9(monkeypatch)
        q = bounds._forms(C, probes, F, p)
    assert calls == []  # the diagonal kernel
    assert q.shape == ref.shape == (len(d), 56)
    assert np.array_equal(q.view(np.uint64), ref.view(np.uint64))
    assert np.isnan(q).any() and np.isinf(q).any()


def test_negative_zero_off_the_diagonal_keeps_the_diagonal_kernel(monkeypatch):
    probes = bounds._probe_set(42, 50)
    F = np.zeros((3, 3, 3))
    F[:, [0, 1, 2], [0, 1, 2]] = [0.9, 1.2, 1.0 / 1.08]
    F[1, 0, 2] = F[2, 1, 0] = -0.0
    p = np.array([0.3, -0.0, 0.0])
    ref = _nine_term_forms(1.3, 42, 50, F, p)
    calls = _counting_sum9(monkeypatch)
    assert np.array_equal(bounds._forms(1.3, probes, F, p).view(np.uint64), ref.view(np.uint64))
    assert calls == []


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    bend=st.booleans(),
    A=st.floats(0.05, 5.0),
    a=st.floats(0.05, 5.0),
    b=st.floats(1e-3, 3.0),
    p=st.floats(-5.0, 5.0),
)
def test_body_gradients_hold_positive_zeros_off_the_diagonal(bend, A, a, b, p):
    # the premise of _forms' one kernel: a body of either family has +0.0
    # in every off-diagonal entry, on a float abscissa and on a stack
    m = StretchBend(A, a, b) if bend else TriaxialStretch(a, b)
    body = BodySpec(BOX1, NeoHookeanIncompressible(1.3), m, Constant(p))
    xs = np.linspace(BOX1.x_lo, BOX1.x_hi, 33)
    rows, cols = [0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1]
    for F in [body.state(xs)[0]] + [body.state(x)[0] for x in xs.tolist()]:
        off = F[..., rows, cols]
        assert not off.any() and not np.signbit(off).any()


def test_criteria_stations_are_cached_read_only():
    bend = bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8).body1
    tri = triaxial_body(1.0, 0.81, 0.5)
    bounds._stations.cache_clear()
    cold = criteria_check(bend, 50, 3)
    assert criteria_check(dataclasses.replace(bend, pressure=Constant(0.2)), 50, 3) != cold
    assert criteria_check(bend, 50, 3) == cold
    criteria_check(tri, 50, 3)
    bounds._edge_minima(bend, bounds._probe_forms(50, 3), [0.2])
    # one table per family and x-range, holding both sides; the window
    # flip's edge minima read the same table
    info = bounds._stations.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 3, 2)
    lo, hi = bend.domain.x_lo, bend.domain.x_hi
    mid = 0.5 * (lo + hi)
    for triaxial, edge, inner in [
        (False, np.linspace(lo, hi, 33), np.linspace(lo, hi, 35)[1:-1]),
        # a triaxial state does not vary with x: one mid station on each side
        (True, np.array([mid]), np.array([mid])),
    ]:
        xs, w, k = bounds._stations(lo, hi, triaxial)
        # the complementary stations first, with weight 1.0, then the primal
        # ones with the squared bubble
        assert k == len(edge)
        assert xs.tolist() == edge.tolist() + inner.tolist()
        assert w.tolist() == [1.0] * k + [((x - lo) * (hi - x)) ** 2 for x in inner.tolist()]
        assert not xs.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            xs[0] = 1.0
        with pytest.raises(ValueError):
            w[0] = 1.0
        assert bounds._stations(lo, hi, triaxial)[0] is xs


def _side_stations(lo, hi, interior, triaxial):
    # one side's stations and weights, as each side kept them before the two
    # shared one table
    if triaxial:
        xs = np.asarray([0.5 * (lo + hi)])
    elif interior:
        xs = np.linspace(lo, hi, bounds.X_SAMPLES + 2)[1:-1]
    else:
        xs = np.linspace(lo, hi, bounds.X_SAMPLES)
    w = _cpow((xs - lo) * (hi - xs), 2) if interior else np.ones(len(xs))
    return xs, w


def _side_min(body, probes, interior):
    # reference: the minimum of one side from its own state stack, by blocks
    # of stations counted from the side's first station
    dom = body.domain
    xs, w = _side_stations(dom.x_lo, dom.x_hi, interior, isinstance(body.map, TriaxialStretch))
    F, p = body.state(xs)
    m, n = math.inf, max(1, bounds.CRITERIA_BLOCK // len(probes[0]))
    for i in range(0, len(xs), n):
        q = bounds._forms(body.material.C, probes, F[i : i + n], p[i : i + n])
        m = _running_min(m, w[i : i + n, None] * q)
    return m


def _minima_or_error(minima, body, probes):
    # the two minima as hex strings, or the error they raise
    try:
        return [m.hex() for m in minima(body, probes)]
    except (InvalidParameters, ZeroDivisionError) as e:
        return type(e), str(e)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    bend=st.booleans(),
    radial=st.booleans(),
    box=st.sampled_from([BOX1, BOX2]),
    C=st.floats(1e-3, 1e3),
    A=st.floats(0.05, 5.0),
    a=st.floats(0.05, 5.0),
    b=st.floats(-1.0, 3.0),
    p=st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e300, 1e308, -1e308]), st.floats(-5.0, 5.0)),
    c=st.floats(-5.0, 5.0),
    count=st.sampled_from([1, 50, 200]),
    per_block=st.sampled_from([1, 4, 11, 33, 34, 66, 67, None]),
)
@example(bend=True, radial=False, box=BOX1, C=1.3, A=1e-300, a=1e-300, b=1.0, p=0.5, c=0.0,
         count=50, per_block=None)
def test_criteria_minima_equal_two_side_minima_bit_for_bit(
    bend, radial, box, C, A, a, b, p, c, count, per_block
):
    # one state stack and one table against a state stack per side: signed
    # zeros, subnormal and huge pressures (NaN forms at 1e308), radial
    # profiles, radii below the minimum and an underflowing axial stretch;
    # per_block stations per block of CRITERIA_BLOCK, so that a block ends
    # on the split (1, 11, 33), straddles it (4, 34 on bending, every one
    # above 1 on triaxial) or holds the whole table
    m = StretchBend(A, a, b) if bend else TriaxialStretch(a, b)
    pressure = RadialProfile(c, -c, p) if bend and radial and abs(p) < 1e300 else Constant(p)
    body = BodySpec(box, NeoHookeanIncompressible(C), m, pressure)
    probes = bounds._probe_forms(count, 11)
    block = bounds.CRITERIA_BLOCK if per_block is None else per_block * (6 + count)
    with mock.patch.object(bounds, "CRITERIA_BLOCK", block), np.errstate(all="ignore"):
        got = _minima_or_error(bounds._minima, body, probes)
        want = _minima_or_error(
            lambda body, probes: (_side_min(body, probes, False), _side_min(body, probes, True)),
            body, probes,
        )
    assert got == want


@pytest.mark.parametrize(
    "body, rows",
    [(bend_pair(1.0, 1.4, 1.1, 0.9, 1.0, 3.4, -0.8).body1, 66), (triaxial_body(1.3, 0.81, 0.2), 2)],
    ids=["bend", "triaxial"],
)
def test_criteria_check_reads_each_body_once(monkeypatch, body, rows):
    # one state stack over both sides' stations, and so one pressure call:
    # a radial profile squares its radii once
    states, pressures = [], []
    real_state, real_pressure = BodySpec.state, type(body.pressure).__call__
    monkeypatch.setattr(BodySpec, "state", lambda b, x: states.append(len(x)) or real_state(b, x))
    monkeypatch.setattr(type(body.pressure), "__call__",
                        lambda f, r: pressures.append(r) or real_pressure(f, r))
    criteria_check(body, 50, 3)
    assert states == [rows]
    assert len(pressures) == 1


_NAN, _Z, _NZ = math.nan, 0.0, -0.0


@pytest.mark.parametrize(
    "m, values",
    [
        (math.inf, [_NAN, _Z, _NZ]),
        (math.inf, [_NAN, _NZ, _Z]),
        (math.inf, [_Z, _NAN, _NZ, 1.0]),
        (math.inf, [2.0, _NZ, _NAN, _Z, -0.0]),
        (math.inf, [_NAN, _NAN]),
        (math.inf, [math.inf, _NAN]),
        (math.inf, [3.0, _NAN, -1.5, 7.0, -1.5]),
        (_Z, [_NZ, _NAN]),
        (_NZ, [_Z, 5.0]),
        (-2.0, [_NAN, -1.0, _NZ]),
        (1.0, [_NAN, 1.0, -math.inf, _NAN]),
    ],
)
def test_running_min_is_pythons_min(m, values):
    # NaN is never taken; of 0.0 and -0.0 the first in order wins, which
    # shows in the %.12g text of the criteria minimum
    values = np.array(values)
    got, ref = _running_min(m, values), min(m, *values.tolist())
    assert type(got) is float
    assert "%.12g" % got == "%.12g" % ref
    assert math.copysign(1.0, got) == math.copysign(1.0, ref)


def test_running_min_takes_the_first_zero_at_every_position():
    # numpy's own reductions pick either zero, depending on where they sit
    for n in (9, 33):
        for i in range(n):
            for j in range(i + 1, n):
                for z in (0.0, -0.0):
                    values = np.ones(n)
                    values[i], values[j] = z, -z
                    got = _running_min(math.inf, values)
                    assert "%.12g" % got == "%.12g" % min(math.inf, *values.tolist())


def test_running_min_by_blocks_is_pythons_min():
    # criteria_check carries the minimum from one block of stations to the next
    rng = np.random.default_rng(4)
    for _ in range(200):
        values = rng.choice([_NAN, _Z, _NZ, 1.0, -1.0, -2.5, math.inf], rng.integers(1, 40))
        m = math.inf
        for block in np.array_split(values, rng.integers(1, 5)):
            if len(block):
                m = _running_min(m, block.reshape(-1, 1))
        ref = min(math.inf, *values.tolist())
        assert "%.12g" % m == "%.12g" % ref


def test_criteria_argument_validation():
    with pytest.raises(InvalidParameters):
        criteria_check(triaxial_body(1.0, 1.0, 0.0), probe_count=0)


def test_compression_interval_frozen():
    iv = load_interval_compression(1.0, 1.0, 0.81, 0.81)
    assert iv.tau_lo == pytest.approx(COMPRESSION_LO_081, abs=1e-15)
    assert iv.tau_hi == 0.0
    assert iv.regime == "closed"
    assert not iv.empty


def test_compression_interval_binding_body():
    # the body with the smaller margin decides the endpoint
    iv = load_interval_compression(1.0, 3.0, 0.81, 0.81)
    assert iv.tau_lo == pytest.approx(COMPRESSION_LO_081, abs=1e-15)
    iv = load_interval_compression(0.5, 3.0, 0.81, 0.81)
    assert iv.tau_lo == pytest.approx(0.5 * COMPRESSION_LO_081, abs=1e-15)


def test_compression_degenerate_is_empty():
    iv = load_interval_compression(1.0, 1.0, 1.0, 1.0)
    assert iv.empty
    assert iv.tau_lo == iv.tau_hi == 0.0


def test_cohesive_interval_is_empty_when_the_cap_meets_the_lower_end():
    # lo = C (a^2 - 1 / a) = 3.5 at a = 2, so the cap g = 3.5 leaves no
    # load inside the open interval
    iv = load_interval_cohesive(1.0, 1.0, 2.0, 2.0, 3.5)
    assert iv == bounds.LoadInterval(3.5, 3.5, "closed", True)
    assert not load_interval_cohesive(1.0, 1.0, 2.0, 2.0, math.nextafter(3.5, 4.0)).empty


def test_criteria_fail_both_sides_on_the_window_edge():
    # at a = 1 and p = -C the aligned symmetric shear probes give forms of
    # exactly 0 at every station: strict positivity fails on both sides
    res = criteria_check(triaxial_body(1.3, 1.0, -1.3), 200, 42)
    assert res.min_quadratic_value == 0.0
    assert res.primal_ok is res.complementary_ok is False
    res = criteria_check(triaxial_body(1.3, 1.0, math.nextafter(-1.3, 0.0)), 200, 42)
    assert res.primal_ok is res.complementary_ok is True


def test_bisection_halves_no_bracket_of_exactly_its_tolerance():
    linkage = _linkage("compression", {"C1": 1.0, "C2": 1.0, "a1": 0.9, "a2": 0.9})[0]
    assert bounds.BISECTION_TOL == 1e-8 and _feasible_closed(-5e-9, linkage, 0.0)
    assert bounds._bisect(-1e-8, 0.0, linkage, 0.0) == -1e-8
    wider = math.nextafter(-1e-8, -1.0)
    assert bounds._bisect(wider, 0.0, linkage, 0.0) == 0.5 * wider


@pytest.mark.parametrize("example", ["compression", "cohesive", "bending"])
def test_bisection_ends_are_the_float64_seeds_ends_as_python_floats(example):
    # the scan's first and last feasible loads seed the bisection as Python
    # floats: the same IEEE operations as on the np.float64 elements
    rng = np.random.default_rng(29)
    seeded = 0
    for _ in range(300):
        fp = _exact_draw(rng, example)
        linkage, cap = _linkage(example, fp)
        b_lo, b_hi, feas = bounds._scan(linkage, cap, bounds.COARSE_N)
        try:
            iv = numeric_load_bounds(example, fp)
        except InfeasibleProblem:
            continue
        assert type(iv.tau_lo) is float and type(iv.tau_hi) is float
        if len(feas):
            assert type(feas[0]) is np.float64
            lo = bounds._bisect(feas[0], b_lo, linkage, cap)
            hi = bounds._bisect(feas[-1], b_hi, linkage, cap)
            assert (iv.tau_lo.hex(), iv.tau_hi.hex()) == (float(lo).hex(), float(hi).hex())
            seeded += 1
    assert seeded >= 30  # not vacuous: many draws give a feasible scan


def test_open_regime_singletons():
    iv = load_interval_compression(1.0, 1.0, 0.81, 0.81, contact_closed=False)
    assert (iv.tau_lo, iv.tau_hi, iv.regime, iv.empty) == (0.0, 0.0, "open", False)
    iv = load_interval_cohesive(1.0, 1.0, 0.81, 0.81, 2.5, contact_closed=False)
    assert (iv.tau_lo, iv.tau_hi, iv.regime, iv.empty) == (2.5, 2.5, "open", False)


def test_cohesive_interval_frozen():
    iv = load_interval_cohesive(1.0, 1.0, 0.81, 0.81, 10.0)
    assert iv.tau_lo == pytest.approx(COMPRESSION_LO_081, abs=1e-15)
    assert iv.tau_hi == pytest.approx(COHESIVE_HI_081_G10, abs=1e-15)
    # small caps win the upper endpoint
    iv = load_interval_cohesive(1.0, 1.0, 1.0, 1.0, 0.5)
    assert iv.tau_hi == 0.5
    assert not iv.empty


def test_bending_interval_frozen_worked_set():
    iv = load_interval_bending(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert iv.tau_lo == pytest.approx(BENDING_LO_WORKED, rel=1e-12)
    assert iv.tau_hi == 0.0
    assert not iv.empty


def test_bending_interval_validation():
    with pytest.raises(InvalidParameters):
        load_interval_bending(1.0, 1.0, 1.0, 1.0, 1.0, 1e-14, 1.0)
    with pytest.raises(InvalidParameters):
        load_interval_bending(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -3.0)


def test_least_inner_square_radius_is_accepted():
    # b1 = R_MIN^2 exactly is the smallest admissible inner square radius
    b1 = bounds.R_MIN**2
    fp = {"C1": 1.0, "C2": 1.0, "A": 1.0, "a1": 1.0, "a2": 1.0, "b1": b1, "b2": 1.0 + b1 - 1.0}
    iv = load_interval_bending(**fp)
    assert iv.regime == "closed"
    (C1, s1, lam1), _ = _linkage("bending", fp)[0]
    assert (C1, s1, lam1) == (1.0, 1.0 / (1.0 + b1), 1.0 / math.sqrt(b1))
    with pytest.raises(InvalidParameters, match="body 2 radii must stay positive"):
        load_interval_bending(**{**fp, "b2": -1.0})  # a2 + b2 = 0 exactly
    for below in (math.nextafter(b1, 0.0), 0.0):
        with pytest.raises(InvalidParameters, match="below minimum"):
            load_interval_bending(**{**fp, "b1": below})
        with pytest.raises(InvalidParameters, match="below minimum"):
            _linkage("bending", {**fp, "b1": below})


def test_interval_parameter_validation():
    with pytest.raises(InvalidParameters):
        load_interval_compression(0.0, 1.0, 0.8, 0.8)
    with pytest.raises(InvalidParameters):
        load_interval_cohesive(1.0, 1.0, 0.8, 0.8, 0.0)


def test_cohesive_closed_form_names_the_first_invalid_parameter():
    with pytest.raises(InvalidParameters, match=r"^C1 = 0\.0 must be positive$"):
        load_interval_cohesive(0.0, 1.0, 0.8, 0.8, -1.0)
    with pytest.raises(InvalidParameters, match=r"^g = -1\.0 must be positive$"):
        load_interval_cohesive(1.0, 1.0, 0.8, 0.8, -1.0)


@pytest.mark.parametrize("g", [0.0, -1.0, math.nan, math.inf, None],
                         ids=["zero", "negative", "nan", "inf", "missing"])
@pytest.mark.parametrize("solve", [search_bracket, numeric_load_bounds, brute_force_oracle],
                         ids=["bracket", "bisection", "oracle"])
def test_interval_solvers_reject_a_cohesive_cap_that_is_not_positive(solve, g):
    # the closed form's rule, read in _linkage alone, in both contact regimes
    fp = {"C1": 1.0, "C2": 2.0, "a1": 0.9, "a2": 0.9}
    if g is not None:
        fp["g"] = g
    for closed in (True, False):
        with pytest.raises(InvalidParameters, match=r"^g = .* must be positive$"):
            solve("cohesive", {**fp, "contact_closed": closed})


def test_bisection_and_oracle_validate_an_open_contact():
    fp = {"C1": 0.0, "C2": 1.0, "a1": 0.9, "a2": 0.9, "contact_closed": False}
    for solve in (numeric_load_bounds, brute_force_oracle):
        with pytest.raises(InvalidParameters, match=r"^C = 0\.0 must be positive$"):
            solve("compression", fp)


def _bits(iv):
    return float(iv.tau_lo).hex(), float(iv.tau_hi).hex(), iv.regime, iv.empty


def test_compression_is_the_triaxial_kernel_at_cap_zero_bit_for_bit():
    # the draws of acceptance criteria 01 and 02, and upper ends that
    # underflow to +0.0; the reference is the compression form as it was
    # before it shared the kernel, with the literal upper end 0.0
    draws = [(5e-324, 5e-324, 1e-300, 1e-300), (1.0, 5e-324, 0.81, 1e-300),
             (1e300, 1.0, 0.5, 0.9), (1.0, 1.0, 1.0, 1.0), (1.0, 2.0, 2.0, 3.0)]
    for seed in (101, 102):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            C1, C2 = rng.uniform(0.5, 3.0, 2)
            a1, a2 = rng.uniform(0.5, 0.99, 2)
            if seed == 102:
                rng.uniform(0.1, 2.0)  # criterion 02's g
            draws.append((C1, C2, a1, a2))
    for C1, C2, a1, a2 in draws:
        lo = max(bounds._body_loads(C1, a1)[0], bounds._body_loads(C2, a2)[0])
        want = bounds.LoadInterval(lo, 0.0, "closed", not lo < 0.0)
        assert _bits(load_interval_compression(C1, C2, a1, a2)) == _bits(want)
        kernel = bounds._triaxial_interval(C1, C2, a1, a2, 0.0, True)
        assert _bits(kernel) == _bits(want)


def test_numeric_bounds_match_closed_form():
    fp = {"C1": 1.0, "C2": 1.0, "a1": 0.81, "a2": 0.81}
    iv = numeric_load_bounds("compression", fp)
    assert iv.tau_lo == pytest.approx(COMPRESSION_LO_081, abs=1e-6)
    assert iv.tau_hi == pytest.approx(0.0, abs=1e-6)
    fp = dict(fp, g=10.0)
    iv = numeric_load_bounds("cohesive", fp)
    assert iv.tau_hi == pytest.approx(COHESIVE_HI_081_G10, abs=1e-6)
    fp = {"C1": 1.0, "C2": 1.0, "A": 1.0, "a1": 1.0, "a2": 1.0, "b1": 1.0, "b2": 1.0}
    iv = numeric_load_bounds("bending", fp)
    assert iv.tau_lo == pytest.approx(BENDING_LO_WORKED, abs=1e-6)


@pytest.mark.parametrize(
    "example, fp",
    [
        # README compression config and the cohesive example config
        ("compression", {"C1": 1.0, "C2": 1.0, "a1": 0.81, "a2": 0.81}),
        ("cohesive", {"C1": 1.0, "C2": 2.0, "a1": 0.9, "a2": 0.9, "g": 0.6}),
        ("bending", {"C1": 1.0, "C2": 1.0, "A": 1.0, "a1": 1.0, "a2": 1.0, "b1": 1.0}),
    ],
)
def test_numeric_bounds_are_certified(example, fp):
    # both reported ends are loads the feasibility predicate accepts
    iv = numeric_load_bounds(example, fp)
    linkage = _linkage(example, fp)[0]
    cap = fp.get("g", 0.0)
    assert _feasible_closed(iv.tau_lo, linkage, cap)
    assert _feasible_closed(iv.tau_hi, linkage, cap)


def test_numeric_bounds_infeasible_when_closed_set_is_empty():
    fp = {"C1": 1.0, "C2": 1.0, "a1": 1.0, "a2": 1.0}
    with pytest.raises(InfeasibleProblem):
        numeric_load_bounds("compression", fp)


# cohesive: the closed interval (3.8837, 4.1467) is narrower than one
# step of the 129-point coarse scan, which steps over it
SCAN_MISS = {"C1": 2.5536, "a1": 1.4818, "C2": 2.5165, "a2": 0.8515, "g": 4.9415}


def test_numeric_bounds_survive_a_scan_miss():
    b_lo, b_hi = search_bracket("cohesive", SCAN_MISS)
    linkage = _linkage("cohesive", SCAN_MISS)[0]
    scan = np.linspace(b_lo, b_hi, 129)
    assert not any(_feasible_closed(t, linkage, SCAN_MISS["g"]) for t in scan)
    closed = load_interval_cohesive(**SCAN_MISS)
    iv = numeric_load_bounds("cohesive", SCAN_MISS)
    assert abs(iv.tau_lo - closed.tau_lo) <= 1e-6
    assert abs(iv.tau_hi - closed.tau_hi) <= 1e-6
    assert _feasible_closed(iv.tau_lo, linkage, SCAN_MISS["g"])
    assert _feasible_closed(iv.tau_hi, linkage, SCAN_MISS["g"])


def _exact_bodies(example, fp):
    """Per body (C, s, the squares of its principal stretches at their
    extremes) as Fractions of the float parameters: a triaxial body's a^2
    and 1/a; a bending body's a^2/rho_lo, A^2 rho_hi/a and 1/(A^2 a). The
    referee reads the parameters alone and shares no code with bounds."""
    if example != "bending":
        return [(Fraction(C), Fraction(a) ** 2, (Fraction(a) ** 2, 1 / Fraction(a)))
                for C, a in ((fp["C1"], fp["a1"]), (fp["C2"], fp["a2"]))]
    A, a1, b1 = Fraction(fp["A"]), Fraction(fp["a1"]), Fraction(fp["b1"])
    out = []
    for C, a, b, x_lo in ((fp["C1"], a1, b1, 0), (fp["C2"], Fraction(fp["a2"]),
                                                   Fraction(fp["b2"]), Fraction(1, 2))):
        # rho = 2 a x + b over the body's half unit of x; a / r falls and
        # A r / sqrt(a) grows with rho
        rho_lo, rho_hi = 2 * a * x_lo + b, 2 * a * (x_lo + Fraction(1, 2)) + b
        out.append((Fraction(C), a * a / (a1 + b1), (a * a / rho_lo, A * A * rho_hi / a,
                                                     1 / (A * A * a))))
    return out


def _exactly_feasible(tau, bodies, cap):
    # tau <= cap and |C s - tau| < C / lambda_k for every body and stretch,
    # squared as (C s - tau)^2 lambda_k^2 < C^2: decided with no rounding
    t = Fraction(tau)
    return t <= Fraction(cap) and all(
        (C * s - t) ** 2 * lam2 < C * C for C, s, lams2 in bodies for lam2 in lams2
    )


def _exact_draw(rng, example):
    # the ranges of the moduli, stretches and radii that the referee was
    # first tried on
    C1, C2 = np.exp(rng.uniform(-3.0, 3.0, 2)).tolist()
    if example == "bending":
        A, a1, a2, b1 = rng.uniform([0.5, 0.3, 0.3, 0.2], [1.5, 3.0, 3.0, 3.0]).tolist()
        return {"C1": C1, "C2": C2, "A": A, "a1": a1, "a2": a2, "b1": b1, "b2": a1 + b1 - a2}
    a1, a2 = np.exp(rng.uniform(-1.0, 1.0, 2)).tolist()
    fp = {"C1": C1, "C2": C2, "a1": a1, "a2": a2}
    if example == "cohesive":
        fp["g"] = math.exp(rng.uniform(-3.0, 3.0))
    return fp


def test_exact_referee_splits_the_floats_at_the_exact_end():
    # compression: the exact lower end is -1.19327848928777972...; the two
    # floats below it are rejected, the one above accepted
    fp = {"C1": 4.2181280873482665, "a1": 0.3898514369093445,
          "C2": 12.603190295862117, "a2": 0.9335556613696399}
    bodies = _exact_bodies("compression", fp)
    assert not _exactly_feasible(-1.1932784892877801, bodies, 0.0)
    assert not _exactly_feasible(-1.19327848928778, bodies, 0.0)
    assert _exactly_feasible(-1.1932784892877797, bodies, 0.0)
    assert not _exactly_feasible(math.nextafter(0.0, 1.0), bodies, 0.0)  # past the cap


@pytest.mark.parametrize("example", ["compression", "cohesive", "bending"])
def test_bisection_and_oracle_ends_pass_the_exact_predicate(example):
    # 1,000 fixed draws: every end that the bisection or the oracle reports
    # is a load that exact rational arithmetic accepts
    rng = np.random.default_rng(2026)
    ends = 0
    for _ in range(1000):
        fp = _exact_draw(rng, example)
        bodies, cap = _exact_bodies(example, fp), fp.get("g", 0.0)
        reported = []
        try:
            reported.append(numeric_load_bounds(example, fp))
        except InfeasibleProblem:
            pass
        oracle = brute_force_oracle(example, fp)
        if oracle.regime == "closed":
            reported.append(oracle)
        for iv in reported:
            assert _exactly_feasible(iv.tau_lo, bodies, cap), (fp, iv)
            assert _exactly_feasible(iv.tau_hi, bodies, cap), (fp, iv)
            ends += 2
    assert ends >= 400  # not a vacuous law: many draws give an interval


CLOSED_FORM_CODE = {"load_interval_compression", "load_interval_cohesive",
                    "load_interval_bending", "_body_loads", "_triaxial_interval"}
SEARCH_CODE = {"_linkage", "_feasible_closed", "_bracket", "_scan", "_bisect",
               "search_bracket", "numeric_load_bounds", "brute_force_oracle"}


def _reached(start):
    # the module functions of bounds that start names, directly or through
    # one another: called or passed on alike
    tree = ast.parse(inspect.getsource(bounds))
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    seen, todo = set(), [start]
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            if isinstance(node, ast.Name) and node.id in defs and node.id not in seen:
                seen.add(node.id)
                todo.append(node.id)
    return seen


def test_closed_forms_and_the_search_share_no_helper():
    # the closed forms, the bisection and the oracle stay independent
    # computations: neither side reaches the other's code
    for name in CLOSED_FORM_CODE:
        assert not _reached(name) & SEARCH_CODE, name
    for name in SEARCH_CODE:
        assert not _reached(name) & CLOSED_FORM_CODE, name
    assert {"_body_loads", "_triaxial_interval"} <= _reached("load_interval_cohesive")
    assert {"_linkage", "_scan", "_bisect"} <= _reached("numeric_load_bounds")
    assert {"_linkage", "_scan", "_feasible_closed"} <= _reached("brute_force_oracle")


def _feasible_reference(tau, linkage, cap):
    # the scalar loop the array predicate replaced, rejecting load by load
    if not tau <= cap:
        return False
    for C, s, lam in linkage:
        if abs(C * s - tau) >= C / lam:
            return False
    return True


@pytest.mark.parametrize(
    "example, fp, cap_ok",
    [
        ("compression", {"C1": 1.0, "C2": 1.0, "a1": 0.81, "a2": 0.81}, True),
        ("compression", {"C1": 1.0, "C2": 1.0, "a1": 1.0, "a2": 1.0}, False),
        ("cohesive", {"C1": 1.0, "C2": 2.0, "a1": 0.9, "a2": 0.9, "g": 0.6}, True),
        ("cohesive", SCAN_MISS, False),
        ("bending", {"C1": 1.0, "C2": 1.0, "A": 1.0, "a1": 1.0, "a2": 1.0, "b1": 1.0}, True),
    ],
)
def test_feasible_closed_takes_the_scan_array(example, fp, cap_ok):
    # the array of loads gives the scalar result load by load, NaN, +/-inf
    # and the cap itself included
    linkage, cap = _linkage(example, fp)
    b_lo, b_hi = search_bracket(example, fp)
    extra = [math.nan, math.inf, -math.inf, cap, math.nextafter(cap, math.inf)]
    taus = np.append(np.linspace(b_lo, b_hi, bounds.COARSE_N), extra)
    ok = _feasible_closed(taus, linkage, cap)
    assert ok.dtype == bool and ok.shape == taus.shape
    scalar = [_feasible_closed(t, linkage, cap) for t in taus.tolist()]
    assert all(type(v) is bool for v in scalar)
    assert ok.tolist() == scalar
    assert scalar == [bool(_feasible_closed(t, linkage, cap)) for t in taus]
    assert scalar == [_feasible_reference(t, linkage, cap) for t in taus.tolist()]
    assert scalar[-5:] == [False, False, False, cap_ok, False]


CLOSED_FORMS = {
    "compression": load_interval_compression,
    "cohesive": load_interval_cohesive,
    "bending": load_interval_bending,
}


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    example=st.sampled_from(sorted(CLOSED_FORMS)),
    C1=st.floats(0.5, 3.0),
    C2=st.floats(0.5, 3.0),
    a1=st.floats(0.3, 2.0),
    a2=st.floats(0.3, 2.0),
    g=st.floats(0.05, 5.0),
    A=st.floats(0.3, 2.0),
    b1=st.floats(0.05, 3.0),
)
@example(example="cohesive", A=1.0, b1=1.0, **SCAN_MISS)
def test_closed_form_and_bisection_agree(example, C1, C2, a1, a2, g, A, b1):
    # both stretches range across 1, where the binding window changes
    fp = {"C1": C1, "C2": C2, "a1": a1, "a2": a2}
    if example == "cohesive":
        fp["g"] = g
    if example == "bending":
        fp.update(A=A, b1=b1, b2=a1 + b1 - a2)
    closed = CLOSED_FORMS[example](**fp)
    try:
        numeric = numeric_load_bounds(example, fp)
    except InfeasibleProblem:
        numeric = None
    assert closed.empty == (numeric is None)
    if numeric is not None:
        assert abs(numeric.tau_lo - closed.tau_lo) <= 1e-6
        assert abs(numeric.tau_hi - closed.tau_hi) <= 1e-6


def _per_station_threshold(example, fp, body):
    # reference, one station at a time: the least C / lambda_k over the
    # three principal stretches at each sampled station
    C, a = fp["C%d" % body], fp["a%d" % body]
    if example != "bending":
        stations = [(a, 1.0 / math.sqrt(a), 1.0 / math.sqrt(a))]
    else:
        A, b = fp["A"], fp["b%d" % body]
        x_lo = 0.0 if body == 1 else 0.5
        stations = []
        for x in np.linspace(x_lo, x_lo + 0.5, 65):
            r, sa = math.sqrt(2.0 * a * x + b), math.sqrt(a)
            stations.append((a / r, A * r / sa, 1.0 / (A * sa)))
    worst = math.inf
    for f in stations:
        for k in range(3):
            worst = min(worst, C / f[k])
    return worst


def test_window_is_the_least_per_station_threshold():
    rng = np.random.default_rng(8)
    for n in range(2000):
        example = ("compression", "bending")[n % 2]
        C1, C2, a1, a2, A, b1 = (float(v) for v in rng.uniform(
            [0.5, 0.5, 0.3, 0.3, 0.3, 0.05], [3.0, 3.0, 2.0, 2.0, 2.0, 3.0]))
        fp = {"C1": C1, "C2": C2, "a1": a1, "a2": a2, "A": A, "b1": b1, "b2": a1 + b1 - a2}
        for body, (C, s, lam) in enumerate(_linkage(example, fp)[0], start=1):
            assert C / lam == _per_station_threshold(example, fp, body)


def test_bisection_ends_where_the_floats_run_out():
    # above |tau| ~ 7e7 the float spacing exceeds BISECTION_TOL, and at
    # C = 1e308 the bracket overflows; a subprocess turns a hang into a
    # failure
    cases = []
    for C in (1e9, 3e9, 1e12):
        cases += [
            ("compression", {"C1": C, "C2": C, "a1": 0.9, "a2": 0.9}),
            ("cohesive", {"C1": C, "C2": C, "a1": 0.9, "a2": 0.9, "g": 0.6 * C}),
            ("bending", {"C1": C, "C2": C, "a1": 1.0, "a2": 1.0, "A": 1.0,
                         "b1": 1.0, "b2": 1.0}),
        ]
    cases.append(("compression", {"C1": 1e308, "C2": 1.0, "a1": 0.9, "a2": 0.9}))
    script = (
        "import json, sys\n"
        "from contactbounds.bounds import numeric_load_bounds\n"
        "out = []\n"
        "for example, fp in json.load(sys.stdin):\n"
        "    try:\n"
        "        iv = numeric_load_bounds(example, fp)\n"
        "        out.append([float(iv.tau_lo), float(iv.tau_hi)])\n"
        "    except OverflowError as e:\n"
        "        out.append(str(e))\n"
        "print(json.dumps(out))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], input=json.dumps(cases),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert results.pop() == "load bracket [-inf, inf] overflows"
    for (example, fp), (lo, hi) in zip(cases, results):
        closed = CLOSED_FORMS[example](**fp)
        # a few units in the last place of the closed form's own rounding
        assert abs(lo - closed.tau_lo) <= max(1e-6, 1e-14 * abs(closed.tau_lo))
        assert abs(hi - closed.tau_hi) <= max(1e-6, 1e-14 * abs(closed.tau_hi))
        assert _feasible_closed(lo, _linkage(example, fp)[0], fp.get("g", 0.0))


@pytest.mark.parametrize("example", ["compression", "cohesive"])
def test_an_overflowing_stretch_square_is_named_by_each_solver(example):
    # a^2 of a = 1e200 overflows as a Python float: the closed form and
    # the linkage of the bisection and the oracle each say so on their own
    fp = {"C1": 1.0, "C2": 1.0, "a1": 0.81, "a2": 1e200}
    if example == "cohesive":
        fp["g"] = 0.6
    with pytest.raises(OverflowError) as closed:
        CLOSED_FORMS[example](**fp)
    assert str(closed.value) == "closed-form window: stretch a = 1e+200 overflows in a^2"
    for solve in (search_bracket, numeric_load_bounds, brute_force_oracle):
        with pytest.raises(OverflowError) as linkage:
            solve(example, fp)
        assert str(linkage.value) == "linkage: stretch a = 1e+200 overflows in a^2"


@pytest.mark.parametrize("body", ["a1", "a2"])
def test_an_overflowing_bending_stretch_square_is_named_by_each_solver(body):
    # a^2 of a = 1e200 overflows as a Python float in the bending closed form
    # and in the bending linkage; each names the stretch on its own
    fp = {"C1": 1.0, "C2": 1.0, "A": 1.0, "a1": 1.0, "a2": 1.0, "b1": 1.0, "b2": 1.0}
    fp[body] = 1e200
    with pytest.raises(OverflowError) as closed:
        load_interval_bending(**fp)
    assert str(closed.value) == "closed-form window: stretch %s = 1e+200 overflows in %s^2" % (
        body, body,
    )
    for solve in (search_bracket, numeric_load_bounds, brute_force_oracle):
        with pytest.raises(OverflowError) as linkage:
            solve("bending", fp)
        assert str(linkage.value) == "linkage: stretch a = 1e+200 overflows in a^2"


@pytest.mark.parametrize("body", ["a1", "a2"])
def test_an_underflowing_bending_axial_stretch_is_named_by_each_solver(body):
    # A sqrt(a) of A = a = 1e-300 underflows to 0, so 1 / (A sqrt(a)) would
    # divide by zero in the bending closed form and in the bending linkage;
    # each names A and the stretch on its own
    fp = {"C1": 1.0, "C2": 1.0, "A": 1e-300, "a1": 1.0, "a2": 1.0, "b1": 1.0, "b2": 1.0}
    fp[body] = 1e-300
    with pytest.raises(ZeroDivisionError) as closed:
        load_interval_bending(**fp)
    assert str(closed.value) == (
        "closed-form window: A sqrt(%s) underflows to 0 for A = 1e-300, %s = 1e-300" % (body, body)
    )
    for solve in (search_bracket, numeric_load_bounds, brute_force_oracle):
        with pytest.raises(ZeroDivisionError) as linkage:
            solve("bending", fp)
        assert str(linkage.value) == "linkage: A sqrt(a) underflows to 0 for A = 1e-300, a = 1e-300"


def test_linkage_rejects_a_nan_radius():
    fp = {"C1": 1.0, "C2": 1.0, "A": 1.0, "a1": 1.0, "a2": 1.0, "b1": 1.0, "b2": math.nan}
    for solve in (search_bracket, numeric_load_bounds, brute_force_oracle):
        with pytest.raises(InvalidParameters, match="nonpositive radius"):
            solve("bending", fp)


def _linkage_65(example, fp):
    # the linkage as built before its end-station form: every principal
    # stretch at 65 stations across each bending body, maxima by numpy
    if example != "bending":
        return _linkage(example, fp)[0]
    A, b1 = fp["A"], fp["b1"]
    bounds._check_positive(A=A)
    if b1 < bounds.R_MIN**2:
        raise InvalidParameters("b1 = %r below minimum" % (b1,))
    rho_c = fp["a1"] + b1
    b2 = rho_c - fp["a2"] if fp.get("b2") is None else fp["b2"]
    out = []
    for C, a, b, x_lo in ((fp["C1"], fp["a1"], b1, 0.0), (fp["C2"], fp["a2"], b2, 0.5)):
        bounds._check_positive(C=C, a=a)
        rho = 2.0 * a * np.linspace(x_lo, x_lo + 0.5, 65) + b
        if not np.all(rho > 0.0):
            raise InvalidParameters("nonpositive radius in body")
        r, sa = np.sqrt(rho), math.sqrt(a)
        if A * sa == 0.0:  # named, as the bending closed form names it
            raise ZeroDivisionError("linkage: A sqrt(a) underflows to 0 for A = %r, a = %r" % (A, a))
        lam = max(float(np.max(a / r)), float(np.max(A * r / sa)), 1.0 / (A * sa))
        try:
            sq = a**2
        except OverflowError:  # named, as the triaxial branch names it
            raise OverflowError("linkage: stretch a = %r overflows in a^2" % (a,)) from None
        out.append((C, sq / rho_c, lam))
    return out


def _linkage_bodies(example, fp):
    return _linkage(example, fp)[0]


def _outcome(build, example, fp):
    # the floats bit for bit, or the error's type and message
    try:
        with np.errstate(all="ignore"):
            return [tuple(float(v).hex() for v in body) for body in build(example, fp)]
    except (InvalidParameters, ArithmeticError) as e:
        return type(e).__name__, str(e)


def test_linkage_end_stations_give_the_65_station_maxima_bit_for_bit():
    rng = np.random.default_rng(21)
    big = sys.float_info.max
    # moduli, stretches and rates log-uniform over 1e-8..1e8 or special:
    # subnormal, tiny, huge, and (for a) so large that 2 a overflows
    special = [5e-324, 1e-310, 1e-300, 1e300, 0.5 * big]
    square = [bounds.R_MIN**2, 1e300, 0.0, -1.0, math.nan]

    def draw(pool, lo=-8.0, hi=8.0):
        if rng.random() < 0.25:
            return pool[rng.integers(len(pool))]
        return float(10.0 ** rng.uniform(lo, hi))

    cases = [
        # the top station's squared radius overflows to inf, the bottom one's not
        ("bending", {"C1": 1.0, "C2": 1.0, "A": 1.0, "a1": 1.0, "a2": 0.5 * big,
                     "b1": 1.0, "b2": 1e300}),
        ("bending", {"C1": 1.0, "C2": 1.0, "A": 1.0, "a1": 1.0, "a2": 1.0,
                     "b1": bounds.R_MIN**2, "b2": None}),
    ]
    for n in range(3000):
        example = ("compression", "cohesive", "bending")[n % 3]
        fp = {"C1": draw(special), "C2": draw(special), "a1": draw(special),
              "a2": draw(special), "g": 1.0}
        if example == "bending":
            fp.update(A=draw(special), b1=draw(square, -12.0, 300.0),
                      b2=None if n % 2 else draw(square, -12.0, 300.0))
        cases.append((example, fp))
    seen = set()
    for example, fp in cases:
        want = _outcome(_linkage_65, example, fp)
        assert _outcome(_linkage_bodies, example, fp) == want, (example, fp)
        seen.add(want[0] if isinstance(want[0], str) else "ok")
    # every path is taken: accepted, each rejection, float overflow and underflow
    assert {"ok", "InvalidParameters", "OverflowError", "ZeroDivisionError"} <= seen
    nan_radius = {"C1": 1.0, "C2": 1.0, "A": 1.0, "a1": 1.0, "a2": 1.0, "b1": 1.0}
    # body 2's squared radius NaN, negative, or 0 exactly at its first station
    for b2 in (math.nan, -3.0, -1.0):
        got = _outcome(_linkage_bodies, "bending", {**nan_radius, "b2": b2})
        assert got == ("InvalidParameters", "nonpositive radius in body")


def test_linkage_makes_no_numpy_call(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError("numpy.%s called" % name)

    fp = {"C1": 1.3, "C2": 0.7, "A": 1.1, "a1": 0.9, "a2": 1.2, "b1": 2.0, "b2": None}
    want = _linkage("bending", fp)
    monkeypatch.setattr(bounds, "np", NoNumpy())
    assert _linkage("bending", fp) == want


def test_numeric_bounds_open_regime_passthrough():
    fp = {"C1": 1.0, "C2": 1.0, "a1": 0.81, "a2": 0.81, "g": 1.5,
          "contact_closed": False}
    iv = numeric_load_bounds("cohesive", fp)
    assert (iv.tau_lo, iv.tau_hi, iv.regime) == (1.5, 1.5, "open")


def test_oracle_within_grid_resolution():
    fp = {"C1": 1.0, "C2": 1.0, "a1": 0.81, "a2": 0.81}
    iv = brute_force_oracle("compression", fp, grid_n=1000)
    lo, hi = search_bracket("compression", fp)
    res = (hi - lo) / 1000
    assert abs(iv.tau_lo - COMPRESSION_LO_081) <= 2.0 * res
    assert abs(iv.tau_hi - 0.0) <= 2.0 * res
    assert iv.regime == "closed"


def test_oracle_falls_back_to_open_singleton():
    fp = {"C1": 1.0, "C2": 1.0, "a1": 1.0, "a2": 1.0}
    iv = brute_force_oracle("compression", fp)
    assert (iv.tau_lo, iv.tau_hi, iv.regime, iv.empty) == (0.0, 0.0, "open", False)
    fp = {"C1": 1.0, "C2": 1.0, "a1": 0.9, "a2": 0.9, "g": 0.7,
          "contact_closed": False}
    iv = brute_force_oracle("cohesive", fp)
    assert (iv.tau_lo, iv.tau_hi, iv.regime) == (0.7, 0.7, "open")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    example=st.sampled_from(sorted(CLOSED_FORMS)),
    C=st.floats(0.5, 3.0),
    a1=st.floats(0.3, 2.0),
    a2=st.floats(0.3, 0.99),
    g=st.floats(0.05, 5.0),
    A=st.floats(0.3, 2.0),
    b1=st.floats(0.05, 3.0),
    frac=st.floats(0.05, 0.98),
    grid_n=st.integers(100, 2000),
)
def test_oracle_finds_an_interval_narrower_than_its_grid_step(
    example, C, a1, a2, g, A, b1, frac, grid_n
):
    # one body's modulus c is set so that the closed-form interval, linear
    # in c while c is small, is frac of the oracle's grid step wide; it
    # then lies between two grid loads unless one falls inside it
    small = "C2" if example == "bending" else "C1"
    fp = {"C1": C, "C2": C, "a1": a1, "a2": a2}
    if example == "cohesive":
        fp["g"] = g
    if example == "bending":
        fp.update(A=A, b1=b1, b2=a1 + b1 - a2)

    def width(c):
        iv = CLOSED_FORMS[example](**{**fp, small: c})
        return 0.0 if iv.empty else iv.tau_hi - iv.tau_lo

    def res(c):
        b_lo, b_hi = search_bracket(example, {**fp, small: c})
        return (b_hi - b_lo) / grid_n

    slope = width(1e-6) / 1e-6
    assume(slope > 0.0)
    fp[small] = frac * res(1e-6) / slope
    closed = CLOSED_FORMS[example](**fp)
    step = res(fp[small])
    # wider than the rescan's spacing 2 step / grid_n (<= 0.02 step), and
    # not a round-off sliver where the other body's window edge meets 0
    w = 0.0 if closed.empty else closed.tau_hi - closed.tau_lo
    assume(0.04 * step < w < step)
    oracle = brute_force_oracle(example, fp, grid_n)
    assert oracle.regime == "closed"
    # one grid load inside the interval, or the rescan's hull
    gap = max(abs(oracle.tau_lo - closed.tau_lo), abs(oracle.tau_hi - closed.tau_hi))
    assert gap <= max(w, 2.0 * step / grid_n) * (1.0 + 1e-9)


def test_oracle_argument_validation():
    with pytest.raises(InvalidParameters):
        brute_force_oracle("compression", {"C1": 1.0, "C2": 1.0, "a1": 0.8, "a2": 0.8}, grid_n=1)
    # the least grid: of its three loads, the bracket's ends and middle,
    # only the middle one, 0, is feasible
    fp = {"C1": 1.0, "C2": 1.0, "a1": 0.8, "a2": 0.8}
    iv = brute_force_oracle("compression", fp, grid_n=2)
    assert iv == bounds.LoadInterval(0.0, 0.0, "closed", False)
    with pytest.raises(InvalidParameters):
        brute_force_oracle("squeeze", {"C1": 1.0, "C2": 1.0, "a1": 0.8, "a2": 0.8})


def test_search_bracket_contains_the_interval():
    rng = np.random.default_rng(23)
    for _ in range(20):
        C1, C2 = rng.uniform(0.5, 3.0, 2)
        a1, a2 = rng.uniform(0.5, 0.99, 2)
        fp = {"C1": C1, "C2": C2, "a1": a1, "a2": a2}
        lo, hi = search_bracket("compression", fp)
        iv = load_interval_compression(C1, C2, a1, a2)
        assert lo < iv.tau_lo and iv.tau_hi < hi


def test_interval_scaling_in_modulus():
    iv1 = load_interval_compression(1.3, 0.7, 0.8, 0.9)
    iv2 = load_interval_compression(2.0 * 1.3, 2.0 * 0.7, 0.8, 0.9)
    assert iv2.tau_lo == 2.0 * iv1.tau_lo  # bitwise for power-of-two factors
    assert iv2.tau_hi == 2.0 * iv1.tau_hi


def test_interval_swap_symmetry():
    iv1 = load_interval_cohesive(1.3, 0.7, 0.8, 0.9, 1.1)
    iv2 = load_interval_cohesive(0.7, 1.3, 0.9, 0.8, 1.1)
    assert iv1 == iv2
