import contextlib
import dataclasses
import inspect
import io
import json
import math
import pathlib
import re
import signal
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactbounds import bounds, cli, contact, energy, kinematics, tensor3
from contactbounds.errors import (
    ContactBoundsError,
    InfeasibleProblem,
    NonPositiveJacobian,
    ParseError,
    ValidationError,
)
from contactbounds.kinematics import StretchBend, TriaxialStretch
from contactbounds.material import (
    Constant,
    NeoHookeanIncompressible,
    RadialProfile,
    piola_stress,
)
from contactbounds.states import BOX1, BOX2

COMP_CFG = """\
[system]
example = compression

[body1]
C = 1.0
a = 0.81

[body2]
C = 1.0
a = 0.81

[load]
tau = -0.3
"""

COH_CFG = """\
[system]
example = cohesive

[body1]
C = 1.0
a = 0.9

[body2]
C = 2.0
a = 0.9

[contact]
g = 0.6
"""

BEND_CFG = """\
[system]
example = bending
A = 1.0

[body1]
C = 1.0
a = 1.0
b = 1.0

[body2]
C = 1.0
a = 1.0
"""


def test_parse_minimal_compression():
    cfg = cli.parse_config(COMP_CFG)
    assert cfg.example == "compression"
    assert cfg.body1.C == 1.0 and cfg.body1.a == 0.81
    assert cfg.tau == -0.3
    assert cfg.g == 0.0 and cfg.d_allow == 0.0
    assert (cfg.quad_order, cfg.grid_n, cfg.probe_count, cfg.seed) == (8, 1000, 200, 42)


def test_parse_comments_and_blank_lines_ignored():
    cfg = cli.parse_config("# header comment\n\n" + COMP_CFG.replace(
        "a = 0.81", "a = 0.81  # stretch", 1))
    assert cfg.body1.a == 0.81


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("[nosuch]\n", 1, "unknown section"),
        ("[body1\nC = 1\n", 1, "malformed section header"),
        ("[body1]\nC = 1\n[body1]\n", 3, "duplicate section"),
        ("C = 1\n", 1, "outside any section"),
        ("[body1]\nQ = 1\n", 2, "unknown key"),
        ("[body1]\nC = 1\nC = 2\n", 3, "duplicate key"),
        ("[body1]\nC =\n", 2, "empty value"),
        ("[body1]\nC no-equals\n", 2, "key = value"),
        ("[system]\nexample = compression\n[body1]\nC = abc\na = 1\n"
         "[body2]\nC = 1\na = 1\n", 4, "cannot parse"),
        ("[system]\nexample = compression\n[body1]\nC = 1\na = 1\n"
         "[body2]\nC = 1\na = 1\n[numerics]\nseed = 1.5\n", 10, "as an integer"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ParseError, match=fragment) as exc:
        cli.parse_config(text)
    assert exc.value.line == line
    assert "line %d" % line in str(exc.value)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda t: t.replace("example = compression\n", ""), "example is required"),
        (lambda t: t.replace("compression", "squeeze"), "example must be one of"),
        (lambda t: t.replace("C = 1.0\na = 0.81\n", "C = 1.0\n", 1), "requires C and a"),
        (lambda t: t.replace("C = 1.0", "C = -1.0", 1), "C must be positive"),
        (lambda t: t.replace("a = 0.81", "a = 0.0", 1), "a must be positive"),
        (lambda t: t + "[contact]\nd_allow = -0.1\n", "d_allow must be"),
        (lambda t: t + "[contact]\ng = -1\n", "g must be"),
        (lambda t: t.replace("tau = -0.3", "tau = inf"), "tau must be finite"),
        (lambda t: t + "[system]\nA = 1\n", "duplicate section"),
        (lambda t: t + "[numerics]\nquad_order = 0\n", "quad_order"),
        (lambda t: t + "[numerics]\ngrid_n = 1\n", "grid_n"),
        (lambda t: t + "[numerics]\nprobe_count = 0\n", "probe_count"),
        (lambda t: t + "[numerics]\ngrid_n = 1000001\n", "grid_n must be in"),
        (lambda t: t + "[numerics]\nprobe_count = 100001\n", "probe_count must be in"),
        (lambda t: t + "[numerics]\nseed = -1\n", "seed"),
    ],
)
def test_semantic_validation(mutate, fragment):
    with pytest.raises((ValidationError, ParseError), match=fragment):
        cli.parse_config(mutate(COMP_CFG))


def test_bending_specific_validation():
    with pytest.raises(ValidationError, match="requires \\[system\\] A"):
        cli.parse_config(BEND_CFG.replace("A = 1.0\n", ""))
    with pytest.raises(ValidationError, match="requires \\[body1\\] b"):
        cli.parse_config(BEND_CFG.replace("b = 1.0\n", ""))
    with pytest.raises(ValidationError, match="only applies to the bending"):
        cli.parse_config(COMP_CFG.replace("example = compression",
                                          "example = compression\nA = 1.0"))
    with pytest.raises(ValidationError, match="g > 0"):
        cli.parse_config(COH_CFG.replace("g = 0.6", "g = 0"))


def _serialize_key_by_key(config):
    # canonical config text, one line per key
    out = ["[system]", "example = %s" % config.example]
    if config.A is not None:
        out.append("A = %r" % config.A)
    for name, body in (("body1", config.body1), ("body2", config.body2)):
        out.append("[%s]" % name)
        out.append("C = %r" % body.C)
        out.append("a = %r" % body.a)
        if body.b is not None:
            out.append("b = %r" % body.b)
        if body.pressure is not None:
            out.append("pressure = %r" % body.pressure)
    out.append("[contact]")
    out.append("d_allow = %r" % config.d_allow)
    out.append("g = %r" % config.g)
    if config.tau is not None:
        out.append("[load]")
        out.append("tau = %r" % config.tau)
    out.append("[numerics]")
    out.append("quad_order = %d" % config.quad_order)
    out.append("grid_n = %d" % config.grid_n)
    out.append("probe_count = %d" % config.probe_count)
    out.append("seed = %d" % config.seed)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize(
    "text",
    [
        COMP_CFG,
        COH_CFG,
        BEND_CFG,
        COMP_CFG.replace("a = 0.81\n", "a = 0.81\npressure = -0.25\n", 1)
        + "[contact]\nd_allow = 0.001\n[numerics]\nseed = 7\ngrid_n = 50\n",
        COH_CFG + "[load]\ntau = 0.125\n[numerics]\nquad_order = 3\nprobe_count = 9\n",
        BEND_CFG.replace("A = 1.0", "A = 0.7").replace("b = 1.0", "b = 2.5")
        + "pressure = 1e-3\nb = 1.75\n[load]\ntau = -1.5e-7\n[numerics]\nseed = 0\n",
    ],
)
def test_serialize_round_trip(text):
    cfg = cli.parse_config(text)
    canon = _serialize_key_by_key(cfg)
    assert cli.parse_config(canon) == cfg
    assert _serialize_key_by_key(cli.parse_config(canon)) == canon


def test_parse_keeps_the_dataclass_defaults():
    cfg = cli.parse_config(COMP_CFG)
    defaults = cli.ProblemConfig("compression", cfg.body1, cfg.body2, tau=-0.3)
    assert cfg == defaults
    assert cli.parse_config(COMP_CFG + "[numerics]\ngrid_n = 50\n") == dataclasses.replace(
        defaults, grid_n=50
    )


@pytest.mark.parametrize("key", ["b", "pressure"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("section", ["body1", "body2"])
def test_body_offsets_and_pressures_must_be_finite(tmp_path, capsys, key, value, section):
    body = "[%s]\nC = 1.0\na = 1.0\n" % section
    text = BEND_CFG.replace("b = 1.0\n", "").replace(body, body + "%s = %s\n" % (key, value))
    with pytest.raises(ValidationError, match=r"^\[%s\] %s must be finite$" % (section, key)):
        cli.parse_config(text)
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(text)
    sweep = ["--param", "a1", "--range", "0.9:1.1:3"]
    for argv in (["run"], ["verify"], ["sweep"] + sweep):
        assert cli.main(argv[:1] + ["--config", str(cfg_path)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [%s] %s must be finite\n" % (section, key)


@pytest.mark.parametrize("text", [COMP_CFG, BEND_CFG], ids=["compression", "bending"])
def test_cohesive_cap_only_applies_to_the_cohesive_example(text):
    with pytest.raises(ValidationError, match=r"^\[contact\] g only applies to the cohesive"):
        cli.parse_config(text + "[contact]\ng = 0.5\n")
    with pytest.raises(ValidationError, match=r"^\[contact\] g must be >= 0$"):
        cli.parse_config(text + "[contact]\ng = -1\n")
    assert cli.parse_config(text + "[contact]\ng = 0\n") == cli.parse_config(text)


def test_large_loads_agree_within_a_relative_bound(capsys, tmp_path):
    # the ends are about 1.4e11, where floats lie 3.05e-05 apart
    text = COMP_CFG.replace("C = 1.0\na = 0.81", "C = 1e12\na = 0.9").replace(
        "[load]\ntau = -0.3\n", ""
    )
    report = cli.run(cli.parse_config(text))
    assert report.closed_form.tau_lo != report.numeric.tau_lo
    assert report.warnings == ()
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(text)
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.endswith("\nwarnings: none\n")


def test_build_system_default_pressures():
    sys_ = cli.build_system(cli.parse_config(COMP_CFG))
    assert isinstance(sys_.body1.pressure, Constant)
    assert sys_.body1.pressure.p == pytest.approx(1.0 / 0.81, rel=1e-15)
    text = COMP_CFG.replace("a = 0.81\n", "a = 0.81\npressure = 0.5\n", 1)
    sys_ = cli.build_system(cli.parse_config(text))
    assert sys_.body1.pressure.p == 0.5
    assert sys_.body2.pressure.p == pytest.approx(1.0 / 0.81, rel=1e-15)


def test_build_system_closes_the_gap_by_default():
    from contactbounds.contact import evaluate_contact

    text = COMP_CFG.replace("a = 0.81", "a = 0.7", 1)
    sys_ = cli.build_system(cli.parse_config(text))
    assert evaluate_contact(sys_).regime == "closed"
    # an explicit body2 offset shifts the default body1 closure with it
    sys2 = cli.build_system(cli.parse_config(
        text.replace("[body2]\nC = 1.0\na = 0.81",
                     "[body2]\nC = 1.0\na = 0.81\nb = 0.25")))
    assert evaluate_contact(sys2).regime == "closed"
    assert sys2.body2.map.b == 0.25


def test_build_system_bending_geometry():
    sys_ = cli.build_system(cli.parse_config(BEND_CFG))
    m1, m2 = sys_.body1.map, sys_.body2.map
    assert m2.b == pytest.approx(m1.a * 1.0 + m1.b - m2.a, abs=0.0)
    assert isinstance(sys_.body1.pressure, RadialProfile)
    assert isinstance(sys_.body2.pressure, RadialProfile)


def test_run_compression_report_is_deterministic():
    cfg = cli.parse_config(COMP_CFG)
    r1, r2 = cli.run(cfg), cli.run(cfg)
    assert cli.format_report(r1) == cli.format_report(r2)
    assert cli.format_jsonish(r1) == cli.format_jsonish(r2)


def test_run_jsonish_is_valid_json():
    report = cli.run(cli.parse_config(COMP_CFG))
    doc = json.loads(cli.format_jsonish(report))
    assert doc["config"]["example"] == "compression"
    assert doc["closed_form"]["regime"] == "closed"
    assert isinstance(doc["criteria"][0]["primal_ok"], bool)


def test_run_csv_rows():
    report = cli.run(cli.parse_config(COMP_CFG))
    rows = cli.format_csv(report).splitlines()
    assert rows[0] == "source,tau_lo,tau_hi,empty,regime"
    assert len(rows) == 4
    assert rows[1].startswith("closed_form,")


# report, csv, json-like, sweep and verify bytes of the shipped configs: a
# change to any number they print must be deliberate and show up here
SWEEPS = {
    "COMP_CFG": ("a1", 0.6, 0.9, 4),
    "COH_CFG": ("a1", 0.6, 0.9, 4),
    "BEND_CFG": ("b1", 0.5, 2.0, 4),
}

GOLDEN = {
    ("COMP_CFG", "report"): """\
run: example=compression
load: tau=-0.3
kinematic: ok=yes dirichlet=0 gap=0 constraint=2.22044604925e-16
static: ok=no equilibrium=0 neumann=0.414157902759 contact_traction_sign=0 action_reaction=0 constraint=2.22044604925e-16
contact: regime=closed gap=0 traction=-0.578467901235 complementarity=0 action_reaction=0
enclosure: unavailable
criteria body1: primal=violated complementary=violated min_q=-0.371742112483 window=(-0.9, 0.9)
criteria body2: primal=violated complementary=violated min_q=-0.371742112483 window=(-0.9, 0.9)
closed_form: tau_lo=-0.2439 tau_hi=0 regime=closed empty=false
numeric: tau_lo=-0.243899998639 tau_hi=0 regime=closed empty=false
oracle: tau_lo=-0.235789955556 tau_hi=0 regime=closed empty=false
warnings:
- enclosure skipped: static trial: neumann residual = 4.142e-01
""",
    ("COMP_CFG", "csv"): """\
source,tau_lo,tau_hi,empty,regime
closed_form,-0.2439,0,false,closed
numeric,-0.243899998639,0,false,closed
oracle,-0.235789955556,0,false,closed
""",
    ("COH_CFG", "report"): """\
run: example=cohesive
load: tau=none
kinematic: ok=yes dirichlet=0 gap=0 constraint=0
static: ok=no equilibrium=0 neumann=0 contact_traction_sign=0 action_reaction=0.334567901235 constraint=0
contact: regime=closed gap=0 traction=-0.301111111111 complementarity=0 action_reaction=0.301111111111
enclosure: unavailable
criteria body1: primal=violated complementary=violated min_q=-0.171213948211 window=(-0.948683298051, 0.948683298051)
criteria body2: primal=violated complementary=violated min_q=-0.342427896421 window=(-1.8973665961, 1.8973665961)
closed_form: tau_lo=-0.138683298051 tau_hi=0.6 regime=closed empty=false
numeric: tau_lo=-0.138683297914 tau_hi=0.599999992169 regime=closed empty=false
oracle: tau_lo=-0.137818510678 tau_hi=0.597716587261 regime=closed empty=false
warnings: none
""",
    ("COH_CFG", "csv"): """\
source,tau_lo,tau_hi,empty,regime
closed_form,-0.138683298051,0.6,false,closed
numeric,-0.138683297914,0.599999992169,false,closed
oracle,-0.137818510678,0.597716587261,false,closed
""",
    ("BEND_CFG", "report"): """\
run: example=bending
load: tau=none
kinematic: ok=yes dirichlet=7.40619412728e-17 gap=0 constraint=0
static: ok=no equilibrium=2.22044604925e-16 neumann=0 contact_traction_sign=0.353553390593 action_reaction=2.22044604925e-16 constraint=0
contact: regime=closed gap=0 traction=0.25 complementarity=0 action_reaction=1.66533453694e-16
enclosure: unavailable
criteria body1: primal=ok complementary=violated min_q=0 window=(-0.707106781187, 0.707106781187)
criteria body2: primal=ok complementary=ok min_q=0.42264973081 window=(-0.57735026919, 0.57735026919)
closed_form: tau_lo=-0.0773502691896 tau_hi=0 regime=closed empty=false
numeric: tau_lo=-0.077350268956 tau_hi=0 regime=closed empty=false
oracle: tau_lo=-0.0764974226119 tau_hi=0 regime=closed empty=false
warnings:
- degenerate: identity stretch
- bending intervals use the contact-plane pressure linkage; the equilibrium pressure profile varies across each body
""",
    ("BEND_CFG", "csv"): """\
source,tau_lo,tau_hi,empty,regime
closed_form,-0.0773502691896,0,false,closed
numeric,-0.077350268956,0,false,closed
oracle,-0.0764974226119,0,false,closed
""",
    ("COMP_CFG", "verify"): """\
verify: 10 checks, 0 failed
PASS tensor identities: adjugate residual 8.882e-16
PASS isochoric maps: |J - 1| max 2.220e-16
PASS injectivity: volume test on both bodies
PASS quadrature convergence: exact vs order 16: delta 9.853e-16
PASS stress derivative: max relative gap 3.011e-10
PASS interval consistency: numeric gap 1.361e-09, oracle gap 8.110e-03 (res 9.069e-03)
PASS window flip: edges +/-0.9 bracket the flip
PASS energy equality: duality gap 4.441e-16 at tau=-0.3
PASS enclosure: smallest duality gap over trials 0.000e+00
PASS determinism: report bytes on repeated runs
""",
    ("COH_CFG", "verify"): """\
verify: 10 checks, 0 failed
PASS tensor identities: adjugate residual 8.882e-16
PASS isochoric maps: |J - 1| max 0.000e+00
PASS injectivity: volume test on both bodies
PASS quadrature convergence: exact vs order 16: delta 6.939e-18
PASS stress derivative: max relative gap 3.011e-10
PASS interval consistency: numeric gap 7.831e-09, oracle gap 2.283e-03 (res 1.751e-02)
PASS window flip: edges +/-0.948683298051 bracket the flip
PASS energy equality: duality gap 7.720e-17 at tau=-0.3
PASS enclosure: smallest duality gap over trials 0.000e+00
PASS determinism: report bytes on repeated runs
""",
    ("BEND_CFG", "verify"): """\
verify: 10 checks, 0 failed
PASS tensor identities: adjugate residual 8.882e-16
PASS isochoric maps: |J - 1| max 1.110e-16
PASS injectivity: volume test on both bodies
PASS quadrature convergence: exact vs order 16: delta 1.749e-15
PASS stress derivative: max relative gap 3.011e-10
PASS interval consistency: numeric gap 2.336e-10, oracle gap 8.528e-04 (res 1.093e-02)
PASS window flip: edges +/-0.707106781187 bracket the flip
PASS energy equality: duality gap 6.661e-16 at tau=-0.75
PASS enclosure: smallest duality gap over trials 0.000e+00
PASS determinism: report bytes on repeated runs
""",
    ("COMP_CFG", "json-like"): (
        '{"config": {"example": "compression", "body1": {"C": 1, "a": 0.81, '
        '"b": null, "pressure": null}, "body2": {"C": 1, "a": 0.81, '
        '"b": null, "pressure": null}, "A": null, "d_allow": 0, "g": 0, '
        '"tau": -0.3, "quad_order": 8, "grid_n": 1000, "probe_count": 200, '
        '"seed": 42}, "kinematic": {"kinematic_ok": true, "static_ok": null, '
        '"residuals": {"dirichlet": 0, "gap": 0, '
        '"constraint": 2.22044604925e-16}}, "static": {"kinematic_ok": null, '
        '"static_ok": false, "residuals": {"equilibrium": 0, '
        '"neumann": 0.414157902759, "contact_traction_sign": 0, '
        '"action_reaction": 0, "constraint": 2.22044604925e-16}}, '
        '"contact": {"gap": 0, "traction_normal": -0.578467901235, '
        '"complementarity_residual": 0, "action_reaction_residual": 0, '
        '"regime": "closed"}, "enclosure": null, '
        '"closed_form": {"tau_lo": -0.2439, "tau_hi": 0, "regime": "closed", '
        '"empty": false}, "numeric": {"tau_lo": -0.243899998639, '
        '"tau_hi": 0, "regime": "closed", "empty": false}, '
        '"oracle": {"tau_lo": -0.235789955556, "tau_hi": 0, '
        '"regime": "closed", "empty": false}, '
        '"criteria": [{"primal_ok": false, "complementary_ok": false, '
        '"min_quadratic_value": -0.371742112483, "pressure_window": [-0.9, '
        '0.9]}, {"primal_ok": false, "complementary_ok": false, '
        '"min_quadratic_value": -0.371742112483, "pressure_window": [-0.9, '
        "0.9]}], "
        '"warnings": ["enclosure skipped: static trial: neumann residual = 4.142e-01"]}\n'
    ),
    ("COMP_CFG", "sweep"): """\
param,tau_lo,tau_hi,empty,regime,error
0.6,-0.2439,0,false,closed,
0.7,-0.2439,0,false,closed,
0.8,-0.2439,0,false,closed,
0.9,-0.138683298051,0,false,closed,
""",
    ("COH_CFG", "json-like"): (
        '{"config": {"example": "cohesive", "body1": {"C": 1, "a": 0.9, '
        '"b": null, "pressure": null}, "body2": {"C": 2, "a": 0.9, '
        '"b": null, "pressure": null}, "A": null, "d_allow": 0, "g": 0.6, '
        '"tau": null, "quad_order": 8, "grid_n": 1000, "probe_count": 200, '
        '"seed": 42}, "kinematic": {"kinematic_ok": true, "static_ok": null, '
        '"residuals": {"dirichlet": 0, "gap": 0, "constraint": 0}}, '
        '"static": {"kinematic_ok": null, "static_ok": false, '
        '"residuals": {"equilibrium": 0, "neumann": 0, '
        '"contact_traction_sign": 0, "action_reaction": 0.334567901235, '
        '"constraint": 0}}, "contact": {"gap": 0, '
        '"traction_normal": -0.301111111111, "complementarity_residual": 0, '
        '"action_reaction_residual": 0.301111111111, "regime": "closed"}, '
        '"enclosure": null, "closed_form": {"tau_lo": -0.138683298051, '
        '"tau_hi": 0.6, "regime": "closed", "empty": false}, '
        '"numeric": {"tau_lo": -0.138683297914, "tau_hi": 0.599999992169, '
        '"regime": "closed", "empty": false}, '
        '"oracle": {"tau_lo": -0.137818510678, "tau_hi": 0.597716587261, '
        '"regime": "closed", "empty": false}, '
        '"criteria": [{"primal_ok": false, "complementary_ok": false, '
        '"min_quadratic_value": -0.171213948211, '
        '"pressure_window": [-0.948683298051, 0.948683298051]}, '
        '{"primal_ok": false, "complementary_ok": false, '
        '"min_quadratic_value": -0.342427896421, '
        '"pressure_window": [-1.8973665961, 1.8973665961]}], '
        '"warnings": []}\n'
    ),
    ("COH_CFG", "sweep"): """\
param,tau_lo,tau_hi,empty,regime,error
0.6,-0.277366596101,0.6,false,closed,
0.7,-0.277366596101,0.6,false,closed,
0.8,-0.254427191,0.6,false,closed,
0.9,-0.138683298051,0.6,false,closed,
""",
    ("BEND_CFG", "json-like"): (
        '{"config": {"example": "bending", "body1": {"C": 1, "a": 1, "b": 1, '
        '"pressure": null}, "body2": {"C": 1, "a": 1, "b": null, '
        '"pressure": null}, "A": 1, "d_allow": 0, "g": 0, "tau": null, '
        '"quad_order": 8, "grid_n": 1000, "probe_count": 200, "seed": 42}, '
        '"kinematic": {"kinematic_ok": true, "static_ok": null, '
        '"residuals": {"dirichlet": 7.40619412728e-17, "gap": 0, '
        '"constraint": 0}}, "static": {"kinematic_ok": null, '
        '"static_ok": false, "residuals": {"equilibrium": 2.22044604925e-16, '
        '"neumann": 0, "contact_traction_sign": 0.353553390593, '
        '"action_reaction": 2.22044604925e-16, "constraint": 0}}, '
        '"contact": {"gap": 0, "traction_normal": 0.25, '
        '"complementarity_residual": 0, '
        '"action_reaction_residual": 1.66533453694e-16, "regime": "closed"}, '
        '"enclosure": null, "closed_form": {"tau_lo": -0.0773502691896, '
        '"tau_hi": 0, "regime": "closed", "empty": false}, '
        '"numeric": {"tau_lo": -0.077350268956, "tau_hi": 0, '
        '"regime": "closed", "empty": false}, '
        '"oracle": {"tau_lo": -0.0764974226119, "tau_hi": 0, '
        '"regime": "closed", "empty": false}, '
        '"criteria": [{"primal_ok": true, "complementary_ok": false, '
        '"min_quadratic_value": 0, "pressure_window": [-0.707106781187, '
        '0.707106781187]}, {"primal_ok": true, "complementary_ok": true, '
        '"min_quadratic_value": 0.42264973081, '
        '"pressure_window": [-0.57735026919, 0.57735026919]}], '
        '"warnings": ["degenerate: identity stretch", '
        '"bending intervals use the contact-plane pressure linkage; the equilibrium pressure profile varies across each body"]}\n'
    ),
    ("BEND_CFG", "sweep"): """\
param,tau_lo,tau_hi,empty,regime,error
0.5,0.034211134633,0,true,closed,
1,-0.0773502691896,0,false,closed,
1.5,-0.134522483825,0,false,closed,
2,-0.166666666667,0,false,closed,
""",
}


@pytest.mark.parametrize(
    "name, text",
    [("COMP_CFG", COMP_CFG), ("COH_CFG", COH_CFG), ("BEND_CFG", BEND_CFG)],
    ids=["compression", "cohesive", "bending"],
)
def test_report_bytes_are_pinned(name, text):
    config = cli.parse_config(text)
    report = cli.run(config)
    assert cli.format_report(report) == GOLDEN[name, "report"]
    assert cli.format_csv(report) == GOLDEN[name, "csv"]
    assert cli.format_jsonish(report) == GOLDEN[name, "json-like"]
    assert cli.sweep(config, *SWEEPS[name]) == GOLDEN[name, "sweep"]
    # verify prints roundoff-level gaps, so it moves with any reordered sum
    assert cli.verify(config) == (0, GOLDEN[name, "verify"])


# configs that admit the energy enclosure: the compression pair at its
# equilibrium load and the bending pair under a dead load
COMP_EQ_CFG = COMP_CFG.replace("tau = -0.3", "tau = %r" % (0.81 - 1 / 0.81**2))
BEND_TAU_CFG = BEND_CFG + "\n[load]\ntau = -0.5\n"

ENCLOSURE_GOLDEN = {
    ("COMP_EQ_CFG", "report"): """\
run: example=compression
load: tau=-0.714157902759
kinematic: ok=yes dirichlet=0 gap=0 constraint=2.22044604925e-16
static: ok=yes equilibrium=0 neumann=4.4408920985e-16 contact_traction_sign=0 action_reaction=0 constraint=2.22044604925e-16
contact: regime=closed gap=0 traction=-0.578467901235 complementarity=0 action_reaction=0
enclosure: e_potential=0.0626179012346 e_complementary=0.0626179012346 gap=3.33066907388e-16
criteria body1: primal=violated complementary=violated min_q=-0.371742112483 window=(-0.9, 0.9)
criteria body2: primal=violated complementary=violated min_q=-0.371742112483 window=(-0.9, 0.9)
closed_form: tau_lo=-0.2439 tau_hi=0 regime=closed empty=false
numeric: tau_lo=-0.243899998639 tau_hi=0 regime=closed empty=false
oracle: tau_lo=-0.235789955556 tau_hi=0 regime=closed empty=false
warnings: none
""",
    ("COMP_EQ_CFG", "csv"): """\
source,tau_lo,tau_hi,empty,regime
closed_form,-0.2439,0,false,closed
numeric,-0.243899998639,0,false,closed
oracle,-0.235789955556,0,false,closed
""",
    ("COMP_EQ_CFG", "json-like"): (
        '{"config": {"example": "compression", "body1": {"C": 1, "a": 0.81, '
        '"b": null, "pressure": null}, "body2": {"C": 1, "a": 0.81, "b": null, '
        '"pressure": null}, "A": null, "d_allow": 0, "g": 0, "tau": -0.714157902759, '
        '"quad_order": 8, "grid_n": 1000, "probe_count": 200, "seed": 42}, '
        '"kinematic": {"kinematic_ok": true, "static_ok": null, '
        '"residuals": {"dirichlet": 0, "gap": 0, "constraint": 2.22044604925e-16}}, '
        '"static": {"kinematic_ok": null, "static_ok": true, '
        '"residuals": {"equilibrium": 0, "neumann": 4.4408920985e-16, '
        '"contact_traction_sign": 0, "action_reaction": 0, '
        '"constraint": 2.22044604925e-16}}, "contact": {"gap": 0, '
        '"traction_normal": -0.578467901235, "complementarity_residual": 0, '
        '"action_reaction_residual": 0, "regime": "closed"}, '
        '"enclosure": {"e_complementary": 0.0626179012346, '
        '"e_potential": 0.0626179012346, "gap": 3.33066907388e-16}, '
        '"closed_form": {"tau_lo": -0.2439, "tau_hi": 0, "regime": "closed", '
        '"empty": false}, "numeric": {"tau_lo": -0.243899998639, "tau_hi": 0, '
        '"regime": "closed", "empty": false}, "oracle": {"tau_lo": -0.235789955556, '
        '"tau_hi": 0, "regime": "closed", "empty": false}, '
        '"criteria": [{"primal_ok": false, "complementary_ok": false, '
        '"min_quadratic_value": -0.371742112483, "pressure_window": [-0.9, 0.9]}, '
        '{"primal_ok": false, "complementary_ok": false, '
        '"min_quadratic_value": -0.371742112483, "pressure_window": [-0.9, 0.9]}], '
        '"warnings": []}\n'
    ),
    ("BEND_TAU_CFG", "report"): """\
run: example=bending
load: tau=-0.5
kinematic: ok=yes dirichlet=7.40619412728e-17 gap=0 constraint=0
static: ok=yes equilibrium=2.22044604925e-16 neumann=0 contact_traction_sign=0 action_reaction=2.22044604925e-16 constraint=0
contact: regime=closed gap=0 traction=-0.25 complementarity=0 action_reaction=1.66533453694e-16
enclosure: e_potential=-0.225346927833 e_complementary=-0.225346927833 gap=3.33066907388e-16
criteria body1: primal=violated complementary=violated min_q=-0.5 window=(-0.707106781187, 0.707106781187)
criteria body2: primal=violated complementary=violated min_q=-0.0606601717798 window=(-0.57735026919, 0.57735026919)
closed_form: tau_lo=-0.0773502691896 tau_hi=0 regime=closed empty=false
numeric: tau_lo=-0.077350268956 tau_hi=0 regime=closed empty=false
oracle: tau_lo=-0.0764974226119 tau_hi=0 regime=closed empty=false
warnings:
- degenerate: identity stretch
- bending intervals use the contact-plane pressure linkage; the equilibrium pressure profile varies across each body
""",
    ("BEND_TAU_CFG", "csv"): """\
source,tau_lo,tau_hi,empty,regime
closed_form,-0.0773502691896,0,false,closed
numeric,-0.077350268956,0,false,closed
oracle,-0.0764974226119,0,false,closed
""",
    ("BEND_TAU_CFG", "json-like"): (
        '{"config": {"example": "bending", "body1": {"C": 1, "a": 1, "b": 1, '
        '"pressure": null}, "body2": {"C": 1, "a": 1, "b": null, "pressure": null}, '
        '"A": 1, "d_allow": 0, "g": 0, "tau": -0.5, "quad_order": 8, "grid_n": 1000, '
        '"probe_count": 200, "seed": 42}, "kinematic": {"kinematic_ok": true, '
        '"static_ok": null, "residuals": {"dirichlet": 7.40619412728e-17, "gap": 0, '
        '"constraint": 0}}, "static": {"kinematic_ok": null, "static_ok": true, '
        '"residuals": {"equilibrium": 2.22044604925e-16, "neumann": 0, '
        '"contact_traction_sign": 0, "action_reaction": 2.22044604925e-16, '
        '"constraint": 0}}, "contact": {"gap": 0, "traction_normal": -0.25, '
        '"complementarity_residual": 0, '
        '"action_reaction_residual": 1.66533453694e-16, "regime": "closed"}, '
        '"enclosure": {"e_complementary": -0.225346927833, '
        '"e_potential": -0.225346927833, "gap": 3.33066907388e-16}, '
        '"closed_form": {"tau_lo": -0.0773502691896, "tau_hi": 0, '
        '"regime": "closed", "empty": false}, "numeric": {"tau_lo": -0.077350268956, '
        '"tau_hi": 0, "regime": "closed", "empty": false}, '
        '"oracle": {"tau_lo": -0.0764974226119, "tau_hi": 0, "regime": "closed", '
        '"empty": false}, "criteria": [{"primal_ok": false, '
        '"complementary_ok": false, "min_quadratic_value": -0.5, '
        '"pressure_window": [-0.707106781187, 0.707106781187]}, {"primal_ok": false, '
        '"complementary_ok": false, "min_quadratic_value": -0.0606601717798, '
        '"pressure_window": [-0.57735026919, 0.57735026919]}], '
        '"warnings": ["degenerate: identity stretch", '
        '"bending intervals use the contact-plane pressure linkage; the equilibrium pressure profile varies across each body"]}\n'
    ),
}


@pytest.mark.parametrize(
    "name, text",
    [("COMP_EQ_CFG", COMP_EQ_CFG), ("BEND_TAU_CFG", BEND_TAU_CFG)],
    ids=["compression", "bending"],
)
def test_enclosure_report_bytes_are_pinned(name, text):
    report = cli.run(cli.parse_config(text))
    assert report.enclosure is not None
    assert cli.format_report(report) == ENCLOSURE_GOLDEN[name, "report"]
    assert cli.format_csv(report) == ENCLOSURE_GOLDEN[name, "csv"]
    assert cli.format_jsonish(report) == ENCLOSURE_GOLDEN[name, "json-like"]


@pytest.mark.parametrize(
    "text", [COMP_EQ_CFG, BEND_TAU_CFG], ids=["compression", "bending"]
)
def test_run_checks_admissibility_once(monkeypatch, text):
    # the enclosure brackets the reports run() already holds
    calls = []

    def counted(name, real):
        def check(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return check

    for module in (cli, energy):
        for name in ("check_kinematic", "check_static"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert cli.run(cli.parse_config(text)).enclosure is not None
    assert sorted(calls) == ["check_kinematic", "check_static"]


@pytest.mark.parametrize(
    "text", [COMP_CFG, COH_CFG, BEND_CFG], ids=["compression", "cohesive", "bending"]
)
def test_verify_brackets_one_static_side(monkeypatch, text):
    # the four enclosures of verify() pair with one exact system: its static
    # check and complementary energy are computed once
    exact, calls = [], []
    for name in ("bend_pair", "stretch_pair"):
        real_pair = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda *a, real_pair=real_pair: exact.append(real_pair(*a)) or exact[-1]
        )

    def counted(name, real):
        def on_exact(system, *args, **kwargs):
            if exact and system is exact[0]:
                calls.append(name)
            return real(system, *args, **kwargs)

        return on_exact

    for module, name in ((cli, "check_static"), (energy, "check_static"),
                         (energy, "complementary_energy")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert cli.verify(cli.parse_config(text))[0] == 0
    assert len(exact) == 1
    assert sorted(calls) == ["check_static", "complementary_energy"]


NARROW_CFG = """\
[system]
example = bending
A = 0.98266
[body1]
C = 1.54143
a = 1.46401
b = 1.62131
[body2]
C = 1.15477
a = 0.83693
[load]
tau = 0.20939
[numerics]
grid_n = 699
"""


def test_oracle_finds_an_interval_between_two_grid_loads():
    # the closed form is (-0.0097358, 0), narrower than the 0.0216 grid
    # step, and no grid load falls inside it
    config = cli.parse_config(NARROW_CFG)
    report = cli.run(config)
    assert report.oracle.regime == "closed"
    assert not any(w.startswith("closed-form/numeric/oracle mismatch") for w in report.warnings)
    assert "oracle: tau_lo=-0.00970585594986 tau_hi=-1.54306135923e-05 regime=closed" in (
        cli.format_report(report)
    )
    code, text = cli.verify(config)
    assert code == 0, text


EDGE_CFG = """\
[system]
example = bending
A = 0.5
[body1]
C = 1.0
a = 1.0
b = 1.0
[body2]
C = 1.0
a = 0.5
"""


def test_bending_closed_form_is_empty_on_a_window_edge():
    # body 1's window edge C / lambda is C a1^2 / rho_c exactly; with rho_c
    # taken as sqrt(a1 + b1)**2 = 2.0000000000000004 the closed form
    # reported a sliver (-1.1e-16, 0) that no load of the predicate fills
    config = cli.parse_config(EDGE_CFG)
    report = cli.run(config)
    assert report.closed_form.empty and report.numeric is None
    assert not any(w.startswith("closed-form/numeric/oracle mismatch") for w in report.warnings)
    code, text = cli.verify(config)
    assert code == 0, text
    assert "PASS interval consistency: closed form empty, bisection agrees" in text


@pytest.mark.parametrize(
    "text",
    [COMP_CFG.replace("a = 0.81", "a = 1.0"), COH_CFG.replace("a = 0.9", "a = 1.0"), EDGE_CFG],
    ids=["compression", "cohesive", "bending-window-edge"],
)
def test_closed_form_lower_end_is_never_negative_zero(text):
    # C (sqrt(a) - a^2) is +0.0 at a = 1, and so is a bending window minimum
    # on its edge: negated, both printed -0
    report = cli.run(cli.parse_config(text))
    assert report.closed_form.tau_lo == 0.0
    assert math.copysign(1.0, report.closed_form.tau_lo) == 1.0
    assert "closed_form: tau_lo=0 " in cli.format_report(report)
    assert "\nclosed_form,0," in cli.format_csv(report)
    assert '"closed_form": {"tau_lo": 0,' in cli.format_jsonish(report)


@pytest.mark.parametrize(
    "text, param, row",
    [
        (COMP_CFG, "a1", "1,0,0,true,closed,"),
        (COH_CFG, "a2", "1,0,0.6,false,closed,"),
        (BEND_CFG, "A", "0.5,0,0,true,closed,"),  # a1 = a2 = 1
    ],
    ids=["compression", "cohesive", "bending"],
)
def test_sweep_rows_at_unit_stretch_print_no_negative_zero(text, param, row):
    rows = cli.sweep(cli.parse_config(text), param, 0.5, 1.5, 3).splitlines()
    assert row in rows
    assert not any(",-0," in r for r in rows)


@pytest.mark.parametrize("flag", ["--seed", "--quad-order", "--grid-n"])
def test_main_reads_numerics_from_the_config_only(tmp_path, capsys, flag):
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(COMP_CFG)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", str(cfg_path), flag, "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s 3" % flag in capsys.readouterr().err


def test_main_verify_reports_a_failed_check(tmp_path, capsys):
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(BEND_CFG + "\n[numerics]\nquad_order = 1\n")
    assert cli.main(["verify", "--config", str(cfg_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "verify: 10 checks, 1 failed"
    assert [line for line in out if line.startswith("FAIL")] == [
        "FAIL quadrature convergence: exact vs order 2: delta 2.248e-04"
    ]


@pytest.mark.parametrize("A, code", [("6.28", 0), ("6.29", 2), ("7.0", 2)])
def test_main_decides_injectivity_at_a_full_turn(tmp_path, capsys, A, code):
    # the sweep A dy / sqrt(a) of BEND_CFG's bodies passes 2 pi between
    # A = 6.28 and 6.29, and the image then overlaps itself
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(BEND_CFG.replace("A = 1.0", "A = " + A))
    for command in ("run", "verify"):
        assert cli.main([command, "--config", str(cfg_path)]) == code
        out, err = capsys.readouterr()
        if code:
            assert (out, err) == ("", "error: deformation map fails the injectivity test\n")
        else:
            assert out and not err


@pytest.mark.parametrize("g", ["1e3", "1e6"])
def test_large_cohesive_cap_keeps_the_numeric_interval(g):
    # a cap far above every feasible load must not coarsen the bracket scan
    config = cli.parse_config(COH_CFG.replace("g = 0.6", "g = " + g))
    report = cli.run(config)
    assert report.numeric is not None
    assert abs(report.numeric.tau_lo - report.closed_form.tau_lo) <= 1e-6
    assert abs(report.numeric.tau_hi - report.closed_form.tau_hi) <= 1e-6
    code, text = cli.verify(config)
    assert code == 0, text


def test_cohesive_stretch_above_one_agrees():
    # for a > 1 the axial stretch is the largest, so the window is C / a
    text = COH_CFG.replace("a = 0.9", "a = 1.2").replace("g = 0.6", "g = 2.0")
    config = cli.parse_config(text)
    assert cli.run(config).warnings == ()
    code, out = cli.verify(config)
    assert code == 0, out


def test_scan_miss_config_gets_a_numeric_interval():
    # the closed interval (3.8837, 4.1467) is narrower than one coarse
    # scan step; the bisection starts inside the windows' intersection
    text = (
        "[system]\nexample = cohesive\n[body1]\nC = 2.5536\na = 1.4818\n"
        "[body2]\nC = 2.5165\na = 0.8515\n[contact]\ng = 4.9415\n"
    )
    config = cli.parse_config(text)
    report = cli.run(config)
    assert report.warnings == ()
    assert abs(report.numeric.tau_lo - report.closed_form.tau_lo) <= 1e-6
    assert abs(report.numeric.tau_hi - report.closed_form.tau_hi) <= 1e-6
    assert "numeric: tau_lo=3.88370980" in cli.format_report(report)
    code, out = cli.verify(config)
    assert code == 0, out


def test_sweep_across_unit_stretch_matches_bisection():
    config = cli.parse_config(COH_CFG)
    rows = cli.sweep(config, "a1", 0.8, 1.6, 9).splitlines()[1:]
    assert len(rows) == 9
    for row in rows:
        param, lo, hi, empty = row.split(",")[:4]
        fp = cli._fixed_params(config, a1=float(param))
        try:
            numeric = cli.numeric_load_bounds("cohesive", fp)
        except InfeasibleProblem:
            numeric = None
        assert (empty == "true") == (numeric is None), row
        if numeric is not None:
            assert abs(numeric.tau_lo - float(lo)) <= 1e-6, row
            assert abs(numeric.tau_hi - float(hi)) <= 1e-6, row


def test_overflowing_bracket_gives_no_numeric_interval(tmp_path, capsys):
    # the load bracket overflows to (-inf, inf); its NaN scan loads are
    # infeasible, so no NaN interval is reported
    text = COMP_CFG.replace("C = 1.0\na = 0.81", "C = 1e300\na = 1e10", 1)
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(text)
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "numeric: unavailable\n" in out
    assert "=nan" not in out


def test_run_degenerate_state_warns_and_blanks_numeric():
    text = COMP_CFG.replace("0.81", "1.0").replace("tau = -0.3", "tau = 0.0")
    report = cli.run(cli.parse_config(text))
    assert cli.W_DEGENERATE in report.warnings
    assert any(w.startswith("empty load interval") for w in report.warnings)
    assert report.numeric is None
    rows = cli.format_csv(report).splitlines()
    assert "numeric,,,," in rows


def test_run_bending_carries_linkage_note():
    report = cli.run(cli.parse_config(BEND_CFG))
    assert cli.W_BEND_LINKAGE in report.warnings
    assert report.closed_form.tau_lo == pytest.approx(0.5 - 3 ** -0.5, rel=1e-12)


def test_run_open_contact_warning():
    text = COMP_CFG.replace("C = 1.0\na = 0.81\n\n[body2]",
                            "C = 1.0\na = 0.81\nb = 0.0\n\n[body2]")
    text = text.replace("[body2]\nC = 1.0\na = 0.81",
                        "[body2]\nC = 1.0\na = 0.81\nb = 0.1")
    report = cli.run(cli.parse_config(text))
    assert cli.W_OPEN_CONTACT in report.warnings


def test_sweep_row_count_and_values():
    cfg = cli.parse_config(COMP_CFG)
    text = cli.sweep(cfg, "a1", 0.6, 0.9, 4)
    rows = text.splitlines()
    assert rows[0] == "param,tau_lo,tau_hi,empty,regime,error"
    assert len(rows) == 5
    assert all(r.endswith(",") for r in rows[1:])  # no error column entries


def test_sweep_quotes_error_rows():
    cfg = cli.parse_config(BEND_CFG)
    text = cli.sweep(cfg, "b1", -0.5, 0.5, 3)
    rows = text.splitlines()[1:]
    assert any(',"' in r for r in rows)
    assert any(r.endswith(",") for r in rows)  # the feasible end still evaluates


def test_sweep_quotes_overflow_rows():
    # a^2 of body 1's a = 1e200 overflows in the closed form's window
    cfg = cli.parse_config(COMP_CFG.replace("a = 0.81", "a = 1e200", 1))
    rows = cli.sweep(cfg, "C2", 1.0, 2.0, 2).splitlines()[1:]
    message = "closed-form window: stretch a = 1e+200 overflows in a^2"
    assert rows == ['1,,,,,"%s"' % message, '2,,,,,"%s"' % message]


def test_sweep_quotes_bending_overflow_rows():
    # a^2 of body 1's a = 1e200 overflows in the bending closed form
    cfg = cli.parse_config(BEND_CFG.replace("a = 1.0\nb = 1.0", "a = 1e200\nb = 1.0"))
    rows = cli.sweep(cfg, "C1", 1.0, 2.0, 2).splitlines()[1:]
    message = "closed-form window: stretch a1 = 1e+200 overflows in a1^2"
    assert rows == ['1,,,,,"%s"' % message, '2,,,,,"%s"' % message]


@pytest.mark.parametrize("command", ["run", "verify"])
def test_main_names_an_overflowing_bending_stretch(tmp_path, capsys, command):
    # building the system solves body 1's radial pressure, whose a^2 overflows
    huge = tmp_path / "huge.cfg"
    huge.write_text(BEND_CFG.replace("a = 1.0\nb = 1.0", "a = 1e200\nb = 1.0"))
    assert cli.main([command, "--config", str(huge)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "numerical failure: radial pressure coefficient a^2 overflows for stretch a = 1e+200\n"
    )


@pytest.mark.parametrize(
    "text, body, residual",
    [
        (COMP_CFG, "1", "3.000e-01"),
        (COMP_CFG, "2", "3.000e-01"),
        (COH_CFG, "1", "6.000e-01"),
        (COH_CFG, "2", "3.000e-01"),
    ],
    ids=["compression-body1", "compression-body2", "cohesive-body1", "cohesive-body2"],
)
def test_verify_reaches_the_static_trial_for_a_modulus_whose_load_range_overflows(
    tmp_path, capsys, text, body, residual
):
    # with C = 1e300, C (a - 1/a^2) overflows at both ends of the range of
    # the reference stretch's inversion; the inversion goes on and the
    # static trial fails on its action-reaction residual
    head = "[body%s]\nC = " % body
    start = text.index(head) + len(head)
    huge = tmp_path / "huge.cfg"
    huge.write_text(text[:start] + "1e300" + text[text.index("\n", start):])
    assert cli.main(["verify", "--config", str(huge)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical failure: static trial: action_reaction residual = %s\n" % residual


def test_sweep_argument_validation():
    cfg = cli.parse_config(COMP_CFG)
    with pytest.raises(ValidationError, match="sweep parameter"):
        cli.sweep(cfg, "tau", 0.0, 1.0, 3)
    with pytest.raises(ValidationError, match="at least 2 steps"):
        cli.sweep(cfg, "a1", 0.0, 1.0, 1)
    with pytest.raises(ValidationError, match="at most 100000 steps"):
        cli.sweep(cfg, "a1", 0.0, 1.0, 100_001)
    with pytest.raises(ValidationError, match="lo < hi"):
        cli.sweep(cfg, "a1", 1.0, 0.0, 3)


def test_example_table_params_are_the_closed_form_keywords():
    assert tuple(cli.EXAMPLES) == ("compression", "cohesive", "bending")
    for name, ex in cli.EXAMPLES.items():
        keys = [k for k in inspect.signature(ex.closed_form).parameters if k != "contact_closed"]
        base = ("C1", "C2", "a1", "a2")
        assert set(base) <= set(keys), name
        assert ex.params == tuple(k for k in keys if k not in base), name
        config = cli.parse_config({"compression": COMP_CFG, "cohesive": COH_CFG}.get(name, BEND_CFG))
        assert tuple(cli._fixed_params(config)) == base + ex.params


@pytest.mark.parametrize(
    "text, build, pair",
    [(COMP_CFG, "triaxial_system", "stretch_pair"), (COH_CFG, "triaxial_system", "stretch_pair"),
     (BEND_CFG, "bending_system", "bend_pair")],
    ids=["compression", "cohesive", "bending"],
)
def test_example_table_calls_states_through_module_names(monkeypatch, text, build, pair):
    # a tracer patches module-level names: a states constructor held in the
    # table itself would run unseen by it
    calls = []
    for name in (build, pair):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _n=name, _f=real, **kw: calls.append(_n) or _f(*a, **kw))
    config = cli.parse_config(text)
    cli.build_system(config)
    cli.EXAMPLES[config.example].reference(config)
    assert calls == [build, pair]


def test_fixed_params_override_touches_the_right_field():
    cfg = cli.parse_config(COH_CFG)
    base = cli._fixed_params(cfg)
    assert cli._fixed_params(cfg, C2=3.5) == dict(base, C2=3.5)
    assert cli._fixed_params(cfg, g=0.2) == dict(base, g=0.2)
    assert cli._fixed_params(cfg, a1=0.77) == dict(base, a1=0.77)


@pytest.mark.parametrize("param", ["a1", "b1", "a2"])
def test_bending_sweep_derives_b2_per_row(param):
    # with [body2] b unset, each row closes the gap for its own radii,
    # as a config with the swept field replaced would
    config = cli.parse_config(BEND_CFG)
    body, field = ("body1" if param[1] == "1" else "body2"), param[0]
    rows = cli.sweep(config, param, 0.8, 1.6, 5).splitlines()[1:]
    stale = 0
    for row, v in zip(rows, np.linspace(0.8, 1.6, 5)):
        fp = cli._fixed_params(config, **{param: float(v)})
        assert fp["b2"] == fp["a1"] + fp["b1"] - fp["a2"]
        replaced = dataclasses.replace(getattr(config, body), **{field: float(v)})
        cfg = dataclasses.replace(config, **{body: replaced})
        expected = bounds.load_interval_bending(**cli._fixed_params(cfg))
        assert row == cli._csv_row(cli._f(v), expected) + ","
        once = bounds.load_interval_bending(**dict(fp, b2=cli._fixed_params(config)["b2"]))
        stale += row != cli._csv_row(cli._f(v), once) + ","
    assert stale > 0  # a b2 derived once would give other rows
    given = cli.parse_config(BEND_CFG + "b = 0.7\n")  # BEND_CFG ends in [body2]
    assert given.body2.b == 0.7
    assert cli._fixed_params(given, **{param: 1.3})["b2"] == 0.7


def test_verify_passes_on_compression_config():
    code, text = cli.verify(cli.parse_config(COMP_CFG))
    assert code == 0
    assert text.startswith("verify:")
    assert ", 0 failed" in text.splitlines()[0]
    assert "FAIL" not in text


# body 1's pole rho = 0 lies 0.12 below its box, where an 8-point Gauss
# sum of the potential energy is off by 2.3e-7
STRONG_BEND_CFG = """\
[system]
example = bending
A = 1.33601
[body1]
C = 1.22079
a = 1.36419
b = 0.334009
[body2]
C = 0.853752
a = 1.8085
[load]
tau = -0.131641
"""


def test_verify_compares_the_exact_energy_with_the_reference_quadrature():
    config = cli.parse_config(STRONG_BEND_CFG)
    code, text = cli.verify(config)
    assert code == 0, text
    line = next(l for l in text.splitlines() if "quadrature convergence" in l)
    m = re.fullmatch(r"PASS quadrature convergence: exact vs order 16: delta (\S+)", line)
    assert m, line
    e = energy.potential_energy(cli.build_system(config), config.tau)
    assert float(m.group(1)) < 1e-9 * max(1.0, abs(e))


@pytest.mark.parametrize(
    "text", [COMP_CFG, COH_CFG, BEND_CFG], ids=["compression", "cohesive", "bending"]
)
def test_verify_reads_its_own_run(monkeypatch, text):
    # one run for the interval line, one more for determinism; the
    # bisection runs only inside them
    calls = {"run": 0, "numeric": 0}
    real_run, real_numeric = cli.run, cli.numeric_load_bounds

    def counted_run(config):
        calls["run"] += 1
        return real_run(config)

    def counted_numeric(*args, **kwargs):
        calls["numeric"] += 1
        return real_numeric(*args, **kwargs)

    monkeypatch.setattr(cli, "run", counted_run)
    monkeypatch.setattr(cli, "numeric_load_bounds", counted_numeric)
    assert cli.verify(cli.parse_config(text))[0] == 0
    assert calls == {"run": 2, "numeric": 2}


@pytest.mark.parametrize(
    "example, param",
    [
        ("compression", "g"),
        ("compression", "A"),
        ("compression", "b1"),
        ("compression", "b2"),
        ("cohesive", "A"),
        ("cohesive", "b1"),
        ("cohesive", "b2"),
        ("bending", "g"),
    ],
)
def test_sweep_rejects_parameters_the_example_ignores(tmp_path, capsys, example, param):
    text = {"compression": COMP_CFG, "cohesive": COH_CFG, "bending": BEND_CFG}[example]
    with pytest.raises(ValidationError, match="does not enter the %s" % example):
        cli.sweep(cli.parse_config(text), param, 0.5, 1.0, 3)
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(text)
    argv = ["sweep", "--config", str(cfg_path), "--param", param, "--range", "0.5:1:3"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "error: sweep parameter %s does not enter the %s example\n" % (param, example)
    )


def test_sweep_steps_are_bounded(tmp_path, capsys):
    # rejected before the load grid is allocated, so no huge sweep runs
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(COMP_CFG)
    argv = ["sweep", "--config", str(cfg_path), "--param", "a1"]
    assert cli.main(argv + ["--range", "0:1:1000000000"]) == 2
    assert capsys.readouterr().err == "error: sweep takes at most 100000 steps\n"


def test_readme_config_and_commands_run(tmp_path, capsys):
    # the config block and the command lines of README.md, as printed there
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(next(b for b in blocks if b.startswith("[system]")))
    commands = next(b for b in blocks if b.startswith("contactbounds ")).splitlines()
    assert [line.split()[1] for line in commands] == ["run", "sweep", "verify"]
    for line in commands:
        argv = re.sub(r"\[.*?\]", "", line).split()[1:]
        argv = [str(cfg_path) if arg == "case.cfg" else arg for arg in argv]
        assert cli.main(argv) == 0, (line, capsys.readouterr())


def test_main_run_and_output_file(tmp_path, capsys):
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(COMP_CFG)
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    assert "run: example=compression" in capsys.readouterr().out
    out_path = tmp_path / "report.csv"
    assert cli.main([
        "run", "--config", str(cfg_path), "--format", "csv",
        "--output", str(out_path),
    ]) == 0
    assert out_path.read_text().startswith("source,tau_lo")


def test_main_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(COMP_CFG)
    code = cli.main([
        "sweep", "--config", str(cfg_path), "--param", "a1",
        "--range", "0.6:0.9:3",
    ])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


@pytest.mark.parametrize("text", [COMP_CFG, BEND_CFG], ids=["compression", "bending"])
def test_main_reads_a_config_behind_a_byte_order_mark(tmp_path, capsys, text):
    # editors on some systems save UTF-8 with a leading BOM; it is no key
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert cli.main(["run", "--config", str(plain)]) == 0
    expected = capsys.readouterr()
    assert cli.main(["run", "--config", str(marked)]) == 0
    assert capsys.readouterr() == expected


def test_main_verify_and_output_file(tmp_path, capsys):
    code, text = cli.verify(cli.parse_config(COMP_CFG))
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(COMP_CFG)
    assert cli.main(["verify", "--config", str(cfg_path)]) == code
    assert capsys.readouterr().out == text
    out_path = tmp_path / "verify.txt"
    argv = ["verify", "--config", str(cfg_path), "--output", str(out_path)]
    assert cli.main(argv) == code
    assert capsys.readouterr().out == ""
    assert out_path.read_text() == text


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "nope.cfg"
    assert cli.main(["run", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[system]\nexample = squeeze\n")
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    good = tmp_path / "good.cfg"
    good.write_text(COMP_CFG)
    unwritable = str(tmp_path / "missing" / "out.txt")
    for extra in (["run"], ["sweep", "--param", "a1", "--range", "0.6:0.9:3"]):
        argv = [extra[0], "--config", str(good), "--output", unwritable] + extra[1:]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --output") and err.count("\n") == 1
    # bending radii that are not real: r0 = sqrt(b1), r = sqrt(a2 + b2)
    for bad_text in (
        BEND_CFG.replace("b = 1.0", "b = -0.5"),
        BEND_CFG.replace("[body2]\nC = 1.0\na = 1.0", "[body2]\nC = 1.0\na = 5\nb = -20"),
    ):
        bad.write_text(bad_text)
        assert cli.main(["run", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: bending radius^2")
    bad.write_bytes(b"\xff\xfe" + COMP_CFG.encode())
    assert cli.main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    huge = tmp_path / "huge.cfg"
    huge.write_text(COMP_CFG.replace("a = 0.81", "a = 1e200", 1))
    assert cli.main(["run", "--config", str(huge)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: closed-form window: stretch a = 1e+200 overflows in a^2\n"
    )
    huge.write_text(BEND_CFG.replace("A = 1.0", "A = 1e300"))
    assert cli.main(["run", "--config", str(huge)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: radial pressure coefficient A^2 overflows for A = 1e+300\n"
    )

    def boom(config):
        raise ContactBoundsError("solver diverged")

    monkeypatch.setattr(cli, "run", boom)
    assert cli.main(["run", "--config", str(good)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_console_script_entry(tmp_path):
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(COMP_CFG)
    proc = subprocess.run(
        [sys.executable, "-m", "contactbounds.cli", "run",
         "--config", str(cfg_path), "--format", "csv"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("source,tau_lo")
    assert proc.stderr == ""  # no runpy warning about a preloaded cli module


def test_package_runs_without_scipy():
    # a None entry in sys.modules makes every later "import scipy..." fail
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from contactbounds import cli\n"
        "for text in sys.argv[1:]:\n"
        "    config = cli.parse_config(text)\n"
        "    cli.format_report(cli.run(config))\n"
        "    print(cli.verify(config)[0])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, COMP_CFG, COH_CFG, BEND_CFG],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0"]


@pytest.mark.parametrize(
    "text", [COMP_CFG, COH_CFG, BEND_CFG], ids=["compression", "cohesive", "bending"]
)
def test_each_interval_builds_the_linkage_once(monkeypatch, text):
    # run(): the bisection, the oracle and the agreement bracket;
    # verify(): two runs and its own agreement bracket
    calls = []
    real_linkage = bounds._linkage

    def counted_linkage(*args):
        calls.append(args[0])
        return real_linkage(*args)

    monkeypatch.setattr(bounds, "_linkage", counted_linkage)
    config = cli.parse_config(text)
    cli.run(config)
    assert len(calls) == 3
    del calls[:]
    assert cli.verify(config)[0] == 0
    assert len(calls) == 7


@pytest.mark.parametrize(
    "text", [COMP_CFG, COH_CFG, BEND_CFG], ids=["compression", "cohesive", "bending"]
)
def test_each_body_evaluates_its_constraint_residual_once(monkeypatch, text):
    # one contact._constraint call per body, over 5 abscissae or a triaxial
    # body's x_lo: run() checks its two bodies three times;
    # verify() adds its exact pair and three trial bodies 1, and its two runs
    # build new bodies, so each evaluates them anew
    calls, per_run = [], []
    real_constraint, real_run = contact._constraint, cli.run

    def counted_constraint(m, xs):
        calls.append(np.shape(xs))
        return real_constraint(m, xs)

    def counted_run(config):
        n = len(calls)
        report = real_run(config)
        per_run.append(len(calls) - n)
        return report

    monkeypatch.setattr(contact, "_constraint", counted_constraint)
    monkeypatch.setattr(cli, "run", counted_run)
    config = cli.parse_config(text)
    cli.run(config)
    assert (len(calls), per_run) == (2, [2])
    del calls[:], per_run[:]
    assert cli.verify(config)[0] == 0
    assert (len(calls), per_run) == (9, [2, 2])


@pytest.mark.parametrize(
    "text, per_run, per_verify",
    [(COMP_CFG, 2, 6), (COH_CFG, 3, 8), (BEND_CFG, 3, 10)],
    ids=["compression", "cohesive", "bending"],
)
def test_each_body_takes_one_cauchy_stress_per_face(monkeypatch, text, per_run, per_verify):
    # each Cauchy stress evaluation is named by its body and face, and no
    # (body object, face) pair comes twice. run() takes
    # both contact faces and, without a load, body 1's outer face (a bending
    # build takes body 1's contact face first); verify() takes its own
    # build, two run()s and its exact pair, and its trials need none
    calls, real = [], contact._sigma_nn

    def counted(body, x):
        calls.append((body, x))
        return real(body, x)

    monkeypatch.setattr(contact, "_sigma_nn", counted)
    config = cli.parse_config(text)
    cli.run(config)
    assert len(calls) == per_run
    assert cli.verify(config)[0] == 0
    assert len(calls) == per_run + per_verify
    assert len({(id(b), x) for b, x in calls}) == len(calls)


def test_verify_takes_the_shared_flank_residual_once(monkeypatch):
    # verify()'s two run()s check their own two bodies each, its exact check
    # the exact pair, and its three trials three new bodies 1 against the
    # exact body 2, whose flank residual is kept
    calls, real = [], contact._flank

    def counted(body, dmap):
        calls.append((body, dmap.A, dmap.a))
        return real(body, dmap)

    monkeypatch.setattr(contact, "_flank", counted)
    assert cli.verify(cli.parse_config(BEND_CFG))[0] == 0
    assert len(calls) == 2 + 2 + 3 + 2
    assert len({(id(b), A, a) for b, A, a in calls}) == len(calls)


def test_verify_leaves_the_injectivity_test_to_its_runs(monkeypatch):
    calls = []
    real = cli.injectivity_check
    monkeypatch.setattr(cli, "injectivity_check", lambda m, d: calls.append(m) or real(m, d))
    code, text = cli.verify(cli.parse_config(BEND_CFG))
    assert code == 0 and "PASS injectivity: volume test on both bodies\n" in text
    assert len(calls) == 4  # both bodies of run() and of the determinism run


@pytest.mark.parametrize("text", [COMP_CFG, BEND_CFG], ids=["compression", "bending"])
def test_probe_sets_are_built_once_per_seed_and_count(monkeypatch, text):
    # run() and verify() make 12 criteria checks: both bodies of three runs
    # at the config's probe_count, four window-flip probes at 50
    counts = []
    real_probes = bounds._probes
    monkeypatch.setattr(
        bounds, "_probes", lambda rng, count: counts.append(count) or real_probes(rng, count)
    )
    bounds._probe_set.cache_clear()
    config = cli.parse_config(text)
    cli.run(config)
    assert cli.verify(config)[0] == 0
    assert sorted(counts) == [50, 200]


def _fixed_check_lines(C1):
    # verify()'s tensor-identity and stress-derivative checks as per-matrix
    # loops: the reference for its stacked arithmetic
    rng = np.random.default_rng(0)
    worst_adj = 0.0
    for _ in range(20):
        m = rng.standard_normal((3, 3))
        r = tensor3.cofactor(m).T @ m - tensor3.det(m) * np.eye(3)
        worst_adj = max(worst_adj, float(np.max(np.abs(r))))
    worst_fd = 0.0
    for _ in range(5):
        lam = np.exp(rng.uniform(-0.3, 0.3, 2))
        F = np.diag([lam[0], lam[1], 1.0 / (lam[0] * lam[1])])
        Q = rng.standard_normal((3, 3))
        Q, _ = np.linalg.qr(Q)
        if np.linalg.det(Q) < 0.0:
            Q[:, 0] = -Q[:, 0]
        F = Q @ F
        p = rng.uniform(-0.5, 0.5)
        model = NeoHookeanIncompressible(C1)
        P = piola_stress(model, F, p)
        h = 1e-6
        G = rng.standard_normal((3, 3))
        G /= np.linalg.norm(G)

        def aug(M):
            return 0.5 * model.C * (np.sum(M * M) - 3.0) - p * (np.linalg.det(M) - 1.0)

        fd = (aug(F + h * G) - aug(F - h * G)) / (2.0 * h)
        worst_fd = max(worst_fd, abs(fd - tensor3.ddot(P, G)) / max(1.0, abs(fd)))
    return [
        "%s tensor identities: adjugate residual %.3e"
        % ("PASS" if worst_adj < 1e-12 else "FAIL", worst_adj),
        "%s stress derivative: max relative gap %.3e"
        % ("PASS" if worst_fd < 1e-6 else "FAIL", worst_fd),
    ]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(min_value=-9.0, max_value=12.0))
@example(-9.0)
@example(12.0)
def test_verify_fixed_checks_equal_the_per_matrix_loops(log_c1):
    C1 = 10.0**log_c1
    config = cli.parse_config(
        "[system]\nexample = compression\n[body1]\nC = %r\na = 0.81\n"
        "[body2]\nC = 1.0\na = 0.81\n" % C1
    )
    real_pair = cli.stretch_pair
    with pytest.MonkeyPatch.context() as mp:
        # the exact pair at unit moduli: the enclosure checks' absolute
        # tolerances refuse a round-off residual at C1 above about 1e8
        mp.setattr(cli, "stretch_pair", lambda C1, C2, tau: real_pair(1.0, 1.0, tau))
        code, text = cli.verify(config)
    assert code == 0
    lines = [l for l in text.splitlines() if "tensor identities" in l or "stress derivative" in l]
    assert lines == _fixed_check_lines(C1)


def _isochory_loop(bodies):
    # verify()'s isochoric check as 14 jacobian calls, abscissa by
    # abscissa: the reference for its stack per body
    worst_j = 0.0
    for body in bodies:
        for x in np.linspace(body.domain.x_lo, body.domain.x_hi, 7):
            worst_j = max(worst_j, abs(kinematics.jacobian(body.map, (x, 0.5, 0.5)) - 1.0))
    return worst_j


def _outcome(f, *args):
    # the repr of f's value, or the type and message of what it raised
    try:
        with np.errstate(all="ignore"):
            return repr(f(*args))
    except Exception as e:
        return type(e), str(e)


def _bodies(family, A, a, b):
    # the two bodies' maps on the standard boxes
    maps = [
        TriaxialStretch(ai, bi) if family == "triaxial" else StretchBend(A, ai, bi)
        for ai, bi in zip(a, b)
    ]
    return [types.SimpleNamespace(map=m, domain=box) for m, box in zip(maps, (BOX1, BOX2))]


# positive floats from the subnormals to the largest powers of ten, and
# offsets of either sign
POSITIVE = st.floats(-323.0, 308.0).map(lambda e: 10.0**e)
OFFSET = st.just(0.0) | st.tuples(st.sampled_from((-1.0, 1.0)), POSITIVE).map(
    lambda t: t[0] * t[1]
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(("triaxial", "bending")),
    A=POSITIVE,
    a=st.tuples(POSITIVE, POSITIVE),
    b=st.tuples(OFFSET, OFFSET),
)
@example("triaxial", 1.0, (5e-324, 1.7976931348623157e308), (-1e308, 1e308))
@example("bending", 1e-300, (1e100, 1.0), (1.0, 1.0))  # A r / sqrt(a) underflows: J = 0
@example("bending", 1e-300, (1e-300, 1.0), (1.0, 1.0))  # A sqrt(a) underflows to 0
@example("bending", 1.0, (1e308, 1.0), (1.0, 1.0))  # 2 a X overflows past X = 0
@example("bending", 1.0, (1.0, 1.0), (-0.5, 1.0))  # the radius is too small at first
@example("bending", 1e200, (1.0, 1.0), (1.0, 1e308))
@example("bending", 1e308, (4.0, 1.0), (4.0, 0.0))  # J is NaN across body 1
@example("bending", 1.0, (1.0, 5e307), (1.0, 1e308))  # J is NaN from body 2's 5th abscissa
def test_isochory_stack_equals_the_jacobian_loop(family, A, a, b):
    # the residual's float, or the error and its message, of the 14 calls
    bodies = _bodies(family, A, a, b)
    assert _outcome(cli._isochory, bodies) == _outcome(_isochory_loop, bodies)


@pytest.mark.parametrize(
    "family, a, nonpositive, point",
    [
        # every abscissa of body 2, whose axial stretch is 0.9
        ("triaxial", (0.81, 0.9), lambda f00: f00 > 0.85, "[0.5 0.5 0.5]"),
        # body 1's radial stretch a / r falls below 0.8 from X = 1/3 on
        ("bending", (1.0, 1.0), lambda f00: f00 < 0.8, "[0.33333333 0.5        0.5       ]"),
    ],
    ids=["triaxial", "bending"],
)
def test_isochory_raises_jacobians_error_on_a_nonpositive_det(
    monkeypatch, family, a, nonpositive, point
):
    # det patched to J - 2 where it holds, in tensor3 and in kinematics
    real = tensor3.det

    def det(m):
        return real(m) - 2.0 * nonpositive(np.asarray(m)[..., 0, 0])

    bodies = _bodies(family, 1.0, a, (1.0, 1.0))
    monkeypatch.setattr(tensor3, "det", det)
    monkeypatch.setattr(kinematics, "det", det)
    with pytest.raises(NonPositiveJacobian) as stacked:
        cli._isochory(bodies)
    with pytest.raises(NonPositiveJacobian) as loop:
        _isochory_loop(bodies)
    assert str(stacked.value) == str(loop.value) == "det F = -1 at X = %s" % point


def test_verify_fixed_draws_are_built_once_and_read_only(monkeypatch):
    cli._fixed_draws.cache_clear()
    first = cli.verify(cli.parse_config(COMP_CFG))
    ms, F, p, G, plus, minus = cli._fixed_draws()
    for v in (ms, F, p, G) + plus + minus:
        assert isinstance(v, np.ndarray) and not v.flags.writeable
    assert ms.shape == (20, 3, 3) and F.shape == G.shape == (5, 3, 3) and p.shape == (5,)
    with pytest.raises(ValueError):
        F[0, 0, 0] = 1.0

    # a second verify draws nothing and factors nothing, on another config
    # too (the probe sets of its seed are cached by bounds)
    def refuse(*args, **kw):
        raise AssertionError("a fixed draw was made again")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    assert cli.verify(cli.parse_config(COMP_CFG)) == first
    assert cli.verify(cli.parse_config(COH_CFG))[0] == 0
    assert cli._fixed_draws.cache_info().misses == 1


def test_import_and_run_leave_the_verify_draws_unbuilt():
    # verify's fixtures cost the first verify() only: not the import, not run()
    code = (
        "from contactbounds import cli\n"
        "cli.run(cli.parse_config(%r))\n"
        "info = cli._fixed_draws.cache_info()\n"
        "print(info.hits, info.misses, info.currsize)\n" % COMP_CFG
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0 0\n"


HUGE_MODULUS_CFG = COMP_CFG.replace("C = 1.0\na = 0.81", "C = 1e9\na = 0.9").replace(
    "[load]\ntau = -0.3\n", ""
)


@pytest.mark.parametrize(
    "text, code, stdout_end",
    [
        # the bisection's ends are about 1e8, where floats lie 1.5e-8 apart
        (HUGE_MODULUS_CFG, 0, "oracle,-134214663.88,0,false,closed\n"),
        # the load bracket overflows to (-inf, inf)
        (HUGE_MODULUS_CFG.replace("C = 1e9", "C = 1e308", 1).replace("C = 1e9", "C = 1"), 3, ""),
    ],
    ids=["C=1e9", "C1=1e308"],
)
def test_main_run_ends_on_huge_moduli(tmp_path, text, code, stdout_end):
    # a subprocess with a timeout turns a hang into a failure
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "contactbounds.cli", "run",
         "--config", str(cfg_path), "--format", "csv"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.endswith(stdout_end)
    if code == 0:
        rows = {r.split(",")[0]: r.split(",")[1:3] for r in proc.stdout.splitlines()}
        for closed, numeric in zip(rows["closed_form"], rows["numeric"]):
            assert abs(float(numeric) - float(closed)) <= 1e-6
    else:
        assert proc.stderr == "numerical failure: load bracket [-inf, inf] overflows\n"


# A * sqrt(a1) underflows to 0, so 1 / (A sqrt(a1)) divides by zero
UNDERFLOW_CFG = BEND_CFG.replace("A = 1.0", "A = 1e-200").replace(
    "a = 1.0\nb = 1.0", "a = 1e-250\nb = 1.0"
)


def test_main_reports_an_underflow_as_a_numerical_failure(tmp_path, capsys):
    # the build's bending frame names A and a; each sweep row, the closed form's
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(UNDERFLOW_CFG)
    for command in ("run", "verify"):
        assert cli.main([command, "--config", str(cfg_path)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: axial stretch: A sqrt(a) underflows to 0"
            " for A = 1e-200, a = 1e-250\n"
        )
    argv = ["sweep", "--config", str(cfg_path), "--param", "A", "--range", "1e-200:2e-200:3"]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    msg = "closed-form window: A sqrt(a1) underflows to 0 for A = %s, a1 = 1e-250"
    assert rows[1:] == ['%s,,,,,"%s"' % (A, msg % A) for A in ("1e-200", "1.5e-200", "2e-200")]


# a valid config of each example, as (section, key) -> value
FUZZ_BASE = {
    "compression": {("body1", "C"): "1.0", ("body1", "a"): "0.9",
                    ("body2", "C"): "2.0", ("body2", "a"): "0.8"},
}
FUZZ_BASE["cohesive"] = {**FUZZ_BASE["compression"], ("contact", "g"): "0.5"}
FUZZ_BASE["bending"] = {**FUZZ_BASE["compression"], ("system", "A"): "1.0", ("body1", "b"): "1.0"}
FUZZ_KEYS = sorted(FUZZ_BASE["bending"]) + [("body2", "b"), ("contact", "g"), ("load", "tau")]
# values at the edges of every parser check and of the float range, and
# ordinary ones; an edit to None leaves the key out
FUZZ_VALUES = ("1e9", "1e308", "1e-200", "5e-324", "nan", "inf", "-1", "abc", "0.5", "1.2")


class _Hang(Exception):
    pass


def _main_within(argv, seconds):
    def interrupt(signum, frame):
        raise _Hang("no exit within %g s: %s" % (seconds, argv))

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    example=st.sampled_from(tuple(cli.EXAMPLES)),
    edits=st.dictionaries(
        st.sampled_from(FUZZ_KEYS), st.none() | st.sampled_from(FUZZ_VALUES), max_size=4
    ),
    param=st.sampled_from(("a1", "C2", "A", "g")),
    with_verify=st.integers(0, 4),
)
# the bisection once ran forever on the first two, and an underflow in
# 1 / (A sqrt(a1)) escaped as a traceback on the third
@example("compression", {("body1", "C"): "1e9", ("body2", "C"): "1e9"}, "a1", 0)
@example("cohesive", {("body1", "C"): "1e308"}, "g", 0)
@example("bending", {("system", "A"): "1e-200", ("body1", "a"): "5e-324"}, "A", 0)
def test_main_fuzz_ends_with_a_message_not_a_traceback(
    tmp_path_factory, example, edits, param, with_verify
):
    sections = {"system": ["example = %s" % example]}
    for (section, key), value in sorted({**FUZZ_BASE[example], **edits}.items()):
        if value is not None:
            sections.setdefault(section, []).append("%s = %s" % (key, value))
    text = "".join("[%s]\n%s\n" % (s, "\n".join(lines)) for s, lines in sections.items())
    cfg_path = tmp_path_factory.mktemp("fuzz") / "case.cfg"
    cfg_path.write_text(text)
    commands = [
        ["run", "--format", "csv"],
        ["sweep", "--param", param, "--range", "0.5:1.5:3"],
    ] + [["verify"]] * (with_verify == 0)
    for command in commands:
        argv = [command[0], "--config", str(cfg_path)] + command[1:]
        code, out, err = _main_within(argv, 10.0)
        if code == 1:  # a failed verify check, reported on stdout
            assert command == ["verify"] and "\nFAIL " in out, (text, err)
        else:
            assert code in (0, 2, 3), (text, argv, code)
        if code in (2, 3):
            assert err.startswith(("error: ", "numerical failure: ")), (text, err)
        else:
            assert err == "", (text, err)


def test_parse_config_at_the_exact_edges_of_each_range():
    # each bound of parse_config is itself refused or accepted, as its message says
    with pytest.raises(ValidationError, match=r"\[body1\] C must be positive"):
        cli.parse_config(COMP_CFG.replace("C = 1.0", "C = 0.0", 1))
    with pytest.raises(ValidationError, match=r"\[system\] A must be positive"):
        cli.parse_config(BEND_CFG.replace("A = 1.0", "A = 0.0"))
    for key, value in (("quad_order", 64), ("grid_n", 2), ("grid_n", 1_000_000),
                       ("probe_count", 1), ("probe_count", 100_000)):
        cfg = cli.parse_config(COMP_CFG + "[numerics]\n%s = %d\n" % (key, value))
        assert getattr(cfg, key) == value


def test_sweep_at_the_exact_edges_of_its_steps_and_range(monkeypatch):
    cfg = cli.parse_config(COMP_CFG)
    monkeypatch.setattr(cli, "MAX_SWEEP_STEPS", 3)
    assert len(cli.sweep(cfg, "a1", 0.7, 0.9, 3).splitlines()) == 4
    with pytest.raises(ValidationError, match="at most 3 steps"):
        cli.sweep(cfg, "a1", 0.7, 0.9, 4)
    with pytest.raises(ValidationError, match="lo < hi"):
        cli.sweep(cfg, "a1", 0.7, 0.7, 3)


def test_agreement_accepts_each_gap_at_its_bound():
    # the oracle within exactly two grid steps of the closed form and the
    # bisection within exactly 1e-6 agree; one float farther does not
    config = cli.parse_config(COMP_CFG)
    b_lo, b_hi = bounds.search_bracket(config.example, cli._fixed_params(config))
    res = (b_hi - b_lo) / config.grid_n
    closed = types.SimpleNamespace(tau_lo=0.0, tau_hi=0.0)

    def interval(lo):
        return types.SimpleNamespace(tau_lo=lo, tau_hi=0.0, regime="closed")

    for d_orc, d_num, ok in ((2.0 * res, 1e-6, True),
                             (math.nextafter(2.0 * res, 1.0), math.nextafter(1e-6, 1.0), False)):
        numeric_ok, oracle_ok, _ = cli._agreement(config, closed, interval(-d_num), interval(-d_orc))
        assert (numeric_ok, oracle_ok) == (ok, ok)


def test_isochory_raises_at_the_first_zero_det(monkeypatch):
    # det patched to 0.0 from X = 1/3 on across body 1: the first J <= 0
    # is there, although no J is below 0
    real = tensor3.det

    def det(m):
        return real(m) * (1.0 - (np.asarray(m)[..., 0, 0] < 0.8))

    bodies = _bodies("bending", 1.0, (1.0, 1.0), (1.0, 1.0))
    monkeypatch.setattr(tensor3, "det", det)
    monkeypatch.setattr(kinematics, "det", det)
    with pytest.raises(NonPositiveJacobian) as err:
        cli._isochory(bodies)
    assert str(err.value) == "det F = 0 at X = [0.33333333 0.5        0.5       ]"


def _verify_check(monkeypatch, name, patches):
    # the PASS or FAIL word of one verify check of COMP_CFG under patches of cli
    with monkeypatch.context() as mp:
        for attr, value in patches.items():
            mp.setattr(cli, attr, value)
        text = cli.verify(cli.parse_config(COMP_CFG))[1]
    return next(l.split()[0] for l in text.splitlines() if (" %s: " % name) in l)


def _stress_derivative_draws(g):
    # verify's fixed draws with F = I, p = 0 and equal energies at both
    # difference steps, so the derivative is 0.0 and its gap P : G = g
    ms = cli._fixed_draws()[0]
    F, p = np.array([np.eye(3)] * 5), np.zeros(5)
    G = np.zeros((5, 3, 3))
    G[:, 0, 0] = g
    step = (np.full(5, 3.0), np.ones(5))
    return lambda: (ms, F, p, G, step, step)


def _enclosures(gap):
    return lambda *a: energy.EnergyEnclosure(0.0, gap, gap)


@pytest.mark.parametrize(
    "name, patch, bound, toward, at_bound",
    [
        # |ep1 - ep2| < 1e-9 max(1, |ep1|), with ep1 = 0.0
        ("quadrature convergence",
         lambda v: {"potential_energy": lambda s, tau, rule=None: v if rule else 0.0},
         1e-9, 0.0, "FAIL"),
        # the relative gap |fd - P : G| / max(1, |fd|) < 1e-6, with fd = 0.0
        ("stress derivative", lambda v: {"_fixed_draws": _stress_derivative_draws(v)},
         1e-6, 0.0, "FAIL"),
        # an edge minimum of exactly 0 is not positive, where a flip needs none
        ("window flip", lambda v: {"_edge_minima": lambda *a: [v, 1.0, -1.0, 1.0]},
         0.0, 1.0, "PASS"),
        ("energy equality", lambda v: {"_enclose": _enclosures(v)}, 1e-8, 0.0, "FAIL"),
        ("enclosure", lambda v: {"_enclose": _enclosures(v)}, -1e-9, -1.0, "PASS"),
    ],
    ids=["quadrature", "stress-derivative", "window-flip", "energy-equality", "enclosure"],
)
def test_verify_checks_at_their_exact_thresholds(monkeypatch, name, patch, bound, toward,
                                                 at_bound):
    # the bound and the next float across it get opposite results
    across = {"PASS": "FAIL", "FAIL": "PASS"}[at_bound]
    assert _verify_check(monkeypatch, name, patch(bound)) == at_bound
    assert _verify_check(monkeypatch, name, patch(math.nextafter(bound, toward))) == across
