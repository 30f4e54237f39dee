"""Scenario file parsing and end-to-end command-line behavior."""

import dataclasses
import json

import numpy as np
import pytest

from extremals import cli
from extremals.cli import main
from extremals.controls import ControlPath
from extremals.errors import ScenarioError
from extremals.lagrangian import _folded_stage
from extremals.reports import read_control_csv, write_control_csv
from extremals.scenario import (builtin_scenario, load_scenario,
                                parse_scenario, resolve_scenario,
                                scenario_control, scenario_fields,
                                scenario_lagrangian)

MINIMAL = """\
# planar toy problem
name = toy
n = 2
m = 2
fields:
  X1 = (1, 0)
  X2 = (0, 1)
lagrangian:
  (u1^2 + u2^2)/2
x0 = 0, 0
target = 1, 0.5   # reachable in a straight line
T = 1
N = 16
"""


def test_parse_scenario_round_trip():
    sc = parse_scenario(MINIMAL)
    assert sc.name == "toy"
    assert (sc.n, sc.m, sc.N) == (2, 2, 16)
    assert sc.T == 1.0
    assert sc.x0 == (0.0, 0.0)
    assert sc.target == (1.0, 0.5)
    assert "X2 = (0, 1)" in sc.fields_text
    assert sc.control_text is None
    # Untouched knobs keep their defaults.
    assert sc.k_max == 8
    assert sc.shoot_tol == 1e-8


@pytest.mark.parametrize("mangle,needle", [
    (lambda t: t + "color = blue\n", "unknown scenario key"),
    (lambda t: t + "T = 2\n", "duplicate"),
    (lambda t: t.replace("lagrangian:\n  (u1^2 + u2^2)/2\n", ""),
     "missing required key 'lagrangian'"),
    (lambda t: t.replace("n = 2", "n = 1"), "exceeds"),
    (lambda t: t.replace("N = 16", "N = sixteen"), "expects an integer"),
    (lambda t: t.replace("x0 = 0, 0", "x0 = 0"), "components"),
    (lambda t: t + "substeps = 0\n", "substeps must be at least 1"),
    (lambda t: t.replace("T = 1\n", "T = inf\n"), "positive and finite"),
    (lambda t: t.replace("T = 1\n", "T = nan\n"), "positive and finite"),
])
def test_parse_scenario_rejects_bad_input(mangle, needle):
    with pytest.raises(ScenarioError, match=needle):
        parse_scenario(mangle(MINIMAL))


def test_builtin_lookup_lists_choices():
    with pytest.raises(ScenarioError, match="identity.*heisenberg"):
        builtin_scenario("nope")
    assert builtin_scenario("grushin").n == 2


def test_heisenberg_quartic_is_heisenberg_with_a_quartic_cost():
    # The packaged non-quadratic scenario: heisenberg's problem with a cost
    # whose feedback the flow solves by its Newton, not in closed form.
    quartic = builtin_scenario("heisenberg_quartic")
    plain = builtin_scenario("heisenberg")
    assert quartic.lagrangian_text == "(u1^2 + u2^2)/2 + u1^4/4"
    assert dataclasses.replace(
        quartic, name=plain.name, lagrangian_text=plain.lagrangian_text,
        source_path=plain.source_path) == plain
    L = scenario_lagrangian(quartic)
    assert not L.fiber_affine()
    assert _folded_stage(scenario_fields(quartic), L) is None


def test_resolve_accepts_names_and_paths(tmp_path):
    p = tmp_path / "toy.scn"
    p.write_text(MINIMAL)
    assert load_scenario(p).name == "toy"
    assert resolve_scenario(str(p)).name == "toy"
    assert resolve_scenario("identity").name == "identity"


def test_scenario_control_needs_the_control_key():
    sc = parse_scenario(MINIMAL)
    with pytest.raises(ScenarioError, match="control"):
        scenario_control(sc)
    # The built-ins all carry one; spot-check shape and grid override.
    u = scenario_control(resolve_scenario("identity"), N=8)
    assert u.values.shape == (9, 2)
    assert float(np.max(np.abs(u.values - np.array([1.0, 0.0])))) < 1e-15


def test_cli_simulate_writes_report_and_tables(tmp_path):
    out = str(tmp_path)
    assert main(["simulate", "--scenario", "identity", "--out", out]) == 0
    rep = json.loads((tmp_path / "identity_simulate.json").read_text())
    assert rep["subcommand"] == "simulate"
    np.testing.assert_allclose(rep["endpoint"], [1.0, 0.0], atol=1e-10)
    u = read_control_csv(tmp_path / "identity_control.csv")
    assert u.values.shape[1] == 2
    header = (tmp_path / "identity_trajectory.csv").read_text().splitlines()[0]
    assert header == "s,x1,x2"


def test_cli_json_flag_prints_the_report(tmp_path, capsys):
    out = str(tmp_path)
    rc = main(["lie-rank", "--scenario", "heisenberg", "--out", out, "--json"])
    captured = capsys.readouterr().out
    assert rc == 0
    stdout_report = json.loads(captured)
    file_report = json.loads((tmp_path / "heisenberg_lie_rank.json").read_text())
    assert stdout_report == file_report


def test_cli_validation_errors_exit_one(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["simulate", "--scenario", "no-such-scenario",
                 "--out", out]) == 1
    assert main(["simulate", "--scenario", "identity", "--grid", "0",
                 "--out", out]) == 1
    assert main([]) == 1
    assert main(["eval-chart", "--scenario", "identity", "--out", out]) == 1
    # A chart file that is missing, or chart JSON without its anchor
    # control reference, is bad input too, not a traceback.
    point = ["--point", "1,1,0"]
    assert main(["eval-chart", "--scenario", "identity", "--out", out,
                 "--chart", str(tmp_path / "missing.json")] + point) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"chart": {}}))
    assert main(["eval-chart", "--scenario", "identity", "--out", out,
                 "--chart", str(bad)] + point) == 1
    # A well-formed chart evaluates; each malformed copy of it is bad input.
    write_control_csv(tmp_path / "anchor.csv",
                      ControlPath.constant(1.0, 4, [1.0, 0.0]))
    (tmp_path / "header_only.csv").write_text("s,u1,u2\n")
    chart = {"anchor_time": 1.0, "anchor_endpoint": [1.0, 0.0],
             "x0": [0.0, 0.0], "radius": 0.2, "det_anchor": 1.0,
             "det_floor": 0.1, "k_time": 0.0,
             "lipschitz_est": {"k": 0.0, "ell": 0.0}, "probe_seed": 0,
             "substeps": 4, "control_ref": "anchor.csv",
             "basis": [{"source": "(1, 0)", "lip": 0.0, "index": 0},
                       {"source": "(0, 1)", "lip": 0.0, "index": 1}]}
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"chart": chart}))
    assert main(["eval-chart", "--scenario", "identity", "--out", out,
                 "--chart", str(good)] + point) == 0
    # A NaN time or endpoint coordinate is a target outside the chart.
    for nan_point in ("nan,1,0", "1,nan,0"):
        assert main(["eval-chart", "--scenario", "identity", "--out", out,
                     "--chart", str(good), "--point", nan_point]) == 1
    malformed = [{"chart": {**chart, "anchor_time": None}},
                 {"chart": {**chart, "basis": [{"source": 5, "lip": 0.0,
                                                "index": 0}] * 2}},
                 {"chart": {**chart, "basis": 5}},
                 {"chart": {**chart, "lipschitz_est": [1.0, 2.0]}},
                 {"chart": {**chart, "substeps": 0}},
                 [{"chart": chart}],
                 {"chart": {**chart, "control_ref": "header_only.csv"}}]
    for stored in malformed:
        bad.write_text(json.dumps(stored))
        assert main(["eval-chart", "--scenario", "identity", "--out", out,
                     "--chart", str(bad)] + point) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 15
    assert "time nan outside the anchor control's domain" in err
    assert "is outside the certified chart ball" in err
    # An infinite horizon is bad input, not an index overflow.
    scn = tmp_path / "endless.scn"
    scn.write_text(MINIMAL.replace("T = 1\n", "T = inf\n")
                   + "control = (1, 0)\n")
    assert main(["simulate", "--scenario", str(scn), "--out", out]) == 1
    assert "error: horizon T must be positive and finite" \
        in capsys.readouterr().err


@pytest.mark.parametrize("line", ["det_tol = nan", "det_tol = -1",
                                  "r_init = nan", "r_init = inf"])
def test_cli_build_chart_rejects_what_certifies_nothing(tmp_path, capsys,
                                                        monkeypatch, line):
    # A chart whose floor or radius certifies nothing is bad input: exit 1
    # and an error: line naming the key, no chart file. It is rejected
    # before the multi-start runs.
    def no_multi_start(*args, **kwargs):
        raise AssertionError("multi_start ran on a rejected chart setting")

    monkeypatch.setattr(cli, "multi_start", no_multi_start)
    scn = tmp_path / "chart.scn"
    scn.write_text(MINIMAL + "anchor_time = 1\nseeds_count = 2\n"
                   + line + "\n")
    assert main(["build-chart", "--scenario", str(scn),
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{line.split()[0]} must be positive and finite" in err
    assert not (tmp_path / "toy_chart.json").exists()


def test_cli_solver_errors_exit_two(tmp_path, capsys):
    # A cost linear in u has no maximizing control anywhere, so every seed
    # dies and the solve reports failure.
    scn = tmp_path / "linear.scn"
    scn.write_text("name = linear\nn = 1\nm = 1\nfields:\n  X1 = (1)\n"
                   "lagrangian:\n  u1\nx0 = 0\ntarget = 1\nT = 1\nN = 16\n")
    assert main(["solve-extremal", "--scenario", str(scn),
                 "--out", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("power", ["x1^1e400", "x1^(1e400-1e400)",
                                   "(x1^1e200)^1e200", "(-2)^0.5",
                                   "1e308^2", "0^(-1)"])
def test_cli_constant_powers_end_in_a_report(tmp_path, capsys, power):
    # Python's float power raises or turns complex on these; the cost
    # evaluates as float64 does instead, and the solve fails in words.
    scn = tmp_path / "power.scn"
    scn.write_text("name = power\nn = 1\nm = 1\nfields:\n  X1 = (1)\n"
                   f"lagrangian:\n  u1^2/2 + {power}\nx0 = 0\ntarget = 1\n"
                   "T = 1\nN = 8\nseeds_count = 2\n")
    assert main(["solve-extremal", "--scenario", str(scn),
                 "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert "solver failure:" in err or "0 distinct extremal(s)" in out


def test_cli_certificate_errors_exit_three(tmp_path, capsys):
    # k_max = 0 leaves only the constant directions: rank 2 of 3.
    scn = tmp_path / "flat.scn"
    scn.write_text(
        "name = flat\nn = 3\nm = 2\n"
        "fields:\n  X1 = (1, 0, -x2/2)\n  X2 = (0, 1, x1/2)\n"
        "lagrangian:\n  (u1^2 + u2^2)/2\n"
        "x0 = 0, 0, 0\ntarget = 0, 0, 0.0795\nT = 1\nN = 32\nsubsteps = 8\n"
        "seeds_count = 6\nseeds_scale = 100\nk_max = 0\nanchor_time = 0.7\n")
    assert main(["build-chart", "--scenario", str(scn),
                 "--out", str(tmp_path)]) == 3
    capsys.readouterr()


def test_cli_chart_build_then_eval(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["build-chart", "--scenario", "identity", "--out", out]) == 0
    chart_file = tmp_path / "identity_chart.json"
    stored = json.loads(chart_file.read_text())
    assert stored["chart"]["radius"] == pytest.approx(0.2)
    assert (tmp_path / stored["chart"]["control_ref"]).exists()
    # Interior target 0.117 from the anchor (1.0, (1, 0)).
    rc = main(["eval-chart", "--scenario", "identity",
               "--chart", str(chart_file),
               "--point", "0.9,0.95,-0.03", "--out", out])
    assert rc == 0
    rep = json.loads((tmp_path / "identity_eval_chart.json").read_text())
    assert rep["iterations"] <= 3
    assert rep["round_trip_residual"] < 1e-10
    assert rep["det"] == pytest.approx(0.81, abs=1e-6)
    emitted = read_control_csv(tmp_path / rep["files"]["control"])
    assert emitted.m == 2
    # Constant basis on the identity system: alpha solves alpha * s = offset.
    np.testing.assert_allclose(rep["alpha"], [0.05 / 0.9, -0.03 / 0.9],
                               atol=1e-6)
    capsys.readouterr()


def test_cli_eval_chart_takes_no_anchor_time(tmp_path, capsys):
    # A chart carries its own anchor time, so eval-chart rejects the option
    # build-chart takes instead of ignoring it.
    out = str(tmp_path)
    assert main(["build-chart", "--scenario", "identity", "--out", out]) == 0
    capsys.readouterr()
    assert main(["eval-chart", "--scenario", "identity",
                 "--chart", str(tmp_path / "identity_chart.json"),
                 "--point", "0.9,0.95,-0.03", "--out", out,
                 "--anchor-time", "0.5"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_eval_chart_names_a_ragged_anchor_csv(tmp_path, capsys):
    # A short row in the chart's anchor control is bad input that names
    # the file and the line, not numpy's message about ragged arrays.
    out = str(tmp_path)
    assert main(["build-chart", "--scenario", "identity", "--out", out]) == 0
    capsys.readouterr()
    chart_file = tmp_path / "identity_chart.json"
    anchor = tmp_path / json.loads(chart_file.read_text())["chart"][
        "control_ref"]
    lines = anchor.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    anchor.write_text("\n".join(lines) + "\n")
    assert main(["eval-chart", "--scenario", "identity",
                 "--chart", str(chart_file),
                 "--point", "0.9,0.95,-0.03", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{anchor}, line 3: 2 columns, but the header has 3" in err
    # So is a cell that is not a number.
    lines[2] = "0.1,one,0"
    anchor.write_text("\n".join(lines) + "\n")
    assert main(["eval-chart", "--scenario", "identity",
                 "--chart", str(chart_file),
                 "--point", "0.9,0.95,-0.03", "--out", out]) == 1
    assert f"error: {anchor}, line 3: could not convert" \
        in capsys.readouterr().err


def test_cli_certify_lipschitz_is_certified_and_byte_stable(tmp_path, capsys):
    reports = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["certify-lipschitz", "--scenario", "identity",
                     "--out", str(out)]) == 0
        reports.append((out / "identity_certify_lipschitz.json").read_bytes())
    assert reports[0] == reports[1]
    rep = json.loads(reports[0])
    assert rep["certificate"]["certified"]
    assert rep["refined_grid"] == 2 * rep["grid"]
    capsys.readouterr()


def test_control_csv_round_trip_is_exact(tmp_path):
    u = ControlPath(1.0, np.array([[0.1234567890123456, -1.5], [2.0, 0.25],
                                   [-0.75, 3.335], [0.0, 1.0]]))
    path = tmp_path / "u.csv"
    write_control_csv(path, u)
    v = read_control_csv(path)
    assert v.T == u.T
    np.testing.assert_array_equal(v.values, u.values)
