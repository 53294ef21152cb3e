import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from nullkahler.cli import load_config, main, render_report, run_suite
from nullkahler.fields import ExprField

FIXTURES = Path(__file__).resolve().parent.parent / "src/nullkahler/fixtures"

SMALL_CFG = """
[suite]
seed = 20240
samples = 40

[fixture:flat]
kind = nk
theta = 0
f = 0

[fixture:family4]
kind = nk_family
family = 4
A = y^3

[fixture:control]
kind = nk
theta = x^2*y^2
expect = fail
"""


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


def test_bundled_suite_passes(tmp_path):
    report, code = run_suite(FIXTURES / "paper.cfg", serial=True,
                             out_dir=tmp_path)
    assert code == 0
    assert report["summary"]["pass"]
    assert (tmp_path / "report.json").exists()


def test_invalid_fixture_fails_suite():
    report, code = run_suite(FIXTURES / "negative.cfg", serial=True)
    assert code == 1
    failing = {c["name"] for c in report["checks"] if not c["pass"]}
    assert {"nk2", "sd_weyl", "lax"} <= failing


def test_missing_config_exit_code(capsys):
    assert main(["check", "--config", "/nonexistent/suite.cfg"]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[fixture:x]\nkind = bogus\n")
    assert main(["check", "--config", str(bad)]) == 2


def test_reports_byte_identical(small_cfg, tmp_path):
    report1, _ = run_suite(small_cfg, serial=True)
    report2, _ = run_suite(small_cfg, serial=True)
    assert render_report(report1) == render_report(report2)


def test_serial_flag_is_a_no_op_and_starts_no_thread(small_cfg, monkeypatch):
    def refuse(thread):
        raise AssertionError("run_suite started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    serial, _ = run_suite(small_cfg, serial=True)
    default, _ = run_suite(small_cfg, serial=False)
    assert render_report(serial) == render_report(default)


def test_console_prints_one_timing_per_fixture(small_cfg, capsys):
    run_suite(small_cfg)
    lines = capsys.readouterr().out.splitlines()
    timed = [line for line in lines if re.search(r"\[\d+ ms\]$", line)]
    assert [line.split()[1] for line in timed] == ["flat", "family4", "control"]
    assert all(line.startswith("fixture ") for line in timed)


def test_report_schema(small_cfg):
    report, _ = run_suite(small_cfg, serial=True)
    assert report["schema"] == 1
    assert {"total", "passed", "failed", "pass"} <= set(report["summary"])
    for check in report["checks"]:
        assert {"fixture", "name", "max_residual", "tolerance", "pass"} \
            <= set(check)
        assert "wall" not in json.dumps(check)  # timings stay off the record


def test_tolerance_scale(small_cfg):
    # scaling tolerances way up turns the expected-failure control into
    # an unexpectedly passing fixture, which fails the suite
    _, code = run_suite(small_cfg, serial=True, tolerance_scale=1e14)
    assert code == 1


def test_seed_override_changes_report(small_cfg):
    base, _ = run_suite(small_cfg, serial=True)
    other, _ = run_suite(small_cfg, serial=True, seed=77)
    assert base["seed"] == 20240 and other["seed"] == 77


def test_evolve_zero_data(tmp_path):
    code = main(["evolve", "--nx", "33", "--ny", "33", "--dt", "1e-4",
                 "--steps", "5", "--initial", "0",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    files = sorted(tmp_path.glob("u_t*.csv"))
    assert len(files) == 2
    body = files[-1].read_text().splitlines()
    assert body[0].startswith("# axes:")
    values = np.array([[float(v) for v in line.split(",")]
                       for line in body[1:]])
    assert np.all(values == 0.0)


def test_evolve_small_grid_writes_snapshots(tmp_path):
    # the CSV container sets no minimum grid size
    code = main(["evolve", "--nx", "8", "--ny", "8", "--dt", "1e-4",
                 "--steps", "3", "--initial", "0",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    assert len(list(tmp_path.glob("u_t*.csv"))) == 2


#: sha256 of each snapshot of the 17^2 ``--reference t`` run below: the
#: "# axes:" header and the %.17g values.  u = t stays uniform, so no BLAS
#: product touches the bits and they are portable.
EVOLVE_SNAPSHOT_SHA256 = {
    "u_t0.000000.csv":
        "04cf971893691cf3f5d5cef1f336ee2d53be24b441b5e95879cfd06d83d61022",
    "u_t0.000300.csv":
        "9fa9fbf52d7063175f9a59a778fda7a06a372573de860825bf8bd9cb63a99537",
}


def test_evolve_reference_mode(tmp_path):
    # u = t is exact: the ring and the x0 closure carry the reference rate
    code = main(["evolve", "--nx", "17", "--ny", "17", "--dt", "1e-4",
                 "--steps", "3", "--initial", "t", "--reference", "t",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    body = (tmp_path / "u_t0.000300.csv").read_text().splitlines()
    values = np.array([[float(v) for v in line.split(",")]
                       for line in body[1:]])
    assert values.shape == (17, 17)
    assert np.max(np.abs(values - 3e-4)) <= 1e-15
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == EVOLVE_SNAPSHOT_SHA256


@pytest.mark.parametrize("axis, size, message", [
    ("--nx", "1", "degenerate grid axis (-1.0, 1.0, 1)"),
    ("--nx", "2", "at least 3 x 3 nodes, got (2, 8)"),
    ("--ny", "1", "degenerate grid axis (-1.0, 1.0, 1)"),
    ("--ny", "2", "at least 3 x 3 nodes, got (8, 2)"),
], ids=["--nx-1", "--nx-2", "--ny-1", "--ny-2"])
def test_evolve_tiny_grid_exit_code(tmp_path, capsys, axis, size, message):
    out = tmp_path / "out"
    code = main(["evolve", "--nx", "8", "--ny", "8", axis, size,
                 "--steps", "1", "--out-dir", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edge, value, message", [
    ("--x1", "-1", "degenerate grid axis (-1.0, -1.0, 9)"),
    ("--x1", "-2", "degenerate grid axis (-1.0, -2.0, 9)"),
    ("--y0", "nan", "degenerate grid axis (nan, 1.0, 9)"),
    ("--x1", "inf", "degenerate grid axis (-1.0, inf, 9)"),
], ids=["x1-equals-x0", "x1-below-x0", "y0-nan", "x1-inf"])
def test_evolve_degenerate_box_exit_code(tmp_path, capsys, edge, value,
                                         message):
    out = tmp_path / "out"
    code = main(["evolve", "--nx", "9", "--ny", "9", "--steps", "2",
                 edge, value, "--out-dir", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--steps", "-1"], "steps must be at least 1"),
    (["--steps", "0"], "steps must be at least 1"),
    (["--dt", "0"], "dt must be finite and positive"),
    (["--dt=-1e-4"], "dt must be finite and positive"),
    (["--dt=nan"], "dt must be finite and positive"),
    (["--dt=inf"], "dt must be finite and positive"),
    (["--save-every", "0"], "save_every must be at least 1"),
    (["--dt", "1e-7", "--steps", "3"], "share a snapshot name"),
    (["--dt", "4e-7", "--steps", "10", "--save-every", "1"],
     "share a snapshot name"),
])
def test_evolve_bad_settings_exit_code(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    code = main(["evolve", "--nx", "9", "--ny", "9", *args,
                 "--out-dir", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_evolve_step_log(tmp_path):
    # the log is computed from the returned states; the snapshots do not
    # change with it
    args = ["evolve", "--nx", "17", "--ny", "13", "--dt", "1e-3",
            "--steps", "6", "--save-every", "2", "--initial", "x + t",
            "--reference", "t"]
    log = tmp_path / "steps.csv"
    assert main([*args, "--out-dir", str(tmp_path / "plain")]) == 0
    assert main([*args, "--out-dir", str(tmp_path / "logged"),
                 "--log", str(log)]) == 0
    plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert plain == sorted(p.name for p in (tmp_path / "logged").iterdir())
    assert len(plain) == 4
    for name in plain:
        assert (tmp_path / "plain" / name).read_bytes() \
            == (tmp_path / "logged" / name).read_bytes()
    header, *rows = log.read_text().splitlines()
    assert header == "t,dt,cfl_margin,max_abs_u,ring_mismatch,max_abs_error"
    table = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.array_equal(table[:, 0], [0.0, 2e-3, 4e-3, 6e-3])
    assert np.all(table[:, 1] == 1e-3)
    # u0 = x on the ring, where u* = t = 0: max|x| = 1; later the ring is u*
    assert table[0, 4] == 1.0 and np.all(table[1:, 4] == 0.0)
    assert table[0, 3] == 1.0
    # u0 - u* = x over the whole grid at t = 0; the interior keeps x's
    # slope as the ring is reset to u*, so the error stays O(1)
    assert table[0, 5] == 1.0 and np.all(table[1:, 5] > 0.5)
    # dt / (0.25 dx / (1 + max|u|)) with dx = 1/8
    assert table[0, 2] == pytest.approx(1e-3 / (0.25 / 8 / 2.0), rel=1e-12)


def test_evolve_step_log_error_of_an_exact_run(tmp_path):
    # u = t is exact for the scheme (no x or y variation), so the error
    # over the grid stays at round-off in every row
    log = tmp_path / "steps.csv"
    assert main(["evolve", "--nx", "17", "--ny", "13", "--dt", "1e-3",
                 "--steps", "6", "--save-every", "2", "--initial", "t",
                 "--reference", "t", "--out-dir", str(tmp_path / "out"),
                 "--log", str(log)]) == 0
    rows = log.read_text().splitlines()[1:]
    errors = [float(row.split(",")[5]) for row in rows]
    assert len(errors) == 4 and max(errors) <= 1e-15


def test_evolve_log_free_mode_has_no_mismatch(tmp_path):
    log = tmp_path / "steps.csv"
    assert main(["evolve", "--nx", "9", "--ny", "9", "--steps", "2",
                 "--initial", "x*y", "--out-dir", str(tmp_path / "out"),
                 "--log", str(log)]) == 0
    rows = log.read_text().splitlines()[1:]
    assert [row.split(",")[4:] for row in rows] == [["0", "nan"]] * 2


def test_evolve_cfl_refusal(tmp_path, capsys):
    code = main(["evolve", "--nx", "33", "--ny", "33", "--dt", "0.5",
                 "--steps", "1", "--initial", "0",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "bound" in capsys.readouterr().err


def test_export_metric_flat_constant_columns(tmp_path, small_cfg):
    code = main(["export", "--config", str(small_cfg), "--fixture", "flat",
                 "--quantity", "metric",
                 "--grid", "w:-1:1:9,z:-1:1:9,x:-1:1:9,y:-1:1:9",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    wx = (tmp_path / "g_wx.csv").read_text().splitlines()
    values = {float(v) for line in wx[1:] for v in line.split(",")}
    assert values == {0.5}
    ww = (tmp_path / "g_ww.csv").read_text().splitlines()
    assert {float(v) for line in ww[1:] for v in line.split(",")} == {0.0}


def test_export_curvature_nonzero_asd(tmp_path, small_cfg):
    code = main(["export", "--config", str(small_cfg),
                 "--fixture", "family4", "--quantity", "curvature",
                 "--grid", "w:-0.5:0.5:3,z:-0.5:0.5:3,x:0.5:1:3,y:0.5:1:3",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "curvature.csv").read_text().splitlines()
    header = lines[0].replace("# axes: ", "").split(",")
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    asd_cols = [k for k, name in enumerate(header) if name.startswith("c_asd")]
    assert np.max(np.abs(table[:, asd_cols])) > 1.0
    sd_cols = [k for k, name in enumerate(header) if name.startswith("c_sd")]
    assert np.max(np.abs(table[:, sd_cols])) < 1e-10


def test_export_bad_quantity(tmp_path, small_cfg, capsys):
    code = main(["export", "--config", str(small_cfg), "--fixture", "flat",
                 "--quantity", "bogus", "--grid", "w:-1:1:9",
                 "--out-dir", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("kind, quantity", [
    ("nk", "ew"), ("ew", "metric"), ("ew", "curvature"), ("ew", "sigma"),
])
def test_export_quantity_kind_mismatch(tmp_path, capsys, kind, quantity):
    path = tmp_path / "export.cfg"
    body = "theta = 0\n" if kind == "nk" else "u = x\n"
    path.write_text(f"[fixture:f]\nkind = {kind}\n{body}")
    code = main(["export", "--config", str(path), "--fixture", "f",
                 "--quantity", quantity, "--grid", "x:-1:1:3",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "does not apply" in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    ("w:-1:1:3,z:-1:1:3,x:-1:1:3", "must be the fixture's coordinates"),
    ("w:-1:1:3,z:-1:1:3,x:-1:1:3,y:-1:1:3,t:0:1:3",
     "must be the fixture's coordinates"),
    ("z:-1:1:3,w:-1:1:3,x:-1:1:3,y:-1:1:3", "in order"),
    ("w:-1:1:3,z:-1:1,x:-1:1:3,y:-1:1:3", "malformed grid entry"),
    ("w:-1:1:3.5,z:-1:1:3,x:-1:1:3,y:-1:1:3", "malformed grid entry"),
    ("w:1:-1:3,z:-1:1:3,x:-1:1:3,y:-1:1:3", "degenerate grid axis"),
    ("w:-1:1:3,z:-1:1:3,x:0.1:0.5:3,y:-inf:1:3",
     "degenerate grid axis (-inf, 1.0, 3): need n >= 2 and finite lo < hi"),
    ("w:-1:1:3,z:-1:1:3,x:0.1:nan:3,y:-1:1:3",
     "degenerate grid axis (0.1, nan, 3): need n >= 2 and finite lo < hi"),
])
def test_export_bad_grid_exit_code(tmp_path, small_cfg, capsys, grid, message):
    out = tmp_path / "out"
    code = main(["export", "--config", str(small_cfg), "--fixture", "flat",
                 "--quantity", "metric", "--grid", grid,
                 "--out-dir", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("box = w:-1, z:-1:1, x:-1:1, y:-1:1", "malformed box entry"),
    ("box = w:-1:one, z:-1:1, x:-1:1, y:-1:1", "malformed box entry"),
    ("box = w:1:-1, z:-1:1, x:-1:1, y:-1:1", "empty box edge"),
    ("box = w:-1:1, z:-1:1, x:-1:inf, y:-1:1",
     "[fixture:f] box: non-finite box edge (-1.0, inf)"),
    ("box = w:-1:1, z:-1:1, x:-1:1", "missing coordinates"),
    ("exclude = x 0.5", "malformed exclude entry"),
])
def test_malformed_box_or_exclude_exit_code(tmp_path, capsys, line, message):
    path = tmp_path / "box.cfg"
    path.write_text(f"[fixture:f]\nkind = nk\ntheta = 0\n{line}\n")
    assert main(["check", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("theta", [
    "x*y^3 + 0^-1", "x*y^3 + 10^400", "x*y^3*(-1)^0.5", "x*y^3 + (-1)^0.5",
    "x*y^3 + log(0)", "x*y^3 + exp(1000)", "x*y^3 + 1e400",
    "x*y^3 + 1e400*x", "x*y^3 + 1e200*1e200",
])
def test_non_finite_folded_constant_exit_code(tmp_path, capsys, theta):
    # the checks evaluate only derivatives of a constant, so a non-finite
    # one passed every check, and a fold that raised ended in a traceback
    # with the "check failed" exit code
    path = tmp_path / "const.cfg"
    path.write_text(f"[fixture:a]\nkind = nk\ntheta = {theta}\n")
    assert main(["check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [fixture:a] theta: constant ")
    assert "is not a finite real" in err


@pytest.mark.parametrize("body, prefix", [
    ("kind = nk\ntheta = x +", "theta"),
    ("kind = nk\ntheta = x*y^3\nf = 0^-1", "f"),
    ("kind = nk_family\nfamily = 1\nA = y^", "A"),
    ("kind = nk_family\nfamily = 2\nP = w\nQ = (y", "Q"),
    ("kind = dkp\nH = x +\nW = x", "H"),
    ("kind = dkp\nH = 0\nW = x*(", "W"),
    ("kind = ew\nu = y^", "u"),
])
def test_expression_parse_error_names_fixture_and_key(tmp_path, capsys, body,
                                                      prefix):
    path = tmp_path / "parse.cfg"
    path.write_text(f"[fixture:ok]\nkind = nk\ntheta = 0\n\n"
                    f"[fixture:bad]\n{body}\n")
    assert main(["check", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: [fixture:bad] {prefix}: ")


def test_parse_error_in_last_fixture_exits_before_any_fixture_runs(
        tmp_path, capsys, monkeypatch):
    # expressions are parsed when the config is loaded, so a bad last
    # fixture costs none of the shipped ones
    import nullkahler.cli as cli

    calls = []
    run_fixture = cli.run_fixture
    monkeypatch.setattr(cli, "run_fixture",
                        lambda *args: calls.append(1) or run_fixture(*args))
    path = tmp_path / "late.cfg"
    path.write_text((FIXTURES / "paper.cfg").read_text()
                    + "\n[fixture:zz-bad]\nkind = nk\ntheta = x +\n")
    assert main(["check", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: [fixture:zz-bad] theta: ")
    assert out == "" and calls == []


def test_evolve_mms_table(tmp_path, monkeypatch, capsys):
    import nullkahler.evolver as evolver

    canned = {"resolutions": [64, 128], "errors": [4e-4, 1e-4],
              "orders": [2.0]}
    monkeypatch.setattr(evolver, "mms_convergence", lambda: canned)
    code = main(["evolve", "--mms", "--out-dir", str(tmp_path)])
    assert code == 0
    table = (tmp_path / "mms_convergence.csv").read_text().splitlines()
    assert table[0].startswith("# axes: resolution,error,order")
    assert table[1].startswith("64,")
    assert "order = 2.000" in capsys.readouterr().out


def test_evolve_mms_refuses_the_flags_it_would_ignore(tmp_path, capsys):
    # the study runs on its own grids and steps; it once exited 0 here
    out = tmp_path / "out"
    code = main(["evolve", "--mms", "--nx", "1", "--x1", "-5", "--dt=-1",
                 "--out-dir", str(out)])
    assert code == 2
    assert "would ignore --nx, --x1, --dt" in capsys.readouterr().err
    assert not out.exists()


def test_load_config_validates_tolerances(tmp_path):
    path = tmp_path / "cfg.cfg"
    path.write_text("[tolerances]\nnk1 = -1\n" + SMALL_CFG)
    with pytest.raises(ValueError):
        load_config(path)


@pytest.mark.parametrize("section, message", [
    ("kind = nk\ntheta = 0\nchecks = nk1, lxa\n", "does not compute"),
    ("kind = ew\nu = x\nchecks = ew, nk1\n", "does not compute"),
    ("kind = nk\ntheta = 0\nchecks =\n", "empty checks line"),
], ids=["nk", "ew", "empty"])
def test_unknown_check_exit_code(tmp_path, capsys, section, message):
    path = tmp_path / "checks.cfg"
    path.write_text("[fixture:f]\n" + section)
    assert main(["check", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("section", [
    "kind = nk\ntheta = x*y^3\nexclude = y:0\n",
    "kind = dkp\nH = -x^2/(2*(t-1))\nW = -x/(t-1)\nexclude = t:0.52\n",
    "kind = ew\nu = -x/(t-1)\nexclude = t:-1.04\nbox = x:-1:1, y:-1:1, t:-1:0\n",
    # a flat fixture, then family 3, whose chart excludes |y| < 0.05
    "kind = nk\ntheta = 0\n\n[fixture:family3]\nkind = nk_family\n"
    "family = 3\nA = s^2\n",
])
def test_box_meeting_excluded_band_is_refused_on_load(tmp_path, monkeypatch,
                                                      capsys, section):
    import nullkahler.cli as cli

    def no_work(*args):
        raise AssertionError("a fixture ran")

    monkeypatch.setattr(cli, "run_fixture", no_work)
    path = tmp_path / "band.cfg"
    path.write_text(f"[fixture:band]\n{section}")
    assert main(["check", "--config", str(path)]) == 2
    assert "meets the excluded band" in capsys.readouterr().err


@pytest.mark.parametrize("section, message", [
    ("kind = nk_family\nfamily = 5\nA = y^2\n", "family = 1..4"),
    ("kind = nk_family\nfamily = 0\nA = y^2\n", "family = 1..4"),
    ("kind = nk\nf = 0\n", "needs theta"),
    ("kind = nk_family\nfamily = 1\nB = y\n", "needs A"),
    ("kind = nk_family\nfamily = 2\nA = y\nQ = y^2\n", "needs P"),
    ("kind = nk_family\nfamily = 3\n", "needs A"),
    ("kind = dkp\nW = y^2 + 2*x*t\n", "needs H"),
    ("kind = dkp\nH = 0\n", "needs W"),
    ("kind = ew\nexclude = t:1\n", "needs u"),
    # a key that neither the kind nor the family reads
    ("kind = nk_family\nfamily = 4\nA = y^3\nQ = y\n", "sets ['q']"),
    ("kind = nk\ntheta = x*y^3\nthetaa = 0\n", "sets ['thetaa']"),
    ("kind = nk_family\nfamily = 2\nP = w*y\nB = y\n", "sets ['b']"),
    ("kind = nk\ntheta = 0\nvacuum = true\n", "sets ['vacuum']"),
    # a value outside its key's choices
    ("kind = ew\nu = x\nexpect = fial\n", "expect = 'fial' is neither"),
    ("kind = dkp\nH = -x^2/(2*(t-1))\nW = -x/(t-1)\nexclude = t:1\n"
     "vacuum = maybe\n", "vacuum = 'maybe' is not one of"),
    ("kind = ew\nu = x\nchecks = ew, ew\n", "names checks ['ew'] more than"),
    # a box or exclude entry off the fixture's coordinates, or a box
    # coordinate given twice
    ("kind = ew\nu = x\nbox = x:-1:1, y:-1:1, t:-1:0.5, q:0:1\n",
     "box names ['q'], which are not among"),
    ("kind = ew\nu = x\nbox = x:-1:1, y:-1:1, t:-1:0.5, x:5:6\n",
     "box names ['x'] more than once"),
    ("kind = nk\ntheta = x*y^3\nexclude = q:0\n",
     "exclude names ['q'], which are not among"),
], ids=["family5", "family0", "nk-theta", "family1-A", "family2-P",
        "family3-A", "dkp-H", "dkp-W", "ew-u", "family4-Q", "nk-thetaa",
        "family2-B", "nk-vacuum", "expect-fial", "vacuum-maybe",
        "checks-twice", "box-q", "box-x-twice", "exclude-q"])
def test_incomplete_fixture_is_refused_on_load(tmp_path, monkeypatch, capsys,
                                               section, message):
    import nullkahler.cli as cli

    def no_work(*args):
        raise AssertionError("a fixture ran")

    monkeypatch.setattr(cli, "run_fixture", no_work)
    path = tmp_path / "incomplete.cfg"
    path.write_text("[fixture:flat]\nkind = nk\ntheta = 0\n\n"
                    f"[fixture:incomplete]\n{section}")
    assert main(["check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "[fixture:incomplete]" in err and message in err


@pytest.mark.parametrize("text, message", [
    ("[suite]\nsampels = 5\n", "[suite] sets ['sampels']"),
    ("[suite]\nseed = 3\nsed = 3\n", "[suite] sets ['sed']"),
    ("[fixtures:typo]\nkind = nk\ntheta = x*y^3\n", "unknown section [fixtures:typo]"),
    ("[tolerance]\nnk1 = 1e-8\n", "unknown section [tolerance]"),
    ("[suite]\nseed = abc\n", "seed = 'abc' is not an integer"),
    ("[suite]\nsamples = 0\n", "samples must be at least 1"),
    ("[suite]\nsamples = -3\n", "samples must be at least 1"),
], ids=["suite-sampels", "suite-sed", "section-fixtures", "section-tolerance",
        "seed-abc", "samples-0", "samples-negative"])
def test_bad_suite_or_unknown_section_is_refused_on_load(tmp_path, monkeypatch,
                                                         capsys, text, message):
    import nullkahler.cli as cli

    def no_work(*args):
        raise AssertionError("a fixture ran")

    monkeypatch.setattr(cli, "run_fixture", no_work)
    path = tmp_path / "typo.cfg"
    path.write_text(f"[fixture:flat]\nkind = nk\ntheta = 0\n\n{text}")
    assert main(["check", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, args, message", [
    ("[suite]\nseed = -5\n", [], "seed must be at least 0"),
    ("", ["--seed", "-5"], "seed must be at least 0"),
    ("[tolerances]\nnk1 = abc\n", [], "tolerance nk1 = 'abc' is not a number"),
    ("[tolerances]\nnk1 = nan\n", [], "tolerance nk1 must be finite"),
    ("[tolerances]\nnk1 = inf\n", [], "tolerance nk1 must be finite"),
    ("", ["--tolerance-scale", "nan"], "tolerance scale must be finite"),
    ("", ["--tolerance-scale", "-1"], "tolerance scale must be finite"),
    ("", ["--tolerance-scale", "0"], "tolerance scale must be finite"),
    ("", ["--tolerance-scale", "inf"], "tolerance scale must be finite"),
], ids=["suite-seed-negative", "seed-flag-negative", "tolerance-abc",
        "tolerance-nan", "tolerance-inf", "scale-nan", "scale-negative",
        "scale-0", "scale-inf"])
def test_bad_number_is_refused_before_any_fixture_runs(tmp_path, monkeypatch,
                                                       capsys, text, args,
                                                       message):
    import nullkahler.cli as cli

    def no_work(*args):
        raise AssertionError("a fixture ran")

    monkeypatch.setattr(cli, "run_fixture", no_work)
    path = tmp_path / "numbers.cfg"
    path.write_text(f"[fixture:flat]\nkind = nk\ntheta = 0\n\n{text}")
    assert main(["check", "--config", str(path)] + args) == 2
    assert message in capsys.readouterr().err


#: sha256 over the sorted (file name, bytes) of ``export`` from paper.cfg
#: on each fixture's default box at 4 nodes per axis (t below the band at
#: t = 1); the fixtures are rational, so their bits come from IEEE
#: arithmetic alone.  family1's Sigma was re-recorded when Sigma began to
#: be formed from coframe values rather than sampled from form trees:
#: every value is equal, and 256 zeros of sigma11_wx and sigma11_wz, where
#: a tree had no term to stand against a computed zero, changed sign.
#: dkp-main's, whose coframe has quotient entries, was recorded from the
#: trees and holds
EXPORT_SHA256 = {
    ("family1", "sigma"):
        "b6deefe5e9dadf7712596e7bf0f34b64680edf626410b8e0ea844e7cb3b7e2ab",
    ("dkp-main", "sigma"):
        "e58b79dbfdaed978cccd6c322fa45599dc31c13cf967f770a709e3b36fbbf1fb",
    ("ew-dkp", "ew"):
        "cf27fe62ac59fdfdefa64f6a585596e07a882c30e4b0306bb9c53e7a95542b79",
}


@pytest.mark.parametrize("fixture, quantity, grid", [
    ("family1", "sigma", "w:-1:1:4,z:-1:1:4,x:-1:1:4,y:-1:1:4"),
    ("dkp-main", "sigma", "x:-1:1:4,y:-1:1:4,t:-1:0.5:4,z:-1:1:4"),
    ("ew-dkp", "ew", "x:-1:1:4,y:-1:1:4,t:-1:0.5:4"),
])
def test_export_bytes_pinned(tmp_path, capsys, fixture, quantity, grid):
    assert main(["export", "--config", str(FIXTURES / "paper.cfg"),
                 "--fixture", fixture, "--quantity", quantity,
                 "--grid", grid, "--out-dir", str(tmp_path)]) == 0
    digest = hashlib.sha256()
    for path in sorted(tmp_path.glob("*.csv")):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == EXPORT_SHA256[fixture, quantity]


@pytest.mark.parametrize("p, q", [("w + y^2", "y^4"), ("1 + w*y", "y^2")])
def test_family2_with_p_nonzero_at_y0_passes_every_check(tmp_path, p, q):
    # family 2 builds Theta's z-term by integrating in y from 0; with
    # P(w, 0) != 0 the declared f = Theta_x once missed the f that Theta
    # induces by -P(w, 0)^2, and nk1 failed by that much
    from nullkahler.cli import run_fixture

    path = tmp_path / "family2.cfg"
    path.write_text(f"[suite]\nsamples = 40\n\n[fixture:family2]\n"
                    f"kind = nk_family\nfamily = 2\nP = {p}\nQ = {q}\n")
    config = load_config(path)
    results = run_fixture(config["fixtures"][0], config)
    assert len(results) >= 8
    failed = [(r["name"], r["max_residual"]) for r in results if not r["pass"]]
    assert not failed


#: one ew fixture on u = -2 + (4 + 2 (x + y - t))^(1/2), an exact dKP
#: solution with u_xx != 0, so its Weyl form nu = -4 u_x dt is not closed
#: (every ew and dkp fixture of paper.cfg has d nu = 0)
OPEN_WEYL_FORM_CFG = """
[suite]
samples = 100

[fixture:ew-travelling]
kind = ew
u = -2 + (4 + 2*(x + y - t))^0.5
box = x:0:1, y:0:1, t:-1:0
"""


@pytest.fixture()
def open_weyl_form_cfg(tmp_path):
    path = tmp_path / "open_weyl_form.cfg"
    path.write_text(OPEN_WEYL_FORM_CFG)
    return path


def test_ew_passes_where_the_weyl_form_is_not_closed(open_weyl_form_cfg):
    # nabla_i nu_j - nabla_j nu_i = (d nu)_ij, so nabla nu is symmetric
    # only where d nu = 0, and this fixture is what makes ew_residual's
    # symmetrised nabla_(i nu_j) observable
    from nullkahler.cli import run_fixture

    config = load_config(open_weyl_form_cfg)
    fixture, = config["fixtures"]
    sample = fixture.sample(config)
    assert np.min(np.abs(sample.ew.nu.differentiate("x").evaluate(sample.points3))) \
        > 0.1
    entry, = run_fixture(fixture, config)
    assert entry["name"] == "ew" and entry["pass"]
    assert entry["max_residual"] <= 1e-13


REPORT_KEYS = {"fixture", "name", "max_residual", "tolerance", "require",
               "pass"}


def test_every_check_yields_one_residual_row_per_sample(open_weyl_form_cfg):
    # each table entry returns its residual per sample point, and only
    # run_fixture reduces it into a report entry
    import nullkahler.cli as cli

    kinds = set()
    for path in (FIXTURES / "paper.cfg", open_weyl_form_cfg):
        config = load_config(path)
        for fixture in config["fixtures"]:
            sample = fixture.sample(config)
            for name, check in cli._TABLES[fixture.kind].items():
                residual = check(sample)
                assert isinstance(residual, np.ndarray), (fixture.name, name)
                assert residual.shape[0] == config["samples"], \
                    (fixture.name, name)
            entries = cli.run_fixture(fixture, config)
            assert all(set(entry) == REPORT_KEYS for entry in entries)
            kinds.add(fixture.kind)
    assert kinds == set(cli.KIND_CHECKS)


def test_box_clear_of_excluded_band_loads(tmp_path):
    # the band |t - 0.56| < 0.05 starts above the box edge t = 0.5
    path = tmp_path / "band.cfg"
    path.write_text("[fixture:f]\nkind = dkp\nH = -x^2/(2*(t-1))\n"
                    "W = -x/(t-1)\nexclude = t:0.56\n")
    assert [f.name for f in load_config(path)["fixtures"]] == ["f"]


def test_excluded_band_sample_exit_code(tmp_path, capsys):
    path = tmp_path / "band.cfg"
    path.write_text("[suite]\nsamples = 100\n\n"
                    "[fixture:band]\nkind = nk\ntheta = x*y^3\nexclude = y:0\n")
    assert main(["check", "--config", str(path)]) == 2
    assert "fixture error" in capsys.readouterr().err


@pytest.mark.parametrize("fixture", [
    "kind = nk\ntheta = z*y^3/3\n",
    "kind = nk_family\nfamily = 1\nA = y^2\n",  # Theta = z y^3/3
], ids=["nk", "nk_family"])
def test_export_across_declared_band_exit_code(tmp_path, capsys, fixture):
    # the exclude line puts its band on the chart of either nk kind, so
    # an export grid that crosses the band is refused
    path = tmp_path / "band.cfg"
    path.write_text("[fixture:band]\n" + fixture
                    + "box = w:-1:1, z:-1:1, x:-1:0.4, y:-1:1\nexclude = x:0.5\n")
    code = main(["export", "--config", str(path), "--fixture", "band",
                 "--quantity", "metric", "--grid",
                 "w:0:1:2,z:0:1:2,x:0:1:3,y:0:1:2", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "evaluation inside excluded band x = 0.5" in capsys.readouterr().err


SHARING_CFG = """
[suite]
samples = 10

[fixture:nk]
kind = nk
theta = x*y^3

[fixture:nk-residuals]
kind = nk
theta = x*y^3
checks = nk1, nk2

[fixture:nk-dsigma]
kind = nk
theta = x*y^3
checks = dsigma00, dsigma01

[fixture:dkp]
kind = dkp
H = -x^2/(2*(t-1))
W = -x/(t-1)
exclude = t:1

[fixture:dkp-potentials]
kind = dkp
H = -x^2/(2*(t-1))
W = -x/(t-1)
exclude = t:1
checks = heqn, lindkp

[fixture:ew]
kind = ew
u = -x/(t-1)
exclude = t:1
"""


def test_one_curvature_pass_per_fixture(tmp_path, monkeypatch, capsys):
    import nullkahler.cli as cli
    from nullkahler import curvature, geometry

    calls = {}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(curvature, "coordinate_curvature",
                        counted("curvature", curvature.coordinate_curvature))
    monkeypatch.setattr(cli, "commutator_sweep",
                        counted("lax", cli.commutator_sweep))
    monkeypatch.setattr(cli, "dkp_coframe", counted("coframe", cli.dkp_coframe))
    monkeypatch.setattr(geometry, "_check_nonvanishing",
                        counted("wx", geometry._check_nonvanishing))
    path = tmp_path / "sharing.cfg"
    path.write_text(SHARING_CFG)
    config = load_config(path)
    # (curvature passes, Lax sweeps, dkp coframe builds, W_x checks)
    expected = {"nk": (1, 1, 0, 0), "nk-residuals": (0, 0, 0, 0),
                "nk-dsigma": (0, 0, 0, 0),
                "dkp": (1, 0, 1, 1), "dkp-potentials": (0, 0, 0, 1),
                "ew": (0, 0, 0, 0)}
    for fixture in config["fixtures"]:
        calls.update(curvature=0, lax=0, coframe=0, wx=0)
        results = cli.run_fixture(fixture, config)
        assert [r["name"] for r in results] == list(fixture.checks)
        assert all(r["pass"] for r in results), fixture.name
        counts = (calls["curvature"], calls["lax"], calls["coframe"], calls["wx"])
        assert counts == expected[fixture.name], fixture.name

    # the metric is still built when no check reads it
    path.write_text("[fixture:f]\nkind = dkp\nH = 0\nW = y\nchecks = heqn\n")
    assert main(["check", "--config", str(path)]) == 2
    assert "W_x vanishes" in capsys.readouterr().err


def test_suite_checks_leave_the_unread_oracle_sectors_uncomputed():
    # no nk or dkp check reads c_asd, Phi or the Bianchi gap of the
    # oracle report, so a suite run computes none of them
    from nullkahler.cli import run_fixture

    config = load_config(FIXTURES / "paper.cfg")
    curved = [f for f in config["fixtures"] if f.kind in ("nk", "dkp")]
    assert len(curved) == 12
    deferred = {"c_asd", "_c_asd_full", "phi", "fit_residual"}
    for fixture in curved:
        samples = []
        build = fixture.build
        fixture.build = lambda plan, build=build: samples.append(build(plan)) \
            or samples[-1]
        run_fixture(fixture, config)
        (sample,) = samples
        report = vars(sample)["oracle"]  # the suite computed the report
        assert not deferred & set(vars(report)), fixture.name
        # reading one computes it, once
        assert report.c_asd is report.c_asd
        assert {"c_asd", "_c_asd_full"} <= set(vars(report))


#: class-level ``Expr.diff`` and ``ExprField.evaluate_axes`` calls in one
#: ``run_suite`` of paper.cfg: each expression node is differentiated once
#: per variable it reads; jets evaluate their partials with ``node_value``
#: and write constant slots unevaluated, so no jet calls ``evaluate_axes``,
#: and neither does the Lax commutator (314 calls when it evaluated each
#: coefficient and partial as a field); 925 diffs when the monopole
#: residual differentiated the form trees of V and alpha, which it now
#: reads off the jets of W_x and W_y
PAPER_SUITE_DIFFS = 918
PAPER_SUITE_EVALUATIONS = 34


def test_paper_suite_work_does_not_grow(diff_calls, monkeypatch):
    evaluated = []
    evaluate_axes = ExprField.evaluate_axes

    def recorded(self, *axes, **kwargs):
        evaluated.append(self.expr)
        return evaluate_axes(self, *axes, **kwargs)

    monkeypatch.setattr(ExprField, "evaluate_axes", recorded)
    _, code = run_suite(FIXTURES / "paper.cfg")
    assert code == 0
    assert len(diff_calls) <= PAPER_SUITE_DIFFS
    assert len(evaluated) <= PAPER_SUITE_EVALUATIONS


#: sha256 of ``render_report`` for the shipped configs, with ``serial``
#: set or not; paper.cfg's recorded when d Sigma began to be read off the
#: coframe jet with the Sigma of ``CoFrame.sigma`` on every curved kind,
#: which halved each dkp ``dsigma01`` entry (the display Sigma^{0'1'} was
#: -2 times it) and moved no other entry and no verdict; negative.cfg's,
#: which has no dkp fixture, when the Lax check began to read the
#: commutator's lambda-coefficients
#: (perfbench/report_sha256.json still holds older paper.cfg values)
REPORT_SHA256 = {
    ("paper.cfg", 0):
        "8598e44299bcb03a55030e0038b61e4b53447387f6d604534084282b59214c37",
    ("paper.cfg", 7):
        "f49fd93f3f80394bb3d85c87443224393b285a47ecd3fe880dd2524c7e1c33b2",
    ("paper.cfg", 20240):
        "294e8197a50b4dfd5a2fdb170476900e34628e94b57ad0bc882a6dac22509524",
    ("negative.cfg", 0):
        "4590e0598a1635dac33aab146555cf62a666431ff87c5b839b7633ff60f3ebc9",
    ("negative.cfg", 7):
        "88c66981b1392747520cb3c99ed88dd271ab49c4d9a20d5974947c9c1d28021a",
    ("negative.cfg", 20240):
        "0b82b6ae60f8c527e0d4234b46547e36b67cea204041db8629195088b275037e",
}


@pytest.mark.parametrize("config, seed", sorted(REPORT_SHA256))
def test_report_bytes_pinned(config, seed):
    for serial in (True, False):
        report, _ = run_suite(FIXTURES / config, seed=seed, serial=serial)
        digest = hashlib.sha256(render_report(report).encode()).hexdigest()
        assert digest == REPORT_SHA256[config, seed], ("serial", serial)


@pytest.mark.parametrize("checks, expected", [("nk1", 0), ("nk1, bogus", 2)])
def test_python_m_entry_point(tmp_path, checks, expected):
    path = tmp_path / "one.cfg"
    path.write_text(f"[fixture:flat]\nkind = nk\ntheta = 0\nchecks = {checks}\n")
    src = str(FIXTURES.parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "nullkahler", "check",
                           "--config", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == expected, proc.stderr


#: class-level ``Expr.evaluate`` calls in one ``run_suite`` of paper.cfg:
#: every check of a sample set evaluates through the set's one memo, so a
#: node shared by several trees is evaluated once per sample set (2,116
#: when the dkp closure check also evaluated d Sigma^{1'1'} and its closed
#: form, 2,424 with one memo per point set of a dkp sample, 5,590 with
#: one memo per check, 36,572 when every tree was walked on its own,
#: 1,977 when each term of the Lax commutator was a product tree, 1,762
#: when d Sigma was the exterior derivative of a form tree, 1,738 when
#: the monopole residual evaluated the form trees of dV and d alpha)
PAPER_SUITE_NODE_EVALUATIONS = 1715


def test_paper_suite_node_evaluations_do_not_grow(evaluate_calls):
    assert run_suite(FIXTURES / "paper.cfg")[1] == 0
    assert len(evaluate_calls) <= PAPER_SUITE_NODE_EVALUATIONS


def test_each_node_is_evaluated_once_per_point_set(monkeypatch):
    # every check of a fixture reads its sample set's evaluation memo, so
    # no expression node is evaluated twice at one point set; a point set
    # is told by its size and the values of the coordinates the node reads
    # (a dkp fixture's points on (x, y, t, z) and on (x, y, t) agree in
    # x, y and t, and share one memo)
    from nullkahler.cli import run_fixture
    from nullkahler.expressions import Expr

    evaluated = []  # (node, point set); keeps every node, so no id is reused
    for cls in Expr.__subclasses__():
        def recorded(self, env, memo=None, _rule=cls.evaluate):
            point_set = (np.broadcast_shapes(*map(np.shape, env.values())),
                         *((name, np.asarray(env[name]).tobytes())
                           for name in sorted(self.variables())))
            evaluated.append((self, point_set))
            return _rule(self, env, memo)
        monkeypatch.setattr(cls, "evaluate", recorded)
    config = load_config(FIXTURES / "paper.cfg")
    kinds = set()
    for fixture in config["fixtures"]:
        del evaluated[:]
        assert all(r["pass"] for r in run_fixture(fixture, config))
        pairs = [(id(node), point_set) for node, point_set in evaluated]
        assert len(set(pairs)) == len(pairs), fixture.name
        kinds.add(fixture.kind)
    assert kinds == {"nk", "dkp", "ew"}
