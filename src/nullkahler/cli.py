"""Batch driver: run residual suites from a config file, evolve initial
data, and export grids as CSV.

Configs are flat sectioned key-value text (INI).  A ``[suite]`` section
sets the seed and sample count; each ``[fixture:<id>]`` section declares
one fixture by kind (``nk``, ``nk_family``, ``dkp``, ``ew``) with
expression strings, a sampling box, optional excluded bands, an optional
check selection and an ``expect = pass|fail`` label.  Exit codes:
0 suite passed, 1 at least one check failed, 2 usage, config or domain
error (a check name the fixture's kind does not compute is a config
error).

Reports are JSON with ``schema: 1`` and are byte-identical across runs
with the same config and seed; wall-times are printed to the console
only, never written into the report.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dkp as dkp_mod
from .curvature import coordinate_curvature, oracle_report
from .evolver import (
    BlowUpError,
    BoundarySource,
    CFLError,
    DKPState,
    Grid2D,
    cfl_bound,
    dkp_evolve,
    manufactured_reference,
    mms_convergence,
)
from .expressions import ExpressionError
from .fields import (
    Chart,
    DomainError,
    EvaluationError,
    ExcludedBand,
    ExprField,
    GridSpec,
    SampledField,
    grid_to_csv,
    sample_to_grid,
)
from .geometry import DegeneracyError, dkp_coframe, nk_coframe, nk_metric
from .nk_system import NKSolution, example_family, commutator_sweep, residual_nk1, residual_nk2
from .sampling import Box, SamplePlan

SCHEMA_VERSION = 1

DEFAULT_TOLERANCES = {
    "nk1": 1e-10,
    "nk2": 1e-10,
    "sd_weyl": 1e-8,
    "scalar": 1e-8,
    "ricci_null": 1e-8,
    "dsigma00": 1e-9,
    "dsigma01": 1e-9,
    "lax": 1e-8,
    "heqn": 1e-6,
    "lindkp": 1e-6,
    "monopole": 1e-6,
    "ew": 1e-6,
    "dkp_sd_weyl": 1e-7,
    "dkp_scalar": 1e-7,
    "jones_tod": 1e-8,
    "ricci_flat": 1e-7,
    "nonvacuum": 1e-3,  # passes when max|Ric| is ABOVE this
}

NK_CHECKS = ("nk1", "nk2", "sd_weyl", "scalar", "ricci_null",
             "dsigma00", "dsigma01", "lax")
DKP_CHECKS = ("heqn", "lindkp", "monopole", "ew", "dkp_sd_weyl",
              "dkp_scalar", "dsigma00", "dsigma01", "jones_tod")
EW_CHECKS = ("ew",)

#: every check a fixture kind computes, selectable with ``checks =``
KIND_CHECKS = {
    "nk": NK_CHECKS + ("ricci_flat",),
    "dkp": DKP_CHECKS + ("ricci_flat", "nonvacuum"),
    "ew": EW_CHECKS,
}


class ConfigError(ValueError):
    pass


@dataclass
class Fixture:
    name: str
    kind: str
    checks: tuple
    expect: str
    build: object  # callable() -> payload dict


@dataclass
class CheckResult:
    fixture: str
    name: str
    max_residual: float
    tolerance: float
    require: str
    passed: bool
    wall_ms: float


def _parse_box(text: str, expected_names) -> Box:
    bounds = {}
    for part in text.split(","):
        name, lo, hi = (p.strip() for p in part.strip().split(":"))
        bounds[name] = (float(lo), float(hi))
    missing = [n for n in expected_names if n not in bounds]
    if missing:
        raise ConfigError(f"box is missing coordinates {missing}")
    return Box(tuple(bounds[n] for n in expected_names))


def _parse_excluded(text: str) -> tuple:
    bands = []
    for part in text.split(","):
        if not part.strip():
            continue
        name, center = (p.strip() for p in part.strip().split(":"))
        bands.append(ExcludedBand(name, float(center)))
    return tuple(bands)


def _parse_checks(name, kind, section, default) -> tuple:
    checks = tuple(c.strip() for c in section.get(
        "checks", ", ".join(default)).split(",") if c.strip())
    unknown = [c for c in checks if c not in KIND_CHECKS[kind]]
    if unknown:
        raise ConfigError(
            f"[fixture:{name}] has checks {unknown} that kind {kind!r} "
            f"does not compute (expected some of {list(KIND_CHECKS[kind])})"
        )
    return checks


def _nk_fixture(name, section) -> Fixture:
    excluded = _parse_excluded(section.get("exclude", ""))
    box = _parse_box(section.get("box", "w:-1:1, z:-1:1, x:-1:1, y:-1:1"),
                     ("w", "z", "x", "y"))
    kind = section.get("kind")

    def build():
        if kind == "nk_family":
            params = {key.upper(): section[key]
                      for key in ("a", "b", "p", "q") if key in section}
            sol = example_family(int(section["family"]), params, box)
        else:
            chart = Chart(("w", "z", "x", "y"), excluded)
            theta = ExprField.from_text(section["theta"], chart)
            from .nk_system import induced_f

            f_text = section.get("f", "")
            f = (ExprField.from_text(f_text, chart) if f_text
                 else induced_f(theta))
            sol = NKSolution(theta, f, box)
        return {"solution": sol}

    checks = _parse_checks(name, "nk", section, NK_CHECKS)
    return Fixture(name, "nk", checks, section.get("expect", "pass"), build)


def _dkp_fixture(name, section) -> Fixture:
    excluded = _parse_excluded(section.get("exclude", ""))
    box = _parse_box(section.get("box", "x:-1:1, y:-1:1, t:-1:0.5, z:-1:1"),
                     ("x", "y", "t", "z"))

    def build():
        chart = Chart(("x", "y", "t"), excluded)
        h_pot = ExprField.from_text(section["h"], chart)
        w_pot = ExprField.from_text(section["w"], chart)
        return {"h_pot": h_pot, "w_pot": w_pot, "box": box}

    default = list(DKP_CHECKS)
    if section.get("vacuum", "").lower() in ("true", "1", "yes"):
        default.append("ricci_flat")
    if section.get("vacuum", "").lower() in ("false", "0", "no"):
        default.append("nonvacuum")
    checks = _parse_checks(name, "dkp", section, default)
    return Fixture(name, "dkp", checks, section.get("expect", "pass"), build)


def _ew_fixture(name, section) -> Fixture:
    excluded = _parse_excluded(section.get("exclude", ""))
    box = _parse_box(section.get("box", "x:-1:1, y:-1:1, t:-1:0.5"),
                     ("x", "y", "t"))

    def build():
        chart = Chart(("x", "y", "t"), excluded)
        u = ExprField.from_text(section["u"], chart)
        return {"u": u, "box": box}

    checks = _parse_checks(name, "ew", section, EW_CHECKS)
    return Fixture(name, "ew", checks, section.get("expect", "pass"), build)


def load_config(path) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(path)
    suite = dict(parser["suite"]) if "suite" in parser else {}
    fixtures = []
    tolerances = dict(DEFAULT_TOLERANCES)
    if "tolerances" in parser:
        for key, value in parser["tolerances"].items():
            if key not in tolerances:
                raise ConfigError(f"unknown tolerance key {key!r}")
            tolerances[key] = float(value)
            if tolerances[key] <= 0:
                raise ConfigError(f"tolerance {key} must be positive")
    builders = {"nk": _nk_fixture, "nk_family": _nk_fixture,
                "dkp": _dkp_fixture, "ew": _ew_fixture}
    for section_name in parser.sections():
        if not section_name.startswith("fixture:"):
            continue
        section = parser[section_name]
        name = section_name.split(":", 1)[1]
        kind = section.get("kind", "")
        if kind not in builders:
            raise ConfigError(
                f"[{section_name}] has unknown kind {kind!r} "
                f"(expected one of {sorted(builders)})"
            )
        fixtures.append(builders[kind](name, section))
    if not fixtures:
        raise ConfigError("config declares no [fixture:*] sections")
    return {
        "seed": int(suite.get("seed", "20240")),
        "samples": int(suite.get("samples", "100")),
        "fixtures": fixtures,
        "tolerances": tolerances,
    }


# --- check implementations ------------------------------------------------------

def _run_nk_checks(fixture, payload, plan):
    sol = payload["solution"]
    pts = plan.points()
    results = []
    coframe = nk_coframe(sol.theta)
    metric = nk_metric(sol.theta)
    report = oracle_report(metric, coframe, pts)
    raw = coordinate_curvature(metric, pts)
    from .curvature import check_null_kahler

    nk_report = check_null_kahler(coframe, metric, pts)
    values = {
        "nk1": float(np.max(np.abs(residual_nk1(sol.theta, sol.f).evaluate(pts)))),
        "nk2": float(np.max(np.abs(residual_nk2(sol.theta, sol.f).evaluate(pts)))),
        "sd_weyl": report.max_sd(),
        "scalar": float(np.max(np.abs(report.scalar))),
        "ricci_null": float(np.max(np.abs(raw.ricci_square()))),
        "ricci_flat": float(np.max(np.abs(raw.ricci))),
        "dsigma00": nk_report.d_sigma00,
        "dsigma01": nk_report.d_sigma01,
        "lax": commutator_sweep(sol, count=plan.count, seed=plan.seed),
    }
    for check in fixture.checks:
        results.append((check, values[check], "below"))
    return results


def _run_dkp_checks(fixture, payload, plan):
    h_pot, w_pot, box = payload["h_pot"], payload["w_pot"], payload["box"]
    box3 = Box(box.bounds[:3])
    pts3 = SamplePlan(box3, plan.count, plan.seed).points()
    pts4 = plan.points()
    values = {}
    if "heqn" in fixture.checks:
        values["heqn"] = float(np.max(np.abs(
            dkp_mod.residual_heqn(h_pot).evaluate(pts3))))
    if "lindkp" in fixture.checks:
        values["lindkp"] = float(np.max(np.abs(
            dkp_mod.residual_lindkp(h_pot, w_pot).evaluate(pts3))))
    ew = dkp_mod.ew_from_u(h_pot.deriv(x=1))
    if "ew" in fixture.checks:
        values["ew"] = dkp_mod.ew_residual(ew, pts3)
    if "monopole" in fixture.checks:
        pair = dkp_mod.monopole_from_w(h_pot, w_pot)
        values["monopole"] = dkp_mod.monopole_residual(ew, pair, pts3)
    need_curv = {"dkp_sd_weyl", "dkp_scalar", "ricci_flat", "nonvacuum"}
    metric = dkp_mod.build_metric(h_pot, w_pot, box)
    if need_curv & set(fixture.checks):
        coframe = dkp_coframe(h_pot, w_pot, box)
        report = oracle_report(metric, coframe, pts4)
        raw = coordinate_curvature(metric, pts4)
        values["dkp_sd_weyl"] = report.max_sd()
        values["dkp_scalar"] = float(np.max(np.abs(report.scalar)))
        values["ricci_flat"] = float(np.max(np.abs(raw.ricci)))
        values["nonvacuum"] = float(np.max(np.abs(raw.ricci)))
    if {"dsigma00", "dsigma01"} & set(fixture.checks):
        _, _, _, dsig = dkp_mod.sd_two_forms(h_pot, w_pot, pts4, box)
        values["dsigma00"] = dsig.d_sigma00
        values["dsigma01"] = dsig.d_sigma01
    if "jones_tod" in fixture.checks:
        reduction = dkp_mod.jones_tod_reduce(metric)
        wx2 = (w_pot.deriv(x=1).evaluate(pts3)) ** 2
        gap = reduction.h.evaluate(pts3) + wx2[:, None, None] * ew.h.evaluate(pts3)
        values["jones_tod"] = float(np.max(np.abs(gap)))
    results = []
    for check in fixture.checks:
        require = "above" if check == "nonvacuum" else "below"
        results.append((check, values[check], require))
    return results


def _run_ew_checks(fixture, payload, plan):
    box3 = Box(payload["box"].bounds[:3])
    pts3 = SamplePlan(box3, plan.count, plan.seed).points()
    ew = dkp_mod.ew_from_u(payload["u"])
    return [("ew", dkp_mod.ew_residual(ew, pts3), "below")]


_RUNNERS = {"nk": _run_nk_checks, "dkp": _run_dkp_checks, "ew": _run_ew_checks}


def run_fixture(fixture: Fixture, config) -> list:
    payload = fixture.build()
    box = (payload.get("box") or payload["solution"].box)
    plan = SamplePlan(box, config["samples"], config["seed"])
    scale = config.get("tolerance_scale", 1.0)
    start = time.perf_counter()
    raw_results = _RUNNERS[fixture.kind](fixture, payload, plan)
    wall = (time.perf_counter() - start) * 1000.0
    out = []
    for name, value, require in raw_results:
        tol = config["tolerances"][name] * scale
        passed = value > tol if require == "above" else value <= tol
        out.append(CheckResult(fixture.name, name, float(value), tol,
                               require, bool(passed), wall / len(raw_results)))
    if fixture.expect == "fail":
        # negative control: the fixture passes when something failed
        flipped = not all(r.passed for r in out)
        for r in out:
            r.passed = True
        out.append(CheckResult(fixture.name, "expected_failure",
                               0.0 if flipped else 1.0, 0.5, "below",
                               flipped, 0.0))
    return out


def run_suite(config_path, seed=None, serial=False, out_dir=None,
              tolerance_scale=1.0) -> tuple:
    """Run every fixture's checks; returns (report dict, exit code)."""
    config = load_config(config_path)
    if seed is not None:
        config["seed"] = seed
    config["tolerance_scale"] = tolerance_scale
    fixtures = config["fixtures"]
    if serial:
        per_fixture = [run_fixture(f, config) for f in fixtures]
    else:
        with ThreadPoolExecutor(max_workers=min(4, len(fixtures))) as pool:
            per_fixture = list(pool.map(lambda f: run_fixture(f, config),
                                        fixtures))
    checks = [r for results in per_fixture for r in results]
    passed = sum(1 for c in checks if c.passed)
    report = {
        "schema": SCHEMA_VERSION,
        "seed": config["seed"],
        "samples": config["samples"],
        "tolerance_scale": tolerance_scale,
        "checks": [
            {
                "fixture": c.fixture,
                "name": c.name,
                "max_residual": c.max_residual,
                "tolerance": c.tolerance,
                "require": c.require,
                "pass": c.passed,
            }
            for c in checks
        ],
        "summary": {
            "total": len(checks),
            "passed": passed,
            "failed": len(checks) - passed,
            "pass": passed == len(checks),
        },
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(render_report(report))
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        sys.stdout.write(
            f"{status} {c.fixture}/{c.name}: residual {c.max_residual:.3e} "
            f"({'>' if c.require == 'above' else '<='} {c.tolerance:g}) "
            f"[{c.wall_ms:.0f} ms]\n"
        )
    summary = report["summary"]
    sys.stdout.write(
        f"suite: {summary['passed']}/{summary['total']} checks passed\n"
    )
    return report, (0 if summary["pass"] else 1)


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# --- evolve and export commands ---------------------------------------------------

def _evolve_command(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.mms:
        study = mms_convergence()
        lines = ["# axes: resolution,error,order"]
        orders = study["orders"]
        for k, (n, err) in enumerate(zip(study["resolutions"], study["errors"])):
            order = orders[k - 1] if k > 0 else float("nan")
            lines.append(f"{n},{err:.17g},{order:.17g}")
            sys.stdout.write(f"n = {n:4d}  error = {err:.3e}"
                             + (f"  order = {order:.3f}\n" if k else "\n"))
        (out / "mms_convergence.csv").write_text("\n".join(lines) + "\n")
        return 0

    grid = Grid2D(args.x0, args.x1, args.nx, args.y0, args.y1, args.ny)
    chart = Chart(("x", "y", "t"))
    initial = ExprField.from_text(args.initial, chart)
    boundary = None
    if args.reference:
        boundary = BoundarySource(ExprField.from_text(args.reference, chart))
    xg, yg = grid.mesh()
    pts = np.stack([xg.ravel(), yg.ravel(), np.zeros(xg.size)], axis=-1)
    u0 = initial.evaluate(pts).reshape(xg.shape)
    state = DKPState(grid, u0, 0.0, boundary)
    try:
        states = dkp_evolve(state, args.dt, args.steps,
                            save_every=args.save_every)
    except CFLError as err:
        sys.stderr.write(f"refusing to run: {err}\n")
        return 2
    except BlowUpError as err:
        sys.stderr.write(f"run aborted: {err}\n")
        return 1
    chart2 = Chart(("x", "y"))
    for state in (states if args.save_every else [states[0], states[-1]]):
        spec = GridSpec(((grid.x0, grid.x1, grid.nx),
                         (grid.y0, grid.y1, grid.ny)))
        sampled = SampledField(spec, state.u, chart2)
        grid_to_csv(sampled, out / f"u_t{state.t:.6f}.csv")
    sys.stdout.write(f"wrote {len(states)} snapshots to {out}\n")
    return 0


def _parse_grid_spec(text: str) -> tuple:
    axes, names = [], []
    for part in text.split(","):
        name, lo, hi, count = (p.strip() for p in part.strip().split(":"))
        names.append(name)
        axes.append((float(lo), float(hi), int(count)))
    return tuple(names), GridSpec(tuple(axes))


def _export_command(args) -> int:
    config = load_config(args.config)
    fixture = next((f for f in config["fixtures"] if f.name == args.fixture),
                   None)
    if fixture is None:
        raise ConfigError(f"fixture {args.fixture!r} not found in config")
    if args.quantity not in ("metric", "curvature", "sigma", "ew"):
        raise ConfigError(f"unknown quantity {args.quantity!r}")
    payload = fixture.build()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if fixture.kind == "nk":
        sol = payload["solution"]
        coords = ("w", "z", "x", "y")
        metric = nk_metric(sol.theta)
        coframe = nk_coframe(sol.theta)
    elif fixture.kind == "dkp":
        coords = ("x", "y", "t", "z")
        metric = dkp_mod.build_metric(payload["h_pot"], payload["w_pot"],
                                      payload["box"])
        coframe = dkp_coframe(payload["h_pot"], payload["w_pot"],
                              payload["box"])
    else:
        coords = ("x", "y", "t")
        metric = coframe = None

    names, spec = _parse_grid_spec(args.grid)
    if args.quantity == "metric":
        if metric is None:
            raise ConfigError("ew fixtures export quantity 'ew', not 'metric'")
        for i in range(len(coords)):
            for j in range(i, len(coords)):
                sampled = sample_to_grid(metric.component(i, j), spec)
                grid_to_csv(sampled, out / f"g_{coords[i]}{coords[j]}.csv")
        count = len(coords) * (len(coords) + 1) // 2
        sys.stdout.write(f"wrote {count} metric component grids to {out}\n")
        return 0
    if args.quantity == "curvature":
        pts = spec.meshpoints()
        report = oracle_report(metric, coframe, pts)
        header = ([f"c_asd_{k}" for k in range(5)]
                  + [f"c_sd_{k}" for k in range(5)] + ["scalar"])
        rows = np.concatenate(
            [report.c_asd, report.c_sd, report.scalar[:, None]], axis=1)
        with open(out / "curvature.csv", "w") as handle:
            handle.write("# axes: " + ",".join(header) + "\n")
            for row in rows:
                handle.write(",".join(f"{v:.17g}" for v in row) + "\n")
        sys.stdout.write(f"wrote curvature table to {out}\n")
        return 0
    if args.quantity == "sigma":
        primed, _ = coframe.sigma_fields()
        labels = ("00", "01", "11")
        for label, form in zip(labels, primed):
            for key, comp in form.comps.items():
                tag = "".join(coords[k] for k in key)
                sampled = sample_to_grid(comp, spec)
                grid_to_csv(sampled, out / f"sigma{label}_{tag}.csv")
        sys.stdout.write(f"wrote sigma component grids to {out}\n")
        return 0
    # ew export
    if fixture.kind != "ew":
        raise ConfigError("quantity 'ew' requires an ew fixture")
    ew = dkp_mod.ew_from_u(payload["u"])
    coords3 = ("x", "y", "t")
    for i in range(3):
        for j in range(i, 3):
            sampled = sample_to_grid(ew.h.component(i, j), spec)
            grid_to_csv(sampled, out / f"h_{coords3[i]}{coords3[j]}.csv")
    nu_t = ew.nu.component((2,))
    grid_to_csv(sample_to_grid(nu_t, spec), out / "nu_t.csv")
    sys.stdout.write(f"wrote ew component grids to {out}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullkahler",
        description="residual suites and utilities for split-signature "
                    "null-Kahler geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a fixture/check suite")
    check.add_argument("--config", required=True)
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--serial", action="store_true",
                       help="force the deterministic serial reference mode")
    check.add_argument("--out-dir", default=None)
    check.add_argument("--tolerance-scale", type=float, default=1.0)

    evolve = sub.add_parser("evolve", help="run the dKP evolver")
    evolve.add_argument("--nx", type=int, default=129)
    evolve.add_argument("--ny", type=int, default=129)
    evolve.add_argument("--x0", type=float, default=-1.0)
    evolve.add_argument("--x1", type=float, default=1.0)
    evolve.add_argument("--y0", type=float, default=-1.0)
    evolve.add_argument("--y1", type=float, default=1.0)
    evolve.add_argument("--dt", type=float, default=1e-4)
    evolve.add_argument("--steps", type=int, default=100)
    evolve.add_argument("--initial", default="0")
    evolve.add_argument("--reference", default=None,
                        help="closed-form reference for boundary data")
    evolve.add_argument("--mms", action="store_true",
                        help="manufactured-solution convergence study")
    evolve.add_argument("--save-every", type=int, default=None)
    evolve.add_argument("--out-dir", required=True)

    export = sub.add_parser("export", help="export fixture grids as CSV")
    export.add_argument("--config", required=True)
    export.add_argument("--fixture", required=True)
    export.add_argument("--quantity", required=True,
                        help="metric | curvature | sigma | ew")
    export.add_argument("--grid", required=True,
                        help="per-axis spec, e.g. 'w:-1:1:9,z:-1:1:9,...'")
    export.add_argument("--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            _, code = run_suite(args.config, seed=args.seed,
                                serial=args.serial, out_dir=args.out_dir,
                                tolerance_scale=args.tolerance_scale)
            return code
        if args.command == "evolve":
            return _evolve_command(args)
        if args.command == "export":
            return _export_command(args)
    except (ConfigError, FileNotFoundError, ExpressionError,
            configparser.Error) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except (DegeneracyError, DomainError, EvaluationError) as err:
        sys.stderr.write(f"fixture error: {err}\n")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
