"""Batch driver: run residual suites from a config file, evolve initial
data, and export grids as CSV.

Configs are flat sectioned key-value text (INI).  A ``[suite]`` section
sets the seed and sample count; each ``[fixture:<id>]`` section declares
one fixture by kind (``nk``, ``nk_family``, ``dkp``, ``ew``) with
expression strings, a sampling box, optional excluded bands, an optional
check selection and an ``expect = pass|fail`` label.  Exit codes:
0 suite passed, 1 at least one check failed, 2 usage, config or domain
error (a check name the fixture's kind does not compute, an empty
``checks =`` line or one that names a check twice, an ``expect`` other
than ``pass`` and ``fail``, a ``vacuum`` other than ``true``, ``false``,
``1``, ``0``, ``yes`` and ``no``, a ``box`` or ``exclude`` entry on a
coordinate the fixture does not have, a ``box`` that names a coordinate
twice, a family outside 1..4, a missing expression the fixture's kind
reads, a key that neither its kind nor its family reads, a ``[suite]``
key other than ``seed`` and ``samples``, a seed
that is not an integer at least 0 (in the config or from ``--seed``), a
sample count below 1, a tolerance or ``--tolerance-scale`` that is not a
finite number above 0, a section other than ``[suite]``,
``[tolerances]`` and ``[fixture:*]``, and an expression that does not
parse, reported as ``[fixture:<id>] <key>: ...``, are config errors; a
box that meets an excluded band, declared on the ``exclude`` line or
carried by a solution family's chart, is a fixture error, refused before
any fixture runs).

Each fixture is checked on one sample set: its ``build`` takes the sample
plan on the fixture's box and returns the kind's sample object, which
holds the points, metric and coframe, and computes each quantity that
several checks share (the oracle curvature, the null-Kahler residuals,
the Einstein-Weyl structure, the dKP coframe) once, when the first
selected check reads it; a check that is not selected is not computed.
The same holds inside the oracle curvature: its report computes the
sectors the checks read (the self-dual Weyl spinor and the scalar) when
it is built, and the anti-self-dual spinor, Phi and the Bianchi gap only
when something reads them, which no suite check does.
Both curved kinds check d Sigma^{0'0'} and d Sigma^{0'1'} of
``CoFrame.sigma``, read off the coframe's jet by ``check_null_kahler``,
so ``dsigma01`` measures one quantity on nk and dkp fixtures alike.
Each sample carries one evaluation memo, which every check reads
through, so an expression node is evaluated once per sample set.  A memo
serves the point sets that hold the same values under every coordinate
name a node reads: a dKP sample's (x, y, t) points are the first three
columns of its (x, y, t, z) points, so both share it.  ``export`` reads
its geometry from the same object, and evaluates on its grid without
the memo.  A dKP fixture
builds its metric whatever the selection, so a W_x that vanishes on the
declared box is always a fixture error.

Each check of a kind's table yields its residual per sample point, an
array whose leading axis is the sample.  ``run_fixture`` alone reduces
it to max|r|, judges that against the check's tolerance and writes the
report entry; ``run_suite`` collects the entries unchanged.

Reports are JSON with ``schema: 1`` and are byte-identical across runs
with the same config and seed.  The seed is validated and echoed into
the report, but moves no sample point and no residual yet: no check
draws at random.  The fixtures run one after another;
each fixture's wall time is printed to the console once, never written
into the report.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from functools import cached_property
from pathlib import Path

import numpy as np

from . import dkp as dkp_mod
from .curvature import check_null_kahler, oracle_report
from .expressions import ExpressionError
from .fields import (
    Chart,
    DomainError,
    EvaluationError,
    ExcludedBand,
    ExprField,
    Grid,
    grid_to_csv,
    sample_to_grid,
)
from .geometry import (SYM_PAIRS, DegeneracyError, dkp_coframe, dkp_metric,
                       nk_coframe, nk_metric)
from .nk_system import (FAMILY_EXCLUDED, FAMILY_PARAMS, NKSolution,
                        commutator_sweep, example_family, induced_f,
                        residual_nk1, residual_nk2)
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

#: default check selections, in report order
NK_CHECKS = ("nk1", "nk2", "sd_weyl", "scalar", "ricci_null",
             "dsigma00", "dsigma01", "lax")
DKP_CHECKS = ("heqn", "lindkp", "monopole", "ew", "dkp_sd_weyl",
              "dkp_scalar", "dsigma00", "dsigma01", "jones_tod")
EW_CHECKS = ("ew",)


class ConfigError(ValueError):
    pass


class Fixture:
    def __init__(self, name: str, kind: str, checks: tuple, expect: str,
                 box: Box, build):
        self.name = name
        self.kind = kind
        self.checks = checks
        self.expect = expect
        self.box = box
        self.build = build  # callable(plan) -> the fixture's sample set

    def sample(self, config):
        """The sample set on this fixture's box at the config's count and
        seed; a parse error in one of its expressions names the fixture."""
        try:
            return self.build(SamplePlan(self.box, config["samples"],
                                         config["seed"]))
        except ExpressionError as err:
            raise ExpressionError(f"[fixture:{self.name}] {err}") from None


def _field(section, key, chart) -> ExprField:
    """The expression ``key`` on ``chart``; a parse error names the key."""
    try:
        return ExprField.from_text(section[key], chart)
    except ExpressionError as err:
        raise ExpressionError(f"{key}: {err}") from None


def _parse_axes(text: str, what: str, *kinds) -> list:
    """(name, value, ...) per ``name:value:...`` entry, via ``kinds``."""
    axes = []
    for part in filter(str.strip, text.split(",")):
        name, *values = (p.strip() for p in part.split(":"))
        try:
            if len(values) != len(kinds):
                raise ValueError(f"expected {len(kinds)} values after the name")
            axes.append((name, *(kind(v) for kind, v in zip(kinds, values))))
        except ValueError as err:
            raise ConfigError(
                f"malformed {what} entry {part.strip()!r}: {err}") from None
    return axes


def _parse_domain(name, section, default_box, names, implied=()) -> tuple:
    """The fixture's box and the bands of its ``exclude`` line.  Each box
    and exclude entry names one of the coordinates ``names``, and the box
    names each of them once; a box that meets one of those bands, or of
    the ``implied`` bands its chart will carry, is a fixture error."""
    where = f"[fixture:{name}]"
    box_axes = _parse_axes(section.get("box", default_box), "box", float, float)
    band_axes = _parse_axes(section.get("exclude", ""), "exclude", float)
    for what, axes in (("box", box_axes), ("exclude", band_axes)):
        unknown = [axis[0] for axis in axes if axis[0] not in names]
        if unknown:
            raise ConfigError(f"{where} {what} names {unknown}, which are not "
                              f"among its coordinates {list(names)}")
    box_names = [axis[0] for axis in box_axes]
    repeated = sorted({n for n in box_names if box_names.count(n) > 1})
    if repeated:
        raise ConfigError(f"{where} box names {repeated} more than once")
    missing = [n for n in names if n not in box_names]
    if missing:
        raise ConfigError(f"{where} box is missing coordinates {missing}")
    bounds = {axis[0]: axis[1:] for axis in box_axes}
    try:
        box = Box(tuple(bounds[n] for n in names))
    except ValueError as err:
        raise ConfigError(f"{where} box: {err}") from None
    excluded = tuple(ExcludedBand(*axis) for axis in band_axes)
    for band in excluded + implied:
        lo, hi = box.bounds[names.index(band.coord)]
        if max(lo, band.center - band.half_width) \
                < min(hi, band.center + band.half_width):
            raise DomainError(
                f"{where} box {band.coord}:{lo:g}:{hi:g} meets the "
                f"excluded band |{band.coord} - {band.center:g}| < "
                f"{band.half_width:g}")
    return box, excluded


def _parse_checks(name, kind, section, default) -> tuple:
    checks = tuple(c.strip() for c in section.get(
        "checks", ", ".join(default)).split(",") if c.strip())
    if not checks:
        raise ConfigError(f"[fixture:{name}] has an empty checks line")
    repeated = sorted({c for c in checks if checks.count(c) > 1})
    if repeated:
        raise ConfigError(f"[fixture:{name}] names checks {repeated} more "
                          "than once")
    unknown = [c for c in checks if c not in KIND_CHECKS[kind]]
    if unknown:
        raise ConfigError(
            f"[fixture:{name}] has checks {unknown} that kind {kind!r} "
            f"does not compute (expected some of {list(KIND_CHECKS[kind])})"
        )
    return checks


#: keys every fixture section may set, whatever its kind
_COMMON_KEYS = ("kind", "box", "exclude", "checks", "expect")


def _check_keys(name, section, required, optional=()) -> None:
    """Refuse a fixture that lacks a key its build reads, or that sets a
    key nothing reads (a misspelt name, or one another kind or family
    reads), so a config cannot check other than what it states."""
    missing = [key for key in required if key not in section]
    if missing:
        raise ConfigError(f"[fixture:{name}] needs {', '.join(missing)}")
    allowed = {key.lower() for key in _COMMON_KEYS + required + optional}
    unread = sorted(set(section) - allowed)
    if unread:
        raise ConfigError(f"[fixture:{name}] sets {unread}, which it never "
                          f"reads (expected some of {sorted(allowed)})")


def _family(name, section) -> int:
    try:
        family = int(section["family"])
    except (KeyError, ValueError):
        family = None
    if family not in FAMILY_PARAMS:
        raise ConfigError(f"[fixture:{name}] needs an integer family = 1..4")
    return family


def _nk_fixture(name, section) -> Fixture:
    if section.get("kind") == "nk_family":
        family = _family(name, section)
        required, optional = FAMILY_PARAMS[family]
        _check_keys(name, section, required, ("family",) + optional)
        params = {key: section[key] for key in required + optional
                  if key in section}
    else:
        family = None
        _check_keys(name, section, ("theta",), ("f",))
    box, excluded = _parse_domain(name, section,
                                  "w:-1:1, z:-1:1, x:-1:1, y:-1:1",
                                  ("w", "z", "x", "y"),
                                  FAMILY_EXCLUDED.get(family, ()))

    def build(plan):
        if family is not None:
            solution = example_family(family, params, box)
            # the family's own bands, then the declared ones
            chart = Chart(solution.theta.chart.coords,
                          solution.theta.chart.excluded + excluded)
            return NKSample(NKSolution(solution.theta.on_chart(chart),
                                       solution.f.on_chart(chart), box), plan)
        chart = Chart(("w", "z", "x", "y"), excluded)
        theta = _field(section, "theta", chart)
        f = _field(section, "f", chart) if section.get("f") else induced_f(theta)
        return NKSample(NKSolution(theta, f, box), plan)

    checks = _parse_checks(name, "nk", section, NK_CHECKS)
    return Fixture(name, "nk", checks, section.get("expect", "pass"), box,
                   build)


def _dkp_fixture(name, section) -> Fixture:
    _check_keys(name, section, ("H", "W"), ("vacuum",))
    box, excluded = _parse_domain(name, section,
                                  "x:-1:1, y:-1:1, t:-1:0.5, z:-1:1",
                                  ("x", "y", "t", "z"))

    def build(plan):
        chart = Chart(("x", "y", "t"), excluded)
        return DKPSample(_field(section, "H", chart),
                         _field(section, "W", chart), plan)

    default = list(DKP_CHECKS)
    vacuum = section.get("vacuum", "").lower()
    if vacuum in ("true", "1", "yes"):
        default.append("ricci_flat")
    elif vacuum in ("false", "0", "no"):
        default.append("nonvacuum")
    elif "vacuum" in section:
        raise ConfigError(f"[fixture:{name}] vacuum = {section['vacuum']!r} "
                          "is not one of true, false, 1, 0, yes, no")
    checks = _parse_checks(name, "dkp", section, default)
    return Fixture(name, "dkp", checks, section.get("expect", "pass"), box,
                   build)


def _ew_fixture(name, section) -> Fixture:
    _check_keys(name, section, ("u",))
    box, excluded = _parse_domain(name, section, "x:-1:1, y:-1:1, t:-1:0.5",
                                  ("x", "y", "t"))

    def build(plan):
        chart = Chart(("x", "y", "t"), excluded)
        return EWSample(_field(section, "u", chart), plan)

    checks = _parse_checks(name, "ew", section, EW_CHECKS)
    return Fixture(name, "ew", checks, section.get("expect", "pass"), box,
                   build)


def _suite_int(suite, key, default, minimum=None) -> int:
    text = suite.get(key, str(default))
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"[suite] {key} = {text!r} is not an integer") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"[suite] {key} must be at least {minimum}")
    return value


def _positive(what, text) -> float:
    """``text`` as a finite number above 0: a tolerance that is nan fails
    every check, and one that is inf passes every check."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{what} = {text!r} is not a number") from None
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{what} must be finite and positive, got {text!r}")
    return value


def load_config(path) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(path)
    for section_name in parser.sections():
        if (section_name not in ("suite", "tolerances")
                and not section_name.startswith("fixture:")):
            raise ConfigError(f"unknown section [{section_name}] (expected "
                              "[suite], [tolerances] or [fixture:<id>])")
    suite = dict(parser["suite"]) if "suite" in parser else {}
    unknown = sorted(set(suite) - {"seed", "samples"})
    if unknown:
        raise ConfigError(f"[suite] sets {unknown}; it reads only seed and "
                          "samples")
    seed = _suite_int(suite, "seed", 20240, minimum=0)
    samples = _suite_int(suite, "samples", 100, minimum=1)
    fixtures = []
    tolerances = dict(DEFAULT_TOLERANCES)
    if "tolerances" in parser:
        for key, value in parser["tolerances"].items():
            if key not in tolerances:
                raise ConfigError(f"unknown tolerance key {key!r}")
            tolerances[key] = _positive(f"tolerance {key}", value)
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
        expect = section.get("expect", "pass")
        if expect not in ("pass", "fail"):
            raise ConfigError(f"[{section_name}] expect = {expect!r} is "
                              "neither pass nor fail")
        fixtures.append(builders[kind](name, section))
    if not fixtures:
        raise ConfigError("config declares no [fixture:*] sections")
    return {
        "seed": seed,
        "samples": samples,
        "fixtures": fixtures,
        "tolerances": tolerances,
    }


# --- sample sets and check tables ----------------------------------------------

def _max_abs(values) -> float:
    return float(np.abs(values).max())


class _CurvedSample:
    """Sample set with a four-metric and a coframe: one oracle pass.

    ``memo`` is the evaluation memo of ``points`` (see ``expressions``):
    every check of the sample evaluates at ``points`` through it, so an
    expression node that several checks read is evaluated once per
    sample set.  It belongs to these points, and to point sets with the
    same values under every coordinate name a node reads; a check at
    other points (an export grid) takes none.
    """

    @cached_property
    def oracle(self):
        return oracle_report(self.metric, self.coframe, self.points, self.memo)

    @cached_property
    def dsigma(self):
        return check_null_kahler(self.coframe, self.points, self.memo)


class NKSample(_CurvedSample):
    """An nk fixture's points with their memo, and the metric and coframe
    of theta."""

    def __init__(self, solution, plan):
        self.solution = solution
        self.theta, self.f = solution.theta, solution.f
        self.points = plan.points()
        self.memo = {}
        self.metric = nk_metric(self.theta)
        self.coframe = nk_coframe(self.theta)


class DKPSample(_CurvedSample):
    """A dkp fixture's points on (x, y, t, z) and on (x, y, t), with one
    evaluation memo for both: they hold the same values under every
    coordinate name a node reads."""

    def __init__(self, h, w, plan):
        self.h, self.w = h, w
        self.points = plan.points()
        # Halton column k is the k-th prime's in any dimension
        self.points3 = self.points[:, :3]
        self.memo = {}
        # built whatever the selection: it rejects a vanishing W_x
        self.metric = dkp_metric(h, w, plan.box)

    @cached_property
    def coframe(self):
        # W_x was checked on the same box when the metric was built
        return dkp_coframe(self.h, self.w)

    @cached_property
    def ew(self):
        return dkp_mod.ew_from_u(self.h.differentiate("x"))


class EWSample:
    """An ew fixture's points on (x, y, t) and their evaluation memo,
    under a dkp sample's names (``points3``, ``memo``), and its
    Einstein-Weyl structure."""

    def __init__(self, u, plan):
        self.points3 = plan.points()
        self.memo = {}
        self.ew = dkp_mod.ew_from_u(u)


def _jones_tod_gap(s):
    """h of the Jones-Tod reduction against -W_x^2 times the EW h."""
    h = dkp_mod.jones_tod_reduce(s.metric)
    wx2 = s.w.differentiate("x").evaluate(s.points3, s.memo) ** 2
    return (h.evaluate(s.points3, s.memo)
            + wx2[:, None, None] * s.ew.h.evaluate(s.points3, s.memo))


#: per check, its residual at each sample point (leading axis)
NK_TABLE = {
    "nk1": lambda s: residual_nk1(s.theta, s.f).evaluate(s.points, s.memo),
    "nk2": lambda s: residual_nk2(s.theta, s.f).evaluate(s.points, s.memo),
    "sd_weyl": lambda s: s.oracle.c_sd,
    "scalar": lambda s: s.oracle.scalar,
    "ricci_null": lambda s: s.oracle.raw.ricci_square(),
    "dsigma00": lambda s: s.dsigma[0],
    "dsigma01": lambda s: s.dsigma[1],
    "lax": lambda s: commutator_sweep(s.solution, s.points, s.memo),
    "ricci_flat": lambda s: s.oracle.raw.ricci,
}

DKP_TABLE = {
    "heqn": lambda s: dkp_mod.residual_heqn(s.h).evaluate(s.points3, s.memo),
    "lindkp": lambda s: dkp_mod.residual_lindkp(s.h, s.w).evaluate(
        s.points3, s.memo),
    "monopole": lambda s: dkp_mod.monopole_residual(
        s.ew, dkp_mod.monopole_from_w(s.h, s.w), s.points3, s.memo),
    "ew": lambda s: dkp_mod.ew_residual(s.ew, s.points3, s.memo),
    "dkp_sd_weyl": lambda s: s.oracle.c_sd,
    "dkp_scalar": lambda s: s.oracle.scalar,
    "dsigma00": lambda s: s.dsigma[0],
    "dsigma01": lambda s: s.dsigma[1],
    "jones_tod": _jones_tod_gap,
    "ricci_flat": lambda s: s.oracle.raw.ricci,
    "nonvacuum": lambda s: s.oracle.raw.ricci,  # required above
}

#: per kind, the checks its sample set computes
_TABLES = {"nk": NK_TABLE, "dkp": DKP_TABLE, "ew": {"ew": DKP_TABLE["ew"]}}

#: every check a fixture kind computes, selectable with ``checks =``
KIND_CHECKS = {kind: tuple(table) for kind, table in _TABLES.items()}


def _entry(fixture, name, max_residual, tolerance, require, passed) -> dict:
    return {"fixture": fixture, "name": name, "max_residual": max_residual,
            "tolerance": tolerance, "require": require, "pass": passed}


def run_fixture(fixture: Fixture, config) -> list:
    """The fixture's report entries: one per selected check, then, for a
    negative control, its ``expected_failure`` entry.  Each check's
    residual is reduced to max|r| here and nowhere else."""
    sample = fixture.sample(config)
    scale = config.get("tolerance_scale", 1.0)
    table = _TABLES[fixture.kind]
    out = []
    for name in fixture.checks:
        value = _max_abs(table[name](sample))
        require = "above" if name == "nonvacuum" else "below"
        tol = config["tolerances"][name] * scale
        passed = value > tol if require == "above" else value <= tol
        out.append(_entry(fixture.name, name, value, tol, require, passed))
    if fixture.expect == "fail":
        # negative control: the fixture passes when something failed
        flipped = not all(entry["pass"] for entry in out)
        for entry in out:
            entry["pass"] = True
        out.append(_entry(fixture.name, "expected_failure",
                          0.0 if flipped else 1.0, 0.5, "below", flipped))
    return out


def run_suite(config_path, seed=None, serial=False, out_dir=None,
              tolerance_scale=1.0) -> tuple:
    """Run every fixture's checks; returns (report dict, exit code).

    The fixtures always run one after another in this thread; ``serial``
    is accepted for compatibility and changes nothing.
    """
    config = load_config(config_path)
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"seed must be at least 0, got {seed}")
        config["seed"] = seed
    config["tolerance_scale"] = _positive("tolerance scale", tolerance_scale)
    per_fixture = []
    for fixture in config["fixtures"]:
        start = time.perf_counter()
        entries = run_fixture(fixture, config)
        per_fixture.append((fixture.name, entries,
                            (time.perf_counter() - start) * 1000.0))
    checks = [entry for _, entries, _ in per_fixture for entry in entries]
    passed = sum(entry["pass"] for entry in checks)
    report = {
        "schema": SCHEMA_VERSION,
        "seed": config["seed"],
        "samples": config["samples"],
        "tolerance_scale": tolerance_scale,
        "checks": checks,
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
    for name, entries, wall_ms in per_fixture:
        sys.stdout.write(f"fixture {name} [{wall_ms:.0f} ms]\n")
        for c in entries:
            sys.stdout.write(
                f"{'PASS' if c['pass'] else 'FAIL'} {c['fixture']}/{c['name']}: "
                f"residual {c['max_residual']:.3e} "
                f"({'>' if c['require'] == 'above' else '<='} "
                f"{c['tolerance']:g})\n"
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
    # the evolver loads here, so a process that only checks suites does
    # not compile it
    from .evolver import (EVOLVER_CHART, BlowUpError, CFLError, DKPState,
                          dkp_evolve, mms_convergence, saved_steps,
                          uniform_reference)

    if args.mms:
        # the study sets its own grids and steps: refuse a flag it ignores
        plain = build_parser().parse_args(["evolve", "--mms",
                                           "--out-dir", args.out_dir])
        ignored = ["--" + key.replace("_", "-") for key, value
                   in vars(args).items() if value != getattr(plain, key)]
        if ignored:
            raise ConfigError(f"--mms runs its own grids and steps, so it "
                              f"would ignore {', '.join(ignored)}")
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
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

    try:
        saved = saved_steps(args.dt, args.steps, args.save_every)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    names = [f"u_t{k * args.dt:.6f}.csv" for k in saved]
    if len(set(names)) < len(names):
        raise ConfigError("saved times closer than 1e-6 would share a "
                          "snapshot name: raise --dt or --save-every")
    if args.log is not None and not Path(args.log).parent.is_dir():
        raise ConfigError(f"no directory for --log {args.log}")
    initial = ExprField.from_text(args.initial, EVOLVER_CHART)
    boundary = uniform_reference(args.reference) if args.reference else None
    try:
        grid = Grid(args.x0, args.x1, args.nx, args.y0, args.y1, args.ny)
        state = DKPState(grid, initial.evaluate_axes(*grid.axes(), 0.0), 0.0,
                         boundary)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    try:
        states = dkp_evolve(state, args.dt, args.steps,
                            save_every=args.save_every)
    except CFLError as err:
        sys.stderr.write(f"refusing to run: {err}\n")
        return 2
    except BlowUpError as err:
        sys.stderr.write(f"run aborted: {err}\n")
        return 1
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for state, name in zip(states, names):
        grid_to_csv(grid, state.u, ("x", "y"), out / name)
    if args.log is not None:
        _write_step_log(args.log, states, args.dt)
    sys.stdout.write(f"wrote {len(states)} snapshots to {out}\n")
    return 0


def _write_step_log(path, states, dt) -> None:
    """One CSV row per returned state: t, dt, the CFL margin
    dt / cfl_bound, max|u| and max|u - u*| on the ring (0 in free mode)."""
    from .evolver import cfl_bound

    ring = states[0].grid.ring()
    lines = ["t,dt,cfl_margin,max_abs_u,ring_mismatch"]
    for state in states:
        mismatch = 0.0
        if state.boundary is not None:
            exact = state.boundary.u_on(*state.grid.axes(), state.t)
            mismatch = _max_abs((state.u - exact)[ring])
        lines.append(",".join(f"{v:.17g}" for v in (
            state.t, dt, dt / cfl_bound(state), _max_abs(state.u), mismatch)))
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_grid_spec(text: str, coords) -> Grid:
    """The export grid; its axes must be ``coords``, in order."""
    axes = _parse_axes(text, "grid", float, float, int)
    names = [name for name, *_ in axes]
    if names != list(coords):
        raise ConfigError(f"grid axes {names} must be the fixture's "
                          f"coordinates {list(coords)}, in order")
    try:
        return Grid(*(value for axis in axes for value in axis[1:]))
    except ValueError as err:
        raise ConfigError(f"grid {text!r}: {err}") from None


def _export_command(args) -> int:
    config = load_config(args.config)
    fixture = next((f for f in config["fixtures"] if f.name == args.fixture),
                   None)
    if fixture is None:
        raise ConfigError(f"fixture {args.fixture!r} not found in config")
    if args.quantity not in ("metric", "curvature", "sigma", "ew"):
        raise ConfigError(f"unknown quantity {args.quantity!r}")
    if (args.quantity == "ew") != (fixture.kind == "ew"):
        raise ConfigError(f"quantity {args.quantity!r} does not apply to "
                          f"{fixture.kind} fixtures")
    sample = fixture.sample(config)
    coords = (dkp_mod.EW_CHART.coords if fixture.kind == "ew"
              else sample.metric.chart.coords)

    grid = _parse_grid_spec(args.grid, coords)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.quantity == "metric":
        for i in range(len(coords)):
            for j in range(i, len(coords)):
                component = sample.metric.component(i, j)
                grid_to_csv(grid, sample_to_grid(component, grid), coords,
                            out / f"g_{coords[i]}{coords[j]}.csv")
        count = len(coords) * (len(coords) + 1) // 2
        sys.stdout.write(f"wrote {count} metric component grids to {out}\n")
        return 0
    if args.quantity == "curvature":
        pts = np.stack([axis.ravel() for axis in grid.mesh()], axis=-1)
        report = oracle_report(sample.metric, sample.coframe, pts)
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
        for i, j in SYM_PAIRS:
            for key, comp in sample.coframe.sigma(i, j).comps.items():
                tag = "".join(coords[k] for k in key)
                grid_to_csv(grid, sample_to_grid(comp, grid), coords,
                            out / f"sigma{i}{j}_{tag}.csv")
        sys.stdout.write(f"wrote sigma component grids to {out}\n")
        return 0
    for i in range(3):
        for j in range(i, 3):
            component = sample.ew.h.component(i, j)
            grid_to_csv(grid, sample_to_grid(component, grid), coords,
                        out / f"h_{coords[i]}{coords[j]}.csv")
    nu_t = sample.ew.nu.component((2,))
    grid_to_csv(grid, sample_to_grid(nu_t, grid), coords, out / "nu_t.csv")
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
    check.add_argument("--seed", type=int, default=None,
                       help="validated and echoed into the report; moves "
                            "no sample point and no residual yet")
    check.add_argument("--serial", action="store_true",
                       help="accepted for compatibility: the checks always "
                            "run serially")
    check.add_argument("--out-dir", default=None)
    check.add_argument("--tolerance-scale", type=float, default=1.0)

    evolve = sub.add_parser("evolve", help="run the dKP evolver")
    evolve.add_argument("--nx", type=int, default=129)
    evolve.add_argument("--ny", type=int, default=129)
    evolve.add_argument("--x0", type=float, default=-1.0)
    evolve.add_argument("--x1", type=float, default=1.0)
    evolve.add_argument("--y0", type=float, default=-1.0)
    evolve.add_argument("--y1", type=float, default=1.0)
    evolve.add_argument("--dt", type=float, default=1e-4,
                        help="fixed time step; ARS(2,3,3) treats the "
                             "non-local term implicitly, so dt needs only "
                             "the advective bound, a multiple of "
                             "min(dx, dy^2/dx) / (1 + max|u|), checked "
                             "before the run")
    evolve.add_argument("--steps", type=int, default=100)
    evolve.add_argument("--initial", default="0")
    evolve.add_argument("--reference", default=None,
                        help="closed-form reference for boundary data")
    evolve.add_argument("--mms", action="store_true",
                        help="manufactured-solution convergence study on "
                             "its own grids and steps; refuses the grid, "
                             "step, data and --log flags")
    evolve.add_argument("--save-every", type=int, default=None)
    evolve.add_argument("--out-dir", required=True)
    evolve.add_argument("--log", default=None,
                        help="CSV step log, one row per snapshot: t, dt, "
                             "CFL margin, max|u|, ring mismatch")

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
