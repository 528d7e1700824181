"""Command-line front end: simulate / billiard / verify / plot.

Every run is reproducible from (config, seed): outputs are CSV (bulk
numbers, 17 significant digits), JSON (summaries) and SVG (figures), all
byte-deterministic.  Exit codes: 0 ok, 1 check failure, 2 config error,
3 numeric singularity.  CONFOCAL_LOG selects the log level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import billiard as bl
from . import lax as lx
from . import svgplot
from .config import (
    _check_tolerances,
    billiard_from_config,
    dump_json,
    fmt,
    initial_states,
    load_config,
    system_from_config,
)
from .dynamics import PhaseState, constraint_residuals, energy, integrate
from .errors import (
    ConfigError,
    ConfocalError,
    EscapeError,
    GrazingOrSingularError,
    MultiplierSingularError,
    PoleError,
    ProjectionError,
    ReductionSingularError,
    SingularAxisError,
)
from .lax import CheckRecord
from .suites import SUITES, _relative_drift, run_suites

log = logging.getLogger("confocal")

_SINGULAR = (GrazingOrSingularError, SingularAxisError, MultiplierSingularError,
             EscapeError, PoleError, ProjectionError, ReductionSingularError)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_SINGULARITY = 3


@dataclass
class RunReport:
    """Per-check records plus the overall pass flag."""

    records: list[CheckRecord]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> dict:
        return {
            "checks": [
                {"name": r.name, "value": r.value, "threshold": r.threshold,
                 "pass": bool(r.passed)}
                for r in self.records
            ],
            "pass": self.ok,
        }


def _write_table(path: Path, header: list[str], rows, as_json: bool) -> None:
    """Write rows of floats (lists, or the rows of a 2-d array) as CSV or JSON."""
    if as_json:
        payload = {"columns": header,
                   "rows": [[fmt(v) for v in row] for row in rows]}
        dump_json(payload, path.with_suffix(".json"))
    else:
        with path.with_suffix(".csv").open("w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(map(fmt, row)) + "\n")


def _diagnostics(sys, traj: PhaseState):
    """The table of a stacked trajectory, its header and its three drifts.

    Columns: t, the state coordinates (Re and Im parts of complex ones), the
    constraint residuals F1.., H and, for a flow with a small Lax pair, the
    integrals f (f-tilde when axes repeat).  Each drift is NaN if any row is.
    """
    header, cols = ["t"], [traj.t[:, None]]
    cplx = np.iscomplexobj(traj.x)
    for tag in ("x", "y", "xi", "eta"):
        arr = getattr(traj, tag)
        if arr is None:
            continue
        n = arr.shape[-1]
        if cplx:
            header += [f"{tag}{i}_{part}" for i in range(n) for part in ("re", "im")]
            cols.append(arr.view(float))
        else:
            header += [f"{tag}{i}" for i in range(n)]
            cols.append(arr)
    res = constraint_residuals(sys, traj)
    H = energy(sys, traj)
    header += [f"F{i+1}" for i in range(res.shape[-1])] + ["H"]
    cols += [res, H[:, None]]
    dH = _relative_drift(H)
    dC = float(np.max(np.abs(res))) if res.size else 0.0
    dF = 0.0
    if lx.has_pair(sys, "small"):
        fam = lx.integral_family(sys, traj)
        F = fam.f if fam.f is not None else fam.ftilde
        header += [f"f{i}" for i in range(F.shape[-1])]
        cols.append(F)
        dF = _relative_drift(F)
    return header, np.concatenate(cols, axis=-1), (dH, dF, dC)


def cmd_simulate(cfg: dict, seed: int, out_dir: Path, as_json: bool) -> int:
    sys_ = system_from_config(cfg)
    states = initial_states(cfg, sys_, seed)
    ic = cfg.get("integrator", {})
    h = ic.get("h", 1e-3)
    T = ic.get("T", 10.0)
    ctol = ic.get("ctol", 1e-9)
    drift_tol = cfg.get("drift_tol", 1e-7)
    summary_runs = []
    worst = 0.0
    for run_idx, s0 in enumerate(states):
        traj = integrate(sys_, s0, T, h, ctol)
        header, table, (dH, dF, dC) = _diagnostics(sys_, traj)
        _write_table(out_dir / f"trajectory_{run_idx}", header, table, as_json)
        d0 = np.max(np.abs(traj.x[-1] - traj.x[0])) + np.max(np.abs(traj.y[-1] - traj.y[0]))
        summary_runs.append({
            "run": run_idx,
            "energy_drift": fmt(dH),
            "integral_drift": fmt(dF),
            "constraint_max": fmt(dC),
            "closure_distance": fmt(float(np.real(d0))),
        })
        worst = float(np.max([worst, dH, dF]))
        log.info("run %d: energy drift %.3e, integral drift %.3e", run_idx, dH, dF)
    dump_json({"kind": sys_.kind, "T": T, "h": h, "drift_tol": drift_tol,
               "runs": summary_runs, "pass": bool(worst <= drift_tol)},
              out_dir / "summary.json")
    return EXIT_OK if worst <= drift_tol else EXIT_CHECK_FAILURE


def cmd_billiard(cfg: dict, seed: int, out_dir: Path, as_json: bool) -> int:
    spec, s0, opts = billiard_from_config(cfg, seed)
    orbit = bl.run_orbit(spec, s0, opts["bounces"])
    n = len(spec.axes)
    header = ["k"] + [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)] + ["J"]
    rows = []
    for s in orbit.impacts:
        rows.append([float(s.k)] + [float(v) for v in s.x] + [float(v) for v in s.y]
                    + [bl.impact_invariant(spec, s)])
    _write_table(out_dir / "impacts", header, rows, as_json)
    caustic_report = bl.orbit_caustics(spec, orbit)
    checks = [
        CheckRecord("caustic-count", 0.0 if caustic_report["count_ok"] else 1.0, 0.5),
        CheckRecord("caustic-drift", caustic_report["caustic_drift"], 1e-7),
        CheckRecord("det-invariance", orbit.det_drift, 1e-8),
        CheckRecord("conjugation-residual", orbit.lax_residual, 1e-6),
    ]
    if caustic_report["tangency_max"] is not None:
        checks.append(CheckRecord("tangency", caustic_report["tangency_max"], 1e-8))
    if opts["oracle_check"]:
        worst = 0.0
        s = s0
        for _ in range(min(opts["bounces"], 100)):
            s_next = bl.jr_step(spec, s)
            s_orc = bl.oracle_step(spec, s)
            worst = float(np.max([worst, np.max(np.abs(s_next.x - s_orc.x)),
                                  np.max(np.abs(s_next.y - s_orc.y))]))
            s = s_next
        checks.append(CheckRecord("map-vs-oracle", worst, opts["oracle_tol"]))
    summary = {
        "axes": list(spec.axes),
        "sigma": spec.sigma,
        "mu": list(spec.mu),
        "bounces": opts["bounces"],
        "caustics": [fmt(v) for v in caustic_report["etas"]],
        "expected_caustic_count": caustic_report["expected_count"],
        "checks": RunReport(checks).to_json()["checks"],
    }
    if opts["poncelet_max"]:
        det = bl.poncelet_detect(spec, s0, opts["poncelet_max"])
        summary["poncelet"] = {
            "period": det["period"],
            "closure_error": None if det["closure_error"] is None
            else fmt(det["closure_error"]),
        }
    report = RunReport(checks)
    summary["pass"] = report.ok
    dump_json(summary, out_dir / "billiard_summary.json")
    for rec in checks:
        log.info("%-24s %s  (%.3e <= %.3e)", rec.name,
                 "pass" if rec.passed else "FAIL", rec.value, rec.threshold)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILURE


def cmd_verify(cfg: dict, seed: int, out_dir: Path, suite_names, overrides) -> int:
    # an explicitly empty selection is a trivially passing (empty) report
    if suite_names is not None:
        names = suite_names
    elif "suites" in cfg:
        names = cfg["suites"]
    else:
        names = list(SUITES)
    tol_overrides = dict(cfg.get("tolerances", {}))
    tol_overrides.update(overrides)
    records = run_suites(names, seed=seed, overrides=tol_overrides)
    report = RunReport(records)
    dump_json(report.to_json(), out_dir / "verify_report.json")
    for rec in records:
        print(f"{'PASS' if rec.passed else 'FAIL'} {rec.name}: "
              f"{rec.value:.3e} (<= {rec.threshold:.3e})")
    print(f"{'PASS' if report.ok else 'FAIL'} verify: "
          f"{sum(r.passed for r in records)}/{len(records)} checks")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILURE


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    try:
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    except (OSError, IndexError, ValueError) as exc:
        raise ConfigError(f"plot: unreadable input table {path}: {exc!r}") from exc
    if any(len(r) != len(header) for r in rows):
        raise ConfigError(f"plot: a row of {path} does not match its header")
    if not np.isfinite(rows).all():
        raise ConfigError(f"plot: {path} has a non-finite cell")
    return header, np.array(rows)


def cmd_plot(cfg: dict, out_dir: Path) -> int:
    pc = cfg.get("plot", {})
    kind = pc.get("kind", "trajectory")
    axes = pc.get("axes")
    caustics = pc.get("caustics", ())
    mu = pc.get("mu")
    if axes is not None and len(axes) < 2:
        raise ConfigError("plot: axes need two entries, one per plotted coordinate")
    if axes is not None and mu is not None and len(mu) != len(axes):
        raise ConfigError(f"plot: mu has {len(mu)} entries for {len(axes)} axes")
    if kind == "domain":
        svg = svgplot.render(axes=axes, mu=mu, title="billiard domain")
    else:
        if "input" not in pc:
            raise ConfigError("plot needs an 'input' table for this kind")
        header, data = _read_table(Path(pc["input"]))
        cols = pc.get("columns", ["x0", "x1"])
        try:
            idx = [header.index(c) for c in cols]
        except ValueError as exc:
            raise ConfigError(f"plot: column not in table: {exc}") from exc
        pts = data[:, idx] if data.size else np.zeros((0, 2))
        if kind == "orbit":
            svg = svgplot.render(axes=axes, mu=mu, chords=pts, caustics=caustics,
                                 title="billiard orbit")
        else:
            svg = svgplot.render(axes=axes, mu=mu, trajectory=pts,
                                 caustics=caustics, title="trajectory")
    (out_dir / "plot.svg").write_text(svg)
    return EXIT_OK


def _parse_tol_overrides(text: str | None) -> dict:
    if not text:
        return {}
    out = {}
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"bad --tol-overrides entry {item!r}, want NAME=VALUE")
        name, val = item.split("=", 1)
        try:
            out[name.strip()] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {item!r}") from exc
    return _check_tolerances(out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="confocal",
        description="flows, Lax pairs and billiards on ellipsoids")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in (("simulate", "integrate a flow and report drifts"),
                        ("billiard", "iterate the bounce map and its invariants"),
                        ("verify", "run the verification suites"),
                        ("plot", "render a trajectory/orbit/domain figure")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=(name != "verify"),
                       help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="bulk output format")
        if name == "verify":
            p.add_argument("--suite", action="append", default=None,
                           help="suite name (repeatable); default: config or all")
            p.add_argument("--tol-overrides", default=None,
                           help="comma-separated NAME=VALUE tolerance overrides")
    return ap


def main(argv=None) -> int:
    level = os.environ.get("CONFOCAL_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        cfg = load_config(args.config) if args.config else {"version": 1}
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        out_cfg = cfg.get("output", {})
        out_dir = Path(args.out or out_cfg.get("dir", "out"))
        out_dir.mkdir(parents=True, exist_ok=True)
        as_json = (args.format or out_cfg.get("format", "csv")) == "json"
        if args.command == "simulate":
            return cmd_simulate(cfg, seed, out_dir, as_json)
        if args.command == "billiard":
            return cmd_billiard(cfg, seed, out_dir, as_json)
        if args.command == "verify":
            overrides = _parse_tol_overrides(args.tol_overrides)
            return cmd_verify(cfg, seed, out_dir, args.suite, overrides)
        if args.command == "plot":
            return cmd_plot(cfg, out_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except _SINGULAR as exc:
        print(f"numeric singularity: {exc}", file=sys.stderr)
        return EXIT_SINGULARITY
    except ConfocalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
