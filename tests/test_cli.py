import contextlib
import json
import math
import signal

import numpy as np
import pytest

import confocal.lax
from confocal.cli import main
from confocal.config import dump_json, fmt, initial_states, load_config, system_from_config
from confocal.dynamics import PhaseState, constraint_residuals, energy, integrate
from confocal.errors import ConfigError
from confocal.suites import SUITES, run_suites
from confocal.svgplot import render


def write(path, text):
    path.write_text(text)
    return str(path)


@contextlib.contextmanager
def within_seconds(seconds):
    """Fail a block that runs longer than `seconds` instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


SPHERE = """\
version: 1
seed: 3
system:
  kind: jacobi
  axes: [1.0, 1.0, 1.0]
  sigma: 0.0
initial:
  x: [1.0, 0.0, 0.0]
  y: [0.0, 1.0, 0.0]
integrator: {{h: 1.0e-3, T: {T}}}
output: {{dir: {out}}}
"""


# ---------------------------------------------------------------------------
# reference: simulate's per-state loop and table writer, which the stacked
# diagnostics replaced; the two must write the same bytes.  The loop reads the
# trajectory row by row and calls energy, constraint_residuals and
# integral_family on one state at a time; tests/test_lax.py pins those calls
# to the one-state formulas they replaced
# ---------------------------------------------------------------------------

def _rows(traj):
    """The rows of a stacked trajectory, as one-state PhaseStates."""
    for k in range(len(traj.t)):
        yield PhaseState(traj.x[k], traj.y[k], traj.t[k],
                         None if traj.xi is None else traj.xi[k],
                         None if traj.eta is None else traj.eta[k])


def _state_columns(s):
    names, vals = [], []
    if np.iscomplexobj(s.x):
        for tag, arr in (("x", s.x), ("y", s.y)):
            for i, v in enumerate(arr):
                names += [f"{tag}{i}_re", f"{tag}{i}_im"]
                vals += [float(v.real), float(v.imag)]
    else:
        for tag, arr in (("x", s.x), ("y", s.y)):
            for i, v in enumerate(arr):
                names.append(f"{tag}{i}")
                vals.append(float(v))
        if s.xi is not None:
            for tag, arr in (("xi", s.xi), ("eta", s.eta)):
                for i, v in enumerate(arr):
                    names.append(f"{tag}{i}")
                    vals.append(float(v))
    return names, vals


def _write_table_reference(path, header, rows, as_json):
    if as_json:
        payload = {"columns": header,
                   "rows": [[fmt(v) for v in row] for row in rows]}
        dump_json(payload, path.with_suffix(".json"))
    else:
        lines = [",".join(header)]
        lines.extend(",".join(fmt(v) for v in row) for row in rows)
        path.with_suffix(".csv").write_text("\n".join(lines) + "\n")


def simulate_per_state(cfg, seed, out_dir, as_json):
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
        fam0 = (confocal.lax.integral_family(sys_, s0)
                if sys_.kind != "free_oscillator" else None)
        f0 = None
        if fam0 is not None:
            f0 = fam0.f if fam0.f is not None else fam0.ftilde
        H0 = energy(sys_, s0)
        header = None
        rows = []
        dH = dF = dC = 0.0
        for s in _rows(traj):
            cols, vals = _state_columns(s)
            res = constraint_residuals(sys_, s)
            hval = energy(sys_, s)
            fvals = []
            if fam0 is not None:
                fam = confocal.lax.integral_family(sys_, s)
                fv = fam.f if fam.f is not None else fam.ftilde
                fvals = [float(v) for v in fv]
                dF = float(np.max([dF] + [abs(v - v0) / max(abs(v0), 1e-3)
                                          for v, v0 in zip(fv, f0)]))
            if header is None:
                header = (["t"] + cols + [f"F{i+1}" for i in range(res.size)]
                          + ["H"] + [f"f{i}" for i in range(len(fvals))])
            rows.append([s.t] + vals + [float(r) for r in res] + [hval] + fvals)
            dH = float(np.maximum(dH, abs(hval - H0) / max(abs(H0), 1e-3)))
            if res.size:
                dC = float(np.maximum(dC, np.max(np.abs(res))))
        _write_table_reference(out_dir / f"trajectory_{run_idx}", header, rows, as_json)
        d0 = np.max(np.abs(traj.x[-1] - traj.x[0])) + np.max(np.abs(traj.y[-1] - traj.y[0]))
        summary_runs.append({
            "run": run_idx,
            "energy_drift": fmt(dH),
            "integral_drift": fmt(dF),
            "constraint_max": fmt(dC),
            "closure_distance": fmt(float(np.real(d0))),
        })
        worst = float(np.max([worst, dH, dF]))
    dump_json({"kind": sys_.kind, "T": T, "h": h, "drift_tol": drift_tol,
               "runs": summary_runs, "pass": bool(worst <= drift_tol)},
              out_dir / "summary.json")
    return 0 if worst <= drift_tol else 1


# one system of every kind, a symmetric-axes one (the f-tilde columns), and
# the JSON table format
REFERENCE_CASES = [
    ("jacobi", "{kind: jacobi, axes: [1.0, 2.0, 3.0], sigma: 0.5}", "csv"),
    ("double_jacobi", "{kind: double_jacobi, axes: [1.0, 2.0, 3.0], sigma: 0.3}", "csv"),
    ("complex_jacobi", "{kind: complex_jacobi, axes: [1.0, 2.0, 3.0], sigma: 0.4}", "csv"),
    ("jacobi_rosochatius", "{kind: jacobi_rosochatius, axes: [1.0, 2.0, 3.0], "
     "sigma: 0.4, mu: [0.2, 0.0, 0.3]}", "csv"),
    ("separable_hierarchy", "{kind: separable_hierarchy, axes: [1.0, 2.0, 3.0], "
     "sigmas: [0.5, -0.3, 0.2], mu: [0.3, 0.0, 0.25]}", "csv"),
    ("free_oscillator", "{kind: free_oscillator, axes: [2.0, 1.0], sigma: 4.0}", "csv"),
    ("free_jr", "{kind: free_jr, axes: [2.0, 1.0, 0.5], sigma: 0.5, mu: [0.0, 0.3, 0.0]}",
     "csv"),
    ("rosochatius-sym22", "{kind: jacobi_rosochatius, axes: [1.3, 1.3, 2.9, 2.9], "
     "sigma: 0.3, mu: [0.3, 0.2, 0.25, 0.15]}", "csv"),
    ("rosochatius-json", "{kind: jacobi_rosochatius, axes: [1.0, 2.0, 3.0], "
     "sigma: 0.4, mu: [0.2, 0.0, 0.3]}", "json"),
]


class TestSimulate:
    @pytest.mark.parametrize("system,table", [c[1:] for c in REFERENCE_CASES],
                             ids=[c[0] for c in REFERENCE_CASES])
    def test_stacked_diagnostics_match_the_per_state_loop(self, tmp_path, system, table):
        cfg_path = write(tmp_path / "cfg.yaml", f"""\
version: 1
seed: 1
system: {system}
initial: {{random: {{count: 1}}}}
integrator: {{h: 1.0e-3, T: 0.5}}
""")
        got, want = tmp_path / "got", tmp_path / "want"
        want.mkdir()
        code = simulate_per_state(load_config(cfg_path), 1, want, table == "json")
        assert main(["simulate", "--config", cfg_path, "--out", str(got),
                     "--format", table]) == code
        for name in (f"trajectory_0.{table}", "summary.json"):
            assert (got / name).read_bytes() == (want / name).read_bytes()

    def test_integral_family_runs_once_per_trajectory(self, tmp_path, monkeypatch):
        real, calls = confocal.lax.integral_family, []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(confocal.lax, "integral_family", counted)
        cfg = write(tmp_path / "cfg.yaml", """\
version: 1
system: {kind: jacobi_rosochatius, axes: [1.0, 2.0, 3.0], sigma: 0.4, mu: [0.2, 0.0, 0.3]}
initial: {random: {count: 2}}
integrator: {h: 1.0e-3, T: 0.1}
""")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(calls) == 2

    def test_sphere_geodesic_period_return(self, tmp_path):
        cfg = write(tmp_path / "cfg.yaml",
                    SPHERE.format(T=2 * math.pi, out=tmp_path / "out"))
        assert main(["simulate", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert float(summary["runs"][0]["closure_distance"]) < 1e-8
        csv = (tmp_path / "out" / "trajectory_0.csv").read_text().splitlines()
        assert csv[0].split(",")[:4] == ["t", "x0", "x1", "x2"]

    def test_random_states_conserve_family(self, tmp_path):
        cfg = write(tmp_path / "cfg.yaml", f"""\
version: 1
seed: 11
system:
  kind: jacobi
  axes: [1.0, 2.0, 3.0]
  sigma: 0.5
initial:
  random: {{count: 2}}
integrator: {{h: 1.0e-3, T: 2.0}}
output: {{dir: {tmp_path/'out'}}}
""")
        assert main(["simulate", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["pass"]
        for run in summary["runs"]:
            assert float(run["integral_drift"]) < 1e-7

    def test_negative_axes_rejected_with_field_path(self, tmp_path, capsys):
        cfg = write(tmp_path / "bad.yaml", """\
version: 1
system:
  kind: jacobi
  axes: [1.0, -2.0]
""")
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "system/axes" in err

    def test_charges_on_a_chargeless_kind_are_a_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.yaml", """\
version: 1
system: {kind: jacobi, axes: [1.0, 2.0, 3.0], sigma: 0.4, mu: [0.2, 0.0, 0.3]}
""")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "takes no charges" in err and "Traceback" not in err

    @pytest.mark.parametrize("system,msg", [
        ("{kind: jacobi, axes: [1.0, 2.0, 3.0], sigmas: [9, 9]}", "not weights sigmas"),
        ("{kind: separable_hierarchy, axes: [1.0, 2.0, 3.0], sigmas: [0.5], sigma: 5.0}",
         "not sigma"),
    ], ids=["sigmas-on-jacobi", "sigma-on-hierarchy"])
    def test_force_field_the_kind_ignores_is_a_config_error(self, tmp_path, capsys,
                                                            system, msg):
        # a force field the kind does not read must not be dropped silently
        cfg = write(tmp_path / "cfg.yaml", f"""\
version: 1
system: {system}
integrator: {{h: 1.0e-3, T: 0.01}}
""")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert msg in err and "Traceback" not in err

    def test_charged_draw_squashed_onto_its_axis_is_a_singularity(self, tmp_path, capsys):
        # on tiny axes every rescaled draw puts a charged coordinate under
        # 0.05, so the bounded redraw must give up with exit 3
        cfg = write(tmp_path / "cfg.yaml", """\
version: 1
system: {kind: jacobi_rosochatius, axes: [0.001, 0.002, 0.003], mu: [0.2, 0, 0.3]}
integrator: {h: 1.0e-3, T: 0.01}
""")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "0.05 off their axes" in err and "Traceback" not in err

    def test_double_flow_momenta_past_the_multiplier_bound_are_a_singularity(
            self, tmp_path, capsys):
        # at sigma 20 no momentum draw keeps |multiplier| <= 8
        cfg = write(tmp_path / "cfg.yaml", """\
version: 1
system: {kind: double_jacobi, axes: [1.0, 2.0, 3.0], sigma: 20.0}
integrator: {h: 1.0e-3, T: 0.01}
""")
        with within_seconds(10):
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "multiplier within 8" in err and "Traceback" not in err

    def test_double_flow_positions_never_paired_are_a_singularity(self, tmp_path, capsys):
        # on 300 equal axes |cos(x, xi)| > 0.3 has probability about 2e-7, so
        # the bounded position draw must give up with exit 3
        axes = ", ".join(["1.0"] * 300)
        cfg = write(tmp_path / "cfg.yaml", f"""\
version: 1
system: {{kind: double_jacobi, axes: [{axes}], sigma: 0.3}}
integrator: {{h: 1.0e-3, T: 0.01}}
""")
        with within_seconds(10):
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "pairings of x and xi" in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["x", "y", "xi", "eta"])
    def test_initial_vector_of_the_wrong_length_is_a_config_error(self, tmp_path,
                                                                 capsys, key):
        init = {"x": [1.0, 0.0, 0.0], "y": [0.0, 0.5, 0.0],
                "xi": [1.0, 0.0, 0.0], "eta": [0.0, -0.5, 0.0]}
        init[key] = init[key][:2]
        cfg = write(tmp_path / "cfg.yaml", f"""\
version: 1
system: {{kind: double_jacobi, axes: [1.0, 2.0, 3.0], sigma: 0.3}}
initial: {json.dumps(init)}
integrator: {{h: 1.0e-3, T: 0.01}}
""")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"initial.{key} has 2 entries" in err and "Traceback" not in err

    @pytest.mark.parametrize("init", ["{x: [1.0, 0.0, 0.0]}", "{y: [0.0, 1.0, 0.0]}",
                                      "{xi: [1.0, 0.0, 0.0], eta: [0.0, 1.0, 0.0]}"],
                             ids=["x-only", "y-only", "xi-eta-only"])
    def test_initial_state_without_x_and_y_is_a_config_error(self, tmp_path, capsys,
                                                             init):
        cfg = write(tmp_path / "cfg.yaml", f"""\
version: 1
system: {{kind: jacobi, axes: [1.0, 2.0, 3.0], sigma: 0.3}}
initial: {init}
integrator: {{h: 1.0e-3, T: 0.01}}
""")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "but needs both x and y" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind,extra", [
        ("jacobi", "xi: [1.0, 0.0, 0.0]"),
        ("jacobi", "xi: [1.0, 0.0, 0.0], eta: [0.0, -0.5, 0.0]"),
        ("complex_jacobi", "xi: [1.0, 0.0, 0.0], eta: [0.0, -0.5, 0.0]"),
    ], ids=["xi-on-jacobi", "xi-eta-on-jacobi", "xi-eta-on-complex"])
    def test_second_pair_on_a_kind_without_one_is_a_config_error(self, tmp_path, capsys,
                                                                 kind, extra):
        # xi alone used to end in a TypeError, xi and eta to be ignored (exit 0)
        cfg = write(tmp_path / "cfg.yaml", f"""\
version: 1
system: {{kind: {kind}, axes: [1.0, 2.0, 3.0], sigma: 0.3}}
initial: {{x: [1.0, 0.0, 0.0], y: [0.0, 0.5, 0.0], {extra}}}
integrator: {{h: 1.0e-3, T: 0.01}}
""")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "no second pair" in err and "Traceback" not in err
        assert not list(out.glob("trajectory_*.csv"))

    def test_double_flow_without_its_second_pair_is_a_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.yaml", """\
version: 1
system: {kind: double_jacobi, axes: [1.0, 2.0, 3.0], sigma: 0.3}
initial: {x: [1.0, 0.0, 0.0], y: [0.0, 0.5, 0.0], xi: [1.0, 0.0, 0.0]}
integrator: {h: 1.0e-3, T: 0.01}
""")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "needs xi and eta" in err and "Traceback" not in err

    def test_initial_state_with_a_random_count_is_a_config_error(self, tmp_path, capsys):
        # the count used to be dropped silently: one trajectory, exit 0
        cfg = write(tmp_path / "cfg.yaml", """\
version: 1
system: {kind: jacobi, axes: [1.0, 2.0, 3.0], sigma: 0.3}
initial: {x: [1, 0, 0], y: [0, 1, 0], random: {count: 3}}
integrator: {h: 1.0e-3, T: 0.01}
""")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "random.count" in err and "Traceback" not in err
        assert not list(out.glob("trajectory_*.csv"))

    def test_drift_gate_failure_sets_exit_code(self, tmp_path):
        cfg = write(tmp_path / "cfg.yaml", f"""\
version: 1
seed: 1
system: {{kind: jacobi, axes: [1.0, 2.0, 3.0], sigma: 0.5}}
initial: {{random: {{count: 1}}}}
integrator: {{h: 1.0e-3, T: 1.0}}
drift_tol: 1.0e-16
output: {{dir: {tmp_path/'out'}}}
""")
        assert main(["simulate", "--config", cfg]) == 1

    def test_byte_determinism(self, tmp_path):
        text = f"""\
version: 1
seed: 9
system: {{kind: jacobi_rosochatius, axes: [1.0, 2.0, 3.0], sigma: 0.4, mu: [0.2, 0.0, 0.3]}}
initial: {{random: {{count: 1}}}}
integrator: {{h: 1.0e-2, T: 1.0}}
"""
        c1 = write(tmp_path / "c1.yaml", text)
        assert main(["simulate", "--config", c1, "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", c1, "--out", str(tmp_path / "b")]) == 0
        for name in ("trajectory_0.csv", "summary.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())


class TestBilliardCommand:
    def test_axis_two_periodic_golden_orbit(self, tmp_path):
        cfg = write(tmp_path / "cfg.yaml", f"""\
version: 1
billiard:
  axes: [2.0, 1.0]
  bounces: 4
  initial:
    x: [1.4142135623730951, 0.0]
    y: [-1.0, 0.0]
  poncelet_max: 4
output: {{dir: {tmp_path/'out'}}}
""")
        assert main(["billiard", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "out" / "billiard_summary.json").read_text())
        assert summary["poncelet"]["period"] == 2
        rows = (tmp_path / "out" / "impacts.csv").read_text().splitlines()
        assert rows[0].split(",") == ["k", "x0", "x1", "y0", "y1", "J"]
        x0 = [float(v) for v in rows[1].split(",")[1:3]]
        x1 = [float(v) for v in rows[2].split(",")[1:3]]
        assert x0 == pytest.approx([math.sqrt(2.0), 0.0])
        assert x1 == pytest.approx([-math.sqrt(2.0), 0.0])

    def test_caustic_count_echoed_and_oracle_gate(self, tmp_path):
        cfg = write(tmp_path / "cfg.yaml", f"""\
version: 1
seed: 5
billiard:
  axes: [2.0, 1.0]
  sigma: 0.0
  mu: [0.0, 0.3]
  bounces: 30
  oracle_check: true
output: {{dir: {tmp_path/'out'}}}
""")
        assert main(["billiard", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "out" / "billiard_summary.json").read_text())
        assert summary["expected_caustic_count"] == 2  # n - 1 + d
        assert len(summary["caustics"]) == 2
        names = [c["name"] for c in summary["checks"]]
        assert "map-vs-oracle" in names

    def test_initial_point_must_sit_on_the_boundary(self, tmp_path):
        cfg = write(tmp_path / "cfg.yaml", """\
version: 1
billiard:
  axes: [2.0, 1.0]
  initial: {x: [0.3, 0.1], y: [-1.0, 0.0]}
""")
        assert main(["billiard", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("init", ["{x: [1.4142135623730951, 0.0]}",
                                      "{y: [-1.0, 0.0]}"], ids=["x-only", "y-only"])
    def test_initial_point_without_its_momentum_is_a_config_error(self, tmp_path,
                                                                  capsys, init):
        cfg = write(tmp_path / "cfg.yaml", f"""\
version: 1
billiard:
  axes: [2.0, 1.0]
  initial: {init}
""")
        assert main(["billiard", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "billiard.initial gives" in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["x", "y"])
    def test_initial_vector_of_the_wrong_length_is_a_config_error(self, tmp_path,
                                                                 capsys, key):
        init = {"x": [1.4142135623730951, 0.0], "y": [-1.0, 0.0]}
        init[key] = init[key][:1]
        cfg = write(tmp_path / "cfg.yaml", f"""\
version: 1
billiard:
  axes: [2.0, 1.0]
  initial: {json.dumps(init)}
""")
        assert main(["billiard", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"billiard.initial.{key} has 1 entries" in err and "Traceback" not in err

    @pytest.mark.parametrize("extra", ["", ", poncelet_max: 4", ", sigma: 0.5, mu: [0.3]"],
                             ids=["free", "poncelet", "charged-forced"])
    def test_one_axis_billiard_runs(self, tmp_path, capsys, extra):
        # a point bouncing on a segment: its caustic comparison used to take
        # the maximum of two empty root arrays and end in a ValueError
        cfg = write(tmp_path / "cfg.yaml", f"""\
version: 1
billiard: {{axes: [2.0], bounces: 4{extra}}}
""")
        assert main(["billiard", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        summary = json.loads((tmp_path / "billiard_summary.json").read_text())
        assert summary["pass"]

    def test_charged_impact_draw_squashed_onto_its_axis_is_a_singularity(self, tmp_path,
                                                                         capsys):
        # no boundary draw keeps the charged coordinate over 0.05
        cfg = write(tmp_path / "cfg.yaml", """\
version: 1
billiard: {axes: [0.002, 0.001], mu: [0, 0.3]}
""")
        with within_seconds(10):
            assert main(["billiard", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "0.05 off their axes" in err and "Traceback" not in err


class TestSeedFlag:
    @pytest.mark.parametrize("command,config", [
        ("simulate", "system: {kind: jacobi, axes: [1.0, 2.0, 3.0], sigma: 0.5}\n"
                     "integrator: {h: 1.0e-3, T: 0.01}\n"),
        ("billiard", "billiard: {axes: [2.0, 1.0], bounces: 2}\n"),
        ("verify", "suites: [hierarchy-identities]\n"),
    ], ids=["simulate", "billiard", "verify"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command, config):
        cfg = write(tmp_path / "cfg.yaml", "version: 1\n" + config)
        argv = [command, "--config", cfg, "--seed", "-1", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--seed must be non-negative" in err and "Traceback" not in err


class TestVerifyCommand:
    def test_selected_suite_runs_and_reports(self, tmp_path, capsys):
        assert main(["verify", "--suite", "hierarchy-identities",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "verify:" in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["pass"] and len(report["checks"]) == 3

    def test_empty_selection_is_trivially_passing(self, tmp_path):
        cfg = write(tmp_path / "cfg.yaml", "version: 1\nsuites: []\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["pass"] and report["checks"] == []

    def test_unknown_suite_is_a_config_error(self, tmp_path):
        assert main(["verify", "--suite", "nope", "--out", str(tmp_path)]) in (1, 2)

    def test_nan_residual_never_passes(self, tmp_path, monkeypatch):
        import confocal.lax
        from confocal.suites import suite_lax_residual

        def nan_once():
            real, calls = confocal.lax.lax_residual, []

            def patched(*args, **kwargs):
                calls.append(1)
                return float("nan") if len(calls) == 1 else real(*args, **kwargs)

            monkeypatch.setattr(confocal.lax, "lax_residual", patched)

        nan_once()
        rec = suite_lax_residual(n_states=2)[0]
        assert math.isnan(rec.value) and not rec.passed
        monkeypatch.undo()
        nan_once()
        assert main(["verify", "--suite", "lax-residual", "--out", str(tmp_path)]) == 1

    def test_tolerance_override_can_force_failure(self, tmp_path):
        code = main(["verify", "--suite", "peta-relation",
                     "--tol-overrides", "peta-relation=1e-30",
                     "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_override_checked_before_any_suite_runs(self, name):
        no_tol = {"rank-dimension", "caustics", "hierarchy-identities"}
        if name in no_tol:
            with pytest.raises(ConfigError):
                run_suites(names=[], overrides={name: 1.0})
        else:
            assert run_suites(names=[], overrides={name: 1.0}) == []

    @pytest.mark.parametrize("override", ["caustics=1e-3", "nosuch=1e-3"])
    def test_bad_override_is_a_config_error(self, tmp_path, capsys, override):
        code = main(["verify", "--suite", "peta-relation",
                     "--tol-overrides", override, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "Traceback" not in err
        assert not (tmp_path / "verify_report.json").exists()


class TestPlotCommand:
    def test_orbit_plot_with_caustics(self, tmp_path):
        bil = write(tmp_path / "bil.yaml", f"""\
version: 1
seed: 5
billiard: {{axes: [2.0, 1.0], bounces: 20}}
output: {{dir: {tmp_path/'out'}}}
""")
        assert main(["billiard", "--config", bil]) == 0
        summary = json.loads((tmp_path / "out" / "billiard_summary.json").read_text())
        etas = ", ".join(summary["caustics"])
        plot = write(tmp_path / "plot.yaml", f"""\
version: 1
plot:
  input: {tmp_path/'out'/'impacts.csv'}
  kind: orbit
  axes: [2.0, 1.0]
  caustics: [{etas}]
output: {{dir: {tmp_path/'plot'}}}
""")
        assert main(["plot", "--config", plot]) == 0
        svg = (tmp_path / "plot" / "plot.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("polyline") >= 3  # boundary, chords, caustic

    def test_domain_figure_with_charged_coordinate(self, tmp_path):
        plot = write(tmp_path / "plot.yaml", f"""\
version: 1
plot:
  kind: domain
  axes: [2.0, 1.0]
  mu: [0.0, 0.3]
output: {{dir: {tmp_path/'plot'}}}
""")
        assert main(["plot", "--config", plot]) == 0
        svg = (tmp_path / "plot" / "plot.svg").read_text()
        assert "polyline" in svg

    @pytest.mark.parametrize("plot,table", [
        ("{kind: domain, axes: [2.0]}", None),
        ("{kind: orbit, axes: [2.0], input: TABLE}", "x0,x1\n0.5,0.1\n"),
        ("{axes: [2.0, 1.0], mu: [0.3], input: TABLE}", "x0,x1\n0.5,0.1\n"),
        ("{input: TABLE}", None),
        ("{input: TABLE}", "x0,x1\n0.5,abc\n"),
        ("{input: TABLE}", "x0,x1\n0.5,0.1\nnan,0.2\n"),
        ("{input: TABLE}", "x0,x1\n0.5,-inf\n0.3,0.2\n"),
    ], ids=["domain-one-axis", "orbit-one-axis", "short-mu", "missing-input",
            "non-numeric-cell", "nan-cell", "inf-cell"])
    def test_bad_plot_config_is_a_config_error(self, tmp_path, capsys, plot, table):
        path = tmp_path / "table.csv"
        if table is not None:
            path.write_text(table)
        plot = plot.replace("TABLE", str(path))
        cfg = write(tmp_path / "plot.yaml", f"version: 1\nplot: {plot}\n")
        assert main(["plot", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not (tmp_path / "plot.svg").exists()

    def test_empty_trajectory_still_renders_axes(self):
        svg = render(trajectory=np.zeros((0, 2)))
        assert svg.startswith("<svg") and svg.count("polyline") == 2


class TestConfigLoading:
    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/nope.yaml")

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("version: 1\nwat: 3\n")
        with pytest.raises(ConfigError):
            load_config(p)


class TestOracleGate:
    def test_impossible_oracle_tolerance_fails_the_run(self, tmp_path):
        cfg = write(tmp_path / "cfg.yaml", f"""\
version: 1
seed: 5
billiard:
  axes: [2.0, 1.0]
  bounces: 5
  oracle_check: true
  oracle_tol: 1.0e-30
output: {{dir: {tmp_path/'out'}}}
""")
        assert main(["billiard", "--config", cfg]) == 1


class TestJsonFormat:
    def test_bulk_output_as_json(self, tmp_path):
        cfg = write(tmp_path / "cfg.yaml", f"""\
version: 1
seed: 2
system: {{kind: jacobi, axes: [1.0, 2.0, 3.0], sigma: 0.5}}
initial: {{random: {{count: 1}}}}
integrator: {{h: 1.0e-2, T: 0.5}}
output: {{dir: {tmp_path/'out'}}}
""")
        assert main(["simulate", "--config", cfg, "--format", "json"]) == 0
        data = json.loads((tmp_path / "out" / "trajectory_0.json").read_text())
        assert data["columns"][0] == "t"
        assert len(data["rows"]) == 51
