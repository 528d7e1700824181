import json
import math

import numpy as np
import pytest

from confocal.cli import main
from confocal.config import load_config
from confocal.errors import ConfigError
from confocal.suites import SUITES, run_suites
from confocal.svgplot import render


def write(path, text):
    path.write_text(text)
    return str(path)


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


class TestSimulate:
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
        assert main(["billiard", "--config", cfg, "--out", "/tmp/xx-bil"]) == 2


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
