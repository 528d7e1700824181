"""Property tests: round trips of the two coordinate changes, the bounce
invariant, and the exit code of every run config and verify selection, over
inputs drawn by hypothesis.

`derandomize=True` makes every run draw the same examples, so the suite
stays reproducible; `deadline=None` keeps a slow host from failing a test.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_cli import within_seconds
from test_geometry import point_from_parameters

from confocal import cli, suites
from confocal.billiard import BilliardSpec, ImpactState, impact_invariant, jr_step
from confocal.cli import main
from confocal.dynamics import KINDS, torus_reconstruct, torus_reduce
from confocal.errors import GrazingOrSingularError, SingularAxisError
from confocal.geometry import EllipsoidSpec, elliptic_coords
from confocal.lax import CheckRecord

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)

coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def vectors(n, elements=coord):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(*[vectors(n)] * 4)))
def test_torus_reduce_then_reconstruct_returns_the_state(parts):
    zr, zi, pr, pi = parts
    z, p = zr + 1j * zi, pr + 1j * pi
    # a coordinate at the origin has no phase to recover
    assume(np.min(np.abs(z)) > 1e-3)
    zz, pp = torus_reconstruct(*torus_reduce(z, p))
    np.testing.assert_allclose(zz, z, rtol=0, atol=1e-14 * (1.0 + np.max(np.abs(z))))
    np.testing.assert_allclose(pp, p, rtol=0, atol=1e-14 * (1.0 + np.max(np.abs(p))))


@PROPERTY
@given(vectors(3))
def test_elliptic_coords_then_back_returns_the_point(x):
    spec = EllipsoidSpec([1.0, 2.0, 3.0])
    # the chart is singular on the coordinate hyperplanes
    assume(np.min(np.abs(x)) > 1e-2)
    ec = elliptic_coords(spec, x)
    np.testing.assert_allclose(point_from_parameters(spec.axes, ec), x, rtol=1e-9, atol=1e-12)


@PROPERTY
@given(st.sampled_from([((2.0, 1.0), 0.0, ()), ((2.0, 1.0), -1.0, (0.0, 0.25)),
                        ((2.0, 1.0, 0.6), 0.3, ()),
                        ((2.0, 1.0, 0.6), -1.0, (0.3, 0.25, 0.2))]),
       vectors(3), vectors(3), st.integers(1, 20))
def test_jr_step_preserves_the_magnitude_of_J(case, x, y, bounces):
    axes, sigma, mu = case
    spec = BilliardSpec(axes, sigma=sigma, mu=mu)
    n = len(axes)
    x = x[:n].copy()
    # a charged coordinate stays positive
    x[spec.mu_arr != 0] = np.abs(x[spec.mu_arr != 0]) + 0.1
    assume(x @ x > 1e-2)
    x = x / np.sqrt((x / spec.a) @ x)
    s = ImpactState(x, y[:n])
    J0 = abs(impact_invariant(spec, s))
    assume(J0 > 1e-3)
    for _ in range(bounces):
        try:
            s = jr_step(spec, s)
        except (GrazingOrSingularError, SingularAxisError):
            assume(False)
        assert abs(abs(impact_invariant(spec, s)) - J0) <= 1e-9 * (1.0 + J0)


# ---------------------------------------------------------------------------
# config fuzz: every schema-shaped config ends in a documented exit code
# ---------------------------------------------------------------------------

positive = st.one_of(st.floats(0.05, 5.0), st.sampled_from([1e-3, 1e3]))
number = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 1e-9, 1e3]))
charge = st.one_of(st.just(0.0), st.floats(0.05, 1.0), st.sampled_from([1e3, -1.0]))


def config_vectors(n, elements=number):
    """Vectors of the axes' length (tests/test_cli.py checks wrong lengths)."""
    return st.lists(elements, min_size=n, max_size=n)


@st.composite
def optional_keys(draw, strategies: dict) -> dict:
    return {key: draw(s) for key, s in strategies.items() if draw(st.booleans())}


@st.composite
def simulate_configs(draw) -> dict:
    n = draw(st.integers(1, 4))
    system = {"kind": draw(st.sampled_from(KINDS)), "axes": draw(config_vectors(n, positive))}
    # sigma most often, then weights sigmas, both or neither
    fields = draw(st.sampled_from([(), ("sigma",), ("sigma",), ("sigmas",), ("sigma", "sigmas")]))
    system.update({key: draw(number if key == "sigma" else
                             st.lists(number, min_size=1, max_size=3)) for key in fields})
    system.update(draw(optional_keys({"mu": config_vectors(n, charge)})))
    # a full state, with none, one or both of the second pair, is drawn most often
    state = st.sampled_from([(), ("xi",), ("eta",), ("xi", "eta")]).flatmap(
        lambda extra: st.fixed_dictionaries(
            {key: config_vectors(n) for key in ("x", "y") + extra}))
    initial = draw(st.one_of(
        st.just({}), st.integers(1, 2).map(lambda c: {"random": {"count": c}}),
        state, state, state,
        optional_keys({key: config_vectors(n) for key in ("x", "y", "xi", "eta")})))
    return {"version": 1, "system": system, "initial": initial,
            "integrator": {"h": draw(st.sampled_from([1e-3, 1e-2, 0.05, 0.3])),
                           "T": draw(st.floats(0.01, 0.2))}}


@st.composite
def billiard_configs(draw) -> dict:
    n = draw(st.integers(1, 4))
    # hypothesis starts from the simplest draw, so list the longest run first
    billiard = {"axes": draw(config_vectors(n, positive)),
                "bounces": draw(st.sampled_from([5, 4, 3, 2, 1]))}
    billiard.update(draw(optional_keys({
        "sigma": number, "mu": config_vectors(n, charge), "oracle_check": st.booleans(),
        "poncelet_max": st.integers(0, 5),
        "initial": optional_keys({"x": config_vectors(n), "y": config_vectors(n)})})))
    return {"version": 1, "billiard": billiard}


FUZZ = settings(derandomize=True, deadline=None, max_examples=100)


def run_config(command: str, config: dict, seed: int) -> int:
    """cli.main on the config, written to a fresh directory that takes the output."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(config))
        with within_seconds(20):
            return main([command, "--config", str(path), "--seed", str(seed), "--out", tmp])


@FUZZ
@given(simulate_configs(), st.integers(0, 3))
def test_every_simulate_config_ends_in_an_exit_code(config, seed):
    assert run_config("simulate", config, seed) in (0, 1, 2, 3)


@FUZZ
@given(billiard_configs(), st.integers(0, 3))
def test_every_billiard_config_ends_in_an_exit_code(config, seed):
    assert run_config("billiard", config, seed) in (0, 1, 2, 3)


MISSING = "<no such file>"


@st.composite
def plot_configs(draw) -> tuple[dict, str | None]:
    """A plot config and the text of its input table: None for no `input`,
    MISSING for a path that does not exist."""
    plot = draw(optional_keys({
        "kind": st.sampled_from(["trajectory", "orbit", "domain"]),
        "axes": st.integers(1, 4).flatmap(lambda n: config_vectors(n, positive)),
        "mu": st.integers(1, 4).flatmap(lambda n: config_vectors(n, charge)),
        "caustics": st.lists(number, min_size=1, max_size=3),
        "columns": st.lists(st.sampled_from(["x0", "x1", "y1", "t"]), min_size=2, max_size=2),
    }))
    header = draw(st.sampled_from(["t,x0,x1,y0,y1", "x0,x1", "t,x0"]))
    rows = draw(st.lists(config_vectors(header.count(",") + 1), max_size=4))
    table = "\n".join([header] + [",".join(map(str, row)) for row in rows])
    malformed = st.sampled_from(["", "x0,x1\n0.5,abc", "x0,x1\n0.5", "x0,x1\n0.5,0.1,0.2"])
    return plot, draw(st.one_of(st.just(table), st.just(MISSING), malformed, st.none()))


@FUZZ
@given(plot_configs())
def test_every_plot_config_ends_in_an_exit_code(case):
    plot, table = case
    with tempfile.TemporaryDirectory() as tables:
        if table is not None:
            path = Path(tables) / "table.csv"
            if table != MISSING:
                path.write_text(table)
            plot = {**plot, "input": str(path)}
        assert run_config("plot", {"version": 1, "plot": plot}, 0) in (0, 1, 2, 3)


# stand-ins for the registered suites: one that passes at its default
# tolerance, one that fails at it, one without a tolerance and one that hits
# a singularity; each returns at once
def _tunable(value):
    def suite(seed=0, tol=1e-6):
        return [CheckRecord(f"stub/{seed}", value, tol)]
    return suite


def _fixed(seed=0):
    return [CheckRecord("stub/fixed", 0.0, 1e-9)]


def _singular(seed=0, tol=1e-6):
    raise SingularAxisError("stub singularity")


STUB_SUITES = {"passes": _tunable(1e-9), "fails": _tunable(1.0), "fixed": _fixed,
               "singular": _singular}
suite_name = st.sampled_from([*STUB_SUITES, "no-such-suite"])
tolerance = st.one_of(number, st.sampled_from([float("nan"), float("inf"), -1.0]))
override = st.one_of(
    st.tuples(suite_name, st.one_of(tolerance.map(repr), st.sampled_from(
        ["abc", "", " 2 ", "1e-3x"]))).map("=".join),
    suite_name, st.sampled_from(["=", "=1", "passes==1"]))


@st.composite
def verify_cases(draw) -> tuple[dict, list[str]]:
    """A verify config and the arguments after it."""
    config = {"version": 1, **draw(optional_keys({
        "suites": st.lists(suite_name, max_size=3),
        "tolerances": st.dictionaries(suite_name, tolerance, max_size=3)}))}
    args = [f"--suite={name}" for name in draw(st.lists(suite_name, max_size=2))]
    if draw(st.booleans()):
        args.append("--tol-overrides=" + ",".join(draw(st.lists(override, max_size=3))))
    return config, args + [f"--seed={draw(st.integers(-1, 3))}"]


@settings(FUZZ, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(verify_cases())
def test_every_verify_selection_ends_in_an_exit_code(monkeypatch, case):
    monkeypatch.setattr(suites, "SUITES", STUB_SUITES)
    monkeypatch.setattr(cli, "SUITES", STUB_SUITES)
    config, args = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(config))
        code = main(["verify", "--config", str(path), "--out", tmp, *args])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
