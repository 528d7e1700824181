"""Named verification suites: each runs a deterministic battery of checks
and returns CheckRecord rows (name, value, threshold).  The command-line
`verify` subcommand and the acceptance tests both drive these.
"""

from __future__ import annotations

import inspect

import numpy as np

from . import billiard as bl
from . import lax as lx
from . import potentials as pt
from .dynamics import PhaseState, SystemSpec, energy, integrate, torus_reduce
from .errors import ConfigError, GrazingOrSingularError
from .lax import CheckRecord
from .sampling import (
    random_double_invariant_state,
    random_impact_state,
    random_state,
)

AXES3 = (1.0, 2.0, 3.0)
AXES_SYM22 = (1.3, 1.3, 2.9, 2.9)
MU3 = (0.3, 0.0, 0.25)
MU4 = (0.3, 0.2, 0.25, 0.15)


# ---------------------------------------------------------------------------
# continuous Lax pairs
# ---------------------------------------------------------------------------

def _residual_cases(seed):
    rng = np.random.default_rng(seed)
    cases = []

    def add(name, sys, state_fn, which="small"):
        cases.append((name, sys, state_fn, which))

    sys_g = SystemSpec("jacobi", AXES3, sigma=0.0)
    add("jacobi-geodesic/small", sys_g, lambda: random_state(sys_g, rng))
    add("jacobi-geodesic/big", sys_g, lambda: random_state(sys_g, rng), "big")
    sys_j = SystemSpec("jacobi", AXES3, sigma=0.5)
    add("jacobi-forced/small", sys_j, lambda: random_state(sys_j, rng))
    add("jacobi-forced/big", sys_j, lambda: random_state(sys_j, rng), "big")
    sys_r = SystemSpec("jacobi_rosochatius", AXES3, sigma=0.4, mu=MU3)
    add("rosochatius/small", sys_r, lambda: random_state(sys_r, rng))
    sys_d = SystemSpec("double_jacobi", AXES3, sigma=0.3)
    add("double/small", sys_d, lambda: random_state(sys_d, rng))
    add("double/big", sys_d, lambda: random_double_invariant_state(sys_d, rng), "big")
    sys_c = SystemSpec("complex_jacobi", AXES3, sigma=0.4)
    add("complex/small", sys_c, lambda: random_state(sys_c, rng))
    sys_h = SystemSpec("separable_hierarchy", AXES3,
                       sigmas=(0.5, -0.3, 0.2), mu=MU3)
    add("hierarchy-m3/small", sys_h, lambda: random_state(sys_h, rng))
    return cases


def suite_lax_residual(seed=0, n_states=20, h=1e-5, tol=1e-7) -> list[CheckRecord]:
    """Commutator residuals of every pair at random on-shell states, plus the
    quadratic decay of the finite difference under step halving."""
    out = []
    for name, sys, draw, which in _residual_cases(seed):
        # the identity is rational in the parameter, so moderate samples
        # verify it without amplifying the finite-difference truncation
        lams = (0.37, 4.31) if which == "small" else (0.37, 1.45)
        worst = 0.0
        s_decay = None
        for _ in range(n_states):
            s = draw()
            s_decay = s
            for lam in lams:
                worst = float(np.maximum(worst, lx.lax_residual(sys, s, which, lam, h)))
        out.append(CheckRecord(f"lax-residual/{name}", worst, tol))
        r1 = float(np.max(np.abs(lx.lax_defect(sys, s_decay, which, lams[0], 1e-3))))
        r2 = float(np.max(np.abs(lx.lax_defect(sys, s_decay, which, lams[0], 5e-4))))
        ratio = r1 / r2 if r2 != 0 else 4.0
        out.append(CheckRecord(f"lax-decay/{name}", max(ratio / 4.0, 4.0 / ratio), 1.7))
    return out


# ---------------------------------------------------------------------------
# conservation along trajectories
# ---------------------------------------------------------------------------

def _relative_drift(table, scale=0.0) -> float:
    """Largest relative drift of any column of a (rows, columns) table from
    its first row; NaN if any entry is."""
    v0 = table[0]
    # a component much smaller than its family is a near-vanishing
    # combination; its drift is measured against the family scale
    den = np.maximum(np.maximum(np.abs(v0), 0.02 * scale), 1e-3)
    return float(np.max(np.abs(table - v0) / den))


def suite_conservation(seed=0, T=10.0, h=1e-3, tol=1e-7) -> list[CheckRecord]:
    """Drift of the Hamiltonian, the integral family and det L along
    trajectories of each on-ellipsoid flow.

    The charged systems carry firm charges: the closest barrier approach is
    bounded below by mu/sqrt(2H), which keeps the fixed-step integration in
    its accurate regime over the whole window.
    """
    rng = np.random.default_rng(seed)
    mu3 = (0.45, 0.0, 0.4)
    mu4 = (0.5, 0.4, 0.45, 0.35)
    systems = [
        ("jacobi", SystemSpec("jacobi", AXES3, sigma=0.5)),
        ("rosochatius", SystemSpec("jacobi_rosochatius", AXES3, sigma=0.4, mu=mu3)),
        ("rosochatius-sym22", SystemSpec("jacobi_rosochatius", AXES_SYM22,
                                         sigma=0.3, mu=mu4)),
        ("hierarchy-m2", SystemSpec("separable_hierarchy", AXES3,
                                    sigmas=(0.5, -0.2), mu=mu3)),
    ]
    out = []
    for name, sys in systems:
        traj = integrate(sys, random_state(sys, rng), T, h)
        # every 37th row, starting from the initial state
        s = PhaseState(traj.x[::37], traj.y[::37])
        fam = lx.integral_family(sys, s)
        fam_cols = [fam.ftilde, *fam.P_pairs.values(), *fam.L_chain.values()]
        if fam.f is not None:
            fam_cols.append(fam.f)
        lams = lx.lambda_samples(sys.axes, 5)
        det = np.array([lx.det_L(sys, PhaseState(x, y), lams) for x, y in zip(s.x, s.y)])
        dH = _relative_drift(energy(sys, s))
        dfam = _relative_drift(np.column_stack(fam_cols), np.max(np.abs(fam.ftilde[0])))
        ddet = _relative_drift(det, np.max(np.abs(det[0])))
        out.append(CheckRecord(f"conservation/{name}/H", dH, tol))
        out.append(CheckRecord(f"conservation/{name}/family", dfam, tol))
        out.append(CheckRecord(f"conservation/{name}/detL", ddet, tol))
    return out


# ---------------------------------------------------------------------------
# bracket commutation, pole-sum relation, rank dimensions
# ---------------------------------------------------------------------------

def _sym22_system():
    return SystemSpec("jacobi_rosochatius", AXES_SYM22, sigma=0.3, mu=MU4)


def suite_bracket_commutation(seed=0, n_states=100, tol=1e-6) -> list[CheckRecord]:
    """Constrained brackets of every vanishing pair on the two-by-two
    symmetric partition, at random on-shell states."""
    sys = _sym22_system()
    rng = np.random.default_rng(seed)
    worst: dict[str, float] = {}
    for _ in range(n_states):
        s = random_state(sys, rng)
        for rec in lx.commutation_suite(sys, s, tol=tol):
            worst[rec.name] = float(np.maximum(worst.get(rec.name, 0.0), rec.value))
    return [CheckRecord(f"bracket/{k}", v, tol) for k, v in sorted(worst.items())]


def suite_peta_relation(seed=0, n_states=1000, tol=1e-9) -> list[CheckRecord]:
    """Residual of the pole-sum identity tying the group integrals, the
    rotational invariants and the charges."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for sys in (_sym22_system(),
                SystemSpec("jacobi_rosochatius", AXES3, sigma=0.4, mu=MU3)):
        for _ in range(n_states // 2):
            s = random_state(sys, rng)
            worst = float(np.maximum(worst,
                                     abs(lx.integral_family(sys, s).relation_residual)))
    return [CheckRecord("peta-relation/residual", worst, tol)]


def suite_rank_dimension(seed=0, n_draws=200, fail_frac=0.05) -> list[CheckRecord]:
    """Gradient-span ranks of the two conserved families on the symmetric
    partition; a small fraction of degenerate draws is tolerated."""
    sys = _sym22_system()
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(n_draws):
        s = random_state(sys, rng)
        rep = lx.gradient_rank_report(sys, s)
        if (rep["rank_full_family"] != rep["expected_full_family"]
                or rep["rank_central_family"] != rep["expected_central_family"]):
            bad += 1
    return [CheckRecord(f"rank-dimension/degenerate-fraction ({bad}/{n_draws})",
                        bad / n_draws, fail_frac)]


# ---------------------------------------------------------------------------
# billiards
# ---------------------------------------------------------------------------

def _billiard_cases(sigmas):
    """(label, spec) of each billiard case, in draw order: the axes (2, 1)
    and then (2, 1, 0.6), each with no charge, a charge on the last
    coordinate and a charge on every coordinate, each at every sigma."""
    for n, base in ((2, (2.0, 1.0)), (3, (2.0, 1.0, 0.6))):
        for mu_name, mu in (("mu-zero", (0.0,) * n), ("mu-one", (0.0,) * (n - 1) + (0.25,)),
                            ("mu-all", tuple(0.3 - 0.05 * i for i in range(n)))):
            for sigma in sigmas:
                yield (f"n{n}/{mu_name}/sigma{sigma:+g}",
                       bl.BilliardSpec(base, sigma=sigma, mu=mu))


def _draw_impact(spec, rng) -> bl.ImpactState:
    """An impact state of the billiard at speed 1.3."""
    return bl.ImpactState(*random_impact_state(spec.axes, spec.sigma, spec.mu, rng,
                                               speed=1.3))


def suite_billiard_oracle(seed=0, bounces=100, tol=1e-6) -> list[CheckRecord]:
    """Per-bounce agreement of the explicit map with the integrate-and-reflect
    route, across forcing signs and charge patterns.

    A bounce on which either route raises GrazingOrSingularError is skipped
    and the orbit restarts from a new draw; a case that compared no bounce
    records inf and fails."""
    out = []
    rng = np.random.default_rng(seed)
    for label, spec in _billiard_cases((-1.0, 0.0, 0.3)):
        s = _draw_impact(spec, rng)
        worst, compared = 0.0, 0
        for _ in range(bounces):
            try:
                s1 = bl.jr_step(spec, s)
                s1o = bl.oracle_step(spec, s)
            except GrazingOrSingularError:
                s = _draw_impact(spec, rng)
                continue
            worst = float(np.max([worst, np.max(np.abs(s1.x - s1o.x)),
                                  np.max(np.abs(s1.y - s1o.y))]))
            compared += 1
            s = s1
        if not compared:
            worst = float("inf")
        out.append(CheckRecord(f"billiard-oracle/{label}", worst, tol))
    return out


def suite_caustics(seed=0, bounces=50, drift_tol=1e-7,
                   tangency_tol=1e-8) -> list[CheckRecord]:
    """Caustic counts, their persistence along the orbit, and (force-free case)
    the per-segment tangency of every segment to every caustic."""
    out = []
    rng = np.random.default_rng(seed)
    for label, spec in _billiard_cases((0.0, 0.3)):
        orb = bl.run_orbit(spec, _draw_impact(spec, rng), bounces, with_lax=False)
        rep = bl.orbit_caustics(spec, orb)
        name = f"caustics/{label}"
        count_err = 0.0 if (rep["count_ok"] and rep["per_segment_count_ok"]) else 1.0
        out.append(CheckRecord(f"{name}/count={rep['expected_count']}", count_err, 0.5))
        out.append(CheckRecord(f"{name}/drift", rep["caustic_drift"], drift_tol))
        if rep["tangency_max"] is not None:
            out.append(CheckRecord(f"{name}/tangency", rep["tangency_max"],
                                   tangency_tol))
    return out


def suite_poncelet(seed=0, tol=1e-6) -> list[CheckRecord]:
    """A closing planar orbit of period 3 found by shooting on the caustic
    parameter, and a companion on the same caustic closing with the same
    period."""
    period = 3
    spec = bl.BilliardSpec((2.0, 1.0))
    eta, s0 = bl.find_planar_periodic_orbit(spec, period)
    det = bl.poncelet_detect(spec, s0, 12, tol)
    out = [CheckRecord(f"poncelet/period-found={det['period']}",
                       0.0 if det["period"] == period else 1.0, 0.5)]
    if det["period"]:
        out.append(CheckRecord("poncelet/closure", det["closure_error"], tol))
    comp = bl.tangent_state(spec, eta, 1.234)
    det2 = bl.poncelet_detect(spec, comp, 12, tol)
    out.append(CheckRecord(f"poncelet/companion-period={det2['period']}",
                           0.0 if det2["period"] == period else 1.0, 0.5))
    if det2["period"]:
        out.append(CheckRecord("poncelet/companion-closure", det2["closure_error"], tol))
    return out


def suite_discrete_lax(seed=0, bounces=100, tol=1e-8) -> list[CheckRecord]:
    """det L invariance and the conjugation residual along billiard orbits."""
    rng = np.random.default_rng(seed)
    out = []
    for sigma, mu in ((0.0, (0.0, 0.0, 0.0)), (-1.0, (0.3, 0.25, 0.2)),
                      (0.3, (0.0, 0.25, 0.0))):
        spec = bl.BilliardSpec((2.0, 1.0, 0.6), sigma=sigma, mu=mu)
        orb = bl.run_orbit(spec, _draw_impact(spec, rng), bounces)
        out.append(CheckRecord(f"discrete-lax/sigma{sigma:+g}/det-drift",
                               orb.det_drift, tol))
        out.append(CheckRecord(f"discrete-lax/sigma{sigma:+g}/conjugation",
                               orb.lax_residual, 1e-6))
    return out


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def suite_bd_residual(seed=0, tol=1e-6) -> list[CheckRecord]:
    """Separability residuals of the polynomial and inverse-power bases at
    100 random points."""
    rng = np.random.default_rng(seed)
    a = np.array(AXES3)
    worst_poly = 0.0
    worst_ros = 0.0
    floor_nonsep = np.inf
    for _ in range(100):
        x = rng.uniform(0.4, 1.2, size=3) * rng.choice([-1.0, 1.0], size=3)
        poly = pt.bd_residual(a, lambda p: np.stack(pt.hierarchy_eval(a, p, 4).V, axis=-1), x)
        worst_poly = float(np.maximum(worst_poly, np.max(np.abs(poly))))
        ros = pt.bd_residual(a, lambda p: np.stack(
            [pt.rosochatius_eval(a, p, sdx, d) for sdx in range(3) for d in (-1, -2)],
            axis=-1), x)
        worst_ros = float(np.maximum(worst_ros, np.max(np.abs(ros))))
        bad = pt.bd_residual(a, lambda p: p[..., 0] ** 3 * p[..., 1], x)[0]
        floor_nonsep = float(np.minimum(floor_nonsep, abs(bad)))
    return [
        CheckRecord("bd-residual/polynomial-basis", worst_poly, tol),
        CheckRecord("bd-residual/inverse-basis", worst_ros, tol),
        CheckRecord("bd-residual/non-separable-detected", 1e-3 / max(floor_nonsep, 1e-30), 1.0),
    ]


def suite_hierarchy_identities(seed=0) -> list[CheckRecord]:
    """Closed forms of the low members (to 1e-12) and the defining identity
    of Omega_k (to 1e-9) at 50 random points."""
    rng = np.random.default_rng(seed)
    a = np.array(AXES3)
    worst_closed = 0.0
    worst_omega = 0.0
    worst_closure = 0.0
    for _ in range(50):
        x = rng.normal(size=3)
        t = pt.hierarchy_eval(a, x, 6)
        xx = float(x @ x)
        axx = float((a * x) @ x)
        a2xx = float((a**2 * x) @ x)
        worst_closed = float(np.max([
            worst_closed,
            abs(t.V[0] - xx),
            abs(t.V[1] - (axx - xx * xx)),
            abs(t.V[2] - (a2xx - t.V[0] * axx - t.V[1] * xx)),
        ]))
        for k in range(1, 7):
            worst_closure = float(np.maximum(worst_closure,
                                             abs(t.V[k - 1] - t.F[k - 1].sum())))
        lam = float(rng.uniform(3.5, 6.0))
        d1, o1 = pt.delta_omega(a, x, lam, 1, t)
        d2, o2 = pt.delta_omega(a, x, lam, 2, t)
        d3, o3 = pt.delta_omega(a, x, lam, 3, t)
        worst_closed = float(np.max([
            worst_closed,
            abs(d1 - 1.0), abs(o1 - 1.0),
            abs(d2 - (lam - xx)), abs(o2 - (lam - 2 * xx)),
            abs(d3 - (lam**2 - lam * xx - axx + xx**2)),
            abs(o3 - (lam**2 - 2 * lam * xx - 2 * axx + 3 * xx**2)),
        ]))
        for k in range(1, 6):
            _, om = pt.delta_omega(a, x, lam, k, t)
            q = float((x * x / (lam - a)).sum())
            resid = abs(2 * om * (1 + q) - 2 * pt.delta_value(t, k, lam)
                        - float((x / (lam - a)) @ t.gradV[k - 1]))
            worst_omega = float(np.maximum(worst_omega, resid))
    return [
        CheckRecord("hierarchy/closed-forms", worst_closed, 1e-12),
        CheckRecord("hierarchy/recurrence-closure", worst_closure, 1e-12),
        CheckRecord("hierarchy/omega-identity", worst_omega, 1e-9),
    ]


# ---------------------------------------------------------------------------
# reduction compatibility
# ---------------------------------------------------------------------------

def suite_reduction_compatibility(seed=0, T=5.0, tol=1e-7) -> list[CheckRecord]:
    """Flow-then-reduce versus reduce-then-flow for the complex system, at
    every 100th step of h = 1e-3."""
    rng = np.random.default_rng(seed)
    sys_c = SystemSpec("complex_jacobi", AXES3, sigma=0.4)
    worst = 0.0
    for _ in range(3):
        sc = random_state(sys_c, rng)
        x0, y0, mu0, _ = torus_reduce(sc.x, sc.y)
        sys_r = SystemSpec("jacobi_rosochatius", AXES3, sigma=0.4,
                           mu=tuple(np.abs(mu0)))
        trc = integrate(sys_c, sc, T, 1e-3)
        trr = integrate(sys_r, PhaseState(x0, y0), T, 1e-3)
        for k in range(0, len(trc.t), 100):
            xr, yr, _, _ = torus_reduce(trc.x[k], trc.y[k])
            worst = float(np.max([worst, np.max(np.abs(xr - trr.x[k])),
                                  np.max(np.abs(yr - trr.y[k]))]))
    return [CheckRecord("reduction-compatibility/pointwise", worst, tol)]


SUITES = {
    "lax-residual": suite_lax_residual,
    "conservation": suite_conservation,
    "bracket-commutation": suite_bracket_commutation,
    "peta-relation": suite_peta_relation,
    "rank-dimension": suite_rank_dimension,
    "billiard-oracle": suite_billiard_oracle,
    "caustics": suite_caustics,
    "poncelet": suite_poncelet,
    "discrete-lax": suite_discrete_lax,
    "BD-residual": suite_bd_residual,
    "hierarchy-identities": suite_hierarchy_identities,
    "reduction-compatibility": suite_reduction_compatibility,
}


def run_suites(names=None, seed=0, overrides=None) -> list[CheckRecord]:
    """Run the selected suites (all by default) with optional tolerance
    overrides keyed by suite name.

    Every name, selected or overridden, is checked before any suite runs; an
    override may only name a suite that takes a `tol` parameter.
    """
    names = list(SUITES) if names is None else list(names)
    overrides = overrides or {}
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; "
                              f"known: {', '.join(sorted(SUITES))}")
    tunable = [n for n, fn in SUITES.items()
               if "tol" in inspect.signature(fn).parameters]
    for name in overrides:
        if name not in tunable:
            raise ConfigError(f"no tolerance override for suite {name!r}; "
                              f"suites that take one: {', '.join(tunable)}")
    out = []
    for name in names:
        kwargs = {"seed": seed}
        if name in overrides:
            kwargs["tol"] = overrides[name]
        out.extend(SUITES[name](**kwargs))
    return out
