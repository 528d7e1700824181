import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "confocal"

# Raise this bound only on purpose, for a new option whose reason is recorded
# in CHANGES.md; lower it when an option goes.
MAX_DEFAULTED_PARAMETERS = 56


def defaulted_parameters() -> dict[str, int]:
    """Defaulted parameters of each module-level public function of the
    package, keyed module.function (functions without any are left out)."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                count = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
                if count:
                    out[f"{path.stem}.{node.name}"] = count
    return out


def test_defaulted_parameters_stay_within_the_bound():
    counts = defaulted_parameters()
    assert sum(counts.values()) <= MAX_DEFAULTED_PARAMETERS, counts


def test_the_count_reads_known_signatures():
    counts = defaulted_parameters()
    assert counts["suites.suite_conservation"] == 4
    assert counts["dynamics.integrate"] == 1
    assert "dynamics.rhs" not in counts
    # gone with the hand-written gradients and the evaluator path of the bracket
    assert "lax.gradient_pair_sum" not in counts
    assert "dynamics.dirac_bracket" not in counts
    assert "billiard.orbit_caustics" not in counts
    # options with one value in use, now constants
    assert counts["suites.suite_hierarchy_identities"] == 1  # seed
    assert counts["suites.suite_reduction_compatibility"] == 3  # seed, T, tol
    assert "billiard.oracle_step" not in counts  # h gave way to the step rule
    assert "svgplot.boundary_ellipse_points" not in counts
    assert "svgplot.confocal_conic_points" not in counts
    assert counts["sampling.random_state"] == 1  # seed_or_rng; y_scale went
    assert "geometry.tangency_value" not in counts  # sigma: the line only
    assert "potentials.hierarchy_potential" not in counts  # mu is required
    assert "potentials.hierarchy_gradient" not in counts
