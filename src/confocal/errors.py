"""Exception types shared across the package."""


class ConfocalError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(ConfocalError):
    """Input arrays have incompatible shapes."""


class SymmetricChartError(ConfocalError):
    """Elliptic coordinates requested for an ellipsoid with repeated axes."""


class DegenerateChartError(ConfocalError):
    """Point lies on a coordinate hyperplane; the elliptic chart breaks down."""


class PoleError(ConfocalError):
    """Spectral / confocal parameter coincides with an axis value."""


class ConstraintError(ConfocalError):
    """Phase-space point violates the constraint equations beyond tolerance."""


class ProjectionError(ConfocalError):
    """Post-step constraint projection failed to converge."""


class SingularAxisError(ConfocalError):
    """A coordinate with a nonzero angular charge reached (or crossed) zero."""


class MultiplierSingularError(ConfocalError):
    """The Lagrange-multiplier denominator vanished."""


class ReductionSingularError(ConfocalError):
    """Polar reduction at a zero coordinate with nonzero angular momentum."""


class InvariantVarietyError(ConfocalError):
    """Large Lax pair requested off the invariant variety where it is defined."""


class GrazingOrSingularError(ConfocalError):
    """Billiard step at a grazing impact or with a vanishing map denominator."""


class EscapeError(ConfocalError):
    """Billiard segment never returned to the boundary within the time budget."""


class ConfigError(ConfocalError):
    """Run configuration is malformed or violates the schema."""
