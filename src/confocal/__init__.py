"""Integrable flows, Lax pairs and billiards on ellipsoids and their
confocal quadric families."""

from .billiard import BilliardSpec, ImpactState
from .dynamics import PhaseState, SystemSpec
from .geometry import EllipsoidSpec, EllipticCoords

__version__ = "0.1.0"

__all__ = [
    "BilliardSpec",
    "EllipsoidSpec",
    "EllipticCoords",
    "ImpactState",
    "PhaseState",
    "SystemSpec",
    "__version__",
]
