"""Exception types shared across the package.

The hierarchy distinguishes configuration problems (bad inputs, caught before
any numerics run) from numerical failures (an algorithm that started but could
not finish within its contract). The CLI maps these onto exit codes.
"""

from __future__ import annotations


class LindquadError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LindquadError, ValueError):
    """Invalid descriptor, schema violation, or inconsistent parameters."""


class NonSymplectic(ConfigError):
    """A matrix supposed to satisfy C^T J C = J does not."""


class NotPositiveDefinite(ConfigError):
    """A covariance matrix is not symmetric positive definite."""


class SingularFrame(ConfigError):
    """The momentum-dissipation frame change needs H_11 != 0."""


class GridTooCoarse(LindquadError, ValueError):
    """A sampling grid cannot represent the field to the required tail mass."""


class QuadratureNotConverged(LindquadError, RuntimeError):
    """Adaptive quadrature exhausted its refinement budget."""


class AsymptoticInvalid(LindquadError, ValueError):
    """The long-time purity law's validity precondition fails.

    Carries the offending eigenvalue of -M(-t) in ``eigenvalue``.
    """

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = float(eigenvalue)


class Unstable(LindquadError, RuntimeError):
    """A time integration showed runaway growth or broken invariants."""


class TruncationLeak(LindquadError, RuntimeError):
    """Fock-space truncation boundary accumulated non-negligible population."""
