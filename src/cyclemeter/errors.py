"""Exception types shared across the package.

Every raised condition maps to one of these so the CLI can translate
failures into stable exit codes (see cli.EXIT_*).
"""


class UsageError(ValueError):
    """Invalid argument, malformed config, or an out-of-contract call."""


class ResourceError(RuntimeError):
    """A computation was refused: past a size cap, or needing a double (h_n) past its range."""


class DegenerateMeasureError(ArithmeticError):
    """h_n = 0 exactly, or as a double with theta_1 = 0, so no measure; or an oracle mismatch."""


class UnsupportedClassError(RuntimeError):
    """Asymptotic estimate requested for weights outside the supported
    singularity classes (zero radius, infinite radius, or unclassified)."""


class ConvergenceError(RuntimeError):
    """A numerical sum or quadrature failed its convergence test."""


class GammaPoleError(ArithmeticError):
    """Gamma evaluated at a nonpositive integer."""
