"""Exception and warning types shared across the package, and `warn`, which
emits every warning it raises."""

import os
import sys
import warnings

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


class QFisherError(Exception):
    """Base class for all errors raised by this package."""


class NonIntegrable(QFisherError, ValueError):
    """Requested density has no finite normalization on R^n."""


class GridTooCoarse(QFisherError, ValueError):
    """Grid is too small or too coarse to represent the requested density."""


class DegenerateEscort(QFisherError, ValueError):
    """Escort normalization integral underflows or is not finite."""


class IncompatibleFactor(QFisherError, ValueError):
    """Coarse-graining factor does not divide the point count."""


class SupportMismatch(QFisherError, ValueError):
    """Numerator is nonzero where the reference density vanishes."""


class NonConvergent(QFisherError, RuntimeError):
    """Extrapolation sequence failed its Cauchy criterion."""


class JacobianSingular(QFisherError, RuntimeError):
    """Reparameterization Jacobian is singular or not finite."""


class SingularFisherMatrix(QFisherError, RuntimeError):
    """Fisher information matrix cannot be inverted reliably."""


class UnstableStep(QFisherError, RuntimeError):
    """A diffusion step cannot proceed.

    Raised when an explicit step goes negative (an RKL2 super step that does
    is first redone with explicit steps), or when a flat state sets no step size.
    """


class ParameterError(QFisherError, ValueError):
    """A parameter breaks its rule; `names` are the parameters the rule involves."""

    def __init__(self, names: tuple[str, ...], rule: str):
        super().__init__(f"{' and '.join(names)} {rule}")
        self.names = names
        self.rule = rule


class ConfigError(QFisherError, ValueError):
    """Invalid or unknown configuration for the command-line tool."""


class TruncationWarning(UserWarning):
    """Moment integrand carries non-negligible weight at the grid boundary."""


class BoundaryMassWarning(UserWarning):
    """Density is not negligible at the grid boundary."""


class AliasingWarning(UserWarning):
    """Spectral tail mass suggests the transform is under-resolved."""


def warn(message: str, category: type[Warning]) -> None:
    """Emit `message` as a `category` warning that names the innermost caller
    outside this package: the frame `warnings.warn(..., skip_file_prefixes=...)`
    names from Python 3.12, found here by walking the stack."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)
