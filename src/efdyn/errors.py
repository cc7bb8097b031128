"""Exception hierarchy shared across the package."""


class EfdynError(Exception):
    """Base class for all package-specific errors."""


class ZeroDiscriminant(EfdynError):
    """The coupling discriminant D = delta*mu - (p-1-s)(q-1-m) vanishes."""


class DegeneratePoint(EfdynError):
    """A radial state sits outside the phase chart (u, v, u' or v' is zero)."""


class ZeroCoordinate(EfdynError):
    """A phase coordinate required to be nonzero is zero."""


class PreconditionViolated(EfdynError):
    """Arguments violate a documented precondition."""


class UndefinedPoint(EfdynError):
    """Requested fixed point is undefined for these parameters (denominator vanishes)."""


class NotApplicable(EfdynError):
    """The requested object does not exist for these parameters/signs."""


class NotCritical(EfdynError):
    """Parameters are not on the critical curve required by the operation."""


class DegenerateState(EfdynError):
    """State is inadmissible for the requested energy evaluation."""


class StepSizeUnderflow(EfdynError):
    """The integrator step size collapsed (stiffness near blow-up); the kernel
    (`dop853`) raises it. `run` is the failed run, a `dop853.Solution` with
    status -1: its points `t` and states `y` up to the collapse, and its
    dense output (`at`) over them, a shot's run as any other."""

    def __init__(self, message, run=None):
        super().__init__(message)
        self.run = run


class SeriesInvalid(EfdynError):
    """The regular-solution startup series does not apply (min(p+a, q+b) <= 0)."""


class Inconclusive(EfdynError):
    """No verdict from the numbers at hand: a shot that leaves the box without
    crossing a face, or crosses one but does not blow up by its horizon T_END,
    or an oracle comparison whose phase run never leaves 60% of the box or
    that has no overlap window."""


class ConfigError(EfdynError):
    """Invalid run configuration; carries the offending field path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
