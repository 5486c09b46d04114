"""Exception types shared across the package."""


class OttoPairError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(OttoPairError):
    """Parameters are outside the physically valid region (e.g. an
    unstable / imaginary normal mode, or a non-positive frequency)."""


class InconsistentEnergy(OttoPairError):
    """Heats and work passed in do not satisfy W = Q_h + Q_c."""


class DegenerateBaths(OttoPairError):
    """Hot and cold bath temperatures coincide."""


class UnknownModel(OttoPairError):
    """Unrecognized coupling-model or prediction tag."""


class EmptyDomain(OttoPairError):
    """Search domain contains no candidate points."""


class NumericalError(OttoPairError):
    """A numerical guard tripped (broken state, truncation cap, ...)."""


class ConfigError(OttoPairError):
    """Invalid run configuration (CLI / config file)."""
