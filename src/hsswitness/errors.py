"""Exception types shared across the library."""


class HsswitnessError(Exception):
    """Base class for all library errors."""


class NotHermitian(HsswitnessError):
    """Matrix fails the Hermiticity tolerance."""


class NotDensityMatrix(HsswitnessError):
    """Matrix is not a valid density matrix (trace/positivity violated)."""


class BadSubsystemIndex(HsswitnessError):
    """Subsystem index out of range or dims not bipartite."""


class InvalidParams(HsswitnessError):
    """Physical parameters outside their allowed domain."""


class InvalidP(InvalidParams):
    """Mixing parameter p outside [0, 1/2]."""


class UnsupportedScenario(HsswitnessError):
    """Scenario combination not covered by the implemented noise models."""


class ConfigInvalid(HsswitnessError):
    """Run configuration failed validation."""
