"""Exception hierarchy shared by all nilclean modules."""


class NilcleanError(Exception):
    """Base class for all errors raised by this package."""


class InputError(NilcleanError):
    """Malformed or inconsistent input (bad dimensions, bad parse, disagreeing ring fields)."""


class UnsupportedRingError(NilcleanError):
    """The requested ring is outside the family the construction supports."""


class ResourceCapError(NilcleanError):
    """A request is over one of the package's caps: the truncation degree, the
    size of an exhaustive sweep, the size of a ring the oracle scans, or the
    oracle's work budget."""


class InternalCheckError(NilcleanError):
    """A construction failed its own verification; indicates a bug, never bad input.

    ``invariant`` names the check that broke; ``matrix``, when known, is the
    input that reproduces it.
    """

    def __init__(self, invariant: str, matrix=None):
        super().__init__(invariant if matrix is None else f"{invariant}; input {matrix!r}")
        self.invariant = invariant
        self.matrix = matrix
