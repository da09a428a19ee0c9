"""Exception taxonomy shared across the package.

Everything raised on purpose derives from QuiverError so callers can
distinguish bad input from bugs.
"""

from __future__ import annotations


class QuiverError(Exception):
    """Base class for all library errors."""


class NonComposable(QuiverError):
    """A path asked for along arrows whose endpoints do not meet."""


class TrivialPath(QuiverError):
    """An operation that needs a non-trivial path got a trivial one."""


class UnknownLabel(QuiverError):
    """A vertex or arrow id that is not declared in the quiver."""


class InvalidPresentation(QuiverError):
    """A relation or presentation violates a structural invariant."""


class NotAdmissible(QuiverError):
    """No admissibility bound was found up to the cap."""

    def __init__(self, cap: int):
        super().__init__(f"no admissibility bound found with cap {cap}")
        self.cap = cap


class PathInIdeal(QuiverError):
    """coset_paths() called on a path that lies in the ideal."""


class NotSpecialMultiserial(QuiverError):
    """Operation requires a special multiserial algebra; a witness is attached."""

    def __init__(self, witness=None):
        msg = "algebra is not special multiserial"
        if witness is not None:
            msg += f" (witness: {witness})"
        super().__init__(msg)
        self.witness = witness


class BrauerValidationError(QuiverError):
    """One or more Brauer graph invariants failed; diagnostics attached."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = tuple(diagnostics)


class InvariantViolation(QuiverError):
    """An internal invariant failed; a bug, never bad input."""
