"""Exception types shared across the package.

Every typed failure the public operations can raise lives here so that the
CLI can map them to stable exit codes.
"""


class RecdiffError(Exception):
    """Base class for all package-specific failures."""


class MalformedConfig(RecdiffError):
    """A sequence config document is structurally invalid (missing/extra fields)."""


class InvalidRecurrence(RecdiffError):
    """Recurrence data violates the definition (c_k = 0, length mismatch, ...)."""


class PrecisionExhausted(RecdiffError):
    """A certified decision could not be made below the precision cap."""

    def __init__(self, message, bits=None):
        super().__init__(message)
        self.bits = bits


class NoDominantRoot(RecdiffError):
    """Two roots of maximal modulus, or the zero sequence, which has no root."""


class RootNotLargerThanOne(RecdiffError):
    """The dominant root has modulus <= 1."""


class CutoffUnsafe(RecdiffError):
    """The counting safety window could not be certified; result withheld."""


class UnsupportedDegree(RecdiffError):
    """Exact height arithmetic requested outside Q or quadratic fields."""


class InvalidBelowThreshold(RecdiffError):
    """x is below the validity threshold of the lower-bound construction."""


class InvalidParameters(RecdiffError):
    """Auxiliary-lemma parameters violate the stated preconditions."""
