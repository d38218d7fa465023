"""Exceptions shared across the package.

The CLI maps these onto exit codes: usage problems exit 1, failed
mathematical checks exit 2, resource-cap violations exit 3.
"""


class RackTwistError(Exception):
    """Base class for errors raised by racktwist operations."""


class DimensionCapError(RackTwistError):
    """A resource limit: a tensor power exceeded the dimension cap, a symmetrizer's entry keys or lift
    counts would overflow 64 bits, or a cocycle order is too large for 64-bit exponents or 31-bit primes."""


class RackAxiomError(RackTwistError, ValueError):
    """An input lacks an axiom that a computation needs: bijective rows, self-distributivity, the cocycle condition."""


class SectionConsistencyError(RackTwistError):
    """s(x)s(y) was neither s(xy) nor -s(xy); the section data is corrupt."""
