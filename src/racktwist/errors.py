"""Exceptions shared across the package.

The CLI maps these onto exit codes: usage problems exit 1, failed
mathematical checks exit 2, resource-cap violations exit 3.
"""


class RackTwistError(Exception):
    """Base class for errors raised by racktwist operations."""


class DimensionCapError(RackTwistError):
    """A resource limit: what a run would build exceeds the dimension cap (a rack table, the group of
    translations, a Phi_r, a tensor power), a symmetrizer's entry keys or lift counts would overflow 64
    bits, a degree is past what a report lists, or a cocycle order is too large for 64-bit exponents or
    31-bit primes."""


class RackAxiomError(RackTwistError, ValueError):
    """An input lacks an axiom that a computation needs: bijective rows, self-distributivity, the cocycle condition."""


class SectionConsistencyError(RackTwistError):
    """s(x)s(y) was neither s(xy) nor -s(xy); the section data is corrupt."""
