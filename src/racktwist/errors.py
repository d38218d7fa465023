"""Exceptions shared across the package.

The CLI maps these onto exit codes: usage problems exit 1, failed
mathematical checks exit 2, resource-cap violations exit 3.
"""


class RackTwistError(Exception):
    """Base class for errors raised by racktwist operations."""


class DimensionCapError(RackTwistError):
    """A tensor-power dimension exceeded the cap, or is too large for the requested mode."""


class SectionConsistencyError(RackTwistError):
    """s(x)s(y) was neither s(xy) nor -s(xy); the section data is corrupt."""
