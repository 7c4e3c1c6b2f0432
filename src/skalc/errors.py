"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["SkalcError", "ValidationError", "ResourceCapError", "InternalCheckError"]


class SkalcError(Exception):
    """Base class for all package errors."""


class ValidationError(SkalcError):
    """Bad input: schema violations, out-of-domain arguments, malformed files.

    The CLI maps this to exit code 2.
    """


class ResourceCapError(SkalcError):
    """Request exceeds an enumeration or support-size cap.

    The CLI maps this to exit code 3.
    """


class InternalCheckError(SkalcError):
    """A self-check that should hold by construction failed.  Always a bug.

    The CLI maps this to exit code 4.
    """
