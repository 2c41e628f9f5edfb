"""Exception types shared across the package."""

from __future__ import annotations


class StacksptError(Exception):
    """Base class for every error raised by this package."""


class ParseError(StacksptError):
    """Malformed instance or candidate text.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(StacksptError):
    """A structurally well-formed value violates a semantic constraint."""


class UnreachableVertexError(StacksptError):
    """A vertex with positive demand cannot be reached from the root."""
