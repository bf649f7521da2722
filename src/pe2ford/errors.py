"""Exception types shared across the package."""

from __future__ import annotations


class InvalidDiscriminant(ValueError):
    """Raised for discriminants that are not negative or not 0, 1 mod 4."""


class OutOfScope(ValueError):
    """Raised when a computation is requested outside its validity range."""


class WordSyntaxError(ValueError):
    """Raised on malformed word text; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegenerateChain(ArithmeticError):
    """Raised when a pivot chain hits zero and cannot continue."""


class NoHemisphere(ValueError):
    """Raised when a matrix fixes infinity and has no isometric hemisphere."""


class CycleNotClosed(RuntimeError):
    """Raised when edge-cycle traversal fails to return to its start."""


class SearchExhausted(RuntimeError):
    """Raised when an enumeration cannot supply enough verified items."""
