"""Exception types shared across the toolkit.

Every domain failure raises a subclass of :class:`DomainError` carrying a
machine-readable ``code`` so the command line layer can emit structured
errors and exit with status 1, keeping status 2 for usage problems.
"""

from __future__ import annotations

# What decoding malformed JSON data raises before a decoder turns it into a
# DomainError: a missing key, a value of the wrong type, an unparsable string,
# a number out of range (int of Infinity, float of 10**400), nesting too deep.
MALFORMED = (KeyError, TypeError, ValueError, AttributeError, OverflowError, RecursionError)


def json_int(value) -> int:
    """``value`` if it is a JSON integer; a float, bool or string raises TypeError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_list(value) -> list:
    """``value`` as a list if it is a JSON array, a list or tuple; a string or an
    object, which ``list()`` reads as its characters or keys, raises TypeError."""
    if not isinstance(value, (list, tuple)):
        iter(value)  # a number, bool or null: list()'s "... object is not iterable"
        raise TypeError(f"expected an array, got {type(value).__name__}")
    return list(value)


def json_number(value) -> float:
    """``float(value)`` if ``value`` is a JSON number; a bool, string or anything else
    raises TypeError, and an integer too large for a float raises OverflowError."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


class DomainError(Exception):
    """Base class for input data that is well-formed JSON but invalid mathematics."""

    code = "domain-error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details

    def to_json(self) -> dict:
        return {"error": self.code, "message": str(self), "details": self.details}


class GraphFormatError(DomainError):
    """Graph data violates the multigraph contract (duplicate ids, dangling endpoints)."""

    code = "graph-format"


class PathError(DomainError):
    """Edge sequence is not a path of the host graph."""

    code = "path"


class NotACycle(PathError):
    """A cycle-only operation received a path whose source and range differ."""

    code = "not-a-cycle"


class NonTotalPresentation(DomainError):
    """Explicit atomic data leaves some basis index without an image under pi."""

    code = "non-total-presentation"


class InvalidColoring(DomainError):
    """Edge coloring is not strong or does not match the graph."""

    code = "invalid-coloring"


class PartialAutomaton(DomainError):
    """Backward transition is undefined for some (vertex, color) pair."""

    code = "partial-automaton"


class EnumerationOverflow(DomainError):
    """A brute-force search space exceeds the configured budget."""

    code = "enumeration-overflow"
