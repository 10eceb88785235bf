"""Shared exception types."""

from __future__ import annotations

# Error messages quote the offending input at most this many characters long.
_QUOTE_LIMIT = 60


def _text(value, spell=str) -> str:
    """spell(value) for an error message. A value that the interpreter
    refuses to write (``str()`` of an integer past its digit limit raises
    ``ValueError``) gives a placeholder, so that the error being built
    keeps its own type and message."""
    try:
        return spell(value)
    except ValueError:
        return f"<{type(value).__name__} with a numeral too long to quote>"


def _quote(value) -> str:
    """The repr of value for an error message (``_text``), clipped with an
    ellipsis so that a huge word, row or nested input gives a short
    message."""
    text = _text(value, repr)
    return text if len(text) <= _QUOTE_LIMIT else text[: _QUOTE_LIMIT - 3] + "..."


def _entries(arg, error: type[Exception], what: str) -> tuple:
    """The entries of a constructor's argument, read once into a tuple.
    Only ``iter()`` is guarded: an argument that is not iterable at all
    raises ``error`` with ``what`` and the quoted argument, while a
    ``TypeError`` raised as the entries are read, inside a generator, keeps
    its own message."""
    try:
        entries = iter(arg)
    except TypeError:
        raise error(f"{what}, got {_quote(arg)}") from None
    return tuple(entries)


class NotARowError(ValueError):
    """An operation that requires a (timed) row was given something else."""


class InvalidTableauError(ValueError):
    """Rows violate one of the tableau conditions."""


class BudgetExceededError(RuntimeError):
    """An exhaustive search outgrew its state budget."""


class OracleSizeError(RuntimeError):
    """A Greene oracle instance exceeds one of its size bounds."""


class InvalidMoveError(ValueError):
    """A Knuth move failed validation on the given word.

    ``condition`` names the violated side condition, e.g. ``"length-mismatch"``.
    """

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


class NotationError(ValueError):
    """Malformed textual input; ``position`` is the character offset, if known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
