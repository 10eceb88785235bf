"""Shared exception types, the helpers that quote values in their
messages, and ``_lazy_module``, through which the package reaches the
``fractions`` module."""

from __future__ import annotations

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

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


def _lazy_module(name: str):
    """The module ``name``, registered now and executed on the first read
    of one of its attributes (``importlib.util.LazyLoader``); a module
    already in ``sys.modules`` is returned as it is. The package reaches
    ``fractions`` so, as ``fractions.Fraction``: ``fractions`` imports
    ``decimal`` and ``numbers``, which a process whose command builds no
    ``Fraction`` (a classical word's commands, a timed ``insert``) never
    executes."""
    module = sys.modules.get(name)
    if module is None:
        spec = find_spec(name)
        spec.loader = LazyLoader(spec.loader)
        module = module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


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
