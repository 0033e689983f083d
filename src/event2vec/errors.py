"""Exception hierarchy shared across the package.

Every error raised intentionally by this package derives from
:class:`Event2VecError`, so callers can catch one type at the boundary.
The CLI maps subclasses to distinct exit codes.
"""

from __future__ import annotations

import math
import numbers


class Event2VecError(Exception):
    """Base class for all errors raised by event2vec."""


class UsageError(Event2VecError, ValueError):
    """Invalid argument values or misuse of the public API."""


class BallDomainError(UsageError):
    """A point lies outside the open Poincare ball for the given curvature."""


class DataFormatError(Event2VecError, ValueError):
    """A file or payload does not conform to the expected format."""


class NumericalError(Event2VecError, RuntimeError):
    """A numerical invariant failed at runtime (NaN/Inf in training, etc.)."""


def check_config_types(config, ints: tuple[str, ...], reals: tuple[str, ...]) -> None:
    """Raise :class:`UsageError` unless each ``ints`` field of ``config`` is an integer
    and each ``reals`` field a finite number (``bool`` is neither)."""
    for name in ints:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise UsageError(f"{name} must be an integer, got {value!r}")
    for name in reals:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
            raise UsageError(f"{name} must be a finite number, got {value!r}")
