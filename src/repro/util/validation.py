"""Argument-validation helpers.

Configuration objects across the simulator validate their fields eagerly so
that a bad parameter fails at construction time with a clear message rather
than deep inside a run. These helpers keep those checks terse and uniform.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Dict, FrozenSet, Optional, Tuple

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_power_of_two",
    "field_names",
    "field_set",
    "require_fields",
]


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_non_negative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_in_range(name: str, value: float, lo: float, hi: float) -> None:
    """Raise ``ValueError`` unless ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def check_power_of_two(name: str, value: int) -> None:
    """Raise ``ValueError`` unless ``value`` is a positive power of two."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ValueError(f"{name} must be a positive power of two, got {value!r}")


@functools.lru_cache(maxsize=None)
def field_names(cls: type) -> Tuple[str, ...]:
    """``cls``'s dataclass field names, in order, computed once per class."""
    return tuple(f.name for f in dataclasses.fields(cls))


@functools.lru_cache(maxsize=None)
def field_set(cls: type, extra: Tuple[str, ...] = (),
              omit: Tuple[str, ...] = ()) -> FrozenSet[str]:
    """The exact key set of ``cls``'s payload: its fields plus ``extra``
    envelope keys, minus ``omit`` unserialised fields."""
    return frozenset(field_names(cls)).union(extra).difference(omit)


def require_fields(doc: Any, cls: type, what: str,
                   extra: Tuple[str, ...] = (), omit: Tuple[str, ...] = (),
                   error: type = ValueError,
                   missing_error: Optional[type] = None) -> Dict[str, Any]:
    """``doc`` itself, if it is a dict keyed by exactly :func:`field_set`.

    Otherwise raises ``error``, or ``missing_error`` (when given) if keys
    are only missing — defaulted fields included, which ``cls(**doc)``
    would silently fill in.
    """
    if not isinstance(doc, dict):
        raise error(f"{what} payload is not an object")
    expected = field_set(cls, extra, omit)
    if doc.keys() != expected:
        missing = sorted(expected - doc.keys())
        unexpected = sorted(doc.keys() - expected)
        raise (missing_error if missing_error and not unexpected else error)(
            f"bad {what} fields: missing {missing}, unexpected {unexpected}"
        )
    return doc
