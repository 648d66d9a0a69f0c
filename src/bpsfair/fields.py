"""One typed field reader for config sections and model artifact headers.

A kind is ``int``, ``float``, ``bool``, ``str``, ``list``, ``dict``, an
Enum, ``TEXT``, a ``Range`` (a number kind with a value range, such as
``POSITIVE_INT``, or a string kind with a set of names), ``[k]`` (a list
of ``k`` values, read as a tuple) or ``{k: v}`` (a mapping of ``k`` keys
to ``v`` values).  A value, key or block that its kind does not take
raises ConfigError naming it.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields
from enum import Enum
from typing import Callable, Mapping, NamedTuple

from .errors import ConfigError

__all__ = ["TEXT", "Range", "POSITIVE_INT", "NON_NEGATIVE_INT", "POSITIVE", "NON_NEGATIVE",
           "FRACTION", "OPEN_FRACTION", "typed", "read", "Record"]


class TEXT:
    """Kind of a scalar read as its text, ``str(value)``.

    A list, mapping or null is refused, and so is a boolean: YAML reads an
    unquoted ``yes`` or ``no`` as one, whose text would be ``True`` or ``False``.
    """


class Range(NamedTuple):
    """Kind of an ``int``, ``float`` or ``str`` value that ``accepts``; ``name`` says which."""

    base: type
    name: str
    accepts: Callable


POSITIVE_INT = Range(int, "a positive integer", lambda v: v >= 1)
NON_NEGATIVE_INT = Range(int, "a non-negative integer", lambda v: v >= 0)
POSITIVE = Range(float, "a finite positive number", lambda v: 0.0 < v < math.inf)
NON_NEGATIVE = Range(float, "a finite non-negative number", lambda v: 0.0 <= v < math.inf)
FRACTION = Range(float, "a number in [0, 1)", lambda v: 0.0 <= v < 1.0)
OPEN_FRACTION = Range(float, "a number in (0, 1)", lambda v: 0.0 < v < 1.0)

_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
               list: "a list", dict: "a mapping", TEXT: "a string or number"}


def typed(kind, value, key):
    """``value`` read as ``kind``; ConfigError names ``key``, or ``key.<k>`` for a mapping's value.

    A number kind takes no boolean and an integer kind no fractional,
    infinite or NaN number, which int() would read as 1 or truncate; an
    integral float or a numeric string is taken.  A bool, str, list or dict
    kind takes only that type: bool("false") is True, and str() or list()
    take anything.  A ``Range`` also refuses a value outside it, NaN included.
    """
    if isinstance(kind, list):
        return tuple(typed(kind[0], item, key) for item in typed(list, value, key))
    if isinstance(kind, dict):
        ((key_kind, value_kind),) = kind.items()
        return {typed(key_kind, k, f"{key} key"): typed(value_kind, v, f"{key}.{k}")
                for k, v in typed(dict, value, key).items()}
    base = kind.base if isinstance(kind, Range) else kind
    try:
        if kind is TEXT:
            if value is None or isinstance(value, (bool, list, dict)):
                raise ValueError
            return str(value)
        if (base in (int, float) and isinstance(value, bool)
                or base is int and isinstance(value, float) and not value.is_integer()
                or base in (bool, str, list, dict) and not isinstance(value, base)):
            raise ValueError
        read_value = base(value)
        if isinstance(kind, Range) and not kind.accepts(read_value):
            raise ValueError
        return read_value
    except (TypeError, ValueError, OverflowError):
        name = (kind.name if isinstance(kind, Range) else f"one of {[m.value for m in kind]}"
                if isinstance(kind, type) and issubclass(kind, Enum) else _KIND_NAMES[kind])
        hint = " (quote yes/no/true/false)" if kind is TEXT and isinstance(value, bool) else ""
        raise ConfigError(f"{key} must be {name}, got {value!r}{hint}") from None


def read(block, section: str, kinds: dict) -> dict:
    """The mapping ``block``'s values, each typed as ``kinds`` names it (None: as written).

    A key ``kinds`` does not name is refused; a key the block leaves out
    stays out, so the dataclass the section builds supplies its default.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"[{section}] must be a mapping, got {block!r}")
    unknown = sorted(set(block) - set(kinds), key=str)
    if unknown:
        raise ConfigError(f"unknown [{section}] fields {unknown}")
    return {key: value if kinds[key] is None else typed(kinds[key], value, f"{section}.{key}")
            for key, value in block.items()}


def _plain(value):
    """``value`` as JSON holds it: a tuple as a list, a mapping as a dict."""
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    return value


class Record:
    """Base of a dataclass whose ``KINDS`` table, in ``to_dict`` key order, reads and writes it.

    ``SECTION`` names the block in ``from_dict``'s errors.  A field whose kind
    is a ``Range`` is stored as ``typed`` reads it, naming the field.
    """

    def __post_init__(self):
        for name, kind in self.KINDS.items():
            if isinstance(kind, Range):
                object.__setattr__(self, name, typed(kind, getattr(self, name), name))

    def to_dict(self) -> dict:
        return {name: _plain(getattr(self, name)) for name in self.KINDS}

    @classmethod
    def from_dict(cls, block):
        """Inverse of ``to_dict``; each field without a default is required."""
        values = read(block, cls.SECTION, cls.KINDS)
        missing = [f.name for f in fields(cls) if f.name not in values
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ConfigError(f"missing [{cls.SECTION}] fields {missing}")
        return cls(**values)
