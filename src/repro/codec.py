"""One field-driven JSON codec for the frozen records, and one digest.

The result store and the wire protocol exchange the tuner's records —
configurations, objective values, EM references, served cells, race
ledgers, workload specs, counter ledgers — as JSON objects.  Every one
of them is a dataclass of scalars, tuples and nested dataclasses, so
one rule encodes them all:

- a dataclass becomes ``{field name: encoded value}`` for every field,
  in declaration order;
- a tuple or list becomes a list, a dict is copied key by key;
- a scalar passes through — ``json`` round-trips floats exactly, since
  ``repr`` emits the shortest string that parses back to the same
  IEEE-754 double.

:func:`decode` inverts it from the type annotations alone: ``X | None``,
``tuple[X, ...]``, nested dataclasses and the scalars ``int`` /
``float`` / ``str`` / ``bool``, each scalar coerced by its annotation.
Records rebuild through their constructors, so ``__post_init__``
validation reruns on every decode, and plain dataclass equality (``==``)
is exact-value equality after a round trip.

:func:`digest` is the content identity the caches key on: a sha256 over
the value's ``repr``, which for frozen dataclasses, tuples and scalars
is deterministic and spells out every field.

Stdlib only and importing nothing from :mod:`repro`, so the lowest
layers (workload specs, the transfer registry) can use it without an
import cycle.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import types
import typing
from typing import Any, Callable


#: JSON's own value types, which encode as themselves.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def digest(value: Any) -> str:
    """sha256 hex digest of ``repr(value)``: equal values, equal digests."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def encode(obj: Any) -> Any:
    """The JSON-able form of a record (see the module docstring)."""
    if type(obj) in _SCALARS:
        return obj
    if isinstance(obj, (tuple, list)):
        return [encode(value) for value in obj]
    if isinstance(obj, dict):
        return {key: encode(value) for key, value in obj.items()}
    names = _field_names(type(obj))
    if names is None:
        return obj
    return {name: encode(getattr(obj, name)) for name in names}


def decode(cls: type, data: dict) -> Any:
    """Rebuild a ``cls`` record from its :func:`encode` form."""
    return cls(**{name: rebuild(data[name]) for name, rebuild in _decode_plan(cls)})


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> tuple[str, ...] | None:
    """Field names in declaration order, or ``None`` when ``cls`` is not
    a dataclass (its values pass through)."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls))


@functools.lru_cache(maxsize=None)
def _decode_plan(cls: type) -> tuple[tuple[str, Callable[[Any], Any]], ...]:
    """``(name, decoder)`` per field, in declaration order."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, _decoder(hints[f.name])) for f in dataclasses.fields(cls))


def _decoder(annotation: Any) -> Callable[[Any], Any]:
    """The function that rebuilds one annotated value from JSON."""
    if annotation in (int, float, str, bool):
        return annotation
    if dataclasses.is_dataclass(annotation):
        return functools.partial(decode, annotation)
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = _decoder(args[0] if args[1] is type(None) else args[1])
        return lambda value: None if value is None else inner(value)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = _decoder(args[0])
        return lambda values: tuple(item(value) for value in values)
    raise TypeError(f"the codec cannot decode {annotation!r}")
