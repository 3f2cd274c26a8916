"""JSON documents of dataclasses, by one walk over their fields.

A document has one key per field (its name, or ``metadata["key"]``) and a
nested object per nested dataclass.  Reading takes the allowed keys from the
fields, the defaults from the dataclass and each value's JSON type from the
field's annotation: ``float`` a number (not a bool), ``int`` an integer,
``str`` a string, ``X | None`` also null, arrays and tuples of floats a list
of numbers, ``tuple[<dataclass>, ...]`` a list of objects.  Range and shape
checks are the dataclasses' own.  Every failure is an
:class:`InvalidInputError` that starts with the path of the offending value,
e.g. ``scenario.apf.eta``.  Writing leaves out a field whose
``metadata["omit"]`` holds for its value.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

import numpy as np

from .errors import InvalidInputError


def to_doc(obj):
    """JSON-ready form of a dataclass instance and of its field values."""
    if dataclasses.is_dataclass(obj):
        doc = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if "omit" not in f.metadata or not f.metadata["omit"](value):
                doc[f.metadata.get("key", f.name)] = to_doc(value)
        return doc
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return [to_doc(v) for v in obj]
    return obj


def from_doc(cls, data, path: str):
    """Instance of the dataclass ``cls`` read from the JSON object ``data``."""
    return construct(cls, read_fields(cls, data, path), path)


def read_fields(cls, data, path: str) -> dict:
    """Constructor arguments of ``cls`` for the keys present in ``data``."""
    fields = _fields(cls)
    unknown = _check(data, dict, "an object", path).keys() - fields.keys()
    if unknown:
        raise InvalidInputError(f"{path}: unknown fields {sorted(unknown)}")
    kwargs = {}
    for key, (name, decode, required) in fields.items():
        if key in data:
            kwargs[name] = decode(data[key], f"{path}.{key}")
        elif required:
            raise InvalidInputError(f"{path}.{key}: required field missing")
    return kwargs


def construct(cls, kwargs: dict, path: str):
    """``cls(**kwargs)``, with ``path`` prefixed to a rejection's message."""
    try:
        return cls(**kwargs)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


@functools.cache
def _fields(cls) -> dict:
    """``{key: (field name, decoder, required)}``, resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {
        f.metadata.get("key", f.name): (
            f.name,
            _decoder(hints[f.name]),
            f.default is f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    }


@functools.cache
def _decoder(tp):
    """The function ``(value, path) -> field value`` for annotation ``tp``."""
    args = typing.get_args(tp)
    if type(None) in args:
        decode = _decoder(next(a for a in args if a is not type(None)))
        return lambda v, p: None if v is None else decode(v, p)
    if dataclasses.is_dataclass(tp):
        return functools.partial(from_doc, tp)
    if args and dataclasses.is_dataclass(args[0]):
        return lambda v, p: tuple(
            from_doc(args[0], item, f"{p}[{i}]")
            for i, item in enumerate(_check(v, list, "a list", p))
        )
    if tp is float:
        return _number
    if tp in (int, str):
        expected = "an integer" if tp is int else "a string"
        return lambda v, p: _check(v, tp, expected, p)
    if tp is np.ndarray:
        return lambda v, p: np.array(_numbers(v, p), dtype=float)
    if typing.get_origin(tp) is tuple:
        return lambda v, p: tuple(_numbers(v, p))
    raise TypeError(f"no JSON decoder for annotation {tp!r}")


def _check(v, kind, expected: str, path: str):
    """``v`` if it is a ``kind`` and not a bool."""
    if isinstance(v, kind) and not isinstance(v, bool):
        return v
    got = "null" if v is None else type(v).__name__
    raise InvalidInputError(f"{path}: expected {expected}, got {got}")


def _number(v, path: str) -> float:
    try:
        return float(_check(v, (int, float), "a number", path))
    except OverflowError:
        raise InvalidInputError(f"{path}: number out of range") from None


def _numbers(v, path: str) -> list:
    v = _check(v, list, "a list", path)
    if all(type(x) is float for x in v):  # the usual case, checked fast
        return v
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(v)]
