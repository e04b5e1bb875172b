"""One JSON codec for the package's config dataclasses.

Record gives a dataclass to_dict and from_dict, both driven by its field
annotations.  to_dict writes the fields in declaration order, leaves out
fields that are None, nests records and turns tuples and arrays into
lists; a sequence field is tuple[X, ...] or list[X].  from_dict requires
every field whose annotation does not admit None, rejects a non-object
and unknown keys, and converts each value to its annotated type: an int
must be integral, a float must be a number and a bool must be a JSON
bool.  Errors name the offending field by its path, e.g.
SweepConfig.train.epochs.  Range checks stay in each class's
__post_init__.
"""

from __future__ import annotations

import functools
import types
import typing
from dataclasses import fields

import numpy as np


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _split_optional(tp) -> tuple[object, bool]:
    """(tp without None, whether tp admits None); the only unions used
    are X | None."""
    if isinstance(tp, types.UnionType):
        (inner,) = [a for a in typing.get_args(tp) if a is not type(None)]
        return inner, True
    return tp, False


def _encode(value, tp):
    tp, _ = _split_optional(tp)
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_encode(v, typing.get_args(tp)[0]) for v in value]
    return tp(value)


def _decode(value, tp, path: str):
    tp, optional = _split_optional(tp)
    if value is None:
        if optional:
            return None
        raise ValueError(f"{path} must not be null")
    origin = typing.get_origin(tp)
    if isinstance(tp, type) and issubclass(tp, Record):
        return tp._from_dict(value, path)
    if origin in (tuple, list):
        if not isinstance(value, list):
            raise ValueError(f"{path} must be a list, got {value!r}")
        item = typing.get_args(tp)[0]
        return origin(_decode(v, item, f"{path}[{i}]") for i, v in enumerate(value))
    if tp is np.ndarray:
        try:
            return np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError(f"{path} must be a numeric array") from None
    if tp is bool:
        if not isinstance(value, bool):
            raise ValueError(f"{path} must be true or false, got {value!r}")
        return value
    if tp in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{path} must be a number, got {value!r}")
        if tp is int and isinstance(value, float):
            if not value.is_integer():
                raise ValueError(f"{path} must be an integer, got {value!r}")
            value = int(value)
        return tp(value)
    if tp is str:
        if not isinstance(value, str):
            raise ValueError(f"{path} must be a string, got {value!r}")
        return value
    raise TypeError(f"{path}: no JSON codec for {tp!r}")


class Record:
    """Mixin for dataclasses: to_dict and from_dict from the field annotations."""

    def to_dict(self) -> dict:
        hints = _hints(type(self))
        return {f.name: _encode(getattr(self, f.name), hints[f.name])
                for f in fields(self) if getattr(self, f.name) is not None}

    @classmethod
    def from_dict(cls, data):
        return cls._from_dict(data, cls.__name__)

    @classmethod
    def _from_dict(cls, data, path: str):
        hints = _hints(cls)
        names = [f.name for f in fields(cls)]
        if not isinstance(data, dict):
            raise ValueError(f"{path} must be a JSON object with fields {', '.join(names)}")
        unknown = set(data) - set(names)
        if unknown:
            raise ValueError(f"unexpected fields in {path}: {sorted(unknown)}")
        missing = [n for n in names if n not in data and not _split_optional(hints[n])[1]]
        if missing:
            raise ValueError(f"{path} is missing fields: {missing}")
        return cls(**{n: _decode(data[n], hints[n], f"{path}.{n}")
                      for n in names if n in data})
