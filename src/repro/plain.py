"""One JSON-plain codec for the frozen config dataclasses.

:func:`to_plain` turns a dataclass into dicts, lists and scalars;
:func:`from_plain` rebuilds it, driven by the class's own field
declarations (:func:`typing.get_type_hints`), so a new field is
declared once and a file on disk can hold nothing the class does not
declare.  Decoding is strict: an unknown key, a missing required
field, a value of the wrong type or a non-object where a dataclass
belongs raises :class:`~repro.errors.ConfigurationError` naming the
field's path (``scenario.faults.down_windows[0]``).  A missing key
takes the field's default, so a file written before a field existed
still loads.  Every object is built through ``cls(**kwargs)``, so each
class's ``__post_init__`` validation still runs.

Only the type forms the config classes use are decoded: ``int``,
``float`` (an ``int`` is widened), ``bool``, ``str``, ``Optional[T]``,
``Tuple[T, ...]``, fixed ``Tuple[A, B]`` and nested dataclasses.
"""

from __future__ import annotations

import dataclasses
from typing import Union, get_args, get_origin, get_type_hints

from repro.errors import ConfigurationError


def to_plain(obj):
    """``obj`` as JSON-plain data: dataclasses become dicts of their
    fields, tuples become lists, scalars and ``None`` pass through."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [to_plain(item) for item in obj]
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    raise ConfigurationError(f"cannot write a {type(obj).__name__} as plain data")


def from_plain(cls, data, path: str = ""):
    """Rebuild a ``cls`` written by :func:`to_plain`; errors name the
    field by its path under ``path`` (default: the class name)."""
    return _decode(cls, data, path or cls.__name__)


def _decode(tp, value, path: str):
    if dataclasses.is_dataclass(tp):
        return _decode_dataclass(tp, value, path)
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:
        (inner,) = [arg for arg in args if arg is not type(None)]
        return None if value is None else _decode(inner, value, path)
    if origin is tuple:
        if not isinstance(value, list):
            raise _wrong(path, "a list", value)
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigurationError(
                f"{path}: expected {len(args)} items, got {len(value)}"
            )
        return tuple(
            _decode(arg, item, f"{path}[{i}]")
            for i, (arg, item) in enumerate(zip(args, value))
        )
    if tp is float and type(value) in (int, float):
        return float(value)
    if tp in (int, bool, str) and type(value) is tp:
        return value
    if tp in (int, float, bool, str):
        raise _wrong(path, tp.__name__, value)
    raise ConfigurationError(f"{path}: cannot decode a {tp!r} field")


def _decode_dataclass(cls, data, path: str):
    if not isinstance(data, dict):
        raise _wrong(path, "an object", data)
    declared = {f.name: f for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(set(data) - set(declared))
    if unknown:
        raise ConfigurationError(
            f"{path}: unknown field{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(map(repr, unknown))}"
        )
    hints = get_type_hints(cls)
    kwargs = {}
    for name, f in declared.items():
        if name in data:
            kwargs[name] = _decode(hints[name], data[name], f"{path}.{name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigurationError(f"{path}: missing required field {name!r}")
    return cls(**kwargs)


def _wrong(path: str, expected: str, value) -> ConfigurationError:
    return ConfigurationError(
        f"{path}: expected {expected}, got {type(value).__name__} {value!r}"
    )
