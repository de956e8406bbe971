"""Typed loading of JSON documents into dataclasses, and back.

Every file-controlled document this project reads (deployment specs,
traces, both capsule kinds, sim scenarios, fault schedules) is loaded
by :func:`load`, so a malformed document raises :class:`ValueError`
naming the offending field, never a ``TypeError`` or ``AttributeError``
from deep inside a constructor.  Field types are read off the
dataclass's own annotations.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Dict, Iterable


def _matches(value, hint) -> bool:
    """Does the JSON value ``value`` fit the annotation ``hint``?"""
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        return any(_matches(value, arg) for arg in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if hint is bool:
        return isinstance(value, bool)
    if hint in (int, float):
        return (isinstance(value, (int, hint))
                and not isinstance(value, bool))
    if hint is str:
        return isinstance(value, str)
    if origin in (list, tuple):
        args = [arg for arg in typing.get_args(hint) if arg is not ...]
        return isinstance(value, list) and (
            len(args) != 1 or all(_matches(item, args[0]) for item in value))
    # dicts, and nested dataclasses (loaded field by field below)
    return isinstance(value, dict)


def _convert(value, hint, what: str):
    """Turn a checked JSON value into nested dataclasses and tuples."""
    if typing.get_origin(hint) is typing.Union:
        hint = next(arg for arg in typing.get_args(hint)
                    if arg is not type(None))
        return None if value is None else _convert(value, hint, what)
    if dataclasses.is_dataclass(hint):
        return load(hint, value, what)
    if typing.get_origin(hint) is tuple:
        return tuple(_convert(item, typing.get_args(hint)[0], what)
                     for item in value)
    return value


def load(cls, raw, what: str, ignore: Iterable[str] = ()):
    """Build dataclass ``cls`` from the JSON object ``raw``.

    Raises ``ValueError`` if ``raw`` is not an object, names a field
    ``cls`` does not have (other than ``ignore``), lacks a field without
    a default, holds a value of the wrong type, or fails ``cls``'s own
    validation.
    """
    if not isinstance(raw, dict):
        raise ValueError(
            f"{what} must be a JSON object, got {type(raw).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(str(key) for key in raw
                     if key not in fields and key not in ignore)
    if unknown:
        raise ValueError(f"unknown {what} field(s) {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    values: Dict = {}
    for name, spec in fields.items():
        if name not in raw:
            if spec.default is dataclasses.MISSING \
                    and spec.default_factory is dataclasses.MISSING:
                raise ValueError(f"{what} is missing field {name!r}")
            continue
        if not _matches(raw[name], hints[name]):
            raise ValueError(
                f"{what} field {name!r} has the wrong type "
                f"({type(raw[name]).__name__}: {str(raw[name])[:60]!r})")
        values[name] = _convert(raw[name], hints[name], f"{what}.{name}")
    return cls(**values)


def plain(obj) -> Dict:
    """The JSON object :func:`load` reads back into dataclass ``obj``."""
    return {f.name: _plain(getattr(obj, f.name))
            for f in dataclasses.fields(obj)}


def _plain(value):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if dataclasses.is_dataclass(value):
        return plain(value)
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def check_version(raw, want: int, what: str) -> None:
    """Reject a document of another schema version up front, before its
    fields are read under this build's schema."""
    if isinstance(raw, dict) and raw.get("version") != want:
        raise ValueError(
            f"unsupported {what} version {raw.get('version')!r} "
            f"(this build reads version {want})")
