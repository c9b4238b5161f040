"""Flat ``key = value`` configuration dialect.

One assignment per line, blank lines are ignored. A ``#`` at the start
of a line or after whitespace starts a comment; any other ``#`` is part
of the value, so a path such as ``runs/a#b`` reads back as written.
The same dialect serves pipeline configs, scene specs, and run manifests.

``load`` reads and ``dump`` writes a settings dataclass, so this module
is the only one that maps fields to keys. A key is a field's name or its
``key`` metadata. A nested dataclass is a section whose keys carry its
``prefix`` metadata, if any. A tuple of dataclasses with ``numbered``
metadata, a scene's ``blocks``, is numbered sections ``block1_…``,
``block2_…``, read while their first key is present and written last.
An absent key takes the given defaults (section n's are ``numbered(n)``),
then the dataclass's; a field with neither is a required key.
"""

import math
import re
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

from .errors import ConfigError, InputError

_MISSING = object()
_COMMENT = re.compile(r"(?:^|\s)#")

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(value)


def _parse_finite(value: str) -> float:
    """``float(value)``; NaN and the infinities are a ValueError."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(value)
    return number


def _parse_floats(value: str, count: int) -> tuple[float, ...]:
    parts = value.split(",")
    if len(parts) != count:
        raise ValueError(value)
    return tuple(_parse_finite(p) for p in parts)


def _parse_integral(value: str, count: int) -> tuple[int, ...]:
    """``_parse_floats`` of ``value``; a number with a fraction is a ValueError."""
    numbers = _parse_floats(value, count)
    if not all(n.is_integer() for n in numbers):
        raise ValueError(value)
    return tuple(int(n) for n in numbers)


class ConfigDict:
    """Parsed key/value pairs with typed, line-aware accessors."""

    def __init__(self, values: dict[str, str], lines: dict[str, int] | None = None):
        self._values = dict(values)
        self._lines = dict(lines or {})
        self._consumed: set[str] = set()

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def line_of(self, key: str) -> int | None:
        return self._lines.get(key)

    def _get(self, key: str, default, parse, expected: str):
        """``parse`` of the value of ``key``, or ``default`` (as given) when
        the key is absent; a ``ValueError`` from ``parse`` is reported as a
        ``ConfigError`` that names the ``expected`` form and the line."""
        if key not in self._values:
            if default is _MISSING:
                raise ConfigError(f"missing required key '{key}'")
            return default
        self._consumed.add(key)
        value = self._values[key]
        try:
            return parse(value)
        except ValueError:
            raise ConfigError(
                f"key '{key}': expected {expected}, got {value!r}", self.line_of(key)
            ) from None

    def get_str(self, key: str, default=_MISSING) -> str:
        return self._get(key, default, str, "string")

    def get_int(self, key: str, default=_MISSING) -> int:
        return self._get(key, default, int, "integer")

    def get_float(self, key: str, default=_MISSING) -> float:
        return self._get(key, default, _parse_finite, "number")

    def get_bool(self, key: str, default=_MISSING) -> bool:
        return self._get(key, default, _parse_bool, "boolean")

    def get_pair(self, key: str, default=_MISSING) -> tuple[float, float]:
        return self._get(key, default, lambda v: _parse_floats(v, 2), "numeric 'a, b' pair")

    def get_quad(self, key: str, default=_MISSING) -> tuple[int, int, int, int]:
        return self._get(key, default, lambda v: _parse_integral(v, 4), "integer 'x, y, w, h' quad")

    def reject_unknown(self) -> None:
        """Raise if any parsed key was never consumed (typo protection)."""
        unknown = sorted(set(self._values) - self._consumed)
        if unknown:
            key = unknown[0]
            raise ConfigError(f"unknown key '{key}'", self.line_of(key))


def _strip_comment(line: str) -> str:
    """``line`` before its comment, without surrounding whitespace."""
    return _COMMENT.split(line, 1)[0].strip()


def parse_config_text(text: str) -> ConfigDict:
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw)
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if key in values:
            raise ConfigError(f"duplicate key '{key}'", lineno)
        values[key] = value
        lines[key] = lineno
    return ConfigDict(values, lines)


def parse_config_file(path) -> ConfigDict:
    return parse_config_text(Path(path).read_text())


def format_config(values: dict, header: str | None = None) -> str:
    """Render values back into the dialect (used for manifests). A value
    that would not parse back as written (one holding a line break or
    `` #``, or with leading or trailing whitespace) is a ConfigError."""
    out = []
    if header:
        out.extend(f"# {line}" for line in header.splitlines())
    for key, value in values.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (tuple, list)):
            value = ", ".join(str(v) for v in value)
        value = str(value)
        line = f"{key} = {value}"
        if value != value.strip() or line.splitlines() != [line] or _strip_comment(line) != line.strip():
            raise ConfigError(f"key '{key}': {value!r} cannot be written as a config value")
        out.append(line)
    return "\n".join(out) + "\n"


_GETTERS = {int: ConfigDict.get_int, float: ConfigDict.get_float, bool: ConfigDict.get_bool,
            tuple[float, float]: ConfigDict.get_pair, tuple[int, int, int, int]: ConfigDict.get_quad}


def _key(f) -> str:
    return f.metadata.get("key", f.name)


def _kwargs(cls, cfg: ConfigDict, prefix: str, defaults: dict | None) -> dict:
    """Constructor arguments of dataclass ``cls`` read from ``cfg``'s keys
    under ``prefix``; an absent key takes ``defaults``, then the dataclass's."""
    kwargs = dict(defaults or {})
    for f in fields(cls):
        key = prefix + _key(f)
        if "numbered" in f.metadata:
            item, items, n = f.type.__args__[0], [], 1
            while f"{key}{n}_{_key(fields(item)[0])}" in cfg:
                items.append(item(**_kwargs(item, cfg, f"{key}{n}_", f.metadata["numbered"](n))))
                n += 1
            kwargs[f.name] = tuple(items)
        elif is_dataclass(f.type):
            kwargs[f.name] = f.type(**_kwargs(f.type, cfg, prefix + f.metadata.get("prefix", ""), None))
        elif key in cfg or (f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING):
            kwargs[f.name] = _GETTERS[f.type](cfg, key)
    return kwargs


def load(cls, cfg: ConfigDict, defaults: dict | None = None, **overrides):
    """The ``cls`` settings of ``cfg``, with ``overrides`` in place of what
    was read; a setting out of range is a ConfigError."""
    try:
        return cls(**{**_kwargs(cls, cfg, "", defaults), **overrides})
    except InputError as exc:
        raise ConfigError(str(exc)) from None


def dump(obj, prefix: str = "") -> dict:
    """The keys and values of settings dataclass ``obj``, as ``load`` reads
    them, in field order with numbered sections last."""
    values, numbered = {}, {}
    for f in fields(obj):
        key, value = prefix + _key(f), getattr(obj, f.name)
        if "numbered" in f.metadata:
            for n, item in enumerate(value, start=1):
                numbered.update(dump(item, f"{key}{n}_"))
        elif is_dataclass(f.type):
            values.update(dump(value, prefix + f.metadata.get("prefix", "")))
        else:
            values[key] = value
    return {**values, **numbered}
