"""Flat ``key = value`` configuration dialect.

One assignment per line, ``#`` starts a comment, blank lines are ignored.
The same dialect serves pipeline configs, scene specs, and run manifests.
"""

from pathlib import Path

from .errors import ConfigError

_MISSING = object()

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(value)


def _parse_floats(value: str, count: int) -> tuple[float, ...]:
    parts = value.split(",")
    if len(parts) != count:
        raise ValueError(value)
    return tuple(float(p) for p in parts)


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
        return self._get(key, default, float, "number")

    def get_bool(self, key: str, default=_MISSING) -> bool:
        return self._get(key, default, _parse_bool, "boolean")

    def get_pair(self, key: str, default=_MISSING) -> tuple[float, float]:
        return self._get(key, default, lambda v: _parse_floats(v, 2), "numeric 'a, b' pair")

    def get_quad(self, key: str, default=_MISSING) -> tuple[float, float, float, float]:
        return self._get(key, default, lambda v: _parse_floats(v, 4), "numeric 'x, y, w, h' quad")

    def reject_unknown(self) -> None:
        """Raise if any parsed key was never consumed (typo protection)."""
        unknown = sorted(set(self._values) - self._consumed)
        if unknown:
            key = unknown[0]
            raise ConfigError(f"unknown key '{key}'", self.line_of(key))


def parse_config_text(text: str) -> ConfigDict:
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
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
    """Render values back into the dialect (used for manifests)."""
    out = []
    if header:
        out.extend(f"# {line}" for line in header.splitlines())
    for key, value in values.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (tuple, list)):
            value = ", ".join(str(v) for v in value)
        out.append(f"{key} = {value}")
    return "\n".join(out) + "\n"
