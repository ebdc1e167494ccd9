"""Structured-text configuration files.

All on-disk inputs (networks, demand, task graphs, registries) share one
human-readable grammar: an INI dialect whose section headers carry a kind
and a name, e.g. ``[segment s1]``, followed by ``key = value`` lines.
Lists are comma separated; ``#`` starts a comment.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass


class ParseError(ValueError):
    """The text does not follow the section/key/value grammar."""


@dataclass(frozen=True)
class Section:
    kind: str
    name: str
    values: dict[str, str]

    def require(self, key: str) -> str:
        if key not in self.values:
            raise ParseError(f"[{self.kind} {self.name}]: missing key {key!r}")
        return self.values[key]

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def get_float(self, key: str, default: float | None = None) -> float | None:
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ParseError(f"[{self.kind} {self.name}]: bad number for {key!r}: {raw!r}") from exc

    def require_float(self, key: str) -> float:
        self.require(key)
        return self.get_float(key)

    def get_int(self, key: str, default: int | None = None) -> int | None:
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ParseError(f"[{self.kind} {self.name}]: bad integer for {key!r}: {raw!r}") from exc

    def require_int(self, key: str) -> int:
        self.require(key)
        return self.get_int(key)

    def get_bool(self, key: str, default: bool = False) -> bool:
        raw = self.values.get(key)
        if raw is None:
            return default
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ParseError(f"[{self.kind} {self.name}]: bad boolean for {key!r}: {raw!r}")

    def get_list(self, key: str) -> list[str]:
        raw = self.values.get(key, "")
        return [item.strip() for item in raw.split(",") if item.strip()]


def parse_sections(text: str) -> list[Section]:
    """Split a config text into typed sections, preserving order."""
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#", ";"), strict=True,
        interpolation=None)
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc
    sections = []
    for header in parser.sections():
        parts = header.split(None, 1)
        kind = parts[0]
        name = parts[1].strip() if len(parts) > 1 else ""
        sections.append(Section(kind, name, dict(parser[header])))
    return sections
