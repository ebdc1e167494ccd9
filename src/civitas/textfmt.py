"""Structured-text configuration files.

All on-disk inputs (networks, demand, task graphs, registries) share one
human-readable line grammar: section headers carry a kind and a name,
e.g. ``[segment s1]``, followed by ``key = value`` lines.  Lists are comma
separated; ``#`` starts a comment, also after a value (where whitespace
must precede it), and a line whose text starts with ``;`` is a comment.
`parse_sections` reads a text in one pass over its lines and refuses,
naming the line, what the grammar does not have: continuation lines
(any indented line), text after a header's ``]``, repeated sections or
keys, and lines before the first header.

`Section`'s typed accessors are the one validation layer of that grammar:
every value they reject, and every error raised inside `Section.context`,
becomes a `ParseError` whose message starts with ``[kind name] key``.
Numbers are finite unless a loader asks for ``float`` explicitly;
`Section.number` and `Section.choice` require a key they have no default for.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum

_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


class ParseError(ValueError):
    """The text does not follow the section/key/value grammar."""


def _parse(kind, text: str):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"bad number {text!r}") from None


def finite(text: str) -> float:
    """`text` as a finite float."""
    value = _parse(float, text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text!r}")
    return value


def integer(text: str) -> int:
    return _parse(int, text)


@dataclass(frozen=True)
class Section:
    kind: str
    name: str
    values: dict[str, str]
    line: int = field(default=0, compare=False)  # of the header, from 1

    @property
    def where(self) -> str:
        return f"[{self.kind} {self.name}]"

    def error(self, key: str, message: str) -> ParseError:
        return ParseError(f"{self.where} {key}: {message}")

    @contextmanager
    def context(self, key: str | None = None):
        """Locate the body's errors at this section (and `key`)."""
        try:
            yield
        except ParseError:
            raise
        except (ValueError, KeyError, OSError) as exc:
            message = exc.args[0] if isinstance(exc, KeyError) else str(exc)
            if not message.startswith(self.where):
                message = f"{self.where}{' ' + key if key else ''}: {message}"
            raise ParseError(message) from exc

    def require(self, key: str) -> str:
        if key not in self.values:
            raise ParseError(f"{self.where}: missing key {key!r}")
        return self.values[key]

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def number(self, key: str, default: float | None = None, *,
               low: float | None = None, open_low: bool = False) -> float:
        """A finite number of at least `low`, or more if `open_low`."""
        if key in self.values or default is None:
            with self.context(key):
                value = finite(self.require(key))
        else:
            value = default
        return self._at_least(key, value, low, open_low)

    def _at_least(self, key: str, value: float, low: float | None,
                  open_low: bool, label: str = "") -> float:
        if low is not None and (value < low or open_low and value == low):
            raise self.error(key, f"{label}must be {'>' if open_low else '>='}"
                                  f" {low:g}, got {value:g}")
        return value

    def get_int(self, key: str, default: int | None = None) -> int | None:
        raw = self.values.get(key)
        if raw is None:
            return default
        with self.context(key):
            return integer(raw)

    def require_int(self, key: str) -> int:
        self.require(key)
        return self.get_int(key)

    def choice(self, key: str, enum: type[Enum], default: Enum | None = None) -> Enum:
        if key not in self.values and default is not None:
            return default
        with self.context(key):
            return enum(self.require(key))

    def get_bool(self, key: str, default: bool = False) -> bool:
        raw = self.values.get(key)
        if raw is not None and raw.lower() not in _BOOLEANS:
            raise self.error(key, f"bad boolean {raw!r}")
        return default if raw is None else _BOOLEANS[raw.lower()]

    def get_list(self, key: str) -> list[str]:
        raw = self.values.get(key, "")
        return [item.strip() for item in raw.split(",") if item.strip()]

    def numbers(self, key: str, kind=finite) -> list:
        """The comma list `key`, each item converted by `kind`."""
        with self.context(key):
            return [kind(item) for item in self.get_list(key)]

    def items(self, key: str, form: str, *kinds, least: int | None = None
              ) -> list[tuple]:
        """The comma list `key` of `form` items: ':'-separated fields, each
        converted by its `kinds` entry, of which the first `least` suffice."""
        out = []
        for item in self.get_list(key):
            fields = [f.strip() for f in item.split(":")]
            if not (least or len(kinds)) <= len(fields) <= len(kinds):
                raise self.error(key, f"bad item {item!r}, expected {form}")
            with self.context(key):
                out.append(tuple(kind(f) for kind, f in zip(kinds, fields)))
        return out

    def by_label(self, key: str, default: float, *, low: float | None = None,
                 open_low: bool = False) -> dict[str, float] | float:
        """One number, or per-label numbers written ``L:3, H:12``."""
        if ":" not in self.values.get(key, ""):
            return self.number(key, default, low=low, open_low=open_low)
        return {label: self._at_least(key, value, low, open_low, f"{label}: ")
                for label, value in self.items(key, "label:value", str, finite)}


def parse_sections(text: str) -> list[Section]:
    """Split a config text into typed sections, preserving order.

    One pass over the lines, split at newlines only.  Blank and comment
    lines are skipped, and the whitespace around a header, a key and a
    value is dropped, a carriage return before the newline with it.  A
    key is the text before the line's first ``=``, with its case kept.
    """
    sections: list[Section] = []
    seen: dict[tuple[str, str], Section] = {}
    values: dict[str, str] | None = None
    where = ""
    for number, line in enumerate(text.split("\n"), 1):
        cut = line.find("#")
        while cut > 0 and not line[cut - 1].isspace():
            cut = line.find("#", cut + 1)
        if cut >= 0:
            line = line[:cut]
        stripped = line.strip()
        if not stripped or stripped[0] == ";":
            continue
        if line[0].isspace():
            raise ParseError(f"line {number}: {where}indented line {stripped!r}"
                             " (the grammar has no continuation lines)")
        if stripped[0] == "[":
            close = stripped.find("]")
            if close < 0:
                raise ParseError(f"line {number}: unclosed section header {stripped!r}")
            if close < len(stripped) - 1:
                raise ParseError(f"line {number}: text after ']' of {stripped[:close + 1]}:"
                                 f" {stripped[close + 1:].lstrip()!r}")
            parts = stripped[1:close].split(None, 1)
            if not parts:
                raise ParseError(f"line {number}: empty section header")
            sec = Section(parts[0], parts[1].strip() if len(parts) > 1 else "", {},
                          number)
            first = seen.setdefault((sec.kind, sec.name), sec)
            if first is not sec:
                raise ParseError(f"line {number}: {sec.where} repeats the section"
                                 f" of line {first.line}")
            sections.append(sec)
            values, where = sec.values, sec.where + " "
            continue
        if values is None:
            raise ParseError(f"line {number}: {stripped!r} before the first"
                             " [kind name] header")
        key, equals, value = stripped.partition("=")
        key = key.rstrip()
        if not equals or not key:
            raise ParseError(f"line {number}: {where}expected 'key = value',"
                             f" got {stripped!r}")
        if key in values:
            raise ParseError(f"line {number}: {where}{key}: repeated key")
        values[key] = value.strip()
    return sections
