"""Spec strings: one registry type and one grammar for every axis.

An experiment is defined by short spec strings, one per pluggable axis:
codec, transport, compute backend, executor kind, aggregator, objective
term, fault plan and deadline policy.  This module holds what they
share.  :class:`Registry` maps names to factories and words every
unknown-name error the same way.  Three parsers cover every grammar the
strings are written in:

* pipelines, ``name(args)+name(args)+...``: codec filters
  (``fp16+deflate``) and aggregator prefixes (``edge(2)+clip(5)+mean``),
  :func:`parse_pipeline`;
* heads, ``name[:param]``: ``tcp:host:port``, ``percentile:p95``,
  :func:`parse_head`;
* key lists, ``key=value,...``: ``--faults`` and ``--objective``,
  :func:`parse_pairs`.

Numbers inside a spec are read with :func:`parse_number`, which rejects
nan and inf: no axis has a use for them, and each one would break a run
silently or mid-round instead of at parse time.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable

__all__ = [
    "Registry",
    "parse_head",
    "parse_number",
    "parse_pairs",
    "parse_pipeline",
]


class Registry(dict):
    """Name -> factory map for one axis.

    ``kind`` names the axis in errors.  Looking up a name that is not
    registered raises ``ValueError("unknown {kind} {name!r}; expected one
    of (...)")``, listing ``extra`` first: spellings the axis resolves
    before the registry, such as ``auto``.  ``usage`` overrides how one
    name is listed, e.g. ``tcp[:host:port]``.
    """

    def __init__(self, kind: str, extra: tuple[str, ...] = ()) -> None:
        super().__init__()
        self.kind = kind
        self.extra = tuple(extra)
        self.usage: dict[str, str] = {}

    def register(
        self, name: str, factory: Callable[..., Any], usage: str | None = None
    ) -> None:
        """Add ``factory`` under ``name``; a name registers only once."""
        if name in self:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self[name] = factory
        if usage is not None:
            self.usage[name] = usage

    def names(self) -> tuple[str, ...]:
        """The registered names, sorted."""
        return tuple(sorted(self))

    def forms(self) -> tuple[str, ...]:
        """Every accepted spelling, as errors and ``--help`` list them."""
        listed = tuple(self.usage.get(name, name) for name in self.names())
        return self.extra + listed

    def make(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Build the object registered under ``name``."""
        return self[name](*args, **kwargs)

    def __missing__(self, name: str) -> Any:
        raise ValueError(
            f"unknown {self.kind} {name!r}; expected one of {self.forms()}"
        )


_ITEM = re.compile(r"\s*([A-Za-z0-9_\-]+)\s*(?:\(([^()]*)\))?\s*")
#: A ``+`` that joins stages: one not inside parentheses, where it may be
#: an exponent sign (``clip(1e+06)``, the ``:g`` form of a large tau).
_JOIN = re.compile(r"\+(?![^(]*\))")


def parse_pipeline(spec: str, kind: str) -> list[tuple[str, tuple[str, ...]]]:
    """``"edge(2)+clip(5)+mean"`` -> ``[("edge", ("2",)), ("clip", ("5",)),
    ("mean", ())]``.  Arguments are comma-separated and stripped; empty
    ones are dropped."""
    items = []
    for item in _JOIN.split(spec):
        match = _ITEM.fullmatch(item)
        if match is None:
            raise ValueError(
                f"bad {kind} spec item {item!r} in {spec!r}; expected name "
                f"or name(args)"
            )
        name, args = match.groups()
        parts = (part.strip() for part in (args or "").split(","))
        items.append((name, tuple(part for part in parts if part)))
    return items


def parse_head(spec: str) -> tuple[str, str | None]:
    """``"tcp:host:port"`` -> ``("tcp", "host:port")``; a bare name has
    ``None`` for its parameter (``"tcp:"`` has ``""``)."""
    name, sep, param = spec.partition(":")
    return name, (param if sep else None)


def parse_pairs(spec: str, kind: str) -> dict[str, str]:
    """``"a=1, b=2"`` -> ``{"a": "1", "b": "2"}``.  Blank items are
    skipped; a repeated key is an error rather than a silent last-wins."""
    pairs: dict[str, str] = {}
    for item in spec.split(","):
        if not item.strip():
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(
                f"bad {kind} item {item.strip()!r} in {spec!r}; expected "
                f"key=value"
            )
        if key in pairs:
            raise ValueError(f"duplicate {kind} key {key!r} in {spec!r}")
        pairs[key] = value.strip()
    return pairs


def parse_number(text: str, what: str, kind: type = float) -> Any:
    """``text`` as a finite ``float`` (``kind=int``: an ``int``); ``what``
    names the field in the error."""
    try:
        value = kind(text)
    except (TypeError, ValueError):
        value = None
    if value is None or not math.isfinite(value):
        expected = "an integer" if kind is int else "a finite number"
        raise ValueError(f"bad {what} {text!r}; expected {expected}")
    return value
