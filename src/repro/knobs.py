"""The one mechanism for environment knobs.

Each layer declares its knobs as a table of :class:`Knob` records in its
``config.py`` and builds one :class:`KnobSet` singleton from it (``SERVER``,
``CACHE``, ``RESILIENCE``, …). A set reads each variable once, when it is
built, and keeps the value as a plain instance attribute, so a hot call
site pays one attribute read. Tests and benchmarks change values with
:meth:`KnobSet.overridden` and :meth:`KnobSet.disabled`; this is the only
module that reads ``os.environ`` (lint rule REPRO001).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator, NamedTuple

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off", ""})


class Knob(NamedTuple):
    """One settable value: attribute name, env variable, type, default, meaning."""

    name: str
    env: str
    kind: type
    default: Any
    doc: str

    def read(self) -> Any:
        """The environment's value for this knob, or its default when unset.

        Booleans accept ``1/true/yes/on`` and ``0/false/no/off/""`` in any
        case; any other bool, int or float text raises :class:`ValueError`
        naming the variable, rather than silently meaning "on".
        """
        raw = os.environ.get(self.env)
        if raw is None:
            return self.default
        if self.kind is str:
            return raw
        text = raw.strip()
        if self.kind is bool:
            if text.lower() in _TRUE:
                return True
            if text.lower() in _FALSE:
                return False
        else:
            try:
                return self.kind(text)
            except ValueError:
                pass
        raise ValueError(f"{self.env}={raw!r} is not a valid {self.kind.__name__}")


class KnobSet:
    """A layer's knobs as plain attributes, read from the environment once.

    ``SWITCHES`` are the on/off knobs :meth:`disabled` turns off when no
    name is given. When *master* is given, its variable set false turns
    every switch off at start-up (``REPRO_CACHE=0`` for the cache layers).
    """

    def __init__(
        self,
        label: str,
        knobs: tuple[Knob, ...],
        *,
        switches: tuple[str, ...] = ("enabled",),
        master: Knob | None = None,
    ) -> None:
        self._label = label
        self._table = knobs if master is None else (master, *knobs)
        self.KNOBS = tuple(knob.name for knob in knobs)
        self.SWITCHES = switches
        on = master is None or master.read()
        for knob in knobs:
            value = knob.read()
            setattr(self, knob.name, value and on if knob.name in switches else value)

    @contextmanager
    def overridden(self, **values: Any) -> Iterator[KnobSet]:
        """Temporarily set the named knobs; the old values return on exit or error."""
        for name in values:
            if name not in self.KNOBS:
                raise ValueError(f"unknown {self._label} knob {name!r}; known: {self.KNOBS}")
        previous = {name: getattr(self, name) for name in values}
        try:
            for name, value in values.items():
                setattr(self, name, value)
            yield self
        finally:
            for name, value in previous.items():
                setattr(self, name, value)

    def disabled(self, *names: str):
        """Temporarily turn the named switches off (every switch when none is named)."""
        for name in names:
            if name not in self.SWITCHES:
                raise ValueError(f"unknown {self._label} switch {name!r}; known: {self.SWITCHES}")
        return self.overridden(**dict.fromkeys(names or self.SWITCHES, False))

    def snapshot(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self.KNOBS}

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={value!r}" for name, value in self.snapshot().items())
        return f"KnobSet({self._label}: {values})"


def render_table() -> str:
    """The README "Configuration" table: one row per environment variable.

    Regenerate the README block with
    ``python -c "from repro.knobs import render_table; print(render_table())"``.
    """
    import importlib
    import json
    from pathlib import Path

    package = Path(__file__).parent
    rows = ["| Variable | Type | Default | Meaning |", "| --- | --- | --- | --- |"]
    for path in sorted(package.rglob("config.py")):
        module = ".".join((__package__, *path.relative_to(package).with_suffix("").parts))
        for value in vars(importlib.import_module(module)).values():
            if isinstance(value, KnobSet):
                rows += [
                    f"| `{knob.env}` | {knob.kind.__name__} | `{json.dumps(knob.default)}` | {knob.doc} |"
                    for knob in value._table
                ]
    return "\n".join(rows)
