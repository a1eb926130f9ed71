"""Coordinate charts: the index space every tensor in this package lives on."""

from __future__ import annotations

import re
from collections.abc import Iterable

from .errors import InvalidArgument, checked

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class Chart:
    """An ordered tuple of distinct coordinate names.

    Polynomials, forms and multivectors all refer back to one of these.
    Charts are immutable and compare (and hash) by their name tuple.
    """

    __slots__ = ("names", "_positions")

    def __init__(self, names: Iterable[str]):
        names = tuple(checked(names, Iterable, "chart names"))
        if not names:
            raise InvalidArgument("a chart needs at least one coordinate")
        for i, name in enumerate(names):
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise InvalidArgument(f"invalid coordinate name {name!r}")
            if name in names[:i]:
                raise InvalidArgument(f"coordinate {name!r} is already in use")
        self.names = names
        self._positions = {name: i for i, name in enumerate(names)}

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except (KeyError, TypeError):
            raise InvalidArgument(f"unknown coordinate {name!r}") from None

    def __contains__(self, name) -> bool:
        return isinstance(name, str) and name in self._positions

    def extended(self, name: str) -> "Chart":
        """A new chart with one extra coordinate appended at the end."""
        return Chart(self.names + (name,))

    def __eq__(self, other):
        return isinstance(other, Chart) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Chart({', '.join(self.names)})"
