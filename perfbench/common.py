"""Pieces shared by the workload modules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass
class Op:
    """One unit of timed work and the exact oracle for its result.

    ``kind`` and ``size`` label the op for the op-mix and size-distribution
    summary; ``run`` is the timed call; ``check`` runs after the timed pass
    and must not reuse the route ``run`` took; ``render`` gives the text the
    result digest is taken over.
    """

    kind: str
    size: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    render: Callable[[object], str] = str


def darboux_names(n):
    return [f"q{i}" for i in range(1, n + 1)] + [f"p{i}" for i in range(1, n + 1)]


def pfaffian(indices, entry, one):
    """Pfaffian of the skew matrix ``entry(a, b)`` (``a < b``) on ``indices``.

    Expansion along the first row; ``one`` is the unit of the entry ring.
    """
    if not indices:
        return one
    first, rest = indices[0], indices[1:]
    total = None
    for pos, j in enumerate(rest):
        term = entry(first, j) * pfaffian(rest[:pos] + rest[pos + 1:], entry, one)
        if pos % 2:
            term = -term
        total = term if total is None else total + term
    return total
