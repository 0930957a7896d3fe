"""Evaluation policy of :mod:`repro.nn`, for tools that record it.

Every operation computes its NumPy result when it is called; there is no
deferred graph to opt into.  The end-to-end benchmark prints this policy in
its host record, next to the array backend and dtype.
"""

from __future__ import annotations

__all__ = ["lazy_default"]


def lazy_default() -> bool:
    """Whether ``repro.nn`` defers evaluation by default: never."""
    return False
