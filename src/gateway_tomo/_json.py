"""The input rules for every site label, number and JSON object from outside.

``_check_site`` takes positive int labels, ``site_labels`` sequences of them.
``scalar`` takes what numpy reads as a 0-d integer or float array (no bool,
complex, text, bytes, None, list or int too large for numpy), finite unless
its bounds say otherwise; ``numbers`` takes finite arrays of such elements.
``strict_object`` and ``site_keyed`` take objects with just their schema's
keys.  Bad input raises InputError naming the argument, or the document and
its key.
"""

from __future__ import annotations

import sys
from typing import Iterable

import numpy as np

from .errors import InputError

_FORMS = {0: "a number", 1: "a list of numbers", None: "a rectangular array of numbers"}
_MAX = sys.float_info.max
_FLOAT64 = (float, np.float64)  # numpy reads these as float64; no array is needed
_NOT_COMPLEX = (bool, np.bool_, str, bytes, type(None))  # numpy reads "0.5" as 0.5
_NOT_REAL = (*_NOT_COMPLEX, complex, np.complexfloating)  # and 1j as its real part


def _check_site(n: object) -> int:
    if isinstance(n, bool) or not isinstance(n, int):
        raise InputError(f"site labels must be integers, got {n!r}")
    if n < 1:
        raise InputError(f"site labels must be positive, got {n}")
    return n


def site_labels(nodes: Iterable) -> tuple[int, ...]:
    """``nodes`` as a tuple of site labels, checked in bulk: one set of types and
    one ``min``; ``_check_site`` runs per label only to name an offender."""
    nodes = tuple(nodes)
    if {*map(type, nodes)} <= {int} and min(nodes, default=1) >= 1:
        return nodes
    return tuple(map(_check_site, nodes))


def scalar(value: object, what: str, *args: object, integer: bool = False,
           whole: bool = False, low: float = -_MAX, high: float = _MAX) -> object:
    """``value``, unchanged, if it is one number in [``low``, ``high``] (an integer dtype
    if ``integer``, whole if ``whole``); else InputError naming ``what.format(*args)``."""
    x = value
    if integer or type(value) not in _FLOAT64:
        try:
            arr = np.asarray(value)
            ok = arr.ndim == 0 and arr.dtype.kind in ("iu" if integer else "iuf")
            x = arr.item() if ok else np.nan
        except (TypeError, ValueError, OverflowError):  # ragged nested lists
            x = np.nan
    if not (low <= x <= high and (not whole or x % 1 == 0)):
        what = what.format(*args)
        noun = "integer" if integer else "whole number" if whole else "number"
        if low == 0 and high >= _MAX:
            raise InputError(f"{what} is not a nonnegative {noun}")
        span = f" in [{low}, {high}]" if high < _MAX else f" >= {low}" if low > -_MAX else ""
        raise InputError(f"{what} is not {'an' if integer else 'a'} {noun}{span}")
    return value


def strict_object(data: object, what: str, required: tuple, optional=()) -> dict:
    """``data`` if it is an object with every ``required`` key and no unknown one."""
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object")
    unknown = set(data).difference(required, optional)
    if unknown:
        raise InputError(f"{what} has unknown keys {sorted(unknown)}")
    for key in required:
        if key not in data:
            raise InputError(f'{what} needs "{key}"')
    return data


def site_keyed(data: object, what: str) -> tuple[tuple[int, ...], list]:
    """Labels and values of a {"<site>": ...} object, ascending by label."""
    by_site = {}
    for key, value in strict_object(data, what, (), data).items():  # any key
        try:
            n = int(key)
        except ValueError:
            raise InputError(f"{what} key {key!r} is not a site label") from None
        if n in by_site:  # "1" and "01" name one site
            raise InputError(f"{what} names site {n} more than once")
        by_site[n] = value
    sites = tuple(sorted(by_site))
    return sites, [by_site[n] for n in sites]


def numbers(value: object, what: str, ndim: int | None = None, dtype=float) -> np.ndarray:
    """``value`` as a finite float (or ``complex``) array, of ``ndim`` dimensions if given."""
    kinds, refused = ("iufc", _NOT_COMPLEX) if dtype is complex else ("iuf", _NOT_REAL)
    try:  # an array of a number dtype needs no walk over its elements
        ok = isinstance(value, np.ndarray) and value.dtype.kind in kinds or not any(
            isinstance(v, refused) for v in np.asarray(value, object).flat)
        arr = np.asarray(value, dtype) if ok else None
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or ndim not in (None, arr.ndim):
        raise InputError(f"{what} must be {_FORMS[ndim]}")
    if not np.isfinite(arr).all():
        raise InputError(f"{what} must be finite")
    return arr
