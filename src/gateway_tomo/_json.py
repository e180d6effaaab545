"""Strict reading of the JSON documents the toolkit takes as input.

Every schema reader checks its objects, site-keyed maps and number arrays
here, so a malformed document raises InputError in one wording that names
the document and the offending key.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

_FORMS = {0: "a number", 1: "a list of numbers", None: "a rectangular array of numbers"}


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


def numbers(value: object, what: str, ndim: int | None = None) -> np.ndarray:
    """``value`` as a float array, optionally of a given number of dimensions."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    # numpy reads a JSON null as NaN, true and false as 1 and 0, and "0.5" as
    # 0.5; none is a number
    if arr is not None and any(
        v is None or isinstance(v, (bool, np.bool_, str))
        for v in np.asarray(value, object).flat
    ):
        arr = None
    if arr is None or ndim not in (None, arr.ndim):
        raise InputError(f"{what} must be {_FORMS[ndim]}")
    return arr
