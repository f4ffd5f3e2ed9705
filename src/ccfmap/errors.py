"""Exceptions shared across the package, and the one rule for numbers.

A bool is no number here: True would pass as 1 and False as 0, so every
numeric setting and file field is checked with is_int or is_real.
"""

import math

import numpy as np


class DataError(ValueError):
    """Raised for invalid shapes, value domains, label sets, or file contents.

    Distinct from numeric failures (LinAlgError, FloatingPointError) so
    callers can map the two families to different exit codes.
    """


def is_int(v) -> bool:
    """An integer, Python's or numpy's, that is not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_real(v) -> bool:
    """A finite real number, Python's or numpy's, that is not a bool."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False
