"""Exception hierarchy shared across the package, and the argument checks.
A check passes only finite numbers and raises DomainError for anything else
(NaN, +-inf, None, a string), so a bad argument reaches the CLI as exit 2."""

import math
import sys

import numpy as np


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class PreconditionError(ValueError):
    """A statistical precondition fails (e.g. too few samples or blocks)."""


class ConfigError(ValueError):
    """An experiment configuration is invalid or incompatible."""


class InputError(ValueError):
    """User-supplied data could not be parsed."""


class OutputExistsError(OSError):
    """Refusing to overwrite an existing output file without --force."""


def _check_count(n, name="n", minimum=1):
    """``n`` as an int: a whole number of at least ``minimum``, not a bool."""
    try:
        if not isinstance(n, bool) and n == int(n) >= minimum:
            return int(n)
    except (TypeError, ValueError, OverflowError):  # None, a string, NaN, +-inf
        pass
    need = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
    raise DomainError(f"{name} must be {need}, got {n!r}")


def _check_prob(p, name):
    """``p`` as a float in the open interval (0, 1), and not subnormal, so
    that ``log(1/p)`` and ``log(2/p)`` are finite."""
    try:
        if sys.float_info.min <= p < 1.0:
            return float(p)
    except (TypeError, ValueError):
        pass
    raise DomainError(
        f"{name} must lie in the open interval (0, 1) and not be subnormal, got {p!r}"
    )


def _check_finite(x, name):
    """``x`` as a finite float."""
    try:
        if math.isfinite(x):
            return float(x)
    except (TypeError, ValueError):
        pass
    raise DomainError(f"{name} must be a finite number, got {x!r}")


def _check_nonneg(x, name):
    """``x`` as a finite float >= 0."""
    if _check_finite(x, name) < 0:
        raise DomainError(f"{name} must be nonnegative, got {x!r}")
    return float(x)


def _check_array(values, name):
    """``values`` as a float array that holds finite numbers only (not
    strings, None or ragged lists)."""
    try:
        array = np.asarray(values)
        if array.dtype.kind in "biuf" and np.isfinite(array).all():
            return array.astype(float, copy=False)
    except ValueError:  # a ragged nesting
        pass
    raise DomainError(f"{name} must hold finite numbers only")
