"""Argument rules of the library and the CLI.  No rule accepts a bool; numpy
scalars pass.  A rule raises `error` (ValueError by default) naming the argument."""

import math

import numpy as np

# Seeds and streams are Philox key words; values from 2**63 up alias others.
SEED_LIMIT = 2**63


def _is_number(v, kinds=(int, float, np.integer, np.floating)) -> bool:
    return isinstance(v, kinds) and not isinstance(v, bool)


def check_positive(name: str, v, error=ValueError) -> None:
    """A positive finite number."""
    if not (_is_number(v) and 0 < v < math.inf):
        raise error(f"{name} must be positive and finite, got {v!r}")


def check_unit(name: str, v, closed: bool = False, error=ValueError) -> None:
    """A number in (0, 1), or in [0, 1] when `closed`."""
    if not (_is_number(v) and (0 <= v <= 1 if closed else 0 < v < 1)):
        raise error(f"{name} must be a number in {'[0, 1]' if closed else '(0, 1)'}, got {v!r}")


def check_int(name: str, v, least: int = 1, below: int | None = None, error=ValueError) -> None:
    """An integer >= least, and < below when given."""
    if not (_is_number(v, (int, np.integer)) and v >= least and (below is None or v < below)):
        what = f">= {least}" if below is None else f"in [{least}, {below})"
        raise error(f"{name} must be an integer {what}, got {v!r}")


def finite_points(values, ndim: int = 2, name: str = "sample matrix",
                  error=ValueError) -> np.ndarray:
    """values as a non-empty float array with every entry finite: a point set
    with one point per row for ndim 2 (a single point is a set of one), a
    vector (offsets, variances, a direction, a spectrum) for ndim 1."""
    a = np.asarray(values, dtype=float)
    a = np.atleast_2d(a) if ndim == 2 else a
    if a.ndim != ndim or a.size == 0:
        raise error(f"{name} must be a non-empty {ndim}-D array, got shape {a.shape}")
    # a sum of finite entries is finite unless it overflows, so the entry-wise
    # test (and its mask as large as the array) is needed only when the sum is not
    with np.errstate(over="ignore", invalid="ignore"):
        total = a.sum()
    if not np.isfinite(total) and not np.isfinite(a).all():
        raise error(f"{name} entries must be finite")
    return a
