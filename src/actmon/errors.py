"""Exception types and the file layer shared across the package.

Width mismatches and other argument-level misuse raise plain ``ValueError``;
the classes here mark problems with persisted artifacts (model, trace,
monitor files) and store lifecycle violations, so callers can distinguish
bad data from bad environments.  Only this module imports ``json``: every
artifact is parsed by the one strict decoder :data:`JSON_DECODER` and
written through :func:`replace_on_success` as the one encoder
:data:`JSON_LINE` gives it (trace records a block at a time); the number
arrays of files read whole are checked by :func:`finite_floats`.
Only this module decides what a number is: :func:`as_int` is the one
integer rule, with its lower and upper bounds, :func:`float_array` the
one number rule of file and caller data, :func:`as_real` its form for one
number, and :data:`JSON_NUMBERS` names JSON's number types.
:func:`all_finite` is the one finiteness rule for every float array the
package checks, and :func:`warn` points every warning at the caller's line.
"""

import contextlib
import json
import math
import numbers
import os
import sys
import warnings

import numpy as np


class ActmonError(Exception):
    """Base class for package-specific errors."""


class SchemaError(ActmonError):
    """A persisted file is structurally invalid (missing keys, dangling
    node ids, ordering violations, inconsistent widths)."""


class FormatVersionError(SchemaError):
    """A persisted file declares a version this code does not understand."""


class FrozenStoreError(ActmonError):
    """A node-creating operation was attempted on a frozen BDD store."""


def all_finite(values: np.ndarray) -> bool:
    """Whether every value of the float array ``values`` is finite; an
    empty array is.  A NaN or infinity makes the one BLAS sum of squares
    NaN or +inf, so only finite values whose squares overflow (``1e200``)
    take the elementwise test."""
    return math.isfinite(np.vdot(values, values)) \
        or bool(np.isfinite(values).all())


# the types JSON numbers load as, and the dtype float_array returns as is
JSON_NUMBERS = frozenset((int, float))
_FLOAT64 = np.dtype(np.float64)


def finite_floats(value, what: str, ndim: int) -> np.ndarray:
    """``value``, JSON numbers nested ``ndim`` lists deep, as a finite
    float64 array, else a :class:`SchemaError` naming ``what`` (a string,
    bool, null or ``1e999``) or :func:`float_array`'s ``ValueError``."""
    cells = np.array(value, dtype=object)
    if cells.ndim != ndim:
        raise SchemaError(f"{what} must be a {ndim}-D array of numbers")
    for cell in cells.flat:
        if type(cell) not in JSON_NUMBERS:
            raise SchemaError(f"{what} must hold numbers, got {cell!r}")
    floats = float_array(value, what)
    if not all_finite(floats):
        raise SchemaError(f"{what} must hold finite numbers")
    return floats


def float_array(value, what: str) -> np.ndarray:
    """``value`` as numpy reads it, as a float64 array (a float64 array is
    returned as it is).  A ``ValueError`` naming ``what`` refuses what numpy
    reads as no integer or float array (strings, ``None``, a dict, bools
    alone), by its first value that is no number, and an int beyond float64."""
    values = np.asarray(value)
    if values.dtype is _FLOAT64:  # the query path's one test
        return values
    if values.dtype.kind not in "iuf":  # objects may be ints beyond float64
        for v in np.asarray(value, object).ravel().tolist():
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{what} must hold numbers, got {v!r}")
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{what} beyond the float64 range") from None


def as_real(value, what: str) -> float:
    """``value``, one finite number by :func:`float_array`'s rule (a 0-d
    array is one), as a float; else a ``ValueError`` naming ``what``."""
    number = float_array(value, what)
    if number.ndim or not all_finite(number):
        raise ValueError(f"{what} must be one finite number, got {value!r}")
    return float(number)


# the largest integer an int64 array, a numpy count or index, holds
INT64_MAX = int(np.iinfo(np.int64).max)


def as_int(value, what: str, least: int | None = None,
           most: int | None = None) -> int:
    """``value`` as an int if it is a Python or numpy integer in
    ``least..most`` (each bound if given), else a ``ValueError`` naming
    ``what``: a bool, float or string is no integer (JSON loads ``1.9``,
    ``true`` and ``"1"`` as such; ``int()`` would truncate or read them)."""
    if type(value) is not int:  # an exact int, the common case, skips this
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{what} {value!r} is not an integer")
        value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{what} must be <= {most}, got {value}")
    return value


# sibling modules' code objects carry file names of the form of __file__
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def warn(message: str) -> None:
    """A ``UserWarning`` naming the first stack frame outside the package."""
    level = 2  # warnings.warn at ``level`` names sys._getframe(level - 1)
    while sys._getframe(level - 1).f_code.co_filename.startswith(
            _PACKAGE_DIR):
        level += 1
    warnings.warn(message, UserWarning, level)


def _non_finite(token: str):
    raise ValueError(f"non-finite number {token} is not standard JSON")


# the writers refuse NaN and infinity (allow_nan=False), so the one reader
# refuses the NaN, Infinity and -Infinity tokens that json.loads accepts
JSON_DECODER = json.JSONDecoder(parse_constant=_non_finite)

# the JSON-lines writers' one encoder (json.dumps makes one per call); it
# refuses NaN and infinity with a ValueError
JSON_LINE = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def read_json(path, what: str):
    """The JSON value held by the file at ``path``; a file that is not
    UTF-8 standard JSON, or nests too deep for the decoder, raises
    :class:`SchemaError` naming the ``what`` artifact."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return JSON_DECODER.decode(fh.read())
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError too
            raise SchemaError(f"{what} file is not valid JSON: {exc}") from exc


@contextlib.contextmanager
def replace_on_success(path):
    """A text handle on ``<path>.tmp``, renamed onto ``path`` once the
    ``with`` body succeeds and removed on any exception.  A symlink at
    ``path`` is replaced, not written through; there is no fsync."""
    tmp = f"{os.fspath(path)}.tmp"
    fh = open(tmp, "w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
