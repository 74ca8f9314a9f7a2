"""Exception types and the file layer shared across the package.

Width mismatches and other argument-level misuse raise plain ``ValueError``;
the classes here mark problems with persisted artifacts (model, trace,
monitor files) and store lifecycle violations, so callers can distinguish
bad data from bad environments.  Every artifact is parsed by the one
strict decoder :data:`JSON_DECODER` (whole files through :func:`read_json`,
trace files line by line) and written through :func:`replace_on_success`
(a JSON-lines file line by line through :data:`JSON_LINE`); the number
arrays of files read whole are checked by :func:`finite_floats`.
:func:`as_int` is the one integer rule, with its lower bound, for every
integer the package reads: arguments, labels and file fields alike.
:func:`all_finite` is the one finiteness rule for every float array the
package checks, and :func:`warn` points every warning at the caller's
line.
"""

import contextlib
import json
import math
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


def finite_floats(value, what: str, ndim: int) -> np.ndarray:
    """``value``, JSON numbers nested ``ndim`` lists deep, as a finite
    float64 array, else a :class:`SchemaError` naming ``what``: a string,
    bool, null or literal beyond float64 (``1e999`` reads as inf) is not."""
    cells = np.array(value, dtype=object)
    if cells.ndim != ndim:
        raise SchemaError(f"{what} must be a {ndim}-D array of numbers")
    for cell in cells.flat:
        if type(cell) not in (int, float):
            raise SchemaError(f"{what} must hold numbers, got {cell!r}")
    try:
        floats = cells.astype(np.float64)
    except OverflowError:  # an int beyond the float64 range
        floats = np.array(np.inf)
    if not all_finite(floats):
        raise SchemaError(f"{what} must hold finite numbers")
    return floats


def as_int(value, what: str, least: int | None = None) -> int:
    """``value`` as an int if it is a Python or numpy integer of at least
    ``least`` (if given), else a ``ValueError``: a bool, float or string
    is no integer (JSON loads ``1.9``, ``true`` and ``"1"`` as such), and
    ``int()`` would truncate 1.9 or read "1"."""
    if type(value) is not int:  # an exact int, the common case, skips this
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{what} {value!r} is not an integer")
        value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
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
