"""Exception types shared across the package.

Width mismatches and other argument-level misuse raise plain ``ValueError``;
the classes here mark problems with persisted artifacts (model, trace,
monitor files) and store lifecycle violations, so callers can distinguish
bad data from bad environments.  :func:`exact_int` is the one integer-field
check that the file loaders share.
"""


class ActmonError(Exception):
    """Base class for package-specific errors."""


class SchemaError(ActmonError):
    """A persisted file is structurally invalid (missing keys, dangling
    node ids, ordering violations, inconsistent widths)."""


class FormatVersionError(SchemaError):
    """A persisted file declares a version this code does not understand."""


class FrozenStoreError(ActmonError):
    """A node-creating operation was attempted on a frozen BDD store."""


def exact_int(value, what: str) -> int:
    """``value`` itself if it is an int, else a :class:`SchemaError`.

    JSON loads ``1.9`` as a float, ``true`` as a bool and ``"1"`` as a
    string; ``int()`` would silently read each of them as 1.
    """
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value
